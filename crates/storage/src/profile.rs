//! Device and CPU cost models.
//!
//! Costs are expressed in simulated nanoseconds. The HDD and SSD profiles
//! mirror the two machines of Section 6.1: the HDD numbers reflect a 7200rpm
//! SATA disk (≈8ms average positioning time, ≈100MB/s streaming), the SSD
//! numbers a consumer SATA SSD (≈100µs access, ≈500MB/s streaming). The
//! *ratios* between random and sequential access are what reproduce the
//! paper's figure shapes; the absolute values only set the scale.
//!
//! The cost model charges *simulated* time only; no device access sleeps
//! on the wall clock.

/// Cost model for the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Cost of positioning before a non-sequential read (seek + rotation).
    pub seek_ns: u64,
    /// Streaming transfer cost per byte.
    pub transfer_ns_per_byte: f64,
    /// Cost of positioning before an appended write. Writes in an LSM are
    /// almost always sequential (flush/merge/WAL), so this is charged only
    /// when switching the write target between files.
    pub write_seek_ns: u64,
}

impl DiskProfile {
    /// 7200rpm SATA hard disk: 8ms seek, 100MB/s transfer.
    pub fn hdd() -> Self {
        DiskProfile {
            seek_ns: 8_000_000,
            transfer_ns_per_byte: 10.0, // 100 MB/s
            write_seek_ns: 8_000_000,
        }
    }

    /// SATA SSD: 100µs access, 500MB/s transfer.
    pub fn ssd() -> Self {
        DiskProfile {
            seek_ns: 100_000,
            transfer_ns_per_byte: 2.0, // 500 MB/s
            write_seek_ns: 100_000,
        }
    }

    /// Transfer cost of `bytes` bytes.
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 * self.transfer_ns_per_byte) as u64
    }

    /// Cost of a random read of `bytes` bytes.
    pub fn random_read_ns(&self, bytes: usize) -> u64 {
        self.seek_ns + self.transfer_ns(bytes)
    }

    /// Cost of a sequential continuation read of `bytes` bytes.
    pub fn sequential_read_ns(&self, bytes: usize) -> u64 {
        self.transfer_ns(bytes)
    }
}

/// CPU cost model, charged by the index layers so that the in-memory
/// optimizations of Section 3.2 (stateful B+-tree search, blocked Bloom
/// filters) are visible in simulated time exactly where the paper sees them:
/// at high selectivities, where disk time stops dominating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// One key comparison (includes the dependent cache access).
    pub key_cmp_ns: u64,
    /// One Bloom-filter probe that misses CPU cache (standard Bloom filters
    /// pay this for each of the k hash probes).
    pub bloom_probe_miss_ns: u64,
    /// One Bloom-filter probe within an already-loaded cache line (blocked
    /// Bloom filters pay the miss once, then this for the remaining probes).
    pub bloom_probe_hit_ns: u64,
    /// Visiting one B+-tree node during a root-to-leaf descent (pointer
    /// chase), in addition to the in-node search comparisons.
    pub btree_node_visit_ns: u64,
    /// One memtable (in-memory component) operation.
    pub memtable_op_ns: u64,
    /// Per-entry cost of streaming an entry through a sort or merge.
    pub sort_entry_ns: u64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            key_cmp_ns: 25,
            bloom_probe_miss_ns: 100,
            bloom_probe_hit_ns: 10,
            btree_node_visit_ns: 100,
            memtable_op_ns: 400,
            sort_entry_ns: 150,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_random_vs_sequential_gap_is_large() {
        let hdd = DiskProfile::hdd();
        let page = 128 * 1024;
        // A random 128KB read is dominated by the seek...
        assert!(hdd.random_read_ns(page) > 5 * hdd.sequential_read_ns(page));
        // ...while on SSD the gap is small.
        let ssd = DiskProfile::ssd();
        assert!(ssd.random_read_ns(page) < 2 * ssd.sequential_read_ns(page));
    }

    #[test]
    fn transfer_scales_linearly() {
        let hdd = DiskProfile::hdd();
        assert_eq!(hdd.transfer_ns(2000), 2 * hdd.transfer_ns(1000));
        assert_eq!(hdd.transfer_ns(0), 0);
    }

    #[test]
    fn blocked_bloom_is_cheaper_than_standard() {
        let cpu = CpuCosts::default();
        let k = 7u64;
        let standard = k * cpu.bloom_probe_miss_ns;
        let blocked = cpu.bloom_probe_miss_ns + (k - 1) * cpu.bloom_probe_hit_ns;
        assert!(blocked < standard / 3);
    }
}
