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
//! on the wall clock. Every price is a whole number of nanoseconds, and
//! only [`Storage`](crate::Storage) reads them: it counts each event and
//! advances the clock by the count times the price.

/// Cost model for the simulated disk. Every price is an integer number of
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskProfile {
    /// Cost of positioning before a non-sequential read (seek + rotation).
    pub seek_ns: u64,
    /// Streaming transfer cost per byte.
    pub transfer_ns_per_byte: u64,
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
            transfer_ns_per_byte: 10, // 100 MB/s
            write_seek_ns: 8_000_000,
        }
    }

    /// SATA SSD: 100µs access, 500MB/s transfer.
    pub fn ssd() -> Self {
        DiskProfile {
            seek_ns: 100_000,
            transfer_ns_per_byte: 2, // 500 MB/s
            write_seek_ns: 100_000,
        }
    }

    /// Transfer cost of `bytes` bytes.
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        bytes as u64 * self.transfer_ns_per_byte
    }

    /// The longest forward gap, in pages of `page_bytes`, that is cheaper
    /// to stream than to seek over: the largest `g` with `g ×
    /// transfer(page) < seek` — 6 pages of 128 KiB on the HDD, 1 page of
    /// 32 KiB on the SSD.
    pub(crate) fn bridge_pages(&self, page_bytes: usize) -> u32 {
        let pages = self
            .seek_ns
            .saturating_sub(1)
            .checked_div(self.transfer_ns(page_bytes))
            .unwrap_or(u64::MAX);
        u32::try_from(pages).unwrap_or(u32::MAX)
    }
}

/// A unit of CPU work the cost model prices: callers name the event and
/// how many of it they did, [`Storage::charge`](crate::Storage::charge)
/// counts them and charges their price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// One key comparison (priced [`CpuCosts::key_cmp_ns`]).
    KeyCmp,
    /// One B+-tree node visited ([`CpuCosts::btree_node_visit_ns`]).
    NodeVisit,
    /// One Bloom-filter probe that misses CPU cache
    /// ([`CpuCosts::bloom_probe_miss_ns`]).
    BloomProbeMiss,
    /// One Bloom-filter probe within a loaded cache line
    /// ([`CpuCosts::bloom_probe_hit_ns`]).
    BloomProbeHit,
    /// One memtable operation ([`CpuCosts::memtable_op_ns`]).
    MemtableOp,
    /// One entry streamed through a sort or merge
    /// ([`CpuCosts::sort_entry_ns`]).
    SortEntry,
}

/// CPU cost model, charged by the index layers so that the in-memory
/// optimizations of Section 3.2 (stateful B+-tree search, blocked Bloom
/// filters) are visible in simulated time exactly where the paper sees them:
/// at high selectivities, where disk time stops dominating. Every price is
/// an integer number of nanoseconds per [`Event`].
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

impl CpuCosts {
    /// The price of one `event`.
    pub(crate) fn price(&self, event: Event) -> u64 {
        match event {
            Event::KeyCmp => self.key_cmp_ns,
            Event::NodeVisit => self.btree_node_visit_ns,
            Event::BloomProbeMiss => self.bloom_probe_miss_ns,
            Event::BloomProbeHit => self.bloom_probe_hit_ns,
            Event::MemtableOp => self.memtable_op_ns,
            Event::SortEntry => self.sort_entry_ns,
        }
    }
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
        assert!(hdd.seek_ns > 4 * hdd.transfer_ns(page));
        // ...while on SSD the gap is small.
        let ssd = DiskProfile::ssd();
        assert!(ssd.seek_ns < ssd.transfer_ns(page));
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
