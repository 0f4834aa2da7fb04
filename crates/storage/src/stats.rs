//! I/O and CPU event counters.
//!
//! Counters are atomics so that concurrent readers/writers (merge threads vs
//! ingestion threads) can be accounted without locking. Benchmarks snapshot
//! them before/after an operation; tests assert on them (e.g. "the batched
//! lookup performed zero random reads on the leaf level").

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters, shared by reference.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Page reads that missed the buffer cache and were sequential
    /// continuations of the previous read on the same file.
    pub seq_reads: AtomicU64,
    /// Page reads that missed the buffer cache and required a seek.
    pub rand_reads: AtomicU64,
    /// Page reads satisfied by the buffer cache.
    pub cache_hits: AtomicU64,
    /// Pages written (flush, merge, WAL).
    pub pages_written: AtomicU64,
    /// Bytes read from the simulated device (cache misses only).
    pub bytes_read: AtomicU64,
    /// Bytes written to the simulated device.
    pub bytes_written: AtomicU64,
    /// Bloom filter membership tests performed.
    pub bloom_checks: AtomicU64,
    /// Bloom filter tests that returned "definitely absent".
    pub bloom_negatives: AtomicU64,
    /// Simulated CPU nanoseconds charged.
    pub cpu_ns: AtomicU64,
    /// Faults injected by an installed [`FaultPlan`](crate::FaultPlan) on
    /// this device (errors, crashes, torn and short writes).
    pub faults_injected: AtomicU64,
    /// Appends damaged by an injected torn or short write.
    pub torn_writes: AtomicU64,
    /// WAL group commits: device appends that each covered one committer
    /// group's page.
    pub wal_groups: AtomicU64,
    /// Log records covered by those group commits
    /// (`wal_grouped_records / wal_groups` = mean group size).
    pub wal_grouped_records: AtomicU64,
    /// Per-page file-table lookups avoided by batched page reads
    /// ([`Storage::read_pages`](crate::Storage::read_pages)): `count - 1`
    /// per batch, versus fetching each page individually.
    pub batched_lookups_saved: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            rand_reads: self.rand_reads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bloom_checks: self.bloom_checks.load(Ordering::Relaxed),
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            cpu_ns: self.cpu_ns.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            wal_groups: self.wal_groups.load(Ordering::Relaxed),
            wal_grouped_records: self.wal_grouped_records.load(Ordering::Relaxed),
            batched_lookups_saved: self.batched_lookups_saved.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `checks` bloom filter checks, `negatives` of which pruned —
    /// a lookup reports the filters it probed in one call.
    pub fn record_bloom_checks(&self, checks: u64, negatives: u64) {
        self.add(&self.bloom_checks, checks);
        if negatives > 0 {
            self.add(&self.bloom_negatives, negatives);
        }
    }
}

/// An immutable copy of the counters, with difference support. Field
/// meanings match [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct IoStatsSnapshot {
    pub seq_reads: u64,
    pub rand_reads: u64,
    pub cache_hits: u64,
    pub pages_written: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub bloom_checks: u64,
    pub bloom_negatives: u64,
    pub cpu_ns: u64,
    pub faults_injected: u64,
    pub torn_writes: u64,
    pub wal_groups: u64,
    pub wal_grouped_records: u64,
    pub batched_lookups_saved: u64,
}

impl IoStatsSnapshot {
    /// Total page reads that reached the device.
    pub fn disk_reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// Counter-wise difference `self - earlier` (for measuring one phase).
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            cache_hits: self.cache_hits - earlier.cache_hits,
            pages_written: self.pages_written - earlier.pages_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bloom_checks: self.bloom_checks - earlier.bloom_checks,
            bloom_negatives: self.bloom_negatives - earlier.bloom_negatives,
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            faults_injected: self.faults_injected - earlier.faults_injected,
            torn_writes: self.torn_writes - earlier.torn_writes,
            wal_groups: self.wal_groups - earlier.wal_groups,
            wal_grouped_records: self.wal_grouped_records - earlier.wal_grouped_records,
            batched_lookups_saved: self.batched_lookups_saved - earlier.batched_lookups_saved,
        }
    }

    /// Fraction of page accesses served by the cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.disk_reads() + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let s = IoStats::new();
        s.add(&s.rand_reads, 3);
        s.add(&s.cache_hits, 1);
        let a = s.snapshot();
        s.add(&s.rand_reads, 2);
        s.add(&s.seq_reads, 5);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.rand_reads, 2);
        assert_eq!(d.seq_reads, 5);
        assert_eq!(d.cache_hits, 0);
        assert_eq!(d.disk_reads(), 7);
    }

    #[test]
    fn hit_ratio() {
        let s = IoStats::new();
        assert_eq!(s.snapshot().cache_hit_ratio(), 0.0);
        s.add(&s.cache_hits, 3);
        s.add(&s.rand_reads, 1);
        assert!((s.snapshot().cache_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bloom_counters() {
        let s = IoStats::new();
        s.record_bloom_checks(2, 1);
        let snap = s.snapshot();
        assert_eq!(snap.bloom_checks, 2);
        assert_eq!(snap.bloom_negatives, 1);
    }
}
