//! I/O and CPU event counters.
//!
//! Counters are atomics so that concurrent readers/writers (merge threads vs
//! ingestion threads) can be accounted without locking. Benchmarks snapshot
//! them before/after an operation; tests assert on them (e.g. "the batched
//! lookup performed zero random reads on the leaf level").
//!
//! Every event the cost model prices is counted here, so a device's share
//! of the simulated clock is a sum of counts times prices (see
//! [`Storage::charged_ns`](crate::Storage::charged_ns)).

use crate::profile::{CpuCosts, Event};
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
    /// Appends that switched the write target to another file and paid a
    /// write seek.
    pub write_seeks: AtomicU64,
    /// Bytes read from the simulated device (cache misses only).
    pub bytes_read: AtomicU64,
    /// Bytes written to the simulated device.
    pub bytes_written: AtomicU64,
    /// Bloom filter membership tests performed.
    pub bloom_checks: AtomicU64,
    /// Bloom filter tests that returned "definitely absent".
    pub bloom_negatives: AtomicU64,
    /// [`Event::KeyCmp`]s charged.
    pub key_cmps: AtomicU64,
    /// [`Event::NodeVisit`]s charged.
    pub node_visits: AtomicU64,
    /// [`Event::BloomProbeMiss`]es charged.
    pub bloom_probe_misses: AtomicU64,
    /// [`Event::BloomProbeHit`]s charged.
    pub bloom_probe_hits: AtomicU64,
    /// [`Event::MemtableOp`]s charged.
    pub memtable_ops: AtomicU64,
    /// [`Event::SortEntry`]s charged.
    pub sort_entries: AtomicU64,
    /// Faults injected by an installed [`FaultPlan`](crate::FaultPlan) on
    /// this device (errors, crashes, torn and short writes).
    pub faults_injected: AtomicU64,
    /// Appends damaged by an injected torn or short write.
    pub torn_writes: AtomicU64,
    /// Per-page file-table lookups avoided by batched page reads
    /// ([`Storage::read_pages`](crate::Storage::read_pages)): `count - 1`
    /// per batch, versus fetching each page individually.
    pub batched_lookups_saved: AtomicU64,
    /// Gap pages a forward read streamed instead of seeking over them
    /// ([`Storage::read_page_forward`](crate::Storage::read_page_forward)).
    /// They are device reads too, counted in `seq_reads` and `bytes_read`.
    pub bridged_pages: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter of `event`.
    pub(crate) fn count_of(&self, event: Event) -> &AtomicU64 {
        match event {
            Event::KeyCmp => &self.key_cmps,
            Event::NodeVisit => &self.node_visits,
            Event::BloomProbeMiss => &self.bloom_probe_misses,
            Event::BloomProbeHit => &self.bloom_probe_hits,
            Event::MemtableOp => &self.memtable_ops,
            Event::SortEntry => &self.sort_entries,
        }
    }

    /// Takes a point-in-time copy of all counters, its `cpu_ns` the CPU
    /// counts priced at `cpu`.
    pub(crate) fn snapshot(&self, cpu: &CpuCosts) -> IoStatsSnapshot {
        let mut snap = IoStatsSnapshot {
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            rand_reads: self.rand_reads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            write_seeks: self.write_seeks.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bloom_checks: self.bloom_checks.load(Ordering::Relaxed),
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            cpu_ns: 0,
            key_cmps: self.key_cmps.load(Ordering::Relaxed),
            node_visits: self.node_visits.load(Ordering::Relaxed),
            bloom_probe_misses: self.bloom_probe_misses.load(Ordering::Relaxed),
            bloom_probe_hits: self.bloom_probe_hits.load(Ordering::Relaxed),
            memtable_ops: self.memtable_ops.load(Ordering::Relaxed),
            sort_entries: self.sort_entries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            batched_lookups_saved: self.batched_lookups_saved.load(Ordering::Relaxed),
            bridged_pages: self.bridged_pages.load(Ordering::Relaxed),
        };
        snap.cpu_ns = snap.events().iter().map(|&(e, n)| n * cpu.price(e)).sum();
        snap
    }

    pub(crate) fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `checks` bloom filter checks, `negatives` of which pruned —
    /// a lookup reports the filters it probed in one call.
    pub(crate) fn record_bloom_checks(&self, checks: u64, negatives: u64) {
        self.add(&self.bloom_checks, checks);
        if negatives > 0 {
            self.add(&self.bloom_negatives, negatives);
        }
    }
}

/// An immutable copy of the counters, with difference support. Field
/// meanings match [`IoStats`], but for `cpu_ns`: the simulated CPU
/// nanoseconds charged, every CPU count times its price.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct IoStatsSnapshot {
    pub seq_reads: u64,
    pub rand_reads: u64,
    pub cache_hits: u64,
    pub pages_written: u64,
    pub write_seeks: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub bloom_checks: u64,
    pub bloom_negatives: u64,
    pub cpu_ns: u64,
    pub key_cmps: u64,
    pub node_visits: u64,
    pub bloom_probe_misses: u64,
    pub bloom_probe_hits: u64,
    pub memtable_ops: u64,
    pub sort_entries: u64,
    pub faults_injected: u64,
    pub torn_writes: u64,
    pub batched_lookups_saved: u64,
    pub bridged_pages: u64,
}

impl IoStatsSnapshot {
    /// Total page reads that reached the device.
    pub fn disk_reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// Every CPU [`Event`] with its count.
    pub fn events(&self) -> [(Event, u64); 6] {
        [
            (Event::KeyCmp, self.key_cmps),
            (Event::NodeVisit, self.node_visits),
            (Event::BloomProbeMiss, self.bloom_probe_misses),
            (Event::BloomProbeHit, self.bloom_probe_hits),
            (Event::MemtableOp, self.memtable_ops),
            (Event::SortEntry, self.sort_entries),
        ]
    }

    /// Counter-wise difference `self - earlier` (for measuring one phase).
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            cache_hits: self.cache_hits - earlier.cache_hits,
            pages_written: self.pages_written - earlier.pages_written,
            write_seeks: self.write_seeks - earlier.write_seeks,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bloom_checks: self.bloom_checks - earlier.bloom_checks,
            bloom_negatives: self.bloom_negatives - earlier.bloom_negatives,
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            key_cmps: self.key_cmps - earlier.key_cmps,
            node_visits: self.node_visits - earlier.node_visits,
            bloom_probe_misses: self.bloom_probe_misses - earlier.bloom_probe_misses,
            bloom_probe_hits: self.bloom_probe_hits - earlier.bloom_probe_hits,
            memtable_ops: self.memtable_ops - earlier.memtable_ops,
            sort_entries: self.sort_entries - earlier.sort_entries,
            faults_injected: self.faults_injected - earlier.faults_injected,
            torn_writes: self.torn_writes - earlier.torn_writes,
            batched_lookups_saved: self.batched_lookups_saved - earlier.batched_lookups_saved,
            bridged_pages: self.bridged_pages - earlier.bridged_pages,
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
        let a = s.snapshot(&CpuCosts::default());
        s.add(&s.rand_reads, 2);
        s.add(&s.seq_reads, 5);
        let b = s.snapshot(&CpuCosts::default());
        let d = b.since(&a);
        assert_eq!(d.rand_reads, 2);
        assert_eq!(d.seq_reads, 5);
        assert_eq!(d.cache_hits, 0);
        assert_eq!(d.disk_reads(), 7);
    }

    #[test]
    fn hit_ratio() {
        let s = IoStats::new();
        assert_eq!(s.snapshot(&CpuCosts::default()).cache_hit_ratio(), 0.0);
        s.add(&s.cache_hits, 3);
        s.add(&s.rand_reads, 1);
        assert!((s.snapshot(&CpuCosts::default()).cache_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bloom_counters() {
        let s = IoStats::new();
        s.record_bloom_checks(2, 1);
        let snap = s.snapshot(&CpuCosts::default());
        assert_eq!(snap.bloom_checks, 2);
        assert_eq!(snap.bloom_negatives, 1);
    }
}
