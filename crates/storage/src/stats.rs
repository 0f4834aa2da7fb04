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

lsm_common::counters! {
    /// Live counters, shared by reference.
    pub struct IoStats;
    /// An immutable copy of the counters, with difference support.
    pub struct IoStatsSnapshot;
    counters {
        /// Page reads that missed the buffer cache and were sequential
        /// continuations of the previous read on the same file.
        seq_reads,
        /// Page reads that missed the buffer cache and required a seek.
        rand_reads,
        /// Page reads satisfied by the buffer cache.
        cache_hits,
        /// Pages written (flush, merge, WAL).
        pages_written,
        /// Appends that switched the write target to another file and paid a
        /// write seek.
        write_seeks,
        /// Bytes read from the simulated device (cache misses only).
        bytes_read,
        /// Bytes written to the simulated device.
        bytes_written,
        /// Bloom filter membership tests performed.
        bloom_checks,
        /// Bloom filter tests that returned "definitely absent".
        bloom_negatives,
        /// [`Event::KeyCmp`]s charged.
        key_cmps,
        /// [`Event::NodeVisit`]s charged.
        node_visits,
        /// [`Event::BloomProbeMiss`]es charged.
        bloom_probe_misses,
        /// [`Event::BloomProbeHit`]s charged.
        bloom_probe_hits,
        /// [`Event::MemtableOp`]s charged.
        memtable_ops,
        /// [`Event::SortEntry`]s charged.
        sort_entries,
        /// Faults injected by an installed [`FaultPlan`](crate::FaultPlan) on
        /// this device (errors, crashes, torn and short writes).
        faults_injected,
        /// Appends damaged by an injected torn or short write.
        torn_writes,
        /// Per-page file-table lookups avoided by batched page reads
        /// ([`Storage::read_pages`](crate::Storage::read_pages)): `count - 1`
        /// per batch, versus fetching each page individually.
        batched_lookups_saved,
        /// Gap pages a forward read streamed instead of seeking over them
        /// ([`Storage::read_page_forward`](crate::Storage::read_page_forward)).
        /// They are device reads too, counted in `seq_reads` and `bytes_read`.
        bridged_pages,
    }
    derived {
        /// The simulated CPU nanoseconds charged: every CPU count times its
        /// price.
        cpu_ns,
    }
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
        let mut snap = self.load();
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
