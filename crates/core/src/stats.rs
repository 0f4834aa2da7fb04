//! Engine-level operation counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for dataset operations.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Records successfully inserted.
    pub inserts: AtomicU64,
    /// Inserts rejected by the key-uniqueness check.
    pub inserts_rejected: AtomicU64,
    /// Upserts applied.
    pub upserts: AtomicU64,
    /// Deletes applied (including no-op deletes of absent keys).
    pub deletes: AtomicU64,
    /// Flush operations.
    pub flushes: AtomicU64,
    /// Active memory-component bytes (all indexes) at the moment each
    /// flush sealed them, summed: divided by [`EngineStats::flushes`] it is
    /// the mean flush size — `memory_budget` inline, between one and two
    /// budgets in the background (docs/OPERATIONS.md, "Flush size follows
    /// worker lag").
    pub flush_sealed_bytes: AtomicU64,
    /// Merge operations.
    pub merges: AtomicU64,
    /// Secondary-index repair operations.
    pub repairs: AtomicU64,
    /// Point lookups performed for maintenance (the Eager strategy's cost):
    /// an insert's uniqueness check, and each Eager upsert or delete whose
    /// key the primary key index may hold. A key the pk index proves new
    /// searches nothing and counts nothing, and replay counts none: an
    /// Eager log record carries the old fields its redo needs.
    pub maintenance_lookups: AtomicU64,
    /// Maintenance jobs enqueued on the background scheduler.
    pub jobs_enqueued: AtomicU64,
    /// Flush jobs executed by background workers.
    pub flush_jobs: AtomicU64,
    /// Merge jobs executed by background workers.
    pub merge_jobs: AtomicU64,
    /// Times a writer stalled on the hard memory ceiling (backpressure).
    pub backpressure_stalls: AtomicU64,
    /// This dataset's jobs waiting in the runtime queue (gauge, refreshed
    /// on writes).
    pub queue_depth: AtomicU64,
    /// Passages through an engine crash site (`wal_append`,
    /// `flush_install`, `merge_install`, `checkpoint`) while an armed
    /// [`FaultPlan`](lsm_storage::FaultPlan) was installed on the dataset's
    /// storage — a torture run's coverage signal.
    pub crash_sites_armed: AtomicU64,
    /// Crash-site passages where the fault plan actually fired.
    pub crash_sites_hit: AtomicU64,
    /// WAL group commits: single device appends that each made one
    /// committer group's page durable.
    pub wal_groups: AtomicU64,
    /// Log records covered by those group commits;
    /// `wal_grouped_records / wal_groups` is the achieved group size
    /// (`> 1` under concurrent commit).
    pub wal_grouped_records: AtomicU64,
}

impl EngineStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a background flush job execution.
    pub(crate) fn record_flush_job(&self) {
        self.bump(&self.flush_jobs);
    }

    /// Counts a background merge job execution.
    pub(crate) fn record_merge_job(&self) {
        self.bump(&self.merge_jobs);
    }

    /// Total records that entered the dataset (inserts + upserts).
    pub fn records_ingested(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed) + self.upserts.load(Ordering::Relaxed)
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            inserts_rejected: self.inserts_rejected.load(Ordering::Relaxed),
            upserts: self.upserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flush_sealed_bytes: self.flush_sealed_bytes.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            maintenance_lookups: self.maintenance_lookups.load(Ordering::Relaxed),
            jobs_enqueued: self.jobs_enqueued.load(Ordering::Relaxed),
            flush_jobs: self.flush_jobs.load(Ordering::Relaxed),
            merge_jobs: self.merge_jobs.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            crash_sites_armed: self.crash_sites_armed.load(Ordering::Relaxed),
            crash_sites_hit: self.crash_sites_hit.load(Ordering::Relaxed),
            wal_groups: self.wal_groups.load(Ordering::Relaxed),
            wal_grouped_records: self.wal_grouped_records.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct EngineStatsSnapshot {
    pub inserts: u64,
    pub inserts_rejected: u64,
    pub upserts: u64,
    pub deletes: u64,
    pub flushes: u64,
    pub flush_sealed_bytes: u64,
    pub merges: u64,
    pub repairs: u64,
    pub maintenance_lookups: u64,
    pub jobs_enqueued: u64,
    pub flush_jobs: u64,
    pub merge_jobs: u64,
    pub backpressure_stalls: u64,
    pub queue_depth: u64,
    pub crash_sites_armed: u64,
    pub crash_sites_hit: u64,
    pub wal_groups: u64,
    pub wal_grouped_records: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = EngineStats::new();
        s.bump(&s.inserts);
        s.bump(&s.inserts);
        s.bump(&s.upserts);
        assert_eq!(s.records_ingested(), 3);
        let snap = s.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.upserts, 1);
        assert_eq!(snap.deletes, 0);
    }
}
