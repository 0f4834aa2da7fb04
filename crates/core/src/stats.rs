//! Engine-level operation counters.

use lsm_common::Result;
use lsm_storage::SiteOutcome;
use std::sync::atomic::{AtomicU64, Ordering};

lsm_common::counters! {
    /// Live counters for dataset operations.
    pub struct EngineStats;
    /// Immutable snapshot of [`EngineStats`].
    pub struct EngineStatsSnapshot;
    counters {
        /// Records successfully inserted.
        inserts,
        /// Inserts rejected by the key-uniqueness check.
        inserts_rejected,
        /// Upserts applied.
        upserts,
        /// Deletes applied, each one logged anti-matter entry. The
        /// strategies that do not look up the old version count a delete of
        /// an absent key too; Eager ignores it and counts nothing.
        deletes,
        /// Flush operations.
        flushes,
        /// Active memory-component bytes (all indexes) at the moment each
        /// flush sealed them, summed: divided by [`EngineStats::flushes`] it is
        /// the mean flush size — `memory_budget` inline, between one and two
        /// budgets in the background (docs/OPERATIONS.md, "Flush size follows
        /// worker lag").
        flush_sealed_bytes,
        /// Merge operations.
        merges,
        /// Secondary-index repair operations.
        repairs,
        /// Point lookups performed for maintenance (the Eager strategy's cost):
        /// an insert's uniqueness check, and each Eager upsert or delete whose
        /// key the primary key index may hold. A key the pk index proves new
        /// searches nothing and counts nothing, and replay counts none: an
        /// Eager log record carries the old fields its redo needs.
        maintenance_lookups,
        /// Maintenance jobs enqueued on the background scheduler.
        jobs_enqueued,
        /// Flush jobs executed by background workers.
        flush_jobs,
        /// Merge jobs executed by background workers.
        merge_jobs,
        /// Times a writer stalled on the hard memory ceiling (backpressure).
        backpressure_stalls,
        /// Passages through an engine crash site (`wal_append`,
        /// `wal_group_write`, `flush_install`, `merge_install`, `checkpoint`)
        /// while an armed [`FaultPlan`](lsm_storage::FaultPlan) was installed
        /// on the dataset's storage — a torture run's coverage signal.
        crash_sites_armed,
        /// Crash-site passages where the fault plan actually fired.
        crash_sites_hit,
        /// WAL group commits: single device appends that each made one
        /// committer group's page durable.
        wal_groups,
        /// Log records covered by those group commits;
        /// `wal_grouped_records / wal_groups` is the achieved group size
        /// (`> 1` under concurrent commit).
        wal_grouped_records,
    }
    gauges {
        /// This dataset's jobs waiting in the runtime queue (gauge, refreshed
        /// on writes).
        queue_depth,
    }
}

impl EngineStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one crash-site passage on `stats`, if bound: an armed plan
    /// bumps `crash_sites_armed`, one that fired `crash_sites_hit` too.
    /// Returns the injected error of a fired site, which aborts the
    /// enclosing operation mid-window, as a crash at that point would.
    pub(crate) fn count_crash_site(stats: Option<&Self>, outcome: SiteOutcome) -> Result<()> {
        let fired = match outcome {
            SiteOutcome::Unarmed => return Ok(()),
            SiteOutcome::Armed => None,
            SiteOutcome::Fired(e) => Some(e),
        };
        if let Some(s) = stats {
            s.bump(&s.crash_sites_armed);
            if fired.is_some() {
                s.bump(&s.crash_sites_hit);
            }
        }
        fired.map_or(Ok(()), Err)
    }

    /// Total records that entered the dataset (inserts + upserts).
    pub fn records_ingested(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed) + self.upserts.load(Ordering::Relaxed)
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        self.load()
    }
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
