//! The fluent maintenance API: [`Dataset::maintenance`] → [`Maintenance`] →
//! [`RepairPlan`].
//!
//! Index repair (Section 4.4) comes in four forms — standalone repair of
//! every secondary index or of one, merge repair, and the DELI-style
//! primary repair — whose trees and option structs must stay consistent
//! with the dataset's strategy. The facade is their only public entry
//! point: three verbs, with a [`RepairPlan`] builder for the mode /
//! Bloom-filter / merge-scan knobs:
//!
//! ```text
//! ds.maintenance().repair_all()?;                      // strategy-aware defaults
//! ds.maintenance().repair_index("user_id")?;           // one index
//! ds.maintenance().repair_primary()?;                  // DELI baseline
//! ds.maintenance().plan().bloom(true).parallel(true).repair_all()?;
//! ```
//!
//! Strategy awareness: a `DeletedKeyBTree` dataset resolves to
//! [`RepairMode::DeletedKeyBTree`] (full validation + deleted-key B+-tree
//! write, Section 4.1), everything else to
//! [`RepairMode::PrimaryKeyIndex`] with the dataset's configured
//! `repair_bloom_opt` — so `repair_all()` does the right thing for each of
//! the four strategies without the caller naming a mode.

use crate::dataset::Dataset;
use crate::repair::{self, RepairMode, RepairOptions, RepairReport};
use lsm_common::{Error, Result};
use lsm_tree::MergeRange;

impl Dataset {
    /// Entry point to the fluent maintenance API.
    pub fn maintenance(&self) -> Maintenance<'_> {
        Maintenance { ds: self }
    }
}

/// Maintenance facade over a dataset; obtained from [`Dataset::maintenance`].
#[derive(Debug, Clone, Copy)]
pub struct Maintenance<'a> {
    ds: &'a Dataset,
}

impl<'a> Maintenance<'a> {
    /// Starts a repair plan with strategy-aware defaults.
    pub fn plan(&self) -> RepairPlan<'a> {
        RepairPlan {
            ds: self.ds,
            mode: self.ds.config().default_repair_mode(),
            merge_scan: true,
            parallel: false,
            with_merge: false,
        }
    }

    /// Standalone-repairs every secondary index with the default plan.
    pub fn repair_all(&self) -> Result<Vec<RepairReport>> {
        self.plan().repair_all()
    }

    /// Standalone-repairs one secondary index with the default plan.
    pub fn repair_index(&self, name: &str) -> Result<RepairReport> {
        self.plan().repair_index(name)
    }

    /// Runs a DELI-style primary repair (Section 4.1) with the default plan.
    pub fn repair_primary(&self) -> Result<u64> {
        self.plan().repair_primary()
    }

    /// Flushes all memory components together, synchronously on the
    /// calling thread whether or not the dataset has a maintenance runtime.
    /// On a runtime, the follow-up merges are handed to its workers;
    /// inline, they are left to the next write that trips the budget.
    /// Returns `true` if anything was flushed.
    pub fn flush(&self) -> Result<bool> {
        let flushed = self.ds.flush_all()?;
        if let Some(handle) = self.ds.runtime_handle() {
            self.ds.schedule_planned_merges(handle);
        }
        Ok(flushed)
    }

    /// Runs policy-driven merges until quiescent.
    pub fn run_merges(&self) -> Result<()> {
        self.ds.run_merges()
    }

    /// Blocks until *this dataset's* background jobs — queued and
    /// in-flight — have completed (a no-op in inline mode), then surfaces
    /// any background failure. On a shared runtime, other datasets' queued
    /// jobs are left untouched. The dataset is structurally quiescent
    /// afterwards — the state multi-threaded tests verify against.
    pub fn quiesce(&self) -> Result<()> {
        self.ds.drain_background();
        self.ds.maintenance_stats_refresh();
        self.ds.check_poisoned()
    }
}

/// A configured repair, built from [`Maintenance::plan`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a RepairPlan does nothing until a repair verb is called"]
pub struct RepairPlan<'a> {
    ds: &'a Dataset,
    mode: RepairMode,
    merge_scan: bool,
    parallel: bool,
    with_merge: bool,
}

impl RepairPlan<'_> {
    /// Toggles the Bloom-filter optimization (Section 4.4) within the
    /// primary-key-index mode; a no-op for the deleted-key B+-tree mode.
    pub fn bloom(mut self, on: bool) -> Self {
        if let RepairMode::PrimaryKeyIndex { .. } = self.mode {
            self.mode = RepairMode::PrimaryKeyIndex { bloom_opt: on };
        }
        self
    }

    /// Toggles the merge-scan optimization (point validation vs merge join,
    /// Section 4.4).
    pub fn merge_scan(mut self, on: bool) -> Self {
        self.merge_scan = on;
        self
    }

    /// Repairs secondary indexes on one thread each (Section 6.5).
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Piggybacks a merge: [`RepairPlan::repair_index`] merge-repairs all of
    /// the index's components into one (Figure 7); `repair_primary`
    /// additionally merges the primary components, as DELI does.
    pub fn with_merge(mut self, on: bool) -> Self {
        self.with_merge = on;
        self
    }

    /// The resolved low-level options (inspectable in tests and benches).
    pub fn options(&self) -> RepairOptions {
        RepairOptions {
            mode: self.mode,
            merge_scan_opt: self.merge_scan,
        }
    }

    /// Brings every secondary index up-to-date with standalone repairs
    /// (the Figure 20 measurement loop).
    pub fn repair_all(self) -> Result<Vec<RepairReport>> {
        repair::repair_all_secondaries(self.ds, &self.options(), self.parallel)
    }

    /// Repairs the named secondary index: a standalone repair (fresh
    /// bitmaps) by default, or a merge repair of all its disk components
    /// when [`RepairPlan::with_merge`] is set.
    pub fn repair_index(self, name: &str) -> Result<RepairReport> {
        let sec = self.ds.secondary(name)?;
        let pk_tree = self
            .ds
            .pk_index()
            .ok_or_else(|| Error::invalid("index repair requires the primary key index"))?;
        if self.with_merge {
            // Merge-repair splices the index's component list, so it must
            // not race a background merge; the count is derived under the
            // same lock.
            let _merges = self.ds.merge_serialization().lock();
            let n = sec.tree.num_disk_components();
            if n == 0 {
                return Ok(RepairReport::default());
            }
            repair::merge_repair(
                &sec.tree,
                pk_tree,
                MergeRange {
                    start: 0,
                    end: n - 1,
                },
                &self.options(),
            )
        } else {
            repair::standalone_repair(&sec.tree, pk_tree, &self.options())
        }
    }

    /// DELI-style primary repair (Section 4.1): scans primary components
    /// for obsolete record versions and plants secondary anti-matter,
    /// merging the primary when [`RepairPlan::with_merge`] is set. Returns
    /// the number of obsolete versions repaired.
    pub fn repair_primary(self) -> Result<u64> {
        repair::deli_primary_repair(self.ds, self.with_merge)
    }
}
