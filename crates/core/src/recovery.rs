//! Crash recovery (Sections 2.2 and 5.2).
//!
//! The engine is no-steal/no-force: disk components only ever contain
//! committed operations, so recovery performs no undo. A crash loses the
//! memory components, the in-memory logical clock, and any bitmap mutations
//! after the last checkpoint; recovery replays committed log records
//! "beyond the maximum component LSN" — with our LSN = operation timestamp,
//! that is every record whose timestamp exceeds the newest timestamp found
//! in any flushed component. Replayed deletes/upserts re-execute their
//! bitmap mutations (guided by the update bit in the log record), and the
//! clock is advanced past everything durable and replayed before new
//! writes are admitted.
//!
//! # Redo point
//!
//! Replay reads the log from a **redo page**, not from page 0. A
//! checkpoint computes `low = min(checkpoint LSN, maximum component LSN)`
//! and stamps, with its LSN, the first log page holding a record above
//! `low` (`Wal::redo_page`); every page before it holds only records at
//! or below `low`. Recovery replays the records above
//! `from = min(checkpoint LSN, maximum component LSN at recovery)`, so it
//! starts at the redo page whenever `from >= low`, and at page 0 otherwise
//! (a rolled-back torn flush can lower the maximum component LSN below
//! what the checkpoint saw). Its cost thus follows the log written since
//! the checkpoint, not the log's whole history. The pages before the redo
//! point are dead but still kept: the log is never truncated.
//!
//! # Eager's replay reads the log alone
//!
//! An Eager write fetches its key's old version to clean the secondary
//! indexes and widen the filters (Section 3.1). It needs only the old
//! version's secondary keys and filter value, and it logs them: its log
//! record appends them to the new record (see `LogRecord::value`), as
//! AsterixDB logs index-level operations whose redo looks nothing up.
//! Replay splits each logged value at the schema's arity and hands the old
//! fields to the write (`Dataset::split_logged`), so Eager's recovery reads
//! the log and no data page; a logged value whose appended part is not the
//! fields the dataset maintains is corruption. The logged fields are the
//! ones a lookup at replay would find: replay redoes the records in LSN
//! order from the state the first of them was written on.
//!
//! # Interaction with background maintenance
//!
//! All three entry points cooperate with a running
//! [`MaintenanceRuntime`](crate::MaintenanceRuntime):
//!
//! * [`checkpoint`] and [`simulate_crash`] serialize behind the dataset's
//!   flush and merge locks — without them a concurrent merge could retire
//!   a component between the bitmap snapshot and the LSN stamp (or between
//!   `set_bitmap` calls), corrupting the checkpoint.
//! * [`recover`] drains the dataset's queued/in-flight background jobs and
//!   replays through `Dataset::replay`, which logs nothing and maintains
//!   *inline*: replay rewinds the logical clock per record, and a
//!   background flush racing that would stamp components with rewound
//!   timestamps.

use crate::dataset::{Dataset, WriteOp};
use crate::keys::decode_pk;
use crate::txn::LogOp;
use lsm_common::{Error, Result, Timestamp};
use lsm_storage::PageNo;
use lsm_tree::{BitmapSnapshot, LsmTree};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Checkpointed bitmap state, keyed by component ID interval (component
/// files are immutable, so the ID identifies the component), and the
/// master record: the checkpoint LSN with its redo point.
#[derive(Debug)]
pub struct CheckpointState {
    bitmaps: Mutex<HashMap<(Timestamp, Timestamp), BitmapSnapshot>>,
    stamp: Mutex<Stamp>,
}

/// What a completed checkpoint stamps, all three at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stamp {
    /// The checkpoint LSN.
    lsn: Timestamp,
    /// `min(lsn, maximum component LSN)` when the checkpoint was taken.
    low: Timestamp,
    /// The first log page holding a record above `low`.
    redo_page: PageNo,
}

impl CheckpointState {
    /// Creates empty checkpoint state.
    pub fn new() -> Self {
        // Constructed field-by-field (not via derive) so the two locks get
        // distinct lock classes: `checkpoint` stamps `stamp` while holding
        // `bitmaps` (checkpoint-bitmaps -> checkpoint-stamp edge).
        CheckpointState {
            bitmaps: Mutex::new(HashMap::new()),
            stamp: Mutex::new(Stamp::default()),
        }
    }
}

impl Default for CheckpointState {
    fn default() -> Self {
        Self::new()
    }
}

/// What recovery did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log records replayed.
    pub replayed: u64,
    /// Log records skipped because their effects were already in components.
    pub skipped: u64,
}

/// The newest timestamp durable in any of the dataset's primary
/// components ("the maximum component LSN").
fn max_component_ts(ds: &Dataset) -> Timestamp {
    ds.primary()
        .disk_components()
        .iter()
        .map(|c| c.id().max_ts)
        .max()
        .unwrap_or(0)
}

/// Takes a checkpoint: forces the log and snapshots every primary-component
/// bitmap (the paper's "regular checkpointing ... to flush dirty pages of
/// bitmaps", Section 5.2).
///
/// Serialized behind the dataset's flush and merge locks: on a
/// [`MaintenanceRuntime`](crate::MaintenanceRuntime) a concurrent
/// merge could otherwise retire a component between the bitmap snapshot
/// and the LSN stamp, leaving a checkpoint that names components which no
/// longer exist at its LSN.
pub fn checkpoint(ds: &Dataset, state: &CheckpointState) -> Result<()> {
    let _flush = ds.flush_serialization().lock();
    let _merges = ds.merge_serialization().lock();
    // Drain in-flight writers too (they hold the dataset lock shared per
    // operation): a Mutable-bitmap upsert sets its bitmap bit BEFORE
    // appending its log record, so snapshotting mid-operation could
    // capture a mark whose record the crash then loses — restoring the
    // mark would delete the old version of a key whose new version never
    // committed. With no writer mid-op, every captured mark's record is
    // already appended, and the force below makes it durable.
    let _drain = ds.dataset_lock().write();
    let lsn = ds.clock().now();
    if let Some(wal) = ds.wal() {
        wal.checkpoint(lsn)?;
    }
    // Crash window: the checkpoint record is durable in the log, but the
    // bitmap snapshots and the stamp have not been taken — the old
    // checkpoint state, redo point included, must remain usable.
    ds.checkpoint_crash_site()?;
    // Read from the log before either checkpoint-state lock is taken: the
    // log's lock ranks outside them (ARCHITECTURE.md, "Lock hierarchy").
    let low = lsn.min(max_component_ts(ds));
    let redo_page = ds.wal().map_or(0, |wal| wal.redo_page(low));
    let mut bitmaps = state.bitmaps.lock();
    bitmaps.clear();
    for comp in ds.primary().disk_components().iter() {
        if let Some(b) = comp.bitmap() {
            bitmaps.insert((comp.id().min_ts, comp.id().max_ts), b.snapshot());
        }
    }
    *state.stamp.lock() = Stamp {
        lsn,
        low,
        redo_page,
    };
    Ok(())
}

/// Simulates a crash: memory components vanish, unforced log records are
/// lost, bitmaps revert to their last checkpointed state, and the logical
/// clock — in-memory state a real restart would not have — is wiped
/// ([`recover`] rebuilds it from the durable state).
///
/// Requires a write-ahead log: without one, [`recover`] cannot run, so
/// nothing would ever advance the wiped clock past the durable
/// components' timestamps and post-crash writes would reuse them.
///
/// Background jobs are drained first and the flush/merge locks held
/// throughout, so the crash lands on a structurally consistent state (no
/// half-installed components, no `set_bitmap` interleaving with a merge).
pub fn simulate_crash(ds: &Dataset, state: &CheckpointState) -> Result<()> {
    if ds.wal().is_none() {
        return Err(Error::invalid(
            "crash simulation requires a write-ahead log (recovery rebuilds the clock)",
        ));
    }
    ds.drain_background();
    let _flush = ds.flush_serialization().lock();
    let _merges = ds.merge_serialization().lock();
    ds.trees().for_each(LsmTree::clear_mem);
    if let Some(wal) = ds.wal() {
        wal.drop_unforced();
    }
    // Bitmaps: reset to checkpointed snapshots (zeroes when none).
    let bitmaps = state.bitmaps.lock();
    for comp in ds.primary().disk_components().iter() {
        if let Some(live) = comp.bitmap() {
            let fresh = lsm_tree::AtomicBitmap::new(live.len());
            if let Some(snap) = bitmaps.get(&(comp.id().min_ts, comp.id().max_ts)) {
                for i in 0..snap.len() {
                    if snap.get(i) {
                        fresh.set(i);
                    }
                }
            }
            let fresh = std::sync::Arc::new(fresh);
            comp.set_bitmap(fresh.clone())?;
            // Keep the paired pk-index component on the shared bitmap.
            if let Some(pk) = ds.pk_index() {
                for kc in pk.disk_components().iter() {
                    if kc.id() == comp.id() {
                        kc.set_bitmap(fresh.clone())?;
                    }
                }
            }
        }
    }
    // A restarted process has no memory of the pre-crash clock; it is
    // recover()'s job to advance past everything durable and replayed.
    ds.clock().reset_for_crash(0);
    Ok(())
}

/// Recovers after [`simulate_crash`]: replays committed (forced) log
/// records newer than the maximum component timestamp, reading the log
/// from the checkpoint's redo point (see the module docs), then advances
/// the clock past everything durable and replayed so post-recovery writes
/// can never reuse a replayed timestamp.
pub fn recover(ds: &Dataset, state: &CheckpointState) -> Result<RecoveryReport> {
    let wal = ds
        .wal()
        .ok_or_else(|| Error::invalid("recovery requires a write-ahead log"))?;

    // Replay runs single-threaded (Section 2.2) with maintenance inline
    // (`Dataset::replay`); the drain guarantees no pre-crash job is still
    // rebuilding components.
    ds.drain_background();

    // A crash inside a flush/merge install window leaves the primary index
    // structurally ahead of its siblings; repair that before deciding what
    // to replay (a rolled-back torn flush lowers the maximum component LSN
    // so its committed entries replay from the log).
    ds.realign_after_crash()?;

    // Maximum component LSN: the newest timestamp durable in any component.
    let max_comp_ts = max_component_ts(ds);

    // Bitmap mutations since the checkpoint were lost, so bitmap-bearing
    // records must be replayed from the checkpoint LSN even if their entry
    // landed in a component already.
    let stamp = *state.stamp.lock();
    let checkpoint_lsn = stamp.lsn;
    let from = checkpoint_lsn.min(max_comp_ts);
    let first_page = if from >= stamp.low {
        stamp.redo_page
    } else {
        0
    };

    let mut report = RecoveryReport::default();
    let mut max_replayed: Timestamp = 0;
    let result = (|| -> Result<()> {
        for rec in wal.replay_from(first_page, from, false)? {
            if rec.op == LogOp::Checkpoint {
                continue; // marker record: empty key, nothing to redo
            }
            let needs_entry_replay = rec.lsn > max_comp_ts;
            let needs_bitmap_replay = rec.update_bit && rec.lsn > checkpoint_lsn;
            if !needs_entry_replay && !needs_bitmap_replay {
                report.skipped += 1;
                continue;
            }
            // Position the clock so the replayed operation re-acquires its
            // original timestamp.
            ds.clock().advance_to(rec.lsn - 1);
            if !needs_entry_replay {
                // Only the bitmap mutation was lost: redo it by re-marking
                // the replaced version (idempotent). Note this path does
                // not tick the clock.
                ds.redo_bitmap_mark(&rec.key, rec.lsn)?;
            } else {
                // A logged insert passed its uniqueness check: replay it
                // as the upsert it amounts to.
                let (record, old_fields) = ds.split_logged(rec.op, &rec.value)?;
                match &record {
                    Some(record) => ds.replay(WriteOp::Upsert(record), old_fields)?,
                    None => ds.replay(WriteOp::Delete(&decode_pk(&rec.key)?), old_fields)?,
                }
            }
            max_replayed = max_replayed.max(rec.lsn);
            report.replayed += 1;
        }
        Ok(())
    })();
    // New timestamps must stay strictly above everything replayed or
    // durable: a trailing bitmap-only replay leaves the clock at
    // `rec.lsn - 1` (redo does not tick), and a replay-free recovery
    // leaves it wherever the crash put it.
    ds.clock()
        .advance_to(max_replayed.max(max_comp_ts).max(checkpoint_lsn));
    result?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, EngineConfig, StrategyKind};
    use crate::dataset::{MergePlan, MergeTarget};
    use crate::txn::LogRecord;
    use crate::MaintenanceRuntime;
    use lsm_common::{FieldType, Record, Schema, Value};
    use lsm_storage::{Storage, StorageOptions};
    use std::sync::Arc;

    /// Maintenance runs inline for `workers == None`, else on a runtime of
    /// its own with that many workers.
    fn dataset_with(
        strategy: StrategyKind,
        workers: Option<usize>,
        memory_budget: usize,
    ) -> Arc<Dataset> {
        let schema = Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Int)]).unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.strategy = strategy;
        cfg.memory_budget = memory_budget;
        let storage = Storage::new(StorageOptions::test());
        let log = Some(Storage::new(StorageOptions::test()));
        match workers {
            None => Dataset::open(storage, log, cfg),
            Some(n) => {
                let runtime = MaintenanceRuntime::start(EngineConfig::fixed(n)).unwrap();
                Dataset::open_with_runtime(storage, log, cfg, &runtime)
            }
        }
        .unwrap()
    }

    fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
        dataset_with(strategy, None, usize::MAX)
    }

    fn rec(id: i64, v: i64) -> Record {
        Record::new(vec![Value::Int(id), Value::Int(v)])
    }

    /// The crash-recovery matrix: every strategy with a WAL-relevant replay
    /// path, under inline AND background maintenance.
    fn matrix() -> Vec<(StrategyKind, Option<usize>)> {
        let strategies = [
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
            StrategyKind::DeletedKeyBTree,
        ];
        let modes = [None, Some(2)];
        strategies
            .into_iter()
            .flat_map(|s| modes.into_iter().map(move |m| (s, m)))
            .collect()
    }

    #[test]
    fn crash_loses_memory_then_recovery_restores() {
        for (strategy, mode) in matrix() {
            let ds = dataset_with(strategy, mode, usize::MAX);
            let state = CheckpointState::new();
            for i in 0..50 {
                ds.insert(&rec(i, i)).unwrap();
            }
            ds.maintenance().flush().unwrap(); // durable (and forces the WAL)
            ds.maintenance().quiesce().unwrap();
            for i in 50..80 {
                ds.insert(&rec(i, i)).unwrap();
            }
            ds.wal().unwrap().force().unwrap(); // commit point

            simulate_crash(&ds, &state).unwrap();
            assert!(
                ds.get(&Value::Int(60)).unwrap().is_none(),
                "{strategy:?}/{mode:?}: mem lost"
            );
            assert!(
                ds.get(&Value::Int(10)).unwrap().is_some(),
                "{strategy:?}/{mode:?}: disk survives"
            );

            let report = recover(&ds, &state).unwrap();
            assert_eq!(report.replayed, 30, "{strategy:?}/{mode:?}");
            for i in 0..80 {
                assert!(
                    ds.get(&Value::Int(i)).unwrap().is_some(),
                    "{strategy:?}/{mode:?}: id {i}"
                );
            }
            // Post-recovery ingestion keeps working with fresh timestamps.
            ds.insert(&rec(1000, 1)).unwrap();
            assert!(ds.get(&Value::Int(1000)).unwrap().is_some());
        }
    }

    #[test]
    fn unforced_operations_are_lost_for_good() {
        for (strategy, mode) in matrix() {
            let ds = dataset_with(strategy, mode, usize::MAX);
            let state = CheckpointState::new();
            ds.insert(&rec(1, 1)).unwrap();
            ds.maintenance().flush().unwrap();
            ds.maintenance().quiesce().unwrap();
            ds.insert(&rec(2, 2)).unwrap(); // in mem, WAL not forced
            simulate_crash(&ds, &state).unwrap();
            let report = recover(&ds, &state).unwrap();
            assert_eq!(report.replayed, 0, "{strategy:?}/{mode:?}");
            assert!(ds.get(&Value::Int(2)).unwrap().is_none());
            assert!(ds.get(&Value::Int(1)).unwrap().is_some());
            // The clock still cleared everything durable: a fresh write
            // must not collide with the surviving component's timestamps.
            ds.insert(&rec(3, 3)).unwrap();
            assert!(ds.get(&Value::Int(3)).unwrap().is_some());
        }
    }

    #[test]
    fn bitmap_mutations_replayed_after_crash() {
        for mode in [None, Some(2)] {
            let ds = dataset_with(StrategyKind::MutableBitmap, mode, usize::MAX);
            let state = CheckpointState::new();
            for i in 0..20 {
                ds.insert(&rec(i, i)).unwrap();
            }
            ds.maintenance().flush().unwrap();
            ds.maintenance().quiesce().unwrap();
            checkpoint(&ds, &state).unwrap();
            // These upserts set bits in the flushed component's bitmap...
            for i in 0..5 {
                ds.upsert(&rec(i, 100 + i)).unwrap();
            }
            ds.wal().unwrap().force().unwrap();
            let comp = &ds.primary().disk_components()[0];
            assert_eq!(comp.bitmap().unwrap().count_set(), 5, "{mode:?}");

            // ...which the crash wipes...
            simulate_crash(&ds, &state).unwrap();
            let comp = &ds.primary().disk_components()[0];
            assert_eq!(comp.bitmap().unwrap().count_set(), 0, "{mode:?}");

            // ...and recovery redoes (update-bit records), restoring both
            // the entries and the bitmap.
            let report = recover(&ds, &state).unwrap();
            assert_eq!(report.replayed, 5, "{mode:?}");
            assert_eq!(comp.bitmap().unwrap().count_set(), 5, "{mode:?}");
            for i in 0..5 {
                assert_eq!(
                    ds.get(&Value::Int(i)).unwrap().unwrap().get(1),
                    &Value::Int(100 + i)
                );
            }
        }
    }

    /// Regression (checkpoint vs in-flight merge): `checkpoint` must not
    /// interleave with a structural merge — it blocks on the merge lock. A
    /// held merge lock stands in for a background merge mid-rebuild, which
    /// deterministically opens the snapshot/stamp window the lock closes.
    #[test]
    fn checkpoint_blocks_on_inflight_merge() {
        let ds = dataset_with(StrategyKind::MutableBitmap, Some(1), usize::MAX);
        for i in 0..20 {
            ds.insert(&rec(i, i)).unwrap();
        }
        ds.maintenance().flush().unwrap();
        ds.maintenance().quiesce().unwrap();

        let merge_guard = ds.merge_serialization().lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let ds2 = ds.clone();
        let checkpointer = std::thread::spawn(move || {
            let state = CheckpointState::new();
            checkpoint(&ds2, &state).unwrap();
            tx.send(()).unwrap();
        });
        // With the "merge" in flight, the checkpoint must not complete.
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(200))
                .is_err(),
            "checkpoint ran concurrently with an in-flight merge"
        );
        drop(merge_guard);
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("checkpoint completes once the merge finishes");
        checkpointer.join().unwrap();
    }

    /// Regression (checkpoint under background churn): checkpoints taken
    /// while background flushes/merges retire components must stay
    /// internally consistent — crash + recover from any of them restores
    /// the oracle state.
    #[test]
    fn checkpoint_consistent_under_background_merges() {
        let ds = dataset_with(StrategyKind::MutableBitmap, Some(2), 16 * 1024);
        let state = CheckpointState::new();
        // Churn updates over a small key space so merges retire components
        // while checkpoints run unsynchronized with them.
        for round in 0..6 {
            for i in 0..400i64 {
                ds.upsert(&rec(i % 100, round * 1000 + i)).unwrap();
            }
            checkpoint(&ds, &state).unwrap();
        }
        ds.maintenance().quiesce().unwrap();
        ds.wal().unwrap().force().unwrap();
        checkpoint(&ds, &state).unwrap();

        simulate_crash(&ds, &state).unwrap();
        recover(&ds, &state).unwrap();
        for i in 0..100i64 {
            let got = ds.get(&Value::Int(i)).unwrap();
            let v = got
                .unwrap_or_else(|| panic!("id {i} vanished after recovery"))
                .get(1)
                .as_int()
                .unwrap();
            // Final round wrote 5000 + (300..400 mapped): id i was last
            // written by round 5 at offset i + k*100 for some k; just check
            // it is a round-5 value.
            assert!((5000..6000).contains(&v), "id {i}: stale value {v}");
        }
    }

    /// Regression (clock left behind a replayed LSN): when the *final*
    /// replayed record takes the bitmap-redo path — which does not tick
    /// the clock — recovery used to return with the clock at `lsn - 1`,
    /// so the next write reused a replayed timestamp.
    #[test]
    fn clock_advances_past_bitmap_only_replay() {
        let ds = dataset(StrategyKind::MutableBitmap);
        let state = CheckpointState::new();
        for i in 0..10 {
            ds.insert(&rec(i, i)).unwrap(); // ts 1..=10
        }
        ds.flush_all().unwrap(); // component A: (1, 10)
        checkpoint(&ds, &state).unwrap(); // checkpoint LSN 10
        ds.upsert(&rec(0, 100)).unwrap(); // ts 11, sets a bit in A
        ds.flush_all().unwrap(); // component B: (11, 11) — entry durable

        simulate_crash(&ds, &state).unwrap();
        let report = recover(&ds, &state).unwrap();
        // The only replayed record (lsn 11) is bitmap-only: its entry is
        // durable in B, but its bitmap mark postdates the checkpoint.
        assert_eq!(report.replayed, 1);
        let comp_a = ds
            .primary()
            .disk_components()
            .iter()
            .find(|c| c.id().min_ts == 1)
            .cloned()
            .unwrap();
        assert_eq!(comp_a.bitmap().unwrap().count_set(), 1, "bit redone");
        // The clock must sit at/above the max replayed LSN...
        assert!(
            ds.clock().now() >= 11,
            "clock left at {} — next write would reuse LSN 11",
            ds.clock().now()
        );
        // ...so the next write gets a strictly larger timestamp.
        ds.upsert(&rec(5, 500)).unwrap();
        let tail = ds.wal().unwrap().replay(0, true).unwrap();
        // Checkpoint markers share the LSN of the op they follow; compare
        // operation records only.
        let lsns: Vec<_> = tail
            .iter()
            .filter(|r| r.op != LogOp::Checkpoint)
            .map(|r| r.lsn)
            .collect();
        assert!(
            lsns.windows(2).all(|w| w[0] < w[1]),
            "LSNs not strictly increasing: {lsns:?}"
        );
        assert!(*lsns.last().unwrap() > 11);
        assert_eq!(
            ds.get(&Value::Int(5)).unwrap().unwrap().get(1),
            &Value::Int(500)
        );
    }

    /// Regression (background jobs racing replay): with a small budget and
    /// a maintenance runtime, replay trips the memory budget — maintenance
    /// must run inline on the recovery thread, never on the runtime's
    /// workers.
    #[test]
    fn replay_maintains_inline_under_background_mode() {
        let ds = dataset_with(StrategyKind::Validation, Some(2), 4 * 1024);
        let state = CheckpointState::new();
        for i in 0..100 {
            ds.insert(&rec(i, i)).unwrap();
        }
        ds.maintenance().flush().unwrap();
        ds.maintenance().quiesce().unwrap();
        // A committed tail big enough that replaying it trips the budget —
        // written without the maintenance hook so it is all still in memory
        // (= lost) at the crash, and all of it needs replay.
        for i in 100..500 {
            ds.upsert_no_maintenance(&rec(i, i)).unwrap();
        }
        ds.wal().unwrap().force().unwrap();

        simulate_crash(&ds, &state).unwrap();
        let before = ds.stats().snapshot();
        let report = recover(&ds, &state).unwrap();
        assert!(report.replayed > 0);
        let after = ds.stats().snapshot();
        assert_eq!(
            after.jobs_enqueued, before.jobs_enqueued,
            "replay enqueued background jobs while rewinding the clock"
        );
        assert!(
            after.flushes > before.flushes,
            "replay should have flushed inline"
        );
        for i in 0..400 {
            assert!(ds.get(&Value::Int(i)).unwrap().is_some(), "id {i}");
        }
        // Background maintenance resumes normally after recovery.
        for i in 400..600 {
            ds.insert(&rec(i, i)).unwrap();
        }
        ds.maintenance().quiesce().unwrap();
        assert!(ds.get(&Value::Int(599)).unwrap().is_some());
    }

    /// Eager twins: one dataset asks its pk index before each old-version
    /// lookup, the other has no pk index and always searches the primary.
    type Twins = [Arc<Dataset>; 2];
    /// id → secondary value of every live record.
    type Model = std::collections::BTreeMap<i64, i64>;

    /// An Eager dataset with a secondary index and a range filter on `v`.
    fn eager_dataset(with_pk_index: bool, memory_budget: usize) -> Arc<Dataset> {
        let schema = Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Int)]).unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.strategy = StrategyKind::Eager;
        cfg.with_pk_index = with_pk_index;
        cfg.memory_budget = memory_budget;
        cfg.filter_field = Some(1);
        cfg.secondary_indexes = vec![crate::config::SecondaryIndexDef {
            name: "v".into(),
            field: 1,
        }];
        let log = Some(Storage::new(StorageOptions::test()));
        Dataset::open(Storage::new(StorageOptions::test()), log, cfg).unwrap()
    }

    fn eager_twins(memory_budget: usize) -> Twins {
        [true, false].map(|with_pk_index| eager_dataset(with_pk_index, memory_budget))
    }

    fn upsert_twins(twins: &Twins, model: &mut Model, ids: std::ops::Range<i64>, salt: i64) {
        for id in ids {
            let v = (id * 7 + salt) % 11;
            for ds in twins {
                ds.upsert(&rec(id, v)).unwrap();
            }
            model.insert(id, v);
        }
    }

    /// Eager reports whether a record was removed: both twins must know.
    fn delete_twins(twins: &Twins, model: &mut Model, ids: std::ops::Range<i64>) {
        for id in ids {
            let present = model.remove(&id).is_some();
            for ds in twins {
                assert_eq!(ds.delete(&Value::Int(id)).unwrap(), present, "delete {id}");
            }
        }
    }

    /// The reconciled entries of the secondary on `v`, anti-matter
    /// included.
    fn secondary_entries(ds: &Dataset) -> Vec<(Vec<u8>, bool, Timestamp)> {
        let opts = lsm_tree::ScanOptions {
            emit_anti_matter: true,
            respect_bitmaps: true,
        };
        let tree = &ds.secondary("v").unwrap().tree;
        let mut scan = tree
            .scan(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded, opts)
            .unwrap();
        let mut out = Vec::new();
        while let Some((key, e)) = scan.next_entry().unwrap() {
            out.push((key, e.anti_matter, e.ts));
        }
        out
    }

    /// Every secondary query on a `v` in `0..64`, index-only and fetching,
    /// answers as the model does.
    fn assert_queries_answer(ds: &Dataset, model: &Model, when: &str) {
        for v in 0..64 {
            let want: Vec<Value> = model
                .iter()
                .filter(|(_, x)| **x == v)
                .map(|(id, _)| Value::Int(*id))
                .collect();
            let keys = ds.query("v").eq(v).index_only().execute().unwrap();
            let mut keys = keys.keys().to_vec();
            keys.sort();
            assert_eq!(keys, want, "{when}: keys of v = {v}");
            let records = ds.query("v").eq(v).execute().unwrap();
            let mut ids: Vec<Value> = records.records().iter().map(|r| r.get(0).clone()).collect();
            ids.sort();
            assert_eq!(ids, want, "{when}: records of v = {v}");
        }
    }

    /// Both twins hold the same reconciled secondary entries (anti-matter
    /// included), and every secondary query answers as the model does.
    fn assert_twins_agree(twins: &Twins, model: &Model, when: &str) {
        let [with_pk, without_pk] = twins;
        let entries = secondary_entries(with_pk);
        assert_eq!(entries, secondary_entries(without_pk), "{when}: entries");
        assert_queries_answer(with_pk, model, &format!("{when}, pk index"));
        assert_queries_answer(without_pk, model, &format!("{when}, no pk index"));
    }

    /// The pk-index gate of Eager's old-version step loses no old version:
    /// one op stream on Eager twins, the old versions in the active memory
    /// component, a sealed flush snapshot, the newest disk component and a
    /// merged older one, behind a delete, and across a crash and recovery
    /// (replay runs the same gated write).
    #[test]
    fn eager_pk_gate_finds_every_old_version_its_twin_finds() {
        let twins = eager_twins(usize::MAX);
        let mut model = Model::new();
        // Two flushed components, merged into one older component.
        upsert_twins(&twins, &mut model, 0..40, 0);
        twins.iter().for_each(|ds| assert!(ds.flush_all().unwrap()));
        upsert_twins(&twins, &mut model, 40..100, 0);
        for ds in &twins {
            ds.flush_all().unwrap();
            let targets = [MergeTarget::Primary, MergeTarget::Secondary(0)];
            let pk = ds.pk_index().map(|_| MergeTarget::PkIndex);
            for target in targets.into_iter().chain(pk) {
                let range = lsm_tree::MergeRange { start: 0, end: 1 };
                assert!(ds.execute_merge_plan(&MergePlan { target, range }).unwrap());
            }
            assert_eq!(ds.primary().num_disk_components(), 1, "merged");
        }
        // The newest disk component.
        upsert_twins(&twins, &mut model, 100..140, 0);
        twins.iter().for_each(|ds| assert!(ds.flush_all().unwrap()));
        // A sealed snapshot (a flush mid-build), then the active component.
        upsert_twins(&twins, &mut model, 140..180, 0);
        for ds in &twins {
            let _drain = ds.dataset_lock().write();
            let trees = std::iter::once(ds.primary()).chain(ds.pk_index());
            for tree in trees.chain(ds.secondaries().iter().map(|s| &s.tree)) {
                assert!(tree.seal_mem().unwrap());
            }
        }
        upsert_twins(&twins, &mut model, 180..220, 0);
        assert_twins_agree(&twins, &model, "loaded");

        // Overwrite each position, add new keys, delete some and re-upsert
        // them behind their anti-matter.
        for ids in [0..10, 40..50, 100..110, 140..150, 180..190, 1000..1040] {
            upsert_twins(&twins, &mut model, ids, 1);
        }
        for ids in [20..25, 30..33, 145..148, 185..188, 5000..5003] {
            delete_twins(&twins, &mut model, ids);
        }
        upsert_twins(&twins, &mut model, 20..25, 2);
        upsert_twins(&twins, &mut model, 185..188, 2);
        assert_twins_agree(&twins, &model, "overwritten");
        for ds in &twins {
            ds.flush_all().unwrap(); // builds the sealed snapshot, then the rest
            assert!(!ds.primary().has_sealed());
        }
        upsert_twins(&twins, &mut model, 30..33, 3); // behind flushed anti-matter
        assert_twins_agree(&twins, &model, "flushed");

        // Unflushed writes over disk versions, logged, then a crash: replay
        // redoes them against the recovered trees.
        upsert_twins(&twins, &mut model, 60..70, 4);
        upsert_twins(&twins, &mut model, 2000..2010, 4);
        delete_twins(&twins, &mut model, 105..108);
        for ds in &twins {
            let state = CheckpointState::new();
            ds.wal().unwrap().force().unwrap();
            simulate_crash(ds, &state).unwrap();
            assert!(recover(ds, &state).unwrap().replayed > 0);
        }
        assert_twins_agree(&twins, &model, "recovered");
        // Old versions in replayed memory, on disk, and behind deletes.
        upsert_twins(&twins, &mut model, 60..65, 5);
        upsert_twins(&twins, &mut model, 2000..2005, 5);
        upsert_twins(&twins, &mut model, 0..5, 5);
        upsert_twins(&twins, &mut model, 105..108, 5);
        upsert_twins(&twins, &mut model, 3000..3010, 5);
        delete_twins(&twins, &mut model, 1000..1005);
        assert_twins_agree(&twins, &model, "after recovery");
        for ds in &twins {
            ds.flush_all().unwrap();
            ds.run_merges().unwrap();
        }
        assert_twins_agree(&twins, &model, "merged after recovery");
    }

    /// Under uncorrelated merges the primary and its pk index merge on
    /// schedules of their own, so a merged primary component the pk index
    /// lacks is no torn merge install: recovery after a clean crash writes
    /// no data page and leaves every component ID as it was.
    #[test]
    fn uncorrelated_merges_are_not_taken_for_a_torn_install() {
        let ds = eager_dataset(true, usize::MAX);
        assert!(!ds.config().merge.correlated);
        for salt in 0..2 {
            for id in 0..100 {
                ds.upsert(&rec(id, (id + salt) % 11)).unwrap();
            }
            assert!(ds.flush_all().unwrap());
        }
        let range = lsm_tree::MergeRange { start: 0, end: 1 };
        let plan = MergePlan {
            target: MergeTarget::Primary,
            range,
        };
        assert!(ds.execute_merge_plan(&plan).unwrap());
        let ids = |ds: &Dataset| {
            let trees = std::iter::once(ds.primary()).chain(ds.pk_index());
            let trees = trees.chain(ds.secondaries().iter().map(|s| &s.tree));
            let ids = |t: &lsm_tree::LsmTree| t.disk_components().iter().map(|c| c.id()).collect();
            trees.map(ids).collect::<Vec<Vec<lsm_tree::ComponentId>>>()
        };
        let merged = ids(&ds);
        assert_eq!((merged[0].len(), merged[1].len()), (1, 2), "{merged:?}");

        let state = CheckpointState::new();
        simulate_crash(&ds, &state).unwrap();
        let before = ds.storage().stats();
        recover(&ds, &state).unwrap();
        let io = ds.storage().stats().since(&before);
        assert_eq!((io.pages_written, io.write_seeks), (0, 0), "{io:?}");
        assert_eq!(ids(&ds), merged);
        for id in 0..100 {
            let got = ds.get(&Value::Int(id)).unwrap().unwrap();
            assert_eq!(got.get(1), &Value::Int((id + 1) % 11), "id {id}");
        }
    }

    /// One write through the path `insert`, `upsert` and `delete` take;
    /// without `maintain` it skips their flush and merge check, so the
    /// write stays in memory until a crash loses it.
    fn write_op(ds: &Dataset, op: WriteOp<'_>, maintain: bool) -> bool {
        let done = ds.write(op, crate::dataset::LogSink::Immediate).unwrap();
        if maintain {
            ds.maybe_flush_and_merge().unwrap();
        }
        done
    }

    /// Each primary disk component's ID and range filter.
    fn filters(ds: &Dataset) -> Vec<(lsm_tree::ComponentId, Option<lsm_tree::RangeFilter>)> {
        let components = ds.primary().disk_components();
        let filter = |c: &Arc<lsm_tree::DiskComponent>| (c.id(), c.range_filter().cloned());
        components.iter().map(filter).collect()
    }

    /// Gets of every id the test wrote, and filter scans of every range of
    /// `v`, answer as the model does.
    fn assert_reads_answer(ds: &Dataset, model: &Model, ids: &[i64], when: &str) {
        for &id in ids {
            let got = ds.get(&Value::Int(id)).unwrap();
            let got = got.map(|r| r.get(1).as_int().unwrap());
            assert_eq!(got, model.get(&id).copied(), "{when}: get {id}");
        }
        for (lo, hi) in [(0, 63), (0, 9), (10, 19), (25, 34), (30, 30), (40, 59)] {
            let scanned = ds.filter_scan().range(lo, hi).records().unwrap();
            let scanned: Vec<(i64, i64)> = scanned
                .iter()
                .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                .collect();
            let want: Vec<(i64, i64)> = model
                .iter()
                .filter(|(_, v)| (lo..=hi).contains(*v))
                .map(|(&id, &v)| (id, v))
                .collect();
            assert_eq!(scanned, want, "{when}: filter scan of v in [{lo}, {hi}]");
        }
    }

    /// Eager's replay takes each record's old fields from the log. The
    /// tail opens with a `WriteBatch` that writes keys several times each,
    /// writes keys two and three times, deletes present and absent keys,
    /// inserts duplicates (which are rejected) and new keys, rewrites
    /// records with their secondary key unchanged, and holds more than a
    /// memory budget, so replay flushes and merges mid-tail. Replayed on
    /// both Eager twins, it leaves each as its twin that never crashed
    /// holds, and all four answer as the model: index-only queries (where a
    /// stale secondary entry would show), fetching queries, filters, filter
    /// scans and gets.
    #[test]
    fn eager_replay_leaves_what_a_twin_that_never_crashed_holds() {
        use crate::batch::BatchOpResult;
        enum Step {
            Upsert(i64, i64),
            Insert(i64, i64),
            Delete(i64),
            /// One `WriteBatch`: an upsert of `(id, v)` for `Some(v)`, a
            /// delete of `id` for `None`.
            Batch(Vec<(i64, Option<i64>)>),
        }
        let crashed = eager_twins(16 * 1024);
        let intact = eager_twins(16 * 1024);
        let mut model = Model::new();
        // Every dataset takes each step; a crashed twin skips maintenance
        // in the tail, so the whole tail replays.
        let mut run = |steps: Vec<Step>, tail: bool| {
            for step in steps {
                let (op, want, record);
                match step {
                    Step::Upsert(id, v) => {
                        record = rec(id, v);
                        op = WriteOp::Upsert(&record);
                        want = true;
                        model.insert(id, v);
                    }
                    Step::Insert(id, v) => {
                        record = rec(id, v);
                        op = WriteOp::Insert(&record);
                        want = !model.contains_key(&id);
                        model.entry(id).or_insert(v);
                    }
                    Step::Delete(id) => {
                        record = rec(id, 0);
                        op = WriteOp::Delete(record.get(0));
                        want = model.remove(&id).is_some();
                    }
                    Step::Batch(ops) => {
                        let want: Vec<BatchOpResult> = ops
                            .iter()
                            .map(|&(id, v)| match v {
                                Some(v) => {
                                    model.insert(id, v);
                                    BatchOpResult::Upserted
                                }
                                None => BatchOpResult::Deleted(model.remove(&id).is_some()),
                            })
                            .collect();
                        // Small enough that its commit flushes nothing.
                        for ds in crashed.iter().chain(&intact) {
                            let batch = ops.iter().fold(ds.batch(), |batch, &(id, v)| match v {
                                Some(v) => batch.upsert(&rec(id, v)),
                                None => batch.delete(&Value::Int(id)),
                            });
                            assert_eq!(batch.commit().unwrap(), want, "batch");
                        }
                        continue;
                    }
                }
                for ds in &crashed {
                    assert_eq!(write_op(ds, op, !tail), want, "crashed twin");
                }
                for ds in &intact {
                    assert_eq!(write_op(ds, op, true), want, "intact twin");
                }
            }
        };
        // Each salt's values have a decade of their own, so components'
        // filters are narrow and Eager's widening by old values matters.
        let v = |id: i64, salt: i64| salt * 10 + (id * 7 + salt) % 10;
        let upsert = |id: i64, salt: i64| Step::Upsert(id, v(id, salt));
        // Durable: 400 records on disk.
        run((0..400).map(|id| upsert(id, 0)).collect(), false);
        for ds in crashed.iter().chain(&intact) {
            ds.flush_all().unwrap();
        }

        // The tail. A batch writing a disk key and a new key several
        // times each, deleting them in between...
        let batched = |id: i64, salt: i64| (id, Some(v(id, salt)));
        let mut tail = vec![Step::Batch(vec![
            batched(3, 2),
            batched(800, 2),
            batched(3, 3),
            (800, None),
            (3, None),
            (800, None),
            batched(3, 4),
            batched(800, 4),
            batched(800, 5),
            batched(3, 5),
        ])];
        // ...disk keys and new keys in scattered order...
        tail.extend((0..600).map(|j| upsert(j * 389 % 600, 1)));
        // ...deletes of present keys, of absent keys and of keys just
        // deleted...
        let deleted = || (0..40).map(|j| j * 13 % 600);
        tail.extend(deleted().map(Step::Delete));
        tail.extend((5000..5005).chain(deleted().take(5)).map(Step::Delete));
        // ...duplicate inserts, inserts behind anti-matter, new keys...
        let inserts = (100..110).chain(deleted().skip(20)).chain(700..720);
        tail.extend(inserts.map(|id| Step::Insert(id, v(id, 2))));
        // ...second and third writes, then 20 records rewritten with the
        // secondary key they hold...
        tail.extend((0..300).map(|j| upsert(j * 7 % 300, 3)));
        tail.extend((0..100).rev().map(|id| upsert(id, 4)));
        tail.extend((200..220).map(|id| upsert(id, 3)));
        // ...and deletes of rewritten keys, some written again after.
        tail.extend((250..270).map(Step::Delete));
        tail.extend((260..265).map(|id| upsert(id, 5)));
        run(tail, true);

        for ds in &crashed {
            let state = CheckpointState::new();
            ds.wal().unwrap().force().unwrap();
            simulate_crash(ds, &state).unwrap();
            let before = ds.stats().snapshot();
            let report = recover(ds, &state).unwrap();
            let after = ds.stats().snapshot();
            assert!(report.replayed > 1000, "{report:?}");
            assert!(
                after.flushes > before.flushes + 1,
                "replay flushed mid-tail"
            );
            assert!(after.merges > before.merges, "replay merged mid-tail");
        }
        let ids: Vec<i64> = (0..720).chain([800]).chain(5000..5005).collect();
        // Recovered, then with every memory component flushed (so the
        // memory filters reach the disk components' filters).
        for when in ["recovered", "flushed"] {
            for (c, i) in crashed.iter().zip(&intact) {
                assert_eq!(filters(c), filters(i), "{when}: filters");
                assert_eq!(
                    secondary_entries(c),
                    secondary_entries(i),
                    "{when}: entries"
                );
            }
            for (ds, name) in crashed
                .iter()
                .chain(&intact)
                .zip(["crashed", "intact"].repeat(2))
            {
                let when = format!("{when}, {name}");
                assert_queries_answer(ds, &model, &when);
                assert_reads_answer(ds, &model, &ids, &when);
            }
            for ds in crashed.iter().chain(&intact) {
                ds.flush_all().unwrap();
            }
        }
    }

    /// Eager's replay reads the log and no data page: a tail that rewrites
    /// and deletes records whose old versions lie on disk, replayed after
    /// the data device's cache is emptied (as a restarted process starts),
    /// reads no data page and no more log pages than the tail holds, and
    /// leaves every secondary query, filter scan and get answering as the
    /// model does.
    #[test]
    fn eager_replay_reads_the_log_and_no_data_page() {
        for with_pk_index in [true, false] {
            let ds = eager_dataset(with_pk_index, usize::MAX);
            let state = CheckpointState::new();
            let mut model = Model::new();
            for id in 0..2000 {
                ds.upsert(&rec(id, id % 11)).unwrap();
                model.insert(id, id % 11);
            }
            assert!(ds.flush_all().unwrap());
            checkpoint(&ds, &state).unwrap();
            let history = log_pages(&ds);
            for j in 0..200 {
                let id = j * 37 % 200 * 10;
                ds.upsert(&rec(id, (id + 1) % 11 + 20)).unwrap();
                model.insert(id, (id + 1) % 11 + 20);
            }
            for id in (5..2000).step_by(50) {
                assert!(ds.delete(&Value::Int(id)).unwrap());
                model.remove(&id);
            }
            ds.wal().unwrap().force().unwrap();
            let tail = log_pages(&ds) - history;
            simulate_crash(&ds, &state).unwrap();
            ds.storage().clear_cache();

            let data = ds.storage().clone();
            let pages = |io: lsm_storage::IoStatsSnapshot| io.disk_reads() + io.cache_hits;
            let (before, lookups) = (data.stats(), ds.stats().snapshot().maintenance_lookups);
            let (report, log_read) = log_pages_read(&ds, &state);
            let io = data.stats().since(&before);
            assert_eq!(report.replayed, 240, "pk index: {with_pk_index}");
            assert_eq!(pages(io), 0, "pk index: {with_pk_index}: {io:?}");
            assert!(
                log_read <= tail + 1,
                "read {log_read} log pages for a tail of {tail}"
            );
            assert_eq!(ds.stats().snapshot().maintenance_lookups, lookups);
            let when = format!("recovered, pk index: {with_pk_index}");
            assert_queries_answer(&ds, &model, &when);
            assert_reads_answer(&ds, &model, &[0, 5, 10, 55, 1990, 1995], &when);
        }
    }

    /// An Eager dataset with no secondary index and no filter maintains no
    /// field: its logged deletes append nothing, and still apply on replay
    /// — a delete of an absent key is never logged.
    #[test]
    fn eager_delete_with_nothing_appended_applies_on_replay() {
        for with_pk_index in [true, false] {
            let schema = Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Int)]).unwrap();
            let mut cfg = DatasetConfig::new(schema, 0);
            cfg.strategy = StrategyKind::Eager;
            cfg.with_pk_index = with_pk_index;
            let log = Some(Storage::new(StorageOptions::test()));
            let ds = Dataset::open(Storage::new(StorageOptions::test()), log, cfg).unwrap();
            let state = CheckpointState::new();
            for id in 0..100 {
                ds.upsert(&rec(id, id)).unwrap();
            }
            assert!(ds.flush_all().unwrap());
            for id in 0..20 {
                assert!(ds.delete(&Value::Int(id)).unwrap());
            }
            assert!(!ds.delete(&Value::Int(500)).unwrap());
            ds.upsert(&rec(30, -30)).unwrap();
            ds.wal().unwrap().force().unwrap();
            let tail = ds.wal().unwrap().replay(0, true).unwrap();
            let deletes = tail.iter().filter(|r| r.op == LogOp::Delete);
            assert!(deletes.clone().all(|r| r.value.is_empty()));
            assert_eq!(deletes.count(), 20, "an absent key's delete is not logged");

            simulate_crash(&ds, &state).unwrap();
            assert_eq!(recover(&ds, &state).unwrap().replayed, 21);
            for id in 0..100 {
                let got = ds.get(&Value::Int(id)).unwrap().map(|r| r.get(1).clone());
                let want = match id {
                    0..20 => None,
                    30 => Some(Value::Int(-30)),
                    _ => Some(Value::Int(id)),
                };
                assert_eq!(got, want, "pk index: {with_pk_index}, id {id}");
            }
        }
    }

    /// A logged value whose fields after the record are not the ones the
    /// dataset maintains fails recovery as corruption, never as a panic:
    /// an upsert carrying some of them, a delete carrying none, too few or
    /// too many, bytes that encode no value, and a record a lazy strategy
    /// logged with fields it never appends.
    #[test]
    fn logged_old_fields_that_do_not_match_the_schema_are_corruption() {
        use StrategyKind::{Eager, Validation};
        let record = rec(7, 3).encode();
        let fields =
            |vs: &[i64]| -> Vec<u8> { vs.iter().flat_map(|&v| Value::Int(v).encode()).collect() };
        let after = |vs: &[i64]| [record.clone(), fields(vs)].concat();
        let cases = [
            (Eager, LogOp::Upsert, after(&[1])),
            (Eager, LogOp::Insert, after(&[1, 2, 3])),
            (Eager, LogOp::Delete, fields(&[])),
            (Eager, LogOp::Delete, fields(&[1])),
            (Eager, LogOp::Delete, fields(&[1, 2, 3])),
            (Eager, LogOp::Upsert, fields(&[7])),
            (Eager, LogOp::Upsert, [record.clone(), vec![0xEE]].concat()),
            (Eager, LogOp::Delete, vec![0x02, 0x01]),
            (Validation, LogOp::Upsert, after(&[1])),
            (Validation, LogOp::Delete, fields(&[1])),
        ];
        for (strategy, op, value) in cases {
            let ds = match strategy {
                Eager => eager_dataset(true, usize::MAX),
                _ => dataset(strategy),
            };
            let state = CheckpointState::new();
            ds.upsert(&rec(7, 1)).unwrap();
            assert!(ds.flush_all().unwrap());
            let wal = ds.wal().unwrap();
            let logged = LogRecord {
                lsn: ds.clock().now() + 1,
                op,
                key: crate::keys::encode_pk(&Value::Int(7)),
                value: value.clone(),
                update_bit: false,
            };
            wal.append(&logged).unwrap();
            wal.force().unwrap();
            simulate_crash(&ds, &state).unwrap();
            let err = recover(&ds, &state).unwrap_err();
            let case = format!("{strategy:?} {op:?} {value:?}");
            assert!(matches!(err, Error::Corruption(_)), "{case}: {err}");
        }
    }

    /// Pages written to the log device, which holds the log alone.
    fn log_pages(ds: &Dataset) -> u64 {
        ds.wal().unwrap().storage().stats().pages_written
    }

    /// Log pages `recover` reads, hits and misses alike.
    fn log_pages_read(ds: &Dataset, state: &CheckpointState) -> (RecoveryReport, u64) {
        let log = ds.wal().unwrap().storage().clone();
        let pages = |io: lsm_storage::IoStatsSnapshot| io.disk_reads() + io.cache_hits;
        let before = pages(log.stats());
        let report = recover(ds, state).unwrap();
        (report, pages(log.stats()) - before)
    }

    /// A checkpoint over an unflushed memtable: the maximum component LSN
    /// lies below the checkpoint LSN, so the redo point lies before the
    /// checkpoint's own page, and every memtable record still replays.
    #[test]
    fn checkpoint_over_unflushed_memtable_replays_it() {
        for (strategy, mode) in matrix() {
            let ds = dataset_with(strategy, mode, usize::MAX);
            let state = CheckpointState::new();
            for i in 0..300 {
                ds.insert(&rec(i, i)).unwrap();
            }
            ds.maintenance().flush().unwrap();
            ds.maintenance().quiesce().unwrap();
            for i in 300..550 {
                ds.insert(&rec(i, i)).unwrap(); // still in memory
            }
            checkpoint(&ds, &state).unwrap();
            // The log device holds the log alone: its pages written are the
            // log's pages, the checkpoint marker on the last of them.
            let checkpoint_page = log_pages(&ds) - 1;
            let stamp = *state.stamp.lock();
            assert!(stamp.low < stamp.lsn, "{strategy:?}/{mode:?}");
            assert!(
                (1..checkpoint_page).contains(&u64::from(stamp.redo_page)),
                "{strategy:?}/{mode:?}: redo page {} of {checkpoint_page}",
                stamp.redo_page
            );

            simulate_crash(&ds, &state).unwrap();
            let report = recover(&ds, &state).unwrap();
            assert_eq!(report.replayed, 250, "{strategy:?}/{mode:?}");
            for i in 0..550 {
                assert!(
                    ds.get(&Value::Int(i)).unwrap().is_some(),
                    "{strategy:?}/{mode:?}: id {i}"
                );
            }
        }
    }

    /// After a flush and a checkpoint, recovery reads the log's tail — the
    /// pages written since, plus at most the checkpoint's own page — not
    /// its whole history.
    #[test]
    fn recovery_reads_only_the_tail_since_the_checkpoint() {
        let ds = dataset(StrategyKind::Validation);
        let state = CheckpointState::new();
        for i in 0..1000 {
            ds.insert(&rec(i, i)).unwrap();
        }
        ds.flush_all().unwrap();
        checkpoint(&ds, &state).unwrap();
        let history = log_pages(&ds);
        for i in 1000..1150 {
            ds.insert(&rec(i, i)).unwrap();
        }
        ds.wal().unwrap().force().unwrap();
        let tail = log_pages(&ds) - history;
        assert!(
            history > tail + 1,
            "{history} pages of history, {tail} of tail"
        );

        simulate_crash(&ds, &state).unwrap();
        let (report, read) = log_pages_read(&ds, &state);
        assert_eq!(report.replayed, 150);
        assert!(
            read <= tail + 1,
            "read {read} log pages for a tail of {tail}"
        );
        assert!(ds.get(&Value::Int(1149)).unwrap().is_some());
    }

    /// A crash inside `checkpoint` leaves the previous stamp, redo point
    /// included, and recovery from it restores every committed record.
    #[test]
    fn crash_mid_checkpoint_keeps_the_previous_redo_point() {
        use lsm_storage::fault::{FaultAction, FaultPlan, FaultSpec, FaultTrigger};
        for (strategy, mode) in matrix() {
            let ds = dataset_with(strategy, mode, usize::MAX);
            let state = CheckpointState::new();
            let mut model = std::collections::BTreeMap::new();
            let mut upsert = |id: i64, v: i64| {
                ds.upsert(&rec(id, v)).unwrap();
                model.insert(id, v);
            };
            (0..300).for_each(|i| upsert(i, i));
            ds.maintenance().flush().unwrap();
            ds.maintenance().quiesce().unwrap();
            checkpoint(&ds, &state).unwrap();
            let previous = *state.stamp.lock();
            assert!(previous.redo_page > 0, "{strategy:?}/{mode:?}");
            // Updates of flushed keys and new keys, flushed...
            (300..400).for_each(|i| upsert(i % 350, -i));
            ds.maintenance().flush().unwrap();
            ds.maintenance().quiesce().unwrap();
            // ...then more of both, left in memory.
            (400..500).for_each(|i| upsert(i % 450, -i));
            let plan = FaultPlan::new(vec![FaultSpec {
                trigger: FaultTrigger::Site {
                    name: "checkpoint".into(),
                    hit: 0,
                },
                action: FaultAction::Crash,
            }]);
            ds.storage().install_fault_plan(plan.clone());
            plan.arm();
            assert!(checkpoint(&ds, &state).is_err(), "{strategy:?}/{mode:?}");
            ds.storage().clear_fault_plan();
            assert_eq!(*state.stamp.lock(), previous, "{strategy:?}/{mode:?}");

            simulate_crash(&ds, &state).unwrap();
            let report = recover(&ds, &state).unwrap();
            // Under Mutable-bitmap the flushed updates of the 50 keys
            // flushed before the stamped checkpoint redo their marks.
            let marks = if strategy == StrategyKind::MutableBitmap {
                50
            } else {
                0
            };
            assert_eq!(report.replayed, 100 + marks, "{strategy:?}/{mode:?}");
            for (&id, &v) in &model {
                let got = ds.get(&Value::Int(id)).unwrap();
                assert_eq!(
                    got.map(|r| r.get(1).clone()),
                    Some(Value::Int(v)),
                    "{strategy:?}/{mode:?}: id {id}"
                );
            }
        }
    }

    /// A checkpoint taken over a torn flush install counts the torn
    /// component's entries as durable; recovery rolls that component back,
    /// lowering the maximum component LSN below the stamped `low`, so it
    /// must read the log from page 0 to replay them.
    #[test]
    fn rolled_back_flush_below_the_redo_point_replays_from_page_zero() {
        use lsm_storage::fault::{FaultAction, FaultPlan, FaultSpec, FaultTrigger};
        let ds = dataset(StrategyKind::Validation);
        let state = CheckpointState::new();
        for i in 0..300 {
            ds.insert(&rec(i, i)).unwrap();
        }
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::Site {
                name: "flush_install".into(),
                hit: 0,
            },
            action: FaultAction::Crash,
        }]);
        ds.storage().install_fault_plan(plan.clone());
        plan.arm();
        assert!(ds.flush_all().is_err());
        ds.storage().clear_fault_plan();
        checkpoint(&ds, &state).unwrap();
        assert!(state.stamp.lock().redo_page > 0);

        simulate_crash(&ds, &state).unwrap();
        assert_eq!(recover(&ds, &state).unwrap().replayed, 300);
        for i in 0..300 {
            assert!(ds.get(&Value::Int(i)).unwrap().is_some(), "id {i}");
        }
    }

    #[test]
    fn recovery_without_wal_fails() {
        let schema = Schema::new(vec![("id", FieldType::Int)]).unwrap();
        let cfg = DatasetConfig::new(schema, 0);
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        assert!(recover(&ds, &CheckpointState::new()).is_err());
        // And so does the crash simulation: it wipes the clock, and only
        // recover() can restore it — allowing the crash without a WAL
        // would hand out already-durable timestamps to new writes.
        assert!(simulate_crash(&ds, &CheckpointState::new()).is_err());
    }
}
