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
//!   replays with maintenance forced *inline* (the `recovering` flag):
//!   replay rewinds the logical clock per record, and a background flush
//!   racing that would stamp components with rewound timestamps.

use crate::dataset::Dataset;
use crate::txn::LogOp;
use lsm_common::{Error, Record, Result, Timestamp};
use lsm_tree::BitmapSnapshot;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Checkpointed bitmap state, keyed by component ID interval (component
/// files are immutable, so the ID identifies the component).
#[derive(Debug)]
pub struct CheckpointState {
    bitmaps: Mutex<HashMap<(Timestamp, Timestamp), BitmapSnapshot>>,
    lsn: Mutex<Timestamp>,
}

impl CheckpointState {
    /// Creates empty checkpoint state.
    pub fn new() -> Self {
        // Constructed field-by-field (not via derive) so the two locks get
        // distinct lock classes: `checkpoint` stamps `lsn` while holding
        // `bitmaps` (checkpoint-bitmaps -> checkpoint-lsn edge).
        CheckpointState {
            bitmaps: Mutex::new(HashMap::new()),
            lsn: Mutex::new(0),
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
    // bitmap snapshots and the LSN stamp have not been taken — the old
    // checkpoint state must remain usable.
    ds.checkpoint_crash_site()?;
    let mut bitmaps = state.bitmaps.lock();
    bitmaps.clear();
    for comp in ds.primary().disk_components().iter() {
        if let Some(b) = comp.bitmap() {
            bitmaps.insert((comp.id().min_ts, comp.id().max_ts), b.snapshot());
        }
    }
    *state.lsn.lock() = lsn;
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
    ds.primary().clear_mem();
    if let Some(pk) = ds.pk_index() {
        pk.clear_mem();
    }
    for sec in ds.secondaries() {
        sec.tree.clear_mem();
    }
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
/// records newer than the maximum component timestamp, then advances the
/// clock past everything durable and replayed so post-recovery writes can
/// never reuse a replayed timestamp.
pub fn recover(ds: &Dataset, state: &CheckpointState) -> Result<RecoveryReport> {
    let wal = ds
        .wal()
        .ok_or_else(|| Error::invalid("recovery requires a write-ahead log"))?;

    // Replay runs single-threaded (Section 2.2) with maintenance forced
    // inline: the `recovering` flag reroutes the budget checks inside
    // `upsert`/`delete` away from the background queue, and the drain
    // guarantees no pre-crash job is still rebuilding components.
    ds.set_recovering(true);
    ds.drain_background();

    // A crash inside a flush/merge install window leaves the primary index
    // structurally ahead of its siblings; repair that before deciding what
    // to replay (a rolled-back torn flush lowers the maximum component LSN
    // so its committed entries replay from the log).
    if let Err(e) = ds.realign_after_crash() {
        ds.set_recovering(false);
        return Err(e);
    }

    // Maximum component LSN: the newest timestamp durable in any component.
    let max_comp_ts = max_component_ts(ds);

    // Bitmap mutations since the checkpoint were lost, so bitmap-bearing
    // records must be replayed from the checkpoint LSN even if their entry
    // landed in a component already.
    let checkpoint_lsn = *state.lsn.lock();
    let from = checkpoint_lsn.min(max_comp_ts);

    let mut report = RecoveryReport::default();
    let mut max_replayed: Timestamp = 0;
    let result = (|| -> Result<()> {
        let records = wal.replay(from, false)?;
        for rec in records {
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
            let pk = crate::keys::decode_pk(&rec.key)?;
            match rec.op {
                LogOp::Insert | LogOp::Upsert => {
                    let record = Record::decode(&rec.value)?;
                    if needs_entry_replay {
                        ds.upsert(&record)?;
                    } else {
                        // Only the bitmap mutation was lost: redo it by
                        // re-marking the replaced version (idempotent).
                        // Note this path does not tick the clock.
                        ds.redo_bitmap_mark(&rec.key, rec.lsn)?;
                    }
                }
                LogOp::Delete => {
                    if needs_entry_replay {
                        ds.delete(&pk)?;
                    } else {
                        ds.redo_bitmap_mark(&rec.key, rec.lsn)?;
                    }
                }
                LogOp::Checkpoint => unreachable!("filtered above"),
            }
            let _ = pk;
            max_replayed = max_replayed.max(rec.lsn);
            report.replayed += 1;
        }
        Ok(())
    })();
    ds.set_recovering(false);
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
    use crate::MaintenanceRuntime;
    use lsm_common::{FieldType, Schema, Value};
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
