//! Multi-writer oracle stress on one memory component per index.
//!
//! Writer threads on disjoint key ranges hammer one dataset while flushes
//! and merges churn, then the final logical state is compared key-for-key
//! against a dataset that applied the same operations sequentially — the
//! oracle. Runs the matrix {Eager, Validation, MutableBitmap} × {inline,
//! background} maintenance; the writers meet on each index's memory
//! component lock.
//!
//! Also pins the one-component-per-flush layout that merge selection and
//! crash recovery rely on, and exercises concurrent `WriteBatch` commits
//! against a WAL, asserting the group-commit counters and that crash
//! recovery replays every forced group.

use lsm_common::{FieldType, Record, Schema, Value};
use lsm_engine::recovery::{recover, simulate_crash, CheckpointState};
use lsm_engine::{
    BatchOpResult, Dataset, DatasetConfig, EngineConfig, MaintenanceRuntime, SecondaryIndexDef,
    StrategyKind,
};
use lsm_storage::{Storage, StorageOptions};
use std::collections::{HashMap, HashSet};

const WRITERS: usize = 4;
const OPS_PER_WRITER: usize = 800;
const KEYS_PER_WRITER: i64 = 200;
const GROUPS: i64 = 5;

fn schema() -> Schema {
    Schema::new(vec![
        ("id", FieldType::Int),
        ("round", FieldType::Int),
        ("grp", FieldType::Str),
    ])
    .unwrap()
}

fn grp(id: i64) -> String {
    format!("g{}", id % GROUPS)
}

fn rec(id: i64, round: i64) -> Record {
    Record::new(vec![Value::Int(id), Value::Int(round), Value::Str(grp(id))])
}

fn config(strategy: StrategyKind) -> DatasetConfig {
    let mut cfg = DatasetConfig::new(schema(), 0);
    cfg.strategy = strategy;
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "grp".into(),
        field: 2,
    }];
    // Small budget + uncapped tiering so flushes and merges churn under
    // the writers.
    cfg.memory_budget = 16 * 1024;
    cfg.merge.max_mergeable_bytes = u64::MAX;
    cfg
}

/// Writer `w`'s deterministic op sequence over its own key range
/// `[w*KEYS_PER_WRITER, (w+1)*KEYS_PER_WRITER)`: `(id, None)` = delete,
/// `(id, Some(round))` = upsert. Disjoint ranges mean writers never
/// contend on key locks, only on the indexes' memory components.
fn writer_ops(w: usize) -> Vec<(i64, Option<i64>)> {
    let base = w as i64 * KEYS_PER_WRITER;
    let mut x: i64 = 0x9E37_79B9 ^ (w as i64);
    (0..OPS_PER_WRITER)
        .map(|op| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = base + x.rem_euclid(KEYS_PER_WRITER);
            (id, (op % 5 != 4).then_some(op as i64))
        })
        .collect()
}

/// Final per-key state across all writers (disjoint ranges: no
/// cross-writer interleaving to model).
fn oracle_state() -> HashMap<i64, Option<i64>> {
    (0..WRITERS)
        .flat_map(|w| writer_ops(w).into_iter())
        .collect()
}

fn apply(ds: &Dataset, id: i64, op: Option<i64>) {
    match op {
        None => {
            ds.delete(&Value::Int(id)).unwrap();
        }
        Some(round) => ds.upsert(&rec(id, round)).unwrap(),
    }
}

/// Asserts `ds`'s logical state equals the oracle: point lookups for
/// every touched key and secondary-index group queries.
fn assert_matches_oracle(ds: &Dataset, label: &str) {
    let expect = oracle_state();
    for (&id, state) in &expect {
        let got = ds.get(&Value::Int(id)).unwrap();
        match state {
            None => assert!(got.is_none(), "{label}: id {id} resurrected"),
            Some(round) => {
                let r = got.unwrap_or_else(|| panic!("{label}: id {id} vanished"));
                assert_eq!(r.get(1), &Value::Int(*round), "{label}: id {id} stale");
            }
        }
    }
    for g in 0..GROUPS {
        let want: HashSet<i64> = expect
            .iter()
            .filter(|(id, v)| v.is_some() && *id % GROUPS == g)
            .map(|(id, _)| *id)
            .collect();
        let result = ds.query("grp").eq(format!("g{g}")).execute().unwrap();
        let got: HashSet<i64> = result
            .records()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        assert_eq!(got, want, "{label}: group g{g} mismatch");
    }
}

fn run_concurrent_writers(strategy: StrategyKind, background: bool) {
    let label = format!("{strategy:?}/background={background}");

    let runtime = background.then(|| MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap());
    let ds = match &runtime {
        Some(rt) => Dataset::open_with_runtime(
            Storage::new(StorageOptions::test()),
            None,
            config(strategy),
            rt,
        )
        .unwrap(),
        None => {
            Dataset::open(Storage::new(StorageOptions::test()), None, config(strategy)).unwrap()
        }
    };

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ds = &ds;
            scope.spawn(move || {
                for (id, op) in writer_ops(w) {
                    apply(ds, id, op);
                }
            });
        }
    });
    if background {
        ds.maintenance().quiesce().unwrap();
    }
    assert!(
        ds.primary().num_disk_components() > 0,
        "{label}: the small budget must have forced flushes"
    );

    // The oracle: same operations, sequential, on a fresh dataset.
    let oracle =
        Dataset::open(Storage::new(StorageOptions::test()), None, config(strategy)).unwrap();
    for w in 0..WRITERS {
        for (id, op) in writer_ops(w) {
            apply(&oracle, id, op);
        }
    }
    assert_matches_oracle(&oracle, &format!("{label} (oracle self-check)"));
    assert_matches_oracle(&ds, &label);
}

#[test]
fn eager_writers_match_sequential_oracle_inline() {
    run_concurrent_writers(StrategyKind::Eager, false);
}

#[test]
fn eager_writers_match_sequential_oracle_background() {
    run_concurrent_writers(StrategyKind::Eager, true);
}

#[test]
fn validation_writers_match_sequential_oracle_inline() {
    run_concurrent_writers(StrategyKind::Validation, false);
}

#[test]
fn validation_writers_match_sequential_oracle_background() {
    run_concurrent_writers(StrategyKind::Validation, true);
}

#[test]
fn mutable_bitmap_writers_match_sequential_oracle_inline() {
    run_concurrent_writers(StrategyKind::MutableBitmap, false);
}

#[test]
fn mutable_bitmap_writers_match_sequential_oracle_background() {
    run_concurrent_writers(StrategyKind::MutableBitmap, true);
}

/// Every flush adds exactly one component to every index it touches, with
/// an interval no other component carries. Merge selection hands the
/// policy one size per component and recovery tells flushed from merged
/// components by interval, so both rely on this.
#[test]
fn every_flush_adds_one_component_per_index() {
    for strategy in [
        StrategyKind::Eager,
        StrategyKind::Validation,
        StrategyKind::MutableBitmap,
        StrategyKind::DeletedKeyBTree,
    ] {
        let mut cfg = config(strategy);
        cfg.memory_budget = usize::MAX; // flush manually, never merge
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        for round in 0..3 {
            for w in 0..WRITERS {
                for (id, op) in writer_ops(w).into_iter().skip(round * 100).take(100) {
                    apply(&ds, id, op);
                }
            }
            assert!(ds.flush_all().unwrap(), "{strategy:?}: flush {round}");
            let pk_tree = ds.pk_index().expect("every strategy here keeps a pk index");
            let trees = [("primary", ds.primary()), ("pk index", pk_tree)]
                .into_iter()
                .chain(ds.secondaries().iter().map(|s| ("secondary", &s.tree)));
            for (name, tree) in trees {
                let comps = tree.disk_components();
                assert_eq!(
                    comps.len(),
                    round + 1,
                    "{strategy:?}: {name} after flush {round}"
                );
                let ids: HashSet<_> = comps.iter().map(|c| c.id()).collect();
                assert_eq!(ids.len(), comps.len(), "{strategy:?}: {name} ids distinct");
            }
        }
    }
}

/// Concurrent `WriteBatch` commits against a WAL: each batch's records
/// reach the device as one group (so the achieved group size stays well
/// above one record per device write), and a crash after a force loses
/// nothing that was committed.
#[test]
fn concurrent_batches_group_commit_and_recover() {
    let mut cfg = config(StrategyKind::Validation);
    cfg.memory_budget = usize::MAX; // keep everything replayable from the log
    let ds = Dataset::open(
        Storage::new(StorageOptions::test()),
        Some(Storage::new(StorageOptions::test())),
        cfg,
    )
    .unwrap();

    const BATCH: usize = 25;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ds = &ds;
            scope.spawn(move || {
                for chunk in writer_ops(w).chunks(BATCH) {
                    let mut b = ds.batch();
                    for &(id, op) in chunk {
                        b = match op {
                            None => b.delete(&Value::Int(id)),
                            Some(round) => b.upsert(&rec(id, round)),
                        };
                    }
                    for out in b.commit().unwrap() {
                        assert!(
                            matches!(out, BatchOpResult::Upserted | BatchOpResult::Deleted(_)),
                            "unexpected batch outcome: {out:?}"
                        );
                    }
                }
            });
        }
    });

    // Force first: records still sitting in the staging page only become
    // a counted group when a leader writes them.
    ds.wal().unwrap().force().unwrap();
    let snap = ds.stats().snapshot();
    assert!(snap.wal_groups > 0, "batches must commit as WAL groups");
    assert_eq!(
        snap.wal_grouped_records,
        (WRITERS * OPS_PER_WRITER) as u64,
        "every staged record must be covered by a group"
    );
    // A batch stages BATCH records in one step, so even with zero
    // cross-thread grouping the achieved group size is far above 1.
    assert!(
        snap.wal_grouped_records / snap.wal_groups > 1,
        "achieved group size must exceed one record per device write: {} groups for {} records",
        snap.wal_groups,
        snap.wal_grouped_records
    );

    // Forced groups survive a crash: wipe memory and replay the log.
    let state = CheckpointState::new();
    simulate_crash(&ds, &state).unwrap();
    recover(&ds, &state).unwrap();
    assert_matches_oracle(&ds, "post-recovery");
}
