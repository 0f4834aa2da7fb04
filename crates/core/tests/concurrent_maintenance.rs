//! Multi-threaded stress tests for background maintenance: N writer
//! threads upserting and deleting while the scheduler's worker pool
//! flushes and merges concurrently, then full verification against a
//! single-threaded oracle.
//!
//! The Mutable-bitmap run drives the Section 5.3 concurrency-control path
//! end to end: background correlated merges rebuild components through
//! `merge_primary_with_cc` (the Side-file method) while writers mark
//! deletes through the `BuildLink` redirection machinery. The Lock method
//! under concurrent writers is `concurrency.rs`'s.

use lsm_common::{FieldType, Record, Schema, Value};
use lsm_engine::{
    Dataset, DatasetConfig, EngineConfig, MaintenanceRuntime, SecondaryIndexDef, StrategyKind,
};
use lsm_storage::{Storage, StorageOptions};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const WRITERS: usize = 4;
const OPS_PER_WRITER: usize = 2500;
const GROUPS: i64 = 7;

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

fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
    let mut cfg = DatasetConfig::new(schema(), 0);
    cfg.strategy = strategy;
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "grp".into(),
        field: 2,
    }];
    // Small budget + uncapped tiering so flushes and merges churn hard
    // under the writers.
    cfg.memory_budget = 24 * 1024;
    cfg.merge.max_mergeable_bytes = u64::MAX;
    open_on_runtime(cfg, 2)
}

/// Opens `cfg` on a maintenance runtime of its own with `workers` workers.
fn open_on_runtime(cfg: DatasetConfig, workers: usize) -> Arc<Dataset> {
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(workers)).unwrap();
    Dataset::open_with_runtime(Storage::new(StorageOptions::test()), None, cfg, &runtime).unwrap()
}

/// Writer `t`'s deterministic op sequence over its own id stripe
/// (`id % WRITERS == t`): `(id, None)` = delete, `(id, Some(round))` =
/// upsert. Shared by the executing writer and the oracle so they cannot
/// diverge.
fn writer_ops(t: usize) -> Vec<(i64, Option<i64>)> {
    let mut x: i64 = 0x9E3779B9 ^ (t as i64);
    (0..OPS_PER_WRITER)
        .map(|op| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (x.rem_euclid(500) * WRITERS as i64) + t as i64;
            (id, (op % 5 != 4).then_some(op as i64))
        })
        .collect()
}

/// Each writer owns a disjoint id stripe, so the final per-key state is
/// deterministic: the last operation that writer applied.
fn writer_oracle(t: usize) -> HashMap<i64, Option<i64>> {
    writer_ops(t).into_iter().collect()
}

fn run_writer(ds: &Dataset, t: usize) {
    for (id, op) in writer_ops(t) {
        match op {
            None => {
                ds.delete(&Value::Int(id)).unwrap();
            }
            Some(round) => ds.upsert(&rec(id, round)).unwrap(),
        }
    }
}

fn stress(strategy: StrategyKind) {
    let ds = dataset(strategy);
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let ds = &ds;
            scope.spawn(move || run_writer(ds, t));
        }
    });
    ds.maintenance().quiesce().unwrap();

    let snap = ds.stats().snapshot();
    assert!(snap.flushes > 0, "{strategy:?}: background flushes ran");
    assert!(snap.flush_jobs > 0, "{strategy:?}: flush jobs recorded");
    assert!(snap.merges > 0, "{strategy:?}: background merges ran");
    assert_eq!(snap.queue_depth, 0, "{strategy:?}: queue drained");

    // Oracle: merge the per-writer expectations (key spaces are disjoint).
    let mut oracle: HashMap<i64, Option<i64>> = HashMap::new();
    for t in 0..WRITERS {
        oracle.extend(writer_oracle(t));
    }

    // Point reads: every key's final state matches the oracle.
    for (&id, expect) in &oracle {
        let got = ds.get(&Value::Int(id)).unwrap();
        match expect {
            None => assert!(got.is_none(), "{strategy:?}: id {id} resurrected"),
            Some(round) => {
                let r = got.unwrap_or_else(|| panic!("{strategy:?}: id {id} vanished"));
                assert_eq!(r.get(1), &Value::Int(*round), "{strategy:?}: id {id} stale");
            }
        }
    }

    // Secondary-index queries: each group returns exactly the live ids of
    // that group (validated per the strategy by the query builder).
    for g in 0..GROUPS {
        let want: HashSet<i64> = oracle
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
        assert_eq!(got, want, "{strategy:?}: group g{g} mismatch");
    }
}

#[test]
fn eager_background_maintenance_stress() {
    stress(StrategyKind::Eager);
}

#[test]
fn validation_background_maintenance_stress() {
    stress(StrategyKind::Validation);
}

#[test]
fn mutable_bitmap_side_file_background_stress() {
    stress(StrategyKind::MutableBitmap);
}

#[test]
fn deleted_key_btree_background_stress() {
    stress(StrategyKind::DeletedKeyBTree);
}

#[test]
fn backpressure_stalls_writers_at_the_ceiling() {
    let mut cfg = DatasetConfig::new(schema(), 0);
    cfg.strategy = StrategyKind::Validation;
    cfg.memory_budget = 16 * 1024;
    cfg.memory_ceiling = Some(24 * 1024);
    let ds = open_on_runtime(cfg, 1);

    // Fat records fill memory much faster than the single worker can build
    // components, so writers must hit the hard ceiling and stall.
    let fat = "x".repeat(2048);
    let mut stalled = 0;
    for i in 0..20_000i64 {
        ds.upsert(&Record::new(vec![
            Value::Int(i % 64),
            Value::Int(i),
            Value::Str(fat.clone()),
        ]))
        .unwrap();
        stalled = ds.stats().snapshot().backpressure_stalls;
        if stalled > 0 {
            break;
        }
    }
    assert!(stalled > 0, "writer never hit the memory ceiling");
    // Memory was bounded by the ceiling the whole time (plus one in-flight
    // record per writer).
    ds.maintenance().quiesce().unwrap();
    assert!(ds.mem_unflushed_bytes() <= 24 * 1024 + 4096);
}
