//! Fan-out equivalence oracle for the one query executor.
//!
//! A randomized workload (inserts, upserts, deletes, interleaved flushes,
//! plus an unflushed tail) is mirrored into a `BTreeMap` oracle; the same
//! query set then runs at `n = 1` (the default query), fanned out with
//! `parallel(n)`, and through the fanned-out stream, across the Eager,
//! Validation, and Mutable-bitmap strategies. All three must return
//! *identical* results in primary-key order, matching the oracle —
//! including while background maintenance churns components underneath the
//! queries. A cost-clock test pins that the default query and
//! `parallel(1)` are the same execution, not merely the same answer.

use lsm_common::{FieldType, Record, Schema, Value};
use lsm_engine::{
    Dataset, DatasetConfig, EngineConfig, MaintenanceRuntime, QueryResult, SecondaryIndexDef,
    StrategyKind,
};
use lsm_storage::{IoStatsSnapshot, Storage, StorageOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![("id", FieldType::Int), ("val", FieldType::Int)]).unwrap()
}

fn rec(id: i64, val: i64) -> Record {
    Record::new(vec![Value::Int(id), Value::Int(val)])
}

fn storage() -> Arc<Storage> {
    Storage::new(StorageOptions::test())
}

fn config(strategy: StrategyKind) -> DatasetConfig {
    let mut cfg = DatasetConfig::new(schema(), 0);
    cfg.strategy = strategy;
    cfg.memory_budget = usize::MAX; // flushes under test control
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "val".into(),
        field: 1,
    }];
    cfg
}

/// Applies a deterministic random workload to `ds` and the oracle map.
fn apply_workload(ds: &Dataset, oracle: &mut BTreeMap<i64, i64>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..6 {
        for _ in 0..250 {
            let id = rng.gen_range(0..1200i64);
            if rng.gen_bool(0.15) {
                ds.delete(&Value::Int(id)).unwrap();
                oracle.remove(&id);
            } else {
                let val = rng.gen_range(0..100i64);
                ds.upsert(&rec(id, val)).unwrap();
                oracle.insert(id, val);
            }
        }
        if round < 5 {
            ds.flush_all().unwrap(); // the last round stays in memory
        }
    }
}

/// The oracle's answer: ids with `val ∈ [lo, hi]`, ascending.
fn expected(oracle: &BTreeMap<i64, i64>, lo: i64, hi: i64) -> Vec<i64> {
    oracle
        .iter()
        .filter(|(_, v)| (lo..=hi).contains(v))
        .map(|(k, _)| *k)
        .collect()
}

fn ids_of(res: &QueryResult) -> Vec<i64> {
    res.records()
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect()
}

/// Runs one query at `n = 1`, fanned out, and fanned out as a stream, and
/// checks all three against the oracle.
fn check_range(ds: &Dataset, oracle: &BTreeMap<i64, i64>, lo: i64, hi: i64, n: usize) {
    let want = expected(oracle, lo, hi);

    let serial = ds
        .query("val")
        .range(lo, hi)
        .sort_output(true)
        .execute()
        .unwrap();
    let par = ds.query("val").range(lo, hi).parallel(n).execute().unwrap();
    let streamed: Vec<Record> = ds
        .query("val")
        .range(lo, hi)
        .parallel(n)
        .stream()
        .unwrap()
        .collect::<lsm_common::Result<Vec<_>>>()
        .unwrap();

    assert_eq!(ids_of(&serial), want, "serial vs oracle [{lo},{hi}]");
    assert_eq!(
        serial, par,
        "parallel({n}).execute() differs from serial [{lo},{hi}]"
    );
    assert_eq!(
        serial.records(),
        streamed.as_slice(),
        "parallel({n}).stream() differs from serial [{lo},{hi}]"
    );
    let par_ids = ids_of(&par);
    assert!(
        par_ids.windows(2).all(|w| w[0] < w[1]),
        "parallel output not strictly pk-ordered [{lo},{hi}]"
    );
}

fn check_all_ranges(ds: &Dataset, oracle: &BTreeMap<i64, i64>, n: usize) {
    for (lo, hi) in [(0, 99), (10, 30), (42, 42), (95, 99), (500, 600)] {
        check_range(ds, oracle, lo, hi, n);
    }
}

#[test]
fn parallel_matches_serial_across_strategies() {
    for (seed, strategy) in [
        (11, StrategyKind::Eager),
        (12, StrategyKind::Validation),
        (13, StrategyKind::MutableBitmap),
    ] {
        let ds = Dataset::open(storage(), None, config(strategy)).unwrap();
        let mut oracle = BTreeMap::new();
        apply_workload(&ds, &mut oracle, seed);
        for n in [2, 3, 7] {
            check_all_ranges(&ds, &oracle, n);
        }
        // parallel(1) and a parallel query on an unknown index behave
        // like their serial counterparts.
        check_range(&ds, &oracle, 10, 30, 1);
        assert!(ds.query("nope").parallel(4).execute().is_err());
    }
}

#[test]
fn parallel_index_only_and_limit_match_serial() {
    let ds = Dataset::open(storage(), None, config(StrategyKind::Validation)).unwrap();
    let mut oracle = BTreeMap::new();
    apply_workload(&ds, &mut oracle, 99);

    let want = expected(&oracle, 20, 60);
    let serial = ds
        .query("val")
        .range(20, 60)
        .index_only()
        .execute()
        .unwrap();
    let par = ds
        .query("val")
        .range(20, 60)
        .index_only()
        .parallel(3)
        .execute()
        .unwrap();
    let keys: Vec<i64> = par.keys().iter().map(|k| k.as_int().unwrap()).collect();
    assert_eq!(keys, want, "parallel index-only vs oracle");
    assert_eq!(serial.keys(), par.keys(), "index-only serial vs parallel");

    // Limited queries stay pk-ordered and cap the fan-in.
    let limited = ds
        .query("val")
        .range(20, 60)
        .parallel(3)
        .limit(7)
        .execute()
        .unwrap();
    assert_eq!(ids_of(&limited), want[..7.min(want.len())].to_vec());

    // Streaming an index-only parallel query is rejected like the serial
    // stream.
    assert!(ds
        .query("val")
        .range(20, 60)
        .index_only()
        .parallel(3)
        .stream()
        .is_err());
}

#[test]
fn parallel_query_driven_repair_marks_apply_once() {
    let ds = Dataset::open(storage(), None, config(StrategyKind::Validation)).unwrap();
    let mut oracle = BTreeMap::new();
    apply_workload(&ds, &mut oracle, 7);

    // A repair-marking parallel query returns correct results...
    let want = expected(&oracle, 0, 99);
    let res = ds
        .query("val")
        .range(0, 99)
        .query_driven_repair(true)
        .parallel(3)
        .execute()
        .unwrap();
    assert_eq!(ids_of(&res), want);
    // ...and leaves obsolescence marks behind: the updated/deleted keys'
    // stale entries are now invalidated in their secondary components.
    let marked: u64 = ds
        .secondary("val")
        .unwrap()
        .tree
        .disk_components()
        .iter()
        .filter_map(|c| c.bitmap().map(|b| b.count_set()))
        .sum();
    assert!(marked > 0, "repair-marking query left no bitmap marks");
    // A second identical query (serial, also repair-marking) still agrees.
    let again = ds
        .query("val")
        .range(0, 99)
        .query_driven_repair(true)
        .sort_output(true)
        .execute()
        .unwrap();
    assert_eq!(ids_of(&again), want);
}

/// Queries race background flushes and merges driven by a churn writer
/// that re-upserts records with UNCHANGED values: the logical content is
/// constant, so serial, parallel, and stream must keep agreeing with the
/// oracle throughout, on both Validation and Mutable-bitmap datasets.
#[test]
fn parallel_matches_serial_under_background_maintenance() {
    for strategy in [StrategyKind::Validation, StrategyKind::MutableBitmap] {
        let runtime = MaintenanceRuntime::start(
            EngineConfig::builder()
                .workers(2)
                .query_workers(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut cfg = config(strategy);
        cfg.memory_budget = 24 * 1024; // churn trips background flushes
        cfg.memory_ceiling = Some(usize::MAX);
        let ds = Dataset::open_with_runtime(storage(), None, cfg, &runtime).unwrap();
        assert!(
            ds.query_pool().is_some(),
            "runtime pool reaches the dataset"
        );
        assert_eq!(ds.query_pool().unwrap().workers(), 2);

        let mut oracle = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..1500 {
            let id = rng.gen_range(0..800i64);
            let val = rng.gen_range(0..100i64);
            ds.upsert(&rec(id, val)).unwrap();
            oracle.insert(id, val);
        }
        ds.maintenance().quiesce().unwrap();

        let pairs: Vec<(i64, i64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let ds_ref = &ds;
            let stop_ref = &stop;
            let churn = scope.spawn(move || {
                let mut i = 0usize;
                while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                    let (id, val) = pairs[i % pairs.len()];
                    ds_ref.upsert(&rec(id, val)).unwrap();
                    i += 1;
                }
            });
            for round in 0..8 {
                let lo = (round % 4) * 20;
                check_range(ds_ref, &oracle, lo, lo + 25, 3);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            churn.join().unwrap();
        });
        ds.maintenance().quiesce().unwrap();
        check_all_ranges(&ds, &oracle, 4);
        let snap = ds.stats().snapshot();
        assert!(snap.parallel_queries > 0);
        assert!(snap.query_partitions >= snap.parallel_queries);
    }
}

/// Runs one read and returns its result with its whole cost: simulated
/// nanoseconds plus the I/O counter delta (pages and bytes read, cache
/// hits, Bloom checks, CPU charge).
fn cost<T>(ds: &Dataset, read: impl FnOnce() -> T) -> (T, u64, IoStatsSnapshot) {
    let storage = ds.storage();
    let (t0, before) = (storage.clock().now_nanos(), storage.stats());
    let out = read();
    let sim_ns = storage.clock().now_nanos() - t0;
    (out, sim_ns, storage.stats().since(&before))
}

/// The default read *is* the `n = 1` case of the partitioned executor:
/// on two identically seeded datasets, the default forms and their
/// `parallel(1)` spellings return equal results at equal cost on the
/// deterministic clock — sim time, pages, bytes, Bloom checks — for
/// queries, index-only queries and filter scans, under every strategy.
#[test]
fn default_is_parallel_one_on_the_cost_clock() {
    for strategy in [
        StrategyKind::Eager,
        StrategyKind::Validation,
        StrategyKind::MutableBitmap,
        StrategyKind::DeletedKeyBTree,
    ] {
        let open = || {
            let mut cfg = config(strategy);
            cfg.filter_field = Some(1);
            let ds = Dataset::open(storage(), None, cfg).unwrap();
            apply_workload(&ds, &mut BTreeMap::new(), 5);
            ds
        };
        let (a, b) = (open(), open());
        for (lo, hi) in [(0, 99), (10, 30), (42, 42), (500, 600)] {
            let label = format!("{strategy:?} [{lo},{hi}]");
            let (qa, qb) = (a.query("val").range(lo, hi), b.query("val").range(lo, hi));
            assert_eq!(
                cost(&a, || qa.clone().sort_output(true).execute().unwrap()),
                cost(&b, || qb.clone().parallel(1).execute().unwrap()),
                "{label}: query"
            );
            // Index-only queries fetch no records — except under the
            // deleted-key baseline, whose Direct validation does, so there
            // `parallel(1)`'s implied sort has something to order.
            let fetches = strategy == StrategyKind::DeletedKeyBTree;
            assert_eq!(
                cost(&a, || qa
                    .index_only()
                    .sort_output(fetches)
                    .execute()
                    .unwrap()),
                cost(&b, || qb.index_only().parallel(1).execute().unwrap()),
                "{label}: index-only"
            );
            assert_eq!(
                cost(&a, || a.filter_scan().range(lo, hi).count().unwrap()),
                cost(&b, || b
                    .filter_scan()
                    .range(lo, hi)
                    .parallel(1)
                    .count()
                    .unwrap()),
                "{label}: filter scan"
            );
        }
        // Asking for one partition is not a fan-out.
        assert_eq!(a.stats().snapshot(), b.stats().snapshot(), "{strategy:?}");
        assert_eq!(b.stats().snapshot().parallel_queries, 0, "{strategy:?}");
    }
}
