//! Differential oracle for the query executor.
//!
//! A randomized workload (inserts, upserts, deletes, interleaved flushes,
//! plus an unflushed tail) is mirrored into a `BTreeMap` oracle; the same
//! query set then runs collected, collected in primary-key order
//! (`sort_output`) and streamed, across the Eager, Validation, and
//! Mutable-bitmap strategies. Each must match the oracle — for index-only
//! and limited queries and under query-driven repair too, and while
//! background maintenance churns components underneath the queries. Two
//! targeted cases pin that a record updated inside the queried range comes
//! back once, and that a query with no candidates costs no record fetch.

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

/// Runs one query collected, collected in primary-key order and streamed,
/// and checks all three against the oracle.
fn check_range(ds: &Dataset, oracle: &BTreeMap<i64, i64>, lo: i64, hi: i64) {
    let want = expected(oracle, lo, hi);

    let collected = ds.query("val").range(lo, hi).execute().unwrap();
    let sorted = ds
        .query("val")
        .range(lo, hi)
        .sort_output(true)
        .execute()
        .unwrap();
    let streamed: Vec<Record> = ds
        .query("val")
        .range(lo, hi)
        .stream()
        .unwrap()
        .collect::<lsm_common::Result<Vec<_>>>()
        .unwrap();

    assert_eq!(ids_of(&sorted), want, "sort_output vs oracle [{lo},{hi}]");
    let mut ids = ids_of(&collected);
    ids.sort_unstable();
    assert_eq!(ids, want, "execute() vs oracle [{lo},{hi}]");
    assert_eq!(
        sorted.records(),
        streamed.as_slice(),
        "stream() differs from sort_output [{lo},{hi}]"
    );
}

fn check_all_ranges(ds: &Dataset, oracle: &BTreeMap<i64, i64>) {
    for (lo, hi) in [(0, 99), (10, 30), (42, 42), (95, 99), (500, 600)] {
        check_range(ds, oracle, lo, hi);
    }
}

#[test]
fn queries_match_oracle_across_strategies() {
    for (seed, strategy) in [
        (11, StrategyKind::Eager),
        (12, StrategyKind::Validation),
        (13, StrategyKind::MutableBitmap),
    ] {
        let ds = Dataset::open(storage(), None, config(strategy)).unwrap();
        let mut oracle = BTreeMap::new();
        apply_workload(&ds, &mut oracle, seed);
        check_all_ranges(&ds, &oracle);
        assert!(ds.query("nope").execute().is_err());
    }
}

#[test]
fn index_only_and_limit_match_oracle() {
    let ds = Dataset::open(storage(), None, config(StrategyKind::Validation)).unwrap();
    let mut oracle = BTreeMap::new();
    apply_workload(&ds, &mut oracle, 99);

    let want = expected(&oracle, 20, 60);
    let keys = ds
        .query("val")
        .range(20, 60)
        .index_only()
        .execute()
        .unwrap();
    let keys: Vec<i64> = keys.keys().iter().map(|k| k.as_int().unwrap()).collect();
    assert_eq!(keys, want, "index-only vs oracle");

    // Limited queries come back in primary-key order.
    let limited = ds.query("val").range(20, 60).limit(7).execute().unwrap();
    assert_eq!(ids_of(&limited), want[..7.min(want.len())].to_vec());

    // Index-only queries have no record stream.
    assert!(ds.query("val").range(20, 60).index_only().stream().is_err());
}

#[test]
fn query_driven_repair_marks_and_matches_oracle() {
    let ds = Dataset::open(storage(), None, config(StrategyKind::Validation)).unwrap();
    let mut oracle = BTreeMap::new();
    apply_workload(&ds, &mut oracle, 7);

    // A repair-marking query returns correct results...
    let want = expected(&oracle, 0, 99);
    let repairing = || {
        ds.query("val")
            .range(0, 99)
            .query_driven_repair(true)
            .sort_output(true)
    };
    assert_eq!(ids_of(&repairing().execute().unwrap()), want);
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
    // A second identical query, which skips the marked entries, still
    // agrees.
    assert_eq!(ids_of(&repairing().execute().unwrap()), want);
}

/// Queries race background flushes and merges driven by a churn writer
/// that re-upserts records with UNCHANGED values: the logical content is
/// constant, so every form of the query must keep agreeing with the
/// oracle throughout, on both Validation and Mutable-bitmap datasets.
#[test]
fn queries_match_oracle_under_background_maintenance() {
    for strategy in [StrategyKind::Validation, StrategyKind::MutableBitmap] {
        let runtime = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
        let mut cfg = config(strategy);
        cfg.memory_budget = 24 * 1024; // churn trips background flushes
        cfg.memory_ceiling = Some(usize::MAX);
        let ds = Dataset::open_with_runtime(storage(), None, cfg, &runtime).unwrap();

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
                check_range(ds_ref, &oracle, lo, lo + 25);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            churn.join().unwrap();
        });
        ds.maintenance().quiesce().unwrap();
        check_all_ranges(&ds, &oracle);
        assert!(ds.stats().snapshot().flush_jobs > 0, "churn never flushed");
    }
}

/// A record updated within the queried range has a candidate under its
/// old and its new secondary key, on disk or in memory: every form of the
/// query returns it once, with its newest value, under every strategy.
#[test]
fn an_update_inside_the_range_is_returned_once() {
    for strategy in [
        StrategyKind::Eager,
        StrategyKind::Validation,
        StrategyKind::MutableBitmap,
        StrategyKind::DeletedKeyBTree,
    ] {
        let ds = Dataset::open(storage(), None, config(strategy)).unwrap();
        let mut oracle = BTreeMap::new();
        for id in 0..100 {
            ds.insert(&rec(id, id % 10)).unwrap();
            oracle.insert(id, id % 10);
        }
        ds.flush_all().unwrap();
        // Flushed moves, then moves left in memory, all inside [0, 10].
        for (ids, flush) in [(0..20, true), (20..40, false)] {
            for id in ids {
                ds.upsert(&rec(id, id % 10 + 1)).unwrap();
                oracle.insert(id, id % 10 + 1);
            }
            if flush {
                ds.flush_all().unwrap();
            }
        }
        check_range(&ds, &oracle, 0, 10);
        let sorted = ds
            .query("val")
            .range(0, 10)
            .sort_output(true)
            .execute()
            .unwrap();
        let got: Vec<(i64, i64)> = sorted
            .records()
            .iter()
            .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "{strategy:?}");
        let keys = ds.query("val").range(0, 10).index_only().execute().unwrap();
        let mut keys: Vec<i64> = keys.keys().iter().map(|k| k.as_int().unwrap()).collect();
        keys.sort_unstable(); // Direct validation fetches, in batch order
        assert_eq!(
            keys,
            (0..100).collect::<Vec<_>>(),
            "{strategy:?} index-only"
        );
    }
}

/// Runs one read and returns its result with its whole cost: simulated
/// nanoseconds plus the I/O counter delta.
fn cost<T>(ds: &Dataset, read: impl FnOnce() -> T) -> (T, u64, IoStatsSnapshot) {
    let storage = ds.storage();
    let (t0, before) = (storage.clock().now_nanos(), storage.stats());
    let out = read();
    let sim_ns = storage.clock().now_nanos() - t0;
    (out, sim_ns, storage.stats().since(&before))
}

/// A query whose range holds no candidates looks nothing up: collected or
/// streamed, it returns nothing and costs exactly its index-only form,
/// which fetches no records. Each read runs on its own identically seeded
/// dataset, so no read warms the cache for another.
#[test]
fn a_query_with_no_candidates_fetches_nothing() {
    for strategy in [
        StrategyKind::Eager,
        StrategyKind::Validation,
        StrategyKind::MutableBitmap,
        StrategyKind::DeletedKeyBTree,
    ] {
        let open = || {
            let ds = Dataset::open(storage(), None, config(strategy)).unwrap();
            apply_workload(&ds, &mut BTreeMap::new(), 3);
            ds
        };
        let (a, b, c) = (open(), open(), open());
        let (keys, key_ns, key_io) =
            cost(&a, || a.query("val").range(500, 600).index_only().execute());
        assert!(keys.unwrap().keys().is_empty(), "{strategy:?}");
        let (records, rec_ns, rec_io) = cost(&b, || b.query("val").range(500, 600).execute());
        assert!(records.unwrap().records().is_empty(), "{strategy:?}");
        assert_eq!((rec_ns, rec_io), (key_ns, key_io), "{strategy:?} execute()");
        let (streamed, str_ns, str_io) = cost(&c, || {
            let stream = c.query("val").range(500, 600).stream().unwrap();
            stream.collect::<lsm_common::Result<Vec<_>>>().unwrap()
        });
        assert!(streamed.is_empty(), "{strategy:?}");
        assert_eq!((str_ns, str_io), (key_ns, key_io), "{strategy:?} stream()");
    }
}
