//! Acceptance tests for the fluent query & maintenance API:
//!
//! * `QueryBuilder` default resolution produces correct answers for all
//!   four maintenance strategies with zero manually-set validation options;
//! * `RecordStream` yields exactly the records of `execute()` on a
//!   100k-record dataset while holding at most one batch in memory.

use lsm_common::{FieldType, Record, Schema, Value};
use lsm_engine::{Dataset, DatasetConfig, QueryOptions, SecondaryIndexDef, StrategyKind};
use lsm_storage::{Storage, StorageOptions};
use std::collections::BTreeMap;
use std::sync::Arc;

fn dataset(strategy: StrategyKind, memory_budget: usize) -> Arc<Dataset> {
    let schema = Schema::new(vec![("id", FieldType::Int), ("group", FieldType::Int)]).unwrap();
    let mut cfg = DatasetConfig::new(schema, 0);
    cfg.strategy = strategy;
    cfg.memory_budget = memory_budget;
    cfg.merge.max_mergeable_bytes = u64::MAX;
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "group".into(),
        field: 1,
    }];
    Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
}

fn rec(id: i64, group: i64) -> Record {
    Record::new(vec![Value::Int(id), Value::Int(group)])
}

/// `ds`'s strategy-resolved options for a record query on `group`, with
/// the record fetch batched `bytes` at a time.
fn batched(ds: &Dataset, bytes: usize) -> QueryOptions {
    let resolved = *ds.query("group").build().unwrap().options();
    QueryOptions {
        batch_bytes: bytes,
        ..resolved
    }
}

fn all_strategies() -> [StrategyKind; 4] {
    [
        StrategyKind::Eager,
        StrategyKind::Validation,
        StrategyKind::MutableBitmap,
        StrategyKind::DeletedKeyBTree,
    ]
}

/// A mixed workload with flushes, updates that move records between groups,
/// and deletes — exactly the shapes that expose stale secondary entries.
fn ingest_mixed(ds: &Dataset) -> BTreeMap<i64, i64> {
    let mut oracle = BTreeMap::new();
    for i in 0..600 {
        ds.insert(&rec(i, i % 10)).unwrap();
        oracle.insert(i, i % 10);
    }
    ds.flush_all().unwrap();
    for i in 0..200 {
        let g = 10 + i % 5;
        ds.upsert(&rec(i, g)).unwrap();
        oracle.insert(i, g);
    }
    ds.flush_all().unwrap();
    for i in 300..360 {
        ds.delete(&Value::Int(i)).unwrap();
        oracle.remove(&i);
    }
    // Leave some updates in memory too.
    for i in 400..450 {
        ds.upsert(&rec(i, 20)).unwrap();
        oracle.insert(i, 20);
    }
    oracle
}

fn oracle_ids(oracle: &BTreeMap<i64, i64>, lo: i64, hi: i64) -> Vec<i64> {
    oracle
        .iter()
        .filter(|(_, g)| (lo..=hi).contains(*g))
        .map(|(id, _)| *id)
        .collect()
}

/// The headline acceptance test: `Dataset::query` with **zero**
/// manually-set validation options answers correctly for every strategy.
#[test]
fn default_resolution_correct_across_all_strategies() {
    for strategy in all_strategies() {
        let ds = dataset(strategy, usize::MAX);
        let oracle = ingest_mixed(&ds);
        for (lo, hi) in [(0, 9), (10, 14), (20, 20), (0, 99)] {
            let want = oracle_ids(&oracle, lo, hi);

            // Record query, builder defaults only.
            let res = ds
                .query("group")
                .range(lo, hi)
                .sort_output(true)
                .execute()
                .unwrap();
            let got: Vec<i64> = res
                .records()
                .iter()
                .map(|r| r.get(0).as_int().unwrap())
                .collect();
            assert_eq!(got, want, "{strategy:?} records, group in [{lo},{hi}]");

            // Index-only query, builder defaults only.
            let res = ds
                .query("group")
                .range(lo, hi)
                .index_only()
                .execute()
                .unwrap();
            let mut got: Vec<i64> = res.keys().iter().map(|k| k.as_int().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, want, "{strategy:?} keys, group in [{lo},{hi}]");
        }

        // eq + limit compose with the defaults.
        let want = oracle_ids(&oracle, 20, 20);
        let res = ds
            .query("group")
            .eq(20)
            .sort_output(true)
            .limit(10)
            .execute()
            .unwrap();
        assert_eq!(res.len(), want.len().min(10), "{strategy:?} limited eq");
    }
}

/// Repair through the maintenance facade (strategy-aware defaults) must not
/// change any answers.
#[test]
fn maintenance_facade_preserves_answers() {
    for strategy in all_strategies() {
        let ds = dataset(strategy, usize::MAX);
        let oracle = ingest_mixed(&ds);
        ds.flush_all().unwrap();
        if strategy == StrategyKind::Eager {
            // Eager has nothing to repair; the facade still flushes/merges.
            ds.maintenance().run_merges().unwrap();
        } else {
            let reports = ds.maintenance().repair_all().unwrap();
            assert_eq!(reports.len(), 1, "{strategy:?}");
            ds.maintenance().run_merges().unwrap();
        }
        for (lo, hi) in [(0, 9), (10, 14), (20, 20)] {
            let res = ds
                .query("group")
                .range(lo, hi)
                .sort_output(true)
                .execute()
                .unwrap();
            let got: Vec<i64> = res
                .records()
                .iter()
                .map(|r| r.get(0).as_int().unwrap())
                .collect();
            assert_eq!(got, oracle_ids(&oracle, lo, hi), "{strategy:?} post-repair");
        }
    }
}

/// One secondary index can be repaired on its own, with and without a
/// piggybacked merge.
#[test]
fn repair_index_variants() {
    let ds = dataset(StrategyKind::Validation, usize::MAX);
    ingest_mixed(&ds);
    ds.flush_all().unwrap();

    let standalone = ds.maintenance().repair_index("group").unwrap();
    assert!(standalone.entries_scanned > 0);
    assert!(standalone.invalidated > 0);

    let merged = ds
        .maintenance()
        .plan()
        .with_merge(true)
        .repair_index("group")
        .unwrap();
    assert!(merged.entries_scanned > 0);
    assert_eq!(ds.secondaries()[0].tree.num_disk_components(), 1);

    assert!(ds.maintenance().repair_index("nope").is_err());
}

/// The streaming acceptance test: on a 100k-record dataset, `stream()`
/// yields exactly what `execute()` collects, in primary-key order, while
/// never holding more than one batch of records.
#[test]
fn stream_matches_execute_with_bounded_batches() {
    let n: i64 = 100_000;
    let groups = 50;
    let ds = dataset(StrategyKind::Validation, 512 * 1024);
    for i in 0..n {
        ds.insert(&rec(i, i % groups)).unwrap();
    }
    // Move some records between groups so validation has real work.
    for i in 0..2_000 {
        ds.upsert(&rec(i * 17 % n, (i % groups) + groups)).unwrap();
    }
    ds.flush_all().unwrap();

    // ~20% of the dataset: groups 0..10 (minus the moved records).
    let small_batch = 16 * 1024; // force many record-fetch batches
    let query = || {
        ds.query("group")
            .range(0, 9)
            .with_options(batched(&ds, small_batch))
            .sort_output(true)
    };
    let collected = query().execute().unwrap();
    assert!(
        collected.len() > 10_000,
        "query too selective: {}",
        collected.len()
    );

    let mut stream = query().stream().unwrap();
    assert!(
        stream.keys_per_batch() < collected.len() / 10,
        "batches too large to prove boundedness: {} keys/batch for {} results",
        stream.keys_per_batch(),
        collected.len()
    );
    let mut streamed = Vec::new();
    for item in &mut stream {
        streamed.push(item.unwrap());
    }

    // Identical results, identical (primary-key) order.
    assert_eq!(streamed.len(), collected.len());
    assert_eq!(streamed, collected.records().to_vec());

    // Bounded memory: many batches, none larger than the configured cap.
    assert!(
        stream.batches_fetched() > 10,
        "only {} batches",
        stream.batches_fetched()
    );
    assert!(
        stream.peak_batch_len() <= stream.keys_per_batch(),
        "peak batch {} exceeds cap {}",
        stream.peak_batch_len(),
        stream.keys_per_batch()
    );
}

/// Streaming honours limits, agrees with execute() under every lookup
/// mode, and refuses index-only queries.
#[test]
fn stream_modes_and_limits() {
    let ds = dataset(StrategyKind::Validation, usize::MAX);
    for i in 0..3_000 {
        ds.insert(&rec(i, i % 7)).unwrap();
        if i % 500 == 0 {
            ds.flush_all().unwrap();
        }
    }
    ds.flush_all().unwrap();

    let base: Vec<Record> = ds
        .query("group")
        .range(2, 3)
        .sort_output(true)
        .execute()
        .unwrap()
        .records()
        .to_vec();

    // Naive, batched, and pID streams all agree with the collecting path.
    for (naive, pid) in [(true, false), (false, false), (false, true)] {
        let opts = QueryOptions {
            batched: !naive,
            stateful: !naive,
            propagate_component_ids: pid,
            ..batched(&ds, 4 * 1024)
        };
        let q = ds.query("group").range(2, 3).with_options(opts);
        let streamed: Vec<Record> = q.stream().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, base, "naive={naive} pid={pid}");
    }

    // Limit truncates the stream.
    let limited: Vec<Record> = ds
        .query("group")
        .range(2, 3)
        .with_options(batched(&ds, 4 * 1024))
        .limit(11)
        .stream()
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(limited, base[..11].to_vec());

    // Index-only queries have no record stream.
    assert!(ds.query("group").eq(1).index_only().stream().is_err());
    // Unknown index: the builder fails fast.
    assert!(ds.query("nope").eq(1).stream().is_err());
}

/// `limit(n)` must stop the record fetch early, not fetch everything and
/// truncate: a tightly limited query reads far fewer pages than the full
/// query over the same range.
#[test]
fn limit_stops_fetching_early() {
    let ds = dataset(StrategyKind::Validation, 256 * 1024);
    for i in 0..20_000 {
        ds.insert(&rec(i, i % 4)).unwrap();
    }
    ds.flush_all().unwrap();

    ds.storage().clear_cache();
    let before = ds.storage().stats();
    let full = ds
        .query("group")
        .eq(1)
        .with_options(batched(&ds, 16 * 1024))
        .execute()
        .unwrap();
    let full_io = ds.storage().stats().since(&before);
    assert_eq!(full.len(), 5_000);

    ds.storage().clear_cache();
    let before = ds.storage().stats();
    let limited = ds
        .query("group")
        .eq(1)
        .with_options(batched(&ds, 16 * 1024))
        .limit(20)
        .execute()
        .unwrap();
    let limited_io = ds.storage().stats().since(&before);
    assert_eq!(limited.len(), 20);
    // The limited run still scans the secondary index and validates
    // candidates, but fetches only one record batch.
    let full_reads = full_io.rand_reads + full_io.seq_reads;
    let limited_reads = limited_io.rand_reads + limited_io.seq_reads;
    assert!(
        limited_reads * 2 < full_reads,
        "limited {limited_reads} reads vs full {full_reads}"
    );
    // Limited results are a prefix of the pk-ordered full result.
    let sorted = ds.query("group").eq(1).sort_output(true).execute().unwrap();
    assert_eq!(limited.records(), &sorted.records()[..20]);
}

/// Repair on a dataset without a primary key index (a valid Eager
/// configuration) returns a recoverable error instead of panicking.
#[test]
fn repair_without_pk_index_errors_cleanly() {
    let schema = Schema::new(vec![("id", FieldType::Int), ("group", FieldType::Int)]).unwrap();
    let mut cfg = DatasetConfig::new(schema, 0);
    cfg.strategy = StrategyKind::Eager;
    cfg.with_pk_index = false;
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "group".into(),
        field: 1,
    }];
    let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
    ds.insert(&rec(1, 1)).unwrap();
    ds.flush_all().unwrap();
    assert!(ds.maintenance().repair_all().is_err());
    assert!(ds.maintenance().repair_index("group").is_err());
}

/// pID prunes the primary components a candidate's source does not
/// overlap, newer ones included, so it is sound only for candidates
/// validation has proved newest. A record moved out of the queried group,
/// both versions flushed, leaves a stale secondary entry behind under the
/// lazy strategies; with pID on, every strategy answers as without it.
#[test]
fn pid_never_serves_a_replaced_version() {
    for strategy in all_strategies() {
        let ds = dataset(strategy, usize::MAX);
        ds.insert(&rec(1, 2)).unwrap();
        ds.flush_all().unwrap();
        ds.upsert(&rec(1, 5)).unwrap();
        ds.flush_all().unwrap();
        for (group, want) in [(2, vec![]), (5, vec![rec(1, 5)])] {
            let plain = ds.query("group").range(group, group).execute().unwrap();
            assert_eq!(plain.records(), want, "{strategy:?}, group {group}");
            let opts = QueryOptions {
                propagate_component_ids: true,
                ..batched(&ds, 16 * 1024)
            };
            let q = ds.query("group").range(group, group).with_options(opts);
            let pid = q.execute().unwrap();
            assert_eq!(pid.records(), want, "{strategy:?} with pID, group {group}");
        }
    }
}
