//! Cross-crate end-to-end tests: the full tweet workload of Section 6
//! against every maintenance strategy, checking query answers against an
//! oracle and exercising flushes, merges, repair, and filter scans together.

use lsm_common::Value;
use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
use lsm_storage::{
    FaultAction, FaultOp, FaultPlan, FaultSpec, FaultTrigger, FileId, Storage, StorageOptions,
};
use lsm_workload::{TweetConfig, TweetGenerator, UpdateDistribution, UpsertWorkload};
use std::collections::BTreeMap;
use std::sync::Arc;

fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = strategy;
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "user_id".into(),
        field: 1,
    }];
    cfg.filter_field = Some(3);
    cfg.memory_budget = 256 * 1024;
    cfg.merge.max_mergeable_bytes = 2 * 1024 * 1024;
    Dataset::open(
        Storage::new(StorageOptions::test()),
        Some(Storage::new(StorageOptions::test())),
        cfg,
    )
    .unwrap()
}

/// Oracle: latest record per primary key.
type Oracle = BTreeMap<i64, (i64, i64)>; // pk -> (user_id, creation_time)

fn ingest(ds: &Dataset, n: usize, update_ratio: f64) -> Oracle {
    let mut oracle = Oracle::new();
    let mut w = UpsertWorkload::new(
        TweetConfig {
            msg_min: 40,
            msg_max: 60,
            seed: 99,
        },
        update_ratio,
        UpdateDistribution::Uniform,
    );
    for _ in 0..n {
        let op = w.next_op();
        let r = op.record().clone();
        let pk = r.get(0).as_int().unwrap();
        let uid = r.get(1).as_int().unwrap();
        let t = r.get(3).as_int().unwrap();
        ds.upsert(&r).unwrap();
        oracle.insert(pk, (uid, t));
    }
    ds.flush_all().unwrap();
    oracle
}

fn strategies() -> [StrategyKind; 4] {
    [
        StrategyKind::Eager,
        StrategyKind::Validation,
        StrategyKind::MutableBitmap,
        StrategyKind::DeletedKeyBTree,
    ]
}

#[test]
fn tweet_workload_queries_match_oracle() {
    for strategy in strategies() {
        let ds = dataset(strategy);
        let oracle = ingest(&ds, 4000, 0.3);

        // Secondary range queries across several ranges.
        for (lo, hi) in [(0, 999), (50_000, 54_999), (99_000, 99_999)] {
            let want: Vec<i64> = oracle
                .iter()
                .filter(|(_, (uid, _))| (lo..=hi).contains(uid))
                .map(|(pk, _)| *pk)
                .collect();
            // No validation method set anywhere: the builder resolves the
            // correct one from the strategy.
            let res = ds
                .query("user_id")
                .range(lo, hi)
                .sort_output(true)
                .execute()
                .unwrap();
            let got: Vec<i64> = res
                .records()
                .iter()
                .map(|r| r.get(0).as_int().unwrap())
                .collect();
            assert_eq!(got, want, "{strategy:?} uid in [{lo},{hi}]");
        }

        // Filter scans over time windows.
        for (lo, hi) in [
            (None, Some(500)),
            (Some(3500), None),
            (Some(1000), Some(2000)),
        ] {
            let want = oracle
                .values()
                .filter(|(_, t)| lo.is_none_or(|l| *t >= l) && hi.is_none_or(|h| *t <= h))
                .count() as u64;
            let mut scan = ds.filter_scan();
            if let Some(lo) = lo {
                scan = scan.range_from(lo);
            }
            if let Some(hi) = hi {
                scan = scan.range_to(hi);
            }
            let got = scan.count().unwrap().matches;
            assert_eq!(got, want, "{strategy:?} time in [{lo:?},{hi:?}]");
        }
    }
}

#[test]
fn repair_then_queries_still_match() {
    for strategy in [StrategyKind::Validation, StrategyKind::MutableBitmap] {
        let ds = dataset(strategy);
        let oracle = ingest(&ds, 3000, 0.5);
        ds.maintenance().repair_all().unwrap();
        // Run merges after repair too; bitmapped entries get dropped.
        ds.maintenance().run_merges().unwrap();
        let res = ds
            .query("user_id")
            .range(0, 9_999)
            .sort_output(true)
            .execute()
            .unwrap();
        let want = oracle
            .values()
            .filter(|(uid, _)| (0..10_000).contains(uid))
            .count();
        assert_eq!(res.len(), want, "{strategy:?}");
    }
}

#[test]
fn index_only_matches_non_index_only() {
    for strategy in strategies() {
        let ds = dataset(strategy);
        ingest(&ds, 2000, 0.4);
        let records = ds
            .query("user_id")
            .range(0, 29_999)
            .sort_output(true)
            .execute()
            .unwrap();
        let keys = ds
            .query("user_id")
            .range(0, 29_999)
            .index_only()
            .execute()
            .unwrap();
        let mut from_records: Vec<i64> = records
            .records()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        let mut from_keys: Vec<i64> = keys.keys().iter().map(|k| k.as_int().unwrap()).collect();
        from_records.sort_unstable();
        from_keys.sort_unstable();
        assert_eq!(from_records, from_keys, "{strategy:?}");
    }
}

#[test]
fn deletes_heavy_workload() {
    for strategy in strategies() {
        let ds = dataset(strategy);
        let mut oracle = ingest(&ds, 2000, 0.0);
        // Delete every third key.
        let keys: Vec<i64> = oracle.keys().copied().collect();
        for (i, pk) in keys.iter().enumerate() {
            if i % 3 == 0 {
                ds.delete(&Value::Int(*pk)).unwrap();
                oracle.remove(pk);
            }
        }
        ds.flush_all().unwrap();
        ds.run_merges().unwrap();
        for (i, pk) in keys.iter().enumerate() {
            let present = ds.get(&Value::Int(*pk)).unwrap().is_some();
            assert_eq!(present, i % 3 != 0, "{strategy:?} pk {pk}");
        }
        // Full-range secondary query sees exactly the survivors.
        let res = ds.query("user_id").execute().unwrap();
        assert_eq!(res.len(), oracle.len(), "{strategy:?}");
    }
}

#[test]
fn stats_reflect_strategy_costs() {
    // Eager performs maintenance lookups for every upsert of an existing
    // key; Validation performs none beyond insert uniqueness checks.
    let eager = dataset(StrategyKind::Eager);
    ingest(&eager, 1000, 0.5);
    let lazy = dataset(StrategyKind::Validation);
    ingest(&lazy, 1000, 0.5);
    let e = eager.stats().snapshot();
    let l = lazy.stats().snapshot();
    assert!(e.maintenance_lookups > l.maintenance_lookups);
    assert_eq!(l.maintenance_lookups, 0, "upserts do no lookups under lazy");
}

/// `n` tweet upserts held in memory (the budget never trips), so one
/// `flush_all` builds every index's component. No log: the data device
/// holds component files only.
fn loaded_for_one_flush(strategy: StrategyKind, n: usize) -> Arc<Dataset> {
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = strategy;
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "user_id".into(),
        field: 1,
    }];
    cfg.memory_budget = usize::MAX;
    let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
    let mut w = UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..n {
        ds.upsert(w.next_op().record()).unwrap();
    }
    ds
}

/// Files on `s` that hold pages.
fn files_with_pages(s: &Storage) -> usize {
    let end = s.create_file().0;
    (0..end)
        .filter(|&f| s.file_pages(FileId(f)).is_ok_and(|n| n > 0))
        .count()
}

fn installed_components(ds: &Dataset) -> usize {
    std::iter::once(ds.primary())
        .chain(ds.pk_index())
        .chain(ds.secondaries().iter().map(|s| &s.tree))
        .map(|t| t.num_disk_components())
        .sum()
}

/// A flush that fails mid-build leaves no file behind, whichever build
/// fails: the failing builder deletes its partial file, and the components
/// built before it are retired unpublished. The retry publishes one
/// component per index, and no other file holds pages.
#[test]
fn a_failed_flush_build_leaves_no_file_behind() {
    for strategy in strategies() {
        // Where the primary's build ends, measured on a twin flushed
        // without a fault: the pk index's build starts there.
        let twin = loaded_for_one_flush(strategy, 3000);
        twin.flush_all().unwrap();
        let primary_file = twin.primary().disk_components()[0].btree().file();
        let primary_pages = u64::from(twin.storage().file_pages(primary_file).unwrap());
        for (build, index) in [("primary", 3), ("pk index", primary_pages + 2)] {
            let ds = loaded_for_one_flush(strategy, 3000);
            let plan = FaultPlan::new(vec![FaultSpec {
                trigger: FaultTrigger::OpIndex {
                    op: FaultOp::Append,
                    index,
                },
                action: FaultAction::TransientError,
            }]);
            ds.storage().install_fault_plan(plan.clone());
            plan.arm();
            let err = ds.flush_all().unwrap_err();
            plan.disarm();
            let case = format!("{strategy:?}, fault in the {build} build");
            assert!(err.is_transient(), "{case}: {err}");
            assert_eq!(installed_components(&ds), 0, "{case}: nothing published");
            assert_eq!(files_with_pages(ds.storage()), 0, "{case}: a file leaked");

            assert!(ds.flush_all().unwrap(), "{case}: the retry flushes");
            let installed = installed_components(&ds);
            assert_eq!(installed, 2 + ds.secondaries().len(), "{case}");
            assert_eq!(files_with_pages(ds.storage()), installed, "{case}");
            assert_eq!(
                ds.primary().disk_entries(),
                twin.primary().disk_entries(),
                "{case}: the retry flushed everything"
            );
        }
    }
}
