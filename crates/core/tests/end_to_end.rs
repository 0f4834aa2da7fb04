//! Cross-crate end-to-end tests: the full tweet workload of Section 6
//! against every maintenance strategy, checking query answers against an
//! oracle and exercising flushes, merges, repair, and filter scans together.

use lsm_btree::{BTree, BTreeBuilder};
use lsm_common::Value;
use lsm_engine::{Dataset, DatasetConfig, MergePlan, MergeTarget, SecondaryIndexDef, StrategyKind};
use lsm_storage::{
    FaultAction, FaultOp, FaultPlan, FaultSpec, FaultTrigger, FileId, Storage, StorageOptions,
};
use lsm_tree::{DiskComponent, MergeRange};
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

/// Files on `s` that hold a page a read still returns: a released page
/// does not count.
fn files_with_pages(s: &Storage) -> usize {
    let end = s.create_file().0;
    (0..end).filter(|&f| live_pages(s, FileId(f)) > 0).count()
}

/// The pages of `file` a read still returns.
fn live_pages(s: &Storage, file: FileId) -> usize {
    let pages = s.file_pages(file).unwrap_or(0);
    (0..pages).filter(|&p| s.page_data(file, p).is_ok()).count()
}

fn installed_components(ds: &Dataset) -> usize {
    std::iter::once(ds.primary())
        .chain(ds.pk_index())
        .chain(ds.secondaries().iter().map(|s| &s.tree))
        .map(|t| t.num_disk_components())
        .sum()
}

/// The newest disk component of every index, in flush order: primary, pk
/// index, secondaries.
fn newest_components(ds: &Dataset) -> Vec<Arc<DiskComponent>> {
    std::iter::once(ds.primary())
        .chain(ds.pk_index())
        .chain(ds.secondaries().iter().map(|s| &s.tree))
        .filter_map(|t| t.disk_components().first().cloned())
        .collect()
}

/// A flush that fails mid-build leaves no page behind, whichever build
/// fails: the failing builder releases its pages, and the components
/// built before it are retired unpublished, which deletes the flush's
/// file. The retry publishes one component per index, all in one file,
/// and no other file holds pages.
#[test]
fn a_failed_flush_build_leaves_no_file_behind() {
    for strategy in strategies() {
        // Where the primary's build ends, measured on a twin flushed
        // without a fault: the pk index's build starts there.
        let twin = loaded_for_one_flush(strategy, 3000);
        twin.flush_all().unwrap();
        let primary = &twin.primary().disk_components()[0];
        let primary_pages = primary.btree().pages().len() as u64;
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
            assert_eq!(files_with_pages(ds.storage()), 1, "{case}");
            assert_eq!(
                ds.primary().disk_entries(),
                twin.primary().disk_entries(),
                "{case}: the retry flushed everything"
            );
        }
    }
}

/// `n` tweet upserts held in memory by a Validation dataset with a pk
/// index and two secondary indexes, `user_id` and `location`.
fn validation_with_two_secondaries(n: usize) -> Arc<Dataset> {
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = StrategyKind::Validation;
    cfg.secondary_indexes = ["user_id", "location"]
        .iter()
        .zip(1..)
        .map(|(name, field)| SecondaryIndexDef {
            name: (*name).into(),
            field,
        })
        .collect();
    cfg.memory_budget = usize::MAX;
    let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
    let mut w = UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..n {
        ds.upsert(w.next_op().record()).unwrap();
    }
    ds
}

/// `tree`'s entries built alone into a file of their own, on a device
/// with the same page size.
fn rebuilt_alone(tree: &BTree) -> BTree {
    let mut b = BTreeBuilder::new(Storage::new(StorageOptions::test()));
    let mut scan = tree.scan_all().unwrap();
    while let Some((key, value, _)) = scan.next_entry().unwrap() {
        b.add(&key, &value).unwrap();
    }
    b.finish().unwrap()
}

/// One flush of four indexes writes them back to back at the write
/// frontier, so it pays one write seek, not four. Each tree owns a page
/// range of that file holding exactly the pages the tree would hold in a
/// file of its own, so the flush writes the pages and bytes it wrote
/// before, and each component's size is its own pages'. Merges that
/// retire the flush's trees one index at a time append their outputs
/// after them, and the frontier file outlives every tree it held.
#[test]
fn a_flush_writes_every_index_into_one_file_with_one_write_seek() {
    let ds = validation_with_two_secondaries(3000);
    let s = ds.storage().clone();
    let before = s.stats();
    assert!(ds.flush_all().unwrap());
    let io = s.stats().since(&before);
    assert_eq!(io.write_seeks, 1);
    let flushed = newest_components(&ds);
    assert_eq!(flushed.len(), 4);
    let file = flushed[0].btree().file();
    let (mut next, mut bytes) = (0, 0);
    for (i, comp) in flushed.iter().enumerate() {
        let tree = comp.btree();
        assert_eq!((tree.file(), tree.pages().start), (file, next), "tree {i}");
        next = tree.pages().end;
        let alone = rebuilt_alone(tree);
        assert_eq!(tree.pages().len(), alone.pages().len(), "tree {i}");
        assert_eq!(comp.byte_size(), alone.byte_size(), "tree {i}");
        assert_eq!(comp.byte_size(), tree.pages().len() as u64 * 4096);
        for (p, q) in tree.pages().zip(alone.pages()) {
            let page = s.page_data(file, p).unwrap();
            assert_eq!(page, alone.storage().page_data(alone.file(), q).unwrap());
            bytes += page.len() as u64;
        }
    }
    assert_eq!(s.file_pages(file).unwrap(), next);
    assert_eq!(
        (io.pages_written, io.bytes_written),
        (u64::from(next), bytes)
    );

    // A second flush, then merges that retire the first flush's trees one
    // index at a time, each writing its output at the frontier.
    let mut w = UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..500 {
        ds.upsert(w.next_op().record()).unwrap();
    }
    assert!(ds.flush_all().unwrap());
    drop(flushed);
    let targets = [
        MergeTarget::Primary,
        MergeTarget::PkIndex,
        MergeTarget::Secondary(0),
        MergeTarget::Secondary(1),
    ];
    for target in targets {
        let range = MergeRange { start: 0, end: 1 };
        assert!(ds.execute_merge_plan(&MergePlan { target, range }).unwrap());
    }
    assert!(
        (0..next).all(|p| s.page_data(file, p).is_err()),
        "the first flush's trees are released"
    );
    let merged = newest_components(&ds);
    assert!(merged.iter().all(|c| c.btree().file() == file));
    assert_eq!(files_with_pages(&s), 1, "the frontier holds every tree");
}

/// A Validation dataset with a pk index and a cache that holds all of its
/// pages, so merges find their inputs resident.
fn resident(n: usize, w: &mut UpsertWorkload) -> Arc<Dataset> {
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = StrategyKind::Validation;
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "user_id".into(),
        field: 1,
    }];
    cfg.memory_budget = usize::MAX;
    let storage = Storage::new(StorageOptions {
        cache_pages: 1 << 14,
        ..StorageOptions::test()
    });
    let ds = Dataset::open(storage, None, cfg).unwrap();
    for _ in 0..n {
        ds.upsert(w.next_op().record()).unwrap();
    }
    ds
}

/// Merges every index's two newest components.
fn merge_round(ds: &Dataset) {
    let targets = std::iter::once(MergeTarget::Primary)
        .chain(ds.pk_index().map(|_| MergeTarget::PkIndex))
        .chain((0..ds.secondaries().len()).map(MergeTarget::Secondary));
    for target in targets {
        let range = MergeRange { start: 0, end: 1 };
        assert!(ds.execute_merge_plan(&MergePlan { target, range }).unwrap());
    }
}

/// Every build appends at the write frontier, so builds with no device
/// read between them pay one write seek in all: two flushes and a merge
/// round over resident inputs write one file with one seek. A merge whose
/// inputs come from the device moves the head between its appends and
/// pays seeks of its own.
#[test]
fn flushes_and_merges_over_resident_inputs_pay_one_write_seek() {
    let mut w = UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    let ds = resident(2000, &mut w);
    let s = ds.storage().clone();
    let before = s.stats();
    assert!(ds.flush_all().unwrap());
    for _ in 0..2000 {
        ds.upsert(w.next_op().record()).unwrap();
    }
    assert!(ds.flush_all().unwrap());
    merge_round(&ds);
    let io = s.stats().since(&before);
    assert_eq!((io.write_seeks, io.disk_reads()), (1, 0));
    assert_eq!(files_with_pages(&s), 1);

    for _ in 0..2000 {
        ds.upsert(w.next_op().record()).unwrap();
    }
    assert!(ds.flush_all().unwrap());
    s.clear_cache();
    let before = s.stats();
    merge_round(&ds);
    let io = s.stats().since(&before);
    assert!(io.disk_reads() > 0, "the inputs came from the device");
    assert!(io.write_seeks >= 3, "each merge seeks: {}", io.write_seeks);
    assert_eq!(files_with_pages(&s), 1);
}

/// The entries of `tree`, in order.
fn entries(tree: &BTree) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut scan = tree.scan_all().unwrap();
    std::iter::from_fn(|| scan.next_entry().unwrap().map(|(k, v, _)| (k, v))).collect()
}

/// A Mutable-bitmap merge builds the primary and the pk index in lockstep
/// (the Side-file method): the primary's build holds the frontier, so the
/// pk index's build writes a fresh file. Each tree is one contiguous page
/// range and reopens alone from its last page.
#[test]
fn a_side_file_merge_writes_each_tree_contiguously() {
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = StrategyKind::MutableBitmap;
    cfg.memory_budget = usize::MAX;
    let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
    let s = ds.storage().clone();
    let mut w = UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..2 {
        for _ in 0..1500 {
            ds.upsert(w.next_op().record()).unwrap();
        }
        assert!(ds.flush_all().unwrap());
    }
    let plan = MergePlan {
        target: MergeTarget::Correlated,
        range: MergeRange { start: 0, end: 1 },
    };
    assert!(ds.execute_merge_plan(&plan).unwrap());
    let primary = ds.primary().disk_components()[0].clone();
    let pk = ds.pk_index().unwrap().disk_components()[0].clone();
    let (p, k) = (primary.btree(), pk.btree());
    assert_ne!(p.file(), k.file(), "the pk build found the frontier held");
    assert_eq!(k.pages(), 0..s.file_pages(k.file()).unwrap());
    for tree in [p, k] {
        let reopened = BTree::open_at(s.clone(), tree.file(), tree.pages().end - 1).unwrap();
        assert_eq!(reopened.num_entries(), tree.num_entries());
        assert_eq!(entries(&reopened), entries(tree));
    }
    assert!(p.pages().len() > 1 && k.pages().len() > 1);
}

/// A permanent error at any append of a flush — in the primary's, the pk
/// index's or a secondary index's pages — fails the flush without
/// poisoning the dataset and leaves no live page behind. The retry is a
/// flush of one write seek into one file.
#[test]
fn a_flush_failing_at_any_append_leaves_no_live_page() {
    const UPSERTS: usize = 600;
    let twin = validation_with_two_secondaries(UPSERTS);
    twin.flush_all().unwrap();
    let ends: Vec<u64> = newest_components(&twin)
        .iter()
        .map(|c| u64::from(c.btree().pages().end))
        .collect();
    let appends = ends[3];
    assert!(
        ends.windows(2).all(|w| w[0] < w[1]),
        "every tree has pages: {ends:?}"
    );
    for index in 0..appends {
        let case = format!("append {index} of {appends} (trees end at {ends:?})");
        let ds = validation_with_two_secondaries(UPSERTS);
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Append,
                index,
            },
            action: FaultAction::PermanentError,
        }]);
        ds.storage().install_fault_plan(plan.clone());
        plan.arm();
        let err = ds.flush_all().unwrap_err();
        ds.storage().clear_fault_plan();
        assert!(!err.is_transient(), "{case}: {err}");
        assert!(!ds.is_poisoned(), "{case}");
        assert_eq!(installed_components(&ds), 0, "{case}: nothing published");
        assert_eq!(files_with_pages(ds.storage()), 0, "{case}: a page leaked");

        let before = ds.storage().stats();
        assert!(ds.flush_all().unwrap(), "{case}: the retry flushes");
        assert_eq!(ds.storage().stats().since(&before).write_seeks, 1, "{case}");
        assert_eq!(installed_components(&ds), 4, "{case}");
        assert_eq!(files_with_pages(ds.storage()), 1, "{case}");
        assert_eq!(ds.primary().disk_entries(), twin.primary().disk_entries());
    }
}
