//! Allocation budgets of the hot read and write calls.
//!
//! A warm `Dataset::get` of a present key owes its caller four
//! allocations — the encoded primary key, and the returned `Record`'s
//! field vector and two strings (tweet schema) — and gets no more; a
//! cache-hit `Storage::read_page` owes none; a secondary-index query owes
//! each returned row its `Record` (three) and the candidate key the fetch
//! looked it up by, and is allowed one and a half more per row for the
//! scan's reconciliation and the vectors that grow with the result; a
//! candidate scan owes each candidate its primary key, and a counting
//! filter scan owes a scanned entry nothing (a fiftieth at most). On
//! the write side, a warm upsert owes six, and a merge or a merge repair
//! owes each output entry only a share of its page (a quarter at most).
//!
//! One `#[test]` on purpose: the counter is process-wide, so nothing else
//! may run beside the measured calls. Each budget is checked on the
//! cheapest of several trials, since a stray allocation elsewhere in the
//! process can only add to a trial.

use lsm_bench::alloc_track::{allocations, CountingAlloc};
use lsm_bench::{apply, open_tweet_dataset, prepare_dataset, tweet_dataset_config, Env, EnvConfig};
use lsm_common::Value;
use lsm_engine::keys::{bound_as_ref, sk_range};
use lsm_engine::{Dataset, StrategyKind, ValidationMethod};
use lsm_storage::{Storage, StorageOptions};
use lsm_tree::{LsmEntry, LsmOptions, LsmTree, MergeRange, ScanOptions};
use lsm_workload::{Op, TweetConfig, UpdateDistribution, UpsertWorkload, USER_ID_DOMAIN};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fewest allocations any of `trials` calls of `op` made.
fn cheapest(trials: usize, mut op: impl FnMut()) -> u64 {
    (0..trials)
        .map(|_| {
            let before = allocations();
            op();
            allocations() - before
        })
        .min()
        .expect("at least one trial")
}

#[test]
fn hot_read_calls_stay_inside_their_allocation_budgets() {
    // Storage: a resident page is returned without allocating.
    let storage = Storage::new(StorageOptions::test());
    let file = storage.create_file();
    storage.append_page(file, b"page").unwrap();
    storage.read_page(file, 0).unwrap(); // admit
    let hits_before = storage.stats().cache_hits;
    let per_read = cheapest(16, || {
        std::hint::black_box(storage.read_page(file, 0).unwrap());
    });
    assert_eq!(storage.stats().cache_hits - hits_before, 16);
    assert_eq!(per_read, 0, "cache-hit read_page allocated");

    // Engine: several disk components, everything flushed, cache roomy
    // enough that the second read of a key touches no device.
    let n = 16_000;
    let dataset_bytes = (n * 600) as u64;
    let env = Env::new(&EnvConfig {
        dataset_bytes: 8 * dataset_bytes,
        cache_fraction: 1.0,
        ..EnvConfig::default()
    });
    let (ds, workload) = prepare_dataset(
        &env,
        StrategyKind::Validation,
        dataset_bytes,
        n,
        0.2,
        UpdateDistribution::Uniform,
    );
    assert!(ds.primary().num_disk_components() > 1);
    let generator = workload.generator();
    let mut worst = 0;
    for i in (0..generator.num_issued()).step_by(97) {
        let pk = Value::Int(generator.issued_key(i));
        assert!(ds.get(&pk).unwrap().is_some(), "warm-up get of key {i}");
        let per_get = cheapest(4, || {
            std::hint::black_box(ds.get(&pk).unwrap());
        });
        worst = worst.max(per_get);
    }
    assert!(worst <= 4, "a warm get of a present key allocated {worst}");

    // A 1 % secondary-index query over the same components.
    assert!(ds.primary().num_disk_components() >= 8);
    let query = || {
        let q = ds.query("user_id").range(0, USER_ID_DOMAIN / 100);
        q.execute().unwrap().records().len()
    };
    let rows = query(); // warm-up
    assert!(rows >= 100, "{rows} rows");
    let per_query = cheapest(4, || assert_eq!(query(), rows));
    let per_row = per_query as f64 / rows as f64;
    assert!(per_row <= 5.5, "{per_row:.2} allocations per returned row");

    // A 10 % range, index-only and unvalidated — the candidate scan with
    // nothing behind it: a candidate owes the copy of its primary key out
    // of the lent secondary entry and nothing else; the query owes, once,
    // its scan's set-up per component and the vectors that grow with the
    // result (50 measured over these components).
    let (lo, hi) = sk_range(Some(&Value::Int(0)), Some(&(USER_ID_DOMAIN / 10).into()));
    let secondary = &ds.secondaries()[0].tree;
    let mut scan = secondary
        .scan(bound_as_ref(&lo), bound_as_ref(&hi), ScanOptions::default())
        .unwrap();
    let mut candidates = 0;
    while let Some(lent) = scan.next_lent().unwrap() {
        candidates += u64::from(!lent.entry.anti_matter);
    }
    assert!(candidates >= 1000, "{candidates} candidates");
    let keys = || {
        let q = ds.query("user_id").range(0, USER_ID_DOMAIN / 10);
        let q = q.index_only().validation(ValidationMethod::None);
        q.execute().unwrap().keys().len()
    };
    let distinct = keys(); // warm-up
    let per_query = cheapest(4, || assert_eq!(keys(), distinct));
    assert!(
        per_query <= candidates + 64,
        "{per_query} allocations over {candidates} scanned candidates"
    );

    // A filter scan that only counts. The scan lends each entry out of its
    // leaf and the predicate reads it there, so a scanned entry owes
    // nothing; what is left is paid per scan, per component and per
    // read-ahead burst (0.003 and 0.004 measured; 0.84 and 1.00 while
    // every live key was copied out).
    // Validation reconciles the components under one heap; Mutable-bitmap
    // walks them one after another.
    let count_budget = |ds: &Dataset| {
        assert!(ds.primary().num_disk_components() >= 8);
        let count = || ds.filter_scan().count().unwrap().matches;
        let live = count(); // warm-up
        let per_scan = cheapest(4, || assert_eq!(count(), live));
        let per_entry = per_scan as f64 / ds.primary().disk_entries() as f64;
        let strategy = ds.config().strategy;
        assert!(
            per_entry <= 0.02,
            "{per_entry:.3} allocations per entry of a {strategy:?} filter scan"
        );
    };
    count_budget(&ds);
    let in_place = StrategyKind::MutableBitmap;
    let distribution = UpdateDistribution::Uniform;
    count_budget(&prepare_dataset(&env, in_place, dataset_bytes, n, 0.2, distribution).0);

    // Write path. A Validation upsert with the WAL on and the memtable
    // under budget (the flush above emptied it; the budget holds hundreds
    // of these records) owes six: the encoded primary key, the key lock's
    // table entry, the encoded record, and the keys of the primary,
    // primary-key and secondary memtable entries. It made 11 before the
    // log frame was encoded in place; the five that went were the
    // `LogRecord`'s key and value, the `body` / `out` double buffer and
    // the batch's `Vec<Vec<u8>>`.
    let mut workload = workload;
    let ops: Vec<Op> = (0..32).map(|_| workload.next_op()).collect();
    let mut ops = ops.iter();
    let per_upsert = cheapest(32, || apply(&ds, ops.next().expect("one op per trial")));
    // (The lock-order detector copies the held-lock list at every nested
    // acquisition, and an upsert nests eight: not the engine's count.)
    assert!(
        per_upsert <= 6 || cfg!(lock_order_check),
        "a warm upsert allocated {per_upsert}"
    );

    // Merge: two primary-shaped components (9-byte keys, timestamped
    // ~600-byte values, a third of the keys in both). The scan lends each
    // entry out of its leaf and the builder takes the stored bytes as they
    // are, so an output entry owes nothing but its share of a page and of
    // the router above it (0.07 measured; 1.27 while the scan copied every
    // key out, 5.32 before the builder diet).
    let tree = LsmTree::new(
        Storage::new(StorageOptions::hdd(64 << 20)),
        LsmOptions::default(),
    );
    let mut ts = 0;
    for keys in [0..3000u64, 2000..5000] {
        for k in keys {
            ts += 1;
            let value = vec![(k % 251) as u8; 550 + (k % 100) as usize];
            tree.put(k.to_be_bytes().to_vec(), LsmEntry::put_ts(value, ts), ts);
        }
        tree.flush().unwrap();
    }
    let before = allocations();
    let merged = tree.merge_range(MergeRange { start: 0, end: 1 }).unwrap();
    let merge_per_entry = (allocations() - before) as f64 / merged.num_entries() as f64;
    assert_eq!(merged.num_entries(), 5000);
    assert!(
        merge_per_entry <= 0.25,
        "{merge_per_entry:.2} allocations per merged entry"
    );

    // Merge repair of two secondary components: the same pipeline plus
    // Figure 7's validation. The candidates live in one arena and their
    // pk-index probes read pinned pages, so the budget is the merge's
    // (0.02 measured).
    let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    cfg.memory_budget = usize::MAX; // two flushes, placed by hand
    let ds = open_tweet_dataset(&env, cfg);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.3, UpdateDistribution::Uniform);
    for _ in 0..2 {
        for _ in 0..3000 {
            apply(&ds, &workload.next_op());
        }
        ds.flush_all().unwrap();
    }
    let secondary = &ds.secondaries()[0].tree;
    assert_eq!(secondary.num_disk_components(), 2);
    let before = allocations();
    let plan = ds.maintenance().plan().with_merge(true);
    let report = plan.repair_index("user_id").unwrap();
    let per_entry = (allocations() - before) as f64 / report.entries_scanned as f64;
    assert_eq!(secondary.num_disk_components(), 1);
    assert!(report.entries_scanned > 4000, "{report:?}");
    assert!(report.invalidated > 0, "{report:?}");
    // (Under the lock-order detector every validation probe allocates: it
    // reads a page with the merge lock held.)
    assert!(
        per_entry <= 0.25 || cfg!(lock_order_check),
        "{per_entry:.2} allocations per merge-repaired entry"
    );
}
