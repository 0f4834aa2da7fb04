//! Allocation budgets of the hot read calls.
//!
//! A warm `Dataset::get` of a present key owes its caller four
//! allocations — the encoded primary key, and the returned `Record`'s
//! field vector and two strings (tweet schema) — and gets no more; a
//! cache-hit `Storage::read_page` owes none; a secondary-index query owes
//! each returned row its `Record` (three) and the candidate key the fetch
//! looked it up by, and is allowed one and a half more per row for the
//! scan's reconciliation and the vectors that grow with the result.
//!
//! One `#[test]` on purpose: the counter is process-wide, so nothing else
//! may run beside the measured calls. Each budget is checked on the
//! cheapest of several trials, since a stray allocation elsewhere in the
//! process can only add to a trial.

use lsm_bench::alloc_track::{allocations, CountingAlloc};
use lsm_bench::{prepare_dataset, Env, EnvConfig};
use lsm_common::Value;
use lsm_engine::StrategyKind;
use lsm_storage::{Storage, StorageOptions};
use lsm_workload::{UpdateDistribution, USER_ID_DOMAIN};

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
}
