//! Integration tests for the engine-wide shared [`MaintenanceRuntime`]:
//! many datasets, one bounded worker pool.
//!
//! The stress test is the scaling-cliff regression: 10 datasets × 1 writer
//! thread each churn upserts/deletes against a four-worker runtime, then
//! every dataset is verified against a single-threaded oracle; a watcher
//! asserts throughout that no more than four jobs ever run at once — the
//! per-dataset-pool design this replaces would have run 20+ maintenance
//! threads.

use lsm_common::{FieldType, Record, Schema, Value};
use lsm_engine::{
    Dataset, DatasetConfig, EngineConfig, EngineStatsSnapshot, MaintenanceRuntime,
    SecondaryIndexDef, StrategyKind,
};
use lsm_storage::{Storage, StorageOptions};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const DATASETS: usize = 10;
const OPS_PER_DATASET: usize = 1500;
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
    // Small budget + uncapped tiering so flushes and merges churn hard
    // under the writers.
    cfg.memory_budget = 16 * 1024;
    cfg.merge.max_mergeable_bytes = u64::MAX;
    cfg
}

fn strategy_for(d: usize) -> StrategyKind {
    match d % 4 {
        0 => StrategyKind::Eager,
        1 => StrategyKind::Validation,
        2 => StrategyKind::MutableBitmap,
        _ => StrategyKind::DeletedKeyBTree,
    }
}

/// Dataset `d`'s deterministic op sequence: `(id, None)` = delete,
/// `(id, Some(round))` = upsert. Shared by the executing writer and the
/// oracle so they cannot diverge.
fn dataset_ops(d: usize) -> Vec<(i64, Option<i64>)> {
    let mut x: i64 = 0x9E3779B9 ^ (d as i64);
    (0..OPS_PER_DATASET)
        .map(|op| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = x.rem_euclid(300);
            (id, (op % 5 != 4).then_some(op as i64))
        })
        .collect()
}

/// The final per-key state: the last operation applied to the key.
fn oracle(d: usize) -> HashMap<i64, Option<i64>> {
    dataset_ops(d).into_iter().collect()
}

#[test]
fn ten_datasets_share_a_four_worker_runtime() {
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(4)).unwrap();

    let datasets: Vec<Arc<Dataset>> = (0..DATASETS)
        .map(|d| {
            let strategy = strategy_for(d);
            Dataset::open_with_runtime(
                Storage::new(StorageOptions::test()),
                None,
                config(strategy),
                &runtime,
            )
            .unwrap()
        })
        .collect();
    assert_eq!(runtime.stats().datasets, DATASETS);

    // One writer thread per dataset, all contending for the shared pool,
    // while a watcher samples how many jobs run at once.
    let writing = std::sync::atomic::AtomicBool::new(true);
    let peak_in_flight = std::thread::scope(|scope| {
        let writers: Vec<_> = datasets
            .iter()
            .enumerate()
            .map(|(d, ds)| {
                scope.spawn(move || {
                    for (id, op) in dataset_ops(d) {
                        match op {
                            None => {
                                ds.delete(&Value::Int(id)).unwrap();
                            }
                            Some(round) => ds.upsert(&rec(id, round)).unwrap(),
                        }
                    }
                })
            })
            .collect();
        let (runtime, writing) = (&runtime, &writing);
        let watcher = scope.spawn(move || {
            let mut peak = 0;
            while writing.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(runtime.stats().in_flight);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            peak
        });
        for w in writers {
            w.join().unwrap();
        }
        writing.store(false, std::sync::atomic::Ordering::Relaxed);
        watcher.join().unwrap()
    });
    assert!(
        peak_in_flight <= 4,
        "more jobs in flight than workers: {peak_in_flight}"
    );
    for ds in &datasets {
        ds.maintenance().quiesce().unwrap();
    }

    let stats = runtime.stats();
    assert_eq!(stats.workers, 4, "{stats:?}");
    let jobs = |f: fn(&EngineStatsSnapshot) -> u64| -> u64 {
        datasets.iter().map(|ds| f(&ds.stats().snapshot())).sum()
    };
    assert!(jobs(|s| s.flush_jobs) > 0, "shared pool ran no flush");
    assert!(jobs(|s| s.merge_jobs) > 0, "shared pool ran no merge");
    assert_eq!(stats.queue_depth, 0, "drained after quiesce");
    assert_eq!(stats.in_flight, 0, "nothing mid-job after quiesce");

    // Every dataset matches its single-threaded oracle.
    for (d, ds) in datasets.iter().enumerate() {
        let strategy = strategy_for(d);
        let expect = oracle(d);
        for (&id, state) in &expect {
            let got = ds.get(&Value::Int(id)).unwrap();
            match state {
                None => assert!(got.is_none(), "{strategy:?} ds{d}: id {id} resurrected"),
                Some(round) => {
                    let r = got.unwrap_or_else(|| panic!("{strategy:?} ds{d}: id {id} vanished"));
                    assert_eq!(
                        r.get(1),
                        &Value::Int(*round),
                        "{strategy:?} ds{d}: id {id} stale"
                    );
                }
            }
        }
        // Secondary-index queries: each group returns exactly the live ids
        // of that group (validated per the strategy by the query builder).
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
            assert_eq!(got, want, "{strategy:?} ds{d}: group g{g} mismatch");
        }
    }

    // Dropping the datasets deregisters them; the runtime survives.
    drop(datasets);
    assert_eq!(runtime.stats().datasets, 0);
}

#[test]
fn background_merges_under_a_tiny_cache_stay_readable() {
    // A 4-page cache forces merge scans to the device; a foreground query
    // and gets must still see every record once maintenance drains.
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
    let storage = Storage::new(StorageOptions {
        cache_pages: 4,
        ..StorageOptions::test()
    });
    let mut cfg = config(StrategyKind::Validation);
    cfg.memory_budget = 8 * 1024;
    let ds = Dataset::open_with_runtime(storage.clone(), None, cfg, &runtime).unwrap();

    for i in 0..4000i64 {
        ds.upsert(&rec(i % 800, i)).unwrap();
    }
    ds.maintenance().quiesce().unwrap();

    let snap = ds.stats().snapshot();
    assert!(snap.merge_jobs > 0, "no background merge ran: {snap:?}");
    assert!(
        storage.stats().disk_reads() > 0,
        "merges never hit the device"
    );
    storage.clear_cache();
    let result = ds.query("grp").eq("g1").execute().unwrap();
    let want: HashSet<i64> = (0..800).filter(|id| id % GROUPS == 1).collect();
    let got: HashSet<i64> = result
        .records()
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect();
    assert_eq!(got, want);
    for i in [0, 399, 799] {
        assert!(ds.get(&Value::Int(i)).unwrap().is_some(), "id {i}");
    }
}

#[test]
fn background_flushes_write_the_data_device_and_the_log() {
    // Flush builds run on the runtime's workers and write the data device;
    // the WAL keeps its own device. Both fill, and every record reads back.
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
    let storage = Storage::new(StorageOptions::test());
    let log = Storage::new(StorageOptions::test());
    let mut cfg = config(StrategyKind::Validation);
    cfg.memory_budget = 8 * 1024;
    let ds = Dataset::open_with_runtime(storage.clone(), Some(log.clone()), cfg, &runtime).unwrap();

    for i in 0..4000i64 {
        ds.upsert(&rec(i % 800, i)).unwrap();
    }
    ds.maintenance().quiesce().unwrap();

    let snap = ds.stats().snapshot();
    assert!(snap.flush_jobs > 0, "no background flush ran: {snap:?}");
    assert!(storage.stats().bytes_written > 0, "flushes wrote nothing");
    assert!(log.stats().bytes_written > 0, "the WAL was not written");
    for i in [0, 399, 799] {
        let r = ds.get(&Value::Int(i)).unwrap().expect("record present");
        assert_eq!(r.get(1), &Value::Int(3200 + i), "id {i} stale");
    }
}

#[test]
fn foreground_wal_writes_queue_no_background_job() {
    // Inserts that stay under the memory budget append WAL pages on the
    // writer's thread and never enqueue maintenance.
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(1)).unwrap();
    let log = Storage::new(StorageOptions::test());
    let mut cfg = config(StrategyKind::Eager);
    cfg.memory_budget = 64 * 1024 * 1024; // never trips
    let ds = Dataset::open_with_runtime(
        Storage::new(StorageOptions::test()),
        Some(log.clone()),
        cfg,
        &runtime,
    )
    .unwrap();
    // Enough records to rotate several WAL pages.
    for i in 0..2000i64 {
        ds.upsert(&rec(i, i)).unwrap();
    }
    assert!(
        log.stats().bytes_written > 0,
        "the workload must actually write WAL pages"
    );
    let rt = runtime.stats();
    assert_eq!((rt.queue_depth, rt.in_flight), (0, 0), "{rt:?}");
    let snap = ds.stats().snapshot();
    assert_eq!(
        (snap.jobs_enqueued, snap.flush_jobs, snap.merge_jobs),
        (0, 0, 0)
    );
    assert!(ds.get(&Value::Int(1999)).unwrap().is_some());
}

#[test]
fn runtime_start_rejects_invalid_configs() {
    // The field is public, so `start` re-validates whatever it is given.
    assert!(MaintenanceRuntime::start(EngineConfig { workers: 0 }).is_err());
    // The pool does not grow: a cap above the size is refused at build.
    assert!(EngineConfig::builder()
        .min_workers(2)
        .max_workers(4)
        .build()
        .is_err());
    let runtime =
        MaintenanceRuntime::start(EngineConfig::builder().workers(1).build().unwrap()).unwrap();
    assert_eq!(runtime.stats().workers, 1);
}

#[test]
fn hot_dataset_cannot_starve_quiet_datasets() {
    // The starvation stress: one hot writer floods the shared queue while
    // 9 quiet datasets each need a couple of flushes. With one merge in
    // flight per dataset and round-robin flush scheduling, every quiet
    // dataset's flush must complete while the hot dataset still has work
    // queued.
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
    let hot = Dataset::open_with_runtime(
        Storage::new(StorageOptions::test()),
        None,
        config(StrategyKind::Validation),
        &runtime,
    )
    .unwrap();
    let quiet: Vec<Arc<Dataset>> = (0..9)
        .map(|_| {
            Dataset::open_with_runtime(
                Storage::new(StorageOptions::test()),
                None,
                config(StrategyKind::Validation),
                &runtime,
            )
            .unwrap()
        })
        .collect();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let spreads = std::thread::scope(|scope| {
        let hot = &hot;
        let stop = &stop;
        scope.spawn(move || {
            let mut i = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                hot.upsert(&rec(i % 400, i)).unwrap();
                i += 1;
            }
        });
        // Quiet datasets: write a burst that trips the budget, then wait
        // for their own jobs to drain — measuring the flush latency each
        // experienced while the hot writer floods the pool.
        let mut spreads = Vec::new();
        for ds in &quiet {
            let t0 = std::time::Instant::now();
            for i in 0..1200i64 {
                ds.upsert(&rec(i % 200, i)).unwrap();
            }
            ds.maintenance().quiesce().unwrap();
            spreads.push(t0.elapsed());
            assert!(
                ds.stats().snapshot().flush_jobs > 0,
                "quiet dataset never got a background flush"
            );
        }
        // The hot dataset must be busy around the time the quiet datasets
        // finished — quiet progress happened *under* contention, not after
        // the flood drained. The writer is still flooding here (stop is
        // set below), so its backlog recurs constantly; poll briefly
        // rather than sampling one instant, which could land in the gap
        // between a finished job and the next budget trip on a loaded CI
        // machine. Its stats row is found by its registration id.
        let hot_id = hot.runtime_dataset_id().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut hot_backlog = 0;
        while hot_backlog == 0 && std::time::Instant::now() < deadline {
            hot_backlog = runtime
                .stats()
                .per_dataset
                .iter()
                .find(|d| d.dataset == hot_id)
                .map(|d| d.queued + d.in_flight)
                .unwrap_or(0);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (spreads, hot_backlog)
    });
    let (spreads, hot_backlog) = spreads;
    assert!(
        hot_backlog > 0,
        "the hot dataset drained before the quiet ones finished — the \
         stress never contended"
    );
    // Bounded flush-latency spread: no quiet dataset took wildly longer
    // than the median (a starved dataset would block on quiesce for the
    // whole flood). Generous bound to stay robust on loaded CI machines.
    let mut sorted = spreads.clone();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    let worst = *sorted.last().unwrap();
    assert!(
        worst < median * 20 + std::time::Duration::from_secs(2),
        "flush latency spread unbounded: median {median:?}, worst {worst:?}"
    );
    hot.maintenance().quiesce().unwrap();
}

#[test]
fn per_dataset_quiesce_ignores_other_datasets() {
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(1)).unwrap();
    let a = Dataset::open_with_runtime(
        Storage::new(StorageOptions::test()),
        None,
        config(StrategyKind::Eager),
        &runtime,
    )
    .unwrap();
    let b = Dataset::open_with_runtime(
        Storage::new(StorageOptions::test()),
        None,
        config(StrategyKind::Eager),
        &runtime,
    )
    .unwrap();
    for i in 0..2000i64 {
        a.upsert(&rec(i, i)).unwrap();
        b.upsert(&rec(i, i)).unwrap();
    }
    // Quiescing `a` must terminate even though `b` keeps producing work —
    // it waits for a's jobs only.
    a.maintenance().quiesce().unwrap();
    b.maintenance().quiesce().unwrap();
    assert!(a.stats().snapshot().flushes > 0);
    assert!(b.stats().snapshot().flushes > 0);
}

#[test]
fn runtime_shuts_down_with_last_dataset() {
    let runtime = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
    let ds = Dataset::open_with_runtime(
        Storage::new(StorageOptions::test()),
        None,
        config(StrategyKind::Validation),
        &runtime,
    )
    .unwrap();
    for i in 0..2000i64 {
        ds.upsert(&rec(i, i)).unwrap();
    }
    // Dropping the user handle first, then the dataset: the dataset's
    // handle keeps the pool alive until the very end. Must not hang.
    drop(runtime);
    drop(ds);
}
