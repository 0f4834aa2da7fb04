//! Filter-scan differential oracle.
//!
//! A randomized workload (inserts, upserts, deletes, interleaved flushes,
//! plus an unflushed tail) is mirrored into a `BTreeMap`; the same
//! filter predicates then run through the one scan executor at its default
//! `n = 1` (collecting and streaming), and fanned out at several `n`
//! (collecting and streaming), across all four maintenance strategies.
//! Every execution must return *identical* records in primary-key order,
//! matching the mirror —
//! including while background flushes, merges, and delete traffic churn
//! components underneath the scans.

use lsm_common::{Record, Result, Schema, Value};
use lsm_engine::{Dataset, DatasetConfig, EngineConfig, MaintenanceRuntime, StrategyKind};
use lsm_storage::{Storage, StorageOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![
        ("id", lsm_common::FieldType::Int),
        ("time", lsm_common::FieldType::Int),
    ])
    .unwrap()
}

fn rec(id: i64, t: i64) -> Record {
    Record::new(vec![Value::Int(id), Value::Int(t)])
}

fn storage() -> Arc<Storage> {
    Storage::new(StorageOptions::test())
}

fn config(strategy: StrategyKind) -> DatasetConfig {
    let mut cfg = DatasetConfig::new(schema(), 0);
    cfg.strategy = strategy;
    cfg.filter_field = Some(1);
    cfg.memory_budget = usize::MAX; // flushes under test control
    cfg
}

fn all_strategies() -> [StrategyKind; 4] {
    [
        StrategyKind::Eager,
        StrategyKind::Validation,
        StrategyKind::MutableBitmap,
        StrategyKind::DeletedKeyBTree,
    ]
}

/// Applies a deterministic random workload to `ds` and the mirror map
/// (`id -> time`).
fn apply_workload(ds: &Dataset, mirror: &mut BTreeMap<i64, i64>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..6 {
        for _ in 0..250 {
            let id = rng.gen_range(0..1200i64);
            if rng.gen_bool(0.15) {
                ds.delete(&Value::Int(id)).unwrap();
                mirror.remove(&id);
            } else {
                let t = rng.gen_range(0..1000i64);
                ds.upsert(&rec(id, t)).unwrap();
                mirror.insert(id, t);
            }
        }
        if round < 5 {
            ds.flush_all().unwrap(); // the last round stays in memory
        }
    }
}

/// The mirror's answer: full records with `time ∈ [lo, hi]`, pk-ascending.
fn expected(mirror: &BTreeMap<i64, i64>, lo: Option<i64>, hi: Option<i64>) -> Vec<Record> {
    mirror
        .iter()
        .filter(|(_, t)| lo.is_none_or(|l| **t >= l) && hi.is_none_or(|h| **t <= h))
        .map(|(id, t)| rec(*id, *t))
        .collect()
}

/// Runs one predicate at `n = 1` and at every fan-out in `ns` — count,
/// records and stream — and checks each against the mirror.
fn check_range(
    ds: &Dataset,
    mirror: &BTreeMap<i64, i64>,
    lo: Option<i64>,
    hi: Option<i64>,
    ns: &[usize],
    label: &str,
) {
    let want = expected(mirror, lo, hi);
    let scan = || {
        let mut b = ds.filter_scan();
        if let Some(l) = lo {
            b = b.range_from(l);
        }
        if let Some(h) = hi {
            b = b.range_to(h);
        }
        b
    };

    let serial = scan().records().unwrap();
    assert_eq!(serial, want, "{label}: serial vs mirror [{lo:?},{hi:?}]");
    let ids: Vec<i64> = serial.iter().map(|r| r.get(0).as_int().unwrap()).collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "{label}: serial output not strictly pk-ordered [{lo:?},{hi:?}]"
    );
    assert_eq!(
        scan().count().unwrap().matches,
        want.len() as u64,
        "{label}: count vs mirror [{lo:?},{hi:?}]"
    );
    let streamed: Vec<Record> = scan().stream().unwrap().collect::<Result<_>>().unwrap();
    assert_eq!(
        streamed, serial,
        "{label}: stream vs serial [{lo:?},{hi:?}]"
    );

    for &n in ns {
        let par = scan().parallel(n).records().unwrap();
        assert_eq!(
            par, serial,
            "{label}: parallel({n}) vs serial [{lo:?},{hi:?}]"
        );
        let report = scan().parallel(n).count().unwrap();
        assert_eq!(report.matches, want.len() as u64, "{label}: parallel({n})");
        assert!(
            report.partitions >= 1 && report.partitions <= n as u64,
            "{label}: parallel({n}) planned {} partitions",
            report.partitions
        );
        let pstream: Vec<Record> = scan()
            .parallel(n)
            .stream()
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(
            pstream, serial,
            "{label}: parallel({n}) stream vs serial [{lo:?},{hi:?}]"
        );
    }
}

const RANGES: [(Option<i64>, Option<i64>); 6] = [
    (None, None),
    (None, Some(199)),
    (Some(300), Some(700)),
    (Some(900), None),
    (Some(424), Some(424)),
    (Some(2000), Some(3000)), // empty
];

#[test]
fn filter_scan_matches_oracle_across_strategies() {
    for (i, strategy) in all_strategies().into_iter().enumerate() {
        let ds = Dataset::open(storage(), None, config(strategy)).unwrap();
        let mut mirror = BTreeMap::new();
        apply_workload(&ds, &mut mirror, 31 + i as u64);
        let label = format!("{strategy:?}");
        for (lo, hi) in RANGES {
            check_range(&ds, &mirror, lo, hi, &[1, 2, 3, 7], &label);
        }
    }
}

/// Scans race background flushes, merges, and delete traffic driven by a
/// churn writer whose operations leave the logical content unchanged:
/// every path must keep agreeing with the mirror throughout.
#[test]
fn filter_scan_matches_oracle_under_background_churn() {
    for strategy in [StrategyKind::Validation, StrategyKind::MutableBitmap] {
        let runtime = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
        let mut cfg = config(strategy);
        cfg.memory_budget = 24 * 1024; // churn trips background flushes
        cfg.memory_ceiling = Some(usize::MAX);
        let ds = Dataset::open_with_runtime(storage(), None, cfg, &runtime).unwrap();

        let mut mirror = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(57);
        for _ in 0..1500 {
            let id = rng.gen_range(0..800i64);
            let t = rng.gen_range(0..1000i64);
            ds.upsert(&rec(id, t)).unwrap();
            mirror.insert(id, t);
        }
        ds.maintenance().quiesce().unwrap();

        let pairs: Vec<(i64, i64)> = mirror.iter().map(|(k, v)| (*k, *v)).collect();
        let label = format!("churn/{strategy:?}");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let ds_ref = &ds;
            let stop_ref = &stop;
            // If an assertion below panics, the unwind still has to get
            // past the scope's implicit join — raise the stop flag on
            // the way out so the churn writer exits instead of hanging
            // the test forever.
            struct StopOnUnwind<'a>(&'a std::sync::atomic::AtomicBool);
            impl Drop for StopOnUnwind<'_> {
                fn drop(&mut self) {
                    self.0.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            }
            let _stop_guard = StopOnUnwind(stop_ref);
            let churn = scope.spawn(move || {
                // Re-upserts with unchanged values plus insert+delete of
                // transient ids far outside the mirror's domain: flushes,
                // merges, and anti-matter churn through the components
                // without ever changing the queryable content.
                let mut i = 0usize;
                while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                    let (id, t) = pairs[i % pairs.len()];
                    ds_ref.upsert(&rec(id, t)).unwrap();
                    if i.is_multiple_of(5) {
                        let ghost = 100_000 + (i % 7) as i64;
                        ds_ref.upsert(&rec(ghost, 50_000)).unwrap();
                        ds_ref.delete(&Value::Int(ghost)).unwrap();
                    }
                    i += 1;
                }
            });
            // Bounded predicates only while the churn writer runs: the
            // transient records' filter value (50 000) is outside every
            // queried range, so mid-flight ghosts cannot match.
            for round in 0..8i64 {
                let lo = (round % 4) * 200;
                check_range(&ds, &mirror, Some(lo), Some(lo + 250), &[3], &label);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            churn.join().unwrap();
        });
        // Clear any ghost left live by the final churn iteration, then
        // the full sweep — unbounded predicate included — must agree.
        for ghost in 100_000..100_007i64 {
            ds.delete(&Value::Int(ghost)).unwrap();
        }
        ds.maintenance().quiesce().unwrap();
        for (lo, hi) in RANGES {
            check_range(&ds, &mirror, lo, hi, &[2, 7], &label);
        }
        let snap = ds.stats().snapshot();
        assert!(snap.parallel_filter_scans > 0, "{label}");
        assert!(
            snap.filter_scan_partitions >= snap.parallel_filter_scans,
            "{label}"
        );
        assert!(snap.flush_jobs > 0, "{label}: churn never flushed");
    }
}
