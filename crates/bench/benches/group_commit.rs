//! Criterion microbenchmark for the group-commit WAL and the `WriteBatch`
//! commit path (PR 7): the same upsert stream logged one WAL append per
//! record vs staged in `WriteBatch`es (one group append per batch), plus a
//! concurrent variant where four writers on one dataset share
//! leader-drained groups.
//!
//! The memory budget is left uncapped so the numbers isolate the commit
//! path (key locks + memtable insert + WAL) from flush and merge cost;
//! the repo benchmark's `mixed_rw` workload (`benchmark/`) covers the full
//! pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lsm_bench::{scaled, tweet_dataset_config, Env, EnvConfig};
use lsm_engine::{Dataset, StrategyKind};
use lsm_workload::{Op, TweetConfig, UpdateDistribution, UpsertWorkload};
use std::sync::Arc;
use std::time::Duration;

const BATCH: usize = 32;

fn ops(n: usize, seed: u64) -> Vec<Op> {
    let mut workload = UpsertWorkload::new(
        TweetConfig {
            seed,
            ..TweetConfig::default()
        },
        0.5,
        UpdateDistribution::Uniform,
    );
    (0..n).map(|_| workload.next_op()).collect()
}

fn open(n: usize) -> Arc<Dataset> {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ssd: true,
        ..Default::default()
    });
    let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    cfg.memory_budget = usize::MAX; // commit path only: no flushes
    Dataset::open(env.storage.clone(), Some(env.log_storage.clone()), cfg).expect("dataset")
}

fn commit_batched(ds: &Dataset, ops: &[Op]) {
    for chunk in ops.chunks(BATCH) {
        let mut b = ds.batch();
        for op in chunk {
            b = match op {
                Op::Insert(r) => b.insert(r),
                Op::Upsert(r) => b.upsert(r),
            };
        }
        b.commit().expect("batch commit");
    }
}

fn bench_group_commit(c: &mut Criterion) {
    let n = scaled(4_000);
    let mut group = c.benchmark_group("group_commit");

    group.bench_function("single_op", |b| {
        b.iter_batched(
            || (open(n), ops(n, 1)),
            |(ds, ops)| {
                for op in &ops {
                    lsm_bench::apply(&ds, op);
                }
                ds.wal().expect("wal").force().expect("force");
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function(&format!("batch_{BATCH}"), |b| {
        b.iter_batched(
            || (open(n), ops(n, 1)),
            |(ds, ops)| {
                commit_batched(&ds, &ops);
                ds.wal().expect("wal").force().expect("force");
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function(&format!("batch_{BATCH}_4_writers"), |b| {
        b.iter_batched(
            || {
                let per_writer: Vec<Vec<Op>> = (0..4).map(|w| ops(n / 4, w as u64 + 1)).collect();
                (open(n), per_writer)
            },
            |(ds, per_writer)| {
                std::thread::scope(|scope| {
                    for ops in &per_writer {
                        let ds = &ds;
                        scope.spawn(move || commit_batched(ds, ops));
                    }
                });
                ds.wal().expect("wal").force().expect("force");
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();

    // Achieved group size, printed once from a fresh concurrent run: the
    // tentpole's acceptance signal (`> 1` record per device append).
    let ds = open(n);
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let ds = &ds;
            scope.spawn(move || commit_batched(ds, &ops(n / 4, w + 1)));
        }
    });
    ds.wal().expect("wal").force().expect("force");
    let snap = ds.stats().snapshot();
    println!(
        "group_commit/achieved_group_size: {:.1} records/append ({} groups for {} records)",
        snap.wal_grouped_records as f64 / snap.wal_groups.max(1) as f64,
        snap.wal_groups,
        snap.wal_grouped_records,
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    targets = bench_group_commit
);
criterion_main!(benches);
