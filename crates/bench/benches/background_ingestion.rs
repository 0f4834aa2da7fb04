//! Figure 13-style variant: upsert ingestion with maintenance inline on
//! the writer thread vs. on the background scheduler's worker pool.
//!
//! The paper's §5.3 machinery lets writers proceed while components are
//! rebuilt; this bench measures what that buys: with inline maintenance
//! every N-th upsert absorbs a full flush+merge, while on a maintenance
//! runtime the writer only enqueues work and stalls at the hard memory
//! ceiling.
//!
//! Reported per variant: cumulative wall-clock seconds at 25/50/75/100% of
//! the workload, wall seconds for the trailing quiesce (draining the queue
//! — zero inline), and writer-side throughput. A two-worker runtime is the
//! default configuration here; inline is the baseline it is compared
//! against.

use lsm_bench::{
    row, run_shared_runtime_scenario, scaled, table_header, tweet_dataset_config, Env, EnvConfig,
};
use lsm_engine::{Dataset, EngineConfig, MaintenanceRuntime, StrategyKind};
use lsm_workload::{TweetConfig, UpdateDistribution, UpsertWorkload};
use std::sync::Arc;

/// Opens the dataset inline for `workers == 0`, else on a runtime of its
/// own with that many workers.
fn open(env: &Env, workers: usize, dataset_bytes: u64) -> Arc<Dataset> {
    let cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    let (storage, log) = (env.storage.clone(), Some(env.log_storage.clone()));
    if workers == 0 {
        return Dataset::open(storage, log, cfg).expect("dataset");
    }
    let rt = MaintenanceRuntime::start(EngineConfig::fixed(workers)).expect("runtime");
    Dataset::open_with_runtime(storage, log, cfg, &rt).expect("dataset")
}

fn run(workers: usize, n: usize) -> (Vec<f64>, f64, f64) {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ssd: true,
        ..Default::default()
    });
    let ds = open(&env, workers, dataset_bytes);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    let start = std::time::Instant::now();
    let mut series = Vec::new();
    for i in 0..n {
        let op = workload.next_op();
        lsm_bench::apply(&ds, &op);
        if (i + 1) % (n / 4).max(1) == 0 {
            series.push(start.elapsed().as_secs_f64());
        }
    }
    let ingest_wall = start.elapsed().as_secs_f64();
    let q = std::time::Instant::now();
    ds.maintenance().quiesce().expect("quiesce");
    let quiesce_wall = q.elapsed().as_secs_f64();
    let throughput = n as f64 / ingest_wall;
    (series, quiesce_wall, throughput)
}

fn main() {
    let n = scaled(60_000);
    table_header(
        "Figure 13 (background variant)",
        &format!("upsert ingestion, inline vs background maintenance ({n} ops)"),
        &["variant", "25%", "50%", "75%", "100%", "quiesce", "ops/s"],
    );
    for (label, workers) in [
        ("background-2w (default)", 2),
        ("background-1w", 1),
        ("background-4w", 4),
        ("inline", 0),
    ] {
        let (series, quiesce, throughput) = run(workers, n);
        let mut values = series;
        values.push(quiesce);
        values.push(throughput);
        row(label, &values);
    }

    // Maintenance-heavy: 8 small datasets, inline vs one shared runtime
    // (the per-dataset-pool design would run 16+ threads here; the shared
    // runtime runs 4).
    let datasets = 8;
    let n_per = scaled(40_000) / datasets;
    table_header(
        "Shared maintenance runtime",
        &format!("{datasets} datasets × {n_per} upserts each"),
        &["variant", "aggregate ops/s", "quiesce"],
    );
    let r = run_shared_runtime_scenario(None, datasets, n_per);
    row("multi-inline", &[r.ingest_ops_per_sec, r.quiesce_wall_secs]);
    let rt = MaintenanceRuntime::start(EngineConfig::fixed(4)).expect("runtime");
    let r = run_shared_runtime_scenario(Some(&rt), datasets, n_per);
    row(
        "multi-shared-4w",
        &[r.ingest_ops_per_sec, r.quiesce_wall_secs],
    );
}
