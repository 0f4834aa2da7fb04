//! Figure 18: Timestamp validation under a small buffer cache
//! (Section 6.4.1).
//!
//! The paper shrinks the cache from 2GB to 512MB so the primary key index no
//! longer fits. Expected shape: the impact on Timestamp validation is
//! limited, because the pk index is far smaller than the primary index, so
//! validation adds only a small number of extra I/Os.

use lsm_bench::{row, scaled, table_header, Env, EnvConfig, Timer};
use lsm_engine::query::ValidationMethod;
use lsm_engine::{Dataset, StrategyKind};
use lsm_workload::{SelectivityQueries, UpdateDistribution};
use std::sync::Arc;

const SELECTIVITIES: [f64; 6] = [0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.01];

fn prepare(cache_fraction: f64, n: usize) -> (Env, Arc<Dataset>) {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        cache_fraction,
        ssd: false,
    });
    let cfg = lsm_bench::tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    let ds = lsm_bench::open_tweet_dataset(&env, cfg);
    let mut workload = lsm_workload::UpsertWorkload::new(
        lsm_workload::TweetConfig::default(),
        0.0, // the paper's figure 18 dataset has no updates
        UpdateDistribution::Uniform,
    );
    for _ in 0..n {
        lsm_bench::apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");
    (env, ds)
}

fn times(ds: &Dataset) -> Vec<f64> {
    SELECTIVITIES
        .iter()
        .map(|sel| {
            let mut q = SelectivityQueries::new((sel * 1e7) as u64);
            let reps = 3;
            let timer = Timer::start(ds.storage().clock());
            for _ in 0..reps {
                let (lo, hi) = q.user_id_range(*sel);
                let res = ds
                    .query("user_id")
                    .range(lo, hi)
                    .validation(ValidationMethod::Timestamp)
                    .execute()
                    .expect("query");
                std::hint::black_box(res.len());
            }
            timer.elapsed().0 / reps as f64
        })
        .collect()
}

fn main() {
    let n = scaled(80_000);
    table_header(
        "Figure 18",
        &format!("timestamp validation vs cache size ({n} records, no updates)"),
        &[
            "variant", "0.001%", "0.005%", "0.01%", "0.05%", "0.1%", "1%",
        ],
    );
    let (_e1, normal) = prepare(0.067, n); // the default 2GB-equivalent
    row("ts validation", &times(&normal));
    drop(normal);
    let (_e2, small) = prepare(0.017, n); // the 512MB-equivalent
    row("ts validation (small cache)", &times(&small));
}
