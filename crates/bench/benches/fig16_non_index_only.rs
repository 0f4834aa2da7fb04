//! Figure 16: non-index-only secondary-index query performance
//! (Section 6.4.1).
//!
//! Datasets are prepared by upserting with actual update ratio 0% or 50%;
//! queries sweep selectivity 0.001%–1% and fetch full records.
//!
//! Expected shape (paper): with no updates, Direct validation ≈ Eager and
//! Timestamp validation pays a small extra validation cost. With 50%
//! updates and no repair, Direct wastes I/O fetching obsolete keys at low
//! selectivity; Timestamp validation filters them via the pk index; with
//! merge repair both validation methods approach Eager.

use lsm_bench::{row, scaled, table_header, Env, EnvConfig, Timer};
use lsm_engine::query::ValidationMethod;
use lsm_engine::{Dataset, StrategyKind};
use lsm_workload::{SelectivityQueries, UpdateDistribution};
use std::sync::Arc;

const SELECTIVITIES: [f64; 5] = [0.00001, 0.00005, 0.0001, 0.001, 0.01];
const LABELS: [&str; 5] = ["0.001%", "0.005%", "0.01%", "0.1%", "1%"];

pub fn query_times(ds: &Dataset, validation: ValidationMethod, index_only: bool) -> Vec<f64> {
    SELECTIVITIES
        .iter()
        .map(|sel| {
            let mut q = SelectivityQueries::new((sel * 1e7) as u64);
            let reps = 3;
            let timer = Timer::start(ds.storage().clock());
            for _ in 0..reps {
                let (lo, hi) = q.user_id_range(*sel);
                let mut query = ds.query("user_id").range(lo, hi).validation(validation);
                if index_only {
                    query = query.index_only();
                }
                let res = query.execute().expect("query");
                std::hint::black_box(res.len());
            }
            timer.elapsed().0 / reps as f64
        })
        .collect()
}

fn prepare(
    strategy: StrategyKind,
    update_ratio: f64,
    n: usize,
    repair: bool,
) -> (Env, Arc<Dataset>) {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ..Default::default()
    });
    let mut c = lsm_bench::tweet_dataset_config(strategy, dataset_bytes, 1);
    c.merge_repair = repair;
    let ds = lsm_bench::open_tweet_dataset(&env, c);
    let mut workload = lsm_workload::UpsertWorkload::new(
        lsm_workload::TweetConfig::default(),
        update_ratio,
        UpdateDistribution::Uniform,
    );
    for _ in 0..n {
        lsm_bench::apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");
    (env, ds)
}

fn main() {
    let n = scaled(80_000);
    for update_ratio in [0.0, 0.5] {
        table_header(
            "Figure 16",
            &format!(
                "non-index-only query sim-seconds, update ratio {:.0}% ({n} ops)",
                update_ratio * 100.0
            ),
            &[
                "variant", LABELS[0], LABELS[1], LABELS[2], LABELS[3], LABELS[4],
            ],
        );
        let (_e1, eager) = prepare(StrategyKind::Eager, update_ratio, n, false);
        row("eager", &query_times(&eager, ValidationMethod::None, false));
        drop(eager);
        let (_e2, no_repair) = prepare(StrategyKind::Validation, update_ratio, n, false);
        row(
            "direct (no repair)",
            &query_times(&no_repair, ValidationMethod::Direct, false),
        );
        row(
            "ts (no repair)",
            &query_times(&no_repair, ValidationMethod::Timestamp, false),
        );
        drop(no_repair);
        let (_e3, repaired) = prepare(StrategyKind::Validation, update_ratio, n, true);
        row(
            "direct",
            &query_times(&repaired, ValidationMethod::Direct, false),
        );
        row(
            "ts",
            &query_times(&repaired, ValidationMethod::Timestamp, false),
        );
    }
}
