//! Figure 19: query performance of range filters (Section 6.4.2).
//!
//! The dataset's `creation_time` is monotonically increasing, so components
//! are time-correlated and carry tight range filters. Queries select the
//! most recent or the oldest `d` days of a ~2-year span.
//!
//! Expected shape (paper): for recent-data queries all strategies prune
//! well (Mutable-bitmap slightly best: no reconciliation). For old-data
//! queries the Validation strategy loses all pruning (every newer component
//! must be read); Eager prunes only in the append-only case (updates widen
//! its filters); Mutable-bitmap prunes effectively in every setting.

use lsm_bench::{
    old_time_range, recent_time_range, row, scaled, table_header, Env, EnvConfig, Timer,
};
use lsm_engine::{Dataset, StrategyKind};
use lsm_workload::UpdateDistribution;
use std::sync::Arc;

const DAYS: [i64; 5] = [1, 7, 30, 180, 365];
const TOTAL_DAYS: i64 = 730;

fn prepare(strategy: StrategyKind, update_ratio: f64, n: usize) -> (Env, Arc<Dataset>, i64) {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ..Default::default()
    });
    let cfg = lsm_bench::tweet_dataset_config(strategy, dataset_bytes, 1);
    let ds = lsm_bench::open_tweet_dataset(&env, cfg);
    let mut workload = lsm_workload::UpsertWorkload::new(
        lsm_workload::TweetConfig::default(),
        update_ratio,
        UpdateDistribution::Uniform,
    );
    for _ in 0..n {
        lsm_bench::apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");
    let max_time = workload.generator().time_watermark();
    (env, ds, max_time)
}

fn times(ds: &Dataset, max_time: i64, recent: bool) -> Vec<f64> {
    DAYS.iter()
        .map(|d| {
            let (lo, hi) = if recent {
                recent_time_range(max_time, *d, TOTAL_DAYS)
            } else {
                old_time_range(max_time, *d, TOTAL_DAYS)
            };
            // The paper measures with a clean cache (5 runs averaged).
            let reps = 2;
            let mut total = 0.0;
            for _ in 0..reps {
                ds.storage().clear_cache();
                let timer = Timer::start(ds.storage().clock());
                let mut scan = ds.filter_scan();
                if let Some(lo) = lo.clone() {
                    scan = scan.range_from(lo);
                }
                if let Some(hi) = hi.clone() {
                    scan = scan.range_to(hi);
                }
                let r = scan.count().expect("scan");
                total += timer.elapsed().0;
                std::hint::black_box(r.matches);
            }
            total / reps as f64
        })
        .collect()
}

fn main() {
    let n = scaled(80_000);
    let configs: [(&str, f64, bool); 3] = [
        ("recent + 50% updates", 0.5, true),
        ("old + 0% updates", 0.0, false),
        ("old + 50% updates", 0.5, false),
    ];
    for (cname, ratio, recent) in configs {
        table_header(
            "Figure 19",
            &format!("range-filter scan sim-seconds, {cname} ({n} ops)"),
            &["strategy", "1d", "7d", "30d", "180d", "365d"],
        );
        for (label, strategy) in [
            ("eager", StrategyKind::Eager),
            ("validation", StrategyKind::Validation),
            ("mutable-bitmap", StrategyKind::MutableBitmap),
        ] {
            let (_env, ds, max_time) = prepare(strategy, ratio, n);
            row(label, &times(&ds, max_time, recent));
        }
    }
}
