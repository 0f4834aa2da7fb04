//! Figure 12: effectiveness of the point-lookup optimizations (Section 6.2).
//!
//! Dataset: insert-only tweets (no updates), secondary index on `user_id`.
//! Variants are enabled cumulatively, as in the paper:
//! `naive` → `batch` → `batch/sLookup` → `batch/sLookup/bBF` → `+pID`.
//!
//! Expected shapes (paper):
//! * 12a (low selectivity): batching helps a little; everything else is
//!   noise — the time is dominated by the random reads themselves;
//! * 12b (high selectivity): naive lookup time explodes (random I/O across
//!   components); batching is the big win; sLookup/bBF shave CPU at high
//!   selectivity; a full scan wins beyond ~10-20%; pID gives little benefit;
//! * 12c: small batches already optimal for selective queries, a few MB
//!   suffice for non-selective ones;
//! * 12d: batching + re-sorting still beats no batching.

use lsm_bench::{
    open_tweet_dataset, pk_of, row, scaled, table_header, tweet_dataset_config, Env, EnvConfig,
    Timer,
};
use lsm_bloom::BloomKind;
use lsm_engine::query::QueryOptions;
use lsm_engine::{Dataset, StrategyKind};
use lsm_workload::{SelectivityQueries, TweetConfig, TweetGenerator};
use std::sync::Arc;

struct Setup {
    ds: Arc<Dataset>,
    #[allow(dead_code)]
    env: Env,
}

fn build_dataset(n: usize, bloom: BloomKind) -> Setup {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ..Default::default()
    });
    let mut cfg = tweet_dataset_config(StrategyKind::Eager, dataset_bytes, 1);
    cfg.bloom_kind = bloom;
    let ds = open_tweet_dataset(&env, cfg);
    let mut gen = TweetGenerator::new(TweetConfig::default());
    for _ in 0..n {
        ds.insert(&gen.next_new()).expect("insert");
    }
    ds.flush_all().expect("flush");
    Setup { ds, env }
}

/// Pre-generates `k` distinct ranges per selectivity so every variant runs
/// the same queries (the paper repeats queries with different predicates
/// until times stabilize).
fn ranges_for(sel: f64, k: usize) -> Vec<(i64, i64)> {
    let mut q = SelectivityQueries::new((sel * 1e7) as u64);
    (0..k).map(|_| q.user_id_range(sel)).collect()
}

/// Average simulated seconds over the given ranges.
fn run_query(ds: &Dataset, ranges: &[(i64, i64)], opts: &QueryOptions) -> f64 {
    let timer = Timer::start(ds.storage().clock());
    for (lo, hi) in ranges {
        // Seed every knob from the swept variant; the dataset is Eager, so
        // the default-resolved validation would be None anyway.
        let res = ds
            .query("user_id")
            .range(*lo, *hi)
            .with_options(*opts)
            .execute()
            .expect("query");
        std::hint::black_box(res.len());
    }
    let (sim, _) = timer.elapsed();
    sim / ranges.len() as f64
}

fn variants() -> Vec<(&'static str, bool, QueryOptions)> {
    // (label, needs_blocked_bloom_dataset, options)
    vec![
        ("naive", false, QueryOptions::naive()),
        (
            "batch",
            false,
            QueryOptions {
                batched: true,
                stateful: false,
                ..Default::default()
            },
        ),
        (
            "batch/sLookup",
            false,
            QueryOptions {
                batched: true,
                stateful: true,
                ..Default::default()
            },
        ),
        (
            "batch/sLookup/bBF",
            true,
            QueryOptions {
                batched: true,
                stateful: true,
                ..Default::default()
            },
        ),
        (
            "batch/sLookup/bBF/pID",
            true,
            QueryOptions {
                batched: true,
                stateful: true,
                propagate_component_ids: true,
                ..Default::default()
            },
        ),
    ]
}

fn main() {
    let n = scaled(100_000);
    let standard = build_dataset(n, BloomKind::Standard);
    let blocked = build_dataset(n, BloomKind::Blocked);
    let reps = 3;

    // ---- 12a: low selectivities ----------------------------------------
    let low = [0.00001, 0.00002, 0.00005, 0.0001, 0.00025];
    let low_ranges: Vec<_> = low.iter().map(|s| ranges_for(*s, reps)).collect();
    table_header(
        "Figure 12a",
        "low query selectivities (query sim-seconds)",
        &["variant", "0.001%", "0.002%", "0.005%", "0.01%", "0.025%"],
    );
    for (label, needs_blocked, opts) in variants() {
        let ds = if needs_blocked {
            &blocked.ds
        } else {
            &standard.ds
        };
        let times: Vec<f64> = low_ranges.iter().map(|r| run_query(ds, r, &opts)).collect();
        row(label, &times);
    }

    // ---- 12b: high selectivities + scan baseline -------------------------
    let high = [0.001, 0.01, 0.1, 0.2, 0.5];
    let high_ranges: Vec<_> = high.iter().map(|s| ranges_for(*s, reps)).collect();
    table_header(
        "Figure 12b",
        "high query selectivities (query sim-seconds)",
        &["variant", "0.1%", "1%", "10%", "20%", "50%"],
    );
    {
        // Full-scan baseline: flat across selectivities.
        standard.ds.storage().clear_cache();
        let timer = Timer::start(standard.ds.storage().clock());
        let report = standard.ds.filter_scan().count().expect("scan");
        let (scan_time, _) = timer.elapsed();
        std::hint::black_box(report.matches);
        row("scan", &vec![scan_time; high.len()]);
    }
    for (label, needs_blocked, opts) in variants() {
        let ds = if needs_blocked {
            &blocked.ds
        } else {
            &standard.ds
        };
        let times: Vec<f64> = high_ranges
            .iter()
            .map(|r| run_query(ds, r, &opts))
            .collect();
        row(label, &times);
    }

    // ---- 12c: batch memory sweep ------------------------------------------
    let batch_sizes: [(&str, usize); 4] = [
        ("128KB", 128 * 1024),
        ("1MB", 1024 * 1024),
        ("4MB", 4 * 1024 * 1024),
        ("16MB", 16 * 1024 * 1024),
    ];
    table_header(
        "Figure 12c",
        "impact of batch memory size (query sim-seconds)",
        &["selectivity", "128KB", "1MB", "4MB", "16MB"],
    );
    for sel in [0.0001, 0.001, 0.01, 0.1] {
        let ranges = ranges_for(sel, reps);
        let times: Vec<f64> = batch_sizes
            .iter()
            .map(|(_, bytes)| {
                run_query(
                    &blocked.ds,
                    &ranges,
                    &QueryOptions {
                        batched: true,
                        stateful: true,
                        batch_bytes: *bytes,
                        ..Default::default()
                    },
                )
            })
            .collect();
        row(&format!("{}%", sel * 100.0), &times);
    }

    // ---- 12d: batching + sorting vs no batching ----------------------------
    table_header(
        "Figure 12d",
        "impact of sorting (query sim-seconds)",
        &["selectivity", "no_batching", "batching", "batching+sorting"],
    );
    for sel in [0.00001, 0.0001, 0.001, 0.01, 0.1] {
        let ranges = ranges_for(sel, reps);
        let no_batch = run_query(&blocked.ds, &ranges, &QueryOptions::naive());
        let batch = run_query(
            &blocked.ds,
            &ranges,
            &QueryOptions {
                batched: true,
                stateful: true,
                ..Default::default()
            },
        );
        let batch_sort = run_query(
            &blocked.ds,
            &ranges,
            &QueryOptions {
                batched: true,
                stateful: true,
                sort_output: true,
                ..Default::default()
            },
        );
        row(&format!("{}%", sel * 100.0), &[no_batch, batch, batch_sort]);
    }

    // Keep the datasets alive to the end (env owns the sim clock).
    std::hint::black_box(pk_of(
        &TweetGenerator::new(TweetConfig::default()).next_new(),
    ));
}
