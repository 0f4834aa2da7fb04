//! Ablation studies for design choices the paper fixes without sweeping,
//! on the paper's tiering merge policy (§6.1):
//!
//! 1. **Bloom filters** — point-lookup cost with standard and blocked
//!    Bloom filters on the primary/pk components.
//! 2. **Query-driven repair** (our §7 future-work extension) — repeated
//!    query cost on an update-heavy dataset with and without it.

use lsm_bench::{apply, row, scaled, table_header, Env, EnvConfig, Timer};
use lsm_bloom::BloomKind;
use lsm_engine::query::ValidationMethod;
use lsm_engine::{Dataset, StrategyKind};
use lsm_tree::{MergePolicy, TieringPolicy};
use lsm_workload::{SelectivityQueries, TweetConfig, UpdateDistribution, UpsertWorkload};
use std::sync::Arc;

fn build(n: usize, bloom: BloomKind, policy: &dyn MergePolicy) -> Arc<Dataset> {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ..Default::default()
    });
    let mut cfg = lsm_bench::tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    cfg.bloom_kind = bloom;
    // Disable the built-in merge pipeline (an unreachable trigger ratio);
    // merges are driven explicitly with the given policy.
    cfg.merge.max_mergeable_bytes = u64::MAX;
    cfg.merge.size_ratio = f64::INFINITY;
    let ds = lsm_bench::open_tweet_dataset(&env, cfg);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.1, UpdateDistribution::Uniform);
    for i in 0..n {
        apply(&ds, &workload.next_op());
        if i % 512 == 0 {
            while ds.primary().maybe_merge(policy).expect("merge") {}
            if let Some(pk) = ds.pk_index() {
                while pk.maybe_merge(policy).expect("merge") {}
            }
            let sec = &ds.secondaries()[0].tree;
            while sec.maybe_merge(policy).expect("merge") {}
        }
    }
    ds.flush_all().expect("flush");
    ds
}

fn point_query_time(ds: &Dataset) -> f64 {
    let mut q = SelectivityQueries::new(17);
    let reps = 5;
    let timer = Timer::start(ds.storage().clock());
    for _ in 0..reps {
        let (lo, hi) = q.user_id_range(0.0005);
        let res = ds
            .query("user_id")
            .range(lo, hi)
            .validation(ValidationMethod::Timestamp)
            .execute()
            .expect("query");
        std::hint::black_box(res.len());
    }
    timer.elapsed().0 / reps as f64
}

fn main() {
    let n = scaled(40_000);

    // ---- 1: bloom filters ---------------------------------------------------
    table_header(
        "Ablation 1",
        &format!("bloom filter variant ({n} upserts; 0.05% point queries)"),
        &["bloom", "query_sim_s", "bloom_negatives_per_query"],
    );
    let tiering = TieringPolicy::new(u64::MAX);
    for (label, kind) in [
        ("standard", BloomKind::Standard),
        ("blocked", BloomKind::Blocked),
    ] {
        let ds = build(n, kind, &tiering);
        let neg0 = ds.storage().stats().bloom_negatives;
        let q = point_query_time(&ds);
        let negs = (ds.storage().stats().bloom_negatives - neg0) as f64 / 5.0;
        row(label, &[q, negs]);
    }

    // ---- 2: query-driven repair ------------------------------------------------
    table_header(
        "Ablation 2",
        "query-driven repair: same query repeated on an update-heavy dataset",
        &["variant", "run1_sim_ms", "run2_sim_ms", "run3_sim_ms"],
    );
    for (label, qdr) in [("off", false), ("on", true)] {
        let tiering = TieringPolicy::new(u64::MAX);
        let ds = build(n, BloomKind::Standard, &tiering);
        let mut q = SelectivityQueries::new(23);
        let (lo, hi) = q.user_id_range(0.05);
        let mut runs = Vec::new();
        for _ in 0..3 {
            let timer = Timer::start(ds.storage().clock());
            // Index-only isolates the validation cost that query-driven
            // repair amortizes (record fetches would dominate otherwise).
            let res = ds
                .query("user_id")
                .range(lo, hi)
                .index_only()
                .query_driven_repair(qdr)
                .execute()
                .expect("query");
            std::hint::black_box(res.len());
            runs.push(timer.elapsed().0 * 1e3); // milliseconds
        }
        row(label, &runs);
    }
}
