//! Every figure of `lsm_bench::figures` with a simulated-time cell, run
//! once, equals its committed table in `crates/bench/golden/`: the
//! simulated clock makes every sim-time cell a function of the workload,
//! and wall-clock cells are written as `-`. A mismatch names only the
//! lines that moved.

use lsm_bench::{figures, golden};

#[test]
fn every_figure_at_scale_0_01_matches_its_golden_file() {
    golden::check("figures-0.01.tsv", &figures::tsv(0.01));
}

/// Every figure at full scale; run it optimized (`--release`), as CI's
/// bench-smoke job does.
#[test]
#[ignore = "runs every figure at full scale; run it optimized"]
fn every_figure_at_full_scale_matches_its_golden_file() {
    golden::check("figures-1.tsv", &figures::tsv(1.0));
}
