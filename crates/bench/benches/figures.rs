//! Prints the paper's figures (Section 6) and the ablations as
//! tab-separated tables, in the text of the golden files under
//! `crates/bench/golden/` (`lsm_bench::figures::Table`) with the measured
//! wall-clock seconds in place of their `-` cells:
//!
//! ```text
//! cargo bench -p lsm-bench --bench figures [-- NAME...]
//! ```
//!
//! A NAME is one of `lsm_bench::figures::FIGURES` (`fig12` … `fig23`,
//! `ablation`); no NAME prints every figure. Arguments that start with a
//! dash, such as cargo's `--bench`, are ignored. `LSM_BENCH_SCALE` scales
//! every workload (default 1.0; e.g. 0.05 for a quick smoke run, 4.0 for a
//! long run).

use lsm_bench::figures::FIGURES;

fn main() {
    let scale: f64 = std::env::var("LSM_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if let Some(unknown) = names.iter().find(|n| FIGURES.iter().all(|(f, _)| f != n)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!("unknown figure `{unknown}`; known: {}", known.join(", "));
        std::process::exit(2);
    }
    for (name, run) in FIGURES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            for table in run(scale) {
                table.print();
            }
        }
    }
}
