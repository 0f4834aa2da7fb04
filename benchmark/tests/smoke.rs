//! Smoke test at scale 0.02: the benchmark's own contract, checked in
//! seconds. Not a measurement — output at a scale other than 1 is stamped
//! non-comparable.

use lsm_benchmark::run::{run, Options};
use lsm_benchmark::spec::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::HashSet;

const SMOKE: Options = Options {
    seed: 7,
    seconds: 1,
    scale: 0.02,
    traced: false,
};

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn benchmark_json_is_the_spec_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with `lsm-benchmark --emit-benchmark-json > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn names_units_and_reasons_fit_the_contract() {
    let mut seen = HashSet::new();
    for w in &WORKLOADS {
        assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(!w.why.contains('"') && !w.why.contains('\\'), "{}", w.name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{} has unit {:?}", m.name, m.unit);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
}

/// Every workload emits every declared metric exactly once, finite, with
/// nothing failed; the traced ingest reproduces the untraced one.
#[test]
fn every_workload_reports_every_metric() {
    for w in WORKLOADS {
        let plain = run(w, SMOKE).expect("untraced run");
        assert_eq!(plain.tally.failed, 0, "{}: {:?}", w.name, plain.notes);
        assert!(plain.correct(), "{}", w.name);
        assert!(plain.notes.iter().any(|n| n.starts_with("non-comparable")));
        let names: Vec<&str> = plain.metrics.iter().map(|(d, _)| d.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared, "{}", w.name);
        for (def, value) in &plain.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {} = {value}",
                w.name,
                def.name
            );
        }
        let json = plain.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(!json.contains('\n'));

        let traced = run(
            w,
            Options {
                traced: true,
                ..SMOKE
            },
        )
        .expect("traced run");
        assert_eq!(traced.tally.failed, 0, "{}: {:?}", w.name, traced.notes);
        let names: Vec<&str> = traced.metrics.iter().map(|(d, _)| d.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, declared, "{}", w.name);
        for (def, value) in &traced.metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{} {} = {value}",
                w.name,
                def.name
            );
        }
        assert!(traced.trace_file.as_ref().is_some_and(|p| p.exists()));
        if w.clients == 1 {
            for (traced_name, plain_name) in [
                ("trace.ingest_sim_s", "ingest_sim_s"),
                ("trace.write_amp", "write_amp"),
            ] {
                assert_eq!(
                    traced.metric(traced_name).map(f64::to_bits),
                    plain.metric(plain_name).map(f64::to_bits),
                    "{}: the trace must measure the same program ({plain_name})",
                    w.name
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(lsm_benchmark::cli::main(&s(&[])), 2);
    assert_eq!(lsm_benchmark::cli::main(&s(&["--workload", "nope"])), 2);
    assert_eq!(
        lsm_benchmark::cli::main(&s(&["--workload", "all", "--trace", "2"])),
        2
    );
}
