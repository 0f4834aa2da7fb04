//! Compares two `BENCH_ingest.json` perf snapshots and fails (exit 1) on
//! regression: CI restores the previous run's snapshot from the actions
//! cache and gates the current one against it, so a perf cliff in any
//! tracked scenario blocks the merge instead of silently accumulating in
//! the artifact trail.
//!
//! ```sh
//! cargo run -p lsm-bench --release --bin perf_compare -- \
//!     baseline/BENCH_ingest.json BENCH_ingest.json
//! ```
//!
//! Tracked metrics (scenario rows are matched by their `mode` key; rows
//! missing from the baseline — new scenarios, schema upgrades — are
//! reported and skipped):
//!
//! | array        | metric                 | direction     |
//! |--------------|------------------------|---------------|
//! | `variants`   | `ingest_ops_per_sec`   | higher better |
//! | `variants`   | `point_lookup_us`      | lower better  |
//! | `variants`   | `lookup_allocs_per_op` | lower better  |
//! | `scan_heavy` | `index_bytes`          | lower better  |
//! | `scan_heavy` | serial rows per second | higher better |
//! | `index_only` | `bytes_read`           | lower better  |
//! | `index_only` | `rows_per_sec`         | higher better |
//!
//! A metric regresses when it is worse than the baseline by more than the
//! threshold (default 15%, override with `PERF_COMPARE_THRESHOLD`, e.g.
//! `0.15`). The parser handles exactly the JSON `perf_snapshot` emits — a
//! flat object of arrays of flat objects — with no external dependencies.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One scenario row: its array, its `mode` key, and its numeric fields.
#[derive(Debug, Default, Clone)]
struct Row {
    fields: BTreeMap<String, f64>,
}

/// Parses the snapshot's `"array": [ {..}, {..} ]` sections into
/// `(array name, mode) -> Row`. String fields other than `mode` are
/// ignored; numeric fields are collected.
fn parse(text: &str) -> BTreeMap<(String, String), Row> {
    let mut out = BTreeMap::new();
    let mut array: Option<String> = None;
    let mut row = Row::default();
    let mut mode: Option<String> = None;
    for raw in text.lines() {
        let line = raw.trim();
        if let Some(name) = line
            .strip_prefix('"')
            .and_then(|l| l.split_once('"'))
            .filter(|(_, rest)| rest.trim_end_matches(',').trim() == ": [")
            .map(|(name, _)| name)
        {
            array = Some(name.to_string());
        } else if line == "]" || line == "]," {
            array = None;
        } else if line == "{" {
            row = Row::default();
            mode = None;
        } else if (line == "}" || line == "},") && array.is_some() {
            if let (Some(a), Some(m)) = (&array, mode.take()) {
                out.insert((a.clone(), m), std::mem::take(&mut row));
            }
        } else if let Some((key, value)) = line.split_once(':') {
            let key = key.trim().trim_matches('"');
            let value = value.trim().trim_end_matches(',');
            if key == "mode" {
                mode = Some(value.trim_matches('"').to_string());
            } else if let Ok(v) = value.parse::<f64>() {
                row.fields.insert(key.to_string(), v);
            }
        }
    }
    out
}

/// Serial rows per second for a `scan_heavy` row, derived from its raw
/// fields (the snapshot records rows and wall seconds separately).
fn serial_scan_rows_per_sec(row: &Row) -> Option<f64> {
    let rows = row.fields.get("rows")?;
    let secs = row.fields.get("serial_wall_secs")?;
    Some(rows / secs.max(1e-9))
}

struct Check {
    array: &'static str,
    metric: &'static str,
    higher_is_better: bool,
    /// Derived metric; when set, `metric` is only a label.
    derive: Option<fn(&Row) -> Option<f64>>,
}

const CHECKS: &[Check] = &[
    Check {
        array: "variants",
        metric: "ingest_ops_per_sec",
        higher_is_better: true,
        derive: None,
    },
    Check {
        array: "variants",
        metric: "point_lookup_us",
        higher_is_better: false,
        derive: None,
    },
    Check {
        array: "variants",
        metric: "lookup_allocs_per_op",
        higher_is_better: false,
        derive: None,
    },
    Check {
        array: "scan_heavy",
        metric: "index_bytes",
        higher_is_better: false,
        derive: None,
    },
    Check {
        array: "scan_heavy",
        metric: "serial_rows_per_sec",
        higher_is_better: true,
        derive: Some(serial_scan_rows_per_sec),
    },
    Check {
        array: "index_only",
        metric: "bytes_read",
        higher_is_better: false,
        derive: None,
    },
    Check {
        array: "index_only",
        metric: "rows_per_sec",
        higher_is_better: true,
        derive: Some(|row| row.fields.get("rows_per_sec").copied()),
    },
];

fn value_of(row: &Row, check: &Check) -> Option<f64> {
    match check.derive {
        Some(f) => f(row),
        None => row.fields.get(check.metric).copied(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, current_path] = &args[..] else {
        eprintln!("usage: perf_compare <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let threshold: f64 = std::env::var("PERF_COMPARE_THRESHOLD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.15);

    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(t) => parse(&t),
        Err(e) => {
            // First run, or the cache expired: nothing to gate against.
            eprintln!("no baseline at {baseline_path} ({e}); skipping comparison");
            return ExitCode::SUCCESS;
        }
    };
    let current = parse(&std::fs::read_to_string(current_path).expect("current snapshot"));

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for check in CHECKS {
        for ((array, row_mode), cur_row) in &current {
            if array != check.array {
                continue;
            }
            let Some(cur) = value_of(cur_row, check) else {
                continue;
            };
            let key = (array.clone(), row_mode.clone());
            let Some(base) = baseline.get(&key).and_then(|r| value_of(r, check)) else {
                eprintln!(
                    "{array}/{row_mode} {}: no baseline value, skipping",
                    check.metric
                );
                continue;
            };
            compared += 1;
            // Relative change in the "worse" direction.
            let worse_by = if check.higher_is_better {
                (base - cur) / base.abs().max(1e-9)
            } else {
                (cur - base) / base.abs().max(1e-9)
            };
            let verdict = if worse_by > threshold {
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!(
                "{array}/{row_mode} {}: {base:.2} -> {cur:.2} ({:+.1}% worse) {verdict}",
                check.metric,
                worse_by * 100.0
            );
            if worse_by > threshold {
                regressions.push(format!(
                    "{array}/{row_mode} {}: {base:.2} -> {cur:.2}",
                    check.metric
                ));
            }
        }
    }

    if regressions.is_empty() {
        eprintln!(
            "perf_compare: {compared} metrics within {:.0}% of baseline",
            threshold * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf_compare: {} regression(s) beyond {:.0}%:",
            regressions.len(),
            threshold * 100.0
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        ExitCode::FAILURE
    }
}
