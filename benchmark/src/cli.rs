//! Command line: one run per workload, the traced/untraced cross-check and
//! the `--repeat` self-check.

use crate::run::{run, Options, Outcome};
use crate::spec::{benchmark_json, workload, Better, Workload, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};

const USAGE: &str =
    "usage: lsm-benchmark --workload <ingest_lazy|ingest_eager|query_read|mixed_rw|all>
       [--seed <n>] [--seconds <s>] [--trace <0|1|both>] [--repeat <k>] [--scale <f>]
       lsm-benchmark --emit-benchmark-json";

/// Which runs `--trace` asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    Off,
    On,
    /// Untraced then traced, with the proof that both measured one program.
    Both,
}

struct Args {
    workloads: Vec<Workload>,
    opts: Options,
    trace: TraceMode,
    repeat: usize,
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut workloads = Vec::new();
    let mut opts = Options::default();
    let mut trace = TraceMode::Off;
    let mut repeat = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-benchmark-json" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = WORKLOADS.to_vec(),
            "--workload" => workloads = vec![workload(value).ok_or_else(bad)?],
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--scale" => opts.scale = value.parse().map_err(|_| bad())?,
            "--repeat" => repeat = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    "both" => TraceMode::Both,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if opts.seconds == 0 || opts.scale <= 0.0 || !opts.scale.is_finite() || repeat == 0 {
        return Err("--seconds, --scale and --repeat must be positive".to_owned());
    }
    Ok(Some(Args {
        workloads,
        opts,
        trace,
        repeat,
    }))
}

fn print(outcome: &Outcome, opts: &Options) {
    let kind = if outcome.traced { "traced" } else { "untraced" };
    println!("== {} ({kind}, seed {}) ==", outcome.workload, opts.seed);
    for (def, value) in &outcome.metrics {
        println!("{:<40} {value:>18.6} {}", def.name, def.unit);
    }
    for (name, value, unit) in &outcome.info {
        println!("# {name:<38} {value:>18.6} {unit}");
    }
    if let Some(path) = &outcome.trace_file {
        println!("# spans written to {}", path.display());
    }
    for note in &outcome.notes {
        println!("# note: {note}");
    }
    println!("{}", outcome.json());
}

/// Untraced, traced, and the proof that the trace measured the same
/// program: its ingest must cost the same simulated seconds and bytes.
fn run_both(w: Workload, opts: Options) -> lsm_common::Result<bool> {
    let plain = run(w, opts)?;
    print(&plain, &opts);
    let traced = run(
        w,
        Options {
            traced: true,
            ..opts
        },
    )?;
    let mut same = true;
    if w.clients == 1 {
        for (traced_name, plain_name) in [
            ("trace.ingest_sim_s", "ingest_sim_s"),
            ("trace.write_amp", "write_amp"),
            ("core.flushes", "flushes"),
            ("core.merges", "merges"),
        ] {
            let a = traced.metric(traced_name);
            let b = plain
                .metric(plain_name)
                .or_else(|| info(&plain, plain_name));
            if a.map(f64::to_bits) != b.map(f64::to_bits) {
                println!("# traced {traced_name} = {a:?} but untraced {plain_name} = {b:?}");
                same = false;
            }
        }
        println!("# traced run reproduces the untraced ingest exactly: {same}");
    }
    if let (Some(a), Some(b)) = (
        info(&traced, "wall.ingest.quiet_s"),
        info(&plain, "wall.ingest.quiet_s"),
    ) {
        println!("# trace_overhead_share_measured {:.4} ratio", a / b - 1.0);
    }
    print(&traced, &opts);
    Ok(same)
}

fn info(outcome: &Outcome, name: &str) -> Option<f64> {
    outcome
        .info
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, v, _)| *v)
}

/// `--repeat k`: one seed, `k` runs. Cost metrics of the single-client
/// workloads must be bit-identical; every other metric's spread is printed
/// and must stay inside its bound.
fn run_repeated(w: Workload, opts: Options, repeat: usize) -> lsm_common::Result<bool> {
    let mut outcomes = Vec::with_capacity(repeat);
    for i in 0..repeat {
        let outcome = run(w, opts)?;
        println!("# run {} of {repeat}: {}", i + 1, outcome.json());
        outcomes.push(outcome);
    }
    println!("== {} x{repeat} (seed {}) ==", w.name, opts.seed);
    let mut ok = outcomes.iter().all(Outcome::correct);
    for def in &END_TO_END {
        let values: Vec<f64> = outcomes
            .iter()
            .map(|o| o.metric(def.name).expect("every run reports every metric"))
            .collect();
        if def.exact && w.clients == 1 {
            let identical = values.iter().all(|v| v.to_bits() == values[0].to_bits());
            println!(
                "{:<22} {:>18.6} {:<8} identical: {identical}",
                def.name, values[0], def.unit
            );
            ok &= identical;
            continue;
        }
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        let mid = median(&values);
        // Quartiles need a handful of runs; below that, judge the range.
        let spread = if repeat >= 4 {
            iqr_share(&values)
        } else {
            (max - min) / mid
        };
        let bound = def.bound.expect("end-to-end metrics have a bound");
        // The acceptance check leaves the spread of setup_s alone.
        let within = spread <= bound || def.name == "setup_s";
        let worst = match def.better {
            Better::Lower => max,
            Better::Higher => min,
        };
        println!(
            "{:<22} {mid:>18.6} {:<8} min {min:.6} max {max:.6} worst {worst:.6} spread {spread:.4} bound {bound} within: {within}",
            def.name, def.unit
        );
        ok &= within;
    }
    Ok(ok)
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let args = match parse(args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", benchmark_json());
            return 0;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };
    let mut ok = true;
    for w in &args.workloads {
        let result = if args.repeat > 1 {
            run_repeated(*w, args.opts, args.repeat)
        } else if args.trace == TraceMode::Both {
            run_both(*w, args.opts)
        } else {
            let opts = Options {
                traced: args.trace == TraceMode::On,
                ..args.opts
            };
            run(*w, opts).map(|outcome| {
                print(&outcome, &opts);
                true
            })
        };
        match result {
            Ok(passed) => ok &= passed,
            Err(e) => {
                eprintln!("{}: engine error: {e}", w.name);
                return 1;
            }
        }
    }
    i32::from(!ok)
}
