//! `torture` — sweep the fault-injection matrix and report failures with
//! one-line repro commands.
//!
//! ```text
//! torture                     # full sweep: strategy x maintenance x device x fault
//! torture --smoke             # CI subset, each case run twice to prove determinism
//! torture --seed 7 --fault crash-flush-install --strategy mutable-bitmap
//! torture --list              # print the selected cases without running them
//! ```

use lsm_torture::{
    full_sweep, parse_strategy, run_case, smoke_sweep, strategy_name, DeviceKind, FaultKind,
    TortureCase,
};

struct Cli {
    smoke: bool,
    list: bool,
    seed: u64,
    records: Option<usize>,
    strategy: Option<String>,
    maintenance: Option<String>,
    device: Option<String>,
    fault: Option<String>,
    failures_file: String,
}

const USAGE: &str = "\
torture: deterministic fault-injection sweep over the LSM engine

USAGE: torture [OPTIONS]

OPTIONS:
  --smoke               run the CI smoke subset; every case runs twice and
                        the two fault schedules must be byte-identical
  --list                print the selected cases without running them
  --seed <N>            workload seed (default 42)
  --records <N>         ingest operations per case (default 1200, smoke 300)
  --strategy <S>        eager | validation | mutable-bitmap | deleted-key-btree
  --maintenance <M>     inline | background
  --device <D>          hdd | ssd | nvme
  --fault <F>           crash-wal-append | crash-group-commit |
                        crash-flush-install | crash-merge-install |
                        crash-checkpoint | torn-wal-write |
                        short-wal-write | transient-flush | transient-read
  --failures-file <P>   where to write failing repro lines
                        (default torture-failures.txt, written only on failure)
  --help                this text
";

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        list: false,
        seed: 42,
        records: None,
        strategy: None,
        maintenance: None,
        device: None,
        fault: None,
        failures_file: "torture-failures.txt".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--list" => cli.list = true,
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--records" => {
                cli.records = Some(
                    value("--records")?
                        .parse()
                        .map_err(|e| format!("--records: {e}"))?,
                )
            }
            "--strategy" => cli.strategy = Some(value("--strategy")?),
            "--maintenance" => cli.maintenance = Some(value("--maintenance")?),
            "--device" => cli.device = Some(value("--device")?),
            "--fault" => cli.fault = Some(value("--fault")?),
            "--failures-file" => cli.failures_file = value("--failures-file")?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    Ok(cli)
}

fn select_cases(cli: &Cli) -> Result<Vec<TortureCase>, String> {
    let records = cli.records.unwrap_or(if cli.smoke { 300 } else { 1200 });
    let mut cases = if cli.smoke {
        smoke_sweep(cli.seed, records)
    } else {
        full_sweep(cli.seed, records)
    };
    if let Some(s) = &cli.strategy {
        let k = parse_strategy(s).ok_or_else(|| format!("unknown strategy {s}"))?;
        cases.retain(|c| c.strategy == k);
    }
    if let Some(m) = &cli.maintenance {
        let background = match m.as_str() {
            "inline" => false,
            "background" => true,
            other => return Err(format!("unknown maintenance mode {other}")),
        };
        cases.retain(|c| c.background == background);
    }
    if let Some(d) = &cli.device {
        let k = DeviceKind::parse(d).ok_or_else(|| format!("unknown device {d}"))?;
        cases.retain(|c| c.device == k);
    }
    if let Some(f) = &cli.fault {
        let k = FaultKind::parse(f).ok_or_else(|| format!("unknown fault {f}"))?;
        cases.retain(|c| c.fault == k);
    }
    if cases.is_empty() {
        return Err("the selected filters match no cases".to_string());
    }
    Ok(cases)
}

fn label(case: &TortureCase) -> String {
    format!(
        "{}/{}/{}/{}",
        strategy_name(case.strategy),
        if case.background {
            "background"
        } else {
            "inline"
        },
        case.device.name(),
        case.fault.name(),
    )
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("torture: {e}");
            std::process::exit(2);
        }
    };
    let cases = match select_cases(&cli) {
        Ok(cases) => cases,
        Err(e) => {
            eprintln!("torture: {e}");
            std::process::exit(2);
        }
    };
    if cli.list {
        for case in &cases {
            println!("{}", case.repro());
        }
        return;
    }

    let mut failures: Vec<String> = Vec::new();
    for case in &cases {
        match run_case(case) {
            Ok(report) => {
                // Smoke mode proves determinism: the replay must produce a
                // byte-identical fault schedule. (Replay *counts* are only
                // compared for inline cases — with background workers, how
                // much had flushed before the crash is timing-dependent.)
                if cli.smoke {
                    match run_case(case) {
                        Ok(replay)
                            if replay.events == report.events
                                && (case.background || replay == report) => {}
                        Ok(replay) => {
                            println!("FAIL {} — nondeterministic replay", label(case));
                            failures.push(format!(
                                "{}  # first events {:?}, replay events {:?}",
                                case.repro(),
                                report.events,
                                replay.events
                            ));
                            continue;
                        }
                        Err(f) => {
                            println!("FAIL {} — replay failed: {}", label(case), f.message);
                            failures.push(format!("{}  # {}", f.repro, f.message));
                            continue;
                        }
                    }
                }
                println!(
                    "ok   {} ({} fault{}, {} replayed, {} live)",
                    label(case),
                    report.faults_injected,
                    if report.faults_injected == 1 { "" } else { "s" },
                    report.replayed,
                    report.live_records
                );
            }
            Err(f) => {
                println!("FAIL {} — {}", label(case), f.message);
                failures.push(format!("{}  # {}", f.repro, f.message));
            }
        }
    }

    if failures.is_empty() {
        println!("all {} cases passed", cases.len());
        return;
    }
    eprintln!("\n{} of {} cases FAILED:", failures.len(), cases.len());
    for line in &failures {
        eprintln!("  {line}");
    }
    if let Err(e) = std::fs::write(&cli.failures_file, failures.join("\n") + "\n") {
        eprintln!("torture: could not write {}: {e}", cli.failures_file);
    } else {
        eprintln!("repro lines written to {}", cli.failures_file);
    }
    std::process::exit(1);
}
