//! One run of one workload: set-up, episodes, metrics.

use crate::episode::{run_episode, Costs, Tally, Walls};
use crate::host::HostProbe;
use crate::plan::Inputs;
use crate::replay::replay;
use crate::spec::{MetricDef, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::median;
use crate::trace::{count_allocations, Tracer};
use lsm_common::Result;
use lsm_engine::{EngineConfig, MaintenanceRuntime};
use lsm_storage::SimClock;
use std::path::PathBuf;
use std::time::Instant;

/// Episodes of a traced run: two, so every unit still has a repetition.
const TRACED_EPISODES: usize = 2;
/// Seconds the host probe runs before and after the timed part.
const PROBE_SECS: f64 = 0.5;
/// Per-layer values that do not exist with one client (no runtime).
const TWO_CLIENT_ONLY: [&str; 5] = [
    "core.quiesce_s",
    "core.queue_depth_max",
    "core.racing_get_ops_per_s",
    "core.racing_q_large_rows_per_s",
    "core.racing_scan_rows_per_s",
];
/// Per-layer values that need the benchmark to drive flush and merge
/// itself, which it cannot do beside a background runtime.
const ONE_CLIENT_ONLY: [&str; 7] = [
    "core.upsert_sim_p9999_ms",
    "core.flush_busy_share",
    "core.merge_busy_share",
    "core.upsert_sim_s",
    "core.flush_sim_s",
    "core.merge_sim_s",
    "lsm.merge_written_share",
];

/// How to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of every input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Multiplier on every count (1 = the frozen sizes).
    pub scale: f64,
    /// Record spans, count allocations, replay the layers.
    pub traced: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 1,
            seconds: RUN_SECONDS,
            scale: 1.0,
            traced: false,
        }
    }
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<(MetricDef, f64)>,
    /// Values printed for the reader but not part of the contract.
    pub info: Vec<(String, f64, &'static str)>,
    /// Flags such as `noisy_host` or `non-comparable`.
    pub notes: Vec<String>,
    /// Checked operations.
    pub tally: Tally,
    /// Where the spans went (traced runs).
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// Looks a reported metric up.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(def, _)| def.name == name)
            .map(|(_, v)| *v)
    }

    /// True if every operation succeeded and every value is finite.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn median_of(episodes: &[Costs], name: &str) -> Option<f64> {
    let values: Vec<f64> = episodes
        .iter()
        .filter_map(|c| c.get(name).copied())
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Wall cost of one span (enter + exit on both clocks), by timing many.
fn span_cost_secs() -> f64 {
    const N: usize = 200_000;
    let clock = SimClock::new();
    let mut t = Tracer::new(Instant::now());
    t.begin_episode(0, &clock);
    let start = Instant::now();
    for _ in 0..N {
        t.span("calibrate", || ());
    }
    start.elapsed().as_secs_f64() / N as f64
}

/// Runs `workload` once.
pub fn run(workload: Workload, opts: Options) -> Result<Outcome> {
    let w = workload.scaled(opts.scale);
    let t0 = Instant::now();
    let inputs = Inputs::build(w, opts.seed);
    let mut probe = HostProbe::default();
    let ref_before = probe.measure(PROBE_SECS);
    let runtime = if w.clients > 1 {
        // One shared runtime with a single permanent worker: two clients
        // and the worker already exceed the two cores.
        let cfg = EngineConfig::builder()
            .min_workers(1)
            .max_workers(1)
            .build()?;
        Some(MaintenanceRuntime::start(cfg)?)
    } else {
        None
    };
    let episodes = if opts.traced {
        TRACED_EPISODES
    } else {
        w.episodes(opts.seconds)
    };
    let mut tracer = opts.traced.then(|| Tracer::new(t0));
    let mut walls = Walls::new();
    let mut costs: Vec<Costs> = Vec::new();
    let mut tally = Tally::default();
    let mut episode_setup = Vec::new();
    let mut timed_secs = 0.0;
    count_allocations(opts.traced);
    for episode in 0..episodes {
        let out = run_episode(
            &inputs,
            episode,
            runtime.as_ref(),
            &mut walls,
            tracer.as_mut(),
        )?;
        tally.add(out.tally);
        episode_setup.push(out.setup_secs);
        timed_secs += out.timed_secs;
        costs.push(out.costs);
    }
    count_allocations(false);
    let ref_after = probe.measure(PROBE_SECS);

    let mut notes = Vec::new();
    if (opts.scale - 1.0).abs() > f64::EPSILON {
        notes.push(format!("non-comparable: scale {}", opts.scale));
    }
    if (ref_after - ref_before).abs() > 0.1 * ref_before.min(ref_after) {
        notes.push("noisy_host".to_owned());
    }
    // One client, inline maintenance: an episode is a deterministic
    // program, so its cost metrics must repeat to the bit.
    if w.clients == 1 {
        let exact = END_TO_END.iter().filter(|m| m.exact).map(|m| m.name);
        for name in exact.chain(["core.flushes", "core.merges"]) {
            let first = costs[0][name];
            if costs.iter().any(|c| c[name].to_bits() != first.to_bits()) {
                tally.failed += 1;
                notes.push(format!("nondeterministic: {name} differs between episodes"));
            }
        }
    }

    let setup_s = inputs.setup_secs + median(&episode_setup);
    let mut info = vec![
        ("episodes".to_owned(), episodes as f64, "count"),
        ("timed_wall_s".to_owned(), timed_secs, "s"),
        ("run_wall_s".to_owned(), t0.elapsed().as_secs_f64(), "s"),
        ("host.ref_ms_before".to_owned(), ref_before, "ms"),
        ("host.ref_ms_after".to_owned(), ref_after, "ms"),
    ];
    for (class, reps) in &walls {
        info.push((format!("wall.{class}.quiet_s"), reps.quiet_secs(), "s"));
        info.push((
            format!("wall.{class}.quiet_share"),
            reps.quiet_secs() * episodes as f64 / reps.spent_secs(),
            "ratio",
        ));
    }

    let mut trace_file = None;
    let metrics = if let Some(tracer) = &mut tracer {
        let mut layer = replay(&inputs, tracer)?;
        let off_clients: &[&str] = if w.clients > 1 {
            &ONE_CLIENT_ONLY
        } else {
            &TWO_CLIENT_ONLY
        };
        for name in off_clients {
            layer.insert(name, 0.0);
        }
        for (name, class) in [
            ("core.racing_get_ops_per_s", "racing.get"),
            ("core.racing_q_large_rows_per_s", "racing.q_large"),
            ("core.racing_scan_rows_per_s", "racing.scan"),
        ] {
            if let Some(reps) = walls.get(class) {
                layer.insert(name, reps.rate());
            }
        }
        layer.insert("core.repair_wall_s", walls["repair"].quiet_secs());
        layer.insert(
            "core.checkpoint_wall_ms",
            walls["checkpoint"].quiet_secs() * 1e3,
        );
        layer.insert("core.recover_wall_s", walls["recover"].quiet_secs());
        layer.insert("trace.ingest_sim_s", costs[0]["ingest_sim_s"]);
        layer.insert("trace.write_amp", costs[0]["write_amp"]);
        layer.insert(
            "trace.overhead_share",
            tracer.spans().len() as f64 * span_cost_secs() / timed_secs,
        );
        layer.insert("host.ref_ms_before", ref_before);
        layer.insert("host.ref_ms_after", ref_after);
        let path = PathBuf::from(format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-{}.json"),
            w.name
        ));
        match tracer.write_json(&path, w.name) {
            Ok(()) => trace_file = Some(path),
            Err(e) => notes.push(format!("trace not written: {e}")),
        }
        for (name, totals) in tracer.summary() {
            info.push((
                format!("span.{name}.self_ms"),
                totals.self_ns as f64 / 1e6,
                "ms",
            ));
        }
        PER_LAYER
            .iter()
            .map(|def| {
                let v = layer
                    .get(def.name)
                    .copied()
                    .or_else(|| median_of(&costs, def.name))
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name));
                (*def, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|def| {
                let v = match def.name {
                    "setup_s" => setup_s,
                    "ingest_ops_per_s" => walls["ingest"].rate(),
                    "get_ops_per_s" => walls["get"].rate(),
                    "q_large_rows_per_s" => walls["q_large"].rate(),
                    "scan_rows_per_s" => walls["scan"].rate(),
                    name => median_of(&costs, name)
                        .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured")),
                };
                (*def, v)
            })
            .collect()
    };
    if !opts.traced {
        info.push(("flushes".to_owned(), costs[0]["core.flushes"], "count"));
        info.push(("merges".to_owned(), costs[0]["core.merges"], "count"));
    }

    Ok(Outcome {
        workload: w.name,
        traced: opts.traced,
        metrics,
        info,
        notes,
        tally,
        trace_file,
    })
}
