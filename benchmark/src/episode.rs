//! One episode: a fresh dataset taken through timed ingest, reads, repair
//! and a crash, every result checked against the plan.
//!
//! A run executes several identical episodes. Cost metrics (simulated
//! clock, byte and page counters) come out the same in each; wall times of
//! identical units are collected per unit so [`Reps`] can take the quiet
//! one. With two clients the ingest runs beside a reader thread on a shared
//! maintenance runtime, and costs are read from a settled, single-threaded
//! pass afterwards.

use crate::gen::{tweet_schema, F_ID, F_TIME, F_USER};
use crate::plan::{GetQ, Inputs, RangeQ, Round};
use crate::spec::{INGEST_CHUNK, RACING_INGEST_CHUNK};
use crate::stats::{percentile, Reps};
use crate::trace::{allocations, Open, Tracer};
use lsm_common::{Record, Result};
use lsm_engine::recovery::{self, CheckpointState};
use lsm_engine::{
    Dataset, DatasetConfig, EngineStatsSnapshot, MaintenanceRuntime, QueryResult, SecondaryIndexDef,
};
use lsm_storage::{IoStatsSnapshot, SimClock, Storage, StorageOptions};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-class wall times across episodes.
pub type Walls = BTreeMap<&'static str, Reps>;
/// Named values one episode produced.
pub type Costs = BTreeMap<&'static str, f64>;

/// Upserts slower than this count into `core.upsert_slow_share`.
const SLOW_UPSERT_NS: u64 = 1_000_000;

/// Operations attempted and failed (errors, results that disagree with the
/// plan, acknowledged writes lost by recovery).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one episode hands back.
#[derive(Debug, Default)]
pub struct EpisodeOut {
    /// Cost metrics and per-layer values.
    pub costs: Costs,
    /// Checked operations.
    pub tally: Tally,
    /// Wall seconds opening (and preloading) the dataset.
    pub setup_secs: f64,
    /// Wall seconds from the first timed op to the end of recovery.
    pub timed_secs: f64,
}

/// An optional tracer: untraced runs pay one branch per call.
struct Tr<'a>(Option<&'a mut Tracer>);

impl Tr<'_> {
    fn on(&self) -> bool {
        self.0.is_some()
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.0 {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }

    fn enter(&mut self, name: &'static str) -> Option<Open> {
        self.0.as_mut().map(|t| t.enter(name))
    }

    fn exit(&mut self, open: Option<Open>) {
        if let (Some(t), Some(open)) = (&mut self.0, open) {
            t.exit(open);
        }
    }

    fn span_walls(&self, name: &str, episode: usize) -> Vec<u64> {
        self.0
            .as_ref()
            .map_or(Vec::new(), |t| t.wall_of(name, episode))
    }
}

/// The engine under test for one episode.
struct Env {
    clock: SimClock,
    data: Arc<Storage>,
    log: Arc<Storage>,
    ds: Arc<Dataset>,
    memory_budget: usize,
}

/// Counter readings at a phase boundary.
struct Mark {
    sim_ns: u64,
    data: IoStatsSnapshot,
    log: IoStatsSnapshot,
    engine: EngineStatsSnapshot,
    allocs: u64,
}

impl Env {
    fn mark(&self) -> Mark {
        Mark {
            sim_ns: self.clock.now_nanos(),
            data: self.data.stats(),
            log: self.log.stats(),
            engine: self.ds.stats().snapshot(),
            allocs: allocations(),
        }
    }
}

/// The common set-up of every workload. Only the strategy, the index and
/// filter definitions, the memory budget (1 % of live bytes), the merge cap
/// (5 %), the cache size and the maintenance runtime are set; everything
/// else stays at `DatasetConfig::new` / `StorageOptions::hdd` defaults, so
/// a change of default is measured.
fn open_env(inputs: &Inputs, runtime: Option<&Arc<MaintenanceRuntime>>) -> Result<Env> {
    let live = inputs.live_bytes;
    let cache_bytes = (live as f64 * inputs.w.cache_share) as usize;
    let clock = SimClock::new();
    let data = Storage::with_clock(StorageOptions::hdd(cache_bytes), clock.clone());
    let log = Storage::with_clock(StorageOptions::hdd(cache_bytes), clock.clone());
    let mut cfg = DatasetConfig::new(tweet_schema(), F_ID);
    cfg.strategy = inputs.w.strategy;
    cfg.filter_field = Some(F_TIME);
    cfg.secondary_indexes.push(SecondaryIndexDef {
        name: "user_id".into(),
        field: F_USER,
    });
    cfg.memory_budget = (live / 100) as usize;
    cfg.merge.max_mergeable_bytes = live / 20;
    let memory_budget = cfg.memory_budget;
    let ds = match runtime {
        Some(rt) => Dataset::open_with_runtime(data.clone(), Some(log.clone()), cfg, rt)?,
        None => Dataset::open(data.clone(), Some(log.clone()), cfg)?,
    };
    Ok(Env {
        clock,
        data,
        log,
        ds,
        memory_budget,
    })
}

/// Runs episode `episode` of `inputs`, adding its unit times to `walls`.
///
/// One client: rounds of `[ingest segment · reads]`, so every class of
/// operation samples the same stretch of host time and reads meet the
/// dataset at several points of its merge cycle. Two clients: the whole
/// ingest beside a racing reader, then the same rounds once more on the
/// settled dataset. Read costs and read wall times both come from that
/// exact pass; what the racing reader achieved is reported per layer
/// (`racing.*` classes), because three threads on two cores leave no
/// repetition of its longer units undisturbed.
pub fn run_episode(
    inputs: &Inputs,
    episode: usize,
    runtime: Option<&Arc<MaintenanceRuntime>>,
    walls: &mut Walls,
    tracer: Option<&mut Tracer>,
) -> Result<EpisodeOut> {
    let mut out = EpisodeOut::default();
    let mut tr = Tr(tracer);
    let t_setup = Instant::now();
    let env = open_env(inputs, runtime)?;
    if let Some(t) = &mut tr.0 {
        t.begin_episode(episode, &env.clock);
    }
    for op in &inputs.stream.ops[..inputs.preload_end()] {
        out.tally.note(env.ds.upsert(&op.record).is_ok());
    }
    if inputs.preload_end() > 0 {
        env.ds.maintenance().quiesce()?;
    }
    out.setup_secs = t_setup.elapsed().as_secs_f64();

    let t_timed = Instant::now();
    let root = tr.enter("episode");
    let mut ingest = Ingest::new(inputs, &env);
    let mut reads = ReadState::default();
    if inputs.w.clients > 1 {
        ingest.beside_reader(walls, &mut tr, &mut out)?;
    }
    for (r, round) in inputs.rounds.iter().enumerate() {
        if inputs.w.clients == 1 {
            ingest.segment(inputs.round_end(r), walls, &mut tr, &mut out.tally)?;
        }
        let mut reader = Reader {
            inputs,
            env: &env,
            judge: Judge::Exact,
            tr: &mut tr,
            walls: &mut *walls,
            tally: &mut out.tally,
            state: &mut reads,
        };
        reader.round(round);
    }
    ingest.publish(&mut out.costs);
    reads.acc.publish(&mut out.costs, &tr, episode);

    repair_and_crash(inputs, &env, walls, &mut tr, &mut out)?;
    tr.exit(root);
    out.timed_secs = t_timed.elapsed().as_secs_f64();
    Ok(out)
}

/// The timed ingest of one episode, accumulated segment by segment.
struct Ingest<'a> {
    inputs: &'a Inputs,
    env: &'a Env,
    /// Counters when the episode's first upsert was issued.
    start: Mark,
    /// Next op to apply.
    at: usize,
    n: IngestCounts,
}

#[derive(Default)]
struct IngestCounts {
    /// Next wall unit (chunk) index.
    unit: usize,
    /// Deltas over the segments only: reads in between also advance the
    /// clock, read pages, probe filters and allocate.
    sim_ns: u64,
    wall_ns: u64,
    bytes_read: u64,
    bloom_checks: u64,
    allocs: u64,
    /// Traced detail (empty otherwise).
    op_wall: Vec<u64>,
    op_sim: Vec<u64>,
    upsert_sim: u64,
    flush_sim: u64,
    merge_sim: u64,
    flush_ns: u64,
    merge_ns: u64,
    merge_written: u64,
    queue_depth_max: u64,
}

impl<'a> Ingest<'a> {
    fn new(inputs: &'a Inputs, env: &'a Env) -> Self {
        Ingest {
            inputs,
            env,
            start: env.mark(),
            at: inputs.preload_end(),
            n: IngestCounts::default(),
        }
    }

    /// Runs `f` as part of the ingest, adding what it cost.
    fn account<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let before = self.env.mark();
        let t = Instant::now();
        let out = f(self);
        self.n.wall_ns += t.elapsed().as_nanos() as u64;
        let after = self.env.mark();
        self.n.sim_ns += after.sim_ns - before.sim_ns;
        self.n.bytes_read += after.data.bytes_read - before.data.bytes_read;
        self.n.bloom_checks += after.data.bloom_checks - before.data.bloom_checks;
        self.n.allocs += after.allocs - before.allocs;
        out
    }

    /// Applies ops up to `upto` in chunks of [`INGEST_CHUNK`], inline
    /// maintenance included.
    ///
    /// Untraced it calls `Dataset::upsert`. Traced it drives the pieces of
    /// `Dataset::upsert` itself — `upsert_no_maintenance`, then `flush_all`
    /// and plan/execute merges to quiescence once the memtables pass the
    /// budget, the exact inline schedule — so each piece gets its own span;
    /// it must reproduce the untraced run's simulated seconds, bytes and
    /// flush/merge counts exactly.
    fn segment(
        &mut self,
        upto: usize,
        walls: &mut Walls,
        tr: &mut Tr<'_>,
        tally: &mut Tally,
    ) -> Result<()> {
        let ops = &self.inputs.stream.ops[self.at..upto];
        self.at = upto;
        let open = tr.enter("ingest");
        let result = self.account(|this| -> Result<()> {
            for chunk in ops.chunks(INGEST_CHUNK) {
                let t = Instant::now();
                for op in chunk {
                    let ok = if tr.on() {
                        this.traced_upsert(&op.record, tr)?
                    } else {
                        this.env.ds.upsert(&op.record).is_ok()
                    };
                    tally.note(ok);
                }
                walls.entry("ingest").or_default().record(
                    this.n.unit,
                    t.elapsed().as_secs_f64(),
                    chunk.len() as f64,
                );
                this.n.unit += 1;
            }
            Ok(())
        });
        tr.exit(open);
        result
    }

    fn traced_upsert(&mut self, record: &Record, tr: &mut Tr<'_>) -> Result<bool> {
        let (env, ds) = (self.env, &self.env.ds);
        let t = Instant::now();
        let sim0 = env.clock.now_nanos();
        let ok = tr.span("core.upsert", || ds.upsert_no_maintenance(record).is_ok());
        let sim1 = env.clock.now_nanos();
        self.n.upsert_sim += sim1 - sim0;
        if ds.mem_total_bytes() > env.memory_budget {
            let tf = Instant::now();
            tr.span("core.flush", || ds.flush_all())?;
            self.n.flush_ns += tf.elapsed().as_nanos() as u64;
            let sim2 = env.clock.now_nanos();
            self.n.flush_sim += sim2 - sim1;
            let written = env.data.stats().bytes_written;
            let tm = Instant::now();
            loop {
                let plans = ds.plan_merges();
                if plans.is_empty() {
                    break;
                }
                for plan in &plans {
                    tr.span("core.merge", || ds.execute_merge_plan(plan))?;
                }
            }
            self.n.merge_ns += tm.elapsed().as_nanos() as u64;
            self.n.merge_sim += env.clock.now_nanos() - sim2;
            self.n.merge_written += env.data.stats().bytes_written - written;
        }
        self.n.op_wall.push(t.elapsed().as_nanos() as u64);
        self.n.op_sim.push(env.clock.now_nanos() - sim0);
        Ok(ok)
    }

    /// Two clients: this thread is the writer (`Dataset::upsert`,
    /// maintenance on the shared runtime), a second thread reads the planned
    /// rounds once, racing it. Costs run until the runtime has paid the
    /// maintenance the writer deferred; the writer's wall time is its own
    /// chunks — the drain is one long unit no repetition finds undisturbed,
    /// so it is reported on its own (`core.quiesce_s`).
    fn beside_reader(
        &mut self,
        walls: &mut Walls,
        tr: &mut Tr<'_>,
        out: &mut EpisodeOut,
    ) -> Result<()> {
        let (inputs, env) = (self.inputs, self.env);
        let first = self.at;
        let ops = &inputs.stream.ops[first..inputs.ingest_end()];
        self.at = inputs.ingest_end();
        let progress = AtomicUsize::new(first);
        let mut reader_tracer = tr.0.as_ref().map(|t| t.fork());
        let mut reader_walls = Walls::new();
        let open = tr.enter("ingest");
        let drain_secs = self.account(|this| -> Result<f64> {
            let reader_tally = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let mut rtr = Tr(reader_tracer.as_mut());
                    let open = rtr.enter("read.racing");
                    let mut tally = Tally::default();
                    let mut state = ReadState::default();
                    let mut reader = Reader {
                        inputs,
                        env,
                        judge: Judge::Racing(&progress),
                        tr: &mut rtr,
                        walls: &mut reader_walls,
                        tally: &mut tally,
                        state: &mut state,
                    };
                    for round in &inputs.rounds {
                        reader.round(round);
                    }
                    rtr.exit(open);
                    tally
                });
                let reps = walls.entry("ingest").or_default();
                for chunk in ops.chunks(RACING_INGEST_CHUNK) {
                    let t_chunk = Instant::now();
                    for (i, op) in chunk.iter().enumerate() {
                        let ok = if tr.on() {
                            let t = Instant::now();
                            let ok = tr.span("core.upsert", || env.ds.upsert(&op.record).is_ok());
                            this.n.op_wall.push(t.elapsed().as_nanos() as u64);
                            ok
                        } else {
                            env.ds.upsert(&op.record).is_ok()
                        };
                        out.tally.note(ok);
                        // Publishes "ops below this index are acknowledged"
                        // to the reader's Acquire loads.
                        progress.store(
                            first + this.n.unit * RACING_INGEST_CHUNK + i + 1,
                            Ordering::Release,
                        );
                    }
                    reps.record(
                        this.n.unit,
                        t_chunk.elapsed().as_secs_f64(),
                        chunk.len() as f64,
                    );
                    this.n.unit += 1;
                    let depth = env.ds.stats().snapshot().queue_depth;
                    this.n.queue_depth_max = this.n.queue_depth_max.max(depth);
                }
                reader.join().expect("reader thread panicked")
            });
            out.tally.add(reader_tally);
            let t = Instant::now();
            tr.span("core.quiesce", || env.ds.maintenance().quiesce())?;
            Ok(t.elapsed().as_secs_f64())
        })?;
        out.costs.insert("core.quiesce_s", drain_secs);
        out.costs
            .insert("core.queue_depth_max", self.n.queue_depth_max as f64);
        tr.exit(open);
        if let (Some(t), Some(reader)) = (&mut tr.0, reader_tracer) {
            t.absorb(reader);
        }
        for (class, reps) in reader_walls {
            walls.entry(class).or_default().absorb(reps);
        }
        Ok(())
    }

    /// Cost metrics and counter deltas of the whole ingest.
    fn publish(&self, c: &mut Costs) {
        let (inputs, env) = (self.inputs, self.env);
        // Reads write nothing, so everything on the write side is simply
        // now minus the episode's start.
        let after = env.mark();
        let data = after.data.since(&self.start.data);
        let log = after.log.since(&self.start.log);
        let n = inputs.w.ingest_ops as f64;
        let user = inputs.ingest_user_bytes as f64;
        let ds = &env.ds;
        let mut trees = vec![ds.primary()];
        trees.extend(ds.pk_index());
        trees.extend(ds.secondaries().iter().map(|s| &s.tree));
        let disk_bytes: u64 = trees.iter().map(|t| t.disk_bytes()).sum();
        c.insert("ingest_sim_s", self.n.sim_ns as f64 / 1e9);
        c.insert(
            "write_amp",
            (data.bytes_written + log.bytes_written) as f64 / user,
        );
        c.insert(
            "space_amp",
            disk_bytes as f64 / inputs.live_bytes_after_ingest as f64,
        );
        c.insert("storage.data_bytes_written", data.bytes_written as f64);
        c.insert("storage.log_bytes_written", log.bytes_written as f64);
        c.insert(
            "storage.pages_written",
            (data.pages_written + log.pages_written) as f64,
        );
        c.insert("storage.ingest_bytes_read", self.n.bytes_read as f64);
        c.insert("bloom.checks_per_upsert", self.n.bloom_checks as f64 / n);
        c.insert(
            "core.wal_bytes_per_user_byte",
            log.bytes_written as f64 / user,
        );
        let (then, now) = (&self.start.engine, &after.engine);
        let e = |f: fn(&EngineStatsSnapshot) -> u64| (f(now) - f(then)) as f64;
        c.insert("core.flushes", e(|s| s.flushes));
        c.insert("core.merges", e(|s| s.merges));
        c.insert(
            "core.maintenance_lookups_per_upsert",
            e(|s| s.maintenance_lookups) / n,
        );
        c.insert(
            "core.wal_records_per_group",
            e(|s| s.wal_grouped_records) / e(|s| s.wal_groups).max(1.0),
        );
        c.insert("core.backpressure_stalls", e(|s| s.backpressure_stalls));
        c.insert("core.flush_jobs", e(|s| s.flush_jobs));
        c.insert("core.merge_jobs", e(|s| s.merge_jobs));
        c.insert("core.upsert_allocs_per_op", self.n.allocs as f64 / n);
        c.insert(
            "lsm.components.primary",
            ds.primary().num_disk_components() as f64,
        );
        c.insert(
            "lsm.components.pk",
            ds.pk_index().map_or(0, |t| t.num_disk_components()) as f64,
        );
        let secondary = &ds.secondaries()[0].tree;
        c.insert(
            "lsm.components.secondary",
            secondary.num_disk_components() as f64,
        );
        let per_entry = |bytes: u64, entries: u64| bytes as f64 / entries.max(1) as f64;
        c.insert(
            "btree.bytes_per_entry.primary",
            per_entry(ds.primary().disk_bytes(), ds.primary().disk_entries()),
        );
        c.insert(
            "btree.bytes_per_entry.secondary",
            per_entry(secondary.disk_bytes(), secondary.disk_entries()),
        );
        let height = ds
            .primary()
            .disk_components()
            .iter()
            .map(|comp| comp.btree().height())
            .max();
        c.insert("btree.height.primary", f64::from(height.unwrap_or(0)));

        if self.n.op_wall.is_empty() {
            return;
        }
        let us = |p: f64| percentile(&self.n.op_wall, p).unwrap_or(0) as f64 / 1e3;
        c.insert("core.upsert_wall_p50_us", us(50.0));
        c.insert("core.upsert_wall_p99_us", us(99.0));
        let total: u64 = self.n.op_wall.iter().sum();
        let slow: u64 = self
            .n
            .op_wall
            .iter()
            .filter(|&&ns| ns > SLOW_UPSERT_NS)
            .sum();
        c.insert("core.upsert_slow_share", slow as f64 / total.max(1) as f64);
        if self.n.op_sim.is_empty() {
            return;
        }
        c.insert(
            "core.upsert_sim_p9999_ms",
            percentile(&self.n.op_sim, 99.99).unwrap_or(0) as f64 / 1e6,
        );
        let wall = self.n.wall_ns as f64;
        c.insert("core.flush_busy_share", self.n.flush_ns as f64 / wall);
        c.insert("core.merge_busy_share", self.n.merge_ns as f64 / wall);
        c.insert("core.upsert_sim_s", self.n.upsert_sim as f64 / 1e9);
        c.insert("core.flush_sim_s", self.n.flush_sim as f64 / 1e9);
        c.insert("core.merge_sim_s", self.n.merge_sim as f64 / 1e9);
        c.insert(
            "lsm.merge_written_share",
            self.n.merge_written as f64 / data.bytes_written as f64,
        );
    }
}

/// How a read's result is judged.
#[derive(Clone, Copy)]
enum Judge<'a> {
    /// Against the plan's expectation, exactly.
    Exact,
    /// Racing a writer whose acknowledged-op count is published here: a
    /// result must be a genuine version that is neither older than what was
    /// acknowledged when the read began nor newer than what had been issued
    /// when it returned.
    Racing(&'a AtomicUsize),
}

/// The read classes, in the order a round executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Scan,
    QLarge,
    IxOnly,
    QSmall,
    Get,
}

impl Class {
    /// Name of the class's wall-time units; a racing reader's go under
    /// their own names, they are not the same work as the exact pass's.
    fn wall(self, racing: bool) -> &'static str {
        match (self, racing) {
            (Class::Scan, false) => "scan",
            (Class::QLarge, false) => "q_large",
            (Class::IxOnly, false) => "ixonly",
            (Class::QSmall, false) => "q_small",
            (Class::Get, false) => "get",
            (Class::Scan, true) => "racing.scan",
            (Class::QLarge, true) => "racing.q_large",
            (Class::IxOnly, true) => "racing.ixonly",
            (Class::QSmall, true) => "racing.q_small",
            (Class::Get, true) => "racing.get",
        }
    }

    /// Name of the span around one call of this class.
    fn span(self) -> &'static str {
        match self {
            Class::Scan => "core.scan",
            Class::QLarge => "core.q_large",
            Class::IxOnly => "core.ixonly",
            Class::QSmall => "core.q_small",
            Class::Get => "core.get",
        }
    }
}

/// What a reader carries from round to round: per class, the counter
/// deltas so far and the next unit index.
#[derive(Default)]
struct ReadState {
    acc: ReadAcc,
    units: [usize; 5],
}

/// Counter deltas of one read class over an episode's exact pass.
#[derive(Default)]
struct ClassAcc {
    ops: u64,
    rows: u64,
    sim_ns: u64,
    wall_ns: u64,
    allocs: u64,
    io: IoStatsSnapshot,
}

impl ClassAcc {
    fn add(&mut self, env: &Env, before: &Mark, wall_ns: u64, ops: u64, rows: u64) {
        let io = env.data.stats().since(&before.data);
        self.ops += ops;
        self.rows += rows;
        self.sim_ns += env.clock.now_nanos() - before.sim_ns;
        self.wall_ns += wall_ns;
        self.allocs += allocations() - before.allocs;
        self.io.seq_reads += io.seq_reads;
        self.io.rand_reads += io.rand_reads;
        self.io.cache_hits += io.cache_hits;
        self.io.bloom_checks += io.bloom_checks;
        self.io.bloom_negatives += io.bloom_negatives;
        self.io.batched_lookups_saved += io.batched_lookups_saved;
    }

    fn sim_per_op(&self, unit_ns: f64) -> f64 {
        self.sim_ns as f64 / self.ops.max(1) as f64 / unit_ns
    }
}

#[derive(Default)]
struct ReadAcc {
    classes: [ClassAcc; 5],
    scan_pruned: u64,
    scan_scanned: u64,
}

impl ReadAcc {
    fn publish(&self, c: &mut Costs, tr: &Tr<'_>, episode: usize) {
        let [scan, q_large, ixonly, q_small, get] = &self.classes;
        c.insert("get_sim_us", get.sim_per_op(1e3));
        c.insert("q_small_sim_ms", q_small.sim_per_op(1e6));
        c.insert("q_large_sim_ms", q_large.sim_per_op(1e6));
        c.insert("scan_sim_ms", scan.sim_per_op(1e6));
        c.insert("core.ixonly_sim_ms", ixonly.sim_per_op(1e6));
        c.insert("storage.cache_hit_ratio.get", get.io.cache_hit_ratio());
        c.insert(
            "storage.cache_hit_ratio.q_large",
            q_large.io.cache_hit_ratio(),
        );
        c.insert("storage.cache_hit_ratio.scan", scan.io.cache_hit_ratio());
        let gets = get.ops.max(1) as f64;
        c.insert(
            "storage.pages_read_per_get",
            get.io.disk_reads() as f64 / gets,
        );
        c.insert(
            "storage.rand_read_share.q_large",
            q_large.io.rand_reads as f64 / q_large.io.disk_reads().max(1) as f64,
        );
        let saved: u64 = [q_small, q_large, ixonly, scan]
            .iter()
            .map(|a| a.io.batched_lookups_saved)
            .sum();
        c.insert("storage.batched_lookups_saved", saved as f64);
        c.insert("bloom.checks_per_get", get.io.bloom_checks as f64 / gets);
        c.insert(
            "bloom.negative_share.get",
            get.io.bloom_negatives as f64 / get.io.bloom_checks.max(1) as f64,
        );
        c.insert("core.get_allocs_per_op", get.allocs as f64 / gets);
        c.insert(
            "core.q_large_allocs_per_row",
            q_large.allocs as f64 / q_large.rows.max(1) as f64,
        );
        let per_s = |amount: u64, wall_ns: u64| amount as f64 / (wall_ns.max(1) as f64 / 1e9);
        c.insert("core.q_small_per_s", per_s(q_small.ops, q_small.wall_ns));
        c.insert("core.ixonly_rows_per_s", per_s(ixonly.rows, ixonly.wall_ns));
        c.insert(
            "core.scan_components_pruned_share",
            self.scan_pruned as f64 / (self.scan_pruned + self.scan_scanned).max(1) as f64,
        );
        if tr.on() {
            let p = |class: Class, p: f64, unit_ns: f64| {
                percentile(&tr.span_walls(class.span(), episode), p).unwrap_or(0) as f64 / unit_ns
            };
            c.insert("core.get_wall_p50_us", p(Class::Get, 50.0, 1e3));
            c.insert("core.get_wall_p99_us", p(Class::Get, 99.0, 1e3));
            c.insert("core.q_small_wall_p50_us", p(Class::QSmall, 50.0, 1e3));
            c.insert("core.q_large_wall_p50_ms", p(Class::QLarge, 50.0, 1e6));
        }
    }
}

/// Executes planned rounds against a dataset.
struct Reader<'a, 'b> {
    inputs: &'a Inputs,
    env: &'a Env,
    judge: Judge<'a>,
    tr: &'a mut Tr<'b>,
    /// Where unit wall times go.
    walls: &'a mut Walls,
    tally: &'a mut Tally,
    state: &'a mut ReadState,
}

impl Reader<'_, '_> {
    /// Books one executed unit of `class`: its counter deltas since
    /// `before` and its wall time.
    fn book(
        &mut self,
        class: Class,
        before: &Mark,
        wall_ns: u64,
        ops: u64,
        rows: u64,
        amount: u64,
    ) {
        let i = class as usize;
        self.state.acc.classes[i].add(self.env, before, wall_ns, ops, rows);
        let racing = matches!(self.judge, Judge::Racing(_));
        self.walls.entry(class.wall(racing)).or_default().record(
            self.state.units[i],
            wall_ns as f64 / 1e9,
            amount as f64,
        );
        self.state.units[i] += 1;
    }

    /// One round, from bulk to point: scans and large queries come first,
    /// so pages that flush and merge have just written are first touched by
    /// the operations that read them wholesale anyway.
    fn round(&mut self, round: &Round) {
        let open = self.tr.enter("read.round");
        // With one client every round follows fresh flushes and merges; the
        // settled pass of two clients follows none after its first round.
        let first = self.state.units[Class::Scan as usize] == 0;
        let fresh = self.inputs.w.clients == 1 || first;
        if self.inputs.w.read.warm_cache && fresh && matches!(self.judge, Judge::Exact) {
            self.warm();
        }
        self.scans(round);
        for q in &round.q_large {
            self.queries(Class::QLarge, std::slice::from_ref(q));
        }
        for q in &round.ixonly {
            self.queries(Class::IxOnly, std::slice::from_ref(q));
        }
        for batch in &round.q_small {
            self.queries(Class::QSmall, batch);
        }
        self.gets(round);
        self.tr.exit(open);
    }

    /// Where every page fits the cache, touch every page first: an unbounded
    /// filter scan reads the primary index, a full-range index-only query
    /// the secondary index (and what it validates against). Reads then cost
    /// what a warm cache costs, not a seed-dependent handful of first
    /// touches. Not timed, not a cost; errors still count.
    fn warm(&mut self) {
        let ds = &self.env.ds;
        let open = self.tr.enter("read.warm");
        let scanned = ds.filter_scan().count().is_ok();
        let queried = ds
            .query("user_id")
            .range(0, crate::gen::USER_ID_DOMAIN)
            .index_only()
            .execute()
            .is_ok();
        self.tr.exit(open);
        self.tally.note(scanned);
        self.tally.note(queried);
    }

    fn gets(&mut self, round: &Round) {
        let (env, inputs, judge) = (self.env, self.inputs, self.judge);
        for slice in &round.get_slices {
            let before = env.mark();
            let open = self.tr.enter("read.get_slice");
            let t = Instant::now();
            let mut failed = 0;
            for q in slice {
                let lo = judge.progress();
                let got = self.tr.span(Class::Get.span(), || env.ds.get(&q.key));
                let ok = match got {
                    Ok(got) => judge.get_ok(inputs, q, got.as_ref(), lo),
                    Err(_) => false,
                };
                failed += u64::from(!ok);
            }
            let wall_ns = t.elapsed().as_nanos() as u64;
            self.tr.exit(open);
            let n = slice.len() as u64;
            self.tally.attempted += n;
            self.tally.failed += failed;
            self.book(Class::Get, &before, wall_ns, n, n, n);
        }
    }

    /// One unit of range queries: a single large or index-only query, or a
    /// batch of selective ones. Only `execute()` is timed; the rows are
    /// checked after the clock has stopped.
    fn queries(&mut self, class: Class, batch: &[RangeQ]) {
        let (env, inputs, judge) = (self.env, self.inputs, self.judge);
        let before = env.mark();
        let mut wall_ns = 0u64;
        let mut rows = 0u64;
        for q in batch {
            let lo = judge.progress();
            let t = Instant::now();
            let got = self.tr.span(class.span(), || {
                let query = env.ds.query("user_id").range(q.lo, q.hi);
                if class == Class::IxOnly {
                    query.index_only().execute()
                } else {
                    query.execute()
                }
            });
            wall_ns += t.elapsed().as_nanos() as u64;
            let ok = match &got {
                Ok(result) => {
                    rows += result.len() as u64;
                    judge.query_ok(inputs, q, result, lo)
                }
                Err(_) => false,
            };
            self.tally.note(ok);
        }
        let n = batch.len() as u64;
        // Selective queries are counted as queries, large ones as rows.
        let amount = if class == Class::QSmall { n } else { rows };
        self.book(class, &before, wall_ns, n, rows, amount);
    }

    fn scans(&mut self, round: &Round) {
        let (env, judge) = (self.env, self.judge);
        for q in &round.scans {
            let before = env.mark();
            let t = Instant::now();
            let got = self.tr.span(Class::Scan.span(), || {
                let scan = env.ds.filter_scan();
                match (q.lo, q.hi) {
                    (Some(lo), Some(hi)) => scan.range(lo, hi),
                    (Some(lo), None) => scan.range_from(lo),
                    (None, Some(hi)) => scan.range_to(hi),
                    (None, None) => scan,
                }
                .count()
            });
            let wall_ns = t.elapsed().as_nanos() as u64;
            let (ok, matches) = match got {
                Ok(report) => {
                    self.state.acc.scan_pruned += report.components_pruned;
                    self.state.acc.scan_scanned += report.components_scanned;
                    let ok = match judge {
                        Judge::Exact => report.matches == q.expect,
                        Judge::Racing(_) => {
                            report.matches <= self.inputs.stream.issued.len() as u64
                        }
                    };
                    (ok, report.matches)
                }
                Err(_) => (false, 0),
            };
            self.tally.note(ok);
            self.book(Class::Scan, &before, wall_ns, 1, matches, matches);
        }
    }
}

impl Judge<'_> {
    /// Ops acknowledged so far (0 when nothing races).
    fn progress(&self) -> usize {
        match self {
            Judge::Exact => 0,
            Judge::Racing(p) => p.load(Ordering::Acquire),
        }
    }

    /// True if `record` is a version the stream wrote that a read begun at
    /// progress `lo` may return: no newer version of its key had been
    /// acknowledged by then, and it had been issued by now.
    fn genuine(&self, inputs: &Inputs, record: &Record, lo: usize) -> Option<usize> {
        let t = usize::try_from(record.get(F_TIME).as_int()?).ok()?;
        let op = inputs.stream.ops.get(t)?;
        let fresh = match self {
            Judge::Exact => true,
            Judge::Racing(p) => {
                inputs.next_version[t] as usize >= lo && t <= p.load(Ordering::Acquire)
            }
        };
        (fresh && op.record == *record).then_some(t)
    }

    fn get_ok(&self, inputs: &Inputs, q: &GetQ, got: Option<&Record>, lo: usize) -> bool {
        match (self, got, q.expect) {
            (Judge::Exact, Some(record), Some(expect)) => {
                inputs.stream.ops[expect as usize].record == *record
            }
            (Judge::Racing(_), Some(record), Some(_)) => self
                .genuine(inputs, record, lo)
                .is_some_and(|t| inputs.stream.ops[t].record.get(F_ID) == &q.key),
            (_, None, None) => true,
            _ => false,
        }
    }

    fn query_ok(&self, inputs: &Inputs, q: &RangeQ, got: &QueryResult, lo: usize) -> bool {
        match (self, got) {
            (Judge::Exact, QueryResult::Records(records)) => {
                let mut rows: Vec<(i64, usize)> = Vec::with_capacity(records.len());
                for r in records {
                    match (r.get(F_ID).as_int(), self.genuine(inputs, r, lo)) {
                        (Some(pk), Some(t)) => rows.push((pk, t)),
                        _ => return false,
                    }
                }
                rows.sort_unstable();
                rows.len() == q.expect.len()
                    && rows
                        .iter()
                        .zip(&q.expect)
                        .all(|(got, want)| *got == (want.0, want.1 as usize))
            }
            (Judge::Exact, QueryResult::Keys(keys)) => {
                let mut pks: Vec<Option<i64>> = keys.iter().map(|k| k.as_int()).collect();
                pks.sort_unstable();
                pks.len() == q.expect.len()
                    && pks
                        .iter()
                        .zip(&q.expect)
                        .all(|(got, want)| *got == Some(want.0))
            }
            (Judge::Racing(_), QueryResult::Records(records)) => {
                let mut pks = Vec::with_capacity(records.len());
                for r in records {
                    let in_range = r
                        .get(F_USER)
                        .as_int()
                        .is_some_and(|u| (q.lo..=q.hi).contains(&u));
                    if !in_range || self.genuine(inputs, r, lo).is_none() {
                        return false;
                    }
                    pks.push(r.get(F_ID).as_int());
                }
                all_distinct(pks)
            }
            (Judge::Racing(_), QueryResult::Keys(keys)) => {
                all_distinct(keys.iter().map(|k| k.as_int()).collect())
            }
        }
    }
}

fn all_distinct(mut pks: Vec<Option<i64>>) -> bool {
    pks.sort_unstable();
    pks.iter().all(Option::is_some) && pks.windows(2).all(|w| w[0] != w[1])
}

/// A standalone repair, then a flush and a checkpoint, a tail of upserts
/// that stays in the memtable, a forced log, a crash and recovery; finally
/// every tail key and a 1-in-10 sample of all keys must show the last
/// acknowledged version.
fn repair_and_crash(
    inputs: &Inputs,
    env: &Env,
    walls: &mut Walls,
    tr: &mut Tr<'_>,
    out: &mut EpisodeOut,
) -> Result<()> {
    let ds = &env.ds;
    let ops = &inputs.stream.ops;
    let mut timed = |name: &'static str,
                     class: &'static str,
                     tr: &mut Tr<'_>,
                     f: &mut dyn FnMut() -> Result<()>|
     -> Result<f64> {
        let sim0 = env.clock.now_nanos();
        let t = Instant::now();
        tr.span(name, f)?;
        walls
            .entry(class)
            .or_default()
            .record(0, t.elapsed().as_secs_f64(), 1.0);
        Ok((env.clock.now_nanos() - sim0) as f64 / 1e9)
    };

    let mut reports = Vec::new();
    let repair_sim = timed("core.repair", "repair", tr, &mut || {
        reports = ds.maintenance().repair_all()?;
        Ok(())
    })?;
    out.tally.note(true);
    let sum = |f: fn(&lsm_engine::RepairReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let c = &mut out.costs;
    c.insert("core.repair_sim_s", repair_sim);
    c.insert("core.repair_entries_scanned", sum(|r| r.entries_scanned));
    c.insert("core.repair_keys_validated", sum(|r| r.keys_validated));
    c.insert("core.repair_invalidated", sum(|r| r.invalidated));
    let skipped = sum(|r| r.skipped_by_bloom);
    c.insert(
        "core.repair_skipped_by_bloom_share",
        skipped / (skipped + sum(|r| r.keys_validated)).max(1.0),
    );

    // The checkpoint follows a flush, and the tail is shorter than a
    // memtable: recovery replays exactly the tail, whatever the seed.
    let state = CheckpointState::new();
    timed("core.checkpoint", "checkpoint", tr, &mut || {
        ds.maintenance().flush()?;
        recovery::checkpoint(ds, &state)
    })?;
    let open = tr.enter("tail");
    for op in &ops[inputs.ingest_end()..] {
        out.tally.note(ds.upsert(&op.record).is_ok());
    }
    if let Some(wal) = ds.wal() {
        wal.force()?;
    }
    tr.exit(open);
    recovery::simulate_crash(ds, &state)?;
    let mut report = recovery::RecoveryReport::default();
    let recover_sim = timed("core.recover", "recover", tr, &mut || {
        report = recovery::recover(ds, &state)?;
        Ok(())
    })?;
    out.tally.note(true);
    let c = &mut out.costs;
    c.insert("recover_sim_s", recover_sim);
    c.insert("core.recover_replayed", report.replayed as f64);
    c.insert("core.recover_skipped", report.skipped as f64);

    let open = tr.enter("verify");
    for q in &inputs.verify {
        let ok = match ds.get(&q.key) {
            Ok(got) => Judge::Exact.get_ok(inputs, q, got.as_ref(), 0),
            Err(_) => false,
        };
        out.tally.note(ok);
    }
    tr.exit(open);
    Ok(())
}
