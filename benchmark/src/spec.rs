//! What the benchmark runs and what it reports: the four workloads with
//! their frozen counts, and the metric tables `BENCHMARK.json` mirrors.

use crate::gen::KeyDist;
use lsm_engine::StrategyKind;

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

/// The read part of one episode. Every count is per round.
#[derive(Debug, Clone, Copy)]
pub struct ReadMix {
    /// Rounds of `[scans · q_large · index-only · q_small · gets]`; with one
    /// client an equal share of the ingest precedes each.
    pub rounds: usize,
    /// Touch every page before each round (workloads whose cache fits
    /// them all), so reads cost what a warm cache costs.
    pub warm_cache: bool,
    /// Slices of [`GET_SLICE`] gets per round.
    pub get_slices: usize,
    /// Share of gets whose key was never written.
    pub absent_share: f64,
    /// How present keys are picked.
    pub get_dist: KeyDist,
    /// Batches of [`Q_SMALL_BATCH`] selective queries per round.
    pub q_small_batches: usize,
    /// 1 %-of-domain queries per round.
    pub q_large: usize,
    /// Index-only 1 % queries per round.
    pub ixonly: usize,
    /// Share of the `creation_time` domain the two windowed scans cover
    /// (newest and oldest window); each round also scans unbounded.
    pub scan_window: f64,
}

/// Gets per timed slice.
pub const GET_SLICE: usize = 500;
/// Selective queries per timed batch.
pub const Q_SMALL_BATCH: usize = 20;
/// Upserts per timed ingest chunk.
pub const INGEST_CHUNK: usize = 1000;
/// The same for a writer with a reader and a maintenance worker beside it
/// on two cores: short enough that some repetition of each chunk runs
/// without being descheduled.
pub const RACING_INGEST_CHUNK: usize = 200;
/// `user_id` share of a selective query (0.01 % of the domain).
pub const Q_SMALL_SHARE: f64 = 0.0001;
/// `user_id` share of a large query (1 %).
pub const Q_LARGE_SHARE: f64 = 0.01;

/// One workload: the inputs of an episode and how the engine is set up.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
    /// Secondary-index maintenance strategy.
    pub strategy: StrategyKind,
    /// Load-generating threads: 1, or 2 = one writer beside one reader on a
    /// shared maintenance runtime.
    pub clients: usize,
    /// Buffer cache as a share of the live bytes.
    pub cache_share: f64,
    /// Upserts loaded in each episode's set-up, before anything is timed.
    pub preload_ops: usize,
    /// Timed upserts per episode.
    pub ingest_ops: usize,
    /// Upserts between the checkpoint and the crash: less than a memtable
    /// holds, so recovery replays exactly these.
    pub tail_ops: usize,
    /// Share of upserts that re-use an issued key.
    pub update_ratio: f64,
    /// How updated keys are picked.
    pub update_dist: KeyDist,
    /// The read part.
    pub read: ReadMix,
    /// Wall seconds one episode takes on the 2-core reference box; the
    /// episode count of a run is `--seconds` over this.
    pub episode_secs: f64,
}

impl Workload {
    /// Episodes a run of `seconds` executes: identical, so more of them
    /// only sharpen the wall estimate and never move a cost metric.
    pub fn episodes(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.episode_secs).round() as usize).clamp(2, 32)
    }

    /// The workload with every count multiplied by `scale` (smoke use; the
    /// episode count of a run stays what `--seconds` makes it at scale 1).
    pub fn scaled(mut self, scale: f64) -> Self {
        let s = |n: usize, floor: usize| (((n as f64) * scale).round() as usize).max(floor);
        self.preload_ops = if self.preload_ops == 0 {
            0
        } else {
            s(self.preload_ops, 2 * INGEST_CHUNK)
        };
        self.ingest_ops = s(self.ingest_ops, 4 * INGEST_CHUNK);
        self.tail_ops = s(self.tail_ops, 5);
        self.read.get_slices = s(self.read.get_slices, 2);
        self.read.q_small_batches = s(self.read.q_small_batches, 1);
        self.read.q_large = s(self.read.q_large, 2);
        self.read.ixonly = s(self.read.ixonly, 2);
        self
    }
}

/// Cache share of the paper's testbed (2 GB over 30 GB).
const SMALL_CACHE: f64 = 0.067;
/// A cache every page fits in: the disk footprint is 2-3 times the live
/// bytes (obsolete versions, pk and secondary indexes), more mid-merge.
const FITS_CACHE: f64 = 5.0;

/// The four workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_lazy",
        why: "Validation, data >> cache: WAL, memtable, flush, merge and tree build carry an upsert; bloom and tree search almost nothing. Reads must validate; repair has real work.",
        strategy: StrategyKind::Validation,
        clients: 1,
        cache_share: SMALL_CACHE,
        preload_ops: 0,
        ingest_ops: 150_000,
        tail_ops: 200,
        update_ratio: 0.5,
        update_dist: KeyDist::Uniform,
        read: ReadMix {
            rounds: 4,
            warm_cache: false,
            get_slices: 30,
            absent_share: 0.1,
            get_dist: KeyDist::Uniform,
            q_small_batches: 5,
            q_large: 10,
            ixonly: 5,
            scan_window: 0.1,
        },
        episode_secs: 4.8,
    },
    Workload {
        name: "ingest_eager",
        why: "Same op stream under Eager: each upsert first does a point lookup, so lsm lookup, bloom, tree search and cache carry the write path. Moves against ingest_lazy when lookups trade with flush/merge.",
        strategy: StrategyKind::Eager,
        clients: 1,
        cache_share: SMALL_CACHE,
        preload_ops: 0,
        ingest_ops: 150_000,
        tail_ops: 200,
        update_ratio: 0.5,
        update_dist: KeyDist::Uniform,
        read: ReadMix {
            rounds: 4,
            warm_cache: false,
            get_slices: 30,
            absent_share: 0.1,
            get_dist: KeyDist::Uniform,
            q_small_batches: 5,
            q_large: 10,
            ixonly: 5,
            scan_window: 0.1,
        },
        episode_secs: 4.8,
    },
    Workload {
        name: "query_read",
        why: "Read-heavy, unrepaired Validation data, all pages in a warm cache: a read costs CPU (bloom, tree search, validation, decode), not seeks. Write-path changes should not move its read metrics.",
        strategy: StrategyKind::Validation,
        clients: 1,
        cache_share: FITS_CACHE,
        preload_ops: 0,
        ingest_ops: 100_000,
        tail_ops: 140,
        update_ratio: 0.5,
        update_dist: KeyDist::Uniform,
        read: ReadMix {
            rounds: 4,
            warm_cache: true,
            get_slices: 60,
            absent_share: 0.1,
            get_dist: KeyDist::Uniform,
            q_small_batches: 10,
            q_large: 20,
            ixonly: 10,
            scan_window: 0.1,
        },
        episode_secs: 4.5,
    },
    Workload {
        name: "mixed_rw",
        why: "Writer beside reader (2 clients = nproc), MutableBitmap, shared maintenance runtime, Zipf keys, cache fits: only here do key locks, group commit, bitmap CC, scheduler and backpressure matter.",
        strategy: StrategyKind::MutableBitmap,
        clients: 2,
        cache_share: FITS_CACHE,
        preload_ops: 30_000,
        ingest_ops: 120_000,
        tail_ops: 300,
        update_ratio: 0.5,
        update_dist: KeyDist::Zipf(0.99),
        read: ReadMix {
            rounds: 8,
            warm_cache: true,
            get_slices: 4,
            absent_share: 0.1,
            get_dist: KeyDist::Zipf(0.99),
            q_small_batches: 1,
            q_large: 1,
            ixonly: 1,
            scan_window: 0.01,
        },
        episode_secs: 4.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Read on the simulated clock or from counters: bit-identical for one
    /// code + seed on the single-client workloads.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine sees, on both clocks. Every workload reports
/// every one of them.
pub const END_TO_END: [MetricDef; 13] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("ingest_ops_per_s", "ops/s", Higher, 0.25, false),
    e2e("ingest_sim_s", "sim_s", Lower, 0.12, true),
    e2e("write_amp", "ratio", Lower, 0.05, true),
    e2e("space_amp", "ratio", Lower, 0.05, true),
    e2e("recover_sim_s", "sim_s", Lower, 0.25, true),
    e2e("get_ops_per_s", "ops/s", Higher, 0.25, false),
    e2e("get_sim_us", "sim_us", Lower, 0.2, true),
    e2e("q_small_sim_ms", "sim_ms", Lower, 0.25, true),
    e2e("q_large_rows_per_s", "rows/s", Higher, 0.25, false),
    e2e("q_large_sim_ms", "sim_ms", Lower, 0.22, true),
    e2e("scan_rows_per_s", "rows/s", Higher, 0.25, false),
    e2e("scan_sim_ms", "sim_ms", Lower, 0.05, true),
];

/// Single layers, from the traced run: counters the engine publishes (A)
/// and spans around the benchmark's own calls into each layer (B).
pub const PER_LAYER: [MetricDef; 90] = [
    // storage
    layer("storage.append_page_ns", "ns", Lower),
    layer("storage.read_hit_ns", "ns", Lower),
    layer("storage.read_miss_ns", "ns", Lower),
    layer("storage.read_pages_ns_per_page", "ns", Lower),
    layer("storage.cache_hit_ratio.get", "ratio", Higher),
    layer("storage.cache_hit_ratio.q_large", "ratio", Higher),
    layer("storage.cache_hit_ratio.scan", "ratio", Higher),
    layer("storage.pages_read_per_get", "count", Lower),
    layer("storage.rand_read_share.q_large", "ratio", Lower),
    layer("storage.data_bytes_written", "B", Lower),
    layer("storage.log_bytes_written", "B", Lower),
    layer("storage.pages_written", "count", Lower),
    layer("storage.ingest_bytes_read", "B", Lower),
    layer("storage.batched_lookups_saved", "count", Higher),
    // bloom
    layer("bloom.insert_ns", "ns", Lower),
    layer("bloom.probe_hit_ns", "ns", Lower),
    layer("bloom.probe_miss_ns", "ns", Lower),
    layer("bloom.measured_fpr", "ratio", Lower),
    layer("bloom.bits_per_key", "count", Lower),
    layer("bloom.checks_per_get", "count", Lower),
    layer("bloom.negative_share.get", "ratio", Higher),
    layer("bloom.checks_per_upsert", "count", Lower),
    // btree
    layer("btree.build_entries_per_s", "1/s", Higher),
    layer("btree.search_ns", "ns", Lower),
    layer("btree.cursor_seek_ns", "ns", Lower),
    layer("btree.scan_entries_per_s", "1/s", Higher),
    layer("btree.bytes_per_entry.primary", "B", Lower),
    layer("btree.bytes_per_entry.secondary", "B", Lower),
    layer("btree.height.primary", "count", Lower),
    // lsm
    layer("lsm.put_ns", "ns", Lower),
    layer("lsm.flush_entries_per_s", "1/s", Higher),
    layer("lsm.merge_entries_per_s", "1/s", Higher),
    layer("lsm.point_lookup_ns", "ns", Lower),
    layer("lsm.batched_lookup_ns_per_key", "ns", Lower),
    layer("lsm.scan_entries_per_s", "1/s", Higher),
    layer("lsm.components.primary", "count", Lower),
    layer("lsm.components.pk", "count", Lower),
    layer("lsm.components.secondary", "count", Lower),
    layer("lsm.merge_written_share", "ratio", Lower),
    // common
    layer("common.record_encode_ns", "ns", Lower),
    layer("common.record_decode_ns", "ns", Lower),
    // core: write path
    layer("core.upsert_wall_p50_us", "us", Lower),
    layer("core.upsert_wall_p99_us", "us", Lower),
    layer("core.upsert_sim_p9999_ms", "sim_ms", Lower),
    layer("core.flush_busy_share", "ratio", Lower),
    layer("core.merge_busy_share", "ratio", Lower),
    layer("core.upsert_sim_s", "sim_s", Lower),
    layer("core.flush_sim_s", "sim_s", Lower),
    layer("core.merge_sim_s", "sim_s", Lower),
    layer("core.flushes", "count", Lower),
    layer("core.merges", "count", Lower),
    layer("core.maintenance_lookups_per_upsert", "count", Lower),
    layer("core.upsert_allocs_per_op", "count", Lower),
    // core: txn
    layer("core.wal_append_ns", "ns", Lower),
    layer("core.wal_records_per_group", "count", Higher),
    layer("core.wal_bytes_per_user_byte", "ratio", Lower),
    // core: query
    layer("core.get_wall_p50_us", "us", Lower),
    layer("core.get_wall_p99_us", "us", Lower),
    layer("core.get_allocs_per_op", "count", Lower),
    layer("core.q_small_per_s", "1/s", Higher),
    layer("core.q_small_wall_p50_us", "us", Lower),
    layer("core.q_large_wall_p50_ms", "ms", Lower),
    layer("core.q_large_allocs_per_row", "count", Lower),
    layer("core.ixonly_rows_per_s", "rows/s", Higher),
    layer("core.ixonly_sim_ms", "sim_ms", Lower),
    layer("core.scan_components_pruned_share", "ratio", Higher),
    // core: repair and recovery
    layer("core.repair_sim_s", "sim_s", Lower),
    layer("core.repair_wall_s", "s", Lower),
    layer("core.repair_entries_scanned", "count", Lower),
    layer("core.repair_keys_validated", "count", Lower),
    layer("core.repair_invalidated", "count", Higher),
    layer("core.repair_skipped_by_bloom_share", "ratio", Higher),
    layer("core.checkpoint_wall_ms", "ms", Lower),
    layer("core.recover_wall_s", "s", Lower),
    layer("core.recover_replayed", "count", Lower),
    layer("core.recover_skipped", "count", Higher),
    // core: scheduler (2-client workload; 0 elsewhere)
    layer("core.backpressure_stalls", "count", Lower),
    layer("core.upsert_slow_share", "ratio", Lower),
    layer("core.flush_jobs", "count", Lower),
    layer("core.merge_jobs", "count", Lower),
    layer("core.queue_depth_max", "count", Lower),
    layer("core.quiesce_s", "s", Lower),
    layer("core.racing_get_ops_per_s", "ops/s", Higher),
    layer("core.racing_q_large_rows_per_s", "rows/s", Higher),
    layer("core.racing_scan_rows_per_s", "rows/s", Higher),
    // the instrument itself
    layer("trace.ingest_sim_s", "sim_s", Lower),
    layer("trace.write_amp", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("host.ref_ms_before", "ms", Lower),
    layer("host.ref_ms_after", "ms", Lower),
];

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.expect("end-to-end metrics have a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.word()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
