//! The paper's evaluation (Section 6, Figures 12–23) and two ablations, one
//! function per figure.
//!
//! Each figure is a `fn(scale) -> Vec<Table>` listed in [`FIGURES`].
//! `scale` multiplies the figure's operation count (1.0 is the default
//! size, 0.01 a smoke run). A figure returns its numbers instead of printing
//! them, so a test can read them; `benches/figures.rs` prints them. Each
//! function's "Expected shape (paper)" doc is the claim its tables
//! reproduce. Times are on the dataset's simulated clock, except Figure
//! 14's `wall_s` column and Figure 23, which are wall-clock seconds
//! ([`Table::wall`]).
//!
//! [`tsv`] runs every figure but Figure 23 at a scale as the text of a
//! golden file ([`crate::golden`]): tier-1 compares scale 0.01 with
//! `figures-0.01.tsv`, and an ignored test compares scale 1 with
//! `figures-1.tsv`.

use crate::{apply, loaded, open_tweet_dataset, tweet_dataset_config, Env, EnvConfig};
use lsm_common::{Record, Value};
use lsm_engine::cc::{merge_primary_with_cc, CcMethod};
use lsm_engine::query::{QueryOptions, ValidationMethod};
use lsm_engine::{BatchOpResult, BloomKind, Dataset, DatasetConfig, RepairPlan, StrategyKind};
use lsm_storage::Storage;
use lsm_tree::{MergeRange, TieringPolicy};
use lsm_workload::{
    InsertWorkload, Op, SelectivityQueries, TweetConfig, TweetGenerator, UpdateDistribution,
    UpsertWorkload,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One table of a figure: a title, column headers and one labelled row of
/// numbers per variant.
///
/// [`Table::tsv`] writes a table as tab-separated text and
/// [`Table::parse`] reads that text back, every number bit for bit. It is
/// the text of the golden files under `crates/bench/golden/`, and of
/// [`Table::print`] with the wall-clock cells filled in (`→` marks a tab):
///
/// ```text
/// # Figure 14a: upsert ingestion, no updates (60000 ops)
/// Figure 14a→strategy→sim_minutes→krec_per_sim_min→wall_s
/// Figure 14a→eager→0.8310927326666667→72.1941098046693→-
/// ```
///
/// A `#` line names the figure and its title; the header and every row
/// follow, each after the figure's name, so each line of a diff names its
/// table. A number is written in Rust's shortest round-trip form. A
/// wall-clock cell is written as `-`: it is the one cell that differs
/// between two runs.
#[derive(Debug, Clone)]
pub struct Table {
    /// The figure (and panel) the table reproduces, e.g. `Figure 12a`.
    pub figure: String,
    /// What the numbers are and the workload that produced them.
    pub title: String,
    /// Column headers, the label column's first.
    pub columns: Vec<String>,
    /// `(label, one value per column after the label column)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// One flag per column after the label column: whether its cells are
    /// wall-clock seconds.
    pub wall: Vec<bool>,
}

impl Table {
    fn new(figure: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            figure: figure.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            wall: vec![false; columns.len().saturating_sub(1)],
        }
    }

    /// Marks `columns` as wall-clock seconds.
    fn wall_clock(mut self, columns: &[&str]) -> Self {
        for (wall, column) in self.wall.iter_mut().zip(&self.columns[1..]) {
            *wall |= columns.contains(&column.as_str());
        }
        self
    }

    fn row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        let label = label.into();
        let valid =
            values.len() == self.wall.len() && values.iter().all(|v| v.is_finite() && *v >= 0.0);
        let figure = &self.figure;
        assert!(
            valid,
            "{figure} `{label}`: {values:?} is not one finite value ≥ 0 per column"
        );
        self.rows.push((label, values));
    }

    /// The table as text, its wall-clock cells as `-` (see [`Table`]).
    pub fn tsv(&self) -> String {
        self.text(false)
    }

    /// Prints [`Table::tsv`]'s text with the measured wall-clock seconds
    /// in place of its `-` cells.
    pub fn print(&self) {
        println!("{}", self.text(true));
    }

    fn text(&self, show_wall: bool) -> String {
        let figure = &self.figure;
        let mut out = format!("# {figure}: {}\n", self.title);
        out += &format!("{figure}\t{}\n", self.columns.join("\t"));
        for (label, values) in &self.rows {
            out += &format!("{figure}\t{label}");
            for (value, &wall) in values.iter().zip(&self.wall) {
                if wall && !show_wall {
                    out += "\t-";
                } else {
                    out += &format!("\t{value}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// The tables of `text` as [`Table::tsv`] wrote them, blank lines
    /// between them skipped. A `-` cell reads back as a wall-clock cell
    /// holding NaN.
    pub fn parse(text: &str) -> Result<Vec<Table>, String> {
        let mut tables: Vec<Table> = Vec::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let bad = |why: &str| format!("{why}: `{line}`");
            if let Some(head) = line.strip_prefix("# ") {
                let (figure, title) = head.split_once(": ").ok_or_else(|| bad("no title"))?;
                tables.push(Table::new(figure, title, &[]));
                continue;
            }
            let table = tables.last_mut().ok_or_else(|| bad("no `#` line before"))?;
            let mut fields = line.split('\t');
            if fields.next() != Some(table.figure.as_str()) {
                return Err(bad(&format!("not a line of `{}`", table.figure)));
            }
            if table.columns.is_empty() {
                table.columns = fields.map(String::from).collect();
                table.wall = vec![false; table.columns.len().saturating_sub(1)];
                continue;
            }
            let label = fields.next().ok_or_else(|| bad("no label"))?.to_string();
            let cells: Vec<&str> = fields.collect();
            if cells.len() != table.wall.len() {
                return Err(bad("not one value per column"));
            }
            let mut values = Vec::with_capacity(cells.len());
            for (cell, wall) in cells.into_iter().zip(&mut table.wall) {
                *wall |= cell == "-";
                values.push(match cell {
                    "-" => f64::NAN,
                    _ => cell
                        .parse()
                        .map_err(|_| bad(&format!("`{cell}` is no number")))?,
                });
            }
            table.rows.push((label, values));
        }
        Ok(tables)
    }
}

/// Equal up to wall-clock cells: every other number bit for bit.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        let same_cells = |x: &[f64], y: &[f64]| {
            x.len() == y.len()
                && (x.iter().zip(y).zip(&self.wall))
                    .all(|((u, v), &wall)| wall || u.to_bits() == v.to_bits())
        };
        (&self.figure, &self.title, &self.columns, &self.wall)
            == (&other.figure, &other.title, &other.columns, &other.wall)
            && self.rows.len() == other.rows.len()
            && (self.rows.iter().zip(&other.rows))
                .all(|((a, x), (b, y))| a == b && same_cells(x, y))
    }
}

/// A figure: its tables at a scale.
type Figure = fn(f64) -> Vec<Table>;

/// Every figure, by the name `benches/figures.rs` selects it with, in the
/// order it prints them.
pub const FIGURES: [(&str, Figure); 13] = [
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20", fig20),
    ("fig21", fig21),
    ("fig22", fig22),
    ("fig23", fig23),
    ("ablation", ablation),
];

/// Every figure of [`FIGURES`] but Figure 23 at `scale`, as the text of
/// the golden file `figures-{scale}.tsv`: each table's [`Table::tsv`], a
/// blank line between two tables.
pub fn tsv(scale: f64) -> String {
    let mut tables = Vec::new();
    for (name, run) in FIGURES {
        // Every cell of fig 23 is wall-clock: its golden text would compare
        // titles and labels only, for seconds of merging. The printer runs it.
        if name == "fig23" {
            continue;
        }
        let figure = run(scale);
        let empty = figure.is_empty() || figure.iter().any(|t| t.rows.is_empty());
        assert!(!empty, "{name} returned no table or a table without rows");
        tables.extend(figure.iter().map(Table::tsv));
    }
    tables.join("\n")
}

/// `n` operations at `scale`, at least 16.
fn scaled(scale: f64, n: usize) -> usize {
    ((n as f64) * scale).max(16.0) as usize
}

/// The environment of `n` default (~500 B) tweets, sized at 550 B each.
fn tweets_env(n: usize) -> EnvConfig {
    EnvConfig {
        dataset_bytes: (n as u64) * 550,
        ..Default::default()
    }
}

/// A fresh `env` holding the Section 6.1 tweet dataset with `secondaries`
/// indexes on `user_id`, its config changed by `tweak`.
fn open(
    env: EnvConfig,
    strategy: StrategyKind,
    secondaries: usize,
    tweak: impl FnOnce(&mut DatasetConfig),
) -> Arc<Dataset> {
    let mut cfg = tweet_dataset_config(strategy, env.dataset_bytes, secondaries);
    tweak(&mut cfg);
    open_tweet_dataset(&Env::new(&env), cfg)
}

/// Records staged per [`WriteBatch`](lsm_engine::WriteBatch) commit by the
/// ingestion figures.
const BATCH: usize = 32;

/// A stopwatch pairing simulated and wall-clock time.
struct Timer {
    /// The dataset's data device, then its log device if any, each with
    /// the nanoseconds it had charged at start.
    devices: Vec<(Arc<Storage>, u64)>,
    sim_start: u64,
    wall_start: std::time::Instant,
}

impl Timer {
    fn start(ds: &Dataset) -> Self {
        let devices = std::iter::once(ds.storage()).chain(ds.wal().map(|wal| wal.storage()));
        Timer {
            devices: devices.map(|s| (s.clone(), s.charged_ns())).collect(),
            sim_start: ds.storage().clock().now_nanos(),
            wall_start: std::time::Instant::now(),
        }
    }

    /// Simulated seconds since start: the nanoseconds charged, converted
    /// once, so equal charges give equal cells wherever the clock stood.
    /// Asserts that they are what the dataset's devices counted, priced: no
    /// timed figure runs a second thread to move the clock meanwhile.
    fn sim(&self) -> f64 {
        let ns = self.devices[0].0.clock().now_nanos() - self.sim_start;
        let priced: u64 = (self.devices.iter())
            .map(|(device, start)| device.charged_ns() - start)
            .sum();
        assert_eq!(ns, priced, "the clock moved by other than Σ count × price");
        ns as f64 / 1e9
    }

    /// Wall seconds since start.
    fn wall(&self) -> f64 {
        self.wall_start.elapsed().as_secs_f64()
    }
}

/// Figure 12: effectiveness of the point-lookup optimizations (Section 6.2).
///
/// Dataset: insert-only tweets (no updates), secondary index on `user_id`.
/// Variants are enabled cumulatively, as in the paper:
/// `naive` → `batch` → `batch/sLookup` → `batch/sLookup/bBF` → `+pID`.
///
/// Expected shapes (paper):
/// * 12a (low selectivity): batching helps a little; everything else is
///   noise — the time is dominated by the random reads themselves;
/// * 12b (high selectivity): naive lookup time explodes (random I/O across
///   components); batching is the big win; sLookup/bBF shave CPU at high
///   selectivity; a full scan wins beyond ~10-20%; pID gives little benefit;
/// * 12c: small batches already optimal for selective queries, a few MB
///   suffice for non-selective ones;
/// * 12d: batching + re-sorting still beats no batching.
fn fig12(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 100_000);
    let standard = insert_only(n, BloomKind::Standard);
    let blocked = insert_only(n, BloomKind::Blocked);
    let reps = 3;
    let batched = QueryOptions {
        batched: true,
        stateful: true,
        ..Default::default()
    };
    let variants: [(&str, &Dataset, QueryOptions); 5] = [
        ("naive", &standard, QueryOptions::naive()),
        (
            "batch",
            &standard,
            QueryOptions {
                batched: true,
                stateful: false,
                ..Default::default()
            },
        ),
        ("batch/sLookup", &standard, batched),
        ("batch/sLookup/bBF", &blocked, batched),
        (
            "batch/sLookup/bBF/pID",
            &blocked,
            QueryOptions {
                propagate_component_ids: true,
                ..batched
            },
        ),
    ];
    let sweep = |table: &mut Table, sels: [f64; 5]| {
        let ranges: Vec<_> = sels.iter().map(|s| ranges_for(*s, reps)).collect();
        for (label, ds, opts) in &variants {
            table.row(
                *label,
                ranges.iter().map(|r| run_query(ds, r, opts)).collect(),
            );
        }
    };

    let mut low = Table::new(
        "Figure 12a",
        "low query selectivities (query sim-seconds)",
        &["variant", "0.001%", "0.002%", "0.005%", "0.01%", "0.025%"],
    );
    sweep(&mut low, [0.00001, 0.00002, 0.00005, 0.0001, 0.00025]);

    let mut high = Table::new(
        "Figure 12b",
        "high query selectivities (query sim-seconds)",
        &["variant", "0.1%", "1%", "10%", "20%", "50%"],
    );
    // Full-scan baseline: flat across selectivities.
    standard.storage().clear_cache();
    let timer = Timer::start(&standard);
    black_box(standard.filter_scan().count().expect("scan").matches);
    high.row("scan", vec![timer.sim(); 5]);
    sweep(&mut high, [0.001, 0.01, 0.1, 0.2, 0.5]);

    let mut batch_memory = Table::new(
        "Figure 12c",
        "impact of batch memory size (query sim-seconds)",
        &["selectivity", "128KB", "1MB", "4MB", "16MB"],
    );
    for sel in [0.0001, 0.001, 0.01, 0.1] {
        let ranges = ranges_for(sel, reps);
        let times = [128 * 1024, 1024 * 1024, 4 * 1024 * 1024, 16 * 1024 * 1024]
            .iter()
            .map(|&batch_bytes| {
                run_query(
                    &blocked,
                    &ranges,
                    &QueryOptions {
                        batch_bytes,
                        ..batched
                    },
                )
            })
            .collect();
        batch_memory.row(format!("{}%", sel * 100.0), times);
    }

    let mut sorting = Table::new(
        "Figure 12d",
        "impact of sorting (query sim-seconds)",
        &["selectivity", "no_batching", "batching", "batching+sorting"],
    );
    for sel in [0.00001, 0.0001, 0.001, 0.01, 0.1] {
        let ranges = ranges_for(sel, reps);
        let sorted = QueryOptions {
            sort_output: true,
            ..batched
        };
        let times = [QueryOptions::naive(), batched, sorted]
            .iter()
            .map(|opts| run_query(&blocked, &ranges, opts))
            .collect();
        sorting.row(format!("{}%", sel * 100.0), times);
    }
    vec![low, high, batch_memory, sorting]
}

/// Figure 12's dataset: `n` new tweets inserted under Eager, flushed.
fn insert_only(n: usize, bloom: BloomKind) -> Arc<Dataset> {
    let ds = open(tweets_env(n), StrategyKind::Eager, 1, |c| {
        c.bloom_kind = bloom
    });
    let mut gen = TweetGenerator::new(TweetConfig::default());
    for _ in 0..n {
        ds.insert(&gen.next_new()).expect("insert");
    }
    ds.flush_all().expect("flush");
    ds
}

/// Pre-generates `k` distinct ranges per selectivity so every variant runs
/// the same queries (the paper repeats queries with different predicates
/// until times stabilize).
fn ranges_for(sel: f64, k: usize) -> Vec<(i64, i64)> {
    let mut q = SelectivityQueries::new((sel * 1e7) as u64);
    (0..k).map(|_| q.user_id_range(sel)).collect()
}

/// Average simulated seconds over the given ranges.
fn run_query(ds: &Dataset, ranges: &[(i64, i64)], opts: &QueryOptions) -> f64 {
    let timer = Timer::start(ds);
    for (lo, hi) in ranges {
        // Seed every knob from the swept variant; the dataset is Eager, so
        // the default-resolved validation would be None anyway.
        let res = ds
            .query("user_id")
            .range(*lo, *hi)
            .with_options(*opts)
            .execute()
            .expect("query");
        black_box(res.len());
    }
    timer.sim() / ranges.len() as f64
}

/// Figure 13: insert ingestion with and without the primary key index.
///
/// The insert workload checks key uniqueness before every insert; the check
/// can probe the primary index (full records, poorly cached) or the much
/// smaller primary key index. Duplicates (0% or 50%) are uniformly
/// distributed over past keys and must be rejected.
///
/// Expected shape (paper): without the pk index, throughput collapses once
/// the dataset outgrows the cache; with it, throughput stays much higher.
/// Duplicate-heavy workloads are FASTER with the pk index (duplicates are
/// rejected without storing anything) and slower without it (the uniqueness
/// probe misses cache). The same ordering holds on SSD with smaller gaps.
fn fig13(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 60_000);
    [("Figure 13a", false), ("Figure 13b", true)]
        .into_iter()
        .map(|(figure, ssd)| {
            let mut table = Table::new(
                figure,
                format!(
                    "insert ingestion on {} ({n} ops; cumulative sim-minutes at 25/50/75/100%)",
                    if ssd { "SSD" } else { "hard disk" }
                ),
                &["variant", "25%", "50%", "75%", "100%"],
            );
            for (label, with_pk_index, dup_ratio) in [
                ("pk-idx 0% dup", true, 0.0),
                ("pk-idx 50% dup", true, 0.5),
                ("no-pk-idx 0% dup", false, 0.0),
                ("no-pk-idx 50% dup", false, 0.5),
            ] {
                let env = EnvConfig {
                    ssd,
                    ..tweets_env(n)
                };
                let ds = open(env, StrategyKind::Eager, 1, |c| {
                    c.with_pk_index = with_pk_index
                });
                table.row(label, insert_series(&ds, dup_ratio, n));
            }
            table
        })
        .collect()
}

/// Inserts `n` tweets, `dup_ratio` of them duplicates, in batches; returns
/// the cumulative sim-minutes at 25/50/75/100% of the workload.
fn insert_series(ds: &Dataset, dup_ratio: f64, n: usize) -> Vec<f64> {
    let mut workload = InsertWorkload::new(TweetConfig::default(), dup_ratio);
    let timer = Timer::start(ds);
    let mut series = Vec::new();
    let step = (n / 4).max(1);
    let mut batch = ds.batch();
    for i in 0..n {
        match workload.next_op() {
            Op::Insert(r) => batch = batch.insert(&r),
            _ => unreachable!(),
        }
        // Commit at the batch size and at checkpoint boundaries so the
        // series still samples at exactly 25/50/75/100%. Duplicates come
        // back as staged `RejectedDuplicate` outcomes, not errors.
        if batch.len() == BATCH || (i + 1) % step == 0 {
            for out in batch.commit().expect("commit") {
                assert!(matches!(
                    out,
                    BatchOpResult::Inserted | BatchOpResult::RejectedDuplicate
                ));
            }
            batch = ds.batch();
        }
        if (i + 1) % step == 0 {
            series.push(timer.sim() / 60.0);
        }
    }
    if !batch.is_empty() {
        batch.commit().expect("commit");
    }
    series
}

/// Figure 14: upsert ingestion performance of the maintenance strategies.
///
/// Paper setup: 6-hour upsert runs, plotting total records ingested over
/// time for Eager, Validation (no repair), Validation, and Mutable-bitmap
/// under no updates / 50% uniform updates / 50% Zipf updates.
///
/// Expected shape (paper): Eager is the slowest (point lookups per upsert);
/// Validation without repair is the fastest; Validation with merge repair
/// adds only a small overhead; Mutable-bitmap sits close to Validation —
/// all of the lazy strategies are several times faster than Eager.
///
/// The paper's Eager looks every upsert up in the primary index: that is
/// the `eager (no pk index)` row, and it carries the "several times
/// faster" claim. The `eager` row first asks the primary key index's
/// Bloom filters, so a new key costs it no primary lookup: with no
/// updates (14a) it runs about as fast as Validation, and it still pays
/// a lookup for every update (14b, 14c).
fn fig14(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 60_000);
    let workloads = [
        ("Figure 14a", "no updates", 0.0, UpdateDistribution::Uniform),
        (
            "Figure 14b",
            "50% uniform",
            0.5,
            UpdateDistribution::Uniform,
        ),
        ("Figure 14c", "50% zipf", 0.5, UpdateDistribution::Zipf),
    ];
    workloads
        .into_iter()
        .map(|(figure, wname, update_ratio, distribution)| {
            let mut table = Table::new(
                figure,
                format!("upsert ingestion, {wname} ({n} ops)"),
                &["strategy", "sim_minutes", "krec_per_sim_min", "wall_s"],
            )
            .wall_clock(&["wall_s"]);
            for (name, strategy, merge_repair, with_pk_index) in [
                ("eager", StrategyKind::Eager, false, true),
                ("eager (no pk index)", StrategyKind::Eager, false, false),
                (
                    "validation (no repair)",
                    StrategyKind::Validation,
                    false,
                    true,
                ),
                ("validation", StrategyKind::Validation, true, true),
                ("mutable-bitmap", StrategyKind::MutableBitmap, true, true),
            ] {
                let ds = open(tweets_env(n), strategy, 1, |c| {
                    c.merge_repair = merge_repair;
                    c.with_pk_index = with_pk_index;
                });
                let mut workload =
                    UpsertWorkload::new(TweetConfig::default(), update_ratio, distribution);
                let timer = Timer::start(&ds);
                let mut batch = ds.batch();
                for _ in 0..n {
                    batch = match workload.next_op() {
                        Op::Insert(r) => batch.insert(&r),
                        Op::Upsert(r) => batch.upsert(&r),
                    };
                    if batch.len() == BATCH {
                        batch.commit().expect("commit");
                        batch = ds.batch();
                    }
                }
                if !batch.is_empty() {
                    batch.commit().expect("commit");
                }
                let (sim_min, wall) = (timer.sim() / 60.0, timer.wall());
                let krecs = ds.stats().records_ingested() as f64 / 1000.0;
                table.row(name, vec![sim_min, krecs / sim_min.max(1e-9), wall]);
            }
            table
        })
        .collect()
}

/// Figure 15: impact of merge frequency and of the number of secondary
/// indexes on upsert ingestion (Section 6.3.2).
///
/// (a) sweeps the maximum mergeable component size (the paper's 1GB–64GB,
/// scaled): smaller caps mean more merging for everyone, but the relative
/// ordering of the strategies is unchanged.
/// (b) sweeps the number of secondary indexes (1–5), adding the deleted-key
/// B+-tree baseline: more indexes hurt the lazy strategies more (their
/// bottleneck is flush/merge), and the deleted-key baseline pays much more
/// than the proposed repair.
fn fig15(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 40_000);
    let dataset_bytes = tweets_env(n).dataset_bytes;
    // Sim-minutes of `n` upserts, 10% uniform updates, unflushed.
    let run = |strategy, merge_repair, max_mergeable, secondaries| {
        let ds = open(tweets_env(n), strategy, secondaries, |c| {
            c.merge_repair = merge_repair;
            c.merge.max_mergeable_bytes = max_mergeable;
        });
        let mut workload =
            UpsertWorkload::new(TweetConfig::default(), 0.1, UpdateDistribution::Uniform);
        let timer = Timer::start(&ds);
        for _ in 0..n {
            apply(&ds, &workload.next_op());
        }
        timer.sim() / 60.0
    };

    // Scaled analogues of the paper's 1GB / 4GB / 16GB / 64GB.
    let caps: Vec<(String, u64)> = [50u64, 12, 3, 1]
        .iter()
        .map(|div| {
            let cap = (dataset_bytes / div).max(1024 * 1024);
            (format!("1/{div} dataset"), cap)
        })
        .collect();
    let mut merge_cap = Table::new(
        "Figure 15a",
        format!("upsert sim-minutes vs max mergeable component size ({n} ops, 10% updates)"),
        &["strategy", &caps[0].0, &caps[1].0, &caps[2].0, &caps[3].0],
    );
    for (label, strategy, repair) in [
        ("eager", StrategyKind::Eager, false),
        ("validation", StrategyKind::Validation, true),
        ("validation (no repair)", StrategyKind::Validation, false),
        ("mutable-bitmap", StrategyKind::MutableBitmap, true),
    ] {
        let times = caps
            .iter()
            .map(|(_, cap)| run(strategy, repair, *cap, 1))
            .collect();
        merge_cap.row(label, times);
    }

    let mut indexes = Table::new(
        "Figure 15b",
        format!("upsert sim-minutes vs number of secondary indexes ({n} ops, 10% updates)"),
        &["strategy", "1", "2", "3", "4", "5"],
    );
    let default_cap = dataset_bytes / 20;
    for (label, strategy, repair) in [
        ("eager", StrategyKind::Eager, false),
        ("validation", StrategyKind::Validation, true),
        ("validation (no repair)", StrategyKind::Validation, false),
        ("deleted-key B+tree", StrategyKind::DeletedKeyBTree, true),
    ] {
        let times = (1..=5)
            .map(|k| run(strategy, repair, default_cap, k))
            .collect();
        indexes.row(label, times);
    }
    vec![merge_cap, indexes]
}

/// The selectivities of Figures 16 and 17.
const QUERY_SELECTIVITIES: [f64; 5] = [0.00001, 0.00005, 0.0001, 0.001, 0.01];

/// Average simulated seconds of three `user_id` range queries at each
/// selectivity in `sels`. Each selectivity seeds its own query stream, so
/// every variant answers the same ranges.
fn selectivity_sweep(
    ds: &Dataset,
    sels: &[f64],
    validation: ValidationMethod,
    index_only: bool,
) -> Vec<f64> {
    sels.iter()
        .map(|&sel| {
            let mut q = SelectivityQueries::new((sel * 1e7) as u64);
            let reps = 3;
            let timer = Timer::start(ds);
            for _ in 0..reps {
                let (lo, hi) = q.user_id_range(sel);
                let mut query = ds.query("user_id").range(lo, hi).validation(validation);
                if index_only {
                    query = query.index_only();
                }
                black_box(query.execute().expect("query").len());
            }
            timer.sim() / reps as f64
        })
        .collect()
}

/// Figures 16 and 17: one table per update ratio (0% and 50%, the panels
/// `figures`) of query sim-seconds on Eager, then on unrepaired and on
/// merge-repaired Validation, each queried with every method of `methods`.
fn validation_figure(
    figures: [&str; 2],
    kind: &str,
    scale: f64,
    index_only: bool,
    methods: &[(&str, ValidationMethod)],
) -> Vec<Table> {
    let n = scaled(scale, 80_000);
    figures
        .into_iter()
        .zip([0.0, 0.5])
        .map(|(figure, update_ratio)| {
            let mut table = Table::new(
                figure,
                format!(
                    "{kind} query sim-seconds, update ratio {:.0}% ({n} ops)",
                    update_ratio * 100.0
                ),
                &["variant", "0.001%", "0.005%", "0.01%", "0.1%", "1%"],
            );
            let eager = open(tweets_env(n), StrategyKind::Eager, 1, |c| {
                c.merge_repair = false
            });
            loaded(&eager, n, update_ratio, UpdateDistribution::Uniform);
            let times = selectivity_sweep(
                &eager,
                &QUERY_SELECTIVITIES,
                ValidationMethod::None,
                index_only,
            );
            table.row("eager", times);
            drop(eager);
            for (merge_repair, suffix) in [(false, " (no repair)"), (true, "")] {
                let ds = open(tweets_env(n), StrategyKind::Validation, 1, |c| {
                    c.merge_repair = merge_repair
                });
                loaded(&ds, n, update_ratio, UpdateDistribution::Uniform);
                for (label, method) in methods {
                    let times = selectivity_sweep(&ds, &QUERY_SELECTIVITIES, *method, index_only);
                    table.row(format!("{label}{suffix}"), times);
                }
            }
            table
        })
        .collect()
}

/// Figure 16: non-index-only secondary-index query performance
/// (Section 6.4.1).
///
/// Datasets are prepared by upserting with actual update ratio 0% or 50%;
/// queries sweep selectivity 0.001%–1% and fetch full records.
///
/// Expected shape (paper): with no updates, Direct validation ≈ Eager and
/// Timestamp validation pays a small extra validation cost. With 50%
/// updates and no repair, Direct wastes I/O fetching obsolete keys at low
/// selectivity; Timestamp validation filters them via the pk index; with
/// merge repair both validation methods approach Eager.
fn fig16(scale: f64) -> Vec<Table> {
    validation_figure(
        ["Figure 16a", "Figure 16b"],
        "non-index-only",
        scale,
        false,
        &[
            ("direct", ValidationMethod::Direct),
            ("ts", ValidationMethod::Timestamp),
        ],
    )
}

/// Figure 17: index-only secondary-index query performance (Section 6.4.1).
///
/// Index-only queries return primary keys without fetching records; under
/// Eager the secondary scan alone suffices, while Timestamp validation adds
/// the sort + pk-index probing.
///
/// Expected shape (paper, log scale): Eager is 3–5× faster than Timestamp
/// validation; merge repair helps validation both by raising repaired
/// timestamps (more pk-index pruning) and by removing obsolete entries.
fn fig17(scale: f64) -> Vec<Table> {
    validation_figure(
        ["Figure 17a", "Figure 17b"],
        "index-only",
        scale,
        true,
        &[("ts", ValidationMethod::Timestamp)],
    )
}

/// Figure 18: Timestamp validation under a small buffer cache
/// (Section 6.4.1).
///
/// The paper shrinks the cache from 2GB to 512MB so the primary key index no
/// longer fits. Expected shape: the impact on Timestamp validation is
/// limited, because the pk index is far smaller than the primary index, so
/// validation adds only a small number of extra I/Os.
fn fig18(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 80_000);
    let mut table = Table::new(
        "Figure 18",
        format!("timestamp validation vs cache size ({n} records, no updates)"),
        &[
            "variant", "0.001%", "0.005%", "0.01%", "0.05%", "0.1%", "1%",
        ],
    );
    // The cache fractions of the paper's 2GB and 512MB caches.
    for (label, cache_fraction) in [
        ("ts validation", 0.067),
        ("ts validation (small cache)", 0.017),
    ] {
        let env = EnvConfig {
            cache_fraction,
            ..tweets_env(n)
        };
        let ds = open(env, StrategyKind::Validation, 1, |_| {});
        // The paper's figure 18 dataset has no updates.
        loaded(&ds, n, 0.0, UpdateDistribution::Uniform);
        let sels = [0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.01];
        let times = selectivity_sweep(&ds, &sels, ValidationMethod::Timestamp, false);
        table.row(label, times);
    }
    vec![table]
}

/// Figure 19: query performance of range filters (Section 6.4.2).
///
/// The dataset's `creation_time` is monotonically increasing, so components
/// are time-correlated and carry tight range filters. Queries select the
/// most recent or the oldest `d` days of a ~2-year span.
///
/// Expected shape (paper): for recent-data queries all strategies prune
/// well (Mutable-bitmap slightly best: no reconciliation). For old-data
/// queries the Validation strategy loses all pruning (every newer component
/// must be read); Eager prunes only in the append-only case (updates widen
/// its filters); Mutable-bitmap prunes effectively in every setting.
fn fig19(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 80_000);
    let configs = [
        ("Figure 19a", "recent + 50% updates", 0.5, true),
        ("Figure 19b", "old + 0% updates", 0.0, false),
        ("Figure 19c", "old + 50% updates", 0.5, false),
    ];
    configs
        .into_iter()
        .map(|(figure, cname, update_ratio, recent)| {
            let mut table = Table::new(
                figure,
                format!("range-filter scan sim-seconds, {cname} ({n} ops)"),
                &["strategy", "1d", "7d", "30d", "180d", "365d"],
            );
            for (label, strategy) in [
                ("eager", StrategyKind::Eager),
                ("validation", StrategyKind::Validation),
                ("mutable-bitmap", StrategyKind::MutableBitmap),
            ] {
                let ds = open(tweets_env(n), strategy, 1, |_| {});
                let max_time = loaded(&ds, n, update_ratio, UpdateDistribution::Uniform)
                    .generator()
                    .time_watermark();
                let times = [1, 7, 30, 180, 365]
                    .iter()
                    .map(|&days| time_range_scan(&ds, max_time, days, recent))
                    .collect();
                table.row(label, times);
            }
            table
        })
        .collect()
}

/// Average simulated seconds of a cold-cache `creation_time` filter scan
/// selecting the most recent (or, unless `recent`, the oldest) `days` of
/// a 730-day span whose times run `0..max_time`.
fn time_range_scan(ds: &Dataset, max_time: i64, days: i64, recent: bool) -> f64 {
    const TOTAL_DAYS: i64 = 730;
    // The paper measures with a clean cache (5 runs averaged).
    let reps = 2;
    let mut total = 0.0;
    for _ in 0..reps {
        ds.storage().clear_cache();
        let timer = Timer::start(ds);
        let scan = if recent {
            let lo = max_time - max_time * days / TOTAL_DAYS;
            ds.filter_scan().range_from(Value::Int(lo))
        } else {
            ds.filter_scan()
                .range_to(Value::Int(max_time * days / TOTAL_DAYS))
        };
        let report = scan.count().expect("scan");
        total += timer.sim();
        black_box(report.matches);
    }
    total / reps as f64
}

/// How a checkpoint of Figures 20–22 brings the secondary indexes
/// up-to-date.
#[derive(Clone, Copy)]
enum Repair {
    /// DELI-style primary repair, with or without a piggybacked full
    /// primary merge.
    Primary { merge: bool },
    /// The proposed secondary repair over the pk index, with or without the
    /// Bloom-filter optimization.
    Secondary { bloom: bool },
}

impl Repair {
    /// The methods of Figures 21 and 22. Figure 20 adds primary repair with
    /// a merge.
    const METHODS: [Repair; 3] = [
        Repair::Primary { merge: false },
        Repair::Secondary { bloom: false },
        Repair::Secondary { bloom: true },
    ];

    fn label(self) -> &'static str {
        match self {
            Repair::Primary { merge: false } => "primary repair",
            Repair::Primary { merge: true } => "primary repair (merge)",
            Repair::Secondary { bloom: false } => "secondary repair",
            Repair::Secondary { bloom: true } => "secondary repair (bf)",
        }
    }

    /// Repairs `ds` and returns the simulated seconds it took.
    fn run(self, ds: &Dataset) -> f64 {
        match self {
            Repair::Primary { merge } => {
                let timer = Timer::start(ds);
                ds.maintenance()
                    .plan()
                    .with_merge(merge)
                    .repair_primary()
                    .expect("primary repair");
                timer.sim()
            }
            Repair::Secondary { bloom } => critical_path(ds, ds.maintenance().plan().bloom(bloom)),
        }
    }
}

/// Repairs each secondary index of `ds` with `plan`, one after another, and
/// returns the largest single-index simulated time: the critical path of
/// the paper's one-thread-per-index repair, since the simulated clock adds
/// up all work. With one index that is the whole repair.
fn critical_path(ds: &Dataset, plan: RepairPlan<'_>) -> f64 {
    ds.secondaries().iter().fold(0.0, |max: f64, sec| {
        let timer = Timer::start(ds);
        plan.repair_index(&sec.name).expect("secondary repair");
        max.max(timer.sim())
    })
}

/// Runs `n` ops of `workload` on a Validation dataset in `env` with
/// `secondaries` indexes and merge repair off (unless `repair` needs it for
/// the Bloom-filter optimization). After each fifth of the workload it
/// flushes and repairs with `repair`; returns the five repair times.
fn repair_series(
    repair: Repair,
    env: EnvConfig,
    secondaries: usize,
    mut workload: UpsertWorkload,
    n: usize,
) -> Vec<f64> {
    let ds = open(env, StrategyKind::Validation, secondaries, |c| {
        c.merge_repair = false;
        if let Repair::Secondary { bloom: true } = repair {
            bloom_opt(c);
        }
    });
    let checkpoints = 5;
    let step = n / checkpoints;
    (0..checkpoints)
        .map(|_| {
            for _ in 0..step {
                apply(&ds, &workload.next_op());
            }
            ds.flush_all().expect("flush");
            repair.run(&ds)
        })
        .collect()
}

/// The config the Bloom-filter repair optimization needs (Section 4.4). It
/// is sound only when merges are correlated and every merge repairs the
/// secondary indexes; otherwise merged pk-index components span the
/// repaired-timestamp boundary and defeat pruning. Its win is the work it
/// skips: an entry whose key no pk-index component newer than the last
/// repair may contain is neither sorted nor validated. The filters it
/// probes are the engine's default, as in every other arm.
fn bloom_opt(cfg: &mut DatasetConfig) {
    cfg.merge.correlated = true;
    cfg.repair_bloom_opt = true;
    cfg.merge_repair = true;
}

/// Figure 20: index repair performance over time (Section 6.5).
///
/// Ingestion runs with merge repair disabled; after every fifth of the
/// workload, ingestion pauses and a full repair brings the secondary index
/// up-to-date. Methods: DELI-style primary repair (with and without a
/// piggybacked full primary merge) vs the proposed secondary repair (with
/// and without the Bloom filter optimization).
///
/// Expected shape (paper): secondary repair always beats primary repair
/// (it reads the small pk index, not full records); the Bloom optimization
/// reduces sorting/validation further; a primary merge helps subsequent
/// primary repairs under updates but costs extra in append-only workloads.
fn fig20(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 50_000);
    [("Figure 20a", 0.0), ("Figure 20b", 0.5)]
        .into_iter()
        .map(|(figure, update_ratio)| {
            let mut table = Table::new(
                figure,
                format!(
                    "repair sim-seconds after each 20% of {n} ops, update ratio {:.0}%",
                    update_ratio * 100.0
                ),
                &["method", "20%", "40%", "60%", "80%", "100%"],
            );
            for repair in [
                Repair::Primary { merge: false },
                Repair::Primary { merge: true },
                Repair::Secondary { bloom: false },
                Repair::Secondary { bloom: true },
            ] {
                let workload = UpsertWorkload::new(
                    TweetConfig::default(),
                    update_ratio,
                    UpdateDistribution::Uniform,
                );
                let series = repair_series(repair, tweets_env(n), 1, workload, n);
                table.row(repair.label(), series);
            }
            table
        })
        .collect()
}

/// Figure 21: repair with large (1KB) records, update ratio 10%
/// (Section 6.5).
///
/// Expected shape (paper): large records hurt primary repair (it scans full
/// records) but leave secondary repair untouched (it reads only the
/// primary key index).
fn fig21(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 40_000);
    let record_bytes = 1000;
    let mut table = Table::new(
        "Figure 21",
        format!("repair sim-seconds with 1KB records ({n} ops, 10% updates)"),
        &["method", "20%", "40%", "60%", "80%", "100%"],
    );
    for repair in Repair::METHODS {
        let workload = UpsertWorkload::new(
            TweetConfig::with_record_bytes(record_bytes),
            0.1,
            UpdateDistribution::Uniform,
        );
        let env = EnvConfig {
            dataset_bytes: (n * record_bytes) as u64,
            ..Default::default()
        };
        table.row(repair.label(), repair_series(repair, env, 1, workload, n));
    }
    vec![table]
}

/// Figure 22: repair with five secondary indexes, update ratio 10%
/// (Section 6.5).
///
/// The paper repairs the five indexes in parallel, one thread per index.
/// Here secondary repair repairs them one after another and reports the
/// largest single-index repair time as the critical path; primary repair
/// pays more anti-matter insertions per index. Expected shape (paper): both
/// methods slow down with more indexes, but secondary repair stays far
/// below primary repair, and the Bloom optimization reduces the per-index
/// sorting further.
fn fig22(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 40_000);
    let mut table = Table::new(
        "Figure 22",
        format!("repair sim-seconds with 5 secondary indexes ({n} ops, 10% updates)"),
        &["method", "20%", "40%", "60%", "80%", "100%"],
    );
    for repair in Repair::METHODS {
        let workload =
            UpsertWorkload::new(TweetConfig::default(), 0.1, UpdateDistribution::Uniform);
        table.row(
            repair.label(),
            repair_series(repair, tweets_env(n), 5, workload, n),
        );
    }
    vec![table]
}

/// Figure 23: overhead of the Mutable-bitmap concurrency-control methods
/// (Section 6.6).
///
/// Four components are merged while writers ingest at maximum speed.
/// Baseline = the same merge with no coordination. Because lock overhead is
/// real CPU work (not simulated I/O), this figure reports **wall-clock**
/// merge time.
///
/// Expected shape (paper): the Side-file method is within noise of the
/// baseline; the Lock method is consistently slower (per-key latching);
/// the Lock method's gap narrows as records grow (locking is amortized
/// over larger copies) and it benefits from updates (deleted entries are
/// skipped during the merge, while the Side-file method applies them in
/// catch-up).
fn fig23(scale: f64) -> Vec<Table> {
    let base = scaled(scale, 30_000) / 4;
    // One row per method; one cell per `(records per component, record
    // bytes, update ratio)`.
    let sweep = |figure, title: String, columns: &[&str], cells: [(usize, usize, f64); 5]| {
        let mut table = Table::new(figure, title, columns).wall_clock(&columns[1..]);
        for (label, method) in [
            ("baseline", CcMethod::Baseline),
            ("side-file", CcMethod::SideFile),
            ("lock", CcMethod::Lock),
        ] {
            let times = cells
                .iter()
                .map(|&(per_comp, record_bytes, update_ratio)| {
                    cc_merge_secs(per_comp, record_bytes, method, update_ratio)
                })
                .collect();
            table.row(label, times);
        }
        table
    };
    vec![
        sweep(
            "Figure 23a",
            format!("merge wall-seconds vs update ratio (4 x {base} records of 100B)"),
            &["method", "0%", "20%", "40%", "80%", "100%"],
            [0.0, 0.2, 0.4, 0.8, 1.0].map(|ratio| (base, 100, ratio)),
        ),
        sweep(
            "Figure 23b",
            format!("merge wall-seconds vs record size (4 x {base} records, 50% updates)"),
            &["method", "20B", "100B", "200B", "500B", "1000B"],
            [20, 100, 200, 500, 1000].map(|bytes| (base, bytes, 0.5)),
        ),
        sweep(
            "Figure 23c",
            format!("merge wall-seconds vs records per component ({base} x factor, 50% updates)"),
            &["method", "1x", "2x", "3x", "4x", "5x"],
            [1, 2, 3, 4, 5].map(|factor| (base * factor, 100, 0.5)),
        ),
    ]
}

/// Loads 4 components of `per_comp` records of ~`record_bytes` each, then
/// merges them under `method` while one writer thread upserts at max
/// speed; `update_ratio` of the writer's ops target keys in the merging
/// components. Returns wall seconds for the merge.
fn cc_merge_secs(per_comp: usize, record_bytes: usize, method: CcMethod, update_ratio: f64) -> f64 {
    let dataset_bytes = (4 * per_comp * record_bytes) as u64;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ..Default::default()
    });
    let mut cfg = tweet_dataset_config(StrategyKind::MutableBitmap, dataset_bytes, 0);
    cfg.memory_budget = usize::MAX; // flush manually into exactly 4 components
    let ds = Dataset::open(env.storage.clone(), None, cfg).expect("dataset");
    let mut gen = TweetGenerator::new(TweetConfig::with_record_bytes(record_bytes));
    for _ in 0..4 {
        for _ in 0..per_comp {
            ds.insert(&gen.next_new()).expect("insert");
        }
        ds.flush_all().expect("flush");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writer_stop = stop.clone();
    let existing: Vec<i64> = (0..gen.num_issued()).map(|i| gen.issued_key(i)).collect();
    let writer_ds = ds.clone();
    let writer = std::thread::spawn(move || {
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut fresh: i64 = i64::MAX / 2;
        let msg = "m".repeat(record_bytes.saturating_sub(50).max(1));
        while !writer_stop.load(Ordering::Relaxed) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
            let id = if frac < update_ratio && !existing.is_empty() {
                existing[(x % existing.len() as u64) as usize]
            } else {
                fresh += 1;
                fresh
            };
            let r = Record::new(vec![
                Value::Int(id),
                Value::Int((x % 100_000) as i64),
                Value::Str("CA".into()),
                Value::Int(0),
                Value::Str(msg.clone()),
            ]);
            writer_ds.upsert_no_maintenance(&r).expect("upsert");
        }
    });

    let range = MergeRange {
        start: 0,
        end: ds.primary().num_disk_components() - 1,
    };
    let wall = std::time::Instant::now();
    merge_primary_with_cc(&ds, range, method).expect("merge");
    let elapsed = wall.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer");
    elapsed
}

/// Ablation studies for design choices the paper fixes without sweeping,
/// on the paper's tiering merge policy (§6.1):
///
/// 1. **Bloom filters** — point-lookup cost with standard and blocked
///    Bloom filters on the primary/pk components.
/// 2. **Query-driven repair** (our §7 future-work extension) — repeated
///    query cost on an update-heavy dataset with and without it.
fn ablation(scale: f64) -> Vec<Table> {
    let n = scaled(scale, 40_000);
    let mut bloom = Table::new(
        "Ablation 1",
        format!("bloom filter variant ({n} upserts; 0.05% point queries)"),
        &["bloom", "query_sim_s", "bloom_negatives_per_query"],
    );
    for (label, kind) in [
        ("standard", BloomKind::Standard),
        ("blocked", BloomKind::Blocked),
    ] {
        let ds = tiered(n, kind);
        let negatives = || ds.storage().stats().bloom_negatives;
        let before = negatives();
        let reps = 5;
        let mut q = SelectivityQueries::new(17);
        let timer = Timer::start(&ds);
        for _ in 0..reps {
            let (lo, hi) = q.user_id_range(0.0005);
            let res = ds
                .query("user_id")
                .range(lo, hi)
                .validation(ValidationMethod::Timestamp)
                .execute()
                .expect("query");
            black_box(res.len());
        }
        let query_secs = timer.sim() / reps as f64;
        let per_query = (negatives() - before) as f64 / reps as f64;
        bloom.row(label, vec![query_secs, per_query]);
    }

    let mut repair = Table::new(
        "Ablation 2",
        "query-driven repair: same query repeated on an update-heavy dataset",
        &["variant", "run1_sim_ms", "run2_sim_ms", "run3_sim_ms"],
    );
    for (label, query_driven_repair) in [("off", false), ("on", true)] {
        let ds = tiered(n, BloomKind::default());
        let (lo, hi) = SelectivityQueries::new(23).user_id_range(0.05);
        let runs = (0..3)
            .map(|_| {
                let timer = Timer::start(&ds);
                // Index-only isolates the validation cost that query-driven
                // repair amortizes (record fetches would dominate otherwise).
                let res = ds
                    .query("user_id")
                    .range(lo, hi)
                    .index_only()
                    .query_driven_repair(query_driven_repair)
                    .execute()
                    .expect("query");
                black_box(res.len());
                timer.sim() * 1e3
            })
            .collect();
        repair.row(label, runs);
    }
    vec![bloom, repair]
}

/// The ablations' dataset: `n` upserts (10% uniform updates) into
/// Validation, every index merged with the uncapped tiering policy every
/// 512 operations instead of by the built-in merge pipeline, then flushed.
fn tiered(n: usize, bloom: BloomKind) -> Arc<Dataset> {
    let ds = open(tweets_env(n), StrategyKind::Validation, 1, |c| {
        c.bloom_kind = bloom;
        // An unreachable trigger ratio disables the built-in pipeline.
        c.merge.max_mergeable_bytes = u64::MAX;
        c.merge.size_ratio = f64::INFINITY;
    });
    let policy = TieringPolicy::new(u64::MAX);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.1, UpdateDistribution::Uniform);
    for i in 0..n {
        apply(&ds, &workload.next_op());
        if i % 512 == 0 {
            while ds.primary().maybe_merge(&policy).expect("merge") {}
            if let Some(pk) = ds.pk_index() {
                while pk.maybe_merge(&policy).expect("merge") {}
            }
            let sec = &ds.secondaries()[0].tree;
            while sec.maybe_merge(&policy).expect("merge") {}
        }
    }
    ds.flush_all().expect("flush");
    ds
}
