//! Shared harness for the figure-reproduction benchmarks.
//!
//! Every bench target in `benches/` regenerates one figure of Section 6.
//! The paper's testbed (80M tweets ≈ 30GB on a 7200rpm disk, 2GB buffer
//! cache, 128MB memory components, 1GB maximum mergeable components) is
//! scaled down by roughly 200× while preserving the *ratios* that shape the
//! results:
//!
//! | knob                     | paper    | here (default)        |
//! |--------------------------|----------|-----------------------|
//! | records                  | 80M      | ~100K (per bench)     |
//! | record size              | ~500B    | 500B                  |
//! | buffer cache / dataset   | ~6.7%    | same ratio            |
//! | memory comps / dataset   | ~0.4%    | ~1% (merge pacing)    |
//! | max mergeable / dataset  | ~3.3%    | ~5% (≈20 components)  |
//! | page size                | 128KB    | 128KB (≈260 recs/page)|
//! | bloom FPR                | 1%       | 1%                    |
//! | tiering size ratio       | 1.2      | 1.2                   |
//!
//! Results are reported in **simulated seconds** (the paper's y-axes) with
//! wall-clock seconds alongside. `EXPERIMENTS.md` records paper-vs-measured
//! shapes.

use lsm_common::{Record, Value};
use lsm_engine::{Dataset, DatasetConfig, MaintenanceRuntime, SecondaryIndexDef, StrategyKind};
use lsm_storage::{SimClock, Storage, StorageOptions};
use lsm_workload::{Op, TweetConfig, TweetGenerator, UpdateDistribution, UpsertWorkload};
use std::sync::Arc;

/// Allocation counting for the zero-copy acceptance numbers.
///
/// The tracker is a pass-through [`System`](std::alloc::System) allocator
/// that counts calls. It only counts when a binary registers it:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: lsm_bench::alloc_track::CountingAlloc =
///     lsm_bench::alloc_track::CountingAlloc;
/// ```
///
/// The `alloc_budget` test registers it and asserts allocation counts per
/// operation. In binaries that don't register it,
/// [`allocations`](alloc_track::allocations) stays at zero.
pub mod alloc_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// A counting pass-through over the system allocator.
    pub struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counter has no effect on
    // the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Heap allocations made so far by this process (0 unless the binary
    /// registered [`CountingAlloc`] as its global allocator).
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// `n` scaled by the bench scale factor, `LSM_BENCH_SCALE` (default 1.0;
/// e.g. 0.2 for a quick smoke run, 4.0 for a long run).
pub fn scaled(n: usize) -> usize {
    let scale: f64 = std::env::var("LSM_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    ((n as f64) * scale).max(16.0) as usize
}

/// A scaled experimental environment.
pub struct Env {
    /// Data device.
    pub storage: Arc<Storage>,
    /// Log device (separate disk, as in §6.1), sharing the same clock.
    pub log_storage: Arc<Storage>,
    /// Shared simulated clock.
    pub clock: SimClock,
}

/// Knobs for [`Env::new`].
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Expected dataset size in bytes (sizes the cache).
    pub dataset_bytes: u64,
    /// Buffer cache as a fraction of the dataset (paper: 2GB / 30GB).
    pub cache_fraction: f64,
    /// Use the SSD profile instead of HDD.
    pub ssd: bool,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            dataset_bytes: 50 * 1024 * 1024,
            cache_fraction: 0.067,
            ssd: false,
        }
    }
}

impl Env {
    /// Creates a scaled environment on the device `cfg.ssd` picks.
    pub fn new(cfg: &EnvConfig) -> Self {
        let cache_bytes = (cfg.dataset_bytes as f64 * cfg.cache_fraction) as usize;
        let opts = if cfg.ssd {
            StorageOptions::ssd(cache_bytes)
        } else {
            StorageOptions::hdd(cache_bytes)
        };
        let clock = SimClock::new();
        let storage = Storage::with_clock(opts.clone(), clock.clone());
        let log_storage = Storage::with_clock(opts, clock.clone());
        Env {
            storage,
            log_storage,
            clock,
        }
    }
}

/// Builds the tweet dataset configuration of Section 6.1: secondary index
/// on `user_id`, range filter on `creation_time`.
pub fn tweet_dataset_config(
    strategy: StrategyKind,
    dataset_bytes: u64,
    num_secondaries: usize,
) -> DatasetConfig {
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = strategy;
    cfg.filter_field = Some(3); // creation_time
    cfg.secondary_indexes = (0..num_secondaries)
        .map(|i| SecondaryIndexDef {
            name: if i == 0 {
                "user_id".into()
            } else {
                format!("user_id_{i}")
            },
            field: 1, // all on user_id, as in §6.3 ("adding more indexes")
        })
        .collect();
    cfg.memory_budget = (dataset_bytes / 100).max(256 * 1024) as usize;
    cfg.merge.max_mergeable_bytes = (dataset_bytes / 20).max(1024 * 1024);
    cfg
}

/// Opens a tweet dataset in `env`.
pub fn open_tweet_dataset(env: &Env, cfg: DatasetConfig) -> Arc<Dataset> {
    Dataset::open(env.storage.clone(), Some(env.log_storage.clone()), cfg)
        .expect("valid bench dataset")
}

/// Applies one workload op to the dataset.
pub fn apply(ds: &Dataset, op: &Op) {
    match op {
        Op::Insert(r) => {
            ds.insert(r).expect("insert");
        }
        Op::Upsert(r) => ds.upsert(r).expect("upsert"),
    }
}

/// Prepares a tweet dataset of `n` records with `update_ratio` updates,
/// returning the dataset and the generator used (for key access).
pub fn prepare_dataset(
    env: &Env,
    strategy: StrategyKind,
    dataset_bytes: u64,
    n: usize,
    update_ratio: f64,
    distribution: UpdateDistribution,
) -> (Arc<Dataset>, UpsertWorkload) {
    let cfg = tweet_dataset_config(strategy, dataset_bytes, 1);
    let ds = open_tweet_dataset(env, cfg);
    let mut workload = UpsertWorkload::new(TweetConfig::default(), update_ratio, distribution);
    for _ in 0..n {
        let op = workload.next_op();
        apply(&ds, &op);
    }
    ds.flush_all().expect("flush");
    (ds, workload)
}

/// What one maintenance-heavy multi-dataset run measured.
#[derive(Debug, Clone, Copy)]
pub struct SharedRuntimeRun {
    /// Wall seconds for the concurrent ingest phase.
    pub ingest_wall_secs: f64,
    /// Aggregate writer throughput across all datasets.
    pub ingest_ops_per_sec: f64,
    /// Wall seconds draining every dataset's background queue.
    pub quiesce_wall_secs: f64,
    /// Background flush jobs executed, summed over the datasets.
    pub flush_jobs: u64,
    /// Background merge jobs executed, summed over the datasets.
    pub merge_jobs: u64,
}

/// The maintenance-heavy scenario behind the `background_ingestion`
/// bench: `datasets` small tweet datasets ingest
/// `n_per` upserts each on one writer thread apiece (distinct workload
/// seeds), either maintaining inline (`runtime` = `None` — every writer
/// pays its own flush/merge cost) or all registered on one shared
/// [`MaintenanceRuntime`].
pub fn run_shared_runtime_scenario(
    runtime: Option<&Arc<MaintenanceRuntime>>,
    datasets: usize,
    n_per: usize,
) -> SharedRuntimeRun {
    let dataset_bytes = (n_per as u64) * 550;
    let handles: Vec<Arc<Dataset>> = (0..datasets)
        .map(|_| {
            let env = Env::new(&EnvConfig {
                dataset_bytes,
                ssd: true,
                ..Default::default()
            });
            let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
            // The scenario exists to exercise maintenance: size the budget
            // below the ingested data even at bench-smoke scale, where the
            // tweet config's 256KB floor would otherwise mean zero flushes.
            cfg.memory_budget = ((dataset_bytes / 16) as usize).max(16 * 1024);
            match runtime {
                Some(rt) => Dataset::open_with_runtime(
                    env.storage.clone(),
                    Some(env.log_storage.clone()),
                    cfg,
                    rt,
                )
                .expect("dataset"),
                None => Dataset::open(env.storage.clone(), Some(env.log_storage.clone()), cfg)
                    .expect("dataset"),
            }
        })
        .collect();

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for (d, ds) in handles.iter().enumerate() {
            scope.spawn(move || {
                let mut workload = UpsertWorkload::new(
                    TweetConfig {
                        seed: d as u64 + 1,
                        ..TweetConfig::default()
                    },
                    0.5,
                    UpdateDistribution::Uniform,
                );
                for _ in 0..n_per {
                    apply(ds, &workload.next_op());
                }
            });
        }
    });
    let ingest_wall_secs = start.elapsed().as_secs_f64();
    let q = std::time::Instant::now();
    for ds in &handles {
        ds.maintenance().quiesce().expect("quiesce");
    }
    let quiesce_wall_secs = q.elapsed().as_secs_f64();

    let mut flush_jobs = 0;
    let mut merge_jobs = 0;
    for ds in &handles {
        let snap = ds.stats().snapshot();
        flush_jobs += snap.flush_jobs;
        merge_jobs += snap.merge_jobs;
    }
    SharedRuntimeRun {
        ingest_wall_secs,
        ingest_ops_per_sec: (datasets * n_per) as f64 / ingest_wall_secs,
        quiesce_wall_secs,
        flush_jobs,
        merge_jobs,
    }
}

/// What one query-heavy run measured: the same secondary range queries
/// executed serially and with `parallel(n)` over a pre-loaded
/// multi-component dataset.
#[derive(Debug, Clone, Copy)]
pub struct QueryHeavyRun {
    /// Records pre-loaded into the dataset.
    pub records: usize,
    /// Secondary range queries per pass.
    pub queries: usize,
    /// The `parallel(n)` fan-out measured against serial.
    pub parallelism: usize,
    /// Disk components of the secondary index at query time.
    pub components: usize,
    /// Wall seconds for the serial pass.
    pub serial_wall_secs: f64,
    /// Wall seconds for the parallel pass (same queries, cold cache both).
    pub parallel_wall_secs: f64,
    /// `serial_wall_secs / parallel_wall_secs` — ≥ 1 means parallel won.
    pub speedup: f64,
    /// Rows returned per pass (asserted identical between the passes).
    pub rows: usize,
    /// Scan partitions actually planned across the parallel pass.
    pub partitions: u64,
}

/// The query-heavy scenario behind the `parallel_query` bench: pre-load a
/// Validation tweet dataset with enough flush/merge churn to leave several
/// disk components, then run `queries`
/// secondary `user_id` range queries twice — serially and with
/// `parallel(n)` — from a cold cache each time, comparing wall-clock time.
/// Queries sweep rotating ~10% slices of the `user_id` domain: wide
/// analytical ranges whose scan and record-fetch work is what the
/// partitioned path spreads across cores.
pub fn run_query_heavy_scenario(n: usize, queries: usize, parallelism: usize) -> QueryHeavyRun {
    use lsm_workload::USER_ID_DOMAIN;
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ssd: true,
        ..Default::default()
    });
    let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    // Size memory so the load leaves a real component stack behind.
    cfg.memory_budget = ((dataset_bytes / 24) as usize).max(64 * 1024);
    let ds = open_tweet_dataset(&env, cfg);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.3, UpdateDistribution::Uniform);
    for _ in 0..n {
        apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");

    let slice = (USER_ID_DOMAIN / 10).max(1);
    let range_of = |q: usize| {
        let lo = (q as i64 * slice * 3) % (USER_ID_DOMAIN - slice);
        (lo, lo + slice - 1)
    };

    env.storage.clear_cache();
    let serial_t = std::time::Instant::now();
    let mut serial_rows = 0usize;
    for q in 0..queries {
        let (lo, hi) = range_of(q);
        serial_rows += ds
            .query("user_id")
            .range(lo, hi)
            .execute()
            .expect("serial query")
            .len();
    }
    let serial_wall_secs = serial_t.elapsed().as_secs_f64();

    env.storage.clear_cache();
    let before = ds.stats().snapshot();
    let par_t = std::time::Instant::now();
    let mut par_rows = 0usize;
    for q in 0..queries {
        let (lo, hi) = range_of(q);
        par_rows += ds
            .query("user_id")
            .range(lo, hi)
            .parallel(parallelism)
            .execute()
            .expect("parallel query")
            .len();
    }
    let parallel_wall_secs = par_t.elapsed().as_secs_f64();
    assert_eq!(serial_rows, par_rows, "parallel pass changed the answer");
    let snap = ds.stats().snapshot();

    QueryHeavyRun {
        records: n,
        queries,
        parallelism,
        components: ds
            .secondary("user_id")
            .expect("index")
            .tree
            .num_disk_components(),
        serial_wall_secs,
        parallel_wall_secs,
        speedup: serial_wall_secs / parallel_wall_secs.max(1e-9),
        rows: serial_rows,
        partitions: snap.query_partitions - before.query_partitions,
    }
}

/// A stopwatch pairing simulated and wall-clock time.
pub struct Timer {
    clock: SimClock,
    sim_start: f64,
    wall_start: std::time::Instant,
}

impl Timer {
    /// Starts timing on `clock`.
    pub fn start(clock: &SimClock) -> Self {
        Timer {
            clock: clock.clone(),
            sim_start: clock.now_secs(),
            wall_start: std::time::Instant::now(),
        }
    }

    /// `(simulated seconds, wall seconds)` since start.
    pub fn elapsed(&self) -> (f64, f64) {
        (
            self.clock.now_secs() - self.sim_start,
            self.wall_start.elapsed().as_secs_f64(),
        )
    }
}

/// Prints a table header for a figure.
pub fn table_header(figure: &str, title: &str, columns: &[&str]) {
    println!();
    println!("=== {figure}: {title} ===");
    println!("{}", columns.join("\t"));
}

/// Prints one row of numbers.
pub fn row(label: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    println!("{label}\t{}", cells.join("\t"));
}

/// Builds a `creation_time` range predicate selecting the most recent
/// `days` out of `total_days` over a dataset whose creation times span
/// `0..max_time`.
pub fn recent_time_range(
    max_time: i64,
    days: i64,
    total_days: i64,
) -> (Option<Value>, Option<Value>) {
    let lo = max_time - max_time * days / total_days;
    (Some(Value::Int(lo)), None)
}

/// Range predicate selecting the OLDEST `days` out of `total_days`.
pub fn old_time_range(max_time: i64, days: i64, total_days: i64) -> (Option<Value>, Option<Value>) {
    let hi = max_time * days / total_days;
    (None, Some(Value::Int(hi)))
}

/// Convenience: a record's primary key value.
pub fn pk_of(r: &Record) -> i64 {
    r.get(0).as_int().expect("int pk")
}
