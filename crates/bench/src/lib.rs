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
/// `perf_snapshot` registers it and reports allocations per point lookup;
/// in binaries that don't, [`allocations`](alloc_track::allocations) stays
/// at zero and derived metrics are reported as zero.
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

/// Scale factor for bench sizes; override with `LSM_BENCH_SCALE` (e.g. 0.2
/// for a quick smoke run, 4.0 for a long run).
pub fn scale() -> f64 {
    std::env::var("LSM_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// `n` scaled by [`scale`].
pub fn scaled(n: usize) -> usize {
    ((n as f64) * scale()).max(16.0) as usize
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

/// Simulated device profile for an [`Env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchDevice {
    /// 7200rpm disk: 128KB pages, expensive seeks (the paper's testbed).
    Hdd,
    /// SATA SSD: 32KB pages, cheap seeks.
    Ssd,
    /// NVMe flash: 16KB pages, near-free seeks.
    Nvme,
}

impl BenchDevice {
    /// All devices, in sweep order.
    pub const ALL: [BenchDevice; 3] = [BenchDevice::Hdd, BenchDevice::Ssd, BenchDevice::Nvme];

    /// Short name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            BenchDevice::Hdd => "hdd",
            BenchDevice::Ssd => "ssd",
            BenchDevice::Nvme => "nvme",
        }
    }

    /// Storage options for this profile with `cache_bytes` of buffer cache.
    pub fn options(self, cache_bytes: usize) -> StorageOptions {
        match self {
            BenchDevice::Hdd => StorageOptions::hdd(cache_bytes),
            BenchDevice::Ssd => StorageOptions::ssd(cache_bytes),
            BenchDevice::Nvme => StorageOptions::nvme(cache_bytes),
        }
    }
}

/// Knobs for [`Env::new`].
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Expected dataset size in bytes (sizes the cache).
    pub dataset_bytes: u64,
    /// Buffer cache as a fraction of the dataset (paper: 2GB / 30GB).
    pub cache_fraction: f64,
    /// Use the SSD profile instead of HDD. Kept for the existing bench
    /// literals; [`Env::new_with_device`] overrides it for the three-way
    /// hdd/ssd/nvme sweeps.
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
        let device = if cfg.ssd {
            BenchDevice::Ssd
        } else {
            BenchDevice::Hdd
        };
        Self::new_with_device(device, cfg)
    }

    /// Creates a scaled environment on an explicit device profile,
    /// ignoring `cfg.ssd`.
    pub fn new_with_device(device: BenchDevice, cfg: &EnvConfig) -> Self {
        let cache_bytes = (cfg.dataset_bytes as f64 * cfg.cache_fraction) as usize;
        let opts = device.options(cache_bytes);
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

/// Ingests `n` upsert ops, returning `(records, sim_minutes)` checkpoints —
/// the series plotted in Figures 13/14.
pub fn ingest_series(
    ds: &Dataset,
    workload: &mut UpsertWorkload,
    n: usize,
    checkpoints: usize,
) -> Vec<(u64, f64)> {
    let clock = ds.storage().clock().clone();
    let start = clock.now_secs();
    let mut series = Vec::new();
    let step = (n / checkpoints.max(1)).max(1);
    for i in 0..n {
        let op = workload.next_op();
        apply(ds, &op);
        if (i + 1) % step == 0 {
            series.push(((i + 1) as u64, (clock.now_secs() - start) / 60.0));
        }
    }
    series
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
    /// The runtime's maintenance-thread high-water mark (0 inline).
    pub peak_workers: usize,
}

/// The maintenance-heavy scenario shared by `perf_snapshot` and the
/// `background_ingestion` bench: `datasets` small tweet datasets ingest
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
        peak_workers: runtime.map_or(0, |rt| rt.stats().peak_workers),
    }
}

/// What one multi-writer group-commit run measured: `writers` threads
/// committing [`WriteBatch`](lsm_engine::WriteBatch)es against ONE
/// sharded, WAL-backed dataset.
#[derive(Debug, Clone, Copy)]
pub struct MultiWriterRun {
    /// Concurrent writer threads (also the memtable shard count).
    pub writers: usize,
    /// Total records committed across all writers.
    pub records: usize,
    /// Records staged per `WriteBatch` commit.
    pub batch: usize,
    /// Wall seconds for the concurrent ingest phase.
    pub ingest_wall_secs: f64,
    /// Aggregate writer throughput.
    pub ingest_ops_per_sec: f64,
    /// Times a writer stalled on the hard memory ceiling.
    pub backpressure_stalls: u64,
    /// Leader-drained WAL group writes (each one page-sized device append).
    pub wal_groups: u64,
    /// Achieved group size: log records per device append. `> 1` whenever
    /// commits actually share groups.
    pub wal_records_per_group: f64,
}

/// The multi-writer scenario behind `perf_snapshot`'s `multi_writer`
/// section and the `group_commit` bench: one tweet dataset with
/// `memtable_shards = writers` and a WAL, hammered by `writers` threads
/// that each commit `n_total / writers` upserts in [`WriteBatch`]es of
/// `batch` records (distinct workload seeds per thread). Background
/// maintenance on two workers keeps flushes off the commit path; the WAL
/// is forced before reading the group counters so trailing staged records
/// are counted.
///
/// [`WriteBatch`]: lsm_engine::WriteBatch
pub fn run_multi_writer_scenario(writers: usize, n_total: usize, batch: usize) -> MultiWriterRun {
    assert!(writers > 0 && batch > 0);
    let dataset_bytes = (n_total as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ssd: true,
        ..Default::default()
    });
    let runtime = MaintenanceRuntime::start(
        lsm_engine::EngineConfig::builder()
            .min_workers(1)
            .max_workers(2)
            .build()
            .expect("engine config"),
    )
    .expect("runtime");
    let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    cfg.memtable_shards = writers;
    // As in the shared-runtime scenario: budget below the ingested data so
    // flushes churn under the writers even at bench-smoke scale.
    cfg.memory_budget = ((dataset_bytes / 16) as usize).max(16 * 1024);
    let ds = Dataset::open_with_runtime(
        env.storage.clone(),
        Some(env.log_storage.clone()),
        cfg,
        &runtime,
    )
    .expect("dataset");

    let n_per = n_total / writers;
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let ds = &ds;
            scope.spawn(move || {
                let mut workload = UpsertWorkload::new(
                    TweetConfig {
                        seed: w as u64 + 1,
                        ..TweetConfig::default()
                    },
                    0.5,
                    UpdateDistribution::Uniform,
                );
                let mut done = 0;
                while done < n_per {
                    let take = batch.min(n_per - done);
                    let mut b = ds.batch();
                    for _ in 0..take {
                        b = match workload.next_op() {
                            Op::Insert(r) => b.insert(&r),
                            Op::Upsert(r) => b.upsert(&r),
                        };
                    }
                    b.commit().expect("batch commit");
                    done += take;
                }
            });
        }
    });
    let ingest_wall_secs = start.elapsed().as_secs_f64();
    ds.maintenance().quiesce().expect("quiesce");
    // Records still sitting in the staging page only become a counted
    // group once a leader writes them.
    ds.wal().expect("wal").force().expect("wal force");

    let snap = ds.stats().snapshot();
    MultiWriterRun {
        writers,
        records: n_per * writers,
        batch,
        ingest_wall_secs,
        ingest_ops_per_sec: (n_per * writers) as f64 / ingest_wall_secs,
        backpressure_stalls: snap.backpressure_stalls,
        wal_groups: snap.wal_groups,
        wal_records_per_group: if snap.wal_groups == 0 {
            0.0
        } else {
            snap.wal_grouped_records as f64 / snap.wal_groups as f64
        },
    }
}

/// What one fairness run measured: a hot flooding dataset vs a set of
/// quiet datasets on a shared, quota-limited runtime.
#[derive(Debug, Clone, Copy)]
pub struct FairnessRun {
    /// Records the hot dataset ingested.
    pub hot_records: usize,
    /// Number of quiet datasets.
    pub quiet_datasets: usize,
    /// Records each quiet dataset ingested.
    pub quiet_records_per_dataset: usize,
    /// Mean wall seconds a quiet dataset took to ingest its burst and
    /// drain its own background jobs while the hot dataset flooded.
    pub quiet_latency_secs_mean: f64,
    /// Worst-case quiet-dataset latency — the starvation signal: under
    /// fair scheduling it stays within a small factor of the mean.
    pub quiet_latency_secs_max: f64,
    /// Jobs the hot dataset still had queued or running when the last
    /// quiet dataset finished (> 0 means quiet progress happened under
    /// real contention).
    pub hot_backlog_at_quiet_done: usize,
    /// Times the per-dataset quota deferred a dataset with runnable work.
    pub quota_deferrals: u64,
    /// The runtime's maintenance-thread high-water mark.
    pub peak_workers: usize,
}

/// The fairness scenario shared by `perf_snapshot`: one hot dataset floods
/// a shared runtime (`max_workers` 4, per-dataset quota 1) from a
/// dedicated writer thread while `quiet` datasets each ingest a flush-
/// tripping burst and quiesce, one after another, measuring the latency
/// each experienced. Deficit-round-robin + the quota keep those latencies
/// bounded no matter how much work the hot dataset has queued.
pub fn run_fairness_scenario(quiet: usize, n_hot: usize, n_quiet: usize) -> FairnessRun {
    use lsm_engine::EngineConfig;
    let runtime = MaintenanceRuntime::start(
        EngineConfig::builder()
            .min_workers(2)
            .max_workers(4)
            .max_jobs_per_dataset(1)
            .build()
            .expect("runtime config"),
    )
    .expect("runtime");
    let mk = |n: usize, seed: u64| {
        let dataset_bytes = (n as u64) * 550;
        let env = Env::new(&EnvConfig {
            dataset_bytes,
            ssd: true,
            ..Default::default()
        });
        let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
        cfg.memory_budget = ((dataset_bytes / 16) as usize).max(16 * 1024);
        let ds = Dataset::open_with_runtime(
            env.storage.clone(),
            Some(env.log_storage.clone()),
            cfg,
            &runtime,
        )
        .expect("dataset");
        let workload = UpsertWorkload::new(
            TweetConfig {
                seed,
                ..TweetConfig::default()
            },
            0.5,
            UpdateDistribution::Uniform,
        );
        (ds, workload)
    };
    let (hot, mut hot_workload) = mk(n_hot, 1);
    let quiet_handles: Vec<_> = (0..quiet).map(|d| mk(n_quiet, d as u64 + 2)).collect();

    let (latencies, hot_backlog) = std::thread::scope(|scope| {
        let hot_ref = &hot;
        scope.spawn(move || {
            for _ in 0..n_hot {
                apply(hot_ref, &hot_workload.next_op());
            }
        });
        let mut latencies = Vec::new();
        for (ds, workload) in quiet_handles {
            let mut workload = workload;
            let t0 = std::time::Instant::now();
            for _ in 0..n_quiet {
                apply(&ds, &workload.next_op());
            }
            ds.maintenance().quiesce().expect("quiesce");
            latencies.push(t0.elapsed().as_secs_f64());
        }
        let hot_id = hot_ref.runtime_dataset_id().expect("registered");
        let hot_backlog = runtime
            .stats()
            .per_dataset
            .iter()
            .find(|d| d.dataset == hot_id)
            .map(|d| d.queued + d.in_flight)
            .unwrap_or(0);
        (latencies, hot_backlog)
    });
    hot.maintenance().quiesce().expect("quiesce hot");
    let stats = runtime.stats();
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let max = latencies.iter().cloned().fold(0.0f64, f64::max);
    FairnessRun {
        hot_records: n_hot,
        quiet_datasets: quiet,
        quiet_records_per_dataset: n_quiet,
        quiet_latency_secs_mean: mean,
        quiet_latency_secs_max: max,
        hot_backlog_at_quiet_done: hot_backlog,
        quota_deferrals: stats.quota_deferrals,
        peak_workers: stats.peak_workers,
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

/// The query-heavy scenario shared by `perf_snapshot` and the
/// `parallel_query` bench: pre-load a Validation tweet dataset with enough
/// flush/merge churn to leave several disk components, then run `queries`
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

/// What one scan-heavy run measured: the same `creation_time` filter scans
/// executed serially and with `parallel(n)` over a pre-loaded dataset.
#[derive(Debug, Clone, Copy)]
pub struct ScanHeavyRun {
    /// Records pre-loaded into the dataset.
    pub records: usize,
    /// Filter scans per pass.
    pub scans: usize,
    /// The `parallel(n)` fan-out measured against serial.
    pub parallelism: usize,
    /// Disk components of the primary index at scan time.
    pub components: usize,
    /// Live bytes on the data device after the load.
    pub index_bytes: u64,
    /// Wall seconds for the serial pass.
    pub serial_wall_secs: f64,
    /// Wall seconds for the parallel pass (same scans, cold cache both).
    pub parallel_wall_secs: f64,
    /// `serial_wall_secs / parallel_wall_secs` — ≥ 1 means parallel won.
    pub speedup: f64,
    /// Rows matched per pass (asserted identical between the passes).
    pub rows: usize,
    /// Scan partitions actually planned across the parallel pass.
    pub partitions: u64,
    /// Buffer-cache hit ratio over the serial pass.
    pub serial_cache_hit_ratio: f64,
    /// Buffer-cache hit ratio over the parallel pass.
    pub parallel_cache_hit_ratio: f64,
}

/// The scan-heavy scenario shared by `perf_snapshot` and the filter-scan
/// benches: pre-load a Validation tweet dataset (leaving several disk
/// components), then run `scans` rotating ~10% `creation_time` slices
/// twice — serially and with `parallel(n)` — from a cold cache each time.
/// Besides the wall-clock comparison it records the live on-disk bytes
/// after the load, so page size lands in the perf trajectory next to scan
/// cost.
pub fn run_scan_heavy_scenario(n: usize, scans: usize, parallelism: usize) -> ScanHeavyRun {
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
    let index_bytes = env.storage.total_bytes();

    // `creation_time` is monotonic from 0, so the watermark is the domain.
    let max_time = workload.generator().time_watermark().max(1);
    let slice = (max_time / 10).max(1);
    let range_of = |s: usize| {
        let lo = (s as i64 * slice * 3) % (max_time - slice).max(1);
        (lo, lo + slice - 1)
    };

    env.storage.clear_cache();
    let io_start = env.storage.stats();
    let serial_t = std::time::Instant::now();
    let mut serial_rows = 0usize;
    for s in 0..scans {
        let (lo, hi) = range_of(s);
        serial_rows += ds
            .filter_scan()
            .range(lo, hi)
            .records()
            .expect("serial scan")
            .len();
    }
    let serial_wall_secs = serial_t.elapsed().as_secs_f64();
    let serial_io = env.storage.stats().since(&io_start);

    env.storage.clear_cache();
    let before = ds.stats().snapshot();
    let io_start = env.storage.stats();
    let par_t = std::time::Instant::now();
    let mut par_rows = 0usize;
    for s in 0..scans {
        let (lo, hi) = range_of(s);
        par_rows += ds
            .filter_scan()
            .range(lo, hi)
            .parallel(parallelism)
            .records()
            .expect("parallel scan")
            .len();
    }
    let parallel_wall_secs = par_t.elapsed().as_secs_f64();
    let parallel_io = env.storage.stats().since(&io_start);
    assert_eq!(serial_rows, par_rows, "parallel pass changed the answer");
    let snap = ds.stats().snapshot();

    ScanHeavyRun {
        records: n,
        scans,
        parallelism,
        components: ds.primary().num_disk_components(),
        index_bytes,
        serial_wall_secs,
        parallel_wall_secs,
        speedup: serial_wall_secs / parallel_wall_secs.max(1e-9),
        rows: serial_rows,
        partitions: snap.filter_scan_partitions - before.filter_scan_partitions,
        serial_cache_hit_ratio: serial_io.cache_hit_ratio(),
        parallel_cache_hit_ratio: parallel_io.cache_hit_ratio(),
    }
}

/// What one index-only run measured: secondary `user_id` range queries
/// answered from the index alone (no record fetch), from a cold cache.
#[derive(Debug, Clone, Copy)]
pub struct IndexOnlyRun {
    /// Records pre-loaded into the dataset.
    pub records: usize,
    /// Index-only queries per pass.
    pub queries: usize,
    /// Live bytes on the data device after the load.
    pub index_bytes: u64,
    /// Device bytes read during the cold-cache query pass: index structure
    /// alone, since no record is fetched.
    pub bytes_read: u64,
    /// Primary keys returned per pass.
    pub rows: usize,
    /// Keys returned per wall-clock second over the pass.
    pub rows_per_sec: f64,
    /// Wall seconds for the pass.
    pub wall_secs: f64,
}

/// The index-only scenario: pre-load an Eager tweet dataset (several disk
/// components), then answer rotating ~10% `user_id` range queries with
/// `index_only()` — primary keys straight from the always-accurate
/// secondary index, no validation and no record fetch — from a cold cache.
/// Every byte the pass reads is index structure.
pub fn run_index_only_scenario(n: usize, queries: usize) -> IndexOnlyRun {
    use lsm_workload::USER_ID_DOMAIN;
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ssd: true,
        ..Default::default()
    });
    let mut cfg = tweet_dataset_config(StrategyKind::Eager, dataset_bytes, 1);
    // Size memory so the load leaves a real component stack behind.
    cfg.memory_budget = ((dataset_bytes / 24) as usize).max(64 * 1024);
    let ds = open_tweet_dataset(&env, cfg);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.3, UpdateDistribution::Uniform);
    for _ in 0..n {
        apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");
    let index_bytes = env.storage.total_bytes();

    let slice = (USER_ID_DOMAIN / 10).max(1);
    let range_of = |q: usize| {
        let lo = (q as i64 * slice * 3) % (USER_ID_DOMAIN - slice);
        (lo, lo + slice - 1)
    };

    env.storage.clear_cache();
    let io_start = env.storage.stats();
    let t = std::time::Instant::now();
    let mut rows = 0usize;
    for q in 0..queries {
        let (lo, hi) = range_of(q);
        rows += ds
            .query("user_id")
            .range(lo, hi)
            .index_only()
            .execute()
            .expect("index-only query")
            .len();
    }
    let wall_secs = t.elapsed().as_secs_f64();
    let io = env.storage.stats().since(&io_start);

    IndexOnlyRun {
        records: n,
        queries,
        index_bytes,
        bytes_read: io.bytes_read,
        rows,
        rows_per_sec: rows as f64 / wall_secs.max(1e-9),
        wall_secs,
    }
}

/// What one repair-heavy run measured: standalone secondary-index repair
/// over a dataset whose lazy maintenance left many obsolete entries.
#[derive(Debug, Clone, Copy)]
pub struct RepairHeavyRun {
    /// Records ingested (50% updates, so roughly a third of secondary
    /// entries are obsolete).
    pub records: usize,
    /// Wall seconds for `repair_all`.
    pub repair_wall_secs: f64,
    /// Simulated seconds for `repair_all` (the paper's y-axis).
    pub repair_sim_secs: f64,
    /// Secondary entries scanned by the repair.
    pub entries_scanned: u64,
    /// Keys validated against the primary key index.
    pub keys_validated: u64,
    /// Obsolete entries invalidated.
    pub invalidated: u64,
}

/// The repair-heavy scenario: ingest an update-heavy Validation workload
/// with merge-time repair disabled (so obsolete entries accumulate), then
/// time one standalone `repair_all` pass.
pub fn run_repair_heavy_scenario(n: usize) -> RepairHeavyRun {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new(&EnvConfig {
        dataset_bytes,
        ssd: true,
        ..Default::default()
    });
    let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    cfg.merge_repair = false;
    cfg.memory_budget = ((dataset_bytes / 24) as usize).max(64 * 1024);
    let ds = open_tweet_dataset(&env, cfg);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..n {
        apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");

    env.storage.clear_cache();
    let timer = Timer::start(&env.clock);
    let reports = ds.maintenance().repair_all().expect("repair");
    let (sim, wall) = timer.elapsed();
    let mut run = RepairHeavyRun {
        records: n,
        repair_wall_secs: wall,
        repair_sim_secs: sim,
        entries_scanned: 0,
        keys_validated: 0,
        invalidated: 0,
    };
    for r in &reports {
        run.entries_scanned += r.entries_scanned;
        run.keys_validated += r.keys_validated;
        run.invalidated += r.invalidated;
    }
    run
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
