//! Shared harness for the figure reproduction.
//!
//! [`figures`] regenerates every figure of Section 6; `benches/figures.rs`
//! prints them, and [`golden`] compares them with their committed record.
//! The paper's testbed (80M tweets ≈ 30GB on a 7200rpm disk, 2GB buffer
//! cache, 128MB memory components, 1GB maximum mergeable components) is
//! scaled down by roughly 200× while preserving the *ratios* that shape
//! the results:
//!
//! | knob                     | paper    | here (default)        |
//! |--------------------------|----------|-----------------------|
//! | records                  | 80M      | ~100K (per figure)    |
//! | record size              | ~500B    | 500B                  |
//! | buffer cache / dataset   | ~6.7%    | same ratio            |
//! | memory comps / dataset   | ~0.4%    | ~1% (merge pacing)    |
//! | max mergeable / dataset  | ~3.3%    | ~5% (≈20 components)  |
//! | page size                | 128KB    | 128KB (≈260 recs/page)|
//! | bloom FPR                | 1%       | 1%                    |
//! | tiering size ratio       | 1.2      | 1.2                   |
//!
//! Keeping the page size while shrinking the data shrinks components to a
//! few pages each, so any fixed number of pages per component weighs far
//! more here than at the paper's 1GB (≈8,000-page) components. A component
//! therefore carries its tree's metadata as a footer on its last page
//! rather than in a page of its own, which at this scale would be a quarter
//! or more of the data pages an ingest writes.
//!
//! The same holds for a fixed write seek per built tree: a flush of a few
//! pages per index once paid one per index, about a third of an ingest's
//! simulated time. The device has one head for reads and appends, and an
//! append pays a write seek unless it lands on the page after the head in
//! the same file. Every build — flush, merge, repair — appends its tree's
//! page range at the device's write frontier, one file one build at a
//! time holds, so builds with no device read between them pay one seek in
//! all, and a merge that reads its inputs from the device between its
//! appends pays the seeks a disk would pay. A merge over inputs still
//! resident in the cache reads nothing from the device and seeks no more
//! than the flush before it.
//!
//! Results are reported in **simulated seconds** (the paper's y-axes).
//! Each figure function's doc states the shape the paper reports.

use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
use lsm_storage::{SimClock, Storage, StorageOptions};
use lsm_workload::{Op, TweetConfig, TweetGenerator, UpdateDistribution, UpsertWorkload};
use std::sync::Arc;

pub mod figures;
pub mod golden;

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
    let ds = open_tweet_dataset(env, tweet_dataset_config(strategy, dataset_bytes, 1));
    let workload = loaded(&ds, n, update_ratio, distribution);
    (ds, workload)
}

/// Upserts `n` default tweets into `ds`, `update_ratio` of them updates of
/// earlier keys drawn from `distribution`, and flushes. Returns the
/// workload, whose generator knows the keys and times it issued.
pub fn loaded(
    ds: &Dataset,
    n: usize,
    update_ratio: f64,
    distribution: UpdateDistribution,
) -> UpsertWorkload {
    let mut workload = UpsertWorkload::new(TweetConfig::default(), update_ratio, distribution);
    for _ in 0..n {
        apply(ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");
    workload
}
