//! # lsm-engine
//!
//! A from-scratch implementation of *Efficient Data Ingestion and Query
//! Processing for LSM-Based Storage Systems* (Luo & Carey, PVLDB 12(5),
//! 2019).
//!
//! A [`Dataset`] bundles a primary LSM index, an optional primary key
//! index, and any number of secondary indexes (Section 3, Figure 1), and
//! maintains them under one of four strategies ([`StrategyKind`]):
//!
//! * **Eager** — point lookup before every write; indexes and filters are
//!   always up-to-date (the AsterixDB/MyRocks/Phoenix baseline, §3.1);
//! * **Validation** — lazy inserts; queries validate against the primary
//!   key index and background repair cleans obsolete entries (§4);
//! * **Mutable-bitmap** — deletes applied in place through per-component
//!   bitmaps located via the primary key index (§5);
//! * **Deleted-key B+-tree** — AsterixDB's earlier lazy baseline (§4.1).
//!
//! # Quickstart
//!
//! Queries go through the fluent [`Dataset::query`] builder, which resolves
//! the right §4.3 validation method from the dataset's strategy — a query
//! is correct by construction for all four [`StrategyKind`]s:
//!
//! ```
//! use lsm_common::{FieldType, Record, Schema, Value};
//! use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
//! use lsm_storage::{Storage, StorageOptions};
//!
//! let schema = Schema::new(vec![
//!     ("id", FieldType::Int),
//!     ("location", FieldType::Str),
//! ]).unwrap();
//! let mut cfg = DatasetConfig::new(schema, 0);
//! cfg.strategy = StrategyKind::Validation;
//! cfg.secondary_indexes.push(SecondaryIndexDef { name: "location".into(), field: 1 });
//! let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
//!
//! ds.insert(&Record::new(vec![Value::Int(101), Value::Str("CA".into())])).unwrap();
//! ds.upsert(&Record::new(vec![Value::Int(101), Value::Str("NY".into())])).unwrap();
//!
//! // Point read by primary key.
//! assert_eq!(
//!     ds.get(&Value::Int(101)).unwrap().unwrap().get(1),
//!     &Value::Str("NY".into()),
//! );
//!
//! // Secondary-index query: no manually chosen ValidationMethod — the
//! // builder picks the correct one for the Validation strategy, so the
//! // stale CA entry is filtered out.
//! let in_ca = ds.query("location").eq("CA").execute().unwrap();
//! assert!(in_ca.is_empty());
//! let in_ny = ds.query("location").eq("NY").execute().unwrap();
//! assert_eq!(in_ny.records()[0].get(0), &Value::Int(101));
//!
//! // Large range queries can stream batch-by-batch with bounded memory.
//! for record in ds.query("location").range("AA", "ZZ").stream().unwrap() {
//!     let record = record.unwrap();
//!     assert_eq!(record.get(0), &Value::Int(101));
//! }
//!
//! // Maintenance goes through a facade with strategy-aware defaults.
//! ds.maintenance().flush().unwrap();
//! let reports = ds.maintenance().repair_all().unwrap();
//! assert_eq!(reports.len(), 1);
//! ```
//!
//! # Architecture
//!
//! The full system map — the 8-crate layering, the write path
//! (seal → flush → merge), the [`WriteBatch`] commit path and the
//! group-commit WAL, the maintenance strategies, and the
//! shared-runtime contract — lives in `ARCHITECTURE.md` at the repository
//! root; its examples compile and run as doctests of this crate (see
//! [`ArchitectureGuide`]). Operational tuning — worker bounds, the
//! scheduling rules, and how to read the stats snapshots — is covered by
//! `docs/OPERATIONS.md` (doctested as [`OperationsGuide`]).
//!
//! Query processing implements the §3.2 point-lookup optimizations
//! (batched lookups, stateful B+-tree cursors, blocked Bloom filters,
//! component-ID propagation), the Direct and Timestamp validation methods
//! (§4.3), index-only queries, and range-filter scans with per-strategy
//! pruning semantics (§6.4.2) — see [`query::QueryBuilder`] for the knobs
//! and [`query::RecordStream`] for the streaming execution path. Index
//! repair (§4.4) supports merge and standalone repair with the Bloom-filter
//! and merge-scan optimizations, plus the DELI primary-repair baseline —
//! see [`Maintenance`] and [`RepairPlan`]. Flush/merge concurrency control
//! for mutable bitmaps implements both the Lock and Side-file methods
//! (§5.3).
//!
//! ## One read path, one pass
//!
//! Secondary-index queries and primary-index filter scans each run
//! through one executor, as one pass on the calling thread: the Figure 5
//! pipeline scans one atomically captured index snapshot, validates the
//! candidates (applying query-driven repair marks once), and fetches the
//! records through live batched lookups — one chunk for
//! [`PreparedQuery::execute`](query::PreparedQuery::execute), one batch
//! at a time for [`PreparedQuery::stream`](query::PreparedQuery::stream).
//! The engine spawns no query threads; a buffer-cache hit takes no lock
//! beyond the storage file table's read lock, so concurrent readers do not
//! serialize on the cache. See `ARCHITECTURE.md` ("The read path") for the
//! design.
//!
//! ## Background maintenance
//!
//! Structural maintenance (flush + merge) is either **inline** — a dataset
//! opened with [`Dataset::open`]: the writer that trips the memory budget
//! pays for the flush and the follow-up merges synchronously;
//! deterministic, used by the `sim_clock` experiments and most tests — or
//! runs on a [`MaintenanceRuntime`]: a fixed-size, engine-wide worker pool
//! shared by every dataset registered with it.
//!
//! **Registration.** Build a runtime from an [`EngineConfig`]
//! (`EngineConfig::fixed(n)` for `n` workers) with
//! [`MaintenanceRuntime::start`], then open datasets on it with
//! [`Dataset::open_with_runtime`] — hundreds of datasets share one bounded
//! pool instead of spawning one pool each, and a runtime serving a single
//! dataset is that dataset's own background pool. A dataset deregisters
//! on drop, discarding its queued jobs; the runtime shuts down, draining
//! in-flight rebuilds, when its last handle drops.
//!
//! ```
//! use lsm_engine::{Dataset, DatasetConfig, EngineConfig, MaintenanceRuntime};
//! use lsm_storage::{Storage, StorageOptions};
//! # use lsm_common::{FieldType, Schema};
//! # let schema = Schema::new(vec![("id", FieldType::Int)]).unwrap();
//! // One runtime, N datasets.
//! let runtime = MaintenanceRuntime::start(EngineConfig::fixed(2))?;
//! let a = Dataset::open_with_runtime(
//!     Storage::new(StorageOptions::test()), None,
//!     DatasetConfig::new(schema.clone(), 0), &runtime)?;
//! let b = Dataset::open_with_runtime(
//!     Storage::new(StorageOptions::test()), None,
//!     DatasetConfig::new(schema, 0), &runtime)?;
//! assert_eq!(runtime.stats().datasets, 2);
//! # Ok::<(), lsm_common::Error>(())
//! ```
//!
//! **Priorities & fairness.** The queue is a fair scheduler, not FIFO:
//! flush jobs run before merge jobs (flushes are what release stalled
//! writer memory). Both classes serve datasets round-robin, so ten
//! registered datasets make progress even when one keeps finding merge
//! work. Each class is one flag per dataset: at most one flush job and
//! one merge job per dataset wait in the queue. A merge job plans when it
//! runs — it runs one round of the same merge loop inline maintenance
//! runs ([`Dataset::run_merges`]) — and raises the flag again if the
//! policy still calls for work. A dataset's merges serialize on its merge
//! lock, so the scheduler never pops a merge of a dataset whose merge is
//! in flight: one dataset holds at most one worker with merges (flushes
//! are exempt — they release stalled writer memory, so a flush never waits
//! out its own dataset's in-flight merge). The §5.3 machinery (`BuildLink` redirection, bitmap
//! sharing before installation, retire-on-drop components) makes
//! concurrent writes during rebuilds correct.
//!
//! **Fixed workers.** The pool's `workers` threads start with the runtime
//! and run until it shuts down, which bounds maintenance threads — and
//! concurrently executing jobs — for the whole engine.
//!
//! **Observability.** [`MaintenanceRuntime::stats`] returns one
//! [`RuntimeStatsSnapshot`] covering every registered dataset: queue depth
//! split by class, per-dataset queued/running rows
//! ([`DatasetRuntimeStats`]), pool size, the retry count, and the ids of
//! poisoned datasets ([`Dataset::check_poisoned`] yields the cause).
//! Per-dataset counters — flush and merge jobs executed, fault-injection
//! counters — come from [`EngineStats`], per-device ones from
//! [`lsm_storage::IoStats`].
//!
//! **Backpressure.** Writers never block on the queue. Crossing the memory
//! *budget* only schedules a flush; a writer stalls solely when active +
//! flushing memory exceeds the hard *ceiling*
//! (`DatasetConfig::memory_ceiling`, default 2× the budget), and resumes
//! as soon as a flush frees memory. A failed or panicked job **poisons**
//! its dataset — the next write (and `quiesce`) returns the stored error
//! instead of the process aborting; other datasets on the runtime are
//! unaffected.
//!
//! **Recovery interaction contract.** `ds.maintenance().quiesce()` drains
//! *this dataset's* jobs only. [`recovery::checkpoint`] and
//! [`recovery::simulate_crash`] serialize behind the dataset's flush and
//! merge locks, so a checkpoint is a consistent snapshot even with a merge
//! in flight; [`recovery::recover`] drains the dataset's background jobs,
//! replays with maintenance forced *inline* (replay rewinds the logical
//! clock — background jobs must not race it), and advances the clock past
//! everything durable and replayed before returning.
//!

#![warn(missing_docs)]

pub mod batch;
pub mod cc;
pub mod config;
pub mod dataset;
pub mod keys;
pub mod maintenance;
pub mod query;
pub mod recovery;
pub mod repair;
pub mod scheduler;
pub mod stats;
pub mod txn;

pub use batch::{BatchOpResult, WriteBatch};
pub use config::{
    DatasetConfig, EngineConfig, EngineConfigBuilder, MergeConfig, SecondaryIndexDef, StrategyKind,
};
pub use dataset::{Dataset, MergePlan, MergeTarget, SecondaryIndex};
// Re-exported so consumers can set `DatasetConfig::bloom_kind` without a
// direct lsm-bloom dependency.
pub use lsm_bloom::BloomKind;
pub use maintenance::{Maintenance, RepairPlan};
pub use query::{
    FilterScanBuilder, FilterScanReport, PreparedQuery, QueryBuilder, QueryOptions, QueryResult,
    RecordStream, ValidationMethod,
};
pub use repair::{RepairMode, RepairReport};
pub use scheduler::{DatasetRuntimeStats, MaintenanceRuntime, RuntimeStatsSnapshot};
pub use stats::{EngineStats, EngineStatsSnapshot};

/// The repository's top-level `ARCHITECTURE.md`, rendered here so its
/// every example compiles and runs as a doctest of this crate. Covers the
/// 8-crate map, the write path (memtable → seal → flush → merge), the
/// paper's maintenance strategies, and the shared-runtime contract.
///
/// ---
#[doc = include_str!("../../../ARCHITECTURE.md")]
pub struct ArchitectureGuide;

/// The repository's `docs/OPERATIONS.md`, rendered here so its every
/// example compiles and runs as a doctest of this crate. Covers
/// [`EngineConfig`] tuning, reading [`RuntimeStatsSnapshot`], and the
/// recovery/quiesce contract.
///
/// ---
#[doc = include_str!("../../../docs/OPERATIONS.md")]
pub struct OperationsGuide;
