//! Datasets: the paper's storage architecture (Section 3, Figure 1) and the
//! ingestion paths of the Eager (Section 3.1), Validation (Section 4.2) and
//! Mutable-bitmap (Section 5.2) maintenance strategies.
//!
//! A dataset bundles a primary index (pk → record), an optional primary key
//! index (pk only), and N secondary indexes ((sk, pk) → ()), all LSM-trees
//! sharing one memory budget so they always flush together. Component IDs
//! are `(minTS, maxTS)` intervals over a per-dataset logical clock.

use crate::config::{DatasetConfig, StrategyKind};
use crate::keys::{encode_pk, encode_sk_pk};
use crate::scheduler::{MaintenanceRuntime, RuntimeHandle};
use crate::stats::EngineStats;
use crate::txn::wal::Frame;
use crate::txn::{LockManager, LogOp, Wal};
use lsm_common::{Error, LogicalClock, Record, RecordView, Result, Timestamp, Value};
use lsm_storage::Storage;
use lsm_tree::{
    locate_valid, may_contain, point_lookup, DiskComponent, LsmEntry, LsmOptions, LsmTree,
    MergeRange,
};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// One secondary index: definition + LSM-tree.
pub struct SecondaryIndex {
    /// The index definition.
    pub name: String,
    /// The schema field indexed.
    pub field: usize,
    /// The underlying LSM-tree (no Bloom filter, per the paper).
    pub tree: LsmTree,
}

/// A dataset: primary index, primary key index, secondary indexes.
pub struct Dataset {
    cfg: DatasetConfig,
    storage: Arc<Storage>,
    clock: LogicalClock,
    primary: LsmTree,
    pk_index: Option<LsmTree>,
    secondaries: Vec<SecondaryIndex>,
    stats: Arc<EngineStats>,
    wal: Option<Wal>,
    /// Record-level key locks (Section 5.2).
    locks: LockManager,
    /// Dataset-level lock used by the Side-file method to drain ongoing
    /// operations (Figure 11a): writers hold it shared per operation, the
    /// component builder takes it exclusively at phase boundaries.
    dataset_lock: RwLock<()>,
    /// Serializes flushes (inline callers vs background workers): at most
    /// one set of sealed memory snapshots exists at a time.
    flush_mutex: Mutex<()>,
    /// Serializes structural merges. Flushes and merges may overlap (a
    /// flush only reads memory; a merge only reads disk components), but
    /// two merges racing would work from stale component indices.
    merge_mutex: Mutex<()>,
    /// This dataset's registration on the [`MaintenanceRuntime`] it was
    /// opened with ([`Dataset::open_with_runtime`]); `None` = inline
    /// maintenance. Fixed at construction, so the hot write path reads it
    /// without a lock. Holding the handle keeps the runtime alive.
    runtime: Option<RuntimeHandle>,
    /// Mutable-bitmap flushes: deletes of versions sitting in the sealed
    /// (immutable, mid-flush) snapshot are routed here and applied to the
    /// new component's bitmap before it becomes visible — the §5.3
    /// side-file idea applied to flushes. `Some` while a flush is in
    /// progress; transitions happen under the dataset drain lock.
    flush_deletes: Mutex<Option<Vec<Vec<u8>>>>,
    /// First error raised by a background maintenance job; surfaced to the
    /// caller on the next write instead of aborting the worker's process.
    poison: Mutex<Option<Error>>,
    poisoned: std::sync::atomic::AtomicBool,
}

/// Which index (or index group) a planned merge applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeTarget {
    /// All of the dataset's indexes over the same range (the correlated
    /// merge policy of Sections 4.4/5.1).
    Correlated,
    /// The primary index alone.
    Primary,
    /// The primary key index alone.
    PkIndex,
    /// The `i`-th secondary index (position in [`Dataset::secondaries`]).
    Secondary(usize),
}

/// One unit of planned merge work: [`Dataset::plan_merges`] returns these
/// instead of looping internally, so a caller can execute them one at a
/// time ([`Dataset::execute_merge_plan`]).
///
/// `range` uses oldest-first component indexing, which stays stable across
/// concurrent flushes (flushes add at the *newest* end), so only another
/// merge makes a plan inapplicable. A flush can still change what the
/// policy would pick — a tiering range runs to the newest component — so
/// the engine's own merges plan when they run, never ahead of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePlan {
    /// The index (group) to merge.
    pub target: MergeTarget,
    /// Component range to merge, oldest-first.
    pub range: MergeRange,
}

/// Where a write operation's log record goes: to the WAL before the write
/// touches a memory component (every live write, batched or not), or
/// nowhere (replay).
#[derive(Clone, Copy)]
pub(crate) enum LogSink<'a> {
    /// Append to the WAL, probing the `wal_append` crash site.
    Immediate,
    /// Log nothing: recovery re-executes a record the log already holds.
    /// Under Eager it carries the old version's maintained fields the
    /// record logged ([`Dataset::split_logged`]), `None` when the key had no
    /// old version; Eager's write reads them instead of looking it up.
    Replay(Option<RecordView<'a>>),
}

/// One write operation, as [`Dataset::write_locked`] applies it.
#[derive(Clone, Copy)]
pub(crate) enum WriteOp<'a> {
    /// Insert with the key-uniqueness check (Section 3.1).
    Insert(&'a Record),
    /// Insert-or-replace.
    Upsert(&'a Record),
    /// Delete by primary key.
    Delete(&'a Value),
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("strategy", &self.cfg.strategy)
            .field("secondaries", &self.secondaries.len())
            .finish()
    }
}

impl Drop for Dataset {
    /// Deregisters from the maintenance runtime (discarding this dataset's
    /// queued jobs — workers hold only weak references, so none can be
    /// mid-execution here). If this dataset owned the runtime's last
    /// handle, the runtime itself then shuts down, draining in-flight
    /// rebuilds — possibly on a worker thread (a job holds a temporary
    /// strong reference), which the runtime handles by detaching itself.
    fn drop(&mut self) {
        if let Some(handle) = &self.runtime {
            handle.deregister();
        }
    }
}

impl Dataset {
    /// Opens an empty dataset on `storage`, logging to `log_storage` if
    /// given (the paper dedicates a second disk to the WAL).
    ///
    /// Returns an [`Arc`] so the dataset can be shared with concurrent
    /// writers. Maintenance runs **inline**: the writer that trips the
    /// memory budget flushes and merges on its own thread. For background
    /// maintenance open with [`Dataset::open_with_runtime`] instead.
    pub fn open(
        storage: Arc<Storage>,
        log_storage: Option<Arc<Storage>>,
        cfg: DatasetConfig,
    ) -> Result<Arc<Self>> {
        Self::build(storage, log_storage, cfg, None)
    }

    /// Opens an empty dataset registered on a [`MaintenanceRuntime`]:
    /// flushes and merges are enqueued on the runtime's prioritized queue
    /// and executed by its bounded worker pool alongside every other
    /// registered dataset's jobs. Dropping the dataset's last handle
    /// deregisters it; the runtime shuts down, draining in-flight
    /// rebuilds, once its own last handle is gone.
    pub fn open_with_runtime(
        storage: Arc<Storage>,
        log_storage: Option<Arc<Storage>>,
        cfg: DatasetConfig,
        runtime: &Arc<MaintenanceRuntime>,
    ) -> Result<Arc<Self>> {
        Self::build(storage, log_storage, cfg, Some(runtime))
    }

    fn build(
        storage: Arc<Storage>,
        log_storage: Option<Arc<Storage>>,
        cfg: DatasetConfig,
        runtime: Option<&Arc<MaintenanceRuntime>>,
    ) -> Result<Arc<Self>> {
        cfg.validate()?;
        let primary = LsmTree::new(
            storage.clone(),
            LsmOptions {
                name: "primary".into(),
                with_bloom: true,
                bloom_kind: cfg.bloom_kind,
                bloom_fpr: cfg.bloom_fpr,
                mutable_bitmaps: cfg.strategy == StrategyKind::MutableBitmap,
                ..LsmOptions::default()
            },
        );
        let pk_index = cfg.with_pk_index.then(|| {
            LsmTree::new(
                storage.clone(),
                LsmOptions {
                    name: "pk_index".into(),
                    with_bloom: true,
                    bloom_kind: cfg.bloom_kind,
                    bloom_fpr: cfg.bloom_fpr,
                    // The pk-index component SHARES the primary component's
                    // bitmap; it does not create its own.
                    mutable_bitmaps: false,
                    ..LsmOptions::default()
                },
            )
        });
        let secondaries = cfg
            .secondary_indexes
            .iter()
            .map(|def| SecondaryIndex {
                name: def.name.clone(),
                field: def.field,
                tree: LsmTree::new(
                    storage.clone(),
                    LsmOptions {
                        name: format!("secondary:{}", def.name),
                        with_bloom: false,
                        bloom_kind: cfg.bloom_kind,
                        bloom_fpr: cfg.bloom_fpr,
                        mutable_bitmaps: false,
                        ..LsmOptions::default()
                    },
                ),
            })
            .collect();
        let stats = Arc::new(EngineStats::new());
        let wal = log_storage.map(Wal::new);
        if let Some(wal) = &wal {
            wal.bind_stats(stats.clone());
        }
        let ds = Arc::new_cyclic(|weak| Dataset {
            primary,
            pk_index,
            secondaries,
            clock: LogicalClock::new(),
            stats,
            wal,
            locks: LockManager::new(),
            dataset_lock: RwLock::new(()),
            flush_mutex: Mutex::new(()),
            merge_mutex: Mutex::new(()),
            // Registered with the weak handle being built. No job can exist
            // before the dataset queues one, and a stats read that races
            // construction fails to upgrade it, as for a dropped dataset.
            runtime: runtime.map(|rt| RuntimeHandle::new(rt.clone(), rt.register(weak.clone()))),
            flush_deletes: Mutex::new(None),
            poison: Mutex::new(None),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            storage,
            cfg,
        });
        Ok(ds)
    }

    // ---- background maintenance --------------------------------------------

    /// This dataset's runtime registration, when background maintenance
    /// runs (lock-free: read on every write operation).
    pub(crate) fn runtime_handle(&self) -> Option<&RuntimeHandle> {
        self.runtime.as_ref()
    }

    /// This dataset's registration id on its maintenance runtime, if any —
    /// the key that [`RuntimeStatsSnapshot`](crate::RuntimeStatsSnapshot)
    /// uses in its `per_dataset` rows and `poisoned` list, so operators
    /// can map a runtime stats row back to the dataset handle they hold.
    pub fn runtime_dataset_id(&self) -> Option<u64> {
        self.runtime.as_ref().map(|h| h.dataset_id())
    }

    /// Records a fatal background-maintenance failure, the one thing that
    /// poisons a dataset. The first error wins; every subsequent write
    /// fails with it ("poisoned-state flag surfaced on the next write")
    /// instead of the worker aborting the process.
    pub(crate) fn poison(&self, err: Error) {
        {
            let mut g = self.poison.lock();
            if g.is_none() {
                *g = Some(err);
            }
        }
        self.poisoned
            .store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(handle) = self.runtime_handle() {
            handle.notify_stalled();
        }
    }

    /// True once a background maintenance job has failed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Errors if the dataset was poisoned by a failed background job.
    pub fn check_poisoned(&self) -> Result<()> {
        if !self.is_poisoned() {
            return Ok(());
        }
        let cause = self
            .poison
            .lock()
            .clone()
            .unwrap_or_else(|| Error::invalid("unknown failure"));
        Err(Error::invalid(format!(
            "dataset poisoned by a failed background maintenance job: {cause}"
        )))
    }

    // ---- accessors ---------------------------------------------------------

    /// The configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.cfg
    }

    /// The data storage device.
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// The dataset's logical clock.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Operation counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The primary index.
    pub fn primary(&self) -> &LsmTree {
        &self.primary
    }

    /// The primary key index, if configured.
    pub fn pk_index(&self) -> Option<&LsmTree> {
        self.pk_index.as_ref()
    }

    /// The secondary indexes.
    pub fn secondaries(&self) -> &[SecondaryIndex] {
        &self.secondaries
    }

    /// Finds a secondary index by name.
    pub fn secondary(&self, name: &str) -> Result<&SecondaryIndex> {
        self.secondaries
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| Error::NoSuchIndex(name.into()))
    }

    /// The write-ahead log, if configured.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// The record-level lock manager.
    pub(crate) fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The dataset-level drain lock (Side-file method).
    pub(crate) fn dataset_lock(&self) -> &RwLock<()> {
        &self.dataset_lock
    }

    fn ts_for_entries(&self, ts: Timestamp) -> Timestamp {
        if self.cfg.strategy.stores_timestamps() {
            ts
        } else {
            lsm_common::clock::NO_TIMESTAMP
        }
    }

    /// Views a stored primary-index value, for reading single fields of it.
    /// A value with fewer fields than the schema is rejected here, before
    /// the caller has changed anything on its account.
    fn stored_record<'a>(&self, value: &'a [u8]) -> Result<RecordView<'a>> {
        let view = RecordView::parse(value)?;
        if view.arity() < self.cfg.schema.arity() {
            return Err(Error::corruption(format!(
                "stored record has {} fields, the schema {}",
                view.arity(),
                self.cfg.schema.arity()
            )));
        }
        Ok(view)
    }

    /// Re-executes the bitmap mutation of a logged delete/upsert whose entry
    /// effects are already durable (recovery redo path).
    ///
    /// The live-path probe ([`Dataset::mark_old_version_deleted`]) marks
    /// the newest valid version — correct *before* the operation's own
    /// entry exists, but during redo that entry (timestamp == `lsn`) may
    /// already sit in a flushed component, and marking it would delete the
    /// operation's own effect. The mark belongs to the version the
    /// operation replaced: the newest non-anti-matter entry *older* than
    /// the operation itself. Idempotent; runs single-threaded (recovery),
    /// so no successor-redirection is needed.
    pub(crate) fn redo_bitmap_mark(&self, pk_key: &[u8], lsn: Timestamp) -> Result<()> {
        if self.cfg.strategy != StrategyKind::MutableBitmap {
            return Ok(());
        }
        let pk_tree = self
            .pk_index
            .as_ref()
            .ok_or_else(|| Error::invalid("mutable-bitmap requires the primary key index"))?;
        for comp in pk_tree.disk_components().iter() {
            if !comp.bloom_may_contain(self.storage.as_ref(), pk_key) {
                continue;
            }
            let Some((entry, ordinal)) = comp.search(pk_key)? else {
                continue;
            };
            if entry.ts >= lsn {
                // The redone operation's own entry (or a later replayed
                // one): the replaced version is in an older component.
                continue;
            }
            if entry.anti_matter || !comp.is_valid(ordinal) {
                return Ok(()); // already deleted/marked; older versions stale
            }
            let bitmap = comp
                .bitmap()
                .ok_or_else(|| Error::corruption("mutable-bitmap component carries no bitmap"))?;
            bitmap.set(ordinal);
            return Ok(());
        }
        Ok(())
    }

    /// Probes the named engine crash site against a
    /// [`FaultPlan`](lsm_storage::FaultPlan) installed on `device`,
    /// feeding the crash-site coverage counters
    /// ([`EngineStats::count_crash_site`]).
    fn crash_site_on(&self, device: &Storage, name: &str) -> Result<()> {
        EngineStats::count_crash_site(Some(&self.stats), device.probe_crash_site(name))
    }

    /// Probes the named crash site on the dataset's data device.
    pub(crate) fn crash_site(&self, name: &str) -> Result<()> {
        self.crash_site_on(&self.storage, name)
    }

    /// Probes the `"checkpoint"` crash site (called by
    /// [`recovery::checkpoint`](crate::recovery::checkpoint) between the
    /// log force and the bitmap snapshot).
    pub(crate) fn checkpoint_crash_site(&self) -> Result<()> {
        self.crash_site("checkpoint")
    }

    /// Repairs structural misalignment between the primary index and its
    /// siblings left by a crash inside an install window, before WAL
    /// replay:
    ///
    /// * **Torn flush install** — the primary published its flushed
    ///   component but the pk index (and secondaries) never installed
    ///   theirs: the primary component *postdates every sibling component*.
    ///   Roll the flush back by uninstalling it; replay re-ingests its
    ///   committed entries through the full ingestion path, restoring every
    ///   index at once. (Entries that were never forced are lost with the
    ///   log tail, which is exactly the no-force contract: a flush is only
    ///   durable once `note_flush_durable` forces the WAL.)
    /// * **Torn merge install** (correlated merges only) — the primary
    ///   swapped in a merged component but the pk index still holds the
    ///   pre-merge components *covered by its interval*. Nothing was lost;
    ///   redo the pk side by mirroring the merged primary component (same
    ///   keys/timestamps/anti-matter in the same order), which restores the
    ///   ordinal alignment the shared bitmaps of the Mutable-bitmap
    ///   strategy require. Secondaries need no repair — their merge simply
    ///   re-runs when next planned. Under uncorrelated merges the same
    ///   shape is the ordinary state of two independent merge schedules,
    ///   and is left alone.
    ///
    /// Idempotent: on an aligned dataset this is a no-op.
    pub(crate) fn realign_after_crash(&self) -> Result<()> {
        if self.pk_index.is_none() && self.secondaries.is_empty() {
            return Ok(()); // single index: no alignment to restore
        }
        // Torn flush installs (newest-first): roll back primary components
        // that postdate every sibling component. When a pk index exists it
        // is the reference — it flushes in lockstep with the primary and is
        // the *next* install after the primary (the secondaries follow it),
        // so it tells a torn flush from a torn merge: a merged component's
        // interval still covers old pk components, a flushed one's doesn't.
        while let Some(newest) = self.primary.disk_components().first() {
            let ahead = match &self.pk_index {
                Some(pk_tree) => match pk_tree.disk_components().first() {
                    Some(pk_newest) => newest.id().min_ts > pk_newest.id().max_ts,
                    None => true, // primary flushed, pk never did: orphan
                },
                None => {
                    let sec_max: Option<Timestamp> = self
                        .secondaries
                        .iter()
                        .filter_map(|s| {
                            let comps = s.tree.disk_components();
                            comps.iter().map(|c| c.id().max_ts).max()
                        })
                        .max();
                    newest.id().min_ts > sec_max.unwrap_or(0)
                }
            };
            if !ahead {
                break;
            }
            self.primary.uninstall_newest();
        }
        // Torn merge installs: mirror any merged primary component whose
        // pre-merge counterparts are still installed in the pk index. Only
        // a correlated merge installs across indexes; uncorrelated ones
        // merge each index on its own schedule, so a primary component the
        // pk index lacks is no torn install.
        let Some(pk_tree) = &self.pk_index else {
            return Ok(());
        };
        if !self.cfg.requires_correlated_merges() {
            return Ok(());
        }
        for p in self.primary.disk_components().iter() {
            let pk_comps = pk_tree.disk_components(); // newest first
            if pk_comps.iter().any(|c| c.id() == p.id()) {
                continue;
            }
            let n = pk_comps.len();
            // Oldest-first indices of the pk components covered by the
            // merged interval (the pre-merge inputs).
            let covered: Vec<usize> = pk_comps
                .iter()
                .enumerate()
                .filter(|(_, c)| c.id().min_ts >= p.id().min_ts && c.id().max_ts <= p.id().max_ts)
                .map(|(j, _)| n - 1 - j)
                .collect();
            let (Some(&hi), Some(&lo)) = (covered.first(), covered.last()) else {
                continue;
            };
            if hi - lo + 1 != covered.len() {
                return Err(Error::corruption(format!(
                    "pk index components covered by merged primary {:?} are not contiguous",
                    p.id()
                )));
            }
            let mirrored = pk_tree.mirror_component(p)?;
            if self.cfg.strategy == StrategyKind::MutableBitmap {
                let bitmap = p.bitmap().ok_or_else(|| {
                    Error::corruption("merged mutable-bitmap primary has no bitmap")
                })?;
                mirrored.set_bitmap(bitmap)?;
            }
            pk_tree.replace_range(MergeRange { start: lo, end: hi }, mirrored, true)?;
        }
        Ok(())
    }

    /// Logs one write unless `sink` is a replay: its record and, appended
    /// to it, Eager's old fields (see
    /// [`LogRecord::value`](crate::txn::LogRecord::value)).
    fn log(&self, sink: LogSink<'_>, frame: Frame<'_>) -> Result<()> {
        let (Some(wal), LogSink::Immediate) = (&self.wal, sink) else {
            return Ok(());
        };
        // Crash *before* the record is even buffered: the operation is
        // simply not durable, as if the process died entering the log call.
        self.crash_site_on(wal.storage(), "wal_append")?;
        // Borrowed: the staging page takes the only copy.
        wal.append_frame(frame)
    }

    // ---- ingestion ----------------------------------------------------------

    /// Inserts a record; returns `false` if the primary key already exists
    /// (the key-uniqueness check of Section 3.1).
    pub fn insert(&self, record: &Record) -> Result<bool> {
        let inserted = self.write(WriteOp::Insert(record), LogSink::Immediate)?;
        self.maybe_flush_and_merge()?;
        Ok(inserted)
    }

    /// Deletes by primary key. Returns `true` if the strategy knows a record
    /// was removed (the lazy strategies apply deletes blindly and return
    /// `true` unconditionally).
    pub fn delete(&self, pk: &Value) -> Result<bool> {
        let deleted = self.write(WriteOp::Delete(pk), LogSink::Immediate)?;
        self.maybe_flush_and_merge()?;
        Ok(deleted)
    }

    /// Upserts a record (insert-or-replace).
    pub fn upsert(&self, record: &Record) -> Result<()> {
        self.write(WriteOp::Upsert(record), LogSink::Immediate)?;
        self.maybe_flush_and_merge()
    }

    /// Upsert without the flush/merge check (used by concurrent-writer
    /// benchmarks that must not trigger reentrant structural operations).
    pub fn upsert_no_maintenance(&self, record: &Record) -> Result<()> {
        self.write(WriteOp::Upsert(record), LogSink::Immediate)?;
        Ok(())
    }

    /// Re-executes a logged operation during recovery: the write without
    /// its log record, then inline maintenance. Replay rewinds the clock
    /// per record, and a background job racing that would stamp components
    /// with rewound timestamps — recovery is single-threaded (Section 2.2).
    /// `old_fields` is what the record logged of Eager's old version (see
    /// [`LogSink::Replay`]).
    pub(crate) fn replay(&self, op: WriteOp<'_>, old_fields: Option<RecordView<'_>>) -> Result<()> {
        self.write(op, LogSink::Replay(old_fields))?;
        self.maintain_inline()
    }

    /// The fields Eager's maintenance reads of a key's old version: each
    /// secondary index's field, in index order, then the filter field.
    fn maintained_fields(&self) -> impl Iterator<Item = usize> + '_ {
        let secondary = self.secondaries.iter().map(|s| s.field);
        secondary.chain(self.cfg.filter_field)
    }

    /// Splits a logged write's value (see
    /// [`LogRecord::value`](crate::txn::LogRecord::value)) into the record
    /// it writes, `None` for a delete, and Eager's old fields, `None` when
    /// the key had no old version. Every logged Eager delete carries
    /// them, even none at all: a delete of an absent key is not logged.
    ///
    /// # Errors
    /// [`Error::Corruption`] when the value is no sequence of encoded
    /// values, or the fields after the record are not exactly the ones the
    /// dataset maintains (nothing at all, but under Eager).
    pub(crate) fn split_logged<'v>(
        &self,
        op: LogOp,
        value: &'v [u8],
    ) -> Result<(Option<Record>, Option<RecordView<'v>>)> {
        let delete = op == LogOp::Delete;
        let arity = if delete { 0 } else { self.cfg.schema.arity() };
        let (record, old) = RecordView::parse(value)?.split_at(arity)?;
        let eager = self.cfg.strategy == StrategyKind::Eager;
        let (fields, maintained) = (old.arity(), self.maintained_fields().count());
        let old = match (eager, delete) {
            (true, true) if fields == maintained => Some(old),
            (true, false) if fields == maintained && fields > 0 => Some(old),
            (_, false) | (false, true) if fields == 0 => None,
            _ => {
                return Err(Error::corruption(format!(
                    "logged {op:?} carries {fields} fields after its record; \
                     the {:?} dataset maintains {maintained}",
                    self.cfg.strategy
                )))
            }
        };
        let record = (!delete).then(|| record.to_record()).transpose()?;
        Ok((record, old))
    }

    /// Eager's old-version step: looks `pk_key`'s newest live version up in
    /// the primary, but only when the primary key index may hold the key
    /// (see [`Dataset::write_locked`]), and appends its maintained fields
    /// to `out`. Returns whether there was one.
    fn fetch_old_fields(&self, pk_key: &[u8], out: &mut Vec<u8>) -> Result<bool> {
        if let Some(pk_tree) = &self.pk_index {
            if !may_contain(pk_tree, pk_key) {
                return Ok(false); // the pk index holds no version: neither does the primary
            }
        }
        self.stats.bump(&self.stats.maintenance_lookups);
        let Some(old) = point_lookup(&self.primary, pk_key)?.filter(|e| !e.anti_matter) else {
            return Ok(false);
        };
        // Only single fields of the old record are wanted: read them
        // through a view, never decoding the rest.
        let stored = self.stored_record(&old.value)?;
        for field in self.maintained_fields() {
            out.extend_from_slice(stored.field_bytes(field)?);
        }
        Ok(true)
    }

    /// One write under the dataset drain lock (shared) and its key's lock.
    pub(crate) fn write(&self, op: WriteOp<'_>, sink: LogSink<'_>) -> Result<bool> {
        self.check_poisoned()?;
        let pk = match op {
            WriteOp::Insert(record) | WriteOp::Upsert(record) => {
                self.cfg.schema.check(record)?;
                record.get(self.cfg.pk_field)
            }
            WriteOp::Delete(pk) => pk,
        };
        let pk_key = encode_pk(pk);
        let _ds = self.dataset_lock.read();
        self.locks.lock_exclusive(&pk_key);
        let out = self.write_locked(op, pk, &pk_key, sink);
        self.locks.unlock_exclusive(&pk_key);
        out
    }

    /// Applies one write with its key locked. Returns `false` for a
    /// rejected duplicate insert and for an Eager delete of an absent key,
    /// else `true`.
    ///
    /// The strategies differ only in the old version of the key. Eager
    /// fetches it by a point lookup, for secondary anti-matter and filter
    /// maintenance (Section 3.1), but only when the primary key index may
    /// hold the key: its memory component, then its disk components' Bloom
    /// filters (`lsm_tree::may_contain`: one hash, one bill) are asked
    /// first, so a new key never searches the primary's components. The
    /// gate rests on one invariant: **every live primary version has a
    /// pk-index entry.** Both trees take the same puts in the same write;
    /// they flush in lockstep, and [`Unpublished`] publishes all of a
    /// flush's components or none; a merge keeps each key's newest
    /// version; `realign_after_crash` rolls the primary back whenever it is
    /// ahead of the pk index; and Bloom filters have no false negatives.
    /// Eager logs the fields of the old version it reads, and its replay
    /// takes them from the log record ([`LogSink::Replay`]) instead of
    /// looking anything up. Mutable-bitmap marks the old version deleted
    /// in place (Section 5.2). Validation and DeletedKeyBTree — and
    /// Mutable-bitmap's secondaries — clean up only an old version still in
    /// the memory component, which the primary put hands back for free
    /// (Section 4.2). Everything after that step is one sequence.
    pub(crate) fn write_locked(
        &self,
        op: WriteOp<'_>,
        pk: &Value,
        pk_key: &[u8],
        sink: LogSink<'_>,
    ) -> Result<bool> {
        let (log_op, record) = match op {
            WriteOp::Insert(record) => (LogOp::Insert, Some(record)),
            WriteOp::Upsert(record) => (LogOp::Upsert, Some(record)),
            WriteOp::Delete(_) => (LogOp::Delete, None),
        };
        let insert = log_op == LogOp::Insert;
        if insert {
            // Key-uniqueness check: the primary key index can be searched
            // instead of the primary index for efficiency (Section 3.1);
            // Figure 13 evaluates exactly this choice.
            self.stats.bump(&self.stats.maintenance_lookups);
            let existing = match &self.pk_index {
                Some(pk_tree) => point_lookup(pk_tree, pk_key)?,
                None => point_lookup(&self.primary, pk_key)?,
            };
            if existing.is_some_and(|e| !e.anti_matter) {
                self.stats.bump(&self.stats.inserts_rejected);
                return Ok(false);
            }
        }
        let ts = self.clock.tick();
        let ets = self.ts_for_entries(ts);
        let eager = self.cfg.strategy == StrategyKind::Eager;

        // The old version. An insert has none: its uniqueness check passed.
        // Eager reads only the maintained fields of it, and logs them.
        let mut update_bit = false;
        let mut old_fields = Vec::new();
        let fetched = match self.cfg.strategy {
            _ if insert => None,
            StrategyKind::Eager => {
                let old = match sink {
                    LogSink::Replay(logged) => logged,
                    _ => self
                        .fetch_old_fields(pk_key, &mut old_fields)?
                        .then(|| RecordView::parse(&old_fields))
                        .transpose()?,
                };
                if old.is_none() && record.is_none() {
                    return Ok(false); // delete of an absent key: ignored
                }
                old
            }
            StrategyKind::MutableBitmap => {
                update_bit = self.mark_old_version_deleted(pk_key)?;
                None
            }
            StrategyKind::Validation | StrategyKind::DeletedKeyBTree => None,
        };

        let value = record.map_or_else(Vec::new, Record::encode);
        let frame = Frame {
            lsn: ts,
            op: log_op,
            update_bit,
            key: pk_key,
            value: &value,
            appended: &old_fields,
        };
        self.log(sink, frame)?;
        let entry = |value| match record {
            Some(_) => LsmEntry::put_ts(value, ets),
            None => LsmEntry::anti_matter_ts(ets),
        };
        let replaced = self.primary.put(pk_key.to_vec(), entry(value), ts);
        if let Some(pk_tree) = &self.pk_index {
            pk_tree.put(pk_key.to_vec(), entry(Vec::new()), ts);
        }
        // Eager's memory entry, if any, is the version it fetched. The
        // others read a replaced memory entry through a view of it, never
        // decoding the fields they do not want.
        let replaced = replaced.filter(|e| !e.anti_matter && !eager);
        let replaced = replaced
            .as_ref()
            .map(|e| self.stored_record(&e.value))
            .transpose()?;
        // The old version's key in the `i`-th secondary: Eager's maintained
        // fields hold it at `i`, a whole record at the index's field.
        let old_sk = |i: usize, sec: &SecondaryIndex| match (&fetched, &replaced) {
            (Some(fields), _) => fields.field(i).map(Some),
            (None, Some(stored)) => stored.field(sec.field).map(Some),
            (None, None) => Ok(None),
        };

        for (i, sec) in self.secondaries.iter().enumerate() {
            let new_sk = record.map(|r| r.get(sec.field));
            if let Some(old_sk) = old_sk(i, sec)? {
                if new_sk == Some(&old_sk) {
                    if eager {
                        continue; // unchanged: no maintenance (Section 3.1)
                    }
                } else {
                    sec.tree
                        .put(encode_sk_pk(&old_sk, pk), LsmEntry::anti_matter_ts(ets), ts);
                }
            }
            if let Some(sk) = new_sk {
                sec.tree
                    .put(encode_sk_pk(sk, pk), LsmEntry::put_ts(Vec::new(), ets), ts);
            }
        }

        // Filters widen with the new record; Eager's also with the old one
        // (Figure 3 against Figures 4 and 9), whose filter field is its last
        // maintained field.
        if let Some(f) = self.cfg.filter_field {
            if let Some(record) = record {
                self.primary.widen_mem_filter(record.get(f));
            }
            if let Some(fields) = &fetched {
                self.primary
                    .widen_mem_filter(&fields.field(self.secondaries.len())?);
            }
        }
        self.stats.bump(match op {
            WriteOp::Insert(_) => &self.stats.inserts,
            WriteOp::Upsert(_) => &self.stats.upserts,
            WriteOp::Delete(_) => &self.stats.deletes,
        });
        Ok(true)
    }

    /// Starts a fluent multi-operation write batch; see
    /// [`WriteBatch`](crate::WriteBatch).
    pub fn batch(&self) -> crate::batch::WriteBatch<'_> {
        crate::batch::WriteBatch::new(self)
    }

    /// Applies a staged batch: one drain-lock acquisition, sorted-order
    /// key locking, then each operation in staging order, logged before it
    /// is applied.
    /// Backs [`WriteBatch::commit`](crate::WriteBatch::commit).
    pub(crate) fn apply_batch(
        &self,
        ops: Vec<crate::batch::StagedOp>,
    ) -> Result<Vec<crate::batch::BatchOpResult>> {
        use crate::batch::{BatchOpResult, StagedOp};

        self.check_poisoned()?;

        // Validate up front; data-level failures become per-op outcomes and
        // their slots drop out of the key set.
        let mut outcomes: Vec<Option<BatchOpResult>> = Vec::with_capacity(ops.len());
        let mut keyed: Vec<Option<(&Value, Vec<u8>)>> = Vec::with_capacity(ops.len());
        for op in &ops {
            let pk = match op.as_write() {
                WriteOp::Insert(r) | WriteOp::Upsert(r) => match self.cfg.schema.check(r) {
                    Ok(()) => r.get(self.cfg.pk_field),
                    Err(e) => {
                        outcomes.push(Some(BatchOpResult::Failed(e)));
                        keyed.push(None);
                        continue;
                    }
                },
                WriteOp::Delete(pk) => pk,
            };
            outcomes.push(None);
            keyed.push(Some((pk, encode_pk(pk))));
        }

        // Lock every touched key in sorted, deduplicated order — two
        // batches over overlapping key sets cannot deadlock.
        let mut lock_keys: Vec<&[u8]> = keyed
            .iter()
            .flatten()
            .map(|(_, key)| key.as_slice())
            .collect();
        lock_keys.sort_unstable();
        lock_keys.dedup();

        let _ds = self.dataset_lock.read();
        for key in &lock_keys {
            self.locks.lock_exclusive(key);
        }

        // Each operation logs, then applies, as a single write does; the
        // first infrastructure error stops the batch with the operations
        // before it applied and logged.
        let mut infra_err: Option<Error> = None;
        for (i, op) in ops.iter().enumerate() {
            if outcomes[i].is_some() {
                continue;
            }
            // INVARIANT: the validation pass set `keyed[i]` for every op it
            // did not already resolve into `outcomes[i]` (checked above).
            let (pk, key) = keyed[i].as_ref().expect("validated op has a key");
            let res = self
                .write_locked(op.as_write(), pk, key, LogSink::Immediate)
                .map(|done| match op {
                    StagedOp::Insert(_) if done => BatchOpResult::Inserted,
                    StagedOp::Insert(_) => BatchOpResult::RejectedDuplicate,
                    StagedOp::Upsert(_) => BatchOpResult::Upserted,
                    StagedOp::Delete(_) => BatchOpResult::Deleted(done),
                });
            match res {
                Ok(outcome) => outcomes[i] = Some(outcome),
                Err(e) => {
                    infra_err = Some(e);
                    break;
                }
            }
        }

        for key in lock_keys.iter().rev() {
            self.locks.unlock_exclusive(key);
        }
        drop(_ds);
        if let Some(e) = infra_err {
            return Err(e);
        }

        self.maybe_flush_and_merge()?;
        Ok(outcomes
            .into_iter()
            // INVARIANT: the loop above filled every `None` slot, and an
            // infra error already returned `Err` before this point.
            .map(|o| o.expect("every staged op resolved"))
            .collect())
    }

    /// Mutable-bitmap delete/upsert probe (Section 5.2): search the primary
    /// key index for the old version's position and set its bitmap bit.
    /// Returns the update bit for the log record. If a flush/merge is
    /// rebuilding the containing component, the delete is also routed to the
    /// successor (Section 5.3).
    fn mark_old_version_deleted(&self, pk_key: &[u8]) -> Result<bool> {
        // An old version still in the ACTIVE memory component needs no
        // bitmap work: the new memory entry replaces it outright. (An
        // active anti-matter entry means the key is already deleted there;
        // fall through to the disk probe, as the merged-view check did.)
        match self.primary.mem_get_active(pk_key) {
            Some(e) if !e.anti_matter => return Ok(false),
            Some(_) => {}
            None => {
                // An old version caught in the sealed (mid-flush) snapshot
                // is immutable and will reach disk with its bit unset, so
                // the delete is routed through the flush side-file and
                // applied before the new component becomes visible.
                // Writers hold the dataset read lock across this check and
                // the side-file closes under the write lock, so the append
                // cannot race the close.
                if self
                    .primary
                    .sealed_get(pk_key)
                    .is_some_and(|e| !e.anti_matter)
                    && self.append_flush_delete(pk_key)
                {
                    return Ok(true);
                }
            }
        }
        let pk_tree = self
            .pk_index
            .as_ref()
            .ok_or_else(|| Error::invalid("mutable-bitmap requires the primary key index"))?;
        let Some((comp, ordinal, _)) = locate_valid(pk_tree, pk_key)? else {
            return Ok(false);
        };
        let bitmap = comp
            .bitmap()
            .ok_or_else(|| Error::corruption("mutable-bitmap component carries no bitmap"))?;
        bitmap.set(ordinal);
        // Concurrency control for an in-progress flush/merge (Section 5.3):
        // the delete must also reach the successor component.
        if let Some(link) = comp.successor() {
            if let Some(new_comp) = link.new_component() {
                // Build finished: mark the key deleted in the new component
                // directly (Figure 11b lines 8-9 / Figure 10b lines 6-7).
                new_comp.mark_deleted(pk_key)?;
            } else if !link.try_append_side_file(pk_key.to_vec()) {
                // Lock method (side-file born closed): register against the
                // scanned prefix of the new component.
                link.try_direct_delete(pk_key);
            }
        }
        Ok(true)
    }

    /// The flush serialization lock — engine paths that flush individual
    /// trees directly (repair's anti-matter flush) hold this so they never
    /// race a dataset-wide flush that has snapshots sealed.
    pub(crate) fn flush_serialization(&self) -> &Mutex<()> {
        &self.flush_mutex
    }

    /// The merge serialization lock — engine paths that splice component
    /// lists outside [`Dataset::run_merges`] (repair-with-merge) hold this
    /// so they never race a background merge.
    pub(crate) fn merge_serialization(&self) -> &Mutex<()> {
        &self.merge_mutex
    }

    /// Blocks until this dataset's background jobs (queued + in-flight)
    /// are drained; a no-op in inline mode. Recovery uses this to pause
    /// structural maintenance before touching component state.
    pub(crate) fn drain_background(&self) {
        if let Some(handle) = self.runtime_handle() {
            handle.wait_idle();
        }
    }

    /// Appends a deleted key to the flush side-file, if one is open.
    fn append_flush_delete(&self, pk_key: &[u8]) -> bool {
        let mut guard = self.flush_deletes.lock();
        match guard.as_mut() {
            Some(keys) => {
                keys.push(pk_key.to_vec());
                true
            }
            None => false,
        }
    }

    // ---- structural maintenance ---------------------------------------------

    /// Combined *active* memory-component usage across all indexes — the
    /// flush-trigger metric (snapshots sealed for an in-progress flush are
    /// counted by [`Dataset::mem_unflushed_bytes`] instead).
    pub fn mem_total_bytes(&self) -> usize {
        self.mem_usage().0
    }

    /// Combined unflushed memory (active + sealed-for-flush components):
    /// the backpressure metric. Exceeding the hard ceiling stalls writers
    /// until a background flush frees memory.
    pub fn mem_unflushed_bytes(&self) -> usize {
        self.mem_usage().1
    }

    /// `(active, active + sealed)` bytes across all indexes, in one pass.
    fn mem_usage(&self) -> (usize, usize) {
        self.trees().fold((0, 0), |(active, unflushed), t| {
            let bytes = t.mem_bytes();
            (active + bytes, unflushed + bytes + t.sealed_bytes())
        })
    }

    /// Every index tree in page-write and publish order: the primary, the
    /// primary key index, then the secondaries.
    pub(crate) fn trees(&self) -> impl Iterator<Item = &LsmTree> {
        std::iter::once(&self.primary)
            .chain(&self.pk_index)
            .chain(self.secondaries.iter().map(|s| &s.tree))
    }

    pub(crate) fn maybe_flush_and_merge(&self) -> Result<()> {
        let Some(handle) = self.runtime_handle() else {
            return self.maintain_inline();
        };
        // Background mode: enqueue (deduped) and keep going; stall only at
        // the hard ceiling, preserving the shared-memory-budget semantics.
        let (active, unflushed) = self.mem_usage();
        if active > self.cfg.memory_budget {
            // Refresh the depth gauge only when a job was actually added:
            // the runtime's state mutex is engine-global now, and the
            // over-budget window covers many writes — one lock per write
            // (inside schedule_flush), not two.
            if handle.schedule_flush() {
                self.stats.bump(&self.stats.jobs_enqueued);
                self.stats.queue_depth.store(
                    handle.queue_depth() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
            }
        }
        let ceiling = self.cfg.effective_memory_ceiling();
        if unflushed > ceiling {
            self.stats.bump(&self.stats.backpressure_stalls);
            handle.stall_until(|| self.mem_unflushed_bytes() <= ceiling || self.is_poisoned());
            self.check_poisoned()?;
        }
        Ok(())
    }

    /// Inline maintenance: the writer that trips the memory budget pays for
    /// the flush and the merges synchronously.
    fn maintain_inline(&self) -> Result<()> {
        if self.mem_total_bytes() > self.cfg.memory_budget {
            self.flush_all()?;
            self.run_merges()?;
        }
        Ok(())
    }

    /// Flushes all memory components together (they share the budget, as in
    /// AsterixDB). Returns `true` if anything was flushed.
    ///
    /// Concurrency: the memory components are sealed atomically under the
    /// dataset drain lock (no operation is ever split across the seal), and
    /// the disk components are then built without blocking writers — they
    /// fill fresh memory components while the sealed snapshots stay
    /// readable. A per-dataset flush lock serializes overlapping calls.
    pub fn flush_all(&self) -> Result<bool> {
        let _flush = self.flush_mutex.lock();
        let mutable_bitmap = self.cfg.strategy == StrategyKind::MutableBitmap;
        // Complete a previous failed attempt first: snapshots it left
        // sealed would otherwise block sealing forever (transient build
        // errors must stay retryable). The Mutable-bitmap side-file stays
        // OPEN across a failure — the sealed versions are still visible,
        // so writers must keep routing their deletes — and the retry
        // applies everything accumulated.
        let mut flushed = false;
        if self.has_sealed_pending() {
            flushed |= self.build_and_install_sealed(mutable_bitmap)?;
        }
        {
            let _drain = self.dataset_lock.write();
            // Exact: the drain lock excludes every writer.
            let sealing = self.mem_total_bytes() as u64;
            let mut any = false;
            for tree in self.trees() {
                any |= tree.seal_mem()?;
            }
            if any && mutable_bitmap {
                // Open the flush side-file: deletes of versions caught in
                // the sealed snapshots are routed here (§5.3 applied to
                // flushes) and applied before the new component is
                // published.
                *self.flush_deletes.lock() = Some(Vec::new());
            }
            if !any {
                if flushed {
                    self.note_flush_durable()?;
                }
                return Ok(flushed);
            }
            self.stats
                .flush_sealed_bytes
                .fetch_add(sealing, std::sync::atomic::Ordering::Relaxed);
        }
        flushed |= self.build_and_install_sealed(mutable_bitmap)?;
        if flushed {
            self.note_flush_durable()?;
        }
        Ok(flushed)
    }

    /// True if any index has a snapshot sealed (an in-progress or failed
    /// flush).
    fn has_sealed_pending(&self) -> bool {
        self.trees().any(LsmTree::has_sealed)
    }

    /// Builds whatever is sealed into one component per index, back to
    /// back at the device's write frontier (pages written primary, pk
    /// index, secondaries; each tree owns its page range), then publishes
    /// them: one sequence for every strategy. Under Mutable-bitmap the pk-index
    /// component takes the primary's bitmap (Section 5.1: both sealed
    /// under one drain lock, so their ordinals coincide). Then, under the
    /// drain lock with no writer mid-op, the flush side-file (only
    /// Mutable-bitmap opens one) closes with its routed deletes marked, and
    /// the components are published, the primary first. A concurrent delete
    /// probe therefore either appends to the open side-file or sees the
    /// installed component; it never loses its mark. A failed flush retires
    /// what it built but did not publish; the snapshots stay sealed.
    fn build_and_install_sealed(&self, mutable_bitmap: bool) -> Result<bool> {
        if mutable_bitmap {
            // Make sure the side-file is open before (re)building: a retry
            // after a failure must capture deletes routed meanwhile.
            let _drain = self.dataset_lock.write();
            self.flush_deletes.lock().get_or_insert_with(Vec::new);
        }
        let trees: Vec<&LsmTree> = self.trees().collect();
        let mut built = Unpublished(Vec::with_capacity(trees.len()));
        for tree in &trees {
            built.0.push(tree.build_sealed()?);
        }
        if mutable_bitmap && self.pk_index.is_some() {
            // The primary and pk index receive identical key/timestamp
            // streams and seal together, so they flush together: each pair
            // shares one bitmap, ordinal for ordinal.
            match (&built.0[0], &built.0[1]) {
                (Some(p), Some(k)) => {
                    let bitmap = p
                        .bitmap()
                        .ok_or_else(|| Error::corruption("primary flush produced no bitmap"))?;
                    k.set_bitmap(bitmap)?;
                }
                (None, None) => {}
                _ => {
                    return Err(Error::corruption(
                        "mutable-bitmap flush mismatch: only one of the primary and pk index \
                         flushed",
                    ))
                }
            }
        }
        let _drain = self.dataset_lock.write();
        {
            // The side-file closes only once its deletes are marked: a
            // flush that fails here keeps them for the retry.
            let mut side = self.flush_deletes.lock();
            if let (Some(p), Some(routed)) = (&built.0[0], side.as_ref()) {
                for key in routed {
                    p.mark_deleted(key)?;
                }
            }
            *side = None;
        }
        let flushed = built.0[0].is_some();
        built.publish(0, &self.primary);
        // Crash window: the primary component is published, the pk index's
        // and the secondaries' are not yet.
        self.crash_site("flush_install")?;
        for (i, tree) in trees.iter().enumerate().skip(1) {
            built.publish(i, tree);
        }
        Ok(flushed)
    }

    /// Post-flush bookkeeping: count it and force the WAL (flushed
    /// components only ever contain committed operations).
    fn note_flush_durable(&self) -> Result<()> {
        self.stats.bump(&self.stats.flushes);
        if let Some(wal) = &self.wal {
            wal.force()?;
        }
        Ok(())
    }

    /// Applies the merge policy to the current component lists and returns
    /// the work it calls for — one plan per index (or one correlated plan)
    /// — without executing anything. [`Dataset::run_merges`] plans and
    /// executes to quiescence; a background merge job plans and executes
    /// one such round.
    pub fn plan_merges(&self) -> Vec<MergePlan> {
        let policy = self.cfg.merge.policy();
        let mut plans = Vec::new();
        if self.cfg.requires_correlated_merges() {
            if let Some(range) = self.primary.select_merge(&policy) {
                plans.push(MergePlan {
                    target: MergeTarget::Correlated,
                    range,
                });
            }
        } else {
            if let Some(range) = self.primary.select_merge(&policy) {
                plans.push(MergePlan {
                    target: MergeTarget::Primary,
                    range,
                });
            }
            if let Some(pk_tree) = &self.pk_index {
                if let Some(range) = pk_tree.select_merge(&policy) {
                    plans.push(MergePlan {
                        target: MergeTarget::PkIndex,
                        range,
                    });
                }
            }
            for (i, sec) in self.secondaries.iter().enumerate() {
                if let Some(range) = sec.tree.select_merge(&policy) {
                    plans.push(MergePlan {
                        target: MergeTarget::Secondary(i),
                        range,
                    });
                }
            }
        }
        plans
    }

    /// Executes one planned merge, serialized against all other merges on
    /// this dataset. Returns `false` (doing nothing) when the plan went
    /// stale — its range no longer fits the component list because another
    /// merge got there first.
    ///
    /// A correlated merge of a Mutable-bitmap dataset races live writers
    /// that mutate the very bitmaps being merged — under background
    /// maintenance, and equally under inline maintenance whenever the
    /// dataset has more than one writer (one writer's inline merge runs
    /// beside the others' upserts/deletes). It therefore always runs
    /// through the Section 5.3 concurrency-control path
    /// ([`crate::cc::merge_primary_with_cc`]) with the Side-file method,
    /// the cheaper of the paper's two (Figure 23); the plain path would
    /// scan a bitmap one moment and its sibling index the next, losing any
    /// delete that landed in between.
    pub fn execute_merge_plan(&self, plan: &MergePlan) -> Result<bool> {
        let _merges = self.merge_mutex.lock();
        self.execute_merge_plan_locked(plan)
    }

    /// [`Dataset::execute_merge_plan`] for a caller that holds the merge
    /// lock.
    pub(crate) fn execute_merge_plan_locked(&self, plan: &MergePlan) -> Result<bool> {
        let stale = |tree: &LsmTree| tree.num_disk_components() <= plan.range.end;
        match plan.target {
            MergeTarget::Correlated => {
                if stale(&self.primary) {
                    return Ok(false);
                }
                // A correlated plan is also stale while a concurrent flush
                // has installed the primary's new component but not yet the
                // pk index's: the per-tree counts disagree for an instant,
                // and a cc merge started then would pair mismatched
                // component lists. Skip — the flush re-arms merging once
                // it has installed both.
                if let Some(pk_tree) = &self.pk_index {
                    if stale(pk_tree) {
                        return Ok(false);
                    }
                }
                // The indexes merge in lockstep (Section 4.4): the primary
                // first, then the pk index, then every secondary.
                if self.cfg.strategy == StrategyKind::MutableBitmap {
                    use crate::cc::{merge_primary_with_cc, CcMethod};
                    merge_primary_with_cc(self, plan.range, CcMethod::SideFile)?;
                } else {
                    let keep = self.cfg.keeps_anti_matter();
                    self.primary.merge_range_with(plan.range, keep)?;
                    self.stats.bump(&self.stats.merges);
                    // Crash window: the primary's merged component is
                    // installed, the pk index and secondaries still hold
                    // the pre-merge components.
                    self.crash_site("merge_install")?;
                    if let Some(pk_tree) = &self.pk_index {
                        pk_tree.merge_range_with(plan.range, keep)?;
                        self.stats.bump(&self.stats.merges);
                    }
                }
                for sec in &self.secondaries {
                    if !stale(&sec.tree) {
                        self.merge_secondary(sec, plan.range)?;
                    }
                }
            }
            MergeTarget::Primary => {
                if stale(&self.primary) {
                    return Ok(false);
                }
                self.primary.merge_range(plan.range)?;
                self.stats.bump(&self.stats.merges);
            }
            MergeTarget::PkIndex => {
                let Some(pk_tree) = &self.pk_index else {
                    return Ok(false);
                };
                if stale(pk_tree) {
                    return Ok(false);
                }
                pk_tree.merge_range_with(plan.range, self.cfg.keeps_anti_matter())?;
                self.stats.bump(&self.stats.merges);
            }
            MergeTarget::Secondary(i) => {
                let Some(sec) = self.secondaries.get(i) else {
                    return Ok(false);
                };
                if stale(&sec.tree) {
                    return Ok(false);
                }
                self.merge_secondary(sec, plan.range)?;
            }
        }
        Ok(true)
    }

    /// Runs policy-driven merges until quiescent. Merges are serialized per
    /// dataset (they re-index components); flushes may proceed in parallel.
    pub fn run_merges(&self) -> Result<()> {
        while self.merge_round()? {}
        Ok(())
    }

    /// One merge round: plans under the merge lock and executes every plan
    /// of that round. Returns whether the policy called for any merge.
    /// Inline maintenance repeats rounds until quiescent; a background
    /// merge job runs one, planned when the job starts.
    pub(crate) fn merge_round(&self) -> Result<bool> {
        let _merges = self.merge_mutex.lock();
        let plans = self.plan_merges();
        for plan in &plans {
            self.execute_merge_plan_locked(plan)?;
        }
        Ok(!plans.is_empty())
    }

    /// Merges one secondary index range, repairing it when the strategy
    /// calls for it.
    fn merge_secondary(&self, sec: &SecondaryIndex, range: MergeRange) -> Result<()> {
        use crate::repair::merge_repair;
        let repair = match self.cfg.strategy {
            StrategyKind::Validation | StrategyKind::MutableBitmap => self.cfg.merge_repair,
            StrategyKind::DeletedKeyBTree => true,
            StrategyKind::Eager => false,
        };
        if repair {
            let pk_tree = self
                .pk_index
                .as_ref()
                .ok_or_else(|| Error::invalid("merge repair requires the primary key index"))?;
            merge_repair(&sec.tree, pk_tree, range, self.cfg.default_repair_mode())?;
            self.stats.bump(&self.stats.merges);
            self.stats.bump(&self.stats.repairs);
        } else {
            sec.tree.merge_range(range)?;
            self.stats.bump(&self.stats.merges);
        }
        Ok(())
    }

    // ---- simple reads ---------------------------------------------------------

    /// Fetches a record by primary key (newest live version).
    ///
    /// Unlike Eager's old-version step, a get does not ask the primary key
    /// index's filters first: a get mostly looks up a key that exists, and
    /// for one the pk probes come on top of the primary's own (gated gets
    /// cost a warm, read-heavy run about 8 % more simulated time per get).
    pub fn get(&self, pk: &Value) -> Result<Option<Record>> {
        let pk_key = encode_pk(pk);
        let mut hit = point_lookup(&self.primary, &pk_key)?;
        if hit.is_none() {
            hit = self.second_chance_lookup(&pk_key)?;
        }
        match hit {
            Some(e) if !e.anti_matter => {
                let arity = self.cfg.schema.arity();
                Ok(Some(Record::decode_sized(&e.value, arity)?))
            }
            _ => Ok(None),
        }
    }

    /// Second-chance probe for a primary key that resolved to "not found"
    /// on a Mutable-bitmap dataset (the Section 5.2 race): MB upserts mark
    /// the old disk version deleted in place *before* the new version
    /// reaches the memory component, so a lookup racing that window can
    /// see neither. Re-probing under the shared record lock closes it —
    /// any in-flight write for the key has completed by the time the lock
    /// is granted, so a key still missing then is genuinely absent.
    /// Returns `None` immediately for the other strategies, whose lookups
    /// never hide entries in place. Shared by [`Dataset::get`] and the
    /// query record-fetch paths.
    pub(crate) fn second_chance_lookup(&self, pk_key: &[u8]) -> Result<Option<LsmEntry>> {
        if self.cfg.strategy != StrategyKind::MutableBitmap {
            return Ok(None);
        }
        self.locks
            .with_shared(pk_key, || point_lookup(&self.primary, pk_key))
    }
}

/// The components one flush built, one slot per index in publish order
/// (primary, pk index, secondaries). Dropping the set retires every
/// component still in a slot, so a flush that fails after building leaves
/// no file behind.
struct Unpublished(Vec<Option<Arc<DiskComponent>>>);

impl Unpublished {
    /// Installs slot `i`'s component, if one was built, as `tree`'s newest.
    fn publish(&mut self, i: usize, tree: &LsmTree) {
        if let Some(comp) = self.0[i].take() {
            tree.install_sealed(comp);
        }
    }
}

impl Drop for Unpublished {
    fn drop(&mut self) {
        for comp in self.0.iter().flatten() {
            comp.retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecondaryIndexDef;
    use lsm_common::{FieldType, Schema};
    use lsm_storage::StorageOptions;

    fn tweet_schema() -> Schema {
        Schema::new(vec![
            ("id", FieldType::Int),
            ("location", FieldType::Str),
            ("time", FieldType::Int),
        ])
        .unwrap()
    }

    fn config(strategy: StrategyKind) -> DatasetConfig {
        let mut cfg = DatasetConfig::new(tweet_schema(), 0);
        cfg.strategy = strategy;
        cfg.secondary_indexes = vec![SecondaryIndexDef {
            name: "location".into(),
            field: 1,
        }];
        cfg.filter_field = Some(2);
        cfg.memory_budget = 64 * 1024;
        cfg
    }

    fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
        Dataset::open(Storage::new(StorageOptions::test()), None, config(strategy)).unwrap()
    }

    fn rec(id: i64, loc: &str, time: i64) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::Str(loc.into()),
            Value::Int(time),
        ])
    }

    fn all_strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
            StrategyKind::DeletedKeyBTree,
        ]
    }

    /// A dataset configured by `DatasetConfig::new` builds blocked filters
    /// on its primary and pk-index components: one probe is counted one
    /// cache miss and `k − 1` hits (`k` = 7 at the default 1 % rate).
    /// Secondary components build none, so probing one counts nothing.
    #[test]
    fn default_config_builds_blocked_filters() {
        let cfg = config(StrategyKind::Validation);
        assert_eq!(cfg.bloom_kind, lsm_bloom::BloomKind::Blocked);
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        for i in 0..100 {
            ds.upsert(&rec(i, "CA", 2015 + i)).unwrap();
        }
        ds.flush_all().unwrap();
        let storage = ds.storage();
        let probe = |tree: &LsmTree| {
            let components = tree.disk_components();
            assert_eq!(components.len(), 1);
            let before = storage.stats();
            components[0].bloom_may_contain(storage, &encode_pk(&Value::Int(-1)));
            let io = storage.stats().since(&before);
            (io.bloom_probe_misses, io.bloom_probe_hits, io.bloom_checks)
        };
        assert_eq!(probe(ds.primary()), (1, 6, 1));
        assert_eq!(probe(ds.pk_index().unwrap()), (1, 6, 1));
        assert_eq!(probe(&ds.secondary("location").unwrap().tree), (0, 0, 0));
    }

    #[test]
    fn insert_get_roundtrip_all_strategies() {
        for s in all_strategies() {
            let ds = dataset(s);
            assert!(ds.insert(&rec(101, "CA", 2015)).unwrap());
            assert!(ds.insert(&rec(102, "CA", 2016)).unwrap());
            assert_eq!(
                ds.get(&Value::Int(101)).unwrap().unwrap(),
                rec(101, "CA", 2015)
            );
            assert!(ds.get(&Value::Int(999)).unwrap().is_none());
        }
    }

    /// Regression: writing over a stored record that decodes cleanly but is
    /// shorter than the schema — the Eager old-record fetch, and the lazy
    /// strategies' memory-component cleanup — is a corruption error; both
    /// used to index the decoded record out of bounds.
    #[test]
    fn write_over_a_short_stored_record_is_an_error() {
        type Write = fn(&Dataset) -> Result<()>;
        let writes: [Write; 2] = [
            |ds| ds.upsert(&rec(7, "CA", 2015)),
            |ds| ds.delete(&Value::Int(7)).map(|_| ()),
        ];
        for s in all_strategies() {
            for write in writes {
                let ds = dataset(s);
                let ts = ds.clock().now();
                ds.primary().put(
                    encode_pk(&Value::Int(7)),
                    LsmEntry::put_ts(Value::Int(7).encode(), ts),
                    ts,
                );
                // Every primary version has its pk-index entry: Eager's
                // old-version step asks the pk index before the primary.
                if let Some(pk_tree) = ds.pk_index() {
                    pk_tree.put(
                        encode_pk(&Value::Int(7)),
                        LsmEntry::put_ts(Vec::new(), ts),
                        ts,
                    );
                }
                let result = write(&ds);
                assert!(
                    matches!(result, Err(Error::Corruption(_))),
                    "{s:?} {result:?}"
                );
            }
        }
    }

    #[test]
    fn duplicate_insert_rejected_all_strategies() {
        for s in all_strategies() {
            let ds = dataset(s);
            assert!(ds.insert(&rec(101, "CA", 2015)).unwrap());
            assert!(!ds.insert(&rec(101, "NY", 2018)).unwrap(), "{s:?}");
            // The original record remains.
            assert_eq!(
                ds.get(&Value::Int(101)).unwrap().unwrap(),
                rec(101, "CA", 2015)
            );
            assert_eq!(ds.stats().snapshot().inserts_rejected, 1);
        }
    }

    #[test]
    fn duplicate_check_works_across_flush() {
        for s in all_strategies() {
            let ds = dataset(s);
            ds.insert(&rec(1, "CA", 1)).unwrap();
            ds.flush_all().unwrap();
            assert!(!ds.insert(&rec(1, "NY", 2)).unwrap(), "{s:?}");
        }
    }

    #[test]
    fn upsert_replaces_all_strategies() {
        for s in all_strategies() {
            let ds = dataset(s);
            ds.insert(&rec(101, "CA", 2015)).unwrap();
            ds.flush_all().unwrap(); // old version on disk
            ds.upsert(&rec(101, "NY", 2018)).unwrap();
            assert_eq!(
                ds.get(&Value::Int(101)).unwrap().unwrap(),
                rec(101, "NY", 2018),
                "{s:?}"
            );
        }
    }

    #[test]
    fn delete_removes_all_strategies() {
        for s in all_strategies() {
            let ds = dataset(s);
            ds.insert(&rec(101, "CA", 2015)).unwrap();
            ds.flush_all().unwrap();
            ds.delete(&Value::Int(101)).unwrap();
            assert!(ds.get(&Value::Int(101)).unwrap().is_none(), "{s:?}");
            // Deleted keys can be re-inserted.
            assert!(ds.insert(&rec(101, "UT", 2019)).unwrap(), "{s:?}");
            assert!(ds.get(&Value::Int(101)).unwrap().is_some());
        }
    }

    #[test]
    fn eager_delete_of_absent_key_is_noop() {
        let ds = dataset(StrategyKind::Eager);
        assert!(!ds.delete(&Value::Int(5)).unwrap());
        assert_eq!(ds.stats().snapshot().deletes, 0, "ignored, so not counted");
        ds.insert(&rec(5, "CA", 2015)).unwrap();
        assert!(ds.delete(&Value::Int(5)).unwrap());
        assert_eq!(ds.stats().snapshot().deletes, 1);
    }

    #[test]
    fn mutable_bitmap_marks_disk_version() {
        let ds = dataset(StrategyKind::MutableBitmap);
        ds.insert(&rec(101, "CA", 2015)).unwrap();
        ds.insert(&rec(102, "CA", 2016)).unwrap();
        ds.flush_all().unwrap();
        let comp = &ds.primary().disk_components()[0];
        assert_eq!(comp.bitmap().unwrap().count_set(), 0);
        ds.upsert(&rec(101, "NY", 2018)).unwrap();
        // The old version of 101 is marked deleted in place (Figure 9).
        assert_eq!(comp.bitmap().unwrap().count_set(), 1);
        // The pk-index component shares the same bitmap.
        let pk_comp = &ds.pk_index().unwrap().disk_components()[0];
        assert_eq!(pk_comp.bitmap().unwrap().count_set(), 1);
        assert_eq!(
            ds.get(&Value::Int(101)).unwrap().unwrap(),
            rec(101, "NY", 2018)
        );
    }

    #[test]
    fn mutable_bitmap_delete_during_flush_window_is_routed() {
        // Reproduce the background-flush race deterministically: seal the
        // memory components (what flush_all does before building), delete a
        // sealed version mid-window, then finish the flush. The delete must
        // reach the new component's bitmap via the flush side-file.
        let ds = dataset(StrategyKind::MutableBitmap);
        ds.insert(&rec(1, "CA", 2015)).unwrap();
        ds.insert(&rec(2, "NY", 2016)).unwrap();
        {
            let _drain = ds.dataset_lock.write();
            ds.primary.seal_mem().unwrap();
            ds.pk_index.as_ref().unwrap().seal_mem().unwrap();
            for sec in &ds.secondaries {
                sec.tree.seal_mem().unwrap();
            }
            *ds.flush_deletes.lock() = Some(Vec::new());
        }
        // The old version of key 1 now sits in the immutable sealed
        // snapshot: the delete must be routed, not dropped.
        ds.delete(&Value::Int(1)).unwrap();
        assert_eq!(ds.flush_deletes.lock().as_ref().unwrap().len(), 1);
        ds.build_and_install_sealed(true).unwrap();
        assert!(ds.flush_deletes.lock().is_none(), "side-file closed");

        let comp = &ds.primary().disk_components()[0];
        assert_eq!(comp.bitmap().unwrap().count_set(), 1);
        let (_, ordinal) = comp.search(&encode_pk(&Value::Int(1))).unwrap().unwrap();
        assert!(!comp.is_valid(ordinal), "routed delete marked the bit");
        assert!(ds.get(&Value::Int(1)).unwrap().is_none());
        assert!(ds.get(&Value::Int(2)).unwrap().is_some());
        // The MB filter scan counts without reconciliation — exactly the
        // path that would overcount if the bit were missed.
        let report = ds.filter_scan().count().unwrap();
        assert_eq!(report.matches, 1);
    }

    #[test]
    fn flush_when_budget_exceeded() {
        let ds = dataset(StrategyKind::Eager);
        for i in 0..2000 {
            ds.insert(&rec(i, "CA", i)).unwrap();
        }
        assert!(
            ds.stats().snapshot().flushes > 0,
            "memory budget should trigger flushes"
        );
        assert!(ds.primary().num_disk_components() >= 1);
        // All data still reachable.
        assert!(ds.get(&Value::Int(0)).unwrap().is_some());
        assert!(ds.get(&Value::Int(1999)).unwrap().is_some());
    }

    /// Tiering (ratio 1.2, no cap) merges until no sequence qualifies:
    /// then each component outweighs all younger ones together over 1.2,
    /// so the total at least grows by 11/6 per component, oldest-ward,
    /// and `n` components, the newest at least a page, hold more than
    /// (11/6)^(n−1) pages. The bound is what the policy promises; the count
    /// follows the page sizes tiering sees. Here each flush is one page, a
    /// leaf carrying its footer, and the primary ends at 36, 8, 4, 1 and 1
    /// pages: five components.
    #[test]
    fn merges_run_under_policy() {
        use lsm_tree::{MergePolicy, TieringPolicy};
        let mut cfg = config(StrategyKind::Validation);
        cfg.memory_budget = 32 * 1024;
        cfg.merge.max_mergeable_bytes = u64::MAX;
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        for i in 0..4000 {
            ds.insert(&rec(i, "CA", i)).unwrap();
        }
        let snap = ds.stats().snapshot();
        assert!(snap.flushes >= 3, "flushes {}", snap.flushes);
        assert!(snap.merges > 0, "merges {}", snap.merges);
        let sizes: Vec<u64> = ds
            .primary()
            .disk_components()
            .iter()
            .rev()
            .map(|c| c.byte_size())
            .collect();
        let policy = TieringPolicy::new(u64::MAX);
        assert_eq!(policy.select(&sizes), None, "{sizes:?}");
        let pages = sizes.iter().sum::<u64>() / ds.storage().page_size() as u64;
        let n = sizes.len() as i32;
        assert!(
            (11.0f64 / 6.0).powi(n - 1) < pages as f64,
            "{n} components, {pages} pages"
        );
        assert!(ds.get(&Value::Int(3999)).unwrap().is_some());
    }

    /// Inline, a flush seals the moment the budget is crossed, so the mean
    /// flush is one budget plus at most the operation that crossed it.
    #[test]
    fn inline_flushes_seal_one_memory_budget() {
        let mut cfg = config(StrategyKind::Validation);
        cfg.memory_budget = 32 * 1024;
        let budget = cfg.memory_budget as f64;
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        for i in 0..4000 {
            ds.upsert(&rec(i, "CA", i)).unwrap();
        }
        let snap = ds.stats().snapshot();
        assert!(snap.flushes >= 3, "flushes {}", snap.flushes);
        let mean = snap.flush_sealed_bytes as f64 / snap.flushes as f64;
        assert!(
            (1.0..=1.05).contains(&(mean / budget)),
            "mean flush of {mean} bytes against a budget of {budget}"
        );
    }

    /// Inline, `Maintenance::flush` flushes and nothing more: the merges
    /// wait for the next write that trips the budget.
    #[test]
    fn inline_flush_leaves_merges_to_the_next_budget_trip() {
        let mut cfg = config(StrategyKind::Validation);
        cfg.memory_budget = 32 * 1024;
        cfg.merge.max_mergeable_bytes = u64::MAX;
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        for round in 0..4 {
            for i in 0..20 {
                ds.upsert(&rec(i, "CA", round)).unwrap();
            }
            assert!(ds.maintenance().flush().unwrap());
        }
        let snap = ds.stats().snapshot();
        assert_eq!((snap.flushes, snap.merges), (4, 0));
        assert_eq!(ds.primary().num_disk_components(), 4);
        let mut id = 1000;
        while ds.stats().snapshot().flushes == 4 {
            ds.upsert(&rec(id, "CA", 0)).unwrap();
            id += 1;
        }
        assert!(ds.stats().snapshot().merges > 0);
        assert!(ds.primary().num_disk_components() < 5);
    }

    #[test]
    fn correlated_merges_keep_indexes_aligned() {
        let mut cfg = config(StrategyKind::MutableBitmap);
        cfg.memory_budget = 32 * 1024;
        cfg.merge.max_mergeable_bytes = u64::MAX;
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        for i in 0..3000 {
            ds.upsert(&rec(i % 1000, "CA", i)).unwrap();
        }
        let p = ds.primary().num_disk_components();
        let k = ds.pk_index().unwrap().num_disk_components();
        assert_eq!(p, k, "correlated merges must keep components aligned");
        // Components pair up with shared bitmaps.
        for (pc, kc) in ds
            .primary()
            .disk_components()
            .iter()
            .zip(ds.pk_index().unwrap().disk_components().iter())
        {
            assert_eq!(pc.num_entries(), kc.num_entries());
            assert!(Arc::ptr_eq(&pc.bitmap().unwrap(), &kc.bitmap().unwrap()));
        }
    }

    /// Regression (pk-index merges dropped anti-matter): a merge of the
    /// pk index that reached its oldest component dropped a deleted key's
    /// anti-matter, after which Timestamp validation — index-only queries,
    /// repair — read the key's stale secondary entry as valid again. Every
    /// merge path of a dataset validated against its pk index: the pk
    /// index merged on its own, a correlated merge, Mutable-bitmap's.
    #[test]
    fn merges_keep_deleted_keys_obsolete_to_validation() {
        let correlated = |strategy| {
            let mut cfg = config(strategy);
            cfg.merge.correlated = true;
            cfg
        };
        let cases = [
            (
                config(StrategyKind::Validation),
                vec![MergeTarget::Primary, MergeTarget::PkIndex],
            ),
            (
                correlated(StrategyKind::Validation),
                vec![MergeTarget::Correlated],
            ),
            (
                config(StrategyKind::MutableBitmap),
                vec![MergeTarget::Correlated],
            ),
        ];
        let ca = |ds: &Dataset| {
            let res = ds.query("location").eq("CA").index_only().execute();
            let mut keys = res.unwrap().keys().to_vec();
            keys.sort();
            keys
        };
        let want: Vec<Value> = (0..10).filter(|&i| i != 3).map(Value::Int).collect();
        for (mut cfg, targets) in cases {
            cfg.merge_repair = false;
            cfg.memory_budget = usize::MAX;
            let strategy = cfg.strategy;
            let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
            for i in 0..10 {
                ds.insert(&rec(i, "CA", i)).unwrap();
            }
            ds.flush_all().unwrap();
            ds.delete(&Value::Int(3)).unwrap();
            ds.flush_all().unwrap();
            assert_eq!(ca(&ds), want, "{strategy:?}: before the merge");
            for target in targets {
                let range = MergeRange { start: 0, end: 1 };
                assert!(ds.execute_merge_plan(&MergePlan { target, range }).unwrap());
            }
            assert_eq!(ca(&ds), want, "{strategy:?}: after the merge");
            let reports = ds.maintenance().repair_all().unwrap();
            let invalidated: u64 = reports.iter().map(|r| r.invalidated).sum();
            assert_eq!(invalidated, 1, "{strategy:?}: repair invalidates id 3");
        }
    }

    #[test]
    fn eager_counts_maintenance_lookups() {
        let ds = dataset(StrategyKind::Eager);
        ds.insert(&rec(1, "CA", 1)).unwrap();
        ds.upsert(&rec(1, "NY", 2)).unwrap();
        ds.delete(&Value::Int(1)).unwrap();
        // insert (uniqueness) + upsert (old record) + delete (old record).
        assert_eq!(ds.stats().snapshot().maintenance_lookups, 3);
        // A key the pk index never saw has no old record to look up.
        ds.upsert(&rec(2, "CA", 1)).unwrap();
        assert!(!ds.delete(&Value::Int(3)).unwrap());
        assert_eq!(ds.stats().snapshot().maintenance_lookups, 3);
    }

    /// An Eager upsert of a new key asks only the pk index: one Bloom
    /// probe per pk-index component, no primary filter, no B+-tree
    /// search, no maintenance lookup. Without the pk index the same
    /// upsert probes every primary filter.
    #[test]
    fn eager_new_key_probes_only_the_pk_index_filters() {
        for with_pk_index in [true, false] {
            let mut cfg = config(StrategyKind::Eager);
            cfg.with_pk_index = with_pk_index;
            let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
            for round in 0..3 {
                for i in 0..50 {
                    ds.upsert(&rec(round * 100 + i, "CA", i)).unwrap();
                }
                ds.flush_all().unwrap();
            }
            let components = ds.primary().num_disk_components() as u64;
            assert_eq!(components, 3);
            if let Some(pk_tree) = ds.pk_index() {
                assert_eq!(pk_tree.num_disk_components() as u64, components);
            }
            let (io, engine) = (ds.storage().stats(), ds.stats().snapshot());
            ds.upsert(&rec(10_000, "NY", 1)).unwrap();
            let io = ds.storage().stats().since(&io);
            let lookups = ds.stats().snapshot().maintenance_lookups - engine.maintenance_lookups;
            assert_eq!(io.bloom_checks, components, "pk index {with_pk_index}");
            assert_eq!(io.bloom_negatives, components, "pk index {with_pk_index}");
            assert_eq!(
                io.seq_reads + io.rand_reads + io.cache_hits,
                0,
                "no tree search"
            );
            assert_eq!(lookups, u64::from(!with_pk_index));
        }
    }

    /// Flush outputs are written through the data device's buffer cache:
    /// a merge of freshly flushed primary-key-index components reads no
    /// device page while the cache holds them, and reads each of them once
    /// the cache is cleared. The log device caches nothing it writes: a
    /// replay of the log reads every page from the device.
    #[test]
    fn merging_fresh_pk_components_reads_no_device_page() {
        let merge_reads = |cold: bool| {
            let (data, log) = (
                Storage::new(StorageOptions::test()),
                Storage::new(StorageOptions::test()),
            );
            let mut cfg = config(StrategyKind::Validation);
            cfg.memory_budget = usize::MAX; // flushes are explicit here
            cfg.merge.max_mergeable_bytes = 0; // and so are merges
            let ds = Dataset::open(data.clone(), Some(log.clone()), cfg).unwrap();
            for round in 0..3 {
                for i in 0..200 {
                    ds.upsert(&rec(i * 3 + round, "CA", i)).unwrap();
                }
                ds.flush_all().unwrap();
            }
            let pk_tree = ds.pk_index().unwrap();
            assert_eq!(pk_tree.num_disk_components(), 3);
            let leaves: u64 = pk_tree
                .disk_components()
                .iter()
                .map(|c| u64::from(c.btree().num_leaves()))
                .sum();
            if cold {
                data.clear_cache();
            }
            let before = data.stats();
            pk_tree
                .merge_range(lsm_tree::MergeRange { start: 0, end: 2 })
                .unwrap();
            let logged = log.stats();
            ds.wal().unwrap().replay(0, true).unwrap();
            let replay = log.stats().since(&logged);
            assert_eq!(replay.cache_hits, 0);
            assert!(replay.disk_reads() > 0);
            (data.stats().since(&before).disk_reads(), leaves)
        };
        assert_eq!(merge_reads(false).0, 0);
        let (cold_reads, leaves) = merge_reads(true);
        assert_eq!(cold_reads, leaves);
    }

    #[test]
    fn wal_records_ingestion() {
        let storage = Storage::new(StorageOptions::test());
        let log = Storage::new(StorageOptions::test());
        let ds = Dataset::open(storage, Some(log), config(StrategyKind::Validation)).unwrap();
        ds.insert(&rec(1, "CA", 1)).unwrap();
        ds.upsert(&rec(1, "NY", 2)).unwrap();
        ds.delete(&Value::Int(1)).unwrap();
        let recs = ds.wal().unwrap().replay(0, true).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].op, LogOp::Insert);
        assert_eq!(recs[1].op, LogOp::Upsert);
        assert_eq!(recs[2].op, LogOp::Delete);
        assert!(recs.windows(2).all(|w| w[0].lsn < w[1].lsn));
    }
}
