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
use crate::txn::{LockManager, LogOp, LogRecord, Wal};
use lsm_common::{Error, LogicalClock, Record, RecordView, Result, Timestamp, Value};
use lsm_storage::Storage;
use lsm_tree::{locate_valid, point_lookup, LsmEntry, LsmOptions, LsmTree, MergeRange};
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
    /// Set during recovery replay (suppresses re-logging to the WAL).
    recovering: std::sync::atomic::AtomicBool,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
/// instead of looping internally, so a scheduler can queue, dedup, and
/// execute them on worker threads ([`Dataset::execute_merge_plan`]).
///
/// `range` uses oldest-first component indexing, which stays stable across
/// concurrent flushes (flushes prepend at the *newest* end); only another
/// merge invalidates a plan, and merges are serialized per dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MergePlan {
    /// The index (group) to merge.
    pub target: MergeTarget,
    /// Component range to merge, oldest-first.
    pub range: MergeRange,
}

/// Where a write operation's log record goes: straight to the WAL (the
/// single-operation paths), or into a [`WriteBatch`](crate::WriteBatch)'s
/// staging buffer for one group append at commit.
pub(crate) enum LogSink<'a> {
    /// Append to the WAL immediately, probing the `wal_append` crash site.
    Immediate,
    /// Collect records for a batch-wide group append.
    Staged(&'a mut Vec<LogRecord>),
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
            recovering: std::sync::atomic::AtomicBool::new(false),
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

    /// Records a fatal background-maintenance failure. The first error
    /// wins; every subsequent write fails with it ("poisoned-state flag
    /// surfaced on the next write") instead of the worker aborting the
    /// process.
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
            "dataset poisoned by background maintenance: {cause}"
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
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The dataset-level drain lock (Side-file method).
    pub fn dataset_lock(&self) -> &RwLock<()> {
        &self.dataset_lock
    }

    fn ts_for_entries(&self, ts: Timestamp) -> Timestamp {
        if self.cfg.strategy.stores_timestamps() {
            ts
        } else {
            lsm_common::clock::NO_TIMESTAMP
        }
    }

    pub(crate) fn pk_of(&self, record: &Record) -> Value {
        record.get(self.cfg.pk_field).clone()
    }

    fn filter_value(&self, record: &Record) -> Option<Value> {
        self.cfg.filter_field.map(|f| record.get(f).clone())
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

    /// Marks the dataset as replaying the log (operations are not re-logged).
    pub(crate) fn set_recovering(&self, on: bool) {
        self.recovering
            .store(on, std::sync::atomic::Ordering::SeqCst);
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
    /// feeding the crash-site coverage counters: a passage while a plan is
    /// armed bumps `crash_sites_armed`; a passage where the plan fires
    /// additionally bumps `crash_sites_hit` and returns the injected error
    /// (aborting the enclosing operation mid-window, exactly like a crash
    /// at that point would).
    fn crash_site_on(&self, device: &Storage, name: &str) -> Result<()> {
        match device.probe_crash_site(name) {
            lsm_storage::SiteOutcome::Unarmed => Ok(()),
            lsm_storage::SiteOutcome::Armed => {
                self.stats.bump(&self.stats.crash_sites_armed);
                Ok(())
            }
            lsm_storage::SiteOutcome::Fired(e) => {
                self.stats.bump(&self.stats.crash_sites_armed);
                self.stats.bump(&self.stats.crash_sites_hit);
                Err(e)
            }
        }
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
    /// * **Torn merge install** — the primary swapped in a merged component
    ///   but the pk index still holds the pre-merge components *covered by
    ///   its interval*. Nothing was lost; redo the pk side by mirroring the
    ///   merged primary component (same keys/timestamps/anti-matter in the
    ///   same order), which restores the ordinal alignment the shared
    ///   bitmaps of the Mutable-bitmap strategy require. Secondaries need
    ///   no repair — their merge simply re-runs when next planned.
    ///
    /// Idempotent: on an aligned dataset this is a no-op.
    pub(crate) fn realign_after_crash(&self) -> Result<()> {
        if self.pk_index.is_none() && self.secondaries.is_empty() {
            return Ok(()); // single index: no alignment to restore
        }
        // Torn flush installs (newest-first): roll back primary components
        // that postdate every sibling component. When a pk index exists it
        // is the reference — it flushes in lockstep with the primary and is
        // the *next* install after the primary in every flush path, so it
        // (not the secondaries, which the Mutable-bitmap path installs
        // first) tells a torn flush from a torn merge: a merged component's
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
        // pre-merge counterparts are still installed in the pk index.
        let Some(pk_tree) = &self.pk_index else {
            return Ok(());
        };
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

    fn log(
        &self,
        sink: &mut LogSink<'_>,
        op: LogOp,
        key: &[u8],
        value: &[u8],
        ts: Timestamp,
        update_bit: bool,
    ) -> Result<()> {
        if self.recovering.load(std::sync::atomic::Ordering::SeqCst) {
            return Ok(());
        }
        if let Some(wal) = &self.wal {
            match sink {
                LogSink::Immediate => {
                    // Crash *before* the record is even buffered: the
                    // operation is simply not durable, as if the process
                    // died entering the log call.
                    self.crash_site_on(wal.storage(), "wal_append")?;
                    // Borrowed: the staging page takes the only copy.
                    wal.append_frame(Frame {
                        lsn: ts,
                        op,
                        update_bit,
                        key,
                        value,
                    })?;
                }
                // A batch stages its records and appends them as one group
                // at commit ([`WriteBatch::commit`](crate::WriteBatch)).
                LogSink::Staged(buf) => buf.push(LogRecord {
                    lsn: ts,
                    op,
                    key: key.to_vec(),
                    value: value.to_vec(),
                    update_bit,
                }),
            }
        }
        Ok(())
    }

    /// Appends a batch's staged records as one WAL group (probing the
    /// `wal_append` crash site once for the whole group). Called by
    /// [`WriteBatch::commit`](crate::WriteBatch) while the dataset drain
    /// lock is held, so the records cannot be forced or checkpointed out
    /// from under the commit.
    pub(crate) fn log_staged(&self, records: &[LogRecord]) -> Result<()> {
        if records.is_empty() || self.recovering.load(std::sync::atomic::Ordering::SeqCst) {
            return Ok(());
        }
        if let Some(wal) = &self.wal {
            self.crash_site_on(wal.storage(), "wal_append")?;
            wal.append_batch(records)?;
        }
        Ok(())
    }

    // ---- ingestion ----------------------------------------------------------

    /// Inserts a record; returns `false` if the primary key already exists
    /// (the key-uniqueness check of Section 3.1).
    pub fn insert(&self, record: &Record) -> Result<bool> {
        self.check_poisoned()?;
        self.cfg.schema.check(record)?;
        let _ds = self.dataset_lock.read();
        let pk = self.pk_of(record);
        let pk_key = encode_pk(&pk);
        self.locks.lock_exclusive(&pk_key);
        let out = self.insert_locked(record, &pk, &pk_key, &mut LogSink::Immediate);
        self.locks.unlock_exclusive(&pk_key);
        let out = out?;
        drop(_ds);
        self.maybe_flush_and_merge()?;
        Ok(out)
    }

    pub(crate) fn insert_locked(
        &self,
        record: &Record,
        pk: &Value,
        pk_key: &[u8],
        sink: &mut LogSink<'_>,
    ) -> Result<bool> {
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

        let ts = self.clock.tick();
        let record_bytes = record.encode();
        self.log(sink, LogOp::Insert, pk_key, &record_bytes, ts, false)?;
        let ets = self.ts_for_entries(ts);
        self.primary
            .put(pk_key.to_vec(), LsmEntry::put_ts(record_bytes, ets), ts);
        if let Some(pk_tree) = &self.pk_index {
            pk_tree.put(pk_key.to_vec(), LsmEntry::put_ts(Vec::new(), ets), ts);
        }
        for sec in &self.secondaries {
            let sk = record.get(sec.field);
            sec.tree
                .put(encode_sk_pk(sk, pk), LsmEntry::put_ts(Vec::new(), ets), ts);
        }
        if let Some(v) = self.filter_value(record) {
            self.primary.widen_mem_filter(&v);
        }
        self.stats.bump(&self.stats.inserts);
        Ok(true)
    }

    /// Deletes by primary key. Returns `true` if the strategy knows a record
    /// was removed (the lazy strategies apply deletes blindly and return
    /// `true` unconditionally).
    pub fn delete(&self, pk: &Value) -> Result<bool> {
        self.check_poisoned()?;
        let _ds = self.dataset_lock.read();
        let pk_key = encode_pk(pk);
        self.locks.lock_exclusive(&pk_key);
        let out = self.delete_locked(pk, &pk_key, &mut LogSink::Immediate);
        self.locks.unlock_exclusive(&pk_key);
        let out = out?;
        drop(_ds);
        self.maybe_flush_and_merge()?;
        Ok(out)
    }

    pub(crate) fn delete_locked(
        &self,
        pk: &Value,
        pk_key: &[u8],
        sink: &mut LogSink<'_>,
    ) -> Result<bool> {
        let ts = self.clock.tick();
        let ets = self.ts_for_entries(ts);
        match self.cfg.strategy {
            StrategyKind::Eager => {
                // Fetch the old record to produce secondary anti-matter and
                // maintain filters (Section 3.1).
                self.stats.bump(&self.stats.maintenance_lookups);
                let old = point_lookup(&self.primary, pk_key)?;
                let Some(old) = old.filter(|e| !e.anti_matter) else {
                    return Ok(false); // key absent: ignored
                };
                let old_record = self.stored_record(&old.value)?;
                self.log(sink, LogOp::Delete, pk_key, &[], ts, false)?;
                self.primary
                    .put(pk_key.to_vec(), LsmEntry::anti_matter_ts(ets), ts);
                if let Some(pk_tree) = &self.pk_index {
                    pk_tree.put(pk_key.to_vec(), LsmEntry::anti_matter_ts(ets), ts);
                }
                for sec in &self.secondaries {
                    let sk = old_record.field(sec.field)?;
                    sec.tree
                        .put(encode_sk_pk(&sk, pk), LsmEntry::anti_matter_ts(ets), ts);
                }
                if let Some(f) = self.cfg.filter_field {
                    self.primary.widen_mem_filter(&old_record.field(f)?);
                }
            }
            StrategyKind::Validation | StrategyKind::DeletedKeyBTree => {
                // Anti-matter into the primary index and the primary key
                // index only (Section 4.2); secondaries are cleaned lazily.
                self.log(sink, LogOp::Delete, pk_key, &[], ts, false)?;
                let old = self
                    .primary
                    .put(pk_key.to_vec(), LsmEntry::anti_matter_ts(ets), ts);
                if let Some(pk_tree) = &self.pk_index {
                    pk_tree.put(pk_key.to_vec(), LsmEntry::anti_matter_ts(ets), ts);
                }
                // Memory-component optimization (Section 4.2): an old record
                // still in memory yields free secondary anti-matter.
                self.local_secondary_cleanup(pk, old, None, ets, ts)?;
            }
            StrategyKind::MutableBitmap => {
                // Mark the old version deleted in place through the shared
                // bitmap, located via the primary key index (Section 5.2).
                let update_bit = self.mark_old_version_deleted(pk_key)?;
                self.log(sink, LogOp::Delete, pk_key, &[], ts, update_bit)?;
                let old = self
                    .primary
                    .put(pk_key.to_vec(), LsmEntry::anti_matter_ts(ets), ts);
                if let Some(pk_tree) = &self.pk_index {
                    pk_tree.put(pk_key.to_vec(), LsmEntry::anti_matter_ts(ets), ts);
                }
                self.local_secondary_cleanup(pk, old, None, ets, ts)?;
            }
        }
        self.stats.bump(&self.stats.deletes);
        Ok(true)
    }

    /// Upserts a record (insert-or-replace).
    pub fn upsert(&self, record: &Record) -> Result<()> {
        self.check_poisoned()?;
        self.cfg.schema.check(record)?;
        let _ds = self.dataset_lock.read();
        let pk = self.pk_of(record);
        let pk_key = encode_pk(&pk);
        self.locks.lock_exclusive(&pk_key);
        let out = self.upsert_locked(record, &pk, &pk_key, &mut LogSink::Immediate);
        self.locks.unlock_exclusive(&pk_key);
        out?;
        drop(_ds);
        self.maybe_flush_and_merge()
    }

    /// Upsert without the flush/merge check (used by concurrent-writer
    /// benchmarks that must not trigger reentrant structural operations).
    pub fn upsert_no_maintenance(&self, record: &Record) -> Result<()> {
        self.check_poisoned()?;
        self.cfg.schema.check(record)?;
        let _ds = self.dataset_lock.read();
        let pk = self.pk_of(record);
        let pk_key = encode_pk(&pk);
        self.locks.lock_exclusive(&pk_key);
        let out = self.upsert_locked(record, &pk, &pk_key, &mut LogSink::Immediate);
        self.locks.unlock_exclusive(&pk_key);
        out
    }

    /// Starts a fluent multi-operation write batch; see
    /// [`WriteBatch`](crate::WriteBatch).
    pub fn batch(&self) -> crate::batch::WriteBatch<'_> {
        crate::batch::WriteBatch::new(self)
    }

    /// Applies a staged batch: one drain-lock acquisition, sorted-order
    /// key locking, operations in staging order, one WAL group append.
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
        let mut keyed: Vec<Option<(Value, Vec<u8>)>> = Vec::with_capacity(ops.len());
        for op in &ops {
            match op {
                StagedOp::Insert(r) | StagedOp::Upsert(r) => {
                    if let Err(e) = self.cfg.schema.check(r) {
                        outcomes.push(Some(BatchOpResult::Failed(e)));
                        keyed.push(None);
                    } else {
                        let pk = self.pk_of(r);
                        let key = encode_pk(&pk);
                        outcomes.push(None);
                        keyed.push(Some((pk, key)));
                    }
                }
                StagedOp::Delete(pk) => {
                    let key = encode_pk(pk);
                    outcomes.push(None);
                    keyed.push(Some((pk.clone(), key)));
                }
            }
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

        let mut staged: Vec<LogRecord> = Vec::new();
        let mut infra_err: Option<Error> = None;
        for (i, op) in ops.iter().enumerate() {
            if outcomes[i].is_some() {
                continue;
            }
            // INVARIANT: the validation pass set `keyed[i]` for every op it
            // did not already resolve into `outcomes[i]` (checked above).
            let (pk, key) = keyed[i].as_ref().expect("validated op has a key");
            let mut sink = LogSink::Staged(&mut staged);
            let res = match op {
                StagedOp::Insert(r) => self.insert_locked(r, pk, key, &mut sink).map(|ok| {
                    if ok {
                        BatchOpResult::Inserted
                    } else {
                        BatchOpResult::RejectedDuplicate
                    }
                }),
                StagedOp::Upsert(r) => self
                    .upsert_locked(r, pk, key, &mut sink)
                    .map(|()| BatchOpResult::Upserted),
                StagedOp::Delete(pk_value) => self
                    .delete_locked(pk_value, key, &mut sink)
                    .map(BatchOpResult::Deleted),
            };
            match res {
                Ok(outcome) => outcomes[i] = Some(outcome),
                Err(e) => {
                    infra_err = Some(e);
                    break;
                }
            }
        }

        // One group append for the whole batch, while the drain lock and
        // key locks are still held.
        if infra_err.is_none() {
            if let Err(e) = self.log_staged(&staged) {
                infra_err = Some(e);
            }
        }

        for key in lock_keys.iter().rev() {
            self.locks.unlock_exclusive(key);
        }
        drop(_ds);

        if let Some(e) = infra_err {
            // Operations may already be applied in memory without their log
            // records having reached the WAL; durability for them can no
            // longer be promised, so fail every subsequent write too.
            if !staged.is_empty() {
                self.poison(e.clone());
            }
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

    pub(crate) fn upsert_locked(
        &self,
        record: &Record,
        pk: &Value,
        pk_key: &[u8],
        sink: &mut LogSink<'_>,
    ) -> Result<()> {
        let ts = self.clock.tick();
        let ets = self.ts_for_entries(ts);
        let record_bytes = record.encode();
        match self.cfg.strategy {
            StrategyKind::Eager => {
                // Point lookup to fetch the old record (Section 3.1).
                self.stats.bump(&self.stats.maintenance_lookups);
                let old = point_lookup(&self.primary, pk_key)?.filter(|e| !e.anti_matter);
                // Only single fields of the old record are wanted: read
                // them through a view, never decoding the rest.
                let old_record = old
                    .as_ref()
                    .map(|e| self.stored_record(&e.value))
                    .transpose()?;
                self.log(sink, LogOp::Upsert, pk_key, &record_bytes, ts, false)?;
                self.primary
                    .put(pk_key.to_vec(), LsmEntry::put_ts(record_bytes, ets), ts);
                if let Some(pk_tree) = &self.pk_index {
                    pk_tree.put(pk_key.to_vec(), LsmEntry::put_ts(Vec::new(), ets), ts);
                }
                for sec in &self.secondaries {
                    let new_sk = record.get(sec.field);
                    match &old_record {
                        Some(old_rec) => {
                            let old_sk = old_rec.field(sec.field)?;
                            if &old_sk == new_sk {
                                // Unchanged secondary key: skip maintenance
                                // (the Section 3.1 optimization).
                                continue;
                            }
                            sec.tree.put(
                                encode_sk_pk(&old_sk, pk),
                                LsmEntry::anti_matter_ts(ets),
                                ts,
                            );
                            sec.tree.put(
                                encode_sk_pk(new_sk, pk),
                                LsmEntry::put_ts(Vec::new(), ets),
                                ts,
                            );
                        }
                        None => {
                            sec.tree.put(
                                encode_sk_pk(new_sk, pk),
                                LsmEntry::put_ts(Vec::new(), ets),
                                ts,
                            );
                        }
                    }
                }
                // Filters maintained on BOTH the old and new record
                // (Figure 3).
                if let Some(v) = self.filter_value(record) {
                    self.primary.widen_mem_filter(&v);
                }
                if let (Some(old_rec), Some(f)) = (&old_record, self.cfg.filter_field) {
                    self.primary.widen_mem_filter(&old_rec.field(f)?);
                }
            }
            StrategyKind::Validation | StrategyKind::DeletedKeyBTree => {
                self.log(sink, LogOp::Upsert, pk_key, &record_bytes, ts, false)?;
                let old =
                    self.primary
                        .put(pk_key.to_vec(), LsmEntry::put_ts(record_bytes, ets), ts);
                if let Some(pk_tree) = &self.pk_index {
                    pk_tree.put(pk_key.to_vec(), LsmEntry::put_ts(Vec::new(), ets), ts);
                }
                for sec in &self.secondaries {
                    sec.tree.put(
                        encode_sk_pk(record.get(sec.field), pk),
                        LsmEntry::put_ts(Vec::new(), ets),
                        ts,
                    );
                }
                self.local_secondary_cleanup(pk, old, Some(record), ets, ts)?;
                // Filters maintained on the new record only (Figure 4).
                if let Some(v) = self.filter_value(record) {
                    self.primary.widen_mem_filter(&v);
                }
            }
            StrategyKind::MutableBitmap => {
                let update_bit = self.mark_old_version_deleted(pk_key)?;
                self.log(sink, LogOp::Upsert, pk_key, &record_bytes, ts, update_bit)?;
                let old =
                    self.primary
                        .put(pk_key.to_vec(), LsmEntry::put_ts(record_bytes, ets), ts);
                if let Some(pk_tree) = &self.pk_index {
                    pk_tree.put(pk_key.to_vec(), LsmEntry::put_ts(Vec::new(), ets), ts);
                }
                // Secondary indexes are maintained with the Validation
                // strategy (Section 5.2 / 6.3.2).
                for sec in &self.secondaries {
                    sec.tree.put(
                        encode_sk_pk(record.get(sec.field), pk),
                        LsmEntry::put_ts(Vec::new(), ets),
                        ts,
                    );
                }
                self.local_secondary_cleanup(pk, old, Some(record), ets, ts)?;
                // Filters maintained on the new record only (Figure 9).
                if let Some(v) = self.filter_value(record) {
                    self.primary.widen_mem_filter(&v);
                }
            }
        }
        self.stats.bump(&self.stats.upserts);
        Ok(())
    }

    /// The Section 4.2 memory-component optimization: when the replaced
    /// primary memory entry held the old record, emit local anti-matter for
    /// the secondary indexes without any I/O.
    fn local_secondary_cleanup(
        &self,
        pk: &Value,
        old_mem_entry: Option<LsmEntry>,
        new_record: Option<&Record>,
        ets: Timestamp,
        ts: Timestamp,
    ) -> Result<()> {
        let Some(old) = old_mem_entry.filter(|e| !e.anti_matter) else {
            return Ok(());
        };
        let old_record = self.stored_record(&old.value)?;
        for sec in &self.secondaries {
            let old_sk = old_record.field(sec.field)?;
            if new_record.is_some_and(|new_rec| new_rec.get(sec.field) == &old_sk) {
                continue; // the new entry replaced it under the same key
            }
            sec.tree
                .put(encode_sk_pk(&old_sk, pk), LsmEntry::anti_matter_ts(ets), ts);
        }
        Ok(())
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
                if let Some((_, ord)) = new_comp.search(pk_key)? {
                    if let Some(bm) = new_comp.bitmap() {
                        bm.set(ord);
                    }
                }
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

    /// Plans the policy's current merge work and enqueues it on the
    /// runtime through `handle`, counting each job actually added. Merges
    /// run smallest-estimated-input-first within this dataset, one at a
    /// time; across datasets the runtime serves them round-robin, so
    /// enqueueing a lot here cannot starve the runtime's other datasets.
    pub(crate) fn schedule_planned_merges(&self, handle: &RuntimeHandle) {
        for plan in self.plan_merges() {
            let est = self.estimate_merge_bytes(&plan);
            if handle.schedule_merge(plan, est) {
                self.stats.bump(&self.stats.jobs_enqueued);
            }
        }
    }

    /// Estimated input bytes of a planned merge — the cost that orders
    /// merge jobs smallest-first within the dataset. Stale plans (range no
    /// longer fits) estimate to 0 and are skipped at execution time anyway.
    pub(crate) fn estimate_merge_bytes(&self, plan: &MergePlan) -> u64 {
        fn range_bytes(tree: &LsmTree, range: MergeRange) -> u64 {
            tree.components_in_range(range)
                .iter()
                .map(|c| c.byte_size())
                .sum()
        }
        match plan.target {
            MergeTarget::Correlated => {
                let mut total = range_bytes(&self.primary, plan.range);
                if let Some(pk_tree) = &self.pk_index {
                    total += range_bytes(pk_tree, plan.range);
                }
                for sec in &self.secondaries {
                    total += range_bytes(&sec.tree, plan.range);
                }
                total
            }
            MergeTarget::Primary => range_bytes(&self.primary, plan.range),
            MergeTarget::PkIndex => self
                .pk_index
                .as_ref()
                .map_or(0, |t| range_bytes(t, plan.range)),
            MergeTarget::Secondary(i) => self
                .secondaries
                .get(i)
                .map_or(0, |s| range_bytes(&s.tree, plan.range)),
        }
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
        let mut total = self.primary.mem_bytes();
        if let Some(pk_tree) = &self.pk_index {
            total += pk_tree.mem_bytes();
        }
        for sec in &self.secondaries {
            total += sec.tree.mem_bytes();
        }
        total
    }

    /// Combined unflushed memory (active + sealed-for-flush components):
    /// the backpressure metric. Exceeding the hard ceiling stalls writers
    /// until a background flush frees memory.
    pub fn mem_unflushed_bytes(&self) -> usize {
        self.mem_usage().1
    }

    /// `(active, active + sealed)` bytes across all indexes, in one pass.
    fn mem_usage(&self) -> (usize, usize) {
        let mut active = self.primary.mem_bytes();
        let mut sealed = self.primary.sealed_bytes();
        if let Some(pk_tree) = &self.pk_index {
            active += pk_tree.mem_bytes();
            sealed += pk_tree.sealed_bytes();
        }
        for sec in &self.secondaries {
            active += sec.tree.mem_bytes();
            sealed += sec.tree.sealed_bytes();
        }
        (active, active + sealed)
    }

    pub(crate) fn maybe_flush_and_merge(&self) -> Result<()> {
        // Recovery replay rewinds the clock between operations
        // (`advance_to` per log record); a background job racing that would
        // stamp components and stall writers against a queue nobody else
        // drains — recovery is single-threaded (Section 2.2), so replay
        // always maintains inline.
        let handle = if self.recovering.load(std::sync::atomic::Ordering::SeqCst) {
            None
        } else {
            self.runtime_handle()
        };
        let Some(handle) = handle else {
            // Inline mode: the writer pays for maintenance synchronously.
            if self.mem_total_bytes() > self.cfg.memory_budget {
                self.flush_all()?;
                self.run_merges()?;
            }
            return Ok(());
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
            let mut any = self.primary.seal_mem()?;
            if let Some(pk_tree) = &self.pk_index {
                any |= pk_tree.seal_mem()?;
            }
            for sec in &self.secondaries {
                any |= sec.tree.seal_mem()?;
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
        self.primary.has_sealed()
            || self.pk_index.as_ref().is_some_and(|t| t.has_sealed())
            || self.secondaries.iter().any(|s| s.tree.has_sealed())
    }

    /// Builds and installs whatever is sealed, per strategy.
    fn build_and_install_sealed(&self, mutable_bitmap: bool) -> Result<bool> {
        if mutable_bitmap {
            // Make sure the side-file is open before (re)building: a retry
            // after a failure must capture deletes routed meanwhile.
            {
                let _drain = self.dataset_lock.write();
                let mut side = self.flush_deletes.lock();
                if side.is_none() {
                    *side = Some(Vec::new());
                }
            }
            self.flush_sealed_mutable_bitmap()
        } else {
            let primary_comp = self.primary.flush_sealed()?;
            // Crash window: the primary component is installed, the pk
            // index's is not yet.
            self.crash_site("flush_install")?;
            if let Some(pk_tree) = &self.pk_index {
                pk_tree.flush_sealed()?;
            }
            for sec in &self.secondaries {
                sec.tree.flush_sealed()?;
            }
            Ok(primary_comp.is_some())
        }
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

    /// The Mutable-bitmap flush: build the primary and pk-index components,
    /// share the primary's bitmap (Section 5.1 — both sealed under one
    /// drain lock, so entries are pk-ordered with coinciding ordinals),
    /// then atomically — under the drain lock, with no writer mid-op —
    /// close the flush side-file, mark the routed deletes in the new
    /// bitmap, and publish both components. A concurrent delete probe
    /// therefore either appends to the open side-file or sees the fully
    /// installed component; it can never lose its mark.
    fn flush_sealed_mutable_bitmap(&self) -> Result<bool> {
        let primary_comp = self.primary.build_sealed()?;
        let pk_comp = match &self.pk_index {
            Some(t) => t.build_sealed()?,
            None => None,
        };
        for sec in &self.secondaries {
            sec.tree.flush_sealed()?;
        }
        // The primary and pk index receive identical key/timestamp streams
        // and seal together, so they flush together: each pair shares one
        // bitmap, ordinal for ordinal.
        if self.pk_index.is_some() && primary_comp.is_some() != pk_comp.is_some() {
            return Err(Error::corruption(
                "mutable-bitmap flush mismatch: only one of the primary and pk index flushed",
            ));
        }
        if let (Some(p), Some(k)) = (&primary_comp, &pk_comp) {
            let bitmap = p
                .bitmap()
                .ok_or_else(|| Error::corruption("primary flush produced no bitmap"))?;
            k.set_bitmap(bitmap)?;
        }
        let _drain = self.dataset_lock.write();
        let routed = self.flush_deletes.lock().take().unwrap_or_default();
        let flushed = primary_comp.is_some();
        if let Some(p) = primary_comp {
            if let Some(bitmap) = p.bitmap() {
                for key in &routed {
                    if let Some((_, ordinal)) = p.search(key)? {
                        bitmap.set(ordinal);
                    }
                }
            }
            self.primary.install_sealed(p);
        }
        // Crash window: the primary component is published, the paired
        // pk-index component is not yet.
        self.crash_site("flush_install")?;
        if let (Some(pk_tree), Some(k)) = (&self.pk_index, pk_comp) {
            pk_tree.install_sealed(k);
        }
        Ok(flushed)
    }

    /// Applies the merge policy to the current component lists and returns
    /// the work it calls for — one plan per index (or one correlated plan)
    /// — without executing anything. Schedulers queue these; inline callers
    /// use [`Dataset::run_merges`], which plans and executes to quiescence.
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
    /// ([`crate::cc::merge_primary_with_cc`]) with the configured
    /// [`CcMethod`](crate::cc::CcMethod); the plain path would scan a
    /// bitmap one moment and its sibling index the next, losing any
    /// delete that landed in between.
    pub fn execute_merge_plan(&self, plan: &MergePlan) -> Result<bool> {
        let _merges = self.merge_mutex.lock();
        self.execute_merge_plan_locked(plan)
    }

    fn execute_merge_plan_locked(&self, plan: &MergePlan) -> Result<bool> {
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
                // component lists. Skip — the post-flush planning pass
                // re-enqueues the merge against consistent counts.
                if let Some(pk_tree) = &self.pk_index {
                    if stale(pk_tree) {
                        return Ok(false);
                    }
                }
                if self.cfg.strategy == StrategyKind::MutableBitmap {
                    crate::cc::merge_primary_with_cc(self, plan.range, self.cfg.cc_method)?;
                    for sec in &self.secondaries {
                        if !stale(&sec.tree) {
                            self.merge_secondary(sec, plan.range)?;
                        }
                    }
                } else {
                    self.merge_correlated(plan.range)?;
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
                pk_tree.merge_range(plan.range)?;
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
        let _merges = self.merge_mutex.lock();
        loop {
            let plans = self.plan_merges();
            if plans.is_empty() {
                return Ok(());
            }
            for plan in &plans {
                self.execute_merge_plan_locked(plan)?;
            }
        }
    }

    /// Merges all of the dataset's indexes over the same component range
    /// (the correlated merge policy of Section 4.4). Mutable-bitmap
    /// datasets never come here: their correlated merges take the cc path.
    fn merge_correlated(&self, range: MergeRange) -> Result<()> {
        self.primary.merge_range(range)?;
        self.stats.bump(&self.stats.merges);
        // Crash window: the primary's merged component is installed, the
        // pk index and secondaries still hold the pre-merge components.
        self.crash_site("merge_install")?;
        if let Some(pk_tree) = &self.pk_index {
            if pk_tree.num_disk_components() > range.end {
                pk_tree.merge_range(range)?;
                self.stats.bump(&self.stats.merges);
            }
        }
        for sec in &self.secondaries {
            if sec.tree.num_disk_components() > range.end {
                self.merge_secondary(sec, range)?;
            }
        }
        Ok(())
    }

    /// Merges one secondary index range, repairing it when the strategy
    /// calls for it.
    fn merge_secondary(&self, sec: &SecondaryIndex, range: MergeRange) -> Result<()> {
        use crate::repair::{merge_repair, RepairOptions};
        let repair = match self.cfg.strategy {
            StrategyKind::Validation | StrategyKind::MutableBitmap => self.cfg.merge_repair,
            StrategyKind::DeletedKeyBTree => true,
            StrategyKind::Eager => false,
        };
        if repair {
            let mode = self.cfg.default_repair_mode();
            let pk_tree = self
                .pk_index
                .as_ref()
                .ok_or_else(|| Error::invalid("merge repair requires the primary key index"))?;
            merge_repair(
                &sec.tree,
                pk_tree,
                range,
                &RepairOptions {
                    mode,
                    ..Default::default()
                },
            )?;
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
        ds.flush_sealed_mutable_bitmap().unwrap();
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

    #[test]
    fn merges_run_under_policy() {
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
        // Tiering with unlimited cap keeps the component count low.
        assert!(ds.primary().num_disk_components() <= 4);
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

    #[test]
    fn eager_counts_maintenance_lookups() {
        let ds = dataset(StrategyKind::Eager);
        ds.insert(&rec(1, "CA", 1)).unwrap();
        ds.upsert(&rec(1, "NY", 2)).unwrap();
        ds.delete(&Value::Int(1)).unwrap();
        // insert (uniqueness) + upsert (old record) + delete (old record).
        assert_eq!(ds.stats().snapshot().maintenance_lookups, 3);
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
