//! The LSM-tree: a memory component plus an ordered list of immutable disk
//! components, with flush and merge machinery.
//!
//! This is the per-index structure of Figure 1; the engine crate composes
//! one primary index, one primary key index, and N secondary indexes over
//! these trees and layers the maintenance strategies on top.
//!
//! # Sharded memory components
//!
//! The active memory component can be split into `mem_shards` hash shards
//! (default 1 — one `BTreeMap` under one mutex, the classic shape).
//! Writers hash their key to a shard and contend only with writers on the
//! same shard, so concurrent ingest scales with cores the way the sharded
//! buffer cache made reads scale. A key always hashes to the same shard,
//! so all versions of a key live in one shard and per-key recency is
//! preserved.
//!
//! Sealing is atomic across shards: [`LsmTree::seal_mem`] locks every
//! shard (in index order) and captures one **sealed generation** — the
//! per-shard immutable runs plus the generation's component ID, the
//! `(minTS, maxTS)` interval across *all* shards. Each non-empty shard run
//! is built into its own disk component (in parallel when there are
//! several), and every component of the generation carries the *shared
//! generation ID*: the engine seals all indexes under its drain lock, so
//! generations are temporally disjoint and interval-based recovery
//! reasoning (torn-install rollback, merged-interval containment) keeps
//! working unchanged. Merge selection groups consecutive same-ID
//! components back into generations and only ever merges whole
//! generations, which keeps merged intervals distinguishable from flush
//! generations.

use crate::component::DiskComponent;
use crate::component_id::ComponentId;
use crate::entry::{EntryRef, LsmEntry};
use crate::memtable::MemComponent;
use crate::merge_policy::{MergePolicy, MergeRange};
use crate::range_filter::RangeFilter;
use crate::scan::{LsmScan, ScanOptions};
use lsm_bloom::{build_filter, BloomFilter, BloomKind};
use lsm_btree::BTreeBuilder;
use lsm_common::{Error, Key, Result, Timestamp, Value};
use lsm_storage::Storage;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-index configuration.
#[derive(Debug, Clone)]
pub struct LsmOptions {
    /// Index name (diagnostics only).
    pub name: String,
    /// Build a Bloom filter per disk component (primary / primary key
    /// indexes in the paper; secondary indexes have none).
    pub with_bloom: bool,
    /// Which Bloom filter variant to build.
    pub bloom_kind: BloomKind,
    /// Bloom filter false-positive rate (1% in §6.1).
    pub bloom_fpr: f64,
    /// Attach a zeroed mutable bitmap to every new disk component
    /// (Mutable-bitmap strategy).
    pub mutable_bitmaps: bool,
    /// Hash shards for the active memory component (at least 1). `1` is
    /// byte-identical to the unsharded tree; larger values let concurrent
    /// writers on different shards proceed without contending.
    pub mem_shards: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            name: "lsm".into(),
            with_bloom: true,
            bloom_kind: BloomKind::Standard,
            bloom_fpr: 0.01,
            mutable_bitmaps: false,
            mem_shards: 1,
        }
    }
}

/// Builds one disk component from a sorted entry stream.
///
/// Used by flushes, merges, and the repair/concurrency-control paths in the
/// engine, which need per-entry control (ordinals, build links).
pub struct ComponentBuilder {
    storage: Arc<Storage>,
    id: ComponentId,
    btree: BTreeBuilder,
    bloom: Option<Box<dyn BloomFilter>>,
    filter: Option<RangeFilter>,
    make_mutable_bitmap: bool,
    /// The entry being added, encoded — when it did not arrive with its
    /// stored bytes; reused from one `add` to the next.
    encoded: Vec<u8>,
}

/// Options for [`ComponentBuilder`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Build a Bloom filter over the keys.
    pub with_bloom: bool,
    /// Bloom variant.
    pub bloom_kind: BloomKind,
    /// Bloom false-positive rate.
    pub bloom_fpr: f64,
    /// Expected number of keys (Bloom sizing).
    pub expected_keys: usize,
    /// Range filter carried by the new component.
    pub filter: Option<RangeFilter>,
    /// Attach an all-zero mutable bitmap on finish.
    pub make_mutable_bitmap: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            with_bloom: true,
            bloom_kind: BloomKind::Standard,
            bloom_fpr: 0.01,
            expected_keys: 1024,
            filter: None,
            make_mutable_bitmap: false,
        }
    }
}

impl ComponentBuilder {
    /// Starts building a component with the given ID.
    pub fn new(storage: Arc<Storage>, id: ComponentId, opts: BuildOptions) -> Result<Self> {
        let bloom = opts
            .with_bloom
            .then(|| build_filter(opts.bloom_kind, opts.expected_keys, opts.bloom_fpr));
        Ok(ComponentBuilder {
            btree: BTreeBuilder::new(storage.clone()),
            storage,
            id,
            bloom,
            filter: opts.filter,
            make_mutable_bitmap: opts.make_mutable_bitmap,
            encoded: Vec::new(),
        })
    }

    /// Appends an entry (keys strictly ascending) and returns its ordinal
    /// position in the new component.
    pub fn add(&mut self, key: &[u8], entry: &LsmEntry) -> Result<u64> {
        self.add_ref(key, entry.into())
    }

    /// [`ComponentBuilder::add`] for a borrowed entry. One lent by a scan
    /// still knows its stored bytes, and those go into the open leaf
    /// verbatim: the payload is copied page → page once, never through an
    /// encode buffer.
    pub fn add_ref(&mut self, key: &[u8], entry: EntryRef<'_>) -> Result<u64> {
        let ordinal = self.btree.next_ordinal();
        self.btree.add(key, entry.stored_form(&mut self.encoded))?;
        if let Some(bloom) = &mut self.bloom {
            bloom.insert(key);
        }
        // Streaming cost of pushing one entry through the build pipeline.
        self.storage.charge_cpu(self.storage.cpu().sort_entry_ns);
        Ok(ordinal)
    }

    /// Entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.btree.num_entries()
    }

    /// Finalizes the component.
    pub fn finish(self) -> Result<DiskComponent> {
        let n = self.btree.num_entries();
        let btree = self.btree.finish()?;
        let bitmap = self
            .make_mutable_bitmap
            .then(|| Arc::new(crate::bitmap::AtomicBitmap::new(n)));
        Ok(DiskComponent::new(
            self.id,
            btree,
            self.bloom,
            self.filter,
            bitmap,
        ))
    }
}

/// An immutable snapshot of a tree's disk components, newest first.
/// Taking one is a reference-count bump; installs publish a new list and
/// never touch one a reader already holds, so a snapshot keeps every
/// component in it (and the files of any a merge has since retired) alive
/// and readable for as long as it is held.
pub type ComponentList = Arc<[Arc<DiskComponent>]>;

/// A captured in-memory run (key-ordered, active merged over sealed) plus
/// the disk component list — see [`LsmTree::mem_and_disk_snapshot_if`].
pub type TreeSnapshot = (Option<Vec<(Key, LsmEntry)>>, ComponentList);

/// One atomically sealed memory generation: the per-shard immutable runs
/// (indexed like the active shard vector; `None` = shard was empty) and
/// the generation's component ID — the timestamp interval across all
/// shards, shared by every disk component the generation builds.
#[derive(Debug)]
struct SealedGen {
    id: ComponentId,
    shards: Vec<Option<Arc<MemComponent>>>,
}

impl SealedGen {
    fn runs(&self) -> impl Iterator<Item = &Arc<MemComponent>> {
        self.shards.iter().flatten()
    }

    fn bytes(&self) -> usize {
        self.runs().map(|s| s.bytes()).sum()
    }

    fn len(&self) -> usize {
        self.runs().map(|s| s.len()).sum()
    }
}

/// An LSM-tree index.
pub struct LsmTree {
    opts: LsmOptions,
    storage: Arc<Storage>,
    /// Active memory component, hash-sharded by key. Writers lock exactly
    /// one shard; whole-tree captures lock all shards in index order.
    mem: Vec<Mutex<MemComponent>>,
    /// Aggregate bytes across the active shards, maintained under the
    /// shard locks — the flush-trigger metric must stay cheap to read on
    /// every write without touching N mutexes.
    mem_bytes_total: AtomicUsize,
    /// Memory generation sealed for an in-progress flush. Writers fill
    /// fresh active shards while the builder turns these immutable
    /// snapshots into disk components; readers see both (active wins).
    sealed: RwLock<Option<Arc<SealedGen>>>,
    /// Disk components, newest first (as drawn in Figure 1, reading
    /// right-to-left). The list behind the `Arc` is never mutated: the
    /// four installers (`install_sealed`, `replace_range`, `push_newest`,
    /// `uninstall_newest`) build a new list and swap it in under the write
    /// lock; readers hold the read lock only for the reference-count bump.
    disk: RwLock<ComponentList>,
}

impl std::fmt::Debug for LsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmTree")
            .field("name", &self.opts.name)
            .field("mem_shards", &self.mem.len())
            .field("disk_components", &self.disk.read().len())
            .finish()
    }
}

impl LsmTree {
    /// Creates an empty tree.
    pub fn new(storage: Arc<Storage>, opts: LsmOptions) -> Self {
        let shards = opts.mem_shards.max(1);
        LsmTree {
            opts,
            storage,
            mem: (0..shards)
                .map(|_| Mutex::new(MemComponent::new()))
                .collect(),
            mem_bytes_total: AtomicUsize::new(0),
            sealed: RwLock::new(None),
            disk: RwLock::new(Arc::new([])),
        }
    }

    /// The tree's configuration.
    pub fn options(&self) -> &LsmOptions {
        &self.opts
    }

    /// The storage device.
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// Number of active memory shards.
    pub fn mem_shards(&self) -> usize {
        self.mem.len()
    }

    /// The shard `key` hashes to (FNV-1a; stable across seals, so every
    /// version of a key lives in the same shard).
    fn shard_of(&self, key: &[u8]) -> usize {
        let n = self.mem.len();
        if n == 1 {
            return 0;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % n as u64) as usize
    }

    /// Locks every shard, in index order (the one multi-shard lock order,
    /// shared by seals and whole-tree captures; single-shard writers take
    /// one of these and therefore cannot deadlock against it).
    fn lock_all_shards(&self) -> Vec<parking_lot::MutexGuard<'_, MemComponent>> {
        // Same-class multi-acquisition, always in index order — sanctioned
        // via the detector's escape hatch (ARCHITECTURE.md, "Lock
        // hierarchy": mem-shard rank, ordered within the class).
        parking_lot::ordered_acquisition(|| self.mem.iter().map(|m| m.lock()).collect())
    }

    // ---- memory component -------------------------------------------------

    /// Writes an entry into the memory component. `op_ts` is the operation
    /// timestamp used for the component ID. Returns the replaced entry.
    pub fn put(&self, key: Key, entry: LsmEntry, op_ts: Timestamp) -> Option<LsmEntry> {
        self.storage.charge_cpu(self.storage.cpu().memtable_op_ns);
        let shard = self.shard_of(&key);
        let mut mem = self.mem[shard].lock();
        let before = mem.bytes();
        let old = mem.put(key, entry, op_ts);
        let after = mem.bytes();
        drop(mem);
        if after >= before {
            self.mem_bytes_total
                .fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.mem_bytes_total
                .fetch_sub(before - after, Ordering::Relaxed);
        }
        old
    }

    /// Reads the memory component: the active shard first, then the sealed
    /// snapshot of an in-progress flush (the active entry, being newer,
    /// shadows the sealed one).
    pub fn mem_get(&self, key: &[u8]) -> Option<LsmEntry> {
        self.storage.charge_cpu(self.storage.cpu().memtable_op_ns);
        let shard = self.shard_of(key);
        if let Some(e) = self.mem[shard].lock().get(key).cloned() {
            return Some(e);
        }
        self.sealed
            .read()
            .as_ref()
            .and_then(|g| g.shards[shard].as_ref())
            .and_then(|s| s.get(key).cloned())
    }

    /// The header (anti-matter flag and timestamp, payload stripped — see
    /// [`LsmEntry::key_only`]) of `key`'s entry in the *active* memory
    /// component only. Writers that must distinguish "replaced in place"
    /// from "immutable, mid-flush" (the Mutable-bitmap delete probe) use
    /// this together with [`LsmTree::sealed_get`]; neither needs the
    /// record, so neither copies it.
    pub fn mem_get_active(&self, key: &[u8]) -> Option<LsmEntry> {
        self.storage.charge_cpu(self.storage.cpu().memtable_op_ns);
        self.mem[self.shard_of(key)]
            .lock()
            .get(key)
            .map(LsmEntry::key_only)
    }

    /// The header of `key`'s entry in the sealed (flushing) snapshot only.
    pub fn sealed_get(&self, key: &[u8]) -> Option<LsmEntry> {
        let shard = self.shard_of(key);
        self.sealed
            .read()
            .as_ref()
            .and_then(|g| g.shards[shard].as_ref())
            .and_then(|s| s.get(key).map(LsmEntry::key_only))
    }

    /// True if a sealed generation is pending (a flush is mid-build, or a
    /// previous flush attempt failed and should be retried).
    pub fn has_sealed(&self) -> bool {
        self.sealed.read().is_some()
    }

    /// Approximate size of the *active* memory component in bytes, across
    /// all shards (the flush-trigger metric; a sealed generation is
    /// already on its way out). Lock-free: maintained as an aggregate so
    /// the per-write budget check does not serialize the shards it just
    /// unserialized.
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes_total.load(Ordering::Relaxed)
    }

    /// Approximate bytes of the sealed (flushing) generation, if any —
    /// memory that is still held but no longer accepts writes.
    /// Backpressure counts this on top of [`LsmTree::mem_bytes`].
    pub fn sealed_bytes(&self) -> usize {
        self.sealed.read().as_ref().map_or(0, |g| g.bytes())
    }

    /// Number of keys buffered in memory (active + sealed).
    pub fn mem_len(&self) -> usize {
        let active: usize = self.mem.iter().map(|m| m.lock().len()).sum();
        active + self.sealed.read().as_ref().map_or(0, |g| g.len())
    }

    /// Widens the memory component's range filter. `key` routes the update
    /// to the entry's shard, so each shard's filter describes exactly the
    /// entries that will flush with it.
    pub fn widen_mem_filter(&self, key: &[u8], v: &Value) {
        self.mem[self.shard_of(key)].lock().widen_filter(v);
    }

    /// The in-memory range filter: the union over every active shard and
    /// the sealed generation's runs, so filter pruning never hides entries
    /// that are buffered or mid-flush.
    pub fn mem_filter(&self) -> Option<RangeFilter> {
        let mut acc: Option<RangeFilter> = None;
        let mut fold = |f: &RangeFilter| match &mut acc {
            Some(a) => a.union(f),
            None => acc = Some(f.clone()),
        };
        for m in &self.mem {
            if let Some(f) = m.lock().filter() {
                fold(f);
            }
        }
        if let Some(gen) = self.sealed.read().as_ref() {
            for run in gen.runs() {
                if let Some(f) = run.filter() {
                    fold(f);
                }
            }
        }
        acc
    }

    /// Copies the in-memory entries in `[lo, hi]` in key order, merging the
    /// active shards over the sealed generation (active entries win).
    ///
    /// All shard locks are taken FIRST (in index order) and held while the
    /// sealed slot is read — the same order `seal_mem` uses for its
    /// transition — so the snapshot can never observe the torn state where
    /// entries have left the active shards but the sealed slot still reads
    /// empty.
    pub fn mem_snapshot_range(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Vec<(Key, LsmEntry)> {
        let guards = self.lock_all_shards();
        let sealed = self.sealed.read().clone();
        let runs = Self::capture_mem_runs(&guards, sealed.as_deref(), lo, hi);
        drop(guards);
        interleave_disjoint_runs(runs)
    }

    /// Per-shard merged runs (active over sealed) of `[lo, hi]`, captured
    /// under the shard guards. Shards hold disjoint key sets, so the final
    /// view is a plain ordered interleave of these runs.
    fn capture_mem_runs(
        guards: &[parking_lot::MutexGuard<'_, MemComponent>],
        sealed: Option<&SealedGen>,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Vec<Vec<(Key, LsmEntry)>> {
        guards
            .iter()
            .enumerate()
            .map(|(i, mem)| {
                let active: Vec<(Key, LsmEntry)> = mem
                    .range(lo, hi)
                    .map(|(k, e)| (k.clone(), e.clone()))
                    .collect();
                let run = sealed.and_then(|g| g.shards[i].clone());
                merge_mem_runs(active, run, lo, hi)
            })
            .collect()
    }

    /// An atomically consistent view of the tree: the merged in-memory
    /// entries of `[lo, hi]` plus the disk components, captured so that an
    /// entry mid-flush appears in exactly one of the two (lock order
    /// shards → sealed → disk matches `seal_mem` and `install_sealed`,
    /// whose transitions therefore cannot interleave with the capture).
    /// Scans that do NOT reconcile duplicates (the Mutable-bitmap filter
    /// scan) need this; reconciling readers can capture memory and disk
    /// separately.
    ///
    /// `include_mem` is evaluated under the capture locks against the
    /// in-memory range filter (active ∪ sealed, so it describes exactly
    /// the entries being captured) and the captured disk-component list
    /// (so strategy rules like "read memory whenever an older component
    /// is read" can be decided atomically); returning `false` skips
    /// materializing the memory run — the filter-scan prune. `None` means
    /// no entries are buffered.
    pub fn mem_and_disk_snapshot_if(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        include_mem: impl FnOnce(Option<&RangeFilter>, &[Arc<DiskComponent>]) -> bool,
    ) -> TreeSnapshot {
        let guards = self.lock_all_shards();
        let sealed_guard = self.sealed.read();
        let disk = self.disk_components();
        let mut filter: Option<RangeFilter> = None;
        let mut fold = |f: &RangeFilter| match &mut filter {
            Some(acc) => acc.union(f),
            None => filter = Some(f.clone()),
        };
        for mem in &guards {
            if let Some(f) = mem.filter() {
                fold(f);
            }
        }
        if let Some(gen) = sealed_guard.as_ref() {
            for run in gen.runs() {
                if let Some(f) = run.filter() {
                    fold(f);
                }
            }
        }
        let has_entries = guards.iter().any(|m| !m.is_empty()) || sealed_guard.is_some();
        let snapshot = (has_entries && include_mem(filter.as_ref(), &disk)).then(|| {
            let runs = Self::capture_mem_runs(&guards, sealed_guard.as_deref(), lo, hi);
            interleave_disjoint_runs(runs)
        });
        drop(sealed_guard);
        drop(guards);
        (snapshot, disk)
    }

    /// Discards the memory components (crash simulation in recovery tests).
    pub fn clear_mem(&self) {
        for m in &self.mem {
            m.lock().clear();
        }
        self.mem_bytes_total.store(0, Ordering::Relaxed);
        *self.sealed.write() = None;
    }

    // ---- disk components ---------------------------------------------------

    /// The current disk components, newest first (see [`ComponentList`]).
    pub fn disk_components(&self) -> ComponentList {
        self.disk.read().clone()
    }

    /// Number of disk components.
    pub fn num_disk_components(&self) -> usize {
        self.disk.read().len()
    }

    /// Total bytes across disk components.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_components().iter().map(|c| c.byte_size()).sum()
    }

    /// Total entries across disk components.
    pub fn disk_entries(&self) -> u64 {
        self.disk_components().iter().map(|c| c.num_entries()).sum()
    }

    /// Pushes a component as the newest (recovery / tests).
    pub fn push_newest(&self, comp: Arc<DiskComponent>) {
        let mut disk = self.disk.write();
        *disk = std::iter::once(comp).chain(disk.iter().cloned()).collect();
    }

    /// Removes the newest disk component and destroys its files. Crash
    /// recovery uses this to roll back a torn flush install — a component
    /// published by a crash-interrupted flush whose sibling indexes never
    /// installed theirs; the WAL still covers its committed entries. A
    /// sharded generation rolls back one component per call: every
    /// component of the torn generation postdates the sibling index, so
    /// the recovery loop peels them all.
    pub fn uninstall_newest(&self) -> Option<ComponentId> {
        let comp = {
            let mut disk = self.disk.write();
            let (newest, rest) = disk.split_first()?;
            let newest = newest.clone();
            *disk = rest.into();
            newest
        };
        let id = comp.id();
        comp.retire();
        Some(id)
    }

    /// Builds (without installing) a component that mirrors `source`'s
    /// physical entries — same keys, timestamps and anti-matter flags, with
    /// empty values — in `source`'s exact entry order. Crash recovery uses
    /// this to redo the primary-key-index side of a correlated merge from
    /// the completed primary side: mirroring guarantees the
    /// ordinal-for-ordinal alignment the shared-bitmap design requires,
    /// which re-merging the pk index's own (bitmap-filtered) inputs cannot.
    pub fn mirror_component(&self, source: &Arc<DiskComponent>) -> Result<Arc<DiskComponent>> {
        let mut builder = ComponentBuilder::new(
            self.storage.clone(),
            source.id(),
            BuildOptions {
                with_bloom: self.opts.with_bloom,
                bloom_kind: self.opts.bloom_kind,
                bloom_fpr: self.opts.bloom_fpr,
                expected_keys: source.num_entries() as usize,
                filter: source.range_filter().cloned(),
                make_mutable_bitmap: self.opts.mutable_bitmaps,
            },
        )?;
        let mut scan = LsmScan::new(
            self.storage.clone(),
            None,
            std::slice::from_ref(source),
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions {
                emit_anti_matter: true,
                respect_bitmaps: false,
            },
        )?;
        while let Some(lent) = scan.next_lent()? {
            builder.add_ref(lent.key, lent.entry.key_only())?;
        }
        Ok(Arc::new(builder.finish()?))
    }

    /// Seals the active memory shards for flushing — atomically, under
    /// every shard lock, so no operation is ever split across the seal:
    /// writers continue into fresh active shards while
    /// [`LsmTree::flush_sealed`] builds the generation into disk
    /// components. Returns `false` (and seals nothing) if every shard is
    /// empty. Errors if a sealed generation is already pending — callers
    /// must serialize flushes (the engine holds a per-dataset flush lock).
    pub fn seal_mem(&self) -> Result<bool> {
        let mut guards = self.lock_all_shards();
        let mut min_ts = Timestamp::MAX;
        let mut max_ts = 0;
        for g in &guards {
            if let Some(id) = g.id() {
                min_ts = min_ts.min(id.min_ts);
                max_ts = max_ts.max(id.max_ts);
            }
        }
        if max_ts == 0 {
            return Ok(false);
        }
        let mut sealed = self.sealed.write();
        if sealed.is_some() {
            return Err(Error::invalid(format!(
                "{}: flush already in progress (sealed snapshot pending)",
                self.opts.name
            )));
        }
        let shards: Vec<Option<Arc<MemComponent>>> = guards
            .iter_mut()
            .map(|g| g.id().is_some().then(|| Arc::new(std::mem::take(&mut **g))))
            .collect();
        self.mem_bytes_total.store(0, Ordering::Relaxed);
        *sealed = Some(Arc::new(SealedGen {
            id: ComponentId::new(min_ts, max_ts),
            shards,
        }));
        Ok(true)
    }

    /// Builds the sealed generation into disk components (one per
    /// non-empty shard, each stamped with the shared generation ID) and
    /// installs them as the newest. Returns an empty vector when nothing
    /// is sealed. The generation stays visible to readers throughout, so
    /// there is no window where its entries are neither in memory nor on
    /// disk.
    pub fn flush_sealed(&self) -> Result<Vec<Arc<DiskComponent>>> {
        let comps = self.build_sealed()?;
        if self.has_sealed() {
            self.install_sealed(comps.clone());
        }
        Ok(comps)
    }

    /// Builds the sealed generation's disk components WITHOUT installing
    /// them — the engine uses this when the components need preparation
    /// before becoming visible (shared-bitmap attachment, routed deletes
    /// of the Mutable-bitmap strategy), followed by
    /// [`LsmTree::install_sealed`]. Components are returned in shard
    /// order; when several shards have runs they are built in parallel on
    /// scoped threads.
    pub fn build_sealed(&self) -> Result<Vec<Arc<DiskComponent>>> {
        let Some(gen) = self.sealed.read().clone() else {
            return Ok(Vec::new());
        };
        let gen_id = gen.id;
        let runs: Vec<&Arc<MemComponent>> = gen.runs().collect();
        if runs.len() <= 1 {
            return runs
                .into_iter()
                .map(|run| self.build_run(gen_id, run))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = runs
                .into_iter()
                .map(|run| scope.spawn(move || self.build_run(gen_id, run)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    /// Builds one shard run into a disk component carrying the
    /// generation's shared ID.
    fn build_run(&self, id: ComponentId, snapshot: &MemComponent) -> Result<Arc<DiskComponent>> {
        let mut builder = ComponentBuilder::new(
            self.storage.clone(),
            id,
            BuildOptions {
                with_bloom: self.opts.with_bloom,
                bloom_kind: self.opts.bloom_kind,
                bloom_fpr: self.opts.bloom_fpr,
                expected_keys: snapshot.len(),
                filter: snapshot.filter().cloned(),
                make_mutable_bitmap: self.opts.mutable_bitmaps,
            },
        )?;
        for (k, e) in snapshot.iter() {
            builder.add(k, e)?;
        }
        Ok(Arc::new(builder.finish()?))
    }

    /// Publishes the components built by [`LsmTree::build_sealed`] (the
    /// whole generation at once, preserving shard order) and releases the
    /// sealed generation. The sealed lock is held across the disk insert
    /// (lock order sealed → disk), and the components are inserted before
    /// the generation clears: a reconciling reader that captures memory
    /// first either sees the entries in the sealed generation, on disk, or
    /// both (never neither), while the atomic
    /// [`LsmTree::mem_and_disk_snapshot_if`] capture sees them exactly once.
    pub fn install_sealed(&self, comps: Vec<Arc<DiskComponent>>) {
        let mut sealed = self.sealed.write();
        let mut disk = self.disk.write();
        *disk = comps.into_iter().chain(disk.iter().cloned()).collect();
        drop(disk);
        *sealed = None;
    }

    /// Flushes the memory component into new disk components.
    /// Returns `None` if the memory component was empty, otherwise the
    /// first (shard-order) component of the new generation — with one
    /// shard, the generation's only component. A generation left sealed
    /// by a previous failed attempt is flushed first, so transient build
    /// errors stay retryable.
    pub fn flush(&self) -> Result<Option<Arc<DiskComponent>>> {
        if self.has_sealed() {
            self.flush_sealed()?;
        }
        if !self.seal_mem()? {
            return Ok(None);
        }
        Ok(self.flush_sealed()?.into_iter().next())
    }

    // ---- merging -----------------------------------------------------------

    /// Oldest-first component index ranges grouped into generations: runs
    /// of consecutive components sharing a ComponentId are the per-shard
    /// outputs of one sealed generation. Merged components carry unique
    /// spanning intervals and group alone.
    fn generation_groups(disk: &[Arc<DiskComponent>]) -> Vec<(usize, usize, u64)> {
        let mut groups: Vec<(usize, usize, u64)> = Vec::new();
        for (i, c) in disk.iter().rev().enumerate() {
            match groups.last_mut() {
                Some(g) if disk[disk.len() - 1 - g.1].id() == c.id() => {
                    g.1 = i;
                    g.2 += c.byte_size();
                }
                _ => groups.push((i, i, c.byte_size())),
            }
        }
        groups
    }

    /// Applies `policy` to the current disk components; returns the chosen
    /// range (oldest-first indexing) without performing the merge. The
    /// policy sees one size per *generation* and selected ranges always
    /// cover whole generations, so a merge never splits the per-shard
    /// siblings of one flush (and a merged interval therefore always spans
    /// at least two generations, keeping it distinguishable from any flush
    /// generation's interval — recovery relies on that).
    pub fn select_merge(&self, policy: &dyn MergePolicy) -> Option<MergeRange> {
        let disk = self.disk_components();
        let groups = Self::generation_groups(&disk);
        let sizes: Vec<u64> = groups.iter().map(|g| g.2).collect();
        let r = policy.select(&sizes)?;
        Some(MergeRange {
            start: groups[r.start].0,
            end: groups[r.end].1,
        })
    }

    /// Components of `range` (oldest-first indexing), returned newest-first.
    /// Returns an empty vector when the range no longer fits the component
    /// list (a stale plan after a concurrent merge).
    pub fn components_in_range(&self, range: MergeRange) -> Vec<Arc<DiskComponent>> {
        let disk = self.disk_components();
        let n = disk.len();
        if range.end >= n || range.start > range.end {
            return Vec::new();
        }
        // oldest-first index i ↔ newest-first index n-1-i
        let lo = n - 1 - range.end;
        let hi = n - 1 - range.start;
        disk[lo..=hi].to_vec()
    }

    /// True if `range` includes the oldest disk component (anti-matter can
    /// then be dropped by the merge).
    pub fn range_includes_oldest(&self, range: MergeRange) -> bool {
        range.start == 0
    }

    /// Merges the components in `range` into one new component.
    ///
    /// Reconciles duplicate keys (newest wins), drops entries invalidated by
    /// bitmaps, and drops anti-matter if the range includes the oldest
    /// component. Returns the new component after swapping it in and
    /// destroying the inputs.
    pub fn merge_range(&self, range: MergeRange) -> Result<Arc<DiskComponent>> {
        let inputs = self.components_in_range(range);
        if inputs.len() < 2 {
            return Err(Error::invalid("merge needs at least two components"));
        }
        let drop_anti = self.range_includes_oldest(range);
        let id = ComponentId::merged(inputs.iter().map(|c| c.id()))
            .ok_or_else(|| Error::invalid("merge inputs carry no component IDs"))?;
        let mut filter: Option<RangeFilter> = None;
        for c in &inputs {
            if let Some(f) = c.range_filter() {
                match &mut filter {
                    None => filter = Some(f.clone()),
                    Some(acc) => acc.union(f),
                }
            }
        }
        let expected: u64 = inputs.iter().map(|c| c.num_entries()).sum();
        let mut builder = ComponentBuilder::new(
            self.storage.clone(),
            id,
            BuildOptions {
                with_bloom: self.opts.with_bloom,
                bloom_kind: self.opts.bloom_kind,
                bloom_fpr: self.opts.bloom_fpr,
                expected_keys: expected as usize,
                filter,
                make_mutable_bitmap: self.opts.mutable_bitmaps,
            },
        )?;
        let mut scan = LsmScan::new(
            self.storage.clone(),
            None,
            &inputs,
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions {
                emit_anti_matter: true,
                respect_bitmaps: true,
            },
        )?;
        while let Some(lent) = scan.next_lent()? {
            if lent.entry.anti_matter && drop_anti {
                continue;
            }
            builder.add_ref(lent.key, lent.entry)?;
        }
        let new_comp = Arc::new(builder.finish()?);
        self.replace_range(range, new_comp.clone(), true)?;
        Ok(new_comp)
    }

    /// Replaces the components of `range` with `new_comp`, optionally
    /// retiring the old components (their files are destroyed once the last
    /// concurrent reader drops its reference).
    pub fn replace_range(
        &self,
        range: MergeRange,
        new_comp: Arc<DiskComponent>,
        destroy_old: bool,
    ) -> Result<()> {
        let removed: Vec<Arc<DiskComponent>> = {
            let mut disk = self.disk.write();
            let n = disk.len();
            if range.end >= n {
                return Err(Error::invalid(format!(
                    "{}: merge range {}..={} out of bounds ({n} components)",
                    self.opts.name, range.start, range.end
                )));
            }
            let lo = n - 1 - range.end;
            let hi = n - 1 - range.start;
            let removed = disk[lo..=hi].to_vec();
            *disk = disk[..lo]
                .iter()
                .cloned()
                .chain([new_comp])
                .chain(disk[hi + 1..].iter().cloned())
                .collect();
            removed
        };
        if destroy_old {
            for c in removed {
                c.retire();
            }
        }
        Ok(())
    }

    /// Runs one round of policy-driven merging. Returns `true` if a merge
    /// was performed.
    pub fn maybe_merge(&self, policy: &dyn MergePolicy) -> Result<bool> {
        match self.select_merge(policy) {
            Some(range) => {
                self.merge_range(range)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    // ---- scans --------------------------------------------------------------

    /// Reconciling scan over the whole tree (memory + all disk components).
    pub fn scan(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>, opts: ScanOptions) -> Result<LsmScan> {
        let mem = self.mem_snapshot_range(lo, hi);
        let disk = self.disk_components();
        LsmScan::new(
            self.storage.clone(),
            (!mem.is_empty()).then_some(mem),
            &disk,
            lo,
            hi,
            opts,
        )
    }
}

/// Merges the active-shard run over the same shard's sealed run `[lo, hi]`
/// range; both are key-ordered, and the active entry wins a collision.
fn merge_mem_runs(
    active: Vec<(Key, LsmEntry)>,
    sealed: Option<Arc<MemComponent>>,
    lo: Bound<&[u8]>,
    hi: Bound<&[u8]>,
) -> Vec<(Key, LsmEntry)> {
    let Some(sealed) = sealed else {
        return active;
    };
    let mut out = Vec::with_capacity(active.len() + sealed.len());
    let mut old = sealed.range(lo, hi).peekable();
    for (k, e) in active {
        while let Some((ok, _)) = old.peek() {
            match ok.as_slice().cmp(&k) {
                std::cmp::Ordering::Less => {
                    // INVARIANT: `peek()` just returned `Some`, so `next()`
                    // yields that same element.
                    let (ok, oe) = old.next().unwrap();
                    out.push((ok.clone(), oe.clone()));
                }
                std::cmp::Ordering::Equal => {
                    old.next(); // shadowed by the active entry
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        out.push((k, e));
    }
    for (ok, oe) in old {
        out.push((ok.clone(), oe.clone()));
    }
    out
}

/// Interleaves key-ordered runs with pairwise-disjoint key sets (the
/// per-shard memory runs) into one ordered run.
fn interleave_disjoint_runs(runs: Vec<Vec<(Key, LsmEntry)>>) -> Vec<(Key, LsmEntry)> {
    let mut queues: Vec<VecDeque<(Key, LsmEntry)>> = runs
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(VecDeque::from)
        .collect();
    if queues.len() == 1 {
        // INVARIANT: length is exactly 1, so the pop yields the only queue.
        return queues.pop().unwrap().into();
    }
    let mut out = Vec::with_capacity(queues.iter().map(VecDeque::len).sum());
    loop {
        let mut best: Option<usize> = None;
        for (i, q) in queues.iter().enumerate() {
            if let Some((k, _)) = q.front() {
                best = match best {
                    // INVARIANT: `b` was only ever set for a queue with a
                    // non-empty front, and nothing is popped in this scan.
                    Some(b) if queues[b].front().unwrap().0 <= *k => Some(b),
                    _ => Some(i),
                };
            }
        }
        let Some(b) = best else { break };
        // INVARIANT: `best` points at a queue seen non-empty in the scan
        // just above; nothing was popped since.
        out.push(queues[b].pop_front().unwrap());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_policy::TieringPolicy;
    use lsm_storage::StorageOptions;

    fn tree() -> LsmTree {
        LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default())
    }

    fn sharded_tree(shards: usize) -> LsmTree {
        LsmTree::new(
            Storage::new(StorageOptions::test()),
            LsmOptions {
                mem_shards: shards,
                ..Default::default()
            },
        )
    }

    fn key(i: u32) -> Key {
        format!("k{i:06}").into_bytes()
    }

    #[test]
    fn flush_moves_mem_to_disk() {
        let t = tree();
        assert!(t.flush().unwrap().is_none());
        for i in 0..100 {
            t.put(key(i), LsmEntry::put(vec![b'v']), u64::from(i) + 1);
        }
        assert_eq!(t.mem_len(), 100);
        let c = t.flush().unwrap().unwrap();
        assert_eq!(c.num_entries(), 100);
        assert_eq!(c.id(), ComponentId::new(1, 100));
        assert_eq!(t.mem_len(), 0);
        assert_eq!(t.num_disk_components(), 1);
    }

    #[test]
    fn merge_reconciles_and_drops_anti_matter() {
        let t = tree();
        // Component 1: keys 0..10
        for i in 0..10 {
            t.put(key(i), LsmEntry::put(b"v1".to_vec()), u64::from(i) + 1);
        }
        t.flush().unwrap().unwrap();
        // Component 2: overwrite key 3, delete key 5.
        t.put(key(3), LsmEntry::put(b"v2".to_vec()), 20);
        t.put(key(5), LsmEntry::anti_matter(), 21);
        t.flush().unwrap().unwrap();
        assert_eq!(t.num_disk_components(), 2);

        let merged = t.merge_range(MergeRange { start: 0, end: 1 }).unwrap();
        assert_eq!(t.num_disk_components(), 1);
        // key 5 dropped (merge includes oldest), key 3 has new value.
        assert_eq!(merged.num_entries(), 9);
        let (e, _) = merged.search(&key(3)).unwrap().unwrap();
        assert_eq!(e.value, b"v2");
        assert!(merged.search(&key(5)).unwrap().is_none());
        assert_eq!(merged.id(), ComponentId::new(1, 21));
    }

    #[test]
    fn partial_merge_keeps_anti_matter() {
        let t = tree();
        for i in 0..5 {
            t.put(key(i), LsmEntry::put(b"v".to_vec()), u64::from(i) + 1);
        }
        t.flush().unwrap();
        t.put(key(1), LsmEntry::anti_matter(), 10);
        t.flush().unwrap();
        t.put(key(2), LsmEntry::put(b"w".to_vec()), 20);
        t.flush().unwrap();
        // Merge only the two NEWEST components (range excludes oldest).
        let merged = t.merge_range(MergeRange { start: 1, end: 2 }).unwrap();
        // Anti-matter for key 1 must survive to suppress the base version.
        let (e, _) = merged.search(&key(1)).unwrap().unwrap();
        assert!(e.anti_matter);
        assert_eq!(t.num_disk_components(), 2);
    }

    #[test]
    fn policy_driven_merging_converges() {
        let t = tree();
        let policy = TieringPolicy::new(u64::MAX);
        let mut ts = 1u64;
        for round in 0..6 {
            for i in 0..50 {
                t.put(key(round * 50 + i), LsmEntry::put(vec![0; 32]), ts);
                ts += 1;
            }
            t.flush().unwrap();
            while t.maybe_merge(&policy).unwrap() {}
        }
        // With an uncapped tiering policy everything collapses to few
        // components, and all data is present.
        assert!(t.num_disk_components() <= 3);
        assert_eq!(t.disk_entries(), 300);
    }

    #[test]
    fn scan_sees_mem_and_disk_reconciled() {
        let t = tree();
        t.put(key(1), LsmEntry::put(b"disk".to_vec()), 1);
        t.put(key(2), LsmEntry::put(b"disk".to_vec()), 2);
        t.flush().unwrap();
        t.put(key(1), LsmEntry::put(b"mem".to_vec()), 3);
        t.put(key(3), LsmEntry::anti_matter(), 4);

        let mut scan = t
            .scan(Bound::Unbounded, Bound::Unbounded, ScanOptions::default())
            .unwrap();
        let (k, e) = scan.next_entry().unwrap().unwrap();
        assert_eq!((k, e.value.into_bytes()), (key(1), b"mem".to_vec()));
        let (k, e) = scan.next_entry().unwrap().unwrap();
        assert_eq!((k, e.value.into_bytes()), (key(2), b"disk".to_vec()));
        assert!(scan.next_entry().unwrap().is_none());
    }

    #[test]
    fn mutable_bitmaps_created_when_configured() {
        let t = LsmTree::new(
            Storage::new(StorageOptions::test()),
            LsmOptions {
                mutable_bitmaps: true,
                ..Default::default()
            },
        );
        t.put(key(1), LsmEntry::put(vec![]), 1);
        let c = t.flush().unwrap().unwrap();
        let bm = c.bitmap().expect("mutable bitmap attached");
        assert_eq!(bm.len(), 1);
        assert_eq!(bm.count_set(), 0);
    }

    #[test]
    fn merge_physically_removes_bitmap_invalidated_entries() {
        let t = tree();
        for i in 0..4 {
            t.put(key(i), LsmEntry::put(b"v".to_vec()), u64::from(i) + 1);
        }
        t.flush().unwrap();
        t.put(key(9), LsmEntry::put(b"v".to_vec()), 9);
        t.flush().unwrap();
        // Invalidate key 2 in the older component via a bitmap.
        let comps = t.disk_components();
        let older = &comps[1];
        let bm = Arc::new(crate::bitmap::AtomicBitmap::new(older.num_entries()));
        let (_, ord) = older.search(&key(2)).unwrap().unwrap();
        bm.set(ord);
        older.set_bitmap(bm).unwrap();

        let merged = t.merge_range(MergeRange { start: 0, end: 1 }).unwrap();
        assert_eq!(merged.num_entries(), 4); // 0,1,3,9
        assert!(merged.search(&key(2)).unwrap().is_none());
    }

    #[test]
    fn merged_filter_is_union_of_inputs() {
        let t = tree();
        t.put(key(1), LsmEntry::put(vec![]), 1);
        t.widen_mem_filter(&key(1), &Value::Int(2015));
        t.flush().unwrap();
        t.put(key(2), LsmEntry::put(vec![]), 2);
        t.widen_mem_filter(&key(2), &Value::Int(2018));
        t.flush().unwrap();
        let merged = t.merge_range(MergeRange { start: 0, end: 1 }).unwrap();
        let f = merged.range_filter().unwrap();
        assert_eq!(f.min(), &Value::Int(2015));
        assert_eq!(f.max(), &Value::Int(2018));
    }

    #[test]
    fn mem_filter_snapshot_on_flush() {
        let t = tree();
        t.put(key(1), LsmEntry::put(vec![]), 1);
        t.widen_mem_filter(&key(1), &Value::Int(7));
        let c = t.flush().unwrap().unwrap();
        assert!(c.range_filter().is_some());
        assert!(t.mem_filter().is_none(), "filter reset after flush");
    }

    // ---- sharded memory components ----------------------------------------

    #[test]
    fn sharded_puts_and_gets_roundtrip() {
        let t = sharded_tree(4);
        for i in 0..200 {
            t.put(key(i), LsmEntry::put(vec![i as u8]), u64::from(i) + 1);
        }
        assert_eq!(t.mem_len(), 200);
        for i in 0..200 {
            assert_eq!(t.mem_get(&key(i)).unwrap().value, vec![i as u8]);
        }
        // Replacement stays within the key's shard and wins.
        t.put(key(7), LsmEntry::put(b"new".to_vec()), 300);
        assert_eq!(t.mem_get(&key(7)).unwrap().value, b"new");
        assert_eq!(t.mem_len(), 200);
    }

    #[test]
    fn sharded_flush_components_share_the_generation_id() {
        let t = sharded_tree(4);
        for i in 0..100 {
            t.put(key(i), LsmEntry::put(vec![b'v']), u64::from(i) + 1);
        }
        t.flush().unwrap().unwrap();
        let comps = t.disk_components();
        assert!(comps.len() > 1, "expected several shard components");
        assert!(comps.len() <= 4);
        for c in comps.iter() {
            assert_eq!(c.id(), ComponentId::new(1, 100), "shared generation id");
        }
        let total: u64 = comps.iter().map(|c| c.num_entries()).sum();
        assert_eq!(total, 100);
        assert_eq!(t.mem_len(), 0);
        // Every key remains reachable in exactly one shard component.
        for i in 0..100 {
            let hits = comps
                .iter()
                .filter(|c| c.search(&key(i)).unwrap().is_some())
                .count();
            assert_eq!(hits, 1, "key {i} in exactly one shard component");
        }
    }

    #[test]
    fn sharded_snapshot_is_globally_key_ordered() {
        let t = sharded_tree(3);
        for i in (0..60).rev() {
            t.put(key(i), LsmEntry::put(vec![]), u64::from(60 - i));
        }
        // Seal mid-stream, then overwrite a few keys in the fresh shards.
        t.seal_mem().unwrap();
        t.put(key(5), LsmEntry::put(b"new".to_vec()), 100);
        t.put(key(40), LsmEntry::anti_matter(), 101);
        let snap = t.mem_snapshot_range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(snap.len(), 60);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "ordered");
        let e5 = snap.iter().find(|(k, _)| k == &key(5)).unwrap();
        assert_eq!(e5.1.value, b"new", "active shadows sealed");
        let e40 = snap.iter().find(|(k, _)| k == &key(40)).unwrap();
        assert!(e40.1.anti_matter);
        t.flush_sealed().unwrap();
        assert!(!t.has_sealed());
    }

    #[test]
    fn sharded_merge_selection_covers_whole_generations() {
        let t = sharded_tree(4);
        let policy = TieringPolicy::new(u64::MAX);
        let mut ts = 1u64;
        for _ in 0..3 {
            for i in 0..80 {
                t.put(key(i), LsmEntry::put(vec![0; 16]), ts);
                ts += 1;
            }
            t.flush().unwrap();
        }
        let n = t.num_disk_components();
        assert!(n > 3, "three generations of shard components");
        let range = t.select_merge(&policy).expect("generations mergeable");
        assert_eq!((range.start, range.end), (0, n - 1), "whole generations");
        let merged = t.merge_range(range).unwrap();
        assert_eq!(t.num_disk_components(), 1);
        assert_eq!(merged.num_entries(), 80, "duplicates reconciled");
    }

    #[test]
    fn single_generation_is_never_selected_for_merge() {
        // A lone sharded generation must not merge with itself: its merged
        // interval would equal the generation's, and recovery could no
        // longer tell a merged component from a flush generation.
        let t = sharded_tree(4);
        let policy = TieringPolicy::new(u64::MAX);
        for i in 0..80 {
            t.put(key(i), LsmEntry::put(vec![0; 16]), u64::from(i) + 1);
        }
        t.flush().unwrap();
        assert!(t.num_disk_components() > 1);
        assert!(t.select_merge(&policy).is_none());
    }

    #[test]
    fn shard_one_matches_unsharded_layout() {
        // memtable_shards = 1 must be byte-identical to the historical
        // unsharded tree: one component per flush, exact interval ids.
        let t = sharded_tree(1);
        for i in 0..50 {
            t.put(key(i), LsmEntry::put(vec![b'x']), u64::from(i) + 1);
        }
        let c = t.flush().unwrap().unwrap();
        assert_eq!(t.num_disk_components(), 1);
        assert_eq!(c.id(), ComponentId::new(1, 50));
        assert_eq!(c.num_entries(), 50);
    }

    #[test]
    fn sharded_mem_bytes_tracks_all_shards() {
        let t = sharded_tree(4);
        assert_eq!(t.mem_bytes(), 0);
        for i in 0..40 {
            t.put(key(i), LsmEntry::put(vec![0; 50]), u64::from(i) + 1);
        }
        let total = t.mem_bytes();
        assert!(total > 40 * 50, "aggregate covers every shard: {total}");
        t.seal_mem().unwrap();
        assert_eq!(t.mem_bytes(), 0, "sealed bytes move out of the active sum");
        assert!(t.sealed_bytes() >= total);
        t.flush_sealed().unwrap();
        assert_eq!(t.sealed_bytes(), 0);
    }
}
