//! The LSM-tree: a memory component plus an ordered list of immutable disk
//! components, with flush and merge machinery.
//!
//! This is the per-index structure of Figure 1; the engine crate composes
//! one primary index, one primary key index, and N secondary indexes over
//! these trees and layers the maintenance strategies on top.
//!
//! # Seal, flush, merge
//!
//! Each tree has one active memory component (a `BTreeMap` under one
//! mutex) and at most one sealed one. [`LsmTree::seal_mem`] turns the
//! active component into the sealed snapshot in one step; writers then
//! fill a fresh active component while [`LsmTree::build_sealed`] builds
//! the snapshot into one disk component carrying the snapshot's own
//! `(minTS, maxTS)` interval. Readers see both memory components (the
//! active entry shadows the sealed one) until [`LsmTree::install_sealed`]
//! publishes the disk component. Every flush therefore adds exactly one
//! component, and a merged component's interval spans at least two
//! flushes — recovery tells the two apart by interval alone.

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
use lsm_storage::{Event, Storage};
use parking_lot::{Mutex, RwLock};
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
    /// Active memory components per tree; `1` is the only legal value
    /// ([`LsmTree::new`] panics on any other). The field stays only
    /// because the repository benchmark names it, and goes with that
    /// benchmark's next change.
    pub mem_shards: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            name: "lsm".into(),
            with_bloom: true,
            bloom_kind: BloomKind::default(),
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

impl ComponentBuilder {
    /// Starts building component `id` on `btree` with a tree's Bloom and
    /// bitmap options, its Bloom filter sized for `expected_keys`.
    fn new(
        storage: Arc<Storage>,
        btree: BTreeBuilder,
        id: ComponentId,
        opts: &LsmOptions,
        expected_keys: usize,
        filter: Option<RangeFilter>,
    ) -> Self {
        let bloom = opts
            .with_bloom
            .then(|| build_filter(opts.bloom_kind, expected_keys, opts.bloom_fpr));
        ComponentBuilder {
            storage,
            btree,
            id,
            bloom,
            filter,
            make_mutable_bitmap: opts.mutable_bitmaps,
            encoded: Vec::new(),
        }
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
        self.storage.charge(Event::SortEntry, 1);
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
type TreeSnapshot = (Option<Vec<(Key, LsmEntry)>>, ComponentList);

/// An LSM-tree index.
pub struct LsmTree {
    opts: LsmOptions,
    storage: Arc<Storage>,
    /// Active memory component.
    mem: Mutex<MemComponent>,
    /// The active component's bytes, mirrored outside its lock: the
    /// engine's write path reads every index's size on every write, and
    /// that read should not take one lock per index.
    mem_bytes_total: AtomicUsize,
    /// Memory component sealed for an in-progress flush. Writers fill a
    /// fresh active component while the builder turns this immutable
    /// snapshot into a disk component; readers see both (active wins).
    sealed: RwLock<Option<Arc<MemComponent>>>,
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
            .field("disk_components", &self.disk.read().len())
            .finish()
    }
}

impl LsmTree {
    /// Creates an empty tree.
    ///
    /// # Panics
    ///
    /// If `opts.mem_shards` is not 1.
    pub fn new(storage: Arc<Storage>, opts: LsmOptions) -> Self {
        assert_eq!(
            opts.mem_shards, 1,
            "{}: a tree has exactly one memory component",
            opts.name
        );
        LsmTree {
            opts,
            storage,
            mem: Mutex::new(MemComponent::new()),
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

    // ---- memory component -------------------------------------------------

    /// Writes an entry into the memory component. `op_ts` is the operation
    /// timestamp used for the component ID. Returns the replaced entry.
    pub fn put(&self, key: Key, entry: LsmEntry, op_ts: Timestamp) -> Option<LsmEntry> {
        self.storage.charge(Event::MemtableOp, 1);
        let mut mem = self.mem.lock();
        let old = mem.put(key, entry, op_ts);
        self.mem_bytes_total.store(mem.bytes(), Ordering::Relaxed);
        old
    }

    /// Reads the memory component: the active component first, then the
    /// sealed snapshot of an in-progress flush (the active entry, being
    /// newer, shadows the sealed one).
    pub fn mem_get(&self, key: &[u8]) -> Option<LsmEntry> {
        self.storage.charge(Event::MemtableOp, 1);
        if let Some(e) = self.mem.lock().get(key).cloned() {
            return Some(e);
        }
        self.sealed
            .read()
            .as_ref()
            .and_then(|s| s.get(key).cloned())
    }

    /// The header (anti-matter flag and timestamp, payload stripped — see
    /// [`LsmEntry::key_only`]) of `key`'s entry in the *active* memory
    /// component only. Writers that must distinguish "replaced in place"
    /// from "immutable, mid-flush" (the Mutable-bitmap delete probe) use
    /// this together with [`LsmTree::sealed_get`]; neither needs the
    /// record, so neither copies it.
    pub fn mem_get_active(&self, key: &[u8]) -> Option<LsmEntry> {
        self.storage.charge(Event::MemtableOp, 1);
        self.mem.lock().get(key).map(LsmEntry::key_only)
    }

    /// The header of `key`'s entry in the sealed (flushing) snapshot only.
    pub fn sealed_get(&self, key: &[u8]) -> Option<LsmEntry> {
        self.sealed
            .read()
            .as_ref()
            .and_then(|s| s.get(key).map(LsmEntry::key_only))
    }

    /// True if a sealed snapshot is pending (a flush is mid-build, or a
    /// previous flush attempt failed and should be retried).
    pub fn has_sealed(&self) -> bool {
        self.sealed.read().is_some()
    }

    /// Approximate size of the *active* memory component in bytes (the
    /// flush-trigger metric; a sealed snapshot is already on its way out).
    /// Lock-free.
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes_total.load(Ordering::Relaxed)
    }

    /// Approximate bytes of the sealed (flushing) snapshot, if any —
    /// memory that is still held but no longer accepts writes.
    /// Backpressure counts this on top of [`LsmTree::mem_bytes`].
    pub fn sealed_bytes(&self) -> usize {
        self.sealed.read().as_ref().map_or(0, |s| s.bytes())
    }

    /// Number of keys buffered in memory (active + sealed).
    pub fn mem_len(&self) -> usize {
        let active = self.mem.lock().len();
        active + self.sealed.read().as_ref().map_or(0, |s| s.len())
    }

    /// Widens the active memory component's range filter.
    pub fn widen_mem_filter(&self, v: &Value) {
        self.mem.lock().widen_filter(v);
    }

    /// Copies the in-memory entries in `[lo, hi]` in key order, merging the
    /// active component over the sealed snapshot (active entries win).
    ///
    /// The active lock is taken FIRST and held while the sealed slot is
    /// read — the same order `seal_mem` uses for its transition — so the
    /// snapshot can never observe the torn state where entries have left
    /// the active component but the sealed slot still reads empty.
    fn mem_snapshot_range(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Vec<(Key, LsmEntry)> {
        let mem = self.mem.lock();
        let sealed = self.sealed.read().clone();
        merge_mem_runs(&mem, sealed.as_deref(), lo, hi)
    }

    /// An atomically consistent view of the tree: the merged in-memory
    /// entries of `[lo, hi]` plus the disk components, captured so that an
    /// entry mid-flush appears in exactly one of the two (lock order
    /// active → sealed → disk matches `seal_mem` and `install_sealed`,
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
        let mem = self.mem.lock();
        let sealed = self.sealed.read();
        let disk = self.disk_components();
        let mut filter = mem.filter().cloned();
        if let Some(f) = sealed.as_ref().and_then(|s| s.filter()) {
            match &mut filter {
                Some(acc) => acc.union(f),
                None => filter = Some(f.clone()),
            }
        }
        let has_entries = !mem.is_empty() || sealed.is_some();
        let snapshot = (has_entries && include_mem(filter.as_ref(), &disk))
            .then(|| merge_mem_runs(&mem, sealed.as_deref(), lo, hi));
        drop(sealed);
        drop(mem);
        (snapshot, disk)
    }

    /// Discards the memory components (crash simulation in recovery tests).
    pub fn clear_mem(&self) {
        self.mem.lock().clear();
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
    pub(crate) fn push_newest(&self, comp: Arc<DiskComponent>) {
        let mut disk = self.disk.write();
        *disk = std::iter::once(comp).chain(disk.iter().cloned()).collect();
    }

    /// Removes the newest disk component and destroys its files. Crash
    /// recovery uses this to roll back a torn flush install — a component
    /// published by a crash-interrupted flush whose sibling indexes never
    /// installed theirs; the WAL still covers its committed entries.
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
        let mut builder = self.component_builder(
            source.id(),
            source.num_entries() as usize,
            source.range_filter().cloned(),
        );
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

    /// Seals the active memory component for flushing — atomically, under
    /// its lock, so no operation is ever split across the seal: writers
    /// continue into a fresh active component while
    /// [`LsmTree::build_sealed`] builds the snapshot into a disk component.
    /// Returns `false` (and seals nothing) if the active component is
    /// empty. Errors if a sealed snapshot is already pending — callers
    /// must serialize flushes (the engine holds a per-dataset flush lock).
    pub fn seal_mem(&self) -> Result<bool> {
        let mut mem = self.mem.lock();
        if mem.id().is_none() {
            return Ok(false);
        }
        let mut sealed = self.sealed.write();
        if sealed.is_some() {
            return Err(Error::invalid(format!(
                "{}: flush already in progress (sealed snapshot pending)",
                self.opts.name
            )));
        }
        *sealed = Some(Arc::new(std::mem::take(&mut *mem)));
        self.mem_bytes_total.store(0, Ordering::Relaxed);
        Ok(true)
    }

    /// Builds the sealed snapshot into a disk component and installs it as
    /// the newest. Returns `None` when nothing is sealed. The snapshot
    /// stays visible to readers throughout, so there is no window where
    /// its entries are neither in memory nor on disk.
    fn flush_sealed(&self) -> Result<Option<Arc<DiskComponent>>> {
        let comp = self.build_sealed()?;
        if let Some(c) = &comp {
            self.install_sealed(c.clone());
        }
        Ok(comp)
    }

    /// Builds the sealed snapshot's disk component WITHOUT installing it —
    /// the engine builds every index's component before it publishes any
    /// with [`LsmTree::install_sealed`]. The component carries the
    /// snapshot's own interval, and its B+-tree appends at the device's
    /// write frontier, so a flush writes all of a dataset's indexes back
    /// to back.
    pub fn build_sealed(&self) -> Result<Option<Arc<DiskComponent>>> {
        let Some(snapshot) = self.sealed.read().clone() else {
            return Ok(None);
        };
        let id = snapshot.id().ok_or_else(|| {
            Error::invalid(format!(
                "{}: sealed memory component is empty",
                self.opts.name
            ))
        })?;
        let filter = snapshot.filter().cloned();
        let mut builder = self.component_builder(id, snapshot.len(), filter);
        for (k, e) in snapshot.iter() {
            builder.add(k, e)?;
        }
        Ok(Some(Arc::new(builder.finish()?)))
    }

    /// Publishes the component built by [`LsmTree::build_sealed`] and
    /// releases the sealed snapshot. The sealed lock is held across the
    /// disk insert (lock order sealed → disk), and the component is
    /// inserted before the snapshot clears: a reconciling reader that
    /// captures memory first either sees the entries in the sealed
    /// snapshot, on disk, or both (never neither), while the atomic
    /// [`LsmTree::mem_and_disk_snapshot_if`] capture sees them exactly once.
    pub fn install_sealed(&self, comp: Arc<DiskComponent>) {
        let mut sealed = self.sealed.write();
        self.push_newest(comp);
        *sealed = None;
    }

    /// Flushes the memory component into a new disk component. Returns
    /// `None` if the memory component was empty. A snapshot left sealed by
    /// a previous failed attempt is flushed first, so transient build
    /// errors stay retryable.
    pub fn flush(&self) -> Result<Option<Arc<DiskComponent>>> {
        if self.has_sealed() {
            self.flush_sealed()?;
        }
        if !self.seal_mem()? {
            return Ok(None);
        }
        self.flush_sealed()
    }

    // ---- merging -----------------------------------------------------------

    /// Applies `policy` to the current disk components; returns the chosen
    /// range (oldest-first indexing) without performing the merge.
    pub fn select_merge(&self, policy: &dyn MergePolicy) -> Option<MergeRange> {
        let sizes: Vec<u64> = self
            .disk_components()
            .iter()
            .rev()
            .map(|c| c.byte_size())
            .collect();
        policy.select(&sizes)
    }

    /// Components of `range` (oldest-first indexing), returned newest-first.
    /// Returns an empty vector when the range no longer fits the component
    /// list (a stale plan after a concurrent merge).
    fn components_in_range(&self, range: MergeRange) -> Vec<Arc<DiskComponent>> {
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

    /// What every merge of `range` starts from: the input components
    /// (newest first), a builder carrying the merged ID, the union of the
    /// inputs' range filters and a Bloom filter sized for their entries,
    /// and whether the merge drops anti-matter: it may once the range
    /// includes the oldest component, unless `keep_anti_matter`.
    pub fn merge_start(
        &self,
        range: MergeRange,
        keep_anti_matter: bool,
    ) -> Result<(Vec<Arc<DiskComponent>>, ComponentBuilder, bool)> {
        let inputs = self.components_in_range(range);
        let id = ComponentId::merged(inputs.iter().map(|c| c.id()))
            .ok_or_else(|| Error::invalid("merge range holds no components"))?;
        let mut filter: Option<RangeFilter> = None;
        for f in inputs.iter().filter_map(|c| c.range_filter()) {
            match &mut filter {
                None => filter = Some(f.clone()),
                Some(acc) => acc.union(f),
            }
        }
        let expected: u64 = inputs.iter().map(|c| c.num_entries()).sum();
        let builder = self.component_builder(id, expected as usize, filter);
        Ok((inputs, builder, range.start == 0 && !keep_anti_matter))
    }

    /// A builder for a component `id` of this tree at the device's write
    /// frontier, with the tree's own Bloom and bitmap options and a Bloom
    /// filter sized for `expected_keys`.
    pub(crate) fn component_builder(
        &self,
        id: ComponentId,
        expected_keys: usize,
        filter: Option<RangeFilter>,
    ) -> ComponentBuilder {
        let btree = BTreeBuilder::new(self.storage.clone());
        ComponentBuilder::new(
            self.storage.clone(),
            btree,
            id,
            &self.opts,
            expected_keys,
            filter,
        )
    }

    /// Merges the components in `range` into one new component.
    ///
    /// Reconciles duplicate keys (newest wins), drops entries invalidated by
    /// bitmaps, and drops anti-matter if the range includes the oldest
    /// component. Returns the new component after swapping it in and
    /// destroying the inputs.
    pub fn merge_range(&self, range: MergeRange) -> Result<Arc<DiskComponent>> {
        self.merge_range_with(range, false)
    }

    /// [`LsmTree::merge_range`], keeping anti-matter even past the oldest
    /// component if `keep_anti_matter`: a delete stays visible to readers
    /// that ask this tree when a key was last written.
    pub fn merge_range_with(
        &self,
        range: MergeRange,
        keep_anti_matter: bool,
    ) -> Result<Arc<DiskComponent>> {
        let (inputs, mut builder, drop_anti) = self.merge_start(range, keep_anti_matter)?;
        if inputs.len() < 2 {
            return Err(Error::invalid("merge needs at least two components"));
        }
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

/// Copies the `[lo, hi]` entries of the active component merged over the
/// sealed snapshot, in key order; the active entry wins a collision.
fn merge_mem_runs(
    active: &MemComponent,
    sealed: Option<&MemComponent>,
    lo: Bound<&[u8]>,
    hi: Bound<&[u8]>,
) -> Vec<(Key, LsmEntry)> {
    let active: Vec<(Key, LsmEntry)> = active
        .range(lo, hi)
        .map(|(k, e)| (k.clone(), e.clone()))
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_policy::TieringPolicy;
    use lsm_storage::StorageOptions;

    fn tree() -> LsmTree {
        LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default())
    }

    fn key(i: u32) -> Key {
        format!("k{i:06}").into_bytes()
    }

    #[test]
    fn default_options_build_blocked_filters() {
        assert_eq!(LsmOptions::default().bloom_kind, BloomKind::Blocked);
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
        t.widen_mem_filter(&Value::Int(2015));
        t.flush().unwrap();
        t.put(key(2), LsmEntry::put(vec![]), 2);
        t.widen_mem_filter(&Value::Int(2018));
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
        t.widen_mem_filter(&Value::Int(7));
        let c = t.flush().unwrap().unwrap();
        assert!(c.range_filter().is_some());
        // The next memory component starts from an empty filter: one new
        // value must yield exactly [9, 9], not the pre-flush [7, 9].
        t.put(key(2), LsmEntry::put(vec![]), 2);
        t.widen_mem_filter(&Value::Int(9));
        let mut ran = false;
        let (lo, hi) = (Bound::Unbounded, Bound::Unbounded);
        t.mem_and_disk_snapshot_if(lo, hi, |f, _| {
            let f = f.expect("the new entry widened the filter");
            assert_eq!((f.min(), f.max()), (&Value::Int(9), &Value::Int(9)));
            ran = true;
            false
        });
        assert!(ran, "the filter callback ran");
    }

    // ---- memory component --------------------------------------------------

    #[test]
    fn active_shadows_sealed_in_a_mid_flush_snapshot() {
        let t = tree();
        for i in (0..60).rev() {
            t.put(key(i), LsmEntry::put(vec![]), u64::from(60 - i));
        }
        // Seal mid-stream, then overwrite a few keys in the fresh component.
        t.seal_mem().unwrap();
        t.put(key(5), LsmEntry::put(b"new".to_vec()), 100);
        t.put(key(40), LsmEntry::anti_matter(), 101);
        t.put(key(99), LsmEntry::put(b"only-active".to_vec()), 102);
        let snap = t.mem_snapshot_range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(snap.len(), 61);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "ordered");
        let e5 = snap.iter().find(|(k, _)| k == &key(5)).unwrap();
        assert_eq!(e5.1.value, b"new", "active shadows sealed");
        let e40 = snap.iter().find(|(k, _)| k == &key(40)).unwrap();
        assert!(e40.1.anti_matter);
        assert_eq!(t.mem_get(&key(5)).unwrap().value, b"new");
        assert!(t.sealed_get(&key(5)).is_some(), "the sealed version stays");
        assert!(t.sealed_get(&key(99)).is_none(), "written after the seal");
        let c = t.flush_sealed().unwrap().expect("a sealed snapshot");
        assert_eq!(
            c.id(),
            ComponentId::new(1, 60),
            "the snapshot's own interval"
        );
        assert!(!t.has_sealed());
        assert!(t.flush_sealed().unwrap().is_none(), "nothing left sealed");
    }

    #[test]
    fn sealed_bytes_leave_the_active_count() {
        let t = tree();
        assert_eq!(t.mem_bytes(), 0);
        for i in 0..40 {
            t.put(key(i), LsmEntry::put(vec![0; 50]), u64::from(i) + 1);
        }
        let total = t.mem_bytes();
        assert!(total > 40 * 50, "every put is counted: {total}");
        t.seal_mem().unwrap();
        assert_eq!(
            t.mem_bytes(),
            0,
            "sealed bytes move out of the active count"
        );
        assert_eq!(t.sealed_bytes(), total);
        t.put(key(1), LsmEntry::put(vec![0; 50]), 41);
        assert!(t.mem_bytes() > 50, "the fresh component counts from zero");
        t.flush_sealed().unwrap();
        assert_eq!(t.sealed_bytes(), 0);
    }

    #[test]
    fn puts_stay_readable_through_seal_and_flush() {
        let t = tree();
        for i in 0..30 {
            t.put(key(i), LsmEntry::put(vec![i as u8]), u64::from(i) + 1);
        }
        assert!(t.seal_mem().unwrap());
        for i in 30..40 {
            t.put(key(i), LsmEntry::put(vec![i as u8]), u64::from(i) + 1);
        }
        assert!(t.seal_mem().is_err(), "one sealed snapshot at a time");
        assert_eq!(t.mem_len(), 40, "active and sealed both count");
        for i in 0..40 {
            assert_eq!(t.mem_get(&key(i)).unwrap().value, vec![i as u8]);
            let in_active = t.mem_get_active(&key(i)).is_some();
            assert_eq!(in_active, i >= 30, "key {i} lives in one component");
        }
        let c = t.flush_sealed().unwrap().unwrap();
        assert_eq!(c.num_entries(), 30);
        assert_eq!(t.mem_len(), 10);
        assert!(t.mem_get(&key(0)).is_none(), "the flushed keys left memory");
        assert!(c.search(&key(0)).unwrap().is_some());
        assert!(t.mem_get(&key(35)).is_some());
    }

    #[test]
    fn each_flush_carries_its_own_disjoint_interval() {
        let t = tree();
        let mut ids = Vec::new();
        let mut ts = 1u64;
        for round in 0..3 {
            for i in 0..10 {
                t.put(key(round * 10 + i), LsmEntry::put(vec![]), ts);
                ts += 1;
            }
            ids.push(t.flush().unwrap().unwrap().id());
        }
        assert_eq!(
            ids,
            vec![
                ComponentId::new(1, 10),
                ComponentId::new(11, 20),
                ComponentId::new(21, 30),
            ]
        );
        let merged = t.merge_range(MergeRange { start: 0, end: 2 }).unwrap();
        assert_eq!(merged.id(), ComponentId::new(1, 30), "spans every input");
    }

    #[test]
    fn the_policy_sees_one_size_per_component_oldest_first() {
        struct Record(Mutex<Vec<u64>>);
        impl MergePolicy for Record {
            fn select(&self, sizes: &[u64]) -> Option<MergeRange> {
                *self.0.lock() = sizes.to_vec();
                None
            }
        }
        let t = tree();
        let mut ts = 1u64;
        for n in [5u32, 80, 30] {
            for i in 0..n {
                t.put(key(i), LsmEntry::put(vec![0; 200]), ts);
                ts += 1;
            }
            t.flush().unwrap();
        }
        let policy = Record(Mutex::new(Vec::new()));
        assert!(t.select_merge(&policy).is_none());
        let expected: Vec<u64> = t
            .disk_components()
            .iter()
            .rev()
            .map(|c| c.byte_size())
            .collect();
        assert_eq!(expected.len(), 3);
        assert!(expected[1] > expected[2] && expected[2] > expected[0]);
        assert_eq!(*policy.0.lock(), expected);
    }

    #[test]
    fn a_lone_component_is_never_selected_for_merge() {
        // A merged interval must span at least two flushes, or recovery
        // could no longer tell a merged component from a flushed one.
        let t = tree();
        let policy = TieringPolicy::new(u64::MAX);
        for i in 0..80 {
            t.put(key(i), LsmEntry::put(vec![0; 16]), u64::from(i) + 1);
        }
        t.flush().unwrap();
        assert_eq!(t.num_disk_components(), 1);
        assert!(t.select_merge(&policy).is_none());
    }

    #[test]
    #[should_panic(expected = "exactly one memory component")]
    fn a_second_memory_component_is_refused() {
        LsmTree::new(
            Storage::new(StorageOptions::test()),
            LsmOptions {
                mem_shards: 2,
                ..Default::default()
            },
        );
    }
}
