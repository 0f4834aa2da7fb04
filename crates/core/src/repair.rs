//! Secondary-index repair (Section 4.4) and the DELI baseline.
//!
//! Under the Validation strategy obsolete entries accumulate in secondary
//! indexes; repair validates entries against the primary key index and
//! records invalid ones in an immutable bitmap:
//!
//! * **merge repair** (Figure 7) rebuilds the component(s) while validating:
//!   scan → stream into the new component → sort `(pkey, ts, position)` →
//!   validate against the primary key index (pruning components at or below
//!   the inputs' smallest floor: an input's repaired timestamp or, if later,
//!   its oldest entry's) → set bitmap bits;
//! * **standalone repair** only produces a fresh bitmap for an existing
//!   component;
//! * the **Bloom filter optimization** skips sorting/validating keys whose
//!   absence from all unpruned primary-key-index components proves them
//!   untouched (sound when merges are correlated, Section 4.4);
//! * the **merge-scan optimization** switches from point validation to a
//!   merge join whenever there are more candidates than entries in the
//!   unpruned primary-key-index components;
//! * **primary repair** is DELI's approach (Tang et al.): scan (or merge)
//!   the *primary* index components, detect obsolete record versions, and
//!   emit secondary anti-matter — paying full-record I/O.

use crate::dataset::{Dataset, MergePlan, MergeTarget};
use crate::keys::{encode_sk_pk, split_sk_pk};
use lsm_common::{Error, Key, RecordView, Result, Timestamp};
use lsm_storage::{Event, Storage};
use lsm_tree::{
    any_may_contain, sorted_timestamps, AtomicBitmap, ComponentList, DiskComponent, EntryRef,
    LsmEntry, LsmScan, LsmTree, MergeRange, ScanOptions, WalkStats,
};
use std::ops::Bound;
use std::sync::Arc;

/// How entries are validated during repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Validate against the primary key index with repaired-timestamp
    /// pruning (the paper's proposal), optionally with the Bloom filter
    /// optimization.
    PrimaryKeyIndex {
        /// Skip keys absent from all unpruned pk-index Bloom filters.
        bloom_opt: bool,
    },
    /// AsterixDB's deleted-key B+-tree baseline: validate against the FULL
    /// primary key index (no pruning) and write a per-component deleted-key
    /// B+-tree holding the invalid keys.
    DeletedKeyBTree,
}

/// What a repair operation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Entries scanned from the repaired component(s).
    pub entries_scanned: u64,
    /// Keys that went through sorting + validation.
    pub keys_validated: u64,
    /// Keys skipped by the Bloom filter optimization.
    pub skipped_by_bloom: u64,
    /// Entries found obsolete and marked in the bitmap.
    pub invalidated: u64,
    /// True if the merge-scan path was taken.
    pub used_merge_scan: bool,
    /// Primary-key-index B+-tree probes made by point validation: the
    /// `(candidate, component)` pairs the Bloom filters let through.
    pub pk_tree_probes: u64,
    /// Root-to-leaf descents those probes took: the candidates are probed
    /// in key order on a stateful cursor, so one per leaf visited.
    pub pk_leaf_visits: u64,
}

/// One candidate for validation: Figure 7's `(pkey, ts, position)`, the
/// key held as a span of its [`Candidates`] arena.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// The key's first eight bytes, big-endian and zero-padded: it orders
    /// as the key does wherever two prefixes differ, so most comparisons
    /// of the sort never leave the candidate list for the arena.
    key_prefix: u64,
    key_start: usize,
    key_len: u32,
    ts: Timestamp,
    position: u64,
}

/// The sorter's input: every candidate's primary key back to back in one
/// buffer (a merge collects hundreds of thousands; one `Vec<u8>` each was
/// an allocation per scanned entry).
#[derive(Debug, Default)]
struct Candidates {
    keys: Vec<u8>,
    list: Vec<Candidate>,
}

impl Candidates {
    fn push(&mut self, pkey: &[u8], ts: Timestamp, position: u64) {
        let mut prefix = [0u8; 8];
        let n = pkey.len().min(8);
        prefix[..n].copy_from_slice(&pkey[..n]);
        self.list.push(Candidate {
            key_prefix: u64::from_be_bytes(prefix),
            key_start: self.keys.len(),
            key_len: pkey.len() as u32,
            ts,
            position,
        });
        self.keys.extend_from_slice(pkey);
    }
}

fn key_of<'a>(keys: &'a [u8], cand: &Candidate) -> &'a [u8] {
    &keys[cand.key_start..cand.key_start + cand.key_len as usize]
}

/// The components of `pk_components` — one snapshot of the primary key
/// index's list, newest first — that `prune_ts` does not prune.
fn unpruned(pk_components: &[Arc<DiskComponent>], prune_ts: Timestamp) -> Vec<Arc<DiskComponent>> {
    pk_components
        .iter()
        .filter(|c| !c.id().at_or_before(prune_ts))
        .cloned()
        .collect()
}

/// Sorts the candidates and validates them against `pk_components` — the
/// unpruned part of the repair's one primary-key-index snapshot — setting
/// bitmap bits for the invalid ones. A merge join with the components
/// replaces the point probes when the candidates outnumber their entries
/// (Section 4.4's merge-scan optimization).
fn validate_candidates(
    storage: &Arc<Storage>,
    pk_components: &[Arc<DiskComponent>],
    candidates: &mut Candidates,
    bitmap: &AtomicBitmap,
    report: &mut RepairReport,
) -> Result<()> {
    let keys = candidates.keys.as_slice();
    let candidates = candidates.list.as_mut_slice();
    crate::query::charge_sort(storage, candidates.len() as u64);
    // Key order, decided by the prefixes wherever they differ. Unstable:
    // candidates of one primary key are validated independently, each into
    // the bit of its own `position`, so their order changes no bit.
    candidates.sort_unstable_by(|a, b| {
        a.key_prefix
            .cmp(&b.key_prefix)
            .then_with(|| key_of(keys, a).cmp(key_of(keys, b)))
    });
    report.keys_validated += candidates.len() as u64;
    // Invalid iff the same key exists with a larger timestamp (an update
    // or a delete after this entry was written).
    let mut invalidate = |cand: &Candidate, newest: Timestamp| {
        if newest > cand.ts {
            bitmap.set(cand.position);
            report.invalidated += 1;
        }
    };

    let pk_entries: u64 = pk_components.iter().map(|c| c.num_entries()).sum();
    if candidates.len() as u64 > pk_entries {
        // Merge join the sorted candidates with a reconciling scan of the
        // unpruned pk-index components.
        let mut scan = LsmScan::new(
            storage.clone(),
            None,
            pk_components,
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions {
                emit_anti_matter: true,
                respect_bitmaps: false,
            },
        )?;
        let mut head = scan.next_lent()?;
        for cand in candidates.iter() {
            let pkey = key_of(keys, cand);
            while head.is_some_and(|h| h.key < pkey) {
                head = scan.next_lent()?;
            }
            if let Some(h) = head.filter(|h| h.key == pkey) {
                invalidate(cand, h.entry.ts);
            }
        }
        report.used_merge_scan = true;
        return Ok(());
    }

    let walk = newest_timestamps(storage, pk_components, keys, candidates, |i, newest| {
        invalidate(&candidates[i], newest)
    })?;
    report.pk_tree_probes += walk.tree_probes;
    report.pk_leaf_visits += walk.leaf_visits;
    Ok(())
}

/// Point validation's probes: the candidates are sorted, so they are one
/// batched, stateful walk of the pk index (Section 3.2). `on_newest(i, ts)`
/// gets the timestamp of the newest version of candidate `i`'s key, if
/// `pk_components` hold one.
fn newest_timestamps(
    storage: &Storage,
    pk_components: &[Arc<DiskComponent>],
    keys: &[u8],
    candidates: &[Candidate],
    on_newest: impl FnMut(usize, Timestamp),
) -> Result<WalkStats> {
    #[cfg(test)]
    if oracle::enabled() {
        return oracle::newest_timestamps(storage, pk_components, keys, candidates, on_newest);
    }
    sorted_timestamps(
        storage,
        pk_components,
        candidates.len(),
        |i| key_of(keys, &candidates[i]),
        |_, _| true,
        on_newest,
    )
}

/// The Bloom filter optimization's test (Section 4.4): may any unpruned
/// component newer than `ts` — one at or below the entry's own timestamp
/// cannot hold a newer version — contain `pk_key`?
fn touched_since(
    storage: &Storage,
    unpruned: &[Arc<DiskComponent>],
    pk_key: &[u8],
    ts: Timestamp,
) -> bool {
    let newer = |c: &DiskComponent| !c.id().at_or_before(ts);
    #[cfg(test)]
    if oracle::enabled() {
        return oracle::touched_since(storage, unpruned, pk_key, newer);
    }
    any_may_contain(storage, unpruned, pk_key, newer)
}

/// Validation as it ran before the sorted walk — one independent
/// root-to-leaf search per candidate and component, one hash and one bill
/// per Bloom probe — switched in per thread, for the tests that demand the
/// same bitmap, report and Bloom bill from both.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn enabled() -> bool {
        ENABLED.get()
    }

    /// Runs `f` with this thread's repairs validating per key.
    pub(crate) fn with<T>(f: impl FnOnce() -> T) -> T {
        ENABLED.set(true);
        let out = f();
        ENABLED.set(false);
        out
    }

    /// The newest version of `key` among the `components` (newest first)
    /// that `eligible` admits, and the B+-tree searches that took.
    pub(crate) fn newest_version_among(
        storage: &Storage,
        components: &[Arc<DiskComponent>],
        key: &[u8],
        eligible: impl Fn(&DiskComponent) -> bool,
    ) -> Result<(Option<LsmEntry>, u64)> {
        let mut searches = 0;
        for comp in components.iter().filter(|c| eligible(c)) {
            if comp.bloom_may_contain(storage, key) {
                searches += 1;
                if let Some((entry, _)) = comp.search(key)? {
                    return Ok((Some(entry), searches));
                }
            }
        }
        Ok((None, searches))
    }

    pub(super) fn newest_timestamps(
        storage: &Storage,
        pk_components: &[Arc<DiskComponent>],
        keys: &[u8],
        candidates: &[Candidate],
        mut on_newest: impl FnMut(usize, Timestamp),
    ) -> Result<WalkStats> {
        let mut stats = WalkStats::default();
        for (i, cand) in candidates.iter().enumerate() {
            let (found, searches) =
                newest_version_among(storage, pk_components, key_of(keys, cand), |_| true)?;
            stats.tree_probes += searches;
            stats.leaf_visits += searches;
            if let Some(found) = found {
                on_newest(i, found.ts);
            }
        }
        Ok(stats)
    }

    pub(super) fn touched_since(
        storage: &Storage,
        unpruned: &[Arc<DiskComponent>],
        pk_key: &[u8],
        newer: impl Fn(&DiskComponent) -> bool,
    ) -> bool {
        let mut newer = unpruned.iter().filter(|c| newer(c));
        newer.any(|c| c.bloom_may_contain(storage, pk_key))
    }
}

/// The timestamp at or below which no primary-key-index component can
/// invalidate an entry of `comp`: its repaired timestamp, or, if later, its
/// oldest entry's — a component whose versions are all at or before an
/// entry's own timestamp holds no newer one. A fresh flush output has
/// repaired nothing yet, but prunes every component older than itself.
fn prune_floor(comp: &DiskComponent) -> Timestamp {
    comp.repaired_ts().max(comp.id().min_ts)
}

/// The new repaired timestamp: the maximum timestamp of the unpruned
/// primary-key-index components the candidates were validated against
/// (Section 4.4), never less than the old watermark.
fn new_repaired_ts(unpruned: &[Arc<DiskComponent>], prune_ts: Timestamp) -> Timestamp {
    unpruned
        .iter()
        .map(|c| c.id().max_ts)
        .max()
        .unwrap_or(0)
        .max(prune_ts)
}

/// The validation of one repaired component, against one snapshot of the
/// primary key index's component list. Flushes are not serialized against
/// repairs: were the Bloom pruning, the validation and the new repaired
/// timestamp each to read the live list, a pk component installed in
/// between would be covered by the timestamp without any candidate having
/// been validated against it — and a query pruning by that timestamp would
/// return a stale entry.
struct Validation<'a> {
    storage: &'a Arc<Storage>,
    mode: RepairMode,
    prune_ts: Timestamp,
    /// Components of the snapshot newer than `prune_ts`, newest first.
    unpruned: Vec<Arc<DiskComponent>>,
    /// The whole snapshot, for the deleted-key baseline, which validates
    /// without pruning.
    whole: Option<ComponentList>,
    candidates: Candidates,
}

impl<'a> Validation<'a> {
    fn new(
        storage: &'a Arc<Storage>,
        pk_components: ComponentList,
        prune_ts: Timestamp,
        mode: RepairMode,
    ) -> Self {
        Validation {
            storage,
            mode,
            prune_ts,
            unpruned: unpruned(&pk_components, prune_ts),
            whole: (mode == RepairMode::DeletedKeyBTree).then_some(pk_components),
            candidates: Candidates::default(),
        }
    }

    /// Offers the scanned (non-anti-matter) entry at `position` for
    /// validation. With the Bloom filter optimization, an entry whose
    /// primary key no unpruned component may contain cannot have been
    /// touched since the last repair and is skipped.
    fn consider(
        &mut self,
        key: &[u8],
        ts: Timestamp,
        position: u64,
        report: &mut RepairReport,
    ) -> Result<()> {
        let pk_key = split_sk_pk(key)?.1;
        let bloom_opt = self.mode == RepairMode::PrimaryKeyIndex { bloom_opt: true };
        if bloom_opt && !touched_since(self.storage, &self.unpruned, pk_key, ts) {
            report.skipped_by_bloom += 1;
            return Ok(());
        }
        self.candidates.push(pk_key, ts, position);
        Ok(())
    }

    /// Validates the candidates into `bitmap` and returns the component's
    /// new repaired timestamp.
    fn finish(mut self, bitmap: &AtomicBitmap, report: &mut RepairReport) -> Result<Timestamp> {
        validate_candidates(
            self.storage,
            self.whole.as_deref().unwrap_or(&self.unpruned),
            &mut self.candidates,
            bitmap,
            report,
        )?;
        Ok(new_repaired_ts(&self.unpruned, self.prune_ts))
    }
}

/// Merge repair (Figure 7): merges the secondary components of `range` into
/// one new component while validating all entries.
pub(crate) fn merge_repair(
    sec_tree: &LsmTree,
    pk_tree: &LsmTree,
    range: MergeRange,
    mode: RepairMode,
) -> Result<RepairReport> {
    merge_repair_against(sec_tree, pk_tree.disk_components(), range, mode)
}

/// [`merge_repair`] against one snapshot of the primary key index's
/// component list: everything the repair decides — Bloom pruning,
/// validation, the new repaired timestamp — is derived from it.
fn merge_repair_against(
    sec_tree: &LsmTree,
    pk_components: ComponentList,
    range: MergeRange,
    mode: RepairMode,
) -> Result<RepairReport> {
    let (inputs, mut builder, drop_anti) = sec_tree.merge_start(range, false)?;
    let prune_ts = inputs.iter().map(|c| prune_floor(c)).min().unwrap_or(0);
    let storage = sec_tree.storage();

    let mut report = RepairReport::default();
    let mut validation = Validation::new(storage, pk_components, prune_ts, mode);

    // Scan all merging components (Figure 7 lines 1-7): valid entries go to
    // the new component; (pkey, ts, position) go to the sorter.
    let mut scan = LsmScan::new(
        storage.clone(),
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
        let entry = lent.entry;
        if entry.anti_matter && drop_anti {
            continue;
        }
        report.entries_scanned += 1;
        let position = builder.add_ref(lent.key, entry)?;
        // Anti-matter needs no validation.
        if !entry.anti_matter {
            validation.consider(lent.key, entry.ts, position, &mut report)?;
        }
    }

    let n = builder.num_entries();
    let new_comp = Arc::new(builder.finish()?);
    let bitmap = Arc::new(AtomicBitmap::new(n));
    let repaired_ts = validation.finish(&bitmap, &mut report)?;
    if bitmap.count_set() > 0 {
        new_comp.set_bitmap(bitmap)?;
    }
    new_comp.set_repaired_ts(repaired_ts);

    if mode == RepairMode::DeletedKeyBTree {
        write_deleted_key_btree(sec_tree, &new_comp)?;
    }

    sec_tree.replace_range(range, new_comp, true)?;
    Ok(report)
}

/// Standalone repair (Section 4.4): produces a fresh bitmap for every disk
/// component of the secondary index without merging.
pub(crate) fn standalone_repair(
    sec_tree: &LsmTree,
    pk_tree: &LsmTree,
    mode: RepairMode,
) -> Result<RepairReport> {
    let storage = sec_tree.storage();
    let mut report = RepairReport::default();
    for comp in sec_tree.disk_components().iter() {
        let pk_components = pk_tree.disk_components();
        let mut validation = Validation::new(storage, pk_components, prune_floor(comp), mode);
        if validation.unpruned.is_empty() && pk_tree.mem_len() == 0 {
            continue; // nothing new to validate against
        }
        let old_bitmap = comp.bitmap().map(|b| b.snapshot());
        let bitmap = Arc::new(AtomicBitmap::new(comp.num_entries()));
        let mut scan = comp.btree().scan_all()?;
        while scan.advance()? {
            let (key, raw, position) = scan.entry();
            report.entries_scanned += 1;
            if old_bitmap.as_ref().is_some_and(|old| old.get(position)) {
                bitmap.set(position); // carry over known-invalid bits
                continue;
            }
            let entry = EntryRef::decode(raw)?;
            if !entry.anti_matter {
                validation.consider(key, entry.ts, position, &mut report)?;
            }
        }
        let repaired_ts = validation.finish(&bitmap, &mut report)?;
        comp.set_bitmap(bitmap)?;
        comp.set_repaired_ts(repaired_ts);
    }
    Ok(report)
}

/// Writes the per-component deleted-key B+-tree of AsterixDB's baseline
/// strategy: a separate B+-tree holding the keys invalidated in this
/// component. Its construction I/O is the strategy's extra cost; queries
/// here use the bitmap, so the tree is write-only ballast, as in Figure 15b.
fn write_deleted_key_btree(sec_tree: &LsmTree, comp: &DiskComponent) -> Result<()> {
    let Some(bitmap) = comp.bitmap() else {
        return Ok(());
    };
    let mut builder = lsm_btree::BTreeBuilder::new(sec_tree.storage().clone());
    let mut scan = comp.btree().scan_all()?;
    while scan.advance()? {
        let (key, _, position) = scan.entry();
        if bitmap.get(position) {
            builder.add(key, &[])?;
        }
    }
    builder.finish()?;
    Ok(())
}

/// Brings every secondary index up-to-date with standalone repairs, one
/// index after another (the Figure 20 measurement loop).
pub(crate) fn repair_all_secondaries(
    dataset: &Dataset,
    mode: RepairMode,
) -> Result<Vec<RepairReport>> {
    let pk_tree = dataset
        .pk_index()
        .ok_or_else(|| Error::invalid("index repair requires the primary key index"))?;
    dataset
        .secondaries()
        .iter()
        .map(|sec| standalone_repair(&sec.tree, pk_tree, mode))
        .collect()
}

/// DELI-style primary repair (Section 4.1, evaluated in Figures 20-22):
/// scans the primary index components, finds keys with multiple versions,
/// and emits anti-matter into the secondary indexes for the obsolete ones.
/// When `with_merge` is set, the primary components are also merged into one
/// (DELI piggybacks repair on primary merges).
///
/// Returns the number of obsolete versions repaired.
pub(crate) fn deli_primary_repair(dataset: &Dataset, with_merge: bool) -> Result<u64> {
    let primary = dataset.primary();
    let comps = primary.disk_components();
    if comps.is_empty() {
        return Ok(0);
    }

    // All-versions scan: walk every component's scan in parallel, grouping
    // by key. (LsmScan reconciles versions away, so this needs its own
    // k-way walk over full records — the expensive part DELI pays.)
    let mut scans = Vec::new();
    for c in comps.iter() {
        scans.push(c.btree().scan_all()?);
    }
    let mut heads: Vec<Option<(Key, Vec<u8>, u64)>> = Vec::with_capacity(scans.len());
    for s in &mut scans {
        heads.push(s.next_entry()?);
    }

    let mut repaired = 0u64;
    let ets = dataset.clock().now();
    // Smallest key among heads, until every scan is exhausted.
    while let Some(min_key) = heads.iter().flatten().map(|(k, _, _)| k.clone()).min() {
        // Collect all versions of that key, newest component first
        // (component order in `comps` is newest-first).
        let mut versions: Vec<LsmEntry> = Vec::new();
        for (i, head) in heads.iter_mut().enumerate() {
            if let Some((_, raw, _)) = head.take_if(|(k, _, _)| *k == min_key) {
                versions.push(LsmEntry::decode(&raw)?);
                *head = scans[i].next_entry()?;
            }
        }
        dataset.storage().charge(Event::SortEntry, 1);
        // Newest version (index 0) wins; older record versions are obsolete.
        let newest = &versions[0];
        let newest_record = (!newest.anti_matter)
            .then(|| RecordView::parse(&newest.value))
            .transpose()?;
        for old in &versions[1..] {
            if old.anti_matter {
                continue;
            }
            let old_record = RecordView::parse(&old.value)?;
            repaired += 1;
            let pk = old_record.field(dataset.config().pk_field)?;
            for sec in dataset.secondaries() {
                let old_sk = old_record.field(sec.field)?;
                if let Some(new_rec) = &newest_record {
                    if new_rec.field(sec.field)? == old_sk {
                        continue; // same secondary key: entry still valid
                    }
                }
                sec.tree.put(
                    encode_sk_pk(&old_sk, &pk),
                    LsmEntry::anti_matter_ts(ets),
                    ets,
                );
            }
        }
        // A newest anti-matter version also invalidates nothing extra here:
        // Eager-style deletes already planted secondary anti-matter, and
        // lazy deletes are validated by queries.
    }

    // Flush the anti-matter produced into the secondary memory components,
    // serialized against dataset-wide flushes (a background flush may have
    // these trees' snapshots sealed).
    {
        let _flush = dataset.flush_serialization().lock();
        for sec in dataset.secondaries() {
            sec.tree.flush()?;
        }
    }

    if with_merge {
        // Re-derive the component count under the merge lock: a background
        // merge may have shrunk the list since the repair scan. A dataset
        // whose indexes merge in lockstep merges them all, so the primary
        // never parts from its pk index (nor, under Mutable-bitmap, from
        // the bitmap the two share).
        let _merges = dataset.merge_serialization().lock();
        let n = primary.num_disk_components();
        if n >= 2 {
            let target = if dataset.config().requires_correlated_merges() {
                MergeTarget::Correlated
            } else {
                MergeTarget::Primary
            };
            let range = MergeRange {
                start: 0,
                end: n - 1,
            };
            dataset.execute_merge_plan_locked(&MergePlan { target, range })?;
        }
    }
    Ok(repaired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, SecondaryIndexDef, StrategyKind};
    use lsm_common::{FieldType, Record, Schema, Value};
    use lsm_storage::{Storage, StorageOptions};

    fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
        let schema =
            Schema::new(vec![("id", FieldType::Int), ("location", FieldType::Str)]).unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.strategy = strategy;
        cfg.merge_repair = false; // repairs are explicit in these tests
        cfg.memory_budget = usize::MAX; // flush manually
        cfg.secondary_indexes = vec![SecondaryIndexDef {
            name: "location".into(),
            field: 1,
        }];
        Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
    }

    fn rec(id: i64, loc: &str) -> Record {
        Record::new(vec![Value::Int(id), Value::Str(loc.into())])
    }

    /// Count live entries of the secondary index (respecting bitmaps).
    fn live_secondary_entries(ds: &Dataset) -> u64 {
        let sec = &ds.secondaries()[0].tree;
        let mut scan = sec
            .scan(Bound::Unbounded, Bound::Unbounded, ScanOptions::default())
            .unwrap();
        let mut n = 0;
        while scan.next_entry().unwrap().is_some() {
            n += 1;
        }
        n
    }

    fn obsolete_setup(ds: &Dataset) {
        // 100 inserts, flush; 50 updates changing location, flush.
        for i in 0..100 {
            ds.insert(&rec(i, "CA")).unwrap();
        }
        ds.flush_all().unwrap();
        for i in 0..50 {
            ds.upsert(&rec(i, "NY")).unwrap();
        }
        ds.flush_all().unwrap();
    }

    #[test]
    fn standalone_repair_marks_obsolete_entries() {
        let ds = dataset(StrategyKind::Validation);
        obsolete_setup(&ds);
        // Before repair: 150 secondary entries, 50 obsolete (CA versions of
        // updated records) — but reconciliation cannot see that.
        assert_eq!(live_secondary_entries(&ds), 150);

        let reports = ds.maintenance().repair_all().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].invalidated, 50);
        assert_eq!(live_secondary_entries(&ds), 100);
    }

    /// With more than one secondary index, `repair_all` repairs them one
    /// after another in declaration order: its reports, its cost and the
    /// marks it leaves are those of `repair_index` called on each in turn.
    #[test]
    fn repair_all_repairs_each_secondary_in_turn() {
        let open = || {
            let schema = Schema::new(vec![
                ("id", FieldType::Int),
                ("location", FieldType::Str),
                ("zip", FieldType::Int),
            ])
            .unwrap();
            let mut cfg = DatasetConfig::new(schema, 0);
            cfg.strategy = StrategyKind::Validation;
            cfg.merge_repair = false;
            cfg.memory_budget = usize::MAX;
            cfg.secondary_indexes = vec![
                SecondaryIndexDef {
                    name: "location".into(),
                    field: 1,
                },
                SecondaryIndexDef {
                    name: "zip".into(),
                    field: 2,
                },
            ];
            let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
            let rec = |id: i64, loc: &str, zip: i64| {
                Record::new(vec![
                    Value::Int(id),
                    Value::Str(loc.into()),
                    Value::Int(zip),
                ])
            };
            for i in 0..100 {
                ds.insert(&rec(i, "CA", i % 7)).unwrap();
            }
            ds.flush_all().unwrap();
            for i in 0..50 {
                ds.upsert(&rec(i, "NY", i % 7)).unwrap();
            }
            for i in 50..70 {
                ds.upsert(&rec(i, "CA", 100 + i)).unwrap();
            }
            ds.flush_all().unwrap();
            ds
        };
        let marks = |ds: &Dataset| -> Vec<u64> {
            let marked = |comps: ComponentList| -> u64 {
                comps
                    .iter()
                    .filter_map(|c| c.bitmap())
                    .map(|b| b.count_set())
                    .sum()
            };
            let secondaries = ds.secondaries().iter();
            secondaries
                .map(|sec| marked(sec.tree.disk_components()))
                .collect()
        };
        let cost = |ds: &Dataset, t0: u64, s0| {
            let storage = ds.storage();
            (storage.clock().now_nanos() - t0, storage.stats().since(&s0))
        };
        let (all, each) = (open(), open());
        let (t0, s0) = (all.storage().clock().now_nanos(), all.storage().stats());
        let reports = all.maintenance().repair_all().unwrap();
        let all_cost = cost(&all, t0, s0);
        let (t0, s0) = (each.storage().clock().now_nanos(), each.storage().stats());
        let one_by_one = ["location", "zip"]
            .map(|name| each.maintenance().repair_index(name).unwrap())
            .to_vec();
        let each_cost = cost(&each, t0, s0);
        assert_eq!(reports, one_by_one);
        assert_eq!(all_cost, each_cost);
        assert_eq!(marks(&all), marks(&each));
        assert!(reports.iter().all(|r| r.invalidated > 0), "{reports:?}");
    }

    #[test]
    fn repair_is_idempotent_and_prunes_on_rerun() {
        let ds = dataset(StrategyKind::Validation);
        obsolete_setup(&ds);
        ds.maintenance().repair_all().unwrap();
        // Second repair: repairedTS now prunes everything → no validations
        // beyond carried-over bits, nothing newly invalidated.
        let reports = ds.maintenance().repair_all().unwrap();
        assert_eq!(reports[0].invalidated, 0);
        assert_eq!(live_secondary_entries(&ds), 100);
    }

    #[test]
    fn merge_repair_removes_and_marks() {
        let ds = dataset(StrategyKind::Validation);
        obsolete_setup(&ds);
        let sec = &ds.secondaries()[0].tree;
        let n = sec.num_disk_components();
        assert_eq!(n, 2);
        let report = ds
            .maintenance()
            .plan()
            .with_merge(true)
            .repair_index("location")
            .unwrap();
        assert_eq!(sec.num_disk_components(), 1);
        assert_eq!(report.entries_scanned, 150);
        assert_eq!(report.invalidated, 50);
        assert_eq!(live_secondary_entries(&ds), 100);
        // The repaired timestamp advanced to the newest pk component.
        let comp = &sec.disk_components()[0];
        assert!(comp.repaired_ts() > 0);
    }

    /// Once the primary key index has merged its versions away, a merge
    /// repair of the whole secondary index has more candidates than the
    /// pk index has entries and joins the two instead of probing; it marks
    /// the bits and sets the repaired timestamp that per-key validation does
    /// on the same records with the pk index unmerged. The pk merge leaves
    /// out the oldest component, so it keeps the deletes' anti-matter.
    #[test]
    fn merge_scan_path_used_for_large_candidate_sets() {
        let merge_repair_all = |merge_pk_first: bool| {
            let ds = dataset(StrategyKind::Validation);
            churn(&ds);
            let pk_tree = ds.pk_index().unwrap();
            let last = pk_tree.num_disk_components() - 1;
            if merge_pk_first {
                pk_tree
                    .merge_range(MergeRange {
                        start: 1,
                        end: last,
                    })
                    .unwrap();
            }
            let plan = ds.maintenance().plan().with_merge(true);
            let report = plan.repair_index("location").unwrap();
            let comps = ds.secondaries()[0].tree.disk_components();
            let bitmaps: Vec<_> = comps
                .iter()
                .map(|c| c.bitmap().map(|b| b.snapshot()))
                .collect();
            let repaired_ts: Vec<_> = comps.iter().map(|c| c.repaired_ts()).collect();
            (report, bitmaps, repaired_ts)
        };
        let (join, join_bitmaps, join_ts) = merge_repair_all(true);
        let (per_key, per_key_bitmaps, per_key_ts) = oracle::with(|| merge_repair_all(false));
        assert!(join.used_merge_scan, "{join:?}");
        assert!(!per_key.used_merge_scan, "{per_key:?}");
        assert_eq!(join.pk_tree_probes, 0, "a join probes no tree");
        assert!(join.invalidated > 0, "{join:?}");
        assert_eq!(join.invalidated, per_key.invalidated);
        assert_eq!(join_bitmaps, per_key_bitmaps);
        assert_eq!(join_ts, per_key_ts);
    }

    /// A flush may install a primary-key-index component while a repair
    /// runs. The repair validates against the snapshot it started from, so
    /// the repaired timestamp must come from that snapshot too: covering
    /// the newcomer would let queries prune a component no candidate was
    /// checked against.
    #[test]
    fn repaired_ts_covers_only_the_components_validated_against() {
        repaired_ts_covers_only_its_snapshot();
        oracle::with(repaired_ts_covers_only_its_snapshot);
    }

    fn repaired_ts_covers_only_its_snapshot() {
        let ds = dataset(StrategyKind::Validation);
        for i in 0..100 {
            ds.insert(&rec(i, "CA")).unwrap();
        }
        ds.flush_all().unwrap();
        let pk_tree = ds.pk_index().unwrap();
        let before_flush = pk_tree.disk_components();
        // The racing flush: record 7 moves to NY, which obsoletes (CA, 7).
        ds.upsert(&rec(7, "NY")).unwrap();
        ds.flush_all().unwrap();
        let newcomer = pk_tree.disk_components()[0].clone();

        let sec = &ds.secondaries()[0].tree;
        let report = merge_repair_against(
            sec,
            before_flush,
            MergeRange { start: 0, end: 1 },
            RepairMode::PrimaryKeyIndex { bloom_opt: false },
        )
        .unwrap();
        assert_eq!(report.invalidated, 0, "the update is not in the snapshot");
        let repaired = &sec.disk_components()[0];
        assert!(
            repaired.repaired_ts() < newcomer.id().max_ts,
            "repaired_ts {} covers unvalidated component {:?}",
            repaired.repaired_ts(),
            newcomer.id()
        );
        // (CA, 7) is still in the index; Timestamp validation must still
        // reach the newcomer and reject it.
        let res = ds
            .query("location")
            .eq("CA")
            .index_only()
            .execute()
            .unwrap();
        let mut got: Vec<i64> = res.keys().iter().map(|k| k.as_int().unwrap()).collect();
        got.sort_unstable();
        let want: Vec<i64> = (0..100).filter(|&i| i != 7).collect();
        assert_eq!(got, want);
    }

    /// Runs `repair` on a fresh dataset prepared by `setup` under each way
    /// of validating: point probes with and without the Bloom filter
    /// optimization, the deleted-key baseline — which validates against the
    /// whole primary key index, pruning nothing — and per-key probes with
    /// the optimization. Returns each run's report and secondary bitmaps.
    fn four_ways(
        setup: impl Fn(&Dataset),
        repair: impl Fn(&Dataset, RepairMode) -> RepairReport,
    ) -> Vec<(RepairReport, Vec<Option<lsm_tree::BitmapSnapshot>>)> {
        let run = |mode| {
            let ds = dataset(StrategyKind::Validation);
            setup(&ds);
            let report = repair(&ds, mode);
            let comps = ds.secondaries()[0].tree.disk_components();
            let bitmaps = comps.iter().map(|c| c.bitmap().map(|b| b.snapshot()));
            (report, bitmaps.collect())
        };
        let bloom = RepairMode::PrimaryKeyIndex { bloom_opt: true };
        vec![
            run(RepairMode::PrimaryKeyIndex { bloom_opt: false }),
            run(bloom),
            run(RepairMode::DeletedKeyBTree),
            oracle::with(|| run(bloom)),
        ]
    }

    fn merge_all(ds: &Dataset, mode: RepairMode) -> RepairReport {
        let sec = &ds.secondaries()[0].tree;
        let end = sec.num_disk_components() - 1;
        let pk_components = ds.pk_index().unwrap().disk_components();
        merge_repair_against(sec, pk_components, MergeRange { start: 0, end }, mode).unwrap()
    }

    fn standalone(ds: &Dataset, mode: RepairMode) -> RepairReport {
        standalone_repair(&ds.secondaries()[0].tree, ds.pk_index().unwrap(), mode).unwrap()
    }

    /// Repaired components and a fresh flush: the flush output has repaired
    /// nothing, but none of its entries predates it, so a merge repair of
    /// all three — and a standalone repair of the flush output — prunes
    /// every primary-key-index component but the flush's own. With the
    /// Bloom filter optimization that skips every older entry whose key
    /// the flush did not write; every way of validating marks the same
    /// bits as validating against the whole index.
    #[test]
    fn a_fresh_flush_prunes_the_components_before_it() {
        let setup = |ds: &Dataset| {
            obsolete_setup(ds); // (CA, 0..100), then (NY, 0..50)
            ds.maintenance().repair_all().unwrap();
            for i in 60..80 {
                ds.upsert(&rec(i, "TX")).unwrap();
            }
            ds.flush_all().unwrap();
        };
        for repair in [merge_all, standalone] {
            let runs = four_ways(setup, repair);
            let (bloom, bitmaps) = &runs[1];
            // Unpruned, the 50 NY entries and the CA entries of keys 0..50
            // (the NY flush wrote them) would all be candidates.
            assert!(bloom.skipped_by_bloom >= 70, "{bloom:?}");
            assert!(bloom.invalidated >= 20, "{bloom:?}");
            for (report, other) in &runs {
                assert_eq!(other, bitmaps, "{report:?}");
                assert_eq!(report.invalidated, bloom.invalidated, "{report:?}");
            }
        }
    }

    /// An unrepaired merged component spans the flushes that obsoleted its
    /// older entries: its floor is its oldest entry's timestamp, not its
    /// newest, or the merge repair would prune the primary-key-index
    /// components that hold the newer versions and keep (CA, 0..25) valid.
    #[test]
    fn an_unrepaired_merged_input_prunes_from_its_oldest_entry() {
        let setup = |ds: &Dataset| {
            obsolete_setup(ds); // (CA, 0..100), then (NY, 0..50)
            let sec = &ds.secondaries()[0].tree;
            sec.merge_range(MergeRange { start: 0, end: 1 }).unwrap();
            for i in 25..75 {
                ds.upsert(&rec(i, "TX")).unwrap();
            }
            ds.flush_all().unwrap();
        };
        let runs = four_ways(setup, merge_all);
        let (whole, bitmaps) = &runs[2];
        // CA 0..75 and NY 25..50 are obsolete.
        assert_eq!(whole.invalidated, 100, "{whole:?}");
        for (report, other) in &runs {
            assert_eq!(other, bitmaps, "{report:?}");
            assert_eq!(report.invalidated, whole.invalidated, "{report:?}");
        }
    }

    /// A plan gone stale — its range no longer fits the component list —
    /// is an error to the caller, not a panic on a maintenance worker.
    #[test]
    fn merge_repair_of_a_stale_range_is_an_error() {
        let ds = dataset(StrategyKind::Validation);
        obsolete_setup(&ds);
        let sec = &ds.secondaries()[0].tree;
        sec.merge_range(MergeRange { start: 0, end: 1 }).unwrap();
        let err = merge_repair(
            sec,
            ds.pk_index().unwrap(),
            MergeRange { start: 1, end: 1 },
            RepairMode::PrimaryKeyIndex { bloom_opt: false },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err:?}");
        assert_eq!(sec.num_disk_components(), 1);
    }

    #[test]
    fn bloom_opt_skips_untouched_keys() {
        let ds = dataset(StrategyKind::Validation);
        // Insert 100, flush. Update 10 (so 90 keys untouched afterwards).
        for i in 0..100 {
            ds.insert(&rec(i, "CA")).unwrap();
        }
        ds.flush_all().unwrap();
        // First repair: everything validated once, repairedTS advances past
        // the insert batch.
        ds.maintenance().repair_all().unwrap();
        for i in 0..10 {
            ds.upsert(&rec(i, "NY")).unwrap();
        }
        ds.flush_all().unwrap();
        let reports = ds.maintenance().plan().bloom(true).repair_all().unwrap();
        let r = &reports[0];
        // Most of the 100 old entries skip validation via Bloom filters
        // (false positives allowed).
        assert!(r.skipped_by_bloom >= 80, "skipped {}", r.skipped_by_bloom);
        assert_eq!(live_secondary_entries(&ds), 100);
    }

    #[test]
    fn primary_repair_cleans_secondaries() {
        let ds = dataset(StrategyKind::Validation);
        obsolete_setup(&ds);
        assert_eq!(live_secondary_entries(&ds), 150);
        let repaired = ds.maintenance().repair_primary().unwrap();
        assert_eq!(repaired, 50);
        assert_eq!(live_secondary_entries(&ds), 100);
        // Primary components untouched without the merge flag.
        assert_eq!(ds.primary().num_disk_components(), 2);
        let repaired_again = ds
            .maintenance()
            .plan()
            .with_merge(true)
            .repair_primary()
            .unwrap();
        assert_eq!(repaired_again, 50); // versions still present pre-merge
        assert_eq!(ds.primary().num_disk_components(), 1);
        // After the merge, obsolete versions are physically gone.
        assert_eq!(ds.maintenance().repair_primary().unwrap(), 0);
    }

    /// The facade resolves the DeletedKeyBTree mode from the strategy: the
    /// same merge repair marks the same entries as under Validation and
    /// writes more pages, the deleted-key B+-tree's.
    #[test]
    fn deleted_key_btree_mode_writes_extra_files() {
        let pages_written = |strategy| {
            let ds = dataset(strategy);
            obsolete_setup(&ds);
            let before = ds.storage().stats();
            let plan = ds.maintenance().plan().with_merge(true);
            let report = plan.repair_index("location").unwrap();
            let d = ds.storage().stats().since(&before);
            assert_eq!(report.invalidated, 50);
            assert_eq!(live_secondary_entries(&ds), 100);
            d.pages_written
        };
        let baseline = pages_written(StrategyKind::DeletedKeyBTree);
        let validation = pages_written(StrategyKind::Validation);
        assert!(baseline > validation, "{baseline} vs {validation}");
    }

    #[test]
    fn repair_with_updates_in_memory_component() {
        let ds = dataset(StrategyKind::Validation);
        for i in 0..50 {
            ds.insert(&rec(i, "CA")).unwrap();
        }
        ds.flush_all().unwrap();
        // Updates stay in memory (no flush): disk-level repair cannot see
        // them, so entries stay valid — queries handle them via validation.
        for i in 0..20 {
            ds.upsert(&rec(i, "NY")).unwrap();
        }
        let reports = ds.maintenance().repair_all().unwrap();
        assert_eq!(reports[0].invalidated, 0);
        assert_eq!(live_secondary_entries(&ds), 50 + 20);
    }

    // ---- the sorted walk against per-key validation -------------------------

    /// Six flushes of churn over 400 records: updates that move a record
    /// to another location (obsoleting a secondary entry), updates that
    /// keep it, deletes, and re-inserts — so the pk index has six
    /// components holding several versions of many keys, anti-matter
    /// included, and every secondary component has obsolete entries.
    fn churn(ds: &Dataset) {
        for i in 0..400 {
            ds.insert(&rec(i, "CA")).unwrap();
        }
        ds.flush_all().unwrap();
        for round in 1..6i64 {
            for i in (0..400).filter(|i| i % (round + 1) == 0) {
                match (i + round) % 4 {
                    0 => {
                        ds.delete(&Value::Int(i)).unwrap();
                    }
                    1 => ds.upsert(&rec(i, "CA")).unwrap(),
                    _ => ds
                        .upsert(&rec(i, ["NY", "TX", "WA"][(round % 3) as usize]))
                        .unwrap(),
                }
            }
            ds.flush_all().unwrap();
        }
    }

    /// Everything a repair decides and is billed.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        report: RepairReport,
        /// Per secondary component.
        bitmaps: Vec<Option<lsm_tree::BitmapSnapshot>>,
        repaired_ts: Vec<Timestamp>,
        bloom_checks: u64,
        bloom_negatives: u64,
        cpu_ns: u64,
    }

    /// Runs `repair` on a freshly churned dataset, after one more flush and,
    /// if `repaired_first`, one earlier repair so that repaired timestamps
    /// prune. That flush also inserts 400 new records, so the pk-index
    /// component that pruning leaves outnumbers the candidates of any older
    /// secondary component and validation probes rather than joins.
    fn outcome(repaired_first: bool, repair: impl Fn(&Dataset) -> RepairReport) -> Outcome {
        let ds = dataset(StrategyKind::Validation);
        churn(&ds);
        if repaired_first {
            ds.maintenance().repair_all().unwrap();
        }
        for i in 0..60 {
            ds.upsert(&rec(i * 5, "OR")).unwrap();
        }
        for i in 400..800 {
            ds.insert(&rec(i, "CA")).unwrap();
        }
        ds.flush_all().unwrap();
        let before = ds.storage().stats();
        let report = repair(&ds);
        let billed = ds.storage().stats().since(&before);
        let comps = ds.secondaries()[0].tree.disk_components();
        Outcome {
            report,
            bitmaps: comps
                .iter()
                .map(|c| c.bitmap().map(|b| b.snapshot()))
                .collect(),
            repaired_ts: comps.iter().map(|c| c.repaired_ts()).collect(),
            bloom_checks: billed.bloom_checks,
            bloom_negatives: billed.bloom_negatives,
            cpu_ns: billed.cpu_ns,
        }
    }

    /// Merge repair and standalone repair, with and without the Bloom
    /// filter optimization, decide bit for bit what one search per
    /// candidate and component decided, from the same Bloom probes (the
    /// optimization's too: hashed once per key, billed once, where the
    /// oracle hashes and bills per component) — in one descent per
    /// pk-index leaf visited instead of one per probe. The merge repairs
    /// every component, fresh ones included, so repaired timestamps would
    /// prune it down to the pk-index components that hold its fresh
    /// inputs' own entries, and it would join; it runs unrepaired.
    #[test]
    fn repairs_on_the_sorted_walk_match_per_key_validation() {
        for with_merge in [true, false] {
            for bloom in [false, true] {
                let repair = |ds: &Dataset| {
                    let plan = ds.maintenance().plan().bloom(bloom);
                    plan.with_merge(with_merge)
                        .repair_index("location")
                        .unwrap()
                };
                let walk = outcome(!with_merge, repair);
                let per_key = oracle::with(|| outcome(!with_merge, repair));
                let case = format!("with_merge={with_merge} bloom={bloom}");
                assert!(walk.report.invalidated > 0, "{case}: {walk:?}");
                assert!(!walk.report.used_merge_scan, "{case}");
                assert_eq!(bloom, walk.report.skipped_by_bloom > 0, "{case}");
                // Per key, every probe is its own descent.
                assert_eq!(per_key.report.pk_leaf_visits, per_key.report.pk_tree_probes);
                assert!(
                    walk.report.pk_leaf_visits * 4 < walk.report.pk_tree_probes,
                    "{case}: {walk:?}"
                );
                assert!(
                    walk.cpu_ns < per_key.cpu_ns,
                    "{case}: {} vs {}",
                    walk.cpu_ns,
                    per_key.cpu_ns
                );
                let leaf_visits = walk.report.pk_leaf_visits;
                let same_but = |o: Outcome| Outcome {
                    report: RepairReport {
                        pk_leaf_visits: leaf_visits,
                        ..o.report
                    },
                    cpu_ns: 0,
                    ..o
                };
                assert_eq!(same_but(walk), same_but(per_key), "{case}");
            }
        }
    }

    /// Candidates of one primary key are validated each on its own, so the
    /// unstable sort may leave them in any order: shuffled input, same bits.
    #[test]
    fn equal_key_candidates_validate_alike_in_any_order() {
        let ds = dataset(StrategyKind::Validation);
        obsolete_setup(&ds); // pk 0..50 written at ts ≤ 100, rewritten after
        let storage = ds.storage();
        let pk_components = ds.pk_index().unwrap().disk_components();
        let newest_of_7 = {
            let key = crate::keys::encode_pk(&Value::Int(7));
            oracle::newest_version_among(storage, &pk_components, &key, |_| true)
                .unwrap()
                .0
                .unwrap()
                .ts
        };
        // (pk, ts, position): five candidates of pk 7 on both sides of its
        // newest version, between candidates of other keys.
        let triples: Vec<(i64, Timestamp, u64)> = vec![
            (3, 1, 0),
            (7, newest_of_7 - 1, 1),
            (7, newest_of_7, 2),
            (7, 1, 3),
            (7, newest_of_7 + 1, 4),
            (7, 2, 5),
            (60, 1, 6),
            (60, u64::MAX - 1, 7),
        ];
        let validate = |order: &[usize]| {
            let mut candidates = Candidates::default();
            for &i in order {
                let (pk, ts, position) = triples[i];
                candidates.push(&crate::keys::encode_pk(&Value::Int(pk)), ts, position);
            }
            let bitmap = AtomicBitmap::new(triples.len() as u64);
            let mut report = RepairReport::default();
            validate_candidates(
                storage,
                &pk_components,
                &mut candidates,
                &bitmap,
                &mut report,
            )
            .unwrap();
            assert_eq!((report.keys_validated, report.invalidated), (8, 5));
            (0..bitmap.len())
                .filter(|&i| bitmap.get(i))
                .collect::<Vec<u64>>()
        };
        let want = vec![0, 1, 3, 5, 6];
        for order in [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [7, 6, 5, 4, 3, 2, 1, 0],
            [4, 2, 7, 1, 0, 5, 3, 6],
            [5, 3, 1, 6, 2, 4, 0, 7],
        ] {
            assert_eq!(validate(&order), want, "{order:?}");
        }
    }
}
