//! Point lookups: single, naive-sorted, and batched (Section 3.2).
//!
//! The paper's central query-processing contribution is an efficient way to
//! fetch many records by primary key after a secondary-index search:
//!
//! * **naive**: keys are sorted, but each key is probed through all LSM
//!   components before moving to the next key — the device head bounces
//!   between component files, turning every read into a random I/O;
//! * **batched**: keys are split into batches and, per batch, components
//!   are probed *one at a time*, newest to oldest, each component's pages
//!   being touched in ascending key order — sequential where density allows;
//! * per-component probes optionally use the **stateful cursor** with
//!   exponential search, and Bloom filters (standard or **blocked**) gate
//!   every component probe;
//! * **component-ID propagation** ("pID", after Jia): a per-key timestamp
//!   interval (the ID of the secondary-index component the key was found
//!   in) prunes primary components whose ID interval is disjoint.
//!
//! Every single-key entry point here is the memory probe plus one shared
//! walk over an immutable snapshot of the component list (`newest_on_disk`):
//! the key is hashed once for all Bloom filters, and the probes' simulated
//! cost and counters are applied per lookup, not per component.

use crate::component::{BloomTally, DiskComponent};
use crate::component_id::ComponentId;
use crate::entry::LsmEntry;
use crate::tree::LsmTree;
use lsm_bloom::KeyHash;
use lsm_btree::StatefulCursor;
use lsm_common::{Error, Key, Result, Timestamp};
use lsm_storage::Storage;
use std::sync::Arc;

/// Options for [`lookup_sorted`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LookupOptions<'a> {
    /// Probe components one at a time per batch (vs per key).
    pub batched: bool,
    /// Keys per batch when `batched` (0 = one single batch).
    pub keys_per_batch: usize,
    /// Use the stateful B+-tree cursor with exponential search.
    pub stateful: bool,
    /// Per-key component-ID hints, parallel to the key slice ("pID").
    /// A component is skipped for a key when their intervals are disjoint.
    pub id_hints: Option<&'a [ComponentId]>,
}

/// Result of a sorted multi-key lookup: `(index into the key slice, entry)`
/// for every key resolved to a live value, in retrieval order (not
/// necessarily key order when batching).
pub type FoundEntries = Vec<(usize, LsmEntry)>;

/// The newest disk version of a key: the entry, its ordinal, and the
/// component (borrowed from the caller's snapshot) it was found in.
type DiskHit<'c> = (&'c Arc<DiskComponent>, LsmEntry, u64);

/// The one per-key walk every point lookup is built on: `components`
/// newest → oldest, skipping those `eligible` rejects (unprobed and
/// unbilled), gating each B+-tree search by the component's Bloom filter,
/// stopping at the first component that holds `key`.
///
/// The key is hashed once for all filters, and the probes' simulated cost
/// and counters are tallied and applied once before each tree search and
/// once at the end — the same totals as billing probe by probe.
fn newest_on_disk<'c>(
    storage: &Storage,
    components: &'c [Arc<DiskComponent>],
    key: &[u8],
    eligible: impl Fn(&DiskComponent) -> bool,
) -> Result<Option<DiskHit<'c>>> {
    let hash = KeyHash::new(key);
    let mut tally = BloomTally::default();
    for comp in components {
        if !eligible(comp) || !comp.bloom_probe(hash, &mut tally) {
            continue;
        }
        tally.apply(storage);
        if let Some((entry, ordinal)) = comp.search(key)? {
            return Ok(Some((comp, entry, ordinal)));
        }
    }
    tally.apply(storage);
    Ok(None)
}

/// Looks up one key: memory component first, then disk components newest to
/// oldest, gated by Bloom filters. Returns the newest version — which may
/// be an anti-matter entry; callers decide what deletion means. Entries
/// invalidated by a validity bitmap are treated as deleted (`None`).
pub fn point_lookup(tree: &LsmTree, key: &[u8]) -> Result<Option<LsmEntry>> {
    if let Some(e) = tree.mem_get(key) {
        return Ok(Some(e));
    }
    let components = tree.disk_components();
    let hit = newest_on_disk(tree.storage(), &components, key, |_| true)?;
    Ok(hit.and_then(|(comp, entry, ordinal)| comp.is_valid(ordinal).then_some(entry)))
}

/// The newest version of `key` among components strictly newer than
/// `prune_ts` (plus the memory component). This is the primary-key-index
/// probe used by Timestamp Validation and index repair (Section 4.3/4.4):
/// components with `maxTS <= prune_ts` are pruned.
pub fn newest_version_after(
    tree: &LsmTree,
    key: &[u8],
    prune_ts: Timestamp,
) -> Result<Option<LsmEntry>> {
    if let Some(e) = tree.mem_get(key) {
        return Ok(Some(e));
    }
    newest_disk_version_after(tree, key, prune_ts)
}

/// Like [`newest_version_after`] but searching disk components only —
/// index repair (Section 4.4) validates against flushed state and advances
/// the repaired timestamp to the newest unpruned disk component.
pub fn newest_disk_version_after(
    tree: &LsmTree,
    key: &[u8],
    prune_ts: Timestamp,
) -> Result<Option<LsmEntry>> {
    let components = tree.disk_components();
    let hit = newest_on_disk(tree.storage(), &components, key, |comp| {
        !comp.id().at_or_before(prune_ts)
    })?;
    Ok(hit.map(|(_, entry, _)| entry))
}

/// The newest version of `key` among `components` (newest first) — the
/// probes of [`newest_disk_version_after`] over a component list the
/// caller has snapshotted and pruned once, for the many keys of one index
/// repair.
pub fn newest_version_among(
    storage: &Storage,
    components: &[Arc<DiskComponent>],
    key: &[u8],
) -> Result<Option<LsmEntry>> {
    let hit = newest_on_disk(storage, components, key, |_| true)?;
    Ok(hit.map(|(_, entry, _)| entry))
}

/// Locates the valid (bitmap-live, non-anti-matter) disk entry for `key`,
/// returning its component and ordinal — the Mutable-bitmap strategy's
/// delete/upsert probe (Section 5.2): "search the primary key index to
/// locate the position of the deleted key".
pub fn locate_valid(
    tree: &LsmTree,
    key: &[u8],
) -> Result<Option<(Arc<DiskComponent>, u64, LsmEntry)>> {
    let components = tree.disk_components();
    let hit = newest_on_disk(tree.storage(), &components, key, |_| true)?;
    // An invalidated or anti-matter newest version means deleted already;
    // older versions are stale.
    Ok(hit
        .filter(|(comp, entry, ordinal)| comp.is_valid(*ordinal) && !entry.anti_matter)
        .map(|(comp, entry, ordinal)| (comp.clone(), ordinal, entry)))
}

/// Fetches many keys, which must be sorted ascending (repeats allowed;
/// [`Error::InvalidArgument`] otherwise). See [`LookupOptions`].
///
/// The memory component is read live through `tree` and the disk-component
/// list is captured *after* the memory pass, so an entry mid-flush is seen
/// in memory or on disk (never neither) — which is why concurrent chunk
/// fetches of one query need no shared snapshot. Every call builds its own
/// per-component stateful cursors — concurrent callers (query partitions
/// fetching their own sorted chunks) share no cursor state.
pub fn lookup_sorted(
    tree: &LsmTree,
    keys: &[Key],
    opts: &LookupOptions<'_>,
) -> Result<FoundEntries> {
    let mut found: FoundEntries = Vec::new();
    if keys.is_empty() {
        return Ok(found);
    }
    // The stateful cursor only moves forward: a key behind its position
    // would be reported absent, so order is checked, not assumed.
    if !keys.is_sorted() {
        return Err(Error::invalid("lookup_sorted: keys must be ascending"));
    }
    // The memory component is always checked first (it is the newest);
    // the disk list is captured after, closing the flush-install window.
    let mut unresolved: Vec<usize> = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        match tree.mem_get(key) {
            Some(e) if e.anti_matter => {} // deleted: resolved, no result
            Some(e) => found.push((i, e)),
            None => unresolved.push(i),
        }
    }
    let components = tree.disk_components();
    let storage = tree.storage();
    if opts.batched {
        let batch = if opts.keys_per_batch == 0 {
            unresolved.len().max(1)
        } else {
            opts.keys_per_batch
        };
        for chunk in unresolved.chunks(batch) {
            lookup_batch(storage, keys, chunk, &components, opts, &mut found)?;
        }
    } else {
        // Naive: per key, walk the components newest → oldest.
        for &i in &unresolved {
            let hit = newest_on_disk(storage, &components, &keys[i], |comp| {
                opts.id_hints
                    .is_none_or(|hints| comp.id().overlaps(&hints[i]))
            })?;
            // Found means resolved: live, deleted, or invalidated.
            if let Some((comp, entry, ordinal)) = hit {
                if comp.is_valid(ordinal) && !entry.anti_matter {
                    found.push((i, entry));
                }
            }
        }
    }
    Ok(found)
}

/// One batch of the batched algorithm (Section 3.2): probe each component
/// once, in ascending key order, dropping resolved keys as we go.
fn lookup_batch(
    storage: &Storage,
    keys: &[Key],
    batch: &[usize],
    components: &[Arc<DiskComponent>],
    opts: &LookupOptions<'_>,
    found: &mut FoundEntries,
) -> Result<()> {
    /// Marks a slot of `remaining` whose key a component resolved.
    const RESOLVED: usize = usize::MAX;
    // Hashed once per batch; `remaining` holds positions into `batch`.
    let hashes: Vec<KeyHash> = batch.iter().map(|&i| KeyHash::new(&keys[i])).collect();
    let mut remaining: Vec<usize> = (0..batch.len()).collect();
    // Slots of `remaining` whose key passed the component's filter.
    let mut positives: Vec<usize> = Vec::new();
    for comp in components {
        if remaining.is_empty() {
            break;
        }
        // Bloom pre-pass: every key that survives component-ID pruning is
        // probed (pruned keys never are, so the bloom-check stats match
        // the naive path) and the component's probes are billed together.
        // Most verdicts are negative, so the B+-tree probe loop below runs
        // over the positives alone.
        let mut tally = BloomTally::default();
        positives.clear();
        for (slot, &j) in remaining.iter().enumerate() {
            if opts
                .id_hints
                .is_none_or(|hints| comp.id().overlaps(&hints[batch[j]]))
                && comp.bloom_probe(hashes[j], &mut tally)
            {
                positives.push(slot);
            }
        }
        tally.apply(storage);
        let mut cursor = opts.stateful.then(|| StatefulCursor::new(comp.btree()));
        let mut resolved = false;
        for &slot in &positives {
            let i = batch[remaining[slot]];
            let hit = match &mut cursor {
                Some(c) => c.seek_pinned(&keys[i])?,
                None => comp.btree().search_pinned(&keys[i])?,
            };
            if let Some((raw, ordinal)) = hit {
                let entry = LsmEntry::decode_slice(raw)?;
                if comp.is_valid(ordinal) && !entry.anti_matter {
                    found.push((i, entry));
                }
                // resolved either way: newest version seen
                remaining[slot] = RESOLVED;
                resolved = true;
            }
        }
        if resolved {
            remaining.retain(|&j| j != RESOLVED);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::AtomicBitmap;
    use crate::tree::{BuildOptions, ComponentBuilder, LsmOptions, LsmTree};
    use lsm_bloom::{build_filter, BloomFilter, BloomKind};
    use lsm_storage::{Storage, StorageOptions};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(i: u32) -> Key {
        format!("k{i:06}").into_bytes()
    }

    /// Three disk components + a memtable:
    ///   comp ids 1-300 (keys 0..300), 301-400 (100..200 overwritten),
    ///   401-450 (250..300 deleted), mem: key 0 overwritten.
    fn sample_tree() -> LsmTree {
        let t = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let mut ts = 1;
        for i in 0..300 {
            t.put(key(i), LsmEntry::put(b"v1".to_vec()), ts);
            ts += 1;
        }
        t.flush().unwrap();
        for i in 100..200 {
            t.put(key(i), LsmEntry::put(b"v2".to_vec()), ts);
            ts += 1;
        }
        t.flush().unwrap();
        for i in 250..300 {
            t.put(key(i), LsmEntry::anti_matter(), ts);
            ts += 1;
        }
        t.flush().unwrap();
        t.put(key(0), LsmEntry::put(b"mem".to_vec()), ts);
        t
    }

    #[test]
    fn point_lookup_sees_newest_version() {
        let t = sample_tree();
        assert_eq!(point_lookup(&t, &key(0)).unwrap().unwrap().value, b"mem");
        assert_eq!(point_lookup(&t, &key(50)).unwrap().unwrap().value, b"v1");
        assert_eq!(point_lookup(&t, &key(150)).unwrap().unwrap().value, b"v2");
        assert!(point_lookup(&t, &key(270)).unwrap().unwrap().anti_matter);
        assert!(point_lookup(&t, &key(999)).unwrap().is_none());
    }

    fn check_all_modes(t: &LsmTree, keys: Vec<Key>, expect: &[(u32, &[u8])]) {
        for (batched, stateful) in [(false, false), (true, false), (true, true)] {
            let opts = LookupOptions {
                batched,
                stateful,
                keys_per_batch: 7,
                id_hints: None,
            };
            let mut got: Vec<(Key, Vec<u8>)> = lookup_sorted(t, &keys, &opts)
                .unwrap()
                .into_iter()
                .map(|(i, e)| (keys[i].clone(), e.value.into_bytes()))
                .collect();
            got.sort();
            let mut want: Vec<(Key, Vec<u8>)> =
                expect.iter().map(|(i, v)| (key(*i), v.to_vec())).collect();
            want.sort();
            assert_eq!(got, want, "batched={batched} stateful={stateful}");
        }
    }

    #[test]
    fn lookup_sorted_modes_agree() {
        let t = sample_tree();
        let keys: Vec<Key> = vec![
            key(0),   // mem version
            key(50),  // v1
            key(120), // v2
            key(260), // deleted
            key(999), // absent
        ];
        check_all_modes(&t, keys, &[(0, b"mem"), (50, b"v1"), (120, b"v2")]);
    }

    #[test]
    fn batched_does_fewer_random_reads_than_naive() {
        // Keys striped across 4 components (key i lives in component i % 4),
        // so a sorted probe stream alternates between component files under
        // the naive algorithm but walks each file in order when batched —
        // the exact effect of Section 3.2 / Figure 12.
        let t = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let n = 2000u32;
        let mut ts = 1;
        for stripe in 0..4 {
            for i in (0..n).filter(|i| i % 4 == stripe) {
                t.put(key(i), LsmEntry::put(vec![b'x'; 100]), ts);
                ts += 1;
            }
            t.flush().unwrap();
        }
        let keys: Vec<Key> = (0..n).map(key).collect();
        let s = t.storage().clone();

        s.clear_cache();
        let before = s.stats();
        let res = lookup_sorted(&t, &keys, &LookupOptions::default()).unwrap();
        assert_eq!(res.len(), n as usize);
        let naive = s.stats().since(&before);

        s.clear_cache();
        let before = s.stats();
        let res = lookup_sorted(
            &t,
            &keys,
            &LookupOptions {
                batched: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.len(), n as usize);
        let batched = s.stats().since(&before);

        assert!(
            batched.rand_reads * 2 < naive.rand_reads,
            "batched {} vs naive {}",
            batched.rand_reads,
            naive.rand_reads
        );
        // Batching changes the ORDER of page accesses, not the pages;
        // leaf-page volume is the same (router pages may differ via cache).
        assert!(batched.seq_reads > naive.seq_reads);
    }

    #[test]
    fn id_hints_prune_components() {
        let t = sample_tree();
        let s = t.storage().clone();
        // Key 50 only exists in component 1-300; hint it tightly so the
        // other components are pruned without bloom checks.
        let keys = vec![key(50)];
        let hints = vec![ComponentId::new(10, 20)];
        let before = s.stats();
        let res = lookup_sorted(
            &t,
            &keys,
            &LookupOptions {
                batched: true,
                id_hints: Some(&hints),
                ..Default::default()
            },
        )
        .unwrap();
        let d = s.stats().since(&before);
        assert_eq!(res.len(), 1);
        // Only the one overlapping component was bloom-checked.
        assert_eq!(d.bloom_checks, 1);
    }

    #[test]
    fn newest_version_after_prunes_old_components() {
        let t = sample_tree();
        // Key 50 was written at ts 51 in component 1-300. Pruning at
        // ts >= 300 hides it.
        assert!(newest_version_after(&t, &key(50), 300).unwrap().is_none());
        assert!(newest_version_after(&t, &key(50), 0).unwrap().is_some());
        // Key 150's newest version (ts ~ 351) survives pruning at 300.
        let e = newest_version_after(&t, &key(150), 300).unwrap().unwrap();
        assert_eq!(e.value, b"v2");
        // Mem entries are always visible.
        assert!(newest_version_after(&t, &key(0), u64::MAX)
            .unwrap()
            .is_some());
    }

    #[test]
    fn locate_valid_finds_live_disk_entries() {
        let t = sample_tree();
        let (comp, ordinal, e) = locate_valid(&t, &key(150)).unwrap().unwrap();
        assert_eq!(e.value, b"v2");
        assert!(comp.is_valid(ordinal));
        // Deleted key: the anti-matter entry is newest → None.
        assert!(locate_valid(&t, &key(260)).unwrap().is_none());
        assert!(locate_valid(&t, &key(12345)).unwrap().is_none());
    }

    #[test]
    fn locate_valid_respects_bitmaps() {
        let t = sample_tree();
        let (comp, ordinal, _) = locate_valid(&t, &key(40)).unwrap().unwrap();
        let bm = Arc::new(crate::bitmap::AtomicBitmap::new(comp.num_entries()));
        bm.set(ordinal);
        comp.set_bitmap(bm).unwrap();
        assert!(locate_valid(&t, &key(40)).unwrap().is_none());
        // point_lookup treats the invalidated entry as deleted too.
        assert!(point_lookup(&t, &key(40)).unwrap().is_none());
    }

    // ---- differential + pinned-cost tests ----------------------------------

    /// Bloom rate of the generated trees: high, so false positives (a
    /// probe that passes the filter and misses the B+-tree) are common.
    const FPR: f64 = 0.2;
    /// Generated keys are `[k]` for `k` below this; `[k + KEYS]` is absent.
    const KEYS: u8 = 48;

    /// One generated source: `(key, anti-matter?, bitmap bit set?)` per
    /// entry, keys from a small domain so sources overlap heavily.
    type SourceSpec = Vec<(u8, bool, bool)>;

    fn arb_sources() -> impl Strategy<Value = Vec<SourceSpec>> {
        let entry = (0..KEYS, 0..4u8, 0..5u8).prop_map(|(k, anti, dead)| (k, anti == 0, dead == 0));
        proptest::collection::vec(proptest::collection::vec(entry, 0..24), 1..41)
    }

    /// The model's view of one entry of one source.
    #[derive(Debug, Clone)]
    struct Row {
        entry: LsmEntry,
        ordinal: u64,
        dead: bool,
    }

    /// A generated tree next to what the model knows of it. Disk source
    /// `rank` (0 = newest) has ID `(10·age + 1, 10·age + 10)` where `age`
    /// counts from the oldest, and `filters[rank]` probes exactly like the
    /// component's own Bloom filter (same kind, sizing and keys).
    struct Fixture {
        tree: LsmTree,
        mem: BTreeMap<Key, LsmEntry>,
        disk: Vec<BTreeMap<Key, Row>>,
        filters: Vec<Box<dyn BloomFilter>>,
    }

    fn disk_id(age: usize) -> ComponentId {
        ComponentId::new(10 * age as u64 + 1, 10 * age as u64 + 10)
    }

    fn fixture(specs: &[SourceSpec], with_mem: bool, kind: BloomKind) -> Fixture {
        let tree = LsmTree::new(
            Storage::new(StorageOptions::test()),
            LsmOptions {
                bloom_kind: kind,
                bloom_fpr: FPR,
                ..LsmOptions::default()
            },
        );
        let mut fx = Fixture {
            tree,
            mem: BTreeMap::new(),
            disk: Vec::new(),
            filters: Vec::new(),
        };
        let (mem_spec, disk_specs) = specs.split_at(usize::from(with_mem));
        // Oldest first, so `push_newest` leaves rank 0 in front.
        for (age, spec) in disk_specs.iter().rev().enumerate() {
            let distinct: BTreeMap<u8, (bool, bool)> = spec
                .iter()
                .map(|&(k, anti, dead)| (k, (anti, dead)))
                .collect();
            let id = disk_id(age);
            let mut builder = ComponentBuilder::new(
                fx.tree.storage().clone(),
                id,
                BuildOptions {
                    bloom_kind: kind,
                    bloom_fpr: FPR,
                    expected_keys: distinct.len(),
                    ..BuildOptions::default()
                },
            )
            .unwrap();
            let mut filter = build_filter(kind, distinct.len(), FPR);
            let mut rows = BTreeMap::new();
            let bitmap = AtomicBitmap::new(distinct.len() as u64);
            for (ordinal, (k, (anti, dead))) in distinct.into_iter().enumerate() {
                let entry = if anti {
                    LsmEntry::anti_matter_ts(id.max_ts)
                } else {
                    LsmEntry::put_ts(vec![age as u8, k], id.max_ts)
                };
                builder.add(&[k], &entry).unwrap();
                filter.insert(&[k]);
                if dead {
                    bitmap.set(ordinal as u64);
                }
                let ordinal = ordinal as u64;
                rows.insert(
                    vec![k],
                    Row {
                        entry,
                        ordinal,
                        dead,
                    },
                );
            }
            let comp = Arc::new(builder.finish().unwrap());
            if rows.values().any(|r| r.dead) {
                comp.set_bitmap(Arc::new(bitmap)).unwrap();
            }
            fx.tree.push_newest(comp);
            fx.disk.insert(0, rows);
            fx.filters.insert(0, filter);
        }
        let mem_ts = 10 * disk_specs.len() as u64 + 5;
        for &(k, anti, _) in mem_spec.iter().flatten() {
            let entry = if anti {
                LsmEntry::anti_matter_ts(mem_ts)
            } else {
                LsmEntry::put_ts(vec![0xEE, k], mem_ts)
            };
            fx.tree.put(vec![k], entry.clone(), mem_ts);
            fx.mem.insert(vec![k], entry);
        }
        fx
    }

    impl Fixture {
        /// The disk components a walk for some key may enter, as ranks.
        fn eligible(&self, keep: impl Fn(ComponentId) -> bool) -> Vec<usize> {
            let n = self.disk.len();
            (0..n).filter(|&rank| keep(disk_id(n - 1 - rank))).collect()
        }

        /// The model: insert the eligible sources oldest first; what is
        /// left under `key` is its newest version and where it lives.
        fn newest_on_disk(&self, key: &Key, ranks: &[usize]) -> Option<(usize, Row)> {
            let mut model: BTreeMap<&Key, (usize, &Row)> = BTreeMap::new();
            for &rank in ranks.iter().rev() {
                for (k, row) in &self.disk[rank] {
                    model.insert(k, (rank, row));
                }
            }
            model.get(key).map(|&(rank, row)| (rank, row.clone()))
        }

        /// What `lookup_sorted` owes for `keys`: `(index, entry)` of every
        /// key whose newest eligible version is live.
        fn sorted_model(&self, keys: &[Key], hints: Option<&[ComponentId]>) -> FoundEntries {
            let mut want = FoundEntries::new();
            for (i, key) in keys.iter().enumerate() {
                if let Some(e) = self.mem.get(key) {
                    if !e.anti_matter {
                        want.push((i, e.clone()));
                    }
                    continue;
                }
                let ranks = self.eligible(|id| hints.is_none_or(|h| id.overlaps(&h[i])));
                if let Some((_, row)) = self.newest_on_disk(key, &ranks) {
                    if !row.dead && !row.entry.anti_matter {
                        want.push((i, row.entry));
                    }
                }
            }
            want
        }
    }

    /// One pID hint per key of [`all_keys`], from generated `(start, span)`.
    fn arb_hints() -> impl Strategy<Value = Vec<ComponentId>> {
        let hint =
            (0..420u64, 0..60u64).prop_map(|(lo, len)| ComponentId::new(lo + 1, lo + 1 + len));
        proptest::collection::vec(hint, 2 * KEYS as usize)
    }

    fn all_keys() -> Vec<Key> {
        (0..2 * KEYS).map(|k| vec![k]).collect()
    }

    fn sorted_by_index(mut found: FoundEntries) -> FoundEntries {
        found.sort_by_key(|(i, _)| *i);
        found
    }

    const SORTED_MODES: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every lookup entry point against the `BTreeMap` model, over
        // present, overwritten, deleted, invalidated and absent keys.
        #[test]
        fn lookup_matches_btreemap_model(
            specs in arb_sources(),
            with_mem in any::<bool>(),
            blocked in any::<bool>(),
            prune_age in 0..42usize,
            hints in arb_hints(),
            keys_per_batch in 0..9usize,
        ) {
            let kind = if blocked { BloomKind::Blocked } else { BloomKind::Standard };
            let fx = fixture(&specs, with_mem, kind);
            let t = &fx.tree;
            let keys = all_keys();
            let prune_ts = 10 * prune_age as u64 + 3; // mid-interval: never a boundary
            let every = fx.eligible(|_| true);
            let unpruned = fx.eligible(|id| !id.at_or_before(prune_ts));

            for key in &keys {
                let newest = fx.newest_on_disk(key, &every);
                let want = match fx.mem.get(key) {
                    Some(e) => Some(e.clone()),
                    None => newest.clone().filter(|(_, row)| !row.dead).map(|(_, row)| row.entry),
                };
                prop_assert_eq!(point_lookup(t, key).unwrap(), want);

                let want = newest
                    .filter(|(_, row)| !row.dead && !row.entry.anti_matter)
                    .map(|(rank, row)| (disk_id(fx.disk.len() - 1 - rank), row.ordinal, row.entry));
                let got = locate_valid(t, key).unwrap().map(|(c, ord, e)| (c.id(), ord, e));
                prop_assert_eq!(got, want);

                let on_disk = fx.newest_on_disk(key, &unpruned).map(|(_, row)| row.entry);
                prop_assert_eq!(
                    newest_disk_version_after(t, key, prune_ts).unwrap(),
                    on_disk.clone()
                );
                let want = fx.mem.get(key).cloned().or(on_disk);
                prop_assert_eq!(newest_version_after(t, key, prune_ts).unwrap(), want);
            }

            for id_hints in [None, Some(hints.as_slice())] {
                let want = fx.sorted_model(&keys, id_hints);
                for (batched, stateful) in SORTED_MODES {
                    let opts = LookupOptions { batched, stateful, keys_per_batch, id_hints };
                    let got = sorted_by_index(lookup_sorted(t, &keys, &opts).unwrap());
                    prop_assert_eq!(&got, &want, "batched={} stateful={}", batched, stateful);
                }
            }
        }

        // The bill of a lookup, pinned: one memtable op per memory probe,
        // and per key a walk newest → oldest over the eligible components
        // that pays one Bloom probe (k misses for a standard filter, one
        // miss + k − 1 hits for a blocked one) per component entered, one
        // tree search per probe that passes, and stops at the first hit.
        #[test]
        fn lookup_cost_is_pinned(
            specs in arb_sources(),
            with_mem in any::<bool>(),
            blocked in any::<bool>(),
            prune_age in 0..42usize,
            hints in arb_hints(),
        ) {
            let kind = if blocked { BloomKind::Blocked } else { BloomKind::Standard };
            let fx = fixture(&specs, with_mem, kind);
            let t = &fx.tree;
            let s = t.storage().clone();
            let cpu = *s.cpu();
            let keys = all_keys();
            let comps = t.disk_components();
            let probe_ns = |f: &dyn BloomFilter| {
                let k = u64::from(f.num_probes());
                if f.is_blocked() {
                    cpu.bloom_probe_miss_ns + (k - 1) * cpu.bloom_probe_hit_ns
                } else {
                    k * cpu.bloom_probe_miss_ns
                }
            };
            // (cpu_ns, bloom_checks, bloom_negatives) of one key's walk.
            let walk = |key: &Key, ranks: &[usize]| {
                let mut bill = (0u64, 0u64, 0u64);
                for &rank in ranks {
                    let filter = fx.filters[rank].as_ref();
                    bill.0 += probe_ns(filter);
                    bill.1 += 1;
                    if !filter.may_contain(key) {
                        bill.2 += 1;
                        continue;
                    }
                    let before = s.stats().cpu_ns;
                    let hit = comps[rank].search(key).unwrap();
                    bill.0 += s.stats().cpu_ns - before;
                    if hit.is_some() {
                        break;
                    }
                }
                bill
            };
            let measure = |run: &dyn Fn()| {
                let before = s.stats();
                run();
                let d = s.stats().since(&before);
                (d.cpu_ns, d.bloom_checks, d.bloom_negatives)
            };
            let add = |a: (u64, u64, u64), b: (u64, u64, u64)| (a.0 + b.0, a.1 + b.1, a.2 + b.2);
            let mem_op = (cpu.memtable_op_ns, 0, 0);

            let prune_ts = 10 * prune_age as u64 + 3;
            let every = fx.eligible(|_| true);
            let unpruned = fx.eligible(|id| !id.at_or_before(prune_ts));
            for key in &keys {
                let on_disk = walk(key, &every);
                let want = if fx.mem.contains_key(key) { mem_op } else { add(mem_op, on_disk) };
                prop_assert_eq!(measure(&|| { point_lookup(t, key).unwrap(); }), want);
                prop_assert_eq!(measure(&|| { locate_valid(t, key).unwrap(); }), on_disk);
                let want = walk(key, &unpruned);
                let got = measure(&|| { newest_disk_version_after(t, key, prune_ts).unwrap(); });
                prop_assert_eq!(got, want);
            }

            for id_hints in [None, Some(hints.as_slice())] {
                let mut want = (0, 0, 0);
                for (i, key) in keys.iter().enumerate() {
                    want = add(want, mem_op);
                    if !fx.mem.contains_key(key) {
                        let ranks = fx.eligible(|id| id_hints.is_none_or(|h| id.overlaps(&h[i])));
                        want = add(want, walk(key, &ranks));
                    }
                }
                for (batched, stateful) in SORTED_MODES {
                    let opts = LookupOptions { batched, stateful, keys_per_batch: 7, id_hints };
                    let got = measure(&|| { lookup_sorted(t, &keys, &opts).unwrap(); });
                    if stateful {
                        // The cursor searches leaves its own way; the
                        // filters it passes through are the same.
                        prop_assert_eq!((got.1, got.2), (want.1, want.2));
                    } else {
                        prop_assert_eq!(got, want, "batched={}", batched);
                    }
                }
            }
        }
    }

    // ---- component-list snapshots -------------------------------------------

    /// Readers looking up a fixed key set while a writer overwrites,
    /// flushes and merges never miss a key: a lookup runs against the
    /// memory component plus one immutable component list, whatever the
    /// writer installs meanwhile. The writer starts each round only after
    /// a reader finished another pass, so every round overlaps lookups.
    #[test]
    fn lookups_never_miss_a_key_while_flushes_and_merges_swap_the_list() {
        const N: u32 = 300;
        const ROUNDS: u32 = 12;
        let t = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let mut ts = 0u64;
        let write = |lo: u32, hi: u32, ts: &mut u64| {
            for i in lo..hi {
                *ts += 1;
                t.put(
                    key(i),
                    LsmEntry::put_ts(ts.to_be_bytes().to_vec(), *ts),
                    *ts,
                );
            }
        };
        for third in 0..3 {
            write(third * N / 3, (third + 1) * N / 3, &mut ts);
            t.flush().unwrap();
        }
        let keys: Vec<Key> = (0..N).map(key).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (pass_tx, pass_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            for reader in 0..2 {
                let (t, keys, done, pass_tx) = (&t, &keys, &done, pass_tx.clone());
                scope.spawn(move || {
                    while !done.load(std::sync::atomic::Ordering::SeqCst) {
                        for k in keys {
                            let e = point_lookup(t, k).unwrap();
                            assert!(e.is_some_and(|e| !e.anti_matter), "reader {reader} missed");
                        }
                        for (batched, stateful) in SORTED_MODES {
                            let opts = LookupOptions {
                                batched,
                                stateful,
                                keys_per_batch: 64,
                                id_hints: None,
                            };
                            let found = lookup_sorted(t, keys, &opts).unwrap();
                            assert_eq!(found.len(), keys.len(), "reader {reader} missed");
                        }
                        let _ = pass_tx.send(());
                    }
                });
            }
            drop(pass_tx);
            for round in 0..ROUNDS {
                pass_rx.recv().expect("a reader is running");
                write(round * 20, round * 20 + 60, &mut ts);
                t.flush().unwrap();
                if round % 2 == 1 {
                    let end = t.num_disk_components() - 1;
                    t.merge_range(crate::MergeRange { start: 0, end }).unwrap();
                }
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(
            lookup_sorted(&t, &keys, &LookupOptions::default())
                .unwrap()
                .len(),
            keys.len()
        );
    }

    /// A snapshot taken before a merge still reads the components the merge
    /// retired; their files go only when the last holder lets go.
    #[test]
    fn a_held_snapshot_outlives_the_merge_that_retired_it() {
        let t = sample_tree();
        let s = t.storage().clone();
        let held = t.disk_components();
        assert_eq!(held.len(), 3);
        t.merge_range(crate::MergeRange { start: 0, end: 2 })
            .unwrap();
        assert_eq!(t.num_disk_components(), 1);
        assert_eq!(held.len(), 3, "an install never edits a list in place");

        s.clear_cache(); // reads below must reach the retired files
        let (e, _) = held[2].search(&key(50)).unwrap().unwrap();
        assert_eq!(e.value, b"v1");
        let (e, _) = held[1].search(&key(150)).unwrap().unwrap();
        assert_eq!(e.value, b"v2");
        assert!(held[0].search(&key(270)).unwrap().unwrap().0.anti_matter);

        let files: Vec<_> = held.iter().map(|c| c.btree().file()).collect();
        drop(held);
        for f in files {
            assert!(s.read_page(f, 0).is_err(), "{f:?} outlived its last reader");
        }
        assert_eq!(point_lookup(&t, &key(150)).unwrap().unwrap().value, b"v2");
    }

    /// A key behind the stateful cursor's position would read as absent,
    /// so unsorted input is an error in every build — not a `debug_assert!`
    /// that an optimized build drops.
    #[test]
    fn descending_keys_are_rejected_not_missed() {
        let t = sample_tree();
        let keys = vec![key(120), key(50)];
        for (batched, stateful) in SORTED_MODES {
            let opts = LookupOptions {
                batched,
                stateful,
                ..LookupOptions::default()
            };
            let res = lookup_sorted(&t, &keys, &opts);
            assert!(
                matches!(res, Err(Error::InvalidArgument(_))),
                "batched={batched} stateful={stateful}: {res:?}"
            );
        }
        // Repeats are in order.
        let keys = vec![key(50), key(50)];
        let opts = LookupOptions {
            batched: true,
            stateful: true,
            ..LookupOptions::default()
        };
        assert_eq!(lookup_sorted(&t, &keys, &opts).unwrap().len(), 2);
    }

    #[test]
    fn empty_inputs() {
        let t = sample_tree();
        assert!(lookup_sorted(&t, &[], &LookupOptions::default())
            .unwrap()
            .is_empty());
    }
}
