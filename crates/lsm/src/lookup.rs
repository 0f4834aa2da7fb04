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

use crate::component::DiskComponent;
use crate::component_id::ComponentId;
use crate::entry::LsmEntry;
use crate::tree::LsmTree;
use lsm_btree::StatefulCursor;
use lsm_common::{Key, Result, Timestamp};
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

/// Looks up one key: memory component first, then disk components newest to
/// oldest, gated by Bloom filters. Returns the newest version — which may
/// be an anti-matter entry; callers decide what deletion means. Entries
/// invalidated by a validity bitmap are treated as deleted (`None`).
pub fn point_lookup(tree: &LsmTree, key: &[u8]) -> Result<Option<LsmEntry>> {
    if let Some(e) = tree.mem_get(key) {
        return Ok(Some(e));
    }
    let storage = tree.storage();
    for comp in tree.disk_components() {
        if !comp.bloom_may_contain(storage, key) {
            continue;
        }
        if let Some((entry, ordinal)) = comp.search(key)? {
            if !comp.is_valid(ordinal) {
                return Ok(None);
            }
            return Ok(Some(entry));
        }
    }
    Ok(None)
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
    let storage = tree.storage();
    for comp in tree.disk_components() {
        if comp.id().at_or_before(prune_ts) {
            continue;
        }
        if !comp.bloom_may_contain(storage, key) {
            continue;
        }
        if let Some((entry, _)) = comp.search(key)? {
            return Ok(Some(entry));
        }
    }
    Ok(None)
}

/// Like [`newest_version_after`] but searching disk components only —
/// index repair (Section 4.4) validates against flushed state and advances
/// the repaired timestamp to the newest unpruned disk component.
pub fn newest_disk_version_after(
    tree: &LsmTree,
    key: &[u8],
    prune_ts: Timestamp,
) -> Result<Option<LsmEntry>> {
    let storage = tree.storage();
    for comp in tree.disk_components() {
        if comp.id().at_or_before(prune_ts) {
            continue;
        }
        if !comp.bloom_may_contain(storage, key) {
            continue;
        }
        if let Some((entry, _)) = comp.search(key)? {
            return Ok(Some(entry));
        }
    }
    Ok(None)
}

/// Locates the valid (bitmap-live, non-anti-matter) disk entry for `key`,
/// returning its component and ordinal — the Mutable-bitmap strategy's
/// delete/upsert probe (Section 5.2): "search the primary key index to
/// locate the position of the deleted key".
pub fn locate_valid(
    tree: &LsmTree,
    key: &[u8],
) -> Result<Option<(Arc<DiskComponent>, u64, LsmEntry)>> {
    let storage = tree.storage();
    for comp in tree.disk_components() {
        if !comp.bloom_may_contain(storage, key) {
            continue;
        }
        if let Some((entry, ordinal)) = comp.search(key)? {
            if !comp.is_valid(ordinal) || entry.anti_matter {
                return Ok(None); // deleted already; older versions are stale
            }
            return Ok(Some((comp, ordinal, entry)));
        }
    }
    Ok(None)
}

/// Fetches many keys (must be sorted ascending). See [`LookupOptions`].
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
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
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
            let key = &keys[i];
            for comp in &components {
                if let Some(hints) = opts.id_hints {
                    if !comp.id().overlaps(&hints[i]) {
                        continue;
                    }
                }
                if !comp.bloom_may_contain(storage, key) {
                    continue;
                }
                if let Some((entry, ordinal)) = comp.search(key)? {
                    if comp.is_valid(ordinal) && !entry.anti_matter {
                        found.push((i, entry));
                    }
                    break; // resolved (live, deleted, or invalidated)
                }
            }
        }
    }
    Ok(found)
}

/// One batch of the batched algorithm (Section 3.2): probe each component
/// once, in ascending key order, dropping resolved keys as we go.
fn lookup_batch(
    storage: &Arc<lsm_storage::Storage>,
    keys: &[Key],
    batch: &[usize],
    components: &[Arc<DiskComponent>],
    opts: &LookupOptions<'_>,
    found: &mut FoundEntries,
) -> Result<()> {
    let mut remaining: Vec<usize> = batch.to_vec();
    for comp in components {
        if remaining.is_empty() {
            break;
        }
        // Batched Bloom pre-pass: probe every key that survives
        // component-ID pruning in ONE filter call, so blocked filters can
        // resolve all block loads before the in-block probes (and the
        // B+-tree probe loop below stays branch-simple). Pruned keys are
        // never probed, so the bloom-check stats match the naive path.
        let candidates: Vec<&[u8]> = remaining
            .iter()
            .filter(|&&i| {
                opts.id_hints
                    .is_none_or(|hints| comp.id().overlaps(&hints[i]))
            })
            .map(|&i| keys[i].as_slice())
            .collect();
        let mut verdicts: Vec<bool> = Vec::new();
        comp.bloom_may_contain_batch(storage, &candidates, &mut verdicts);
        let mut vi = 0usize;
        let mut cursor = opts.stateful.then(|| StatefulCursor::new(comp.btree()));
        let mut still_unresolved: Vec<usize> = Vec::with_capacity(remaining.len());
        for &i in &remaining {
            let key = &keys[i];
            if let Some(hints) = opts.id_hints {
                if !comp.id().overlaps(&hints[i]) {
                    still_unresolved.push(i);
                    continue;
                }
            }
            let positive = verdicts[vi];
            vi += 1;
            if !positive {
                still_unresolved.push(i);
                continue;
            }
            let hit = match &mut cursor {
                Some(c) => c.seek_pinned(key)?,
                None => comp.btree().search_pinned(key)?,
            };
            match hit {
                Some((raw, ordinal)) => {
                    let entry = LsmEntry::decode_slice(raw)?;
                    if comp.is_valid(ordinal) && !entry.anti_matter {
                        found.push((i, entry));
                    }
                    // resolved either way: newest version seen
                }
                None => still_unresolved.push(i),
            }
        }
        remaining = still_unresolved;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{LsmOptions, LsmTree};
    use lsm_storage::{Storage, StorageOptions};

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

    #[test]
    fn empty_inputs() {
        let t = sample_tree();
        assert!(lookup_sorted(&t, &[], &LookupOptions::default())
            .unwrap()
            .is_empty());
    }
}
