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
//!   being touched in ascending key order — sequential where density allows,
//!   and a short gap between two wanted leaves streamed rather than sought
//!   (`Storage::read_page_forward`);
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
//!
//! Every multi-key probe — the record fetch's batches ([`lookup_sorted`]),
//! index repair's validation and a query's Timestamp validation
//! ([`sorted_timestamps`]) — is one **sorted walk** (`walk_sorted`): the
//! batched, stateful algorithm above, over however the caller holds its
//! keys, whichever components each key may enter, and whatever it wants of
//! a hit.

use crate::component::{BloomTally, DiskComponent};
use crate::component_id::ComponentId;
use crate::entry::{EntryHeader, LsmEntry};
use crate::tree::LsmTree;
use lsm_bloom::KeyHash;
use lsm_btree::StatefulCursor;
use lsm_common::{Error, Key, Result, Timestamp};
use lsm_storage::{PageSlice, Storage};
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

/// The newest disk version of a key: the component (borrowed from the
/// caller's snapshot) it was found in, the stored entry pinned in its leaf
/// page, and its ordinal.
type DiskHit<'c> = (&'c Arc<DiskComponent>, PageSlice, u64);

/// The B+-tree work of a multi-key probe, for the caller's report: Bloom
/// checks are on `IoStats` already; these say what passed the filters and
/// what that cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// B+-tree probes made: `(key, component)` pairs the Bloom filter let
    /// through.
    pub tree_probes: u64,
    /// Root-to-leaf descents those probes took. A stateful walk descends
    /// once per leaf it visits, however many probes the leaf serves.
    pub leaf_visits: u64,
}

/// The one per-key walk every point lookup is built on: `components`
/// newest → oldest, skipping those `eligible` rejects (unprobed and
/// unbilled), gating each B+-tree search by the component's Bloom filter,
/// stopping at the first component that holds `key`. Also returns the
/// number of B+-tree searches made.
///
/// The key is hashed once for all filters, and the probes' simulated cost
/// and counters are tallied and applied once before each tree search and
/// once at the end — the same totals as billing probe by probe.
fn newest_on_disk<'c>(
    storage: &Storage,
    components: &'c [Arc<DiskComponent>],
    key: &[u8],
    eligible: impl Fn(&DiskComponent) -> bool,
) -> Result<(Option<DiskHit<'c>>, u64)> {
    let hash = KeyHash::new(key);
    let mut tally = BloomTally::default();
    let mut searches = 0;
    for comp in components {
        if !eligible(comp) || !comp.bloom_probe(hash, &mut tally) {
            continue;
        }
        tally.apply(storage);
        searches += 1;
        if let Some((raw, ordinal)) = comp.btree().search_pinned(key)? {
            return Ok((Some((comp, raw, ordinal)), searches));
        }
    }
    tally.apply(storage);
    Ok((None, searches))
}

/// A key's newest disk version over every component, decoded.
fn find_on_disk<'c>(
    storage: &Storage,
    components: &'c [Arc<DiskComponent>],
    key: &[u8],
) -> Result<Option<(&'c Arc<DiskComponent>, LsmEntry, u64)>> {
    let Some((comp, raw, ordinal)) = newest_on_disk(storage, components, key, |_| true)?.0 else {
        return Ok(None);
    };
    Ok(Some((comp, LsmEntry::decode_slice(raw)?, ordinal)))
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
    let hit = find_on_disk(tree.storage(), &components, key)?;
    Ok(hit.and_then(|(comp, entry, ordinal)| comp.is_valid(ordinal).then_some(entry)))
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
    let hit = find_on_disk(tree.storage(), &components, key)?;
    // An invalidated or anti-matter newest version means deleted already;
    // older versions are stale.
    Ok(hit
        .filter(|(comp, entry, ordinal)| comp.is_valid(*ordinal) && !entry.anti_matter)
        .map(|(comp, entry, ordinal)| (comp.clone(), ordinal, entry)))
}

/// True if the Bloom filter of any component of `components` that `keep`
/// admits may contain `key` — index repair's "has anything touched this
/// key since" test (Section 4.4). Stops at the first filter that may; the
/// key is hashed once, and the probes made are billed in one call.
pub fn any_may_contain(
    storage: &Storage,
    components: &[Arc<DiskComponent>],
    key: &[u8],
    keep: impl Fn(&DiskComponent) -> bool,
) -> bool {
    let hash = KeyHash::new(key);
    let mut tally = BloomTally::default();
    let touched = components
        .iter()
        .any(|comp| keep(comp) && comp.bloom_probe(hash, &mut tally));
    tally.apply(storage);
    touched
}

/// True if `tree` may hold any version of `key` (live, anti-matter or
/// bitmap-dead): its memory component holds one, or a disk component's
/// Bloom filter may contain the key. `false` is a proof of absence —
/// filters have no false negatives, and the active component, the sealed
/// snapshot and the disk list are read in that order, as [`point_lookup`]
/// reads them, so a concurrent flush cannot hide an entry. The memory
/// probes copy headers only and the disk probes are [`any_may_contain`]'s
/// (one hash, one bill): the call allocates nothing.
pub fn may_contain(tree: &LsmTree, key: &[u8]) -> bool {
    tree.mem_get_active(key).is_some()
        || tree.sealed_get(key).is_some()
        || any_may_contain(tree.storage(), &tree.disk_components(), key, |_| true)
}

/// Fetches many keys, which must be sorted ascending (repeats allowed;
/// [`Error::InvalidArgument`] otherwise). See [`LookupOptions`].
///
/// The memory component is read live through `tree` and the disk-component
/// list is captured *after* the memory pass, so an entry mid-flush is seen
/// in memory or on disk (never neither) — which is why the chunk fetches
/// of one query need no shared snapshot. Every call builds its own
/// per-component stateful cursors, so concurrent callers share no cursor
/// state.
pub fn lookup_sorted(
    tree: &LsmTree,
    keys: &[Key],
    opts: &LookupOptions<'_>,
) -> Result<FoundEntries> {
    let mut found: FoundEntries = Vec::new();
    if keys.is_empty() {
        return Ok(found);
    }
    // Whatever the mode and wherever the batch boundaries fall, order is
    // checked over the whole slice, not assumed.
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
            let (hit, _) = newest_on_disk(storage, &components, &keys[i], |comp| {
                opts.id_hints
                    .is_none_or(|hints| comp.id().overlaps(&hints[i]))
            })?;
            if let Some((comp, raw, ordinal)) = hit {
                push_if_live(&mut found, i, comp, raw, ordinal)?;
            }
        }
    }
    Ok(found)
}

/// A key's newest version was found: it is resolved — live, deleted, or
/// invalidated — and only a live one is a result.
fn push_if_live(
    found: &mut FoundEntries,
    i: usize,
    comp: &DiskComponent,
    raw: PageSlice,
    ordinal: u64,
) -> Result<()> {
    let entry = LsmEntry::decode_slice(raw)?;
    if comp.is_valid(ordinal) && !entry.anti_matter {
        found.push((i, entry));
    }
    Ok(())
}

/// One batch of the batched algorithm (Section 3.2): the sorted walk over
/// `keys[batch[..]]`, pruned by the pID hints.
fn lookup_batch(
    storage: &Storage,
    keys: &[Key],
    batch: &[usize],
    components: &[Arc<DiskComponent>],
    opts: &LookupOptions<'_>,
    found: &mut FoundEntries,
) -> Result<()> {
    walk_sorted(
        storage,
        components,
        batch.len(),
        |j| keys[batch[j]].as_slice(),
        |j, comp| {
            opts.id_hints
                .is_none_or(|hints| comp.id().overlaps(&hints[batch[j]]))
        },
        opts.stateful,
        |j, comp, raw, ordinal| push_if_live(found, batch[j], comp, raw, ordinal),
    )?;
    Ok(())
}

/// The timestamp of the newest version of each of `n` ascending keys among
/// the disk components it may enter — the primary-key-index probe of
/// Timestamp validation (Section 4.3) and of index repair (Section 4.4),
/// as Section 3.2's batched, stateful lookup.
///
/// `key_of(j)` lends key `j`; `eligible(j, component)` says whether key `j`
/// may enter a component (a validator prunes the components at or below
/// the key's own or repaired timestamp); `on_newest(j, ts)` is called once
/// for every key some eligible component holds, with the timestamp of the
/// newest such version — an anti-matter entry counts, a validity bitmap
/// does not. Keys out of order are an [`Error::InvalidArgument`].
pub fn sorted_timestamps<'k>(
    storage: &Storage,
    components: &[Arc<DiskComponent>],
    n: usize,
    key_of: impl Fn(usize) -> &'k [u8],
    eligible: impl Fn(usize, &DiskComponent) -> bool,
    mut on_newest: impl FnMut(usize, Timestamp),
) -> Result<WalkStats> {
    walk_sorted(
        storage,
        components,
        n,
        key_of,
        eligible,
        true,
        |j, _, raw, _| {
            on_newest(j, EntryHeader::parse(&raw)?.ts);
            Ok(())
        },
    )
}

/// The one multi-key probe (Section 3.2, batched): `components` newest →
/// oldest and, per component, a Bloom pre-pass over the keys still
/// unresolved, then the B+-tree probes of the positives in ascending key
/// order — on one [`StatefulCursor`] when `stateful` — with the keys the
/// component resolved dropped before the next. `on_hit(j, component,
/// stored entry, ordinal)` sees the newest version of every key found.
///
/// Per key this enters the components the per-key walk (`newest_on_disk`)
/// enters, in the same order, and stops where it stops: pruned components
/// are neither probed nor billed, so Bloom checks, negatives and their
/// charge are the per-key walk's, key for key. What differs is the order
/// of page accesses and, with the cursor, the B+-tree work per probe —
/// and the device charge: the walk reads each leaf with
/// [`Storage::read_page_forward`], which streams a short gap past the
/// device head instead of seeking, where the per-key walk (the naive
/// fetch, gets and a lone key) reads with [`Storage::read_page`].
///
/// Keys must ascend (repeats allowed): the cursor only moves forward, and
/// a key behind its position would read as absent, so order is checked —
/// in the pass that hashes the keys — and a violation is an
/// [`Error::InvalidArgument`] in every build.
fn walk_sorted<'k>(
    storage: &Storage,
    components: &[Arc<DiskComponent>],
    n: usize,
    key_of: impl Fn(usize) -> &'k [u8],
    eligible: impl Fn(usize, &DiskComponent) -> bool,
    stateful: bool,
    mut on_hit: impl FnMut(usize, &Arc<DiskComponent>, PageSlice, u64) -> Result<()>,
) -> Result<WalkStats> {
    /// Marks a slot of `remaining` whose key a component resolved.
    const RESOLVED: usize = usize::MAX;
    let mut stats = WalkStats::default();
    // Nothing to batch: no key, or none that may enter any component — and
    // a lone key takes the per-key walk, which charges what one cursor
    // seek per component would. Neither allocates.
    if !components
        .iter()
        .any(|comp| (0..n).any(|j| eligible(j, comp)))
    {
        return Ok(stats);
    }
    if n == 1 {
        let (hit, searches) = newest_on_disk(storage, components, key_of(0), |c| eligible(0, c))?;
        stats.tree_probes = searches;
        stats.leaf_visits = searches;
        if let Some((comp, raw, ordinal)) = hit {
            on_hit(0, comp, raw, ordinal)?;
        }
        return Ok(stats);
    }
    // Hashed once per walk; `remaining` holds the keys no component has
    // resolved yet.
    let mut hashes: Vec<KeyHash> = Vec::with_capacity(n);
    let mut prev = key_of(0);
    for j in 0..n {
        let key = key_of(j);
        if key < prev {
            return Err(Error::invalid("sorted lookup: keys must be ascending"));
        }
        hashes.push(KeyHash::new(key));
        prev = key;
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    // Slots of `remaining` whose key passed the component's filter.
    let mut positives: Vec<usize> = Vec::new();
    for comp in components {
        if remaining.is_empty() {
            break;
        }
        // Bloom pre-pass: every key eligible for the component is probed
        // and the component's probes are billed together. Most verdicts
        // are negative, so the B+-tree probe loop below runs over the
        // positives alone.
        let mut tally = BloomTally::default();
        positives.clear();
        for (slot, &j) in remaining.iter().enumerate() {
            if eligible(j, comp) && comp.bloom_probe(hashes[j], &mut tally) {
                positives.push(slot);
            }
        }
        tally.apply(storage);
        stats.tree_probes += positives.len() as u64;
        let mut cursor = stateful.then(|| StatefulCursor::new(comp.btree()));
        let mut resolved = false;
        for &slot in &positives {
            let j = remaining[slot];
            let hit = match &mut cursor {
                Some(c) => c.seek_pinned(key_of(j))?,
                None => comp.btree().search_pinned_forward(key_of(j))?,
            };
            if let Some((raw, ordinal)) = hit {
                on_hit(j, comp, raw, ordinal)?;
                // resolved either way: newest version seen
                remaining[slot] = RESOLVED;
                resolved = true;
            }
        }
        stats.leaf_visits += cursor.map_or(positives.len() as u64, |c| c.descents);
        if resolved {
            remaining.retain(|&j| j != RESOLVED);
        }
    }
    Ok(stats)
}

/// The per-key probes the sorted walk replaced, kept as its oracle: what
/// they return, check and charge defines what [`sorted_timestamps`] must.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The newest version of `key` among components strictly newer than
    /// `prune_ts` (plus the memory component): components with
    /// `maxTS <= prune_ts` are pruned.
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

    /// Like [`newest_version_after`] but searching disk components only.
    pub fn newest_disk_version_after(
        tree: &LsmTree,
        key: &[u8],
        prune_ts: Timestamp,
    ) -> Result<Option<LsmEntry>> {
        let components = tree.disk_components();
        newest_version_among(tree.storage(), &components, key, |comp| {
            !comp.id().at_or_before(prune_ts)
        })
    }

    /// The newest version of `key` among the `components` (newest first)
    /// that `eligible` admits.
    pub fn newest_version_among(
        storage: &Storage,
        components: &[Arc<DiskComponent>],
        key: &[u8],
        eligible: impl Fn(&DiskComponent) -> bool,
    ) -> Result<Option<LsmEntry>> {
        let (hit, _) = newest_on_disk(storage, components, key, eligible)?;
        hit.map(|(_, raw, _)| LsmEntry::decode_slice(raw))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::bitmap::AtomicBitmap;
    use crate::tree::{LsmOptions, LsmTree};
    use lsm_bloom::{build_filter, BloomFilter, BloomKind};
    use lsm_storage::{CpuCosts, DiskProfile, Storage, StorageOptions};
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
        // Batching changes the ORDER of leaf reads, not the leaves read.
        assert!(batched.seq_reads > naive.seq_reads);
    }

    /// Only the sorted walk streams short forward gaps. Over two striped
    /// components whose leaves are cold, sparse sorted keys of the older
    /// component — which any walk reads in ascending leaf order — make the
    /// batched walk, with and without the cursor, bridge gaps; the naive
    /// walk and point lookups bridge none, and read with `read_page` alone:
    /// one device read or cache hit per tree search, for its leaf (the
    /// router pages are the tree handle's), each charged a seek plus a
    /// transfer or a transfer alone. All four return the same entries.
    #[test]
    fn naive_walks_and_point_lookups_never_bridge() {
        let t = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let n = 20_000u32;
        for (ts, stripe) in [(1, 0), (2, 1)] {
            for i in (0..n).filter(|i| i % 2 == stripe) {
                t.put(key(i), LsmEntry::put_ts(vec![b'x'; 20], ts), ts);
            }
            t.flush().unwrap();
        }
        let s = t.storage().clone();
        let comps = t.disk_components();
        assert!(comps.iter().all(|c| c.btree().height() == 2));
        let keys: Vec<Key> = (0..n).step_by(662).map(key).collect();
        let run = |batched: bool, stateful: bool| {
            s.clear_cache();
            let (before, t0) = (s.stats(), s.clock().now_nanos());
            let opts = LookupOptions {
                batched,
                stateful,
                ..Default::default()
            };
            let found = sorted_by_index(lookup_sorted(&t, &keys, &opts).unwrap());
            (found, s.stats().since(&before), s.clock().now_nanos() - t0)
        };
        let (want, naive, naive_ns) = run(false, false);
        assert_eq!(want.len(), keys.len());
        for stateful in [false, true] {
            let (found, batched, _) = run(true, stateful);
            assert_eq!(found, want, "stateful={stateful}");
            assert!(
                batched.bridged_pages > 0,
                "stateful={stateful}: {batched:?}"
            );
        }

        s.clear_cache();
        let (before, t0) = (s.stats(), s.clock().now_nanos());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(point_lookup(&t, k).unwrap().as_ref(), Some(&want[i].1));
        }
        let gets = s.stats().since(&before);
        let gets_ns = s.clock().now_nanos() - t0;

        let (profile, bytes) = (DiskProfile::hdd(), s.page_size());
        for (what, d, ns) in [("naive", naive, naive_ns), ("gets", gets, gets_ns)] {
            assert_eq!(d.bridged_pages, 0, "{what}");
            let searches = d.bloom_checks - d.bloom_negatives;
            assert_eq!(d.disk_reads() + d.cache_hits, searches, "{what}");
            let device =
                d.rand_reads * profile.seek_ns + d.disk_reads() * profile.transfer_ns(bytes);
            assert_eq!(ns, device + d.cpu_ns, "{what}");
        }
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

    /// A flipped bit in a leaf's ordinal word would hand the validity
    /// bitmap an ordinal past its end. Every read path that consults the
    /// bitmap — a point lookup, each batched mode, a scan — reports
    /// corruption instead of panicking inside the bitmap.
    #[test]
    fn a_leaf_ordinal_past_the_bitmap_is_corruption() {
        let s = Storage::new(StorageOptions::test());
        let t = LsmTree::new(s.clone(), LsmOptions::default());
        for i in 0..300 {
            t.put(key(i), LsmEntry::put(b"v".to_vec()), u64::from(i) + 1);
        }
        let comp = t.flush().unwrap().unwrap();
        // The component's file again, with bit 40 of leaf 0's ordinal word
        // set, under a bitmap sized for its real entries.
        let (src, file) = (comp.btree().file(), s.create_file());
        for p in 0..s.file_pages(src).unwrap() {
            let mut page = s.page_data(src, p).unwrap().to_vec();
            if p == 0 {
                page[5] ^= 1;
            }
            s.append_page(file, &page).unwrap();
        }
        let bitmap = Arc::new(AtomicBitmap::new(comp.num_entries()));
        let btree = lsm_btree::BTree::open(s.clone(), file).unwrap();
        let damaged = DiskComponent::new(comp.id(), btree, None, None, Some(bitmap));
        let t = LsmTree::new(s, LsmOptions::default());
        t.push_newest(Arc::new(damaged));

        let corrupt = |r: Result<()>| matches!(r, Err(lsm_common::Error::Corruption(_)));
        assert!(corrupt(point_lookup(&t, &key(3)).map(drop)));
        for (batched, stateful) in [(false, false), (true, false), (true, true)] {
            let opts = LookupOptions {
                batched,
                stateful,
                ..Default::default()
            };
            let keys = [key(3), key(4)];
            assert!(corrupt(lookup_sorted(&t, &keys, &opts).map(drop)));
        }
        use std::ops::Bound::Unbounded;
        let mut scan = t.scan(Unbounded, Unbounded, Default::default()).unwrap();
        assert!(corrupt(scan.next_entry().map(drop)));
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
        fixture_on(StorageOptions::test(), specs, with_mem, kind)
    }

    fn fixture_on(
        storage: StorageOptions,
        specs: &[SourceSpec],
        with_mem: bool,
        kind: BloomKind,
    ) -> Fixture {
        let tree = LsmTree::new(
            Storage::new(storage),
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
            let mut builder = fx.tree.component_builder(id, distinct.len(), None);
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
            let cpu = CpuCosts::default();
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

    // ---- the sorted walk against the per-key walk -----------------------------

    /// One hit of a walk: `(key index, component, ordinal, stored entry)`.
    type Hit = (usize, ComponentId, u64, Vec<u8>);

    /// `(cpu_ns, bloom_checks, bloom_negatives)` charged while `run` ran.
    fn billed(s: &Storage, run: impl FnOnce()) -> (u64, u64, u64) {
        let before = s.stats();
        run();
        let d = s.stats().since(&before);
        (d.cpu_ns, d.bloom_checks, d.bloom_negatives)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The sorted walk against one per-key walk per key, on 256-byte
        // pages (a source of 24 keys is a tree of height 2), with per-key
        // timestamp pruning and pID hints on and off, every third key asked
        // for twice: the same key is found in the
        // same component at the same ordinal, the same filters are probed,
        // and the same trees searched — in no more descents. (Charged CPU
        // is not ordered in general: a gallop across a one-leaf tree can
        // take more comparisons than its binary search, and there is no
        // router walk to save. `a_repair_shaped_walk_…` pins the saving.)
        #[test]
        fn sorted_walk_matches_per_key_oracle(
            specs in arb_sources(),
            blocked in any::<bool>(),
            prune_ages in proptest::collection::vec(0..42u64, 2 * KEYS as usize),
            per_key_prune in any::<bool>(),
            hints in arb_hints(),
            with_hints in any::<bool>(),
        ) {
            let kind = if blocked { BloomKind::Blocked } else { BloomKind::Standard };
            let options = StorageOptions {
                page_size: 256,
                ..StorageOptions::test()
            };
            let fx = fixture_on(options, &specs, false, kind);
            let s = fx.tree.storage().clone();
            let comps = fx.tree.disk_components();
            // (key, the index its pruning is drawn at)
            let keys: Vec<(Key, usize)> = all_keys()
                .into_iter()
                .enumerate()
                .flat_map(|(i, k)| std::iter::repeat_n((k, i), 1 + usize::from(i % 3 == 0)))
                .collect();
            let key_of = |j: usize| keys[j].0.as_slice();
            let eligible = |j: usize, comp: &DiskComponent| {
                let i = keys[j].1;
                (!per_key_prune || !comp.id().at_or_before(10 * prune_ages[i] + 3))
                    && (!with_hints || comp.id().overlaps(&hints[i]))
            };

            let mut want: Vec<Hit> = Vec::new();
            let mut searches = 0;
            let per_key = billed(&s, || {
                for j in 0..keys.len() {
                    let (hit, n) = newest_on_disk(&s, &comps, key_of(j), |c| eligible(j, c)).unwrap();
                    searches += n;
                    want.extend(hit.map(|(comp, raw, ordinal)| (j, comp.id(), ordinal, raw.to_vec())));
                }
            });

            for stateful in [false, true] {
                let mut got: Vec<Hit> = Vec::new();
                let mut stats = WalkStats::default();
                let walk = billed(&s, || {
                    stats = walk_sorted(&s, &comps, keys.len(), key_of, eligible, stateful, |j, comp, raw, ordinal| {
                        got.push((j, comp.id(), ordinal, raw.to_vec()));
                        Ok(())
                    })
                    .unwrap();
                });
                // Hits arrive component by component; a key has one.
                got.sort_by_key(|hit| hit.0);
                prop_assert_eq!(&got, &want, "stateful={}", stateful);
                prop_assert_eq!((walk.1, walk.2), (per_key.1, per_key.2), "stateful={}", stateful);
                prop_assert_eq!(stats.tree_probes, searches);
                if stateful {
                    prop_assert!(stats.leaf_visits <= searches);
                } else {
                    prop_assert_eq!(walk.0, per_key.0);
                    prop_assert_eq!(stats.leaf_visits, searches);
                }
            }

            let mut newest: Vec<(usize, Timestamp)> = Vec::new();
            sorted_timestamps(&s, &comps, keys.len(), key_of, eligible, |j, ts| newest.push((j, ts))).unwrap();
            newest.sort_unstable();
            let want_ts: Vec<(usize, Timestamp)> = want
                .iter()
                .map(|(j, _, _, raw)| (*j, LsmEntry::decode(raw).unwrap().ts))
                .collect();
            prop_assert_eq!(newest, want_ts);
        }
    }

    /// Index repair's shape — two pk-index components, sorted candidates
    /// at 3 % and at 50 % of the keys: one descent per leaf visited, not
    /// per candidate, and a smaller CPU charge for the same answers.
    #[test]
    fn a_repair_shaped_walk_descends_once_per_leaf_and_is_charged_less() {
        let t = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let n = 20_000u32;
        for (ts, stripe) in [(1, 0), (2, 1)] {
            for i in (0..n).filter(|i| i % 2 == stripe) {
                t.put(key(i), LsmEntry::put_ts(Vec::new(), ts), ts);
            }
            t.flush().unwrap();
        }
        let s = t.storage().clone();
        let comps = t.disk_components();
        let leaves: u64 = comps
            .iter()
            .map(|c| u64::from(c.btree().num_leaves()))
            .sum();
        for step in [33, 2] {
            let keys: Vec<Key> = (0..n).step_by(step).map(key).collect();
            let mut want = Vec::new();
            let per_key = billed(&s, || {
                for k in &keys {
                    let newest = newest_version_among(&s, &comps, k, |_| true).unwrap();
                    want.push(newest.unwrap().ts);
                }
            });
            let mut got = vec![0; keys.len()];
            let mut stats = WalkStats::default();
            let walk = billed(&s, || {
                stats = sorted_timestamps(
                    &s,
                    &comps,
                    keys.len(),
                    |j| &keys[j],
                    |_, _| true,
                    |j, ts| got[j] = ts,
                )
                .unwrap();
            });
            assert_eq!(got, want);
            assert_eq!(
                (walk.1, walk.2),
                (per_key.1, per_key.2),
                "the same Bloom probes"
            );
            assert!(stats.tree_probes >= keys.len() as u64);
            assert!(
                stats.leaf_visits <= leaves,
                "{stats:?} over {leaves} leaves"
            );
            assert!(stats.leaf_visits * 4 < stats.tree_probes, "{stats:?}");
            assert!(
                walk.0 < per_key.0,
                "step {step}: walk {} ns, per key {} ns",
                walk.0,
                per_key.0
            );
        }
    }

    /// No key, a lone key, and keys no component is eligible for take no
    /// batch: a lone key is charged the per-key walk, the others nothing.
    #[test]
    fn tiny_walks_are_the_per_key_walk_or_nothing() {
        let t = sample_tree();
        let s = t.storage().clone();
        let comps = t.disk_components();
        let keys = [key(150), key(260)];
        let timestamps = |n: usize, eligible: &dyn Fn(usize, &DiskComponent) -> bool| {
            let mut seen = Vec::new();
            let mut stats = WalkStats::default();
            let bill = billed(&s, || {
                stats = sorted_timestamps(
                    &s,
                    &comps,
                    n,
                    |j| &keys[j],
                    eligible,
                    |j, ts| seen.push((j, ts)),
                )
                .unwrap();
            });
            (seen, stats, bill)
        };
        let nothing = (Vec::new(), WalkStats::default(), (0, 0, 0));
        assert_eq!(timestamps(0, &|_, _| true), nothing);
        assert_eq!(timestamps(2, &|_, _| false), nothing);

        let mut want = None;
        let per_key = billed(&s, || {
            want = newest_version_among(&s, &comps, &keys[0], |_| true).unwrap()
        });
        let (seen, stats, bill) = timestamps(1, &|_, _| true);
        assert_eq!(seen, vec![(0, want.unwrap().ts)]);
        assert_eq!(bill, per_key);
        assert_eq!(stats.tree_probes, stats.leaf_visits);
        assert!(stats.tree_probes >= 1);
    }

    /// The walk's cursors only move forward, so each of its callers gets
    /// an error for keys out of order — never a key silently not found.
    #[test]
    fn every_sorted_walk_rejects_descending_keys() {
        let t = sample_tree();
        let comps = t.disk_components();
        let keys = [key(120), key(50)];
        let res = sorted_timestamps(t.storage(), &comps, 2, |j| &keys[j], |_, _| true, |_, _| {});
        assert!(matches!(res, Err(Error::InvalidArgument(_))), "{res:?}");
        let keys = [key(50), key(50), key(120)];
        let mut seen = 0;
        sorted_timestamps(
            t.storage(),
            &comps,
            3,
            |j| &keys[j],
            |_, _| true,
            |_, _| seen += 1,
        )
        .unwrap();
        assert_eq!(seen, 3, "repeats are in order");
    }

    #[test]
    fn any_may_contain_probes_like_any_and_bills_once() {
        let t = sample_tree();
        let s = t.storage().clone();
        let comps = t.disk_components();
        for (k, after) in [(key(150), 0), (key(150), 400), (key(50), 0), (key(9999), 0)] {
            let keep = |c: &DiskComponent| !c.id().at_or_before(after);
            let mut want = false;
            let each = billed(&s, || {
                want = comps
                    .iter()
                    .filter(|c| keep(c))
                    .any(|c| c.bloom_may_contain(&s, &k));
            });
            let mut got = false;
            let once = billed(&s, || got = any_may_contain(&s, &comps, &k, keep));
            assert_eq!((got, once), (want, each), "key {k:?} after {after}");
        }
    }

    /// `may_contain` says "maybe" wherever a version lives — the active
    /// memory component, a sealed snapshot, any disk component, anti-matter
    /// included — and for a key held nowhere asks every filter, billed as
    /// `any_may_contain` bills, plus the memory probe.
    #[test]
    fn may_contain_sees_memory_sealed_and_disk_versions() {
        let t = sample_tree();
        let s = t.storage().clone();
        let memtable_ns = CpuCosts::default().memtable_op_ns;
        for i in [0, 5, 150, 275] {
            assert!(may_contain(&t, &key(i)), "key {i}");
        }
        t.put(key(7000), LsmEntry::put(b"sealed".to_vec()), 9000);
        t.seal_mem().unwrap();
        t.put(key(8000), LsmEntry::anti_matter(), 9001);
        assert!(may_contain(&t, &key(7000)), "sealed");
        assert!(may_contain(&t, &key(8000)), "active anti-matter");
        let comps = t.disk_components();
        let absent = key(9999);
        let want = billed(&s, || {
            assert!(!any_may_contain(&s, &comps, &absent, |_| true))
        });
        let got = billed(&s, || assert!(!may_contain(&t, &absent)));
        assert_eq!(got, (want.0 + memtable_ns, want.1, want.2));
        assert_eq!(got.1, comps.len() as u64, "one probe per component");
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
