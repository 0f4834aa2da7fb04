//! Range scans over LSM trees.
//!
//! A query over LSM data must reconcile entries with identical keys across
//! components: newer components override older ones and anti-matter entries
//! suppress deleted keys (Section 2.1). [`LsmScan`] is the reconciling
//! k-way merge used by queries and by component merges: both borrow its
//! entries ([`LsmScan::next_lent`]) straight out of the leaf pages the scan
//! holds, and a query copies out only what it returns.
//!
//! The Mutable-bitmap strategy lets filter scans skip reconciliation
//! entirely (Section 6.4.2): because deletions are applied in place through
//! bitmaps, each surviving entry is the unique valid version of its key, so
//! components can be scanned one at a time — see
//! [`scan_components_sequential`].

use crate::bitmap::BitmapSnapshot;
use crate::component::DiskComponent;
use crate::entry::{EntryHeader, EntryRef, LsmEntry};
use lsm_btree::BTreeScan;
use lsm_common::{Key, Result};
use lsm_storage::{Event, Storage};
use std::ops::Bound;
use std::sync::Arc;

/// Options controlling scan semantics.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Emit anti-matter entries (merges need them; queries do not).
    pub emit_anti_matter: bool,
    /// Skip entries whose validity-bitmap bit is set.
    pub respect_bitmaps: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            emit_anti_matter: false,
            respect_bitmaps: true,
        }
    }
}

/// One reconciled entry, lent by [`LsmScan::next_lent`] until the scan's
/// next step: the key and the entry's payload are slices of the winning
/// source — a leaf page the scan holds, or the memory run it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lent<'a> {
    /// The reconciled key.
    pub key: &'a [u8],
    /// The newest version of `key`.
    pub entry: EntryRef<'a>,
    /// The winning source's recency rank (0 = newest source).
    pub rank: usize,
    /// The entry's ordinal in that source (0 for the memory run).
    pub ordinal: u64,
}

// A scan has at most one `Mem` source; boxing `Disk` to even out the sizes
// would put a pointer hop under every heap comparison.
#[allow(clippy::large_enum_variant)]
enum Source {
    /// Snapshot of the memory component's range (newest; rank 0).
    Mem {
        entries: Vec<(Key, LsmEntry)>,
        /// Index of the entry after the head; the held entry's index.
        next: usize,
        held: usize,
    },
    /// One disk component.
    Disk {
        scan: BTreeScan,
        /// Frozen bitmap for this scan (Side-file method scans snapshots).
        bitmap: Option<BitmapSnapshot>,
        /// Header of the entry the scan stands on — parsed, and so
        /// validated, as the entry is stepped onto — and of the held one.
        head: EntryHeader,
        held: EntryHeader,
    },
}

impl Source {
    fn disk(scan: BTreeScan, bitmap: Option<BitmapSnapshot>) -> Self {
        Source::Disk {
            scan,
            bitmap,
            head: EntryHeader::default(),
            held: EntryHeader::default(),
        }
    }

    /// Steps to the next visible entry, which becomes the head; `false`
    /// once the source is exhausted.
    fn advance(&mut self, respect_bitmaps: bool) -> Result<bool> {
        match self {
            Source::Mem { entries, next, .. } => {
                *next += 1;
                Ok(*next <= entries.len())
            }
            Source::Disk {
                scan, bitmap, head, ..
            } => loop {
                if !scan.advance()? {
                    return Ok(false);
                }
                let (_, raw, ordinal) = scan.entry();
                if respect_bitmaps && bitmap.as_ref().is_some_and(|bm| bm.get(ordinal)) {
                    continue; // invalidated entry
                }
                *head = EntryHeader::parse(raw)?;
                return Ok(true);
            },
        }
    }

    /// The head's key.
    fn key(&self) -> &[u8] {
        match self {
            Source::Mem { entries, next, .. } => &entries[next - 1].0,
            Source::Disk { scan, .. } => scan.entry().0,
        }
    }

    /// Keeps the head readable through [`Source::held`] while the source
    /// advances past it.
    fn hold(&mut self) {
        match self {
            Source::Mem { next, held, .. } => *held = *next - 1,
            Source::Disk {
                scan, head, held, ..
            } => {
                scan.hold();
                *held = *head;
            }
        }
    }

    fn held_key(&self) -> &[u8] {
        match self {
            Source::Mem { entries, held, .. } => &entries[*held].0,
            Source::Disk { scan, .. } => scan.held().0,
        }
    }

    /// The held entry, lent.
    fn held(&self, rank: usize) -> Lent<'_> {
        match self {
            Source::Mem { entries, held, .. } => {
                let (key, entry) = &entries[*held];
                Lent {
                    key,
                    entry: entry.into(),
                    rank,
                    ordinal: 0,
                }
            }
            Source::Disk { scan, held, .. } => {
                let (key, raw, ordinal) = scan.held();
                Lent {
                    key,
                    entry: held.lend(raw),
                    rank,
                    ordinal,
                }
            }
        }
    }

    /// The held entry, owned: a memory entry is moved out of the run, a
    /// disk entry's value pins its leaf page.
    fn take_held(&mut self) -> (Key, LsmEntry) {
        match self {
            Source::Mem { entries, held, .. } => {
                let (key, entry) = &mut entries[*held];
                let entry = std::mem::replace(entry, LsmEntry::anti_matter());
                (std::mem::take(key), entry)
            }
            Source::Disk { scan, held, .. } => {
                let entry = LsmEntry {
                    anti_matter: held.anti_matter,
                    ts: held.ts,
                    value: scan.held_value_pinned(held.payload_at()).into(),
                };
                (scan.held().0.to_vec(), entry)
            }
        }
    }
}

/// Reconciling k-way merge scan: a binary heap over the sources' head
/// entries. Producing one key is charged as many key comparisons as the
/// bit length of k (`⌊log2 k⌋ + 1`), k being the number of sources the
/// scan was opened on.
///
/// The heap orders *source indexes*; the heads stay where they are — in the
/// leaf page each source's B-tree scan holds — and a reconciled entry is
/// lent from there ([`LsmScan::next_lent`]) instead of being copied out.
/// The first eight bytes of every head key are cached beside the heap, so
/// ordering two sources compares two integers and reads the keys themselves
/// only when those tie. [`LsmScan::next_entry`] is the owning wrapper.
pub struct LsmScan {
    storage: Arc<Storage>,
    /// Newest first: a source's index is its recency rank.
    sources: Vec<Source>,
    /// Min-heap of the sources that still have a head, by `(head key,
    /// rank)`: the top is the smallest key and, among equal keys, the
    /// newest source.
    heap: Vec<usize>,
    /// `prefixes[rank]` is [`key_prefix`] of source `rank`'s head key,
    /// refreshed wherever the source is advanced.
    prefixes: Vec<u64>,
    opts: ScanOptions,
    started: bool,
}

/// The first eight bytes of `key` as a big-endian integer, a shorter key
/// zero-padded: `key_prefix(a) < key_prefix(b)` implies `a < b`, and equal
/// prefixes (eight shared bytes, or keys that differ by trailing zero bytes
/// only) decide nothing.
#[inline]
fn key_prefix(key: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    match key.first_chunk::<8>() {
        Some(head) => word = *head,
        None => word[..key.len()].copy_from_slice(key),
    }
    u64::from_be_bytes(word)
}

impl LsmScan {
    /// Creates a scan over an explicit set of sources: an optional memory
    /// snapshot (treated as newest) plus disk components ordered
    /// newest-first, over key range `[lo, hi]`.
    pub fn new(
        storage: Arc<Storage>,
        mem_snapshot: Option<Vec<(Key, LsmEntry)>>,
        components: &[Arc<DiskComponent>],
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        opts: ScanOptions,
    ) -> Result<Self> {
        let mut sources = Vec::with_capacity(components.len() + 1);
        if let Some(entries) = mem_snapshot {
            sources.push(Source::Mem {
                entries,
                next: 0,
                held: 0,
            });
        }
        for comp in components {
            let scan = comp.btree().scan(lo, clone_bound(&hi))?;
            let bitmap = if opts.respect_bitmaps {
                comp.bitmap().map(|b| b.snapshot())
            } else {
                None
            };
            sources.push(Source::disk(scan, bitmap));
        }
        Ok(Self::over(storage, sources, opts))
    }

    /// Creates a scan with explicit bitmap snapshots per component (the
    /// Side-file method freezes bitmaps before scanning; Figure 11a line 3).
    pub fn with_bitmap_snapshots(
        storage: Arc<Storage>,
        components: &[(Arc<DiskComponent>, Option<BitmapSnapshot>)],
        opts: ScanOptions,
    ) -> Result<Self> {
        let mut sources = Vec::with_capacity(components.len());
        for (comp, snap) in components {
            sources.push(Source::disk(comp.btree().scan_all()?, snap.clone()));
        }
        Ok(Self::over(storage, sources, opts))
    }

    fn over(storage: Arc<Storage>, sources: Vec<Source>, opts: ScanOptions) -> Self {
        LsmScan {
            storage,
            heap: Vec::with_capacity(sources.len()),
            prefixes: vec![0; sources.len()],
            sources,
            opts,
            started: false,
        }
    }

    /// True if source `a`'s head sorts before source `b`'s.
    #[inline]
    fn before(&self, a: usize, b: usize) -> bool {
        let (pa, pb) = (self.prefixes[a], self.prefixes[b]);
        if pa != pb {
            return pa < pb;
        }
        (self.sources[a].key(), a) < (self.sources[b].key(), b)
    }

    /// Steps source `rank` to its next entry and caches the new head's
    /// prefix; `false` once the source is exhausted.
    fn advance_source(&mut self, rank: usize) -> Result<bool> {
        let source = &mut self.sources[rank];
        let more = source.advance(self.opts.respect_bitmaps)?;
        if more {
            self.prefixes[rank] = key_prefix(source.key());
        }
        Ok(more)
    }

    /// Restores the heap below position `at`.
    fn sift_down(&mut self, mut at: usize) {
        loop {
            let left = 2 * at + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !self.before(self.heap[child], self.heap[at]) {
                return;
            }
            self.heap.swap(child, at);
            at = child;
        }
    }

    fn prime(&mut self) -> Result<()> {
        for rank in 0..self.sources.len() {
            if self.advance_source(rank)? {
                self.heap.push(rank);
            }
        }
        for at in (0..self.heap.len() / 2).rev() {
            self.sift_down(at);
        }
        self.started = true;
        Ok(())
    }

    /// Steps the top source to its next entry (one sift-down; an exhausted
    /// source leaves the heap).
    fn advance_top(&mut self) -> Result<()> {
        if !self.advance_source(self.heap[0])? {
            self.heap.swap_remove(0);
        }
        self.sift_down(0);
        Ok(())
    }

    /// One reconciliation step: holds the winning head — the smallest key;
    /// among ties the smallest rank (newest) — steps its source and every
    /// source carrying an older version of the key, and returns the
    /// winner's rank. `None` once every source is exhausted.
    fn step(&mut self) -> Result<Option<usize>> {
        if !self.started {
            self.prime()?;
        }
        let Some(&winner) = self.heap.first() else {
            return Ok(None);
        };
        let winner_prefix = self.prefixes[winner];
        self.sources[winner].hold();
        self.advance_top()?;

        // Charge the reconciliation cost: one heap round over the sources.
        let log_k = (usize::BITS - self.sources.len().leading_zeros()) as u64;
        self.storage.charge(Event::KeyCmp, log_k.max(1));

        // Older versions of the winning key are consumed with it.
        // (The winner's own next key is past it: keys ascend in a source.)
        while let Some(&top) = self.heap.first() {
            if top == winner
                || self.prefixes[top] != winner_prefix
                || self.sources[top].key() != self.sources[winner].held_key()
            {
                break;
            }
            self.advance_top()?;
        }
        Ok(Some(winner))
    }

    /// Returns the next reconciled entry without copying it: the newest
    /// version of the next key — anti-matter included, whatever
    /// [`ScanOptions::emit_anti_matter`] says — with the winning source's
    /// rank and the entry's ordinal in it, all lent until the next call.
    /// Merges and repairs build from this; queries read it and skip the
    /// anti-matter themselves.
    pub fn next_lent(&mut self) -> Result<Option<Lent<'_>>> {
        Ok(self.step()?.map(|winner| self.sources[winner].held(winner)))
    }

    /// Returns the next reconciled entry: `(key, entry)` where `entry` is
    /// the newest version of `key`. Anti-matter entries are suppressed
    /// unless `emit_anti_matter` is set.
    pub fn next_entry(&mut self) -> Result<Option<(Key, LsmEntry)>> {
        loop {
            let Some(winner) = self.step()? else {
                return Ok(None);
            };
            let source = &mut self.sources[winner];
            if source.held(winner).entry.anti_matter && !self.opts.emit_anti_matter {
                continue;
            }
            return Ok(Some(source.take_held()));
        }
    }
}

#[cfg(test)]
mod oracle;

fn clone_bound(b: &Bound<&[u8]>) -> Bound<Vec<u8>> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(k) => Bound::Included(k.to_vec()),
        Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
    }
}

/// Scans components one at a time with **no reconciliation** — the
/// Mutable-bitmap strategy's scan mode (Section 6.4.2) — over the key range
/// `[lo, hi]`. Entries arrive grouped by component, not in global key
/// order. `visit` is lent `(key, entry)` for every valid, non-anti-matter
/// entry — slices of the memory run or of the leaf the walk stands on,
/// good for the call — and its first error aborts the scan. Memory entries
/// are visited as given (the caller slices its captured run to the range).
///
/// `bitmaps[i]` is the **pre-frozen** validity snapshot of `components[i]`.
/// Under the Mutable-bitmap strategy, a concurrent writer marks the old
/// on-disk version's bitmap bit *before* inserting the replacement into
/// the memory component; snapshotting a live bitmap after the memory
/// capture could therefore observe the mark without the replacement and
/// lose the record. Callers racing in-place deletes must freeze the
/// bitmaps atomically with the memory+disk capture (the filter-scan
/// capture does this under the dataset write lock).
pub fn scan_components_sequential(
    mem_snapshot: Option<Vec<(Key, LsmEntry)>>,
    components: &[Arc<DiskComponent>],
    bitmaps: &[Option<BitmapSnapshot>],
    lo: Bound<&[u8]>,
    hi: Bound<&[u8]>,
    mut visit: impl FnMut(&[u8], EntryRef<'_>) -> Result<()>,
) -> Result<()> {
    debug_assert_eq!(components.len(), bitmaps.len());
    for (k, e) in mem_snapshot.iter().flatten() {
        if !e.anti_matter {
            visit(k, e.into())?;
        }
    }
    for (comp, bitmap) in components.iter().zip(bitmaps) {
        let mut scan = comp.btree().scan(lo, clone_bound(&hi))?;
        while scan.advance()? {
            let (k, raw, ordinal) = scan.entry();
            if bitmap.as_ref().is_some_and(|bm| bm.get(ordinal)) {
                continue;
            }
            let entry = EntryRef::decode(raw)?;
            if !entry.anti_matter {
                visit(k, entry)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::AtomicBitmap;
    use crate::component_id::ComponentId;
    use crate::tree::{ComponentBuilder, LsmOptions, LsmTree};
    use lsm_storage::StorageOptions;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn storage() -> Arc<Storage> {
        Storage::new(StorageOptions::test())
    }

    /// A builder for component `id` on `storage`, with a default tree's
    /// options.
    fn builder(storage: &Arc<Storage>, id: ComponentId) -> ComponentBuilder {
        LsmTree::new(storage.clone(), LsmOptions::default()).component_builder(id, 1024, None)
    }

    fn build(
        storage: &Arc<Storage>,
        id: ComponentId,
        entries: &[(&str, LsmEntry)],
    ) -> Arc<DiskComponent> {
        let mut b = builder(storage, id);
        for (k, e) in entries {
            b.add(k.as_bytes(), e).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn newest_component_wins() {
        let s = storage();
        let old = build(
            &s,
            ComponentId::new(1, 5),
            &[
                ("a", LsmEntry::put(b"old-a".to_vec())),
                ("b", LsmEntry::put(b"old-b".to_vec())),
            ],
        );
        let new = build(
            &s,
            ComponentId::new(6, 9),
            &[("a", LsmEntry::put(b"new-a".to_vec()))],
        );
        // newest first
        let mut scan = LsmScan::new(
            s.clone(),
            None,
            &[new, old],
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions::default(),
        )
        .unwrap();
        let (k1, e1) = scan.next_entry().unwrap().unwrap();
        assert_eq!(
            (k1.as_slice(), e1.value.as_slice()),
            (&b"a"[..], &b"new-a"[..])
        );
        let (k2, e2) = scan.next_entry().unwrap().unwrap();
        assert_eq!(
            (k2.as_slice(), e2.value.as_slice()),
            (&b"b"[..], &b"old-b"[..])
        );
        assert!(scan.next_entry().unwrap().is_none());
    }

    #[test]
    fn anti_matter_suppresses_and_can_be_emitted() {
        let s = storage();
        let old = build(
            &s,
            ComponentId::new(1, 5),
            &[("a", LsmEntry::put(b"v".to_vec()))],
        );
        let mem = vec![(b"a".to_vec(), LsmEntry::anti_matter())];

        let mut scan = LsmScan::new(
            s.clone(),
            Some(mem.clone()),
            std::slice::from_ref(&old),
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions::default(),
        )
        .unwrap();
        assert!(scan.next_entry().unwrap().is_none());

        let mut scan = LsmScan::new(
            s.clone(),
            Some(mem),
            &[old],
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions {
                emit_anti_matter: true,
                ..Default::default()
            },
        )
        .unwrap();
        let (_, e) = scan.next_entry().unwrap().unwrap();
        assert!(e.anti_matter);
        assert!(scan.next_entry().unwrap().is_none());
    }

    #[test]
    fn bitmap_invalidated_entries_skipped() {
        let s = storage();
        let comp = build(
            &s,
            ComponentId::new(1, 5),
            &[
                ("a", LsmEntry::put(b"1".to_vec())),
                ("b", LsmEntry::put(b"2".to_vec())),
                ("c", LsmEntry::put(b"3".to_vec())),
            ],
        );
        let bm = Arc::new(AtomicBitmap::new(3));
        bm.set(1); // invalidate "b"
        comp.set_bitmap(bm).unwrap();
        let mut scan = LsmScan::new(
            s.clone(),
            None,
            std::slice::from_ref(&comp),
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions::default(),
        )
        .unwrap();
        let mut keys = Vec::new();
        while let Some((k, _)) = scan.next_entry().unwrap() {
            keys.push(k);
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"c".to_vec()]);

        // respect_bitmaps=false sees everything (repair scans raw entries).
        let mut scan = LsmScan::new(
            s,
            None,
            &[comp],
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions {
                respect_bitmaps: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut n = 0;
        while scan.next_entry().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn range_bounds_respected() {
        let s = storage();
        let comp = build(
            &s,
            ComponentId::new(1, 5),
            &[
                ("a", LsmEntry::put(vec![])),
                ("b", LsmEntry::put(vec![])),
                ("c", LsmEntry::put(vec![])),
                ("d", LsmEntry::put(vec![])),
            ],
        );
        let mut scan = LsmScan::new(
            s,
            None,
            &[comp],
            Bound::Included(b"b"),
            Bound::Excluded(b"d"),
            ScanOptions::default(),
        )
        .unwrap();
        let mut keys = Vec::new();
        while let Some((k, _)) = scan.next_entry().unwrap() {
            keys.push(k);
        }
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    fn bound_ref(b: &Bound<Key>) -> Bound<&[u8]> {
        match b {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        }
    }

    /// One generated source: `(key, anti-matter?, bitmap bit set?)` per
    /// entry, keys from a small domain so sources overlap heavily.
    type SourceSpec = Vec<(u8, bool, bool)>;

    fn arb_sources() -> impl Strategy<Value = Vec<SourceSpec>> {
        let entry = (0..48u8, 0..4u8, 0..5u8).prop_map(|(k, anti, dead)| (k, anti == 0, dead == 0));
        proptest::collection::vec(proptest::collection::vec(entry, 0..24), 1..41)
    }

    fn arb_bound() -> impl Strategy<Value = Bound<Key>> {
        prop_oneof![
            2 => Just(Bound::Unbounded),
            1 => (0..48u8).prop_map(|k| Bound::Included(vec![k])),
            1 => (0..48u8).prop_map(|k| Bound::Excluded(vec![k])),
        ]
    }

    /// A generated scan input, built: the sources newest-first (an optional
    /// memory run, then disk components) next to the model's view of them —
    /// per source its `(key, entry, bitmap bit)` rows in key order.
    struct Fixture {
        mem: Option<Vec<(Key, LsmEntry)>>,
        comps: Vec<Arc<DiskComponent>>,
        rows: Vec<Vec<(Key, LsmEntry, bool)>>,
    }

    /// The key the generated key number `k` stands for by default.
    fn one_byte_key(k: u8) -> Key {
        vec![k]
    }

    fn fixture(s: &Arc<Storage>, specs: &[SourceSpec], with_mem: bool) -> Fixture {
        fixture_padded(s, specs, with_mem, 0, one_byte_key)
    }

    /// [`fixture`] with every value followed by `pad` filler bytes, so a
    /// source of a few entries spans several leaf pages, and with key
    /// number `k` standing for `key_of(k)` (distinct numbers, distinct keys).
    fn fixture_padded(
        s: &Arc<Storage>,
        specs: &[SourceSpec],
        with_mem: bool,
        pad: usize,
        key_of: fn(u8) -> Key,
    ) -> Fixture {
        let mut fx = Fixture {
            mem: None,
            comps: Vec::new(),
            rows: Vec::new(),
        };
        for (rank, spec) in specs.iter().enumerate() {
            let in_mem = with_mem && rank == 0;
            let distinct: BTreeMap<Key, (u8, bool, bool)> = spec
                .iter()
                .map(|&(k, anti, dead)| (key_of(k), (k, anti, dead)))
                .collect();
            let rows: Vec<(Key, LsmEntry, bool)> = distinct
                .into_iter()
                .map(|(key, (k, anti, dead))| {
                    let entry = if anti {
                        LsmEntry::anti_matter()
                    } else {
                        let mut value = vec![rank as u8, k];
                        value.resize(2 + pad, k);
                        LsmEntry::put(value)
                    };
                    // Memory runs carry no bitmap.
                    (key, entry, dead && !in_mem)
                })
                .collect();
            if in_mem {
                fx.mem = Some(
                    rows.iter()
                        .map(|(k, e, _)| (k.clone(), e.clone()))
                        .collect(),
                );
            } else {
                // Newest-first: later ranks get older IDs.
                let id = ComponentId::new(1000 - rank as u64, 1000 - rank as u64);
                let mut b = builder(s, id);
                for (k, e, _) in &rows {
                    b.add(k, e).unwrap();
                }
                let comp = Arc::new(b.finish().unwrap());
                if rows.iter().any(|(_, _, dead)| *dead) {
                    let bm = Arc::new(AtomicBitmap::new(rows.len() as u64));
                    for (i, (_, _, dead)) in rows.iter().enumerate() {
                        if *dead {
                            bm.set(i as u64);
                        }
                    }
                    comp.set_bitmap(bm).unwrap();
                }
                fx.comps.push(comp);
            }
            fx.rows.push(rows);
        }
        fx
    }

    fn in_range(key: &Key, lo: &Bound<Key>, hi: &Bound<Key>) -> bool {
        (match lo {
            Bound::Unbounded => true,
            Bound::Included(l) => key >= l,
            Bound::Excluded(l) => key > l,
        }) && (match hi {
            Bound::Unbounded => true,
            Bound::Included(h) => key <= h,
            Bound::Excluded(h) => key < h,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The heap merge against a `BTreeMap` model: inserting every visible
        // entry oldest source first leaves, per key, the newest version with
        // its source rank and ordinal — the exact `next_lent` sequence.
        #[test]
        fn scan_matches_btreemap_model(
            specs in arb_sources(),
            with_mem in any::<bool>(),
            respect_bitmaps in any::<bool>(),
            emit_anti_matter in any::<bool>(),
            lo in arb_bound(),
            hi in arb_bound(),
        ) {
            let s = storage();
            let fx = fixture(&s, &specs, with_mem);
            let mut model: BTreeMap<Key, (LsmEntry, usize, u64)> = BTreeMap::new();
            for (rank, rows) in fx.rows.iter().enumerate().rev() {
                let in_mem = with_mem && rank == 0;
                for (ordinal, (key, entry, dead)) in rows.iter().enumerate() {
                    // The caller slices the memory run to the range itself.
                    if (in_mem || in_range(key, &lo, &hi)) && !(respect_bitmaps && *dead) {
                        let ordinal = if in_mem { 0 } else { ordinal as u64 };
                        model.insert(key.clone(), (entry.clone(), rank, ordinal));
                    }
                }
            }
            let opts = ScanOptions { emit_anti_matter, respect_bitmaps };
            let open = || {
                LsmScan::new(s.clone(), fx.mem.clone(), &fx.comps, bound_ref(&lo), bound_ref(&hi), opts)
                    .unwrap()
            };

            let mut scan = open();
            let mut reconciled = Vec::new();
            while let Some(l) = scan.next_lent().unwrap() {
                reconciled.push((l.key.to_vec(), l.entry.to_entry(), l.rank, l.ordinal));
            }
            let want: Vec<_> = model
                .iter()
                .map(|(k, (e, rank, ord))| (k.clone(), e.clone(), *rank, *ord))
                .collect();
            prop_assert_eq!(reconciled, want);

            let mut scan = open();
            let mut entries = Vec::new();
            while let Some(row) = scan.next_entry().unwrap() {
                entries.push(row);
            }
            let want: Vec<_> = model
                .into_iter()
                .filter(|(_, (e, _, _))| emit_anti_matter || !e.anti_matter)
                .map(|(k, (e, _, _))| (k, e))
                .collect();
            prop_assert_eq!(entries, want);
        }

        // The bill of a scan, pinned (see `check_scan_cost`), at whatever
        // fan-in the sources come to.
        #[test]
        fn scan_cost_is_pinned(specs in arb_sources(), with_mem in any::<bool>()) {
            let bit_length = u64::from(usize::BITS - specs.len().leading_zeros());
            check_scan_cost(&specs, with_mem, bit_length)?;
        }
    }

    /// The bill of a scan: every entry a component's B-tree scan hands over
    /// costs one `key_cmp_ns` (bitmap-dead ones included), and every
    /// reconciled key — suppressed anti-matter included — costs
    /// `key_cmp_ns × bit_length`, `bit_length` being that of the number of
    /// sources the scan was opened on (`⌊log2 k⌋ + 1`).
    fn check_scan_cost(
        specs: &[SourceSpec],
        with_mem: bool,
        bit_length: u64,
    ) -> std::result::Result<(), String> {
        let s = storage();
        let fx = fixture(&s, specs, with_mem);
        let mut scan = LsmScan::new(
            s.clone(),
            fx.mem.clone(),
            &fx.comps,
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions::default(),
        )
        .unwrap();
        let before = s.stats().cpu_ns;
        while scan.next_entry().unwrap().is_some() {}
        let charged = s.stats().cpu_ns - before;

        let disk_rows = &fx.rows[usize::from(with_mem)..];
        let streamed: usize = disk_rows.iter().map(Vec::len).sum();
        let reconciled: BTreeSet<&Key> = fx
            .rows
            .iter()
            .flatten()
            .filter(|(_, _, dead)| !dead)
            .map(|(key, _, _)| key)
            .collect();
        let key_cmp_ns = lsm_storage::CpuCosts::default().key_cmp_ns;
        prop_assert_eq!(
            charged,
            streamed as u64 * key_cmp_ns + reconciled.len() as u64 * key_cmp_ns * bit_length
        );
        Ok(())
    }

    /// The charge per reconciled key follows the bit length of the fan-in,
    /// not `⌈log2 k⌉`: three comparisons at k = 4, four at k = 8.
    #[test]
    fn scan_cost_at_fixed_fan_ins() {
        for (k, bit_length) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (8, 4), (9, 4)] {
            // Source `rank` holds keys `rank..rank + 6`: neighbours overlap.
            let specs: Vec<SourceSpec> = (0..k as u8)
                .map(|rank| {
                    (rank..rank + 6)
                        .map(|key| (key, key % 5 == 0, false))
                        .collect()
                })
                .collect();
            for with_mem in [false, true] {
                check_scan_cost(&specs, with_mem, bit_length).unwrap();
            }
        }
    }

    /// Runs `step` and returns its result with the CPU time it charged.
    fn billed<T>(s: &Storage, step: impl FnOnce() -> T) -> (T, u64) {
        let before = s.stats().cpu_ns;
        let out = step();
        (out, s.stats().cpu_ns - before)
    }

    /// The generated layout of a fixture: an optional memory run, which
    /// scan options, the bounds (over [`one_byte_key`]s) and the value
    /// padding.
    type Shape = ((bool, bool, bool), (Bound<Key>, Bound<Key>), usize);

    fn arb_shape() -> impl Strategy<Value = Shape> {
        (
            (any::<bool>(), any::<bool>(), any::<bool>()),
            (arb_bound(), arb_bound()),
            0..400usize,
        )
    }

    /// The lending scan against the owning scan it replaced, step by step:
    /// the same `(key, entry, rank, ordinal)` and the same simulated CPU
    /// time charged for producing it.
    fn check_against_owning_oracle(
        specs: &[SourceSpec],
        shape: Shape,
        key_of: fn(u8) -> Key,
    ) -> std::result::Result<(), String> {
        let ((with_mem, respect_bitmaps, emit_anti_matter), (lo, hi), pad) = shape;
        let s = storage();
        let fx = fixture_padded(&s, specs, with_mem, pad, key_of);
        let opts = ScanOptions {
            emit_anti_matter,
            respect_bitmaps,
        };
        let (lo, hi) = (lo.map(|k| key_of(k[0])), hi.map(|k| key_of(k[0])));
        let (lo, hi) = (bound_ref(&lo), bound_ref(&hi));
        let lending = || LsmScan::new(s.clone(), fx.mem.clone(), &fx.comps, lo, hi, opts).unwrap();
        let owning =
            || oracle::OwningScan::new(s.clone(), fx.mem.clone(), &fx.comps, lo, hi, opts).unwrap();

        let (mut lent, mut want) = (lending(), owning());
        loop {
            let expected = billed(&s, || want.next_ranked().unwrap());
            let got = billed(&s, || {
                let row = lent.next_lent().unwrap();
                row.map(|l| (l.key.to_vec(), l.entry.to_entry(), l.rank, l.ordinal))
            });
            prop_assert_eq!(&got, &expected);
            if expected.0.is_none() {
                break;
            }
        }

        let (mut got, mut want) = (lending(), owning());
        loop {
            let expected = billed(&s, || want.next_entry().unwrap());
            prop_assert_eq!(&billed(&s, || got.next_entry().unwrap()), &expected);
            if expected.0.is_none() {
                return Ok(());
            }
        }
    }

    /// Key number `k` as one of 48 keys made to collide in their first
    /// eight bytes: a stem of zero, five or eight bytes — keys shorter than
    /// the cached prefix (the empty key included), keys that straddle its
    /// end, keys that all share it — under sixteen tails that differ by
    /// trailing `0x00` bytes, which zero-padding cannot tell apart.
    fn tie_key(k: u8) -> Key {
        const STEMS: [&[u8]; 3] = [b"", b"stem5", b"stem-of8"];
        const TAILS: [&[u8]; 16] = [
            &[],
            &[0],
            &[0, 0],
            &[0, 0, 0],
            &[0, 0, 1],
            &[0, 1],
            &[0, 255],
            &[1],
            &[1, 0],
            &[1, 0, 0],
            &[1, 0, 0, 0, 0, 0, 0, 0, 0],
            &[1, 1],
            &[1, 1, 0],
            &[2],
            &[255],
            &[255, 0],
        ];
        [STEMS[usize::from(k / 16)], TAILS[usize::from(k % 16)]].concat()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // With sources that span several leaves.
        #[test]
        fn lending_scan_matches_owning_oracle(specs in arb_sources(), shape in arb_shape()) {
            check_against_owning_oracle(&specs, shape, one_byte_key)?;
        }

        // The cached prefixes order the heap only as far as they can: over
        // keys whose prefixes tie, the scan still is the owning scan.
        #[test]
        fn prefix_ties_fall_back_to_the_full_key(specs in arb_sources(), shape in arb_shape()) {
            check_against_owning_oracle(&specs, shape, tie_key)?;
        }
    }

    #[test]
    fn sequential_scan_visits_all_valid_entries() {
        let s = storage();
        let c1 = build(
            &s,
            ComponentId::new(1, 5),
            &[
                ("a", LsmEntry::put(b"1".to_vec())),
                ("b", LsmEntry::put(b"2".to_vec())),
            ],
        );
        let c2 = build(
            &s,
            ComponentId::new(6, 9),
            &[("c", LsmEntry::put(b"3".to_vec()))],
        );
        let bm = Arc::new(AtomicBitmap::new(2));
        bm.set(0); // "a" deleted in place
        c1.set_bitmap(bm).unwrap();
        let mem = vec![
            (b"d".to_vec(), LsmEntry::put(b"4".to_vec())),
            (b"e".to_vec(), LsmEntry::anti_matter()),
        ];
        let comps = [c2, c1];
        let frozen: Vec<_> = comps
            .iter()
            .map(|c| c.bitmap().map(|b| b.snapshot()))
            .collect();
        let mut seen = Vec::new();
        scan_components_sequential(
            Some(mem),
            &comps,
            &frozen,
            Bound::Unbounded,
            Bound::Unbounded,
            |k, _| {
                seen.push(k.to_vec());
                Ok(())
            },
        )
        .unwrap();
        seen.sort();
        assert_eq!(seen, vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }
}
