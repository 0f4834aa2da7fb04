//! Range scans over LSM trees.
//!
//! A query over LSM data must reconcile entries with identical keys across
//! components: newer components override older ones and anti-matter entries
//! suppress deleted keys (Section 2.1). [`LsmScan`] is the reconciling
//! k-way merge used by queries and by component merges.
//!
//! The Mutable-bitmap strategy lets filter scans skip reconciliation
//! entirely (Section 6.4.2): because deletions are applied in place through
//! bitmaps, each surviving entry is the unique valid version of its key, so
//! components can be scanned one at a time — see
//! [`scan_components_sequential`].

use crate::bitmap::BitmapSnapshot;
use crate::component::DiskComponent;
use crate::entry::LsmEntry;
use lsm_btree::BTreeScan;
use lsm_common::{Key, Result};
use lsm_storage::Storage;
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

enum Source {
    /// Snapshot of the memory component's range (newest; rank 0).
    Mem {
        entries: std::vec::IntoIter<(Key, LsmEntry)>,
    },
    /// One disk component.
    Disk {
        scan: BTreeScan,
        /// Frozen bitmap for this scan (Side-file method scans snapshots).
        bitmap: Option<BitmapSnapshot>,
    },
}

impl Source {
    fn next(&mut self, respect_bitmaps: bool) -> Result<Option<(Key, LsmEntry, u64)>> {
        match self {
            Source::Mem { entries } => Ok(entries.next().map(|(k, e)| (k, e, 0))),
            Source::Disk { scan, bitmap, .. } => loop {
                let Some((k, raw, ordinal)) = scan.next_entry_pinned()? else {
                    return Ok(None);
                };
                if respect_bitmaps {
                    if let Some(bm) = bitmap {
                        if bm.get(ordinal) {
                            continue; // invalidated entry
                        }
                    }
                }
                return Ok(Some((k, LsmEntry::decode_buf(raw)?, ordinal)));
            },
        }
    }
}

/// Head entry of one source, tagged with the source's recency rank
/// (0 = newest).
struct Head {
    key: Key,
    entry: LsmEntry,
    ordinal: u64,
    rank: usize,
}

/// Reconciling k-way merge scan.
pub struct LsmScan {
    storage: Arc<Storage>,
    sources: Vec<Source>,
    heads: Vec<Option<Head>>,
    opts: ScanOptions,
    started: bool,
    num_sources: usize,
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
                entries: entries.into_iter(),
            });
        }
        for comp in components {
            let scan = comp.btree().scan(lo, clone_bound(&hi))?;
            let bitmap = if opts.respect_bitmaps {
                comp.bitmap().map(|b| b.snapshot())
            } else {
                None
            };
            sources.push(Source::Disk { scan, bitmap });
        }
        let n = sources.len();
        Ok(LsmScan {
            storage,
            sources,
            heads: Vec::new(),
            opts,
            started: false,
            num_sources: n,
        })
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
            let scan = comp.btree().scan_all()?;
            sources.push(Source::Disk {
                scan,
                bitmap: snap.clone(),
            });
        }
        let n = sources.len();
        Ok(LsmScan {
            storage,
            sources,
            heads: Vec::new(),
            opts,
            started: false,
            num_sources: n,
        })
    }

    fn prime(&mut self) -> Result<()> {
        self.heads = Vec::with_capacity(self.sources.len());
        for i in 0..self.sources.len() {
            let h = self.sources[i].next(self.opts.respect_bitmaps)?;
            self.heads.push(h.map(|(key, entry, ordinal)| Head {
                key,
                entry,
                ordinal,
                rank: i,
            }));
        }
        self.started = true;
        Ok(())
    }

    /// Returns the next reconciled entry: `(key, entry)` where `entry` is
    /// the newest version of `key`. Anti-matter entries are suppressed
    /// unless `emit_anti_matter` is set.
    pub fn next_entry(&mut self) -> Result<Option<(Key, LsmEntry)>> {
        loop {
            let Some((key, entry, _, _)) = self.next_reconciled()? else {
                return Ok(None);
            };
            if entry.anti_matter && !self.opts.emit_anti_matter {
                continue;
            }
            return Ok(Some((key, entry)));
        }
    }

    /// Like [`LsmScan::next_entry`] but also reports the winning source's
    /// rank (0 = newest source) and the entry's ordinal in that source —
    /// used by merges and repairs.
    pub fn next_reconciled(&mut self) -> Result<Option<(Key, LsmEntry, usize, u64)>> {
        if !self.started {
            self.prime()?;
        }
        // Find the smallest key; among ties the smallest rank (newest) wins.
        let mut winner: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some(h) = head else { continue };
            match winner {
                None => winner = Some(i),
                Some(w) => {
                    // INVARIANT: `w` was only ever set for a `Some` head and
                    // no head is advanced during this scan.
                    let wh = self.heads[w].as_ref().unwrap();
                    if h.key < wh.key || (h.key == wh.key && h.rank < wh.rank) {
                        winner = Some(i);
                    }
                }
            }
        }
        let Some(w) = winner else { return Ok(None) };
        // INVARIANT: the winner index always points at a `Some` head.
        let win_key = self.heads[w].as_ref().unwrap().key.clone();

        // Charge the reconciliation cost: one heap round over the sources.
        let log_k = (usize::BITS - self.num_sources.leading_zeros()) as u64;
        self.storage
            .charge_cpu(self.storage.cpu().key_cmp_ns * log_k.max(1));

        // Advance every source sitting on the winning key; keep the winner.
        let mut result: Option<(Key, LsmEntry, usize, u64)> = None;
        for i in 0..self.heads.len() {
            let Some(head) = self.heads[i].take_if(|h| h.key == win_key) else {
                continue;
            };
            if i == w {
                result = Some((head.key, head.entry, head.rank, head.ordinal));
            }
            let next = self.sources[i].next(self.opts.respect_bitmaps)?;
            self.heads[i] = next.map(|(key, entry, ordinal)| Head {
                key,
                entry,
                ordinal,
                rank: i,
            });
        }
        Ok(result)
    }
}

fn clone_bound(b: &Bound<&[u8]>) -> Bound<Vec<u8>> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(k) => Bound::Included(k.to_vec()),
        Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
    }
}

/// One sub-range of a partitioned scan: the keys in `lo..hi` (owned bounds,
/// ready to be borrowed via `Bound::as_ref`-style helpers for
/// [`LsmScan::new`]). Produced by [`LsmScan::partition_scan`]; the
/// partitions of one call are disjoint, ascending, and cover the planned
/// range exactly.
pub type ScanPartition = (Bound<Key>, Bound<Key>);

impl LsmScan {
    /// Plans a partitioned scan: splits `[lo, hi]` into at most `k`
    /// disjoint, covering sub-ranges along disk-component page boundaries,
    /// so `k` independent [`LsmScan`]s (one per sub-range, each over the
    /// same component list) together see exactly what one scan of the whole
    /// range would.
    ///
    /// Separator keys are taken from the leaf-page boundaries of the
    /// component with the most leaf pages — the best available proxy for
    /// the data distribution (every leaf holds roughly the same byte
    /// volume), at the cost of reading one (likely cached) leaf page per
    /// separator. With no disk components, a single-leaf range, or `k <= 1`
    /// the plan degenerates to one partition covering the whole range.
    pub fn partition_scan(
        components: &[Arc<DiskComponent>],
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        k: usize,
    ) -> Result<Vec<ScanPartition>> {
        let whole = vec![(clone_bound(&lo), clone_bound(&hi))];
        if k <= 1 {
            return Ok(whole);
        }
        let Some(comp) = components.iter().max_by_key(|c| c.btree().num_leaves()) else {
            return Ok(whole);
        };
        let bt = comp.btree();
        if bt.num_leaves() < 2 {
            return Ok(whole);
        }
        let leaf_lo = match &lo {
            Bound::Unbounded => 0,
            Bound::Included(key) | Bound::Excluded(key) => bt.locate_leaf(key)?.unwrap_or(0),
        };
        let leaf_hi = match &hi {
            Bound::Unbounded => bt.num_leaves() - 1,
            Bound::Included(key) | Bound::Excluded(key) => {
                bt.locate_leaf(key)?.unwrap_or(bt.num_leaves() - 1)
            }
        };
        if leaf_hi <= leaf_lo {
            return Ok(whole);
        }
        let span = u64::from(leaf_hi - leaf_lo) + 1;
        let parts = (k as u64).min(span);
        let below_hi = |key: &[u8]| match &hi {
            Bound::Unbounded => true,
            Bound::Included(h) => key <= *h,
            Bound::Excluded(h) => key < *h,
        };
        let above_lo = |key: &[u8]| match &lo {
            Bound::Unbounded => true,
            Bound::Included(l) | Bound::Excluded(l) => key > *l,
        };
        let mut separators: Vec<Key> = Vec::with_capacity(parts as usize - 1);
        for i in 1..parts {
            let leaf = leaf_lo + (span * i / parts) as u32;
            let Some(first) = bt.leaf_first_key(leaf)? else {
                continue;
            };
            // Keep only separators strictly inside the range; duplicates
            // (possible when the range is dense on few leaves) are dropped.
            if above_lo(&first) && below_hi(&first) && separators.last() != Some(&first) {
                separators.push(first);
            }
        }
        let mut partitions = Vec::with_capacity(separators.len() + 1);
        let mut cur_lo = clone_bound(&lo);
        for sep in separators {
            partitions.push((cur_lo, Bound::Excluded(sep.clone())));
            cur_lo = Bound::Included(sep);
        }
        partitions.push((cur_lo, clone_bound(&hi)));
        Ok(partitions)
    }
}

/// Scans components one at a time with **no reconciliation** — the
/// Mutable-bitmap strategy's scan mode (Section 6.4.2) — over the key range
/// `[lo, hi]`. Entries arrive grouped by component, not in global key
/// order. `visit` receives `(key, entry)` for every valid, non-anti-matter
/// entry; its first error aborts the scan. Memory entries are visited as
/// given (the caller slices its captured run to the range).
///
/// `bitmaps[i]` is the **pre-frozen** validity snapshot of `components[i]`.
/// Under the Mutable-bitmap strategy, a concurrent writer marks the old
/// on-disk version's bitmap bit *before* inserting the replacement into
/// the memory component; snapshotting a live bitmap after the memory
/// capture could therefore observe the mark without the replacement and
/// lose the record. Callers racing in-place deletes must freeze the
/// bitmaps atomically with the memory+disk capture (the filter-scan
/// capture does this under the dataset write lock) and every partition of
/// a partitioned scan must reuse the same frozen snapshots.
pub fn scan_components_sequential(
    mem_snapshot: Option<Vec<(Key, LsmEntry)>>,
    components: &[Arc<DiskComponent>],
    bitmaps: &[Option<BitmapSnapshot>],
    lo: Bound<&[u8]>,
    hi: Bound<&[u8]>,
    mut visit: impl FnMut(Key, LsmEntry) -> Result<()>,
) -> Result<()> {
    debug_assert_eq!(components.len(), bitmaps.len());
    for (k, e) in mem_snapshot.into_iter().flatten() {
        if !e.anti_matter {
            visit(k, e)?;
        }
    }
    for (comp, bitmap) in components.iter().zip(bitmaps) {
        let mut scan = comp.btree().scan(lo, clone_bound(&hi))?;
        while let Some((k, raw, ordinal)) = scan.next_entry_pinned()? {
            if bitmap.as_ref().is_some_and(|bm| bm.get(ordinal)) {
                continue;
            }
            let entry = LsmEntry::decode_buf(raw)?;
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
    use crate::tree::ComponentBuilder;
    use lsm_storage::StorageOptions;

    fn storage() -> Arc<Storage> {
        Storage::new(StorageOptions::test())
    }

    fn build(
        storage: &Arc<Storage>,
        id: ComponentId,
        entries: &[(&str, LsmEntry)],
    ) -> Arc<DiskComponent> {
        let mut b = ComponentBuilder::new(storage.clone(), id, Default::default()).unwrap();
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

    fn collect_range(
        s: &Arc<Storage>,
        comps: &[Arc<DiskComponent>],
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Vec<Key> {
        let mut scan =
            LsmScan::new(s.clone(), None, comps, lo, hi, ScanOptions::default()).unwrap();
        let mut keys = Vec::new();
        while let Some((k, _)) = scan.next_entry().unwrap() {
            keys.push(k);
        }
        keys
    }

    /// Partitioned scans must see exactly what one whole-range scan sees,
    /// in the same order, with disjoint ascending sub-ranges.
    #[test]
    fn partition_scan_covers_range_exactly() {
        let s = storage();
        // Two overlapping components, enough entries for many leaves.
        let mk = |lo: u32, hi: u32, id: ComponentId| {
            let entries: Vec<(String, LsmEntry)> = (lo..hi)
                .map(|i| (format!("k{i:06}"), LsmEntry::put(vec![b'v'; 40])))
                .collect();
            let refs: Vec<(&str, LsmEntry)> = entries
                .iter()
                .map(|(k, e)| (k.as_str(), e.clone()))
                .collect();
            build(&s, id, &refs)
        };
        let newer = mk(200, 700, ComponentId::new(1000, 1999));
        let older = mk(0, 1000, ComponentId::new(1, 999));
        let comps = vec![newer, older];

        for (lo, hi) in [
            (Bound::Unbounded, Bound::Unbounded),
            (
                Bound::Included(b"k000100".as_slice()),
                Bound::Excluded(b"k000900".as_slice()),
            ),
            (
                Bound::Included(b"k000450".as_slice()),
                Bound::Included(b"k000460".as_slice()),
            ),
        ] {
            let whole = collect_range(&s, &comps, lo, hi);
            for k in [1usize, 2, 4, 7] {
                let parts = LsmScan::partition_scan(&comps, lo, hi, k).unwrap();
                assert!(parts.len() <= k.max(1), "{k} -> {}", parts.len());
                let mut merged = Vec::new();
                for (plo, phi) in &parts {
                    merged.extend(collect_range(&s, &comps, bound_ref(plo), bound_ref(phi)));
                }
                assert_eq!(merged, whole, "k={k} lo={lo:?}");
            }
        }
    }

    #[test]
    fn partition_scan_degenerates_gracefully() {
        let s = storage();
        // No components: one partition covering the range.
        let parts = LsmScan::partition_scan(&[], Bound::Unbounded, Bound::Unbounded, 4).unwrap();
        assert_eq!(parts.len(), 1);
        // A single-leaf component cannot be split.
        let tiny = build(
            &s,
            ComponentId::new(1, 2),
            &[("a", LsmEntry::put(vec![])), ("b", LsmEntry::put(vec![]))],
        );
        let parts =
            LsmScan::partition_scan(&[tiny], Bound::Unbounded, Bound::Unbounded, 4).unwrap();
        assert_eq!(parts.len(), 1);
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
                seen.push(k);
                Ok(())
            },
        )
        .unwrap();
        seen.sort();
        assert_eq!(seen, vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }
}
