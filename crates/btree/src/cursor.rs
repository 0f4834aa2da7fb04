//! Stateful B+-tree search cursor (Section 3.2, "Stateful B+-tree Lookup").
//!
//! When a batch of sorted primary keys is probed against a component, most
//! consecutive probes land on the same or the next leaf. The cursor
//! remembers the last leaf and position and:
//!
//! * probes within the current leaf using **exponential search** from the
//!   last position (cheap for nearby keys) instead of a full root-to-leaf
//!   descent;
//! * falls back to a root descent only when the probe key leaves the
//!   current leaf's key range.
//!
//! The remembered leaf is bounded by its own last key, copied once each
//! time the cursor changes leaf. A key above it descends, even when it
//! routes back to the same leaf (a key in the gap below the next leaf's
//! first key, or past the rightmost leaf): no fast-path probe runs off the
//! end of its page.
//!
//! The cursor **keeps the page** of its remembered leaf. A probe the leaf
//! covers searches those bytes and asks the storage layer nothing: a
//! repeated hit on the page read last moves neither the simulated clock (a
//! hit is free) nor the cache's eviction order, so the only trace of the
//! read the cursor skips is one `IoStats::cache_hits` count — a leaf visit
//! is one page read however many probes it serves. The held page is the
//! `Arc` the device stores, so it stays readable if the tree's file is
//! destroyed under the cursor; the next descent reports that.
//!
//! Probe keys must be non-decreasing; this is guaranteed by the sorted fetch
//! lists the engine produces. So the leaves a cursor reads only move
//! forward, and it reads them with
//! [`Storage::read_page_forward`](lsm_storage::Storage::read_page_forward):
//! a leaf a short gap past the last page the device read is streamed to,
//! not sought.

use crate::page::LeafPage;
use crate::tree::BTree;
use lsm_common::Result;
use lsm_storage::{PageNo, PageSlice};
use std::sync::Arc;

/// A stateful lookup cursor over one [`BTree`].
pub struct StatefulCursor<'t> {
    tree: &'t BTree,
    /// Current leaf and the position of the previous probe within it.
    state: Option<CursorState>,
    /// Statistics: root descents performed.
    pub descents: u64,
    /// Statistics: probes served from the remembered leaf.
    pub leaf_hits: u64,
}

struct CursorState {
    leaf_no: PageNo,
    /// Leaf `leaf_no`'s page, as the descent that reached it read it.
    page: Arc<[u8]>,
    pos: usize,
    /// Leaf `leaf_no`'s last key: the largest key the leaf covers.
    last_key: Vec<u8>,
}

impl<'t> StatefulCursor<'t> {
    /// Creates a cursor with no remembered position.
    pub fn new(tree: &'t BTree) -> Self {
        StatefulCursor {
            tree,
            state: None,
            descents: 0,
            leaf_hits: 0,
        }
    }

    /// Probes `key`, returning `(value, ordinal)` if present.
    ///
    /// Keys across successive calls must be non-decreasing.
    pub fn seek(&mut self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>> {
        Ok(self.seek_pinned(key)?.map(|(v, ord)| (v.to_vec(), ord)))
    }

    /// Like [`StatefulCursor::seek`] but the value pins the cached leaf
    /// page instead of being copied — the zero-copy batched-probe path.
    pub fn seek_pinned(&mut self, key: &[u8]) -> Result<Option<(PageSlice, u64)>> {
        // Fast path: the remembered leaf still covers `key`.
        if let Some(state) = self.state.as_mut().filter(|s| key <= s.last_key.as_slice()) {
            self.leaf_hits += 1;
            let leaf = LeafPage::parse(&state.page)?;
            let (found, cmps) = leaf.exponential_search(key, state.pos)?;
            let (Ok(pos) | Err(pos)) = found;
            state.pos = pos;
            self.tree.charge_nodes(1, cmps);
            return self.tree.pinned_match(&state.page, &leaf, found);
        }
        // Slow path: descend from the root.
        self.descents += 1;
        let Some(leaf_no) = self.tree.locate_leaf(key)? else {
            return Ok(None);
        };
        let page = self
            .tree
            .storage()
            .read_page_forward(self.tree.file(), self.tree.pages().start + leaf_no)?;
        let leaf = LeafPage::parse(&page)?;
        let (found, cmps) = leaf.search(key)?;
        let (Ok(pos) | Err(pos)) = found;
        let pos = pos.min(leaf.count().saturating_sub(1));
        self.tree.charge_nodes(1, cmps);
        let hit = self.tree.pinned_match(&page, &leaf, found);
        // The same leaf keeps its last key; a new leaf refills the one key
        // buffer the cursor owns.
        let last_key = match self.state.take() {
            Some(s) if s.leaf_no == leaf_no => s.last_key,
            s => {
                let mut last_key = s.map(|s| s.last_key).unwrap_or_default();
                last_key.clear();
                last_key.extend_from_slice(leaf.last_key()?.unwrap_or_default());
                last_key
            }
        };
        self.state = Some(CursorState {
            leaf_no,
            page,
            pos,
            last_key,
        });
        hit
    }
}

/// The differential test's oracle: a last-key cursor that keeps a page
/// number, not the page, and reads its leaf again for every probe. What it
/// returns, counts and charges defines what
/// [`StatefulCursor`](super::StatefulCursor) must; holding the page may
/// save only page reads.
#[cfg(test)]
mod oracle {
    use crate::page::LeafPage;
    use crate::tree::BTree;
    use lsm_common::Result;
    use lsm_storage::{PageNo, PageSlice};

    pub struct StatefulCursor<'t> {
        tree: &'t BTree,
        state: Option<CursorState>,
        pub descents: u64,
        pub leaf_hits: u64,
    }

    struct CursorState {
        leaf_no: PageNo,
        pos: usize,
        last_key: Vec<u8>,
    }

    impl<'t> StatefulCursor<'t> {
        pub fn new(tree: &'t BTree) -> Self {
            StatefulCursor {
                tree,
                state: None,
                descents: 0,
                leaf_hits: 0,
            }
        }

        pub fn seek_pinned(&mut self, key: &[u8]) -> Result<Option<(PageSlice, u64)>> {
            // Fast path: the remembered leaf still covers `key`.
            if let Some(state) = &self.state {
                if key <= state.last_key.as_slice() {
                    self.leaf_hits += 1;
                    let leaf_no = state.leaf_no;
                    let from = state.pos;
                    return self.probe_leaf(leaf_no, key, from, true);
                }
            }
            // Slow path: descend from the root.
            self.descents += 1;
            let Some(leaf_no) = self.tree.locate_leaf(key)? else {
                return Ok(None);
            };
            self.probe_leaf(leaf_no, key, 0, false)
        }

        fn probe_leaf(
            &mut self,
            leaf_no: PageNo,
            key: &[u8],
            from: usize,
            exponential: bool,
        ) -> Result<Option<(PageSlice, u64)>> {
            let data = self.tree.read_leaf(leaf_no)?;
            let leaf = LeafPage::parse(&data)?;
            let (found, cmps) = if exponential {
                leaf.exponential_search(key, from)?
            } else {
                leaf.search(key)?
            };
            self.tree.charge_nodes(1, cmps);

            let pos = match found {
                Ok(i) => i,
                Err(i) => i.min(leaf.count().saturating_sub(1)),
            };
            match &mut self.state {
                Some(state) if state.leaf_no == leaf_no => state.pos = pos,
                state => {
                    // A new leaf: refill the one key buffer the cursor owns.
                    let mut last_key = state.take().map(|s| s.last_key).unwrap_or_default();
                    last_key.clear();
                    if let Some(k) = leaf.last_key()? {
                        last_key.extend_from_slice(k);
                    }
                    *state = Some(CursorState {
                        leaf_no,
                        pos,
                        last_key,
                    });
                }
            }
            match found {
                Ok(i) => {
                    let (_, v) = leaf.entry(i)?;
                    let ordinal = leaf.base_ordinal() + i as u64;
                    Ok(Some((PageSlice::from_subslice(&data, v), ordinal)))
                }
                Err(_) => Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BTreeBuilder;
    use lsm_storage::{Storage, StorageOptions};
    use proptest::prelude::*;

    fn build(n: u32) -> BTree {
        let s = Storage::new(StorageOptions::test());
        let mut b = BTreeBuilder::new(s);
        for i in 0..n {
            b.add(format!("key{i:08}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn seek_finds_every_present_key_in_order() {
        let t = build(2000);
        let mut c = StatefulCursor::new(&t);
        for i in (0..2000u32).step_by(3) {
            let k = format!("key{i:08}");
            let (v, ord) = c.seek(k.as_bytes()).unwrap().unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
            assert_eq!(ord, i as u64);
        }
    }

    #[test]
    fn seek_misses_absent_keys() {
        let t = build(100);
        let mut c = StatefulCursor::new(&t);
        assert!(c.seek(b"key00000010x").unwrap().is_none());
        // Still finds later keys after a miss.
        assert!(c.seek(b"key00000050").unwrap().is_some());
        assert!(c.seek(b"zzz").unwrap().is_none());
    }

    #[test]
    fn dense_probes_mostly_avoid_descents() {
        let t = build(5000);
        let mut c = StatefulCursor::new(&t);
        for i in 0..5000u32 {
            let k = format!("key{i:08}");
            c.seek(k.as_bytes()).unwrap().unwrap();
        }
        // Dense ascending probes should ride leaves: descents only when
        // crossing leaf boundaries... and even those go through the fast
        // path check first. Expect descents << probes.
        assert!(
            c.descents < 5000 / 4,
            "descents {} leaf_hits {}",
            c.descents,
            c.leaf_hits
        );
        assert!(c.leaf_hits > 5000 / 2);
    }

    #[test]
    fn cursor_on_empty_tree() {
        let t = build(0);
        let mut c = StatefulCursor::new(&t);
        assert!(c.seek(b"x").unwrap().is_none());
    }

    #[test]
    fn sparse_probes_still_correct() {
        let t = build(5000);
        let mut c = StatefulCursor::new(&t);
        for i in (0..5000u32).step_by(997) {
            let k = format!("key{i:08}");
            let (v, _) = c.seek(k.as_bytes()).unwrap().unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
        }
    }

    #[test]
    fn stateful_cursor_charges_less_cpu_than_cold_searches() {
        let t = build(5000);
        let s = t.storage().clone();
        // Warm the cache so only CPU costs differ.
        let mut c = StatefulCursor::new(&t);
        for i in 0..5000u32 {
            c.seek(format!("key{i:08}").as_bytes()).unwrap();
        }
        let cpu_before = s.stats().cpu_ns;
        let mut c = StatefulCursor::new(&t);
        for i in 0..5000u32 {
            c.seek(format!("key{i:08}").as_bytes()).unwrap();
        }
        let cursor_cpu = s.stats().cpu_ns - cpu_before;

        let cpu_before = s.stats().cpu_ns;
        for i in 0..5000u32 {
            t.search(format!("key{i:08}").as_bytes()).unwrap();
        }
        let cold_cpu = s.stats().cpu_ns - cpu_before;
        assert!(
            cursor_cpu < cold_cpu,
            "cursor {cursor_cpu} vs cold {cold_cpu}"
        );
    }

    /// The cursor holds its leaf's page, not a page number: probes the leaf
    /// covers are answered from it whatever became of the file (a merge
    /// retiring the component mid-walk), and the first probe that has to
    /// descend reports the loss.
    #[test]
    fn a_held_leaf_outlives_its_file() {
        let t = build(5000);
        let mut c = StatefulCursor::new(&t);
        let (v, _) = c.seek(b"key00000000").unwrap().unwrap();
        assert_eq!(v, b"v0");
        let hits_before = t.storage().stats().cache_hits;
        t.destroy().unwrap();
        let (v, ord) = c.seek(b"key00000007").unwrap().unwrap();
        assert_eq!((v.as_slice(), ord), (b"v7".as_slice(), 7));
        assert!(c.seek(b"key00000007x").unwrap().is_none());
        assert_eq!((c.descents, c.leaf_hits), (1, 2));
        assert_eq!(
            t.storage().stats().cache_hits,
            hits_before,
            "no page was asked for"
        );
        assert!(c.seek(b"key00004999").is_err(), "a descent reads the file");
    }

    /// On keys of several widths (pages with `key_width` 0) the cursor
    /// answers every ascending probe — present, absent inside a leaf,
    /// between leaves and past the end — as a root-to-leaf search does.
    #[test]
    fn cursor_matches_search_on_keys_of_mixed_widths() {
        let s = Storage::new(StorageOptions {
            page_size: 256,
            ..StorageOptions::test()
        });
        let key = |i: u32| format!("u{i:04}{}", "~".repeat(i as usize % 5)).into_bytes();
        let mut b = BTreeBuilder::new(s);
        for i in (0..600u32).step_by(2) {
            b.add(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
        let t = b.finish().unwrap();
        assert!(t.num_leaves() > 10);
        let mut c = StatefulCursor::new(&t);
        let mut hits = 0;
        for i in 0..620u32 {
            let probe = key(i);
            let got = c.seek(&probe).unwrap();
            assert_eq!(got, t.search(&probe).unwrap(), "probe {i}");
            hits += usize::from(got.is_some());
        }
        assert_eq!(hits, 300);
        assert!(
            c.leaf_hits > c.descents,
            "{} vs {}",
            c.leaf_hits,
            c.descents
        );
    }

    // ---- differential test against the last-key cursor ---------------------

    /// Entry counts giving trees of height 1, 2 and 3 on 256-byte pages.
    const SIZES: [u32; 3] = [6, 120, 900];

    /// Stored keys are the even numbers below `2 * n`; odd numbers and
    /// everything from `2 * n` up are absent.
    fn numbered(i: u32) -> Vec<u8> {
        format!("k{i:05}").into_bytes()
    }

    fn small_page_tree(n: u32) -> BTree {
        let s = Storage::new(StorageOptions {
            page_size: 256,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(s);
        for i in 0..n {
            b.add(&numbered(2 * i), format!("v{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Every probe of a sorted sequence — present keys, absent keys
        // inside a leaf, keys in the gap between two leaves (above one
        // leaf's last key, below the next one's first), keys past the last
        // leaf, repeats — returns, counts and charges what the last-key
        // cursor does, and reads pages only to descend: one read, the leaf,
        // per descent, none for a probe the held leaf serves (the last-key
        // cursor reads the leaf again for each). Gap pages a forward read streamed are
        // device reads the probe did not ask for, and are not counted.
        #[test]
        fn held_page_cursor_matches_the_last_key_cursor(
            size in 0..3usize,
            picks in proptest::collection::vec((0..2048u32, any::<bool>()), 0..80),
            every_gap in any::<bool>(),
        ) {
            let n = SIZES[size];
            let tree = small_page_tree(n);
            prop_assert_eq!(tree.height() as usize, size + 1);
            let mut probes: Vec<Vec<u8>> = Vec::new();
            for (pick, twice) in picks {
                // Up to a leaf's worth of keys past the end.
                let key = numbered(pick % (2 * n + 16));
                if twice {
                    probes.push(key.clone());
                }
                probes.push(key);
            }
            if every_gap {
                // The odd number just below each leaf's first key.
                for leaf_no in 1..tree.num_leaves() {
                    let first = tree.leaf_first_key(leaf_no).unwrap().unwrap();
                    let first: u32 = std::str::from_utf8(&first[1..]).unwrap().parse().unwrap();
                    probes.push(numbered(first - 1));
                }
            }
            probes.sort();

            let s = tree.storage().clone();
            // (hit, cpu_ns charged, pages read from cache or device)
            let charged = |run: &mut dyn FnMut() -> Option<(Vec<u8>, u64)>| {
                let before = s.stats();
                let hit = run();
                let d = s.stats().since(&before);
                (hit, d.cpu_ns, d.cache_hits + d.disk_reads() - d.bridged_pages)
            };
            let mut cursor = StatefulCursor::new(&tree);
            let mut oracle = oracle::StatefulCursor::new(&tree);
            for key in &probes {
                let descents = cursor.descents;
                let want = charged(&mut || {
                    oracle.seek_pinned(key).unwrap().map(|(v, ord)| (v.to_vec(), ord))
                });
                let got = charged(&mut || cursor.seek(key).unwrap());
                prop_assert_eq!((&got.0, got.1), (&want.0, want.1), "probe {:?}", String::from_utf8_lossy(key));
                prop_assert_eq!(
                    (cursor.descents, cursor.leaf_hits),
                    (oracle.descents, oracle.leaf_hits),
                    "after probe {:?}", String::from_utf8_lossy(key)
                );
                // A descent reads its leaf alone: the router pages are the
                // handle's. The oracle reads the leaf again on every probe.
                let descended = cursor.descents > descents;
                prop_assert_eq!(got.2, u64::from(descended));
                prop_assert_eq!(want.2, 1);
            }
        }
    }
}
