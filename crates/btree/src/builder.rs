//! Bulk loader for immutable B+-tree components.
//!
//! LSM disk components are always produced whole — by a flush of a memory
//! component or by a merge of existing components — so the tree is built
//! bottom-up from a sorted entry stream: leaves are packed and written first
//! (contiguously, so range scans read pages sequentially), then each internal
//! level, the root last. The tree's metadata is a footer on its last page —
//! the root router, or the lone leaf of a one-leaf tree — so a build writes
//! no page for it; only an empty tree, or a last page without room for the
//! footer, appends a page that holds the footer alone.
//!
//! A build owns the page range it appends at the device's write frontier
//! ([`Storage::claim_frontier`]), after the trees already built there, so
//! flushes, merges and repairs that follow one another with no device read
//! between them pay one write seek in all. The build holds the frontier
//! until it finishes or is dropped; a build that starts while another holds
//! it — the pk-index build of a merge that builds two trees in lockstep, a
//! second worker's build — writes a fresh file of its own. Page numbers
//! inside the tree — leaf and router numbers, the footer's root — count
//! from the range's first page, so a tree's pages are the same bytes in
//! either kind of file. A build dropped before it finishes releases its
//! pages.
//!
//! Leaves are written through the device's buffer cache
//! ([`CacheAdmission::Unreferenced`]): a merge that soon reads a fresh
//! component finds its leaves resident, and a build never evicts a page a
//! read has referenced since the CLOCK hand last passed it. Router pages are
//! not cached — the returned handle holds them — and neither is a
//! footer-only page.

use crate::page::{InternalPageBuilder, LeafPageBuilder};
use crate::tree::{BTree, TreeMeta};
use lsm_common::{Error, Result};
use lsm_storage::{CacheAdmission, Storage, WriteFile};
use std::sync::Arc;

/// Streaming bulk loader. Feed strictly ascending keys via [`BTreeBuilder::add`],
/// then call [`BTreeBuilder::finish`].
pub struct BTreeBuilder {
    storage: Arc<Storage>,
    /// The file the build appends to, claimed until the builder drops.
    /// Its first page is the tree's page 0: every page number the tree
    /// stores is relative to it.
    file: WriteFile,
    page_size: usize,
    leaf: LeafPageBuilder,
    /// `(first_key, page_no)` of each completed leaf, for the router levels.
    leaf_index: Vec<(Vec<u8>, u32)>,
    /// Leaves written so far: the next leaf's page number.
    next_page: u32,
    /// The router pages written so far, as the device stored them.
    routers: Vec<Arc<[u8]>>,
    num_entries: u64,
    min_key: Option<Vec<u8>>,
    /// The key added last (meaningful once `num_entries > 0`): what the
    /// next key must exceed and, at `finish`, the tree's `max_key`. One
    /// buffer, overwritten per entry.
    last_key: Vec<u8>,
    /// Set by a successful [`BTreeBuilder::finish`]: a builder dropped
    /// without it releases the pages it wrote.
    finished: bool,
}

impl BTreeBuilder {
    /// Starts building a tree at `storage`'s write frontier, or in a fresh
    /// file if another build holds the frontier.
    pub fn new(storage: Arc<Storage>) -> Self {
        let file = storage.claim_frontier();
        let page_size = storage.page_size();
        BTreeBuilder {
            file,
            storage,
            page_size,
            leaf: LeafPageBuilder::new(page_size, 0),
            leaf_index: Vec::new(),
            next_page: 0,
            routers: Vec::new(),
            num_entries: 0,
            min_key: None,
            last_key: Vec::new(),
            finished: false,
        }
    }

    /// Appends an entry. Keys must be strictly ascending.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.num_entries > 0 && key <= self.last_key.as_slice() {
            return Err(Error::invalid(format!(
                "bulk load keys must be strictly ascending ({:02x?} after {:02x?})",
                key, self.last_key
            )));
        }
        if !self.leaf.fits(key, value) {
            if self.leaf.is_empty() {
                return Err(Error::invalid("entry larger than page size"));
            }
            self.flush_leaf(&[])?;
        }
        self.leaf.add(key, value)?;
        self.num_entries += 1;
        if self.min_key.is_none() {
            self.min_key = Some(key.to_vec());
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        Ok(())
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// The ordinal position the *next* added entry will receive. Merge
    /// repair (Section 4.4, Figure 7) records this per entry so it can set
    /// bitmap bits after validation.
    pub fn next_ordinal(&self) -> u64 {
        self.num_entries
    }

    /// Writes the open leaf, with `footer` behind it (empty but on the
    /// tree's last page), and restarts the builder for the next leaf.
    fn flush_leaf(&mut self, footer: &[u8]) -> Result<()> {
        // INVARIANT: every caller checks that the open leaf holds an entry.
        let first = self.leaf.first_key().expect("flush_leaf on empty leaf");
        let first = first.to_vec();
        let next_base = self.leaf.count() as u64 + self.leaf_base();
        let page = self.leaf.take_shared(next_base, footer);
        let (page_no, _) =
            self.storage
                .append_page_shared(self.file.id(), page, CacheAdmission::Unreferenced)?;
        debug_assert_eq!(page_no, self.file.first() + self.next_page);
        self.leaf_index.push((first, self.next_page));
        self.next_page += 1;
        Ok(())
    }

    fn leaf_base(&self) -> u64 {
        // Entries in completed leaves = total added minus those in the open leaf.
        self.num_entries - self.leaf.count() as u64
    }

    /// Pages the build has appended so far.
    fn pages_written(&self) -> u32 {
        self.next_page + self.routers.len() as u32
    }

    /// Appends router page `page`, which the handle keeps as the device
    /// stored it, and returns its page number in the tree.
    fn append_router(&mut self, page: Vec<u8>) -> Result<u32> {
        let page_no = self.pages_written();
        let (stored_no, stored) =
            self.storage
                .append_page_shared(self.file.id(), page.into(), CacheAdmission::Skip)?;
        debug_assert_eq!(stored_no, self.file.first() + page_no);
        self.routers.push(stored);
        Ok(page_no)
    }

    /// Writes every router level but the root, bottom-up, and returns the
    /// root — unwritten, for the footer to ride on — and the tree's
    /// height. `None` for a tree of at most one leaf, which has no router.
    fn build_routers(&mut self) -> Result<Option<(InternalPageBuilder, u32)>> {
        let mut level = std::mem::take(&mut self.leaf_index);
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, u32)> = Vec::new();
            let mut builder = InternalPageBuilder::new(self.page_size);
            for (key, child) in &level {
                if !builder.fits(key) && !builder.is_empty() {
                    let done =
                        std::mem::replace(&mut builder, InternalPageBuilder::new(self.page_size));
                    let first = done.first_key().unwrap_or_default().to_vec();
                    next_level.push((first, self.append_router(done.finish())?));
                }
                builder.add(key, *child)?;
            }
            if next_level.is_empty() {
                return Ok(Some((builder, height)));
            }
            let first = builder.first_key().unwrap_or_default().to_vec();
            next_level.push((first, self.append_router(builder.finish())?));
            level = next_level;
        }
        Ok(None)
    }

    /// Finalizes the tree and returns a reader over it. The tree's last
    /// page — the root router, or the lone leaf of a one-leaf tree —
    /// carries the metadata footer (`TreeMeta::footer`); only an empty
    /// tree, or a last page without room for it, writes the footer as a
    /// page of its own.
    pub fn finish(mut self) -> Result<BTree> {
        let lone_leaf = self.leaf_index.is_empty() && !self.leaf.is_empty();
        if !lone_leaf && !self.leaf.is_empty() {
            self.flush_leaf(&[])?;
        }
        let num_leaves = self.next_page + u32::from(lone_leaf);
        let root = self.build_routers()?;
        let (root_no, height) = match &root {
            Some((_, height)) => (num_leaves + self.routers.len() as u32, *height),
            None if num_leaves > 0 => (0, 1),
            None => (u32::MAX, 0),
        };
        let meta = TreeMeta {
            root: root_no,
            height,
            num_leaves,
            num_entries: self.num_entries,
            min_key: self.min_key.take(),
            max_key: (self.num_entries > 0).then(|| std::mem::take(&mut self.last_key)),
        };
        let footer = meta.footer();
        let page_size = self.page_size;
        let room = |page_len: usize| page_len + footer.len() <= page_size;
        let carried = match root {
            Some((root, _)) => {
                let mut page = root.finish();
                let fits = room(page.len());
                if fits {
                    page.extend_from_slice(&footer);
                }
                self.append_router(page)?;
                fits
            }
            None if lone_leaf => {
                let fits = room(self.leaf.current_size());
                self.flush_leaf(if fits { &footer } else { &[] })?;
                fits
            }
            None => false,
        };
        if !carried {
            self.storage.append_page(self.file.id(), &footer)?;
        }
        self.finished = true;
        let first = self.file.first();
        let pages = first..first + self.pages_written() + u32::from(!carried);
        let routers = std::mem::take(&mut self.routers);
        Ok(BTree::from_parts(
            self.storage.clone(),
            self.file.id(),
            pages,
            meta,
            routers.into(),
        ))
    }
}

impl Drop for BTreeBuilder {
    /// A build abandoned before [`BTreeBuilder::finish`] succeeded — an
    /// error mid-build, or a caller that gave up — releases the pages it
    /// wrote, so none outlive the failed build; a fresh file left with no
    /// live page is deleted. Either way the frontier goes back after.
    fn drop(&mut self) {
        if !self.finished {
            let first = self.file.first();
            let pages = first..first + self.pages_written();
            let _ = self.storage.release_pages(self.file.id(), pages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::StorageOptions;

    fn storage() -> Arc<Storage> {
        Storage::new(StorageOptions::test())
    }

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{i:08}").into_bytes(),
            format!("value{i}").into_bytes(),
        )
    }

    #[test]
    fn build_empty_tree() {
        let t = BTreeBuilder::new(storage()).finish().unwrap();
        assert_eq!(t.num_entries(), 0);
        assert!(t.search(b"anything").unwrap().is_none());
    }

    #[test]
    fn build_single_entry() {
        let mut b = BTreeBuilder::new(storage());
        b.add(b"k", b"v").unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.num_entries(), 1);
        let (v, ord) = t.search(b"k").unwrap().unwrap();
        assert_eq!(v, b"v");
        assert_eq!(ord, 0);
        assert!(t.search(b"j").unwrap().is_none());
        assert!(t.search(b"l").unwrap().is_none());
    }

    fn fill(mut b: BTreeBuilder, keys: std::ops::Range<u32>) -> BTreeBuilder {
        for i in keys {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        b
    }

    /// An abandoned build releases its pages. In a fresh file — a build
    /// started while another holds the frontier — that deletes the file.
    /// The frontier file stays, and the next build appends after the
    /// released pages.
    #[test]
    fn an_abandoned_build_deletes_its_file() {
        let s = storage();
        let holder = BTreeBuilder::new(s.clone());
        let frontier = holder.file.id();
        let b = fill(BTreeBuilder::new(s.clone()), 0..2000);
        let file = b.file.id();
        assert_ne!(file, frontier, "the frontier was held");
        assert!(s.file_pages(file).unwrap() > 0, "leaves were written");
        drop(b);
        assert!(s.file_pages(file).is_err(), "the partial file is gone");

        drop(fill(holder, 0..2000));
        let end = s.file_pages(frontier).unwrap();
        assert!(end > 0, "leaves were written");
        assert!((0..end).all(|p| s.page_data(frontier, p).is_err()));
        let t = BTreeBuilder::new(s.clone()).finish().unwrap();
        assert_eq!((t.file(), t.pages()), (frontier, end..end + 1));
    }

    /// Trees built one after another append at the frontier: each owns a
    /// page range of one file, with the pages it would have in a file of
    /// its own, and the second build pays no write seek. Each reopens from
    /// its last page and answers alone; a build abandoned after them
    /// releases only its own pages; destroying one tree leaves the other
    /// whole, and the frontier file outlives both.
    #[test]
    fn trees_built_back_to_back_share_a_file() {
        let s = storage();
        let a = fill(BTreeBuilder::new(s.clone()), 0..2000)
            .finish()
            .unwrap();
        let seeks = s.stats().write_seeks;
        let b = fill(BTreeBuilder::new(s.clone()), 5000..5010)
            .finish()
            .unwrap();
        assert_eq!(s.stats().write_seeks, seeks, "b continued a");
        let file = a.file();
        assert_eq!(b.file(), file, "the frontier came back after a");
        assert!(a.height() >= 2);
        assert_eq!((a.pages().start, a.pages().end), (0, b.pages().start));
        assert_eq!(b.pages().end, s.file_pages(file).unwrap());
        let alone = fill(BTreeBuilder::new(storage()), 0..2000)
            .finish()
            .unwrap();
        assert_eq!(
            (a.pages().len(), a.byte_size()),
            (alone.pages().len(), alone.byte_size())
        );
        for (p, q) in a.pages().zip(alone.pages()) {
            assert_eq!(
                s.page_data(file, p).unwrap(),
                alone.storage().page_data(alone.file(), q).unwrap()
            );
        }

        let a = BTree::open_at(s.clone(), file, a.pages().end - 1).unwrap();
        let b = BTree::open(s.clone(), file).unwrap();
        let found = |t: &BTree, i| t.search(&kv(i).0).unwrap().map(|(v, _)| v);
        for i in (0..2000).step_by(37).chain(5000..5010) {
            let (mine, other) = if i < 2000 { (&a, &b) } else { (&b, &a) };
            assert_eq!(found(mine, i), Some(kv(i).1), "{i}");
            assert_eq!(found(other, i), None, "{i}");
        }
        let count = |t: &BTree| {
            let mut scan = t.scan_all().unwrap();
            std::iter::from_fn(|| scan.next_entry().unwrap()).count()
        };
        assert_eq!((count(&a), count(&b)), (2000, 10));

        let end = b.pages().end;
        drop(fill(BTreeBuilder::new(s.clone()), 9000..9500));
        let written = s.file_pages(file).unwrap();
        assert!(written > end, "the abandoned build wrote pages");
        assert!((end..written).all(|p| s.page_data(file, p).is_err()));

        let size = a.byte_size();
        a.destroy().unwrap();
        assert_eq!(a.byte_size(), size, "a released tree keeps its size");
        assert!(a.pages().all(|p| s.page_data(file, p).is_err()));
        assert!(s.read_page(file, 0).is_err());
        assert_eq!(found(&b, 5003), Some(kv(5003).1));
        assert_eq!(count(&b), 10);
        b.destroy().unwrap();
        assert_eq!(
            s.file_pages(file).unwrap(),
            written,
            "the frontier outlived its last tree"
        );
        let c = BTreeBuilder::new(s.clone()).finish().unwrap();
        assert_eq!((c.file(), c.pages().start), (file, written));
    }

    #[test]
    fn rejects_non_ascending_keys() {
        let mut b = BTreeBuilder::new(storage());
        b.add(b"b", b"1").unwrap();
        assert!(b.add(b"b", b"2").is_err());
        // The error names the offending key and the one it had to exceed.
        let msg = b.add(b"a", b"3").unwrap_err().to_string();
        assert!(msg.contains("[61] after [62]"), "{msg}");
        // A rejected key does not become the bound.
        b.add(b"c", b"4").unwrap();
        assert_eq!(b.finish().unwrap().max_key().unwrap(), b"c");
    }

    #[test]
    fn build_multi_level_and_search_all() {
        let s = storage();
        let mut b = BTreeBuilder::new(s);
        let n = 5000u32;
        for i in 0..n {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.num_entries(), n as u64);
        assert!(
            t.height() >= 2,
            "expected router levels, got {}",
            t.height()
        );
        for i in (0..n).step_by(97) {
            let (k, v) = kv(i);
            let (got, ord) = t.search(&k).unwrap().unwrap();
            assert_eq!(got, v);
            assert_eq!(ord, i as u64);
        }
        assert!(t.search(b"key99999999x").unwrap().is_none());
        assert!(t.search(b"a").unwrap().is_none());
    }

    /// Leaves are written through the buffer cache; router pages are not
    /// (the handle keeps them, the root with the footer it carries). After
    /// a build the cache holds whole, every leaf's first read hits, and
    /// every other page's misses.
    #[test]
    fn leaves_are_written_through_the_cache_routers_and_meta_are_not() {
        let s = Storage::new(StorageOptions {
            cache_pages: 1024,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(s.clone());
        for i in 0..5000u32 {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        let t = b.finish().unwrap();
        let (leaves, pages) = (t.num_leaves(), s.file_pages(t.file()).unwrap());
        assert!(t.height() >= 2, "routers: {pages} pages, {leaves} leaves");
        let reads = |range: std::ops::Range<u32>| {
            let before = s.stats();
            for p in range {
                s.read_page(t.file(), p).unwrap();
            }
            let io = s.stats().since(&before);
            (io.cache_hits, io.disk_reads())
        };
        assert_eq!(reads(0..leaves), (u64::from(leaves), 0));
        assert_eq!(reads(leaves..pages), (0, u64::from(pages - leaves)));
    }

    #[test]
    fn min_max_keys_recorded() {
        let s = storage();
        let mut b = BTreeBuilder::new(s);
        for i in 10..20u32 {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.min_key().unwrap(), kv(10).0.as_slice());
        assert_eq!(t.max_key().unwrap(), kv(19).0.as_slice());
    }

    #[test]
    fn oversized_entry_rejected() {
        let s = storage();
        let big = vec![0u8; s.page_size() + 1];
        let mut b = BTreeBuilder::new(s);
        assert!(b.add(b"k", &big).is_err());
    }

    #[test]
    fn reopen_matches_built_tree() {
        let s = storage();
        let mut b = BTreeBuilder::new(s.clone());
        for i in 0..500u32 {
            let (k, v) = kv(i);
            b.add(&k, &v).unwrap();
        }
        let built = b.finish().unwrap();
        let reopened = BTree::open(s, built.file()).unwrap();
        assert_eq!(reopened.num_entries(), built.num_entries());
        assert_eq!(reopened.height(), built.height());
        let (k, v) = kv(123);
        assert_eq!(reopened.search(&k).unwrap().unwrap().0, v);
    }

    /// Each leaf's ordinal word is the number of entries on the leaves
    /// before it, and the last leaf ends at the tree's entry count.
    #[test]
    fn leaf_ordinals_run_on_from_leaf_to_leaf() {
        let s = Storage::new(StorageOptions {
            page_size: 256,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(s.clone());
        for i in 0..700u32 {
            b.add(format!("k{i:05}").as_bytes(), &vec![7; (i % 13) as usize])
                .unwrap();
        }
        let t = b.finish().unwrap();
        assert!(t.num_leaves() > 10);
        let mut next = 0u64;
        for leaf_no in 0..t.num_leaves() {
            let data = t.read_leaf(leaf_no).unwrap();
            let leaf = crate::page::LeafPage::parse(&data).unwrap();
            assert!(leaf.count() > 0, "leaf {leaf_no} is empty");
            assert_eq!(leaf.base_ordinal(), next, "leaf {leaf_no}");
            next += leaf.count() as u64;
        }
        assert_eq!(next, t.num_entries());
    }

    /// Keys of several widths are stored through key ends (`key_width` 0)
    /// and every one is found, with its ordinal, across many leaves.
    #[test]
    fn keys_of_mixed_widths_build_and_search() {
        let s = Storage::new(StorageOptions {
            page_size: 256,
            ..StorageOptions::test()
        });
        let key = |i: u32| format!("u{i:04}{}", "~".repeat(i as usize % 4)).into_bytes();
        let mut b = BTreeBuilder::new(s);
        for i in 0..400u32 {
            b.add(&key(i), &i.to_le_bytes()).unwrap();
        }
        let t = b.finish().unwrap();
        assert!(t.height() >= 2);
        for leaf_no in 0..t.num_leaves() {
            let data = t.read_leaf(leaf_no).unwrap();
            if crate::page::LeafPage::parse(&data).unwrap().count() > 1 {
                assert_eq!(&data[10..12], &[0, 0], "leaf {leaf_no}");
            }
        }
        for i in 0..400u32 {
            let (v, ord) = t.search(&key(i)).unwrap().unwrap();
            assert_eq!((v, ord), (i.to_le_bytes().to_vec(), u64::from(i)));
            let mut absent = key(i);
            absent.push(b'!');
            assert!(t.search(&absent).unwrap().is_none());
        }
    }

    /// FNV-1a digests of the tree's file: `(leaves, whole)` — the leaf
    /// pages alone (length-prefixed), and every page plus the key bounds
    /// and entry count. Any byte the builder writes differently moves
    /// `whole`; only a leaf byte moves `leaves`.
    fn tree_digest(t: &BTree, s: &Storage) -> (u64, u64) {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let (mut leaves, mut whole) = (0xcbf2_9ce4_8422_2325_u64, 0xcbf2_9ce4_8422_2325_u64);
        for p in 0..s.file_pages(t.file()).unwrap() {
            let page = s.read_page(t.file(), p).unwrap();
            if p < t.num_leaves() {
                eat(&mut leaves, &page);
            }
            eat(&mut whole, &page);
        }
        eat(&mut whole, t.min_key().unwrap());
        eat(&mut whole, t.max_key().unwrap());
        eat(&mut whole, &t.num_entries().to_le_bytes());
        (leaves, whole)
    }

    /// The builder must not move a byte by accident: one fixed stream,
    /// digests recorded from the commit before the builder's allocation
    /// diet and re-recorded twice: when leaves and router pages became key
    /// strips (the page count held: no page boundary moved), and when the
    /// metadata page became a footer on the root router (56 → 55 pages;
    /// the leaf digest held, only the root page and the missing metadata
    /// page moved `whole`).
    #[test]
    fn built_pages_match_recorded_digests() {
        let s = storage();
        let mut b = BTreeBuilder::new(s.clone());
        for i in 0..3000u32 {
            let key = format!("user{:05}/item{:07}", i / 40, i * 13);
            let value = vec![(i % 251) as u8; (i * 7 % 90) as usize];
            b.add(key.as_bytes(), &value).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.num_entries(), 3000);
        assert_eq!(t.min_key().unwrap(), b"user00000/item0000000");
        assert_eq!(t.max_key().unwrap(), b"user00074/item0038987");
        assert_eq!(s.file_pages(t.file()).unwrap(), 55);
        assert_eq!(
            tree_digest(&t, &s),
            (0xbecd_8134_723f_9cdb, 0x1091_2b10_cb40_cd10)
        );
    }

    /// A 2 MiB page has room for more than `u16::MAX` pk-index-sized
    /// entries; the leaves stop at that many, so no count wraps and every
    /// key is found.
    #[test]
    fn huge_pages_cap_their_entry_count() {
        let s = Storage::new(StorageOptions {
            page_size: 2 << 20,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(s);
        let key = |i: u32| i.to_be_bytes();
        for i in 0..200_000u32 {
            b.add(&key(i), &[0; 8]).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.num_leaves(), 200_000u32.div_ceil(u16::MAX.into()));
        for i in 0..200_000u32 {
            assert_eq!(t.search(&key(i)).unwrap().unwrap().1, u64::from(i));
        }
    }
}
