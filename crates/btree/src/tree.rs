//! Read-side of the immutable B+-tree.
//!
//! A [`BTree`] is a handle over a finished tree: the page range of a file it
//! owns (its share of the device's write frontier, or a fresh file of its
//! own when its build found the frontier held), its root, height,
//! leaf count and key range. Its size is its own pages, and
//! [`BTree::destroy`] releases them. It holds the router pages and provides
//! point search (returning the entry's global ordinal, which bitmaps index
//! by), leaf location for cursors, and range/full scans that read leaves
//! sequentially.
//!
//! The router pages are read once — written by the builder, or read by
//! [`BTree::open`] — and kept in the handle, the way the LSM layer keeps a
//! component's Bloom filter: a root-to-leaf walk routes on them without
//! asking the storage layer, so a point search reads one page, its leaf.
//! They are a small share of the file (one router page per fanout's worth
//! of leaves), as in the paper's testbed, whose router levels never leave
//! the buffer cache.
//!
//! The tree's metadata is no page of its own: it is a footer
//! (`TreeMeta::footer`) on the range's last page — the root router, or a
//! one-leaf tree's leaf — unless that page had no room for it.
//! [`BTree::open_at`] reopens a tree from that page.

use crate::encoding::{get_slice, put_slice};
use crate::page::{InternalPage, LeafPage, LeafShape};
use crate::walk::{LeafWalk, Slot, Span};
use lsm_common::{Error, Result};
use lsm_storage::{Event, FileId, PageNo, PageSlice, Storage, ValueBuf};
use std::ops::{Bound, Range};
use std::sync::Arc;

/// Magic number ending a tree's metadata footer.
pub const META_MAGIC: u32 = 0x4C53_4D42; // "LSMB"

/// The footer's fixed-width fields: root, height, leaves (`u32` each) and
/// entries (`u64`).
const FOOTER_FIXED: usize = 20;

/// Bytes after the footer's fields: their length and [`META_MAGIC`].
const FOOTER_TAIL: usize = 8;

/// Decoded tree metadata.
#[derive(Debug, Clone)]
pub struct TreeMeta {
    /// Root page (leaf 0 for single-leaf trees; `u32::MAX` when empty).
    pub root: u32,
    /// Levels including the leaf level; 0 for an empty tree.
    pub height: u32,
    /// Number of leaf pages (pages `0..num_leaves`).
    pub num_leaves: u32,
    /// Total entries.
    pub num_entries: u64,
    /// Smallest key, if any.
    pub min_key: Option<Vec<u8>>,
    /// Largest key, if any.
    pub max_key: Option<Vec<u8>>,
}

impl TreeMeta {
    /// The footer that ends a tree's last page:
    ///
    /// ```text
    /// [root u32][height u32][num_leaves u32][num_entries u64]
    /// [min_key slice][max_key slice][length of the above u32][META_MAGIC u32]
    /// ```
    ///
    /// It rides on the root router, or on the lone leaf of a one-leaf
    /// tree; an empty tree, or a last page without room for it, writes it
    /// as a page of its own.
    pub(crate) fn footer(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.root.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.num_leaves.to_le_bytes());
        out.extend_from_slice(&self.num_entries.to_le_bytes());
        put_slice(&mut out, self.min_key.as_deref().unwrap_or(b""));
        put_slice(&mut out, self.max_key.as_deref().unwrap_or(b""));
        let fields = out.len() as u32;
        out.extend_from_slice(&fields.to_le_bytes());
        out.extend_from_slice(&META_MAGIC.to_le_bytes());
        out
    }

    /// Decodes the footer that ends `page`. Returns the metadata and the
    /// length of the page the footer rides on: 0 for a footer-only page.
    /// A page that does not end in a whole footer is
    /// [`Error::Corruption`].
    fn from_footer(page: &[u8]) -> Result<(Self, usize)> {
        let corrupt = |what: &str| Error::corruption(format!("btree footer: {what}"));
        let (rest, tail) = page
            .split_last_chunk::<FOOTER_TAIL>()
            .ok_or_else(|| corrupt("page too short"))?;
        let [l0, l1, l2, l3, magic @ ..] = *tail;
        if magic != META_MAGIC.to_le_bytes() {
            return Err(corrupt("bad magic"));
        }
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let carrier = rest
            .len()
            .checked_sub(len)
            .ok_or_else(|| corrupt("longer than its page"))?;
        let fields = &rest[carrier..];
        let (fixed, keys) = fields
            .split_first_chunk::<FOOTER_FIXED>()
            .ok_or_else(|| corrupt("fields too short"))?;
        let word = |at: usize| u32::from_le_bytes(std::array::from_fn(|i| fixed[at + i]));
        let (root, height, num_leaves) = (word(0), word(4), word(8));
        let num_entries = u64::from_le_bytes(std::array::from_fn(|i| fixed[12 + i]));
        let (min_raw, n) = get_slice(keys)?;
        let (max_raw, m) = get_slice(&keys[n..])?;
        if n + m != keys.len() {
            return Err(corrupt("length does not match its fields"));
        }
        let (min_key, max_key) = if num_entries == 0 {
            (None, None)
        } else {
            (Some(min_raw.to_vec()), Some(max_raw.to_vec()))
        };
        let meta = TreeMeta {
            root,
            height,
            num_leaves,
            num_entries,
            min_key,
            max_key,
        };
        Ok((meta, carrier))
    }
}

/// One of the [`Storage`] page reads: `read_page` or `read_page_forward`.
type PageRead = fn(&Storage, FileId, PageNo) -> Result<Arc<[u8]>>;

/// An immutable B+-tree stored in a range of pages of one simulated file.
#[derive(Clone)]
pub struct BTree {
    storage: Arc<Storage>,
    file: FileId,
    /// The file's pages the tree owns, a footer-only page included. Every
    /// page number the tree stores — in its routers and its footer — is
    /// relative to their start.
    pages: Range<PageNo>,
    meta: TreeMeta,
    /// The router pages `num_leaves..` of the tree, in page order, each
    /// the very buffer the device stores.
    routers: Arc<[Arc<[u8]>]>,
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("file", &self.file)
            .field("pages", &self.pages)
            .field("meta", &self.meta)
            .field("routers", &self.routers.len())
            .finish()
    }
}

impl BTree {
    pub(crate) fn from_parts(
        storage: Arc<Storage>,
        file: FileId,
        pages: Range<PageNo>,
        meta: TreeMeta,
        routers: Arc<[Arc<[u8]>]>,
    ) -> Self {
        BTree {
            storage,
            file,
            pages,
            meta,
            routers,
        }
    }

    /// Opens the tree that ends on `file`'s last page: see
    /// [`BTree::open_at`].
    pub fn open(storage: Arc<Storage>, file: FileId) -> Result<Self> {
        let last_no = storage
            .file_pages(file)?
            .checked_sub(1)
            .ok_or_else(|| Error::corruption("btree file has no pages"))?;
        Self::open_at(storage, file, last_no)
    }

    /// Opens the tree built in `file` whose last page is `last_no`: reads
    /// that page and the footer that ends it, then each other router page
    /// once, and keeps the router pages. The last page is a router (the
    /// root) or the lone leaf when the footer rides on it, and is skipped
    /// when it holds the footer alone. The footer's root gives the tree's
    /// page count, so its first page.
    pub fn open_at(storage: Arc<Storage>, file: FileId, last_no: PageNo) -> Result<Self> {
        let last = storage.read_page(file, last_no)?;
        let (meta, carrier) = TreeMeta::from_footer(&last)?;
        // One past the tree's last page in the tree's numbering: a
        // footer-only page is none of its.
        let end = match meta.height {
            0 => Some(0),
            _ => meta.root.checked_add(1),
        };
        let first = end
            .and_then(|end| end.checked_add(u32::from(carrier == 0)))
            .filter(|&count| count > 0)
            .and_then(|count| (last_no + 1).checked_sub(count));
        let (Some(end), Some(first)) = (end, first) else {
            return Err(Error::corruption(format!(
                "footer's root {} of height {} does not end on page {last_no}",
                meta.root, meta.height
            )));
        };
        if meta.num_leaves > end {
            return Err(Error::corruption(format!(
                "footer claims {} leaves in a tree of {end} pages",
                meta.num_leaves
            )));
        }
        let routers = (first + meta.num_leaves..first + end)
            .map(|page_no| {
                if page_no == last_no {
                    Ok(last.clone())
                } else {
                    storage.read_page(file, page_no)
                }
            })
            .collect::<Result<Arc<[_]>>>()?;
        // Each router level holds a page: a taller tree would descend
        // through pages it does not have, or loop on a damaged one.
        if meta.height as usize > routers.len() + 1 {
            return Err(Error::corruption(format!(
                "footer claims height {} over {} router pages",
                meta.height,
                routers.len()
            )));
        }
        Ok(BTree {
            storage,
            file,
            pages: first..last_no + 1,
            meta,
            routers,
        })
    }

    /// The backing file.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The storage device this tree lives on.
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// Total number of entries.
    pub fn num_entries(&self) -> u64 {
        self.meta.num_entries
    }

    /// Number of leaf pages.
    pub fn num_leaves(&self) -> u32 {
        self.meta.num_leaves
    }

    /// Tree height (leaf level included); 0 when empty.
    pub fn height(&self) -> u32 {
        self.meta.height
    }

    /// Smallest stored key.
    #[cfg(test)]
    pub(crate) fn min_key(&self) -> Option<&[u8]> {
        self.meta.min_key.as_deref()
    }

    /// Largest stored key.
    #[cfg(test)]
    pub(crate) fn max_key(&self) -> Option<&[u8]> {
        self.meta.max_key.as_deref()
    }

    /// The file's pages the tree owns.
    pub fn pages(&self) -> Range<PageNo> {
        self.pages.clone()
    }

    /// On-disk size in bytes: the tree's pages, whole.
    pub fn byte_size(&self) -> u64 {
        self.pages.len() as u64 * self.storage.page_size() as u64
    }

    /// Charges `nodes` node visits and the `cmps` key comparisons made
    /// inside them.
    pub(crate) fn charge_nodes(&self, nodes: u32, cmps: u32) {
        self.storage.charge_each([
            (Event::NodeVisit, u64::from(nodes)),
            (Event::KeyCmp, u64::from(cmps)),
        ]);
    }

    /// Router page `page_no`, from the handle: [`Error::Corruption`] when
    /// the file has no router page of that number.
    fn router(&self, page_no: PageNo) -> Result<&[u8]> {
        page_no
            .checked_sub(self.meta.num_leaves)
            .and_then(|i| self.routers.get(i as usize))
            .map(|page| &**page)
            .ok_or_else(|| {
                Error::corruption(format!(
                    "routed to page {page_no}, not one of the router pages {}..{}",
                    self.meta.num_leaves,
                    self.meta.num_leaves as usize + self.routers.len()
                ))
            })
    }

    /// Walks the router levels down to the leaf page that would contain
    /// `key`, charging nothing and reading no page: the router pages are
    /// the handle's. Returns the leaf and the comparisons made on the
    /// `height - 1` internal pages, for the caller to charge. `None` on an
    /// empty tree; [`Error::Corruption`] when a child number names no
    /// router page above the leaves' parent, or no leaf below it.
    fn descend(&self, key: &[u8]) -> Result<Option<(PageNo, u32)>> {
        if self.meta.height == 0 {
            return Ok(None);
        }
        let mut page_no = self.meta.root;
        let mut cmps = 0;
        for _ in 1..self.meta.height {
            let (_, child, c) = InternalPage::parse(self.router(page_no)?)?.route(key)?;
            cmps += c;
            page_no = child;
        }
        if page_no >= self.meta.num_leaves {
            return Err(Error::corruption(format!(
                "routed to page {page_no}, not one of the {} leaves",
                self.meta.num_leaves
            )));
        }
        Ok(Some((page_no, cmps)))
    }

    /// Descends to the leaf page that would contain `key`, charging the
    /// router levels' node visits and comparisons. Returns `None` on an
    /// empty tree.
    pub(crate) fn locate_leaf(&self, key: &[u8]) -> Result<Option<PageNo>> {
        let Some((leaf_no, cmps)) = self.descend(key)? else {
            return Ok(None);
        };
        self.charge_nodes(self.meta.height - 1, cmps);
        Ok(Some(leaf_no))
    }

    /// Point lookup. Returns `(value, global ordinal)` if the key exists.
    pub fn search(&self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>> {
        Ok(self.search_pinned(key)?.map(|(v, ord)| (v.to_vec(), ord)))
    }

    /// Point lookup without copying the value: the returned [`PageSlice`]
    /// pins the cached leaf page and references the value bytes in place.
    /// This is the zero-copy entry point the LSM lookup path uses; plain
    /// [`BTree::search`] copies at the same spot callers always paid. The
    /// whole root-to-leaf walk is charged in one call.
    pub fn search_pinned(&self, key: &[u8]) -> Result<Option<(PageSlice, u64)>> {
        self.search_with(key, Storage::read_page)
    }

    /// [`BTree::search_pinned`] for one probe of an ascending sequence —
    /// the sorted fetch of Section 3.2: the leaf is read with
    /// [`Storage::read_page_forward`], so a leaf a few pages past the last
    /// one the device read is streamed to instead of sought.
    pub fn search_pinned_forward(&self, key: &[u8]) -> Result<Option<(PageSlice, u64)>> {
        self.search_with(key, Storage::read_page_forward)
    }

    /// The point search, reading its leaf with `read_leaf`.
    fn search_with(&self, key: &[u8], read_leaf: PageRead) -> Result<Option<(PageSlice, u64)>> {
        let Some((leaf_no, router_cmps)) = self.descend(key)? else {
            return Ok(None);
        };
        let data = read_leaf(&self.storage, self.file, self.pages.start + leaf_no)?;
        let leaf = LeafPage::parse(&data)?;
        let (found, cmps) = leaf.search(key)?;
        self.charge_nodes(self.meta.height, router_cmps + cmps);
        self.pinned_match(&data, &leaf, found)
    }

    /// What a point search answers for an in-leaf search result: the
    /// matched entry's value — pinning `data`, the page `leaf` views — and
    /// its global ordinal.
    pub(crate) fn pinned_match(
        &self,
        data: &Arc<[u8]>,
        leaf: &LeafPage<'_>,
        found: std::result::Result<usize, usize>,
    ) -> Result<Option<(PageSlice, u64)>> {
        self.check_ordinals(leaf.shape())?;
        let Ok(idx) = found else {
            return Ok(None);
        };
        let (_, v) = leaf.entry(idx)?;
        let ordinal = leaf.base_ordinal() + idx as u64;
        Ok(Some((PageSlice::from_subslice(data, v), ordinal)))
    }

    /// [`Error::Corruption`] unless every ordinal of `leaf` is one of the
    /// tree's: a damaged ordinal word would otherwise reach the validity
    /// bitmaps, which index by ordinal, out of bounds.
    fn check_ordinals(&self, leaf: LeafShape) -> Result<()> {
        let (base, count) = (leaf.base_ordinal(), leaf.count() as u64);
        match base.checked_add(count) {
            Some(end) if end <= self.meta.num_entries => Ok(()),
            _ => Err(Error::corruption(format!(
                "leaf of {count} entries from ordinal {base} runs past the tree's {}",
                self.meta.num_entries
            ))),
        }
    }

    /// Reads leaf page `leaf_no`, returning the raw page bytes for
    /// [`LeafPage::parse`], which reads the header alone.
    pub(crate) fn read_leaf(&self, leaf_no: PageNo) -> Result<Arc<[u8]>> {
        debug_assert!(leaf_no < self.meta.num_leaves);
        self.storage
            .read_page(self.file, self.pages.start + leaf_no)
    }

    /// The first key stored on leaf page `leaf_no`: every key on earlier
    /// leaves sorts strictly below it. `None` only for an empty leaf (which
    /// the bulk loader never writes). Tests check leaf location with it.
    #[cfg(test)]
    pub(crate) fn leaf_first_key(&self, leaf_no: PageNo) -> Result<Option<Vec<u8>>> {
        let data = self.read_leaf(leaf_no)?;
        let leaf = LeafPage::parse(&data)?;
        Ok(leaf.first_key()?.map(<[u8]>::to_vec))
    }

    /// Creates a scan over entries in `[lo, hi]` (bounds on encoded keys).
    ///
    /// A bounded `hi` is routed with a descent of its own (its router
    /// comparisons charged as [`Event::KeyCmp`]), and no read-ahead burst —
    /// nor any leaf read — goes past the leaf it routes to, whose
    /// successors hold only keys above `hi`. Only a scan with an unbounded
    /// `hi` reads ahead as far as the tree goes.
    pub fn scan(&self, lo: Bound<&[u8]>, hi: Bound<Vec<u8>>) -> Result<BTreeScan> {
        let (start_leaf, start_idx) = match lo {
            Bound::Unbounded => (0, 0),
            Bound::Included(k) | Bound::Excluded(k) => match self.locate_leaf(k)? {
                None => (0, 0),
                Some(leaf_no) => {
                    let data = self.read_leaf(leaf_no)?;
                    let leaf = LeafPage::parse(&data)?;
                    let (found, cmps) = leaf.search(k)?;
                    self.charge_nodes(1, cmps);
                    let idx = match (found, lo) {
                        (Ok(i), Bound::Included(_)) => i,
                        (Ok(i), _) => i + 1,
                        (Err(i), _) => i,
                    };
                    (leaf_no, idx)
                }
            },
        };
        let end_leaf = match &hi {
            Bound::Unbounded => self.meta.num_leaves,
            Bound::Included(h) | Bound::Excluded(h) => match self.descend(h)? {
                None => 0,
                Some((leaf_no, cmps)) => {
                    self.storage.charge(Event::KeyCmp, u64::from(cmps));
                    leaf_no + 1
                }
            },
        };
        Ok(BTreeScan::new(
            self.clone(),
            start_leaf,
            start_idx,
            end_leaf,
            hi,
        ))
    }

    /// Scans the whole tree in key order.
    pub fn scan_all(&self) -> Result<BTreeScan> {
        self.scan(Bound::Unbounded, Bound::Unbounded)
    }

    /// Releases the tree's pages (after the component is dropped by a
    /// merge); the file goes with the last tree in it.
    pub fn destroy(&self) -> Result<()> {
        self.storage.release_pages(self.file, self.pages.clone())
    }
}

/// Streaming scan over a key range. Leaves are contiguous pages, so the
/// underlying reads are sequential.
///
/// The scan works a leaf at a time: it holds the current leaf's page and
/// its parsed header once, and [`BTreeScan::advance`] steps to the next
/// entry without copying it — [`BTreeScan::entry`] lends the key, value and
/// ordinal as slices that live until the next `advance`. A k-way merge
/// that must step a source *before* it hands the source's entry on calls
/// [`BTreeScan::hold`] first: the held entry (and, across a leaf boundary,
/// its page) stays readable through [`BTreeScan::held`] until the next
/// `hold`. [`BTreeScan::next_entry`] / [`BTreeScan::next_entry_pinned`]
/// are the owning wrappers.
pub struct BTreeScan {
    tree: BTree,
    hi: Bound<Vec<u8>>,
    done: bool,
    /// The leaf [`BTreeScan::advance`] loads once the current one runs out.
    next_leaf: PageNo,
    /// One past the last leaf the range can reach: no leaf from here on is
    /// read, nor read ahead.
    end_leaf: PageNo,
    /// Entry index the walk over `next_leaf` starts at (non-zero only for
    /// the first leaf of a lower-bounded scan).
    start_idx: usize,
    /// First leaf not yet covered by a read-ahead burst.
    next_readahead: PageNo,
    /// Private scan buffer holding the current burst, so interleaved scans
    /// (k-way merges over many components) do not thrash the shared cache.
    buffer_start: PageNo,
    buffer: Vec<Arc<[u8]>>,
    /// The current leaf: its page, held once, and the walk over it.
    leaf: Option<(Arc<[u8]>, LeafWalk)>,
    /// The entry the scan stands on.
    cur: Slot,
    /// The entry [`BTreeScan::hold`] was last called on, and its page once
    /// the scan has left it (`None` while it is still `leaf`).
    held: Slot,
    held_leaf: Option<Arc<[u8]>>,
    held_on_leaf: bool,
}

impl BTreeScan {
    fn new(
        tree: BTree,
        start_leaf: PageNo,
        start_idx: usize,
        end_leaf: PageNo,
        hi: Bound<Vec<u8>>,
    ) -> Self {
        BTreeScan {
            done: tree.meta.num_leaves == 0,
            tree,
            hi,
            next_leaf: start_leaf,
            end_leaf,
            start_idx,
            next_readahead: start_leaf,
            buffer_start: 0,
            buffer: Vec::new(),
            leaf: None,
            cur: Slot::default(),
            held: Slot::default(),
            held_leaf: None,
            held_on_leaf: false,
        }
    }

    /// Steps to the next entry; `false` at the end of the range. Charges
    /// one comparison-equivalent per entry stepped onto.
    pub fn advance(&mut self) -> Result<bool> {
        loop {
            if self.done {
                return Ok(false);
            }
            if let Some((page, walk)) = &mut self.leaf {
                if let Some(slot) = walk.next(page)? {
                    let key = slot.key.of(page);
                    let within = match &self.hi {
                        Bound::Unbounded => true,
                        Bound::Included(h) => key <= h.as_slice(),
                        Bound::Excluded(h) => key < h.as_slice(),
                    };
                    if !within {
                        self.done = true;
                        return Ok(false);
                    }
                    self.cur = slot;
                    // Streaming cost: one comparison-equivalent per entry.
                    self.tree.storage.charge(Event::KeyCmp, 1);
                    return Ok(true);
                }
            }
            if self.next_leaf >= self.end_leaf {
                self.done = true;
                return Ok(false);
            }
            self.load_next_leaf()?;
        }
    }

    /// Makes `next_leaf` the current leaf.
    fn load_next_leaf(&mut self) -> Result<()> {
        let leaf_no = self.next_leaf;
        // Issue a read-ahead burst so the sequential leaf reads are
        // amortized over one seek (the paper's 4MB read-ahead), and keep
        // the burst in a private buffer so interleaved scans don't re-pay
        // for pages evicted from the shared cache.
        if leaf_no >= self.next_readahead {
            let ra = self.tree.storage.readahead_pages();
            let count = ra.min(self.end_leaf - leaf_no);
            // One batched call charges the burst AND returns the page
            // handles — no per-page `page_data` re-locking.
            self.buffer = self.tree.storage.read_pages(
                self.tree.file,
                self.tree.pages.start + leaf_no,
                count,
            )?;
            self.buffer_start = leaf_no;
            self.next_readahead = leaf_no + count;
        }
        let buffered = leaf_no
            .checked_sub(self.buffer_start)
            .and_then(|i| self.buffer.get(i as usize));
        let page = match buffered {
            Some(page) => page.clone(),
            None => self.tree.read_leaf(leaf_no)?,
        };
        let walk = LeafWalk::open_at(&page, std::mem::take(&mut self.start_idx))?;
        self.tree.check_ordinals(walk.shape())?;
        let left = self.leaf.replace((page, walk));
        if std::mem::take(&mut self.held_on_leaf) {
            self.held_leaf = left.map(|(page, _)| page);
        }
        self.next_leaf = leaf_no + 1;
        Ok(())
    }

    fn page(&self) -> &[u8] {
        self.leaf.as_ref().map_or(&[], |(page, _)| page)
    }

    /// The entry the scan stands on — `(key, value, ordinal)`, lent until
    /// the next [`BTreeScan::advance`]. Meaningful once `advance` has
    /// returned `true`.
    #[inline]
    pub fn entry(&self) -> (&[u8], &[u8], u64) {
        self.cur.of(self.page())
    }

    /// Keeps the entry the scan stands on readable through
    /// [`BTreeScan::held`] while the scan advances past it, until the next
    /// `hold`.
    #[inline]
    pub fn hold(&mut self) {
        self.held = self.cur;
        self.held_leaf = None;
        self.held_on_leaf = true;
    }

    fn held_page(&self) -> &[u8] {
        self.held_leaf.as_deref().unwrap_or_else(|| self.page())
    }

    /// The entry [`BTreeScan::hold`] was last called on.
    #[inline]
    pub fn held(&self) -> (&[u8], &[u8], u64) {
        self.held.of(self.held_page())
    }

    /// The held entry's value from byte `from` on, pinning its page — what
    /// an owning consumer keeps after the scan has moved on.
    pub fn held_value_pinned(&self, from: usize) -> PageSlice {
        let page = self.held_leaf.as_ref().or(self.leaf.as_ref().map(|l| &l.0));
        pin(page, self.held.value, from)
    }

    /// Returns the next `(key, value, ordinal)`, or `None` at end of range.
    #[allow(clippy::type_complexity)]
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>, u64)>> {
        if !self.advance()? {
            return Ok(None);
        }
        let (key, value, ordinal) = self.entry();
        Ok(Some((key.to_vec(), value.to_vec(), ordinal)))
    }

    /// Like [`BTreeScan::next_entry`] but the value pins the scan-buffer
    /// page instead of being copied out — the zero-copy scan path.
    #[allow(clippy::type_complexity)]
    pub fn next_entry_pinned(&mut self) -> Result<Option<(Vec<u8>, ValueBuf, u64)>> {
        if !self.advance()? {
            return Ok(None);
        }
        let (key, _, ordinal) = self.entry();
        let value = pin(self.leaf.as_ref().map(|l| &l.0), self.cur.value, 0);
        Ok(Some((key.to_vec(), ValueBuf::from(value), ordinal)))
    }
}

/// `page[span]` from byte `from` of the span on, pinning `page`.
fn pin(page: Option<&Arc<[u8]>>, span: Span, from: usize) -> PageSlice {
    let Some(page) = page else {
        return PageSlice::new(Arc::from([]), 0, 0);
    };
    let end = (span.end as usize).min(page.len());
    let start = (span.start as usize + from).min(end);
    PageSlice::new(page.clone(), start, end - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BTreeBuilder;
    use lsm_storage::{CpuCosts, DiskProfile, StorageOptions};

    fn storage() -> Arc<Storage> {
        Storage::new(StorageOptions::test())
    }

    fn build(n: u32) -> BTree {
        let mut b = BTreeBuilder::new(storage());
        for i in 0..n {
            b.add(format!("key{i:08}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let t = build(3000);
        let mut scan = t.scan_all().unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0u64;
        while let Some((k, _, ord)) = scan.next_entry().unwrap() {
            if let Some(p) = &prev {
                assert!(&k > p);
            }
            assert_eq!(ord, count);
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 3000);
    }

    #[test]
    fn range_scan_bounds() {
        let t = build(100);
        let lo = b"key00000010".to_vec();
        let hi = b"key00000019".to_vec();
        let mut scan = t.scan(Bound::Included(&lo), Bound::Included(hi)).unwrap();
        let mut keys = Vec::new();
        while let Some((k, _, _)) = scan.next_entry().unwrap() {
            keys.push(String::from_utf8(k).unwrap());
        }
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], "key00000010");
        assert_eq!(keys[9], "key00000019");
    }

    #[test]
    fn range_scan_exclusive_and_missing_bounds() {
        let t = build(100);
        let lo = b"key00000010x".to_vec(); // between 10 and 11
        let hi = b"key00000012".to_vec();
        let mut scan = t.scan(Bound::Included(&lo), Bound::Excluded(hi)).unwrap();
        let mut keys = Vec::new();
        while let Some((k, _, _)) = scan.next_entry().unwrap() {
            keys.push(String::from_utf8(k).unwrap());
        }
        assert_eq!(keys, vec!["key00000011"]);
    }

    #[test]
    fn scan_empty_tree() {
        let t = build(0);
        let mut scan = t.scan_all().unwrap();
        assert!(scan.next_entry().unwrap().is_none());
    }

    #[test]
    fn scan_reads_leaves_sequentially() {
        let t = build(3000);
        t.storage().clear_cache();
        let before = t.storage().stats();
        let mut scan = t.scan_all().unwrap();
        while scan.next_entry().unwrap().is_some() {}
        let after = t.storage().stats().since(&before);
        // All leaf reads but the first should be sequential continuations.
        assert!(
            after.seq_reads >= after.rand_reads * 3,
            "seq {} rand {}",
            after.seq_reads,
            after.rand_reads
        );
    }

    /// The entries of `t` in `[lo, hi]`, read leaf by leaf and index by
    /// index through [`LeafPage::entry`] — the way the scan worked before
    /// it walked a leaf at a time.
    #[allow(clippy::type_complexity)]
    fn entries_by_index(
        t: &BTree,
        lo: &Bound<Vec<u8>>,
        hi: &Bound<Vec<u8>>,
    ) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
        let mut out = Vec::new();
        for leaf_no in 0..t.num_leaves() {
            let data = t.storage().page_data(t.file(), leaf_no).unwrap();
            let leaf = LeafPage::parse(&data).unwrap();
            for idx in 0..leaf.count() {
                let (k, v) = leaf.entry(idx).unwrap();
                let above = match lo {
                    Bound::Unbounded => true,
                    Bound::Included(l) => k >= l.as_slice(),
                    Bound::Excluded(l) => k > l.as_slice(),
                };
                let below = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => k <= h.as_slice(),
                    Bound::Excluded(h) => k < h.as_slice(),
                };
                if above && below {
                    out.push((k.to_vec(), v.to_vec(), leaf.base_ordinal() + idx as u64));
                }
            }
        }
        out
    }

    fn arb_bound() -> impl proptest::strategy::Strategy<Value = Bound<Vec<u8>>> {
        use proptest::prelude::*;
        let key = (0..700u32).prop_map(|i| format!("key{i:05}").into_bytes());
        prop_oneof![
            2 => Just(Bound::Unbounded),
            1 => key.clone().prop_map(Bound::Included),
            1 => key.prop_map(Bound::Excluded),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        // The lending scan and its owning wrappers against the by-index
        // read: the same entries, one comparison charged per entry, and a
        // held entry that stays intact while the scan moves on — across
        // leaf boundaries included.
        #[test]
        fn lending_scan_matches_entries_by_index(
            n in 0..600u32,
            step in 1..4u32,
            bounds in (arb_bound(), arb_bound()),
        ) {
            let s = storage();
            let mut b = BTreeBuilder::new(s.clone());
            for i in (0..n).map(|i| i * step) {
                let value = vec![(i % 251) as u8; (i * 7 % 60) as usize];
                b.add(format!("key{i:05}").as_bytes(), &value).unwrap();
            }
            let t = b.finish().unwrap();
            let (lo, hi) = bounds;
            let want = entries_by_index(&t, &lo, &hi);
            let lo_ref = match &lo {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(k) => Bound::Included(k.as_slice()),
                Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
            };
            let key_cmp_ns = CpuCosts::default().key_cmp_ns;

            let mut scan = t.scan(lo_ref, hi.clone()).unwrap();
            let mut held: Option<&(Vec<u8>, Vec<u8>, u64)> = None;
            for row in &want {
                let before = s.stats().cpu_ns;
                proptest::prop_assert!(scan.advance().unwrap());
                proptest::prop_assert_eq!(s.stats().cpu_ns - before, key_cmp_ns);
                let (k, v, ord) = scan.entry();
                proptest::prop_assert_eq!((k, v, ord), (row.0.as_slice(), row.1.as_slice(), row.2));
                if let Some(h) = held {
                    let (k, v, ord) = scan.held();
                    proptest::prop_assert_eq!((k, v, ord), (h.0.as_slice(), h.1.as_slice(), h.2));
                    proptest::prop_assert_eq!(scan.held_value_pinned(0).to_vec(), h.1.clone());
                }
                // Hold every third entry, so a held entry is read back
                // both right away and two advances later.
                if row.2 % 3 == 0 {
                    scan.hold();
                    held = Some(row);
                }
            }
            let before = s.stats().cpu_ns;
            proptest::prop_assert!(!scan.advance().unwrap());
            proptest::prop_assert!(!scan.advance().unwrap());
            proptest::prop_assert_eq!(s.stats().cpu_ns, before);

            let mut scan = t.scan(lo_ref, hi.clone()).unwrap();
            let mut pinned = Vec::new();
            while let Some((k, v, ord)) = scan.next_entry_pinned().unwrap() {
                proptest::prop_assert!(v.is_pinned());
                pinned.push((k, v.into_bytes(), ord));
            }
            proptest::prop_assert_eq!(&pinned, &want);
            let mut scan = t.scan(lo_ref, hi).unwrap();
            let mut owned = Vec::new();
            while let Some(row) = scan.next_entry().unwrap() {
                owned.push(row);
            }
            proptest::prop_assert_eq!(&owned, &want);
        }
    }

    /// The entries a scan over `[lo, hi]` returns.
    #[allow(clippy::type_complexity)]
    fn scanned(
        t: &BTree,
        lo: &Bound<Vec<u8>>,
        hi: &Bound<Vec<u8>>,
    ) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
        let lo = match lo {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        };
        let mut scan = t.scan(lo, hi.clone()).unwrap();
        let mut out = Vec::new();
        while let Some(row) = scan.next_entry().unwrap() {
            out.push(row);
        }
        out
    }

    /// A tree of `n` entries on `page_size`-byte pages: keys `key00000`,
    /// `key00002`, … (the odd numbers are absent).
    fn build_on(page_size: usize, n: u32) -> BTree {
        let s = Storage::new(StorageOptions {
            page_size,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(s);
        for i in 0..n {
            b.add(
                format!("key{:05}", 2 * i).as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    /// A range clipped at the leaf its upper bound routes to returns what
    /// the entries read one by one say it holds: for included and excluded
    /// upper bounds on a leaf's first key (a router separator), just below
    /// and above it, past the last key and below the lower bound, under an
    /// unbounded lower bound too — on trees of height 2 and 3, whose bounds
    /// part above the leaves' parent page for wide ranges.
    #[test]
    fn a_clipped_scan_returns_what_the_range_holds() {
        for (page_size, n) in [(4096, 3000), (256, 900)] {
            let t = build_on(page_size, n);
            assert!(t.height() >= 2);
            let key = |i: u32| format!("key{i:05}").into_bytes();
            let mut his = vec![key(2 * n + 7), key(0), b"kex".to_vec()];
            for leaf_no in 1..t.num_leaves() {
                let first = t.leaf_first_key(leaf_no).unwrap().unwrap();
                let mut above = first.clone();
                above.push(0);
                his.extend([first.clone(), first[..first.len() - 1].to_vec(), above]);
            }
            let mut los = vec![Bound::Unbounded];
            for lo_leaf in [0, 1, t.num_leaves() / 2] {
                let first = t.leaf_first_key(lo_leaf).unwrap().unwrap();
                los.extend([Bound::Included(first.clone()), Bound::Excluded(first)]);
            }
            for lo in &los {
                for hi in &his {
                    for hi in [Bound::Included(hi.clone()), Bound::Excluded(hi.clone())] {
                        let want = entries_by_index(&t, lo, &hi);
                        assert_eq!(scanned(&t, lo, &hi), want, "{lo:?}..{hi:?}");
                    }
                }
            }
        }
    }

    /// Scans `[lo, hi]` on a cold cache: it returns what the range holds
    /// and reads leaves `a..=b` from the device, none past them. A bounded
    /// `lo`'s descent reads leaf `a`, and the first burst reads it again,
    /// as a hit.
    fn assert_reads_leaves(t: &BTree, lo: &Bound<Vec<u8>>, hi: &Bound<Vec<u8>>, a: u32, b: u32) {
        t.storage().clear_cache();
        let before = t.storage().stats();
        let rows = scanned(t, lo, hi);
        let d = t.storage().stats().since(&before);
        assert_eq!(rows, entries_by_index(t, lo, hi), "{lo:?}..{hi:?}");
        let leaves = u64::from(b - a + 1);
        assert_eq!(d.disk_reads(), leaves, "leaves {a}..={b}, {lo:?}..{hi:?}");
        assert_eq!(d.bytes_read, leaves * t.storage().page_size() as u64);
        assert_eq!(d.cache_hits, u64::from(*lo != Bound::Unbounded));
    }

    /// The upper bounds that route to leaf `b` and let the range reach
    /// into it: just below leaf `b + 1`'s first key, and on leaf `b`'s own.
    fn bounds_ending_on(t: &BTree, b: u32) -> [Bound<Vec<u8>>; 3] {
        let first = t.leaf_first_key(b).unwrap().unwrap();
        let next = t.leaf_first_key(b + 1).unwrap().unwrap();
        [
            Bound::Excluded(next[..next.len() - 1].to_vec()),
            Bound::Included(first.clone()),
            Bound::Excluded(first),
        ]
    }

    /// On a cold cache, a scan whose range ends on leaf `b` reads leaves
    /// `a..=b` and nothing past them — where the unclipped read-ahead read
    /// eight leaves from `a` — yet still reads ahead across a range longer
    /// than one burst; so does one with no lower bound, from leaf 0. On a
    /// height-3 tree the same holds for bounds that part on the root,
    /// above the leaves' parent page. The routers are the handle's and are
    /// not read.
    #[test]
    fn a_clipped_scan_reads_no_leaf_past_its_last() {
        let t = build(8000);
        assert_eq!(t.height(), 2);
        let ra = t.storage().readahead_pages();
        assert!(t.num_leaves() > 2 * ra + 4, "{} leaves", t.num_leaves());
        let first = |leaf_no| t.leaf_first_key(leaf_no).unwrap().unwrap();
        for (a, b) in [
            (0, 0),
            (3, 3),
            (3, 4),
            (3, 6),
            (2, 2 + ra),
            (1, 1 + 2 * ra + 1),
        ] {
            for hi in &bounds_ending_on(&t, b) {
                assert_reads_leaves(&t, &Bound::Included(first(a)), hi, a, b);
            }
        }
        for b in [0, 2, 1 + ra] {
            for hi in &bounds_ending_on(&t, b) {
                assert_reads_leaves(&t, &Bound::Unbounded, hi, 0, b);
            }
        }
        // A lower bound alone reads ahead as before.
        t.storage().clear_cache();
        let before = t.storage().stats();
        let mut scan = t
            .scan(Bound::Included(&first(3)), Bound::Unbounded)
            .unwrap();
        assert!(scan.advance().unwrap());
        let d = t.storage().stats().since(&before);
        assert_eq!(d.disk_reads(), u64::from(ra));

        let t = build_on(256, 900);
        assert_eq!(t.height(), 3);
        let root = InternalPage::parse(t.router(t.meta.root).unwrap()).unwrap();
        // The first leaf below the root's second child: it and the leaf
        // before it have different parents.
        let parted = t.locate_leaf(root.entry(1).unwrap().0).unwrap().unwrap();
        assert!(parted > 1 && parted + ra + 1 < t.num_leaves());
        let first = |leaf_no| t.leaf_first_key(leaf_no).unwrap().unwrap();
        for (a, b) in [(parted - 1, parted), (1, parted + ra)] {
            for hi in &bounds_ending_on(&t, b) {
                assert_reads_leaves(&t, &Bound::Included(first(a)), hi, a, b);
            }
        }
        for hi in &bounds_ending_on(&t, parted) {
            assert_reads_leaves(&t, &Bound::Unbounded, hi, 0, parted);
        }
    }

    #[test]
    fn destroy_frees_file() {
        let t = build(10);
        let file = t.file();
        t.destroy().unwrap();
        assert!(t.storage().read_page(file, 0).is_err());
    }

    #[test]
    fn search_through_an_empty_internal_page_is_corruption() {
        // A two-level file whose root is an internal page with an entry
        // count of 0: the bulk loader never writes one, so it can only be
        // damage, and a search must say so instead of panicking.
        let s = storage();
        let f = s.create_file();
        let mut leaf = crate::page::LeafPageBuilder::new(s.page_size(), 0);
        leaf.add(b"k", b"v").unwrap();
        s.append_page(f, &leaf.finish()).unwrap();
        // The root router, empty, carries the footer.
        let mut root = crate::page::InternalPageBuilder::new(s.page_size()).finish();
        let meta = TreeMeta {
            root: 1,
            height: 2,
            num_leaves: 1,
            num_entries: 1,
            min_key: Some(b"k".to_vec()),
            max_key: Some(b"k".to_vec()),
        };
        root.extend_from_slice(&meta.footer());
        s.append_page(f, &root).unwrap();
        let t = BTree::open(s, f).unwrap();
        for res in [
            t.search_pinned(b"k").map(|_| ()),
            t.locate_leaf(b"k").map(|_| ()),
        ] {
            assert!(matches!(res, Err(Error::Corruption(_))), "{res:?}");
        }
    }

    /// A copy of `t`'s file whose footer claims `num_entries` entries,
    /// with `damage` applied to every page (the last one without its
    /// footer).
    fn copy_with(t: &BTree, num_entries: u64, damage: impl Fn(PageNo, &mut Vec<u8>)) -> BTree {
        let s = t.storage().clone();
        let f = s.create_file();
        let last = s.file_pages(t.file()).unwrap() - 1;
        for p in 0..=last {
            let mut page = s.page_data(t.file(), p).unwrap().to_vec();
            if p == last {
                page.truncate(TreeMeta::from_footer(&page).unwrap().1);
            }
            damage(p, &mut page);
            if p == last {
                let meta = TreeMeta {
                    num_entries,
                    ..t.meta.clone()
                };
                page.extend_from_slice(&meta.footer());
            }
            s.append_page(f, &page).unwrap();
        }
        BTree::open(s, f).unwrap()
    }

    /// The ordinal check is exact: a tree that claims one entry fewer than
    /// its last leaf holds reports that leaf as corrupt to a search, a
    /// cursor and a scan, while every earlier leaf still reads.
    #[test]
    fn a_leaf_one_ordinal_past_the_tree_is_corruption() {
        let t = build(1000);
        assert!(t.num_leaves() > 2);
        let intact = copy_with(&t, 1000, |_, _| {});
        assert_eq!(intact.search(b"key00000999").unwrap().unwrap().1, 999);
        let short = copy_with(&t, 999, |_, _| {});
        let corrupt = |r: Result<()>| matches!(r, Err(Error::Corruption(_)));
        assert_eq!(short.search(b"key00000000").unwrap().unwrap().1, 0);
        assert!(corrupt(short.search(b"key00000999").map(drop)));
        // An absent key that lands on the last leaf is refused too.
        assert!(corrupt(short.search(b"key00000999x").map(drop)));
        let mut cursor = crate::StatefulCursor::new(&short);
        assert!(cursor.seek(b"key00000000").unwrap().is_some());
        assert!(corrupt(cursor.seek(b"key00000999").map(drop)));
        let mut scan = short.scan_all().unwrap();
        let mut read = 0;
        let end = loop {
            match scan.advance() {
                Ok(true) => read += 1,
                other => break other.map(drop),
            }
        };
        assert!(corrupt(end));
        assert!(read > 0 && read < 999, "{read}");
    }

    /// An ordinal word so large that the leaf's last ordinal overflows a
    /// `u64` is corruption, not a wrapped ordinal.
    #[test]
    fn an_overflowing_ordinal_word_is_corruption() {
        let t = build(10);
        assert_eq!(t.num_leaves(), 1);
        let damaged = copy_with(&t, 10, |p, page| {
            if p == 0 {
                page[..8].copy_from_slice(&u64::MAX.to_le_bytes())
            }
        });
        let corrupt = |r: Result<()>| matches!(r, Err(Error::Corruption(_)));
        assert!(corrupt(damaged.search(b"key00000003").map(drop)));
        assert!(corrupt(damaged.scan_all().unwrap().advance().map(drop)));
    }

    /// A pinned search lends the value where it lies in the leaf page, and
    /// the page stays readable through it once the file is gone.
    #[test]
    fn search_pinned_lends_the_value_in_its_leaf_page() {
        let t = build(100);
        let (v, ord) = t.search_pinned(b"key00000042").unwrap().unwrap();
        assert_eq!((v.as_slice(), ord), (&b"v42"[..], 42));
        let leaf = t
            .read_leaf(t.locate_leaf(b"key00000042").unwrap().unwrap())
            .unwrap();
        let page = leaf.as_ptr_range();
        assert!(page.contains(&v.as_ptr()), "the value is not copied");
        drop(leaf);
        t.destroy().unwrap();
        assert_eq!(v.as_slice(), b"v42");
    }

    /// The router levels send each leaf's first key to that leaf, and a key
    /// just below it to the leaf before.
    #[test]
    fn every_leaf_is_found_by_its_first_key() {
        let t = build(3000);
        assert!(t.height() >= 2);
        for leaf_no in 0..t.num_leaves() {
            let first = t.leaf_first_key(leaf_no).unwrap().unwrap();
            assert_eq!(t.locate_leaf(&first).unwrap(), Some(leaf_no));
            let data = t.read_leaf(leaf_no).unwrap();
            assert_eq!(LeafPage::parse(&data).unwrap().key(0).unwrap(), first);
            if leaf_no > 0 {
                let below = &first[..first.len() - 1];
                assert_eq!(t.locate_leaf(below).unwrap(), Some(leaf_no - 1));
            }
        }
    }

    /// A height-3 tree on 256-byte pages: 900 entries, keys `key00000`,
    /// `key00002`, …
    fn height_3() -> BTree {
        let t = build_on(256, 900);
        assert_eq!(t.height(), 3);
        t
    }

    /// Keys present, absent inside the key range, and below and above it.
    fn probes() -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = (0..1800)
            .step_by(37)
            .map(|i| format!("key{i:05}").into_bytes())
            .collect();
        keys.extend([
            b"a".to_vec(),
            b"key".to_vec(),
            b"key99999".to_vec(),
            b"z".to_vec(),
        ]);
        keys
    }

    /// The comparisons a root-to-leaf search of `key` makes, counted on the
    /// file's pages as stored (read without a charge).
    fn search_cmps(t: &BTree, key: &[u8]) -> u32 {
        let page = |p| t.storage().page_data(t.file(), p).unwrap();
        let (mut page_no, mut cmps) = (t.meta.root, 0);
        for _ in 1..t.height() {
            let (_, child, c) = InternalPage::parse(&page(page_no))
                .unwrap()
                .route(key)
                .unwrap();
            (page_no, cmps) = (child, cmps + c);
        }
        cmps + LeafPage::parse(&page(page_no))
            .unwrap()
            .search(key)
            .unwrap()
            .1
    }

    /// On a cold cache a point search reads one page, its leaf, at one
    /// seek's cost, and is charged a node visit per level and a comparison
    /// per key compared on the way down — router levels included.
    #[test]
    fn a_cold_search_reads_its_leaf_alone() {
        let t = height_3();
        let s = t.storage();
        let (cpu, profile) = (CpuCosts::default(), DiskProfile::hdd());
        let all = entries_by_index(&t, &Bound::Unbounded, &Bound::Unbounded);
        // Descending, so no leaf read continues the one before it.
        for key in probes().iter().rev() {
            s.clear_cache();
            let (before, t0) = (s.stats(), s.clock().now_nanos());
            let hit = t.search_pinned(key).unwrap();
            let (d, ns) = (s.stats().since(&before), s.clock().now_nanos() - t0);
            let key_str = String::from_utf8_lossy(key);
            let want = all.iter().find(|(k, _, _)| k == key);
            assert_eq!(
                hit.map(|(v, ord)| (v.to_vec(), ord)),
                want.map(|(_, v, ord)| (v.clone(), *ord)),
                "{key_str}"
            );
            assert_eq!(
                (d.rand_reads, d.seq_reads, d.cache_hits),
                (1, 0, 0),
                "{key_str}"
            );
            let charged =
                3 * cpu.btree_node_visit_ns + u64::from(search_cmps(&t, key)) * cpu.key_cmp_ns;
            assert_eq!(d.cpu_ns, charged, "{key_str}");
            assert_eq!(
                ns,
                profile.seek_ns + profile.transfer_ns(s.page_size()) + charged
            );
        }
    }

    /// [`BTree::open`] reads each router page once — the root, last,
    /// with the footer it carries — keeps the very pages the device
    /// stores, and no descent through the reopened handle reads a page.
    #[test]
    fn open_reads_each_router_page_once_and_no_descent_reads_one() {
        let built = height_3();
        let s = built.storage().clone();
        let (leaves, pages) = (built.num_leaves(), s.file_pages(built.file()).unwrap());
        let routers = pages - leaves;
        assert!(routers > 2, "{routers} router pages");
        assert_eq!(built.meta.root, pages - 1, "the root carries the footer");
        s.clear_cache();
        let before = s.stats();
        let t = BTree::open(s.clone(), built.file()).unwrap();
        let d = s.stats().since(&before);
        assert_eq!((d.disk_reads(), d.cache_hits), (u64::from(routers), 0));
        assert_eq!(t.routers.len(), routers as usize);
        for (i, page) in t.routers.iter().enumerate() {
            let stored = s.page_data(t.file(), leaves + i as PageNo).unwrap();
            assert!(Arc::ptr_eq(page, &stored), "router page {i}");
            assert!(Arc::ptr_eq(page, &built.routers[i]), "router page {i}");
        }
        s.clear_cache();
        let before = s.stats();
        for key in probes() {
            t.locate_leaf(&key).unwrap();
        }
        let d = s.stats().since(&before);
        assert_eq!((d.disk_reads(), d.cache_hits), (0, 0));
        // A search reads its leaf, and nothing else.
        for key in probes() {
            let want = built.search(&key).unwrap();
            let before = s.stats();
            assert_eq!(t.search(&key).unwrap(), want);
            let d = s.stats().since(&before);
            assert_eq!(d.disk_reads() + d.cache_hits, 1, "{key:?}");
        }
    }

    /// A router child pointer that names no router page — a leaf, a page
    /// past the file — or, on the leaves' parent, no leaf, is corruption
    /// to a search, a leaf location, a cursor and a bounded scan; no read
    /// is attempted through it.
    #[test]
    fn a_router_child_outside_the_router_range_is_corruption() {
        let t = height_3();
        let (root, leaves) = (t.meta.root, t.num_leaves());
        let end = t.storage().file_pages(t.file()).unwrap();
        // Every child of page `target` set to `child`.
        let repoint = |target: PageNo, child: u32| {
            move |p: PageNo, page: &mut Vec<u8>| {
                if p == target {
                    let router = InternalPage::parse(page).unwrap();
                    // Children are fixed-width: the page keeps its size.
                    let mut b = crate::page::InternalPageBuilder::new(4096);
                    for i in 0..router.count() {
                        b.add(router.entry(i).unwrap().0, child).unwrap();
                    }
                    *page = b.finish();
                }
            }
        };
        let corrupt = |r: Result<()>| matches!(r, Err(Error::Corruption(_)));
        for (target, child) in [
            (root, 0),
            (root, leaves - 1),
            (root, end),
            (root, end + 1),
            (root, u32::MAX),
            (leaves, leaves),
            (leaves, root),
            (leaves, end),
            (leaves, u32::MAX),
        ] {
            let damaged = copy_with(&t, t.num_entries(), repoint(target, child));
            let s = damaged.storage();
            let before = s.stats();
            // Keys the damaged page routes: all of them through the root,
            // those of the first leaves through router page `leaves`.
            for key in [b"key00000".to_vec(), b"a".to_vec()] {
                let what = format!("page {target} -> {child}, {key:?}");
                assert!(corrupt(damaged.search_pinned(&key).map(drop)), "{what}");
                assert!(corrupt(damaged.locate_leaf(&key).map(drop)), "{what}");
                let mut cursor = crate::StatefulCursor::new(&damaged);
                assert!(corrupt(cursor.seek(&key).map(drop)), "{what}");
                let hi = Bound::Included(b"key00100".to_vec());
                assert!(
                    corrupt(damaged.scan(Bound::Included(&key), hi).map(drop)),
                    "{what}"
                );
            }
            let d = s.stats().since(&before);
            assert_eq!(
                (d.disk_reads(), d.cache_hits),
                (0, 0),
                "page {target} -> {child}"
            );
        }
    }

    /// A router page whose append a fault tore is held torn: the handle
    /// keeps the page the device stores, byte for byte and buffer for
    /// buffer, so a search through the built handle answers what one
    /// through a reopened handle does. A torn root tears the footer it
    /// carries, and the file no longer opens: [`Error::Corruption`].
    #[test]
    fn a_torn_router_append_is_held_torn() {
        use lsm_storage::{FaultAction, FaultOp, FaultPlan, FaultSpec, FaultTrigger};
        let intact = height_3();
        let leaves = intact.num_leaves();
        for (k, keep_bytes) in [(0, 20), (1, 6), (intact.routers.len() - 1, 9)] {
            let s = Storage::new(StorageOptions {
                page_size: 256,
                ..StorageOptions::test()
            });
            let plan = FaultPlan::new(vec![FaultSpec {
                trigger: FaultTrigger::OpIndex {
                    op: FaultOp::Append,
                    index: u64::from(leaves) + k as u64,
                },
                action: FaultAction::TornWrite { keep_bytes },
            }]);
            s.install_fault_plan(plan.clone());
            plan.arm();
            let mut b = BTreeBuilder::new(s.clone());
            for i in 0..900u32 {
                b.add(
                    format!("key{:05}", 2 * i).as_bytes(),
                    format!("v{i}").as_bytes(),
                )
                .unwrap();
            }
            let t = b.finish().unwrap();
            s.clear_fault_plan();
            assert_eq!(s.stats().torn_writes, 1);
            let torn = &t.routers[k];
            assert_ne!(&**torn, &*intact.routers[k], "router page {k}");
            assert!(torn[keep_bytes..].iter().all(|&b| b == 0));
            for (i, page) in t.routers.iter().enumerate() {
                let stored = s.read_page(t.file(), leaves + i as PageNo).unwrap();
                assert!(Arc::ptr_eq(page, &stored), "router page {i}");
            }
            let reopened = BTree::open(s.clone(), t.file());
            if k == t.routers.len() - 1 {
                assert!(
                    matches!(reopened, Err(Error::Corruption(_))),
                    "{reopened:?}"
                );
                continue;
            }
            let reopened = reopened.unwrap();
            for key in probes() {
                assert_eq!(
                    format!("{:?}", t.search(&key)),
                    format!("{:?}", reopened.search(&key)),
                    "router page {k}, {key:?}"
                );
            }
        }
    }

    #[test]
    fn open_rejects_garbage_file() {
        let s = storage();
        let f = s.create_file();
        s.append_page(f, b"not a btree").unwrap();
        assert!(BTree::open(s, f).is_err());
    }

    /// `n` entries of a `key_len`-byte key and a `value_len`-byte value,
    /// built on `page_size`-byte pages.
    fn build_sized(page_size: usize, n: u32, key_len: usize, value_len: usize) -> BTree {
        let s = Storage::new(StorageOptions {
            page_size,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(s);
        for i in 0..n {
            let key = format!("{i:0key_len$}");
            b.add(key.as_bytes(), &vec![7; value_len]).unwrap();
        }
        b.finish().unwrap()
    }

    /// Reopens `built`'s file and checks that the handle [`BTree::open`]
    /// returns is the one the build returned: the same metadata, the same
    /// router pages and the same answers. Returns the file's page count.
    fn reopens_as_built(built: &BTree) -> u32 {
        let s = built.storage().clone();
        let t = BTree::open(s.clone(), built.file()).unwrap();
        let (m, b) = (&t.meta, &built.meta);
        assert_eq!(
            (m.root, m.height, m.num_leaves, m.num_entries),
            (b.root, b.height, b.num_leaves, b.num_entries)
        );
        assert_eq!((&m.min_key, &m.max_key), (&b.min_key, &b.max_key));
        assert_eq!(t.routers, built.routers);
        let entries = |t: &BTree| {
            let mut scan = t.scan_all().unwrap();
            std::iter::from_fn(|| scan.next_entry().unwrap()).collect::<Vec<_>>()
        };
        let all = entries(built);
        assert_eq!(entries(&t), all);
        for (key, value, ordinal) in &all {
            assert_eq!(t.search(key).unwrap(), Some((value.clone(), *ordinal)));
        }
        s.file_pages(built.file()).unwrap()
    }

    /// The footer rides on the tree's last page, so a build writes no page
    /// for it: a one-leaf tree is one page, its leaf, and an n-leaf tree
    /// is its leaves and its router pages, the root last. Only an empty
    /// tree, or a last page without room for the footer, writes a page
    /// that holds the footer alone. [`BTree::open`] reopens all four.
    #[test]
    fn the_footer_rides_on_the_last_page_unless_it_has_no_room() {
        // An empty tree: the footer alone.
        let t = build_sized(256, 0, 4, 4);
        assert_eq!((t.height(), t.num_leaves()), (0, 0));
        assert_eq!(reopens_as_built(&t), 1);

        // One leaf: the leaf, carrying the footer, is the whole file.
        let t = build_sized(4096, 10, 8, 8);
        assert_eq!((t.meta.root, t.height(), t.num_leaves()), (0, 1, 1));
        assert_eq!(reopens_as_built(&t), 1);

        // Many leaves: leaves, then routers; the root carries the footer.
        let t = build_sized(4096, 5000, 8, 8);
        assert!(t.height() >= 2);
        let routers = t.routers.len() as u32;
        assert_eq!(reopens_as_built(&t), t.num_leaves() + routers);
        assert_eq!(t.meta.root, t.num_leaves() + routers - 1);
        let root = &t.routers[routers as usize - 1];
        assert!(root.ends_with(&META_MAGIC.to_le_bytes()));

        // A lone leaf of 255 bytes has no room for a 32-byte footer on a
        // 256-byte page: the footer follows it on a page of its own.
        let t = build_sized(256, 1, 1, 238);
        let leaf = t.storage().page_data(t.file(), 0).unwrap();
        assert_eq!((t.num_leaves(), leaf.len()), (1, 255));
        assert_eq!(reopens_as_built(&t), 2);

        // Three one-entry leaves under a root of three 60-byte separators
        // (196 bytes) leave no room for a 150-byte footer either.
        let t = build_sized(256, 3, 60, 100);
        assert_eq!((t.num_leaves(), t.height(), t.routers.len()), (3, 2, 1));
        assert_eq!(t.routers[0].len(), 196);
        assert_eq!(reopens_as_built(&t), 5);
    }

    /// A footer that claims more router levels than the file has router
    /// pages does not open: a descent through a damaged router that routes
    /// to itself would otherwise loop once per claimed level.
    #[test]
    fn a_footer_taller_than_its_routers_is_corruption() {
        let t = build(10);
        let s = t.storage().clone();
        let page = s.page_data(t.file(), 0).unwrap();
        let (meta, carrier) = TreeMeta::from_footer(&page).unwrap();
        for height in [2, u32::MAX] {
            let f = s.create_file();
            let footer = TreeMeta {
                height,
                ..meta.clone()
            }
            .footer();
            s.append_page(f, &[&page[..carrier], &footer].concat())
                .unwrap();
            let opened = BTree::open(s.clone(), f).map(drop);
            assert!(matches!(opened, Err(Error::Corruption(_))), "{opened:?}");
        }
    }

    /// A file whose last page is cut short or torn anywhere in its footer
    /// does not open: [`Error::Corruption`], whichever page carries it.
    #[test]
    fn a_damaged_footer_is_corruption() {
        for built in [
            build_sized(256, 0, 4, 4),
            build_sized(4096, 10, 8, 8),
            build_sized(256, 1, 1, 238),
            height_3(),
        ] {
            let s = built.storage().clone();
            let last = s.file_pages(built.file()).unwrap() - 1;
            let page = s.page_data(built.file(), last).unwrap();
            let (_, carrier) = TreeMeta::from_footer(&page).unwrap();
            for keep in carrier..page.len() {
                let mut torn = page.to_vec();
                torn[keep..].fill(0);
                for damaged in [&page[..keep], &torn[..]] {
                    let f = s.create_file();
                    for p in 0..last {
                        s.append_page(f, &s.page_data(built.file(), p).unwrap())
                            .unwrap();
                    }
                    s.append_page(f, damaged).unwrap();
                    let opened = BTree::open(s.clone(), f).map(drop);
                    assert!(
                        matches!(opened, Err(Error::Corruption(_))),
                        "keep {keep} of {}: {opened:?}",
                        page.len()
                    );
                }
            }
        }
    }
}
