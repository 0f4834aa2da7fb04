//! Slotted page formats for the immutable B+-tree.
//!
//! Components are written once by a bulk loader and never modified, so the
//! layout is a tightly packed slotted page with a slot (offset) directory for
//! binary search:
//!
//! ```text
//! Leaf page:      [base_ordinal u64][count u16][slot u16 × count]
//!                 [entry: klen varint, key, vlen varint, value] × count
//! Internal page:  [count u16][slot u16 × count]
//!                 [entry: klen varint, key, child u32] × count
//! ```
//!
//! `base_ordinal` is the number of entries in all preceding leaves; it lets a
//! search report the global ordinal position of a match, which the mutable
//! bitmaps of Sections 4.4/5 index by.

use crate::encoding::{get_slice, get_varint, put_slice, put_varint, slice_len};
use lsm_common::{Error, Result};
use std::sync::Arc;

/// Builds a leaf page incrementally, respecting a page-size budget.
#[derive(Debug)]
pub struct LeafPageBuilder {
    page_size: usize,
    base_ordinal: u64,
    slots: Vec<u32>,
    heap: Vec<u8>,
    first_key: Option<Vec<u8>>,
}

/// Fixed header: base_ordinal (8) + count (2).
const LEAF_HEADER: usize = 10;
const INTERNAL_HEADER: usize = 2;

impl LeafPageBuilder {
    /// Creates a builder for a leaf whose first entry has global ordinal
    /// `base_ordinal`.
    pub fn new(page_size: usize, base_ordinal: u64) -> Self {
        LeafPageBuilder {
            page_size,
            base_ordinal,
            slots: Vec::new(),
            // Sized once: entries are only accepted while they fit the page.
            heap: Vec::with_capacity(page_size.saturating_sub(LEAF_HEADER)),
            first_key: None,
        }
    }

    /// Bytes the page would occupy if finished now.
    pub fn current_size(&self) -> usize {
        LEAF_HEADER + self.slots.len() * 4 + self.heap.len()
    }

    /// True if `(key, value)` fits in the remaining budget.
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        self.current_size() + 4 + slice_len(key) + slice_len(value) <= self.page_size
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        self.slots.len()
    }

    /// Appends an entry. Keys must arrive in strictly ascending order;
    /// callers are responsible for ordering, the builder only debug-asserts.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if !self.fits(key, value) && !self.is_empty() {
            return Err(Error::Storage("leaf page overflow".into()));
        }
        debug_assert!(
            self.last_key().is_none_or(|lk| lk < key),
            "keys must be strictly ascending"
        );
        if self.heap.len() > u32::MAX as usize {
            return Err(Error::Storage("page offset overflow".into()));
        }
        self.slots.push(self.heap.len() as u32);
        put_slice(&mut self.heap, key);
        put_slice(&mut self.heap, value);
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        Ok(())
    }

    /// The key added last, read back from the heap (the ordering check is
    /// its only reader, so it is not worth a copy per entry).
    fn last_key(&self) -> Option<&[u8]> {
        let start = *self.slots.last()? as usize;
        get_slice(&self.heap[start..]).ok().map(|(key, _)| key)
    }

    /// First key in the page (None if empty).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Writes the page image into `out`, which is `current_size()` long.
    fn write_into(&self, out: &mut [u8]) {
        let (header, body) = out.split_at_mut(LEAF_HEADER);
        header[..8].copy_from_slice(&self.base_ordinal.to_le_bytes());
        header[8..].copy_from_slice(&(self.slots.len() as u16).to_le_bytes());
        let (slots, heap) = body.split_at_mut(self.slots.len() * 4);
        for (dst, slot) in slots.chunks_exact_mut(4).zip(&self.slots) {
            dst.copy_from_slice(&slot.to_le_bytes());
        }
        heap.copy_from_slice(&self.heap);
    }

    /// Serializes the page.
    pub fn finish(self) -> Vec<u8> {
        let mut out = vec![0; self.current_size()];
        self.write_into(&mut out);
        out
    }

    /// Serializes the page straight into the shared buffer the storage
    /// layer keeps ([`lsm_storage::Storage::append_page_shared`]) — the page
    /// image is written once, where [`LeafPageBuilder::finish`] followed by
    /// a copying append writes it twice — and restarts the builder, buffers
    /// kept, for the leaf whose first entry has ordinal `next_base`.
    pub fn take_shared(&mut self, next_base: u64) -> Arc<[u8]> {
        let mut page: Arc<[u8]> = std::iter::repeat_n(0, self.current_size()).collect();
        // INVARIANT: `page` was created on the line above and never cloned.
        self.write_into(Arc::get_mut(&mut page).expect("a fresh Arc is unshared"));
        self.base_ordinal = next_base;
        self.slots.clear();
        self.heap.clear();
        self.first_key = None;
        page
    }
}

/// Read-only view over a serialized leaf page.
#[derive(Debug, Clone, Copy)]
pub struct LeafPage<'a> {
    data: &'a [u8],
    count: usize,
    base_ordinal: u64,
}

impl<'a> LeafPage<'a> {
    /// Parses the page header.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < LEAF_HEADER {
            return Err(Error::corruption("leaf page too short"));
        }
        let base_ordinal = u64::from_le_bytes(data[0..8].try_into().unwrap());
        let count = u16::from_le_bytes(data[8..10].try_into().unwrap()) as usize;
        if data.len() < LEAF_HEADER + count * 4 {
            return Err(Error::corruption("leaf slot directory out of bounds"));
        }
        Ok(LeafPage {
            data,
            count,
            base_ordinal,
        })
    }

    /// Number of entries.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Global ordinal of entry 0.
    pub fn base_ordinal(&self) -> u64 {
        self.base_ordinal
    }

    /// Where a [`LeafWalk`](crate::walk::LeafWalk) finds the slot
    /// directory and the entry heap.
    pub(crate) fn layout(&self) -> crate::walk::Layout {
        crate::walk::Layout::Plain {
            slots: LEAF_HEADER,
            heap: LEAF_HEADER + self.count * 4,
        }
    }

    /// The bytes of entry `idx` onward, through its slot.
    fn entry_bytes(&self, idx: usize) -> Result<&'a [u8]> {
        let slot_off = LEAF_HEADER + idx * 4;
        let off = u32::from_le_bytes(self.data[slot_off..slot_off + 4].try_into().unwrap());
        let heap = &self.data[LEAF_HEADER + self.count * 4..];
        heap.get(off as usize..)
            .ok_or_else(|| Error::corruption("leaf entry offset out of bounds"))
    }

    /// Returns the entry at `idx` (panics on out-of-bounds index).
    pub fn entry(&self, idx: usize) -> Result<(&'a [u8], &'a [u8])> {
        assert!(idx < self.count, "leaf index out of bounds");
        let rest = self.entry_bytes(idx)?;
        let (key, n) = get_slice(rest)?;
        let (value, _) = get_slice(&rest[n..])?;
        Ok((key, value))
    }

    /// Key of the entry at `idx` (panics on out-of-bounds index). Decodes
    /// the slot and the key alone — what an in-page search compares — and
    /// leaves the value's header unread.
    pub fn key(&self, idx: usize) -> Result<&'a [u8]> {
        assert!(idx < self.count, "leaf index out of bounds");
        Ok(get_slice(self.entry_bytes(idx)?)?.0)
    }

    /// First key (None if the page is empty).
    pub fn first_key(&self) -> Result<Option<&'a [u8]>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(0)?))
    }

    /// Last key (None if the page is empty).
    pub fn last_key(&self) -> Result<Option<&'a [u8]>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(self.count - 1)?))
    }

    /// Binary search for `key`. Returns `(Ok(idx), cmps)` on an exact match
    /// or `(Err(insertion_point), cmps)` otherwise, where `cmps` is the
    /// number of key comparisons performed (for CPU cost accounting).
    pub fn search(&self, key: &[u8]) -> Result<(std::result::Result<usize, usize>, u32)> {
        let mut lo = 0usize;
        let mut hi = self.count;
        let mut cmps = 0u32;
        while lo < hi {
            let mid = (lo + hi) / 2;
            cmps += 1;
            match self.key(mid)?.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok((Ok(mid), cmps)),
            }
        }
        Ok((Err(lo), cmps))
    }

    /// Exponential (galloping) search for `key` starting at position `from`
    /// (Bentley & Yao, used by the stateful cursor of Section 3.2). Returns
    /// the same shape as [`LeafPage::search`].
    pub fn exponential_search(
        &self,
        key: &[u8],
        from: usize,
    ) -> Result<(std::result::Result<usize, usize>, u32)> {
        let mut cmps = 0u32;
        let n = self.count;
        if from >= n {
            return Ok((Err(n), cmps));
        }
        // Gallop: find a window [from + step/2, from + step] containing key.
        let mut step = 1usize;
        let mut prev = from;
        let mut bound = from;
        loop {
            cmps += 1;
            match self.key(bound)?.cmp(key) {
                std::cmp::Ordering::Less => {
                    prev = bound + 1;
                    if bound == n - 1 {
                        return Ok((Err(n), cmps));
                    }
                    bound = (bound + step).min(n - 1);
                    step *= 2;
                }
                std::cmp::Ordering::Equal => return Ok((Ok(bound), cmps)),
                std::cmp::Ordering::Greater => break,
            }
        }
        // Binary search in [prev, bound).
        let mut lo = prev;
        let mut hi = bound;
        while lo < hi {
            let mid = (lo + hi) / 2;
            cmps += 1;
            match self.key(mid)?.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok((Ok(mid), cmps)),
            }
        }
        Ok((Err(lo), cmps))
    }
}

/// Builds an internal (router) page.
#[derive(Debug)]
pub struct InternalPageBuilder {
    page_size: usize,
    slots: Vec<u32>,
    heap: Vec<u8>,
    first_key: Option<Vec<u8>>,
}

impl InternalPageBuilder {
    /// Creates an internal page builder.
    pub fn new(page_size: usize) -> Self {
        InternalPageBuilder {
            page_size,
            slots: Vec::new(),
            heap: Vec::new(),
            first_key: None,
        }
    }

    /// Bytes the page would occupy if finished now.
    pub fn current_size(&self) -> usize {
        INTERNAL_HEADER + self.slots.len() * 4 + self.heap.len()
    }

    /// True if a `(separator, child)` entry fits.
    pub fn fits(&self, key: &[u8]) -> bool {
        self.current_size() + 4 + slice_len(key) + 5 <= self.page_size
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of children.
    pub fn count(&self) -> usize {
        self.slots.len()
    }

    /// Appends a `(separator key, child page)` routing entry. The separator
    /// is the first key of the child subtree; entries ascend strictly.
    pub fn add(&mut self, key: &[u8], child: u32) -> Result<()> {
        if !self.fits(key) && !self.is_empty() {
            return Err(Error::Storage("internal page overflow".into()));
        }
        if self.heap.len() > u32::MAX as usize {
            return Err(Error::Storage("page offset overflow".into()));
        }
        self.slots.push(self.heap.len() as u32);
        put_slice(&mut self.heap, key);
        put_varint(&mut self.heap, u64::from(child));
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        Ok(())
    }

    /// First separator key.
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Serializes the page.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.current_size());
        out.extend_from_slice(&(self.slots.len() as u16).to_le_bytes());
        for s in &self.slots {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&self.heap);
        out
    }
}

/// Read-only view over a serialized internal page.
#[derive(Debug, Clone, Copy)]
pub struct InternalPage<'a> {
    data: &'a [u8],
    count: usize,
}

impl<'a> InternalPage<'a> {
    /// Parses the page header.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < INTERNAL_HEADER {
            return Err(Error::corruption("internal page too short"));
        }
        let count = u16::from_le_bytes(data[0..2].try_into().unwrap()) as usize;
        if data.len() < INTERNAL_HEADER + count * 4 {
            return Err(Error::corruption("internal slot directory out of bounds"));
        }
        Ok(InternalPage { data, count })
    }

    /// Number of children.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Returns the `(separator, child)` entry at `idx`;
    /// [`Error::Corruption`] when the page has no such slot.
    pub fn entry(&self, idx: usize) -> Result<(&'a [u8], u32)> {
        if idx >= self.count {
            return Err(Error::corruption(format!(
                "internal page has no entry {idx} ({} slots)",
                self.count
            )));
        }
        let slot_off = INTERNAL_HEADER + idx * 4;
        let off = u32::from_le_bytes(self.data[slot_off..slot_off + 4].try_into().unwrap());
        let heap = &self.data[INTERNAL_HEADER + self.count * 4..];
        let rest = heap
            .get(off as usize..)
            .ok_or_else(|| Error::corruption("internal entry offset out of bounds"))?;
        let (key, n) = get_slice(rest)?;
        let (child, _) = get_varint(&rest[n..])?;
        Ok((key, child as u32))
    }

    /// Finds the child to descend into for `key`: the rightmost child whose
    /// separator is `<= key` (the leftmost child if `key` sorts before all
    /// separators). Returns `(child_idx, child_page, cmps)`. A page with
    /// no slots routes nowhere: the bulk loader never writes one, so it is
    /// reported as [`Error::Corruption`].
    pub fn route(&self, key: &[u8]) -> Result<(usize, u32, u32)> {
        let mut lo = 0usize;
        let mut hi = self.count;
        let mut cmps = 0u32;
        // Find first separator > key.
        while lo < hi {
            let mid = (lo + hi) / 2;
            cmps += 1;
            if self.entry(mid)?.0 <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let idx = lo.saturating_sub(1);
        let (_, child) = self.entry(idx)?;
        Ok((idx, child, cmps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_leaf(entries: &[(&[u8], &[u8])], base: u64) -> Vec<u8> {
        let mut b = LeafPageBuilder::new(4096, base);
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        b.finish()
    }

    #[test]
    fn leaf_roundtrip() {
        let data = build_leaf(&[(b"a", b"1"), (b"bb", b"22"), (b"ccc", b"")], 7);
        let p = LeafPage::parse(&data).unwrap();
        assert_eq!(p.count(), 3);
        assert_eq!(p.base_ordinal(), 7);
        assert_eq!(p.entry(0).unwrap(), (&b"a"[..], &b"1"[..]));
        assert_eq!(p.entry(1).unwrap(), (&b"bb"[..], &b"22"[..]));
        assert_eq!(p.entry(2).unwrap(), (&b"ccc"[..], &b""[..]));
        assert_eq!(p.first_key().unwrap(), Some(&b"a"[..]));
        assert_eq!(p.last_key().unwrap(), Some(&b"ccc"[..]));
    }

    #[test]
    fn empty_leaf() {
        let data = LeafPageBuilder::new(4096, 0).finish();
        let p = LeafPage::parse(&data).unwrap();
        assert_eq!(p.count(), 0);
        assert_eq!(p.first_key().unwrap(), None);
        assert_eq!(p.search(b"x").unwrap().0, Err(0));
    }

    #[test]
    fn leaf_binary_search() {
        let data = build_leaf(&[(b"b", b"1"), (b"d", b"2"), (b"f", b"3")], 0);
        let p = LeafPage::parse(&data).unwrap();
        assert_eq!(p.search(b"b").unwrap().0, Ok(0));
        assert_eq!(p.search(b"d").unwrap().0, Ok(1));
        assert_eq!(p.search(b"f").unwrap().0, Ok(2));
        assert_eq!(p.search(b"a").unwrap().0, Err(0));
        assert_eq!(p.search(b"c").unwrap().0, Err(1));
        assert_eq!(p.search(b"g").unwrap().0, Err(3));
    }

    /// A search compares keys and nothing else: a pivot whose value header
    /// is damaged is passed over (reading that entry still fails).
    #[test]
    fn search_decodes_keys_only() {
        let mut data = build_leaf(&[(b"b", b"1"), (b"d", b"2"), (b"f", b"3")], 0);
        // The heap ends `… 1 d | 1 2 | 1 f 1 3`: make "d"'s value claim to
        // run past the page.
        let value_header = data.len() - 6;
        data[value_header] = 0xFF;
        let p = LeafPage::parse(&data).unwrap();
        assert!(p.entry(1).is_err());
        assert_eq!(p.key(1).unwrap(), b"d");
        assert_eq!(p.search(b"f").unwrap().0, Ok(2));
        assert_eq!(p.exponential_search(b"f", 0).unwrap().0, Ok(2));
    }

    #[test]
    fn leaf_overflow_detected() {
        let mut b = LeafPageBuilder::new(64, 0);
        let big = vec![b'x'; 100];
        // First entry always allowed (oversized single entries get their own
        // page at a higher layer is NOT supported; builder accepts entry 1).
        b.add(b"a", &big).unwrap();
        assert!(b.add(b"b", &big).is_err());
    }

    #[test]
    fn exponential_search_matches_binary_search() {
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let data = build_leaf(&entries, 0);
        let p = LeafPage::parse(&data).unwrap();
        for from in [0usize, 10, 50, 99] {
            for probe in ["k0000", "k0049", "k0050", "k0051", "k0099", "k9999", "a"] {
                let (bin, _) = p.search(probe.as_bytes()).unwrap();
                let (exp, _) = p.exponential_search(probe.as_bytes(), from).unwrap();
                // Exponential search from `from` can only find matches at
                // >= from; mismatches below `from` report an insertion point
                // clamped to >= from.
                match bin {
                    Ok(i) if i >= from => assert_eq!(exp, Ok(i), "probe {probe} from {from}"),
                    Ok(_) => {} // target before `from`: cursor misuse, undefined
                    Err(i) if i >= from => {
                        assert_eq!(exp, Err(i), "probe {probe} from {from}")
                    }
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn exponential_search_near_position_is_cheap() {
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let data = build_leaf(&entries, 0);
        let p = LeafPage::parse(&data).unwrap();
        // Searching the immediate successor takes O(1) comparisons...
        let (_, cmps_near) = p.exponential_search(b"k0101", 100).unwrap();
        // ...while full binary search takes ~log2(200) ≈ 8.
        let (_, cmps_bin) = p.search(b"k0101").unwrap();
        assert!(cmps_near < cmps_bin, "{cmps_near} vs {cmps_bin}");
    }

    #[test]
    fn internal_roundtrip_and_route() {
        let mut b = InternalPageBuilder::new(4096);
        b.add(b"a", 10).unwrap();
        b.add(b"m", 20).unwrap();
        b.add(b"t", 30).unwrap();
        let data = b.finish();
        let p = InternalPage::parse(&data).unwrap();
        assert_eq!(p.count(), 3);
        assert_eq!(p.entry(1).unwrap(), (&b"m"[..], 20));
        // key before first separator routes to the leftmost child
        assert_eq!(p.route(b"A").unwrap().1, 10);
        assert_eq!(p.route(b"a").unwrap().1, 10);
        assert_eq!(p.route(b"c").unwrap().1, 10);
        assert_eq!(p.route(b"m").unwrap().1, 20);
        assert_eq!(p.route(b"n").unwrap().1, 20);
        assert_eq!(p.route(b"z").unwrap().1, 30);
    }

    #[test]
    fn empty_internal_page_routes_to_an_error() {
        let data = InternalPageBuilder::new(4096).finish();
        let p = InternalPage::parse(&data).unwrap();
        assert_eq!(p.count(), 0);
        assert!(matches!(p.route(b"k"), Err(Error::Corruption(_))));
        assert!(matches!(p.entry(0), Err(Error::Corruption(_))));
    }

    #[test]
    fn parse_rejects_corruption() {
        assert!(LeafPage::parse(&[1, 2]).is_err());
        assert!(InternalPage::parse(&[1]).is_err());
        // Slot count larger than page.
        let mut bad = vec![0u8; 10];
        bad[8] = 0xFF;
        bad[9] = 0xFF;
        assert!(LeafPage::parse(&bad).is_err());
    }
}
