//! Page formats for the immutable B+-tree.
//!
//! Components are written once by a bulk loader and never modified. Every
//! page keeps its keys in one dense strip with the rest of the page behind
//! it, so an in-page search reads keys and nothing else:
//!
//! ```text
//! Leaf page:      [base_ordinal u64][count u16][key_width u16][keys]
//!                 [value end u32 × count][values back to back]
//! Internal page:  [count u16][key_width u16][keys][child u32 × count]
//!
//! keys, key_width > 0:  [key bytes: count × key_width]
//! keys, key_width = 0:  [key end u32 × count][key bytes back to back]
//! ```
//!
//! With fixed-width keys — what every index kind writes — key `i` sits at
//! `i × key_width` in the strip. A page whose keys are not all one width
//! (or whose only key is empty) stores the end of each key instead. Ends
//! are relative to the start of their run: item `i` is the bytes between
//! end `i − 1` (0 for the first) and end `i`; ends that run backwards or
//! past the page are [`Error::Corruption`].
//!
//! **Budget.** A builder admits an entry while the page fits both the bytes
//! it actually writes and the accounting of the slotted format these pages
//! replaced (a 4-byte slot and varint-length-prefixed key and value per
//! entry, a 10-byte leaf / 2-byte router header, 5 bytes reserved per
//! child). With fixed-width keys the slotted figure is never the smaller
//! one, so pages break where they always did: the same entries per page,
//! the same probe sequence per search, the same comparisons charged — the
//! pages themselves are just shorter.
//!
//! `base_ordinal` is the number of entries in all preceding leaves; it lets a
//! search report the global ordinal position of a match, which the mutable
//! bitmaps of Sections 4.4/5 index by.

use crate::encoding::{slice_len, varint_len};
use lsm_common::{Error, Result};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Leaf header: base_ordinal (8) + count (2) + key_width (2).
const LEAF_HEADER: usize = 12;
/// Router header: count (2) + key_width (2).
const INTERNAL_HEADER: usize = 4;
/// Header sizes of the slotted format the page budget is accounted in.
const SLOTTED_LEAF_HEADER: usize = 10;
const SLOTTED_INTERNAL_HEADER: usize = 2;
/// Most entries one page holds: its count is a `u16`. Every builder's
/// `fits` says no at this many, whatever room is left.
const MAX_ENTRIES: usize = u16::MAX as usize;

/// The little-endian `u32` at `data[at]`.
fn u32_at(data: &[u8], at: usize) -> Result<usize> {
    let bytes = data
        .get(at..at + 4)
        .ok_or_else(|| Error::corruption("page offset array out of bounds"))?;
    // INVARIANT: `bytes` is exactly four bytes long.
    Ok(u32::from_le_bytes(bytes.try_into().unwrap()) as usize)
}

/// Item `idx` of a run stored back to back from `data[base]`, whose ends
/// (relative to `base`) are the `u32`s at `data[ends]`: checked to run
/// forwards and to stop at `limit`.
fn item_range(
    data: &[u8],
    ends: usize,
    base: usize,
    limit: usize,
    idx: usize,
) -> Result<Range<usize>> {
    let lo = match idx.checked_sub(1) {
        Some(prev) => u32_at(data, ends + prev * 4)?,
        None => 0,
    };
    let hi = u32_at(data, ends + idx * 4)?;
    if lo > hi || base + hi > limit {
        return Err(Error::corruption("page item ends out of order or bounds"));
    }
    Ok(base + lo..base + hi)
}

/// Writes `values` as little-endian `u32`s at the front of `out` and
/// returns the rest.
fn put_u32s<'o>(out: &'o mut [u8], values: &[u32]) -> &'o mut [u8] {
    let (head, rest) = out.split_at_mut(values.len() * 4);
    for (dst, v) in head.chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    rest
}

/// Where a page's keys are, as offsets from the start of the page: `count`
/// keys of `width` bytes from `start`, or — `width` 0 — `count` key ends
/// from `start` with the key bytes behind them. `end` is the first byte
/// after the keys.
#[derive(Debug, Clone, Copy)]
struct Keys {
    count: usize,
    width: usize,
    start: usize,
    end: usize,
}

impl Keys {
    /// The keys of a page whose header says `count` and `width`, from
    /// `data[start]` on; [`Error::Corruption`] if they run past the page.
    fn parse(data: &[u8], start: usize, count: usize, width: usize) -> Result<Self> {
        let end = if width > 0 {
            start + count * width
        } else {
            let bytes = start + count * 4;
            match count.checked_sub(1) {
                Some(last) => bytes + u32_at(data, start + last * 4)?,
                None => bytes,
            }
        };
        if data.len() < end {
            return Err(Error::corruption("page keys out of bounds"));
        }
        Ok(Keys {
            count,
            width,
            start,
            end,
        })
    }

    /// The bytes key `idx` (< `count`) occupies.
    #[inline]
    fn range(&self, data: &[u8], idx: usize) -> Result<Range<usize>> {
        if self.width > 0 {
            let at = self.start + idx * self.width;
            return Ok(at..at + self.width);
        }
        item_range(data, self.start, self.start + self.count * 4, self.end, idx)
    }

    /// Key `idx` (< `count`).
    #[inline]
    fn key<'a>(&self, data: &'a [u8], idx: usize) -> Result<&'a [u8]> {
        let range = self.range(data, idx)?;
        data.get(range)
            .ok_or_else(|| Error::corruption("page key out of bounds"))
    }
}

/// Keys as a builder collects them: back to back, with the end of each and
/// the one width they all share (0 once two differ, or when the first is
/// empty or wider than a `u16`).
#[derive(Debug, Default)]
struct KeyStrip {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    width: usize,
}

impl KeyStrip {
    fn count(&self) -> usize {
        self.ends.len()
    }

    /// The strip's width once `key` is added.
    fn width_with(&self, key: &[u8]) -> usize {
        let same = self.ends.is_empty() || self.width == key.len();
        if same && key.len() <= u16::MAX as usize {
            key.len()
        } else {
            0
        }
    }

    /// Bytes `n` keys of `width` — `key_bytes` of them in all — take on
    /// the page.
    fn written(n: usize, width: usize, key_bytes: usize) -> usize {
        if width > 0 {
            n * width
        } else {
            n * 4 + key_bytes
        }
    }

    /// Bytes the keys take on the page.
    fn size(&self) -> usize {
        Self::written(self.count(), self.width, self.bytes.len())
    }

    /// Bytes the keys would take on the page with `key` added.
    fn size_with(&self, key: &[u8]) -> usize {
        let width = self.width_with(key);
        Self::written(self.count() + 1, width, self.bytes.len() + key.len())
    }

    fn push(&mut self, key: &[u8]) -> Result<()> {
        if self.bytes.len() + key.len() > u32::MAX as usize {
            return Err(Error::Storage("page offset overflow".into()));
        }
        self.width = self.width_with(key);
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len() as u32);
        Ok(())
    }

    fn first(&self) -> Option<&[u8]> {
        Some(&self.bytes[..*self.ends.first()? as usize])
    }

    fn last(&self) -> Option<&[u8]> {
        self.ends.last()?;
        let start = self.count().checked_sub(2).map_or(0, |p| self.ends[p]);
        Some(&self.bytes[start as usize..])
    }

    /// Writes the keys at the front of `out` and returns the rest.
    fn write<'o>(&self, out: &'o mut [u8]) -> &'o mut [u8] {
        let out = if self.width > 0 {
            out
        } else {
            put_u32s(out, &self.ends)
        };
        let (keys, rest) = out.split_at_mut(self.bytes.len());
        keys.copy_from_slice(&self.bytes);
        rest
    }

    /// The `(count, key_width)` header fields (width 0 on an empty page).
    fn header(&self) -> [u8; 4] {
        let mut out = [0; 4];
        out[..2].copy_from_slice(&(self.count() as u16).to_le_bytes());
        out[2..].copy_from_slice(&(self.width as u16).to_le_bytes());
        out
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.width = 0;
    }
}

/// Builds a leaf page incrementally, respecting a page-size budget.
#[derive(Debug)]
pub struct LeafPageBuilder {
    page_size: usize,
    base_ordinal: u64,
    keys: KeyStrip,
    value_ends: Vec<u32>,
    values: Vec<u8>,
    /// What the page would take in the slotted format its budget is
    /// accounted in (module docs).
    slotted: usize,
}

impl LeafPageBuilder {
    /// Creates a builder for a leaf whose first entry has global ordinal
    /// `base_ordinal`.
    pub fn new(page_size: usize, base_ordinal: u64) -> Self {
        LeafPageBuilder {
            page_size,
            base_ordinal,
            keys: KeyStrip::default(),
            value_ends: Vec::new(),
            // Sized once: entries are only accepted while they fit the page.
            values: Vec::with_capacity(page_size.saturating_sub(LEAF_HEADER)),
            slotted: SLOTTED_LEAF_HEADER,
        }
    }

    /// Bytes the page would occupy if finished now.
    fn current_size(&self) -> usize {
        LEAF_HEADER + self.keys.size() + self.value_ends.len() * 4 + self.values.len()
    }

    /// True if `(key, value)` fits in the remaining budget: the page holds
    /// fewer than [`u16::MAX`] entries and, with the entry, stays within the
    /// page size both as written and in slotted accounting.
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        let n = self.count() + 1;
        n <= MAX_ENTRIES
            && self.slotted + 4 + slice_len(key) + slice_len(value) <= self.page_size
            && LEAF_HEADER + self.keys.size_with(key) + n * 4 + self.values.len() + value.len()
                <= self.page_size
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.keys.count() == 0
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        self.keys.count()
    }

    /// Appends an entry. Keys must arrive in strictly ascending order;
    /// callers are responsible for ordering, the builder only debug-asserts.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if !self.fits(key, value) && !self.is_empty() {
            return Err(Error::Storage("leaf page overflow".into()));
        }
        debug_assert!(
            self.keys.last().is_none_or(|lk| lk < key),
            "keys must be strictly ascending"
        );
        if self.values.len() + value.len() > u32::MAX as usize {
            return Err(Error::Storage("page offset overflow".into()));
        }
        self.keys.push(key)?;
        self.values.extend_from_slice(value);
        self.value_ends.push(self.values.len() as u32);
        self.slotted += 4 + slice_len(key) + slice_len(value);
        Ok(())
    }

    /// First key in the page (None if empty).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.keys.first()
    }

    /// Writes the page image into `out`, which is `current_size()` long.
    fn write_into(&self, out: &mut [u8]) {
        let (header, body) = out.split_at_mut(LEAF_HEADER);
        header[..8].copy_from_slice(&self.base_ordinal.to_le_bytes());
        header[8..].copy_from_slice(&self.keys.header());
        let body = self.keys.write(body);
        put_u32s(body, &self.value_ends).copy_from_slice(&self.values);
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
        self.keys.clear();
        self.value_ends.clear();
        self.values.clear();
        self.slotted = SLOTTED_LEAF_HEADER;
        page
    }
}

/// A parsed leaf header, holding no reference to the page, so a
/// [`LeafWalk`](crate::walk::LeafWalk) can keep it beside the page's
/// `Arc<[u8]>`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafShape {
    base_ordinal: u64,
    keys: Keys,
}

impl LeafShape {
    fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < LEAF_HEADER {
            return Err(Error::corruption("leaf page too short"));
        }
        // INVARIANT: the header is LEAF_HEADER bytes long (checked above).
        let base_ordinal = u64::from_le_bytes(data[0..8].try_into().unwrap());
        let count = u16::from_le_bytes([data[8], data[9]]) as usize;
        let width = u16::from_le_bytes([data[10], data[11]]) as usize;
        let keys = Keys::parse(data, LEAF_HEADER, count, width)?;
        let shape = LeafShape { base_ordinal, keys };
        if data.len() < shape.values() {
            return Err(Error::corruption("leaf value ends out of bounds"));
        }
        Ok(shape)
    }

    pub(crate) fn count(&self) -> usize {
        self.keys.count
    }

    /// Global ordinal of entry 0.
    pub(crate) fn base_ordinal(&self) -> u64 {
        self.base_ordinal
    }

    /// Where the values start (the value ends sit right after the keys).
    fn values(&self) -> usize {
        self.keys.end + self.keys.count * 4
    }

    /// The bytes of `data` key `idx` occupies.
    pub(crate) fn key_range(&self, data: &[u8], idx: usize) -> Result<Range<usize>> {
        self.keys.range(data, idx)
    }

    /// The bytes of `data` value `idx` occupies.
    pub(crate) fn value_range(&self, data: &[u8], idx: usize) -> Result<Range<usize>> {
        item_range(data, self.keys.end, self.values(), data.len(), idx)
    }
}

/// Read-only view over a serialized leaf page.
#[derive(Debug, Clone, Copy)]
pub struct LeafPage<'a> {
    data: &'a [u8],
    shape: LeafShape,
}

impl<'a> LeafPage<'a> {
    /// Parses the page header and checks that the keys and the value ends
    /// lie inside the page.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        Ok(LeafPage {
            data,
            shape: LeafShape::parse(data)?,
        })
    }

    /// Number of entries.
    pub fn count(&self) -> usize {
        self.shape.count()
    }

    /// Global ordinal of entry 0.
    pub fn base_ordinal(&self) -> u64 {
        self.shape.base_ordinal()
    }

    /// The parsed header a [`LeafWalk`](crate::walk::LeafWalk) steps by.
    pub(crate) fn shape(&self) -> LeafShape {
        self.shape
    }

    /// Returns the entry at `idx` (panics on out-of-bounds index).
    pub fn entry(&self, idx: usize) -> Result<(&'a [u8], &'a [u8])> {
        let key = self.key(idx)?;
        let range = self.shape.value_range(self.data, idx)?;
        Ok((key, &self.data[range]))
    }

    /// Key of the entry at `idx` (panics on out-of-bounds index). Reads the
    /// key strip alone — what an in-page search compares.
    #[inline]
    pub fn key(&self, idx: usize) -> Result<&'a [u8]> {
        assert!(idx < self.count(), "leaf index out of bounds");
        self.shape.keys.key(self.data, idx)
    }

    /// First key (None if the page is empty).
    pub fn first_key(&self) -> Result<Option<&'a [u8]>> {
        if self.count() == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(0)?))
    }

    /// Last key (None if the page is empty).
    pub fn last_key(&self) -> Result<Option<&'a [u8]>> {
        match self.count().checked_sub(1) {
            Some(last) => Ok(Some(self.key(last)?)),
            None => Ok(None),
        }
    }

    /// Binary search for `key`. Returns `(Ok(idx), cmps)` on an exact match
    /// or `(Err(insertion_point), cmps)` otherwise, where `cmps` is the
    /// number of key comparisons performed (for CPU cost accounting).
    pub fn search(&self, key: &[u8]) -> Result<(std::result::Result<usize, usize>, u32)> {
        let keys = self.shape.keys;
        binary_search(key, keys.count, |i| keys.key(self.data, i))
    }

    /// Exponential (galloping) search for `key` starting at position `from`
    /// (Bentley & Yao, used by the stateful cursor of Section 3.2). Returns
    /// the same shape as [`LeafPage::search`].
    pub fn exponential_search(
        &self,
        key: &[u8],
        from: usize,
    ) -> Result<(std::result::Result<usize, usize>, u32)> {
        let keys = self.shape.keys;
        gallop(key, from, keys.count, |i| keys.key(self.data, i))
    }
}

/// Binary search for `key` over `lo..hi` of ascending keys read through
/// `key_at`, adding one to `cmps` per comparison.
#[inline]
fn bisect<'k>(
    key: &[u8],
    mut lo: usize,
    mut hi: usize,
    key_at: &impl Fn(usize) -> Result<&'k [u8]>,
    cmps: &mut u32,
) -> Result<std::result::Result<usize, usize>> {
    while lo < hi {
        let mid = (lo + hi) / 2;
        *cmps += 1;
        match key_at(mid)?.cmp(key) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(Ok(mid)),
        }
    }
    Ok(Err(lo))
}

/// Binary search for `key` over `n` ascending keys read through `key_at`:
/// `Ok(idx)` on a match, else `Err(insertion_point)`, and the comparisons
/// made.
#[inline]
fn binary_search<'k>(
    key: &[u8],
    n: usize,
    key_at: impl Fn(usize) -> Result<&'k [u8]>,
) -> Result<(std::result::Result<usize, usize>, u32)> {
    let mut cmps = 0;
    let found = bisect(key, 0, n, &key_at, &mut cmps)?;
    Ok((found, cmps))
}

/// Exponential (galloping) search for `key` from position `from` over `n`
/// ascending keys read through `key_at`: gallop to a window
/// `[from + step/2, from + step]` that holds `key`, then binary-search it.
#[inline]
fn gallop<'k>(
    key: &[u8],
    from: usize,
    n: usize,
    key_at: impl Fn(usize) -> Result<&'k [u8]>,
) -> Result<(std::result::Result<usize, usize>, u32)> {
    let mut cmps = 0u32;
    if from >= n {
        return Ok((Err(n), cmps));
    }
    let mut step = 1usize;
    let mut prev = from;
    let mut bound = from;
    loop {
        cmps += 1;
        match key_at(bound)?.cmp(key) {
            Ordering::Less => {
                prev = bound + 1;
                if bound == n - 1 {
                    return Ok((Err(n), cmps));
                }
                bound = (bound + step).min(n - 1);
                step *= 2;
            }
            Ordering::Equal => return Ok((Ok(bound), cmps)),
            Ordering::Greater => break,
        }
    }
    let found = bisect(key, prev, bound, &key_at, &mut cmps)?;
    Ok((found, cmps))
}

/// Builds an internal (router) page.
#[derive(Debug)]
pub struct InternalPageBuilder {
    page_size: usize,
    keys: KeyStrip,
    children: Vec<u32>,
    /// What the page would take in the slotted format its budget is
    /// accounted in (module docs).
    slotted: usize,
}

impl InternalPageBuilder {
    /// Creates an internal page builder.
    pub fn new(page_size: usize) -> Self {
        InternalPageBuilder {
            page_size,
            keys: KeyStrip::default(),
            children: Vec::new(),
            slotted: SLOTTED_INTERNAL_HEADER,
        }
    }

    /// Bytes the page would occupy if finished now.
    fn current_size(&self) -> usize {
        INTERNAL_HEADER + self.keys.size() + self.children.len() * 4
    }

    /// True if a `(separator, child)` entry fits: the page holds fewer
    /// than [`u16::MAX`] children and, with the entry, stays within the
    /// page size both as written and in slotted accounting.
    pub fn fits(&self, key: &[u8]) -> bool {
        let n = self.count() + 1;
        n <= MAX_ENTRIES
            && self.slotted + 4 + slice_len(key) + 5 <= self.page_size
            && INTERNAL_HEADER + self.keys.size_with(key) + n * 4 <= self.page_size
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.keys.count() == 0
    }

    /// Number of children.
    pub fn count(&self) -> usize {
        self.keys.count()
    }

    /// Appends a `(separator key, child page)` routing entry. The separator
    /// is the first key of the child subtree; entries ascend strictly.
    pub fn add(&mut self, key: &[u8], child: u32) -> Result<()> {
        if !self.fits(key) && !self.is_empty() {
            return Err(Error::Storage("internal page overflow".into()));
        }
        self.keys.push(key)?;
        self.children.push(child);
        self.slotted += 4 + slice_len(key) + varint_len(u64::from(child));
        Ok(())
    }

    /// First separator key.
    pub fn first_key(&self) -> Option<&[u8]> {
        self.keys.first()
    }

    /// Serializes the page.
    pub fn finish(self) -> Vec<u8> {
        let mut out = vec![0; self.current_size()];
        let (header, body) = out.split_at_mut(INTERNAL_HEADER);
        header.copy_from_slice(&self.keys.header());
        put_u32s(self.keys.write(body), &self.children);
        out
    }
}

/// Read-only view over a serialized internal page.
#[derive(Debug, Clone, Copy)]
pub struct InternalPage<'a> {
    data: &'a [u8],
    keys: Keys,
}

impl<'a> InternalPage<'a> {
    /// Parses the page header and checks that the separators and the
    /// children lie inside the page.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < INTERNAL_HEADER {
            return Err(Error::corruption("internal page too short"));
        }
        let count = u16::from_le_bytes([data[0], data[1]]) as usize;
        let width = u16::from_le_bytes([data[2], data[3]]) as usize;
        let keys = Keys::parse(data, INTERNAL_HEADER, count, width)?;
        if data.len() < keys.end + count * 4 {
            return Err(Error::corruption("internal children out of bounds"));
        }
        Ok(InternalPage { data, keys })
    }

    /// Number of children.
    pub fn count(&self) -> usize {
        self.keys.count
    }

    /// Returns the `(separator, child)` entry at `idx`;
    /// [`Error::Corruption`] when the page has no such entry.
    pub fn entry(&self, idx: usize) -> Result<(&'a [u8], u32)> {
        if idx >= self.count() {
            return Err(Error::corruption(format!(
                "internal page has no entry {idx} ({} entries)",
                self.count()
            )));
        }
        let key = self.keys.key(self.data, idx)?;
        let child = u32_at(self.data, self.keys.end + idx * 4)?;
        Ok((key, child as u32))
    }

    /// Finds the child to descend into for `key`: the rightmost child whose
    /// separator is `<= key` (the leftmost child if `key` sorts before all
    /// separators). Returns `(child_idx, child_page, cmps)`. A page with
    /// no entries routes nowhere: the bulk loader never writes one, so it
    /// is reported as [`Error::Corruption`].
    pub fn route(&self, key: &[u8]) -> Result<(usize, u32, u32)> {
        let mut lo = 0usize;
        let mut hi = self.count();
        let mut cmps = 0u32;
        // Find first separator > key.
        while lo < hi {
            let mid = (lo + hi) / 2;
            cmps += 1;
            if self.keys.key(self.data, mid)? <= key {
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

    /// One width: the keys are a bare strip, `key_width` says how wide.
    /// Mixed widths: `key_width` 0 and key ends in front of the key bytes.
    #[test]
    fn fixed_and_variable_width_layouts() {
        let fixed = build_leaf(&[(b"ab", b"1"), (b"cd", b"22")], 3);
        assert_eq!(&fixed[8..12], &[2, 0, 2, 0]);
        assert_eq!(&fixed[12..16], b"abcd");
        assert_eq!(&fixed[16..24], &[1, 0, 0, 0, 3, 0, 0, 0]);
        assert_eq!(&fixed[24..], b"122");

        let variable = build_leaf(&[(b"ab", b"1"), (b"abc", b"22")], 3);
        assert_eq!(&variable[8..12], &[2, 0, 0, 0]);
        assert_eq!(&variable[12..20], &[2, 0, 0, 0, 5, 0, 0, 0]);
        assert_eq!(&variable[20..25], b"ababc");
        let p = LeafPage::parse(&variable).unwrap();
        assert_eq!(p.entry(1).unwrap(), (&b"abc"[..], &b"22"[..]));
    }

    /// The one page that can hold an empty key holds only it, and stores
    /// it through key ends like any mixed-width page.
    #[test]
    fn a_lone_empty_key_takes_the_variable_path() {
        let data = build_leaf(&[(b"", b"v")], 0);
        assert_eq!(&data[8..12], &[1, 0, 0, 0]);
        let p = LeafPage::parse(&data).unwrap();
        assert_eq!(p.entry(0).unwrap(), (&b""[..], &b"v"[..]));
        assert_eq!(p.search(b"").unwrap().0, Ok(0));
        assert_eq!(p.search(b"a").unwrap().0, Err(1));
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
    fn single_entry_leaf() {
        let data = build_leaf(&[(b"k", b"v")], 3);
        let p = LeafPage::parse(&data).unwrap();
        assert_eq!((p.count(), p.base_ordinal()), (1, 3));
        assert_eq!(p.entry(0).unwrap(), (&b"k"[..], &b"v"[..]));
        assert_eq!(p.first_key().unwrap(), p.last_key().unwrap());
        for (probe, want) in [(&b"j"[..], Err(0)), (b"k", Ok(0)), (b"l", Err(1))] {
            assert_eq!(p.search(probe).unwrap().0, want, "{probe:?}");
            assert_eq!(p.exponential_search(probe, 0).unwrap().0, want, "{probe:?}");
        }
    }

    /// A gallop that starts at or past the last entry has nothing to
    /// compare: it answers "after everything" and charges nothing.
    #[test]
    fn gallop_from_the_end_compares_nothing() {
        let data = build_leaf(&[(b"b", b"1"), (b"d", b"2")], 0);
        let p = LeafPage::parse(&data).unwrap();
        for from in [2, 3, 100] {
            assert_eq!(p.exponential_search(b"a", from).unwrap(), (Err(2), 0));
            assert_eq!(p.exponential_search(b"d", from).unwrap(), (Err(2), 0));
        }
    }

    /// Pages written one after another through `take_shared` are the
    /// pages fresh builders `finish` — the key strip's width included,
    /// which a page of mixed widths must not leak into the next page.
    #[test]
    fn take_shared_writes_what_finish_writes() {
        let pages: [&[(&[u8], &[u8])]; 4] = [
            &[(b"aa", b"1"), (b"bb", b"22")],
            &[(b"c", b"3"), (b"ccc", b"")],
            &[(b"dd", b"4"), (b"ee", b"55"), (b"ff", b"6")],
            &[],
        ];
        let mut shared = LeafPageBuilder::new(4096, 10);
        let mut base = 10;
        for entries in pages {
            for (k, v) in entries {
                shared.add(k, v).unwrap();
            }
            let next = base + entries.len() as u64;
            let page = shared.take_shared(next);
            assert_eq!(&page[..], &build_leaf(entries, base)[..], "page at {base}");
            assert!(shared.is_empty());
            assert_eq!(shared.current_size(), LEAF_HEADER);
            base = next;
        }
    }

    /// `current_size` is what `finish` writes, after every entry, for leaf
    /// and router builders over fixed- and mixed-width keys.
    #[test]
    fn current_size_is_the_finished_length() {
        let fixed: Vec<Vec<u8>> = (0..20u8).map(|i| vec![b'k', i]).collect();
        let mixed: Vec<Vec<u8>> = (0..20u8).map(|i| vec![b'k'; 1 + i as usize]).collect();
        for keys in [fixed, mixed] {
            for n in 0..=keys.len() {
                let mut leaf = LeafPageBuilder::new(4096, 0);
                let mut router = InternalPageBuilder::new(4096);
                for (i, k) in keys[..n].iter().enumerate() {
                    leaf.add(k, &vec![1; i % 4]).unwrap();
                    router.add(k, i as u32).unwrap();
                }
                let (size, router_size) = (leaf.current_size(), router.current_size());
                assert_eq!(leaf.finish().len(), size, "leaf of {n}");
                assert_eq!(router.finish().len(), router_size, "router of {n}");
            }
        }
    }

    /// A key wider than a `u16` cannot be a strip width: such keys are
    /// stored through key ends even when they all share one width.
    #[test]
    fn keys_wider_than_a_u16_take_the_variable_path() {
        let wide = u16::MAX as usize + 1;
        let (a, b) = (vec![b'a'; wide], vec![b'b'; wide]);
        let mut builder = LeafPageBuilder::new(1 << 20, 0);
        builder.add(&a, b"1").unwrap();
        builder.add(&b, b"2").unwrap();
        let data = builder.finish();
        assert_eq!(&data[8..12], &[2, 0, 0, 0]);
        let p = LeafPage::parse(&data).unwrap();
        assert_eq!(p.entry(0).unwrap(), (&a[..], &b"1"[..]));
        assert_eq!(p.entry(1).unwrap(), (&b[..], &b"2"[..]));
        assert_eq!(p.search(&b).unwrap().0, Ok(1));
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

    /// A search compares keys and nothing else: a pivot whose value end is
    /// damaged is passed over (reading that entry still fails).
    #[test]
    fn search_decodes_keys_only() {
        let mut data = build_leaf(&[(b"b", b"1"), (b"d", b"2"), (b"f", b"3")], 0);
        // `[header 12][keys "bdf"][value ends 1 2 3][values]`: make "d"'s
        // value end at byte 255 of a three-byte run — past the page for
        // "d", before its own start for "f".
        data[12 + 3 + 4] = 0xFF;
        let p = LeafPage::parse(&data).unwrap();
        assert!(matches!(p.entry(1), Err(Error::Corruption(_))));
        assert!(matches!(p.entry(2), Err(Error::Corruption(_))));
        // An end below its predecessor is corruption too.
        data[12 + 3 + 4] = 0;
        let p = LeafPage::parse(&data).unwrap();
        assert!(matches!(p.entry(1), Err(Error::Corruption(_))));
        assert_eq!(p.key(1).unwrap(), b"d");
        assert_eq!(p.search(b"d").unwrap().0, Ok(1));
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

    /// Entries are admitted exactly while the slotted accounting allows
    /// them (fixed-width keys), and the page written is never larger than
    /// that accounting.
    #[test]
    fn fixed_width_pages_break_where_slotted_pages_did() {
        for (key_len, value_len) in [(8usize, 0usize), (9, 0), (9, 700), (16, 130)] {
            let mut b = LeafPageBuilder::new(4096, 0);
            let mut slotted = SLOTTED_LEAF_HEADER;
            let value = vec![7u8; value_len];
            for i in 0u64.. {
                let mut key = vec![0u8; key_len];
                key[key_len - 8..].copy_from_slice(&i.to_be_bytes());
                let cost = 4 + slice_len(&key) + slice_len(&value);
                assert_eq!(b.fits(&key, &value), slotted + cost <= 4096);
                if !b.fits(&key, &value) {
                    break;
                }
                b.add(&key, &value).unwrap();
                slotted += cost;
                assert!(b.current_size() <= slotted);
            }
        }
    }

    /// The router builder's budget follows the same rule as the leaf's:
    /// separators are admitted exactly while the slotted accounting (with
    /// 5 bytes reserved per child) allows them, and the page written is
    /// never larger than that accounting.
    #[test]
    fn router_pages_break_where_slotted_pages_did() {
        for key_len in [4usize, 8, 9, 40] {
            let mut b = InternalPageBuilder::new(4096);
            let mut slotted = SLOTTED_INTERNAL_HEADER;
            for i in 0u32.. {
                let mut key = vec![0u8; key_len];
                key[key_len - 4..].copy_from_slice(&i.to_be_bytes());
                let cost = 4 + slice_len(&key) + 5;
                assert_eq!(b.fits(&key), slotted + cost <= 4096, "width {key_len}");
                if !b.fits(&key) {
                    break;
                }
                b.add(&key, i).unwrap();
                slotted += 4 + slice_len(&key) + varint_len(u64::from(i));
                assert!(b.current_size() <= slotted);
            }
        }
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
        for seps in [[&b"a"[..], b"m", b"t"], [b"a", b"mm", b"ttt"]] {
            let mut b = InternalPageBuilder::new(4096);
            for (sep, child) in seps.iter().zip([10, 20, 30]) {
                b.add(sep, child).unwrap();
            }
            let data = b.finish();
            let p = InternalPage::parse(&data).unwrap();
            assert_eq!(p.count(), 3);
            assert_eq!(p.entry(1).unwrap(), (seps[1], 20));
            // key before first separator routes to the leftmost child
            assert_eq!(p.route(b"A").unwrap().1, 10);
            assert_eq!(p.route(b"a").unwrap().1, 10);
            assert_eq!(p.route(b"c").unwrap().1, 10);
            assert_eq!(p.route(seps[1]).unwrap().1, 20);
            assert_eq!(p.route(b"n").unwrap().1, 20);
            assert_eq!(p.route(b"z").unwrap().1, 30);
        }
    }

    #[test]
    fn empty_internal_page_routes_to_an_error() {
        let data = InternalPageBuilder::new(4096).finish();
        let p = InternalPage::parse(&data).unwrap();
        assert_eq!(p.count(), 0);
        assert!(matches!(p.route(b"k"), Err(Error::Corruption(_))));
        assert!(matches!(p.entry(0), Err(Error::Corruption(_))));
    }

    /// A page's count is a `u16`: on a page with room for more, the leaf
    /// builder stops at `u16::MAX` entries, the count round-trips and the
    /// last key is found (it used to wrap, and hide the rest).
    #[test]
    fn entry_count_stops_at_u16_max_on_a_2_mib_page() {
        let mut b = LeafPageBuilder::new(2 << 20, 0);
        let mut n = 0u32;
        while n < 70_000 && b.fits(&n.to_be_bytes(), b"") {
            b.add(&n.to_be_bytes(), b"").unwrap();
            n += 1;
        }
        assert_eq!(n as usize, MAX_ENTRIES);
        assert!(b.add(&n.to_be_bytes(), b"").is_err());
        let data = b.finish();
        assert!(data.len() < 2 << 20, "the cap, not the page, binds");
        let p = LeafPage::parse(&data).unwrap();
        assert_eq!(p.count(), MAX_ENTRIES);
        let last = (n - 1).to_be_bytes();
        assert_eq!(p.search(&last).unwrap().0, Ok(MAX_ENTRIES - 1));
        assert_eq!(p.last_key().unwrap(), Some(&last[..]));
    }

    /// A router page's count is a `u16`: the builder stops at `u16::MAX`
    /// children even when the page has room for more, and every one of
    /// them routes.
    #[test]
    fn router_count_stops_at_u16_max_on_a_2_mib_page() {
        let mut b = InternalPageBuilder::new(2 << 20);
        let mut n = 0u32;
        while n < 70_000 && b.fits(&n.to_be_bytes()) {
            b.add(&n.to_be_bytes(), n).unwrap();
            n += 1;
        }
        assert_eq!(n as usize, MAX_ENTRIES);
        assert!(b.current_size() < 2 << 20, "the cap, not the page, binds");
        let data = b.finish();
        let p = InternalPage::parse(&data).unwrap();
        assert_eq!(p.count(), MAX_ENTRIES);
        let last = n - 1;
        assert_eq!(p.route(&last.to_be_bytes()).unwrap().1, last);
        assert_eq!(p.route(&u32::MAX.to_be_bytes()).unwrap().1, last);
    }

    #[test]
    fn parse_rejects_corruption() {
        assert!(LeafPage::parse(&[1, 2]).is_err());
        assert!(InternalPage::parse(&[1]).is_err());
        // Key count larger than the page.
        let mut bad = vec![0u8; 12];
        bad[8] = 0xFF;
        bad[9] = 0xFF;
        assert!(LeafPage::parse(&bad).is_err());
        bad[10] = 1;
        assert!(LeafPage::parse(&bad).is_err());
        // A last key end past the page.
        let mut data = build_leaf(&[(b"a", b"1"), (b"bb", b"2")], 0);
        data[16] = 0xFF;
        assert!(matches!(LeafPage::parse(&data), Err(Error::Corruption(_))));
    }

    /// A page cut after its keys — whole keys, but value ends or children
    /// missing — fails to parse, on both key layouts.
    #[test]
    fn parse_rejects_a_page_cut_after_its_keys() {
        for keys in [[&b"aa"[..], b"bb"], [b"a", b"bb"]] {
            let mut leaf = LeafPageBuilder::new(4096, 0);
            let mut router = InternalPageBuilder::new(4096);
            for (i, k) in keys.iter().enumerate() {
                leaf.add(k, b"v").unwrap();
                router.add(k, i as u32).unwrap();
            }
            let (leaf, router) = (leaf.finish(), router.finish());
            let shape = LeafPage::parse(&leaf).unwrap().shape();
            let leaf_keys_end = shape.values() - 4 * keys.len();
            for cut in leaf_keys_end..shape.values() {
                let res = LeafPage::parse(&leaf[..cut]);
                assert!(
                    matches!(res, Err(Error::Corruption(_))),
                    "leaf cut at {cut}"
                );
            }
            let children = router.len() - 4 * keys.len();
            for cut in children..router.len() {
                let res = InternalPage::parse(&router[..cut]);
                assert!(
                    matches!(res, Err(Error::Corruption(_))),
                    "router cut at {cut}"
                );
            }
            assert!(LeafPage::parse(&leaf[..shape.values()]).is_ok());
            assert!(InternalPage::parse(&router).is_ok());
        }
    }
}
