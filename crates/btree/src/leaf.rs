//! Leaf-page codecs: the plain key-strip format ([`crate::page`]) plus two
//! opt-in compressed encodings — prefix and columnar — unified behind
//! [`LeafView`].
//!
//! The prefix format shares each key's common prefix with its predecessor
//! (LevelDB-style) and keeps a **restart point** every `restart_interval`
//! entries where the full key is stored, so in-page search stays
//! logarithmic: binary search over the restart keys, then a short linear
//! decode inside one restart block.
//!
//! ```text
//! Prefix leaf:  [base_ordinal | FLAG  u64][count u16][restart_interval u16]
//!               [restart slot u32 × ceil(count / restart_interval)]
//!               heap, per entry:
//!                 at a restart:  [klen varint][key][vlen varint][value]
//!                 otherwise:     [shared varint][suffix_len varint][suffix]
//!                                [vlen varint][value]
//! ```
//!
//! The columnar format splits each page into two in-page strips: a key
//! strip (same delta/restart scheme as the prefix format, but keys only)
//! followed by a value strip, with per-restart offsets into both. In-page
//! search, key iteration and index-only scans touch **only the key strip**
//! — value bytes are never decoded until a caller asks for entry `idx`'s
//! value, and then they come out as one contiguous page slice (the
//! zero-copy fetch path pins the page and hands that slice on):
//!
//! ```text
//! Columnar leaf: [base_ordinal | CFLAG  u64][count u16][restart_interval u16]
//!                [key_strip_len u32]
//!                [key restart slot u32 × R][value restart slot u32 × R]
//!                key strip, per entry:
//!                  at a restart:  [klen varint][key]
//!                  otherwise:     [shared varint][suffix_len varint][suffix]
//!                value strip, per entry: [vlen varint][value]
//!                (R = ceil(count / restart_interval))
//! ```
//!
//! Bits 63/62 of the base-ordinal word distinguish the three encodings
//! (63 → prefix, 62 → columnar, neither → plain), so a reader detects the
//! format per page and mixed-encoding trees (old components plus new
//! flushes) need no migration; ordinals never approach `2^62`. Every
//! builder stops at [`u16::MAX`] entries, the most a page's count holds.

use crate::encoding::{get_slice, get_varint, put_slice, put_varint, slice_len, varint_len};
use crate::page::{gallop, LeafPage, LeafPageBuilder, MAX_ENTRIES};
use crate::walk::Layout;
use lsm_common::{Error, Result};
use lsm_storage::LeafEncoding;
use std::borrow::Cow;
use std::sync::Arc;

/// Bit 63 of the base-ordinal word marks a prefix-compressed leaf.
const PREFIX_FLAG: u64 = 1 << 63;

/// Bit 62 of the base-ordinal word marks a columnar leaf.
const COLUMNAR_FLAG: u64 = 1 << 62;

/// Prefix-leaf header: flagged base_ordinal (8) + count (2) + interval (2).
const PREFIX_HEADER: usize = 12;

/// Columnar-leaf header: flagged base_ordinal (8) + count (2) +
/// interval (2) + key-strip length (4).
const COLUMNAR_HEADER: usize = 16;

/// Default entries between restart points. Small enough that the linear
/// decode after the restart binary search stays short, large enough that
/// the per-restart slot + full key overhead amortizes well.
pub const DEFAULT_RESTART_INTERVAL: u16 = 16;

fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Builds a prefix-compressed leaf page incrementally, respecting a
/// page-size budget. Mirrors [`LeafPageBuilder`]'s API.
#[derive(Debug)]
pub struct PrefixLeafPageBuilder {
    page_size: usize,
    base_ordinal: u64,
    restart_interval: u16,
    /// Heap offsets of the restart entries.
    restarts: Vec<u32>,
    heap: Vec<u8>,
    count: usize,
    first_key: Option<Vec<u8>>,
    last_key: Option<Vec<u8>>,
}

impl PrefixLeafPageBuilder {
    /// Creates a builder for a leaf whose first entry has global ordinal
    /// `base_ordinal`, with the default restart interval.
    pub fn new(page_size: usize, base_ordinal: u64) -> Self {
        Self::with_restart_interval(page_size, base_ordinal, DEFAULT_RESTART_INTERVAL)
    }

    /// Like [`PrefixLeafPageBuilder::new`] with an explicit restart
    /// interval (≥ 1); exposed for codec tests.
    pub fn with_restart_interval(page_size: usize, base_ordinal: u64, interval: u16) -> Self {
        PrefixLeafPageBuilder {
            page_size,
            base_ordinal,
            restart_interval: interval.max(1),
            restarts: Vec::new(),
            heap: Vec::new(),
            count: 0,
            first_key: None,
            last_key: None,
        }
    }

    /// Bytes the page would occupy if finished now.
    pub fn current_size(&self) -> usize {
        PREFIX_HEADER + self.restarts.len() * 4 + self.heap.len()
    }

    /// Encoded heap cost of appending `(key, value)` next, plus the restart
    /// slot if the entry would start a new restart block.
    fn entry_cost(&self, key: &[u8], value: &[u8]) -> usize {
        if self.count.is_multiple_of(self.restart_interval as usize) {
            4 + slice_len(key) + slice_len(value)
        } else {
            // INVARIANT: a non-restart entry always has a predecessor.
            let shared = shared_prefix_len(key, self.last_key.as_deref().unwrap());
            varint_len(shared as u64)
                + varint_len((key.len() - shared) as u64)
                + (key.len() - shared)
                + slice_len(value)
        }
    }

    /// True if `(key, value)` fits in the remaining budget (and the page
    /// holds fewer than [`u16::MAX`] entries).
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        self.count < MAX_ENTRIES
            && self.current_size() + self.entry_cost(key, value) <= self.page_size
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Appends an entry. Keys must arrive in strictly ascending order;
    /// callers are responsible for ordering, the builder only debug-asserts.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if !self.fits(key, value) && !self.is_empty() {
            return Err(Error::Storage("leaf page overflow".into()));
        }
        debug_assert!(
            self.last_key.as_deref().is_none_or(|lk| lk < key),
            "keys must be strictly ascending"
        );
        if self.heap.len() > u32::MAX as usize {
            return Err(Error::Storage("page offset overflow".into()));
        }
        if self.count.is_multiple_of(self.restart_interval as usize) {
            self.restarts.push(self.heap.len() as u32);
            put_slice(&mut self.heap, key);
        } else {
            // INVARIANT: non-restart entries always follow a predecessor.
            let shared = shared_prefix_len(key, self.last_key.as_deref().unwrap());
            put_varint(&mut self.heap, shared as u64);
            put_varint(&mut self.heap, (key.len() - shared) as u64);
            self.heap.extend_from_slice(&key[shared..]);
        }
        put_slice(&mut self.heap, value);
        self.count += 1;
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.last_key = Some(key.to_vec());
        Ok(())
    }

    /// First key in the page (None if empty).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Serializes the page.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.current_size());
        out.extend_from_slice(&(self.base_ordinal | PREFIX_FLAG).to_le_bytes());
        out.extend_from_slice(&(self.count as u16).to_le_bytes());
        out.extend_from_slice(&self.restart_interval.to_le_bytes());
        for r in &self.restarts {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.heap);
        out
    }
}

/// Read-only view over a serialized prefix-compressed leaf page.
#[derive(Debug, Clone, Copy)]
pub struct PrefixLeafPage<'a> {
    data: &'a [u8],
    count: usize,
    base_ordinal: u64,
    restart_interval: usize,
    num_restarts: usize,
}

impl<'a> PrefixLeafPage<'a> {
    /// Parses the page header.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < PREFIX_HEADER {
            return Err(Error::corruption("prefix leaf page too short"));
        }
        let word = u64::from_le_bytes(data[0..8].try_into().unwrap());
        if word & PREFIX_FLAG == 0 {
            return Err(Error::corruption("not a prefix-compressed leaf"));
        }
        let count = u16::from_le_bytes(data[8..10].try_into().unwrap()) as usize;
        let restart_interval = u16::from_le_bytes(data[10..12].try_into().unwrap()) as usize;
        if restart_interval == 0 {
            return Err(Error::corruption("prefix leaf restart interval is zero"));
        }
        let num_restarts = count.div_ceil(restart_interval);
        if data.len() < PREFIX_HEADER + num_restarts * 4 {
            return Err(Error::corruption("prefix leaf restart array out of bounds"));
        }
        Ok(PrefixLeafPage {
            data,
            count,
            base_ordinal: word & !PREFIX_FLAG,
            restart_interval,
            num_restarts,
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

    fn heap(&self) -> &'a [u8] {
        &self.data[PREFIX_HEADER + self.num_restarts * 4..]
    }

    /// Where a [`LeafWalk`](crate::walk::LeafWalk) finds the restart array
    /// and the entry heap.
    pub(crate) fn layout(&self) -> Layout {
        Layout::Prefix {
            interval: self.restart_interval,
            restarts: PREFIX_HEADER,
            heap: PREFIX_HEADER + self.num_restarts * 4,
        }
    }

    fn restart_offset(&self, r: usize) -> usize {
        let off = PREFIX_HEADER + r * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    /// Full key of restart point `r`, borrowed straight from the heap.
    fn restart_key(&self, r: usize) -> Result<&'a [u8]> {
        let rest = self
            .heap()
            .get(self.restart_offset(r)..)
            .ok_or_else(|| Error::corruption("prefix leaf restart offset out of bounds"))?;
        Ok(get_slice(rest)?.0)
    }

    /// Decodes entries of restart block `r` from its start, calling `visit`
    /// with `(index, key, value)` until it returns `false` or the block
    /// ends. The key buffer is reused across iterations.
    fn walk_block(
        &self,
        r: usize,
        mut visit: impl FnMut(usize, &[u8], &'a [u8]) -> bool,
    ) -> Result<()> {
        let heap = self.heap();
        let mut pos = self.restart_offset(r);
        let start = r * self.restart_interval;
        let end = (start + self.restart_interval).min(self.count);
        let mut key: Vec<u8> = Vec::new();
        for i in start..end {
            let rest = heap
                .get(pos..)
                .ok_or_else(|| Error::corruption("prefix leaf entry out of bounds"))?;
            let value: &'a [u8];
            if i == start {
                let (k, n) = get_slice(rest)?;
                key.clear();
                key.extend_from_slice(k);
                let (v, m) = get_slice(&rest[n..])?;
                value = v;
                pos += n + m;
            } else {
                let (shared, a) = get_varint(rest)?;
                let (suffix_len, b) = get_varint(&rest[a..])?;
                let (shared, suffix_len) = (shared as usize, suffix_len as usize);
                if shared > key.len() || rest.len() < a + b + suffix_len {
                    return Err(Error::corruption("prefix leaf delta out of bounds"));
                }
                key.truncate(shared);
                key.extend_from_slice(&rest[a + b..a + b + suffix_len]);
                let (v, m) = get_slice(&rest[a + b + suffix_len..])?;
                value = v;
                pos += a + b + suffix_len + m;
            }
            if !visit(i, &key, value) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Returns the entry at `idx` (panics on out-of-bounds index). The key
    /// is owned for non-restart entries (reconstructed from deltas).
    pub fn entry(&self, idx: usize) -> Result<(Cow<'a, [u8]>, &'a [u8])> {
        assert!(idx < self.count, "leaf index out of bounds");
        let r = idx / self.restart_interval;
        if idx.is_multiple_of(self.restart_interval) {
            // Restart entries borrow straight from the page.
            let rest = self
                .heap()
                .get(self.restart_offset(r)..)
                .ok_or_else(|| Error::corruption("prefix leaf restart offset out of bounds"))?;
            let (k, n) = get_slice(rest)?;
            let (v, _) = get_slice(&rest[n..])?;
            return Ok((Cow::Borrowed(k), v));
        }
        let mut out: Option<(Vec<u8>, &'a [u8])> = None;
        self.walk_block(r, |i, k, v| {
            if i == idx {
                out = Some((k.to_vec(), v));
                false
            } else {
                true
            }
        })?;
        let (k, v) = out.ok_or_else(|| Error::corruption("prefix leaf entry missing"))?;
        Ok((Cow::Owned(k), v))
    }

    /// Key of the entry at `idx`.
    pub fn key(&self, idx: usize) -> Result<Cow<'a, [u8]>> {
        Ok(self.entry(idx)?.0)
    }

    /// First key (None if the page is empty).
    pub fn first_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(0)?))
    }

    /// Last key (None if the page is empty).
    pub fn last_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(self.count - 1)?))
    }

    /// Binary search for `key`: restart-array binary search, then a linear
    /// decode inside one restart block. Returns the same `Ok(idx)` /
    /// `Err(insertion_point)` values as [`LeafPage::search`] on the same
    /// entries; `cmps` counts key comparisons for CPU cost accounting.
    pub fn search(&self, key: &[u8]) -> Result<(std::result::Result<usize, usize>, u32)> {
        let mut cmps = 0u32;
        if self.count == 0 {
            return Ok((Err(0), cmps));
        }
        // Find the last restart whose key is <= `key` (block that could
        // contain it). If even restart 0 is greater, the answer is Err(0).
        let mut lo = 0usize;
        let mut hi = self.num_restarts;
        while lo < hi {
            let mid = (lo + hi) / 2;
            cmps += 1;
            if self.restart_key(mid)? <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let Some(r) = lo.checked_sub(1) else {
            return Ok((Err(0), cmps));
        };
        let mut result = Err((r * self.restart_interval + self.restart_interval).min(self.count));
        self.walk_block(r, |i, k, _| {
            cmps += 1;
            match k.cmp(key) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => {
                    result = Ok(i);
                    false
                }
                std::cmp::Ordering::Greater => {
                    result = Err(i);
                    false
                }
            }
        })?;
        Ok((result, cmps))
    }
}

/// Builds a columnar leaf page incrementally, respecting a page-size
/// budget. Mirrors [`LeafPageBuilder`]'s API; keys and values accumulate
/// in separate strips so the finished page keeps them apart.
#[derive(Debug)]
pub struct ColumnarLeafPageBuilder {
    page_size: usize,
    base_ordinal: u64,
    restart_interval: u16,
    /// Key-strip offsets of the restart entries.
    key_restarts: Vec<u32>,
    /// Value-strip offsets of the restart entries.
    value_restarts: Vec<u32>,
    key_strip: Vec<u8>,
    value_strip: Vec<u8>,
    count: usize,
    first_key: Option<Vec<u8>>,
    last_key: Option<Vec<u8>>,
}

impl ColumnarLeafPageBuilder {
    /// Creates a builder for a leaf whose first entry has global ordinal
    /// `base_ordinal`, with the default restart interval.
    pub fn new(page_size: usize, base_ordinal: u64) -> Self {
        Self::with_restart_interval(page_size, base_ordinal, DEFAULT_RESTART_INTERVAL)
    }

    /// Like [`ColumnarLeafPageBuilder::new`] with an explicit restart
    /// interval (≥ 1); exposed for codec tests.
    pub fn with_restart_interval(page_size: usize, base_ordinal: u64, interval: u16) -> Self {
        ColumnarLeafPageBuilder {
            page_size,
            base_ordinal,
            restart_interval: interval.max(1),
            key_restarts: Vec::new(),
            value_restarts: Vec::new(),
            key_strip: Vec::new(),
            value_strip: Vec::new(),
            count: 0,
            first_key: None,
            last_key: None,
        }
    }

    /// Bytes the page would occupy if finished now.
    pub fn current_size(&self) -> usize {
        COLUMNAR_HEADER
            + self.key_restarts.len() * 8
            + self.key_strip.len()
            + self.value_strip.len()
    }

    /// Encoded cost of appending `(key, value)` next, plus both restart
    /// slots if the entry would start a new restart block.
    fn entry_cost(&self, key: &[u8], value: &[u8]) -> usize {
        if self.count.is_multiple_of(self.restart_interval as usize) {
            8 + slice_len(key) + slice_len(value)
        } else {
            // INVARIANT: a non-restart entry always has a predecessor.
            let shared = shared_prefix_len(key, self.last_key.as_deref().unwrap());
            varint_len(shared as u64)
                + varint_len((key.len() - shared) as u64)
                + (key.len() - shared)
                + slice_len(value)
        }
    }

    /// True if `(key, value)` fits in the remaining budget (and the page
    /// holds fewer than [`u16::MAX`] entries).
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        self.count < MAX_ENTRIES
            && self.current_size() + self.entry_cost(key, value) <= self.page_size
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Appends an entry. Keys must arrive in strictly ascending order;
    /// callers are responsible for ordering, the builder only debug-asserts.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if !self.fits(key, value) && !self.is_empty() {
            return Err(Error::Storage("leaf page overflow".into()));
        }
        debug_assert!(
            self.last_key.as_deref().is_none_or(|lk| lk < key),
            "keys must be strictly ascending"
        );
        if self.key_strip.len() > u32::MAX as usize || self.value_strip.len() > u32::MAX as usize {
            return Err(Error::Storage("page offset overflow".into()));
        }
        if self.count.is_multiple_of(self.restart_interval as usize) {
            self.key_restarts.push(self.key_strip.len() as u32);
            self.value_restarts.push(self.value_strip.len() as u32);
            put_slice(&mut self.key_strip, key);
        } else {
            // INVARIANT: non-restart entries always follow a predecessor.
            let shared = shared_prefix_len(key, self.last_key.as_deref().unwrap());
            put_varint(&mut self.key_strip, shared as u64);
            put_varint(&mut self.key_strip, (key.len() - shared) as u64);
            self.key_strip.extend_from_slice(&key[shared..]);
        }
        put_slice(&mut self.value_strip, value);
        self.count += 1;
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.last_key = Some(key.to_vec());
        Ok(())
    }

    /// First key in the page (None if empty).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Serializes the page: header, both restart arrays, key strip, then
    /// value strip.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.current_size());
        out.extend_from_slice(&(self.base_ordinal | COLUMNAR_FLAG).to_le_bytes());
        out.extend_from_slice(&(self.count as u16).to_le_bytes());
        out.extend_from_slice(&self.restart_interval.to_le_bytes());
        out.extend_from_slice(&(self.key_strip.len() as u32).to_le_bytes());
        for r in &self.key_restarts {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for r in &self.value_restarts {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.key_strip);
        out.extend_from_slice(&self.value_strip);
        out
    }
}

/// Read-only view over a serialized columnar leaf page. Key-side methods
/// ([`ColumnarLeafPage::search`], [`ColumnarLeafPage::key`], the key walk)
/// read only the key strip; the value strip is touched exclusively by
/// [`ColumnarLeafPage::value`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnarLeafPage<'a> {
    data: &'a [u8],
    count: usize,
    base_ordinal: u64,
    restart_interval: usize,
    num_restarts: usize,
    key_strip_len: usize,
}

impl<'a> ColumnarLeafPage<'a> {
    /// Parses the page header.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < COLUMNAR_HEADER {
            return Err(Error::corruption("columnar leaf page too short"));
        }
        let word = u64::from_le_bytes(data[0..8].try_into().unwrap());
        if word & COLUMNAR_FLAG == 0 || word & PREFIX_FLAG != 0 {
            return Err(Error::corruption("not a columnar leaf"));
        }
        let count = u16::from_le_bytes(data[8..10].try_into().unwrap()) as usize;
        let restart_interval = u16::from_le_bytes(data[10..12].try_into().unwrap()) as usize;
        if restart_interval == 0 {
            return Err(Error::corruption("columnar leaf restart interval is zero"));
        }
        let key_strip_len = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;
        let num_restarts = count.div_ceil(restart_interval);
        if data.len() < COLUMNAR_HEADER + num_restarts * 8 + key_strip_len {
            return Err(Error::corruption("columnar leaf strips out of bounds"));
        }
        Ok(ColumnarLeafPage {
            data,
            count,
            base_ordinal: word & !COLUMNAR_FLAG,
            restart_interval,
            num_restarts,
            key_strip_len,
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

    fn key_strip(&self) -> &'a [u8] {
        let start = COLUMNAR_HEADER + self.num_restarts * 8;
        &self.data[start..start + self.key_strip_len]
    }

    /// Where a [`LeafWalk`](crate::walk::LeafWalk) finds the restart arrays
    /// and the two strips.
    pub(crate) fn layout(&self) -> Layout {
        let keys = COLUMNAR_HEADER + self.num_restarts * 8;
        Layout::Columnar {
            interval: self.restart_interval,
            key_restarts: COLUMNAR_HEADER,
            value_restarts: COLUMNAR_HEADER + self.num_restarts * 4,
            keys,
            values: keys + self.key_strip_len,
        }
    }

    fn value_strip(&self) -> &'a [u8] {
        &self.data[COLUMNAR_HEADER + self.num_restarts * 8 + self.key_strip_len..]
    }

    fn key_restart_offset(&self, r: usize) -> usize {
        let off = COLUMNAR_HEADER + r * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    fn value_restart_offset(&self, r: usize) -> usize {
        let off = COLUMNAR_HEADER + (self.num_restarts + r) * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    /// Full key of restart point `r`, borrowed straight from the key strip.
    fn restart_key(&self, r: usize) -> Result<&'a [u8]> {
        let rest = self
            .key_strip()
            .get(self.key_restart_offset(r)..)
            .ok_or_else(|| Error::corruption("columnar leaf restart offset out of bounds"))?;
        Ok(get_slice(rest)?.0)
    }

    /// Decodes the keys of restart block `r` from its start, calling
    /// `visit` with `(index, key)` until it returns `false` or the block
    /// ends. Never reads the value strip; the key buffer is reused.
    fn walk_keys(&self, r: usize, mut visit: impl FnMut(usize, &[u8]) -> bool) -> Result<()> {
        let strip = self.key_strip();
        let mut pos = self.key_restart_offset(r);
        let start = r * self.restart_interval;
        let end = (start + self.restart_interval).min(self.count);
        let mut key: Vec<u8> = Vec::new();
        for i in start..end {
            let rest = strip
                .get(pos..)
                .ok_or_else(|| Error::corruption("columnar leaf key out of bounds"))?;
            if i == start {
                let (k, n) = get_slice(rest)?;
                key.clear();
                key.extend_from_slice(k);
                pos += n;
            } else {
                let (shared, a) = get_varint(rest)?;
                let (suffix_len, b) = get_varint(&rest[a..])?;
                let (shared, suffix_len) = (shared as usize, suffix_len as usize);
                if shared > key.len() || rest.len() < a + b + suffix_len {
                    return Err(Error::corruption("columnar leaf key delta out of bounds"));
                }
                key.truncate(shared);
                key.extend_from_slice(&rest[a + b..a + b + suffix_len]);
                pos += a + b + suffix_len;
            }
            if !visit(i, &key) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Value of the entry at `idx`, borrowed contiguously from the value
    /// strip. Seeks from the nearest value restart, skipping at most
    /// `restart_interval - 1` varint-length headers — key bytes are never
    /// touched.
    pub fn value(&self, idx: usize) -> Result<&'a [u8]> {
        assert!(idx < self.count, "leaf index out of bounds");
        let r = idx / self.restart_interval;
        let strip = self.value_strip();
        let mut pos = self.value_restart_offset(r);
        for _ in r * self.restart_interval..idx {
            let rest = strip
                .get(pos..)
                .ok_or_else(|| Error::corruption("columnar leaf value out of bounds"))?;
            let (v, n) = get_slice(rest)?;
            let _ = v;
            pos += n;
        }
        let rest = strip
            .get(pos..)
            .ok_or_else(|| Error::corruption("columnar leaf value out of bounds"))?;
        Ok(get_slice(rest)?.0)
    }

    /// Returns the entry at `idx` (panics on out-of-bounds index). The key
    /// is owned for non-restart entries (reconstructed from deltas); the
    /// value is always one borrowed slice.
    pub fn entry(&self, idx: usize) -> Result<(Cow<'a, [u8]>, &'a [u8])> {
        Ok((self.key(idx)?, self.value(idx)?))
    }

    /// Key of the entry at `idx`; never reads the value strip.
    pub fn key(&self, idx: usize) -> Result<Cow<'a, [u8]>> {
        assert!(idx < self.count, "leaf index out of bounds");
        let r = idx / self.restart_interval;
        if idx.is_multiple_of(self.restart_interval) {
            return Ok(Cow::Borrowed(self.restart_key(r)?));
        }
        let mut out: Option<Vec<u8>> = None;
        self.walk_keys(r, |i, k| {
            if i == idx {
                out = Some(k.to_vec());
                false
            } else {
                true
            }
        })?;
        let k = out.ok_or_else(|| Error::corruption("columnar leaf key missing"))?;
        Ok(Cow::Owned(k))
    }

    /// First key (None if the page is empty).
    pub fn first_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(0)?))
    }

    /// Last key (None if the page is empty).
    pub fn last_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(self.key(self.count - 1)?))
    }

    /// Binary search for `key` over the key strip only: restart-array
    /// binary search, then a linear key decode inside one restart block.
    /// Returns the same `Ok(idx)` / `Err(insertion_point)` values as
    /// [`LeafPage::search`] on the same entries; `cmps` counts key
    /// comparisons for CPU cost accounting.
    pub fn search(&self, key: &[u8]) -> Result<(std::result::Result<usize, usize>, u32)> {
        let mut cmps = 0u32;
        if self.count == 0 {
            return Ok((Err(0), cmps));
        }
        let mut lo = 0usize;
        let mut hi = self.num_restarts;
        while lo < hi {
            let mid = (lo + hi) / 2;
            cmps += 1;
            if self.restart_key(mid)? <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let Some(r) = lo.checked_sub(1) else {
            return Ok((Err(0), cmps));
        };
        let mut result = Err((r * self.restart_interval + self.restart_interval).min(self.count));
        self.walk_keys(r, |i, k| {
            cmps += 1;
            match k.cmp(key) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => {
                    result = Ok(i);
                    false
                }
                std::cmp::Ordering::Greater => {
                    result = Err(i);
                    false
                }
            }
        })?;
        Ok((result, cmps))
    }
}

/// Read-only view over a leaf page of any encoding. All read paths go
/// through this, so plain, prefix-compressed and columnar leaves can
/// coexist in one tree (and one LSM component stack).
#[derive(Debug, Clone, Copy)]
pub enum LeafView<'a> {
    /// The key-strip format ([`crate::page`]).
    Plain(LeafPage<'a>),
    /// The prefix-compressed format.
    Prefix(PrefixLeafPage<'a>),
    /// The columnar strip format.
    Columnar(ColumnarLeafPage<'a>),
}

impl<'a> LeafView<'a> {
    /// Detects the encoding from the header flag bits and parses the page.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < 8 {
            return Err(Error::corruption("leaf page too short"));
        }
        let word = u64::from_le_bytes(data[0..8].try_into().unwrap());
        if word & PREFIX_FLAG != 0 {
            Ok(LeafView::Prefix(PrefixLeafPage::parse(data)?))
        } else if word & COLUMNAR_FLAG != 0 {
            Ok(LeafView::Columnar(ColumnarLeafPage::parse(data)?))
        } else {
            Ok(LeafView::Plain(LeafPage::parse(data)?))
        }
    }

    /// Number of entries.
    pub fn count(&self) -> usize {
        match self {
            LeafView::Plain(p) => p.count(),
            LeafView::Prefix(p) => p.count(),
            LeafView::Columnar(p) => p.count(),
        }
    }

    /// Global ordinal of entry 0.
    pub fn base_ordinal(&self) -> u64 {
        match self {
            LeafView::Plain(p) => p.base_ordinal(),
            LeafView::Prefix(p) => p.base_ordinal(),
            LeafView::Columnar(p) => p.base_ordinal(),
        }
    }

    /// The page geometry a [`LeafWalk`](crate::walk::LeafWalk) steps by.
    pub(crate) fn layout(&self) -> Layout {
        match self {
            LeafView::Plain(p) => Layout::Plain(p.shape()),
            LeafView::Prefix(p) => p.layout(),
            LeafView::Columnar(p) => p.layout(),
        }
    }

    /// Returns the entry at `idx` (panics on out-of-bounds index). Keys
    /// borrow from the page where the encoding allows and are reconstructed
    /// (owned) otherwise; values always borrow.
    pub fn entry(&self, idx: usize) -> Result<(Cow<'a, [u8]>, &'a [u8])> {
        match self {
            LeafView::Plain(p) => {
                let (k, v) = p.entry(idx)?;
                Ok((Cow::Borrowed(k), v))
            }
            LeafView::Prefix(p) => p.entry(idx),
            LeafView::Columnar(p) => p.entry(idx),
        }
    }

    /// Key of the entry at `idx`. Plain and columnar pages read only their
    /// key strip — index-only consumers never touch value bytes.
    pub fn key(&self, idx: usize) -> Result<Cow<'a, [u8]>> {
        match self {
            LeafView::Plain(p) => Ok(Cow::Borrowed(p.key(idx)?)),
            LeafView::Prefix(p) => p.key(idx),
            LeafView::Columnar(p) => p.key(idx),
        }
    }

    /// First key (None if the page is empty).
    pub fn first_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        match self {
            LeafView::Plain(p) => Ok(p.first_key()?.map(Cow::Borrowed)),
            LeafView::Prefix(p) => p.first_key(),
            LeafView::Columnar(p) => p.first_key(),
        }
    }

    /// Last key (None if the page is empty).
    pub fn last_key(&self) -> Result<Option<Cow<'a, [u8]>>> {
        match self {
            LeafView::Plain(p) => Ok(p.last_key()?.map(Cow::Borrowed)),
            LeafView::Prefix(p) => p.last_key(),
            LeafView::Columnar(p) => p.last_key(),
        }
    }

    /// In-page search for `key`; every encoding returns identical
    /// `Ok(idx)` / `Err(insertion_point)` values. Plain pages bisect their
    /// key strip; prefix and columnar pages search restart keys then one
    /// block. Neither plain nor columnar reads a value byte.
    pub fn search(&self, key: &[u8]) -> Result<(std::result::Result<usize, usize>, u32)> {
        match self {
            LeafView::Plain(p) => p.search(key),
            LeafView::Prefix(p) => p.search(key),
            LeafView::Columnar(p) => p.search(key),
        }
    }

    /// Exponential (galloping) search from `from` — see
    /// [`LeafPage::exponential_search`]. All encodings run the identical
    /// gallop over the decoded keys, so results agree exactly.
    pub fn exponential_search(
        &self,
        key: &[u8],
        from: usize,
    ) -> Result<(std::result::Result<usize, usize>, u32)> {
        match self {
            LeafView::Plain(p) => p.exponential_search(key, from),
            LeafView::Prefix(p) => gallop(key, from, p.count(), |i| p.key(i)),
            LeafView::Columnar(p) => gallop(key, from, p.count(), |i| p.key(i)),
        }
    }
}

/// A leaf builder of any encoding, dispatched once per tree from
/// [`lsm_storage::StorageOptions::leaf_encoding`].
#[derive(Debug)]
pub enum AnyLeafBuilder {
    /// The key-strip format ([`crate::page`]).
    Plain(LeafPageBuilder),
    /// The prefix-compressed format.
    Prefix(PrefixLeafPageBuilder),
    /// The columnar strip format.
    Columnar(ColumnarLeafPageBuilder),
}

impl AnyLeafBuilder {
    /// Creates a builder emitting `encoding` for a leaf whose first entry
    /// has global ordinal `base_ordinal`.
    pub fn new(encoding: LeafEncoding, page_size: usize, base_ordinal: u64) -> Self {
        match encoding {
            LeafEncoding::Plain => {
                AnyLeafBuilder::Plain(LeafPageBuilder::new(page_size, base_ordinal))
            }
            LeafEncoding::Prefix => {
                AnyLeafBuilder::Prefix(PrefixLeafPageBuilder::new(page_size, base_ordinal))
            }
            LeafEncoding::Columnar => {
                AnyLeafBuilder::Columnar(ColumnarLeafPageBuilder::new(page_size, base_ordinal))
            }
        }
    }

    /// True if `(key, value)` fits in the remaining budget.
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        match self {
            AnyLeafBuilder::Plain(b) => b.fits(key, value),
            AnyLeafBuilder::Prefix(b) => b.fits(key, value),
            AnyLeafBuilder::Columnar(b) => b.fits(key, value),
        }
    }

    /// True if no entries have been added.
    pub fn is_empty(&self) -> bool {
        match self {
            AnyLeafBuilder::Plain(b) => b.is_empty(),
            AnyLeafBuilder::Prefix(b) => b.is_empty(),
            AnyLeafBuilder::Columnar(b) => b.is_empty(),
        }
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        match self {
            AnyLeafBuilder::Plain(b) => b.count(),
            AnyLeafBuilder::Prefix(b) => b.count(),
            AnyLeafBuilder::Columnar(b) => b.count(),
        }
    }

    /// Appends an entry; keys must arrive strictly ascending.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        match self {
            AnyLeafBuilder::Plain(b) => b.add(key, value),
            AnyLeafBuilder::Prefix(b) => b.add(key, value),
            AnyLeafBuilder::Columnar(b) => b.add(key, value),
        }
    }

    /// First key in the page (None if empty).
    pub fn first_key(&self) -> Option<&[u8]> {
        match self {
            AnyLeafBuilder::Plain(b) => b.first_key(),
            AnyLeafBuilder::Prefix(b) => b.first_key(),
            AnyLeafBuilder::Columnar(b) => b.first_key(),
        }
    }

    /// Serializes the page.
    pub fn finish(self) -> Vec<u8> {
        match self {
            AnyLeafBuilder::Plain(b) => b.finish(),
            AnyLeafBuilder::Prefix(b) => b.finish(),
            AnyLeafBuilder::Columnar(b) => b.finish(),
        }
    }

    /// Serializes the page into the shared buffer the storage layer keeps
    /// and restarts the builder for the leaf whose first entry has ordinal
    /// `next_base` (see [`LeafPageBuilder::take_shared`]).
    pub fn take_shared(&mut self, next_base: u64) -> Arc<[u8]> {
        match self {
            AnyLeafBuilder::Plain(b) => b.take_shared(next_base),
            AnyLeafBuilder::Prefix(b) => {
                let next = PrefixLeafPageBuilder::with_restart_interval(
                    b.page_size,
                    next_base,
                    b.restart_interval,
                );
                std::mem::replace(b, next).finish().into()
            }
            AnyLeafBuilder::Columnar(b) => {
                let next = ColumnarLeafPageBuilder::with_restart_interval(
                    b.page_size,
                    next_base,
                    b.restart_interval,
                );
                std::mem::replace(b, next).finish().into()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_prefix(entries: &[(&[u8], &[u8])], base: u64, interval: u16) -> Vec<u8> {
        let mut b = PrefixLeafPageBuilder::with_restart_interval(1 << 20, base, interval);
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        b.finish()
    }

    #[test]
    fn prefix_roundtrip_and_flag() {
        let data = build_prefix(
            &[
                (b"apple", b"1"),
                (b"applet", b"22"),
                (b"apply", b""),
                (b"banana", b"3"),
            ],
            9,
            2,
        );
        let view = LeafView::parse(&data).unwrap();
        assert!(matches!(view, LeafView::Prefix(_)));
        assert_eq!(view.count(), 4);
        assert_eq!(view.base_ordinal(), 9);
        let expect: [(&[u8], &[u8]); 4] = [
            (b"apple", b"1"),
            (b"applet", b"22"),
            (b"apply", b""),
            (b"banana", b"3"),
        ];
        for (i, (k, v)) in expect.iter().enumerate() {
            let (gk, gv) = view.entry(i).unwrap();
            assert_eq!((gk.as_ref(), gv), (*k, *v), "entry {i}");
        }
        assert_eq!(view.first_key().unwrap().unwrap().as_ref(), b"apple");
        assert_eq!(view.last_key().unwrap().unwrap().as_ref(), b"banana");
    }

    #[test]
    fn prefix_search_matches_plain() {
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("user{i:05}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let prefix = build_prefix(&entries, 0, 7);
        let mut plain_b = LeafPageBuilder::new(1 << 20, 0);
        for (k, v) in &entries {
            plain_b.add(k, v).unwrap();
        }
        let plain_data = plain_b.finish();
        let pv = LeafView::parse(&prefix).unwrap();
        let lv = LeafView::parse(&plain_data).unwrap();
        for probe in [
            "user00000",
            "user00050",
            "user00099",
            "user00049x",
            "a",
            "zzz",
        ] {
            let (a, _) = pv.search(probe.as_bytes()).unwrap();
            let (b, _) = lv.search(probe.as_bytes()).unwrap();
            assert_eq!(a, b, "probe {probe}");
        }
    }

    #[test]
    fn empty_and_single_entry_pages() {
        let empty = PrefixLeafPageBuilder::new(4096, 0).finish();
        let v = LeafView::parse(&empty).unwrap();
        assert_eq!(v.count(), 0);
        assert_eq!(v.search(b"x").unwrap().0, Err(0));
        assert!(v.first_key().unwrap().is_none());

        let one = build_prefix(&[(b"k", b"v")], 3, 16);
        let v = LeafView::parse(&one).unwrap();
        assert_eq!(v.count(), 1);
        assert_eq!(v.entry(0).unwrap().0.as_ref(), b"k");
        assert_eq!(v.search(b"k").unwrap().0, Ok(0));
        assert_eq!(v.search(b"j").unwrap().0, Err(0));
        assert_eq!(v.search(b"l").unwrap().0, Err(1));
    }

    #[test]
    fn prefix_compresses_shared_prefixes() {
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| format!("tweet/2019-07-15/user-{i:010}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let prefix = build_prefix(&entries, 0, 16);
        let mut plain_b = LeafPageBuilder::new(1 << 20, 0);
        for (k, v) in &entries {
            plain_b.add(k, v).unwrap();
        }
        let plain = plain_b.finish();
        assert!(
            prefix.len() < plain.len() * 3 / 4,
            "prefix {} vs plain {}",
            prefix.len(),
            plain.len()
        );
    }

    #[test]
    fn plain_builder_output_unchanged_through_any_builder() {
        let mut any = AnyLeafBuilder::new(LeafEncoding::Plain, 4096, 5);
        let mut plain = LeafPageBuilder::new(4096, 5);
        for (k, v) in [(&b"a"[..], &b"1"[..]), (b"bb", b"22"), (b"ccc", b"")] {
            any.add(k, v).unwrap();
            plain.add(k, v).unwrap();
        }
        assert_eq!(any.finish(), plain.finish());
    }

    /// A page's count is a `u16`: on a page with room for more, every
    /// codec's builder stops at `u16::MAX` entries, the count round-trips
    /// and the last key is found (it used to wrap, and hide the rest).
    #[test]
    fn entry_count_stops_at_u16_max_on_a_2_mib_page() {
        for encoding in [
            LeafEncoding::Plain,
            LeafEncoding::Prefix,
            LeafEncoding::Columnar,
        ] {
            let mut b = AnyLeafBuilder::new(encoding, 2 << 20, 0);
            let mut n = 0u32;
            while n < 70_000 && b.fits(&n.to_be_bytes(), b"") {
                b.add(&n.to_be_bytes(), b"").unwrap();
                n += 1;
            }
            assert_eq!(n as usize, MAX_ENTRIES, "{encoding:?}");
            assert!(b.add(&n.to_be_bytes(), b"").is_err(), "{encoding:?}");
            let page = b.finish();
            assert!(
                page.len() < 2 << 20,
                "{encoding:?}: the cap, not the page, binds"
            );
            let view = LeafView::parse(&page).unwrap();
            assert_eq!(view.count(), MAX_ENTRIES, "{encoding:?}");
            let last = (n - 1).to_be_bytes();
            assert_eq!(view.search(&last).unwrap().0, Ok(MAX_ENTRIES - 1));
            assert_eq!(view.last_key().unwrap().unwrap().as_ref(), last);
        }
    }

    fn build_columnar(entries: &[(&[u8], &[u8])], base: u64, interval: u16) -> Vec<u8> {
        let mut b = ColumnarLeafPageBuilder::with_restart_interval(1 << 20, base, interval);
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        b.finish()
    }

    #[test]
    fn columnar_roundtrip_and_flag() {
        let entries: [(&[u8], &[u8]); 4] = [
            (b"apple", b"1"),
            (b"applet", b"22"),
            (b"apply", b""),
            (b"banana", b"3"),
        ];
        let data = build_columnar(&entries, 9, 2);
        let view = LeafView::parse(&data).unwrap();
        assert!(matches!(view, LeafView::Columnar(_)));
        assert_eq!(view.count(), 4);
        assert_eq!(view.base_ordinal(), 9);
        for (i, (k, v)) in entries.iter().enumerate() {
            let (gk, gv) = view.entry(i).unwrap();
            assert_eq!((gk.as_ref(), gv), (*k, *v), "entry {i}");
            assert_eq!(view.key(i).unwrap().as_ref(), *k, "key {i}");
        }
        assert_eq!(view.first_key().unwrap().unwrap().as_ref(), b"apple");
        assert_eq!(view.last_key().unwrap().unwrap().as_ref(), b"banana");
    }

    #[test]
    fn columnar_search_matches_plain() {
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("user{i:05}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let columnar = build_columnar(&entries, 0, 7);
        let mut plain_b = LeafPageBuilder::new(1 << 20, 0);
        for (k, v) in &entries {
            plain_b.add(k, v).unwrap();
        }
        let plain_data = plain_b.finish();
        let cv = LeafView::parse(&columnar).unwrap();
        let lv = LeafView::parse(&plain_data).unwrap();
        for probe in [
            "user00000",
            "user00050",
            "user00099",
            "user00049x",
            "a",
            "zzz",
        ] {
            let (a, _) = cv.search(probe.as_bytes()).unwrap();
            let (b, _) = lv.search(probe.as_bytes()).unwrap();
            assert_eq!(a, b, "search probe {probe}");
            for from in [0usize, 3, 50, 99] {
                let (a, _) = cv.exponential_search(probe.as_bytes(), from).unwrap();
                let (b, _) = lv.exponential_search(probe.as_bytes(), from).unwrap();
                assert_eq!(a, b, "gallop probe {probe} from {from}");
            }
        }
    }

    #[test]
    fn columnar_empty_and_single_entry_pages() {
        let empty = ColumnarLeafPageBuilder::new(4096, 0).finish();
        let v = LeafView::parse(&empty).unwrap();
        assert_eq!(v.count(), 0);
        assert_eq!(v.search(b"x").unwrap().0, Err(0));
        assert!(v.first_key().unwrap().is_none());

        let one = build_columnar(&[(b"k", b"v")], 3, 16);
        let v = LeafView::parse(&one).unwrap();
        assert_eq!(v.count(), 1);
        assert_eq!(v.entry(0).unwrap().0.as_ref(), b"k");
        assert_eq!(v.search(b"k").unwrap().0, Ok(0));
        assert_eq!(v.search(b"j").unwrap().0, Err(0));
        assert_eq!(v.search(b"l").unwrap().0, Err(1));
    }

    #[test]
    fn columnar_compresses_shared_prefixes() {
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| format!("tweet/2019-07-15/user-{i:010}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), &b"v"[..])).collect();
        let columnar = build_columnar(&entries, 0, 16);
        let mut plain_b = LeafPageBuilder::new(1 << 20, 0);
        for (k, v) in &entries {
            plain_b.add(k, v).unwrap();
        }
        let plain = plain_b.finish();
        assert!(
            columnar.len() < plain.len() * 3 / 4,
            "columnar {} vs plain {}",
            columnar.len(),
            plain.len()
        );
    }

    #[test]
    fn columnar_parse_rejects_corruption() {
        assert!(ColumnarLeafPage::parse(&[0; 8]).is_err());
        // Plain and prefix pages handed to the columnar parser.
        let plain = LeafPageBuilder::new(4096, 0).finish();
        assert!(ColumnarLeafPage::parse(&plain).is_err());
        let prefix = PrefixLeafPageBuilder::new(4096, 0).finish();
        assert!(ColumnarLeafPage::parse(&prefix).is_err());
        // Count implies more restart slots than the page holds.
        let mut bad = (COLUMNAR_FLAG).to_le_bytes().to_vec();
        bad.extend_from_slice(&u16::MAX.to_le_bytes());
        bad.extend_from_slice(&1u16.to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        assert!(ColumnarLeafPage::parse(&bad).is_err());
        // Zero restart interval.
        let mut zero = (COLUMNAR_FLAG).to_le_bytes().to_vec();
        zero.extend_from_slice(&0u16.to_le_bytes());
        zero.extend_from_slice(&0u16.to_le_bytes());
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert!(ColumnarLeafPage::parse(&zero).is_err());
        // Key strip length runs past the page.
        let mut long = (COLUMNAR_FLAG).to_le_bytes().to_vec();
        long.extend_from_slice(&0u16.to_le_bytes());
        long.extend_from_slice(&1u16.to_le_bytes());
        long.extend_from_slice(&64u32.to_le_bytes());
        assert!(ColumnarLeafPage::parse(&long).is_err());
    }

    #[test]
    fn prefix_parse_rejects_corruption() {
        assert!(PrefixLeafPage::parse(&[0; 4]).is_err());
        // Plain page handed to the prefix parser.
        let plain = LeafPageBuilder::new(4096, 0).finish();
        assert!(PrefixLeafPage::parse(&plain).is_err());
        // Count implies more restart slots than the page holds.
        let mut bad = (PREFIX_FLAG).to_le_bytes().to_vec();
        bad.extend_from_slice(&u16::MAX.to_le_bytes());
        bad.extend_from_slice(&1u16.to_le_bytes());
        assert!(PrefixLeafPage::parse(&bad).is_err());
        // Zero restart interval.
        let mut zero = (PREFIX_FLAG).to_le_bytes().to_vec();
        zero.extend_from_slice(&0u16.to_le_bytes());
        zero.extend_from_slice(&0u16.to_le_bytes());
        assert!(PrefixLeafPage::parse(&zero).is_err());
    }
}
