//! A resumable in-order walk over one leaf page of any encoding.
//!
//! [`LeafView::entry`](crate::leaf::LeafView::entry) answers "entry `idx`"
//! from scratch every time — for a prefix or columnar page that is a decode
//! of the restart block up to `idx`, and for every page a header parse by
//! the caller first. A scan wants the entries one after another, so a
//! [`LeafWalk`] parses the header once and then keeps only integers: where
//! the next key and value start (a plain page answers any index straight
//! from its key strip and value ends). It holds no reference to the page,
//! which lets a scan own it beside the page's `Arc<[u8]>`; each step is
//! handed the page again and answers with byte ranges into it.

use crate::encoding::get_varint;
use crate::leaf::LeafView;
use crate::page::{u32_at, LeafShape};
use lsm_common::{Error, Result};
use std::ops::Range;

/// A byte range inside a page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl From<Range<usize>> for Span {
    fn from(range: Range<usize>) -> Self {
        Span {
            start: range.start as u32,
            end: range.end as u32,
        }
    }
}

impl Span {
    /// The bytes of `page` this span names (empty if it does not fit — a
    /// span is only ever read back against the page it was cut from).
    pub(crate) fn of<'p>(&self, page: &'p [u8]) -> &'p [u8] {
        page.get(self.start as usize..self.end as usize)
            .unwrap_or_default()
    }
}

/// Where one entry's bytes are: the value always in the page; the key in
/// the page for plain leaves, rebuilt into the walk's key buffer (`None`)
/// for the delta-encoded ones.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) key: Option<Span>,
    pub(crate) value: Span,
    pub(crate) ordinal: u64,
}

impl Slot {
    /// The entry's key: a slice of `page`, or `rebuilt` — the walk's key
    /// buffer as the step that produced this slot left it.
    pub(crate) fn key_in<'a>(&self, page: &'a [u8], rebuilt: &'a [u8]) -> &'a [u8] {
        self.key.map_or(rebuilt, |span| span.of(page))
    }
}

/// The page geometry a walk needs, as offsets from the start of the page.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Layout {
    /// The key strip and value ends of a plain page.
    Plain(LeafShape),
    /// Restart array at `restarts`, entry heap at `heap`.
    Prefix {
        interval: usize,
        restarts: usize,
        heap: usize,
    },
    /// Key and value restart arrays, then the key strip `keys..values` and
    /// the value strip from `values`.
    Columnar {
        interval: usize,
        key_restarts: usize,
        value_restarts: usize,
        keys: usize,
        values: usize,
    },
}

/// The length-prefixed slice starting at `page[pos]`, which must end at or
/// before `limit`.
fn span_at(page: &[u8], pos: usize, limit: usize) -> Result<Span> {
    let rest = page
        .get(pos..limit)
        .ok_or_else(|| Error::corruption("leaf entry offset out of bounds"))?;
    let (len, n) = get_varint(rest)?;
    let len = usize::try_from(len).map_err(|_| Error::corruption("truncated slice"))?;
    if rest.len() - n < len {
        return Err(Error::corruption("truncated slice"));
    }
    Ok(Span::from(pos + n..pos + n + len))
}

/// Applies one `[shared][suffix_len][suffix]` delta at `page[pos]` to `key`
/// and returns the position after it.
fn apply_delta(page: &[u8], pos: usize, limit: usize, key: &mut Vec<u8>) -> Result<usize> {
    let rest = page
        .get(pos..limit)
        .ok_or_else(|| Error::corruption("leaf key delta out of bounds"))?;
    let (shared, a) = get_varint(rest)?;
    let (suffix_len, b) = get_varint(&rest[a..])?;
    let suffix = usize::try_from(suffix_len)
        .ok()
        .and_then(|len| rest.get(a + b..)?.get(..len))
        .filter(|_| shared <= key.len() as u64)
        .ok_or_else(|| Error::corruption("leaf key delta out of bounds"))?;
    key.truncate(shared as usize);
    key.extend_from_slice(suffix);
    Ok(pos + a + b + suffix.len())
}

/// An in-order walk over one leaf page; see the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafWalk {
    layout: Layout,
    count: usize,
    base_ordinal: u64,
    /// Index of the entry [`LeafWalk::next`] decodes next.
    idx: usize,
    /// Where the next non-restart key (prefix: whole entry) starts.
    key_pos: usize,
    /// Columnar only: where the next non-restart value starts.
    value_pos: usize,
}

impl LeafWalk {
    /// Parses `page`'s header and stands before entry `idx`. Delta-encoded
    /// pages decode their way there from the restart point before it, so
    /// `key` — the buffer every later step must be handed again — holds
    /// the key the next delta applies to.
    pub(crate) fn open_at(page: &[u8], idx: usize, key: &mut Vec<u8>) -> Result<Self> {
        let view = LeafView::parse(page)?;
        let layout = view.layout();
        let mut walk = LeafWalk {
            layout,
            count: view.count(),
            base_ordinal: view.base_ordinal(),
            idx,
            key_pos: 0,
            value_pos: 0,
        };
        let interval = match layout {
            Layout::Plain(_) => return Ok(walk),
            Layout::Prefix { interval, .. } | Layout::Columnar { interval, .. } => interval,
        };
        walk.idx = idx - idx % interval;
        while walk.idx < idx && walk.next(page, key)?.is_some() {}
        Ok(walk)
    }

    /// Decodes the next entry, or `None` past the last.
    pub(crate) fn next(&mut self, page: &[u8], key: &mut Vec<u8>) -> Result<Option<Slot>> {
        let i = self.idx;
        if i >= self.count {
            return Ok(None);
        }
        let end = page.len();
        let (key_span, value) = match self.layout {
            Layout::Plain(shape) => (
                Some(shape.key_range(page, i)?.into()),
                shape.value_range(page, i)?.into(),
            ),
            Layout::Prefix {
                interval,
                restarts,
                heap,
            } => {
                let after_key = if i.is_multiple_of(interval) {
                    let at = heap + u32_at(page, restarts + i / interval * 4)?;
                    let full = span_at(page, at, end)?;
                    key.clear();
                    key.extend_from_slice(full.of(page));
                    full.end as usize
                } else {
                    apply_delta(page, self.key_pos, end, key)?
                };
                let value = span_at(page, after_key, end)?;
                self.key_pos = value.end as usize;
                (None, value)
            }
            Layout::Columnar {
                interval,
                key_restarts,
                value_restarts,
                keys,
                values,
            } => {
                if i.is_multiple_of(interval) {
                    let r = i / interval * 4;
                    let at = keys + u32_at(page, key_restarts + r)?;
                    let full = span_at(page, at, values)?;
                    key.clear();
                    key.extend_from_slice(full.of(page));
                    self.key_pos = full.end as usize;
                    self.value_pos = values + u32_at(page, value_restarts + r)?;
                } else {
                    self.key_pos = apply_delta(page, self.key_pos, values, key)?;
                }
                let value = span_at(page, self.value_pos, end)?;
                self.value_pos = value.end as usize;
                (None, value)
            }
        };
        self.idx = i + 1;
        Ok(Some(Slot {
            key: key_span,
            value,
            ordinal: self.base_ordinal + i as u64,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::AnyLeafBuilder;
    use lsm_storage::LeafEncoding;

    const ENCODINGS: [LeafEncoding; 3] = [
        LeafEncoding::Plain,
        LeafEncoding::Prefix,
        LeafEncoding::Columnar,
    ];

    fn page(encoding: LeafEncoding, n: u32) -> Vec<u8> {
        let mut b = AnyLeafBuilder::new(encoding, 1 << 20, 40);
        for i in 0..n {
            let key = format!("user{:03}/item{:05}", i / 7, i * 3);
            b.add(key.as_bytes(), &vec![i as u8; (i % 5) as usize])
                .unwrap();
        }
        b.finish()
    }

    /// From every start index, on every encoding, the walk yields what
    /// `LeafView::entry` answers index by index.
    #[test]
    fn walk_matches_entry_by_index_from_every_start() {
        for encoding in ENCODINGS {
            for n in [0u32, 1, 15, 16, 17, 50] {
                let page = page(encoding, n);
                let view = LeafView::parse(&page).unwrap();
                for start in 0..=n as usize {
                    let mut key = Vec::new();
                    let mut walk = LeafWalk::open_at(&page, start, &mut key).unwrap();
                    for idx in start..n as usize {
                        let slot = walk.next(&page, &mut key).unwrap().unwrap();
                        let (k, v) = view.entry(idx).unwrap();
                        let got = slot.key_in(&page, &key);
                        assert_eq!(got, k.as_ref(), "{encoding:?} n={n} idx={idx}");
                        assert_eq!(slot.value.of(&page), v);
                        assert_eq!(slot.ordinal, 40 + idx as u64);
                    }
                    assert!(walk.next(&page, &mut key).unwrap().is_none());
                }
            }
        }
    }

    /// Every truncation of a page is either walked cleanly or reported as
    /// corruption — never a panic.
    #[test]
    fn truncated_pages_are_corruption_not_panics() {
        for encoding in ENCODINGS {
            let page = page(encoding, 40);
            for cut in 0..page.len() {
                let torn = &page[..cut];
                let mut key = Vec::new();
                let Ok(mut walk) = LeafWalk::open_at(torn, 0, &mut key) else {
                    continue;
                };
                loop {
                    match walk.next(torn, &mut key) {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(e) => {
                            assert!(matches!(e, Error::Corruption(_)), "{e:?}");
                            break;
                        }
                    }
                }
            }
        }
    }
}
