//! A resumable in-order walk over one leaf page.
//!
//! [`LeafPage::entry`](crate::page::LeafPage::entry) answers "entry `idx`"
//! from a page its caller has parsed first. A scan wants the entries one
//! after another, so a [`LeafWalk`] parses the header once and then keeps
//! only integers: the page's shape and the index of the next entry. It
//! holds no reference to the page, which lets a scan own it beside the
//! page's `Arc<[u8]>`; each step is handed the page again and answers with
//! byte ranges into it.

use crate::page::{LeafPage, LeafShape};
use lsm_common::Result;
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

/// Where one entry's key and value are in its page, and its ordinal.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) key: Span,
    pub(crate) value: Span,
    pub(crate) ordinal: u64,
}

impl Slot {
    /// The entry — `(key, value, ordinal)` — read back against `page`.
    pub(crate) fn of<'p>(&self, page: &'p [u8]) -> (&'p [u8], &'p [u8], u64) {
        (self.key.of(page), self.value.of(page), self.ordinal)
    }
}

/// An in-order walk over one leaf page; see the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafWalk {
    shape: LeafShape,
    /// Index of the entry [`LeafWalk::next`] answers next.
    idx: usize,
}

impl LeafWalk {
    /// Parses `page`'s header and stands before entry `idx`.
    pub(crate) fn open_at(page: &[u8], idx: usize) -> Result<Self> {
        let shape = LeafPage::parse(page)?.shape();
        Ok(LeafWalk { shape, idx })
    }

    /// The parsed header the walk steps by.
    pub(crate) fn shape(&self) -> LeafShape {
        self.shape
    }

    /// The next entry, or `None` past the last.
    pub(crate) fn next(&mut self, page: &[u8]) -> Result<Option<Slot>> {
        let i = self.idx;
        if i >= self.shape.count() {
            return Ok(None);
        }
        let slot = Slot {
            key: self.shape.key_range(page, i)?.into(),
            value: self.shape.value_range(page, i)?.into(),
            ordinal: self.shape.base_ordinal() + i as u64,
        };
        self.idx = i + 1;
        Ok(Some(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::LeafPageBuilder;
    use lsm_common::Error;

    /// A leaf of `n` entries whose keys share one width, or — `mixed` —
    /// do not (a page with `key_width` 0).
    fn page(n: u32, mixed: bool) -> Vec<u8> {
        let mut b = LeafPageBuilder::new(1 << 20, 40);
        for i in 0..n {
            let mut key = format!("user{:03}/item{:05}", i / 7, i * 3);
            if mixed {
                key.push_str(&"~".repeat(i as usize % 3));
            }
            b.add(key.as_bytes(), &vec![i as u8; (i % 5) as usize])
                .unwrap();
        }
        b.finish()
    }

    /// From every start index, on fixed- and mixed-width pages, the walk
    /// yields what `LeafPage::entry` answers index by index.
    #[test]
    fn walk_matches_entry_by_index_from_every_start() {
        for mixed in [false, true] {
            for n in [0u32, 1, 15, 16, 17, 50] {
                let page = page(n, mixed);
                if n > 2 {
                    assert_eq!(page[10..12] == [0, 0], mixed, "key_width of n={n}");
                }
                let view = LeafPage::parse(&page).unwrap();
                for start in 0..=n as usize {
                    let mut walk = LeafWalk::open_at(&page, start).unwrap();
                    for idx in start..n as usize {
                        let slot = walk.next(&page).unwrap().unwrap();
                        let (k, v) = view.entry(idx).unwrap();
                        assert_eq!(slot.key.of(&page), k, "mixed={mixed} n={n} idx={idx}");
                        assert_eq!(slot.value.of(&page), v);
                        assert_eq!(slot.ordinal, 40 + idx as u64);
                    }
                    assert!(walk.next(&page).unwrap().is_none());
                }
            }
        }
    }

    /// A walk opened at or past the last entry yields nothing, and keeps
    /// yielding nothing.
    #[test]
    fn a_walk_opened_past_the_end_is_empty() {
        for mixed in [false, true] {
            for n in [0u32, 1, 9] {
                let page = page(n, mixed);
                for start in [n as usize, n as usize + 1, 1000] {
                    let mut walk = LeafWalk::open_at(&page, start).unwrap();
                    assert!(walk.next(&page).unwrap().is_none());
                    assert!(walk.next(&page).unwrap().is_none());
                }
            }
        }
    }

    /// A span reads back the bytes it names, and nothing — never a panic —
    /// against a page too short for it.
    #[test]
    fn a_span_outside_its_page_reads_empty() {
        let page = b"0123456789";
        let span = Span::from(2..5);
        assert_eq!(span.of(page), b"234");
        assert_eq!(span.of(&page[..4]), b"");
        assert_eq!(Span::default().of(page), b"");
        let slot = Slot {
            key: Span::from(0..2),
            value: Span::from(8..12),
            ordinal: 7,
        };
        assert_eq!(slot.of(page), (&b"01"[..], &b""[..], 7));
    }

    /// Every truncation of a page is either walked cleanly or reported as
    /// corruption — never a panic.
    #[test]
    fn truncated_pages_are_corruption_not_panics() {
        for mixed in [false, true] {
            let page = page(40, mixed);
            for cut in 0..page.len() {
                let torn = &page[..cut];
                let Ok(mut walk) = LeafWalk::open_at(torn, 0) else {
                    continue;
                };
                loop {
                    match walk.next(torn) {
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
