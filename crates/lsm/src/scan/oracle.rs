//! The scan [`LsmScan`](super::LsmScan) replaced, kept as its test oracle:
//! the same reconciliation over *owned* heads — a `BinaryHeap` of
//! `(key, entry)` values decoded out of each source as it is stepped. The
//! lending scan must produce the same entries, ranks and ordinals, and
//! charge the same simulated CPU time at every step.

use super::{clone_bound, ScanOptions};
use crate::bitmap::BitmapSnapshot;
use crate::component::DiskComponent;
use crate::entry::LsmEntry;
use lsm_btree::BTreeScan;
use lsm_common::{Key, Result};
use lsm_storage::{Event, Storage};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Bound;
use std::sync::Arc;

#[allow(clippy::large_enum_variant)] // as for the lending scan's `Source`
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

/// Heads order by `(key, rank)`, reversed: the top of the (max-)heap is the
/// smallest key and, among equal keys, the newest source.
impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        (&other.key, other.rank).cmp(&(&self.key, self.rank))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

/// The owning reconciling scan: every head is copied out of its page into
/// a `Head` the heap moves around.
pub(super) struct OwningScan {
    storage: Arc<Storage>,
    sources: Vec<Source>,
    /// At most one head per source that still has entries.
    heads: BinaryHeap<Head>,
    opts: ScanOptions,
    started: bool,
}

impl OwningScan {
    /// Creates a scan over an explicit set of sources: an optional memory
    /// snapshot (treated as newest) plus disk components ordered
    /// newest-first, over key range `[lo, hi]`.
    pub(super) fn new(
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
        Ok(OwningScan {
            storage,
            sources,
            heads: BinaryHeap::new(),
            opts,
            started: false,
        })
    }

    fn prime(&mut self) -> Result<()> {
        self.heads.reserve(self.sources.len());
        for (rank, source) in self.sources.iter_mut().enumerate() {
            if let Some((key, entry, ordinal)) = source.next(self.opts.respect_bitmaps)? {
                self.heads.push(Head {
                    key,
                    entry,
                    ordinal,
                    rank,
                });
            }
        }
        self.started = true;
        Ok(())
    }

    /// Takes the top head and puts its source's next entry in its place (one
    /// sift-down; an exhausted source leaves the heap).
    fn pop_and_advance(&mut self) -> Result<Option<Head>> {
        let Some(mut top) = self.heads.peek_mut() else {
            return Ok(None);
        };
        let rank = top.rank;
        Ok(Some(
            match self.sources[rank].next(self.opts.respect_bitmaps)? {
                Some((key, entry, ordinal)) => std::mem::replace(
                    &mut *top,
                    Head {
                        key,
                        entry,
                        ordinal,
                        rank,
                    },
                ),
                None => PeekMut::pop(top),
            },
        ))
    }

    /// Returns the next reconciled entry: `(key, entry)` where `entry` is
    /// the newest version of `key`. Anti-matter entries are suppressed
    /// unless `emit_anti_matter` is set.
    pub(super) fn next_entry(&mut self) -> Result<Option<(Key, LsmEntry)>> {
        loop {
            let Some((key, entry, _, _)) = self.next_ranked()? else {
                return Ok(None);
            };
            if entry.anti_matter && !self.opts.emit_anti_matter {
                continue;
            }
            return Ok(Some((key, entry)));
        }
    }

    /// Like [`OwningScan::next_entry`] but also reports the winning source's
    /// rank (0 = newest source) and the entry's ordinal in that source —
    /// used by merges and repairs.
    pub(super) fn next_ranked(&mut self) -> Result<Option<(Key, LsmEntry, usize, u64)>> {
        if !self.started {
            self.prime()?;
        }
        // The smallest key; among ties the smallest rank (newest) wins.
        let Some(winner) = self.pop_and_advance()? else {
            return Ok(None);
        };

        // Charge the reconciliation cost: one heap round over the sources.
        let log_k = (usize::BITS - self.sources.len().leading_zeros()) as u64;
        self.storage.charge(Event::KeyCmp, log_k.max(1));

        // Older versions of the winning key are consumed with it.
        while self.heads.peek().is_some_and(|h| h.key == winner.key) {
            self.pop_and_advance()?;
        }
        Ok(Some((
            winner.key,
            winner.entry,
            winner.rank,
            winner.ordinal,
        )))
    }
}
