//! The buffer cache: residency in the page table, CLOCK on misses.
//!
//! The cache tracks *which* pages are resident; the page bytes themselves are
//! owned by the simulated files. A hit means the access is free; a miss means
//! the device cost model is charged and the page is admitted, possibly
//! evicting another page chosen by the CLOCK hand.
//!
//! A B+-tree leaf is admitted when it is written, too, but *unreferenced*
//! ([`Frames::admit_written`]): it takes a free frame, or the first frame
//! from the hand on whose reference bit is clear, and clears no bit on the
//! way. So a build never evicts a page a read has referenced since the hand
//! last passed it, and the hand's next pass evicts a written page no read
//! has wanted.
//!
//! CLOCK is the classic database buffer replacement policy: a circular array
//! of frames with reference bits, giving LRU-like behaviour with O(1)
//! amortized eviction and no list surgery on every hit.
//!
//! Each [`StoredPage`] of the file table carries its own `resident` and
//! `referenced` bits, so a hit — what nearly every read of a warm cache is —
//! is one load and one store on the page's own entry, under the file-table
//! read lock the read holds anyway: no cache lock and no hash. Only a miss,
//! or a written leaf's admission, takes the [`Frames`] mutex (the frame
//! array and its hand), while holding that read lock, so every frame names a
//! page that exists.

use crate::storage::{FileId, PageNo};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

#[cfg(test)]
pub(crate) mod oracle;

/// One page of a file: its bytes and its cache state.
///
/// The two bits publish no data — the bytes are published by the file-table
/// lock, and `resident` changes only under the [`Frames`] mutex — so every
/// access is `Relaxed`.
#[derive(Debug)]
pub(crate) struct StoredPage {
    /// The page's bytes; `None` once the range holding the page was
    /// released.
    pub(crate) data: Option<Arc<[u8]>>,
    /// Held by a frame. Written only under the [`Frames`] mutex.
    resident: AtomicBool,
    /// The CLOCK reference bit: set by every hit, cleared by the sweep.
    referenced: AtomicBool,
}

impl StoredPage {
    pub(crate) fn new(data: Arc<[u8]>) -> Self {
        StoredPage {
            data: Some(data),
            resident: AtomicBool::new(false),
            referenced: AtomicBool::new(false),
        }
    }

    /// The hit path: if the page is resident, marks it referenced and
    /// returns `true`. A hit that races an eviction counts as a hit before
    /// it; the stray reference bit is reset when the page is next admitted.
    #[inline]
    pub(crate) fn touch(&self) -> bool {
        let hit = self.resident.load(Relaxed);
        if hit {
            self.referenced.store(true, Relaxed);
        }
        hit
    }

    /// Whether a frame holds the page; unlike [`StoredPage::touch`], sets
    /// no reference bit.
    pub(crate) fn is_resident(&self) -> bool {
        self.resident.load(Relaxed)
    }

    /// Drops the page's bytes and clears its cache bits; the caller holds
    /// the file table write-locked and evicts the page's frame.
    pub(crate) fn release(&mut self) {
        self.data = None;
        *self.resident.get_mut() = false;
        *self.referenced.get_mut() = false;
    }
}

/// One file of the page table.
#[derive(Debug, Default)]
pub(crate) struct FileState {
    pub(crate) pages: Vec<StoredPage>,
    /// Pages appended and not yet released: the release that takes the
    /// last one deletes the file.
    pub(crate) live: u32,
    pub(crate) deleted: bool,
}

fn slot(files: &[FileState], (file, page): (FileId, PageNo)) -> &StoredPage {
    &files[file.0 as usize].pages[page as usize]
}

/// The CLOCK's frames — the resident pages, in sweep order — and its hand.
#[derive(Debug)]
pub(crate) struct Frames {
    capacity: usize,
    frames: Vec<(FileId, PageNo)>,
    hand: usize,
}

impl Frames {
    /// Frames for at most `capacity` pages; 0 disables caching.
    pub(crate) fn new(capacity: usize) -> Self {
        Frames {
            capacity,
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            hand: 0,
        }
    }

    /// Admits `(file, page)`, which missed, evicting if full. Returns
    /// `true` instead if a racing read admitted it meanwhile: a hit.
    /// `files` is the file table the caller holds locked, and must hold
    /// the page.
    pub(crate) fn admit(&mut self, files: &[FileState], file: FileId, page: PageNo) -> bool {
        let key = (file, page);
        let new = slot(files, key);
        if new.touch() {
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        if self.frames.len() < self.capacity {
            self.frames.push(key);
        } else {
            // Sweep: clear reference bits until an unreferenced frame is
            // found, then replace it.
            loop {
                let victim = slot(files, self.frames[self.hand]);
                if !victim.referenced.swap(false, Relaxed) {
                    victim.resident.store(false, Relaxed);
                    self.frames[self.hand] = key;
                    self.hand = (self.hand + 1) % self.frames.len();
                    break;
                }
                self.hand = (self.hand + 1) % self.frames.len();
            }
        }
        new.referenced.store(true, Relaxed);
        new.resident.store(true, Relaxed);
        false
    }

    /// Admits `(file, page)`, which was just written, *unreferenced*: the
    /// next pass of the hand evicts it unless a read references it first.
    /// It takes the first unreferenced frame from the hand on and clears no
    /// reference bit on the way, so it never evicts a page a read has
    /// referenced since the hand last passed it; if every frame is
    /// referenced, the page is not admitted. Nor is it if a racing read has
    /// admitted it already. `files` is the file table the caller holds
    /// locked, and must hold the page.
    pub(crate) fn admit_written(&mut self, files: &[FileState], file: FileId, page: PageNo) {
        let key = (file, page);
        let new = slot(files, key);
        if self.capacity == 0 || new.is_resident() {
            return;
        }
        if self.frames.len() < self.capacity {
            self.frames.push(key);
        } else {
            let n = self.frames.len();
            let unreferenced = |&at: &usize| !slot(files, self.frames[at]).referenced.load(Relaxed);
            let Some(at) = (self.hand..n).chain(0..self.hand).find(unreferenced) else {
                return;
            };
            slot(files, self.frames[at]).resident.store(false, Relaxed);
            self.frames[at] = key;
            self.hand = (at + 1) % n;
        }
        new.referenced.store(false, Relaxed);
        new.resident.store(true, Relaxed);
    }

    /// Drops the frames of `file`'s `pages`, which are being released.
    /// Eviction here is bookkeeping only — no cost is charged.
    pub(crate) fn evict_range(&mut self, file: FileId, pages: Range<PageNo>) {
        self.frames
            .retain(|&(f, p)| f != file || !pages.contains(&p));
        self.hand = match self.frames.len() {
            0 => 0,
            n => self.hand % n,
        };
    }

    /// Empties the cache (used by benchmarks that want cold-cache queries).
    pub(crate) fn clear(&mut self, files: &[FileState]) {
        for &key in &self.frames {
            slot(files, key).resident.store(false, Relaxed);
        }
        self.frames.clear();
        self.hand = 0;
    }

    /// The resident pages in sweep order, and the hand.
    #[cfg(test)]
    pub(crate) fn state(&self) -> (Vec<(FileId, PageNo)>, usize) {
        (self.frames.clone(), self.hand)
    }
}
