//! The buffer cache [`Frames`](super::Frames) replaced, kept as its test
//! oracle: a CLOCK behind a `(file, page)` hash map, whose frames own their
//! reference bits, plus the admission of written pages. Replaying one trace
//! of reads and writes through both must give the same hit or miss on
//! every access, the same frames in the same order, and the same hand.

use crate::storage::{FileId, PageNo};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PageKey {
    file: FileId,
    page: PageNo,
}

#[derive(Debug)]
struct Frame {
    key: PageKey,
    referenced: bool,
}

/// Fixed-capacity CLOCK cache over `(file, page)` keys.
#[derive(Debug)]
pub(crate) struct BufferCache {
    capacity: usize,
    map: HashMap<PageKey, usize>,
    frames: Vec<Frame>,
    hand: usize,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` pages. A capacity of zero
    /// disables caching entirely (every access misses).
    pub(crate) fn new(capacity: usize) -> Self {
        BufferCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            frames: Vec::with_capacity(capacity),
            hand: 0,
        }
    }

    /// Marks `(file, page)` as accessed. Returns `true` on a hit.
    /// On a miss the page is admitted (evicting if full).
    pub(crate) fn access(&mut self, file: FileId, page: PageNo) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let key = PageKey { file, page };
        if let Some(&idx) = self.map.get(&key) {
            self.frames[idx].referenced = true;
            return true;
        }
        self.admit(key);
        false
    }

    /// Whether `(file, page)` is resident; marks nothing.
    pub(crate) fn contains(&self, file: FileId, page: PageNo) -> bool {
        self.map.contains_key(&PageKey { file, page })
    }

    fn admit(&mut self, key: PageKey) {
        if self.frames.len() < self.capacity {
            self.map.insert(key, self.frames.len());
            self.frames.push(Frame {
                key,
                referenced: true,
            });
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced frame is
        // found, then replace it.
        loop {
            let frame = &mut self.frames[self.hand];
            if frame.referenced {
                frame.referenced = false;
                self.hand = (self.hand + 1) % self.frames.len();
            } else {
                self.map.remove(&frame.key);
                frame.key = key;
                frame.referenced = true;
                self.map.insert(key, self.hand);
                self.hand = (self.hand + 1) % self.frames.len();
                return;
            }
        }
    }

    /// Admits `(file, page)`, just written, unreferenced: into a free
    /// frame, else into the first unreferenced frame from the hand on,
    /// clearing no reference bit; not at all if every frame is referenced
    /// or the page is resident already.
    pub(crate) fn admit_written(&mut self, file: FileId, page: PageNo) {
        let key = PageKey { file, page };
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        let frame = Frame {
            key,
            referenced: false,
        };
        if self.frames.len() < self.capacity {
            self.map.insert(key, self.frames.len());
            self.frames.push(frame);
            return;
        }
        let n = self.frames.len();
        let victim = (0..n)
            .map(|i| (self.hand + i) % n)
            .find(|&i| !self.frames[i].referenced);
        if let Some(at) = victim {
            self.map.remove(&self.frames[at].key);
            self.map.insert(key, at);
            self.frames[at] = frame;
            self.hand = (at + 1) % n;
        }
    }

    /// Drops all pages belonging to `file`.
    pub(crate) fn evict_file(&mut self, file: FileId) {
        if self.frames.is_empty() {
            return;
        }
        // Retain in place, rebuilding the index map.
        let mut kept = Vec::with_capacity(self.frames.len());
        for f in self.frames.drain(..) {
            if f.key.file != file {
                kept.push(f);
            }
        }
        self.frames = kept;
        self.map.clear();
        for (i, f) in self.frames.iter().enumerate() {
            self.map.insert(f.key, i);
        }
        if self.frames.is_empty() {
            self.hand = 0;
        } else {
            self.hand %= self.frames.len();
        }
    }

    /// Empties the cache.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.hand = 0;
    }

    /// The resident pages in sweep order, and the hand.
    pub(crate) fn state(&self) -> (Vec<(FileId, PageNo)>, usize) {
        let frames = self.frames.iter().map(|f| (f.key.file, f.key.page));
        (frames.collect(), self.hand)
    }
}
