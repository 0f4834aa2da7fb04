//! Validity bitmaps over component entries.
//!
//! Both proposed maintenance strategies mark obsolete entries with one bit
//! per entry, indexed by the entry's ordinal position in the component:
//!
//! * the Validation strategy's *immutable* bitmap is produced by an index
//!   repair operation (Section 4.4, Figure 7) and never changes afterwards;
//! * the Mutable-bitmap strategy's bitmap is mutated in place by writers,
//!   with the crucial simple semantics of Section 5.1: committed writers
//!   only flip bits 0 → 1 (delete); only transaction aborts flip 1 → 0.
//!
//! [`AtomicBitmap`] supports both: lock-free concurrent bit sets/unsets via
//! CAS, and cheap snapshots (used by the Side-file concurrency-control
//! method to freeze component contents during a merge).

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size concurrent bitmap; bit = 1 means "entry invalid/deleted".
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: u64,
}

impl AtomicBitmap {
    /// Creates an all-zero bitmap over `len` entries.
    pub fn new(len: u64) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitmap { words, len }
    }

    /// Number of entries covered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the bitmap covers zero entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `pos`.
    pub fn get(&self, pos: u64) -> bool {
        assert!(pos < self.len, "bitmap index {pos} out of {}", self.len);
        self.words[(pos / 64) as usize].load(Ordering::Acquire) & (1 << (pos % 64)) != 0
    }

    /// Sets bit `pos` to 1 (marks the entry deleted). Returns `true` if the
    /// bit changed (i.e. this caller performed the delete).
    pub fn set(&self, pos: u64) -> bool {
        assert!(pos < self.len, "bitmap index {pos} out of {}", self.len);
        let mask = 1u64 << (pos % 64);
        let prev = self.words[(pos / 64) as usize].fetch_or(mask, Ordering::AcqRel);
        prev & mask == 0
    }

    /// Number of set (invalid) bits.
    pub fn count_set(&self) -> u64 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as u64)
            .sum()
    }

    /// Takes an immutable point-in-time copy.
    pub fn snapshot(&self) -> BitmapSnapshot {
        BitmapSnapshot {
            words: self
                .words
                .iter()
                .map(|w| w.load(Ordering::Acquire))
                .collect(),
            len: self.len,
        }
    }
}

/// An immutable copy of an [`AtomicBitmap`], used by the Side-file method to
/// scan old components without interference from concurrent deletes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapSnapshot {
    words: Vec<u64>,
    len: u64,
}

impl BitmapSnapshot {
    /// Number of entries covered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the snapshot covers zero entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `pos`.
    pub fn get(&self, pos: u64) -> bool {
        assert!(pos < self.len, "bitmap index {pos} out of {}", self.len);
        self.words[(pos / 64) as usize] & (1 << (pos % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_set(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_reports_whether_the_bit_changed() {
        let b = AtomicBitmap::new(130);
        assert!(!b.get(0));
        assert!(!b.get(129));
        assert!(b.set(129));
        assert!(b.get(129));
        assert!(!b.set(129)); // already set
        assert!(!b.get(128));
        assert_eq!(b.count_set(), 1);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_panics() {
        AtomicBitmap::new(10).get(10);
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let b = AtomicBitmap::new(100);
        b.set(5);
        let snap = b.snapshot();
        b.set(6);
        assert!(snap.get(5));
        assert!(!snap.get(6));
        assert!(b.get(6));
        assert_eq!(snap.count_set(), 1);
        assert_eq!(b.count_set(), 2);
    }

    #[test]
    fn concurrent_sets_each_win_once() {
        let b = Arc::new(AtomicBitmap::new(1024));
        let mut handles = vec![];
        let wins = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let b = b.clone();
            let wins = wins.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1024 {
                    if b.set(i) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one thread wins each bit: writer/writer races on the same
        // byte are resolved by CAS, per Section 5.2.
        assert_eq!(wins.load(Ordering::Relaxed), 1024);
        assert_eq!(b.count_set(), 1024);
    }

    #[test]
    fn empty_bitmap() {
        let b = AtomicBitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_set(), 0);
        assert!(b.snapshot().is_empty());
    }
}
