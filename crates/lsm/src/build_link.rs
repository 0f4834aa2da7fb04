//! Shared state between a component builder and concurrent writers
//! (Section 5.3).
//!
//! While a flush/merge rebuilds components whose bitmaps writers may mutate,
//! the old component(s) are pointed at a [`BuildLink`] so that a writer
//! deleting a key can also apply the delete to the new component. The two
//! concurrency-control methods use different parts of this structure:
//!
//! * **Lock method** (Figure 10): the builder publishes each scanned key
//!   (`publish_scanned`); a writer whose key is `<= ScannedKey` finds the
//!   key's position in the published prefix and registers a direct delete.
//! * **Side-file method** (Figure 11): writers append deleted keys to the
//!   side-file while it is open; the builder closes it in the catch-up phase,
//!   sorts it, and applies the deletes to the finished component.

use crate::component::DiskComponent;
use lsm_common::Key;
use parking_lot::Mutex;
use std::sync::Arc;

/// Shared builder/writer state for one in-progress flush or merge.
#[derive(Debug, Default)]
pub struct BuildLink {
    /// Lock method: keys copied into the new component so far, in ascending
    /// order — index in this vector is the key's ordinal in the new
    /// component. Guarded by a mutex: this *is* the lock overhead the paper
    /// measures against the Side-file method.
    scanned: Mutex<ScannedState>,
    /// Side-file method: deleted keys buffered during the build phase.
    side_file: Mutex<SideFile>,
    /// Once the build completes, the finished component: writers arriving
    /// after the side-file closed apply deletes here directly
    /// (Figure 11b lines 8-9).
    new_component: Mutex<Option<Arc<DiskComponent>>>,
}

#[derive(Debug, Default)]
struct ScannedState {
    keys: Vec<Key>,
    /// Deletes registered against already-scanned positions.
    direct_deletes: Vec<u64>,
}

#[derive(Debug, Default)]
struct SideFile {
    keys: Vec<Key>,
    closed: bool,
}

impl BuildLink {
    /// Creates a link for the Side-file method: the side-file starts open.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a link for the Lock method: the side-file is born closed, so
    /// writers fall through to direct deletes against the scanned prefix.
    pub fn new_lock_method() -> Self {
        let link = Self::default();
        link.side_file.lock().closed = true;
        link
    }

    /// Publishes the finished component (under the dataset drain lock, so
    /// no writer observes a closed side-file without it).
    pub fn set_new_component(&self, comp: Arc<DiskComponent>) {
        *self.new_component.lock() = Some(comp);
    }

    /// The finished component, if the build has completed.
    pub fn new_component(&self) -> Option<Arc<DiskComponent>> {
        self.new_component.lock().clone()
    }

    // ---- Lock method -----------------------------------------------------

    /// Builder: records that `key` was copied into the new component and
    /// returns its ordinal there. Also reports whether a writer already
    /// registered a direct delete for an earlier position (never true for
    /// the position being added).
    pub fn publish_scanned(&self, key: Key) -> u64 {
        let mut s = self.scanned.lock();
        debug_assert!(s.keys.last().is_none_or(|last| *last < key));
        s.keys.push(key);
        (s.keys.len() - 1) as u64
    }

    /// Writer (Lock method, Figure 10b lines 6-7): if `key` has already been
    /// scanned into the new component, registers a delete for it there and
    /// returns `true`.
    pub fn try_direct_delete(&self, key: &[u8]) -> bool {
        let mut s = self.scanned.lock();
        match s.keys.binary_search_by(|k| k.as_slice().cmp(key)) {
            Ok(idx) => {
                let idx = idx as u64;
                s.direct_deletes.push(idx);
                true
            }
            Err(_) => false,
        }
    }

    /// Builder: drains the registered direct deletes (positions in the new
    /// component) once the build is finished.
    pub fn take_direct_deletes(&self) -> Vec<u64> {
        std::mem::take(&mut self.scanned.lock().direct_deletes)
    }

    // ---- Side-file method ------------------------------------------------

    /// Writer (Figure 11b line 7): appends a deleted key to the side-file.
    /// Fails (returns `false`) once the side-file is closed, in which case
    /// the writer must apply the delete to the new component directly.
    pub fn try_append_side_file(&self, key: Key) -> bool {
        let mut sf = self.side_file.lock();
        if sf.closed {
            return false;
        }
        sf.keys.push(key);
        true
    }

    /// Builder (Figure 11a, catch-up phase): closes the side-file and
    /// returns its contents, sorted.
    pub fn close_side_file(&self) -> Vec<Key> {
        let mut sf = self.side_file.lock();
        sf.closed = true;
        let mut keys = std::mem::take(&mut sf.keys);
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_method_direct_delete_flow() {
        let link = BuildLink::new();
        // Nothing scanned yet: no direct delete can land.
        assert!(!link.try_direct_delete(b"a"));
        assert_eq!(link.publish_scanned(b"a".to_vec()), 0);
        assert_eq!(link.publish_scanned(b"c".to_vec()), 1);

        // Key already scanned: direct delete lands.
        assert!(link.try_direct_delete(b"a"));
        // Key not yet scanned: writer only marks the old component.
        assert!(!link.try_direct_delete(b"d"));
        assert_eq!(link.take_direct_deletes(), vec![0]);
        assert!(link.take_direct_deletes().is_empty());
    }

    #[test]
    fn side_file_flow() {
        let link = BuildLink::new();
        assert!(link.try_append_side_file(b"z".to_vec()));
        assert!(link.try_append_side_file(b"a".to_vec()));
        let drained = link.close_side_file();
        assert_eq!(drained, vec![b"a".to_vec(), b"z".to_vec()]);
        // After close, writers must go to the new component directly.
        assert!(!link.try_append_side_file(b"b".to_vec()));
    }

    #[test]
    fn lock_method_link_sends_writers_to_direct_deletes() {
        let link = BuildLink::new_lock_method();
        assert!(!link.try_append_side_file(b"k".to_vec()), "born closed");
        link.publish_scanned(b"k".to_vec());
        assert!(link.try_direct_delete(b"k"));
        assert_eq!(link.take_direct_deletes(), vec![0]);
        assert!(link.close_side_file().is_empty());
    }
}
