//! LSM memory components.
//!
//! All writes land in the memory component first (Section 2.1); the engine
//! flushes it to a disk component when the dataset's shared memory budget is
//! exhausted. A memory component tracks the timestamp interval of its
//! entries (its component ID at flush time) and, for the primary index, a
//! mutable range filter.

use crate::component_id::ComponentId;
use crate::entry::LsmEntry;
use crate::range_filter::RangeFilter;
use lsm_common::{Key, Timestamp, Value};
use std::collections::BTreeMap;
use std::ops::Bound;

/// An in-memory, mutable LSM component.
#[derive(Debug, Default)]
pub struct MemComponent {
    map: BTreeMap<Key, LsmEntry>,
    /// Timestamp interval of the operations recorded here.
    min_ts: Timestamp,
    max_ts: Timestamp,
    /// Approximate heap bytes, for memory-budget accounting.
    bytes: usize,
    /// Range filter on the dataset's filter key, if configured.
    filter: Option<RangeFilter>,
}

impl MemComponent {
    /// Creates an empty memory component.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate heap usage in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The component ID this component will carry when flushed.
    /// `None` while empty.
    pub fn id(&self) -> Option<ComponentId> {
        if self.is_empty() || self.max_ts == 0 {
            None
        } else {
            Some(ComponentId::new(self.min_ts, self.max_ts))
        }
    }

    /// Inserts or replaces the entry for `key`, recording the operation
    /// timestamp `op_ts` (used for the component ID even when the entry
    /// itself carries no timestamp). Returns the replaced entry, if any.
    pub fn put(&mut self, key: Key, entry: LsmEntry, op_ts: Timestamp) -> Option<LsmEntry> {
        if self.map.is_empty() || self.min_ts == 0 {
            self.min_ts = op_ts;
        }
        self.max_ts = self.max_ts.max(op_ts);
        let add = key.len() + entry.mem_size() + 64; // map node overhead
        let old = self.map.insert(key, entry);
        self.bytes += add;
        if let Some(o) = &old {
            self.bytes = self.bytes.saturating_sub(o.mem_size());
        }
        old
    }

    /// Looks up the entry for `key`.
    pub fn get(&self, key: &[u8]) -> Option<&LsmEntry> {
        self.map.get(key)
    }

    /// Iterates entries with keys in `[lo, hi]` in key order.
    pub fn range<'a>(
        &'a self,
        lo: Bound<&'a [u8]>,
        hi: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a Key, &'a LsmEntry)> + 'a {
        self.map.range::<[u8], _>((lo, hi))
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &LsmEntry)> {
        self.map.iter()
    }

    /// Widens the range filter to include `v` (creating it if absent).
    pub(crate) fn widen_filter(&mut self, v: &Value) {
        match &mut self.filter {
            Some(f) => f.widen(v),
            None => self.filter = Some(RangeFilter::of(v.clone())),
        }
    }

    /// The current range filter.
    pub fn filter(&self) -> Option<&RangeFilter> {
        self.filter.as_ref()
    }

    /// Clears the component back to empty (after a successful flush).
    pub fn clear(&mut self) {
        self.map.clear();
        self.min_ts = 0;
        self.max_ts = 0;
        self.bytes = 0;
        self.filter = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        s.as_bytes().to_vec()
    }

    #[test]
    fn put_get_replace() {
        let mut m = MemComponent::new();
        assert!(m.put(k("a"), LsmEntry::put(b"1".to_vec()), 1).is_none());
        let old = m.put(k("a"), LsmEntry::put(b"2".to_vec()), 2).unwrap();
        assert_eq!(old.value, b"1");
        assert_eq!(m.get(b"a").unwrap().value, b"2");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn anti_matter_replaces_put() {
        let mut m = MemComponent::new();
        m.put(k("a"), LsmEntry::put(b"1".to_vec()), 1);
        m.put(k("a"), LsmEntry::anti_matter(), 2);
        assert!(m.get(b"a").unwrap().anti_matter);
    }

    #[test]
    fn id_tracks_op_timestamps() {
        let mut m = MemComponent::new();
        assert!(m.id().is_none());
        m.put(k("a"), LsmEntry::put(vec![]), 16);
        m.put(k("b"), LsmEntry::put(vec![]), 18);
        assert_eq!(m.id().unwrap(), ComponentId::new(16, 18));
    }

    #[test]
    fn range_iterates_in_order() {
        let mut m = MemComponent::new();
        for s in ["d", "a", "c", "b"] {
            m.put(k(s), LsmEntry::put(vec![]), 1);
        }
        let keys: Vec<_> = m
            .range(Bound::Included(b"b"), Bound::Excluded(b"d"))
            .map(|(key, _)| String::from_utf8(key.clone()).unwrap())
            .collect();
        assert_eq!(keys, vec!["b", "c"]);
        let all: Vec<_> = m.iter().map(|(key, _)| key.clone()).collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bytes_grow_and_clear() {
        let mut m = MemComponent::new();
        m.put(k("a"), LsmEntry::put(vec![0; 100]), 1);
        let b1 = m.bytes();
        assert!(b1 > 100);
        m.put(k("b"), LsmEntry::put(vec![0; 100]), 2);
        assert!(m.bytes() > b1);
        m.clear();
        assert_eq!(m.bytes(), 0);
        assert!(m.is_empty());
        assert!(m.id().is_none());
        assert!(m.filter().is_none());
    }

    #[test]
    fn filter_widening() {
        let mut m = MemComponent::new();
        assert!(m.filter().is_none());
        m.widen_filter(&Value::Int(2018));
        m.widen_filter(&Value::Int(2015));
        let f = m.filter().unwrap();
        assert_eq!(f.min(), &Value::Int(2015));
        assert_eq!(f.max(), &Value::Int(2018));
    }
}
