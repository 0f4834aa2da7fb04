//! Immutable LSM disk components.
//!
//! A disk component bundles (Section 3, Figure 1):
//! * a B+-tree over the component's entries,
//! * an optional Bloom filter on the stored keys,
//! * an optional range filter on the dataset's filter key,
//! * an optional validity bitmap (immutable after repair under the
//!   Validation strategy; writer-mutable under the Mutable-bitmap strategy),
//! * a repaired-timestamp watermark (Section 4.4),
//! * and, while a flush/merge is rebuilding it, a link to the in-progress
//!   successor used by the concurrency-control methods of Section 5.3.

use crate::bitmap::AtomicBitmap;
use crate::build_link::BuildLink;
use crate::component_id::ComponentId;
use crate::entry::LsmEntry;
use crate::range_filter::RangeFilter;
use lsm_bloom::{BloomFilter, KeyHash};
use lsm_common::{Result, Timestamp};
use lsm_storage::Storage;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bloom probes a lookup has made but not yet accounted for. A lookup
/// walks many components per key, so it tallies each probe's simulated CPU
/// cost and outcome here and applies the sums in one call — before the next
/// fallible step, so nothing probed goes unbilled. The totals are exactly
/// those of billing probe by probe.
#[derive(Debug, Default)]
pub(crate) struct BloomTally {
    cpu_ns: u64,
    checks: u64,
    negatives: u64,
}

impl BloomTally {
    /// Charges the tallied CPU time, records the tallied checks, and
    /// resets the tally.
    pub(crate) fn apply(&mut self, storage: &Storage) {
        if self.checks > 0 {
            storage.charge_cpu(self.cpu_ns);
            storage
                .raw_stats()
                .record_bloom_checks(self.checks, self.negatives);
            *self = BloomTally::default();
        }
    }
}

/// An immutable disk component of one LSM index.
pub struct DiskComponent {
    id: ComponentId,
    btree: lsm_btree::BTree,
    bloom: Option<Box<dyn BloomFilter>>,
    /// Simulated CPU cost of one probe of `bloom`: a blocked filter pays
    /// one cache miss and `k - 1` hits, a standard filter `k` misses.
    bloom_probe_ns: u64,
    filter: Option<RangeFilter>,
    bitmap: RwLock<Option<Arc<AtomicBitmap>>>,
    /// Largest primary-key-index timestamp this component has been validated
    /// against (Section 4.4). Secondary-index components only.
    repaired_ts: AtomicU64,
    /// Link to the successor component being built from this one, if a
    /// flush/merge is in progress (Section 5.3).
    successor: RwLock<Option<Arc<BuildLink>>>,
    /// Set when a merge replaced this component: the backing file is
    /// destroyed once the last reference drops (see [`DiskComponent::retire`]).
    retired: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for DiskComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskComponent")
            .field("id", &self.id)
            .field("entries", &self.num_entries())
            .field("bloom", &self.bloom.is_some())
            .field("filter", &self.filter)
            .finish()
    }
}

impl DiskComponent {
    /// Assembles a component from its parts (see `build::build_component`).
    pub fn new(
        id: ComponentId,
        btree: lsm_btree::BTree,
        bloom: Option<Box<dyn BloomFilter>>,
        filter: Option<RangeFilter>,
        bitmap: Option<Arc<AtomicBitmap>>,
    ) -> Self {
        let cpu = btree.storage().cpu();
        let bloom_probe_ns = bloom.as_ref().map_or(0, |b| {
            let k = u64::from(b.num_probes());
            if b.is_blocked() {
                cpu.bloom_probe_miss_ns + (k - 1) * cpu.bloom_probe_hit_ns
            } else {
                k * cpu.bloom_probe_miss_ns
            }
        });
        DiskComponent {
            id,
            btree,
            bloom,
            bloom_probe_ns,
            filter,
            bitmap: RwLock::new(bitmap),
            repaired_ts: AtomicU64::new(0),
            successor: RwLock::new(None),
            retired: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The component's `(minTS, maxTS)` ID.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// The underlying B+-tree.
    pub fn btree(&self) -> &lsm_btree::BTree {
        &self.btree
    }

    /// Number of entries (including anti-matter and invalidated entries).
    pub fn num_entries(&self) -> u64 {
        self.btree.num_entries()
    }

    /// On-disk size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.btree.byte_size()
    }

    /// The range filter, if the index maintains one.
    pub fn range_filter(&self) -> Option<&RangeFilter> {
        self.filter.as_ref()
    }

    /// Probes the Bloom filter with a key's precomputed hash, adding the
    /// probe's cost and outcome to `tally` instead of billing it. Returns
    /// `true` if the key may be present; with no filter that is always,
    /// and nothing is tallied.
    pub(crate) fn bloom_probe(&self, hash: KeyHash, tally: &mut BloomTally) -> bool {
        let Some(bloom) = &self.bloom else {
            return true;
        };
        let positive = bloom.may_contain_hash(hash);
        tally.cpu_ns += self.bloom_probe_ns;
        tally.checks += 1;
        tally.negatives += u64::from(!positive);
        positive
    }

    /// Tests the Bloom filter for `key`, charging the CPU model per probe
    /// (blocked filters charge one cache miss, standard filters `k`).
    /// Returns `true` if the key may be present (or no filter exists).
    pub fn bloom_may_contain(&self, storage: &Storage, key: &[u8]) -> bool {
        let mut tally = BloomTally::default();
        let positive = self.bloom_probe(KeyHash::new(key), &mut tally);
        tally.apply(storage);
        positive
    }

    /// Searches the B+-tree (no Bloom check). Returns the decoded entry and
    /// its ordinal position. The entry's value pins the cached leaf page —
    /// no copy until the caller asks for owned bytes.
    pub fn search(&self, key: &[u8]) -> Result<Option<(LsmEntry, u64)>> {
        match self.btree.search_pinned(key)? {
            None => Ok(None),
            Some((raw, ordinal)) => Ok(Some((LsmEntry::decode_slice(raw)?, ordinal))),
        }
    }

    /// The current validity bitmap, if any.
    pub fn bitmap(&self) -> Option<Arc<AtomicBitmap>> {
        self.bitmap.read().clone()
    }

    /// Installs (or replaces) the validity bitmap. Standalone repair
    /// (Section 4.4) replaces the bitmap of an existing component; the
    /// Mutable-bitmap strategy installs a shared bitmap at build time.
    /// Errors (rather than panicking — flushes and merges may run on
    /// background maintenance workers) if the bitmap does not cover every
    /// entry.
    pub fn set_bitmap(&self, bitmap: Arc<AtomicBitmap>) -> Result<()> {
        if bitmap.len() != self.num_entries() {
            return Err(lsm_common::Error::invalid(format!(
                "bitmap must cover every entry ({} bits for {} entries)",
                bitmap.len(),
                self.num_entries()
            )));
        }
        *self.bitmap.write() = Some(bitmap);
        Ok(())
    }

    /// Returns the validity bitmap, creating an all-zero one if absent —
    /// used by query-driven maintenance, which marks obsolete entries
    /// opportunistically as queries discover them.
    pub fn bitmap_or_create(&self) -> Arc<AtomicBitmap> {
        if let Some(b) = self.bitmap.read().clone() {
            return b;
        }
        let mut guard = self.bitmap.write();
        if let Some(b) = guard.clone() {
            return b;
        }
        let fresh = Arc::new(AtomicBitmap::new(self.num_entries()));
        *guard = Some(fresh.clone());
        fresh
    }

    /// True if the entry at `ordinal` is still valid (bit not set).
    pub fn is_valid(&self, ordinal: u64) -> bool {
        match &*self.bitmap.read() {
            Some(b) => !b.get(ordinal),
            None => true,
        }
    }

    /// The repaired-timestamp watermark (Section 4.4). Zero = never repaired.
    pub fn repaired_ts(&self) -> Timestamp {
        self.repaired_ts.load(Ordering::Acquire)
    }

    /// Raises the repaired-timestamp watermark.
    pub fn set_repaired_ts(&self, ts: Timestamp) {
        self.repaired_ts.fetch_max(ts, Ordering::AcqRel);
    }

    /// The in-progress successor build, if a flush/merge covering this
    /// component is running.
    pub fn successor(&self) -> Option<Arc<BuildLink>> {
        self.successor.read().clone()
    }

    /// Points this component at the successor being built from it
    /// (Figure 10a line 2 / Figure 11a line 4).
    pub fn set_successor(&self, link: Option<Arc<BuildLink>>) {
        *self.successor.write() = link;
    }

    /// Deletes the backing file (component dropped after a merge).
    pub fn destroy(&self) -> Result<()> {
        self.btree.destroy()
    }

    /// Marks the component for destruction when the last reference drops.
    /// Merges retire replaced components instead of destroying them
    /// eagerly, so a concurrent reader still holding the `Arc` (a point
    /// lookup, a scan, a mutable-bitmap delete probe) finishes against
    /// intact files.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }
}

impl Drop for DiskComponent {
    fn drop(&mut self) {
        if self.retired.load(Ordering::Acquire) {
            let _ = self.btree.destroy();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_bloom::{BloomKind, StandardBloom};
    use lsm_btree::BTreeBuilder;
    use lsm_common::Value;
    use lsm_storage::StorageOptions;

    fn component(n: u32, with_bloom: bool) -> (Arc<Storage>, DiskComponent) {
        let storage = Storage::new(StorageOptions::test());
        let mut builder = BTreeBuilder::new(storage.clone());
        let mut bloom = StandardBloom::new(n as usize, 0.01);
        for i in 0..n {
            let key = format!("key{i:06}").into_bytes();
            let entry = LsmEntry::put_ts(format!("v{i}").into_bytes(), u64::from(i) + 1);
            builder.add(&key, &entry.encode()).unwrap();
            lsm_bloom::BloomFilter::insert(&mut bloom, &key);
        }
        let btree = builder.finish().unwrap();
        let c = DiskComponent::new(
            ComponentId::new(1, u64::from(n).max(1)),
            btree,
            with_bloom.then(|| Box::new(bloom) as Box<dyn BloomFilter>),
            Some(RangeFilter::new(Value::Int(0), Value::Int(100))),
            None,
        );
        (storage, c)
    }

    #[test]
    fn search_decodes_entries() {
        let (_s, c) = component(100, false);
        let (e, ord) = c.search(b"key000042").unwrap().unwrap();
        assert_eq!(e.value, b"v42");
        assert_eq!(e.ts, 43);
        assert_eq!(ord, 42);
        assert!(c.search(b"nope").unwrap().is_none());
    }

    #[test]
    fn bloom_prunes_absent_keys() {
        let (s, c) = component(1000, true);
        assert!(c.bloom_may_contain(&s, b"key000500"));
        let mut pruned = 0;
        for i in 0..1000 {
            if !c.bloom_may_contain(&s, format!("absent{i}").as_bytes()) {
                pruned += 1;
            }
        }
        assert!(pruned > 950, "pruned {pruned}");
        let snap = s.stats();
        assert!(snap.bloom_checks >= 1001);
        assert!(snap.bloom_negatives >= 950);
    }

    #[test]
    fn no_bloom_always_positive_and_uncharged() {
        let (s, c) = component(10, false);
        let before = s.stats();
        assert!(c.bloom_may_contain(&s, b"whatever"));
        let d = s.stats().since(&before);
        assert_eq!(d.bloom_checks, 0);
        assert_eq!(d.cpu_ns, 0);
    }

    #[test]
    fn bitmap_validity() {
        let (_s, c) = component(10, false);
        assert!(c.is_valid(3));
        let bm = Arc::new(AtomicBitmap::new(10));
        bm.set(3);
        c.set_bitmap(bm).unwrap();
        assert!(!c.is_valid(3));
        assert!(c.is_valid(4));
    }

    #[test]
    fn wrong_sized_bitmap_rejected() {
        let (_s, c) = component(10, false);
        let err = c.set_bitmap(Arc::new(AtomicBitmap::new(5))).unwrap_err();
        assert!(err.to_string().contains("bitmap must cover"), "{err}");
        assert!(c.bitmap().is_none());
    }

    #[test]
    fn repaired_ts_is_monotonic() {
        let (_s, c) = component(1, false);
        assert_eq!(c.repaired_ts(), 0);
        c.set_repaired_ts(15);
        c.set_repaired_ts(10); // must not go backwards
        assert_eq!(c.repaired_ts(), 15);
        c.set_repaired_ts(19);
        assert_eq!(c.repaired_ts(), 19);
    }

    #[test]
    fn blocked_bloom_charges_less_cpu() {
        let storage = Storage::new(StorageOptions::test());
        let n = 1000usize;
        let mut builder = BTreeBuilder::new(storage.clone());
        builder.add(b"k", &LsmEntry::put(vec![]).encode()).unwrap();
        let btree = builder.finish().unwrap();
        let mut blocked = lsm_bloom::build_filter(BloomKind::Blocked, n, 0.01);
        let mut standard = lsm_bloom::build_filter(BloomKind::Standard, n, 0.01);
        blocked.insert(b"k");
        standard.insert(b"k");

        let c_blocked = DiskComponent::new(
            ComponentId::new(1, 1),
            btree.clone(),
            Some(blocked),
            None,
            None,
        );
        let c_standard =
            DiskComponent::new(ComponentId::new(1, 1), btree, Some(standard), None, None);

        let before = storage.stats().cpu_ns;
        for i in 0..1000 {
            c_standard.bloom_may_contain(&storage, format!("a{i}").as_bytes());
        }
        let standard_cost = storage.stats().cpu_ns - before;
        let before = storage.stats().cpu_ns;
        for i in 0..1000 {
            c_blocked.bloom_may_contain(&storage, format!("a{i}").as_bytes());
        }
        let blocked_cost = storage.stats().cpu_ns - before;
        assert!(
            blocked_cost * 2 < standard_cost,
            "blocked {blocked_cost} standard {standard_cost}"
        );
    }
}
