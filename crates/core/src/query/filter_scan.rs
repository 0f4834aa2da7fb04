//! Primary-index scans with range-filter pruning (Sections 3, 6.4.2).
//!
//! A query with a predicate on the filter key (the paper's `creation_time`)
//! scans the primary index, pruning components whose range filter is
//! disjoint from the predicate. *Which* components can be pruned depends on
//! the maintenance strategy:
//!
//! * **Eager** — filters are widened by old records on update/delete, so an
//!   overlapping filter is an accurate signal: scan exactly the overlapping
//!   components, reconciling among them;
//! * **Validation** — filters cover new records only; a query touching an
//!   older component must also read *every newer component* so it cannot
//!   miss overriding updates, which halves the pruning power (Figure 19,
//!   "old" queries);
//! * **Mutable-bitmap** — deletes are applied in place through bitmaps, so
//!   every surviving entry is the unique live version of its key:
//!   components are scanned one by one, independently, with no
//!   reconciliation and full pruning.
//!
//! # One plan, `n` partitions
//!
//! Every execution — [`count`](FilterScanBuilder::count),
//! [`records`](FilterScanBuilder::records) or
//! [`stream`](FilterScanBuilder::stream), with or without
//! [`parallel(n)`](FilterScanBuilder::parallel) — captures exactly **one**
//! plan (`capture_plan`: the strategy's component-inclusion decision, the
//! memory run and, under Mutable-bitmap, the frozen bitmaps, taken
//! atomically) and consumes it through one partition body. The plan is
//! split into ≤ `n` disjoint, ascending primary-key sub-ranges along
//! component leaf boundaries ([`LsmScan::partition_scan`], free of I/O for
//! `n = 1`) and the captured memory run is cut into owned per-partition
//! slices; a single partition — the default — runs inline on the calling
//! thread; with several, the caller runs the first and scoped helper
//! threads the rest, all joined before the scan returns.
//! Every partition reads the same component list; reconciliation is
//! per-key and keys never span partitions, so each partition's output is
//! exactly the whole scan's
//! output restricted to its sub-range. Partitions are disjoint and
//! ascending, so concatenating them in partition order *is* the k-way
//! merge — the result is in primary-key order for every `n` (the
//! Mutable-bitmap branch, which visits in component order, sorts each
//! partition locally).
//!
//! The one thing `n = 1` can do that a fan-out cannot is *stream*: for the
//! reconciled strategies a single-partition
//! [`stream`](FilterScanBuilder::stream) yields straight from the merge
//! scan over the captured plan with bounded memory; every other stream
//! replays the collected matches.

use crate::config::StrategyKind;
use crate::dataset::Dataset;
use crate::keys::bound_as_ref;
use crate::query::exec::{self, split_run, FieldRange, ScanTask};
use crate::query::pool::{append, run_partitions};
use lsm_common::{Key, Record, Result, Value};
use lsm_tree::{
    scan_components_sequential, BitmapSnapshot, DiskComponent, EntryRef, LsmEntry, LsmScan,
    RangeFilter, ScanOptions,
};
use std::ops::Bound;
use std::sync::Arc;

/// What a filter scan did (for assertions and bench reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterScanReport {
    /// Records satisfying the predicate.
    pub matches: u64,
    /// Disk components scanned.
    pub components_scanned: u64,
    /// Disk components pruned by their range filters.
    pub components_pruned: u64,
    /// Scan partitions actually run: 1 by default, at most `n` under
    /// [`parallel(n)`](FilterScanBuilder::parallel) (small trees may split
    /// into fewer partitions than requested).
    pub partitions: u64,
}

fn overlaps(filter: Option<&RangeFilter>, lo: Option<&Value>, hi: Option<&Value>) -> bool {
    match filter {
        // No filter: cannot prune.
        None => true,
        Some(f) => f.overlaps(lo, hi),
    }
}

/// One captured filter-scan plan: the predicate, the strategy's
/// component-inclusion decision and the memory run, taken atomically.
/// Consumed by exactly one execution.
struct ScanPlan {
    /// `filter_field ∈ [lo, hi]`, evaluated on the stored bytes.
    predicate: FieldRange,
    /// The schema's arity: sizes the decode of a returned row.
    arity: usize,
    strategy: StrategyKind,
    /// The captured memory run — already gated by the inclusion rules
    /// below, `None` when the strategy may skip memory entirely.
    mem: Option<Vec<(Key, LsmEntry)>>,
    /// Disk components to scan, newest-first.
    included: Vec<Arc<DiskComponent>>,
    /// Bitmap snapshots frozen atomically with the capture, one per
    /// included component — `None` throughout except under Mutable-bitmap
    /// (the other strategies never mutate primary bitmaps in place).
    /// Shared by every partition.
    bitmaps: Vec<Option<BitmapSnapshot>>,
    components_pruned: u64,
}

#[cfg(test)]
thread_local! {
    /// Plans captured on this thread (a capture always runs on the caller).
    static CAPTURES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Captures one filter-scan plan for `filter_key ∈ [lo, hi]` — the single
/// capture point of every execution.
///
/// Atomic memory+disk capture: an entry mid-flush appears in exactly
/// one of the two, which the Mutable-bitmap branch (no reconciliation)
/// depends on — a separate capture could see it twice or not at all.
/// The memory filter's overlap is evaluated under the capture locks
/// against the filter describing the captured entries (the live filter
/// would be wrong: a flush may have rotated the memtable in between),
/// but whether a non-overlapping memory run can be *pruned* depends on
/// the strategy: Eager widens the filter by old records and
/// Mutable-bitmap deletes in place, so their filters are accurate;
/// Validation covers new records only and must still read memory for
/// overriding updates whenever an older component is read — the
/// captured disk list decides that atomically, so a fully-pruned query
/// still skips the memory copy.
///
/// Under Mutable-bitmap the capture additionally runs under the dataset
/// **write** lock and freezes the included components' bitmap snapshots
/// before releasing it: an in-place update marks the old on-disk
/// version's bitmap bit *before* inserting the replacement into memory
/// (both steps under the dataset read lock), so a capture that read live
/// bitmaps afterwards could observe the mark without the replacement and
/// lose the record — the same torn window the Side-file method closes for
/// flushes, and exactly what the churn oracle exercises.
fn capture_plan(ds: &Dataset, lo: Option<&Value>, hi: Option<&Value>) -> Result<ScanPlan> {
    #[cfg(test)]
    CAPTURES.with(|c| c.set(c.get() + 1));
    let filter_field = ds
        .config()
        .filter_field
        .ok_or_else(|| lsm_common::Error::invalid("dataset has no filter field"))?;
    let strategy = ds.config().strategy;
    let lazy = matches!(
        strategy,
        StrategyKind::Validation | StrategyKind::DeletedKeyBTree
    );
    // Excludes writers (which hold the read lock across mark-then-insert)
    // for the duration of the capture and bitmap freeze; see above.
    let _capture_guard =
        (strategy == StrategyKind::MutableBitmap).then(|| ds.dataset_lock().write());
    // Filter scans read the full primary-key range; pruning happens per
    // component through the range filters on the *filter* key.
    let mut mem_filter_overlaps = false;
    let (mem, comps) =
        ds.primary()
            .mem_and_disk_snapshot_if(Bound::Unbounded, Bound::Unbounded, |f, disk| {
                mem_filter_overlaps = overlaps(f, lo, hi);
                mem_filter_overlaps
                    || (lazy && disk.iter().any(|c| overlaps(c.range_filter(), lo, hi)))
            });
    let included: Vec<_> = if lazy {
        // All components newer than (and including) the oldest
        // overlapping one must be read.
        let oldest = comps
            .iter()
            .rposition(|c| overlaps(c.range_filter(), lo, hi));
        oldest.map_or_else(Vec::new, |i| comps[..=i].to_vec())
    } else {
        // Independent per-component pruning (Mutable-bitmap needs no
        // reconciliation; Eager filters are accurate).
        comps
            .iter()
            .filter(|c| overlaps(c.range_filter(), lo, hi))
            .cloned()
            .collect()
    };
    let include_mem = mem_filter_overlaps || (lazy && !included.is_empty());
    // Still under the capture guard: the frozen snapshots and the memory
    // run describe the same instant.
    let freeze = strategy == StrategyKind::MutableBitmap;
    let bitmaps = included
        .iter()
        .map(|c| freeze.then(|| c.bitmap()).flatten().map(|b| b.snapshot()))
        .collect();
    Ok(ScanPlan {
        predicate: FieldRange::new(filter_field, lo, hi),
        arity: ds.config().schema.arity(),
        strategy,
        mem: mem.filter(|m| include_mem && !m.is_empty()),
        components_pruned: (comps.len() - included.len()) as u64,
        included,
        bitmaps,
    })
}

impl ScanPlan {
    /// Do scans of this plan reconcile versions (and so visit in
    /// primary-key order)? Only Mutable-bitmap does not (Section 6.4.2).
    fn reconciles(&self) -> bool {
        self.strategy != StrategyKind::MutableBitmap
    }

    /// The reconciling merge scan of `[lo, hi]` over `mem` plus the
    /// included components.
    fn merge_scan(
        &self,
        ds: &Dataset,
        mem: Option<Vec<(Key, LsmEntry)>>,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<LsmScan> {
        let opts = ScanOptions::default();
        LsmScan::new(ds.storage().clone(), mem, &self.included, lo, hi, opts)
    }

    /// The one partition body: scans `task`'s sub-range, returning its
    /// match count plus — when `collect` is set — the matching records in
    /// primary-key order. Entries are lent by the scan and the predicate
    /// runs on the stored bytes where they lie; a key is copied and a
    /// [`Record`] built only for a row that is returned. Every scanned
    /// record is validated whole, exactly once, so a corrupt record value —
    /// damaged behind the predicate's field, dropped by the predicate, or
    /// shorter than the schema — fails the scan under every strategy.
    fn scan_partition(
        &self,
        ds: &Dataset,
        (mem, (plo, phi)): ScanTask,
        collect: bool,
    ) -> Result<(u64, Vec<Record>)> {
        let (plo, phi) = (bound_as_ref(&plo), bound_as_ref(&phi));
        let mut count = 0u64;
        let mut rows: Vec<(Key, Record)> = Vec::new();
        let mut visit = |key: &[u8], e: EntryRef<'_>| -> Result<()> {
            if !collect {
                count += u64::from(self.predicate.holds_validating(e.value)?);
            } else if let Some(record) = self.predicate.select(e.value, self.arity)? {
                count += 1;
                rows.push((key.to_vec(), record));
            }
            Ok(())
        };
        if self.reconciles() {
            let mut scan = self.merge_scan(ds, mem, plo, phi)?;
            while let Some(lent) = scan.next_lent()? {
                if !lent.entry.anti_matter {
                    visit(lent.key, lent.entry)?;
                }
            }
        } else {
            scan_components_sequential(mem, &self.included, &self.bitmaps, plo, phi, visit)?;
            // Component order → primary-key order; with disjoint ascending
            // partitions the local sorts add up to the global order.
            exec::charge_sort(ds, rows.len() as u64);
            rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        Ok((count, rows.into_iter().map(|(_, r)| r).collect()))
    }

    /// Runs the plan over ≤ `n` partitions (see the module docs), returning
    /// the report plus — when `collect` is set — the matching records in
    /// primary-key order.
    fn run(
        mut self,
        ds: &Dataset,
        n: usize,
        collect: bool,
    ) -> Result<(FilterScanReport, Vec<Record>)> {
        let (lo, hi) = (Bound::Unbounded, Bound::Unbounded);
        let partitions = LsmScan::partition_scan(&self.included, lo, hi, n)?;
        if n > 1 {
            ds.stats().record_parallel_filter_scan(partitions.len());
        }
        let mut report = FilterScanReport {
            matches: 0,
            components_scanned: self.included.len() as u64,
            components_pruned: self.components_pruned,
            partitions: partitions.len() as u64,
        };
        let tasks = split_run(self.mem.take().unwrap_or_default(), partitions);
        let body = |ds: &Dataset, task| self.scan_partition(ds, task, collect);
        let mut records = Vec::new();
        for part in run_partitions(ds, tasks, body) {
            let (count, rows) = part?;
            report.matches += count;
            append(&mut records, rows);
        }
        Ok((report, records))
    }
}

impl Dataset {
    /// Starts a fluent primary-index filter scan (requires
    /// [`DatasetConfig::filter_field`](crate::DatasetConfig) to be set).
    ///
    /// ```
    /// use lsm_common::{FieldType, Record, Schema, Value};
    /// use lsm_engine::{Dataset, DatasetConfig, StrategyKind};
    /// use lsm_storage::{Storage, StorageOptions};
    ///
    /// let schema = Schema::new(vec![
    ///     ("id", FieldType::Int),
    ///     ("created", FieldType::Int),
    /// ]).unwrap();
    /// let mut cfg = DatasetConfig::new(schema, 0);
    /// cfg.filter_field = Some(1);
    /// let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
    /// for i in 0..10 {
    ///     ds.insert(&Record::new(vec![Value::Int(i), Value::Int(i * 100)])).unwrap();
    /// }
    ///
    /// // Count matches; or fetch them, in primary-key order, optionally
    /// // across partitions.
    /// let report = ds.filter_scan().range_to(499).count().unwrap();
    /// assert_eq!(report.matches, 5);
    /// let records = ds.filter_scan().range_to(499).parallel(2).records().unwrap();
    /// assert_eq!(records.len(), 5);
    /// ```
    pub fn filter_scan(&self) -> FilterScanBuilder<'_> {
        FilterScanBuilder {
            ds: self,
            lo: None,
            hi: None,
            partitions: 1,
        }
    }
}

/// A fluent primary-index filter scan under construction; obtained from
/// [`Dataset::filter_scan`]. The predicate is on the dataset's configured
/// filter field; the scan runs as one partition on the calling thread
/// unless [`parallel(n)`](FilterScanBuilder::parallel) asks for more.
#[derive(Debug, Clone)]
#[must_use = "a FilterScanBuilder does nothing until executed"]
pub struct FilterScanBuilder<'a> {
    ds: &'a Dataset,
    lo: Option<Value>,
    hi: Option<Value>,
    partitions: usize,
}

impl FilterScanBuilder<'_> {
    /// Restricts the scan to `filter_key ∈ [lo, hi]` (inclusive).
    pub fn range(mut self, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        self.lo = Some(lo.into());
        self.hi = Some(hi.into());
        self
    }

    /// Restricts the scan to `filter_key >= lo`.
    pub fn range_from(mut self, lo: impl Into<Value>) -> Self {
        self.lo = Some(lo.into());
        self
    }

    /// Restricts the scan to `filter_key <= hi`.
    pub fn range_to(mut self, hi: impl Into<Value>) -> Self {
        self.hi = Some(hi.into());
        self
    }

    /// Executes the scan across up to `n` primary-key partitions in
    /// parallel: the calling thread runs the first and one scoped thread
    /// per other partition runs the rest. Results are identical for every
    /// `n` and in primary-key order; the default is `n = 1`, one partition
    /// run inline on the calling thread.
    pub fn parallel(mut self, n: usize) -> Self {
        self.partitions = n.max(1);
        self
    }

    /// Runs the scan, returning the match count plus pruning statistics.
    pub fn count(self) -> Result<FilterScanReport> {
        let plan = capture_plan(self.ds, self.lo.as_ref(), self.hi.as_ref())?;
        Ok(plan.run(self.ds, self.partitions, false)?.0)
    }

    /// Runs the scan and collects the matching records in primary-key
    /// order.
    pub fn records(self) -> Result<Vec<Record>> {
        let plan = capture_plan(self.ds, self.lo.as_ref(), self.hi.as_ref())?;
        Ok(plan.run(self.ds, self.partitions, true)?.1)
    }

    /// Runs the scan as an iterator of matching records in primary-key
    /// order, over one captured plan. A single-partition scan of a
    /// reconciled strategy streams from the underlying merge scan with
    /// bounded memory; the Mutable-bitmap strategy (which must sort) and
    /// fanned-out scans materialize the matches first, so their streams
    /// replay a buffer.
    pub fn stream(self) -> Result<FilterScanStream> {
        let mut plan = capture_plan(self.ds, self.lo.as_ref(), self.hi.as_ref())?;
        let inner = if plan.reconciles() && self.partitions == 1 {
            let (lo, hi) = (Bound::Unbounded, Bound::Unbounded);
            let mem = plan.mem.take();
            let scan = plan.merge_scan(self.ds, mem, lo, hi)?;
            // The plan rides along: it holds the predicate, and dropping
            // its components would retire their files mid-scan.
            StreamInner::Scan {
                scan,
                plan: Box::new(plan),
            }
        } else {
            let records = plan.run(self.ds, self.partitions, true)?.1;
            StreamInner::Buffered(records.into_iter())
        };
        Ok(FilterScanStream { inner })
    }
}

/// Streaming filter-scan results in primary-key order; obtained from
/// [`FilterScanBuilder::stream`].
pub struct FilterScanStream {
    inner: StreamInner,
}

enum StreamInner {
    /// Live merge scan over the captured plan (bounded memory).
    Scan { scan: LsmScan, plan: Box<ScanPlan> },
    /// Pre-materialized matches (Mutable-bitmap / fanned-out execution).
    Buffered(std::vec::IntoIter<Record>),
}

impl std::fmt::Debug for FilterScanStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            StreamInner::Scan { .. } => f.write_str("FilterScanStream::Scan"),
            StreamInner::Buffered(it) => f
                .debug_struct("FilterScanStream::Buffered")
                .field("remaining", &it.len())
                .finish(),
        }
    }
}

impl Iterator for FilterScanStream {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            StreamInner::Buffered(it) => it.next().map(Ok),
            StreamInner::Scan { scan, plan } => loop {
                let entry = match scan.next_lent() {
                    Ok(Some(lent)) => lent.entry,
                    Ok(None) => return None,
                    Err(e) => return Some(Err(e)),
                };
                if entry.anti_matter {
                    continue;
                }
                match plan.predicate.select(entry.value, plan.arity).transpose() {
                    Some(row) => return Some(row),
                    None => continue,
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, StrategyKind};
    use lsm_common::{FieldType, Schema};
    use lsm_storage::{Storage, StorageOptions};
    use std::sync::Arc;

    fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
        let schema = Schema::new(vec![
            ("id", FieldType::Int),
            ("time", FieldType::Int),
            ("message", FieldType::Str),
        ])
        .unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.strategy = strategy;
        cfg.filter_field = Some(1);
        cfg.memory_budget = usize::MAX;
        cfg.merge_repair = false;
        Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
    }

    fn rec(id: i64, t: i64) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::Int(t),
            Value::Str(format!("m\0{id}")),
        ])
    }

    /// Three time-correlated components: times 0..100, 100..200, 200..300.
    fn load(ds: &Dataset) {
        for c in 0..3i64 {
            for i in 0..100 {
                ds.insert(&rec(c * 100 + i, c * 100 + i)).unwrap();
            }
            ds.flush_all().unwrap();
        }
    }

    /// Counts `time ∈ [lo, hi]` through the default (one-partition) scan.
    fn count(ds: &Dataset, lo: Option<i64>, hi: Option<i64>) -> Result<FilterScanReport> {
        let mut scan = ds.filter_scan();
        if let Some(lo) = lo {
            scan = scan.range_from(lo);
        }
        if let Some(hi) = hi {
            scan = scan.range_to(hi);
        }
        scan.count()
    }

    fn all_strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
        ]
    }

    #[test]
    fn counts_are_correct_for_all_strategies() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            let r = count(&ds, Some(50), Some(149)).unwrap();
            assert_eq!(r.matches, 100, "{s:?}");
            let r = count(&ds, None, Some(99)).unwrap();
            assert_eq!(r.matches, 100, "{s:?}");
            let r = count(&ds, Some(250), None).unwrap();
            assert_eq!(r.matches, 50, "{s:?}");
        }
    }

    #[test]
    fn eager_and_bitmap_prune_old_queries_but_validation_cannot() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            // Query on OLD data (component 0 only).
            let r = count(&ds, None, Some(99)).unwrap();
            match s {
                StrategyKind::Eager | StrategyKind::MutableBitmap => {
                    assert_eq!(r.components_scanned, 1, "{s:?}");
                    assert_eq!(r.components_pruned, 2, "{s:?}");
                }
                _ => {
                    // Validation must read all newer components too.
                    assert_eq!(r.components_scanned, 3, "{s:?}");
                    assert_eq!(r.components_pruned, 0, "{s:?}");
                }
            }
            // Query on RECENT data: everyone prunes the old components.
            let r = count(&ds, Some(200), None).unwrap();
            assert_eq!(r.components_scanned, 1, "{s:?}");
            assert_eq!(r.components_pruned, 2, "{s:?}");
        }
    }

    #[test]
    fn updates_do_not_leak_old_versions() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            // Move records 0..10 from time 0..10 to time 290+.
            for i in 0..10 {
                ds.upsert(&rec(i, 290)).unwrap();
            }
            ds.flush_all().unwrap();
            // Old-data query must NOT return the stale versions.
            let r = count(&ds, None, Some(10)).unwrap();
            assert_eq!(r.matches, 1, "{s:?}"); // only id=10 (time 10) remains
                                               // Recent-data query sees the moved records.
            let r = count(&ds, Some(290), None).unwrap();
            assert_eq!(r.matches, 10 + 10, "{s:?}"); // ids 0..10 + 290..300
        }
    }

    #[test]
    fn eager_widening_forces_inclusion_but_stays_correct() {
        let ds = dataset(StrategyKind::Eager);
        load(&ds);
        // Update an old record; Eager widens the memory filter by the OLD
        // time (Figure 3), so an old-data query must include the memory
        // component and see the deletion.
        ds.upsert(&rec(5, 299)).unwrap();
        let r = count(&ds, None, Some(10)).unwrap();
        assert_eq!(r.matches, 10); // ids 0..11 minus the moved id 5
    }

    #[test]
    fn mutable_bitmap_prunes_despite_updates() {
        let ds = dataset(StrategyKind::MutableBitmap);
        load(&ds);
        for i in 0..10 {
            ds.upsert(&rec(i, 290)).unwrap();
        }
        ds.flush_all().unwrap();
        // Old-data query: old components' filters unchanged, deletes are in
        // the bitmaps — pruning power intact (Figure 19's key effect).
        let r = count(&ds, None, Some(10)).unwrap();
        assert_eq!(r.components_pruned, 3); // two newer + ... of 4 comps
        assert_eq!(r.matches, 1);
    }

    /// Regression: an unflushed update whose new filter value does NOT
    /// overlap the query must still override its old on-disk version under
    /// Validation — the memory run cannot be pruned by its own filter when
    /// an older component is read (the quickstart scenario).
    #[test]
    fn validation_reads_memory_even_when_its_filter_misses() {
        for s in [StrategyKind::Validation, StrategyKind::DeletedKeyBTree] {
            let ds = dataset(s);
            for i in 0..3 {
                ds.insert(&rec(i, i)).unwrap();
            }
            ds.flush_all().unwrap();
            // Move id 0 to time 100 — stays in memory, mem filter [100,100].
            ds.upsert(&rec(0, 100)).unwrap();
            // Old-data query: mem filter misses, but the stale version of
            // id 0 must still be overridden.
            let r = count(&ds, None, Some(10)).unwrap();
            assert_eq!(r.matches, 2, "{s:?}: stale version leaked");
        }
    }

    #[test]
    fn no_filter_field_is_an_error() {
        let schema = Schema::new(vec![("id", FieldType::Int)]).unwrap();
        let cfg = DatasetConfig::new(schema, 0);
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        assert!(ds.filter_scan().parallel(2).count().is_err());
        assert!(ds.filter_scan().count().is_err());
    }

    /// Regression: a corrupt primary value must fail an unbounded scan under
    /// every strategy — the Mutable-bitmap branch used to skip undecodable
    /// records and return a short count, and a value that decodes cleanly
    /// but holds fewer fields than the schema (here: the pk alone, no
    /// filter field) used to panic the reader with an index out of bounds.
    /// The third case is damaged *behind* the predicate's field (a bad
    /// escape inside `message`) in a row the predicate drops — its time is
    /// past the scanned range: nothing reads the message to answer the
    /// query, and the scan must fail all the same.
    #[test]
    fn corrupt_record_fails_the_scan_under_every_strategy() {
        let mut bad_escape = rec(7, 1_000).encode();
        let escape = bad_escape.iter().rposition(|&b| b == 0xFF).unwrap();
        bad_escape[escape] = 0x01;
        assert!(Record::decode(&bad_escape).is_err());
        for s in [
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
            StrategyKind::DeletedKeyBTree,
        ] {
            for (corrupt, hi) in [
                (vec![0xFF; 3], None),
                (Value::Int(7).encode(), None),
                (bad_escape.clone(), Some(299)),
            ] {
                let ds = dataset(s);
                load(&ds);
                let ts = ds.clock().now();
                ds.primary().put(
                    crate::keys::encode_pk(&Value::Int(7)),
                    LsmEntry::put_ts(corrupt.clone(), ts),
                    ts,
                );
                let is_corruption =
                    |e: lsm_common::Error| matches!(e, lsm_common::Error::Corruption(_));
                for n in [1, 3] {
                    let scan = || {
                        let scan = ds.filter_scan().parallel(n);
                        match hi {
                            Some(hi) => scan.range_to(hi),
                            None => scan,
                        }
                    };
                    assert!(scan().count().is_err_and(is_corruption), "{s:?} n={n}");
                    assert!(scan().records().is_err_and(is_corruption), "{s:?} n={n}");
                    let streamed = scan()
                        .stream()
                        .and_then(|it| it.collect::<Result<Vec<_>>>());
                    assert!(streamed.is_err_and(is_corruption), "{s:?} n={n}");
                }
                assert!(ds.filter_scan().count().is_err(), "{s:?} default");
            }
        }
    }

    /// Every execution captures exactly one plan (the Mutable-bitmap
    /// capture takes the dataset write lock and freezes bitmaps — `stream`
    /// used to pay for it twice).
    #[test]
    fn every_execution_captures_exactly_once() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            for n in [1, 3] {
                let captures = |run: &dyn Fn(FilterScanBuilder<'_>)| {
                    let before = CAPTURES.with(|c| c.get());
                    run(ds.filter_scan().range(50, 250).parallel(n));
                    CAPTURES.with(|c| c.get()) - before
                };
                assert_eq!(
                    captures(&|b| assert_eq!(b.count().unwrap().matches, 201)),
                    1
                );
                assert_eq!(
                    captures(&|b| assert_eq!(b.records().unwrap().len(), 201)),
                    1
                );
                assert_eq!(
                    captures(&|b| assert_eq!(b.stream().unwrap().count(), 201)),
                    1,
                    "{s:?} n={n} stream"
                );
            }
        }
    }

    /// The builder's serial/parallel/stream outputs agree with each other
    /// and with the count, across strategies and fan-outs (the in-crate
    /// miniature of the `filter_scan_oracle` integration test).
    #[test]
    fn builder_paths_agree_across_strategies() {
        for s in [
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
            StrategyKind::DeletedKeyBTree,
        ] {
            let ds = dataset(s);
            load(&ds);
            for i in 0..30 {
                ds.upsert(&rec(i * 7, 295)).unwrap();
            }
            for i in 0..10 {
                ds.delete(&Value::Int(150 + i)).unwrap();
            }
            ds.flush_all().unwrap();
            for (lo, hi) in [
                (None, None),
                (Some(60i64), Some(260i64)),
                (None, Some(99)),
                (Some(250), None),
            ] {
                let lo_v = lo.map(Value::Int);
                let hi_v = hi.map(Value::Int);
                let scan = || {
                    let mut b = ds.filter_scan();
                    if let Some(l) = &lo_v {
                        b = b.range_from(l.clone());
                    }
                    if let Some(h) = &hi_v {
                        b = b.range_to(h.clone());
                    }
                    b
                };
                let serial = scan().records().unwrap();
                assert_eq!(
                    serial.len() as u64,
                    scan().count().unwrap().matches,
                    "{s:?} [{lo:?},{hi:?}]"
                );
                // Serial records are in pk order.
                let ids: Vec<i64> = serial.iter().map(|r| r.get(0).as_int().unwrap()).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{s:?} unordered");
                let streamed: Vec<Record> =
                    scan().stream().unwrap().collect::<Result<_>>().unwrap();
                assert_eq!(streamed, serial, "{s:?} stream [{lo:?},{hi:?}]");
                for n in [1, 2, 3, 7] {
                    let par = scan().parallel(n).records().unwrap();
                    assert_eq!(par, serial, "{s:?} parallel({n}) [{lo:?},{hi:?}]");
                    let report = scan().parallel(n).count().unwrap();
                    assert_eq!(report.matches, serial.len() as u64, "{s:?} n={n}");
                    assert!(report.partitions >= 1 && report.partitions <= n as u64);
                    let streamed: Vec<Record> = scan()
                        .parallel(n)
                        .stream()
                        .unwrap()
                        .collect::<Result<_>>()
                        .unwrap();
                    assert_eq!(streamed, serial, "{s:?} parallel({n}) stream");
                }
            }
        }
    }

    #[test]
    fn partitioned_scans_are_counted() {
        let ds = dataset(StrategyKind::Eager);
        load(&ds);
        let before = ds.stats().snapshot();
        let report = ds.filter_scan().parallel(3).count().unwrap();
        let after = ds.stats().snapshot();
        assert_eq!(
            after.parallel_filter_scans - before.parallel_filter_scans,
            1
        );
        assert_eq!(
            after.filter_scan_partitions - before.filter_scan_partitions,
            report.partitions
        );
        // The default scan and `parallel(1)` are the same single inline
        // partition: both report it, neither touches the fan-out counters.
        for r in [
            ds.filter_scan().count().unwrap(),
            ds.filter_scan().parallel(1).count().unwrap(),
        ] {
            assert_eq!(r.partitions, 1);
        }
        assert_eq!(ds.stats().snapshot(), after);
    }
}
