//! The one query executor: the Figure 5 pipeline of secondary-index scan →
//! candidate sort/dedup → validation → record fetch, run as one pass on
//! the calling thread.
//!
//! Every query — [`PreparedQuery::execute`](crate::query::PreparedQuery::execute)
//! and [`PreparedQuery::stream`](crate::query::PreparedQuery::stream) —
//! runs the same two stages:
//!
//! 1. **Scan + validation** (`gather`). One atomically captured snapshot
//!    of the secondary index (in-memory run + disk components) is scanned,
//!    and its candidates are sorted, deduplicated and (when requested)
//!    Timestamp-validated. Query-driven repair marks are applied once,
//!    after the validation.
//! 2. **Record fetch** (`FetchPlan::fetch_chunk`). The validated primary
//!    keys are fetched in contiguous ascending chunks — one for a
//!    collecting query, `keys_per_batch`-sized chunks for a stream — each
//!    through one live [`lookup_sorted`] call. No primary-index snapshot is
//!    shared between chunks: `lookup_sorted` reads the memory component
//!    first and captures the disk list after, so an entry that moves from
//!    memory to disk mid-query is seen by every chunk (in memory, on disk,
//!    or both — never neither), which is the only guarantee the pipeline
//!    needs. With `sort_output` each chunk is restored to key order, so
//!    concatenating the chunks yields primary-key order with no merge.

use crate::dataset::Dataset;
use crate::keys::{bound_as_ref, sk_range, split_sk_pk};
use crate::query::{QueryOptions, QueryResult, RecordStream, ValidationMethod};
use lsm_common::{Error, Key, Record, RecordView, Result, Timestamp, Value};
use lsm_storage::{Event, Storage};
use lsm_tree::{
    lookup_sorted, sorted_timestamps, ComponentId, DiskComponent, LookupOptions, LsmEntry, LsmScan,
    ScanOptions,
};
use std::ops::{Bound, Range};
use std::sync::Arc;

/// An inclusive range predicate on one field of a stored record, with its
/// bounds pre-encoded: the value encoding is order-preserving, so the test
/// is two byte-string comparisons on the [`RecordView`] — no field is
/// decoded. `None` = unbounded.
#[derive(Debug)]
pub(crate) struct FieldRange {
    field: usize,
    lo: Option<Key>,
    hi: Option<Key>,
}

impl FieldRange {
    pub(crate) fn new(field: usize, lo: Option<&Value>, hi: Option<&Value>) -> Self {
        FieldRange {
            field,
            lo: lo.map(Value::encode),
            hi: hi.map(Value::encode),
        }
    }

    /// Is the encoded field value `v` inside the range?
    fn admits(&self, v: &[u8]) -> bool {
        self.lo.as_deref().is_none_or(|l| v >= l) && self.hi.as_deref().is_none_or(|h| v <= h)
    }

    /// Does the stored record satisfy the predicate? Validates the whole
    /// record on the way — one walk, for a caller that wants the verdict
    /// alone. A stored record without the field is corrupt.
    pub(crate) fn holds_validating(&self, stored: &[u8]) -> Result<bool> {
        Ok(self.admits(RecordView::parse_field(stored, self.field)?))
    }

    /// The verdict on stored bytes nothing has validated yet: only the
    /// fields up to the predicate's are checked, so the caller owes the
    /// record one whole validation whatever the verdict.
    fn holds_on_prefix(&self, stored: &[u8]) -> Result<bool> {
        Ok(self.admits(RecordView::leading_field(stored, self.field)?))
    }

    /// The stored record if it satisfies the predicate, read where the
    /// predicate's field lies. Either way the record is validated once,
    /// whole — a survivor by its decode, a dropped one in place — so damage
    /// anywhere in a stored record fails the query and never just shortens
    /// its result. `arity` sizes the decode.
    pub(crate) fn select(&self, stored: &[u8], arity: usize) -> Result<Option<Record>> {
        if self.holds_on_prefix(stored)? {
            return Record::decode_sized(stored, arity).map(Some);
        }
        RecordView::parse(stored)?;
        Ok(None)
    }
}

/// One candidate produced by the secondary-index scan.
#[derive(Debug, Clone)]
struct Candidate {
    pk_key: Key,
    ts: Timestamp,
    /// Repaired timestamp of the source component (`now` for memory).
    repaired_ts: Timestamp,
    /// Component ID of the source (for pID pruning).
    source_id: ComponentId,
    /// Source disk component index and entry ordinal (None for memory),
    /// for query-driven repair.
    source: Option<RepairMark>,
}

/// A query-driven-repair mark: `(disk component index, entry ordinal)` in
/// the component list the candidates were scanned from.
type RepairMark = (usize, u64);

/// Step 1 of Figure 5: scans `[lo, hi]` of the captured
/// secondary-index view. Candidate `source` indices refer to `comps`.
fn scan_candidates(
    ds: &Dataset,
    mem: Option<Vec<(Key, LsmEntry)>>,
    comps: &[Arc<DiskComponent>],
    lo: Bound<&[u8]>,
    hi: Bound<&[u8]>,
) -> Result<Vec<Candidate>> {
    // An empty memory run is no source: the scan charges its merge by the
    // number of sources, and the ranks below count memory only if present.
    let mem = mem.filter(|run| !run.is_empty());
    let has_mem = mem.is_some();
    let opts = ScanOptions::default();
    let mut scan = LsmScan::new(ds.storage().clone(), mem, comps, lo, hi, opts)?;
    let now = ds.clock().now();
    let mut candidates: Vec<Candidate> = Vec::new();
    while let Some(lent) = scan.next_lent()? {
        if lent.entry.anti_matter {
            continue;
        }
        let (repaired_ts, source_id, source) = if has_mem && lent.rank == 0 {
            (
                now,
                ComponentId::new(lent.entry.ts.max(1), now.max(1)),
                None,
            )
        } else {
            let idx = lent.rank - usize::from(has_mem);
            let comp = &comps[idx];
            (comp.repaired_ts(), comp.id(), Some((idx, lent.ordinal)))
        };
        // The candidate's pk is the tail of the scanned key — the one
        // thing copied out of the lent entry.
        candidates.push(Candidate {
            pk_key: split_sk_pk(lent.key)?.1.to_vec(),
            ts: lent.entry.ts,
            repaired_ts,
            source_id,
            source,
        });
    }
    Ok(candidates)
}

/// Step 2 of Figure 5: sort by `(pk asc, ts desc)` and deduplicate —
/// exact `(pk, ts)` duplicates always, and down to one (the newest)
/// candidate per pk when no Timestamp validation will follow.
fn sort_dedup_candidates(ds: &Dataset, candidates: &mut Vec<Candidate>, opts: &QueryOptions) {
    charge_sort(ds.storage(), candidates.len() as u64);
    candidates.sort_by(|a, b| (&a.pk_key, b.ts).cmp(&(&b.pk_key, a.ts)));
    candidates.dedup_by(|a, b| a.pk_key == b.pk_key && a.ts == b.ts);
    if opts.validation != ValidationMethod::Timestamp {
        // Distinct on pk (keep the newest candidate).
        candidates.dedup_by(|a, b| a.pk_key == b.pk_key);
    }
}

/// Step 3 of Figure 5: Timestamp validation (Figure 5b) against the
/// primary key index, plus the final distinct-pk pass. A no-op for the
/// other validation methods. Query-driven-repair obsolescence proofs are
/// pushed onto `marks`; the caller applies them once per query.
///
/// A candidate is obsolete iff the newest version of its key — in memory,
/// else among the disk components newer than both its own and its source's
/// repaired timestamp — is younger than it. The memory component is probed
/// first and the disk list captured once, after, so an entry mid-flush is
/// seen in one or the other; the candidates arrive in key order, so the
/// disk probes are one batched, stateful walk (Section 3.2).
fn validate_candidates(
    ds: &Dataset,
    candidates: Vec<Candidate>,
    opts: &QueryOptions,
    marks: &mut Vec<RepairMark>,
) -> Result<Vec<Candidate>> {
    if opts.validation != ValidationMethod::Timestamp {
        return Ok(candidates);
    }
    let pk_tree = ds
        .pk_index()
        .ok_or_else(|| Error::invalid("timestamp validation requires the pk index"))?;
    let mut obsolete = vec![false; candidates.len()];
    let mut unseen: Vec<usize> = Vec::with_capacity(candidates.len());
    for (i, cand) in candidates.iter().enumerate() {
        match pk_tree.mem_get(&cand.pk_key) {
            Some(found) => obsolete[i] = found.ts > cand.ts,
            None => unseen.push(i),
        }
    }
    let pk_components = pk_tree.disk_components();
    sorted_timestamps(
        ds.storage(),
        &pk_components,
        unseen.len(),
        |j| candidates[unseen[j]].pk_key.as_slice(),
        |j, comp| {
            let cand = &candidates[unseen[j]];
            !comp.id().at_or_before(cand.ts.max(cand.repaired_ts))
        },
        |j, newest| obsolete[unseen[j]] = newest > candidates[unseen[j]].ts,
    )?;
    let mut valid = Vec::with_capacity(candidates.len());
    for (cand, obsolete) in candidates.into_iter().zip(obsolete) {
        if !obsolete {
            valid.push(cand);
        } else if opts.query_driven_repair {
            // Query-driven maintenance: record the proof of obsolescence
            // so future queries skip this entry without re-validating.
            marks.extend(cand.source);
        }
    }
    valid.dedup_by(|a, b| a.pk_key == b.pk_key);
    Ok(valid)
}

/// Steps 1-3 of Figure 5 (see the module docs): returns the validated
/// candidates — distinct primary keys, ascending — packaged with
/// everything the record fetch needs.
pub(crate) fn gather(
    ds: &Dataset,
    index: &str,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
) -> Result<FetchPlan> {
    let sec = ds.secondary(index)?;
    let (lo_b, hi_b) = sk_range(lo, hi);
    let (lo_ref, hi_ref) = (bound_as_ref(&lo_b), bound_as_ref(&hi_b));

    // One atomically captured view of the secondary index: an entry
    // mid-flush is seen exactly once.
    let (mem, comps) = sec
        .tree
        .mem_and_disk_snapshot_if(lo_ref, hi_ref, |_, _| true);
    let mut candidates = scan_candidates(ds, mem, &comps, lo_ref, hi_ref)?;
    sort_dedup_candidates(ds, &mut candidates, opts);
    let mut marks = Vec::new();
    let candidates = validate_candidates(ds, candidates, opts, &mut marks)?;
    for (idx, ordinal) in marks {
        comps[idx].bitmap_or_create().set(ordinal);
    }

    let (keys, hints) = candidates
        .into_iter()
        .map(|c| (c.pk_key, c.source_id))
        .unzip();
    Ok(FetchPlan {
        keys,
        hints,
        keys_per_batch: keys_per_batch(ds, opts.batch_bytes),
        opts: *opts,
        predicate: FieldRange::new(sec.field, lo, hi),
    })
}

/// Step 4 of Figure 5: the validated candidate keys of one query plus
/// everything a chunk fetch needs. Shared by the collecting fetch
/// (`fetch_all`) and the [`RecordStream`].
#[derive(Debug)]
pub(crate) struct FetchPlan {
    /// Post-validation candidate primary keys, distinct and ascending.
    pub(crate) keys: Vec<Key>,
    /// Per-key component-ID hints, parallel to `keys` (pID).
    hints: Vec<ComponentId>,
    /// Keys per lookup batch, from `batch_bytes` and the average record size.
    pub(crate) keys_per_batch: usize,
    opts: QueryOptions,
    /// The query predicate, for the Direct re-check (Figure 5a).
    predicate: FieldRange,
}

impl FetchPlan {
    /// Fetches the records of `keys[range]` with the batched point-lookup
    /// machinery, dropping those that fail the Direct predicate re-check
    /// (Figure 5a). Batched probing destroys key order within the chunk;
    /// `sort` restores it.
    pub(crate) fn fetch_chunk(
        &self,
        ds: &Dataset,
        range: Range<usize>,
        sort: bool,
    ) -> Result<Vec<Record>> {
        let keys = &self.keys[range.clone()];
        let direct = self.opts.validation == ValidationMethod::Direct;
        // pID skips the primary components a candidate's source does not
        // overlap, newer ones included: sound only for candidates proven
        // newest. Direct validation proves nothing before the fetch — its
        // re-check must see each key's newest version.
        let lopts = LookupOptions {
            batched: self.opts.batched,
            keys_per_batch: self.keys_per_batch,
            stateful: self.opts.stateful,
            id_hints: (self.opts.propagate_component_ids && !direct).then(|| &self.hints[range]),
        };
        let mut found = lookup_sorted(ds.primary(), keys, &lopts)?;
        fetch_missing_under_lock(ds, keys, &mut found)?;
        if sort {
            charge_sort(ds.storage(), found.len() as u64);
            found.sort_by_key(|(i, _)| *i);
        }
        let arity = ds.config().schema.arity();
        let mut records = Vec::with_capacity(found.len());
        for (_, entry) in found {
            // Direct validation re-checks the predicate on the stored bytes.
            let record = if direct {
                self.predicate.select(&entry.value, arity)?
            } else {
                Some(Record::decode_sized(&entry.value, arity)?)
            };
            records.extend(record);
        }
        Ok(records)
    }

    /// The collecting fetch: every key in one chunk, re-sorted when
    /// `sort_output` is set. A query with no candidates looks nothing up.
    fn fetch_all(self, ds: &Dataset) -> Result<Vec<Record>> {
        if self.keys.is_empty() {
            return Ok(Vec::new());
        }
        self.fetch_chunk(ds, 0..self.keys.len(), self.opts.sort_output)
    }
}

/// Re-probes every candidate key that resolved to "not found" via
/// [`Dataset::second_chance_lookup`] — the Mutable-bitmap §5.2 race fix
/// (an MB upsert marks the old version deleted in place before the new
/// one reaches memory, so a racing lookup can find neither). Cheap: only
/// unresolved candidates are re-probed, deletions gate most probes
/// through the Bloom filters, and the whole pass is a no-op for the
/// other strategies.
fn fetch_missing_under_lock(
    ds: &Dataset,
    keys: &[Key],
    found: &mut lsm_tree::lookup::FoundEntries,
) -> Result<()> {
    if ds.config().strategy != crate::StrategyKind::MutableBitmap {
        return Ok(());
    }
    let mut have = vec![false; keys.len()];
    for (i, _) in found.iter() {
        have[*i] = true;
    }
    for (i, key) in keys.iter().enumerate() {
        if have[i] {
            continue;
        }
        if let Some(e) = ds.second_chance_lookup(key)? {
            if !e.anti_matter {
                found.push((i, e));
            }
        }
    }
    Ok(())
}

/// Runs the full query pipeline, collecting every result (up to `limit`).
pub(crate) fn execute(
    ds: &Dataset,
    index: &str,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
    limit: Option<usize>,
) -> Result<QueryResult> {
    let plan = gather(ds, index, lo, hi, opts)?;
    let cap = limit.unwrap_or(usize::MAX);

    // Index-only fast path: no record fetch needed.
    if opts.index_only && opts.validation != ValidationMethod::Direct {
        let keys = plan
            .keys
            .iter()
            .take(cap)
            .map(|k| crate::keys::decode_pk(k));
        return Ok(QueryResult::Keys(keys.collect::<Result<_>>()?));
    }
    // Limited record queries go through the stream so the record fetch —
    // the dominant I/O — stops after `limit` results instead of fetching
    // every candidate and truncating. The stream yields primary-key order,
    // which matches the `sort_output` collecting path.
    if limit.is_some() && !opts.index_only {
        let records = RecordStream::over(ds, plan, limit).collect::<Result<_>>()?;
        return Ok(QueryResult::Records(records));
    }
    let records = plan.fetch_all(ds)?;
    if opts.index_only {
        // Direct validation + index-only still had to fetch records.
        let pk_field = ds.config().pk_field;
        let keys = records.iter().take(cap).map(|r| {
            let pk = r.values.get(pk_field).cloned();
            pk.ok_or_else(|| Error::corruption("stored record has no primary-key field"))
        });
        return Ok(QueryResult::Keys(keys.collect::<Result<_>>()?));
    }
    Ok(QueryResult::Records(records))
}

/// Charges an `n log n` sort: `n` times the bit length of `n`
/// (`⌊log₂ n⌋ + 1`) sort entries.
pub(crate) fn charge_sort(storage: &Storage, n: u64) {
    if n > 1 {
        let log_n = u64::from(64 - n.leading_zeros());
        storage.charge(Event::SortEntry, n * log_n);
    }
}

/// Derives the per-batch key count from the batching memory and the average
/// record size of the primary index.
fn keys_per_batch(ds: &Dataset, batch_bytes: usize) -> usize {
    let entries = ds.primary().disk_entries().max(1);
    let avg = (ds.primary().disk_bytes() / entries).max(64) as usize;
    (batch_bytes / avg).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty memory run is no source: over one disk component, the
    /// candidate scan finds and is charged the same with it as without it
    /// (one more source would double the scan's per-key merge charge).
    #[test]
    fn an_empty_memory_run_is_no_source() {
        use crate::config::{DatasetConfig, SecondaryIndexDef};
        use lsm_common::{FieldType, Schema};
        let schema = Schema::new(vec![("id", FieldType::Int), ("group", FieldType::Int)]).unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.memory_budget = usize::MAX;
        cfg.secondary_indexes = vec![SecondaryIndexDef {
            name: "group".into(),
            field: 1,
        }];
        let storage = lsm_storage::Storage::new(lsm_storage::StorageOptions::test());
        let ds = Dataset::open(storage, None, cfg).unwrap();
        for id in 0..50 {
            ds.insert(&Record::new(vec![Value::Int(id), Value::Int(id % 5)]))
                .unwrap();
        }
        ds.flush_all().unwrap();
        let comps = ds.secondary("group").unwrap().tree.disk_components();
        assert_eq!(comps.len(), 1);
        let scan = |mem: Option<Vec<(Key, LsmEntry)>>| {
            let before = ds.storage().stats().cpu_ns;
            let (lo, hi) = (Bound::Unbounded, Bound::Unbounded);
            let found = scan_candidates(&ds, mem, &comps, lo, hi).unwrap().len();
            (found, ds.storage().stats().cpu_ns - before)
        };
        assert_eq!(scan(Some(Vec::new())), scan(None));
        assert_eq!(scan(None).0, 50);
    }

    /// Step 2 orders candidates by pk, newest first, and drops exact
    /// `(pk, ts)` duplicates; without Timestamp validation it also keeps
    /// only the newest candidate of each pk. An updated record leaves one
    /// candidate per version it was indexed under, so this is what returns
    /// it once.
    #[test]
    fn candidates_sort_by_pk_then_newest_first_and_dedup() {
        use crate::config::DatasetConfig;
        use lsm_common::{FieldType, Schema};
        let schema = Schema::new(vec![("id", FieldType::Int)]).unwrap();
        let storage = lsm_storage::Storage::new(lsm_storage::StorageOptions::test());
        let ds = Dataset::open(storage, None, DatasetConfig::new(schema, 0)).unwrap();
        let cand = |pk: u8, ts: Timestamp| Candidate {
            pk_key: vec![pk],
            ts,
            repaired_ts: 0,
            source_id: ComponentId::new(1, 1),
            source: None,
        };
        let sorted = |validation: ValidationMethod| -> Vec<(u8, Timestamp)> {
            let mut cands = vec![cand(3, 2), cand(1, 5), cand(2, 1), cand(1, 9), cand(1, 5)];
            let opts = QueryOptions {
                validation,
                ..QueryOptions::default()
            };
            sort_dedup_candidates(&ds, &mut cands, &opts);
            cands.iter().map(|c| (c.pk_key[0], c.ts)).collect()
        };
        assert_eq!(
            sorted(ValidationMethod::Timestamp),
            vec![(1, 9), (1, 5), (2, 1), (3, 2)]
        );
        for validation in [ValidationMethod::None, ValidationMethod::Direct] {
            assert_eq!(sorted(validation), vec![(1, 9), (2, 1), (3, 2)]);
        }
    }

    // ---- Timestamp validation against the per-key probes ---------------------

    /// Figure 5b as it ran before the sorted walk: per candidate, the
    /// memory component, then one Bloom-gated search per unpruned disk
    /// component of a snapshot of its own.
    fn validate_per_key(
        ds: &Dataset,
        candidates: Vec<Candidate>,
        opts: &QueryOptions,
        marks: &mut Vec<RepairMark>,
    ) -> Vec<Candidate> {
        let pk_tree = ds.pk_index().unwrap();
        let mut valid = Vec::new();
        for cand in candidates {
            let prune = cand.ts.max(cand.repaired_ts);
            let newest = pk_tree.mem_get(&cand.pk_key).or_else(|| {
                let unpruned = |c: &DiskComponent| !c.id().at_or_before(prune);
                let comps = pk_tree.disk_components();
                let oracle = crate::repair::oracle::newest_version_among;
                oracle(ds.storage(), &comps, &cand.pk_key, unpruned)
                    .unwrap()
                    .0
            });
            if newest.is_none_or(|found| found.ts <= cand.ts) {
                valid.push(cand);
            } else if opts.query_driven_repair {
                marks.extend(cand.source);
            }
        }
        valid.dedup_by(|a, b| a.pk_key == b.pk_key);
        valid
    }

    /// A Timestamp-validated index-only query over candidates whose newest
    /// versions are spread over the pk index's memory component (an update
    /// not yet flushed), anti-matter (a delete), components a repair's
    /// timestamp prunes and components it does not: the walk keeps the
    /// candidates, leaves the marks and pays the Bloom checks of the
    /// per-key probes.
    #[test]
    fn timestamp_validation_on_the_sorted_walk_matches_the_per_key_probes() {
        use crate::config::{DatasetConfig, SecondaryIndexDef, StrategyKind};
        use lsm_common::{FieldType, Schema};
        let schema = Schema::new(vec![("id", FieldType::Int), ("group", FieldType::Int)]).unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.strategy = StrategyKind::Validation;
        cfg.merge_repair = false;
        cfg.memory_budget = usize::MAX;
        cfg.secondary_indexes = vec![SecondaryIndexDef {
            name: "group".into(),
            field: 1,
        }];
        let storage = lsm_storage::Storage::new(lsm_storage::StorageOptions::test());
        let ds = Dataset::open(storage, None, cfg).unwrap();
        let rec = |id: i64, group: i64| Record::new(vec![Value::Int(id), Value::Int(group)]);
        for id in 0..200 {
            ds.insert(&rec(id, 1)).unwrap();
        }
        ds.flush_all().unwrap();
        for id in (0..200).step_by(4) {
            ds.upsert(&rec(id, 2)).unwrap(); // leaves group 1
        }
        ds.flush_all().unwrap();
        ds.maintenance().repair_all().unwrap(); // repaired timestamps now prune
        for id in (1..200).step_by(10) {
            ds.delete(&Value::Int(id)).unwrap(); // anti-matter in the pk index
        }
        for id in (2..200).step_by(6) {
            ds.upsert(&rec(id, 1)).unwrap(); // a second group-1 entry, newer
        }
        ds.flush_all().unwrap();
        for id in (3..200).step_by(8) {
            ds.upsert(&rec(id, 3)).unwrap(); // still in memory
        }

        let opts = QueryOptions {
            index_only: true,
            validation: ValidationMethod::Timestamp,
            query_driven_repair: true,
            ..QueryOptions::default()
        };
        let sec = ds.secondary("group").unwrap();
        let (lo, hi) = sk_range(Some(&Value::Int(1)), Some(&Value::Int(2)));
        let (lo, hi) = (bound_as_ref(&lo), bound_as_ref(&hi));
        let (mem, comps) = sec.tree.mem_and_disk_snapshot_if(lo, hi, |_, _| true);
        let mut candidates = scan_candidates(&ds, mem, &comps, lo, hi).unwrap();
        sort_dedup_candidates(&ds, &mut candidates, &opts);
        assert!(candidates.windows(2).any(|w| w[0].pk_key == w[1].pk_key));

        let stats = || ds.storage().stats();
        let (before, mut want_marks) = (stats(), Vec::new());
        let want = validate_per_key(&ds, candidates.clone(), &opts, &mut want_marks);
        let per_key = stats().since(&before);
        let (before, mut marks) = (stats(), Vec::new());
        let got = validate_candidates(&ds, candidates, &opts, &mut marks).unwrap();
        let walk = stats().since(&before);

        let keys = |cands: &[Candidate]| -> Vec<(Key, Timestamp)> {
            cands.iter().map(|c| (c.pk_key.clone(), c.ts)).collect()
        };
        assert_eq!(keys(&got), keys(&want));
        marks.sort_unstable();
        want_marks.sort_unstable();
        assert_eq!(marks, want_marks);
        assert!(!marks.is_empty());
        assert_eq!(
            (walk.bloom_checks, walk.bloom_negatives),
            (per_key.bloom_checks, per_key.bloom_negatives)
        );
        assert!(walk.bloom_checks > 0);

        // The query itself, against the model: ids now in group 1 or 2,
        // that is, neither deleted nor (last of all) moved to group 3.
        let res = ds.query("group").range(1, 2).with_options(opts);
        let res = res.execute().unwrap();
        let mut got: Vec<i64> = res.keys().iter().map(|k| k.as_int().unwrap()).collect();
        got.sort_unstable();
        let gone = |id: &i64| (id - 3) % 8 == 0 || (id - 1) % 10 == 0;
        let model: Vec<i64> = (0..200).filter(|id| !gone(id)).collect();
        assert_eq!(got, model);
    }
}
