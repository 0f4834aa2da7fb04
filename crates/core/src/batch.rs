//! The fluent write-batch API: [`Dataset::batch`] → [`WriteBatch`] →
//! [`WriteBatch::commit`].
//!
//! A batch stages any mix of inserts, upserts, and deletes and applies
//! them in one shot. Compared with issuing the operations one by one, a
//! committed batch:
//!
//! - acquires the dataset drain lock **once** for the whole batch (a
//!   single-operation call pays that read-lock per operation);
//! - runs the flush/merge admission check once, after every operation
//!   has been applied.
//!
//! Each operation is logged and then applied exactly as a single write
//! is: its record goes to the WAL before it touches a memory component.
//!
//! Per-operation failures that are *data* problems (schema mismatch, a
//! duplicate primary key on insert) do not abort the batch: they are
//! reported per operation in the returned [`BatchOpResult`] vector,
//! positionally aligned with the staging order. Only infrastructure
//! failures (a dataset poisoned by background maintenance, storage
//! errors, a WAL append failure) abort the commit with an `Err`; the
//! operations before the failing one stay applied and logged.
//!
//! Key locks for every operation in the batch are taken up front in
//! sorted, deduplicated order — two batches touching overlapping key
//! sets cannot deadlock — and the operations themselves are applied in
//! staging order, so a batch that upserts then deletes the same key
//! observes its own earlier writes.
//!
//! ```
//! use lsm_common::{FieldType, Record, Schema, Value};
//! use lsm_engine::{BatchOpResult, Dataset, DatasetConfig, StrategyKind};
//! use lsm_storage::{Storage, StorageOptions};
//!
//! let schema = Schema::new(vec![
//!     ("id", FieldType::Int),
//!     ("location", FieldType::Str),
//! ]).unwrap();
//! let mut cfg = DatasetConfig::new(schema, 0);
//! cfg.strategy = StrategyKind::Validation;
//! let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
//!
//! let outcomes = ds
//!     .batch()
//!     .insert(&Record::new(vec![Value::Int(1), Value::Str("CA".into())]))
//!     .upsert(&Record::new(vec![Value::Int(2), Value::Str("NY".into())]))
//!     .delete(&Value::Int(1))
//!     .commit()
//!     .unwrap();
//! assert_eq!(outcomes, vec![
//!     BatchOpResult::Inserted,
//!     BatchOpResult::Upserted,
//!     BatchOpResult::Deleted(true),
//! ]);
//! ```

use crate::dataset::{Dataset, WriteOp};
use lsm_common::{Error, Record, Result, Value};

/// One staged operation inside a [`WriteBatch`], in caller order.
#[derive(Debug, Clone)]
pub(crate) enum StagedOp {
    /// Insert with the key-uniqueness check (Section 3.1).
    Insert(Record),
    /// Insert-or-replace.
    Upsert(Record),
    /// Delete by primary key.
    Delete(Value),
}

impl StagedOp {
    /// The write this operation applies.
    pub(crate) fn as_write(&self) -> WriteOp<'_> {
        match self {
            StagedOp::Insert(r) => WriteOp::Insert(r),
            StagedOp::Upsert(r) => WriteOp::Upsert(r),
            StagedOp::Delete(pk) => WriteOp::Delete(pk),
        }
    }
}

/// Per-operation outcome of [`WriteBatch::commit`], positionally aligned
/// with the order operations were staged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOpResult {
    /// The insert was applied.
    Inserted,
    /// The insert was rejected because the primary key already exists
    /// (the same condition under which [`Dataset::insert`] returns
    /// `false`).
    RejectedDuplicate,
    /// The upsert was applied.
    Upserted,
    /// The delete was applied; the payload mirrors [`Dataset::delete`]'s
    /// return value (`true` unless an Eager-strategy delete found the key
    /// absent).
    Deleted(bool),
    /// The operation failed validation (e.g. a schema mismatch) and was
    /// skipped; the rest of the batch still committed.
    Failed(Error),
}

/// A fluent multi-operation write batch under construction; obtained
/// from [`Dataset::batch`]. See the [module docs](self) for semantics.
#[derive(Debug, Clone)]
#[must_use = "a WriteBatch does nothing until committed"]
pub struct WriteBatch<'a> {
    ds: &'a Dataset,
    ops: Vec<StagedOp>,
}

impl<'a> WriteBatch<'a> {
    pub(crate) fn new(ds: &'a Dataset) -> Self {
        Self {
            ds,
            ops: Vec::new(),
        }
    }

    /// Stages an insert (applied with the key-uniqueness check, like
    /// [`Dataset::insert`]).
    pub fn insert(mut self, record: &Record) -> Self {
        self.ops.push(StagedOp::Insert(record.clone()));
        self
    }

    /// Stages an upsert (insert-or-replace, like [`Dataset::upsert`]).
    pub fn upsert(mut self, record: &Record) -> Self {
        self.ops.push(StagedOp::Upsert(record.clone()));
        self
    }

    /// Stages a delete by primary key (like [`Dataset::delete`]).
    pub fn delete(mut self, pk: &Value) -> Self {
        self.ops.push(StagedOp::Delete(pk.clone()));
        self
    }

    /// Number of operations staged so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations are staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies every staged operation in staging order, each logged before
    /// it is applied. Returns one [`BatchOpResult`] per staged operation,
    /// in staging order.
    ///
    /// Data-level failures (schema mismatch, duplicate key) surface as
    /// [`BatchOpResult::Failed`] / [`BatchOpResult::RejectedDuplicate`]
    /// without aborting the rest of the batch; an infrastructure failure
    /// aborts with `Err`, leaving the operations before it applied and
    /// logged, as that many single writes would.
    pub fn commit(self) -> Result<Vec<BatchOpResult>> {
        self.ds.apply_batch(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, SecondaryIndexDef};
    use crate::StrategyKind;
    use lsm_common::{FieldType, Schema};
    use lsm_storage::{Storage, StorageOptions};

    fn schema() -> Schema {
        Schema::new(vec![("id", FieldType::Int), ("location", FieldType::Str)]).unwrap()
    }

    fn dataset(strategy: StrategyKind) -> std::sync::Arc<Dataset> {
        let mut cfg = DatasetConfig::new(schema(), 0);
        cfg.strategy = strategy;
        cfg.secondary_indexes.push(SecondaryIndexDef {
            name: "location".into(),
            field: 1,
        });
        Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
    }

    fn rec(id: i64, loc: &str) -> Record {
        Record::new(vec![Value::Int(id), Value::Str(loc.into())])
    }

    #[test]
    fn batch_outcomes_align_with_staging_order() {
        let ds = dataset(StrategyKind::Validation);
        let out = ds
            .batch()
            .insert(&rec(1, "CA"))
            .insert(&rec(1, "NY")) // duplicate pk
            .upsert(&rec(2, "WA"))
            .delete(&Value::Int(2))
            .commit()
            .unwrap();
        assert_eq!(
            out,
            vec![
                BatchOpResult::Inserted,
                BatchOpResult::RejectedDuplicate,
                BatchOpResult::Upserted,
                BatchOpResult::Deleted(true),
            ]
        );
        let res = ds.query("location").eq("CA").execute().unwrap();
        assert_eq!(res.len(), 1);
        let res = ds.query("location").eq("WA").execute().unwrap();
        assert_eq!(res.len(), 0);
    }

    #[test]
    fn schema_failures_are_staged_per_op() {
        let ds = dataset(StrategyKind::Eager);
        let bad = Record::new(vec![Value::Str("not-an-int".into()), Value::Int(9)]);
        let out = ds
            .batch()
            .upsert(&rec(7, "OR"))
            .upsert(&bad)
            .commit()
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], BatchOpResult::Upserted);
        assert!(matches!(out[1], BatchOpResult::Failed(_)));
        // The good half of the batch still landed.
        assert_eq!(ds.query("location").eq("OR").execute().unwrap().len(), 1);
    }

    #[test]
    fn batch_observes_its_own_earlier_writes() {
        let ds = dataset(StrategyKind::Eager);
        let out = ds
            .batch()
            .upsert(&rec(3, "TX"))
            .delete(&Value::Int(3))
            .insert(&rec(3, "NM"))
            .commit()
            .unwrap();
        assert_eq!(
            out,
            vec![
                BatchOpResult::Upserted,
                BatchOpResult::Deleted(true),
                BatchOpResult::Inserted,
            ]
        );
        assert_eq!(ds.query("location").eq("TX").execute().unwrap().len(), 0);
        assert_eq!(ds.query("location").eq("NM").execute().unwrap().len(), 1);
    }

    #[test]
    fn empty_batch_commits_without_effect() {
        let ds = dataset(StrategyKind::Validation);
        let out = ds.batch().commit().unwrap();
        assert!(out.is_empty());
        assert_eq!(ds.stats().snapshot().upserts, 0);
    }

    #[test]
    fn batch_matches_single_op_results_across_strategies() {
        for strategy in [
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
            StrategyKind::DeletedKeyBTree,
        ] {
            let single = dataset(strategy);
            for i in 0..20 {
                single
                    .upsert(&rec(i, if i % 2 == 0 { "CA" } else { "NY" }))
                    .unwrap();
            }
            for i in 0..5 {
                single.delete(&Value::Int(i * 2)).unwrap();
            }

            let batched = dataset(strategy);
            let mut b = batched.batch();
            for i in 0..20 {
                b = b.upsert(&rec(i, if i % 2 == 0 { "CA" } else { "NY" }));
            }
            for i in 0..5 {
                b = b.delete(&Value::Int(i * 2));
            }
            b.commit().unwrap();

            for loc in ["CA", "NY"] {
                let a = single.query(loc_field()).eq(loc).execute().unwrap();
                let b = batched.query(loc_field()).eq(loc).execute().unwrap();
                assert_eq!(a.len(), b.len(), "{strategy:?} {loc}");
            }
        }
    }

    fn loc_field() -> &'static str {
        "location"
    }

    /// A batch whose log append fails at its `k`-th operation has logged
    /// and applied exactly the operations before it, and the dataset stays
    /// usable; a crash and recovery leave the same operations visible.
    #[test]
    fn failed_batch_leaves_memory_equal_to_the_log() {
        use crate::recovery::{recover, simulate_crash, CheckpointState};
        use lsm_storage::fault::{FaultAction, FaultPlan, FaultSpec, FaultTrigger};
        let visible = |ds: &Dataset| -> Vec<i64> {
            (0..5)
                .filter(|&id| ds.get(&Value::Int(id)).unwrap().is_some())
                .collect()
        };
        for strategy in [StrategyKind::Validation, StrategyKind::Eager] {
            for k in [0, 2] {
                let case = format!("{strategy:?}, fault at op {k}");
                let mut cfg = DatasetConfig::new(schema(), 0);
                cfg.strategy = strategy;
                let log = Storage::new(StorageOptions::test());
                let storage = Storage::new(StorageOptions::test());
                let ds = Dataset::open(storage, Some(log.clone()), cfg).unwrap();
                let plan = FaultPlan::new(vec![FaultSpec {
                    trigger: FaultTrigger::Site {
                        name: "wal_append".into(),
                        hit: k,
                    },
                    action: FaultAction::PermanentError,
                }]);
                log.install_fault_plan(plan.clone());
                plan.arm();
                let batch = (0..5).fold(ds.batch(), |b, id| b.upsert(&rec(id, "CA")));
                assert!(batch.commit().is_err(), "{case}");
                log.clear_fault_plan();
                assert!(!ds.is_poisoned(), "{case}");
                let logged: Vec<i64> = (0..k as i64).collect();
                assert_eq!(visible(&ds), logged, "{case}: before the crash");

                ds.wal().unwrap().force().unwrap();
                let state = CheckpointState::new();
                simulate_crash(&ds, &state).unwrap();
                recover(&ds, &state).unwrap();
                assert_eq!(visible(&ds), logged, "{case}: after recovery");
            }
        }
    }
}
