//! Query processing: secondary-index queries with index-to-index navigation
//! (Section 3.2) and query validation (Section 4.3).
//!
//! A secondary-index query proceeds as in Figure 5:
//!
//! 1. scan the secondary index for matching `(sk, pk)` entries;
//! 2. sort the primary keys (and deduplicate);
//! 3. under the Validation strategy, validate the candidates — either by
//!    fetching records and re-checking the predicate (**Direct**), or by
//!    probing the primary key index for a newer timestamp (**Timestamp**);
//! 4. fetch records from the primary index, using the batched point-lookup
//!    machinery with the stateful-cursor / blocked-Bloom / component-ID
//!    optimizations of Section 3.2.
//!
//! The entry point is the fluent [`QueryBuilder`] obtained from
//! [`Dataset::query`](crate::Dataset::query), which resolves a correct
//! [`ValidationMethod`] from the dataset's maintenance strategy and offers
//! a collecting ([`PreparedQuery::execute`]) and a streaming
//! ([`PreparedQuery::stream`]) form of the **one** read path: the pipeline
//! runs over `n` partitions of the key space, `n = 1` — a single partition
//! executed inline on the calling thread — unless
//! [`QueryBuilder::parallel`] asks for more (crate-private `exec` module).
//! Primary-index filter scans ([`Dataset::filter_scan`](crate::Dataset::filter_scan),
//! [`filter_scan`]) follow the same shape: one captured plan, `n`
//! partitions, one partition body.

pub mod builder;
mod exec;
pub mod filter_scan;
mod pool;
pub mod stream;

pub use builder::{PreparedQuery, QueryBuilder};
pub use filter_scan::{FilterScanBuilder, FilterScanReport, FilterScanStream};
pub use stream::RecordStream;

use lsm_common::{Record, Value};

/// How candidates from a possibly-stale secondary index are validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMethod {
    /// No validation: the secondary index is always accurate (Eager).
    #[default]
    None,
    /// Fetch candidate records and re-check the predicate (Figure 5a).
    Direct,
    /// Probe the primary key index for newer timestamps (Figure 5b).
    Timestamp,
}

/// Query options (Section 3.2 / 6.2 knobs).
///
/// This is the low-level knob struct; [`QueryBuilder`] resolves one from
/// the dataset's strategy plus any per-query overrides. Benchmarks that
/// sweep variants can still construct it directly and seed a builder via
/// [`QueryBuilder::with_options`].
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Return primary keys only (index-only query).
    pub index_only: bool,
    /// Candidate validation method.
    pub validation: ValidationMethod,
    /// Use the batched point-lookup algorithm.
    pub batched: bool,
    /// Batching memory (16MB in Section 6.2); determines keys per batch
    /// from the average record size.
    pub batch_bytes: usize,
    /// Use stateful B+-tree cursors with exponential search.
    pub stateful: bool,
    /// Propagate secondary-component IDs to prune primary components
    /// (Jia's "pID" optimization).
    pub propagate_component_ids: bool,
    /// Re-sort fetched records into primary-key order (batching destroys
    /// the order; Figure 12d measures this). Implied by
    /// [`QueryBuilder::parallel`].
    pub sort_output: bool,
    /// Query-driven maintenance (the paper's future-work direction inspired
    /// by database cracking, Section 7): when Timestamp validation proves a
    /// candidate obsolete, mark it in its source component's bitmap so
    /// later queries and merges skip it.
    pub query_driven_repair: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            index_only: false,
            validation: ValidationMethod::None,
            batched: true,
            batch_bytes: 16 * 1024 * 1024,
            stateful: true,
            propagate_component_ids: false,
            sort_output: false,
            query_driven_repair: false,
        }
    }
}

impl QueryOptions {
    /// The naive configuration of Section 6.2: sorted keys, per-key probing.
    pub fn naive() -> Self {
        QueryOptions {
            batched: false,
            stateful: false,
            ..Default::default()
        }
    }
}

/// Query output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Full records (non-index-only queries).
    Records(Vec<Record>),
    /// Primary keys (index-only queries).
    Keys(Vec<Value>),
}

impl QueryResult {
    /// Number of results.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Records(r) => r.len(),
            QueryResult::Keys(k) => k.len(),
        }
    }

    /// True if no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records, if this is a record result.
    pub fn records(&self) -> &[Record] {
        match self {
            QueryResult::Records(r) => r,
            QueryResult::Keys(_) => panic!("index-only result has no records"),
        }
    }

    /// The keys, if this is a key result.
    pub fn keys(&self) -> &[Value] {
        match self {
            QueryResult::Keys(k) => k,
            QueryResult::Records(_) => panic!("record result holds records, not keys"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, SecondaryIndexDef, StrategyKind};
    use crate::dataset::Dataset;
    use lsm_common::{FieldType, Schema};
    use lsm_storage::{Storage, StorageOptions};
    use std::sync::Arc;

    fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
        let schema =
            Schema::new(vec![("id", FieldType::Int), ("user_id", FieldType::Int)]).unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.strategy = strategy;
        cfg.merge_repair = false;
        cfg.memory_budget = usize::MAX;
        cfg.secondary_indexes = vec![SecondaryIndexDef {
            name: "user_id".into(),
            field: 1,
        }];
        Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
    }

    fn rec(id: i64, uid: i64) -> Record {
        Record::new(vec![Value::Int(id), Value::Int(uid)])
    }

    /// Ingest records with updates; query must see exactly the live state.
    /// `validation`: None = let the builder resolve it.
    fn check_query_correctness(strategy: StrategyKind, validation: Option<ValidationMethod>) {
        let ds = dataset(strategy);
        // uid = id % 10 initially.
        for i in 0..200 {
            ds.insert(&rec(i, i % 10)).unwrap();
        }
        ds.flush_all().unwrap();
        // Move ids 0..50 to uid 50 + id%5.
        for i in 0..50 {
            ds.upsert(&rec(i, 50 + i % 5)).unwrap();
        }
        ds.flush_all().unwrap();
        // Delete ids 100..120.
        for i in 100..120 {
            ds.delete(&Value::Int(i)).unwrap();
        }

        let query = |lo: i64, hi: i64| {
            let mut q = ds.query("user_id").range(lo, hi);
            if let Some(vm) = validation {
                q = q.validation(vm);
            }
            q.execute().unwrap()
        };
        // Query uid ∈ [0, 9]: ids 50..200 except deleted, with id%10.
        let res = query(0, 9);
        let mut got: Vec<i64> = res
            .records()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        let want: Vec<i64> = (50..200).filter(|i| !(100..120).contains(i)).collect();
        assert_eq!(got, want, "{strategy:?} validation={validation:?}");

        // Query uid ∈ [50, 54]: updated ids 0..50.
        let res = query(50, 54);
        let mut got: Vec<i64> = res
            .records()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..50).collect::<Vec<_>>(),
            "{strategy:?} validation={validation:?}"
        );
    }

    /// Regression: the Direct re-check over a stored record that decodes
    /// cleanly but is shorter than the schema (no `user_id` field) is a
    /// corruption error — it used to index out of bounds.
    #[test]
    fn direct_validation_over_a_short_record_is_an_error() {
        let ds = dataset(StrategyKind::Validation);
        for i in 0..20 {
            ds.insert(&rec(i, i % 10)).unwrap();
        }
        let ts = ds.clock().now();
        ds.primary().put(
            crate::keys::encode_pk(&Value::Int(7)),
            lsm_tree::LsmEntry::put_ts(Value::Int(7).encode(), ts),
            ts,
        );
        let direct = || {
            ds.query("user_id")
                .range(0, 9)
                .validation(ValidationMethod::Direct)
        };
        for result in [direct().execute(), direct().index_only().execute()] {
            assert!(
                matches!(result, Err(lsm_common::Error::Corruption(_))),
                "{result:?}"
            );
        }
    }

    /// The Direct re-check reads a stored record only up to the predicate's
    /// field, so what validates the rest must run whatever the verdict:
    /// bad UTF-8 in a later field fails the query both when the row would
    /// have been returned (its decode finds it) and when it would have been
    /// dropped (a stale index entry over a record now out of range) — a
    /// damaged row is never silently missing from a result.
    #[test]
    fn damage_after_the_predicate_field_fails_the_query_either_way() {
        for strategy in [StrategyKind::Validation, StrategyKind::MutableBitmap] {
            let schema = Schema::new(vec![
                ("id", FieldType::Int),
                ("user_id", FieldType::Int),
                ("message", FieldType::Str),
            ])
            .unwrap();
            let mut cfg = DatasetConfig::new(schema, 0);
            cfg.strategy = strategy;
            cfg.merge_repair = false;
            cfg.memory_budget = usize::MAX;
            cfg.secondary_indexes = vec![SecondaryIndexDef {
                name: "user_id".into(),
                field: 1,
            }];
            for (stored_uid, survives) in [(7, true), (50, false)] {
                let ds =
                    Dataset::open(Storage::new(StorageOptions::test()), None, cfg.clone()).unwrap();
                let tweet = |id: i64, uid: i64| {
                    Record::new(vec![
                        Value::Int(id),
                        Value::Int(uid),
                        Value::Str("hello".into()),
                    ])
                };
                for i in 0..20 {
                    ds.insert(&tweet(i, i % 10)).unwrap();
                }
                ds.flush_all().unwrap();
                let direct = || {
                    ds.query("user_id")
                        .range(0, 9)
                        .validation(ValidationMethod::Direct)
                };
                assert_eq!(direct().execute().unwrap().records().len(), 20);

                // Overwrite record 7 (indexed under user_id 7) in place with
                // a copy whose message is not UTF-8.
                let mut damaged = tweet(7, stored_uid).encode();
                let at = damaged.len() - 4; // inside "hello"
                damaged[at] = 0xFF;
                let ts = ds.clock().now();
                ds.primary().put(
                    crate::keys::encode_pk(&Value::Int(7)),
                    lsm_tree::LsmEntry::put_ts(damaged, ts),
                    ts,
                );
                let streamed = direct().stream().and_then(Iterator::collect);
                for result in [direct().execute(), streamed.map(QueryResult::Records)] {
                    assert!(
                        matches!(result, Err(lsm_common::Error::Corruption(_))),
                        "{strategy:?} survives={survives}: {result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn eager_queries_accurate() {
        check_query_correctness(StrategyKind::Eager, None);
    }

    #[test]
    fn validation_direct_queries_accurate() {
        check_query_correctness(StrategyKind::Validation, Some(ValidationMethod::Direct));
    }

    #[test]
    fn validation_timestamp_queries_accurate() {
        check_query_correctness(StrategyKind::Validation, Some(ValidationMethod::Timestamp));
    }

    #[test]
    fn mutable_bitmap_queries_accurate() {
        check_query_correctness(StrategyKind::MutableBitmap, None);
        check_query_correctness(StrategyKind::MutableBitmap, Some(ValidationMethod::Direct));
        check_query_correctness(
            StrategyKind::MutableBitmap,
            Some(ValidationMethod::Timestamp),
        );
    }

    #[test]
    fn strategy_resolved_defaults_are_accurate() {
        // The acceptance bar of the fluent API: no manually-set validation
        // anywhere, correct answers everywhere.
        for strategy in [
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
            StrategyKind::DeletedKeyBTree,
        ] {
            check_query_correctness(strategy, None);
        }
    }

    #[test]
    fn index_only_queries() {
        for strategy in [StrategyKind::Eager, StrategyKind::Validation] {
            let ds = dataset(strategy);
            for i in 0..100 {
                ds.insert(&rec(i, i % 10)).unwrap();
            }
            ds.flush_all().unwrap();
            for i in 0..20 {
                ds.upsert(&rec(i, 90)).unwrap(); // move out of [0,9]... uid 90
            }
            ds.flush_all().unwrap();
            let res = ds
                .query("user_id")
                .range(0, 9)
                .index_only()
                .execute()
                .unwrap();
            let mut got: Vec<i64> = res.keys().iter().map(|k| k.as_int().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, (20..100).collect::<Vec<_>>(), "{strategy:?}");
        }
    }

    #[test]
    fn all_lookup_modes_agree() {
        let ds = dataset(StrategyKind::Validation);
        for i in 0..300 {
            ds.insert(&rec(i, i % 7)).unwrap();
            if i % 3 == 0 {
                ds.flush_all().unwrap();
            }
        }
        let base = ds
            .query("user_id")
            .range(2, 3)
            .naive()
            .validation(ValidationMethod::Timestamp)
            .sort_output(true)
            .execute()
            .unwrap();
        for (batched, stateful, pid) in [
            (true, false, false),
            (true, true, false),
            (true, true, true),
        ] {
            let res = ds
                .query("user_id")
                .range(2, 3)
                .validation(ValidationMethod::Timestamp)
                .batched(batched)
                .stateful(stateful)
                .propagate_component_ids(pid)
                .sort_output(true)
                .execute()
                .unwrap();
            assert_eq!(res, base, "batched={batched} stateful={stateful} pid={pid}");
        }
    }

    #[test]
    fn sort_output_restores_pk_order() {
        let ds = dataset(StrategyKind::Eager);
        for i in 0..500 {
            ds.insert(&rec(i, i % 3)).unwrap();
            if i % 100 == 0 {
                ds.flush_all().unwrap();
            }
        }
        let res = ds
            .query("user_id")
            .eq(0)
            .sort_output(true)
            .execute()
            .unwrap();
        let ids: Vec<i64> = res
            .records()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), 167);
    }

    #[test]
    fn empty_range_returns_nothing() {
        let ds = dataset(StrategyKind::Eager);
        ds.insert(&rec(1, 5)).unwrap();
        let res = ds.query("user_id").range(100, 200).execute().unwrap();
        assert!(res.is_empty());
        assert!(ds.query("nope").execute().is_err());
        assert!(ds.query("nope").build().is_err());
    }

    #[test]
    fn limit_caps_results() {
        let ds = dataset(StrategyKind::Validation);
        for i in 0..100 {
            ds.insert(&rec(i, 1)).unwrap();
        }
        ds.flush_all().unwrap();
        let res = ds
            .query("user_id")
            .eq(1)
            .sort_output(true)
            .limit(7)
            .execute()
            .unwrap();
        assert_eq!(res.len(), 7);
        let keys = ds
            .query("user_id")
            .eq(1)
            .index_only()
            .limit(5)
            .execute()
            .unwrap();
        assert_eq!(keys.len(), 5);
    }

    #[test]
    fn with_options_preserves_every_knob() {
        let ds = dataset(StrategyKind::Validation);
        for i in 0..20 {
            ds.insert(&rec(i, 1)).unwrap();
        }
        ds.flush_all().unwrap();
        // index_only seeded through with_options must survive build()...
        let opts = QueryOptions {
            index_only: true,
            validation: ValidationMethod::Timestamp,
            ..Default::default()
        };
        let prepared = ds
            .query("user_id")
            .eq(1)
            .with_options(opts)
            .build()
            .unwrap();
        assert!(prepared.options().index_only);
        let res = prepared.execute().unwrap();
        assert_eq!(res.keys().len(), 20);
        // ...and the explicit setter still overrides the seeded value.
        let prepared = ds
            .query("user_id")
            .eq(1)
            .with_options(QueryOptions::default())
            .index_only()
            .build()
            .unwrap();
        assert!(prepared.options().index_only);
    }

    #[test]
    fn builder_resolves_strategy_defaults() {
        use StrategyKind::*;
        for (strategy, index_only, want) in [
            (Eager, false, ValidationMethod::None),
            (Eager, true, ValidationMethod::None),
            (Validation, false, ValidationMethod::Direct),
            (Validation, true, ValidationMethod::Timestamp),
            (MutableBitmap, false, ValidationMethod::Direct),
            (MutableBitmap, true, ValidationMethod::Timestamp),
            (DeletedKeyBTree, false, ValidationMethod::Direct),
            (DeletedKeyBTree, true, ValidationMethod::Direct),
        ] {
            let ds = dataset(strategy);
            let mut q = ds.query("user_id").eq(1);
            if index_only {
                q = q.index_only();
            }
            let prepared = q.build().unwrap();
            assert_eq!(
                prepared.options().validation,
                want,
                "{strategy:?} index_only={index_only}"
            );
        }
        // query_driven_repair forces Timestamp validation on every lazy
        // strategy (it needs timestamp proofs of obsolescence).
        for strategy in [Validation, MutableBitmap, DeletedKeyBTree] {
            let ds = dataset(strategy);
            let prepared = ds
                .query("user_id")
                .eq(1)
                .query_driven_repair(true)
                .build()
                .unwrap();
            assert_eq!(
                prepared.options().validation,
                ValidationMethod::Timestamp,
                "{strategy:?}"
            );
        }
        let ds = dataset(Validation);
        // An explicit override always wins.
        let prepared = ds
            .query("user_id")
            .eq(1)
            .validation(ValidationMethod::None)
            .build()
            .unwrap();
        assert_eq!(prepared.options().validation, ValidationMethod::None);
    }
}
