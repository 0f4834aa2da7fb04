//! The fluent query API: [`Dataset::query`] → [`QueryBuilder`] →
//! [`PreparedQuery`].
//!
//! The builder's job is to make queries **correct by construction** across
//! all four maintenance strategies: unless the caller overrides it, the
//! candidate-validation method (Section 4.3) is resolved from the dataset's
//! [`StrategyKind`] at [`QueryBuilder::build`] time:
//!
//! | strategy          | index-only  | record-fetching            |
//! |-------------------|-------------|----------------------------|
//! | `Eager`           | `None`      | `None`                     |
//! | `Validation`      | `Timestamp` | `Direct` (cheaper: records |
//! | `MutableBitmap`   | `Timestamp` | are fetched anyway, so the |
//! |                   |             | predicate re-check is free |
//! |                   |             | of extra pk-index probes)  |
//! | `DeletedKeyBTree` | `Direct`    | `Direct`                   |
//!
//! Eager indexes are always accurate, so no validation is needed. The lazy
//! strategies leave obsolete entries in secondary indexes, which queries
//! must filter: `Timestamp` validation probes the primary key index
//! (Figure 5b) and is the only option that avoids fetching records for an
//! index-only query; when records are fetched anyway, `Direct` validation
//! (Figure 5a) re-checks the predicate for free. Mutable-bitmap datasets
//! maintain their *secondary* indexes with the Validation strategy
//! (Section 5.2), so they resolve identically — only primary-index filter
//! scans get the strategy's no-validation benefit (Section 6.4.2). The
//! deleted-key B+-tree baseline validates directly, as AsterixDB's queries
//! did. Requesting query-driven repair forces `Timestamp`, the only method
//! that proves obsolescence.

use crate::dataset::Dataset;
use crate::query::stream::RecordStream;
use crate::query::{exec, QueryOptions, QueryResult, ValidationMethod};
use crate::StrategyKind;
use lsm_common::{Result, Value};

/// A fluent secondary-index query under construction; obtained from
/// [`Dataset::query`].
///
/// ```
/// use lsm_common::{FieldType, Record, Schema, Value};
/// use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
/// use lsm_storage::{Storage, StorageOptions};
///
/// let schema = Schema::new(vec![
///     ("id", FieldType::Int),
///     ("location", FieldType::Str),
/// ]).unwrap();
/// let mut cfg = DatasetConfig::new(schema, 0);
/// cfg.strategy = StrategyKind::Validation;
/// cfg.secondary_indexes.push(SecondaryIndexDef { name: "location".into(), field: 1 });
/// let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
/// ds.insert(&Record::new(vec![Value::Int(1), Value::Str("CA".into())])).unwrap();
///
/// // Validation-strategy dataset: the right validation method is implied.
/// let res = ds.query("location").eq("CA").execute().unwrap();
/// assert_eq!(res.len(), 1);
/// ```
#[derive(Debug, Clone)]
#[must_use = "a QueryBuilder does nothing until executed or streamed"]
pub struct QueryBuilder<'a> {
    ds: &'a Dataset,
    index: String,
    lo: Option<Value>,
    hi: Option<Value>,
    index_only: Option<bool>,
    limit: Option<usize>,
    parallel: Option<usize>,
    naive: bool,
    // §3.2 knob overrides; `None` = resolve a default.
    validation: Option<ValidationMethod>,
    batched: Option<bool>,
    batch_bytes: Option<usize>,
    stateful: Option<bool>,
    propagate_component_ids: Option<bool>,
    sort_output: Option<bool>,
    query_driven_repair: Option<bool>,
    base: Option<QueryOptions>,
}

impl Dataset {
    /// Starts a fluent query against the secondary index `index`.
    ///
    /// The returned builder resolves strategy-aware defaults at
    /// [`QueryBuilder::build`] time, so `ds.query("idx").eq(v).execute()`
    /// is correct for every [`StrategyKind`] without manually choosing a
    /// [`ValidationMethod`].
    pub fn query(&self, index: impl Into<String>) -> QueryBuilder<'_> {
        QueryBuilder {
            ds: self,
            index: index.into(),
            lo: None,
            hi: None,
            index_only: None,
            limit: None,
            parallel: None,
            naive: false,
            validation: None,
            batched: None,
            batch_bytes: None,
            stateful: None,
            propagate_component_ids: None,
            sort_output: None,
            query_driven_repair: None,
            base: None,
        }
    }
}

impl<'a> QueryBuilder<'a> {
    /// Restricts the query to `sk == value`.
    pub fn eq(mut self, value: impl Into<Value>) -> Self {
        let v = value.into();
        self.lo = Some(v.clone());
        self.hi = Some(v);
        self
    }

    /// Restricts the query to `sk ∈ [lo, hi]` (inclusive).
    pub fn range(mut self, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        self.lo = Some(lo.into());
        self.hi = Some(hi.into());
        self
    }

    /// Restricts the query to `sk >= lo`.
    pub fn range_from(mut self, lo: impl Into<Value>) -> Self {
        self.lo = Some(lo.into());
        self
    }

    /// Restricts the query to `sk <= hi`.
    pub fn range_to(mut self, hi: impl Into<Value>) -> Self {
        self.hi = Some(hi.into());
        self
    }

    /// Returns primary keys instead of records (index-only query).
    pub fn index_only(mut self) -> Self {
        self.index_only = Some(true);
        self
    }

    /// Caps the number of results. Limited record queries fetch records
    /// through the streaming path so the point-lookup I/O stops at `n`
    /// results; they are returned in primary-key order (the same order as
    /// [`QueryBuilder::sort_output`]).
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Uses the naive point-lookup configuration of Section 6.2 (sorted
    /// keys, per-key probing) instead of the batched/stateful default.
    pub fn naive(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Executes the query across up to `n` partitions in parallel: the
    /// secondary scan is split along component page boundaries and the
    /// record fetch into contiguous primary-key chunks. The calling thread
    /// runs the first partition and one scoped thread per other partition
    /// runs the rest; all of them are joined before the stage returns.
    ///
    /// Implies [`sort_output`](QueryBuilder::sort_output): results always
    /// arrive in primary-key order, both from [`PreparedQuery::execute`]
    /// and batch by batch from [`PreparedQuery::stream`], and are identical
    /// for every `n`. The default query is the same executor at `n = 1`
    /// (one partition, run inline on the calling thread), so `parallel(1)`
    /// differs from it only by the implied sort.
    pub fn parallel(mut self, n: usize) -> Self {
        self.parallel = Some(n.max(1));
        self
    }

    // ---- §3.2 knob overrides ----------------------------------------------

    /// Overrides the candidate-validation method; without this, a
    /// strategy-aware default is resolved (see the module docs).
    pub fn validation(mut self, method: ValidationMethod) -> Self {
        self.validation = Some(method);
        self
    }

    /// Toggles the batched point-lookup algorithm.
    pub fn batched(mut self, on: bool) -> Self {
        self.batched = Some(on);
        self
    }

    /// Sets the batching memory (16MB in Section 6.2); determines keys per
    /// batch from the average record size.
    pub fn batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_bytes = Some(bytes);
        self
    }

    /// Toggles stateful B+-tree cursors with exponential search.
    pub fn stateful(mut self, on: bool) -> Self {
        self.stateful = Some(on);
        self
    }

    /// Toggles secondary-component-ID propagation ("pID").
    pub fn propagate_component_ids(mut self, on: bool) -> Self {
        self.propagate_component_ids = Some(on);
        self
    }

    /// Re-sorts fetched records into primary-key order (batching destroys
    /// the order; Figure 12d measures this).
    pub fn sort_output(mut self, on: bool) -> Self {
        self.sort_output = Some(on);
        self
    }

    /// Lets Timestamp validation mark proven-obsolete entries in their
    /// source component's bitmap (Section 7 / database cracking). Forces
    /// Timestamp validation for the lazy strategies unless explicitly
    /// overridden; has no effect under Eager, whose indexes hold no
    /// obsolete entries to mark (and store no timestamps to prove it with).
    pub fn query_driven_repair(mut self, on: bool) -> Self {
        self.query_driven_repair = Some(on);
        self
    }

    /// Seeds every knob from a complete [`QueryOptions`] (benchmarks sweep
    /// these); individual setters called afterwards still override, but no
    /// strategy-aware defaults are resolved on top.
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.base = Some(opts);
        self
    }

    /// Resolves every knob into a [`PreparedQuery`], checking that the
    /// index exists.
    pub fn build(self) -> Result<PreparedQuery<'a>> {
        self.ds.secondary(&self.index)?; // fail fast on unknown indexes
        let explicit_base = self.base.is_some();
        let mut opts = self.base.unwrap_or_else(|| {
            if self.naive {
                QueryOptions::naive()
            } else {
                QueryOptions::default()
            }
        });
        if explicit_base && self.naive {
            opts.batched = false;
            opts.stateful = false;
        }
        if let Some(v) = self.index_only {
            opts.index_only = v;
        }
        if let Some(v) = self.batched {
            opts.batched = v;
        }
        if let Some(v) = self.batch_bytes {
            opts.batch_bytes = v;
        }
        if let Some(v) = self.stateful {
            opts.stateful = v;
        }
        if let Some(v) = self.propagate_component_ids {
            opts.propagate_component_ids = v;
        }
        if let Some(v) = self.sort_output {
            opts.sort_output = v;
        }
        // Partition outputs are concatenated, which only yields a defined
        // order when every chunk is sorted: `.parallel(n)` implies it.
        opts.sort_output |= self.parallel.is_some();
        if let Some(v) = self.query_driven_repair {
            opts.query_driven_repair = v;
        }
        opts.validation = match self.validation {
            Some(v) => v,
            None if explicit_base => opts.validation,
            None => resolve_validation(
                self.ds.config().strategy,
                opts.index_only,
                opts.query_driven_repair,
            ),
        };
        Ok(PreparedQuery {
            ds: self.ds,
            index: self.index,
            lo: self.lo,
            hi: self.hi,
            limit: self.limit,
            parallelism: self.parallel.unwrap_or(1),
            options: opts,
        })
    }

    /// Builds and runs the query, collecting all results.
    pub fn execute(self) -> Result<QueryResult> {
        self.build()?.execute()
    }

    /// Builds the query and returns a batch-at-a-time [`RecordStream`].
    pub fn stream(self) -> Result<RecordStream<'a>> {
        self.build()?.stream()
    }
}

/// The strategy-aware validation default (see the module docs for the
/// rationale).
fn resolve_validation(
    strategy: StrategyKind,
    index_only: bool,
    query_driven_repair: bool,
) -> ValidationMethod {
    match strategy {
        StrategyKind::Eager => ValidationMethod::None,
        StrategyKind::Validation | StrategyKind::MutableBitmap => {
            if index_only || query_driven_repair {
                ValidationMethod::Timestamp
            } else {
                ValidationMethod::Direct
            }
        }
        // The baseline validates directly (AsterixDB's queries did), but
        // query-driven repair needs timestamp proofs like everyone else.
        StrategyKind::DeletedKeyBTree => {
            if query_driven_repair {
                ValidationMethod::Timestamp
            } else {
                ValidationMethod::Direct
            }
        }
    }
}

/// A fully resolved query: every knob decided, index verified.
#[derive(Debug, Clone)]
#[must_use = "a PreparedQuery does nothing until executed or streamed"]
pub struct PreparedQuery<'a> {
    ds: &'a Dataset,
    index: String,
    lo: Option<Value>,
    hi: Option<Value>,
    limit: Option<usize>,
    parallelism: usize,
    options: QueryOptions,
}

impl<'a> PreparedQuery<'a> {
    /// The resolved low-level options (inspectable in tests and benches).
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// The resolved result cap, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Runs the query, collecting all results into a [`QueryResult`].
    /// Record order follows the fetch unless `sort_output` is set (which
    /// [`QueryBuilder::parallel`] implies); then it is primary-key order.
    pub fn execute(&self) -> Result<QueryResult> {
        exec::execute(
            self.ds,
            &self.index,
            self.lo.as_ref(),
            self.hi.as_ref(),
            &self.options,
            self.limit,
            self.parallelism,
        )
    }

    /// Runs the query as a stream that fetches records one batch at a time
    /// (bounded memory, primary-key order; see [`RecordStream`]). The
    /// candidate gathering (scan + validation) fans across the resolved
    /// partitions up front; the fetch is lazy.
    pub fn stream(&self) -> Result<RecordStream<'a>> {
        RecordStream::open(
            self.ds,
            &self.index,
            self.lo.as_ref(),
            self.hi.as_ref(),
            &self.options,
            self.limit,
            self.parallelism,
        )
    }
}
