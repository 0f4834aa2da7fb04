//! Dataset configuration.
//!
//! A dataset (Section 3, Figure 1) has a primary index, an optional primary
//! key index, and a set of secondary indexes, all LSM-trees sharing one
//! memory budget so they flush together. The maintenance strategy decides
//! how auxiliary structures are kept consistent under deletes and upserts.

use lsm_common::{Error, Result, Schema};
use lsm_tree::TieringPolicy;

/// How auxiliary structures (secondary indexes, filters) are maintained
/// during ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Point lookup before every write; anti-matter for old versions; always
    /// up-to-date indexes (Section 3.1 — AsterixDB/MyRocks/Phoenix default).
    Eager,
    /// Lazy: inserts only, obsolete entries cleaned by background repair;
    /// queries validate via the primary key index (Section 4).
    Validation,
    /// Deletes applied in place to disk components through mutable bitmaps,
    /// located via the primary key index (Section 5). Secondary indexes are
    /// maintained with the Validation strategy. Merges are correlated and
    /// coordinate with concurrent writers by the Side-file method
    /// (Section 5.3), the cheaper of the paper's two (Figure 23).
    MutableBitmap,
    /// AsterixDB's deleted-key B+-tree baseline: lazy inserts like
    /// Validation, but merge-time cleanup validates against the full primary
    /// key index (no repaired-timestamp pruning) and writes a per-component
    /// deleted-key B+-tree for each secondary index (Section 4.1).
    DeletedKeyBTree,
}

impl StrategyKind {
    /// True if index entries carry ingestion timestamps.
    pub(crate) fn stores_timestamps(self) -> bool {
        !matches!(self, StrategyKind::Eager)
    }
}

/// Configuration of an engine-wide
/// [`MaintenanceRuntime`](crate::MaintenanceRuntime): one fixed-size pool
/// of worker threads serving every registered dataset, instead of one pool
/// per dataset.
///
/// ```
/// use lsm_engine::EngineConfig;
/// let cfg = EngineConfig::builder().workers(4).build().unwrap();
/// assert_eq!(cfg.workers, EngineConfig::fixed(4).workers);
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads, spawned at startup and running until the runtime
    /// shuts down; also the cap on concurrently executing jobs.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::fixed(1)
    }
}

impl EngineConfig {
    /// Starts building a runtime configuration from the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
            cap: None,
        }
    }

    /// A pool of `workers` threads.
    pub fn fixed(workers: usize) -> Self {
        EngineConfig { workers }
    }

    /// Validates internal consistency.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(Error::invalid("runtime requires at least one worker"));
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`]; obtained from [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
    /// A thread cap the caller asked for, checked against the pool size at
    /// build.
    cap: Option<usize>,
}

impl EngineConfigBuilder {
    /// Sets the pool size.
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Sets the pool size; [`build`](Self::build) refuses a
    /// [`max_workers`](Self::max_workers) that differs. Kept only because
    /// the repository benchmark names it; goes with that benchmark's next
    /// change.
    pub fn min_workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Must equal [`min_workers`](Self::min_workers): the pool does not
    /// grow. Kept only because the repository benchmark names it; goes with
    /// that benchmark's next change.
    pub fn max_workers(mut self, n: usize) -> Self {
        self.cap = Some(n);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig> {
        if self.cap.is_some_and(|cap| cap != self.cfg.workers) {
            return Err(Error::invalid(
                "min_workers and max_workers must agree: the pool has a fixed size",
            ));
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Definition of one secondary index.
#[derive(Debug, Clone)]
pub struct SecondaryIndexDef {
    /// Index name (unique within the dataset).
    pub name: String,
    /// The schema field this index is built on.
    pub field: usize,
}

/// Merge configuration.
#[derive(Debug, Clone)]
pub struct MergeConfig {
    /// Tiering size ratio (1.2 in Section 6.1).
    pub size_ratio: f64,
    /// Maximum mergeable component size (1GB in the paper, scaled here).
    pub max_mergeable_bytes: u64,
    /// Merge all of the dataset's indexes in lockstep (the correlated merge
    /// policy of Sections 4.4/5.1). Forced on for Mutable-bitmap datasets.
    pub correlated: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            size_ratio: 1.2,
            max_mergeable_bytes: 64 * 1024 * 1024,
            correlated: false,
        }
    }
}

impl MergeConfig {
    pub(crate) fn policy(&self) -> TieringPolicy {
        TieringPolicy {
            size_ratio: self.size_ratio,
            max_mergeable_bytes: self.max_mergeable_bytes,
        }
    }
}

/// Full dataset configuration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Record schema.
    pub schema: Schema,
    /// Which field is the primary key.
    pub pk_field: usize,
    /// Secondary indexes.
    pub secondary_indexes: Vec<SecondaryIndexDef>,
    /// Field carrying the component range filters on the primary index
    /// (the paper's `creation_time`), if any.
    pub filter_field: Option<usize>,
    /// Maintenance strategy.
    pub strategy: StrategyKind,
    /// Build a primary key index (Section 3; the paper evaluates inserts
    /// with and without it). Forced on for Validation/Mutable-bitmap.
    pub with_pk_index: bool,
    /// Shared memory-component budget in bytes (128MB in Section 6.1,
    /// scaled here). When the combined memory components exceed it, all
    /// indexes flush together.
    pub memory_budget: usize,
    /// Merge configuration.
    pub merge: MergeConfig,
    /// Bloom filter variant for primary / primary-key components:
    /// [`BloomKind::default`](lsm_bloom::BloomKind::default), the blocked
    /// filter, whose probe touches one cache line for one extra bit per
    /// key. The classic filter is the Figure 12 baseline and is built only
    /// where it is named.
    pub bloom_kind: lsm_bloom::BloomKind,
    /// Bloom filter false-positive rate (1% in Section 6.1).
    pub bloom_fpr: f64,
    /// Repair secondary indexes during merges (Validation strategy).
    pub merge_repair: bool,
    /// Use Bloom filters of the primary key index to skip validation during
    /// repair (Section 4.4). Sound only under correlated merges: set
    /// `merge.correlated` too, except on a Mutable-bitmap dataset, whose
    /// merges are always correlated.
    pub repair_bloom_opt: bool,
    /// Hard memory ceiling for backpressure on a dataset opened with
    /// [`Dataset::open_with_runtime`](crate::Dataset::open_with_runtime):
    /// writers stall once active + flushing memory exceeds this. `None`
    /// defaults to twice the memory budget. Ignored under inline
    /// maintenance (the writer flushes before it can overshoot).
    pub memory_ceiling: Option<usize>,
    /// Active memory components per index; `1` is the only legal value
    /// (opening a dataset with any other fails). The field stays
    /// only because the repository benchmark names it, and goes with that
    /// benchmark's next change.
    pub memtable_shards: usize,
}

impl DatasetConfig {
    /// A reasonable default configuration over `schema`.
    pub fn new(schema: Schema, pk_field: usize) -> Self {
        DatasetConfig {
            schema,
            pk_field,
            secondary_indexes: Vec::new(),
            filter_field: None,
            strategy: StrategyKind::Eager,
            with_pk_index: true,
            memory_budget: 4 * 1024 * 1024,
            merge: MergeConfig::default(),
            bloom_kind: lsm_bloom::BloomKind::default(),
            bloom_fpr: 0.01,
            merge_repair: true,
            repair_bloom_opt: false,
            memory_ceiling: None,
            memtable_shards: 1,
        }
    }

    /// The effective backpressure ceiling (background maintenance): configured
    /// value, or twice the memory budget.
    pub(crate) fn effective_memory_ceiling(&self) -> usize {
        self.memory_ceiling
            .unwrap_or_else(|| self.memory_budget.saturating_mul(2))
    }

    /// Validates internal consistency.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.pk_field >= self.schema.arity() {
            return Err(Error::invalid("pk_field out of range"));
        }
        if let Some(f) = self.filter_field {
            if f >= self.schema.arity() {
                return Err(Error::invalid("filter_field out of range"));
            }
        }
        let mut names = std::collections::HashSet::new();
        for def in &self.secondary_indexes {
            if def.field >= self.schema.arity() {
                return Err(Error::invalid(format!(
                    "secondary index {:?} field out of range",
                    def.name
                )));
            }
            if def.field == self.pk_field {
                return Err(Error::invalid("secondary index on the primary key"));
            }
            if !names.insert(def.name.clone()) {
                return Err(Error::invalid(format!(
                    "duplicate secondary index name {:?}",
                    def.name
                )));
            }
        }
        if matches!(
            self.strategy,
            StrategyKind::Validation | StrategyKind::MutableBitmap | StrategyKind::DeletedKeyBTree
        ) && !self.with_pk_index
        {
            return Err(Error::invalid(
                "this maintenance strategy requires the primary key index",
            ));
        }
        if self.repair_bloom_opt && !self.requires_correlated_merges() {
            return Err(Error::invalid(
                "the repair Bloom-filter optimization requires correlated merges",
            ));
        }
        if let Some(ceiling) = self.memory_ceiling {
            if ceiling < self.memory_budget {
                return Err(Error::invalid(
                    "memory_ceiling must be at least the memory budget",
                ));
            }
        }
        if self.memtable_shards != 1 {
            return Err(Error::invalid(
                "memtable_shards must be 1: each index has one memory component",
            ));
        }
        Ok(())
    }

    /// True if the dataset's merges are correlated: configured so, or forced
    /// for Mutable-bitmap, which pairs primary and primary-key components.
    pub(crate) fn requires_correlated_merges(&self) -> bool {
        matches!(self.strategy, StrategyKind::MutableBitmap) || self.merge.correlated
    }

    /// True if the pk index keeps anti-matter through every merge, the
    /// oldest component's included: every strategy but Eager validates
    /// secondary entries against the pk index (Timestamp validation,
    /// repair), where a deleted key's anti-matter is the only proof that
    /// its stale secondary entries are obsolete. A correlated merge keeps
    /// it in the primary too, so paired components stay entry-for-entry
    /// alike.
    pub(crate) fn keeps_anti_matter(&self) -> bool {
        self.strategy != StrategyKind::Eager
    }

    /// The repair mode implied by the maintenance strategy: the deleted-key
    /// B+-tree baseline validates against the full primary key index and
    /// writes its extra trees (Section 4.1); everything else validates with
    /// repaired-timestamp pruning, honouring `repair_bloom_opt`. Shared by
    /// merge-time repair and the [`Maintenance`](crate::Maintenance) facade.
    pub(crate) fn default_repair_mode(&self) -> crate::repair::RepairMode {
        match self.strategy {
            StrategyKind::DeletedKeyBTree => crate::repair::RepairMode::DeletedKeyBTree,
            _ => crate::repair::RepairMode::PrimaryKeyIndex {
                bloom_opt: self.repair_bloom_opt,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_common::FieldType;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", FieldType::Int),
            ("user_id", FieldType::Int),
            ("time", FieldType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn valid_config_passes() {
        let mut c = DatasetConfig::new(schema(), 0);
        c.secondary_indexes.push(SecondaryIndexDef {
            name: "user_id".into(),
            field: 1,
        });
        c.filter_field = Some(2);
        c.validate().unwrap();
    }

    #[test]
    fn rejects_bad_fields() {
        let mut c = DatasetConfig::new(schema(), 5);
        assert!(c.validate().is_err());
        c.pk_field = 0;
        c.filter_field = Some(9);
        assert!(c.validate().is_err());
        c.filter_field = None;
        c.secondary_indexes.push(SecondaryIndexDef {
            name: "pk".into(),
            field: 0,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_duplicate_index_names() {
        let mut c = DatasetConfig::new(schema(), 0);
        for _ in 0..2 {
            c.secondary_indexes.push(SecondaryIndexDef {
                name: "x".into(),
                field: 1,
            });
        }
        assert!(c.validate().is_err());
    }

    #[test]
    fn lazy_strategies_require_pk_index() {
        let mut c = DatasetConfig::new(schema(), 0);
        c.strategy = StrategyKind::Validation;
        c.with_pk_index = false;
        assert!(c.validate().is_err());
        c.with_pk_index = true;
        c.validate().unwrap();
    }

    #[test]
    fn bloom_opt_requires_correlated() {
        let mut c = DatasetConfig::new(schema(), 0);
        c.repair_bloom_opt = true;
        assert!(c.validate().is_err());
        c.merge.correlated = true;
        c.validate().unwrap();
        // Mutable-bitmap merges are correlated whatever the merge config
        // says, so the optimization needs no flag there.
        c.merge.correlated = false;
        c.strategy = StrategyKind::MutableBitmap;
        c.validate().unwrap();
        c.strategy = StrategyKind::Validation;
        assert!(c.validate().is_err());
    }

    #[test]
    fn memtable_shards_must_be_one() {
        let mut c = DatasetConfig::new(schema(), 0);
        assert_eq!(c.memtable_shards, 1, "default is the one legal value");
        c.validate().unwrap();
        for shards in [0, 2, 8] {
            c.memtable_shards = shards;
            assert!(c.validate().is_err(), "{shards} refused");
        }
    }

    #[test]
    fn memory_ceiling_must_cover_budget() {
        let mut c = DatasetConfig::new(schema(), 0);
        c.memory_budget = 1024;
        c.memory_ceiling = Some(512);
        assert!(c.validate().is_err());
        c.memory_ceiling = Some(1024);
        c.validate().unwrap();
        c.memory_ceiling = None;
        assert_eq!(c.effective_memory_ceiling(), 2048);
    }

    #[test]
    fn engine_config_is_one_fixed_pool() {
        assert_eq!(EngineConfig::default().workers, 1);
        assert_eq!(EngineConfig::builder().build().unwrap().workers, 1);
        assert_eq!(EngineConfig::fixed(3).workers, 3);
        assert_eq!(
            EngineConfig::builder().workers(2).build().unwrap().workers,
            2
        );
        assert!(EngineConfig::fixed(0).validate().is_err());
        assert!(EngineConfig::builder().workers(0).build().is_err());
        // The two setters the benchmark names build only when they agree.
        let agreed = EngineConfig::builder().min_workers(2).max_workers(2);
        assert_eq!(agreed.build().unwrap().workers, 2);
        assert!(EngineConfig::builder().min_workers(0).build().is_err());
        assert!(EngineConfig::builder()
            .min_workers(1)
            .max_workers(4)
            .build()
            .is_err());
        assert!(EngineConfig::builder().max_workers(4).build().is_err());
    }

    #[test]
    fn strategy_timestamps() {
        assert!(!StrategyKind::Eager.stores_timestamps());
        assert!(StrategyKind::Validation.stores_timestamps());
        assert!(StrategyKind::MutableBitmap.stores_timestamps());
        assert!(StrategyKind::DeletedKeyBTree.stores_timestamps());
    }
}
