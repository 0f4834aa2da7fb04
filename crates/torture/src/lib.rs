//! Deterministic fault-injection torture harness for the LSM engine.
//!
//! Each [`TortureCase`] drives one dataset through four phases:
//!
//! 1. **Ingest** — a seeded tweet upsert/delete stream (reusing
//!    `lsm-workload`) with the case's maintenance mode active and periodic
//!    parallel secondary-index queries in flight, while an oracle map of
//!    the expected live records is maintained alongside.
//! 2. **Stabilize** — quiesce maintenance, force the WAL and take a base
//!    checkpoint, so everything ingested so far is durably *committed*.
//! 3. **Trigger** — arm the case's [`FaultPlan`] and run a single-threaded
//!    recipe that drives the engine into the scripted fault: a crash at a
//!    named crash site, a torn or short WAL write, or a transient I/O
//!    error. Arming only around this phase keeps the fault schedule
//!    byte-identical across runs regardless of background thread timing.
//! 4. **Verify** — for crash-like faults, run crash simulation and
//!    [`recovery::recover`] (twice — recovery must be idempotent) and check
//!    the recovered state against the oracle: every committed record is
//!    present and intact, uncommitted writes are rolled back (or form a
//!    prefix of the torn WAL tail), the logical clock has not moved
//!    backwards past committed data, secondary queries agree with the
//!    oracle, and the dataset accepts new writes. For transient faults,
//!    check the first attempt fails, the retry succeeds, and nothing is
//!    poisoned.
//!
//! Every failed invariant is reported as a [`TortureFailure`] carrying a
//! one-line `torture` command that reproduces the exact case.

#![warn(missing_docs)]

use lsm_common::{Record, Result as LsmResult, Value};
use lsm_engine::recovery::{self, CheckpointState};
use lsm_engine::{
    Dataset, DatasetConfig, EngineConfig, MaintenanceRuntime, MergePlan, MergeTarget,
    SecondaryIndexDef, StrategyKind,
};
use lsm_storage::{
    FaultAction, FaultOp, FaultPlan, FaultSpec, FaultTrigger, Storage, StorageOptions,
};
use lsm_tree::MergeRange;
use lsm_workload::{
    Op, SelectivityQueries, TweetConfig, TweetGenerator, UpdateDistribution, UpsertWorkload,
    USER_ID_DOMAIN,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Simulated device profile a case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// 128KB pages, expensive seeks.
    Hdd,
    /// 32KB pages, cheap seeks.
    Ssd,
}

impl DeviceKind {
    /// All devices, in sweep order.
    const ALL: [DeviceKind; 2] = [DeviceKind::Hdd, DeviceKind::Ssd];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Hdd => "hdd",
            DeviceKind::Ssd => "ssd",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|d| d.name() == s)
    }

    /// Storage options for this device with a deliberately small cache, so
    /// queries and recovery actually touch the simulated platter.
    pub fn options(self) -> StorageOptions {
        match self {
            DeviceKind::Hdd => StorageOptions::hdd(1024 * 1024),
            DeviceKind::Ssd => StorageOptions::ssd(1024 * 1024),
        }
    }
}

/// The scripted fault a case injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash at the `wal_append` site: the op fails before it is logged.
    CrashWalAppend,
    /// Crash at the `wal_group_write` site: the group-commit leader dies
    /// after a whole group of records was staged but before its single
    /// page append reached the device. Every member of the group must be
    /// absent after recovery (the committed prefix before the group
    /// survives untouched) — a group reaches the device in one append or
    /// not at all.
    CrashGroupCommit,
    /// Crash at the `flush_install` site: the primary's flushed component
    /// is installed, the primary key index's is not.
    CrashFlushInstall,
    /// Crash at the `merge_install` site: the primary's merged component is
    /// installed, the primary key index still holds the merge inputs.
    CrashMergeInstall,
    /// Crash at the `checkpoint` site: the checkpoint record is logged but
    /// no snapshot is taken; the previous checkpoint must stay usable.
    CrashCheckpoint,
    /// The WAL force's page is torn: a prefix survives, the rest reads
    /// back as zeroes.
    TornWalWrite,
    /// The WAL force's page lands truncated.
    ShortWalWrite,
    /// The first device write of a flush fails transiently; the flush must
    /// be retryable and must not poison the dataset.
    TransientFlush,
    /// The first device read of a query fails transiently; the retried
    /// query must succeed and agree with the oracle.
    TransientRead,
}

impl FaultKind {
    /// All fault kinds, in sweep order.
    const ALL: [FaultKind; 9] = [
        FaultKind::CrashWalAppend,
        FaultKind::CrashGroupCommit,
        FaultKind::CrashFlushInstall,
        FaultKind::CrashMergeInstall,
        FaultKind::CrashCheckpoint,
        FaultKind::TornWalWrite,
        FaultKind::ShortWalWrite,
        FaultKind::TransientFlush,
        FaultKind::TransientRead,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CrashWalAppend => "crash-wal-append",
            FaultKind::CrashGroupCommit => "crash-group-commit",
            FaultKind::CrashFlushInstall => "crash-flush-install",
            FaultKind::CrashMergeInstall => "crash-merge-install",
            FaultKind::CrashCheckpoint => "crash-checkpoint",
            FaultKind::TornWalWrite => "torn-wal-write",
            FaultKind::ShortWalWrite => "short-wal-write",
            FaultKind::TransientFlush => "transient-flush",
            FaultKind::TransientRead => "transient-read",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// CLI name of a maintenance strategy.
pub fn strategy_name(s: StrategyKind) -> &'static str {
    match s {
        StrategyKind::Eager => "eager",
        StrategyKind::Validation => "validation",
        StrategyKind::MutableBitmap => "mutable-bitmap",
        StrategyKind::DeletedKeyBTree => "deleted-key-btree",
    }
}

/// Parses a strategy CLI name.
pub fn parse_strategy(s: &str) -> Option<StrategyKind> {
    STRATEGIES.into_iter().find(|k| strategy_name(*k) == s)
}

/// All maintenance strategies, in sweep order.
const STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Eager,
    StrategyKind::Validation,
    StrategyKind::MutableBitmap,
    StrategyKind::DeletedKeyBTree,
];

/// One fully-specified torture run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TortureCase {
    /// Maintenance strategy under test.
    pub strategy: StrategyKind,
    /// Run flushes/merges on background workers during ingest.
    pub background: bool,
    /// Simulated device profile.
    pub device: DeviceKind,
    /// The scripted fault.
    pub fault: FaultKind,
    /// Workload seed; the whole case is deterministic given the seed.
    pub seed: u64,
    /// Ingest-phase operations.
    pub records: usize,
}

impl TortureCase {
    /// The one-line `torture` invocation that replays exactly this case.
    pub fn repro(&self) -> String {
        format!(
            "torture --seed {} --records {} --strategy {} --maintenance {} --device {} \
             --fault {}",
            self.seed,
            self.records,
            strategy_name(self.strategy),
            if self.background {
                "background"
            } else {
                "inline"
            },
            self.device.name(),
            self.fault.name(),
        )
    }
}

/// What a passed case did, for reporting and determinism comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReport {
    /// The fault plan's event log — the byte-comparable fault schedule.
    pub events: Vec<String>,
    /// Faults the plan injected (always at least 1 for a passed case).
    pub faults_injected: u64,
    /// Log records replayed by the first recovery (0 for transient kinds).
    pub replayed: u64,
    /// Live records in the oracle at the end of the case.
    pub live_records: usize,
}

/// A failed invariant, with a one-line reproduction command.
#[derive(Debug, Clone)]
pub struct TortureFailure {
    /// `torture ...` command that replays the failing case.
    pub repro: String,
    /// Which invariant failed and how.
    pub message: String,
}

impl fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [repro: {}]", self.message, self.repro)
    }
}

impl std::error::Error for TortureFailure {}

/// Builds the [`FaultPlan`] a fault kind scripts. Exposed so recovery tests
/// can be re-expressed as torture plans against their own datasets.
fn build_plan(fault: FaultKind) -> Arc<FaultPlan> {
    let site = |name: &str| FaultTrigger::Site {
        name: name.to_string(),
        hit: 0,
    };
    let op0 = |op: FaultOp| FaultTrigger::OpIndex { op, index: 0 };
    let spec = match fault {
        FaultKind::CrashWalAppend => FaultSpec {
            trigger: site("wal_append"),
            action: FaultAction::Crash,
        },
        FaultKind::CrashGroupCommit => FaultSpec {
            trigger: site("wal_group_write"),
            action: FaultAction::Crash,
        },
        FaultKind::CrashFlushInstall => FaultSpec {
            trigger: site("flush_install"),
            action: FaultAction::Crash,
        },
        FaultKind::CrashMergeInstall => FaultSpec {
            trigger: site("merge_install"),
            action: FaultAction::Crash,
        },
        FaultKind::CrashCheckpoint => FaultSpec {
            trigger: site("checkpoint"),
            action: FaultAction::Crash,
        },
        FaultKind::TornWalWrite => FaultSpec {
            trigger: op0(FaultOp::Append),
            action: FaultAction::TornWrite { keep_bytes: 200 },
        },
        FaultKind::ShortWalWrite => FaultSpec {
            trigger: op0(FaultOp::Append),
            action: FaultAction::ShortWrite { keep_bytes: 10 },
        },
        FaultKind::TransientFlush => FaultSpec {
            trigger: op0(FaultOp::Append),
            action: FaultAction::TransientError,
        },
        FaultKind::TransientRead => FaultSpec {
            trigger: op0(FaultOp::Read),
            action: FaultAction::TransientError,
        },
    };
    FaultPlan::new(vec![spec])
}

/// Runs one case end to end. `Ok` means every invariant held.
pub fn run_case(case: &TortureCase) -> Result<CaseReport, TortureFailure> {
    Harness::new(case)?.run()
}

/// How the trigger phase's non-committed writes must look after recovery.
enum PendingRule {
    /// None of them survived (the fault preceded their durability).
    Absent,
    /// A torn WAL tail: some ordered prefix of them survived, whole-record.
    Prefix,
}

struct Trigger {
    pending: Vec<Record>,
    rule: PendingRule,
}

struct Harness<'a> {
    case: &'a TortureCase,
    ds: Arc<Dataset>,
    plan: Arc<FaultPlan>,
    state: CheckpointState,
    committed: BTreeMap<i64, Record>,
    pks: Vec<i64>,
    /// Logical-clock floor the recovered clock must not drop below
    /// (captured after the last committed write before the fault).
    clock_floor: u64,
    /// Primary keys handed out to trigger-phase records so far.
    extras: i64,
}

fn pk_of(rec: &Record) -> i64 {
    match rec.get(0) {
        Value::Int(i) => *i,
        other => panic!("tweet pk is Int, got {other:?}"),
    }
}

impl<'a> Harness<'a> {
    fn new(case: &'a TortureCase) -> Result<Self, TortureFailure> {
        let plan = build_plan(case.fault);
        let data = Storage::new(case.device.options());
        let wal = Storage::new(case.device.options());
        data.install_fault_plan(plan.clone());
        wal.install_fault_plan(plan.clone());

        let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
        cfg.strategy = case.strategy;
        cfg.secondary_indexes = vec![SecondaryIndexDef {
            name: "user_id".into(),
            field: 1,
        }];
        cfg.filter_field = Some(3);
        cfg.memory_budget = 96 * 1024;
        let ds = if case.background {
            MaintenanceRuntime::start(EngineConfig::fixed(2))
                .and_then(|rt| Dataset::open_with_runtime(data, Some(wal), cfg, &rt))
        } else {
            Dataset::open(data, Some(wal), cfg)
        };
        let ds = ds.map_err(|e| TortureFailure {
            repro: case.repro(),
            message: format!("dataset open failed: {e}"),
        })?;
        Ok(Harness {
            case,
            ds,
            plan,
            state: CheckpointState::new(),
            committed: BTreeMap::new(),
            pks: Vec::new(),
            clock_floor: 0,
            extras: 0,
        })
    }

    fn fail(&self, message: impl Into<String>) -> TortureFailure {
        TortureFailure {
            repro: self.case.repro(),
            message: message.into(),
        }
    }

    fn chk<T>(&self, r: LsmResult<T>, what: &str) -> Result<T, TortureFailure> {
        r.map_err(|e| self.fail(format!("{what}: {e}")))
    }

    fn run(mut self) -> Result<CaseReport, TortureFailure> {
        self.ingest()?;
        self.stabilize()?;
        let trigger = self.trigger()?;
        if self.plan.faults_injected() == 0 {
            return Err(self.fail("scripted fault never fired"));
        }
        let replayed = match trigger {
            Some(t) => self.verify_crash(t)?,
            None => {
                self.verify_oracle(0, "post-transient")?;
                self.verify_accepts_writes()?;
                0
            }
        };
        Ok(CaseReport {
            events: self.plan.events(),
            faults_injected: self.plan.faults_injected(),
            replayed,
            live_records: self.committed.len(),
        })
    }

    // ---- phase 1: ingest ------------------------------------------------

    fn ingest(&mut self) -> Result<(), TortureFailure> {
        let mut wl = UpsertWorkload::new(
            TweetConfig {
                msg_min: 60,
                msg_max: 120,
                seed: self.case.seed,
            },
            0.25,
            UpdateDistribution::Uniform,
        );
        let mut queries = SelectivityQueries::new(self.case.seed);
        for i in 0..self.case.records {
            let op = wl.next_op();
            let rec = op.record().clone();
            let pk = pk_of(&rec);
            match op {
                Op::Insert(r) => {
                    if self.chk(self.ds.insert(&r), "ingest insert")? {
                        self.committed.insert(pk, rec);
                        self.pks.push(pk);
                    }
                }
                Op::Upsert(r) => {
                    self.chk(self.ds.upsert(&r), "ingest upsert")?;
                    if self.committed.insert(pk, rec).is_none() {
                        self.pks.push(pk);
                    }
                }
            }
            // Sprinkle deletes so recovery replays anti-matter too.
            if i % 13 == 7 && !self.pks.is_empty() {
                let victim = self.pks[(i * 7919) % self.pks.len()];
                self.chk(self.ds.delete(&Value::Int(victim)), "ingest delete")?;
                self.committed.remove(&victim);
            }
            // Keep parallel queries in flight while maintenance churns.
            if i % 256 == 255 {
                let (lo, hi) = queries.user_id_range(0.1);
                self.chk(
                    self.ds
                        .query("user_id")
                        .range(Value::Int(lo), Value::Int(hi))
                        .parallel(2)
                        .execute(),
                    "ingest query",
                )?;
            }
        }
        Ok(())
    }

    // ---- phase 2: stabilize ---------------------------------------------

    fn stabilize(&mut self) -> Result<(), TortureFailure> {
        self.chk(self.ds.maintenance().quiesce(), "quiesce")?;
        let wal = self.ds.wal().expect("torture datasets always have a WAL");
        self.chk(wal.force(), "wal force")?;
        self.chk(
            recovery::checkpoint(&self.ds, &self.state),
            "base checkpoint",
        )?;
        self.clock_floor = self.ds.clock().now();
        Ok(())
    }

    // ---- phase 3: trigger -----------------------------------------------

    fn extra_record(&mut self) -> Record {
        let i = self.extras;
        self.extras += 1;
        Record::new(vec![
            Value::Int(5_000_000 + i),
            Value::Int((i * 101) % USER_ID_DOMAIN),
            Value::Str(format!("loc-{i}")),
            Value::Int(900_000 + i),
            Value::Str(format!("torture extra {i}")),
        ])
    }

    /// Upserts `n` fresh records and forces the WAL, folding them into the
    /// committed oracle. Runs with the plan disarmed. Residual ingest
    /// memory is flushed first so the extras cannot trip the inline budget
    /// flush mid-loop — the caller decides when they reach disk.
    fn commit_extras(&mut self, n: usize) -> Result<(), TortureFailure> {
        self.chk(self.ds.flush_all(), "pre-extras flush")?;
        for _ in 0..n {
            let r = self.extra_record();
            self.chk(self.ds.upsert(&r), "committed extra upsert")?;
            self.committed.insert(pk_of(&r), r);
        }
        let wal = self.ds.wal().expect("wal");
        self.chk(wal.force(), "wal force for extras")?;
        self.clock_floor = self.ds.clock().now();
        Ok(())
    }

    /// Upserts eight fresh records without forcing the WAL, so they sit
    /// staged on its open page. Residual ingest memory is flushed first:
    /// otherwise the upserts can trip a budget flush, and under background
    /// maintenance a worker would then force the WAL and install a
    /// component holding them before the trigger's own force.
    fn stage_pending(&mut self) -> Result<Vec<Record>, TortureFailure> {
        self.chk(self.ds.flush_all(), "pre-staging flush")?;
        let mut pending = Vec::new();
        for _ in 0..8 {
            let r = self.extra_record();
            self.chk(self.ds.upsert(&r), "staged upsert")?;
            pending.push(r);
        }
        Ok(pending)
    }

    fn expect_crash_err<T: std::fmt::Debug>(
        &self,
        r: LsmResult<T>,
        what: &str,
    ) -> Result<(), TortureFailure> {
        match r {
            Err(_) => {
                if self.plan.crash_fired() {
                    Ok(())
                } else {
                    Err(self.fail(format!("{what} failed but the crash never fired")))
                }
            }
            Ok(v) => Err(self.fail(format!(
                "{what} returned Ok({v:?}) despite a scripted crash"
            ))),
        }
    }

    /// Returns `Some(trigger)` when the case proceeds to crash recovery.
    fn trigger(&mut self) -> Result<Option<Trigger>, TortureFailure> {
        match self.case.fault {
            FaultKind::CrashWalAppend => {
                let rec = self.extra_record();
                self.plan.arm();
                let r = self.ds.upsert(&rec);
                self.plan.disarm();
                self.expect_crash_err(r, "upsert into crashing WAL")?;
                Ok(Some(Trigger {
                    pending: vec![rec],
                    rule: PendingRule::Absent,
                }))
            }
            FaultKind::CrashGroupCommit => {
                // Stage a whole group in the WAL's staging page (no-force:
                // nothing is promised durable yet), then crash the
                // group-commit leader at the `wal_group_write` site — the
                // group was staged, its page never reached the device. The
                // failed page is dropped, so every member of the group must
                // be absent after recovery while the committed prefix
                // before the group survives.
                let pending = self.stage_pending()?;
                let wal = self.ds.wal().expect("wal");
                self.plan.arm();
                let r = wal.force();
                self.plan.disarm();
                self.expect_crash_err(r, "group-commit force with crashing leader")?;
                Ok(Some(Trigger {
                    pending,
                    rule: PendingRule::Absent,
                }))
            }
            FaultKind::CrashFlushInstall => {
                // The committed extras are in the WAL but only in memory
                // components: the crash tears the install window between the
                // primary and the primary key index, and recovery must
                // still produce them.
                self.commit_extras(16)?;
                self.plan.arm();
                let r = self.ds.flush_all();
                self.plan.disarm();
                self.expect_crash_err(r, "flush with crashing install")?;
                Ok(Some(Trigger {
                    pending: Vec::new(),
                    rule: PendingRule::Absent,
                }))
            }
            FaultKind::CrashMergeInstall => {
                // Two flushed batches guarantee at least two mergeable
                // primary components.
                for _ in 0..2 {
                    self.commit_extras(12)?;
                    self.chk(self.ds.flush_all(), "pre-merge flush")?;
                }
                // No merge may move the component counts between planning
                // and executing, and a correlated plan must fit both trees
                // (only Mutable-bitmap keeps their merges in lockstep).
                self.chk(self.ds.maintenance().quiesce(), "pre-merge quiesce")?;
                let primary = self.ds.primary().num_disk_components();
                let pk = self
                    .ds
                    .pk_index()
                    .map_or(primary, |t| t.num_disk_components());
                let n = primary.min(pk);
                if n < 2 {
                    return Err(self.fail(format!(
                        "expected >= 2 primary and pk components before the merge, found {n}"
                    )));
                }
                // The merge the engine itself runs: Mutable-bitmap datasets
                // go through the Section 5.3 cc path and crash at its
                // install site.
                self.plan.arm();
                let r = self.ds.execute_merge_plan(&MergePlan {
                    target: MergeTarget::Correlated,
                    range: MergeRange {
                        start: 0,
                        end: n - 1,
                    },
                });
                self.plan.disarm();
                self.expect_crash_err(r, "merge with crashing install")?;
                Ok(Some(Trigger {
                    pending: Vec::new(),
                    rule: PendingRule::Absent,
                }))
            }
            FaultKind::CrashCheckpoint => {
                self.commit_extras(8)?;
                self.plan.arm();
                let r = recovery::checkpoint(&self.ds, &self.state);
                self.plan.disarm();
                self.expect_crash_err(r, "checkpoint with scripted crash")?;
                Ok(Some(Trigger {
                    pending: Vec::new(),
                    rule: PendingRule::Absent,
                }))
            }
            FaultKind::TornWalWrite | FaultKind::ShortWalWrite => {
                // Buffer a handful of records on one WAL page, then tear
                // the page as the force writes it. The force itself
                // reports success — torn writes are only discovered by
                // recovery, like on real hardware.
                let pending = self.stage_pending()?;
                let wal = self.ds.wal().expect("wal");
                self.plan.arm();
                self.chk(wal.force(), "torn wal force")?;
                self.plan.disarm();
                if self.plan.faults_injected() != 1 {
                    return Err(self.fail(
                        "the WAL force did not hit the scripted tear \
                         (page flushed earlier than expected)",
                    ));
                }
                Ok(Some(Trigger {
                    pending,
                    rule: PendingRule::Prefix,
                }))
            }
            FaultKind::TransientFlush => {
                self.commit_extras(16)?;
                self.plan.arm();
                match self.ds.flush_all() {
                    Err(e) if e.is_transient() => {}
                    Err(e) => {
                        return Err(
                            self.fail(format!("flush failed with a non-transient error: {e}"))
                        )
                    }
                    Ok(v) => {
                        return Err(self.fail(format!(
                            "flush returned Ok({v:?}) despite a scripted transient fault"
                        )))
                    }
                }
                self.plan.disarm();
                self.chk(self.ds.flush_all(), "flush retry after transient fault")?;
                if self.ds.is_poisoned() {
                    return Err(self.fail("transient flush failure poisoned the dataset"));
                }
                Ok(None)
            }
            FaultKind::TransientRead => {
                // Make sure the query has disk components to read.
                self.chk(self.ds.flush_all(), "pre-query flush")?;
                let q = || {
                    self.ds
                        .query("user_id")
                        .range(Value::Int(0), Value::Int(USER_ID_DOMAIN - 1))
                        .execute()
                };
                self.plan.arm();
                match q() {
                    Err(e) if e.is_transient() => {}
                    Err(e) => {
                        return Err(
                            self.fail(format!("query failed with a non-transient error: {e}"))
                        )
                    }
                    Ok(_) => {
                        return Err(self.fail(
                            "query succeeded despite a scripted transient read fault \
                             (nothing read the device?)",
                        ))
                    }
                }
                self.plan.disarm();
                let res = self.chk(q(), "query retry after transient fault")?;
                if res.len() != self.committed.len() {
                    return Err(self.fail(format!(
                        "retried query returned {} records, oracle has {}",
                        res.len(),
                        self.committed.len()
                    )));
                }
                Ok(None)
            }
        }
    }

    // ---- phase 4: verify ------------------------------------------------

    /// Crash, recover, and check every invariant; then crash and recover a
    /// second time to prove recovery is idempotent. Returns the first
    /// recovery's replay count.
    fn verify_crash(&mut self, trigger: Trigger) -> Result<u64, TortureFailure> {
        self.chk(
            recovery::simulate_crash(&self.ds, &self.state),
            "crash simulation",
        )?;
        let report = self.chk(recovery::recover(&self.ds, &self.state), "recovery")?;

        let clock = self.ds.clock().now();
        if clock < self.clock_floor {
            return Err(self.fail(format!(
                "recovered clock {clock} dropped below committed floor {}",
                self.clock_floor
            )));
        }
        let survivors = self.verify_pending(&trigger)?;
        self.verify_oracle(survivors, "first recovery")?;

        // Recovery must be idempotent: crash and recover again, nothing
        // may change.
        self.chk(
            recovery::simulate_crash(&self.ds, &self.state),
            "second crash simulation",
        )?;
        self.chk(recovery::recover(&self.ds, &self.state), "second recovery")?;
        let survivors2 = self.verify_pending(&trigger)?;
        if survivors2 != survivors {
            return Err(self.fail(format!(
                "repeated recovery changed the surviving WAL tail: \
                 {survivors} records, then {survivors2}"
            )));
        }
        self.verify_oracle(survivors, "second recovery")?;
        self.verify_accepts_writes()?;
        Ok(report.replayed)
    }

    /// Checks the trigger's non-committed writes against its rule and
    /// returns how many of them survived.
    fn verify_pending(&self, trigger: &Trigger) -> Result<usize, TortureFailure> {
        let mut survivors = 0usize;
        let mut in_prefix = true;
        for (i, rec) in trigger.pending.iter().enumerate() {
            let pk = pk_of(rec);
            let got = self.chk(self.ds.get(&Value::Int(pk)), "pending get")?;
            match (&trigger.rule, got) {
                (PendingRule::Absent, None) => {}
                (PendingRule::Absent, Some(_)) => {
                    return Err(self.fail(format!(
                        "uncommitted record #{i} (pk {pk}) survived the crash"
                    )));
                }
                (PendingRule::Prefix, Some(got)) => {
                    if !in_prefix {
                        return Err(self.fail(format!(
                            "torn WAL tail is not a prefix: record #{i} (pk {pk}) \
                             survived after an earlier record was lost"
                        )));
                    }
                    if got != *rec {
                        return Err(self.fail(format!(
                            "record #{i} (pk {pk}) was recovered torn: \
                             partial contents came back"
                        )));
                    }
                    survivors += 1;
                }
                (PendingRule::Prefix, None) => in_prefix = false,
            }
        }
        Ok(survivors)
    }

    /// Every committed record is present and intact, and the secondary
    /// index agrees with the oracle (`extra` accounts for a surviving torn
    /// WAL prefix).
    fn verify_oracle(&self, extra: usize, when: &str) -> Result<(), TortureFailure> {
        for (pk, rec) in &self.committed {
            match self.chk(self.ds.get(&Value::Int(*pk)), "oracle get")? {
                Some(got) if got == *rec => {}
                Some(_) => {
                    return Err(self.fail(format!(
                        "after {when}: committed record pk {pk} came back with \
                         different contents"
                    )));
                }
                None => {
                    return Err(
                        self.fail(format!("after {when}: committed record pk {pk} is missing"))
                    );
                }
            }
        }
        let res = self.chk(
            self.ds
                .query("user_id")
                .range(Value::Int(0), Value::Int(USER_ID_DOMAIN - 1))
                .parallel(2)
                .execute(),
            "oracle query",
        )?;
        let expected = self.committed.len() + extra;
        if res.len() != expected {
            return Err(self.fail(format!(
                "after {when}: secondary query returned {} records, expected {expected}",
                res.len()
            )));
        }
        // Primary-index filter scans must agree with the committed-prefix
        // oracle too: the unbounded predicate sees every live record, and the partitioned
        // path must return exactly what the serial path returns.
        let report = self.chk(self.ds.filter_scan().count(), "oracle filter scan")?;
        if report.matches != expected as u64 {
            return Err(self.fail(format!(
                "after {when}: filter scan matched {} records, expected {expected}",
                report.matches
            )));
        }
        let serial = self.chk(
            self.ds.filter_scan().records(),
            "oracle filter-scan records",
        )?;
        let partitioned = self.chk(
            self.ds.filter_scan().parallel(2).records(),
            "oracle partitioned filter scan",
        )?;
        if partitioned != serial {
            return Err(self.fail(format!(
                "after {when}: partitioned filter scan diverged from serial \
                 ({} vs {} records)",
                partitioned.len(),
                serial.len()
            )));
        }
        Ok(())
    }

    /// The dataset accepts and serves new writes after everything.
    fn verify_accepts_writes(&mut self) -> Result<(), TortureFailure> {
        let rec = self.extra_record();
        let pk = pk_of(&rec);
        self.chk(self.ds.upsert(&rec), "post-fault upsert")?;
        match self.chk(self.ds.get(&Value::Int(pk)), "post-fault get")? {
            Some(got) if got == rec => Ok(()),
            other => Err(self.fail(format!("post-fault write is not readable: got {other:?}"))),
        }
    }
}

/// The full sweep: every strategy x maintenance mode x device x fault kind.
pub fn full_sweep(seed: u64, records: usize) -> Vec<TortureCase> {
    let mut cases = Vec::new();
    for strategy in STRATEGIES {
        for background in [false, true] {
            for device in DeviceKind::ALL {
                for fault in FaultKind::ALL {
                    cases.push(TortureCase {
                        strategy,
                        background,
                        device,
                        fault,
                        seed,
                        records,
                    });
                }
            }
        }
    }
    cases
}

/// The CI smoke subset: two strategies on one device, all fault kinds,
/// both maintenance modes.
pub fn smoke_sweep(seed: u64, records: usize) -> Vec<TortureCase> {
    let mut cases = Vec::new();
    for strategy in [StrategyKind::Eager, StrategyKind::MutableBitmap] {
        for background in [false, true] {
            for fault in FaultKind::ALL {
                cases.push(TortureCase {
                    strategy,
                    background,
                    device: DeviceKind::Ssd,
                    fault,
                    seed,
                    records,
                });
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(strategy: StrategyKind, fault: FaultKind) -> TortureCase {
        TortureCase {
            strategy,
            background: false,
            device: DeviceKind::Ssd,
            fault,
            seed: 42,
            records: 400,
        }
    }

    /// The acceptance window: a crash between the primary's component
    /// install and the primary key index's during a flush, for every
    /// strategy (the Mutable-bitmap flush installs through a different
    /// path than the build-then-install strategies).
    #[test]
    fn crash_between_primary_and_pk_flush_install_recovers() {
        for strategy in STRATEGIES {
            let c = case(strategy, FaultKind::CrashFlushInstall);
            let report = run_case(&c).unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(report.events, vec!["site:flush_install#0 -> crash"]);
            assert!(report.replayed > 0, "{strategy:?}: rollback must replay");
        }
    }

    #[test]
    fn crash_in_merge_install_window_recovers() {
        for strategy in [StrategyKind::Eager, StrategyKind::MutableBitmap] {
            let c = case(strategy, FaultKind::CrashMergeInstall);
            let report = run_case(&c).unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(report.events, vec!["site:merge_install#0 -> crash"]);
        }
    }

    #[test]
    fn every_fault_kind_passes_on_validation() {
        for fault in FaultKind::ALL {
            let c = case(StrategyKind::Validation, fault);
            run_case(&c).unwrap_or_else(|f| panic!("{f}"));
        }
    }

    #[test]
    fn background_maintenance_cases_pass() {
        for fault in [FaultKind::CrashFlushInstall, FaultKind::TransientFlush] {
            let c = TortureCase {
                background: true,
                ..case(StrategyKind::DeletedKeyBTree, fault)
            };
            run_case(&c).unwrap_or_else(|f| panic!("{f}"));
        }
    }

    /// Same seed + same plan => byte-identical fault schedule and report.
    #[test]
    fn identical_cases_produce_identical_fault_schedules() {
        let c = case(StrategyKind::MutableBitmap, FaultKind::TornWalWrite);
        let a = run_case(&c).unwrap_or_else(|f| panic!("{f}"));
        let b = run_case(&c).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a, b);
    }

    #[test]
    fn repro_line_round_trips_through_the_parsers() {
        let c = case(StrategyKind::DeletedKeyBTree, FaultKind::ShortWalWrite);
        let repro = c.repro();
        assert!(repro.contains("--strategy deleted-key-btree"));
        assert!(repro.contains("--fault short-wal-write"));
        assert_eq!(parse_strategy("deleted-key-btree"), Some(c.strategy));
        assert_eq!(FaultKind::parse("short-wal-write"), Some(c.fault));
        assert_eq!(DeviceKind::parse("ssd"), Some(c.device));
    }

    #[test]
    fn device_names_round_trip() {
        for device in DeviceKind::ALL {
            assert_eq!(DeviceKind::parse(device.name()), Some(device));
        }
        assert_eq!(DeviceKind::parse("tape"), None);
    }

    #[test]
    fn smoke_sweep_is_two_strategies_on_ssd_in_both_modes() {
        let cases = smoke_sweep(1, 100);
        assert!(cases.iter().all(|c| c.device == DeviceKind::Ssd));
        let strategies: Vec<_> = cases.iter().map(|c| c.strategy).collect();
        assert!(strategies
            .iter()
            .all(|s| matches!(s, StrategyKind::Eager | StrategyKind::MutableBitmap)));
        let background = cases.iter().filter(|c| c.background).count();
        assert_eq!(background * 2, cases.len(), "half the cases run background");
    }

    #[test]
    fn sweeps_cover_the_advertised_matrix() {
        assert_eq!(full_sweep(1, 100).len(), 4 * 2 * 2 * 9);
        assert_eq!(smoke_sweep(1, 100).len(), 2 * 2 * 9);
        // Every repro line is unique — one line identifies one case.
        let mut lines: Vec<String> = full_sweep(1, 100).iter().map(|c| c.repro()).collect();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), 4 * 2 * 2 * 9);
    }
}
