//! Cost parity: what a fixed ingest is charged, pinned.
//!
//! Single-client cost metrics are bit-reproducible per seed, so "this
//! change moved no charged cost" is an equality, not a benchmark session.
//! A fixed-seed 20 k-upsert inline ingest (half of the operations update
//! an earlier key) runs under the Validation and the Eager strategy, then
//! one standalone repair; every simulated nanosecond, byte, page, flush,
//! merge and repair total must equal the recorded figures. A change that
//! means to move a charged cost re-records the figures and says so.
//!
//! Recorded at ISSUE 23, which moved index repair's point validation from
//! one root-to-leaf search per candidate onto the batched, stateful walk
//! of Section 3.2: against the figures of ISSUE 21 only `sim_ns` and
//! `cpu_ns` differ, and both fell (Validation 6 946 287 410 / 396 704 050,
//! Eager 127 279 096 720 / 248 934 800 → the figures below). All of it is
//! the closing standalone repair: the clocks at the last flush
//! (`ingest_sim_ns`, `ingest_cpu_ns`) are the parent's to the nanosecond
//! under both strategies — Eager never merge-repairs, and this fixture's
//! Validation merge repairs make next to no point probes (143 Bloom checks
//! in the whole run).
//!
//! `data_bytes_written` re-recorded at ISSUE 25, which made plain leaves
//! and router pages key strips (`lsm_btree::page`): the pages break where
//! they did, but are shorter (Validation 35 508 396 → 34 749 714, Eager
//! 34 373 993 → 33 513 160). Every other field — `data_pages_written`
//! included — is the parent's.
//!
//! One correlated row runs the same ingest under Figure 20's
//! Bloom-optimized repair configuration, where every merge is a correlated
//! one (see [`validation_correlated_ingest_is_charged_what_the_parent_charged`]).
//! Recorded at commit e4a77ae; it fails if the correlated merge of the
//! non-Mutable-bitmap strategies skips the secondaries, which no other row
//! notices.
//!
//! Four churn rows, one per strategy, pin every write path and log
//! replay: a fixed-seed 12 k-op churn of upserts, deletes and rejected
//! duplicate inserts on two secondary indexes, a checkpoint, a crash and
//! the recovery after it (see [`churn`]). Their figures were recorded
//! while the strategies still had a write function per operation and
//! replay went through the public writes; folding all of them into one
//! locked write left every figure unchanged.
//!
//! Four `WriteBatch` rows pin the batch commit path: the ingest's upsert
//! stream committed 1 and 32 operations per batch under Validation and
//! Eager (see [`batched_ingest`]). A batch of one is charged exactly what
//! the single-operation ingest is charged at its last flush. Batches of 32
//! check the memory budget once per commit, so they flush less often.
//!
//! Four read rows, one per strategy, pin the read path: the ingest's
//! upsert stream, flushed and left unrepaired, then a fixed script of
//! point reads, secondary-index queries in every form and filter scans
//! (see [`read_script`]). Recorded at commit 2e74b00, whose queries and
//! filter scans still ran on a partition executor at its one-partition
//! default; the single-pass executor that replaced it is charged the same.
//!
//! Twelve rows re-recorded against commit 6a5e93c when the blocked Bloom
//! filter became the engine default: a probe is charged one cache miss
//! and `k − 1` hits (160 sim ns) instead of `k` misses (700), and the
//! extra bit per key changes which absent keys pass a filter. So `sim_ns`
//! and `cpu_ns` fall wherever a filter is probed, by 540 ns per check;
//! where a false positive goes, so does its tree search, which moves
//! `bloom_negatives` and the page reads, cache hits and bytes read of the
//! read rows, Eager's `data_bytes_read` and the recovery time of the
//! churns that probe. No byte or page written, flush, merge, Bloom check,
//! engine counter or returned row moved. Three rows are controls and were
//! not re-recorded: the correlated row already built blocked filters, and
//! the Validation `WriteBatch` rows probe no filter.
//!
//! The four read rows re-recorded against commit 97e5481 when the sorted
//! fetch began to stream short forward gaps (`Storage::read_page_forward`,
//! counted in `bridged_pages`) and bounded B+-tree scans stopped reading
//! ahead past the leaf their upper bound routes to: `sim_ns` fell (Eager
//! 5 780 839 145 → 5 720 500 370, Validation 5 835 789 205 → 5 771 654 025,
//! MutableBitmap 7 916 326 580 → 7 852 055 220, DeletedKeyBTree
//! 6 206 868 155 → 6 118 732 975); the page reads, cache hits, bytes read
//! and bursts moved with it, and `cpu_ns` rose by at most 500 ns — the
//! router comparisons that find a bounded scan's last leaf (MutableBitmap's
//! did not move). No Bloom check, row, key or match moved, and the other
//! eleven rows are the parent's.
//!
//! Eight rows re-recorded against commit 5a7e2e1 when a B+-tree's router
//! pages moved into its handle (`lsm_btree::tree`): a root-to-leaf walk
//! reads its leaf alone, where it read every router page on the way
//! through the buffer cache. Only device reads moved — `sim_ns` and the
//! page reads, cache hits and bytes read of the four read rows (each fell
//! by the router reads they no longer make, a few hundred pages), Eager's
//! ingest clocks and `data_bytes_read` (every upsert's point lookup
//! descends each component it searches: Eager ingest 125 837 731 295 →
//! 69 846 496 735 sim ns), the Eager churn's recovery time, and the Eager
//! `WriteBatch` clocks. Node visits and key comparisons are charged as
//! before, so no `cpu_ns` moved; router pages are still written, so no
//! byte or page written moved. The seven Validation, MutableBitmap and
//! DeletedKeyBTree ingest, churn and `WriteBatch` rows are the parent's to
//! the nanosecond: the Validation ingests make no point lookup, and the
//! other churns' 792 duplicate-insert lookups are charged as before.

use lsm_bench::{apply, open_tweet_dataset, tweet_dataset_config, Env, EnvConfig};
use lsm_common::Value;
use lsm_engine::recovery::{checkpoint, recover, simulate_crash, CheckpointState};
use lsm_engine::{DatasetConfig, SecondaryIndexDef, StrategyKind};
use lsm_workload::{Op, TweetConfig, UpdateDistribution, UpsertWorkload};
use std::sync::atomic::Ordering;

const UPSERTS: usize = 20_000;
const DATASET_BYTES: u64 = 10 << 20;

/// Everything the ingest and the repair after it were charged.
#[derive(Debug, PartialEq, Eq)]
struct Costs {
    /// The clocks when the last flush returned, before the repair.
    ingest_sim_ns: u64,
    ingest_cpu_ns: u64,
    sim_ns: u64,
    cpu_ns: u64,
    data_bytes_written: u64,
    data_pages_written: u64,
    data_bytes_read: u64,
    log_bytes_written: u64,
    log_pages_written: u64,
    bloom_checks: u64,
    flushes: u64,
    merges: u64,
    /// `RepairReport` totals of the closing standalone repair: entries
    /// scanned, keys validated, skipped by Bloom, invalidated.
    repair: [u64; 4],
}

fn ingest(strategy: StrategyKind) -> Costs {
    ingest_config(tweet_dataset_config(strategy, DATASET_BYTES, 1))
}

/// [`ingest`] under a dataset configured as `cfg`.
fn ingest_config(cfg: DatasetConfig) -> Costs {
    let env = Env::new(&EnvConfig {
        dataset_bytes: DATASET_BYTES,
        ..EnvConfig::default()
    });
    let ds = open_tweet_dataset(&env, cfg);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..UPSERTS {
        apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");
    let (ingest_sim_ns, ingest_cpu_ns) = (env.clock.now_nanos(), env.storage.stats().cpu_ns);
    let reports = ds.maintenance().repair_all().expect("repair");
    let sum = |f: fn(&lsm_engine::RepairReport) -> u64| reports.iter().map(f).sum();
    let (data, log) = (env.storage.stats(), env.log_storage.stats());
    Costs {
        ingest_sim_ns,
        ingest_cpu_ns,
        sim_ns: env.clock.now_nanos(),
        cpu_ns: data.cpu_ns,
        data_bytes_written: data.bytes_written,
        data_pages_written: data.pages_written,
        data_bytes_read: data.bytes_read,
        log_bytes_written: log.bytes_written,
        log_pages_written: log.pages_written,
        bloom_checks: data.bloom_checks,
        flushes: ds.stats().flushes.load(Ordering::Relaxed),
        merges: ds.stats().merges.load(Ordering::Relaxed),
        repair: [
            sum(|r| r.entries_scanned),
            sum(|r| r.keys_validated),
            sum(|r| r.skipped_by_bloom),
            sum(|r| r.invalidated),
        ],
    }
}

#[test]
fn validation_ingest_is_charged_what_the_parent_charged() {
    let recorded = Costs {
        ingest_sim_ns: 6_894_315_085,
        ingest_cpu_ns: 375_285_325,
        sim_ns: 6_946_195_065,
        cpu_ns: 396_611_705,
        data_bytes_written: 34_749_714,
        data_pages_written: 892,
        data_bytes_read: 57_147_392,
        log_bytes_written: 11_404_627,
        log_pages_written: 135,
        bloom_checks: 143,
        flushes: 68,
        merges: 81,
        repair: [10_510, 10_067, 0, 74],
    };
    assert_eq!(ingest(StrategyKind::Validation), recorded);
}

#[test]
fn eager_ingest_is_charged_what_the_parent_charged() {
    let recorded = Costs {
        ingest_sim_ns: 69_769_815_840,
        ingest_cpu_ns: 147_292_960,
        sim_ns: 69_846_496_735,
        cpu_ns: 174_798_815,
        data_bytes_written: 33_513_160,
        data_pages_written: 941,
        data_bytes_read: 956_825_600,
        log_bytes_written: 11_404_627,
        log_pages_written: 145,
        bloom_checks: 130_129,
        flushes: 73,
        merges: 92,
        repair: [10_035, 10_014, 0, 0],
    };
    assert_eq!(ingest(StrategyKind::Eager), recorded);
}

/// The ingest under Figure 20's Bloom-optimized repair configuration:
/// Validation with correlated merges, every merge repairing the secondary
/// index, the repair Bloom-filter optimization and blocked Bloom filters.
/// Every merge is a correlated one, so this row pins that path for the
/// strategies other than Mutable-bitmap: the primary, the pk index and the
/// secondary merge over one range, the secondary by merge repair.
#[test]
fn validation_correlated_ingest_is_charged_what_the_parent_charged() {
    let mut cfg = tweet_dataset_config(StrategyKind::Validation, DATASET_BYTES, 1);
    cfg.merge.correlated = true;
    cfg.merge_repair = true;
    cfg.repair_bloom_opt = true;
    cfg.bloom_kind = lsm_bloom::BloomKind::Blocked;
    let recorded = Costs {
        ingest_sim_ns: 6_325_225_925,
        ingest_cpu_ns: 114_307_525,
        sim_ns: 7_134_588_110,
        cpu_ns: 150_879_950,
        data_bytes_written: 29_204_102,
        data_pages_written: 834,
        data_bytes_read: 60_162_048,
        log_bytes_written: 11_404_627,
        log_pages_written: 135,
        bloom_checks: 196_065,
        flushes: 68,
        merges: 81,
        repair: [18_671, 7_822, 9_498, 7_327],
    };
    assert_eq!(ingest_config(cfg), recorded);
}

const CHURN_OPS: usize = 12_000;
const CHURN_CHECKPOINT_AT: usize = 9_000;

/// Everything a churn, the crash after it and the recovery were charged.
#[derive(Debug, PartialEq, Eq)]
struct ChurnCosts {
    sim_ns: u64,
    /// The simulated time `recover` took.
    recovery_sim_ns: u64,
    cpu_ns: u64,
    data_bytes_written: u64,
    data_pages_written: u64,
    data_bytes_read: u64,
    log_bytes_written: u64,
    log_pages_written: u64,
    bloom_checks: u64,
    flushes: u64,
    merges: u64,
    deletes: u64,
    inserts_rejected: u64,
    maintenance_lookups: u64,
    replayed: u64,
    skipped: u64,
    /// Memory components after recovery: the replayed tail.
    mem_total_bytes: u64,
    /// The logical clock after recovery: one tick per write that took a
    /// timestamp, before and after the crash.
    clock: u64,
    /// Records in the log after recovery, its unforced tail included:
    /// replay appends none.
    log_records: u64,
}

/// A fixed-seed churn under `strategy`, inline maintenance. Upserts at
/// update ratio 0.5; every 7th op deletes an earlier key (possibly one
/// already deleted) and every 13th inserts a duplicate of the key upserted
/// last. The indexes are on `user_id` and on `location`, whose 50 values
/// leave the key unchanged by one update in fifty. A checkpoint at op
/// 9 000; then the log is forced, the process crashes and recovers.
fn churn(strategy: StrategyKind) -> ChurnCosts {
    let env = Env::new(&EnvConfig {
        dataset_bytes: DATASET_BYTES,
        ..EnvConfig::default()
    });
    let mut cfg = tweet_dataset_config(strategy, DATASET_BYTES, 2);
    cfg.secondary_indexes[1] = SecondaryIndexDef {
        name: "location".into(),
        field: 2,
    };
    let ds = open_tweet_dataset(&env, cfg);
    let state = CheckpointState::new();
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    let mut last = None;
    for i in 1..=CHURN_OPS {
        if i % 7 == 0 {
            let issued = workload.generator();
            let key = issued.issued_key(i * 7_919 % issued.num_issued());
            ds.delete(&Value::Int(key)).expect("delete");
        } else if i % 13 == 0 {
            let dup = last.as_ref().expect("an upsert came first");
            ds.insert(dup).expect("insert");
        } else {
            let op = workload.next_op();
            apply(&ds, &op);
            last = Some(op.record().clone());
        }
        if i == CHURN_CHECKPOINT_AT {
            checkpoint(&ds, &state).expect("checkpoint");
        }
    }
    let wal = ds.wal().expect("bench datasets log");
    wal.force().expect("force");
    simulate_crash(&ds, &state).expect("crash");
    let before = env.clock.now_nanos();
    let report = recover(&ds, &state).expect("recover");
    let sim_ns = env.clock.now_nanos();
    let (data, log, stats) = (env.storage.stats(), env.log_storage.stats(), ds.stats());
    ChurnCosts {
        sim_ns,
        recovery_sim_ns: sim_ns - before,
        cpu_ns: data.cpu_ns,
        data_bytes_written: data.bytes_written,
        data_pages_written: data.pages_written,
        data_bytes_read: data.bytes_read,
        log_bytes_written: log.bytes_written,
        log_pages_written: log.pages_written,
        bloom_checks: data.bloom_checks,
        flushes: stats.flushes.load(Ordering::Relaxed),
        merges: stats.merges.load(Ordering::Relaxed),
        deletes: stats.deletes.load(Ordering::Relaxed),
        inserts_rejected: stats.inserts_rejected.load(Ordering::Relaxed),
        maintenance_lookups: stats.maintenance_lookups.load(Ordering::Relaxed),
        replayed: report.replayed,
        skipped: report.skipped,
        mem_total_bytes: ds.mem_total_bytes() as u64,
        clock: ds.clock().now(),
        // Last: reading the log charges the log device.
        log_records: wal.replay(0, true).expect("read the log").len() as u64,
    }
}

#[test]
fn eager_churn_is_charged_what_the_parent_charged() {
    let recorded = ChurnCosts {
        sim_ns: 25_154_319_800,
        recovery_sim_ns: 213_442_755,
        cpu_ns: 73_687_480,
        data_bytes_written: 15_802_939,
        data_pages_written: 554,
        data_bytes_read: 327_942_144,
        log_bytes_written: 5_466_372,
        log_pages_written: 50,
        bloom_checks: 27_068,
        flushes: 42,
        merges: 75,
        deletes: 1441,
        inserts_rejected: 792,
        maintenance_lookups: 12_035,
        replayed: 35,
        skipped: 2706,
        mem_total_bytes: 37_143,
        clock: 11_208,
        log_records: 10_932,
    };
    assert_eq!(churn(StrategyKind::Eager), recorded);
}

#[test]
fn validation_churn_is_charged_what_the_parent_charged() {
    let recorded = ChurnCosts {
        sim_ns: 4_986_954_380,
        recovery_sim_ns: 107_885_920,
        cpu_ns: 224_030_860,
        data_bytes_written: 16_886_230,
        data_pages_written: 563,
        data_bytes_read: 36_175_872,
        log_bytes_written: 5_476_067,
        log_pages_written: 76,
        bloom_checks: 1,
        flushes: 37,
        merges: 66,
        deletes: 1742,
        inserts_rejected: 792,
        maintenance_lookups: 792,
        replayed: 183,
        skipped: 2619,
        mem_total_bytes: 165_972,
        clock: 11_208,
        log_records: 11_209,
    };
    assert_eq!(churn(StrategyKind::Validation), recorded);
}

#[test]
fn mutable_bitmap_churn_is_charged_what_the_parent_charged() {
    let recorded = ChurnCosts {
        sim_ns: 4_531_104_940,
        recovery_sim_ns: 109_633_050,
        cpu_ns: 110_960_300,
        data_bytes_written: 14_747_987,
        data_pages_written: 535,
        data_bytes_read: 32_768_000,
        log_bytes_written: 5_476_067,
        log_pages_written: 76,
        bloom_checks: 54_090,
        flushes: 37,
        merges: 42,
        deletes: 1742,
        inserts_rejected: 792,
        maintenance_lookups: 792,
        replayed: 1408,
        skipped: 1394,
        mem_total_bytes: 165_972,
        clock: 11_208,
        log_records: 11_209,
    };
    assert_eq!(churn(StrategyKind::MutableBitmap), recorded);
}

#[test]
fn deleted_key_btree_churn_is_charged_what_the_parent_charged() {
    let recorded = ChurnCosts {
        sim_ns: 5_588_343_195,
        recovery_sim_ns: 107_885_920,
        cpu_ns: 226_279_835,
        data_bytes_written: 17_043_690,
        data_pages_written: 631,
        data_bytes_read: 39_976_960,
        log_bytes_written: 5_476_067,
        log_pages_written: 76,
        bloom_checks: 1,
        flushes: 37,
        merges: 66,
        deletes: 1742,
        inserts_rejected: 792,
        maintenance_lookups: 792,
        replayed: 183,
        skipped: 2619,
        mem_total_bytes: 165_972,
        clock: 11_208,
        log_records: 11_209,
    };
    assert_eq!(churn(StrategyKind::DeletedKeyBTree), recorded);
}

/// Everything the ingest stream was charged when committed through
/// `WriteBatch`es.
#[derive(Debug, PartialEq, Eq)]
struct BatchCosts {
    sim_ns: u64,
    cpu_ns: u64,
    data_bytes_written: u64,
    data_pages_written: u64,
    log_bytes_written: u64,
    log_pages_written: u64,
    /// Group appends, and the records they carried.
    wal_groups: u64,
    wal_grouped_records: u64,
    flushes: u64,
    merges: u64,
    maintenance_lookups: u64,
    /// The logical clock: one tick per committed write.
    clock: u64,
}

/// [`ingest`]'s fixed-seed 20 k-upsert stream under `strategy`, committed
/// through `ds.batch()` `batch` operations at a time (Figures 13 and 14
/// commit 32), then flushed. No repair.
fn batched_ingest(strategy: StrategyKind, batch: usize) -> BatchCosts {
    let env = Env::new(&EnvConfig {
        dataset_bytes: DATASET_BYTES,
        ..EnvConfig::default()
    });
    let ds = open_tweet_dataset(&env, tweet_dataset_config(strategy, DATASET_BYTES, 1));
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..UPSERTS / batch {
        let mut b = ds.batch();
        for _ in 0..batch {
            b = match workload.next_op() {
                Op::Insert(r) => b.insert(&r),
                Op::Upsert(r) => b.upsert(&r),
            };
        }
        b.commit().expect("commit");
    }
    ds.flush_all().expect("flush");
    let (data, log, stats) = (env.storage.stats(), env.log_storage.stats(), ds.stats());
    BatchCosts {
        sim_ns: env.clock.now_nanos(),
        cpu_ns: data.cpu_ns,
        data_bytes_written: data.bytes_written,
        data_pages_written: data.pages_written,
        log_bytes_written: log.bytes_written,
        log_pages_written: log.pages_written,
        wal_groups: stats.wal_groups.load(Ordering::Relaxed),
        wal_grouped_records: stats.wal_grouped_records.load(Ordering::Relaxed),
        flushes: stats.flushes.load(Ordering::Relaxed),
        merges: stats.merges.load(Ordering::Relaxed),
        maintenance_lookups: stats.maintenance_lookups.load(Ordering::Relaxed),
        clock: ds.clock().now(),
    }
}

#[test]
fn validation_batch_1_ingest_is_charged_what_the_parent_charged() {
    let recorded = BatchCosts {
        sim_ns: 6_894_315_085,
        cpu_ns: 375_285_325,
        data_bytes_written: 34_749_714,
        data_pages_written: 892,
        log_bytes_written: 11_404_627,
        log_pages_written: 135,
        wal_groups: 135,
        wal_grouped_records: 20_000,
        flushes: 68,
        merges: 81,
        maintenance_lookups: 0,
        clock: 20_000,
    };
    assert_eq!(batched_ingest(StrategyKind::Validation, 1), recorded);
}

#[test]
fn validation_batch_32_ingest_is_charged_what_the_parent_charged() {
    let recorded = BatchCosts {
        sim_ns: 6_340_112_745,
        cpu_ns: 353_330_025,
        data_bytes_written: 33_995_384,
        data_pages_written: 827,
        log_bytes_written: 11_404_627,
        log_pages_written: 124,
        wal_groups: 124,
        wal_grouped_records: 20_000,
        flushes: 62,
        merges: 74,
        maintenance_lookups: 0,
        clock: 20_000,
    };
    assert_eq!(batched_ingest(StrategyKind::Validation, 32), recorded);
}

#[test]
fn eager_batch_1_ingest_is_charged_what_the_parent_charged() {
    let recorded = BatchCosts {
        sim_ns: 69_769_815_840,
        cpu_ns: 147_292_960,
        data_bytes_written: 33_513_160,
        data_pages_written: 941,
        log_bytes_written: 11_404_627,
        log_pages_written: 145,
        wal_groups: 145,
        wal_grouped_records: 20_000,
        flushes: 73,
        merges: 92,
        maintenance_lookups: 20_000,
        clock: 20_000,
    };
    assert_eq!(batched_ingest(StrategyKind::Eager, 1), recorded);
}

#[test]
fn eager_batch_32_ingest_is_charged_what_the_parent_charged() {
    let recorded = BatchCosts {
        sim_ns: 68_914_001_630,
        cpu_ns: 140_697_310,
        data_bytes_written: 32_028_107,
        data_pages_written: 880,
        log_bytes_written: 11_404_627,
        log_pages_written: 137,
        wal_groups: 137,
        wal_grouped_records: 20_000,
        flushes: 69,
        merges: 86,
        maintenance_lookups: 20_000,
        clock: 20_000,
    };
    assert_eq!(batched_ingest(StrategyKind::Eager, 32), recorded);
}

/// Everything the read script was charged, and what it returned.
#[derive(Debug, PartialEq, Eq)]
struct ReadCosts {
    sim_ns: u64,
    cpu_ns: u64,
    seq_reads: u64,
    rand_reads: u64,
    cache_hits: u64,
    bytes_read: u64,
    bloom_checks: u64,
    bloom_negatives: u64,
    batched_lookups_saved: u64,
    /// Gap pages the sorted fetch streamed instead of seeking.
    bridged_pages: u64,
    /// Records returned by gets, record queries and the stream.
    rows: u64,
    /// Primary keys returned by index-only queries.
    keys: u64,
    /// Filter-scan matches: counted and collected.
    matches: u64,
}

/// [`ingest`]'s fixed-seed 20 k-upsert stream under `strategy`, flushed
/// and left unrepaired, then one fixed read script, charged alone: 200
/// gets (one in ten of an absent key); `eq` and `range` queries with the
/// strategy's default validation; a query-driven-repair query, then the
/// index-only query over its range, which reads the marks it left; a
/// `limit(10)` query; a collected stream; and filter scans, counted and
/// collected, over an old, a middle and a recent window of creation time.
fn read_script(strategy: StrategyKind) -> ReadCosts {
    let env = Env::new(&EnvConfig {
        dataset_bytes: DATASET_BYTES,
        ..EnvConfig::default()
    });
    let ds = open_tweet_dataset(&env, tweet_dataset_config(strategy, DATASET_BYTES, 1));
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);
    for _ in 0..UPSERTS {
        apply(&ds, &workload.next_op());
    }
    ds.flush_all().expect("flush");
    let issued = workload.generator();
    let (t0, before) = (env.clock.now_nanos(), env.storage.stats());

    let (mut rows, mut keys, mut matches) = (0u64, 0u64, 0u64);
    for i in 0..200usize {
        let pk = if i % 10 == 9 {
            -1 - i as i64
        } else {
            issued.issued_key(i * 7_919 % issued.num_issued())
        };
        rows += u64::from(ds.get(&Value::Int(pk)).expect("get").is_some());
    }
    let query = |lo: i64, hi: i64| ds.query("user_id").range(lo, hi);
    for uid in [7, 4_242, 55_555, 99_999] {
        rows += ds.query("user_id").eq(uid).execute().expect("eq").len() as u64;
    }
    for (lo, hi) in [(0, 9_999), (50_000, 50_999)] {
        rows += query(lo, hi).execute().expect("range").len() as u64;
    }
    let repairing = query(10_000, 19_999).query_driven_repair(true);
    rows += repairing.execute().expect("repair").len() as u64;
    let index_only = query(10_000, 19_999).index_only();
    keys += index_only.execute().expect("index-only").len() as u64;
    let limited = query(20_000, 39_999).limit(10);
    rows += limited.execute().expect("limit").len() as u64;
    let stream = query(60_000, 69_999).stream().expect("stream");
    rows += stream
        .collect::<lsm_common::Result<Vec<_>>>()
        .expect("stream")
        .len() as u64;
    let watermark = issued.time_watermark();
    for (lo, hi) in [
        (None, Some(watermark / 10)),
        (Some(watermark / 2), Some(watermark / 2 + watermark / 20)),
        (Some(watermark - watermark / 10), None),
    ] {
        let scan = || {
            let scan = ds.filter_scan();
            let scan = match lo {
                Some(lo) => scan.range_from(lo),
                None => scan,
            };
            match hi {
                Some(hi) => scan.range_to(hi),
                None => scan,
            }
        };
        matches += scan().count().expect("count").matches;
        matches += scan().records().expect("records").len() as u64;
    }

    let io = env.storage.stats().since(&before);
    ReadCosts {
        sim_ns: env.clock.now_nanos() - t0,
        cpu_ns: io.cpu_ns,
        seq_reads: io.seq_reads,
        rand_reads: io.rand_reads,
        cache_hits: io.cache_hits,
        bytes_read: io.bytes_read,
        bloom_checks: io.bloom_checks,
        bloom_negatives: io.bloom_negatives,
        batched_lookups_saved: io.batched_lookups_saved,
        bridged_pages: io.bridged_pages,
        rows,
        keys,
        matches,
    }
}

#[test]
fn eager_reads_are_charged_what_the_parent_charged() {
    let recorded = ReadCosts {
        sim_ns: 3_523_170_450,
        cpu_ns: 29_126_290,
        seq_reads: 556,
        rand_reads: 297,
        cache_hits: 47,
        bytes_read: 111_804_416,
        bloom_checks: 33_609,
        bloom_negatives: 28_194,
        batched_lookups_saved: 234,
        bridged_pages: 18,
        rows: 3_253,
        keys: 1_037,
        matches: 5_074,
    };
    assert_eq!(read_script(StrategyKind::Eager), recorded);
}

#[test]
fn validation_reads_are_charged_what_the_parent_charged() {
    let recorded = ReadCosts {
        sim_ns: 3_535_770_505,
        cpu_ns: 30_426_505,
        seq_reads: 522,
        rand_reads: 303,
        cache_hits: 49,
        bytes_read: 108_134_400,
        bloom_checks: 35_673,
        bloom_negatives: 30_188,
        batched_lookups_saved: 225,
        bridged_pages: 11,
        rows: 3_253,
        keys: 1_037,
        matches: 5_074,
    };
    assert_eq!(read_script(StrategyKind::Validation), recorded);
}

#[test]
fn mutable_bitmap_reads_are_charged_what_the_parent_charged() {
    let recorded = ReadCosts {
        sim_ns: 5_656_036_020,
        cpu_ns: 47_145_140,
        seq_reads: 351,
        rand_reads: 553,
        cache_hits: 28,
        bytes_read: 118_489_088,
        bloom_checks: 63_384,
        bloom_negatives: 54_611,
        batched_lookups_saved: 48,
        bridged_pages: 12,
        rows: 3_253,
        keys: 1_037,
        matches: 5_074,
    };
    assert_eq!(read_script(StrategyKind::MutableBitmap), recorded);
}

#[test]
fn deleted_key_btree_reads_are_charged_what_the_parent_charged() {
    let recorded = ReadCosts {
        sim_ns: 3_752_499_375,
        cpu_ns: 31_608_495,
        seq_reads: 587,
        rand_reads: 317,
        cache_hits: 47,
        bytes_read: 118_489_088,
        bloom_checks: 41_222,
        bloom_negatives: 34_688,
        batched_lookups_saved: 225,
        bridged_pages: 13,
        rows: 3_253,
        keys: 1_037,
        matches: 5_074,
    };
    assert_eq!(read_script(StrategyKind::DeletedKeyBTree), recorded);
}
