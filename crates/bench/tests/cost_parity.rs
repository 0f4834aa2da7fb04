//! Cost parity: what a fixed ingest is charged, pinned.
//!
//! Single-client cost metrics are bit-reproducible per seed, so "this
//! change moved no charged cost" is an equality, not a benchmark session.
//! A fixed-seed 20 k-upsert inline ingest (half of the operations update
//! an earlier key) runs under the Validation and the Eager strategy, then
//! one standalone repair; every simulated nanosecond, byte, page, flush,
//! merge and repair total must equal the figures recorded from the commit
//! before the merge pipeline started lending (ISSUE 21). A change that
//! means to move a charged cost re-records the figures and says so.

use lsm_bench::{apply, open_tweet_dataset, tweet_dataset_config, Env, EnvConfig};
use lsm_engine::StrategyKind;
use lsm_workload::{TweetConfig, UpdateDistribution, UpsertWorkload};
use std::sync::atomic::Ordering;

const UPSERTS: usize = 20_000;
const DATASET_BYTES: u64 = 10 << 20;

/// Everything the ingest and the repair after it were charged.
#[derive(Debug, PartialEq, Eq)]
struct Costs {
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
    let reports = ds.maintenance().repair_all().expect("repair");
    let sum = |f: fn(&lsm_engine::RepairReport) -> u64| reports.iter().map(f).sum();
    let (data, log) = (env.storage.stats(), env.log_storage.stats());
    Costs {
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
        sim_ns: 6_946_287_410,
        cpu_ns: 396_704_050,
        data_bytes_written: 35_508_396,
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
        sim_ns: 127_279_096_720,
        cpu_ns: 248_934_800,
        data_bytes_written: 34_373_993,
        data_pages_written: 941,
        data_bytes_read: 1_769_472_000,
        log_bytes_written: 11_404_627,
        log_pages_written: 145,
        bloom_checks: 130_129,
        flushes: 73,
        merges: 92,
        repair: [10_035, 10_014, 0, 0],
    };
    assert_eq!(ingest(StrategyKind::Eager), recorded);
}
