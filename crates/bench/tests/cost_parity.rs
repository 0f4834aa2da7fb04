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

use lsm_bench::{apply, open_tweet_dataset, tweet_dataset_config, Env, EnvConfig};
use lsm_engine::StrategyKind;
use lsm_workload::{TweetConfig, UpdateDistribution, UpsertWorkload};
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
        sim_ns: 6_946_272_285,
        cpu_ns: 396_688_925,
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
        ingest_sim_ns: 127_165_279_285,
        ingest_cpu_ns: 201_603_125,
        sim_ns: 127_267_298_020,
        cpu_ns: 245_136_100,
        data_bytes_written: 33_513_160,
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
