//! Cost parity: what four fixed scripts are charged, pinned in
//! `crates/bench/golden/ledger.tsv`.
//!
//! Single-client cost metrics are bit-reproducible per seed, so "this
//! change moved no charged cost" is an equality, not a benchmark session.
//! Each test runs a script under one configuration and compares the
//! `(field, value)` pairs it returns with its ledger row; a mismatch names
//! only the lines that moved. All scripts run inline maintenance over one
//! fixed-seed stream of 20 k upserts, half of them updates:
//!
//! * [`ingest`]: the stream, flushed, then one standalone repair; also
//!   under Figure 20's Bloom-optimized repair configuration, where every
//!   merge is a correlated one ([`correlated`]).
//! * [`churn`]: 12 k upserts, deletes and rejected duplicate inserts on
//!   two secondary indexes, a checkpoint, a crash and the recovery after
//!   it: every write path and log replay.
//! * [`batched_ingest`]: the stream committed through `WriteBatch`es of 1
//!   and of 32, then flushed: the batch commit path.
//! * [`read_script`]: the stream, flushed and left unrepaired, then gets,
//!   secondary-index queries in every form and filter scans.
//!
//! Every row also checks the clock against the counters: the data and log
//! devices share one clock, and it reads exactly Σ count × price over
//! both ([`Prices::assert_clock`]). And the prices steer nothing: the churn
//! script at doubled prices counts every event it counts at the ledger's
//! and is charged exactly twice the time ([`prices_steer_nothing`]).
//!
//! A change that means to move a charged cost rewrites the ledger and the
//! figure tables beside it (about a minute optimized) and commits the diff,
//! saying in CHANGES.md why each line moved:
//!
//! ```text
//! cargo test --release -p lsm-bench --test cost_parity -- --ignored
//! ```

use lsm_bench::golden::{self, Costs};
use lsm_bench::{figures, loaded, open_tweet_dataset, tweet_dataset_config, Env, EnvConfig};
use lsm_common::Value;
use lsm_engine::recovery::{checkpoint, recover, simulate_crash, CheckpointState};
use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
use lsm_storage::{
    CpuCosts, DiskProfile, Event, IoStatsSnapshot, SimClock, Storage, StorageOptions,
};
use lsm_workload::{Op, TweetConfig, UpdateDistribution::Uniform, UpsertWorkload};
use std::sync::Arc;
use StrategyKind::{DeletedKeyBTree, Eager, MutableBitmap, Validation};

const UPSERTS: usize = 20_000;
const DATASET_BYTES: u64 = 10 << 20;

/// One test per ledger row, and [`ROWS`]: every test's name and script.
macro_rules! ledger {
    ($($test:ident => $script:expr,)*) => {
        const ROWS: &[(&str, fn() -> Costs)] = &[$((stringify!($test), || $script)),*];
        $(#[test]
        fn $test() {
            golden::check_ledger(row(stringify!($test)), $script)
        })*
    };
}

ledger! {
    validation_ingest_is_charged_what_the_parent_charged => ingest(Validation, |_| {}),
    eager_ingest_is_charged_what_the_parent_charged => ingest(Eager, |_| {}),
    validation_correlated_ingest_is_charged_what_the_parent_charged =>
        ingest(Validation, correlated),
    eager_churn_is_charged_what_the_parent_charged => churn(Eager),
    validation_churn_is_charged_what_the_parent_charged => churn(Validation),
    mutable_bitmap_churn_is_charged_what_the_parent_charged => churn(MutableBitmap),
    deleted_key_btree_churn_is_charged_what_the_parent_charged => churn(DeletedKeyBTree),
    validation_batch_1_ingest_is_charged_what_the_parent_charged => batched_ingest(Validation, 1),
    validation_batch_32_ingest_is_charged_what_the_parent_charged => batched_ingest(Validation, 32),
    eager_batch_1_ingest_is_charged_what_the_parent_charged => batched_ingest(Eager, 1),
    eager_batch_32_ingest_is_charged_what_the_parent_charged => batched_ingest(Eager, 32),
    eager_reads_are_charged_what_the_parent_charged => read_script(Eager),
    validation_reads_are_charged_what_the_parent_charged => read_script(Validation),
    mutable_bitmap_reads_are_charged_what_the_parent_charged => read_script(MutableBitmap),
    deleted_key_btree_reads_are_charged_what_the_parent_charged => read_script(DeletedKeyBTree),
}

/// The ledger row of test `test`: its name up to `_is_`/`_are_charged`.
fn row(test: &str) -> &str {
    let end = test.find("_is_charged").or(test.find("_are_charged"));
    &test[..end.expect("a ledger test name")]
}

/// Rewrites every golden file from this tree: the ledger, then every
/// figure at scale 0.01 and at full scale.
#[test]
#[ignore = "rewrites crates/bench/golden/; run it optimized and review the diff"]
fn rewrite_golden_files() {
    let rows = ROWS.iter().map(|(test, run)| (row(test), run()));
    golden::write("ledger.tsv", &golden::ledger(rows));
    for scale in [0.01, 1.0] {
        golden::write(&format!("figures-{scale}.tsv"), &figures::tsv(scale));
    }
}

/// The ledger rows' environment: `Env::new`'s for a dataset of
/// `DATASET_BYTES`.
fn env_config() -> EnvConfig {
    EnvConfig {
        dataset_bytes: DATASET_BYTES,
        ..Default::default()
    }
}

/// Every price of an environment: its devices' and its CPU's.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Prices {
    disk: DiskProfile,
    cpu: CpuCosts,
}

impl Prices {
    /// The prices `Env::new` charges: the HDD and the default CPU costs.
    fn ledger() -> Self {
        Prices {
            disk: DiskProfile::hdd(),
            cpu: CpuCosts::default(),
        }
    }

    /// Every price twice over.
    fn doubled(self) -> Self {
        let (d, c) = (self.disk, self.cpu);
        Prices {
            disk: DiskProfile {
                seek_ns: 2 * d.seek_ns,
                transfer_ns_per_byte: 2 * d.transfer_ns_per_byte,
                write_seek_ns: 2 * d.write_seek_ns,
            },
            cpu: CpuCosts {
                key_cmp_ns: 2 * c.key_cmp_ns,
                bloom_probe_miss_ns: 2 * c.bloom_probe_miss_ns,
                bloom_probe_hit_ns: 2 * c.bloom_probe_hit_ns,
                btree_node_visit_ns: 2 * c.btree_node_visit_ns,
                memtable_op_ns: 2 * c.memtable_op_ns,
                sort_entry_ns: 2 * c.sort_entry_ns,
            },
        }
    }

    /// `Env::new(&env_config())` built by hand, at these prices.
    fn env(&self) -> Env {
        let cfg = env_config();
        let cache_bytes = (cfg.dataset_bytes as f64 * cfg.cache_fraction) as usize;
        let opts = StorageOptions {
            profile: self.disk,
            cpu: self.cpu,
            ..StorageOptions::hdd(cache_bytes)
        };
        let clock = SimClock::new();
        Env {
            storage: Storage::with_clock(opts.clone(), clock.clone()),
            log_storage: Storage::with_clock(opts, clock.clone()),
            clock,
        }
    }

    fn price(&self, event: Event) -> u64 {
        let cpu = &self.cpu;
        match event {
            Event::KeyCmp => cpu.key_cmp_ns,
            Event::NodeVisit => cpu.btree_node_visit_ns,
            Event::BloomProbeMiss => cpu.bloom_probe_miss_ns,
            Event::BloomProbeHit => cpu.bloom_probe_hit_ns,
            Event::MemtableOp => cpu.memtable_op_ns,
            Event::SortEntry => cpu.sort_entry_ns,
        }
    }

    /// Σ count × price of what `io` counted on a device of `page`-byte
    /// pages: read seeks, pages read, write seeks, pages written and every
    /// CPU event.
    fn of(&self, io: &IoStatsSnapshot, page: usize) -> u64 {
        let (disk, transfer) = (&self.disk, self.disk.transfer_ns(page));
        let cpu_ns: u64 = io.events().iter().map(|&(e, n)| n * self.price(e)).sum();
        assert_eq!(io.cpu_ns, cpu_ns, "cpu_ns is not the CPU counts priced");
        io.rand_reads * disk.seek_ns
            + io.disk_reads() * transfer
            + io.write_seeks * disk.write_seek_ns
            + io.pages_written * transfer
            + cpu_ns
    }

    /// Asserts that `env`'s clock reads Σ count × price over its data and
    /// log devices, the only devices on that clock.
    fn assert_clock(&self, env: &Env) {
        let priced = [&env.storage, &env.log_storage]
            .map(|s| self.of(&s.stats(), s.page_size()))
            .iter()
            .sum::<u64>();
        assert_eq!(env.clock.now_nanos(), priced, "clock ≠ Σ count × price");
    }
}

/// A change to the scripts' dataset configuration.
type Tweak = fn(&mut DatasetConfig);

/// The tweet dataset on `env` under `strategy` with `indexes` secondary
/// indexes, its config changed by `tweak`.
fn open(env: &Env, strategy: StrategyKind, indexes: usize, tweak: Tweak) -> Arc<Dataset> {
    let mut cfg = tweet_dataset_config(strategy, DATASET_BYTES, indexes);
    tweak(&mut cfg);
    open_tweet_dataset(env, cfg)
}

/// The disk components of `ds`'s primary, its pk index and its
/// secondary indexes (summed): the shape the merge schedule left, which
/// every row records.
fn components(ds: &Dataset) -> [(&'static str, u64); 3] {
    let count = |t: &lsm_tree::LsmTree| t.num_disk_components() as u64;
    [
        ("primary_components", count(ds.primary())),
        ("pk_components", ds.pk_index().map_or(0, count)),
        (
            "secondary_components",
            ds.secondaries().iter().map(|s| count(&s.tree)).sum(),
        ),
    ]
}

/// The clock, what the data and log devices were charged (with the data
/// device's write seeks: one per switch of the file appended to), the
/// flushes and merges so far and the components they left: the fields
/// every write script records. Asserts first that the clock is `prices` times
/// the counts.
fn charged(env: &Env, ds: &Dataset, prices: &Prices) -> Costs {
    prices.assert_clock(env);
    let (data, log) = (env.storage.stats(), env.log_storage.stats());
    let stats = ds.stats().snapshot();
    let mut costs = vec![
        ("sim_ns", env.clock.now_nanos()),
        ("cpu_ns", data.cpu_ns),
        ("data_bytes_written", data.bytes_written),
        ("data_pages_written", data.pages_written),
        ("data_write_seeks", data.write_seeks),
        ("log_bytes_written", log.bytes_written),
        ("log_pages_written", log.pages_written),
        ("flushes", stats.flushes),
        ("merges", stats.merges),
    ];
    costs.extend(components(ds));
    costs
}

/// Figure 20's Bloom-optimized repair configuration: correlated merges,
/// merge repair, the repair Bloom-filter optimization, blocked filters.
/// Its row is the one that pins the correlated merge of the primary, the
/// pk index and the merge-repaired secondary outside Mutable-bitmap.
fn correlated(cfg: &mut DatasetConfig) {
    cfg.merge.correlated = true;
    cfg.merge_repair = true;
    cfg.repair_bloom_opt = true;
    cfg.bloom_kind = lsm_bloom::BloomKind::Blocked;
}

/// Records the clocks when the last flush returned (`ingest_*`), what the
/// ingest and the repair were charged, and the repair's totals.
fn ingest(strategy: StrategyKind, tweak: Tweak) -> Costs {
    let env = Env::new(&env_config());
    let ds = open(&env, strategy, 1, tweak);
    loaded(&ds, UPSERTS, 0.5, Uniform);
    let (ingest_sim_ns, ingest_cpu_ns) = (env.clock.now_nanos(), env.storage.stats().cpu_ns);
    let reports = ds.maintenance().repair_all().expect("repair");
    let sum = |f: fn(&lsm_engine::RepairReport) -> u64| reports.iter().map(f).sum();
    let data = env.storage.stats();
    let mut costs = charged(&env, &ds, &Prices::ledger());
    costs.extend([
        ("ingest_sim_ns", ingest_sim_ns),
        ("ingest_cpu_ns", ingest_cpu_ns),
        ("data_bytes_read", data.bytes_read),
        ("bloom_checks", data.bloom_checks),
        ("repair_entries_scanned", sum(|r| r.entries_scanned)),
        ("repair_keys_validated", sum(|r| r.keys_validated)),
        ("repair_skipped_by_bloom", sum(|r| r.skipped_by_bloom)),
        ("repair_invalidated", sum(|r| r.invalidated)),
    ]);
    costs
}

/// Every 7th op deletes an earlier key (perhaps a deleted one), every 13th
/// inserts a duplicate of the last upsert. The second index is on
/// `location`, whose 50 values leave it unchanged by one update in fifty.
/// A checkpoint at op 9 000, then the log is forced and the process
/// crashes and recovers. Records the counters, the replay report, the log
/// and data pages recovery read, the memory components (the replayed
/// tail), the clock and the log's length.
fn churn(strategy: StrategyKind) -> Costs {
    churn_on(&Env::new(&env_config()), &Prices::ledger(), strategy)
}

/// [`churn`] on `env`, whose prices are `prices`.
fn churn_on(env: &Env, prices: &Prices, strategy: StrategyKind) -> Costs {
    let ds = open(env, strategy, 2, |cfg| {
        cfg.secondary_indexes[1] = SecondaryIndexDef {
            name: "location".into(),
            field: 2,
        }
    });
    let state = CheckpointState::new();
    let mut workload = UpsertWorkload::new(TweetConfig::default(), 0.5, Uniform);
    let mut last = None;
    for i in 1..=12_000 {
        if i % 7 == 0 {
            let issued = workload.generator();
            let key = issued.issued_key(i * 7_919 % issued.num_issued());
            ds.delete(&Value::Int(key)).expect("delete");
        } else if i % 13 == 0 {
            let dup = last.as_ref().expect("an upsert came first");
            ds.insert(dup).expect("insert");
        } else {
            let op = workload.next_op();
            lsm_bench::apply(&ds, &op);
            last = Some(op.record().clone());
        }
        if i == 9_000 {
            checkpoint(&ds, &state).expect("checkpoint");
        }
    }
    let wal = ds.wal().expect("bench datasets log");
    wal.force().expect("force");
    simulate_crash(&ds, &state).expect("crash");
    // Every page read on a device, whether the cache held it or not.
    let pages_read = |device: &Storage| {
        let io = device.stats();
        io.disk_reads() + io.cache_hits
    };
    let before = env.clock.now_nanos();
    let (log_before, data_before) = (pages_read(&env.log_storage), pages_read(&env.storage));
    let report = recover(&ds, &state).expect("recover");
    let recovery_log_pages_read = pages_read(&env.log_storage) - log_before;
    let recovery_data_pages_read = pages_read(&env.storage) - data_before;
    let (data, stats) = (env.storage.stats(), ds.stats().snapshot());
    let mut costs = charged(env, &ds, prices);
    costs.extend([
        ("recovery_sim_ns", env.clock.now_nanos() - before),
        ("recovery_log_pages_read", recovery_log_pages_read),
        ("recovery_data_pages_read", recovery_data_pages_read),
        ("data_bytes_read", data.bytes_read),
        ("bloom_checks", data.bloom_checks),
        ("deletes", stats.deletes),
        ("inserts_rejected", stats.inserts_rejected),
        ("maintenance_lookups", stats.maintenance_lookups),
        ("replayed", report.replayed),
        ("skipped", report.skipped),
        ("mem_total_bytes", ds.mem_total_bytes() as u64),
        ("clock", ds.clock().now()),
    ]);
    // Last: reading the log charges the log device.
    let log_records = wal.replay(0, true).expect("read the log").len();
    costs.push(("log_records", log_records as u64));
    prices.assert_clock(env);
    costs
}

/// The churn script at twice every price counts every event on both
/// devices that it counts at the ledger's prices, records every field of
/// its ledger row but the times, and is charged exactly twice the time:
/// its clock is Σ count × doubled price.
#[test]
fn prices_steer_nothing() {
    let counted = |prices: Prices| {
        let env = prices.env();
        let costs = churn_on(&env, &prices, MutableBitmap);
        (costs, [env.storage.stats(), env.log_storage.stats()])
    };
    let (costs, io) = counted(Prices::ledger());
    let (doubled, doubled_io) = counted(Prices::ledger().doubled());
    let uncharged = |io: [IoStatsSnapshot; 2]| io.map(|d| IoStatsSnapshot { cpu_ns: 0, ..d });
    assert_eq!(uncharged(doubled_io), uncharged(io));
    let halved = doubled.iter().map(|&(field, v)| match field {
        "sim_ns" | "cpu_ns" | "recovery_sim_ns" => {
            assert_eq!(v % 2, 0, "{field}");
            (field, v / 2)
        }
        _ => (field, v),
    });
    assert_eq!(halved.collect::<Costs>(), costs);
    golden::check_ledger("mutable_bitmap_churn", costs);
}

/// A batch of one is charged what [`ingest`] is at its last flush;
/// batches of 32 check the memory budget once per commit, so flush less.
fn batched_ingest(strategy: StrategyKind, batch: usize) -> Costs {
    let env = Env::new(&env_config());
    let ds = open(&env, strategy, 1, |_| {});
    let mut workload = UpsertWorkload::new(TweetConfig::default(), 0.5, Uniform);
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
    let stats = ds.stats().snapshot();
    let mut costs = charged(&env, &ds, &Prices::ledger());
    costs.extend([
        ("wal_groups", stats.wal_groups),
        ("wal_grouped_records", stats.wal_grouped_records),
        ("maintenance_lookups", stats.maintenance_lookups),
        ("clock", ds.clock().now()),
    ]);
    costs
}

/// Charged alone: 200 gets (one in ten of an absent key); `eq` and
/// `range` queries; a query-driven repair, then the index-only query that
/// reads the marks it left; `limit(10)`; a stream; and filter scans,
/// counted and collected, over an old, a middle and a recent window.
fn read_script(strategy: StrategyKind) -> Costs {
    let env = Env::new(&env_config());
    let ds = open(&env, strategy, 1, |_| {});
    let workload = loaded(&ds, UPSERTS, 0.5, Uniform);
    let issued = workload.generator();
    let (t0, before) = (env.clock.now_nanos(), env.storage.stats());
    let mut rows = 0;
    for i in 0..200usize {
        let pk = match i % 10 {
            9 => -1 - i as i64,
            _ => issued.issued_key(i * 7_919 % issued.num_issued()),
        };
        rows += u64::from(ds.get(&Value::Int(pk)).expect("get").is_some());
    }
    for uid in [7, 4_242, 55_555, 99_999] {
        rows += ds.query("user_id").eq(uid).execute().expect("eq").len() as u64;
    }
    let range = |lo: i64, hi: i64| ds.query("user_id").range(lo, hi);
    let repairing = range(10_000, 19_999).query_driven_repair(true);
    for query in [range(0, 9_999), range(50_000, 50_999), repairing] {
        rows += query.execute().expect("query").len() as u64;
    }
    let index_only = range(10_000, 19_999).index_only().execute();
    let keys = index_only.expect("index-only").len() as u64;
    let limited = range(20_000, 39_999).limit(10).execute();
    rows += limited.expect("limit").len() as u64;
    let stream = range(60_000, 69_999).stream().expect("stream");
    rows += stream.collect::<Result<Vec<_>, _>>().expect("stream").len() as u64;
    let w = issued.time_watermark();
    let mut matches = 0;
    for scan in [
        ds.filter_scan().range_to(w / 10),
        ds.filter_scan().range(w / 2, w / 2 + w / 20),
        ds.filter_scan().range_from(w - w / 10),
    ] {
        matches += scan.clone().count().expect("count").matches;
        matches += scan.records().expect("records").len() as u64;
    }
    let io = env.storage.stats().since(&before);
    assert_eq!(io.pages_written, 0, "the reads write no page");
    Prices::ledger().assert_clock(&env);
    let mut costs = vec![
        ("sim_ns", env.clock.now_nanos() - t0),
        ("cpu_ns", io.cpu_ns),
        ("seq_reads", io.seq_reads),
        ("rand_reads", io.rand_reads),
        ("cache_hits", io.cache_hits),
        ("bytes_read", io.bytes_read),
        ("bloom_checks", io.bloom_checks),
        ("bloom_negatives", io.bloom_negatives),
        ("batched_lookups_saved", io.batched_lookups_saved),
        ("bridged_pages", io.bridged_pages),
        // The reads write nothing: these are the load's flushes and merges.
        ("data_write_seeks", env.storage.stats().write_seeks),
        ("rows", rows),
        ("keys", keys),
        ("matches", matches),
    ];
    costs.extend(components(&ds));
    costs
}
