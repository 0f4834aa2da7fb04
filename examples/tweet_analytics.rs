//! Tweet analytics: the paper's motivating workload (Section 1) end-to-end.
//!
//! ```sh
//! cargo run --release -p lsm-engine --example tweet_analytics
//! ```
//!
//! Ingests a stream of tweets with updates, then answers ad-hoc analytics
//! queries: secondary-index range queries on `user_id` at several
//! selectivities (comparing naive vs fully optimized index-to-index
//! navigation, Section 3.2) and time-window scans over the range filter.

use lsm_common::Value;
use lsm_engine::{Dataset, DatasetConfig, QueryOptions, SecondaryIndexDef, StrategyKind};
use lsm_storage::{Storage, StorageOptions};
use lsm_workload::{
    SelectivityQueries, TweetConfig, TweetGenerator, UpdateDistribution, UpsertWorkload,
};

fn main() {
    let n = 40_000;
    let dataset_bytes = n as u64 * 550;
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = StrategyKind::Validation;
    cfg.secondary_indexes.push(SecondaryIndexDef {
        name: "user_id".into(),
        field: 1,
    });
    cfg.filter_field = Some(3); // creation_time
    cfg.memory_budget = (dataset_bytes / 100) as usize;
    cfg.merge.max_mergeable_bytes = dataset_bytes / 20;

    let storage = Storage::new(StorageOptions::hdd((dataset_bytes / 15) as usize));
    let ds = Dataset::open(storage, None, cfg).expect("dataset");

    println!("ingesting {n} tweets (10% updates)...");
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.1, UpdateDistribution::Uniform);
    let max_time = {
        // Ingest through the WriteBatch API: 32 records per commit, each
        // batch one atomic unit (and one WAL group when a log is attached).
        let mut batch = ds.batch();
        for _ in 0..n {
            batch = match workload.next_op() {
                lsm_workload::Op::Upsert(r) => batch.upsert(&r),
                lsm_workload::Op::Insert(r) => batch.insert(&r),
            };
            if batch.len() == 32 {
                batch.commit().expect("batch commit");
                batch = ds.batch();
            }
        }
        if !batch.is_empty() {
            batch.commit().expect("batch commit");
        }
        workload.generator().time_watermark()
    };
    ds.flush_all().expect("flush");
    let s = ds.stats().snapshot();
    println!(
        "  {} records, {} flushes, {} merges, {} disk components",
        ds.stats().records_ingested(),
        s.flushes,
        s.merges,
        ds.primary().num_disk_components()
    );

    println!("\nuser-id queries (sim-ms, averaged over 3 ranges):");
    println!("selectivity\tnaive\toptimized");
    let mut queries = SelectivityQueries::new(11);
    for sel in [0.0001, 0.001, 0.01] {
        let mut times = [0.0f64; 2];
        // Naive vs fully optimized index-to-index navigation (§3.2); the
        // validation method is resolved from the strategy in both cases.
        for (i, naive) in [true, false].into_iter().enumerate() {
            let clock = ds.storage().clock();
            let t0 = clock.now_secs();
            for _ in 0..3 {
                let (lo, hi) = queries.user_id_range(sel);
                let q = ds.query("user_id").range(lo, hi);
                let opts = *q.clone().build().expect("query").options();
                let q = q.with_options(QueryOptions {
                    batched: !naive,
                    stateful: !naive,
                    ..opts
                });
                let res = q.execute().expect("query");
                std::hint::black_box(res.len());
            }
            times[i] = (clock.now_secs() - t0) / 3.0 * 1e3;
        }
        println!("{:.2}%\t\t{:.2}\t{:.2}", sel * 100.0, times[0], times[1]);
    }

    // Stream the heaviest range with bounded memory: the per-batch record
    // fetch reuses the same batching machinery as the collecting path.
    let (lo, hi) = queries.user_id_range(0.01);
    let mut stream = ds.query("user_id").range(lo, hi).stream().expect("stream");
    let streamed = (&mut stream).filter(|r| r.is_ok()).count();
    println!(
        "\nstreamed {} records in {} batches (≤{} keys per batch)",
        streamed,
        stream.batches_fetched(),
        stream.keys_per_batch()
    );

    println!("\ntime-window scans (range filter on creation_time):");
    for (name, lo, hi) in [
        (
            "most recent day ",
            Some(Value::Int(max_time - max_time / 730)),
            None,
        ),
        ("oldest day      ", None, Some(Value::Int(max_time / 730))),
    ] {
        ds.storage().clear_cache();
        let clock = ds.storage().clock();
        let t0 = clock.now_secs();
        let mut scan = ds.filter_scan();
        if let Some(lo) = lo {
            scan = scan.range_from(lo);
        }
        if let Some(hi) = hi {
            scan = scan.range_to(hi);
        }
        let r = scan.count().expect("scan");
        println!(
            "  {name}: {} tweets, {}/{} components pruned, {:.2} sim-ms",
            r.matches,
            r.components_pruned,
            r.components_pruned + r.components_scanned,
            (clock.now_secs() - t0) * 1e3
        );
    }

    report_io(&ds);
}

fn report_io(ds: &Dataset) {
    let io = ds.storage().stats();
    println!(
        "\nI/O totals: {} random reads, {} sequential reads, {:.1}% cache hits, {} pages written",
        io.rand_reads,
        io.seq_reads,
        io.cache_hit_ratio() * 100.0,
        io.pages_written
    );
}
