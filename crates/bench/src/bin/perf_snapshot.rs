//! CI perf snapshot: ingest throughput and point-lookup latency, inline vs
//! background maintenance, a maintenance-heavy scenario — many small
//! datasets against one shared [`MaintenanceRuntime`] vs inline — a
//! fairness scenario (hot flooding dataset vs quiet datasets on a
//! quota-limited runtime), a query-heavy scenario (serial vs `parallel(4)`
//! secondary range queries over a multi-component dataset), and a
//! repair-heavy scenario (standalone repair of an update-heavy lazy
//! dataset), a device sweep (the same inline ingest
//! on the hdd / ssd / nvme profiles), a multi-writer scenario
//! (1/2/4/8 writer threads committing `WriteBatch`es against one sharded,
//! WAL-backed dataset — the group-commit measurement), a scan-heavy
//! scenario (serial vs `parallel(4)` filter scans, with live on-disk bytes
//! and cache hit-rates), and an index-only scenario (cold-cache
//! `index_only()` secondary range queries, with device bytes read),
//! written as JSON so the perf trajectory accumulates across commits.
//! Schema history is documented in `docs/OPERATIONS.md` (`schema_version`
//! 10: the `query_heavy` row no longer reports a cache shard count).
//!
//! ```sh
//! cargo run -p lsm-bench --release --bin perf_snapshot
//! ```
//!
//! Writes `BENCH_ingest.json` to the current directory (override the path
//! with `BENCH_OUT`, the workload size with `LSM_BENCH_SCALE`). CI uploads
//! the file as a build artifact.

use lsm_bench::{
    pk_of, run_fairness_scenario, run_index_only_scenario, run_multi_writer_scenario,
    run_query_heavy_scenario, run_repair_heavy_scenario, run_scan_heavy_scenario,
    run_shared_runtime_scenario, scale, scaled, tweet_dataset_config, BenchDevice, Env, EnvConfig,
    FairnessRun, IndexOnlyRun, MultiWriterRun, QueryHeavyRun, RepairHeavyRun, ScanHeavyRun,
    SharedRuntimeRun,
};
use lsm_common::Value;
use lsm_engine::{Dataset, EngineConfig, MaintenanceMode, MaintenanceRuntime, StrategyKind};
use lsm_workload::{Op, TweetConfig, UpdateDistribution, UpsertWorkload};
use std::sync::Arc;
use std::time::Instant;

// Count every heap allocation so the zero-copy fetch path's
// allocations-per-lookup lands in the perf trajectory.
#[global_allocator]
static ALLOC: lsm_bench::alloc_track::CountingAlloc = lsm_bench::alloc_track::CountingAlloc;

struct VariantResult {
    mode: &'static str,
    records: usize,
    ingest_wall_secs: f64,
    ingest_ops_per_sec: f64,
    quiesce_wall_secs: f64,
    lookup_wall_us: f64,
    lookup_allocs_per_op: f64,
    flushes: u64,
    merges: u64,
    flush_jobs: u64,
    merge_jobs: u64,
    backpressure_stalls: u64,
}

fn open(env: &Env, mode: MaintenanceMode, dataset_bytes: u64) -> Arc<Dataset> {
    let mut cfg = tweet_dataset_config(StrategyKind::Validation, dataset_bytes, 1);
    cfg.maintenance = mode;
    Dataset::open(env.storage.clone(), Some(env.log_storage.clone()), cfg).expect("dataset")
}

fn run(mode: &'static str, maintenance: MaintenanceMode, n: usize) -> VariantResult {
    run_on_device(mode, BenchDevice::Ssd, maintenance, n)
}

fn run_on_device(
    mode: &'static str,
    device: BenchDevice,
    maintenance: MaintenanceMode,
    n: usize,
) -> VariantResult {
    let dataset_bytes = (n as u64) * 550;
    let env = Env::new_with_device(
        device,
        &EnvConfig {
            dataset_bytes,
            ..Default::default()
        },
    );
    let ds = open(&env, maintenance, dataset_bytes);
    let mut workload =
        UpsertWorkload::new(TweetConfig::default(), 0.5, UpdateDistribution::Uniform);

    let mut probe_keys = Vec::new();
    let start = Instant::now();
    for i in 0..n {
        let op = workload.next_op();
        if i % 37 == 0 {
            let r = match &op {
                Op::Insert(r) | Op::Upsert(r) => r,
            };
            probe_keys.push(pk_of(r));
        }
        lsm_bench::apply(&ds, &op);
    }
    let ingest_wall_secs = start.elapsed().as_secs_f64();

    let q = Instant::now();
    ds.maintenance().quiesce().expect("quiesce");
    let quiesce_wall_secs = q.elapsed().as_secs_f64();

    let l = Instant::now();
    let allocs_before = lsm_bench::alloc_track::allocations();
    let mut found = 0usize;
    for pk in &probe_keys {
        if ds.get(&Value::Int(*pk)).expect("lookup").is_some() {
            found += 1;
        }
    }
    let lookup_allocs = lsm_bench::alloc_track::allocations() - allocs_before;
    assert!(found > 0, "lookups found no records");
    let lookup_wall_us = l.elapsed().as_secs_f64() * 1e6 / probe_keys.len() as f64;
    let lookup_allocs_per_op = lookup_allocs as f64 / probe_keys.len() as f64;

    let snap = ds.stats().snapshot();
    VariantResult {
        mode,
        records: n,
        ingest_wall_secs,
        ingest_ops_per_sec: n as f64 / ingest_wall_secs,
        quiesce_wall_secs,
        lookup_wall_us,
        lookup_allocs_per_op,
        flushes: snap.flushes,
        merges: snap.merges,
        flush_jobs: snap.flush_jobs,
        merge_jobs: snap.merge_jobs,
        backpressure_stalls: snap.backpressure_stalls,
    }
}

struct MultiResult {
    mode: &'static str,
    datasets: usize,
    records_per_dataset: usize,
    run: SharedRuntimeRun,
}

fn json_multi(v: &MultiResult) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"{}\",\n",
            "      \"datasets\": {},\n",
            "      \"records_per_dataset\": {},\n",
            "      \"ingest_wall_secs\": {:.4},\n",
            "      \"ingest_ops_per_sec\": {:.1},\n",
            "      \"quiesce_wall_secs\": {:.4},\n",
            "      \"flush_jobs\": {},\n",
            "      \"merge_jobs\": {},\n",
            "      \"peak_workers\": {}\n",
            "    }}"
        ),
        v.mode,
        v.datasets,
        v.records_per_dataset,
        v.run.ingest_wall_secs,
        v.run.ingest_ops_per_sec,
        v.run.quiesce_wall_secs,
        v.run.flush_jobs,
        v.run.merge_jobs,
        v.run.peak_workers,
    )
}

fn json_fairness(f: &FairnessRun) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"hot-vs-quiet-quota1\",\n",
            "      \"hot_records\": {},\n",
            "      \"quiet_datasets\": {},\n",
            "      \"quiet_records_per_dataset\": {},\n",
            "      \"quiet_latency_secs_mean\": {:.4},\n",
            "      \"quiet_latency_secs_max\": {:.4},\n",
            "      \"hot_backlog_at_quiet_done\": {},\n",
            "      \"quota_deferrals\": {},\n",
            "      \"peak_workers\": {}\n",
            "    }}"
        ),
        f.hot_records,
        f.quiet_datasets,
        f.quiet_records_per_dataset,
        f.quiet_latency_secs_mean,
        f.quiet_latency_secs_max,
        f.hot_backlog_at_quiet_done,
        f.quota_deferrals,
        f.peak_workers,
    )
}

fn json_query_heavy(q: &QueryHeavyRun) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"serial-vs-parallel-{}\",\n",
            "      \"records\": {},\n",
            "      \"queries\": {},\n",
            "      \"components\": {},\n",
            "      \"rows\": {},\n",
            "      \"partitions\": {},\n",
            "      \"serial_wall_secs\": {:.4},\n",
            "      \"parallel_wall_secs\": {:.4},\n",
            "      \"serial_queries_per_sec\": {:.1},\n",
            "      \"parallel_queries_per_sec\": {:.1},\n",
            "      \"speedup\": {:.3}\n",
            "    }}"
        ),
        q.parallelism,
        q.records,
        q.queries,
        q.components,
        q.rows,
        q.partitions,
        q.serial_wall_secs,
        q.parallel_wall_secs,
        q.queries as f64 / q.serial_wall_secs.max(1e-9),
        q.queries as f64 / q.parallel_wall_secs.max(1e-9),
        q.speedup,
    )
}

fn json_scan_heavy(s: &ScanHeavyRun) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"filter-scan-plain\",\n",
            "      \"records\": {},\n",
            "      \"scans\": {},\n",
            "      \"parallelism\": {},\n",
            "      \"components\": {},\n",
            "      \"index_bytes\": {},\n",
            "      \"rows\": {},\n",
            "      \"partitions\": {},\n",
            "      \"serial_wall_secs\": {:.4},\n",
            "      \"parallel_wall_secs\": {:.4},\n",
            "      \"speedup\": {:.3},\n",
            "      \"serial_cache_hit_ratio\": {:.4},\n",
            "      \"parallel_cache_hit_ratio\": {:.4}\n",
            "    }}"
        ),
        s.records,
        s.scans,
        s.parallelism,
        s.components,
        s.index_bytes,
        s.rows,
        s.partitions,
        s.serial_wall_secs,
        s.parallel_wall_secs,
        s.speedup,
        s.serial_cache_hit_ratio,
        s.parallel_cache_hit_ratio,
    )
}

fn json_index_only(r: &IndexOnlyRun) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"index-only-plain\",\n",
            "      \"records\": {},\n",
            "      \"queries\": {},\n",
            "      \"index_bytes\": {},\n",
            "      \"bytes_read\": {},\n",
            "      \"rows\": {},\n",
            "      \"rows_per_sec\": {:.1},\n",
            "      \"wall_secs\": {:.4}\n",
            "    }}"
        ),
        r.records, r.queries, r.index_bytes, r.bytes_read, r.rows, r.rows_per_sec, r.wall_secs,
    )
}

fn json_repair_heavy(r: &RepairHeavyRun) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"standalone-repair\",\n",
            "      \"records\": {},\n",
            "      \"repair_wall_secs\": {:.4},\n",
            "      \"repair_sim_secs\": {:.4},\n",
            "      \"entries_scanned\": {},\n",
            "      \"keys_validated\": {},\n",
            "      \"invalidated\": {}\n",
            "    }}"
        ),
        r.records,
        r.repair_wall_secs,
        r.repair_sim_secs,
        r.entries_scanned,
        r.keys_validated,
        r.invalidated,
    )
}

fn json_multi_writer(m: &MultiWriterRun) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"writers-{}\",\n",
            "      \"writers\": {},\n",
            "      \"records\": {},\n",
            "      \"batch\": {},\n",
            "      \"ingest_wall_secs\": {:.4},\n",
            "      \"ingest_ops_per_sec\": {:.1},\n",
            "      \"backpressure_stalls\": {},\n",
            "      \"wal_groups\": {},\n",
            "      \"wal_records_per_group\": {:.2}\n",
            "    }}"
        ),
        m.writers,
        m.writers,
        m.records,
        m.batch,
        m.ingest_wall_secs,
        m.ingest_ops_per_sec,
        m.backpressure_stalls,
        m.wal_groups,
        m.wal_records_per_group,
    )
}

fn json_variant(v: &VariantResult) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"{}\",\n",
            "      \"records\": {},\n",
            "      \"ingest_wall_secs\": {:.4},\n",
            "      \"ingest_ops_per_sec\": {:.1},\n",
            "      \"quiesce_wall_secs\": {:.4},\n",
            "      \"point_lookup_us\": {:.3},\n",
            "      \"lookup_allocs_per_op\": {:.2},\n",
            "      \"flushes\": {},\n",
            "      \"merges\": {},\n",
            "      \"flush_jobs\": {},\n",
            "      \"merge_jobs\": {},\n",
            "      \"backpressure_stalls\": {}\n",
            "    }}"
        ),
        v.mode,
        v.records,
        v.ingest_wall_secs,
        v.ingest_ops_per_sec,
        v.quiesce_wall_secs,
        v.lookup_wall_us,
        v.lookup_allocs_per_op,
        v.flushes,
        v.merges,
        v.flush_jobs,
        v.merge_jobs,
        v.backpressure_stalls,
    )
}

fn main() {
    let n = scaled(40_000);
    let variants = [
        run("inline", MaintenanceMode::Inline, n),
        run(
            "background-2w",
            MaintenanceMode::Background { workers: 2 },
            n,
        ),
    ];

    // Maintenance-heavy scenario: many small datasets, inline vs one
    // shared 4-worker runtime serving all of them.
    let multi_datasets = 8;
    let n_per = scaled(40_000) / multi_datasets;
    let shared_rt = MaintenanceRuntime::start(
        EngineConfig::builder()
            .min_workers(1)
            .max_workers(4)
            .build()
            .expect("runtime config"),
    )
    .expect("runtime");
    let multi = [
        MultiResult {
            mode: "multi-inline",
            datasets: multi_datasets,
            records_per_dataset: n_per,
            run: run_shared_runtime_scenario(None, multi_datasets, n_per),
        },
        MultiResult {
            mode: "multi-shared-4w",
            datasets: multi_datasets,
            records_per_dataset: n_per,
            run: run_shared_runtime_scenario(Some(&shared_rt), multi_datasets, n_per),
        },
    ];

    // Fairness scenario (schema_version 3): one hot dataset floods a
    // quota-limited shared runtime while 9 quiet datasets each need a
    // flush — the starvation case the deficit-round-robin scheduler
    // bounds.
    let fairness = [run_fairness_scenario(9, scaled(30_000), scaled(3_000))];

    // Query-heavy scenario (schema_version 4): the same secondary range
    // queries serially and with parallel(4) over a multi-component dataset
    // — the read-path acceptance measurement.
    let query_heavy = [run_query_heavy_scenario(scaled(60_000), 24, 4)];

    // Repair-heavy scenario (schema_version 4): standalone repair of an
    // update-heavy lazy dataset, closing the ROADMAP CI item.
    let repair_heavy = [run_repair_heavy_scenario(scaled(40_000))];

    // Device sweep (schema_version 5): the same inline ingest on every
    // simulated device profile, so device-model changes show up in the
    // perf trajectory.
    let device_n = scaled(20_000);
    let device_sweep = [
        run_on_device("hdd", BenchDevice::Hdd, MaintenanceMode::Inline, device_n),
        run_on_device("ssd", BenchDevice::Ssd, MaintenanceMode::Inline, device_n),
        run_on_device("nvme", BenchDevice::Nvme, MaintenanceMode::Inline, device_n),
    ];

    // Multi-writer scenario (schema_version 6): 1/2/4/8 writer threads
    // committing WriteBatches against one sharded, WAL-backed dataset —
    // the group-commit acceptance measurement (`wal_records_per_group > 1`
    // once commits actually overlap).
    let mw_n = scaled(20_000);
    let multi_writer: Vec<MultiWriterRun> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| run_multi_writer_scenario(w, mw_n, 32))
        .collect();

    // Scan-heavy scenario (schema_version 7): serial vs parallel(4) filter
    // scans over one pre-loaded dataset — the read-path measurement, with
    // the live bytes on disk beside it.
    let scan_heavy = [run_scan_heavy_scenario(scaled(60_000), 24, 4)];

    // Index-only scenario (schema_version 8): cold-cache `index_only()`
    // secondary range queries — every byte read is index structure.
    let index_only = [run_index_only_scenario(scaled(60_000), 24)];

    let body: Vec<String> = variants.iter().map(json_variant).collect();
    let multi_body: Vec<String> = multi.iter().map(json_multi).collect();
    let fairness_body: Vec<String> = fairness.iter().map(json_fairness).collect();
    let query_body: Vec<String> = query_heavy.iter().map(json_query_heavy).collect();
    let repair_body: Vec<String> = repair_heavy.iter().map(json_repair_heavy).collect();
    let device_body: Vec<String> = device_sweep.iter().map(json_variant).collect();
    let mw_body: Vec<String> = multi_writer.iter().map(json_multi_writer).collect();
    let scan_body: Vec<String> = scan_heavy.iter().map(json_scan_heavy).collect();
    let index_only_body: Vec<String> = index_only.iter().map(json_index_only).collect();
    let json = format!(
        "{{\n  \"schema_version\": 10,\n  \"bench\": \"ingest\",\n  \"scale\": {},\n  \"variants\": [\n{}\n  ],\n  \"maintenance_heavy\": [\n{}\n  ],\n  \"fairness\": [\n{}\n  ],\n  \"query_heavy\": [\n{}\n  ],\n  \"repair_heavy\": [\n{}\n  ],\n  \"device_sweep\": [\n{}\n  ],\n  \"multi_writer\": [\n{}\n  ],\n  \"scan_heavy\": [\n{}\n  ],\n  \"index_only\": [\n{}\n  ]\n}}\n",
        scale(),
        body.join(",\n"),
        multi_body.join(",\n"),
        fairness_body.join(",\n"),
        query_body.join(",\n"),
        repair_body.join(",\n"),
        device_body.join(",\n"),
        mw_body.join(",\n"),
        scan_body.join(",\n"),
        index_only_body.join(",\n")
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_ingest.json".into());
    std::fs::write(&out, &json).expect("write snapshot");
    println!("{json}");
    for v in &variants {
        eprintln!(
            "{}: {:.0} ops/s ingest, {:.2}us lookup, {} stalls",
            v.mode, v.ingest_ops_per_sec, v.lookup_wall_us, v.backpressure_stalls
        );
    }
    for m in &multi {
        eprintln!(
            "{}: {} datasets × {} recs, {:.0} ops/s aggregate, peak {} workers",
            m.mode, m.datasets, m.records_per_dataset, m.run.ingest_ops_per_sec, m.run.peak_workers
        );
    }
    for f in &fairness {
        eprintln!(
            "fairness: {} quiet × {} recs vs hot {} recs — quiet latency mean {:.3}s max {:.3}s, \
             {} quota deferrals, hot backlog {}",
            f.quiet_datasets,
            f.quiet_records_per_dataset,
            f.hot_records,
            f.quiet_latency_secs_mean,
            f.quiet_latency_secs_max,
            f.quota_deferrals,
            f.hot_backlog_at_quiet_done
        );
    }
    for q in &query_heavy {
        eprintln!(
            "query_heavy: {} queries × {} recs over {} components — \
             serial {:.3}s vs parallel({}) {:.3}s = {:.2}x ({} partitions)",
            q.queries,
            q.records,
            q.components,
            q.serial_wall_secs,
            q.parallelism,
            q.parallel_wall_secs,
            q.speedup,
            q.partitions
        );
    }
    for r in &repair_heavy {
        eprintln!(
            "repair_heavy: {} recs — repair {:.3}s wall / {:.3}s sim, {} scanned, {} invalidated",
            r.records, r.repair_wall_secs, r.repair_sim_secs, r.entries_scanned, r.invalidated
        );
    }
    for d in &device_sweep {
        eprintln!(
            "device_sweep {}: {:.0} ops/s ingest, {:.2}us lookup",
            d.mode, d.ingest_ops_per_sec, d.lookup_wall_us
        );
    }
    for m in &multi_writer {
        eprintln!(
            "multi_writer {}w: {:.0} ops/s, {} stalls, {} WAL groups ({:.1} recs/group)",
            m.writers,
            m.ingest_ops_per_sec,
            m.backpressure_stalls,
            m.wal_groups,
            m.wal_records_per_group
        );
    }
    for s in &scan_heavy {
        eprintln!(
            "scan_heavy: {} scans × {} recs, {} bytes on disk — serial {:.3}s vs \
             parallel({}) {:.3}s = {:.2}x ({} partitions, hit {:.2}/{:.2})",
            s.scans,
            s.records,
            s.index_bytes,
            s.serial_wall_secs,
            s.parallelism,
            s.parallel_wall_secs,
            s.speedup,
            s.partitions,
            s.serial_cache_hit_ratio,
            s.parallel_cache_hit_ratio
        );
    }
    for r in &index_only {
        eprintln!(
            "index_only: {} queries x {} recs — {} bytes read ({} on disk), \
             {:.0} rows/s over {:.3}s",
            r.queries, r.records, r.bytes_read, r.index_bytes, r.rows_per_sec, r.wall_secs
        );
    }
    eprintln!("wrote {out}");
}
