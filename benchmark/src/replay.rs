//! Layer replay: drives `common`, `bloom`, `storage`, `btree`, `lsm` and
//! the WAL directly, through their public functions, with keys, records
//! and page counts taken from the run's own op stream.
//!
//! Each measurement is a span; work that can be repeated identically is run
//! [`REPS`] times and the fastest repetition is reported. Component options
//! (bloom kind and rate, leaf encoding, memtable shards) are read from
//! `DatasetConfig::new` / `StorageOptions::hdd`, so the replay follows the
//! engine's defaults.

use crate::episode::Costs;
use crate::gen::{tweet_schema, Rng, F_ID};
use crate::plan::Inputs;
use crate::trace::Tracer;
use lsm_bloom::build_filter;
use lsm_btree::{BTreeBuilder, StatefulCursor};
use lsm_common::{Key, Record, Result, Value};
use lsm_engine::keys::{encode_pk, encode_sk_pk};
use lsm_engine::txn::{LogOp, LogRecord, Wal};
use lsm_engine::DatasetConfig;
use lsm_storage::{Storage, StorageOptions};
use lsm_tree::{
    lookup_sorted, point_lookup, LookupOptions, LsmEntry, LsmOptions, LsmTree, MergeRange,
    ScanOptions,
};
use std::hint::black_box;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each repeatable measurement.
const REPS: usize = 3;
/// Records the replay works on.
const MAX_RECORDS: usize = 40_000;
/// Point probes per measurement.
const PROBES: usize = 20_000;
/// Flushed generations the lsm replay builds before it looks up and merges.
const GENERATIONS: usize = 4;

/// Runs `f` `REPS` times inside spans called `name`; returns the fastest
/// wall seconds and the last result.
fn best_of<T>(
    tr: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<T>,
) -> Result<(f64, T)> {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = tr.span(name, &mut f)?;
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((best, last.expect("REPS > 0")))
}

fn roomy_storage(bytes: usize) -> Arc<Storage> {
    Storage::new(StorageOptions::hdd(2 * bytes + (1 << 20)))
}

/// The replay's per-layer values.
pub fn replay(inputs: &Inputs, tr: &mut Tracer) -> Result<Costs> {
    let mut c = Costs::new();
    let cfg = DatasetConfig::new(tweet_schema(), F_ID);
    let open = tr.enter("replay");

    // Distinct keys with one record each, in issue order.
    let mut seen = std::collections::HashSet::new();
    let records: Vec<&Record> = inputs
        .stream
        .ops
        .iter()
        .filter(|op| seen.insert(op.pk))
        .take(MAX_RECORDS)
        .map(|op| &op.record)
        .collect();
    let n = records.len();
    let mut rng = Rng::fork(n as u64, 9);
    let encoded: Vec<Vec<u8>> = records.iter().map(|r| r.encode()).collect();
    let total_bytes: usize = encoded.iter().map(Vec::len).sum();
    let pk_keys: Vec<Key> = records.iter().map(|r| encode_pk(r.get(F_ID))).collect();
    let absent: Vec<Key> = (0..n)
        .map(|_| encode_pk(&Value::Int(inputs.stream.absent_key(&mut rng))))
        .collect();
    let probes: Vec<&Key> = (0..PROBES)
        .map(|_| &pk_keys[rng.below(n as u64) as usize])
        .collect();

    // common
    let (secs, _) = best_of(tr, "common.record_encode", || {
        for r in &records {
            black_box(r.encode());
        }
        Ok(())
    })?;
    c.insert("common.record_encode_ns", secs * 1e9 / n as f64);
    let (secs, _) = best_of(tr, "common.record_decode", || {
        for bytes in &encoded {
            black_box(Record::decode(bytes)?);
        }
        Ok(())
    })?;
    c.insert("common.record_decode_ns", secs * 1e9 / n as f64);

    // bloom: one filter sized like the largest primary component.
    let (secs, filter) = best_of(tr, "bloom.insert", || {
        let mut filter = build_filter(cfg.bloom_kind, n, cfg.bloom_fpr);
        for key in &pk_keys {
            filter.insert(key);
        }
        Ok(filter)
    })?;
    c.insert("bloom.insert_ns", secs * 1e9 / n as f64);
    c.insert("bloom.bits_per_key", filter.num_bits() as f64 / n as f64);
    let (secs, hits) = best_of(tr, "bloom.may_contain.present", || {
        Ok(pk_keys.iter().filter(|k| filter.may_contain(k)).count())
    })?;
    c.insert("bloom.probe_hit_ns", secs * 1e9 / n as f64);
    assert_eq!(hits, n, "a Bloom filter has no false negatives");
    let (secs, false_positives) = best_of(tr, "bloom.may_contain.absent", || {
        Ok(absent.iter().filter(|k| filter.may_contain(k)).count())
    })?;
    c.insert("bloom.probe_miss_ns", secs * 1e9 / n as f64);
    c.insert("bloom.measured_fpr", false_positives as f64 / n as f64);

    replay_storage(tr, &mut c)?;

    // btree: bulk load, point search, cursor seek and full scan over
    // primary-shaped (pk -> record) and secondary-shaped ((user, pk) -> ())
    // entries.
    let mut primary: Vec<(Key, Vec<u8>)> = pk_keys
        .iter()
        .zip(&encoded)
        .map(|(k, v)| (k.clone(), LsmEntry::put(v.clone()).encode()))
        .collect();
    primary.sort();
    let mut secondary: Vec<(Key, Vec<u8>)> = records
        .iter()
        .map(|r| {
            (
                encode_sk_pk(r.get(1), r.get(F_ID)),
                LsmEntry::put(Vec::new()).encode(),
            )
        })
        .collect();
    secondary.sort();
    let (mut build_secs, mut scan_secs) = (0.0, 0.0);
    let mut trees = Vec::new();
    for entries in [&primary, &secondary] {
        let (secs, tree) = best_of(tr, "btree.build", || {
            let mut b = BTreeBuilder::new(roomy_storage(total_bytes));
            for (k, v) in entries.iter() {
                b.add(k, v)?;
            }
            b.finish()
        })?;
        build_secs += secs;
        let (secs, scanned) = best_of(tr, "btree.scan_all", || {
            let mut scan = tree.scan_all()?;
            let mut count = 0usize;
            while let Some(entry) = scan.next_entry_pinned()? {
                black_box(entry);
                count += 1;
            }
            Ok(count)
        })?;
        assert_eq!(scanned, n);
        scan_secs += secs;
        trees.push(tree);
    }
    c.insert("btree.build_entries_per_s", 2.0 * n as f64 / build_secs);
    c.insert("btree.scan_entries_per_s", 2.0 * n as f64 / scan_secs);
    let tree = &trees[0];
    let (secs, found) = best_of(tr, "btree.search_pinned", || {
        let mut found = 0usize;
        for key in &probes {
            found += usize::from(tree.search_pinned(key)?.is_some());
        }
        Ok(found)
    })?;
    assert_eq!(found, PROBES);
    c.insert("btree.search_ns", secs * 1e9 / PROBES as f64);
    let mut sorted_probes = probes.clone();
    sorted_probes.sort();
    let (secs, _) = best_of(tr, "btree.cursor_seek_pinned", || {
        let mut cursor = StatefulCursor::new(tree);
        for key in &sorted_probes {
            black_box(cursor.seek_pinned(key)?);
        }
        Ok(())
    })?;
    c.insert("btree.cursor_seek_ns", secs * 1e9 / PROBES as f64);
    drop(trees);

    // lsm: put, flush, point and batched lookup, scan, merge. Not
    // repeatable on one tree, so the whole sequence is repeated on fresh
    // trees and each step keeps its fastest time.
    let per_gen = n.div_ceil(GENERATIONS);
    let mut best = [f64::INFINITY; 6];
    for _ in 0..REPS {
        let tree = LsmTree::new(
            roomy_storage(2 * total_bytes),
            LsmOptions {
                name: "replay".into(),
                bloom_kind: cfg.bloom_kind,
                bloom_fpr: cfg.bloom_fpr,
                mem_shards: cfg.memtable_shards,
                ..LsmOptions::default()
            },
        );
        let (mut put_secs, mut flush_secs) = (0.0, 0.0);
        let mut ts = 0u64;
        for generation in pk_keys.chunks(per_gen).zip(encoded.chunks(per_gen)) {
            let t = Instant::now();
            tr.span("lsm.put", || {
                for (k, v) in generation.0.iter().zip(generation.1) {
                    ts += 1;
                    black_box(tree.put(k.clone(), LsmEntry::put(v.clone()), ts));
                }
            });
            put_secs += t.elapsed().as_secs_f64();
            let t = Instant::now();
            tr.span("lsm.flush", || tree.flush())?;
            flush_secs += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        tr.span("lsm.point_lookup", || -> Result<()> {
            for key in &probes {
                black_box(point_lookup(&tree, key)?);
            }
            Ok(())
        })?;
        let point_secs = t.elapsed().as_secs_f64();
        let batch: Vec<Key> = sorted_probes.iter().map(|k| (**k).clone()).collect();
        let t = Instant::now();
        let found = tr.span("lsm.lookup_sorted", || {
            lookup_sorted(
                &tree,
                &batch,
                &LookupOptions {
                    batched: true,
                    stateful: true,
                    ..LookupOptions::default()
                },
            )
        })?;
        let batched_secs = t.elapsed().as_secs_f64();
        assert_eq!(found.len(), PROBES);
        let t = Instant::now();
        let scanned = tr.span("lsm.scan", || -> Result<usize> {
            let mut scan = tree.scan(Bound::Unbounded, Bound::Unbounded, ScanOptions::default())?;
            let mut count = 0;
            while let Some(entry) = scan.next_entry()? {
                black_box(entry);
                count += 1;
            }
            Ok(count)
        })?;
        let scan_secs = t.elapsed().as_secs_f64();
        assert_eq!(scanned, n);
        let t = Instant::now();
        tr.span("lsm.merge_range", || {
            tree.merge_range(MergeRange {
                start: 0,
                end: tree.num_disk_components() - 1,
            })
        })?;
        let merge_secs = t.elapsed().as_secs_f64();
        for (slot, secs) in best.iter_mut().zip([
            put_secs,
            flush_secs,
            point_secs,
            batched_secs,
            scan_secs,
            merge_secs,
        ]) {
            *slot = slot.min(secs);
        }
    }
    c.insert("lsm.put_ns", best[0] * 1e9 / n as f64);
    c.insert("lsm.flush_entries_per_s", n as f64 / best[1]);
    c.insert("lsm.point_lookup_ns", best[2] * 1e9 / PROBES as f64);
    c.insert(
        "lsm.batched_lookup_ns_per_key",
        best[3] * 1e9 / PROBES as f64,
    );
    c.insert("lsm.scan_entries_per_s", n as f64 / best[4]);
    c.insert("lsm.merge_entries_per_s", n as f64 / best[5]);

    // core::txn: WAL appends, one record at a time and in batches.
    let log_records: Vec<LogRecord> = pk_keys
        .iter()
        .zip(&encoded)
        .take(PROBES)
        .enumerate()
        .map(|(i, (key, value))| LogRecord {
            lsn: i as u64 + 1,
            op: LogOp::Upsert,
            key: key.clone(),
            value: value.clone(),
            update_bit: false,
        })
        .collect();
    let (secs, _) = best_of(tr, "core.wal_append", || {
        let wal = Wal::new(roomy_storage(total_bytes));
        let (single, batched) = log_records.split_at(log_records.len() / 2);
        for rec in single {
            wal.append(rec)?;
        }
        for batch in batched.chunks(100) {
            wal.append_batch(batch)?;
        }
        wal.force()
    })?;
    c.insert("core.wal_append_ns", secs * 1e9 / log_records.len() as f64);

    tr.exit(open);
    Ok(c)
}

/// `append_page`, cached and uncached `read_page`, and `read_pages`.
fn replay_storage(tr: &mut Tracer, c: &mut Costs) -> Result<()> {
    const CACHE_PAGES: u32 = 64;
    const FILE_PAGES: u32 = 4 * CACHE_PAGES;
    let opts = StorageOptions::hdd(1);
    let page = vec![0xABu8; opts.page_size];
    let opts = StorageOptions::hdd(CACHE_PAGES as usize * opts.page_size);
    let batch = opts.readahead_pages.max(1);
    let (secs, (storage, file)) = best_of(tr, "storage.append_page", || {
        let storage = Storage::new(opts.clone());
        let file = storage.create_file();
        for _ in 0..FILE_PAGES {
            storage.append_page(file, &page)?;
        }
        Ok((storage, file))
    })?;
    c.insert("storage.append_page_ns", secs * 1e9 / f64::from(FILE_PAGES));
    // Cycling through a file four times the cache evicts every page before
    // its next use: all misses.
    let (secs, _) = best_of(tr, "storage.read_page.miss", || {
        for p in 0..FILE_PAGES {
            black_box(storage.read_page(file, p)?);
        }
        Ok(())
    })?;
    c.insert("storage.read_miss_ns", secs * 1e9 / f64::from(FILE_PAGES));
    for p in 0..CACHE_PAGES / 2 {
        storage.read_page(file, p)?;
    }
    let rounds = 64;
    let (secs, _) = best_of(tr, "storage.read_page.hit", || {
        for _ in 0..rounds {
            for p in 0..CACHE_PAGES / 2 {
                black_box(storage.read_page(file, p)?);
            }
        }
        Ok(())
    })?;
    c.insert(
        "storage.read_hit_ns",
        secs * 1e9 / f64::from(rounds * CACHE_PAGES / 2),
    );
    let (secs, _) = best_of(tr, "storage.read_pages", || {
        let mut p = 0;
        while p + batch <= FILE_PAGES {
            black_box(storage.read_pages(file, p, batch)?);
            p += batch;
        }
        Ok(())
    })?;
    c.insert(
        "storage.read_pages_ns_per_page",
        secs * 1e9 / f64::from(FILE_PAGES / batch * batch),
    );
    Ok(())
}
