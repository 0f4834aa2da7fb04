//! Zero-copy lifetime regression tests.
//!
//! Lookup and scan paths hand out entry values as [`ValueBuf::Pinned`]
//! slices into cached pages instead of copies. Those slices must stay
//! readable even after a merge retires and destroys the component file the
//! page came from (retire-on-drop): the `Arc` page handle — not the file —
//! owns the bytes. These tests hold pinned values and in-flight
//! [`RecordStream`] state across merges that delete the source components,
//! then check every byte. They run under `--cfg lock_order_check` with the
//! rest of the suite.

use lsm_common::{FieldType, Record, Result, Schema, Value};
use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
use lsm_storage::{Storage, StorageOptions};
use lsm_tree::{LsmEntry, ScanOptions, TieringPolicy};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

fn storage() -> Arc<Storage> {
    Storage::new(StorageOptions::test())
}

/// Pinned scan entries outlive the merge that destroys their source
/// components.
#[test]
fn pinned_values_survive_component_retirement() {
    let storage = storage();
    let tree = lsm_tree::LsmTree::new(storage.clone(), lsm_tree::LsmOptions::default());
    let mut want: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut ts = 0u64;
    for round in 0..3u32 {
        for i in 0..400u32 {
            ts += 1;
            let k = format!("key{i:06}").into_bytes();
            let v = format!("value-{round}-{i}-{}", "x".repeat(40)).into_bytes();
            tree.put(k.clone(), LsmEntry::put(v.clone()), ts);
            want.insert(k, v);
        }
        tree.flush().unwrap();
    }

    // Collect every entry; disk values arrive pinned into cached pages.
    let mut scan = tree
        .scan(Bound::Unbounded, Bound::Unbounded, ScanOptions::default())
        .unwrap();
    let mut got: Vec<(Vec<u8>, LsmEntry)> = Vec::new();
    while let Some((k, e)) = scan.next_entry().unwrap() {
        got.push((k, e));
    }
    drop(scan);
    assert!(
        got.iter().all(|(_, e)| e.value.is_pinned()),
        "disk scan must hand out pinned values"
    );

    // Merge everything into one component: the three source components
    // are retired and their files destroyed on drop. Clearing the cache
    // then drops the cache's own references to the old pages — the
    // pinned slices are the only owners left.
    let policy = TieringPolicy::new(u64::MAX);
    while tree.maybe_merge(&policy).unwrap() {}
    storage.clear_cache();

    assert_eq!(got.len(), want.len());
    for (k, e) in &got {
        assert_eq!(
            e.value.as_slice(),
            want[k].as_slice(),
            "pinned bytes changed after retirement"
        );
    }
}

fn schema() -> Schema {
    Schema::new(vec![("id", FieldType::Int), ("val", FieldType::Int)]).unwrap()
}

fn rec(id: i64, val: i64) -> Record {
    Record::new(vec![Value::Int(id), Value::Int(val)])
}

/// An in-flight [`RecordStream`] keeps yielding correct records while
/// flushes and full merges retire the components it is reading from.
#[test]
fn record_stream_survives_concurrent_flush_and_merge() {
    let mut cfg = DatasetConfig::new(schema(), 0);
    cfg.strategy = StrategyKind::Validation;
    cfg.memory_budget = usize::MAX; // flushes under test control
    cfg.secondary_indexes = vec![SecondaryIndexDef {
        name: "val".into(),
        field: 1,
    }];
    let ds = Dataset::open(storage(), None, cfg).unwrap();
    for id in 0..900i64 {
        ds.upsert(&rec(id, id % 100)).unwrap();
        if id % 300 == 299 {
            ds.flush_all().unwrap();
        }
    }
    ds.flush_all().unwrap();

    // Pull the first batch, then churn: logically-identical re-upserts,
    // a flush, and a full merge retire every component the stream's
    // snapshot points at.
    let mut stream = ds.query("val").range(10, 40).stream().unwrap();
    let first = stream.next().unwrap().unwrap();
    assert!((10..=40).contains(&first.get(1).as_int().unwrap()));
    for id in 0..900i64 {
        ds.upsert(&rec(id, id % 100)).unwrap();
    }
    ds.flush_all().unwrap();
    let policy = TieringPolicy::new(u64::MAX);
    while ds.primary().maybe_merge(&policy).unwrap() {}
    ds.storage().clear_cache();

    let rest: Vec<Record> = stream.collect::<Result<_>>().unwrap();
    let mut got = vec![first];
    got.extend(rest);
    let want: Vec<Record> = (0..900i64)
        .filter(|id| (10..=40).contains(&(id % 100)))
        .map(|id| rec(id, id % 100))
        .collect();
    assert_eq!(got, want);
}
