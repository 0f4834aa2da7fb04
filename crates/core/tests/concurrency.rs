//! Integration tests for the Section 5.3 concurrency-control methods:
//! merges of mutable-bitmap components racing with live writers.

use lsm_common::{FieldType, Record, Schema, Value};
use lsm_engine::cc::{merge_primary_with_cc, CcMethod};
use lsm_engine::{Dataset, DatasetConfig, StrategyKind};
use lsm_storage::{Storage, StorageOptions};
use lsm_tree::MergeRange;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Int)]).unwrap()
}

fn dataset() -> Arc<Dataset> {
    let mut cfg = DatasetConfig::new(schema(), 0);
    cfg.strategy = StrategyKind::MutableBitmap;
    cfg.memory_budget = usize::MAX; // flush manually
    cfg.secondary_indexes = vec![];
    Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
}

fn rec(id: i64, v: i64) -> Record {
    Record::new(vec![Value::Int(id), Value::Int(v)])
}

/// Loads `comps` components of `per_comp` records each.
fn load(ds: &Dataset, comps: i64, per_comp: i64) {
    for c in 0..comps {
        for i in 0..per_comp {
            ds.insert(&rec(c * per_comp + i, 0)).unwrap();
        }
        ds.flush_all().unwrap();
    }
}

/// Every record must read back with its latest value after a cc merge that
/// raced concurrent upserts.
fn run_concurrent_merge(method: CcMethod) {
    let ds = dataset();
    let n_comps = 4i64;
    let per_comp = 500i64;
    load(&ds, n_comps, per_comp);
    let total = n_comps * per_comp;
    assert_eq!(ds.primary().num_disk_components(), n_comps as usize);

    let stop = Arc::new(AtomicBool::new(false));
    let writer_ds = ds.clone();
    let writer_stop = stop.clone();
    // The merge waits for the writer's first upsert: a fast merge could
    // otherwise finish before the writer thread has run at all.
    let (writing, first_upsert) = std::sync::mpsc::channel();
    // A writer upserting random-ish keys at max speed while the merge runs.
    let writer = std::thread::spawn(move || {
        let mut updated = Vec::new();
        let mut x: i64 = 12345;
        let mut round: i64 = 1;
        while !writer_stop.load(Ordering::Relaxed) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = x.rem_euclid(total);
            writer_ds.upsert_no_maintenance(&rec(id, round)).unwrap();
            updated.push((id, round));
            if round == 1 {
                writing.send(()).unwrap();
            }
            round += 1;
        }
        updated
    });

    // Merge all four components under the chosen method.
    let range = MergeRange {
        start: 0,
        end: n_comps as usize - 1,
    };
    first_upsert.recv().expect("the writer's first upsert");
    let new_comp = merge_primary_with_cc(&ds, range, method).unwrap();
    stop.store(true, Ordering::Relaxed);
    let updates = writer.join().unwrap();
    assert!(!updates.is_empty(), "writer made progress during the merge");
    assert!(new_comp.num_entries() > 0);
    assert_eq!(ds.primary().num_disk_components(), 1);

    // Correctness: every key's latest value is visible; no resurrections.
    let mut latest: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
    for (id, round) in updates {
        latest.insert(id, round);
    }
    for id in 0..total {
        let want = latest.get(&id).copied().unwrap_or(0);
        let got = ds
            .get(&Value::Int(id))
            .unwrap()
            .unwrap_or_else(|| panic!("id {id} vanished"))
            .get(1)
            .as_int()
            .unwrap();
        assert_eq!(got, want, "id {id} under {method:?}");
    }
}

#[test]
fn lock_method_merge_with_concurrent_writers() {
    run_concurrent_merge(CcMethod::Lock);
}

#[test]
fn side_file_method_merge_with_concurrent_writers() {
    run_concurrent_merge(CcMethod::SideFile);
}

#[test]
fn quiescent_merges_agree_across_methods() {
    // Without concurrent writers, all three methods produce identical
    // component contents.
    let mut results = Vec::new();
    for method in [CcMethod::Baseline, CcMethod::Lock, CcMethod::SideFile] {
        let ds = dataset();
        load(&ds, 3, 200);
        // Delete some keys and update others first.
        for id in 0..50 {
            ds.delete(&Value::Int(id * 7 % 600)).unwrap();
        }
        for id in 0..50 {
            ds.upsert(&rec(id * 11 % 600, 9)).unwrap();
        }
        ds.flush_all().unwrap();
        let range = MergeRange {
            start: 0,
            end: ds.primary().num_disk_components() - 1,
        };
        let comp = merge_primary_with_cc(&ds, range, method).unwrap();
        let mut contents = Vec::new();
        let mut scan = comp.btree().scan_all().unwrap();
        while let Some((k, v, _)) = scan.next_entry().unwrap() {
            contents.push((k, v));
        }
        results.push((method, contents));
    }
    let (m0, base) = &results[0];
    for (m, contents) in &results[1..] {
        assert_eq!(contents, base, "{m:?} vs {m0:?}");
    }
}

#[test]
fn deletes_during_merge_reach_the_new_component() {
    // Deterministic interleaving: start a Lock-method merge, but perform the
    // racing delete between the build and catch-up phases by hooking the
    // writer between two explicit merges.
    let ds = dataset();
    load(&ds, 2, 100);
    // Delete key 5 (lives in component 0) while NO merge runs: plain bitmap.
    ds.delete(&Value::Int(5)).unwrap();
    let range = MergeRange { start: 0, end: 1 };
    merge_primary_with_cc(&ds, range, CcMethod::Lock).unwrap();
    assert!(ds.get(&Value::Int(5)).unwrap().is_none());
    // Deletes after the merge work against the merged component.
    ds.delete(&Value::Int(6)).unwrap();
    assert!(ds.get(&Value::Int(6)).unwrap().is_none());
    assert!(ds.get(&Value::Int(7)).unwrap().is_some());
}

#[test]
fn pk_index_stays_paired_after_cc_merge() {
    let ds = dataset();
    load(&ds, 3, 100);
    let range = MergeRange { start: 0, end: 2 };
    merge_primary_with_cc(&ds, range, CcMethod::SideFile).unwrap();
    let p = ds.primary().disk_components();
    let k = ds.pk_index().unwrap().disk_components();
    assert_eq!(p.len(), 1);
    assert_eq!(k.len(), 1);
    assert_eq!(p[0].num_entries(), k[0].num_entries());
    assert!(Arc::ptr_eq(
        &p[0].bitmap().unwrap(),
        &k[0].bitmap().unwrap()
    ));
    // Upserts keep flowing through the shared bitmap.
    ds.upsert(&rec(42, 1)).unwrap();
    assert_eq!(p[0].bitmap().unwrap().count_set(), 1);
}
