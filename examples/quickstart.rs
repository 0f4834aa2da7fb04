//! Quickstart: create a dataset, ingest, and query.
//!
//! ```sh
//! cargo run --release -p lsm-engine --example quickstart
//! ```
//!
//! This walks the paper's running example (Figures 2-4): a `UserLocation`
//! dataset with a secondary index on `location` and a range filter on
//! `time`, under the Validation maintenance strategy.

use lsm_common::{FieldType, Record, Schema, Value};
use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
use lsm_storage::{Storage, StorageOptions};

fn main() {
    // UserLocation(UserID, Location, Time) — the paper's running example.
    let schema = Schema::new(vec![
        ("user_id", FieldType::Int),
        ("location", FieldType::Str),
        ("time", FieldType::Int),
    ])
    .expect("schema");

    let mut cfg = DatasetConfig::new(schema, 0);
    cfg.strategy = StrategyKind::Validation;
    cfg.secondary_indexes.push(SecondaryIndexDef {
        name: "location".into(),
        field: 1,
    });
    cfg.filter_field = Some(2);

    let storage = Storage::new(StorageOptions::hdd(64 * 1024 * 1024));
    let ds = Dataset::open(storage, None, cfg).expect("open dataset");

    // Ingest the initial records of Figure 2 as one atomic WriteBatch:
    // all three records commit under a single WAL group.
    let rec = |id: i64, loc: &str, t: i64| {
        Record::new(vec![Value::Int(id), Value::Str(loc.into()), Value::Int(t)])
    };
    let outcomes = ds
        .batch()
        .insert(&rec(101, "CA", 2015))
        .insert(&rec(102, "CA", 2016))
        .insert(&rec(103, "MA", 2017))
        .commit()
        .expect("batch commit");
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, lsm_engine::BatchOpResult::Inserted)));
    ds.flush_all().expect("flush");

    // The upsert of Figure 4: user 101 moves to NY.
    ds.upsert(&rec(101, "NY", 2018)).expect("upsert");

    // Q1: all users in CA — must NOT return the stale CA entry for 101.
    // The builder resolves the right validation method for the Validation
    // strategy; nothing to configure.
    let q1 = ds.query("location").eq("CA").execute().expect("query");
    println!("users in CA:");
    for r in q1.records() {
        println!("  {} @ {} ({})", r.get(0), r.get(1), r.get(2));
    }
    assert_eq!(q1.len(), 1);
    assert_eq!(q1.records()[0].get(0), &Value::Int(102));

    // Q2: everything with Time < 2017 via the range filter.
    let q2 = ds
        .filter_scan()
        .range_to(2016)
        .count()
        .expect("filter scan");
    println!(
        "records with time < 2017: {} (scanned {} components, pruned {})",
        q2.matches, q2.components_scanned, q2.components_pruned
    );
    assert_eq!(q2.matches, 1); // 102 only: 101's 2015 version is deleted

    // Point read by primary key.
    let u101 = ds.get(&Value::Int(101)).expect("get").expect("present");
    println!("user 101 is now in {}", u101.get(1));
    assert_eq!(u101.get(1), &Value::Str("NY".into()));

    // Q3: the same query as a bounded-memory stream — the shape to use
    // when a range query's results may not fit in RAM.
    let mut in_any_state = 0usize;
    for record in ds
        .query("location")
        .range("AA", "ZZ")
        .stream()
        .expect("stream")
    {
        let record = record.expect("stream record");
        std::hint::black_box(&record);
        in_any_state += 1;
    }
    println!("records streamed over all locations: {in_any_state}");
    assert_eq!(in_any_state, 3);

    println!(
        "simulated time spent: {:.3} ms",
        ds.storage().clock().now_secs() * 1e3
    );
}
