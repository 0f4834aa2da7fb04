//! Criterion microbenchmarks, one per layer (real wall-clock, not
//! simulated): the CPU-level optimizations of Section 3.2 — standard vs
//! blocked Bloom filter probes, by key and by precomputed hash, cold
//! B+-tree search vs the stateful cursor, the in-leaf search over cold
//! pages of fixed- and of mixed-width keys, and the route through one
//! router page (btree) — the cache-hit page read, from one thread and
//! from two at once (storage), the
//! record codec and its allocation-free view (common), and the point
//! lookup, the batched stateful fetch, the reconciling merge scan at a
//! small and a large number of components — owning and lending, and over
//! keys that tie in the heap's cached prefixes —, the whole merge — scan,
//! reconcile, build — of pk-shaped and primary-shaped entries, and index
//! repair's point validation of sorted candidates (lsm), and the counting
//! filter scan under a reconciling and a component-at-a-time strategy
//! (engine).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lsm_bench::{apply, open_tweet_dataset, tweet_dataset_config, Env, EnvConfig};
use lsm_bloom::{BlockedBloom, BloomFilter, KeyHash, StandardBloom};
use lsm_btree::page::{InternalPage, InternalPageBuilder, LeafPage, LeafPageBuilder};
use lsm_btree::{BTree, BTreeBuilder, StatefulCursor};
use lsm_common::{Record, RecordView};
use lsm_engine::StrategyKind;
use lsm_storage::{Storage, StorageOptions};
use lsm_tree::{
    lookup_sorted, point_lookup, sorted_timestamps, BuildOptions, ComponentBuilder, ComponentId,
    DiskComponent, LookupOptions, LsmEntry, LsmOptions, LsmScan, LsmTree, MergeRange, ScanOptions,
};
use lsm_workload::{TweetConfig, TweetGenerator, UpdateDistribution, UpsertWorkload};
use std::hint::black_box;
use std::ops::Bound;
use std::sync::Arc;

fn bench_bloom(c: &mut Criterion) {
    let n = 1_000_000usize;
    let mut standard = StandardBloom::new(n, 0.01);
    let mut blocked = BlockedBloom::new(n, 0.01);
    for i in 0..n as u64 {
        standard.insert(&i.to_le_bytes());
        blocked.insert(&i.to_le_bytes());
    }
    let mut group = c.benchmark_group("bloom_probe");
    let probe_keys: Vec<[u8; 8]> = (0..1024u64).map(|i| (i * 7919).to_le_bytes()).collect();
    group.bench_function("standard", |b| {
        b.iter(|| {
            let mut hits = 0;
            for k in &probe_keys {
                if standard.may_contain(k) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
    group.bench_function("blocked", |b| {
        b.iter(|| {
            let mut hits = 0;
            for k in &probe_keys {
                if blocked.may_contain(k) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
    // What a lookup pays per component once the key is hashed.
    let hashes: Vec<KeyHash> = probe_keys.iter().map(|k| KeyHash::new(k)).collect();
    let filters: [(&str, &dyn BloomFilter); 2] =
        [("standard_hashed", &standard), ("blocked_hashed", &blocked)];
    for (name, filter) in filters {
        group.bench_function(name, |b| {
            b.iter(|| {
                let hits = hashes.iter().filter(|h| filter.may_contain_hash(**h));
                black_box(hits.count())
            })
        });
    }
    group.finish();
}

/// `Storage::read_page` of resident pages: 32 reads per iteration
/// (`read_hit`), and two scoped threads hitting the same 32 pages at once,
/// 8,192 reads each per iteration (`read_hit_2threads`), whose hits share
/// only the file-table read lock.
fn bench_storage_read_hit(c: &mut Criterion) {
    let storage = Storage::new(StorageOptions::test());
    let file = storage.create_file();
    for p in 0..32u32 {
        storage.append_page(file, &p.to_le_bytes()).unwrap();
        storage.read_page(file, p).unwrap(); // admit
    }
    let read_all = || {
        for p in 0..32 {
            black_box(storage.read_page(file, p).unwrap());
        }
    };
    let mut group = c.benchmark_group("storage");
    group.bench_function("read_hit", |b| b.iter(read_all));
    group.bench_function("read_hit_2threads", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| (0..256).for_each(|_| read_all()));
                }
            })
        })
    });
    group.finish();
}

fn build_tree(n: u32) -> BTree {
    let storage = Storage::new(StorageOptions {
        cache_pages: 1 << 20, // fully cached: measure CPU only
        ..StorageOptions::test()
    });
    let mut b = BTreeBuilder::new(storage);
    for i in 0..n {
        b.add(format!("key{i:08}").as_bytes(), b"v").unwrap();
    }
    b.finish().unwrap()
}

fn bench_btree_search(c: &mut Criterion) {
    let tree = build_tree(100_000);
    // Warm the cache.
    for i in (0..100_000).step_by(100) {
        tree.search(format!("key{i:08}").as_bytes()).unwrap();
    }
    let probes: Vec<String> = (0..100_000)
        .step_by(10)
        .map(|i| format!("key{i:08}"))
        .collect();
    let mut group = c.benchmark_group("btree_sorted_probes");
    group.bench_function("root_to_leaf", |b| {
        b.iter(|| {
            let mut found = 0;
            for p in &probes {
                if tree.search(p.as_bytes()).unwrap().is_some() {
                    found += 1;
                }
            }
            std::hint::black_box(found)
        })
    });
    group.bench_function("stateful_cursor", |b| {
        b.iter_batched(
            || StatefulCursor::new(&tree),
            |mut cursor| {
                let mut found = 0;
                for p in &probes {
                    if cursor.seek(p.as_bytes()).unwrap().is_some() {
                        found += 1;
                    }
                }
                std::hint::black_box(found)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// `LeafPage::search` on primary-index-shaped leaves — 128 KB pages of
/// 8-byte keys and ~700-byte values: 4096 searches of present keys per
/// iteration, consecutive ones in different pages, over 1024 pages, so the
/// key lines a search touches (~4 MB per iteration) do not stay in the L2
/// cache — as in a lookup in a dataset larger than it. `plain_varwidth`
/// is the page over 8- to 10-byte keys, which it stores through key ends
/// instead of as one fixed-stride strip.
fn bench_leaf_search(c: &mut Criterion) {
    const PAGES: u64 = 1024;
    const PAGE_SIZE: usize = 128 * 1024;
    let value = vec![b'v'; 700];
    let mut group = c.benchmark_group("leaf_search");
    for (name, varwidth) in [("plain", false), ("plain_varwidth", true)] {
        // Big-endian keys, with 0–2 bytes after them when `varwidth`.
        let suffix = |k: u64| if varwidth { (k % 3) as usize } else { 0 };
        let key_of = |k: u64| [&k.to_be_bytes()[..], &[0xFF; 2][..suffix(k)]].concat();
        let mut next_key = 0u64;
        // (page, its first key, its number of keys)
        let pages: Vec<(Vec<u8>, u64, u64)> = (0..PAGES)
            .map(|_| {
                let first = next_key;
                let mut b = LeafPageBuilder::new(PAGE_SIZE, first);
                while b.fits(&key_of(next_key), &value) {
                    b.add(&key_of(next_key), &value).unwrap();
                    next_key += 1;
                }
                (b.finish(), first, next_key - first)
            })
            .collect();
        let probes: Vec<(&[u8], Vec<u8>)> = (0..4096u64)
            .map(|j| {
                let (page, first, count) = &pages[(j * 7919 % PAGES) as usize];
                (page.as_slice(), key_of(first + j * 61 % count))
            })
            .collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                let hits = probes.iter().filter(|(page, key)| {
                    let leaf = LeafPage::parse(page).unwrap();
                    leaf.search(key).unwrap().0.is_ok()
                });
                assert_eq!(hits.count(), probes.len());
            })
        });
    }
    group.finish();
}

/// `InternalPage::route` over one 128 KB router page of 9-byte
/// separators (~6 900 of them): 4096 routes per iteration, of separators
/// and of keys between two.
fn bench_router_route(c: &mut Criterion) {
    let separator = |i: u64| [&[7][..], &(i * 2).to_be_bytes()[..]].concat();
    let mut b = InternalPageBuilder::new(128 * 1024);
    let mut n = 0u64;
    while b.fits(&separator(n)) {
        b.add(&separator(n), n as u32).unwrap();
        n += 1;
    }
    let page = b.finish();
    let probes: Vec<Vec<u8>> = (0..4096u64)
        .map(|j| {
            let mut key = separator(j * 7919 % n);
            // Every other probe falls between two separators.
            *key.last_mut().unwrap() += (j % 2) as u8;
            key
        })
        .collect();
    let mut group = c.benchmark_group("router_route");
    group.bench_function("fixed_9", |b| {
        b.iter(|| {
            let router = InternalPage::parse(&page).unwrap();
            let children = probes.iter().map(|k| router.route(k).unwrap().1 as u64);
            black_box(children.sum::<u64>())
        })
    });
    group.finish();
}

/// The record codec on a §6.1 tweet (~500 B message): building and parsing
/// the whole record against validating it in place and reading one field
/// (`creation_time`, what a filter scan wants from every entry).
fn bench_record_codec(c: &mut Criterion) {
    let tweet = TweetGenerator::new(TweetConfig::default()).next_new();
    let encoded = tweet.encode();
    let mut group = c.benchmark_group("record_codec");
    group.bench_function("encode", |b| b.iter(|| black_box(&tweet).encode()));
    group.bench_function("decode", |b| {
        b.iter(|| Record::decode(black_box(&encoded)).unwrap())
    });
    group.bench_function("view_parse", |b| {
        b.iter(|| RecordView::parse(black_box(&encoded)).unwrap().arity())
    });
    group.bench_function("view_field", |b| {
        b.iter(|| {
            let view = RecordView::parse(black_box(&encoded)).unwrap();
            view.field_bytes(3).unwrap().len()
        })
    });
    group.finish();
}

/// `fan_in` equal-sized components of `per_component` keys, newest first;
/// every tenth key of a component is shared with all the others, so
/// reconciliation has older versions to consume.
fn build_components(
    storage: &Arc<Storage>,
    fan_in: u64,
    per_component: u64,
    entry_of: impl Fn(u64) -> LsmEntry,
) -> Vec<Arc<DiskComponent>> {
    build_components_under(b"", storage, fan_in, per_component, entry_of)
}

/// [`build_components`] with `stem` in front of every key.
fn build_components_under(
    stem: &[u8],
    storage: &Arc<Storage>,
    fan_in: u64,
    per_component: u64,
    entry_of: impl Fn(u64) -> LsmEntry,
) -> Vec<Arc<DiskComponent>> {
    (0..fan_in)
        .map(|c| {
            let id = ComponentId::new(fan_in - c, fan_in - c);
            let opts = BuildOptions {
                expected_keys: per_component as usize,
                ..BuildOptions::default()
            };
            let mut b = ComponentBuilder::new(storage.clone(), id, opts).unwrap();
            for i in 0..per_component {
                let own = if i % 10 == 0 { 0 } else { c };
                let key = i * fan_in + own;
                let stored = [stem, &key.to_be_bytes()].concat();
                b.add(&stored, &entry_of(key)).unwrap();
            }
            Arc::new(b.finish().unwrap())
        })
        .collect()
}

/// The 64-byte untimestamped value the scan and lookup benches store.
fn small_value(_key: u64) -> LsmEntry {
    LsmEntry::put(vec![b'v'; 64])
}

/// The reconciling merge scan over warm pages at fan-in 4 (a merge) and 32
/// (a primary-index scan late in an ingest), and at fan-in 32 over keys
/// that all share their first eight bytes, so every heap comparison ties
/// on the cached prefixes and reads the keys: time per pass over ~64 k
/// entries. `lsm_scan` takes owned entries (`next_entry`, what the repo
/// benchmark's layer replay drives), `lsm_scan_lent` borrows them
/// (`next_lent`, what merges and queries run on).
fn bench_lsm_scan(c: &mut Criterion) {
    let cases = [
        ("fanin_4", 4u64, &b""[..]),
        ("fanin_32", 32, b""),
        ("shared_prefix_32", 32, b"one stem"),
    ]
    .map(|(name, fan_in, stem)| {
        let storage = Storage::new(StorageOptions {
            cache_pages: 1 << 20, // fully cached: measure CPU only
            ..StorageOptions::test()
        });
        let per_component = 65_536 / fan_in;
        let comps = build_components_under(stem, &storage, fan_in, per_component, small_value);
        (name, storage, comps)
    });
    let open = |storage: &Arc<Storage>, comps: &[Arc<DiskComponent>]| {
        let (lo, hi) = (Bound::Unbounded, Bound::Unbounded);
        LsmScan::new(storage.clone(), None, comps, lo, hi, ScanOptions::default()).unwrap()
    };
    let mut group = c.benchmark_group("lsm_scan");
    for (name, storage, comps) in &cases {
        let scan_all = || {
            let mut scan = open(storage, comps);
            let mut n = 0u64;
            while scan.next_entry().unwrap().is_some() {
                n += 1;
            }
            n
        };
        black_box(scan_all()); // warm the cache
        group.bench_function(name, |b| b.iter(scan_all));
    }
    group.finish();
    let mut group = c.benchmark_group("lsm_scan_lent");
    for (name, storage, comps) in &cases {
        let scan_all = || {
            let mut scan = open(storage, comps);
            let mut bytes = 0usize;
            while let Some(lent) = scan.next_lent().unwrap() {
                bytes += lent.key.len() + lent.entry.value.len();
            }
            bytes
        };
        group.bench_function(name, |b| b.iter(scan_all));
    }
    group.finish();
}

/// `filter_scan().count()` of every record over warm pages and sixteen
/// primary components of 1024 tweets each, a fifth of them updates: under
/// Validation the components are reconciled under one heap, under
/// Mutable-bitmap they are walked one after another. Time per scan of
/// 16,384 entries.
fn bench_filter_scan(c: &mut Criterion) {
    const COMPONENTS: usize = 16;
    const PER_COMPONENT: usize = 1024;
    let mut group = c.benchmark_group("filter_scan/count");
    for (name, strategy) in [
        ("validation", StrategyKind::Validation),
        ("mutable_bitmap", StrategyKind::MutableBitmap),
    ] {
        let dataset_bytes = (COMPONENTS * PER_COMPONENT * 600) as u64;
        let env = Env::new(&EnvConfig {
            dataset_bytes: 8 * dataset_bytes,
            cache_fraction: 1.0, // fully cached: measure CPU only
            ..EnvConfig::default()
        });
        let mut cfg = tweet_dataset_config(strategy, dataset_bytes, 0);
        cfg.memory_budget = usize::MAX; // one flush per component, by hand
        let ds = open_tweet_dataset(&env, cfg);
        let mut workload =
            UpsertWorkload::new(TweetConfig::default(), 0.2, UpdateDistribution::Uniform);
        for _ in 0..COMPONENTS {
            for _ in 0..PER_COMPONENT {
                apply(&ds, &workload.next_op());
            }
            ds.flush_all().unwrap();
        }
        assert_eq!(ds.primary().num_disk_components(), COMPONENTS);
        let count = || ds.filter_scan().count().unwrap().matches;
        assert!(count() > 0); // warm the cache
        group.bench_function(name, |b| b.iter(count));
    }
    group.finish();
}

/// `LsmTree::merge_range` over warm pages — the scan → reconcile → build
/// loop every flush-driven merge runs — for the two entry shapes an ingest
/// merges: `pk` (the primary-key and secondary indexes: a 9-byte key over
/// a timestamp and no payload, where the cost is per entry) and `primary`
/// (the same keys over ~500-byte records, where it is per byte), at fan-in
/// 2 and 4. Time per merge of 65,536 input entries into ~59 k (a tenth of
/// the keys are in every input): entries / s = 65,536 / time.
fn bench_merge(c: &mut Criterion) {
    const ENTRIES: u64 = 65_536;
    let mut group = c.benchmark_group("merge");
    for (shape, payload) in [("pk", 0usize), ("primary", 500)] {
        for fan_in in [2u64, 4] {
            let storage = Storage::new(StorageOptions {
                cache_pages: 1 << 20, // fully cached: measure CPU only
                ..StorageOptions::hdd(0)
            });
            let per_component = ENTRIES / fan_in;
            // A merge retires its inputs, so every sample gets fresh ones;
            // the previous sample's tree is parked here and freed by the
            // next (untimed) setup, not inside the measured merge.
            let done = std::cell::RefCell::new(None);
            let inputs = || {
                done.borrow_mut().take();
                let tree = LsmTree::new(storage.clone(), LsmOptions::default());
                let entry_of = |key| LsmEntry::put_ts(vec![b'v'; payload], key + 1);
                for comp in build_components(&storage, fan_in, per_component, entry_of)
                    .into_iter()
                    .rev()
                {
                    // Read every page once: the merge finds them cached.
                    let mut scan = comp.btree().scan_all().unwrap();
                    while scan.advance().unwrap() {}
                    tree.push_newest(comp);
                }
                tree
            };
            group.bench_function(&format!("{shape}/fanin_{fan_in}"), |b| {
                b.iter_batched(
                    inputs,
                    |tree| {
                        let range = MergeRange {
                            start: 0,
                            end: fan_in as usize - 1,
                        };
                        black_box(tree.merge_range(range).unwrap().num_entries());
                        done.borrow_mut().replace(tree);
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// Index repair's point validation (Figure 7, after the sort): the newest
/// timestamp of each of 65 536 ascending candidate keys, by
/// `sorted_timestamps`, against a warm two-component pk index of which the
/// candidates are every 33rd key (`sparse`, 3 %: ~200 probes per 6 500-entry
/// leaf) or every other key (`dense`, 50 %).
fn bench_repair_validate(c: &mut Criterion) {
    const CANDIDATES: u64 = 65_536;
    let mut group = c.benchmark_group("repair_validate");
    for (name, step) in [("sparse", 33u64), ("dense", 2)] {
        let storage = Storage::new(StorageOptions {
            cache_pages: 1 << 20, // fully cached: measure CPU only
            ..StorageOptions::hdd(0)
        });
        let entry_of = |key| LsmEntry::put_ts(Vec::new(), key + 1);
        let comps = build_components(&storage, 2, CANDIDATES * step / 2, entry_of);
        let keys: Vec<[u8; 8]> = (0..CANDIDATES).map(|i| (i * step).to_be_bytes()).collect();
        let validate = || {
            let mut newer = 0u64;
            let on_newest = |j: usize, ts| newer += u64::from(ts > j as u64);
            let key_of = |j: usize| keys[j].as_slice();
            let walk =
                sorted_timestamps(&storage, &comps, keys.len(), key_of, |_, _| true, on_newest);
            black_box((walk.unwrap(), newer))
        };
        // Nineteen candidates in twenty are stored keys (`build_components`
        // leaves gaps); this also warms the cache.
        assert!(validate().0.tree_probes >= CANDIDATES * 9 / 10);
        group.bench_function(name, |b| b.iter(validate));
    }
    group.finish();
}

/// `point_lookup` over warm pages with 4 and 32 disk components: 1024
/// lookups per iteration, of keys spread over all components (`present`)
/// and of keys no component holds (`absent`: every filter is probed).
fn bench_point_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_lookup");
    for fan_in in [4u64, 32] {
        let storage = Storage::new(StorageOptions {
            cache_pages: 1 << 20, // fully cached: measure CPU only
            ..StorageOptions::test()
        });
        let per_component = 65_536 / fan_in;
        let tree = LsmTree::new(storage.clone(), LsmOptions::default());
        for comp in build_components(&storage, fan_in, per_component, small_value)
            .into_iter()
            .rev()
        {
            tree.push_newest(comp);
        }
        // `build_components` stores key `i * fan_in + c` in component `c`
        // when `i % 10 != 0`; nothing at or past `per_component * fan_in`.
        let present: Vec<[u8; 8]> = (0..1024u64)
            .map(|j| {
                (((j * 61 % (per_component / 10)) * 10 + 1) * fan_in + j % fan_in).to_be_bytes()
            })
            .collect();
        let absent: Vec<[u8; 8]> = (0..1024u64)
            .map(|j| (per_component * fan_in + j * 7919).to_be_bytes())
            .collect();
        for (name, keys, found) in [("present", &present, 1024), ("absent", &absent, 0)] {
            let lookup_all = || {
                let hits = keys.iter().filter(|k| {
                    let hit = point_lookup(&tree, k.as_slice()).unwrap();
                    hit.is_some()
                });
                hits.count()
            };
            assert_eq!(lookup_all(), found); // warm the cache
            group.bench_function(&format!("components_{fan_in}/{name}"), |b| {
                b.iter(lookup_all)
            });
        }
    }
    group.finish();
}

/// The Figure 5 record fetch — `lookup_sorted`, batched, stateful — over 32
/// warm primary-index-shaped components (128 KB pages, ~700-byte records,
/// 2048 keys striped into each): `sparse` asks every component for one key
/// per leaf, the regime of a secondary-index query, where half the tree
/// probes descend; `dense` asks for 4096 consecutive keys, which ride the
/// leaf. An iteration fetches 16 key sets, one `lookup_sorted` each, that
/// together cover every leaf, so the leaves are met out of the L2 cache.
fn bench_batched_fetch(c: &mut Criterion) {
    const FAN_IN: u64 = 32;
    const PER_COMPONENT: u64 = 2048;
    const SETS: u64 = 16;
    let storage = Storage::new(StorageOptions {
        cache_pages: 1 << 12, // fully cached: measure CPU only
        ..StorageOptions::hdd(0)
    });
    let tree = LsmTree::new(storage.clone(), LsmOptions::default());
    let mut per_leaf = 0;
    for c in (0..FAN_IN).rev() {
        let id = ComponentId::new(FAN_IN - c, FAN_IN - c);
        let opts = BuildOptions {
            expected_keys: PER_COMPONENT as usize,
            ..BuildOptions::default()
        };
        let mut b = ComponentBuilder::new(storage.clone(), id, opts).unwrap();
        for i in 0..PER_COMPONENT {
            let key = i * FAN_IN + c;
            b.add(&key.to_be_bytes(), &LsmEntry::put(vec![b'v'; 700]))
                .unwrap();
        }
        let comp = b.finish().unwrap();
        per_leaf = PER_COMPONENT.div_ceil(u64::from(comp.btree().num_leaves()));
        tree.push_newest(Arc::new(comp));
    }
    // Big-endian keys sort like the numbers: both kinds of set ascend.
    let key = |k: u64| k.to_be_bytes().to_vec();
    let sparse: Vec<Vec<Vec<u8>>> = (0..SETS)
        .map(|set| {
            (set * per_leaf / SETS..PER_COMPONENT)
                .step_by(per_leaf as usize)
                .flat_map(|i| (0..FAN_IN).map(move |c| key(i * FAN_IN + c)))
                .collect()
        })
        .collect();
    let dense: Vec<Vec<Vec<u8>>> = (0..SETS)
        .map(|set| (set * 4096..(set + 1) * 4096).map(key).collect())
        .collect();
    let opts = LookupOptions {
        batched: true,
        stateful: true,
        ..LookupOptions::default()
    };
    let mut group = c.benchmark_group("batched_fetch");
    for (name, sets) in [("sparse", &sparse), ("dense", &dense)] {
        let fetch_all = || {
            for keys in sets {
                assert_eq!(lookup_sorted(&tree, keys, &opts).unwrap().len(), keys.len());
            }
        };
        fetch_all(); // warm the cache
        group.bench_function(&format!("components_{FAN_IN}/{name}"), |b| {
            b.iter(fetch_all)
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_bloom, bench_storage_read_hit, bench_btree_search, bench_leaf_search,
        bench_router_route, bench_record_codec, bench_point_lookup, bench_batched_fetch, bench_lsm_scan,
        bench_filter_scan, bench_merge, bench_repair_validate
}
criterion_main!(benches);
