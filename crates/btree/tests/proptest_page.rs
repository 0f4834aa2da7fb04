//! Property tests for the plain key-strip page format (`lsm_btree::page`),
//! against a `BTreeMap` model: fixed-width pages (1-, 9- and 18-byte
//! keys), mixed-width pages (empty keys included) and the one page an
//! empty key can sit on — alone.
//!
//! * every accessor — `entry`, `key`, the scan from every start index or
//!   between any bounds, `InternalPage::route` — answers what the model
//!   does, and pages written in turn through `take_shared` are the pages
//!   a fresh builder writes;
//! * `search`, `exponential_search` and `route` make exactly the probes
//!   of a textbook binary search / gallop over a `Vec<Vec<u8>>`, so the
//!   comparisons charged to the simulated clock cannot have moved;
//! * flipped bytes and truncations of a valid leaf or router page read
//!   back as `Ok` or `Error::Corruption` — never a panic or an
//!   out-of-bounds slice — and a leaf whose ordinal word puts it past the
//!   tree's entry count is `Error::Corruption` to every reader that hands
//!   out ordinals.

use lsm_btree::page::{InternalPage, InternalPageBuilder, LeafPage, LeafPageBuilder};
use lsm_btree::tree::META_MAGIC;
use lsm_btree::{BTree, BTreeBuilder, StatefulCursor};
use lsm_common::Error;
use lsm_storage::{Storage, StorageOptions};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

type Found = Result<usize, usize>;

/// Key bytes: a few repeated symbols (shared prefixes, duplicates that
/// collapse), both extremes, and anything.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(b'a'), Just(b'b'), Just(0u8), Just(0xFF), any::<u8>()]
}

fn raw_entries() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(byte(), 0..20),
            proptest::collection::vec(any::<u8>(), 0..24),
        ),
        0..120,
    )
}

/// The page contents `shape` asks for: keys cut or padded to 1, 9 or 18
/// bytes (shapes 0–2), mixed widths as drawn (3), or one empty key (4).
fn model(shape: usize, raw: Vec<(Vec<u8>, Vec<u8>)>) -> BTreeMap<Vec<u8>, Vec<u8>> {
    match shape {
        0..=2 => {
            let width = [1, 9, 18][shape];
            raw.into_iter()
                .map(|(mut k, v)| {
                    k.resize(width, 0);
                    (k, v)
                })
                .collect()
        }
        3 => raw.into_iter().collect(),
        _ => BTreeMap::from([(
            Vec::new(),
            raw.first().map(|e| e.1.clone()).unwrap_or_default(),
        )]),
    }
}

fn build_leaf(entries: &BTreeMap<Vec<u8>, Vec<u8>>, base: u64) -> Vec<u8> {
    let mut b = LeafPageBuilder::new(1 << 24, base);
    for (k, v) in entries {
        b.add(k, v).unwrap();
    }
    b.finish()
}

fn build_router(keys: &[Vec<u8>]) -> Vec<u8> {
    let mut b = InternalPageBuilder::new(1 << 24);
    for (i, k) in keys.iter().enumerate() {
        b.add(k, i as u32).unwrap();
    }
    b.finish()
}

/// The `key_width` a page over `keys` must declare: their one width, or 0
/// if they have several (or none, or are empty).
fn expected_width(keys: &[Vec<u8>]) -> u16 {
    match keys.first() {
        Some(k) if keys.iter().all(|o| o.len() == k.len()) => k.len() as u16,
        _ => 0,
    }
}

// ---- the reference searches: textbook loops over a `Vec<Vec<u8>>` --------

fn bisect(keys: &[Vec<u8>], probe: &[u8], mut lo: usize, mut hi: usize, cmps: &mut u32) -> Found {
    while lo < hi {
        let mid = (lo + hi) / 2;
        *cmps += 1;
        match keys[mid].as_slice().cmp(probe) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

fn model_search(keys: &[Vec<u8>], probe: &[u8]) -> (Found, u32) {
    let mut cmps = 0;
    (bisect(keys, probe, 0, keys.len(), &mut cmps), cmps)
}

fn model_gallop(keys: &[Vec<u8>], probe: &[u8], from: usize) -> (Found, u32) {
    let n = keys.len();
    let mut cmps = 0;
    if from >= n {
        return (Err(n), cmps);
    }
    let (mut step, mut prev, mut bound) = (1, from, from);
    loop {
        cmps += 1;
        match keys[bound].as_slice().cmp(probe) {
            Ordering::Less => {
                prev = bound + 1;
                if bound == n - 1 {
                    return (Err(n), cmps);
                }
                bound = (bound + step).min(n - 1);
                step *= 2;
            }
            Ordering::Equal => return (Ok(bound), cmps),
            Ordering::Greater => break,
        }
    }
    (bisect(keys, probe, prev, bound, &mut cmps), cmps)
}

/// `(child index, comparisons)`: the rightmost separator `<= probe`, or
/// the first child, found by bisecting for the first separator `> probe`.
fn model_route(keys: &[Vec<u8>], probe: &[u8]) -> (usize, u32) {
    let (mut lo, mut hi, mut cmps) = (0, keys.len(), 0);
    while lo < hi {
        let mid = (lo + hi) / 2;
        cmps += 1;
        if keys[mid].as_slice() <= probe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo.saturating_sub(1), cmps)
}

// ---- damage --------------------------------------------------------------

fn ok_or_corruption<T>(r: &lsm_common::Result<T>) -> bool {
    match r {
        Ok(_) => true,
        Err(e) => matches!(e, Error::Corruption(_)),
    }
}

/// The one page of a one-leaf tree over `entries` as [`BTreeBuilder`]
/// writes it, split into the leaf and the footer behind it (an empty map
/// builds an empty tree: no leaf, the footer alone).
fn one_leaf_page(entries: &BTreeMap<Vec<u8>, Vec<u8>>) -> (Vec<u8>, Vec<u8>) {
    let storage = Storage::new(StorageOptions {
        page_size: 1 << 16,
        ..StorageOptions::test()
    });
    let mut b = BTreeBuilder::new(storage.clone());
    for (k, v) in entries {
        b.add(k, v).unwrap();
    }
    let tree = b.finish().unwrap();
    assert_eq!(storage.file_pages(tree.file()).unwrap(), 1);
    let mut page = storage.read_page(tree.file(), 0).unwrap().to_vec();
    let tail = page.len() - 8;
    assert_eq!(page[tail + 4..], META_MAGIC.to_le_bytes());
    let fields = u32::from_le_bytes(page[tail..tail + 4].try_into().unwrap()) as usize;
    let footer = page.split_off(tail - fields);
    (page, footer)
}

/// Opens a tree whose file is the one page `page`.
fn open_one_page(page: &[u8]) -> lsm_common::Result<BTree> {
    let storage = Storage::new(StorageOptions {
        page_size: 1 << 16,
        ..StorageOptions::test()
    });
    let file = storage.create_file();
    storage.append_page(file, page).unwrap();
    BTree::open(storage, file)
}

/// A tree over one leaf `page`, described by the `footer` behind it.
fn one_leaf_tree(page: &[u8], footer: &[u8]) -> lsm_common::Result<BTree> {
    open_one_page(&[page, footer].concat())
}

/// Reads everything a tree opened over a damaged page claims to hold —
/// searches, cursor seeks and a full scan — expecting `Ok` or
/// `Error::Corruption` from each.
fn read_damaged_tree(tree: &lsm_common::Result<BTree>, probes: &[Vec<u8>]) -> Result<(), String> {
    let tree = match tree {
        Err(e) => {
            prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}");
            return Ok(());
        }
        Ok(tree) => tree,
    };
    let mut cursor = StatefulCursor::new(tree);
    for probe in probes {
        prop_assert!(ok_or_corruption(&tree.search(probe)));
        prop_assert!(ok_or_corruption(&cursor.seek(probe)));
    }
    let mut scan = tree.scan_all().unwrap();
    loop {
        match scan.advance() {
            Ok(true) => {
                let _ = scan.entry();
            }
            Ok(false) => break,
            Err(e) => {
                prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}");
                break;
            }
        }
    }
    Ok(())
}

/// Reads everything a damaged leaf claims to hold, through the page view
/// every reader uses and through a scan of a one-leaf tree over it.
fn read_damaged_leaf(page: &[u8], footer: &[u8], probes: &[Vec<u8>]) -> Result<(), String> {
    match LeafPage::parse(page) {
        Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
        Ok(view) => {
            for i in 0..view.count() {
                prop_assert!(ok_or_corruption(&view.entry(i)));
                prop_assert!(ok_or_corruption(&view.key(i)));
            }
            for probe in probes {
                prop_assert!(ok_or_corruption(&view.search(probe)));
                for from in [0, view.count() / 2, view.count()] {
                    prop_assert!(ok_or_corruption(&view.exponential_search(probe, from)));
                }
            }
        }
    }
    read_damaged_tree(&one_leaf_tree(page, footer), probes)
}

fn read_damaged_router(page: &[u8], probes: &[Vec<u8>]) -> Result<(), String> {
    match InternalPage::parse(page) {
        Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e:?}"),
        Ok(router) => {
            for i in 0..router.count() {
                prop_assert!(ok_or_corruption(&router.entry(i)));
            }
            for probe in probes {
                prop_assert!(ok_or_corruption(&router.route(probe)));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Leaf and router pages over the same keys answer what the model
    // does, through every accessor, and search with the reference probe
    // sequence.
    #[test]
    fn pages_agree_with_the_model(
        shape in 0..5usize,
        raw in raw_entries(),
        probes in proptest::collection::vec(proptest::collection::vec(byte(), 0..20), 0..24),
        base in 0u64..1 << 40,
    ) {
        let entries = model(shape, raw);
        let keys: Vec<Vec<u8>> = entries.keys().cloned().collect();
        let n = keys.len();
        let data = build_leaf(&entries, base);
        prop_assert_eq!(&data[8..12], &[&(n as u16).to_le_bytes()[..], &expected_width(&keys).to_le_bytes()].concat()[..]);
        let page = LeafPage::parse(&data).unwrap();
        prop_assert_eq!((page.count(), page.base_ordinal()), (n, base));
        for (i, (k, v)) in entries.iter().enumerate() {
            prop_assert_eq!(page.entry(i).unwrap(), (k.as_slice(), v.as_slice()), "entry {}", i);
            prop_assert_eq!(page.key(i).unwrap(), k.as_slice(), "key {}", i);
        }
        prop_assert_eq!(page.first_key().unwrap(), keys.first().map(|k| k.as_slice()));
        prop_assert_eq!(page.last_key().unwrap(), keys.last().map(|k| k.as_slice()));

        let router_data = build_router(&keys);
        prop_assert_eq!(&router_data[..4], &data[8..12]);
        let router = InternalPage::parse(&router_data).unwrap();
        prop_assert_eq!(router.count(), n);
        for (i, k) in keys.iter().enumerate() {
            prop_assert_eq!(router.entry(i).unwrap(), (k.as_slice(), i as u32));
        }

        for probe in keys.iter().chain(&probes) {
            prop_assert_eq!(page.search(probe).unwrap(), model_search(&keys, probe), "search {:?}", probe);
            for from in 0..=n {
                prop_assert_eq!(
                    page.exponential_search(probe, from).unwrap(),
                    model_gallop(&keys, probe, from),
                    "gallop {:?} from {}", probe, from
                );
            }
            if n > 0 {
                let (idx, cmps) = model_route(&keys, probe);
                prop_assert_eq!(router.route(probe).unwrap(), (idx, idx as u32, cmps), "route {:?}", probe);
            }
        }

        // A value end run backwards or past the page is corruption, for
        // the entry it ends and the one it starts; keys still read.
        if n >= 2 {
            let keys_end = match expected_width(&keys) {
                0 => 12 + 4 * n + keys.iter().map(Vec::len).sum::<usize>(),
                w => 12 + n * usize::from(w),
            };
            let mut bad = data.clone();
            bad[keys_end..keys_end + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let page = LeafPage::parse(&bad).unwrap();
            prop_assert!(matches!(page.entry(0), Err(Error::Corruption(_))));
            prop_assert!(matches!(page.entry(1), Err(Error::Corruption(_))));
            prop_assert_eq!(page.search(&keys[1]).unwrap(), model_search(&keys, &keys[1]));
        }
    }

    // The scan — a walk over each leaf — from every start index of a
    // multi-leaf tree yields the model's entries from there on, with their
    // ordinals; and every key is found by a root-to-leaf search.
    #[test]
    fn scans_from_every_start_agree_with_the_model(
        shape in 0..5usize,
        raw in raw_entries(),
    ) {
        let entries = model(shape, raw);
        let storage = Storage::new(StorageOptions {
            page_size: 512,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(storage);
        for (k, v) in &entries {
            b.add(k, v).unwrap();
        }
        let tree = b.finish().unwrap();
        let rows: Vec<(Vec<u8>, Vec<u8>, u64)> = entries
            .iter()
            .enumerate()
            .map(|(i, (k, v))| (k.clone(), v.clone(), i as u64))
            .collect();
        for (i, (k, v, ord)) in rows.iter().enumerate() {
            prop_assert_eq!(tree.search(k).unwrap(), Some((v.clone(), *ord)));
            let mut scan = tree.scan(Bound::Included(k), Bound::Unbounded).unwrap();
            let mut got = Vec::new();
            while let Some(row) = scan.next_entry().unwrap() {
                got.push(row);
            }
            prop_assert_eq!(&got[..], &rows[i..], "scan from {}", i);
        }
    }

    // A range scan of a multi-leaf tree, under any pair of bounds —
    // included, excluded or open — yields the model's range with its
    // ordinals, whether its bounds fall on keys, between them or outside.
    #[test]
    fn range_scans_agree_with_the_model(
        shape in 0..5usize,
        raw in raw_entries(),
        lo in (0..3u8, proptest::collection::vec(byte(), 0..20)),
        hi in (0..3u8, proptest::collection::vec(byte(), 0..20)),
    ) {
        let entries = model(shape, raw);
        let storage = Storage::new(StorageOptions {
            page_size: 512,
            ..StorageOptions::test()
        });
        let mut b = BTreeBuilder::new(storage);
        for (k, v) in &entries {
            b.add(k, v).unwrap();
        }
        let tree = b.finish().unwrap();
        let bound = |(kind, key): (u8, Vec<u8>)| match kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(key),
            _ => Bound::Excluded(key),
        };
        let (lo, hi) = (bound(lo), bound(hi));
        let lo_ref = match &lo {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        };
        let above = |k: &[u8]| match &lo {
            Bound::Unbounded => true,
            Bound::Included(l) => k >= l.as_slice(),
            Bound::Excluded(l) => k > l.as_slice(),
        };
        let below = |k: &[u8]| match &hi {
            Bound::Unbounded => true,
            Bound::Included(h) => k <= h.as_slice(),
            Bound::Excluded(h) => k < h.as_slice(),
        };
        let want: Vec<(Vec<u8>, Vec<u8>, u64)> = entries
            .iter()
            .enumerate()
            .filter(|(_, (k, _))| above(k) && below(k))
            .map(|(i, (k, v))| (k.clone(), v.clone(), i as u64))
            .collect();
        let mut scan = tree.scan(lo_ref, hi.clone()).unwrap();
        let mut got = Vec::new();
        while let Some(row) = scan.next_entry().unwrap() {
            got.push(row);
        }
        prop_assert_eq!(got, want);
    }

    // Leaves written one after another through `take_shared` — how the
    // bulk loader writes them — are byte for byte the pages fresh builders
    // `finish` over the same runs of entries and base ordinals.
    #[test]
    fn pages_written_in_turn_match_fresh_pages(
        shape in 0..5usize,
        raw in raw_entries(),
        cuts in proptest::collection::vec(0..40usize, 1..6),
        base in 0u64..1 << 40,
    ) {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = model(shape, raw).into_iter().collect();
        let mut shared = LeafPageBuilder::new(1 << 24, base);
        let (mut at, mut ordinal) = (0, base);
        for cut in cuts {
            let run: BTreeMap<Vec<u8>, Vec<u8>> =
                entries[at..(at + cut).min(entries.len())].iter().cloned().collect();
            for (k, v) in &run {
                shared.add(k, v).unwrap();
            }
            at += run.len();
            let next = ordinal + run.len() as u64;
            let page = shared.take_shared(next, &[]);
            prop_assert_eq!(&page[..], &build_leaf(&run, ordinal)[..], "run at {}", ordinal);
            ordinal = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Every truncation and random byte flips of a valid leaf or router
    // page read back as `Ok` or `Error::Corruption`. A one-leaf tree's
    // page whose final append was cut short or torn does not open
    // (`Error::Corruption`), and one whose footer bytes were flipped opens
    // as `Ok` or `Error::Corruption` and reads the same way.
    #[test]
    fn damaged_pages_are_corruption_not_panics(
        shape in 0..5usize,
        raw in raw_entries(),
        flips in proptest::collection::vec((any::<usize>(), 1..=255u8), 1..4),
        probes in proptest::collection::vec(proptest::collection::vec(byte(), 0..20), 1..6),
        ordinal_bit in 0..64u32,
    ) {
        let entries = model(shape, raw);
        let keys: Vec<Vec<u8>> = entries.keys().cloned().collect();
        let mut probes: Vec<Vec<u8>> = probes.into_iter().chain(keys.iter().step_by(7).cloned()).collect();
        probes.sort();
        let leaf = build_leaf(&entries, 0);
        let (built, footer) = one_leaf_page(&entries);
        // The bulk loader's lone leaf is the page builder's leaf; an empty
        // map builds no leaf at all.
        prop_assert_eq!(&built[..], if entries.is_empty() { &[][..] } else { &leaf[..] });
        let router = build_router(&keys);

        // One flipped bit of the ordinal word moves the leaf past the
        // tree's entries: still a well-formed page, but every search, cursor
        // probe (descent and held leaf alike) and scan that would hand out
        // one of its ordinals reports corruption instead.
        if !entries.is_empty() {
            let mut shifted = leaf.clone();
            shifted[ordinal_bit as usize / 8] ^= 1 << (ordinal_bit % 8);
            let tree = one_leaf_tree(&shifted, &footer).unwrap();
            let mut cursor = StatefulCursor::new(&tree);
            for probe in &probes {
                prop_assert!(matches!(tree.search(probe), Err(Error::Corruption(_))));
                prop_assert!(matches!(cursor.seek(probe), Err(Error::Corruption(_))));
            }
            prop_assert!(matches!(tree.scan_all().unwrap().advance(), Err(Error::Corruption(_))));
        }

        // The footer ends the page, so a short or torn final append — cut
        // anywhere in the footer, or in the leaf before it — loses its tail.
        let page = [&built[..], &footer[..]].concat();
        for keep in [0, built.len() / 2].into_iter().chain(built.len()..page.len()) {
            let mut torn = page.clone();
            torn[keep..].fill(0);
            for damaged in [&page[..keep], &torn[..]] {
                let opened = open_one_page(damaged).map(drop);
                prop_assert!(matches!(opened, Err(Error::Corruption(_))), "keep {}: {:?}", keep, opened);
            }
        }
        let mut flipped = page.clone();
        for &(at, mask) in &flips {
            flipped[built.len() + at % footer.len()] ^= mask;
            read_damaged_tree(&open_one_page(&flipped), &probes)?;
        }

        for cut in 0..leaf.len() {
            read_damaged_leaf(&leaf[..cut], &footer, &probes)?;
        }
        for cut in 0..router.len() {
            read_damaged_router(&router[..cut], &probes)?;
        }
        let (mut leaf, mut router) = (leaf, router);
        for (at, mask) in flips {
            let len = leaf.len();
            leaf[at % len] ^= mask;
            let len = router.len();
            router[at % len] ^= mask;
            read_damaged_leaf(&leaf, &footer, &probes)?;
            read_damaged_router(&router, &probes)?;
        }
    }
}
