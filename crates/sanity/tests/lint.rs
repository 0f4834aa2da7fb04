//! End-to-end runs of every lint check against the seeded fixture trees
//! (`tests/fixtures/violations`, `tests/fixtures/clean`) and the real
//! workspace. The fixture directories are invisible to the lint's own
//! walker (it skips any `fixtures/` dir), so the seeded violations can
//! never leak into a real-tree run.

use lsm_sanity::{run_all, Violation};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Asserts exactly one violation of `check` matches `needle`, and returns it.
fn find<'a>(vs: &'a [Violation], check: &str, needle: &str) -> &'a Violation {
    let hits: Vec<&Violation> = vs
        .iter()
        .filter(|v| v.check == check && v.message.contains(needle))
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected one [{check}] violation matching {needle:?}, got {hits:#?}\nall: {vs:#?}"
    );
    hits[0]
}

#[test]
fn violations_fixture_flags_every_class() {
    let vs = run_all(&fixture("violations"));

    // 1. Raw std lock in engine code, with the offending line pinpointed.
    let v = find(&vs, "std-sync", "Mutex");
    assert_eq!(v.file, Path::new("crates/core/src/lib.rs"));
    assert_eq!(v.line, 1);

    // 2a. A fresh unwrap beyond the (absent) allowlist entry, in an
    // engine crate and in the B+-tree crate, whose decoders read device
    // bytes.
    let fresh: Vec<(&Path, usize)> = vs
        .iter()
        .filter(|v| v.check == "unwrap-ratchet" && v.message.contains("allowlist permits 0"))
        .map(|v| (v.file.as_path(), v.line))
        .collect();
    assert_eq!(
        fresh,
        [
            (Path::new("crates/btree/src/lib.rs"), 3),
            (Path::new("crates/core/src/lib.rs"), 6)
        ]
    );
    // 2b. Debt that shrank without ratcheting the allowlist down.
    find(&vs, "unwrap-ratchet", "debt shrank");
    // 2c. An allowlist entry whose file no longer exists.
    find(&vs, "unwrap-ratchet", "no longer exists");

    // 3a. Engine crash site with no torture trigger…
    find(&vs, "crash-site", "no FaultKind trigger");
    // 3b. …and missing from the architecture guide's table.
    find(&vs, "crash-site", "missing from ARCHITECTURE.md");
    // 3c. Torture trigger nothing probes.
    find(&vs, "crash-site", "orphaned fault");

    // 4. Runtime snapshot field nobody documented.
    find(
        &vs,
        "counter-docs",
        "RuntimeStatsSnapshot.undocumented_counter",
    );

    // 5. Broken relative link in a guide.
    let v = find(&vs, "md-link", "does-not-exist.md");
    assert_eq!(v.file, Path::new("ARCHITECTURE.md"));

    // 6a. A pub item no other file names…
    let v = find(&vs, "dead-pub", "`never_called`");
    assert_eq!(v.file, Path::new("crates/core/src/lib.rs"));
    assert_eq!(v.line, 13);
    // 6b. A pub fn another file names only as a field is not called…
    let v = find(&vs, "dead-pub", "`hidden_by_a_field`");
    assert_eq!(v.line, 15);
    // 6c. …and an allowlist exemption for an item that is gone.
    let v = find(
        &vs,
        "dead-pub",
        "removed_helper` names an item that no longer exists",
    );
    assert_eq!(v.file, Path::new("crates/sanity/allowlist.txt"));
    assert_eq!(v.line, 5);

    // 7. A build path that creates its own file, bypassing the frontier.
    let v = find(&vs, "create-file", "write frontier");
    assert_eq!(v.file, Path::new("crates/btree/src/lib.rs"));
    assert_eq!(v.line, 11);
}

#[test]
fn violations_fixture_has_no_unexpected_findings() {
    // Every violation in the seeded tree is one we planted: 14 in total.
    // The B+-tree crate's probe of an unknown crash site is not one: the
    // crash-site scan covers the engine crates alone.
    let vs = run_all(&fixture("violations"));
    assert_eq!(vs.len(), 14, "{vs:#?}");
    assert!(!vs.iter().any(|v| v.message.contains("btree_only_window")));
}

#[test]
fn clean_fixture_passes() {
    let vs = run_all(&fixture("clean"));
    assert!(
        vs.is_empty(),
        "clean fixture should have no findings: {vs:#?}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let vs = run_all(root);
    assert!(vs.is_empty(), "workspace must stay lint-clean: {vs:#?}");
}
