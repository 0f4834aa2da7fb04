//! The committed record of the simulated clock: text files under
//! `crates/bench/golden/` that tests compare fresh runs with.
//!
//! * `figures-0.01.tsv` and `figures-1.tsv` hold every figure at scale
//!   0.01 and 1 ([`figures::tsv`](crate::figures::tsv)).
//! * `ledger.tsv` holds one sorted `row<TAB>field<TAB>value` line per cost
//!   that `tests/cost_parity.rs` pins ([`ledger`]).
//!
//! A comparison reports only the lines that moved. One ignored test
//! rewrites all three files from the tree it runs in:
//!
//! ```text
//! cargo test --release -p lsm-bench --test cost_parity -- --ignored
//! ```
//!
//! A change that moves a charged cost commits that diff and says why.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The command that rewrites every golden file.
const REWRITE: &str = "cargo test --release -p lsm-bench --test cost_parity -- --ignored";

/// What a ledger row records: `(field, value)` pairs, one line each.
pub type Costs = Vec<(&'static str, u64)>;

/// The path of golden file `name`.
fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Writes `text` as golden file `name`.
pub fn write(name: &str, text: &str) {
    let path = path(name);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

/// The text of `ledger.tsv` for `rows`: each row's costs, one
/// `row<TAB>field<TAB>value` line each, all lines sorted.
pub fn ledger<'a>(rows: impl IntoIterator<Item = (&'a str, Costs)>) -> String {
    let mut lines: Vec<String> = rows
        .into_iter()
        .flat_map(|(row, costs)| {
            costs
                .into_iter()
                .map(move |(f, v)| format!("{row}\t{f}\t{v}\n"))
        })
        .collect();
    lines.sort_unstable();
    lines.concat()
}

/// The lines that differ between `expected` and `actual`, in whatever
/// order either holds them: `- line` for each line of `expected` that
/// `actual` lacks and `+ line` for each line of `actual` that `expected`
/// lacks, sorted by line. Blank lines are skipped. `None` when both hold
/// the same lines.
pub fn diff(expected: &str, actual: &str) -> Option<String> {
    let mut surplus: BTreeMap<&str, i64> = BTreeMap::new();
    for (text, one) in [(expected, -1), (actual, 1)] {
        for line in text.lines().filter(|l| !l.is_empty()) {
            *surplus.entry(line).or_default() += one;
        }
    }
    let mut moved = String::new();
    for (line, n) in surplus {
        let sign = if n < 0 { '-' } else { '+' };
        for _ in 0..n.abs() {
            moved += &format!("{sign} {line}\n");
        }
    }
    (!moved.is_empty()).then_some(moved)
}

/// Panics, naming the lines that moved, unless `actual` holds the lines
/// of golden file `name`.
pub fn check(name: &str, actual: &str) {
    compare(name, |_| true, actual);
}

/// Panics, naming the lines that moved, unless `costs` are what
/// `ledger.tsv` records for `row`.
pub fn check_ledger(row: &str, costs: Costs) {
    let prefix = format!("{row}\t");
    compare(
        "ledger.tsv",
        |l| l.starts_with(&prefix),
        &ledger([(row, costs)]),
    );
}

/// [`diff`] of the lines of golden file `name` that `keep` selects
/// against `actual`, as a panic.
fn compare(name: &str, keep: impl Fn(&str) -> bool, actual: &str) {
    let path = path(name);
    let read = std::fs::read_to_string(&path);
    let text = read.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let expected: Vec<&str> = text.lines().filter(|l| keep(l)).collect();
    if let Some(moved) = diff(&expected.join("\n"), actual) {
        panic!(
            "golden/{name} moved (- recorded, + now):\n{moved}\
             A change that means to move these re-records them with `{REWRITE}`."
        );
    }
}
