//! `lsm-sanity` — a line-level static lint over the workspace sources.
//!
//! The engine owns its sync primitives (the vendored `parking_lot` shim) and
//! its fault-injection vocabulary (crash sites, stats counters), so a small
//! purpose-built lint can enforce invariants rustc cannot see:
//!
//! 1. **Sync-shim enforcement** — `std::sync` `Mutex`/`RwLock`/`Condvar` are
//!    forbidden everywhere outside the shim; a raw `std` lock is invisible
//!    to the lock-order deadlock detector (`--cfg lock_order_check`).
//! 2. **`unwrap()`/`expect(` ratchet** — non-test engine code
//!    (`crates/{core,lsm,storage}/src`) may not grow new panic sites. The
//!    committed allowlist (`crates/sanity/allowlist.txt`) freezes existing
//!    debt per file; a count that moves in *either* direction fails, so debt
//!    is burned down explicitly, never grandfathered silently. A site whose
//!    line (or the contiguous comment block directly above it) carries an
//!    `// INVARIANT:` comment is a justified survivor and exempt.
//! 3. **Crash-site cross-check** — every site name probed in engine code
//!    must appear in the torture harness's fault table (so every window has
//!    deterministic crash coverage) and in ARCHITECTURE.md's crash-site
//!    table; and vice versa (no orphaned trigger rows).
//! 4. **Counter parity** — every `AtomicU64` counter of `EngineStats` /
//!    `IoStats` has a same-named field in its `…Snapshot` twin (a missing
//!    field compiles fine and silently never reports), and every
//!    `RuntimeStatsSnapshot` field is documented in docs/OPERATIONS.md.
//! 5. **Guide links** — relative links in ARCHITECTURE.md and
//!    docs/OPERATIONS.md must resolve (absorbed from the CI docs job's old
//!    grep step).
//! 6. **Dead `pub` surface** — every `pub` fn, struct, enum, trait, type,
//!    const or static declared on a non-test line under `crates/*/src` must
//!    be named in some *other* `.rs` file under `crates/`, `examples/` or
//!    `benchmark/` (comment lines and `pub use` re-exports do not count; a
//!    fn counts only where it is called, `name(` or `name::<…>(`, or
//!    pathed, `::name`, so a field or local of the same name does not hide
//!    it), or carry a `dead-pub <path> <name> <reason>` line in the
//!    allowlist. An allowlist line without a reason, or whose item is gone
//!    or now named elsewhere, is itself a finding.
//!
//! All checks are pure functions over a workspace root, so the fixture trees
//! under `tests/fixtures/` exercise each violation class hermetically.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

// Built from pieces so the lint does not flag its own source.
const STD_SYNC_PREFIX: &str = concat!("std::", "sync::");
const FORBIDDEN_SYNC: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
const UNWRAP_PAT: &str = concat!(".unwrap", "()");
const EXPECT_PAT: &str = concat!(".expect", "(");
const INVARIANT_PAT: &str = concat!("// ", "INVARIANT:");

/// Crates whose `src/` trees are "engine code" for the unwrap ratchet and
/// the crash-site scan.
const ENGINE_CRATES: [&str; 3] = ["crates/core", "crates/lsm", "crates/storage"];

/// The operator guides whose relative links must resolve.
const GUIDES: [&str; 2] = ["ARCHITECTURE.md", "docs/OPERATIONS.md"];

/// Root-relative path of the allowlist (unwrap/expect debt and dead-pub
/// exemptions).
const ALLOWLIST_PATH: &str = "crates/sanity/allowlist.txt";

/// First word of a dead-pub allowlist line.
const DEAD_PUB_TAG: &str = "dead-pub";

/// Item kinds the dead-pub check covers, as the keyword after `pub`.
const PUB_ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Trees whose files can name a `pub` item.
const CALLER_TREES: [&str; 3] = ["crates", "examples", "benchmark"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-root-relative file.
    pub file: PathBuf,
    /// 1-based line (0 = whole file).
    pub line: usize,
    /// Which check fired (stable kebab-case id).
    pub check: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.check,
            self.message
        )
    }
}

fn violation(
    file: impl Into<PathBuf>,
    line: usize,
    check: &'static str,
    message: impl Into<String>,
) -> Violation {
    Violation {
        file: file.into(),
        line,
        check,
        message: message.into(),
    }
}

/// Runs every check against the workspace at `root`.
pub fn run_all(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(check_std_sync(root));
    out.extend(check_unwrap_ratchet(root));
    out.extend(check_crash_sites(root));
    out.extend(check_counter_parity(root));
    out.extend(check_markdown_links(root));
    out.extend(check_dead_pub(root));
    out
}

// ---------------------------------------------------------------------------
// file walking

/// All `.rs` files under `root/<sub>`, root-relative, sorted. Skips
/// `target/`, hidden dirs, and `fixtures/` (the lint's own seeded-violation
/// trees must not flag the real workspace).
fn rust_files(root: &Path, sub: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(&root.join(sub), root, &mut out);
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

fn read(root: &Path, rel: &Path) -> Option<String> {
    std::fs::read_to_string(root.join(rel)).ok()
}

/// True for lines that are entirely comment (line, doc, or inner-doc).
fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//")
}

/// Iterates non-test lines of a source file: lines inside a `#[cfg(test)]`
/// item (by convention the trailing `mod tests` block) are skipped via
/// brace counting.
fn non_test_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut skipping = false;
    let mut pending = false; // saw #[cfg(test)], waiting for the item's `{`
    let mut depth = 0i32;
    src.lines().enumerate().filter_map(move |(i, line)| {
        if !skipping && !pending && line.trim_start().starts_with("#[cfg(test)]") {
            pending = true;
            return None;
        }
        if pending {
            let opens = line.matches('{').count() as i32;
            let closes = line.matches('}').count() as i32;
            if opens > 0 {
                pending = false;
                skipping = true;
                depth = opens - closes;
                if depth <= 0 {
                    skipping = false;
                }
            }
            return None;
        }
        if skipping {
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            if depth <= 0 {
                skipping = false;
            }
            return None;
        }
        Some((i + 1, line))
    })
}

/// The code portion of a line (naive `//` comment strip; good enough for a
/// line lint — URLs inside strings are the only notable false cut, and they
/// only ever *hide* trailing code on that line).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

// ---------------------------------------------------------------------------
// check 1: std::sync lock ban

fn check_std_sync(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for sub in ["crates", "examples"] {
        for rel in rust_files(root, sub) {
            let Some(src) = read(root, &rel) else {
                continue;
            };
            for (i, line) in src.lines().enumerate() {
                if is_comment_line(line) {
                    continue;
                }
                let code = code_part(line);
                if !code.contains(STD_SYNC_PREFIX) {
                    continue;
                }
                for prim in FORBIDDEN_SYNC {
                    if code.contains(prim) {
                        out.push(violation(
                            &rel,
                            i + 1,
                            "std-sync",
                            format!(
                                "raw {STD_SYNC_PREFIX}{prim} — use the parking_lot shim so the \
                                 lock participates in lock-order checking"
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// check 2: unwrap/expect ratchet

/// Parses the unwrap/expect half of the allowlist: `path<space>count`
/// lines, `#` comments.
fn parse_allowlist(src: &str) -> Vec<(String, usize)> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with(DEAD_PUB_TAG))
        .filter_map(|l| {
            let (path, count) = l.rsplit_once(char::is_whitespace)?;
            Some((path.trim().to_string(), count.parse().ok()?))
        })
        .collect()
}

/// Unjustified panic-site lines (1-based) in non-test code.
fn panic_sites(src: &str) -> Vec<usize> {
    let lines: Vec<&str> = src.lines().collect();
    non_test_lines(src)
        .filter(|(n, line)| {
            if is_comment_line(line) {
                return false;
            }
            let code = code_part(line);
            if !code.contains(UNWRAP_PAT) && !code.contains(EXPECT_PAT) {
                return false;
            }
            // Justified survivor: the invariant is stated on the line
            // itself or anywhere in the contiguous comment block directly
            // above it (multi-line justifications are common).
            if line.contains(INVARIANT_PAT) {
                return false;
            }
            let mut i = *n - 1; // index of the line above, 0-based
            while i > 0 && is_comment_line(lines[i - 1]) {
                if lines[i - 1].contains(INVARIANT_PAT) {
                    return false;
                }
                i -= 1;
            }
            true
        })
        .map(|(n, _)| n)
        .collect()
}

fn check_unwrap_ratchet(root: &Path) -> Vec<Violation> {
    let allow = read(root, Path::new(ALLOWLIST_PATH))
        .map(|s| parse_allowlist(&s))
        .unwrap_or_default();
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for krate in ENGINE_CRATES {
        for rel in rust_files(root, &format!("{krate}/src")) {
            let Some(src) = read(root, &rel) else {
                continue;
            };
            let sites = panic_sites(&src);
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            seen.insert(rel_str.clone());
            let allowed = allow
                .iter()
                .find(|(p, _)| *p == rel_str)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            match sites.len().cmp(&allowed) {
                std::cmp::Ordering::Greater => {
                    for &line in &sites[allowed..] {
                        out.push(violation(
                            &rel,
                            line,
                            "unwrap-ratchet",
                            format!(
                                "new {UNWRAP_PAT} / {EXPECT_PAT}… in engine code ({} sites, \
                                 allowlist permits {allowed}): return an Error variant, or \
                                 state the invariant in an `{INVARIANT_PAT} …` comment",
                                sites.len()
                            ),
                        ));
                    }
                }
                std::cmp::Ordering::Less => out.push(violation(
                    &rel,
                    0,
                    "unwrap-ratchet",
                    format!(
                        "debt shrank ({} sites, allowlist says {allowed}) — ratchet \
                         {} down in {ALLOWLIST_PATH} so it cannot grow back",
                        sites.len(),
                        rel_str
                    ),
                )),
                std::cmp::Ordering::Equal => {}
            }
        }
    }
    for (path, _) in &allow {
        if !seen.contains(path) {
            out.push(violation(
                Path::new(ALLOWLIST_PATH),
                0,
                "unwrap-ratchet",
                format!("allowlist names a file that no longer exists: {path}"),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// check 3: crash-site cross-check

/// Extracts double-quoted `snake_case` strings from a line.
fn quoted_names(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        let name = &after[..end];
        if !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            out.push(name);
        }
        rest = &after[end + 1..];
    }
    out
}

/// Site names probed by engine code: string literals on non-test,
/// non-comment lines that mention `crash_site` / `probe_crash_site` /
/// a `*_SITE` const.
fn engine_sites(root: &Path) -> BTreeSet<(String, PathBuf, usize)> {
    let mut out = BTreeSet::new();
    for krate in ENGINE_CRATES {
        for rel in rust_files(root, &format!("{krate}/src")) {
            let Some(src) = read(root, &rel) else {
                continue;
            };
            for (n, line) in non_test_lines(&src) {
                if is_comment_line(line) {
                    continue;
                }
                let code = code_part(line);
                if !(code.contains("crash_site") || code.contains("_SITE")) {
                    continue;
                }
                for name in quoted_names(code) {
                    out.insert((name.to_string(), rel.clone(), n));
                }
            }
        }
    }
    out
}

fn check_crash_sites(root: &Path) -> Vec<Violation> {
    let engine = engine_sites(root);
    let engine_names: BTreeSet<&str> = engine.iter().map(|(n, _, _)| n.as_str()).collect();

    // Torture's fault table: site("name") trigger constructors.
    let mut torture: BTreeSet<String> = BTreeSet::new();
    let mut torture_locs: Vec<(String, PathBuf, usize)> = Vec::new();
    for rel in rust_files(root, "crates/torture/src") {
        let Some(src) = read(root, &rel) else {
            continue;
        };
        for (n, line) in non_test_lines(&src) {
            if is_comment_line(line) {
                continue;
            }
            let code = code_part(line);
            if let Some(idx) = code.find("site(") {
                for name in quoted_names(&code[idx..]) {
                    torture.insert(name.to_string());
                    torture_locs.push((name.to_string(), rel.clone(), n));
                }
            }
        }
    }

    // ARCHITECTURE.md: any backticked snake_case token counts as documented.
    let arch = read(root, Path::new("ARCHITECTURE.md")).unwrap_or_default();
    let arch_mentions = |name: &str| arch.contains(&format!("`{name}`"));

    let mut out = Vec::new();
    for (name, file, line) in &engine {
        if !torture.contains(name) {
            out.push(violation(
                file,
                *line,
                "crash-site",
                format!(
                    "engine crash site \"{name}\" has no FaultKind trigger in \
                     crates/torture (build_plan's site(\"{name}\") table) — the window \
                     has no deterministic crash coverage"
                ),
            ));
        }
        if !arch_mentions(name) {
            out.push(violation(
                file,
                *line,
                "crash-site",
                format!("engine crash site \"{name}\" is missing from ARCHITECTURE.md's crash-site table"),
            ));
        }
    }
    for (name, file, line) in &torture_locs {
        if !engine_names.contains(name.as_str()) {
            out.push(violation(
                file,
                *line,
                "crash-site",
                format!("torture triggers on site \"{name}\" but no engine code probes it (orphaned fault)"),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// check 4: counter parity

/// Field names of `struct name { … }` in `src` whose type contains `ty`.
fn struct_fields(src: &str, name: &str, ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    let header = format!("struct {name} {{");
    let mut in_struct = false;
    for line in src.lines() {
        let t = line.trim();
        if !in_struct {
            if t.contains(&header) {
                in_struct = true;
            }
            continue;
        }
        if t == "}" {
            break;
        }
        if is_comment_line(t) || t.starts_with('#') {
            continue;
        }
        let Some((field, fty)) = t.trim_start_matches("pub ").split_once(':') else {
            continue;
        };
        if fty.contains(ty) {
            out.push(field.trim().to_string());
        }
    }
    out
}

fn parity(
    root: &Path,
    rel: &str,
    live: (&str, &str),
    snap: (&str, &str),
    out: &mut Vec<Violation>,
) {
    let Some(src) = read(root, Path::new(rel)) else {
        return;
    };
    let live_fields: BTreeSet<String> = struct_fields(&src, live.0, live.1).into_iter().collect();
    let snap_fields: BTreeSet<String> = struct_fields(&src, snap.0, snap.1).into_iter().collect();
    if live_fields.is_empty() {
        return; // struct moved: surfaced by the RuntimeStatsSnapshot check or tests
    }
    for f in live_fields.difference(&snap_fields) {
        out.push(violation(
            Path::new(rel),
            0,
            "counter-parity",
            format!(
                "{}.{f} has no matching field in {} — the counter would silently \
                 never be reported",
                live.0, snap.0
            ),
        ));
    }
    for f in snap_fields.difference(&live_fields) {
        out.push(violation(
            Path::new(rel),
            0,
            "counter-parity",
            format!("{}.{f} has no matching live counter in {}", snap.0, live.0),
        ));
    }
}

fn check_counter_parity(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    parity(
        root,
        "crates/core/src/stats.rs",
        ("EngineStats", "AtomicU64"),
        ("EngineStatsSnapshot", "u64"),
        &mut out,
    );
    parity(
        root,
        "crates/storage/src/stats.rs",
        ("IoStats", "AtomicU64"),
        ("IoStatsSnapshot", "u64"),
        &mut out,
    );
    // Every operator-visible runtime counter must be documented.
    if let Some(sched) = read(root, Path::new("crates/core/src/scheduler.rs")) {
        let ops = read(root, Path::new("docs/OPERATIONS.md")).unwrap_or_default();
        for f in struct_fields(&sched, "RuntimeStatsSnapshot", "") {
            if !ops.contains(&format!("`{f}`")) {
                out.push(violation(
                    Path::new("crates/core/src/scheduler.rs"),
                    0,
                    "counter-parity",
                    format!(
                        "RuntimeStatsSnapshot.{f} is not documented in docs/OPERATIONS.md \
                         (\"Reading RuntimeStatsSnapshot\")"
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// check 5: guide links

fn check_markdown_links(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for guide in GUIDES {
        let rel = Path::new(guide);
        let Some(src) = read(root, rel) else { continue };
        let base = root.join(rel.parent().unwrap_or(Path::new("")));
        for (i, line) in src.lines().enumerate() {
            let mut rest = line;
            while let Some(idx) = rest.find("](") {
                rest = &rest[idx + 2..];
                let Some(end) = rest.find([')', '#']) else {
                    break;
                };
                let link = &rest[..end];
                rest = &rest[end..];
                if link.is_empty() || link.starts_with("http") {
                    continue;
                }
                if !base.join(link).exists() {
                    out.push(violation(
                        rel,
                        i + 1,
                        "md-link",
                        format!("broken relative link: {link}"),
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// check 6: dead pub surface

/// The kind and name a `pub` item line declares, if it declares one of
/// [`PUB_ITEM_KINDS`] (`const fn` and `unsafe fn` count as fns).
fn pub_item_name(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut words = rest.split_whitespace();
    let (mut kind, mut name) = (words.next()?, words.next()?);
    while matches!(kind, "const" | "unsafe" | "async") && matches!(name, "fn" | "unsafe") {
        (kind, name) = (name, words.next()?);
    }
    if !PUB_ITEM_KINDS.contains(&kind) {
        return None;
    }
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    (end > 0).then(|| (kind, &name[..end]))
}

/// The code of the lines of `src` that can name an item: comment lines and
/// `pub use` re-exports do not.
fn naming_lines(src: &str) -> impl Iterator<Item = &str> {
    src.lines()
        .filter(|l| !is_comment_line(l) && !l.trim_start().starts_with("pub use "))
        .map(code_part)
}

/// Identifier tokens of the lines of `src` that can name an item.
fn mentions(src: &str) -> BTreeSet<&str> {
    naming_lines(src)
        .flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|t| !t.is_empty())
        .collect()
}

/// Identifier tokens of the lines of `src` used the way a fn is: called
/// (`name(`, `name::<…>(`) or pathed (`::name`). A field or local that
/// shares a fn's name is neither.
fn calls(src: &str) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    for code in naming_lines(src) {
        let mut start = None;
        for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
            match (start, c.is_alphanumeric() || c == '_') {
                (None, true) => start = Some(i),
                (Some(s), false) => {
                    let after = &code[i..];
                    if code[..s].ends_with("::")
                        || after.starts_with('(')
                        || after.starts_with("::<")
                    {
                        out.insert(&code[s..i]);
                    }
                    start = None;
                }
                _ => {}
            }
        }
    }
    out
}

/// One `dead-pub <path> <name> <reason>` allowlist line.
struct DeadPubEntry {
    line: usize,
    path: String,
    name: String,
    reason: String,
}

fn parse_dead_pub_allowlist(src: &str) -> Vec<DeadPubEntry> {
    src.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let rest = l.trim().strip_prefix(DEAD_PUB_TAG)?.trim_start();
            let (path, rest) = rest.split_once(char::is_whitespace)?;
            let rest = rest.trim_start();
            let (name, reason) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            Some(DeadPubEntry {
                line: i + 1,
                path: path.to_string(),
                name: name.to_string(),
                reason: reason.trim().to_string(),
            })
        })
        .collect()
}

fn check_dead_pub(root: &Path) -> Vec<Violation> {
    let files: Vec<(PathBuf, String)> = CALLER_TREES
        .iter()
        .flat_map(|tree| rust_files(root, tree))
        .filter_map(|rel| read(root, &rel).map(|src| (rel, src)))
        .collect();
    let tokens: Vec<(BTreeSet<&str>, BTreeSet<&str>)> = files
        .iter()
        .map(|(_, src)| (mentions(src), calls(src)))
        .collect();
    // A fn is named only where it is called or pathed; any other item
    // wherever its name appears.
    let named_elsewhere = |file: &Path, kind: &str, name: &str| {
        files.iter().zip(&tokens).any(|((rel, _), (any, called))| {
            rel != file && if kind == "fn" { called } else { any }.contains(name)
        })
    };
    let allow = read(root, Path::new(ALLOWLIST_PATH))
        .map(|s| parse_dead_pub_allowlist(&s))
        .unwrap_or_default();

    let mut out = Vec::new();
    let mut declared: BTreeMap<(PathBuf, &str), &str> = BTreeMap::new();
    for (rel, src) in &files {
        let mut parts = rel.components().map(|c| c.as_os_str());
        let crate_src =
            parts.next() == Some("crates".as_ref()) && parts.nth(1) == Some("src".as_ref());
        if !crate_src {
            continue;
        }
        for (n, line) in non_test_lines(src) {
            let Some((kind, name)) = pub_item_name(line) else {
                continue;
            };
            declared.insert((rel.clone(), name), kind);
            let allowed = allow
                .iter()
                .any(|e| Path::new(&e.path) == rel && e.name == name);
            if !allowed && !named_elsewhere(rel, kind, name) {
                out.push(violation(
                    rel,
                    n,
                    "dead-pub",
                    format!(
                        "pub {kind} `{name}` is named in no other file under crates/, examples/ \
                         or benchmark/: delete it, narrow it to pub(crate) or private, or add \
                         `{DEAD_PUB_TAG} {} {name} <reason>` to {ALLOWLIST_PATH}",
                        rel.display()
                    ),
                ));
            }
        }
    }
    for e in &allow {
        let why = match declared.get(&(PathBuf::from(&e.path), e.name.as_str())) {
            _ if e.reason.is_empty() => "carries no reason",
            None => "names an item that no longer exists",
            Some(kind) if named_elsewhere(Path::new(&e.path), kind, &e.name) => {
                "names an item that is now named elsewhere"
            }
            Some(_) => continue,
        };
        out.push(violation(
            Path::new(ALLOWLIST_PATH),
            e.line,
            "dead-pub",
            format!("allowlist entry `{} {}` {why}", e.path, e.name),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parsing() {
        let src = "# comment\ncrates/core/src/a.rs 3\n\ncrates/lsm/src/b.rs\t1\n";
        assert_eq!(
            parse_allowlist(src),
            vec![
                ("crates/core/src/a.rs".into(), 3),
                ("crates/lsm/src/b.rs".into(), 1)
            ]
        );
    }

    #[test]
    fn panic_site_counting_skips_tests_docs_and_invariants() {
        let src = r#"
fn a() {
    x.unwrap();
    y.expect("boom");
    z.unwrap_or(0); // not a panic site
    // INVARIANT: frobbed above, cannot be None
    w.unwrap();
    v.unwrap(); // INVARIANT: same-line justification
    // INVARIANT: a multi-line justification states the invariant first
    // and then elaborates on the following comment lines.
    u.unwrap();
}
/// docs may say .unwrap() freely
#[cfg(test)]
mod tests {
    fn t() {
        q.unwrap();
    }
}
"#
        .replace(".unwrap()", super::UNWRAP_PAT)
        .replace("INVARIANT:", &super::INVARIANT_PAT[3..]);
        assert_eq!(panic_sites(&src).len(), 2);
    }

    #[test]
    fn dead_pub_allowlist_parsing_and_item_names() {
        let src = "crates/core/src/a.rs 3\n\
                   dead-pub crates/core/src/a.rs Guide  rendered docs, named by nothing\n\
                   dead-pub crates/core/src/b.rs bare\n";
        assert_eq!(
            parse_allowlist(src),
            vec![("crates/core/src/a.rs".into(), 3)]
        );
        let got: Vec<_> = parse_dead_pub_allowlist(src)
            .into_iter()
            .map(|e| (e.line, e.path, e.name, e.reason))
            .collect();
        assert_eq!(
            got,
            vec![
                (
                    2,
                    "crates/core/src/a.rs".into(),
                    "Guide".into(),
                    "rendered docs, named by nothing".into()
                ),
                (
                    3,
                    "crates/core/src/b.rs".into(),
                    "bare".into(),
                    String::new()
                ),
            ]
        );
        assert_eq!(
            pub_item_name("    pub fn new(x: u8) -> Self {"),
            Some(("fn", "new"))
        );
        assert_eq!(
            pub_item_name("pub const fn lanes() -> u8 {"),
            Some(("fn", "lanes"))
        );
        assert_eq!(
            pub_item_name("pub const MAX: usize = 4;"),
            Some(("const", "MAX"))
        );
        assert_eq!(
            pub_item_name("pub struct Plan<'a> {"),
            Some(("struct", "Plan"))
        );
        assert_eq!(pub_item_name("pub(crate) fn hidden() {}"), None);
        assert_eq!(pub_item_name("pub mod query;"), None);
        assert_eq!(pub_item_name("    pub field: u64,"), None);
        let toks = mentions("// Plan\npub use a::Plan;\nlet p = Plan::new(); // Other\n");
        assert!(toks.contains("Plan") && toks.contains("new") && !toks.contains("Other"));
    }

    #[test]
    fn only_calls_and_paths_name_a_fn() {
        let src = "let n = s.fields.len() + specs;\n\
                   ds.warmup().x; mode (1);\n\
                   let v = parse::<u8>(b); map(Schema::width);\n\
                   use crate::fault::replay;\n\
                   // total_bytes()\n\
                   pub use crate::q::index;\n\
                   Stats { population: 3, scale: f() };\n";
        let got: Vec<&str> = calls(src).into_iter().collect();
        assert_eq!(
            got,
            vec!["f", "fault", "len", "map", "parse", "replay", "warmup", "width"]
        );
        assert!(mentions(src).contains("fields") && mentions(src).contains("population"));
    }

    /// An exemption still suppresses its item's finding, but an exemption
    /// without a reason, or for an item another file now names, is itself
    /// a finding.
    #[test]
    fn dead_pub_flags_reasonless_and_outdated_exemptions() {
        let root = std::env::temp_dir().join(format!("lsm-sanity-dead-pub-{}", std::process::id()));
        let write = |rel: &str, body: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, body).unwrap();
        };
        write(
            "crates/core/src/lib.rs",
            "pub fn bare() {}\npub fn called() {}\n",
        );
        write("examples/main.rs", "fn main() { called(); }\n");
        write(
            ALLOWLIST_PATH,
            "dead-pub crates/core/src/lib.rs bare\n\
             dead-pub crates/core/src/lib.rs called kept for a caller that exists now\n",
        );
        let found = check_dead_pub(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let messages: Vec<_> = found.iter().map(|v| (v.line, v.message.as_str())).collect();
        assert_eq!(
            messages,
            vec![
                (
                    1,
                    "allowlist entry `crates/core/src/lib.rs bare` carries no reason"
                ),
                (
                    2,
                    "allowlist entry `crates/core/src/lib.rs called` names an item that is now \
                     named elsewhere"
                ),
            ]
        );
    }

    #[test]
    fn quoted_name_extraction() {
        assert_eq!(
            quoted_names(r#"ds.crash_site("flush_install")?; x("Not_Snake"); y("ok_2")"#),
            vec!["flush_install", "ok_2"]
        );
    }

    #[test]
    fn struct_field_extraction() {
        let src = "
pub struct Foo {
    /// doc
    pub a: AtomicU64,
    pub b: usize,
    #[allow(missing_docs)]
    pub c: AtomicU64,
}
pub struct Bar {
    pub a: u64,
}
";
        assert_eq!(struct_fields(src, "Foo", "AtomicU64"), vec!["a", "c"]);
        assert_eq!(struct_fields(src, "Bar", "u64"), vec!["a"]);
        assert_eq!(struct_fields(src, "Foo", ""), vec!["a", "b", "c"]);
    }
}
