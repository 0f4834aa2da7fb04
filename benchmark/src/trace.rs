//! Spans on two clocks and the counting allocator of the traced run.
//!
//! The tracer lives in the benchmark, not in the engine: a span is opened
//! around each call the benchmark makes into a layer's public functions.
//! Spans stay in memory and are written out when the run ends. Untraced
//! runs never construct a [`Tracer`] and leave the allocator flag off.

use lsm_storage::SimClock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Pass-through over the system allocator that counts calls while the
/// traced run has switched it on.
pub struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller vouches
        // for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (one static flag).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far, by every thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.function`, e.g. `core.get`.
    pub name: &'static str,
    /// Index of the enclosing span (`u32::MAX` at the root).
    pub parent: u32,
    /// Episode the span belongs to.
    pub episode: u16,
    /// Wall start, ns since the tracer was made.
    pub start_ns: u64,
    /// Wall end.
    pub end_ns: u64,
    /// Simulated ns the shared `SimClock` advanced inside the span.
    pub sim_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open {
    idx: u32,
    sim_start: u64,
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    clock: Option<SimClock>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    episode: u16,
}

impl Tracer {
    /// A tracer whose wall clock starts at `t0` (threads of one run share
    /// `t0` so their spans line up).
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            clock: None,
            spans: Vec::new(),
            stack: Vec::new(),
            episode: 0,
        }
    }

    /// A tracer for another thread of the same episode: same wall origin,
    /// same `SimClock`. Hand its spans back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            t0: self.t0,
            clock: self.clock.clone(),
            spans: Vec::new(),
            stack: Vec::new(),
            episode: self.episode,
        }
    }

    /// Starts a new episode on `clock` (each episode has a fresh
    /// `SimClock`).
    pub fn begin_episode(&mut self, episode: usize, clock: &SimClock) {
        self.episode = episode as u16;
        self.clock = Some(clock.clone());
    }

    fn sim_now(&self) -> u64 {
        self.clock.as_ref().map_or(0, SimClock::now_nanos)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len() as u32;
        let sim_start = self.sim_now();
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            episode: self.episode,
            start_ns: now,
            end_ns: now,
            sim_ns: 0,
        });
        self.stack.push(idx);
        Open { idx, sim_start }
    }

    /// Closes `open` (and anything left open inside it).
    pub fn exit(&mut self, open: Open) {
        let end = self.t0.elapsed().as_nanos() as u64;
        let sim = self.sim_now().saturating_sub(open.sim_start);
        while let Some(top) = self.stack.pop() {
            if top == open.idx {
                break;
            }
        }
        let span = &mut self.spans[open.idx as usize];
        span.end_ns = end;
        span.sim_ns = sim;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != u32::MAX {
                s.parent += base;
            }
            s
        }));
    }

    /// Wall durations (ns) of every span called `name` in `episode`.
    pub fn wall_of(&self, name: &str, episode: usize) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && usize::from(s.episode) == episode)
            .map(Span::wall_ns)
            .collect()
    }

    /// Per-name totals: a layer's self time is its spans' time minus the
    /// child spans the benchmark itself opened inside them.
    pub fn summary(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.wall_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.wall_ns += s.wall_ns();
            t.self_ns += s.wall_ns().saturating_sub(*child);
            t.sim_ns += s.sim_ns;
        }
        out
    }

    /// Writes the spans as JSON: a name table, the per-name summary and one
    /// `[name, parent, episode, start_ns, wall_ns, sim_ns]` row per span.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let summary = self.summary();
        let names: Vec<&'static str> = summary.keys().copied().collect();
        let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\",")?;
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(w, " \"names\": [{}],", quoted.join(", "))?;
        writeln!(w, " \"summary\": {{")?;
        for (i, (name, t)) in summary.iter().enumerate() {
            let sep = if i + 1 == summary.len() { "" } else { "," };
            writeln!(
                w,
                "  \"{name}\": {{\"count\": {}, \"wall_ns\": {}, \"self_ns\": {}, \"sim_ns\": {}}}{sep}",
                t.count, t.wall_ns, t.self_ns, t.sim_ns
            )?;
        }
        writeln!(w, " }},")?;
        writeln!(
            w,
            " \"columns\": [\"name\", \"parent\", \"episode\", \"start_ns\", \"wall_ns\", \"sim_ns\"],"
        )?;
        writeln!(w, " \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "  [{}, {parent}, {}, {}, {}, {}]{sep}",
                index[s.name],
                s.episode,
                s.start_ns,
                s.wall_ns(),
                s.sim_ns
            )?;
        }
        writeln!(w, " ]}}")?;
        w.flush()
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Σ wall duration.
    pub wall_ns: u64,
    /// Σ wall duration not covered by child spans.
    pub self_ns: u64,
    /// Σ simulated duration.
    pub sim_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let s = t.summary();
        assert_eq!(s["inner"].count, 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(s["outer"].wall_ns >= s["inner"].wall_ns);
        assert_eq!(s["outer"].self_ns, s["outer"].wall_ns - s["inner"].wall_ns);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.span("a", || ());
        let mut b = Tracer::new(t0);
        let outer = b.enter("b.outer");
        b.span("b.inner", || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].name, "b.inner");
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, u32::MAX);
    }
}
