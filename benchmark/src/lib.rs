//! The repo benchmark: four workloads, end-to-end metrics on two clocks,
//! and a per-layer trace taken from outside the engine. See `README.md`.

#![warn(missing_docs)]

pub mod cli;
pub mod episode;
pub mod gen;
pub mod host;
pub mod plan;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;

/// Counts allocations while a traced run has switched counting on; a plain
/// pass-through otherwise.
#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;
