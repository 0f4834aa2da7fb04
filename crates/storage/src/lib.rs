//! Simulated storage substrate.
//!
//! The paper's experiments run on physical disks (7200rpm SATA HDDs and an
//! SSD) whose behaviour — the large gap between random and sequential reads,
//! and the effect of the buffer cache — shapes every result in Section 6.
//! This crate replaces the physical device with a deterministic simulation:
//!
//! * pages live in memory, but every access is charged against a
//!   [`DiskProfile`] cost model (seek + transfer for a random read, transfer
//!   only for a sequential continuation, free on a buffer-cache hit);
//! * a CLOCK (second-chance) buffer cache of configurable size decides
//!   which accesses hit. Residency and the reference bit live on each
//!   stored page, so a hit takes no cache lock and computes no hash; only
//!   a miss takes the one CLOCK mutex to admit the page and sweep;
//! * a B+-tree leaf written by a flush or merge build is admitted to that
//!   cache as it is written, unreferenced, so the merge that reads a fresh
//!   component finds it resident, yet the build evicts no page a read has
//!   referenced since the hand last passed; WAL, meta and router pages are
//!   not admitted;
//! * read-ahead batches sequential scans the way the paper's 4MB read-ahead
//!   does, and a B+-tree scan with both bounds reads ahead no further than
//!   the leaf its upper bound routes to;
//! * a forward read ([`Storage::read_page_forward`], what the sorted fetch
//!   of Section 3.2 reads its leaves with) streams a short gap past the
//!   device head instead of seeking over it: a gap of `g` pages is bridged
//!   when `g × transfer(page) < seek` — 6 pages of 128 KiB on the HDD, 1
//!   of 32 KiB on the SSD;
//! * a [`SimClock`] accumulates simulated nanoseconds of I/O and CPU work,
//!   and [`IoStats`] counts every event for assertions and reporting;
//! * a scripted [`FaultPlan`] can be installed on a device to inject
//!   transient/permanent errors, torn or short writes, and crash triggers
//!   deterministically — by op index or at named engine crash sites (the
//!   seam the `lsm-torture` harness drives).
//!
//! Everything above this crate (B+-trees, LSM components, the engine) does
//! real work on real bytes; only the *timing* is simulated. Benchmarks report
//! simulated seconds (the paper's y-axes) alongside wall-clock time.

#![warn(missing_docs)]

mod cache;
pub mod fault;
pub mod pin;
pub mod profile;
pub mod sim_clock;
pub mod stats;
pub mod storage;

pub use fault::{FaultAction, FaultOp, FaultPlan, FaultSpec, FaultTrigger, SiteOutcome};
pub use pin::{PageSlice, ValueBuf};
pub use profile::{CpuCosts, DiskProfile, Event};
pub use sim_clock::SimClock;
pub use stats::{IoStats, IoStatsSnapshot};
pub use storage::{CacheAdmission, FileId, PageNo, Storage, StorageOptions, WriteFile};
