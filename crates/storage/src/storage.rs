//! The simulated storage manager: files of pages plus cost accounting.
//!
//! Files are append-only sequences of fixed-size pages — exactly the shape of
//! LSM disk components and the WAL. A B+-tree owns a range of a file's
//! pages, appended at the device's write frontier
//! ([`Storage::claim_frontier`]): one file that one writer at a time
//! holds, so builds that follow one another with no device read between
//! them pay one write seek in all. A claim while the frontier is held gets
//! a fresh file. [`Storage::release_pages`] is the one way to free pages:
//! it drops a range, evicts exactly its cached frames and forgets the
//! device head if the head stands in it, and the release of a file's last
//! live page deletes the file, unless it is the frontier. Reads go through
//! the buffer cache; misses are charged to the [`DiskProfile`].
//!
//! The device has one head, for reads and appends alike: a read or an
//! append is sequential only if it lands on the page after the head, in
//! the same file, and pays a seek otherwise (a read seek, or a write seek
//! for an append); either one moves the head. So interleaving reads
//! across files costs seeks, and so does a read between two appends. This
//! is what makes the paper's central trade-offs — batched vs interleaved
//! point lookups, scans vs index navigation — measurable here.
//!
//! Writes reach the cache on one path only: [`Storage::append_page_shared`]
//! with [`CacheAdmission::Unreferenced`], with which a B+-tree build writes
//! its leaves, admits the stored page *unreferenced*, so a merge that soon
//! reads a fresh flush or merge output finds it resident, while the CLOCK
//! hand evicts it before any page a read has referenced since the hand last
//! passed. [`Storage::append_page`] (the WAL, a tree's footer-only page) and
//! [`CacheAdmission::Skip`] (router pages, which the tree handle holds) admit
//! nothing. Either way an append is charged the same.
//!
//! A forward read ([`Storage::read_page_forward`]) is the one read that
//! turns a skip into a continuation: a miss `g` pages past the head on the
//! same file streams the gap when `g × transfer(page) < seek`, because the
//! device would rather read `g` pages it does not need than seek over
//! them.
//!
//! Simulated time moves in one place, [`Storage`]'s `bill`: it counts each
//! event in [`IoStats`] and advances the clock by the count times the
//! event's price. Device reads and writes bill themselves; the layers above
//! name a CPU [`Event`] and a count ([`Storage::charge`]) and never see a
//! price. So, over the devices sharing a clock,
//!
//! ```text
//! clock = Σ rand_reads·seek + disk_reads·transfer(page)
//!           + write_seeks·write_seek + pages_written·transfer(page)
//!           + Σ CPU count·price
//! ```
//!
//! which [`Storage::charged_ns`] computes per device.

use crate::cache::{FileState, Frames, StoredPage};
use crate::fault::{FaultAction, FaultOp, FaultPlan, SiteOutcome};
use crate::profile::{CpuCosts, DiskProfile, Event};
use crate::sim_clock::SimClock;
use crate::stats::{IoStats, IoStatsSnapshot};
use lsm_common::{Error, Result};
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies a simulated file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Page number within a file.
pub type PageNo = u32;

/// Bytes of pages past which a claim of the write frontier starts a new
/// frontier file, one write seek per roll. Every page the frontier file
/// ever held keeps a slot in the page table, released or not, so this
/// bounds that table.
const FRONTIER_BYTES: usize = 1 << 30;

/// [`Storage`]'s `frontier` word: the frontier file's id in the low 32
/// bits, and this bit while a writer holds it.
const FRONTIER_CLAIMED: u64 = 1 << 32;

/// The file a writer appends to, from [`Storage::claim_frontier`]: the
/// device's write frontier, held until this is dropped, or a fresh file
/// when another writer holds the frontier.
#[derive(Debug)]
pub struct WriteFile {
    storage: Arc<Storage>,
    file: FileId,
    first: PageNo,
    frontier: bool,
}

impl WriteFile {
    /// The file.
    pub fn id(&self) -> FileId {
        self.file
    }

    /// The page the writer's first append lands on: the file's page count
    /// when it was claimed.
    pub fn first(&self) -> PageNo {
        self.first
    }
}

impl Drop for WriteFile {
    /// Hands the frontier back for the next writer to claim.
    fn drop(&mut self) {
        if self.frontier {
            self.storage
                .frontier
                .fetch_and(!FRONTIER_CLAIMED, Ordering::Release);
        }
    }
}

/// Whether [`Storage::append_page_shared`] admits the page it stores to
/// the buffer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAdmission {
    /// The page stays out of the cache: a router page, which the tree
    /// handle holds.
    Skip,
    /// The page enters the cache *unreferenced*, the CLOCK's first choice
    /// to evict: a B+-tree leaf, which a merge may soon read.
    Unreferenced,
}

/// Configuration for a [`Storage`] instance.
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Page size in bytes (the paper uses 128KB on HDD, 32KB on SSD).
    pub page_size: usize,
    /// Buffer cache capacity, in pages.
    pub cache_pages: usize,
    /// Read-ahead window for scans, in pages (the paper uses 4MB).
    pub readahead_pages: u32,
    /// Device cost model: with `cpu`, the only prices of the simulation.
    pub profile: DiskProfile,
    /// CPU cost model.
    pub cpu: CpuCosts,
}

impl StorageOptions {
    /// The paper's HDD configuration scaled to a given cache size in bytes.
    /// A non-zero `cache_bytes` always yields a usable cache: the page
    /// count is rounded *up*, so a cache smaller than one page holds one
    /// page instead of being silently disabled.
    pub fn hdd(cache_bytes: usize) -> Self {
        let page_size = 128 * 1024;
        StorageOptions {
            page_size,
            cache_pages: cache_bytes.div_ceil(page_size),
            readahead_pages: (4 * 1024 * 1024 / page_size) as u32,
            profile: DiskProfile::hdd(),
            cpu: CpuCosts::default(),
        }
    }

    /// The paper's SSD configuration scaled to a given cache size in bytes.
    /// Like [`StorageOptions::hdd`], the page count rounds up so a small
    /// non-zero `cache_bytes` never disables the cache.
    pub fn ssd(cache_bytes: usize) -> Self {
        let page_size = 32 * 1024;
        StorageOptions {
            page_size,
            cache_pages: cache_bytes.div_ceil(page_size),
            readahead_pages: (4 * 1024 * 1024 / page_size) as u32,
            profile: DiskProfile::ssd(),
            cpu: CpuCosts::default(),
        }
    }

    /// Small configuration for unit tests.
    pub fn test() -> Self {
        StorageOptions {
            page_size: 4096,
            cache_pages: 64,
            readahead_pages: 8,
            profile: DiskProfile::hdd(),
            cpu: CpuCosts::default(),
        }
    }
}

/// The simulated storage device.
///
/// Shared via `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Storage {
    opts: StorageOptions,
    clock: SimClock,
    stats: IoStats,
    /// The page table: every stored page with its cache state.
    files: RwLock<Vec<FileState>>,
    /// The buffer cache's CLOCK, taken by misses only, always inside the
    /// `files` lock.
    frames: Mutex<Frames>,
    /// Device head position: the last `(file, page)` the device read or
    /// wrote. A read or an append is sequential only if it continues from
    /// here — interleaving reads across files moves the head and costs
    /// seeks, which is exactly the effect the paper's batched point lookups
    /// avoid, and a read between two appends makes the second one seek.
    head: Mutex<Option<(FileId, PageNo)>>,
    /// The longest forward gap [`Storage::read_page_forward`] streams
    /// instead of seeking, from the profile and the page size.
    bridge_pages: u32,
    /// The write frontier, packed as `FRONTIER_CLAIMED` says; file 0, made
    /// with the device, until a roll. Only a claim sets it, under the
    /// `files` write lock, where a release reads it; a hand-back clears the
    /// claimed bit with a `Release` that the claim's `Acquire` load pairs
    /// with, as a lock's would.
    frontier: AtomicU64,
    /// Installed fault-injection script, if any (see [`FaultPlan`]).
    fault: RwLock<Option<Arc<FaultPlan>>>,
    /// Whether `fault` holds a plan, so an operation on a device without
    /// one takes no lock to find out. Written under `fault`'s write lock.
    fault_installed: AtomicBool,
}

impl Storage {
    /// Creates a storage device with its own clock.
    pub fn new(opts: StorageOptions) -> Arc<Self> {
        Self::with_clock(opts, SimClock::new())
    }

    /// Creates a storage device sharing an existing clock (e.g. the data and
    /// log devices of one node accumulate into one timeline).
    pub fn with_clock(opts: StorageOptions, clock: SimClock) -> Arc<Self> {
        Arc::new(Storage {
            frames: Mutex::new(Frames::new(opts.cache_pages)),
            bridge_pages: opts.profile.bridge_pages(opts.page_size),
            opts,
            clock,
            stats: IoStats::new(),
            files: RwLock::new(vec![FileState::default()]),
            head: Mutex::new(None),
            frontier: AtomicU64::new(0),
            fault: RwLock::new(None),
            fault_installed: AtomicBool::new(false),
        })
    }

    /// Installs a fault-injection plan on this device. The same
    /// [`Arc<FaultPlan>`] may be installed on several devices (data + WAL)
    /// so their op counters share one deterministic schedule.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        let mut fault = self.fault.write();
        *fault = Some(plan);
        self.fault_installed.store(true, Ordering::Release);
    }

    /// Removes the installed fault plan, if any.
    pub fn clear_fault_plan(&self) {
        let mut fault = self.fault.write();
        *fault = None;
        self.fault_installed.store(false, Ordering::Release);
    }

    /// The installed fault plan, if any.
    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.fault_installed.load(Ordering::Acquire) {
            return None;
        }
        self.fault.read().clone()
    }

    /// Probes the crash site `name` against the installed fault plan:
    /// engine layers thread these probes through their WAL / flush / merge
    /// / checkpoint paths. Non-error actions scripted on a site (torn/short
    /// writes) are meaningless there and fail permanently.
    pub fn probe_crash_site(&self, name: &str) -> SiteOutcome {
        let Some(plan) = self.fault_plan() else {
            return SiteOutcome::Unarmed;
        };
        if !plan.is_armed() {
            return SiteOutcome::Unarmed;
        }
        match plan.on_site(name) {
            None => SiteOutcome::Armed,
            Some(action) => {
                self.stats
                    .faults_injected
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                SiteOutcome::Fired(FaultPlan::action_error(
                    action,
                    &format!("crash site {name:?}"),
                ))
            }
        }
    }

    /// Consults the fault plan for an operation of class `op`. Error-like
    /// actions return `Err`; write-mutating actions are returned for
    /// `append_page` to apply. `what` is formatted only when a fault fires,
    /// so an operation that passes the check allocates nothing for it.
    fn fault_check(
        &self,
        op: FaultOp,
        what: std::fmt::Arguments<'_>,
    ) -> Result<Option<FaultAction>> {
        let Some(plan) = self.fault_plan() else {
            return Ok(None);
        };
        let Some(action) = plan.on_op(op) else {
            return Ok(None);
        };
        let what = &what.to_string();
        self.stats
            .faults_injected
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match action {
            FaultAction::TornWrite { .. } | FaultAction::ShortWrite { .. }
                if op == FaultOp::Append =>
            {
                Ok(Some(action))
            }
            FaultAction::TransientError | FaultAction::PermanentError | FaultAction::Crash => {
                Err(FaultPlan::action_error(action, what))
            }
            // A torn/short write scripted on a non-append op degrades to a
            // permanent error: there is no page to tear.
            _ => Err(FaultPlan::action_error(FaultAction::PermanentError, what)),
        }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.opts.page_size
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot(&self.opts.cpu)
    }

    /// The simulated nanoseconds this device has charged to its clock:
    /// every count times its price. The clock reads the sum of this over
    /// the devices sharing it.
    pub fn charged_ns(&self) -> u64 {
        let io = self.stats();
        let (profile, page) = (&self.opts.profile, self.opts.page_size);
        io.rand_reads * profile.seek_ns
            + io.disk_reads() * profile.transfer_ns(page)
            + io.write_seeks * profile.write_seek_ns
            + io.pages_written * profile.transfer_ns(page)
            + io.cpu_ns
    }

    /// Records `checks` Bloom filter checks, `negatives` of which pruned.
    /// Their CPU cost is charged apart, as probe [`Event`]s.
    pub fn record_bloom_checks(&self, checks: u64, negatives: u64) {
        self.stats.record_bloom_checks(checks, negatives);
    }

    /// Counts `n` of `event` and charges `n ×` its price to the clock.
    pub fn charge(&self, event: Event, n: u64) {
        self.charge_each([(event, n)]);
    }

    /// [`Storage::charge`] for several events done together: each is
    /// counted, and the clock advances once, by the sum of their prices.
    pub fn charge_each<const N: usize>(&self, events: [(Event, u64); N]) {
        let cpu = &self.opts.cpu;
        self.bill(events.map(|(e, n)| (self.stats.count_of(e), n, cpu.price(e))));
    }

    /// Adds each `(counter, n, price)`'s `n` to its counter and advances
    /// the clock once by Σ `n × price`: the one place simulated time moves.
    fn bill<const N: usize>(&self, events: [(&AtomicU64, u64, u64); N]) {
        let mut ns = 0;
        for (counter, n, price) in events {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
                ns += n * price;
            }
        }
        self.clock.advance(ns);
    }

    /// Creates an empty file.
    pub fn create_file(&self) -> FileId {
        new_file(&mut self.files.write())
    }

    /// Claims the device's write frontier: the one file every build
    /// appends its page range to, one build at a time, so builds that
    /// follow each other with no device read between them pay one write
    /// seek in all. A claim while another writer holds the frontier gets a
    /// fresh file instead. The frontier file is never deleted while it is
    /// the frontier; a claim that finds it holding `FRONTIER_BYTES` of
    /// pages starts a new one, and the old one goes with its last live
    /// page.
    pub fn claim_frontier(self: &Arc<Self>) -> WriteFile {
        let mut files = self.files.write();
        let at = self.frontier.load(Ordering::Acquire);
        let frontier = at & FRONTIER_CLAIMED == 0;
        let file = match frontier {
            true => self.roll_frontier(&mut files, FileId(at as u32)),
            false => new_file(&mut files),
        };
        let first = files.get(file.0 as usize).map_or(0, |f| f.pages.len()) as PageNo;
        WriteFile {
            storage: self.clone(),
            file,
            first,
            frontier,
        }
    }

    /// Claims `frontier`, or a new frontier file in its place if it holds
    /// `FRONTIER_BYTES` of pages; one left behind without a live page is
    /// deleted.
    fn roll_frontier(&self, files: &mut Vec<FileState>, frontier: FileId) -> FileId {
        let mut file = frontier;
        let full = |f: &&mut FileState| f.pages.len() * self.opts.page_size >= FRONTIER_BYTES;
        if let Some(old) = files.get_mut(frontier.0 as usize).filter(full) {
            if old.live == 0 {
                old.deleted = true;
                old.pages = Vec::new();
            }
            file = new_file(files);
        }
        self.frontier
            .store(u64::from(file.0) | FRONTIER_CLAIMED, Ordering::Release);
        file
    }

    /// Whether `file` is the write frontier. Stable under the `files` lock.
    fn is_frontier(&self, file: FileId) -> bool {
        self.frontier.load(Ordering::Acquire) as u32 == file.0
    }

    /// Appends one page (at most `page_size` bytes). Returns its page number.
    ///
    /// An append is charged as a sequential write when it lands on the page
    /// after the device head, in the same file, and with a write seek
    /// otherwise; either way it moves the head to the page it wrote.
    pub fn append_page(&self, file: FileId, data: &[u8]) -> Result<PageNo> {
        Ok(self.append(file, data, || data.into())?.0)
    }

    /// [`Storage::append_page`] for a page the caller built in a shared
    /// buffer: the device keeps that very buffer instead of a copy of it.
    /// Returns the page number and the page as the device stores it — the
    /// caller's buffer, or the damaged image a torn or short write left —
    /// so a caller that keeps the page holds exactly what a read returns.
    /// `admission` says whether the stored page also enters the buffer
    /// cache; the append is charged the same either way.
    pub fn append_page_shared(
        &self,
        file: FileId,
        page: Arc<[u8]>,
        admission: CacheAdmission,
    ) -> Result<(PageNo, Arc<[u8]>)> {
        let (page_no, stored) = self.append(file, &page, || page.clone())?;
        if admission == CacheAdmission::Unreferenced {
            let files = self.files.read();
            // A release may have dropped the page since the append.
            let kept = live(&files, file).is_ok_and(|pages| {
                pages
                    .get(page_no as usize)
                    .is_some_and(|p| p.data.is_some())
            });
            if kept {
                self.frames.lock().admit_written(&files, file, page_no);
            }
        }
        Ok((page_no, stored))
    }

    /// Appends `data`; `whole` yields the stored page when no fault
    /// mutates it. Returns the page number and the stored page.
    fn append(
        &self,
        file: FileId,
        data: &[u8],
        whole: impl FnOnce() -> Arc<[u8]>,
    ) -> Result<(PageNo, Arc<[u8]>)> {
        if data.len() > self.opts.page_size {
            return Err(Error::Storage(format!(
                "page of {} bytes exceeds page size {}",
                data.len(),
                self.opts.page_size
            )));
        }
        let injected = self.fault_check(FaultOp::Append, format_args!("append to {file:?}"))?;
        // What the device ends up holding, built BEFORE the file-table lock:
        // the page-sized allocation and copy would otherwise sit inside a
        // write lock every `read_page` in the process queues behind. An
        // injected torn write keeps the page length but zeroes the tail
        // (bytes that never reached the platter); a short write truncates
        // the page outright. Both look like a success to the writer — the
        // damage is only discovered after the crash.
        let (stored, torn): (Arc<[u8]>, bool) = match injected {
            Some(FaultAction::TornWrite { keep_bytes }) => {
                let mut page = data.to_vec();
                let keep = keep_bytes.min(page.len());
                page[keep..].fill(0);
                (page.into(), true)
            }
            Some(FaultAction::ShortWrite { keep_bytes }) => {
                (data[..keep_bytes.min(data.len())].into(), true)
            }
            _ => (whole(), false),
        };
        let page_no = {
            let mut files = self.files.write();
            let state = files
                .get_mut(file.0 as usize)
                .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
            if state.deleted {
                return Err(Error::Storage(format!("file {file:?} is deleted")));
            }
            state.pages.push(StoredPage::new(stored.clone()));
            state.live += 1;
            (state.pages.len() - 1) as PageNo
        };
        if torn {
            self.stats
                .torn_writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let seeks = {
            let mut head = self.head.lock();
            let sequential = page_no > 0 && *head == Some((file, page_no - 1));
            *head = Some((file, page_no));
            u64::from(!sequential)
        };
        let (profile, page) = (&self.opts.profile, self.opts.page_size);
        self.bill([
            (&self.stats.write_seeks, seeks, profile.write_seek_ns),
            (&self.stats.pages_written, 1, profile.transfer_ns(page)),
        ]);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, std::sync::atomic::Ordering::Relaxed);
        Ok((page_no, stored))
    }

    /// Number of pages appended to `file`, released ones included.
    pub fn file_pages(&self, file: FileId) -> Result<u32> {
        Ok(live(&self.files.read(), file)?.len() as u32)
    }

    /// Reads one page, going through the buffer cache and charging the
    /// device model on a miss.
    pub fn read_page(&self, file: FileId, page: PageNo) -> Result<Arc<[u8]>> {
        self.read_one(file, page, 0)
    }

    /// [`Storage::read_page`] for a reader that moves forward through
    /// `file` — the sorted fetch of Section 3.2, whose next wanted leaf
    /// often lies a few pages past the last one read. A miss whose page
    /// lies a short gap of `g` pages past the device head on the same file
    /// streams the gap instead of seeking: pages `head+1..=page` are
    /// charged as one seek-free burst of `g + 1` page transfers, and the
    /// gap pages not yet resident are admitted to the cache. A gap is short
    /// when `g × transfer(page) < seek`. A hit, a backward read, a read of
    /// another file, a device with no head and a longer gap are charged
    /// exactly what [`Storage::read_page`] charges. Allocates nothing.
    pub fn read_page_forward(&self, file: FileId, page: PageNo) -> Result<Arc<[u8]>> {
        self.read_one(file, page, self.bridge_pages)
    }

    /// One page through the cache; a miss streams a forward gap of at most
    /// `bridge` pages past the head (see [`Storage::read_page_forward`]).
    /// The miss is decided, admitted and charged under one acquisition of
    /// the head lock, so no other read moves the head in between.
    fn read_one(&self, file: FileId, page: PageNo, bridge: u32) -> Result<Arc<[u8]>> {
        self.fault_check(FaultOp::Read, format_args!("read of {file:?}/{page}"))?;
        let files = self.files.read();
        let pages = live(&files, file)?;
        let (stored, data) = held(pages, file, page)?;
        if !stored.touch() {
            let mut head = self.head.lock();
            let mut frames = self.frames.lock();
            if !frames.admit(&files, file, page) {
                let from = match *head {
                    Some((f, h)) if f == file && h < page && page - h - 1 <= bridge => h + 1,
                    _ => page,
                };
                // Streamed past on the way: the gap pages not yet resident
                // are admitted, the resident and the released ones left as
                // they were.
                for (p, gap) in (from..page).zip(&pages[from as usize..page as usize]) {
                    if gap.data.is_some() && !gap.is_resident() {
                        frames.admit(&files, file, p);
                    }
                }
                drop(frames);
                if from < page {
                    self.stats
                        .bridged_pages
                        .fetch_add(u64::from(page - from), std::sync::atomic::Ordering::Relaxed);
                }
                self.charge_read(&mut head, file, from, page - from + 1);
                return Ok(data.clone());
            }
        }
        self.stats
            .cache_hits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(data.clone())
    }

    /// Charges a device read of `count` pages starting at `(file, page)`
    /// and moves `head`, the locked device head, to the last of them. The
    /// read is sequential only if it starts on exactly the page after the
    /// head: transfer alone. Anything else — another file, a backward read,
    /// a forward skip, no head — pays a seek first. Two rules keep
    /// selective reads off that seek and off pages they do not need:
    ///
    /// * [`Storage::read_page_forward`] turns a forward skip of `g` pages
    ///   with `g × transfer(page) < seek` into a sequential read, by
    ///   starting it on the page after the head;
    /// * a B+-tree scan with both bounds sizes its [`Storage::read_pages`]
    ///   bursts to end at the leaf its upper bound routes to.
    fn charge_read(
        &self,
        head: &mut Option<(FileId, PageNo)>,
        file: FileId,
        page: PageNo,
        count: u32,
    ) {
        let sequential = page > 0 && *head == Some((file, page - 1));
        *head = Some((file, page + (count - 1)));
        let bytes = self.opts.page_size;
        let (profile, transfer) = (&self.opts.profile, self.opts.profile.transfer_ns(bytes));
        // A seek, if any, is paid by the burst's first page.
        let seeks = u64::from(!sequential);
        self.bill([
            (&self.stats.rand_reads, seeks, profile.seek_ns + transfer),
            (&self.stats.seq_reads, u64::from(count) - seeks, transfer),
        ]);
        self.stats.bytes_read.fetch_add(
            u64::from(count) * bytes as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
    }

    /// Reads `count` pages starting at `page` as one read-ahead burst: one
    /// seek (if the head has to move) plus streaming transfer, with all
    /// pages admitted to the cache. This is how scans amortize seeks the
    /// way the paper's 4MB read-ahead does.
    ///
    /// Returns the page handles from the same single file-table lookup, so
    /// callers consume the burst directly instead of re-acquiring the file
    /// lock once per page via [`Storage::page_data`] for bytes the call
    /// just loaded.
    pub fn read_pages(&self, file: FileId, page: PageNo, count: u32) -> Result<Vec<Arc<[u8]>>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.fault_check(
            FaultOp::Read,
            format_args!("read burst of {file:?}/{page}+{count}"),
        )?;
        // Admit all pages; charge only those not already resident.
        let mut misses = 0u32;
        let mut first_miss = page;
        let pages = {
            let files = self.files.read();
            let burst = burst(live(&files, file)?, file, page, count)?;
            let mut pages = Vec::with_capacity(burst.len());
            for (p, stored) in (page..).zip(burst) {
                pages.push(bytes(stored, file, p)?.clone());
            }
            for (p, stored) in (page..).zip(burst) {
                if stored.touch() || self.frames.lock().admit(&files, file, p) {
                    self.stats
                        .cache_hits
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                } else {
                    if misses == 0 {
                        first_miss = p;
                    }
                    misses += 1;
                }
            }
            pages
        };
        self.stats
            .batched_lookups_saved
            .fetch_add(u64::from(count - 1), std::sync::atomic::Ordering::Relaxed);
        if misses > 0 {
            self.charge_read(&mut self.head.lock(), file, first_miss, misses);
        }
        Ok(pages)
    }

    /// Read-ahead window from the configuration.
    pub fn readahead_pages(&self) -> u32 {
        self.opts.readahead_pages.max(1)
    }

    /// Returns page bytes without touching the cache or charging the device
    /// — for readers holding pages in a private scan buffer that were
    /// already charged by a [`Storage::read_pages`] burst.
    pub fn page_data(&self, file: FileId, page: PageNo) -> Result<Arc<[u8]>> {
        let files = self.files.read();
        Ok(held(live(&files, file)?, file, page)?.1.clone())
    }

    /// Releases `pages` of `file` — the range a B+-tree holds: drops their
    /// bytes, evicts exactly their cached frames and, if the device head
    /// stands on one of them, forgets the head. A caller's `Arc` of a page
    /// stays readable; the device no longer reads the page. The release
    /// that takes the file's last live page, or an empty range of a file
    /// with none, deletes the file unless it is the write frontier, and
    /// only such a release counts as a [`FaultOp::Delete`]; a fault there
    /// releases nothing. Releasing pages of a deleted file does nothing.
    pub fn release_pages(&self, file: FileId, pages: Range<PageNo>) -> Result<()> {
        let deleted = {
            let mut files = self.files.write();
            let state = files
                .get_mut(file.0 as usize)
                .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
            if state.deleted {
                return Ok(());
            }
            let range = state
                .pages
                .get_mut(pages.start as usize..pages.end as usize)
                .ok_or_else(|| {
                    Error::Storage(format!(
                        "release of pages {pages:?} past the end of {file:?}"
                    ))
                })?;
            let released = range.iter().filter(|p| p.data.is_some()).count() as u32;
            let deletes = released == state.live && !self.is_frontier(file);
            if deletes {
                self.fault_check(FaultOp::Delete, format_args!("delete of {file:?}"))?;
            }
            range.iter_mut().for_each(StoredPage::release);
            state.live -= released;
            if deletes {
                state.deleted = true;
                state.pages = Vec::new();
            }
            // Under the write lock: no miss may sweep a frame whose page
            // is gone.
            self.frames.lock().evict_range(file, pages.clone());
            deletes
        };
        let mut head = self.head.lock();
        if head.is_some_and(|(f, p)| f == file && (deleted || pages.contains(&p))) {
            *head = None;
        }
        Ok(())
    }

    /// Drops everything from the buffer cache (cold-cache benchmarking).
    pub fn clear_cache(&self) {
        {
            let files = self.files.read();
            self.frames.lock().clear(&files);
        }
        *self.head.lock() = None;
    }
}

/// Adds an empty file to `files`.
fn new_file(files: &mut Vec<FileState>) -> FileId {
    files.push(FileState::default());
    FileId((files.len() - 1) as u32)
}

/// The pages of `file`, if it exists and is not deleted.
fn live(files: &[FileState], file: FileId) -> Result<&[StoredPage]> {
    let state = files
        .get(file.0 as usize)
        .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
    if state.deleted {
        return Err(Error::Storage(format!("file {file:?} is deleted")));
    }
    Ok(&state.pages)
}

/// Page `page` of `file`'s `pages` and its bytes, unless it is out of
/// bounds or released.
fn held(pages: &[StoredPage], file: FileId, page: PageNo) -> Result<(&StoredPage, &Arc<[u8]>)> {
    let stored = pages
        .get(page as usize)
        .ok_or_else(|| Error::Storage(format!("page {page} out of bounds in {file:?}")))?;
    Ok((stored, bytes(stored, file, page)?))
}

/// The bytes of `stored`, page `page` of `file`, unless it is released.
fn bytes(stored: &StoredPage, file: FileId, page: PageNo) -> Result<&Arc<[u8]>> {
    stored
        .data
        .as_ref()
        .ok_or_else(|| Error::Storage(format!("page {page} of {file:?} is released")))
}

/// `count` of `file`'s `pages` from `page` on.
fn burst(pages: &[StoredPage], file: FileId, page: PageNo, count: u32) -> Result<&[StoredPage]> {
    page.checked_add(count)
        .and_then(|end| pages.get(page as usize..end as usize))
        .ok_or_else(|| {
            Error::Storage(format!(
                "page batch past end of {file:?} ({page}+{count} of {})",
                pages.len()
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::CacheAdmission::{Skip, Unreferenced};
    use super::*;

    fn storage() -> Arc<Storage> {
        Storage::new(StorageOptions::test())
    }

    /// Deletes `file` the one way there is: by releasing every page of it.
    fn delete(s: &Storage, file: FileId) {
        s.release_pages(file, 0..s.file_pages(file).unwrap())
            .unwrap();
    }

    #[test]
    fn append_and_read_roundtrip() {
        let s = storage();
        let f = s.create_file();
        let p0 = s.append_page(f, b"hello").unwrap();
        let p1 = s.append_page(f, b"world").unwrap();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(&*s.read_page(f, 0).unwrap(), b"hello");
        assert_eq!(&*s.read_page(f, 1).unwrap(), b"world");
        assert_eq!(s.file_pages(f).unwrap(), 2);
    }

    /// An injected tear keeps the length and zeroes the tail; a short write
    /// truncates; both report success, count one `torn_writes` each and are
    /// charged like the full page; an append to a missing file stores and
    /// counts nothing, whatever was scripted for it.
    #[test]
    fn torn_and_short_writes_store_exactly_the_scripted_bytes() {
        use crate::fault::{FaultSpec, FaultTrigger};
        let s = storage();
        let f = s.create_file();
        let at = |index, action| FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Append,
                index,
            },
            action,
        };
        let plan = FaultPlan::new(vec![
            at(1, FaultAction::TornWrite { keep_bytes: 3 }),
            at(2, FaultAction::ShortWrite { keep_bytes: 2 }),
            at(3, FaultAction::TornWrite { keep_bytes: 99 }),
            at(4, FaultAction::ShortWrite { keep_bytes: 99 }),
            at(5, FaultAction::TornWrite { keep_bytes: 1 }),
        ]);
        s.install_fault_plan(plan.clone());
        plan.arm();
        for _ in 0..5 {
            s.append_page(f, b"abcdef").unwrap();
        }
        assert!(s.append_page(FileId(77), b"abcdef").is_err());
        s.clear_fault_plan();
        let stored: Vec<Vec<u8>> = (0..5)
            .map(|p| s.read_page(f, p).unwrap().to_vec())
            .collect();
        assert_eq!(
            stored,
            [&b"abcdef"[..], b"abc\0\0\0", b"ab", b"abcdef", b"abcdef"]
        );
        let io = s.stats();
        assert_eq!(io.torn_writes, 4);
        assert_eq!(io.faults_injected, 5);
        assert_eq!((io.pages_written, io.bytes_written), (5, 30));
    }

    /// A shared append keeps the caller's buffer itself — no second copy
    /// of the page image — unless a fault damages the page, which must not
    /// reach through to the buffer the caller still holds. Either way it
    /// returns the very page a read returns.
    #[test]
    fn shared_append_stores_the_callers_buffer_unless_a_fault_tears_it() {
        use crate::fault::{FaultSpec, FaultTrigger};
        let s = storage();
        let f = s.create_file();
        let page: Arc<[u8]> = Arc::from(&b"abcdef"[..]);
        let (no, stored) = s.append_page_shared(f, page.clone(), Skip).unwrap();
        assert_eq!(no, 0);
        assert!(Arc::ptr_eq(&stored, &page));
        assert!(Arc::ptr_eq(&s.read_page(f, 0).unwrap(), &page));

        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Append,
                index: 0,
            },
            action: FaultAction::TornWrite { keep_bytes: 2 },
        }]);
        s.install_fault_plan(plan.clone());
        plan.arm();
        let (no, torn) = s.append_page_shared(f, page.clone(), Skip).unwrap();
        s.clear_fault_plan();
        assert_eq!(no, 1);
        assert_eq!(&*s.read_page(f, 1).unwrap(), b"ab\0\0\0\0");
        assert!(Arc::ptr_eq(&torn, &s.read_page(f, 1).unwrap()));
        assert_eq!(&*page, b"abcdef");
        let io = s.stats();
        assert_eq!(
            (io.pages_written, io.bytes_written, io.torn_writes),
            (2, 12, 1)
        );
        assert!(s
            .append_page_shared(f, vec![0; s.page_size() + 1].into(), Skip)
            .is_err());
    }

    /// The page is built before the file table is locked and published by
    /// one push under it: a reader of another file is never held up by the
    /// copy, and nobody sees a page number before its bytes are complete.
    #[test]
    fn concurrent_readers_never_see_a_half_appended_page() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = storage();
        let (quiet, busy) = (s.create_file(), s.create_file());
        s.append_page(quiet, &[7u8; 4096]).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..2000u32 {
                    s.append_page(busy, &[(i % 251) as u8; 4096]).unwrap();
                }
                done.store(true, Ordering::Release);
            });
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    assert!(s.read_page(quiet, 0).unwrap().iter().all(|&b| b == 7));
                    let n = s.file_pages(busy).unwrap();
                    if n > 0 {
                        let page = s.read_page(busy, n - 1).unwrap();
                        assert_eq!(page.len(), 4096);
                        let fill = ((n - 1) % 251) as u8;
                        assert!(page.iter().all(|&b| b == fill), "page {} torn", n - 1);
                    }
                }
            });
        });
        assert_eq!(s.file_pages(busy).unwrap(), 2000);
    }

    #[test]
    fn oversized_page_rejected() {
        let s = storage();
        let f = s.create_file();
        let big = vec![0u8; s.page_size() + 1];
        assert!(s.append_page(f, &big).is_err());
    }

    #[test]
    fn first_read_misses_second_hits() {
        let s = storage();
        let f = s.create_file();
        s.append_page(f, b"x").unwrap();
        s.read_page(f, 0).unwrap();
        let a = s.stats();
        assert_eq!(a.disk_reads(), 1);
        s.read_page(f, 0).unwrap();
        let b = s.stats();
        assert_eq!(b.disk_reads(), 1);
        assert_eq!(b.cache_hits, 1);
    }

    #[test]
    fn sequential_reads_detected() {
        let opts = StorageOptions {
            cache_pages: 0, // disable cache so every read reaches the device
            ..StorageOptions::test()
        };
        let s = Storage::new(opts);
        let f = s.create_file();
        for _ in 0..4 {
            s.append_page(f, b"p").unwrap();
        }
        for p in 0..4 {
            s.read_page(f, p).unwrap();
        }
        let snap = s.stats();
        assert_eq!(snap.rand_reads, 1); // first read seeks
        assert_eq!(snap.seq_reads, 3);
    }

    #[test]
    fn interleaved_files_break_sequentiality() {
        let opts = StorageOptions {
            cache_pages: 0,
            ..StorageOptions::test()
        };
        let s = Storage::new(opts);
        let f1 = s.create_file();
        let f2 = s.create_file();
        for _ in 0..3 {
            s.append_page(f1, b"a").unwrap();
            s.append_page(f2, b"b").unwrap();
        }
        // Alternating between files moves the device head every time: every
        // read is random. This is the access pattern of naive (unbatched)
        // point lookups across LSM components in the paper.
        for p in 0..3 {
            s.read_page(f1, p).unwrap();
            s.read_page(f2, p).unwrap();
        }
        let snap = s.stats();
        assert_eq!(snap.rand_reads, 6);
        assert_eq!(snap.seq_reads, 0);
    }

    #[test]
    fn readahead_burst_amortizes_seeks() {
        let opts = StorageOptions {
            cache_pages: 16,
            ..StorageOptions::test()
        };
        let s = Storage::new(opts);
        let f = s.create_file();
        for _ in 0..8 {
            s.append_page(f, b"p").unwrap();
        }
        s.read_pages(f, 0, 8).unwrap();
        let snap = s.stats();
        assert_eq!(snap.rand_reads, 1);
        assert_eq!(snap.seq_reads, 7);
        // Every page is now cached.
        for p in 0..8 {
            s.read_page(f, p).unwrap();
        }
        assert_eq!(s.stats().disk_reads(), 8);
        assert_eq!(s.stats().cache_hits, 8);
    }

    #[test]
    fn readahead_skips_resident_pages() {
        let s = Storage::new(StorageOptions::test());
        let f = s.create_file();
        for _ in 0..4 {
            s.append_page(f, b"p").unwrap();
        }
        s.read_page(f, 0).unwrap();
        let before = s.stats();
        s.read_pages(f, 0, 4).unwrap();
        let d = s.stats().since(&before);
        // Page 0 was resident; only 3 pages charged.
        assert_eq!(d.disk_reads(), 3);
        assert_eq!(d.cache_hits, 1);
    }

    #[test]
    fn readahead_rejects_out_of_bounds() {
        let s = Storage::new(StorageOptions::test());
        let f = s.create_file();
        s.append_page(f, b"p").unwrap();
        assert!(s.read_pages(f, 0, 2).is_err());
        assert!(s.read_pages(f, 0, 0).is_ok());
    }

    /// Without a plan an operation skips the fault-plan lock; installing,
    /// clearing and reinstalling one is seen by the very next operation and
    /// crash-site probe.
    #[test]
    fn fault_plan_takes_effect_on_the_next_operation() {
        use crate::fault::{FaultSpec, FaultTrigger};
        let s = storage();
        let f = s.create_file();
        s.append_page(f, b"x").unwrap();
        let plan = || {
            let plan = FaultPlan::new(vec![
                FaultSpec {
                    trigger: FaultTrigger::OpIndex {
                        op: FaultOp::Read,
                        index: 0,
                    },
                    action: FaultAction::TransientError,
                },
                FaultSpec {
                    trigger: FaultTrigger::Site {
                        name: "here".into(),
                        hit: 0,
                    },
                    action: FaultAction::Crash,
                },
            ]);
            plan.arm();
            plan
        };
        assert!(s.fault_plan().is_none());
        assert!(matches!(s.probe_crash_site("here"), SiteOutcome::Unarmed));
        s.install_fault_plan(plan());
        assert!(s.read_page(f, 0).is_err());
        assert!(matches!(s.probe_crash_site("here"), SiteOutcome::Fired(_)));
        s.clear_fault_plan();
        assert!(s.fault_plan().is_none());
        assert!(s.read_page(f, 0).is_ok());
        s.install_fault_plan(plan());
        assert!(s.read_pages(f, 0, 1).is_err());
        assert_eq!(s.stats().faults_injected, 3);
    }

    /// A burst whose end does not fit a `u32` is out of range, in debug
    /// and release builds alike, and reads nothing.
    #[test]
    fn burst_past_u32_max_is_an_error() {
        let s = storage();
        let f = s.create_file();
        s.append_page(f, b"p").unwrap();
        assert!(s.read_pages(f, u32::MAX, 2).is_err());
        assert!(s.read_pages(f, 1, u32::MAX).is_err());
        let io = s.stats();
        assert_eq!((io.disk_reads(), io.cache_hits), (0, 0));
        assert_eq!(s.cache_state(), (vec![], 0));
    }

    impl Storage {
        /// The CLOCK's frames in sweep order and its hand, after checking
        /// that the pages they name are exactly the resident ones.
        fn cache_state(&self) -> (Vec<(FileId, PageNo)>, usize) {
            let files = self.files.read();
            let frames = self.frames.lock();
            let resident: Vec<(FileId, PageNo)> = (0u32..)
                .zip(files.iter())
                .flat_map(|(f, state)| {
                    let pages = (0u32..).zip(&state.pages);
                    pages
                        .filter(|(_, p)| p.is_resident())
                        .map(move |(p, _)| (FileId(f), p))
                })
                .collect();
            let (frames, hand) = frames.state();
            let mut sorted = frames.clone();
            sorted.sort();
            assert_eq!(resident, sorted, "resident bits disagree with the frames");
            (frames, hand)
        }
    }

    /// A storage whose cache holds `pages`, with one file of `n` pages.
    fn cached(pages: usize, n: u8) -> (Arc<Storage>, FileId) {
        let s = Storage::new(StorageOptions {
            cache_pages: pages,
            ..StorageOptions::test()
        });
        let f = s.create_file();
        for p in 0..n {
            s.append_page(f, &[p]).unwrap();
        }
        (s, f)
    }

    /// Reads `page` of `file`; true on a cache hit.
    fn hits(s: &Storage, file: FileId, page: PageNo) -> bool {
        let before = s.stats().cache_hits;
        s.read_page(file, page).unwrap();
        s.stats().cache_hits > before
    }

    #[test]
    fn zero_capacity_never_hits() {
        let (s, f) = cached(0, 1);
        assert!(!hits(&s, f, 0));
        assert!(!hits(&s, f, 0));
        assert_eq!(s.cache_state(), (vec![], 0));
    }

    #[test]
    fn evicts_at_capacity() {
        let (s, f) = cached(2, 3);
        for p in 0..3 {
            assert!(!hits(&s, f, p));
        }
        let (frames, _) = s.cache_state();
        assert_eq!(frames.len(), 2);
        assert!(frames.contains(&(f, 2)));
    }

    /// A page hit since the hand last passed survives the next sweep; the
    /// unreferenced page after it goes instead.
    #[test]
    fn clock_gives_a_referenced_page_a_second_chance() {
        let (s, f) = cached(3, 5);
        for p in 0..4 {
            s.read_page(f, p).unwrap(); // 3 evicts 0, clearing every bit
        }
        assert_eq!(s.cache_state(), (vec![(f, 3), (f, 1), (f, 2)], 1));
        assert!(hits(&s, f, 1));
        assert!(!hits(&s, f, 4));
        assert_eq!(s.cache_state(), (vec![(f, 3), (f, 1), (f, 4)], 0));
    }

    #[test]
    fn repeated_scan_larger_than_cache_always_misses() {
        let (s, f) = cached(4, 8);
        for round in 0..3 {
            let hit_count = (0..8).filter(|&p| hits(&s, f, p)).count();
            if round > 0 {
                // Sequential flooding defeats CLOCK just as it defeats LRU —
                // this mirrors the paper's full-scan behaviour on a cache
                // smaller than the dataset.
                assert!(hit_count <= 4, "round {round} had {hit_count} hits");
            }
        }
    }

    #[test]
    fn delete_file_evicts_only_that_file() {
        let (s, f1) = cached(8, 1);
        let f2 = s.create_file();
        s.append_page(f2, b"a").unwrap();
        s.append_page(f2, b"b").unwrap();
        for (f, p) in [(f1, 0), (f2, 0), (f2, 1)] {
            s.read_page(f, p).unwrap();
        }
        delete(&s, f2);
        assert_eq!(s.cache_state(), (vec![(f1, 0)], 0));
        // The cache still works after the eviction.
        let f3 = s.create_file();
        s.append_page(f3, b"c").unwrap();
        assert!(!hits(&s, f3, 0));
        assert!(hits(&s, f3, 0));
        assert!(hits(&s, f1, 0));
    }

    #[test]
    fn clear_cache_empties() {
        let (s, f) = cached(4, 1);
        s.read_page(f, 0).unwrap();
        s.clear_cache();
        assert_eq!(s.cache_state(), (vec![], 0));
        assert!(!hits(&s, f, 0));
    }

    /// Appends `n` one-byte pages to a new file of `s` through the cache,
    /// as a B+-tree build writes its leaves.
    fn built(s: &Storage, n: u8) -> FileId {
        let f = s.create_file();
        for p in 0..n {
            s.append_page_shared(f, Arc::from(&[p][..]), Unreferenced)
                .unwrap();
        }
        f
    }

    /// A written-through page is resident from its append on: its first
    /// read is a hit, and the append is charged exactly what an uncached
    /// one is. Plain appends and skipping shared ones — the log's pages, a
    /// tree's footer-only and router pages — admit nothing.
    #[test]
    fn a_built_page_is_a_hit_on_its_first_read() {
        let (s, plain) = cached(8, 2);
        s.append_page_shared(plain, Arc::from(&b"router"[..]), Skip)
            .unwrap();
        assert_eq!(s.cache_state(), (vec![], 0));
        let before = s.stats();
        let t = s.clock().now_nanos();
        let f = built(&s, 2);
        let (written, cached_ns) = (s.stats().since(&before), s.clock().now_nanos() - t);
        let twin = Storage::new(StorageOptions::test());
        let g = twin.create_file();
        for p in 0..2u8 {
            twin.append_page_shared(g, Arc::from(&[p][..]), Skip)
                .unwrap();
        }
        assert_eq!(cached_ns, twin.clock().now_nanos());
        assert_eq!(written, twin.stats());
        assert_eq!(s.cache_state(), (vec![(f, 0), (f, 1)], 0));
        assert!(hits(&s, f, 0) && hits(&s, f, 1));
        for p in 0..3 {
            assert!(!hits(&s, plain, p), "plain page {p}");
        }
    }

    /// A written page enters unreferenced: the hand's first pass evicts
    /// it, but it evicts no page a read referenced since the hand last
    /// passed, and a build larger than the whole cache leaves such a page
    /// resident. With every frame referenced, a written page is not
    /// admitted at all.
    #[test]
    fn a_referenced_page_survives_a_build_larger_than_the_cache() {
        let (s, f) = cached(4, 1);
        assert!(!hits(&s, f, 0)); // admitted referenced
        let b = built(&s, 10);
        assert_eq!(s.cache_state(), (vec![(f, 0), (b, 9), (b, 7), (b, 8)], 2));
        assert!(hits(&s, f, 0));
        // A read miss sweeps as before: the built pages go first.
        let g = s.create_file();
        s.append_page(g, b"x").unwrap();
        assert!(!hits(&s, g, 0));
        assert_eq!(s.cache_state(), (vec![(f, 0), (b, 9), (g, 0), (b, 8)], 3));

        let (s, f) = cached(2, 2);
        for p in 0..2 {
            assert!(!hits(&s, f, p));
        }
        let b = built(&s, 1);
        assert_eq!(s.cache_state(), (vec![(f, 0), (f, 1)], 0));
        assert!(!hits(&s, b, 0));
    }

    /// Deleting a built file drops its pages from the cache, and clearing
    /// the cache drops every built page; neither is read from the cache
    /// again.
    #[test]
    fn delete_file_and_clear_cache_drop_built_pages() {
        let s = Storage::new(StorageOptions {
            cache_pages: 8,
            ..StorageOptions::test()
        });
        let (gone, kept) = (built(&s, 3), built(&s, 2));
        delete(&s, gone);
        assert_eq!(s.cache_state(), (vec![(kept, 0), (kept, 1)], 0));
        assert!(s.read_page(gone, 0).is_err());
        s.clear_cache();
        assert_eq!(s.cache_state(), (vec![], 0));
        assert!(!hits(&s, kept, 0));
        // The delete came first: a later append to the file fails and
        // admits nothing.
        assert!(s
            .append_page_shared(gone, Arc::from(&b"late"[..]), Unreferenced)
            .is_err());
        assert_eq!(s.cache_state(), (vec![(kept, 0)], 0));
    }

    /// A torn write through the cache caches the page as the device stored
    /// it: the read that hits it returns the damaged image, the very page
    /// the append returned.
    #[test]
    fn a_torn_built_page_is_cached_as_stored() {
        use crate::fault::{FaultSpec, FaultTrigger};
        let (s, f) = cached(8, 0);
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Append,
                index: 0,
            },
            action: FaultAction::TornWrite { keep_bytes: 2 },
        }]);
        s.install_fault_plan(plan.clone());
        plan.arm();
        let leaf: Arc<[u8]> = Arc::from(&b"abcdef"[..]);
        let (no, stored) = s.append_page_shared(f, leaf.clone(), Unreferenced).unwrap();
        s.clear_fault_plan();
        assert_eq!(&*leaf, b"abcdef");
        assert!(hits(&s, f, no));
        let read = s.read_page(f, no).unwrap();
        assert_eq!(&*read, b"ab\0\0\0\0");
        assert!(Arc::ptr_eq(&read, &stored));
    }

    /// Replays seeded traces of reads, forward reads, bursts, file
    /// deletions, cache clears and builds — files written, and pages
    /// appended, through the cache — at several capacities against the
    /// storage and against the CLOCK it replaced (`cache::oracle`): every
    /// hit and miss, the frames in sweep order, the hand and the simulated
    /// clock must agree, and the cache never holds more than its capacity.
    /// Reads and appends share the oracle's one device head: an append
    /// continues it or pays a write seek, and moves it.
    #[test]
    fn cache_matches_the_clock_it_replaced() {
        use crate::cache::oracle::BufferCache;
        const PAGES: u32 = 12;
        for capacity in [0, 1, 2, 7, 64] {
            for seed in 1..=4u64 {
                let s = Storage::new(StorageOptions {
                    cache_pages: capacity,
                    ..StorageOptions::test()
                });
                let (rand_ns, seq_ns, write_seek_ns) = {
                    let (profile, bytes) = (DiskProfile::hdd(), s.page_size());
                    (
                        profile.seek_ns + profile.transfer_ns(bytes),
                        profile.transfer_ns(bytes),
                        profile.write_seek_ns,
                    )
                };
                let mut oracle = BufferCache::new(capacity);
                // The device head, as the charge model keeps it.
                let mut head = None;
                let charge = |head: &mut Option<(FileId, PageNo)>, f, p: PageNo, n: u32| {
                    let seq = p > 0 && *head == Some((f, p - 1));
                    *head = Some((f, p + n - 1));
                    let n = u64::from(n);
                    if seq {
                        n * seq_ns
                    } else {
                        rand_ns + (n - 1) * seq_ns
                    }
                };
                let write = |head: &mut Option<(FileId, PageNo)>, f, p: PageNo| {
                    let seq = p > 0 && *head == Some((f, p - 1));
                    *head = Some((f, p));
                    seq_ns + if seq { 0 } else { write_seek_ns }
                };
                // A file of `PAGES` pages, built through the cache if
                // `cached`, and what its appends cost.
                let new_file = |oracle: &mut BufferCache,
                                head: &mut Option<(FileId, PageNo)>,
                                cached: bool| {
                    let (f, mut cost) = (s.create_file(), 0);
                    for p in 0..PAGES {
                        let page = Arc::from(&p.to_le_bytes()[..]);
                        let admission = if cached { Unreferenced } else { Skip };
                        s.append_page_shared(f, page, admission).unwrap();
                        if cached {
                            oracle.admit_written(f, p);
                        }
                        cost += write(head, f, p);
                    }
                    (f, cost)
                };
                let mut live: Vec<FileId> = (0..3)
                    .map(|i| new_file(&mut oracle, &mut head, i == 0).0)
                    .collect();
                let mut dead = Vec::new();
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut next = |n: usize| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    (rng % n as u64) as u32
                };
                for step in 0..1500 {
                    let (io, t) = (s.stats(), s.clock().now_nanos());
                    let (mut hits, mut cost) = (0, 0);
                    match next(100) {
                        0..=1 => {
                            s.clear_cache();
                            oracle.clear();
                            head = None;
                        }
                        2..=4 => {
                            let f = live.swap_remove(next(live.len()) as usize);
                            delete(&s, f);
                            oracle.evict_file(f);
                            if head.map(|(h, _)| h) == Some(f) {
                                head = None;
                            }
                            dead.push(f);
                            let cached = next(2) == 0;
                            let (g, appended) = new_file(&mut oracle, &mut head, cached);
                            live.push(g);
                            cost = appended;
                        }
                        41..=46 => {
                            // A build going on beside the reads: pages past
                            // the ones the reads pick.
                            let f = live[next(live.len()) as usize];
                            for _ in 0..=next(3) {
                                let more = Arc::from(&b"more"[..]);
                                let (p, _) = s.append_page_shared(f, more, Unreferenced).unwrap();
                                oracle.admit_written(f, p);
                                cost += write(&mut head, f, p);
                            }
                        }
                        5..=6 if !dead.is_empty() => {
                            let f = dead[next(dead.len()) as usize];
                            assert!(s.read_page(f, 0).is_err());
                            assert!(s.read_page_forward(f, 0).is_err());
                            assert!(s.read_pages(f, 0, 2).is_err());
                        }
                        21..=40 => {
                            // Every forward gap of a 12-page file is short on
                            // this profile: a miss past the head on its file
                            // streams from the page after the head.
                            let (f, p) = (live[next(live.len()) as usize], next(PAGES as usize));
                            assert_eq!(*s.read_page_forward(f, p).unwrap(), p.to_le_bytes());
                            if oracle.access(f, p) {
                                hits = 1;
                            } else {
                                let from = match head {
                                    Some((h_file, h)) if h_file == f && h < p => h + 1,
                                    _ => p,
                                };
                                for q in from..p {
                                    if !oracle.contains(f, q) {
                                        oracle.access(f, q);
                                    }
                                }
                                cost = charge(&mut head, f, from, p - from + 1);
                            }
                        }
                        7..=20 => {
                            let (f, p) = (live[next(live.len()) as usize], next(PAGES as usize));
                            let n = 1 + next((PAGES - p).min(4) as usize);
                            assert_eq!(s.read_pages(f, p, n).unwrap().len(), n as usize);
                            let missed: Vec<PageNo> =
                                (p..p + n).filter(|&q| !oracle.access(f, q)).collect();
                            hits = u64::from(n) - missed.len() as u64;
                            if let Some(&first) = missed.first() {
                                cost = charge(&mut head, f, first, missed.len() as u32);
                            }
                        }
                        _ => {
                            let (f, p) = (live[next(live.len()) as usize], next(PAGES as usize));
                            assert_eq!(*s.read_page(f, p).unwrap(), p.to_le_bytes());
                            if oracle.access(f, p) {
                                hits = 1;
                            } else {
                                cost = charge(&mut head, f, p, 1);
                            }
                        }
                    }
                    let at = format!("capacity {capacity}, seed {seed}, step {step}");
                    assert_eq!(s.stats().since(&io).cache_hits, hits, "{at}");
                    assert_eq!(s.clock().now_nanos() - t, cost, "{at}");
                    assert_eq!(s.cache_state(), oracle.state(), "{at}");
                    assert!(s.cache_state().0.len() <= capacity, "{at}");
                }
            }
        }
    }

    /// Two readers hit and miss while a third thread writes pages through
    /// the cache, deletes files and clears it, in rounds a `Barrier` starts
    /// together. The
    /// readers read the same pages in the same order, so they miss the same
    /// page at once and race to admit it. No read panics, the cache never
    /// holds more pages than its capacity nor a frame twice or without its
    /// resident bit, and every page a read returned is counted once, as a
    /// hit or a device read.
    #[test]
    fn reads_race_appends_deletes_and_clears() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicU32, AtomicU64};
        use std::sync::Barrier;
        const CAPACITY: usize = 8;
        const ROUNDS: u32 = 1000;
        let (s, _) = cached(CAPACITY, 16);
        for _ in 1..4 {
            let f = s.create_file();
            for p in 0..16u8 {
                s.append_page(f, &[p]).unwrap();
            }
        }
        // Files `created - 4 .. created` are live.
        let created = AtomicU32::new(4);
        let accessed = AtomicU64::new(0);
        let panics = AtomicU32::new(0);
        let round = Barrier::new(3);
        // A round that panics is counted, not propagated: the other
        // threads would wait at the barrier forever.
        let run_round = |f: &mut dyn FnMut()| {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                panics.fetch_add(1, Ordering::Relaxed);
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (s, created, accessed, round) = (&s, &created, &accessed, &round);
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        round.wait();
                        run_round(&mut || {
                            for i in 0..8 {
                                let pick = r * 31 + i * 7;
                                let f = FileId(created.load(Ordering::Acquire) - 1 - pick % 4);
                                let p = pick % 15;
                                let pages = if i % 3 == 0 {
                                    s.read_pages(f, p, 2).map(|b| b.len())
                                } else {
                                    s.read_page(f, p).map(|_| 1)
                                };
                                // The file may have been deleted under the read.
                                if let Ok(n) = pages {
                                    accessed.fetch_add(n as u64, Ordering::Relaxed);
                                }
                            }
                        });
                    }
                });
            }
            for r in 0..ROUNDS {
                round.wait();
                run_round(&mut || {
                    let newest = created.load(Ordering::Acquire) - 1;
                    match r % 4 {
                        0 => {
                            delete(&s, FileId(newest - 3));
                            let f = built(&s, 16);
                            created.store(f.0 + 1, Ordering::Release);
                        }
                        1 => {
                            let more = Arc::from(&b"more"[..]);
                            s.append_page_shared(FileId(newest), more, Unreferenced)
                                .unwrap();
                        }
                        2 => s.clear_cache(),
                        _ => {}
                    }
                    assert!(s.cache_state().0.len() <= CAPACITY);
                });
            }
        });
        assert_eq!(panics.load(Ordering::Relaxed), 0);
        let io = s.stats();
        assert_eq!(
            io.cache_hits + io.disk_reads(),
            accessed.load(Ordering::Relaxed)
        );
        assert!(s.cache_state().0.len() <= CAPACITY);
    }

    /// A storage with no cache limit to speak of and one file of `n` pages,
    /// whose head stands on page `head` after one read.
    fn headed(n: u32, head: PageNo) -> (Arc<Storage>, FileId) {
        let s = Storage::new(StorageOptions {
            cache_pages: 1024,
            ..StorageOptions::test()
        });
        let f = s.create_file();
        for p in 0..n {
            s.append_page(f, &p.to_le_bytes()).unwrap();
        }
        s.read_page(f, head).unwrap();
        (s, f)
    }

    /// What one `read` charged: the clock and the counters it moved, and
    /// the cache it left.
    #[allow(clippy::type_complexity)]
    fn charged(
        s: &Storage,
        read: impl FnOnce(&Storage) -> Result<Arc<[u8]>>,
    ) -> (u64, IoStatsSnapshot, (Vec<(FileId, PageNo)>, usize)) {
        let (t, io) = (s.clock().now_nanos(), s.stats());
        read(s).unwrap();
        (
            s.clock().now_nanos() - t,
            s.stats().since(&io),
            s.cache_state(),
        )
    }

    /// The longest gap a forward read streams is the largest `g` with `g ×
    /// transfer(page) < seek`: 6 pages of 128 KiB on the HDD, 1 of 32 KiB
    /// on the SSD, 195 of 4 KiB on the test profile's HDD.
    #[test]
    fn bridge_limits_follow_the_profile() {
        let limit = |opts: StorageOptions| Storage::new(opts).bridge_pages;
        assert_eq!(limit(StorageOptions::hdd(0)), 6);
        assert_eq!(limit(StorageOptions::ssd(0)), 1);
        assert_eq!(limit(StorageOptions::test()), 195);
        let hdd = DiskProfile::hdd();
        let transfer = hdd.transfer_ns(128 * 1024);
        assert!(6 * transfer < hdd.seek_ns && 7 * transfer >= hdd.seek_ns);
    }

    /// A forward gap of `g` pages up to the limit is streamed: `g + 1`
    /// transfers and no seek, the gap pages admitted behind the wanted one,
    /// and the head left on the wanted page.
    #[test]
    fn a_short_forward_gap_is_streamed_not_sought() {
        let transfer = DiskProfile::hdd().transfer_ns(4096);
        for g in [1, 2, 100, 195] {
            let (s, f) = headed(400, 3);
            let p = 3 + g + 1;
            let (ns, io, (frames, _)) = charged(&s, |s| s.read_page_forward(f, p));
            assert_eq!(ns, u64::from(g + 1) * transfer, "gap {g}");
            assert_eq!((io.rand_reads, io.seq_reads), (0, u64::from(g + 1)));
            assert_eq!(io.bridged_pages, u64::from(g));
            assert_eq!(io.bytes_read, u64::from(g + 1) * 4096);
            assert_eq!((io.cache_hits, io.batched_lookups_saved), (0, 0));
            let mut want = vec![(f, 3), (f, p)];
            want.extend((4..p).map(|q| (f, q)));
            assert_eq!(frames, want);
            // The stream ended on the wanted page: the next page continues it.
            let (ns, io, _) = charged(&s, |s| s.read_page(f, p + 1));
            assert_eq!((ns, io.seq_reads, io.rand_reads), (transfer, 1, 0));
        }
    }

    /// A gap one page past the limit seeks, exactly as a plain read does,
    /// and admits no gap page.
    #[test]
    fn a_long_forward_gap_seeks_and_admits_no_gap_page() {
        let (s, f) = headed(400, 3);
        let p = 3 + 196 + 1;
        let (ns, io, (frames, _)) = charged(&s, |s| s.read_page_forward(f, p));
        let hdd = DiskProfile::hdd();
        assert_eq!(ns, hdd.seek_ns + hdd.transfer_ns(4096));
        assert_eq!((io.rand_reads, io.seq_reads, io.bridged_pages), (1, 0, 0));
        assert_eq!(frames, vec![(f, 3), (f, p)]);
    }

    /// A backward read, a read of another file, a read with no head and a
    /// read of a resident page are never bridged: a forward read of each
    /// is charged exactly what a plain read is, in clock, counters and
    /// cache.
    #[test]
    fn forward_reads_bridge_nothing_else() {
        type Setup = fn() -> (Arc<Storage>, FileId, PageNo);
        let cases: [(&str, Setup); 4] = [
            ("backward", || {
                let (s, f) = headed(40, 20);
                (s, f, 10)
            }),
            ("other file", || {
                let (s, _) = headed(40, 20);
                let g = s.create_file();
                for p in 0..40u32 {
                    s.append_page(g, &p.to_le_bytes()).unwrap();
                }
                (s, g, 22)
            }),
            ("no head", || {
                let (s, f) = headed(40, 20);
                s.clear_cache();
                (s, f, 22)
            }),
            ("resident", || {
                let (s, f) = headed(40, 20);
                s.read_page(f, 25).unwrap();
                s.read_page(f, 5).unwrap();
                s.read_page(f, 4).unwrap();
                (s, f, 25)
            }),
        ];
        for (what, setup) in cases {
            let (s, f, p) = setup();
            let plain = charged(&s, |s| s.read_page(f, p));
            let (s, f, p) = setup();
            let forward = charged(&s, |s| s.read_page_forward(f, p));
            assert_eq!(forward, plain, "{what}");
            assert_eq!(forward.1.bridged_pages, 0, "{what}");
        }
    }

    /// An installed read fault fails a forward read before it touches the
    /// cache, the head or the clock.
    #[test]
    fn a_faulted_forward_read_charges_nothing() {
        use crate::fault::{FaultSpec, FaultTrigger};
        let (s, f) = headed(40, 3);
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Read,
                index: 0,
            },
            action: FaultAction::TransientError,
        }]);
        s.install_fault_plan(plan.clone());
        plan.arm();
        let (t, io, cache) = (s.clock().now_nanos(), s.stats(), s.cache_state());
        assert!(s.read_page_forward(f, 6).is_err());
        let d = s.stats().since(&io);
        assert_eq!(s.clock().now_nanos(), t);
        assert_eq!((d.disk_reads(), d.cache_hits, d.bridged_pages), (0, 0, 0));
        assert_eq!((d.bytes_read, d.faults_injected), (0, 1));
        assert_eq!(s.cache_state(), cache);
        // The head did not move: the retry still bridges from page 3.
        s.clear_fault_plan();
        let (_, io, _) = charged(&s, |s| s.read_page_forward(f, 6));
        assert_eq!((io.rand_reads, io.bridged_pages), (0, 2));
    }

    #[test]
    fn random_reads_cost_more_sim_time() {
        let opts = StorageOptions {
            cache_pages: 0,
            ..StorageOptions::test()
        };
        let s = Storage::new(opts.clone());
        let f = s.create_file();
        for _ in 0..8 {
            s.append_page(f, b"p").unwrap();
        }
        let t0 = s.clock().now_nanos();
        for p in 0..8 {
            s.read_page(f, p).unwrap();
        }
        let seq_time = s.clock().now_nanos() - t0;

        let t1 = s.clock().now_nanos();
        for p in [7, 2, 5, 0, 6, 1, 4, 3] {
            s.read_page(f, p).unwrap();
        }
        let rand_time = s.clock().now_nanos() - t1;
        assert!(rand_time > 3 * seq_time, "{rand_time} vs {seq_time}");
    }

    #[test]
    fn delete_file_then_read_fails() {
        let s = storage();
        let f = s.create_file();
        s.append_page(f, b"x").unwrap();
        s.read_page(f, 0).unwrap();
        delete(&s, f);
        assert!(s.read_page(f, 0).is_err());
        assert!(s.append_page(f, b"y").is_err());
        assert!(s.file_pages(f).is_err());
    }

    /// A storage whose cache holds `pages` and whose one file holds a
    /// range of pages per entry of `ranges`, each page one byte: its
    /// number.
    fn ranged(pages: usize, ranges: &[u32]) -> (Arc<Storage>, FileId, Vec<Range<PageNo>>) {
        let s = Storage::new(StorageOptions {
            cache_pages: pages,
            ..StorageOptions::test()
        });
        let f = s.create_file();
        let mut start = 0;
        let ranges = ranges
            .iter()
            .map(|&n| {
                for p in start..start + n {
                    s.append_page(f, &[p as u8]).unwrap();
                }
                start += n;
                start - n..start
            })
            .collect();
        (s, f, ranges)
    }

    /// Releasing a range evicts exactly its frames and leaves the CLOCK
    /// hand where deleting a file of the same pages, read in the same
    /// order, leaves it: three ranges of one file against three files.
    #[test]
    fn releasing_a_range_evicts_its_frames_as_deleting_a_file_does() {
        let (s, f, ranges) = ranged(5, &[2, 3, 2]);
        let twin = Storage::new(StorageOptions {
            cache_pages: 5,
            ..StorageOptions::test()
        });
        let files: Vec<FileId> = ranges
            .iter()
            .map(|r| {
                let g = twin.create_file();
                for p in r.clone() {
                    twin.append_page(g, &[p as u8]).unwrap();
                }
                g
            })
            .collect();
        // The twin's page of `(range, page)` named as the ranged file's.
        let named = |(g, p): (FileId, PageNo)| {
            let i = files.iter().position(|&h| h == g).unwrap();
            (f, ranges[i].start + p)
        };
        let state = |twin: &Storage| {
            let (frames, hand) = twin.cache_state();
            (frames.into_iter().map(named).collect::<Vec<_>>(), hand)
        };
        for (i, p) in [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (0, 1), (1, 2)] {
            assert!(!hits(&s, f, ranges[i].start + p));
            assert!(!hits(&twin, files[i], p));
        }
        assert_eq!(s.cache_state(), state(&twin));
        assert_eq!(s.cache_state().1, 2, "the hand has moved");
        s.release_pages(f, ranges[1].clone()).unwrap();
        delete(&twin, files[1]);
        assert_eq!(s.cache_state(), state(&twin));
        assert_eq!(s.cache_state(), (vec![(f, 1), (f, 5), (f, 6)], 2));
        // The cache goes on as the twin's does.
        assert!(!hits(&s, f, 0) && !hits(&twin, files[0], 0));
        assert!(hits(&s, f, 6) && hits(&twin, files[2], 1));
        assert_eq!(s.cache_state(), state(&twin));
    }

    /// A release forgets the device head only when the head stands on one
    /// of its pages: a read after it that continues the head is
    /// sequential, one that would have continued a forgotten head seeks.
    #[test]
    fn releasing_a_range_resets_the_head_only_inside_it() {
        let (s, f, ranges) = ranged(0, &[3, 3, 2]);
        s.read_page(f, 1).unwrap();
        s.release_pages(f, ranges[2].clone()).unwrap();
        let io = s.stats();
        s.read_page(f, 2).unwrap();
        let d = s.stats().since(&io);
        assert_eq!((d.seq_reads, d.rand_reads), (1, 0), "the head outlived it");
        s.release_pages(f, ranges[0].clone()).unwrap();
        let io = s.stats();
        s.read_page(f, 3).unwrap();
        let d = s.stats().since(&io);
        assert_eq!(
            (d.seq_reads, d.rand_reads),
            (0, 1),
            "the head was forgotten"
        );
    }

    /// Every read of a released page fails, a burst that reaches one
    /// reads nothing, and a page a caller still holds stays readable; the
    /// other ranges read as before. A forward read streams over released
    /// pages but admits none of them.
    #[test]
    fn released_pages_read_as_errors_while_a_held_page_still_reads() {
        let (s, f, ranges) = ranged(16, &[2, 2, 2]);
        let held = s.read_page(f, 2).unwrap();
        s.read_page(f, 1).unwrap();
        s.release_pages(f, ranges[1].clone()).unwrap();
        assert!(s.read_page(f, 2).is_err());
        assert!(s.read_page_forward(f, 3).is_err());
        assert!(s.page_data(f, 3).is_err());
        let io = s.stats();
        assert!(s.read_pages(f, 1, 2).is_err());
        assert_eq!(s.stats().since(&io).cache_hits, 0, "the burst read nothing");
        assert_eq!(&*held, &[2]);
        assert_eq!(s.read_pages(f, 0, 2).unwrap().len(), 2);
        assert_eq!(s.file_pages(f).unwrap(), 6);
        // The burst left the head on page 0: page 4 streams over pages 1
        // to 3, and admits neither released one.
        let (_, io, (frames, _)) = charged(&s, |s| s.read_page_forward(f, 4));
        assert_eq!((io.rand_reads, io.seq_reads, io.bridged_pages), (0, 4, 3));
        assert_eq!(frames, vec![(f, 1), (f, 0), (f, 4)]);
        assert_eq!(&*s.read_page(f, 5).unwrap(), &[5]);
    }

    /// The release of a file's last live page deletes the file, and only
    /// that release is a [`FaultOp::Delete`]: a fault on it releases
    /// nothing, and the retry deletes. An empty range of a file without
    /// pages deletes it too; a release in a deleted file does nothing.
    #[test]
    fn the_last_release_deletes_the_file() {
        use crate::fault::{FaultSpec, FaultTrigger};
        let (s, f, ranges) = ranged(8, &[1, 2]);
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Delete,
                index: 0,
            },
            action: FaultAction::TransientError,
        }]);
        s.install_fault_plan(plan.clone());
        plan.arm();
        s.release_pages(f, ranges[1].clone()).unwrap();
        // Releasing released pages deletes nothing either.
        s.release_pages(f, ranges[1].clone()).unwrap();
        assert_eq!(s.stats().faults_injected, 0);
        assert!(s.release_pages(f, ranges[0].clone()).is_err());
        assert_eq!(s.stats().faults_injected, 1);
        assert_eq!(
            &*s.read_page(f, 0).unwrap(),
            &[0],
            "the fault released nothing"
        );
        s.release_pages(f, ranges[0].clone()).unwrap();
        s.clear_fault_plan();
        assert!(s.file_pages(f).is_err(), "the file is gone");
        assert!(s.append_page(f, b"late").is_err());
        s.release_pages(f, 0..9).unwrap();
        assert!(s.release_pages(FileId(99), 0..0).is_err());

        let empty = s.create_file();
        assert!(s.release_pages(empty, 0..1).is_err(), "past its end");
        s.release_pages(empty, 0..0).unwrap();
        assert!(s.file_pages(empty).is_err());
    }

    /// Charging `n` of an event counts `n` of it, and only it, and moves
    /// the clock and `cpu_ns` by `n ×` its price; charging several events
    /// at once is charging each.
    #[test]
    fn charge_counts_each_event_at_its_price() {
        let cpu = CpuCosts::default();
        let s = storage();
        let cases = [
            (Event::KeyCmp, cpu.key_cmp_ns),
            (Event::NodeVisit, cpu.btree_node_visit_ns),
            (Event::BloomProbeMiss, cpu.bloom_probe_miss_ns),
            (Event::BloomProbeHit, cpu.bloom_probe_hit_ns),
            (Event::MemtableOp, cpu.memtable_op_ns),
            (Event::SortEntry, cpu.sort_entry_ns),
        ];
        for (n, (event, price)) in (1u64..).zip(cases) {
            let (t, io) = (s.clock().now_nanos(), s.stats());
            s.charge(event, n);
            let d = s.stats().since(&io);
            let counts = d.events().map(|(e, _)| (e, if e == event { n } else { 0 }));
            assert_eq!(d.events(), counts, "{event:?}");
            assert_eq!(s.clock().now_nanos() - t, n * price, "{event:?}");
            assert_eq!(d.cpu_ns, n * price, "{event:?}");
            assert_eq!(d.disk_reads() + d.pages_written + d.write_seeks, 0);
        }
        let (t, io) = (s.clock().now_nanos(), s.stats());
        s.charge_each([
            (Event::NodeVisit, 2),
            (Event::KeyCmp, 7),
            (Event::SortEntry, 0),
        ]);
        let d = s.stats().since(&io);
        assert_eq!((d.node_visits, d.key_cmps, d.sort_entries), (2, 7, 0));
        let want = 2 * cpu.btree_node_visit_ns + 7 * cpu.key_cmp_ns;
        assert_eq!((s.clock().now_nanos() - t, d.cpu_ns), (want, want));
        assert_eq!(s.charged_ns(), s.clock().now_nanos());
    }

    #[test]
    fn write_seek_charged_on_file_switch() {
        let s = storage();
        let f1 = s.create_file();
        let f2 = s.create_file();
        s.append_page(f1, b"a").unwrap();
        assert_eq!(s.stats().write_seeks, 1); // the first append seeks
        let t0 = s.clock().now_nanos();
        s.append_page(f1, b"b").unwrap(); // same file: no seek
        let seq_cost = s.clock().now_nanos() - t0;
        assert_eq!(s.stats().write_seeks, 1);
        let t1 = s.clock().now_nanos();
        s.append_page(f2, b"c").unwrap(); // switch: seek
        let switch_cost = s.clock().now_nanos() - t1;
        assert_eq!(s.stats().write_seeks, 2);
        assert_eq!(switch_cost - seq_cost, DiskProfile::hdd().write_seek_ns);
        assert_eq!(s.charged_ns(), s.clock().now_nanos());
    }

    /// Write seeks of `f(s)`.
    fn write_seeks(s: &Storage, f: impl FnOnce()) -> u64 {
        let io = s.stats();
        f();
        s.stats().since(&io).write_seeks
    }

    /// Reads and appends share one head: a device read of another file
    /// between two appends to one file makes the second append seek, and
    /// so does a read back inside the file itself.
    #[test]
    fn an_append_after_a_device_read_of_another_file_seeks() {
        let s = storage();
        let (f, g) = (s.create_file(), s.create_file());
        s.append_page(g, b"g").unwrap();
        s.append_page(f, b"a").unwrap();
        assert_eq!(write_seeks(&s, || drop(s.append_page(f, b"b"))), 0);
        s.read_page(g, 0).unwrap();
        assert_eq!(write_seeks(&s, || drop(s.append_page(f, b"c"))), 1);
        // Reads of `f`'s first pages leave the head short of its end.
        let io = s.stats();
        s.read_page(f, 0).unwrap();
        s.read_page(f, 1).unwrap();
        assert_eq!(
            s.stats().since(&io).rand_reads,
            1,
            "page 1 continues page 0"
        );
        assert_eq!(write_seeks(&s, || drop(s.append_page(f, b"d"))), 1);
        assert_eq!(s.charged_ns(), s.clock().now_nanos());
    }

    /// A cache hit leaves the head where the last append put it, so the
    /// next append still continues it.
    #[test]
    fn an_append_after_a_cache_hit_does_not_seek() {
        let s = storage();
        let f = s.create_file();
        let page = |b: &[u8]| Arc::<[u8]>::from(b);
        s.append_page_shared(f, page(b"a"), Unreferenced).unwrap();
        let seeks = write_seeks(&s, || {
            s.append_page_shared(f, page(b"b"), Unreferenced).unwrap();
            let io = s.stats();
            s.read_page(f, 0).unwrap();
            assert_eq!(s.stats().since(&io).cache_hits, 1, "the read hit");
            s.append_page_shared(f, page(b"c"), Unreferenced).unwrap();
        });
        assert_eq!(seeks, 0, "appends move the head, hits do not");
    }

    /// Clearing the cache and releasing the page under the head forget the
    /// head, so the next append seeks; a release beside the head keeps it.
    #[test]
    fn clear_cache_and_a_release_under_the_head_forget_it() {
        let s = storage();
        let f = s.create_file();
        for b in [b"a", b"b", b"c"] {
            s.append_page(f, b).unwrap();
        }
        s.clear_cache();
        assert_eq!(write_seeks(&s, || drop(s.append_page(f, b"d"))), 1);
        s.release_pages(f, 0..2).unwrap();
        assert_eq!(write_seeks(&s, || drop(s.append_page(f, b"e"))), 0);
        s.release_pages(f, 3..5).unwrap();
        assert_eq!(write_seeks(&s, || drop(s.append_page(f, b"f"))), 1);
    }

    /// The frontier is one file, claimed by one writer at a time: a claim
    /// while it is held gets a fresh file, and the claim after it is handed
    /// back appends after its pages. A release of its last live page keeps
    /// it; the same release of a fresh file deletes that file.
    #[test]
    fn the_frontier_is_claimed_by_one_writer_and_never_deleted() {
        let s = storage();
        let held = s.claim_frontier();
        let fresh = s.claim_frontier();
        assert_ne!(held.id(), fresh.id());
        for w in [&held, &fresh] {
            s.append_page(w.id(), b"a").unwrap();
            assert_eq!(w.first(), 0);
        }
        let (frontier, other) = (held.id(), fresh.id());
        drop((held, fresh));
        s.release_pages(frontier, 0..1).unwrap();
        s.release_pages(other, 0..1).unwrap();
        assert!(s.file_pages(other).is_err(), "a fresh file goes");
        let again = s.claim_frontier();
        assert_eq!((again.id(), again.first()), (frontier, 1));
        assert_eq!(s.file_pages(frontier).unwrap(), 1, "the frontier stays");
        assert_eq!(write_seeks(&s, || drop(s.append_page(frontier, b"b"))), 1);
    }

    /// A claim that finds the frontier holding `FRONTIER_BYTES` of pages
    /// starts a new frontier file; the old one goes with its last live page,
    /// at the roll if it has none left.
    #[test]
    fn the_frontier_rolls_over_at_its_size_bound() {
        let s = Storage::new(StorageOptions {
            page_size: FRONTIER_BYTES / 4,
            ..StorageOptions::test()
        });
        let fill = |n| {
            let w = s.claim_frontier();
            for _ in 0..n {
                s.append_page(w.id(), b"p").unwrap();
            }
            w.id()
        };
        let first = fill(3);
        assert_eq!(fill(1), first, "three pages are short of the bound");
        let second = fill(1);
        assert_ne!(second, first, "four pages reach it");
        s.release_pages(first, 0..4).unwrap();
        assert!(s.file_pages(first).is_err(), "no longer the frontier");
        let (seeks, kept) = (s.stats().write_seeks, fill(3));
        assert_eq!((kept, s.stats().write_seeks), (second, seeks));
        s.release_pages(second, 0..4).unwrap();
        assert!(s.file_pages(second).is_ok(), "still the frontier");
        let third = fill(1);
        assert_ne!(third, second);
        assert!(s.file_pages(second).is_err(), "the roll deleted it");
    }

    #[test]
    fn tiny_cache_bytes_round_up_instead_of_disabling() {
        // Regression: integer division used to turn any cache smaller than
        // one page into a zero-capacity (fully disabled) cache.
        let hdd = StorageOptions::hdd(1024);
        assert_eq!(hdd.cache_pages, 1, "sub-page HDD cache must hold a page");
        let ssd = StorageOptions::ssd(1024);
        assert_eq!(ssd.cache_pages, 1, "sub-page SSD cache must hold a page");
        // Partial trailing pages round up too; zero stays disabled.
        assert_eq!(StorageOptions::hdd(128 * 1024 + 1).cache_pages, 2);
        assert_eq!(StorageOptions::hdd(0).cache_pages, 0);
        assert_eq!(StorageOptions::ssd(0).cache_pages, 0);

        // And the rounded-up cache actually caches.
        let s = Storage::new(StorageOptions {
            page_size: 4096,
            ..StorageOptions::hdd(1024)
        });
        let f = s.create_file();
        s.append_page(f, b"x").unwrap();
        s.read_page(f, 0).unwrap();
        s.read_page(f, 0).unwrap();
        assert_eq!(s.stats().cache_hits, 1);
    }
}
