//! The simulated storage manager: files of pages plus cost accounting.
//!
//! Files are append-only sequences of fixed-size pages — exactly the shape of
//! LSM disk components and the WAL. Reads go through the buffer cache;
//! misses are charged to the [`DiskProfile`], distinguishing sequential
//! continuations (the previous read on the *same file* was the previous
//! page) from random accesses. This is what makes the paper's central
//! trade-offs — batched vs interleaved point lookups, scans vs index
//! navigation — measurable here.

use crate::cache::{FileState, Frames, StoredPage};
use crate::fault::{FaultAction, FaultOp, FaultPlan, SiteOutcome};
use crate::profile::{CpuCosts, DiskProfile};
use crate::sim_clock::SimClock;
use crate::stats::{IoStats, IoStatsSnapshot};
use lsm_common::{Error, Result};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identifies a simulated file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Page number within a file.
pub type PageNo = u32;

/// Configuration for a [`Storage`] instance.
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Page size in bytes (the paper uses 128KB on HDD, 32KB on SSD).
    pub page_size: usize,
    /// Buffer cache capacity, in pages.
    pub cache_pages: usize,
    /// Read-ahead window for scans, in pages (the paper uses 4MB).
    pub readahead_pages: u32,
    /// Device cost model.
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
    /// Device head position: the last `(file, page)` that reached the
    /// device. A read is sequential only if it continues from here —
    /// interleaving reads across files moves the head and costs seeks,
    /// which is exactly the effect the paper's batched point lookups avoid.
    head: Mutex<Option<(FileId, PageNo)>>,
    /// Last file appended to, for write-seek charging.
    last_write: Mutex<Option<FileId>>,
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
            opts,
            clock,
            stats: IoStats::new(),
            files: RwLock::new(Vec::new()),
            head: Mutex::new(None),
            last_write: Mutex::new(None),
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
    /// / checkpoint paths (the [`crash_site!`](crate::crash_site) macro
    /// wraps the early return). Non-error actions scripted on a site
    /// (torn/short writes) are meaningless there and fail permanently.
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

    /// The CPU cost model.
    pub fn cpu(&self) -> &CpuCosts {
        &self.opts.cpu
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    /// Records one WAL group commit: a single device append that covered
    /// `records` staged log records.
    pub fn note_wal_group(&self, records: u64) {
        self.stats
            .wal_groups
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stats
            .wal_grouped_records
            .fetch_add(records, std::sync::atomic::Ordering::Relaxed);
    }

    /// Live counters (for recording bloom checks etc. from upper layers).
    pub fn raw_stats(&self) -> &IoStats {
        &self.stats
    }

    /// Charges `ns` of CPU work to the simulated clock.
    pub fn charge_cpu(&self, ns: u64) {
        self.clock.advance(ns);
        self.stats
            .cpu_ns
            .fetch_add(ns, std::sync::atomic::Ordering::Relaxed);
    }

    /// Creates an empty file.
    pub fn create_file(&self) -> FileId {
        let mut files = self.files.write();
        files.push(FileState::default());
        FileId((files.len() - 1) as u32)
    }

    /// Appends one page (at most `page_size` bytes). Returns its page number.
    ///
    /// Appends are charged as sequential writes, with a seek when the write
    /// target switches files.
    pub fn append_page(&self, file: FileId, data: &[u8]) -> Result<PageNo> {
        self.append(file, data, || data.into())
    }

    /// [`Storage::append_page`] for a page the caller built in a shared
    /// buffer: the device keeps that very buffer instead of a copy of it.
    pub fn append_page_shared(&self, file: FileId, page: Arc<[u8]>) -> Result<PageNo> {
        self.append(file, &page, || page.clone())
    }

    /// Appends `data`; `whole` yields the stored page when no fault
    /// mutates it.
    fn append(
        &self,
        file: FileId,
        data: &[u8],
        whole: impl FnOnce() -> Arc<[u8]>,
    ) -> Result<PageNo> {
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
            state.pages.push(StoredPage::new(stored));
            (state.pages.len() - 1) as PageNo
        };
        if torn {
            self.stats
                .torn_writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let mut seek = 0;
        {
            let mut lw = self.last_write.lock();
            if *lw != Some(file) {
                seek = self.opts.profile.write_seek_ns;
                *lw = Some(file);
            }
        }
        self.clock
            .advance(seek + self.opts.profile.transfer_ns(self.opts.page_size));
        self.stats
            .pages_written
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, std::sync::atomic::Ordering::Relaxed);
        Ok(page_no)
    }

    /// Number of pages in `file`.
    pub fn file_pages(&self, file: FileId) -> Result<u32> {
        Ok(live(&self.files.read(), file)?.len() as u32)
    }

    /// Reads one page, going through the buffer cache and charging the
    /// device model on a miss.
    pub fn read_page(&self, file: FileId, page: PageNo) -> Result<Arc<[u8]>> {
        self.fault_check(FaultOp::Read, format_args!("read of {file:?}/{page}"))?;
        let (data, hit) = {
            let files = self.files.read();
            let stored = live(&files, file)?
                .get(page as usize)
                .ok_or_else(|| Error::Storage(format!("page {page} out of bounds in {file:?}")))?;
            let hit = stored.touch() || self.admit(&files, file, page);
            (stored.data.clone(), hit)
        };
        if hit {
            self.stats
                .cache_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(data);
        }
        self.charge_read(file, page, 1);
        Ok(data)
    }

    /// The miss path: admits `(file, page)` under the CLOCK mutex, inside
    /// the caller's file-table lock `files`. Returns `true` if a racing
    /// read admitted the page first, which makes this access a hit.
    fn admit(&self, files: &[FileState], file: FileId, page: PageNo) -> bool {
        self.frames.lock().admit(files, file, page)
    }

    /// Charges a device read of `count` pages starting at `(file, page)`.
    fn charge_read(&self, file: FileId, page: PageNo, count: u32) {
        let sequential = {
            let mut head = self.head.lock();
            let seq = page > 0 && *head == Some((file, page - 1));
            *head = Some((file, page + (count - 1)));
            seq
        };
        let bytes = self.opts.page_size;
        let cost = if sequential {
            self.stats
                .seq_reads
                .fetch_add(u64::from(count), std::sync::atomic::Ordering::Relaxed);
            u64::from(count) * self.opts.profile.sequential_read_ns(bytes)
        } else {
            self.stats
                .rand_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.stats
                .seq_reads
                .fetch_add(u64::from(count - 1), std::sync::atomic::Ordering::Relaxed);
            self.opts.profile.random_read_ns(bytes)
                + u64::from(count - 1) * self.opts.profile.sequential_read_ns(bytes)
        };
        self.stats.bytes_read.fetch_add(
            u64::from(count) * bytes as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        self.clock.advance(cost);
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
            for (p, stored) in (page..).zip(burst) {
                if stored.touch() || self.admit(&files, file, p) {
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
            burst.iter().map(|p| p.data.clone()).collect()
        };
        self.stats
            .batched_lookups_saved
            .fetch_add(u64::from(count - 1), std::sync::atomic::Ordering::Relaxed);
        if misses > 0 {
            self.charge_read(file, first_miss, misses);
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
        live(&self.files.read(), file)?
            .get(page as usize)
            .map(|p| p.data.clone())
            .ok_or_else(|| Error::Storage(format!("page {page} out of bounds in {file:?}")))
    }

    /// Deletes a file, dropping its pages and evicting its cached entries.
    pub fn delete_file(&self, file: FileId) -> Result<()> {
        self.fault_check(FaultOp::Delete, format_args!("delete of {file:?}"))?;
        {
            let mut files = self.files.write();
            let state = files
                .get_mut(file.0 as usize)
                .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
            state.deleted = true;
            state.pages = Vec::new();
            // Under the write lock: no miss may sweep a frame whose page
            // is gone.
            self.frames.lock().evict_file(file);
        }
        {
            let mut head = self.head.lock();
            if head.map(|(f, _)| f) == Some(file) {
                *head = None;
            }
        }
        let mut lw = self.last_write.lock();
        if *lw == Some(file) {
            *lw = None;
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
    use super::*;

    fn storage() -> Arc<Storage> {
        Storage::new(StorageOptions::test())
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
    /// reach through to the buffer the caller still holds.
    #[test]
    fn shared_append_stores_the_callers_buffer_unless_a_fault_tears_it() {
        use crate::fault::{FaultSpec, FaultTrigger};
        let s = storage();
        let f = s.create_file();
        let page: Arc<[u8]> = Arc::from(&b"abcdef"[..]);
        s.append_page_shared(f, page.clone()).unwrap();
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
        s.append_page_shared(f, page.clone()).unwrap();
        s.clear_fault_plan();
        assert_eq!(&*s.read_page(f, 1).unwrap(), b"ab\0\0\0\0");
        assert_eq!(&*page, b"abcdef");
        let io = s.stats();
        assert_eq!(
            (io.pages_written, io.bytes_written, io.torn_writes),
            (2, 12, 1)
        );
        assert!(s
            .append_page_shared(f, vec![0; s.page_size() + 1].into())
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
        s.delete_file(f2).unwrap();
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

    /// Replays seeded traces of reads, bursts, file deletions and cache
    /// clears at several capacities against the storage and against the
    /// CLOCK it replaced (`cache::oracle`): every hit and miss, the frames in
    /// sweep order, the hand and the simulated clock must agree.
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
                let (rand_ns, seq_ns) = {
                    let (profile, bytes) = (&s.opts.profile, s.page_size());
                    (
                        profile.random_read_ns(bytes),
                        profile.sequential_read_ns(bytes),
                    )
                };
                let new_file = || {
                    let f = s.create_file();
                    for p in 0..PAGES {
                        s.append_page(f, &p.to_le_bytes()).unwrap();
                    }
                    f
                };
                let mut live: Vec<FileId> = (0..3).map(|_| new_file()).collect();
                let mut dead = Vec::new();
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
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut next = |n: usize| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    (rng % n as u64) as u32
                };
                for step in 0..1500 {
                    let (io, mut t) = (s.stats(), s.clock().now_nanos());
                    let (mut hits, mut cost) = (0, 0);
                    match next(100) {
                        0..=1 => {
                            s.clear_cache();
                            oracle.clear();
                            head = None;
                        }
                        2..=4 => {
                            let f = live.swap_remove(next(live.len()) as usize);
                            s.delete_file(f).unwrap();
                            oracle.evict_file(f);
                            if head.map(|(h, _)| h) == Some(f) {
                                head = None;
                            }
                            dead.push(f);
                            live.push(new_file());
                            t = s.clock().now_nanos(); // appends are charged
                        }
                        5..=6 if !dead.is_empty() => {
                            let f = dead[next(dead.len()) as usize];
                            assert!(s.read_page(f, 0).is_err());
                            assert!(s.read_pages(f, 0, 2).is_err());
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
                }
            }
        }
    }

    /// Two readers hit and miss while a third thread appends, deletes files
    /// and clears the cache, in rounds a `Barrier` starts together. The
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
                            s.delete_file(FileId(newest - 3)).unwrap();
                            let f = s.create_file();
                            for p in 0..16u8 {
                                s.append_page(f, &[p]).unwrap();
                            }
                            created.store(f.0 + 1, Ordering::Release);
                        }
                        1 => {
                            s.append_page(FileId(newest), b"more").unwrap();
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
        s.delete_file(f).unwrap();
        assert!(s.read_page(f, 0).is_err());
        assert!(s.append_page(f, b"y").is_err());
        assert!(s.file_pages(f).is_err());
    }

    #[test]
    fn charge_cpu_advances_clock_and_stats() {
        let s = storage();
        let t0 = s.clock().now_nanos();
        s.charge_cpu(123);
        assert_eq!(s.clock().now_nanos() - t0, 123);
        assert_eq!(s.stats().cpu_ns, 123);
    }

    #[test]
    fn write_seek_charged_on_file_switch() {
        let s = storage();
        let f1 = s.create_file();
        let f2 = s.create_file();
        s.append_page(f1, b"a").unwrap();
        let t0 = s.clock().now_nanos();
        s.append_page(f1, b"b").unwrap(); // same file: no seek
        let seq_cost = s.clock().now_nanos() - t0;
        let t1 = s.clock().now_nanos();
        s.append_page(f2, b"c").unwrap(); // switch: seek
        let switch_cost = s.clock().now_nanos() - t1;
        assert!(switch_cost > seq_cost);
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
