//! The simulated storage manager: files of pages plus cost accounting.
//!
//! Files are append-only sequences of fixed-size pages — exactly the shape of
//! LSM disk components and the WAL. Reads go through the buffer cache;
//! misses are charged to the [`DiskProfile`], distinguishing sequential
//! continuations (the previous read on the *same file* was the previous
//! page) from random accesses. This is what makes the paper's central
//! trade-offs — batched vs interleaved point lookups, scans vs index
//! navigation — measurable here.

use crate::cache::{CacheShardStats, ShardedCache};
use crate::fault::{FaultAction, FaultOp, FaultPlan, SiteOutcome};
use crate::profile::{CpuCosts, DiskProfile};
use crate::sim_clock::SimClock;
use crate::stats::{IoStats, IoStatsSnapshot};
use lsm_common::{Error, Result};
use parking_lot::{Mutex, RwLock};
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
    /// Independently locked buffer-cache shards (see [`ShardedCache`]).
    /// `1` — the default — behaves
    /// exactly like the classic single CLOCK; raise it so parallel query
    /// partitions stop serializing on one cache lock.
    pub cache_shards: usize,
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
            cache_shards: 1,
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
            cache_shards: 1,
            readahead_pages: (4 * 1024 * 1024 / page_size) as u32,
            profile: DiskProfile::ssd(),
            cpu: CpuCosts::default(),
        }
    }

    /// An NVMe drive scaled to a given cache size in bytes: much smaller
    /// pages and a near-flat random/sequential gap compared to
    /// [`StorageOptions::hdd`]/[`StorageOptions::ssd`]. Like those, the
    /// page count rounds up so a small non-zero `cache_bytes` never
    /// disables the cache.
    pub fn nvme(cache_bytes: usize) -> Self {
        let page_size = 16 * 1024;
        StorageOptions {
            page_size,
            cache_pages: cache_bytes.div_ceil(page_size),
            cache_shards: 1,
            readahead_pages: (4 * 1024 * 1024 / page_size) as u32,
            profile: DiskProfile::nvme(),
            cpu: CpuCosts::default(),
        }
    }

    /// The NVMe profile with a deliberately tiny (single-page) buffer
    /// cache: every re-read reaches the device, which is what makes device
    /// latencies — not cache policy — dominate a measurement.
    pub fn nvme_tiny_cache() -> Self {
        StorageOptions {
            cache_pages: 1,
            ..StorageOptions::nvme(1)
        }
    }

    /// Small configuration for unit tests.
    pub fn test() -> Self {
        StorageOptions {
            page_size: 4096,
            cache_pages: 64,
            cache_shards: 1,
            readahead_pages: 8,
            profile: DiskProfile::hdd(),
            cpu: CpuCosts::default(),
        }
    }
}

#[derive(Debug, Default)]
struct FileState {
    pages: Vec<Arc<[u8]>>,
    deleted: bool,
}

/// The simulated storage device.
///
/// Shared via `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Storage {
    opts: StorageOptions,
    clock: SimClock,
    stats: IoStats,
    files: RwLock<Vec<FileState>>,
    cache: ShardedCache,
    /// Device head position: the last `(file, page)` that reached the
    /// device. A read is sequential only if it continues from here —
    /// interleaving reads across files moves the head and costs seeks,
    /// which is exactly the effect the paper's batched point lookups avoid.
    head: Mutex<Option<(FileId, PageNo)>>,
    /// Last file appended to, for write-seek charging.
    last_write: Mutex<Option<FileId>>,
    /// Installed fault-injection script, if any (see [`FaultPlan`]).
    fault: RwLock<Option<Arc<FaultPlan>>>,
}

impl Storage {
    /// Creates a storage device with its own clock.
    pub fn new(opts: StorageOptions) -> Arc<Self> {
        Self::with_clock(opts, SimClock::new())
    }

    /// Creates a storage device sharing an existing clock (e.g. the data and
    /// log devices of one node accumulate into one timeline).
    pub fn with_clock(opts: StorageOptions, clock: SimClock) -> Arc<Self> {
        let cache = ShardedCache::new(opts.cache_pages, opts.cache_shards.max(1));
        Arc::new(Storage {
            opts,
            clock,
            stats: IoStats::new(),
            files: RwLock::new(Vec::new()),
            cache,
            head: Mutex::new(None),
            last_write: Mutex::new(None),
            fault: RwLock::new(None),
        })
    }

    /// Installs a fault-injection plan on this device. The same
    /// [`Arc<FaultPlan>`] may be installed on several devices (data + WAL)
    /// so their op counters share one deterministic schedule.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.fault.write() = Some(plan);
    }

    /// Removes the installed fault plan, if any.
    pub fn clear_fault_plan(&self) {
        *self.fault.write() = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
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

    /// The device cost model.
    pub fn profile(&self) -> &DiskProfile {
        &self.opts.profile
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
        // Rate-limit first: threads that installed a write IoThrottle
        // (background flush builds and merge outputs) pay for the page
        // before it reaches the device, so foreground writers see the
        // bandwidth the bucket reserved for them. Foreground threads (and
        // WAL appends, which run under `exempt_writes`) have no installed
        // bucket and pass for free.
        let waited = crate::throttle::consume_active_write(self.opts.page_size as u64);
        if waited > 0 {
            self.stats
                .write_throttle_wait_ns
                .fetch_add(waited, std::sync::atomic::Ordering::Relaxed);
        }
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
            state.pages.push(stored);
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
        let files = self.files.read();
        let state = files
            .get(file.0 as usize)
            .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
        if state.deleted {
            return Err(Error::Storage(format!("file {file:?} is deleted")));
        }
        Ok(state.pages.len() as u32)
    }

    /// Reads one page, going through the buffer cache and charging the
    /// device model on a miss.
    pub fn read_page(&self, file: FileId, page: PageNo) -> Result<Arc<[u8]>> {
        self.fault_check(FaultOp::Read, format_args!("read of {file:?}/{page}"))?;
        let data = {
            let files = self.files.read();
            let state = files
                .get(file.0 as usize)
                .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
            if state.deleted {
                return Err(Error::Storage(format!("file {file:?} is deleted")));
            }
            state
                .pages
                .get(page as usize)
                .ok_or_else(|| Error::Storage(format!("page {page} out of bounds in {file:?}")))?
                .clone()
        };

        let hit = self.cache.access(file, page);
        if hit {
            self.stats
                .cache_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(data);
        }
        self.charge_read(file, page, 1);
        Ok(data)
    }

    /// Charges a device read of `count` pages starting at `(file, page)`.
    fn charge_read(&self, file: FileId, page: PageNo, count: u32) {
        // Rate-limit first: threads that installed a read IoThrottle
        // (background rebuild scans) pay for the bytes before the device
        // model runs, so foreground readers see the bandwidth the bucket
        // reserved for them.
        let waited =
            crate::throttle::consume_active_read(u64::from(count) * self.opts.page_size as u64);
        if waited > 0 {
            self.stats
                .throttle_wait_ns
                .fetch_add(waited, std::sync::atomic::Ordering::Relaxed);
        }
        let sequential = {
            let mut head = self.head.lock();
            let seq = page > 0 && *head == Some((file, page - 1));
            *head = Some((file, page + count - 1));
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
        let pages = self.page_data_batch(file, page, count)?;
        // Admit all pages; charge only those not already resident. Each
        // page locks only its own cache shard, so a burst never holds the
        // whole cache against concurrent readers.
        let mut misses = 0u32;
        let mut first_miss = page;
        for p in page..page + count {
            if !self.cache.access(file, p) {
                if misses == 0 {
                    first_miss = p;
                }
                misses += 1;
            } else {
                self.stats
                    .cache_hits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
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
        let files = self.files.read();
        let state = files
            .get(file.0 as usize)
            .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
        if state.deleted {
            return Err(Error::Storage(format!("file {file:?} is deleted")));
        }
        state
            .pages
            .get(page as usize)
            .cloned()
            .ok_or_else(|| Error::Storage(format!("page {page} out of bounds in {file:?}")))
    }

    /// Returns `count` consecutive page handles from one file-table lookup,
    /// without touching the cache or charging the device — the batched
    /// sibling of [`Storage::page_data`] for readers consuming a burst that
    /// [`Storage::read_pages`] already charged. Each page beyond the first
    /// is a per-page lock acquisition the caller no longer pays; the saving
    /// is counted in [`IoStats::batched_lookups_saved`].
    pub fn page_data_batch(
        &self,
        file: FileId,
        page: PageNo,
        count: u32,
    ) -> Result<Vec<Arc<[u8]>>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let pages = {
            let files = self.files.read();
            let state = files
                .get(file.0 as usize)
                .ok_or_else(|| Error::Storage(format!("no such file {file:?}")))?;
            if state.deleted {
                return Err(Error::Storage(format!("file {file:?} is deleted")));
            }
            state
                .pages
                .get(page as usize..(page + count) as usize)
                .ok_or_else(|| {
                    Error::Storage(format!(
                        "page batch past end of {file:?} ({}..{} of {})",
                        page,
                        page + count,
                        state.pages.len()
                    ))
                })?
                .to_vec()
        };
        self.stats
            .batched_lookups_saved
            .fetch_add(u64::from(count - 1), std::sync::atomic::Ordering::Relaxed);
        Ok(pages)
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
        }
        self.cache.evict_file(file);
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
        self.cache.clear();
        *self.head.lock() = None;
    }

    /// Number of buffer-cache shards.
    pub fn cache_shards(&self) -> usize {
        self.cache.num_shards()
    }

    /// Per-shard buffer-cache hit/miss/occupancy rows. The aggregate hits
    /// are also rolled into [`IoStats`] (`cache_hits`); these rows expose
    /// the distribution, e.g. to spot a skewed shard hash.
    pub fn cache_shard_stats(&self) -> Vec<CacheShardStats> {
        self.cache.shard_stats()
    }

    /// Total bytes held by live files (for reporting dataset sizes).
    pub fn total_bytes(&self) -> u64 {
        let files = self.files.read();
        files
            .iter()
            .filter(|f| !f.deleted)
            .map(|f| f.pages.iter().map(|p| p.len() as u64).sum::<u64>())
            .sum()
    }
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

    #[test]
    fn sharded_cache_hits_roll_up_into_io_stats() {
        let opts = StorageOptions {
            cache_pages: 32,
            cache_shards: 4,
            ..StorageOptions::test()
        };
        let s = Storage::new(opts);
        assert_eq!(s.cache_shards(), 4);
        let f = s.create_file();
        for _ in 0..8 {
            s.append_page(f, b"p").unwrap();
        }
        for p in 0..8 {
            s.read_page(f, p).unwrap(); // miss
            s.read_page(f, p).unwrap(); // hit
        }
        let snap = s.stats();
        assert_eq!(snap.cache_hits, 8);
        assert_eq!(snap.disk_reads(), 8);
        let shards = s.cache_shard_stats();
        assert_eq!(shards.iter().map(|x| x.hits).sum::<u64>(), 8);
        assert_eq!(shards.iter().map(|x| x.misses).sum::<u64>(), 8);
    }

    #[test]
    fn total_bytes_counts_live_files_only() {
        let s = storage();
        let f1 = s.create_file();
        let f2 = s.create_file();
        s.append_page(f1, &[0u8; 100]).unwrap();
        s.append_page(f2, &[0u8; 50]).unwrap();
        assert_eq!(s.total_bytes(), 150);
        s.delete_file(f1).unwrap();
        assert_eq!(s.total_bytes(), 50);
    }
}
