//! Background maintenance: an engine-wide worker pool executing flush and
//! merge jobs for every registered dataset, fairly.
//!
//! Luo & Carey design the maintenance strategies so that writers proceed
//! *concurrently* with flush/merge rebuilds (Section 5.3 — the `BuildLink`
//! machinery, bitmap redirection, and the timestamp protocol). The
//! [`MaintenanceRuntime`] exploits that: writers only *enqueue* work when
//! the memory budget trips, and a bounded pool of worker threads seals
//! memory components, builds disk components, and runs policy-driven merges
//! while ingestion continues. Unlike a per-dataset pool, one runtime serves
//! *all* datasets registered with it — a node hosting hundreds of datasets
//! runs a handful of maintenance threads, not hundreds.
//!
//! Contracts:
//!
//! * **Registration** — datasets join on
//!   [`Dataset::open_with_runtime`](crate::Dataset::open_with_runtime) and
//!   leave when dropped; deregistration discards the dataset's queued jobs.
//! * **Priorities** — flushes always run before merges (they release writer
//!   memory). Both classes are served round-robin across datasets; a
//!   dataset's merge turn runs its smallest queued merge (by estimated
//!   input, FIFO within ties), so ten datasets make progress even when one
//!   floods the queue.
//! * **One merge in flight per dataset** — a dataset's merges serialize on
//!   its merge lock, so a second merge popped while one runs could only
//!   block its worker. The scheduler therefore skips a dataset whose merge
//!   is in flight until that merge finishes, and one hot dataset never
//!   holds more than one worker with merges. Flushes are exempt: they
//!   release stalled writer memory, so a dataset's flush must never wait
//!   out its own in-flight merge.
//! * **Dedup** — at most one flush job per dataset is queued at a time, and
//!   merge jobs are keyed by `(dataset, target, MergeRange)`; re-enqueueing
//!   queued work is a no-op.
//! * **Fixed pool** — [`EngineConfig::workers`] threads spawn at start and
//!   run until shutdown, so at most that many jobs execute at once.
//! * **Backpressure** — writers never block on the queue itself; they stall
//!   only when active + flushing memory exceeds the hard ceiling
//!   ([`DatasetConfig::memory_ceiling`](crate::DatasetConfig), default 2×
//!   the budget), preserving the paper's shared-memory-budget semantics.
//! * **Error propagation** — a job error (or panic) poisons its dataset;
//!   the next write fails with the stored cause instead of the process
//!   aborting. Other datasets on the runtime are unaffected, and the
//!   `poisoned` list in [`RuntimeStatsSnapshot`] surfaces the failures
//!   without polling every dataset.
//! * **Graceful shutdown** — dropping a dataset discards its queued jobs
//!   and dropping the runtime's last handle drains in-flight rebuilds
//!   before the workers exit.

use crate::config::EngineConfig;
use crate::dataset::{Dataset, MergePlan};
use lsm_common::Result;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a stalled writer sleeps between ceiling re-checks. The flush
/// worker notifies the stall condvar on completion, so this is only a
/// safety net against lost wakeups.
const STALL_RECHECK: Duration = Duration::from_millis(20);

/// A unit of background maintenance work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Job {
    /// Seal and flush all of the dataset's memory components.
    Flush,
    /// Run the merge planned for the dataset (the embedded plan is the
    /// dedup key; execution re-plans under the merge lock, so a stale range
    /// is never applied).
    Merge(MergePlan),
}

/// One queued merge with its intra-dataset priority key: ordered by
/// `(est_bytes, seq)` ascending — smallest estimated input first, FIFO
/// within ties.
#[derive(Debug, PartialEq, Eq)]
struct QueuedMerge {
    est_bytes: u64,
    seq: u64,
    plan: MergePlan,
}

impl PartialOrd for QueuedMerge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedMerge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.est_bytes, self.seq).cmp(&(other.est_bytes, other.seq))
    }
}

/// Per-dataset bookkeeping inside the runtime: the dataset's own job
/// queues (the cross-dataset order lives in the scheduler's round-robin
/// rings) plus its in-flight state.
#[derive(Debug)]
struct DatasetEntry {
    ds: Weak<Dataset>,
    /// Dedup: one flush job per dataset.
    flush_queued: bool,
    /// Queued merges, smallest-estimated-input-first within this dataset.
    merges: BinaryHeap<Reverse<QueuedMerge>>,
    /// Dedup: merges keyed by `(target, range)`.
    merges_queued: HashSet<MergePlan>,
    /// This dataset's jobs currently queued (flush + merges).
    queued: usize,
    /// This dataset's jobs popped but not yet finished (all classes).
    in_flight: usize,
    /// True while one of this dataset's merges runs; no other merge of the
    /// dataset pops until it finishes (flushes still do).
    merge_in_flight: bool,
}

impl DatasetEntry {
    fn new(ds: Weak<Dataset>) -> Self {
        DatasetEntry {
            ds,
            flush_queued: false,
            merges: BinaryHeap::new(),
            merges_queued: HashSet::new(),
            queued: 0,
            in_flight: 0,
            merge_in_flight: false,
        }
    }
}

#[derive(Debug, Default)]
struct RuntimeState {
    datasets: HashMap<u64, DatasetEntry>,
    /// Round-robin ring over datasets with a queued flush (each id at most
    /// once — one flush per dataset). Stale ids (deregistered datasets)
    /// are dropped lazily on pop.
    flush_ring: VecDeque<u64>,
    /// Round-robin ring over datasets with queued merges (each id at most
    /// once — inserted on the empty→non-empty transition).
    merge_ring: VecDeque<u64>,
    /// Total queued jobs across all datasets.
    queued_total: usize,
    next_seq: u64,
    next_dataset: u64,
    total_in_flight: usize,
    shutdown: bool,
}

#[derive(Debug, Default)]
struct RuntimeCounters {
    jobs_executed: AtomicU64,
    flush_jobs: AtomicU64,
    merge_jobs: AtomicU64,
    /// Transient I/O failures retried in place instead of poisoning.
    transient_retries: AtomicU64,
}

/// State shared between the runtime handle, its workers, registered
/// datasets, and stalled writers.
#[derive(Debug)]
pub(crate) struct RuntimeShared {
    cfg: EngineConfig,
    state: Mutex<RuntimeState>,
    /// Workers wait here for jobs.
    work_cv: Condvar,
    /// Per-dataset and whole-runtime quiesce wait here for drains.
    idle_cv: Condvar,
    /// Backpressured writers wait here for a flush to free memory.
    stall_lock: Mutex<()>,
    stall_cv: Condvar,
    counters: RuntimeCounters,
}

impl RuntimeShared {
    fn new(cfg: EngineConfig) -> Self {
        RuntimeShared {
            cfg,
            state: Mutex::new(RuntimeState::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            stall_lock: Mutex::new(()),
            stall_cv: Condvar::new(),
            counters: RuntimeCounters::default(),
        }
    }

    fn register(&self, ds: Weak<Dataset>) -> u64 {
        let mut s = self.state.lock();
        let id = s.next_dataset;
        s.next_dataset += 1;
        s.datasets.insert(id, DatasetEntry::new(ds));
        id
    }

    /// Removes a dataset and discards its queued jobs (a dropped dataset
    /// cannot execute them anyway: workers hold only weak references). Its
    /// ids in the round-robin rings are dropped lazily on the next pop.
    fn deregister(&self, id: u64) {
        let mut s = self.state.lock();
        let Some(entry) = s.datasets.remove(&id) else {
            return;
        };
        s.queued_total -= entry.queued;
        drop(s);
        self.idle_cv.notify_all();
    }

    /// Enqueues a flush job for `id` unless one is already queued. Returns
    /// `true` if a job was added.
    fn schedule_flush(&self, id: u64) -> bool {
        let mut s = self.state.lock();
        if s.shutdown {
            return false;
        }
        let Some(entry) = s.datasets.get_mut(&id) else {
            return false;
        };
        if entry.flush_queued {
            return false;
        }
        entry.flush_queued = true;
        entry.queued += 1;
        s.flush_ring.push_back(id);
        s.queued_total += 1;
        drop(s);
        self.work_cv.notify_one();
        true
    }

    /// Enqueues a merge job for `id` unless an identical `(target, range)`
    /// job is already queued. `est_bytes` (estimated merge input size)
    /// orders merges smallest-first within the dataset. Returns `true` if a
    /// job was added.
    fn schedule_merge(&self, id: u64, plan: MergePlan, est_bytes: u64) -> bool {
        let mut s = self.state.lock();
        if s.shutdown {
            return false;
        }
        // Take the seq up front (burning one on a deduped call is harmless
        // — seq only breaks FIFO ties) so the entry is looked up once.
        let seq = s.next_seq;
        s.next_seq += 1;
        let Some(entry) = s.datasets.get_mut(&id) else {
            return false;
        };
        if !entry.merges_queued.insert(plan) {
            return false;
        }
        let was_empty = entry.merges.is_empty();
        entry.merges.push(Reverse(QueuedMerge {
            est_bytes,
            seq,
            plan,
        }));
        entry.queued += 1;
        if was_empty {
            s.merge_ring.push_back(id);
        }
        s.queued_total += 1;
        drop(s);
        self.work_cv.notify_one();
        true
    }

    /// Pops the next runnable job: the flush ring first, then the merge
    /// ring, each round-robin across datasets. The merge ring skips a
    /// dataset whose merge is in flight — `None` with work still queued
    /// means every queued merge waits behind its dataset's running one; the
    /// worker re-checks when a job finishes ([`RuntimeShared::finish_job`]
    /// notifies `work_cv`).
    fn try_pop_locked(&self, s: &mut RuntimeState) -> Option<(u64, Job, Weak<Dataset>)> {
        // Flush class. Flushes are uniform (seal + build what is sealed),
        // so plain rotation is fair.
        for _ in 0..s.flush_ring.len() {
            let Some(&id) = s.flush_ring.front() else {
                break;
            };
            let Some(entry) = s.datasets.get_mut(&id) else {
                s.flush_ring.pop_front(); // deregistered: drop lazily
                continue;
            };
            if !entry.flush_queued {
                s.flush_ring.pop_front(); // stale (defensive)
                continue;
            }
            // No in-flight check: a flush releases stalled writer memory,
            // so it must never wait out the dataset's own running merge.
            entry.flush_queued = false;
            entry.queued -= 1;
            entry.in_flight += 1;
            let weak = entry.ds.clone();
            s.flush_ring.pop_front();
            s.queued_total -= 1;
            s.total_in_flight += 1;
            return Some((id, Job::Flush, weak));
        }
        // Merge class: one turn per dataset, each turn its smallest queued
        // merge.
        for _ in 0..s.merge_ring.len() {
            let Some(&id) = s.merge_ring.front() else {
                break;
            };
            let Some(entry) = s.datasets.get_mut(&id) else {
                s.merge_ring.pop_front(); // deregistered: drop lazily
                continue;
            };
            if entry.merge_in_flight {
                s.merge_ring.rotate_left(1);
                continue;
            }
            let Some(Reverse(job)) = entry.merges.pop() else {
                s.merge_ring.pop_front(); // stale (defensive)
                continue;
            };
            // Clear the dedup key immediately: work arriving while this
            // job runs must be re-queueable.
            entry.merges_queued.remove(&job.plan);
            entry.queued -= 1;
            entry.in_flight += 1;
            entry.merge_in_flight = true;
            let weak = entry.ds.clone();
            if entry.merges.is_empty() {
                s.merge_ring.pop_front();
            } else {
                s.merge_ring.rotate_left(1); // others get a turn
            }
            s.queued_total -= 1;
            s.total_in_flight += 1;
            return Some((id, Job::Merge(job.plan), weak));
        }
        None
    }

    fn finish_job(&self, id: u64, was_merge: bool) {
        let mut s = self.state.lock();
        s.total_in_flight -= 1;
        if let Some(entry) = s.datasets.get_mut(&id) {
            entry.in_flight -= 1;
            if was_merge {
                entry.merge_in_flight = false;
            }
        }
        drop(s);
        self.idle_cv.notify_all();
        // A finished merge releases its dataset's next merge, which a
        // parked worker skipped.
        self.work_cv.notify_all();
    }

    /// Jobs currently queued for dataset `id`.
    fn queue_depth_for(&self, id: u64) -> usize {
        self.state.lock().datasets.get(&id).map_or(0, |e| e.queued)
    }

    /// Blocks until dataset `id` has no queued and no in-flight jobs.
    /// Other datasets' jobs are not waited for (beyond those ahead in the
    /// queue finishing naturally).
    fn wait_idle_for(&self, id: u64) {
        let mut s = self.state.lock();
        loop {
            match s.datasets.get(&id) {
                None => return,
                Some(e) if e.queued == 0 && e.in_flight == 0 => return,
                Some(_) => self.idle_cv.wait(&mut s),
            }
        }
    }

    /// Blocks until the whole queue is empty and no job is in flight.
    fn wait_idle_all(&self) {
        let mut s = self.state.lock();
        while !(s.queued_total == 0 && s.total_in_flight == 0) {
            self.idle_cv.wait(&mut s);
        }
    }

    /// Blocks until `done()` holds, waking on flush completions (plus a
    /// periodic recheck so a dead worker cannot strand the writer).
    fn stall_until(&self, done: impl Fn() -> bool) {
        let mut g = self.stall_lock.lock();
        while !done() {
            self.stall_cv.wait_for(&mut g, STALL_RECHECK);
        }
    }

    /// Wakes every stalled writer (after a flush completed or a dataset
    /// was poisoned). Taking `stall_lock` first means a writer between its
    /// predicate check and its wait cannot miss the signal — the 20ms
    /// recheck in `stall_until` is a true safety net, not the common path.
    fn notify_stalled(&self) {
        let _guard = self.stall_lock.lock();
        self.stall_cv.notify_all();
    }

    /// Signals shutdown and joins all workers, draining queued jobs first.
    /// Safe to call from a worker thread (its own handle is detached
    /// instead of joined — this happens when a job holds the last strong
    /// reference to a dataset holding the last runtime handle).
    fn shutdown_and_join(&self, workers: Vec<JoinHandle<()>>) {
        {
            let mut s = self.state.lock();
            s.shutdown = true;
        }
        self.work_cv.notify_all();
        self.notify_stalled();
        let me = std::thread::current().id();
        for handle in workers {
            if handle.thread().id() == me {
                continue; // drop = detach; the thread is about to exit
            }
            let _ = handle.join();
        }
    }
}

/// An engine-wide maintenance worker pool shared by every dataset
/// registered with it.
///
/// Create one with [`MaintenanceRuntime::start`] and pass it to
/// [`Dataset::open_with_runtime`](crate::Dataset::open_with_runtime); each
/// dataset keeps a handle, so the runtime outlives all of its datasets and
/// shuts down (draining in-flight rebuilds) when the last handle drops.
#[derive(Debug)]
pub struct MaintenanceRuntime {
    shared: Arc<RuntimeShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl MaintenanceRuntime {
    /// Validates `cfg`, spawns the workers, and returns the runtime handle.
    pub fn start(cfg: EngineConfig) -> Result<Arc<Self>> {
        cfg.validate()?;
        let shared = Arc::new(RuntimeShared::new(cfg));
        let handles = (0..shared.cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lsm-maint-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| {
                        lsm_common::Error::Storage(format!("spawn maintenance worker: {e}"))
                    })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Arc::new(MaintenanceRuntime {
            shared,
            workers: Mutex::new(handles),
        }))
    }

    /// Blocks until every registered dataset's queue is drained and all
    /// in-flight jobs have completed.
    pub fn quiesce(&self) {
        self.shared.wait_idle_all();
    }

    /// Point-in-time runtime statistics: cross-dataset aggregates (queue
    /// depth by class, job counts, pool size) plus one
    /// [`DatasetRuntimeStats`] row per registered dataset — the operator's
    /// single view over everything the runtime serves.
    pub fn stats(&self) -> RuntimeStatsSnapshot {
        // Collected under the lock, upgraded (and possibly dropped)
        // outside it: dropping a final `Arc<Dataset>` runs `Dataset::drop`,
        // which deregisters — re-entering this lock.
        let (mut snapshot, rows) = {
            let s = self.shared.state.lock();
            let c = &self.shared.counters;
            let flush_queue_depth = s.datasets.values().filter(|e| e.flush_queued).count();
            let snapshot = RuntimeStatsSnapshot {
                datasets: s.datasets.len(),
                queue_depth: s.queued_total,
                flush_queue_depth,
                merge_queue_depth: s.queued_total - flush_queue_depth,
                in_flight: s.total_in_flight,
                workers: self.shared.cfg.workers,
                jobs_executed: c.jobs_executed.load(Ordering::Relaxed),
                flush_jobs: c.flush_jobs.load(Ordering::Relaxed),
                merge_jobs: c.merge_jobs.load(Ordering::Relaxed),
                transient_retries: c.transient_retries.load(Ordering::Relaxed),
                per_dataset: Vec::new(),
                poisoned: Vec::new(),
            };
            let rows: Vec<(u64, usize, usize, Weak<Dataset>)> = s
                .datasets
                .iter()
                .map(|(&id, e)| (id, e.queued, e.in_flight, e.ds.clone()))
                .collect();
            (snapshot, rows)
        };
        let mut per_dataset: Vec<DatasetRuntimeStats> = rows
            .into_iter()
            .map(|(id, queued, in_flight, weak)| DatasetRuntimeStats {
                dataset: id,
                queued,
                in_flight,
                poisoned: weak.upgrade().is_some_and(|ds| ds.is_poisoned()),
            })
            .collect();
        per_dataset.sort_by_key(|d| d.dataset);
        snapshot.poisoned = per_dataset
            .iter()
            .filter(|d| d.poisoned)
            .map(|d| d.dataset)
            .collect();
        snapshot.per_dataset = per_dataset;
        snapshot
    }

    pub(crate) fn register(&self, ds: Weak<Dataset>) -> u64 {
        self.shared.register(ds)
    }

    pub(crate) fn deregister(&self, id: u64) {
        self.shared.deregister(id);
    }
}

impl Drop for MaintenanceRuntime {
    /// Graceful shutdown: signal, drain in-flight rebuilds, join. Runs when
    /// the last handle drops — possibly on a worker thread (a job holds a
    /// temporary strong reference to the last dataset, which holds the last
    /// runtime handle), which `shutdown_and_join` handles by detaching
    /// itself.
    fn drop(&mut self) {
        let handles = std::mem::take(&mut *self.workers.get_mut());
        self.shared.shutdown_and_join(handles);
    }
}

/// One registered dataset's row in a [`RuntimeStatsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetRuntimeStats {
    /// The dataset's runtime-assigned id (stable for its registration).
    pub dataset: u64,
    /// Jobs queued for this dataset.
    pub queued: usize,
    /// Jobs of this dataset currently executing.
    pub in_flight: usize,
    /// True if a background job has poisoned the dataset.
    pub poisoned: bool,
}

/// Point-in-time statistics of a [`MaintenanceRuntime`]: whole-runtime
/// aggregates plus per-dataset rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStatsSnapshot {
    /// Registered datasets.
    pub datasets: usize,
    /// Total queued jobs across all datasets.
    pub queue_depth: usize,
    /// Queued flush jobs (the class served first).
    pub flush_queue_depth: usize,
    /// Queued merge jobs.
    pub merge_queue_depth: usize,
    /// Jobs currently executing (never more than `workers`).
    pub in_flight: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Total jobs executed.
    pub jobs_executed: u64,
    /// Flush jobs executed.
    pub flush_jobs: u64,
    /// Merge jobs executed.
    pub merge_jobs: u64,
    /// Transient I/O failures workers retried in place instead of
    /// poisoning the dataset (a retried job may still fail permanently).
    pub transient_retries: u64,
    /// Per-dataset queue/execution rows, sorted by dataset id.
    pub per_dataset: Vec<DatasetRuntimeStats>,
    /// Ids of registered datasets poisoned by a failed background job.
    pub poisoned: Vec<u64>,
}

/// A dataset's registration on a runtime: the shared state plus the
/// dataset's id. Held in the dataset (keeping the runtime alive) and used
/// by the hot write path, so every method is lock-light.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeHandle {
    runtime: Arc<MaintenanceRuntime>,
    id: u64,
}

impl RuntimeHandle {
    pub(crate) fn new(runtime: Arc<MaintenanceRuntime>, id: u64) -> Self {
        RuntimeHandle { runtime, id }
    }

    /// The runtime-assigned dataset id (the key of the runtime's stats
    /// rows and poisoned list).
    pub(crate) fn dataset_id(&self) -> u64 {
        self.id
    }

    pub(crate) fn schedule_flush(&self) -> bool {
        self.runtime.shared.schedule_flush(self.id)
    }

    pub(crate) fn schedule_merge(&self, plan: MergePlan, est_bytes: u64) -> bool {
        self.runtime.shared.schedule_merge(self.id, plan, est_bytes)
    }

    /// Jobs queued for this dataset (not the whole runtime).
    pub(crate) fn queue_depth(&self) -> usize {
        self.runtime.shared.queue_depth_for(self.id)
    }

    /// Blocks until this dataset's jobs (queued + in-flight) are drained.
    pub(crate) fn wait_idle(&self) {
        self.runtime.shared.wait_idle_for(self.id);
    }

    pub(crate) fn stall_until(&self, done: impl Fn() -> bool) {
        self.runtime.shared.stall_until(done);
    }

    pub(crate) fn notify_stalled(&self) {
        self.runtime.shared.notify_stalled();
    }

    pub(crate) fn deregister(&self) {
        self.runtime.deregister(self.id);
    }
}

/// Worker: blocks on the queue until shutdown, then drains.
fn worker_loop(shared: &Arc<RuntimeShared>) {
    loop {
        let popped = {
            let mut s = shared.state.lock();
            loop {
                if let Some(p) = shared.try_pop_locked(&mut s) {
                    break Some(p);
                }
                if s.shutdown {
                    break None;
                }
                shared.work_cv.wait(&mut s);
            }
        };
        let Some((id, job, weak)) = popped else {
            return;
        };
        execute_job(shared, id, job, &weak);
    }
}

/// Attempts per job before a transient I/O failure is treated as
/// permanent: the first run plus two retries.
const TRANSIENT_ATTEMPTS: u32 = 3;

fn execute_job(shared: &Arc<RuntimeShared>, id: u64, job: Job, weak: &Weak<Dataset>) {
    let dataset = weak.upgrade();
    if let Some(dataset) = &dataset {
        shared
            .counters
            .jobs_executed
            .fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        let outcome = loop {
            attempt += 1;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(dataset, shared, job)
            }));
            // A transient I/O failure (device hiccup, injected fault) is
            // retried with backoff instead of poisoning the dataset: both
            // job kinds are retry-safe — a flush resumes from its sealed
            // snapshots, a merge re-plans against the current components.
            match &outcome {
                Ok(Err(e)) if e.is_transient() && attempt < TRANSIENT_ATTEMPTS => {
                    shared
                        .counters
                        .transient_retries
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                }
                _ => break outcome,
            }
        };
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => dataset.poison(e),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".into());
                dataset.poison(lsm_common::Error::invalid(format!(
                    "maintenance worker panicked: {msg}"
                )));
            }
        }
    }
    shared.finish_job(id, matches!(job, Job::Merge(_)));
    // Wake stalled writers after every job: flushes free memory, and a
    // poisoned dataset must fail fast rather than hang its writers.
    shared.notify_stalled();
    // Dropped LAST (after the in-flight bookkeeping): if this is the final
    // strong reference, `Dataset::drop` deregisters on this thread and must
    // see its own job already finished.
    drop(dataset);
}

fn run_job(ds: &Arc<Dataset>, shared: &Arc<RuntimeShared>, job: Job) -> Result<()> {
    // The dataset's own handle points at this runtime — jobs re-arm
    // through it so follow-up work lands on the same shared queue.
    let handle = ds
        .runtime_handle()
        .cloned()
        .ok_or_else(|| lsm_common::Error::invalid("dataset lost its runtime registration"))?;
    match job {
        Job::Flush => {
            shared.counters.flush_jobs.fetch_add(1, Ordering::Relaxed);
            let flushed = ds.flush_all()?;
            ds.stats().record_flush_job();
            shared.notify_stalled();
            // Flushes create merge work; enqueue it (deduped) rather than
            // blocking this worker's next flush on a long merge.
            ds.schedule_planned_merges(&handle);
            // Writers that raced past the budget while we flushed would
            // only re-trigger on their next write — but stalled writers
            // make no writes, so the flush job re-arms itself.
            if flushed
                && ds.mem_total_bytes() > ds.config().memory_budget
                && handle.schedule_flush()
            {
                ds.stats().bump(&ds.stats().jobs_enqueued);
            }
            Ok(())
        }
        Job::Merge(plan) => {
            shared.counters.merge_jobs.fetch_add(1, Ordering::Relaxed);
            ds.stats().record_merge_job();
            // Execute the planned merge (serialized by the dataset's merge
            // lock; a stale plan is skipped), then enqueue whatever the
            // policy calls for next — the queue converges to quiescence
            // one targeted job at a time instead of holding the merge lock
            // for a full cascade.
            ds.execute_merge_plan(&plan)?;
            ds.schedule_planned_merges(&handle);
            Ok(())
        }
    }
}

impl Dataset {
    pub(crate) fn maintenance_stats_refresh(&self) {
        if let Some(handle) = self.runtime_handle() {
            self.stats()
                .queue_depth
                .store(handle.queue_depth() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, SecondaryIndexDef, StrategyKind};
    use lsm_common::{FieldType, Record, Schema, Value};
    use lsm_storage::{Storage, StorageOptions};

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", FieldType::Int),
            ("location", FieldType::Str),
            ("time", FieldType::Int),
        ])
        .unwrap()
    }

    fn config(strategy: StrategyKind) -> DatasetConfig {
        let mut cfg = DatasetConfig::new(schema(), 0);
        cfg.strategy = strategy;
        cfg.secondary_indexes = vec![SecondaryIndexDef {
            name: "location".into(),
            field: 1,
        }];
        cfg.memory_budget = 32 * 1024;
        cfg
    }

    /// A dataset on its own two-worker runtime.
    fn open(storage: Arc<Storage>, strategy: StrategyKind) -> Arc<Dataset> {
        let rt = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
        Dataset::open_with_runtime(storage, None, config(strategy), &rt).unwrap()
    }

    fn rec(id: i64, loc: &str, time: i64) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::Str(loc.into()),
            Value::Int(time),
        ])
    }

    /// A workerless shared state plus a dataset to register under many
    /// ids — the deterministic harness for queue-order tests.
    fn bare_runtime(cfg: EngineConfig) -> (Arc<RuntimeShared>, Arc<Dataset>) {
        let shared = Arc::new(RuntimeShared::new(cfg));
        let ds = Dataset::open(
            Storage::new(StorageOptions::test()),
            None,
            DatasetConfig::new(schema(), 0),
        )
        .unwrap();
        (shared, ds)
    }

    fn plan(end: usize) -> MergePlan {
        MergePlan {
            target: crate::dataset::MergeTarget::Primary,
            range: lsm_tree::MergeRange { start: 0, end },
        }
    }

    fn pop(shared: &Arc<RuntimeShared>) -> Option<(u64, Job)> {
        let mut s = shared.state.lock();
        shared.try_pop_locked(&mut s).map(|(id, job, _)| (id, job))
    }

    #[test]
    fn background_mode_flushes_off_the_writer_path() {
        let ds = open(
            Storage::new(StorageOptions::test()),
            StrategyKind::Validation,
        );
        for i in 0..4000 {
            ds.insert(&rec(i, "CA", i)).unwrap();
        }
        ds.maintenance().quiesce().unwrap();
        let snap = ds.stats().snapshot();
        assert!(snap.flushes > 0, "background flushes ran");
        assert!(snap.flush_jobs > 0, "flush jobs recorded");
        assert!(snap.jobs_enqueued > 0, "jobs were enqueued");
        for i in [0, 1999, 3999] {
            assert!(ds.get(&Value::Int(i)).unwrap().is_some(), "id {i}");
        }
    }

    #[test]
    fn a_fixed_runtime_serves_its_dataset_until_dropped() {
        let rt = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
        let cfg = config(StrategyKind::Eager);
        let ds = Dataset::open_with_runtime(Storage::new(StorageOptions::test()), None, cfg, &rt)
            .unwrap();
        let stats = rt.stats();
        assert_eq!((stats.workers, stats.datasets), (2, 1));
        assert_eq!(Some(stats.per_dataset[0].dataset), ds.runtime_dataset_id());
        drop(ds);
        assert_eq!(rt.stats().datasets, 0, "a dropped dataset deregisters");
        let cfg = config(StrategyKind::Eager);
        let inline = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        assert_eq!(inline.runtime_dataset_id(), None);
    }

    #[test]
    fn flush_on_a_runtime_hands_follow_up_merges_to_the_workers() {
        let mut cfg = config(StrategyKind::Validation);
        cfg.memory_budget = usize::MAX; // only the explicit flushes below
        cfg.merge.max_mergeable_bytes = u64::MAX;
        let rt = MaintenanceRuntime::start(EngineConfig::fixed(1)).unwrap();
        let ds = Dataset::open_with_runtime(Storage::new(StorageOptions::test()), None, cfg, &rt)
            .unwrap();
        for round in 0..4 {
            for i in 0..200 {
                ds.upsert(&rec(i, "CA", round)).unwrap();
            }
            assert!(ds.maintenance().flush().unwrap());
        }
        ds.maintenance().quiesce().unwrap();
        let snap = ds.stats().snapshot();
        assert_eq!(snap.flushes, 4, "every flush ran on the caller");
        assert_eq!(snap.flush_jobs, 0, "no flush ran as a job");
        assert!(snap.merge_jobs > 0 && snap.merges > 0, "{snap:?}");
    }

    #[test]
    fn priority_queue_orders_flush_first_then_smallest_merge() {
        // Exercise the queue on a workerless shared state: jobs pushed in
        // "worst" order must pop flush-first, then merges smallest-first
        // (one dataset, so round-robin reduces to the intra-dataset order).
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let id = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_merge(id, plan(1), 900));
        assert!(shared.schedule_merge(id, plan(2), 100));
        assert!(shared.schedule_flush(id));
        assert!(shared.schedule_merge(id, plan(3), 500));

        let mut order = Vec::new();
        while let Some((id, job)) = pop(&shared) {
            shared.finish_job(id, matches!(job, Job::Merge(_)));
            order.push(job);
        }
        assert_eq!(
            order,
            vec![
                Job::Flush,
                Job::Merge(plan(2)),
                Job::Merge(plan(3)),
                Job::Merge(plan(1)),
            ]
        );
    }

    #[test]
    fn dedup_one_flush_job_at_a_time() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let id = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_flush(id));
        assert!(!shared.schedule_flush(id), "second flush deduped");
        assert!(shared.schedule_merge(id, plan(1), 10));
        assert!(
            !shared.schedule_merge(id, plan(1), 10),
            "same range deduped"
        );
        assert_eq!(shared.queue_depth_for(id), 2);
    }

    #[test]
    fn deregister_discards_queued_jobs() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let a = shared.register(Arc::downgrade(&ds));
        let b = shared.register(Arc::downgrade(&ds));
        shared.schedule_flush(a);
        shared.schedule_flush(b);
        shared.deregister(a);
        let popped = pop(&shared).unwrap();
        assert_eq!(popped.0, b, "only b's job survives");
        assert!(pop(&shared).is_none());
    }

    #[test]
    fn wait_idle_for_ignores_other_datasets_jobs() {
        // Workerless shared state: dataset b has a queued job forever, yet
        // waiting on a must return immediately (a hang fails the test run).
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let a = shared.register(Arc::downgrade(&ds));
        let b = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_flush(b));
        shared.wait_idle_for(a);
        assert_eq!(shared.queue_depth_for(b), 1, "b's job untouched");
    }

    #[test]
    fn flushes_round_robin_across_datasets() {
        // Three datasets each queue a flush; they must pop in registration
        // ring order regardless of enqueue interleaving, one per dataset.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let ids: Vec<u64> = (0..3)
            .map(|_| shared.register(Arc::downgrade(&ds)))
            .collect();
        shared.schedule_flush(ids[1]);
        shared.schedule_flush(ids[0]);
        shared.schedule_flush(ids[2]);
        let order: Vec<u64> = std::iter::from_fn(|| pop(&shared))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(order, vec![ids[1], ids[0], ids[2]], "FIFO across datasets");
    }

    #[test]
    fn merges_round_robin_across_datasets() {
        // Dataset a floods 3 small merges; dataset b has one large merge.
        // Global smallest-first would run ALL of a's merges before b's;
        // round-robin gives b the second turn.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let a = shared.register(Arc::downgrade(&ds));
        let b = shared.register(Arc::downgrade(&ds));
        for i in 1..=3 {
            assert!(shared.schedule_merge(a, plan(i), 50));
        }
        assert!(shared.schedule_merge(b, plan(9), 150));
        let mut order = Vec::new();
        while let Some((id, job)) = pop(&shared) {
            shared.finish_job(id, matches!(job, Job::Merge(_)));
            order.push(id);
        }
        assert_eq!(order, vec![a, b, a, a]);
    }

    #[test]
    fn one_merge_in_flight_per_dataset() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(4));
        let a = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_merge(a, plan(1), 30));
        assert!(shared.schedule_merge(a, plan(2), 10));
        assert!(shared.schedule_merge(a, plan(3), 20));
        // The smallest merge runs; the next stays queued even though two
        // more are queued and workers are free.
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(2)))));
        assert_eq!(pop(&shared), None, "a's merge is in flight");
        assert_eq!(shared.queue_depth_for(a), 2);
        // Finishing it releases the next-smallest.
        shared.finish_job(a, true);
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(3)))));
        assert_eq!(pop(&shared), None);
    }

    #[test]
    fn flush_pops_while_the_datasets_merge_is_in_flight() {
        // The priority-inversion regression: with a merge in flight, the
        // dataset's own flush must still run immediately — a stalled
        // writer is waiting on it, and making it queue out a long merge
        // would stall the writer with workers idle.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(4));
        let a = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_merge(a, plan(1), 10));
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(1)))));
        assert!(shared.schedule_flush(a));
        assert!(shared.schedule_merge(a, plan(2), 10));
        assert_eq!(
            pop(&shared),
            Some((a, Job::Flush)),
            "flush must not wait out the running merge"
        );
        assert_eq!(pop(&shared), None, "the second merge waits");
        shared.finish_job(a, true);
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(2)))));
    }

    #[test]
    fn busy_datasets_merge_turn_passes_to_the_next_dataset() {
        // a's merge is running; its next merge is skipped, and b's merge
        // pops at once instead of the worker waiting on a.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(4));
        let a = shared.register(Arc::downgrade(&ds));
        let b = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_merge(a, plan(1), 10));
        assert!(shared.schedule_merge(a, plan(2), 20));
        assert!(shared.schedule_merge(b, plan(3), 500));
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(1)))));
        assert_eq!(pop(&shared), Some((b, Job::Merge(plan(3)))));
        assert_eq!(pop(&shared), None, "both datasets have a merge in flight");
        shared.finish_job(b, true);
        assert_eq!(pop(&shared), None, "b's finish does not release a");
        shared.finish_job(a, true);
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(2)))));
    }

    #[test]
    fn a_finished_merge_is_found_past_busy_datasets() {
        // Three datasets, two merges each, one of each in flight. When only
        // the last dataset in the ring finishes, the next pop walks past the
        // two busy ones to it; the ring then serves the others in order.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(4));
        let ids: Vec<u64> = (0..3)
            .map(|_| shared.register(Arc::downgrade(&ds)))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert!(shared.schedule_merge(id, plan(10 * i + 1), 10));
            assert!(shared.schedule_merge(id, plan(10 * i + 2), 20));
        }
        let first: Vec<u64> = (0..3).map(|_| pop(&shared).unwrap().0).collect();
        assert_eq!(first, ids);
        assert_eq!(pop(&shared), None);
        shared.finish_job(ids[2], true);
        assert_eq!(pop(&shared), Some((ids[2], Job::Merge(plan(22)))));
        assert_eq!(pop(&shared), None);
        shared.finish_job(ids[0], true);
        shared.finish_job(ids[1], true);
        assert_eq!(pop(&shared), Some((ids[0], Job::Merge(plan(2)))));
        assert_eq!(pop(&shared), Some((ids[1], Job::Merge(plan(12)))));
        assert_eq!(pop(&shared), None);
    }

    #[test]
    fn equal_estimates_pop_in_enqueue_order() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let a = shared.register(Arc::downgrade(&ds));
        for end in [3, 1, 2] {
            assert!(shared.schedule_merge(a, plan(end), 64));
        }
        let mut order = Vec::new();
        while let Some((id, job)) = pop(&shared) {
            shared.finish_job(id, true);
            order.push(job);
        }
        assert_eq!(
            order,
            vec![
                Job::Merge(plan(3)),
                Job::Merge(plan(1)),
                Job::Merge(plan(2)),
            ],
            "FIFO within equal estimates"
        );
    }

    #[test]
    fn running_merge_can_be_requeued_but_waits_for_itself() {
        // The dedup key clears on pop, so work arriving while a merge runs
        // re-queues the same range; the copy pops only after the run ends.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(2));
        let a = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_merge(a, plan(1), 10));
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(1)))));
        assert!(shared.schedule_merge(a, plan(1), 10), "re-queued");
        assert!(!shared.schedule_merge(a, plan(1), 10), "deduped again");
        assert_eq!(pop(&shared), None);
        shared.finish_job(a, true);
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(1)))));
    }

    #[test]
    fn finishing_a_flush_does_not_release_the_merge_slot() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(4));
        let a = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_merge(a, plan(1), 10));
        assert!(shared.schedule_merge(a, plan(2), 20));
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(1)))));
        assert!(shared.schedule_flush(a));
        assert_eq!(pop(&shared), Some((a, Job::Flush)));
        shared.finish_job(a, false);
        assert_eq!(pop(&shared), None, "the merge is still in flight");
        shared.finish_job(a, true);
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(2)))));
    }

    #[test]
    fn deregister_drops_queued_merges_from_the_ring() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let a = shared.register(Arc::downgrade(&ds));
        let b = shared.register(Arc::downgrade(&ds));
        for i in 1..=3 {
            assert!(shared.schedule_merge(a, plan(i), 10));
        }
        assert!(shared.schedule_merge(b, plan(9), 10));
        shared.deregister(a);
        assert!(!shared.schedule_merge(a, plan(4), 10), "a is gone");
        assert_eq!(pop(&shared), Some((b, Job::Merge(plan(9)))));
        assert_eq!(pop(&shared), None);
        let s = shared.state.lock();
        assert_eq!(s.queued_total, 0);
        assert!(s.merge_ring.is_empty(), "a's stale ring slot was dropped");
    }

    #[test]
    fn finishing_a_deregistered_datasets_job_settles_the_counters() {
        // A dataset dropped while its merge runs: the worker's finish finds
        // no entry, yet the runtime's in-flight count must still fall so a
        // whole-runtime quiesce returns.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(2));
        let a = shared.register(Arc::downgrade(&ds));
        assert!(shared.schedule_merge(a, plan(1), 10));
        assert!(shared.schedule_merge(a, plan(2), 10));
        assert_eq!(pop(&shared), Some((a, Job::Merge(plan(1)))));
        shared.deregister(a);
        shared.finish_job(a, true);
        {
            let s = shared.state.lock();
            assert_eq!((s.queued_total, s.total_in_flight), (0, 0));
        }
        shared.wait_idle_all();
        shared.wait_idle_for(a);
        assert_eq!(pop(&shared), None);
    }

    #[test]
    fn stats_count_held_back_merges_as_queued() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(4));
        let rt = Arc::new(MaintenanceRuntime {
            shared: shared.clone(),
            workers: Mutex::new(Vec::new()),
        });
        let a = shared.register(Arc::downgrade(&ds));
        for i in 1..=3 {
            assert!(shared.schedule_merge(a, plan(i), 10));
        }
        assert!(pop(&shared).is_some());
        assert_eq!(pop(&shared), None);
        let stats = rt.stats();
        assert_eq!(
            (stats.queue_depth, stats.merge_queue_depth, stats.in_flight),
            (2, 2, 1)
        );
        let row = stats.per_dataset.iter().find(|d| d.dataset == a).unwrap();
        assert_eq!((row.queued, row.in_flight), (2, 1));
    }

    #[test]
    fn shutdown_refuses_new_jobs() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let a = shared.register(Arc::downgrade(&ds));
        shared.shutdown_and_join(Vec::new());
        assert!(!shared.schedule_flush(a));
        assert!(!shared.schedule_merge(a, plan(1), 10));
        assert_eq!(shared.queue_depth_for(a), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs_before_the_workers_exit() {
        // The flag is set before any worker starts, so every job below is
        // still queued at shutdown; the workers must pop each one before
        // they exit, or a whole-runtime quiesce would wait forever.
        let (shared, _ds) = bare_runtime(EngineConfig::fixed(2));
        let ids: Vec<u64> = (0..6).map(|_| shared.register(Weak::new())).collect();
        for &id in &ids {
            assert!(shared.schedule_flush(id));
            assert!(shared.schedule_merge(id, plan(1), 10));
        }
        shared.state.lock().shutdown = true;
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        shared.shutdown_and_join(workers);
        let s = shared.state.lock();
        assert_eq!((s.queued_total, s.total_in_flight), (0, 0));
        for id in &ids {
            let e = &s.datasets[id];
            assert_eq!((e.queued, e.in_flight, e.merge_in_flight), (0, 0, false));
        }
        assert!(s.flush_ring.is_empty() && s.merge_ring.is_empty());
    }

    #[test]
    fn workers_settle_jobs_whose_dataset_is_gone() {
        // A job outliving its dataset wakes a worker, runs nothing, and
        // still settles the counters, so quiesce returns.
        let rt = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
        let ids: Vec<u64> = (0..3).map(|_| rt.register(Weak::new())).collect();
        for &id in &ids {
            assert!(rt.shared.schedule_flush(id));
            assert!(rt.shared.schedule_merge(id, plan(1), 10));
            assert!(rt.shared.schedule_merge(id, plan(2), 20));
        }
        rt.quiesce();
        let stats = rt.stats();
        assert_eq!((stats.queue_depth, stats.in_flight), (0, 0), "{stats:?}");
        assert_eq!(stats.jobs_executed, 0, "no dataset to run them on");
        assert_eq!(stats.datasets, ids.len());
        assert!(stats.poisoned.is_empty());
    }

    #[test]
    fn quiet_datasets_flushes_complete_while_flood_still_queued() {
        // The deterministic fairness scenario at the queue level: one
        // flooding dataset enqueues 100 merges (and keeps a flush queued);
        // 9 quiet datasets each need a single flush. Simulate a 4-worker
        // pool: every quiet dataset's flush must be served while the flood
        // still has ≥ 90 merges queued.
        let (shared, ds) = bare_runtime(EngineConfig::fixed(4));
        let flood = shared.register(Arc::downgrade(&ds));
        for i in 1..=100 {
            assert!(shared.schedule_merge(flood, plan(i), 1024));
        }
        assert!(shared.schedule_flush(flood));
        let quiet: Vec<u64> = (0..9)
            .map(|_| shared.register(Arc::downgrade(&ds)))
            .collect();
        for &q in &quiet {
            assert!(shared.schedule_flush(q));
        }

        // Drive 4 simulated workers: pop up to 4 concurrent jobs, finish
        // them, repeat. Record the order datasets were served in.
        let mut served: Vec<(u64, Job)> = Vec::new();
        let mut rounds = 0;
        while served.iter().filter(|(id, _)| quiet.contains(id)).count() < quiet.len() {
            rounds += 1;
            assert!(rounds < 100, "fairness livelock: served {served:?}");
            let mut batch = Vec::new();
            for _ in 0..4 {
                if let Some((id, job)) = pop(&shared) {
                    batch.push((id, job));
                }
            }
            for (id, job) in &batch {
                shared.finish_job(*id, matches!(job, Job::Merge(_)));
            }
            served.extend(batch);
        }
        // Every quiet flush done; the flood has burned at most one merge
        // per round (one in flight), so ≥ 90 of its merges are still
        // queued.
        for &q in &quiet {
            assert!(
                served
                    .iter()
                    .any(|(id, job)| *id == q && *job == Job::Flush),
                "quiet dataset {q} never flushed"
            );
        }
        assert!(
            shared.queue_depth_for(flood) >= 90,
            "flood drained too fast: {} left",
            shared.queue_depth_for(flood)
        );
    }

    #[test]
    fn quiesce_waits_for_queue_drain() {
        let ds = open(Storage::new(StorageOptions::test()), StrategyKind::Eager);
        for i in 0..3000 {
            ds.insert(&rec(i, "NY", i)).unwrap();
        }
        ds.maintenance().quiesce().unwrap();
        let handle = ds.runtime_handle().unwrap();
        assert_eq!(handle.queue_depth(), 0);
    }

    #[test]
    fn drop_shuts_down_workers() {
        let ds = open(
            Storage::new(StorageOptions::test()),
            StrategyKind::Validation,
        );
        for i in 0..2000 {
            ds.insert(&rec(i, "CA", i)).unwrap();
        }
        drop(ds); // must not hang or leak panicking workers
    }

    #[test]
    fn poisoned_dataset_fails_next_write_and_is_listed() {
        let rt = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
        let storage = Storage::new(StorageOptions::test());
        let cfg = config(StrategyKind::Validation);
        let ds = Dataset::open_with_runtime(storage, None, cfg, &rt).unwrap();
        assert!(rt.stats().poisoned.is_empty());
        ds.poison(lsm_common::Error::invalid("simulated worker failure"));
        let err = ds.insert(&rec(1, "CA", 1)).unwrap_err();
        assert!(
            err.to_string().contains("simulated worker failure"),
            "{err}"
        );
        // Runtime-level aggregation: the stats snapshot lists the
        // poisoned dataset.
        let stats = rt.stats();
        // The listed id maps back to the handle via runtime_dataset_id().
        assert_eq!(stats.poisoned, vec![ds.runtime_dataset_id().unwrap()]);
        assert!(
            stats
                .per_dataset
                .iter()
                .any(|d| d.dataset == stats.poisoned[0] && d.poisoned),
            "{stats:?}"
        );
    }

    #[test]
    fn stats_split_queue_depth_by_class_and_dataset() {
        let (shared, ds) = bare_runtime(EngineConfig::fixed(1));
        let rt = Arc::new(MaintenanceRuntime {
            shared: shared.clone(),
            workers: Mutex::new(Vec::new()),
        });
        let a = shared.register(Arc::downgrade(&ds));
        let b = shared.register(Arc::downgrade(&ds));
        shared.schedule_flush(a);
        shared.schedule_merge(a, plan(1), 10);
        shared.schedule_merge(b, plan(2), 10);
        let stats = rt.stats();
        assert_eq!(stats.queue_depth, 3);
        assert_eq!(stats.flush_queue_depth, 1);
        assert_eq!(stats.merge_queue_depth, 2);
        let row_a = stats.per_dataset.iter().find(|d| d.dataset == a).unwrap();
        let row_b = stats.per_dataset.iter().find(|d| d.dataset == b).unwrap();
        assert_eq!((row_a.queued, row_a.in_flight), (2, 0));
        assert_eq!((row_b.queued, row_b.in_flight), (1, 0));
        // Popping moves a job from queued to in-flight.
        let (id, _) = pop(&shared).unwrap();
        assert_eq!(id, a, "flush class first");
        let stats = rt.stats();
        assert_eq!(stats.in_flight, 1);
        let row_a = stats.per_dataset.iter().find(|d| d.dataset == a).unwrap();
        assert_eq!((row_a.queued, row_a.in_flight), (1, 1));
    }

    /// Regression (transient faults poisoning datasets): a single
    /// transient I/O failure in a background flush used to poison the
    /// dataset permanently. Workers now retry transient failures in place
    /// — the flush is retry-safe (it resumes from its sealed snapshots) —
    /// and only poison on repeated or permanent errors.
    #[test]
    fn transient_flush_failure_is_retried_not_poisoned() {
        use lsm_storage::{FaultAction, FaultOp, FaultPlan, FaultSpec, FaultTrigger};
        let storage = Storage::new(StorageOptions::test());
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Append,
                index: 0,
            },
            action: FaultAction::TransientError,
        }]);
        storage.install_fault_plan(plan.clone());
        plan.arm();
        let rt = MaintenanceRuntime::start(EngineConfig::fixed(2)).unwrap();
        let cfg = config(StrategyKind::Validation);
        let ds = Dataset::open_with_runtime(storage, None, cfg, &rt).unwrap();
        // Trip the memory budget: the background flush's first append to
        // the data device fails transiently, once.
        for i in 0..4000 {
            ds.insert(&rec(i, "CA", i)).unwrap();
        }
        // quiesce() fails fast on a poisoned dataset.
        ds.maintenance().quiesce().unwrap();
        assert_eq!(plan.faults_injected(), 1, "the fault fired exactly once");
        let snap = ds.stats().snapshot();
        assert!(snap.flushes > 0, "the retried flush completed");
        assert_eq!(ds.storage().stats().faults_injected, 1);
        let stats = rt.stats();
        assert!(stats.transient_retries >= 1, "{stats:?}");
        assert!(stats.poisoned.is_empty(), "{stats:?}");
        for i in [0, 1999, 3999] {
            assert!(ds.get(&Value::Int(i)).unwrap().is_some(), "id {i}");
        }
    }
}
