//! The shared query worker pool behind
//! [`QueryBuilder::parallel`](crate::QueryBuilder::parallel).
//!
//! A [`QueryPool`] is a small fixed set of threads serving *partition
//! tasks*: one parallel query splits into `k` independent pieces
//! (per-partition secondary scans, per-chunk record fetches) and scatters
//! them over the pool with the crate-private `run_partitions` / `scatter`
//! helpers (a single piece runs inline on the caller). The calling
//! thread always
//! participates — it claims tasks from the same batch while pool workers
//! help — so a saturated (or absent) pool degrades to serial execution on
//! the caller rather than deadlocking, and a pool of `n` workers bounds a
//! whole engine's query parallelism at `n + callers` threads no matter how
//! many datasets issue parallel queries.

use crate::dataset::Dataset;
use lsm_common::Result;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type PoolTask = Box<dyn FnOnce() + Send>;

/// A partition task handed to [`scatter`]: runs on the pool or the caller
/// and yields one partition's result.
pub(crate) type TaskFn<T> = Box<dyn FnOnce() -> T + Send>;

#[derive(Default)]
struct PoolState {
    queue: std::collections::VecDeque<PoolTask>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

/// A fixed-size worker pool executing partition tasks for parallel
/// queries; see the module docs. Created by
/// [`MaintenanceRuntime::start`](crate::MaintenanceRuntime::start) when
/// [`EngineConfig::query_workers`](crate::EngineConfig) is non-zero.
pub struct QueryPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for QueryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPool")
            .field("workers", &self.workers.lock().len())
            .finish()
    }
}

impl QueryPool {
    /// Spawns a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lsm-query-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // INVARIANT: spawn fails only on OS thread exhaustion at
                    // startup; fatal by design, same policy as thread::spawn.
                    .expect("spawn query worker")
            })
            .collect();
        Arc::new(QueryPool {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.lock().len()
    }

    fn submit(&self, task: PoolTask) {
        {
            let mut s = self.shared.state.lock();
            if s.shutdown {
                return; // shutting down: the caller runs the task itself
            }
            s.queue.push_back(task);
        }
        self.shared.work_cv.notify_one();
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock();
            s.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        let task = {
            let mut s = shared.state.lock();
            loop {
                if let Some(t) = s.queue.pop_front() {
                    break Some(t);
                }
                if s.shutdown {
                    break None;
                }
                shared.work_cv.wait(&mut s);
            }
        };
        match task {
            Some(t) => t(),
            None => return,
        }
    }
}

/// One scattered batch: the tasks, their results, and completion tracking.
/// Workers and the caller both pull from `next`; whoever claims the last
/// index runs the last task.
struct Scatter<T> {
    tasks: Mutex<Vec<Option<TaskFn<T>>>>,
    next: AtomicUsize,
    results: Mutex<Vec<Option<T>>>,
    done: AtomicUsize,
    total: usize,
    done_lock: Mutex<bool>,
    done_cv: Condvar,
    /// First payload of a panicking task, re-raised on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<T: Send> Scatter<T> {
    /// Claims and runs one task; returns `false` when none remain.
    fn run_next(&self) -> bool {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.total {
            return false;
        }
        // INVARIANT: `next.fetch_add` hands out each in-range index exactly
        // once, and every slot started `Some` — no double claim is possible.
        let task = self.tasks.lock()[idx].take().expect("task claimed once");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        match outcome {
            Ok(value) => self.results.lock()[idx] = Some(value),
            Err(payload) => {
                let mut p = self.panic.lock();
                if p.is_none() {
                    *p = Some(payload);
                }
            }
        }
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            let mut flag = self.done_lock.lock();
            *flag = true;
            self.done_cv.notify_all();
        }
        true
    }

    fn wait_done(&self) {
        let mut flag = self.done_lock.lock();
        while !*flag {
            self.done_cv.wait(&mut flag);
        }
    }
}

/// Runs `tasks` concurrently and returns their results in task order.
///
/// With a pool, the tasks are offered to its workers AND executed by the
/// caller (whoever claims first wins); without one, ephemeral threads are
/// spawned — at most `tasks.len() - 1`, since the caller participates. A
/// panicking task is re-raised on the caller after the batch completes.
pub(crate) fn scatter<T: Send + 'static>(
    pool: Option<&Arc<QueryPool>>,
    tasks: Vec<TaskFn<T>>,
) -> Vec<T> {
    let total = tasks.len();
    if total == 0 {
        return Vec::new();
    }
    let mut results = Vec::with_capacity(total);
    results.resize_with(total, || None);
    let shared = Arc::new(Scatter {
        tasks: Mutex::new(tasks.into_iter().map(Some).collect()),
        next: AtomicUsize::new(0),
        results: Mutex::new(results),
        done: AtomicUsize::new(0),
        total,
        done_lock: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });

    let mut ephemeral: Vec<JoinHandle<()>> = Vec::new();
    match pool {
        Some(pool) => {
            // No point queueing more drain-helpers than the pool has
            // workers: extras could only no-op later, polluting the queue
            // for subsequent batches.
            for _ in 0..(total - 1).min(pool.workers()) {
                let shared = shared.clone();
                pool.submit(Box::new(move || while shared.run_next() {}));
            }
        }
        None => {
            for _ in 0..total - 1 {
                let shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("lsm-query-ephemeral".into())
                    .spawn(move || while shared.run_next() {});
                match spawned {
                    Ok(h) => ephemeral.push(h),
                    Err(_) => break, // thread limit: the caller drains alone
                }
            }
        }
    }
    // The caller participates, so the batch finishes even if every helper
    // is busy elsewhere (or none could be spawned).
    while shared.run_next() {}
    shared.wait_done();
    for h in ephemeral {
        let _ = h.join();
    }
    if let Some(payload) = shared.panic.lock().take() {
        std::panic::resume_unwind(payload);
    }
    let mut results = shared.results.lock();
    results
        .iter_mut()
        // INVARIANT: every worker was joined above, so each claimed task
        // either stored its result or re-raised its panic before this line.
        .map(|slot| slot.take().expect("completed task has a result"))
        .collect()
}

/// Runs `body` once per partition and returns the results in partition
/// order. A single partition runs inline on the caller — no `Arc` upgrade,
/// no boxing, no synchronization — so an un-partitioned read *is* the
/// one-partition case of this function; several are scattered over the
/// dataset's query pool (ephemeral threads when it has none).
pub(crate) fn run_partitions<P, T>(
    ds: &Dataset,
    parts: Vec<P>,
    body: impl Fn(&Dataset, P) -> T + Send + Sync + 'static,
) -> Result<Vec<T>>
where
    P: Send + 'static,
    T: Send + 'static,
{
    if parts.len() <= 1 {
        return Ok(parts.into_iter().map(|p| body(ds, p)).collect());
    }
    let ds = ds.shared()?;
    let body = Arc::new(body);
    let tasks = parts
        .into_iter()
        .map(|p| {
            let (ds, body) = (ds.clone(), body.clone());
            Box::new(move || body(&ds, p)) as TaskFn<T>
        })
        .collect();
    Ok(scatter(ds.query_pool().as_ref(), tasks))
}

/// Appends one partition's output to the concatenated result, adopting its
/// buffer while the result is still empty — the single-partition case
/// copies nothing.
pub(crate) fn append<T>(all: &mut Vec<T>, part: Vec<T>) {
    if all.is_empty() {
        *all = part;
    } else {
        all.extend(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_without_pool_runs_every_task() {
        let out = scatter::<usize>(
            None,
            (0..7usize)
                .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
                .collect(),
        );
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12]);
        assert!(scatter::<usize>(None, Vec::new()).is_empty());
    }

    #[test]
    fn scatter_runs_a_single_task_on_the_caller() {
        // The caller participates, so one task needs no helper thread.
        let caller = std::thread::current().id();
        let out =
            scatter::<std::thread::ThreadId>(None, vec![Box::new(|| std::thread::current().id())]);
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn scatter_on_pool_runs_every_task_and_pool_survives() {
        let pool = QueryPool::new(2);
        assert_eq!(pool.workers(), 2);
        for round in 0..3 {
            let out = scatter::<usize>(
                Some(&pool),
                (0..5usize)
                    .map(|i| Box::new(move || i + round) as Box<dyn FnOnce() -> usize + Send>)
                    .collect(),
            );
            assert_eq!(out, (0..5).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scatter_propagates_panics() {
        let pool = QueryPool::new(1);
        let result = std::panic::catch_unwind(|| {
            scatter::<usize>(
                Some(&pool),
                vec![
                    Box::new(|| 1),
                    Box::new(|| panic!("partition failed")),
                    Box::new(|| 3),
                ],
            )
        });
        assert!(result.is_err());
        // The pool is still usable after a panicking batch.
        let out = scatter::<usize>(Some(&pool), vec![Box::new(|| 42)]);
        assert_eq!(out, vec![42]);
    }
}
