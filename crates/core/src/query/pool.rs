//! The partition executor behind
//! [`QueryBuilder::parallel`](crate::QueryBuilder::parallel) and
//! [`FilterScanBuilder::parallel`](crate::FilterScanBuilder::parallel).
//!
//! One read splits into `k` independent *partitions* (per-partition
//! secondary scans, per-chunk record fetches, filter-scan sub-ranges) and
//! runs them with [`run_partitions`]. A single partition runs inline on the
//! caller. Several run on threads the query owns: partition 0 on the
//! caller, the other `k − 1` on scoped helper threads that borrow the
//! query's state and are joined before the call returns. The engine keeps
//! no query threads between calls.

use crate::dataset::Dataset;
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Runs `body` once per partition and returns the results in partition
/// order. A single partition runs inline on the caller — no thread, no
/// boxing, no synchronization — so an un-partitioned read *is* the
/// one-partition case of this function. With `k > 1` partitions the caller
/// runs partition 0 and spawns one scoped helper for each other partition.
///
/// A helper that cannot be spawned (thread limit) is not an error: the
/// caller runs that partition itself after its own. A panicking partition
/// does not cut the others short: every partition runs to completion, and
/// then the first panic in partition order is re-raised on the caller.
pub(crate) fn run_partitions<P, T>(
    ds: &Dataset,
    parts: Vec<P>,
    body: impl Fn(&Dataset, P) -> T + Sync,
) -> Vec<T>
where
    P: Send,
    T: Send,
{
    if parts.len() <= 1 {
        return parts.into_iter().map(|p| body(ds, p)).collect();
    }
    // A part waits in its slot so that a helper that was never spawned
    // leaves it behind for the caller.
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let run = |i: usize| {
        // INVARIANT: slot `i` is taken once — by its helper, or by the
        // caller when that helper was never spawned.
        let part = slots[i].lock().take().expect("partition taken once");
        catch_unwind(AssertUnwindSafe(|| body(ds, part)))
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..slots.len())
            .map(|i| {
                std::thread::Builder::new()
                    .name("lsm-query".into())
                    .spawn_scoped(scope, move || run(i))
            })
            .collect();
        let mut outcomes = Vec::with_capacity(slots.len());
        outcomes.push(run(0));
        // A partition whose helper failed to spawn runs here, after the
        // caller's own; then the helpers are joined in partition order.
        let helpers: Vec<_> = (helpers.into_iter().enumerate())
            .map(|(j, helper)| helper.map_err(|_| run(j + 1)))
            .collect();
        outcomes.extend(helpers.into_iter().map(|helper| match helper {
            Ok(handle) => handle.join().unwrap_or_else(Err),
            Err(stranded) => stranded,
        }));
        outcomes
    });
    outcomes
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|panic| resume_unwind(panic)))
        .collect()
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
    use crate::DatasetConfig;
    use lsm_common::{FieldType, Schema};
    use lsm_storage::{Storage, StorageOptions};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn dataset() -> Arc<Dataset> {
        let schema = Schema::new(vec![("id", FieldType::Int)]).unwrap();
        let cfg = DatasetConfig::new(schema, 0);
        Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
    }

    #[test]
    fn results_come_back_in_partition_order() {
        let ds = dataset();
        for k in [1usize, 2, 7] {
            let parts: Vec<usize> = (0..k).collect();
            let out = run_partitions(&ds, parts, |_, i| i * 10);
            assert_eq!(out, (0..k).map(|i| i * 10).collect::<Vec<_>>(), "k = {k}");
        }
        assert!(run_partitions(&ds, Vec::<usize>::new(), |_, i| i).is_empty());
    }

    #[test]
    fn partition_zero_runs_on_the_caller_and_the_rest_on_helpers() {
        let ds = dataset();
        let caller = std::thread::current().id();
        let one = run_partitions(&ds, vec![()], |_, ()| std::thread::current().id());
        assert_eq!(one, vec![caller], "a single partition runs inline");
        let ids = run_partitions(&ds, vec![(); 4], |_, ()| std::thread::current().id());
        assert_eq!(ids[0], caller);
        let helpers: std::collections::HashSet<_> = ids[1..].iter().collect();
        assert_eq!(helpers.len(), 3, "one helper per other partition: {ids:?}");
        assert!(!helpers.contains(&caller));
    }

    #[test]
    fn a_panic_is_raised_after_every_other_partition_ran() {
        let ds = dataset();
        for panicking in [0usize, 2] {
            // The other partitions finish only after the panic has begun.
            let panic_started = AtomicBool::new(false);
            let finished = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_partitions(&ds, (0..5).collect(), |_, i: usize| {
                    if i == panicking {
                        panic_started.store(true, Ordering::SeqCst);
                        panic!("partition {i} failed");
                    }
                    while !panic_started.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let payload = result.expect_err("the panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, format!("partition {panicking} failed"));
            assert_eq!(
                finished.load(Ordering::SeqCst),
                4,
                "panicking = {panicking}"
            );
        }
    }
}
