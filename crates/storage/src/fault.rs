//! Deterministic fault injection for the simulated storage layer.
//!
//! A [`FaultPlan`] is a small script of failures installed on one or more
//! [`Storage`](crate::Storage) devices (data and WAL devices usually share
//! one plan so counters line up). Each scripted fault names a *trigger* —
//! the N-th operation of a class ([`FaultTrigger::OpIndex`]) or the N-th
//! passage through a named crash site ([`FaultTrigger::Site`]) — and an
//! *action*: fail transiently or permanently, tear or short-write the page
//! being appended, or simulate a power cut ([`FaultAction::Crash`]).
//!
//! Everything is counted with plain atomics and fires while the plan is
//! *armed*, so a single-threaded trigger phase produces a byte-identical
//! fault schedule on every run with the same plan — the property the
//! `lsm-torture` harness builds its seed-replay workflow on. Every fired
//! fault is appended to an event log ([`FaultPlan::events`]) that replays
//! can compare verbatim.

use lsm_common::Error;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The storage operation classes a fault trigger can count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// [`Storage::append_page`](crate::Storage::append_page).
    Append,
    /// [`Storage::read_page`](crate::Storage::read_page) and each
    /// [`Storage::read_pages`](crate::Storage::read_pages) burst (one count
    /// per call).
    Read,
    /// [`Storage::delete_file`](crate::Storage::delete_file).
    Delete,
}

impl FaultOp {
    fn idx(self) -> usize {
        match self {
            FaultOp::Append => 0,
            FaultOp::Read => 1,
            FaultOp::Delete => 2,
        }
    }

    /// Short name used in the event log.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Append => "append",
            FaultOp::Read => "read",
            FaultOp::Delete => "delete",
        }
    }
}

/// What happens when a trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with [`Error::TransientIo`]: a retry may succeed.
    TransientError,
    /// Fail the operation with [`Error::Storage`]: retries keep failing the
    /// caller's view of the op, though the fault itself fires only once.
    PermanentError,
    /// The append "succeeds" but only the first `keep_bytes` bytes reach
    /// the platter; the rest of the page reads back as zeroes (a torn
    /// page). The caller sees `Ok`, exactly like a real torn write that is
    /// only discovered after the crash.
    TornWrite {
        /// Bytes that survive at the front of the page.
        keep_bytes: usize,
    },
    /// The append lands truncated to `keep_bytes` bytes (a short write):
    /// the page exists but is shorter than requested. The caller sees `Ok`.
    ShortWrite {
        /// Bytes actually appended.
        keep_bytes: usize,
    },
    /// Simulated power cut: the operation fails with a crash-marker
    /// [`Error::Storage`] and [`FaultPlan::crash_fired`] latches so a
    /// harness knows to run crash recovery.
    Crash,
}

impl FaultAction {
    fn describe(self) -> String {
        match self {
            FaultAction::TransientError => "transient".into(),
            FaultAction::PermanentError => "permanent".into(),
            FaultAction::TornWrite { keep_bytes } => format!("torn({keep_bytes})"),
            FaultAction::ShortWrite { keep_bytes } => format!("short({keep_bytes})"),
            FaultAction::Crash => "crash".into(),
        }
    }
}

/// When a scripted fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The `index`-th (0-based) operation of class `op` counted across all
    /// devices the plan is installed on, from the moment the plan is armed.
    OpIndex {
        /// Operation class counted.
        op: FaultOp,
        /// 0-based index of the matching operation.
        index: u64,
    },
    /// The `hit`-th (0-based) passage through the crash site named `name`
    /// (e.g. `"wal_append"`, `"flush_install"`, `"merge_install"`,
    /// `"checkpoint"`) while the plan is armed.
    Site {
        /// Crash-site name as instrumented in the engine.
        name: String,
        /// 0-based passage count at which to fire.
        hit: u64,
    },
}

/// One scripted fault: a trigger plus the action it fires. Each spec fires
/// at most once per plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What to do.
    pub action: FaultAction,
}

/// Outcome of probing a crash site against the installed plan.
#[derive(Debug)]
pub enum SiteOutcome {
    /// No plan installed, or the plan is disarmed.
    Unarmed,
    /// The plan is armed but this passage fired nothing.
    Armed,
    /// The passage fired: the caller must propagate the error.
    Fired(Error),
}

/// A deterministic fault script. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    fired: Vec<AtomicBool>,
    armed: AtomicBool,
    op_counts: [AtomicU64; 3],
    site_counts: Mutex<std::collections::HashMap<String, u64>>,
    crash_fired: AtomicBool,
    faults_injected: AtomicU64,
    events: Mutex<Vec<String>>,
}

impl FaultPlan {
    /// Builds a plan from its scripted faults. The plan starts *disarmed*;
    /// call [`FaultPlan::arm`] around the phase that should be subject to
    /// faults (arming late keeps op indices deterministic when background
    /// threads are active earlier).
    pub fn new(specs: Vec<FaultSpec>) -> Arc<Self> {
        let fired = specs.iter().map(|_| AtomicBool::new(false)).collect();
        Arc::new(FaultPlan {
            specs,
            fired,
            ..Default::default()
        })
    }

    /// Starts counting operations and firing faults.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops counting and firing (already-latched state is kept).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// True while armed.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// True once a [`FaultAction::Crash`] fired.
    pub fn crash_fired(&self) -> bool {
        self.crash_fired.load(Ordering::SeqCst)
    }

    /// Number of faults this plan has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::SeqCst)
    }

    /// The ordered log of fired faults, e.g. `["append#3 -> transient",
    /// "site:flush_install#0 -> crash"]`. Two runs of the same plan over
    /// the same deterministic phase produce identical logs.
    pub fn events(&self) -> Vec<String> {
        self.events.lock().clone()
    }

    fn fire(&self, desc: &str, slot: usize) -> FaultAction {
        let action = self.specs[slot].action;
        self.faults_injected.fetch_add(1, Ordering::SeqCst);
        if matches!(action, FaultAction::Crash) {
            self.crash_fired.store(true, Ordering::SeqCst);
        }
        self.events
            .lock()
            .push(format!("{desc} -> {}", action.describe()));
        action
    }

    /// Counts one operation of class `op` and returns the action to apply,
    /// if a spec fires. Returns `None` when disarmed.
    pub fn on_op(&self, op: FaultOp) -> Option<FaultAction> {
        if !self.is_armed() {
            return None;
        }
        let index = self.op_counts[op.idx()].fetch_add(1, Ordering::SeqCst);
        for (i, spec) in self.specs.iter().enumerate() {
            if let FaultTrigger::OpIndex { op: o, index: n } = spec.trigger {
                if o == op && n == index && !self.fired[i].swap(true, Ordering::SeqCst) {
                    return Some(self.fire(&format!("{}#{index}", op.name()), i));
                }
            }
        }
        None
    }

    /// Counts one passage through the crash site `name` and returns the
    /// action to apply, if a spec fires. Returns `None` when disarmed (the
    /// passage is then not counted).
    pub fn on_site(&self, name: &str) -> Option<FaultAction> {
        if !self.is_armed() {
            return None;
        }
        let hit = {
            let mut sites = self.site_counts.lock();
            let c = sites.entry(name.to_string()).or_insert(0);
            let h = *c;
            *c += 1;
            h
        };
        for (i, spec) in self.specs.iter().enumerate() {
            if let FaultTrigger::Site { name: n, hit: h } = &spec.trigger {
                if n == name && *h == hit && !self.fired[i].swap(true, Ordering::SeqCst) {
                    return Some(self.fire(&format!("site:{name}#{hit}"), i));
                }
            }
        }
        None
    }

    /// Builds the error for an error-like action fired at `what`.
    pub fn action_error(action: FaultAction, what: &str) -> Error {
        match action {
            FaultAction::TransientError => {
                Error::transient_io(format!("injected transient fault at {what}"))
            }
            FaultAction::Crash => Error::Storage(format!("injected crash at {what}")),
            _ => Error::Storage(format!("injected fault at {what}")),
        }
    }
}

/// Expands to a crash-site probe against `$storage` (anything with a
/// `probe_crash_site(&str) -> SiteOutcome` method, i.e. a
/// [`Storage`](crate::Storage)), returning early with the injected error
/// when the site fires. Use plain
/// [`Storage::probe_crash_site`](crate::Storage::probe_crash_site) when the
/// armed/hit outcome needs to feed per-engine counters.
#[macro_export]
macro_rules! crash_site {
    ($storage:expr, $name:expr) => {
        if let $crate::fault::SiteOutcome::Fired(e) = $storage.probe_crash_site($name) {
            return Err(e);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_counts_nothing() {
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Append,
                index: 0,
            },
            action: FaultAction::TransientError,
        }]);
        assert!(plan.on_op(FaultOp::Append).is_none());
        plan.arm();
        assert!(matches!(
            plan.on_op(FaultOp::Append),
            Some(FaultAction::TransientError)
        ));
        // Latched: the spec does not fire twice.
        assert!(plan.on_op(FaultOp::Append).is_none());
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn op_index_counts_from_arming() {
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Read,
                index: 2,
            },
            action: FaultAction::PermanentError,
        }]);
        plan.arm();
        assert!(plan.on_op(FaultOp::Read).is_none()); // #0
        assert!(plan.on_op(FaultOp::Append).is_none()); // different class
        assert!(plan.on_op(FaultOp::Read).is_none()); // #1
        assert!(matches!(
            plan.on_op(FaultOp::Read),
            Some(FaultAction::PermanentError)
        )); // #2
    }

    #[test]
    fn site_trigger_fires_on_nth_hit_and_latches_crash() {
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::Site {
                name: "flush_install".into(),
                hit: 1,
            },
            action: FaultAction::Crash,
        }]);
        plan.arm();
        assert!(plan.on_site("flush_install").is_none()); // hit 0
        assert!(plan.on_site("merge_install").is_none()); // other site
        assert!(matches!(
            plan.on_site("flush_install"),
            Some(FaultAction::Crash)
        )); // hit 1
        assert!(plan.crash_fired());
        assert_eq!(plan.events(), vec!["site:flush_install#1 -> crash"]);
    }

    #[test]
    fn event_log_is_deterministic_across_identical_runs() {
        let run = || {
            let plan = FaultPlan::new(vec![
                FaultSpec {
                    trigger: FaultTrigger::OpIndex {
                        op: FaultOp::Append,
                        index: 1,
                    },
                    action: FaultAction::TornWrite { keep_bytes: 7 },
                },
                FaultSpec {
                    trigger: FaultTrigger::Site {
                        name: "checkpoint".into(),
                        hit: 0,
                    },
                    action: FaultAction::TransientError,
                },
            ]);
            plan.arm();
            for _ in 0..3 {
                plan.on_op(FaultOp::Append);
            }
            plan.on_site("checkpoint");
            plan.events()
        };
        assert_eq!(run(), run());
    }
}
