//! Component IDs: `(minTS, maxTS)` timestamp intervals.
//!
//! Each component is identified by the minimum and maximum ingestion
//! timestamps of the entries it holds (Section 3). IDs let the engine infer
//! recency ordering *across different indexes of the same dataset* — e.g.
//! that component 1-15 of a secondary index overlaps components 1-10 and
//! 11-15 of the primary index — which drives repair pruning (Section 4.4)
//! and the component-ID-propagation lookup optimization.

use lsm_common::Timestamp;
use std::fmt;

/// A `(minTS, maxTS)` interval, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId {
    /// Timestamp of the oldest entry.
    pub min_ts: Timestamp,
    /// Timestamp of the newest entry.
    pub max_ts: Timestamp,
}

impl ComponentId {
    /// Creates an ID; `min_ts` must not exceed `max_ts`.
    pub fn new(min_ts: Timestamp, max_ts: Timestamp) -> Self {
        assert!(min_ts <= max_ts, "invalid component id {min_ts}-{max_ts}");
        ComponentId { min_ts, max_ts }
    }

    /// The ID of a component formed by merging components with these IDs.
    pub fn merged(ids: impl IntoIterator<Item = ComponentId>) -> Option<ComponentId> {
        let mut out: Option<ComponentId> = None;
        for id in ids {
            out = Some(match out {
                None => id,
                Some(o) => ComponentId {
                    min_ts: o.min_ts.min(id.min_ts),
                    max_ts: o.max_ts.max(id.max_ts),
                },
            });
        }
        out
    }

    /// True if the two intervals intersect.
    pub fn overlaps(&self, other: &ComponentId) -> bool {
        self.min_ts <= other.max_ts && other.min_ts <= self.max_ts
    }

    /// True if the whole interval is at or before `ts`.
    pub fn at_or_before(&self, ts: Timestamp) -> bool {
        self.max_ts <= ts
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.min_ts, self.max_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_semantics() {
        let a = ComponentId::new(1, 10);
        let b = ComponentId::new(11, 15);
        let c = ComponentId::new(1, 15);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(a.overlaps(&a));
        // Touching endpoints overlap (inclusive intervals).
        assert!(ComponentId::new(1, 5).overlaps(&ComponentId::new(5, 9)));
    }

    #[test]
    fn recency_ordering() {
        let old = ComponentId::new(1, 15);
        let new = ComponentId::new(16, 18);
        assert!(old.at_or_before(15));
        assert!(!new.at_or_before(15), "the newer component postdates 15");
        assert!(new.at_or_before(18));
    }

    #[test]
    fn merged_spans_inputs() {
        let m = ComponentId::merged([
            ComponentId::new(11, 15),
            ComponentId::new(1, 10),
            ComponentId::new(16, 18),
        ])
        .unwrap();
        assert_eq!(m, ComponentId::new(1, 18));
        assert!(ComponentId::merged([]).is_none());
    }

    #[test]
    fn pruning_predicate() {
        // Repair prunes primary-key-index components with maxTS <= repairedTS.
        let repaired_ts = 15;
        assert!(ComponentId::new(1, 10).at_or_before(repaired_ts));
        assert!(ComponentId::new(11, 15).at_or_before(repaired_ts));
        assert!(!ComponentId::new(11, 18).at_or_before(repaired_ts));
    }

    #[test]
    #[should_panic(expected = "invalid component id")]
    fn rejects_inverted_interval() {
        let _ = ComponentId::new(5, 1);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ComponentId::new(1, 15).to_string(), "1-15");
    }
}
