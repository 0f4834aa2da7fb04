//! Merge policies (Section 2.1, Section 6.1).
//!
//! The experiments use a **tiering** policy with size ratio 1.2 and a
//! maximum mergeable component size (1GB in the paper, scaled here): a
//! sequence of components is merged when the total size of the younger
//! components exceeds `ratio ×` the size of the oldest component in the
//! sequence; components larger than the cap are never merged again, so big
//! components accumulate over the experiment — which is exactly the effect
//! the paper wants to measure.
//!
//! Tiering is the only policy the engine builds; the [`MergePolicy`] trait
//! stays so tests can substitute their own. The dataset-level *correlated*
//! policy (Sections 4.4, 5.1) is implemented in the engine by applying one
//! index's decision to all indexes of a dataset.

/// A merge decision: merge components `start..=end` (indices into an
/// oldest-first size list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRange {
    /// Oldest component index (oldest-first ordering).
    pub start: usize,
    /// Newest component index, inclusive.
    pub end: usize,
}

/// Selects which disk components to merge, given their sizes oldest-first.
pub trait MergePolicy: Send + Sync {
    /// Returns the range to merge, or `None` if no merge is needed.
    fn select(&self, sizes_oldest_first: &[u64]) -> Option<MergeRange>;
}

/// Tiering ("prefix") merge policy with a size ratio and a mergeable cap.
#[derive(Debug, Clone)]
pub struct TieringPolicy {
    /// A sequence merges when younger components total more than
    /// `size_ratio ×` the oldest component of the sequence (1.2 in §6.1).
    pub size_ratio: f64,
    /// Components at least this large are never merged again (1GB in §6.1).
    pub max_mergeable_bytes: u64,
}

impl TieringPolicy {
    /// The paper's configuration: ratio 1.2, with a scaled component cap.
    pub fn new(max_mergeable_bytes: u64) -> Self {
        TieringPolicy {
            size_ratio: 1.2,
            max_mergeable_bytes,
        }
    }
}

impl MergePolicy for TieringPolicy {
    fn select(&self, sizes: &[u64]) -> Option<MergeRange> {
        let n = sizes.len();
        for start in 0..n.saturating_sub(1) {
            let oldest = sizes[start];
            if oldest >= self.max_mergeable_bytes {
                continue; // frozen: too large to merge again
            }
            // All components younger than `start` are candidates (they are
            // newer, hence smaller than the cap unless a huge flush
            // happened; skip the sequence if any is frozen).
            if sizes[start + 1..]
                .iter()
                .any(|&s| s >= self.max_mergeable_bytes)
            {
                continue;
            }
            // `start < n - 1`, so every sequence holds at least two
            // components.
            let younger: u64 = sizes[start + 1..].iter().sum();
            if younger as f64 >= self.size_ratio * oldest as f64 {
                return Some(MergeRange { start, end: n - 1 });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiering_triggers_when_younger_outweigh_oldest() {
        let p = TieringPolicy::new(u64::MAX);
        // Younger total 30 >= 1.2 * 20 → merge everything.
        assert_eq!(
            p.select(&[20, 10, 10, 10]),
            Some(MergeRange { start: 0, end: 3 })
        );
        // Younger total 10 < 1.2 * 20 → but suffix [10, 10]... the second
        // sequence: younger 10 < 1.2*10=12 → no merge anywhere.
        assert_eq!(p.select(&[20, 10]), None);
        // Equal pair: 10 < 12 → no. Triple: 20 >= 12 → merge from idx 0.
        assert_eq!(p.select(&[10, 10]), None);
        assert_eq!(
            p.select(&[10, 10, 10]),
            Some(MergeRange { start: 0, end: 2 })
        );
    }

    #[test]
    fn tiering_skips_frozen_components() {
        let p = TieringPolicy::new(100);
        // Component 0 is frozen (>= cap); the suffix [30, 20, 20] merges
        // from index 1: younger 40 >= 1.2*30.
        assert_eq!(
            p.select(&[500, 30, 20, 20]),
            Some(MergeRange { start: 1, end: 3 })
        );
        // Frozen component in the middle blocks sequences that include it.
        assert_eq!(p.select(&[30, 500, 20]), None);
    }

    #[test]
    fn tiering_needs_two_components() {
        let p = TieringPolicy::new(u64::MAX);
        assert_eq!(p.select(&[10]), None);
        assert_eq!(p.select(&[]), None);
    }

    #[test]
    fn tiering_simulates_component_accumulation() {
        // Simulate repeated flushes of 10 units with a cap of 100: merged
        // components grow until they freeze, then new runs accumulate —
        // reproducing the paper's "components accumulate" setup.
        let p = TieringPolicy::new(100);
        let mut sizes: Vec<u64> = Vec::new();
        let mut frozen_seen = 0;
        for _ in 0..100 {
            sizes.push(10); // flush appends the newest (rightmost)
            while let Some(r) = p.select(&sizes) {
                let merged: u64 = sizes[r.start..=r.end].iter().sum();
                sizes.splice(r.start..=r.end, [merged]);
            }
            frozen_seen = frozen_seen.max(sizes.iter().filter(|&&s| s >= 100).count());
        }
        assert!(frozen_seen >= 2, "expected frozen components to accumulate");
        assert!(sizes.iter().filter(|&&s| s >= 100).count() >= 2);
    }
}
