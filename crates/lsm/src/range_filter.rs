//! Component range filters (Section 3, Section 5).
//!
//! A range filter stores the minimum and maximum values of a designated
//! *filter key* (the paper's `creation_time`) over a component's records. A
//! scan with a predicate on the filter key prunes components whose filter
//! interval is disjoint from the query interval.
//!
//! How filters are *maintained* under updates is precisely what
//! distinguishes the maintenance strategies (Figures 3, 4, 9): the Eager
//! strategy widens the memory component's filter by old records' values; the
//! Validation strategy widens by new values only but loses pruning power on
//! old components; the Mutable-bitmap strategy keeps filters tight because
//! deletions act directly on old components through bitmaps.

use lsm_common::Value;

/// A closed interval `[min, max]` of filter-key values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeFilter {
    min: Value,
    max: Value,
}

impl RangeFilter {
    /// Creates a filter covering exactly `v`.
    pub fn of(v: Value) -> Self {
        RangeFilter {
            min: v.clone(),
            max: v,
        }
    }

    /// Creates a filter from explicit bounds (`min <= max`).
    pub fn new(min: Value, max: Value) -> Self {
        assert!(min <= max, "inverted range filter");
        RangeFilter { min, max }
    }

    /// Lower bound.
    pub fn min(&self) -> &Value {
        &self.min
    }

    /// Upper bound.
    pub fn max(&self) -> &Value {
        &self.max
    }

    /// Widens the interval to include `v`.
    pub(crate) fn widen(&mut self, v: &Value) {
        if *v < self.min {
            self.min = v.clone();
        }
        if *v > self.max {
            self.max = v.clone();
        }
    }

    /// Widens the interval to include all of `other`.
    pub(crate) fn union(&mut self, other: &RangeFilter) {
        self.widen(&other.min.clone());
        self.widen(&other.max.clone());
    }

    /// True if `[lo, hi]` (either bound optional) intersects this filter.
    /// A scan prunes the component when this returns `false`.
    pub fn overlaps(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        if let Some(lo) = lo {
            if *lo > self.max {
                return false;
            }
        }
        if let Some(hi) = hi {
            if *hi < self.min {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn of_and_widen() {
        let mut f = RangeFilter::of(v(2015));
        assert_eq!(f.min(), &v(2015));
        assert_eq!(f.max(), &v(2015));
        f.widen(&v(2018));
        f.widen(&v(2016)); // inside: no change
        assert_eq!(f.min(), &v(2015));
        assert_eq!(f.max(), &v(2018));
        f.widen(&v(2010));
        assert_eq!(f.min(), &v(2010));
    }

    #[test]
    fn overlap_pruning() {
        let f = RangeFilter::new(v(2015), v(2016));
        // Query: time < 2017  → [None, 2016]... intersects.
        assert!(f.overlaps(None, Some(&v(2016))));
        // Query: time > 2017 → [2017, None] ... disjoint, prune.
        assert!(!f.overlaps(Some(&v(2017)), None));
        // Touching bounds intersect.
        assert!(f.overlaps(Some(&v(2016)), None));
        assert!(f.overlaps(None, Some(&v(2015))));
        assert!(!f.overlaps(None, Some(&v(2014))));
        // Unbounded query always overlaps.
        assert!(f.overlaps(None, None));
    }

    #[test]
    fn union_covers_both() {
        let mut a = RangeFilter::new(v(1), v(5));
        let b = RangeFilter::new(v(10), v(20));
        a.union(&b);
        assert_eq!(a, RangeFilter::new(v(1), v(20)));
    }

    #[test]
    fn upsert_example_from_paper() {
        // Figure 3: memory filter maintained on both old (2015) and new
        // (2018) values under Eager...
        let mut eager = RangeFilter::of(v(2018));
        eager.widen(&v(2015));
        // Query "Time < 2017" must NOT prune the memory component.
        assert!(eager.overlaps(None, Some(&v(2016))));

        // ...but only on the new value under Validation/Mutable-bitmap
        // (Figures 4, 9): the same query prunes it.
        let lazy = RangeFilter::of(v(2018));
        assert!(!lazy.overlaps(None, Some(&v(2016))));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_bounds_panic() {
        let _ = RangeFilter::new(v(2), v(1));
    }
}
