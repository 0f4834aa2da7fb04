//! Simulated time.
//!
//! The clock is a shared atomic nanosecond counter. Storage and CPU cost
//! charges advance it; benchmarks read it to report "query time (s)" the way
//! the paper does. The model is a single device plus a single CPU: charges
//! from concurrent threads serialize onto the same counter, which matches the
//! single-disk, single-dataset-partition setting of the paper's experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared simulated clock, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns` simulated nanoseconds.
    pub fn advance(&self, ns: u64) {
        if ns > 0 {
            self.nanos.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Current simulated time in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Current simulated time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_nanos() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_reads() {
        let c = SimClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(1_500_000_000);
        assert_eq!(c.now_nanos(), 1_500_000_000);
        assert!((c.now_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_advance_is_free() {
        let c = SimClock::new();
        c.advance(0);
        assert_eq!(c.now_nanos(), 0);
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let d = c.clone();
        c.advance(10);
        assert_eq!(d.now_nanos(), 10);
        d.advance(5);
        assert_eq!(c.now_nanos(), 15);
    }
}
