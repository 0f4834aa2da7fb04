//! Host-noise probe: a fixed memory-bound reference kernel, run before and
//! after a workload's timed part. Runs are flagged, never discarded.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the reference map (~10 MB of B-tree nodes).
const ENTRIES: usize = 300_000;
/// Lookups per timed slice.
const SLICE: usize = 100_000;

/// The reference kernel: random lookups in a fixed `BTreeMap`.
#[derive(Debug)]
pub struct HostProbe {
    map: BTreeMap<u64, u64>,
    keys: Vec<u64>,
    at: usize,
}

impl Default for HostProbe {
    fn default() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut map = BTreeMap::new();
        while map.len() < ENTRIES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x, x);
        }
        let keys = map.keys().copied().collect();
        HostProbe { map, keys, at: 0 }
    }
}

impl HostProbe {
    /// One slice; returns its milliseconds.
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..SLICE {
            self.at = (self.at * 1_103_515_245 + 12_345) % self.keys.len();
            acc = acc.wrapping_add(self.map[&self.keys[self.at]]);
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the kernel for about `secs` seconds; returns the median
    /// milliseconds per slice of [`SLICE`] lookups.
    pub fn measure(&mut self, secs: f64) -> f64 {
        self.slice(); // warm-up: the first slice after other work runs cold
        let start = Instant::now();
        let mut slices = Vec::new();
        while slices.is_empty() || start.elapsed().as_secs_f64() < secs {
            slices.push(self.slice());
        }
        crate::stats::median(&slices)
    }
}
