//! Zipfian sampling over a growing population.
//!
//! The paper's skewed upsert workload updates *recently ingested* keys more
//! frequently, following a Zipf distribution with theta 0.99 as in YCSB
//! (Section 6.3.2). Rank 1 is the most recent key; the probability of rank
//! `r` is proportional to `1/r^theta`.
//!
//! The population grows as ingestion proceeds, so the harmonic normalizer
//! `zeta(n)` is maintained incrementally.

use rand::Rng;

/// Zipfian rank sampler with incremental population growth.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    theta: f64,
    n: u64,
    zeta_n: f64,
}

impl ZipfSampler {
    /// Creates a sampler with the YCSB-style skew parameter (0.99).
    pub fn new(theta: f64) -> Self {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        ZipfSampler {
            theta,
            n: 0,
            zeta_n: 0.0,
        }
    }

    /// Grows the population to `n` (no-op if already at least `n`).
    pub(crate) fn grow_to(&mut self, n: u64) {
        while self.n < n {
            self.n += 1;
            self.zeta_n += 1.0 / (self.n as f64).powf(self.theta);
        }
    }

    /// Samples a rank in `1..=n` (1 = most probable / most recent).
    /// Uses inverse-CDF sampling on the continuous approximation, which is
    /// accurate for theta < 1 and large n, then clamps into range.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        assert!(self.n > 0, "sample from empty population");
        // Continuous approximation: zeta(n) ≈ n^(1-θ)/(1-θ) + C. Invert
        // u·zeta(n) = r^(1-θ)/(1-θ) for r.
        let u: f64 = rng.gen_range(0.0..1.0);
        let one_minus = 1.0 - self.theta;
        let target = u * self.zeta_n * one_minus;
        let r = target.powf(1.0 / one_minus).ceil() as u64;
        r.clamp(1, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skew_favours_low_ranks() {
        let mut z = ZipfSampler::new(0.99);
        z.grow_to(10_000);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut top_100 = 0u64;
        for _ in 0..n {
            if z.sample(&mut rng) <= 100 {
                top_100 += 1;
            }
        }
        // Under Zipf(0.99) the top 1% of ranks gets a large share of mass;
        // under uniform it would get 1%.
        let frac = top_100 as f64 / n as f64;
        assert!(frac > 0.3, "top-100 fraction {frac}");
    }

    #[test]
    fn samples_stay_in_range() {
        let mut z = ZipfSampler::new(0.5);
        z.grow_to(10);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!((1..=10).contains(&r));
        }
    }

    #[test]
    fn growth_is_monotonic_and_idempotent() {
        let mut z = ZipfSampler::new(0.99);
        z.grow_to(100);
        let zeta_100 = z.zeta_n;
        z.grow_to(50); // no-op
        assert_eq!(z.n, 100);
        assert_eq!(z.zeta_n, zeta_100);
        z.grow_to(200);
        assert!(z.zeta_n > zeta_100);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let z = ZipfSampler::new(0.99);
        let mut rng = StdRng::seed_from_u64(1);
        z.sample(&mut rng);
    }
}
