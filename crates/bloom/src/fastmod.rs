//! Exact `u64` remainder by a fixed divisor without a division.
//!
//! Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation" (2019):
//! with `m = ⌈2¹²⁸ / d⌉`, `a mod d` is the top 64 bits of
//! `((m · a) mod 2¹²⁸) · d`. A 128-bit `m` makes this exact for every `u64`
//! numerator and divisor; it costs four multiplications, against the tens
//! of cycles of a 64-bit `div`.

/// A divisor `d ≥ 1` with its precomputed multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Divisor {
    d: u64,
    m: u128,
}

impl Divisor {
    /// Prepares `d` for [`Divisor::rem`]. `d = 1` wraps `m` to 0, whose
    /// remainders are all 0, as they should be.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        Divisor {
            d,
            m: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    /// The divisor.
    pub(crate) fn get(self) -> u64 {
        self.d
    }

    /// `a % d`.
    #[inline]
    pub(crate) fn rem(self, a: u64) -> u64 {
        let low = self.m.wrapping_mul(u128::from(a));
        let d = u128::from(self.d);
        // The high half of the 192-bit product `low · d`, in two pieces
        // whose sum stays below 2¹²⁸.
        let bottom = (u128::from(low as u64) * d) >> 64;
        let top = (low >> 64) * d;
        ((bottom + top) >> 64) as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hash::fmix64;

    /// A deterministic, well-spread stream of `u64`s.
    pub(crate) fn random(seed: u64) -> impl Iterator<Item = u64> {
        (1..).map(move |i: u64| fmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    #[test]
    fn matches_the_hardware_remainder() {
        let mut divisors = vec![1, 2, 3, 7, 64, 511, 512, 1 << 32, (1 << 32) + 64, u64::MAX];
        divisors.extend(random(1).take(200).map(|r| 1 + r % (1 << 34)));
        divisors.extend(random(2).take(50).map(|r| r | 1));
        let numerators: Vec<u64> = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63]
            .into_iter()
            .chain(random(3).take(500))
            .collect();
        for &d in &divisors {
            let div = Divisor::new(d);
            assert_eq!(div.get(), d);
            for &a in numerators.iter().chain(&[d - 1, d, d.wrapping_add(1)]) {
                assert_eq!(div.rem(a), a % d, "{a} % {d}");
            }
        }
    }
}
