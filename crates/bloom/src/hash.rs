//! A fast 64-bit hash for Bloom filter probing.
//!
//! FNV-1a over 8-byte chunks followed by the MurmurHash3 64-bit finalizer
//! (`fmix64`). Not cryptographic; quality is more than sufficient for Bloom
//! filter probe derivation, and having our own keeps the crate
//! dependency-free.

/// Hashes `data` with the given `seed`.
pub fn hash64(data: &[u8], seed: u64) -> u64 {
    const PRIME: u64 = 0x100_0000_01B3;
    let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ v).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        tail[7] = rem.len() as u8; // length-disambiguate short tails
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    fmix64(h ^ data.len() as u64)
}

/// MurmurHash3's 64-bit finalizer: full avalanche of all input bits.
#[inline]
pub(crate) fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(b"hello", 1), hash64(b"hello", 1));
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(hash64(b"hello", 1), hash64(b"hello", 2));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            seen.insert(hash64(&i.to_be_bytes(), 0));
        }
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn prefixes_hash_differently() {
        // Tail handling must distinguish "ab" from "ab\0".
        assert_ne!(hash64(b"ab", 0), hash64(b"ab\0", 0));
        assert_ne!(hash64(b"", 0), hash64(b"\0", 0));
    }

    #[test]
    fn bit_distribution_is_roughly_uniform() {
        // Count set bits across many hashes; each bit position should be set
        // about half the time.
        let n = 10_000;
        let mut counts = [0u32; 64];
        for i in 0..n {
            let h = hash64(&(i as u64).to_le_bytes(), 7);
            for (b, c) in counts.iter_mut().enumerate() {
                if h & (1 << b) != 0 {
                    *c += 1;
                }
            }
        }
        for (b, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((0.45..0.55).contains(&frac), "bit {b}: {frac}");
        }
    }
}
