//! Bloom filters for LSM disk components.
//!
//! Every primary / primary-key-index disk component carries a Bloom filter on
//! its stored primary keys (Section 3 of the paper): a point lookup checks
//! the filter first and searches the component's B+-tree only if the filter
//! reports that the key may exist.
//!
//! Two variants are provided:
//!
//! * [`StandardBloom`] — the classic filter: `k` independent bit probes
//!   spread across the whole bit array. Each probe is a likely CPU cache
//!   miss.
//! * [`BlockedBloom`] — the cache-friendly variant of Putze et al.
//!   (Section 3.2, "Blocked Bloom Filter"): the first hash selects one
//!   cache-line-sized block and all `k` probes stay inside it, so a
//!   membership test costs a single cache miss, at the price of roughly one
//!   extra bit per key for the same false-positive rate.
//!
//! Both use the same double-hashing scheme (`g_i = h1 + i·h2`), which is the
//! standard way to derive `k` probes from one 64-bit hash.

#![warn(missing_docs)]

mod hash;

pub use hash::{fmix64, hash64};

/// Block size of the blocked filter: one CPU cache line (64 bytes).
pub const BLOCK_BITS: usize = 512;

/// The double-hashing pair every probe of a key is derived from
/// (`g_i = h1 + i·h2`). It depends on the key alone — not on a filter's
/// size, kind or probe count — so a lookup that walks many components
/// hashes its key once and probes every filter with the same `KeyHash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash {
    h1: u64,
    h2: u64,
}

impl KeyHash {
    /// Hashes `key`.
    pub fn new(key: &[u8]) -> Self {
        let h = hash64(key, 0x9E37_79B9_7F4A_7C15);
        KeyHash {
            h1: h,
            h2: (h >> 32) | 1, // odd, so probes cycle through the space
        }
    }
}

/// Common interface of the two Bloom filter variants.
pub trait BloomFilter: Send + Sync {
    /// Inserts a key.
    fn insert(&mut self, key: &[u8]);
    /// Tests membership of the key `hash` was computed from; false
    /// positives possible, false negatives not.
    fn may_contain_hash(&self, hash: KeyHash) -> bool;
    /// [`BloomFilter::may_contain_hash`] for a caller that probes one
    /// filter only.
    fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(KeyHash::new(key))
    }
    /// Number of hash probes per operation.
    fn num_probes(&self) -> u32;
    /// Size of the bit array in bits.
    fn num_bits(&self) -> usize;
    /// True if a membership test touches a single cache line.
    fn is_blocked(&self) -> bool;
    /// Tests many keys in one call, writing one verdict per key into `out`
    /// (cleared first).
    fn may_contain_batch(&self, keys: &[&[u8]], out: &mut Vec<bool>) {
        out.clear();
        out.extend(keys.iter().map(|k| self.may_contain(k)));
    }
}

/// Returns the optimal number of probes for a given bits-per-key budget.
pub fn optimal_k(bits_per_key: f64) -> u32 {
    ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 30)
}

/// Returns the bits-per-key budget achieving a target false-positive rate
/// for a standard Bloom filter: `bits/key = -ln(p) / ln(2)^2`.
pub fn bits_per_key_for_fpr(fpr: f64) -> f64 {
    let fpr = fpr.clamp(1e-9, 0.5);
    -fpr.ln() / (std::f64::consts::LN_2 * std::f64::consts::LN_2)
}

/// Classic Bloom filter with probes spread over the whole bit array.
#[derive(Debug, Clone)]
pub struct StandardBloom {
    bits: Vec<u64>,
    nbits: u64,
    k: u32,
}

impl StandardBloom {
    /// Creates a filter sized for `expected_keys` keys at `fpr` target
    /// false-positive rate (the paper's experiments use 1%).
    pub fn new(expected_keys: usize, fpr: f64) -> Self {
        let bpk = bits_per_key_for_fpr(fpr);
        Self::with_bits_per_key(expected_keys, bpk)
    }

    /// Creates a filter with an explicit bits-per-key budget.
    pub fn with_bits_per_key(expected_keys: usize, bits_per_key: f64) -> Self {
        let nbits = ((expected_keys.max(1) as f64 * bits_per_key).ceil() as u64).max(64);
        let words = nbits.div_ceil(64) as usize;
        StandardBloom {
            bits: vec![0; words],
            nbits: words as u64 * 64,
            k: optimal_k(bits_per_key),
        }
    }

    fn set_bit(&mut self, bit: u64) {
        self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
    }

    fn get_bit(&self, bit: u64) -> bool {
        self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
    }

    /// Memory footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }
}

impl BloomFilter for StandardBloom {
    fn insert(&mut self, key: &[u8]) {
        let KeyHash { h1, h2 } = KeyHash::new(key);
        for i in 0..self.k as u64 {
            self.set_bit(h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits);
        }
    }

    fn may_contain_hash(&self, KeyHash { h1, h2 }: KeyHash) -> bool {
        (0..self.k as u64).all(|i| self.get_bit(h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits))
    }

    fn num_probes(&self) -> u32 {
        self.k
    }

    fn num_bits(&self) -> usize {
        self.nbits as usize
    }

    fn is_blocked(&self) -> bool {
        false
    }
}

/// Cache-line blocked Bloom filter (Putze et al.).
///
/// The first hash selects a 512-bit block; the `k` probes index within that
/// block. One extra bit per key is budgeted relative to the standard filter
/// to compensate for the uneven per-block load, per the paper.
#[derive(Debug, Clone)]
pub struct BlockedBloom {
    /// Blocks of 8×u64 = 512 bits each.
    blocks: Vec<[u64; 8]>,
    k: u32,
}

impl BlockedBloom {
    /// Creates a filter sized for `expected_keys` at `fpr`, adding the one
    /// extra bit per key the blocked layout requires.
    pub fn new(expected_keys: usize, fpr: f64) -> Self {
        let bpk = bits_per_key_for_fpr(fpr) + 1.0;
        Self::with_bits_per_key(expected_keys, bpk)
    }

    /// Creates a filter with an explicit bits-per-key budget.
    pub fn with_bits_per_key(expected_keys: usize, bits_per_key: f64) -> Self {
        let nbits = (expected_keys.max(1) as f64 * bits_per_key).ceil() as usize;
        let nblocks = nbits.div_ceil(BLOCK_BITS).max(1);
        BlockedBloom {
            blocks: vec![[0u64; 8]; nblocks],
            // k is chosen from the *standard* budget: the extra bit is load
            // compensation, not additional probes.
            k: optimal_k(bits_per_key - 1.0),
        }
    }

    fn block_of(&self, h1: u64) -> usize {
        (h1 % self.blocks.len() as u64) as usize
    }

    /// Memory footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.blocks.len() * 64
    }
}

impl BloomFilter for BlockedBloom {
    fn insert(&mut self, key: &[u8]) {
        let KeyHash { h1, h2 } = KeyHash::new(key);
        let b = self.block_of(h1);
        let block = &mut self.blocks[b];
        // Derive in-block bits from a different rotation of the hash so the
        // block choice and the bit choices are independent.
        let g1 = h1.rotate_left(21);
        for i in 0..self.k as u64 {
            let bit = (g1.wrapping_add(i.wrapping_mul(h2)) % BLOCK_BITS as u64) as usize;
            block[bit / 64] |= 1 << (bit % 64);
        }
    }

    fn may_contain_hash(&self, KeyHash { h1, h2 }: KeyHash) -> bool {
        let block = &self.blocks[self.block_of(h1)];
        let g1 = h1.rotate_left(21);
        (0..self.k as u64).all(|i| {
            let bit = (g1.wrapping_add(i.wrapping_mul(h2)) % BLOCK_BITS as u64) as usize;
            block[bit / 64] & (1 << (bit % 64)) != 0
        })
    }

    fn num_probes(&self) -> u32 {
        self.k
    }

    fn num_bits(&self) -> usize {
        self.blocks.len() * BLOCK_BITS
    }

    fn is_blocked(&self) -> bool {
        true
    }
}

/// Which Bloom filter variant a component should build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BloomKind {
    /// Classic filter: k scattered probes.
    #[default]
    Standard,
    /// Cache-line blocked filter (Section 3.2 optimization).
    Blocked,
}

/// Builds a filter of the requested kind.
pub fn build_filter(kind: BloomKind, expected_keys: usize, fpr: f64) -> Box<dyn BloomFilter> {
    match kind {
        BloomKind::Standard => Box::new(StandardBloom::new(expected_keys, fpr)),
        BloomKind::Blocked => Box::new(BlockedBloom::new(expected_keys, fpr)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: u8) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut k = vec![tag];
                k.extend_from_slice(&(i as u64).to_be_bytes());
                k
            })
            .collect()
    }

    fn check_no_false_negatives(f: &mut dyn BloomFilter) {
        for k in keys(10_000, 1) {
            f.insert(&k);
        }
        for k in keys(10_000, 1) {
            assert!(f.may_contain(&k));
        }
    }

    fn measure_fpr(f: &dyn BloomFilter) -> f64 {
        let absent = keys(20_000, 2);
        let fp = absent.iter().filter(|k| f.may_contain(k)).count();
        fp as f64 / absent.len() as f64
    }

    #[test]
    fn standard_no_false_negatives() {
        let mut f = StandardBloom::new(10_000, 0.01);
        check_no_false_negatives(&mut f);
    }

    #[test]
    fn blocked_no_false_negatives() {
        let mut f = BlockedBloom::new(10_000, 0.01);
        check_no_false_negatives(&mut f);
    }

    #[test]
    fn standard_fpr_near_target() {
        let mut f = StandardBloom::new(10_000, 0.01);
        for k in keys(10_000, 1) {
            f.insert(&k);
        }
        let fpr = measure_fpr(&f);
        assert!(fpr < 0.02, "fpr {fpr}");
    }

    #[test]
    fn blocked_fpr_near_target() {
        let mut f = BlockedBloom::new(10_000, 0.01);
        for k in keys(10_000, 1) {
            f.insert(&k);
        }
        let fpr = measure_fpr(&f);
        // Blocked filters have somewhat worse FPR at equal bits; the extra
        // bit per key should keep it within ~3x of the target.
        assert!(fpr < 0.03, "fpr {fpr}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = StandardBloom::new(100, 0.01);
        assert!(!f.may_contain(b"anything"));
        let b = BlockedBloom::new(100, 0.01);
        assert!(!b.may_contain(b"anything"));
    }

    #[test]
    fn blocked_pays_one_extra_bit_per_key() {
        let s = StandardBloom::new(100_000, 0.01);
        let b = BlockedBloom::new(100_000, 0.01);
        let extra_bits = b.num_bits() as i64 - s.num_bits() as i64;
        // About one extra bit per key (block rounding allows slack).
        assert!(extra_bits > 50_000, "extra {extra_bits}");
        assert!(extra_bits < 200_000, "extra {extra_bits}");
    }

    #[test]
    fn sizing_formulas() {
        // 1% fpr needs ~9.6 bits/key and 7 probes.
        let bpk = bits_per_key_for_fpr(0.01);
        assert!((bpk - 9.585).abs() < 0.01, "{bpk}");
        assert_eq!(optimal_k(bpk), 7);
    }

    #[test]
    fn build_filter_dispatches() {
        assert!(!build_filter(BloomKind::Standard, 10, 0.01).is_blocked());
        assert!(build_filter(BloomKind::Blocked, 10, 0.01).is_blocked());
    }

    #[test]
    fn batched_probe_agrees_with_single_probe() {
        let mut s = StandardBloom::new(5_000, 0.01);
        let mut b = BlockedBloom::new(5_000, 0.01);
        for k in keys(5_000, 1) {
            s.insert(&k);
            b.insert(&k);
        }
        let mut probes = keys(2_000, 1);
        probes.extend(keys(2_000, 2));
        let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        for f in [&s as &dyn BloomFilter, &b as &dyn BloomFilter] {
            let mut out = vec![true; 3]; // must be cleared by the impl
            f.may_contain_batch(&refs, &mut out);
            assert_eq!(out.len(), refs.len());
            for (k, got) in refs.iter().zip(&out) {
                assert_eq!(*got, f.may_contain(k));
            }
        }
    }

    #[test]
    fn hashed_probe_agrees_with_keyed_probe() {
        // A hash computed once answers for the key on every filter, and the
        // bits probed are the ones `insert` set: the false-positive counts
        // are the values the keyed probe gave before `KeyHash` existed.
        for (kind, false_positives) in [(BloomKind::Standard, 198), (BloomKind::Blocked, 167)] {
            let mut f = build_filter(kind, 10_000, 0.01);
            for k in keys(10_000, 1) {
                f.insert(&k);
            }
            let mut fp = 0;
            for k in keys(10_000, 1).iter().chain(&keys(20_000, 2)) {
                let verdict = f.may_contain_hash(KeyHash::new(k));
                assert_eq!(verdict, f.may_contain(k), "{kind:?}");
                assert!(verdict || k[0] == 2, "{kind:?}: false negative");
                fp += usize::from(verdict && k[0] == 2);
            }
            assert_eq!(fp, false_positives, "{kind:?}");
        }
    }

    #[test]
    fn tiny_filters_work() {
        let mut f = StandardBloom::new(1, 0.01);
        f.insert(b"k");
        assert!(f.may_contain(b"k"));
        let mut b = BlockedBloom::new(1, 0.01);
        b.insert(b"k");
        assert!(b.may_contain(b"k"));
    }
}
