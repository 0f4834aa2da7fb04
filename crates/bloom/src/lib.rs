//! Bloom filters for LSM disk components.
//!
//! Every primary / primary-key-index disk component carries a Bloom filter on
//! its stored primary keys (Section 3 of the paper): a point lookup checks
//! the filter first and searches the component's B+-tree only if the filter
//! reports that the key may exist.
//!
//! Two variants are provided:
//!
//! * [`BloomKind::Blocked`], the default — the cache-friendly variant of
//!   Putze et al. (Section 3.2, "Blocked Bloom Filter"): the first hash
//!   selects one cache-line-sized, cache-line-aligned block and all `k`
//!   probes stay inside it, so a membership test costs a single cache
//!   miss, at the price of roughly one extra bit per key for the same
//!   false-positive rate.
//! * [`StandardBloom`] — the classic filter, the paper's baseline in
//!   Figure 12: `k` independent bit probes spread across the whole bit
//!   array. Each probe is a likely CPU cache miss.
//!
//! Both use the same double-hashing scheme (`g_i = h1 + i·h2`), which is the
//! standard way to derive `k` probes from one 64-bit hash.
//!
//! A probe costs memory, not arithmetic. The reduction of `g_i` to a bit
//! (or block) index is an exact remainder computed by multiplication
//! (Lemire et al.'s fastmod), so no probe divides. A membership test reads
//! all `k` bits and ANDs them: each bit an absent key tests is set about
//! half the time, so an early exit would be a coin-flip branch that costs
//! more in mispredictions than it saves in loads.

#![warn(missing_docs)]

mod fastmod;
mod hash;

use fastmod::Divisor;
pub use hash::hash64;

/// Block size of the blocked filter: one CPU cache line (64 bytes).
const BLOCK_BITS: usize = 512;

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
}

/// Returns the optimal number of probes for a given bits-per-key budget.
fn optimal_k(bits_per_key: f64) -> u32 {
    ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 30)
}

/// Returns the bits-per-key budget achieving a target false-positive rate
/// for a standard Bloom filter: `bits/key = -ln(p) / ln(2)^2`.
fn bits_per_key_for_fpr(fpr: f64) -> f64 {
    let fpr = fpr.clamp(1e-9, 0.5);
    -fpr.ln() / (std::f64::consts::LN_2 * std::f64::consts::LN_2)
}

/// Classic Bloom filter with probes spread over the whole bit array.
#[derive(Debug, Clone)]
pub struct StandardBloom {
    bits: Vec<u64>,
    nbits: Divisor,
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
    fn with_bits_per_key(expected_keys: usize, bits_per_key: f64) -> Self {
        let nbits = ((expected_keys.max(1) as f64 * bits_per_key).ceil() as u64).max(64);
        let words = nbits.div_ceil(64) as usize;
        StandardBloom {
            bits: vec![0; words],
            nbits: Divisor::new(words as u64 * 64),
            k: optimal_k(bits_per_key),
        }
    }

    /// The key's `k` bit positions, `(h1 + i·h2) mod nbits` for `i` in
    /// `0..k` (the sum wrapping in `u64`).
    fn positions(&self, KeyHash { h1, h2 }: KeyHash) -> impl Iterator<Item = u64> {
        let nbits = self.nbits;
        (0..u64::from(self.k)).map(move |i| nbits.rem(h1.wrapping_add(i.wrapping_mul(h2))))
    }

    /// Memory footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }
}

impl BloomFilter for StandardBloom {
    fn insert(&mut self, key: &[u8]) {
        for bit in self.positions(KeyHash::new(key)) {
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    fn may_contain_hash(&self, hash: KeyHash) -> bool {
        let all = self.positions(hash).fold(1, |all, bit| {
            all & (self.bits[(bit / 64) as usize] >> (bit % 64))
        });
        all & 1 == 1
    }

    fn num_probes(&self) -> u32 {
        self.k
    }

    fn num_bits(&self) -> usize {
        self.nbits.get() as usize
    }

    fn is_blocked(&self) -> bool {
        false
    }
}

/// One block of the blocked filter: 8×u64 = 512 bits, aligned to the cache
/// line it fills, so a probe touches exactly one line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Block([u64; 8]);

/// Cache-line blocked Bloom filter (Putze et al.).
///
/// The first hash selects a 512-bit block; the `k` probes index within that
/// block. One extra bit per key is budgeted relative to the standard filter
/// to compensate for the uneven per-block load, per the paper.
#[derive(Debug, Clone)]
pub(crate) struct BlockedBloom {
    blocks: Vec<Block>,
    nblocks: Divisor,
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
    fn with_bits_per_key(expected_keys: usize, bits_per_key: f64) -> Self {
        let nbits = (expected_keys.max(1) as f64 * bits_per_key).ceil() as usize;
        let nblocks = nbits.div_ceil(BLOCK_BITS).max(1);
        BlockedBloom {
            blocks: vec![Block([0; 8]); nblocks],
            nblocks: Divisor::new(nblocks as u64),
            // k is chosen from the *standard* budget: the extra bit is load
            // compensation, not additional probes.
            k: optimal_k(bits_per_key - 1.0),
        }
    }

    fn block_of(&self, h1: u64) -> usize {
        self.nblocks.rem(h1) as usize
    }

    /// The key's `k` in-block bit positions. They come from a different
    /// rotation of the hash than the block, so block choice and bit
    /// choices are independent.
    fn positions(&self, KeyHash { h1, h2 }: KeyHash) -> impl Iterator<Item = usize> {
        let g1 = h1.rotate_left(21);
        (0..u64::from(self.k))
            .map(move |i| (g1.wrapping_add(i.wrapping_mul(h2)) % BLOCK_BITS as u64) as usize)
    }
}

impl BloomFilter for BlockedBloom {
    fn insert(&mut self, key: &[u8]) {
        let hash = KeyHash::new(key);
        let b = self.block_of(hash.h1);
        let positions = self.positions(hash);
        let Block(block) = &mut self.blocks[b];
        for bit in positions {
            block[bit / 64] |= 1 << (bit % 64);
        }
    }

    fn may_contain_hash(&self, hash: KeyHash) -> bool {
        let Block(block) = &self.blocks[self.block_of(hash.h1)];
        let all = self
            .positions(hash)
            .fold(1, |all, bit| all & (block[bit / 64] >> (bit % 64)));
        all & 1 == 1
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
///
/// [`BloomKind::default`] is the one place the engine's choice is made:
/// every configuration that does not name a kind builds `Blocked`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BloomKind {
    /// Classic filter: k scattered probes, each a likely cache miss. The
    /// paper's baseline in Figure 12; built only where it is named.
    Standard,
    /// Cache-line blocked filter (Section 3.2 optimization): one cache
    /// miss per probe for one extra bit per key. The default.
    #[default]
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
        assert_eq!(BloomKind::default(), BloomKind::Blocked);
    }

    /// The division-free reductions pick the bits and blocks `%` would:
    /// for random hashes and the extremes, over 64 bits, random multiples
    /// of 64 up to past 2³², and every block count from one up.
    #[test]
    fn probe_positions_match_the_remainder() {
        use crate::fastmod::tests::random;
        let mut sizes = vec![1, 2, 64, 1 << 32, (1 << 32) + 64];
        sizes.extend(random(7).take(100).map(|r| 64 * (1 + r % (1 << 28))));
        let extremes = [0, 1, u64::MAX];
        let mut hashes: Vec<KeyHash> = extremes
            .iter()
            .flat_map(|&h1| extremes.iter().map(move |&h2| KeyHash { h1, h2 }))
            .collect();
        let mut r = random(8);
        hashes.extend((0..200).map(|_| KeyHash::new(&r.next().unwrap().to_le_bytes())));
        hashes.extend((0..200).map(|_| KeyHash {
            h1: r.next().unwrap(),
            h2: r.next().unwrap(),
        }));
        for n in sizes {
            let standard = StandardBloom {
                bits: Vec::new(),
                nbits: Divisor::new(n),
                k: 30,
            };
            let blocked = BlockedBloom {
                blocks: Vec::new(),
                nblocks: Divisor::new(n),
                k: 30,
            };
            for &hash in &hashes {
                let KeyHash { h1, h2 } = hash;
                let expected = (0..30u64).map(|i| h1.wrapping_add(i.wrapping_mul(h2)) % n);
                assert!(
                    standard.positions(hash).eq(expected),
                    "{hash:?} over {n} bits"
                );
                assert_eq!(blocked.block_of(h1) as u64, h1 % n, "{h1} over {n} blocks");
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

    /// The branch-free probe answers as the early-exit probe over `%`
    /// positions did, key for key, on filters of every fill.
    #[test]
    fn verdicts_match_the_dividing_early_exit_probe() {
        for n in [1, 100, 2_337] {
            let mut s = StandardBloom::new(n, 0.01);
            let mut b = BlockedBloom::new(n, 0.01);
            for k in keys(n, 1) {
                s.insert(&k);
                b.insert(&k);
            }
            let nbits = s.num_bits() as u64;
            let nblocks = b.blocks.len() as u64;
            for k in keys(n, 1).iter().chain(&keys(5_000, 2)) {
                let hash @ KeyHash { h1, h2 } = KeyHash::new(k);
                let g = |i: u64, from: u64| from.wrapping_add(i.wrapping_mul(h2));
                let standard = (0..u64::from(s.k)).all(|i| {
                    let bit = g(i, h1) % nbits;
                    s.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
                });
                let Block(block) = &b.blocks[(h1 % nblocks) as usize];
                let blocked = (0..u64::from(b.k)).all(|i| {
                    let bit = (g(i, h1.rotate_left(21)) % BLOCK_BITS as u64) as usize;
                    block[bit / 64] & (1 << (bit % 64)) != 0
                });
                assert_eq!(s.may_contain_hash(hash), standard, "{k:?}");
                assert_eq!(b.may_contain_hash(hash), blocked, "{k:?}");
            }
        }
    }

    /// FNV-1a over a bit array's length and words.
    fn digest(words: &[u64]) -> u64 {
        let len = (words.len() as u64).to_le_bytes();
        let bytes = words.iter().flat_map(|w| w.to_le_bytes());
        len.into_iter()
            .chain(bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// No filter bit may move: the bit images of both kinds built from a
    /// lone key, 100 keys, one `query_read` component's 2,337 and 65,536,
    /// recorded from the commit whose probes still divided.
    #[test]
    fn built_filters_match_recorded_digests() {
        let recorded: [(usize, u64, u64); 4] = [
            (1, 0xcd61_fd3e_c95f_2cc5, 0xa33a_085f_5d94_cd68),
            (100, 0x01d7_c593_d3e2_bdfe, 0x8acc_9f7e_1d98_06b1),
            (2_337, 0x6688_3bdc_32ab_cc2a, 0xa101_ee15_6f82_e8a4),
            (65_536, 0x89a9_b419_c10b_4e11, 0x9b10_63cd_97a4_53b9),
        ];
        let mut got = Vec::new();
        for &(n, _, _) in &recorded {
            let mut s = StandardBloom::new(n, 0.01);
            let mut b = BlockedBloom::new(n, 0.01);
            for k in keys(n, 1) {
                s.insert(&k);
                b.insert(&k);
            }
            let blocks: Vec<u64> = b.blocks.iter().flat_map(|&Block(words)| words).collect();
            got.push((n, digest(&s.bits), digest(&blocks)));
        }
        assert_eq!(got, recorded);
    }

    /// Every block of a large filter starts a cache line, so a probe reads
    /// one line, never the ends of two.
    #[test]
    fn blocks_are_cache_line_aligned() {
        assert_eq!(std::mem::size_of::<Block>(), 64);
        let b = BlockedBloom::new(100_000, 0.01);
        assert!(b.blocks.len() > 1_000, "{} blocks", b.blocks.len());
        assert_eq!(b.blocks.as_ptr() as usize % 64, 0);
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
