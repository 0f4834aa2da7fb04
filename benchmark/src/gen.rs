//! Seeded inputs and the in-memory mirror every result is checked against.
//!
//! The benchmark owns its generator (SplitMix64-seeded xoshiro256++, no
//! external crate) so the engine's workload crates can be refactored
//! without changing the benchmark's inputs. Records are the §6.1 tweets:
//! `id` random unique i64, `user_id` uniform in `[0, 100k)`, `location`,
//! monotonic `creation_time`, 450–550 byte `message`.

use lsm_common::{FieldType, Record, Schema, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Domain of the `user_id` attribute.
pub const USER_ID_DOMAIN: i64 = 100_000;
/// Field positions in the tweet schema.
pub const F_ID: usize = 0;
/// `user_id` (secondary-index key).
pub const F_USER: usize = 1;
/// `creation_time` (range-filter key).
pub const F_TIME: usize = 3;

const STATES: &[&str] = &[
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL", "IN", "IA", "KS",
    "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY",
    "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV",
    "WI", "WY",
];

/// The tweet schema of §6.1.
pub fn tweet_schema() -> Schema {
    Schema::new(vec![
        ("id", FieldType::Int),
        ("user_id", FieldType::Int),
        ("location", FieldType::Str),
        ("creation_time", FieldType::Int),
        ("message", FieldType::Str),
    ])
    .expect("valid tweet schema")
}

/// xoshiro256++ seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// part of the generator never shifts another part's inputs.
    pub fn fork(seed: u64, stream: u64) -> Self {
        Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, n)` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf ranks in `1..=n` by rejection-inversion (Hörmann & Derflinger):
/// O(1) per draw with no table, so the population may differ on every call.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    exponent: f64,
}

impl Zipf {
    /// A sampler with the given exponent (0.99 is YCSB's).
    pub fn new(exponent: f64) -> Self {
        Zipf { exponent }
    }

    fn helper1(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.ln_1p() / x
        } else {
            1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
        }
    }

    fn helper2(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.exp_m1() / x
        } else {
            1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
        }
    }

    fn h(&self, x: f64) -> f64 {
        (-self.exponent * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let lx = x.ln();
        Self::helper2((1.0 - self.exponent) * lx) * lx
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.exponent)).max(-1.0);
        (Self::helper1(t) * x).exp()
    }

    /// A rank in `1..=n`; rank 1 is the most probable.
    pub fn sample(&self, rng: &mut Rng, n: u64) -> u64 {
        debug_assert!(n > 0);
        let h_x1 = self.h_integral(1.5) - 1.0;
        let h_n = self.h_integral(n as f64 + 0.5);
        let s = 2.0 - self.h_integral_inverse(self.h_integral(2.5) - self.h(2.0));
        loop {
            let u = h_n + rng.unit() * (h_x1 - h_n);
            let x = self.h_integral_inverse(u);
            let k = ((x + 0.5) as u64).clamp(1, n);
            let kf = k as f64;
            if kf - x <= s || u >= self.h_integral(kf + 0.5) - self.h(kf) {
                return k;
            }
        }
    }
}

/// How update targets and hot read keys are chosen among issued keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// All issued keys equally likely.
    Uniform,
    /// Zipf over issue order with this exponent (rank 1 = first issued).
    Zipf(f64),
}

impl KeyDist {
    /// An index into the first `n` issued keys.
    pub fn pick(self, rng: &mut Rng, n: usize) -> usize {
        match self {
            KeyDist::Uniform => rng.below(n as u64) as usize,
            KeyDist::Zipf(e) => (Zipf::new(e).sample(rng, n as u64) - 1) as usize,
        }
    }
}

/// One pre-generated upsert.
#[derive(Debug, Clone)]
pub struct Op {
    /// The record to upsert.
    pub record: Record,
    /// Primary key (`record[F_ID]`).
    pub pk: i64,
    /// `record[F_USER]`.
    pub user: i64,
    /// `Record::encode().len()`: the user bytes this op carries.
    pub enc_len: u32,
}

/// A pre-generated upsert stream: every input of a run, made from the seed
/// before any timing starts.
#[derive(Debug)]
pub struct OpStream {
    /// The upserts, in application order; `creation_time` is the index.
    pub ops: Vec<Op>,
    /// Distinct keys in first-issue order.
    pub issued: Vec<i64>,
    /// `issued.len()` after each op (`issued_after[i]` counts ops `0..=i`).
    pub issued_after: Vec<u32>,
    used: HashSet<i64>,
    keys: Rng,
    body: Rng,
    update_ratio: f64,
    dist: KeyDist,
}

impl OpStream {
    /// An empty stream whose upserts re-use an already issued key, picked
    /// by `dist`, with probability `update_ratio`.
    pub fn new(seed: u64, update_ratio: f64, dist: KeyDist) -> Self {
        OpStream {
            ops: Vec::new(),
            issued: Vec::new(),
            issued_after: Vec::new(),
            used: HashSet::new(),
            keys: Rng::fork(seed, 1),
            body: Rng::fork(seed, 2),
            update_ratio,
            dist,
        }
    }

    /// Appends `n` upserts. The stream is the same however it is cut into
    /// `extend` calls.
    pub fn extend(&mut self, n: usize) {
        self.ops.reserve(n);
        self.issued_after.reserve(n);
        for _ in 0..n {
            let pk = if !self.issued.is_empty() && self.keys.unit() < self.update_ratio {
                self.issued[self.dist.pick(&mut self.keys, self.issued.len())]
            } else {
                let pk = loop {
                    let pk = (self.keys.next_u64() >> 1) as i64;
                    if self.used.insert(pk) {
                        break pk;
                    }
                };
                self.issued.push(pk);
                pk
            };
            let user = self.body.below(USER_ID_DOMAIN as u64) as i64;
            let record = tweet(&mut self.body, pk, user, self.ops.len() as i64);
            let enc_len = record.encode().len() as u32;
            self.ops.push(Op {
                record,
                pk,
                user,
                enc_len,
            });
            self.issued_after.push(self.issued.len() as u32);
        }
    }

    /// `n` upserts in one call.
    pub fn generate(seed: u64, n: usize, update_ratio: f64, dist: KeyDist) -> Self {
        let mut s = OpStream::new(seed, update_ratio, dist);
        s.extend(n);
        s
    }

    /// A key no op of this stream ever writes.
    pub fn absent_key(&self, rng: &mut Rng) -> i64 {
        loop {
            let pk = (rng.next_u64() >> 1) as i64;
            if !self.used.contains(&pk) {
                return pk;
            }
        }
    }
}

fn tweet(rng: &mut Rng, pk: i64, user: i64, time: i64) -> Record {
    let location = STATES[rng.below(STATES.len() as u64) as usize];
    let len = 450 + rng.below(101) as usize;
    let mut msg = Vec::with_capacity(len + 8);
    while msg.len() < len {
        // Eight letters per draw: the message is filler, not a statistic.
        for b in rng.next_u64().to_le_bytes() {
            msg.push(b'a' + b % 26);
        }
    }
    msg.truncate(len);
    Record::new(vec![
        Value::Int(pk),
        Value::Int(user),
        Value::Str(location.to_owned()),
        Value::Int(time),
        Value::Str(String::from_utf8(msg).expect("ascii letters")),
    ])
}

/// An inclusive `user_id` range covering `share` of the domain.
pub fn user_range(rng: &mut Rng, share: f64) -> (i64, i64) {
    let width = ((USER_ID_DOMAIN as f64 * share).round() as i64).max(1);
    let lo = rng.below((USER_ID_DOMAIN - width + 1) as u64) as i64;
    (lo, lo + width - 1)
}

/// Counts over op indices with point updates (a Fenwick tree): how many
/// live versions have `creation_time` in a range.
#[derive(Debug)]
struct LiveTimes {
    tree: Vec<i32>,
}

impl LiveTimes {
    fn new(n: usize) -> Self {
        LiveTimes {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, idx: usize, delta: i32) {
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Live versions with index `< end`.
    fn prefix(&self, end: usize) -> i64 {
        let mut i = end.min(self.tree.len() - 1);
        let mut sum = 0i64;
        while i > 0 {
            sum += i64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// What the dataset must contain after the first `applied` ops of a
/// stream: pk → latest version, plus the `user_id` and `creation_time`
/// views the queries and scans are checked against.
#[derive(Debug)]
pub struct Mirror {
    latest: HashMap<i64, u32>,
    by_user: BTreeSet<(i64, i64)>,
    live_times: LiveTimes,
    live_bytes: u64,
    applied: usize,
}

impl Mirror {
    /// An empty mirror for a stream of `n` ops.
    pub fn new(n: usize) -> Self {
        Mirror {
            latest: HashMap::with_capacity(n),
            by_user: BTreeSet::new(),
            live_times: LiveTimes::new(n),
            live_bytes: 0,
            applied: 0,
        }
    }

    /// Ops applied so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Applies `stream.ops[self.applied()..upto]`.
    pub fn advance(&mut self, stream: &OpStream, upto: usize) {
        for idx in self.applied..upto {
            let op = &stream.ops[idx];
            if let Some(old) = self.latest.insert(op.pk, idx as u32) {
                let old_op = &stream.ops[old as usize];
                self.by_user.remove(&(old_op.user, op.pk));
                self.live_times.add(old as usize, -1);
                self.live_bytes -= u64::from(old_op.enc_len);
            }
            self.by_user.insert((op.user, op.pk));
            self.live_times.add(idx, 1);
            self.live_bytes += u64::from(op.enc_len);
        }
        self.applied = self.applied.max(upto);
    }

    /// Index of the op holding the latest version of `pk`.
    pub fn latest(&self, pk: i64) -> Option<usize> {
        self.latest.get(&pk).map(|&i| i as usize)
    }

    /// Distinct live keys.
    pub fn live_keys(&self) -> usize {
        self.latest.len()
    }

    /// Encoded bytes of the latest version of every key.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Primary keys, ascending, of live records with `user_id` in `[lo, hi]`.
    pub fn pks_by_user(&self, lo: i64, hi: i64) -> Vec<i64> {
        let mut pks: Vec<i64> = self
            .by_user
            .range((lo, i64::MIN)..=(hi, i64::MAX))
            .map(|&(_, pk)| pk)
            .collect();
        pks.sort_unstable();
        pks
    }

    /// Live records with `creation_time` in `[lo, hi]` (either end open
    /// when `None`).
    pub fn count_by_time(&self, lo: Option<i64>, hi: Option<i64>) -> u64 {
        let start = lo.map_or(0, |t| t.max(0) as usize);
        let end = hi.map_or(usize::MAX, |t| (t + 1).max(0) as usize);
        if end <= start {
            return 0;
        }
        (self.live_times.prefix(end) - self.live_times.prefix(start)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let a = OpStream::generate(7, 500, 0.5, KeyDist::Uniform);
        let b = OpStream::generate(7, 500, 0.5, KeyDist::Uniform);
        let c = OpStream::generate(8, 500, 0.5, KeyDist::Uniform);
        assert!(a.ops.iter().zip(&b.ops).all(|(x, y)| x.record == y.record));
        assert!(a.ops.iter().zip(&c.ops).any(|(x, y)| x.record != y.record));
        let mut cut = OpStream::new(7, 0.5, KeyDist::Uniform);
        cut.extend(123);
        cut.extend(377);
        assert!(a
            .ops
            .iter()
            .zip(&cut.ops)
            .all(|(x, y)| x.record == y.record));
        assert_eq!(a.issued_after, cut.issued_after);
    }

    #[test]
    fn records_fit_the_section_6_1_shape() {
        let s = OpStream::generate(1, 2_000, 0.5, KeyDist::Zipf(0.99));
        let schema = tweet_schema();
        for (t, op) in s.ops.iter().enumerate() {
            schema.check(&op.record).unwrap();
            assert_eq!(op.record.get(F_TIME).as_int(), Some(t as i64));
            assert!((0..USER_ID_DOMAIN).contains(&op.user));
            let msg = op.record.get(4).as_str().unwrap().len();
            assert!((450..=550).contains(&msg), "message of {msg} bytes");
            assert_eq!(op.enc_len as usize, op.record.encode().len());
        }
        let updates = s.ops.len() - s.issued.len();
        assert!((800..1_200).contains(&updates), "{updates} updates");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(3);
        let z = Zipf::new(0.99);
        let mut first_ten = 0;
        for _ in 0..20_000 {
            let k = z.sample(&mut rng, 10_000);
            assert!((1..=10_000).contains(&k));
            if k <= 10 {
                first_ten += 1;
            }
        }
        // Harmonic weights: ranks 1..=10 carry ~30 % of a 10k population.
        assert!((5_000..7_000).contains(&first_ten), "{first_ten}");
    }

    #[test]
    fn mirror_tracks_latest_versions_and_both_views() {
        let s = OpStream::generate(5, 3_000, 0.5, KeyDist::Uniform);
        let mut m = Mirror::new(s.ops.len());
        m.advance(&s, 1_000);
        m.advance(&s, 3_000);
        // Brute force over the stream.
        let mut latest: HashMap<i64, usize> = HashMap::new();
        for (i, op) in s.ops.iter().enumerate() {
            latest.insert(op.pk, i);
        }
        assert_eq!(m.live_keys(), latest.len());
        assert_eq!(m.live_keys(), s.issued.len());
        let bytes: u64 = latest.values().map(|&i| u64::from(s.ops[i].enc_len)).sum();
        assert_eq!(m.live_bytes(), bytes);
        let mut expect: Vec<i64> = latest
            .iter()
            .filter(|(_, &i)| (100..=5_000).contains(&s.ops[i].user))
            .map(|(&pk, _)| pk)
            .collect();
        expect.sort_unstable();
        assert_eq!(m.pks_by_user(100, 5_000), expect);
        let in_window = latest.values().filter(|&&i| (500..=1_999).contains(&i));
        assert_eq!(
            m.count_by_time(Some(500), Some(1_999)),
            in_window.count() as u64
        );
        assert_eq!(m.count_by_time(None, None), latest.len() as u64);
        assert_eq!(m.count_by_time(Some(2_999), None), 1);
    }
}
