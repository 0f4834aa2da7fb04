//! The synthetic tweet generator of Section 6.1.
//!
//! Each tweet has a random 64-bit `id` (primary key), a `user_id` uniform in
//! `[0, 100K)` (the secondary key used for controlled-selectivity queries),
//! a `location` (two-letter state), a monotonically increasing
//! `creation_time` (the range-filter key), and a random `message` of
//! 450–550 bytes (configurable, so scaled-down benches can use smaller
//! records, and Figure 21/23 can use larger ones).

use lsm_common::{FieldType, Record, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain of the `user_id` attribute (0..100K in the paper).
pub const USER_ID_DOMAIN: i64 = 100_000;

const STATES: &[&str] = &[
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL", "IN", "IA", "KS",
    "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY",
    "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV",
    "WI", "WY",
];

/// Configuration for [`TweetGenerator`].
#[derive(Debug, Clone)]
pub struct TweetConfig {
    /// Minimum message length in bytes.
    pub msg_min: usize,
    /// Maximum message length in bytes.
    pub msg_max: usize,
    /// RNG seed (generators are deterministic given a seed).
    pub seed: u64,
}

impl Default for TweetConfig {
    fn default() -> Self {
        TweetConfig {
            msg_min: 450,
            msg_max: 550,
            seed: 42,
        }
    }
}

impl TweetConfig {
    /// Configuration producing records of roughly `bytes` each (message
    /// padded/truncated accordingly; other fields are ~50 bytes).
    pub fn with_record_bytes(bytes: usize) -> Self {
        let msg = bytes.saturating_sub(50).max(1);
        TweetConfig {
            msg_min: msg,
            msg_max: msg,
            seed: 42,
        }
    }
}

/// Generates tweets with unique random primary keys.
#[derive(Debug)]
pub struct TweetGenerator {
    cfg: TweetConfig,
    rng: StdRng,
    /// Primary keys issued so far, in ingestion order (index = recency rank
    /// from the back). Updates sample from this.
    issued: Vec<i64>,
    /// Monotonic creation-time counter.
    next_time: i64,
    used: std::collections::HashSet<i64>,
}

impl TweetGenerator {
    /// Creates a generator.
    pub fn new(cfg: TweetConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        TweetGenerator {
            cfg,
            rng,
            issued: Vec::new(),
            next_time: 0,
            used: std::collections::HashSet::new(),
        }
    }

    /// The tweet schema.
    pub fn schema() -> Schema {
        Schema::new(vec![
            ("id", FieldType::Int),
            ("user_id", FieldType::Int),
            ("location", FieldType::Str),
            ("creation_time", FieldType::Int),
            ("message", FieldType::Str),
        ])
        .expect("valid tweet schema")
    }

    /// Number of distinct keys issued.
    pub fn num_issued(&self) -> usize {
        self.issued.len()
    }

    /// The `i`-th issued primary key (ingestion order).
    pub fn issued_key(&self, i: usize) -> i64 {
        self.issued[i]
    }

    /// Generates a brand-new tweet with a fresh random primary key.
    pub fn next_new(&mut self) -> Record {
        let id = loop {
            let id = self.rng.gen::<i64>().abs();
            if self.used.insert(id) {
                break id;
            }
        };
        self.issued.push(id);
        self.record_with_id(id)
    }

    /// Generates a tweet whose primary key duplicates/updates the issued key
    /// at `index` (the record content is fresh — an update changes all
    /// non-key attributes except `creation_time`'s monotonicity).
    pub(crate) fn next_update_of(&mut self, index: usize) -> Record {
        let id = self.issued[index];
        self.record_with_id(id)
    }

    fn record_with_id(&mut self, id: i64) -> Record {
        let user_id = self.rng.gen_range(0..USER_ID_DOMAIN);
        let location = STATES[self.rng.gen_range(0..STATES.len())];
        let t = self.next_time;
        self.next_time += 1;
        let len = if self.cfg.msg_min >= self.cfg.msg_max {
            self.cfg.msg_min
        } else {
            self.rng.gen_range(self.cfg.msg_min..=self.cfg.msg_max)
        };
        let msg: String = (0..len)
            .map(|_| char::from(self.rng.gen_range(b'a'..=b'z')))
            .collect();
        Record::new(vec![
            Value::Int(id),
            Value::Int(user_id),
            Value::Str(location.to_owned()),
            Value::Int(t),
            Value::Str(msg),
        ])
    }

    /// The current creation-time watermark (max issued + 1).
    pub fn time_watermark(&self) -> i64 {
        self.next_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tweets_have_unique_ids_and_monotonic_time() {
        let mut g = TweetGenerator::new(TweetConfig {
            msg_min: 10,
            msg_max: 20,
            seed: 1,
        });
        let mut prev_time = -1i64;
        let mut ids = std::collections::HashSet::new();
        for _ in 0..1000 {
            let r = g.next_new();
            let id = r.get(0).as_int().unwrap();
            assert!(ids.insert(id));
            let t = r.get(3).as_int().unwrap();
            assert!(t > prev_time);
            prev_time = t;
        }
        assert_eq!(g.num_issued(), 1000);
    }

    #[test]
    fn records_conform_to_schema_and_size() {
        let mut g = TweetGenerator::new(TweetConfig::default());
        let schema = TweetGenerator::schema();
        for _ in 0..10 {
            let r = g.next_new();
            schema.check(&r).unwrap();
            let bytes = r.encode().len();
            assert!((450..=650).contains(&bytes), "record size {bytes}");
        }
    }

    #[test]
    fn updates_reuse_issued_keys() {
        let mut g = TweetGenerator::new(TweetConfig {
            msg_min: 5,
            msg_max: 5,
            seed: 3,
        });
        g.next_new();
        g.next_new();
        let key0 = g.issued_key(0);
        let upd = g.next_update_of(0);
        assert_eq!(upd.get(0).as_int().unwrap(), key0);
        // Updates still advance creation time.
        assert_eq!(upd.get(3).as_int().unwrap(), 2);
    }

    #[test]
    fn user_ids_cover_domain_uniformly() {
        let mut g = TweetGenerator::new(TweetConfig {
            msg_min: 1,
            msg_max: 1,
            seed: 9,
        });
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            let r = g.next_new();
            let uid = r.get(1).as_int().unwrap();
            assert!((0..USER_ID_DOMAIN).contains(&uid));
            buckets[(uid * 10 / USER_ID_DOMAIN) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((700..1300).contains(&b), "bucket {i}: {b}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TweetGenerator::new(TweetConfig::default());
        let mut b = TweetGenerator::new(TweetConfig::default());
        for _ in 0..5 {
            assert_eq!(a.next_new(), b.next_new());
        }
    }

    #[test]
    fn record_bytes_config() {
        let mut g = TweetGenerator::new(TweetConfig::with_record_bytes(1000));
        let r = g.next_new();
        let bytes = r.encode().len();
        assert!((950..1100).contains(&bytes), "{bytes}");
    }
}
