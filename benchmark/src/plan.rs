//! Set-up: everything a run feeds the engine and everything it expects
//! back, made from the seed before the first timed operation.

use crate::gen::{user_range, Mirror, OpStream, Rng};
use crate::spec::{Workload, GET_SLICE, Q_LARGE_SHARE, Q_SMALL_BATCH, Q_SMALL_SHARE};
use crate::stats::median;
use lsm_common::Value;
use std::collections::HashMap;
use std::time::Instant;

/// A point read and the op holding the version it must return.
#[derive(Debug, Clone)]
pub struct GetQ {
    /// Primary key.
    pub key: Value,
    /// Index of the expected version in the stream (`None` = absent).
    pub expect: Option<u32>,
}

/// A `user_id` range query and its expected rows.
#[derive(Debug, Clone)]
pub struct RangeQ {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// `(pk, op index of its latest version)`, ascending by pk.
    pub expect: Vec<(i64, u32)>,
}

/// A `creation_time` filter scan and its expected match count.
#[derive(Debug, Clone, Copy)]
pub struct ScanQ {
    /// Inclusive lower bound (`None` = open).
    pub lo: Option<i64>,
    /// Inclusive upper bound.
    pub hi: Option<i64>,
    /// Live records in the window.
    pub expect: u64,
}

/// One round of reads, executed from bulk to point.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Newest window, oldest window, unbounded.
    pub scans: Vec<ScanQ>,
    /// 1 % queries returning records.
    pub q_large: Vec<RangeQ>,
    /// 1 % queries returning keys only.
    pub ixonly: Vec<RangeQ>,
    /// Batches of selective queries.
    pub q_small: Vec<Vec<RangeQ>>,
    /// Slices of point reads.
    pub get_slices: Vec<Vec<GetQ>>,
}

/// The inputs of a run, shared by all of its (identical) episodes.
#[derive(Debug)]
pub struct Inputs {
    /// The workload, scaled.
    pub w: Workload,
    /// Preload, timed ingest and post-checkpoint tail, back to back.
    pub stream: OpStream,
    /// Encoded bytes of the latest version of every key at the end of the
    /// stream: what the memory budget, merge cap and cache are shares of.
    pub live_bytes: u64,
    /// Encoded bytes of the latest versions once the timed ingest is done.
    pub live_bytes_after_ingest: u64,
    /// Σ encoded bytes of the timed ingest's ops.
    pub ingest_user_bytes: u64,
    /// The reads of one episode, each round's expectations taken where the
    /// round runs.
    pub rounds: Vec<Round>,
    /// Every tail key plus a 1-in-10 sample of all keys, with the version
    /// each must show after recovery.
    pub verify: Vec<GetQ>,
    /// For each op, the index of the next op on the same key
    /// (`u32::MAX` = none): what a read racing the writer may return.
    pub next_version: Vec<u32>,
    /// Wall seconds of generation (segment-median estimate) and planning.
    pub setup_secs: f64,
}

impl Inputs {
    /// Ops applied before the timed ingest starts.
    pub fn preload_end(&self) -> usize {
        self.w.preload_ops
    }

    /// Ops applied when the timed ingest is done.
    pub fn ingest_end(&self) -> usize {
        self.w.preload_ops + self.w.ingest_ops
    }

    /// Ops applied when round `r`'s share of the ingest is done.
    pub fn round_end(&self, r: usize) -> usize {
        self.w.preload_ops + self.w.ingest_ops * (r + 1) / self.w.read.rounds
    }

    /// Builds the inputs of `w` from `seed`.
    pub fn build(w: Workload, seed: u64) -> Inputs {
        // The stream is generated in equal segments and charged as their
        // count times the median segment: a host burst during one segment
        // does not move `setup_s`.
        const SEGMENTS: usize = 5;
        let read_at = w.preload_ops + w.ingest_ops;
        let total = read_at + w.tail_ops;
        let mut stream = OpStream::new(seed, w.update_ratio, w.update_dist);
        let mut segment_secs = Vec::with_capacity(SEGMENTS);
        for i in 0..SEGMENTS {
            let upto = total * (i + 1) / SEGMENTS;
            let t = Instant::now();
            stream.extend(upto - stream.ops.len());
            segment_secs.push(t.elapsed().as_secs_f64());
        }
        let generate_secs = median(&segment_secs) * SEGMENTS as f64;

        let t = Instant::now();
        let mut mirror = Mirror::new(total);
        let mut rng = Rng::fork(seed, 3);
        let mut rounds = Vec::with_capacity(w.read.rounds);
        for r in 0..w.read.rounds {
            // One client reads after each share of the ingest. A reader that
            // races the writer is checked against what had been acknowledged
            // (see `Judge::Racing`); its exact pass comes once the whole
            // ingest has settled, and it only asks for keys the preload
            // issued, so every present key exists from its first read.
            let (at, population) = if w.clients > 1 {
                (read_at, stream.issued_after[w.preload_ops - 1] as usize)
            } else {
                let at = w.preload_ops + w.ingest_ops * (r + 1) / w.read.rounds;
                (at, stream.issued_after[at - 1] as usize)
            };
            mirror.advance(&stream, at);
            rounds.push(plan_round(&w, &stream, &mirror, population, at, &mut rng));
        }
        let live_bytes_after_ingest = mirror.live_bytes();

        mirror.advance(&stream, total);
        let mut verify: Vec<GetQ> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for op in &stream.ops[read_at..] {
            if seen.insert(op.pk) {
                verify.push(get_q(&mirror, op.pk));
            }
        }
        for &pk in stream.issued.iter().step_by(10) {
            if seen.insert(pk) {
                verify.push(get_q(&mirror, pk));
            }
        }

        let mut next_version = vec![u32::MAX; total];
        let mut later: HashMap<i64, u32> = HashMap::new();
        for (i, op) in stream.ops.iter().enumerate().rev() {
            if let Some(next) = later.insert(op.pk, i as u32) {
                next_version[i] = next;
            }
        }

        let ingest_user_bytes = stream.ops[w.preload_ops..read_at]
            .iter()
            .map(|op| u64::from(op.enc_len))
            .sum();
        Inputs {
            w,
            live_bytes: mirror.live_bytes(),
            live_bytes_after_ingest,
            ingest_user_bytes,
            rounds,
            verify,
            next_version,
            setup_secs: generate_secs + t.elapsed().as_secs_f64(),
            stream,
        }
    }
}

fn get_q(mirror: &Mirror, pk: i64) -> GetQ {
    GetQ {
        key: Value::Int(pk),
        expect: mirror.latest(pk).map(|i| i as u32),
    }
}

fn range_q(mirror: &Mirror, rng: &mut Rng, share: f64) -> RangeQ {
    let (lo, hi) = user_range(rng, share);
    let expect = mirror
        .pks_by_user(lo, hi)
        .into_iter()
        .map(|pk| (pk, mirror.latest(pk).expect("indexed key is live") as u32))
        .collect();
    RangeQ { lo, hi, expect }
}

fn plan_round(
    w: &Workload,
    stream: &OpStream,
    mirror: &Mirror,
    population: usize,
    read_at: usize,
    rng: &mut Rng,
) -> Round {
    let mix = &w.read;
    let get_slices = (0..mix.get_slices)
        .map(|_| {
            (0..GET_SLICE)
                .map(|_| {
                    let pk = if rng.unit() < mix.absent_share {
                        stream.absent_key(rng)
                    } else {
                        stream.issued[mix.get_dist.pick(rng, population)]
                    };
                    get_q(mirror, pk)
                })
                .collect()
        })
        .collect();
    let q_small = (0..mix.q_small_batches)
        .map(|_| {
            (0..Q_SMALL_BATCH)
                .map(|_| range_q(mirror, rng, Q_SMALL_SHARE))
                .collect()
        })
        .collect();
    let q_large = (0..mix.q_large)
        .map(|_| range_q(mirror, rng, Q_LARGE_SHARE))
        .collect();
    let ixonly = (0..mix.ixonly)
        .map(|_| range_q(mirror, rng, Q_LARGE_SHARE))
        .collect();
    let window = ((read_at as f64 * mix.scan_window) as i64).max(1);
    let end = read_at as i64 - 1;
    let scans = [
        (Some(end - window + 1), Some(end)),
        (Some(0), Some(window - 1)),
        (None, None),
    ]
    .into_iter()
    .map(|(lo, hi)| ScanQ {
        lo,
        hi,
        expect: mirror.count_by_time(lo, hi),
    })
    .collect();
    Round {
        get_slices,
        q_small,
        q_large,
        ixonly,
        scans,
    }
}
