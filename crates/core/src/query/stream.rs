//! Streaming query execution: [`RecordStream`] yields records batch by
//! batch with bounded memory.
//!
//! [`PreparedQuery::stream`](crate::query::PreparedQuery::stream) runs
//! steps 1-3 of the Figure 5 pipeline up front (the candidate set is
//! primary *keys* only — a few dozen bytes per match), then fetches full
//! records lazily: one batch of at most `batch_bytes` worth of records at a
//! time, through the same chunk fetch as the collecting path. A range
//! query whose records would not fit in RAM therefore holds at most one
//! batch of decoded records at any moment.
//!
//! Records are yielded in primary-key order: candidate keys are sorted, the
//! stream fetches them in consecutive chunks, and each fetched batch is
//! re-sorted into key order (the per-batch equivalent of the collecting
//! path's `sort_output`).

use crate::dataset::Dataset;
use crate::query::exec::{self, FetchPlan};
use crate::query::QueryOptions;
use lsm_common::{Record, Result, Value};
use std::collections::VecDeque;

/// A batch-at-a-time iterator over query results; see the module docs.
pub struct RecordStream<'a> {
    ds: &'a Dataset,
    /// The validated candidate keys and the chunk fetcher.
    plan: FetchPlan,
    /// Next position in the plan's keys to fetch.
    pos: usize,
    /// The current batch, in primary-key order.
    batch: VecDeque<Record>,
    /// Results still allowed out (`usize::MAX` = unlimited).
    remaining: usize,
    /// Diagnostics: batches fetched and the largest batch held so far.
    batches_fetched: usize,
    peak_batch_len: usize,
}

impl<'a> RecordStream<'a> {
    /// Gathers the candidates (steps 1-3 of Figure 5) and opens a stream
    /// over them.
    pub(crate) fn open(
        ds: &'a Dataset,
        index: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
        opts: &QueryOptions,
        limit: Option<usize>,
    ) -> Result<Self> {
        if opts.index_only {
            return Err(lsm_common::Error::invalid(
                "index-only queries return keys, not records; use execute()",
            ));
        }
        let plan = exec::gather(ds, index, lo, hi, opts)?;
        Ok(Self::over(ds, plan, limit))
    }

    /// A stream over an already-gathered candidate set.
    pub(crate) fn over(ds: &'a Dataset, plan: FetchPlan, limit: Option<usize>) -> Self {
        RecordStream {
            ds,
            plan,
            pos: 0,
            batch: VecDeque::new(),
            remaining: limit.unwrap_or(usize::MAX),
            batches_fetched: 0,
            peak_batch_len: 0,
        }
    }

    /// Keys fetched per batch (derived from `batch_bytes` and the primary
    /// index's average record size).
    pub fn keys_per_batch(&self) -> usize {
        self.plan.keys_per_batch
    }

    /// Batches fetched so far.
    pub fn batches_fetched(&self) -> usize {
        self.batches_fetched
    }

    /// The largest number of records held in memory at once so far.
    pub fn peak_batch_len(&self) -> usize {
        self.peak_batch_len
    }

    /// Fetches the next chunk of candidate keys into `self.batch`, re-sorted
    /// into key order so the stream is globally primary-key ordered.
    fn fetch_next_batch(&mut self) -> Result<()> {
        while self.batch.is_empty() && self.pos < self.plan.keys.len() {
            let end = (self.pos + self.plan.keys_per_batch).min(self.plan.keys.len());
            self.batch = self.plan.fetch_chunk(self.ds, self.pos..end, true)?.into();
            self.pos = end;
            self.batches_fetched += 1;
            self.peak_batch_len = self.peak_batch_len.max(self.batch.len());
        }
        Ok(())
    }
}

impl Iterator for RecordStream<'_> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        if self.batch.is_empty() {
            if let Err(e) = self.fetch_next_batch() {
                self.remaining = 0; // a failed stream stays finished
                return Some(Err(e));
            }
        }
        let record = self.batch.pop_front()?;
        self.remaining -= 1;
        Some(Ok(record))
    }
}

impl std::fmt::Debug for RecordStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordStream")
            .field("candidates", &self.plan.keys.len())
            .field("pos", &self.pos)
            .field("keys_per_batch", &self.plan.keys_per_batch)
            .field("buffered", &self.batch.len())
            .finish()
    }
}
