//! Write-ahead log with group commit.
//!
//! AsterixDB uses index-level logical logging with a no-steal/no-force
//! buffer policy (Section 2.2); log records carry an **update bit** telling
//! recovery whether a delete/upsert mutated a disk component's bitmap
//! (Section 5.2). We log one logical record per dataset operation — enough
//! to replay every index of the dataset — and use the operation timestamp
//! as the LSN, which makes "committed transactions beyond the maximum
//! component LSN" directly computable from component IDs.
//!
//! # Group commit
//!
//! Records are staged into pages under a short-held mutex; completed pages
//! queue FIFO and a single **leader** — whichever committer finds the queue
//! non-empty with no writer active — drains them to the device *outside*
//! the lock. Concurrent committers therefore never wait on each other's
//! device writes: they stage and return (the engine is no-force, so a
//! record is not promised durable until the next [`Wal::force`] /
//! checkpoint), and one leader's single page-sized append covers the whole
//! group. [`Wal::force`] waits for any active leader via a condvar and then
//! drains whatever remains itself, so a failed leader cannot strand pages.
//!
//! ## Frame-ordering invariant
//!
//! Replay tolerates a damaged record only on the log's **final** page (a
//! torn tail); anywhere earlier it is corruption. That is sound only if
//! device frame order equals staging order — a page written out of order
//! could leave a torn frame *behind* a good one and turn an ordinary crash
//! into "corruption". Two rules preserve the invariant now that writes
//! happen outside the lock:
//!
//! 1. **Single leader, FIFO queue.** Only one thread writes at a time and
//!    always takes the oldest queued page, so a record staged into a
//!    freshly started page can never reach the device ahead of an earlier
//!    (e.g. concurrently forced) page.
//! 2. **A failed page is dropped, not retried.** If the device rejects a
//!    page (possibly leaving a torn frame as the last on the device), the
//!    leader returns the error to its own caller and the page's records
//!    are discarded — no-steal means they were never promised durable.
//!    Retrying, or writing the *next* queued page, would bury the torn
//!    frame mid-file. The remaining queue stays intact for a later leader
//!    only because nothing was written after the failure point.
//!
//! Note that LSN order across pages is *not* an invariant: concurrent
//! committers tick their timestamps under per-key locks and stage under
//! the log mutex, so two records can stage in the opposite order of their
//! LSNs. [`Wal::replay`] therefore stable-sorts the decoded records by
//! LSN, which recovery's idempotent redo requires.
//!
//! ## Redo point
//!
//! The log remembers the largest LSN of each durable page (8 B a page,
//! pushed by the leader only once the page's append succeeded). For an LSN
//! `low`, `Wal::redo_page` is the first durable page holding a record
//! above `low`: every page before it holds only records at or below `low`,
//! so a replay of the records above any LSN `>= low` may start there. The
//! per-page *maximum* is what makes this sound under out-of-order LSNs — a
//! page's first LSN says nothing about the records behind it. Recovery
//! stamps the redo page into the checkpoint state, not this in-memory
//! list, which a restart would lose.
//!
//! Each record carries a checksum of its body, so a torn or short write of
//! the log's final page (a crash mid-write, or an injected
//! [`FaultPlan`](lsm_storage::FaultPlan) tear) is detected at replay.
//! Damage on the *last* page is a torn tail — the log simply ends at the
//! last intact record, which is correct because a torn final write can
//! only hold records whose force never completed (uncommitted by
//! definition). Damage on an earlier page is real corruption and fails
//! replay.

use crate::stats::EngineStats;
use lsm_common::{Bytes, Error, Key, Result, Timestamp};
use lsm_storage::{PageNo, Storage, WriteFile};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Crash site probed by the group-commit leader immediately before each
/// device page write: a crash here loses the whole staged group, which is
/// exactly the committed-prefix contract torture verifies.
const GROUP_WRITE_SITE: &str = "wal_group_write";

/// Logical operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// Insert of a new record.
    Insert = 1,
    /// Upsert (blind write).
    Upsert = 2,
    /// Delete by key.
    Delete = 3,
    /// Checkpoint marker: everything at or below this LSN is durable in
    /// components and checkpointed bitmap pages.
    Checkpoint = 4,
}

impl LogOp {
    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            1 => LogOp::Insert,
            2 => LogOp::Upsert,
            3 => LogOp::Delete,
            4 => LogOp::Checkpoint,
            _ => return Err(Error::corruption(format!("bad log op {v}"))),
        })
    }
}

/// One logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// LSN = operation timestamp.
    pub lsn: Timestamp,
    /// Operation kind.
    pub op: LogOp,
    /// Encoded primary key (empty for checkpoints).
    pub key: Key,
    /// What replay needs besides the key, as a sequence of self-delimiting
    /// [`Value`](lsm_common::Value) encodings: for an insert or upsert the
    /// encoded record; for a delete nothing. Under Eager, an upsert or
    /// delete of a key with an old version appends that version's values of
    /// the fields Eager maintenance reads — each secondary index's field in
    /// index order, then the filter field — so replay never looks the old
    /// version up.
    pub value: Bytes,
    /// True if the operation mutated a disk component's bitmap
    /// (Mutable-bitmap strategy's update bit).
    pub update_bit: bool,
}

/// Reads a little-endian `u32` from a slice the caller has already
/// bounds-checked to exactly four bytes.
fn le32(b: &[u8]) -> u32 {
    // INVARIANT: every caller slices exactly 4 length-checked bytes.
    u32::from_le_bytes(b.try_into().unwrap())
}

/// Reads a little-endian `u64` from a slice the caller has already
/// bounds-checked to exactly eight bytes.
fn le64(b: &[u8]) -> u64 {
    // INVARIANT: every caller slices exactly 8 length-checked bytes.
    u64::from_le_bytes(b.try_into().unwrap())
}

/// Bytes a frame spends around its key and value: length prefix (4), LSN
/// (8), op (1), update bit (1), key and value lengths (4 + 4), checksum (4).
const FRAME_OVERHEAD: usize = 26;

/// Checksum of a frame body: two independent multiply-xor lanes over
/// little-endian `u64` words, the tail bytes zero-padded into a last word,
/// and the body length folded into the seed — so a zero-filled suffix (a
/// torn write), a truncation (a short write) and a flipped bit all change
/// it. Not cryptographic; it guards against damage, not forgery.
fn checksum(data: &[u8]) -> u32 {
    const K0: u64 = 0x9E37_79B9_7F4A_7C15;
    const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mix = |lane: u64, word: [u8; 8], k: u64| {
        (lane ^ u64::from_le_bytes(word))
            .wrapping_mul(k)
            .rotate_left(31)
    };
    let (words, tail) = data.as_chunks::<8>();
    let mut a = K0 ^ data.len() as u64;
    let mut b = K1;
    let mut pairs = words.chunks_exact(2);
    for pair in &mut pairs {
        a = mix(a, pair[0], K0);
        b = mix(b, pair[1], K1);
    }
    if let [word] = pairs.remainder() {
        a = mix(a, *word, K0);
    }
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    b = mix(b, last, K1);
    let mut h = (a ^ b.rotate_left(17)).wrapping_mul(K0);
    h ^= h >> 29;
    h = h.wrapping_mul(K1);
    (h ^ (h >> 32)) as u32
}

/// One log record borrowed from whoever is committing it. Every append
/// goes through this view, so a record's key and value are copied exactly
/// once — by [`Frame::encode_into`], into the staging page. The value is
/// `value` followed by `appended`, so a writer can log two buffers it holds
/// apart (a record and Eager's old fields) without joining them first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub(crate) lsn: Timestamp,
    pub(crate) op: LogOp,
    pub(crate) update_bit: bool,
    pub(crate) key: &'a [u8],
    pub(crate) value: &'a [u8],
    pub(crate) appended: &'a [u8],
}

impl Frame<'_> {
    /// Length of the logged value.
    fn value_len(&self) -> usize {
        self.value.len() + self.appended.len()
    }

    /// Encoded length, known before a byte is written.
    fn len(&self) -> usize {
        FRAME_OVERHEAD + self.key.len() + self.value_len()
    }

    /// Appends `[len][lsn][op][update_bit][klen][key][vlen][value][sum]`
    /// to `page`: `len` counts the body (everything between itself and
    /// the checksum), which is also what the checksum covers.
    fn encode_into(&self, page: &mut Vec<u8>) {
        let start = page.len();
        page.extend_from_slice(&((self.len() - 8) as u32).to_le_bytes());
        page.extend_from_slice(&self.lsn.to_le_bytes());
        page.push(self.op as u8);
        page.push(u8::from(self.update_bit));
        page.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        page.extend_from_slice(self.key);
        page.extend_from_slice(&(self.value_len() as u32).to_le_bytes());
        page.extend_from_slice(self.value);
        page.extend_from_slice(self.appended);
        let sum = checksum(&page[start + 4..]);
        page.extend_from_slice(&sum.to_le_bytes());
    }
}

impl LogRecord {
    fn frame(&self) -> Frame<'_> {
        Frame {
            lsn: self.lsn,
            op: self.op,
            update_bit: self.update_bit,
            key: &self.key,
            value: &self.value,
            appended: &[],
        }
    }

    fn decode(buf: &[u8]) -> Result<(LogRecord, usize)> {
        if buf.len() < 4 {
            return Err(Error::corruption("truncated log length"));
        }
        let len = le32(&buf[0..4]) as usize;
        let body = buf
            .get(4..4 + len)
            .ok_or_else(|| Error::corruption("truncated log body"))?;
        let sum = buf
            .get(4 + len..8 + len)
            .ok_or_else(|| Error::corruption("truncated log checksum"))?;
        if le32(sum) != checksum(body) {
            return Err(Error::corruption("log record checksum mismatch"));
        }
        if body.len() < 18 {
            return Err(Error::corruption("log body too short"));
        }
        let lsn = le64(&body[0..8]);
        let op = LogOp::from_u8(body[8])?;
        let update_bit = body[9] != 0;
        let klen = le32(&body[10..14]) as usize;
        let key = body
            .get(14..14 + klen)
            .ok_or_else(|| Error::corruption("truncated log key"))?
            .to_vec();
        let voff = 14 + klen;
        let vlen = le32(
            body.get(voff..voff + 4)
                .ok_or_else(|| Error::corruption("truncated log vlen"))?,
        ) as usize;
        let value = body
            .get(voff + 4..voff + 4 + vlen)
            .ok_or_else(|| Error::corruption("truncated log value"))?
            .to_vec();
        Ok((
            LogRecord {
                lsn,
                op,
                key,
                value,
                update_bit,
            },
            8 + len,
        ))
    }
}

/// The write-ahead log, on its own storage device (the paper dedicates one
/// of the two disks to transactional logging).
#[derive(Debug)]
pub struct Wal {
    storage: Arc<Storage>,
    /// The log's file: its device's write frontier, held for as long as
    /// the log lives.
    file: WriteFile,
    inner: Mutex<WalBuf>,
    /// Signaled each time a group-commit leader finishes (or aborts) its
    /// drain; [`Wal::force`] waits here.
    drained: Condvar,
    /// Engine counters for group-commit accounting and the
    /// [`GROUP_WRITE_SITE`] crash-site coverage signal; bound once by the
    /// owning dataset (a standalone log still counts on its device's
    /// [`IoStats`](lsm_storage::IoStats)).
    stats: OnceLock<Arc<EngineStats>>,
}

#[derive(Debug, Default)]
struct WalBuf {
    /// The currently filling page.
    page: Vec<u8>,
    /// Records staged into `page`.
    page_records: u64,
    /// Largest LSN staged into `page`.
    page_max_lsn: Timestamp,
    /// Completed pages awaiting the device, oldest first. Only the
    /// group-commit leader pops from this, front to back — see the
    /// frame-ordering invariant in the module docs.
    pending: VecDeque<StagedPage>,
    /// True while a leader is writing pending pages outside the lock.
    writer_active: bool,
    /// Largest LSN of each durable page, indexed by device page number.
    durable_max_lsn: Vec<Timestamp>,
}

/// A completed page on its way to the device.
#[derive(Debug)]
struct StagedPage {
    bytes: Vec<u8>,
    records: u64,
    max_lsn: Timestamp,
}

impl WalBuf {
    /// Moves the filling page (if any) onto the pending queue.
    fn rotate_page(&mut self) {
        if !self.page.is_empty() {
            self.pending.push_back(StagedPage {
                bytes: std::mem::take(&mut self.page),
                records: std::mem::replace(&mut self.page_records, 0),
                max_lsn: std::mem::replace(&mut self.page_max_lsn, 0),
            });
        }
    }
}

impl Wal {
    /// Creates a log at the write frontier of `storage`, its own device.
    pub fn new(storage: Arc<Storage>) -> Self {
        let file = storage.claim_frontier();
        Wal {
            storage,
            file,
            inner: Mutex::new(WalBuf::default()),
            drained: Condvar::new(),
            stats: OnceLock::new(),
        }
    }

    /// The log device.
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// Binds the owning engine's counters so group commits (and crash-site
    /// passages) show up in [`EngineStats`]. Idempotent; later binds are
    /// ignored.
    pub(crate) fn bind_stats(&self, stats: Arc<EngineStats>) {
        let _ = self.stats.set(stats);
    }

    /// Appends a record. The record is staged under a short-held lock; when
    /// a page fills, this committer either becomes the group leader (no
    /// writer active) and writes the group's pages, or returns immediately
    /// and lets the active leader cover it. No-force: the record is not
    /// durable until the next [`Wal::force`].
    pub fn append(&self, rec: &LogRecord) -> Result<()> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Appends a batch of records under ONE lock acquisition, so they are
    /// staged back to back and trigger at most one leader election. Page
    /// rotation still happens per fill — a large batch simply queues
    /// several pages for the same leader.
    pub fn append_batch(&self, recs: &[LogRecord]) -> Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        self.stage(recs.iter().map(LogRecord::frame))
    }

    /// [`Wal::append`] for a record whose key and value are still the
    /// committer's own buffers.
    pub(crate) fn append_frame(&self, frame: Frame<'_>) -> Result<()> {
        self.stage(std::iter::once(frame))
    }

    /// Encodes `frames` into the staging page, in order, under one lock
    /// acquisition. An oversize frame fails the whole call before anything
    /// is staged: a batch is never half-logged.
    fn stage<'a>(&self, frames: impl Iterator<Item = Frame<'a>> + Clone) -> Result<()> {
        let page_size = self.storage.page_size();
        if frames.clone().any(|f| f.len() > page_size) {
            return Err(Error::Storage("log record larger than page".into()));
        }
        let mut inner = self.inner.lock();
        for frame in frames {
            if inner.page.len() + frame.len() > page_size {
                inner.rotate_page();
            }
            if inner.page.capacity() == 0 {
                // One reservation per page, not a regrow per doubling.
                inner.page.reserve_exact(page_size);
            }
            frame.encode_into(&mut inner.page);
            inner.page_records += 1;
            inner.page_max_lsn = inner.page_max_lsn.max(frame.lsn);
        }
        if inner.pending.is_empty() || inner.writer_active {
            // Nothing to write, or an active leader will pick the pages up
            // on its next loop iteration (push and leader handoff are both
            // under this mutex, so the page cannot be missed).
            return Ok(());
        }
        self.drain_as_leader(inner)
    }

    /// Writes the pending queue to the device as the group-commit leader.
    /// Called with the lock held and `writer_active == false`; the lock is
    /// released across each device write and reacquired to pop the next
    /// page, so committers keep staging while the leader writes.
    fn drain_as_leader<'a>(&'a self, mut inner: MutexGuard<'a, WalBuf>) -> Result<()> {
        debug_assert!(!inner.writer_active);
        inner.writer_active = true;
        while let Some(page) = inner.pending.pop_front() {
            drop(inner);
            let res = self
                .group_write_site()
                .and_then(|()| self.storage.append_page(self.file.id(), &page.bytes));
            inner = self.inner.lock();
            match res {
                Ok(page_no) => {
                    // Only this log appends to its file, and a failed
                    // append adds no page, so the list stays indexed by
                    // device page number.
                    debug_assert_eq!(page_no as usize, inner.durable_max_lsn.len());
                    inner.durable_max_lsn.push(page.max_lsn);
                    self.note_group(page.records);
                }
                Err(e) => {
                    // Drop the failed page (its records were never promised
                    // durable) and stand down WITHOUT touching later pages:
                    // a torn frame must stay last on the device. A waiting
                    // force takes over the remainder.
                    inner.writer_active = false;
                    drop(inner);
                    self.drained.notify_all();
                    return Err(e);
                }
            }
        }
        inner.writer_active = false;
        drop(inner);
        self.drained.notify_all();
        Ok(())
    }

    /// Probes the [`GROUP_WRITE_SITE`] crash site, counted on the engine
    /// counters when they are bound.
    fn group_write_site(&self) -> Result<()> {
        let outcome = self.storage.probe_crash_site(GROUP_WRITE_SITE);
        EngineStats::count_crash_site(self.stats.get().map(Arc::as_ref), outcome)
    }

    /// Counts one durable group of `records` on the engine counters.
    fn note_group(&self, records: u64) {
        if let Some(s) = self.stats.get() {
            s.bump(&s.wal_groups);
            s.wal_grouped_records
                .fetch_add(records, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Forces buffered records to the device: stages the partial page and
    /// drains the queue, waiting out (or taking over from) any active
    /// leader, so on return every record staged before the call is durable.
    pub fn force(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.rotate_page();
        loop {
            if !inner.writer_active {
                if inner.pending.is_empty() {
                    return Ok(());
                }
                // No leader — drain the queue ourselves (including pages a
                // failed leader left behind).
                return self.drain_as_leader(inner);
            }
            self.drained.wait(&mut inner);
        }
    }

    /// Writes a checkpoint record at `lsn` and forces the log.
    pub fn checkpoint(&self, lsn: Timestamp) -> Result<()> {
        self.append(&LogRecord {
            lsn,
            op: LogOp::Checkpoint,
            key: Vec::new(),
            value: Vec::new(),
            update_bit: false,
        })?;
        self.force()
    }

    /// The first durable page holding a record with an LSN above `low`, or
    /// the durable page count if none does (see "Redo point" in the module
    /// docs): for any `after >= low`, [`Wal::replay_from`] this page
    /// returns what [`Wal::replay`] returns.
    pub(crate) fn redo_page(&self, low: Timestamp) -> PageNo {
        let inner = self.inner.lock();
        let durable = &inner.durable_max_lsn;
        durable
            .iter()
            .position(|&max| max > low)
            .unwrap_or(durable.len()) as PageNo
    }

    /// Reads back all records with `lsn > after_lsn`, sorted by LSN
    /// (stable, so a checkpoint marker stays after the equal-LSN operation
    /// it covers — concurrent committers may stage out of LSN order, see
    /// the module docs). Includes buffered (unforced) records only if
    /// `include_unforced` — a crash loses those, which is what recovery
    /// tests exercise.
    pub fn replay(&self, after_lsn: Timestamp, include_unforced: bool) -> Result<Vec<LogRecord>> {
        self.replay_from(0, after_lsn, include_unforced)
    }

    /// [`Wal::replay`] reading the device from page `first_page` on:
    /// records on earlier pages are neither read nor returned.
    pub(crate) fn replay_from(
        &self,
        first_page: PageNo,
        after_lsn: Timestamp,
        include_unforced: bool,
    ) -> Result<Vec<LogRecord>> {
        let mut out = Vec::new();
        let pages = self.storage.file_pages(self.file.id())?;
        for p in first_page..pages {
            let data = self.storage.read_page(self.file.id(), p)?;
            let last_page = p + 1 == pages;
            let mut off = 0;
            while off + 4 <= data.len() {
                let len = le32(&data[off..off + 4]) as usize;
                if len == 0 {
                    break;
                }
                match LogRecord::decode(&data[off..]) {
                    Ok((rec, used)) => {
                        if rec.lsn > after_lsn {
                            out.push(rec);
                        }
                        off += used;
                    }
                    // A damaged record on the final page is a torn tail —
                    // the write it belonged to never completed, so the log
                    // ends at the last intact record. Anywhere earlier it
                    // is corruption of already-committed history (the
                    // frame-ordering invariant guarantees a torn frame can
                    // only be last).
                    Err(_) if last_page => {
                        out.sort_by_key(|r| r.lsn);
                        return Ok(out);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        if include_unforced {
            let inner = self.inner.lock();
            for staged in &inner.pending {
                let page = &staged.bytes;
                let mut off = 0;
                while off + 4 <= page.len() {
                    let (rec, used) = LogRecord::decode(&page[off..])?;
                    if rec.lsn > after_lsn {
                        out.push(rec);
                    }
                    off += used;
                }
            }
            let mut off = 0;
            while off + 4 <= inner.page.len() {
                let (rec, used) = LogRecord::decode(&inner.page[off..])?;
                if rec.lsn > after_lsn {
                    out.push(rec);
                }
                off += used;
            }
        }
        out.sort_by_key(|r| r.lsn);
        Ok(out)
    }

    /// Drops buffered, unforced records — the staging page and any pending
    /// pages that never reached the device (simulates losing them in a
    /// crash).
    pub(crate) fn drop_unforced(&self) {
        let mut inner = self.inner.lock();
        inner.page.clear();
        inner.page_records = 0;
        inner.page_max_lsn = 0;
        inner.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::StorageOptions;
    use proptest::prelude::*;

    fn encode(rec: &LogRecord) -> Vec<u8> {
        let mut frame = Vec::new();
        rec.frame().encode_into(&mut frame);
        frame
    }

    fn arb_record() -> impl Strategy<Value = LogRecord> {
        let op = prop_oneof![
            Just(LogOp::Insert),
            Just(LogOp::Upsert),
            Just(LogOp::Delete),
            Just(LogOp::Checkpoint)
        ];
        (
            (any::<u64>(), op, any::<bool>()),
            proptest::collection::vec(any::<u8>(), 0..40),
            proptest::collection::vec(any::<u8>(), 0..700),
        )
            .prop_map(|((lsn, op, update_bit), key, value)| LogRecord {
                lsn,
                op,
                key,
                value,
                update_bit,
            })
    }

    proptest! {
        // What the device can do to a frame — cut it short (`ShortWrite`,
        // a page boundary), zero its tail (`TornWrite`), flip a bit — is
        // always noticed; an undamaged frame always comes back.
        #[test]
        fn frame_roundtrips_and_damage_is_rejected(
            rec in arb_record(),
            flips in proptest::collection::vec(any::<usize>(), 32),
        ) {
            let frame = encode(&rec);
            prop_assert_eq!(frame.len(), 26 + rec.key.len() + rec.value.len());
            let (back, used) = LogRecord::decode(&frame).unwrap();
            prop_assert_eq!(&back, &rec);
            prop_assert_eq!(used, frame.len());
            // Trailing bytes (the next frame) are not this frame's business.
            let mut followed = frame.clone();
            followed.extend_from_slice(&[0xAB; 9]);
            prop_assert_eq!(LogRecord::decode(&followed).unwrap(), (back, used));

            for cut in 0..frame.len() {
                prop_assert!(LogRecord::decode(&frame[..cut]).is_err(), "prefix of {cut} bytes accepted");
            }
            for keep in 0..frame.len() {
                let mut torn = frame.clone();
                torn[keep..].fill(0);
                if torn != frame {
                    prop_assert!(LogRecord::decode(&torn).is_err(), "tear after {keep} bytes accepted");
                }
            }
            // Sampled over the whole frame, plus every bit of the length
            // prefix and of the stored sum.
            let bits = frame.len() * 8;
            let edges = (0..32).chain(bits - 32..bits);
            for bit in flips.iter().map(|f| f % bits).chain(edges) {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(LogRecord::decode(&flipped).is_err(), "flip of bit {bit} accepted");
            }
        }

        // A value handed over as two buffers logs the frame of the joined
        // value, byte for byte.
        #[test]
        fn split_value_frames_as_the_joined_value(rec in arb_record(), at in any::<usize>()) {
            let (value, appended) = rec.value.split_at(at % (rec.value.len() + 1));
            let mut frame = Vec::new();
            Frame { value, appended, ..rec.frame() }.encode_into(&mut frame);
            prop_assert_eq!(frame, encode(&rec));
        }
    }

    /// The LSNs of device page `p`, in frame order.
    fn page_lsns(w: &Wal, p: PageNo) -> Vec<Timestamp> {
        let data = w.storage().read_page(w.file.id(), p).unwrap();
        let mut off = 0;
        let mut lsns = Vec::new();
        while off + 4 <= data.len() && le32(&data[off..off + 4]) != 0 {
            let (r, used) = LogRecord::decode(&data[off..]).unwrap();
            lsns.push(r.lsn);
            off += used;
        }
        lsns
    }

    proptest! {
        // Concurrent committers stage out of LSN order, across page
        // boundaries too: for every LSN `l`, the redo page is the first
        // page holding a record above `l` — not the first page whose first
        // LSN is above it — and replay from there returns exactly what
        // replay from page 0 returns.
        #[test]
        fn replay_from_redo_page_matches_full_replay(
            staged in proptest::collection::vec((0u64..24, 0usize..1200, 0u8..8), 1..80),
        ) {
            let w = wal();
            for (i, &(jitter, value_len, force)) in staged.iter().enumerate() {
                w.append(&LogRecord {
                    lsn: 1 + 8 * i as u64 + jitter,
                    op: LogOp::Upsert,
                    key: (i as u64).to_be_bytes().to_vec(),
                    value: vec![7; value_len],
                    update_bit: false,
                })
                .unwrap();
                if force == 0 {
                    w.force().unwrap(); // a partly filled page
                }
            }
            w.force().unwrap();
            let pages: Vec<_> = (0..w.storage().file_pages(w.file.id()).unwrap())
                .map(|p| page_lsns(&w, p))
                .collect();
            // Both sides change only where `l` crosses a staged LSN.
            for l in std::iter::once(0).chain(pages.iter().flatten().copied()) {
                let first = pages.iter().position(|lsns| lsns.iter().any(|&x| x > l));
                let redo = w.redo_page(l);
                prop_assert_eq!(redo as usize, first.unwrap_or(pages.len()), "redo page of {}", l);
                prop_assert_eq!(w.replay_from(redo, l, false).unwrap(), w.replay(l, false).unwrap());
            }
        }
    }

    /// The page-fill rule is part of the cost contract (`log_bytes_written`,
    /// `recover_sim_s`): a frame that does not fit the staging page starts
    /// the next one, and a frame is `26 + key + value` bytes. The expected
    /// figures were recorded from the commit before the in-place encoder.
    #[test]
    fn fixed_stream_fills_pages_as_before() {
        let w = wal();
        let mut payload = 0u64;
        for i in 0..2000u64 {
            let value_len = 450 + (i * 37 % 101) as usize;
            payload += 8 + value_len as u64;
            w.append(&LogRecord {
                lsn: i + 1,
                op: LogOp::Upsert,
                key: (i * 7919).to_be_bytes().to_vec(),
                value: vec![(i % 251) as u8; value_len],
                update_bit: i % 3 == 0,
            })
            .unwrap();
        }
        w.force().unwrap();
        let io = w.storage().stats();
        assert_eq!(io.bytes_written, payload + 2000 * 26);
        assert_eq!((io.pages_written, io.bytes_written), (286, 1_067_983));
        assert_eq!(w.replay(0, false).unwrap().len(), 2000);
    }

    fn wal() -> Wal {
        Wal::new(Storage::new(StorageOptions::test()))
    }

    fn rec(lsn: u64, op: LogOp) -> LogRecord {
        LogRecord {
            lsn,
            op,
            key: vec![1, 2, 3],
            value: vec![9; 10],
            update_bit: lsn.is_multiple_of(2),
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = rec(7, LogOp::Upsert);
        let enc = encode(&r);
        let (back, used) = LogRecord::decode(&enc).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn append_replay_in_order() {
        let w = wal();
        for i in 1..=100u64 {
            w.append(&rec(i, LogOp::Insert)).unwrap();
        }
        w.force().unwrap();
        let all = w.replay(0, false).unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|p| p[0].lsn < p[1].lsn));
        let tail = w.replay(90, false).unwrap();
        assert_eq!(tail.len(), 10);
        assert_eq!(tail[0].lsn, 91);
    }

    #[test]
    fn unforced_records_lost_on_crash() {
        let w = wal();
        w.append(&rec(1, LogOp::Insert)).unwrap();
        w.force().unwrap();
        w.append(&rec(2, LogOp::Insert)).unwrap();
        // Not forced: visible only when asked for unforced.
        assert_eq!(w.replay(0, true).unwrap().len(), 2);
        w.drop_unforced();
        assert_eq!(w.replay(0, true).unwrap().len(), 1);
    }

    #[test]
    fn pages_fill_and_rotate() {
        let w = wal();
        let page_size = w.storage().page_size();
        let before = w.storage().stats().pages_written;
        // Each record ~40 bytes; write enough to fill several pages.
        let n = (page_size / 30) * 3;
        for i in 1..=n as u64 {
            w.append(&rec(i, LogOp::Upsert)).unwrap();
        }
        let written = w.storage().stats().pages_written - before;
        assert!(written >= 2, "expected multiple page writes, got {written}");
        w.force().unwrap();
        assert_eq!(w.replay(0, false).unwrap().len(), n);
    }

    #[test]
    fn checkpoint_tracks_lsn() {
        let w = wal();
        w.append(&rec(5, LogOp::Insert)).unwrap();
        w.checkpoint(5).unwrap();
        // The marker is forced, behind the record it covers.
        let forced: Vec<_> = w
            .replay(0, false)
            .unwrap()
            .iter()
            .map(|r| (r.op, r.lsn))
            .collect();
        assert_eq!(forced, vec![(LogOp::Insert, 5), (LogOp::Checkpoint, 5)]);
        // Replay after the checkpoint LSN skips the old record and the
        // marker, which carries the same LSN.
        assert!(w.replay(5, false).unwrap().is_empty());
    }

    #[test]
    fn oversized_record_rejected() {
        let w = wal();
        let r = LogRecord {
            lsn: 1,
            op: LogOp::Insert,
            key: vec![0; 10],
            value: vec![0; w.storage().page_size()],
            update_bit: false,
        };
        assert!(w.append(&r).is_err());
    }

    #[test]
    fn oversized_record_fails_its_whole_batch_before_staging() {
        let w = wal();
        let mut batch: Vec<LogRecord> = (1..=3u64).map(|i| rec(i, LogOp::Upsert)).collect();
        batch[2].value = vec![0; w.storage().page_size()];
        assert!(w.append_batch(&batch).is_err());
        // Not even the two records ahead of the oversize one were staged.
        assert!(w.replay(0, true).unwrap().is_empty());
        w.force().unwrap();
        assert_eq!(w.storage().stats().pages_written, 0);
        // A frame of exactly one page is the largest accepted.
        batch[2].value = vec![0; w.storage().page_size() - 26 - batch[2].key.len()];
        w.append_batch(&batch).unwrap();
        assert_eq!(w.replay(0, true).unwrap().len(), 3);
    }

    #[test]
    fn group_commit_counters_cover_all_records() {
        let w = wal();
        let stats = Arc::new(EngineStats::new());
        w.bind_stats(stats.clone());
        let n = (w.storage().page_size() / 30) * 2;
        for i in 1..=n as u64 {
            w.append(&rec(i, LogOp::Upsert)).unwrap();
        }
        w.force().unwrap();
        let snap = stats.snapshot();
        assert!(snap.wal_groups >= 2, "several pages → several groups");
        assert_eq!(snap.wal_grouped_records, n as u64, "every record grouped");
        assert!(snap.wal_grouped_records / snap.wal_groups > 1);
    }

    #[test]
    fn group_write_site_counts_armed_and_hit_passages() {
        use lsm_storage::fault::{FaultAction, FaultPlan, FaultSpec, FaultTrigger};
        let w = wal();
        let stats = Arc::new(EngineStats::new());
        w.bind_stats(stats.clone());
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::Site {
                name: GROUP_WRITE_SITE.to_string(),
                hit: 1,
            },
            action: FaultAction::Crash,
        }]);
        w.storage().install_fault_plan(plan.clone());
        plan.arm();
        // Each force writes one page: the first passage is armed, the
        // second fires.
        let counts = || {
            let snap = stats.snapshot();
            (snap.crash_sites_armed, snap.crash_sites_hit)
        };
        w.append(&rec(1, LogOp::Upsert)).unwrap();
        w.force().unwrap();
        assert_eq!(counts(), (1, 0));
        w.append(&rec(2, LogOp::Upsert)).unwrap();
        assert!(w.force().is_err(), "the fired site aborts the group write");
        assert_eq!(counts(), (2, 1));
        w.storage().clear_fault_plan();
    }

    #[test]
    fn batch_append_is_one_staging_step() {
        let w = wal();
        let recs: Vec<LogRecord> = (1..=10u64).map(|i| rec(i, LogOp::Upsert)).collect();
        w.append_batch(&recs).unwrap();
        w.force().unwrap();
        let all = w.replay(0, false).unwrap();
        assert_eq!(all.len(), 10);
        assert!(all.windows(2).all(|p| p[0].lsn < p[1].lsn));
    }

    #[test]
    fn device_frame_order_follows_staging_order() {
        // Regression for the flush-then-buffer reorder hazard: with a full
        // page queued AND records already staged into the fresh page, a
        // force must write the queued page first — the fresh page's
        // records may never reach the device ahead of it.
        let w = wal();
        let page_size = w.storage().page_size();
        let mut lsn = 0u64;
        // Fill until at least one page has rotated to the device, then
        // stage one more record into the fresh page and force.
        let before = w.storage().stats().pages_written;
        while w.storage().stats().pages_written == before {
            lsn += 1;
            w.append(&rec(lsn, LogOp::Upsert)).unwrap();
        }
        lsn += 1;
        w.append(&rec(lsn, LogOp::Upsert)).unwrap();
        w.force().unwrap();
        // Decode the device pages raw: the first LSN of each page must be
        // larger than every LSN of the page before it.
        let pages = w.storage().file_pages(w.file.id()).unwrap();
        assert!(pages >= 2);
        let mut prev_max = 0u64;
        for p in 0..pages {
            let page_lsns = page_lsns(&w, p);
            assert!(!page_lsns.is_empty());
            assert!(
                *page_lsns.first().unwrap() > prev_max,
                "page {p} starts at {} but an earlier page reached {prev_max}",
                page_lsns.first().unwrap()
            );
            prev_max = *page_lsns.last().unwrap();
        }
        assert_eq!(w.replay(0, false).unwrap().len(), lsn as usize);
        let _ = page_size;
    }

    #[test]
    fn concurrent_committers_share_groups() {
        // 4 writer threads × disjoint LSN ranges; all records must survive
        // replay exactly once, LSN-sorted, and the forced tail must be
        // covered by group-commit appends.
        let w = Arc::new(wal());
        let stats = Arc::new(EngineStats::new());
        w.bind_stats(stats.clone());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let lsn = 1 + t * 200 + i;
                        w.append(&rec(lsn, LogOp::Upsert)).unwrap();
                    }
                });
            }
        });
        w.force().unwrap();
        let all = w.replay(0, false).unwrap();
        assert_eq!(all.len(), 800);
        assert!(all.windows(2).all(|p| p[0].lsn < p[1].lsn));
        let snap = stats.snapshot();
        assert_eq!(snap.wal_grouped_records, 800);
        assert!(snap.wal_groups >= 1);
    }

    #[test]
    fn failed_leader_leaves_queue_for_force() {
        use lsm_storage::fault::{FaultAction, FaultOp, FaultPlan, FaultSpec, FaultTrigger};
        let w = wal();
        // Fill two pages' worth, then make the next device append fail
        // once. The force after the failure must still drain what remains.
        let n = (w.storage().page_size() / 30) as u64;
        for i in 1..=n {
            w.append(&rec(i, LogOp::Upsert)).unwrap();
        }
        w.force().unwrap();
        let durable = w.replay(0, false).unwrap().len();
        let plan = FaultPlan::new(vec![FaultSpec {
            trigger: FaultTrigger::OpIndex {
                op: FaultOp::Append,
                index: 0,
            },
            action: FaultAction::TransientError,
        }]);
        w.storage().install_fault_plan(plan.clone());
        plan.arm();
        let mut failed = 0u64;
        for i in 1..=n {
            if w.append(&rec(1000 + i, LogOp::Upsert)).is_err() {
                failed += 1;
            }
        }
        w.storage().clear_fault_plan();
        assert!(failed > 0, "the injected write error surfaced to a leader");
        w.force().unwrap();
        let all = w.replay(0, false).unwrap();
        // Everything before the dropped page plus everything after it that
        // was re-staged survives; the log stays decodable end to end.
        assert!(all.len() >= durable);
        assert!(all.windows(2).all(|p| p[0].lsn < p[1].lsn));
    }
}
