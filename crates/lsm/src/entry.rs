//! LSM entries: values plus LSM bookkeeping.
//!
//! An LSM write never updates in place; it inserts a new entry that
//! overrides older entries with the same key. Deletes insert an
//! **anti-matter** entry (Section 2.1). Under the Validation strategy
//! (Section 4), entries additionally carry the ingestion **timestamp** used
//! by Timestamp Validation and index repair.
//!
//! Entries are serialized into the value slot of the component B+-trees:
//! `[flags u8][ts u64 BE, iff flags.HAS_TS][payload...]`.

use lsm_common::clock::NO_TIMESTAMP;
use lsm_common::{Bytes, Error, Result, Timestamp};
use lsm_storage::{PageSlice, ValueBuf};

const FLAG_ANTI_MATTER: u8 = 0b01;
const FLAG_HAS_TS: u8 = 0b10;

/// One LSM entry: a payload or an anti-matter tombstone, optionally
/// timestamped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsmEntry {
    /// True if this entry deletes the key.
    pub anti_matter: bool,
    /// Ingestion timestamp ([`NO_TIMESTAMP`] when the maintenance strategy
    /// does not store timestamps).
    pub ts: Timestamp,
    /// The stored value (empty for anti-matter entries and key-only
    /// indexes). Owned on the write path; pinned inside a cached page on
    /// the zero-copy lookup/scan paths.
    pub value: ValueBuf,
}

impl LsmEntry {
    /// A regular entry without a timestamp.
    pub fn put(value: Bytes) -> Self {
        LsmEntry {
            anti_matter: false,
            ts: NO_TIMESTAMP,
            value: value.into(),
        }
    }

    /// A regular entry with a timestamp (Validation strategy).
    pub fn put_ts(value: Bytes, ts: Timestamp) -> Self {
        LsmEntry {
            anti_matter: false,
            ts,
            value: value.into(),
        }
    }

    /// An anti-matter (delete) entry.
    pub fn anti_matter() -> Self {
        LsmEntry {
            anti_matter: true,
            ts: NO_TIMESTAMP,
            value: ValueBuf::empty(),
        }
    }

    /// A timestamped anti-matter entry.
    pub fn anti_matter_ts(ts: Timestamp) -> Self {
        LsmEntry {
            anti_matter: true,
            ts,
            value: ValueBuf::empty(),
        }
    }

    /// The same entry with the payload stripped — what the primary key
    /// index stores for a primary-index entry.
    pub fn key_only(&self) -> LsmEntry {
        LsmEntry {
            anti_matter: self.anti_matter,
            ts: self.ts,
            value: ValueBuf::empty(),
        }
    }

    /// Serializes the entry.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes the entry into `out`, replacing its contents — a builder
    /// that encodes one entry after another reuses one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let has_ts = self.ts != NO_TIMESTAMP;
        out.clear();
        out.reserve(1 + if has_ts { 8 } else { 0 } + self.value.len());
        let mut flags = 0u8;
        if self.anti_matter {
            flags |= FLAG_ANTI_MATTER;
        }
        if has_ts {
            flags |= FLAG_HAS_TS;
        }
        out.push(flags);
        if has_ts {
            out.extend_from_slice(&self.ts.to_be_bytes());
        }
        out.extend_from_slice(&self.value);
    }

    /// Deserializes an entry produced by [`LsmEntry::encode`], copying the
    /// payload into owned bytes (WAL replay, memtable paths).
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (header, off) = Self::header_of(buf)?;
        Ok(LsmEntry {
            value: buf[off..].to_vec().into(),
            ..header
        })
    }

    /// Deserializes an entry whose encoded bytes are pinned inside a cached
    /// page: flags and timestamp are parsed out, and the payload stays a
    /// [`PageSlice`] into the same page — no allocation, no copy. This is
    /// the zero-copy twin of [`LsmEntry::decode`].
    pub fn decode_slice(raw: PageSlice) -> Result<Self> {
        let (header, off) = Self::header_of(&raw)?;
        Ok(LsmEntry {
            value: raw.slice_from(off).into(),
            ..header
        })
    }

    /// Deserializes from either representation: zero-copy when `raw` is
    /// pinned, copying (exactly like [`LsmEntry::decode`]) when owned.
    pub fn decode_buf(raw: ValueBuf) -> Result<Self> {
        match raw {
            ValueBuf::Owned(v) => Self::decode(&v),
            ValueBuf::Pinned(s) => Self::decode_slice(s),
        }
    }

    /// Parses flags and timestamp, returning the payload offset.
    fn header_of(buf: &[u8]) -> Result<(Self, usize)> {
        let flags = *buf
            .first()
            .ok_or_else(|| Error::corruption("empty lsm entry"))?;
        if flags & !(FLAG_ANTI_MATTER | FLAG_HAS_TS) != 0 {
            return Err(Error::corruption(format!("bad entry flags {flags:#x}")));
        }
        let (ts, off) = if flags & FLAG_HAS_TS != 0 {
            if buf.len() < 9 {
                return Err(Error::corruption("truncated entry timestamp"));
            }
            // INVARIANT: `buf.len() >= 9` was checked above; the slice is
            // exactly the 8 timestamp bytes.
            (Timestamp::from_be_bytes(buf[1..9].try_into().unwrap()), 9)
        } else {
            (NO_TIMESTAMP, 1)
        };
        Ok((
            LsmEntry {
                anti_matter: flags & FLAG_ANTI_MATTER != 0,
                ts,
                value: ValueBuf::empty(),
            },
            off,
        ))
    }

    /// Approximate in-memory footprint, for memory-budget accounting.
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<LsmEntry>() + self.value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_put() {
        for e in [
            LsmEntry::put(b"record bytes".to_vec()),
            LsmEntry::put(Vec::new()),
            LsmEntry::put_ts(b"v".to_vec(), 42),
            LsmEntry::anti_matter(),
            LsmEntry::anti_matter_ts(7),
        ] {
            assert_eq!(LsmEntry::decode(&e.encode()).unwrap(), e, "{e:?}");
        }
    }

    #[test]
    fn untimestamped_entries_are_compact() {
        let e = LsmEntry::put(b"x".to_vec());
        assert_eq!(e.encode().len(), 2); // flags + payload
        let t = LsmEntry::put_ts(b"x".to_vec(), 1);
        assert_eq!(t.encode().len(), 10); // flags + ts + payload
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(LsmEntry::decode(&[]).is_err());
        assert!(LsmEntry::decode(&[0xF0]).is_err());
        assert!(LsmEntry::decode(&[FLAG_HAS_TS, 1, 2]).is_err());
    }

    #[test]
    fn mem_size_tracks_value() {
        let small = LsmEntry::put(vec![0; 10]);
        let big = LsmEntry::put(vec![0; 1000]);
        assert_eq!(big.mem_size() - small.mem_size(), 990);
    }
}
