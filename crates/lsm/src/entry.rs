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
    pub(crate) fn anti_matter() -> Self {
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
        encode_parts(self.anti_matter, self.ts, &self.value, out);
    }

    /// Deserializes an entry produced by [`LsmEntry::encode`], copying the
    /// payload into owned bytes (WAL replay, memtable paths).
    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(EntryRef::decode(buf)?.to_entry())
    }

    /// Deserializes an entry whose encoded bytes are pinned inside a cached
    /// page: flags and timestamp are parsed out, and the payload stays a
    /// [`PageSlice`] into the same page — no allocation, no copy. This is
    /// the zero-copy twin of [`LsmEntry::decode`].
    pub(crate) fn decode_slice(raw: PageSlice) -> Result<Self> {
        let header = EntryHeader::parse(&raw)?;
        Ok(header.entry(raw.slice_from(header.payload_at()).into()))
    }

    /// Deserializes from either representation: zero-copy when `raw` is
    /// pinned, copying (exactly like [`LsmEntry::decode`]) when owned.
    #[cfg(test)]
    pub(crate) fn decode_buf(raw: ValueBuf) -> Result<Self> {
        match raw {
            ValueBuf::Owned(v) => Self::decode(&v),
            ValueBuf::Pinned(s) => Self::decode_slice(s),
        }
    }

    /// Approximate in-memory footprint, for memory-budget accounting.
    pub(crate) fn mem_size(&self) -> usize {
        std::mem::size_of::<LsmEntry>() + self.value.len()
    }
}

/// Writes the stored form `[flags][ts, iff present][payload]` into `out`,
/// replacing its contents.
fn encode_parts(anti_matter: bool, ts: Timestamp, value: &[u8], out: &mut Vec<u8>) {
    let has_ts = ts != NO_TIMESTAMP;
    out.clear();
    out.reserve(1 + if has_ts { 8 } else { 0 } + value.len());
    let mut flags = 0u8;
    if anti_matter {
        flags |= FLAG_ANTI_MATTER;
    }
    if has_ts {
        flags |= FLAG_HAS_TS;
    }
    out.push(flags);
    if has_ts {
        out.extend_from_slice(&ts.to_be_bytes());
    }
    out.extend_from_slice(value);
}

/// An entry's bookkeeping, parsed off the front of its stored form. Every
/// decoder goes through [`EntryHeader::parse`], so a stored entry is
/// validated in exactly one place.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EntryHeader {
    pub(crate) anti_matter: bool,
    pub(crate) ts: Timestamp,
    has_ts: bool,
}

impl EntryHeader {
    /// Parses and validates flags and timestamp.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self> {
        let flags = *buf
            .first()
            .ok_or_else(|| Error::corruption("empty lsm entry"))?;
        if flags & !(FLAG_ANTI_MATTER | FLAG_HAS_TS) != 0 {
            return Err(Error::corruption(format!("bad entry flags {flags:#x}")));
        }
        let has_ts = flags & FLAG_HAS_TS != 0;
        let ts = if has_ts {
            let bytes = buf
                .get(1..9)
                .ok_or_else(|| Error::corruption("truncated entry timestamp"))?;
            // INVARIANT: `bytes` is exactly the 8 timestamp bytes.
            Timestamp::from_be_bytes(bytes.try_into().unwrap())
        } else {
            NO_TIMESTAMP
        };
        Ok(EntryHeader {
            anti_matter: flags & FLAG_ANTI_MATTER != 0,
            ts,
            has_ts,
        })
    }

    /// Offset of the payload within the stored form.
    pub(crate) fn payload_at(&self) -> usize {
        if self.has_ts {
            9
        } else {
            1
        }
    }

    /// True if [`LsmEntry::encode`] writes this header byte for byte: all
    /// but a `HAS_TS` flag over a stored [`NO_TIMESTAMP`], which encodes
    /// back without the timestamp.
    fn canonical(&self) -> bool {
        !self.has_ts || self.ts != NO_TIMESTAMP
    }

    fn entry(&self, value: ValueBuf) -> LsmEntry {
        LsmEntry {
            anti_matter: self.anti_matter,
            ts: self.ts,
            value,
        }
    }

    /// The entry stored as `raw`, which this header was parsed from.
    pub(crate) fn lend<'a>(&self, raw: &'a [u8]) -> EntryRef<'a> {
        EntryRef {
            anti_matter: self.anti_matter,
            ts: self.ts,
            value: raw.get(self.payload_at()..).unwrap_or_default(),
            stored: self.canonical().then_some(raw),
        }
    }
}

/// A borrowed [`LsmEntry`]: the bookkeeping by value, the payload a slice
/// of wherever the entry lives — a leaf page a scan is lending, or a
/// memory component's entry. A view over a stored entry remembers the
/// stored bytes, so a merge can hand them to the next component verbatim
/// instead of re-encoding what it never changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// True if this entry deletes the key.
    pub anti_matter: bool,
    /// Ingestion timestamp ([`NO_TIMESTAMP`] when none is stored).
    pub ts: Timestamp,
    /// The stored value.
    pub value: &'a [u8],
    /// The entry exactly as stored, when encoding it again would write
    /// these very bytes.
    stored: Option<&'a [u8]>,
}

impl<'a> EntryRef<'a> {
    /// Views an entry produced by [`LsmEntry::encode`] in place, with the
    /// validation — and the [`Error::Corruption`] cases — of
    /// [`LsmEntry::decode`].
    pub fn decode(raw: &'a [u8]) -> Result<Self> {
        Ok(EntryHeader::parse(raw)?.lend(raw))
    }

    /// The same entry with the payload stripped (see
    /// [`LsmEntry::key_only`]); of a stored entry, its header bytes.
    pub fn key_only(&self) -> EntryRef<'a> {
        let header = self.stored.map(|raw| &raw[..raw.len() - self.value.len()]);
        EntryRef {
            value: &[],
            stored: header,
            ..*self
        }
    }

    /// An owned copy.
    pub(crate) fn to_entry(self) -> LsmEntry {
        LsmEntry {
            anti_matter: self.anti_matter,
            ts: self.ts,
            value: self.value.into(),
        }
    }

    /// The entry's stored form: the bytes it was read from when it has
    /// them, else encoded into `scratch`.
    pub(crate) fn stored_form<'s>(&'s self, scratch: &'s mut Vec<u8>) -> &'s [u8] {
        match self.stored {
            Some(raw) => raw,
            None => {
                encode_parts(self.anti_matter, self.ts, self.value, scratch);
                scratch
            }
        }
    }
}

impl<'a> From<&'a LsmEntry> for EntryRef<'a> {
    fn from(entry: &'a LsmEntry) -> Self {
        EntryRef {
            anti_matter: entry.anti_matter,
            ts: entry.ts,
            value: &entry.value,
            stored: None,
        }
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

    /// The builders' pass-through hands an entry's stored bytes on in
    /// place of `encode(decode(raw))`: for every byte string the two must
    /// agree — the same bytes, or the same `Error::Corruption`.
    fn assert_pass_through_matches_decode(raw: &[u8]) {
        let mut scratch = Vec::new();
        match (EntryRef::decode(raw), LsmEntry::decode(raw)) {
            (Ok(lent), Ok(owned)) => {
                assert_eq!(lent.to_entry(), owned);
                assert_eq!(
                    EntryRef::from(&owned).stored_form(&mut scratch),
                    owned.encode()
                );
                assert_eq!(lent.stored_form(&mut scratch), owned.encode());
                let header = owned.key_only();
                assert_eq!(lent.key_only().to_entry(), header);
                assert_eq!(lent.key_only().stored_form(&mut scratch), header.encode());
            }
            (Err(lent), Err(owned)) => {
                assert!(matches!(lent, Error::Corruption(_)), "{lent:?}");
                assert_eq!(lent.to_string(), owned.to_string());
            }
            (lent, owned) => panic!("{raw:02x?}: lent {lent:?}, owned {owned:?}"),
        }
    }

    #[test]
    fn non_canonical_and_damaged_headers_pass_through_as_decode_does() {
        // A `HAS_TS` flag over `NO_TIMESTAMP`: decodes, re-encodes shorter.
        let mut raw = vec![FLAG_HAS_TS];
        raw.extend_from_slice(&NO_TIMESTAMP.to_be_bytes());
        raw.extend_from_slice(b"payload");
        assert_pass_through_matches_decode(&raw);
        let lent = EntryRef::decode(&raw).unwrap();
        assert_ne!(lent.stored_form(&mut Vec::new()), raw);
        // Empty, bad flags, and every truncation of the timestamp.
        assert_pass_through_matches_decode(&[]);
        assert_pass_through_matches_decode(&[0xF0]);
        assert_pass_through_matches_decode(&[FLAG_ANTI_MATTER | 0b100, 1, 2]);
        let full = LsmEntry::put_ts(b"v".to_vec(), 42).encode();
        for cut in 0..full.len() {
            assert_pass_through_matches_decode(&full[..cut]);
        }
    }

    use proptest::prelude::{any, prop_oneof, Just};

    proptest::proptest! {
        // Every canonical entry re-encodes to itself, so its stored bytes
        // are what the pass-through may write verbatim.
        #[test]
        fn canonical_entries_reencode_to_their_stored_bytes(
            anti_matter in any::<bool>(),
            ts in prop_oneof![
                Just(NO_TIMESTAMP),
                1..u64::MAX,
            ],
            value in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let raw = LsmEntry { anti_matter, ts, value: value.into() }.encode();
            let lent = EntryRef::decode(&raw).unwrap();
            let mut scratch = Vec::new();
            proptest::prop_assert_eq!(lent.stored_form(&mut scratch), raw.as_slice());
            proptest::prop_assert_eq!(LsmEntry::decode(&raw).unwrap().encode(), raw.clone());
            assert_pass_through_matches_decode(&raw);
        }

        // Arbitrary bytes — valid, truncated, or with flags no encoder
        // writes — fare under the pass-through exactly as under `decode`.
        #[test]
        fn arbitrary_bytes_pass_through_as_decode_does(
            flags in prop_oneof![0..4u8, any::<u8>()],
            rest in proptest::collection::vec(
                prop_oneof![Just(0u8), any::<u8>()],
                0..20,
            ),
        ) {
            let mut raw = vec![flags];
            raw.extend_from_slice(&rest);
            assert_pass_through_matches_decode(&raw);
        }
    }

    #[test]
    fn mem_size_tracks_value() {
        let small = LsmEntry::put(vec![0; 10]);
        let big = LsmEntry::put(vec![0; 1000]);
        assert_eq!(big.mem_size() - small.mem_size(), 990);
    }
}
