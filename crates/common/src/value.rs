//! Typed values and their order-preserving byte encoding.
//!
//! Index keys in the engine are raw byte strings compared with `memcmp`
//! (that is what the B+-tree and LSM layers sort by). To support typed keys —
//! and in particular the paper's composite secondary-index keys
//! `(secondary key, primary key)` — every [`Value`] has a *memcomparable*
//! encoding: for any two values `a`, `b` of the same type,
//! `a < b  ⇔  encode(a) < encode(b)` bytewise, and no encoding is a strict
//! prefix of another encoding of the same type, so concatenated (composite)
//! encodings also compare correctly.
//!
//! Encodings:
//! * `Int(i64)`   → tag `0x01` + 8 bytes big-endian with the sign bit flipped;
//! * `Str(String)`→ tag `0x02` + bytes with `0x00` escaped as `0x00 0xFF`,
//!   terminated by `0x00 0x00` (the standard escape/terminator scheme);
//! * `Null`       → tag `0x00` (sorts before everything).

use crate::error::{Error, Result};
use std::fmt;

/// A typed value stored in a record or used as an index key part.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Absent value; sorts before all other values.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_STR: u8 = 0x02;

/// Position of the first `0x00` in `buf`, eight bytes at a time.
fn find_nul(buf: &[u8]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut words = buf.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes([
            word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
        ]);
        // Bit 7 of a byte of `zeros` is set iff that byte of `w` is zero
        // (exact for the lowest such byte, which is the one we report).
        let zeros = w.wrapping_sub(LOW) & !w & HIGH;
        if zeros != 0 {
            return Some(at + (zeros.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == 0)?;
    Some(at + tail)
}

/// The escaped body of one encoded string — the bytes between the tag and
/// the `0x00 0x00` terminator — with its terminator and every escape
/// already checked.
struct EscapedStr<'a> {
    body: &'a [u8],
    /// Number of `0x00 0xFF` escapes in `body`.
    escapes: usize,
}

impl<'a> EscapedStr<'a> {
    /// Locates the string body at the front of `buf` (the bytes after the
    /// tag).
    fn scan(buf: &'a [u8]) -> Result<Self> {
        let (mut i, mut escapes) = (0, 0);
        loop {
            i += find_nul(&buf[i..]).ok_or_else(|| Error::corruption("unterminated string"))?;
            match buf.get(i + 1) {
                Some(0x00) => {
                    return Ok(EscapedStr {
                        body: &buf[..i],
                        escapes,
                    })
                }
                Some(0xFF) => {
                    escapes += 1;
                    i += 2;
                }
                _ => return Err(Error::corruption("bad string escape")),
            }
        }
    }

    /// Length of the whole encoding: tag, body and terminator.
    fn encoded_len(&self) -> usize {
        1 + self.body.len() + 2
    }

    /// The unescaped runs: the stretches between escapes, each without the
    /// escape's two bytes.
    fn runs(&self) -> impl Iterator<Item = &'a [u8]> {
        // `scan` saw a `0xFF` after every NUL of the body: drop it.
        self.body
            .split(|&b| b == 0)
            .enumerate()
            .map(|(n, run)| if n == 0 { run } else { &run[1..] })
    }

    /// The string's bytes, allocated once at their exact length.
    fn unescape(&self) -> Vec<u8> {
        if self.escapes == 0 {
            return self.body.to_vec();
        }
        let mut out = Vec::with_capacity(self.body.len() - self.escapes);
        for (n, run) in self.runs().enumerate() {
            if n > 0 {
                out.push(0x00);
            }
            out.extend_from_slice(run);
        }
        out
    }

    /// Is the unescaped string UTF-8? Checked in place: a NUL is a whole
    /// code point, so the string is valid iff every run between escapes is.
    fn is_utf8(&self) -> bool {
        if self.escapes == 0 {
            return std::str::from_utf8(self.body).is_ok();
        }
        self.runs().all(|run| std::str::from_utf8(run).is_ok())
    }
}

/// Makes every check [`Value::decode_from`] makes on the value at the front
/// of `buf` without building it, returning its encoded length.
pub(crate) fn validate_from(buf: &[u8]) -> Result<usize> {
    let tag = *buf
        .first()
        .ok_or_else(|| Error::corruption("empty value"))?;
    match tag {
        TAG_NULL => Ok(1),
        TAG_INT if buf.len() < 9 => Err(Error::corruption("short int encoding")),
        TAG_INT => Ok(9),
        TAG_STR => {
            let body = EscapedStr::scan(&buf[1..])?;
            if !body.is_utf8() {
                return Err(Error::corruption("invalid utf8"));
            }
            Ok(body.encoded_len())
        }
        t => Err(Error::corruption(format!("unknown value tag {t:#x}"))),
    }
}

impl Value {
    /// Appends the memcomparable encoding of `self` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                // Flip the sign bit so that negative numbers sort first.
                out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                // A run at a time: everything up to the next NUL is copied
                // as is, the NUL itself becomes `0x00 0xFF`.
                let mut rest = s.as_bytes();
                while let Some(i) = find_nul(rest) {
                    out.extend_from_slice(&rest[..=i]);
                    out.push(0xFF);
                    rest = &rest[i + 1..];
                }
                out.extend_from_slice(rest);
                out.extend_from_slice(&[0x00, 0x00]);
            }
        }
    }

    /// Returns the memcomparable encoding of `self`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact length of the encoding produced by [`Value::encode_into`].
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Str(s) => 1 + s.bytes().filter(|&b| b == 0).count() + s.len() + 2,
        }
    }

    /// Decodes one value from the front of `buf`, returning it and the number
    /// of bytes consumed.
    pub fn decode_from(buf: &[u8]) -> Result<(Value, usize)> {
        let tag = *buf
            .first()
            .ok_or_else(|| Error::corruption("empty value"))?;
        match tag {
            TAG_NULL => Ok((Value::Null, 1)),
            TAG_INT => {
                if buf.len() < 9 {
                    return Err(Error::corruption("short int encoding"));
                }
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&buf[1..9]);
                let v = (u64::from_be_bytes(raw) ^ (1 << 63)) as i64;
                Ok((Value::Int(v), 9))
            }
            TAG_STR => {
                let body = EscapedStr::scan(&buf[1..])?;
                let s = String::from_utf8(body.unescape())
                    .map_err(|_| Error::corruption("invalid utf8"))?;
                Ok((Value::Str(s), body.encoded_len()))
            }
            t => Err(Error::corruption(format!("unknown value tag {t:#x}"))),
        }
    }

    /// Decodes a value that must occupy the whole buffer.
    pub fn decode_exact(buf: &[u8]) -> Result<Value> {
        let (v, n) = Value::decode_from(buf)?;
        if n != buf.len() {
            return Err(Error::corruption("trailing bytes after value"));
        }
        Ok(v)
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Encodes a composite key from value parts (e.g. `(secondary, primary)`).
pub fn encode_composite(parts: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.iter().map(Value::encoded_len).sum());
    for p in parts {
        p.encode_into(&mut out);
    }
    out
}

/// Decodes all value parts of a composite key.
pub fn decode_composite(buf: &[u8]) -> Result<Vec<Value>> {
    decode_composite_into(buf, Vec::new())
}

/// [`decode_composite`] into a vector the caller has sized.
pub(crate) fn decode_composite_into(mut buf: &[u8], mut parts: Vec<Value>) -> Result<Vec<Value>> {
    while !buf.is_empty() {
        let (v, n) = Value::decode_from(buf)?;
        parts.push(v);
        buf = &buf[n..];
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time string encoder the run-at-a-time one replaced:
    /// the reference the differential tests below compare against.
    fn reference_encode_into(v: &Value, out: &mut Vec<u8>) {
        let Value::Str(s) = v else {
            return v.encode_into(out);
        };
        out.push(TAG_STR);
        for &b in s.as_bytes() {
            if b == 0x00 {
                out.extend_from_slice(&[0x00, 0xFF]);
            } else {
                out.push(b);
            }
        }
        out.extend_from_slice(&[0x00, 0x00]);
    }

    /// The byte-at-a-time string decoder, likewise.
    fn reference_decode_from(buf: &[u8]) -> Result<(Value, usize)> {
        if buf.first() != Some(&TAG_STR) {
            return Value::decode_from(buf);
        }
        let mut bytes = Vec::new();
        let mut i = 1;
        loop {
            match buf.get(i) {
                None => return Err(Error::corruption("unterminated string")),
                Some(0x00) => match buf.get(i + 1) {
                    Some(0x00) => {
                        let s = String::from_utf8(bytes)
                            .map_err(|_| Error::corruption("invalid utf8"))?;
                        return Ok((Value::Str(s), i + 2));
                    }
                    Some(0xFF) => {
                        bytes.push(0x00);
                        i += 2;
                    }
                    _ => return Err(Error::corruption("bad string escape")),
                },
                Some(&b) => {
                    bytes.push(b);
                    i += 1;
                }
            }
        }
    }

    /// Strings of every shape the escaping cares about: empty, plain,
    /// multi-byte, and NUL-heavy (embedded, leading, trailing, doubled).
    fn arb_string() -> impl Strategy<Value = String> {
        prop_oneof![
            ".{0,40}",
            proptest::collection::vec(
                prop_oneof![Just('\0'), Just('a'), Just('é'), Just('𝄞')],
                0..24
            )
            .prop_map(|chars| chars.into_iter().collect::<String>()),
        ]
    }

    /// Encoded strings and integers, then damaged: bytes overwritten, the
    /// buffer cut short or extended.
    fn arb_damaged_encoding() -> impl Strategy<Value = Vec<u8>> {
        let value = prop_oneof![
            3 => arb_string().prop_map(Value::Str),
            1 => any::<i64>().prop_map(Value::Int),
        ];
        let edits = proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3);
        (value, edits, any::<usize>(), 0..3usize).prop_map(|(v, edits, cut, how)| {
            let mut buf = v.encode();
            for (at, byte) in edits {
                let at = at % buf.len();
                // Favour the bytes the format gives meaning to.
                buf[at] = [byte, 0x00, 0xFF, TAG_STR][byte as usize % 4];
            }
            match how {
                0 => buf.truncate(cut % (buf.len() + 1)),
                1 => buf.extend_from_slice(&[0x00, 0xFF, b'x', 0x00, 0x00][cut % 5..]),
                _ => {}
            }
            buf
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bulk_encode_matches_reference(s in arb_string()) {
            let v = Value::Str(s);
            let mut want = Vec::new();
            reference_encode_into(&v, &mut want);
            prop_assert_eq!(v.encode(), want);
        }

        #[test]
        fn bulk_decode_matches_reference(buf in arb_damaged_encoding()) {
            prop_assert_eq!(Value::decode_from(&buf), reference_decode_from(&buf));
            // The allocation-free check accepts exactly what decode accepts.
            prop_assert_eq!(
                validate_from(&buf),
                reference_decode_from(&buf).map(|(_, n)| n)
            );
        }

        #[test]
        fn decode_matches_reference_on_arbitrary_bytes(
            tag in 0..4u8,
            rest in proptest::collection::vec(prop_oneof![Just(0x00u8), Just(0xFF), any::<u8>()], 0..24),
        ) {
            let buf: Vec<u8> = std::iter::once(tag).chain(rest).collect();
            prop_assert_eq!(Value::decode_from(&buf), reference_decode_from(&buf));
            prop_assert_eq!(
                validate_from(&buf),
                reference_decode_from(&buf).map(|(_, n)| n)
            );
        }
    }

    #[test]
    fn find_nul_reports_the_first_nul() {
        // 0x01 after a NUL is the word trick's false positive (the borrow
        // flags it too); it sits above the true NUL, so the lowest flag wins.
        for fill in [0x01u8, 0x80, 0xFF] {
            for len in 0..40 {
                let plain = vec![fill; len];
                assert_eq!(find_nul(&plain), None, "fill {fill:#x} len {len}");
                for at in 0..len {
                    for second in [at, len - 1] {
                        let mut buf = plain.clone();
                        (buf[at], buf[second]) = (0, 0);
                        assert_eq!(find_nul(&buf), Some(at), "fill {fill:#x} len {len}");
                    }
                }
            }
        }
    }

    fn roundtrip(v: Value) {
        let enc = v.encode();
        assert_eq!(enc.len(), v.encoded_len());
        assert_eq!(Value::decode_exact(&enc).unwrap(), v);
    }

    #[test]
    fn roundtrips() {
        roundtrip(Value::Null);
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Int(-1));
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::Str("hello".into()));
        roundtrip(Value::Str("with\0nul\0bytes".into()));
    }

    #[test]
    fn int_encoding_preserves_order() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 42, 1_000_000, i64::MAX];
        for w in vals.windows(2) {
            assert!(Value::Int(w[0]).encode() < Value::Int(w[1]).encode());
        }
    }

    #[test]
    fn str_encoding_preserves_order() {
        let vals = ["", "a", "a\0", "a\0b", "aa", "ab", "b"];
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                let (a, b) = (Value::Str(vals[i].into()), Value::Str(vals[j].into()));
                assert_eq!(a.encode().cmp(&b.encode()), vals[i].cmp(vals[j]), "{i} {j}");
            }
        }
    }

    #[test]
    fn composite_keys_compare_lexicographically() {
        // (a, 2) < (b, 1) even though 2 > 1.
        let k1 = encode_composite(&[Value::Str("a".into()), Value::Int(2)]);
        let k2 = encode_composite(&[Value::Str("b".into()), Value::Int(1)]);
        assert!(k1 < k2);
        // Same first part: falls through to the second part.
        let k3 = encode_composite(&[Value::Str("a".into()), Value::Int(3)]);
        assert!(k1 < k3);
    }

    #[test]
    fn composite_roundtrip() {
        let parts = vec![Value::Int(7), Value::Str("x\0y".into()), Value::Null];
        let enc = encode_composite(&parts);
        assert_eq!(decode_composite(&enc).unwrap(), parts);
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null.encode() < Value::Int(i64::MIN).encode());
        assert!(Value::Int(i64::MAX).encode() < Value::Str(String::new()).encode());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode_exact(&[]).is_err());
        assert!(Value::decode_exact(&[0xEE]).is_err());
        assert!(Value::decode_exact(&[TAG_INT, 1, 2]).is_err());
        assert!(Value::decode_exact(&[TAG_STR, b'a']).is_err());
        // Trailing bytes.
        let mut enc = Value::Int(1).encode();
        enc.push(0);
        assert!(Value::decode_exact(&enc).is_err());
    }
}
