//! Index key encoding.
//!
//! The primary index and primary key index are keyed by the encoded primary
//! key. Secondary indexes use the composition of the secondary key and the
//! primary key (Section 3), so duplicate secondary keys are handled by the
//! ordinary key ordering.

use lsm_common::{Error, Key, RecordView, Result, Value};
use std::ops::Bound;

/// Encodes a primary key value.
pub fn encode_pk(pk: &Value) -> Key {
    pk.encode()
}

/// Decodes a primary key.
pub(crate) fn decode_pk(key: &[u8]) -> Result<Value> {
    Value::decode_exact(key)
}

/// Encodes a secondary index key `(secondary key, primary key)`.
pub fn encode_sk_pk(sk: &Value, pk: &Value) -> Key {
    let mut key = Vec::with_capacity(sk.encoded_len() + pk.encoded_len());
    sk.encode_into(&mut key);
    pk.encode_into(&mut key);
    key
}

/// Splits a secondary index key into the encodings of its two parts,
/// `(secondary key, primary key)`, borrowed from `key` — for callers that
/// want the primary key as *bytes* (a lookup key), not as a [`Value`].
/// Both parts are fully validated; anything but two parts is corruption.
pub(crate) fn split_sk_pk(key: &[u8]) -> Result<(&[u8], &[u8])> {
    let parts = RecordView::parse(key)?;
    if parts.arity() != 2 {
        return Err(Error::corruption(format!(
            "secondary key with {} parts",
            parts.arity()
        )));
    }
    Ok((parts.field_bytes(0)?, parts.field_bytes(1)?))
}

/// Borrows an owned key bound as the byte-slice bound the scan layer takes
/// (`LsmScan` / `mem_snapshot_range`). Shared by the collecting and
/// streaming query paths, which build owned `Bound<Key>` ranges via
/// [`sk_range`].
pub fn bound_as_ref(b: &Bound<Key>) -> Bound<&[u8]> {
    match b {
        Bound::Included(k) => Bound::Included(k.as_slice()),
        Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Bounds over composite keys selecting all entries with secondary key in
/// `[lo, hi]` (inclusive; `None` = unbounded).
pub fn sk_range(lo: Option<&Value>, hi: Option<&Value>) -> (Bound<Key>, Bound<Key>) {
    let lo_bound = match lo {
        None => Bound::Unbounded,
        // The encoding of `lo` is a strict prefix of every `(lo, pk)`
        // composite, so an inclusive bound on the bare encoding captures
        // them all.
        Some(v) => Bound::Included(v.encode()),
    };
    let hi_bound = match hi {
        None => Bound::Unbounded,
        // No value encoding starts with 0xFF, so `enc(hi) ++ 0xFF` sorts
        // after every `(hi, pk)` composite and before any larger sk.
        Some(v) => {
            let mut k = v.encode();
            k.push(0xFF);
            Bound::Excluded(k)
        }
    };
    (lo_bound, hi_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pk_roundtrip() {
        let pk = Value::Int(42);
        assert_eq!(decode_pk(&encode_pk(&pk)).unwrap(), pk);
    }

    #[test]
    fn sk_pk_roundtrip() {
        let (sk, pk) = (Value::Str("CA".into()), Value::Int(101));
        let k = encode_sk_pk(&sk, &pk);
        assert_eq!(
            split_sk_pk(&k).unwrap(),
            (sk.encode().as_slice(), pk.encode().as_slice())
        );
        // One part, three parts, a damaged part: corruption, never a panic.
        assert!(split_sk_pk(&encode_pk(&Value::Int(1))).is_err());
        assert!(split_sk_pk(&[k.as_slice(), &encode_pk(&pk)].concat()).is_err());
        assert!(split_sk_pk(&k[..k.len() - 1]).is_err());
    }

    #[test]
    fn composite_ordering_groups_by_sk() {
        let a = encode_sk_pk(&Value::Int(5), &Value::Int(999));
        let b = encode_sk_pk(&Value::Int(6), &Value::Int(0));
        assert!(a < b);
        let c = encode_sk_pk(&Value::Int(5), &Value::Int(1000));
        assert!(a < c && c < b);
    }

    #[test]
    fn sk_range_selects_inclusive_interval() {
        let keys: Vec<(i64, i64)> = vec![(1, 10), (2, 5), (2, 9), (3, 1), (4, 2)];
        let encoded: Vec<Key> = keys
            .iter()
            .map(|(s, p)| encode_sk_pk(&Value::Int(*s), &Value::Int(*p)))
            .collect();
        let (lo, hi) = sk_range(Some(&Value::Int(2)), Some(&Value::Int(3)));
        let selected: Vec<usize> = encoded
            .iter()
            .enumerate()
            .filter(|(_, k)| {
                let above = match &lo {
                    Bound::Included(b) => *k >= b,
                    _ => true,
                };
                let below = match &hi {
                    Bound::Excluded(b) => *k < b,
                    _ => true,
                };
                above && below
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(selected, vec![1, 2, 3]);
    }

    #[test]
    fn sk_range_unbounded() {
        let (lo, hi) = sk_range(None, None);
        assert!(matches!(lo, Bound::Unbounded));
        assert!(matches!(hi, Bound::Unbounded));
    }
}
