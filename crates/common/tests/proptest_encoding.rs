//! Property tests: the memcomparable encoding is order-preserving and
//! round-trips, including in composite keys; and `RecordView` agrees with
//! `Record::decode` on every buffer, damaged or not.

use lsm_common::value::{decode_composite, encode_composite};
use lsm_common::{Record, RecordView, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        ".{0,24}".prop_map(Value::Str),
        // Strings with embedded NULs exercise the escaping.
        proptest::collection::vec(prop_oneof![Just(0u8), 1..=255u8], 0..16)
            .prop_map(|b| Value::Str(String::from_utf8_lossy(&b).into_owned())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip(v in arb_value()) {
        let enc = v.encode();
        prop_assert_eq!(enc.len(), v.encoded_len());
        prop_assert_eq!(Value::decode_exact(&enc).unwrap(), v);
    }

    #[test]
    fn order_preserved(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.encode().cmp(&b.encode()), a.cmp(&b));
    }

    #[test]
    fn composite_roundtrip(parts in proptest::collection::vec(arb_value(), 0..4)) {
        let enc = encode_composite(&parts);
        prop_assert_eq!(decode_composite(&enc).unwrap(), parts);
    }

    #[test]
    fn composite_order_preserved(
        a in proptest::collection::vec(arb_value(), 1..3),
        b in proptest::collection::vec(arb_value(), 1..3),
    ) {
        // Lexicographic on parts ⇔ bytewise on encodings, when no vector is
        // a strict prefix of the other (prefix pairs compare by length).
        if a.len() == b.len() {
            prop_assert_eq!(encode_composite(&a).cmp(&encode_composite(&b)), a.cmp(&b));
        }
    }

    // `RecordView::parse` accepts exactly what `Record::decode` accepts —
    // over encoded records, intact or with one byte flipped or the tail cut
    // off — and on those every accessor agrees with the decoded record.
    // Sizing the decode changes nothing it returns, `leading_field(i)` sees
    // what decoding the first `i + 1` values sees, and no further, and
    // `parse_field(i)` is `parse` then `field_bytes(i)`, error for error.
    #[test]
    fn record_view_agrees_with_decode(
        values in proptest::collection::vec(arb_value(), 0..6),
        damage in prop_oneof![
            Just(None),
            (any::<usize>(), any::<u8>(), any::<bool>()).prop_map(Some),
        ],
        sized_for in 0..8usize,
    ) {
        let mut buf = Record::new(values).encode();
        if let Some((at, byte, truncate)) = damage {
            if truncate {
                buf.truncate(at % (buf.len() + 1));
            } else if !buf.is_empty() {
                let at = at % buf.len();
                buf[at] ^= byte | 1;
            }
        }
        let (decoded, view) = (Record::decode(&buf), RecordView::parse(&buf));
        prop_assert_eq!(decoded.is_ok(), view.is_ok(), "{:?} vs {:?}", decoded, view);
        prop_assert_eq!(&Record::decode_sized(&buf, sized_for), &decoded);
        let mut rest = buf.as_slice();
        for i in 0..7 {
            let two_walks = RecordView::parse(&buf).and_then(|v| v.field_bytes(i));
            prop_assert_eq!(RecordView::parse_field(&buf, i), two_walks, "field {}", i);
            let field = RecordView::leading_field(&buf, i);
            match Value::decode_from(rest) {
                Ok((_, n)) => {
                    prop_assert_eq!(field.unwrap(), &rest[..n], "field {}", i);
                    rest = &rest[n..];
                }
                Err(_) => {
                    prop_assert!(field.is_err(), "field {}: {:?}", i, field);
                    break;
                }
            }
        }
        if let (Ok(record), Ok(view)) = (decoded, view) {
            prop_assert_eq!(view.arity(), record.values.len());
            prop_assert_eq!(view.to_record().unwrap(), record.clone());
            for (i, v) in record.values.iter().enumerate() {
                prop_assert_eq!(&view.field(i).unwrap(), v);
                prop_assert_eq!(view.field_bytes(i).unwrap().to_vec(), v.encode());
            }
            prop_assert!(view.field_bytes(record.values.len()).is_err());
            prop_assert!(view.field(record.values.len()).is_err());
        }
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Value::decode_exact(&bytes); // must return Err, not panic
        let _ = decode_composite(&bytes);
    }
}
