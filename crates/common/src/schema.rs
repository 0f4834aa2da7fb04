//! Minimal row model: schemas and records.
//!
//! The engine stores *records* in a primary LSM index, keyed by a primary-key
//! field, with secondary indexes defined over other fields (Section 3 of the
//! paper). The paper's experiments use a synthetic tweet schema
//! `(id, user_id, location, creation_time, message)`; this module provides
//! the small general row model those records are expressed in.

use crate::error::{Error, Result};
use crate::value::{validate_from, Value};

/// The type of a record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
}

impl FieldType {
    fn matches(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (FieldType::Int, Value::Int(_)) | (FieldType::Str, Value::Str(_)) | (_, Value::Null)
        )
    }
}

/// A named, typed field.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FieldDef {
    /// Field name (unique within a schema).
    name: String,
    /// Field type.
    ty: FieldType,
}

/// An ordered collection of fields. Field 0 conventions are decided by the
/// dataset configuration (the engine requires the primary key to be one of
/// the fields, not necessarily the first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<FieldDef>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Errors
    /// Returns [`Error::InvalidArgument`] on duplicate field names or an
    /// empty field list.
    pub fn new(fields: Vec<(&str, FieldType)>) -> Result<Self> {
        if fields.is_empty() {
            return Err(Error::invalid("schema must have at least one field"));
        }
        let mut defs = Vec::with_capacity(fields.len());
        for (name, ty) in fields {
            if defs.iter().any(|d: &FieldDef| d.name == name) {
                return Err(Error::invalid(format!("duplicate field name {name:?}")));
            }
            defs.push(FieldDef {
                name: name.to_owned(),
                ty,
            });
        }
        Ok(Schema { fields: defs })
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Validates that `record` conforms to this schema.
    pub fn check(&self, record: &Record) -> Result<()> {
        if record.values.len() != self.fields.len() {
            return Err(Error::invalid(format!(
                "record arity {} != schema arity {}",
                record.values.len(),
                self.fields.len()
            )));
        }
        for (f, v) in self.fields.iter().zip(&record.values) {
            if !f.ty.matches(v) {
                return Err(Error::invalid(format!(
                    "field {:?} expects {:?}, got {v}",
                    f.name, f.ty
                )));
            }
        }
        Ok(())
    }
}

/// A record (row): one value per schema field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Field values, in schema order.
    pub values: Vec<Value>,
}

impl Record {
    /// Creates a record from values.
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// Returns the value at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Serializes the record to bytes (length-prefixed memcomparable values;
    /// the encoding is self-delimiting so no schema is needed to decode).
    pub fn encode(&self) -> Vec<u8> {
        crate::value::encode_composite(&self.values)
    }

    /// Deserializes a record produced by [`Record::encode`].
    pub fn decode(buf: &[u8]) -> Result<Record> {
        Record::decode_sized(buf, 0)
    }

    /// [`Record::decode`] for a caller that knows how many fields to expect
    /// (its schema's arity): the field vector is allocated once, at that
    /// size, instead of growing. `arity` is a capacity, not a check — the
    /// result is what [`Record::decode`] returns, whatever the record holds.
    pub fn decode_sized(buf: &[u8], arity: usize) -> Result<Record> {
        let values = Vec::with_capacity(arity);
        Ok(Record {
            values: crate::value::decode_composite_into(buf, values)?,
        })
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record { values }
    }
}

/// A validated, borrowed view of an encoded record: reads one field of a
/// stored record without building the others.
///
/// [`RecordView::parse`] accepts exactly the buffers [`Record::decode`]
/// accepts and allocates nothing. A field is exposed as its memcomparable
/// encoding ([`RecordView::field_bytes`]); the encoding is order-preserving,
/// so a range predicate on a field is two byte-string comparisons against
/// pre-encoded bounds.
///
/// ```
/// use lsm_common::{Record, RecordView, Value};
///
/// let stored = Record::new(vec![Value::Int(7), Value::Str("CA".into())]).encode();
/// let view = RecordView::parse(&stored).unwrap();
/// assert_eq!(view.arity(), 2);
/// assert!(view.field_bytes(0).unwrap() < Value::Int(8).encode().as_slice());
/// assert_eq!(view.field(1).unwrap(), Value::Str("CA".into()));
/// assert!(view.field_bytes(2).is_err()); // shorter than asked: corruption, no panic
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    buf: &'a [u8],
    arity: usize,
}

impl<'a> RecordView<'a> {
    /// Validates `buf` as an encoded record — every tag, length, string
    /// terminator, escape and UTF-8 check of [`Record::decode`].
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        let (mut at, mut arity) = (0, 0);
        while at < buf.len() {
            at += validate_from(&buf[at..])?;
            arity += 1;
        }
        Ok(RecordView { buf, arity })
    }

    /// `RecordView::parse(buf)?.field_bytes(idx)` in one walk: validates
    /// the whole record exactly as [`RecordView::parse`] does — the same
    /// buffers accepted, the same error for the rest — and answers field
    /// `idx`'s encoding from that walk. For a predicate on one field of a
    /// record nothing else is going to validate.
    pub fn parse_field(buf: &'a [u8], idx: usize) -> Result<&'a [u8]> {
        let (mut at, mut arity, mut field) = (0, 0, None);
        while at < buf.len() {
            let len = validate_from(&buf[at..])?;
            if arity == idx {
                field = Some(&buf[at..at + len]);
            }
            at += len;
            arity += 1;
        }
        field.ok_or_else(|| {
            Error::corruption(format!("record has {arity} fields, field {idx} wanted"))
        })
    }

    /// Number of fields stored.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The memcomparable encoding of field `idx`
    /// (`== self.field(idx)?.encode()`).
    ///
    /// # Errors
    /// [`Error::Corruption`] when the stored record has no field `idx` — a
    /// record shorter than the schema it is read under.
    pub fn field_bytes(&self, idx: usize) -> Result<&'a [u8]> {
        Self::leading_field(self.buf, idx)
    }

    /// Field `idx` of the encoded record `buf`, as [`RecordView::field_bytes`]
    /// returns it, checking fields `0..=idx` only: what follows them is
    /// neither read nor validated. For a predicate on an early field of a
    /// record whose every byte something else is about to check anyway — a
    /// [`Record::decode`] of the rows the predicate keeps, a
    /// [`RecordView::parse`] of those it drops.
    pub fn leading_field(buf: &'a [u8], idx: usize) -> Result<&'a [u8]> {
        let (mut rest, mut have) = (buf, 0);
        loop {
            if rest.is_empty() {
                return Err(Error::corruption(format!(
                    "record has {have} fields, field {idx} wanted"
                )));
            }
            let len = validate_from(rest)?;
            if have == idx {
                return Ok(&rest[..len]);
            }
            rest = &rest[len..];
            have += 1;
        }
    }

    /// Splits the view after its first `fields` fields: the record they
    /// form and the record the rest form.
    ///
    /// # Errors
    /// [`Error::Corruption`] when the view holds fewer than `fields`.
    pub fn split_at(&self, fields: usize) -> Result<(RecordView<'a>, RecordView<'a>)> {
        if fields > self.arity {
            return Err(Error::corruption(format!(
                "record has {} fields, {fields} wanted",
                self.arity
            )));
        }
        let mut at = 0;
        for _ in 0..fields {
            at += validate_from(&self.buf[at..])?;
        }
        let (head, rest) = self.buf.split_at(at);
        let head = RecordView {
            buf: head,
            arity: fields,
        };
        let rest = RecordView {
            buf: rest,
            arity: self.arity - fields,
        };
        Ok((head, rest))
    }

    /// Decodes field `idx` alone.
    pub fn field(&self, idx: usize) -> Result<Value> {
        Ok(Value::decode_from(self.field_bytes(idx)?)?.0)
    }

    /// Decodes the whole record.
    pub fn to_record(&self) -> Result<Record> {
        Record::decode(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tweet_schema() -> Schema {
        Schema::new(vec![
            ("id", FieldType::Int),
            ("user_id", FieldType::Int),
            ("location", FieldType::Str),
            ("creation_time", FieldType::Int),
            ("message", FieldType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn schema_construction_and_lookup() {
        let s = tweet_schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.fields[2].name, "location");
        assert_eq!(s.fields[2].ty, FieldType::Str);
    }

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        assert!(Schema::new(vec![]).is_err());
        assert!(Schema::new(vec![("a", FieldType::Int), ("a", FieldType::Str)]).is_err());
    }

    #[test]
    fn record_check() {
        let s = tweet_schema();
        let good = Record::new(vec![
            Value::Int(1),
            Value::Int(42),
            Value::Str("CA".into()),
            Value::Int(2015),
            Value::Str("hello".into()),
        ]);
        assert!(s.check(&good).is_ok());

        let wrong_arity = Record::new(vec![Value::Int(1)]);
        assert!(s.check(&wrong_arity).is_err());

        let wrong_type = Record::new(vec![
            Value::Str("x".into()),
            Value::Int(42),
            Value::Str("CA".into()),
            Value::Int(2015),
            Value::Str("hello".into()),
        ]);
        assert!(s.check(&wrong_type).is_err());

        // Nulls are allowed in any field.
        let with_null = Record::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Str("CA".into()),
            Value::Int(2015),
            Value::Str("hello".into()),
        ]);
        assert!(s.check(&with_null).is_ok());
    }

    #[test]
    fn record_roundtrip() {
        let r = Record::new(vec![
            Value::Int(-5),
            Value::Str("with\0nul".into()),
            Value::Null,
        ]);
        assert_eq!(Record::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn view_splits_after_its_leading_fields() {
        let values = vec![
            Value::Int(-5),
            Value::Str("with\0nul".into()),
            Value::Null,
            Value::Int(7),
        ];
        let stored = Record::new(values.clone()).encode();
        let view = RecordView::parse(&stored).unwrap();
        for at in 0..=values.len() {
            let (head, rest) = view.split_at(at).unwrap();
            assert_eq!((head.arity(), rest.arity()), (at, values.len() - at));
            assert_eq!(head.to_record().unwrap().values, values[..at]);
            assert_eq!(rest.to_record().unwrap().values, values[at..]);
        }
        assert!(view.split_at(values.len() + 1).is_err());
    }
}
