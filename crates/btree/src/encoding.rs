//! Varint and slice encoding helpers shared by the page formats.

use lsm_common::{Error, Result};

/// Appends a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, returning `(value, bytes_consumed)`.
fn get_varint(buf: &[u8]) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return Err(Error::corruption("varint overflow"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(Error::corruption("truncated varint"))
}

/// Number of bytes the LEB128 varint encoding of `v` takes.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

/// Appends a length-prefixed byte slice.
pub fn put_slice(out: &mut Vec<u8>, s: &[u8]) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s);
}

/// Reads a length-prefixed byte slice, returning `(slice, bytes_consumed)`.
pub fn get_slice(buf: &[u8]) -> Result<(&[u8], usize)> {
    let (len, n) = get_varint(buf)?;
    let len = len as usize;
    // `n <= buf.len()`: the varint was read from `buf`. A damaged length
    // can be near `usize::MAX`, so it is compared, never added.
    if buf.len() - n < len {
        return Err(Error::corruption("truncated slice"));
    }
    Ok((&buf[n..n + len], n + len))
}

/// Encoded size of a length-prefixed slice.
pub fn slice_len(s: &[u8]) -> usize {
    varint_len(s.len() as u64) + s.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "v={v}");
            let (got, n) = get_varint(&buf).unwrap();
            assert_eq!((got, n), (v, buf.len()));
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100_000);
        assert!(get_varint(&buf[..1]).is_err());
        assert!(get_varint(&[]).is_err());
    }

    #[test]
    fn varint_rejects_overflow() {
        let buf = [0xFFu8; 11];
        assert!(get_varint(&buf).is_err());
    }

    #[test]
    fn slice_roundtrip() {
        let mut buf = Vec::new();
        put_slice(&mut buf, b"hello");
        put_slice(&mut buf, b"");
        assert_eq!(buf.len(), slice_len(b"hello") + slice_len(b""));
        let (s1, n1) = get_slice(&buf).unwrap();
        assert_eq!(s1, b"hello");
        let (s2, n2) = get_slice(&buf[n1..]).unwrap();
        assert_eq!(s2, b"");
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn slice_rejects_truncation() {
        let mut buf = Vec::new();
        put_slice(&mut buf, b"hello");
        assert!(get_slice(&buf[..3]).is_err());
    }
}
