//! A small, explicit binary codec: encode into a [`BytesMut`], decode from
//! a `&[u8]`.
//!
//! Every overlay message in the DHARMA stack is encoded through these traits
//! so that the *exact* UDP payload size of each message is known — the paper's
//! index-side filtering exists precisely because "overlay messages are sent on
//! UDP packets, the limited payload force to send only a subset of tags and
//! resources" (§V-A). A self-describing format like JSON would make payload
//! accounting fuzzy; a fixed binary layout keeps it exact.
//!
//! Decoding reads through a borrowed cursor, `&mut &[u8]`: every primitive
//! of [`ReadBytes`] checks what it needs against the slice, splits it off
//! the front and leaves the cursor on the rest. A received datagram is
//! decoded where it lies — no copy, no shared handle per byte read — and
//! whatever the decoder keeps (names, blobs) is copied out of it.
//!
//! Layout conventions:
//! * integers are unsigned LEB128 varints (`put_varint`) unless fixed width is
//!   structurally required;
//! * strings and byte strings are length-prefixed (varint);
//! * sequences are length-prefixed (varint) followed by the elements;
//! * [`Id160`] is 20 raw bytes.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::{DharmaError, Result};
use crate::id::{Id160, ID160_BYTES};

/// Maximum accepted length for any length-prefixed field, as a defence
/// against maliciously huge prefixes in decoded input.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Types that can append themselves to a byte buffer.
pub trait WireEncode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Encodes into a fresh buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Exact size in bytes of the encoding (default: encode and measure;
    /// implementors on hot paths may override with an arithmetic version).
    fn encoded_len(&self) -> usize {
        self.encode_to_bytes().len()
    }
}

/// Types that can be parsed back out of a byte buffer.
pub trait WireDecode: Sized {
    /// The fewest bytes any encoding of `Self` occupies. Sequence decoding
    /// rejects an element count the remaining input cannot hold *before*
    /// reserving memory for it (see [`get_seq_len`]).
    const MIN_WIRE_LEN: usize = 1;

    /// Consumes the encoding of `Self` from the front of `buf`, advancing
    /// the cursor past it.
    fn decode(buf: &mut &[u8]) -> Result<Self>;

    /// Decodes from a slice, requiring the input to be fully consumed.
    fn decode_exact(mut data: &[u8]) -> Result<Self> {
        let v = Self::decode(&mut data)?;
        expect_consumed(data)?;
        Ok(v)
    }
}

/// Errors unless `buf` was consumed to its end (one datagram, one message).
pub fn expect_consumed(buf: &[u8]) -> Result<()> {
    if buf.is_empty() {
        return Ok(());
    }
    Err(DharmaError::Decode(format!(
        "{} trailing bytes after message",
        buf.len()
    )))
}

/// Reads a sequence's element count, rejecting any count whose elements
/// (at `min_wire_len` bytes each, at least) cannot fit in the remaining
/// input. Such a claim could never decode, and checking it here bounds
/// what a caller reserves for the sequence by what the datagram can
/// actually carry — a hostile prefix cannot buy an allocation larger than
/// an honest datagram of the same size would.
pub fn get_seq_len(buf: &mut &[u8], min_wire_len: usize) -> Result<usize> {
    let len = buf.get_varint()?;
    let fits = usize::try_from(len)
        .ok()
        .and_then(|n| n.checked_mul(min_wire_len.max(1)))
        .is_some_and(|bytes| bytes <= buf.len());
    if !fits {
        return Err(DharmaError::Decode(format!(
            "sequence length {len} exceeds what the remaining {} bytes can hold",
            buf.len()
        )));
    }
    Ok(len as usize)
}

/// Buffer-writing helpers (varints, strings, ids).
pub trait WriteBytes {
    /// Writes an unsigned LEB128 varint.
    fn put_varint(&mut self, v: u64);
    /// Writes a length-prefixed UTF-8 string.
    fn put_str(&mut self, s: &str);
    /// Writes a length-prefixed byte string.
    fn put_bytes_field(&mut self, b: &[u8]);
    /// Writes a raw 160-bit id (20 bytes).
    fn put_id(&mut self, id: &Id160);
}

impl WriteBytes for BytesMut {
    fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.put_u8(byte);
                return;
            }
            self.put_u8(byte | 0x80);
        }
    }

    fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.put_slice(s.as_bytes());
    }

    fn put_bytes_field(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.put_slice(b);
    }

    fn put_id(&mut self, id: &Id160) {
        self.put_slice(id.as_bytes());
    }
}

/// Buffer-reading helpers mirroring [`WriteBytes`].
pub trait ReadBytes {
    /// Reads an unsigned LEB128 varint.
    fn get_varint(&mut self) -> Result<u64>;
    /// Reads a length-prefixed UTF-8 string.
    fn get_str(&mut self) -> Result<String>;
    /// Reads a length-prefixed byte string.
    fn get_bytes_field(&mut self) -> Result<Vec<u8>>;
    /// Reads a raw 160-bit id.
    fn get_id(&mut self) -> Result<Id160>;
    /// Reads a length prefix, validating it against remaining input.
    fn get_len(&mut self) -> Result<usize>;
    /// Reads a one-byte boolean. Only 0 and 1 are flags: any other byte
    /// is rejected, so `encode(decode(x)) == x` holds for every flag.
    fn get_flag(&mut self) -> Result<bool>;
    /// Validates and skips a length-prefixed UTF-8 string without
    /// allocating: accepts and rejects exactly what [`Self::get_str`] does.
    fn skip_str(&mut self) -> Result<()>;
    /// Skips a length-prefixed byte string, validating as
    /// [`Self::get_bytes_field`] does.
    fn skip_bytes_field(&mut self) -> Result<()>;
}

impl ReadBytes for &[u8] {
    fn get_varint(&mut self) -> Result<u64> {
        let mut shift = 0u32;
        let mut out = 0u64;
        loop {
            let Some((&byte, rest)) = self.split_first() else {
                return Err(DharmaError::Decode("truncated varint".into()));
            };
            *self = rest;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(DharmaError::Decode("varint overflows u64".into()));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    fn get_len(&mut self) -> Result<usize> {
        let len = self.get_varint()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(DharmaError::Decode(format!("field length {len} too large")));
        }
        if len > self.len() {
            return Err(DharmaError::Decode(format!(
                "field length {len} exceeds remaining {} bytes",
                self.len()
            )));
        }
        Ok(len)
    }

    fn get_flag(&mut self) -> Result<bool> {
        match self.split_first() {
            Some((&byte @ 0..=1, rest)) => {
                *self = rest;
                Ok(byte == 1)
            }
            Some((byte, _)) => Err(DharmaError::Decode(format!(
                "flag byte {byte} is neither 0 nor 1"
            ))),
            None => Err(DharmaError::Decode("truncated flag".into())),
        }
    }

    fn get_str(&mut self) -> Result<String> {
        let len = self.get_len()?;
        let (raw, rest) = self.split_at(len);
        let name = utf8(raw)?.to_owned();
        *self = rest;
        Ok(name)
    }

    fn skip_str(&mut self) -> Result<()> {
        let len = self.get_len()?;
        let (raw, rest) = self.split_at(len);
        utf8(raw)?;
        *self = rest;
        Ok(())
    }

    fn get_bytes_field(&mut self) -> Result<Vec<u8>> {
        let len = self.get_len()?;
        let (raw, rest) = self.split_at(len);
        *self = rest;
        Ok(raw.to_vec())
    }

    fn skip_bytes_field(&mut self) -> Result<()> {
        let len = self.get_len()?;
        *self = &self[len..];
        Ok(())
    }

    fn get_id(&mut self) -> Result<Id160> {
        let Some((id, rest)) = self.split_first_chunk::<ID160_BYTES>() else {
            return Err(DharmaError::Decode("truncated id".into()));
        };
        *self = rest;
        Ok(Id160(*id))
    }
}

fn utf8(raw: &[u8]) -> Result<&str> {
    std::str::from_utf8(raw)
        .map_err(|_| DharmaError::Decode("invalid utf-8 in string field".into()))
}

/// Exact encoded size of a varint — handy for arithmetic `encoded_len`s.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    let bits = 64 - v.leading_zeros() as usize;
    bits.div_ceil(7)
}

impl WireEncode for Id160 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_id(self);
    }

    fn encoded_len(&self) -> usize {
        ID160_BYTES
    }
}

impl WireDecode for Id160 {
    const MIN_WIRE_LEN: usize = ID160_BYTES;

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        buf.get_id()
    }
}

impl WireEncode for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_str(self);
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl WireDecode for String {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        buf.get_str()
    }
}

impl WireEncode for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(*self);
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl WireDecode for u64 {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        buf.get_varint()
    }
}

impl<T: WireEncode> WireEncode for [T] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_slice().encode(buf);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let len = get_seq_len(buf, T::MIN_WIRE_LEN)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        let mut buf = BytesMut::new();
        let values = [
            0u64,
            1,
            127,
            128,
            129,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in values {
            buf.clear();
            buf.put_varint(v);
            assert_eq!(buf.len(), varint_len(v), "len of {v}");
            let mut cursor: &[u8] = &buf;
            assert_eq!(cursor.get_varint().unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut b: &[u8] = &[0x80];
        assert!(b.get_varint().is_err());
        // 11 continuation bytes overflow u64.
        let mut b: &[u8] = &[
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ];
        assert!(b.get_varint().is_err());
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_str("heavy-metal ✓");
        let mut b: &[u8] = &buf;
        assert_eq!(b.get_str().unwrap(), "heavy-metal ✓");
        assert!(b.is_empty());
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut buf = BytesMut::new();
        buf.put_bytes_field(&[0xff, 0xfe]);
        let mut b: &[u8] = &buf;
        assert!(b.get_str().is_err());
    }

    #[test]
    fn length_prefix_cannot_exceed_remaining() {
        let mut buf = BytesMut::new();
        buf.put_varint(1000);
        buf.put_slice(b"short");
        let mut b: &[u8] = &buf;
        assert!(b.get_bytes_field().is_err());
    }

    #[test]
    fn id_roundtrip() {
        let id = crate::sha1::sha1(b"x");
        let mut buf = BytesMut::new();
        buf.put_id(&id);
        let mut b: &[u8] = &buf;
        assert_eq!(b.get_id().unwrap(), id);
        assert!(b.is_empty());
        let mut short: &[u8] = &buf[..ID160_BYTES - 1];
        assert!(short.get_id().is_err());
    }

    #[test]
    fn vec_roundtrip_and_decode_exact() {
        let v: Vec<u64> = vec![0, 5, 300, 1 << 40];
        let enc = v.encode_to_bytes();
        let dec = Vec::<u64>::decode_exact(&enc).unwrap();
        assert_eq!(v, dec);
        // Trailing garbage must be rejected by decode_exact.
        let mut with_garbage = enc.to_vec();
        with_garbage.push(0);
        assert!(Vec::<u64>::decode_exact(&with_garbage).is_err());
    }

    #[test]
    fn hostile_sequence_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_varint(u32::MAX as u64); // absurd element count
        let mut b: &[u8] = &buf;
        assert!(Vec::<u64>::decode(&mut b).is_err());
    }

    #[test]
    fn sequence_claims_are_bounded_by_what_the_input_can_hold() {
        // A full-size datagram claiming more ids than its bytes can carry:
        // the claim passes a bytes-remaining test (each element "is at
        // least one byte") and, before the fix, reserved 65 000 × 20 bytes
        // ahead of the first element. It must be refused at the prefix.
        let mut buf = BytesMut::new();
        buf.put_varint(65_000);
        buf.resize(65_507, 0xff);
        let err = Vec::<Id160>::decode(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("sequence length 65000"), "{err}");
        // The largest claim the bytes can honour still decodes.
        let ids = vec![crate::sha1::sha1(b"x"); 3];
        let enc = ids.encode_to_bytes();
        assert_eq!(Vec::<Id160>::decode_exact(&enc).unwrap(), ids);
        let mut short = BytesMut::new();
        short.put_varint(3);
        short.resize(1 + 3 * ID160_BYTES - 1, 0);
        assert!(get_seq_len(&mut &short[..], ID160_BYTES).is_err());
        // Counts that overflow `usize` arithmetic are claims like any other.
        let mut huge = BytesMut::new();
        huge.put_varint(u64::MAX);
        assert!(get_seq_len(&mut &huge[..], ID160_BYTES).is_err());
    }

    #[test]
    fn flags_are_exactly_zero_or_one() {
        assert!(!(&[0u8][..]).get_flag().unwrap());
        assert!((&[1u8][..]).get_flag().unwrap());
        for byte in 2..=u8::MAX {
            assert!((&[byte][..]).get_flag().is_err(), "{byte}");
        }
        assert!((&[][..]).get_flag().is_err());
    }

    #[test]
    fn skipping_accepts_exactly_what_reading_accepts() {
        let mut buf = BytesMut::new();
        buf.put_str("heavy-metal ✓");
        buf.put_bytes_field(&[1, 2, 3]);
        buf.put_bytes_field(&[0xff, 0xfe]); // not UTF-8
        let mut b: &[u8] = &buf;
        b.skip_str().unwrap();
        b.skip_bytes_field().unwrap();
        assert_eq!(b.len(), 3);
        let (mut read, mut skip) = (b, b);
        assert!(read.get_str().is_err() && skip.skip_str().is_err());
        b.skip_bytes_field().unwrap();
        assert!(b.is_empty());
        // A length prefix past the end fails both ways.
        let cut: &[u8] = &[5, b'a'];
        let [mut a, mut b, mut c, mut d] = [cut; 4];
        assert!(a.skip_str().is_err() && b.skip_bytes_field().is_err());
        assert!(c.get_str().is_err() && d.get_bytes_field().is_err());
    }

    #[test]
    fn encoded_len_matches_actual_for_strings() {
        for s in ["", "a", "rock", &"x".repeat(200)] {
            let s = s.to_string();
            assert_eq!(s.encoded_len(), s.encode_to_bytes().len());
        }
    }
}
