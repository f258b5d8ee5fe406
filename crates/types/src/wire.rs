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
//! ## The receive-side fast paths
//!
//! A received value is mostly short names and small weights, and every
//! one of them is validated on receipt, so two checks take a shortcut for
//! the common case. Each shortcut accepts and rejects exactly what the
//! general check does, leaves the cursor in the same place and fails with
//! the same error; the tests hold both to a copy of the general form on
//! random input.
//!
//! * [`ReadBytes::get_varint`] returns a first byte below `0x80` as the
//!   whole value. That is the general loop's first iteration: at shift 0
//!   the overflow test cannot fire, and a clear continuation bit ends the
//!   varint. Every name length under 128 bytes and every weight under 128
//!   is such a byte. Any other first byte, or none, goes to the loop.
//! * [`ReadBytes::skip_str`] accepts an all-ASCII name after a bounds
//!   check. ASCII is valid UTF-8, so `from_utf8` could not have refused
//!   it; a name with any byte of `0x80` or above goes through `from_utf8`
//!   as before. [`get_str_ref`], which must return a `&str`, and
//!   [`ReadBytes::get_str`], which owns one, keep their one `from_utf8`.
//!
//! The slice primitives are `#[inline]`, so a walk over an entry list in
//! another crate compiles to one loop instead of a call per field.
//!
//! Layout conventions:
//! * integers are unsigned LEB128 varints (`put_varint`) unless fixed width is
//!   structurally required; a `u32` refuses a varint past `u32::MAX`;
//! * a `bool` is one flag byte, 0 or 1;
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

/// Reads a length-prefixed UTF-8 string as a slice of the input: what
/// [`ReadBytes::get_str`] reads, with the same checks and errors, borrowed
/// instead of copied.
#[inline]
pub fn get_str_ref<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    get_bytes_ref(buf).and_then(utf8)
}

/// Reads a length-prefixed byte string as a slice of the input: what
/// [`ReadBytes::get_bytes_field`] reads, borrowed instead of copied.
#[inline]
pub fn get_bytes_ref<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = buf.get_len()?;
    let (raw, rest) = buf.split_at(len);
    *buf = rest;
    Ok(raw)
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
    #[inline]
    fn get_varint(&mut self) -> Result<u64> {
        // A one-byte varint (module docs).
        if let Some((&byte @ 0..0x80, rest)) = self.split_first() {
            *self = rest;
            return Ok(u64::from(byte));
        }
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

    #[inline]
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

    #[inline]
    fn get_str(&mut self) -> Result<String> {
        get_str_ref(self).map(str::to_owned)
    }

    #[inline]
    fn skip_str(&mut self) -> Result<()> {
        // An ASCII name is valid UTF-8 (module docs).
        let raw = get_bytes_ref(self)?;
        if raw.is_ascii() {
            return Ok(());
        }
        utf8(raw).map(drop)
    }

    fn get_bytes_field(&mut self) -> Result<Vec<u8>> {
        get_bytes_ref(self).map(<[u8]>::to_vec)
    }

    fn skip_bytes_field(&mut self) -> Result<()> {
        get_bytes_ref(self).map(drop)
    }

    fn get_id(&mut self) -> Result<Id160> {
        let Some((id, rest)) = self.split_first_chunk::<ID160_BYTES>() else {
            return Err(DharmaError::Decode("truncated id".into()));
        };
        *self = rest;
        Ok(Id160(*id))
    }
}

/// The check every string field is held to: `raw` as a `&str`, or the
/// error an invalid one fails with.
pub fn utf8(raw: &[u8]) -> Result<&str> {
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

impl WireEncode for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(u64::from(*self));
    }

    fn encoded_len(&self) -> usize {
        varint_len(u64::from(*self))
    }
}

/// A `u32` is a varint that fits 32 bits: a larger one is refused, not cut
/// to its low bits, so it cannot alias a smaller value.
impl WireDecode for u32 {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let v = buf.get_varint()?;
        u32::try_from(v).map_err(|_| DharmaError::Decode(format!("varint {v} overflows u32")))
    }
}

/// A `bool` is a flag byte, 0 or 1 ([`ReadBytes::get_flag`]).
impl WireEncode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl WireDecode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        buf.get_flag()
    }
}

impl<T: WireEncode> WireEncode for [T] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }

    /// Encodes into one buffer of exactly [`WireEncode::encoded_len`] bytes.
    fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(T::encoded_len).sum::<usize>()
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_slice().encode(buf);
    }

    fn encode_to_bytes(&self) -> Bytes {
        self.as_slice().encode_to_bytes()
    }

    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
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

    /// The general forms the fast paths must agree with: the varint loop
    /// alone, and a string check that runs `from_utf8` on every name. Error
    /// texts are spelled out, so a changed text fails the comparison.
    mod general {
        use super::*;

        pub fn get_varint(buf: &mut &[u8]) -> Result<u64> {
            let mut shift = 0u32;
            let mut out = 0u64;
            loop {
                let Some((&byte, rest)) = buf.split_first() else {
                    return Err(DharmaError::Decode("truncated varint".into()));
                };
                *buf = rest;
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

        pub fn get_len(buf: &mut &[u8]) -> Result<usize> {
            let len = get_varint(buf)? as usize;
            if len > MAX_FIELD_LEN {
                return Err(DharmaError::Decode(format!("field length {len} too large")));
            }
            if len > buf.len() {
                return Err(DharmaError::Decode(format!(
                    "field length {len} exceeds remaining {} bytes",
                    buf.len()
                )));
            }
            Ok(len)
        }

        pub fn get_str_ref<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
            let len = get_len(buf)?;
            let (raw, rest) = buf.split_at(len);
            *buf = rest;
            std::str::from_utf8(raw)
                .map_err(|_| DharmaError::Decode("invalid utf-8 in string field".into()))
        }
    }

    /// One field of a generated input, with the read that consumes it.
    fn field(kind: u8, x: u64, y: u8) -> (Vec<u8>, u8) {
        let mut buf = BytesMut::new();
        let ascii = |n: u64| (0..n % 20).map(|i| ((x >> (i % 8)) as u8 ^ i as u8) & 0x7f);
        let name = |buf: &mut BytesMut, raw: &[u8]| buf.put_bytes_field(raw);
        let text = [1 + y % 3, 2 + y % 3]; // skip_str, or get_str / get_str_ref
        match kind {
            0 => buf.put_u8(x as u8 & 0x7f),
            1 => buf.put_varint(x | 0x80),
            // Ten bytes that overflow at shift 63, or eleven.
            2 => {
                buf.put_slice(&[0xff; 9]);
                if y.is_multiple_of(2) {
                    buf.put_u8(2 + (x % 126) as u8);
                } else {
                    buf.put_slice(&[0xff, 0x01]);
                }
            }
            // A continuation bit with nothing after it.
            3 => buf.put_u8(0x80 | x as u8),
            4 => name(&mut buf, &ascii(x).collect::<Vec<_>>()),
            5 => {
                let word = ["é", "✓", "naïve", "tag-😀", "Ü-ß"][(x % 5) as usize];
                let mut raw: Vec<u8> = ascii(x >> 8).collect();
                raw.extend_from_slice(word.as_bytes());
                name(&mut buf, &raw);
            }
            // A lone continuation byte inside an ASCII name.
            6 => {
                let mut raw: Vec<u8> = ascii(x).collect();
                raw.insert(raw.len() / 2, 0x80 | (y & 0x3f));
                name(&mut buf, &raw);
            }
            // A three-byte sequence (`✓`) cut after two bytes.
            7 => {
                let mut raw: Vec<u8> = ascii(x).collect();
                raw.extend_from_slice(&"✓".as_bytes()[..2]);
                raw.extend(ascii(x >> 16));
                name(&mut buf, &raw);
            }
            // A length prefix past the bytes left, or past MAX_FIELD_LEN.
            8 => {
                let raw: Vec<u8> = ascii(x).collect();
                let past = if y.is_multiple_of(4) {
                    MAX_FIELD_LEN
                } else {
                    1 + (x % 300) as usize
                };
                buf.put_varint((raw.len() + past) as u64);
                buf.put_slice(&raw);
            }
            _ => (0..x % 8).for_each(|i| buf.put_u8((x >> (8 * i)) as u8)),
        }
        let read = match kind {
            0..=3 => 0,
            4..=8 => text[usize::from(y % 2)],
            _ => y,
        };
        (buf.to_vec(), read)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(
            if cfg!(miri) { 64 } else { 1024 }
        ))]

        /// Over fields of every shape — one-byte, multi-byte and
        /// overflowing varints, a truncated one, ASCII and non-ASCII names,
        /// a lone continuation byte, a cut UTF-8 sequence, lengths past the
        /// end — read in order, out of order (one read in four is drawn at
        /// random) and cut short, every fast-path primitive returns what
        /// the general form returns, fails with its error text and leaves
        /// the same bytes behind.
        #[test]
        fn fast_paths_read_exactly_what_the_general_forms_read(
            fields in proptest::collection::vec(
                (0u8..10, proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<u8>()),
                0..12,
            ),
            (cut, drawn) in (proptest::arbitrary::any::<u16>(), proptest::arbitrary::any::<u64>()),
        ) {
            let (mut input, mut reads) = (Vec::new(), Vec::new());
            for (i, &(kind, x, y)) in fields.iter().enumerate() {
                let (bytes, read) = field(kind, x, y);
                input.extend(bytes);
                let random = (drawn >> (2 * (i % 32))) & 3 == 0;
                reads.push(if random { (drawn >> i) as u8 } else { read } % 5);
            }
            if cut % 2 == 1 {
                input.truncate(usize::from(cut / 2) % (input.len() + 1));
            }
            let (mut fast, mut general): (&[u8], &[u8]) = (&input, &input);
            let show = |r: Result<String>| r.map_err(|e| e.to_string());
            for read in reads {
                let (a, b) = match read {
                    0 => (
                        fast.get_varint().map(|v| v.to_string()),
                        general::get_varint(&mut general).map(|v| v.to_string()),
                    ),
                    1 => (
                        fast.skip_str().map(|()| String::new()),
                        general::get_str_ref(&mut general).map(|_| String::new()),
                    ),
                    2 => (fast.get_str(), general::get_str_ref(&mut general).map(str::to_owned)),
                    3 => (
                        get_str_ref(&mut fast).map(str::to_owned),
                        general::get_str_ref(&mut general).map(str::to_owned),
                    ),
                    _ => (
                        fast.get_len().map(|n| n.to_string()),
                        general::get_len(&mut general).map(|n| n.to_string()),
                    ),
                };
                proptest::prop_assert_eq!(show(a), show(b), "read {} of {:?}", read, input);
                proptest::prop_assert_eq!(fast, general, "read {} of {:?}", read, input);
            }
        }
    }

    #[test]
    fn encoded_len_matches_actual_for_strings() {
        for s in ["", "a", "rock", &"x".repeat(200)] {
            let s = s.to_string();
            assert_eq!(s.encoded_len(), s.encode_to_bytes().len());
        }
    }
}
