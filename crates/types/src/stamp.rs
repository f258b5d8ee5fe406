//! Origin-stamped write versions.
//!
//! A [`VersionStamp`] is minted once, at the node that coordinates a
//! write, and travels with the write to every holder. Two stamps compare
//! exactly — `(seq, writer)` lexicographically — no matter which holder
//! reports them, which is what makes cross-holder freshness comparisons
//! (`FreshnessBook::admits`, stale-drop, monotone-serve) sound. The old
//! per-holder `u64` counters could only be compared against the *same*
//! holder's previous report; any cross-holder comparison was a guess.
//!
//! `seq` is a Lamport clock: each node folds the highest `seq` it has
//! *observed* (in digests, replies, and incoming writes) into its own
//! counter and mints with `observed_max + 1`. Ties between concurrent
//! writers are broken by the writer id, so the order is total.

use bytes::BytesMut;

use crate::error::Result;
use crate::id::{Id160, ID160_BYTES};
use crate::wire::{varint_len, ReadBytes, WireDecode, WireEncode, WriteBytes};

/// An origin-stamped write version, totally ordered by `(seq, writer)`.
///
/// The default value (`seq = 0`, all-zero writer) is the "never written"
/// floor: every minted stamp has `seq >= 1` and therefore compares above
/// it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VersionStamp {
    /// Lamport sequence number minted at the write's origin (compared
    /// first, so later writes order above everything they causally saw).
    pub seq: u64,
    /// Node id of the write's origin (the tie-breaker for concurrent
    /// writes with equal `seq`).
    pub writer: Id160,
}

impl VersionStamp {
    /// The "never written" floor stamp.
    pub const ZERO: VersionStamp = VersionStamp {
        seq: 0,
        writer: Id160::ZERO,
    };

    /// Builds a stamp from its parts.
    pub fn new(seq: u64, writer: Id160) -> Self {
        VersionStamp { seq, writer }
    }

    /// True for the never-written floor.
    pub fn is_zero(&self) -> bool {
        *self == VersionStamp::ZERO
    }
}

impl std::fmt::Debug for VersionStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `seq@writer-prefix` keeps assert messages readable.
        write!(
            f,
            "{}@{:02x}{:02x}",
            self.seq, self.writer.0[0], self.writer.0[1]
        )
    }
}

impl WireEncode for VersionStamp {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(self.seq);
        buf.put_id(&self.writer);
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.seq) + ID160_BYTES
    }
}

impl WireDecode for VersionStamp {
    const MIN_WIRE_LEN: usize = 1 + crate::id::ID160_BYTES;

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let seq = buf.get_varint()?;
        let writer = buf.get_id()?;
        Ok(VersionStamp { seq, writer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1;

    #[test]
    fn orders_by_seq_then_writer() {
        let a = sha1(b"a");
        let b = sha1(b"b");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!(
            VersionStamp::new(1, hi) < VersionStamp::new(2, lo),
            "seq wins"
        );
        assert!(
            VersionStamp::new(3, lo) < VersionStamp::new(3, hi),
            "writer breaks ties"
        );
        assert_eq!(VersionStamp::new(3, lo), VersionStamp::new(3, lo));
        assert!(
            VersionStamp::ZERO < VersionStamp::new(1, lo),
            "floor is below every mint"
        );
        assert!(VersionStamp::default().is_zero());
    }

    #[test]
    fn wire_roundtrip_and_len() {
        for stamp in [
            VersionStamp::ZERO,
            VersionStamp::new(1, sha1(b"w")),
            VersionStamp::new(u64::MAX, sha1(b"x")),
            VersionStamp::new(0x0102_0304, sha1(b"y")),
        ] {
            let enc = stamp.encode_to_bytes();
            assert_eq!(enc.len(), stamp.encoded_len());
            assert_eq!(VersionStamp::decode_exact(&enc).unwrap(), stamp);
        }
    }

    #[test]
    fn truncated_stamp_fails_cleanly() {
        let enc = VersionStamp::new(300, sha1(b"w")).encode_to_bytes();
        for cut in 0..enc.len() {
            assert!(
                VersionStamp::decode_exact(&enc[..cut]).is_err(),
                "prefix {cut}"
            );
        }
    }
}
