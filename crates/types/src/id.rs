//! 160-bit identifiers and the Kademlia XOR metric.
//!
//! [`Id160`] is used both for overlay node identifiers and for storage keys;
//! Kademlia deliberately draws them from the same space so that "closeness"
//! between a node and a key is well defined. The XOR metric
//! `d(x, y) = x ⊕ y` is symmetric, satisfies the triangle inequality, and is
//! unidirectional: for any point `x` and distance `Δ` there is exactly one
//! point `y` with `d(x, y) = Δ`.

use std::cmp::Ordering;
use std::fmt;

use rand::Rng;

use crate::hex;

/// Number of bits in an identifier.
pub const ID160_BITS: usize = 160;
/// Number of bytes in an identifier.
pub const ID160_BYTES: usize = 20;

/// A 160-bit identifier (node id or storage key), big-endian byte order.
///
/// The identifier space is the one SHA-1 hashes into; see
/// [`crate::block_key`] for how DHARMA names are mapped onto it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Id160(pub [u8; ID160_BYTES]);

impl Id160 {
    /// The all-zero identifier.
    pub const ZERO: Id160 = Id160([0u8; ID160_BYTES]);

    /// The all-ones identifier (maximum value).
    pub const MAX: Id160 = Id160([0xffu8; ID160_BYTES]);

    /// Builds an identifier from raw bytes.
    pub const fn from_bytes(bytes: [u8; ID160_BYTES]) -> Self {
        Id160(bytes)
    }

    /// Returns the raw bytes.
    pub const fn as_bytes(&self) -> &[u8; ID160_BYTES] {
        &self.0
    }

    /// Draws a uniformly random identifier from `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; ID160_BYTES];
        rng.fill_bytes(&mut bytes);
        Id160(bytes)
    }

    /// XOR distance to `other`.
    pub fn distance(&self, other: &Id160) -> Distance {
        let mut d = [0u8; ID160_BYTES];
        for (i, b) in d.iter_mut().enumerate() {
            *b = self.0[i] ^ other.0[i];
        }
        Distance(Id160(d))
    }

    /// Returns the value of bit `i` (0 = most significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < ID160_BITS);
        let byte = i / 8;
        let bit = 7 - (i % 8);
        (self.0[byte] >> bit) & 1 == 1
    }

    /// Flips bit `i` (0 = most significant) and returns the new id.
    pub fn with_flipped_bit(mut self, i: usize) -> Self {
        debug_assert!(i < ID160_BITS);
        let byte = i / 8;
        let bit = 7 - (i % 8);
        self.0[byte] ^= 1 << bit;
        self
    }

    /// Number of leading zero bits.
    pub fn leading_zeros(&self) -> usize {
        let mut n = 0usize;
        for b in &self.0 {
            if *b == 0 {
                n += 8;
            } else {
                n += b.leading_zeros() as usize;
                break;
            }
        }
        n
    }

    /// Hex string of the full identifier (40 lowercase hex digits).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// Parses a 40-digit hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = hex::decode(s)?;
        if bytes.len() != ID160_BYTES {
            return None;
        }
        let mut arr = [0u8; ID160_BYTES];
        arr.copy_from_slice(&bytes);
        Some(Id160(arr))
    }
}

impl fmt::Debug for Id160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviate: the first 8 hex digits identify a node in logs well enough.
        write!(f, "Id160({}…)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Id160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; ID160_BYTES]> for Id160 {
    fn from(bytes: [u8; ID160_BYTES]) -> Self {
        Id160(bytes)
    }
}

/// An XOR distance between two identifiers.
///
/// Wrapping the distance in its own type prevents accidentally mixing up ids
/// and distances — a classic source of Kademlia bugs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Distance(pub Id160);

impl Distance {
    /// Distance zero (an id's distance to itself).
    pub const ZERO: Distance = Distance(Id160::ZERO);

    /// The Kademlia bucket index this distance falls into: the index of the
    /// highest set bit, i.e. `floor(log2(d))`, or `None` for distance zero.
    ///
    /// Bucket `i` (with `i` counted from 0 = most significant) covers
    /// distances in `[2^(159-i), 2^(160-i))`.
    pub fn bucket_index(&self) -> Option<usize> {
        let lz = self.0.leading_zeros();
        if lz == ID160_BITS {
            None
        } else {
            Some(lz)
        }
    }

    /// `floor(log2(distance))`, or `None` for zero distance.
    pub fn log2_floor(&self) -> Option<usize> {
        self.bucket_index().map(|b| ID160_BITS - 1 - b)
    }

    /// Raw distance bits.
    pub const fn as_id(&self) -> &Id160 {
        &self.0
    }
}

impl PartialOrd for Distance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Distance {
    fn cmp(&self, other: &Self) -> Ordering {
        // Big-endian byte order makes lexicographic comparison numeric.
        self.0 .0.cmp(&other.0 .0)
    }
}

impl fmt::Debug for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.log2_floor() {
            Some(l) => write!(f, "Distance(~2^{l})"),
            None => write!(f, "Distance(0)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(byte: u8) -> Id160 {
        Id160([byte; ID160_BYTES])
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = id(0xab);
        assert_eq!(a.distance(&a), Distance::ZERO);
        assert_eq!(a.distance(&a).bucket_index(), None);
    }

    #[test]
    fn distance_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let a = Id160::random(&mut rng);
            let b = Id160::random(&mut rng);
            assert_eq!(a.distance(&b), b.distance(&a));
        }
    }

    #[test]
    fn xor_triangle_inequality() {
        // d(a,c) <= d(a,b) xor-add d(b,c); for XOR metric equality holds as
        // d(a,c) = d(a,b) ^ d(b,c), and numeric <= holds for the sum.
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..256 {
            let a = Id160::random(&mut rng);
            let b = Id160::random(&mut rng);
            let c = Id160::random(&mut rng);
            let ab = a.distance(&b).0;
            let bc = b.distance(&c).0;
            let ac = a.distance(&c).0;
            let mut xor = [0u8; ID160_BYTES];
            for (i, x) in xor.iter_mut().enumerate() {
                *x = ab.0[i] ^ bc.0[i];
            }
            assert_eq!(ac.0, xor, "unidirectionality of xor metric");
        }
    }

    #[test]
    fn bucket_index_matches_leading_zeros() {
        let a = Id160::ZERO;
        let b = a.with_flipped_bit(0);
        assert_eq!(a.distance(&b).bucket_index(), Some(0));
        let c = a.with_flipped_bit(159);
        assert_eq!(a.distance(&c).bucket_index(), Some(159));
        assert_eq!(a.distance(&c).log2_floor(), Some(0));
    }

    #[test]
    fn bit_accessors_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Id160::random(&mut rng);
        for i in [0usize, 1, 7, 8, 9, 63, 64, 100, 159] {
            let flipped = a.with_flipped_bit(i);
            assert_ne!(a.bit(i), flipped.bit(i));
            assert_eq!(flipped.with_flipped_bit(i), a);
        }
    }

    #[test]
    fn ordering_is_numeric() {
        let mut small = [0u8; ID160_BYTES];
        small[ID160_BYTES - 1] = 1;
        let mut big = [0u8; ID160_BYTES];
        big[0] = 1;
        assert!(Distance(Id160(small)) < Distance(Id160(big)));
        assert!(Distance(Id160::ZERO) < Distance(Id160(small)));
    }

    #[test]
    fn hex_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..16 {
            let a = Id160::random(&mut rng);
            assert_eq!(Id160::from_hex(&a.to_hex()), Some(a));
        }
        assert_eq!(Id160::from_hex("zz"), None);
        assert_eq!(Id160::from_hex("ab"), None); // too short
    }

    #[test]
    fn leading_zeros_counts() {
        assert_eq!(Id160::ZERO.leading_zeros(), 160);
        assert_eq!(Id160::MAX.leading_zeros(), 0);
        let one_low = {
            let mut b = [0u8; ID160_BYTES];
            b[ID160_BYTES - 1] = 1;
            Id160(b)
        };
        assert_eq!(one_low.leading_zeros(), 159);
    }
}
