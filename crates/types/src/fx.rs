//! A fast, non-cryptographic hasher for hot-path hash maps.
//!
//! The folksonomy graphs are hashmap-heavy (hundreds of thousands of tags,
//! millions of arcs); SipHash's DoS resistance buys nothing in a simulator
//! and costs real time. This is the well-known `FxHash` function used by
//! rustc (multiply-xor over machine words), reimplemented here to stay within
//! the offline dependency set.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from rustc's FxHash (64-bit golden-ratio based).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash hasher state.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// The little-endian word of `rest` (under 8 bytes) zero-padded to 8,
/// built a byte at a time: copying `rest` into a padded array compiles to
/// a `memcpy` call, one per hash of an `Id160` (whose 20 bytes leave a
/// 4-byte tail, which this folds into one 4-byte load).
#[inline]
fn tail_word(rest: &[u8]) -> u64 {
    rest.iter()
        .rev()
        .fold(0, |word, &b| word << 8 | u64::from(b))
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.add_to_hash(tail_word(rest));
            // Mix in the length so "a" and "a\0" differ.
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
        m.remove(&1);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn hash_distinguishes_lengths() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<FxHasher> = Default::default();
        let h1 = bh.hash_one([1u8].as_slice());
        let h2 = bh.hash_one([1u8, 0].as_slice());
        assert_ne!(h1, h2);
    }

    /// The tail word built by loads hashes as the zero-padded copy did:
    /// the earlier `write`, copied here, against the current one on every
    /// length up to three words and on runs of random bytes, so no hash
    /// value, and no iteration order of an Fx table, moves.
    #[test]
    fn write_matches_the_padded_copy_formula() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn padded_copy(bytes: &[u8]) -> u64 {
            let mut h = FxHasher::default();
            let mut chunks = bytes.chunks_exact(8);
            for chunk in &mut chunks {
                h.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
            }
            let rest = chunks.remainder();
            if !rest.is_empty() {
                let mut word = [0u8; 8];
                word[..rest.len()].copy_from_slice(rest);
                h.add_to_hash(u64::from_le_bytes(word));
                h.add_to_hash(rest.len() as u64);
            }
            h.finish()
        }
        let mut rng = StdRng::seed_from_u64(7);
        for len in 0..=24 {
            for _ in 0..64 {
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let mut h = FxHasher::default();
                h.write(&bytes);
                assert_eq!(h.finish(), padded_copy(&bytes), "on {bytes:?}");
            }
        }
        let run: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
        for start in 0..64 {
            for end in (start..run.len()).step_by(97) {
                let mut h = FxHasher::default();
                h.write(&run[start..end]);
                assert_eq!(h.finish(), padded_copy(&run[start..end]));
            }
        }
    }

    #[test]
    fn set_dedupes() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }
}
