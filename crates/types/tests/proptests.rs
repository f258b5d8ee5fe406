//! Property-based tests for the foundation types.

use std::collections::BTreeMap;

use bytes::BytesMut;
use dharma_types::wire::varint_len;
use dharma_types::{sha1, Id160, NameInterner, ReadBytes, WireDecode, WireEncode, WriteBytes};
use proptest::prelude::*;

proptest! {
    /// SHA-1 is deterministic and always yields 20 bytes with the same
    /// digest irrespective of chunking.
    #[test]
    fn sha1_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048), split in any::<usize>()) {
        let oneshot = sha1(&data);
        let cut = if data.is_empty() { 0 } else { split % data.len() };
        let mut h = dharma_types::Sha1::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// Different inputs essentially never collide (sanity, not a security claim).
    #[test]
    fn sha1_distinguishes_inputs(a in proptest::collection::vec(any::<u8>(), 0..128),
                                 b in proptest::collection::vec(any::<u8>(), 0..128)) {
        if a != b {
            prop_assert_ne!(sha1(&a), sha1(&b));
        }
    }

    /// Varint roundtrip over the whole u64 range.
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = BytesMut::new();
        buf.put_varint(v);
        prop_assert_eq!(buf.len(), varint_len(v));
        let mut cursor: &[u8] = &buf;
        prop_assert_eq!(cursor.get_varint().unwrap(), v);
        prop_assert!(cursor.is_empty());
    }

    /// String fields roundtrip for arbitrary unicode.
    #[test]
    fn string_roundtrip(s in "\\PC{0,300}") {
        let mut buf = BytesMut::new();
        buf.put_str(&s);
        let mut cursor: &[u8] = &buf;
        prop_assert_eq!(cursor.get_str().unwrap(), s);
        prop_assert!(cursor.is_empty());
    }

    /// Vec<u64> roundtrips through encode/decode_exact.
    #[test]
    fn vec_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
        let enc = v.encode_to_bytes();
        prop_assert_eq!(Vec::<u64>::decode_exact(&enc).unwrap(), v);
    }

    /// The decoder never panics on arbitrary garbage (it may error).
    #[test]
    fn decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Vec::<u64>::decode_exact(&data);
        let _ = String::decode_exact(&data);
        let _ = Id160::decode_exact(&data);
    }

    /// XOR metric: identity, symmetry, unidirectionality.
    #[test]
    fn xor_metric_axioms(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
        let a = Id160::from_bytes(a);
        let b = Id160::from_bytes(b);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert_eq!(a.distance(&a).bucket_index(), None);
        if a != b {
            prop_assert!(a.distance(&b) > dharma_types::Distance::ZERO);
        }
    }

    /// bucket_index is consistent with the definition via leading zeros.
    #[test]
    fn bucket_index_definition(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
        let a = Id160::from_bytes(a);
        let b = Id160::from_bytes(b);
        let d = a.distance(&b);
        if let Some(idx) = d.bucket_index() {
            prop_assert_eq!(d.0.leading_zeros(), idx);
            prop_assert!(d.0.bit(idx));
            for i in 0..idx {
                prop_assert!(!d.0.bit(i));
            }
        } else {
            prop_assert_eq!(a, b);
        }
    }
}

/// Names drawn to collide: shared 4- to 7-byte prefixes (one of them
/// multi-byte) with a short tail, so many names have equal lengths and
/// differ in one byte; plus the empty name and `"\0"`.
fn colliding_name() -> impl Strategy<Value = String> {
    let prefixes = ["tag-", "ñé-", "r00000", "t000000"];
    prop_oneof![
        Just(String::new()),
        Just("\0".to_owned()),
        (0..prefixes.len(), "[ab\0é]{0,2}")
            .prop_map(move |(p, tail)| prefixes[p].to_owned() + &tail),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

    /// The interner against a map model: over a random sequence of
    /// `intern` (0), `lookup` (1) and `resolve` (2), every handle is the
    /// name's first-sight rank, `lookup` finds exactly the interned names,
    /// and every handle resolves to its name.
    #[test]
    fn interner_matches_a_map_model(
        ops in proptest::collection::vec((0u8..3, colliding_name(), any::<u16>()), 0..200),
    ) {
        let mut t = NameInterner::new();
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        let mut syms = Vec::new();
        for (op, name, pick) in ops {
            match op {
                0 => {
                    let next = model.len() as u32;
                    let want = *model.entry(name.clone()).or_insert(next);
                    let sym = t.intern(&name);
                    prop_assert_eq!(sym.index() as u32, want);
                    syms.push(sym);
                }
                1 => prop_assert_eq!(t.lookup(&name).map(|s| s.index() as u32), model.get(&name).copied()),
                _ if !syms.is_empty() => {
                    let sym = syms[usize::from(pick) % syms.len()];
                    prop_assert_eq!(model.get(t.resolve(sym)).copied(), Some(sym.index() as u32));
                }
                _ => {}
            }
            prop_assert_eq!(t.len(), model.len());
        }
        for (name, &ix) in &model {
            let sym = t.lookup(name).expect("interned");
            prop_assert_eq!((sym.index() as u32, t.resolve(sym)), (ix, name.as_str()));
        }
    }
}
