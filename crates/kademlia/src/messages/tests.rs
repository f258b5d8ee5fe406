//! The codec's test corpus: round trips, truncations, mutations, and the
//! lazy decoder held to the eager one.

use super::*;
use bytes::Bytes;
use dharma_types::sha1;
use dharma_types::wire::{get_bytes_ref, varint_len};
use proptest::prelude::*;

/// Mints test stamps from a writer derived from the seq, so distinct
/// versions also differ in writer bytes (exercises both fields).
fn st(seq: u64) -> VersionStamp {
    VersionStamp::new(seq, sha1(&seq.to_le_bytes()))
}

fn contact(n: u8) -> Contact {
    Contact {
        id: sha1(&[n]),
        addr: u32::from(n),
    }
}

fn roundtrip(m: &Message) {
    let enc = m.encode_to_bytes();
    let dec = Message::decode_exact(&enc).unwrap();
    assert_eq!(&dec, m);
}

/// Decodes the way `on_message` does, giving `answer` to the question
/// what the value is for. Also checks the question is put for the six
/// value-bearing types only, with the type, the rpc and (for a push or a
/// write) the key, and that a body comes back exactly when `answer`
/// keeps one.
pub(super) fn decode_as(data: &[u8], answer: ValueUse) -> Result<(Message, Option<Bytes>)> {
    let mut asked = None;
    let out = Message::decode_datagram(Bytes::copy_from_slice(data), |ty, rpc, key| {
        asked = Some((ty, rpc, key.copied()));
        answer
    });
    if let Ok((m, body)) = &out {
        let expected = match m {
            Message::FoundValue { rpc, .. } => Some((Message::T_FOUND_VALUE, *rpc, None)),
            Message::CachePush { rpc, key, .. } => Some((Message::T_CACHE_PUSH, *rpc, Some(*key))),
            Message::InvalidatePush { rpc, key, .. } => {
                Some((Message::T_INVALIDATE_PUSH, *rpc, Some(*key)))
            }
            Message::Store { rpc, key, .. } => Some((Message::T_STORE, *rpc, Some(*key))),
            Message::Append { rpc, key, .. } => Some((Message::T_APPEND, *rpc, Some(*key))),
            Message::Replicate { rpc, key, .. } => Some((Message::T_REPLICATE, *rpc, Some(*key))),
            _ => None,
        };
        assert_eq!(asked, expected);
        assert_eq!(body.is_some(), asked.is_some() && answer != ValueUse::Skip);
    }
    out
}

/// The wire body of `m`'s value — a `Store`'s blob, an `Append`'s entry
/// list, or the blob option and then the entry list of the other four
/// value-bearing types — as `m` encodes it.
fn value_body(m: &Message) -> Option<Bytes> {
    let mut body = BytesMut::new();
    match m {
        Message::Store { blob, .. } => body.put_bytes_field(blob),
        Message::Append { entries, .. } => entries.encode(&mut body),
        Message::FoundValue { blob, entries, .. }
        | Message::CachePush { blob, entries, .. }
        | Message::InvalidatePush { blob, entries, .. }
        | Message::Replicate { blob, entries, .. } => {
            put_opt_blob(&mut body, blob.as_deref());
            entries.encode(&mut body);
        }
        _ => return None,
    }
    Some(body.freeze())
}

/// A kept body is the value the eager decode built, as `data` carried
/// it: the body decodes, to its end and in the layout of `eager`'s value,
/// to that value, and where `data` is its message's own encoding the body
/// is its re-encoding byte for byte. (Elsewhere it may differ: an
/// overlong varint is kept as received.)
fn check_body(data: &[u8], eager: &Message, body: &[u8]) {
    const KEPT: &str = "a kept body decodes";
    let (mut rest, mut decoded) = (body, BytesMut::new());
    match eager {
        Message::Store { .. } => decoded.put_bytes_field(get_bytes_ref(&mut rest).expect(KEPT)),
        Message::Append { .. } => Vec::<StoredEntry>::decode(&mut rest)
            .expect(KEPT)
            .encode(&mut decoded),
        _ => {
            put_opt_blob(&mut decoded, get_opt_blob(&mut rest).expect(KEPT));
            Vec::<StoredEntry>::decode(&mut rest)
                .expect(KEPT)
                .encode(&mut decoded);
        }
    }
    assert!(rest.is_empty(), "the body ends where the value does");
    let expected = value_body(eager).expect("a value-bearing message");
    assert_eq!(&decoded[..], &expected[..], "on {data:?}");
    if eager.encode_to_bytes() == *data {
        assert_eq!(body, &expected[..], "on {data:?}");
    }
}

/// The datagram decoder building every value against `decode_exact`: one
/// cursor, one result — the same message or the same error — and, on a
/// value, the body that carried it.
fn check_datagram_equals_exact(data: &[u8]) -> Result<Message> {
    let exact = Message::decode_exact(data);
    let datagram = decode_as(data, ValueUse::Owned);
    let message = datagram.as_ref().map(|(m, _)| m);
    assert_eq!(message, exact.as_ref(), "on {data:?}");
    if let (Ok(m), Ok((_, Some(body)))) = (&exact, &datagram) {
        check_body(data, m, body);
    }
    exact
}

/// The three answers against each other on arbitrary bytes: the same
/// datagrams accepted and rejected — a rejected one with the same error,
/// since every answer runs the owning decoder's checks in its order —
/// and, blob and entries aside, the same message; a kept body is the one
/// that carried the eager decode's value. Anything accepted survives a
/// re-encode roundtrip.
fn check_decoders_agree(data: &[u8]) {
    let eager = check_datagram_equals_exact(data);
    if let Ok(m) = &eager {
        roundtrip(m);
    }
    let without_value = |mut m: Message| {
        match &mut m {
            Message::Store { blob, .. } => *blob = Vec::new(),
            Message::Append { entries, .. } => *entries = Vec::new(),
            Message::FoundValue { blob, entries, .. }
            | Message::CachePush { blob, entries, .. }
            | Message::InvalidatePush { blob, entries, .. }
            | Message::Replicate { blob, entries, .. } => (*blob, *entries) = (None, Vec::new()),
            _ => {}
        }
        m
    };
    for answer in [ValueUse::Skip, ValueUse::Body] {
        let lazy = decode_as(data, answer);
        let message = lazy.clone().map(|(m, _)| m);
        assert_eq!(
            message,
            eager.clone().map(without_value),
            "{answer:?} on {data:?}"
        );
        if let (Ok(m), Ok((_, Some(body)))) = (&eager, &lazy) {
            check_body(data, m, body);
        }
    }
}

/// Offsets of `m`'s flag bytes in its encoding: booleans are found by
/// encoding `m` with the flag toggled (exactly that byte differs), a
/// blob option's flag sits at a fixed place behind the header.
fn flag_offsets(m: &Message) -> Vec<usize> {
    let enc = m.encode_to_bytes();
    let toggled = |edit: &dyn Fn(&mut Message)| {
        let mut other = m.clone();
        edit(&mut other);
        let other = other.encode_to_bytes();
        assert_eq!(other.len(), enc.len());
        let differing: Vec<usize> = (0..enc.len()).filter(|&i| enc[i] != other[i]).collect();
        assert_eq!(differing.len(), 1, "a flag is one byte");
        differing[0]
    };
    let head = 1 + varint_len(m.rpc_id()) + ID160_BYTES + varint_len(u64::from(m.sender().addr));
    match m {
        Message::FindValue { .. } => vec![toggled(&|m| {
            if let Message::FindValue { no_cache, .. } = m {
                *no_cache ^= true;
            }
        })],
        Message::FoundValue { .. } => vec![
            head,
            toggled(&|m| {
                if let Message::FoundValue { truncated, .. } = m {
                    *truncated ^= true;
                }
            }),
            toggled(&|m| {
                if let Message::FoundValue { from_cache, .. } = m {
                    *from_cache ^= true;
                }
            }),
        ],
        Message::Replicate { .. } => vec![head + ID160_BYTES],
        Message::CachePush { top_n, .. } | Message::InvalidatePush { top_n, .. } => vec![
            head + ID160_BYTES + varint_len(u64::from(*top_n)),
            toggled(&|m| {
                if let Message::CachePush { truncated, .. }
                | Message::InvalidatePush { truncated, .. } = m
                {
                    *truncated ^= true;
                }
            }),
        ],
        _ => Vec::new(),
    }
}

/// One representative encoding per variant shape (empty and populated
/// collections, present and absent options) — shared by the roundtrip,
/// truncation, and mutation tests.
pub(super) fn corpus() -> Vec<Message> {
    vec![
        Message::Ping {
            rpc: 1,
            from: contact(1),
        },
        Message::Pong {
            rpc: 1,
            from: contact(2),
            digest: vec![],
        },
        Message::Pong {
            rpc: 2,
            from: contact(2),
            digest: vec![
                DigestEntry {
                    key: sha1(b"hot"),
                    version: st(9),
                },
                DigestEntry {
                    key: sha1(b"news"),
                    version: st(u64::MAX),
                },
            ],
        },
        Message::FindNode {
            rpc: 7,
            from: contact(1),
            target: sha1(b"t"),
        },
        Message::FoundNodes {
            rpc: 7,
            from: contact(2),
            contacts: vec![contact(3), contact(4)],
            digest: vec![DigestEntry {
                key: sha1(b"k"),
                version: st(3),
            }],
        },
        Message::FindValue {
            rpc: 9,
            from: contact(1),
            key: sha1(b"k"),
            top_n: 100,
            no_cache: false,
        },
        Message::FindValue {
            rpc: 10,
            from: contact(1),
            key: sha1(b"k2"),
            top_n: 0,
            no_cache: true,
        },
        Message::FoundValue {
            rpc: 9,
            from: contact(2),
            blob: Some(b"uri://x".to_vec()),
            entries: vec![
                StoredEntry {
                    name: "rock".into(),
                    weight: 42,
                },
                StoredEntry {
                    name: "pop".into(),
                    weight: 1,
                },
            ],
            truncated: true,
            version: st(7),
            from_cache: false,
            digest: vec![DigestEntry {
                key: sha1(b"k"),
                version: st(7),
            }],
        },
        Message::FoundValue {
            rpc: 9,
            from: contact(2),
            blob: None,
            entries: vec![],
            truncated: false,
            version: VersionStamp::ZERO,
            from_cache: true,
            digest: vec![],
        },
        Message::Store {
            rpc: 11,
            from: contact(1),
            key: sha1(b"k"),
            blob: b"payload".to_vec(),
            stamp: st(1),
        },
        Message::Store {
            rpc: 12,
            from: contact(2),
            key: sha1(b"k2"),
            blob: Vec::new(),
            stamp: st(3),
        },
        Message::Append {
            rpc: 13,
            from: contact(1),
            key: sha1(b"k"),
            entries: vec![
                StoredEntry {
                    name: "heavy-metal".into(),
                    weight: 1,
                },
                StoredEntry {
                    name: "rock".into(),
                    weight: 3,
                },
            ],
            stamp: st(2),
        },
        Message::Append {
            rpc: 14,
            from: contact(2),
            key: sha1(b"k2"),
            entries: vec![
                StoredEntry {
                    name: "naïve ✓".into(),
                    weight: 300,
                },
                StoredEntry {
                    name: "naïve ✓".into(),
                    weight: 1,
                },
            ],
            stamp: st(4),
        },
        Message::Append {
            rpc: 14,
            from: contact(3),
            key: sha1(b"k"),
            entries: vec![],
            stamp: st(5),
        },
        Message::Replicate {
            rpc: 15,
            from: contact(1),
            key: sha1(b"k"),
            blob: Some(b"snapshot".to_vec()),
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: 9,
            }],
            stamp: st(9),
        },
        Message::Replicate {
            rpc: 16,
            from: contact(2),
            key: sha1(b"k2"),
            blob: None,
            entries: vec![
                StoredEntry {
                    name: "rock✓".into(),
                    weight: 300,
                },
                StoredEntry {
                    name: "".into(),
                    weight: 0,
                },
            ],
            stamp: st(10),
        },
        Message::CachePush {
            rpc: 17,
            from: contact(3),
            key: sha1(b"hot"),
            top_n: 100,
            blob: None,
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: 12,
            }],
            truncated: true,
            version: st(42),
        },
        Message::InvalidatePush {
            rpc: 18,
            from: contact(2),
            key: sha1(b"hot"),
            top_n: 8,
            blob: Some(vec![9, 9, 9]),
            entries: vec![StoredEntry {
                name: "jazz".into(),
                weight: 3,
            }],
            truncated: false,
            stamp: st(43),
        },
        Message::Ack {
            rpc: 13,
            from: contact(2),
        },
        Message::Leave {
            rpc: 19,
            from: contact(4),
        },
    ]
}

#[test]
fn all_messages_roundtrip() {
    for m in &corpus() {
        roundtrip(m);
    }
}

/// Every message is encoded into one buffer of exactly its size, and to
/// the bytes a growing buffer gets: `encoded_len` is the length `encode`
/// writes, and `encode_to_bytes`, which allocates that length and
/// debug-asserts that it filled it, returns those bytes.
#[test]
fn every_message_encodes_exactly_into_its_buffer() {
    for m in &corpus() {
        let mut grown = BytesMut::new();
        m.encode(&mut grown);
        assert_eq!(m.encoded_len(), grown.len(), "{m:?}");
        assert_eq!(m.encode_to_bytes(), grown.freeze(), "{m:?}");
    }
}

#[test]
fn every_strict_prefix_fails_to_decode() {
    // A UDP datagram can arrive truncated (or an MTU mismatch can cut
    // it); the decoder must reject every strict prefix of a valid
    // encoding — cleanly, never by panicking or inventing a message.
    for m in &corpus() {
        let enc = m.encode_to_bytes();
        for cut in 0..enc.len() {
            assert!(
                Message::decode_exact(&enc[..cut]).is_err(),
                "prefix of {} bytes (of {}) decoded for {m:?}",
                cut,
                enc.len(),
            );
            check_decoders_agree(&enc[..cut]);
        }
        check_decoders_agree(&enc);
    }
}

#[test]
fn datagram_and_exact_decoders_agree_on_the_whole_corpus() {
    // `decode_datagram` and `decode_exact` share one cursor type and one
    // decoder: message for message and error for error, with a kept body
    // equal to the value re-encoded, on every corpus encoding, every
    // strict prefix of it, and every single-byte mutant.
    let (mut accepted, mut rejected, mut bodies) = (0, 0, 0);
    for m in &corpus() {
        let enc = m.encode_to_bytes();
        assert_eq!(check_datagram_equals_exact(&enc).as_ref(), Ok(m));
        for cut in 0..enc.len() {
            assert!(check_datagram_equals_exact(&enc[..cut]).is_err());
        }
        for i in 0..enc.len() {
            for pattern in [0x01u8, 0x80, 0xff] {
                let mut bent = enc.to_vec();
                bent[i] ^= pattern;
                match check_datagram_equals_exact(&bent) {
                    Ok(m) => {
                        (accepted, bodies) = (accepted + 1, bodies + value_body(&m).iter().count())
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    // Both outcomes are exercised, kept bodies among them, so agreement is
    // not vacuous.
    assert!(
        accepted > 0 && rejected > 0 && bodies > 0,
        "{accepted} / {rejected} / {bodies}"
    );
}

#[test]
fn flag_bytes_other_than_zero_and_one_are_rejected() {
    // `get_u8() == 1` used to read every byte but 1 as `false` — 254
    // encodings of one meaning, none of which re-encode to themselves.
    let mut flags = 0;
    for m in &corpus() {
        let enc = m.encode_to_bytes();
        for at in flag_offsets(m) {
            flags += 1;
            assert!(enc[at] <= 1, "offset {at} of {m:?} is not a flag");
            for byte in 2..=u8::MAX {
                let mut bent = enc.to_vec();
                bent[at] = byte;
                assert!(
                    Message::decode_exact(&bent).is_err()
                        && decode_as(&bent, ValueUse::Skip).is_err(),
                    "flag byte {byte} at {at} accepted for {m:?}",
                );
            }
        }
    }
    // FindValue ×2, FoundValue 3 ×2, Replicate ×2, CachePush 2, InvalidatePush 2.
    assert_eq!(flags, 14);
}

#[test]
fn hostile_entry_count_is_refused_before_any_reservation() {
    // A maximal datagram whose FoundValue claims 65 000 entries and
    // then carries junk: both decoders refuse at the count (two bytes
    // per entry at least cannot fit), not 2 MiB of `Vec` later.
    let mut buf = BytesMut::new();
    put_head(&mut buf, Message::T_FOUND_VALUE, 1, &contact(1));
    put_opt_blob(&mut buf, None);
    buf.put_varint(65_000);
    buf.resize(65_507, 0xff);
    let skipped = decode_as(&buf, ValueUse::Skip).map(|(m, _)| m);
    for decoded in [Message::decode_exact(&buf), skipped] {
        let err = decoded.unwrap_err().to_string();
        assert!(err.contains("sequence length 65000"), "{err}");
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    // Bit-flip every byte of every corpus encoding with several
    // patterns. Decoding may succeed (some flips land in payload
    // bytes) or fail — but it must always *return*, anything it
    // accepts must survive a re-encode roundtrip, and the lazy decoder
    // must agree with the eager one on every mutant.
    for m in &corpus() {
        let enc = m.encode_to_bytes();
        for i in 0..enc.len() {
            for pattern in [0x01u8, 0x80, 0xff] {
                let mut bent = enc.to_vec();
                bent[i] ^= pattern;
                check_decoders_agree(&bent);
            }
        }
    }
}

#[test]
fn two_byte_mutations_never_panic() {
    // Pairs of corruptions interact in ways single flips cannot: the
    // first flip can grow a length field so the *second* lands inside
    // a now-misinterpreted region. Exhaustive pairs are quadratic in
    // datagram size, so pair every byte with a striding partner and
    // keep the per-byte pattern variety from the single-flip test.
    for m in &corpus() {
        let enc = m.encode_to_bytes();
        let n = enc.len();
        for i in 0..n {
            for stride in [1usize, 2, 3, 7, 13] {
                let j = (i + stride) % n;
                if i == j {
                    continue;
                }
                for (pa, pb) in [(0xffu8, 0x01u8), (0x80, 0xff), (0x01, 0x80)] {
                    let mut bent = enc.to_vec();
                    bent[i] ^= pa;
                    bent[j] ^= pb;
                    check_decoders_agree(&bent);
                }
            }
        }
    }
}

#[test]
fn truncation_inside_digest_entries_fails_cleanly() {
    // The digest rides piggyback at the *tail* of Pong / FoundNodes /
    // FoundValue, so a cut mid-`DigestEntry` (20-byte key + varint
    // seq + 20-byte writer) is exactly where an MTU clip lands. Walk every
    // cut position inside the digest region specifically, not just
    // every prefix, and confirm the decoder neither panics nor yields
    // a message with a shortened digest.
    let digest = vec![
        DigestEntry {
            key: sha1(b"a"),
            version: st(1),
        },
        DigestEntry {
            key: sha1(b"b"),
            version: st(u64::MAX),
        },
        DigestEntry {
            key: sha1(b"c"),
            version: st(0x0102_0304_0506_0708),
        },
    ];
    let carriers = vec![
        Message::Pong {
            rpc: 5,
            from: contact(1),
            digest: digest.clone(),
        },
        Message::FoundNodes {
            rpc: 6,
            from: contact(2),
            contacts: vec![contact(3)],
            digest: digest.clone(),
        },
        Message::FoundValue {
            rpc: 7,
            from: contact(2),
            blob: Some(b"uri://x".to_vec()),
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: 2,
            }],
            truncated: false,
            version: st(3),
            from_cache: false,
            digest: digest.clone(),
        },
    ];
    for m in &carriers {
        let enc = m.encode_to_bytes();
        // The digest is encoded last: each entry is the 20 key bytes
        // plus the stamp (varint seq + 20 writer bytes).
        let digest_bytes: usize = digest
            .iter()
            .map(|e| ID160_BYTES + e.version.encoded_len())
            .sum();
        assert!(enc.len() > digest_bytes);
        let digest_start = enc.len() - digest_bytes;
        for cut in digest_start..enc.len() {
            assert!(
                Message::decode_exact(&enc[..cut]).is_err(),
                "cut at {cut} (digest starts {digest_start}) decoded for {m:?}",
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

    /// Lazy ≡ eager beyond the fixed corpus: random values (multi-byte
    /// names, large weights, absent and empty parts) in each of the four
    /// value-bearing messages, intact, cut short, and with random bytes
    /// overwritten.
    #[test]
    fn lazy_decode_equals_eager_decode_on_random_values(
        rpc in any::<u64>(),
        blob in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..40)),
        entries in proptest::collection::vec(("[a-zé✓]{0,12}", any::<u64>()), 0..20),
        flags in (any::<bool>(), any::<bool>()),
        digest_len in 0usize..3,
        damage in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        cut in any::<u16>(),
    ) {
        let entries: Vec<StoredEntry> = entries
            .into_iter()
            .map(|(name, weight)| StoredEntry { name, weight })
            .collect();
        let (from, key, top_n, truncated) = (contact(7), sha1(&rpc.to_le_bytes()), rpc as u32, flags.0);
        let carriers = [
            Message::FoundValue {
                rpc,
                from: from.clone(),
                blob: blob.clone(),
                entries: entries.clone(),
                truncated,
                version: st(rpc),
                from_cache: flags.1,
                digest: vec![DigestEntry { key: sha1(b"d"), version: st(3) }; digest_len],
            },
            Message::CachePush {
                rpc,
                from: from.clone(),
                key,
                top_n,
                blob: blob.clone(),
                entries: entries.clone(),
                truncated,
                version: st(rpc),
            },
            Message::InvalidatePush {
                rpc,
                from: from.clone(),
                key,
                top_n,
                blob: blob.clone(),
                entries: entries.clone(),
                truncated,
                stamp: st(rpc),
            },
            Message::Replicate { rpc, from, key, blob, entries, stamp: st(rpc) },
        ];
        for m in carriers {
            let mut enc = m.encode_to_bytes().to_vec();
            check_decoders_agree(&enc);
            assert_eq!(Message::decode_exact(&enc).unwrap(), m);
            for &(at, byte) in &damage {
                let at = usize::from(at) % enc.len();
                enc[at] = byte;
                check_decoders_agree(&enc);
            }
            check_decoders_agree(&enc[..usize::from(cut) % (enc.len() + 1)]);
        }
    }
}

#[test]
fn body_built_cache_push_encodes_like_the_owned_message() {
    for (blob, truncated) in [(None, true), (Some(b"uri://x".to_vec()), false)] {
        let owned = Message::CachePush {
            rpc: 17,
            from: contact(3),
            key: sha1(b"hot"),
            top_n: 100,
            blob,
            entries: vec![
                StoredEntry {
                    name: "rock".into(),
                    weight: 300,
                },
                StoredEntry {
                    name: "pop".into(),
                    weight: 12,
                },
            ],
            truncated,
            version: st(42),
        };
        let body = value_body(&owned).expect("a push carries a value");
        let (key, version) = (sha1(b"hot"), st(42));
        let built =
            Message::encode_cache_push(17, &contact(3), &key, 100, &body, truncated, &version);
        assert_eq!(built, owned.encode_to_bytes());
    }
}

#[test]
fn body_built_replicate_encodes_like_the_owned_message() {
    for blob in [None, Some(b"uri://x".to_vec())] {
        let owned = Message::Replicate {
            rpc: 15,
            from: contact(1),
            key: sha1(b"k"),
            blob,
            entries: vec![
                StoredEntry {
                    name: "rock✓".into(),
                    weight: 70_000,
                },
                StoredEntry {
                    name: "pop".into(),
                    weight: 3,
                },
            ],
            stamp: st(9),
        };
        let body = value_body(&owned).expect("a replica carries a value");
        let built = Message::encode_write(
            Message::T_REPLICATE,
            15,
            &contact(1),
            &sha1(b"k"),
            &body,
            &st(9),
        );
        assert_eq!(built, owned.encode_to_bytes());
    }
}

/// A coordinator sends every write as its body between key and stamp,
/// encoded once: for the same parts, `encode_write` writes the bytes the
/// owned `Store`, `Append` and `Replicate` encode to, so the datagrams are
/// the owned messages' by construction. Every write of the corpus, and
/// a body kept by the decoder sent on as it arrived.
#[test]
fn body_built_writes_encode_like_the_owned_messages() {
    let mut writes = 0;
    for m in &corpus() {
        let (ty, key, stamp) = match m {
            Message::Store { key, stamp, .. } => (Message::T_STORE, key, stamp),
            Message::Append { key, stamp, .. } => (Message::T_APPEND, key, stamp),
            Message::Replicate { key, stamp, .. } => (Message::T_REPLICATE, key, stamp),
            _ => continue,
        };
        writes += 1;
        let enc = m.encode_to_bytes();
        let body = value_body(m).expect("a write carries a body");
        let built = Message::encode_write(ty, m.rpc_id(), m.sender(), key, &body, stamp);
        assert_eq!(built, enc, "{m:?}");
        let (_, kept) = decode_as(&enc, ValueUse::Body).expect("accepted");
        let kept = kept.expect("a write's body is kept");
        assert_eq!(kept, body, "{m:?}");
        let resent = Message::encode_write(ty, m.rpc_id(), m.sender(), key, &kept, stamp);
        assert_eq!(resent, enc, "{m:?}");
    }
    assert_eq!(writes, 7, "two Stores, three Appends, two Replicates");
}

/// A value is kept as it arrived: a weight sent as an overlong varint
/// decodes to its number, while the kept body — what a cache pins and
/// forwards — holds the sender's bytes, not the canonical ones.
#[test]
fn a_kept_body_holds_the_value_as_received() {
    let rock = vec![StoredEntry {
        name: "rock".into(),
        weight: 5,
    }];
    let mut overlong = BytesMut::new();
    put_opt_blob(&mut overlong, None);
    rock.encode(&mut overlong);
    let mut overlong = overlong.to_vec();
    *overlong.last_mut().expect("the weight byte") |= 0x80;
    overlong.push(0); // 5 as [0x85, 0x00]
    let mut push = BytesMut::new();
    put_push_head(
        &mut push,
        Message::T_CACHE_PUSH,
        17,
        &contact(3),
        &sha1(b"hot"),
        8,
    );
    push.extend_from_slice(&overlong);
    put_push_tail(&mut push, false, &st(9));
    let (_, body) = decode_as(&push, ValueUse::Body).expect("accepted");
    assert_eq!(body.as_deref(), Some(&overlong[..]));
    let Ok(Message::CachePush { entries, .. }) = Message::decode_exact(&push) else {
        panic!("a CachePush");
    };
    assert_eq!(entries, rock);
    check_decoders_agree(&push);
}

#[test]
fn decode_rejects_garbage() {
    assert!(Message::decode_exact(&[]).is_err());
    assert!(Message::decode_exact(&[99, 0]).is_err());
    // Truncated contact.
    assert!(Message::decode_exact(&[1, 5, 1, 2, 3]).is_err());
}

#[test]
fn rpc_id_and_sender_accessors() {
    let m = Message::FindNode {
        rpc: 42,
        from: contact(5),
        target: sha1(b"t"),
    };
    assert_eq!(m.rpc_id(), 42);
    assert_eq!(m.sender().addr, 5);
}

#[test]
fn ping_fits_smallest_mtu() {
    let m = Message::Ping {
        rpc: u64::MAX,
        from: contact(1),
    };
    assert!(m.encode_to_bytes().len() < 64);
}
