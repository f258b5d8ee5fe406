//! The codec's test corpus: round trips, truncations, mutations, and the
//! lazy decoder held to the eager one.

use super::*;
use dharma_types::sha1;
use dharma_types::wire::varint_len;
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

/// Decodes the way `on_message` does for a reply nobody is waiting
/// for: in place, `FoundValue` bodies validated and skipped. Also
/// checks the question is put for `FoundValue` only, with its rpc.
fn decode_unwanted(data: &[u8]) -> Result<Message> {
    let mut asked = None;
    let out = Message::decode_datagram(Bytes::copy_from_slice(data), |rpc| {
        asked = Some(rpc);
        false
    });
    if let Ok(m) = &out {
        let is_value = matches!(m, Message::FoundValue { .. });
        assert_eq!(asked, is_value.then(|| m.rpc_id()));
    }
    out
}

/// The datagram decoder wanting every value against `decode_exact`: one
/// cursor, one result — the same message or the same error.
fn check_datagram_equals_exact(data: &[u8]) -> Result<Message> {
    let exact = Message::decode_exact(data);
    let datagram = Message::decode_datagram(Bytes::copy_from_slice(data), |_| true);
    assert_eq!(datagram, exact, "on {data:?}");
    exact
}

/// The lazy decoder against the eager one on arbitrary bytes: the same
/// datagrams accepted and rejected — a rejected one with the same error,
/// since skipping runs the owning decoder's checks in its order — and,
/// blob and entries aside, the same message. Anything accepted survives
/// a re-encode roundtrip.
fn check_decoders_agree(data: &[u8]) {
    let eager = check_datagram_equals_exact(data);
    let lazy = decode_unwanted(data);
    assert_eq!(
        eager.is_ok(),
        lazy.is_ok(),
        "accept sets differ on {data:?}"
    );
    let Ok(mut eager) = eager else {
        assert_eq!(lazy.unwrap_err(), eager.unwrap_err(), "on {data:?}");
        return;
    };
    roundtrip(&eager);
    if let Message::FoundValue { blob, entries, .. } = &mut eager {
        (*blob, *entries) = (None, Vec::new());
    }
    assert_eq!(lazy.unwrap(), eager);
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
fn corpus() -> Vec<Message> {
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
    // decoder: message for message and error for error, on every corpus
    // encoding, every strict prefix of it, and every single-byte mutant.
    let (mut accepted, mut rejected) = (0, 0);
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
                    Ok(_) => accepted += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    // Both outcomes are exercised, so agreement is not vacuous.
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
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
                    Message::decode_exact(&bent).is_err() && decode_unwanted(&bent).is_err(),
                    "flag byte {byte} at {at} accepted for {m:?}",
                );
            }
        }
    }
    // FindValue ×2, FoundValue 3 ×2, Replicate, CachePush 2, InvalidatePush 2.
    assert_eq!(flags, 13);
}

#[test]
fn hostile_entry_count_is_refused_before_any_reservation() {
    // A maximal datagram whose FoundValue claims 65 000 entries and
    // then carries junk: both decoders refuse at the count (two bytes
    // per entry at least cannot fit), not 2 MiB of `Vec` later.
    let mut buf = BytesMut::new();
    put_found_value_head(&mut buf, 1, &contact(1));
    put_opt_blob(&mut buf, None);
    buf.put_varint(65_000);
    buf.resize(65_507, 0xff);
    for decoded in [Message::decode_exact(&buf), decode_unwanted(&buf)] {
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

    /// Lazy ≡ eager beyond the fixed corpus: random `FoundValue`s
    /// (multi-byte names, large weights, absent and empty parts),
    /// intact, cut short, and with random bytes overwritten.
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
        let m = Message::FoundValue {
            rpc,
            from: contact(7),
            blob,
            entries: entries
                .into_iter()
                .map(|(name, weight)| StoredEntry { name, weight })
                .collect(),
            truncated: flags.0,
            version: st(rpc),
            from_cache: flags.1,
            digest: vec![DigestEntry { key: sha1(b"d"), version: st(3) }; digest_len],
        };
        let mut enc = m.encode_to_bytes().to_vec();
        check_decoders_agree(&enc);
        assert_eq!(Message::decode_exact(&enc).unwrap(), m);
        for (at, byte) in damage {
            let at = usize::from(at) % enc.len();
            enc[at] = byte;
            check_decoders_agree(&enc);
        }
        check_decoders_agree(&enc[..usize::from(cut) % (enc.len() + 1)]);
    }
}

#[test]
fn borrowed_cache_push_encodes_like_the_owned_message() {
    let view = FetchedValue {
        blob: Some(b"uri://x".to_vec()),
        entries: vec![StoredEntry {
            name: "rock".into(),
            weight: 12,
        }],
        truncated: true,
        version: st(42),
        from_cache: false,
    };
    let owned = Message::CachePush {
        rpc: 17,
        from: contact(3),
        key: sha1(b"hot"),
        top_n: 100,
        blob: view.blob.clone(),
        entries: view.entries.clone(),
        truncated: view.truncated,
        version: view.version,
    };
    let borrowed = Message::encode_cache_push(17, &contact(3), &sha1(b"hot"), 100, &view);
    assert_eq!(borrowed, owned.encode_to_bytes());
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
