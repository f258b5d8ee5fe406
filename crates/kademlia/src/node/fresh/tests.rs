//! Tests of the freshness layer: digests, revalidation, the serving gate.

use dharma_net::{NetCounters, Node};
use dharma_types::{sha1, WireDecode};

use super::super::testutil::{contact, fresh_cfg, st};
use super::*;
use crate::messages::{FetchedValue, MessageKind, StoredEntry, ValueUse};
use crate::node::KadConfig;

fn push_view(node: &mut KademliaNode, ctx: &mut Ctx<KadOutput>, key: Id160, version: u64) {
    node.on_message(
        ctx,
        1,
        Message::CachePush {
            rpc: 900,
            from: contact(9),
            key,
            top_n: 0,
            blob: None,
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: version,
            }],
            truncated: false,
            version: st(version),
        }
        .encode_to_bytes(),
    );
}

/// Issues a GET at `now_us`. `Some(value)` when it completed within
/// the same callback (a local serve — cache hit, or a value-less
/// convergence on a peerless node); `None` when it went to the
/// network, i.e. was *not* served from the local cache.
fn try_local_get(node: &mut KademliaNode, now_us: u64, key: Id160) -> Option<Option<FetchedValue>> {
    let mut ctx: Ctx<KadOutput> = Ctx::new(now_us, 0, 99);
    let op = node.get(&mut ctx, key, 0);
    let (_, _, completions) = ctx.into_effects();
    for (id, out) in completions {
        if id == op {
            if let KadOutput::Value { value, .. } = out {
                return Some(value);
            }
        }
    }
    None
}

#[test]
fn stale_digest_drops_the_cached_view_and_revalidates() {
    let counters = NetCounters::new();
    let mut node = KademliaNode::new(
        sha1(b"gossip-node"),
        0,
        KadConfig {
            counters: counters.clone(),
            ..fresh_cfg(3_600_000_000)
        },
    );
    let key = sha1(b"gossiped-block");
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    push_view(&mut node, &mut ctx, key, 3);
    let served = try_local_get(&mut node, 500, key)
        .expect("cache hit completes locally")
        .expect("view present");
    assert!(served.from_cache, "the pushed view serves locally");

    // A digest names version 5: the view is stale. It must be dropped
    // and a direct revalidation FindValue sent to the digest sender.
    let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
    node.on_message(
        &mut ctx,
        7,
        Message::Pong {
            rpc: 77,
            from: contact(7),
            digest: vec![DigestEntry {
                key,
                version: st(5),
            }],
        }
        .encode_to_bytes(),
    );
    assert_eq!(counters.stale_drops(), 1, "the stale view is dropped");
    assert_eq!(counters.revalidations(), 1);
    let (sends, timers, _) = ctx.into_effects();
    let reval = sends
        .iter()
        .find_map(|m| match Message::decode_exact(&m.payload) {
            Ok(Message::FindValue {
                rpc,
                key: k,
                no_cache,
                ..
            }) if k == key => Some((m.to, rpc, no_cache)),
            _ => None,
        })
        .expect("a revalidation FindValue is sent");
    assert_eq!(reval.0, 7, "sent to the digest sender");
    assert!(reval.2, "revalidation demands authoritative service");
    assert!(timers.iter().any(|&(_, id)| id == reval.1), "rpc tracked");

    // Monotone freshness: until the refresh lands, the key must not be
    // served from cache — the GET reads through to the network.
    assert!(
        try_local_get(&mut node, 2_000, key).is_none(),
        "no cached view may be served below the gossiped version"
    );

    // The refresh reply re-pins the view at the new version.
    let mut ctx: Ctx<KadOutput> = Ctx::new(3_000, 0, 4);
    node.on_message(
        &mut ctx,
        7,
        Message::FoundValue {
            rpc: reval.1,
            from: contact(7),
            blob: None,
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: 5,
            }],
            truncated: false,
            version: st(5),
            from_cache: false,
            digest: vec![],
        }
        .encode_to_bytes(),
    );
    let v = try_local_get(&mut node, 4_000, key)
        .expect("refreshed view serves locally")
        .expect("view present");
    assert!(v.from_cache);
    assert_eq!(
        v.version,
        st(5),
        "the refreshed view carries the new version"
    );
}

#[test]
fn fresh_digest_confirmation_lets_views_outlive_the_ttl() {
    let mut node = KademliaNode::new(sha1(b"confirming"), 0, fresh_cfg(1_000_000));
    let key = sha1(b"warm-block");
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    push_view(&mut node, &mut ctx, key, 4);

    // Just before expiry, a digest confirms the view is still current.
    let mut ctx: Ctx<KadOutput> = Ctx::new(900_000, 0, 2);
    node.on_message(
        &mut ctx,
        7,
        Message::Pong {
            rpc: 7,
            from: contact(7),
            digest: vec![DigestEntry {
                key,
                version: st(4),
            }],
        }
        .encode_to_bytes(),
    );

    // Past the original TTL the view still serves: the confirmation
    // restamped its clock without widening staleness (the version is
    // provably current as of the confirmation).
    let v = try_local_get(&mut node, 1_500_000, key)
        .expect("confirmed view outlives the TTL")
        .expect("view present");
    assert!(v.from_cache);

    // Without further confirmations the extended clock runs out too.
    assert!(
        !matches!(try_local_get(&mut node, 2_500_000, key), Some(Some(_))),
        "the extension is not an immortality pass"
    );
}

#[test]
fn digest_lists_news_and_keys_near_the_target() {
    let mut node = KademliaNode::new(sha1(b"digesting"), 0, fresh_cfg(1_000_000));
    let near = sha1(b"near-target");
    let far = sha1(b"far-away");
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    // Local appends (empty routing table: apply locally, stay news).
    node.append(&mut ctx, near, "x", 1);
    node.append(&mut ctx, far, "y", 2);
    let digest = node.build_digest(Some(&near), 1_000);
    assert!(
        digest.iter().any(|e| e.key == near),
        "held key near the target is gossiped"
    );
    assert!(
        digest.iter().any(|e| e.key == far),
        "recent writes are gossiped regardless of distance"
    );
    for e in &digest {
        assert_eq!(
            e.version,
            node.storage().stamp(&e.key),
            "digest carries current write-versions"
        );
    }
    // A freshness-disabled node gossips nothing.
    let mut plain = KademliaNode::new(sha1(b"plain"), 1, KadConfig::default());
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 2);
    plain.append(&mut ctx, near, "x", 1);
    assert!(plain.build_digest(Some(&near), 1_000).is_empty());
}

/// Golden digest on the shape the reply hot path actually sees: a
/// full news ring in which almost every key has drifted out of this
/// node's replica set. The digest must name exactly the keys the
/// closest-`k` definition of authority says the node still speaks for,
/// newest write first, each at its stored stamp.
#[test]
fn digest_of_a_full_news_ring_names_only_keys_the_node_speaks_for() {
    let local = sha1(b"digesting");
    let mut node = KademliaNode::new(local, 0, fresh_cfg(1_000_000));
    // Writes land while the routing table is empty, so each applies
    // locally and enters the news ring.
    let own: Vec<usize> = vec![3, 11, 20, 30];
    let keys: Vec<Id160> = (0..NEWS_CAP)
        .map(|i| match own.iter().position(|&o| o == i) {
            // Next to the local id: no contact can be closer.
            Some(p) => local.with_flipped_bit(159 - p),
            None => sha1(&[b'n', i as u8]),
        })
        .collect();
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    for (i, key) in keys.iter().enumerate() {
        ctx.now_us = i as u64;
        node.append(&mut ctx, *key, "x", 1);
    }
    // Then the overlay fills in (k = 8, so ~50 of these stay).
    for n in 0..200u32 {
        node.routing.note_contact(Contact {
            id: sha1(&n.to_le_bytes()),
            addr: n + 1,
        });
    }
    let speaks_for = |key: &Id160| {
        let closest = node.routing.closest(key, node.cfg.k);
        closest.last().expect("contacts").id.distance(key) >= local.distance(key)
    };
    let spoken: Vec<Id160> = keys.iter().rev().copied().filter(speaks_for).collect();
    assert!(own.iter().all(|&i| spoken.contains(&keys[i])));
    assert!(
        spoken.len() < NEWS_CAP / 2,
        "mostly drifted: {} of {NEWS_CAP} still ours",
        spoken.len()
    );

    let around = sha1(b"some-lookup-target");
    let expected: Vec<DigestEntry> = spoken
        .iter()
        .take(dharma_cache::FreshConfig::default().digest_max)
        .map(|key| DigestEntry {
            key: *key,
            version: node.storage().stamp(key),
        })
        .collect();
    assert!(expected.iter().all(|e| !e.version.is_zero()));
    assert_eq!(node.build_digest(Some(&around), 100), expected);
    assert_eq!(node.build_digest(None, 100), expected);
}

/// A push is the wire memo with a push frame around it: the datagrams a
/// write fans out — two fetchers at one width, one at another, one of
/// them ack-tracked every third round — are byte for byte the
/// `InvalidatePush` encoded from an owned read of the post-write value,
/// and the `FIND_VALUE` that follows is answered with the post-write
/// weights (from the memo the push left behind, never a pre-write one).
#[test]
fn invalidation_pushes_equal_the_encoded_owned_read() {
    let freshness = FreshConfig::builder().push_on_write(true).build();
    let cfg = KadConfig {
        freshness: Some(freshness.expect("valid")),
        ..fresh_cfg(1_000_000)
    };
    let budget = cfg.reply_budget;
    let mut node = KademliaNode::new(sha1(b"holder"), 0, cfg);
    let key = sha1(b"pushed-block");
    let append = |node: &mut KademliaNode, ctx: &mut Ctx<KadOutput>, name: &str, stamp: u64| {
        let entries = vec![StoredEntry {
            name: name.into(),
            weight: 2,
        }];
        let (rpc, from) = (500 + stamp, contact(4));
        let write = Message::Append {
            rpc,
            from,
            key,
            entries,
            stamp: st(stamp),
        };
        node.on_message(ctx, 4, write.encode_to_bytes());
    };
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    let blob = Message::Store {
        rpc: 499,
        from: contact(4),
        key,
        blob: b"uri://block".to_vec(),
        stamp: st(1),
    };
    node.on_message(&mut ctx, 4, blob.encode_to_bytes());
    for (i, name) in ["rock", "pop", "jazz", "metal"].iter().enumerate() {
        append(&mut node, &mut ctx, name, 2 + i as u64);
    }
    // Three fetchers: two asked for the top 2, one for everything.
    let find = |node: &mut KademliaNode, ctx: &mut Ctx<KadOutput>, n: u8, top_n: u32| {
        let find = Message::FindValue {
            rpc: 40 + u64::from(n),
            from: contact(n),
            key,
            top_n,
            no_cache: false,
        };
        node.on_message(ctx, u32::from(n), find.encode_to_bytes());
    };
    for (n, top_n) in [(1, 2), (2, 0), (3, 2)] {
        find(&mut node, &mut ctx, n, top_n);
    }
    let mut tracked = 0;
    for round in 0..3u64 {
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000 + round, 0, 2);
        append(&mut node, &mut ctx, "rock", 10 + round);
        let (sends, _, _) = ctx.into_effects();
        let pushes: Vec<_> = (sends.iter()).filter(|m| matches!(m.to, 1..=3)).collect();
        assert_eq!(pushes.len(), 3, "every fetcher but the writer is pushed");
        for push in pushes {
            let Ok(Message::InvalidatePush { rpc, top_n, .. }) =
                Message::decode_exact(&push.payload)
            else {
                panic!("not a push: {:?}", push.payload);
            };
            assert_eq!(top_n, if push.to == 2 { 0 } else { 2 });
            let read = node.storage.read_filtered(&key, top_n, budget).unwrap();
            assert_eq!(read.entries[0].weight, 4 + 2 * round, "the post-write view");
            let owned = Message::InvalidatePush {
                rpc,
                from: node.contact.clone(),
                key,
                top_n,
                blob: read.blob,
                entries: read.entries,
                truncated: read.truncated,
                stamp: read.version,
            };
            assert_eq!(push.payload, owned.encode_to_bytes());
            if rpc != 0 {
                tracked += 1;
                assert_eq!(node.pending[&rpc].op, PUSH_OP);
            }
        }
    }
    assert_eq!(tracked, 1, "one push in three rounds is ack-tracked");
    let mut ctx: Ctx<KadOutput> = Ctx::new(2_000, 0, 3);
    find(&mut node, &mut ctx, 1, 2);
    let (sends, _, _) = ctx.into_effects();
    let Ok(Message::FoundValue { entries, blob, .. }) = Message::decode_exact(&sends[0].payload)
    else {
        panic!("a holder answers with the value");
    };
    let read = node.storage.read_filtered(&key, 2, budget).unwrap();
    assert_eq!(entries[0].weight, 8);
    assert_eq!((entries, blob), (read.entries, read.blob));
}

/// A push whose body fails validation — here a name that is not UTF-8 —
/// is dropped whole, though no entry of it is built: nothing is pinned,
/// no version noted, nothing sent. The intact push pins.
#[test]
fn a_push_with_a_name_that_is_not_utf8_is_dropped_whole() {
    let key = sha1(b"bent-block");
    let rock = vec![StoredEntry {
        name: "rock".into(),
        weight: 3,
    }];
    let (from, blob, truncated) = (contact(9), None, false);
    let pushes = [
        Message::CachePush {
            rpc: 5,
            from: from.clone(),
            key,
            top_n: 0,
            blob: blob.clone(),
            entries: rock.clone(),
            truncated,
            version: st(7),
        },
        Message::InvalidatePush {
            rpc: 6,
            from,
            key,
            top_n: 0,
            blob,
            entries: rock,
            truncated,
            stamp: st(7),
        },
    ];
    for push in pushes {
        let mut node = KademliaNode::new(sha1(b"fetcher"), 0, fresh_cfg(1_000_000));
        let enc = push.encode_to_bytes();
        let at = enc
            .windows(5)
            .position(|w| w == b"\x04rock")
            .expect("the name");
        let mut bent = enc.to_vec();
        bent[at + 1] = 0xff;
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        node.on_message(&mut ctx, 9, Bytes::from(bent));
        assert!(node.cache.as_ref().unwrap().is_empty(), "{push:?}");
        assert_eq!(node.fresh.as_ref().unwrap().book.highest(&key), None);
        let (sends, timers, _) = ctx.into_effects();
        assert!(sends.is_empty() && timers.is_empty());
        node.on_message(&mut Ctx::new(0, 0, 2), 9, enc);
        assert_eq!(node.cache.as_ref().unwrap().len(), 1, "{push:?}");
    }
}

/// An `InvalidatePush` to a node that holds the key is decoded without
/// its body and pins nothing — the holder reconciles through `Replicate`
/// merges — and is acked all the same when its sender tracks it.
#[test]
fn a_holder_acks_an_invalidate_push_and_pins_nothing() {
    let mut node = KademliaNode::new(sha1(b"holder"), 0, fresh_cfg(1_000_000));
    let key = sha1(b"held-block");
    // An empty routing table: the append applies locally.
    node.append(&mut Ctx::new(0, 0, 1), key, "rock", 1);
    assert!(node.storage.contains(&key));
    let asked = node.value_use(MessageKind::InvalidatePush, 31, Some(&key));
    assert_eq!(asked, ValueUse::Skip);
    for rpc in [0, 31] {
        let push = Message::InvalidatePush {
            rpc,
            from: contact(9),
            key,
            top_n: 0,
            blob: None,
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: 5,
            }],
            truncated: false,
            stamp: st(50),
        };
        let mut ctx: Ctx<KadOutput> = Ctx::new(10, 0, 2);
        node.on_message(&mut ctx, 9, push.encode_to_bytes());
        assert!(
            node.cache.as_ref().unwrap().is_empty(),
            "a holder pins no push"
        );
        let (sends, _, _) = ctx.into_effects();
        let acks: Vec<(u32, u64)> = (sends.iter())
            .filter_map(|m| match Message::decode_exact(&m.payload) {
                Ok(Message::Ack { rpc, .. }) => Some((m.to, rpc)),
                _ => None,
            })
            .collect();
        assert_eq!(acks, if rpc == 0 { vec![] } else { vec![(9, rpc)] });
    }
}

/// The news section as it was built before the ring carried stamps: every
/// slot in the window re-read from storage.
fn news_digest_from_storage(node: &KademliaNode, now_us: u64) -> Vec<DigestEntry> {
    let f = node.fresh.as_ref().expect("fresh on");
    let in_window = |n: &&News| now_us.saturating_sub(n.at_us) <= f.cfg.news_window_us;
    let recomputed = f.news.iter().rev().filter(in_window).filter_map(|n| {
        let version = node.storage.get(&n.key)?.version;
        node.likely_authoritative(&n.key).then_some(DigestEntry {
            key: n.key,
            version,
        })
    });
    recomputed.take(f.cfg.digest_max).collect()
}

/// The ring's stamps stand in for storage: after every kind of event that
/// moves a stored stamp or changes which keys this node speaks for —
/// local and received writes, an empty-append touch of a held and of an
/// unheld key, a routing change — each slot holds the key's stored stamp
/// (or `None` for a key never held), and the digest equals the one
/// re-read from storage.
#[test]
fn news_ring_stamps_track_storage_through_every_mutation() {
    let local = sha1(b"ring-keeper");
    let freshness = FreshConfig::builder()
        .digest_max(64)
        .news_window_us(3_600_000_000);
    let cfg = KadConfig {
        freshness: Some(freshness.build().expect("valid")),
        ..fresh_cfg(1_000_000)
    };
    let mut node = KademliaNode::new(local, 0, cfg);
    let check = |node: &KademliaNode, now_us: u64| {
        let f = node.fresh.as_ref().expect("fresh on");
        for n in &f.news {
            let stored = node.storage.get(&n.key).map(|s| s.version);
            assert_eq!(n.stamp, stored, "slot for {:?} at {now_us}", n.key);
        }
        let digest = node.build_digest(None, now_us);
        assert_eq!(
            digest,
            news_digest_from_storage(node, now_us),
            "at {now_us}"
        );
        digest.len()
    };
    let slots = |node: &KademliaNode| {
        let f = node.fresh.as_ref().expect("fresh on");
        let held = f.news.iter().filter(|n| n.stamp.is_some()).count();
        (f.news.len(), held)
    };
    let append = |node: &mut KademliaNode, now_us: u64, key: Id160, entries: Vec<StoredEntry>| {
        let write = Message::Append {
            rpc: now_us + 1,
            from: contact(4),
            key,
            entries,
            stamp: st(now_us + 1),
        };
        node.on_message(&mut Ctx::new(now_us, 0, 1), 4, write.encode_to_bytes());
    };
    let rock = |weight| {
        vec![StoredEntry {
            name: "rock".into(),
            weight,
        }]
    };

    // Writes with an empty routing table apply locally; two keys sit next
    // to the local id, so no contact can ever outrank this node on them.
    let own = [local.with_flipped_bit(159), local.with_flipped_bit(158)];
    let far: Vec<Id160> = (0..10u8).map(|i| sha1(&[b'f', i])).collect();
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    for (i, key) in own.iter().chain(&far).enumerate() {
        ctx.now_us = i as u64;
        node.append(&mut ctx, *key, "x", 1);
    }
    append(&mut node, 100, far[0], rock(3)); // a received write raises a stamp
    assert_eq!(check(&node, 100), 12);

    // Empty appends touch: a held key moves to the front at its stamp, an
    // unheld one takes a slot that gossips nothing.
    let ghost = sha1(b"never-written");
    append(&mut node, 200, far[1], Vec::new());
    append(&mut node, 201, ghost, Vec::new());
    assert_eq!(slots(&node), (13, 12));
    assert_eq!(check(&node, 300), 12);

    // The overlay fills in: most far keys leave this node's replica set.
    for n in 0..200u32 {
        node.routing.note_contact(Contact {
            id: sha1(&n.to_le_bytes()),
            addr: n + 1,
        });
    }
    let spoken = check(&node, 400);
    assert!((2..12).contains(&spoken), "{spoken} keys still spoken for");
    assert_eq!(slots(&node), (13, 12), "the far copies stay held");
}
