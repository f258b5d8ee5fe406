//! Property tests for the Kademlia substrate: message-codec totality,
//! routing-table invariants, lookup convergence, and storage commutativity.

use bytes::Bytes;
use dharma_kademlia::lookup::LookupState;
use dharma_kademlia::{Contact, DigestEntry, Message, RoutingTable, Storage, StoredEntry};
use dharma_types::{sha1, Id160, VersionStamp, WireDecode, WireEncode};
use proptest::prelude::*;

fn arb_stamp() -> impl Strategy<Value = VersionStamp> {
    (any::<u64>(), any::<[u8; 20]>())
        .prop_map(|(seq, w)| VersionStamp::new(seq, Id160::from_bytes(w)))
}

fn arb_contact() -> impl Strategy<Value = Contact> {
    (any::<[u8; 20]>(), any::<u32>()).prop_map(|(id, addr)| Contact {
        id: Id160::from_bytes(id),
        addr,
    })
}

fn arb_digest() -> impl Strategy<Value = Vec<DigestEntry>> {
    proptest::collection::vec(
        (any::<[u8; 20]>(), arb_stamp()).prop_map(|(k, version)| DigestEntry {
            key: Id160::from_bytes(k),
            version,
        }),
        0..8,
    )
}

fn arb_entry() -> impl Strategy<Value = StoredEntry> {
    ("[a-z0-9-]{1,24}", 0u64..1_000_000).prop_map(|(name, weight)| StoredEntry { name, weight })
}

/// An id that agrees with `local` on its first `shared` bits, differs at
/// bit `shared`, and takes the rest from `fill` — i.e. a member of
/// `local`'s bucket `shared`. Random ids only ever populate the first
/// ~log2(n) buckets; this reaches the deep ones.
fn in_bucket(local: &Id160, shared: usize, fill: [u8; 20]) -> Id160 {
    let mut id = Id160::from_bytes(fill);
    for i in 0..shared {
        if id.bit(i) != local.bit(i) {
            id = id.with_flipped_bit(i);
        }
    }
    if id.bit(shared) == local.bit(shared) {
        id = id.with_flipped_bit(shared);
    }
    id
}

/// A table around `local`: random ids (they fill — and overfill, so the
/// replacement caches are in play — the shallow buckets) with stray
/// failures, then crafted members of the deep buckets.
fn table_of(
    local: Id160,
    k: usize,
    shallow: &[([u8; 20], bool)],
    deep: &[(usize, [u8; 20])],
) -> RoutingTable {
    let mut rt = RoutingTable::new(local, k);
    for (n, (bytes, fail)) in shallow.iter().enumerate() {
        let id = Id160::from_bytes(*bytes);
        if *fail {
            rt.note_failure(&id);
        } else {
            rt.note_contact(Contact { id, addr: n as u32 });
        }
    }
    for (shared, fill) in deep {
        rt.note_contact(Contact {
            id: in_bucket(&local, *shared, *fill),
            addr: 0,
        });
    }
    rt
}

/// The definition of closest-`n`: the distance to everyone, a full sort,
/// truncate. What `RoutingTable::closest` and the rank tests must equal.
fn full_sort_closest(rt: &RoutingTable, target: &Id160, n: usize) -> Vec<Contact> {
    let mut all: Vec<Contact> = rt.iter().cloned().collect();
    all.sort_by_key(|c| c.id.distance(target));
    all.truncate(n);
    all
}

/// Naive reference for `Storage::read_filtered`'s entry selection:
/// materialise every entry, sort everything, truncate, then cut at the
/// byte budget. Returns the kept entries and the `truncated` flag.
fn naive_filtered(
    model: &std::collections::BTreeMap<String, u64>,
    top_n: u32,
    budget: usize,
) -> (Vec<StoredEntry>, bool) {
    let mut all: Vec<StoredEntry> = model
        .iter()
        .map(|(name, &weight)| StoredEntry {
            name: name.clone(),
            weight,
        })
        .collect();
    all.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.name.cmp(&b.name)));
    let mut truncated = false;
    if top_n > 0 && all.len() > top_n as usize {
        all.truncate(top_n as usize);
        truncated = true;
    }
    let mut used = 0usize;
    let mut keep = 0usize;
    for e in &all {
        let size = e.encode_to_bytes().len();
        if used + size > budget {
            truncated = true;
            break;
        }
        used += size;
        keep += 1;
    }
    all.truncate(keep);
    (all, truncated)
}

fn arb_message() -> impl Strategy<Value = Message> {
    let rpc = any::<u64>();
    prop_oneof![
        (rpc, arb_contact()).prop_map(|(rpc, from)| Message::Ping { rpc, from }),
        (rpc, arb_contact(), arb_digest()).prop_map(|(rpc, from, digest)| Message::Pong {
            rpc,
            from,
            digest
        }),
        (rpc, arb_contact(), any::<[u8; 20]>()).prop_map(|(rpc, from, t)| Message::FindNode {
            rpc,
            from,
            target: Id160::from_bytes(t),
        }),
        (
            rpc,
            arb_contact(),
            proptest::collection::vec(arb_contact(), 0..24),
            arb_digest()
        )
            .prop_map(|(rpc, from, contacts, digest)| Message::FoundNodes {
                rpc,
                from,
                contacts,
                digest
            }),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(rpc, from, k, top_n, no_cache)| Message::FindValue {
                rpc,
                from,
                key: Id160::from_bytes(k),
                top_n,
                no_cache,
            }),
        (
            rpc,
            arb_contact(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            proptest::collection::vec(arb_entry(), 0..16),
            (any::<bool>(), arb_stamp(), any::<bool>()),
            arb_digest()
        )
            .prop_map(
                |(rpc, from, blob, entries, (truncated, version, from_cache), digest)| {
                    Message::FoundValue {
                        rpc,
                        from,
                        blob,
                        entries,
                        truncated,
                        version,
                        from_cache,
                        digest,
                    }
                }
            ),
        (
            rpc,
            arb_contact(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            proptest::collection::vec(arb_entry(), 0..16),
            (any::<[u8; 20]>(), any::<u32>(), any::<bool>(), arb_stamp())
        )
            .prop_map(
                |(rpc, from, blob, entries, (k, top_n, truncated, version))| {
                    Message::CachePush {
                        rpc,
                        from,
                        key: Id160::from_bytes(k),
                        top_n,
                        blob,
                        entries,
                        truncated,
                        version,
                    }
                }
            ),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            proptest::collection::vec(any::<u8>(), 0..512),
            arb_stamp()
        )
            .prop_map(|(rpc, from, k, blob, stamp)| Message::Store {
                rpc,
                from,
                key: Id160::from_bytes(k),
                blob,
                stamp,
            }),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            proptest::collection::vec(arb_entry(), 0..16),
            arb_stamp()
        )
            .prop_map(|(rpc, from, k, entries, stamp)| Message::Append {
                rpc,
                from,
                key: Id160::from_bytes(k),
                entries,
                stamp,
            }),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            proptest::collection::vec(arb_entry(), 0..16),
            arb_stamp()
        )
            .prop_map(|(rpc, from, k, blob, entries, stamp)| Message::Replicate {
                rpc,
                from,
                key: Id160::from_bytes(k),
                blob,
                entries,
                stamp,
            }),
        (
            (rpc, arb_contact(), any::<[u8; 20]>(), any::<u32>()),
            (
                proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
                proptest::collection::vec(arb_entry(), 0..16),
                any::<bool>(),
                arb_stamp()
            )
        )
            .prop_map(
                |((rpc, from, k, top_n), (blob, entries, truncated, stamp))| {
                    Message::InvalidatePush {
                        rpc,
                        from,
                        key: Id160::from_bytes(k),
                        top_n,
                        blob,
                        entries,
                        truncated,
                        stamp,
                    }
                }
            ),
        (rpc, arb_contact()).prop_map(|(rpc, from)| Message::Ack { rpc, from }),
        (rpc, arb_contact()).prop_map(|(rpc, from)| Message::Leave { rpc, from }),
    ]
}

proptest! {
    /// Every message roundtrips bit-exactly through the wire codec.
    #[test]
    fn message_codec_roundtrip(msg in arb_message()) {
        let encoded = msg.encode_to_bytes();
        let decoded = Message::decode_exact(&encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode_exact(&data);
        let _ = Message::decode(&mut &data[..]);
        let _ = Message::decode_datagram(Bytes::from(data), |_| false);
    }

    /// Every strict prefix of a valid encoding is rejected — a truncated
    /// datagram can never decode to a (different) valid message.
    #[test]
    fn message_prefixes_never_decode(msg in arb_message()) {
        let enc = msg.encode_to_bytes();
        for cut in 0..enc.len() {
            let exact = Message::decode_exact(&enc[..cut]);
            prop_assert!(exact.is_err(), "prefix of {} bytes decoded", cut);
            let datagram = Message::decode_datagram(Bytes::from(enc[..cut].to_vec()), |_| true);
            prop_assert_eq!(datagram, exact, "prefix of {} bytes", cut);
        }
    }

    /// Single-byte corruption of a valid encoding never panics the
    /// decoder, and anything it still accepts re-encodes consistently.
    #[test]
    fn mutated_messages_never_panic(msg in arb_message(), idx in any::<u64>(), xor in 1u8..255) {
        let mut enc = msg.encode_to_bytes().to_vec();
        let i = (idx % enc.len() as u64) as usize;
        enc[i] ^= xor;
        let datagram = Message::decode_datagram(Bytes::from(enc.clone()), |_| true);
        prop_assert_eq!(&datagram, &Message::decode_exact(&enc));
        if let Ok(decoded) = datagram {
            let re = decoded.encode_to_bytes();
            let again = Message::decode_exact(&re).unwrap();
            prop_assert_eq!(again, decoded, "accepted mutants must roundtrip");
        }
    }

    /// Routing-table invariants under arbitrary contact/failure streams:
    /// bucket occupancy never exceeds k, the local id never appears, and
    /// `closest` returns distance-sorted unique contacts.
    #[test]
    fn routing_table_invariants(
        contacts in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..300),
        k in 1usize..8,
    ) {
        let local = sha1(b"local");
        let mut rt = RoutingTable::new(local, k);
        for (n, fail) in contacts {
            let c = Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 };
            if fail {
                rt.note_failure(&c.id);
            } else {
                rt.note_contact(c);
            }
            for (i, len) in rt.occupancy() {
                prop_assert!(len <= k, "bucket {} holds {} > k = {}", i, len, k);
            }
        }
        let target = sha1(b"target");
        let closest = rt.closest(&target, 2 * k);
        for w in closest.windows(2) {
            prop_assert!(w[0].id.distance(&target) <= w[1].id.distance(&target));
        }
        let mut ids: Vec<_> = closest.iter().map(|c| c.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "no duplicate contacts");
        prop_assert!(!ids.contains(&local), "local id is not a contact");
    }

    /// The rank primitives equal the definition they replaced — "take the
    /// closest `n` and look at them", the closest `n` being the full-sort
    /// reference, not `RoutingTable::closest` (which is checked against
    /// that same reference below) — over random tables: sparse
    /// views with fewer than `n` contacts, full and empty buckets (random
    /// ids fill the shallow buckets, crafted ones the deep), evictions,
    /// and targets equal to the local id, to a contact, and deep inside
    /// the local id's own branch.
    #[test]
    fn rank_tests_equal_the_closest_based_definition(
        shallow in proptest::collection::vec((any::<[u8; 20]>(), any::<bool>()), 0..120),
        deep in proptest::collection::vec((0usize..160, any::<[u8; 20]>()), 0..40),
        targets in proptest::collection::vec((0usize..160, any::<[u8; 20]>(), any::<bool>()), 1..12),
        k in 1usize..8,
    ) {
        let local = sha1(b"local");
        let rt = table_of(local, k, &shallow, &deep);
        let contacts: Vec<Id160> = rt.iter().map(|c| c.id).collect();

        let mut probes: Vec<Id160> = vec![local];
        probes.extend(contacts.iter().take(3));
        for (shared, fill, raw) in &targets {
            probes.push(if *raw {
                Id160::from_bytes(*fill)
            } else {
                in_bucket(&local, *shared, *fill)
            });
        }
        for target in &probes {
            // Ids are unique, so distances to one target are too: the
            // rank of every contact (and of the local id) is well defined
            // and no tie-break can differ between the two definitions.
            let mut dists: Vec<_> = contacts.iter().map(|c| c.distance(target)).collect();
            dists.push(local.distance(target));
            dists.sort_unstable();
            let before = dists.len();
            dists.dedup();
            prop_assert_eq!(dists.len(), before, "distinct ids, distinct distances");

            for n in [1, k, k + 2, contacts.len().max(1), contacts.len() + 1] {
                let closest = full_sort_closest(&rt, target, n);
                let local_within = closest.len() < n
                    || closest.last().expect("n >= 1").id.distance(target)
                        >= local.distance(target);
                prop_assert_eq!(
                    rt.local_ranks_within(target, n),
                    local_within,
                    "local_ranks_within({:?}, {}) over {} contacts",
                    target, n, contacts.len()
                );
                let strangers = [local, in_bucket(&local, 7, *target.as_bytes())];
                for id in contacts.iter().chain(&strangers) {
                    prop_assert_eq!(
                        rt.ranks_within(id, target, n),
                        closest.iter().any(|c| c.id == *id),
                        "ranks_within({:?}, {:?}, {})",
                        id, target, n
                    );
                }
            }
        }
    }

    /// The iterative lookup always terminates and returns ≤ k contacts in
    /// distance order, for arbitrary response topologies.
    #[test]
    fn lookup_always_converges(
        seeds in proptest::collection::vec(any::<u64>(), 0..12),
        responses in proptest::collection::vec(any::<u64>(), 0..64),
        k in 1usize..6,
        alpha in 1usize..4,
    ) {
        let target = sha1(b"t");
        let seed_contacts: Vec<Contact> = seeds
            .iter()
            .map(|&n| Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 })
            .collect();
        let mut lookup = LookupState::new(target, seed_contacts, k, alpha);
        let mut response_iter = responses.iter();
        let mut steps = 0usize;
        loop {
            let queries = lookup.next_queries();
            if queries.is_empty() && lookup.inflight() == 0 {
                break;
            }
            for q in queries {
                // Each responder hands back 0..3 pseudo-random contacts.
                let mut more = Vec::new();
                for _ in 0..(q.addr % 3) {
                    if let Some(&n) = response_iter.next() {
                        more.push(Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 });
                    }
                }
                if q.addr % 5 == 0 {
                    lookup.on_failure(&q.id);
                } else {
                    lookup.on_response(&q.id, more);
                }
            }
            steps += 1;
            prop_assert!(steps < 10_000, "lookup failed to converge");
        }
        prop_assert!(lookup.is_converged());
        let result = lookup.closest_responded();
        prop_assert!(result.len() <= k);
        for w in result.windows(2) {
            prop_assert!(w[0].id.distance(&target) <= w[1].id.distance(&target));
        }
    }

    /// The `α`-parallelism bound and convergence hold under *arbitrary*
    /// response/failure interleavings — not just the lockstep
    /// query-then-answer-all schedule of `lookup_always_converges`. Each
    /// command either settles one chosen in-flight query (as a response
    /// carrying arbitrary new contacts, or as a failure) or pumps
    /// `next_queries`; settles and pumps interleave freely, so queries
    /// issued in one batch resolve in any order and partial batches
    /// overlap. Invariants: `inflight() ≤ α` at every step (and matches
    /// our own book-keeping), the lookup always converges once drained,
    /// and `closest_responded()` is distance-sorted, unique, and ≤ k.
    #[test]
    fn lookup_alpha_bound_holds_under_arbitrary_interleavings(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        commands in proptest::collection::vec(
            // (settle-vs-pump, which inflight query, fail?, contacts learned)
            (any::<bool>(), any::<u8>(), any::<bool>(), proptest::collection::vec(any::<u64>(), 0..4)),
            0..200,
        ),
        k in 1usize..6,
        alpha in 1usize..4,
    ) {
        let target = sha1(b"t");
        let mk = |n: u64| Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 };
        let seed_contacts: Vec<Contact> = seeds.iter().map(|&n| mk(n)).collect();
        let mut lookup = LookupState::new(target, seed_contacts, k, alpha);
        let mut inflight: Vec<Contact> = Vec::new();

        let settle = |lookup: &mut LookupState,
                          inflight: &mut Vec<Contact>,
                          pick: u8,
                          fail: bool,
                          learned: &[u64]| {
            if inflight.is_empty() {
                return;
            }
            let q = inflight.remove(pick as usize % inflight.len());
            if fail {
                lookup.on_failure(&q.id);
            } else {
                lookup.on_response(&q.id, learned.iter().map(|&n| mk(n)).collect());
            }
        };

        for (pump, pick, fail, learned) in &commands {
            if *pump {
                inflight.extend(lookup.next_queries());
            } else {
                settle(&mut lookup, &mut inflight, *pick, *fail, learned);
            }
            prop_assert!(
                lookup.inflight() <= alpha,
                "{} in flight exceeds alpha = {}", lookup.inflight(), alpha
            );
            prop_assert_eq!(lookup.inflight(), inflight.len(), "book-keeping agrees");
        }

        // Drain: settle everything still pending, answering with nothing
        // new, until the lookup converges.
        let mut steps = 0usize;
        loop {
            inflight.extend(lookup.next_queries());
            if inflight.is_empty() {
                break;
            }
            settle(&mut lookup, &mut inflight, steps as u8, steps.is_multiple_of(3), &[]);
            prop_assert!(lookup.inflight() <= alpha);
            steps += 1;
            prop_assert!(steps < 10_000, "lookup failed to converge");
        }
        prop_assert!(lookup.is_converged());

        let result = lookup.closest_responded();
        prop_assert!(result.len() <= k);
        for w in result.windows(2) {
            prop_assert!(
                w[0].id.distance(&target) <= w[1].id.distance(&target),
                "closest_responded must be distance-sorted"
            );
        }
        let mut ids: Vec<_> = result.iter().map(|c| c.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "no duplicate contacts in the result");
    }

    /// Storage appends commute: any permutation of the same multiset of
    /// appends yields identical weights (the Approximation B guarantee).
    #[test]
    fn storage_appends_commute(
        ops in proptest::collection::vec((0u8..4, "[a-c]", 1u64..5), 1..40),
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let apply = |ops: &[(u8, String, u64)]| {
            let mut s = Storage::new();
            for (i, (kb, name, tokens)) in ops.iter().enumerate() {
                // The stamp rides along but weights merge commutatively
                // regardless of stamp order; holders keep the max.
                s.append(sha1(&[*kb]), name, *tokens, VersionStamp::new(i as u64 + 1, sha1(b"w")));
            }
            s
        };
        let a = apply(&ops);
        let mut shuffled = ops.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let b = apply(&shuffled);
        for (kb, name, _) in &ops {
            let key = sha1(&[*kb]);
            prop_assert_eq!(a.weight(&key, name), b.weight(&key, name));
        }
    }

    /// Cached filtered reads never contradict authoritative storage. This
    /// drives `Storage` and a `HotCache` exactly the way `KademliaNode`
    /// does — every write invalidates the key's cached views, every read
    /// consults the cache first and backfills it on a miss — and asserts
    /// that a cache hit always equals a fresh `Storage::read_filtered`.
    /// With an unbounded TTL this is exact equality, which in particular
    /// means appends preserve read-your-writes for the writer.
    #[test]
    fn cached_reads_match_storage(
        ops in proptest::collection::vec(
            // (key byte, entry name, tokens, top_n, is_write)
            (0u8..6, "[a-e]", 1u64..5, 0u32..4, any::<bool>()),
            1..300,
        ),
    ) {
        use dharma_cache::{CacheConfig, HotCache};
        use dharma_kademlia::storage::FilteredRead;

        let mut storage = Storage::new();
        let mut cache: HotCache<FilteredRead> = HotCache::new(CacheConfig {
            capacity: 8, // smaller than the reachable key universe: evictions happen
            ttl_us: u64::MAX,
        });
        let mut now = 0u64;
        let mut seq = 0u64;
        for (kb, name, tokens, top_n, is_write) in ops {
            now += 1;
            let key = sha1(&[kb]);
            if is_write {
                seq += 1;
                storage.append(key, &name, tokens, VersionStamp::new(seq, sha1(b"w")));
                cache.invalidate_key(&key);
            } else {
                let authoritative = storage.read_filtered(&key, top_n, 10_000);
                match cache.get(&(key, top_n), now) {
                    Some((cached, version)) => {
                        let auth = authoritative.expect("cached implies stored");
                        prop_assert_eq!(version, auth.version, "version tags agree");
                        prop_assert_eq!(cached, auth, "cached view equals a fresh read");
                    }
                    None => {
                        if let Some(read) = authoritative {
                            let version = read.version;
                            cache.insert((key, top_n), version, read, now);
                        }
                    }
                }
            }
        }
    }

    /// Both reads — `read_filtered` (owned; ranks a prefix for itself,
    /// every time) and `encode_filtered` (served; one copy of the value's
    /// wire memo, encoded on the first read after a write or at a new
    /// width) — return exactly what the naive reference does — allocate
    /// everything, sort everything, truncate — under heavy weight ties, at
    /// the `top_n` edges and with byte budgets that cut mid-prefix, at
    /// every point of a random interleaving of `append` / `merge_max` /
    /// `put_blob` / `remove` / `expire` with reads of either kind: a memo
    /// must never outlive the write that outdates it, nor answer a width
    /// or budget it was not encoded for.
    #[test]
    fn filtered_reads_equal_the_naive_reference(
        ops in proptest::collection::vec(
            // (kind, entry name, weight, a top_n, a budget)
            (0u8..12, "[a-d]{1,3}", 1u64..4, 0u32..90, 0usize..400),
            1..120,
        ),
    ) {
        use bytes::BytesMut;
        use dharma_types::ReadBytes;

        let mut s = Storage::new();
        // The held value, when there is one: its entries and its blob.
        type Model = (std::collections::BTreeMap<String, u64>, Option<Vec<u8>>);
        let mut model: Option<Model> = None;
        let key = sha1(b"k");
        for (i, (kind, name, w, extra_top_n, budget_cut)) in ops.into_iter().enumerate() {
            let now = i as u64 + 1;
            let stamp = VersionStamp::new(now, sha1(b"w"));
            match kind {
                0..=3 => {
                    s.append(key, &name, w, stamp);
                    s.touch(key, now);
                    *model.get_or_insert_with(Default::default).0.entry(name).or_default() += w;
                }
                4 | 5 => {
                    // A replica: raises `name` (maybe), adds a new name
                    // (maybe), offers a blob (adopted only if none is held).
                    let replica = [
                        StoredEntry { name: name.clone(), weight: w * 2 },
                        StoredEntry { name: format!("{name}r"), weight: w },
                    ];
                    s.merge_max(key, Some(b"replica"), &replica, stamp, now);
                    let (entries, blob) = model.get_or_insert_with(Default::default);
                    for e in replica {
                        let held = entries.entry(e.name).or_default();
                        *held = (*held).max(e.weight);
                    }
                    blob.get_or_insert_with(|| b"replica".to_vec());
                }
                6 => {
                    s.put_blob(key, name.as_bytes().to_vec(), stamp);
                    model.get_or_insert_with(Default::default).1 = Some(name.into_bytes());
                }
                7 => {
                    prop_assert_eq!(s.remove(&key), model.take().is_some());
                }
                8 => {
                    // Every write above refreshed the value before `now`:
                    // a zero TTL expires it, an unbounded one keeps it.
                    let ttl = if w == 1 { 0 } else { u64::MAX };
                    let dropped = s.expire(now, ttl);
                    if ttl == 0 {
                        prop_assert_eq!(dropped, usize::from(model.take().is_some()));
                    }
                }
                _ => {}
            }
            // Read after every step; which kind of read comes first (and so
            // whether a memo exists for the other) varies with the step.
            let Some((entries, blob)) = &model else {
                prop_assert!(s.read_filtered(&key, 0, usize::MAX).is_none());
                prop_assert!(s.encode_filtered(&key, 0, usize::MAX, &mut BytesMut::new()).is_none());
                continue;
            };
            let len = entries.len() as u32;
            for top_n in [0, 1, len, len + 1, extra_top_n] {
                for budget in [0, budget_cut, usize::MAX] {
                    let (expected, truncated) = naive_filtered(entries, top_n, budget);
                    for serve in [kind % 2 == 0, kind % 2 != 0] {
                        let (got_blob, got, got_truncated) = if serve {
                            let mut buf = BytesMut::new();
                            let (cut, version) =
                                s.encode_filtered(&key, top_n, budget, &mut buf).unwrap();
                            prop_assert_eq!(version, s.stamp(&key));
                            let mut body: &[u8] = &buf;
                            let blob = body.get_flag().unwrap().then(|| body.get_bytes_field().unwrap());
                            let served = Vec::<StoredEntry>::decode(&mut body).unwrap();
                            prop_assert!(body.is_empty());
                            (blob, served, cut)
                        } else {
                            let read = s.read_filtered(&key, top_n, budget).unwrap();
                            (read.blob, read.entries, read.truncated)
                        };
                        prop_assert_eq!(&got, &expected, "top_n {} budget {}", top_n, budget);
                        prop_assert_eq!(got_truncated, truncated, "top_n {} budget {}", top_n, budget);
                        prop_assert_eq!(&got_blob, blob);
                    }
                }
            }
        }
    }

    /// Filtered reads always respect top_n, the byte budget, and ordering.
    #[test]
    fn filtered_reads_respect_bounds(
        entries in proptest::collection::vec(("[a-z]{1,8}", 1u64..10_000), 1..60),
        top_n in 0u32..20,
        budget in 8usize..512,
    ) {
        let mut s = Storage::new();
        let key = sha1(b"k");
        for (i, (name, w)) in entries.iter().enumerate() {
            s.append(key, name, *w, VersionStamp::new(i as u64 + 1, sha1(b"w")));
        }
        let read = s.read_filtered(&key, top_n, budget).unwrap();
        if top_n > 0 {
            prop_assert!(read.entries.len() <= top_n as usize);
        }
        for w in read.entries.windows(2) {
            prop_assert!(w[0].weight >= w[1].weight, "weight-sorted");
        }
        // Encoded size within budget.
        let size: usize = read
            .entries
            .iter()
            .map(|e| e.encode_to_bytes().len())
            .sum();
        prop_assert!(size <= budget, "encoded {} > budget {}", size, budget);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

    /// `RoutingTable::closest` — a walk over the buckets in distance
    /// order that stops at `n` — returns, element for element, what the
    /// definition does: over sparse views and overfull shallow buckets
    /// (replacement caches stocked, then drawn on by evictions of live
    /// contacts), crafted deep buckets, every `n` edge, and targets equal
    /// to the local id, to a contact, random, and deep inside the local
    /// id's own branch (where the answer starts at the far end of the
    /// table).
    #[test]
    fn closest_equals_the_full_sort_reference(
        shallow in proptest::collection::vec((any::<[u8; 20]>(), any::<bool>()), 0..160),
        deep in proptest::collection::vec((0usize..160, any::<[u8; 20]>()), 0..60),
        evictions in proptest::collection::vec(any::<u16>(), 0..24),
        targets in proptest::collection::vec((0usize..160, any::<[u8; 20]>(), any::<bool>()), 1..12),
        k in 1usize..9,
    ) {
        let local = sha1(b"local");
        let mut rt = table_of(local, k, &shallow, &deep);
        for pick in evictions {
            let live: Vec<Id160> = rt.iter().map(|c| c.id).collect();
            if let Some(id) = live.get(usize::from(pick) % live.len().max(1)) {
                prop_assert!(rt.note_failure(id), "a live contact is evicted");
            }
        }
        let len = rt.len();
        prop_assert_eq!(rt.iter().count(), len);

        let mut probes: Vec<Id160> = vec![local];
        probes.extend(rt.iter().map(|c| c.id).step_by(len / 3 + 1));
        for (shared, fill, raw) in &targets {
            probes.push(if *raw {
                Id160::from_bytes(*fill)
            } else {
                in_bucket(&local, *shared, *fill)
            });
        }
        for target in &probes {
            for n in [0, 1, k, k + 2, len, len + 1, usize::MAX] {
                prop_assert_eq!(
                    rt.closest(target, n),
                    full_sort_closest(&rt, target, n),
                    "closest({:?}, {}) over {} contacts, k = {}",
                    target, n, len, k
                );
            }
        }
    }
}
