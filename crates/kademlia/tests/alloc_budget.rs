//! Allocation budgets: how many heap allocations, and how many bytes they
//! ask for, each hot operation of a node costs on a fixed fixture.
//!
//! Counts are exact and do not depend on the host, so they are pinned with
//! `assert_eq!`. A change that moves one edits its constant, and the
//! constant's history is the trajectory. Each measurement delivers one
//! datagram through [`Node::on_message`], the way a runtime does, and
//! counts everything the node allocates on the way: the decode, the state
//! change, the reply it encodes and the effect buffers it queues them in.
//!
//! The fixture: a holder `H` of one 100-entry block (names `tag-000` …
//! `tag-099`, weights 200 down to 101), a requester `R` that knows `H`, and
//! a caching node `C` that holds nothing. Every node runs the plain
//! protocol (`k = 8`, every layer off) except `C`, which has the hot cache.
//!
//! The counter is a global allocator that forwards to [`System`] and adds
//! one allocation of `size` bytes per `alloc`, `alloc_zeroed` and `realloc`
//! (the new size) to a per-thread total, so tests running in parallel do
//! not count each other. Frees are not counted.

// dharma-lint: allow-file(D5): a counting global allocator is the only way to observe
// allocations; it forwards every call to `System` unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use dharma_cache::{CacheConfig, FreshConfig};
use dharma_kademlia::{
    Contact, DigestEntry, KadConfig, KadOutput, KademliaNode, Message, StoredEntry,
};
use dharma_net::{Ctx, Node, NodeAddr, OutMessage};
use dharma_types::{sha1, Id160, VersionStamp, WireDecode, WireEncode};

thread_local! {
    /// `(allocations, bytes)` on this thread so far.
    static COUNTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = COUNTED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract; forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `alloc_zeroed`'s contract; forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `realloc`'s contract; forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller upholds `dealloc`'s contract; forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocates on this thread: `(allocations, bytes)`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = COUNTED.with(Cell::get);
    let out = f();
    let after = COUNTED.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

const H: NodeAddr = 1;
const R: NodeAddr = 2;
const C: NodeAddr = 3;
const TOP_N: u32 = 100;

fn key() -> Id160 {
    sha1(b"hub block")
}

fn contact(addr: NodeAddr) -> Contact {
    Contact {
        id: sha1(&addr.to_le_bytes()),
        addr,
    }
}

fn stamp(seq: u64) -> VersionStamp {
    VersionStamp::new(seq, sha1(b"writer"))
}

/// The hub block, in reply order.
fn block() -> Vec<StoredEntry> {
    (0..100u64)
        .map(|i| StoredEntry {
            name: format!("tag-{i:03}"),
            weight: 200 - i,
        })
        .collect()
}

fn node(addr: NodeAddr, cache: bool) -> KademliaNode {
    let cfg = KadConfig {
        k: 8,
        reply_budget: 4_000,
        cache: cache.then(CacheConfig::default),
        ..KadConfig::default()
    };
    KademliaNode::new(contact(addr).id, addr, cfg)
}

/// What a delivery sent, what it completed, and what it allocated.
type Delivered = (Vec<OutMessage>, Vec<(u64, KadOutput)>, (u64, u64));

/// Delivers `payload` to `node` from `from`.
fn deliver(node: &mut KademliaNode, from: NodeAddr, payload: &Bytes) -> Delivered {
    let mut ctx = Ctx::new(1_000, node.contact().addr, 7);
    let ((), cost) = counted(|| node.on_message(&mut ctx, from, payload.clone()));
    let (sends, _, done) = ctx.into_effects();
    (sends, done, cost)
}

/// Runs `op` on `node` with a fresh context; returns what it sent.
fn start(
    node: &mut KademliaNode,
    op: impl FnOnce(&mut KademliaNode, &mut Ctx<KadOutput>),
) -> Vec<OutMessage> {
    let mut ctx = Ctx::new(1_000, node.contact().addr, 7);
    op(node, &mut ctx);
    ctx.into_effects().0
}

fn find_value(rpc: u64, from: NodeAddr) -> Bytes {
    Message::FindValue {
        rpc,
        from: contact(from),
        key: key(),
        top_n: TOP_N,
        no_cache: false,
    }
    .encode_to_bytes()
}

/// `H`, holding the hub block (one 100-entry `Append` from `R`).
fn holder() -> KademliaNode {
    let mut h = node(H, false);
    let append = Message::Append {
        rpc: 1,
        from: contact(R),
        key: key(),
        entries: block(),
        stamp: stamp(1),
    };
    deliver(&mut h, R, &append.encode_to_bytes());
    h
}

/// `R` with a GET for the hub block in flight at `H`, and `H`'s
/// `FoundValue` answering it.
fn live_get() -> (KademliaNode, Bytes) {
    let mut h = holder();
    let mut r = node(R, false);
    r.add_seed(contact(H));
    let sent = start(&mut r, |r, ctx| {
        r.get(ctx, key(), TOP_N);
    });
    assert_eq!(sent.len(), 1, "one FIND_VALUE, to H");
    let (mut reply, _, _) = deliver(&mut h, R, &sent[0].payload);
    (r, reply.remove(0).payload)
}

/// A holder answers `FIND_VALUE` from its wire memo, copied once into the
/// exactly sized reply: the reply, its shared handle, and the send queue.
#[test]
fn a_holder_serves_find_value_from_its_memo() {
    let mut h = holder();
    deliver(&mut h, R, &find_value(10, R)); // builds the memo
    let (sent, _, cost) = deliver(&mut h, R, &find_value(11, R));
    assert!(matches!(
        Message::decode_exact(&sent[0].payload),
        Ok(Message::FoundValue { entries, .. }) if entries.len() == 100
    ));
    assert_eq!(cost, (3, 1_190));
}

/// The owned decode of a 100-entry `FoundValue`: one `String` per entry
/// and the entry vector (an empty digest costs nothing).
#[test]
fn the_owned_decode_of_a_100_entry_found_value() {
    let (_, reply) = live_get();
    let (msg, cost) = counted(|| Message::decode_exact(&reply));
    assert!(matches!(msg, Ok(Message::FoundValue { .. })));
    assert_eq!(cost, (101, 3_900));
}

/// A live GET completes on its first `FoundValue`: the owned decode above,
/// the wire body an owned decode keeps, copied out of the datagram (buffer
/// and handle; kept even on a node without a cache), and the completion
/// queue.
#[test]
fn a_live_get_completes_on_a_100_entry_found_value() {
    let (mut r, reply) = live_get();
    let (_, done, cost) = deliver(&mut r, H, &reply);
    assert!(matches!(
        &done[..],
        [(_, KadOutput::Value { value: Some(v), .. })] if v.entries.len() == 100
    ));
    assert_eq!(cost, (104, 5_331));
}

/// The same `FoundValue` arriving after its GET completed is validated and
/// skipped: it allocates nothing.
#[test]
fn a_found_value_nobody_waits_for_allocates_nothing() {
    let (mut r, reply) = live_get();
    deliver(&mut r, H, &reply);
    let (sent, done, cost) = deliver(&mut r, H, &reply);
    assert!(sent.is_empty() && done.is_empty());
    assert_eq!(cost, (0, 0));
}

/// `C` pins a pushed view as its wire bytes, then serves `FIND_VALUE`
/// from it.
fn cache_push(rpc: u64, seq: u64) -> Bytes {
    Message::CachePush {
        rpc,
        from: contact(R),
        key: key(),
        top_n: TOP_N,
        blob: None,
        entries: block(),
        truncated: false,
        version: stamp(seq),
    }
    .encode_to_bytes()
}

/// Pinning a newer pushed view over an older one: the body copied out of
/// the datagram (buffer and handle); the slot is reused.
#[test]
fn pinning_a_cache_push() {
    let mut c = node(C, true);
    deliver(&mut c, R, &cache_push(20, 1));
    let (_, _, cost) = deliver(&mut c, R, &cache_push(21, 2));
    assert_eq!(c.cache_stats().map(|s| s.insertions), Some(2));
    assert_eq!(cost, (2, 1_015));
}

/// A cache hit: `C` answers `FIND_VALUE` with its pinned bytes, copied
/// once into the exactly sized reply; the reply's handle and the send
/// queue.
#[test]
fn a_cache_hit_serves_the_pinned_bytes() {
    let mut c = node(C, true);
    deliver(&mut c, R, &cache_push(20, 1));
    deliver(&mut c, R, &find_value(30, R));
    let (sent, _, cost) = deliver(&mut c, R, &find_value(31, R));
    assert!(matches!(
        Message::decode_exact(&sent[0].payload),
        Ok(Message::FoundValue {
            from_cache: true,
            ..
        })
    ));
    assert_eq!(cost, (3, 1_190));
}

/// A `Replicate` of exactly the held block is a confirmation: no name is
/// built, checked or interned. What is left is the body kept for the merge
/// (buffer and handle), the ack (an exactly sized buffer and its handle)
/// and the send queue.
#[test]
fn an_identical_replicate() {
    let mut h = holder();
    let replicate = Message::Replicate {
        rpc: 40,
        from: contact(R),
        key: key(),
        blob: None,
        entries: block(),
        stamp: stamp(1),
    };
    let (sent, _, cost) = deliver(&mut h, R, &replicate.encode_to_bytes());
    assert!(matches!(
        Message::decode_exact(&sent[0].payload),
        Ok(Message::Ack { rpc: 40, .. })
    ));
    assert_eq!(cost, (5, 1_206));
}

/// A one-entry `Append` to a held name: the body kept for the apply,
/// copied out of the datagram (buffer and handle), the interned batch, the
/// ack (two, as above) and the send queue. Six allocations, as when the
/// entry was decoded owned (its vector and its name's `String`); 11 bytes
/// more (242 before), the handle's header outweighing the `String` and
/// the 32-byte owned entry it replaces.
#[test]
fn a_one_entry_append() {
    let mut h = holder();
    let append = Message::Append {
        rpc: 50,
        from: contact(R),
        key: key(),
        entries: vec![StoredEntry {
            name: "tag-042".into(),
            weight: 1,
        }],
        stamp: stamp(2),
    };
    let (sent, _, cost) = deliver(&mut h, R, &append.encode_to_bytes());
    assert_eq!(sent.len(), 1);
    assert_eq!(cost, (6, 253));
}

/// A one-entry `Append` of a name `H` has never seen costs what one to a
/// held name does, plus one allocation: the block's entry vector, filled
/// to fit by the 100-entry write that loaded it, doubles to 200 entries
/// (2,400 bytes). The name table's arena, offsets and index have room for
/// a 101st name, which is interned from the body's bytes. (A table of one
/// allocation per name spent two more here: the name and its hash chain.
/// The owned decode spent 11 bytes less, at 2,642.)
#[test]
fn a_one_entry_append_of_a_fresh_name() {
    let mut h = holder();
    let append = Message::Append {
        rpc: 51,
        from: contact(R),
        key: key(),
        entries: vec![StoredEntry {
            name: "tag-100".into(),
            weight: 1,
        }],
        stamp: stamp(2),
    };
    let (sent, _, cost) = deliver(&mut h, R, &append.encode_to_bytes());
    assert_eq!(sent.len(), 1);
    assert_eq!(cost, (7, 2_653));
}

/// A 1,000-entry `Append` of fresh names to an empty key: the interner's
/// growth path. The body kept for the apply (buffer and handle), the
/// interned batch (exactly 1,000 entries), the batch write's name index,
/// the block (one allocation of exactly 1,000 entries), the re-sort's
/// scratch, the ack, and the name table's three vectors growing by
/// doubling: 49 allocations for a thousand names. Each name is interned
/// from a `&str` borrowed out of the body; the owned decode built a
/// `String` per entry and the vector first, 1,048 allocations and
/// 210,825 bytes in all (and one allocation per name and hash chain,
/// before the flat name table, about two more per name).
#[test]
fn a_1000_entry_append_of_fresh_names() {
    let mut h = node(H, false);
    let append = Message::Append {
        rpc: 52,
        from: contact(R),
        key: key(),
        entries: (0..1_000u64)
            .map(|i| StoredEntry {
                name: format!("fresh-{i:04}"),
                weight: 1 + i % 7,
            })
            .collect(),
        stamp: stamp(1),
    };
    let (sent, _, cost) = deliver(&mut h, R, &append.encode_to_bytes());
    assert_eq!(sent.len(), 1);
    assert_eq!(cost, (49, 180_867));
}

/// A coordinator's write phase: what `R` allocates on the delivery that
/// ends its lookup for an append of `entries` and sends the write. `R`
/// knows eight nodes (`k = 8`) and appends to a key it is farther from
/// than all of them, so the lookup ends on the eighth `FoundNodes` and
/// every node that answered is a replica.
fn write_phase(entries: Vec<StoredEntry>) -> (u64, u64) {
    let seeds = known(8);
    let farthest = |k: &Id160| {
        let own = contact(R).id.distance(k);
        seeds.iter().all(|c| c.id.distance(k) < own)
    };
    let key = (0u32..).map(|i| sha1(&i.to_be_bytes())).find(farthest);
    let key = key.expect("a key R is not a replica of");
    let mut r = node(R, false);
    seeds.into_iter().for_each(|c| r.add_seed(c));
    let mut asked = start(&mut r, |r, ctx| {
        r.append_many(ctx, key, entries);
    });
    loop {
        let find = asked
            .pop()
            .expect("the lookup asks until the write goes out");
        let Ok(Message::FindNode { rpc, .. }) = Message::decode_exact(&find.payload) else {
            panic!("a FIND_NODE");
        };
        let reply = Message::FoundNodes {
            rpc,
            from: contact(find.to),
            contacts: Vec::new(),
            digest: Vec::new(),
        };
        let (sent, _, cost) = deliver(&mut r, find.to, &reply.encode_to_bytes());
        let append = |m: &OutMessage| {
            matches!(
                Message::decode_exact(&m.payload),
                Ok(Message::Append { .. })
            )
        };
        if sent.iter().any(append) {
            assert!(
                sent.iter().all(append) && sent.len() == 8,
                "one per replica"
            );
            return cost;
        }
        asked.extend(sent);
    }
}

/// A coordinator sends a 100-entry append to its eight replicas: per
/// replica, one exactly sized datagram — the body encoded once when the
/// write started, copied in between the replica's header and the stamp —
/// and its handle (16 of the 24 allocations), the rest being the effect
/// queues and RPC bookkeeping. The count is the one-entry append's: it
/// scales with the replicas, not with entries × replicas. When each
/// replica's `Append` was built owned (every entry and its name cloned)
/// and encoded again, this write cost 933 allocations and 46,188 bytes,
/// and a one-entry one 42 and 3,735.
#[test]
fn a_coordinator_sends_a_100_entry_append_to_k_replicas() {
    let (one, _) = write_phase(block()[..1].to_vec());
    let cost = write_phase(block());
    assert_eq!(cost.0, one, "allocations do not grow with the entries");
    assert_eq!(cost, (24, 11_088));
}

/// A node with the freshness layer on (digests of up to 8 entries).
fn fresh_node(addr: NodeAddr) -> KademliaNode {
    let cfg = KadConfig {
        k: 8,
        reply_budget: 4_000,
        freshness: Some(FreshConfig::default()),
        ..KadConfig::default()
    };
    KademliaNode::new(contact(addr).id, addr, cfg)
}

/// Sixteen block keys.
fn keys() -> impl Iterator<Item = Id160> {
    (0..16u32).map(|i| sha1(&i.to_le_bytes()))
}

/// A digest build: a freshness-enabled `H` holding sixteen one-entry
/// blocks and knowing twenty contacts answers `FIND_NODE`. Against the
/// plain reply below (5 allocations, 937 bytes), the digest adds two
/// allocations and 667 bytes: its build, and its entries in the reply.
#[test]
fn a_find_node_reply_with_a_digest() {
    let mut h = fresh_node(H);
    known(20).into_iter().for_each(|c| h.add_seed(c));
    for (i, k) in keys().enumerate() {
        let append = Message::Append {
            rpc: 70 + i as u64,
            from: contact(R),
            key: k,
            entries: block()[..1].to_vec(),
            stamp: stamp(1),
        };
        deliver(&mut h, R, &append.encode_to_bytes());
    }
    let find = Message::FindNode {
        rpc: 90,
        from: contact(R),
        target: sha1(b"somewhere"),
    };
    deliver(&mut h, R, &find.encode_to_bytes());
    let (sent, _, cost) = deliver(&mut h, R, &find.encode_to_bytes());
    assert!(matches!(
        Message::decode_exact(&sent[0].payload),
        Ok(Message::FoundNodes { digest, .. }) if !digest.is_empty()
    ));
    assert_eq!(cost, (7, 1_604));
}

/// A digest absorb: a freshness-enabled `R` receives a `Pong` whose
/// eight-entry digest raises the versions of keys its freshness book
/// already tracks (an earlier `Pong` named them): the decoded digest
/// vector, and nothing for the book.
#[test]
fn a_pong_digest_absorb() {
    let mut r = fresh_node(R);
    let pong = |rpc, seq| {
        let digest = keys()
            .take(8)
            .map(|key| DigestEntry {
                key,
                version: stamp(seq),
            })
            .collect();
        Message::Pong {
            rpc,
            from: contact(H),
            digest,
        }
        .encode_to_bytes()
    };
    deliver(&mut r, H, &pong(100, 1));
    let (sent, _, cost) = deliver(&mut r, H, &pong(101, 2));
    assert!(sent.is_empty());
    assert_eq!(cost, (1, 448));
}

/// Twenty contacts known to `H`, in addresses 100 and up.
fn known(n: u32) -> Vec<Contact> {
    (100..100 + n).map(contact).collect()
}

/// `H` answers `FIND_NODE` with its `k` closest contacts.
#[test]
fn a_find_node_reply() {
    let mut h = node(H, false);
    known(20).into_iter().for_each(|c| h.add_seed(c));
    let find = Message::FindNode {
        rpc: 60,
        from: contact(R),
        target: sha1(b"somewhere"),
    };
    deliver(&mut h, R, &find.encode_to_bytes());
    let (sent, _, cost) = deliver(&mut h, R, &find.encode_to_bytes());
    assert!(matches!(
        Message::decode_exact(&sent[0].payload),
        Ok(Message::FoundNodes { contacts, .. }) if contacts.len() == 8
    ));
    assert_eq!(cost, (5, 937));
}

/// One step of a node lookup: a `FoundNodes` with eight new contacts
/// arrives, and the lookup asks the next ones.
#[test]
fn one_lookup_step() {
    let mut r = node(R, false);
    known(3).into_iter().for_each(|c| r.add_seed(c));
    let sent = start(&mut r, |r, ctx| {
        r.find_nodes(ctx, sha1(b"somewhere"));
    });
    assert_eq!(sent.len(), 3, "alpha FIND_NODEs");
    let Ok(Message::FindNode { rpc, .. }) = Message::decode_exact(&sent[0].payload) else {
        panic!("a FIND_NODE");
    };
    let reply = Message::FoundNodes {
        rpc,
        from: contact(sent[0].to),
        contacts: (200..208).map(contact).collect(),
        digest: Vec::new(),
    };
    let (sent, _, cost) = deliver(&mut r, sent[0].to, &reply.encode_to_bytes());
    assert!(!sent.is_empty(), "the lookup asks on");
    assert_eq!(cost, (11, 2_003));
}
