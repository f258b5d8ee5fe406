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
use dharma_cache::CacheConfig;
use dharma_kademlia::{Contact, KadConfig, KadOutput, KademliaNode, Message, StoredEntry};
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

/// A holder answers `FIND_VALUE` from its wire memo: the memo copied into
/// a scratch buffer, then into the exactly sized reply, the reply's shared
/// handle, and the send queue.
#[test]
fn a_holder_serves_find_value_from_its_memo() {
    let mut h = holder();
    deliver(&mut h, R, &find_value(10, R)); // builds the memo
    let (sent, _, cost) = deliver(&mut h, R, &find_value(11, R));
    assert!(matches!(
        Message::decode_exact(&sent[0].payload),
        Ok(Message::FoundValue { entries, .. }) if entries.len() == 100
    ));
    assert_eq!(cost, (4, 2_165));
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
/// (buffer and handle), the ack — encoded into a growing buffer, three
/// allocations, and its handle — and the send queue.
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
    assert_eq!(cost, (7, 1_257));
}

/// A one-entry `Append` to a held name: the owned entry (vector and
/// name), the interned batch, the ack (four, as above) and the send
/// queue.
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
    assert_eq!(cost, (8, 297));
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
    assert_eq!(cost, (13, 2_034));
}
