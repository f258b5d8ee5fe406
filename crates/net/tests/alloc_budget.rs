//! Allocation budget of the real-socket runtime: what `UdpWorker`'s
//! receive loop allocates in steady state, counted exactly and pinned with
//! `assert_eq!` (a change that moves it edits the constant).
//!
//! The counter is a global allocator that forwards to [`System`] and adds
//! one allocation of `size` bytes per `alloc`, `alloc_zeroed` and `realloc`
//! (the new size) to a per-thread total. Frees are not counted. The worker
//! runs on the test's own thread, so the count is exactly its work.

// dharma-lint: allow-file(D5): a counting global allocator is the only way to observe
// allocations; it forwards every call to `System` unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dharma_net::sys::MAX_BATCH;
use dharma_net::udp::UdpWorker;
use dharma_net::{Ctx, Node, NodeAddr};

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

/// A node that counts what it receives and keeps nothing.
struct Sink {
    got: u64,
}

impl Node for Sink {
    type Output = ();

    fn on_message(&mut self, _: &mut Ctx<()>, _: NodeAddr, _: Bytes) {
        self.got += 1;
    }
}

/// Sends `n` datagrams to the worker's one node, then polls until it has
/// them all; returns what the polling allocated.
fn burst(w: &mut UdpWorker<Sink>, peer: &UdpSocket, n: u64) -> (u64, u64) {
    let to = w.local_addr(0).unwrap();
    for _ in 0..n {
        peer.send_to(&[7; 100], to).unwrap();
    }
    let want = w.node(0).got + n;
    let deadline = Instant::now() + Duration::from_secs(5);
    let before = COUNTED.with(Cell::get);
    while w.node(0).got < want && Instant::now() < deadline {
        w.poll(Duration::from_millis(1)).unwrap();
    }
    let after = COUNTED.with(Cell::get);
    assert_eq!(w.node(0).got, want, "loopback lost a datagram");
    (after.0 - before.0, after.1 - before.1)
}

/// Once the buffer pool is warm, receiving a datagram costs one allocation
/// of 40 bytes: the `Arc` the vendored `bytes` stub's `freeze` puts the
/// pooled buffer in (freed again when the buffer is recycled). The poll
/// loop, however many times it goes round, and the batched receive
/// allocate nothing.
#[test]
fn the_steady_state_receive_loop_allocates_one_handle_per_datagram() {
    let mut w = UdpWorker::new(1400, 1);
    w.add_node(Sink { got: 0 }, 0, "127.0.0.1:0".parse().unwrap())
        .unwrap();
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    w.register_peer(1, peer.local_addr().unwrap());
    burst(&mut w, &peer, 2 * MAX_BATCH as u64); // warm-up
    for n in [1, 16, MAX_BATCH as u64] {
        assert_eq!(burst(&mut w, &peer, n), (n, 40 * n), "{n} datagrams");
    }
    let (allocated, _) = w.pool_stats();
    assert_eq!(allocated, 0, "the pool never grew past its seeding");
}

/// A node that sends every datagram back to its sender, with the payload
/// handle it received.
struct Echo {
    got: u64,
}

impl Node for Echo {
    type Output = ();

    fn on_message(&mut self, ctx: &mut Ctx<()>, from: NodeAddr, payload: Bytes) {
        self.got += 1;
        ctx.send(from, payload);
    }
}

/// Sends `n` datagrams to the worker's echo node, then polls until the
/// peer has every reply back; returns what the polling allocated.
fn echo_burst(w: &mut UdpWorker<Echo>, peer: &UdpSocket, n: u64) -> (u64, u64) {
    let to = w.local_addr(0).unwrap();
    for _ in 0..n {
        peer.send_to(&[7; 100], to).unwrap();
    }
    let want = w.node(0).got + n;
    let mut replies = 0;
    let mut buf = [0u8; 128];
    let deadline = Instant::now() + Duration::from_secs(5);
    let before = COUNTED.with(Cell::get);
    while replies < n && Instant::now() < deadline {
        w.poll(Duration::from_millis(1)).unwrap();
        while let Ok((len, _)) = peer.recv_from(&mut buf) {
            assert_eq!(len, 100);
            replies += 1;
        }
    }
    let after = COUNTED.with(Cell::get);
    assert_eq!(w.node(0).got, want, "loopback lost a datagram");
    assert_eq!(replies, n, "loopback lost a reply");
    (after.0 - before.0, after.1 - before.1)
}

/// Receive plus reply, once the queues are warm: three allocations of
/// 2,216 bytes per datagram. They are the 40-byte receive handle of the
/// test above, the callback's send list (128 bytes: room for four
/// `OutMessage`s), and a fresh 2,048-byte receive slot. The slot is
/// needed because the queued reply still holds the received buffer when
/// the pool tries to reclaim it, and the warm-up has used up the pool's
/// seeding. Queueing and flushing the reply allocate nothing.
#[test]
fn the_steady_state_echo_loop_allocates_per_datagram_only() {
    let mut w = UdpWorker::new(1400, 1);
    w.add_node(Echo { got: 0 }, 0, "127.0.0.1:0".parse().unwrap())
        .unwrap();
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    peer.set_nonblocking(true).unwrap();
    w.register_peer(1, peer.local_addr().unwrap());
    echo_burst(&mut w, &peer, 2 * MAX_BATCH as u64); // warm-up
    for n in [1, 16, MAX_BATCH as u64] {
        assert_eq!(
            echo_burst(&mut w, &peer, n),
            (3 * n, 2216 * n),
            "{n} datagrams"
        );
    }
}
