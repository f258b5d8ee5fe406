//! A real-socket runtime for the same [`Node`] state machines.
//!
//! Two layers:
//!
//! * [`UdpWorker`] — the **shared-nothing unit**: one worker owns a set of
//!   node slots, one [`BatchSocket`] per slot, a private receive buffer
//!   pool, and a private timer heap. Nothing in the hot path is shared
//!   with other workers, so N workers on N cores scale without a lock.
//!   Receives drain with `recvmmsg`, sends flush with `sendmmsg` (single
//!   syscalls per *batch*, not per packet), and the wait between bursts is
//!   one computed `poll(2)` across all of the worker's sockets — the old
//!   per-iteration `set_read_timeout` syscall is gone.
//! * [`UdpRuntime`] — the single-node convenience wrapper (a worker with
//!   one slot) that the `udp_overlay` example and the existing tests use.
//!
//! The hot receive path makes **zero payload copies** and, in steady
//! state, one allocation per datagram: datagrams land directly in pooled
//! buffers, freeze into [`Bytes`](bytes::Bytes) for the node callback, and
//! the storage is reclaimed via `Bytes::try_into_mut` as soon as the node
//! drops its handle. The allocation is the `Arc` the vendored `bytes`
//! stub's `freeze` puts a buffer in; the poll (a [`PollSet`] re-armed in
//! place) and the batch receive allocate nothing.
//! `crates/net/tests/alloc_budget.rs` pins it.
//!
//! Peer addressing: protocol messages carry the compact [`NodeAddr`]
//! indices, so each worker keeps an address book mapping indices to socket
//! addresses. Hosted nodes are registered automatically; remote peers are
//! added with [`UdpWorker::register_peer`]. Datagrams from unregistered
//! senders are discarded (no implicit trust) but counted in
//! [`NetCounters::unknown_sender`] so operators can see the silence.

// dharma-lint: allow-file(D1): the real-socket runtime is wall-clock by nature —
// its whole job is pacing actual sockets; nothing here feeds the SimNet trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dharma_types::{DharmaError, FxHashMap, Result};

use crate::counters::NetCounters;
use crate::node::{Ctx, Node, NodeAddr, OpId};
use crate::sys::{BatchSocket, BufPool, PollSet, SyscallMode, MAX_BATCH};

/// One hosted node: its socket, pending completions, and state machine.
struct Slot<N: Node> {
    node: Option<N>,
    addr: NodeAddr,
    sock: BatchSocket,
    completed: Vec<(OpId, N::Output)>,
}

/// A shared-nothing transport worker hosting one or more [`Node`]s, each
/// on its own UDP socket (bound `SO_REUSEPORT`-capable), with worker-local
/// timers and a worker-local receive buffer pool.
pub struct UdpWorker<N: Node> {
    slots: Vec<Slot<N>>,
    peers: FxHashMap<NodeAddr, SocketAddr>,
    peers_rev: FxHashMap<SocketAddr, NodeAddr>,
    pool: BufPool,
    /// Min-heap of `(deadline µs, slot, timer id)`.
    timers: BinaryHeap<Reverse<(u64, usize, u64)>>,
    epoch: Instant,
    mtu: usize,
    counters: NetCounters,
    rng: StdRng,
    /// Reusable receive scratch (drained every dispatch round).
    rx: Vec<(BytesMut, SocketAddr)>,
    /// Every slot's socket, in slot order, for the multi-socket poll.
    poll_set: PollSet,
    /// Reusable readiness flags for the multi-socket poll.
    ready: Vec<bool>,
}

impl<N: Node> UdpWorker<N> {
    /// A worker with no nodes yet. `mtu` bounds outgoing payloads exactly
    /// like the simulator's check; `seed` drives the per-callback RNG forks.
    pub fn new(mtu: usize, seed: u64) -> Self {
        UdpWorker {
            slots: Vec::new(),
            peers: FxHashMap::default(),
            peers_rev: FxHashMap::default(),
            pool: BufPool::with_slots(2 * MAX_BATCH),
            timers: BinaryHeap::new(),
            epoch: Instant::now(),
            mtu,
            counters: NetCounters::new(),
            rng: StdRng::seed_from_u64(seed),
            rx: Vec::with_capacity(MAX_BATCH),
            poll_set: PollSet::default(),
            ready: Vec::new(),
        }
    }

    /// Binds a socket for `node`, runs its `on_start`, and returns the slot
    /// index. The node's own address is registered in the address book so
    /// co-hosted nodes can reach it immediately.
    pub fn add_node(
        &mut self,
        mut node: N,
        self_addr: NodeAddr,
        bind: SocketAddr,
    ) -> Result<usize> {
        let sock = BatchSocket::bind(bind, true)?;
        // The worker multiplexes many sockets through one poll, so every
        // socket must be non-blocking on every platform (Linux already is).
        sock.socket().set_nonblocking(true)?;
        let local = sock.local_addr()?;
        let slot_idx = self.slots.len();
        self.poll_set.push(sock.socket());
        self.peers.insert(self_addr, local);
        self.peers_rev.insert(local, self_addr);
        let mut ctx = Ctx::new(self.now_us(), self_addr, self.rng.gen());
        node.on_start(&mut ctx);
        self.slots.push(Slot {
            node: Some(node),
            addr: self_addr,
            sock,
            completed: Vec::new(),
        });
        self.apply(slot_idx, ctx);
        self.flush_slot(slot_idx);
        Ok(slot_idx)
    }

    /// Number of hosted nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the worker hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Selects the syscall discipline for every hosted socket.
    /// [`SyscallMode::PerPacket`] is the portable fallback and doubles as
    /// the legacy one-syscall-per-packet baseline for `bench_udp`.
    pub fn set_mode(&mut self, mode: SyscallMode) {
        for slot in &mut self.slots {
            slot.sock.set_mode(mode);
        }
    }

    /// The local socket address of slot `slot`.
    pub fn local_addr(&self, slot: usize) -> Result<SocketAddr> {
        Ok(self.slots[slot].sock.local_addr()?)
    }

    /// The overlay address of slot `slot`.
    pub fn node_addr(&self, slot: usize) -> NodeAddr {
        self.slots[slot].addr
    }

    /// Registers a peer's socket address under its overlay transport index.
    pub fn register_peer(&mut self, addr: NodeAddr, sock: SocketAddr) {
        self.peers.insert(addr, sock);
        self.peers_rev.insert(sock, addr);
    }

    /// Shared counters (one set per worker — cloning shares storage).
    pub fn counters(&self) -> NetCounters {
        self.counters.clone()
    }

    /// Microseconds since the worker started.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Receive-pool telemetry: `(buffers allocated, buffers recycled)`.
    /// In steady state `allocated` stops growing — the zero-alloc invariant.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.allocations(), self.pool.recycled())
    }

    /// Immutable access to the node in slot `slot`.
    pub fn node(&self, slot: usize) -> &N {
        self.slots[slot].node.as_ref().expect("node present")
    }

    /// Issues client operations against slot `slot`, applying its effects
    /// and flushing its sends immediately (client calls are latency-bound,
    /// not throughput-bound).
    pub fn with_node<R>(
        &mut self,
        slot: usize,
        f: impl FnOnce(&mut N, &mut Ctx<N::Output>) -> R,
    ) -> R {
        let mut node = self.slots[slot].node.take().expect("node present");
        let mut ctx = Ctx::new(self.now_us(), self.slots[slot].addr, self.rng.gen());
        let out = f(&mut node, &mut ctx);
        self.slots[slot].node = Some(node);
        self.apply(slot, ctx);
        self.flush_slot(slot);
        out
    }

    /// Drains reported operation completions for slot `slot`.
    pub fn take_completions(&mut self, slot: usize) -> Vec<(OpId, N::Output)> {
        std::mem::take(&mut self.slots[slot].completed)
    }

    /// Processes traffic and timers for up to `budget`. Returns the number
    /// of datagrams dispatched to hosted nodes.
    ///
    /// Each iteration fires due timers, flushes queued sends (one
    /// `sendmmsg` per batch), computes the exact wait until the next timer
    /// or the budget end, parks in **one** `poll(2)` across all sockets,
    /// and batch-drains whichever became readable. No syscalls are spent
    /// re-arming timeouts that did not change.
    pub fn poll(&mut self, budget: Duration) -> Result<u64> {
        let deadline = Instant::now() + budget;
        let mut handled = 0u64;
        loop {
            self.fire_due_timers();
            self.flush_all();
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let mut wait = deadline - now;
            if let Some(Reverse((t_us, _, _))) = self.timers.peek() {
                let until_timer = t_us.saturating_sub(self.now_us());
                wait = wait.min(Duration::from_micros(until_timer.max(1)));
            }
            // poll(2) rounds down to milliseconds; round *up* so a 1.4 ms
            // wait never spins as a 0 ms busy-loop, and floor at 1 ms.
            let wait_ms = wait.as_micros().div_ceil(1000).max(1) as u64;
            let wait = Duration::from_millis(wait_ms);
            self.ready.clear();
            self.ready.resize(self.slots.len(), false);
            let n_ready = (self.poll_set.wait(wait, &mut self.ready))
                .map_err(|e| DharmaError::Io(e.to_string()))?;
            if n_ready == 0 {
                continue;
            }
            for i in 0..self.slots.len() {
                if !self.ready[i] {
                    continue;
                }
                loop {
                    let mut rx = std::mem::take(&mut self.rx);
                    rx.clear();
                    let got = self.slots[i]
                        .sock
                        .recv_now(&mut self.pool, &mut rx, MAX_BATCH)
                        .map_err(|e| DharmaError::Io(e.to_string()))?;
                    for (buf, from_sock) in rx.drain(..) {
                        handled += u64::from(self.dispatch(i, buf, from_sock));
                    }
                    self.rx = rx;
                    if got < MAX_BATCH {
                        break;
                    }
                }
            }
        }
        Ok(handled)
    }

    /// Delivers one datagram to slot `slot`. Returns whether a node
    /// callback ran (unknown senders are counted and dropped).
    fn dispatch(&mut self, slot: usize, buf: BytesMut, from_sock: SocketAddr) -> bool {
        let payload = buf.freeze();
        let Some(&from) = self.peers_rev.get(&from_sock) else {
            self.counters.record_unknown_sender();
            self.pool.recycle(payload);
            return false;
        };
        self.counters.record_delivered();
        let mut node = self.slots[slot].node.take().expect("node present");
        let mut ctx = Ctx::new(self.now_us(), self.slots[slot].addr, self.rng.gen());
        node.on_message(&mut ctx, from, payload.clone());
        self.slots[slot].node = Some(node);
        self.apply(slot, ctx);
        // If the node dropped its handle the storage returns to the pool
        // without a copy; if it kept the payload, recycle is a no-op.
        self.pool.recycle(payload);
        true
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.now_us();
            let due = matches!(self.timers.peek(), Some(Reverse((t, _, _))) if *t <= now);
            if !due {
                return;
            }
            let Reverse((_, slot, id)) = self.timers.pop().expect("peeked");
            self.counters.record_timer();
            let mut node = self.slots[slot].node.take().expect("node present");
            let mut ctx = Ctx::new(now, self.slots[slot].addr, self.rng.gen());
            node.on_timer(&mut ctx, id);
            self.slots[slot].node = Some(node);
            self.apply(slot, ctx);
        }
    }

    /// Applies a callback's effects: queues sends (MTU-checked) on the
    /// slot's socket, arms timers, collects completions. Sends stay queued
    /// until the next flush so bursts leave in one `sendmmsg`.
    fn apply(&mut self, slot: usize, ctx: Ctx<N::Output>) {
        let (sends, timers, completions) = ctx.into_effects();
        for msg in sends {
            if msg.payload.len() > self.mtu {
                self.counters.record_oversize();
                continue;
            }
            if let Some(sock) = self.peers.get(&msg.to) {
                self.slots[slot].sock.queue_send(*sock, msg.payload);
            } else {
                self.counters.record_dropped();
            }
        }
        let now = self.now_us();
        for (delay, id) in timers {
            self.timers.push(Reverse((now + delay, slot, id)));
        }
        self.slots[slot].completed.extend(completions);
    }

    fn flush_slot(&mut self, slot: usize) {
        let outcome = self.slots[slot].sock.flush();
        if outcome.sent > 0 {
            self.counters.record_sent_batch(outcome.sent, outcome.bytes);
        }
        for _ in 0..outcome.dropped {
            self.counters.record_dropped();
        }
    }

    fn flush_all(&mut self) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].sock.pending_tx() > 0 {
                self.flush_slot(slot);
            }
        }
    }
}

/// Drives a single [`Node`] over a UDP socket — a one-slot [`UdpWorker`]
/// kept for the `udp_overlay` example and single-node deployments.
pub struct UdpRuntime<N: Node> {
    worker: UdpWorker<N>,
}

impl<N: Node> UdpRuntime<N> {
    /// Binds a socket and starts the node (its `on_start` runs immediately).
    pub fn bind<A: ToSocketAddrs>(
        node: N,
        self_addr: NodeAddr,
        bind: A,
        mtu: usize,
        seed: u64,
    ) -> Result<Self> {
        let bind_addr = bind
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| DharmaError::Io("bind address resolved to nothing".into()))?;
        let mut worker = UdpWorker::new(mtu, seed);
        worker.add_node(node, self_addr, bind_addr)?;
        Ok(UdpRuntime { worker })
    }

    /// The socket's local address.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.worker.local_addr(0)
    }

    /// Registers a peer's socket address under its overlay transport index.
    pub fn register_peer(&mut self, addr: NodeAddr, sock: SocketAddr) {
        self.worker.register_peer(addr, sock);
    }

    /// Selects the syscall discipline (see [`UdpWorker::set_mode`]).
    pub fn set_mode(&mut self, mode: SyscallMode) {
        self.worker.set_mode(mode);
    }

    /// Shared counters.
    pub fn counters(&self) -> NetCounters {
        self.worker.counters()
    }

    /// Microseconds since the runtime started.
    pub fn now_us(&self) -> u64 {
        self.worker.now_us()
    }

    /// Immutable node access.
    pub fn node(&self) -> &N {
        self.worker.node(0)
    }

    /// Issues client operations against the node, applying its effects.
    pub fn with_node<R>(&mut self, f: impl FnOnce(&mut N, &mut Ctx<N::Output>) -> R) -> R {
        self.worker.with_node(0, f)
    }

    /// Drains reported operation completions.
    pub fn take_completions(&mut self) -> Vec<(OpId, N::Output)> {
        self.worker.take_completions(0)
    }

    /// Telemetry snapshot for real deployments: the node's own gauges (for
    /// a Kademlia node: cache statistics, popularity weights, storage and
    /// routing occupancy) followed by this runtime's transport counters.
    /// The sim reads node state directly; this is the operator-facing
    /// equivalent over live sockets.
    pub fn metrics(&self) -> Vec<crate::node::Metric>
    where
        N: crate::node::Instrumented,
    {
        let counters = self.worker.counters();
        let mut out = self.node().metrics();
        out.push(crate::node::Metric::new("net_sent", counters.sent() as f64));
        out.push(crate::node::Metric::new(
            "net_delivered",
            counters.delivered() as f64,
        ));
        out.push(crate::node::Metric::new(
            "net_dropped",
            counters.dropped() as f64,
        ));
        out.push(crate::node::Metric::new(
            "net_bytes_sent",
            counters.bytes_sent() as f64,
        ));
        out.push(crate::node::Metric::new(
            "net_timers_fired",
            counters.timers_fired() as f64,
        ));
        out.push(crate::node::Metric::new(
            "net_unknown_sender",
            counters.unknown_sender() as f64,
        ));
        out
    }

    /// Processes traffic and timers for up to `budget`. Returns the number
    /// of datagrams handled.
    pub fn poll(&mut self, budget: Duration) -> Result<u64> {
        self.worker.poll(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    struct Collector {
        got: Vec<(NodeAddr, Vec<u8>)>,
        reply: bool,
    }

    impl Node for Collector {
        type Output = ();

        fn on_message(&mut self, ctx: &mut Ctx<()>, from: NodeAddr, payload: Bytes) {
            self.got.push((from, payload.to_vec()));
            if self.reply {
                ctx.send(from, Bytes::from_static(b"pong"));
            }
        }
    }

    fn collector(reply: bool) -> Collector {
        Collector { got: vec![], reply }
    }

    #[test]
    fn udp_ping_pong_on_loopback() {
        let mut rt_a = UdpRuntime::bind(collector(false), 0, "127.0.0.1:0", 1400, 1).unwrap();
        let mut rt_b = UdpRuntime::bind(collector(true), 1, "127.0.0.1:0", 1400, 2).unwrap();
        let addr_a = rt_a.local_addr().unwrap();
        let addr_b = rt_b.local_addr().unwrap();
        rt_a.register_peer(1, addr_b);
        rt_b.register_peer(0, addr_a);

        rt_a.with_node(|_, ctx| ctx.send(1, Bytes::from_static(b"ping")));
        // Drive both runtimes briefly.
        for _ in 0..20 {
            rt_b.poll(Duration::from_millis(10)).unwrap();
            rt_a.poll(Duration::from_millis(10)).unwrap();
            if !rt_a.node().got.is_empty() {
                break;
            }
        }
        assert_eq!(rt_b.node().got, vec![(0, b"ping".to_vec())]);
        assert_eq!(rt_a.node().got, vec![(1, b"pong".to_vec())]);
    }

    #[test]
    fn per_packet_mode_interops_with_batched() {
        // The legacy one-syscall-per-packet arm must speak the same
        // protocol as the batched arm (bench_udp compares the two).
        let mut rt_a = UdpRuntime::bind(collector(false), 0, "127.0.0.1:0", 1400, 5).unwrap();
        let mut rt_b = UdpRuntime::bind(collector(true), 1, "127.0.0.1:0", 1400, 6).unwrap();
        rt_a.set_mode(SyscallMode::PerPacket);
        let addr_a = rt_a.local_addr().unwrap();
        let addr_b = rt_b.local_addr().unwrap();
        rt_a.register_peer(1, addr_b);
        rt_b.register_peer(0, addr_a);

        rt_a.with_node(|_, ctx| ctx.send(1, Bytes::from_static(b"ping")));
        for _ in 0..20 {
            rt_b.poll(Duration::from_millis(10)).unwrap();
            rt_a.poll(Duration::from_millis(10)).unwrap();
            if !rt_a.node().got.is_empty() {
                break;
            }
        }
        assert_eq!(rt_a.node().got, vec![(1, b"pong".to_vec())]);
    }

    #[test]
    fn oversize_rejected_before_socket() {
        let mut rt = UdpRuntime::bind(collector(false), 0, "127.0.0.1:0", 64, 3).unwrap();
        let self_sock = rt.local_addr().unwrap();
        rt.register_peer(0, self_sock);
        rt.with_node(|_, ctx| ctx.send(0, Bytes::from(vec![0u8; 65])));
        assert_eq!(rt.counters().oversize_rejected(), 1);
        assert_eq!(rt.counters().sent(), 0);
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        struct T {
            fired: Vec<u64>,
        }
        impl Node for T {
            type Output = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(5_000, 7); // 5 ms
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeAddr, _: Bytes) {}
            fn on_timer(&mut self, _: &mut Ctx<()>, id: u64) {
                self.fired.push(id);
            }
        }
        let mut rt = UdpRuntime::bind(T { fired: vec![] }, 0, "127.0.0.1:0", 1400, 4).unwrap();
        rt.poll(Duration::from_millis(30)).unwrap();
        assert_eq!(rt.node().fired, vec![7]);
    }

    #[test]
    fn timer_wait_granularity_is_capped() {
        // Regression for the old per-iteration `set_read_timeout` dance:
        // the computed poll wait must track the next deadline closely, so
        // a timer never fires early and never drifts by more than the
        // scheduler-noise bound.
        struct T {
            fired_at_us: Vec<u64>,
        }
        impl Node for T {
            type Output = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(20_000, 1); // 20 ms
                ctx.set_timer(40_000, 2); // 40 ms
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeAddr, _: Bytes) {}
            fn on_timer(&mut self, ctx: &mut Ctx<()>, _: u64) {
                self.fired_at_us.push(ctx.now_us);
            }
        }
        let mut rt = UdpRuntime::bind(
            T {
                fired_at_us: vec![],
            },
            0,
            "127.0.0.1:0",
            1400,
            9,
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_millis(500);
        while rt.node().fired_at_us.len() < 2 && Instant::now() < deadline {
            rt.poll(Duration::from_millis(20)).unwrap();
        }
        let fired = rt.node().fired_at_us.clone();
        assert_eq!(fired.len(), 2, "both timers fire");
        for (deadline_us, at) in [(20_000u64, fired[0]), (40_000u64, fired[1])] {
            assert!(at >= deadline_us, "timer fired early: {at} < {deadline_us}");
            let drift = at - deadline_us;
            assert!(
                drift < 100_000,
                "timer drifted {drift} µs past its {deadline_us} µs deadline"
            );
        }
    }

    #[test]
    fn unknown_sender_datagrams_are_counted_not_delivered() {
        let mut rt = UdpRuntime::bind(collector(false), 0, "127.0.0.1:0", 1400, 8).unwrap();
        let target = rt.local_addr().unwrap();
        let stranger = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        stranger.send_to(b"who dis", target).unwrap();
        for _ in 0..20 {
            rt.poll(Duration::from_millis(10)).unwrap();
            if rt.counters().unknown_sender() > 0 {
                break;
            }
        }
        assert_eq!(rt.counters().unknown_sender(), 1);
        assert_eq!(rt.counters().delivered(), 0);
        assert!(
            rt.node().got.is_empty(),
            "stranger's datagram not delivered"
        );
    }

    #[test]
    fn worker_hosts_multiple_nodes_with_local_timers_and_sockets() {
        let mut w = UdpWorker::new(1400, 11);
        let s0 = w
            .add_node(collector(false), 0, "127.0.0.1:0".parse().unwrap())
            .unwrap();
        let s1 = w
            .add_node(collector(true), 1, "127.0.0.1:0".parse().unwrap())
            .unwrap();
        assert_eq!(w.len(), 2);
        assert_ne!(
            w.local_addr(s0).unwrap(),
            w.local_addr(s1).unwrap(),
            "one socket per node"
        );

        // Node 0 pings node 1 through real loopback sockets; both sides
        // are driven by the same worker poll.
        w.with_node(s0, |_, ctx| ctx.send(1, Bytes::from_static(b"ping")));
        let deadline = Instant::now() + Duration::from_millis(500);
        while w.node(s0).got.is_empty() && Instant::now() < deadline {
            w.poll(Duration::from_millis(10)).unwrap();
        }
        assert_eq!(w.node(s1).got, vec![(0, b"ping".to_vec())]);
        assert_eq!(w.node(s0).got, vec![(1, b"pong".to_vec())]);
        assert_eq!(w.counters().unknown_sender(), 0);
    }

    #[test]
    fn receive_pool_recycles_in_steady_state() {
        // After a warm-up burst the pool must stop allocating: every
        // datagram buffer is reclaimed once the node drops its payload.
        let mut rt_a = UdpRuntime::bind(collector(false), 0, "127.0.0.1:0", 1400, 12).unwrap();
        let mut rt_b = UdpRuntime::bind(collector(true), 1, "127.0.0.1:0", 1400, 13).unwrap();
        let addr_a = rt_a.local_addr().unwrap();
        let addr_b = rt_b.local_addr().unwrap();
        rt_a.register_peer(1, addr_b);
        rt_b.register_peer(0, addr_a);

        for round in 0..3 {
            rt_a.with_node(|_, ctx| ctx.send(1, Bytes::from_static(b"ping")));
            let want = round + 1;
            let deadline = Instant::now() + Duration::from_millis(500);
            while rt_b.node().got.len() < want && Instant::now() < deadline {
                rt_b.poll(Duration::from_millis(5)).unwrap();
            }
        }
        let (allocated, recycled) = rt_b.worker.pool_stats();
        assert!(
            recycled >= 2,
            "pool must reclaim dropped payload storage (recycled {recycled})"
        );
        assert!(
            allocated <= 2 * MAX_BATCH as u64 + 1,
            "steady-state receive path must not grow the pool (allocated {allocated})"
        );
    }
}
