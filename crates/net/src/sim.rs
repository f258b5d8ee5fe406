//! The deterministic discrete-event network simulator.
//!
//! A [`SimNet`] owns a set of [`Node`] state machines, a virtual clock in
//! microseconds, and pending-event storage. Two engine disciplines share
//! the same API, selected by [`SimConfig::shards`]:
//!
//! **Serial (`shards = 1`, the default).** One priority queue, one master
//! RNG. Events are ordered by `(time, global sequence number)`, so
//! simultaneous events fire in insertion order; every random draw (latency
//! jitter, loss, per-callback fork seeds) comes from the single seeded
//! stream in event order. This is byte-identical to the engine every PR ≤ 5
//! result was measured on.
//!
//! **Sharded (`shards ≥ 2`).** Nodes are partitioned round-robin across
//! shards (`shard = addr % shards`), each shard owning a local event queue.
//! Execution proceeds in **conservative time windows** of length
//! `latency_min_us` on an absolute grid: within the window `[kL, (k+1)L)`
//! every shard drains its local events independently (optionally on the
//! [`dharma_par`] thread pool — see [`SimNet::enable_parallel`]),
//! then all shards synchronize at a barrier where cross-shard datagrams are
//! exchanged, per-shard counters are merged, and completions are
//! merge-sorted. The barrier is safe because every datagram carries at
//! least `latency_min_us` of latency: a send fired inside window `k`
//! arrives no earlier than window `k + 1`, so no shard can receive a
//! message from the window it is currently executing. Timers are
//! shard-local and may fire within the window that armed them.
//!
//! Sharded determinism does **not** come from a global event order — there
//! is none while shards run concurrently. Instead:
//!
//! 1. every node draws all its randomness (callback fork seeds, and the
//!    latency/loss draws of the datagrams *it sends*) from a private
//!    stream seeded by `(master seed, address)`;
//! 2. events are keyed `(time, origin address, origin sequence)` — a
//!    content-based total order per destination queue that does not depend
//!    on which shard inserted first;
//! 3. windows fall on the absolute grid, so the window schedule is a pure
//!    function of pending event times.
//!
//! A sharded run is therefore bit-reproducible for a given seed, and —
//! stronger — **invariant across shard counts and across serial vs
//! parallel execution**: `shards = 2, 4, 8` with any thread count produce
//! identical counters, completions and node state. The two disciplines are
//! *not* bit-identical to each other (they consume randomness in different
//! orders by construction); `shards = 1` exists precisely to preserve the
//! historical numbers exactly.
//!
//! Two **delay disciplines** share the send path, selected by
//! [`SimConfig::topology`]:
//!
//! * `topology: None` (the default) — the classic global-uniform model:
//!   each datagram is delayed by `latency_min_us ..= latency_max_us` drawn
//!   independently and lost with probability `drop_rate`. Every historical
//!   number was measured here, and the draw order is preserved exactly, so
//!   `None` runs stay byte-identical to them.
//! * `topology: Some(t)` — the geo-clustered per-link model of
//!   [`crate::topology`]: the delay is the link's deterministic base
//!   (`f(seed, sender, receiver)`) plus uniform jitter from the sender's
//!   stream, and the loss probability is per-link (`base_loss`, or
//!   `lossy_loss` on links touching the designated lossy cluster).
//!   `latency_min_us` then serves only as the sharded lookahead and must
//!   not exceed [`crate::topology::TopologyConfig::min_delay_us`];
//!   `latency_max_us` and `drop_rate` are unused.
//!
//! In both disciplines a datagram is **rejected at send time when larger
//! than `mtu` bytes** — the UDP constraint that motivates the paper's
//! index-side filtering (§V-A).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::counters::{NetCounters, ShardCounters};
use crate::node::{Ctx, Node, NodeAddr, OpId, OutMessage};
use crate::topology::TopologyConfig;

/// Simulator parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Minimum one-way datagram latency (µs) of the global-uniform delay
    /// discipline (`topology: None`). Doubles as the conservative lookahead
    /// (window length) of the sharded engine, which therefore requires it
    /// to be ≥ 1 — and, with a topology installed, to be at most the
    /// topology's minimum one-way delay.
    pub latency_min_us: u64,
    /// Maximum one-way datagram latency (µs). Unused when a topology is
    /// installed (per-link delays replace the global range).
    pub latency_max_us: u64,
    /// Independent loss probability per datagram. Unused when a topology
    /// is installed (loss becomes per-link).
    pub drop_rate: f64,
    /// Maximum datagram payload in bytes (UDP MTU budget).
    pub mtu: usize,
    /// Master seed for all simulator randomness.
    pub seed: u64,
    /// Number of event shards. `1` (the default) selects the classic
    /// serial engine, byte-identical to the pre-sharding simulator;
    /// `≥ 2` selects the windowed sharded engine (see the module docs).
    pub shards: usize,
    /// Per-link delay/loss model (`None` = the classic global-uniform
    /// model, byte-identical to every historical run). See
    /// [`crate::topology`] and the module docs for the two disciplines.
    pub topology: Option<TopologyConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        // Global-uniform discipline: 20–120 ms WAN-ish latency for every
        // link, no loss, conservative 1400-byte MTU. Install a `topology`
        // for geo-clustered per-link delays instead.
        SimConfig {
            latency_min_us: 20_000,
            latency_max_us: 120_000,
            drop_rate: 0.0,
            mtu: 1400,
            seed: 0,
            shards: 1,
            topology: None,
        }
    }
}

/// One datagram's fate on the `from → to` link: `None` = lost, otherwise
/// the one-way delay in µs. All draws come from `rng` — the master stream
/// in the serial discipline, the *sender's* stream in the sharded one.
///
/// With `topology: None` this performs exactly the classic draws in the
/// classic order (one loss draw, then a latency draw only when
/// `max > min`), keeping legacy runs byte-identical to history. With a
/// topology, the loss probability and base delay are per-link pure
/// functions of `(seed, from, to)` and only the loss draw plus an optional
/// jitter draw consume RNG state — the same count and order at every
/// shard layout.
fn link_draw(cfg: &SimConfig, rng: &mut StdRng, from: NodeAddr, to: NodeAddr) -> Option<u64> {
    match &cfg.topology {
        None => {
            if rng.gen::<f64>() < cfg.drop_rate {
                return None;
            }
            Some(if cfg.latency_max_us > cfg.latency_min_us {
                rng.gen_range(cfg.latency_min_us..=cfg.latency_max_us)
            } else {
                cfg.latency_min_us
            })
        }
        Some(t) => {
            if rng.gen::<f64>() < t.link_loss(cfg.seed, from, to) {
                return None;
            }
            let base = t.link_base_us(cfg.seed, from, to);
            Some(if t.jitter_us > 0 {
                base + rng.gen_range(0..=t.jitter_us)
            } else {
                base
            })
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver { from: NodeAddr, payload: Bytes },
    Timer { id: u64 },
}

/// A pending event. Ordered by `(at, ord_a, ord_b)`:
/// legacy engine — `ord_a` = global insertion sequence, `ord_b` = 0;
/// sharded engine — `ord_a` = origin address, `ord_b` = the origin's
/// per-node sequence (content-based, shard-count independent).
#[derive(Debug)]
struct Event {
    at: u64,
    ord_a: u64,
    ord_b: u64,
    to: NodeAddr,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.ord_a == other.ord_a && self.ord_b == other.ord_b
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.ord_a, self.ord_b).cmp(&(other.at, other.ord_a, other.ord_b))
    }
}

/// A deterministic per-node RNG stream: `splitmix64`-finalized mix of the
/// master seed and the node address, so streams are decorrelated and do not
/// depend on shard layout.
fn node_stream_seed(master: u64, addr: NodeAddr) -> u64 {
    let mut z = master ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(addr) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one send-time policy: what a send costs and when it is dropped.
/// Every callback's sends and timers go through [`SendPolicy::apply`] —
/// MTU check → removed-destination drop → link draw → event key → queue,
/// then timers — and the two disciplines differ only in what they plug
/// in: `rng` is the master stream or the sender's own, `key` mints the
/// global sequence or the sender's `(origin, origin-seq)`, and `queue` is
/// the one heap or the shard's heap/outbox.
struct SendPolicy<'a, K, Q> {
    cfg: &'a SimConfig,
    removed: &'a [bool],
    counts: &'a mut ShardCounters,
    rng: &'a mut StdRng,
    key: K,
    queue: Q,
}

impl<K: FnMut() -> (u64, u64), Q: FnMut(Event)> SendPolicy<'_, K, Q> {
    fn apply(mut self, from: NodeAddr, now: u64, sends: Vec<OutMessage>, timers: Vec<(u64, u64)>) {
        for msg in sends {
            if msg.payload.len() > self.cfg.mtu {
                self.counts.oversize_rejected += 1;
                continue;
            }
            self.counts.sent += 1;
            self.counts.bytes_sent += msg.payload.len() as u64;
            // Departed addresses never receive again: count the datagram as
            // sent-then-lost (the sender cannot know), but keep the queue
            // free of events to dead addresses.
            if self
                .removed
                .get(msg.to as usize)
                .copied()
                .unwrap_or_default()
            {
                self.counts.dropped += 1;
                continue;
            }
            let Some(latency) = link_draw(self.cfg, self.rng, from, msg.to) else {
                self.counts.dropped += 1;
                continue;
            };
            let (ord_a, ord_b) = (self.key)();
            (self.queue)(Event {
                at: now + latency,
                ord_a,
                ord_b,
                to: msg.to,
                kind: EventKind::Deliver {
                    from,
                    payload: msg.payload,
                },
            });
        }
        for (delay, id) in timers {
            let (ord_a, ord_b) = (self.key)();
            (self.queue)(Event {
                at: now + delay,
                ord_a,
                ord_b,
                to: from,
                kind: EventKind::Timer { id },
            });
        }
    }
}

/// A window completion record: `(at, origin, origin-seq, op, output)`.
/// The first three fields form the canonical merge order at barriers.
type WindowCompletion<O> = (u64, NodeAddr, u64, OpId, O);

/// Read-only view of the simulation shared by every shard during a window.
struct WindowView<'a> {
    alive: &'a [bool],
    removed: &'a [bool],
    cfg: &'a SimConfig,
    nshards: u32,
    /// Inclusive last instant at which events may fire in this window.
    bound: u64,
}

impl Clone for WindowView<'_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for WindowView<'_> {}

/// One event shard: a partition of the nodes with a local queue, local
/// per-node RNG streams and window-local effect buffers.
struct Shard<N: Node> {
    index: u32,
    nodes: Vec<Option<N>>,
    /// Per-node RNG streams (sharded discipline only; empty when legacy).
    rngs: Vec<StdRng>,
    /// Per-node monotone sequence, keying the events and completions a
    /// node originates (sharded discipline only).
    seqs: Vec<u64>,
    queue: BinaryHeap<Reverse<Event>>,
    /// Cross-shard datagrams produced during the current window, routed to
    /// their destination shards at the barrier.
    outbox: Vec<Event>,
    /// Completions reported during the current window.
    done: Vec<WindowCompletion<<N as Node>::Output>>,
    /// Engine counters accumulated locally during the current window.
    counts: ShardCounters,
    /// Events fired during the current window.
    fired: u64,
    /// Latest event time processed during the current window.
    max_at: u64,
}

impl<N: Node> Shard<N> {
    fn new(index: u32) -> Self {
        Shard {
            index,
            nodes: Vec::new(),
            rngs: Vec::new(),
            seqs: Vec::new(),
            queue: BinaryHeap::new(),
            outbox: Vec::new(),
            done: Vec::new(),
            counts: ShardCounters::default(),
            fired: 0,
            max_at: 0,
        }
    }

    /// Drains every local event with `at ≤ view.bound`, running node
    /// callbacks and buffering effects locally. Safe to run concurrently
    /// with other shards: only `self` is mutated.
    fn run_window(&mut self, view: WindowView<'_>) {
        loop {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.at <= view.bound => {}
                _ => break,
            }
            let Reverse(ev) = self.queue.pop().expect("peeked event present");
            self.fired += 1;
            self.max_at = self.max_at.max(ev.at);
            let addr = ev.to;
            if !view.alive[addr as usize] {
                if matches!(ev.kind, EventKind::Deliver { .. }) {
                    self.counts.dropped += 1;
                }
                continue;
            }
            let slot = (addr / view.nshards) as usize;
            let node = self.nodes[slot].as_mut().expect("node present");
            let fork = self.rngs[slot].gen::<u64>();
            let mut ctx = Ctx::new(ev.at, addr, fork);
            match ev.kind {
                EventKind::Deliver { from, payload } => {
                    self.counts.delivered += 1;
                    node.on_message(&mut ctx, from, payload);
                }
                EventKind::Timer { id } => {
                    self.counts.timers_fired += 1;
                    node.on_timer(&mut ctx, id);
                }
            }
            self.apply_window_effects(view, addr, ev.at, ctx);
        }
    }

    /// Applies one callback's buffered effects inside a window (or, from a
    /// quiescent context, between windows): all draws come from the
    /// *sender's* stream, events and completions are keyed by the sender's
    /// sequence, and cross-shard datagrams wait in the outbox for the
    /// barrier.
    fn apply_window_effects(
        &mut self,
        view: WindowView<'_>,
        from: NodeAddr,
        now: u64,
        ctx: Ctx<<N as Node>::Output>,
    ) {
        let slot = (from / view.nshards) as usize;
        let (sends, timers, completions) = ctx.into_effects();
        let (index, seq) = (self.index, &mut self.seqs[slot]);
        let (queue, outbox) = (&mut self.queue, &mut self.outbox);
        let mut next_seq = move || {
            *seq += 1;
            *seq - 1
        };
        SendPolicy {
            cfg: view.cfg,
            removed: view.removed,
            counts: &mut self.counts,
            rng: &mut self.rngs[slot],
            key: || (u64::from(from), next_seq()),
            queue: |ev: Event| {
                if ev.to % view.nshards == index {
                    queue.push(Reverse(ev));
                } else {
                    outbox.push(ev);
                }
            },
        }
        .apply(from, now, sends, timers);
        for (op, out) in completions {
            self.done.push((now, from, next_seq(), op, out));
        }
    }
}

/// The discrete-event simulator over nodes of type `N`.
pub struct SimNet<N: Node> {
    shards: Vec<Shard<N>>,
    nshards: u32,
    alive: Vec<bool>,
    /// Permanently departed addresses: the node state is gone and the
    /// address is never reassigned (see [`SimNet::remove`]).
    removed: Vec<bool>,
    /// Nodes ever added (addresses are dense and append-only).
    count: usize,
    clock: u64,
    /// Legacy global insertion sequence (serial discipline only).
    seq: u64,
    /// Legacy master RNG (serial discipline only).
    rng: StdRng,
    cfg: SimConfig,
    counters: NetCounters,
    completed: Vec<(NodeAddr, OpId, N::Output)>,
    events: u64,
    /// Window executor override installed by [`SimNet::enable_parallel`].
    window_exec: Option<fn(&mut Self, u64) -> u64>,
}

impl<N: Node> SimNet<N> {
    /// Creates an empty simulated network.
    ///
    /// # Panics
    /// When `cfg.shards == 0`; when `cfg.shards ≥ 2` with
    /// `latency_min_us == 0` (the sharded engine's lookahead would vanish);
    /// when an installed topology is malformed; or when a sharded run's
    /// lookahead exceeds the topology's minimum one-way delay (a datagram
    /// could then arrive inside the window that sent it).
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.shards >= 1, "shards must be >= 1");
        assert!(
            cfg.shards == 1 || cfg.latency_min_us >= 1,
            "sharded engine needs latency_min_us >= 1 (conservative lookahead)"
        );
        if let Some(t) = &cfg.topology {
            t.validate();
            assert!(
                cfg.shards == 1 || cfg.latency_min_us <= t.min_delay_us(),
                "sharded lookahead (latency_min_us = {}) exceeds the topology's \
                 minimum one-way delay ({})",
                cfg.latency_min_us,
                t.min_delay_us()
            );
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        let nshards = u32::try_from(cfg.shards).expect("shard count fits u32");
        SimNet {
            shards: (0..nshards).map(Shard::new).collect(),
            nshards,
            alive: Vec::new(),
            removed: Vec::new(),
            count: 0,
            clock: 0,
            seq: 0,
            rng,
            cfg,
            counters: NetCounters::new(),
            completed: Vec::new(),
            events: 0,
            window_exec: None,
        }
    }

    /// The shared counters (clone to keep reading after moves).
    pub fn counters(&self) -> NetCounters {
        self.counters.clone()
    }

    /// Current virtual time (µs).
    pub fn now_us(&self) -> u64 {
        self.clock
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no nodes were added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of event shards (1 = the serial engine).
    pub fn shard_count(&self) -> usize {
        self.nshards as usize
    }

    /// Total events fired since creation (datagram deliveries to live and
    /// dead nodes, plus timer expirations).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// `(shard, slot)` of an address under the round-robin partition.
    fn locate(&self, addr: NodeAddr) -> (usize, usize) {
        (
            (addr % self.nshards) as usize,
            (addr / self.nshards) as usize,
        )
    }

    /// Adds a node, invoking its `on_start`. Returns its address.
    pub fn add_node(&mut self, mut node: N) -> NodeAddr {
        let addr = self.count as NodeAddr;
        self.count += 1;
        self.alive.push(true);
        self.removed.push(false);
        let (s, slot) = self.locate(addr);
        debug_assert_eq!(slot, self.shards[s].nodes.len());
        if self.nshards == 1 {
            let mut ctx = Ctx::new(self.clock, addr, self.rng.gen());
            node.on_start(&mut ctx);
            self.shards[0].nodes.push(Some(node));
            self.apply_effects_legacy(addr, ctx);
        } else {
            let mut stream = StdRng::seed_from_u64(node_stream_seed(self.cfg.seed, addr));
            let fork = stream.gen::<u64>();
            self.shards[s].rngs.push(stream);
            self.shards[s].seqs.push(0);
            let mut ctx = Ctx::new(self.clock, addr, fork);
            node.on_start(&mut ctx);
            self.shards[s].nodes.push(Some(node));
            self.apply_effects_sharded(addr, ctx);
        }
        addr
    }

    /// Spawns a node mid-simulation: a fresh-identity join at a
    /// never-before-used address. Identical to [`SimNet::add_node`] (the
    /// address space is append-only, so reuse of a removed address is
    /// impossible by construction); provided as the churn-scenario
    /// counterpart of [`SimNet::remove`].
    pub fn spawn(&mut self, node: N) -> NodeAddr {
        self.add_node(node)
    }

    /// Permanently removes a node — a true churn *departure*, as opposed to
    /// the suspend/resume model of [`SimNet::crash`]. The node state is
    /// extracted and returned (post-mortem inspection), every queued event
    /// addressed to it — datagrams *and* timers — is scrubbed from the
    /// event queue, future sends to the address are dropped at send time,
    /// and the address is never reassigned ([`SimNet::revive`] on it
    /// panics). Returns `None` when the node was already removed.
    pub fn remove(&mut self, addr: NodeAddr) -> Option<N> {
        let i = addr as usize;
        if self.removed[i] {
            return None;
        }
        self.removed[i] = true;
        self.alive[i] = false;
        let (s, slot) = self.locate(addr);
        // Events addressed to `addr` only ever live in its own shard's
        // queue (outboxes are empty between runs), so one scrub suffices.
        self.shards[s].queue.retain(|Reverse(ev)| ev.to != addr);
        self.shards[s].nodes[slot].take()
    }

    /// Graceful departure: runs `farewell` on the node synchronously (the
    /// protocol's goodbye — parting key handoffs, `Leave` notices, ...),
    /// delivers its outgoing effects, then permanently removes the node
    /// exactly like [`SimNet::remove`]. Replies addressed to the departed
    /// node are dropped at send time, matching a real socket that closed
    /// right after its last datagram left. Returns the corpse, or `None`
    /// when the node was already removed.
    pub fn leave(
        &mut self,
        addr: NodeAddr,
        farewell: impl FnOnce(&mut N, &mut Ctx<N::Output>),
    ) -> Option<N> {
        if self.removed[addr as usize] {
            return None;
        }
        self.with_node(addr, farewell);
        self.remove(addr)
    }

    /// Marks a node dead: pending and future datagrams to it are dropped,
    /// its timers stop firing. (Simulates an abrupt crash; state is
    /// preserved for [`SimNet::revive`]. For a permanent departure use
    /// [`SimNet::remove`].)
    pub fn crash(&mut self, addr: NodeAddr) {
        assert!(
            !self.removed[addr as usize],
            "cannot crash removed node {addr}"
        );
        self.alive[addr as usize] = false;
    }

    /// Revives a crashed node (state preserved — a suspend/resume churn
    /// model; fresh-state rejoin is done by [`SimNet::spawn`]ing a new
    /// node). Panics on a removed address: departures are final and
    /// addresses are never reused.
    pub fn revive(&mut self, addr: NodeAddr) {
        assert!(
            !self.removed[addr as usize],
            "cannot revive removed node {addr}: departures are final"
        );
        self.alive[addr as usize] = true;
    }

    /// True when `addr` is alive.
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.alive[addr as usize]
    }

    /// True when `addr` was permanently removed.
    pub fn is_removed(&self, addr: NodeAddr) -> bool {
        self.removed[addr as usize]
    }

    /// Queued events (datagrams + timers) addressed to `addr` — the
    /// lifecycle invariant checked by tests: 0 from the moment a node is
    /// removed onward.
    pub fn pending_events_for(&self, addr: NodeAddr) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.queue.iter().filter(|Reverse(ev)| ev.to == addr).count()
                    + s.outbox.iter().filter(|ev| ev.to == addr).count()
            })
            .sum()
    }

    /// Immutable access to a node.
    pub fn node(&self, addr: NodeAddr) -> &N {
        let (s, slot) = self.locate(addr);
        self.shards[s].nodes[slot].as_ref().expect("node present")
    }

    /// Mutable access to a node (for test instrumentation).
    pub fn node_mut(&mut self, addr: NodeAddr) -> &mut N {
        let (s, slot) = self.locate(addr);
        self.shards[s].nodes[slot].as_mut().expect("node present")
    }

    /// Lets the caller drive a node synchronously (issue client operations):
    /// the closure receives the node and a context; effects are applied as
    /// if from a callback.
    pub fn with_node<R>(
        &mut self,
        addr: NodeAddr,
        f: impl FnOnce(&mut N, &mut Ctx<N::Output>) -> R,
    ) -> R {
        let (s, slot) = self.locate(addr);
        let fork = if self.nshards == 1 {
            self.rng.gen::<u64>()
        } else {
            self.shards[s].rngs[slot].gen::<u64>()
        };
        let mut ctx = Ctx::new(self.clock, addr, fork);
        let node = self.shards[s].nodes[slot].as_mut().expect("node present");
        let out = f(node, &mut ctx);
        if self.nshards == 1 {
            self.apply_effects_legacy(addr, ctx);
        } else {
            self.apply_effects_sharded(addr, ctx);
        }
        out
    }

    /// Drains operation completions reported since the last call.
    ///
    /// Op ids are allocated **per issuing node** — they are unique within
    /// one coordinator but collide across coordinators. Callers tracking
    /// concurrent operations issued from multiple nodes must use
    /// [`SimNet::take_completions_from`] and key by `(addr, op)`.
    pub fn take_completions(&mut self) -> Vec<(OpId, N::Output)> {
        std::mem::take(&mut self.completed)
            .into_iter()
            .map(|(_, op, out)| (op, out))
            .collect()
    }

    /// Drains operation completions with the completing node's address —
    /// the `(addr, op)` pair is globally unique, unlike the bare op id.
    pub fn take_completions_from(&mut self) -> Vec<(NodeAddr, OpId, N::Output)> {
        std::mem::take(&mut self.completed)
    }

    /// Runs until the event queue is empty or (at least) `max_events` have
    /// fired. Returns the number of events processed.
    ///
    /// The serial engine checks the budget per event; the sharded engine
    /// checks it at window barriers, so the final window may overshoot the
    /// budget. The stopping point is still deterministic and shard-count
    /// invariant (window schedules are a pure function of event times).
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0u64;
        if self.nshards == 1 {
            while n < max_events {
                if !self.step() {
                    break;
                }
                n += 1;
            }
        } else {
            while n < max_events {
                let fired = self.exec_window(u64::MAX);
                if fired == 0 {
                    break;
                }
                n += fired;
            }
        }
        n
    }

    /// Runs until virtual time reaches `deadline_us` (events at exactly the
    /// deadline still fire) or the queue empties.
    pub fn run_until(&mut self, deadline_us: u64) {
        if self.nshards == 1 {
            while let Some(Reverse(ev)) = self.shards[0].queue.peek() {
                if ev.at > deadline_us {
                    break;
                }
                self.step();
            }
        } else {
            while self.exec_window(deadline_us) > 0 {}
        }
        self.clock = self.clock.max(deadline_us);
    }

    /// Fires the next event (serial engine) or the next non-empty window,
    /// serially (sharded engine). Returns false when nothing is pending.
    pub fn step(&mut self) -> bool {
        if self.nshards > 1 {
            return self.step_window_serial(u64::MAX) > 0;
        }
        let Some(Reverse(ev)) = self.shards[0].queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.clock, "time cannot go backwards");
        self.clock = ev.at;
        self.events += 1;
        let addr = ev.to;
        if !self.alive[addr as usize] {
            if matches!(ev.kind, EventKind::Deliver { .. }) {
                self.counters.record_dropped();
            }
            return true;
        }
        let mut ctx = Ctx::new(self.clock, addr, self.rng.gen());
        // The node runs where it lives: `shards` is borrowed apart from the
        // counters, and the callback's effects are applied once it returns.
        let node = self.shards[0].nodes[addr as usize]
            .as_mut()
            .expect("node present");
        match ev.kind {
            EventKind::Deliver { from, payload } => {
                self.counters.record_delivered();
                node.on_message(&mut ctx, from, payload);
            }
            EventKind::Timer { id } => {
                self.counters.record_timer();
                node.on_timer(&mut ctx, id);
            }
        }
        self.apply_effects_legacy(addr, ctx);
        true
    }

    /// Legacy effect application: one global sequence, one master RNG, one
    /// heap. Byte-identical to the pre-sharding engine.
    fn apply_effects_legacy(&mut self, from: NodeAddr, ctx: Ctx<N::Output>) {
        let (sends, timers, completions) = ctx.into_effects();
        let mut counts = ShardCounters::default();
        let (seq, queue) = (&mut self.seq, &mut self.shards[0].queue);
        SendPolicy {
            cfg: &self.cfg,
            removed: &self.removed,
            counts: &mut counts,
            rng: &mut self.rng,
            key: || {
                *seq += 1;
                (*seq, 0)
            },
            queue: |ev| queue.push(Reverse(ev)),
        }
        .apply(from, self.clock, sends, timers);
        self.counters.merge_shard(&counts);
        self.completed
            .extend(completions.into_iter().map(|(op, out)| (from, op, out)));
    }

    /// Sharded effect application for *quiescent* contexts (`add_node`,
    /// `with_node`, `leave` — between runs, when outboxes are empty): the
    /// acting node's shard applies the effects exactly as inside a window,
    /// and the barrier routes, counts and files them.
    fn apply_effects_sharded(&mut self, from: NodeAddr, ctx: Ctx<N::Output>) {
        let (s, _) = self.locate(from);
        let view = WindowView {
            alive: &self.alive,
            removed: &self.removed,
            cfg: &self.cfg,
            nshards: self.nshards,
            bound: self.clock,
        };
        self.shards[s].apply_window_effects(view, from, self.clock, ctx);
        self.finish_window();
    }

    /// Picks the next window: the absolute-grid window containing the
    /// earliest pending event. Returns its inclusive firing bound, or
    /// `None` when nothing is pending at or before `deadline`.
    fn next_window_bound(&self, deadline: u64) -> Option<u64> {
        let lookahead = self.cfg.latency_min_us;
        let tmin = self
            .shards
            .iter()
            .filter_map(|s| s.queue.peek().map(|Reverse(ev)| ev.at))
            .min()?;
        if tmin > deadline {
            return None;
        }
        let wend = (tmin / lookahead)
            .saturating_add(1)
            .saturating_mul(lookahead);
        Some(wend.saturating_sub(1).min(deadline))
    }

    /// Runs one window on the installed executor (parallel when
    /// [`SimNet::enable_parallel`] was called, serial otherwise).
    fn exec_window(&mut self, deadline: u64) -> u64 {
        match self.window_exec {
            Some(f) => f(self, deadline),
            None => self.step_window_serial(deadline),
        }
    }

    /// Serial window executor: every shard drains its window in turn.
    /// Produces results bit-identical to the parallel executor.
    fn step_window_serial(&mut self, deadline: u64) -> u64 {
        let Some(bound) = self.next_window_bound(deadline) else {
            return 0;
        };
        {
            let shards = &mut self.shards;
            let view = WindowView {
                alive: &self.alive,
                removed: &self.removed,
                cfg: &self.cfg,
                nshards: self.nshards,
                bound,
            };
            for shard in shards.iter_mut() {
                shard.run_window(view);
            }
        }
        self.finish_window()
    }

    /// The barrier: route cross-shard datagrams, merge per-shard counters
    /// into the shared totals, merge-sort completions into the canonical
    /// `(time, origin, origin-seq)` order, and advance the clock. Returns
    /// the number of events fired in the window.
    fn finish_window(&mut self) -> u64 {
        let mut fired = 0u64;
        let mut outbound: Vec<Event> = Vec::new();
        let mut done: Vec<WindowCompletion<N::Output>> = Vec::new();
        for shard in &mut self.shards {
            fired += shard.fired;
            shard.fired = 0;
            self.clock = self.clock.max(shard.max_at);
            shard.max_at = 0;
            self.counters.merge_shard(&shard.counts);
            shard.counts = ShardCounters::default();
            outbound.append(&mut shard.outbox);
            if done.is_empty() {
                std::mem::swap(&mut done, &mut shard.done);
            } else {
                done.append(&mut shard.done);
            }
        }
        for ev in outbound {
            let to_shard = (ev.to % self.nshards) as usize;
            self.shards[to_shard].queue.push(Reverse(ev));
        }
        done.sort_unstable_by_key(|a| (a.0, a.1, a.2));
        self.completed.extend(
            done.into_iter()
                .map(|(_, addr, _, op, out)| (addr, op, out)),
        );
        self.events += fired;
        fired
    }
}

impl<N: Node + Send> SimNet<N>
where
    N::Output: Send,
{
    /// Switches the sharded engine's window executor to the
    /// [`dharma_par::global`] thread pool: each shard's window runs
    /// as one pool task. No-op on the serial engine (`shards = 1`).
    ///
    /// Results are bit-identical to serial execution — parallelism only
    /// changes wall-clock time, never outcomes (see the module docs).
    pub fn enable_parallel(&mut self) {
        if self.nshards > 1 {
            self.window_exec = Some(Self::step_window_parallel);
        }
    }

    /// Parallel window executor: one pool task per non-idle shard, then
    /// the same barrier as the serial executor.
    fn step_window_parallel(&mut self, deadline: u64) -> u64 {
        let Some(bound) = self.next_window_bound(deadline) else {
            return 0;
        };
        {
            let shards = &mut self.shards;
            let view = WindowView {
                alive: &self.alive,
                removed: &self.removed,
                cfg: &self.cfg,
                nshards: self.nshards,
                bound,
            };
            dharma_par::global().scope(|scope| {
                for shard in shards.iter_mut() {
                    let has_work = shard.queue.peek().is_some_and(|Reverse(ev)| ev.at <= bound);
                    if has_work {
                        scope.spawn(move |_| shard.run_window(view));
                    }
                }
            });
        }
        self.finish_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that echoes every datagram back and counts what it saw.
    struct Echo {
        got: Vec<(NodeAddr, Vec<u8>)>,
        timers: Vec<u64>,
        echo: bool,
    }

    impl Echo {
        fn new(echo: bool) -> Self {
            Echo {
                got: Vec::new(),
                timers: Vec::new(),
                echo,
            }
        }
    }

    impl Node for Echo {
        type Output = ();

        fn on_message(&mut self, ctx: &mut Ctx<()>, from: NodeAddr, payload: Bytes) {
            self.got.push((from, payload.to_vec()));
            if self.echo {
                ctx.send(from, payload);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<()>, id: u64) {
            self.timers.push(id);
        }
    }

    fn net(drop: f64, seed: u64) -> SimNet<Echo> {
        SimNet::new(SimConfig {
            latency_min_us: 1_000,
            latency_max_us: 5_000,
            drop_rate: drop,
            mtu: 100,
            seed,
            shards: 1,
            topology: None,
        })
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut net = net(0.0, 1);
        let a = net.add_node(Echo::new(true));
        let b = net.add_node(Echo::new(true));
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"hi")));
        // One send bounces forever between two echo nodes; bound the run.
        net.run_until_idle(10);
        assert!(net.node(b).got.iter().any(|(f, p)| *f == a && p == b"hi"));
        assert!(net.node(a).got.iter().any(|(f, p)| *f == b && p == b"hi"));
        assert!(net.counters().delivered() >= 2);
    }

    #[test]
    fn virtual_time_advances_monotonically() {
        let mut net = net(0.0, 2);
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        assert_eq!(net.now_us(), 0);
        net.with_node(a, |_, ctx| {
            ctx.send(b, Bytes::from_static(b"x"));
        });
        net.run_until_idle(10);
        let t1 = net.now_us();
        assert!((1_000..=5_000).contains(&t1), "one hop of latency: {t1}");
    }

    #[test]
    fn mtu_rejects_oversize() {
        let mut net = net(0.0, 3);
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        let big = Bytes::from(vec![0u8; 101]);
        net.with_node(a, |_, ctx| ctx.send(b, big));
        net.run_until_idle(10);
        assert!(net.node(b).got.is_empty());
        assert_eq!(net.counters().oversize_rejected(), 1);
        assert_eq!(net.counters().sent(), 0);
    }

    #[test]
    fn drops_lose_messages_deterministically() {
        let mut net = net(1.0, 4); // 100% loss
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        net.run_until_idle(10);
        assert!(net.node(b).got.is_empty());
        assert_eq!(net.counters().dropped(), 1);
        assert_eq!(net.counters().sent(), 1, "loss happens after send");
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net = net(0.0, 5);
        let a = net.add_node(Echo::new(false));
        net.with_node(a, |_, ctx| {
            ctx.set_timer(3_000, 3);
            ctx.set_timer(1_000, 1);
            ctx.set_timer(2_000, 2);
        });
        net.run_until_idle(10);
        assert_eq!(net.node(a).timers, vec![1, 2, 3]);
    }

    #[test]
    fn crash_drops_incoming_and_timers() {
        let mut net = net(0.0, 6);
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        net.with_node(b, |_, ctx| ctx.set_timer(10_000, 9));
        net.crash(b);
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        net.run_until_idle(10);
        assert!(net.node(b).got.is_empty());
        assert!(net.node(b).timers.is_empty());
        assert_eq!(net.counters().dropped(), 1);
        // Revive and verify delivery works again.
        net.revive(b);
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"y")));
        net.run_until_idle(10);
        assert_eq!(net.node(b).got.len(), 1);
    }

    #[test]
    fn remove_scrubs_queue_and_blocks_future_sends() {
        let mut net = net(0.0, 8);
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        // Queue a datagram and a timer for b, then remove it.
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        net.with_node(b, |_, ctx| ctx.set_timer(10_000, 1));
        assert_eq!(net.pending_events_for(b), 2);
        let corpse = net.remove(b).expect("first removal returns the node");
        assert!(corpse.got.is_empty() && corpse.timers.is_empty());
        assert_eq!(net.pending_events_for(b), 0, "queue scrubbed");
        assert!(net.is_removed(b) && !net.is_alive(b));
        assert!(net.remove(b).is_none(), "second removal is a no-op");
        // A later send to the departed address is dropped at send time.
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"y")));
        assert_eq!(net.pending_events_for(b), 0);
        assert_eq!(net.counters().dropped(), 1);
        net.run_until_idle(100);
    }

    #[test]
    fn leave_delivers_farewell_then_removes() {
        let mut net = net(0.0, 11);
        let a = net.add_node(Echo::new(true));
        let b = net.add_node(Echo::new(false));
        // b armed a timer; its farewell datagram must still go out while
        // the timer (and everything else addressed to b) is scrubbed.
        net.with_node(b, |_, ctx| ctx.set_timer(5_000, 1));
        let corpse = net.leave(b, |_, ctx| ctx.send(a, Bytes::from_static(b"bye")));
        assert!(corpse.is_some());
        assert!(net.is_removed(b) && !net.is_alive(b));
        assert_eq!(net.pending_events_for(b), 0, "timer scrubbed with the node");
        net.run_until_idle(10);
        assert!(net.node(a).got.iter().any(|(f, p)| *f == b && p == b"bye"));
        // a's echo reply to the corpse was dropped at send time.
        assert_eq!(net.counters().dropped(), 1);
        assert!(net.leave(b, |_, _| {}).is_none(), "second leave is a no-op");
    }

    #[test]
    fn spawn_allocates_fresh_addresses_only() {
        let mut net = net(0.0, 9);
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        net.remove(b);
        let c = net.spawn(Echo::new(true));
        assert_ne!(c, b, "removed addresses are never reused");
        assert_eq!(net.len(), 3);
        // The newcomer is reachable.
        net.with_node(a, |_, ctx| ctx.send(c, Bytes::from_static(b"hi")));
        net.run_until_idle(10);
        assert_eq!(net.node(c).got.len(), 1);
    }

    #[test]
    #[should_panic(expected = "departures are final")]
    fn revive_of_removed_node_panics() {
        let mut net = net(0.0, 10);
        let a = net.add_node(Echo::new(false));
        net.remove(a);
        net.revive(a);
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        let run = |seed: u64| {
            let mut net = net(0.3, seed);
            let a = net.add_node(Echo::new(true));
            let b = net.add_node(Echo::new(true));
            net.with_node(a, |_, ctx| {
                for _ in 0..5 {
                    ctx.send(b, Bytes::from_static(b"m"));
                }
            });
            net.run_until_idle(50);
            (
                net.now_us(),
                net.counters().delivered(),
                net.counters().dropped(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net = net(0.0, 7);
        let a = net.add_node(Echo::new(false));
        net.with_node(a, |_, ctx| {
            ctx.set_timer(1_000, 1);
            ctx.set_timer(50_000, 2);
        });
        net.run_until(2_000);
        assert_eq!(net.node(a).timers, vec![1]);
        assert_eq!(net.now_us(), 2_000);
        net.run_until(100_000);
        assert_eq!(net.node(a).timers, vec![1, 2]);
    }

    // --- sharded engine ---

    /// Full observable snapshot of an Echo scenario.
    type EchoSnapshot = (
        Vec<Vec<(NodeAddr, Vec<u8>)>>,
        Vec<Vec<u64>>,
        u64,
        u64,
        (u64, u64, u64, u64),
        u64,
    );

    /// A churn-ish Echo scenario under the sharded discipline: ring
    /// traffic, timers, a crash, a removal, budget-bounded and
    /// deadline-bounded runs. Runs under either delay discipline.
    fn sharded_scenario_with(
        shards: usize,
        parallel: bool,
        topology: Option<TopologyConfig>,
    ) -> EchoSnapshot {
        let mut net: SimNet<Echo> = SimNet::new(SimConfig {
            latency_min_us: topology.as_ref().map(|t| t.min_delay_us()).unwrap_or(1_000),
            latency_max_us: 5_000,
            drop_rate: 0.2,
            mtu: 100,
            seed: 77,
            shards,
            topology,
        });
        if parallel {
            net.enable_parallel();
        }
        let n = 12u32;
        for i in 0..n {
            net.add_node(Echo::new(i % 3 != 0));
        }
        for i in 0..n {
            net.with_node(i, |_, ctx| {
                ctx.send((i + 1) % n, Bytes::from(vec![i as u8]));
                ctx.set_timer(500 * u64::from(i % 5), u64::from(i));
            });
        }
        net.crash(3);
        net.run_until_idle(400);
        net.remove(5);
        let f = net.spawn(Echo::new(true));
        net.with_node(f, |_, ctx| ctx.send(0, Bytes::from_static(b"hi")));
        net.run_until(60_000);
        let mut logs = Vec::new();
        let mut timers = Vec::new();
        for a in 0..net.len() as u32 {
            if net.is_removed(a) {
                continue;
            }
            logs.push(net.node(a).got.clone());
            timers.push(net.node(a).timers.clone());
        }
        (
            logs,
            timers,
            net.now_us(),
            net.events_processed(),
            net.counters().snapshot(),
            net.counters().timers_fired(),
        )
    }

    /// The sharded discipline is invariant across shard counts and across
    /// serial vs parallel execution: the whole observable state matches
    /// bit for bit.
    #[test]
    fn sharded_runs_invariant_across_shard_count_and_execution() {
        let base = sharded_scenario_with(2, false, None);
        assert!(base.3 > 0, "scenario must fire events");
        for shards in [2usize, 4, 8] {
            for parallel in [false, true] {
                if shards == 2 && !parallel {
                    continue;
                }
                assert_eq!(
                    sharded_scenario_with(shards, parallel, None),
                    base,
                    "shards={shards} parallel={parallel}"
                );
            }
        }
    }

    /// The same invariance holds with a per-link topology installed: base
    /// delays are pure hash functions and the jitter/loss draws come from
    /// sender streams, so shard layout cannot leak into the outcome.
    #[test]
    fn sharded_topology_runs_invariant_across_shard_count_and_execution() {
        let topo = TopologyConfig {
            clusters: 3,
            intra_us: (1_000, 3_000),
            inter_us: (8_000, 20_000),
            jitter_us: 500,
            base_loss: 0.05,
            lossy_cluster: Some(0),
            lossy_loss: 0.3,
        };
        let base = sharded_scenario_with(2, false, Some(topo.clone()));
        assert!(base.3 > 0, "scenario must fire events");
        assert_ne!(
            base,
            sharded_scenario_with(2, false, None),
            "the topology must actually change delays/losses"
        );
        for shards in [2usize, 4, 8] {
            for parallel in [false, true] {
                if shards == 2 && !parallel {
                    continue;
                }
                assert_eq!(
                    sharded_scenario_with(shards, parallel, Some(topo.clone())),
                    base,
                    "shards={shards} parallel={parallel}"
                );
            }
        }
    }

    /// Jitter-free, loss-free topology links deliver at exactly the
    /// deterministic base delay of the pair.
    #[test]
    fn topology_delivery_times_match_link_base() {
        let topo = TopologyConfig {
            clusters: 2,
            intra_us: (2_000, 4_000),
            inter_us: (10_000, 30_000),
            jitter_us: 0,
            base_loss: 0.0,
            lossy_cluster: None,
            lossy_loss: 0.0,
        };
        let seed = 21;
        let mut net: SimNet<Echo> = SimNet::new(SimConfig {
            latency_min_us: topo.min_delay_us(),
            latency_max_us: 0,
            drop_rate: 0.0,
            mtu: 100,
            seed,
            shards: 1,
            topology: Some(topo.clone()),
        });
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        net.run_until_idle(10);
        assert_eq!(net.node(b).got.len(), 1);
        assert_eq!(net.now_us(), topo.link_base_us(seed, a, b));
    }

    #[test]
    #[should_panic(expected = "exceeds the topology's")]
    fn sharded_topology_rejects_oversized_lookahead() {
        let topo = TopologyConfig {
            intra_us: (2_000, 8_000),
            inter_us: (20_000, 60_000),
            ..TopologyConfig::default()
        };
        let _net: SimNet<Echo> = SimNet::new(SimConfig {
            latency_min_us: 5_000, // > min_delay_us() = 2_000
            latency_max_us: 0,
            drop_rate: 0.0,
            mtu: 100,
            seed: 0,
            shards: 2,
            topology: Some(topo),
        });
    }

    /// A node that completes one op per received datagram; exercises the
    /// barrier's completion merge.
    struct Completer;

    impl Node for Completer {
        type Output = u64;

        fn on_message(&mut self, ctx: &mut Ctx<u64>, _from: NodeAddr, payload: Bytes) {
            ctx.complete(u64::from(payload[0]), ctx.now_us);
        }
    }

    #[test]
    fn sharded_completions_merge_in_canonical_order() {
        let run = |shards: usize, parallel: bool| {
            let mut net: SimNet<Completer> = SimNet::new(SimConfig {
                latency_min_us: 2_000,
                latency_max_us: 2_000,
                drop_rate: 0.0,
                mtu: 100,
                seed: 5,
                shards,
                topology: None,
            });
            if parallel {
                net.enable_parallel();
            }
            for _ in 0..6 {
                net.add_node(Completer);
            }
            for i in 0..6u32 {
                net.with_node(i, |_, ctx| {
                    ctx.send((i + 2) % 6, Bytes::from(vec![i as u8]));
                    ctx.send((i + 3) % 6, Bytes::from(vec![i as u8 + 100]));
                });
            }
            net.run_until_idle(1_000);
            net.take_completions()
        };
        let base = run(2, false);
        assert_eq!(base.len(), 12);
        for (shards, parallel) in [(2, true), (4, false), (4, true), (8, true)] {
            assert_eq!(run(shards, parallel), base, "shards={shards}");
        }
    }

    #[test]
    fn sharded_lifecycle_matches_serial_semantics() {
        // Dead-node drops, removals and pending-event scrubbing behave the
        // same under sharding (values differ from the legacy engine only
        // through the different random streams, not through semantics).
        let mut net: SimNet<Echo> = SimNet::new(SimConfig {
            latency_min_us: 1_000,
            latency_max_us: 1_000,
            drop_rate: 0.0,
            mtu: 100,
            seed: 3,
            shards: 4,
            topology: None,
        });
        let a = net.add_node(Echo::new(false));
        let b = net.add_node(Echo::new(false));
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        net.with_node(b, |_, ctx| ctx.set_timer(10_000, 1));
        assert_eq!(net.pending_events_for(b), 2);
        assert!(net.remove(b).is_some());
        assert_eq!(net.pending_events_for(b), 0, "queue scrubbed");
        net.with_node(a, |_, ctx| ctx.send(b, Bytes::from_static(b"y")));
        assert_eq!(net.counters().dropped(), 1, "send to removed dropped");
        net.crash(a);
        net.run_until_idle(100);
        assert!(net.node(a).got.is_empty());
    }

    #[test]
    #[should_panic(expected = "conservative lookahead")]
    fn sharded_engine_rejects_zero_lookahead() {
        let _net: SimNet<Echo> = SimNet::new(SimConfig {
            latency_min_us: 0,
            latency_max_us: 5_000,
            drop_rate: 0.0,
            mtu: 100,
            seed: 0,
            shards: 2,
            topology: None,
        });
    }
}
