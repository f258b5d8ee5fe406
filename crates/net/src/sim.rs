//! The deterministic discrete-event network simulator.
//!
//! A [`SimNet`] owns a set of [`Node`] state machines, a virtual clock in
//! microseconds, one priority queue of pending events and one master RNG.
//! Events are ordered by `(time, insertion sequence)`, so simultaneous
//! events fire in insertion order, and every random draw (latency jitter,
//! loss, per-callback fork seeds) comes from the single seeded stream in
//! event order. A run is therefore a pure function of the seed and of the
//! calls made on the [`SimNet`].
//!
//! There is **one link model**, the per-link [`TopologyConfig`] of
//! [`crate::topology`]: a datagram's delay is its link's deterministic
//! base (`f(seed, sender, receiver)`) plus uniform jitter from the master
//! stream, and it is lost with its link's probability. `topology: None`
//! (the default) is shorthand for [`TopologyConfig::uniform`] over
//! `latency_min_us`, `latency_max_us` and `drop_rate`: one cluster whose
//! every link has base delay `latency_min_us`, jitter up to
//! `latency_max_us` and loss `drop_rate`. It makes the draws a uniform
//! `latency_min_us ..= latency_max_us` range makes, in the same order (one
//! loss draw, then a delay draw only when `max > min`), so every number
//! measured on a uniform range reproduces byte for byte.
//!
//! A datagram is **rejected at send time when larger than `mtu` bytes** —
//! the UDP constraint that motivates the paper's index-side filtering
//! (§V-A).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::counters::{Counter, NetCounters};
use crate::node::{Ctx, Node, NodeAddr, OpId};
use crate::topology::TopologyConfig;

/// Simulator parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Minimum one-way datagram latency (µs) when no topology is
    /// installed: the base delay of every link of the one-cluster model.
    pub latency_min_us: u64,
    /// Maximum one-way datagram latency (µs) when no topology is
    /// installed: base plus the largest jitter draw.
    pub latency_max_us: u64,
    /// Loss probability per datagram when no topology is installed.
    pub drop_rate: f64,
    /// Maximum datagram payload in bytes (UDP MTU budget).
    pub mtu: usize,
    /// Master seed for all simulator randomness.
    pub seed: u64,
    /// Must be 1: there is one event engine. The field exists only because
    /// `dharma-bench/src/overlay.rs` names it in an exhaustive struct
    /// literal; it goes once ROADMAP item 4 moves those literals behind
    /// builders. [`SimNet::new`] panics on any other value.
    pub shards: usize,
    /// Per-link delay/loss model. `None` is shorthand for
    /// [`TopologyConfig::uniform`] over the three fields above; see the
    /// module docs.
    pub topology: Option<TopologyConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        // 20–120 ms WAN-ish latency on every link, no loss, conservative
        // 1400-byte MTU. Install a `topology` for geo-clustered per-link
        // delays instead.
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
/// the one-way delay in µs. The link's loss probability and base delay are
/// pure functions of `(seed, from, to)`; only the loss draw and a jitter
/// draw (when `jitter_us > 0`) consume the master stream `rng`.
fn link_draw(
    t: &TopologyConfig,
    seed: u64,
    rng: &mut StdRng,
    from: NodeAddr,
    to: NodeAddr,
) -> Option<u64> {
    if rng.gen::<f64>() < t.link_loss(seed, from, to) {
        return None;
    }
    let base = t.link_base_us(seed, from, to);
    Some(if t.jitter_us > 0 {
        base + rng.gen_range(0..=t.jitter_us)
    } else {
        base
    })
}

#[derive(Debug)]
enum EventKind {
    Deliver { from: NodeAddr, payload: Bytes },
    Timer { id: u64 },
}

/// A pending event, ordered by `(at, seq)`: `seq` is the global insertion
/// sequence, so the order is total.
#[derive(Debug)]
struct Event {
    at: u64,
    seq: u64,
    to: NodeAddr,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
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
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event simulator over nodes of type `N`.
pub struct SimNet<N: Node> {
    /// Node state by address; `None` once [`SimNet::remove`]d. Addresses
    /// are dense and append-only.
    nodes: Vec<Option<N>>,
    alive: Vec<bool>,
    /// Permanently departed addresses: the node state is gone and the
    /// address is never reassigned (see [`SimNet::remove`]).
    removed: Vec<bool>,
    queue: BinaryHeap<Reverse<Event>>,
    clock: u64,
    /// Global insertion sequence: the tie-break of simultaneous events.
    seq: u64,
    /// The master RNG every draw comes from.
    rng: StdRng,
    cfg: SimConfig,
    /// The link model: `cfg.topology`, or its uniform shorthand.
    links: TopologyConfig,
    counters: NetCounters,
    completed: Vec<(NodeAddr, OpId, N::Output)>,
    events: u64,
}

impl<N: Node> SimNet<N> {
    /// Creates an empty simulated network.
    ///
    /// # Panics
    /// When `cfg.shards != 1`, or when the link model is malformed (see
    /// [`TopologyConfig::validate`]; a uniform `drop_rate` outside
    /// `[0, 1]`, NaN included, is rejected like a topology's loss).
    pub fn new(cfg: SimConfig) -> Self {
        assert!(
            cfg.shards == 1,
            "SimConfig::shards must be 1 (got {}): there is one event engine, and the \
             field stays only until ROADMAP item 4 unfreezes the benchmark's literals",
            cfg.shards
        );
        let links = cfg.topology.clone().unwrap_or_else(|| {
            TopologyConfig::uniform(cfg.latency_min_us, cfg.latency_max_us, cfg.drop_rate)
        });
        links.validate();
        SimNet {
            nodes: Vec::new(),
            alive: Vec::new(),
            removed: Vec::new(),
            queue: BinaryHeap::new(),
            clock: 0,
            seq: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            links,
            counters: NetCounters::new(),
            completed: Vec::new(),
            events: 0,
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
        self.nodes.len()
    }

    /// True when no nodes were added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total events fired since creation (datagram deliveries to live and
    /// dead nodes, plus timer expirations).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Adds a node, invoking its `on_start`. Returns its address.
    pub fn add_node(&mut self, mut node: N) -> NodeAddr {
        let addr = self.nodes.len() as NodeAddr;
        self.alive.push(true);
        self.removed.push(false);
        let mut ctx = Ctx::new(self.clock, addr, self.rng.gen());
        node.on_start(&mut ctx);
        self.nodes.push(Some(node));
        self.apply_effects(addr, ctx);
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
        self.queue.retain(|Reverse(ev)| ev.to != addr);
        self.nodes[i].take()
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
        self.queue
            .iter()
            .filter(|Reverse(ev)| ev.to == addr)
            .count()
    }

    /// Immutable access to a node.
    pub fn node(&self, addr: NodeAddr) -> &N {
        self.nodes[addr as usize].as_ref().expect("node present")
    }

    /// Mutable access to a node (for test instrumentation).
    pub fn node_mut(&mut self, addr: NodeAddr) -> &mut N {
        self.nodes[addr as usize].as_mut().expect("node present")
    }

    /// Lets the caller drive a node synchronously (issue client operations):
    /// the closure receives the node and a context; effects are applied as
    /// if from a callback.
    pub fn with_node<R>(
        &mut self,
        addr: NodeAddr,
        f: impl FnOnce(&mut N, &mut Ctx<N::Output>) -> R,
    ) -> R {
        let mut ctx = Ctx::new(self.clock, addr, self.rng.gen());
        let node = self.nodes[addr as usize].as_mut().expect("node present");
        let out = f(node, &mut ctx);
        self.apply_effects(addr, ctx);
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

    /// Runs until the event queue is empty or `max_events` have fired.
    /// Returns the number of events processed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0u64;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Runs until virtual time reaches `deadline_us` (events at exactly the
    /// deadline still fire) or the queue empties.
    pub fn run_until(&mut self, deadline_us: u64) {
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at > deadline_us {
                break;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline_us);
    }

    /// Fires the next event. Returns false when nothing is pending.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.clock, "time cannot go backwards");
        self.clock = ev.at;
        self.events += 1;
        let addr = ev.to;
        if !self.alive[addr as usize] {
            if matches!(ev.kind, EventKind::Deliver { .. }) {
                self.counters.add(Counter::Dropped, 1);
            }
            return true;
        }
        let mut ctx = Ctx::new(self.clock, addr, self.rng.gen());
        let node = self.nodes[addr as usize].as_mut().expect("node present");
        match ev.kind {
            EventKind::Deliver { from, payload } => {
                self.counters.add(Counter::Delivered, 1);
                node.on_message(&mut ctx, from, payload);
            }
            EventKind::Timer { id } => {
                self.counters.add(Counter::TimersFired, 1);
                node.on_timer(&mut ctx, id);
            }
        }
        self.apply_effects(addr, ctx);
        true
    }

    /// Applies one callback's effects. Each send goes MTU check →
    /// removed-destination drop → link draw → queue; timers follow, then
    /// completions are filed. Every queued event takes the next insertion
    /// sequence.
    fn apply_effects(&mut self, from: NodeAddr, ctx: Ctx<N::Output>) {
        let (sends, timers, completions) = ctx.into_effects();
        for msg in sends {
            if msg.payload.len() > self.cfg.mtu {
                self.counters.add(Counter::OversizeRejected, 1);
                continue;
            }
            self.counters.add(Counter::Sent, 1);
            self.counters
                .add(Counter::BytesSent, msg.payload.len() as u64);
            // Departed addresses never receive again: count the datagram as
            // sent-then-lost (the sender cannot know), but keep the queue
            // free of events to dead addresses.
            if self
                .removed
                .get(msg.to as usize)
                .copied()
                .unwrap_or_default()
            {
                self.counters.add(Counter::Dropped, 1);
                continue;
            }
            let Some(latency) = link_draw(&self.links, self.cfg.seed, &mut self.rng, from, msg.to)
            else {
                self.counters.add(Counter::Dropped, 1);
                continue;
            };
            let kind = EventKind::Deliver {
                from,
                payload: msg.payload,
            };
            self.enqueue(self.clock + latency, msg.to, kind);
        }
        for (delay, id) in timers {
            self.enqueue(self.clock + delay, from, EventKind::Timer { id });
        }
        self.completed
            .extend(completions.into_iter().map(|(op, out)| (from, op, out)));
    }

    fn enqueue(&mut self, at: u64, to: NodeAddr, kind: EventKind) {
        self.seq += 1;
        let seq = self.seq;
        self.queue.push(Reverse(Event { at, seq, to, kind }));
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

    /// A uniform loss rate is checked like a topology's: 1.5 used to drop
    /// everything and NaN nothing, silently.
    #[test]
    #[should_panic(expected = "loss probabilities must lie in [0, 1]")]
    fn uniform_drop_rate_above_one_is_rejected() {
        net(1.5, 12);
    }

    #[test]
    #[should_panic(expected = "loss probabilities must lie in [0, 1]")]
    fn uniform_nan_drop_rate_is_rejected() {
        net(f64::NAN, 13);
    }

    #[test]
    #[should_panic(expected = "ROADMAP item 4")]
    fn shards_other_than_one_are_rejected() {
        let _net: SimNet<Echo> = SimNet::new(SimConfig {
            shards: 2,
            ..SimConfig::default()
        });
    }
}
