//! Property tests for the discrete-event simulator: determinism, causality
//! and conservation under arbitrary traffic patterns.

use bytes::Bytes;
use dharma_net::{Ctx, Node, NodeAddr, SimConfig, SimNet, TopologyConfig};
use proptest::prelude::*;

/// A scripted node: on start it sends a batch of messages; every received
/// message is recorded with its arrival time.
struct Scripted {
    script: Vec<(NodeAddr, u8)>,
    received: Vec<(u64, NodeAddr, u8)>,
}

impl Node for Scripted {
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<()>) {
        for &(to, tag) in &self.script {
            ctx.send(to, Bytes::from(vec![tag]));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<()>, from: NodeAddr, payload: Bytes) {
        self.received.push((ctx.now_us, from, payload[0]));
    }
}

type RunResult = (Vec<Vec<(u64, NodeAddr, u8)>>, u64, (u64, u64, u64, u64));

fn run(scripts: &[Vec<(NodeAddr, u8)>], seed: u64, drop_rate: f64) -> RunResult {
    let mut net: SimNet<Scripted> = SimNet::new(SimConfig {
        latency_min_us: 500,
        latency_max_us: 7_000,
        drop_rate,
        mtu: 1_400,
        seed,
        shards: 1,
        topology: None,
    });
    for script in scripts {
        net.add_node(Scripted {
            script: script.clone(),
            received: Vec::new(),
        });
    }
    net.run_until_idle(100_000);
    let logs = (0..scripts.len() as u32)
        .map(|a| net.node(a).received.clone())
        .collect();
    (logs, net.now_us(), net.counters().snapshot())
}

fn arb_scripts() -> impl Strategy<Value = Vec<Vec<(NodeAddr, u8)>>> {
    // 2..6 nodes, each sending 0..8 messages to valid targets.
    (2usize..6).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::collection::vec((0u32..n as u32, any::<u8>()), 0..8),
            n..=n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same seed reproduces the identical event history; a different
    /// seed (with loss) may diverge but never breaks the run.
    #[test]
    fn simulation_is_deterministic(scripts in arb_scripts(), seed in any::<u64>()) {
        let a = run(&scripts, seed, 0.1);
        let b = run(&scripts, seed, 0.1);
        prop_assert_eq!(a.0, b.0, "per-node logs must match");
        prop_assert_eq!(a.1, b.1, "final clocks must match");
        prop_assert_eq!(a.2, b.2, "counters must match");
    }

    /// Message conservation: sent == delivered + dropped, and without loss
    /// every datagram arrives exactly once.
    #[test]
    fn conservation_of_messages(scripts in arb_scripts(), seed in any::<u64>()) {
        let (logs, _, (sent, delivered, dropped, _)) = run(&scripts, seed, 0.0);
        prop_assert_eq!(dropped, 0);
        prop_assert_eq!(sent, delivered);
        let total_received: usize = logs.iter().map(Vec::len).sum();
        prop_assert_eq!(total_received as u64, delivered);
        let total_sent: usize = scripts.iter().map(Vec::len).sum();
        prop_assert_eq!(sent, total_sent as u64);
    }

    /// Causality: every delivery timestamp respects the configured latency
    /// bounds (sends all happen at t = 0 here).
    #[test]
    fn deliveries_respect_latency_bounds(scripts in arb_scripts(), seed in any::<u64>()) {
        let (logs, _, _) = run(&scripts, seed, 0.0);
        for log in &logs {
            for &(at, _, _) in log {
                prop_assert!((500..=7_000).contains(&at), "arrival at {}", at);
            }
        }
    }

    /// With total loss nothing is delivered, but the run still terminates.
    #[test]
    fn total_loss_terminates(scripts in arb_scripts(), seed in any::<u64>()) {
        let (logs, _, (sent, delivered, dropped, _)) = run(&scripts, seed, 1.0);
        prop_assert_eq!(delivered, 0);
        prop_assert_eq!(dropped, sent);
        prop_assert!(logs.iter().all(Vec::is_empty));
    }
}

/// A chatty node for lifecycle tests: periodically messages a peer and
/// re-arms a timer, so removed nodes always have queued events to scrub.
struct Chatty {
    peer: NodeAddr,
}

impl Node for Chatty {
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<()>) {
        ctx.send(self.peer, Bytes::from_static(b"hi"));
        ctx.set_timer(1_000, 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<()>, from: NodeAddr, _payload: Bytes) {
        ctx.send(from, Bytes::from_static(b"re"));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<()>, id: u64) {
        ctx.send(self.peer, Bytes::from_static(b"tick"));
        ctx.set_timer(1_000, id);
    }
}

/// One lifecycle action of the generated scenario.
#[derive(Clone, Debug)]
enum LifecycleOp {
    /// Fire up to this many simulator events.
    Step(u8),
    /// Remove the live node at this (modular) position.
    Remove(u8),
    /// Spawn a fresh node chatting with the live node at this position.
    Spawn(u8),
}

fn arb_lifecycle() -> impl Strategy<Value = Vec<LifecycleOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u8..32).prop_map(LifecycleOp::Step),
            any::<u8>().prop_map(LifecycleOp::Remove),
            any::<u8>().prop_map(LifecycleOp::Spawn),
        ],
        1..40,
    )
}

fn run_lifecycle(ops: &[LifecycleOp], seed: u64) -> (u64, (u64, u64, u64, u64), Vec<NodeAddr>) {
    let mut net: SimNet<Chatty> = SimNet::new(SimConfig {
        latency_min_us: 500,
        latency_max_us: 7_000,
        drop_rate: 0.0,
        mtu: 1_400,
        seed,
        shards: 1,
        topology: None,
    });
    let mut live: Vec<NodeAddr> = Vec::new();
    let mut removed: Vec<NodeAddr> = Vec::new();
    for i in 0..4u32 {
        live.push(net.add_node(Chatty { peer: i ^ 1 }));
    }
    for op in ops {
        match op {
            LifecycleOp::Step(n) => {
                net.run_until_idle(u64::from(*n));
            }
            LifecycleOp::Remove(pos) => {
                if live.len() > 1 {
                    let addr = live.remove(*pos as usize % live.len());
                    assert!(net.remove(addr).is_some());
                    removed.push(addr);
                }
            }
            LifecycleOp::Spawn(pos) => {
                let peer = live[*pos as usize % live.len()];
                let addr = net.spawn(Chatty { peer });
                assert!(!removed.contains(&addr), "addresses are never reused");
                live.push(addr);
            }
        }
        // The lifecycle invariant: from the moment of removal onward, no
        // event — datagram or timer — is ever queued for a dead address.
        for &gone in &removed {
            assert_eq!(
                net.pending_events_for(gone),
                0,
                "events leaked to removed node {gone}"
            );
            assert!(net.is_removed(gone) && !net.is_alive(gone));
        }
    }
    net.run_until_idle(2_000);
    for &gone in &removed {
        assert_eq!(net.pending_events_for(gone), 0);
    }
    (net.now_us(), net.counters().snapshot(), removed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `remove`/`spawn` never leak events or timers to dead addresses, and
    /// removed addresses are never reassigned, for arbitrary interleavings
    /// of stepping, removal and fresh joins.
    #[test]
    fn lifecycle_never_leaks_events_to_the_dead(
        ops in arb_lifecycle(),
        seed in any::<u64>(),
    ) {
        run_lifecycle(&ops, seed);
    }

    /// Churned runs stay deterministic: the same seed and lifecycle script
    /// reproduce the identical clock, counters and removal set.
    #[test]
    fn lifecycle_is_deterministic(ops in arb_lifecycle(), seed in any::<u64>()) {
        let a = run_lifecycle(&ops, seed);
        let b = run_lifecycle(&ops, seed);
        prop_assert_eq!(a, b);
    }
}

/// A scripted echo/completer node for the sharded-equivalence property:
/// sends a start batch, acknowledges every datagram below a bounce budget,
/// re-arms one periodic timer, and completes one op per payload seen.
struct Mixed {
    script: Vec<(NodeAddr, u8)>,
    bounces: u8,
    received: Vec<(u64, NodeAddr, u8)>,
    timers: Vec<(u64, u64)>,
}

impl Node for Mixed {
    type Output = (u64, u8);

    fn on_start(&mut self, ctx: &mut Ctx<(u64, u8)>) {
        for &(to, tag) in &self.script {
            ctx.send(to, Bytes::from(vec![tag, 0]));
        }
        ctx.set_timer(1_500, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<(u64, u8)>, from: NodeAddr, payload: Bytes) {
        let (tag, hops) = (payload[0], payload[1]);
        self.received.push((ctx.now_us, from, tag));
        ctx.complete(u64::from(tag), (ctx.now_us, hops));
        if hops < self.bounces {
            ctx.send(from, Bytes::from(vec![tag, hops + 1]));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<(u64, u8)>, id: u64) {
        self.timers.push((ctx.now_us, id));
        if id < 3 {
            // A few timer rounds, each poking the next node round-robin.
            ctx.send(
                (ctx.self_addr + 1) % 8,
                Bytes::from(vec![200 + id as u8, 0]),
            );
            ctx.set_timer(1_500, id + 1);
        }
    }
}

/// One scenario action interleaved with sharded runs.
#[derive(Clone, Debug)]
enum ShardOp {
    /// Run for this many µs of virtual time.
    Run(u16),
    /// Crash the node at this (modular) position.
    Crash(u8),
    /// Revive a crashed node again.
    Revive(u8),
    /// Permanently remove the node at this (modular) position.
    Remove(u8),
    /// Spawn a fresh node scripted to poke this position.
    Spawn(u8),
}

fn arb_shard_ops() -> impl Strategy<Value = Vec<ShardOp>> {
    proptest::collection::vec(
        prop_oneof![
            (500u16..20_000).prop_map(ShardOp::Run),
            any::<u8>().prop_map(ShardOp::Crash),
            any::<u8>().prop_map(ShardOp::Revive),
            any::<u8>().prop_map(ShardOp::Remove),
            any::<u8>().prop_map(ShardOp::Spawn),
        ],
        1..24,
    )
}

/// A randomized geo-clustered topology: 1–4 clusters, short intra and
/// longer inter delay ranges, optional jitter, loss and a lossy cluster.
fn arb_topology() -> impl Strategy<Value = TopologyConfig> {
    (
        (1u32..=4, 500u64..2_000, 1u64..1_500),
        (3_000u64..8_000, 1u64..4_000, 0u64..=1_200),
        (0usize..3, proptest::option::of(0u32..4), 0usize..2),
    )
        .prop_map(
            |(
                (clusters, intra_lo, intra_w),
                (inter_lo, inter_w, jitter),
                (loss_ix, lossy, lossy_ix),
            )| {
                TopologyConfig {
                    clusters,
                    intra_us: (intra_lo, intra_lo + intra_w),
                    inter_us: (inter_lo, inter_lo + inter_w),
                    jitter_us: jitter,
                    base_loss: [0.0, 0.02, 0.2][loss_ix],
                    lossy_cluster: lossy.map(|c| c % clusters),
                    lossy_loss: [0.1, 0.35][lossy_ix],
                }
            },
        )
}

/// Everything observable about a sharded run: per-node logs and timers,
/// the clock, event count, completions and counters.
type ShardSnapshot = (
    Vec<(NodeAddr, Vec<(u64, NodeAddr, u8)>, Vec<(u64, u64)>)>,
    u64,
    u64,
    Vec<(u64, (u64, u8))>,
    (u64, u64, u64, u64),
    u64,
);

fn run_sharded(
    scripts: &[Vec<(NodeAddr, u8)>],
    ops: &[ShardOp],
    seed: u64,
    drop_rate: f64,
    shards: usize,
    parallel: bool,
    topology: Option<TopologyConfig>,
) -> ShardSnapshot {
    let mut net: SimNet<Mixed> = SimNet::new(SimConfig {
        latency_min_us: topology.as_ref().map(|t| t.min_delay_us()).unwrap_or(800),
        latency_max_us: 6_000,
        drop_rate,
        mtu: 1_400,
        seed,
        shards,
        topology,
    });
    if parallel {
        net.enable_parallel();
    }
    for script in scripts {
        net.add_node(Mixed {
            script: script.clone(),
            bounces: 2,
            received: Vec::new(),
            timers: Vec::new(),
        });
    }
    let mut completions = Vec::new();
    let mut crashed: Vec<NodeAddr> = Vec::new();
    let mut live: Vec<NodeAddr> = (0..scripts.len() as NodeAddr).collect();
    let mut deadline = 0u64;
    for op in ops {
        match op {
            ShardOp::Run(dt) => {
                deadline += u64::from(*dt);
                net.run_until(deadline);
            }
            ShardOp::Crash(pos) => {
                if !live.is_empty() {
                    let addr = live[*pos as usize % live.len()];
                    if net.is_alive(addr) {
                        net.crash(addr);
                        crashed.push(addr);
                    }
                }
            }
            ShardOp::Revive(pos) => {
                if !crashed.is_empty() {
                    let addr = crashed.remove(*pos as usize % crashed.len());
                    net.revive(addr);
                }
            }
            ShardOp::Remove(pos) => {
                if live.len() > 1 {
                    let addr = live.remove(*pos as usize % live.len());
                    crashed.retain(|&a| a != addr);
                    assert!(net.remove(addr).is_some());
                    assert_eq!(net.pending_events_for(addr), 0);
                }
            }
            ShardOp::Spawn(pos) => {
                let target = live[*pos as usize % live.len()];
                let addr = net.spawn(Mixed {
                    script: vec![(target, 250)],
                    bounces: 2,
                    received: Vec::new(),
                    timers: Vec::new(),
                });
                live.push(addr);
            }
        }
        completions.extend(net.take_completions());
    }
    net.run_until(deadline + 60_000);
    completions.extend(net.take_completions());
    let mut nodes = Vec::new();
    for addr in 0..net.len() as NodeAddr {
        if net.is_removed(addr) {
            continue;
        }
        let n = net.node(addr);
        nodes.push((addr, n.received.clone(), n.timers.clone()));
    }
    (
        nodes,
        net.now_us(),
        net.events_processed(),
        completions,
        net.counters().snapshot(),
        net.counters().timers_fired(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite equivalence property: for randomized overlays with
    /// churn (crash/revive/remove/spawn interleaved with timed runs), the
    /// sharded engine at 2, 4 and 8 shards — executed serially *and* on
    /// the thread pool — produces bit-identical counters,
    /// completions and final node state.
    #[test]
    fn sharded_engine_equivalent_across_shards_and_threads(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u32..8, any::<u8>()), 0..6),
            8..=8,
        ),
        ops in arb_shard_ops(),
        seed in any::<u64>(),
        drop_rate in prop_oneof![Just(0.0), Just(0.15)],
    ) {
        // Serial execution of the 2-shard engine is the reference.
        let base = run_sharded(&scripts, &ops, seed, drop_rate, 2, false, None);
        for shards in [2usize, 4, 8] {
            for parallel in [false, true] {
                if shards == 2 && !parallel {
                    continue;
                }
                let got = run_sharded(&scripts, &ops, seed, drop_rate, shards, parallel, None);
                prop_assert_eq!(
                    &got, &base,
                    "shards={} parallel={} diverged", shards, parallel
                );
            }
        }
    }

    /// The same equivalence property under randomized geo-clustered
    /// topologies: per-link delays and losses keep the sharded engine
    /// bit-identical across shard counts and execution modes.
    #[test]
    fn sharded_engine_equivalent_under_random_topologies(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u32..8, any::<u8>()), 0..6),
            8..=8,
        ),
        ops in arb_shard_ops(),
        seed in any::<u64>(),
        topology in arb_topology(),
    ) {
        let base = run_sharded(&scripts, &ops, seed, 0.0, 2, false, Some(topology.clone()));
        for shards in [2usize, 4, 8] {
            for parallel in [false, true] {
                if shards == 2 && !parallel {
                    continue;
                }
                let got =
                    run_sharded(&scripts, &ops, seed, 0.0, shards, parallel, Some(topology.clone()));
                prop_assert_eq!(
                    &got, &base,
                    "topology run shards={} parallel={} diverged", shards, parallel
                );
            }
        }
    }
}
