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

fn run(
    scripts: &[Vec<(NodeAddr, u8)>],
    seed: u64,
    drop_rate: f64,
    topology: Option<TopologyConfig>,
) -> RunResult {
    let mut net: SimNet<Scripted> = SimNet::new(SimConfig {
        latency_min_us: 500,
        latency_max_us: 7_000,
        drop_rate,
        mtu: 1_400,
        seed,
        shards: 1,
        topology,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same seed reproduces the identical event history; a different
    /// seed (with loss) may diverge but never breaks the run.
    #[test]
    fn simulation_is_deterministic(scripts in arb_scripts(), seed in any::<u64>()) {
        let a = run(&scripts, seed, 0.1, None);
        let b = run(&scripts, seed, 0.1, None);
        prop_assert_eq!(a.0, b.0, "per-node logs must match");
        prop_assert_eq!(a.1, b.1, "final clocks must match");
        prop_assert_eq!(a.2, b.2, "counters must match");
    }

    /// Message conservation: sent == delivered + dropped, and without loss
    /// every datagram arrives exactly once.
    #[test]
    fn conservation_of_messages(scripts in arb_scripts(), seed in any::<u64>()) {
        let (logs, _, (sent, delivered, dropped, _)) = run(&scripts, seed, 0.0, None);
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
        let (logs, _, _) = run(&scripts, seed, 0.0, None);
        for log in &logs {
            for &(at, _, _) in log {
                prop_assert!((500..=7_000).contains(&at), "arrival at {}", at);
            }
        }
    }

    /// With total loss nothing is delivered, but the run still terminates.
    #[test]
    fn total_loss_terminates(scripts in arb_scripts(), seed in any::<u64>()) {
        let (logs, _, (sent, delivered, dropped, _)) = run(&scripts, seed, 1.0, None);
        prop_assert_eq!(delivered, 0);
        prop_assert_eq!(dropped, sent);
        prop_assert!(logs.iter().all(Vec::is_empty));
    }

    /// `topology: None` is shorthand for the one-cluster model, written
    /// out here as a literal: base delay = `latency_min_us`, jitter up to
    /// `latency_max_us`, loss = `drop_rate`. Both make the same draws, so
    /// every arrival, the final clock and the counters agree.
    #[test]
    fn uniform_delay_is_the_one_cluster_topology(
        scripts in arb_scripts(),
        seed in any::<u64>(),
        loss_ix in 0usize..3,
    ) {
        let loss = [0.0, 0.1, 0.5][loss_ix];
        let one_cluster = TopologyConfig {
            clusters: 1,
            intra_us: (500, 500),
            inter_us: (500, 500),
            jitter_us: 6_500,
            base_loss: loss,
            lossy_cluster: None,
            lossy_loss: 0.0,
        };
        prop_assert_eq!(
            run(&scripts, seed, loss, None),
            run(&scripts, seed, loss, Some(one_cluster))
        );
    }

    /// Under a random per-link topology the same seed still reproduces the
    /// identical event history.
    #[test]
    fn topology_simulation_is_deterministic(
        scripts in arb_scripts(),
        seed in any::<u64>(),
        topology in arb_topology(),
    ) {
        let a = run(&scripts, seed, 0.0, Some(topology.clone()));
        let b = run(&scripts, seed, 0.0, Some(topology));
        prop_assert_eq!(a, b);
    }

    /// Per-link loss conserves messages: every accepted datagram is
    /// delivered exactly once or counted dropped.
    #[test]
    fn topology_conserves_messages(
        scripts in arb_scripts(),
        seed in any::<u64>(),
        topology in arb_topology(),
    ) {
        let (logs, _, (sent, delivered, dropped, _)) = run(&scripts, seed, 0.0, Some(topology));
        let total_sent: usize = scripts.iter().map(Vec::len).sum();
        prop_assert_eq!(sent, total_sent as u64);
        prop_assert_eq!(sent, delivered + dropped);
        let total_received: usize = logs.iter().map(Vec::len).sum();
        prop_assert_eq!(total_received as u64, delivered);
    }

    /// Every delivery lands inside its link's window: no sooner than the
    /// base delay, no later than base plus jitter (sends all happen at
    /// t = 0 here).
    #[test]
    fn topology_deliveries_respect_link_bounds(
        scripts in arb_scripts(),
        seed in any::<u64>(),
        topology in arb_topology(),
    ) {
        let (logs, _, _) = run(&scripts, seed, 0.0, Some(topology.clone()));
        for (to, log) in logs.iter().enumerate() {
            for &(at, from, _) in log {
                let base = topology.link_base_us(seed, from, to as NodeAddr);
                prop_assert!(
                    (base..=base + topology.jitter_us).contains(&at),
                    "{} -> {} arrived at {}, base {}", from, to, at, base
                );
            }
        }
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
