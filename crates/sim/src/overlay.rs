//! The one place the DHT-level experiments build, join and drive a
//! simulated overlay: [`build_overlay`] (or `build_overlay_with_ids`, for
//! a driver that draws identities from its own stream), `add_member` /
//! `join` for nodes that arrive later, and `drive`, which runs the net
//! until one operation completes at the driver's `Pace`.

use dharma_cache::{CacheConfig, FreshConfig, PopularityConfig};
use dharma_kademlia::{KadConfig, KadOutput, KademliaNode, LatencyConfig, MaintConfig};
use dharma_net::{NodeAddr, SimConfig, SimNet, TopologyConfig};
use dharma_types::Id160;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Link latency bounds (µs) of every overlay's global-uniform discipline.
const LATENCY_US: (u64, u64) = (1_000, 10_000);

/// Overlay parameters for experiments.
#[derive(Clone, Debug)]
pub struct OverlayConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Kademlia bucket size / replication factor.
    pub k: usize,
    /// Lookup parallelism.
    pub alpha: usize,
    /// Transport MTU in bytes.
    pub mtu: usize,
    /// Datagram loss probability.
    pub drop_rate: f64,
    /// Seed.
    pub seed: u64,
    /// Hot-block caching on every node (`None` = the paper's plain overlay).
    pub cache: Option<CacheConfig>,
    /// Popularity-driven adaptive replication on every node.
    pub replication: Option<PopularityConfig>,
    /// Churn maintenance (probes / handoff / repair) on every node.
    /// `None` keeps the static-experiment overlay byte-identical to PR 2.
    pub maintenance: Option<MaintConfig>,
    /// Version gossip & cache-aware lookup routing on every node
    /// (`dharma-fresh`); `None` keeps the TTL-only cache protocol.
    pub freshness: Option<FreshConfig>,
    /// Geo-clustered per-link delay/loss model. `None` keeps the classic
    /// global-uniform link discipline (1–10 ms per datagram, with
    /// `drop_rate` loss) and stays byte-identical to prior runs; `Some`
    /// switches the simulator to per-link base delays + jitter and ignores
    /// both bounds and `drop_rate`.
    pub topology: Option<TopologyConfig>,
    /// Latency-aware protocol behaviour on every node (RTT estimation,
    /// proximity neighbor selection, shortlist bias, adaptive α).
    /// `None` keeps the latency-oblivious protocol of prior PRs.
    pub latency: Option<LatencyConfig>,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            nodes: 64,
            k: 20,
            alpha: 3,
            mtu: 64 * 1024,
            drop_rate: 0.0,
            seed: 0,
            cache: None,
            replication: None,
            maintenance: None,
            freshness: None,
            topology: None,
            latency: None,
        }
    }
}

impl OverlayConfig {
    /// The per-node protocol configuration this overlay runs, recording
    /// into `counters`. Exposed so drivers that spawn *additional* nodes
    /// mid-run (e.g. the freshness turnover scenario) give them exactly
    /// the config the original fleet got.
    pub fn kad_config(&self, counters: dharma_net::NetCounters) -> KadConfig {
        KadConfig {
            k: self.k,
            alpha: self.alpha,
            rpc_timeout_us: 300_000,
            reply_budget: self.mtu.saturating_sub(200).max(256),
            cache: self.cache.clone(),
            replication: self.replication.clone(),
            maintenance: self.maintenance.clone(),
            freshness: self.freshness.clone(),
            latency: self.latency.clone(),
            counters,
            ..KadConfig::default()
        }
    }
}

/// A light liveness loop (probes every 2 s, repair effectively off), the
/// one preset A8 and A9 share. It runs in every configuration of both, so
/// their comparisons stay fair: in A8 it carries `Pong` digests; in A9 its
/// probe cycle re-discovers the contacts persistent loss evicts from
/// lossy-cluster nodes, which would otherwise decay into isolation and
/// drag the success ratio down identically in every arm.
pub(crate) fn light_liveness() -> MaintConfig {
    MaintConfig::builder()
        .probe_interval_us(2_000_000)
        .repair_interval_us(3_600_000_000)
        .join_handoff(false)
        .build()
        .expect("light liveness config is in range")
}

/// Builds and bootstraps an overlay on the serial engine, with node
/// identities drawn from the builder's own stream, `seed ^ 0xD1A2`: node 0
/// is the rendezvous; every other node seeds it and performs the standard
/// join lookup. All joins are admitted up front and settle together, for
/// 2 virtual seconds or 2 ms per node, whichever is longer: join lookups
/// need longer to propagate routing state in big overlays, and maintenance
/// timers re-arm forever, so settling is time-bounded rather than drained
/// to idle.
pub fn build_overlay(cfg: &OverlayConfig) -> SimNet<KademliaNode> {
    build_overlay_with_ids(cfg, &mut StdRng::seed_from_u64(cfg.seed ^ 0xD1A2))
}

/// [`build_overlay`], drawing each node's identity from `ids` instead: a
/// driver that keeps drawing from the same stream afterwards passes its
/// own.
pub(crate) fn build_overlay_with_ids(
    cfg: &OverlayConfig,
    ids: &mut StdRng,
) -> SimNet<KademliaNode> {
    let mut net = SimNet::new(SimConfig {
        // The per-link discipline ignores the global-uniform bounds.
        latency_min_us: LATENCY_US.0,
        latency_max_us: LATENCY_US.1,
        drop_rate: cfg.drop_rate,
        mtu: cfg.mtu,
        seed: cfg.seed,
        shards: 1,
        topology: cfg.topology.clone(),
    });
    let kad = cfg.kad_config(net.counters());
    for _ in 0..cfg.nodes {
        add_member(&mut net, Id160::random(ids), &kad);
    }
    net.run_until(net.now_us() + 2_000_000.max(cfg.nodes as u64 * 2_000));
    net.take_completions();
    net
}

/// Adds a node with identity `id` running `kad` at the next free address
/// and, unless it is node 0 (the rendezvous), [`join`]s it. Drivers with
/// churn add their fresh-identity replacements through this too.
pub(crate) fn add_member(net: &mut SimNet<KademliaNode>, id: Id160, kad: &KadConfig) -> NodeAddr {
    let addr = net.add_node(KademliaNode::new(id, net.len() as NodeAddr, kad.clone()));
    if addr != 0 {
        join(net, addr);
    }
    addr
}

/// Seeds `addr` with the rendezvous (node 0, which never departs) and
/// starts its join lookup.
pub(crate) fn join(net: &mut SimNet<KademliaNode>, addr: NodeAddr) {
    let rendezvous = net.node(0).contact().clone();
    net.node_mut(addr).add_seed(rendezvous);
    net.with_node(addr, |node, ctx| {
        node.bootstrap(ctx);
    });
}

/// How [`drive`] advances the simulator while it waits for an operation.
/// Each driver fixes its own: the two move virtual time differently, and
/// with it every cache TTL and every later RNG draw.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Pace {
    /// Bursts of 64 events (at most 50 M in all): virtual time stays tight
    /// to message latencies, where draining the queue would fast-forward
    /// through every pending RPC-timeout timer and age the caches. For
    /// overlays without maintenance timers (A5).
    Steps,
    /// Virtual-time slices of `slice_us`, which bound how far a recorded
    /// completion instant overshoots the true one; panics after
    /// `patience_us` of virtual time. Maintenance timers re-arm forever,
    /// so stepping to idle would fast-forward through years of sweeps
    /// (A8, A9).
    Slices {
        /// Length of one slice, µs.
        slice_us: u64,
        /// Virtual time after which a pending operation panics, µs.
        patience_us: u64,
    },
}

/// Drives the net until operation `op` completes, at `pace`, and returns
/// its output. Panics if it does not complete.
pub(crate) fn drive(net: &mut SimNet<KademliaNode>, op: u64, pace: Pace) -> KadOutput {
    let start = net.now_us();
    let mut events = 0u64;
    loop {
        for (id, out) in net.take_completions() {
            if id == op {
                return out;
            }
        }
        match pace {
            Pace::Steps => {
                let stepped = net.run_until_idle(64);
                assert!(stepped > 0, "operation {op} never completed");
                events += stepped;
                assert!(
                    events < 50_000_000,
                    "operation {op} exceeded the event budget"
                );
            }
            Pace::Slices {
                slice_us,
                patience_us,
            } => {
                assert!(
                    net.now_us() < start + patience_us,
                    "operation {op} still pending after {patience_us} virtual µs"
                );
                net.run_until(net.now_us() + slice_us);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_bootstraps() {
        let net = build_overlay(&OverlayConfig {
            nodes: 24,
            seed: 3,
            ..OverlayConfig::default()
        });
        for i in 0..24u32 {
            assert!(net.node(i).routing().len() >= 3, "node {i} underpopulated");
        }
    }
}
