//! Simulated-overlay construction shared by the DHT-level experiments.

use dharma_cache::{CacheConfig, FreshConfig, PopularityConfig};
use dharma_kademlia::{KadConfig, KadOutput, KademliaNode, LatencyConfig, MaintConfig};
use dharma_net::{SimConfig, SimNet, TopologyConfig};
use dharma_types::Id160;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// Mean link latency bounds (µs).
    pub latency_us: (u64, u64),
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
    /// global-uniform `latency_us`/`drop_rate` link discipline and stays
    /// byte-identical to prior runs; `Some` switches the simulator to
    /// per-link base delays + jitter and ignores `latency_us.1`/`drop_rate`.
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
            latency_us: (1_000, 10_000),
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

/// Builds and bootstraps an overlay on the serial engine: node 0 is the
/// rendezvous; every other node seeds it and performs the standard join
/// lookup. All joins are admitted up front and settle together.
pub fn build_overlay(cfg: &OverlayConfig) -> SimNet<KademliaNode> {
    let mut net = SimNet::new(SimConfig {
        // With a topology the min delay is the engine lookahead; the
        // global-uniform bounds are ignored by the per-link discipline.
        latency_min_us: cfg
            .topology
            .as_ref()
            .map(|t| t.min_delay_us())
            .unwrap_or(cfg.latency_us.0),
        latency_max_us: cfg.latency_us.1,
        drop_rate: cfg.drop_rate,
        mtu: cfg.mtu,
        seed: cfg.seed,
        shards: 1,
        topology: cfg.topology.clone(),
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1A2);
    let kad = cfg.kad_config(net.counters());
    let mut rendezvous = None;
    for i in 0..cfg.nodes {
        let id = Id160::random(&mut rng);
        let addr = net.add_node(KademliaNode::new(id, i as u32, kad.clone()));
        match &rendezvous {
            None => rendezvous = Some(net.node(addr).contact().clone()),
            Some(seed_contact) => {
                let seed_contact = seed_contact.clone();
                net.node_mut(addr).add_seed(seed_contact);
                net.with_node(addr, |node, ctx| {
                    node.bootstrap(ctx);
                });
            }
        }
    }
    // Maintenance timers re-arm forever, so a maintained overlay must
    // bootstrap time-bounded; a static one drains the queue.
    if cfg.maintenance.is_some() {
        net.run_until(net.now_us() + 2_000_000);
    } else {
        net.run_until_idle(u64::MAX);
    }
    net.take_completions();
    net
}

/// Drives the net until `op` completes, in `slice_us` virtual-time slices:
/// maintenance timers re-arm forever, so idle-draining would fast-forward
/// through years of sweeps, and the slice bounds how far the recorded
/// completion instant overshoots the true one. Panics if `op` is still
/// pending after `patience_us` of virtual time.
pub fn drive_to_completion(
    net: &mut SimNet<KademliaNode>,
    op: u64,
    slice_us: u64,
    patience_us: u64,
) -> KadOutput {
    let deadline = net.now_us() + patience_us;
    loop {
        for (id, out) in net.take_completions() {
            if id == op {
                return out;
            }
        }
        assert!(
            net.now_us() < deadline,
            "operation {op} still pending after {patience_us} virtual µs"
        );
        net.run_until(net.now_us() + slice_us);
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
