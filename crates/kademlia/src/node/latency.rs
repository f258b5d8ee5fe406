//! The latency layer ([`KadConfig::latency`], see [`LatencyConfig`]):
//! decayed per-contact RTT estimation from RPC round trips, RTT-adaptive
//! lookup timeouts, latency-biased shortlist hints, per-lookup adaptive α,
//! and proximity neighbor selection on full buckets. The mechanisms
//! themselves live in [`crate::rtt`]; this file is where the node feeds
//! and consults them.
//!
//! [`KadConfig::latency`]: super::KadConfig::latency

use dharma_net::Counter;
use dharma_types::Id160;

use super::KademliaNode;
use crate::messages::Contact;
use crate::routing::NoteOutcome;
use crate::rtt::{LatencyConfig, RttBook};

/// Per-node latency-awareness state (present when [`KadConfig::latency`]
/// is set).
///
/// [`KadConfig::latency`]: super::KadConfig::latency
pub(super) struct Latency {
    /// The configuration in force (a copy of [`KadConfig::latency`]).
    ///
    /// [`KadConfig::latency`]: super::KadConfig::latency
    pub(super) cfg: LatencyConfig,
    /// Decayed per-contact RTT estimates, fed by RPC round trips.
    pub(super) rtt: RttBook,
    /// The α the most recent adaptive-controller update settled on — an
    /// observability gauge (each lookup carries its own controller).
    pub(super) last_alpha: usize,
}

impl Latency {
    pub(super) fn new(cfg: LatencyConfig) -> Self {
        Latency {
            rtt: RttBook::new(cfg.rtt_half_life_us),
            last_alpha: cfg.alpha_min.max(1),
            cfg,
        }
    }

    /// The RTT-adaptive timeout for a query to `peer`: β × its smoothed
    /// RTT, floored at `rto_min_us`. `None` when adaptive timeouts are off
    /// or the peer is unmeasured.
    fn timeout_for(&self, peer: &Id160) -> Option<u64> {
        let srtt = self
            .rtt
            .estimate_us(peer)
            .filter(|_| self.cfg.adaptive_timeout)?;
        Some(((srtt as f64 * self.cfg.rto_beta) as u64).max(self.cfg.rto_min_us))
    }

    /// The current RTT estimates of the measured `contacts` — what a
    /// latency-biased shortlist orders its candidates by.
    pub(super) fn hints(&self, contacts: &[Contact]) -> Vec<(Id160, u64)> {
        let measured = |c: &Contact| self.rtt.estimate_us(&c.id).map(|est| (c.id, est));
        contacts.iter().filter_map(measured).collect()
    }
}

impl KademliaNode {
    /// The per-contact RTT book (`None` when latency awareness is off).
    pub fn rtt(&self) -> Option<&RttBook> {
        self.latency.as_ref().map(|l| &l.rtt)
    }

    /// The lookup parallelism most recently in effect: the latest per-op
    /// adaptive-controller reading when adaptive α is enabled, the
    /// configured constant otherwise.
    pub fn current_alpha(&self) -> usize {
        self.adaptive_alpha()
            .map_or(self.cfg.alpha, |l| l.last_alpha)
    }

    /// The latency state when per-lookup adaptive α is enabled.
    pub(super) fn adaptive_alpha(&self) -> Option<&Latency> {
        self.latency.as_ref().filter(|l| l.cfg.adaptive_alpha)
    }

    /// How long a lookup query to `peer` may stay unanswered: the global
    /// conservative timeout, or less for a peer with a measured RTT
    /// ([`Latency::timeout_for`]). Maintenance RPCs never use this — their
    /// timeouts confirm death, and a hair-trigger there would evict live
    /// contacts.
    pub(super) fn rpc_timeout_for(&self, peer: &Id160) -> u64 {
        let conservative = self.cfg.rpc_timeout_us;
        let adaptive = self.latency.as_ref().and_then(|l| l.timeout_for(peer));
        adaptive.map_or(conservative, |rto| rto.min(conservative))
    }

    /// Feeds one RPC outcome of `op_id` to its adaptive-α controller (a
    /// clean reply narrows after a streak, a timeout widens) and applies
    /// the resulting α to the lookup. No-op when adaptive α is off.
    pub(super) fn alpha_feedback(&mut self, op_id: u64, timed_out: bool) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        let Some(ctl) = op.alpha_ctl.as_mut() else {
            return;
        };
        if timed_out {
            if ctl.on_timeout() {
                self.cfg.counters.add(Counter::AlphaWidened, 1);
            }
        } else if ctl.on_clean_reply() {
            self.cfg.counters.add(Counter::AlphaNarrowed, 1);
        }
        op.lookup.set_alpha(ctl.current());
        if let Some(l) = self.latency.as_mut() {
            l.last_alpha = ctl.current();
        }
    }

    /// Notes contact activity with proximity neighbor selection when
    /// enabled (a full bucket swaps its slowest measured resident for a
    /// measurably faster newcomer), falling back to the classic rule.
    pub(super) fn note_contact_latency_aware(&mut self, c: Contact) -> NoteOutcome {
        match &self.latency {
            Some(l) if l.cfg.pns => {
                let estimate = |id: &Id160| l.rtt.estimate_us(id);
                let (outcome, demoted) = self.routing.note_contact_pns(c, &estimate);
                if demoted {
                    self.cfg.counters.add(Counter::PnsEvictions, 1);
                }
                outcome
            }
            _ => self.routing.note_contact(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use dharma_net::{Instrumented, SimConfig, SimNet};
    use dharma_types::sha1;

    use super::super::testutil::{build_overlay, sim_cfg, test_cfg};
    use super::*;
    use crate::node::{KadConfig, KadOutput};
    /// Like `build_net`, but on a geo-clustered topology with full
    /// latency awareness enabled on every node.
    fn build_latency_net(n: usize, seed: u64) -> (SimNet<KademliaNode>, Vec<Contact>) {
        let topo = dharma_net::TopologyConfig {
            clusters: 3,
            intra_us: (1_000, 4_000),
            inter_us: (10_000, 30_000),
            jitter_us: 1_000,
            base_loss: 0.0,
            lossy_cluster: None,
            lossy_loss: 0.0,
        };
        let sim = SimConfig {
            latency_min_us: topo.min_delay_us(),
            latency_max_us: 0,
            topology: Some(topo),
            ..sim_cfg(seed)
        };
        let cfg = KadConfig {
            latency: Some(LatencyConfig::default()),
            ..test_cfg(8)
        };
        build_overlay(sim, n, cfg)
    }

    #[test]
    fn latency_aware_overlay_records_rtt_and_serves_gets() {
        let (mut net, _contacts) = build_latency_net(20, 9);
        let counters = net.node(0).cfg.counters.clone();
        assert!(
            counters.rtt_samples() > 0,
            "bootstrap RPCs must feed the RTT books"
        );
        let key = sha1(b"latency:key");
        let op_put = net.with_node(3, |n, ctx| n.put_blob(ctx, key, b"v".to_vec()));
        net.run_until_idle(200_000);
        let put_done = net.take_completions().iter().any(|(id, out)| {
            *id == op_put && matches!(out, KadOutput::Written { acks, .. } if *acks >= 1)
        });
        assert!(put_done, "write must succeed on the topology net");
        let op_get = net.with_node(15, |n, ctx| n.get(ctx, key, 0));
        net.run_until_idle(200_000);
        let completions = net.take_completions();
        let got = completions
            .iter()
            .find(|(id, _)| *id == op_get)
            .expect("get completes");
        assert!(
            matches!(&got.1, KadOutput::Value { value: Some(_), .. }),
            "value found over the latency-aware overlay: {:?}",
            got.1
        );
        // Observability: the RTT book surfaces percentile gauges.
        let metrics = net.node(15).metrics();
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert!(names.contains(&"rtt_p50_us"), "metrics: {names:?}");
        assert!(names.contains(&"rtt_p95_us"));
        assert!(names.contains(&"lookup_alpha"));
        // Loss-free topology: α never widened beyond its floor.
        assert_eq!(net.node(15).current_alpha(), 3);
    }

    #[test]
    fn latency_aware_runs_are_deterministic() {
        // The latency path must be as reproducible as the classic one:
        // identical seeds give identical books, counters and tables.
        let (net_a, _) = build_latency_net(16, 77);
        let (net_b, _) = build_latency_net(16, 77);
        let ca = net_a.node(0).cfg.counters.clone();
        let cb = net_b.node(0).cfg.counters.clone();
        assert_eq!(ca.snapshot(), cb.snapshot());
        assert_eq!(ca.rtt_samples(), cb.rtt_samples());
        assert_eq!(ca.pns_evictions(), cb.pns_evictions());
        for i in 0..16u32 {
            assert_eq!(
                net_a.node(i).routing().len(),
                net_b.node(i).routing().len(),
                "node {i} routing diverged"
            );
            let (a, b) = (net_a.node(i).rtt().unwrap(), net_b.node(i).rtt().unwrap());
            assert_eq!(a.samples(), b.samples());
            assert_eq!(a.percentile_us(0.5), b.percentile_us(0.5));
        }
    }
}
