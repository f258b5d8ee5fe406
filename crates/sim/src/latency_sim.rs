//! Latency workload driver: the `dharma-latency` evaluation.
//!
//! Every earlier experiment scores lookups in *hops* — fine while the
//! simulator drew all delays from one global range, meaningless once links
//! differ by 30× between a metro neighbor and a cross-continent peer. This
//! driver puts the overlay on a geo-clustered [`TopologyConfig`] (including
//! one designated lossy cluster) and measures what a client actually feels:
//! the **wall-clock completion time of each GET**, from the instant the
//! lookup is issued to the instant its value arrives.
//!
//! The replay runs one GET at a time so a sample is never widened by
//! queueing behind an unrelated lookup. A warmup phase (unmeasured GETs
//! from every node) first lets the latency-aware configurations fill their
//! RTT books — proximity neighbor selection and shortlist bias can only
//! act on links they have measured. The report carries the completion-time
//! percentiles, the datagram cost per GET over the measured phase, the
//! success ratio, and the latency-subsystem counters the `ablation_latency`
//! acceptance bar inspects.

use dharma_kademlia::{KadOutput, KademliaNode, LatencyConfig, MaintConfig};
use dharma_net::{SimNet, TopologyConfig};
use dharma_types::{sha1, Id160};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::output::percentile;
use crate::overlay::{build_overlay, drive_to_completion, OverlayConfig};

/// Latency-workload parameters.
#[derive(Clone, Debug)]
pub struct LatencySimConfig {
    /// Overlay size.
    pub nodes: usize,
    /// Kademlia replication factor.
    pub k: usize,
    /// Baseline lookup parallelism (and `alpha_min` of the adaptive arm).
    pub alpha: usize,
    /// Distinct keys stored before the GET phase.
    pub keys: usize,
    /// Unmeasured GETs that warm the RTT books before measurement.
    pub warmup_ops: usize,
    /// Measured GET operations.
    pub ops: usize,
    /// The per-link delay/loss model (always on for this driver).
    pub topology: TopologyConfig,
    /// Latency-aware protocol behaviour (`None` = the latency-blind
    /// baseline: same topology, classic LRU routing and fixed α).
    pub latency: Option<LatencyConfig>,
    /// Master seed.
    pub seed: u64,
}

impl Default for LatencySimConfig {
    fn default() -> Self {
        LatencySimConfig {
            nodes: 64,
            k: 8,
            alpha: 3,
            keys: 32,
            warmup_ops: 480,
            ops: 600,
            topology: LatencySimConfig::ablation_topology(),
            latency: None,
            seed: 42,
        }
    }
}

impl LatencySimConfig {
    /// The `--smoke` scale of `ablation_latency` (and the A9 section of
    /// `BENCH_ci.json`): 32 nodes, 16 keys, 240 warmup and 400 measured
    /// GETs.
    pub fn smoke(seed: u64) -> Self {
        LatencySimConfig {
            nodes: 32,
            keys: 16,
            warmup_ops: 240,
            ops: 400,
            seed,
            ..LatencySimConfig::default()
        }
    }

    /// The topology of the ablation rows: four metro clusters (1–15 ms
    /// within, 15–140 ms across, ±2 ms jitter, 1% baseline loss) with
    /// cluster 3 designated lossy (25% on every link it touches). The wide
    /// per-class spread is the point: links inside one metro differ by 15×
    /// and WAN paths by ~10×, so *measuring* links and preferring the fast
    /// ones beats querying in oblivious XOR order — with near-uniform links
    /// there would be nothing for proximity selection to exploit. RPC
    /// timeouts (300 ms) still exceed the worst round trip
    /// (2 × 140 + 2 × 2 ms), so every timeout is loss, not distance.
    pub fn ablation_topology() -> TopologyConfig {
        TopologyConfig {
            clusters: 4,
            intra_us: (1_000, 15_000),
            inter_us: (15_000, 140_000),
            jitter_us: 2_000,
            base_loss: 0.01,
            lossy_cluster: Some(3),
            lossy_loss: 0.25,
        }
    }

    /// The light liveness loop every configuration runs (probes every
    /// 2 s, repair effectively off). Persistent loss steadily evicts
    /// contacts from lossy-cluster nodes' tables; without the probe
    /// cycle's re-discovery those nodes decay into isolation and drag
    /// the success ratio down identically in every arm.
    pub fn ablation_maintenance() -> MaintConfig {
        MaintConfig::builder()
            .probe_interval_us(2_000_000)
            .repair_interval_us(3_600_000_000)
            .join_handoff(false)
            .demote_interval_us(None)
            .build()
            .expect("ablation maintenance config is in range")
    }
}

/// What one latency replay measured.
#[derive(Clone, Debug)]
pub struct LatencySimReport {
    /// Measured GET operations.
    pub gets: u64,
    /// GETs that returned a value.
    pub successes: u64,
    /// `successes / gets`.
    pub success_ratio: f64,
    /// Median GET completion time, µs.
    pub p50_us: u64,
    /// 95th-percentile GET completion time, µs.
    pub p95_us: u64,
    /// Worst GET completion time, µs.
    pub max_us: u64,
    /// Mean GET completion time, µs.
    pub mean_us: f64,
    /// All datagrams sent per measured GET.
    pub messages_per_get: f64,
    /// RTT samples folded into the fleet's books (whole run).
    pub rtt_samples: u64,
    /// Proximity demotions of slow bucket residents (whole run).
    pub pns_evictions: u64,
    /// α widening steps taken on timeouts (whole run).
    pub alpha_widened: u64,
    /// α narrowing steps taken on clean streaks (whole run).
    pub alpha_narrowed: u64,
    /// Mean per-node α at the end of the run.
    pub mean_final_alpha: f64,
}

// `drive_to_completion` paces each operation in 0.25 ms virtual slices,
// so a recorded completion instant overshoots the true one by at most
// that, with 30 virtual seconds of patience.
const SLICE_US: u64 = 250;
const PATIENCE_US: u64 = 30_000_000;

/// Replays the latency workload of [`LatencySimConfig`] and reports
/// completion-time percentiles, datagram cost and success ratio.
pub fn simulate_latency(cfg: &LatencySimConfig) -> LatencySimReport {
    assert!(cfg.nodes >= 8, "need an overlay");
    assert!(cfg.keys >= 1 && cfg.ops >= 1);
    let overlay = OverlayConfig {
        nodes: cfg.nodes,
        k: cfg.k,
        alpha: cfg.alpha,
        seed: cfg.seed,
        topology: Some(cfg.topology.clone()),
        latency: cfg.latency.clone(),
        maintenance: Some(LatencySimConfig::ablation_maintenance()),
        ..OverlayConfig::default()
    };
    let mut net = build_overlay(&overlay);
    let counters = net.counters();

    // Join retries: a lossy-cluster node can lose its whole bootstrap
    // exchange to the 25% link loss — timeouts then evict even its seed
    // contact and it starts the run isolated. Real deployments retry the
    // join against their configured bootstrap peers until it takes;
    // mirror that (identically in every arm) before the workload starts.
    let rendezvous = net.node(0).contact().clone();
    for _ in 0..8 {
        let strays: Vec<u32> = (1..cfg.nodes as u32)
            .filter(|a| net.node(*a).routing().len() < 3)
            .collect();
        if strays.is_empty() {
            break;
        }
        for a in strays {
            net.node_mut(a).add_seed(rendezvous.clone());
            net.with_node(a, |n, ctx| {
                n.bootstrap(ctx);
            });
        }
        net.run_until(net.now_us() + 2_000_000);
        net.take_completions();
    }

    // Store every key at full replication. Loss can swallow STOREs (the
    // write path has no replica-count feedback), so writers re-issue the
    // idempotent append from different vantage points until the replica
    // set is whole — otherwise an under-replicated key would charge its
    // unlucky write to every configuration's GET success ratio.
    let keys: Vec<Id160> = (0..cfg.keys)
        .map(|i| sha1(format!("latency-key-{i}").as_bytes()))
        .collect();
    let replica_floor = cfg.k.min(cfg.nodes / 2);
    for (i, key) in keys.iter().enumerate() {
        let key = *key;
        for attempt in 0..5 {
            let writer = ((i + attempt * 13) % cfg.nodes) as u32;
            let op = net.with_node(writer, |n, ctx| n.append(ctx, key, "payload", 1));
            drive_to_completion(&mut net, op, SLICE_US, PATIENCE_US);
            let replicas = (0..cfg.nodes as u32)
                .filter(|a| net.node(*a).storage().contains(&key))
                .count();
            if replicas >= replica_floor {
                break;
            }
        }
    }

    // One GET = what a client experiences: up to three lookup attempts,
    // timed from first issue to first success (or final failure).
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1A7E);
    let issue_get = |net: &mut SimNet<KademliaNode>, rng: &mut StdRng| -> (u64, bool) {
        let requester = rng.gen_range(0..cfg.nodes as u32);
        let key = keys[rng.gen_range(0..cfg.keys)];
        let issued_at = net.now_us();
        for _ in 0..3 {
            let op = net.with_node(requester, |n, ctx| n.get(ctx, key, 0));
            let out = drive_to_completion(net, op, SLICE_US, PATIENCE_US);
            let KadOutput::Value { value, .. } = out else {
                panic!("GET completed with a non-value output");
            };
            if value.is_some() {
                return (net.now_us() - issued_at, true);
            }
        }
        (net.now_us() - issued_at, false)
    };

    // Warmup: every latency-aware behaviour needs measured links first.
    for _ in 0..cfg.warmup_ops {
        issue_get(&mut net, &mut rng);
    }

    let sent_before = counters.sent();
    let mut times: Vec<u64> = Vec::with_capacity(cfg.ops);
    let mut successes = 0u64;
    for _ in 0..cfg.ops {
        let (elapsed, ok) = issue_get(&mut net, &mut rng);
        times.push(elapsed);
        if ok {
            successes += 1;
        }
    }

    times.sort_unstable();
    let gets = cfg.ops as u64;
    let alpha_sum: usize = (0..cfg.nodes as u32)
        .map(|a| net.node(a).current_alpha())
        .sum();
    LatencySimReport {
        gets,
        successes,
        success_ratio: successes as f64 / gets as f64,
        p50_us: percentile(&times, 0.50),
        p95_us: percentile(&times, 0.95),
        max_us: *times.last().expect("ops >= 1"),
        mean_us: times.iter().sum::<u64>() as f64 / gets as f64,
        messages_per_get: (counters.sent() - sent_before) as f64 / gets as f64,
        rtt_samples: counters.rtt_samples(),
        pns_evictions: counters.pns_evictions(),
        alpha_widened: counters.alpha_widened(),
        alpha_narrowed: counters.alpha_narrowed(),
        mean_final_alpha: alpha_sum as f64 / cfg.nodes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(latency: Option<LatencyConfig>) -> LatencySimConfig {
        LatencySimConfig {
            nodes: 24,
            k: 4,
            keys: 8,
            warmup_ops: 40,
            ops: 120,
            latency,
            seed: 7,
            ..LatencySimConfig::default()
        }
    }

    #[test]
    fn baseline_measures_times_without_latency_machinery() {
        let rep = simulate_latency(&small(None));
        assert_eq!(rep.gets, 120);
        assert!(rep.success_ratio > 0.9, "success {:.3}", rep.success_ratio);
        assert!(rep.p50_us > 0 && rep.p50_us <= rep.p95_us);
        assert_eq!(rep.rtt_samples, 0);
        assert_eq!(rep.pns_evictions, 0);
        assert_eq!(rep.alpha_widened, 0);
        assert!((rep.mean_final_alpha - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn latency_aware_overlay_samples_and_does_not_slow_lookups() {
        let base = simulate_latency(&small(None));
        let aware = simulate_latency(&small(Some(LatencyConfig::default())));
        assert!(aware.rtt_samples > 0, "books stayed empty");
        assert!(
            aware.p50_us <= base.p50_us,
            "latency awareness slowed the median GET: {} vs {} µs",
            aware.p50_us,
            base.p50_us
        );
        assert!(
            aware.success_ratio > 0.9,
            "success {:.3}",
            aware.success_ratio
        );
    }
}
