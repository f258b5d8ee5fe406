//! Churn-scenario driver: the `dharma-maint` evaluation workload.
//!
//! The DHT survey (Hassanzadeh-Nazarabadi et al.) identifies churn-driven
//! maintenance as *the* cost/availability trade-off of deployed DHTs; this
//! driver makes it measurable for DHARMA. Over any Zipf-shaped GET workload
//! it layers **true membership churn**: node sessions end in a permanent
//! departure — crash-style [`dharma_net::SimNet::remove`] (state lost, no
//! warning) or, for a seeded [`ChurnConfig::graceful_fraction`] of them,
//! a graceful [`dharma_net::SimNet::leave`] (parting key handoff + `Leave`
//! notices first) — and, one seeded downtime later, a **fresh-identity**
//! node [`dharma_net::SimNet::spawn`]s and bootstraps in its place. Session and
//! downtime lengths are drawn from seeded Weibull distributions (shape 1 =
//! exponential, the memoryless baseline; shape < 1 = the heavy-tailed
//! session lengths measured in deployed P2P systems).
//!
//! Three outcomes are reported, for repair on vs off:
//!
//! * **lookup success rate** — GETs answering with the value (after
//!   bounded retries from another live node, mirroring the client layer's
//!   retry-on-timeout);
//! * **data availability** — a periodic trace of the fraction of keys with
//!   at least one live authoritative holder, plus the end-of-run count of
//!   *lost* records (no live holder after churn stops and repair settles);
//! * **maintenance overhead** — probes, handoffs and re-replications, and
//!   total datagrams per GET.
//!
//! Node 0 never churns: it is the rendezvous host every newcomer seeds
//! from (a deployment would use any stable bootstrap set). Everything is
//! driven by two seeded RNGs (scenario + simulator), so a fixed
//! [`ChurnConfig`] is **bit-identical** across runs — the property the
//! determinism tests pin down.

use dharma_cache::CacheConfig;
use dharma_dataset::Zipf;
use dharma_kademlia::{KadOutput, KademliaNode, MaintConfig, MaintConfigBuilder, StoredEntry};
use dharma_net::{NodeAddr, SimNet};
use dharma_types::{sha1, FxHashMap, Id160};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::overlay::{add_member, build_overlay_with_ids, OverlayConfig};

/// Churn-scenario parameters.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Overlay size at t = 0 (held roughly constant: each departure
    /// schedules a replacement join).
    pub nodes: usize,
    /// Kademlia bucket size / replication factor.
    pub k: usize,
    /// Distinct tag-block keys in the workload.
    pub keys: usize,
    /// Zipf exponent of the GET key distribution.
    pub zipf_s: f64,
    /// Virtual duration of the churn + workload phase, µs.
    pub horizon_us: u64,
    /// One GET is issued every this many µs.
    pub op_interval_us: u64,
    /// Mean node-session length, µs (time between join and departure).
    pub mean_session_us: u64,
    /// Mean downtime before the replacement join, µs.
    pub mean_downtime_us: u64,
    /// Weibull shape of the session distribution (1.0 = exponential).
    pub session_shape: f64,
    /// Maintenance (repair) configuration; `None` = repair disabled, the
    /// ablation's baseline. Adaptive cadence rides in
    /// [`MaintConfig::adaptive`].
    pub repair: Option<MaintConfig>,
    /// Fraction of departures that are *graceful* (seeded per departure):
    /// the node hands its keys off and sends `Leave` notices before going,
    /// instead of vanishing crash-style. 0.0 (the default) reproduces the
    /// PR-3 crash-only scenario; 1.0 models an orderly fleet drain.
    pub graceful_fraction: f64,
    /// Availability is sampled every this many µs.
    pub sample_interval_us: u64,
    /// Master seed (drives scenario sampling and the simulator).
    pub seed: u64,
    /// Hot-block caching on every node (the A8-at-scale scenario); `None`
    /// keeps the plain churn overlay.
    pub cache: Option<CacheConfig>,
    /// Keys written per populate settle-window. 1 (the default) settles
    /// after every write — the historical, bit-identical populate. At
    /// thousands of keys raise it so populate costs `keys / write_batch`
    /// settle windows instead of one per key.
    pub write_batch: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            nodes: 64,
            k: 20,
            keys: 32,
            zipf_s: 1.2,
            horizon_us: 300_000_000,     // 5 virtual minutes
            op_interval_us: 250_000,     // 4 GETs/s
            mean_session_us: 60_000_000, // churn: ~5 sessions/node over the run
            mean_downtime_us: 10_000_000,
            session_shape: 1.0,
            repair: Some(MaintConfig::default()),
            graceful_fraction: 0.0,
            sample_interval_us: 5_000_000,
            seed: 42,
            cache: None,
            write_batch: 1,
        }
    }
}

impl ChurnConfig {
    /// The `--smoke` scale of `ablation_churn` and `ablation_adaptive` (and
    /// the A7 section of `BENCH_ci.json`): 24 nodes, k = 8, 12 keys over
    /// one virtual minute. Each caller sets the session length and repair.
    pub fn smoke(seed: u64) -> Self {
        ChurnConfig {
            nodes: 24,
            k: 8,
            keys: 12,
            horizon_us: 60_000_000,
            op_interval_us: 500_000,
            mean_downtime_us: 5_000_000,
            sample_interval_us: 3_000_000,
            seed,
            ..ChurnConfig::default()
        }
    }

    /// Repair with join handoff on and demotion off, probing every
    /// `probe_us` and sweeping every `repair_us`.
    fn repair(probe_us: u64, repair_us: u64) -> MaintConfigBuilder {
        MaintConfig::builder()
            .probe_interval_us(probe_us)
            .repair_interval_us(repair_us)
            .join_handoff(true)
            .demote_interval_us(None)
    }

    /// [`Self::ablation_repair`] at the smoke scale's shorter horizon:
    /// probes every 1 s, repair every 6 s, handoff on, demotion off.
    pub fn smoke_repair() -> MaintConfig {
        Self::repair(1_000_000, 6_000_000)
            .build()
            .expect("smoke repair config is in range")
    }

    /// The maintenance configuration the "repair on" ablation rows use:
    /// probes every 2 s, repair every 15 s, handoff on. Demotion stays
    /// off here: the ablation isolates the repair guarantee, and the
    /// stale beyond-`k` copies demotion would reclaim double as a churn
    /// safety net (dropping them costs ~1 point of lookup success at
    /// moderate churn — the space/traffic-vs-redundancy dial
    /// [`MaintConfig::demote_interval_us`] exposes; long-running
    /// deployments want it on, which is the [`MaintConfig`] default).
    pub fn ablation_repair() -> MaintConfig {
        Self::repair(2_000_000, 15_000_000)
            .build()
            .expect("ablation repair config is in range")
    }

    /// The churn-adaptive counterpart of [`Self::ablation_repair`]: same
    /// tightest cadence (so a churning overlay gets the same protection),
    /// but scaled up to 5× lazier as the observed departure rate falls.
    /// `hot_weight` is tuned so the moderate-churn scenario (one
    /// departure/s observed per node) pins the cadence to the min bounds
    /// while a near-idle overlay coasts at the max.
    pub fn ablation_adaptive() -> MaintConfig {
        // The fixed intervals are unused: adaptive cadence below.
        Self::repair(2_000_000, 15_000_000)
            .adaptive(Some(dharma_kademlia::AdaptConfig {
                probe_min_us: 2_000_000,
                probe_max_us: 6_000_000,
                repair_min_us: 15_000_000,
                repair_max_us: 60_000_000,
                half_life_us: 20_000_000,
                hot_weight: 5.0,
                leave_weight: 0.1,
                repair_budget: 16,
            }))
            .build()
            .expect("ablation adaptive config is in range")
    }
}

/// What one churn replay measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnReport {
    /// GET operations issued (excluding retries).
    pub gets: u64,
    /// GETs that returned the value (possibly after retries).
    pub gets_ok: u64,
    /// Retry attempts consumed across all GETs.
    pub retries: u64,
    /// `gets_ok / gets`.
    pub lookup_success: f64,
    /// `(time µs, fraction of keys with ≥ 1 live authoritative holder)`,
    /// sampled every `sample_interval_us` — the availability curve.
    pub availability_trace: Vec<(u64, f64)>,
    /// Mean of the availability trace.
    pub mean_availability: f64,
    /// Keys with **no** live authoritative holder after churn stopped and
    /// repair settled — permanently lost records.
    pub lost_records: usize,
    /// Permanent departures processed.
    pub departures: u64,
    /// Departures that went through the graceful-leave protocol (the rest
    /// were crash-style removals).
    pub graceful_departures: u64,
    /// Fresh-identity joins processed.
    pub joins: u64,
    /// Liveness probes sent.
    pub probes: u64,
    /// Join-time key handoffs pushed.
    pub handoffs: u64,
    /// Repair re-replication pushes.
    pub rereplications: u64,
    /// Graceful-leave notices sent.
    pub leave_notices: u64,
    /// Parting key handoffs pushed by gracefully departing nodes.
    pub leave_handoffs: u64,
    /// Total datagrams sent over the whole run.
    pub messages_total: u64,
    /// Maintenance datagrams (probes + handoffs + re-replications) per
    /// issued GET — the overhead the repair guarantee costs.
    pub maint_msgs_per_get: f64,
    /// Simulator events fired over the whole run (deliveries + timers) —
    /// the numerator of the engine's events/sec throughput metric.
    /// Deterministic per seed, so it participates in the report's
    /// equality-based determinism checks.
    pub events_processed: u64,
}

/// Scenario events, processed in `(time, seq)` order between simulator
/// bursts.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ChurnEvent {
    /// Node `addr` departs permanently.
    Depart(NodeAddr),
    /// A fresh-identity replacement joins.
    Join,
    /// Issue the next workload GET.
    IssueGet,
    /// Sample the availability curve.
    Sample,
}

/// The scenario schedule: a min-heap on `(at, seq)`. `seq` is unique, so
/// the order is total and events themselves are never compared.
#[derive(Default)]
struct Schedule {
    heap: BinaryHeap<Reverse<(u64, u64, ChurnEvent)>>,
    seq: u64,
}

impl Schedule {
    fn push(&mut self, at: u64, ev: ChurnEvent) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, ev)));
    }

    /// The earliest event, if it is due by `horizon`.
    fn pop_until(&mut self, horizon: u64) -> Option<(u64, ChurnEvent)> {
        let Reverse((at, _, _)) = self.heap.peek()?;
        if *at > horizon {
            return None;
        }
        let Reverse((at, _, ev)) = self.heap.pop()?;
        Some((at, ev))
    }
}

/// An issued GET the driver is still waiting on, keyed by its
/// `(coordinator, op)`.
#[derive(Clone, Copy, Debug)]
struct InflightGet {
    key_idx: usize,
    issued_at_us: u64,
    attempts: u32,
}

/// Weibull sample with the given mean: `scale · (−ln u)^(1/shape)` where
/// `scale = mean / Γ(1 + 1/shape)`. Shape 1 reduces to the exponential.
fn sample_weibull(rng: &mut StdRng, mean_us: u64, shape: f64) -> u64 {
    let u: f64 = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
    let scale = mean_us as f64 / gamma_1p(1.0 / shape);
    (scale * (-u.ln()).powf(1.0 / shape)).round().max(1.0) as u64
}

/// Γ(1 + x) for the scenario-scaling range (the shapes in use are
/// 0.5..=2, so x ∈ (0, 2]): the Abramowitz & Stegun 6.1.36 eight-term
/// minimax polynomial for Γ(1 + x) on [0, 1] (|ε| < 3·10⁻⁷ — not a Taylor
/// expansion of ln Γ), extended to x > 1 by the recurrence
/// Γ(1 + x) = x · Γ(x).
fn gamma_1p(x: f64) -> f64 {
    if x > 1.0 {
        return x * gamma_1p(x - 1.0);
    }
    const C: [f64; 8] = [
        -0.577_191_652,
        0.988_205_891,
        -0.897_056_937,
        0.918_206_857,
        -0.756_704_078,
        0.482_199_394,
        -0.193_527_818,
        0.035_868_343,
    ];
    let mut acc = 1.0;
    let mut p = 1.0;
    for c in C {
        p *= x;
        acc += c * p;
    }
    acc
}

/// How often a failed GET is reissued from another live node before
/// counting as a lookup failure.
pub const GET_RETRIES: u32 = 2;

/// Replays the churn scenario of [`ChurnConfig`] and reports lookup
/// success, the availability curve, and maintenance overhead.
pub fn simulate_churn(cfg: &ChurnConfig) -> ChurnReport {
    let nodes = cfg.nodes;
    assert!(nodes >= 4, "need an overlay");
    assert!(cfg.keys >= 1 && cfg.horizon_us > 0 && cfg.op_interval_us > 0);
    let overlay = OverlayConfig {
        nodes,
        k: cfg.k,
        seed: cfg.seed,
        cache: cfg.cache.clone(),
        maintenance: cfg.repair.clone(),
        ..OverlayConfig::default()
    };
    // Scenario RNG: node identities, session/downtime draws, workload.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC4A9);
    let mut net = build_overlay_with_ids(&overlay, &mut rng);
    let counters = net.counters();
    let kad = overlay.kad_config(counters.clone());
    let mut live: Vec<NodeAddr> = (0..nodes as NodeAddr).collect();

    // ----- populate the tag blocks ------------------------------------
    let keys: Vec<Id160> = (0..cfg.keys)
        .map(|i| sha1(format!("churn-block-{i}").as_bytes()))
        .collect();
    let write_batch = cfg.write_batch.max(1);
    for (i, key) in keys.iter().enumerate() {
        let writer = live[i % live.len()];
        let entries: Vec<StoredEntry> = (0..6)
            .map(|e| StoredEntry {
                name: format!("entry-{e}"),
                weight: (e + 1) * 2,
            })
            .collect();
        net.with_node(writer, |n, ctx| {
            n.append_many(ctx, *key, entries);
        });
        // Writes settle while virtual time stays tight (no fast-forward
        // through maintenance timers). `write_batch == 1` settles after
        // every write — the historical populate; larger batches amortize
        // the settle window across a batch of writers.
        if (i + 1) % write_batch == 0 {
            net.run_until(net.now_us() + 300_000);
        }
    }
    if !keys.len().is_multiple_of(write_batch) {
        net.run_until(net.now_us() + 300_000);
    }
    net.run_until(net.now_us() + 1_000_000);
    net.take_completions();

    // ----- schedule the scenario --------------------------------------
    let t0 = net.now_us();
    let horizon = t0 + cfg.horizon_us;
    let mut schedule = Schedule::default();
    // Node 0 is the immortal rendezvous; everyone else gets a session.
    for &addr in live.iter().skip(1) {
        let session = sample_weibull(&mut rng, cfg.mean_session_us, cfg.session_shape);
        schedule.push(t0 + session, ChurnEvent::Depart(addr));
    }
    schedule.push(t0 + cfg.op_interval_us, ChurnEvent::IssueGet);
    schedule.push(t0, ChurnEvent::Sample);

    let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
    // Keyed by `(coordinator, op)`: op ids are allocated per node and
    // collide across coordinators, so the bare id is ambiguous once many
    // GETs are in flight from different nodes (at 1k nodes the collisions
    // silently overwrote ~25% of the entries).
    let mut inflight: FxHashMap<(NodeAddr, u64), InflightGet> = FxHashMap::default();
    let mut gets = 0u64;
    let mut gets_ok = 0u64;
    let mut retries = 0u64;
    let mut departures = 0u64;
    let mut graceful_departures = 0u64;
    let mut joins = 0u64;
    let mut trace: Vec<(u64, f64)> = Vec::new();

    // Keys with at least one live authoritative holder.
    let held = |net: &SimNet<KademliaNode>, live: &[NodeAddr]| -> usize {
        let held = |key: &Id160| {
            live.iter()
                .any(|&a| net.is_alive(a) && net.node(a).storage().contains(key))
        };
        keys.iter().filter(|key| held(key)).count()
    };
    let availability =
        |net: &SimNet<KademliaNode>, live: &[NodeAddr]| held(net, live) as f64 / keys.len() as f64;
    // Issues an unfiltered GET for key `key_idx` from `addr`, its attempt
    // `attempts`.
    let issue = |net: &mut SimNet<KademliaNode>,
                 inflight: &mut FxHashMap<(NodeAddr, u64), InflightGet>,
                 addr: NodeAddr,
                 key_idx: usize,
                 attempts: u32| {
        let op = net.with_node(addr, |n, ctx| n.get_view(ctx, keys[key_idx], 0, false));
        let issued_at_us = net.now_us();
        inflight.insert(
            (addr, op),
            InflightGet {
                key_idx,
                issued_at_us,
                attempts,
            },
        );
    };

    // GETs unanswered for this long are retried/failed (covers ops whose
    // coordinator departed mid-lookup, taking its RPC timers with it).
    let get_deadline_us = 2_000_000u64;

    while let Some((at, ev)) = schedule.pop_until(horizon) {
        net.run_until(at.max(net.now_us()));

        // Settle completed GETs (and expire overdue ones) before the event.
        let mut done: Vec<((NodeAddr, u64), bool)> = Vec::new();
        for (addr, op, out) in net.take_completions_from() {
            if inflight.contains_key(&(addr, op)) {
                done.push((
                    (addr, op),
                    matches!(out, KadOutput::View { view: Some(_), .. }),
                ));
            }
        }
        let now = net.now_us();
        // dharma-lint: allow(D3): collected then sorted by (addr, op) — a total order
        let mut overdue: Vec<(NodeAddr, u64)> = inflight
            .iter()
            .filter(|(_, g)| now.saturating_sub(g.issued_at_us) > get_deadline_us)
            .map(|(&key, _)| key)
            .collect();
        // Expired GETs retry (and draw RNG) in whatever order this list
        // yields, so canonicalize it before the order reaches the trace.
        overdue.sort_unstable();
        for key in overdue {
            done.push((key, false));
        }
        for ((coordinator, op), ok) in done {
            let Some(get) = inflight.remove(&(coordinator, op)) else {
                continue;
            };
            if ok {
                gets_ok += 1;
            } else if get.attempts < GET_RETRIES {
                // Reissue from a different live node.
                retries += 1;
                let candidates: Vec<NodeAddr> = live
                    .iter()
                    .copied()
                    .filter(|&a| net.is_alive(a) && a != coordinator)
                    .collect();
                if let Some(&addr) = candidates.get(rng.gen_range(0..candidates.len().max(1))) {
                    issue(&mut net, &mut inflight, addr, get.key_idx, get.attempts + 1);
                }
            }
        }

        match ev {
            ChurnEvent::Depart(addr) => {
                if net.is_removed(addr) {
                    continue;
                }
                if rng.gen::<f64>() < cfg.graceful_fraction {
                    net.leave(addr, |n, ctx| n.leave(ctx));
                    graceful_departures += 1;
                } else {
                    net.remove(addr);
                }
                live.retain(|&a| a != addr);
                departures += 1;
                let downtime = sample_weibull(&mut rng, cfg.mean_downtime_us, 1.0);
                schedule.push(net.now_us() + downtime, ChurnEvent::Join);
            }
            ChurnEvent::Join => {
                let addr = add_member(&mut net, Id160::random(&mut rng), &kad);
                live.push(addr);
                joins += 1;
                let session = sample_weibull(&mut rng, cfg.mean_session_us, cfg.session_shape);
                schedule.push(net.now_us() + session, ChurnEvent::Depart(addr));
            }
            ChurnEvent::IssueGet => {
                let key_idx = zipf.sample(&mut rng);
                // `live` holds exactly the alive nodes (departures retain it,
                // joins push).
                debug_assert!(live.iter().all(|&a| net.is_alive(a)));
                let addr = live[rng.gen_range(0..live.len())];
                issue(&mut net, &mut inflight, addr, key_idx, 0);
                gets += 1;
                schedule.push(net.now_us() + cfg.op_interval_us, ChurnEvent::IssueGet);
            }
            ChurnEvent::Sample => {
                trace.push((at - t0, availability(&net, &live)));
                schedule.push(at + cfg.sample_interval_us, ChurnEvent::Sample);
            }
        }
    }

    // ----- settle: churn stops, in-flight work and repair finish -------
    let settle = cfg
        .repair
        .as_ref()
        .map(|m| 2 * m.repair_interval_us + 2_000_000)
        .unwrap_or(3_000_000);
    net.run_until(horizon + settle);
    for (addr, op, out) in net.take_completions_from() {
        if inflight.remove(&(addr, op)).is_some()
            && matches!(out, KadOutput::View { view: Some(_), .. })
        {
            gets_ok += 1;
        }
    }
    trace.push((net.now_us() - t0, availability(&net, &live)));
    let lost_records = keys.len() - held(&net, &live);
    let mean_availability = trace.iter().map(|(_, a)| a).sum::<f64>() / trace.len() as f64;
    let maint = counters.maintenance_messages();
    ChurnReport {
        gets,
        gets_ok,
        retries,
        lookup_success: if gets == 0 {
            1.0
        } else {
            gets_ok as f64 / gets as f64
        },
        availability_trace: trace,
        mean_availability,
        lost_records,
        departures,
        graceful_departures,
        joins,
        probes: counters.probes_sent(),
        handoffs: counters.handoffs(),
        rereplications: counters.rereplications(),
        leave_notices: counters.leave_notices(),
        leave_handoffs: counters.leave_handoffs(),
        messages_total: counters.sent(),
        maint_msgs_per_get: if gets == 0 {
            0.0
        } else {
            maint as f64 / gets as f64
        },
        events_processed: net.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(repair: Option<MaintConfig>, seed: u64) -> ChurnConfig {
        ChurnConfig {
            nodes: 20,
            k: 6,
            keys: 10,
            horizon_us: 60_000_000,
            op_interval_us: 500_000,
            mean_session_us: 20_000_000,
            mean_downtime_us: 4_000_000,
            repair,
            sample_interval_us: 3_000_000,
            seed,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn same_seed_identical_availability_trace() {
        let a = simulate_churn(&small(Some(ChurnConfig::smoke_repair()), 7));
        let b = simulate_churn(&small(Some(ChurnConfig::smoke_repair()), 7));
        assert_eq!(a, b, "fixed seed must be bit-identical");
        let c = simulate_churn(&small(Some(ChurnConfig::smoke_repair()), 8));
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn repair_keeps_records_alive_under_churn() {
        let with = simulate_churn(&small(Some(ChurnConfig::smoke_repair()), 9));
        assert!(with.departures > 0 && with.joins > 0, "churn must happen");
        assert_eq!(with.lost_records, 0, "repair must not lose records");
        assert!(
            with.lookup_success > 0.95,
            "success {:.3} too low",
            with.lookup_success
        );
        assert!(with.probes > 0 && with.rereplications > 0);
    }

    #[test]
    fn disabling_repair_degrades_availability() {
        let with = simulate_churn(&small(Some(ChurnConfig::smoke_repair()), 10));
        let without = simulate_churn(&small(None, 10));
        assert!(
            without.mean_availability < with.mean_availability,
            "repair off must degrade availability: {:.3} !< {:.3}",
            without.mean_availability,
            with.mean_availability
        );
        assert!(
            without.lost_records >= with.lost_records,
            "repair off loses at least as many records"
        );
    }

    #[test]
    fn graceful_departures_preserve_data() {
        let mut cfg = small(Some(ChurnConfig::smoke_repair()), 11);
        cfg.graceful_fraction = 1.0;
        let rep = simulate_churn(&cfg);
        assert!(rep.departures > 0, "churn must happen");
        assert_eq!(
            rep.graceful_departures, rep.departures,
            "fraction 1.0 makes every departure graceful"
        );
        assert!(rep.leave_notices > 0 && rep.leave_handoffs > 0);
        assert_eq!(rep.lost_records, 0, "parting handoff must not lose data");
        assert!(
            rep.lookup_success > 0.95,
            "success {:.3} too low",
            rep.lookup_success
        );
    }

    #[test]
    fn batched_populate_settles_every_key() {
        // write_batch > 1 is a scale knob, not a semantics change: records
        // still replicate and the run stays churn-correct end-to-end.
        let mut cfg = small(Some(ChurnConfig::smoke_repair()), 14);
        cfg.write_batch = 4;
        let rep = simulate_churn(&cfg);
        assert_eq!(rep.lost_records, 0, "batched populate must not lose data");
        assert!(
            rep.lookup_success > 0.9,
            "success {:.3} too low",
            rep.lookup_success
        );
    }

    #[test]
    fn gamma_1p_holds_the_shapes_in_use() {
        // x = 1 / shape for Weibull shapes 2, 1 and 0.5.
        for (x, want) in [(0.5, 0.886_226_925_452_758), (1.0, 1.0), (2.0, 2.0)] {
            let got = gamma_1p(x);
            assert!(
                ((got - want) / want).abs() < 1e-6,
                "Γ(1 + {x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn weibull_sampling_matches_mean_roughly() {
        let mut rng = StdRng::seed_from_u64(1);
        for shape in [0.7, 1.0, 1.5] {
            let n = 4000;
            let mean: f64 = (0..n)
                .map(|_| sample_weibull(&mut rng, 1_000_000, shape) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - 1_000_000.0).abs() < 120_000.0,
                "shape {shape}: empirical mean {mean}"
            );
        }
    }
}
