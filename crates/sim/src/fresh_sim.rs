//! Cache-freshness workload driver: the `dharma-fresh` evaluation.
//!
//! PR 2's hot-block cache trades staleness for hit ratio through a single
//! TTL knob: a short TTL keeps cached views fresh but re-fetches hot
//! blocks constantly, a long one serves stale data for its whole length.
//! Version gossip breaks the trade-off — digests piggybacked on replies
//! revalidate cached views between writes — and cache-aware routing sends
//! repeat GETs to peers that served the key before. This driver measures
//! both against the TTL-only baseline on the workload that matters: Zipf
//! GETs with a steady trickle of writes to the same keys.
//!
//! Every write appends a **uniquely named** entry through the overlay, so
//! the driver can tell exactly which writes any served view includes. For
//! each GET answered `from_cache`, the **staleness window** sample is how
//! long the oldest write missing from the served view had been completed
//! when the view was served (0 for complete views and authoritative
//! reads). The report's p99/max over all GETs, the cache hit ratio, and
//! the mean lookup messages per GET (hops) are the three numbers the
//! `ablation_freshness` acceptance bar is built on.

use dharma_cache::{CacheConfig, FreshConfig, PopularityConfig};
use dharma_dataset::Zipf;
use dharma_kademlia::{KadOutput, MaintConfig, StoredEntry};
use dharma_types::{sha1, Id160};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::output::percentile;
use crate::overlay::{add_member, build_overlay, drive, light_liveness, OverlayConfig, Pace};

/// Freshness-workload parameters.
#[derive(Clone, Debug)]
pub struct FreshSimConfig {
    /// Overlay size.
    pub nodes: usize,
    /// Kademlia replication factor.
    pub k: usize,
    /// Distinct tag-block keys.
    pub keys: usize,
    /// GET operations to replay.
    pub ops: usize,
    /// One overlay APPEND is issued every this many GETs (0 = no writes).
    pub write_every: usize,
    /// Hot-block cache on every node.
    pub cache: CacheConfig,
    /// Version gossip / cache-aware routing (`None` = TTL-only baseline).
    pub freshness: Option<FreshConfig>,
    /// Maintenance loop (probes carry `Pong` digests); kept identical
    /// across compared configurations.
    pub maintenance: Option<MaintConfig>,
    /// Holder turnover: every this many GETs, one current authoritative
    /// holder of the hottest key departs for good and a fresh-identity
    /// node joins in its place (0 = stable membership). Requires a
    /// repair-enabled [`FreshSimConfig::maintenance`] or records die with
    /// their holders. This is the churn-integration scenario: cached
    /// views must stay bounded-stale while the nodes that minted them
    /// disappear.
    pub turnover_every: usize,
    /// Master seed.
    pub seed: u64,
}

/// Zipf exponent of the key-popularity distribution.
const ZIPF_S: f64 = 1.2;

/// Virtual time between consecutive GETs, µs (paces the replay so TTLs
/// and maintenance cadences mean something).
const OP_INTERVAL_US: u64 = 30_000;

impl Default for FreshSimConfig {
    fn default() -> Self {
        FreshSimConfig {
            nodes: 64,
            k: 8,
            keys: 24,
            ops: 1500,
            write_every: 10,
            cache: FreshSimConfig::ablation_cache(),
            freshness: None,
            maintenance: Some(light_liveness()),
            turnover_every: 0,
            seed: 42,
        }
    }
}

impl FreshSimConfig {
    /// The `--smoke` scale of `ablation_freshness` (and the A8 section of
    /// `BENCH_ci.json`): 32 nodes, k = 6, 16 keys, 600 GETs.
    pub fn smoke(seed: u64) -> Self {
        FreshSimConfig {
            nodes: 32,
            k: 6,
            keys: 16,
            ops: 600,
            seed,
            ..FreshSimConfig::default()
        }
    }

    /// The A8 configurations over this workload, in table order, as
    /// `(label, JSON name, config)`: TTL-only, gossip, gossip with
    /// cache-aware (warm-peer) routing, and that plus invalidation push.
    pub fn ablation_arms(&self) -> [(&'static str, &'static str, FreshSimConfig); 4] {
        let arm = |freshness: Option<FreshConfig>, warm: bool| {
            let mut cfg = self.clone();
            cfg.freshness = freshness.map(|mut f| {
                f.cache_aware_routing = warm;
                f
            });
            cfg
        };
        let gossip = Self::ablation_freshness;
        [
            ("ttl-only", "ttl_only", arm(None, false)),
            ("gossip", "gossip", arm(Some(gossip()), false)),
            ("gossip+warm", "gossip_warm", arm(Some(gossip()), true)),
            (
                "gossip+push",
                "gossip_push",
                arm(Some(Self::ablation_freshness_push()), true),
            ),
        ]
    }

    /// The cache configuration of the ablation rows: a deliberately short
    /// TTL (5 virtual seconds), so the staleness/hit-ratio trade-off the
    /// gossip is meant to break is actually exercised.
    pub fn ablation_cache() -> CacheConfig {
        CacheConfig {
            capacity: 256,
            ttl_us: 5_000_000,
        }
    }

    /// The freshness configuration of the gossip rows.
    pub fn ablation_freshness() -> FreshConfig {
        FreshConfig::builder()
            .digest_max(8)
            .news_window_us(10_000_000)
            .hit_half_life_us(30_000_000)
            .warm_threshold(0.5)
            .max_view_lifetime_us(60_000_000) // 12 TTLs: the hard ceiling
            .refresh_age_us(1_750_000) // refresh well before the bar
            .max_serve_age_us(3_500_000) // 70% of the TTL: the staleness bound
            .build()
            .expect("ablation freshness config is in range")
    }

    /// The gossip configuration plus write-triggered invalidation push:
    /// holders notify a key's recent fetchers directly on every applied
    /// write, so hot cached views converge in one RTT instead of a gossip
    /// interval.
    pub fn ablation_freshness_push() -> FreshConfig {
        let mut cfg = FreshSimConfig::ablation_freshness();
        cfg.push_on_write = true;
        // Push only to fetchers whose cached views could still be served
        // stale: past the serve-age bar a view needs a fresh confirmation
        // anyway, so invalidating it buys nothing — and the window is
        // what keeps the push overhead within the 10% messages/GET bar.
        cfg.push_window_us = cfg.max_serve_age_us;
        // One extra slot of fan-out over the default: unacked pushes cost
        // one datagram, so wider coverage is what buys the sub-interval
        // p99 at both the full and the --smoke scale.
        cfg.push_fanout = 5;
        cfg
    }
}

/// What one freshness replay measured.
#[derive(Clone, Debug)]
pub struct FreshSimReport {
    /// GET operations replayed.
    pub gets: u64,
    /// Overlay APPENDs issued during the GET phase.
    pub writes: u64,
    /// GETs answered from a hot-block cache.
    pub cache_hits: u64,
    /// `cache_hits / gets`.
    pub hit_ratio: f64,
    /// p99 of the per-GET staleness-window samples, µs (0 = the 99th
    /// percentile GET served a complete view).
    pub p99_staleness_us: u64,
    /// Worst staleness window observed, µs.
    pub max_staleness_us: u64,
    /// Mean lookup datagrams per GET (the hop cost; 0 for local hits).
    pub mean_hops_per_get: f64,
    /// All datagrams sent per GET (lookups + gossip + maintenance).
    pub messages_per_get: f64,
    /// Version-gossip revalidation RPCs issued.
    pub revalidations: u64,
    /// Cached views dropped on stale digests.
    pub stale_drops: u64,
    /// Lookup queries redirected to warm peers.
    pub warm_redirects: u64,
    /// Write-triggered `InvalidatePush` messages sent by holders.
    pub invalidate_pushes: u64,
    /// Holder departures + replacement joins executed.
    pub turnovers: u64,
    /// GETs that found no value at all (churn casualties).
    pub lookup_failures: u64,
}

/// Each operation is driven in 5 ms virtual slices, with 10 virtual
/// seconds of patience.
const PACE: Pace = Pace::Slices {
    slice_us: 5_000,
    patience_us: 10_000_000,
};

/// Replays the freshness workload of [`FreshSimConfig`] and reports hit
/// ratio, staleness percentiles and lookup cost.
pub fn simulate_freshness(cfg: &FreshSimConfig) -> FreshSimReport {
    assert!(cfg.nodes >= 4, "need an overlay");
    assert!(cfg.keys >= 1 && cfg.ops >= 1);
    let overlay = OverlayConfig {
        nodes: cfg.nodes,
        k: cfg.k,
        seed: cfg.seed,
        cache: Some(cfg.cache.clone()),
        // Popularity tracking with promotion disabled (an impossibly high
        // hot threshold): holders rank their hottest keys for the digest
        // without adaptive replication muddying the comparison.
        replication: Some(PopularityConfig {
            hot_threshold: f64::INFINITY,
            ..PopularityConfig::default()
        }),
        maintenance: cfg.maintenance.clone(),
        freshness: cfg.freshness.clone(),
        ..OverlayConfig::default()
    };
    let mut net = build_overlay(&overlay);
    let counters = net.counters();
    // The fresh-identity nodes the turnover scenario spawns run exactly
    // the fleet's protocol config.
    let spawn_kad = overlay.kad_config(counters.clone());
    let mut live: Vec<u32> = (0..cfg.nodes as u32).collect();

    // Populate each tag block with a handful of uniquely named entries.
    let keys: Vec<Id160> = (0..cfg.keys)
        .map(|i| sha1(format!("fresh-block-{i}").as_bytes()))
        .collect();
    // Per key: the names of all writes applied so far, with the virtual
    // time their overlay APPEND completed — the staleness reference.
    let mut write_log: Vec<Vec<(u64, String)>> = vec![Vec::new(); cfg.keys];
    for (i, key) in keys.iter().enumerate() {
        let writer = live[i % live.len()];
        let entries: Vec<StoredEntry> = (0..4)
            .map(|e| StoredEntry {
                name: format!("seed-{e}"),
                weight: 1,
            })
            .collect();
        let op = net.with_node(writer, |n, ctx| n.append_many(ctx, *key, entries));
        drive(&mut net, op, PACE);
        let done = net.now_us();
        for e in 0..4 {
            write_log[i].push((done, format!("seed-{e}")));
        }
    }

    let hits_before = counters.cache_hits();
    let misses_before = counters.cache_misses();
    let sent_before = counters.sent();

    let zipf = Zipf::new(cfg.keys, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF4E54);
    let mut staleness: Vec<u64> = Vec::with_capacity(cfg.ops);
    let mut lookup_msgs = 0u64;
    let mut writes = 0u64;
    let mut turnovers = 0u64;
    let mut lookup_failures = 0u64;
    for i in 0..cfg.ops {
        net.run_until(net.now_us() + OP_INTERVAL_US);
        net.take_completions();
        if cfg.turnover_every > 0 && i > 0 && i % cfg.turnover_every == 0 {
            // One authoritative holder of the hottest key departs for
            // good (never the rendezvous); a fresh identity joins. Repair
            // and join-handoff must rebuild the replica set — and every
            // cached view minted from the departed holder must stay
            // bounded-stale through the turnover.
            let victim = live
                .iter()
                .copied()
                .find(|&a| a != 0 && net.node(a).storage().contains(&keys[0]));
            if let Some(victim) = victim {
                net.remove(victim);
                live.retain(|&a| a != victim);
                live.push(add_member(&mut net, Id160::random(&mut rng), &spawn_kad));
                turnovers += 1;
            }
        }
        if cfg.write_every > 0 && i % cfg.write_every == 0 {
            // A write lands on a Zipf-drawn key from a rotating writer —
            // hot keys are rewritten most, which is exactly the staleness
            // hazard the gossip exists for.
            let key_idx = zipf.sample(&mut rng);
            let writer = live[(i / cfg.write_every) % live.len()];
            let name = format!("w-{writes}");
            let key = keys[key_idx];
            let op = net.with_node(writer, |n, ctx| n.append(ctx, key, &name, 1));
            drive(&mut net, op, PACE);
            write_log[key_idx].push((net.now_us(), name));
            writes += 1;
        }
        let key_idx = zipf.sample(&mut rng);
        let requester = live[i % live.len()];
        let issued_at = net.now_us();
        // Unfiltered, so served views list every entry and staleness is
        // computed exactly.
        let op = net.with_node(requester, |n, ctx| n.get_view(ctx, keys[key_idx], 0, false));
        let out = drive(&mut net, op, PACE);
        let KadOutput::View { view, messages } = out else {
            panic!("GET completed with a non-view output");
        };
        lookup_msgs += u64::from(messages);
        if view.is_none() {
            lookup_failures += 1;
        }
        let sample = match view {
            Some(v) if v.from_cache => {
                // Which writes completed before this GET was issued but
                // are missing from the served view?
                let oldest_missing = write_log[key_idx]
                    .iter()
                    .filter(|(done, name)| {
                        *done <= issued_at && !v.entries().any(|(e, _)| e == name)
                    })
                    .map(|(done, _)| *done)
                    .min();
                oldest_missing
                    .map(|t| net.now_us().saturating_sub(t))
                    .unwrap_or(0)
            }
            _ => 0,
        };
        staleness.push(sample);
    }

    let gets = cfg.ops as u64;
    let cache_hits = counters.cache_hits() - hits_before;
    let cache_misses = counters.cache_misses() - misses_before;
    assert_eq!(cache_hits + cache_misses, gets, "every GET is accounted");
    staleness.sort_unstable();
    FreshSimReport {
        gets,
        writes,
        cache_hits,
        hit_ratio: cache_hits as f64 / gets as f64,
        p99_staleness_us: percentile(&staleness, 0.99),
        max_staleness_us: *staleness.last().expect("ops >= 1"),
        mean_hops_per_get: lookup_msgs as f64 / gets as f64,
        messages_per_get: (counters.sent() - sent_before) as f64 / gets as f64,
        revalidations: counters.revalidations(),
        stale_drops: counters.stale_drops(),
        warm_redirects: counters.warm_redirects(),
        invalidate_pushes: counters.invalidate_pushes(),
        turnovers,
        lookup_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(freshness: Option<FreshConfig>) -> FreshSimConfig {
        FreshSimConfig {
            nodes: 24,
            k: 4,
            keys: 10,
            ops: 240,
            write_every: 8,
            freshness,
            seed: 7,
            ..FreshSimConfig::default()
        }
    }

    #[test]
    fn ttl_only_baseline_reports_no_gossip_activity() {
        let rep = simulate_freshness(&small(None));
        assert_eq!(rep.gets, 240);
        assert!(rep.writes > 0);
        assert_eq!(rep.revalidations, 0);
        assert_eq!(rep.stale_drops, 0);
        assert_eq!(rep.warm_redirects, 0);
        assert!(rep.hit_ratio > 0.0, "the cache itself still works");
    }

    #[test]
    fn gossip_tightens_staleness_and_lifts_hit_ratio() {
        let baseline = simulate_freshness(&small(None));
        let gossip = simulate_freshness(&small(Some(FreshSimConfig::ablation_freshness())));
        assert!(
            gossip.stale_drops > 0,
            "digests must catch stale views on this write-heavy workload"
        );
        assert!(
            gossip.p99_staleness_us <= baseline.p99_staleness_us,
            "gossip must not widen the staleness window: {} vs {}",
            gossip.p99_staleness_us,
            baseline.p99_staleness_us
        );
        assert!(
            gossip.hit_ratio >= baseline.hit_ratio,
            "TTL extension must not lose hits: {:.3} vs {:.3}",
            gossip.hit_ratio,
            baseline.hit_ratio
        );
    }
}
