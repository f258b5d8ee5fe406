//! Hot-block caching / adaptive-replication workload driver.
//!
//! DHARMA's folksonomy traffic is Zipf-shaped (paper §III): a handful of
//! popular `t̄`/`t̂` blocks receive almost all GETs, and in a plain Kademlia
//! overlay every one of those GETs lands on the `k` nodes closest to the
//! block key. This driver replays exactly that workload — `ops` filtered
//! GETs over `keys` tag blocks, ranks drawn Zipf(`zipf_s`), requesters
//! cycling round-robin through the overlay — against a configurable overlay
//! (cache on/off, adaptive replication on/off) and reports the two numbers
//! the `dharma-cache` subsystem exists to move:
//!
//! * **cache hit ratio** — share of GETs answered by a hot-block cache
//!   (requester-local or met on the lookup path) instead of authoritative
//!   storage;
//! * **max per-node GET load** — the `FIND_VALUE` count of the busiest
//!   node, i.e. how sharp the hot-spot is.
//!
//! Used by the `ablation_cache` binary and the `cache_effectiveness`
//! integration test.

use dharma_cache::{CacheConfig, PopularityConfig};
use dharma_dataset::Zipf;
use dharma_kademlia::StoredEntry;
use dharma_types::{sha1, Id160};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::overlay::{build_overlay, drive, OverlayConfig, Pace};

/// Cache-workload parameters.
#[derive(Clone, Debug)]
pub struct CacheSimConfig {
    /// Overlay size.
    pub nodes: usize,
    /// Kademlia replication factor (small k sharpens the hot-spot).
    pub k: usize,
    /// Distinct tag-block keys.
    pub keys: usize,
    /// GET operations to replay.
    pub ops: usize,
    /// Zipf exponent of the key-popularity distribution.
    pub zipf_s: f64,
    /// Index-side filtering limit passed on every GET.
    pub top_n: u32,
    /// Hot-block cache configuration (`None` = baseline overlay).
    pub cache: Option<CacheConfig>,
    /// Adaptive replication configuration.
    pub replication: Option<PopularityConfig>,
    /// Master seed.
    pub seed: u64,
}

impl Default for CacheSimConfig {
    fn default() -> Self {
        CacheSimConfig {
            nodes: 64,
            k: 8,
            keys: 32,
            ops: 1500,
            zipf_s: 1.2,
            top_n: 0,
            cache: None,
            replication: None,
            seed: 42,
        }
    }
}

impl CacheSimConfig {
    /// The A5 configurations over this workload, in table order: the
    /// baseline, hot-block caching, and caching plus adaptive replication.
    pub fn ablation_arms(&self) -> [(&'static str, CacheSimConfig); 3] {
        let arm = |cache: bool, replication: bool| {
            let mut cfg = self.clone();
            cfg.cache = cache.then(Self::ablation_cache);
            cfg.replication = replication.then(Self::ablation_replication);
            cfg
        };
        [
            ("baseline", arm(false, false)),
            ("cache", arm(true, false)),
            ("cache+repl", arm(true, true)),
        ]
    }

    /// The cache configuration used by the "cache on" ablation rows: large
    /// enough to hold every hot view, TTL far beyond the replay's virtual
    /// duration (staleness is exercised by the unit/property tests; the
    /// ablation isolates load spreading).
    pub fn ablation_cache() -> CacheConfig {
        CacheConfig {
            capacity: 256,
            ttl_us: 600_000_000, // 10 virtual minutes
        }
    }

    /// The adaptive-replication configuration used by the ablation rows.
    pub fn ablation_replication() -> PopularityConfig {
        PopularityConfig {
            half_life_us: 60_000_000,
            hot_threshold: 4.0,
            max_extra_replicas: 8,
            max_tracked: 4096,
            promote_cooldown_us: 2_000_000,
        }
    }
}

/// What one cache-workload replay measured.
#[derive(Clone, Copy, Debug)]
pub struct CacheSimReport {
    /// GET operations replayed.
    pub gets: u64,
    /// GETs answered from a hot-block cache.
    pub cache_hits: u64,
    /// GETs that reached authoritative storage (or found nothing).
    pub cache_misses: u64,
    /// `cache_hits / gets`.
    pub hit_ratio: f64,
    /// `FIND_VALUE` requests received by the busiest node during the replay.
    pub max_get_load: u64,
    /// Mean `FIND_VALUE` requests per node during the replay.
    pub mean_get_load: f64,
    /// Datagrams sent per GET (lookup fan-out plus cache pushes).
    pub messages_per_get: f64,
    /// Replica snapshots pushed beyond `k` by adaptive replication.
    pub replicas_promoted: u64,
}

/// Replays the Zipf GET workload of [`CacheSimConfig`] and reports cache
/// effectiveness and load concentration.
pub fn simulate_cache_workload(cfg: &CacheSimConfig) -> CacheSimReport {
    let nodes = cfg.nodes;
    assert!(nodes >= 2, "need an overlay");
    assert!(cfg.keys >= 1 && cfg.ops >= 1);
    let mut net = build_overlay(&OverlayConfig {
        nodes,
        k: cfg.k,
        seed: cfg.seed,
        cache: cfg.cache.clone(),
        replication: cfg.replication.clone(),
        ..OverlayConfig::default()
    });
    let counters = net.counters();

    // Populate the tag blocks: each key gets one weighted-set block with a
    // few entries, written from a deterministic spread of nodes.
    let keys: Vec<Id160> = (0..cfg.keys)
        .map(|i| sha1(format!("tag-block-{i}").as_bytes()))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let writer = (i % nodes) as u32;
        let entries: Vec<StoredEntry> = (0..8)
            .map(|e| StoredEntry {
                name: format!("entry-{e}"),
                weight: (e + 1) * 3,
            })
            .collect();
        let op = net.with_node(writer, |n, ctx| n.append_many(ctx, *key, entries));
        drive(&mut net, op, Pace::Steps);
    }

    // Measure only the GET phase.
    let hits_before = counters.cache_hits();
    let misses_before = counters.cache_misses();
    let promoted_before = counters.replicas_promoted();
    let sent_before = counters.sent();
    let load_before: Vec<u64> = (0..nodes)
        .map(|a| net.node(a as u32).gets_served())
        .collect();

    let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xCAC4E);
    for i in 0..cfg.ops {
        let requester = (i % nodes) as u32;
        let key = keys[zipf.sample(&mut rng)];
        let op = net.with_node(requester, |n, ctx| n.get_view(ctx, key, cfg.top_n, false));
        drive(&mut net, op, Pace::Steps);
    }
    // Let in-flight cache pushes and promotion replicas land before the
    // final per-node accounting.
    net.run_until_idle(u64::MAX);
    net.take_completions();

    let gets = cfg.ops as u64;
    let cache_hits = counters.cache_hits() - hits_before;
    let cache_misses = counters.cache_misses() - misses_before;
    let loads: Vec<u64> = (0..nodes)
        .map(|a| net.node(a as u32).gets_served() - load_before[a])
        .collect();
    let max_get_load = loads.iter().copied().max().unwrap_or(0);
    let mean_get_load = loads.iter().sum::<u64>() as f64 / nodes as f64;
    CacheSimReport {
        gets,
        cache_hits,
        cache_misses,
        hit_ratio: cache_hits as f64 / gets as f64,
        max_get_load,
        mean_get_load,
        messages_per_get: (counters.sent() - sent_before) as f64 / gets as f64,
        replicas_promoted: counters.replicas_promoted() - promoted_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(cache: Option<CacheConfig>) -> CacheSimConfig {
        CacheSimConfig {
            nodes: 24,
            k: 4,
            keys: 12,
            ops: 200,
            zipf_s: 1.2,
            cache,
            ..CacheSimConfig::default()
        }
    }

    #[test]
    fn baseline_records_no_hits() {
        let rep = simulate_cache_workload(&small(None));
        assert_eq!(rep.gets, 200);
        assert_eq!(rep.cache_hits, 0, "no cache, no hits");
        assert_eq!(rep.cache_hits + rep.cache_misses, rep.gets);
        assert!(rep.max_get_load as f64 >= rep.mean_get_load);
    }

    #[test]
    fn caching_produces_hits_and_spreads_load() {
        let baseline = simulate_cache_workload(&small(None));
        let cached = simulate_cache_workload(&small(Some(CacheSimConfig::ablation_cache())));
        assert!(
            cached.hit_ratio > 0.3,
            "hit ratio {:.2} too low",
            cached.hit_ratio
        );
        assert!(
            cached.max_get_load < baseline.max_get_load,
            "caching must shave the hot-spot: {} -> {}",
            baseline.max_get_load,
            cached.max_get_load
        );
        assert_eq!(cached.cache_hits + cached.cache_misses, cached.gets);
    }
}
