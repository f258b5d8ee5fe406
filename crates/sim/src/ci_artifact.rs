//! `BENCH_ci.json`: the consolidated CI benchmark artifact ([`artifact`]).
//!
//! The artifact is hand-rolled two-level JSON (`dharma-bench-ci/6`; the
//! schema is documented in `DESIGN.md`) holding only simulated, seeded
//! quality metrics. Two checks guard it byte for byte:
//! `crates/sim/tests/bench_sections.rs` pins every field at seed 42, and
//! `scripts/check-outputs.sh` hashes the file `bench_ci` writes against
//! `tests/outputs.sha256`. Wall-clock measurements are elsewhere: engine
//! throughput is `ablation_scale`'s, and GETs over real sockets (socket
//! layer included) `dharma-bench`'s `udp_search` workload.

use dharma_kademlia::LatencyConfig;

use crate::{
    simulate_cache_workload, simulate_churn, simulate_freshness, simulate_latency, CacheSimConfig,
    ChurnConfig, FreshSimConfig, LatencySimConfig,
};

/// Runs the four headline ablations (A5 cache, A7 adaptive maintenance,
/// A8 freshness, A9 latency) at smoke scale and renders `BENCH_ci.json`.
/// A pure function of `seed`: `crates/sim/tests/bench_sections.rs` pins
/// its sections byte-for-byte.
pub fn artifact(seed: u64) -> String {
    let cache_base = CacheSimConfig {
        nodes: 32,
        k: 6,
        keys: 16,
        ops: 600,
        zipf_s: 1.2,
        seed,
        ..CacheSimConfig::default()
    };
    let cache_off = simulate_cache_workload(&cache_base);
    let cache_on = simulate_cache_workload(&CacheSimConfig {
        cache: Some(CacheSimConfig::ablation_cache()),
        replication: Some(CacheSimConfig::ablation_replication()),
        ..cache_base
    });
    // How much the busiest node's GET load drops when caching is on.
    let max_load_ratio = if cache_on.max_get_load == 0 {
        0.0
    } else {
        cache_off.max_get_load as f64 / cache_on.max_get_load as f64
    };

    let churn = simulate_churn(&ChurnConfig {
        mean_session_us: 20_000_000,
        repair: Some(ChurnConfig::ablation_adaptive()),
        ..ChurnConfig::smoke(seed)
    });

    let fresh_base = FreshSimConfig::smoke(seed);
    let fresh_ttl = simulate_freshness(&fresh_base);
    let fresh_gossip = simulate_freshness(&FreshSimConfig {
        freshness: Some(FreshSimConfig::ablation_freshness()),
        ..fresh_base.clone()
    });
    // The push-enabled arm (gossip + warm routing + write-triggered
    // invalidation push) — the A8 arm with its own staleness/message
    // budget.
    let fresh_push = simulate_freshness(&FreshSimConfig {
        freshness: Some({
            let mut f = FreshSimConfig::ablation_freshness_push();
            f.cache_aware_routing = true;
            f
        }),
        ..fresh_base
    });

    let latency_base = LatencySimConfig::smoke(seed);
    let lat_blind = simulate_latency(&latency_base);
    let lat_full = simulate_latency(&LatencySimConfig {
        latency: Some(LatencyConfig::default()),
        ..latency_base
    });

    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"dharma-bench-ci/6\",\n",
            "  \"seed\": {seed},\n",
            "  \"cache\": {{\n",
            "    \"hit_ratio\": {hit:.6},\n",
            "    \"max_load_ratio\": {mlr:.4},\n",
            "    \"messages_per_get\": {mpg:.4}\n",
            "  }},\n",
            "  \"maintenance\": {{\n",
            "    \"lookup_success\": {ok:.6},\n",
            "    \"lost_records\": {lost},\n",
            "    \"maint_msgs_per_get\": {maint:.4}\n",
            "  }},\n",
            "  \"freshness\": {{\n",
            "    \"ttl_only_hit_ratio\": {fth:.6},\n",
            "    \"gossip_hit_ratio\": {fgh:.6},\n",
            "    \"ttl_only_p99_staleness_us\": {ftp},\n",
            "    \"gossip_p99_staleness_us\": {fgp},\n",
            "    \"ttl_only_hops_per_get\": {fthop:.4},\n",
            "    \"gossip_hops_per_get\": {fghop:.4},\n",
            "    \"push_hit_ratio\": {fph:.6},\n",
            "    \"push_p99_staleness_us\": {fpp},\n",
            "    \"push_msgs_per_get\": {fpm:.4}\n",
            "  }},\n",
            "  \"latency\": {{\n",
            "    \"baseline_p50_us\": {lbp50},\n",
            "    \"baseline_p95_us\": {lbp95},\n",
            "    \"baseline_messages_per_get\": {lbmpg:.4},\n",
            "    \"aware_p50_us\": {lap50},\n",
            "    \"aware_p95_us\": {lap95},\n",
            "    \"aware_messages_per_get\": {lampg:.4},\n",
            "    \"aware_lookup_success\": {lasucc:.6}\n",
            "  }}\n",
            "}}\n"
        ),
        seed = seed,
        hit = cache_on.hit_ratio,
        mlr = max_load_ratio,
        mpg = cache_on.messages_per_get,
        ok = churn.lookup_success,
        lost = churn.lost_records,
        maint = churn.maint_msgs_per_get,
        fth = fresh_ttl.hit_ratio,
        fgh = fresh_gossip.hit_ratio,
        ftp = fresh_ttl.p99_staleness_us,
        fgp = fresh_gossip.p99_staleness_us,
        fthop = fresh_ttl.mean_hops_per_get,
        fghop = fresh_gossip.mean_hops_per_get,
        fph = fresh_push.hit_ratio,
        fpp = fresh_push.p99_staleness_us,
        fpm = fresh_push.messages_per_get,
        lbp50 = lat_blind.p50_us,
        lbp95 = lat_blind.p95_us,
        lbmpg = lat_blind.messages_per_get,
        lap50 = lat_full.p50_us,
        lap95 = lat_full.p95_us,
        lampg = lat_full.messages_per_get,
        lasucc = lat_full.success_ratio,
    )
}
