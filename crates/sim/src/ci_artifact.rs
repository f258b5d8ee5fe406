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

use crate::{
    simulate_cache_workload, simulate_churn, simulate_freshness, simulate_latency, CacheSimConfig,
    ChurnConfig, FreshSimConfig, LatencySimConfig,
};

/// Runs the four headline ablations (A5 cache, A7 adaptive maintenance,
/// A8 freshness, A9 latency) at smoke scale and renders `BENCH_ci.json`.
/// Each section's arms are the ablation binaries' own
/// (`ablation_arms`). A pure function of `seed`:
/// `crates/sim/tests/bench_sections.rs` pins its sections byte-for-byte.
pub fn artifact(seed: u64) -> String {
    let cache_base = CacheSimConfig {
        nodes: 32,
        k: 6,
        keys: 16,
        ops: 600,
        seed,
        ..CacheSimConfig::default()
    };
    let [(_, cache_off), _, (_, cache_on)] = cache_base.ablation_arms();
    let cache_off = simulate_cache_workload(&cache_off);
    let cache_on = simulate_cache_workload(&cache_on);
    // How much the busiest node's GET load drops when caching is on.
    let max_load_ratio = if cache_on.max_get_load == 0 {
        0.0
    } else {
        cache_off.max_get_load as f64 / cache_on.max_get_load as f64
    };

    let mut churn = ChurnConfig::smoke(seed);
    churn.mean_session_us = 20_000_000;
    churn.repair = Some(ChurnConfig::ablation_adaptive());
    let churn = simulate_churn(&churn);

    // The TTL-only, gossip + warm routing and gossip + push rows of A8
    // (`cache_aware_routing` defaults to on, so this section's `gossip` is
    // the binary's `gossip+warm`).
    let [ttl, _, warm, push] = FreshSimConfig::smoke(seed).ablation_arms();
    let [fresh_ttl, fresh_gossip, fresh_push] = [ttl, warm, push].map(|a| simulate_freshness(&a.2));

    // The latency-blind and adaptive-α rows of A9.
    let [blind, _, full] = LatencySimConfig::smoke(seed).ablation_arms();
    let [lat_blind, lat_full] = [blind, full].map(|a| simulate_latency(&a.2));

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
