//! Acceptance tests for the `dharma-fresh` subsystem: version gossip and
//! cache-aware lookup routing on the Zipf GET + write-trickle workload.
//!
//! The headline guarantees, at integration scale:
//!
//! * against the TTL-only cache, gossip raises the hit ratio *and*
//!   tightens the staleness window at the same time — the trade-off the
//!   TTL knob alone cannot escape;
//! * warm-peer routing cuts the mean lookup cost per GET;
//! * under **holder turnover** (authoritative holders permanently
//!   replaced mid-run), `from_cache` staleness stays bounded: the gossip
//!   serve gate refuses views that outlived their confirmations, so
//!   membership churn cannot stretch what a cached read may return.

use dharma_sim::{simulate_freshness, FreshSimConfig, FreshSimReport};

fn base() -> FreshSimConfig {
    FreshSimConfig {
        nodes: 48,
        k: 8,
        keys: 20,
        ops: 900,
        write_every: 10,
        seed: 42,
        ..FreshSimConfig::default()
    }
}

fn run(freshness: bool) -> FreshSimReport {
    simulate_freshness(&FreshSimConfig {
        freshness: freshness.then(FreshSimConfig::ablation_freshness),
        ..base()
    })
}

#[test]
fn gossip_beats_ttl_only_on_both_sides_of_the_tradeoff() {
    let ttl_only = run(false);
    let gossip = run(true);

    assert_eq!(ttl_only.stale_drops, 0, "no gossip, no gossip drops");
    assert!(
        gossip.hit_ratio > ttl_only.hit_ratio,
        "gossip must raise the hit ratio: {:.3} -> {:.3}",
        ttl_only.hit_ratio,
        gossip.hit_ratio
    );
    assert!(
        gossip.p99_staleness_us < ttl_only.p99_staleness_us,
        "gossip must tighten p99 staleness: {} -> {} µs",
        ttl_only.p99_staleness_us,
        gossip.p99_staleness_us
    );
    assert!(
        gossip.max_staleness_us < ttl_only.max_staleness_us,
        "gossip must tighten worst-case staleness: {} -> {} µs",
        ttl_only.max_staleness_us,
        gossip.max_staleness_us
    );
    assert!(
        gossip.mean_hops_per_get < ttl_only.mean_hops_per_get,
        "warm routing must cut lookup cost: {:.2} -> {:.2}",
        ttl_only.mean_hops_per_get,
        gossip.mean_hops_per_get
    );
    assert!(gossip.stale_drops > 0, "digests must catch stale views");
    assert!(gossip.warm_redirects > 0, "warm routing must engage");
}

/// The churn-integration case: authoritative holders of the hottest key
/// keep departing (crash-style, no goodbye) and being replaced while the
/// write trickle continues. Version gossip must keep every `from_cache`
/// serve bounded-stale even though the holders that minted (and would
/// have re-confirmed) cached views are gone.
#[test]
fn gossip_keeps_cached_staleness_bounded_through_holder_turnover() {
    let churn_cfg = |freshness: bool| FreshSimConfig {
        turnover_every: 60, // one holder of the hot key replaced per ~2 s
        maintenance: Some(
            dharma_kademlia::MaintConfig::builder()
                .probe_interval_us(1_000_000)
                .repair_interval_us(4_000_000)
                .join_handoff(true)
                .build()
                .expect("turnover maintenance config is in range"),
        ),
        freshness: freshness.then(FreshSimConfig::ablation_freshness),
        ..base()
    };
    let ttl_only = simulate_freshness(&churn_cfg(false));
    let gossip = simulate_freshness(&churn_cfg(true));

    assert!(gossip.turnovers >= 10, "turnover must happen");
    assert_eq!(
        gossip.lookup_failures, 0,
        "repair keeps every GET answerable through the turnover"
    );
    // The bound: the serve-age gate plus delivery slack. A TTL-only cache
    // can serve anything up to its full TTL stale; with gossip a view
    // must have been minted or confirmed current within the serve bar.
    let fresh_cfg = FreshSimConfig::ablation_freshness();
    let bound = fresh_cfg.max_serve_age_us + 1_000_000;
    assert!(
        gossip.max_staleness_us <= bound,
        "gossip staleness {} µs exceeds the serve-age bound {} µs",
        gossip.max_staleness_us,
        bound
    );
    assert!(
        gossip.max_staleness_us < ttl_only.max_staleness_us,
        "gossip must out-bound TTL-only under churn: {} vs {} µs",
        gossip.max_staleness_us,
        ttl_only.max_staleness_us
    );
    assert!(
        gossip.stale_drops > 0,
        "turnover + writes must produce digest-driven drops"
    );
}
