//! Pins the deterministic quality sections of `BENCH_ci.json` at the
//! default seed, byte-for-byte.
//!
//! The four sim sections (cache / maintenance / freshness / latency) are
//! pure functions of the seed — the engine trace behind them is
//! bit-reproducible, so their values must not move unless a protocol
//! change *intends* to move them. This test renders the artifact with the
//! function `bench_ci` itself prints (`ci_artifact::artifact`) and pins
//! the value text of its fields, so any drift — a hash-order leak, an RNG
//! draw reordering, an accidental config change — fails CI with a
//! readable before/after instead of silently shifting the benchmark
//! artifact.
//!
//! If a change legitimately moves these numbers, rerun
//! `cargo run --release -p dharma-sim --bin bench_ci`, copy the new
//! values here, re-pin `tests/outputs.sha256` (`scripts/check-outputs.sh`
//! writes the new manifest), and say why in the commit message.

use std::sync::OnceLock;

use dharma_sim::ci_artifact;

const SEED: u64 = 42;

/// The value text of `section.key`, exactly as the artifact prints it.
fn field(section: &str, key: &str) -> &'static str {
    static ARTIFACT: OnceLock<String> = OnceLock::new();
    let json = ARTIFACT.get_or_init(|| ci_artifact::artifact(SEED));
    let body = json
        .split_once(&format!("  \"{section}\": {{\n"))
        .unwrap_or_else(|| panic!("no section {section}"))
        .1;
    let body = &body[..body.find('}').expect("section closes")];
    body.split_once(&format!("    \"{key}\": "))
        .unwrap_or_else(|| panic!("no field {section}.{key}"))
        .1
        .split([',', '\n'])
        .next()
        .expect("split yields a first piece")
}

#[test]
fn cache_section_is_pinned() {
    let f = |key| field("cache", key);
    let got = format!(
        "hit_ratio={} max_load_ratio={} messages_per_get={}",
        f("hit_ratio"),
        f("max_load_ratio"),
        f("messages_per_get")
    );
    assert_eq!(
        got,
        "hit_ratio=0.430000 max_load_ratio=3.9245 messages_per_get=3.0917"
    );
}

#[test]
fn maintenance_section_is_pinned() {
    let f = |key| field("maintenance", key);
    let got = format!(
        "lookup_success={} lost_records={} maint_msgs_per_get={}",
        f("lookup_success"),
        f("lost_records"),
        f("maint_msgs_per_get")
    );
    assert_eq!(
        got,
        "lookup_success=1.000000 lost_records=0 maint_msgs_per_get=25.5000"
    );
}

#[test]
fn freshness_section_is_pinned() {
    let f = |key| field("freshness", key);
    let got = format!(
        "ttl_hit={} gossip_hit={} ttl_p99_staleness_us={} gossip_p99_staleness_us={} \
         ttl_hops={} gossip_hops={} push_hit_ratio={} push_p99_staleness_us={} \
         push_msgs_per_get={}",
        f("ttl_only_hit_ratio"),
        f("gossip_hit_ratio"),
        f("ttl_only_p99_staleness_us"),
        f("gossip_p99_staleness_us"),
        f("ttl_only_hops_per_get"),
        f("gossip_hops_per_get"),
        f("push_hit_ratio"),
        f("push_p99_staleness_us"),
        f("push_msgs_per_get")
    );
    assert_eq!(
        got,
        "ttl_hit=0.265000 gossip_hit=0.403333 ttl_p99_staleness_us=3600000 \
         gossip_p99_staleness_us=2410000 ttl_hops=1.8583 gossip_hops=1.2817 \
         push_hit_ratio=0.395000 push_p99_staleness_us=1640000 push_msgs_per_get=7.9333"
    );
}

#[test]
fn latency_section_is_pinned() {
    let f = |key| field("latency", key);
    let got = format!(
        "blind_p50={} blind_p95={} blind_mpg={} aware_p50={} aware_p95={} aware_mpg={} \
         aware_success={}",
        f("baseline_p50_us"),
        f("baseline_p95_us"),
        f("baseline_messages_per_get"),
        f("aware_p50_us"),
        f("aware_p95_us"),
        f("aware_messages_per_get"),
        f("aware_lookup_success")
    );
    assert_eq!(
        got,
        "blind_p50=18750 blind_p95=241000 blind_mpg=7.2875 aware_p50=12500 aware_p95=88500 \
         aware_mpg=5.9400 aware_success=1.000000"
    );
}
