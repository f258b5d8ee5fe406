//! `BENCH_ci.json`: the consolidated CI benchmark artifact ([`artifact`])
//! and its trend gate ([`compare`]), which flags quality regressions
//! between two artifacts beyond a tolerance band.
//!
//! The artifact is hand-rolled two-level JSON (`dharma-bench-ci/6`; the
//! schema is documented in `DESIGN.md`). The parser here is deliberately
//! minimal — section-aware line scanning, no serde — because the format
//! is machine-written by this repo with one `"key": value` pair per line.
//!
//! Only *quality* metrics are gated, direction-aware:
//!
//! * higher-is-better: hit ratios, lookup success, max-load ratio,
//!   availability — regression when `new < old × (1 − tolerance)`;
//! * lower-is-better: staleness, hops, per-GET message costs, lost
//!   records, GET completion-time percentiles (`p50_us`/`p95_us`, virtual
//!   time, so deterministic) — regression when `new > old × (1 + tolerance)`
//!   (and any increase from a zero baseline).
//!
//! Everything else is informational: the seed, and whatever an older
//! baseline still carries that matches neither list — schemas `/1`–`/5`
//! had wall-clock `engine` and `udp` sections (events/sec, RSS,
//! datagrams/sec, wall latencies), which vary across runners and never
//! belonged in a pass/fail gate. `/6` emits only what it gates; engine
//! throughput and the real-socket swarm's ≥ 99 % loopback lookup success
//! are `ablation_scale`'s and `bench_udp`'s CI jobs.

use dharma_kademlia::LatencyConfig;
use dharma_types::FxHashMap;

use crate::{
    simulate_cache_workload, simulate_churn, simulate_freshness, simulate_latency, CacheSimConfig,
    ChurnConfig, FreshSimConfig, LatencySimConfig,
};

/// Gate tolerance: a metric may move 15% in the losing direction before
/// the comparison fails (the ROADMAP's trend-gate band).
pub const TOLERANCE: f64 = 0.15;

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
        nodes: 24,
        k: 8,
        keys: 12,
        horizon_us: 60_000_000,
        op_interval_us: 500_000,
        mean_session_us: 20_000_000,
        mean_downtime_us: 5_000_000,
        sample_interval_us: 3_000_000,
        repair: Some(ChurnConfig::ablation_adaptive()),
        seed,
        ..ChurnConfig::default()
    });

    let fresh_base = FreshSimConfig {
        nodes: 32,
        k: 6,
        keys: 16,
        ops: 600,
        seed,
        ..FreshSimConfig::default()
    };
    let fresh_ttl = simulate_freshness(&fresh_base);
    let fresh_gossip = simulate_freshness(&FreshSimConfig {
        freshness: Some(FreshSimConfig::ablation_freshness()),
        ..fresh_base.clone()
    });
    // The push-enabled arm (gossip + warm routing + write-triggered
    // invalidation push) — the A8 arm whose staleness/message budget the
    // trend gate watches.
    let fresh_push = simulate_freshness(&FreshSimConfig {
        freshness: Some({
            let mut f = FreshSimConfig::ablation_freshness_push();
            f.cache_aware_routing = true;
            f
        }),
        ..fresh_base
    });

    let latency_base = LatencySimConfig {
        nodes: 32,
        keys: 16,
        warmup_ops: 240,
        ops: 400,
        seed,
        ..LatencySimConfig::default()
    };
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

/// Flat metric view of one artifact: `"section.key" → value`.
pub fn parse_metrics(json: &str) -> FxHashMap<String, f64> {
    let mut out = FxHashMap::default();
    let mut section: Vec<String> = Vec::new();
    for raw in json.lines() {
        let line = raw.trim().trim_end_matches(',');
        if line.ends_with('}') && !section.is_empty() && !line.contains(':') {
            section.pop();
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        if value == "{" {
            section.push(key.to_string());
            continue;
        }
        if let Ok(num) = value.parse::<f64>() {
            let path = if section.is_empty() {
                key.to_string()
            } else {
                format!("{}.{key}", section.join("."))
            };
            out.insert(path, num);
        }
    }
    out
}

/// Whether a metric path is gated, and in which direction. `None` =
/// informational only.
fn direction(path: &str) -> Option<bool> {
    // true = higher is better, false = lower is better.
    let higher = [
        "hit_ratio",
        "lookup_success",
        "max_load_ratio",
        "availability",
    ];
    let lower = [
        "staleness",
        "hops",
        "per_get",
        "lost",
        "messages",
        "p50_us",
        "p95_us",
    ];
    if higher.iter().any(|m| path.contains(m)) {
        return Some(true);
    }
    if lower.iter().any(|m| path.contains(m)) {
        return Some(false);
    }
    None
}

/// Compares two artifacts; returns one line per regression (empty = pass).
/// Metrics present in only one artifact are skipped — schema growth must
/// not fail the gate against an older baseline.
pub fn compare(old_json: &str, new_json: &str) -> Vec<String> {
    let old = parse_metrics(old_json);
    let new = parse_metrics(new_json);
    let mut failures = Vec::new();
    let mut paths: Vec<&String> = old.keys().filter(|p| new.contains_key(*p)).collect();
    paths.sort();
    for path in paths {
        let Some(higher_better) = direction(path) else {
            continue;
        };
        let (o, n) = (old[path], new[path.as_str()]);
        let regressed = if higher_better {
            n < o * (1.0 - TOLERANCE)
        } else if o == 0.0 {
            n > 0.0
        } else {
            n > o * (1.0 + TOLERANCE)
        };
        if regressed {
            failures.push(format!(
                "{path}: {o} -> {n} ({} by more than {:.0}%)",
                if higher_better { "dropped" } else { "grew" },
                TOLERANCE * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
  "schema": "dharma-bench-ci/1",
  "seed": 42,
  "cache": {
    "hit_ratio": 0.800000,
    "max_load_ratio": 3.0000,
    "messages_per_get": 4.0000
  },
  "maintenance": {
    "lookup_success": 1.000000,
    "lost_records": 0,
    "maint_msgs_per_get": 10.0000
  },
  "freshness": {
    "gossip_p99_staleness_us": 100000,
    "gossip_hops_per_get": 2.0000,
    "push_hit_ratio": 0.400000,
    "push_p99_staleness_us": 1700000,
    "push_msgs_per_get": 12.0000
  },
  "latency": {
    "aware_p50_us": 12000,
    "aware_p95_us": 90000
  },
  "engine": {
    "serial_events_per_sec": 1000000.0,
    "speedup": 1.00
  },
  "udp": {
    "dgrams_per_sec_core": 500000.0,
    "batching_speedup": 2.100,
    "syscall_cost_ns": 650.0,
    "lookup_success": 1.000000,
    "p50_wall_us": 2300.0,
    "p99_wall_us": 4800.0
  }
}
"#;

    fn tweak(path_key: &str, new_value: &str) -> String {
        OLD.lines()
            .map(|l| {
                if l.trim_start().starts_with(&format!("\"{path_key}\"")) {
                    let comma = if l.trim_end().ends_with(',') { "," } else { "" };
                    format!("    \"{path_key}\": {new_value}{comma}")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parses_sections_into_paths() {
        let m = parse_metrics(OLD);
        assert_eq!(m["cache.hit_ratio"], 0.8);
        assert_eq!(m["maintenance.lost_records"], 0.0);
        assert_eq!(m["freshness.gossip_p99_staleness_us"], 100_000.0);
        assert_eq!(m["seed"], 42.0);
        assert!(!m.contains_key("schema"), "non-numeric values are skipped");
    }

    #[test]
    fn identical_artifacts_pass() {
        assert!(compare(OLD, OLD).is_empty());
    }

    #[test]
    fn higher_better_drop_fails_and_rise_passes() {
        let dropped = tweak("hit_ratio", "0.600000");
        assert_eq!(compare(OLD, &dropped).len(), 1, "20% hit-ratio drop gates");
        let improved = tweak("hit_ratio", "0.900000");
        assert!(compare(OLD, &improved).is_empty());
        let within = tweak("hit_ratio", "0.700000");
        assert!(compare(OLD, &within).is_empty(), "12.5% drop is in-band");
    }

    #[test]
    fn lower_better_growth_fails_and_drop_passes() {
        let grew = tweak("gossip_hops_per_get", "2.4000");
        assert_eq!(compare(OLD, &grew).len(), 1, "20% hops growth gates");
        let shrunk = tweak("gossip_hops_per_get", "1.0000");
        assert!(compare(OLD, &shrunk).is_empty());
    }

    #[test]
    fn completion_time_percentiles_gate_as_lower_better() {
        let slower = tweak("aware_p95_us", "120000");
        assert_eq!(compare(OLD, &slower).len(), 1, "33% p95 growth gates");
        let faster = tweak("aware_p50_us", "8000");
        assert!(compare(OLD, &faster).is_empty());
    }

    #[test]
    fn push_freshness_fields_gate_both_directions() {
        // Schema-v5 push arm: staleness and message cost are lower-better…
        let staler = tweak("push_p99_staleness_us", "2100000");
        assert_eq!(compare(OLD, &staler).len(), 1, "24% staleness growth gates");
        let fresher = tweak("push_p99_staleness_us", "900000");
        assert!(compare(OLD, &fresher).is_empty(), "improvement passes");
        let chattier = tweak("push_msgs_per_get", "15.0000");
        assert_eq!(
            compare(OLD, &chattier).len(),
            1,
            "25% msgs/GET growth gates"
        );
        let quieter = tweak("push_msgs_per_get", "9.0000");
        assert!(compare(OLD, &quieter).is_empty(), "improvement passes");
        // …and the push arm's hit ratio is higher-better.
        let colder = tweak("push_hit_ratio", "0.300000");
        assert_eq!(compare(OLD, &colder).len(), 1, "25% hit drop gates");
        let warmer = tweak("push_hit_ratio", "0.500000");
        assert!(compare(OLD, &warmer).is_empty(), "improvement passes");
    }

    #[test]
    fn zero_baseline_lower_better_gates_any_growth() {
        let lost = tweak("lost_records", "1");
        assert_eq!(compare(OLD, &lost).len(), 1, "0 -> 1 lost records gates");
    }

    #[test]
    fn wall_clock_metrics_are_informational() {
        let slower = tweak("serial_events_per_sec", "100.0");
        let no_speedup = tweak("speedup", "0.10");
        assert!(compare(OLD, &slower).is_empty());
        assert!(compare(OLD, &no_speedup).is_empty());
    }

    #[test]
    fn udp_wall_metrics_are_informational() {
        // Host-dependent measurements must never fail the gate, however
        // badly a slow runner skews them.
        for (key, value) in [
            ("dgrams_per_sec_core", "1000.0"),
            ("batching_speedup", "0.500"),
            ("p50_wall_us", "99999.0"),
            ("p99_wall_us", "999999.0"),
            ("syscall_cost_ns", "5000.0"),
        ] {
            assert!(
                compare(OLD, &tweak(key, value)).is_empty(),
                "udp.{key} must not gate"
            );
        }
    }

    #[test]
    fn udp_lookup_success_gates_as_higher_better() {
        let dropped = tweak("lookup_success", "0.800000");
        // Both maintenance.lookup_success and udp.lookup_success drop (the
        // tweak helper matches by key), and both must gate.
        assert_eq!(compare(OLD, &dropped).len(), 2, "20% success drop gates");
    }

    #[test]
    fn schema_growth_does_not_fail_old_baselines() {
        let extended = OLD.replace(
            "  \"engine\": {",
            "  \"extra\": {\n    \"new_hops_per_get\": 9.0\n  },\n  \"engine\": {",
        );
        assert!(
            compare(OLD, &extended).is_empty(),
            "new metrics are skipped"
        );
        assert!(compare(&extended, OLD).is_empty(), "removed metrics too");
    }
}
