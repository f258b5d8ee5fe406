//! The benchmark's vocabulary: every workload and every metric, by name,
//! with its unit, direction and bound. `dharma-bench list` prints it, the
//! runs report through it, and a test holds `BENCHMARK.json` to it.

use crate::traced::MESSAGE_TYPES;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Name: letters, digits, `_`, `.` and `-` only.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The four workloads: name, and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "tag_plain",
        "Write path: DharmaClient inserts and tags on the paper's plain 256-node overlay; store fan-out, Storage merge, small appends, routing, signing. Cache, freshness, latency and maintenance do no work.",
    ),
    (
        "search_plain",
        "Read path on large blocks: DhtFacetedSearch sessions over bulk-loaded hub blocks on the same plain overlay; top-100 read_filtered, FoundValue codec, local narrowing. Shares Storage with tag_plain.",
    ),
    (
        "mixed_full",
        "Every optional layer on, 128 nodes, lossy 4-cluster topology, open loop in virtual time: 80% search steps, 20% re-tags. The only workload where virtual latency and staleness are observable.",
    ),
    (
        "udp_search",
        "Real loopback sockets: 2 UdpWorker threads x 8 nodes, closed loop of 64 scripts per worker, 90% search steps; net::udp, net::sys, codec and MTU truncation do the work, SimNet none.",
    ),
];

/// The end-to-end metrics, reported by every workload with `--trace 0`.
pub fn end_to_end() -> Vec<MetricSpec> {
    let e = |name: &str, unit, better, bound| MetricSpec {
        bound: Some(bound),
        ..m(name, unit, better)
    };
    // Each bound is at least three times the widest interquartile spread
    // ten seeds showed on any workload (README, "Bounds and measured
    // spread").
    vec![
        e("setup_s", "s", Better::Lower, 0.25),
        e("ops_per_s", "ops/s", Better::Higher, 0.20),
        e("cpu_us_per_op", "us/op", Better::Lower, 0.20),
        e("lookups_per_op", "lookups/op", Better::Lower, 0.03),
        e("msgs_per_op", "msgs/op", Better::Lower, 0.15),
        e("bytes_per_op", "bytes/op", Better::Lower, 0.15),
        e("lat_p50_ms", "ms", Better::Lower, 0.20),
        e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    ]
}

/// Message classes the codec probes time.
pub const CODEC_CLASSES: [&str; 5] = ["find", "found_nodes", "found_value_hub", "append", "push"];

/// The per-layer metrics, reported by every workload with `--trace 1`
/// (0 where a layer does no work in that workload).
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // Whole-run quality and cost figures that are exact per seed but
        // not comparable across workloads or seeds, so they carry no bound.
        m("e2e.fail_share", "share", Lower),
        m("e2e.stale_read_share", "share", Lower),
        m("e2e.max_load_ratio", "ratio", Lower),
        m("e2e.fg_tau_b", "tau", Higher),
        m("e2e.fg_recall", "share", Higher),
        m("e2e.virt_p50_ms", "ms", Lower),
        m("e2e.virt_p99_ms", "ms", Lower),
        m("e2e.issue_lag_p99_us", "us", Lower),
        m("core.client.self_us_per_op", "us/op", Lower),
        m("core.search.narrow_us_per_step", "us/op", Lower),
        m("likir.sign_us", "us", Lower),
        m("likir.verify_us", "us", Lower),
        m("types.block_key_ns", "ns", Lower),
    ];
    for what in ["encode_ns", "decode_ns", "bytes"] {
        for class in CODEC_CLASSES {
            let unit = if what == "bytes" { "bytes" } else { "ns" };
            v.push(m(format!("kad.codec.{what}.{class}"), unit, Lower));
        }
    }
    v.extend([
        m("kad.storage.append_ns", "ns", Lower),
        m("kad.storage.read_filtered_hub_ns", "ns", Lower),
        m("kad.storage.read_filtered_tail_ns", "ns", Lower),
        m("kad.storage.heap_bytes_per_node", "bytes", Lower),
        m("kad.storage.keys_per_node_max", "count", Lower),
        m("kad.routing.closest_ns", "ns", Lower),
        m("kad.routing.contacts_per_node", "count", Higher),
        m("kad.lookup.step_ns", "ns", Lower),
        m("kad.lookup.msgs_per_lookup", "msgs/op", Lower),
        m("kad.rtt.alpha_widened_per_kop", "count/kop", Lower),
        m("kad.rtt.samples_per_op", "count/op", Lower),
    ]);
    for (_, ty) in MESSAGE_TYPES {
        v.push(m(format!("kad.node.on_message_ns.{ty}"), "ns", Lower));
    }
    for (_, ty) in MESSAGE_TYPES {
        v.push(m(format!("kad.node.msgs_per_op.{ty}"), "msgs/op", Lower));
    }
    v.extend([
        m("kad.node.on_timer_ns", "ns", Lower),
        m("kad.node.timers_per_op", "count/op", Lower),
        m("kad.node.maint_msgs_per_op", "msgs/op", Lower),
        m("cache.hot.get_ns", "ns", Lower),
        m("cache.hot.insert_ns", "ns", Lower),
        m("cache.hit_ratio", "share", Higher),
        m("cache.fresh.stale_drops_per_kop", "count/kop", Lower),
        m("cache.fresh.revalidations_per_kop", "count/kop", Lower),
        m("cache.fetchers.pushes_per_write", "count/op", Lower),
        m("cache.popularity.replicas_promoted", "count", Lower),
        m("cache.fresh.digest_bytes_share", "share", Lower),
        m("net.sim.step_self_ns", "ns", Lower),
        m("net.sim.events_per_op", "count/op", Lower),
        m("net.sim.events_per_s", "1/s", Higher),
        m("net.sim.timer_share", "share", Lower),
        m("net.sim.dropped_share", "share", Lower),
        m("net.sys.send_ns_per_dgram", "ns", Lower),
        m("net.sys.recv_ns_per_dgram", "ns", Lower),
        m("net.udp.busy_share", "share", Higher),
        m("net.udp.pool_recycled_share", "share", Higher),
        m("net.udp.unknown_sender", "count", Lower),
        m("net.udp.oversize_rejected", "count", Lower),
        m("net.udp.wall_p50_us", "us", Lower),
        m("net.udp.wall_p99_us", "us", Lower),
        m("dataset.generate_ms", "ms", Lower),
        m("folksonomy.model_ms", "ms", Lower),
        m("folksonomy.compare_ms", "ms", Lower),
        m("bench.trace_overhead_share", "share", Lower),
        m("ledger.unattributed_share", "share", Lower),
    ]);
    v
}

/// True when `name` uses only the characters the contract allows, starts
/// with a letter or digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Prints every workload and metric with its unit (`dharma-bench list`).
pub fn print_list(out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "workloads:")?;
    for (name, why) in WORKLOADS {
        writeln!(out, "  {name:<14} {why}")?;
    }
    writeln!(out, "end_to_end:")?;
    for s in end_to_end() {
        writeln!(
            out,
            "  {:<44} {:<11} better={:<6} bound={}",
            s.name,
            s.unit,
            s.better.word(),
            s.bound.expect("end-to-end metrics carry a bound")
        )?;
    }
    writeln!(out, "per_layer:")?;
    for s in per_layer() {
        writeln!(
            out,
            "  {:<44} {:<11} better={}",
            s.name,
            s.unit,
            s.better.word()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (w, why) in WORKLOADS {
            assert!(valid_name(w), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}: why too long");
            assert!(seen.insert(w.to_owned()), "duplicate {w}");
        }
        for s in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&s.name), "{}", s.name);
            assert!(s.unit.len() <= 16, "{}", s.unit);
            assert!(seen.insert(s.name.clone()), "duplicate {}", s.name);
        }
        assert!(end_to_end()
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s" && s.better == Better::Lower));
        assert!(end_to_end()
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn valid_name_rejects_what_the_contract_rejects() {
        assert!(valid_name("kad.codec.encode_ns.find"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/op"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
