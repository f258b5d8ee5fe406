//! **A9 — ablation**: latency-blind lookups vs proximity neighbor
//! selection + latency-biased shortlists vs the same plus adaptive α
//! (`dharma-latency`).
//!
//! Three configurations replay the same single-GET-at-a-time workload on
//! one geo-clustered topology — four metro clusters (1–15 ms within,
//! 15–140 ms across, ±2 ms jitter), 1% baseline loss, and one designated
//! lossy cluster at 25% — measuring the completion time of every GET in
//! `SimNet` virtual time (deterministic per seed) rather than its hop
//! count:
//!
//! * **baseline** — the latency-blind protocol of every prior PR: pure-LRU
//!   routing, XOR-ordered shortlists, fixed α;
//! * **pns+bias** — RTT books feed proximity neighbor selection and
//!   latency-biased shortlist ordering (α stays fixed);
//! * **adaptive-α** — additionally widens lookup parallelism α=3..8 on
//!   timeouts and narrows it back on clean streaks.
//!
//! Acceptance bar (the ROADMAP item 3 target, checked and enforced here so
//! CI fails fast on a latency-path regression): vs baseline, the full
//! adaptive-α configuration must improve **both p50 and p95 GET completion
//! time by ≥ 30%** at **equal or lower datagrams per GET**, with lookup
//! success **≥ 99%** — faster *and* no chattier, not faster by flooding.
//!
//! `--smoke` shrinks the overlay and op count for the CI job. Besides the
//! CSV series, the run writes `latency.json`: one object per configuration
//! with every field of the `LatencySimReport` it was measured from, for
//! readers who want more than the table. No other program reads it.

use dharma_kademlia::LatencyConfig;
use dharma_sim::output::{f2, CsvSink, TextTable};
use dharma_sim::{simulate_latency, ExpArgs, LatencySimConfig, LatencySimReport};

fn report_row(mode: &str, rep: &LatencySimReport) -> Vec<String> {
    vec![
        mode.to_string(),
        format!("{:.1}", rep.p50_us as f64 / 1_000.0),
        format!("{:.1}", rep.p95_us as f64 / 1_000.0),
        format!("{:.1}", rep.mean_us / 1_000.0),
        f2(rep.messages_per_get),
        format!("{:.3}", rep.success_ratio),
        rep.pns_evictions.to_string(),
        rep.alpha_widened.to_string(),
        f2(rep.mean_final_alpha),
    ]
}

/// Serializes one report as a JSON object body (no external deps: the
/// fields are all numeric, so hand-rolling is trivial and deterministic).
fn json_object(mode: &str, rep: &LatencySimReport) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"gets\": {},\n",
            "      \"success_ratio\": {:.6},\n",
            "      \"p50_us\": {},\n",
            "      \"p95_us\": {},\n",
            "      \"mean_us\": {:.1},\n",
            "      \"max_us\": {},\n",
            "      \"messages_per_get\": {:.4},\n",
            "      \"rtt_samples\": {},\n",
            "      \"pns_evictions\": {},\n",
            "      \"alpha_widened\": {},\n",
            "      \"alpha_narrowed\": {},\n",
            "      \"mean_final_alpha\": {:.4}\n",
            "    }}"
        ),
        mode,
        rep.gets,
        rep.success_ratio,
        rep.p50_us,
        rep.p95_us,
        rep.mean_us,
        rep.max_us,
        rep.messages_per_get,
        rep.rtt_samples,
        rep.pns_evictions,
        rep.alpha_widened,
        rep.alpha_narrowed,
        rep.mean_final_alpha,
    )
}

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let base = if smoke {
        LatencySimConfig::smoke(args.seed)
    } else {
        LatencySimConfig {
            seed: args.seed,
            ..LatencySimConfig::default()
        }
    };

    let run = |latency: Option<LatencyConfig>| -> LatencySimReport {
        simulate_latency(&LatencySimConfig {
            latency,
            ..base.clone()
        })
    };

    let baseline = run(None);
    let pns_bias = run(Some(
        LatencyConfig::builder()
            .adaptive_alpha(false)
            .build()
            .expect("pns+bias config is in range"),
    ));
    let full = run(Some(LatencyConfig::default()));

    let mut table = TextTable::new([
        "config",
        "p50 ms",
        "p95 ms",
        "mean ms",
        "msgs/GET",
        "success",
        "pns demotions",
        "α widened",
        "final α",
    ]);
    let rows = vec![
        report_row("baseline", &baseline),
        report_row("pns+bias", &pns_bias),
        report_row("adaptive-α", &full),
    ];
    for r in &rows {
        table.row(r.clone());
    }
    table.print(
        "Ablation A9 — latency-aware lookups on the clustered lossy topology (dharma-latency)",
    );
    println!(
        "(times are virtual-time GET completion on a 4-cluster topology, one \
         cluster lossy at 25%; msgs/GET counts every datagram sent during \
         the measured phase)"
    );

    // ----- the dharma-latency acceptance bar --------------------------
    let mut failures: Vec<String> = Vec::new();
    let p50_bar = (baseline.p50_us as f64 * 0.70) as u64;
    let p95_bar = (baseline.p95_us as f64 * 0.70) as u64;
    if full.p50_us > p50_bar {
        failures.push(format!(
            "p50 {} µs not >= 30% under the baseline {} µs (bar {} µs)",
            full.p50_us, baseline.p50_us, p50_bar
        ));
    }
    if full.p95_us > p95_bar {
        failures.push(format!(
            "p95 {} µs not >= 30% under the baseline {} µs (bar {} µs)",
            full.p95_us, baseline.p95_us, p95_bar
        ));
    }
    if full.messages_per_get > baseline.messages_per_get {
        failures.push(format!(
            "adaptive-α must not outspend the baseline: {:.2} vs {:.2} msgs/GET",
            full.messages_per_get, baseline.messages_per_get
        ));
    }
    if full.success_ratio < 0.99 {
        failures.push(format!(
            "lookup success {:.4} below the 99% floor",
            full.success_ratio
        ));
    }
    if pns_bias.pns_evictions == 0 {
        failures.push("PNS never demoted a slow bucket resident".to_string());
    }
    if full.alpha_widened == 0 {
        failures.push("adaptive α never widened on the lossy cluster".to_string());
    }
    if baseline.rtt_samples != 0 {
        failures.push("the latency-blind baseline recorded RTT samples".to_string());
    }

    let sink = CsvSink::new(&args.out, "ablation_latency").expect("output dir");
    let path = sink
        .write(
            "latency.csv",
            &[
                "config",
                "p50_ms",
                "p95_ms",
                "mean_ms",
                "messages_per_get",
                "success_ratio",
                "pns_evictions",
                "alpha_widened",
                "mean_final_alpha",
            ],
            rows,
        )
        .expect("write csv");
    println!("wrote {}", path.display());

    let json = format!(
        "{{\n  \"experiment\": \"ablation_latency\",\n  \"smoke\": {},\n  \"seed\": {},\n  \"configs\": {{\n{},\n{},\n{}\n  }}\n}}\n",
        smoke,
        args.seed,
        json_object("baseline", &baseline),
        json_object("pns_bias", &pns_bias),
        json_object("adaptive_alpha", &full),
    );
    let json_path = std::path::Path::new(&args.out)
        .join("ablation_latency")
        .join("latency.json");
    std::fs::write(&json_path, json).expect("write json");
    println!("wrote {}", json_path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ACCEPTANCE FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("acceptance checks passed ✓");
}
