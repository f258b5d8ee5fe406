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

use dharma_sim::output::{f2, ms, Acceptance, Col, Table};
use dharma_sim::{simulate_latency, ExpArgs, LatencySimConfig, LatencySimReport};

type Row = (&'static str, &'static str, LatencySimReport);
type C = Col<Row>;

/// The text table and the CSV share their cells; `latency.json` carries
/// every report field, with full precision and times in µs.
const COLUMNS: &[C] = &[
    C::new("config", "config", |r| r.0.to_string()),
    C::json("gets", |r| r.2.gets.to_string()),
    C::json("success_ratio", |r| format!("{:.6}", r.2.success_ratio)),
    C::new("p50 ms", "p50_ms", |r| ms(r.2.p50_us as f64))
        .and_json("p50_us", |r| r.2.p50_us.to_string()),
    C::new("p95 ms", "p95_ms", |r| ms(r.2.p95_us as f64))
        .and_json("p95_us", |r| r.2.p95_us.to_string()),
    C::new("mean ms", "mean_ms", |r| ms(r.2.mean_us))
        .and_json("mean_us", |r| format!("{:.1}", r.2.mean_us)),
    C::json("max_us", |r| r.2.max_us.to_string()),
    C::new("msgs/GET", "messages_per_get", |r| f2(r.2.messages_per_get))
        .and_json("messages_per_get", |r| {
            format!("{:.4}", r.2.messages_per_get)
        }),
    C::new("success", "success_ratio", |r| {
        format!("{:.3}", r.2.success_ratio)
    }),
    C::json("rtt_samples", |r| r.2.rtt_samples.to_string()),
    C::new("pns demotions", "pns_evictions", |r| {
        r.2.pns_evictions.to_string()
    })
    .and_json("pns_evictions", |r| r.2.pns_evictions.to_string()),
    C::new("α widened", "alpha_widened", |r| {
        r.2.alpha_widened.to_string()
    })
    .and_json("alpha_widened", |r| r.2.alpha_widened.to_string()),
    C::json("alpha_narrowed", |r| r.2.alpha_narrowed.to_string()),
    C::new("final α", "mean_final_alpha", |r| f2(r.2.mean_final_alpha))
        .and_json("mean_final_alpha", |r| {
            format!("{:.4}", r.2.mean_final_alpha)
        }),
];

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let mut base = if smoke {
        LatencySimConfig::smoke(args.seed)
    } else {
        LatencySimConfig::default()
    };
    base.seed = args.seed;
    let mut table = Table::new(COLUMNS);
    for (label, name, cfg) in base.ablation_arms() {
        table.rows.push((label, name, simulate_latency(&cfg)));
    }
    let [baseline, pns_bias, full] = [0, 1, 2].map(|i| &table.rows[i].2);
    table.print(
        "Ablation A9 — latency-aware lookups on the clustered lossy topology (dharma-latency)",
        "(times are virtual-time GET completion on a 4-cluster topology, one \
         cluster lossy at 25%; msgs/GET counts every datagram sent during \
         the measured phase)",
    );

    // ----- the dharma-latency acceptance bar --------------------------
    let mut bar = Acceptance::default();
    let p50_bar = (baseline.p50_us as f64 * 0.70) as u64;
    let p95_bar = (baseline.p95_us as f64 * 0.70) as u64;
    bar.fail_if(
        full.p50_us > p50_bar,
        format!(
            "p50 {} µs not >= 30% under the baseline {} µs (bar {} µs)",
            full.p50_us, baseline.p50_us, p50_bar
        ),
    );
    bar.fail_if(
        full.p95_us > p95_bar,
        format!(
            "p95 {} µs not >= 30% under the baseline {} µs (bar {} µs)",
            full.p95_us, baseline.p95_us, p95_bar
        ),
    );
    bar.fail_if(
        full.messages_per_get > baseline.messages_per_get,
        format!(
            "adaptive-α must not outspend the baseline: {:.2} vs {:.2} msgs/GET",
            full.messages_per_get, baseline.messages_per_get
        ),
    );
    bar.fail_if(
        full.success_ratio < 0.99,
        format!(
            "lookup success {:.4} below the 99% floor",
            full.success_ratio
        ),
    );
    bar.fail_if(
        pns_bias.pns_evictions == 0,
        "PNS never demoted a slow bucket resident".into(),
    );
    bar.fail_if(
        full.alpha_widened == 0,
        "adaptive α never widened on the lossy cluster".into(),
    );
    bar.fail_if(
        baseline.rtt_samples != 0,
        "the latency-blind baseline recorded RTT samples".into(),
    );

    table.write_csv(&args.out, "ablation_latency", "latency.csv");
    table.write_json(
        &args.out,
        "ablation_latency",
        "latency.json",
        smoke,
        args.seed,
        |r| r.1,
    );
    bar.finish();
}
