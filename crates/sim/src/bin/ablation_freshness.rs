//! **A8 — ablation**: TTL-only cache expiry vs version gossip vs gossip
//! plus cache-aware (warm-peer) lookup routing vs write-triggered
//! invalidation push (`dharma-fresh`).
//!
//! Four configurations replay the same Zipf(1.2) GET workload with a
//! steady write trickle over a 64-node overlay, all with the same short
//! cache TTL:
//!
//! * **ttl-only** — the PR 2 cache: staleness bounded by TTL alone;
//! * **gossip** — version digests piggybacked on replies revalidate
//!   cached views (drop-or-refresh on stale, TTL restamp on confirmed);
//! * **gossip+warm** — additionally seeds GET shortlists with peers that
//!   recently served the key and prefers them during the lookup;
//! * **gossip+push** — additionally, holders push `InvalidatePush` to a
//!   key's recent fetchers on every applied write, so hot cached views
//!   converge in one RTT instead of waiting out a gossip interval.
//!
//! Acceptance bar (checked and enforced here, so CI fails fast on a
//! freshness-path regression): vs ttl-only, gossip+warm must deliver
//! **≥ 10 % higher cache hit ratio** *and* a **strictly smaller p99
//! staleness window**, and its warm-redirect routing must reduce the mean
//! lookup hops per GET below both the ttl-only row and the routing-less
//! gossip row. The push arm has its own bar: **p99 staleness below one
//! gossip interval (2 s)** for the hot-key workload, at **≤ 10 % extra
//! messages per GET** over the warm arm and a **hit ratio ≥ 0.34** — push
//! must buy exactness without giving the cache back.
//!
//! `--smoke` shrinks the overlay and op count for the CI job. Besides the
//! CSV series, the run writes `fresh.json` (the schema documented in
//! `DESIGN.md`) with every field of each configuration's report, for
//! readers who want more than the table. No other program reads it.

use dharma_sim::output::{f2, CsvSink, TextTable};
use dharma_sim::{simulate_freshness, ExpArgs, FreshSimConfig, FreshSimReport};

fn report_row(mode: &str, rep: &FreshSimReport) -> Vec<String> {
    vec![
        mode.to_string(),
        f2(rep.hit_ratio),
        format!("{:.1}", rep.p99_staleness_us as f64 / 1_000.0),
        format!("{:.1}", rep.max_staleness_us as f64 / 1_000.0),
        f2(rep.mean_hops_per_get),
        rep.stale_drops.to_string(),
        rep.revalidations.to_string(),
        rep.warm_redirects.to_string(),
        rep.invalidate_pushes.to_string(),
    ]
}

/// Serializes one report as a JSON object body (no external deps: the
/// fields are all numeric, so hand-rolling is trivial and deterministic).
fn json_object(mode: &str, rep: &FreshSimReport) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"gets\": {},\n",
            "      \"writes\": {},\n",
            "      \"hit_ratio\": {:.6},\n",
            "      \"p99_staleness_us\": {},\n",
            "      \"max_staleness_us\": {},\n",
            "      \"mean_hops_per_get\": {:.4},\n",
            "      \"messages_per_get\": {:.4},\n",
            "      \"stale_drops\": {},\n",
            "      \"revalidations\": {},\n",
            "      \"warm_redirects\": {},\n",
            "      \"invalidate_pushes\": {}\n",
            "    }}"
        ),
        mode,
        rep.gets,
        rep.writes,
        rep.hit_ratio,
        rep.p99_staleness_us,
        rep.max_staleness_us,
        rep.mean_hops_per_get,
        rep.messages_per_get,
        rep.stale_drops,
        rep.revalidations,
        rep.warm_redirects,
        rep.invalidate_pushes,
    )
}

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let base = if smoke {
        FreshSimConfig::smoke(args.seed)
    } else {
        FreshSimConfig {
            seed: args.seed,
            ..FreshSimConfig::default()
        }
    };

    let run = |freshness, warm: bool| -> FreshSimReport {
        let mut f: Option<dharma_cache::FreshConfig> = freshness;
        if let Some(f) = f.as_mut() {
            f.cache_aware_routing = warm;
        }
        simulate_freshness(&FreshSimConfig {
            freshness: f,
            ..base.clone()
        })
    };

    let ttl_only = run(None, false);
    let gossip = run(Some(FreshSimConfig::ablation_freshness()), false);
    let warm = run(Some(FreshSimConfig::ablation_freshness()), true);
    let push = run(Some(FreshSimConfig::ablation_freshness_push()), true);

    let mut table = TextTable::new([
        "config",
        "hit ratio",
        "p99 stale ms",
        "max stale ms",
        "hops/GET",
        "stale drops",
        "revalidations",
        "warm redirects",
        "pushes",
    ]);
    let rows = vec![
        report_row("ttl-only", &ttl_only),
        report_row("gossip", &gossip),
        report_row("gossip+warm", &warm),
        report_row("gossip+push", &push),
    ];
    for r in &rows {
        table.row(r.clone());
    }
    table.print("Ablation A8 — cache freshness policy (dharma-fresh)");
    println!(
        "(staleness is how long the oldest write missing from a cache-served \
         view had been durable when the view was served; hops/GET counts \
         lookup datagrams only)"
    );

    // ----- the dharma-fresh acceptance bar ----------------------------
    let mut failures: Vec<String> = Vec::new();
    if warm.hit_ratio < ttl_only.hit_ratio * 1.10 {
        failures.push(format!(
            "hit ratio {:.3} not >= 10% over the TTL-only baseline {:.3}",
            warm.hit_ratio, ttl_only.hit_ratio
        ));
    }
    if warm.p99_staleness_us >= ttl_only.p99_staleness_us {
        failures.push(format!(
            "p99 staleness {} µs not strictly below the TTL-only baseline {} µs",
            warm.p99_staleness_us, ttl_only.p99_staleness_us
        ));
    }
    if warm.mean_hops_per_get >= ttl_only.mean_hops_per_get {
        failures.push(format!(
            "warm routing should cut hops/GET below ttl-only: {:.2} vs {:.2}",
            warm.mean_hops_per_get, ttl_only.mean_hops_per_get
        ));
    }
    if warm.mean_hops_per_get >= gossip.mean_hops_per_get {
        failures.push(format!(
            "warm routing should cut hops/GET below routing-less gossip: {:.2} vs {:.2}",
            warm.mean_hops_per_get, gossip.mean_hops_per_get
        ));
    }
    if warm.warm_redirects == 0 {
        failures.push("warm routing never redirected a query".to_string());
    }
    if gossip.stale_drops == 0 {
        failures.push("gossip never caught a stale view".to_string());
    }
    // ----- the invalidation-push bar ----------------------------------
    // One gossip interval is the staleness cadence push is meant to beat:
    // a pushed invalidation lands in one RTT, so hot-key staleness must
    // collapse below the 2 s digest cadence, and the pushes must pay for
    // themselves — no more than 10% message overhead per GET over the
    // warm arm, without giving back the cache hit ratio.
    if push.p99_staleness_us >= 2_000_000 {
        failures.push(format!(
            "push p99 staleness {} µs not below one gossip interval (2_000_000 µs)",
            push.p99_staleness_us
        ));
    }
    if push.messages_per_get > warm.messages_per_get * 1.10 {
        failures.push(format!(
            "push messages/GET {:.4} exceeds 110% of the warm arm's {:.4}",
            push.messages_per_get, warm.messages_per_get
        ));
    }
    if push.hit_ratio < 0.34 {
        failures.push(format!(
            "push hit ratio {:.3} below the 0.34 floor",
            push.hit_ratio
        ));
    }
    if push.invalidate_pushes == 0 {
        failures.push("push arm never sent an InvalidatePush".to_string());
    }

    let sink = CsvSink::new(&args.out, "ablation_freshness").expect("output dir");
    let path = sink
        .write(
            "freshness.csv",
            &[
                "config",
                "hit_ratio",
                "p99_staleness_ms",
                "max_staleness_ms",
                "hops_per_get",
                "stale_drops",
                "revalidations",
                "warm_redirects",
                "invalidate_pushes",
            ],
            rows,
        )
        .expect("write csv");
    println!("wrote {}", path.display());

    let json = format!(
        "{{\n  \"experiment\": \"ablation_freshness\",\n  \"smoke\": {},\n  \"seed\": {},\n  \"configs\": {{\n{},\n{},\n{},\n{}\n  }}\n}}\n",
        smoke,
        args.seed,
        json_object("ttl_only", &ttl_only),
        json_object("gossip", &gossip),
        json_object("gossip_warm", &warm),
        json_object("gossip_push", &push),
    );
    let json_path = std::path::Path::new(&args.out)
        .join("ablation_freshness")
        .join("fresh.json");
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
