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

use dharma_sim::output::{f2, ms, Acceptance, Col, Table};
use dharma_sim::{simulate_freshness, ExpArgs, FreshSimConfig, FreshSimReport};

type Row = (&'static str, &'static str, FreshSimReport);
type C = Col<Row>;

/// The text table and the CSV share their cells; `fresh.json` carries
/// every report field, with full precision and staleness in µs.
const COLUMNS: &[C] = &[
    C::new("config", "config", |r| r.0.to_string()),
    C::json("gets", |r| r.2.gets.to_string()),
    C::json("writes", |r| r.2.writes.to_string()),
    C::new("hit ratio", "hit_ratio", |r| f2(r.2.hit_ratio))
        .and_json("hit_ratio", |r| format!("{:.6}", r.2.hit_ratio)),
    C::new("p99 stale ms", "p99_staleness_ms", |r| {
        ms(r.2.p99_staleness_us as f64)
    })
    .and_json("p99_staleness_us", |r| r.2.p99_staleness_us.to_string()),
    C::new("max stale ms", "max_staleness_ms", |r| {
        ms(r.2.max_staleness_us as f64)
    })
    .and_json("max_staleness_us", |r| r.2.max_staleness_us.to_string()),
    C::new("hops/GET", "hops_per_get", |r| f2(r.2.mean_hops_per_get))
        .and_json("mean_hops_per_get", |r| {
            format!("{:.4}", r.2.mean_hops_per_get)
        }),
    C::json("messages_per_get", |r| {
        format!("{:.4}", r.2.messages_per_get)
    }),
    C::new("stale drops", "stale_drops", |r| {
        r.2.stale_drops.to_string()
    })
    .and_json("stale_drops", |r| r.2.stale_drops.to_string()),
    C::new("revalidations", "revalidations", |r| {
        r.2.revalidations.to_string()
    })
    .and_json("revalidations", |r| r.2.revalidations.to_string()),
    C::new("warm redirects", "warm_redirects", |r| {
        r.2.warm_redirects.to_string()
    })
    .and_json("warm_redirects", |r| r.2.warm_redirects.to_string()),
    C::new("pushes", "invalidate_pushes", |r| {
        r.2.invalidate_pushes.to_string()
    })
    .and_json("invalidate_pushes", |r| r.2.invalidate_pushes.to_string()),
];

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let mut base = if smoke {
        FreshSimConfig::smoke(args.seed)
    } else {
        FreshSimConfig::default()
    };
    base.seed = args.seed;
    let mut table = Table::new(COLUMNS);
    for (label, name, cfg) in base.ablation_arms() {
        table.rows.push((label, name, simulate_freshness(&cfg)));
    }
    let [ttl_only, gossip, warm, push] = [0, 1, 2, 3].map(|i| &table.rows[i].2);
    table.print(
        "Ablation A8 — cache freshness policy (dharma-fresh)",
        "(staleness is how long the oldest write missing from a cache-served \
         view had been durable when the view was served; hops/GET counts \
         lookup datagrams only)",
    );

    // ----- the dharma-fresh acceptance bar ----------------------------
    let mut bar = Acceptance::default();
    bar.fail_if(
        warm.hit_ratio < ttl_only.hit_ratio * 1.10,
        format!(
            "hit ratio {:.3} not >= 10% over the TTL-only baseline {:.3}",
            warm.hit_ratio, ttl_only.hit_ratio
        ),
    );
    bar.fail_if(
        warm.p99_staleness_us >= ttl_only.p99_staleness_us,
        format!(
            "p99 staleness {} µs not strictly below the TTL-only baseline {} µs",
            warm.p99_staleness_us, ttl_only.p99_staleness_us
        ),
    );
    bar.fail_if(
        warm.mean_hops_per_get >= ttl_only.mean_hops_per_get,
        format!(
            "warm routing should cut hops/GET below ttl-only: {:.2} vs {:.2}",
            warm.mean_hops_per_get, ttl_only.mean_hops_per_get
        ),
    );
    bar.fail_if(
        warm.mean_hops_per_get >= gossip.mean_hops_per_get,
        format!(
            "warm routing should cut hops/GET below routing-less gossip: {:.2} vs {:.2}",
            warm.mean_hops_per_get, gossip.mean_hops_per_get
        ),
    );
    bar.fail_if(
        warm.warm_redirects == 0,
        "warm routing never redirected a query".into(),
    );
    bar.fail_if(
        gossip.stale_drops == 0,
        "gossip never caught a stale view".into(),
    );
    // ----- the invalidation-push bar ----------------------------------
    // One gossip interval is the staleness cadence push is meant to beat:
    // a pushed invalidation lands in one RTT, so hot-key staleness must
    // collapse below the 2 s digest cadence, and the pushes must pay for
    // themselves — no more than 10% message overhead per GET over the
    // warm arm, without giving back the cache hit ratio.
    bar.fail_if(
        push.p99_staleness_us >= 2_000_000,
        format!(
            "push p99 staleness {} µs not below one gossip interval (2_000_000 µs)",
            push.p99_staleness_us
        ),
    );
    bar.fail_if(
        push.messages_per_get > warm.messages_per_get * 1.10,
        format!(
            "push messages/GET {:.4} exceeds 110% of the warm arm's {:.4}",
            push.messages_per_get, warm.messages_per_get
        ),
    );
    bar.fail_if(
        push.hit_ratio < 0.34,
        format!("push hit ratio {:.3} below the 0.34 floor", push.hit_ratio),
    );
    bar.fail_if(
        push.invalidate_pushes == 0,
        "push arm never sent an InvalidatePush".into(),
    );

    table.write_csv(&args.out, "ablation_freshness", "freshness.csv");
    table.write_json(
        &args.out,
        "ablation_freshness",
        "fresh.json",
        smoke,
        args.seed,
        |r| r.1,
    );
    bar.finish();
}
