//! **A5 — ablation**: hot-block caching & adaptive replication under Zipf
//! GET load.
//!
//! The folksonomy workload concentrates GETs on a few popular tag blocks
//! (paper §III); in a plain overlay those land on the `k` nodes closest to
//! each hot key. This ablation sweeps the Zipf exponent and compares three
//! overlay configurations — baseline, hot-block caching (`dharma-cache`),
//! and caching plus popularity-driven adaptive replication — reporting the
//! cache hit ratio and how sharply GET load concentrates on the busiest
//! node. This binary enforces no bar; `tests/cache_effectiveness.rs` holds
//! the subsystem to one at s = 1.2, over 1,500 ops on 64 nodes: a hit
//! ratio above 50% and at least 2× lower max per-node load (at seed 42:
//! 0.5507, and 147 vs 521). At s = 1.0 the hit ratio stays just under half
//! (0.4967 with the cache, 0.4547 with cache + replication, at seed 42).

use dharma_sim::output::{f2, Col, Table};
use dharma_sim::{simulate_cache_workload, CacheSimConfig, CacheSimReport, ExpArgs};

type Row = (f64, &'static str, CacheSimReport);
type C = Col<Row>;

const COLUMNS: &[C] = &[
    C::new("zipf s", "zipf_s", |r| format!("{:.1}", r.0)),
    C::new("config", "config", |r| r.1.to_string()),
    C::new("hit ratio", "hit_ratio", |r| f2(r.2.hit_ratio)),
    C::new("max load", "max_load", |r| r.2.max_get_load.to_string()),
    C::new("mean load", "mean_load", |r| f2(r.2.mean_get_load)),
    C::new("msgs/GET", "msgs_per_get", |r| f2(r.2.messages_per_get)),
    C::new("promoted", "replicas_promoted", |r| {
        r.2.replicas_promoted.to_string()
    }),
];

fn main() {
    let args = ExpArgs::parse();
    let mut table = Table::new(COLUMNS);
    for s in [0.8f64, 1.0, 1.2, 1.4] {
        let base = CacheSimConfig {
            zipf_s: s,
            seed: args.seed,
            ..CacheSimConfig::default()
        };
        for (name, cfg) in base.ablation_arms() {
            table.rows.push((s, name, simulate_cache_workload(&cfg)));
        }
    }
    table.print(
        "Ablation A5 — hot-block caching & adaptive replication vs Zipf GET load",
        "(hit ratio counts GETs answered by a requester-local or on-path cache; \
         max load is FIND_VALUEs at the busiest node)",
    );
    table.write_csv(&args.out, "ablation_cache", "cache.csv");
}
