//! Experiment drivers reproducing every table and figure of the DHARMA
//! paper's evaluation (§V), plus the ablations listed in DESIGN.md.
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_costs` | Table I — primitive costs in overlay lookups |
//! | `fig5_degree_cdf` | Table II + Figure 5 — dataset degree statistics/CDFs |
//! | `fig6_degree_scatter` | Figure 6 — original vs simulated FG out-degrees |
//! | `fig8_weight_scatter` | Figure 8 — original vs simulated FG arc weights |
//! | `table3_approx_quality` | Table III — recall / Kendall τ / cosine / sim1% |
//! | `table4_search` / `fig7_search_cdf` | Table IV + Figure 7 — search paths |
//! | `overlay_scaling` | A3 — Kademlia lookup cost vs network size |
//! | `ablation_policies` / `ablation_k_sweep` / `ablation_filtering` | A1/A2/A4 |
//! | `ablation_cache` | A5 — hot-block caching & adaptive replication vs Zipf load |
//! | `ablation_churn` | A6 — churn rate × repair on/off (`dharma-maint`) |
//! | `ablation_adaptive` | A7 — fixed vs adaptive cadence × churn, graceful leave (`dharma-adapt`) |
//! | `ablation_freshness` | A8 — TTL-only vs version gossip vs gossip + warm routing (`dharma-fresh`) |
//! | `ablation_latency` | A9 — latency-blind vs PNS + biased shortlists vs + adaptive α on the clustered lossy topology (`dharma-latency`) |
//! | `ablation_scale` | A-scale — serial vs sharded engine throughput at 1k/10k nodes (events/sec, peak RSS) |
//! | `bench_udp` | real-socket syscall-batching microbench (batched vs per-packet, plus `SO_REUSEPORT`); Kademlia GETs over real sockets are `dharma-bench`'s `udp_search` |
//! | `bench_ci` | consolidated `BENCH_ci.json` (simulated quality metrics, pinned byte for byte) |
//! | `run_all` | every bin above except `ablation_scale`, `bench_udp` (wall-clock) and `bench_ci`, in sequence |
//!
//! Each binary prints the paper-shaped table to stdout and writes CSV series
//! under `--out` (default `results/`). All runs are seeded and reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cache_sim;
pub mod churn;
pub mod ci_artifact;
pub mod fresh_sim;
pub mod latency_sim;
pub mod output;
pub mod overlay;
pub mod pipeline;
pub mod replay;
pub mod scale;
pub mod search_sim;
pub mod trend;
pub mod udp_bench;

pub use args::ExpArgs;
pub use cache_sim::{simulate_cache_workload, CacheSimConfig, CacheSimReport};
pub use churn::{simulate_churn, ChurnConfig, ChurnReport};
pub use fresh_sim::{simulate_freshness, FreshSimConfig, FreshSimReport};
pub use latency_sim::{simulate_latency, LatencySimConfig, LatencySimReport};
pub use pipeline::ExpContext;
pub use replay::{replay, EventOrder, ReplayConfig};
pub use scale::{measure_engine_run, peak_rss_bytes, scale_full, scale_smoke, EngineRun};
pub use search_sim::{simulate_searches, SearchSimConfig, SearchSimReport, StrategyStats};
pub use trend::{run_trend, TrendConfig, TrendReport};
pub use udp_bench::{transport_microbench, MicrobenchReport};
