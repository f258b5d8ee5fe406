//! Engine-throughput harness: runs the churn+cache workload on the event
//! engine and measures **events/sec** and **peak RSS** at 10³–10⁴-node
//! scale.
//!
//! The scenario is [`ChurnConfig`]-shaped (the A-churn/A7/A8 pipeline with
//! caching enabled): the simulated *results* are deterministic per seed,
//! while wall-clock and RSS are measurements of the run, reported but never
//! part of determinism checks or CI regression gates.

use crate::churn::{simulate_churn, ChurnConfig, ChurnReport};
use crate::CacheSimConfig;

/// One measured engine run.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Simulator events fired (deliveries + timers) — deterministic.
    pub events: u64,
    /// Wall-clock duration of the run, µs — a measurement, not a result.
    pub wall_us: u64,
    /// `events / wall seconds`.
    pub events_per_sec: f64,
    /// Process peak RSS (`VmHWM`) after the run, bytes; 0 where
    /// unavailable (non-Linux). Monotone per process: the peak covers
    /// everything run so far, so measure the biggest scenario last or in
    /// its own process for a tight bound.
    pub peak_rss_bytes: u64,
    /// The full simulation report (deterministic per seed).
    pub report: ChurnReport,
}

/// Runs `cfg` once and measures throughput around it.
pub fn measure_engine_run(cfg: &ChurnConfig) -> EngineRun {
    // dharma-lint: allow(D1): throughput/RSS measurement wrapped *around* a
    // deterministic run — the timing is reported, never fed back into it.
    let start = std::time::Instant::now();
    let report = simulate_churn(cfg);
    let wall_us = start.elapsed().as_micros().max(1) as u64;
    let events = report.events_processed;
    EngineRun {
        events,
        wall_us,
        events_per_sec: events as f64 / (wall_us as f64 / 1e6),
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        report,
    }
}

/// Process peak resident-set size in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The churn+cache scale scenario at a given size. `nodes`/`keys`/GET
/// volume scale together; churn keeps ~`horizon / mean_session` sessions
/// per node; caching is on (the A8-at-scale shape) and repair uses the
/// A-churn ablation cadence.
fn scenario(
    nodes: usize,
    keys: usize,
    horizon_us: u64,
    op_interval_us: u64,
    seed: u64,
) -> ChurnConfig {
    ChurnConfig {
        nodes,
        k: 20,
        keys,
        zipf_s: 1.2,
        top_n: 0,
        horizon_us,
        op_interval_us,
        mean_session_us: (horizon_us * 2).max(1),
        mean_downtime_us: (horizon_us / 10).max(1),
        session_shape: 1.0,
        repair: Some(ChurnConfig::ablation_repair()),
        graceful_fraction: 0.0,
        sample_interval_us: (horizon_us / 5).max(1),
        get_retries: 2,
        seed,
        cache: Some(CacheSimConfig::ablation_cache()),
        freshness: None,
        write_batch: 100,
    }
}

/// The full 10k-node scenario: ≥ 1M Zipf GETs under churn with caching
/// (`horizon / op_interval` = 300 s / 250 µs = 1.2M issued GETs).
pub fn scale_full(seed: u64) -> ChurnConfig {
    scenario(10_000, 2_000, 300_000_000, 250, seed)
}

/// The CI smoke scenario: 1k nodes, 30k GETs — the engine at scale,
/// exercised end to end on every PR inside a small wall budget.
pub fn scale_smoke(seed: u64) -> ChurnConfig {
    scenario(1_000, 400, 30_000_000, 1_000, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_run_measures_throughput() {
        let mut cfg = scenario(16, 8, 5_000_000, 100_000, 5);
        cfg.k = 6;
        let run = measure_engine_run(&cfg);
        assert!(run.events > 0);
        assert!(run.events_per_sec > 0.0);
        assert_eq!(run.events, run.report.events_processed);
        // Linux CI: VmHWM must parse.
        if cfg!(target_os = "linux") {
            assert!(run.peak_rss_bytes > 0);
        }
    }

    #[test]
    fn scale_presets_are_sane() {
        let full = scale_full(42);
        assert_eq!(full.nodes, 10_000);
        assert!(
            full.horizon_us / full.op_interval_us >= 1_000_000,
            ">=1M GETs"
        );
        let smoke = scale_smoke(42);
        assert_eq!(smoke.nodes, 1_000);
        assert!(smoke.horizon_us / smoke.op_interval_us >= 10_000);
    }
}
