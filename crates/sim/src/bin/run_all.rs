//! Runs every deterministic experiment binary in sequence — the paper's
//! tables and figures (E1–E7) and the ablations A1–A9 — by spawning each
//! as its own process with this binary's arguments forwarded verbatim, so
//! every child builds its own dataset. Left out on purpose:
//! `ablation_scale` measures wall-clock time, and
//! `bench_ci` has its own line in `scripts/check-outputs.sh`, which pins
//! the files and stdout of `run_all --seed 42`.

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "table1_costs",
        "fig5_degree_cdf",
        "fig6_degree_scatter",
        "fig8_weight_scatter",
        "table3_approx_quality",
        "table4_search",
        "fig7_search_cdf",
        "overlay_scaling",
        "ablation_policies",
        "ablation_k_sweep",
        "ablation_filtering",
        "ablation_cache",
        "ablation_churn",
        "ablation_adaptive",
        "ablation_freshness",
        "ablation_latency",
        "trend_emergence",
    ];
    let self_path = std::env::current_exe().expect("own path");
    let dir = self_path.parent().expect("bin dir");
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n######## {bin} ########");
        let status = Command::new(dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            eprintln!("{bin} exited with {status}");
            failures.push(bin);
        }
    }
    if failures.is_empty() {
        println!("\nall experiments completed");
    } else {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}
