//! Consolidated CI benchmark artifact: runs the four headline ablations
//! at smoke scale and emits one `BENCH_ci.json` with the numbers the perf
//! trajectory is tracked by — cache hit ratio, lookup hops per GET,
//! maintenance messages per GET, max-load ratio, the freshness staleness
//! percentiles and the latency-aware lookup completion-time percentiles
//! (A9 baseline vs full). The CI `bench` job uploads the file as a
//! workflow artifact, so every run leaves a data point.
//!
//! `bench_ci --compare old.json new.json` is the trend gate: it fails
//! (exit 1) when a *quality* metric of `new.json` regresses more than 15%
//! against `old.json` (direction-aware; see `dharma_sim::bench_compare`).
//!
//! The schema is documented in `DESIGN.md`; every metric is simulated,
//! seeded (`--seed`, default 42) and deterministic, so diffs between two
//! artifacts are real regressions or wins, never noise. Wall-clock
//! measurements live in their own jobs (`ablation_scale --smoke`,
//! `bench_udp --smoke`).

use dharma_sim::{bench_compare, ExpArgs};

/// `--compare old.json new.json`: exit 0 on pass, 1 on regression.
fn run_compare(old_path: &str, new_path: &str) -> ! {
    let old = std::fs::read_to_string(old_path).unwrap_or_else(|e| panic!("read {old_path}: {e}"));
    let new = std::fs::read_to_string(new_path).unwrap_or_else(|e| panic!("read {new_path}: {e}"));
    let failures = bench_compare::compare(&old, &new);
    if failures.is_empty() {
        println!("bench compare: no quality regressions vs {old_path}");
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("BENCH REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--compare") {
        match (raw.get(1), raw.get(2)) {
            (Some(old), Some(new)) => run_compare(old, new),
            _ => {
                eprintln!("usage: bench_ci --compare old.json new.json");
                std::process::exit(2);
            }
        }
    }
    let args = match ExpArgs::try_parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: bench_ci [--seed N] [--out DIR] | --compare old.json new.json");
            std::process::exit(2);
        }
    };

    let json = bench_compare::artifact(args.seed);
    std::fs::create_dir_all(&args.out).expect("output dir");
    let path = std::path::Path::new(&args.out).join("BENCH_ci.json");
    std::fs::write(&path, &json).expect("write BENCH_ci.json");
    print!("{json}");
    println!("wrote {}", path.display());
}
