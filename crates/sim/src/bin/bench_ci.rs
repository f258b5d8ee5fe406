//! Consolidated CI benchmark artifact: runs the four headline ablations
//! at smoke scale and emits one `BENCH_ci.json` with the numbers the perf
//! trajectory is tracked by — cache hit ratio, lookup hops per GET,
//! maintenance messages per GET, max-load ratio, the freshness staleness
//! percentiles and the latency-aware lookup completion-time percentiles
//! (A9 baseline vs full).
//!
//! The schema is documented in `DESIGN.md`; every metric is simulated,
//! seeded (`--seed`, default 42) and deterministic, so the file is pinned
//! byte for byte: field by field in `crates/sim/tests/bench_sections.rs`,
//! and as a whole by `scripts/check-outputs.sh` against
//! `tests/outputs.sha256`. Wall-clock measurements live in their own jobs
//! (`ablation_scale --smoke`, `bench_udp --smoke`).

use dharma_sim::{ci_artifact, ExpArgs};

fn main() {
    let args = match ExpArgs::try_parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: bench_ci [--seed N] [--out DIR]");
            std::process::exit(2);
        }
    };

    let json = ci_artifact::artifact(args.seed);
    std::fs::create_dir_all(&args.out).expect("output dir");
    let path = std::path::Path::new(&args.out).join("BENCH_ci.json");
    std::fs::write(&path, &json).expect("write BENCH_ci.json");
    print!("{json}");
    println!("wrote {}", path.display());
}
