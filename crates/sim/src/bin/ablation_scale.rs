//! **A-scale — engine throughput**: the event engine on the churn+cache
//! workload ([`dharma_sim::scale`]).
//!
//! The full run (no flags) is the ROADMAP-item-1 measurement: a 10k-node
//! overlay under churn with caching, ≥ 1M Zipf GETs, reporting events/sec,
//! wall time and peak RSS. `--smoke` is the CI job: the same scenario at
//! 1k nodes / 30k GETs, within a small wall budget.
//!
//! Results (events, lookup success, lost records, GETs) are bit-deterministic
//! per seed. Wall-clock and RSS are measurements, never compared for
//! equality or gated in CI.

use dharma_sim::output::{CsvSink, TextTable};
use dharma_sim::{measure_engine_run, scale_full, scale_smoke, ExpArgs};

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let cfg = if smoke {
        scale_smoke(args.seed)
    } else {
        scale_full(args.seed)
    };
    let run = measure_engine_run(&cfg);
    let rss_mib = run.peak_rss_bytes as f64 / (1024.0 * 1024.0);

    let mut table = TextTable::new([
        "events",
        "wall s",
        "events/s",
        "RSS MiB",
        "lookup ok",
        "lost",
        "GETs",
    ]);
    table.row(vec![
        run.events.to_string(),
        format!("{:.1}", run.wall_us as f64 / 1e6),
        format!("{:.0}", run.events_per_sec),
        format!("{rss_mib:.0}"),
        format!("{:.1}%", run.report.lookup_success * 100.0),
        run.report.lost_records.to_string(),
        run.report.gets.to_string(),
    ]);
    table.print(&format!(
        "Ablation A-scale — engine throughput, {} nodes / {} GETs",
        cfg.nodes, run.report.gets
    ));

    // ----- acceptance ---------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    if run.report.gets == 0 || run.report.lookup_success < 0.90 {
        failures.push(format!(
            "run unhealthy: {} GETs, success {:.3}",
            run.report.gets, run.report.lookup_success
        ));
    }
    if !smoke && run.report.gets < 1_000_000 {
        failures.push(format!(
            "full run must issue >= 1M GETs, issued {}",
            run.report.gets
        ));
    }

    let sink = CsvSink::new(&args.out, "ablation_scale").expect("output dir");
    let path = sink
        .write(
            "scale.csv",
            &[
                "events",
                "wall_us",
                "events_per_sec",
                "peak_rss_bytes",
                "lookup_success",
                "lost_records",
                "gets",
                "departures",
                "joins",
            ],
            vec![vec![
                run.events.to_string(),
                run.wall_us.to_string(),
                format!("{:.1}", run.events_per_sec),
                run.peak_rss_bytes.to_string(),
                format!("{:.6}", run.report.lookup_success),
                run.report.lost_records.to_string(),
                run.report.gets.to_string(),
                run.report.departures.to_string(),
                run.report.joins.to_string(),
            ]],
        )
        .expect("write csv");
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ACCEPTANCE FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("acceptance checks passed ✓");
}
