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

use dharma_sim::output::{pct, Acceptance, Col, Table};
use dharma_sim::{measure_engine_run, scale_full, scale_smoke, EngineRun, ExpArgs};

type C = Col<EngineRun>;

/// The console rounds and rescales; the CSV carries raw numerics, plus the
/// churn counts the console leaves out.
const COLUMNS: &[C] = &[
    C::new("events", "events", |r| r.events.to_string()),
    C::new("wall s", "wall_us", |r| {
        format!("{:.1}", r.wall_us as f64 / 1e6)
    })
    .csv(|r| r.wall_us.to_string()),
    C::new("events/s", "events_per_sec", |r| {
        format!("{:.0}", r.events_per_sec)
    })
    .csv(|r| format!("{:.1}", r.events_per_sec)),
    C::new("RSS MiB", "peak_rss_bytes", |r| {
        format!("{:.0}", r.peak_rss_bytes as f64 / (1024.0 * 1024.0))
    })
    .csv(|r| r.peak_rss_bytes.to_string()),
    C::new("lookup ok", "lookup_success", |r| {
        pct(r.report.lookup_success)
    })
    .csv(|r| format!("{:.6}", r.report.lookup_success)),
    C::new("lost", "lost_records", |r| {
        r.report.lost_records.to_string()
    }),
    C::new("GETs", "gets", |r| r.report.gets.to_string()),
    C::new("", "departures", |r| r.report.departures.to_string()),
    C::new("", "joins", |r| r.report.joins.to_string()),
];

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let cfg = if smoke {
        scale_smoke(args.seed)
    } else {
        scale_full(args.seed)
    };
    let run = measure_engine_run(&cfg);

    // ----- acceptance ---------------------------------------------------
    let mut bar = Acceptance::default();
    bar.fail_if(
        run.report.gets == 0 || run.report.lookup_success < 0.90,
        format!(
            "run unhealthy: {} GETs, success {:.3}",
            run.report.gets, run.report.lookup_success
        ),
    );
    bar.fail_if(
        !smoke && run.report.gets < 1_000_000,
        format!("full run must issue >= 1M GETs, issued {}", run.report.gets),
    );

    let caption = format!(
        "Ablation A-scale — engine throughput, {} nodes / {} GETs",
        cfg.nodes, run.report.gets
    );
    let mut table = Table::new(COLUMNS);
    table.rows.push(run);
    table.print(&caption, "");
    table.write_csv(&args.out, "ablation_scale", "scale.csv");
    bar.finish();
}
