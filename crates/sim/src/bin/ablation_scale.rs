//! **A-scale — engine throughput**: serial vs sharded event engine on the
//! churn+cache workload ([`dharma_sim::scale`]).
//!
//! The full run (no flags) is the ROADMAP-item-1 measurement: a 10k-node
//! overlay under churn with caching, ≥ 1M Zipf GETs, executed on the
//! serial engine (`shards = 1`) and on the sharded engine, reporting
//! events/sec, wall time and peak RSS for each. On hosts with ≥ 4 cores
//! the sharded engine must clear 4× the serial events/sec; on smaller
//! hosts the speedup is reported but not enforced (a 1-core box cannot
//! measure parallelism).
//!
//! `--smoke` is the CI job: 1k nodes / 30k GETs on ≥ 4 shards, plus a
//! 2-vs-4-shard invariance check on a reduced scenario — the parallel
//! path exercised end-to-end on every PR within a small wall budget.
//!
//! Determinism contract (also in `DESIGN.md`): results are
//! bit-deterministic per seed *per engine discipline* — `shards = 1` is
//! the legacy serial sequence, `shards ≥ 2` is one sequence invariant in
//! the shard count and in serial-vs-parallel execution. Wall-clock and
//! RSS are measurements, never compared for equality or gated in CI.

use dharma_sim::output::{f2, CsvSink, TextTable};
use dharma_sim::{measure_engine_run, scale_full, scale_smoke, EngineRun, ExpArgs};

fn row(run: &EngineRun) -> Vec<String> {
    vec![
        if run.shards == 1 {
            "serial".into()
        } else {
            format!("sharded×{}", run.shards)
        },
        run.events.to_string(),
        format!("{:.1}", run.wall_us as f64 / 1e6),
        format!("{:.0}", run.events_per_sec),
        format!("{:.0}", run.peak_rss_bytes as f64 / (1024.0 * 1024.0)),
        format!("{:.1}%", run.report.lookup_success * 100.0),
        run.report.lost_records.to_string(),
        run.report.gets.to_string(),
    ]
}

fn csv_row(run: &EngineRun) -> Vec<String> {
    vec![
        run.shards.to_string(),
        run.events.to_string(),
        run.wall_us.to_string(),
        format!("{:.1}", run.events_per_sec),
        run.peak_rss_bytes.to_string(),
        format!("{:.6}", run.report.lookup_success),
        run.report.lost_records.to_string(),
        run.report.gets.to_string(),
        run.report.departures.to_string(),
        run.report.joins.to_string(),
    ]
}

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let shards = cores.clamp(4, 16);
    let mut failures: Vec<String> = Vec::new();

    // ----- shard-count invariance on a reduced scenario ----------------
    // Cheap enough for both modes: the sharded discipline must not depend
    // on how many shards carve the node set (the net- and sim-level test
    // suites pin this too; here it guards the actual binary path).
    {
        let mut small = scale_smoke(args.seed);
        small.nodes = 100;
        small.keys = 32;
        small.horizon_us = 10_000_000;
        small.op_interval_us = 10_000;
        small.shards = 2;
        let two = measure_engine_run(&small);
        small.shards = 4;
        let four = measure_engine_run(&small);
        if two.report != four.report {
            failures.push("2-shard and 4-shard runs diverged on the reduced scenario".into());
        }
    }

    // ----- the headline comparison -------------------------------------
    let base = if smoke {
        scale_smoke(args.seed)
    } else {
        scale_full(args.seed)
    };
    let mut serial_cfg = base.clone();
    serial_cfg.shards = 1;
    let serial = measure_engine_run(&serial_cfg);
    let mut sharded_cfg = base.clone();
    sharded_cfg.shards = shards;
    let sharded = measure_engine_run(&sharded_cfg);

    let speedup = sharded.events_per_sec / serial.events_per_sec.max(1e-9);

    let mut table = TextTable::new([
        "engine",
        "events",
        "wall s",
        "events/s",
        "RSS MiB",
        "lookup ok",
        "lost",
        "GETs",
    ]);
    table.row(row(&serial));
    table.row(row(&sharded));
    table.print(&format!(
        "Ablation A-scale — engine throughput, {} nodes / {} GETs ({} cores)",
        base.nodes, serial.report.gets, cores
    ));
    println!(
        "sharded×{shards} vs serial: {} speedup (events/sec; \
         wall-clock measurement, not a determinism check)",
        f2(speedup)
    );

    // ----- acceptance ---------------------------------------------------
    if serial.report.gets == 0 || serial.report.lookup_success < 0.90 {
        failures.push(format!(
            "serial run unhealthy: {} GETs, success {:.3}",
            serial.report.gets, serial.report.lookup_success
        ));
    }
    if sharded.report.gets == 0 || sharded.report.lookup_success < 0.90 {
        failures.push(format!(
            "sharded run unhealthy: {} GETs, success {:.3}",
            sharded.report.gets, sharded.report.lookup_success
        ));
    }
    if !smoke && serial.report.gets < 1_000_000 {
        failures.push(format!(
            "full run must issue >= 1M GETs, issued {}",
            serial.report.gets
        ));
    }
    // The >=4x bar needs >=4 cores to be measurable at all; report-only
    // otherwise (the CI scale job runs on multi-core runners).
    if !smoke && cores >= 4 && speedup < 4.0 {
        failures.push(format!(
            "sharded engine reached only {speedup:.2}x serial events/sec on {cores} cores (need >= 4x)"
        ));
    }

    let sink = CsvSink::new(&args.out, "ablation_scale").expect("output dir");
    let path = sink
        .write(
            "scale.csv",
            &[
                "shards",
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
            vec![csv_row(&serial), csv_row(&sharded)],
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
