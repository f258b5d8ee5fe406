//! **A6 — ablation**: churn rate × repair on/off (`dharma-maint`).
//!
//! Sweeps membership churn (mean session length) against the maintenance
//! subsystem (liveness probes + join handoff + re-replication) and reports
//! the three numbers `dharma-maint` exists to move: lookup success rate,
//! data availability (mean of the curve + permanently lost records), and
//! maintenance message overhead per GET.
//!
//! Acceptance bar (checked and enforced here, so CI fails fast on a
//! churn-path regression): at 64 nodes, k = 20, Zipf(1.2) GETs and
//! moderate seeded churn, repair on must deliver ≥ 99% lookup success and
//! zero lost records, while repair off must show a degraded availability
//! curve. Runs are bit-identical for a fixed `--seed`.
//!
//! `--smoke` shrinks the sweep to one moderate-churn pair over a small
//! overlay and short horizon (the CI job).

use dharma_sim::output::{f2, CsvSink, TextTable};
use dharma_sim::{simulate_churn, ChurnConfig, ChurnReport, ExpArgs};

/// Console row (human-formatted percentages).
fn table_row(label: &str, repair: &str, rep: &ChurnReport) -> Vec<String> {
    vec![
        label.to_string(),
        repair.to_string(),
        format!("{:.1}%", rep.lookup_success * 100.0),
        f2(rep.mean_availability),
        rep.lost_records.to_string(),
        rep.departures.to_string(),
        f2(rep.maint_msgs_per_get),
        rep.messages_total.to_string(),
    ]
}

/// CSV row (raw numerics only — downstream parsers get plain numbers).
fn csv_row(label: &str, repair: &str, rep: &ChurnReport) -> Vec<String> {
    vec![
        label.to_string(),
        repair.to_string(),
        format!("{:.6}", rep.lookup_success),
        format!("{:.6}", rep.mean_availability),
        rep.lost_records.to_string(),
        rep.departures.to_string(),
        format!("{:.4}", rep.maint_msgs_per_get),
        rep.messages_total.to_string(),
    ]
}

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let base = if smoke {
        ChurnConfig::smoke(args.seed)
    } else {
        ChurnConfig {
            seed: args.seed,
            ..ChurnConfig::default()
        }
    };
    // Churn rows: mean session length as a fraction of the horizon.
    let sessions: Vec<(&str, u64)> = if smoke {
        vec![("moderate", 20_000_000)]
    } else {
        vec![
            ("light", 120_000_000),
            ("moderate", 60_000_000),
            ("heavy", 30_000_000),
        ]
    };
    let repair_cfg = if smoke {
        ChurnConfig::smoke_repair()
    } else {
        ChurnConfig::ablation_repair()
    };

    let mut table = TextTable::new([
        "churn",
        "repair",
        "lookup ok",
        "mean avail",
        "lost",
        "departs",
        "maint/GET",
        "msgs",
    ]);
    let mut rows = Vec::new();
    let mut curves: Vec<(String, ChurnReport)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for (label, session) in &sessions {
        let mut with = base.clone();
        with.mean_session_us = *session;
        with.repair = Some(repair_cfg.clone());
        let rep_on = simulate_churn(&with);

        let mut without = with.clone();
        without.repair = None;
        let rep_off = simulate_churn(&without);

        for (mode, rep) in [("on", &rep_on), ("off", &rep_off)] {
            table.row(table_row(label, mode, rep));
            rows.push(csv_row(label, mode, rep));
            curves.push((format!("{label}-{mode}"), rep.clone()));
        }

        // The dharma-maint guarantee, enforced on the moderate row (and on
        // the single smoke row): repair keeps every record resolvable.
        if *label == "moderate" {
            let bar = if smoke { 0.95 } else { 0.99 };
            if rep_on.lookup_success < bar {
                failures.push(format!(
                    "repair-on lookup success {:.3} below the {bar} bar",
                    rep_on.lookup_success
                ));
            }
            if rep_on.lost_records != 0 {
                failures.push(format!(
                    "repair-on lost {} records (must be 0)",
                    rep_on.lost_records
                ));
            }
            if rep_off.mean_availability >= rep_on.mean_availability && rep_off.lost_records == 0 {
                failures.push(
                    "repair-off shows no degradation — the ablation is not exercising churn"
                        .to_string(),
                );
            }
        }
    }

    table.print("Ablation A6 — churn rate × repair on/off (dharma-maint)");
    println!(
        "(lookup ok counts GETs answered within {} retries; mean avail is the \
         availability-curve mean; lost is keys with no live holder at the end; \
         maint/GET is probes+handoffs+re-replications per GET)",
        base.get_retries
    );

    let sink = CsvSink::new(&args.out, "ablation_churn").expect("output dir");
    let path = sink
        .write(
            "churn.csv",
            &[
                "churn",
                "repair",
                "lookup_success",
                "mean_availability",
                "lost_records",
                "departures",
                "maint_msgs_per_get",
                "messages_total",
            ],
            rows,
        )
        .expect("write csv");
    println!("wrote {}", path.display());
    let curve_rows: Vec<Vec<String>> = curves
        .iter()
        .flat_map(|(label, rep)| {
            rep.availability_trace
                .iter()
                .map(move |(t, a)| vec![label.clone(), t.to_string(), f2(*a)])
        })
        .collect();
    let path = sink
        .write(
            "churn_availability.csv",
            &["config", "t_us", "availability"],
            curve_rows,
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
