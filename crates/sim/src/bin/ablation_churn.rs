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

use dharma_sim::churn::GET_RETRIES;
use dharma_sim::output::{f2, pct, Acceptance, Col, Table};
use dharma_sim::{simulate_churn, ChurnConfig, ChurnReport, ExpArgs};

type Row = (&'static str, &'static str, ChurnReport);
type C = Col<Row>;

/// The console shows percentages; the CSV carries raw numerics only, so
/// downstream parsers get plain numbers.
const COLUMNS: &[C] = &[
    C::new("churn", "churn", |r| r.0.to_string()),
    C::new("repair", "repair", |r| r.1.to_string()),
    C::new("lookup ok", "lookup_success", |r| pct(r.2.lookup_success))
        .csv(|r| format!("{:.6}", r.2.lookup_success)),
    C::new("mean avail", "mean_availability", |r| {
        f2(r.2.mean_availability)
    })
    .csv(|r| format!("{:.6}", r.2.mean_availability)),
    C::new("lost", "lost_records", |r| r.2.lost_records.to_string()),
    C::new("departs", "departures", |r| r.2.departures.to_string()),
    C::new("maint/GET", "maint_msgs_per_get", |r| {
        f2(r.2.maint_msgs_per_get)
    })
    .csv(|r| format!("{:.4}", r.2.maint_msgs_per_get)),
    C::new("msgs", "messages_total", |r| r.2.messages_total.to_string()),
];

type Point = (String, u64, f64);
type P = Col<Point>;

/// One sample of a row's availability curve.
const CURVE: &[P] = &[
    P::new("", "config", |p| p.0.clone()),
    P::new("", "t_us", |p| p.1.to_string()),
    P::new("", "availability", |p| f2(p.2)),
];

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let mut base = if smoke {
        ChurnConfig::smoke(args.seed)
    } else {
        ChurnConfig::default()
    };
    base.seed = args.seed;
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

    let mut table = Table::new(COLUMNS);
    let mut bar = Acceptance::default();
    for (label, session) in sessions {
        let mut with = base.clone();
        with.mean_session_us = session;
        with.repair = Some(repair_cfg.clone());
        let rep_on = simulate_churn(&with);
        let mut without = with;
        without.repair = None;
        let rep_off = simulate_churn(&without);

        // The dharma-maint guarantee, enforced on the moderate row (and on
        // the single smoke row): repair keeps every record resolvable.
        if label == "moderate" {
            let floor = if smoke { 0.95 } else { 0.99 };
            bar.fail_if(
                rep_on.lookup_success < floor,
                format!(
                    "repair-on lookup success {:.3} below the {floor} bar",
                    rep_on.lookup_success
                ),
            );
            bar.fail_if(
                rep_on.lost_records != 0,
                format!("repair-on lost {} records (must be 0)", rep_on.lost_records),
            );
            bar.fail_if(
                rep_off.mean_availability >= rep_on.mean_availability && rep_off.lost_records == 0,
                "repair-off shows no degradation — the ablation is not exercising churn".into(),
            );
        }
        table.rows.push((label, "on", rep_on));
        table.rows.push((label, "off", rep_off));
    }

    table.print(
        "Ablation A6 — churn rate × repair on/off (dharma-maint)",
        &format!(
            "(lookup ok counts GETs answered within {} retries; mean avail is the \
             availability-curve mean; lost is keys with no live holder at the end; \
             maint/GET is probes+handoffs+re-replications per GET)",
            GET_RETRIES
        ),
    );
    table.write_csv(&args.out, "ablation_churn", "churn.csv");
    let mut curve = Table::new(CURVE);
    for (label, mode, rep) in &table.rows {
        let config = format!("{label}-{mode}");
        let trace = rep.availability_trace.iter();
        curve
            .rows
            .extend(trace.map(|&(t, a)| (config.clone(), t, a)));
    }
    curve.write_csv(&args.out, "ablation_churn", "churn_availability.csv");
    bar.finish();
}
