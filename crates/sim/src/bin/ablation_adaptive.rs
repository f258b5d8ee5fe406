//! **A7 — ablation**: fixed vs churn-adaptive maintenance cadence, and
//! crash-style vs graceful departures (`dharma-adapt`).
//!
//! PR 3's maintenance loop runs on fixed knobs, so a quiet overlay pays the
//! same probe/repair traffic as a churning one. This ablation sweeps the
//! cadence policy (fixed [`ChurnConfig::ablation_repair`] vs adaptive
//! [`ChurnConfig::ablation_adaptive`]) across churn levels, plus an
//! all-graceful-departure run against the crash-only baseline.
//!
//! Acceptance bar (checked and enforced here, so CI fails fast on an
//! adaptive-path regression):
//!
//! * **near-zero churn** — adaptive cadence cuts maintenance msgs/GET at
//!   least 2× vs the fixed knobs while lookup success stays ≥ 99%;
//! * **moderate churn** (PR 3's scenario) — adaptive cadence keeps lookup
//!   success ≥ 99% and loses 0 records (tightening to the min bounds must
//!   preserve the repair guarantee);
//! * **all-graceful departures** — 0 records lost, with repair
//!   re-replication traffic well below the crash-only run (the parting
//!   handoff pre-heals the replica set, and low-weighted `Leave` notices
//!   keep the estimated churn — and with it the repair cadence — down);
//! * **a static overlay hands nothing off** — any row without a departure
//!   (so without a join; both near-zero rows of `--smoke`) reports 0 join
//!   hand-offs: a contact seen for the first time, or seen again after a
//!   lost probe evicted it, is not a join.
//!
//! `--smoke` shrinks everything to a small overlay and short horizon (the
//! CI job), with a correspondingly relaxed success bar.

use dharma_kademlia::{AdaptConfig, MaintConfig};
use dharma_sim::output::{f2, CsvSink, TextTable};
use dharma_sim::{simulate_churn, ChurnConfig, ChurnReport, ExpArgs};

/// Console row (human-formatted percentages).
fn table_row(churn: &str, mode: &str, rep: &ChurnReport) -> Vec<String> {
    vec![
        churn.to_string(),
        mode.to_string(),
        format!("{:.1}%", rep.lookup_success * 100.0),
        rep.lost_records.to_string(),
        rep.departures.to_string(),
        rep.graceful_departures.to_string(),
        f2(rep.maint_msgs_per_get),
        rep.rereplications.to_string(),
        rep.messages_total.to_string(),
    ]
}

/// CSV row (raw numerics only).
fn csv_row(churn: &str, mode: &str, rep: &ChurnReport) -> Vec<String> {
    vec![
        churn.to_string(),
        mode.to_string(),
        format!("{:.6}", rep.lookup_success),
        rep.lost_records.to_string(),
        rep.departures.to_string(),
        rep.graceful_departures.to_string(),
        format!("{:.4}", rep.maint_msgs_per_get),
        rep.probes.to_string(),
        rep.rereplications.to_string(),
        rep.leave_notices.to_string(),
        rep.leave_handoffs.to_string(),
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
    // Churn rows: mean session lengths. "near-zero" makes expected
    // departures over the horizon ≈ 0–2, the regime where fixed knobs pay
    // pure overhead; "moderate" is PR 3's repair-guarantee scenario.
    let (near_zero_session, moderate_session) = if smoke {
        (2_000_000_000, 20_000_000)
    } else {
        (6_000_000_000, 60_000_000)
    };
    let fixed_cfg = if smoke {
        ChurnConfig::smoke_repair()
    } else {
        ChurnConfig::ablation_repair()
    };
    let adaptive_cfg = if smoke {
        let mut cfg = fixed_cfg.clone();
        cfg.adaptive = Some(AdaptConfig {
            probe_min_us: 1_000_000,
            probe_max_us: 5_000_000,
            repair_min_us: 6_000_000,
            repair_max_us: 30_000_000,
            half_life_us: 15_000_000,
            hot_weight: 8.0,
            leave_weight: 0.1,
            repair_budget: 16,
        });
        cfg
    } else {
        ChurnConfig::ablation_adaptive()
    };
    let success_bar = if smoke { 0.95 } else { 0.99 };

    let run = |session: u64, maint: &MaintConfig, graceful: f64| -> ChurnReport {
        let mut cfg = base.clone();
        cfg.mean_session_us = session;
        cfg.repair = Some(maint.clone());
        cfg.graceful_fraction = graceful;
        simulate_churn(&cfg)
    };

    let mut table = TextTable::new([
        "churn",
        "cadence",
        "lookup ok",
        "lost",
        "departs",
        "graceful",
        "maint/GET",
        "repushes",
        "msgs",
    ]);
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let record = |table: &mut TextTable,
                  rows: &mut Vec<Vec<String>>,
                  churn: &str,
                  mode: &str,
                  rep: &ChurnReport| {
        table.row(table_row(churn, mode, rep));
        rows.push(csv_row(churn, mode, rep));
    };

    // ----- fixed vs adaptive across churn levels ----------------------
    let quiet_fixed = run(near_zero_session, &fixed_cfg, 0.0);
    let quiet_adaptive = run(near_zero_session, &adaptive_cfg, 0.0);
    record(&mut table, &mut rows, "near-zero", "fixed", &quiet_fixed);
    record(
        &mut table,
        &mut rows,
        "near-zero",
        "adaptive",
        &quiet_adaptive,
    );

    let moderate_fixed = run(moderate_session, &fixed_cfg, 0.0);
    let moderate_adaptive = run(moderate_session, &adaptive_cfg, 0.0);
    record(&mut table, &mut rows, "moderate", "fixed", &moderate_fixed);
    record(
        &mut table,
        &mut rows,
        "moderate",
        "adaptive",
        &moderate_adaptive,
    );

    // ----- crash-only vs all-graceful departures (adaptive cadence) ---
    let crash_only = &moderate_adaptive;
    let all_graceful = run(moderate_session, &adaptive_cfg, 1.0);
    record(&mut table, &mut rows, "moderate", "graceful", &all_graceful);

    // ----- the dharma-adapt acceptance bar ----------------------------
    if quiet_adaptive.maint_msgs_per_get * 2.0 > quiet_fixed.maint_msgs_per_get {
        failures.push(format!(
            "near-zero churn: adaptive cadence saves only {:.2} -> {:.2} maint msgs/GET (need ≥ 2x)",
            quiet_fixed.maint_msgs_per_get, quiet_adaptive.maint_msgs_per_get
        ));
    }
    if quiet_adaptive.lookup_success < success_bar {
        failures.push(format!(
            "near-zero churn: adaptive lookup success {:.3} below the {success_bar} bar",
            quiet_adaptive.lookup_success
        ));
    }
    if moderate_adaptive.lookup_success < success_bar {
        failures.push(format!(
            "moderate churn: adaptive lookup success {:.3} below the {success_bar} bar",
            moderate_adaptive.lookup_success
        ));
    }
    if moderate_adaptive.lost_records != 0 {
        failures.push(format!(
            "moderate churn: adaptive cadence lost {} records (must be 0)",
            moderate_adaptive.lost_records
        ));
    }
    if all_graceful.lost_records != 0 {
        failures.push(format!(
            "all-graceful run lost {} records (must be 0)",
            all_graceful.lost_records
        ));
    }
    if all_graceful.graceful_departures != all_graceful.departures {
        failures.push("all-graceful run had crash-style departures".to_string());
    }
    let reports = [
        ("near-zero/fixed", &quiet_fixed),
        ("near-zero/adaptive", &quiet_adaptive),
        ("moderate/fixed", &moderate_fixed),
        ("moderate/adaptive", &moderate_adaptive),
        ("moderate/graceful", &all_graceful),
    ];
    for (row, rep) in reports {
        // Nobody left, so nobody joined: only a join hands keys over.
        if rep.departures == 0 && rep.handoffs != 0 {
            failures.push(format!(
                "{row}: {} join hand-offs in a run without a single join",
                rep.handoffs
            ));
        }
    }
    if (all_graceful.rereplications as f64) > 0.7 * crash_only.rereplications as f64 {
        failures.push(format!(
            "graceful departures should need well below the crash-only run's repair \
             traffic: {} repushes vs {}",
            all_graceful.rereplications, crash_only.rereplications
        ));
    }

    table.print("Ablation A7 — maintenance cadence policy × churn (dharma-adapt)");
    println!(
        "(maint/GET is probes+handoffs+repushes+leave traffic per GET; repushes \
         is repair re-replication pushes alone; the graceful row drains every \
         departing node through the leave protocol)"
    );

    let sink = CsvSink::new(&args.out, "ablation_adaptive").expect("output dir");
    let path = sink
        .write(
            "adaptive.csv",
            &[
                "churn",
                "cadence",
                "lookup_success",
                "lost_records",
                "departures",
                "graceful_departures",
                "maint_msgs_per_get",
                "probes",
                "rereplications",
                "leave_notices",
                "leave_handoffs",
                "messages_total",
            ],
            rows,
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
