//! **E5 — Table III**: approximated vs theoretic folksonomy graph.
//!
//! For k ∈ {1, 5, 10}: replay the annotation history with Approximations
//! A + B, then compare each tag's out-arcs against the exact FG — Recall,
//! Kendall τ (tie-corrected τ-b), cosine θ, and sim1% (share of *missing*
//! arcs whose exact weight is 1). Reported as μ and σ over tags, exactly
//! like the paper's table.

use dharma_folksonomy::compare::compare_graphs;
use dharma_sim::output::{f4, CsvSink, TextTable};
use dharma_sim::paper::TABLE3;
use dharma_sim::{ExpArgs, ExpContext};

fn main() {
    let ctx = ExpContext::build(ExpArgs::parse());
    let sink = CsvSink::new(&ctx.args.out, "table3_approx_quality").expect("output dir");

    let mut table = TextTable::new(["k", "", "Recall", "Ktau", "theta", "sim1%"]);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    for k in TABLE3.map(|row| row.k) {
        let model = ctx.replay_paper(k);
        // min_arcs = 2: rank metrics need at least two arcs; matches the
        // comparison population the paper's metrics are defined on.
        let cmp = compare_graphs(&ctx.pool, &ctx.exact_fg, model.fg(), 2);
        table.row([
            k.to_string(),
            "mu".into(),
            f4(cmp.recall.mean()),
            f4(cmp.tau.mean()),
            f4(cmp.theta.mean()),
            f4(cmp.sim1.mean()),
        ]);
        table.row([
            String::new(),
            "sigma".into(),
            f4(cmp.recall.std()),
            f4(cmp.tau.std()),
            f4(cmp.theta.std()),
            f4(cmp.sim1.std()),
        ]);
        csv_rows.push(vec![
            k.to_string(),
            f4(cmp.recall.mean()),
            f4(cmp.recall.std()),
            f4(cmp.tau.mean()),
            f4(cmp.tau.std()),
            f4(cmp.theta.mean()),
            f4(cmp.theta.std()),
            f4(cmp.sim1.mean()),
            f4(cmp.sim1.std()),
        ]);
    }

    table.print("Table III — approximated vs theoretic folksonomy graph");
    println!();
    for row in &TABLE3 {
        println!("{row}");
    }

    let path = sink
        .write(
            "table3.csv",
            &[
                "k",
                "recall_mu",
                "recall_sigma",
                "ktau_mu",
                "ktau_sigma",
                "theta_mu",
                "theta_sigma",
                "sim1_mu",
                "sim1_sigma",
            ],
            csv_rows,
        )
        .expect("write csv");
    println!("wrote {}", path.display());
}
