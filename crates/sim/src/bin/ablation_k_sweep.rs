//! **A2 — ablation**: the connection parameter k, swept well beyond the
//! paper's sampled values. Table III samples k ∈ {1, 5, 10}; Figures 6/8
//! sample {1, 25, 100, 500}. The sweep shows the full recall/τ/θ curves and
//! where they saturate — the cost/quality trade the paper's conclusion
//! ("even k = 1 suffices") rests on.

use dharma_folksonomy::compare::{compare_graphs, GraphComparison};
use dharma_sim::output::{f4, pct, Col, Table};
use dharma_sim::{ExpArgs, ExpContext};

/// `(k, share of the exact FG's arcs kept, comparison)`.
type Row = (usize, f64, GraphComparison);
type C = Col<Row>;

const COLUMNS: &[C] = &[
    C::new("k", "k", |r| r.0.to_string()),
    C::new("arcs kept", "arcs_kept", |r| pct(r.1)).csv(|r| f4(r.1)),
    C::new("Recall mu", "recall_mu", |r| f4(r.2.recall.mean())),
    C::new("", "recall_sigma", |r| f4(r.2.recall.std())),
    C::new("Ktau mu", "ktau_mu", |r| f4(r.2.tau.mean())),
    C::new("theta mu", "theta_mu", |r| f4(r.2.theta.mean())),
    C::new("sim1% mu", "sim1_mu", |r| f4(r.2.sim1.mean())),
];

fn main() {
    let ctx = ExpContext::build(ExpArgs::parse());
    let ks = [1usize, 2, 3, 5, 10, 25, 50, 100, 250, 500];

    let mut table = Table::new(COLUMNS);
    let exact_arcs = ctx.exact_fg.num_arcs();
    for k in ks {
        let model = ctx.replay_paper(k);
        let cmp = compare_graphs(&ctx.pool, &ctx.exact_fg, model.fg(), 2);
        let kept = model.fg().num_arcs() as f64 / exact_arcs as f64;
        table.rows.push((k, kept, cmp));
    }
    table.print(
        "Ablation A2 — connection parameter sweep",
        "(paper: recall grows sub-linearly with k; rank metrics are high already at k = 1)",
    );
    table.write_csv(&ctx.args.out, "ablation_k_sweep", "k_sweep.csv");
}
