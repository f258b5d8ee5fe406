//! **A1 — ablation**: which approximation causes which effect?
//!
//! Replays the same history under five policies — exact, A-only (k), B-only,
//! A+B (the paper's), and the literal reading of Approximation B — and
//! reports the Table III metrics for each. This isolates the contributions:
//! A drops arcs (recall), B flattens weights (θ), and together they shed the
//! noise tail (sim1%).

use dharma_folksonomy::compare::{compare_graphs, GraphComparison};
use dharma_folksonomy::{ApproxPolicy, BPolicy};
use dharma_sim::output::{f4, Col, Table};
use dharma_sim::replay::{EventOrder, ReplayConfig};
use dharma_sim::{ExpArgs, ExpContext};

type Row = (&'static str, usize, GraphComparison);
type C = Col<Row>;

const COLUMNS: &[C] = &[
    C::new("policy", "policy", |r| r.0.to_string()),
    C::new("arcs", "arcs", |r| r.1.to_string()),
    C::new("Recall mu", "recall_mu", |r| f4(r.2.recall.mean())),
    C::new("Ktau mu", "ktau_mu", |r| f4(r.2.tau.mean())),
    C::new("theta mu", "theta_mu", |r| f4(r.2.theta.mean())),
    C::new("sim1% mu", "sim1_mu", |r| f4(r.2.sim1.mean())),
];

fn main() {
    let ctx = ExpContext::build(ExpArgs::parse());
    let k = 5usize;

    let policies: Vec<(&str, ApproxPolicy)> = vec![
        ("exact", ApproxPolicy::EXACT),
        ("A only", ApproxPolicy::a_only(k)),
        ("B only", ApproxPolicy::b_only()),
        ("A + B (paper)", ApproxPolicy::paper(k)),
        (
            "A + literal-B",
            ApproxPolicy {
                connection_k: Some(k),
                b_policy: BPolicy::LiteralB,
            },
        ),
    ];

    let mut table = Table::new(COLUMNS);
    for (name, policy) in policies {
        let model = ctx.replay_with(&ReplayConfig {
            policy,
            order: EventOrder::PopularityBiased,
            seed: ctx.args.seed,
        });
        let cmp = compare_graphs(&ctx.pool, &ctx.exact_fg, model.fg(), 2);
        table.rows.push((name, model.fg().num_arcs(), cmp));
    }

    table.print(
        &format!("Ablation A1 — approximation policies (k = {k})"),
        "(exact reproduces the derived FG: recall = tau = theta = 1; A drops arcs; B rescales weights)",
    );
    table.write_csv(&ctx.args.out, "ablation_policies", "policies.csv");
}
