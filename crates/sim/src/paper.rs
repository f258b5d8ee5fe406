//! The source paper's published results, in one place: the experiment
//! binaries print them beside what they reproduce, and the tests hold the
//! reproduction to them.

/// Table II: degree statistics of the paper's Last.fm snapshot (§V-A),
/// and the shares of its long tail the text gives beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table2 {
    /// The distributions' names, in column order: `|Tags(r)|`, `|Res(t)|`
    /// and `|N_FG(t)|`.
    pub columns: [&'static str; 3],
    /// μ of each column.
    pub mu: [f64; 3],
    /// σ of each column.
    pub sigma: [f64; 3],
    /// The maximum of each column.
    pub max: [f64; 3],
    /// The share of tags that mark one resource only (≈ 55 %).
    pub singleton_tags: f64,
    /// The share of resources that carry one tag only (≈ 40 %).
    pub single_tag_resources: f64,
}

/// Table II of the paper (§V-A).
pub const TABLE2: Table2 = Table2 {
    columns: ["Tags(r)", "Res(t)", "NFG(t)"],
    mu: [5.0, 26.0, 316.0],
    sigma: [13.0, 525.0, 1569.0],
    max: [1182.0, 109_717.0, 120_568.0],
    singleton_tags: 0.55,
    single_tag_resources: 0.40,
};

/// One row of Table III: the approximated folksonomy graph (Approximations
/// A + B at one `k`) against the exact one. Each metric is `[μ, σ]` over
/// tags.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table3Row {
    /// The approximation parameter (arcs updated per annotation).
    pub k: usize,
    /// Recall: the share of a tag's exact out-arcs the approximation keeps.
    pub recall: [f64; 2],
    /// Kendall τ (tie-corrected τ-b) between exact and approximated arc
    /// ranks.
    pub ktau: [f64; 2],
    /// Cosine similarity θ of the exact and approximated arc weights.
    pub theta: [f64; 2],
    /// sim1%: the share of *missing* arcs whose exact weight is 1.
    pub sim1: [f64; 2],
}

/// Table III of the paper (§V-B), for k = 1, 5 and 10.
pub const TABLE3: [Table3Row; 3] = [
    Table3Row {
        k: 1,
        recall: [0.6103, 0.2798],
        ktau: [0.7636, 0.2728],
        theta: [0.8152, 0.1978],
        sim1: [0.9214, 0.1044],
    },
    Table3Row {
        k: 5,
        recall: [0.7268, 0.2730],
        ktau: [0.7638, 0.2380],
        theta: [0.8664, 0.1636],
        sim1: [0.9346, 0.0914],
    },
    Table3Row {
        k: 10,
        recall: [0.7841, 0.2686],
        ktau: [0.7985, 0.2138],
        theta: [0.8971, 0.1424],
        sim1: [0.9432, 0.0850],
    },
];

impl std::fmt::Display for Table3Row {
    /// The row as the Table III binary prints it beside its own: each
    /// metric as `μ±σ`, four decimals each.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pm = |[mu, sigma]: [f64; 2]| format!("{mu:.4}±{sigma:.4}");
        let label = format!("(k={}):", self.k);
        write!(
            f,
            "paper {label:<7} Recall {}  Ktau {}  theta {}  sim1% {}",
            pm(self.recall),
            pm(self.ktau),
            pm(self.theta),
            pm(self.sim1)
        )
    }
}
