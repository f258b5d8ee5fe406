//! The source paper's published results, in one place: the experiment
//! binaries print them beside what they reproduce, and the tests hold the
//! reproduction to them.

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
