//! The Table II reproduction held to the paper's Table II
//! (`dharma_sim::paper::TABLE2`), at the scale and seed `run_all` prints
//! it with (`Small`, seed 42).
//!
//! μ of `|Tags(r)|` and `|N_FG(t)|` and the share of single-tag resources
//! must lie within their stated tolerances of the paper's. The rest has a
//! known gap, so its rows pin their current distance instead: a fix
//! narrows it and passes, a regression widens it and fails. A `Small`
//! corpus (20,000 resources) cannot reach the snapshot's heavy tail: its
//! `max` column is two orders of magnitude short, its σ follows, μ of
//! `|Res(t)|` is short by its hub tags, and fewer of its tags are
//! singletons (ROADMAP item 15 looks at the generator).

use dharma_folksonomy::DegreeStats;
use dharma_sim::paper::TABLE2;
use dharma_sim::{ExpArgs, ExpContext};

/// How far a reproduced μ may sit from the paper's, relative to the
/// paper's, per column (`None`: a known gap, pinned below). Measured
/// today: `|Tags(r)|` 5.0475 (+1.0 %), `|N_FG(t)|` 351.24 (+11.2 %).
const MU_TOLERANCE: [Option<f64>; 3] = [Some(0.02), None, Some(0.12)];
/// μ of `|Res(t)|`: the paper's 26 minus ours, 18.5228, rounded up at
/// the fourth decimal.
const RES_MU_GAP: f64 = 7.4773;
/// σ per column: the paper's minus ours (16.1293, 84.8375, 551.4227),
/// absolute, rounded up at the fourth decimal.
const SIGMA_GAP: [f64; 3] = [3.1294, 440.1626, 1017.5774];
/// `max` per column: the paper's minus ours (377, 1,432, 3,946), exact.
const MAX_GAP: [f64; 3] = [805.0, 108_285.0, 116_622.0];
/// Single-tag resources: ours 0.4059 against the paper's ≈ 0.40.
const SINGLE_TAG_RESOURCES_TOLERANCE: f64 = 0.02;
/// Singleton tags: the paper's ≈ 0.55 minus ours, 0.4341, rounded up at
/// the fourth decimal.
const SINGLETON_TAGS_GAP: f64 = 0.1159;
/// Slack on a pinned fractional gap: half a unit of the fourth decimal.
const GAP_SLACK: f64 = 0.000_05;

#[test]
fn table2_reproduces_the_paper_within_its_stated_tolerances() {
    let ctx = ExpContext::build(ExpArgs::default());
    let within = |ours: f64, paper: f64, bound: f64, what: &str| {
        assert!(
            (ours - paper).abs() <= bound,
            "{what}: {ours:.4} vs the paper's {paper} (bound {bound})"
        );
    };
    for (c, sample) in ctx.degree_samples().iter().enumerate() {
        let s = DegreeStats::from_sizes(sample.iter().copied());
        let what = |stat: &str| format!("{stat} of {}", TABLE2.columns[c]);
        let (mu, paper_mu) = (s.mean, TABLE2.mu[c]);
        match MU_TOLERANCE[c] {
            Some(tolerance) => within(mu, paper_mu, tolerance * paper_mu, &what("mu")),
            None => within(
                mu,
                paper_mu,
                RES_MU_GAP + GAP_SLACK,
                &what("mu (known gap)"),
            ),
        }
        let sigma = TABLE2.sigma[c];
        within(
            s.std,
            sigma,
            SIGMA_GAP[c] + GAP_SLACK,
            &what("sigma (known gap)"),
        );
        within(
            s.max as f64,
            TABLE2.max[c],
            MAX_GAP[c],
            &what("max (known gap)"),
        );
    }
    let stats = ctx.dataset.stats();
    within(
        stats.singleton_resource_fraction,
        TABLE2.single_tag_resources,
        SINGLE_TAG_RESOURCES_TOLERANCE,
        "single-tag resources",
    );
    within(
        stats.singleton_tag_fraction,
        TABLE2.singleton_tags,
        SINGLETON_TAGS_GAP + GAP_SLACK,
        "singleton tags (known gap)",
    );
}
