//! **E2 — Table II + Figure 5**: dataset degree statistics and CDFs.
//!
//! Prints the μ/σ/max table for `Tags(r)`, `Res(t)` and `N_FG(t)` (paper
//! values alongside for comparison, from [`dharma_sim::paper::TABLE2`])
//! and writes the three cumulative degree distributions as CSV series.

use dharma_folksonomy::{cdf_points, DegreeStats};
use dharma_sim::output::{f2, CsvSink, TextTable};
use dharma_sim::paper::TABLE2;
use dharma_sim::{ExpArgs, ExpContext};

fn main() {
    let ctx = ExpContext::build(ExpArgs::parse());
    // Degree samples (active vertices only, as in the paper's snapshot).
    let [tags_r, res_t, nfg_t] = ctx.degree_samples();
    let stats = [&tags_r, &res_t, &nfg_t].map(|s| DegreeStats::from_sizes(s.iter().copied()));

    let mut t = TextTable::new(["Degree", "Tags(r)", "Res(t)", "NFG(t)"]);
    for (label, [a, b, c]) in [
        ("mu", stats.map(|s| f2(s.mean))),
        ("sigma", stats.map(|s| f2(s.std))),
        ("max", stats.map(|s| s.max.to_string())),
        ("paper mu", TABLE2.mu.map(|v| v.to_string())),
        ("paper sigma", TABLE2.sigma.map(|v| v.to_string())),
        ("paper max", TABLE2.max.map(|v| v.to_string())),
    ] {
        t.row([label.to_string(), a, b, c]);
    }
    t.print("Table II — Last.fm-like graph degree statistics");

    let stats = ctx.dataset.stats();
    println!(
        "\nsingleton tags: {:.1}% (paper ~{:.0}%)   single-tag resources: {:.1}% (paper ~{:.0}%)",
        stats.singleton_tag_fraction * 100.0,
        TABLE2.singleton_tags * 100.0,
        stats.singleton_resource_fraction * 100.0,
        TABLE2.single_tag_resources * 100.0
    );

    let sink = CsvSink::new(&ctx.args.out, "fig5_degree_cdf").expect("output dir");
    for (name, series) in [
        ("tags_per_resource.csv", tags_r),
        ("res_per_tag.csv", res_t),
        ("nfg_per_tag.csv", nfg_t),
    ] {
        let cdf = cdf_points(series);
        let path = sink
            .write(
                name,
                &["size", "cumulative_probability"],
                cdf.into_iter()
                    .map(|(v, p)| vec![v.to_string(), format!("{p:.6}")]),
            )
            .expect("write csv");
        println!("wrote {}", path.display());
    }
}
