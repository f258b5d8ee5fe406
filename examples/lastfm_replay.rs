//! End-to-end reproduction pipeline on a Last.fm-like dataset, in miniature:
//! generate the synthetic dataset, derive the exact folksonomy graph, replay
//! the annotation history under Approximations A + B, and print the Table
//! III-style quality metrics plus a search-convergence comparison.
//!
//! ```sh
//! cargo run -p dharma-integration --release --example lastfm_replay
//! ```

use dharma_dataset::{GeneratorConfig, Scale};
use dharma_folksonomy::compare::compare_graphs;
use dharma_folksonomy::Fg;
use dharma_par::ThreadPool;
use dharma_sim::replay::{replay, ReplayConfig};
use dharma_sim::search_sim::{simulate_searches, SearchSimConfig};

fn main() {
    let pool = ThreadPool::with_default_threads();

    // 1. Synthetic Last.fm-like dataset (see dharma-dataset for the
    //    calibration against the paper's Table II).
    let dataset = GeneratorConfig::lastfm_like(Scale::Tiny, 2024).generate();
    let stats = dataset.stats();
    println!(
        "dataset: {} tags / {} resources / {} annotations ({:.0}% singleton tags)",
        stats.active_tags,
        stats.active_resources,
        stats.annotations,
        stats.singleton_tag_fraction * 100.0
    );

    // 2. The theoretic ("original") folksonomy graph.
    let exact = Fg::derive_exact(&dataset.trg);
    println!("exact FG: {} arcs", exact.num_arcs());

    // 3. Replay the same history through the approximated protocol.
    for k in [1usize, 10] {
        let model = replay(&dataset.trg, &ReplayConfig::paper(k, 1));
        assert!(model.trg().same_edges(&dataset.trg), "TRG must reconverge");
        let cmp = compare_graphs(&pool, &exact, model.fg(), 2);
        println!(
            "k={k:<3} arcs={:<8} recall={:.3} Ktau={:.3} theta={:.3} sim1%={:.3}",
            model.fg().num_arcs(),
            cmp.recall.mean(),
            cmp.tau.mean(),
            cmp.theta.mean(),
            cmp.sim1.mean()
        );
    }

    // 4. Does the user search experience survive the approximation?
    let cfg = SearchSimConfig {
        seeds: 30,
        random_runs: 20,
        seed: 9,
        ..SearchSimConfig::default()
    };
    let original = simulate_searches(&pool, &dataset, &exact, &cfg);
    let model = replay(&dataset.trg, &ReplayConfig::paper(1, 1));
    let approximated = simulate_searches(&pool, &dataset, model.fg(), &cfg);
    println!("\nsearch path lengths (last / random / first):");
    println!(
        "  original:     {:.2} / {:.2} / {:.2}",
        original.last.mean, original.random.mean, original.first.mean
    );
    println!(
        "  approximated: {:.2} / {:.2} / {:.2}",
        approximated.last.mean, approximated.random.mean, approximated.first.mean
    );
    println!("(paper's conclusion: approximation does not degrade — and can shorten — navigation)");
}
