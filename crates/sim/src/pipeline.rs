//! Shared experiment pipeline: dataset → exact FG → replayed FGs.

// dharma-lint: allow-file(D1): harness-side stderr timing logs around fully
// deterministic stages; the timings never enter any simulated state.

use std::time::Instant;

use dharma_dataset::{Dataset, GeneratorConfig};
use dharma_folksonomy::{Fg, Folksonomy, ResId, TagId};
use dharma_par::ThreadPool;

use crate::args::ExpArgs;
use crate::replay::{replay, ReplayConfig};

/// Everything an experiment binary needs: the dataset, its exact folksonomy
/// graph, and a worker pool.
pub struct ExpContext {
    /// Parsed CLI arguments.
    pub args: ExpArgs,
    /// The (synthetic) reference dataset.
    pub dataset: Dataset,
    /// The exact FG derived from the reference TRG ("original graph").
    pub exact_fg: Fg,
    /// Worker pool.
    pub pool: ThreadPool,
}

impl ExpContext {
    /// Builds the context: generates the dataset and derives the exact FG,
    /// logging timings to stderr.
    pub fn build(args: ExpArgs) -> Self {
        let pool = args.pool();
        let t0 = Instant::now();
        let dataset = GeneratorConfig::lastfm_like(args.scale, args.seed).generate();
        let s = dataset.stats();
        eprintln!(
            "[pipeline] dataset scale={:?} seed={}: {} tags, {} resources, {} annotations ({} edges) in {:.1?}",
            args.scale,
            args.seed,
            s.active_tags,
            s.active_resources,
            s.annotations,
            s.edges,
            t0.elapsed()
        );
        let t1 = Instant::now();
        let exact_fg = Fg::derive_exact(&dataset.trg);
        eprintln!(
            "[pipeline] exact FG: {} arcs in {:.1?}",
            exact_fg.num_arcs(),
            t1.elapsed()
        );
        ExpContext {
            args,
            dataset,
            exact_fg,
            pool,
        }
    }

    /// Replays the reference under the paper's protocol at connection
    /// parameter `k`, logging timing.
    pub fn replay_paper(&self, k: usize) -> Folksonomy {
        let t = Instant::now();
        let model = replay(
            &self.dataset.trg,
            &ReplayConfig::paper(k, self.args.seed ^ k as u64),
        );
        eprintln!(
            "[pipeline] replay k={k}: {} arcs in {:.1?}",
            model.fg().num_arcs(),
            t.elapsed()
        );
        model
    }

    /// The three degree samples Table II summarises, over active vertices
    /// only (as in the paper's snapshot): `|Tags(r)|` per resource,
    /// `|Res(t)|` per tag and `|N_FG(t)|` per tag of the exact FG.
    pub fn degree_samples(&self) -> [Vec<u64>; 3] {
        fn active(sizes: impl Iterator<Item = usize>) -> Vec<u64> {
            sizes.map(|d| d as u64).filter(|&d| d > 0).collect()
        }
        let (trg, fg) = (&self.dataset.trg, &self.exact_fg);
        [
            active((0..trg.num_resources() as u32).map(|r| trg.tag_degree(ResId(r)))),
            active((0..trg.num_tags() as u32).map(|t| trg.res_degree(TagId(t)))),
            active((0..fg.num_tags() as u32).map(|t| fg.out_degree(TagId(t)))),
        ]
    }

    /// Replays under an arbitrary configuration.
    pub fn replay_with(&self, cfg: &ReplayConfig) -> Folksonomy {
        let t = Instant::now();
        let model = replay(&self.dataset.trg, cfg);
        eprintln!(
            "[pipeline] replay policy={:?}: {} arcs in {:.1?}",
            cfg.policy,
            model.fg().num_arcs(),
            t.elapsed()
        );
        model
    }
}
