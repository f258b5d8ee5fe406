//! Trend-emergence dynamics — the paper's stated future work (§VI):
//! *"we are planning to study if our approximated model hampers the
//! emergence of new tagging trends"*.
//!
//! Protocol: replay a warmup fraction of the reference history, then start
//! injecting a **brand-new tag** applied by a stream of users to a set of
//! popular resources, interleaved with the remaining baseline traffic. A
//! trend has *emerged* when the new tag becomes visible to searchers — i.e.
//! when it climbs into the **top-100 entries of the `t̂` block of a popular
//! co-occurring hub tag** (that is the set a navigating user is shown,
//! §V-A/§V-C).
//!
//! The race is structural: under Approximation A, each trend event bumps the
//! hub's arc `(hub, T*)` only with probability ≈ `k / |Tags(r)|`, so low `k`
//! slows the weight growth that must overtake the hub's established
//! neighbors. The experiment measures the *visibility delay* — how many
//! trend events it takes before the new tag surfaces — across policies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dharma_folksonomy::{ApproxPolicy, Folksonomy, ResId, TagId, Trg};

use crate::replay::{EventOrder, Playlist};

/// Configuration of one trend-emergence run.
#[derive(Clone, Debug)]
pub struct TrendConfig {
    /// Fraction of the baseline history replayed before the trend starts.
    pub warmup_fraction: f64,
    /// Total trend annotation events to inject.
    pub trend_events: usize,
    /// Probability that a post-warmup step is a trend event (the rest is
    /// baseline traffic), while trend budget remains.
    pub trend_rate: f64,
    /// The trend attaches to this many of the most popular resources.
    pub targets: usize,
    /// Tag-maintenance policy under test.
    pub policy: ApproxPolicy,
    /// Display cap defining "visibility" (paper: 100).
    pub visibility_top_n: usize,
    /// Sample the trajectory every this many trend events.
    pub sample_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            warmup_fraction: 0.5,
            trend_events: 2_000,
            trend_rate: 0.25,
            targets: 20,
            policy: ApproxPolicy::paper(1),
            visibility_top_n: 100,
            sample_every: 50,
            seed: 0,
        }
    }
}

/// One point of the emergence trajectory.
#[derive(Clone, Copy, Debug)]
pub struct TrendSample {
    /// Trend events injected so far.
    pub trend_events: usize,
    /// `|N_FG(T*)|` — out-degree of the trend tag.
    pub out_degree: usize,
    /// Weight of the hub → trend arc (`sim(hub, T*)`).
    pub hub_arc_weight: u64,
    /// Rank of `T*` among the hub's out-arcs (0 = heaviest), if connected.
    pub hub_rank: Option<usize>,
    /// True when `T*` is inside the hub's top-`visibility_top_n` display.
    pub visible: bool,
}

/// The result of a run: the trajectory plus the headline number.
#[derive(Clone, Debug)]
pub struct TrendReport {
    /// Sampled trajectory, in trend-event order.
    pub samples: Vec<TrendSample>,
    /// Trend events needed until first visibility (`None` = never).
    pub events_to_visibility: Option<usize>,
    /// The hub tag used as the visibility reference.
    pub hub: TagId,
}

/// Runs the trend-emergence experiment on `reference` under `cfg`.
pub fn run_trend(reference: &Trg, cfg: &TrendConfig) -> TrendReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let num_res = reference.num_resources();
    let num_tags = reference.num_tags();
    let trend_tag = TagId(num_tags as u32);

    // The baseline history, drawn as in the replay engine.
    let mut baseline = Playlist::new(reference, EventOrder::PopularityBiased);

    // Trend targets: the most popular resources (by |Tags(r)|).
    let mut by_degree: Vec<(usize, u32)> = (0..num_res as u32)
        .map(|r| (reference.tag_degree(ResId(r)), r))
        .collect();
    by_degree.sort_unstable_by(|a, b| b.cmp(a));
    let targets: Vec<ResId> = by_degree
        .iter()
        .take(cfg.targets.max(1))
        .map(|&(_, r)| ResId(r))
        .collect();

    // The visibility hub: the most popular tag co-occurring on the targets.
    let hub = targets
        .iter()
        .flat_map(|&r| reference.tags_of(r).map(|(t, _)| t))
        .max_by_key(|&t| reference.res_degree(t))
        .expect("targets carry tags");

    let mut model = Folksonomy::with_capacity(cfg.policy, num_tags + 1, num_res);

    // Phase 1 — warmup: replay the first fraction of baseline events.
    let warmup_events = (baseline.remaining() as f64 * cfg.warmup_fraction) as u64;
    for _ in 0..warmup_events {
        let (r, tag) = baseline.draw(&mut rng);
        model.tag(r, tag, &mut rng);
    }

    // Phase 2 — injection: trend events interleaved with baseline traffic.
    let mut samples = Vec::new();
    let mut events_to_visibility = None;
    let mut injected = 0usize;
    let observe = |model: &Folksonomy, injected: usize| -> TrendSample {
        let weight = model.fg().sim(hub, trend_tag);
        let rank = if weight > 0 {
            Some(
                model
                    .fg()
                    .neighbors(hub)
                    .filter(|&(n, w)| {
                        w > weight || (w == weight && n.tie_key() < trend_tag.tie_key())
                    })
                    .count(),
            )
        } else {
            None
        };
        let visible = rank.is_some_and(|r| r < cfg.visibility_top_n);
        TrendSample {
            trend_events: injected,
            out_degree: model.fg().out_degree(trend_tag),
            hub_arc_weight: weight,
            hub_rank: rank,
            visible,
        }
    };

    while injected < cfg.trend_events {
        let do_trend = baseline.remaining() == 0 || rng.gen::<f64>() < cfg.trend_rate;
        if do_trend {
            let &target = &targets[rng.gen_range(0..targets.len())];
            model.tag(target, trend_tag, &mut rng);
            injected += 1;
            if injected.is_multiple_of(cfg.sample_every) || injected == cfg.trend_events {
                let sample = observe(&model, injected);
                if sample.visible && events_to_visibility.is_none() {
                    events_to_visibility = Some(injected);
                }
                samples.push(sample);
            }
        } else {
            let (r, tag) = baseline.draw(&mut rng);
            model.tag(r, tag, &mut rng);
        }
    }

    TrendReport {
        samples,
        events_to_visibility,
        hub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_dataset::{GeneratorConfig, Scale};

    fn reference() -> Trg {
        GeneratorConfig::lastfm_like(Scale::Tiny, 5).generate().trg
    }

    #[test]
    fn exact_trend_becomes_visible() {
        let trg = reference();
        let cfg = TrendConfig {
            policy: ApproxPolicy::EXACT,
            trend_events: 1_500,
            seed: 1,
            ..TrendConfig::default()
        };
        let report = run_trend(&trg, &cfg);
        assert!(
            report.events_to_visibility.is_some(),
            "an exact model must surface a sustained trend"
        );
        // Trajectory is monotone in arc weight.
        for w in report.samples.windows(2) {
            assert!(w[1].hub_arc_weight >= w[0].hub_arc_weight);
        }
    }

    #[test]
    fn approximation_delays_but_does_not_block_emergence() {
        let trg = reference();
        let run = |policy: ApproxPolicy| {
            let cfg = TrendConfig {
                policy,
                trend_events: 3_000,
                seed: 2,
                ..TrendConfig::default()
            };
            run_trend(&trg, &cfg)
        };
        let exact = run(ApproxPolicy::EXACT);
        let k1 = run(ApproxPolicy::paper(1));
        let e_exact = exact.events_to_visibility.expect("exact emerges");
        match k1.events_to_visibility {
            Some(e_k1) => assert!(e_k1 >= e_exact, "k=1 cannot beat exact: {e_k1} < {e_exact}"),
            None => {
                // Delayed beyond the horizon is acceptable at tiny scale,
                // but the arc must at least exist and be growing.
                let last = k1.samples.last().unwrap();
                assert!(last.hub_arc_weight > 0, "trend arc never formed");
            }
        }
    }

    #[test]
    fn trajectories_are_seed_deterministic() {
        let trg = reference();
        let cfg = TrendConfig {
            seed: 3,
            trend_events: 500,
            ..TrendConfig::default()
        };
        let a = run_trend(&trg, &cfg);
        let b = run_trend(&trg, &cfg);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.hub_arc_weight, y.hub_arc_weight);
            assert_eq!(x.out_degree, y.out_degree);
        }
        assert_eq!(a.hub, b.hub);
    }
}
