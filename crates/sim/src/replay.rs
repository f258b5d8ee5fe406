//! The approximated-graph replay protocol (paper §V-B).
//!
//! Starting from a fully disconnected graph containing every tag and
//! resource of a *reference* TRG, the simulation repeatedly performs one
//! tagging operation:
//!
//! * resource `r` is drawn with probability proportional to its popularity
//!   `|Tags(r)|` in the reference (restricted to resources that still have
//!   unplayed annotation instances — a Fenwick tree makes that `O(log R)`);
//! * tag `t` is drawn within `Tags(r)` proportionally to the reference
//!   weight `u(t, r)` (again among tags with instances left);
//! * the tagging operation updates the TRG and — under the configured
//!   [`ApproxPolicy`] — the folksonomy graph.
//!
//! The run ends when every `u(t, r)` multiplicity of the reference has been
//! replayed, so the final TRG equals the reference **exactly** (asserted in
//! tests); only the FG differs, which is what Figures 6/8 and Table III
//! measure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dharma_dataset::Fenwick;
use dharma_folksonomy::{ApproxPolicy, Folksonomy, ResId, TagId, Trg};

/// How replay events are interleaved across resources.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EventOrder {
    /// The paper's protocol: popularity-biased resource choice.
    #[default]
    PopularityBiased,
    /// Uniform choice among resources with remaining instances (ablation).
    Uniform,
}

/// Replay configuration.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// FG maintenance policy (the paper replays with Approximations A + B).
    pub policy: ApproxPolicy,
    /// Event interleaving.
    pub order: EventOrder,
    /// RNG seed.
    pub seed: u64,
}

impl ReplayConfig {
    /// The paper's configuration at connection parameter `k`.
    pub fn paper(k: usize, seed: u64) -> Self {
        ReplayConfig {
            policy: ApproxPolicy::paper(k),
            order: EventOrder::PopularityBiased,
            seed,
        }
    }
}

/// The annotation instances of a reference TRG not yet played, drawn one
/// at a time: the resource among those with instances left, through a
/// Fenwick tree over their static popularity under an [`EventOrder`]; then
/// the tag within it ∝ its reference weight `u(t, r)` among tags with
/// instances left (a linear scan: `|Tags(r)|` is small on average). Both
/// [`replay`] and the trend-emergence run draw their baseline from it.
pub(crate) struct Playlist {
    /// Per resource: `(tag, u(t, r), instances left)`.
    tags: Vec<Vec<(TagId, u32, u32)>>,
    /// Per resource: instances left.
    left: Vec<u64>,
    fenwick: Fenwick,
    remaining: u64,
}

impl Playlist {
    /// Every instance of `reference`, interleaved across resources by
    /// `order`.
    pub(crate) fn new(reference: &Trg, order: EventOrder) -> Self {
        let num_res = reference.num_resources();
        let mut tags = Vec::with_capacity(num_res);
        let mut popularity = vec![0u64; num_res];
        let mut left = vec![0u64; num_res];
        for r in 0..num_res {
            let list: Vec<(TagId, u32, u32)> = reference
                .tags_of(ResId(r as u32))
                .map(|(t, u)| (t, u, u))
                .collect();
            left[r] = list.iter().map(|&(_, u, _)| u64::from(u)).sum();
            popularity[r] = match order {
                EventOrder::PopularityBiased => list.len() as u64,
                EventOrder::Uniform => u64::from(left[r] > 0),
            };
            tags.push(list);
        }
        Playlist {
            fenwick: Fenwick::from_weights(&popularity),
            remaining: left.iter().sum(),
            tags,
            left,
        }
    }

    /// Instances not yet drawn.
    pub(crate) fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Draws the next instance, `(resource, tag)`, and removes it.
    pub(crate) fn draw(&mut self, rng: &mut StdRng) -> (ResId, TagId) {
        let r = self.fenwick.sample(rng);
        let tags = &mut self.tags[r];
        let live: u64 = tags
            .iter()
            .filter(|&&(_, _, rem)| rem > 0)
            .map(|&(_, u, _)| u64::from(u))
            .sum();
        let mut pick = rng.gen_range(0..live);
        let chosen = tags
            .iter()
            .position(|&(_, u, rem)| {
                let w = if rem > 0 { u64::from(u) } else { 0 };
                if pick < w {
                    return true;
                }
                pick -= w;
                false
            })
            .expect("the pick falls inside the live weight");
        tags[chosen].2 -= 1;
        self.remaining -= 1;
        self.left[r] -= 1;
        if self.left[r] == 0 {
            // Resource exhausted: remove it from the draw.
            self.fenwick.sub(r, self.fenwick.weight(r));
        }
        (ResId(r as u32), tags[chosen].0)
    }
}

/// Replays `reference` under `cfg`, returning the evolved folksonomy
/// (its TRG is equal to the reference when the run completes).
pub fn replay(reference: &Trg, cfg: &ReplayConfig) -> Folksonomy {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut playlist = Playlist::new(reference, cfg.order);
    let mut model =
        Folksonomy::with_capacity(cfg.policy, reference.num_tags(), reference.num_resources());
    while playlist.remaining() > 0 {
        let (r, tag) = playlist.draw(&mut rng);
        model.tag(r, tag, &mut rng);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_dataset::{GeneratorConfig, Scale};
    use dharma_folksonomy::Fg;

    fn tiny_reference() -> Trg {
        GeneratorConfig::lastfm_like(Scale::Tiny, 5).generate().trg
    }

    #[test]
    fn replay_reconstructs_the_reference_trg() {
        let reference = tiny_reference();
        let model = replay(&reference, &ReplayConfig::paper(1, 9));
        assert!(
            model.trg().same_edges(&reference),
            "TRG must converge to the reference exactly"
        );
    }

    #[test]
    fn exact_replay_matches_derived_fg() {
        let reference = tiny_reference();
        let cfg = ReplayConfig {
            policy: ApproxPolicy::EXACT,
            order: EventOrder::PopularityBiased,
            seed: 10,
        };
        let model = replay(&reference, &cfg);
        let derived = Fg::derive_exact(&reference);
        assert_eq!(model.fg().num_arcs(), derived.num_arcs());
        // Spot-check all arcs of the busiest tags.
        for (t1, t2, w) in model.fg().arcs() {
            assert_eq!(derived.sim(t1, t2), w, "arc {t1:?}->{t2:?}");
        }
    }

    #[test]
    fn approximated_replay_loses_only_weight() {
        let reference = tiny_reference();
        let approx = replay(&reference, &ReplayConfig::paper(1, 11));
        let exact = Fg::derive_exact(&reference);
        let mut lost_arcs = 0usize;
        for (t1, t2, w) in exact.arcs() {
            let wa = approx.fg().sim(t1, t2);
            assert!(wa <= w, "approx weight can never exceed exact");
            if wa == 0 {
                lost_arcs += 1;
            }
        }
        assert!(lost_arcs > 0, "k = 1 must drop some arcs at this scale");
        // And no arc exists in approx that is absent from exact.
        for (t1, t2, _) in approx.fg().arcs() {
            assert!(exact.sim(t1, t2) > 0);
        }
    }

    #[test]
    fn replay_is_seed_deterministic() {
        let reference = tiny_reference();
        let a = replay(&reference, &ReplayConfig::paper(2, 17));
        let b = replay(&reference, &ReplayConfig::paper(2, 17));
        assert_eq!(a.fg().num_arcs(), b.fg().num_arcs());
        for (t1, t2, w) in a.fg().arcs() {
            assert_eq!(b.fg().sim(t1, t2), w);
        }
        let c = replay(&reference, &ReplayConfig::paper(2, 18));
        let differs = a.fg().arcs().any(|(t1, t2, w)| c.fg().sim(t1, t2) != w);
        assert!(differs, "different seeds should explore different subsets");
    }

    #[test]
    fn uniform_order_also_reconstructs_trg() {
        let reference = tiny_reference();
        let cfg = ReplayConfig {
            policy: ApproxPolicy::paper(1),
            order: EventOrder::Uniform,
            seed: 3,
        };
        let model = replay(&reference, &cfg);
        assert!(model.trg().same_edges(&reference));
    }

    #[test]
    fn larger_k_keeps_more_arcs() {
        let reference = tiny_reference();
        let k1 = replay(&reference, &ReplayConfig::paper(1, 21));
        let k100 = replay(&reference, &ReplayConfig::paper(100, 21));
        assert!(
            k100.fg().num_arcs() >= k1.fg().num_arcs(),
            "recall grows with k: {} vs {}",
            k100.fg().num_arcs(),
            k1.fg().num_arcs()
        );
    }
}
