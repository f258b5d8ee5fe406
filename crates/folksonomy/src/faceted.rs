//! Faceted search within the Folksonomy Graph (paper §III-C, §V-C).
//!
//! The user explores the tag space along a path `t₀, t₁, …, tₙ` where each
//! `tᵢ` is drawn from the currently displayed candidate set, narrowing
//!
//! ```text
//! Tᵢ = Tᵢ₋₁ ∩ N_FG(tᵢ)        Rᵢ = Rᵢ₋₁ ∩ Res(tᵢ)
//! ```
//!
//! Already-chosen tags are excluded, so `|Tᵢ| < |Tᵢ₋₁|` and convergence is
//! guaranteed. Mirroring the DHT deployment, the neighbor set fetched at
//! each step is capped to the **top `display_cap` by `sim`** (index-side
//! filtering within one UDP payload — §V-A); the intersection with the
//! running candidate set happens locally, exactly as in §IV-A.
//!
//! The search stops when `|Tᵢ| ≤ tag_stop` (default 1) or
//! `|Rᵢ| ≤ resource_stop` (default 10) — the thresholds of §V-C.

use rand::Rng;

use dharma_types::FxHashMap;

use crate::fg::Fg;
use crate::ids::{ResId, TagId};
use crate::trg::Trg;

/// Tag-selection strategy for simulated searches (§V-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Always pick the candidate **most** similar to the current tag.
    First,
    /// Always pick the candidate **least** similar to the current tag.
    Last,
    /// Pick uniformly at random among displayed candidates.
    Random,
}

/// Why a search ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// `|Rᵢ|` fell to the resource threshold — the result set is small
    /// enough to display.
    ResourcesNarrowed,
    /// `|Tᵢ|` fell to the tag threshold — no further refinement possible.
    TagsExhausted,
    /// The safety bound on path length was hit.
    MaxSteps,
}

/// Configuration of the faceted-search process.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Index-side filtering cap on each fetched neighbor set (`None` = no
    /// cap). The paper uses `Some(100)`.
    pub display_cap: Option<usize>,
    /// Stop once `|Rᵢ| ≤ resource_stop` (paper: 10).
    pub resource_stop: usize,
    /// Stop once `|Tᵢ| ≤ tag_stop` (paper: 1).
    pub tag_stop: usize,
    /// Hard bound on the number of selections (safety net; the process
    /// provably converges in `O(|T₀|)` steps anyway).
    pub max_steps: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            display_cap: Some(100),
            resource_stop: 10,
            tag_stop: 1,
            max_steps: 10_000,
        }
    }
}

/// Result of one simulated faceted search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The selected tags, in order (`path[0]` is the seed).
    pub path: Vec<TagId>,
    /// `|Tᵢ|` after the last selection.
    pub final_tags: usize,
    /// `|Rᵢ|` after the last selection.
    pub final_resources: usize,
    /// Why the search stopped.
    pub stop: StopReason,
}

impl SearchOutcome {
    /// Path length in selections (the paper's "search steps").
    pub fn steps(&self) -> usize {
        self.path.len()
    }
}

/// A frozen, search-optimized view of a folksonomy.
///
/// `Res(t)` lists are pre-sorted so each narrowing step is a linear merge
/// instead of hash probing — search simulations run thousands of walks over
/// an immutable graph, so the one-off build cost amortizes immediately.
pub struct FacetedSearch<'g> {
    fg: &'g Fg,
    res_sorted: Vec<Vec<ResId>>,
}

impl<'g> FacetedSearch<'g> {
    /// Builds the search view for a (frozen) TRG + FG pair.
    pub fn new(trg: &Trg, fg: &'g Fg) -> Self {
        let mut res_sorted: Vec<Vec<ResId>> = Vec::with_capacity(trg.num_tags());
        for t in 0..trg.num_tags() as u32 {
            let mut v: Vec<ResId> = trg.res_of(TagId(t)).map(|(r, _)| r).collect();
            v.sort_unstable();
            res_sorted.push(v);
        }
        FacetedSearch { fg, res_sorted }
    }

    /// The neighbor set fetched for `t`, after index-side filtering:
    /// top `display_cap` by descending `sim(t, ·)` (ties by tag id).
    fn fetch_neighbors(&self, t: TagId, cfg: &SearchConfig) -> Vec<(TagId, u64)> {
        match cfg.display_cap {
            Some(cap) => self.fg.top_neighbors(t, cap),
            None => {
                let mut v: Vec<(TagId, u64)> = self.fg.neighbors(t).collect();
                v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.tie_key().cmp(&b.0.tie_key())));
                v
            }
        }
    }

    /// Runs one search from seed `t0` under the given strategy.
    ///
    /// `rng` is only consulted by [`Strategy::Random`].
    pub fn run<R: Rng + ?Sized>(
        &self,
        t0: TagId,
        strategy: Strategy,
        cfg: &SearchConfig,
        rng: &mut R,
    ) -> SearchOutcome {
        let mut path = vec![t0];

        // Step 0: T₀ = (capped) N_FG(t₀), R₀ = Res(t₀).
        let mut candidates = self.fetch_neighbors(t0, cfg);
        let mut resources: Vec<ResId> = self.res_sorted.get(t0.idx()).cloned().unwrap_or_default();

        loop {
            if resources.len() <= cfg.resource_stop {
                return SearchOutcome {
                    final_tags: candidates.len(),
                    final_resources: resources.len(),
                    path,
                    stop: StopReason::ResourcesNarrowed,
                };
            }
            if candidates.len() <= cfg.tag_stop {
                return SearchOutcome {
                    final_tags: candidates.len(),
                    final_resources: resources.len(),
                    path,
                    stop: StopReason::TagsExhausted,
                };
            }
            if path.len() >= cfg.max_steps {
                return SearchOutcome {
                    final_tags: candidates.len(),
                    final_resources: resources.len(),
                    path,
                    stop: StopReason::MaxSteps,
                };
            }

            // Select the next tag among the displayed candidates.
            // `candidates` is sorted by weight desc then id asc, so First is
            // the head and Last the tail (min weight, largest id tie-break is
            // fine — any deterministic tie rule works).
            let next_idx = match strategy {
                Strategy::First => 0,
                Strategy::Last => candidates.len() - 1,
                Strategy::Random => rng.gen_range(0..candidates.len()),
            };
            let (next, _) = candidates[next_idx];
            path.push(next);

            // Narrow: Tᵢ = Tᵢ₋₁ ∩ (capped) N_FG(next) \ chosen,
            //          Rᵢ = Rᵢ₋₁ ∩ Res(next).
            let fetched = self.fetch_neighbors(next, cfg);
            let fetched_map: FxHashMap<TagId, u64> = fetched.into_iter().collect();
            let mut narrowed: Vec<(TagId, u64)> = candidates
                .iter()
                .filter(|(t, _)| *t != next)
                .filter_map(|(t, _)| fetched_map.get(t).map(|&w| (*t, w)))
                .collect();
            // Re-rank by similarity to the *new* current tag.
            narrowed.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.tie_key().cmp(&b.0.tie_key())));
            candidates = narrowed;

            resources = intersect_sorted(
                &resources,
                self.res_sorted.get(next.idx()).map_or(&[], Vec::as_slice),
            );
        }
    }
}

/// Intersects two sorted, deduplicated id slices. Uses a galloping probe
/// when one side is much smaller (the running `Rᵢ` shrinks fast while
/// `Res(t)` of popular tags stays huge).
fn intersect_sorted(a: &[ResId], b: &[ResId]) -> Vec<ResId> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(small.len());
    if large.len() / small.len() >= 16 {
        // Galloping: binary-search each small element in the large slice.
        let mut lo = 0usize;
        for &x in small {
            match large[lo..].binary_search(&x) {
                Ok(pos) => {
                    out.push(x);
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= large.len() {
                break;
            }
        }
    } else {
        // Linear merge.
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ApproxPolicy, Folksonomy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small folksonomy with an obvious hierarchy:
    /// "music" on everything, "rock"/"jazz" split it, leaf tags narrow
    /// further.
    fn build() -> Folksonomy {
        let mut f = Folksonomy::new(ApproxPolicy::EXACT);
        let music = TagId(0);
        let rock = TagId(1);
        let jazz = TagId(2);
        let metal = TagId(3);
        let bebop = TagId(4);
        let mut next = 0u32;
        let mut add = |f: &mut Folksonomy, tags: &[TagId], n: usize| {
            for _ in 0..n {
                f.insert_resource(ResId(next), tags);
                next += 1;
            }
        };
        add(&mut f, &[music, rock, metal], 30);
        add(&mut f, &[music, rock], 40);
        add(&mut f, &[music, jazz, bebop], 20);
        add(&mut f, &[music, jazz], 25);
        add(&mut f, &[music], 10);
        f
    }

    #[test]
    fn narrowing_is_strictly_monotone() {
        let f = build();
        let idx = FacetedSearch::new(f.trg(), f.fg());
        let cfg = SearchConfig {
            resource_stop: 0,
            ..SearchConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let out = idx.run(TagId(0), Strategy::First, &cfg, &mut rng);
        // |T| strictly decreases, so the path is bounded by |T₀| + 1.
        assert!(out.steps() <= 5);
        assert!(out.final_tags <= 1 || out.final_resources == 0);
    }

    #[test]
    fn first_strategy_follows_strongest_arc() {
        let f = build();
        let idx = FacetedSearch::new(f.trg(), f.fg());
        let mut rng = StdRng::seed_from_u64(1);
        let out = idx.run(
            TagId(0),
            Strategy::First,
            &SearchConfig::default(),
            &mut rng,
        );
        // Strongest neighbor of "music" is "rock" (70 resources).
        assert_eq!(out.path[1], TagId(1));
    }

    #[test]
    fn resource_threshold_stops_search() {
        let f = build();
        let idx = FacetedSearch::new(f.trg(), f.fg());
        // "music" has 125 resources; selecting "rock" narrows to 70 ≤ 80,
        // which trips the resource threshold before the tag set empties.
        let cfg = SearchConfig {
            resource_stop: 80,
            ..SearchConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let out = idx.run(TagId(0), Strategy::First, &cfg, &mut rng);
        assert_eq!(out.stop, StopReason::ResourcesNarrowed);
        assert!(out.final_resources <= 80);
        assert_eq!(out.steps(), 2);
    }

    #[test]
    fn isolated_seed_terminates_immediately() {
        let mut f = build();
        let mut rng = StdRng::seed_from_u64(1);
        // A tag on a single resource with no co-tags.
        f.tag(ResId(999), TagId(77), &mut rng);
        let idx = FacetedSearch::new(f.trg(), f.fg());
        let out = idx.run(
            TagId(77),
            Strategy::Random,
            &SearchConfig::default(),
            &mut rng,
        );
        assert_eq!(out.steps(), 1);
        assert_eq!(out.stop, StopReason::ResourcesNarrowed);
    }

    #[test]
    fn chosen_tags_never_reappear() {
        let f = build();
        let idx = FacetedSearch::new(f.trg(), f.fg());
        let cfg = SearchConfig {
            resource_stop: 0,
            tag_stop: 0,
            ..SearchConfig::default()
        };
        for seed in 0..5u32 {
            for strat in [Strategy::First, Strategy::Last, Strategy::Random] {
                let mut rng = StdRng::seed_from_u64(u64::from(seed));
                let out = idx.run(TagId(seed), strat, &cfg, &mut rng);
                let mut seen = std::collections::HashSet::new();
                for t in &out.path {
                    assert!(seen.insert(*t), "tag {t:?} repeated in path");
                }
            }
        }
    }

    #[test]
    fn display_cap_limits_candidates() {
        let mut f = Folksonomy::new(ApproxPolicy::EXACT);
        // One resource with 50 tags: NFG(t0) has 49 entries.
        let tags: Vec<TagId> = (0..50).map(TagId).collect();
        f.insert_resource(ResId(0), &tags);
        let idx = FacetedSearch::new(f.trg(), f.fg());
        let cfg = SearchConfig {
            display_cap: Some(5),
            resource_stop: 0,
            ..SearchConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let out = idx.run(TagId(0), Strategy::Random, &cfg, &mut rng);
        // T₀ is capped to 5, path can't exceed 6 selections.
        assert!(out.steps() <= 6, "got {}", out.steps());
    }

    #[test]
    fn intersect_sorted_paths() {
        let a: Vec<ResId> = [1u32, 3, 5, 7, 9].iter().map(|&x| ResId(x)).collect();
        let b: Vec<ResId> = [3u32, 4, 5, 9, 11].iter().map(|&x| ResId(x)).collect();
        let got = intersect_sorted(&a, &b);
        assert_eq!(got, vec![ResId(3), ResId(5), ResId(9)]);
        // Galloping path: small vs very large.
        let large: Vec<ResId> = (0..1000).map(ResId).collect();
        let small: Vec<ResId> = [0u32, 500, 999, 1001].iter().map(|&x| ResId(x)).collect();
        let got = intersect_sorted(&small, &large);
        assert_eq!(got, vec![ResId(0), ResId(500), ResId(999)]);
        assert_eq!(intersect_sorted(&[], &large), vec![]);
    }

    #[test]
    fn random_strategy_is_seed_deterministic() {
        let f = build();
        let idx = FacetedSearch::new(f.trg(), f.fg());
        let cfg = SearchConfig::default();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            idx.run(TagId(0), Strategy::Random, &cfg, &mut rng).path
        };
        assert_eq!(run(7), run(7));
    }
}
