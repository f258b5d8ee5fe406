//! Coupled TRG + FG maintenance — exact (§III-B) and approximated (§IV-B).
//!
//! The paper defines two mutating operations:
//!
//! * **Resource insertion** — a user inserts a new resource `r` with tag set
//!   `T_r = {t_1 … t_m}`: every `u(t_i, r)` is set to 1 and every ordered
//!   pair of distinct tags in `T_r` gains `sim += 1`.
//! * **Tag insertion** — a user tags an existing resource `r` with `t`:
//!   `u(t, r)` is incremented; for every other tag `τ ∈ Tags(r)`,
//!   `sim(τ, t) += 1`; and *only if `t` was not yet on `r`*,
//!   `sim(t, τ) += u(τ, r)` (because `r` just entered `Res(t)`).
//!
//! The DHT mapping makes the naive tag insertion cost `4 + |Tags(r)|`
//! lookups and racy, so §IV-B introduces:
//!
//! * **Approximation A** — only a uniform random subset of `Tags(r)` of size
//!   ≤ `k` receives the updates;
//! * **Approximation B** — the `sim(t, τ) += u(τ, r)` bulk increment becomes
//!   `+= 1`, which is exactly "append one token" on the DHT and therefore
//!   commutes under concurrent writers.
//!
//! See DESIGN.md §3 for how the ambiguous wording of Approximation B is
//! resolved; the literal reading is kept as [`BPolicy::LiteralB`] for the
//! ablation study.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::fg::Fg;
use crate::ids::{ResId, TagId};
use crate::trg::Trg;

/// How the `sim(t, τ)` reverse-arc increment behaves when `t` is newly
/// attached to `r` (paper §IV-B, Approximation B).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BPolicy {
    /// Exact model: `sim(t, τ) += u(τ, r)`.
    Exact,
    /// Approximation B as implemented on the DHT: `sim(t, τ) += 1`
    /// unconditionally (a single one-bit token append; race-free).
    #[default]
    UnitIncrement,
    /// The paper's literal sentence: `+= 1` only when the arc `(t, τ)` did
    /// not exist yet; `+= u(τ, r)` when it did. Not race-free; kept for the
    /// ablation comparison.
    LiteralB,
}

/// Approximation knobs for tagging operations.
///
/// Approximation A bounds only the **reverse** `(τ, t)` arc updates — each
/// of those lives in a different `τ̂` block and costs one overlay lookup.
/// The **forward** `(t, τ)` arcs all live in `t`'s own `t̂` block, which is
/// one lookup regardless of entry count, so they are never subsetted
/// (that is how Table I reaches `4 + k`).
#[derive(Clone, Copy, Debug)]
pub struct ApproxPolicy {
    /// Approximation A: maximum number of reverse `(τ, t)` updates per
    /// tagging operation (`None` = update all, i.e. A disabled).
    pub connection_k: Option<usize>,
    /// Approximation B policy for the reverse arcs.
    pub b_policy: BPolicy,
}

impl ApproxPolicy {
    /// The exact model: no approximation at all.
    pub const EXACT: ApproxPolicy = ApproxPolicy {
        connection_k: None,
        b_policy: BPolicy::Exact,
    };

    /// The paper's deployed configuration: Approximations A (with the given
    /// `k`) and B together.
    pub fn paper(k: usize) -> ApproxPolicy {
        ApproxPolicy {
            connection_k: Some(k),
            b_policy: BPolicy::UnitIncrement,
        }
    }

    /// Approximation A only (exact reverse-arc increments).
    pub fn a_only(k: usize) -> ApproxPolicy {
        ApproxPolicy {
            connection_k: Some(k),
            b_policy: BPolicy::Exact,
        }
    }

    /// Approximation B only (all of `Tags(r)` updated).
    pub fn b_only() -> ApproxPolicy {
        ApproxPolicy {
            connection_k: None,
            b_policy: BPolicy::UnitIncrement,
        }
    }
}

/// What a tagging operation did — returned so callers (e.g. the DHT client)
/// can account lookup costs without recomputing state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggingOutcome {
    /// `u(t, r)` before the operation (0 ⇒ `t` was newly attached to `r`).
    pub previous_weight: u32,
    /// The subset of `Tags(r)` whose arcs were updated (all of them in the
    /// exact model; ≤ k under Approximation A).
    pub updated_neighbors: Vec<TagId>,
    /// Size of `Tags(r)` (excluding `t`) before the operation.
    pub neighborhood_size: usize,
}

/// The coupled Tag-Resource Graph and Folksonomy Graph with the paper's
/// maintenance operations.
///
/// ```
/// use dharma_folksonomy::{ApproxPolicy, Folksonomy, ResId, TagId};
/// let mut f = Folksonomy::new(ApproxPolicy::EXACT);
/// f.insert_resource(ResId(0), &[TagId(0), TagId(1)]);
/// assert_eq!(f.fg().sim(TagId(0), TagId(1)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Folksonomy {
    trg: Trg,
    fg: Fg,
    policy: ApproxPolicy,
}

impl Folksonomy {
    /// An empty folksonomy evolving under `policy`.
    pub fn new(policy: ApproxPolicy) -> Self {
        Folksonomy {
            trg: Trg::new(),
            fg: Fg::new(),
            policy,
        }
    }

    /// Pre-sized variant (the replay simulation knows all vertices upfront).
    pub fn with_capacity(policy: ApproxPolicy, tags: usize, resources: usize) -> Self {
        Folksonomy {
            trg: Trg::with_capacity(tags, resources),
            fg: Fg::with_capacity(tags),
            policy,
        }
    }

    /// The Tag-Resource Graph.
    pub fn trg(&self) -> &Trg {
        &self.trg
    }

    /// The Folksonomy Graph.
    pub fn fg(&self) -> &Fg {
        &self.fg
    }

    /// The policy this instance evolves under.
    pub fn policy(&self) -> ApproxPolicy {
        self.policy
    }

    /// **Resource insertion** (§III-B.1): inserts `r` tagged with `tags`.
    ///
    /// Every tag gets `u = 1` and every ordered pair of distinct tags gains
    /// `sim += 1`. Duplicate tags in the input are ignored. The paper does
    /// not approximate this operation (Table I: `2 + 2m` lookups in both
    /// rows), so it is identical under every policy.
    pub fn insert_resource(&mut self, r: ResId, tags: &[TagId]) {
        debug_assert_eq!(
            self.trg.tag_degree(r),
            0,
            "resource insertion requires a fresh resource"
        );
        let mut unique: Vec<TagId> = tags.to_vec();
        unique.sort_unstable();
        unique.dedup();
        for &t in &unique {
            self.trg.add_annotation(t, r);
        }
        for &ti in &unique {
            for &tj in &unique {
                if ti != tj {
                    self.fg.add_sim(ti, tj, 1);
                }
            }
        }
    }

    /// **Tag insertion** (§III-B.2): one user tags `r` with `t`, updating the
    /// FG according to the instance's [`ApproxPolicy`].
    ///
    /// Randomness (for Approximation A's subset) is drawn from `rng`; under
    /// the exact policy `rng` is never touched.
    pub fn tag<R: Rng + ?Sized>(&mut self, r: ResId, t: TagId, rng: &mut R) -> TaggingOutcome {
        // Snapshot Tags(r) \ {t} *before* mutating the TRG.
        let mut neighbors: Vec<(TagId, u32)> =
            self.trg.tags_of(r).filter(|&(tau, _)| tau != t).collect();
        let neighborhood_size = neighbors.len();

        let previous_weight = self.trg.add_annotation(t, r);
        let newly_attached = previous_weight == 0;

        // Arcs (t, τ) — the t̂ block of t. On the DHT this is a single block
        // update whatever its entry count, so Approximation A does NOT
        // subset it; only Approximation B changes the increment. It fires
        // only when r just entered Res(t).
        if newly_attached {
            for &(tau, u_tau_r) in &neighbors {
                let delta = match self.policy.b_policy {
                    BPolicy::Exact => u64::from(u_tau_r),
                    BPolicy::UnitIncrement => 1,
                    BPolicy::LiteralB => {
                        if self.fg.has_arc(t, tau) {
                            u64::from(u_tau_r)
                        } else {
                            1
                        }
                    }
                };
                self.fg.add_sim(t, tau, delta);
            }
        }

        // Arcs (τ, t) — one τ̂ block update *per neighbor*, which is the
        // `|Tags(r)|` term of Table I. Approximation A caps these at k
        // random neighbors.
        if let Some(k) = self.policy.connection_k {
            if neighbors.len() > k {
                neighbors.partial_shuffle(rng, k);
                neighbors.truncate(k);
            }
        }
        for &(tau, _) in &neighbors {
            self.fg.add_sim(tau, t, 1);
        }

        TaggingOutcome {
            previous_weight,
            updated_neighbors: neighbors.into_iter().map(|(tau, _)| tau).collect(),
            neighborhood_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn figure2a_resource_insertion() {
        // Figure 2(a): r3 labeled with {t1, t2, t3} joins a system where
        // sim(t1, t2) = 2 already; afterwards sim(t1, t2) = 3 and the new
        // pairs (t1,t3), (t2,t3) start at 1.
        let mut f = Folksonomy::new(ApproxPolicy::EXACT);
        let (t1, t2, t3) = (TagId(0), TagId(1), TagId(2));
        // Seed: r1 with {t1}, r2 with {t1, t2} twice-ish to get sim(t1,t2)=2.
        f.insert_resource(ResId(0), &[t1, t2]);
        f.insert_resource(ResId(1), &[t1, t2]);
        assert_eq!(f.fg().sim(t1, t2), 2);
        f.insert_resource(ResId(2), &[t1, t2, t3]);
        assert_eq!(f.fg().sim(t1, t2), 3);
        assert_eq!(f.fg().sim(t2, t1), 3);
        assert_eq!(f.fg().sim(t1, t3), 1);
        assert_eq!(f.fg().sim(t3, t1), 1);
        assert_eq!(f.fg().sim(t2, t3), 1);
        assert_eq!(f.fg().sim(t3, t2), 1);
    }

    #[test]
    fn figure2b_tag_insertion() {
        // Figure 2(b): r2 carries t1 (u=3) and t2 (u=2); attaching new tag t3
        // yields sim(t1,t3) += 1, sim(t2,t3) += 1, sim(t3,t1) += u(t1,r2)=3,
        // sim(t3,t2) += u(t2,r2)=2.
        let mut f = Folksonomy::new(ApproxPolicy::EXACT);
        let (t1, t2, t3) = (TagId(0), TagId(1), TagId(2));
        let r2 = ResId(0);
        let mut rg = rng();
        f.insert_resource(r2, &[t1, t2]);
        // Raise u(t1, r2) to 3 and u(t2, r2) to 2 with repeat taggings.
        f.tag(r2, t1, &mut rg);
        f.tag(r2, t1, &mut rg);
        f.tag(r2, t2, &mut rg);
        assert_eq!(f.trg().weight(t1, r2), 3);
        assert_eq!(f.trg().weight(t2, r2), 2);
        let sim_t1t2_before = f.fg().sim(t1, t2);
        let out = f.tag(r2, t3, &mut rg);
        assert_eq!(out.previous_weight, 0);
        assert_eq!(out.neighborhood_size, 2);
        assert_eq!(f.fg().sim(t1, t3), 1);
        assert_eq!(f.fg().sim(t2, t3), 1);
        assert_eq!(f.fg().sim(t3, t1), 3);
        assert_eq!(f.fg().sim(t3, t2), 2);
        // Unrelated arcs untouched.
        assert_eq!(f.fg().sim(t1, t2), sim_t1t2_before);
    }

    #[test]
    fn repeat_tagging_leaves_reverse_arcs_unchanged() {
        let mut f = Folksonomy::new(ApproxPolicy::EXACT);
        let (t1, t2) = (TagId(0), TagId(1));
        let r = ResId(0);
        let mut rg = rng();
        f.insert_resource(r, &[t1, t2]);
        let before_rev = f.fg().sim(t1, t2);
        // t1 is already on r: sim(t2, t1) += 1 but sim(t1, t2) unchanged.
        let out = f.tag(r, t1, &mut rg);
        assert_eq!(out.previous_weight, 1);
        assert_eq!(f.fg().sim(t2, t1), 2);
        assert_eq!(f.fg().sim(t1, t2), before_rev);
    }

    #[test]
    fn exact_evolution_matches_derived_fg() {
        // Evolving the FG incrementally under the exact policy must agree
        // with deriving it from the final TRG — the central model invariant.
        let mut f = Folksonomy::new(ApproxPolicy::EXACT);
        let mut rg = rng();
        f.insert_resource(ResId(0), &[TagId(0), TagId(1), TagId(2)]);
        f.insert_resource(ResId(1), &[TagId(1), TagId(3)]);
        for _ in 0..5 {
            f.tag(ResId(0), TagId(3), &mut rg);
            f.tag(ResId(1), TagId(0), &mut rg);
            f.tag(ResId(0), TagId(1), &mut rg);
        }
        f.tag(ResId(1), TagId(4), &mut rg);
        let derived = Fg::derive_exact(f.trg());
        for t1 in 0..5u32 {
            for t2 in 0..5u32 {
                if t1 != t2 {
                    assert_eq!(
                        f.fg().sim(TagId(t1), TagId(t2)),
                        derived.sim(TagId(t1), TagId(t2)),
                        "sim({t1},{t2})"
                    );
                }
            }
        }
    }

    #[test]
    fn approximation_a_bounds_updates() {
        let mut f = Folksonomy::new(ApproxPolicy::a_only(2));
        let mut rg = rng();
        let tags: Vec<TagId> = (0..10).map(TagId).collect();
        f.insert_resource(ResId(0), &tags);
        let out = f.tag(ResId(0), TagId(99), &mut rg);
        assert_eq!(out.neighborhood_size, 10);
        assert_eq!(out.updated_neighbors.len(), 2, "k = 2 caps the subset");
        // Forward arcs (t, τ) live in one t̂ block: all 10 created.
        let fwd = (0..10)
            .filter(|&i| f.fg().sim(TagId(99), TagId(i)) > 0)
            .count();
        assert_eq!(fwd, 10);
        // Reverse arcs (τ, t) are one τ̂ lookup each: capped at k = 2.
        let rev = (0..10)
            .filter(|&i| f.fg().sim(TagId(i), TagId(99)) > 0)
            .count();
        assert_eq!(rev, 2);
    }

    #[test]
    fn approximation_a_noop_when_under_k() {
        let mut f = Folksonomy::new(ApproxPolicy::paper(100));
        let mut rg = rng();
        f.insert_resource(ResId(0), &[TagId(0), TagId(1)]);
        let out = f.tag(ResId(0), TagId(2), &mut rg);
        assert_eq!(out.updated_neighbors.len(), 2, "|Tags(r)| ≤ k: all updated");
    }

    #[test]
    fn approximation_b_unit_increment() {
        let mut f = Folksonomy::new(ApproxPolicy::b_only());
        let (t1, t2) = (TagId(0), TagId(1));
        let r = ResId(0);
        let mut rg = rng();
        f.insert_resource(r, &[t1]);
        f.tag(r, t1, &mut rg);
        f.tag(r, t1, &mut rg); // u(t1, r) = 3
        let out = f.tag(r, t2, &mut rg);
        assert_eq!(out.previous_weight, 0);
        // Exact would give sim(t2, t1) = 3; Approximation B gives 1.
        assert_eq!(f.fg().sim(t2, t1), 1);
        assert_eq!(f.fg().sim(t1, t2), 1);
    }

    #[test]
    fn literal_b_uses_bulk_increment_on_existing_arcs() {
        let mut f = Folksonomy::new(ApproxPolicy {
            connection_k: None,
            b_policy: BPolicy::LiteralB,
        });
        let (t1, t2) = (TagId(0), TagId(1));
        let (r1, r2) = (ResId(0), ResId(1));
        let mut rg = rng();
        // Create arc (t2, t1) via r1 first.
        f.insert_resource(r1, &[t1, t2]);
        assert!(f.fg().has_arc(t2, t1));
        // Raise u(t1, r2) to 3, then attach t2: the arc exists, so the
        // literal policy applies the exact bulk increment.
        f.insert_resource(r2, &[t1]);
        f.tag(r2, t1, &mut rg);
        f.tag(r2, t1, &mut rg);
        let before = f.fg().sim(t2, t1);
        f.tag(r2, t2, &mut rg);
        assert_eq!(f.fg().sim(t2, t1), before + 3);
    }

    #[test]
    fn duplicate_tags_in_insert_are_deduped() {
        let mut f = Folksonomy::new(ApproxPolicy::EXACT);
        f.insert_resource(ResId(0), &[TagId(0), TagId(0), TagId(1)]);
        assert_eq!(f.trg().weight(TagId(0), ResId(0)), 1);
        assert_eq!(f.fg().sim(TagId(0), TagId(1)), 1);
    }

    #[test]
    fn first_tag_on_resource_touches_no_arcs() {
        let mut f = Folksonomy::new(ApproxPolicy::paper(1));
        let mut rg = rng();
        let out = f.tag(ResId(0), TagId(0), &mut rg);
        assert_eq!(out.neighborhood_size, 0);
        assert_eq!(f.fg().num_arcs(), 0);
    }
}
