//! Faceted search over the DHT (paper §III-C executed via §IV-A lookups).
//!
//! Each step fetches two blocks of the selected tag — `t̂` (neighbors,
//! filtered index-side to the top `N` by `sim`) and `t̄` (resources) — and
//! narrows the running candidate and result sets **locally**, exactly as the
//! paper prescribes ("intersection with tag and resources set retrieved in
//! following steps are performed locally"). Cost: 2 lookups per step.
//!
//! The fetched blocks arrive as wire bodies ([`crate::client::BlockView`]) and are
//! read as borrowed names: the session's own sets are the only owned
//! strings. The first step materialises them; a later step probes them
//! with each fetched name, copies out the surviving candidate tags (at
//! most `search_top_n`) and moves the surviving resources' own strings.

use dharma_kademlia::KademliaNode;
use dharma_net::SimNet;
use dharma_types::{FxHashSet, Result};

use crate::client::DharmaClient;
use crate::cost::OpCost;

/// A running faceted-search session over the DHT.
pub struct DhtFacetedSearch {
    /// Candidate tags with their `sim(current, ·)` weights, weight-sorted.
    candidates: Vec<(String, u64)>,
    /// The running resource set `Rᵢ`.
    resources: FxHashSet<String>,
    /// Tags already chosen (never shown again).
    chosen: Vec<String>,
    /// Accumulated lookup cost.
    cost: OpCost,
}

impl DhtFacetedSearch {
    /// Starts a search at seed tag `t0`. Costs 2 lookups.
    pub fn start(
        client: &mut DharmaClient,
        net: &mut SimNet<KademliaNode>,
        t0: &str,
    ) -> Result<Self> {
        let (nbrs, res, cost) = client.search_step(net, t0)?;
        let mut candidates: Vec<(String, u64)> =
            nbrs.entries().map(|(n, w)| (n.to_owned(), w)).collect();
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(DhtFacetedSearch {
            candidates,
            resources: res.entries().map(|(n, _)| n.to_owned()).collect(),
            chosen: vec![t0.to_owned()],
            cost,
        })
    }

    /// The tags currently displayed to the user (`Tᵢ`), best first.
    pub fn displayed(&self) -> &[(String, u64)] {
        &self.candidates
    }

    /// The current result set `Rᵢ`.
    pub fn resources(&self) -> &FxHashSet<String> {
        &self.resources
    }

    /// The selection path so far.
    pub fn path(&self) -> &[String] {
        &self.chosen
    }

    /// Total lookups spent (2 per step).
    pub fn cost(&self) -> OpCost {
        self.cost
    }

    /// Selects `tag` from the displayed candidates and narrows both sets.
    /// Costs 2 lookups. Returns `(|Tᵢ|, |Rᵢ|)` after narrowing.
    pub fn select(
        &mut self,
        client: &mut DharmaClient,
        net: &mut SimNet<KademliaNode>,
        tag: &str,
    ) -> Result<(usize, usize)> {
        debug_assert!(
            self.candidates.iter().any(|(n, _)| n == tag),
            "selected tag must be among the displayed candidates"
        );
        let (nbrs, res, cost) = client.search_step(net, tag)?;
        self.cost.absorb(cost);
        self.chosen.push(tag.to_owned());

        // Tᵢ = Tᵢ₋₁ ∩ fetched(t̂) \ chosen, re-ranked by sim(tag, ·). Both
        // intersections probe the *running* set with the fetched names,
        // borrowed from the fetched bodies — the running sets only shrink,
        // the fetched blocks do not, and no fetched name is hashed into a
        // table that dies with the step or copied unless it survives.
        let mut running: FxHashSet<&str> = self.candidates.iter().map(|(n, _)| &**n).collect();
        let mut narrowed: Vec<(String, u64)> = nbrs
            .entries()
            .filter(|&(n, _)| !self.chosen.iter().any(|c| c == n) && running.remove(n))
            .map(|(n, w)| (n.to_owned(), w))
            .collect();
        narrowed.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.candidates = narrowed;

        // Rᵢ = Rᵢ₋₁ ∩ Res(tag): the survivors move over, name and all.
        self.resources = res
            .entries()
            .filter_map(|(n, _)| self.resources.take(n))
            .collect();

        Ok((self.candidates.len(), self.resources.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DharmaClient, DharmaConfig};
    use crate::testutil::overlay;
    use dharma_folksonomy::ApproxPolicy;
    use dharma_likir::CertificationAuthority;

    fn client(home: u32) -> DharmaClient {
        let ca = CertificationAuthority::new(b"dharma-tests");
        DharmaClient::new(
            home,
            ca.register("alice", 0),
            DharmaConfig::builder()
                .policy(ApproxPolicy::EXACT)
                .build()
                .expect("search test client config is in range"),
        )
    }

    #[test]
    fn end_to_end_narrowing() {
        let mut net = overlay(16, 20);
        let mut c = client(1);
        // Small corpus: everything is "music"; two genres split it.
        c.insert_resource(
            &mut net,
            "nevermind",
            "uri://1",
            &["music", "rock", "grunge"],
        )
        .unwrap();
        c.insert_resource(
            &mut net,
            "master-of-puppets",
            "uri://2",
            &["music", "rock", "metal"],
        )
        .unwrap();
        c.insert_resource(&mut net, "kind-of-blue", "uri://3", &["music", "jazz"])
            .unwrap();

        let mut s = DhtFacetedSearch::start(&mut c, &mut net, "music").unwrap();
        assert_eq!(s.resources().len(), 3);
        let displayed: Vec<&str> = s.displayed().iter().map(|(n, _)| n.as_str()).collect();
        assert!(displayed.contains(&"rock") && displayed.contains(&"jazz"));
        assert_eq!(s.cost().lookups, 2);

        let (tags_left, res_left) = s.select(&mut c, &mut net, "rock").unwrap();
        assert_eq!(res_left, 2, "rock narrows to the two rock albums");
        // grunge and metal remain candidates; jazz does not co-occur.
        assert_eq!(tags_left, 2);
        assert_eq!(s.cost().lookups, 4);

        let (_tags_left, res_left) = s.select(&mut c, &mut net, "grunge").unwrap();
        assert_eq!(res_left, 1);
        assert!(s.resources().contains("nevermind"));
        assert_eq!(s.path(), &["music", "rock", "grunge"]);
    }

    /// A session over fetched views narrows exactly as the in-memory
    /// search on the same folksonomy: after every step, the same path, and
    /// the displayed tags and result set the paper's intersections give
    /// (`Tᵢ = Tᵢ₋₁ ∩ N_FG(tᵢ) \ chosen` re-ranked by `sim(tᵢ, ·)`,
    /// `Rᵢ = Rᵢ₋₁ ∩ Res(tᵢ)`), as many of each as `FacetedSearch` counts.
    #[test]
    fn a_session_over_views_narrows_as_the_in_memory_search() {
        use dharma_folksonomy::{FacetedSearch, Folksonomy, ResId, SearchConfig, Strategy, TagId};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (mut net, mut c) = (overlay(16, 23), client(1));
        let mut model = Folksonomy::new(ApproxPolicy::EXACT);
        let mut rng = StdRng::seed_from_u64(23);
        let tag = |t: TagId| format!("t{}", t.0);
        let res = |r: ResId| format!("r{}", r.0);
        const TAGS: u32 = 16;
        const RESOURCES: u32 = 40;
        for r in (0..RESOURCES).map(ResId) {
            let tags: Vec<TagId> = (0..rng.gen_range(2..4))
                .map(|_| TagId(rng.gen_range(0..TAGS)))
                .collect();
            model.insert_resource(r, &tags);
            let names: Vec<String> = tags.iter().map(|&t| tag(t)).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            c.insert_resource(&mut net, &res(r), "uri://r", &names)
                .unwrap();
        }
        for _ in 0..20 {
            let r = ResId(rng.gen_range(0..RESOURCES));
            let t = TagId(rng.gen_range(0..TAGS));
            model.tag(r, t, &mut rng);
            c.tag(&mut net, &res(r), &tag(t)).unwrap();
        }
        let (trg, fg) = (model.trg(), model.fg());
        let t0 = (0..TAGS)
            .map(TagId)
            .max_by_key(|&t| trg.res_degree(t))
            .unwrap();
        let search = FacetedSearch::new(trg, fg);
        let cfg = |max_steps| SearchConfig {
            display_cap: Some(100),
            resource_stop: 0,
            tag_stop: 0,
            max_steps,
        };
        let mut unused = StdRng::seed_from_u64(0);
        let full = search.run(t0, Strategy::First, &cfg(10), &mut unused);
        assert!(full.steps() >= 3, "the session narrows over several steps");

        // The reference sets, narrowed step by step from the model.
        let mut shown: Vec<(TagId, u64)> = fg.neighbors(t0).collect();
        let mut left: Vec<ResId> = trg.res_of(t0).map(|(r, _)| r).collect();
        let mut s = DhtFacetedSearch::start(&mut c, &mut net, &tag(t0)).unwrap();
        // Whether some step keeps a displayed tag, drops one besides the
        // selection, and fetches a neighbour that is no longer displayed
        // (so the intersection, not the fetched block, decides).
        let (mut kept_some, mut dropped_some, mut fetched_beyond) = (false, false, false);
        for step in 1..=full.steps() {
            if step > 1 {
                let t = full.path[step - 1];
                s.select(&mut c, &mut net, &tag(t)).unwrap();
                let before = shown.len();
                let chosen = &full.path[..step];
                fetched_beyond |= fg
                    .neighbors(t)
                    .any(|(u, _)| !chosen.contains(&u) && !shown.iter().any(|&(v, _)| v == u));
                shown.retain(|&(u, _)| u != t && fg.sim(t, u) > 0);
                shown.iter_mut().for_each(|(u, w)| *w = fg.sim(t, *u));
                left.retain(|&r| trg.weight(t, r) > 0);
                kept_some |= !shown.is_empty();
                dropped_some |= shown.len() + 1 < before;
            }
            let memory = search.run(t0, Strategy::First, &cfg(step), &mut unused);
            let path: Vec<String> = memory.path.iter().map(|&t| tag(t)).collect();
            assert_eq!(s.path(), &path[..]);
            let mut displayed: Vec<(String, u64)> =
                shown.iter().map(|&(u, w)| (tag(u), w)).collect();
            displayed.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            assert_eq!(s.displayed(), &displayed[..], "step {step}");
            assert_eq!(s.displayed().len(), memory.final_tags, "step {step}");
            let resources: FxHashSet<String> = left.iter().map(|&r| res(r)).collect();
            assert_eq!(s.resources(), &resources, "step {step}");
            assert_eq!(s.resources().len(), memory.final_resources, "step {step}");
        }
        assert!(
            kept_some && dropped_some && fetched_beyond,
            "steps keep some tags, drop others and fetch undisplayed ones"
        );
    }

    #[test]
    fn chosen_tags_are_excluded_from_candidates() {
        let mut net = overlay(12, 21);
        let mut c = client(2);
        c.insert_resource(&mut net, "r1", "u", &["a", "b", "c"])
            .unwrap();
        c.insert_resource(&mut net, "r2", "u", &["a", "b"]).unwrap();
        let mut s = DhtFacetedSearch::start(&mut c, &mut net, "a").unwrap();
        s.select(&mut c, &mut net, "b").unwrap();
        assert!(
            !s.displayed().iter().any(|(n, _)| n == "a" || n == "b"),
            "chosen tags must not reappear"
        );
    }

    #[test]
    fn unknown_seed_gives_empty_session() {
        let mut net = overlay(8, 22);
        let mut c = client(1);
        let s = DhtFacetedSearch::start(&mut c, &mut net, "nothing").unwrap();
        assert!(s.displayed().is_empty());
        assert!(s.resources().is_empty());
    }
}
