//! Faceted search over the DHT (paper §III-C executed via §IV-A lookups).
//!
//! Each step fetches two blocks of the selected tag — `t̂` (neighbors,
//! filtered index-side to the top `N` by `sim`) and `t̄` (resources) — and
//! narrows the running candidate and result sets **locally**, exactly as the
//! paper prescribes ("intersection with tag and resources set retrieved in
//! following steps are performed locally"). Cost: 2 lookups per step.

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
        let mut candidates = nbrs.entries;
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(DhtFacetedSearch {
            candidates,
            resources: res.entries.into_iter().map(|(n, _)| n).collect(),
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
        // intersections probe the *running* set with the fetched entries —
        // the running sets only shrink, the fetched blocks do not, and no
        // fetched name is hashed into a table that dies with the step.
        let mut running: FxHashSet<&str> = self.candidates.iter().map(|(n, _)| &**n).collect();
        let mut narrowed: Vec<(String, u64)> = nbrs
            .entries
            .into_iter()
            .filter(|(n, _)| !self.chosen.contains(n) && running.remove(&**n))
            .collect();
        narrowed.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.candidates = narrowed;

        // Rᵢ = Rᵢ₋₁ ∩ Res(tag): the survivors move over, name and all.
        let fetched = res.entries.into_iter();
        self.resources = fetched
            .filter_map(|(n, _)| self.resources.take(&n))
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
