//! Geo-clustered per-link latency/loss topology — the one link model of
//! [`crate::sim::SimNet`].
//!
//! A global uniform delay range makes two peers at equal XOR distance
//! indistinguishable even when one is 5 ms away and the other 200 ms. A
//! [`TopologyConfig`] is a deterministic *per-link* model:
//!
//! * every address is hashed into one of `clusters` geographic clusters —
//!   `cluster = f(seed, addr)`, stable for the life of the run;
//! * every unordered pair of addresses gets a **base one-way delay** drawn
//!   (by hashing, not by consuming RNG state) from the intra-cluster range
//!   when both endpoints share a cluster, the inter-cluster range
//!   otherwise — `base = f(seed, min(a, b), max(a, b))`, so links are
//!   symmetric and reproducible without storing an O(n²) matrix;
//! * each datagram adds uniform **jitter** `0..=jitter_us` drawn from the
//!   simulator's master RNG, and is lost with the link's loss probability
//!   (`base_loss`, or `lossy_loss` when either endpoint lives in the
//!   designated lossy cluster).
//!
//! The paper's plain overlay — one uniform delay range and one loss rate
//! for every datagram — is the one-cluster case,
//! [`TopologyConfig::uniform`], which is what `SimConfig::topology: None`
//! stands for.
//!
//! Determinism contract: the base delay and loss probability of a link are
//! pure functions of `(seed, sender, receiver)`; the only consumed
//! randomness (loss draw + jitter draw) comes from the master stream in
//! event order, so every run is a pure function of its seed.

use crate::node::NodeAddr;

/// `splitmix64` finalizer: decorrelates hash inputs into uniform u64s.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash into `lo..=hi` without consuming RNG state.
fn hash_range(h: u64, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        return lo;
    }
    lo + h % (hi - lo + 1)
}

/// A seeded geo-clustered per-link delay/loss model. See the module docs
/// for the determinism contract.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyConfig {
    /// Number of geographic clusters addresses are hashed into (≥ 1).
    pub clusters: u32,
    /// Base one-way delay range (µs) for links inside one cluster.
    pub intra_us: (u64, u64),
    /// Base one-way delay range (µs) for links between clusters.
    pub inter_us: (u64, u64),
    /// Per-datagram uniform jitter `0..=jitter_us` (µs) added to the base
    /// delay, drawn from the simulator's master RNG.
    pub jitter_us: u64,
    /// Loss probability on ordinary links.
    pub base_loss: f64,
    /// Optionally one cluster whose links (either endpoint) suffer
    /// [`TopologyConfig::lossy_loss`] instead of the base loss — the
    /// "flaky region" of the latency ablation.
    pub lossy_cluster: Option<u32>,
    /// Loss probability on links touching the lossy cluster.
    pub lossy_loss: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        // 4 metro clusters: 2–8 ms within a metro, 20–60 ms across, ±2 ms
        // of per-datagram jitter, 1% baseline loss, no lossy region.
        TopologyConfig {
            clusters: 4,
            intra_us: (2_000, 8_000),
            inter_us: (20_000, 60_000),
            jitter_us: 2_000,
            base_loss: 0.01,
            lossy_cluster: None,
            lossy_loss: 0.25,
        }
    }
}

impl TopologyConfig {
    /// The one-cluster model of a uniform `min_us ..= max_us` delay and
    /// `loss` on every link: base delay `min_us`, jitter up to
    /// `max_us - min_us` (none when `max_us <= min_us`), no lossy cluster.
    /// It draws exactly what the uniform range draws: one loss draw, then
    /// `min_us + gen_range(0..=max_us - min_us)` only when `max_us > min_us`.
    pub fn uniform(min_us: u64, max_us: u64, loss: f64) -> Self {
        TopologyConfig {
            clusters: 1,
            intra_us: (min_us, min_us),
            inter_us: (min_us, min_us),
            jitter_us: max_us.saturating_sub(min_us),
            base_loss: loss,
            lossy_cluster: None,
            lossy_loss: 0.0,
        }
    }

    /// Panics when the model is malformed (empty ranges, probabilities
    /// outside `[0, 1]` or NaN, zero clusters, zero minimum delay).
    pub fn validate(&self) {
        assert!(self.clusters >= 1, "topology needs at least one cluster");
        assert!(self.intra_us.0 <= self.intra_us.1, "empty intra range");
        assert!(self.inter_us.0 <= self.inter_us.1, "empty inter range");
        assert!(
            self.min_delay_us() >= 1,
            "topology minimum one-way delay must be >= 1 µs"
        );
        assert!(
            (0.0..=1.0).contains(&self.base_loss) && (0.0..=1.0).contains(&self.lossy_loss),
            "loss probabilities must lie in [0, 1]"
        );
        if let Some(c) = self.lossy_cluster {
            assert!(c < self.clusters, "lossy cluster out of range");
        }
    }

    /// The cluster `addr` lives in — a pure function of `(seed, addr)`.
    pub fn cluster_of(&self, seed: u64, addr: NodeAddr) -> u32 {
        let h = mix(seed ^ 0xC1A5_7E2D_0000_0001u64.wrapping_add(u64::from(addr) << 17));
        (h % u64::from(self.clusters)) as u32
    }

    /// The symmetric base one-way delay (µs) of the `a ↔ b` link — a pure
    /// function of `(seed, min(a, b), max(a, b))`.
    pub fn link_base_us(&self, seed: u64, a: NodeAddr, b: NodeAddr) -> u64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (min, max) = if self.cluster_of(seed, a) == self.cluster_of(seed, b) {
            self.intra_us
        } else {
            self.inter_us
        };
        let h = mix(seed ^ 0x9E37_79B9_7F4A_7C15u64 ^ (u64::from(lo) << 32 | u64::from(hi)));
        hash_range(h, min, max)
    }

    /// The loss probability of the `a ↔ b` link: `lossy_loss` when either
    /// endpoint lives in the lossy cluster, `base_loss` otherwise.
    pub fn link_loss(&self, seed: u64, a: NodeAddr, b: NodeAddr) -> f64 {
        match self.lossy_cluster {
            Some(c) if self.cluster_of(seed, a) == c || self.cluster_of(seed, b) == c => {
                self.lossy_loss
            }
            _ => self.base_loss,
        }
    }

    /// The global minimum one-way delay (µs): no datagram arrives sooner
    /// (jitter only adds on top of the base delay).
    pub fn min_delay_us(&self) -> u64 {
        self.intra_us.0.min(self.inter_us.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_symmetric_and_deterministic() {
        let t = TopologyConfig::default();
        for seed in [0u64, 7, 42] {
            for a in 0..40u32 {
                for b in 0..40u32 {
                    assert_eq!(
                        t.link_base_us(seed, a, b),
                        t.link_base_us(seed, b, a),
                        "symmetry seed={seed} a={a} b={b}"
                    );
                    assert_eq!(t.link_base_us(seed, a, b), t.link_base_us(seed, a, b));
                }
            }
        }
    }

    #[test]
    fn delays_respect_cluster_ranges() {
        let t = TopologyConfig::default();
        let seed = 9;
        let mut intra = 0u32;
        let mut inter = 0u32;
        for a in 0..60u32 {
            for b in (a + 1)..60u32 {
                let d = t.link_base_us(seed, a, b);
                if t.cluster_of(seed, a) == t.cluster_of(seed, b) {
                    intra += 1;
                    assert!(
                        (t.intra_us.0..=t.intra_us.1).contains(&d),
                        "intra delay {d}"
                    );
                } else {
                    inter += 1;
                    assert!(
                        (t.inter_us.0..=t.inter_us.1).contains(&d),
                        "inter delay {d}"
                    );
                }
            }
        }
        assert!(
            intra > 0 && inter > 0,
            "both link kinds occur: {intra}/{inter}"
        );
    }

    #[test]
    fn clusters_partition_addresses_roughly_evenly() {
        let t = TopologyConfig {
            clusters: 4,
            ..TopologyConfig::default()
        };
        let mut counts = [0usize; 4];
        for a in 0..400u32 {
            counts[t.cluster_of(3, a) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (40..=200).contains(c),
                "cluster {i} holds {c} of 400 addresses"
            );
        }
    }

    #[test]
    fn lossy_cluster_raises_loss_on_its_links() {
        let seed = 5;
        let t = TopologyConfig {
            lossy_cluster: Some(1),
            base_loss: 0.01,
            lossy_loss: 0.3,
            ..TopologyConfig::default()
        };
        let inside = (0..200u32).find(|a| t.cluster_of(seed, *a) == 1).unwrap();
        let outside = (0..200u32).find(|a| t.cluster_of(seed, *a) != 1).unwrap();
        let outside2 = (outside + 1..200u32)
            .find(|a| t.cluster_of(seed, *a) != 1)
            .unwrap();
        assert_eq!(t.link_loss(seed, inside, outside), 0.3);
        assert_eq!(t.link_loss(seed, outside, inside), 0.3);
        assert_eq!(t.link_loss(seed, outside, outside2), 0.01);
    }

    #[test]
    fn delay_bounds_bracket_every_link() {
        let t = TopologyConfig::default();
        for a in 0..50u32 {
            for b in 0..50u32 {
                let d = t.link_base_us(11, a, b);
                assert!(d >= t.min_delay_us());
                assert!(d <= t.intra_us.1.max(t.inter_us.1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "lossy cluster out of range")]
    fn validate_rejects_out_of_range_lossy_cluster() {
        TopologyConfig {
            clusters: 2,
            lossy_cluster: Some(5),
            ..TopologyConfig::default()
        }
        .validate();
    }
}
