//! Decayed per-key arrival-rate estimation driving adaptive replication.
//!
//! Every GET arrival at a storage node feeds [`PopularityEstimator::record`].
//! The per-key state is a single exponentially-decayed counter: at each
//! arrival the old weight is multiplied by `2^(-Δt / half_life)` and
//! incremented by one, so the weight approximates the number of arrivals in
//! the last half-life window, with older traffic fading geometrically.
//!
//! Keys whose weight crosses `hot_threshold` report a positive
//! [`PopularityEstimator::extra_replicas`] — logarithmic in how far past
//! the threshold they are, so a 2× hotter key earns one more replica, a 4×
//! hotter key two, bounded by `max_extra_replicas`. The overlay consumes
//! this through [`PopularityEstimator::should_promote`], which rate-limits
//! promotion pushes per key to one per cooldown window. Cold keys decay
//! out of the tracking map entirely (it is bounded by `max_tracked`).

use dharma_types::{FxHashMap, Id160};

/// Adaptive-replication parameters.
#[derive(Clone, Debug)]
pub struct PopularityConfig {
    /// Decay half-life of the arrival counter, µs.
    pub half_life_us: u64,
    /// Decayed-weight threshold at which a key counts as hot.
    pub hot_threshold: f64,
    /// Cap on replicas beyond the base `k`.
    pub max_extra_replicas: usize,
    /// Bound on tracked keys; coldest entries are pruned beyond it.
    pub max_tracked: usize,
    /// Minimum µs between replica-promotion pushes for one key.
    pub promote_cooldown_us: u64,
}

impl Default for PopularityConfig {
    fn default() -> Self {
        PopularityConfig {
            half_life_us: 10_000_000, // 10 s
            hot_threshold: 8.0,
            max_extra_replicas: 8,
            max_tracked: 4096,
            promote_cooldown_us: 5_000_000, // 5 s
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Track {
    weight: f64,
    last_us: u64,
    last_promoted_us: Option<u64>,
}

/// Per-node popularity tracker.
#[derive(Clone, Debug)]
pub struct PopularityEstimator {
    cfg: PopularityConfig,
    map: FxHashMap<Id160, Track>,
}

/// `weight` decayed by `dt_us` at half-life `half_life_us`.
#[inline]
fn decay(weight: f64, dt_us: u64, half_life_us: u64) -> f64 {
    if dt_us == 0 {
        return weight;
    }
    weight * (-(dt_us as f64) / half_life_us as f64).exp2()
}

impl PopularityEstimator {
    /// Creates an estimator.
    pub fn new(cfg: PopularityConfig) -> Self {
        PopularityEstimator {
            cfg,
            map: FxHashMap::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PopularityConfig {
        &self.cfg
    }

    /// Number of keys currently tracked.
    pub fn tracked(&self) -> usize {
        self.map.len()
    }

    /// Records one arrival for `key` at `now_us`; returns the new weight.
    pub fn record(&mut self, key: Id160, now_us: u64) -> f64 {
        let half_life = self.cfg.half_life_us;
        let entry = self.map.entry(key).or_insert(Track {
            weight: 0.0,
            last_us: now_us,
            last_promoted_us: None,
        });
        let dt = now_us.saturating_sub(entry.last_us);
        entry.weight = decay(entry.weight, dt, half_life) + 1.0;
        entry.last_us = now_us;
        let weight = entry.weight;
        if self.map.len() > self.cfg.max_tracked {
            self.prune(now_us, &key);
        }
        weight
    }

    /// The decayed weight of `key` as of `now_us` (0 when untracked).
    pub fn weight(&self, key: &Id160, now_us: u64) -> f64 {
        let h = self.cfg.half_life_us;
        self.map
            .get(key)
            .map(|t| decay(t.weight, now_us.saturating_sub(t.last_us), h))
            .unwrap_or(0.0)
    }

    /// How many replicas beyond the base `k` this key currently earns:
    /// `1 + log2(weight / threshold)` when hot, else 0, capped.
    pub fn extra_replicas(&self, key: &Id160, now_us: u64) -> usize {
        let w = self.weight(key, now_us);
        if w < self.cfg.hot_threshold {
            return 0;
        }
        let extra = 1 + (w / self.cfg.hot_threshold).log2().floor() as usize;
        extra.min(self.cfg.max_extra_replicas)
    }

    /// The `n` tracked keys with the highest decayed weight as of
    /// `now_us`, heaviest first (deterministic ties by key). The version
    /// gossip digest uses this: a holder's hottest keys are exactly the
    /// ones most likely cached elsewhere, so their versions are the most
    /// valuable news to piggyback.
    pub fn hottest(&self, n: usize, now_us: u64) -> Vec<Id160> {
        if n == 0 {
            return Vec::new();
        }
        let h = self.cfg.half_life_us;
        // dharma-lint: allow(D3): selected and sorted by a (weight, key) total order below
        let mut entries: Vec<(Id160, f64)> = self
            .map
            .iter()
            .map(|(k, t)| (*k, decay(t.weight, now_us.saturating_sub(t.last_us), h)))
            .collect();
        // Called per outgoing reply (the version-gossip digest), so keep
        // it O(n) + O(n' log n') on the kept prefix, not a full sort.
        let cmp = |a: &(Id160, f64), b: &(Id160, f64)| {
            b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0))
        };
        if entries.len() > n {
            entries.select_nth_unstable_by(n - 1, cmp);
            entries.truncate(n);
        }
        entries.sort_unstable_by(cmp);
        entries.into_iter().map(|(k, _)| k).collect()
    }

    /// Consumes a promotion opportunity: when `key` is hot and its cooldown
    /// has lapsed, stamps the cooldown and returns how many extra replicas
    /// to push. Returns `None` otherwise (not hot, or too soon).
    pub fn should_promote(&mut self, key: &Id160, now_us: u64) -> Option<usize> {
        let extra = self.extra_replicas(key, now_us);
        if extra == 0 {
            return None;
        }
        let entry = self.map.get_mut(key)?;
        if let Some(last) = entry.last_promoted_us {
            if now_us.saturating_sub(last) < self.cfg.promote_cooldown_us {
                return None;
            }
        }
        entry.last_promoted_us = Some(now_us);
        Some(extra)
    }

    /// Drops keys whose decayed weight has faded to noise. Keeps the map
    /// within `max_tracked` by hard-capping to the heaviest entries if
    /// decay alone is not enough; `protect` (the key just recorded) is
    /// always kept so a warming key can accumulate through full maps.
    fn prune(&mut self, now_us: u64, protect: &Id160) {
        let h = self.cfg.half_life_us;
        self.map.retain(|k, t| {
            let dt = now_us.saturating_sub(t.last_us);
            k == protect || decay(t.weight, dt, h) > 0.05
        });
        if self.map.len() > self.cfg.max_tracked {
            // Degenerate flood of distinct keys: hard-cap to the heaviest
            // `max_tracked` by weight *decayed to now* — raw stored weights
            // favor long-idle keys over actively warming ones (ties broken
            // by key for determinism).
            // dharma-lint: allow(D3): collected then sorted by a (weight, key) total order
            let mut entries: Vec<(Id160, f64)> = self
                .map
                .iter()
                .map(|(k, t)| (*k, decay(t.weight, now_us.saturating_sub(t.last_us), h)))
                .collect();
            entries.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0))
            });
            let keep: dharma_types::FxHashSet<Id160> = entries
                .iter()
                .take(self.cfg.max_tracked)
                .map(|(k, _)| *k)
                .collect();
            self.map.retain(|k, _| k == protect || keep.contains(k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_types::sha1;

    fn est(threshold: f64) -> PopularityEstimator {
        PopularityEstimator::new(PopularityConfig {
            half_life_us: 1_000_000,
            hot_threshold: threshold,
            max_extra_replicas: 4,
            max_tracked: 64,
            promote_cooldown_us: 500_000,
        })
    }

    #[test]
    fn weight_accumulates_and_decays() {
        let mut e = est(4.0);
        let k = sha1(b"k");
        for _ in 0..4 {
            e.record(k, 0);
        }
        assert!((e.weight(&k, 0) - 4.0).abs() < 1e-9);
        // One half-life later, half the weight remains.
        assert!((e.weight(&k, 1_000_000) - 2.0).abs() < 1e-9);
        // Far in the future the key is stone cold.
        assert!(e.weight(&k, 50_000_000) < 1e-9);
    }

    #[test]
    fn hotness_threshold_and_extra_replicas() {
        let mut e = est(4.0);
        let k = sha1(b"k");
        assert_eq!(e.extra_replicas(&k, 0), 0);
        for _ in 0..4 {
            e.record(k, 0);
        }
        assert_eq!(e.extra_replicas(&k, 0), 1, "at threshold: one extra");
        for _ in 0..12 {
            e.record(k, 0);
        }
        assert_eq!(e.extra_replicas(&k, 0), 3, "16 = 4x threshold: 1+log2(4)");
        // The cap holds no matter how hot.
        for _ in 0..1000 {
            e.record(k, 0);
        }
        assert_eq!(e.extra_replicas(&k, 0), 4);
    }

    #[test]
    fn promotion_respects_cooldown_and_rehotting() {
        let mut e = est(2.0);
        let k = sha1(b"k");
        for _ in 0..4 {
            e.record(k, 0);
        }
        assert!(e.should_promote(&k, 0).is_some());
        assert!(e.should_promote(&k, 100).is_none(), "cooldown");
        assert!(e.should_promote(&k, 600_000).is_some(), "cooldown lapsed");
        // Once cold, no promotion.
        assert!(e.should_promote(&k, 60_000_000).is_none());
    }

    #[test]
    fn hottest_ranks_by_decayed_weight() {
        let mut e = est(4.0);
        let (a, b, c) = (sha1(b"a"), sha1(b"b"), sha1(b"c"));
        for _ in 0..8 {
            e.record(a, 0);
        }
        for _ in 0..4 {
            e.record(b, 0);
        }
        e.record(c, 0);
        assert_eq!(e.hottest(2, 0), vec![a, b]);
        // Recency matters: b recorded later out-decays a.
        for _ in 0..8 {
            e.record(b, 3_000_000);
        }
        assert_eq!(e.hottest(1, 3_000_000), vec![b]);
        assert!(e.hottest(10, 0).len() <= 3);
    }

    #[test]
    fn tracking_is_bounded() {
        let mut e = est(2.0);
        // A flood of one-shot keys at the same instant: pruning by decay
        // removes nothing, so the heaviest-half rule must bound the map.
        for i in 0..500u32 {
            e.record(sha1(&i.to_le_bytes()), i as u64 * 10);
        }
        assert!(e.tracked() <= 65, "tracked = {}", e.tracked());
        // A genuinely hot key survives pruning.
        let hot = sha1(b"hot");
        for _ in 0..50 {
            e.record(hot, 5_000);
        }
        for i in 500..1000u32 {
            e.record(sha1(&i.to_le_bytes()), 5_000);
        }
        assert!(e.weight(&hot, 5_000) > 10.0);
    }
}
