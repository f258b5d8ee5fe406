//! Version-gossip freshness tracking and per-peer hit history — the
//! requester-side state of the `dharma-fresh` subsystem.
//!
//! PR 2's hot-block cache bounds staleness by TTL alone: a cached view is
//! served until its clock runs out, whether or not the block was rewritten
//! five seconds after it was cached. The DHT survey's standard next step is
//! **version gossip**: nodes piggyback a compact per-key write-version
//! digest on replies they were sending anyway (`FoundNodes`, `FoundValue`,
//! `Pong`), so a node holding a cached view *opportunistically* learns of
//! newer versions. Two structures implement the requester side:
//!
//! * [`FreshnessBook`] — the highest write-version this node has seen any
//!   digest claim for each key. Its [`FreshnessBook::admits`] gate is the
//!   **monotone-freshness rule**: a cached view may be served only if its
//!   version is at least the highest digest version seen, so gossip can
//!   only ever tighten (never widen) the staleness window the TTL allows.
//! * [`HitHistory`] — a decayed per-key record of which peers recently
//!   served the key (from cache or authoritatively). The lookup layer uses
//!   it to seed shortlists with known recent servers and to prefer warm
//!   peers over equally-useful cold ones, cutting hops on repeat keys.
//!
//! Both are deterministic, allocation-light, and bounded; time is
//! caller-provided microseconds, as everywhere in this workspace.
//!
//! Versions are **origin stamps** ([`VersionStamp`]): minted once at the
//! write's coordinator and totally ordered by `(seq, writer)`, so digests
//! from *any* holder compare exactly against a cached view's stamp — there
//! is no per-holder counter ambiguity left. TTL-extension on confirmation
//! is still capped by the hot cache's insertion-age bound, so even a
//! buggy or hostile stamp can never pin a stale view forever.

use dharma_types::{FxHashMap, Id160, VersionStamp};

dharma_types::config! {
    /// Configuration of the `dharma-fresh` subsystem (version gossip +
    /// cache-aware lookup routing). Carried by the overlay node's config;
    /// `None` there disables both features and keeps the node's behavior
    /// byte-identical to the TTL-only protocol (digests are sent empty).
    ///
    /// The struct is `#[non_exhaustive]`: construct it with
    /// [`FreshConfig::default()`] (then mutate fields) or through the
    /// range-validated [`FreshConfig::builder()`], so new knobs can land
    /// without breaking every literal in downstream crates.
    #[derive(Clone, Debug)]
    #[non_exhaustive]
    pub struct FreshConfig => FreshConfigBuilder {
        /// Maximum entries in one piggybacked digest (keeps replies well under
        /// the MTU: one entry is 20 id bytes + a varint).
        digest_max: usize = 8,
        /// How long a local write stays in the digest's "news" section, µs.
        news_window_us: u64 = 30_000_000, // 30 s
        /// Half-life of the per-peer hit history, µs.
        hit_half_life_us: u64 = 60_000_000, // 60 s
        /// Minimum decayed hit weight for a peer to count as *warm* for a key.
        warm_threshold: f64 = 0.5,
        /// Bound on keys tracked by the hit history (LRU beyond it).
        max_tracked_keys: usize = 1024,
        /// Bound on peers remembered per key (lightest dropped first).
        max_peers_per_key: usize = 4,
        /// Bound on keys tracked by the freshness book.
        max_versions: usize = 4096,
        /// Cap on how long a cached view may outlive its first insertion
        /// through digest confirmations, µs — the hard staleness ceiling that
        /// makes TTL extension safe against incomparable version counters.
        max_view_lifetime_us: u64 = 240_000_000, // 4 min ≈ 8 default TTLs
        /// Revalidate (direct `FindValue` to the digest sender) when a stale
        /// digest drops a cached view, instead of plain dropping.
        revalidate_on_stale: bool = true,
        /// Refresh-ahead: serving a cache hit whose last authoritative mint
        /// or confirmation is older than this triggers a background
        /// revalidation probe (one direct `FindValue` to a likely holder), so
        /// a hot view's content tracks writes instead of aging toward the
        /// TTL. 0 disables. Should be well below the cache TTL — half is a
        /// good default ratio.
        refresh_age_us: u64 = 15_000_000, // half the default cache TTL
        /// The serve-age bar: a cached view whose last mint/confirmation is
        /// older than this is treated as a **miss** even inside its TTL — the
        /// read goes through (refreshing the view), and the staleness window
        /// of anything actually served is bounded by this bar instead of the
        /// TTL. Confirmations and refreshes reset the age, so gossip — not
        /// the clock — is what keeps hot views servable. 0 disables (TTL-only
        /// serve bound). Must exceed [`FreshConfig::refresh_age_us`] or every
        /// view ages out before its refresh fires.
        max_serve_age_us: u64 = 24_000_000, // 80% of the default cache TTL
        /// Bias lookup candidate ordering toward warm peers and seed GET
        /// shortlists from the hit history (cache-aware routing). Off leaves
        /// routing purely XOR-driven while gossip still manages freshness.
        cache_aware_routing: bool = true,
        /// Write-triggered invalidation push: when a holder applies a write,
        /// it sends a bounded fan-out of `InvalidatePush` RPCs to the key's
        /// recent fetchers, invalidating (or triggering a one-RTT refresh of)
        /// their cached views immediately instead of waiting for gossip to
        /// reach them. Off keeps the gossip-only protocol byte-identical.
        push_on_write: bool = false,
        /// Maximum `InvalidatePush` RPCs one holder sends per applied write.
        push_fanout: usize = 4,
        /// Only fetchers seen within this window are pushed to, µs — older
        /// interest has likely TTL-expired anyway.
        push_window_us: u64 = 30_000_000, // one default cache TTL
    }
}

impl FreshConfig {
    fn validate(&self) -> Result<(), String> {
        if self.digest_max == 0 || self.digest_max > 64 {
            return Err(format!(
                "digest_max {} out of range 1..=64",
                self.digest_max
            ));
        }
        if self.hit_half_life_us == 0 {
            return Err("hit_half_life_us must be positive".into());
        }
        if !(self.warm_threshold > 0.0 && self.warm_threshold.is_finite()) {
            return Err(format!(
                "warm_threshold {} must be positive and finite",
                self.warm_threshold
            ));
        }
        if self.max_serve_age_us != 0 && self.max_serve_age_us <= self.refresh_age_us {
            return Err(format!(
                "max_serve_age_us {} must exceed refresh_age_us {} (or be 0): views would age out before their refresh fires",
                self.max_serve_age_us, self.refresh_age_us
            ));
        }
        if self.push_on_write && self.push_fanout == 0 {
            return Err("push_fanout must be >= 1 when push_on_write is set".into());
        }
        if self.push_on_write && self.push_window_us == 0 {
            return Err("push_window_us must be positive when push_on_write is set".into());
        }
        Ok(())
    }
}

/// The highest origin stamp this node has seen gossiped for each key.
///
/// The book is advisory: losing an entry (capacity shed) only loses the
/// tightened bound, never correctness — staleness falls back to the TTL
/// bound every cached view already lives under.
#[derive(Clone, Debug, Default)]
pub struct FreshnessBook {
    cap: usize,
    seen: FxHashMap<Id160, VersionStamp>,
}

impl FreshnessBook {
    /// A book bounded to `cap` keys (0 = unbounded).
    pub fn new(cap: usize) -> Self {
        FreshnessBook {
            cap,
            seen: FxHashMap::default(),
        }
    }

    /// Number of keys with a recorded bound.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Records one gossiped `(key, stamp)` observation. Returns `true`
    /// when it *raised* the key's known bound (i.e. carried news).
    pub fn note(&mut self, key: Id160, version: VersionStamp) -> bool {
        let slot = self.seen.entry(key).or_insert(VersionStamp::ZERO);
        let news = version > *slot;
        if news {
            *slot = version;
        }
        if self.cap > 0 && self.seen.len() > self.cap {
            // Shed the lowest-stamped quarter (deterministic: ties by
            // key). Low stamps are the oldest news and the cheapest
            // bounds to lose.
            // dharma-lint: allow(D3): collected then sorted by (stamp, key) — a total order
            let mut entries: Vec<(Id160, VersionStamp)> =
                self.seen.iter().map(|(k, &v)| (*k, v)).collect();
            entries.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
            for (k, _) in entries.into_iter().take(self.cap / 4 + 1) {
                if k != key {
                    self.seen.remove(&k);
                }
            }
        }
        news
    }

    /// The highest gossiped stamp recorded for `key`.
    pub fn highest(&self, key: &Id160) -> Option<VersionStamp> {
        self.seen.get(key).copied()
    }

    /// The monotone-freshness gate: may a cached view of `key` at
    /// `version` still be served? True iff no digest has claimed a newer
    /// stamp. Unknown keys are admitted (the TTL still bounds them).
    pub fn admits(&self, key: &Id160, version: VersionStamp) -> bool {
        self.highest(key).map(|h| version >= h).unwrap_or(true)
    }

    /// Drops the bound for `key` (e.g. when its record left this node).
    pub fn forget(&mut self, key: &Id160) {
        self.seen.remove(key);
    }
}

/// `weight` decayed by `dt_us` at half-life `half_life_us`.
fn decayed(weight: f64, dt_us: u64, half_life_us: u64) -> f64 {
    weight * (-(dt_us as f64) / half_life_us as f64).exp2()
}

#[derive(Clone, Copy, Debug)]
struct PeerHit {
    id: Id160,
    addr: u32,
    weight: f64,
    at_us: u64,
    /// Whether the peer's most recent serve was from its cache (warm
    /// ranking prefers cache servers: routing repeat GETs to them keeps
    /// load *off* the authoritative holders).
    from_cache: bool,
}

#[derive(Clone, Debug, Default)]
struct KeyHits {
    peers: Vec<PeerHit>,
    touched_us: u64,
}

/// Decayed per-key history of which peers recently served the key.
///
/// Every `FoundValue` a requester receives records `(key, server)` here;
/// the decayed weight approximates "hits served in the last half-life".
/// [`HitHistory::warm_peers`] is what the lookup layer seeds shortlists
/// from and biases candidate ordering toward.
#[derive(Clone, Debug)]
pub struct HitHistory {
    half_life_us: u64,
    warm_threshold: f64,
    max_keys: usize,
    max_peers: usize,
    keys: FxHashMap<Id160, KeyHits>,
}

impl HitHistory {
    /// A history with the given decay and bounds.
    pub fn new(cfg: &FreshConfig) -> Self {
        HitHistory {
            half_life_us: cfg.hit_half_life_us.max(1),
            warm_threshold: cfg.warm_threshold,
            max_keys: cfg.max_tracked_keys.max(1),
            max_peers: cfg.max_peers_per_key.max(1),
            keys: FxHashMap::default(),
        }
    }

    /// Keys currently tracked.
    pub fn tracked(&self) -> usize {
        self.keys.len()
    }

    /// Records that `peer` served `key` at `now_us` (`from_cache` = the
    /// reply came from the peer's hot-block cache, not its storage).
    pub fn record(&mut self, key: Id160, peer: Id160, addr: u32, from_cache: bool, now_us: u64) {
        let half_life = self.half_life_us;
        let entry = self.keys.entry(key).or_default();
        entry.touched_us = entry.touched_us.max(now_us);
        match entry.peers.iter_mut().find(|p| p.id == peer) {
            Some(p) => {
                let dt = now_us.saturating_sub(p.at_us);
                p.weight = decayed(p.weight, dt, half_life) + 1.0;
                p.at_us = now_us;
                p.addr = addr;
                p.from_cache = from_cache;
            }
            None => {
                if entry.peers.len() >= self.max_peers {
                    // Evict the lightest (as of now); deterministic ties by id.
                    let lightest = entry
                        .peers
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            let wa = decayed(a.weight, now_us.saturating_sub(a.at_us), half_life);
                            let wb = decayed(b.weight, now_us.saturating_sub(b.at_us), half_life);
                            wa.partial_cmp(&wb).expect("finite").then(a.id.cmp(&b.id))
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    entry.peers.remove(lightest);
                }
                entry.peers.push(PeerHit {
                    id: peer,
                    addr,
                    weight: 1.0,
                    at_us: now_us,
                    from_cache,
                });
            }
        }
        if self.keys.len() > self.max_keys {
            // Evict the least-recently-touched key (deterministic ties by key).
            // dharma-lint: allow(D3): `min_by` with a (touched, key) total order is order-independent
            if let Some(victim) = self
                .keys
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by(|(ka, a), (kb, b)| a.touched_us.cmp(&b.touched_us).then(ka.cmp(kb)))
                .map(|(k, _)| *k)
            {
                self.keys.remove(&victim);
            }
        }
    }

    /// Drops a peer everywhere (it departed / was evicted from routing).
    pub fn forget_peer(&mut self, peer: &Id160) {
        // dharma-lint: allow(D3): each entry is mutated independently; no order escapes
        for entry in self.keys.values_mut() {
            entry.peers.retain(|p| p.id != *peer);
        }
    }

    /// The peers whose decayed hit weight for `key` clears the warm
    /// threshold, as `(peer id, transport addr)` pairs: cache servers
    /// first (routing toward them offloads the authoritative holders),
    /// then by decayed weight, deterministic ties by id.
    pub fn warm_peers(&self, key: &Id160, now_us: u64) -> Vec<(Id160, u32)> {
        let Some(entry) = self.keys.get(key) else {
            return Vec::new();
        };
        let mut warm: Vec<(bool, f64, Id160, u32)> = entry
            .peers
            .iter()
            .map(|p| {
                (
                    p.from_cache,
                    decayed(p.weight, now_us.saturating_sub(p.at_us), self.half_life_us),
                    p.id,
                    p.addr,
                )
            })
            .filter(|(_, w, _, _)| *w >= self.warm_threshold)
            .collect();
        warm.sort_unstable_by(|a, b| {
            b.0.cmp(&a.0)
                .then(b.1.partial_cmp(&a.1).expect("finite"))
                .then(a.2.cmp(&b.2))
        });
        warm.into_iter()
            .map(|(_, _, id, addr)| (id, addr))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_types::sha1;

    fn stamp(seq: u64) -> VersionStamp {
        VersionStamp::new(seq, sha1(b"writer"))
    }

    #[test]
    fn book_tracks_highest_and_admits_monotonically() {
        let mut b = FreshnessBook::new(0);
        let k = sha1(b"k");
        assert!(
            b.admits(&k, VersionStamp::ZERO),
            "unknown keys are admitted"
        );
        assert!(b.note(k, stamp(3)), "first observation is news");
        assert!(!b.note(k, stamp(2)), "lower stamps are not");
        assert!(b.note(k, stamp(7)));
        assert_eq!(b.highest(&k), Some(stamp(7)));
        assert!(!b.admits(&k, stamp(6)));
        assert!(b.admits(&k, stamp(7)));
        assert!(b.admits(&k, stamp(9)));
        b.forget(&k);
        assert!(b.admits(&k, VersionStamp::ZERO));
    }

    #[test]
    fn book_orders_equal_seq_stamps_by_writer() {
        // Two concurrent writers minting the same Lamport seq still have
        // a total order: the higher writer id wins, exactly, on any node.
        let mut b = FreshnessBook::new(0);
        let k = sha1(b"k");
        let (wa, wb) = (sha1(b"wa"), sha1(b"wb"));
        let (lo, hi) = if wa < wb { (wa, wb) } else { (wb, wa) };
        assert!(b.note(k, VersionStamp::new(5, lo)));
        assert!(b.note(k, VersionStamp::new(5, hi)), "higher writer is news");
        assert!(!b.admits(&k, VersionStamp::new(5, lo)));
        assert!(b.admits(&k, VersionStamp::new(5, hi)));
    }

    #[test]
    fn book_capacity_is_bounded_and_keeps_the_note_just_made() {
        let mut b = FreshnessBook::new(16);
        for i in 0..200u32 {
            let k = sha1(&i.to_le_bytes());
            b.note(k, stamp(u64::from(i) + 1));
            assert!(b.len() <= 17, "len {} at i {i}", b.len());
            assert!(b.highest(&k).is_some(), "just-noted key survives the shed");
        }
    }

    #[test]
    fn builder_validates_ranges_both_ways() {
        let ok = FreshConfig::builder()
            .digest_max(8)
            .refresh_age_us(1_000_000)
            .max_serve_age_us(2_000_000)
            .push_on_write(true)
            .push_fanout(4)
            .build()
            .expect("valid config");
        assert!(ok.push_on_write);
        assert_eq!(ok.push_fanout, 4);
        assert!(FreshConfig::builder().digest_max(0).build().is_err());
        assert!(FreshConfig::builder().warm_threshold(0.0).build().is_err());
        assert!(FreshConfig::builder()
            .refresh_age_us(10)
            .max_serve_age_us(10)
            .build()
            .is_err());
        assert!(FreshConfig::builder()
            .push_on_write(true)
            .push_fanout(0)
            .build()
            .is_err());
        assert!(FreshConfig::builder()
            .push_on_write(true)
            .push_window_us(0)
            .build()
            .is_err());
    }

    #[test]
    fn config_table_defaults_and_setters() {
        let d = FreshConfig::default();
        assert_eq!(
            (
                d.digest_max,
                d.news_window_us,
                d.hit_half_life_us,
                d.warm_threshold
            ),
            (8, 30_000_000, 60_000_000, 0.5)
        );
        assert_eq!(
            (d.max_tracked_keys, d.max_peers_per_key, d.max_versions),
            (1024, 4, 4096)
        );
        assert_eq!(
            (d.max_view_lifetime_us, d.refresh_age_us, d.max_serve_age_us),
            (240_000_000, 15_000_000, 24_000_000)
        );
        assert_eq!(
            (
                d.revalidate_on_stale,
                d.cache_aware_routing,
                d.push_on_write
            ),
            (true, true, false)
        );
        assert_eq!((d.push_fanout, d.push_window_us), (4, 30_000_000));

        let c = FreshConfig::builder()
            .digest_max(9)
            .news_window_us(1)
            .hit_half_life_us(2)
            .warm_threshold(0.75)
            .max_tracked_keys(3)
            .max_peers_per_key(5)
            .max_versions(6)
            .max_view_lifetime_us(7)
            .revalidate_on_stale(false)
            .refresh_age_us(8)
            .max_serve_age_us(10)
            .cache_aware_routing(false)
            .push_on_write(true)
            .push_fanout(11)
            .push_window_us(12)
            .build()
            .expect("valid config");
        assert_eq!(
            (
                c.digest_max,
                c.news_window_us,
                c.hit_half_life_us,
                c.warm_threshold
            ),
            (9, 1, 2, 0.75)
        );
        assert_eq!(
            (c.max_tracked_keys, c.max_peers_per_key, c.max_versions),
            (3, 5, 6)
        );
        assert_eq!(
            (c.max_view_lifetime_us, c.refresh_age_us, c.max_serve_age_us),
            (7, 8, 10)
        );
        assert_eq!(
            (
                c.revalidate_on_stale,
                c.cache_aware_routing,
                c.push_on_write
            ),
            (false, false, true)
        );
        assert_eq!((c.push_fanout, c.push_window_us), (11, 12));
    }

    #[test]
    fn hit_history_decays_and_ranks_peers() {
        let cfg = FreshConfig {
            hit_half_life_us: 1_000_000,
            warm_threshold: 0.5,
            max_peers_per_key: 4,
            ..FreshConfig::default()
        };
        let mut h = HitHistory::new(&cfg);
        let k = sha1(b"k");
        let (p1, p2) = (sha1(b"p1"), sha1(b"p2"));
        h.record(k, p1, 1, false, 0);
        h.record(k, p1, 1, false, 0);
        h.record(k, p2, 2, false, 0);
        let warm = h.warm_peers(&k, 0);
        assert_eq!(warm.first(), Some(&(p1, 1)), "heavier peer ranks first");
        assert_eq!(warm.len(), 2);
        // A cache server outranks a heavier authoritative one: repeat GETs
        // routed to it keep load off the holders.
        h.record(k, p2, 2, true, 0);
        assert_eq!(h.warm_peers(&k, 0).first(), Some(&(p2, 2)));
        // Several half-lives later both faded below the threshold.
        assert!(h.warm_peers(&k, 10_000_000).is_empty());
        // Unknown key: no peers.
        assert!(h.warm_peers(&sha1(b"other"), 0).is_empty());
    }

    #[test]
    fn hit_history_bounds_keys_and_peers() {
        let cfg = FreshConfig {
            max_tracked_keys: 8,
            max_peers_per_key: 2,
            ..FreshConfig::default()
        };
        let mut h = HitHistory::new(&cfg);
        let k = sha1(b"k");
        for i in 0..10u32 {
            h.record(k, sha1(&i.to_le_bytes()), i, false, u64::from(i));
        }
        assert!(h.warm_peers(&k, 10).len() <= 2);
        for i in 0..50u32 {
            h.record(
                sha1(&i.to_le_bytes()),
                sha1(b"p"),
                0,
                false,
                100 + u64::from(i),
            );
        }
        assert!(h.tracked() <= 8, "tracked {}", h.tracked());
    }

    #[test]
    fn forget_peer_removes_it_from_every_key() {
        let cfg = FreshConfig::default();
        let mut h = HitHistory::new(&cfg);
        let p = sha1(b"gone");
        h.record(sha1(b"a"), p, 7, false, 0);
        h.record(sha1(b"b"), p, 7, false, 0);
        h.forget_peer(&p);
        assert!(h.warm_peers(&sha1(b"a"), 0).is_empty());
        assert!(h.warm_peers(&sha1(b"b"), 0).is_empty());
    }
}
