//! The hot-block layer ([`KadConfig::cache`], [`KadConfig::replication`]).
//!
//! With caching on, every node keeps a TinyLFU cache of filtered reads
//! ([`dharma_cache::HotCache`]): the view a GET fetched is pinned locally
//! and pushed to the closest path node that missed (`CachePush`, the
//! Kademlia caching rule), and path nodes answer `FIND_VALUE` from such
//! views, flagged `from_cache`. One function reads a view for serving
//! ([`KademliaNode::serve_cached`]) and one pins a view a peer sent
//! ([`KademliaNode::pin_view`]). With adaptive replication on, holders
//! track per-key GET rates and push replicas beyond the base `k` when a
//! key runs hot; the demotion sweep (`maint`) is the counterpart.
//!
//! [`KadConfig::cache`]: super::KadConfig::cache
//! [`KadConfig::replication`]: super::KadConfig::replication

use bytes::BytesMut;

use dharma_cache::{CacheStats, HotCache, PopularityEstimator};
use dharma_net::Ctx;
use dharma_types::{Id160, VersionStamp, WireEncode};

use super::{KadOutput, KademliaNode};
use crate::messages::{
    found_value_frame_len, put_found_value_head, put_found_value_tail, Contact, FetchedValue,
    Message,
};

impl KademliaNode {
    /// Hot-block cache statistics (`None` when caching is disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(HotCache::stats)
    }

    /// The popularity estimator (`None` when adaptive replication is off).
    pub fn popularity(&self) -> Option<&PopularityEstimator> {
        self.popularity.as_ref()
    }

    pub(super) fn on_find_value(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        rpc: u64,
        from: &Contact,
        key: Id160,
        top_n: u32,
        no_cache: bool,
    ) {
        self.gets_served += 1;
        // Under `dharma-fresh`, a held copy this node has drifted out of
        // the replica set for is no longer served as authoritative — it
        // stopped receiving the key's writes, and an exact-stamp reply
        // from it would re-pin stale views as "current". Answer with
        // closer contacts so the requester reaches the live holders
        // instead.
        let speaks_for = self.fresh.is_none() || self.likely_authoritative(&key);
        // Held values are served as their wire memo: one lookup, no owned
        // read, no `Message` in between.
        let mut body = BytesMut::new();
        let budget = self.cfg.reply_budget;
        let served = if speaks_for {
            self.storage.encode_filtered(&key, top_n, budget, &mut body)
        } else {
            None
        };
        if let Some((truncated, version)) = served {
            // Holder-side interest tracking for write-triggered
            // invalidation push: remember who fetched this key.
            if let Some(f) = self.fresh.as_mut().filter(|f| f.cfg.push_on_write) {
                f.fetchers
                    .record(key, from.id, from.addr, top_n, ctx.now_us);
            }
            let digest = self.build_digest(Some(&key), ctx.now_us);
            // The reply buffer is sized to the byte, so it never grows.
            let len = found_value_frame_len(rpc, &self.contact, &version, &digest) + body.len();
            let mut reply = BytesMut::with_capacity(len);
            put_found_value_head(&mut reply, rpc, &self.contact);
            reply.extend_from_slice(&body);
            put_found_value_tail(&mut reply, truncated, &version, false, &digest);
            debug_assert_eq!(reply.len(), len);
            ctx.send(from.addr, reply.freeze());
            // Authoritative holders track per-key GET rates and push extra
            // replicas when a key runs hot.
            return self.maybe_promote_replicas(ctx, key);
        }
        // Not an authoritative holder — a path node. With caching on, a
        // store-on-path view can still answer (flagged `from_cache` so
        // requesters know) — unless the requester demanded
        // authoritative-only service (its read-your-writes guard is armed;
        // a cached view could predate its write, and a FoundNodes reply
        // keeps its lookup advancing instead).
        if !no_cache {
            if let Some(view) = self.serve_cached(&key, top_n, ctx.now_us) {
                let reply = Message::FoundValue {
                    rpc,
                    from: self.contact.clone(),
                    blob: view.blob,
                    entries: view.entries,
                    truncated: view.truncated,
                    version: view.version,
                    from_cache: true,
                    // Cached views never gossip: their versions are
                    // another holder's.
                    digest: Vec::new(),
                };
                ctx.send(from.addr, reply.encode_to_bytes());
                // A path cache actively serving a key is exactly the view
                // whose staleness matters most — refresh it ahead of the
                // TTL too.
                return self.maybe_refresh_ahead(ctx, key, top_n);
            }
            // A view aged out but not superseded is refreshed, so the next
            // requester gets a servable one (nothing happens when no view
            // of the key is left).
            self.maybe_refresh_ahead(ctx, key, top_n);
        }
        self.reply_found_nodes(ctx, from.addr, rpc, &key);
    }

    /// The freshness-gated read of this node's own cached view of `key`.
    /// Two bars beyond the cache's TTL: the monotone version check — a
    /// view some digest already superseded is dropped on the spot, a miss
    /// where TTL-only would have served outdated data — and the serve-age
    /// bar: a view neither confirmed nor refreshed within
    /// [`FreshConfig::max_serve_age_us`] is a miss even inside its TTL,
    /// which is what bounds the staleness window by the gossip cadence
    /// instead of the TTL. An age-refused view stays resident (a
    /// read-through or refresh-ahead renews it, and a digest may yet
    /// confirm it).
    ///
    /// [`FreshConfig::max_serve_age_us`]: dharma_cache::FreshConfig::max_serve_age_us
    pub(super) fn serve_cached(
        &mut self,
        key: &Id160,
        top_n: u32,
        now_us: u64,
    ) -> Option<FetchedValue> {
        let cache = self.cache.as_mut()?;
        let (view, version) = cache.get(&(*key, top_n), now_us)?;
        let Some(f) = &self.fresh else {
            return Some(view);
        };
        if !f.book.admits(key, version) {
            let highest = f.book.highest(key).unwrap_or_default();
            self.drop_stale_views(key, highest);
            return None;
        }
        let age = cache.age_of(&(*key, top_n), now_us).unwrap_or(0);
        let bar = f.cfg.max_serve_age_us;
        (bar == 0 || age <= bar).then_some(view)
    }

    /// Pins a view a peer sent — a revalidation reply, a `CachePush`, an
    /// `InvalidatePush`, or the value a GET just fetched — as this node's
    /// cached copy, served from here on flagged `from_cache`. Refused
    /// (`false`) while the key's write guard is armed: the view may
    /// predate a write this node has in flight or just issued.
    pub(super) fn pin_view(
        &mut self,
        key: Id160,
        top_n: u32,
        mut view: FetchedValue,
        now_us: u64,
    ) -> bool {
        if self.recently_wrote(&key, now_us) {
            return false;
        }
        if let Some(cache) = &mut self.cache {
            view.from_cache = true;
            cache.insert((key, top_n), view.version, view, now_us);
        }
        true
    }

    /// Drops every cached view of `key` older than `below` (a version
    /// gossip or a push just proved current).
    pub(super) fn drop_stale_views(&mut self, key: &Id160, below: VersionStamp) {
        let Some(cache) = &mut self.cache else {
            return;
        };
        let dropped = cache.invalidate_stale(key, below).len();
        self.cfg.counters.record_stale_drops(dropped as u64);
    }

    /// Applies a local write's cache consequences: every cached view of
    /// `key` on this node is dropped, so the next read observes the write
    /// (read-your-writes for the writer; remote staleness is TTL-bounded).
    pub(super) fn invalidate_cached(&mut self, key: &Id160) {
        if let Some(cache) = &mut self.cache {
            cache.invalidate_key(key);
        }
    }

    /// `CachePush`: a requester pushed the view it just fetched to this
    /// path node, which missed. Authoritative holders ignore pushes (their
    /// storage is fresher by definition); everyone else caches the view.
    pub(super) fn on_cache_push(&mut self, now_us: u64, msg: Message) {
        let Message::CachePush {
            key,
            top_n,
            blob,
            entries,
            truncated,
            version,
            ..
        } = msg
        else {
            return;
        };
        self.observe_stamp(version);
        if !self.storage.contains(&key) {
            let view = FetchedValue {
                blob,
                entries,
                truncated,
                version,
                from_cache: true,
            };
            self.pin_view(key, top_n, view, now_us);
        }
    }

    /// Adaptive replication: called after this node served `key` from
    /// authoritative storage. Feeds the popularity estimator and, when the
    /// key is hot and its promotion cooldown has lapsed, pushes idempotent
    /// replica snapshots to the nodes ranked just beyond the base `k` for
    /// the key — spreading GET load off the k hot holders. The pushes are
    /// fire-and-forget `Replicate` messages (their acks are ignored).
    fn maybe_promote_replicas(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160) {
        let extra = match self.popularity.as_mut() {
            Some(pop) => {
                pop.record(key, ctx.now_us);
                pop.should_promote(&key, ctx.now_us)
            }
            None => None,
        };
        let Some(extra) = extra else {
            return;
        };
        let Some((snapshot, stamp)) = self.snapshot(&key) else {
            return;
        };
        let targets: Vec<Contact> = self
            .routing
            .closest(&key, self.cfg.k + extra)
            .into_iter()
            .skip(self.cfg.k)
            .collect();
        if targets.is_empty() {
            return;
        }
        self.cfg
            .counters
            .record_replicas_promoted(targets.len() as u64);
        for contact in &targets {
            self.send_write(ctx, contact, None, key, snapshot.clone(), stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use dharma_cache::{CacheConfig, PopularityConfig};
    use dharma_net::{NetCounters, SimNet};
    use dharma_types::sha1;

    use super::super::testutil::{build_overlay, get_value, sim_cfg, test_cfg};
    use super::*;
    use crate::node::KadConfig;
    /// Like `build_net` but with hot-block caching (and optionally
    /// adaptive replication) enabled on every node. Returns the shared
    /// counters handle all nodes record into.
    fn build_cached_net(
        n: usize,
        k: usize,
        seed: u64,
        replication: Option<PopularityConfig>,
    ) -> (SimNet<KademliaNode>, NetCounters) {
        let counters = NetCounters::new();
        let cfg = KadConfig {
            cache: Some(CacheConfig {
                capacity: 64,
                ttl_us: 3_600_000_000,
            }),
            replication,
            counters: counters.clone(),
            ..test_cfg(k)
        };
        (build_overlay(sim_cfg(seed), n, cfg).0, counters)
    }

    #[test]
    fn repeated_get_is_served_from_the_local_cache() {
        let (mut net, counters) = build_cached_net(20, 8, 30, None);
        let key = sha1(b"hot-block");
        net.with_node(3, |n, ctx| n.append(ctx, key, "rock", 5));
        net.run_until_idle(1_000_000);
        net.take_completions();

        // Pick a requester that is not an authoritative holder.
        let requester = (0..20u32)
            .find(|&a| !net.node(a).storage().contains(&key))
            .expect("k = 8 of 20 nodes hold the key");
        let (v1, m1) = get_value(&mut net, requester, key, 0);
        let v1 = v1.expect("value found");
        assert!(!v1.from_cache, "first read reaches authoritative storage");
        assert!(m1 > 0, "first read crosses the network");

        let (v2, m2) = get_value(&mut net, requester, key, 0);
        let v2 = v2.expect("value cached");
        assert!(v2.from_cache, "second read is a local cache hit");
        assert_eq!(m2, 0, "cache hits cost zero messages");
        assert_eq!(v2.entries, v1.entries, "cached view matches the original");
        assert!(counters.cache_hits() >= 1);
    }

    #[test]
    fn local_write_invalidates_cached_views() {
        let (mut net, _counters) = build_cached_net(20, 8, 31, None);
        let key = sha1(b"edited-block");
        net.with_node(2, |n, ctx| n.append(ctx, key, "rock", 1));
        net.run_until_idle(1_000_000);
        net.take_completions();

        // Warm every non-holder's cache with the pre-write view, so the
        // writer's post-write lookup is guaranteed to meet cached copies
        // on its path (the read-your-writes guard must see through them
        // via authoritative-only service, not dead-end on them).
        let non_holders: Vec<u32> = (0..20u32)
            .filter(|&a| !net.node(a).storage().contains(&key))
            .collect();
        for &a in &non_holders {
            let (_, _) = get_value(&mut net, a, key, 0);
        }
        net.run_until_idle(1_000_000);
        net.take_completions();

        // One of them now appends through the overlay; its own cached view
        // must not survive, and its next read must reach authoritative
        // storage past everyone else's stale cached copies.
        let requester = non_holders[0];
        net.with_node(requester, |n, ctx| n.append(ctx, key, "rock", 1));
        net.run_until_idle(1_000_000);
        net.take_completions();
        let (v, _) = get_value(&mut net, requester, key, 0);
        let v = v.expect("value present despite stale caches on the path");
        assert!(!v.from_cache, "the guarded read is authoritative");
        let rock = v.entries.iter().find(|e| e.name == "rock").unwrap();
        assert_eq!(rock.weight, 2, "the writer observes its own append");
    }

    #[test]
    fn path_caches_serve_the_block_after_every_holder_crashes() {
        // Sparse overlay (k = 4 of 64 nodes) so lookups take multiple hops
        // and store-on-path pushes land on intermediate nodes.
        let (mut net, counters) = build_cached_net(64, 4, 32, None);
        let key = sha1(b"pushed-block");
        net.with_node(1, |n, ctx| n.append(ctx, key, "jazz", 3));
        net.run_until_idle(2_000_000);
        net.take_completions();

        let holders: Vec<u32> = (0..64u32)
            .filter(|&a| net.node(a).storage().contains(&key))
            .collect();
        assert!(!holders.is_empty());
        // Warm the caches: a handful of non-holders fetch the block, each
        // fetch also pushing the view to its closest-missing path node.
        let warm: Vec<u32> = (0..64u32)
            .filter(|&a| !net.node(a).storage().contains(&key))
            .take(8)
            .collect();
        for &a in &warm {
            let (v, _) = get_value(&mut net, a, key, 0);
            assert!(v.is_some());
        }
        net.run_until_idle(2_000_000); // let the CachePushes land

        // Every authoritative holder vanishes.
        for &h in &holders {
            net.crash(h);
        }
        let hits_before = counters.cache_hits();
        // A fresh requester can still read the block: only a cached view
        // (requester-local on a warm node, or a store-on-path push) can
        // answer now, and the reply must say so.
        let fresh = (0..64u32)
            .find(|&a| !warm.contains(&a) && !holders.contains(&a))
            .unwrap();
        let (v, _) = get_value(&mut net, fresh, key, 0);
        let v = v.expect("a cached view outlives the authoritative holders");
        assert!(v.from_cache, "only caches can answer after the crash");
        assert!(counters.cache_hits() > hits_before);
    }

    #[test]
    fn hot_keys_gain_replicas_beyond_k() {
        let replication = PopularityConfig {
            half_life_us: 60_000_000,
            hot_threshold: 4.0,
            max_extra_replicas: 6,
            max_tracked: 1024,
            promote_cooldown_us: 1_000,
        };
        let (mut net, counters) = build_cached_net(24, 4, 33, Some(replication));
        let key = sha1(b"viral-block");
        net.with_node(0, |n, ctx| n.append(ctx, key, "meme", 1));
        net.run_until_idle(1_000_000);
        net.take_completions();
        let holders_before = (0..24u32)
            .filter(|&a| net.node(a).storage().contains(&key))
            .count();

        // Hammer the key from every node. Requester-side caches absorb
        // repeats, so spread the GETs across distinct cold requesters.
        for a in 0..24u32 {
            let _ = get_value(&mut net, a, key, 0);
        }
        net.run_until_idle(2_000_000);
        assert!(
            counters.replicas_promoted() > 0,
            "the hot key must trigger promotion"
        );
        let holders_after = (0..24u32)
            .filter(|&a| net.node(a).storage().contains(&key))
            .count();
        assert!(
            holders_after > holders_before,
            "promotion must add replicas: {holders_before} -> {holders_after}"
        );
    }
}
