//! **Version gossip & cache-aware routing** ([`FreshConfig`], the
//! `dharma-fresh` subsystem) replace TTL-only cache expiry with
//! opportunistic freshness information:
//!
//! * every `Pong`, `FoundNodes` and authoritative `FoundValue` this node
//!   sends piggybacks a compact **digest** — `(key, write-version)` pairs
//!   for recent local writes, the hottest held keys, and held keys near
//!   the lookup target (`build_digest`). Building one takes O(news ring +
//!   `digest_max`) authority tests, each sort-free
//!   ([`RoutingTable::local_ranks_within`]): a ring full of keys this
//!   node no longer speaks for costs a few bucket lengths per key, not a
//!   closest-`k` selection per key;
//! * received digests feed a per-node [`FreshnessBook`]; a digest naming a
//!   *newer* version than a cached view triggers cheap **revalidation**:
//!   the stale views are dropped immediately and one is refreshed with a
//!   direct `FindValue` to the digest sender (2 datagrams, no lookup) —
//!   instead of the stale view being served until its TTL runs out;
//! * a digest *confirming* a cached view's version restamps its TTL clock
//!   (bounded by [`FreshConfig::max_view_lifetime_us`]), so hot views
//!   outlive their TTL without widening the staleness window;
//! * cached views are only ever served through the book's
//!   **monotone-freshness gate**: never below the highest gossiped
//!   version (see `fresh_admits`);
//! * a decayed per-peer [`HitHistory`] remembers who recently served each
//!   key; GET lookups seed their shortlist with those **warm** peers and
//!   prefer them over nearer cold candidates (warm redirects), cutting
//!   hops on repeat keys and steering load off authoritative holders;
//! * with [`FreshConfig::push_on_write`], holders remember who fetched a
//!   key and send them the post-write view directly (`InvalidatePush`)
//!   when the key takes a write.
//!
//! [`RoutingTable::local_ranks_within`]: crate::RoutingTable::local_ranks_within

use bytes::BytesMut;

use dharma_cache::{FetcherBook, FreshConfig, FreshnessBook, HitHistory};
use dharma_net::Ctx;
use dharma_types::{FxHashMap, Id160, VersionStamp, WireEncode};

use super::rpc::{PUSH_OP, REFRESH_OP};
use super::{KadOutput, KademliaNode};
use crate::messages::{
    invalidate_push_head_len, put_invalidate_push_head, put_push_tail, Contact, DigestEntry,
    FetchedValue, Message,
};

/// Bound on the digest news ring (recent effective local writes).
const NEWS_CAP: usize = 32;

/// Per-node state of the `dharma-fresh` subsystem (present when
/// [`KadConfig::freshness`] is set).
///
/// [`KadConfig::freshness`]: super::KadConfig::freshness
pub(super) struct FreshState {
    /// The configuration in force (a copy of [`KadConfig::freshness`]).
    ///
    /// [`KadConfig::freshness`]: super::KadConfig::freshness
    pub(super) cfg: FreshConfig,
    /// Highest gossiped write-version per key — the monotone serving gate.
    pub(super) book: FreshnessBook,
    /// Decayed per-peer hit history feeding cache-aware lookup routing.
    pub(super) hits: HitHistory,
    /// Recent effective local writes, newest last — the digest's news
    /// section. Bounded by [`NEWS_CAP`].
    news: Vec<News>,
    /// In-flight revalidations: rpc id → the `(key, top_n)` view being
    /// refreshed (routes the reply and dedups refreshes per key).
    pub(super) revalidating: FxHashMap<u64, (Id160, u32)>,
    /// Holder-side recent-fetcher book: who to `InvalidatePush` when a
    /// held key takes a write (populated only when
    /// [`FreshConfig::push_on_write`] is set).
    pub(super) fetchers: FetcherBook,
    /// Count of `push_invalidations` rounds sent — drives the 1-in-N
    /// liveness-sampling rotation for ack-tracked pushes.
    push_calls: u64,
}

/// One slot of the news ring: a key written here, when, and the stamp it
/// is stored at. Stored stamps change only by writes, each of which
/// re-notes its key; a key dropped from storage keeps its slot (ring
/// order stays the writes' order) with `stamp: None`. So the digest reads
/// the ring alone, never storage.
struct News {
    key: Id160,
    at_us: u64,
    stamp: Option<VersionStamp>,
}

impl FreshState {
    pub(super) fn new(cfg: FreshConfig) -> Self {
        FreshState {
            book: FreshnessBook::new(cfg.max_versions),
            hits: HitHistory::new(&cfg),
            news: Vec::new(),
            revalidating: FxHashMap::default(),
            fetchers: FetcherBook::new(
                cfg.max_tracked_keys,
                cfg.push_fanout.max(1),
                cfg.push_window_us,
            ),
            push_calls: 0,
            cfg,
        }
    }

    /// True while a revalidation of some view of `key` is in flight
    /// (refreshes are deduplicated per key).
    fn is_revalidating(&self, key: &Id160) -> bool {
        // dharma-lint: allow(D3): `.any()` over an equality predicate is order-independent
        self.revalidating.values().any(|(k, _)| k == key)
    }
}

impl KademliaNode {
    /// Records an effective local write into the digest's news ring:
    /// the next few replies this node sends will gossip the key's new
    /// write-version, so peers with cached views learn of it without
    /// waiting out their TTL.
    pub(super) fn note_news(&mut self, key: Id160, now_us: u64) {
        let Some(f) = self.fresh.as_mut() else {
            return;
        };
        let stamp = self.storage.get(&key).map(|s| s.version);
        f.news.retain(|n| n.key != key);
        f.news.push(News {
            key,
            at_us: now_us,
            stamp,
        });
        if f.news.len() > NEWS_CAP {
            f.news.remove(0);
        }
    }

    /// Storage just dropped keys (lazy expiry, demotion, the expiry
    /// sweep): their news slots stop gossiping, in place.
    pub(super) fn forget_unheld_news(&mut self) {
        let Some(f) = self.fresh.as_mut() else {
            return;
        };
        for n in &mut f.news {
            if n.stamp.is_some() && !self.storage.contains(&n.key) {
                n.stamp = None;
            }
        }
    }

    /// True while this node still ranks within `k` of `key` per its own
    /// routing view — the bar for speaking *authoritatively* about a
    /// held copy: serving it as a holder and gossiping its stamp in
    /// digests. A holder that membership turnover pushed outside a key's
    /// replica set stops receiving that key's writes, so its copy — and
    /// its origin stamp — silently freeze; exact stamps would then keep
    /// *confirming* (and refresh-ahead would keep re-pinning) cached
    /// views that miss every write since. Requires `k` strictly-closer
    /// known contacts to conclude "outsider" (a sparse routing view
    /// assumes authority). Stricter than the demotion sweep's `k + slack`
    /// on purpose: deleting a copy too eagerly loses churn resilience,
    /// while *declining to speak* merely sends the lookup one hop onward
    /// to a current holder. Only consulted under `dharma-fresh`: without
    /// version gossip, beyond-`k` copies are a deliberate churn safety
    /// net and keep serving.
    pub(super) fn likely_authoritative(&self, key: &Id160) -> bool {
        self.routing.local_ranks_within(key, self.cfg.k)
    }

    /// Builds the version digest piggybacked on a reply: up to
    /// [`FreshConfig::digest_max`] `(held key, origin stamp)` pairs,
    /// picked as (1) recent local writes (the news ring, newest first) —
    /// the versions peers are most likely stale on; (2) the hottest held
    /// keys per the popularity tracker — the views most likely cached
    /// elsewhere, so their confirmations extend the most TTLs; (3) held
    /// keys nearest `around` (the lookup target) — what the requester is
    /// asking about. Empty when `dharma-fresh` is off, so disabled nodes
    /// gossip nothing.
    ///
    /// Runs on every reply: at most `news + 2 * digest_max` authority
    /// tests, each a walk over a few bucket lengths
    /// ([`RoutingTable::local_ranks_within`]), plus — only when the first
    /// two sections leave room — one linear selection over the held keys.
    /// The news section probes no storage: its slots carry their stamps.
    ///
    /// [`RoutingTable::local_ranks_within`]: crate::RoutingTable::local_ranks_within
    pub(super) fn build_digest(&self, around: Option<&Id160>, now_us: u64) -> Vec<DigestEntry> {
        let Some(f) = &self.fresh else {
            return Vec::new();
        };
        let max = f.cfg.digest_max;
        if max == 0 || self.storage.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<DigestEntry> = Vec::new();
        let stored = |key: &Id160| self.storage.get(key).map(|s| s.version);
        let push = |out: &mut Vec<DigestEntry>, key: &Id160, stamp: Option<VersionStamp>| {
            if out.len() < max && !out.iter().any(|e| e.key == *key) {
                // A copy this node no longer speaks for must not gossip:
                // its frozen stamp would confirm equally-stale views.
                if let Some(version) = stamp {
                    if self.likely_authoritative(key) {
                        out.push(DigestEntry { key: *key, version });
                    }
                }
            }
        };
        for n in f.news.iter().rev() {
            if now_us.saturating_sub(n.at_us) <= f.cfg.news_window_us {
                debug_assert_eq!(n.stamp, stored(&n.key), "news slot out of date");
                push(&mut out, &n.key, n.stamp);
            }
        }
        if let Some(pop) = self.popularity.as_ref().filter(|_| out.len() < max) {
            for key in pop.hottest(max, now_us) {
                push(&mut out, &key, stored(&key));
            }
        }
        if let Some(target) = around {
            if out.len() < max {
                // Per-reply hot path: bounded selection of the nearest
                // held keys, not a full sort of everything held. `max`
                // candidates always suffice: at most `out.len()` of them
                // can be dedup-skipped, leaving ≥ `max - out.len()` — as
                // many as the digest still has room for.
                let mut held: Vec<Id160> = self.storage.keys().copied().collect();
                if held.len() > max {
                    held.select_nth_unstable_by_key(max - 1, |k| k.distance(target));
                    held.truncate(max);
                }
                held.sort_unstable_by_key(|k| k.distance(target));
                for key in held {
                    push(&mut out, &key, stored(&key));
                }
            }
        }
        out
    }

    /// Absorbs a piggybacked digest from `from`: records every entry in
    /// the freshness book, then reconciles the cache — views the digest
    /// proves stale are dropped (and one variant revalidated with a direct
    /// `FindValue` to the sender, which is authoritative for digest keys),
    /// views it confirms current get their TTL clock restamped (bounded by
    /// [`FreshConfig::max_view_lifetime_us`]).
    pub(super) fn absorb_digest(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        from: &Contact,
        digest: &[DigestEntry],
    ) {
        if digest.is_empty() || self.fresh.is_none() {
            return;
        }
        for e in digest {
            self.observe_stamp(e.version);
        }
        let mut refresh: Vec<(Id160, u32)> = Vec::new();
        {
            let Self {
                fresh,
                cache,
                storage,
                cfg,
                ..
            } = self;
            let f = fresh.as_mut().expect("checked above");
            for e in digest {
                f.book.note(e.key, e.version);
                // Only cached views are managed here — and authoritative
                // holders reconcile through `Replicate` merges, not gossip.
                let Some(cache) = cache.as_mut() else {
                    continue;
                };
                if !cache.holds_any(&e.key) || storage.contains(&e.key) {
                    continue;
                }
                let dropped = cache.invalidate_stale(&e.key, e.version);
                if dropped.is_empty() {
                    cache.confirm_fresh(&e.key, e.version, ctx.now_us, f.cfg.max_view_lifetime_us);
                    continue;
                }
                cfg.counters.record_stale_drops(dropped.len() as u64);
                if f.cfg.revalidate_on_stale && !f.is_revalidating(&e.key) {
                    refresh.push((e.key, dropped[0]));
                }
            }
        }
        for (key, top_n) in refresh {
            self.send_revalidation(ctx, from.clone(), key, top_n);
        }
    }

    /// Records that `key` is known to exist at `version` — a digest, a
    /// push or an authoritative reply said so — raising the floor of the
    /// monotone-freshness gate.
    pub(super) fn note_version(&mut self, key: Id160, version: VersionStamp) {
        if let Some(f) = self.fresh.as_mut() {
            f.book.note(key, version);
        }
    }

    /// The monotone-freshness gate: may a cached view of `key` at
    /// `version` be served? False once any digest claimed a newer version.
    pub(super) fn fresh_admits(&self, key: &Id160, version: VersionStamp) -> bool {
        self.fresh
            .as_ref()
            .map(|f| f.book.admits(key, version))
            .unwrap_or(true)
    }

    /// One revalidation probe: a direct `FindValue` (authoritative-only —
    /// a cached view elsewhere could be exactly as stale as the one being
    /// checked) to `to`, tracked under [`REFRESH_OP`]. The reply re-pins
    /// the view; a timeout or a `FoundNodes` leaves things as they are.
    fn send_revalidation(&mut self, ctx: &mut Ctx<KadOutput>, to: Contact, key: Id160, top_n: u32) {
        self.cfg.counters.record_revalidation();
        let timeout_us = self.cfg.rpc_timeout_us;
        let rpc = self.request(ctx, to, REFRESH_OP, timeout_us, None, |rpc, from| {
            Message::FindValue {
                rpc,
                from: from.clone(),
                key,
                top_n,
                no_cache: true,
            }
            .encode_to_bytes()
        });
        if let Some(f) = self.fresh.as_mut() {
            f.revalidating.insert(rpc, (key, top_n));
        }
    }

    /// The revalidation tracked under `rpc` is over — answered or timed
    /// out: forgets it, returning the `(key, top_n)` view it refreshed.
    pub(super) fn end_revalidation(&mut self, rpc: u64) -> Option<(Id160, u32)> {
        self.fresh.as_mut()?.revalidating.remove(&rpc)
    }

    /// A revalidation came back: re-pin the refreshed view (authoritative
    /// by construction — the request set `no_cache`) under its new
    /// version.
    pub(super) fn on_revalidated(
        &mut self,
        now_us: u64,
        rpc: u64,
        from: &Contact,
        view: FetchedValue,
    ) {
        let Some((key, top_n)) = self.end_revalidation(rpc) else {
            return;
        };
        let version = view.version;
        if view.from_cache || !self.pin_view(key, top_n, view, now_us) {
            return;
        }
        self.note_version(key, version);
        self.note_served_by(key, from, false, now_us);
    }

    /// Refresh-ahead: a local cache hit is being served, but the view's
    /// last mint/confirmation is older than [`FreshConfig::refresh_age_us`]
    /// — probe a likely holder in the background so the view's *content*
    /// tracks writes instead of aging toward the TTL. The serve itself
    /// stays a zero-message hit; the probe costs two datagrams and only
    /// fires when no revalidation for the key is already in flight.
    pub(super) fn maybe_refresh_ahead(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, top_n: u32) {
        let Some(f) = &self.fresh else {
            return;
        };
        let age_bar = f.cfg.refresh_age_us;
        if age_bar == 0 || f.is_revalidating(&key) {
            return;
        }
        let age = self
            .cache
            .as_ref()
            .and_then(|c| c.age_of(&(key, top_n), ctx.now_us));
        if age.map(|a| a < age_bar).unwrap_or(true) {
            return;
        }
        // The closest known contact is the likeliest authoritative holder;
        // a warm recent server is the fallback.
        let target = self
            .routing
            .closest(&key, 1)
            .into_iter()
            .next()
            .or_else(|| {
                self.fresh.as_ref().and_then(|f| {
                    f.hits
                        .warm_peers(&key, ctx.now_us)
                        .into_iter()
                        .next()
                        .map(|(id, addr)| Contact { id, addr })
                })
            });
        if let Some(to) = target {
            self.send_revalidation(ctx, to, key, top_n);
        }
    }

    /// Records that `server` answered a GET for `key` — the warm-peer hit
    /// history behind cache-aware routing and refresh-ahead targeting.
    /// (Recording is unconditional under `dharma-fresh`; only the lookup
    /// *bias* is gated on [`FreshConfig::cache_aware_routing`].)
    pub(super) fn note_served_by(
        &mut self,
        key: Id160,
        server: &Contact,
        from_cache: bool,
        now_us: u64,
    ) {
        if let Some(f) = self.fresh.as_mut() {
            f.hits
                .record(key, server.id, server.addr, from_cache, now_us);
        }
    }

    /// A peer is gone (it said so, or a probe confirmed it): it must not be
    /// seeded into future shortlists or pushed invalidations.
    pub(super) fn forget_peer(&mut self, peer: &Id160) {
        if let Some(f) = self.fresh.as_mut() {
            f.hits.forget_peer(peer);
            f.fetchers.forget_peer(peer);
        }
    }

    /// Write-triggered invalidation push: after a write raised `key`'s
    /// stored stamp, send the key's recent fetchers the post-write view
    /// directly (bounded fan-out), re-filtered to each fetcher's recorded
    /// width, so their cached slot is refreshed in one RTT — no
    /// drop-then-revalidate round trip. `exclude` suppresses the push to
    /// the write's own sender (it already knows the version it just
    /// wrote). A sample of the pushes is tracked under [`PUSH_OP`] like a
    /// maintenance RPC; the rest go unacked.
    pub(super) fn push_invalidations(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        key: Id160,
        exclude: Option<&Id160>,
    ) {
        let Some(f) = self.fresh.as_ref() else {
            return;
        };
        if !f.cfg.push_on_write {
            return;
        }
        let stamp = self.storage.stamp(&key);
        if stamp.is_zero() {
            return;
        }
        let own = self.contact.id;
        let targets: Vec<(Id160, u32, u32)> = f
            .fetchers
            .recent(&key, ctx.now_us)
            .into_iter()
            .filter(|(id, _, _)| *id != own && exclude != Some(id))
            .take(f.cfg.push_fanout)
            .collect();
        if targets.is_empty() {
            return;
        }
        let round = {
            let f = self.fresh.as_mut().expect("checked above");
            f.push_calls += 1;
            f.push_calls
        };
        // One encoded view per distinct width, not per fetcher — a hot
        // key's fetchers nearly all asked for the same `top_n`: the value's
        // wire memo (which the next `FIND_VALUE` at that width then hits)
        // and the push's tail. Each target gets its own head in front.
        let budget = self.cfg.reply_budget;
        let mut views: Vec<(u32, BytesMut)> = Vec::new();
        for (i, &(id, addr, top_n)) in targets.iter().enumerate() {
            let at = match views.iter().position(|(n, _)| *n == top_n) {
                Some(at) => at,
                None => {
                    // The key was just written, so the read can only miss
                    // if it raced an expiry sweep — in which case there is
                    // nothing left to push.
                    let mut view = BytesMut::new();
                    let read = self.storage.encode_filtered(&key, top_n, budget, &mut view);
                    let Some((truncated, _)) = read else {
                        return;
                    };
                    put_push_tail(&mut view, truncated, &stamp);
                    views.push((top_n, view));
                    views.len() - 1
                }
            };
            let view = &views[at].1;
            // Liveness sampling: every third push round, the first (most
            // recent) target is tracked like REPAIR_OP — its ack feeds the
            // RTT estimator and its timeout evicts the fetcher from the
            // book. Everything else goes unacked (`rpc == 0`):
            // invalidation is loss-tolerant by contract (the gossip
            // cadence backstops a lost push), so acking every duplicate
            // would double the push overhead for no freshness gain.
            self.cfg.counters.record_invalidate_pushes(1);
            let push = |rpc: u64, from: &Contact| {
                let len = invalidate_push_head_len(rpc, from, top_n) + view.len();
                let mut push = BytesMut::with_capacity(len);
                put_invalidate_push_head(&mut push, rpc, from, &key, top_n);
                push.extend_from_slice(view);
                debug_assert_eq!(push.len(), len);
                push.freeze()
            };
            if i == 0 && round % 3 == 0 {
                let timeout_us = self.cfg.rpc_timeout_us;
                self.request(ctx, Contact { id, addr }, PUSH_OP, timeout_us, None, push);
            } else {
                ctx.send(addr, push(0, &self.contact));
            }
        }
    }

    /// `InvalidatePush`: the push carries the holder's post-write view, so
    /// this fetcher's cache slot converges in the same RTT — unlike a
    /// digest entry, no revalidation RPC is ever needed.
    pub(super) fn on_invalidate_push(&mut self, ctx: &mut Ctx<KadOutput>, msg: Message) {
        let Message::InvalidatePush {
            rpc,
            from,
            key,
            top_n,
            blob,
            entries,
            truncated,
            stamp,
        } = msg
        else {
            return;
        };
        self.observe_stamp(stamp);
        // Raising the book floor retires every other cached variant of the
        // key at serve time (`fresh_admits`).
        self.note_version(key, stamp);
        // Like `CachePush`: authoritative holders reconcile through
        // `Replicate` merges, not pushes.
        if !self.storage.contains(&key) {
            self.drop_stale_views(&key, stamp);
            let view = FetchedValue {
                blob,
                entries,
                truncated,
                version: stamp,
                from_cache: true,
            };
            self.pin_view(key, top_n, view, ctx.now_us);
        }
        // `rpc == 0` marks an unacked push (the sender tracks only a
        // liveness sample of its fan-out).
        if rpc != 0 {
            self.ack(ctx, from.addr, rpc);
        }
    }
}

#[cfg(test)]
mod tests;
