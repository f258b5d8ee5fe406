//! The Kademlia protocol node: a [`dharma_net::Node`] state machine.
//!
//! One instance plays both roles of the protocol:
//!
//! * **server** — answers `PING`, `FIND_NODE`, `FIND_VALUE` (with index-side
//!   filtering), `STORE` and `APPEND` from its routing table and storage;
//! * **client** — runs iterative lookups ([`crate::lookup`]) with `α`
//!   parallelism and per-RPC timeouts, then (for writes) pushes the value to
//!   the `k` closest nodes found.
//!
//! The node is a small core plus its optional layers, one file each.
//! Every file adds an `impl KademliaNode` block over the state it owns;
//! this one holds the node itself and its three reactor entry points:
//! `on_start` arms the periodic timers, `on_message` decodes a datagram,
//! notes its sender live and hands it to the file that owns that message
//! type, `on_timer` does the same for timers.
//!
//! Core:
//!
//! * `config` — [`KadConfig`], [`MaintConfig`], [`AdaptConfig`] and
//!   [`KadOutput`];
//! * `rpc` — the one way to send: tracked requests, untracked notices,
//!   acks; settling a reply; RPC timeouts and the suspect path. Handles
//!   `Ping`, `Pong`, `Ack`;
//! * `ops` — client operations, from `start_op` through the lookup pump
//!   to completion. Handles `FindNode`, `FoundNodes`, `FoundValue`;
//! * `write` — the one way to apply a write: the replica phase, origin
//!   stamps, read-your-writes guards, the record TTL. Handles `Store`,
//!   `Append`, `Replicate`.
//!
//! Layers, each switched on by an `Option` of [`KadConfig`]:
//!
//! * `cache` — the hot-block cache and replica promotion
//!   ([`KadConfig::cache`], [`KadConfig::replication`]): the one way to
//!   serve and to pin a cached view. Handles `FindValue`, `CachePush`;
//! * `fresh` — version gossip, revalidation, invalidation push
//!   ([`KadConfig::freshness`]). Handles `InvalidatePush`;
//! * `maint` — liveness probes, key handoff to a joiner (a join is
//!   announced by the joiner's lookup of its own id), repair and demotion
//!   sweeps, churn-adaptive cadence, graceful leave
//!   ([`KadConfig::maintenance`]). Handles `Leave`;
//! * `latency` — the RTT book, adaptive timeouts and α, proximity
//!   neighbor selection ([`KadConfig::latency`]).
//!
//! A layer that is configured off leaves its code paths untaken: such a
//! node behaves byte-identically to the protocol without the layer, which
//! is what the static paper-reproduction experiments run.

mod cache;
mod config;
mod fresh;
mod latency;
mod maint;
mod ops;
mod rpc;
mod write;

pub use config::{AdaptConfig, KadConfig, KadOutput, MaintConfig, MaintConfigBuilder};

use bytes::Bytes;

use dharma_cache::{HotCache, PopularityEstimator};
use dharma_net::{Ctx, Instrumented, Metric, Node, NodeAddr};
use dharma_types::{FxHashMap, Id160, VersionStamp};

use self::fresh::FreshState;
use self::latency::Latency;
use self::maint::MaintState;
use self::rpc::PendingRpc;
use self::write::WriteGuard;
use crate::lookup::LookupState;
use crate::messages::{Contact, FetchedValue, Message};
use crate::routing::{NoteOutcome, RoutingTable};
use crate::rtt::AlphaController;
use crate::storage::{Storage, WriteBody};

/// What a client operation is trying to do.
#[derive(Debug)]
enum OpKind {
    FindNodes,
    Get {
        top_n: u32,
        /// Refuse every cached view end-to-end (`no_cache` lookups): the
        /// session-consistency escalation path for reads whose served
        /// version fell below the client's session floor.
        fresh: bool,
    },
    Write {
        body: WriteBody,
        /// The origin stamp the write already travels under: a republished
        /// snapshot keeps its own (republish/repair never mint a new
        /// version). `None` = a client write, stamped once the lookup has
        /// fixed the replica set.
        stamp: Option<VersionStamp>,
    },
}

#[derive(Debug)]
enum Phase {
    Lookup,
    Write {
        acks: u32,
        pending: u32,
        targets: u32,
        /// The origin stamp this write travels under (minted at phase
        /// entry for client writes; the snapshot's own for replication).
        stamp: VersionStamp,
    },
}

#[derive(Debug)]
struct OpState {
    lookup: LookupState,
    kind: OpKind,
    phase: Phase,
    messages: u32,
    /// For Get ops with caching on: responders that answered `FoundNodes`
    /// (i.e. did not have the value) — candidates for the store-on-path
    /// `CachePush` once the value arrives.
    value_misses: Vec<Contact>,
    /// For Get ops on keys this node recently wrote: ignore `from_cache`
    /// replies (they may predate the write) and insist on an authoritative
    /// holder — the requester-side half of read-your-writes.
    bypass_cache: bool,
    /// When the operation was issued (guard-disarm ordering: only a GET
    /// issued after a write guard was armed may disarm it).
    issued_at_us: u64,
    /// Adaptive lookup concurrency, scoped to this operation: widens as
    /// *this* lookup's RPCs time out, narrows on its clean streaks. `None`
    /// when adaptive α is off.
    alpha_ctl: Option<AlphaController>,
}

/// Timer id for the periodic republish sweep (RPC ids count up from 1 and
/// cannot collide with the top of the id space).
const TIMER_REPUBLISH: u64 = u64::MAX;

/// Timer id for the periodic expiry sweep.
const TIMER_EXPIRE: u64 = u64::MAX - 1;

/// Timer id for the liveness-probe maintenance tick.
const TIMER_PROBE: u64 = u64::MAX - 2;

/// Timer id for the repair (re-replication) sweep.
const TIMER_REPAIR: u64 = u64::MAX - 3;

/// Timer id for the replica-demotion sweep.
const TIMER_DEMOTE: u64 = u64::MAX - 4;

/// The Kademlia node.
pub struct KademliaNode {
    contact: Contact,
    cfg: KadConfig,
    routing: RoutingTable,
    storage: Storage,
    ops: FxHashMap<u64, OpState>,
    pending: FxHashMap<u64, PendingRpc>,
    next_rpc: u64,
    next_op: u64,
    /// Hot-block cache (present when `cfg.cache` is set).
    cache: Option<HotCache<FetchedValue>>,
    /// Per-key GET-rate tracker (present when `cfg.replication` is set).
    popularity: Option<PopularityEstimator>,
    /// `FIND_VALUE` requests received — the per-node GET load metric the
    /// cache ablation compares across configurations.
    gets_served: u64,
    /// Read-your-writes guards, kept while caching is on: GETs for guarded
    /// keys refuse possibly-stale cached replies until an authoritative
    /// read observed after the write. Guards expire one cache TTL after
    /// the write completes (beyond it no servable cached view can predate
    /// the write). Bounded in number (`WRITE_GUARD_CAP`).
    recent_writes: FxHashMap<Id160, WriteGuard>,
    /// Churn-maintenance state (`dharma-maint` / `dharma-adapt`).
    maint: MaintState,
    /// Version-gossip & hit-history state (`dharma-fresh`; present when
    /// `cfg.freshness` is set).
    fresh: Option<FreshState>,
    /// Latency-awareness state (present when `cfg.latency` is set; RTT
    /// samples are recorded only then, keeping disabled nodes
    /// byte-identical to history).
    latency: Option<Latency>,
    /// Lamport write clock: the highest stamp `seq` this node has observed
    /// anywhere (digests, replies, incoming writes). Minting a write stamp
    /// uses `observed + 1`, so a new write always orders above everything
    /// its coordinator causally saw.
    write_seq: u64,
}

/// Keeps a per-key book within `cap`: drops the entries `keep` rejects
/// and, when that is not enough (everything left is recent), sheds the
/// oldest quarter of `cap` among the entries `shed_at` puts a time on —
/// ordered by (time, key), because ties broken by anything but the key
/// would pick victims in hash order.
fn bound_book<V>(
    book: &mut FxHashMap<Id160, V>,
    cap: usize,
    keep: impl Fn(&V) -> bool,
    shed_at: impl Fn(&V) -> Option<u64>,
) {
    if book.len() <= cap {
        return;
    }
    book.retain(|_, v| keep(v));
    if book.len() <= cap {
        return;
    }
    // dharma-lint: allow(D3): collected then sorted by (time, key) — a total order
    let dated = book.iter().filter_map(|(k, v)| Some((shed_at(v)?, *k)));
    let mut oldest: Vec<(u64, Id160)> = dated.collect();
    oldest.sort_unstable();
    for (_, k) in oldest.into_iter().take(cap / 4) {
        book.remove(&k);
    }
}

impl KademliaNode {
    /// Creates a node with the given overlay id and transport address.
    pub fn new(id: Id160, addr: NodeAddr, cfg: KadConfig) -> Self {
        KademliaNode {
            contact: Contact { id, addr },
            routing: RoutingTable::new(id, cfg.k),
            storage: Storage::new(),
            cache: cfg.cache.clone().map(HotCache::new),
            popularity: cfg.replication.clone().map(PopularityEstimator::new),
            fresh: cfg.freshness.clone().map(FreshState::new),
            maint: MaintState::new(cfg.maintenance.as_ref()),
            latency: cfg.latency.clone().map(Latency::new),
            cfg,
            ops: FxHashMap::default(),
            pending: FxHashMap::default(),
            next_rpc: 1,
            next_op: 1,
            gets_served: 0,
            recent_writes: FxHashMap::default(),
            write_seq: 0,
        }
    }

    /// This node's contact record.
    pub fn contact(&self) -> &Contact {
        &self.contact
    }

    /// The routing table (read access for tests/diagnostics).
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Local storage (read access for tests/diagnostics).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// `FIND_VALUE` requests this node has received (GET load metric).
    pub fn gets_served(&self) -> u64 {
        self.gets_served
    }

    /// Every message is evidence of liveness: notes the sender and reports
    /// whether it entered a bucket with this very message. Exception: a
    /// peer that just announced its departure is tombstoned; its own
    /// out-of-order stragglers (a parting `Replicate` delivered after the
    /// `Leave`) must not re-insert it.
    fn note_sender(&mut self, now_us: u64, sender: &Contact) -> bool {
        !self.maint.recently_departed(&sender.id, now_us)
            && self.note_contact_latency_aware(sender.clone()) == NoteOutcome::Inserted
    }
}

impl Node for KademliaNode {
    type Output = KadOutput;

    fn on_start(&mut self, ctx: &mut Ctx<KadOutput>) {
        // Every periodic sweep arms with a deterministic phase jitter
        // (drawn from the node's forked RNG): a fleet configured and
        // started together must not fire its sweeps in lockstep, or every
        // interval boundary becomes a synchronized message burst (and the
        // repair suppression never gets to help).
        use rand::Rng;
        if let Some(interval) = self.cfg.republish_interval_us {
            let phase = ctx.rng.gen_range(0..interval.max(1));
            ctx.set_timer(interval + phase, TIMER_REPUBLISH);
        }
        if let Some(ttl) = self.cfg.record_ttl_us {
            let half = (ttl / 2).max(1);
            let phase = ctx.rng.gen_range(0..half);
            ctx.set_timer(half + phase, TIMER_EXPIRE);
        }
        if let Some(m) = self.cfg.maintenance.clone() {
            let probe_tick = m.probe_tick_us();
            let probe_phase = ctx.rng.gen_range(0..probe_tick);
            ctx.set_timer(probe_tick + probe_phase, TIMER_PROBE);
            let repair_tick = m.repair_tick_us();
            let repair_phase = ctx.rng.gen_range(0..repair_tick);
            ctx.set_timer(repair_tick + repair_phase, TIMER_REPAIR);
            if let Some(demote) = m.demote_interval_us {
                let demote_phase = ctx.rng.gen_range(0..demote.max(1));
                ctx.set_timer(demote + demote_phase, TIMER_DEMOTE);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<KadOutput>, _from: NodeAddr, payload: Bytes) {
        let Ok(msg) = Message::decode_datagram(payload, |rpc| self.wants_value(rpc)) else {
            return; // malformed datagram: drop silently, as UDP servers do
        };
        // Graceful departure: purge first, never note the sender as live.
        if let Message::Leave { from, .. } = &msg {
            return self.handle_leave(ctx.now_us, from);
        }
        let entered = self.note_sender(ctx.now_us, msg.sender());
        match msg {
            Message::Ping { rpc, from } => self.on_ping(ctx, rpc, &from),
            Message::Pong { rpc, from, digest } => self.on_pong(ctx, rpc, &from, &digest),
            Message::FindNode { rpc, from, target } => {
                self.reply_found_nodes(ctx, from.addr, rpc, &target);
                // A node joins by looking up its own id: that lookup, from
                // a sender this message entered, announces the join. The
                // reply goes first — the join must not queue behind the
                // transfer it triggers.
                if entered && target == from.id {
                    self.handoff_to(ctx, &from);
                }
            }
            Message::FindValue {
                rpc,
                from,
                key,
                top_n,
                no_cache,
            } => self.on_find_value(ctx, rpc, &from, key, top_n, no_cache),
            Message::FoundNodes {
                rpc,
                from,
                contacts,
                digest,
            } => self.on_found_nodes(ctx, rpc, from, contacts, &digest),
            // Messages that carry a value body are handed over whole.
            Message::FoundValue { .. } => self.on_found_value(ctx, msg),
            Message::Store { .. } | Message::Append { .. } | Message::Replicate { .. } => {
                self.on_write(ctx, msg)
            }
            Message::CachePush { .. } => self.on_cache_push(ctx.now_us, msg),
            Message::InvalidatePush { .. } => self.on_invalidate_push(ctx, msg),
            Message::Ack { rpc, from } => self.on_ack(ctx, rpc, &from.id),
            Message::Leave { .. } => unreachable!("handled before the sender is noted"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<KadOutput>, id: u64) {
        match id {
            TIMER_REPUBLISH => {
                self.republish_all(ctx);
                if let Some(interval) = self.cfg.republish_interval_us {
                    ctx.set_timer(interval, TIMER_REPUBLISH);
                }
            }
            TIMER_EXPIRE => {
                if let Some(ttl) = self.cfg.record_ttl_us {
                    self.storage.expire(ctx.now_us, ttl);
                    self.forget_unheld_news();
                    ctx.set_timer(ttl / 2, TIMER_EXPIRE);
                }
            }
            TIMER_PROBE => self.probe_timer(ctx),
            TIMER_REPAIR => self.repair_timer(ctx),
            TIMER_DEMOTE => self.demote_timer(ctx),
            // Every other timer id is an RPC id.
            rpc => self.on_timeout(ctx, rpc),
        }
    }
}

impl Instrumented for KademliaNode {
    /// Operator-facing gauges, surfaced by real runtimes (the ROADMAP's
    /// "CacheStats through the UDP runtime" item): storage/routing
    /// occupancy, GET load, full cache statistics, and the popularity
    /// tracker's state.
    fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            Metric::new("storage_keys", self.storage.len() as f64),
            Metric::new("routing_contacts", self.routing.len() as f64),
            Metric::new("gets_served", self.gets_served as f64),
        ];
        if let Some(cache) = &self.cache {
            let s = cache.stats();
            out.push(Metric::new("cache_len", cache.len() as f64));
            out.push(Metric::new("cache_hits", s.hits as f64));
            out.push(Metric::new("cache_misses", s.misses as f64));
            out.push(Metric::new("cache_insertions", s.insertions as f64));
            out.push(Metric::new("cache_rejected", s.rejected as f64));
            out.push(Metric::new("cache_evictions", s.evictions as f64));
            out.push(Metric::new("cache_expirations", s.expirations as f64));
            out.push(Metric::new("cache_invalidations", s.invalidations as f64));
        }
        if let Some(pop) = &self.popularity {
            out.push(Metric::new("popularity_tracked", pop.tracked() as f64));
        }
        if let Some(f) = &self.fresh {
            out.push(Metric::new("fresh_versions_known", f.book.len() as f64));
            out.push(Metric::new(
                "fresh_keys_with_history",
                f.hits.tracked() as f64,
            ));
        }
        if let Some(book) = self.rtt() {
            out.push(Metric::new("rtt_contacts", book.len() as f64));
            out.push(Metric::new("rtt_samples", book.samples() as f64));
            if let Some(p50) = book.percentile_us(0.5) {
                out.push(Metric::new("rtt_p50_us", p50 as f64));
            }
            if let Some(p95) = book.percentile_us(0.95) {
                out.push(Metric::new("rtt_p95_us", p95 as f64));
            }
        }
        if let Some(l) = self.adaptive_alpha() {
            out.push(Metric::new("lookup_alpha", l.last_alpha as f64));
        }
        out
    }
}

#[cfg(test)]
mod testutil;

#[cfg(test)]
mod tests {
    use dharma_cache::{CacheConfig, FreshConfig, PopularityConfig};
    use dharma_net::{SimConfig, SimNet};
    use dharma_types::sha1;

    use super::testutil::{build_overlay, sim_cfg, test_cfg};
    use super::*;
    use crate::rtt::LatencyConfig;

    #[test]
    fn periodic_timers_arm_with_phase_jitter() {
        let cfg = KadConfig {
            republish_interval_us: Some(1_000_000),
            record_ttl_us: Some(2_000_000),
            ..KadConfig::default()
        };
        let fire = |fork_seed: u64| -> Vec<(u64, u64)> {
            let mut node = KademliaNode::new(sha1(b"jitter"), 0, cfg.clone());
            let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, fork_seed);
            node.on_start(&mut ctx);
            let (_, timers, _) = ctx.into_effects();
            timers
        };
        let a = fire(1);
        let b = fire(2);
        for timers in [&a, &b] {
            for &(delay, id) in timers.iter() {
                let base = match id {
                    TIMER_REPUBLISH => 1_000_000,
                    TIMER_EXPIRE => 1_000_000, // ttl / 2
                    other => panic!("unexpected timer {other}"),
                };
                assert!(
                    (base..2 * base).contains(&delay),
                    "timer {id} delay {delay} outside [{base}, {})",
                    2 * base
                );
            }
        }
        assert_ne!(a, b, "different RNG forks must desynchronize the sweeps");
        assert_eq!(fire(3), fire(3), "a fixed fork stays deterministic");
    }

    #[test]
    fn republish_timer_reschedules() {
        let mut net = SimNet::new(SimConfig {
            latency_min_us: 1_000,
            latency_max_us: 5_000,
            drop_rate: 0.0,
            mtu: 64 * 1024,
            seed: 22,
            shards: 1,
            topology: None,
        });
        let cfg = KadConfig {
            republish_interval_us: Some(1_000_000),
            ..KadConfig::default()
        };
        net.add_node(KademliaNode::new(sha1(b"solo"), 0, cfg));
        // Several republish ticks fire on a single node without panicking
        // (empty storage, no peers — the degenerate but legal case). The
        // first tick lands within [interval, 2·interval) — phase jitter —
        // and every subsequent one exactly an interval later.
        net.run_until(10_500_000);
        assert!(net.counters().timers_fired() >= 8);
    }

    /// Every per-RPC book stays backed by a live timer: under loss and
    /// crashes, with every layer on, nothing is left behind in `pending`,
    /// `ops`, `probing` or `revalidating` once its RPC was answered or
    /// timed out.
    #[test]
    fn rpc_books_drain_under_loss_and_crashes_with_every_layer_on() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let layers = |maintenance: bool| KadConfig {
            rpc_timeout_us: 300_000,
            cache: Some(CacheConfig {
                capacity: 64,
                ttl_us: 4_000_000,
            }),
            replication: Some(PopularityConfig {
                hot_threshold: 3.0,
                promote_cooldown_us: 1_000,
                ..PopularityConfig::default()
            }),
            maintenance: maintenance.then(|| MaintConfig {
                adaptive: Some(AdaptConfig {
                    probe_min_us: 500_000,
                    probe_max_us: 2_000_000,
                    repair_min_us: 1_000_000,
                    repair_max_us: 4_000_000,
                    ..AdaptConfig::default()
                }),
                demote_interval_us: Some(5_000_000),
                ..MaintConfig::default()
            }),
            freshness: Some(
                FreshConfig::builder()
                    .push_on_write(true)
                    .refresh_age_us(1_000_000)
                    .max_serve_age_us(3_000_000)
                    .build()
                    .expect("valid"),
            ),
            latency: Some(LatencyConfig::default()),
            ..test_cfg(4)
        };
        for maintenance in [true, false] {
            let sim = SimConfig {
                drop_rate: 0.05,
                ..sim_cfg(if maintenance { 91 } else { 92 })
            };
            let (mut net, _) = build_overlay(sim, 24, layers(maintenance));
            let mut rng = StdRng::seed_from_u64(17);
            let keys: Vec<Id160> = (0..10u8).map(|i| sha1(&[b'k', i])).collect();
            for i in 0..400u32 {
                if i == 130 || i == 260 {
                    net.crash(if i == 130 { 5 } else { 17 });
                }
                let addr = rng.gen_range(0..24u32);
                if !net.is_alive(addr) {
                    continue;
                }
                // Skewed toward the first keys, so some run hot.
                let key = keys[rng.gen_range(0..10usize) * rng.gen_range(0..10usize) / 10];
                net.with_node(addr, |n, ctx| match i % 3 {
                    0 => n.append(ctx, key, "tag", 1),
                    _ => n.get(ctx, key, 5),
                });
                net.run_until(net.now_us() + 25_000);
                if maintenance {
                    assert_books_backed(&net);
                }
            }
            // Stop issuing; outwait every RPC an operation can still own: a
            // lookup's branches, then a write's replica phase.
            if maintenance {
                net.run_until(net.now_us() + 5_000_000);
                assert_books_backed(&net);
            } else {
                net.run_until_idle(10_000_000);
            }
            // The run must have given every book something to leak.
            let c = net.node(0).cfg.counters.clone();
            assert!(net.counters().dropped() > 100 && c.alpha_widened() > 0);
            assert!(c.probes_sent() > 0 && c.revalidations() > 0 && c.invalidate_pushes() > 0);
            let idle = !maintenance;
            for a in (0..24u32).filter(|&a| net.is_alive(a)) {
                let n = net.node(a);
                assert!(n.ops.is_empty(), "node {a} still runs {:?}", n.ops.keys());
                if idle {
                    // No periodic timer, no event left: nothing may remain.
                    assert!(n.pending.is_empty(), "node {a}: {:?}", n.pending);
                    assert!(n.maint.probing.is_empty(), "node {a} probing");
                    assert!(n.fresh.as_ref().unwrap().revalidating.is_empty());
                }
            }
        }
    }

    /// With periodic probes and repair pushes in flight at any instant,
    /// the books are never all empty — but every entry must be owned by an
    /// RPC whose timer has yet to fire.
    fn assert_books_backed(net: &SimNet<KademliaNode>) {
        let now = net.now_us();
        for a in (0..net.len() as u32).filter(|&a| net.is_alive(a)) {
            let n = net.node(a);
            for (rpc, pend) in &n.pending {
                assert!(
                    now - pend.sent_at_us <= pend.timeout_us,
                    "node {a}: rpc {rpc} outlived its timer: {pend:?} at {now}"
                );
            }
            let pending_under = |op: u64| n.pending.values().filter(move |p| p.op == op);
            for id in &n.maint.probing {
                let mut probes = pending_under(rpc::PROBE_OP);
                assert!(probes.any(|p| p.to.id == *id), "node {a}: stray probe mark");
            }
            for rpc in n.fresh.as_ref().unwrap().revalidating.keys() {
                let owner = n.pending.get(rpc).map(|p| p.op);
                assert_eq!(owner, Some(rpc::REFRESH_OP), "node {a}: stray refresh");
            }
        }
    }
}
