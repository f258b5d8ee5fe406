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
//! Every received message refreshes the sender in the routing table; every
//! RPC timeout marks the silent contact suspect — by default it is *probed*
//! with a `PING` and evicted only when the probe also fails
//! (ping-before-evict, §2.2 of the Kademlia paper; set
//! [`KadConfig::ping_before_evict`] to `false` for the old
//! evict-on-first-timeout behavior). Bucket refresh for idle buckets is
//! exposed as [`KademliaNode::refresh_bucket`] for long-running deployments.
//!
//! **Churn maintenance** ([`MaintConfig`], the `dharma-maint` subsystem)
//! turns the timer path into a full self-healing loop:
//!
//! * a **liveness probe** sweep walks the buckets round-robin and pings the
//!   least-recently-seen contact; a failed probe evicts it and promotes the
//!   freshest replacement-cache entry;
//! * **join-time key handoff** — when a *new* contact enters a bucket, the
//!   node pushes it a [`Message::Replicate`] snapshot of every held key the
//!   newcomer is now among the `k` closest for (the Kademlia §2.5 rule);
//! * a **repair sweep** re-pushes every held key to its current `k` closest
//!   nodes, restoring replicas lost to departures. An incoming `Replicate`
//!   for a key suppresses the local re-push for one interval, so a healthy
//!   replica set costs ~`k` datagrams per key per interval, not `k²`;
//! * a **demotion sweep** reclaims beyond-`k` replicas once their
//!   popularity has decayed (always treated as cold when adaptive
//!   replication is off), re-pushing the snapshot to the authoritative
//!   `k` before dropping it locally. Besides reclaiming space, this is
//!   what keeps repair traffic bounded: without it every node that was
//!   *ever* in a key's replica set keeps the record and keeps re-pushing
//!   it each repair interval.
//!
//! Repaired replicas arrive via `Replicate`, whose handler invalidates every
//! cached view of the key — so repair composes with the PR-2 cache rules and
//! never resurrects a stale cached view.
//!
//! **Adaptive cadence & graceful leave** ([`AdaptConfig`], the
//! `dharma-adapt` subsystem) make maintenance cost a function of *measured*
//! churn instead of a constant tax:
//!
//! * each node keeps a decayed **departure-rate estimate** fed by failed
//!   probes, timeout evictions, and received [`Message::Leave`] notices;
//!   probe/repair intervals scale linearly between configured min/max
//!   bounds as the estimate moves — a quiet overlay coasts, a churning one
//!   tightens within one min-tick;
//! * repair passes are **budgeted**: at most `repair_budget` keys per tick,
//!   with a carry-over cursor in key order so coverage stays complete;
//! * a departing node can [`KademliaNode::leave`] **gracefully**: it pushes
//!   a parting `Replicate` snapshot of every held key to the `k` closest
//!   nodes (the replica set is whole before it goes) and sends `Leave`
//!   notices that purge it from receivers' routing tables immediately —
//!   no probe round, no timeout storm — with a short tombstone so
//!   in-flight stragglers cannot re-insert the corpse.
//!
//! When [`KadConfig::record_ttl_us`] is set, every maintenance push (and
//! every incoming `Replicate` merge) is gated on the record's remaining
//! TTL, so repair never resurrects a record that already expired locally.
//!
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
//!   hops on repeat keys and steering load off authoritative holders.

use bytes::{Bytes, BytesMut};

use dharma_cache::{
    CacheConfig, CacheStats, FetcherBook, FreshConfig, FreshnessBook, HitHistory, HotCache,
    PopularityConfig, PopularityEstimator,
};
use dharma_net::{Ctx, Instrumented, Metric, NetCounters, Node, NodeAddr};
use dharma_types::{FxHashMap, FxHashSet, Id160, VersionStamp, WireEncode};

use crate::lookup::LookupState;
use crate::messages::{
    put_found_value_head, put_found_value_tail, Contact, DigestEntry, FetchedValue, Message,
    StoredEntry,
};
use crate::routing::RoutingTable;
use crate::rtt::{AlphaController, LatencyConfig, RttBook};
use crate::storage::{FilteredRead, Storage};

/// Churn-adaptive maintenance cadence (the `dharma-adapt` subsystem):
/// instead of fixed probe/repair intervals, each node keeps a decayed
/// estimate of the departure rate it *observes* — failed liveness probes,
/// contacts evicted on RPC timeouts, and received [`Message::Leave`]
/// notices — and scales its maintenance cadence between the configured
/// bounds: a quiet overlay coasts at the `*_max_us` intervals, a churning
/// one tightens toward `*_min_us`. This is the DHT survey's
/// cost/availability dial made local: maintenance cost becomes a function
/// of measured churn instead of a constant tax.
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// Tightest liveness-probe cadence, µs (used when churn is at or above
    /// [`AdaptConfig::hot_weight`]). Also the tick the adaptive loop
    /// re-evaluates at, so cadence can tighten within one min-interval of
    /// churn rising instead of waiting out a long armed timer.
    pub probe_min_us: u64,
    /// Laziest liveness-probe cadence, µs (used at zero observed churn).
    pub probe_max_us: u64,
    /// Tightest repair-sweep cadence, µs.
    pub repair_min_us: u64,
    /// Laziest repair-sweep cadence, µs.
    pub repair_max_us: u64,
    /// Half-life of the departure-rate estimate, µs: how fast old
    /// departures stop counting.
    pub half_life_us: u64,
    /// Decayed departure weight at which the cadence pins to the `min`
    /// bounds; below it the intervals interpolate linearly toward `max`.
    pub hot_weight: f64,
    /// How much a received `Leave` notice counts toward the estimate,
    /// relative to a hard failure's 1.0. Graceful departures hand their
    /// keys off before going, so they put no data at risk — weighting them
    /// low is what lets an orderly overlay keep its lazy cadence.
    pub leave_weight: f64,
    /// Maximum keys processed per repair tick. A partial pass keeps a
    /// carry-over cursor and continues next tick, so coverage stays
    /// complete while any single tick's burst stays bounded. 0 = unbounded.
    pub repair_budget: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            probe_min_us: 2_000_000,   // 2 s
            probe_max_us: 10_000_000,  // 10 s
            repair_min_us: 15_000_000, // 15 s
            repair_max_us: 60_000_000, // 60 s
            half_life_us: 30_000_000,  // 30 s
            hot_weight: 10.0,
            leave_weight: 0.1,
            repair_budget: 16,
        }
    }
}

/// Churn-maintenance parameters (the `dharma-maint` subsystem). `None` in
/// [`KadConfig::maintenance`] disables the whole loop — the node then
/// behaves exactly like the pre-maintenance protocol, which is what the
/// static paper-reproduction experiments run.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct MaintConfig {
    /// Liveness-probe cadence, µs: each tick pings the least-recently-seen
    /// contact of the next non-empty bucket (round-robin). Ignored when
    /// [`MaintConfig::adaptive`] is set (the estimator drives the cadence
    /// between its own bounds).
    pub probe_interval_us: u64,
    /// Repair-sweep cadence, µs: each tick re-pushes held keys to their
    /// current `k` closest nodes (suppressed per key for one interval after
    /// an incoming `Replicate`, so only one holder pays per round).
    /// Ignored when [`MaintConfig::adaptive`] is set.
    pub repair_interval_us: u64,
    /// Join-time key handoff: push held records to a newly-learned contact
    /// that is now among the `k` closest for them.
    pub join_handoff: bool,
    /// Demotion-sweep cadence, µs (`None` = off): reclaim beyond-`k`
    /// replicas whose popularity has decayed (the adaptive-replication
    /// counterpart of promotion). Demotion also bounds repair traffic:
    /// without it, a holder that membership turnover pushed out of a
    /// key's `k` closest keeps the record — and keeps re-pushing it every
    /// repair interval — forever.
    pub demote_interval_us: Option<u64>,
    /// Churn-adaptive cadence (`None` = the fixed intervals above): scale
    /// probe/repair intervals from the observed departure rate and budget
    /// repair work per tick. See [`AdaptConfig`].
    pub adaptive: Option<AdaptConfig>,
}

impl Default for MaintConfig {
    fn default() -> Self {
        MaintConfig {
            probe_interval_us: 5_000_000,   // 5 s
            repair_interval_us: 30_000_000, // 30 s
            join_handoff: true,
            demote_interval_us: Some(60_000_000), // 60 s
            adaptive: None,
        }
    }
}

impl MaintConfig {
    /// A range-validated builder starting from [`MaintConfig::default()`].
    pub fn builder() -> MaintConfigBuilder {
        MaintConfigBuilder {
            cfg: MaintConfig::default(),
        }
    }

    /// The tick the probe timer re-arms at: the adaptive loop re-evaluates
    /// every `probe_min_us` (doing work only when the current estimated
    /// interval has elapsed); the fixed loop ticks at its one interval.
    fn probe_tick_us(&self) -> u64 {
        self.adaptive
            .as_ref()
            .map(|a| a.probe_min_us)
            .unwrap_or(self.probe_interval_us)
            .max(1)
    }

    /// The tick the repair timer re-arms at (see [`Self::probe_tick_us`]).
    fn repair_tick_us(&self) -> u64 {
        self.adaptive
            .as_ref()
            .map(|a| a.repair_min_us)
            .unwrap_or(self.repair_interval_us)
            .max(1)
    }
}

/// Builder for [`MaintConfig`] with validated ranges ([`MaintConfig::builder()`]).
#[derive(Clone, Debug)]
pub struct MaintConfigBuilder {
    cfg: MaintConfig,
}

macro_rules! maint_setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, v: $ty) -> Self {
            self.cfg.$name = v;
            self
        }
    };
}

impl MaintConfigBuilder {
    maint_setter!(
        /// See [`MaintConfig::probe_interval_us`].
        probe_interval_us: u64
    );
    maint_setter!(
        /// See [`MaintConfig::repair_interval_us`].
        repair_interval_us: u64
    );
    maint_setter!(
        /// See [`MaintConfig::join_handoff`].
        join_handoff: bool
    );
    maint_setter!(
        /// See [`MaintConfig::demote_interval_us`].
        demote_interval_us: Option<u64>
    );
    maint_setter!(
        /// See [`MaintConfig::adaptive`].
        adaptive: Option<AdaptConfig>
    );

    /// Validates ranges and produces the config. Errors name the bad knob.
    pub fn build(self) -> Result<MaintConfig, String> {
        let c = &self.cfg;
        if c.probe_interval_us == 0 {
            return Err("probe_interval_us must be positive".into());
        }
        if c.repair_interval_us == 0 {
            return Err("repair_interval_us must be positive".into());
        }
        if c.demote_interval_us == Some(0) {
            return Err("demote_interval_us must be positive when set".into());
        }
        if let Some(a) = &c.adaptive {
            if a.probe_min_us == 0 || a.probe_min_us > a.probe_max_us {
                return Err(format!(
                    "adaptive probe bounds {}..{} invalid: need 0 < min <= max",
                    a.probe_min_us, a.probe_max_us
                ));
            }
            if a.repair_min_us == 0 || a.repair_min_us > a.repair_max_us {
                return Err(format!(
                    "adaptive repair bounds {}..{} invalid: need 0 < min <= max",
                    a.repair_min_us, a.repair_max_us
                ));
            }
        }
        Ok(self.cfg)
    }
}

/// Exponentially-decayed departure counter: the per-node churn estimate
/// behind [`AdaptConfig`]. `record` adds an event's weight after decaying
/// what is already there; `weight` reads the current decayed total.
#[derive(Clone, Debug)]
struct ChurnEstimator {
    weight: f64,
    at_us: u64,
    half_life_us: u64,
}

impl ChurnEstimator {
    fn new(half_life_us: u64) -> Self {
        ChurnEstimator {
            weight: 0.0,
            at_us: 0,
            half_life_us: half_life_us.max(1),
        }
    }

    fn decayed(&self, now_us: u64) -> f64 {
        let dt = now_us.saturating_sub(self.at_us) as f64;
        self.weight * 0.5f64.powf(dt / self.half_life_us as f64)
    }

    fn record(&mut self, now_us: u64, event_weight: f64) {
        self.weight = self.decayed(now_us) + event_weight;
        self.at_us = self.at_us.max(now_us);
    }

    fn weight(&self, now_us: u64) -> f64 {
        self.decayed(now_us)
    }
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct KadConfig {
    /// Bucket size and replication factor (the paper's `k`, default 20).
    pub k: usize,
    /// Lookup parallelism (`α`, default 3).
    pub alpha: usize,
    /// Per-RPC timeout in microseconds (default 1 s).
    pub rpc_timeout_us: u64,
    /// Byte budget for the entry list of one `FoundValue` reply — keeps the
    /// datagram under the transport MTU (default 1200).
    pub reply_budget: usize,
    /// Republish interval in µs (`None` = disabled, the default — the
    /// experiments replay static workloads where republish traffic would
    /// only add noise). When set, every held key is periodically pushed to
    /// its `k` closest nodes with idempotent merge-max semantics.
    pub republish_interval_us: Option<u64>,
    /// Record time-to-live in µs (`None` = keep forever). Values not
    /// written or re-replicated within the TTL are dropped.
    pub record_ttl_us: Option<u64>,
    /// Hot-block caching (`None` = disabled, the default): per-node
    /// TinyLFU cache of filtered reads, serving `FIND_VALUE` misses, a
    /// requester-local fast path, and the store-on-path `CachePush` rule.
    /// Disabled nodes behave byte-identically to the pre-cache protocol.
    pub cache: Option<CacheConfig>,
    /// Popularity-driven adaptive replication (`None` = disabled):
    /// authoritative holders track per-key GET rates and push idempotent
    /// replica snapshots beyond the base `k` when a key runs hot.
    pub replication: Option<PopularityConfig>,
    /// Ping-before-evict (default `true`, the Kademlia paper's rule): an
    /// RPC timeout sends a liveness probe to the suspect instead of
    /// evicting it outright; only a failed probe evicts (and promotes from
    /// the bucket's replacement cache). `false` restores the old
    /// evict-on-first-timeout policy — cheaper, but one lost datagram can
    /// drop a live contact.
    pub ping_before_evict: bool,
    /// Churn maintenance loop (`None` = disabled, the default): liveness
    /// probes, join-time key handoff, failure-driven re-replication, and
    /// replica demotion. See [`MaintConfig`].
    pub maintenance: Option<MaintConfig>,
    /// Version gossip & cache-aware lookup routing (`None` = disabled,
    /// the default): piggybacked write-version digests, revalidation of
    /// gossip-stale cached views, TTL extension on fresh confirmations,
    /// and warm-peer lookup bias. Disabled nodes send empty digests and
    /// behave byte-identically to the TTL-only protocol. Most effective
    /// together with [`KadConfig::cache`].
    pub freshness: Option<FreshConfig>,
    /// Latency awareness (`None` = disabled, the default): decayed
    /// per-contact RTT estimation from RPC round trips, proximity neighbor
    /// selection on full buckets, latency-biased shortlist ordering, and
    /// adaptive lookup concurrency between `alpha_min` and `alpha_max`.
    /// Disabled nodes behave byte-identically to the latency-oblivious
    /// protocol. See [`LatencyConfig`].
    pub latency: Option<LatencyConfig>,
    /// Shared counters cache hits/misses and replica promotions are
    /// recorded into. Runtimes wire their own [`NetCounters`] here (the
    /// overlay builders do); the default is a private, unobserved set.
    pub counters: NetCounters,
}

impl Default for KadConfig {
    fn default() -> Self {
        KadConfig {
            k: 20,
            alpha: 3,
            rpc_timeout_us: 1_000_000,
            reply_budget: 1200,
            republish_interval_us: None,
            record_ttl_us: None,
            cache: None,
            replication: None,
            ping_before_evict: true,
            maintenance: None,
            freshness: None,
            latency: None,
            counters: NetCounters::new(),
        }
    }
}

/// Results delivered to clients when operations complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KadOutput {
    /// A node lookup finished with the `k` closest contacts found.
    Nodes(Vec<Contact>),
    /// A value lookup finished.
    Value {
        /// The value, or `None` if no storing node was found.
        value: Option<FetchedValue>,
        /// Messages this operation sent (diagnostics).
        messages: u32,
    },
    /// A write (STORE/APPEND) finished.
    Written {
        /// Acks received.
        acks: u32,
        /// Replicas targeted (including a local apply, which needs no ack).
        targets: u32,
        /// The origin stamp the write was issued under — the client's
        /// session token for read-your-writes consistency.
        stamp: VersionStamp,
    },
}

/// What a client operation is trying to do.
#[derive(Clone, Debug)]
enum OpKind {
    FindNodes,
    Get {
        top_n: u32,
        /// Refuse every cached view end-to-end (`no_cache` lookups): the
        /// session-consistency escalation path for reads whose served
        /// version fell below the client's session floor.
        fresh: bool,
    },
    PutBlob {
        blob: Vec<u8>,
    },
    Append {
        entries: Vec<StoredEntry>,
    },
    Replicate {
        blob: Option<Vec<u8>>,
        entries: Vec<StoredEntry>,
        /// The snapshot's existing origin stamp (republish/repair never
        /// mint a new version).
        stamp: VersionStamp,
    },
}

#[derive(Clone, Debug)]
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
    done: bool,
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

#[derive(Clone, Debug)]
struct PendingRpc {
    op: u64,
    to: Contact,
    /// When the request left this node — the RTT sample base for the reply.
    sent_at_us: u64,
    /// The timeout (µs) this attempt was armed with. Anything below the
    /// conservative `rpc_timeout_us` is an RTT-adaptive *early* timer:
    /// its firing means "stop waiting and retransmit", not "the peer is
    /// dead" — it must not evict from the routing table or feed the churn
    /// estimate.
    timeout_us: u64,
    /// When the *first* attempt of this branch left the node. Retransmits
    /// inherit it, so the branch's total patience stays bounded by
    /// `rpc_timeout_us` no matter how many early timers fired.
    first_sent_us: u64,
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

/// Sentinel operation id marking a pending RPC as a standalone liveness
/// probe (client operation ids count up from 1).
const PROBE_OP: u64 = 0;
/// Sentinel operation id for tracked maintenance `Replicate` pushes
/// (repair / handoff / demotion): the ack settles the RPC, a timeout runs
/// the standard suspect path, so a corpse in a replica set is discovered
/// by the first repair round instead of waiting for the probe cursor.
/// Client op ids count up from 1 and can never collide.
const REPAIR_OP: u64 = u64::MAX;
/// Sentinel operation id for version-gossip revalidation `FindValue`s
/// (direct refresh of a digest-stale cached view).
const REFRESH_OP: u64 = u64::MAX - 1;
/// Sentinel operation id for write-triggered `InvalidatePush` sends: the
/// ack settles the RPC, a timeout runs the standard suspect path (a
/// fetcher that went silent is probed like any other suspect).
const PUSH_OP: u64 = u64::MAX - 2;

/// How far beyond `k` a node may rank for a key and still be treated as
/// one of its holders by the graceful-leave handoff and the demotion
/// sweep: near the boundary the local view of the `k`-set may be slightly
/// off, and a small buffer of extra copies is a churn safety net.
const REPLICA_SLACK: usize = 2;

/// Bound on the digest news ring (recent effective local writes).
const NEWS_CAP: usize = 32;

/// Per-node state of the `dharma-fresh` subsystem (present when
/// [`KadConfig::freshness`] is set).
struct FreshState {
    /// The configuration in force (a copy of [`KadConfig::freshness`]).
    cfg: FreshConfig,
    /// Highest gossiped write-version per key — the monotone serving gate.
    book: FreshnessBook,
    /// Decayed per-peer hit history feeding cache-aware lookup routing.
    hits: HitHistory,
    /// Recent effective local writes, newest last — the digest's news
    /// section. Bounded by [`NEWS_CAP`].
    news: Vec<(Id160, u64)>,
    /// In-flight revalidations: rpc id → the `(key, top_n)` view being
    /// refreshed (routes the reply and dedups refreshes per key).
    revalidating: FxHashMap<u64, (Id160, u32)>,
    /// Holder-side recent-fetcher book: who to `InvalidatePush` when a
    /// held key takes a write (populated only when
    /// [`FreshConfig::push_on_write`] is set).
    fetchers: FetcherBook,
    /// Count of `push_invalidations` rounds sent — drives the 1-in-N
    /// liveness-sampling rotation for ack-tracked pushes.
    push_calls: u64,
}

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
    /// the write). Bounded by [`WRITE_GUARD_CAP`].
    recent_writes: FxHashMap<Id160, WriteGuard>,
    /// Bucket index where the next liveness-probe tick resumes.
    probe_cursor: usize,
    /// Contacts with an in-flight liveness probe (dedup: repeated timeouts
    /// against one suspect must not fan out repeated pings).
    probing: FxHashSet<Id160>,
    /// Per-key timestamp of the last *incoming* `Replicate` — the repair
    /// sweep's suppression state: a key another holder just repaired is
    /// skipped for one interval (the classic Kademlia republish
    /// optimization, §2.5). Pruned at the start of every repair pass.
    last_replicate_seen: FxHashMap<Id160, u64>,
    /// Decayed departure-rate estimate (`dharma-adapt`): fed by failed
    /// probes, timeout evictions, and received `Leave` notices; drives the
    /// adaptive maintenance cadence.
    churn: ChurnEstimator,
    /// Earliest time the next probe round may run (adaptive cadence: the
    /// timer ticks at `probe_min_us`, work happens when this is due).
    probe_due_us: u64,
    /// Earliest time the next repair pass may start.
    repair_due_us: u64,
    /// Carry-over cursor of a budgeted repair pass: the last key (in id
    /// order) already processed this pass. `None` = no pass in progress.
    repair_cursor: Option<Id160>,
    /// Recently-departed peers (id → when their `Leave` arrived): brief
    /// tombstones so in-flight stragglers — a late `FoundNodes` naming the
    /// leaver, its own parting `Replicate`s arriving out of order — cannot
    /// re-insert a corpse the `Leave` already purged.
    departed: FxHashMap<Id160, u64>,
    /// Version-gossip & hit-history state (`dharma-fresh`; present when
    /// `cfg.freshness` is set).
    fresh: Option<FreshState>,
    /// Decayed per-contact RTT estimates (present when `cfg.latency` is
    /// set; samples are recorded only then, keeping disabled nodes
    /// byte-identical to history).
    rtt: Option<RttBook>,
    /// The α the most recent adaptive-controller update settled on — an
    /// observability gauge (each lookup carries its own controller).
    last_alpha: usize,
    /// Lamport write clock: the highest stamp `seq` this node has observed
    /// anywhere (digests, replies, incoming writes). Minting a write stamp
    /// uses `observed + 1`, so a new write always orders above everything
    /// its coordinator causally saw.
    write_seq: u64,
}

/// How long a `Leave` tombstone blocks re-insertion of the departed id —
/// comfortably beyond any in-flight datagram + RPC timeout.
const DEPART_TOMBSTONE_US: u64 = 10_000_000;

/// Bound on tracked leave tombstones per node.
const DEPART_TOMBSTONE_CAP: usize = 1024;

/// Read-your-writes bookkeeping for one key (see
/// [`KademliaNode::note_written`]).
#[derive(Clone, Copy, Debug)]
struct WriteGuard {
    /// When the guard was last armed: the latest write issue or completion.
    armed_at_us: u64,
    /// Client write operations for the key currently in flight from this
    /// node. While positive, authoritative replies cannot disarm the guard
    /// (they may predate the write still travelling).
    inflight: u32,
}

/// Bound on tracked write guards per node.
const WRITE_GUARD_CAP: usize = 8192;

impl KademliaNode {
    /// Creates a node with the given overlay id and transport address.
    pub fn new(id: Id160, addr: NodeAddr, cfg: KadConfig) -> Self {
        let half_life = cfg
            .maintenance
            .as_ref()
            .and_then(|m| m.adaptive.as_ref())
            .map(|a| a.half_life_us)
            .unwrap_or(30_000_000);
        let fresh = cfg.freshness.clone().map(|f| FreshState {
            book: FreshnessBook::new(f.max_versions),
            hits: HitHistory::new(&f),
            news: Vec::new(),
            revalidating: FxHashMap::default(),
            fetchers: FetcherBook::new(f.max_tracked_keys, f.push_fanout.max(1), f.push_window_us),
            push_calls: 0,
            cfg: f,
        });
        let rtt = cfg
            .latency
            .as_ref()
            .map(|l| RttBook::new(l.rtt_half_life_us));
        let last_alpha = cfg
            .latency
            .as_ref()
            .filter(|l| l.adaptive_alpha)
            .map(|l| l.alpha_min.max(1))
            .unwrap_or(cfg.alpha);
        KademliaNode {
            contact: Contact { id, addr },
            routing: RoutingTable::new(id, cfg.k),
            storage: Storage::new(),
            cache: cfg.cache.clone().map(HotCache::new),
            popularity: cfg.replication.clone().map(PopularityEstimator::new),
            cfg,
            fresh,
            ops: FxHashMap::default(),
            pending: FxHashMap::default(),
            next_rpc: 1,
            next_op: 1,
            gets_served: 0,
            recent_writes: FxHashMap::default(),
            probe_cursor: 0,
            probing: FxHashSet::default(),
            last_replicate_seen: FxHashMap::default(),
            churn: ChurnEstimator::new(half_life),
            probe_due_us: 0,
            repair_due_us: 0,
            repair_cursor: None,
            departed: FxHashMap::default(),
            rtt,
            last_alpha,
            write_seq: 0,
        }
    }

    /// This node's contact record.
    pub fn contact(&self) -> &Contact {
        &self.contact
    }

    /// The per-contact RTT book (`None` when latency awareness is off).
    pub fn rtt(&self) -> Option<&RttBook> {
        self.rtt.as_ref()
    }

    /// The lookup parallelism most recently in effect: the latest per-op
    /// adaptive-controller reading when adaptive α is enabled, the
    /// configured constant otherwise.
    pub fn current_alpha(&self) -> usize {
        if self.adaptive_alpha() {
            self.last_alpha
        } else {
            self.cfg.alpha
        }
    }

    /// True when per-lookup adaptive α is enabled.
    fn adaptive_alpha(&self) -> bool {
        self.cfg.latency.as_ref().is_some_and(|l| l.adaptive_alpha)
    }

    /// How long a lookup query to `peer` may stay unanswered: β × the
    /// smoothed RTT when adaptive timeouts are on and the peer is
    /// measured (clamped to `rto_min_us ..= rpc_timeout_us`), the global
    /// conservative timeout otherwise. Maintenance RPCs never use this —
    /// their timeouts confirm death, and a hair-trigger there would evict
    /// live contacts.
    fn rpc_timeout_for(&self, peer: &Id160) -> u64 {
        if let (Some(l), Some(book)) = (self.cfg.latency.as_ref(), self.rtt.as_ref()) {
            if l.adaptive_timeout {
                if let Some(srtt) = book.estimate_us(peer) {
                    let rto = (srtt as f64 * l.rto_beta) as u64;
                    return rto.clamp(
                        l.rto_min_us.min(self.cfg.rpc_timeout_us),
                        self.cfg.rpc_timeout_us,
                    );
                }
            }
        }
        self.cfg.rpc_timeout_us
    }

    /// True when latency-biased shortlist ordering is enabled.
    fn bias_shortlist(&self) -> bool {
        self.cfg.latency.as_ref().is_some_and(|l| l.bias_shortlist)
    }

    /// Settles one request/response round trip: folds the RTT sample into
    /// the book and credits the adaptive-α controller's clean streak.
    /// No-op without latency awareness, keeping history byte-identical.
    fn note_rpc_settled(&mut self, pend: &PendingRpc, now_us: u64) {
        if let Some(book) = self.rtt.as_mut() {
            book.observe(pend.to.id, now_us.saturating_sub(pend.sent_at_us), now_us);
            self.cfg.counters.record_rtt_sample();
        }
        if let Some(op) = self.ops.get_mut(&pend.op) {
            if let Some(ctl) = op.alpha_ctl.as_mut() {
                if ctl.on_clean_reply() {
                    self.cfg.counters.record_alpha_narrowed();
                }
                op.lookup.set_alpha(ctl.current());
                self.last_alpha = ctl.current();
            }
        }
    }

    /// Notes contact activity with proximity neighbor selection when
    /// enabled (a full bucket swaps its slowest measured resident for a
    /// measurably faster newcomer), falling back to the classic rule.
    fn note_contact_latency_aware(&mut self, c: Contact) -> crate::routing::NoteOutcome {
        let pns = self.cfg.latency.as_ref().is_some_and(|l| l.pns);
        match (&self.rtt, pns) {
            (Some(book), true) => {
                let (outcome, demoted) =
                    self.routing.note_contact_pns(c, &|id| book.estimate_us(id));
                if demoted {
                    self.cfg.counters.record_pns_eviction();
                }
                outcome
            }
            _ => self.routing.note_contact(c),
        }
    }

    /// Whether the blob and entries of a `FoundValue` answering `rpc`
    /// will be read: it revalidates a cached view, or it is the first
    /// value to reach a GET still in flight. Everything else — a second
    /// or third holder's answer, a reply to a finished or forgotten
    /// lookup — settles its RPC and feeds liveness, RTT and gossip from
    /// the reply's other fields alone.
    fn wants_value(&self, rpc: u64) -> bool {
        self.pending.get(&rpc).is_some_and(|pend| {
            let live_get = |op: &OpState| !op.done && matches!(op.kind, OpKind::Get { .. });
            pend.op == REFRESH_OP || self.ops.get(&pend.op).is_some_and(live_get)
        })
    }

    /// The routing table (read access for tests/diagnostics).
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Local storage (read access for tests/diagnostics).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Hot-block cache statistics (`None` when caching is disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(HotCache::stats)
    }

    /// `FIND_VALUE` requests this node has received (GET load metric).
    pub fn gets_served(&self) -> u64 {
        self.gets_served
    }

    /// The popularity estimator (`None` when adaptive replication is off).
    pub fn popularity(&self) -> Option<&PopularityEstimator> {
        self.popularity.as_ref()
    }

    /// Applies a local write's cache consequences: every cached view of
    /// `key` on this node is dropped, so the next read observes the write
    /// (read-your-writes for the writer; remote staleness is TTL-bounded).
    fn invalidate_cached(&mut self, key: &Id160) {
        if let Some(cache) = &mut self.cache {
            cache.invalidate_key(key);
        }
    }

    /// Stamps a client-issued write: drops this node's cached views of the
    /// key and arms (or re-arms) its read-your-writes guard, so GETs
    /// refuse possibly-stale cached replies while the write is in flight
    /// and for up to one cache TTL after.
    fn note_written(&mut self, key: Id160, now_us: u64) {
        if self.cache.is_none() {
            return;
        }
        self.invalidate_cached(&key);
        let guard = self.recent_writes.entry(key).or_insert(WriteGuard {
            armed_at_us: now_us,
            inflight: 0,
        });
        guard.armed_at_us = now_us;
        guard.inflight += 1;
        if self.recent_writes.len() > WRITE_GUARD_CAP {
            let ttl = self.write_guard_ttl_us();
            self.recent_writes
                .retain(|_, g| g.inflight > 0 || now_us.saturating_sub(g.armed_at_us) <= ttl);
            if self.recent_writes.len() > WRITE_GUARD_CAP {
                // A writer touching more distinct keys than the cap within
                // one TTL: shed the oldest idle quarter. Those keys lose
                // their guard early (their next read may be a cached view
                // predating the write by < TTL) — the bounded-staleness
                // floor every non-writer already lives with.
                // dharma-lint: allow(D3): collected then sorted by (armed_at, key) — a total order
                let mut idle: Vec<(Id160, u64)> = self
                    .recent_writes
                    .iter()
                    .filter(|(_, g)| g.inflight == 0)
                    .map(|(k, g)| (*k, g.armed_at_us))
                    .collect();
                // Ties on the timestamp are broken by key: sorting by
                // `armed_at` alone would pick victims in hash order.
                idle.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
                for (k, _) in idle.into_iter().take(WRITE_GUARD_CAP / 4) {
                    self.recent_writes.remove(&k);
                }
            }
        }
    }

    /// Marks one in-flight write for `key` as finished: re-stamps the
    /// guard (a GET that raced the write may have cached a pre-write view
    /// in the meantime — dropped here) and releases the in-flight hold.
    fn note_write_done(&mut self, key: Id160, now_us: u64) {
        if self.cache.is_none() {
            return;
        }
        self.invalidate_cached(&key);
        if let Some(guard) = self.recent_writes.get_mut(&key) {
            guard.armed_at_us = now_us;
            guard.inflight = guard.inflight.saturating_sub(1);
        }
    }

    /// How long a completed write keeps forcing authoritative reads: the
    /// cache TTL (beyond it, no still-servable cached view can predate the
    /// write — cached views are only ever minted from authoritative reads,
    /// so their age is bounded by one TTL).
    fn write_guard_ttl_us(&self) -> u64 {
        self.cfg.cache.as_ref().map(|c| c.ttl_us).unwrap_or(0)
    }

    /// True when `key`'s read-your-writes guard is armed: a write is in
    /// flight, or one completed within the last cache TTL.
    fn recently_wrote(&self, key: &Id160, now_us: u64) -> bool {
        self.cache.is_some()
            && self
                .recent_writes
                .get(key)
                .map(|g| {
                    g.inflight > 0
                        || now_us.saturating_sub(g.armed_at_us) <= self.write_guard_ttl_us()
                })
                .unwrap_or(false)
    }

    // ----- version gossip & cache-aware routing (`dharma-fresh`) -------

    /// Folds an observed origin stamp into the Lamport write clock.
    fn observe_stamp(&mut self, stamp: VersionStamp) {
        self.write_seq = self.write_seq.max(stamp.seq);
    }

    /// Mints the origin stamp for a client write this node coordinates:
    /// above everything observed — the write clock, the key's local
    /// stored stamp, and the highest gossiped stamp for the key — so the
    /// new write orders above every version its coordinator could know of.
    ///
    /// The clock is hybrid-logical: the mint also folds in the current
    /// time (µs), so two coordinators that have *not* observed each other
    /// still mint distinct, time-ordered sequence numbers. A pure Lamport
    /// mint can collide under concurrent writers (`observed + 1` on the
    /// same floor), and the losing write would merge its content into
    /// holders without advancing their reported version — gossip digests
    /// would then keep *confirming* cached views that are missing it.
    fn mint_stamp(&mut self, key: &Id160, now_us: u64) -> VersionStamp {
        let gossiped = self
            .fresh
            .as_ref()
            .and_then(|f| f.book.highest(key))
            .map(|s| s.seq)
            .unwrap_or(0);
        let floor = self
            .write_seq
            .max(self.storage.stamp(key).seq)
            .max(gossiped);
        self.write_seq = (floor + 1).max(now_us);
        VersionStamp::new(self.write_seq, self.contact.id)
    }

    /// Write-triggered invalidation push: after a write raised `key`'s
    /// stored stamp, send the key's recent fetchers the post-write view
    /// directly (bounded fan-out), re-filtered to each fetcher's recorded
    /// width, so their cached slot is refreshed in one RTT — no
    /// drop-then-revalidate round trip. `exclude` suppresses the push to
    /// the write's own sender (it already knows the version it just
    /// wrote). Each push is tracked under [`PUSH_OP`] like a maintenance
    /// RPC.
    fn push_invalidations(
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
        // One filtered read per distinct width, not per fetcher: a hot
        // key's fetchers nearly all asked for the same `top_n`.
        let mut reads: Vec<(u32, FilteredRead)> = Vec::new();
        for (i, &(id, addr, top_n)) in targets.iter().enumerate() {
            let read = match reads.iter().find(|(n, _)| *n == top_n) {
                Some((_, read)) => read.clone(),
                None => {
                    // The key was just written, so the read can only miss
                    // if it raced an expiry sweep — in which case there is
                    // nothing left to push.
                    let Some(read) = self
                        .storage
                        .read_filtered(&key, top_n, self.cfg.reply_budget)
                    else {
                        return;
                    };
                    if targets[i + 1..].iter().any(|t| t.2 == top_n) {
                        reads.push((top_n, read.clone()));
                    }
                    read
                }
            };
            // Liveness sampling: every third push round, the first (most
            // recent) target is tracked like REPAIR_OP — its ack feeds the
            // RTT estimator and its timeout evicts the fetcher from the
            // book. Everything else goes unacked (`rpc == 0`):
            // invalidation is loss-tolerant by contract (the gossip
            // cadence backstops a lost push), so acking every duplicate
            // would double the push overhead for no freshness gain.
            let tracked = i == 0 && round % 3 == 0;
            let rpc = if tracked {
                let rpc = self.next_rpc;
                self.next_rpc += 1;
                rpc
            } else {
                0
            };
            self.cfg.counters.record_invalidate_pushes(1);
            ctx.send(
                addr,
                Message::InvalidatePush {
                    rpc,
                    from: self.contact.clone(),
                    key,
                    top_n,
                    blob: read.blob,
                    entries: read.entries,
                    truncated: read.truncated,
                    stamp,
                }
                .encode_to_bytes(),
            );
            if tracked {
                self.pending.insert(
                    rpc,
                    PendingRpc {
                        op: PUSH_OP,
                        to: Contact { id, addr },
                        sent_at_us: ctx.now_us,
                        timeout_us: self.cfg.rpc_timeout_us,
                        first_sent_us: ctx.now_us,
                    },
                );
                ctx.set_timer(self.cfg.rpc_timeout_us, rpc);
            }
        }
    }

    /// Records an effective local write into the digest's news ring:
    /// the next few replies this node sends will gossip the key's new
    /// write-version, so peers with cached views learn of it without
    /// waiting out their TTL.
    fn note_news(&mut self, key: Id160, now_us: u64) {
        let Some(f) = self.fresh.as_mut() else {
            return;
        };
        f.news.retain(|(k, _)| *k != key);
        f.news.push((key, now_us));
        if f.news.len() > NEWS_CAP {
            f.news.remove(0);
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
    fn likely_authoritative(&self, key: &Id160) -> bool {
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
    fn build_digest(&self, around: Option<&Id160>, now_us: u64) -> Vec<DigestEntry> {
        let Some(f) = &self.fresh else {
            return Vec::new();
        };
        let max = f.cfg.digest_max;
        if max == 0 || self.storage.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<DigestEntry> = Vec::new();
        let push = |out: &mut Vec<DigestEntry>, key: &Id160| {
            if out.len() < max && !out.iter().any(|e| e.key == *key) {
                // A copy this node no longer speaks for must not gossip:
                // its frozen stamp would confirm equally-stale views.
                if let Some(state) = self.storage.get(key) {
                    if self.likely_authoritative(key) {
                        out.push(DigestEntry {
                            key: *key,
                            version: state.version,
                        });
                    }
                }
            }
        };
        for (key, at) in f.news.iter().rev() {
            if now_us.saturating_sub(*at) <= f.cfg.news_window_us {
                push(&mut out, key);
            }
        }
        if let Some(pop) = self.popularity.as_ref().filter(|_| out.len() < max) {
            for key in pop.hottest(max, now_us) {
                push(&mut out, &key);
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
                    push(&mut out, &key);
                }
            }
        }
        out
    }

    /// Answers a `FIND_NODE` — or a `FIND_VALUE` this node has no servable
    /// value for — with its `k` closest contacts to `target` and a digest.
    fn reply_found_nodes(&self, ctx: &mut Ctx<KadOutput>, to: NodeAddr, rpc: u64, target: &Id160) {
        ctx.send(
            to,
            Message::FoundNodes {
                rpc,
                from: self.contact.clone(),
                contacts: self.routing.closest(target, self.cfg.k),
                digest: self.build_digest(Some(target), ctx.now_us),
            }
            .encode_to_bytes(),
        );
    }

    /// The monotone-freshness gate: may a cached view of `key` at
    /// `version` be served? False once any digest claimed a newer version.
    fn fresh_admits(&self, key: &Id160, version: VersionStamp) -> bool {
        self.fresh
            .as_ref()
            .map(|f| f.book.admits(key, version))
            .unwrap_or(true)
    }

    /// The full serving gate for an own cached view: the monotone version
    /// check plus the serve-age bar — a view neither confirmed nor
    /// refreshed within [`FreshConfig::max_serve_age_us`] is a miss even
    /// inside its TTL, which is what bounds the staleness window by the
    /// gossip cadence instead of the TTL.
    fn fresh_serves(&self, key: &Id160, top_n: u32, version: VersionStamp, now_us: u64) -> bool {
        let Some(f) = &self.fresh else {
            return true;
        };
        if !f.book.admits(key, version) {
            return false;
        }
        if f.cfg.max_serve_age_us > 0 {
            let age = self
                .cache
                .as_ref()
                .and_then(|c| c.age_of(&(*key, top_n), now_us))
                .unwrap_or(0);
            if age > f.cfg.max_serve_age_us {
                return false;
            }
        }
        true
    }

    /// Drops every cached view of `key` the freshness book now rejects
    /// (called when the gate refused a view this node was about to serve).
    /// Returns how many views were dropped.
    fn drop_gossip_stale(&mut self, key: &Id160) -> usize {
        let highest = self
            .fresh
            .as_ref()
            .and_then(|f| f.book.highest(key))
            .unwrap_or_default();
        let Some(cache) = &mut self.cache else {
            return 0;
        };
        let dropped = cache.invalidate_stale(key, highest).len();
        if dropped > 0 {
            self.cfg.counters.record_stale_drops(dropped as u64);
        }
        dropped
    }

    /// Absorbs a piggybacked digest from `from`: records every entry in
    /// the freshness book, then reconciles the cache — views the digest
    /// proves stale are dropped (and one variant revalidated with a direct
    /// `FindValue` to the sender, which is authoritative for digest keys),
    /// views it confirms current get their TTL clock restamped (bounded by
    /// [`FreshConfig::max_view_lifetime_us`]).
    fn absorb_digest(&mut self, ctx: &mut Ctx<KadOutput>, from: &Contact, digest: &[DigestEntry]) {
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
                // Authoritative holders reconcile through `Replicate`
                // merges, not gossip; only cached views are managed here.
                if storage.contains(&e.key) {
                    continue;
                }
                let Some(cache) = cache.as_mut() else {
                    continue;
                };
                let dropped = cache.invalidate_stale(&e.key, e.version);
                if dropped.is_empty() {
                    cache.confirm_fresh(&e.key, e.version, ctx.now_us, f.cfg.max_view_lifetime_us);
                    continue;
                }
                cfg.counters.record_stale_drops(dropped.len() as u64);
                // dharma-lint: allow(D3): `.any()` over an equality predicate is order-independent
                if f.cfg.revalidate_on_stale && !f.revalidating.values().any(|(k, _)| *k == e.key) {
                    refresh.push((e.key, dropped[0]));
                }
            }
        }
        for (key, top_n) in refresh {
            self.send_revalidation(ctx, from.clone(), key, top_n);
        }
    }

    /// One revalidation probe: a direct `FindValue` (authoritative-only —
    /// a cached view elsewhere could be exactly as stale as the one being
    /// checked) to `to`, tracked under [`REFRESH_OP`]. The reply re-pins
    /// the view; a timeout or a `FoundNodes` leaves things as they are.
    fn send_revalidation(&mut self, ctx: &mut Ctx<KadOutput>, to: Contact, key: Id160, top_n: u32) {
        let rpc = self.next_rpc;
        self.next_rpc += 1;
        self.cfg.counters.record_revalidation();
        if let Some(f) = self.fresh.as_mut() {
            f.revalidating.insert(rpc, (key, top_n));
        }
        ctx.send(
            to.addr,
            Message::FindValue {
                rpc,
                from: self.contact.clone(),
                key,
                top_n,
                no_cache: true,
            }
            .encode_to_bytes(),
        );
        self.pending.insert(
            rpc,
            PendingRpc {
                op: REFRESH_OP,
                to,
                sent_at_us: ctx.now_us,
                timeout_us: self.cfg.rpc_timeout_us,
                first_sent_us: ctx.now_us,
            },
        );
        ctx.set_timer(self.cfg.rpc_timeout_us, rpc);
    }

    /// Refresh-ahead: a local cache hit is being served, but the view's
    /// last mint/confirmation is older than [`FreshConfig::refresh_age_us`]
    /// — probe a likely holder in the background so the view's *content*
    /// tracks writes instead of aging toward the TTL. The serve itself
    /// stays a zero-message hit; the probe costs two datagrams and only
    /// fires when no revalidation for the key is already in flight.
    fn maybe_refresh_ahead(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, top_n: u32) {
        let Some(f) = &self.fresh else {
            return;
        };
        let age_bar = f.cfg.refresh_age_us;
        // dharma-lint: allow(D3): `.any()` over an equality predicate is order-independent
        if age_bar == 0 || f.revalidating.values().any(|(k, _)| *k == key) {
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
    fn note_served_by(&mut self, key: Id160, server: &Contact, from_cache: bool, now_us: u64) {
        if let Some(f) = self.fresh.as_mut() {
            f.hits
                .record(key, server.id, server.addr, from_cache, now_us);
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
        let Some((blob, entries, stamp)) = self.storage.snapshot(&key) else {
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
        for contact in targets {
            let rpc = self.next_rpc;
            self.next_rpc += 1;
            ctx.send(
                contact.addr,
                Message::Replicate {
                    rpc,
                    from: self.contact.clone(),
                    key,
                    blob: blob.clone(),
                    entries: entries.clone(),
                    stamp,
                }
                .encode_to_bytes(),
            );
        }
    }

    /// `Replicate` push of `key`'s snapshot to `to` (idempotent merge-max
    /// on the receiver), **tracked** with a pending-RPC timeout under
    /// [`REPAIR_OP`]: the ack settles it, and a timeout marks the silent
    /// replica suspect through the standard path (probe-then-evict by
    /// default), so a corpse in a replica set feeds the departure-rate
    /// estimator on the first repair round instead of waiting for the
    /// probe cursor to reach its bucket.
    fn push_replica(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        to: &Contact,
        key: Id160,
        blob: Option<Vec<u8>>,
        entries: Vec<StoredEntry>,
        stamp: VersionStamp,
    ) {
        let rpc = self.send_replica_raw(ctx, to.addr, key, blob, entries, stamp);
        self.pending.insert(
            rpc,
            PendingRpc {
                op: REPAIR_OP,
                to: to.clone(),
                sent_at_us: ctx.now_us,
                timeout_us: self.cfg.rpc_timeout_us,
                first_sent_us: ctx.now_us,
            },
        );
        ctx.set_timer(self.cfg.rpc_timeout_us, rpc);
    }

    /// `Replicate` push of `key`'s snapshot to each of its current `k`
    /// closest contacts — `tracked` ([`Self::push_replica`]) from the
    /// repair and demotion sweeps, untracked from a graceful leave. Returns
    /// the number of pushes — 0 when the key is not held.
    fn push_to_closest(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, tracked: bool) -> u64 {
        let Some((blob, entries, stamp)) = self.storage.snapshot(&key) else {
            return 0;
        };
        let targets = self.routing.closest(&key, self.cfg.k);
        for t in &targets {
            if tracked {
                self.push_replica(ctx, t, key, blob.clone(), entries.clone(), stamp);
            } else {
                self.send_replica_raw(ctx, t.addr, key, blob.clone(), entries.clone(), stamp);
            }
        }
        targets.len() as u64
    }

    /// Untracked `Replicate` send (graceful leave only: the sender is
    /// tearing itself down, so pending-RPC state would never be read).
    fn send_replica_raw(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        to: NodeAddr,
        key: Id160,
        blob: Option<Vec<u8>>,
        entries: Vec<StoredEntry>,
        stamp: VersionStamp,
    ) -> u64 {
        let rpc = self.next_rpc;
        self.next_rpc += 1;
        ctx.send(
            to,
            Message::Replicate {
                rpc,
                from: self.contact.clone(),
                key,
                blob,
                entries,
                stamp,
            }
            .encode_to_bytes(),
        );
        rpc
    }

    // ----- churn maintenance (`dharma-maint` / `dharma-adapt`) ---------

    /// Records one observed departure into the churn estimate.
    /// `event_weight` is 1.0 for hard failures (failed probes, timeout
    /// evictions) and [`AdaptConfig::leave_weight`] for graceful notices.
    fn note_departure(&mut self, now_us: u64, event_weight: f64) {
        self.churn.record(now_us, event_weight);
    }

    /// The current decayed departure-rate estimate (diagnostics/tests).
    pub fn churn_weight(&self, now_us: u64) -> f64 {
        self.churn.weight(now_us)
    }

    /// Observed churn normalized to `[0, 1]` against the adaptive config's
    /// hot threshold — 0 pins cadence to `max`, 1 to `min`.
    fn churn_level(&self, a: &AdaptConfig, now_us: u64) -> f64 {
        if a.hot_weight <= 0.0 {
            return 1.0;
        }
        (self.churn.weight(now_us) / a.hot_weight).clamp(0.0, 1.0)
    }

    /// Linear interpolation of a maintenance interval between its adaptive
    /// bounds: quiet → `max_us`, churning → `min_us`.
    fn scaled_interval(&self, a: &AdaptConfig, min_us: u64, max_us: u64, now_us: u64) -> u64 {
        let max_us = max_us.max(min_us);
        let span = (max_us - min_us) as f64;
        let cut = (self.churn_level(a, now_us) * span) as u64;
        (max_us - cut).max(min_us)
    }

    /// The probe interval currently in effect (fixed or churn-scaled).
    /// `None` when maintenance is off.
    pub fn current_probe_interval_us(&self, now_us: u64) -> Option<u64> {
        let m = self.cfg.maintenance.as_ref()?;
        Some(match &m.adaptive {
            None => m.probe_interval_us,
            Some(a) => self.scaled_interval(a, a.probe_min_us, a.probe_max_us, now_us),
        })
    }

    /// The repair interval currently in effect (fixed or churn-scaled).
    /// `None` when maintenance is off.
    pub fn current_repair_interval_us(&self, now_us: u64) -> Option<u64> {
        let m = self.cfg.maintenance.as_ref()?;
        Some(match &m.adaptive {
            None => m.repair_interval_us,
            Some(a) => self.scaled_interval(a, a.repair_min_us, a.repair_max_us, now_us),
        })
    }

    /// True when `key` is held but has outlived [`KadConfig::record_ttl_us`]
    /// — present only because the periodic expiry sweep has not reached it
    /// yet. Such zombies must neither be pushed by maintenance nor have
    /// their clock re-wound by an incoming `Replicate`.
    fn expired_locally(&self, key: &Id160, now_us: u64) -> bool {
        match self.cfg.record_ttl_us {
            Some(ttl) => self
                .storage
                .get(key)
                .map(|s| now_us.saturating_sub(s.refreshed_us) > ttl)
                .unwrap_or(false),
            None => false,
        }
    }

    /// Lazily drops `key` if it is expired-but-unswept. Returns true when
    /// the key was dropped (callers skip their push).
    fn drop_if_expired(&mut self, key: &Id160, now_us: u64) -> bool {
        if self.expired_locally(key, now_us) {
            self.storage.remove(key);
            self.invalidate_cached(key);
            return true;
        }
        false
    }

    /// True when `id` announced a graceful departure within the tombstone
    /// window — it must not be re-learned as a contact.
    fn recently_departed(&self, id: &Id160, now_us: u64) -> bool {
        self.departed
            .get(id)
            .map(|&at| now_us.saturating_sub(at) <= DEPART_TOMBSTONE_US)
            .unwrap_or(false)
    }

    /// Handles an incoming [`Message::Leave`]: purge the sender from the
    /// routing table *immediately* (no probe round needed — the notice is
    /// first-hand), drop any in-flight probe bookkeeping, tombstone the id
    /// against stragglers, and feed the churn estimator at the (low)
    /// graceful weight.
    fn handle_leave(&mut self, now_us: u64, from: &Contact) {
        self.routing.note_failure(&from.id);
        self.probing.remove(&from.id);
        if let Some(f) = self.fresh.as_mut() {
            // A departed peer must not be seeded into future shortlists.
            f.hits.forget_peer(&from.id);
            f.fetchers.forget_peer(&from.id);
        }
        self.departed.insert(from.id, now_us);
        if self.departed.len() > DEPART_TOMBSTONE_CAP {
            self.departed
                .retain(|_, &mut at| now_us.saturating_sub(at) <= DEPART_TOMBSTONE_US);
            if self.departed.len() > DEPART_TOMBSTONE_CAP {
                // Still over cap within one tombstone window (a mass drain,
                // or spoofed Leave spray): shed the oldest quarter. Those
                // ids lose straggler protection early — the worst case is
                // one stale re-insert that the probe loop cleans up.
                // dharma-lint: allow(D3): collected then sorted by (at, key) — a total order
                let mut oldest: Vec<(Id160, u64)> =
                    self.departed.iter().map(|(k, &at)| (*k, at)).collect();
                // Ties on the timestamp are broken by key: sorting by the
                // stamp alone would pick victims in hash order.
                oldest.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
                for (k, _) in oldest.into_iter().take(DEPART_TOMBSTONE_CAP / 4) {
                    self.departed.remove(&k);
                }
            }
        }
        let leave_weight = self
            .cfg
            .maintenance
            .as_ref()
            .and_then(|m| m.adaptive.as_ref())
            .map(|a| a.leave_weight)
            .unwrap_or(0.0);
        if leave_weight > 0.0 {
            self.note_departure(now_us, leave_weight);
        }
    }

    /// Graceful departure (the counterpart of crashing): push a parting
    /// `Replicate` snapshot of held, unexpired keys to the `k` closest
    /// live nodes — so the replica set is whole *before* we go, instead of
    /// degraded until someone's repair sweep notices — then send a
    /// [`Message::Leave`] notice to every routing-table contact so
    /// receivers purge us immediately rather than discovering the corpse
    /// by timeout. The caller tears the node down afterwards
    /// (`SimNet::leave` does both in one step).
    ///
    /// The handoff is **trimmed**: a key is pushed only when this node
    /// ranks within `k + REPLICA_SLACK` of it. A copy held further out (a
    /// demotion candidate, or leftover from old membership) is redundant —
    /// the authoritative `k` are all strictly closer and hold the record
    /// without us — so pushing it would be pure drain overhead, the bulk
    /// of A7's graceful-row message bill. The slack is the demotion
    /// sweep's (`REPLICA_SLACK`): a key we *might* be needed for is
    /// still pushed.
    pub fn leave(&mut self, ctx: &mut Ctx<KadOutput>) {
        let now = ctx.now_us;
        let keys: Vec<Id160> = self.storage.keys().copied().collect();
        let keep_within = self.cfg.k + REPLICA_SLACK;
        let mut pushes = 0u64;
        for key in keys {
            if self.drop_if_expired(&key, now) {
                continue;
            }
            if !self.routing.local_ranks_within(&key, keep_within) {
                // At least k + slack known contacts are strictly closer:
                // the replica set is whole without us.
                continue;
            }
            pushes += self.push_to_closest(ctx, key, false);
        }
        if pushes > 0 {
            self.cfg.counters.record_leave_handoffs(pushes);
        }
        let contacts: Vec<Contact> = self.routing.iter().cloned().collect();
        if !contacts.is_empty() {
            self.cfg
                .counters
                .record_leave_notices(contacts.len() as u64);
        }
        for c in contacts {
            let rpc = self.next_rpc;
            self.next_rpc += 1;
            ctx.send(
                c.addr,
                Message::Leave {
                    rpc,
                    from: self.contact.clone(),
                }
                .encode_to_bytes(),
            );
        }
    }

    /// Sends a liveness probe to `contact` unless one is already in
    /// flight. The probe's RPC is tracked under [`PROBE_OP`]; its timeout
    /// (no `Pong`) confirms death and evicts the contact.
    fn probe_contact(&mut self, ctx: &mut Ctx<KadOutput>, contact: Contact) {
        if !self.probing.insert(contact.id) {
            return;
        }
        let rpc = self.next_rpc;
        self.next_rpc += 1;
        self.cfg.counters.record_probe();
        ctx.send(
            contact.addr,
            Message::Ping {
                rpc,
                from: self.contact.clone(),
            }
            .encode_to_bytes(),
        );
        self.pending.insert(
            rpc,
            PendingRpc {
                op: PROBE_OP,
                to: contact,
                sent_at_us: ctx.now_us,
                timeout_us: self.cfg.rpc_timeout_us,
                first_sent_us: ctx.now_us,
            },
        );
        ctx.set_timer(self.cfg.rpc_timeout_us, rpc);
    }

    /// One liveness-probe tick: ping the least-recently-seen contact of the
    /// next non-empty bucket. Round-robin over buckets guarantees every
    /// resident is eventually verified even when no lookup traffic touches
    /// its bucket.
    fn probe_tick(&mut self, ctx: &mut Ctx<KadOutput>) {
        if let Some((bucket, contact)) = self.routing.probe_candidate(self.probe_cursor) {
            self.probe_cursor = (bucket + 1) % dharma_types::ID160_BITS;
            self.probe_contact(ctx, contact);
        }
    }

    /// Join-time key handoff: `newcomer` just entered a bucket for the
    /// first time; push it every held key it is now among the `k` closest
    /// for (Kademlia §2.5 — keeps the replica set correct as the
    /// population shifts, without waiting for a repair sweep).
    fn handoff_to(&mut self, ctx: &mut Ctx<KadOutput>, newcomer: Contact) {
        let now = ctx.now_us;
        let keys: Vec<Id160> = self
            .storage
            .keys()
            .filter(|key| self.routing.ranks_within(&newcomer.id, key, self.cfg.k))
            .copied()
            .collect();
        let mut handed = 0u64;
        for key in keys {
            // A zombie past its TTL must not be handed to a newcomer —
            // that would resurrect it on a node whose expiry clock starts
            // fresh.
            if self.drop_if_expired(&key, now) {
                continue;
            }
            if let Some((blob, entries, stamp)) = self.storage.snapshot(&key) {
                self.push_replica(ctx, &newcomer, key, blob, entries, stamp);
                handed += 1;
            }
        }
        if handed > 0 {
            self.cfg.counters.record_handoffs(handed);
        }
    }

    /// One repair step: re-push held keys to their current `k` closest
    /// nodes, restoring replicas lost to departures. Keys that received an
    /// incoming `Replicate` within the last interval are skipped — some
    /// other holder already paid for this round — and keys past their TTL
    /// are dropped instead of pushed (an expired record must not have its
    /// peers' expiry clocks re-wound by repair).
    ///
    /// `budget` bounds the keys processed per step (0 = unbounded, the
    /// fixed-cadence behavior). A partial pass leaves the carry-over
    /// cursor in [`Self::repair_cursor`]; the next tick resumes after it
    /// in key order, so coverage stays complete under any budget.
    fn repair_sweep_step(&mut self, ctx: &mut Ctx<KadOutput>, interval_us: u64, budget: usize) {
        let now = ctx.now_us;
        if self.repair_cursor.is_none() {
            // Fresh pass: prune suppression state from the previous round.
            let storage = &self.storage;
            self.last_replicate_seen.retain(|key, seen| {
                now.saturating_sub(*seen) < interval_us && storage.contains(key)
            });
        }
        // Re-collected each tick rather than snapshotted per pass: storage
        // mutates between ticks (expiry, demotion, incoming replicas), and
        // the id-ordered cursor makes the fresh view resume correctly.
        let take = if budget == 0 { usize::MAX } else { budget };
        let (batch, done) = {
            let mut rest = self.storage.keys_after(self.repair_cursor.as_ref());
            let batch: Vec<Id160> = rest.by_ref().take(take).copied().collect();
            (batch, rest.next().is_none())
        };
        let mut pushes = 0u64;
        for key in &batch {
            if self.drop_if_expired(key, now) {
                continue;
            }
            if self.last_replicate_seen.contains_key(key) {
                continue;
            }
            pushes += self.push_to_closest(ctx, *key, true);
        }
        if pushes > 0 {
            self.cfg.counters.record_rereplications(pushes);
        }
        self.repair_cursor = if done { None } else { batch.last().copied() };
    }

    /// One demotion sweep: reclaim beyond-`k` replicas whose popularity has
    /// decayed — the explicit counterpart of adaptive promotion, so extra
    /// copies stop occupying space the moment a key cools instead of
    /// waiting for the record TTL. A key is dropped only when (a) at least
    /// `k + REPLICA_SLACK` known contacts are strictly closer to it (we are
    /// comfortably outside the authoritative replica set — the slack keeps
    /// a small buffer of extra copies alive as a churn safety net and
    /// avoids demote/handoff flapping at the boundary), (b) its local
    /// popularity is below half the hot threshold (hysteresis against
    /// flapping), and (c) it was not refreshed within the last sweep
    /// interval. The snapshot is re-pushed to the `k` closest before the
    /// local drop, so demotion can never lose the last copy.
    fn demote_sweep(&mut self, ctx: &mut Ctx<KadOutput>, interval_us: u64) {
        let now = ctx.now_us;
        let cold_bar = self
            .popularity
            .as_ref()
            .map(|p| p.config().hot_threshold / 2.0)
            .unwrap_or(f64::INFINITY);
        let keep_within = self.cfg.k + REPLICA_SLACK;
        let victims: Vec<Id160> = self
            .storage
            .keys()
            .copied()
            .filter(|key| {
                if self.routing.local_ranks_within(key, keep_within) {
                    return false; // we rank within k + slack (or the view is sparse)
                }
                let weight = self
                    .popularity
                    .as_ref()
                    .map(|p| p.weight(key, now))
                    .unwrap_or(0.0);
                if weight >= cold_bar {
                    return false; // still warm: keep serving
                }
                let refreshed = self.storage.get(key).map(|s| s.refreshed_us).unwrap_or(0);
                now.saturating_sub(refreshed) >= interval_us
            })
            .collect();
        for key in victims {
            // Expired copies are reclaimed without the parting push — the
            // snapshot is past its TTL and must not be resurrected on the
            // authoritative k.
            if self.drop_if_expired(&key, now) {
                continue;
            }
            self.push_to_closest(ctx, key, true);
            self.storage.remove(&key);
            self.invalidate_cached(&key);
            self.cfg.counters.record_replica_demoted();
        }
    }

    /// Seeds the routing table with a known peer (out-of-band bootstrap
    /// knowledge, e.g. a rendezvous host).
    pub fn add_seed(&mut self, seed: Contact) {
        self.routing.note_contact(seed);
    }

    /// Joins the overlay: performs a node lookup for the local id, which
    /// populates the routing table along the lookup path. Requires at least
    /// one seed. Returns the operation id.
    pub fn bootstrap(&mut self, ctx: &mut Ctx<KadOutput>) -> u64 {
        let own = self.contact.id;
        self.find_nodes(ctx, own)
    }

    /// Starts an iterative node lookup toward `target`.
    pub fn find_nodes(&mut self, ctx: &mut Ctx<KadOutput>, target: Id160) -> u64 {
        self.start_op(ctx, target, OpKind::FindNodes)
    }

    /// Starts a value lookup for `key`. `top_n` > 0 requests index-side
    /// filtering: only the heaviest `top_n` entries are returned.
    pub fn get(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, top_n: u32) -> u64 {
        self.start_op(
            ctx,
            key,
            OpKind::Get {
                top_n,
                fresh: false,
            },
        )
    }

    /// Starts a value lookup that refuses cached views end-to-end: the
    /// local hot cache is skipped and every `FindValue` goes out with
    /// `no_cache`, so only authoritative holders may answer. This is the
    /// escalation path behind session-consistency reads — when a served
    /// version falls below the client's session floor, the client re-reads
    /// through here before declaring the read stale.
    pub fn get_fresh(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, top_n: u32) -> u64 {
        self.start_op(ctx, key, OpKind::Get { top_n, fresh: true })
    }

    /// Stores a blob on the `k` nodes closest to `key`.
    pub fn put_blob(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, blob: Vec<u8>) -> u64 {
        self.start_op(ctx, key, OpKind::PutBlob { blob })
    }

    /// Appends `tokens` to entry `name` of the weighted set at `key`, on the
    /// `k` closest nodes.
    pub fn append(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, name: &str, tokens: u64) -> u64 {
        self.append_many(
            ctx,
            key,
            vec![StoredEntry {
                name: name.to_owned(),
                weight: tokens,
            }],
        )
    }

    /// Appends tokens to several entries of the weighted set at `key` in a
    /// single overlay operation (one lookup + k replica messages) — the
    /// block-update primitive of DHARMA's Table I cost model.
    pub fn append_many(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        key: Id160,
        entries: Vec<StoredEntry>,
    ) -> u64 {
        self.start_op(ctx, key, OpKind::Append { entries })
    }

    /// Pushes a snapshot of every held value to the `k` nodes currently
    /// closest to its key, with idempotent merge-max semantics — the
    /// Kademlia republish rule that keeps replication alive under churn.
    /// Fired periodically when `republish_interval_us` is set; callable
    /// directly for tests and manual repair. Keys past their TTL are
    /// dropped instead of pushed: republishing a zombie would re-stamp its
    /// `refreshed_us` everywhere (including locally, via the coordinator's
    /// own merge) and make it immortal.
    pub fn republish_all(&mut self, ctx: &mut Ctx<KadOutput>) -> Vec<u64> {
        let now = ctx.now_us;
        let keys: Vec<Id160> = self.storage.keys().copied().collect();
        keys.into_iter()
            .filter_map(|key| {
                if self.drop_if_expired(&key, now) {
                    return None;
                }
                self.storage.snapshot(&key).map(|(blob, entries, stamp)| {
                    self.start_op(
                        ctx,
                        key,
                        OpKind::Replicate {
                            blob,
                            entries,
                            stamp,
                        },
                    )
                })
            })
            .collect()
    }

    /// Refreshes bucket `i` by looking up a random id inside it (periodic
    /// maintenance for long-running deployments).
    pub fn refresh_bucket(&mut self, ctx: &mut Ctx<KadOutput>, bucket: usize) -> u64 {
        let target = self
            .contact
            .id
            .random_with_prefix(bucket.min(dharma_types::ID160_BITS - 1), &mut ctx.rng);
        self.find_nodes(ctx, target)
    }

    fn start_op(&mut self, ctx: &mut Ctx<KadOutput>, target: Id160, kind: OpKind) -> u64 {
        let op_id = self.next_op;
        self.next_op += 1;

        // Client-issued writes immediately drop this node's cached views of
        // the key and arm the read-your-writes guard — even before any
        // replica acks, a later local GET must never see the pre-write view.
        if matches!(
            kind,
            OpKind::PutBlob { .. } | OpKind::Append { .. } | OpKind::Replicate { .. }
        ) {
            self.note_written(target, ctx.now_us);
        }
        let bypass_cache = match kind {
            OpKind::Get { fresh, .. } => fresh || self.recently_wrote(&target, ctx.now_us),
            _ => false,
        };

        // Local fast path for reads: this node may itself hold the value
        // authoritatively, or (with caching on) hold a fresh cached view.
        if let OpKind::Get { top_n, .. } = &kind {
            if let Some(read) = self
                .storage
                .read_filtered(&target, *top_n, self.cfg.reply_budget)
            {
                self.cfg.counters.record_cache_miss();
                ctx.complete(
                    op_id,
                    KadOutput::Value {
                        value: Some(FetchedValue {
                            blob: read.blob,
                            entries: read.entries,
                            truncated: read.truncated,
                            version: read.version,
                            from_cache: false,
                        }),
                        messages: 0,
                    },
                );
                return op_id;
            }
            if !bypass_cache {
                let cached = self
                    .cache
                    .as_mut()
                    .and_then(|cache| cache.get(&(target, *top_n), ctx.now_us));
                if let Some((view, version)) = cached {
                    if self.fresh_serves(&target, *top_n, version, ctx.now_us) {
                        self.cfg.counters.record_cache_hit();
                        ctx.complete(
                            op_id,
                            KadOutput::Value {
                                value: Some(view),
                                messages: 0,
                            },
                        );
                        self.maybe_refresh_ahead(ctx, target, *top_n);
                        return op_id;
                    }
                    if !self.fresh_admits(&target, version) {
                        // Gossip proved the view stale: drop it and read
                        // through — a miss where TTL-only would have
                        // served outdated data.
                        self.drop_gossip_stale(&target);
                    }
                    // An age-refused view stays resident: the read-through
                    // below refreshes it, and a digest may yet confirm it.
                }
            }
        }

        let mut seeds = self.routing.closest(&target, self.cfg.k);
        // Cache-aware routing: seed the shortlist with peers that recently
        // served this key, and remember them as warm so candidate ordering
        // prefers them — a repeat GET often resolves at the first hop.
        let mut warm_ids: Vec<Id160> = Vec::new();
        if matches!(kind, OpKind::Get { .. }) {
            if let Some(f) = &self.fresh {
                if f.cfg.cache_aware_routing {
                    for (id, addr) in f.hits.warm_peers(&target, ctx.now_us) {
                        if self.recently_departed(&id, ctx.now_us) {
                            continue;
                        }
                        warm_ids.push(id);
                        if !seeds.iter().any(|c| c.id == id) {
                            seeds.push(Contact { id, addr });
                        }
                    }
                }
            }
        }
        // Latency awareness: shortlist bias seeds the lookup with current
        // RTT estimates, and adaptive α gives the op its own controller
        // (starting at `alpha_min`, widening only on this op's timeouts).
        let rtt_hints: Vec<(Id160, u64)> = match (&self.rtt, self.bias_shortlist()) {
            (Some(book), true) => seeds
                .iter()
                .filter_map(|c| book.estimate_us(&c.id).map(|e| (c.id, e)))
                .collect(),
            _ => Vec::new(),
        };
        let rtt_default = match (&self.rtt, self.bias_shortlist()) {
            (Some(book), true) => book.percentile_us(0.5),
            _ => None,
        };
        let alpha_ctl = self
            .cfg
            .latency
            .as_ref()
            .filter(|l| l.adaptive_alpha)
            .map(AlphaController::new);
        let start_alpha = alpha_ctl
            .as_ref()
            .map(AlphaController::current)
            .unwrap_or(self.cfg.alpha);
        let mut lookup = LookupState::new(target, seeds, self.cfg.k, start_alpha);
        for id in warm_ids {
            lookup.mark_warm(id);
        }
        for (id, est) in rtt_hints {
            lookup.hint_rtt(id, est);
        }
        if let Some(med) = rtt_default {
            lookup.set_rtt_default(med);
        }
        let op = OpState {
            lookup,
            kind,
            phase: Phase::Lookup,
            messages: 0,
            done: false,
            value_misses: Vec::new(),
            bypass_cache,
            issued_at_us: ctx.now_us,
            alpha_ctl,
        };

        if op.lookup.is_converged() {
            // Nobody to ask (single-node network or empty table).
            self.ops.insert(op_id, op);
            self.finish_lookup(ctx, op_id);
            return op_id;
        }

        self.ops.insert(op_id, op);
        self.pump(ctx, op_id);
        op_id
    }

    /// Issues as many queries as the lookup allows.
    fn pump(&mut self, ctx: &mut Ctx<KadOutput>, op_id: u64) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        if op.done {
            return;
        }
        let queries = op.lookup.next_queries();
        let warm_redirects = op.lookup.take_warm_redirects();
        if warm_redirects > 0 {
            self.cfg.counters.record_warm_redirects(warm_redirects);
        }
        let target = op.lookup.target();
        let is_get = matches!(op.kind, OpKind::Get { .. });
        let no_cache = op.bypass_cache;
        let top_n = match op.kind {
            OpKind::Get { top_n, .. } => top_n,
            _ => 0,
        };
        let mut sent = 0u32;
        let mut to_send: Vec<(u64, Contact, Message)> = Vec::new();
        for contact in queries {
            let rpc = self.next_rpc;
            self.next_rpc += 1;
            let msg = if is_get {
                Message::FindValue {
                    rpc,
                    from: self.contact.clone(),
                    key: target,
                    top_n,
                    no_cache,
                }
            } else {
                Message::FindNode {
                    rpc,
                    from: self.contact.clone(),
                    target,
                }
            };
            to_send.push((rpc, contact, msg));
            sent += 1;
        }
        if let Some(op) = self.ops.get_mut(&op_id) {
            op.messages += sent;
        }
        for (rpc, contact, msg) in to_send {
            let timeout_us = self.rpc_timeout_for(&contact.id);
            self.pending.insert(
                rpc,
                PendingRpc {
                    op: op_id,
                    to: contact.clone(),
                    sent_at_us: ctx.now_us,
                    timeout_us,
                    first_sent_us: ctx.now_us,
                },
            );
            ctx.send(contact.addr, msg.encode_to_bytes());
            ctx.set_timer(timeout_us, rpc);
        }
        // The lookup may have converged (no queries issuable, none inflight).
        let converged = self
            .ops
            .get(&op_id)
            .map(|op| op.lookup.is_converged())
            .unwrap_or(false);
        if converged {
            self.finish_lookup(ctx, op_id);
        }
    }

    /// The lookup phase is over: complete reads, or move writes to phase 2.
    fn finish_lookup(&mut self, ctx: &mut Ctx<KadOutput>, op_id: u64) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        if op.done || !matches!(op.phase, Phase::Lookup) {
            return;
        }
        let closest = op.lookup.closest_responded();
        match op.kind.clone() {
            OpKind::FindNodes => {
                let messages = op.messages;
                let _ = messages;
                op.done = true;
                ctx.complete(op_id, KadOutput::Nodes(closest));
                self.ops.remove(&op_id);
            }
            OpKind::Get { .. } => {
                // Lookup ended without any node returning the value.
                let messages = op.messages;
                op.done = true;
                self.cfg.counters.record_cache_miss();
                ctx.complete(
                    op_id,
                    KadOutput::Value {
                        value: None,
                        messages,
                    },
                );
                self.ops.remove(&op_id);
            }
            OpKind::PutBlob { .. } | OpKind::Append { .. } | OpKind::Replicate { .. } => {
                // Replicate on the k closest; include ourselves if we are
                // closer than the k-th (or the set is short).
                let key = op.lookup.target();
                let mut replicas: Vec<Contact> = closest;
                let self_dist = self.contact.id.distance(&key);
                let include_self = replicas.len() < self.cfg.k
                    || replicas
                        .last()
                        .map(|c| self_dist < c.id.distance(&key))
                        .unwrap_or(true);
                if include_self {
                    replicas.truncate(self.cfg.k.saturating_sub(1));
                } else {
                    replicas.truncate(self.cfg.k);
                }

                let kind = op.kind.clone();
                let targets = replicas.len() as u32 + u32::from(include_self);
                // Client writes mint their origin stamp here, once the
                // lookup fixed the replica set; replication re-sends the
                // snapshot's existing stamp (repair never mints).
                let stamp = match &kind {
                    OpKind::Replicate { stamp, .. } => *stamp,
                    _ => self.mint_stamp(&key, ctx.now_us),
                };
                if let Some(op) = self.ops.get_mut(&op_id) {
                    op.phase = Phase::Write {
                        acks: 0,
                        pending: replicas.len() as u32,
                        targets,
                        stamp,
                    };
                }

                if include_self {
                    let before = self.storage.stamp(&key);
                    match &kind {
                        OpKind::PutBlob { blob } => self.storage.put_blob(key, blob.clone(), stamp),
                        OpKind::Append { entries } => {
                            for e in entries {
                                self.storage.append(key, &e.name, e.weight, stamp);
                            }
                        }
                        OpKind::Replicate {
                            blob,
                            entries,
                            stamp,
                        } => {
                            self.storage.merge_max(
                                key,
                                blob.as_deref(),
                                entries,
                                *stamp,
                                ctx.now_us,
                            );
                        }
                        _ => unreachable!(),
                    }
                    self.invalidate_cached(&key);
                    self.note_news(key, ctx.now_us);
                    if self.storage.stamp(&key) > before {
                        self.push_invalidations(ctx, key, None);
                    }
                }

                if replicas.is_empty() {
                    let acks = 0;
                    if let Some(op) = self.ops.get_mut(&op_id) {
                        op.done = true;
                    }
                    self.note_write_done(key, ctx.now_us);
                    ctx.complete(
                        op_id,
                        KadOutput::Written {
                            acks,
                            targets,
                            stamp,
                        },
                    );
                    self.ops.remove(&op_id);
                    return;
                }

                let mut to_send: Vec<(u64, Contact, Message)> = Vec::new();
                for contact in replicas {
                    let rpc = self.next_rpc;
                    self.next_rpc += 1;
                    let msg = match &kind {
                        OpKind::PutBlob { blob } => Message::Store {
                            rpc,
                            from: self.contact.clone(),
                            key,
                            blob: blob.clone(),
                            stamp,
                        },
                        OpKind::Append { entries } => Message::Append {
                            rpc,
                            from: self.contact.clone(),
                            key,
                            entries: entries.clone(),
                            stamp,
                        },
                        OpKind::Replicate {
                            blob,
                            entries,
                            stamp,
                        } => Message::Replicate {
                            rpc,
                            from: self.contact.clone(),
                            key,
                            blob: blob.clone(),
                            entries: entries.clone(),
                            stamp: *stamp,
                        },
                        _ => unreachable!(),
                    };
                    to_send.push((rpc, contact, msg));
                }
                if let Some(op) = self.ops.get_mut(&op_id) {
                    op.messages += to_send.len() as u32;
                }
                for (rpc, contact, msg) in to_send {
                    self.pending.insert(
                        rpc,
                        PendingRpc {
                            op: op_id,
                            to: contact.clone(),
                            sent_at_us: ctx.now_us,
                            timeout_us: self.cfg.rpc_timeout_us,
                            first_sent_us: ctx.now_us,
                        },
                    );
                    ctx.send(contact.addr, msg.encode_to_bytes());
                    ctx.set_timer(self.cfg.rpc_timeout_us, rpc);
                }
            }
        }
    }

    /// Write-phase bookkeeping: an ack arrived or a replica timed out.
    fn write_progress(&mut self, ctx: &mut Ctx<KadOutput>, op_id: u64, acked: bool) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        let Phase::Write {
            acks,
            pending,
            targets,
            stamp,
        } = &mut op.phase
        else {
            return;
        };
        if acked {
            *acks += 1;
        }
        *pending -= 1;
        if *pending == 0 {
            let acks = *acks + 1; // count the local apply as durable
            let targets = *targets;
            let stamp = *stamp;
            let key = op.lookup.target();
            op.done = true;
            self.note_write_done(key, ctx.now_us);
            ctx.complete(
                op_id,
                KadOutput::Written {
                    acks,
                    targets,
                    stamp,
                },
            );
            self.ops.remove(&op_id);
        }
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
            self.handle_leave(ctx.now_us, from);
            return;
        }
        // Every message is evidence of liveness — and a *first* appearance
        // of a contact in a bucket is the join-handoff trigger: the
        // newcomer may now rank among the k closest for keys we hold.
        // Exception: a peer that just announced its departure is
        // tombstoned; its own out-of-order stragglers (a parting
        // `Replicate` delivered after the `Leave`) must not re-insert it.
        if !self.recently_departed(&msg.sender().id, ctx.now_us) {
            let outcome = self.note_contact_latency_aware(msg.sender().clone());
            if outcome == crate::routing::NoteOutcome::Inserted
                && self
                    .cfg
                    .maintenance
                    .as_ref()
                    .is_some_and(|m| m.join_handoff)
                && !self.storage.is_empty()
            {
                self.handoff_to(ctx, msg.sender().clone());
            }
        }

        match msg {
            Message::Ping { rpc, from } => {
                let digest = self.build_digest(None, ctx.now_us);
                ctx.send(
                    from.addr,
                    Message::Pong {
                        rpc,
                        from: self.contact.clone(),
                        digest,
                    }
                    .encode_to_bytes(),
                );
            }
            Message::Pong { rpc, from, digest } => {
                // Liveness noted above; additionally settle the probe (if
                // this Pong answers one) so its timeout cannot evict.
                if let Some(pend) = self.pending.remove(&rpc) {
                    self.note_rpc_settled(&pend, ctx.now_us);
                    self.probing.remove(&pend.to.id);
                }
                self.absorb_digest(ctx, &from, &digest);
            }
            Message::FindNode { rpc, from, target } => {
                self.reply_found_nodes(ctx, from.addr, rpc, &target);
            }
            Message::FindValue {
                rpc,
                from,
                key,
                top_n,
                no_cache,
            } => {
                self.gets_served += 1;
                // Under `dharma-fresh`, a held copy this node has drifted
                // out of the replica set for is no longer served as
                // authoritative — it stopped receiving the key's writes,
                // and an exact-stamp reply from it would re-pin stale
                // views as "current". Answer with closer contacts so the
                // requester reaches the live holders instead.
                let speaks_for = self.fresh.is_none() || self.likely_authoritative(&key);
                // Held values are served straight onto the wire: no owned
                // read, no `Message` in between.
                let mut reply = BytesMut::new();
                let served = if speaks_for && self.storage.contains(&key) {
                    put_found_value_head(&mut reply, rpc, &self.contact);
                    self.storage
                        .encode_filtered(&key, top_n, self.cfg.reply_budget, &mut reply)
                } else {
                    None
                };
                match served {
                    Some((truncated, version)) => {
                        // Holder-side interest tracking for write-triggered
                        // invalidation push: remember who fetched this key.
                        if let Some(f) = self.fresh.as_mut() {
                            if f.cfg.push_on_write {
                                f.fetchers
                                    .record(key, from.id, from.addr, top_n, ctx.now_us);
                            }
                        }
                        let digest = self.build_digest(Some(&key), ctx.now_us);
                        put_found_value_tail(&mut reply, truncated, &version, false, &digest);
                        ctx.send(from.addr, reply.freeze());
                        // Authoritative holders track per-key GET rates and
                        // push extra replicas when a key runs hot.
                        self.maybe_promote_replicas(ctx, key);
                    }
                    None => {
                        // Not an authoritative holder — a path node. With
                        // caching on, a store-on-path view can still answer
                        // (flagged `from_cache` so requesters know) — unless
                        // the requester demanded authoritative-only service
                        // (its read-your-writes guard is armed; a cached
                        // view could predate its write, and a FoundNodes
                        // reply keeps its lookup advancing instead).
                        if no_cache {
                            self.reply_found_nodes(ctx, from.addr, rpc, &key);
                            return;
                        }
                        let cached = self
                            .cache
                            .as_mut()
                            .and_then(|cache| cache.get(&(key, top_n), ctx.now_us));
                        if let Some((view, version)) = cached {
                            // The freshness gate: a view some digest
                            // already superseded — or one past the
                            // serve-age bar — must not be served; answer
                            // with contacts instead.
                            if self.fresh_serves(&key, top_n, version, ctx.now_us) {
                                ctx.send(
                                    from.addr,
                                    Message::FoundValue {
                                        rpc,
                                        from: self.contact.clone(),
                                        blob: view.blob,
                                        entries: view.entries,
                                        truncated: view.truncated,
                                        version,
                                        from_cache: true,
                                        // Cached views never gossip: their
                                        // versions are another holder's.
                                        digest: Vec::new(),
                                    }
                                    .encode_to_bytes(),
                                );
                                // A path cache actively serving a key is
                                // exactly the view whose staleness matters
                                // most — refresh it ahead of the TTL too.
                                self.maybe_refresh_ahead(ctx, key, top_n);
                                return;
                            }
                            if !self.fresh_admits(&key, version) {
                                self.drop_gossip_stale(&key);
                            } else {
                                // Aged out, not superseded: refresh it so
                                // the next requester gets a servable view.
                                self.maybe_refresh_ahead(ctx, key, top_n);
                            }
                        }
                        self.reply_found_nodes(ctx, from.addr, rpc, &key);
                    }
                }
            }
            Message::Store {
                rpc,
                from,
                key,
                blob,
                stamp,
            } => {
                self.observe_stamp(stamp);
                let before = self.storage.stamp(&key);
                self.storage.put_blob(key, blob, stamp);
                self.storage.touch(key, ctx.now_us);
                self.invalidate_cached(&key);
                self.note_news(key, ctx.now_us);
                if self.storage.stamp(&key) > before {
                    self.push_invalidations(ctx, key, Some(&from.id));
                }
                ctx.send(
                    from.addr,
                    Message::Ack {
                        rpc,
                        from: self.contact.clone(),
                    }
                    .encode_to_bytes(),
                );
            }
            Message::Append {
                rpc,
                from,
                key,
                entries,
                stamp,
            } => {
                self.observe_stamp(stamp);
                let before = self.storage.stamp(&key);
                for e in &entries {
                    self.storage.append(key, &e.name, e.weight, stamp);
                }
                self.storage.touch(key, ctx.now_us);
                self.invalidate_cached(&key);
                self.note_news(key, ctx.now_us);
                if self.storage.stamp(&key) > before {
                    self.push_invalidations(ctx, key, Some(&from.id));
                }
                ctx.send(
                    from.addr,
                    Message::Ack {
                        rpc,
                        from: self.contact.clone(),
                    }
                    .encode_to_bytes(),
                );
            }
            Message::FoundNodes {
                rpc,
                from,
                contacts,
                digest,
            } => {
                // Digests carry freshness news even on late replies.
                self.absorb_digest(ctx, &from, &digest);
                let Some(pend) = self.pending.remove(&rpc) else {
                    return; // late reply for a finished op
                };
                self.note_rpc_settled(&pend, ctx.now_us);
                if pend.op == REFRESH_OP {
                    // The digest sender no longer holds the key (expired
                    // or demoted between digest and refresh): the dropped
                    // view stays dropped, nothing to refresh.
                    if let Some(f) = self.fresh.as_mut() {
                        f.revalidating.remove(&rpc);
                    }
                    return;
                }
                if pend.op == REPAIR_OP {
                    return;
                }
                // Third-party views may still name a peer that announced
                // its departure — keep tombstoned ids out of the table and
                // the lookup shortlist (querying a known corpse only buys
                // a timeout).
                let own = self.contact.id;
                let now = ctx.now_us;
                let filtered: Vec<Contact> = contacts
                    .into_iter()
                    .filter(|c| c.id != own && !self.recently_departed(&c.id, now))
                    .collect();
                for c in &filtered {
                    self.note_contact_latency_aware(c.clone());
                }
                // Latency-biased shortlists: hand the lookup the current
                // RTT estimates for the contacts it just learned.
                if self.bias_shortlist() {
                    if let (Some(book), Some(op)) = (&self.rtt, self.ops.get_mut(&pend.op)) {
                        for c in &filtered {
                            if let Some(est) = book.estimate_us(&c.id) {
                                op.lookup.hint_rtt(c.id, est);
                            }
                        }
                    }
                }
                if let Some(op) = self.ops.get_mut(&pend.op) {
                    op.lookup.on_response(&from.id, filtered);
                    // A FoundNodes reply to a FIND_VALUE means the responder
                    // does not hold the value: remember it as a candidate for
                    // the store-on-path cache push.
                    if self.cache.is_some() && matches!(op.kind, OpKind::Get { .. }) {
                        op.value_misses.push(from);
                    }
                    self.pump(ctx, pend.op);
                }
            }
            Message::FoundValue {
                rpc,
                from,
                blob,
                entries,
                truncated,
                version,
                from_cache,
                digest,
            } => {
                self.observe_stamp(version);
                self.absorb_digest(ctx, &from, &digest);
                let Some(pend) = self.pending.remove(&rpc) else {
                    return;
                };
                self.note_rpc_settled(&pend, ctx.now_us);
                if pend.op == REFRESH_OP {
                    // A revalidation came back: re-pin the refreshed view
                    // (authoritative by construction — the request set
                    // `no_cache`) under its new version.
                    let revalidated = self
                        .fresh
                        .as_mut()
                        .and_then(|f| f.revalidating.remove(&rpc));
                    let Some((key, top_n)) = revalidated else {
                        return;
                    };
                    if from_cache || self.recently_wrote(&key, ctx.now_us) {
                        return;
                    }
                    if let Some(f) = self.fresh.as_mut() {
                        f.book.note(key, version);
                    }
                    self.note_served_by(key, &from, false, ctx.now_us);
                    if let Some(cache) = &mut self.cache {
                        cache.insert(
                            (key, top_n),
                            version,
                            FetchedValue {
                                blob,
                                entries,
                                truncated,
                                version,
                                from_cache: true,
                            },
                            ctx.now_us,
                        );
                    }
                    return;
                }
                if pend.op == REPAIR_OP {
                    return;
                }
                let Some(op) = self.ops.get(&pend.op) else {
                    return;
                };
                let OpKind::Get { top_n, .. } = op.kind else {
                    return;
                };
                if op.done {
                    return;
                }
                let bypass = op.bypass_cache;
                let gossip_stale = from_cache && !self.fresh_admits(&op.lookup.target(), version);
                if from_cache && (bypass || gossip_stale) {
                    // A cached reply this GET must not accept: bypassing
                    // GETs requested authoritative-only service (the view
                    // may predate this node's write), and the monotone-
                    // freshness gate rejects views some digest already
                    // superseded. Count the responder as an empty miss
                    // (not a failure: the node is alive and well-behaved)
                    // and keep looking for an authoritative holder.
                    if let Some(op) = self.ops.get_mut(&pend.op) {
                        op.lookup.on_response(&from.id, Vec::new());
                    }
                    self.pump(ctx, pend.op);
                    return;
                }
                let Some(op) = self.ops.get_mut(&pend.op) else {
                    return;
                };
                let messages = op.messages;
                let key = op.lookup.target();
                let misses = std::mem::take(&mut op.value_misses);
                let issued_at = op.issued_at_us;
                op.done = true;
                // Warm-peer bookkeeping: this contact just served the key.
                self.note_served_by(key, &from, from_cache, ctx.now_us);
                if from_cache {
                    self.cfg.counters.record_cache_hit();
                } else {
                    self.cfg.counters.record_cache_miss();
                    // The served authoritative version is gossip too.
                    if let Some(f) = self.fresh.as_mut() {
                        f.book.note(key, version);
                    }
                    // An authoritative read can disarm the read-your-writes
                    // guard — but only if it cannot predate the guarded
                    // write: no write for the key may still be in flight,
                    // and this GET must have been issued after the guard
                    // was (re-)armed. (A reply that raced an in-flight
                    // write could carry the pre-write view.)
                    let disarm = self
                        .recent_writes
                        .get(&key)
                        .map(|g| g.inflight == 0 && issued_at >= g.armed_at_us)
                        .unwrap_or(false);
                    if disarm {
                        self.recent_writes.remove(&key);
                    }
                }
                let value = FetchedValue {
                    blob,
                    entries,
                    truncated,
                    version,
                    from_cache,
                };
                // Only *authoritative* views are cached or pushed: re-caching
                // a `from_cache` reply would restamp its TTL clock and let a
                // view circulate cache-to-cache indefinitely, unbounding
                // staleness. And while a write guard is armed, the arriving
                // view may predate the write — don't pin it.
                let cacheable = !from_cache && !self.recently_wrote(&key, ctx.now_us);
                if let (true, Some(cache)) = (cacheable, self.cache.as_mut()) {
                    // Apply the Kademlia caching rule: push the view to the
                    // path node closest to the key that missed, so the next
                    // lookup from anywhere stops before the hot holders ...
                    if let Some(target) = misses.into_iter().min_by_key(|c| c.id.distance(&key)) {
                        let rpc = self.next_rpc;
                        self.next_rpc += 1;
                        let push =
                            Message::encode_cache_push(rpc, &self.contact, &key, top_n, &value);
                        ctx.send(target.addr, push);
                    }
                    // ... and keep a requester-local view (served as a cache
                    // hit on the next GET of this key from this node): the
                    // one copy made of the value, which itself moves on to
                    // the caller.
                    let mut cached = value.clone();
                    cached.from_cache = true;
                    cache.insert((key, top_n), version, cached, ctx.now_us);
                }
                ctx.complete(
                    pend.op,
                    KadOutput::Value {
                        value: Some(value),
                        messages,
                    },
                );
                self.ops.remove(&pend.op);
            }
            Message::CachePush {
                rpc,
                from,
                key,
                top_n,
                blob,
                entries,
                truncated,
                version,
            } => {
                let _ = (rpc, from);
                self.observe_stamp(version);
                // A pushed view may predate a write this node has in
                // flight or just issued — never pin it over our own guard.
                if self.recently_wrote(&key, ctx.now_us) {
                    return;
                }
                // Authoritative holders ignore pushes (their storage is
                // fresher by definition); everyone else caches the view.
                if self.storage.contains(&key) {
                    return;
                }
                if let Some(cache) = &mut self.cache {
                    cache.insert(
                        (key, top_n),
                        version,
                        FetchedValue {
                            blob,
                            entries,
                            truncated,
                            version,
                            from_cache: true,
                        },
                        ctx.now_us,
                    );
                }
            }
            Message::Replicate {
                rpc,
                from,
                key,
                blob,
                entries,
                stamp,
            } => {
                self.observe_stamp(stamp);
                // TTL accept gate: a record that already outlived
                // `record_ttl_us` here is a zombie awaiting the expiry
                // sweep — merging the incoming snapshot would re-wind its
                // clock and resurrect it (the snapshot stems from the same
                // stale write; a *gated* sender would not have pushed it).
                // Drop the zombie and reject the refresh instead; the ack
                // still flows (the datagram was handled, not lost). If the
                // sender's copy was genuinely fresher (this node missed a
                // later write), the rejection costs at most one repair
                // interval: the next push meets an empty slot and is
                // accepted as a fresh record.
                if self.expired_locally(&key, ctx.now_us) {
                    self.storage.remove(&key);
                    self.invalidate_cached(&key);
                } else {
                    let before = self.storage.stamp(&key);
                    self.storage
                        .merge_max(key, blob.as_deref(), &entries, stamp, ctx.now_us);
                    self.invalidate_cached(&key);
                    self.note_news(key, ctx.now_us);
                    if self.storage.stamp(&key) > before {
                        self.push_invalidations(ctx, key, Some(&from.id));
                    }
                    // Repair suppression: someone just re-replicated this
                    // key, so our own next repair sweep can skip it.
                    if self.cfg.maintenance.is_some() {
                        self.last_replicate_seen.insert(key, ctx.now_us);
                    }
                }
                ctx.send(
                    from.addr,
                    Message::Ack {
                        rpc,
                        from: self.contact.clone(),
                    }
                    .encode_to_bytes(),
                );
            }
            Message::InvalidatePush {
                rpc,
                from,
                key,
                top_n,
                blob,
                entries,
                truncated,
                stamp,
            } => {
                // The push carries the holder's post-write view, so this
                // fetcher's cache slot converges in the same RTT — unlike
                // a digest entry, no revalidation RPC is ever needed.
                self.observe_stamp(stamp);
                if let Some(f) = self.fresh.as_mut() {
                    // Raising the book floor retires every other cached
                    // variant of the key at serve time (`fresh_admits`).
                    f.book.note(key, stamp);
                }
                // Guards mirror `CachePush`: never pin a pushed view over
                // an in-flight local write, and authoritative holders
                // reconcile through `Replicate` merges, not pushes.
                if !self.recently_wrote(&key, ctx.now_us) && !self.storage.contains(&key) {
                    if let Some(cache) = &mut self.cache {
                        let dropped = cache.invalidate_stale(&key, stamp);
                        self.cfg.counters.record_stale_drops(dropped.len() as u64);
                        cache.insert(
                            (key, top_n),
                            stamp,
                            FetchedValue {
                                blob,
                                entries,
                                truncated,
                                version: stamp,
                                from_cache: true,
                            },
                            ctx.now_us,
                        );
                    }
                }
                // `rpc == 0` marks an unacked push (the sender tracks only
                // a liveness sample of its fan-out).
                if rpc != 0 {
                    ctx.send(
                        from.addr,
                        Message::Ack {
                            rpc,
                            from: self.contact.clone(),
                        }
                        .encode_to_bytes(),
                    );
                }
            }
            Message::Ack { rpc, .. } => {
                let Some(pend) = self.pending.remove(&rpc) else {
                    return;
                };
                self.note_rpc_settled(&pend, ctx.now_us);
                if pend.op == REPAIR_OP {
                    // A tracked maintenance push landed; nothing more to do
                    // (the replica is alive, the timeout is settled).
                    return;
                }
                if pend.op == PUSH_OP {
                    // An invalidation push was received; the fetcher's view
                    // is reconciled and the timeout is settled.
                    return;
                }
                self.write_progress(ctx, pend.op, true);
            }
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
                return;
            }
            TIMER_EXPIRE => {
                if let Some(ttl) = self.cfg.record_ttl_us {
                    self.storage.expire(ctx.now_us, ttl);
                    ctx.set_timer(ttl / 2, TIMER_EXPIRE);
                }
                return;
            }
            TIMER_PROBE => {
                if let Some(m) = self.cfg.maintenance.clone() {
                    // The timer ticks at the tightest cadence; work happens
                    // only when the churn-scaled interval has elapsed, so a
                    // quiet overlay pays timer wakeups (free) instead of
                    // probes (datagrams), yet reacts within one min-tick
                    // when churn rises.
                    if ctx.now_us >= self.probe_due_us {
                        self.probe_tick(ctx);
                        let interval = self
                            .current_probe_interval_us(ctx.now_us)
                            .unwrap_or(m.probe_interval_us);
                        self.probe_due_us = ctx.now_us + interval;
                    }
                    ctx.set_timer(m.probe_tick_us(), TIMER_PROBE);
                }
                return;
            }
            TIMER_REPAIR => {
                if let Some(m) = self.cfg.maintenance.clone() {
                    let interval = self
                        .current_repair_interval_us(ctx.now_us)
                        .unwrap_or(m.repair_interval_us);
                    let budget = m.adaptive.as_ref().map(|a| a.repair_budget).unwrap_or(0);
                    if self.repair_cursor.is_some() {
                        // A budgeted pass is in progress: keep draining it
                        // at tick cadence until the cursor wraps.
                        self.repair_sweep_step(ctx, interval, budget);
                    } else if ctx.now_us >= self.repair_due_us {
                        self.repair_sweep_step(ctx, interval, budget);
                        self.repair_due_us = ctx.now_us + interval;
                    }
                    ctx.set_timer(m.repair_tick_us(), TIMER_REPAIR);
                }
                return;
            }
            TIMER_DEMOTE => {
                if let Some(interval) = self
                    .cfg
                    .maintenance
                    .as_ref()
                    .and_then(|m| m.demote_interval_us)
                {
                    self.demote_sweep(ctx, interval);
                    ctx.set_timer(interval, TIMER_DEMOTE);
                }
                return;
            }
            _ => {}
        }
        // Timer ids are RPC ids; a still-pending entry means timeout.
        let Some(pend) = self.pending.remove(&id) else {
            return; // reply beat the timer
        };
        if pend.op == REFRESH_OP {
            if let Some(f) = self.fresh.as_mut() {
                f.revalidating.remove(&id);
            }
        }
        if pend.op == PROBE_OP {
            // A liveness probe went unanswered: death confirmed. Evict the
            // contact (promoting the freshest replacement-cache entry) and
            // count the departure into the churn estimate.
            self.probing.remove(&pend.to.id);
            if self.routing.note_failure(&pend.to.id) {
                self.note_departure(ctx.now_us, 1.0);
            }
            if let Some(f) = self.fresh.as_mut() {
                f.hits.forget_peer(&pend.to.id);
                f.fetchers.forget_peer(&pend.to.id);
            }
            return;
        }
        let early = pend.timeout_us < self.cfg.rpc_timeout_us;
        if early || pend.first_sent_us < pend.sent_at_us {
            // An RTT-adaptive timer fired at ~β×srtt (or a retransmitted
            // attempt gave up): the reply may simply still be in flight,
            // or one datagram was lost on a live link. The lookup moves
            // on below, but the routing table keeps the contact — only
            // untouched full-timeout RPCs and liveness probes carry
            // enough evidence to evict and count a departure.
        } else if self.cfg.ping_before_evict {
            // The op moves on below, but the routing table only marks the
            // contact *suspect*: probe it, and evict on probe failure.
            self.probe_contact(ctx, pend.to.clone());
        } else if self.routing.note_failure(&pend.to.id) {
            self.note_departure(ctx.now_us, 1.0);
            if let Some(f) = self.fresh.as_mut() {
                f.hits.forget_peer(&pend.to.id);
                f.fetchers.forget_peer(&pend.to.id);
            }
        }
        let Some(op) = self.ops.get_mut(&pend.op) else {
            return;
        };
        match op.phase {
            Phase::Lookup => {
                // Adaptive α: a branch's *first* timeout is evidence of
                // loss on this op's path — widen *its* parallelism so
                // redundancy hides it. Later timers of the same branch
                // (retransmit backoff) carry no new evidence.
                if pend.first_sent_us == pend.sent_at_us {
                    if let Some(ctl) = op.alpha_ctl.as_mut() {
                        if ctl.on_timeout() {
                            self.cfg.counters.record_alpha_widened();
                        }
                        op.lookup.set_alpha(ctl.current());
                        self.last_alpha = ctl.current();
                    }
                }
                let next_timeout = (pend.timeout_us * 2).min(self.cfg.rpc_timeout_us);
                let branch_age = ctx.now_us.saturating_sub(pend.first_sent_us);
                if early && branch_age + next_timeout <= self.cfg.rpc_timeout_us {
                    // Fast retransmit with backoff: the RTT-adaptive timer
                    // fired, so the datagram was probably lost on a
                    // live-but-lossy link. Re-send the same query to the
                    // same contact with a doubled timeout instead of
                    // failing the branch — a crawl that marks every
                    // lost-datagram holder `Failed` can converge valueless
                    // and push the client into a second full attempt,
                    // doubling the tail. The branch's total patience stays
                    // within the conservative `rpc_timeout_us`.
                    let is_get = matches!(op.kind, OpKind::Get { .. });
                    let top_n = match op.kind {
                        OpKind::Get { top_n, .. } => top_n,
                        _ => 0,
                    };
                    let no_cache = op.bypass_cache;
                    let target = op.lookup.target();
                    op.messages += 1;
                    let rpc = self.next_rpc;
                    self.next_rpc += 1;
                    let msg = if is_get {
                        Message::FindValue {
                            rpc,
                            from: self.contact.clone(),
                            key: target,
                            top_n,
                            no_cache,
                        }
                    } else {
                        Message::FindNode {
                            rpc,
                            from: self.contact.clone(),
                            target,
                        }
                    };
                    self.pending.insert(
                        rpc,
                        PendingRpc {
                            op: pend.op,
                            to: pend.to.clone(),
                            sent_at_us: ctx.now_us,
                            timeout_us: next_timeout,
                            first_sent_us: pend.first_sent_us,
                        },
                    );
                    ctx.send(pend.to.addr, msg.encode_to_bytes());
                    ctx.set_timer(next_timeout, rpc);
                } else {
                    op.lookup.on_failure(&pend.to.id);
                    self.pump(ctx, pend.op);
                    // pump() completes converged lookups itself.
                }
            }
            Phase::Write { .. } => {
                self.write_progress(ctx, pend.op, false);
            }
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
        if let Some(book) = &self.rtt {
            out.push(Metric::new("rtt_contacts", book.len() as f64));
            out.push(Metric::new("rtt_samples", book.samples() as f64));
            if let Some(p50) = book.percentile_us(0.5) {
                out.push(Metric::new("rtt_p50_us", p50 as f64));
            }
            if let Some(p95) = book.percentile_us(0.95) {
                out.push(Metric::new("rtt_p95_us", p95 as f64));
            }
        }
        if self.adaptive_alpha() {
            out.push(Metric::new("lookup_alpha", self.last_alpha as f64));
        }
        out
    }
}

/// Re-exported for the DHARMA layer's convenience.
pub use crate::messages::FetchedValue as Value;

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_net::{SimConfig, SimNet};
    use dharma_types::{sha1, WireDecode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_net(n: usize, seed: u64) -> (SimNet<KademliaNode>, Vec<Contact>) {
        let mut net = SimNet::new(SimConfig {
            latency_min_us: 1_000,
            latency_max_us: 10_000,
            drop_rate: 0.0,
            mtu: 64 * 1024,
            seed,
            shards: 1,
            topology: None,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A2);
        let cfg = KadConfig {
            k: 8,
            alpha: 3,
            rpc_timeout_us: 500_000,
            reply_budget: 60_000,
            ..KadConfig::default()
        };
        let mut contacts = Vec::new();
        for i in 0..n {
            let id = Id160::random(&mut rng);
            let node = KademliaNode::new(id, i as NodeAddr, cfg.clone());
            let addr = net.add_node(node);
            contacts.push(Contact { id, addr });
        }
        // Everyone learns node 0, then bootstraps.
        for i in 1..n {
            net.node_mut(i as NodeAddr).add_seed(contacts[0].clone());
        }
        for i in 1..n {
            net.with_node(i as NodeAddr, |node, ctx| {
                node.bootstrap(ctx);
            });
        }
        net.run_until_idle(2_000_000);
        net.take_completions();
        (net, contacts)
    }

    /// Like [`build_net`], but on a geo-clustered topology with full
    /// latency awareness enabled on every node.
    fn build_latency_net(n: usize, seed: u64) -> (SimNet<KademliaNode>, Vec<Contact>) {
        let topo = dharma_net::TopologyConfig {
            clusters: 3,
            intra_us: (1_000, 4_000),
            inter_us: (10_000, 30_000),
            jitter_us: 1_000,
            base_loss: 0.0,
            lossy_cluster: None,
            lossy_loss: 0.0,
        };
        let mut net = SimNet::new(SimConfig {
            latency_min_us: topo.min_delay_us(),
            latency_max_us: 0,
            drop_rate: 0.0,
            mtu: 64 * 1024,
            seed,
            shards: 1,
            topology: Some(topo),
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A2);
        let cfg = KadConfig {
            k: 8,
            alpha: 3,
            rpc_timeout_us: 500_000,
            reply_budget: 60_000,
            latency: Some(LatencyConfig::default()),
            ..KadConfig::default()
        };
        let mut contacts = Vec::new();
        for i in 0..n {
            let id = Id160::random(&mut rng);
            let node = KademliaNode::new(id, i as NodeAddr, cfg.clone());
            let addr = net.add_node(node);
            contacts.push(Contact { id, addr });
        }
        for i in 1..n {
            net.node_mut(i as NodeAddr).add_seed(contacts[0].clone());
        }
        for i in 1..n {
            net.with_node(i as NodeAddr, |node, ctx| {
                node.bootstrap(ctx);
            });
        }
        net.run_until_idle(2_000_000);
        net.take_completions();
        (net, contacts)
    }

    #[test]
    fn latency_aware_overlay_records_rtt_and_serves_gets() {
        let (mut net, _contacts) = build_latency_net(20, 9);
        let counters = net.node(0).cfg.counters.clone();
        assert!(
            counters.rtt_samples() > 0,
            "bootstrap RPCs must feed the RTT books"
        );
        let key = sha1(b"latency:key");
        let op_put = net.with_node(3, |n, ctx| n.put_blob(ctx, key, b"v".to_vec()));
        net.run_until_idle(200_000);
        let put_done = net.take_completions().iter().any(|(id, out)| {
            *id == op_put && matches!(out, KadOutput::Written { acks, .. } if *acks >= 1)
        });
        assert!(put_done, "write must succeed on the topology net");
        let op_get = net.with_node(15, |n, ctx| n.get(ctx, key, 0));
        net.run_until_idle(200_000);
        let completions = net.take_completions();
        let got = completions
            .iter()
            .find(|(id, _)| *id == op_get)
            .expect("get completes");
        assert!(
            matches!(&got.1, KadOutput::Value { value: Some(_), .. }),
            "value found over the latency-aware overlay: {:?}",
            got.1
        );
        // Observability: the RTT book surfaces percentile gauges.
        let metrics = net.node(15).metrics();
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert!(names.contains(&"rtt_p50_us"), "metrics: {names:?}");
        assert!(names.contains(&"rtt_p95_us"));
        assert!(names.contains(&"lookup_alpha"));
        // Loss-free topology: α never widened beyond its floor.
        assert_eq!(net.node(15).current_alpha(), 3);
    }

    #[test]
    fn latency_aware_runs_are_deterministic() {
        // The latency path must be as reproducible as the classic one:
        // identical seeds give identical books, counters and tables.
        let (net_a, _) = build_latency_net(16, 77);
        let (net_b, _) = build_latency_net(16, 77);
        let ca = net_a.node(0).cfg.counters.clone();
        let cb = net_b.node(0).cfg.counters.clone();
        assert_eq!(ca.snapshot(), cb.snapshot());
        assert_eq!(ca.rtt_samples(), cb.rtt_samples());
        assert_eq!(ca.pns_evictions(), cb.pns_evictions());
        for i in 0..16u32 {
            assert_eq!(
                net_a.node(i).routing().len(),
                net_b.node(i).routing().len(),
                "node {i} routing diverged"
            );
            let (a, b) = (net_a.node(i).rtt().unwrap(), net_b.node(i).rtt().unwrap());
            assert_eq!(a.samples(), b.samples());
            assert_eq!(a.percentile_us(0.5), b.percentile_us(0.5));
        }
    }

    #[test]
    fn bootstrap_populates_routing_tables() {
        let (net, _contacts) = build_net(20, 1);
        for i in 0..20 {
            assert!(
                net.node(i).routing().len() >= 3,
                "node {i} knows only {} contacts",
                net.node(i).routing().len()
            );
        }
    }

    #[test]
    fn put_then_get_roundtrip() {
        let (mut net, _contacts) = build_net(20, 2);
        let key = sha1(b"res:nevermind|4");
        let op_put = net.with_node(3, |n, ctx| {
            n.put_blob(ctx, key, b"uri://nevermind".to_vec())
        });
        net.run_until_idle(100_000);
        let completions = net.take_completions();
        let put = completions.iter().find(|(id, _)| *id == op_put).unwrap();
        match &put.1 {
            KadOutput::Written { acks, targets, .. } => {
                assert!(*acks >= 1, "at least one replica stored");
                assert!(*targets >= 1);
            }
            other => panic!("unexpected output {other:?}"),
        }

        // Fetch from a different node.
        let op_get = net.with_node(15, |n, ctx| n.get(ctx, key, 0));
        net.run_until_idle(100_000);
        let completions = net.take_completions();
        let got = completions.iter().find(|(id, _)| *id == op_get).unwrap();
        match &got.1 {
            KadOutput::Value { value: Some(v), .. } => {
                assert_eq!(v.blob.as_deref(), Some(b"uri://nevermind".as_slice()));
            }
            other => panic!("value not found: {other:?}"),
        }
    }

    #[test]
    fn append_accumulates_across_writers() {
        let (mut net, _contacts) = build_net(16, 3);
        let key = sha1(b"tag:rock|3");
        // Two different nodes append to the same entry.
        let op1 = net.with_node(2, |n, ctx| n.append(ctx, key, "metal", 1));
        let op2 = net.with_node(9, |n, ctx| n.append(ctx, key, "metal", 1));
        net.run_until_idle(200_000);
        let completions = net.take_completions();
        assert!(completions.iter().any(|(id, _)| *id == op1));
        assert!(completions.iter().any(|(id, _)| *id == op2));

        let op_get = net.with_node(5, |n, ctx| n.get(ctx, key, 0));
        net.run_until_idle(100_000);
        let completions = net.take_completions();
        let got = completions.iter().find(|(id, _)| *id == op_get).unwrap();
        match &got.1 {
            KadOutput::Value { value: Some(v), .. } => {
                let metal = v.entries.iter().find(|e| e.name == "metal").unwrap();
                assert_eq!(metal.weight, 2, "appends from both writers merged");
            }
            other => panic!("value not found: {other:?}"),
        }
    }

    #[test]
    fn get_missing_key_completes_with_none() {
        let (mut net, _contacts) = build_net(12, 4);
        let op = net.with_node(1, |n, ctx| n.get(ctx, sha1(b"missing"), 0));
        net.run_until_idle(100_000);
        let completions = net.take_completions();
        let got = completions.iter().find(|(id, _)| *id == op).unwrap();
        assert!(matches!(got.1, KadOutput::Value { value: None, .. }));
    }

    #[test]
    fn filtered_get_returns_top_n() {
        let (mut net, _contacts) = build_net(12, 5);
        let key = sha1(b"tag:rock|3");
        for (i, name) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            let tokens = (i as u64 + 1) * 10;
            net.with_node(0, |n, ctx| n.append(ctx, key, name, tokens));
            net.run_until_idle(200_000);
        }
        net.take_completions();
        let op = net.with_node(7, |n, ctx| n.get(ctx, key, 2));
        net.run_until_idle(100_000);
        let completions = net.take_completions();
        let got = completions.iter().find(|(id, _)| *id == op).unwrap();
        match &got.1 {
            KadOutput::Value { value: Some(v), .. } => {
                assert_eq!(v.entries.len(), 2);
                assert_eq!(v.entries[0].name, "e");
                assert_eq!(v.entries[1].name, "d");
                assert!(v.truncated);
            }
            other => panic!("value not found: {other:?}"),
        }
    }

    #[test]
    fn lookups_survive_node_failures() {
        let (mut net, _contacts) = build_net(20, 6);
        let key = sha1(b"durable");
        net.with_node(0, |n, ctx| n.put_blob(ctx, key, b"v".to_vec()));
        net.run_until_idle(200_000);
        net.take_completions();
        // Crash a third of the network.
        for addr in [2u32, 5, 8, 11, 14, 17] {
            net.crash(addr);
        }
        let op = net.with_node(1, |n, ctx| n.get(ctx, key, 0));
        net.run_until_idle(3_000_000);
        let completions = net.take_completions();
        let got = completions.iter().find(|(id, _)| *id == op);
        match got {
            Some((_, KadOutput::Value { value: Some(_), .. })) => {}
            other => panic!("replicated value should survive: {other:?}"),
        }
    }

    #[test]
    fn single_node_network_degrades_gracefully() {
        let mut net: SimNet<KademliaNode> = SimNet::new(SimConfig::default());
        let id = sha1(b"loner");
        net.add_node(KademliaNode::new(id, 0, KadConfig::default()));
        let key = sha1(b"k");
        let op_put = net.with_node(0, |n, ctx| n.append(ctx, key, "x", 1));
        net.run_until_idle(10_000);
        let completions = net.take_completions();
        let put = completions.iter().find(|(i, _)| *i == op_put).unwrap();
        assert!(matches!(put.1, KadOutput::Written { targets: 1, .. }));
        // Local fast-path read.
        let op_get = net.with_node(0, |n, ctx| n.get(ctx, key, 0));
        net.run_until_idle(10_000);
        let completions = net.take_completions();
        let got = completions.iter().find(|(i, _)| *i == op_get).unwrap();
        match &got.1 {
            KadOutput::Value {
                value: Some(v),
                messages,
            } => {
                assert_eq!(*messages, 0, "local read needs no messages");
                assert_eq!(v.entries[0].name, "x");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Like [`build_net`] but with hot-block caching (and optionally
    /// adaptive replication) enabled on every node. Returns the shared
    /// counters handle all nodes record into.
    fn build_cached_net(
        n: usize,
        k: usize,
        seed: u64,
        replication: Option<PopularityConfig>,
    ) -> (SimNet<KademliaNode>, NetCounters) {
        let mut net = SimNet::new(SimConfig {
            latency_min_us: 1_000,
            latency_max_us: 10_000,
            drop_rate: 0.0,
            mtu: 64 * 1024,
            seed,
            shards: 1,
            topology: None,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A2);
        let counters = NetCounters::new();
        let cfg = KadConfig {
            k,
            alpha: 3,
            rpc_timeout_us: 500_000,
            reply_budget: 60_000,
            cache: Some(CacheConfig {
                capacity: 64,
                ttl_us: 3_600_000_000,
            }),
            replication,
            counters: counters.clone(),
            ..KadConfig::default()
        };
        let mut contacts = Vec::new();
        for i in 0..n {
            let id = Id160::random(&mut rng);
            let node = KademliaNode::new(id, i as NodeAddr, cfg.clone());
            let addr = net.add_node(node);
            contacts.push(Contact { id, addr });
        }
        for i in 1..n {
            net.node_mut(i as NodeAddr).add_seed(contacts[0].clone());
        }
        for i in 1..n {
            net.with_node(i as NodeAddr, |node, ctx| {
                node.bootstrap(ctx);
            });
        }
        net.run_until_idle(2_000_000);
        net.take_completions();
        (net, counters)
    }

    fn get_value(
        net: &mut SimNet<KademliaNode>,
        addr: NodeAddr,
        key: Id160,
        top_n: u32,
    ) -> (Option<FetchedValue>, u32) {
        let op = net.with_node(addr, |n, ctx| n.get(ctx, key, top_n));
        net.run_until_idle(1_000_000);
        let completions = net.take_completions();
        let got = completions.into_iter().find(|(id, _)| *id == op).unwrap();
        match got.1 {
            KadOutput::Value { value, messages } => (value, messages),
            other => panic!("unexpected output {other:?}"),
        }
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

    /// Like [`build_net`] but with the churn-maintenance loop enabled on
    /// every node (and optional cache/replication), sharing one counter
    /// set. Bootstrap runs time-bounded: maintenance timers re-arm
    /// forever, so `run_until_idle` would never drain.
    fn build_maint_net(
        n: usize,
        k: usize,
        seed: u64,
        maint: MaintConfig,
        cache: Option<CacheConfig>,
        replication: Option<PopularityConfig>,
    ) -> (SimNet<KademliaNode>, Vec<Contact>, NetCounters) {
        let mut net = SimNet::new(SimConfig {
            latency_min_us: 1_000,
            latency_max_us: 10_000,
            drop_rate: 0.0,
            mtu: 64 * 1024,
            seed,
            shards: 1,
            topology: None,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A2);
        let counters = NetCounters::new();
        let cfg = KadConfig {
            k,
            alpha: 3,
            rpc_timeout_us: 300_000,
            reply_budget: 60_000,
            cache,
            replication,
            maintenance: Some(maint),
            counters: counters.clone(),
            ..KadConfig::default()
        };
        let mut contacts = Vec::new();
        for i in 0..n {
            let id = Id160::random(&mut rng);
            let node = KademliaNode::new(id, i as NodeAddr, cfg.clone());
            let addr = net.add_node(node);
            contacts.push(Contact { id, addr });
        }
        for i in 1..n {
            net.node_mut(i as NodeAddr).add_seed(contacts[0].clone());
        }
        for i in 1..n {
            net.with_node(i as NodeAddr, |node, ctx| {
                node.bootstrap(ctx);
            });
        }
        net.run_until(2_000_000);
        net.take_completions();
        (net, contacts, counters)
    }

    fn holders(net: &SimNet<KademliaNode>, key: &Id160) -> Vec<u32> {
        (0..net.len() as u32)
            .filter(|&a| !net.is_removed(a) && net.node(a).storage().contains(key))
            .collect()
    }

    #[test]
    fn probe_round_evicts_removed_contacts_everywhere() {
        let maint = MaintConfig {
            probe_interval_us: 200_000,
            repair_interval_us: 10_000_000,
            join_handoff: false,
            demote_interval_us: None,
            adaptive: None,
        };
        let (mut net, contacts, counters) = build_maint_net(16, 8, 70, maint, None, None);
        // Two nodes depart for good.
        let gone = [5u32, 11];
        for &g in &gone {
            net.remove(g);
        }
        // Let the liveness loop cycle through every bucket several times
        // (each tick probes one contact; failed probes evict).
        net.run_until(40_000_000);
        assert!(counters.probes_sent() > 0, "the probe loop must run");
        for a in 0..16u32 {
            if gone.contains(&a) {
                continue;
            }
            for &g in &gone {
                assert!(
                    !net.node(a).routing().contains(&contacts[g as usize].id),
                    "node {a} still routes to removed node {g} after probe rounds"
                );
            }
        }
    }

    #[test]
    fn live_contacts_survive_probe_rounds() {
        let maint = MaintConfig {
            probe_interval_us: 200_000,
            repair_interval_us: 10_000_000_000,
            join_handoff: false,
            demote_interval_us: None,
            adaptive: None,
        };
        let (mut net, _contacts, counters) = build_maint_net(12, 8, 71, maint, None, None);
        let known_before: Vec<usize> = (0..12u32).map(|a| net.node(a).routing().len()).collect();
        net.run_until(20_000_000);
        assert!(counters.probes_sent() > 50);
        for a in 0..12u32 {
            assert_eq!(
                net.node(a).routing().len(),
                known_before[a as usize],
                "probing a healthy overlay must not shrink node {a}'s table"
            );
        }
    }

    #[test]
    fn join_handoff_transfers_keys_to_newcomer() {
        let maint = MaintConfig {
            probe_interval_us: 1_000_000,
            repair_interval_us: 10_000_000_000, // effectively off: isolate handoff
            join_handoff: true,
            demote_interval_us: None,
            adaptive: None,
        };
        let (mut net, contacts, counters) = build_maint_net(16, 4, 72, maint, None, None);
        let key = sha1(b"handed-off");
        net.with_node(2, |n, ctx| n.append(ctx, key, "rock", 7));
        net.run_until(4_000_000);
        net.take_completions();
        assert!(!holders(&net, &key).is_empty());

        // A newcomer whose id is the key itself joins: it is by definition
        // among the k closest, so its neighbors must hand the block over.
        let cfg = KadConfig {
            k: 4,
            alpha: 3,
            rpc_timeout_us: 300_000,
            reply_budget: 60_000,
            maintenance: Some(MaintConfig {
                join_handoff: true,
                ..MaintConfig::default()
            }),
            ..KadConfig::default()
        };
        let addr = net.len() as NodeAddr;
        let newcomer = KademliaNode::new(key, addr, cfg);
        let spawned = net.spawn(newcomer);
        assert_eq!(spawned, addr);
        net.node_mut(spawned).add_seed(contacts[0].clone());
        net.with_node(spawned, |n, ctx| {
            n.bootstrap(ctx);
        });
        net.run_until(10_000_000);
        assert!(
            net.node(spawned).storage().contains(&key),
            "the joining node must receive the block it is now closest to"
        );
        assert!(counters.handoffs() > 0);
        assert_eq!(
            net.node(spawned).storage().weight(&key, "rock"),
            7,
            "handoff carries the merge-max snapshot"
        );
    }

    #[test]
    fn repair_sweep_restores_replicas_after_departures() {
        let maint = MaintConfig {
            probe_interval_us: 500_000,
            repair_interval_us: 3_000_000,
            join_handoff: true,
            demote_interval_us: None,
            adaptive: None,
        };
        let (mut net, _contacts, counters) = build_maint_net(20, 5, 73, maint, None, None);
        let key = sha1(b"repaired");
        net.with_node(1, |n, ctx| n.append(ctx, key, "rock", 3));
        net.run_until(4_000_000);
        net.take_completions();
        let before = holders(&net, &key);
        assert!(before.len() >= 5, "k = 5 replicas placed");

        // Most of the replica set departs permanently (keep one survivor).
        for &h in before.iter().skip(1) {
            if h != 1 {
                net.remove(h);
            }
        }
        let survivors = holders(&net, &key).len();
        assert!(survivors <= 2);

        // Several repair intervals later the survivor has re-pushed the
        // block to the (new) k closest live nodes.
        net.run_until(30_000_000);
        let after = holders(&net, &key);
        assert!(
            after.len() >= 5,
            "repair must restore the replica set: {survivors} -> {}",
            after.len()
        );
        assert!(counters.rereplications() > 0);
        // Merge-max all along: no weight inflation anywhere.
        for a in after {
            assert_eq!(net.node(a).storage().weight(&key, "rock"), 3);
        }
    }

    #[test]
    fn demotion_reclaims_cold_promoted_replicas() {
        let replication = PopularityConfig {
            half_life_us: 2_000_000,
            hot_threshold: 2.0,
            max_extra_replicas: 10,
            max_tracked: 1024,
            promote_cooldown_us: 1_000,
        };
        let maint = MaintConfig {
            probe_interval_us: 1_000_000,
            repair_interval_us: 10_000_000_000, // off: repair would re-stamp refresh times
            join_handoff: false,
            demote_interval_us: Some(4_000_000),
            adaptive: None,
        };
        let (mut net, _contacts, counters) = build_maint_net(
            24,
            4,
            74,
            maint,
            Some(CacheConfig {
                capacity: 64,
                ttl_us: 1_000_000,
            }),
            Some(replication),
        );
        let key = sha1(b"briefly-viral");
        net.with_node(0, |n, ctx| n.append(ctx, key, "meme", 1));
        net.run_until(4_000_000);
        net.take_completions();
        let base = holders(&net, &key).len();

        // Hammer the key from every node (twice, outliving the cache TTL
        // so repeats reach the holders) to promote it well beyond k.
        for _round in 0..2 {
            for a in 0..24u32 {
                net.with_node(a, |n, ctx| {
                    n.get(ctx, key, 0);
                });
                net.run_until(net.now_us() + 200_000);
            }
        }
        net.take_completions();
        let promoted = holders(&net, &key).len();
        // Demotion spares replicas up to k + REPLICA_SLACK (= 6 here); the
        // hot key must overshoot that floor for the reclaim to be visible.
        assert!(
            promoted > 6,
            "hot key must gain replicas beyond k + slack: {base} -> {promoted}"
        );

        // The fad passes: no more GETs. Popularity decays (half-life 2 s),
        // and the demotion sweeps reclaim the beyond-k-plus-slack copies.
        net.run_until(net.now_us() + 60_000_000);
        let after = holders(&net, &key).len();
        assert!(
            after < promoted,
            "cold beyond-k replicas must be reclaimed: {promoted} -> {after}"
        );
        assert!(counters.replicas_demoted() > 0);
        // The authoritative set (k closest + slack) keeps the block.
        assert!(after >= base.min(4), "k closest keep the block: {after}");
    }

    /// Decodes the `Replicate` keys queued in a test context's sends.
    fn replicate_keys(sends: &[dharma_net::OutMessage]) -> Vec<Id160> {
        sends
            .iter()
            .filter_map(|m| match Message::decode_exact(&m.payload) {
                Ok(Message::Replicate { key, .. }) => Some(key),
                _ => None,
            })
            .collect()
    }

    fn adapt_cfg() -> AdaptConfig {
        AdaptConfig {
            probe_min_us: 1_000_000,
            probe_max_us: 8_000_000,
            repair_min_us: 2_000_000,
            repair_max_us: 20_000_000,
            half_life_us: 5_000_000,
            hot_weight: 4.0,
            leave_weight: 1.0,
            repair_budget: 1,
        }
    }

    #[test]
    fn adaptive_cadence_tracks_observed_departures() {
        let cfg = KadConfig {
            k: 8,
            maintenance: Some(MaintConfig {
                adaptive: Some(adapt_cfg()),
                ..MaintConfig::default()
            }),
            ..KadConfig::default()
        };
        let mut node = KademliaNode::new(sha1(b"adaptive"), 0, cfg);
        let a = adapt_cfg();

        // Quiet overlay: cadence coasts at the max bounds.
        assert_eq!(node.current_probe_interval_us(0), Some(a.probe_max_us));
        assert_eq!(node.current_repair_interval_us(0), Some(a.repair_max_us));

        // A burst of observed departures pins the cadence to the min
        // bounds (leave_weight is 1.0 here, so 5 notices cross hot_weight).
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 1);
        for i in 0..5u8 {
            let from = Contact {
                id: sha1(&[i]),
                addr: u32::from(i) + 10,
            };
            // Known contact first, so the Leave also exercises the purge.
            node.on_message(
                &mut ctx,
                from.addr,
                Message::Ping {
                    rpc: 1,
                    from: from.clone(),
                }
                .encode_to_bytes(),
            );
            assert!(node.routing().contains(&from.id));
            node.on_message(
                &mut ctx,
                from.addr,
                Message::Leave {
                    rpc: 2,
                    from: from.clone(),
                }
                .encode_to_bytes(),
            );
            assert!(
                !node.routing().contains(&from.id),
                "Leave purges the sender immediately"
            );
        }
        assert!(node.churn_weight(1_000) >= 4.0);
        assert_eq!(node.current_probe_interval_us(1_000), Some(a.probe_min_us));
        assert_eq!(
            node.current_repair_interval_us(1_000),
            Some(a.repair_min_us)
        );

        // The estimate decays: several half-lives later the cadence has
        // relaxed back toward the max bounds.
        let later = 1_000 + 6 * a.half_life_us;
        assert!(node.current_probe_interval_us(later).unwrap() > 6_000_000);
        assert!(node.current_repair_interval_us(later).unwrap() > 15_000_000);
    }

    #[test]
    fn leave_tombstone_blocks_reinsertion_of_the_corpse() {
        let cfg = KadConfig {
            k: 8,
            ..KadConfig::default()
        };
        let mut node = KademliaNode::new(sha1(b"keeper"), 0, cfg);
        let ghost = Contact {
            id: sha1(b"ghost"),
            addr: 9,
        };
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        node.on_message(
            &mut ctx,
            9,
            Message::Leave {
                rpc: 1,
                from: ghost.clone(),
            }
            .encode_to_bytes(),
        );
        // A straggler from the corpse itself...
        node.on_message(
            &mut ctx,
            9,
            Message::Ping {
                rpc: 2,
                from: ghost.clone(),
            }
            .encode_to_bytes(),
        );
        assert!(!node.routing().contains(&ghost.id), "straggler ignored");
        // ...and a third party still naming it in a FoundNodes reply.
        node.on_message(
            &mut ctx,
            7,
            Message::FoundNodes {
                rpc: 3,
                from: Contact {
                    id: sha1(b"third"),
                    addr: 7,
                },
                contacts: vec![ghost.clone()],
                digest: vec![],
            }
            .encode_to_bytes(),
        );
        assert!(!node.routing().contains(&ghost.id), "hearsay ignored too");
        // Once the tombstone lapses, the id may be learned again (a real
        // rejoin with the same id, however unlikely, is not banned forever).
        let mut ctx: Ctx<KadOutput> = Ctx::new(DEPART_TOMBSTONE_US + 1_000, 0, 2);
        node.on_message(
            &mut ctx,
            9,
            Message::Ping {
                rpc: 4,
                from: ghost.clone(),
            }
            .encode_to_bytes(),
        );
        assert!(node.routing().contains(&ghost.id));
    }

    #[test]
    fn budgeted_repair_pass_covers_every_key_across_ticks() {
        let cfg = KadConfig {
            k: 4,
            maintenance: Some(MaintConfig {
                adaptive: Some(adapt_cfg()),
                ..MaintConfig::default()
            }),
            ..KadConfig::default()
        };
        let mut node = KademliaNode::new(sha1(b"holder"), 0, cfg);
        let keys: Vec<Id160> = (0..3u8).map(|i| sha1(&[b'k', i])).collect();
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        for key in &keys {
            // Empty routing table: the write applies locally and completes.
            node.append(&mut ctx, *key, "x", 1);
        }
        node.add_seed(Contact {
            id: sha1(b"peer"),
            addr: 1,
        });

        // Budget 1: the pass takes three ticks, carrying the cursor over.
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
        node.repair_sweep_step(&mut ctx, 1_000_000, 1);
        assert!(node.repair_cursor.is_some(), "partial pass keeps a cursor");
        node.repair_sweep_step(&mut ctx, 1_000_000, 1);
        node.repair_sweep_step(&mut ctx, 1_000_000, 1);
        assert!(node.repair_cursor.is_none(), "pass completed");
        let (sends, _, _) = ctx.into_effects();
        let mut pushed = replicate_keys(&sends);
        pushed.sort_unstable();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(pushed, expect, "every key pushed exactly once per pass");
    }

    #[test]
    fn replicate_does_not_resurrect_expired_records() {
        let cfg = KadConfig {
            record_ttl_us: Some(2_000_000),
            ..KadConfig::default()
        };
        let mut node = KademliaNode::new(sha1(b"ttl-node"), 0, cfg);
        let key = sha1(b"zombie");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        node.append(&mut ctx, key, "rock", 3); // local apply, refreshed at 0
        assert!(node.storage().contains(&key));

        let peer = Contact {
            id: sha1(b"pusher"),
            addr: 1,
        };
        let snapshot = vec![StoredEntry {
            name: "rock".into(),
            weight: 3,
        }];
        // Past the TTL but before the expiry sweep: the repair push used to
        // bump `refreshed_us` and revive the record indefinitely.
        let mut ctx: Ctx<KadOutput> = Ctx::new(2_500_000, 0, 2);
        node.on_message(
            &mut ctx,
            1,
            Message::Replicate {
                rpc: 1,
                from: peer.clone(),
                key,
                blob: None,
                entries: snapshot.clone(),
                stamp: st(1),
            }
            .encode_to_bytes(),
        );
        assert!(
            !node.storage().contains(&key),
            "an expired record is dropped, not refreshed, by incoming repair"
        );

        // A key the node never held is accepted normally — repair onto new
        // replicas must keep working.
        let fresh = sha1(b"fresh-replica");
        node.on_message(
            &mut ctx,
            1,
            Message::Replicate {
                rpc: 2,
                from: peer,
                key: fresh,
                blob: None,
                entries: snapshot,
                stamp: st(2),
            }
            .encode_to_bytes(),
        );
        assert!(node.storage().contains(&fresh));
        assert_eq!(
            node.storage().get(&fresh).unwrap().refreshed_us,
            2_500_000,
            "accepted replicas start a fresh TTL clock"
        );
    }

    #[test]
    fn maintenance_never_pushes_expired_records() {
        let cfg = KadConfig {
            k: 4,
            record_ttl_us: Some(2_000_000),
            ..KadConfig::default()
        };
        let mut node = KademliaNode::new(sha1(b"gated"), 0, cfg);
        let key = sha1(b"stale");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        node.append(&mut ctx, key, "x", 1);
        node.add_seed(Contact {
            id: sha1(b"peer"),
            addr: 1,
        });

        // Republish after the TTL: the zombie is dropped, nothing is sent
        // (previously the coordinator's own merge re-stamped the clock and
        // the k closest received a resurrecting snapshot).
        let mut ctx: Ctx<KadOutput> = Ctx::new(3_000_000, 0, 2);
        let ops = node.republish_all(&mut ctx);
        assert!(ops.is_empty(), "no republish op for an expired key");
        assert!(!node.storage().contains(&key), "lazy-expired instead");
        let (sends, _, _) = ctx.into_effects();
        assert!(replicate_keys(&sends).is_empty());

        // Same gate on the repair sweep.
        let mut node = KademliaNode::new(
            sha1(b"gated-2"),
            0,
            KadConfig {
                k: 4,
                record_ttl_us: Some(2_000_000),
                maintenance: Some(MaintConfig::default()),
                ..KadConfig::default()
            },
        );
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 3);
        node.append(&mut ctx, key, "x", 1);
        node.add_seed(Contact {
            id: sha1(b"peer"),
            addr: 1,
        });
        let mut ctx: Ctx<KadOutput> = Ctx::new(3_000_000, 0, 4);
        node.repair_sweep_step(&mut ctx, 1_000_000, 0);
        assert!(!node.storage().contains(&key));
        let (sends, _, _) = ctx.into_effects();
        assert!(replicate_keys(&sends).is_empty());
    }

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
    fn graceful_leave_hands_off_keys_and_purges_tables() {
        let maint = MaintConfig {
            probe_interval_us: 10_000_000_000, // probes off: isolate the leave
            repair_interval_us: 10_000_000_000,
            join_handoff: false,
            demote_interval_us: None,
            adaptive: None,
        };
        let (mut net, _contacts, counters) = build_maint_net(16, 5, 80, maint, None, None);
        let key = sha1(b"carried");
        net.with_node(2, |n, ctx| n.append(ctx, key, "rock", 4));
        net.run_until(4_000_000);
        net.take_completions();
        let before = holders(&net, &key);
        assert!(before.len() >= 5);

        // One replica departs gracefully.
        let leaver = before[0];
        let corpse = net
            .leave(leaver, |n, ctx| n.leave(ctx))
            .expect("first leave returns the corpse");
        let knew: Vec<Id160> = corpse.routing().iter().map(|c| c.id).collect();
        assert!(net.is_removed(leaver));
        assert!(counters.leave_notices() > 0);
        assert!(counters.leave_handoffs() > 0);

        // The parting handoff lands without any repair sweep: the replica
        // set is whole again, weights intact (merge-max).
        net.run_until(net.now_us() + 2_000_000);
        let after = holders(&net, &key);
        assert!(
            after.len() >= 5,
            "parting handoff must restore the replica set: {} -> {}",
            before.len(),
            after.len()
        );
        for a in &after {
            assert_eq!(net.node(*a).storage().weight(&key, "rock"), 4);
        }
        assert_eq!(counters.rereplications(), 0, "no repair sweep needed");

        // Everyone the leaver notified purged it without a probe round.
        let leaver_id = corpse.contact().id;
        for a in 0..16u32 {
            if net.is_removed(a) || !knew.contains(&net.node(a).contact().id) {
                continue;
            }
            assert!(
                !net.node(a).routing().contains(&leaver_id),
                "node {a} still routes to the gracefully departed node"
            );
        }
    }

    // ----- dharma-fresh: version gossip & cache-aware routing ----------

    fn contact(n: u8) -> Contact {
        Contact {
            id: sha1(&[n]),
            addr: u32::from(n),
        }
    }

    fn fresh_cfg(ttl_us: u64) -> KadConfig {
        KadConfig {
            k: 8,
            cache: Some(CacheConfig {
                capacity: 64,
                ttl_us,
            }),
            freshness: Some(dharma_cache::FreshConfig::default()),
            ..KadConfig::default()
        }
    }

    /// A minted-elsewhere stamp for hand-built test messages: `seq` with a
    /// fixed foreign writer id, so ordering follows `seq`.
    fn st(seq: u64) -> VersionStamp {
        VersionStamp::new(seq, sha1(b"remote-writer"))
    }

    fn push_view(node: &mut KademliaNode, ctx: &mut Ctx<KadOutput>, key: Id160, version: u64) {
        node.on_message(
            ctx,
            1,
            Message::CachePush {
                rpc: 900,
                from: contact(9),
                key,
                top_n: 0,
                blob: None,
                entries: vec![StoredEntry {
                    name: "rock".into(),
                    weight: version,
                }],
                truncated: false,
                version: st(version),
            }
            .encode_to_bytes(),
        );
    }

    /// Issues a GET at `now_us`. `Some(value)` when it completed within
    /// the same callback (a local serve — cache hit, or a value-less
    /// convergence on a peerless node); `None` when it went to the
    /// network, i.e. was *not* served from the local cache.
    fn try_local_get(
        node: &mut KademliaNode,
        now_us: u64,
        key: Id160,
    ) -> Option<Option<FetchedValue>> {
        let mut ctx: Ctx<KadOutput> = Ctx::new(now_us, 0, 99);
        let op = node.get(&mut ctx, key, 0);
        let (_, _, completions) = ctx.into_effects();
        for (id, out) in completions {
            if id == op {
                if let KadOutput::Value { value, .. } = out {
                    return Some(value);
                }
            }
        }
        None
    }

    #[test]
    fn stale_digest_drops_the_cached_view_and_revalidates() {
        let counters = NetCounters::new();
        let mut node = KademliaNode::new(
            sha1(b"gossip-node"),
            0,
            KadConfig {
                counters: counters.clone(),
                ..fresh_cfg(3_600_000_000)
            },
        );
        let key = sha1(b"gossiped-block");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        push_view(&mut node, &mut ctx, key, 3);
        let served = try_local_get(&mut node, 500, key)
            .expect("cache hit completes locally")
            .expect("view present");
        assert!(served.from_cache, "the pushed view serves locally");

        // A digest names version 5: the view is stale. It must be dropped
        // and a direct revalidation FindValue sent to the digest sender.
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
        node.on_message(
            &mut ctx,
            7,
            Message::Pong {
                rpc: 77,
                from: contact(7),
                digest: vec![DigestEntry {
                    key,
                    version: st(5),
                }],
            }
            .encode_to_bytes(),
        );
        assert_eq!(counters.stale_drops(), 1, "the stale view is dropped");
        assert_eq!(counters.revalidations(), 1);
        let (sends, timers, _) = ctx.into_effects();
        let reval = sends
            .iter()
            .find_map(|m| match Message::decode_exact(&m.payload) {
                Ok(Message::FindValue {
                    rpc,
                    key: k,
                    no_cache,
                    ..
                }) if k == key => Some((m.to, rpc, no_cache)),
                _ => None,
            })
            .expect("a revalidation FindValue is sent");
        assert_eq!(reval.0, 7, "sent to the digest sender");
        assert!(reval.2, "revalidation demands authoritative service");
        assert!(timers.iter().any(|&(_, id)| id == reval.1), "rpc tracked");

        // Monotone freshness: until the refresh lands, the key must not be
        // served from cache — the GET reads through to the network.
        assert!(
            try_local_get(&mut node, 2_000, key).is_none(),
            "no cached view may be served below the gossiped version"
        );

        // The refresh reply re-pins the view at the new version.
        let mut ctx: Ctx<KadOutput> = Ctx::new(3_000, 0, 4);
        node.on_message(
            &mut ctx,
            7,
            Message::FoundValue {
                rpc: reval.1,
                from: contact(7),
                blob: None,
                entries: vec![StoredEntry {
                    name: "rock".into(),
                    weight: 5,
                }],
                truncated: false,
                version: st(5),
                from_cache: false,
                digest: vec![],
            }
            .encode_to_bytes(),
        );
        let v = try_local_get(&mut node, 4_000, key)
            .expect("refreshed view serves locally")
            .expect("view present");
        assert!(v.from_cache);
        assert_eq!(
            v.version,
            st(5),
            "the refreshed view carries the new version"
        );
    }

    #[test]
    fn late_found_value_still_settles_its_rpc_and_feeds_liveness_rtt_and_gossip() {
        // A GET asks α = 3 holders and completes on the first answer; the
        // other two answers are decoded without their blob and entries.
        // Everything else a reply is good for must still happen.
        let mut node = KademliaNode::new(
            sha1(b"requester"),
            0,
            KadConfig {
                latency: Some(LatencyConfig::default()),
                ..fresh_cfg(3_600_000_000)
            },
        );
        for n in 1..=3 {
            node.add_seed(contact(n));
        }
        let key = sha1(b"block");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        let op = node.get(&mut ctx, key, 0);
        let (sends, _, _) = ctx.into_effects();
        let asked: Vec<(u64, Contact)> = sends
            .iter()
            .map(|m| match Message::decode_exact(&m.payload) {
                Ok(Message::FindValue { rpc, .. }) => (rpc, contact(m.to as u8)),
                other => panic!("a GET sends FindValue, not {other:?}"),
            })
            .collect();
        assert_eq!(asked.len(), 3);
        let gossiped = sha1(b"some-other-block");
        let reply = |(rpc, from): &(u64, Contact), weight: u64| Message::FoundValue {
            rpc: *rpc,
            from: from.clone(),
            blob: Some(b"uri://x".to_vec()),
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight,
            }],
            truncated: false,
            version: st(weight),
            from_cache: false,
            digest: vec![DigestEntry {
                key: gossiped,
                version: st(40 + weight),
            }],
        };
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
        node.on_message(&mut ctx, 1, reply(&asked[0], 1).encode_to_bytes());
        let (_, _, completions) = ctx.into_effects();
        assert!(
            matches!(&completions[..], [(id, KadOutput::Value { value: Some(v), .. })]
                if *id == op && v.entries[0].weight == 1 && v.blob.is_some()),
            "the first answer completes the GET, body and all: {completions:?}",
        );

        // The second holder's answer arrives late. Forget the holder first,
        // so that noting it again is observable.
        let (late_rpc, late) = asked[1].clone();
        assert!(node.routing.note_failure(&late.id));
        let samples = node.rtt().unwrap().samples();
        let late_reply = reply(&asked[1], 2).encode_to_bytes();

        // Skipped is not unchecked: the same reply with a name that is not
        // UTF-8 is a malformed datagram, dropped whole as it always was.
        let mut bent = late_reply.to_vec();
        let name_at = bent.windows(4).position(|w| w == b"rock").unwrap();
        bent[name_at] = 0xff;
        let mut ctx: Ctx<KadOutput> = Ctx::new(4_000, 0, 3);
        node.on_message(&mut ctx, 2, Bytes::from(bent));
        assert!(node.pending.contains_key(&late_rpc) && !node.routing.contains(&late.id));

        let mut ctx: Ctx<KadOutput> = Ctx::new(5_000, 0, 4);
        node.on_message(&mut ctx, 2, late_reply);
        let (sends, _, completions) = ctx.into_effects();
        assert!(
            sends.is_empty() && completions.is_empty(),
            "nothing left to do"
        );
        assert!(node.routing.contains(&late.id), "the sender is noted live");
        assert!(!node.pending.contains_key(&late_rpc), "the RPC is settled");
        let rtt = node.rtt().unwrap();
        assert_eq!(rtt.samples(), samples + 1, "its round trip is a sample");
        assert_eq!(rtt.estimate_us(&late.id), Some(5_000));
        let book = &node.fresh.as_ref().unwrap().book;
        assert_eq!(
            book.highest(&gossiped),
            Some(st(42)),
            "its digest is absorbed"
        );
        // Settled means settled: the RPC's timer finds nothing to evict.
        let mut ctx: Ctx<KadOutput> = Ctx::new(500_000, 0, 5);
        node.on_timer(&mut ctx, late_rpc);
        assert!(node.routing.contains(&late.id));
    }

    #[test]
    fn fresh_digest_confirmation_lets_views_outlive_the_ttl() {
        let mut node = KademliaNode::new(sha1(b"confirming"), 0, fresh_cfg(1_000_000));
        let key = sha1(b"warm-block");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        push_view(&mut node, &mut ctx, key, 4);

        // Just before expiry, a digest confirms the view is still current.
        let mut ctx: Ctx<KadOutput> = Ctx::new(900_000, 0, 2);
        node.on_message(
            &mut ctx,
            7,
            Message::Pong {
                rpc: 7,
                from: contact(7),
                digest: vec![DigestEntry {
                    key,
                    version: st(4),
                }],
            }
            .encode_to_bytes(),
        );

        // Past the original TTL the view still serves: the confirmation
        // restamped its clock without widening staleness (the version is
        // provably current as of the confirmation).
        let v = try_local_get(&mut node, 1_500_000, key)
            .expect("confirmed view outlives the TTL")
            .expect("view present");
        assert!(v.from_cache);

        // Without further confirmations the extended clock runs out too.
        assert!(
            !matches!(try_local_get(&mut node, 2_500_000, key), Some(Some(_))),
            "the extension is not an immortality pass"
        );
    }

    #[test]
    fn digest_lists_news_and_keys_near_the_target() {
        let mut node = KademliaNode::new(sha1(b"digesting"), 0, fresh_cfg(1_000_000));
        let near = sha1(b"near-target");
        let far = sha1(b"far-away");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        // Local appends (empty routing table: apply locally, stay news).
        node.append(&mut ctx, near, "x", 1);
        node.append(&mut ctx, far, "y", 2);
        let digest = node.build_digest(Some(&near), 1_000);
        assert!(
            digest.iter().any(|e| e.key == near),
            "held key near the target is gossiped"
        );
        assert!(
            digest.iter().any(|e| e.key == far),
            "recent writes are gossiped regardless of distance"
        );
        for e in &digest {
            assert_eq!(
                e.version,
                node.storage().stamp(&e.key),
                "digest carries current write-versions"
            );
        }
        // A freshness-disabled node gossips nothing.
        let mut plain = KademliaNode::new(sha1(b"plain"), 1, KadConfig::default());
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 2);
        plain.append(&mut ctx, near, "x", 1);
        assert!(plain.build_digest(Some(&near), 1_000).is_empty());
    }

    /// Golden digest on the shape the reply hot path actually sees: a
    /// full news ring in which almost every key has drifted out of this
    /// node's replica set. The digest must name exactly the keys the
    /// closest-`k` definition of authority says the node still speaks for,
    /// newest write first, each at its stored stamp.
    #[test]
    fn digest_of_a_full_news_ring_names_only_keys_the_node_speaks_for() {
        let local = sha1(b"digesting");
        let mut node = KademliaNode::new(local, 0, fresh_cfg(1_000_000));
        // Writes land while the routing table is empty, so each applies
        // locally and enters the news ring.
        let own: Vec<usize> = vec![3, 11, 20, 30];
        let keys: Vec<Id160> = (0..NEWS_CAP)
            .map(|i| match own.iter().position(|&o| o == i) {
                // Next to the local id: no contact can be closer.
                Some(p) => local.with_flipped_bit(159 - p),
                None => sha1(&[b'n', i as u8]),
            })
            .collect();
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        for (i, key) in keys.iter().enumerate() {
            ctx.now_us = i as u64;
            node.append(&mut ctx, *key, "x", 1);
        }
        // Then the overlay fills in (k = 8, so ~50 of these stay).
        for n in 0..200u32 {
            node.routing.note_contact(Contact {
                id: sha1(&n.to_le_bytes()),
                addr: n + 1,
            });
        }
        let speaks_for = |key: &Id160| {
            let closest = node.routing.closest(key, node.cfg.k);
            closest.last().expect("contacts").id.distance(key) >= local.distance(key)
        };
        let spoken: Vec<Id160> = keys.iter().rev().copied().filter(speaks_for).collect();
        assert!(own.iter().all(|&i| spoken.contains(&keys[i])));
        assert!(
            spoken.len() < NEWS_CAP / 2,
            "mostly drifted: {} of {NEWS_CAP} still ours",
            spoken.len()
        );

        let around = sha1(b"some-lookup-target");
        let expected: Vec<DigestEntry> = spoken
            .iter()
            .take(dharma_cache::FreshConfig::default().digest_max)
            .map(|key| DigestEntry {
                key: *key,
                version: node.storage().stamp(key),
            })
            .collect();
        assert!(expected.iter().all(|e| !e.version.is_zero()));
        assert_eq!(node.build_digest(Some(&around), 100), expected);
        assert_eq!(node.build_digest(None, 100), expected);
    }

    #[test]
    fn repair_push_timeout_feeds_the_churn_estimator() {
        let cfg = KadConfig {
            k: 4,
            ping_before_evict: false, // direct evict: isolate the repair path
            maintenance: Some(MaintConfig {
                adaptive: Some(adapt_cfg()),
                ..MaintConfig::default()
            }),
            ..KadConfig::default()
        };
        let mut node = KademliaNode::new(sha1(b"holder"), 0, cfg);
        let key = sha1(b"repaired-key");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        node.append(&mut ctx, key, "x", 1);
        let corpse = Contact {
            id: sha1(b"corpse"),
            addr: 9,
        };
        node.add_seed(corpse.clone());
        assert!(node.routing().contains(&corpse.id));
        assert_eq!(node.churn_weight(0), 0.0);

        // The repair sweep pushes the key to the corpse — tracked.
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
        node.repair_sweep_step(&mut ctx, 1_000_000, 0);
        let (sends, timers, _) = ctx.into_effects();
        let rpc = sends
            .iter()
            .find_map(|m| match Message::decode_exact(&m.payload) {
                Ok(Message::Replicate { rpc, .. }) => Some(rpc),
                _ => None,
            })
            .expect("repair pushes the key");
        assert!(
            timers.iter().any(|&(_, id)| id == rpc),
            "repair pushes are tracked with a pending-RPC timeout"
        );

        // No ack arrives: the timeout must evict the corpse and count the
        // departure — the estimator learns on the *first* repair round.
        let mut ctx: Ctx<KadOutput> = Ctx::new(2_000_000, 0, 3);
        node.on_timer(&mut ctx, rpc);
        assert!(
            !node.routing().contains(&corpse.id),
            "the silent replica is evicted"
        );
        assert!(
            node.churn_weight(2_000_000) >= 1.0,
            "the departure feeds the churn estimate"
        );
    }

    #[test]
    fn parting_handoff_skips_keys_the_leaver_is_redundant_for() {
        let counters = NetCounters::new();
        let cfg = KadConfig {
            k: 2,
            counters: counters.clone(),
            ..KadConfig::default()
        };
        let own = sha1(b"leaver");
        let mut node = KademliaNode::new(own, 0, cfg);
        let needed = sha1(b"needed-key");
        let redundant = sha1(b"redundant-key");
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        node.append(&mut ctx, needed, "x", 1);
        node.append(&mut ctx, redundant, "y", 1);

        // Craft > k + slack contacts strictly closer to `redundant` than
        // the leaver but strictly *farther* from `needed`: flip one low
        // bit of the leaver's own id per contact — a bit set in
        // `own ⊕ redundant` (clearing it shrinks that distance) and clear
        // in `own ⊕ needed` (setting it grows that one). Each flipped bit
        // position lands the contact in its own bucket, so the k-capped
        // buckets hold them all.
        let d_red: Vec<u8> = own
            .as_bytes()
            .iter()
            .zip(redundant.as_bytes())
            .map(|(a, b)| a ^ b)
            .collect();
        let d_need: Vec<u8> = own
            .as_bytes()
            .iter()
            .zip(needed.as_bytes())
            .map(|(a, b)| a ^ b)
            .collect();
        let mut crafted = 0u32;
        'outer: for byte in (8..20).rev() {
            for bit in 0..8u8 {
                let mask = 1u8 << bit;
                if d_red[byte] & mask != 0 && d_need[byte] & mask == 0 {
                    let mut b = *own.as_bytes();
                    b[byte] ^= mask;
                    node.add_seed(Contact {
                        id: Id160::from_bytes(b),
                        addr: 100 + crafted,
                    });
                    crafted += 1;
                    if crafted >= 6 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(crafted >= 5, "found only {crafted} usable bit positions");
        node.add_seed(contact(9));

        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
        node.leave(&mut ctx);
        let (sends, _, _) = ctx.into_effects();
        let pushed = replicate_keys(&sends);
        assert!(
            pushed.contains(&needed),
            "keys the leaver is authoritative for are handed off"
        );
        assert!(
            !pushed.contains(&redundant),
            "keys with k + slack strictly-closer holders are not re-pushed"
        );
        assert_eq!(
            counters.leave_handoffs(),
            pushed.len() as u64,
            "the handoff counter reflects the trimmed bill"
        );
    }

    #[test]
    fn republish_is_idempotent_and_spreads_values() {
        let (mut net, _contacts) = build_net(16, 20);
        let key = sha1(b"republished");
        net.with_node(2, |n, ctx| n.append(ctx, key, "rock", 3));
        net.run_until_idle(1_000_000);
        net.take_completions();

        // Find a holder and count replicas.
        let holders_before: Vec<u32> = (0..16u32)
            .filter(|&a| net.node(a).storage().contains(&key))
            .collect();
        assert!(!holders_before.is_empty());
        let holder = holders_before[0];

        // Republishing twice must not inflate weights anywhere (merge-max).
        for _ in 0..2 {
            net.with_node(holder, |n, ctx| {
                n.republish_all(ctx);
            });
            net.run_until_idle(1_000_000);
            net.take_completions();
        }
        for a in 0..16u32 {
            let w = net.node(a).storage().weight(&key, "rock");
            assert!(w == 0 || w == 3, "node {a} holds inflated weight {w}");
        }
        let holders_after = (0..16u32)
            .filter(|&a| net.node(a).storage().contains(&key))
            .count();
        assert!(holders_after >= holders_before.len());
    }

    #[test]
    fn periodic_expiry_drops_stale_records() {
        let mut net = SimNet::new(SimConfig {
            latency_min_us: 1_000,
            latency_max_us: 5_000,
            drop_rate: 0.0,
            mtu: 64 * 1024,
            seed: 21,
            shards: 1,
            topology: None,
        });
        let cfg = KadConfig {
            record_ttl_us: Some(2_000_000),
            ..KadConfig::default()
        };
        let id = sha1(b"expiring-node");
        net.add_node(KademliaNode::new(id, 0, cfg));
        let key = sha1(b"ephemeral");
        net.with_node(0, |n, ctx| n.append(ctx, key, "x", 1));
        // Time-bounded runs: the expiry timer re-arms forever, so
        // run_until_idle would fast-forward through years of sweeps.
        net.run_until(10_000);
        net.take_completions();
        assert!(net.node(0).storage().contains(&key));
        // Run virtual time past the TTL; the periodic sweep must fire.
        net.run_until(10_000_000);
        assert!(
            !net.node(0).storage().contains(&key),
            "value must expire after the TTL"
        );
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

    #[test]
    fn lookup_message_cost_scales_logarithmically() {
        // Sanity check on lookup hops: messages per lookup should grow far
        // slower than network size.
        let cost = |n: usize| -> f64 {
            let (mut net, _contacts) = build_net(n, 7);
            let mut total = 0u32;
            for i in 0..8u32 {
                let key = sha1(format!("k{i}").as_bytes());
                let op = net.with_node(1 + i % (n as u32 - 1), |node, ctx| node.get(ctx, key, 0));
                net.run_until_idle(1_000_000);
                for (id, out) in net.take_completions() {
                    if id == op {
                        if let KadOutput::Value { messages, .. } = out {
                            total += messages;
                        }
                    }
                }
            }
            f64::from(total) / 8.0
        };
        let small = cost(8);
        let large = cost(64);
        assert!(
            large < small * 8.0,
            "8x nodes must cost far less than 8x messages (got {small} -> {large})"
        );
    }
}
