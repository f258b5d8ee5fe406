//! Protocol parameters and operation results: [`KadConfig`] with its
//! optional layer configs ([`MaintConfig`] and [`AdaptConfig`] live here;
//! the cache and freshness configs come from `dharma-cache`, the latency
//! config from [`crate::rtt`]) and [`KadOutput`].

use dharma_cache::{CacheConfig, FreshConfig, PopularityConfig};
use dharma_net::NetCounters;
use dharma_types::VersionStamp;

use crate::messages::{Contact, FetchedValue, ValueView};
use crate::rtt::LatencyConfig;

/// Churn-adaptive maintenance cadence (the `dharma-adapt` subsystem):
/// instead of fixed probe/repair intervals, each node keeps a decayed
/// estimate of the departure rate it *observes* — failed liveness probes,
/// contacts evicted on RPC timeouts, and received [`Message::Leave`]
/// notices — and scales its maintenance cadence between the configured
/// bounds: a quiet overlay coasts at the `*_max_us` intervals, a churning
/// one tightens toward `*_min_us`. This is the DHT survey's
/// cost/availability dial made local: maintenance cost becomes a function
/// of measured churn instead of a constant tax.
///
/// [`Message::Leave`]: crate::Message::Leave
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

dharma_types::config! {
    /// Churn-maintenance parameters (the `dharma-maint` subsystem). `None` in
    /// [`KadConfig::maintenance`] disables the whole loop — the node then
    /// behaves exactly like the pre-maintenance protocol, which is what the
    /// static paper-reproduction experiments run.
    #[derive(Clone, Debug)]
    #[non_exhaustive]
    pub struct MaintConfig => MaintConfigBuilder {
        /// Liveness-probe cadence, µs: each tick pings the least-recently-seen
        /// contact of the next non-empty bucket (round-robin). Ignored when
        /// [`MaintConfig::adaptive`] is set (the estimator drives the cadence
        /// between its own bounds).
        probe_interval_us: u64 = 5_000_000, // 5 s
        /// Repair-sweep cadence, µs: each tick re-pushes held keys to their
        /// current `k` closest nodes (suppressed per key for one interval after
        /// an incoming `Replicate`, so only one holder pays per round).
        /// Ignored when [`MaintConfig::adaptive`] is set.
        repair_interval_us: u64 = 30_000_000, // 30 s
        /// Join-time key handoff: when a node announces its join — a
        /// `FIND_NODE` for its own id that enters it into a bucket — push it the
        /// held records it is now among the `k` closest for. A contact merely
        /// seen for the first time, or seen again after an eviction, gets none.
        join_handoff: bool = true,
        /// Must be `None`; kept for `dharma-bench/src/overlay.rs`, which
        /// names it, until ROADMAP item 4. No copy beyond a key's `k`
        /// closest is reclaimed. [`KademliaNode::new`] panics on `Some`.
        ///
        /// [`KademliaNode::new`]: crate::KademliaNode::new
        demote_interval_us: Option<u64> = None,
        /// Churn-adaptive cadence (`None` = the fixed intervals above): scale
        /// probe/repair intervals from the observed departure rate and budget
        /// repair work per tick. See [`AdaptConfig`].
        adaptive: Option<AdaptConfig> = None,
    }
}

impl MaintConfig {
    /// The tick the probe timer re-arms at: the adaptive loop re-evaluates
    /// every `probe_min_us` (doing work only when the current estimated
    /// interval has elapsed); the fixed loop ticks at its one interval.
    pub(super) fn probe_tick_us(&self) -> u64 {
        self.adaptive
            .as_ref()
            .map(|a| a.probe_min_us)
            .unwrap_or(self.probe_interval_us)
            .max(1)
    }

    /// The tick the repair timer re-arms at (see [`Self::probe_tick_us`]).
    pub(super) fn repair_tick_us(&self) -> u64 {
        self.adaptive
            .as_ref()
            .map(|a| a.repair_min_us)
            .unwrap_or(self.repair_interval_us)
            .max(1)
    }

    fn validate(&self) -> Result<(), String> {
        if self.probe_interval_us == 0 {
            return Err("probe_interval_us must be positive".into());
        }
        if self.repair_interval_us == 0 {
            return Err("repair_interval_us must be positive".into());
        }
        if let Some(a) = &self.adaptive {
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
        Ok(())
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
    /// Must be `None`; kept for the struct literals of
    /// `dharma-bench/src/overlay.rs` until ROADMAP item 4.
    /// The repair sweep of [`KadConfig::maintenance`] re-pushes held keys
    /// to their `k` closest. [`KademliaNode::new`] panics on `Some`.
    ///
    /// [`KademliaNode::new`]: crate::KademliaNode::new
    pub republish_interval_us: Option<u64>,
    /// Must be `None`; kept for the struct literals of
    /// `dharma-bench/src/overlay.rs` until ROADMAP item 4.
    /// Records do not expire. [`KademliaNode::new`] panics on `Some`.
    ///
    /// [`KademliaNode::new`]: crate::KademliaNode::new
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
    /// Must be `true`; kept for the struct literals of
    /// `dharma-bench/src/overlay.rs` until ROADMAP item 4. An RPC timeout
    /// sends a liveness probe to the suspect instead of evicting it
    /// outright; only a failed probe evicts (and promotes from the
    /// bucket's replacement cache). [`KademliaNode::new`] panics on `false`.
    ///
    /// [`KademliaNode::new`]: crate::KademliaNode::new
    pub ping_before_evict: bool,
    /// Churn maintenance loop (`None` = disabled, the default): liveness
    /// probes, join-time key handoff, failure-driven re-replication and
    /// graceful leave. See [`MaintConfig`].
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
    /// A value lookup ([`KademliaNode::get`]) finished.
    ///
    /// [`KademliaNode::get`]: crate::KademliaNode::get
    Value {
        /// The value, or `None` if no storing node was found.
        value: Option<FetchedValue>,
        /// Messages this operation sent (diagnostics).
        messages: u32,
    },
    /// A view lookup ([`KademliaNode::get_view`]) finished: the value as
    /// its validated wire body, nothing decoded.
    ///
    /// [`KademliaNode::get_view`]: crate::KademliaNode::get_view
    View {
        /// The value, or `None` if no storing node was found.
        view: Option<ValueView>,
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
