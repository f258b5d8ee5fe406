//! Message and byte accounting.
//!
//! Table I of the paper counts *overlay lookups* per primitive; the DHARMA
//! client layers its own lookup counter on top, but the raw transport
//! counters here let tests assert both levels (and let the MTU ablation
//! measure how often index-side filtering saved a datagram).
//!
//! Every counter is one [`Counter`] variant over one array of atomics:
//! writers call [`NetCounters::add`], readers [`NetCounters::get`] or the
//! named getter declared beside the variant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares each counter once: its [`Counter`] variant, its getter on
/// [`NetCounters`] and the doc both share.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $variant:ident => $getter:ident,)+) => {
        /// One transport or protocol counter of [`NetCounters`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        /// Number of [`Counter`] variants.
        const N: usize = [$(Counter::$variant),+].len();

        impl NetCounters {
            $(
                $(#[doc = $doc])+
                pub fn $getter(&self) -> u64 {
                    self.get(Counter::$variant)
                }
            )+
        }
    };
}

counters! {
    /// Datagrams sent (accepted past the MTU check).
    Sent => sent,
    /// Datagrams delivered to a live node.
    Delivered => delivered,
    /// Datagrams lost, sent to a dead or unknown destination, or abandoned
    /// on a hard socket error.
    Dropped => dropped,
    /// Total payload bytes sent.
    BytesSent => bytes_sent,
    /// Sends rejected at the MTU check.
    OversizeRejected => oversize_rejected,
    /// Datagrams discarded because the sender was not a registered peer
    /// (no implicit trust, but the silence is counted).
    UnknownSender => unknown_sender,
    /// Timers fired.
    TimersFired => timers_fired,
    /// GET operations served from a hot-block cache (the requester's own
    /// or one met on the lookup path).
    CacheHits => cache_hits,
    /// GET operations that had to reach authoritative storage (or found
    /// nothing at all).
    CacheMisses => cache_misses,
    /// Replica snapshots pushed beyond the base `k` by popularity-driven
    /// adaptive replication.
    ReplicasPromoted => replicas_promoted,
    /// Liveness probes (`PING`) issued by the maintenance loop or the
    /// ping-before-evict rule.
    ProbesSent => probes_sent,
    /// Join-time key-handoff pushes (records transferred to a newly
    /// learned node that is now among a key's `k` closest).
    Handoffs => handoffs,
    /// Repair re-replication pushes (replica snapshots re-sent to restore
    /// a key's replica set to `k` under churn).
    Rereplications => rereplications,
    /// Graceful-departure `Leave` notices sent to routing-table contacts.
    LeaveNotices => leave_notices,
    /// Parting key handoffs pushed by gracefully departing nodes.
    LeaveHandoffs => leave_handoffs,
    /// Version-gossip revalidations: a stale digest dropped a cached view
    /// and a direct refresh `FindValue` was issued for it.
    Revalidations => revalidations,
    /// Cached views dropped because a gossiped digest carried a newer
    /// write-version than they were read at.
    StaleDrops => stale_drops,
    /// Lookup queries routed to a *warm* peer (a known recent server of
    /// the key) ahead of a strictly nearer cold candidate.
    WarmRedirects => warm_redirects,
    /// Write-triggered `InvalidatePush` messages sent to recent fetchers
    /// of a just-written key.
    InvalidatePushes => invalidate_pushes,
    /// Round-trip time samples folded into a node's RTT book.
    RttSamples => rtt_samples,
    /// Proximity-neighbor-selection demotions: a full bucket swapped its
    /// slowest measured resident for a faster newcomer.
    PnsEvictions => pns_evictions,
    /// Adaptive-α widening steps (an RPC timeout pushed lookup parallelism
    /// up).
    AlphaWidened => alpha_widened,
    /// Adaptive-α narrowing steps (a clean reply streak pulled lookup
    /// parallelism back down).
    AlphaNarrowed => alpha_narrowed,
}

/// Shared, thread-safe network counters.
///
/// Cloning shares the underlying counters.
#[derive(Clone, Default, Debug)]
pub struct NetCounters {
    inner: Arc<[AtomicU64; N]>,
}

impl NetCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.inner[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.inner[c as usize].load(Ordering::Relaxed)
    }

    /// Total maintenance traffic: probes + handoffs + re-replications +
    /// graceful-leave notices and parting handoffs.
    pub fn maintenance_messages(&self) -> u64 {
        self.probes_sent()
            + self.handoffs()
            + self.rereplications()
            + self.leave_notices()
            + self.leave_handoffs()
    }

    /// Snapshot for deltas: `(sent, delivered, dropped, bytes)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.sent(),
            self.delivered(),
            self.dropped(),
            self.bytes_sent(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::Counter::*;
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.add(Sent, 1);
        c.add(BytesSent, 100);
        c2.add(Sent, 1);
        c2.add(BytesSent, 50);
        c.add(Delivered, 1);
        c.add(Dropped, 1);
        c.add(OversizeRejected, 1);
        c.add(UnknownSender, 1);
        c2.add(UnknownSender, 1);
        assert_eq!(c.sent(), 2);
        assert_eq!(c.bytes_sent(), 150);
        assert_eq!(c2.delivered(), 1);
        assert_eq!(c2.dropped(), 1);
        assert_eq!(c2.oversize_rejected(), 1);
        assert_eq!(c.unknown_sender(), 2);
        assert_eq!(c.snapshot(), (2, 1, 1, 150));
    }

    /// The UDP flush adds a whole pass over its send queue at once; the
    /// simulator adds one send at a time. Both must read the same.
    #[test]
    fn batched_send_recording_matches_per_send() {
        let singles = NetCounters::new();
        for bytes in [40, 60, 100] {
            singles.add(Sent, 1);
            singles.add(BytesSent, bytes);
        }
        let batched = NetCounters::new();
        batched.add(Sent, 3);
        batched.add(BytesSent, 200);
        assert_eq!(batched.snapshot(), singles.snapshot());
    }

    #[test]
    fn maintenance_counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.add(ProbesSent, 2);
        c2.add(Handoffs, 3);
        c.add(Rereplications, 5);
        c2.add(LeaveNotices, 4);
        c.add(LeaveHandoffs, 2);
        assert_eq!(c2.probes_sent(), 2);
        assert_eq!(c.handoffs(), 3);
        assert_eq!(c2.rereplications(), 5);
        assert_eq!(c.leave_notices(), 4);
        assert_eq!(c2.leave_handoffs(), 2);
        assert_eq!(c.maintenance_messages(), 16);
    }

    #[test]
    fn freshness_counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.add(Revalidations, 1);
        c2.add(StaleDrops, 3);
        c.add(WarmRedirects, 2);
        c2.add(InvalidatePushes, 4);
        assert_eq!(c2.revalidations(), 1);
        assert_eq!(c.stale_drops(), 3);
        assert_eq!(c2.warm_redirects(), 2);
        assert_eq!(c.invalidate_pushes(), 4);
        assert_eq!(
            c.maintenance_messages(),
            0,
            "freshness traffic is lookup-path, not maintenance"
        );
    }

    #[test]
    fn latency_counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.add(RttSamples, 2);
        c2.add(PnsEvictions, 1);
        c.add(AlphaWidened, 1);
        c2.add(AlphaNarrowed, 1);
        assert_eq!(c2.rtt_samples(), 2);
        assert_eq!(c.pns_evictions(), 1);
        assert_eq!(c2.alpha_widened(), 1);
        assert_eq!(c.alpha_narrowed(), 1);
        assert_eq!(
            c.maintenance_messages(),
            0,
            "latency adaptation is lookup-path, not maintenance"
        );
    }

    #[test]
    fn cache_counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.add(CacheHits, 2);
        c2.add(CacheMisses, 1);
        c.add(ReplicasPromoted, 3);
        c.add(TimersFired, 7);
        assert_eq!(c2.cache_hits(), 2);
        assert_eq!(c.cache_misses(), 1);
        assert_eq!(c2.replicas_promoted(), 3);
        assert_eq!(c2.timers_fired(), 7);
    }
}
