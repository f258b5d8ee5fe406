//! Message and byte accounting.
//!
//! Table I of the paper counts *overlay lookups* per primitive; the DHARMA
//! client layers its own lookup counter on top, but the raw transport
//! counters here let tests assert both levels (and let the MTU ablation
//! measure how often index-side filtering saved a datagram).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe network counters.
///
/// Cloning shares the underlying counters.
#[derive(Clone, Default, Debug)]
pub struct NetCounters {
    inner: Arc<Inner>,
}

#[derive(Default, Debug)]
struct Inner {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    bytes_sent: AtomicU64,
    oversize_rejected: AtomicU64,
    unknown_sender: AtomicU64,
    timers_fired: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    replicas_promoted: AtomicU64,
    probes_sent: AtomicU64,
    handoffs: AtomicU64,
    rereplications: AtomicU64,
    replicas_demoted: AtomicU64,
    leave_notices: AtomicU64,
    leave_handoffs: AtomicU64,
    revalidations: AtomicU64,
    stale_drops: AtomicU64,
    warm_redirects: AtomicU64,
    invalidate_pushes: AtomicU64,
    rtt_samples: AtomicU64,
    pns_evictions: AtomicU64,
    alpha_widened: AtomicU64,
    alpha_narrowed: AtomicU64,
}

impl NetCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful send of `bytes` payload bytes.
    pub fn record_sent(&self, bytes: usize) {
        self.inner.sent.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a delivery.
    pub fn record_delivered(&self) {
        self.inner.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a dropped (lost or dead-destination) datagram.
    pub fn record_dropped(&self) {
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a send rejected for exceeding the MTU.
    pub fn record_oversize(&self) {
        self.inner.oversize_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` sends and their payload bytes in one shot (used by the
    /// batched UDP flush path, which learns the accepted count from a
    /// single `sendmmsg` return).
    pub fn record_sent_batch(&self, n: u64, bytes: u64) {
        self.inner.sent.fetch_add(n, Ordering::Relaxed);
        self.inner.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a datagram discarded because its sender is not in the
    /// runtime's address book (no implicit trust — but the silence is
    /// counted, not swallowed).
    pub fn record_unknown_sender(&self) {
        self.inner.unknown_sender.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a timer expiry.
    pub fn record_timer(&self) {
        self.inner.timers_fired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a GET operation served from a hot-block cache (the
    /// requester's own or one met on the lookup path).
    pub fn record_cache_hit(&self) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a GET operation that had to reach authoritative storage
    /// (or found nothing at all).
    pub fn record_cache_miss(&self) {
        self.inner.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` replica snapshots pushed beyond the base `k` by
    /// popularity-driven adaptive replication.
    pub fn record_replicas_promoted(&self, n: u64) {
        self.inner.replicas_promoted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a liveness probe (`PING`) issued by the maintenance loop or
    /// the ping-before-evict rule.
    pub fn record_probe(&self) {
        self.inner.probes_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` join-time key-handoff pushes (records transferred to a
    /// newly-learned node that is now among a key's `k` closest).
    pub fn record_handoffs(&self, n: u64) {
        self.inner.handoffs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` repair re-replication pushes (replica snapshots re-sent
    /// to restore a key's replica set to `k` under churn).
    pub fn record_rereplications(&self, n: u64) {
        self.inner.rereplications.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a replica demotion: a beyond-`k` copy reclaimed by the
    /// popularity decay sweep.
    pub fn record_replica_demoted(&self) {
        self.inner.replicas_demoted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` graceful-departure `Leave` notices sent to routing-table
    /// contacts.
    pub fn record_leave_notices(&self, n: u64) {
        self.inner.leave_notices.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` parting key handoffs (replica snapshots pushed by a
    /// gracefully departing node before it goes).
    pub fn record_leave_handoffs(&self, n: u64) {
        self.inner.leave_handoffs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a version-gossip revalidation: a stale digest dropped a
    /// cached view and a direct refresh `FindValue` was issued for it.
    pub fn record_revalidation(&self) {
        self.inner.revalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` cached views dropped because a gossiped digest carried
    /// a newer write-version than they were read at.
    pub fn record_stale_drops(&self, n: u64) {
        self.inner.stale_drops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` lookup queries routed to a *warm* peer (a known recent
    /// server of the key) ahead of a strictly nearer cold candidate.
    pub fn record_warm_redirects(&self, n: u64) {
        self.inner.warm_redirects.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` write-triggered `InvalidatePush` messages sent to
    /// recent fetchers of a just-written key.
    pub fn record_invalidate_pushes(&self, n: u64) {
        self.inner.invalidate_pushes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a round-trip time sample folded into a node's RTT book.
    pub fn record_rtt_sample(&self) {
        self.inner.rtt_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a proximity-neighbor-selection demotion: a full bucket
    /// swapped its slowest measured resident for a faster newcomer.
    pub fn record_pns_eviction(&self) {
        self.inner.pns_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an adaptive-α widening step (an RPC timeout pushed lookup
    /// parallelism up).
    pub fn record_alpha_widened(&self) {
        self.inner.alpha_widened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an adaptive-α narrowing step (a clean reply streak pulled
    /// lookup parallelism back down).
    pub fn record_alpha_narrowed(&self) {
        self.inner.alpha_narrowed.fetch_add(1, Ordering::Relaxed);
    }

    /// Datagrams sent.
    pub fn sent(&self) -> u64 {
        self.inner.sent.load(Ordering::Relaxed)
    }

    /// Datagrams delivered.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    /// Datagrams dropped.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent.load(Ordering::Relaxed)
    }

    /// Sends rejected at the MTU check.
    pub fn oversize_rejected(&self) -> u64 {
        self.inner.oversize_rejected.load(Ordering::Relaxed)
    }

    /// Datagrams discarded because the sender was not a registered peer.
    pub fn unknown_sender(&self) -> u64 {
        self.inner.unknown_sender.load(Ordering::Relaxed)
    }

    /// Timers fired.
    pub fn timers_fired(&self) -> u64 {
        self.inner.timers_fired.load(Ordering::Relaxed)
    }

    /// GET operations served from a hot-block cache.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }

    /// GET operations not served from any cache.
    pub fn cache_misses(&self) -> u64 {
        self.inner.cache_misses.load(Ordering::Relaxed)
    }

    /// Replica snapshots pushed by adaptive replication.
    pub fn replicas_promoted(&self) -> u64 {
        self.inner.replicas_promoted.load(Ordering::Relaxed)
    }

    /// Liveness probes issued.
    pub fn probes_sent(&self) -> u64 {
        self.inner.probes_sent.load(Ordering::Relaxed)
    }

    /// Join-time key-handoff pushes.
    pub fn handoffs(&self) -> u64 {
        self.inner.handoffs.load(Ordering::Relaxed)
    }

    /// Repair re-replication pushes.
    pub fn rereplications(&self) -> u64 {
        self.inner.rereplications.load(Ordering::Relaxed)
    }

    /// Beyond-`k` replicas reclaimed by the demotion sweep.
    pub fn replicas_demoted(&self) -> u64 {
        self.inner.replicas_demoted.load(Ordering::Relaxed)
    }

    /// Graceful-departure `Leave` notices sent.
    pub fn leave_notices(&self) -> u64 {
        self.inner.leave_notices.load(Ordering::Relaxed)
    }

    /// Parting key handoffs pushed by gracefully departing nodes.
    pub fn leave_handoffs(&self) -> u64 {
        self.inner.leave_handoffs.load(Ordering::Relaxed)
    }

    /// Version-gossip revalidation RPCs issued.
    pub fn revalidations(&self) -> u64 {
        self.inner.revalidations.load(Ordering::Relaxed)
    }

    /// Cached views dropped on stale digests.
    pub fn stale_drops(&self) -> u64 {
        self.inner.stale_drops.load(Ordering::Relaxed)
    }

    /// Lookup queries redirected to warm peers.
    pub fn warm_redirects(&self) -> u64 {
        self.inner.warm_redirects.load(Ordering::Relaxed)
    }

    /// Write-triggered invalidation pushes sent.
    pub fn invalidate_pushes(&self) -> u64 {
        self.inner.invalidate_pushes.load(Ordering::Relaxed)
    }

    /// RTT samples recorded.
    pub fn rtt_samples(&self) -> u64 {
        self.inner.rtt_samples.load(Ordering::Relaxed)
    }

    /// Proximity-neighbor-selection bucket demotions.
    pub fn pns_evictions(&self) -> u64 {
        self.inner.pns_evictions.load(Ordering::Relaxed)
    }

    /// Adaptive-α widening steps.
    pub fn alpha_widened(&self) -> u64 {
        self.inner.alpha_widened.load(Ordering::Relaxed)
    }

    /// Adaptive-α narrowing steps.
    pub fn alpha_narrowed(&self) -> u64 {
        self.inner.alpha_narrowed.load(Ordering::Relaxed)
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

    /// Cache hit ratio over completed GETs (0 when none recorded).
    pub fn cache_hit_ratio(&self) -> f64 {
        let h = self.cache_hits();
        let m = self.cache_misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
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
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.record_sent(100);
        c2.record_sent(50);
        c.record_delivered();
        c.record_dropped();
        c.record_oversize();
        c.record_unknown_sender();
        c2.record_unknown_sender();
        assert_eq!(c.sent(), 2);
        assert_eq!(c.bytes_sent(), 150);
        assert_eq!(c2.delivered(), 1);
        assert_eq!(c2.dropped(), 1);
        assert_eq!(c2.oversize_rejected(), 1);
        assert_eq!(c.unknown_sender(), 2);
    }

    #[test]
    fn batched_send_recording_matches_per_send() {
        let singles = NetCounters::new();
        singles.record_sent(40);
        singles.record_sent(60);
        singles.record_sent(100);
        let batched = NetCounters::new();
        batched.record_sent_batch(3, 200);
        assert_eq!(batched.sent(), singles.sent());
        assert_eq!(batched.bytes_sent(), singles.bytes_sent());
    }

    #[test]
    fn maintenance_counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.record_probe();
        c.record_probe();
        c2.record_handoffs(3);
        c.record_rereplications(5);
        c.record_replica_demoted();
        c2.record_leave_notices(4);
        c.record_leave_handoffs(2);
        assert_eq!(c2.probes_sent(), 2);
        assert_eq!(c.handoffs(), 3);
        assert_eq!(c2.rereplications(), 5);
        assert_eq!(c.replicas_demoted(), 1);
        assert_eq!(c.leave_notices(), 4);
        assert_eq!(c2.leave_handoffs(), 2);
        assert_eq!(c.maintenance_messages(), 16);
    }

    #[test]
    fn freshness_counters_accumulate_and_share() {
        let c = NetCounters::new();
        let c2 = c.clone();
        c.record_revalidation();
        c2.record_stale_drops(3);
        c.record_warm_redirects(2);
        assert_eq!(c2.revalidations(), 1);
        assert_eq!(c.stale_drops(), 3);
        assert_eq!(c2.warm_redirects(), 2);
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
        c.record_rtt_sample();
        c.record_rtt_sample();
        c2.record_pns_eviction();
        c.record_alpha_widened();
        c2.record_alpha_narrowed();
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
        assert_eq!(c.cache_hit_ratio(), 0.0, "no GETs yet");
        c.record_cache_hit();
        c.record_cache_hit();
        c2.record_cache_miss();
        c.record_replicas_promoted(3);
        assert_eq!(c2.cache_hits(), 2);
        assert_eq!(c.cache_misses(), 1);
        assert_eq!(c2.replicas_promoted(), 3);
        assert!((c.cache_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
