//! **Churn maintenance** ([`MaintConfig`], the `dharma-maint` subsystem)
//! turns the timer path into a full self-healing loop:
//!
//! * a **liveness probe** sweep walks the buckets round-robin and pings the
//!   least-recently-seen contact; a failed probe evicts it and promotes the
//!   freshest replacement-cache entry;
//! * **join-time key handoff** — a node joins by looking up its own id, so
//!   a `FIND_NODE` for the sender's own id, from a sender that message
//!   entered into a bucket, announces a join: after replying, the node
//!   pushes the joiner a [`Message::Replicate`] snapshot of every held key
//!   it is now among the `k` closest for (the Kademlia §2.5 rule). A mere
//!   first sighting — a contact learned late, or one evicted on a lost
//!   probe and re-entered by its next message — is not a join;
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
//! cached view of the key — so repair composes with the cache rules and
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

use dharma_net::{Counter, Ctx};
use dharma_types::{FxHashMap, FxHashSet, Id160, WireEncode};

use super::rpc::{PROBE_OP, REPAIR_OP};
use super::{bound_book, AdaptConfig, KadOutput, KademliaNode, MaintConfig};
use super::{TIMER_DEMOTE, TIMER_PROBE, TIMER_REPAIR};
use crate::messages::{Contact, Message};

/// How far beyond `k` a node may rank for a key and still be treated as
/// one of its holders by the graceful-leave handoff and the demotion
/// sweep: near the boundary the local view of the `k`-set may be slightly
/// off, and a small buffer of extra copies is a churn safety net.
const REPLICA_SLACK: usize = 2;

/// How long a `Leave` tombstone blocks re-insertion of the departed id —
/// comfortably beyond any in-flight datagram + RPC timeout.
const DEPART_TOMBSTONE_US: u64 = 10_000_000;

/// Bound on tracked leave tombstones per node.
const DEPART_TOMBSTONE_CAP: usize = 1024;

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

/// Per-node state of the churn-maintenance loop (`dharma-maint` /
/// `dharma-adapt`). Always present: suspect probing (ping-before-evict),
/// leave tombstones and the churn estimate work with the loop itself off.
pub(super) struct MaintState {
    /// Bucket index where the next liveness-probe tick resumes.
    probe_cursor: usize,
    /// Contacts with an in-flight liveness probe (dedup: repeated timeouts
    /// against one suspect must not fan out repeated pings).
    pub(super) probing: FxHashSet<Id160>,
    /// Per-key timestamp of the last *incoming* `Replicate` — the repair
    /// sweep's suppression state: a key another holder just repaired is
    /// skipped for one interval (the classic Kademlia republish
    /// optimization, §2.5). Pruned at the start of every repair pass.
    pub(super) last_replicate_seen: FxHashMap<Id160, u64>,
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
}

impl MaintState {
    pub(super) fn new(cfg: Option<&MaintConfig>) -> Self {
        let adaptive = cfg.and_then(|m| m.adaptive.as_ref());
        let half_life_us = adaptive.map_or(30_000_000, |a| a.half_life_us);
        MaintState {
            probe_cursor: 0,
            probing: FxHashSet::default(),
            last_replicate_seen: FxHashMap::default(),
            churn: ChurnEstimator::new(half_life_us),
            probe_due_us: 0,
            repair_due_us: 0,
            repair_cursor: None,
            departed: FxHashMap::default(),
        }
    }

    /// Records one observed departure into the churn estimate.
    /// `event_weight` is 1.0 for hard failures (failed probes, timeout
    /// evictions) and [`AdaptConfig::leave_weight`] for graceful notices.
    pub(super) fn note_departure(&mut self, now_us: u64, event_weight: f64) {
        self.churn.record(now_us, event_weight);
    }

    /// True when `id` announced a graceful departure within the tombstone
    /// window — it must not be re-learned as a contact.
    pub(super) fn recently_departed(&self, id: &Id160, now_us: u64) -> bool {
        let at = self.departed.get(id);
        at.is_some_and(|&at| now_us.saturating_sub(at) <= DEPART_TOMBSTONE_US)
    }

    /// The probe interval in effect under `m`: fixed, or churn-scaled.
    fn probe_interval_us(&self, m: &MaintConfig, now_us: u64) -> u64 {
        match &m.adaptive {
            None => m.probe_interval_us,
            Some(a) => self.scaled_interval(a, a.probe_min_us, a.probe_max_us, now_us),
        }
    }

    /// The repair interval in effect under `m`: fixed, or churn-scaled.
    fn repair_interval_us(&self, m: &MaintConfig, now_us: u64) -> u64 {
        match &m.adaptive {
            None => m.repair_interval_us,
            Some(a) => self.scaled_interval(a, a.repair_min_us, a.repair_max_us, now_us),
        }
    }

    /// Linear interpolation of a maintenance interval between its adaptive
    /// bounds by the observed churn, normalized to `[0, 1]` against the
    /// hot threshold: quiet → `max_us`, churning → `min_us`.
    fn scaled_interval(&self, a: &AdaptConfig, min_us: u64, max_us: u64, now_us: u64) -> u64 {
        let level = if a.hot_weight <= 0.0 {
            1.0
        } else {
            (self.churn.weight(now_us) / a.hot_weight).clamp(0.0, 1.0)
        };
        let max_us = max_us.max(min_us);
        let cut = (level * (max_us - min_us) as f64) as u64;
        (max_us - cut).max(min_us)
    }
}

impl KademliaNode {
    /// The current decayed departure-rate estimate (diagnostics/tests).
    pub fn churn_weight(&self, now_us: u64) -> f64 {
        self.maint.churn.weight(now_us)
    }

    /// The probe interval currently in effect (fixed or churn-scaled).
    /// `None` when maintenance is off.
    pub fn current_probe_interval_us(&self, now_us: u64) -> Option<u64> {
        let m = self.cfg.maintenance.as_ref()?;
        Some(self.maint.probe_interval_us(m, now_us))
    }

    /// The repair interval currently in effect (fixed or churn-scaled).
    /// `None` when maintenance is off.
    pub fn current_repair_interval_us(&self, now_us: u64) -> Option<u64> {
        let m = self.cfg.maintenance.as_ref()?;
        Some(self.maint.repair_interval_us(m, now_us))
    }

    /// The liveness-probe tick. The timer ticks at the tightest cadence;
    /// work happens only when the churn-scaled interval has elapsed, so a
    /// quiet overlay pays timer wakeups (free) instead of probes
    /// (datagrams), yet reacts within one min-tick when churn rises.
    pub(super) fn probe_timer(&mut self, ctx: &mut Ctx<KadOutput>) {
        let Some(m) = self.cfg.maintenance.as_ref() else {
            return;
        };
        let tick = m.probe_tick_us();
        let interval = self.maint.probe_interval_us(m, ctx.now_us);
        if ctx.now_us >= self.maint.probe_due_us {
            self.probe_tick(ctx);
            self.maint.probe_due_us = ctx.now_us + interval;
        }
        ctx.set_timer(tick, TIMER_PROBE);
    }

    /// The repair tick: start a pass when one is due, or keep draining a
    /// budgeted pass in progress at tick cadence until its cursor wraps.
    pub(super) fn repair_timer(&mut self, ctx: &mut Ctx<KadOutput>) {
        let Some(m) = self.cfg.maintenance.as_ref() else {
            return;
        };
        let tick = m.repair_tick_us();
        let interval = self.maint.repair_interval_us(m, ctx.now_us);
        let budget = m.adaptive.as_ref().map_or(0, |a| a.repair_budget);
        if self.maint.repair_cursor.is_some() {
            self.repair_sweep_step(ctx, interval, budget);
        } else if ctx.now_us >= self.maint.repair_due_us {
            self.repair_sweep_step(ctx, interval, budget);
            self.maint.repair_due_us = ctx.now_us + interval;
        }
        ctx.set_timer(tick, TIMER_REPAIR);
    }

    pub(super) fn demote_timer(&mut self, ctx: &mut Ctx<KadOutput>) {
        let maint = self.cfg.maintenance.as_ref();
        if let Some(interval) = maint.and_then(|m| m.demote_interval_us) {
            self.demote_sweep(ctx, interval);
            ctx.set_timer(interval, TIMER_DEMOTE);
        }
    }

    /// Sends a liveness probe to `contact` unless one is already in
    /// flight. The probe's RPC is tracked under [`PROBE_OP`]; its timeout
    /// (no `Pong`) confirms death and evicts the contact.
    pub(super) fn probe_contact(&mut self, ctx: &mut Ctx<KadOutput>, contact: Contact) {
        if !self.maint.probing.insert(contact.id) {
            return;
        }
        self.cfg.counters.add(Counter::ProbesSent, 1);
        let timeout_us = self.cfg.rpc_timeout_us;
        self.request(ctx, contact, PROBE_OP, timeout_us, None, |rpc, from| {
            let from = from.clone();
            Message::Ping { rpc, from }.encode_to_bytes()
        });
    }

    /// One liveness-probe tick: ping the least-recently-seen contact of the
    /// next non-empty bucket. Round-robin over buckets guarantees every
    /// resident is eventually verified even when no lookup traffic touches
    /// its bucket.
    fn probe_tick(&mut self, ctx: &mut Ctx<KadOutput>) {
        if let Some((bucket, contact)) = self.routing.probe_candidate(self.maint.probe_cursor) {
            self.maint.probe_cursor = (bucket + 1) % dharma_types::ID160_BITS;
            self.probe_contact(ctx, contact);
        }
    }

    /// Join-time key handoff: `newcomer` just entered a bucket with a
    /// lookup of its own id — the join announcement; push it every held key
    /// it is now among the `k` closest for (Kademlia §2.5 — keeps the
    /// replica set correct as the population shifts, without waiting for a
    /// repair sweep). Nothing else triggers it: a re-entering or
    /// late-learned contact joined long ago, and a node that returns
    /// without announcing itself is caught up by the repair sweep within
    /// one interval, exactly as a write lost on the wire is.
    pub(super) fn handoff_to(&mut self, ctx: &mut Ctx<KadOutput>, newcomer: &Contact) {
        let on = |m: &MaintConfig| m.join_handoff;
        if !self.cfg.maintenance.as_ref().is_some_and(on) || self.storage.is_empty() {
            return;
        }
        let keys: Vec<Id160> = self
            .storage
            .keys()
            .filter(|key| self.routing.ranks_within(&newcomer.id, key, self.cfg.k))
            .copied()
            .collect();
        let mut handed = 0u64;
        for key in keys {
            if let Some((snapshot, stamp)) = self.snapshot(&key) {
                self.send_write(ctx, newcomer, Some(REPAIR_OP), key, &snapshot, stamp);
                handed += 1;
            }
        }
        if handed > 0 {
            self.cfg.counters.add(Counter::Handoffs, handed);
        }
    }

    /// `Replicate` push of `key`'s snapshot (idempotent merge-max on the
    /// receiver) to each of its current `k` closest contacts. From the
    /// repair and demotion sweeps the pushes are `tracked` under
    /// [`REPAIR_OP`] — like the join handoff's — so a corpse in a replica
    /// set feeds the departure-rate estimator on the first repair round
    /// instead of waiting for the probe cursor to reach its bucket; from a
    /// graceful leave they are not (the sender is tearing itself down, so
    /// pending-RPC state would never be read). Returns the number of
    /// pushes — 0 when the key is not held.
    fn push_to_closest(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, tracked: bool) -> u64 {
        let Some((snapshot, stamp)) = self.snapshot(&key) else {
            return 0;
        };
        let targets = self.routing.closest(&key, self.cfg.k);
        for t in &targets {
            let op = tracked.then_some(REPAIR_OP);
            self.send_write(ctx, t, op, key, &snapshot, stamp);
        }
        targets.len() as u64
    }

    /// One repair step: re-push held keys to their current `k` closest
    /// nodes, restoring replicas lost to departures — the one
    /// re-replication path. Keys that received an incoming `Replicate`
    /// within the last interval are skipped: some other holder already
    /// paid for this round.
    ///
    /// `budget` bounds the keys processed per step (0 = unbounded, the
    /// fixed-cadence behavior). A partial pass leaves the carry-over
    /// cursor in [`MaintState::repair_cursor`]; the next tick resumes after it
    /// in key order, so coverage stays complete under any budget.
    fn repair_sweep_step(&mut self, ctx: &mut Ctx<KadOutput>, interval_us: u64, budget: usize) {
        let now = ctx.now_us;
        if self.maint.repair_cursor.is_none() {
            // Fresh pass: prune suppression state from the previous round.
            let storage = &self.storage;
            self.maint.last_replicate_seen.retain(|key, seen| {
                now.saturating_sub(*seen) < interval_us && storage.contains(key)
            });
        }
        // Re-collected each tick rather than snapshotted per pass: storage
        // mutates between ticks (demotion, incoming replicas), and
        // the id-ordered cursor makes the fresh view resume correctly.
        let take = if budget == 0 { usize::MAX } else { budget };
        let (batch, done) = {
            let mut rest = self.storage.keys_after(self.maint.repair_cursor.as_ref());
            let batch: Vec<Id160> = rest.by_ref().take(take).copied().collect();
            (batch, rest.next().is_none())
        };
        let mut pushes = 0u64;
        for key in &batch {
            if self.maint.last_replicate_seen.contains_key(key) {
                continue;
            }
            pushes += self.push_to_closest(ctx, *key, true);
        }
        if pushes > 0 {
            self.cfg.counters.add(Counter::Rereplications, pushes);
        }
        self.maint.repair_cursor = if done { None } else { batch.last().copied() };
    }

    /// One demotion sweep: reclaim beyond-`k` replicas whose popularity has
    /// decayed — the explicit counterpart of adaptive promotion, so extra
    /// copies stop occupying space the moment a key cools. A key is dropped
    /// only when (a) at least `k + REPLICA_SLACK` known contacts are strictly
    /// closer to it (we are comfortably outside the authoritative replica set —
    /// the slack keeps a small buffer of extra copies alive as a churn safety
    /// net and avoids demote/handoff flapping at the boundary), (b) its local
    /// popularity is below half the hot threshold (hysteresis against
    /// flapping), and (c) it was not refreshed within the last sweep interval.
    /// The snapshot is re-pushed to the `k` closest before the local drop, so
    /// demotion can never lose the last copy.
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
            self.push_to_closest(ctx, key, true);
            self.storage.remove(&key);
            self.invalidate_cached(&key);
            self.cfg.counters.add(Counter::ReplicasDemoted, 1);
        }
        self.forget_unheld_news();
    }

    /// Handles an incoming [`Message::Leave`]: purge the sender from the
    /// routing table *immediately* (no probe round needed — the notice is
    /// first-hand), drop any in-flight probe bookkeeping, tombstone the id
    /// against stragglers, and feed the churn estimator at the (low)
    /// graceful weight ([`AdaptConfig::leave_weight`], against a hard
    /// failure's 1.0).
    pub(super) fn handle_leave(&mut self, now_us: u64, from: &Contact) {
        self.routing.note_failure(&from.id);
        self.maint.probing.remove(&from.id);
        self.forget_peer(&from.id);
        self.maint.departed.insert(from.id, now_us);
        // Still over cap within one tombstone window (a mass drain, or
        // spoofed Leave spray), the oldest ids lose straggler protection
        // early — the worst case is one stale re-insert that the probe
        // loop cleans up.
        let live = |&at: &u64| now_us.saturating_sub(at) <= DEPART_TOMBSTONE_US;
        bound_book(
            &mut self.maint.departed,
            DEPART_TOMBSTONE_CAP,
            live,
            |&at| Some(at),
        );
        let adaptive = self
            .cfg
            .maintenance
            .as_ref()
            .and_then(|m| m.adaptive.as_ref());
        let leave_weight = adaptive.map_or(0.0, |a| a.leave_weight);
        if leave_weight > 0.0 {
            self.maint.note_departure(now_us, leave_weight);
        }
    }

    /// Graceful departure (the counterpart of crashing): push a parting
    /// `Replicate` snapshot of held keys to the `k` closest live nodes — so the
    /// replica set is whole *before* we go, instead of degraded until someone's
    /// repair sweep notices — then send a [`Message::Leave`] notice to every
    /// routing-table contact so receivers purge us immediately rather than
    /// discovering the corpse by timeout. The caller tears the node down
    /// afterwards (`SimNet::leave` does both in one step).
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
        let keys: Vec<Id160> = self.storage.keys().copied().collect();
        let keep_within = self.cfg.k + REPLICA_SLACK;
        let mut pushes = 0u64;
        for key in keys {
            if !self.routing.local_ranks_within(&key, keep_within) {
                // At least k + slack known contacts are strictly closer:
                // the replica set is whole without us.
                continue;
            }
            pushes += self.push_to_closest(ctx, key, false);
        }
        if pushes > 0 {
            self.cfg.counters.add(Counter::LeaveHandoffs, pushes);
        }
        let contacts: Vec<Contact> = self.routing.iter().cloned().collect();
        if !contacts.is_empty() {
            self.cfg
                .counters
                .add(Counter::LeaveNotices, contacts.len() as u64);
        }
        for c in contacts {
            self.notify(ctx, c.addr, |rpc, from| {
                let from = from.clone();
                Message::Leave { rpc, from }.encode_to_bytes()
            });
        }
    }
}

#[cfg(test)]
mod tests;
