//! The one way to apply a write.
//!
//! A client write (`put_blob`, `append`) and a republished snapshot are
//! the same operation carrying a different [`WriteBody`]: a lookup fixes
//! the replica set, [`KademliaNode::write_to_replicas`] sends the body to
//! each replica as `Store` / `Append` / `Replicate`, and every holder —
//! the coordinator's own copy included — applies it through
//! [`KademliaNode::apply_write`]. Also here: the origin stamps writes
//! travel under, the read-your-writes guards a writer keeps while caching
//! is on, and the record TTL.
//!
//! When [`KadConfig::record_ttl_us`] is set, every maintenance push (and
//! every incoming `Replicate` merge) is gated on the record's remaining
//! TTL, so repair never resurrects a record that already expired locally.
//!
//! [`KadConfig::record_ttl_us`]: super::KadConfig::record_ttl_us

use bytes::Bytes;

use dharma_net::Ctx;
use dharma_types::{Id160, VersionStamp, WireEncode};

use super::{bound_book, KadOutput, KademliaNode, OpKind, Phase};
use crate::messages::{Contact, Message, StoredEntry};
use crate::storage::WriteBody;

impl WriteBody {
    /// The datagram that carries this write to one replica.
    fn message(self, rpc: u64, from: &Contact, key: Id160, stamp: VersionStamp) -> Bytes {
        let from = from.clone();
        match self {
            WriteBody::Blob(blob) => Message::Store {
                rpc,
                from,
                key,
                blob,
                stamp,
            },
            WriteBody::Entries(entries) => Message::Append {
                rpc,
                from,
                key,
                entries,
                stamp,
            },
            WriteBody::Snapshot { blob, entries } => Message::Replicate {
                rpc,
                from,
                key,
                blob,
                entries,
                stamp,
            },
        }
        .encode_to_bytes()
    }

    /// The inverse of [`Self::message`]: the write a `Store` / `Append` /
    /// `Replicate` carries, as `(rpc, sender, key, body, stamp)`. `None`
    /// for every other message.
    fn carried_by(msg: Message) -> Option<(u64, Contact, Id160, WriteBody, VersionStamp)> {
        Some(match msg {
            Message::Store {
                rpc,
                from,
                key,
                blob,
                stamp,
            } => (rpc, from, key, WriteBody::Blob(blob), stamp),
            Message::Append {
                rpc,
                from,
                key,
                entries,
                stamp,
            } => (rpc, from, key, WriteBody::Entries(entries), stamp),
            Message::Replicate {
                rpc,
                from,
                key,
                blob,
                entries,
                stamp,
            } => (rpc, from, key, WriteBody::Snapshot { blob, entries }, stamp),
            _ => return None,
        })
    }
}

/// Read-your-writes bookkeeping for one key (see
/// [`KademliaNode::note_written`]).
#[derive(Clone, Copy, Debug)]
pub(super) struct WriteGuard {
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
    /// Stores a blob on the `k` nodes closest to `key`.
    pub fn put_blob(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, blob: Vec<u8>) -> u64 {
        self.start_write(ctx, key, WriteBody::Blob(blob), None)
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
        self.start_write(ctx, key, WriteBody::Entries(entries), None)
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
                let (snapshot, stamp) = self.snapshot(&key)?;
                Some(self.start_write(ctx, key, snapshot, Some(stamp)))
            })
            .collect()
    }

    /// Starts a write of `body` to the `k` nodes closest to `key`. It
    /// immediately drops this node's cached views of the key and arms the
    /// read-your-writes guard — even before any replica acks, a later
    /// local GET must never see the pre-write view.
    fn start_write(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        key: Id160,
        body: WriteBody,
        stamp: Option<VersionStamp>,
    ) -> u64 {
        self.note_written(key, ctx.now_us);
        self.start_op(ctx, key, OpKind::Write { body, stamp })
    }

    /// Phase 2 of a write: the lookup fixed the replica set — the `k`
    /// closest, this node among them if it is closer than the `k`-th (or
    /// the set is short). Apply locally if so, send to the rest, and wait
    /// for their acks.
    pub(super) fn write_to_replicas(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        op_id: u64,
        key: Id160,
        mut replicas: Vec<Contact>,
        body: &WriteBody,
        stamp: Option<VersionStamp>,
    ) {
        let self_dist = self.contact.id.distance(&key);
        let include_self = replicas.len() < self.cfg.k
            || replicas
                .last()
                .map(|c| self_dist < c.id.distance(&key))
                .unwrap_or(true);
        replicas.truncate(self.cfg.k.saturating_sub(usize::from(include_self)));
        // Client writes mint their origin stamp here, once the lookup
        // fixed the replica set; replication re-sends the snapshot's
        // existing stamp (repair never mints).
        let stamp = stamp.unwrap_or_else(|| self.mint_stamp(&key, ctx.now_us));
        if let Some(op) = self.ops.get_mut(&op_id) {
            op.messages += replicas.len() as u32;
            op.phase = Phase::Write {
                acks: 0,
                pending: replicas.len() as u32,
                targets: replicas.len() as u32 + u32::from(include_self),
                stamp,
            };
        }
        if include_self {
            self.apply_write(ctx, key, body, stamp, None);
        }
        if replicas.is_empty() {
            return self.finish_write(ctx, op_id, 0);
        }
        for contact in &replicas {
            self.send_write(ctx, contact, Some(op_id), key, body.clone(), stamp);
        }
    }

    /// Sends a write to one replica as the message that carries it:
    /// tracked under `op` with the conservative timeout — the ack settles
    /// it, a timeout marks the silent replica suspect — or, with no `op`,
    /// as an untracked push nobody waits on.
    pub(super) fn send_write(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        to: &Contact,
        op: Option<u64>,
        key: Id160,
        body: WriteBody,
        stamp: VersionStamp,
    ) {
        let build = |rpc: u64, from: &Contact| body.message(rpc, from, key, stamp);
        match op {
            Some(op) => {
                let timeout_us = self.cfg.rpc_timeout_us;
                self.request(ctx, to.clone(), op, timeout_us, None, build);
            }
            None => {
                self.notify(ctx, to.addr, build);
            }
        }
    }

    /// Applies a write to local storage and runs its consequences: the
    /// record is refreshed (its TTL clock restarts — writes and replication
    /// both count), every cached view of the key is dropped, the key
    /// enters the digest's news ring, and — when the write raised the
    /// stored stamp — the key's recent fetchers are pushed the new view
    /// (`from`, the write's own sender, excepted). The one path behind the
    /// `Store` / `Append` / `Replicate` handlers and the coordinator's
    /// local apply (`from` = `None`).
    fn apply_write(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        key: Id160,
        body: &WriteBody,
        stamp: VersionStamp,
        from: Option<&Id160>,
    ) {
        let rose = self.storage.apply(key, body, stamp, ctx.now_us);
        self.invalidate_cached(&key);
        self.note_news(key, ctx.now_us);
        if rose {
            self.push_invalidations(ctx, key, from);
        }
    }

    /// Handles an incoming `Store` / `Append` / `Replicate`: apply, ack.
    pub(super) fn on_write(&mut self, ctx: &mut Ctx<KadOutput>, msg: Message) {
        let Some((rpc, from, key, body, stamp)) = WriteBody::carried_by(msg) else {
            return;
        };
        self.observe_stamp(stamp);
        let replica = matches!(body, WriteBody::Snapshot { .. });
        // TTL accept gate: a record that already outlived
        // `record_ttl_us` here is a zombie awaiting the expiry sweep —
        // merging an incoming snapshot would re-wind its clock and
        // resurrect it (the snapshot stems from the same stale write; a
        // *gated* sender would not have pushed it). Drop the zombie and
        // reject the refresh instead; the ack still flows (the datagram
        // was handled, not lost). If the sender's copy was genuinely
        // fresher (this node missed a later write), the rejection costs at
        // most one repair interval: the next push meets an empty slot and
        // is accepted as a fresh record.
        if replica && self.drop_if_expired(&key, ctx.now_us) {
            return self.ack(ctx, from.addr, rpc);
        }
        self.apply_write(ctx, key, &body, stamp, Some(&from.id));
        // Repair suppression: someone just re-replicated this key, so our
        // own next repair sweep can skip it.
        if replica && self.cfg.maintenance.is_some() {
            self.maint.last_replicate_seen.insert(key, ctx.now_us);
        }
        self.ack(ctx, from.addr, rpc);
    }

    /// Write-phase bookkeeping: an ack arrived or a replica timed out.
    pub(super) fn write_progress(&mut self, ctx: &mut Ctx<KadOutput>, op_id: u64, acked: bool) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        let Phase::Write { acks, pending, .. } = &mut op.phase else {
            return;
        };
        *acks += u32::from(acked);
        *pending -= 1;
        if *pending == 0 {
            let acks = *acks + 1; // count the local apply as durable
            self.finish_write(ctx, op_id, acks);
        }
    }

    /// Completes a write whose last replica answered or timed out.
    fn finish_write(&mut self, ctx: &mut Ctx<KadOutput>, op_id: u64, acks: u32) {
        let Some(op) = self.ops.remove(&op_id) else {
            return;
        };
        let Phase::Write { targets, stamp, .. } = op.phase else {
            return;
        };
        self.note_write_done(op.lookup.target(), ctx.now_us);
        ctx.complete(
            op_id,
            KadOutput::Written {
                acks,
                targets,
                stamp,
            },
        );
    }

    /// A `Replicate`-ready snapshot of one held value and the origin stamp
    /// it travels under.
    pub(super) fn snapshot(&self, key: &Id160) -> Option<(WriteBody, VersionStamp)> {
        let (blob, entries, stamp) = self.storage.snapshot(key)?;
        Some((WriteBody::Snapshot { blob, entries }, stamp))
    }

    /// Folds an observed origin stamp into the Lamport write clock.
    pub(super) fn observe_stamp(&mut self, stamp: VersionStamp) {
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

    /// True when `key` is held but has outlived [`KadConfig::record_ttl_us`]
    /// — present only because the periodic expiry sweep has not reached it
    /// yet. Such zombies must neither be pushed by maintenance nor have
    /// their clock re-wound by an incoming `Replicate`.
    ///
    /// [`KadConfig::record_ttl_us`]: super::KadConfig::record_ttl_us
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
    pub(super) fn drop_if_expired(&mut self, key: &Id160, now_us: u64) -> bool {
        if self.expired_locally(key, now_us) {
            self.storage.remove(key);
            self.invalidate_cached(key);
            self.forget_unheld_news();
            return true;
        }
        false
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
        // A writer touching more distinct keys than the cap within one TTL
        // sheds its oldest idle guards. Those keys lose their guard early
        // (their next read may be a cached view predating the write by
        // < TTL) — the bounded-staleness floor every non-writer already
        // lives with.
        let ttl = self.write_guard_ttl_us();
        let armed = |g: &WriteGuard| g.inflight > 0 || now_us.saturating_sub(g.armed_at_us) <= ttl;
        let idle_since = |g: &WriteGuard| (g.inflight == 0).then_some(g.armed_at_us);
        bound_book(&mut self.recent_writes, WRITE_GUARD_CAP, armed, idle_since);
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

    /// An authoritative read (by a GET issued at `issued_at_us`) can disarm
    /// `key`'s read-your-writes guard — but only if it cannot predate the
    /// guarded write: no write for the key may still be in flight, and the
    /// GET must have been issued after the guard was (re-)armed. (A reply
    /// that raced an in-flight write could carry the pre-write view.)
    pub(super) fn disarm_guard(&mut self, key: &Id160, issued_at_us: u64) {
        let guard = self.recent_writes.get(key);
        if guard.is_some_and(|g| g.inflight == 0 && issued_at_us >= g.armed_at_us) {
            self.recent_writes.remove(key);
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
    pub(super) fn recently_wrote(&self, key: &Id160, now_us: u64) -> bool {
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
}

#[cfg(test)]
mod tests {
    use dharma_net::{Node, SimConfig, SimNet};
    use dharma_types::sha1;

    use super::super::testutil::{build_net, build_overlay, sim_cfg, st, test_cfg};
    use super::*;
    use crate::node::KadConfig;
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

    /// The coordinator of a client write is usually one of the key's `k`
    /// closest itself. Its own copy must be the same record, by the same
    /// path, as every other replica's — refreshed when written, so that it
    /// lives out its TTL and keeps accepting repair.
    #[test]
    fn a_coordinator_inside_the_replica_set_applies_its_own_write_like_any_replica() {
        // 6 nodes under k = 8: every node is in every replica set.
        let cfg = KadConfig {
            record_ttl_us: Some(2_000_000),
            ..test_cfg(8)
        };
        let (mut net, contacts) = build_overlay(sim_cfg(40), 6, cfg);
        let (tags, uri) = (sha1(b"own-append"), sha1(b"own-blob"));
        let issued_at = 5_000_000;
        net.run_until(issued_at);
        net.with_node(2, |n, ctx| {
            n.append(ctx, tags, "rock", 3);
            n.put_blob(ctx, uri, b"uri://x".to_vec());
        });
        net.run_until(issued_at + 200_000);
        for key in [tags, uri] {
            let own = net
                .node(2)
                .storage()
                .get(&key)
                .expect("the coordinator's copy");
            let remote = net.node(4).storage().get(&key).expect("a remote replica's");
            assert_eq!(
                net.node(2).storage().snapshot(&key),
                net.node(4).storage().snapshot(&key),
                "same blob, entries and version on both"
            );
            assert_eq!(
                own.refreshed_us, own.version.seq,
                "refreshed by the local apply, at the instant its stamp was minted"
            );
            assert!((issued_at..remote.refreshed_us).contains(&own.refreshed_us));
        }
        // The write was 1.5 s ago and the TTL is 2 s: an expiry tick has
        // passed since, and the record is still everywhere.
        net.run_until(issued_at + 1_500_000);
        assert!(net.node(2).storage().contains(&tags) && net.node(2).storage().contains(&uri));
        // A repair push toward the coordinator meets a live record, not a
        // zombie to reject and remove: it merges and re-winds the clock.
        let now = net.now_us();
        net.with_node(2, |n, ctx| {
            let repair = Message::Replicate {
                rpc: 1,
                from: contacts[4].clone(),
                key: tags,
                blob: None,
                entries: vec![StoredEntry {
                    name: "rock".into(),
                    weight: 5,
                }],
                stamp: st(1),
            };
            n.on_message(ctx, 4, repair.encode_to_bytes());
        });
        assert_eq!(net.node(2).storage().weight(&tags, "rock"), 5);
        assert_eq!(net.node(2).storage().get(&tags).unwrap().refreshed_us, now);
    }
}
