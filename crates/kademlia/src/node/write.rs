//! The one way to apply a write.
//!
//! A client write (`put_blob`, `append`) and a maintenance snapshot
//! (repair, join hand-off, leave) are the same write carrying a different
//! [`WriteBody`]: the bytes its message holds between key and stamp,
//! encoded once — when the client operation starts, or when the sweep
//! reads the held value. For a client write a lookup fixes the replica
//! set and [`KademliaNode::write_to_replicas`] mints its origin stamp; a
//! snapshot keeps the stamp it is held under. Each replica is sent those
//! bytes as a `Store` / `Append` / `Replicate` — one exactly sized
//! datagram per replica, built around the body by
//! `Message::encode_around` — and every holder, the coordinator's own copy
//! included, applies the same bytes through
//! [`KademliaNode::apply_write`]: a replica keeps the body its decoder
//! validated and hands it to storage, which interns each name from the
//! bytes. No entry is cloned, re-encoded or decoded into a `String` on
//! the way. Also here: the origin stamps writes travel under and the
//! read-your-writes guards a writer keeps while caching is on.

use bytes::{Bytes, BytesMut};

use dharma_net::Ctx;
use dharma_types::wire::varint_len;
use dharma_types::{Id160, VersionStamp, WireEncode, WriteBytes};

use super::{bound_book, KadOutput, KademliaNode, OpKind, Phase};
use crate::messages::{entry_len, put_entry, Contact, Message, StoredEntry};
use crate::storage::WriteBody;

impl WriteBody {
    /// The datagram that carries this write to one replica: its body
    /// between key and stamp, copied into an exactly sized buffer.
    fn message(&self, rpc: u64, from: &Contact, key: Id160, stamp: VersionStamp) -> Bytes {
        let from = from.clone();
        let msg = match self {
            WriteBody::Blob(_) => Message::Store {
                rpc,
                from,
                key,
                blob: Vec::new(),
                stamp,
            },
            WriteBody::Entries(_) => Message::Append {
                rpc,
                from,
                key,
                entries: Vec::new(),
                stamp,
            },
            WriteBody::Snapshot(_) => Message::Replicate {
                rpc,
                from,
                key,
                blob: None,
                entries: Vec::new(),
                stamp,
            },
        };
        let (WriteBody::Blob(body) | WriteBody::Entries(body) | WriteBody::Snapshot(body)) = self;
        msg.encode_around(body)
    }

    /// The inverse of [`Self::message`]: the write a `Store` / `Append` /
    /// `Replicate` carries, as `(rpc, sender, key, body, stamp)`, with the
    /// body its wire bytes were kept as. `None` for every other message.
    fn carried_by(
        msg: Message,
        body: Option<WriteBody>,
    ) -> Option<(u64, Contact, Id160, WriteBody, VersionStamp)> {
        match msg {
            Message::Store {
                rpc,
                from,
                key,
                stamp,
                ..
            }
            | Message::Append {
                rpc,
                from,
                key,
                stamp,
                ..
            }
            | Message::Replicate {
                rpc,
                from,
                key,
                stamp,
                ..
            } => Some((rpc, from, key, body?, stamp)),
            _ => None,
        }
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
        let mut body = BytesMut::with_capacity(varint_len(blob.len() as u64) + blob.len());
        body.put_bytes_field(&blob);
        self.start_write(ctx, key, WriteBody::Blob(body.freeze()))
    }

    /// Appends `tokens` to entry `name` of the weighted set at `key`, on the
    /// `k` closest nodes.
    pub fn append(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, name: &str, tokens: u64) -> u64 {
        let mut body = BytesMut::with_capacity(1 + entry_len(name, tokens));
        body.put_varint(1);
        put_entry(&mut body, name, tokens);
        self.start_write(ctx, key, WriteBody::Entries(body.freeze()))
    }

    /// Appends tokens to several entries of the weighted set at `key` in a
    /// single overlay operation (one lookup + k replica messages) — the
    /// block-update primitive of DHARMA's Table I cost model. The entries
    /// are encoded here, once: every replica is sent, and every holder
    /// applies, these bytes.
    pub fn append_many(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        key: Id160,
        entries: Vec<StoredEntry>,
    ) -> u64 {
        let body = WriteBody::Entries(entries.encode_to_bytes());
        self.start_write(ctx, key, body)
    }

    /// Starts a write of `body` to the `k` nodes closest to `key`. It
    /// immediately drops this node's cached views of the key and arms the
    /// read-your-writes guard — even before any replica acks, a later
    /// local GET must never see the pre-write view.
    fn start_write(&mut self, ctx: &mut Ctx<KadOutput>, key: Id160, body: WriteBody) -> u64 {
        self.note_written(key, ctx.now_us);
        self.start_op(ctx, key, OpKind::Write(body))
    }

    /// Phase 2 of a write: the lookup fixed the replica set — the `k`
    /// closest, this node among them if it is closer than the `k`-th (or
    /// the set is short). Mint the origin stamp, apply locally if so, send
    /// to the rest, and wait for their acks.
    pub(super) fn write_to_replicas(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        op_id: u64,
        key: Id160,
        mut replicas: Vec<Contact>,
        body: &WriteBody,
    ) {
        let self_dist = self.contact.id.distance(&key);
        let include_self = replicas.len() < self.cfg.k
            || (replicas.last()).is_none_or(|c| self_dist < c.id.distance(&key));
        replicas.truncate(self.cfg.k.saturating_sub(usize::from(include_self)));
        let stamp = self.mint_stamp(&key, ctx.now_us);
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
            self.send_write(ctx, contact, Some(op_id), key, body, stamp);
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
        body: &WriteBody,
        stamp: VersionStamp,
    ) {
        let build = |rpc: u64, from: &Contact| body.message(rpc, from, key, stamp);
        match op {
            Some(op) => self.request(ctx, to.clone(), op, self.cfg.rpc_timeout_us, None, build),
            None => self.notify(ctx, to.addr, build),
        };
    }

    /// Applies a write to local storage and runs its consequences: the
    /// record is refreshed (writes and replication both count), every
    /// cached view of the key is dropped, the key enters the digest's news
    /// ring, and — when the write raised the stored stamp — the key's
    /// recent fetchers are pushed the new view (`from`, the write's own
    /// sender, excepted). The one path behind the `Store` / `Append` /
    /// `Replicate` handlers and the coordinator's local apply (`from` =
    /// `None`).
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

    /// Handles an incoming `Store` / `Append` / `Replicate` (with the wire
    /// body `value_use` kept): apply, ack.
    pub(super) fn on_write(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        msg: Message,
        body: Option<WriteBody>,
    ) {
        let Some((rpc, from, key, body, stamp)) = WriteBody::carried_by(msg, body) else {
            return;
        };
        self.observe_stamp(stamp);
        let replica = matches!(body, WriteBody::Snapshot(_));
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

    /// What a `Replicate` of one held value carries, encoded once for
    /// every target, and the origin stamp it travels under.
    pub(super) fn snapshot(&self, key: &Id160) -> Option<(WriteBody, VersionStamp)> {
        let (body, stamp) = self.storage.encode_snapshot(key)?;
        Some((WriteBody::Snapshot(body), stamp))
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
    use dharma_net::Node;
    use dharma_types::sha1;

    use std::time::{Duration, Instant};

    use super::super::testutil::{build_overlay, contact, fresh_cfg, sim_cfg, st, test_cfg};
    use super::*;
    use crate::messages::DigestEntry;
    use crate::node::{KadConfig, MaintConfig};

    /// The coordinator of a client write is usually one of the key's `k`
    /// closest itself. Its own copy must be the same record, by the same
    /// path, as every other replica's — refreshed when written, and
    /// refreshed again by repair.
    #[test]
    fn a_coordinator_inside_the_replica_set_applies_its_own_write_like_any_replica() {
        // 6 nodes under k = 8: every node is in every replica set.
        let (mut net, contacts) = build_overlay(sim_cfg(40), 6, test_cfg(8));
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
        // A repair push toward the coordinator merges and re-winds the
        // clock.
        net.run_until(issued_at + 1_500_000);
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

    /// A `Replicate` of exactly what a replica holds changes no entry, but
    /// it is still a repair round: the stamp rises to the incoming one, the
    /// record is refreshed, the key is news in the digest, this node's own
    /// sweep skips it and the sender is acked — with no name interned and
    /// the wire memo kept (the storage's heap size does not move).
    #[test]
    fn an_identical_replicate_refreshes_and_acks_without_interning() {
        let cfg = KadConfig {
            maintenance: Some(MaintConfig::default()),
            ..fresh_cfg(1_000_000)
        };
        let mut node = KademliaNode::new(sha1(b"replica"), 0, cfg);
        let key = sha1(b"held");
        let entries = (0..30u64).map(|i| StoredEntry {
            name: format!("tag {} ✓", i % 17 + i / 17 * 100),
            weight: 1 + i % 4,
        });
        // An empty routing table: the append applies locally.
        node.append_many(&mut Ctx::new(0, 0, 1), key, entries.collect());
        let find = Message::FindValue {
            rpc: 1,
            from: contact(5),
            key,
            top_n: 10,
            no_cache: false,
        };
        node.on_message(&mut Ctx::new(10, 0, 2), 5, find.encode_to_bytes());
        let heap = node.storage().heap_bytes();
        let (_, held, _) = node.storage().snapshot(&key).expect("held");
        let stamp = VersionStamp::new(1 << 40, sha1(b"origin"));
        let replicate = Message::Replicate {
            rpc: 41,
            from: contact(7),
            key,
            blob: None,
            entries: held,
            stamp,
        };
        let mut ctx = Ctx::new(2_000, 0, 3);
        node.on_message(&mut ctx, 7, replicate.encode_to_bytes());
        assert_eq!(node.storage().heap_bytes(), heap);
        let value = node.storage().get(&key).expect("held");
        assert_eq!((value.version, value.refreshed_us), (stamp, 2_000));
        let news = DigestEntry {
            key,
            version: stamp,
        };
        assert!(node.build_digest(None, 2_000).contains(&news));
        assert!(node.maint.last_replicate_seen.contains_key(&key));
        let ack = Message::Ack {
            rpc: 41,
            from: node.contact.clone(),
        };
        let (sends, _, _) = ctx.into_effects();
        let acked = |m: &dharma_net::OutMessage| m.to == 7 && m.payload == ack.encode_to_bytes();
        assert!(sends.iter().any(acked), "{sends:?}");
    }

    /// No write path is quadratic in block size: a 20,000-entry append
    /// onto an empty block, and a 20,000-entry `Replicate` whose second
    /// half all differs, each take well under a second unoptimised.
    #[test]
    fn twenty_thousand_entry_writes_stay_fast() {
        let mut node = KademliaNode::new(sha1(b"bulk"), 0, test_cfg(4));
        let key = sha1(b"hub");
        let entries = (0..20_000u64).map(|i| StoredEntry {
            name: format!("r{:05}", (i * 7_919) % 20_000),
            weight: 1 + i % 7,
        });
        let started = Instant::now();
        node.append_many(&mut Ctx::new(0, 0, 1), key, entries.collect());
        let appended = started.elapsed();
        let (_, mut held, _) = node.storage().snapshot(&key).expect("held");
        held.iter_mut().skip(10_000).for_each(|e| e.weight += 1);
        let replicate = Message::Replicate {
            rpc: 1,
            from: contact(2),
            key,
            blob: None,
            entries: held.clone(),
            stamp: st(5),
        };
        let started = Instant::now();
        node.on_message(&mut Ctx::new(1, 0, 2), 2, replicate.encode_to_bytes());
        let merged = started.elapsed();
        held.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.name.cmp(&b.name)));
        let stored = node.storage().snapshot(&key).expect("held").1;
        assert!(stored == held, "the merge raised the second half");
        let bound = Duration::from_secs(1);
        assert!(
            appended < bound && merged < bound,
            "{appended:?} / {merged:?}"
        );
    }
}
