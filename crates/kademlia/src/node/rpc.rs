//! The one way to send an RPC, and what happens when no reply comes.
//!
//! [`KademliaNode::request`] is the only place that mints an RPC id for a
//! tracked request, records its [`PendingRpc`] and arms its timer;
//! [`KademliaNode::notify`] is its untracked twin and
//! [`KademliaNode::ack`] the only `Ack` builder. A reply from the peer that
//! was asked *settles* its RPC ([`KademliaNode::settle`]); a timer that
//! still finds the entry is a timeout ([`KademliaNode::on_timeout`]).
//!
//! Every received message refreshes the sender in the routing table; every
//! RPC timeout marks the silent contact suspect — it is *probed* with a
//! `PING` and evicted only when the probe also fails (ping-before-evict,
//! §2.2 of the Kademlia paper).

use bytes::Bytes;

use dharma_net::{Counter, Ctx, NodeAddr};
use dharma_types::{Id160, WireEncode};

use super::ops::lookup_query;
use super::{KadOutput, KademliaNode, Phase};
use crate::messages::{Contact, DigestEntry, Message};

#[derive(Clone, Debug)]
pub(super) struct PendingRpc {
    pub(super) op: u64,
    pub(super) to: Contact,
    /// When the request left this node — the RTT sample base for the reply.
    pub(super) sent_at_us: u64,
    /// The timeout (µs) this attempt was armed with. Anything below the
    /// conservative `rpc_timeout_us` is an RTT-adaptive *early* timer:
    /// its firing means "stop waiting and retransmit", not "the peer is
    /// dead" — it must not evict from the routing table or feed the churn
    /// estimate.
    pub(super) timeout_us: u64,
    /// When the *first* attempt of this branch left the node. Retransmits
    /// inherit it, so the branch's total patience stays bounded by
    /// `rpc_timeout_us` no matter how many early timers fired.
    first_sent_us: u64,
}

/// Sentinel operation id marking a pending RPC as a standalone liveness
/// probe (client operation ids count up from 1).
pub(super) const PROBE_OP: u64 = 0;

/// Sentinel operation id for tracked maintenance `Replicate` pushes
/// (repair / handoff): the ack settles the RPC, a timeout runs
/// the standard suspect path, so a corpse in a replica set is discovered
/// by the first repair round instead of waiting for the probe cursor.
/// Client op ids count up from 1 and can never collide.
pub(super) const REPAIR_OP: u64 = u64::MAX;

/// Sentinel operation id for version-gossip revalidation `FindValue`s
/// (direct refresh of a digest-stale cached view).
pub(super) const REFRESH_OP: u64 = u64::MAX - 1;

/// Sentinel operation id for write-triggered `InvalidatePush` sends: the
/// ack settles the RPC, a timeout runs the standard suspect path (a
/// fetcher that went silent is probed like any other suspect).
pub(super) const PUSH_OP: u64 = u64::MAX - 2;

impl KademliaNode {
    /// Sends a request and tracks it: mints the RPC id, queues the datagram
    /// `build(rpc, own contact)` encodes, records the [`PendingRpc`] under
    /// `op` and arms its timeout. `first_sent_us` is `None` for a first
    /// attempt; a retransmit passes the branch's original send time.
    /// Returns the RPC id.
    pub(super) fn request(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        to: Contact,
        op: u64,
        timeout_us: u64,
        first_sent_us: Option<u64>,
        build: impl FnOnce(u64, &Contact) -> Bytes,
    ) -> u64 {
        let rpc = self.notify(ctx, to.addr, build);
        self.pending.insert(
            rpc,
            PendingRpc {
                op,
                to,
                sent_at_us: ctx.now_us,
                timeout_us,
                first_sent_us: first_sent_us.unwrap_or(ctx.now_us),
            },
        );
        ctx.set_timer(timeout_us, rpc);
        rpc
    }

    /// The untracked twin of [`Self::request`]: mints an RPC id and sends,
    /// but keeps no pending state — for pushes whose reply nobody waits on
    /// (leave notices and parting handoffs, promotion pushes, `CachePush`).
    pub(super) fn notify(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        to: NodeAddr,
        build: impl FnOnce(u64, &Contact) -> Bytes,
    ) -> u64 {
        let rpc = self.next_rpc;
        self.next_rpc += 1;
        ctx.send(to, build(rpc, &self.contact));
        rpc
    }

    /// Acknowledges a handled write or push.
    pub(super) fn ack(&self, ctx: &mut Ctx<KadOutput>, to: NodeAddr, rpc: u64) {
        let from = self.contact.clone();
        ctx.send(to, Message::Ack { rpc, from }.encode_to_bytes());
    }

    /// Settles the round trip a reply to `rpc` from `from` completes:
    /// forgets the pending entry (so its timer finds nothing), folds the
    /// RTT sample into the book and credits the op's adaptive-α clean
    /// streak. `None` when the reply is late — its RPC already timed out
    /// or was answered — or comes from anyone but the peer that was asked:
    /// RPC ids count up from 1, so echoing one proves nothing, and a reply
    /// that did not come from the asked peer must neither complete its
    /// operation nor vouch for that peer's liveness and round trip. The
    /// entry then stays, for the real reply or the timeout.
    pub(super) fn settle(&mut self, rpc: u64, from: &Id160, now_us: u64) -> Option<PendingRpc> {
        if self.pending.get(&rpc)?.to.id != *from {
            return None;
        }
        let pend = self.pending.remove(&rpc)?;
        self.sibling_done(pend.op);
        if let Some(l) = self.latency.as_mut() {
            let rtt_us = now_us.saturating_sub(pend.sent_at_us);
            l.rtt.observe(pend.to.id, rtt_us, now_us);
            self.cfg.counters.add(Counter::RttSamples, 1);
        }
        self.alpha_feedback(pend.op, false);
        Some(pend)
    }

    /// A pending RPC of `op` is gone: if `op` is an answered GET, one
    /// sibling fewer is in flight, and after the last its body is dropped.
    fn sibling_done(&mut self, op: u64) {
        if let Some((_, left)) = self.answered.get_mut(&op) {
            *left -= 1;
            if *left == 0 {
                self.answered.remove(&op);
            }
        }
    }

    pub(super) fn on_ping(&mut self, ctx: &mut Ctx<KadOutput>, rpc: u64, to: &Contact) {
        let from = self.contact.clone();
        let digest = self.build_digest(None, ctx.now_us);
        ctx.send(
            to.addr,
            Message::Pong { rpc, from, digest }.encode_to_bytes(),
        );
    }

    /// Liveness was noted on receipt; additionally settle the probe (if
    /// this `Pong` answers one) so its timeout cannot evict.
    pub(super) fn on_pong(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        rpc: u64,
        from: &Contact,
        digest: &[DigestEntry],
    ) {
        if let Some(pend) = self.settle(rpc, &from.id, ctx.now_us) {
            self.maint.probing.remove(&pend.to.id);
        }
        self.absorb_digest(ctx, from, digest);
    }

    /// `Ack`: a write-phase replica answered. (A tracked maintenance or
    /// invalidation push that landed is settled and nothing more: sentinel
    /// ops have no op state for `write_progress` to find.)
    pub(super) fn on_ack(&mut self, ctx: &mut Ctx<KadOutput>, rpc: u64, from: &Id160) {
        if let Some(pend) = self.settle(rpc, from, ctx.now_us) {
            self.write_progress(ctx, pend.op, true);
        }
    }

    /// An RPC's timer fired. A still-pending entry means the reply never
    /// came: the silent contact turns suspect (probed, and evicted only
    /// when the probe fails too), and the operation the RPC belonged to
    /// moves on — a lookup retransmits or fails the branch, a write counts
    /// the replica out.
    pub(super) fn on_timeout(&mut self, ctx: &mut Ctx<KadOutput>, rpc: u64) {
        let Some(pend) = self.pending.remove(&rpc) else {
            return; // reply beat the timer
        };
        self.sibling_done(pend.op);
        if pend.op == REFRESH_OP {
            self.end_revalidation(rpc);
        }
        if pend.op == PROBE_OP {
            // A liveness probe went unanswered: death confirmed. Evict the
            // contact (promoting the freshest replacement-cache entry) and
            // count the departure into the churn estimate.
            self.maint.probing.remove(&pend.to.id);
            if self.routing.note_failure(&pend.to.id) {
                self.maint.note_departure(ctx.now_us, 1.0);
            }
            return self.forget_peer(&pend.to.id);
        }
        let rpc_timeout_us = self.cfg.rpc_timeout_us;
        let early = pend.timeout_us < rpc_timeout_us;
        // An RTT-adaptive timer fired at ~β×srtt (or a retransmitted
        // attempt gave up): the reply may simply still be in flight, or one
        // datagram was lost on a live link, so the contact stays. An
        // untouched full-timeout RPC only marks it *suspect*: probe it, and
        // evict on probe failure. Either way the op moves on below.
        if !early && pend.first_sent_us == pend.sent_at_us {
            self.probe_contact(ctx, pend.to.clone());
        }
        let Some(op) = self.ops.get(&pend.op) else {
            return;
        };
        if matches!(op.phase, Phase::Write { .. }) {
            return self.write_progress(ctx, pend.op, false);
        }
        // Adaptive α: a branch's *first* timeout is evidence of loss on
        // this op's path — widen *its* parallelism so redundancy hides it.
        // Later timers of the same branch (retransmit backoff) carry no
        // new evidence.
        if pend.first_sent_us == pend.sent_at_us {
            self.alpha_feedback(pend.op, true);
        }
        let Some(op) = self.ops.get_mut(&pend.op) else {
            return;
        };
        let next_timeout = (pend.timeout_us * 2).min(rpc_timeout_us);
        let branch_age = ctx.now_us.saturating_sub(pend.first_sent_us);
        if early && branch_age + next_timeout <= rpc_timeout_us {
            // Fast retransmit with backoff: the RTT-adaptive timer fired,
            // so the datagram was probably lost on a live-but-lossy link.
            // Re-send the same query to the same contact with a doubled
            // timeout instead of failing the branch — a crawl that marks
            // every lost-datagram holder `Failed` can converge valueless
            // and push the client into a second full attempt, doubling the
            // tail. The branch's total patience stays within the
            // conservative `rpc_timeout_us`.
            op.messages += 1;
            let query = lookup_query(op);
            let first_sent = Some(pend.first_sent_us);
            self.request(ctx, pend.to, pend.op, next_timeout, first_sent, query);
        } else {
            op.lookup.on_failure(&pend.to.id);
            self.pump(ctx, pend.op); // completes a converged lookup itself
        }
    }
}

#[cfg(test)]
mod tests {
    use dharma_net::Node;
    use dharma_types::{sha1, WireDecode};

    use super::super::testutil::{contact, fresh_cfg, st};
    use super::*;
    use crate::messages::{MessageKind, StoredEntry, ValueUse};
    use crate::node::KadConfig;
    use crate::rtt::LatencyConfig;

    /// A node with three seeds and the datagrams its first callback sent.
    fn asking_node(
        cfg: KadConfig,
        start: impl FnOnce(&mut KademliaNode, &mut Ctx<KadOutput>) -> u64,
    ) -> (KademliaNode, u64, Vec<Message>) {
        let mut node = KademliaNode::new(sha1(b"requester"), 0, cfg);
        for n in 1..=3 {
            node.add_seed(contact(n));
        }
        let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
        let op = start(&mut node, &mut ctx);
        (node, op, sent(ctx))
    }

    fn sent(ctx: Ctx<KadOutput>) -> Vec<Message> {
        let (sends, _, _) = ctx.into_effects();
        let decode = |m: &dharma_net::OutMessage| Message::decode_exact(&m.payload).unwrap();
        sends.iter().map(decode).collect()
    }

    #[test]
    fn a_found_value_from_a_peer_that_was_not_asked_settles_nothing() {
        let cfg = KadConfig {
            latency: Some(LatencyConfig::default()),
            ..KadConfig::default()
        };
        let key = sha1(b"block");
        let (mut node, op, asked) = asking_node(cfg, |n, ctx| n.get(ctx, key, 0));
        // The first `FindValue` went to B (ids count up from 1: guessable).
        let b_rpc = asked[0].rpc_id();
        let b = node.pending[&b_rpc].to.clone();
        let found = |from: Contact, weight: u64| Message::FoundValue {
            rpc: b_rpc,
            from,
            blob: None,
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight,
            }],
            truncated: false,
            version: st(weight),
            from_cache: false,
            digest: Vec::new(),
        };
        // C, which nobody asked, answers B's RPC with a value of its own.
        let mut ctx: Ctx<KadOutput> = Ctx::new(2_000, 0, 2);
        node.on_message(&mut ctx, 9, found(contact(9), 666).encode_to_bytes());
        let (_, _, completions) = ctx.into_effects();
        assert!(completions.is_empty(), "the GET is still B's to answer");
        assert_eq!(node.pending[&b_rpc].to, b, "B's RPC keeps its timer");
        let rtt = node.rtt().unwrap();
        assert_eq!(rtt.samples(), 0, "no round trip was completed");
        assert_eq!(rtt.estimate_us(&b.id), None);
        // B's own reply completes the GET, with B's value.
        let mut ctx: Ctx<KadOutput> = Ctx::new(5_000, 0, 3);
        node.on_message(&mut ctx, b.addr, found(b.clone(), 3).encode_to_bytes());
        let (_, _, completions) = ctx.into_effects();
        assert!(
            matches!(&completions[..], [(id, KadOutput::Value { value: Some(v), .. })]
                if *id == op && v.entries[0].weight == 3),
            "{completions:?}"
        );
        assert!(!node.pending.contains_key(&b_rpc));
        assert_eq!(node.rtt().unwrap().estimate_us(&b.id), Some(5_000));
    }

    /// The usual case: a view GET's siblings answer with the body the GET
    /// completed with. Each is compared with that body, not walked, and
    /// still settles its RPC, samples its round trip and feeds gossip; the
    /// body is dropped once the last sibling settles or times out.
    #[test]
    fn sibling_replies_with_the_kept_body_are_compared_and_still_settle() {
        let cfg = KadConfig {
            latency: Some(LatencyConfig::default()),
            ..fresh_cfg(3_600_000_000)
        };
        let key = sha1(b"block");
        let (mut node, op, finds) = asking_node(cfg, |n, ctx| n.get_view(ctx, key, 0, false));
        let asked: Vec<(u64, Contact)> = finds
            .iter()
            .map(|f| (f.rpc_id(), node.pending[&f.rpc_id()].to.clone()))
            .collect();
        let reply = |(rpc, from): &(u64, Contact), gossip: &[u8]| Message::FoundValue {
            rpc: *rpc,
            from: from.clone(),
            blob: None,
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: 3,
            }],
            truncated: false,
            version: st(3),
            from_cache: false,
            digest: vec![DigestEntry {
                key: sha1(gossip),
                version: st(50),
            }],
        };
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
        node.on_message(&mut ctx, 1, reply(&asked[0], b"g0").encode_to_bytes());
        let (_, _, completions) = ctx.into_effects();
        let [(
            id,
            KadOutput::View {
                view: Some(view), ..
            },
        )] = &completions[..]
        else {
            panic!("the first answer completes the GET: {completions:?}");
        };
        assert_eq!(*id, op);
        let body = node.answered[&op].0.clone();
        assert_eq!(node.answered[&op].1, 2, "two siblings in flight");
        assert_eq!(view.entries().collect::<Vec<_>>(), [("rock", 3)]);

        // The second holder's answer: the same body, compared, and every
        // other field of the reply put to use.
        let (rpc, second) = asked[1].clone();
        let asked_what = node.value_use(MessageKind::FoundValue, rpc, None);
        assert_eq!(asked_what, ValueUse::Known(body));
        assert!(node.routing.note_failure(&second.id));
        let samples = node.rtt().unwrap().samples();
        let mut ctx: Ctx<KadOutput> = Ctx::new(4_000, 0, 3);
        node.on_message(&mut ctx, 2, reply(&asked[1], b"g1").encode_to_bytes());
        let (sends, _, completions) = ctx.into_effects();
        assert!(sends.is_empty() && completions.is_empty());
        assert!(
            node.routing.contains(&second.id),
            "the sender is noted live"
        );
        assert!(!node.pending.contains_key(&rpc), "the RPC is settled");
        assert_eq!(node.rtt().unwrap().samples(), samples + 1);
        assert_eq!(node.rtt().unwrap().estimate_us(&second.id), Some(4_000));
        let book = &node.fresh.as_ref().unwrap().book;
        assert_eq!(book.highest(&sha1(b"g1")), Some(st(50)), "digest absorbed");
        assert_eq!(node.answered[&op].1, 1, "one sibling left");

        // The third never answers: its timeout drops the kept body.
        let mut ctx: Ctx<KadOutput> = Ctx::new(600_000, 0, 4);
        node.on_timer(&mut ctx, asked[2].0);
        assert!(node.answered.is_empty());
        let asked_what = node.value_use(MessageKind::FoundValue, asked[2].0, None);
        assert_eq!(asked_what, ValueUse::Skip, "a reply nobody waits for");
    }

    #[test]
    fn an_ack_from_a_peer_that_was_not_asked_counts_no_replica() {
        let key = sha1(b"block");
        let (mut node, op, asked) =
            asking_node(KadConfig::default(), |n, ctx| n.append(ctx, key, "rock", 1));
        // Nobody knows anyone closer: the lookup converges on the seeds,
        // and the write phase sends each of them the `Append`.
        let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
        for find in &asked {
            let (rpc, from) = (find.rpc_id(), node.pending[&find.rpc_id()].to.clone());
            let reply = Message::FoundNodes {
                rpc,
                from,
                contacts: Vec::new(),
                digest: Vec::new(),
            };
            node.on_message(&mut ctx, 1, reply.encode_to_bytes());
        }
        let appends = sent(ctx);
        assert!(matches!(&appends[..], [Message::Append { .. }, _, _]));
        let silent_rpc = appends[0].rpc_id();
        let ack = |rpc: u64, from: Contact| Message::Ack { rpc, from }.encode_to_bytes();
        // A stranger acks the first replica's RPC; that replica stays silent.
        let mut ctx: Ctx<KadOutput> = Ctx::new(2_000, 0, 3);
        node.on_message(&mut ctx, 9, ack(silent_rpc, contact(9)));
        assert!(node.pending.contains_key(&silent_rpc));
        assert!(matches!(node.ops[&op].phase, Phase::Write { acks: 0, .. }));
        for append in &appends[1..] {
            let from = node.pending[&append.rpc_id()].to.clone();
            node.on_message(&mut ctx, from.addr, ack(append.rpc_id(), from));
        }
        let mut ctx: Ctx<KadOutput> = Ctx::new(600_000, 0, 4);
        node.on_timer(&mut ctx, silent_rpc);
        let (_, _, completions) = ctx.into_effects();
        // Two replicas and the local copy — not the one that never answered.
        assert!(
            matches!(&completions[..], [(id, KadOutput::Written { acks: 3, targets: 4, .. })]
                if *id == op),
            "{completions:?}"
        );
    }

    #[test]
    fn late_found_value_still_settles_its_rpc_and_feeds_liveness_rtt_and_gossip() {
        // A GET asks α = 3 holders and completes on the first answer; the
        // other two answers are decoded without their blob and entries.
        // Everything else a reply is good for must still happen.
        let cfg = KadConfig {
            latency: Some(LatencyConfig::default()),
            ..fresh_cfg(3_600_000_000)
        };
        let key = sha1(b"block");
        let (mut node, op, finds) = asking_node(cfg, |n, ctx| n.get(ctx, key, 0));
        assert!(matches!(&finds[..], [Message::FindValue { .. }, _, _]));
        let asked_of = |find: &Message| (find.rpc_id(), node.pending[&find.rpc_id()].to.clone());
        let asked: Vec<(u64, Contact)> = finds.iter().map(asked_of).collect();
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
}
