//! Client operations: the iterative lookup every operation starts with,
//! from [`KademliaNode::start_op`] through the `α`-parallel pump
//! ([`crate::lookup`] decides whom to ask next) to completion — a read
//! completes with the first value found, a write moves on to its replica
//! phase (`write`). Bucket refresh for idle buckets is exposed as
//! [`KademliaNode::refresh_bucket`] for long-running deployments.

use bytes::{Bytes, BytesMut};

use dharma_net::{Ctx, NodeAddr};
use dharma_types::{Id160, WireDecode, WireEncode};

use super::rpc::{REFRESH_OP, REPAIR_OP};
use super::{KadOutput, KademliaNode, OpKind, OpState, Phase};
use crate::lookup::LookupState;
use crate::messages::{get_opt_blob, Contact, DigestEntry, FetchedValue, Message};
use crate::rtt::AlphaController;

impl KademliaNode {
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

    /// Refreshes bucket `i` by looking up a random id inside it (periodic
    /// maintenance for long-running deployments).
    pub fn refresh_bucket(&mut self, ctx: &mut Ctx<KadOutput>, bucket: usize) -> u64 {
        let target = self
            .contact
            .id
            .random_with_prefix(bucket.min(dharma_types::ID160_BITS - 1), &mut ctx.rng);
        self.find_nodes(ctx, target)
    }

    pub(super) fn start_op(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        target: Id160,
        kind: OpKind,
    ) -> u64 {
        let op_id = self.next_op;
        self.next_op += 1;

        let bypass_cache = match kind {
            OpKind::Get { fresh, .. } => fresh || self.recently_wrote(&target, ctx.now_us),
            _ => false,
        };

        // Local fast path for reads: this node may itself hold the value
        // authoritatively, or (with caching on) hold a fresh cached view.
        if let OpKind::Get { top_n, .. } = &kind {
            // A held value is read the way a peer would be served it — from
            // its wire memo — and decoded the way a reply would be.
            let mut body = BytesMut::new();
            let budget = self.cfg.reply_budget;
            let held = self
                .storage
                .encode_filtered(&target, *top_n, budget, &mut body);
            if let Some((truncated, version)) = held {
                self.cfg.counters.record_cache_miss();
                let mut body: &[u8] = &body;
                let value = Some(FetchedValue {
                    blob: get_opt_blob(&mut body).expect("this node's own encoding"),
                    entries: Vec::decode(&mut body).expect("this node's own encoding"),
                    truncated,
                    version,
                    from_cache: false,
                });
                ctx.complete(op_id, KadOutput::Value { value, messages: 0 });
                return op_id;
            }
            if !bypass_cache {
                if let Some(view) = self.serve_cached(&target, *top_n, ctx.now_us) {
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
                // An age-refused view stays resident: the read-through
                // below refreshes it, and a digest may yet confirm it.
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
                        if self.maint.recently_departed(&id, ctx.now_us) {
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
        let biased = self.latency.as_ref().filter(|l| l.cfg.bias_shortlist);
        let rtt_hints = biased.map(|l| l.hints(&seeds)).unwrap_or_default();
        let rtt_default = biased.and_then(|l| l.rtt.percentile_us(0.5));
        let alpha_ctl = self.adaptive_alpha().map(|l| AlphaController::new(&l.cfg));
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
            value_misses: Vec::new(),
            bypass_cache,
            issued_at_us: ctx.now_us,
            alpha_ctl,
        };

        self.ops.insert(op_id, op);
        // With nobody to ask (single-node network or empty table) the pump
        // finds the lookup converged and finishes it on the spot.
        self.pump(ctx, op_id);
        op_id
    }

    /// Issues as many queries as the lookup allows.
    pub(super) fn pump(&mut self, ctx: &mut Ctx<KadOutput>, op_id: u64) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        let queries = op.lookup.next_queries();
        let warm_redirects = op.lookup.take_warm_redirects();
        if warm_redirects > 0 {
            self.cfg.counters.record_warm_redirects(warm_redirects);
        }
        op.messages += queries.len() as u32;
        // The lookup may have converged (no queries issuable, none inflight).
        let converged = op.lookup.is_converged();
        let query = lookup_query(op);
        for contact in queries {
            let timeout_us = self.rpc_timeout_for(&contact.id);
            self.request(ctx, contact, op_id, timeout_us, None, &query);
        }
        if converged {
            self.finish_lookup(ctx, op_id);
        }
    }

    /// The lookup phase is over: complete reads, or move writes to phase 2.
    fn finish_lookup(&mut self, ctx: &mut Ctx<KadOutput>, op_id: u64) {
        let Some(op) = self.ops.get(&op_id) else {
            return;
        };
        if !matches!(op.phase, Phase::Lookup) {
            return;
        }
        let closest = op.lookup.closest_responded();
        match &op.kind {
            OpKind::FindNodes => ctx.complete(op_id, KadOutput::Nodes(closest)),
            OpKind::Get { .. } => {
                // Lookup ended without any node returning the value.
                let messages = op.messages;
                self.cfg.counters.record_cache_miss();
                ctx.complete(
                    op_id,
                    KadOutput::Value {
                        value: None,
                        messages,
                    },
                );
            }
            OpKind::Write { body, stamp } => {
                let (key, body, stamp) = (op.lookup.target(), body.clone(), *stamp);
                return self.write_to_replicas(ctx, op_id, key, closest, &body, stamp);
            }
        }
        self.ops.remove(&op_id);
    }

    /// Whether the blob and entries of a `FoundValue` answering `rpc`
    /// will be read: it revalidates a cached view, or it is the first
    /// value to reach a GET still in flight. Everything else — a second
    /// or third holder's answer, a reply to a finished or forgotten
    /// lookup — settles its RPC and feeds liveness, RTT and gossip from
    /// the reply's other fields alone.
    pub(super) fn wants_value(&self, rpc: u64) -> bool {
        self.pending.get(&rpc).is_some_and(|pend| {
            let live_get = |op: &OpState| matches!(op.kind, OpKind::Get { .. });
            pend.op == REFRESH_OP || self.ops.get(&pend.op).is_some_and(live_get)
        })
    }

    /// Answers a `FIND_NODE` — or a `FIND_VALUE` this node has no servable
    /// value for — with its `k` closest contacts to `target` and a digest.
    pub(super) fn reply_found_nodes(
        &self,
        ctx: &mut Ctx<KadOutput>,
        to: NodeAddr,
        rpc: u64,
        target: &Id160,
    ) {
        let contacts = self.routing.closest(target, self.cfg.k);
        let digest = self.build_digest(Some(target), ctx.now_us);
        let reply = Message::encode_found_nodes(rpc, &self.contact, &contacts, &digest);
        ctx.send(to, reply);
    }

    pub(super) fn on_found_nodes(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        rpc: u64,
        from: Contact,
        mut contacts: Vec<Contact>,
        digest: &[DigestEntry],
    ) {
        // Digests carry freshness news even on late replies.
        self.absorb_digest(ctx, &from, digest);
        let Some(pend) = self.settle(rpc, &from.id, ctx.now_us) else {
            return; // late reply for a finished op
        };
        if pend.op == REFRESH_OP {
            // The digest sender no longer holds the key (expired or
            // demoted between digest and refresh): the dropped view stays
            // dropped, nothing to refresh.
            self.end_revalidation(rpc);
            return;
        }
        if pend.op == REPAIR_OP {
            return;
        }
        // Third-party views may still name a peer that announced its
        // departure — keep tombstoned ids out of the table and the lookup
        // shortlist (querying a known corpse only buys a timeout).
        let own = self.contact.id;
        let now = ctx.now_us;
        contacts.retain(|c| c.id != own && !self.maint.recently_departed(&c.id, now));
        for c in &contacts {
            self.note_contact_latency_aware(c.clone());
        }
        // Latency-biased shortlists: hand the lookup the current RTT
        // estimates for the contacts it just learned.
        let biased = self.latency.as_ref().filter(|l| l.cfg.bias_shortlist);
        let rtt_hints = biased.map(|l| l.hints(&contacts)).unwrap_or_default();
        if let Some(op) = self.ops.get_mut(&pend.op) {
            for (id, est) in rtt_hints {
                op.lookup.hint_rtt(id, est);
            }
            op.lookup.on_response(&from.id, contacts);
            // A FoundNodes reply to a FIND_VALUE means the responder does
            // not hold the value: remember it as a candidate for the
            // store-on-path cache push.
            if self.cache.is_some() && matches!(op.kind, OpKind::Get { .. }) {
                op.value_misses.push(from);
            }
            self.pump(ctx, pend.op);
        }
    }

    /// `FoundValue`: a holder (or a path cache) answered a `FIND_VALUE` —
    /// of a GET still in flight, whose first value completes it, or of a
    /// revalidation. Any other reply only settles its RPC and feeds
    /// gossip (and was decoded without its body, see `wants_value`).
    pub(super) fn on_found_value(&mut self, ctx: &mut Ctx<KadOutput>, msg: Message) {
        let Message::FoundValue {
            rpc,
            from,
            blob,
            entries,
            truncated,
            version,
            from_cache,
            digest,
        } = msg
        else {
            return;
        };
        let now = ctx.now_us;
        self.observe_stamp(version);
        self.absorb_digest(ctx, &from, &digest);
        let Some(pend) = self.settle(rpc, &from.id, now) else {
            return;
        };
        let value = FetchedValue {
            blob,
            entries,
            truncated,
            version,
            from_cache,
        };
        if pend.op == REFRESH_OP {
            return self.on_revalidated(now, rpc, &from, value);
        }
        // Sentinel ops have no op state; neither has a finished lookup.
        let Some(op) = self.ops.get(&pend.op) else {
            return;
        };
        let OpKind::Get { top_n, .. } = op.kind else {
            return;
        };
        let (key, bypass) = (op.lookup.target(), op.bypass_cache);
        if from_cache && (bypass || !self.fresh_admits(&key, version)) {
            // A cached reply this GET must not accept: bypassing GETs
            // requested authoritative-only service (the view may predate
            // this node's write), and the monotone-freshness gate rejects
            // views some digest already superseded. Count the responder as
            // an empty miss (not a failure: the node is alive and
            // well-behaved) and keep looking for an authoritative holder.
            if let Some(op) = self.ops.get_mut(&pend.op) {
                op.lookup.on_response(&from.id, Vec::new());
            }
            return self.pump(ctx, pend.op);
        }
        let op = self.ops.remove(&pend.op).expect("looked up above");
        // Warm-peer bookkeeping: this contact just served the key.
        self.note_served_by(key, &from, from_cache, now);
        if from_cache {
            self.cfg.counters.record_cache_hit();
        } else {
            self.cfg.counters.record_cache_miss();
            // The served authoritative version is gossip too.
            self.note_version(key, version);
            self.disarm_guard(&key, op.issued_at_us);
        }
        // Only *authoritative* views are cached or pushed: re-caching a
        // `from_cache` reply would restamp its TTL clock and let a view
        // circulate cache-to-cache indefinitely, unbounding staleness. And
        // while a write guard is armed, the arriving view may predate the
        // write — don't pin it.
        if !from_cache && self.cache.is_some() && !self.recently_wrote(&key, now) {
            // Apply the Kademlia caching rule: push the view to the path
            // node closest to the key that missed, so the next lookup from
            // anywhere stops before the hot holders ...
            let nearest_miss = op.value_misses.iter().min_by_key(|c| c.id.distance(&key));
            if let Some(target) = nearest_miss {
                self.notify(ctx, target.addr, |rpc, from| {
                    Message::encode_cache_push(rpc, from, &key, top_n, &value)
                });
            }
            // ... and keep a requester-local view (served as a cache hit
            // on the next GET of this key from this node): the one copy
            // made of the value, which itself moves on to the caller.
            self.pin_view(key, top_n, value.clone(), now);
        }
        let done = KadOutput::Value {
            value: Some(value),
            messages: op.messages,
        };
        ctx.complete(pend.op, done);
    }
}

/// The query a lookup sends each contact: `FindValue` for a GET,
/// `FindNode` for everything else.
pub(super) fn lookup_query(op: &OpState) -> impl Fn(u64, &Contact) -> Bytes {
    let target = op.lookup.target();
    let no_cache = op.bypass_cache;
    let get = match op.kind {
        OpKind::Get { top_n, .. } => Some(top_n),
        _ => None,
    };
    move |rpc, from| {
        let from = from.clone();
        match get {
            Some(top_n) => Message::FindValue {
                rpc,
                from,
                key: target,
                top_n,
                no_cache,
            },
            None => Message::FindNode { rpc, from, target },
        }
        .encode_to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use dharma_net::{SimConfig, SimNet};
    use dharma_types::sha1;

    use super::super::testutil::build_net;
    use super::*;
    use crate::node::KadConfig;
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
