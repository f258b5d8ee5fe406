//! Running a protocol node over signed envelopes — Likir's deployment model.
//!
//! Likir wraps every Kademlia RPC in a signed envelope; the receiver
//! verifies the sender's certificate and signature (and a nonce window
//! against replays) *before* the payload reaches the protocol logic.
//! [`SecureNode`] implements exactly that as a transparent
//! [`dharma_net::Node`] adapter: any inner node — in practice
//! `dharma_kademlia::KademliaNode` — runs unmodified on an overlay where
//! every datagram is authenticated.
//!
//! Unauthenticated, forged, tampered or replayed datagrams are counted and
//! dropped; the inner node never observes them. This is the mechanism that
//! gives Likir its Sybil/pollution resistance: a storage node only accepts
//! writes from certified identities, and `nodeId = H(userId)` stops id
//! grinding.

use bytes::Bytes;
use rand::Rng;

use dharma_net::{Ctx, Node, NodeAddr};
use dharma_types::{WireDecode, WireEncode};

use crate::ca::{CaVerifier, Identity};
use crate::envelope::SignedEnvelope;
use crate::replay_guard::ReplayGuard;

/// Statistics of the security layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SecurityStats {
    /// Envelopes that verified and were delivered to the inner node.
    pub accepted: u64,
    /// Datagrams that failed to decode as envelopes.
    pub malformed: u64,
    /// Envelopes with invalid certificates or signatures.
    pub forged: u64,
    /// Envelopes rejected by the anti-replay window.
    pub replayed: u64,
}

/// A [`Node`] adapter sealing every outgoing datagram in a
/// [`SignedEnvelope`] and verifying every incoming one.
pub struct SecureNode<N: Node> {
    inner: N,
    identity: Identity,
    verifier: CaVerifier,
    guard: ReplayGuard,
    next_nonce: u64,
    stats: SecurityStats,
}

impl<N: Node> SecureNode<N> {
    /// Wraps `inner` with the given identity and verification handle.
    pub fn new(inner: N, identity: Identity, verifier: CaVerifier) -> Self {
        SecureNode {
            inner,
            identity,
            verifier,
            guard: ReplayGuard::new(1024, 4096),
            next_nonce: 1,
            stats: SecurityStats::default(),
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Security-layer counters.
    pub fn stats(&self) -> SecurityStats {
        self.stats
    }

    /// Runs a closure against the inner node, sealing any sends it queues —
    /// the secure analogue of driving the node directly.
    pub fn with_inner<R>(
        &mut self,
        ctx: &mut Ctx<N::Output>,
        f: impl FnOnce(&mut N, &mut Ctx<N::Output>) -> R,
    ) -> R {
        let mut inner_ctx = Ctx::new(ctx.now_us, ctx.self_addr, ctx.rng.gen());
        let out = f(&mut self.inner, &mut inner_ctx);
        self.forward_effects(ctx, inner_ctx);
        out
    }

    /// Seals and forwards the inner node's buffered effects into the outer
    /// context.
    fn forward_effects(&mut self, ctx: &mut Ctx<N::Output>, inner_ctx: Ctx<N::Output>) {
        let (sends, timers, completions) = inner_ctx.into_effects();
        for msg in sends {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            let envelope = SignedEnvelope::seal(&self.identity, nonce, msg.payload.to_vec());
            ctx.send(msg.to, envelope.encode_to_bytes());
        }
        for (delay, id) in timers {
            ctx.set_timer(delay, id);
        }
        for (op, output) in completions {
            ctx.complete(op, output);
        }
    }
}

impl<N: Node> Node for SecureNode<N> {
    type Output = N::Output;

    fn on_start(&mut self, ctx: &mut Ctx<N::Output>) {
        let mut inner_ctx = Ctx::new(ctx.now_us, ctx.self_addr, ctx.rng.gen());
        self.inner.on_start(&mut inner_ctx);
        self.forward_effects(ctx, inner_ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<N::Output>, from: NodeAddr, payload: Bytes) {
        let Ok(envelope) = SignedEnvelope::decode_exact(&payload) else {
            self.stats.malformed += 1;
            return;
        };
        let Ok(inner_payload) = envelope.open(&self.verifier, ctx.now_us) else {
            self.stats.forged += 1;
            return;
        };
        if !self.guard.accept(&envelope.cert.user_id, envelope.nonce) {
            self.stats.replayed += 1;
            return;
        }
        self.stats.accepted += 1;
        let inner_payload = Bytes::copy_from_slice(inner_payload);
        let mut inner_ctx = Ctx::new(ctx.now_us, ctx.self_addr, ctx.rng.gen());
        self.inner.on_message(&mut inner_ctx, from, inner_payload);
        self.forward_effects(ctx, inner_ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<N::Output>, id: u64) {
        let mut inner_ctx = Ctx::new(ctx.now_us, ctx.self_addr, ctx.rng.gen());
        self.inner.on_timer(&mut inner_ctx, id);
        self.forward_effects(ctx, inner_ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificationAuthority;
    use dharma_net::{SimConfig, SimNet};

    /// A trivial inner node that echoes payloads back and logs them.
    struct Echo {
        got: Vec<Vec<u8>>,
    }

    impl Node for Echo {
        type Output = ();

        fn on_message(&mut self, ctx: &mut Ctx<()>, from: NodeAddr, payload: Bytes) {
            self.got.push(payload.to_vec());
            if payload.as_ref() == b"ping" {
                ctx.send(from, Bytes::from_static(b"pong"));
            }
        }
    }

    /// A raw (non-Likir) node that injects unsigned garbage.
    struct Rogue;
    impl Node for Rogue {
        type Output = ();
        fn on_message(&mut self, _: &mut Ctx<()>, _: NodeAddr, _: Bytes) {}
    }

    fn net() -> SimNet<SecureNode<Echo>> {
        SimNet::new(SimConfig {
            latency_min_us: 100,
            latency_max_us: 1_000,
            drop_rate: 0.0,
            mtu: 4096,
            seed: 5,
            shards: 1,
            topology: None,
        })
    }

    #[test]
    fn sealed_ping_pong_roundtrip() {
        let ca = CertificationAuthority::new(b"net-ca");
        let mut net = net();
        let a = net.add_node(SecureNode::new(
            Echo { got: vec![] },
            ca.register("alice", 0),
            ca.verifier(),
        ));
        let b = net.add_node(SecureNode::new(
            Echo { got: vec![] },
            ca.register("bob", 0),
            ca.verifier(),
        ));
        net.with_node(a, |node, ctx| {
            node.with_inner(ctx, |_, inner_ctx| {
                inner_ctx.send(b, Bytes::from_static(b"ping"));
            });
        });
        net.run_until_idle(100);
        assert_eq!(net.node(b).inner().got, vec![b"ping".to_vec()]);
        assert_eq!(net.node(a).inner().got, vec![b"pong".to_vec()]);
        assert_eq!(net.node(b).stats().accepted, 1);
        assert_eq!(net.node(a).stats().accepted, 1);
    }

    #[test]
    fn unsigned_junk_never_reaches_inner_node() {
        let ca = CertificationAuthority::new(b"net-ca");
        let mut secure: SecureNode<Echo> =
            SecureNode::new(Echo { got: vec![] }, ca.register("alice", 0), ca.verifier());
        let mut ctx: Ctx<()> = Ctx::new(0, 0, 1);
        secure.on_message(&mut ctx, 9, Bytes::from_static(b"not an envelope"));
        assert!(secure.inner().got.is_empty());
        assert_eq!(secure.stats().malformed, 1);
    }

    #[test]
    fn foreign_ca_envelopes_are_forged() {
        let ca = CertificationAuthority::new(b"net-ca");
        let evil = CertificationAuthority::new(b"evil-ca");
        let mallory = evil.register("mallory", 0);
        let envelope = SignedEnvelope::seal(&mallory, 1, b"ping".to_vec());
        let mut secure: SecureNode<Echo> =
            SecureNode::new(Echo { got: vec![] }, ca.register("alice", 0), ca.verifier());
        let mut ctx: Ctx<()> = Ctx::new(0, 0, 1);
        secure.on_message(&mut ctx, 9, envelope.encode_to_bytes());
        assert!(secure.inner().got.is_empty());
        assert_eq!(secure.stats().forged, 1);
    }

    #[test]
    fn replayed_envelopes_are_dropped() {
        let ca = CertificationAuthority::new(b"net-ca");
        let bob = ca.register("bob", 0);
        let envelope = SignedEnvelope::seal(&bob, 42, b"ping".to_vec());
        let bytes: Bytes = envelope.encode_to_bytes();
        let mut secure: SecureNode<Echo> =
            SecureNode::new(Echo { got: vec![] }, ca.register("alice", 0), ca.verifier());
        let mut ctx: Ctx<()> = Ctx::new(0, 0, 1);
        secure.on_message(&mut ctx, 9, bytes.clone());
        secure.on_message(&mut ctx, 9, bytes);
        assert_eq!(secure.inner().got.len(), 1, "second copy is a replay");
        assert_eq!(secure.stats().replayed, 1);
        assert_eq!(secure.stats().accepted, 1);
    }

    #[test]
    fn rogue_node_type_is_ignored_by_design() {
        // Compile-time demonstration that the rogue node simply speaks a
        // different (unsigned) dialect — its traffic lands in `malformed`.
        let _ = Rogue;
    }
}
