//! The protocol state-machine abstraction shared by every transport.
//!
//! A [`Node`] is a deterministic reactor: the runtime hands it messages and
//! timer expirations through a [`Ctx`], and the node responds by queueing
//! sends, arming timers, and completing client operations. Nodes never
//! block and never talk to the runtime directly — all effects go through
//! the context, which keeps the protocol logic transport-agnostic and
//! deterministic under the DES.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A transport-level node address.
///
/// In the simulator this is a dense index; the UDP runtime maps it to a
/// socket address table.
pub type NodeAddr = u32;

/// Identifier of a client-issued operation, used to route completions.
pub type OpId = u64;

/// Buffered effects drained by a runtime: queued sends, armed timers as
/// `(delay_us, id)` pairs, and reported operation completions.
pub type Effects<O> = (Vec<OutMessage>, Vec<(u64, u64)>, Vec<(OpId, O)>);

/// A queued outgoing message.
#[derive(Clone, Debug)]
pub struct OutMessage {
    /// Destination address.
    pub to: NodeAddr,
    /// Encoded payload (one UDP datagram).
    pub payload: Bytes,
}

/// Effect context handed to node callbacks.
///
/// Effects are buffered and applied by the runtime after the callback
/// returns, which keeps borrowing simple and the event order deterministic.
/// The context owns an RNG forked deterministically from the runtime's
/// master RNG, so protocol randomness stays reproducible without borrowing
/// the runtime.
pub struct Ctx<O> {
    /// Current time in virtual (or real) microseconds.
    pub now_us: u64,
    /// The node's own address.
    pub self_addr: NodeAddr,
    /// Deterministic RNG (forked per callback from the runtime seed).
    pub rng: StdRng,
    pub(crate) sends: Vec<OutMessage>,
    pub(crate) timers: Vec<(u64, u64)>,
    pub(crate) completions: Vec<(OpId, O)>,
}

impl<O> Ctx<O> {
    /// Creates a fresh effect buffer (runtimes only). `fork_seed` should be
    /// drawn from the runtime's master RNG.
    pub fn new(now_us: u64, self_addr: NodeAddr, fork_seed: u64) -> Self {
        Ctx {
            now_us,
            self_addr,
            rng: StdRng::seed_from_u64(fork_seed),
            sends: Vec::new(),
            timers: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Queues a datagram to `to`.
    pub fn send(&mut self, to: NodeAddr, payload: Bytes) {
        self.sends.push(OutMessage { to, payload });
    }

    /// Arms a one-shot timer that fires `delay_us` from now with the given
    /// node-chosen id. Timers cannot be cancelled; nodes ignore stale ids.
    pub fn set_timer(&mut self, delay_us: u64, id: u64) {
        self.timers.push((delay_us, id));
    }

    /// Reports completion of client operation `op` with `output`.
    pub fn complete(&mut self, op: OpId, output: O) {
        self.completions.push((op, output));
    }

    /// Drains the buffered effects (runtimes only).
    pub fn into_effects(self) -> Effects<O> {
        (self.sends, self.timers, self.completions)
    }
}

/// One named gauge in a node's telemetry snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Stable metric name (snake_case, e.g. `cache_hits`).
    pub name: &'static str,
    /// Current value.
    pub value: f64,
}

impl Metric {
    /// Convenience constructor.
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric { name, value }
    }
}

/// Telemetry exposed by a protocol node, independent of the runtime it is
/// driven by. Over real sockets an operator reads it through
/// [`UdpWorker::node`](crate::udp::UdpWorker::node), beside the worker's
/// [`NetCounters`](crate::NetCounters) (the `udp_overlay` example prints
/// both); the simulator's tests read node state directly instead.
pub trait Instrumented {
    /// A snapshot of the node's observable gauges (cache statistics,
    /// popularity tracking, storage/routing occupancy, ...).
    fn metrics(&self) -> Vec<Metric>;
}

/// A protocol node: a deterministic state machine driven by a runtime.
pub trait Node {
    /// The type of results delivered to clients when operations finish.
    type Output;

    /// Called once when the node is added to the runtime.
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Output>) {}

    /// Called for every delivered datagram.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Output>, from: NodeAddr, payload: Bytes);

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<Self::Output>, _id: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_effects_in_order() {
        let mut ctx: Ctx<u32> = Ctx::new(5, 1, 0);
        ctx.send(2, Bytes::from_static(b"a"));
        ctx.send(3, Bytes::from_static(b"b"));
        ctx.set_timer(100, 7);
        ctx.complete(9, 42);
        let (sends, timers, completions) = ctx.into_effects();
        assert_eq!(sends.len(), 2);
        assert_eq!(sends[0].to, 2);
        assert_eq!(sends[1].payload.as_ref(), b"b");
        assert_eq!(timers, vec![(100, 7)]);
        assert_eq!(completions, vec![(9, 42)]);
    }
}
