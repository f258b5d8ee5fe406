//! Tracing from outside the program: a [`Node`] wrapper that records a
//! span around every `on_message` and `on_timer` call, and the span buffer
//! the harness adds its own levels to.
//!
//! Four span levels share one operation tag: the **logical op** (one
//! insert, tag, search step or re-tag), the **block op** inside it (one
//! GET / APPEND / PUT), the **step** (one simulator event or one UDP poll
//! slice) and the **handler** call the step ran. The program carries no
//! tracing of its own, so the wrapper works out which operation a datagram
//! belongs to by watching what each handler sends: a request `(sender,
//! rpc id)` inherits the tag of the handler call (or harness call) that
//! emitted it, and a reply is matched by the rpc id it echoes. Timers and
//! whatever they cause carry tag 0, "background".
//!
//! The wrapper runs the inner node on a private [`Ctx`] (with the outer
//! context's RNG swapped in, so the protocol draws exactly the numbers an
//! untraced run draws) and forwards the effects in order. The message type
//! byte and rpc id are read outside the timed region.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use dharma_kademlia::{KadOutput, KademliaNode};
use dharma_net::{Ctx, Node, NodeAddr};
use dharma_types::FxHashMap;

/// Wire type bytes of the 13 Kademlia messages, in wire order, with the
/// name each goes by in metric names (`kad.node.on_message_ns.<name>`).
pub const MESSAGE_TYPES: [(u8, &str); 13] = [
    (1, "ping"),
    (2, "pong"),
    (3, "find_node"),
    (4, "found_nodes"),
    (5, "find_value"),
    (6, "found_value"),
    (7, "store"),
    (8, "append"),
    (9, "ack"),
    (10, "replicate"),
    (11, "cache_push"),
    (12, "leave"),
    (13, "invalidate_push"),
];

/// Number of slots in per-type tables (type bytes are 1-based).
pub const TYPE_SLOTS: usize = 14;

/// The metric-name suffix of a wire type byte (`None` for bytes that are
/// not a message type).
pub fn message_type_name(first_byte: u8) -> Option<&'static str> {
    MESSAGE_TYPES
        .iter()
        .find(|(b, _)| *b == first_byte)
        .map(|(_, n)| *n)
}

/// True for the four reply types, whose rpc id belongs to the *receiver*.
fn is_reply(ty: u8) -> bool {
    matches!(ty, 2 | 4 | 6 | 9)
}

/// Reads the type byte and the varint rpc id that follows it.
pub fn parse_head(payload: &[u8]) -> (u8, u64) {
    let Some((&ty, rest)) = payload.split_first() else {
        return (0, 0);
    };
    let mut rpc = 0u64;
    for (i, &b) in rest.iter().take(10).enumerate() {
        rpc |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            break;
        }
    }
    (ty, rpc)
}

/// The level of a span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// One logical operation (parent: none).
    LogicalOp,
    /// One block operation of a logical op (parent: the logical op).
    BlockOp,
    /// One simulator event or UDP poll slice (parent: the block op).
    Step,
    /// One `on_message` call (parent: the step).
    OnMessage,
    /// One `on_timer` call (parent: the step).
    OnTimer,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::LogicalOp => "logical_op",
            SpanKind::BlockOp => "block_op",
            SpanKind::Step => "step",
            SpanKind::OnMessage => "on_message",
            SpanKind::OnTimer => "on_timer",
        }
    }

    fn parent(self) -> &'static str {
        match self {
            SpanKind::LogicalOp => "",
            SpanKind::BlockOp => "logical_op",
            SpanKind::Step => "block_op",
            SpanKind::OnMessage | SpanKind::OnTimer => "step",
        }
    }
}

/// One recorded span. Times are nanoseconds since the process epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Level.
    pub kind: SpanKind,
    /// Wire type byte for handler spans, 0 otherwise.
    pub msg_type: u8,
    /// Operation tag: `logical op id << 8 | block index`, 0 = background.
    pub tag: u64,
    /// The node the span ran on.
    pub node: NodeAddr,
    /// Start of the timed region.
    pub start_ns: u64,
    /// End of the timed region.
    pub end_ns: u64,
    /// Handler spans only: wall time of the whole wrapper call, of which
    /// `end_ns - start_ns` is the program's handler. The difference is the
    /// wrapper's own cost, reported as tracing overhead.
    pub wrap_ns: u64,
}

/// Packs a logical op id and a block index into an operation tag.
pub fn op_tag(logical: u64, block: usize) -> u64 {
    (logical << 8) | (block as u64 & 0xff)
}

/// Per-thread trace state: the spans recorded on this thread and the
/// running per-type totals the ledger reads.
#[derive(Default)]
pub struct TraceBuf {
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Handler calls per wire type.
    pub handled: [u64; TYPE_SLOTS],
    /// Handler nanoseconds per wire type.
    pub handled_ns: [u64; TYPE_SLOTS],
    /// Delivered payload bytes per wire type.
    pub handled_bytes: [u64; TYPE_SLOTS],
    /// Datagrams emitted by handlers and harness calls, per wire type.
    pub sent: [u64; TYPE_SLOTS],
    /// `on_timer` calls and their nanoseconds.
    pub timers: u64,
    /// Nanoseconds inside `on_timer`.
    pub timer_ns: u64,
    /// Wrapper nanoseconds outside the program's handlers.
    pub wrapper_ns: u64,
    /// Tag of the last handler call on this thread (read by the executor
    /// to tag the step span that ran it).
    pub last_tag: u64,
    /// Up to [`SAMPLES_PER_TYPE`] delivered payloads per type, spread over
    /// the run (every [`SAMPLE_STRIDE`]th replaces an older one) — real
    /// messages for the codec probes and the ledger.
    pub samples: Vec<Vec<Bytes>>,
    /// The largest delivered payload per type.
    pub largest: Vec<Option<Bytes>>,
}

impl TraceBuf {
    /// A buffer with nothing recorded.
    pub fn empty() -> Self {
        TraceBuf {
            samples: vec![Vec::new(); TYPE_SLOTS],
            largest: vec![None; TYPE_SLOTS],
            ..TraceBuf::default()
        }
    }

    /// Folds another thread's buffer into this one.
    pub fn merge(&mut self, other: TraceBuf) {
        self.spans.extend(other.spans);
        for s in 0..TYPE_SLOTS {
            self.handled[s] += other.handled[s];
            self.handled_ns[s] += other.handled_ns[s];
            self.handled_bytes[s] += other.handled_bytes[s];
            self.sent[s] += other.sent[s];
        }
        self.timers += other.timers;
        self.timer_ns += other.timer_ns;
        self.wrapper_ns += other.wrapper_ns;
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
            mine.truncate(SAMPLES_PER_TYPE);
        }
        for (mine, theirs) in self.largest.iter_mut().zip(other.largest) {
            if theirs.as_ref().map_or(0, Bytes::len) > mine.as_ref().map_or(0, Bytes::len) {
                *mine = theirs;
            }
        }
    }
}

/// Payload samples kept per message type.
pub const SAMPLES_PER_TYPE: usize = 16;

/// Once the sample slots are full, every this-many-th delivered message
/// of a type replaces one.
pub const SAMPLE_STRIDE: u64 = 64;

thread_local! {
    static TRACE: RefCell<Option<TraceBuf>> = const { RefCell::new(None) };
}

/// rpc → operation tag, shared by every thread of a traced run: a request
/// sent by a node on one UDP worker is handled by a node on another.
fn rpc_tags() -> &'static Mutex<FxHashMap<(NodeAddr, u64), u64>> {
    static MAP: OnceLock<Mutex<FxHashMap<(NodeAddr, u64), u64>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(FxHashMap::default()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Forgets every rpc → operation tag of earlier traced runs.
pub fn clear_rpc_tags() {
    rpc_tags().lock().expect("rpc tag map poisoned").clear();
}

/// Starts recording on the calling thread (clears any earlier buffer and,
/// on the first thread of a run, the shared rpc map).
pub fn start_thread_trace(clear_rpc_map: bool) {
    epoch();
    if clear_rpc_map {
        clear_rpc_tags();
    }
    TRACE.with(|t| *t.borrow_mut() = Some(TraceBuf::empty()));
}

/// Stops recording on the calling thread and returns what was recorded.
pub fn take_thread_trace() -> Option<TraceBuf> {
    TRACE.with(|t| t.borrow_mut().take())
}

/// Records a harness-side span (logical op, block op, step).
pub fn record_span(kind: SpanKind, tag: u64, node: NodeAddr, start_ns: u64, end_ns: u64) {
    TRACE.with(|t| {
        if let Some(buf) = t.borrow_mut().as_mut() {
            buf.spans.push(Span {
                kind,
                msg_type: 0,
                tag,
                node,
                start_ns,
                end_ns,
                wrap_ns: 0,
            });
        }
    });
}

/// The tag of the last handler call on this thread, then reset to 0.
pub fn take_last_tag() -> u64 {
    TRACE.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|b| std::mem::take(&mut b.last_tag))
            .unwrap_or(0)
    })
}

/// Writes spans as JSON lines: one object per span with its level, its
/// parent level, the shared op id, the block index, node, message type and
/// times.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"span\":\"{}\",\"parent\":\"{}\",\"op\":{},\"block\":{},\"node\":{},\"msg\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.kind.name(),
            s.kind.parent(),
            s.tag >> 8,
            s.tag & 0xff,
            s.node,
            message_type_name(s.msg_type).unwrap_or(""),
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

/// A node the script executor can drive: it reaches the Kademlia node to
/// issue block operations, and lets the hosting wrapper see what the call
/// sent.
pub trait BlockNode: Node<Output = KadOutput> {
    /// The protocol node (for reading storage, routing and counters).
    fn kad(&self) -> &KademliaNode;

    /// Runs `f` against the protocol node under operation tag `tag` and
    /// returns what it returned (an op id).
    fn issue(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        tag: u64,
        f: &mut dyn FnMut(&mut KademliaNode, &mut Ctx<KadOutput>) -> u64,
    ) -> u64;
}

impl BlockNode for KademliaNode {
    fn kad(&self) -> &KademliaNode {
        self
    }

    fn issue(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        _tag: u64,
        f: &mut dyn FnMut(&mut KademliaNode, &mut Ctx<KadOutput>) -> u64,
    ) -> u64 {
        f(self, ctx)
    }
}

/// The tracing wrapper.
pub struct Traced<N> {
    inner: N,
}

impl<N> Traced<N> {
    /// Wraps `inner`.
    pub fn new(inner: N) -> Self {
        Traced { inner }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

/// Forwards a private context's effects to the real one, in order, and
/// tags every request it sends with `tag`.
fn forward<O>(inner: Ctx<O>, ctx: &mut Ctx<O>, tag: u64) {
    let me = ctx.self_addr;
    let (sends, timers, completions) = inner.into_effects();
    if !sends.is_empty() {
        let mut map = rpc_tags().lock().expect("rpc tag map poisoned");
        TRACE.with(|t| {
            let mut guard = t.borrow_mut();
            for msg in &sends {
                let (ty, rpc) = parse_head(&msg.payload);
                if tag != 0 && rpc != 0 && !is_reply(ty) {
                    map.insert((me, rpc), tag);
                }
                if let Some(buf) = guard.as_mut() {
                    buf.sent[usize::from(ty).min(TYPE_SLOTS - 1)] += 1;
                }
            }
        });
    }
    for msg in sends {
        ctx.send(msg.to, msg.payload);
    }
    for (delay, id) in timers {
        ctx.set_timer(delay, id);
    }
    for (op, out) in completions {
        ctx.complete(op, out);
    }
}

/// Runs `f` on a private context that draws from `ctx`'s RNG, timing only
/// `f`. Returns the private context and the timed region.
fn run_inner<O>(ctx: &mut Ctx<O>, f: impl FnOnce(&mut Ctx<O>)) -> (Ctx<O>, u64, u64) {
    let mut inner = Ctx::new(ctx.now_us, ctx.self_addr, 0);
    std::mem::swap(&mut inner.rng, &mut ctx.rng);
    let t0 = now_ns();
    f(&mut inner);
    let t1 = now_ns();
    std::mem::swap(&mut inner.rng, &mut ctx.rng);
    (inner, t0, t1)
}

impl<N: Node> Node for Traced<N> {
    type Output = N::Output;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Output>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self::Output>, from: NodeAddr, payload: Bytes) {
        let w0 = now_ns();
        let (ty, rpc) = parse_head(&payload);
        let owner = if is_reply(ty) { ctx.self_addr } else { from };
        let tag = if rpc == 0 {
            0
        } else {
            rpc_tags()
                .lock()
                .expect("rpc tag map poisoned")
                .get(&(owner, rpc))
                .copied()
                .unwrap_or(0)
        };
        let len = payload.len() as u64;
        let sample = payload.clone();
        let (inner, t0, t1) = run_inner(ctx, |c| self.inner.on_message(c, from, payload));
        forward(inner, ctx, tag);
        let slot = usize::from(ty).min(TYPE_SLOTS - 1);
        let node = ctx.self_addr;
        TRACE.with(|t| {
            if let Some(buf) = t.borrow_mut().as_mut() {
                buf.handled[slot] += 1;
                buf.handled_ns[slot] += t1 - t0;
                buf.handled_bytes[slot] += len;
                buf.last_tag = tag;
                if buf.largest[slot]
                    .as_ref()
                    .is_none_or(|b| b.len() < sample.len())
                {
                    buf.largest[slot] = Some(sample.clone());
                }
                let seen = buf.handled[slot];
                let kept = &mut buf.samples[slot];
                if kept.len() < SAMPLES_PER_TYPE {
                    kept.push(sample);
                } else if seen % SAMPLE_STRIDE == 0 {
                    kept[(seen / SAMPLE_STRIDE) as usize % SAMPLES_PER_TYPE] = sample;
                }
                let w1 = now_ns();
                buf.wrapper_ns += (w1 - w0).saturating_sub(t1 - t0);
                buf.spans.push(Span {
                    kind: SpanKind::OnMessage,
                    msg_type: ty,
                    tag,
                    node,
                    start_ns: t0,
                    end_ns: t1,
                    wrap_ns: w1 - w0,
                });
            }
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Self::Output>, id: u64) {
        let w0 = now_ns();
        let (inner, t0, t1) = run_inner(ctx, |c| self.inner.on_timer(c, id));
        forward(inner, ctx, 0);
        let node = ctx.self_addr;
        TRACE.with(|t| {
            if let Some(buf) = t.borrow_mut().as_mut() {
                buf.timers += 1;
                buf.timer_ns += t1 - t0;
                buf.last_tag = 0;
                let w1 = now_ns();
                buf.wrapper_ns += (w1 - w0).saturating_sub(t1 - t0);
                buf.spans.push(Span {
                    kind: SpanKind::OnTimer,
                    msg_type: 0,
                    tag: 0,
                    node,
                    start_ns: t0,
                    end_ns: t1,
                    wrap_ns: w1 - w0,
                });
            }
        });
    }
}

impl BlockNode for Traced<KademliaNode> {
    fn kad(&self) -> &KademliaNode {
        &self.inner
    }

    fn issue(
        &mut self,
        ctx: &mut Ctx<KadOutput>,
        tag: u64,
        f: &mut dyn FnMut(&mut KademliaNode, &mut Ctx<KadOutput>) -> u64,
    ) -> u64 {
        let mut op = 0;
        let (inner, _, _) = run_inner(ctx, |c| op = f(&mut self.inner, c));
        forward(inner, ctx, tag);
        op
    }
}
