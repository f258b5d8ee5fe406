//! Driver (b): the harness-side script executor.
//!
//! A *script* is one logical operation written out beforehand as the block
//! operations it performs — `get`, `append_many`, `put_blob` on
//! [`KademliaNode`] — grouped into stages: the operations of a stage are
//! issued together from the script's home node, and the next stage starts
//! when all of them have completed. The executor is generic over the
//! hosted node type, so the same scripts run on the plain node and on the
//! tracing wrapper.
//!
//! * Over [`SimNet`] it steps the network one event at a time and drains
//!   completions after every step, so virtual completion times are exact.
//!   It runs either as an **open loop** (one arrival every fixed virtual
//!   interval, latency timed from the due time, issue lag recorded) or as
//!   a **closed loop** with a fixed number of scripts in flight.
//! * Over [`UdpWorker`] it runs a closed loop on the worker's own thread.
//!
//! A GET that comes back valueless is reissued at most twice; appends and
//! blob puts are never reissued — the same rule as
//! `DharmaClient::run_op`, because a reissued append would double-count.

use std::time::{Duration, Instant};

use dharma_kademlia::messages::FetchedValue;
use dharma_kademlia::{KadOutput, KademliaNode, StoredEntry};
use dharma_net::udp::UdpWorker;
use dharma_net::{Ctx, NodeAddr, SimNet};
use dharma_types::{FxHashMap, Id160, VersionStamp};

use crate::calib::Calibrator;
use crate::traced::{self, BlockNode, SpanKind};

/// How often a valueless GET is reissued.
pub const GET_RETRIES: u8 = 2;

/// One block operation.
#[derive(Clone, Debug)]
pub enum BlockOp {
    /// `get(key, top_n)`.
    Get {
        /// Block key.
        key: Id160,
        /// Index-side filter width (0 = unfiltered).
        top_n: u32,
    },
    /// `append_many(key, entries)`.
    Append {
        /// Block key.
        key: Id160,
        /// Tokens to add.
        entries: Vec<StoredEntry>,
    },
    /// `put_blob(key, blob)`.
    PutBlob {
        /// Block key.
        key: Id160,
        /// The blob.
        blob: Vec<u8>,
    },
}

/// What a script stands for. Indexes the per-kind tables of [`RunStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScriptKind {
    /// Resource insertion (Table I: `2 + 2m`).
    Insert = 0,
    /// Tag insertion (Table I: `4 + k`).
    Tag = 1,
    /// One faceted-search step (Table I: 2).
    SearchStep = 2,
    /// A plain block read.
    Read = 3,
}

/// Number of script kinds.
pub const KINDS: usize = 4;

/// One logical operation as a staged list of block operations.
#[derive(Clone, Debug)]
pub struct Script {
    /// The node the operation is issued from.
    pub home: NodeAddr,
    /// What it stands for.
    pub kind: ScriptKind,
    /// Stages, run in order; the block ops of one stage run concurrently.
    pub stages: Vec<Vec<BlockOp>>,
}

impl Script {
    /// Block operations in the script: the lookups it costs without
    /// retries.
    pub fn block_ops(&self) -> u32 {
        self.stages.iter().map(|s| s.len() as u32).sum()
    }
}

/// What a verifier makes of a served value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// A correct view of the block.
    Good,
    /// A well-formed view that misses tokens the block had when the run
    /// loaded it: served by a cache or a replica that is behind.
    Behind,
    /// Not a view of the block at all.
    Wrong,
}

/// Checks the value a GET returned. Implemented by each workload from
/// what it loaded and appended.
pub trait Verifier {
    /// Called when an append is issued.
    fn on_append(&mut self, _key: &Id160, _entries: &[StoredEntry]) {}
    /// Judges `value` as an answer to `get(key, top_n)`.
    fn check_get(&mut self, key: &Id160, top_n: u32, value: &FetchedValue) -> Verdict;
}

/// Accepts everything (for set-up traffic and timing-only replays).
pub struct NoVerify;

impl Verifier for NoVerify {
    fn check_get(&mut self, _: &Id160, _: u32, _: &FetchedValue) -> Verdict {
        Verdict::Good
    }
}

/// What one executor run measured.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Scripts completed.
    pub ops: u64,
    /// Scripts completed per kind.
    pub ops_by_kind: [u64; KINDS],
    /// Block operations issued (retries included): the overlay lookups.
    pub lookups: u64,
    /// Scripts in which an operation produced no usable result: a GET
    /// valueless after its retries, a write no replica acknowledged, or a
    /// value that is not a view of the block.
    pub failed: u64,
    /// Of those, scripts that were served a value the verifier judged
    /// [`Verdict::Wrong`] — an incorrect output, not an unavailable one.
    pub wrong: u64,
    /// GETs served a view that was behind: a stamp older than a write to
    /// the same key acknowledged before the GET was issued, or weights
    /// under what the run loaded.
    pub stale_reads: u64,
    /// Scripts that were served at least one such view.
    pub stale_ops: u64,
    /// GETs completed.
    pub gets: u64,
    /// Appends and blob puts issued.
    pub writes: u64,
    /// Valueless GETs that were reissued.
    pub get_retries: u64,
    /// Latency of every search-step script, in the run's own clock (µs):
    /// virtual time from the due time in a simulator run, calibrated wall
    /// time from issue in a loopback run.
    pub search_latency_us: Vec<f64>,
    /// Latency of every other script, same clock.
    pub other_latency_us: Vec<f64>,
    /// Open loop only: how long after its due time each arrival was
    /// issued, virtual µs.
    pub issue_lag_us: Vec<f64>,
    /// Host seconds the run took, issue of the first script to completion
    /// of the last.
    pub host_s: f64,
    /// The same in calibrated seconds (see [`crate::calib`]): each
    /// throughput window scaled by the slowdown measured around it.
    pub cal_s: f64,
    /// The same summed over the threads of a run (equal to `host_s` on
    /// one thread): the time the ledger divides up.
    pub thread_s: f64,
    /// Throughput of each window of [`WINDOW_OPS`] completed scripts,
    /// scripts per calibrated second.
    pub window_ops_per_s: Vec<f64>,
    /// Steps taken (simulator events, or UDP poll slices).
    pub steps: u64,
    /// Traced runs: host nanoseconds inside `step()` / `poll()`.
    pub step_ns: u64,
    /// Traced runs: host nanoseconds inside the verifier.
    pub verify_ns: u64,
}

/// Scripts per throughput window.
pub const WINDOW_OPS: u64 = 100;

impl RunStats {
    /// Folds another thread's run into this one (loopback workers).
    pub fn merge(&mut self, other: RunStats) {
        self.ops += other.ops;
        for k in 0..KINDS {
            self.ops_by_kind[k] += other.ops_by_kind[k];
        }
        self.lookups += other.lookups;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.stale_reads += other.stale_reads;
        self.stale_ops += other.stale_ops;
        self.gets += other.gets;
        self.writes += other.writes;
        self.get_retries += other.get_retries;
        self.search_latency_us.extend(other.search_latency_us);
        self.other_latency_us.extend(other.other_latency_us);
        self.issue_lag_us.extend(other.issue_lag_us);
        // Threads of one phase overlap; successive runs are added up by
        // their callers, which time them.
        self.host_s = self.host_s.max(other.host_s);
        self.cal_s = self.cal_s.max(other.cal_s);
        self.thread_s += other.thread_s;
        self.window_ops_per_s.extend(other.window_ops_per_s);
        self.steps += other.steps;
        self.step_ns += other.step_ns;
        self.verify_ns += other.verify_ns;
    }
}

/// A script in flight.
struct Active {
    script: Script,
    id: u64,
    stage: usize,
    pending: usize,
    retries: Vec<u8>,
    /// Latency-clock time the script was due (open loop) or issued.
    t0_us: u64,
    start_ns: u64,
    failed: bool,
    wrong: bool,
    stale: bool,
}

/// One block operation in flight.
struct Pending {
    slot: usize,
    block: usize,
    /// The highest acknowledged write stamp on the key when a GET was
    /// issued.
    floor: VersionStamp,
    start_ns: u64,
}

/// The runtime-independent half of the executor: which scripts are in
/// flight, what each is waiting for, and the statistics.
pub struct Tracker<'v> {
    actives: Vec<Option<Active>>,
    free: Vec<usize>,
    inflight: FxHashMap<(NodeAddr, u64), Pending>,
    /// Highest acknowledged write stamp per key.
    acked: FxHashMap<Id160, VersionStamp>,
    verifier: &'v mut dyn Verifier,
    trace: bool,
    active_count: usize,
    started: u64,
    window_mark: Instant,
    cal: Calibrator,
    /// Whether script latencies are host time (loopback) and so scaled by
    /// the window's slowdown, or virtual time (simulator) and exact.
    host_latency: bool,
    /// Latencies of the open window, not yet scaled: (search step?, µs).
    window_lat: Vec<(bool, f64)>,
    /// Statistics so far.
    pub stats: RunStats,
}

/// Issues one block operation from `home` under trace tag `tag` and
/// returns the op id the node assigned.
pub type IssueFn<'a> = dyn FnMut(NodeAddr, u64, &BlockOp) -> u64 + 'a;

/// Issues `op` on a protocol node. The one place block operations turn
/// into program calls.
pub fn issue_on(node: &mut KademliaNode, ctx: &mut Ctx<KadOutput>, op: &BlockOp) -> u64 {
    match op {
        BlockOp::Get { key, top_n } => node.get(ctx, *key, *top_n),
        BlockOp::Append { key, entries } => node.append_many(ctx, *key, entries.clone()),
        BlockOp::PutBlob { key, blob } => node.put_blob(ctx, *key, blob.clone()),
    }
}

/// Issues `op` from simulated node `home` under trace tag `tag`.
fn issue_from<N: BlockNode>(net: &mut SimNet<N>, home: NodeAddr, tag: u64, op: &BlockOp) -> u64 {
    net.with_node(home, |n, ctx| {
        n.issue(ctx, tag, &mut |k, c| issue_on(k, c, op))
    })
}

impl<'v> Tracker<'v> {
    /// A tracker with nothing in flight. `host_latency` says the latency
    /// clock is host time.
    pub fn new(verifier: &'v mut dyn Verifier, trace: bool, host_latency: bool) -> Self {
        Tracker {
            actives: Vec::new(),
            free: Vec::new(),
            inflight: FxHashMap::default(),
            acked: FxHashMap::default(),
            verifier,
            trace,
            active_count: 0,
            started: 0,
            cal: Calibrator::new(),
            host_latency,
            window_lat: Vec::new(),
            window_mark: Instant::now(),
            stats: RunStats::default(),
        }
    }

    /// Scripts in flight.
    pub fn active(&self) -> usize {
        self.active_count
    }

    /// Scripts started so far.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Starts `script`; `t0_us` is the latency-clock time it counts from.
    pub fn start(&mut self, script: Script, t0_us: u64, issue: &mut IssueFn<'_>) {
        // Ids are unique across trackers and threads, so the spans of
        // successive or concurrent runs never share an op id.
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let id = NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.started += 1;
        let width = script.stages.iter().map(Vec::len).max().unwrap_or(0);
        let active = Active {
            script,
            id,
            stage: 0,
            pending: 0,
            retries: vec![0; width],
            t0_us,
            start_ns: if self.trace { traced::now_ns() } else { 0 },
            failed: false,
            wrong: false,
            stale: false,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.actives[s] = Some(active);
                s
            }
            None => {
                self.actives.push(Some(active));
                self.actives.len() - 1
            }
        };
        self.active_count += 1;
        self.issue_stage(slot, issue);
    }

    /// Issues every block op of the slot's current stage, skipping empty
    /// stages. Returns false when the script has no stage left.
    fn issue_stage(&mut self, slot: usize, issue: &mut IssueFn<'_>) -> bool {
        loop {
            let a = self.actives[slot].as_ref().expect("active slot");
            if a.stage >= a.script.stages.len() {
                return false;
            }
            let n = a.script.stages[a.stage].len();
            if n == 0 {
                self.actives[slot].as_mut().expect("active slot").stage += 1;
                continue;
            }
            for block in 0..n {
                self.issue_block(slot, block, issue);
            }
            return true;
        }
    }

    fn issue_block(&mut self, slot: usize, block: usize, issue: &mut IssueFn<'_>) {
        let a = self.actives[slot].as_mut().expect("active slot");
        let op = &a.script.stages[a.stage][block];
        let floor = match op {
            BlockOp::Get { key, .. } => self.acked.get(key).copied().unwrap_or(VersionStamp::ZERO),
            BlockOp::Append { key, entries } => {
                self.verifier.on_append(key, entries);
                self.stats.writes += 1;
                VersionStamp::ZERO
            }
            BlockOp::PutBlob { .. } => {
                self.stats.writes += 1;
                VersionStamp::ZERO
            }
        };
        // The block index within the whole script, for the trace tag.
        let flat = a.script.stages[..a.stage]
            .iter()
            .map(Vec::len)
            .sum::<usize>()
            + block;
        let tag = traced::op_tag(a.id, flat);
        let home = a.script.home;
        let op_id = issue(home, tag, op);
        a.pending += 1;
        self.stats.lookups += 1;
        self.inflight.insert(
            (home, op_id),
            Pending {
                slot,
                block,
                floor,
                start_ns: if self.trace { traced::now_ns() } else { 0 },
            },
        );
    }

    /// Handles one completion reported by node `addr`. Completions of
    /// operations the tracker did not issue (bootstrap, maintenance) are
    /// ignored. `now_us` is the latency clock.
    pub fn on_completion(
        &mut self,
        addr: NodeAddr,
        op_id: u64,
        out: KadOutput,
        now_us: u64,
        issue: &mut IssueFn<'_>,
    ) {
        let Some(p) = self.inflight.remove(&(addr, op_id)) else {
            return;
        };
        let a = self.actives[p.slot].as_mut().expect("active slot");
        let op = &a.script.stages[a.stage][p.block];
        let mut retry = false;
        match (op, out) {
            (BlockOp::Get { key, top_n }, KadOutput::Value { value, .. }) => {
                self.stats.gets += 1;
                match &value {
                    None if a.retries[p.block] < GET_RETRIES => {
                        a.retries[p.block] += 1;
                        self.stats.get_retries += 1;
                        retry = true;
                    }
                    None => a.failed = true,
                    Some(v) => {
                        let t0 = if self.trace { traced::now_ns() } else { 0 };
                        let verdict = self.verifier.check_get(key, *top_n, v);
                        if self.trace {
                            self.stats.verify_ns += traced::now_ns() - t0;
                        }
                        if verdict == Verdict::Wrong {
                            a.failed = true;
                            a.wrong = true;
                        } else if verdict == Verdict::Behind || v.version < p.floor {
                            self.stats.stale_reads += 1;
                            a.stale = true;
                        }
                    }
                }
            }
            (
                write @ (BlockOp::Append { key, .. } | BlockOp::PutBlob { key, .. }),
                KadOutput::Written {
                    acks,
                    targets,
                    stamp,
                },
            ) => {
                // `acks` is the remote acknowledgements plus one for the
                // coordinator; a write that targeted remote replicas and
                // heard from none of them is lost.
                if targets == 0 || (targets > 1 && acks <= 1) {
                    a.failed = true;
                } else if !matches!(write, BlockOp::Append { entries, .. } if entries.is_empty()) {
                    // An empty append mints a stamp but holders keep the
                    // block's version, so it sets no floor for later reads.
                    let slot = self.acked.entry(*key).or_insert(VersionStamp::ZERO);
                    *slot = (*slot).max(stamp);
                }
            }
            _ => a.failed = true,
        }
        if self.trace {
            let flat = a.script.stages[..a.stage]
                .iter()
                .map(Vec::len)
                .sum::<usize>()
                + p.block;
            traced::record_span(
                SpanKind::BlockOp,
                traced::op_tag(a.id, flat),
                addr,
                p.start_ns,
                traced::now_ns(),
            );
        }
        if retry {
            a.pending -= 1;
            self.issue_block(p.slot, p.block, issue);
            return;
        }
        a.pending -= 1;
        if a.pending > 0 {
            return;
        }
        a.stage += 1;
        for r in &mut a.retries {
            *r = 0;
        }
        if self.issue_stage(p.slot, issue) {
            return;
        }
        self.finish(p.slot, now_us);
    }

    /// Ends a throughput window of `ops` scripts: one calibration tick,
    /// then the window's time (and, on loopback, its latencies) enter the
    /// statistics scaled by the slowdown measured around the window. The
    /// window's rate becomes a throughput sample when `sample` is set.
    fn close_window(&mut self, ops: u64, sample: bool) {
        let raw = self.window_mark.elapsed().as_secs_f64();
        let factor = self.cal.tick();
        self.window_mark = Instant::now();
        let dt = raw / factor;
        let s = &mut self.stats;
        s.cal_s += dt;
        if sample && dt > 0.0 && ops > 0 {
            s.window_ops_per_s.push(ops as f64 / dt);
        }
        let scale = if self.host_latency { factor } else { 1.0 };
        for (search, lat) in self.window_lat.drain(..) {
            if search {
                s.search_latency_us.push(lat / scale);
            } else {
                s.other_latency_us.push(lat / scale);
            }
        }
    }

    /// Closes the last, partial window and returns the statistics. A
    /// partial window is too short to be a throughput sample unless it is
    /// the only window there is.
    pub fn into_stats(mut self) -> RunStats {
        let only = self.stats.window_ops_per_s.is_empty();
        self.close_window(self.stats.ops % WINDOW_OPS, only);
        self.stats
    }

    fn finish(&mut self, slot: usize, now_us: u64) {
        let a = self.actives[slot].take().expect("active slot");
        self.free.push(slot);
        self.active_count -= 1;
        let s = &mut self.stats;
        s.ops += 1;
        s.ops_by_kind[a.script.kind as usize] += 1;
        s.failed += u64::from(a.failed);
        s.wrong += u64::from(a.wrong);
        s.stale_ops += u64::from(a.stale && !a.failed);
        let lat = now_us.saturating_sub(a.t0_us) as f64;
        self.window_lat
            .push((a.script.kind == ScriptKind::SearchStep, lat));
        if s.ops.is_multiple_of(WINDOW_OPS) {
            self.close_window(WINDOW_OPS, true);
        }
        if self.trace {
            traced::record_span(
                SpanKind::LogicalOp,
                traced::op_tag(a.id, 0),
                a.script.home,
                a.start_ns,
                traced::now_ns(),
            );
        }
    }
}

/// How the simulator executor paces arrivals.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// One arrival every `interval_us` of virtual time, whatever is in
    /// flight; latency counts from the due time.
    Open {
        /// Virtual µs between arrivals.
        interval_us: u64,
    },
    /// A fixed number of scripts in flight; the next starts when one ends.
    Closed {
        /// Scripts in flight.
        concurrency: usize,
    },
}

/// When a run stops issuing new scripts: at the deadline or after
/// `max_ops` scripts, whichever comes first. Scripts in flight finish.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// Host-clock deadline.
    pub deadline: Instant,
    /// Script budget.
    pub max_ops: u64,
}

impl Limit {
    /// Stop after `max_ops` scripts, however long they take.
    pub fn ops(max_ops: u64) -> Self {
        Limit {
            // Far enough away to never fire (a year).
            deadline: Instant::now() + Duration::from_secs(365 * 24 * 3600),
            max_ops,
        }
    }

    /// Stop after `seconds` of host time or `max_ops` scripts.
    pub fn seconds(seconds: f64, max_ops: u64) -> Self {
        Limit {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            max_ops,
        }
    }
}

/// Simulator steps between looks at the host clock.
const CLOCK_CHECK_STEPS: u64 = 64;

/// Runs scripts from `source` over a simulated overlay until `limit`.
pub fn run_sim<N: BlockNode>(
    net: &mut SimNet<N>,
    source: &mut dyn FnMut() -> Script,
    pacing: Pacing,
    limit: Limit,
    verifier: &mut dyn Verifier,
    trace: bool,
) -> RunStats {
    let mut tracker = Tracker::new(verifier, trace, false);
    let t_start = Instant::now();
    let mut next_due = net.now_us();
    let mut stop = false;
    let mut steps = 0u64;
    let mut step_ns = 0u64;
    loop {
        let wants_issue = !stop
            && tracker.started() < limit.max_ops
            && match pacing {
                Pacing::Open { .. } => next_due <= net.now_us(),
                Pacing::Closed { concurrency } => tracker.active() < concurrency,
            };
        if wants_issue {
            // `issue` borrows the network for as long as scripts start.
            let net_cell = std::cell::RefCell::new(&mut *net);
            let mut issue = |home: NodeAddr, tag: u64, op: &BlockOp| -> u64 {
                issue_from(&mut net_cell.borrow_mut(), home, tag, op)
            };
            while tracker.started() < limit.max_ops {
                let now = net_cell.borrow().now_us();
                match pacing {
                    Pacing::Open { interval_us } if next_due <= now => {
                        tracker.stats.issue_lag_us.push((now - next_due) as f64);
                        tracker.start(source(), next_due, &mut issue);
                        next_due += interval_us;
                    }
                    Pacing::Closed { concurrency } if tracker.active() < concurrency => {
                        tracker.start(source(), now, &mut issue);
                    }
                    _ => break,
                }
            }
        }
        if tracker.started() >= limit.max_ops {
            stop = true;
        }
        if stop && tracker.active() == 0 {
            break;
        }

        let progressed = if trace {
            let t0 = traced::now_ns();
            let progressed = net.step();
            let t1 = traced::now_ns();
            step_ns += t1 - t0;
            traced::record_span(SpanKind::Step, traced::take_last_tag(), 0, t0, t1);
            progressed
        } else {
            net.step()
        };
        steps += 1;
        // An operation the home node can answer itself completes inside
        // the issuing call, so completions are collected even when no
        // event was left to fire.
        let done = net.take_completions_from();
        let completed = !done.is_empty();
        if completed {
            let now = net.now_us();
            let mut issue = |home: NodeAddr, tag: u64, op: &BlockOp| issue_from(net, home, tag, op);
            for (addr, op_id, out) in done {
                tracker.on_completion(addr, op_id, out, now, &mut issue);
            }
        }
        if !progressed && !completed {
            // Nothing queued: an open loop waits for its next arrival.
            match pacing {
                Pacing::Open { .. } if !stop => net.run_until(next_due),
                _ => panic!(
                    "the overlay went idle with {} scripts in flight",
                    tracker.active()
                ),
            }
        }
        if steps.is_multiple_of(CLOCK_CHECK_STEPS) && !stop && Instant::now() >= limit.deadline {
            stop = true;
        }
    }
    let mut stats = tracker.into_stats();
    stats.host_s = t_start.elapsed().as_secs_f64();
    stats.thread_s = stats.host_s;
    stats.steps = steps;
    stats.step_ns = step_ns;
    stats
}

/// Longest a loopback run waits for scripts in flight after it stopped
/// issuing (a dropped datagram costs an RPC timeout or two).
const UDP_DRAIN: Duration = Duration::from_secs(3);

/// The poll slice of the loopback executor.
pub const UDP_POLL_SLICE: Duration = Duration::from_millis(1);

/// Runs scripts from `source` over one loopback worker, `concurrency` in
/// flight, until `limit`. Script homes must be addresses this worker
/// hosts; `base` is the worker's first address.
pub fn run_udp<N: BlockNode>(
    worker: &mut UdpWorker<N>,
    base: NodeAddr,
    source: &mut dyn FnMut() -> Script,
    concurrency: usize,
    limit: Limit,
    verifier: &mut dyn Verifier,
    trace: bool,
) -> RunStats {
    let mut tracker = Tracker::new(verifier, trace, true);
    let t_start = Instant::now();
    let epoch = Instant::now();
    let mut stop = false;
    let mut drain_deadline = None;
    let mut steps = 0u64;
    let mut step_ns = 0u64;
    let slots = worker.len();
    loop {
        let now_us = epoch.elapsed().as_micros() as u64;
        {
            let cell = std::cell::RefCell::new(&mut *worker);
            let mut issue = |home: NodeAddr, tag: u64, op: &BlockOp| -> u64 {
                cell.borrow_mut()
                    .with_node((home - base) as usize, |n, ctx| {
                        n.issue(ctx, tag, &mut |k, c| issue_on(k, c, op))
                    })
            };
            for slot in 0..slots {
                let done = cell.borrow_mut().take_completions(slot);
                for (op_id, out) in done {
                    tracker.on_completion(base + slot as NodeAddr, op_id, out, now_us, &mut issue);
                }
            }
            while !stop && tracker.active() < concurrency && tracker.started() < limit.max_ops {
                tracker.start(source(), now_us, &mut issue);
            }
        }
        if !stop && (tracker.started() >= limit.max_ops || Instant::now() >= limit.deadline) {
            stop = true;
            drain_deadline = Some(Instant::now() + UDP_DRAIN);
        }
        if stop && (tracker.active() == 0 || drain_deadline.is_some_and(|d| Instant::now() >= d)) {
            break;
        }
        let t0 = if trace { traced::now_ns() } else { 0 };
        worker
            .poll(UDP_POLL_SLICE)
            .expect("loopback sockets stay readable");
        if trace {
            let t1 = traced::now_ns();
            step_ns += t1 - t0;
            traced::record_span(SpanKind::Step, 0, base, t0, t1);
        }
        steps += 1;
    }
    // Scripts still in flight after the drain never completed.
    let unfinished = tracker.active_count as u64;
    let mut stats = tracker.into_stats();
    stats.failed += unfinished;
    stats.host_s = t_start.elapsed().as_secs_f64();
    stats.thread_s = stats.host_s;
    stats.steps = steps;
    stats.step_ns = step_ns;
    stats
}

/// Polls every worker of a loopback overlay on its own thread until
/// `done` says so, calling `work` on each thread first. Used for set-up
/// phases (bootstrap, bulk load) where workers must serve each other.
pub fn bootstrap_udp<N: BlockNode + Send>(workers: &mut [UdpWorker<N>], settle: Duration)
where
    N::Output: Send,
{
    std::thread::scope(|scope| {
        for worker in workers.iter_mut() {
            scope.spawn(move || {
                for slot in 0..worker.len() {
                    if worker.node_addr(slot) != 0 {
                        worker
                            .with_node(slot, |n, ctx| n.issue(ctx, 0, &mut |k, c| k.bootstrap(c)));
                    }
                    worker
                        .poll(Duration::from_millis(2))
                        .expect("loopback sockets stay readable");
                }
                let until = Instant::now() + settle;
                while Instant::now() < until {
                    worker
                        .poll(Duration::from_millis(2))
                        .expect("loopback sockets stay readable");
                }
                for slot in 0..worker.len() {
                    worker.take_completions(slot);
                }
            });
        }
    });
}
