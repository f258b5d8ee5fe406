//! Driver (a): the paper's API. Eight blocking [`DharmaClient`]s on eight
//! home nodes, served round-robin in a closed loop — one logical operation
//! runs to completion before the next starts, exactly as an application
//! on a Likir node would drive them. Includes `dharma-core`'s own cost.
//!
//! Known limit: `DharmaClient::wait_for` keeps draining events after the
//! completion it waited for, so the virtual clock jumps to left-over RPC
//! timers; latency here is therefore host time, not virtual time.

use std::time::Instant;

use dharma_core::{Consistency, DharmaClient, DharmaConfig, DhtFacetedSearch};
use dharma_folksonomy::ApproxPolicy;
use dharma_kademlia::KademliaNode;
use dharma_net::{NodeAddr, SimNet};
use dharma_types::{block_key, BlockType};

use crate::calib::Calibrator;
use crate::inputs::{
    bench_identity, tag_name, LogicalOp, SearchInputs, SessionPlan, TagStream, NAMESPACE,
    SEARCH_TOP_N, SESSION_MAX_STEPS, TAG_CYCLE,
};
use crate::script::{Limit, ScriptKind, KINDS};

/// Connection parameter `k` of Approximation A in every client run.
pub const CONNECTION_K: usize = 1;

/// What a client-driver run measured.
#[derive(Clone, Debug, Default)]
pub struct ClientRun {
    /// Logical operations completed.
    pub ops: u64,
    /// Completed per kind (indexed by [`ScriptKind`]).
    pub ops_by_kind: [u64; KINDS],
    /// Overlay lookups, from the operations' `OpCost` receipts.
    pub lookups: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
    /// Operations whose receipt broke its Table I formula.
    pub table1_violations: u64,
    /// Throughput of each timed batch, operations per calibrated second
    /// (see [`crate::calib`]).
    pub batch_ops_per_s: Vec<f64>,
    /// Calibrated host µs of every operation.
    pub op_host_us: Vec<f64>,
    /// Calibrated seconds inside timed batches.
    pub host_s: f64,
    /// Raw host seconds inside timed batches.
    pub raw_s: f64,
    /// Raw µs of the operations of the batch being timed.
    batch_us: Vec<f64>,
}

/// The home nodes of the client slots: evenly spread over the overlay.
pub fn client_homes(nodes: usize, clients: usize) -> Vec<NodeAddr> {
    (0..clients)
        .map(|i| ((i * nodes) / clients + 1) as NodeAddr % nodes as NodeAddr)
        .collect()
}

/// The approximation the benchmark's clients tag under: the paper's A + B
/// at connection parameter [`CONNECTION_K`].
pub fn bench_policy() -> ApproxPolicy {
    ApproxPolicy::paper(CONNECTION_K)
}

/// One client per home, under `policy`, top-100 search filtering and two
/// retries for idempotent operations.
pub fn make_clients(homes: &[NodeAddr], seed: u64, policy: ApproxPolicy) -> Vec<DharmaClient> {
    homes
        .iter()
        .enumerate()
        .map(|(slot, &home)| {
            let cfg = DharmaConfig::builder()
                .policy(policy)
                .search_top_n(SEARCH_TOP_N)
                .namespace(NAMESPACE)
                .seed(seed ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .max_events_per_op(5_000_000)
                .op_retries(2)
                .build()
                .expect("benchmark client values are in range");
            DharmaClient::new(home, bench_identity(slot), cfg)
        })
        .collect()
}

/// Result of one client operation.
#[derive(Clone, Copy, Debug)]
pub struct OpResult {
    /// What ran.
    pub kind: ScriptKind,
    /// Overlay lookups on the operation's receipt.
    pub lookups: u32,
    /// Whether it returned a usable result.
    pub ok: bool,
    /// Whether the receipt matches the operation's Table I formula.
    pub table1_ok: bool,
}

/// Runs one tagging-stream operation and checks its receipt against
/// Table I: insert `2 + 2m`, tag `4 + min(k, |Tags(r)|)`, read 1.
pub fn run_tag_op(
    client: &mut DharmaClient,
    net: &mut SimNet<KademliaNode>,
    op: &LogicalOp,
) -> OpResult {
    match op {
        LogicalOp::Insert { res, uri, tags } => {
            let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let kind = ScriptKind::Insert;
            match client.insert_resource(net, res, uri, &refs) {
                Ok(cost) => OpResult {
                    kind,
                    lookups: cost.lookups,
                    ok: true,
                    table1_ok: cost.lookups as usize == 2 + 2 * tags.len(),
                },
                Err(_) => OpResult {
                    kind,
                    lookups: 0,
                    ok: false,
                    table1_ok: true,
                },
            }
        }
        LogicalOp::Tag { res, tag } => {
            let kind = ScriptKind::Tag;
            match client.tag(net, res, tag) {
                Ok(receipt) => OpResult {
                    kind,
                    lookups: receipt.cost.lookups,
                    ok: true,
                    table1_ok: receipt.updated
                        == client
                            .policy()
                            .connection_k
                            .map_or(receipt.neighborhood, |k| receipt.neighborhood.min(k))
                        && receipt.cost.lookups as usize == 4 + receipt.updated,
                },
                Err(_) => OpResult {
                    kind,
                    lookups: 0,
                    ok: false,
                    table1_ok: true,
                },
            }
        }
        LogicalOp::ReadResource { res } => read(
            client,
            net,
            block_key(res, BlockType::ResourceTags),
            0,
            Consistency::ReadYourWrites,
        ),
        LogicalOp::ReadNeighbors { tag } => read(
            client,
            net,
            block_key(tag, BlockType::TagNeighbors),
            SEARCH_TOP_N,
            Consistency::MonotonicReads,
        ),
    }
}

fn read(
    client: &mut DharmaClient,
    net: &mut SimNet<KademliaNode>,
    key: dharma_types::Id160,
    top_n: u32,
    level: Consistency,
) -> OpResult {
    let kind = ScriptKind::Read;
    match client.get(net, key, top_n, level) {
        // The block was written earlier in the stream, so a valueless
        // read is a failure; a `StaleRead` error is one too.
        Ok((view, cost)) => OpResult {
            kind,
            lookups: cost.lookups,
            ok: view.is_some(),
            table1_ok: cost.lookups == 1,
        },
        Err(_) => OpResult {
            kind,
            lookups: 0,
            ok: false,
            table1_ok: true,
        },
    }
}

impl ClientRun {
    /// Folds a later run over the same overlay into this one.
    pub fn absorb(&mut self, other: ClientRun) {
        self.ops += other.ops;
        for k in 0..KINDS {
            self.ops_by_kind[k] += other.ops_by_kind[k];
        }
        self.lookups += other.lookups;
        self.failed += other.failed;
        self.table1_violations += other.table1_violations;
        self.batch_ops_per_s.extend(other.batch_ops_per_s);
        self.op_host_us.extend(other.op_host_us);
        self.host_s += other.host_s;
        self.raw_s += other.raw_s;
    }

    fn record(&mut self, r: &OpResult, host_us: f64) {
        self.ops += 1;
        self.ops_by_kind[r.kind as usize] += 1;
        self.lookups += u64::from(r.lookups);
        self.failed += u64::from(!r.ok);
        self.table1_violations += u64::from(!r.table1_ok);
        self.batch_us.push(host_us);
    }

    /// Ends a timed batch: one calibration tick, then the batch's time
    /// and its operations' times enter the run scaled by the slowdown the
    /// ticks around the batch measured.
    fn close_batch(&mut self, ops: u64, t0: Instant, cal: &mut Calibrator) {
        let raw = t0.elapsed().as_secs_f64();
        let factor = cal.tick();
        let dt = raw / factor;
        self.raw_s += raw;
        self.host_s += dt;
        if dt > 0.0 && ops > 0 {
            self.batch_ops_per_s.push(ops as f64 / dt);
        }
        self.op_host_us
            .extend(self.batch_us.drain(..).map(|us| us / factor));
    }
}

/// Replays the tagging stream through the clients until `limit`. Each
/// batch is generated before it is timed, so input generation is not in
/// the measurement.
pub fn run_tagging(
    net: &mut SimNet<KademliaNode>,
    clients: &mut [DharmaClient],
    stream: &mut TagStream,
    limit: Limit,
    cal: &mut Calibrator,
) -> ClientRun {
    const BATCH: u64 = 4 * TAG_CYCLE;
    let mut run = ClientRun::default();
    while run.ops < limit.max_ops && Instant::now() < limit.deadline {
        let n = BATCH.min(limit.max_ops - run.ops);
        let batch: Vec<_> = (0..n).map(|_| stream.next_op()).collect();
        let t0 = Instant::now();
        for op in &batch {
            let t_op = Instant::now();
            let r = run_tag_op(&mut clients[op.slot], net, &op.logical);
            run.record(&r, t_op.elapsed().as_secs_f64() * 1e6);
        }
        run.close_batch(n, t0, cal);
    }
    run
}

/// Whether a session stops before another selection — the in-memory
/// search's rule, in its order: few enough resources, no choice of tags
/// left, or the step bound.
fn session_done(s: &DhtFacetedSearch) -> bool {
    let cfg = crate::inputs::session_config();
    s.resources().len() <= cfg.resource_stop
        || s.displayed().len() <= cfg.tag_stop
        || s.path().len() >= SESSION_MAX_STEPS
}

/// Runs the sessions in `plans`, the `n`-th on client
/// `(first_session + n) % clients`. Each session starts
/// at its seed tag and always selects the first displayed tag; its path
/// and result set must equal the plan worked out on the in-memory graphs.
///
/// With `narrow = false` the same `search_step` calls are made without a
/// [`DhtFacetedSearch`] session around them — the difference is the cost
/// of local narrowing.
pub fn run_session_batch(
    net: &mut SimNet<KademliaNode>,
    clients: &mut [DharmaClient],
    plans: &[&SessionPlan],
    first_session: usize,
    narrow: bool,
    run: &mut ClientRun,
    cal: &mut Calibrator,
) {
    let t0 = Instant::now();
    let before = run.ops;
    for (n, &plan) in plans.iter().enumerate() {
        let client = &mut clients[(first_session + n) % clients.len()];
        if narrow {
            run_session(net, client, plan, run);
        } else {
            for &t in &plan.path {
                let t_op = Instant::now();
                let r = match client.search_step(net, &tag_name(t)) {
                    Ok((_, _, cost)) => step_result(cost.lookups, true),
                    Err(_) => step_result(0, false),
                };
                run.record(&r, t_op.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    run.close_batch(run.ops - before, t0, cal);
}

/// Sessions per timed batch.
pub const SESSION_BATCH: usize = 16;

/// Runs Zipf-drawn sessions until `limit` (counted in search steps).
pub fn run_sessions(
    net: &mut SimNet<KademliaNode>,
    clients: &mut [DharmaClient],
    inputs: &mut SearchInputs,
    limit: Limit,
    cal: &mut Calibrator,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut session = 0usize;
    while run.ops < limit.max_ops && Instant::now() < limit.deadline {
        let ranks: Vec<usize> = (0..SESSION_BATCH).map(|_| inputs.next_session()).collect();
        let plans: Vec<&SessionPlan> = ranks.iter().map(|&r| &inputs.plans[r]).collect();
        run_session_batch(net, clients, &plans, session, true, &mut run, cal);
        session += plans.len();
    }
    run
}

fn step_result(lookups: u32, ok: bool) -> OpResult {
    OpResult {
        kind: ScriptKind::SearchStep,
        lookups,
        ok,
        table1_ok: !ok || lookups == 2,
    }
}

fn run_session(
    net: &mut SimNet<KademliaNode>,
    client: &mut DharmaClient,
    plan: &SessionPlan,
    run: &mut ClientRun,
) {
    let t_op = Instant::now();
    let mut s = match DhtFacetedSearch::start(client, net, &tag_name(plan.path[0])) {
        Ok(s) => s,
        Err(_) => {
            run.record(&step_result(0, false), t_op.elapsed().as_secs_f64() * 1e6);
            return;
        }
    };
    let mut spent = s.cost().lookups;
    run.record(
        &step_result(spent, true),
        t_op.elapsed().as_secs_f64() * 1e6,
    );
    while !session_done(&s) {
        let next = s.displayed()[0].0.clone();
        let t_op = Instant::now();
        let ok = s.select(client, net, &next).is_ok();
        let now = s.cost().lookups;
        run.record(
            &step_result(now - spent, ok),
            t_op.elapsed().as_secs_f64() * 1e6,
        );
        spent = now;
        if !ok {
            return;
        }
    }
    // The session's outputs against the in-memory search.
    let path_ok = s.path().len() == plan.path.len()
        && s.path()
            .iter()
            .zip(&plan.path)
            .all(|(got, &t)| *got == tag_name(t));
    let mut got: Vec<&String> = s.resources().iter().collect();
    got.sort_unstable();
    let result_ok = got.len() == plan.resources.len()
        && got.iter().zip(&plan.resources).all(|(a, b)| *a == b)
        && s.displayed().len() == plan.displayed;
    if !(path_ok && result_ok) {
        run.failed += 1;
    }
}
