//! `search_plain`: the read path on large blocks. The plain overlay of
//! `tag_plain`, bulk-loaded in set-up with the exact `t̄` and `t̂` blocks of
//! a Last.fm-shaped dataset (one MTU-chunked `append_many` per block),
//! then faceted-search sessions through driver (a): seed tags follow
//! Zipf(1.0) over the most popular tags, each session selects the first
//! displayed tag until ≤ 10 resources remain, one tag is left or six
//! steps have run. Read-only.
//!
//! Every session's path and result set must equal the in-memory
//! `FacetedSearch` over the same graphs. One logical operation is one
//! search step (Table I: 2 lookups).

use std::collections::VecDeque;
use std::time::Instant;

use dharma_core::DharmaClient;
use dharma_kademlia::KademliaNode;
use dharma_net::SimNet;

use crate::calib::{calibrated, Calibrator};
use crate::client_driver::{
    bench_policy, client_homes, make_clients, run_session_batch, run_sessions, ClientRun,
    SESSION_BATCH,
};
use crate::inputs::{search_step_script, tag_name, BlockBook, SearchInputs, CLIENTS};
use crate::ledger::run_probes;
use crate::overlay::{build_sim, bulk_load_sim, plain_kad_config, plain_sim_config, OVERLAY_SEED};
use crate::report::Outcome;
use crate::script::{run_sim, Limit, NoVerify, Pacing, RunStats, Script};
use crate::stats;
use crate::traced::{self, BlockNode, Traced};
use crate::workloads::{
    kad_nodes, ops_per_s, repeat_setup, time_dataset_and_model, write_spans, write_traced_metrics,
    CounterSnap, EndToEnd, Meter, RunArgs, TracedPhase,
};

/// Overlay size.
pub const NODES: usize = 256;

/// Resources in the dataset.
pub const RESOURCES: usize = 3_000;

/// Seed tags: the most popular tags of the dataset.
pub const POPULAR_TAGS: usize = 500;

/// Bytes per bulk-load `append_many` (under the 64 KiB datagram budget).
const LOAD_CHUNK_BYTES: usize = 60_000;

/// Bulk-load writes in flight.
const LOAD_WINDOW: usize = 16;

/// Search steps generated ahead of each timed slice of the traced arm.
const TRACED_CHUNK_STEPS: u64 = 200;

const REPLY_BUDGET: usize = 64 * 1024 - 200;
const ALPHA: usize = 3;

fn setup<N: BlockNode>(seed: u64, wrap: impl Fn(KademliaNode) -> N) -> (SimNet<N>, SearchInputs) {
    let mut net = build_sim(
        plain_sim_config(OVERLAY_SEED),
        NODES,
        plain_kad_config,
        wrap,
    );
    let inputs = SearchInputs::new(RESOURCES, POPULAR_TAGS, seed);
    let blocks = inputs.search_blocks();
    let writers: Vec<u32> = (0..NODES as u32).collect();
    bulk_load_sim(&mut net, &blocks, &writers, LOAD_CHUNK_BYTES, LOAD_WINDOW);
    (net, inputs)
}

fn clients(seed: u64) -> Vec<DharmaClient> {
    make_clients(&client_homes(NODES, CLIENTS), seed, bench_policy())
}

/// The sessions as scripts: one script per step, `GET t̂` then `GET t̄`,
/// from the session's home, in session order.
fn step_source(inputs: &mut SearchInputs) -> impl FnMut() -> Script + '_ {
    let homes = client_homes(NODES, CLIENTS);
    let mut queue: VecDeque<Script> = VecDeque::new();
    let mut session = 0usize;
    move || loop {
        if let Some(s) = queue.pop_front() {
            return s;
        }
        let rank = inputs.next_session();
        let home = homes[session % homes.len()];
        session += 1;
        for &t in &inputs.plans[rank].path {
            queue.push_back(search_step_script(home, &tag_name(t), false));
        }
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_gated(args)
    }
}

fn run_gated(args: &RunArgs) -> Outcome {
    let ((mut net, mut inputs), setup_time) = repeat_setup(args.setups, || setup(args.seed, |n| n));
    let mut clients = clients(args.seed);
    let mut cal = Calibrator::new();
    let meter = Meter::start(vec![net.counters()]);
    let run = run_sessions(
        &mut net,
        &mut clients,
        &mut inputs,
        args.limit(1.0),
        &mut cal,
    );
    let cost = meter.stop();

    let mut out = Outcome {
        correct: run.failed == 0 && run.table1_violations == 0,
        attempted: run.ops,
        failed: run.failed,
        ..Outcome::default()
    };
    EndToEnd {
        setup_s: setup_time.cal_s,
        ops_per_s: ops_per_s(&run.batch_ops_per_s, run.ops, run.host_s),
        ops: run.ops,
        lookups: run.lookups,
        cost,
        cal_over_raw_s: (run.host_s, run.raw_s),
        lat_p50_ms: stats::median(&run.op_host_us).unwrap_or(0.0) / 1e3,
        peak_rss_mb: stats::peak_rss_mb().unwrap_or(0.0),
    }
    .write(&mut out.metrics);
    out.notes.push(cal.note());
    out.notes.push(format!(
        "# search_plain: {} search steps in {} batches, {:.0} steps/s raw; every session's path and result set equal the in-memory FacetedSearch: {}; 2 lookups per step: {}",
        run.ops,
        run.batch_ops_per_s.len(),
        run.ops as f64 / run.raw_s.max(1e-9),
        run.failed == 0,
        run.table1_violations == 0
    ));
    if let Some(p) = stats::highest_percentile(&run.op_host_us) {
        out.notes.push(format!(
            "# search_plain: host latency per step p50 {:.1} us, p{} {:.1} us over {} steps",
            stats::median(&run.op_host_us).unwrap_or(0.0),
            p.rank,
            p.value,
            p.samples
        ));
    }
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let m = &mut out.metrics;

    time_dataset_and_model(RESOURCES, args.seed, m);

    // One untraced overlay serves three read-only arms in alternating
    // batches of the same sessions: through `DhtFacetedSearch`, as bare
    // `search_step` calls, and as scripts. Sessions minus bare calls is the
    // local narrowing; bare calls minus scripts is the client's own cost.
    let (mut net, mut inputs) = setup(args.seed, |n| n);
    let mut cl = clients(args.seed);
    let homes = client_homes(NODES, CLIENTS);
    let share = 0.75;
    let arms = args.limit(share);
    let (mut run_a, mut run_bare, mut run_b) = (
        ClientRun::default(),
        ClientRun::default(),
        RunStats::default(),
    );
    let mut script_s = 0.0;
    let mut session = 0usize;
    let mut cal = Calibrator::new();
    while run_a.ops + run_bare.ops + run_b.ops < arms.max_ops && Instant::now() < arms.deadline {
        let ranks: Vec<usize> = (0..SESSION_BATCH).map(|_| inputs.next_session()).collect();
        let plans: Vec<_> = ranks.iter().map(|&r| &inputs.plans[r]).collect();
        for (narrow, run) in [(true, &mut run_a), (false, &mut run_bare)] {
            run_session_batch(&mut net, &mut cl, &plans, session, narrow, run, &mut cal);
        }
        let mut scripts: VecDeque<Script> = ranks
            .iter()
            .enumerate()
            .flat_map(|(n, &rank)| {
                let home = homes[(session + n) % homes.len()];
                inputs.plans[rank]
                    .path
                    .iter()
                    .map(move |&t| search_step_script(home, &tag_name(t), false))
            })
            .collect();
        let steps = scripts.len() as u64;
        let (run, cal_s, _) = calibrated(&mut cal, || {
            run_sim(
                &mut net,
                &mut || {
                    scripts
                        .pop_front()
                        .expect("the limit stops at the last step")
                },
                Pacing::Closed { concurrency: 1 },
                Limit::ops(steps),
                &mut NoVerify,
                false,
            )
        });
        run_b.merge(run);
        script_s += cal_s;
        session += ranks.len();
    }
    let session_us = run_a.host_s * 1e6 / run_a.ops.max(1) as f64;
    let bare_us = run_bare.host_s * 1e6 / run_bare.ops.max(1) as f64;
    let script_us = script_s * 1e6 / run_b.ops.max(1) as f64;
    m.set("core.search.narrow_us_per_step", session_us - bare_us);
    m.set("core.client.self_us_per_op", bare_us - script_us);
    drop(net);

    // The scripts again on traced nodes.
    let (mut net_c, mut inputs_c) = setup(args.seed, Traced::new);
    let mut book_c = BlockBook::new(&inputs_c.search_blocks());
    let counters = [net_c.counters()];
    let before = CounterSnap::read(&counters);
    traced::start_thread_trace(true);
    let rest = args.limit(1.0 - share);
    let mut run_c = RunStats::default();
    let (mut traced_s, mut traced_cal_s) = (0.0, 0.0);
    let mut source = step_source(&mut inputs_c);
    while run_c.ops < rest.max_ops && Instant::now() < rest.deadline {
        let n = TRACED_CHUNK_STEPS.min(rest.max_ops - run_c.ops);
        let mut scripts: VecDeque<Script> = (0..n).map(|_| source()).collect();
        let (run, cal_s, raw_s) = calibrated(&mut cal, || {
            run_sim(
                &mut net_c,
                &mut || {
                    scripts
                        .pop_front()
                        .expect("the limit stops at the last step")
                },
                Pacing::Closed { concurrency: 1 },
                Limit::ops(n),
                &mut book_c,
                true,
            )
        });
        run_c.merge(run);
        traced_cal_s += cal_s;
        traced_s += raw_s;
    }
    drop(source);
    run_c.host_s = traced_s;
    run_c.thread_s = traced_s;
    let trace = traced::take_thread_trace().expect("trace was started");
    let after = CounterSnap::read(&counters);
    // The verifier runs in the traced arm only; its time is not tracing.
    let verify_share = run_c.verify_ns as f64 / 1e9 / traced_s.max(1e-9);
    let traced_us = traced_cal_s * (1.0 - verify_share) * 1e6 / run_c.ops.max(1) as f64;
    let nodes = kad_nodes(&net_c);
    let probes = run_probes(&nodes, Some(&trace), REPLY_BUDGET, ALPHA);
    let ledger = write_traced_metrics(
        &TracedPhase {
            stats: &run_c,
            trace: &trace,
            before,
            after,
            nodes: &nodes,
            probes: &probes,
            writes: run_c.writes,
            simulated: true,
        },
        m,
    );
    m.set(
        "bench.trace_overhead_share",
        if script_us > 0.0 {
            (traced_us - script_us) / script_us
        } else {
            0.0
        },
    );

    out.failed = run_a.failed + run_bare.failed + run_b.failed + run_c.failed;
    out.correct = out.failed == 0 && run_a.table1_violations == 0;
    out.attempted = run_a.ops + run_bare.ops + run_b.ops + run_c.ops;
    out.notes.push(format!(
        "# search_plain traced: sessions {:.1} us/step over {} steps, bare search_step {:.1} us/step over {}, scripts {:.1} us/step over {}, traced scripts {:.1} us/step over {}",
        session_us, run_a.ops, bare_us, run_bare.ops, script_us, run_b.ops, traced_us, run_c.ops
    ));
    out.notes.extend(ledger);
    if let Some(dir) = &args.out_dir {
        out.notes.push(write_spans(dir, "search_plain", &trace));
    }
    out
}
