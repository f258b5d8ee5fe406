//! `tag_plain`: the write path. Driver (a) inserts resources and replays
//! popularity-biased tagging events (§V-B) on the paper's plain overlay —
//! 256 nodes, k = 20, α = 3, 64 KiB datagrams, uniform 1–10 ms, lossless,
//! every optional layer off — under `ApproxPolicy::paper(1)`.
//!
//! One cycle of the stream is 1 insert, 10 tags and 2 reads (`r̄` at
//! `ReadYourWrites`, `t̂` at `MonotonicReads`). Every receipt is checked
//! against Table I, and after the run every `r̄` and `t̄` block on the
//! overlay must equal the exact Tag-Resource Graph of what was replayed.

use std::collections::VecDeque;
use std::time::Instant;

use dharma_core::DharmaClient;
use dharma_folksonomy::{compare_graphs, Fg};
use dharma_kademlia::KademliaNode;
use dharma_net::SimNet;

use crate::calib::{calibrated, Calibrator};
use crate::client_driver::{bench_policy, client_homes, make_clients, run_tagging, ClientRun};
use crate::inputs::{generate_dataset, TagStream, SESSIONS, TAG_CYCLE};
use crate::ledger::run_probes;
use crate::overlay::{build_sim, plain_kad_config, plain_sim_config, OVERLAY_SEED};
use crate::report::Outcome;
use crate::script::{run_sim, Limit, NoVerify, Pacing, RunStats, Script};
use crate::stats;
use crate::traced::{self, BlockNode, Traced};
use crate::workloads::{
    kad_nodes, ops_per_s, repeat_setup, stored_fg, verify_trg_blocks, write_spans,
    write_traced_metrics, CounterSnap, EndToEnd, Meter, RunArgs, TracedPhase,
};

/// Overlay size.
pub const NODES: usize = 256;

/// Resources in the reference dataset: enough that a run several times
/// faster than this commit's still finds a fresh resource every cycle.
pub const RESOURCES: usize = 4_000;

/// Operations replayed, unmeasured, before the measured phase, so that it
/// starts on a populated overlay.
pub const WARMUP_OPS: u64 = 20 * TAG_CYCLE;

/// Measured operations after which `peak_rss_mb` is read. This overlay
/// grows with every operation and a run lasts a fixed time, so memory at
/// the end of a run follows host speed — and would rise with any speed-up.
/// Memory at a stated input size does neither. A third of what this
/// commit gets through in ten seconds, so slower hosts still reach it (a
/// run that does not reports memory at its end).
pub const RSS_MARK_OPS: u64 = 4_000;

/// Operations per arm in each turn of the paired client/script run.
const PAIR_CHUNK_OPS: u64 = 10 * TAG_CYCLE;

const REPLY_BUDGET: usize = 64 * 1024 - 200;
const ALPHA: usize = 3;

struct ClientSetup {
    net: SimNet<KademliaNode>,
    stream: TagStream,
    clients: Vec<DharmaClient>,
}

fn setup_client(seed: u64) -> ClientSetup {
    let mut net = build_sim(
        plain_sim_config(OVERLAY_SEED),
        NODES,
        plain_kad_config,
        |n| n,
    );
    let homes = client_homes(NODES, SESSIONS);
    let mut stream = TagStream::new(RESOURCES, seed, homes.clone(), bench_policy(), false);
    let mut clients = make_clients(&homes, seed, bench_policy());
    let warm = run_tagging(
        &mut net,
        &mut clients,
        &mut stream,
        Limit::ops(WARMUP_OPS),
        &mut Calibrator::new(),
    );
    assert_eq!(warm.failed, 0, "warm-up operations must succeed");
    ClientSetup {
        net,
        stream,
        clients,
    }
}

fn setup_script<N: BlockNode>(
    seed: u64,
    wrap: impl Fn(KademliaNode) -> N,
) -> (SimNet<N>, TagStream) {
    let mut net = build_sim(
        plain_sim_config(OVERLAY_SEED),
        NODES,
        plain_kad_config,
        wrap,
    );
    let mut stream = TagStream::new(
        RESOURCES,
        seed,
        client_homes(NODES, SESSIONS),
        bench_policy(),
        true,
    );
    let warm = run_sim(
        &mut net,
        &mut || stream.next_op().script.expect("stream built with scripts"),
        Pacing::Closed { concurrency: 1 },
        Limit::ops(WARMUP_OPS),
        &mut NoVerify,
        false,
    );
    assert_eq!(warm.failed, 0, "warm-up scripts must succeed");
    (net, stream)
}

/// The next `n` operations of `stream` as scripts, generated before they
/// are timed.
fn next_scripts(stream: &mut TagStream, n: u64) -> VecDeque<Script> {
    (0..n)
        .map(|_| stream.next_op().script.expect("stream built with scripts"))
        .collect()
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
    let (mut s, setup_time) = repeat_setup(args.setups, || setup_client(args.seed));
    let mut cal = Calibrator::new();
    let meter = Meter::start(vec![s.net.counters()]);
    // Up to the memory mark, then the rest of the time.
    let limit = args.limit(1.0);
    let mut run = run_tagging(
        &mut s.net,
        &mut s.clients,
        &mut s.stream,
        Limit {
            max_ops: limit.max_ops.min(RSS_MARK_OPS),
            ..limit
        },
        &mut cal,
    );
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    if run.ops < limit.max_ops {
        run.absorb(run_tagging(
            &mut s.net,
            &mut s.clients,
            &mut s.stream,
            Limit {
                max_ops: limit.max_ops - run.ops,
                ..limit
            },
            &mut cal,
        ));
    }
    let cost = meter.stop();

    let nodes = kad_nodes(&s.net);
    let (checked, wrong) = verify_trg_blocks(&nodes, s.stream.model().trg());
    let mut out = Outcome {
        correct: wrong == 0 && run.failed == 0 && run.table1_violations == 0,
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
        peak_rss_mb,
    }
    .write(&mut out.metrics);
    out.notes.push(cal.note());
    out.notes.push(format!(
        "# tag_plain: {} ops in {} batches, {:.0} ops/s raw (insert {}, tag {}, read {}); Table I held op by op: {} ({} violations); {} r\u{304}/t\u{304} blocks checked against the exact TRG, {} wrong",
        run.ops,
        run.batch_ops_per_s.len(),
        run.ops as f64 / run.raw_s.max(1e-9),
        run.ops_by_kind[0],
        run.ops_by_kind[1],
        run.ops_by_kind[3],
        run.table1_violations == 0,
        run.table1_violations,
        checked,
        wrong
    ));
    if let Some(p) = stats::highest_percentile(&run.op_host_us) {
        out.notes.push(format!(
            "# tag_plain: host latency p50 {:.1} us, p{} {:.1} us over {} ops (host time: the client's clock jump hides virtual latency)",
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

    let t0 = Instant::now();
    let dataset = generate_dataset(RESOURCES, args.seed);
    m.set("dataset.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(dataset);

    // (A, B) The client drives the stream on one overlay while the same
    // operations run as scripts on a second, in alternating chunks: the
    // difference in time over identical operations is what `dharma-core`
    // adds on top of the block operations. Alternating keeps drift and
    // scheduler noise out of a difference of two large numbers.
    let mut a = setup_client(args.seed);
    let (mut net_b, mut stream_b) = setup_script(args.seed, |n| n);
    let pair = args.limit(2.0 / 3.0);
    let (mut run_a, mut run_b) = (ClientRun::default(), RunStats::default());
    let mut script_s = 0.0;
    let mut cal = Calibrator::new();
    while run_a.ops + run_b.ops < pair.max_ops && Instant::now() < pair.deadline {
        let chunk = Limit::ops(PAIR_CHUNK_OPS);
        run_a.absorb(run_tagging(
            &mut a.net,
            &mut a.clients,
            &mut a.stream,
            chunk,
            &mut cal,
        ));
        let mut scripts = next_scripts(&mut stream_b, PAIR_CHUNK_OPS);
        let (run, cal_s, _) = calibrated(&mut cal, || {
            run_sim(
                &mut net_b,
                &mut || {
                    scripts
                        .pop_front()
                        .expect("the limit stops at the last script")
                },
                Pacing::Closed { concurrency: 1 },
                chunk,
                &mut NoVerify,
                false,
            )
        });
        run_b.merge(run);
        script_s += cal_s;
    }
    let client_us = run_a.host_s * 1e6 / run_a.ops.max(1) as f64;
    let script_us = script_s * 1e6 / run_b.ops.max(1) as f64;

    // The quality of the graph the client built (Table III).
    let nodes_a = kad_nodes(&a.net);
    let (checked_a, wrong_a) = verify_trg_blocks(&nodes_a, a.stream.model().trg());
    let t0 = Instant::now();
    let exact = Fg::derive_exact(a.stream.model().trg());
    m.set("folksonomy.model_ms", t0.elapsed().as_secs_f64() * 1e3);
    let built = stored_fg(&nodes_a, exact.num_tags());
    let t0 = Instant::now();
    let cmp = compare_graphs(&dharma_par::ThreadPool::new(1), &exact, &built, 1);
    m.set("folksonomy.compare_ms", t0.elapsed().as_secs_f64() * 1e3);
    m.set("e2e.fg_tau_b", cmp.tau.mean());
    m.set("e2e.fg_recall", cmp.recall.mean());
    drop(nodes_a);
    drop(a);
    drop(net_b);

    // (C) The scripts again on traced nodes.
    let (mut net_c, mut stream_c) = setup_script(args.seed, Traced::new);
    let counters = [net_c.counters()];
    let before = CounterSnap::read(&counters);
    traced::start_thread_trace(true);
    let third = args.limit(1.0 / 3.0);
    let mut run_c = RunStats::default();
    let (mut traced_s, mut traced_cal_s) = (0.0, 0.0);
    while run_c.ops < third.max_ops && Instant::now() < third.deadline {
        let n = PAIR_CHUNK_OPS.min(third.max_ops - run_c.ops);
        let mut scripts = next_scripts(&mut stream_c, n);
        let (run, cal_s, raw_s) = calibrated(&mut cal, || {
            run_sim(
                &mut net_c,
                &mut || {
                    scripts
                        .pop_front()
                        .expect("the limit stops at the last script")
                },
                Pacing::Closed { concurrency: 1 },
                Limit::ops(n),
                &mut NoVerify,
                true,
            )
        });
        run_c.merge(run);
        traced_cal_s += cal_s;
        traced_s += raw_s;
    }
    run_c.host_s = traced_s;
    run_c.thread_s = traced_s;
    let trace = traced::take_thread_trace().expect("trace was started");
    let after = CounterSnap::read(&counters);
    let traced_us = traced_cal_s * 1e6 / run_c.ops.max(1) as f64;
    let nodes_c = kad_nodes(&net_c);
    let (checked_c, wrong_c) = verify_trg_blocks(&nodes_c, stream_c.model().trg());
    let probes = run_probes(&nodes_c, Some(&trace), REPLY_BUDGET, ALPHA);
    let ledger = write_traced_metrics(
        &TracedPhase {
            stats: &run_c,
            trace: &trace,
            before,
            after,
            nodes: &nodes_c,
            probes: &probes,
            writes: run_c.writes,
            simulated: true,
        },
        m,
    );
    m.set("core.client.self_us_per_op", client_us - script_us);
    m.set(
        "bench.trace_overhead_share",
        if script_us > 0.0 {
            (traced_us - script_us) / script_us
        } else {
            0.0
        },
    );

    out.correct = wrong_a == 0
        && wrong_c == 0
        && run_a.failed == 0
        && run_a.table1_violations == 0
        && run_b.failed == 0
        && run_c.failed == 0;
    out.attempted = run_a.ops + run_b.ops + run_c.ops;
    out.failed = run_a.failed + run_b.failed + run_c.failed;
    out.notes.push(format!(
        "# tag_plain traced: client {:.1} us/op over {} ops, scripts {:.1} us/op over {} ops, traced scripts {:.1} us/op over {} ops; blocks checked {}+{}, wrong {}+{}",
        client_us, run_a.ops, script_us, run_b.ops, traced_us, run_c.ops,
        checked_a, checked_c, wrong_a, wrong_c
    ));
    out.notes.extend(ledger);
    if let Some(dir) = &args.out_dir {
        out.notes.push(write_spans(dir, "tag_plain", &trace));
    }
    out
}
