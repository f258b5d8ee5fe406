//! `mixed_full`: every optional layer on. Driver (b) over a 128-node
//! simulated overlay with the hot-block cache, adaptive replication,
//! adaptive maintenance, version gossip with warm routing and
//! push-on-write, latency awareness, and a four-cluster topology in which
//! one cluster loses a quarter of its datagrams. The overlay is
//! bulk-loaded with a dataset's `r̄`, `t̄` and `t̂` blocks, then serves an
//! **open loop** of 50 scripts per virtual second: 80 % search steps
//! (`GET t̂` top-100 and `GET t̄` together), 20 % re-tag scripts, tags
//! Zipf(1.0), homes uniform.
//!
//! The only workload where virtual latency (timed from each arrival's due
//! time) and staleness are observable. Every served view must be a
//! weight-ordered prefix of its block.

use dharma_kademlia::KademliaNode;
use dharma_net::{NodeAddr, SimNet};

use crate::inputs::{BlockBook, MixStream, SearchInputs};
use crate::ledger::run_probes;
use crate::overlay::{
    build_sim, bulk_load_sim, full_kad_config, full_sim_config, full_topology, OVERLAY_SEED,
};
use crate::report::Outcome;
use crate::script::{run_sim, Limit, Pacing, RunStats};
use crate::stats;
use crate::traced::{self, BlockNode, Traced};
use crate::workloads::{
    kad_nodes, ops_per_s, repeat_setup, time_dataset_and_model, us_per_op, write_spans,
    write_traced_metrics, CounterSnap, EndToEnd, Meter, RunArgs, TracedPhase,
};

/// Overlay size.
pub const NODES: usize = 128;

/// Resources in the dataset.
pub const RESOURCES: usize = 1_000;

/// Search seeds: the most popular tags.
pub const POPULAR_TAGS: usize = 500;

/// Share of scripts that re-tag.
pub const RETAG_SHARE: f64 = 0.2;

/// Virtual µs between arrivals: 50 scripts per virtual second.
pub const ARRIVAL_INTERVAL_US: u64 = 20_000;

/// Scripts run, unmeasured, at the end of set-up: caches, RTT books and
/// hit histories are warm when measurement starts.
pub const WARMUP_OPS: u64 = 500;

const LOAD_CHUNK_BYTES: usize = 60_000;
const LOAD_WINDOW: usize = 32;
const REPLY_BUDGET: usize = 64 * 1024 - 200;
const ALPHA: usize = 3;
const PACING: Pacing = Pacing::Open {
    interval_us: ARRIVAL_INTERVAL_US,
};

fn setup<N: BlockNode>(
    seed: u64,
    wrap: impl Fn(KademliaNode) -> N,
) -> (SimNet<N>, MixStream, BlockBook) {
    let mut net = build_sim(full_sim_config(OVERLAY_SEED), NODES, full_kad_config, wrap);
    // Clients sit in the three healthy clusters. The lossy cluster's
    // nodes still route, store and serve — a quarter of the peers every
    // lookup meets drop a quarter of their datagrams — but an operation
    // *issued* behind a 25 %-loss link fails now and then whatever the
    // protocol does, and the benchmark's operations must not fail.
    let topology = full_topology();
    let homes: Vec<NodeAddr> = (0..NODES as NodeAddr)
        .filter(|&a| Some(topology.cluster_of(OVERLAY_SEED, a)) != topology.lossy_cluster)
        .collect();
    let mut stream = MixStream::new(
        SearchInputs::new(RESOURCES, POPULAR_TAGS, seed),
        seed,
        RETAG_SHARE,
        homes.clone(),
    );
    let blocks = stream.blocks();
    bulk_load_sim(&mut net, &blocks, &homes, LOAD_CHUNK_BYTES, LOAD_WINDOW);
    let mut book = BlockBook::new(&blocks);
    run_sim(
        &mut net,
        &mut || stream.next_script(),
        PACING,
        Limit::ops(WARMUP_OPS),
        &mut book,
        false,
    );
    (net, stream, book)
}

fn latency_note(run: &RunStats) -> String {
    let p50 = stats::median(&run.search_latency_us).unwrap_or(0.0) / 1e3;
    let tail = stats::highest_percentile(&run.search_latency_us);
    format!(
        "# mixed_full: {} scripts ({} search steps, {} re-tags) at {:.0}/s raw, {} lookups, {} GET retries; virtual latency per search step p50 {:.2} ms, {} over {} steps; {} stale reads of {} GETs; issue lag p99 {:.0} us",
        run.ops,
        run.ops_by_kind[2],
        run.ops_by_kind[1],
        run.ops as f64 / run.host_s.max(1e-9),
        run.lookups,
        run.get_retries,
        p50,
        tail.map_or("no tail percentile".to_owned(), |p| format!("p{} {:.2} ms", p.rank, p.value / 1e3)),
        run.search_latency_us.len(),
        run.stale_reads,
        run.gets,
        stats::highest_percentile(&run.issue_lag_us).map_or(0.0, |p| p.value),
    )
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
    let ((mut net, mut stream, mut book), setup_time) =
        repeat_setup(args.setups, || setup(args.seed, |n| n));
    let meter = Meter::start(vec![net.counters()]);
    let run = run_sim(
        &mut net,
        &mut || stream.next_script(),
        PACING,
        args.limit(1.0),
        &mut book,
        false,
    );
    let cost = meter.stop();

    let mut out = Outcome {
        correct: run.wrong == 0,
        attempted: run.ops,
        failed: run.failed,
        ..Outcome::default()
    };
    EndToEnd {
        setup_s: setup_time.cal_s,
        ops_per_s: ops_per_s(&run.window_ops_per_s, run.ops, run.host_s),
        ops: run.ops,
        lookups: run.lookups,
        cost,
        cal_over_raw_s: (run.cal_s, run.host_s),
        lat_p50_ms: stats::median(&run.search_latency_us).unwrap_or(0.0) / 1e3,
        peak_rss_mb: stats::peak_rss_mb().unwrap_or(0.0),
    }
    .write(&mut out.metrics);
    out.notes.push(latency_note(&run));
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let m = &mut out.metrics;

    time_dataset_and_model(RESOURCES, args.seed, m);

    // Untraced, for the tracing overhead.
    let (mut net_b, mut stream_b, mut book_b) = setup(args.seed, |n| n);
    let run_b = run_sim(
        &mut net_b,
        &mut || stream_b.next_script(),
        PACING,
        args.limit(0.5),
        &mut book_b,
        false,
    );
    let script_us = us_per_op(&run_b.window_ops_per_s, run_b.ops, run_b.cal_s);
    drop(net_b);

    let (mut net, mut stream, mut book) = setup(args.seed, Traced::new);
    let counters = [net.counters()];
    let before = CounterSnap::read(&counters);
    traced::start_thread_trace(true);
    let run = run_sim(
        &mut net,
        &mut || stream.next_script(),
        PACING,
        args.limit(0.5),
        &mut book,
        true,
    );
    let trace = traced::take_thread_trace().expect("trace was started");
    let after = CounterSnap::read(&counters);
    let traced_us = us_per_op(&run.window_ops_per_s, run.ops, run.cal_s);
    let nodes = kad_nodes(&net);
    let probes = run_probes(&nodes, Some(&trace), REPLY_BUDGET, ALPHA);
    let ledger = write_traced_metrics(
        &TracedPhase {
            stats: &run,
            trace: &trace,
            before,
            after,
            nodes: &nodes,
            probes: &probes,
            writes: run.writes,
            simulated: true,
        },
        m,
    );
    m.set(
        "e2e.virt_p50_ms",
        stats::median(&run.search_latency_us).unwrap_or(0.0) / 1e3,
    );
    m.set(
        "e2e.virt_p99_ms",
        stats::percentile(&run.search_latency_us, 99.0).map_or(0.0, |p| p.value / 1e3),
    );
    m.set(
        "bench.trace_overhead_share",
        if script_us > 0.0 {
            (traced_us - script_us) / script_us
        } else {
            0.0
        },
    );

    out.failed = run_b.failed + run.failed;
    out.correct = run_b.wrong + run.wrong == 0;
    out.attempted = run_b.ops + run.ops;
    out.notes.push(latency_note(&run));
    out.notes.push(format!(
        "# mixed_full traced: scripts {:.1} us/op over {} ops untraced, {:.1} us/op over {} ops traced",
        script_us, run_b.ops, traced_us, run.ops
    ));
    out.notes.extend(ledger);
    if let Some(dir) = &args.out_dir {
        out.notes.push(write_spans(dir, "mixed_full", &trace));
    }
    out
}
