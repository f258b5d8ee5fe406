//! `udp_search`: real sockets. Driver (b) over two shared-nothing
//! `UdpWorker` threads of eight nodes each on `127.0.0.1` — k = 4, α = 2,
//! a 1,400-byte MTU with a 1,200-byte reply budget, cache off, latency
//! awareness on. The overlay is bulk-loaded in ≤ 1,200-byte appends, then
//! each worker keeps 64 scripts in flight (closed loop) so every 1 ms poll
//! slice has work: 90 % search steps, 10 % re-tag scripts.
//!
//! All traffic crosses the host's **loopback interface**; no real link is
//! involved, so link rates and wire latency are not measured. Wall
//! latencies are quantised by the 1 ms poll slice (a known limit of
//! `UdpWorker::poll`, which always runs its whole budget).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use dharma_kademlia::KademliaNode;
use dharma_net::udp::UdpWorker;
use dharma_net::{NetCounters, NodeAddr};

use crate::inputs::{BlockBook, MixStream, SearchInputs};
use crate::ledger::run_probes;
use crate::overlay::{bind_udp, chunk_entries, UdpOverlay, OVERLAY_SEED};
use crate::report::Outcome;
use crate::script::{
    bootstrap_udp, run_udp, BlockOp, Limit, NoVerify, RunStats, Script, ScriptKind, UDP_POLL_SLICE,
};
use crate::stats;
use crate::traced::{self, BlockNode, TraceBuf, Traced};
use crate::workloads::{
    ops_per_s, repeat_setup, time_dataset_and_model, write_spans, write_traced_metrics, Cost,
    CounterSnap, EndToEnd, Meter, RunArgs, TracedPhase,
};

/// Worker threads.
pub const WORKERS: usize = 2;

/// Nodes per worker.
pub const PER_WORKER: usize = 8;

/// Resources in the dataset.
pub const RESOURCES: usize = 1_000;

/// Search seeds: the most popular tags.
pub const POPULAR_TAGS: usize = 500;

/// Share of scripts that re-tag.
pub const RETAG_SHARE: f64 = 0.1;

/// Scripts in flight per worker.
pub const CONCURRENCY: usize = 64;

/// Entry bytes per bulk-load append (the datagram stays under the MTU).
const LOAD_CHUNK_BYTES: usize = 1_100;

/// Bulk-load appends in flight per worker.
const LOAD_CONCURRENCY: usize = 16;

/// How long the joining nodes' lookups get to settle.
const BOOTSTRAP_SETTLE: Duration = Duration::from_millis(300);

const REPLY_BUDGET: usize = 1_200;
const ALPHA: usize = 2;

/// Runs `f` for every worker on its own thread with that worker's state.
/// A worker that finishes keeps polling until all have, so peers still
/// being served do not see it go silent.
fn on_all_workers<N, S, R>(
    workers: &mut [UdpWorker<N>],
    states: Vec<S>,
    f: impl Fn(usize, &mut UdpWorker<N>, S) -> R + Sync,
) -> Vec<R>
where
    N: BlockNode + Send,
    S: Send,
    R: Send,
{
    let total = workers.len();
    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(states)
            .enumerate()
            .map(|(i, (worker, state))| {
                let (f, finished) = (&f, &finished);
                scope.spawn(move || {
                    // Counted as finished even if `f` panics: the other
                    // workers must stop waiting so the panic can surface.
                    struct Done<'a>(&'a AtomicUsize);
                    impl Drop for Done<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    let r = {
                        let _done = Done(finished);
                        f(i, worker, state)
                    };
                    while finished.load(Ordering::SeqCst) < total {
                        worker
                            .poll(UDP_POLL_SLICE)
                            .expect("loopback sockets stay readable");
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

fn base_of(worker: usize) -> NodeAddr {
    (worker * PER_WORKER) as NodeAddr
}

struct Setup<N: BlockNode> {
    overlay: UdpOverlay<N>,
    streams: Vec<MixStream>,
    books: Vec<BlockBook>,
}

fn setup<N: BlockNode + Send>(seed: u64, wrap: impl Fn(KademliaNode) -> N) -> Setup<N> {
    let mut overlay = bind_udp(OVERLAY_SEED, WORKERS, PER_WORKER, wrap);
    bootstrap_udp(&mut overlay.workers, BOOTSTRAP_SETTLE);
    let streams: Vec<MixStream> = (0..WORKERS)
        .map(|w| {
            let mut inputs = SearchInputs::new(RESOURCES, POPULAR_TAGS, seed);
            inputs.reseed(seed ^ (w as u64 + 1) << 32);
            let base = base_of(w);
            MixStream::new(
                inputs,
                seed ^ (w as u64 + 1) << 40,
                RETAG_SHARE,
                (base..base + PER_WORKER as NodeAddr).collect(),
            )
        })
        .collect();
    let blocks = streams[0].blocks();

    // Bulk load: each worker appends every WORKERS-th chunk from its own
    // nodes, round-robin.
    let mut loads: Vec<Vec<Script>> = vec![Vec::new(); WORKERS];
    let mut n = 0usize;
    for b in &blocks {
        for chunk in chunk_entries(&b.entries, LOAD_CHUNK_BYTES) {
            let w = n % WORKERS;
            let home = base_of(w) + ((n / WORKERS) % PER_WORKER) as NodeAddr;
            loads[w].push(Script {
                home,
                kind: ScriptKind::Tag,
                stages: vec![vec![BlockOp::Append {
                    key: b.key,
                    entries: chunk,
                }]],
            });
            n += 1;
        }
    }
    let loaded = on_all_workers(&mut overlay.workers, loads, |w, worker, load| {
        let count = load.len() as u64;
        let mut it = load.into_iter();
        run_udp(
            worker,
            base_of(w),
            &mut || it.next().expect("the limit stops at the last chunk"),
            LOAD_CONCURRENCY,
            Limit::ops(count),
            &mut NoVerify,
            false,
        )
    });
    for run in &loaded {
        assert_eq!(run.failed, 0, "every bulk-load append must be acknowledged");
    }
    let books = (0..WORKERS).map(|_| BlockBook::new(&blocks)).collect();
    Setup {
        overlay,
        streams,
        books,
    }
}

fn counters_of<N: BlockNode>(overlay: &UdpOverlay<N>) -> Vec<NetCounters> {
    overlay.workers.iter().map(UdpWorker::counters).collect()
}

/// One measured phase: every worker runs its closed loop until the limit.
/// Returns each worker's statistics and trace buffer, and the phase cost.
fn measure<N: BlockNode + Send>(
    s: &mut Setup<N>,
    args: &RunArgs,
    share: f64,
    trace: bool,
) -> (Vec<(RunStats, Option<TraceBuf>)>, Cost) {
    let mut limit = args.limit(share);
    if limit.max_ops != u64::MAX {
        limit.max_ops = limit.max_ops.div_ceil(WORKERS as u64);
    }
    let states: Vec<(&mut MixStream, &mut BlockBook)> =
        s.streams.iter_mut().zip(s.books.iter_mut()).collect();
    let meter = Meter::start(counters_of(&s.overlay));
    let runs = on_all_workers(
        &mut s.overlay.workers,
        states,
        |w, worker, (stream, book)| {
            if trace {
                traced::start_thread_trace(false);
            }
            let run = run_udp(
                worker,
                base_of(w),
                &mut || stream.next_script(),
                CONCURRENCY,
                limit,
                book,
                trace,
            );
            (run, traced::take_thread_trace())
        },
    );
    (runs, meter.stop())
}

fn merged(runs: &[(RunStats, Option<TraceBuf>)]) -> (RunStats, f64) {
    let mut all = RunStats::default();
    let mut rate = 0.0;
    for (run, _) in runs {
        rate += ops_per_s(&run.window_ops_per_s, run.ops, run.host_s);
        all.merge(run.clone());
    }
    (all, rate)
}

fn loopback_note(run: &RunStats, rate: f64) -> String {
    format!(
        "# udp_search: traffic crossed the host's LOOPBACK interface only (127.0.0.1, {WORKERS} worker threads x {PER_WORKER} nodes; available_parallelism = {}); {} scripts at {:.0}/s calibrated ({:.0}/s raw), {} lookups, {} failed, {} stale reads; wall latency per search step p50 {:.0} us{} over {} steps (quantised by the 1 ms poll slice)",
        std::thread::available_parallelism().map_or(0, usize::from),
        run.ops,
        rate,
        run.ops as f64 / run.host_s.max(1e-9),
        run.lookups,
        run.failed,
        run.stale_reads,
        stats::median(&run.search_latency_us).unwrap_or(0.0),
        stats::highest_percentile(&run.search_latency_us)
            .map_or(String::new(), |p| format!(", p{} {:.0} us", p.rank, p.value)),
        run.search_latency_us.len()
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
    let (mut s, setup_time) = repeat_setup(args.setups, || setup(args.seed, |n| n));
    let (runs, cost) = measure(&mut s, args, 1.0, false);
    let (run, rate) = merged(&runs);
    let mut out = Outcome {
        correct: run.wrong == 0,
        attempted: run.ops,
        failed: run.failed,
        ..Outcome::default()
    };
    EndToEnd {
        // Host seconds: this set-up mostly waits (the joins' settle time,
        // poll slices), and waiting does not slow down with the processor.
        setup_s: setup_time.raw_s,
        ops_per_s: rate,
        ops: run.ops,
        lookups: run.lookups,
        cost,
        cal_over_raw_s: (run.cal_s, run.host_s),
        lat_p50_ms: stats::median(&run.search_latency_us).unwrap_or(0.0) / 1e3,
        peak_rss_mb: stats::peak_rss_mb().unwrap_or(0.0),
    }
    .write(&mut out.metrics);
    out.notes.push(loopback_note(&run, rate));
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let m = &mut out.metrics;

    time_dataset_and_model(RESOURCES, args.seed, m);

    // Untraced: the transport's own figures and the overhead baseline.
    let mut b = setup(args.seed, |n| n);
    let (runs_b, cost_b) = measure(&mut b, args, 0.5, false);
    let (run_b, rate_b) = merged(&runs_b);
    let delivered: u64 = counters_of(&b.overlay)
        .iter()
        .map(NetCounters::delivered)
        .sum();
    let recycled: u64 = b.overlay.workers.iter().map(|w| w.pool_stats().1).sum();
    drop(b);

    let mut c = setup(args.seed, Traced::new);
    let counters = counters_of(&c.overlay);
    let before = CounterSnap::read(&counters);
    traced::clear_rpc_tags();
    let (runs_c, _) = measure(&mut c, args, 0.5, true);
    let after = CounterSnap::read(&counters);
    let (run_c, rate_c) = merged(&runs_c);
    let mut trace = TraceBuf::empty();
    for (_, t) in runs_c {
        trace.merge(t.expect("traced workers return their buffer"));
    }
    let nodes: Vec<&KademliaNode> = c
        .overlay
        .workers
        .iter()
        .flat_map(|w| (0..w.len()).map(move |slot| w.node(slot).kad()))
        .collect();
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
            simulated: false,
        },
        m,
    );
    m.set(
        "net.udp.busy_share",
        if cost_b.wall_s > 0.0 {
            cost_b.cpu_s / (cost_b.wall_s * WORKERS as f64)
        } else {
            0.0
        },
    );
    m.set(
        "net.udp.pool_recycled_share",
        recycled as f64 / delivered.max(1) as f64,
    );
    m.set(
        "net.udp.wall_p50_us",
        stats::median(&run_b.search_latency_us).unwrap_or(0.0),
    );
    m.set(
        "net.udp.wall_p99_us",
        stats::percentile(&run_b.search_latency_us, 99.0).map_or(0.0, |p| p.value),
    );
    m.set(
        "bench.trace_overhead_share",
        if rate_c > 0.0 {
            rate_b / rate_c - 1.0
        } else {
            0.0
        },
    );

    out.failed = run_b.failed + run_c.failed;
    out.correct = run_b.wrong + run_c.wrong == 0;
    out.attempted = run_b.ops + run_c.ops;
    out.notes.push(loopback_note(&run_b, rate_b));
    out.notes.push(format!(
        "# udp_search traced: {:.0} scripts/s untraced over {} scripts, {:.0} scripts/s traced over {}",
        rate_b, run_b.ops, rate_c, run_c.ops
    ));
    out.notes.push(
        "# ledger (udp): 'step' is a poll slice, which sleeps in poll(2) when idle, so 'net.sim.step (self)' here is the transport's time including waiting".to_owned(),
    );
    out.notes.extend(ledger);
    if let Some(dir) = &args.out_dir {
        out.notes.push(write_spans(dir, "udp_search", &trace));
    }
    out
}
