//! The four workloads, and what they share: run arguments, cost metering,
//! set-up repetition, block verification and the per-layer metrics every
//! traced simulator run derives the same way.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::calib::{calibrated_setup, Calibrator};

use dharma_folksonomy::{Fg, ResId, TagId, Trg};
use dharma_kademlia::KademliaNode;
use dharma_net::{NetCounters, SimNet};
use dharma_types::{block_key, BlockType, FxHashMap, Id160};

use crate::inputs::{res_name, tag_name};
use crate::ledger::{build_ledger, PhaseTotals, Probes};
use crate::report::{Metrics, Outcome};
use crate::script::{Limit, RunStats};
use crate::stats;
use crate::traced::{self, BlockNode, TraceBuf, MESSAGE_TYPES};

pub mod mixed_full;
pub mod search_plain;
pub mod tag_plain;
pub mod udp_search;

/// Arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Host seconds the measured phase lasts.
    pub seconds: f64,
    /// Stop after this many logical operations instead (fixed work: the
    /// A/A gate and the tests, where counts must repeat exactly).
    pub max_ops: Option<u64>,
    /// Traced run (per-layer metrics) or gated run (end-to-end metrics).
    pub trace: bool,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Where a traced run writes its span file (`None` = do not write).
    pub out_dir: Option<PathBuf>,
}

impl RunArgs {
    /// The limit of a phase that gets `share` of the run's time and of its
    /// operation budget.
    pub fn limit(&self, share: f64) -> Limit {
        let ops = self
            .max_ops
            .map_or(u64::MAX, |n| ((n as f64 * share).ceil() as u64).max(1));
        Limit::seconds(self.seconds * share, ops)
    }
}

/// Runs `workload` and returns its outcome.
pub fn run(workload: &str, args: &RunArgs) -> Result<Outcome, String> {
    match workload {
        "tag_plain" => Ok(tag_plain::run(args)),
        "search_plain" => Ok(search_plain::run(args)),
        "mixed_full" => Ok(mixed_full::run(args)),
        "udp_search" => Ok(udp_search::run(args)),
        other => Err(format!(
            "unknown workload '{other}' (see `dharma-bench list`)"
        )),
    }
}

/// The median set-up time of a run.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    /// In calibrated seconds (see [`crate::calib`]): for set-ups that
    /// compute.
    pub cal_s: f64,
    /// In host seconds: for set-ups that mostly wait (loopback sockets).
    pub raw_s: f64,
}

/// Runs `setup` `times` times and returns the last result with the median
/// set-up time. Earlier results are dropped before the next set-up starts,
/// so peak memory is that of one.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, SetupTime) {
    let mut cal = Calibrator::new();
    let (mut cal_secs, mut raw_secs) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let (made, cal_s, raw_s) = calibrated_setup(&mut cal, &mut setup);
        last = Some(made);
        cal_secs.push(cal_s);
        raw_secs.push(raw_s);
    }
    (
        last.expect("set-up ran at least once"),
        SetupTime {
            cal_s: stats::median(&cal_secs).expect("at least one timing"),
            raw_s: stats::median(&raw_secs).expect("at least one timing"),
        },
    )
}

/// Snapshot of the process and network costs at the start of a phase.
pub struct Meter {
    t0: Instant,
    cpu0: Option<Duration>,
    counters: Vec<NetCounters>,
    sent0: u64,
    bytes0: u64,
}

/// What a phase cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Host seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system).
    pub cpu_s: f64,
    /// Datagrams sent, background traffic included.
    pub msgs: u64,
    /// Bytes sent.
    pub bytes: u64,
}

impl Meter {
    /// Starts metering the given counter sets (one per simulator, one per
    /// loopback worker).
    pub fn start(counters: Vec<NetCounters>) -> Self {
        Meter {
            t0: Instant::now(),
            cpu0: stats::process_cpu_time(),
            sent0: counters.iter().map(NetCounters::sent).sum(),
            bytes0: counters.iter().map(NetCounters::bytes_sent).sum(),
            counters,
        }
    }

    /// The cost since [`Meter::start`].
    pub fn stop(&self) -> Cost {
        let cpu_s = match (self.cpu0, stats::process_cpu_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64(),
            _ => 0.0,
        };
        Cost {
            wall_s: self.t0.elapsed().as_secs_f64(),
            cpu_s,
            msgs: self.counters.iter().map(NetCounters::sent).sum::<u64>() - self.sent0,
            bytes: self
                .counters
                .iter()
                .map(NetCounters::bytes_sent)
                .sum::<u64>()
                - self.bytes0,
        }
    }
}

/// The end-to-end figures of one gated run.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Logical operations per calibrated second (median over
    /// batches/windows).
    pub ops_per_s: f64,
    /// Logical operations completed.
    pub ops: u64,
    /// Overlay lookups.
    pub lookups: u64,
    /// The measured phase's cost.
    pub cost: Cost,
    /// Calibrated and raw seconds of the measured phase: their ratio is
    /// what the phase's CPU time is scaled by.
    pub cal_over_raw_s: (f64, f64),
    /// Median latency of a logical operation in the workload's own clock,
    /// ms.
    pub lat_p50_ms: f64,
    /// Peak resident set size, MiB: read at the end of the run, except
    /// where the overlay grows with the operations run (`tag_plain`).
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Writes the end-to-end metrics.
    pub fn write(&self, m: &mut Metrics) {
        let per_op = |x: f64| {
            if self.ops == 0 {
                0.0
            } else {
                x / self.ops as f64
            }
        };
        let (cal_s, raw_s) = self.cal_over_raw_s;
        let cal_ratio = if raw_s > 0.0 { cal_s / raw_s } else { 1.0 };
        m.set("setup_s", self.setup_s);
        m.set("ops_per_s", self.ops_per_s);
        m.set("cpu_us_per_op", per_op(self.cost.cpu_s * cal_ratio * 1e6));
        m.set("lookups_per_op", per_op(self.lookups as f64));
        m.set("msgs_per_op", per_op(self.cost.msgs as f64));
        m.set("bytes_per_op", per_op(self.cost.bytes as f64));
        m.set("lat_p50_ms", self.lat_p50_ms);
        m.set("peak_rss_mb", self.peak_rss_mb);
    }
}

/// The protocol nodes of a simulated overlay.
pub fn kad_nodes<N: BlockNode>(net: &SimNet<N>) -> Vec<&KademliaNode> {
    (0..net.len() as u32).map(|a| net.node(a).kad()).collect()
}

/// The busiest node's served `FIND_VALUE` requests over the mean (the
/// paper's hot-spot figure; 0 when nothing was served).
pub fn max_load_ratio(nodes: &[&KademliaNode]) -> f64 {
    let served: Vec<u64> = nodes.iter().map(|n| n.gets_served()).collect();
    let total: u64 = served.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = served.iter().copied().max().unwrap_or(0);
    max as f64 * served.len() as f64 / total as f64
}

/// Which nodes hold each key.
fn holders(nodes: &[&KademliaNode]) -> FxHashMap<Id160, Vec<usize>> {
    let mut index: FxHashMap<Id160, Vec<usize>> = FxHashMap::default();
    for (i, n) in nodes.iter().enumerate() {
        for key in n.storage().keys() {
            index.entry(*key).or_default().push(i);
        }
    }
    index
}

/// A block's entries as every holder stores them, sorted by name; `None`
/// when nobody holds it or two holders disagree.
fn stored_block(
    nodes: &[&KademliaNode],
    index: &FxHashMap<Id160, Vec<usize>>,
    key: &Id160,
) -> Option<Vec<(String, u64)>> {
    let mut agreed: Option<Vec<(String, u64)>> = None;
    for &i in index.get(key)? {
        let (_, entries, _) = nodes[i].storage().snapshot(key)?;
        let mut got: Vec<(String, u64)> = entries.into_iter().map(|e| (e.name, e.weight)).collect();
        got.sort_unstable();
        match &agreed {
            None => agreed = Some(got),
            Some(prev) if *prev == got => {}
            Some(_) => return None,
        }
    }
    agreed
}

/// Checks every `r̄` and `t̄` block on the overlay against `trg`: each
/// must be held, every holder must agree, and the entries must equal the
/// graph's edges exactly. Returns `(blocks checked, blocks wrong)`.
pub fn verify_trg_blocks(nodes: &[&KademliaNode], trg: &Trg) -> (u64, u64) {
    let index = holders(nodes);
    let (mut checked, mut wrong) = (0u64, 0u64);
    let mut check = |key: Id160, mut want: Vec<(String, u64)>| {
        want.sort_unstable();
        checked += 1;
        if stored_block(nodes, &index, &key).as_ref() != Some(&want) {
            wrong += 1;
        }
    };
    for r in (0..trg.num_resources() as u32).map(ResId) {
        if trg.tag_degree(r) > 0 {
            check(
                block_key(&res_name(r), BlockType::ResourceTags),
                trg.tags_of(r)
                    .map(|(t, u)| (tag_name(t), u64::from(u)))
                    .collect(),
            );
        }
    }
    for t in (0..trg.num_tags() as u32).map(TagId) {
        if trg.res_degree(t) > 0 {
            check(
                block_key(&tag_name(t), BlockType::TagResources),
                trg.res_of(t)
                    .map(|(r, u)| (res_name(r), u64::from(u)))
                    .collect(),
            );
        }
    }
    (checked, wrong)
}

/// The folksonomy graph as the overlay's `t̂` blocks hold it.
pub fn stored_fg(nodes: &[&KademliaNode], num_tags: usize) -> Fg {
    let index = holders(nodes);
    let ids: FxHashMap<String, TagId> = (0..num_tags as u32)
        .map(|t| (tag_name(TagId(t)), TagId(t)))
        .collect();
    let mut fg = Fg::with_capacity(num_tags);
    for t in (0..num_tags as u32).map(TagId) {
        let key = block_key(&tag_name(t), BlockType::TagNeighbors);
        let Some(&first) = index.get(&key).and_then(|h| h.first()) else {
            continue;
        };
        if let Some((_, entries, _)) = nodes[first].storage().snapshot(&key) {
            for e in entries {
                if let Some(&t2) = ids.get(&e.name) {
                    if e.weight > 0 {
                        fg.add_sim(t, t2, e.weight);
                    }
                }
            }
        }
    }
    fg
}

/// Median operations per second of a run, from its windows (or the whole
/// run when it was shorter than one window).
pub fn ops_per_s(windows: &[f64], ops: u64, host_s: f64) -> f64 {
    match stats::median(windows) {
        Some(rate) => rate,
        None if host_s > 0.0 => ops as f64 / host_s,
        None => 0.0,
    }
}

/// The same as microseconds per operation.
pub fn us_per_op(windows: &[f64], ops: u64, host_s: f64) -> f64 {
    let rate = ops_per_s(windows, ops, host_s);
    if rate > 0.0 {
        1e6 / rate
    } else {
        0.0
    }
}

/// Times the generation of a `resources`-resource dataset and the
/// derivation of its exact folksonomy graph (`dataset.generate_ms`,
/// `folksonomy.model_ms`).
pub fn time_dataset_and_model(resources: usize, seed: u64, m: &mut Metrics) {
    let t0 = Instant::now();
    let dataset = crate::inputs::generate_dataset(resources, seed);
    m.set("dataset.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    let fg = Fg::derive_exact(&dataset.trg);
    m.set("folksonomy.model_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop((dataset, fg));
}

/// Counter readings the per-layer metrics are differences of.
#[derive(Clone, Copy, Debug, Default)]
pub struct CounterSnap {
    sent: u64,
    delivered: u64,
    dropped: u64,
    timers: u64,
    cache_hits: u64,
    cache_misses: u64,
    maintenance: u64,
    revalidations: u64,
    stale_drops: u64,
    invalidate_pushes: u64,
    replicas_promoted: u64,
    rtt_samples: u64,
    alpha_widened: u64,
    oversize: u64,
    unknown_sender: u64,
}

impl CounterSnap {
    /// Reads (and sums) the counter sets.
    pub fn read(counters: &[NetCounters]) -> Self {
        let sum = |f: fn(&NetCounters) -> u64| counters.iter().map(f).sum::<u64>();
        CounterSnap {
            sent: sum(NetCounters::sent),
            delivered: sum(NetCounters::delivered),
            dropped: sum(NetCounters::dropped),
            timers: sum(NetCounters::timers_fired),
            cache_hits: sum(NetCounters::cache_hits),
            cache_misses: sum(NetCounters::cache_misses),
            maintenance: sum(NetCounters::maintenance_messages),
            revalidations: sum(NetCounters::revalidations),
            stale_drops: sum(NetCounters::stale_drops),
            invalidate_pushes: sum(NetCounters::invalidate_pushes),
            replicas_promoted: sum(NetCounters::replicas_promoted),
            rtt_samples: sum(NetCounters::rtt_samples),
            alpha_widened: sum(NetCounters::alpha_widened),
            oversize: sum(NetCounters::oversize_rejected),
            unknown_sender: sum(NetCounters::unknown_sender),
        }
    }

    fn since(&self, earlier: &CounterSnap) -> CounterSnap {
        CounterSnap {
            sent: self.sent - earlier.sent,
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            timers: self.timers - earlier.timers,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            maintenance: self.maintenance - earlier.maintenance,
            revalidations: self.revalidations - earlier.revalidations,
            stale_drops: self.stale_drops - earlier.stale_drops,
            invalidate_pushes: self.invalidate_pushes - earlier.invalidate_pushes,
            replicas_promoted: self.replicas_promoted - earlier.replicas_promoted,
            rtt_samples: self.rtt_samples - earlier.rtt_samples,
            alpha_widened: self.alpha_widened - earlier.alpha_widened,
            oversize: self.oversize - earlier.oversize,
            unknown_sender: self.unknown_sender - earlier.unknown_sender,
        }
    }
}

/// Everything a traced scripted phase produced, ready to be turned into
/// per-layer metrics.
pub struct TracedPhase<'a> {
    /// The executor's statistics.
    pub stats: &'a RunStats,
    /// The trace buffer (all threads merged).
    pub trace: &'a TraceBuf,
    /// Counters before the phase.
    pub before: CounterSnap,
    /// Counters after the phase.
    pub after: CounterSnap,
    /// The finished overlay's nodes.
    pub nodes: &'a [&'a KademliaNode],
    /// The probes run on that overlay.
    pub probes: &'a Probes,
    /// Appends and puts the phase's scripts issued.
    pub writes: u64,
    /// Whether the phase ran on the simulator (`net.sim.*` apply).
    pub simulated: bool,
}

/// Writes the per-layer metrics every traced scripted phase derives the
/// same way — message mix, handler times, counters, node state, the
/// ledger — and returns the ledger's lines for the report.
pub fn write_traced_metrics(phase: &TracedPhase<'_>, m: &mut Metrics) -> Vec<String> {
    let TracedPhase {
        stats: run,
        trace: t,
        nodes,
        probes,
        ..
    } = phase;
    let d = phase.after.since(&phase.before);
    let ops = run.ops.max(1) as f64;
    let kops = ops / 1e3;

    probes.write_metrics(m);
    for (ty, name) in MESSAGE_TYPES {
        let slot = usize::from(ty);
        let calls = t.handled[slot];
        let ns = if calls == 0 {
            0.0
        } else {
            t.handled_ns[slot] as f64 / calls as f64
        };
        m.set(&format!("kad.node.on_message_ns.{name}"), ns);
        m.set(&format!("kad.node.msgs_per_op.{name}"), calls as f64 / ops);
    }
    m.set(
        "kad.node.on_timer_ns",
        if t.timers == 0 {
            0.0
        } else {
            t.timer_ns as f64 / t.timers as f64
        },
    );
    m.set("kad.node.timers_per_op", t.timers as f64 / ops);
    m.set("kad.node.maint_msgs_per_op", d.maintenance as f64 / ops);
    m.set(
        "kad.lookup.msgs_per_lookup",
        d.sent.saturating_sub(d.maintenance) as f64 / run.lookups.max(1) as f64,
    );
    m.set(
        "kad.rtt.alpha_widened_per_kop",
        d.alpha_widened as f64 / kops,
    );
    m.set("kad.rtt.samples_per_op", d.rtt_samples as f64 / ops);

    let n = nodes.len().max(1) as f64;
    m.set(
        "kad.storage.heap_bytes_per_node",
        nodes
            .iter()
            .map(|k| k.storage().heap_bytes())
            .sum::<usize>() as f64
            / n,
    );
    m.set(
        "kad.storage.keys_per_node_max",
        nodes.iter().map(|k| k.storage().len()).max().unwrap_or(0) as f64,
    );
    m.set(
        "kad.routing.contacts_per_node",
        nodes.iter().map(|k| k.routing().len()).sum::<usize>() as f64 / n,
    );

    // A valueless GET records a cache miss even where no cache exists;
    // only overlays that run one have cache lookups to account for.
    let cached = nodes.iter().any(|k| k.cache_stats().is_some());
    let cache_gets = if cached {
        d.cache_hits + d.cache_misses
    } else {
        0
    };
    m.set(
        "cache.hit_ratio",
        if cache_gets == 0 {
            0.0
        } else {
            d.cache_hits as f64 / cache_gets as f64
        },
    );
    m.set(
        "cache.fresh.stale_drops_per_kop",
        d.stale_drops as f64 / kops,
    );
    m.set(
        "cache.fresh.revalidations_per_kop",
        d.revalidations as f64 / kops,
    );
    m.set(
        "cache.fetchers.pushes_per_write",
        d.invalidate_pushes as f64 / phase.writes.max(1) as f64,
    );
    m.set(
        "cache.popularity.replicas_promoted",
        d.replicas_promoted as f64,
    );

    // A script served a stale view counts as failed here (as a client's
    // `StaleRead` would), though not in the result line's `failed`.
    m.set(
        "e2e.fail_share",
        (run.failed + run.stale_ops) as f64 / run.ops.max(1) as f64,
    );
    m.set(
        "e2e.stale_read_share",
        run.stale_reads as f64 / run.gets.max(1) as f64,
    );
    m.set("e2e.max_load_ratio", max_load_ratio(nodes));
    m.set(
        "e2e.issue_lag_p99_us",
        stats::highest_percentile(&run.issue_lag_us).map_or(0.0, |p| p.value),
    );

    let handler_ns: u64 = t.handled_ns.iter().sum::<u64>() + t.timer_ns;
    if phase.simulated {
        let steps = run.steps.max(1) as f64;
        m.set(
            "net.sim.step_self_ns",
            run.step_ns.saturating_sub(handler_ns + t.wrapper_ns) as f64 / steps,
        );
        m.set("net.sim.events_per_op", run.steps as f64 / ops);
        m.set(
            "net.sim.events_per_s",
            if run.host_s > 0.0 {
                run.steps as f64 / run.host_s
            } else {
                0.0
            },
        );
        m.set("net.sim.timer_share", d.timers as f64 / steps);
        m.set(
            "net.sim.dropped_share",
            d.dropped as f64 / d.sent.max(1) as f64,
        );
    }
    m.set("net.udp.unknown_sender", d.unknown_sender as f64);
    m.set("net.udp.oversize_rejected", d.oversize as f64);

    let inserts: u64 = nodes
        .iter()
        .filter_map(|k| k.cache_stats())
        .map(|s| s.insertions)
        .sum();
    let ledger = build_ledger(
        t,
        PhaseTotals {
            phase_ns: (run.thread_s * 1e9) as u64,
            step_ns: run.step_ns,
            steps: run.steps,
            lookups: run.lookups,
            cache_gets,
            cache_inserts: inserts,
        },
        probes,
    );
    m.set("ledger.unattributed_share", ledger.unattributed_share());
    ledger.lines()
}

/// Writes a traced run's spans as JSON lines under `dir`, at most
/// [`MAX_SPANS_WRITTEN`] of them. One file per workload, overwritten by the
/// next traced run, so repeated runs do not fill the disk. Returns a note
/// for the report.
pub fn write_spans(dir: &std::path::Path, workload: &str, trace: &TraceBuf) -> String {
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let n = trace.spans.len().min(MAX_SPANS_WRITTEN);
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            traced::write_jsonl(&trace.spans[..n], &mut w)?;
            std::io::Write::flush(&mut w)
        });
    match result {
        Ok(()) => format!(
            "# trace: wrote {n} of {} spans to {}",
            trace.spans.len(),
            path.display()
        ),
        Err(e) => format!("# trace: could not write {}: {e}", path.display()),
    }
}

/// Spans written to the span file (the buffer keeps them all).
pub const MAX_SPANS_WRITTEN: usize = 200_000;
