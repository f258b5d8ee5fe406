//! Multi-process DHARMA overlay over real loopback UDP.
//!
//! Where `udp_overlay` runs five nodes in one process, this example runs
//! the full swarm machinery: the parent starts a TCP rendezvous, spawns
//! M child **processes** (re-invoking itself), and each child hosts K
//! Kademlia nodes inside a shared-nothing
//! [`UdpWorker`](dharma_net::udp::UdpWorker) — every node on its own
//! `SO_REUSEPORT`-capable socket, receives drained with `recvmmsg`,
//! sends flushed with `sendmmsg`, timers worker-local. The children
//! bootstrap off node 0, seed a keyspace, run a Zipf GET workload, and
//! report wall-clock lookup latencies back over the rendezvous.
//!
//! ```sh
//! cargo run -p dharma-integration --release --example udp_swarm
//! # larger: 4 processes x 8 nodes, 2000 GETs/process
//! cargo run -p dharma-integration --release --example udp_swarm -- --full
//! ```

use dharma_net::sys::SyscallMode;
use dharma_sim::{maybe_run_swarm_child, run_swarm_multiprocess, UdpBenchConfig};

fn main() {
    // Children re-enter main() here and never return.
    maybe_run_swarm_child();

    let full = std::env::args().any(|a| a == "--full");
    let cfg = if full {
        UdpBenchConfig::full(42)
    } else {
        UdpBenchConfig::smoke(42)
    };
    println!(
        "spawning {} processes x {} nodes ({} overlay nodes, {} keys, {} GETs/process, Zipf s={})",
        cfg.procs,
        cfg.nodes_per_proc,
        cfg.total_nodes(),
        cfg.keys,
        cfg.gets_per_proc,
        cfg.zipf_s
    );
    let report = match run_swarm_multiprocess(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("swarm failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "swarm done: {}/{} lookups returned a value ({:.1}% success)",
        report.successes,
        report.lookups,
        report.lookup_success * 100.0
    );
    println!(
        "wall-clock GET latency: p50 {:.2} ms, p99 {:.2} ms (mean of per-process percentiles)",
        report.p50_wall_us / 1000.0,
        report.p99_wall_us / 1000.0
    );
    println!(
        "seeding acks {}, transport mode {}",
        report.write_acks,
        match cfg.mode {
            SyscallMode::Batched => "batched (sendmmsg/recvmmsg)",
            SyscallMode::PerPacket => "per-packet",
        }
    );
    if report.lookup_success < 0.99 {
        eprintln!("lookup success below 99% — something is wrong on lossless loopback");
        std::process::exit(1);
    }
}
