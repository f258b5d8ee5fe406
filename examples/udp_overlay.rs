//! The same Kademlia protocol stack over **real UDP sockets** — proof that
//! the node state machines are not simulation-bound. One `UdpWorker` hosts
//! five nodes, each on its own loopback socket; they bootstrap off the
//! first, store a DHARMA-style block with appends from two different nodes,
//! and read it back filtered.
//!
//! ```sh
//! cargo run -p dharma-integration --release --example udp_overlay
//! ```
//!
//! `cargo test` runs it too (`test = true` on its `[[example]]`), so the
//! filtered GET and the merged weight below are checked on every test run.

use std::time::Duration;

use dharma_cache::CacheConfig;
use dharma_kademlia::{KadConfig, KadOutput, KademliaNode, LatencyConfig};
use dharma_net::udp::UdpWorker;
use dharma_net::Instrumented;
use dharma_types::{block_key, sha1, BlockType};

/// How long the worker runs the overlay after each step of the script.
const SETTLE: Duration = Duration::from_millis(400);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 5;
    let cfg = KadConfig {
        k: 4,
        alpha: 2,
        rpc_timeout_us: 300_000,
        reply_budget: 1_200,
        // Hot-block caching on, so the metrics dump below shows live
        // CacheStats over real sockets.
        cache: Some(CacheConfig::default()),
        // Latency awareness on: the RTT books fill from real loopback
        // round trips, and the dump below carries rtt_contacts /
        // rtt_p50_us / rtt_p95_us / lookup_alpha per node.
        latency: Some(LatencyConfig::default()),
        ..KadConfig::default()
    };

    // One worker, one slot per node: slot i hosts overlay address i, and
    // the worker's address book knows every hosted socket.
    let mut worker: UdpWorker<KademliaNode> = UdpWorker::new(1400, 0);
    for i in 0..N {
        let id = sha1(format!("udp-node-{i}").as_bytes());
        let node = KademliaNode::new(id, i as u32, cfg.clone());
        worker.add_node(node, i as u32, "127.0.0.1:0".parse()?)?;
    }
    let addrs = (0..N)
        .map(|slot| worker.local_addr(slot))
        .collect::<Result<Vec<_>, _>>()?;
    println!("bound {N} UDP nodes on one worker: {addrs:?}");

    // Bootstrap everyone off node 0.
    let node0 = worker.node(0).contact().clone();
    for slot in 1..N {
        let seed = node0.clone();
        worker.with_node(slot, move |n, ctx| {
            n.add_seed(seed);
            n.bootstrap(ctx);
        });
    }
    worker.poll(SETTLE)?;
    for slot in 0..N {
        let known = worker.node(slot).routing().len();
        println!("node {slot} knows {known} contacts");
    }

    // Two different nodes append to the same t̂ block — real-socket proof of
    // the commutative one-bit-token write.
    let key = block_key("rock", BlockType::TagNeighbors);
    worker.with_node(1, |n, ctx| {
        n.append(ctx, key, "metal", 1);
    });
    worker.with_node(3, |n, ctx| {
        n.append(ctx, key, "metal", 1);
        n.append(ctx, key, "grunge", 1);
    });
    worker.poll(SETTLE)?;

    // Read it back (filtered GET) from yet another node.
    worker.with_node(4, |n, ctx| {
        n.get_view(ctx, key, 10, false);
    });
    worker.poll(SETTLE)?;
    let view = worker
        .take_completions(4)
        .into_iter()
        .find_map(|(_, out)| match out {
            KadOutput::View { view: Some(v), .. } => Some(v),
            _ => None,
        })
        .expect("value should be found over UDP");
    println!("\nfetched t̂(rock) over UDP:");
    for (name, weight) in view.entries() {
        println!("  {name} → {weight}");
    }
    let metal = view.entries().find(|&(name, _)| name == "metal").unwrap();
    assert_eq!(metal.1, 2, "appends from two sockets merged");
    println!("appends from two different sockets merged correctly ✓");

    // Operator telemetry over real sockets: each node's gauges (cache
    // statistics, storage/routing occupancy, GET load), then the worker's
    // transport counters — what a deployment would scrape.
    println!("\nper-node metrics (Instrumented::metrics):");
    for slot in 0..N {
        let line: Vec<String> = worker
            .node(slot)
            .metrics()
            .into_iter()
            .map(|m| format!("{}={}", m.name, m.value))
            .collect();
        println!("  node {slot}: {}", line.join(" "));
    }
    let c = worker.counters();
    println!(
        "worker counters: sent={} delivered={} dropped={} bytes_sent={} timers_fired={} \
         unknown_sender={} oversize_rejected={}",
        c.sent(),
        c.delivered(),
        c.dropped(),
        c.bytes_sent(),
        c.timers_fired(),
        c.unknown_sender(),
        c.oversize_rejected()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn kademlia_get_over_udp_sockets_returns_the_merged_block() {
        super::main().expect("the example runs to completion");
    }
}
