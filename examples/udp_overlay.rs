//! The same Kademlia protocol stack over **real UDP sockets** — proof that
//! the node state machines are not simulation-bound. Five nodes bind
//! loopback sockets, bootstrap off the first, store a DHARMA-style block
//! with appends from two different nodes, and read it back filtered.
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
use dharma_net::udp::UdpRuntime;
use dharma_types::{block_key, sha1, BlockType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 5;
    let cfg = KadConfig {
        k: 4,
        alpha: 2,
        rpc_timeout_us: 300_000,
        reply_budget: 1_200,
        // Hot-block caching on, so the metrics dump below shows live
        // CacheStats through the UDP runtime.
        cache: Some(CacheConfig::default()),
        // Latency awareness on: the RTT books fill from real loopback
        // round trips, and the dump below carries rtt_contacts /
        // rtt_p50_us / rtt_p95_us / lookup_alpha per node.
        latency: Some(LatencyConfig::default()),
        ..KadConfig::default()
    };

    // Bind N runtimes on loopback and build the shared address book.
    let mut runtimes: Vec<UdpRuntime<KademliaNode>> = Vec::new();
    for i in 0..N {
        let id = sha1(format!("udp-node-{i}").as_bytes());
        let node = KademliaNode::new(id, i as u32, cfg.clone());
        runtimes.push(UdpRuntime::bind(
            node,
            i as u32,
            "127.0.0.1:0",
            1400,
            i as u64,
        )?);
    }
    let addrs: Vec<_> = runtimes.iter().map(|rt| rt.local_addr().unwrap()).collect();
    for (i, rt) in runtimes.iter_mut().enumerate() {
        for (j, &sock) in addrs.iter().enumerate() {
            if i != j {
                rt.register_peer(j as u32, sock);
            }
        }
    }
    println!("bound {N} UDP nodes: {addrs:?}");

    // Bootstrap everyone off node 0.
    let node0 = runtimes[0].node().contact().clone();
    for rt in runtimes.iter_mut().skip(1) {
        let seed = node0.clone();
        rt.with_node(move |n, ctx| {
            n.add_seed(seed);
            n.bootstrap(ctx);
        });
    }
    pump(&mut runtimes, 40);
    for (i, rt) in runtimes.iter().enumerate() {
        println!("node {i} knows {} contacts", rt.node().routing().len());
    }

    // Two different nodes append to the same t̂ block — real-socket proof of
    // the commutative one-bit-token write.
    let key = block_key("rock", BlockType::TagNeighbors);
    runtimes[1].with_node(|n, ctx| {
        n.append(ctx, key, "metal", 1);
    });
    runtimes[3].with_node(|n, ctx| {
        n.append(ctx, key, "metal", 1);
    });
    runtimes[3].with_node(|n, ctx| {
        n.append(ctx, key, "grunge", 1);
    });
    pump(&mut runtimes, 40);

    // Read it back (filtered GET) from yet another node.
    runtimes[4].with_node(|n, ctx| {
        n.get(ctx, key, 10);
    });
    pump(&mut runtimes, 40);
    let completions = runtimes[4].take_completions();
    let value = completions
        .iter()
        .find_map(|(_, out)| match out {
            KadOutput::Value { value: Some(v), .. } => Some(v.clone()),
            _ => None,
        })
        .expect("value should be found over UDP");
    println!("\nfetched t̂(rock) over UDP:");
    for e in &value.entries {
        println!("  {} → {}", e.name, e.weight);
    }
    let metal = value.entries.iter().find(|e| e.name == "metal").unwrap();
    assert_eq!(metal.weight, 2, "appends from two sockets merged");
    println!("appends from two different sockets merged correctly ✓");

    // Operator telemetry over real sockets: every runtime exposes its
    // node's gauges (cache statistics, storage/routing occupancy, GET
    // load) plus transport counters — what a deployment would scrape.
    println!("\nper-node metrics (UdpRuntime::metrics):");
    for (i, rt) in runtimes.iter().enumerate() {
        let line: Vec<String> = rt
            .metrics()
            .into_iter()
            .map(|m| format!("{}={}", m.name, m.value))
            .collect();
        println!("  node {i}: {}", line.join(" "));
    }
    Ok(())
}

/// Round-robin polls every runtime for a few cycles.
fn pump(runtimes: &mut [UdpRuntime<KademliaNode>], cycles: usize) {
    for _ in 0..cycles {
        for rt in runtimes.iter_mut() {
            let _ = rt.poll(Duration::from_millis(3));
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn kademlia_get_over_udp_sockets_returns_the_merged_block() {
        super::main().expect("the example runs to completion");
    }
}
