//! Overlay construction and every configuration value the benchmark runs
//! under, written out as literals.
//!
//! The benchmark owns these values on purpose: a later change to a
//! `Default` impl or an `ablation_*()` preset in the program must not
//! silently change what is measured. Each constant below was copied from
//! the commit that defined the benchmark (the A5/A7/A8/A9 ablation values
//! for the "every layer on" overlay, the paper's §V parameters for the
//! plain one).

use std::net::SocketAddr;

use dharma_cache::{CacheConfig, FreshConfig, PopularityConfig};
use dharma_kademlia::{
    AdaptConfig, Contact, KadConfig, KademliaNode, LatencyConfig, MaintConfig, StoredEntry,
};
use dharma_net::udp::UdpWorker;
use dharma_net::{NetCounters, Node, NodeAddr, SimConfig, SimNet, TopologyConfig};
use dharma_types::{sha1, Id160};

use crate::traced::BlockNode;

/// Per-RPC timeout every benchmark overlay uses, µs.
pub const RPC_TIMEOUT_US: u64 = 300_000;

/// The paper's plain overlay (§V): k = 20, α = 3, a 64 KiB datagram
/// budget, uniform 1–10 ms one-way delay, no loss, every optional layer
/// off.
pub fn plain_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        latency_min_us: 1_000,
        latency_max_us: 10_000,
        drop_rate: 0.0,
        mtu: 64 * 1024,
        seed,
        shards: 1,
        topology: None,
    }
}

/// Node configuration of the plain overlay.
pub fn plain_kad_config(counters: NetCounters) -> KadConfig {
    KadConfig {
        k: 20,
        alpha: 3,
        rpc_timeout_us: RPC_TIMEOUT_US,
        reply_budget: 64 * 1024 - 200,
        republish_interval_us: None,
        record_ttl_us: None,
        cache: None,
        replication: None,
        ping_before_evict: true,
        maintenance: None,
        freshness: None,
        latency: None,
        counters,
    }
}

/// The four-cluster topology of the A9 ablation: 1–15 ms inside a
/// cluster, 15–140 ms across, ±2 ms jitter, 1 % base loss and one cluster
/// losing 25 % on every link it touches.
pub fn full_topology() -> TopologyConfig {
    TopologyConfig {
        clusters: 4,
        intra_us: (1_000, 15_000),
        inter_us: (15_000, 140_000),
        jitter_us: 2_000,
        base_loss: 0.01,
        lossy_cluster: Some(3),
        lossy_loss: 0.25,
    }
}

/// Simulator configuration of the "every layer on" overlay.
pub fn full_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        latency_min_us: 1_000,
        latency_max_us: 10_000, // unused under a topology
        drop_rate: 0.0,         // unused under a topology
        mtu: 64 * 1024,
        seed,
        shards: 1,
        topology: Some(full_topology()),
    }
}

/// Latency awareness as A9 ran it: α adapts in 3..=8, proximity neighbour
/// selection, RTT-biased shortlists and RTT-adaptive timeouts all on.
fn latency_config() -> LatencyConfig {
    LatencyConfig::builder()
        .alpha_min(3)
        .alpha_max(8)
        .rtt_half_life_us(30_000_000)
        .pns(true)
        .bias_shortlist(true)
        .adaptive_alpha(true)
        .adaptive_timeout(true)
        .rto_beta(3.0)
        .rto_min_us(10_000)
        .build()
        .expect("benchmark latency values are in range")
}

/// Node configuration with every optional layer on: the A5 cache (256
/// slots, 5 s TTL), default adaptive replication, the A7 adaptive
/// maintenance cadence, the A8 gossip + warm routing + push-on-write
/// freshness settings, and the A9 latency awareness.
pub fn full_kad_config(counters: NetCounters) -> KadConfig {
    let fresh = FreshConfig::builder()
        .digest_max(8)
        .news_window_us(10_000_000)
        .hit_half_life_us(30_000_000)
        .warm_threshold(0.5)
        .max_tracked_keys(1024)
        .max_peers_per_key(4)
        .max_versions(4096)
        .max_view_lifetime_us(60_000_000)
        .revalidate_on_stale(true)
        .refresh_age_us(1_750_000)
        .max_serve_age_us(3_500_000)
        .cache_aware_routing(true)
        .push_on_write(true)
        .push_fanout(5)
        .push_window_us(3_500_000)
        .build()
        .expect("benchmark freshness values are in range");

    let maintenance = MaintConfig::builder()
        .probe_interval_us(2_000_000)
        .repair_interval_us(15_000_000)
        .join_handoff(true)
        .demote_interval_us(None)
        .adaptive(Some(AdaptConfig {
            probe_min_us: 2_000_000,
            probe_max_us: 6_000_000,
            repair_min_us: 15_000_000,
            repair_max_us: 60_000_000,
            half_life_us: 20_000_000,
            hot_weight: 5.0,
            leave_weight: 0.1,
            repair_budget: 16,
        }))
        .build()
        .expect("benchmark maintenance values are in range");

    KadConfig {
        k: 8,
        alpha: 3,
        rpc_timeout_us: RPC_TIMEOUT_US,
        reply_budget: 64 * 1024 - 200,
        republish_interval_us: None,
        record_ttl_us: None,
        cache: Some(CacheConfig {
            capacity: 256,
            ttl_us: 5_000_000,
        }),
        replication: Some(PopularityConfig {
            half_life_us: 10_000_000,
            hot_threshold: 8.0,
            max_extra_replicas: 8,
            max_tracked: 4096,
            promote_cooldown_us: 5_000_000,
        }),
        ping_before_evict: true,
        maintenance: Some(maintenance),
        freshness: Some(fresh),
        latency: Some(latency_config()),
        counters,
    }
}

/// Datagram budget of the loopback overlay (an Ethernet-sized MTU).
pub const UDP_MTU: usize = 1400;

/// Node configuration of the loopback overlay: small k and α so 16 nodes
/// form a meaningful overlay, a 1,200-byte reply budget under the 1,400
/// byte MTU, cache off, latency awareness on.
pub fn udp_kad_config(counters: NetCounters) -> KadConfig {
    KadConfig {
        k: 4,
        alpha: 2,
        rpc_timeout_us: RPC_TIMEOUT_US,
        reply_budget: 1_200,
        republish_interval_us: None,
        record_ttl_us: None,
        cache: None,
        replication: None,
        ping_before_evict: true,
        maintenance: None,
        freshness: None,
        latency: Some(latency_config()),
        counters,
    }
}

/// Seed of the overlay every workload runs on: node ids, cluster
/// assignment, link delays and the simulator's own draws. The overlay is a
/// fixture, like the corpus ([`crate::inputs::CORPUS_SEED`]); `--seed`
/// decides the operations run on it. An overlay per seed was tried first:
/// where the few hub keys land among 128–256 ids, and which nodes sit in
/// the lossy cluster, moved datagrams per operation by 5 % (`search_plain`)
/// to 14 % (`mixed_full`) from seed to seed, and the timed metrics with
/// them — wider than any bound worth gating on.
pub const OVERLAY_SEED: u64 = 2010;

/// The overlay id of node `addr`: a hash of the seed and the address, so
/// a seed fixes the whole id space and two seeds give different overlays.
pub fn node_id(seed: u64, addr: NodeAddr) -> Id160 {
    sha1(format!("dharma-bench-node-{seed}-{addr}").as_bytes())
}

/// Builds a simulated overlay of `nodes` nodes and bootstraps it: node 0
/// is the rendezvous, every other node seeds it and runs the join lookup.
/// `wrap` turns each protocol node into the hosted node type (identity, or
/// the tracing wrapper). A maintained overlay re-arms timers forever, so
/// it settles for a bounded two virtual seconds; a static one drains.
pub fn build_sim<N: BlockNode>(
    sim: SimConfig,
    nodes: usize,
    kad: impl Fn(NetCounters) -> KadConfig,
    wrap: impl Fn(KademliaNode) -> N,
) -> SimNet<N> {
    let seed = sim.seed;
    let mut net = SimNet::new(sim);
    let cfg = kad(net.counters());
    let maintained = cfg.maintenance.is_some();
    let rendezvous = Contact {
        id: node_id(seed, 0),
        addr: 0,
    };
    for i in 0..nodes {
        let addr = i as NodeAddr;
        let mut node = KademliaNode::new(node_id(seed, addr), addr, cfg.clone());
        if i > 0 {
            node.add_seed(rendezvous.clone());
        }
        let got = net.add_node(wrap(node));
        debug_assert_eq!(got, addr);
        if i > 0 {
            net.with_node(addr, |n, ctx| n.issue(ctx, 0, &mut |k, c| k.bootstrap(c)));
        }
    }
    if maintained {
        net.run_until(net.now_us() + 2_000_000);
    } else {
        net.run_until_idle(u64::MAX);
    }
    // Join retries: on a lossy topology a node can lose its whole join
    // exchange and start isolated. A deployment retries against its
    // bootstrap peer until the join takes; so does the benchmark.
    for _ in 0..JOIN_RETRY_ROUNDS {
        let strays: Vec<NodeAddr> = (1..nodes as NodeAddr)
            .filter(|&a| net.node(a).kad().routing().len() < JOINED_CONTACTS.min(nodes - 1))
            .collect();
        if strays.is_empty() {
            break;
        }
        for a in strays {
            let seed_contact = rendezvous.clone();
            net.with_node(a, |n, ctx| {
                n.issue(ctx, 0, &mut |k, c| {
                    k.add_seed(seed_contact.clone());
                    k.bootstrap(c)
                })
            });
        }
        net.run_until(net.now_us() + 2_000_000);
    }
    net.take_completions();
    net
}

/// Rounds of join retries after the first bootstrap.
const JOIN_RETRY_ROUNDS: usize = 8;

/// Contacts a node must know to count as joined.
const JOINED_CONTACTS: usize = 3;

/// One block as the bulk loader writes it: its key and its full entry
/// list.
pub struct LoadBlock {
    /// Storage key.
    pub key: Id160,
    /// Every entry of the block.
    pub entries: Vec<StoredEntry>,
}

/// Splits a block's entries into `append_many` chunks whose encoded size
/// stays under `chunk_bytes` (one datagram each).
pub fn chunk_entries(entries: &[StoredEntry], chunk_bytes: usize) -> Vec<Vec<StoredEntry>> {
    let mut chunks = Vec::new();
    let mut cur: Vec<StoredEntry> = Vec::new();
    let mut used = 0usize;
    for e in entries {
        // name length prefix + name + weight varint (≤ 10 bytes).
        let size = e.name.len() + 12;
        if used + size > chunk_bytes && !cur.is_empty() {
            chunks.push(std::mem::take(&mut cur));
            used = 0;
        }
        used += size;
        cur.push(e.clone());
    }
    if !cur.is_empty() {
        chunks.push(cur);
    }
    chunks
}

/// Bulk-loads `blocks` into a simulated overlay through real overlay
/// writes (`append_many` from the `writers`, in rotation), `window` writes
/// in flight at a time. Returns the number of writes issued. Panics when a
/// write is not acknowledged — set-up must not start a run on a partial
/// load.
pub fn bulk_load_sim<N: BlockNode>(
    net: &mut SimNet<N>,
    blocks: &[LoadBlock],
    writers: &[NodeAddr],
    chunk_bytes: usize,
    window: usize,
) -> u64 {
    let mut writes: Vec<(Id160, Vec<StoredEntry>)> = Vec::new();
    for b in blocks {
        for chunk in chunk_entries(&b.entries, chunk_bytes) {
            writes.push((b.key, chunk));
        }
    }
    let total = writes.len() as u64;
    let mut acked = 0u64;
    let mut issued = 0usize;
    let mut inflight = 0usize;
    let mut iter = writes.into_iter();
    loop {
        while inflight < window {
            let Some((key, chunk)) = iter.next() else {
                break;
            };
            let home = writers[issued % writers.len()];
            let mut chunk = Some(chunk);
            net.with_node(home, |node, ctx| {
                node.issue(ctx, 0, &mut |k, c| {
                    k.append_many(c, key, chunk.take().expect("issued once"))
                })
            });
            issued += 1;
            inflight += 1;
        }
        if inflight == 0 {
            break;
        }
        if !net.step() {
            panic!("bulk load stalled with {inflight} writes in flight");
        }
        for (_, _, out) in net.take_completions_from() {
            if let dharma_kademlia::KadOutput::Written { acks, targets, .. } = out {
                // `acks` counts the coordinator itself plus every remote
                // replica that answered.
                assert!(
                    targets > 0 && (targets == 1 || acks > 1),
                    "bulk-load write reached no replica"
                );
                acked += 1;
                inflight -= 1;
            }
        }
    }
    assert_eq!(acked, total, "every bulk-load write must complete");
    total
}

/// A loopback overlay: `workers` shared-nothing [`UdpWorker`]s, each
/// hosting `per_worker` nodes on `127.0.0.1` sockets with OS-assigned
/// ports, every node registered with every worker.
pub struct UdpOverlay<N: Node> {
    /// The workers, in address order (worker `w` hosts addresses
    /// `w * per_worker ..`).
    pub workers: Vec<UdpWorker<N>>,
    /// Nodes hosted per worker.
    pub per_worker: usize,
}

/// Binds the loopback overlay and registers every peer everywhere. The
/// nodes are not bootstrapped yet — that needs the workers polling, which
/// [`crate::script::bootstrap_udp`] does.
pub fn bind_udp<N: BlockNode>(
    seed: u64,
    workers: usize,
    per_worker: usize,
    wrap: impl Fn(KademliaNode) -> N,
) -> UdpOverlay<N> {
    let bind: SocketAddr = "127.0.0.1:0".parse().expect("literal socket address");
    let mut ws: Vec<UdpWorker<N>> = Vec::new();
    let mut book: Vec<(NodeAddr, SocketAddr)> = Vec::new();
    for w in 0..workers {
        let mut worker = UdpWorker::new(UDP_MTU, seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9));
        let cfg = udp_kad_config(worker.counters());
        for j in 0..per_worker {
            let addr = (w * per_worker + j) as NodeAddr;
            let mut node = KademliaNode::new(node_id(seed, addr), addr, cfg.clone());
            if addr != 0 {
                node.add_seed(Contact {
                    id: node_id(seed, 0),
                    addr: 0,
                });
            }
            let slot = worker
                .add_node(wrap(node), addr, bind)
                .expect("bind a loopback socket");
            book.push((
                addr,
                worker
                    .local_addr(slot)
                    .expect("bound socket has an address"),
            ));
        }
        ws.push(worker);
    }
    for worker in &mut ws {
        for &(addr, sock) in &book {
            worker.register_peer(addr, sock);
        }
    }
    UdpOverlay {
        workers: ws,
        per_worker,
    }
}
