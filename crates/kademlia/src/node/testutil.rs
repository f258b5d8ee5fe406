//! Shared fixtures of the node tests: small simulated overlays and
//! hand-built contacts, stamps and configs.

use dharma_cache::{CacheConfig, FreshConfig};
use dharma_net::{NodeAddr, OutMessage, SimConfig, SimNet};
use dharma_types::{sha1, Id160, VersionStamp, WireDecode};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{KadConfig, KadOutput, KademliaNode};
use crate::messages::{Contact, FetchedValue, Message};

/// The loss-free uniform-delay network the overlays run on.
pub(super) fn sim_cfg(seed: u64) -> SimConfig {
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

/// The protocol parameters of the test overlays, every layer off.
pub(super) fn test_cfg(k: usize) -> KadConfig {
    KadConfig {
        k,
        alpha: 3,
        rpc_timeout_us: 500_000,
        reply_budget: 60_000,
        ..KadConfig::default()
    }
}

/// An overlay of `n` nodes with random ids sharing `cfg`: everyone learns
/// node 0, then bootstraps. With maintenance configured the bootstrap
/// runs time-bounded (to t = 2 s): its timers re-arm forever, so
/// `run_until_idle` would never drain.
pub(super) fn build_overlay(
    sim: SimConfig,
    n: usize,
    cfg: KadConfig,
) -> (SimNet<KademliaNode>, Vec<Contact>) {
    let mut rng = StdRng::seed_from_u64(sim.seed ^ 0xD1A2);
    let mut net = SimNet::new(sim);
    let mut contacts = Vec::new();
    for i in 0..n {
        let id = Id160::random(&mut rng);
        let node = KademliaNode::new(id, i as NodeAddr, cfg.clone());
        let addr = net.add_node(node);
        contacts.push(Contact { id, addr });
    }
    for i in 1..n {
        net.node_mut(i as NodeAddr).add_seed(contacts[0].clone());
    }
    for i in 1..n {
        net.with_node(i as NodeAddr, |node, ctx| {
            node.bootstrap(ctx);
        });
    }
    if cfg.maintenance.is_some() {
        net.run_until(2_000_000);
    } else {
        net.run_until_idle(2_000_000);
    }
    net.take_completions();
    (net, contacts)
}

/// The plain overlay: `k = 8`, every layer off.
pub(super) fn build_net(n: usize, seed: u64) -> (SimNet<KademliaNode>, Vec<Contact>) {
    build_overlay(sim_cfg(seed), n, test_cfg(8))
}

/// Runs a GET from `addr` to completion: the value and the messages it cost.
pub(super) fn get_value(
    net: &mut SimNet<KademliaNode>,
    addr: NodeAddr,
    key: Id160,
    top_n: u32,
) -> (Option<FetchedValue>, u32) {
    let op = net.with_node(addr, |n, ctx| n.get(ctx, key, top_n));
    net.run_until_idle(1_000_000);
    let completions = net.take_completions();
    let got = completions.into_iter().find(|(id, _)| *id == op).unwrap();
    match got.1 {
        KadOutput::Value { value, messages } => (value, messages),
        other => panic!("unexpected output {other:?}"),
    }
}

/// The live nodes that hold `key` in storage.
pub(super) fn holders(net: &SimNet<KademliaNode>, key: &Id160) -> Vec<u32> {
    (0..net.len() as u32)
        .filter(|&a| !net.is_removed(a) && net.node(a).storage().contains(key))
        .collect()
}

/// Decodes the `Replicate` keys queued in a test context's sends.
pub(super) fn replicate_keys(sends: &[OutMessage]) -> Vec<Id160> {
    sends
        .iter()
        .filter_map(|m| match Message::decode_exact(&m.payload) {
            Ok(Message::Replicate { key, .. }) => Some(key),
            _ => None,
        })
        .collect()
}

pub(super) fn contact(n: u8) -> Contact {
    Contact {
        id: sha1(&[n]),
        addr: u32::from(n),
    }
}

/// A single node's config with the cache and freshness layers on.
pub(super) fn fresh_cfg(ttl_us: u64) -> KadConfig {
    KadConfig {
        k: 8,
        cache: Some(CacheConfig {
            capacity: 64,
            ttl_us,
        }),
        freshness: Some(FreshConfig::default()),
        ..KadConfig::default()
    }
}

/// A minted-elsewhere stamp for hand-built test messages: `seq` with a
/// fixed foreign writer id, so ordering follows `seq`.
pub(super) fn st(seq: u64) -> VersionStamp {
    VersionStamp::new(seq, sha1(b"remote-writer"))
}
