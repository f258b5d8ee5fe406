//! Conformance: the two drivers must mean the same thing by an operation,
//! Table I must hold op by op, the tracing wrapper must know every message
//! type, and the seed must be what decides the inputs.

use std::collections::BTreeMap;

use dharma_bench::client_driver::{client_homes, make_clients, run_tag_op};
use dharma_bench::inputs::{LogicalOp, MixStream, SearchInputs, TagStream, SESSIONS};
use dharma_bench::overlay::{build_sim, plain_kad_config, plain_sim_config};
use dharma_bench::script::{run_sim, Limit, NoVerify, Pacing, Script, ScriptKind};
use dharma_bench::traced::{message_type_name, parse_head, MESSAGE_TYPES};
use dharma_folksonomy::ApproxPolicy;
use dharma_kademlia::messages::Message;
use dharma_kademlia::{Contact, DigestEntry, KademliaNode, StoredEntry};
use dharma_net::SimNet;
use dharma_types::{sha1, Id160, VersionStamp, WireEncode};

const NODES: usize = 24;
const RESOURCES: usize = 300;
const OPS: usize = 260;

/// Every block on the overlay: key → sorted entries, taken from the first
/// holder, with every other holder required to agree.
fn all_blocks(net: &SimNet<KademliaNode>) -> BTreeMap<Id160, Vec<(String, u64)>> {
    let mut blocks: BTreeMap<Id160, Vec<(String, u64)>> = BTreeMap::new();
    for addr in 0..net.len() as u32 {
        let store = net.node(addr).storage();
        for key in store.keys() {
            let (_, entries, _) = store.snapshot(key).expect("listed key is held");
            let mut got: Vec<(String, u64)> =
                entries.into_iter().map(|e| (e.name, e.weight)).collect();
            got.sort();
            match blocks.get(key) {
                Some(prev) => assert_eq!(prev, &got, "holders of {key:?} disagree"),
                None => {
                    blocks.insert(*key, got);
                }
            }
        }
    }
    blocks
}

/// On a 24-node plain overlay, under the exact policy (where nothing is
/// left to a client-side coin), the script executor and `DharmaClient`,
/// fed the same logical operations, cost the same lookups op by op —
/// Table I's `2 + 2m`, `4 + |Tags(r)|` and 1 — and leave identical `r̄`,
/// `t̄`, `t̂` and `r̃` blocks behind.
#[test]
fn the_script_executor_and_the_client_agree() {
    let seed = 7;
    let homes = client_homes(NODES, SESSIONS);
    let policy = ApproxPolicy::EXACT;

    let mut stream = TagStream::new(RESOURCES, seed, homes.clone(), policy, true);
    let ops: Vec<_> = (0..OPS).map(|_| stream.next_op()).collect();

    // Driver (a).
    let mut net_a = build_sim(plain_sim_config(seed), NODES, plain_kad_config, |n| n);
    let mut clients = make_clients(&homes, seed, policy);
    let mut client_lookups = Vec::new();
    for op in &ops {
        let r = run_tag_op(&mut clients[op.slot], &mut net_a, &op.logical);
        assert!(r.ok, "client operation failed: {:?}", op.logical);
        assert!(r.table1_ok, "Table I broken by {:?}: {r:?}", op.logical);
        if let LogicalOp::Insert { tags, .. } = &op.logical {
            assert_eq!(
                r.lookups as usize,
                2 + 2 * tags.len(),
                "insert costs 2 + 2m"
            );
        }
        client_lookups.push(r.lookups);
    }

    // Driver (b), one script at a time.
    let mut net_b = build_sim(plain_sim_config(seed), NODES, plain_kad_config, |n| n);
    let mut script_lookups = Vec::new();
    for op in &ops {
        let script = op.script.clone().expect("stream built with scripts");
        let run = run_sim(
            &mut net_b,
            &mut || script.clone(),
            Pacing::Closed { concurrency: 1 },
            Limit::ops(1),
            &mut NoVerify,
            false,
        );
        assert_eq!(
            (run.ops, run.failed),
            (1, 0),
            "script failed: {:?}",
            op.logical
        );
        assert_eq!(
            run.lookups,
            u64::from(script.block_ops()),
            "no GET was retried"
        );
        script_lookups.push(run.lookups as u32);
    }

    assert_eq!(client_lookups, script_lookups, "lookups differ op by op");
    let (blocks_a, blocks_b) = (all_blocks(&net_a), all_blocks(&net_b));
    assert!(blocks_a.len() > RESOURCES / 10, "the run wrote blocks");
    assert_eq!(blocks_a, blocks_b, "the two drivers left different blocks");

    // And both left exactly the model's Tag-Resource Graph.
    let nodes: Vec<&KademliaNode> = (0..NODES as u32).map(|a| net_b.node(a)).collect();
    let (checked, wrong) = dharma_bench::workloads::verify_trg_blocks(&nodes, stream.model().trg());
    assert!(checked > 0);
    assert_eq!(wrong, 0, "blocks differ from the exact TRG");
}

/// Under the benchmark's own policy (Approximations A + B, k = 1) the tag
/// formula is `4 + min(1, |Tags(r)|)`, op by op, through the client.
#[test]
fn table_one_holds_under_the_paper_policy() {
    let seed = 11;
    let homes = client_homes(NODES, SESSIONS);
    let policy = ApproxPolicy::paper(1);
    let mut stream = TagStream::new(RESOURCES, seed, homes.clone(), policy, true);
    let mut net = build_sim(plain_sim_config(seed), NODES, plain_kad_config, |n| n);
    let mut clients = make_clients(&homes, seed, policy);
    let mut tags_seen = 0;
    for _ in 0..OPS {
        let op = stream.next_op();
        let r = run_tag_op(&mut clients[op.slot], &mut net, &op.logical);
        assert!(r.ok && r.table1_ok, "{:?}: {r:?}", op.logical);
        let script = op.script.expect("stream built with scripts");
        assert_eq!(r.lookups, script.block_ops(), "{:?}", op.logical);
        if r.kind == ScriptKind::Tag {
            tags_seen += 1;
            assert!((4..=5).contains(&r.lookups), "tag costs 4 + k with k = 1");
        }
    }
    assert!(tags_seen > OPS / 2);
}

fn one_of_each_message() -> Vec<(Message, &'static str)> {
    let from = Contact {
        id: sha1(b"sender"),
        addr: 3,
    };
    let key = sha1(b"key");
    let stamp = VersionStamp::new(9, from.id);
    let entries = vec![StoredEntry {
        name: "rock".into(),
        weight: 2,
    }];
    let digest = vec![DigestEntry {
        key,
        version: stamp,
    }];
    let rpc = 300; // two varint bytes
    vec![
        (
            Message::Ping {
                rpc,
                from: from.clone(),
            },
            "ping",
        ),
        (
            Message::Pong {
                rpc,
                from: from.clone(),
                digest: digest.clone(),
            },
            "pong",
        ),
        (
            Message::FindNode {
                rpc,
                from: from.clone(),
                target: key,
            },
            "find_node",
        ),
        (
            Message::FoundNodes {
                rpc,
                from: from.clone(),
                contacts: vec![from.clone()],
                digest: digest.clone(),
            },
            "found_nodes",
        ),
        (
            Message::FindValue {
                rpc,
                from: from.clone(),
                key,
                top_n: 100,
                no_cache: false,
            },
            "find_value",
        ),
        (
            Message::FoundValue {
                rpc,
                from: from.clone(),
                blob: None,
                entries: entries.clone(),
                truncated: false,
                version: stamp,
                from_cache: false,
                digest,
            },
            "found_value",
        ),
        (
            Message::Store {
                rpc,
                from: from.clone(),
                key,
                blob: b"uri".to_vec(),
                stamp,
            },
            "store",
        ),
        (
            Message::Append {
                rpc,
                from: from.clone(),
                key,
                entries: entries.clone(),
                stamp,
            },
            "append",
        ),
        (
            Message::Replicate {
                rpc,
                from: from.clone(),
                key,
                blob: None,
                entries: entries.clone(),
                stamp,
            },
            "replicate",
        ),
        (
            Message::CachePush {
                rpc,
                from: from.clone(),
                key,
                top_n: 100,
                blob: None,
                entries: entries.clone(),
                truncated: false,
                version: stamp,
            },
            "cache_push",
        ),
        (
            Message::InvalidatePush {
                rpc,
                from: from.clone(),
                key,
                top_n: 100,
                blob: None,
                entries,
                truncated: false,
                stamp,
            },
            "invalidate_push",
        ),
        (
            Message::Ack {
                rpc,
                from: from.clone(),
            },
            "ack",
        ),
        (Message::Leave { rpc, from }, "leave"),
    ]
}

/// The wrapper reads a message's type from its first byte. Checked
/// against one encoded instance of each of the 13 variants, so a new or
/// renumbered message type fails here, not silently in the ledger.
#[test]
fn the_first_byte_names_every_message_type() {
    let all = one_of_each_message();
    assert_eq!(all.len(), MESSAGE_TYPES.len());
    let mut names_seen = std::collections::BTreeSet::new();
    for (msg, name) in all {
        let bytes = msg.encode_to_bytes();
        let (ty, rpc) = parse_head(&bytes);
        assert_eq!(message_type_name(ty), Some(name), "first byte {ty}");
        assert_eq!(
            rpc,
            msg.rpc_id(),
            "{name}: the rpc id follows the type byte"
        );
        names_seen.insert(name);
    }
    assert_eq!(
        names_seen.len(),
        MESSAGE_TYPES.len(),
        "every type checked once"
    );
    assert_eq!(message_type_name(0), None);
    assert_eq!(message_type_name(14), None);
}

fn first_tag_ops(seed: u64, n: usize) -> Vec<LogicalOp> {
    let homes = client_homes(NODES, SESSIONS);
    let mut stream = TagStream::new(RESOURCES, seed, homes, ApproxPolicy::paper(1), false);
    (0..n).map(|_| stream.next_op().logical).collect()
}

fn first_mix_scripts(seed: u64, n: usize) -> Vec<String> {
    let mut stream = MixStream::new(
        SearchInputs::new(RESOURCES, 50, seed),
        seed,
        0.2,
        (0..NODES as u32).collect(),
    );
    (0..n)
        .map(|_| {
            let Script { home, stages, .. } = stream.next_script();
            format!("{home} {stages:?}")
        })
        .collect()
}

/// `--seed` decides the inputs: the same seed gives the same operation
/// streams, two seeds give different ones.
#[test]
fn the_seed_decides_the_operation_streams() {
    assert_eq!(first_tag_ops(1, 80), first_tag_ops(1, 80));
    assert_ne!(first_tag_ops(1, 80), first_tag_ops(2, 80));
    assert_eq!(first_mix_scripts(1, 80), first_mix_scripts(1, 80));
    assert_ne!(first_mix_scripts(1, 80), first_mix_scripts(2, 80));
}
