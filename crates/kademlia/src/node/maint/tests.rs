//! Tests of the maintenance layer: probes, handoff, repair, demotion,
//! adaptive cadence, graceful leave.

use dharma_cache::{CacheConfig, PopularityConfig};
use dharma_net::{NetCounters, Node, NodeAddr, SimNet};
use dharma_types::{sha1, WireDecode};

use super::super::testutil::{build_overlay, contact, holders, replicate_keys, sim_cfg, test_cfg};
use super::*;
use crate::node::KadConfig;

/// Like `build_net` but with the churn-maintenance loop enabled on every
/// node (and optional cache/replication), sharing one counter set.
fn build_maint_net(
    n: usize,
    k: usize,
    seed: u64,
    maint: MaintConfig,
    cache: Option<CacheConfig>,
    replication: Option<PopularityConfig>,
) -> (SimNet<KademliaNode>, Vec<Contact>, NetCounters) {
    let counters = NetCounters::new();
    let cfg = KadConfig {
        rpc_timeout_us: 300_000,
        cache,
        replication,
        maintenance: Some(maint),
        counters: counters.clone(),
        ..test_cfg(k)
    };
    let (net, contacts) = build_overlay(sim_cfg(seed), n, cfg);
    (net, contacts, counters)
}

#[test]
fn probe_round_evicts_removed_contacts_everywhere() {
    let maint = MaintConfig {
        probe_interval_us: 200_000,
        repair_interval_us: 10_000_000,
        join_handoff: false,
        demote_interval_us: None,
        adaptive: None,
    };
    let (mut net, contacts, counters) = build_maint_net(16, 8, 70, maint, None, None);
    // Two nodes depart for good.
    let gone = [5u32, 11];
    for &g in &gone {
        net.remove(g);
    }
    // Let the liveness loop cycle through every bucket several times
    // (each tick probes one contact; failed probes evict).
    net.run_until(40_000_000);
    assert!(counters.probes_sent() > 0, "the probe loop must run");
    for a in 0..16u32 {
        if gone.contains(&a) {
            continue;
        }
        for &g in &gone {
            assert!(
                !net.node(a).routing().contains(&contacts[g as usize].id),
                "node {a} still routes to removed node {g} after probe rounds"
            );
        }
    }
}

#[test]
fn live_contacts_survive_probe_rounds() {
    let maint = MaintConfig {
        probe_interval_us: 200_000,
        repair_interval_us: 10_000_000_000,
        join_handoff: false,
        demote_interval_us: None,
        adaptive: None,
    };
    let (mut net, _contacts, counters) = build_maint_net(12, 8, 71, maint, None, None);
    let known_before: Vec<usize> = (0..12u32).map(|a| net.node(a).routing().len()).collect();
    net.run_until(20_000_000);
    assert!(counters.probes_sent() > 50);
    for a in 0..12u32 {
        assert_eq!(
            net.node(a).routing().len(),
            known_before[a as usize],
            "probing a healthy overlay must not shrink node {a}'s table"
        );
    }
}

#[test]
fn join_handoff_transfers_keys_to_newcomer() {
    let maint = MaintConfig {
        probe_interval_us: 1_000_000,
        repair_interval_us: 10_000_000_000, // effectively off: isolate handoff
        join_handoff: true,
        demote_interval_us: None,
        adaptive: None,
    };
    let (mut net, contacts, counters) = build_maint_net(16, 4, 72, maint, None, None);
    let key = sha1(b"handed-off");
    net.with_node(2, |n, ctx| n.append(ctx, key, "rock", 7));
    net.run_until(4_000_000);
    net.take_completions();
    assert!(!holders(&net, &key).is_empty());

    // A newcomer whose id is the key itself joins: it is by definition
    // among the k closest, so its neighbors must hand the block over.
    let cfg = KadConfig {
        k: 4,
        alpha: 3,
        rpc_timeout_us: 300_000,
        reply_budget: 60_000,
        maintenance: Some(MaintConfig {
            join_handoff: true,
            ..MaintConfig::default()
        }),
        ..KadConfig::default()
    };
    let addr = net.len() as NodeAddr;
    let newcomer = KademliaNode::new(key, addr, cfg);
    let spawned = net.spawn(newcomer);
    assert_eq!(spawned, addr);
    net.node_mut(spawned).add_seed(contacts[0].clone());
    net.with_node(spawned, |n, ctx| {
        n.bootstrap(ctx);
    });
    net.run_until(10_000_000);
    assert!(
        net.node(spawned).storage().contains(&key),
        "the joining node must receive the block it is now closest to"
    );
    assert!(counters.handoffs() > 0);
    assert_eq!(
        net.node(spawned).storage().weight(&key, "rock"),
        7,
        "handoff carries the merge-max snapshot"
    );
}

/// A node holding `keys` blocks that knows `peers` contacts, hand-off on.
fn stocked_node(k: usize, keys: u8, peers: u8) -> (KademliaNode, Vec<Id160>) {
    let cfg = KadConfig {
        k,
        maintenance: Some(MaintConfig::default()),
        ..KadConfig::default()
    };
    let mut node = KademliaNode::new(sha1(b"stocked"), 0, cfg);
    let held: Vec<Id160> = (0..keys).map(|i| sha1(&[b'k', i])).collect();
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    for key in &held {
        // Empty routing table: the write applies locally and completes.
        node.append(&mut ctx, *key, "x", 1);
    }
    for p in 1..=peers {
        node.add_seed(contact(p));
    }
    (node, held)
}

/// What `node` sends in answer to one datagram, decoded.
fn answers(node: &mut KademliaNode, from: &Contact, msg: Message) -> Vec<Message> {
    let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
    node.on_message(&mut ctx, from.addr, msg.encode_to_bytes());
    let (sends, _, _) = ctx.into_effects();
    let decode = |m: &dharma_net::OutMessage| Message::decode_exact(&m.payload).expect("own wire");
    sends.iter().map(decode).collect()
}

fn find_node(from: &Contact, target: Id160) -> Message {
    let from = from.clone();
    Message::FindNode {
        rpc: 7,
        from,
        target,
    }
}

#[test]
fn a_self_lookup_is_answered_before_its_keys_are_handed_over() {
    let (mut node, held) = stocked_node(2, 24, 6);
    let joiner = contact(42);
    let sent = answers(&mut node, &joiner, find_node(&joiner, joiner.id));
    assert!(
        matches!(sent[0], Message::FoundNodes { rpc: 7, .. }),
        "the join lookup's reply must not queue behind the transfer: {:?}",
        sent[0]
    );
    let mut handed: Vec<Id160> = Vec::new();
    for m in &sent[1..] {
        match m {
            Message::Replicate { key, .. } => handed.push(*key),
            other => panic!("only snapshots follow the reply: {other:?}"),
        }
    }
    // Exactly the keys the joiner now ranks within `k` for, each once.
    let ranks = |key: &Id160| node.routing().closest(key, 2).contains(&joiner);
    let mut expect: Vec<Id160> = held.iter().copied().filter(ranks).collect();
    handed.sort_unstable();
    expect.sort_unstable();
    assert_eq!(handed, expect);
    assert!(!expect.is_empty() && expect.len() < held.len());
}

#[test]
fn a_first_message_that_is_not_a_self_lookup_hands_nothing_off() {
    // k = 8 and a handful of contacts: each ranks within k for every held
    // key, so a hand-off, if triggered, would be visible.
    let (mut node, held) = stocked_node(8, 5, 0);
    let first_messages: [fn(&Contact) -> Message; 3] = [
        |from: &Contact| Message::Ping {
            rpc: 7,
            from: from.clone(),
        },
        |from: &Contact| Message::FindValue {
            rpc: 7,
            from: from.clone(),
            key: sha1(b"a key nobody holds"),
            top_n: 5,
            no_cache: false,
        },
        |from: &Contact| find_node(from, sha1(b"somebody else")),
    ];
    for (i, first) in first_messages.iter().enumerate() {
        let stranger = contact(10 + i as u8);
        let sent = answers(&mut node, &stranger, first(&stranger));
        assert!(node.routing().contains(&stranger.id), "message {i} enters");
        assert_eq!(sent.len(), 1, "message {i}: the reply and nothing else");
        assert!(!matches!(sent[0], Message::Replicate { .. }));
    }
    // A self-lookup that enters its sender is a join...
    let joiner = contact(20);
    let sent = answers(&mut node, &joiner, find_node(&joiner, joiner.id));
    assert_eq!(sent.len(), 1 + held.len(), "reply + every held key");
    // ...a known contact repeating it (`Refreshed`) is not, and neither is
    // one of the strangers above looking itself up later,
    for known in [joiner, contact(10)] {
        let sent = answers(&mut node, &known, find_node(&known, known.id));
        assert_eq!(sent.len(), 1, "no second hand-off to {known:?}");
    }
    // nor a newcomer that merely looks up somebody else.
    let other = contact(21);
    let sent = answers(&mut node, &other, find_node(&other, sha1(b"somebody else")));
    assert_eq!(sent.len(), 1);
}

#[test]
fn a_static_overlay_hands_nothing_off() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let counters = NetCounters::new();
    let cfg = KadConfig {
        rpc_timeout_us: 300_000,
        maintenance: Some(MaintConfig {
            probe_interval_us: 100_000,
            repair_interval_us: 3_000_000,
            join_handoff: true,
            demote_interval_us: None,
            adaptive: None,
        }),
        counters: counters.clone(),
        ..test_cfg(4)
    };
    let sim = dharma_net::SimConfig {
        drop_rate: 0.05,
        ..sim_cfg(75)
    };
    // Every node joins here — with nothing stored anywhere yet.
    let (mut net, _contacts) = build_overlay(sim, 16, cfg);
    let keys: Vec<Id160> = (0..12u8).map(|i| sha1(&[b'b', i])).collect();
    for (i, key) in keys.iter().enumerate() {
        net.with_node(i as u32 % 16, |n, ctx| n.append(ctx, *key, "seed", 1));
        net.run_until(net.now_us() + 100_000);
    }
    // Nobody joins or leaves from here on: lost probes evict live contacts
    // and their next message re-enters them, full buckets admit contacts
    // late — first sightings all, joins none.
    let mut rng = StdRng::seed_from_u64(75);
    for i in 0..300u32 {
        let key = keys[rng.gen_range(0..keys.len())];
        net.with_node(i % 16, |n, ctx| match i % 4 {
            0 => n.append(ctx, key, "tag", 1),
            _ => n.get(ctx, key, 5),
        });
        net.run_until(net.now_us() + 50_000);
    }
    net.run_until(net.now_us() + 4_000_000);
    assert!(
        counters.probes_sent() > 100 && net.counters().dropped() > 100,
        "probes must run and datagrams must be lost for contacts to re-enter"
    );
    assert_eq!(counters.handoffs(), 0, "nobody joined");
    for key in &keys {
        let held = holders(&net, key).len();
        assert!(held >= 4, "block {key:?} is down to {held} holders");
    }
}

#[test]
fn repair_sweep_restores_replicas_after_departures() {
    let maint = MaintConfig {
        probe_interval_us: 500_000,
        repair_interval_us: 3_000_000,
        join_handoff: true,
        demote_interval_us: None,
        adaptive: None,
    };
    let (mut net, _contacts, counters) = build_maint_net(20, 5, 73, maint, None, None);
    let key = sha1(b"repaired");
    net.with_node(1, |n, ctx| n.append(ctx, key, "rock", 3));
    net.run_until(4_000_000);
    net.take_completions();
    let before = holders(&net, &key);
    assert!(before.len() >= 5, "k = 5 replicas placed");

    // Most of the replica set departs permanently (keep one survivor).
    for &h in before.iter().skip(1) {
        if h != 1 {
            net.remove(h);
        }
    }
    let survivors = holders(&net, &key).len();
    assert!(survivors <= 2);

    // Several repair intervals later the survivor has re-pushed the
    // block to the (new) k closest live nodes.
    net.run_until(30_000_000);
    let after = holders(&net, &key);
    assert!(
        after.len() >= 5,
        "repair must restore the replica set: {survivors} -> {}",
        after.len()
    );
    assert!(counters.rereplications() > 0);
    // Merge-max all along: no weight inflation anywhere.
    for a in after {
        assert_eq!(net.node(a).storage().weight(&key, "rock"), 3);
    }
}

#[test]
fn demotion_reclaims_cold_promoted_replicas() {
    let replication = PopularityConfig {
        half_life_us: 2_000_000,
        hot_threshold: 2.0,
        max_extra_replicas: 10,
        max_tracked: 1024,
        promote_cooldown_us: 1_000,
    };
    let maint = MaintConfig {
        probe_interval_us: 1_000_000,
        repair_interval_us: 10_000_000_000, // off: repair would re-stamp refresh times
        join_handoff: false,
        demote_interval_us: Some(4_000_000),
        adaptive: None,
    };
    let (mut net, _contacts, counters) = build_maint_net(
        24,
        4,
        74,
        maint,
        Some(CacheConfig {
            capacity: 64,
            ttl_us: 1_000_000,
        }),
        Some(replication),
    );
    let key = sha1(b"briefly-viral");
    net.with_node(0, |n, ctx| n.append(ctx, key, "meme", 1));
    net.run_until(4_000_000);
    net.take_completions();
    let base = holders(&net, &key).len();

    // Hammer the key from every node (twice, outliving the cache TTL
    // so repeats reach the holders) to promote it well beyond k.
    for _round in 0..2 {
        for a in 0..24u32 {
            net.with_node(a, |n, ctx| {
                n.get(ctx, key, 0);
            });
            net.run_until(net.now_us() + 200_000);
        }
    }
    net.take_completions();
    let promoted = holders(&net, &key).len();
    // Demotion spares replicas up to k + REPLICA_SLACK (= 6 here); the
    // hot key must overshoot that floor for the reclaim to be visible.
    assert!(
        promoted > 6,
        "hot key must gain replicas beyond k + slack: {base} -> {promoted}"
    );

    // The fad passes: no more GETs. Popularity decays (half-life 2 s),
    // and the demotion sweeps reclaim the beyond-k-plus-slack copies.
    net.run_until(net.now_us() + 60_000_000);
    let after = holders(&net, &key).len();
    assert!(
        after < promoted,
        "cold beyond-k replicas must be reclaimed: {promoted} -> {after}"
    );
    assert!(counters.replicas_demoted() > 0);
    // The authoritative set (k closest + slack) keeps the block.
    assert!(after >= base.min(4), "k closest keep the block: {after}");
}

fn adapt_cfg() -> AdaptConfig {
    AdaptConfig {
        probe_min_us: 1_000_000,
        probe_max_us: 8_000_000,
        repair_min_us: 2_000_000,
        repair_max_us: 20_000_000,
        half_life_us: 5_000_000,
        hot_weight: 4.0,
        leave_weight: 1.0,
        repair_budget: 1,
    }
}

#[test]
fn adaptive_cadence_tracks_observed_departures() {
    let cfg = KadConfig {
        k: 8,
        maintenance: Some(MaintConfig {
            adaptive: Some(adapt_cfg()),
            ..MaintConfig::default()
        }),
        ..KadConfig::default()
    };
    let mut node = KademliaNode::new(sha1(b"adaptive"), 0, cfg);
    let a = adapt_cfg();

    // Quiet overlay: cadence coasts at the max bounds.
    assert_eq!(node.current_probe_interval_us(0), Some(a.probe_max_us));
    assert_eq!(node.current_repair_interval_us(0), Some(a.repair_max_us));

    // A burst of observed departures pins the cadence to the min
    // bounds (leave_weight is 1.0 here, so 5 notices cross hot_weight).
    let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 1);
    for i in 0..5u8 {
        let from = Contact {
            id: sha1(&[i]),
            addr: u32::from(i) + 10,
        };
        // Known contact first, so the Leave also exercises the purge.
        node.on_message(
            &mut ctx,
            from.addr,
            Message::Ping {
                rpc: 1,
                from: from.clone(),
            }
            .encode_to_bytes(),
        );
        assert!(node.routing().contains(&from.id));
        node.on_message(
            &mut ctx,
            from.addr,
            Message::Leave {
                rpc: 2,
                from: from.clone(),
            }
            .encode_to_bytes(),
        );
        assert!(
            !node.routing().contains(&from.id),
            "Leave purges the sender immediately"
        );
    }
    assert!(node.churn_weight(1_000) >= 4.0);
    assert_eq!(node.current_probe_interval_us(1_000), Some(a.probe_min_us));
    assert_eq!(
        node.current_repair_interval_us(1_000),
        Some(a.repair_min_us)
    );

    // The estimate decays: several half-lives later the cadence has
    // relaxed back toward the max bounds.
    let later = 1_000 + 6 * a.half_life_us;
    assert!(node.current_probe_interval_us(later).unwrap() > 6_000_000);
    assert!(node.current_repair_interval_us(later).unwrap() > 15_000_000);
}

#[test]
fn leave_tombstone_blocks_reinsertion_of_the_corpse() {
    let cfg = KadConfig {
        k: 8,
        ..KadConfig::default()
    };
    let mut node = KademliaNode::new(sha1(b"keeper"), 0, cfg);
    let ghost = Contact {
        id: sha1(b"ghost"),
        addr: 9,
    };
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    node.on_message(
        &mut ctx,
        9,
        Message::Leave {
            rpc: 1,
            from: ghost.clone(),
        }
        .encode_to_bytes(),
    );
    // A straggler from the corpse itself...
    node.on_message(
        &mut ctx,
        9,
        Message::Ping {
            rpc: 2,
            from: ghost.clone(),
        }
        .encode_to_bytes(),
    );
    assert!(!node.routing().contains(&ghost.id), "straggler ignored");
    // ...and a third party still naming it in a FoundNodes reply.
    node.on_message(
        &mut ctx,
        7,
        Message::FoundNodes {
            rpc: 3,
            from: Contact {
                id: sha1(b"third"),
                addr: 7,
            },
            contacts: vec![ghost.clone()],
            digest: vec![],
        }
        .encode_to_bytes(),
    );
    assert!(!node.routing().contains(&ghost.id), "hearsay ignored too");
    // Once the tombstone lapses, the id may be learned again (a real
    // rejoin with the same id, however unlikely, is not banned forever).
    let mut ctx: Ctx<KadOutput> = Ctx::new(DEPART_TOMBSTONE_US + 1_000, 0, 2);
    node.on_message(
        &mut ctx,
        9,
        Message::Ping {
            rpc: 4,
            from: ghost.clone(),
        }
        .encode_to_bytes(),
    );
    assert!(node.routing().contains(&ghost.id));
}

#[test]
fn budgeted_repair_pass_covers_every_key_across_ticks() {
    let cfg = KadConfig {
        k: 4,
        maintenance: Some(MaintConfig {
            adaptive: Some(adapt_cfg()),
            ..MaintConfig::default()
        }),
        ..KadConfig::default()
    };
    let mut node = KademliaNode::new(sha1(b"holder"), 0, cfg);
    let keys: Vec<Id160> = (0..3u8).map(|i| sha1(&[b'k', i])).collect();
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    for key in &keys {
        // Empty routing table: the write applies locally and completes.
        node.append(&mut ctx, *key, "x", 1);
    }
    node.add_seed(Contact {
        id: sha1(b"peer"),
        addr: 1,
    });

    // Budget 1: the pass takes three ticks, carrying the cursor over.
    let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
    node.repair_sweep_step(&mut ctx, 1_000_000, 1);
    assert!(
        node.maint.repair_cursor.is_some(),
        "partial pass keeps a cursor"
    );
    node.repair_sweep_step(&mut ctx, 1_000_000, 1);
    node.repair_sweep_step(&mut ctx, 1_000_000, 1);
    assert!(node.maint.repair_cursor.is_none(), "pass completed");
    let (sends, _, _) = ctx.into_effects();
    let mut pushed = replicate_keys(&sends);
    pushed.sort_unstable();
    let mut expect = keys.clone();
    expect.sort_unstable();
    assert_eq!(pushed, expect, "every key pushed exactly once per pass");
}

#[test]
fn graceful_leave_hands_off_keys_and_purges_tables() {
    let maint = MaintConfig {
        probe_interval_us: 10_000_000_000, // probes off: isolate the leave
        repair_interval_us: 10_000_000_000,
        join_handoff: false,
        demote_interval_us: None,
        adaptive: None,
    };
    let (mut net, _contacts, counters) = build_maint_net(16, 5, 80, maint, None, None);
    let key = sha1(b"carried");
    net.with_node(2, |n, ctx| n.append(ctx, key, "rock", 4));
    net.run_until(4_000_000);
    net.take_completions();
    let before = holders(&net, &key);
    assert!(before.len() >= 5);

    // One replica departs gracefully.
    let leaver = before[0];
    let corpse = net
        .leave(leaver, |n, ctx| n.leave(ctx))
        .expect("first leave returns the corpse");
    let knew: Vec<Id160> = corpse.routing().iter().map(|c| c.id).collect();
    assert!(net.is_removed(leaver));
    assert!(counters.leave_notices() > 0);
    assert!(counters.leave_handoffs() > 0);

    // The parting handoff lands without any repair sweep: the replica
    // set is whole again, weights intact (merge-max).
    net.run_until(net.now_us() + 2_000_000);
    let after = holders(&net, &key);
    assert!(
        after.len() >= 5,
        "parting handoff must restore the replica set: {} -> {}",
        before.len(),
        after.len()
    );
    for a in &after {
        assert_eq!(net.node(*a).storage().weight(&key, "rock"), 4);
    }
    assert_eq!(counters.rereplications(), 0, "no repair sweep needed");

    // Everyone the leaver notified purged it without a probe round.
    let leaver_id = corpse.contact().id;
    for a in 0..16u32 {
        if net.is_removed(a) || !knew.contains(&net.node(a).contact().id) {
            continue;
        }
        assert!(
            !net.node(a).routing().contains(&leaver_id),
            "node {a} still routes to the gracefully departed node"
        );
    }
}

#[test]
fn repair_push_timeout_feeds_the_churn_estimator() {
    let cfg = KadConfig {
        k: 4,
        ping_before_evict: false, // direct evict: isolate the repair path
        maintenance: Some(MaintConfig {
            adaptive: Some(adapt_cfg()),
            ..MaintConfig::default()
        }),
        ..KadConfig::default()
    };
    let mut node = KademliaNode::new(sha1(b"holder"), 0, cfg);
    let key = sha1(b"repaired-key");
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    node.append(&mut ctx, key, "x", 1);
    let corpse = Contact {
        id: sha1(b"corpse"),
        addr: 9,
    };
    node.add_seed(corpse.clone());
    assert!(node.routing().contains(&corpse.id));
    assert_eq!(node.churn_weight(0), 0.0);

    // The repair sweep pushes the key to the corpse — tracked.
    let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
    node.repair_sweep_step(&mut ctx, 1_000_000, 0);
    let (sends, timers, _) = ctx.into_effects();
    let rpc = sends
        .iter()
        .find_map(|m| match Message::decode_exact(&m.payload) {
            Ok(Message::Replicate { rpc, .. }) => Some(rpc),
            _ => None,
        })
        .expect("repair pushes the key");
    assert!(
        timers.iter().any(|&(_, id)| id == rpc),
        "repair pushes are tracked with a pending-RPC timeout"
    );

    // No ack arrives: the timeout must evict the corpse and count the
    // departure — the estimator learns on the *first* repair round.
    let mut ctx: Ctx<KadOutput> = Ctx::new(2_000_000, 0, 3);
    node.on_timer(&mut ctx, rpc);
    assert!(
        !node.routing().contains(&corpse.id),
        "the silent replica is evicted"
    );
    assert!(
        node.churn_weight(2_000_000) >= 1.0,
        "the departure feeds the churn estimate"
    );
}

#[test]
fn parting_handoff_skips_keys_the_leaver_is_redundant_for() {
    let counters = NetCounters::new();
    let cfg = KadConfig {
        k: 2,
        counters: counters.clone(),
        ..KadConfig::default()
    };
    let own = sha1(b"leaver");
    let mut node = KademliaNode::new(own, 0, cfg);
    let needed = sha1(b"needed-key");
    let redundant = sha1(b"redundant-key");
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    node.append(&mut ctx, needed, "x", 1);
    node.append(&mut ctx, redundant, "y", 1);

    // Craft > k + slack contacts strictly closer to `redundant` than
    // the leaver but strictly *farther* from `needed`: flip one low
    // bit of the leaver's own id per contact — a bit set in
    // `own ⊕ redundant` (clearing it shrinks that distance) and clear
    // in `own ⊕ needed` (setting it grows that one). Each flipped bit
    // position lands the contact in its own bucket, so the k-capped
    // buckets hold them all.
    let d_red: Vec<u8> = own
        .as_bytes()
        .iter()
        .zip(redundant.as_bytes())
        .map(|(a, b)| a ^ b)
        .collect();
    let d_need: Vec<u8> = own
        .as_bytes()
        .iter()
        .zip(needed.as_bytes())
        .map(|(a, b)| a ^ b)
        .collect();
    let mut crafted = 0u32;
    'outer: for byte in (8..20).rev() {
        for bit in 0..8u8 {
            let mask = 1u8 << bit;
            if d_red[byte] & mask != 0 && d_need[byte] & mask == 0 {
                let mut b = *own.as_bytes();
                b[byte] ^= mask;
                node.add_seed(Contact {
                    id: Id160::from_bytes(b),
                    addr: 100 + crafted,
                });
                crafted += 1;
                if crafted >= 6 {
                    break 'outer;
                }
            }
        }
    }
    assert!(crafted >= 5, "found only {crafted} usable bit positions");
    node.add_seed(contact(9));

    let mut ctx: Ctx<KadOutput> = Ctx::new(1_000, 0, 2);
    node.leave(&mut ctx);
    let (sends, _, _) = ctx.into_effects();
    let pushed = replicate_keys(&sends);
    assert!(
        pushed.contains(&needed),
        "keys the leaver is authoritative for are handed off"
    );
    assert!(
        !pushed.contains(&redundant),
        "keys with k + slack strictly-closer holders are not re-pushed"
    );
    assert_eq!(
        counters.leave_handoffs(),
        pushed.len() as u64,
        "the handoff counter reflects the trimmed bill"
    );
}

#[test]
fn maintenance_never_pushes_expired_records() {
    let cfg = KadConfig {
        k: 4,
        record_ttl_us: Some(2_000_000),
        ..KadConfig::default()
    };
    let mut node = KademliaNode::new(sha1(b"gated"), 0, cfg);
    let key = sha1(b"stale");
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 1);
    node.append(&mut ctx, key, "x", 1);
    node.add_seed(Contact {
        id: sha1(b"peer"),
        addr: 1,
    });

    // Republish after the TTL: the zombie is dropped, nothing is sent
    // (previously the coordinator's own merge re-stamped the clock and
    // the k closest received a resurrecting snapshot).
    let mut ctx: Ctx<KadOutput> = Ctx::new(3_000_000, 0, 2);
    let ops = node.republish_all(&mut ctx);
    assert!(ops.is_empty(), "no republish op for an expired key");
    assert!(!node.storage().contains(&key), "lazy-expired instead");
    let (sends, _, _) = ctx.into_effects();
    assert!(replicate_keys(&sends).is_empty());

    // Same gate on the repair sweep.
    let mut node = KademliaNode::new(
        sha1(b"gated-2"),
        0,
        KadConfig {
            k: 4,
            record_ttl_us: Some(2_000_000),
            maintenance: Some(MaintConfig::default()),
            ..KadConfig::default()
        },
    );
    let mut ctx: Ctx<KadOutput> = Ctx::new(0, 0, 3);
    node.append(&mut ctx, key, "x", 1);
    node.add_seed(Contact {
        id: sha1(b"peer"),
        addr: 1,
    });
    let mut ctx: Ctx<KadOutput> = Ctx::new(3_000_000, 0, 4);
    node.repair_sweep_step(&mut ctx, 1_000_000, 0);
    assert!(!node.storage().contains(&key));
    let (sends, _, _) = ctx.into_effects();
    assert!(replicate_keys(&sends).is_empty());
}
