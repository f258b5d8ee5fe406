//! Acceptance tests for the `dharma-maint` churn subsystem (and its
//! `dharma-adapt` extension): under true membership churn (permanent
//! departures + fresh-identity joins) the maintenance loop must keep every
//! record resolvable, routing tables must forget the departed, everything
//! must stay bit-deterministic — and the churn-adaptive cadence must shed
//! maintenance cost when the overlay is quiet without giving up the repair
//! guarantee when it is not.

use dharma_kademlia::{AdaptConfig, MaintConfig};
use dharma_sim::overlay::{build_overlay, OverlayConfig};
use dharma_sim::{simulate_churn, ChurnConfig};
use dharma_types::sha1;

fn scenario(repair: Option<MaintConfig>, seed: u64) -> ChurnConfig {
    ChurnConfig {
        nodes: 24,
        k: 8,
        keys: 12,
        zipf_s: 1.2,
        horizon_us: 80_000_000,
        op_interval_us: 400_000,
        mean_session_us: 25_000_000,
        mean_downtime_us: 5_000_000,
        repair,
        sample_interval_us: 4_000_000,
        seed,
        ..ChurnConfig::default()
    }
}

fn repair_cfg() -> MaintConfig {
    MaintConfig::builder()
        .probe_interval_us(1_000_000)
        .repair_interval_us(8_000_000)
        .join_handoff(true)
        .build()
        .expect("repair config is in range")
}

#[test]
fn repair_sustains_lookups_and_loses_nothing_under_churn() {
    let rep = simulate_churn(&scenario(Some(repair_cfg()), 100));
    assert!(
        rep.departures > 10 && rep.joins > 10,
        "the scenario must actually churn: {} departures, {} joins",
        rep.departures,
        rep.joins
    );
    assert_eq!(rep.lost_records, 0, "repair must not lose records");
    assert!(
        rep.lookup_success >= 0.97,
        "lookup success {:.3} below the bar",
        rep.lookup_success
    );
    assert!(
        rep.mean_availability > 0.99,
        "availability {:.3} must stay near 1",
        rep.mean_availability
    );
    assert!(
        rep.probes > 0 && rep.rereplications > 0 && rep.handoffs > 0,
        "all three maintenance mechanisms must fire"
    );
}

#[test]
fn disabling_repair_is_measurably_worse() {
    let on = simulate_churn(&scenario(Some(repair_cfg()), 101));
    let off = simulate_churn(&scenario(None, 101));
    assert!(
        off.mean_availability < on.mean_availability,
        "repair off must degrade the availability curve: {:.3} !< {:.3}",
        off.mean_availability,
        on.mean_availability
    );
    assert!(
        off.lookup_success < on.lookup_success,
        "repair off must degrade lookup success: {:.3} !< {:.3}",
        off.lookup_success,
        on.lookup_success
    );
}

#[test]
fn churn_replay_is_bit_deterministic() {
    let a = simulate_churn(&scenario(Some(repair_cfg()), 102));
    let b = simulate_churn(&scenario(Some(repair_cfg()), 102));
    assert_eq!(a, b, "same seed must give the identical report and trace");
    assert_eq!(
        a.availability_trace, b.availability_trace,
        "availability traces must be bit-identical"
    );
}

fn adaptive_cfg() -> MaintConfig {
    let mut cfg = repair_cfg();
    cfg.adaptive = Some(AdaptConfig {
        probe_min_us: 1_000_000,
        probe_max_us: 5_000_000,
        repair_min_us: 8_000_000,
        repair_max_us: 32_000_000,
        half_life_us: 15_000_000,
        hot_weight: 6.0,
        leave_weight: 0.1,
        repair_budget: 16,
    });
    cfg
}

/// The adaptive-cadence dial: a quiet overlay pays several times less
/// maintenance traffic than the fixed knobs, while under real churn the
/// tightened cadence still keeps every record resolvable.
#[test]
fn adaptive_cadence_sheds_cost_when_quiet_and_holds_the_line_when_not() {
    // Quiet: sessions far longer than the horizon — essentially no churn.
    let mut quiet = scenario(Some(repair_cfg()), 103);
    quiet.mean_session_us = 4_000_000_000;
    let quiet_fixed = simulate_churn(&quiet);
    quiet.repair = Some(adaptive_cfg());
    let quiet_adaptive = simulate_churn(&quiet);
    assert!(
        quiet_adaptive.maint_msgs_per_get * 2.0 <= quiet_fixed.maint_msgs_per_get,
        "adaptive cadence must cut quiet-overlay maintenance ≥ 2x: {:.2} vs {:.2}",
        quiet_adaptive.maint_msgs_per_get,
        quiet_fixed.maint_msgs_per_get
    );
    assert!(quiet_adaptive.lookup_success >= 0.99);

    // Churning: the PR-3 guarantee must survive the adaptive dial.
    let churning = scenario(Some(adaptive_cfg()), 104);
    let rep = simulate_churn(&churning);
    assert!(rep.departures > 10, "the scenario must actually churn");
    assert_eq!(rep.lost_records, 0, "adaptive repair must not lose records");
    assert!(
        rep.lookup_success >= 0.97,
        "lookup success {:.3} below the bar",
        rep.lookup_success
    );
}

/// Graceful departures pre-heal the replica set (parting handoff) and
/// announce themselves (`Leave` purges, low churn-estimate weight), so a
/// full graceful drain loses nothing and needs far less repair
/// re-replication than the same drain done crash-style.
#[test]
fn graceful_drain_loses_nothing_with_far_less_repair_traffic() {
    let crash = scenario(Some(adaptive_cfg()), 105);
    let mut graceful = crash.clone();
    graceful.graceful_fraction = 1.0;
    let crash_rep = simulate_churn(&crash);
    let graceful_rep = simulate_churn(&graceful);
    assert!(graceful_rep.departures > 10);
    assert_eq!(graceful_rep.graceful_departures, graceful_rep.departures);
    assert_eq!(graceful_rep.lost_records, 0, "graceful drain loses nothing");
    assert!(graceful_rep.lookup_success >= crash_rep.lookup_success);
    assert!(
        (graceful_rep.rereplications as f64) <= 0.7 * crash_rep.rereplications as f64,
        "graceful drain must need well below crash-style repair traffic: {} vs {}",
        graceful_rep.rereplications,
        crash_rep.rereplications
    );
}

/// After permanent departures, a few probe rounds must purge every routing
/// table of the departed contacts (ping-before-evict confirms death and
/// the replacement cache refills the bucket) — across several seeds.
#[test]
fn probe_rounds_purge_departed_contacts_across_seeds() {
    for seed in [7u64, 19, 83] {
        let mut net = build_overlay(&OverlayConfig {
            nodes: 18,
            k: 6,
            seed,
            maintenance: Some(
                MaintConfig::builder()
                    .probe_interval_us(300_000)
                    .repair_interval_us(60_000_000_000)
                    .join_handoff(false)
                    .build()
                    .expect("probe-purge maintenance config is in range"),
            ),
            ..OverlayConfig::default()
        });
        let departed: Vec<u32> = vec![3, 8, 13];
        let departed_ids: Vec<_> = departed.iter().map(|&a| net.node(a).contact().id).collect();
        for &a in &departed {
            net.remove(a);
            assert_eq!(net.pending_events_for(a), 0, "seed {seed}: queue leak");
        }
        // Enough virtual time for the round-robin probe loop to visit
        // every bucket entry at least once (plus probe timeouts).
        net.run_until(net.now_us() + 60_000_000);
        for a in 0..18u32 {
            if departed.contains(&a) {
                continue;
            }
            for (g, id) in departed.iter().zip(&departed_ids) {
                assert!(
                    !net.node(a).routing().contains(id),
                    "seed {seed}: node {a} still routes to departed {g}"
                );
            }
        }
        for &a in &departed {
            assert_eq!(net.pending_events_for(a), 0, "seed {seed}: late leak");
        }
    }
}

/// A value written before churn remains readable by a node that joined
/// *after* every original holder departed — the end-to-end proof that
/// handoff + repair migrate data across a full population turnover.
#[test]
fn data_outlives_every_original_holder() {
    use dharma_kademlia::{KadConfig, KademliaNode};
    let maint = MaintConfig::builder()
        .probe_interval_us(500_000)
        .repair_interval_us(3_000_000)
        .join_handoff(true)
        .build()
        .expect("handoff maintenance config is in range");
    let mut net = build_overlay(&OverlayConfig {
        nodes: 16,
        k: 4,
        seed: 11,
        maintenance: Some(maint.clone()),
        ..OverlayConfig::default()
    });
    let counters = net.counters();
    let key = sha1(b"immortal-block");
    net.with_node(1, |n, ctx| {
        n.append(ctx, key, "rock", 9);
    });
    net.run_until(net.now_us() + 3_000_000);
    net.take_completions();

    let original_holders: Vec<u32> = (0..16u32)
        .filter(|&a| net.node(a).storage().contains(&key))
        .collect();
    assert!(!original_holders.is_empty());

    // Kill the holders one at a time, giving repair a window in between —
    // spawning a replacement node after each (the rendezvous, node 0,
    // stays; if it is a holder, repair still outnumbers the loss).
    let rendezvous = net.node(0).contact().clone();
    let kad = KadConfig {
        k: 4,
        alpha: 3,
        rpc_timeout_us: 300_000,
        reply_budget: 60_000,
        maintenance: Some(maint),
        counters: counters.clone(),
        ..KadConfig::default()
    };
    let mut rng_n = 0u64;
    for &h in original_holders.iter().filter(|&&h| h != 0) {
        net.remove(h);
        rng_n += 1;
        let id = sha1(format!("fresh-{rng_n}").as_bytes());
        let addr = net.add_node(KademliaNode::new(id, net.len() as u32, kad.clone()));
        net.node_mut(addr).add_seed(rendezvous.clone());
        net.with_node(addr, |n, ctx| {
            n.bootstrap(ctx);
        });
        net.run_until(net.now_us() + 8_000_000);
    }
    net.take_completions();

    // A brand-new joiner reads the block.
    let addr = net.add_node(KademliaNode::new(
        sha1(b"the-reader"),
        net.len() as u32,
        kad.clone(),
    ));
    net.node_mut(addr).add_seed(rendezvous);
    net.with_node(addr, |n, ctx| {
        n.bootstrap(ctx);
    });
    net.run_until(net.now_us() + 2_000_000);
    net.take_completions();
    let op = net.with_node(addr, |n, ctx| n.get(ctx, key, 0));
    net.run_until(net.now_us() + 3_000_000);
    let completions = net.take_completions();
    let out = completions.iter().find(|(id, _)| *id == op).unwrap();
    match &out.1 {
        dharma_kademlia::KadOutput::Value { value: Some(v), .. } => {
            let rock = v.entries.iter().find(|e| e.name == "rock").unwrap();
            assert_eq!(rock.weight, 9, "merge-max repair preserves the value");
        }
        other => panic!("block lost after full holder turnover: {other:?}"),
    }
}
