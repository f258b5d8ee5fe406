//! `DharmaClient`'s tests over an in-process overlay: tagging, approximated
//! appends, signed records, failures and departures, session floors.

use super::*;
use crate::testutil::overlay;
use dharma_likir::CertificationAuthority;
use dharma_types::{block_key, BlockType};

/// The names of `view`'s entries, in reply order.
fn names(view: &BlockView) -> Vec<&str> {
    view.entries().map(|(n, _)| n).collect()
}

/// The weight of entry `name` in `view`, if it has one.
fn weight(view: &BlockView, name: &str) -> Option<u64> {
    view.entries().find(|&(n, _)| n == name).map(|(_, w)| w)
}

fn client(policy: ApproxPolicy, home: u32) -> DharmaClient {
    let ca = CertificationAuthority::new(b"dharma-tests");
    let identity = ca.register("alice", 0);
    DharmaClient::new(
        home,
        identity,
        DharmaConfig {
            policy,
            ..DharmaConfig::default()
        },
    )
}

#[test]
fn insert_costs_2_plus_2m() {
    let mut net = overlay(16, 10);
    let mut c = client(ApproxPolicy::EXACT, 1);
    for (m, tags) in [
        (1usize, vec!["rock"]),
        (3, vec!["rock", "metal", "live"]),
        (5, vec!["a", "b", "c", "d", "e"]),
    ] {
        let cost = c
            .insert_resource(&mut net, &format!("res-{m}"), "uri://x", &tags)
            .unwrap();
        assert_eq!(cost.lookups as usize, 2 + 2 * m, "m = {m}");
    }
}

#[test]
fn tag_costs_match_table1() {
    let mut net = overlay(16, 11);
    // Insert a resource with 5 tags, then tag it with a 6th.
    let mut naive = client(ApproxPolicy::EXACT, 1);
    naive
        .insert_resource(&mut net, "res", "uri://x", &["a", "b", "c", "d", "e"])
        .unwrap();
    let receipt = naive.tag(&mut net, "res", "fresh").unwrap();
    assert_eq!(receipt.neighborhood, 5);
    assert!(receipt.newly_attached);
    assert_eq!(receipt.cost.lookups, 4 + 5, "naive: 4 + |Tags(r)|");

    // Approximated with k = 2 on a second fresh tag.
    let mut approx = client(ApproxPolicy::paper(2), 1);
    let receipt = approx.tag(&mut net, "res", "fresh2").unwrap();
    assert_eq!(receipt.cost.lookups, 4 + 2, "approx: 4 + k");
    assert_eq!(receipt.updated, 2);
    // Neighborhood now includes "fresh" from the previous op.
    assert_eq!(receipt.neighborhood, 6);
}

#[test]
fn search_step_costs_2() {
    let mut net = overlay(16, 12);
    let mut c = client(ApproxPolicy::EXACT, 2);
    c.insert_resource(&mut net, "r1", "uri://1", &["rock", "metal"])
        .unwrap();
    let (nbrs, res, cost) = c.search_step(&mut net, "rock").unwrap();
    assert_eq!(cost.lookups, 2);
    assert_eq!(names(&nbrs), ["metal"]);
    assert_eq!(names(&res), ["r1"]);
}

#[test]
fn tagging_updates_blocks_consistently() {
    let mut net = overlay(12, 13);
    let mut c = client(ApproxPolicy::EXACT, 1);
    c.insert_resource(&mut net, "album", "uri://album", &["rock", "metal"])
        .unwrap();
    // Tag twice with an existing tag and once with a new one.
    c.tag(&mut net, "album", "rock").unwrap();
    let receipt = c.tag(&mut net, "album", "grunge").unwrap();
    assert!(receipt.newly_attached);

    // Read back r̄: u(rock) = 2, u(metal) = 1, u(grunge) = 1.
    let (_, _, _) = c.search_step(&mut net, "rock").unwrap();
    let key = block_key("album", BlockType::ResourceTags);
    let (view, _) = c.run_get(&mut net, key, 0).unwrap();
    let view = view.unwrap();
    let get = |n: &str| weight(&view, n);
    assert_eq!(get("rock"), Some(2));
    assert_eq!(get("metal"), Some(1));
    assert_eq!(get("grunge"), Some(1));

    // FG arcs: sim(rock → grunge) = u(grunge, album) = 1 (exact policy),
    // sim(grunge → rock) = u(rock, album) = 2 at attach time.
    let key = block_key("grunge", BlockType::TagNeighbors);
    let (view, _) = c.run_get(&mut net, key, 0).unwrap();
    let rock = weight(&view.unwrap(), "rock").unwrap();
    assert_eq!(rock, 2, "exact B adds u(rock, album)");

    let key = block_key("rock", BlockType::TagNeighbors);
    let (view, _) = c.run_get(&mut net, key, 0).unwrap();
    let grunge = weight(&view.unwrap(), "grunge").unwrap();
    assert_eq!(grunge, 1);
}

#[test]
fn approximation_b_appends_unit() {
    let mut net = overlay(12, 14);
    let mut c = client(ApproxPolicy::paper(10), 1);
    c.insert_resource(&mut net, "album", "uri://album", &["rock"])
        .unwrap();
    c.tag(&mut net, "album", "rock").unwrap();
    c.tag(&mut net, "album", "rock").unwrap(); // u(rock, album) = 3
    c.tag(&mut net, "album", "grunge").unwrap();
    let key = block_key("grunge", BlockType::TagNeighbors);
    let (view, _) = c.run_get(&mut net, key, 0).unwrap();
    let rock = weight(&view.unwrap(), "rock").unwrap();
    assert_eq!(rock, 1, "Approximation B: unit token, not u(τ, r) = 3");
}

#[test]
fn uri_record_roundtrips_and_verifies() {
    let mut net = overlay(12, 15);
    let ca = CertificationAuthority::new(b"dharma-tests");
    let identity = ca.register("alice", 0);
    let mut c = DharmaClient::new(3, identity, DharmaConfig::default());
    c.insert_resource(&mut net, "song", "uri://song.mp3", &["pop"])
        .unwrap();
    let (blob, cost) = c.resolve_uri(&mut net, "song").unwrap();
    assert_eq!(cost.lookups, 1);
    let record = <AuthenticatedRecord as dharma_types::WireDecode>::decode_exact(
        &blob.expect("record stored"),
    )
    .unwrap();
    let verifier = ca.verifier();
    assert_eq!(record.verify(&verifier, 0).unwrap(), b"uri://song.mp3");
    // A different CA cannot verify it.
    let other = CertificationAuthority::new(b"other");
    assert!(record.verify(&other.verifier(), 0).is_err());
}

#[test]
fn crashed_home_fails_fast_with_distinct_error() {
    let mut net = overlay(12, 17);
    let mut c = client(ApproxPolicy::EXACT, 3);
    c.insert_resource(&mut net, "res", "uri://x", &["rock"])
        .unwrap();
    // Suspend the home node: previously every op burned all its
    // retries on event-queue timeouts before surfacing a generic
    // Timeout; now the dead coordinator is detected up front.
    let sent_before = net.counters().sent();
    net.crash(3);
    let err = c.search_step(&mut net, "rock").unwrap_err();
    assert!(
        matches!(err, DharmaError::NodeUnavailable(_)),
        "expected NodeUnavailable, got {err:?}"
    );
    assert_eq!(
        net.counters().sent(),
        sent_before,
        "fail-fast must not issue any datagrams"
    );
    // A crashed node cannot execute a graceful farewell either.
    assert!(matches!(
        c.leave(&mut net).unwrap_err(),
        DharmaError::NodeUnavailable(_)
    ));
    assert!(!net.is_removed(3), "a refused leave must not remove");
    // Revival restores service — the distinct error is retryable by
    // rebinding or reviving, unlike a permanent departure.
    net.revive(3);
    assert!(c.search_step(&mut net, "rock").is_ok());
}

#[test]
fn graceful_leave_preserves_data_and_fails_later_ops() {
    let mut net = overlay(16, 18);
    let mut c = client(ApproxPolicy::EXACT, 2);
    c.insert_resource(&mut net, "kept", "uri://kept", &["rock", "jazz"])
        .unwrap();
    c.leave(&mut net).unwrap();

    // The departed client refuses further work, with the distinct
    // error and without touching the network.
    let err = c.search_step(&mut net, "rock").unwrap_err();
    assert!(matches!(err, DharmaError::NodeUnavailable(_)));
    assert!(matches!(
        c.leave(&mut net).unwrap_err(),
        DharmaError::NodeUnavailable(_)
    ));

    // The data it wrote (and any replicas it held) survives: another
    // client still resolves everything.
    let mut other = client(ApproxPolicy::EXACT, 7);
    let (nbrs, res, _) = other.search_step(&mut net, "rock").unwrap();
    assert_eq!(names(&res), ["kept"]);
    assert_eq!(names(&nbrs), ["jazz"]);
    let (uri, _) = other.resolve_uri(&mut net, "kept").unwrap();
    assert!(uri.is_some(), "the URI record survives the departure");
}

/// Like [`overlay`], but with per-node hot caches enabled and enough
/// nodes that a client's home is usually *not* a holder — reads get
/// cached, and a later write elsewhere leaves those caches stale.
fn cached_overlay(n: usize, seed: u64) -> dharma_net::SimNet<KademliaNode> {
    use dharma_kademlia::KadConfig;
    use dharma_net::{SimConfig, SimNet};
    use dharma_types::Id160;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut net = SimNet::new(SimConfig {
        latency_min_us: 1_000,
        latency_max_us: 8_000,
        drop_rate: 0.0,
        mtu: 64 * 1024,
        seed,
        shards: 1,
        topology: None,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = KadConfig {
        k: 8,
        alpha: 3,
        rpc_timeout_us: 300_000,
        reply_budget: 60_000,
        cache: Some(dharma_cache::CacheConfig::default()),
        counters: net.counters(),
        ..KadConfig::default()
    };
    let mut first = None;
    for i in 0..n {
        let id = Id160::random(&mut rng);
        let node = KademliaNode::new(id, i as u32, cfg.clone());
        let addr = net.add_node(node);
        if let Some(seed_contact) = &first {
            net.node_mut(addr)
                .add_seed(dharma_kademlia::Contact::clone(seed_contact));
            net.with_node(addr, |node, ctx| {
                node.bootstrap(ctx);
            });
        } else {
            first = Some(net.node(addr).contact().clone());
        }
    }
    net.run_until_idle(5_000_000);
    net.take_completions();
    net
}

#[test]
fn dharma_config_builder_validates_both_ways() {
    assert!(DharmaConfig::builder().namespace("").build().is_err());
    assert!(DharmaConfig::builder()
        .max_events_per_op(0)
        .build()
        .is_err());
    let cfg = DharmaConfig::builder()
        .search_top_n(7)
        .op_retries(0)
        .seed(5)
        .namespace("scoped")
        .build()
        .unwrap();
    assert_eq!(cfg.search_top_n, 7);
    assert_eq!(cfg.op_retries, 0);
    assert_eq!(cfg.seed, 5);
    assert_eq!(cfg.namespace, "scoped");
}

#[test]
fn config_table_defaults_and_setters() {
    let d = DharmaConfig::default();
    assert_eq!(
        (d.policy.connection_k, d.policy.b_policy),
        (Some(1), BPolicy::UnitIncrement)
    );
    assert_eq!(
        (d.search_top_n, d.namespace.as_str(), d.seed),
        (100, "dharma", 0)
    );
    assert_eq!((d.max_events_per_op, d.op_retries), (5_000_000, 2));

    let c = DharmaConfig::builder()
        .policy(ApproxPolicy::EXACT)
        .search_top_n(7)
        .namespace(String::from("ns"))
        .seed(9)
        .max_events_per_op(11)
        .op_retries(0)
        .build()
        .unwrap();
    assert_eq!(
        (c.policy.connection_k, c.policy.b_policy),
        (None, BPolicy::Exact)
    );
    assert_eq!((c.search_top_n, c.namespace.as_str(), c.seed), (7, "ns", 9));
    assert_eq!((c.max_events_per_op, c.op_retries), (11, 0));
}

#[test]
fn session_floor_tracks_writes_and_reads() {
    let mut net = overlay(12, 21);
    let mut c = client(ApproxPolicy::EXACT, 1);
    assert_eq!(c.session().tracked(), 0, "fresh session is empty");
    c.insert_resource(&mut net, "res", "uri://x", &["rock"])
        .unwrap();
    let r_bar = block_key("res", BlockType::ResourceTags);
    assert!(
        !c.session().floor(&r_bar).is_zero(),
        "a completed write must raise the session floor for its key"
    );
    // An eventual read observes too, and behaves exactly like the
    // classic read path.
    let (view, _) = c.get(&mut net, r_bar, 0, Consistency::Eventual).unwrap();
    let entries: Vec<(&str, u64)> = view.as_ref().unwrap().entries().collect();
    assert_eq!(entries, [("rock", 1)]);
    c.reset_session();
    assert_eq!(c.session().tracked(), 0, "reset starts a new session");
}

/// Re-tagging an attached pair (and inserting a single-tag resource)
/// touches `t̂` with an empty append. Holders keep the block's version
/// on an empty append, so the stamp minted for it must not become the
/// session's floor — or the session's own next read would be refused.
#[test]
fn empty_t_hat_touch_leaves_no_phantom_session_floor() {
    let mut net = overlay(12, 22);
    let mut c = client(ApproxPolicy::EXACT, 1);
    c.insert_resource(&mut net, "res", "uri://x", &["rock", "pop"])
        .unwrap();
    let t_hat = block_key("rock", BlockType::TagNeighbors);
    let written = c.session().floor(&t_hat);
    assert!(!written.is_zero(), "the insert wrote rock's arcs");

    let receipt = c.tag(&mut net, "res", "rock").unwrap();
    assert!(!receipt.newly_attached);
    assert_eq!(receipt.cost.lookups, 5, "the touch is still a lookup");
    assert_eq!(
        c.session().floor(&t_hat),
        written,
        "an empty append raises no floor"
    );
    let (view, _) = c
        .get(&mut net, t_hat, 0, Consistency::MonotonicReads)
        .expect("nothing is stale");
    let entries: Vec<(&str, u64)> = view.as_ref().unwrap().entries().collect();
    assert_eq!(entries, [("pop", 1)]);

    // A single-tag insert touches a t̂ block that does not exist yet.
    c.insert_resource(&mut net, "solo", "uri://s", &["jazz"])
        .unwrap();
    let jazz_hat = block_key("jazz", BlockType::TagNeighbors);
    assert!(c.session().floor(&jazz_hat).is_zero());
    let (view, _) = c
        .get(&mut net, jazz_hat, 0, Consistency::MonotonicReads)
        .expect("an absent block is not a stale one");
    assert!(view.is_none());
}

#[test]
fn read_your_writes_escalates_past_a_stale_cache() {
    let mut net = cached_overlay(40, 23);
    let mut writer = client(ApproxPolicy::EXACT, 2);
    let mut reader = client(ApproxPolicy::EXACT, 1);
    writer
        .insert_resource(&mut net, "shared", "uri://s", &["old"])
        .unwrap();
    let r_bar = block_key("shared", BlockType::ResourceTags);

    // The reader's first read pins the pre-write view in its home
    // node's cache.
    let (view, _) = reader
        .get(&mut net, r_bar, 0, Consistency::Eventual)
        .unwrap();
    assert_eq!(view.unwrap().entries().count(), 1);

    // The writer tags the resource from a different home node — the
    // reader's cached view is now stale (no freshness subsystem here
    // to invalidate it).
    writer.tag(&mut net, "shared", "brand-new").unwrap();

    // Without the session floor, the reader keeps serving the stale
    // cached view.
    let (stale, _) = reader
        .get(&mut net, r_bar, 0, Consistency::Eventual)
        .unwrap();
    let stale = stale.unwrap();
    assert!(
        weight(&stale, "brand-new").is_none(),
        "precondition: the eventual read must still serve the stale cache \
         (home node accidentally a holder? pick another seed)"
    );

    // Causal handoff: the reader resumes the writer's session. The
    // session read detects the below-floor serve, escalates to an
    // authoritative re-read, and returns the written view.
    reader.import_session(writer.session());
    let (fresh, cost) = reader
        .get(&mut net, r_bar, 0, Consistency::ReadYourWrites)
        .unwrap();
    assert!(
        weight(&fresh.unwrap(), "brand-new").is_some(),
        "the session read must reflect the imported session's write"
    );
    assert_eq!(
        cost.lookups, 2,
        "one below-floor serve plus one authoritative escalation"
    );

    // The escalation re-pinned a current view: the next session read
    // passes on the first serve.
    let (_, cost) = reader
        .get(&mut net, r_bar, 0, Consistency::MonotonicReads)
        .unwrap();
    assert_eq!(cost.lookups, 1, "no second escalation needed");
}

#[test]
fn unreachable_floor_surfaces_stale_read() {
    let mut net = overlay(12, 24);
    let mut c = client(ApproxPolicy::EXACT, 1);
    c.insert_resource(&mut net, "res", "uri://x", &["rock"])
        .unwrap();
    let r_bar = block_key("res", BlockType::ResourceTags);
    // A forged token claims a write no holder has ever seen: the
    // session read escalates once, then refuses to serve below the
    // floor rather than silently going back in time.
    let mut forged = SessionToken::default();
    forged.observe(
        r_bar,
        dharma_types::VersionStamp::new(u64::MAX, dharma_types::sha1(b"future")),
    );
    c.import_session(&forged);
    let err = c
        .get(&mut net, r_bar, 0, Consistency::MonotonicReads)
        .unwrap_err();
    assert!(
        matches!(err, DharmaError::StaleRead(_)),
        "expected StaleRead, got {err:?}"
    );
    // Eventual reads are unaffected by the floor.
    let (view, _) = c.get(&mut net, r_bar, 0, Consistency::Eventual).unwrap();
    assert!(view.is_some());
}

#[test]
fn tagging_unknown_resource_creates_degenerate_entry() {
    // The paper's Tag(r, t) assumes r exists; the blind first append
    // means an unknown name simply becomes a one-tag resource (no
    // pre-flight existence lookup — that would break Table I's constant).
    let mut net = overlay(8, 16);
    let mut c = client(ApproxPolicy::EXACT, 1);
    let receipt = c.tag(&mut net, "ghost", "rock").unwrap();
    assert_eq!(receipt.neighborhood, 0);
    assert!(receipt.newly_attached);
    assert_eq!(receipt.cost.lookups, 4);
}
