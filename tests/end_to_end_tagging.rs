//! End-to-end integration: identity layer + Kademlia overlay + DHARMA
//! client + faceted search, across multiple users and home nodes.

use dharma_core::{ApproxPolicy, DharmaClient, DharmaConfig, DhtFacetedSearch};
use dharma_likir::{AuthenticatedRecord, CertificationAuthority};
use dharma_sim::overlay::{build_overlay, OverlayConfig};
use dharma_types::WireDecode;

#[test]
fn full_stack_publish_tag_search_resolve() {
    let mut net = build_overlay(&OverlayConfig {
        nodes: 40,
        seed: 100,
        ..OverlayConfig::default()
    });
    let ca = CertificationAuthority::new(b"e2e");
    let mut alice = DharmaClient::new(
        1,
        ca.register("alice", 0),
        DharmaConfig::builder()
            .policy(ApproxPolicy::paper(2))
            .build()
            .expect("e2e client config is in range"),
    );
    let mut bob = DharmaClient::new(
        17,
        ca.register("bob", 0),
        DharmaConfig::builder()
            .policy(ApproxPolicy::paper(2))
            .seed(9)
            .build()
            .expect("e2e client config is in range"),
    );

    // Alice publishes; Bob tags.
    alice
        .insert_resource(
            &mut net,
            "dark-side",
            "uri://dsotm",
            &["rock", "prog", "70s"],
        )
        .unwrap();
    alice
        .insert_resource(
            &mut net,
            "wish-you-were-here",
            "uri://wywh",
            &["rock", "prog"],
        )
        .unwrap();
    alice
        .insert_resource(&mut net, "thriller", "uri://thriller", &["pop", "80s"])
        .unwrap();
    let receipt = bob.tag(&mut net, "dark-side", "psychedelic").unwrap();
    assert!(receipt.newly_attached);
    assert_eq!(receipt.neighborhood, 3);

    // Bob searches from a different node and finds Alice's content.
    let mut search = DhtFacetedSearch::start(&mut bob, &mut net, "rock").unwrap();
    assert_eq!(search.resources().len(), 2);
    let (_tags, res) = search.select(&mut bob, &mut net, "prog").unwrap();
    assert_eq!(res, 2);
    assert!(search.resources().contains("dark-side"));
    assert!(search.resources().contains("wish-you-were-here"));
    assert!(!search.resources().contains("thriller"));

    // Resolution yields the signed URI, verifiable against the CA.
    let (blob, _) = bob.resolve_uri(&mut net, "dark-side").unwrap();
    let record = AuthenticatedRecord::decode_exact(&blob.unwrap()).unwrap();
    assert_eq!(record.cert.user_id, "alice");
    assert_eq!(record.verify(&ca.verifier(), 0).unwrap(), b"uri://dsotm");
}

#[test]
fn concurrent_tagging_merges_commutatively() {
    // The §IV-B race: many users tag the same (r, t) pair "simultaneously"
    // (interleaved operations from different home nodes). Approximation B's
    // token appends must merge to the exact user count.
    let mut net = build_overlay(&OverlayConfig {
        nodes: 30,
        seed: 101,
        ..OverlayConfig::default()
    });
    let ca = CertificationAuthority::new(b"e2e");
    let mut publisher = DharmaClient::new(1, ca.register("publisher", 0), DharmaConfig::default());
    publisher
        .insert_resource(&mut net, "album", "uri://album", &["seed"])
        .unwrap();

    let mut taggers: Vec<DharmaClient> = (0..5)
        .map(|i| {
            DharmaClient::new(
                (i * 5 + 2) as u32,
                ca.register(&format!("user-{i}"), 0),
                DharmaConfig::builder()
                    .policy(ApproxPolicy::paper(1))
                    .seed(i as u64)
                    .build()
                    .expect("e2e client config is in range"),
            )
        })
        .collect();
    for tagger in &mut taggers {
        tagger.tag(&mut net, "album", "shared-tag").unwrap();
    }

    // u(shared-tag, album) must equal the number of tagging users.
    let (_, res, _) = publisher.search_step(&mut net, "shared-tag").unwrap();
    let entry = res.entries().find(|&(n, _)| n == "album").unwrap();
    assert_eq!(entry.1, 5, "five token appends must merge to weight 5");
}

#[test]
fn search_respects_index_side_filtering() {
    // A tag with many neighbors: the search step must return at most the
    // configured top-N, flagged as truncated.
    let mut net = build_overlay(&OverlayConfig {
        nodes: 24,
        seed: 102,
        ..OverlayConfig::default()
    });
    let ca = CertificationAuthority::new(b"e2e");
    let mut client = DharmaClient::new(
        2,
        ca.register("alice", 0),
        DharmaConfig::builder()
            .search_top_n(5)
            .build()
            .expect("e2e client config is in range"),
    );
    let tags: Vec<String> = (0..12).map(|i| format!("co-{i}")).collect();
    let mut all: Vec<&str> = tags.iter().map(String::as_str).collect();
    all.push("hub");
    client
        .insert_resource(&mut net, "res", "uri://r", &all)
        .unwrap();
    let (nbrs, _, cost) = client.search_step(&mut net, "hub").unwrap();
    assert_eq!(cost.lookups, 2);
    assert_eq!(
        nbrs.entries().count(),
        5,
        "index-side filtering caps the reply"
    );
    assert!(nbrs.truncated());
}
