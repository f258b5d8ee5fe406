//! Quickstart: stand up a small simulated overlay, publish tagged
//! resources, and run one faceted search — the whole DHARMA stack in ~60
//! lines of user code.
//!
//! ```sh
//! cargo run -p dharma-integration --release --example quickstart
//! ```

use dharma_core::{ApproxPolicy, DharmaClient, DharmaConfig, DhtFacetedSearch};
use dharma_likir::CertificationAuthority;
use dharma_sim::overlay::{build_overlay, OverlayConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 32-node Kademlia overlay on the deterministic network simulator.
    let mut net = build_overlay(&OverlayConfig {
        nodes: 32,
        seed: 7,
        ..OverlayConfig::default()
    });
    println!("overlay up: {} nodes bootstrapped", net.len());

    // 2. A certified identity (the Likir layer) and a tagging client bound
    //    to node 3, running the paper's approximated policy with k = 1.
    let ca = CertificationAuthority::new(b"quickstart-ca");
    let alice = ca.register("alice", 0);
    let mut client = DharmaClient::new(
        3,
        alice,
        DharmaConfig::builder()
            .policy(ApproxPolicy::paper(1))
            .build()
            .expect("quickstart client config is in range"),
    );

    // 3. Publish a few resources with tags. Each insert costs 2 + 2m lookups.
    let corpus: &[(&str, &[&str])] = &[
        ("nevermind", &["music", "rock", "grunge", "90s"]),
        ("master-of-puppets", &["music", "rock", "metal", "80s"]),
        ("paranoid", &["music", "rock", "metal", "70s"]),
        ("kind-of-blue", &["music", "jazz", "modal"]),
        ("a-love-supreme", &["music", "jazz", "spiritual"]),
    ];
    for (name, tags) in corpus {
        let cost = client.insert_resource(&mut net, name, &format!("uri://{name}"), tags)?;
        println!(
            "inserted {name:<18} m={} → {} lookups (2+2m={})",
            tags.len(),
            cost.lookups,
            2 + 2 * tags.len()
        );
    }

    // 4. Collaborative tagging: another user reinforces an annotation.
    let receipt = client.tag(&mut net, "paranoid", "metal")?;
    println!(
        "tagged paranoid/metal: {} lookups (4+k=5), |Tags(r)|={}",
        receipt.cost.lookups, receipt.neighborhood
    );

    // 5. Faceted search: music → rock → metal, narrowing at 2 lookups/step.
    let mut search = DhtFacetedSearch::start(&mut client, &mut net, "music")?;
    println!("\nsearch 'music': {} resources", search.resources().len());
    for tag in ["rock", "metal"] {
        let (tags_left, res_left) = search.select(&mut client, &mut net, tag)?;
        println!("  + '{tag}': {res_left} resources, {tags_left} refinements left");
    }
    let mut hits: Vec<&String> = search.resources().iter().collect();
    hits.sort();
    println!("results: {hits:?}");
    println!("total search cost: {} lookups", search.cost().lookups);

    // 6. Resolve one result to its (Likir-signed) URI and verify authorship.
    let (blob, _) = client.resolve_uri(&mut net, "paranoid")?;
    let record = <dharma_likir::AuthenticatedRecord as dharma_types::WireDecode>::decode_exact(
        &blob.expect("record"),
    )?;
    let uri = record.verify(&ca.verifier(), 0)?;
    println!(
        "paranoid resolves to {} (author: {})",
        String::from_utf8_lossy(uri),
        record.cert.user_id
    );
    Ok(())
}
