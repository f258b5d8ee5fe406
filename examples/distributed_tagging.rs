//! Distributed collaborative tagging: several certified users, each on
//! their own overlay node, concurrently tag a shared corpus; the example
//! then shows that the folksonomy blocks merged consistently (Approximation
//! B's commutative one-bit tokens) and compares naive vs approximated
//! tagging costs on the same workload.
//!
//! ```sh
//! cargo run -p dharma-integration --release --example distributed_tagging
//! ```

use dharma_core::{ApproxPolicy, DharmaClient, DharmaConfig};
use dharma_likir::CertificationAuthority;
use dharma_sim::overlay::{build_overlay, OverlayConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut net = build_overlay(&OverlayConfig {
        nodes: 48,
        seed: 11,
        ..OverlayConfig::default()
    });
    let ca = CertificationAuthority::new(b"community-ca");

    // Three users on three different home nodes, all approximated (k = 2).
    let mut users: Vec<DharmaClient> = ["alice", "bob", "carol"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            DharmaClient::new(
                (i as u32) * 7 + 1,
                ca.register(name, 0),
                DharmaConfig::builder()
                    .policy(ApproxPolicy::paper(2))
                    .seed(i as u64)
                    .build()
                    .expect("example client config is in range"),
            )
        })
        .collect();

    // Alice publishes the corpus.
    let corpus: &[(&str, &[&str])] = &[
        ("ok-computer", &["rock", "alternative", "electronic"]),
        ("kid-a", &["electronic", "experimental", "alternative"]),
        ("homework", &["electronic", "house", "french"]),
    ];
    for (name, tags) in corpus {
        users[0].insert_resource(&mut net, name, &format!("uri://{name}"), tags)?;
    }
    println!("corpus published by alice");

    // Bob and Carol tag the same resource with the same tag — the classic
    // race of §IV-B. With one-bit-token appends the result merges exactly.
    let r1 = users[1].tag(&mut net, "ok-computer", "90s")?;
    let r2 = users[2].tag(&mut net, "ok-computer", "90s")?;
    println!(
        "bob tagged (newly_attached={}), carol tagged (newly_attached={})",
        r1.newly_attached, r2.newly_attached
    );

    // Everyone tags by their own taste.
    users[1].tag(&mut net, "kid-a", "moody")?;
    users[2].tag(&mut net, "homework", "dance")?;
    users[1].tag(&mut net, "homework", "dance")?;
    users[0].tag(&mut net, "homework", "dance")?;

    // Read the merged blocks back through search steps.
    let (nbrs, res, _) = users[0].search_step(&mut net, "90s")?;
    println!(
        "\ntag '90s' now reaches {} resource(s): {:?}",
        res.entries.len(),
        res.entries
            .iter()
            .map(|(n, w)| format!("{n} (u={w})"))
            .collect::<Vec<_>>()
    );
    println!(
        "co-tags of '90s': {:?}",
        nbrs.entries
            .iter()
            .map(|(n, w)| format!("{n} ({w})"))
            .collect::<Vec<_>>()
    );
    let dance = users[0].search_step(&mut net, "dance")?;
    let dance_hit = dance.1.entries.iter().find(|(n, _)| n == "homework");
    println!(
        "u(dance, homework) = {} (three distinct users)",
        dance_hit.map(|(_, w)| *w).unwrap_or(0)
    );

    // Cost comparison on a heavily-tagged resource.
    let many: Vec<String> = (0..30).map(|i| format!("genre-{i}")).collect();
    let many_refs: Vec<&str> = many.iter().map(String::as_str).collect();
    users[0].insert_resource(&mut net, "compilation", "uri://comp", &many_refs)?;

    let mut naive = DharmaClient::new(
        40,
        ca.register("dave", 0),
        DharmaConfig::builder()
            .policy(ApproxPolicy::EXACT)
            .build()
            .expect("example client config is in range"),
    );
    let n = naive.tag(&mut net, "compilation", "mixtape")?;
    let a = users[0].tag(&mut net, "compilation", "various")?;
    println!(
        "\ntagging a 30-tag resource: naive = {} lookups, approximated (k=2) = {} lookups",
        n.cost.lookups, a.cost.lookups
    );
    println!("(the gap is the whole point of DHARMA's Approximation A)");
    Ok(())
}
