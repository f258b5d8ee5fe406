//! The repository implements the §III maintenance semantics twice: once in
//! the in-memory model (`dharma-folksonomy`, what the paper's simulations
//! use) and once through DHT block operations (`dharma-core` over
//! `dharma-kademlia`). This test drives the *same* workload through both
//! and asserts the resulting graphs are identical — the strongest guarantee
//! that the distributed mapping of §IV faithfully implements the model.

use dharma_core::{ApproxPolicy, DharmaClient, DharmaConfig};
use dharma_folksonomy::{Folksonomy, ResId, TagId};
use dharma_likir::CertificationAuthority;
use dharma_sim::overlay::{build_overlay, OverlayConfig};
use dharma_types::{block_key, BlockType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A randomized workload: resource inserts followed by tagging events.
struct Workload {
    inserts: Vec<(String, Vec<String>)>,
    tags: Vec<(String, String)>,
}

fn workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let tag_pool: Vec<String> = (0..14).map(|i| format!("tag-{i}")).collect();
    let mut inserts = Vec::new();
    for r in 0..10 {
        let count = rng.gen_range(1..5);
        let mut tags: Vec<String> = (0..count)
            .map(|_| tag_pool[rng.gen_range(0..tag_pool.len())].clone())
            .collect();
        tags.sort();
        tags.dedup();
        inserts.push((format!("res-{r}"), tags));
    }
    let mut tags = Vec::new();
    for _ in 0..40 {
        let r = rng.gen_range(0..inserts.len());
        let t = tag_pool[rng.gen_range(0..tag_pool.len())].clone();
        tags.push((inserts[r].0.clone(), t));
    }
    Workload { inserts, tags }
}

#[test]
fn exact_policy_model_and_dht_agree_arc_for_arc() {
    let w = workload(77);

    // --- model side -----------------------------------------------------
    let mut interner = dharma_folksonomy::Interner::new();
    let mut res_interner = dharma_folksonomy::Interner::new();
    let mut model = Folksonomy::new(ApproxPolicy::EXACT);
    let mut mrng = StdRng::seed_from_u64(0);
    for (r, tags) in &w.inserts {
        let rid = ResId(res_interner.intern(r));
        let tids: Vec<TagId> = tags.iter().map(|t| TagId(interner.intern(t))).collect();
        model.insert_resource(rid, &tids);
    }
    for (r, t) in &w.tags {
        let rid = ResId(res_interner.intern(r));
        let tid = TagId(interner.intern(t));
        model.tag(rid, tid, &mut mrng);
    }

    // --- DHT side ---------------------------------------------------------
    let mut net = build_overlay(&OverlayConfig {
        nodes: 24,
        seed: 500,
        ..OverlayConfig::default()
    });
    let ca = CertificationAuthority::new(b"equivalence");
    let mut client = DharmaClient::new(
        1,
        ca.register("driver", 0),
        DharmaConfig::builder()
            .policy(ApproxPolicy::EXACT)
            .build()
            .expect("equivalence client config is in range"),
    );
    for (r, tags) in &w.inserts {
        let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
        client
            .insert_resource(&mut net, r, &format!("uri://{r}"), &refs)
            .unwrap();
    }
    for (r, t) in &w.tags {
        client.tag(&mut net, r, t).unwrap();
    }

    // --- compare every t̂ block against the model's FG -------------------
    let read_block = |client: &mut DharmaClient,
                      net: &mut dharma_net::SimNet<dharma_kademlia::KademliaNode>,
                      tag: &str|
     -> Vec<(String, u64)> {
        // A search step fetches t̂ unfiltered enough for this corpus
        // (search_top_n default 100 > any neighborhood here).
        let (nbrs, _, _) = client.search_step(net, tag).unwrap();
        nbrs.entries().map(|(n, w)| (n.to_owned(), w)).collect()
    };

    for (t1_name, t1_id) in interner.iter().map(|(i, n)| (n.to_owned(), TagId(i))) {
        let dht_arcs = read_block(&mut client, &mut net, &t1_name);
        let model_arcs: Vec<(String, u64)> = model
            .fg()
            .neighbors(t1_id)
            .map(|(t2, w)| (interner.name(t2.0).to_owned(), w))
            .collect();
        let mut dht_sorted = dht_arcs.clone();
        dht_sorted.sort();
        let mut model_sorted = model_arcs.clone();
        model_sorted.sort();
        assert_eq!(
            dht_sorted, model_sorted,
            "t̂ block of '{t1_name}' diverges from the model FG"
        );
    }

    // --- and every t̄ / r̄ block against the model's TRG ------------------
    for (r_name, r_id) in res_interner.iter().map(|(i, n)| (n.to_owned(), ResId(i))) {
        let key = block_key(&r_name, BlockType::ResourceTags);
        let op = net.with_node(2, |n, ctx| n.get(ctx, key, 0));
        net.run_until_idle(u64::MAX);
        let completions = net.take_completions();
        let out = completions.iter().find(|(id, _)| *id == op).unwrap();
        let dharma_kademlia::KadOutput::Value { value: Some(v), .. } = &out.1 else {
            panic!("missing r̄ block for {r_name}");
        };
        let mut dht: Vec<(String, u64)> = v
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.weight))
            .collect();
        dht.sort();
        let mut model_edges: Vec<(String, u64)> = model
            .trg()
            .tags_of(r_id)
            .map(|(t, u)| (interner.name(t.0).to_owned(), u64::from(u)))
            .collect();
        model_edges.sort();
        assert_eq!(dht, model_edges, "r̄ block of '{r_name}' diverges");
    }
}

#[test]
fn unit_b_policy_also_agrees_when_k_covers_all() {
    // With k larger than any |Tags(r)| and the unit-increment B policy,
    // Approximation A never truncates, so model and DHT must again agree
    // (covering the B-policy code path end to end).
    let w = workload(78);
    let policy = ApproxPolicy {
        connection_k: Some(1_000),
        b_policy: dharma_core::BPolicy::UnitIncrement,
    };

    let mut interner = dharma_folksonomy::Interner::new();
    let mut res_interner = dharma_folksonomy::Interner::new();
    let mut model = Folksonomy::new(policy);
    let mut mrng = StdRng::seed_from_u64(0);
    for (r, tags) in &w.inserts {
        let rid = ResId(res_interner.intern(r));
        let tids: Vec<TagId> = tags.iter().map(|t| TagId(interner.intern(t))).collect();
        model.insert_resource(rid, &tids);
    }
    for (r, t) in &w.tags {
        model.tag(
            ResId(res_interner.intern(r)),
            TagId(interner.intern(t)),
            &mut mrng,
        );
    }

    let mut net = build_overlay(&OverlayConfig {
        nodes: 24,
        seed: 501,
        ..OverlayConfig::default()
    });
    let ca = CertificationAuthority::new(b"equivalence");
    let mut client = DharmaClient::new(
        1,
        ca.register("driver", 0),
        DharmaConfig::builder()
            .policy(policy)
            .build()
            .expect("equivalence client config is in range"),
    );
    for (r, tags) in &w.inserts {
        let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
        client
            .insert_resource(&mut net, r, &format!("uri://{r}"), &refs)
            .unwrap();
    }
    for (r, t) in &w.tags {
        client.tag(&mut net, r, t).unwrap();
    }

    for (t1_name, t1_id) in interner.iter().map(|(i, n)| (n.to_owned(), TagId(i))) {
        let (nbrs, _, _) = client.search_step(&mut net, &t1_name).unwrap();
        let mut dht: Vec<(String, u64)> = nbrs.entries().map(|(n, w)| (n.to_owned(), w)).collect();
        dht.sort();
        let mut model_arcs: Vec<(String, u64)> = model
            .fg()
            .neighbors(t1_id)
            .map(|(t2, w)| (interner.name(t2.0).to_owned(), w))
            .collect();
        model_arcs.sort();
        assert_eq!(dht, model_arcs, "t̂ of '{t1_name}' diverges under unit-B");
    }
}
