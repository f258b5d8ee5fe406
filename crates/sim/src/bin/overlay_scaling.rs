//! **A3 — overlay validation**: Kademlia lookup message cost vs network
//! size. Lookups should cost `O(log n)` messages; this calibrates the
//! substrate independently of DHARMA.

use dharma_sim::output::{f2, Col, Table};
use dharma_sim::overlay::{build_overlay, OverlayConfig};
use dharma_sim::ExpArgs;
use dharma_types::sha1;

/// `(nodes, mean datagrams per GET, mean datagrams per PUT)`.
type Row = (usize, f64, f64);
type C = Col<Row>;

const COLUMNS: &[C] = &[
    C::new("nodes", "nodes", |r| r.0.to_string()),
    C::new("mean msgs/GET", "get_msgs", |r| f2(r.1)),
    C::new("mean msgs/PUT", "put_msgs", |r| f2(r.2)),
    C::new("log2(n)", "log2n", |r| f2((r.0 as f64).log2())),
];

fn main() {
    let args = ExpArgs::parse();
    let mut table = Table::new(COLUMNS);
    for nodes in [16usize, 32, 64, 128, 256, 512] {
        let mut net = build_overlay(&OverlayConfig {
            nodes,
            seed: args.seed,
            ..OverlayConfig::default()
        });

        // Store then fetch a set of keys from random homes.
        let trials = 24u32;
        let mut put_msgs = 0u64;
        let mut get_msgs = 0u64;
        for i in 0..trials {
            let key = sha1(format!("scaling-{nodes}-{i}").as_bytes());
            let home = (i % (nodes as u32 - 1)) + 1;
            let before = net.counters().sent();
            net.with_node(home, |n, ctx| n.put_blob(ctx, key, vec![0u8; 32]));
            net.run_until_idle(u64::MAX);
            put_msgs += net.counters().sent() - before;

            let reader = ((i + 7) % (nodes as u32 - 1)) + 1;
            let before = net.counters().sent();
            net.with_node(reader, |n, ctx| n.get_view(ctx, key, 0, false));
            net.run_until_idle(u64::MAX);
            get_msgs += net.counters().sent() - before;
        }
        net.take_completions();

        let get = get_msgs as f64 / f64::from(trials);
        let put = put_msgs as f64 / f64::from(trials);
        table.rows.push((nodes, get, put));
    }
    table.print(
        "Overlay scaling — messages per lookup vs network size",
        "(expected: sub-linear growth tracking log2(n), validating the O(log n) lookup cost)",
    );
    table.write_csv(&args.out, "overlay_scaling", "scaling.csv");
}
