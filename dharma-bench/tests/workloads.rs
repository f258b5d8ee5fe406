//! Every workload runs end to end on a small fixed amount of work, in both
//! modes: outputs check out, every metric of the mode is reported, and on
//! the simulator the count metrics repeat exactly.

use dharma_bench::report::{metric_set, result_line, Outcome};
use dharma_bench::spec::WORKLOADS;
use dharma_bench::workloads::{run, RunArgs};

fn args(seed: u64, ops: u64, trace: bool) -> RunArgs {
    RunArgs {
        seed,
        seconds: 30.0,
        max_ops: Some(ops),
        trace,
        setups: 1,
        out_dir: None,
    }
}

fn check(workload: &str, out: &Outcome, trace: bool) {
    assert!(
        out.correct,
        "{workload} (trace {trace}): output check failed\n{:?}",
        out.notes
    );
    assert!(out.attempted > 0);
    for s in metric_set(trace) {
        let v = out.metrics.get(&s.name);
        if trace {
            // A layer that does no work in a workload reads 0 there.
            assert!(v.unwrap_or(0.0).is_finite(), "{}", s.name);
        } else {
            let v = v.unwrap_or_else(|| panic!("{workload} did not report {}", s.name));
            assert!(
                v > 0.0 || s.name == "cpu_us_per_op",
                "{workload}: {} is {v}",
                s.name
            );
        }
    }
    assert!(result_line(out, trace).starts_with("{\"correct\": true"));
}

#[test]
fn gated_runs_report_every_end_to_end_metric() {
    for (w, _) in WORKLOADS {
        let out = run(w, &args(5, 300, false)).unwrap();
        check(w, &out, false);
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_a_ledger() {
    for (w, _) in WORKLOADS {
        let out = run(w, &args(5, 360, true)).unwrap();
        check(w, &out, true);
        assert!(
            out.notes.iter().any(|n| n.starts_with("# ledger:")),
            "{w}: no ledger printed"
        );
        assert!(out.metrics.get("kad.codec.decode_ns.find").unwrap() > 0.0);
        assert!(out.metrics.get("kad.storage.read_filtered_hub_ns").unwrap() > 0.0);
    }
}

#[test]
fn simulated_counts_repeat_exactly_and_seeds_differ() {
    for w in ["tag_plain", "mixed_full"] {
        let a = run(w, &args(9, 260, false)).unwrap();
        let b = run(w, &args(9, 260, false)).unwrap();
        let c = run(w, &args(10, 260, false)).unwrap();
        for name in ["lookups_per_op", "msgs_per_op", "bytes_per_op"] {
            let (x, y) = (a.metrics.get(name).unwrap(), b.metrics.get(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{w}: {name} {x} vs {y}");
        }
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        assert_ne!(
            a.metrics.get("bytes_per_op").unwrap().to_bits(),
            c.metrics.get("bytes_per_op").unwrap().to_bits(),
            "{w}: another seed must give other inputs"
        );
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(run("no_such_workload", &args(1, 10, false)).is_err());
}
