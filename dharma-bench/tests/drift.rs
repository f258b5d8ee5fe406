//! Drift guard: `BENCHMARK.json`, `dharma-bench list` and what the runs
//! report must name the same workloads and metrics, with the same units,
//! directions and bounds.

use std::path::PathBuf;

use dharma_bench::json::Json;
use dharma_bench::spec::{self, valid_name, MetricSpec};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string '{key}' in {v:?}"))
}

fn check_metrics(listed: &[Json], want: &[MetricSpec], bounded: bool) {
    let got: Vec<&str> = listed.iter().map(|m| str_of(m, "name")).collect();
    let names: Vec<&str> = want.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(got, names, "metric names (and order) differ from the spec");
    for (m, s) in listed.iter().zip(want) {
        assert!(valid_name(&s.name), "{}", s.name);
        assert_eq!(str_of(m, "unit"), s.unit, "{}", s.name);
        assert_eq!(str_of(m, "better"), s.better.word(), "{}", s.name);
        let Json::Obj(fields) = m else {
            panic!("metric object")
        };
        if bounded {
            assert_eq!(m.get("bound").and_then(Json::as_f64), s.bound, "{}", s.name);
            assert_eq!(
                fields.len(),
                4,
                "{}: exactly name, unit, better, bound",
                s.name
            );
        } else {
            assert_eq!(fields.len(), 3, "{}: exactly name, unit, better", s.name);
        }
    }
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let b = benchmark_json();
    let Json::Obj(top) = &b else { panic!("object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ],
        "exactly the contract's keys"
    );

    let workloads = b.get("workloads").and_then(Json::as_arr).unwrap();
    let got: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    assert_eq!(got, spec::WORKLOADS.to_vec());

    check_metrics(
        b.get("end_to_end").and_then(Json::as_arr).unwrap(),
        &spec::end_to_end(),
        true,
    );
    check_metrics(
        b.get("per_layer").and_then(Json::as_arr).unwrap(),
        &spec::per_layer(),
        false,
    );
}

#[test]
fn benchmark_json_stays_inside_the_contract() {
    let b = benchmark_json();
    let paths: Vec<&str> = b
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["dharma-bench"]);
    let command: Vec<&str> = b
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert!(command.len() <= 32);
    for arg in &command {
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    assert!(
        command.iter().any(|a| a.starts_with("dharma-bench/")),
        "the command names the benchmark's own manifest"
    );
    let secs = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    let n_workloads = b.get("workloads").and_then(Json::as_arr).unwrap().len();
    assert!((2..=8).contains(&n_workloads));
}

#[test]
fn list_prints_every_name_with_its_unit() {
    let mut out = Vec::new();
    spec::print_list(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    for (w, _) in spec::WORKLOADS {
        assert!(text.contains(w), "{w}");
    }
    for s in spec::end_to_end().into_iter().chain(spec::per_layer()) {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(s.name.as_str()))
            .unwrap_or_else(|| panic!("{} not listed", s.name));
        assert!(line.contains(s.unit), "{}: unit missing", s.name);
    }
}
