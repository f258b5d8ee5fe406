//! `dharma-bench check`: the A/A gate. Every workload runs twice with the
//! same seed and the same fixed amount of work, each run in a process of
//! its own (peak memory is per process). On the simulated workloads the
//! count metrics must repeat **bit for bit**; every other end-to-end
//! metric must agree within its bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::spec::WORKLOADS;

/// End-to-end metrics that are pure functions of the seed and the work
/// done on a simulated workload.
pub const EXACT_ON_SIM: [&str; 3] = ["lookups_per_op", "msgs_per_op", "bytes_per_op"];

/// Workloads that run on the simulator (deterministic in the seed).
pub fn is_simulated(workload: &str) -> bool {
    workload != "udp_search"
}

/// One parsed result line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the last line of a run's standard output.
pub fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let v = Json::parse(line)?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("result line lacks '{k}'"))
    };
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        return Err("result line lacks 'metrics'".into());
    };
    Ok(RunResult {
        correct: v.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics: metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// The end-to-end bounds `BENCHMARK.json` records, by metric name.
pub fn read_bounds(benchmark_json: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let v = Json::parse(&text)?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks 'end_to_end'")?;
    list.iter()
        .map(|e| {
            Ok((
                e.get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                e.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            ))
        })
        .collect()
}

/// Compares two runs of one workload. Returns the disagreements.
pub fn compare(
    workload: &str,
    a: &RunResult,
    b: &RunResult,
    bounds: &BTreeMap<String, f64>,
) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, r) in [("first", a), ("second", b)] {
        if !r.correct {
            bad.push(format!("{workload}: the {name} run's output check failed"));
        }
    }
    if is_simulated(workload) && (a.attempted, a.failed) != (b.attempted, b.failed) {
        bad.push(format!(
            "{workload}: attempted/failed differ: {}/{} vs {}/{}",
            a.attempted, a.failed, b.attempted, b.failed
        ));
    }
    for (name, &bound) in bounds {
        let (Some(&x), Some(&y)) = (a.metrics.get(name), b.metrics.get(name)) else {
            bad.push(format!("{workload}: metric {name} missing from a run"));
            continue;
        };
        if is_simulated(workload) && EXACT_ON_SIM.contains(&name.as_str()) {
            if x.to_bits() != y.to_bits() {
                bad.push(format!(
                    "{workload}: {name} must repeat exactly: {x} vs {y}"
                ));
            }
        } else {
            let base = x.abs().min(y.abs());
            if base > 0.0 && (x - y).abs() / base > bound {
                bad.push(format!(
                    "{workload}: {name} differs by {:.1}% (bound {:.1}%): {x} vs {y}",
                    (x - y).abs() / base * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    bad
}

/// Runs the gate: each workload twice with `seed` and `ops` operations,
/// as child processes of this executable. Returns the disagreements.
pub fn run_check(seed: u64, ops: u64, benchmark_json: &Path) -> Result<Vec<String>, String> {
    let bounds = read_bounds(benchmark_json)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut bad = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string(), "--ops", &ops.to_string()])
                .output()
                .map_err(|e| format!("could not run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            runs.push(parse_result(&stdout).map_err(|e| {
                format!(
                    "{workload}: {e} (exit {:?}): {}",
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr)
                )
            })?);
        }
        let found = compare(workload, &runs[0], &runs[1], &bounds);
        println!(
            "check {workload:<14} {} ({} ops; {})",
            if found.is_empty() { "ok" } else { "FAILED" },
            runs[0].attempted,
            if is_simulated(workload) {
                "count metrics bit-identical"
            } else {
                "loopback: counts compared within bounds"
            }
        );
        bad.extend(found);
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(pairs: &[(&str, f64)]) -> RunResult {
        RunResult {
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    fn bounds() -> BTreeMap<String, f64> {
        [("msgs_per_op", 0.05), ("ops_per_s", 0.10)]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect()
    }

    #[test]
    fn exact_metrics_must_be_bit_identical_on_the_simulator() {
        let a = result(&[("msgs_per_op", 333.25), ("ops_per_s", 1000.0)]);
        let b = result(&[("msgs_per_op", 333.25000000001), ("ops_per_s", 1050.0)]);
        let bad = compare("tag_plain", &a, &b, &bounds());
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("msgs_per_op"));
        // The same drift is inside the 5% bound on the loopback workload.
        assert!(compare("udp_search", &a, &b, &bounds()).is_empty());
    }

    #[test]
    fn timed_metrics_agree_within_their_bound() {
        let a = result(&[("msgs_per_op", 1.0), ("ops_per_s", 1000.0)]);
        let b = result(&[("msgs_per_op", 1.0), ("ops_per_s", 1200.0)]);
        let bad = compare("tag_plain", &a, &b, &bounds());
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("ops_per_s"));
    }

    #[test]
    fn a_failed_output_check_fails_the_gate() {
        let a = result(&[("msgs_per_op", 1.0), ("ops_per_s", 1.0)]);
        let mut b = a.clone();
        b.correct = false;
        assert!(!compare("mixed_full", &a, &b, &bounds()).is_empty());
    }

    #[test]
    fn result_lines_parse() {
        let r = parse_result(
            "# note\n{\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": {\"x\": {\"value\": 2.5, \"unit\": \"s\"}}}\n",
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (7, 1));
        assert_eq!(r.metrics.get("x"), Some(&2.5));
        assert!(parse_result("not json").is_err());
    }
}
