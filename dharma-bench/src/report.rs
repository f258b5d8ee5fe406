//! What a run reports and how it is printed: a table of every metric by
//! name with its unit, then the one JSON line the driver reads.

use std::collections::BTreeMap;

use crate::json::quote;
use crate::spec::{self, MetricSpec};

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name` (non-finite values are recorded as 0:
    /// the result line must be plain JSON numbers).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0
            .insert(name.to_owned(), if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Logical operations attempted.
    pub attempted: u64,
    /// Logical operations that failed.
    pub failed: u64,
    /// The metrics of the run's mode (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Free-form lines for the human reader (sample counts, the ledger).
    pub notes: Vec<String>,
}

/// The metric set a run of this mode must report.
pub fn metric_set(trace: bool) -> Vec<MetricSpec> {
    if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = metric_set(trace)
        .iter()
        .map(|s| {
            let value = outcome.metrics.get(&s.name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&s.name),
                value,
                quote(s.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Prints the notes, the metric table and — last — the result line.
pub fn print(outcome: &Outcome, workload: &str, trace: bool, out: &mut impl std::io::Write) {
    let mut text = String::new();
    for note in &outcome.notes {
        text.push_str(note);
        text.push('\n');
    }
    text.push_str(&format!(
        "# {workload}: {} metrics ({})\n",
        if trace { "per-layer" } else { "end-to-end" },
        if outcome.correct {
            "outputs correct"
        } else {
            "OUTPUT CHECK FAILED"
        }
    ));
    for s in metric_set(trace) {
        let value = outcome.metrics.get(&s.name).unwrap_or(0.0);
        text.push_str(&format!("{:<44} {:>16.4} {}\n", s.name, value, s.unit));
    }
    text.push_str(&result_line(outcome, trace));
    text.push('\n');
    // One write: nothing may follow the result line on stdout.
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .expect("stdout is writable");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        for s in spec::end_to_end() {
            outcome.metrics.set(&s.name, 1.5);
        }
        outcome.metrics.set("not_in_spec", 9.0);
        let v = Json::parse(&result_line(&outcome, false)).unwrap();
        let Json::Obj(top) = &v else { panic!("object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics object")
        };
        let want: Vec<String> = spec::end_to_end().into_iter().map(|s| s.name).collect();
        let mut got: Vec<String> = metrics.keys().cloned().collect();
        let mut want_sorted = want.clone();
        want_sorted.sort();
        got.sort();
        assert_eq!(got, want_sorted);
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn non_finite_values_become_zero() {
        let mut m = Metrics::default();
        m.set("x", f64::NAN);
        m.set("y", f64::INFINITY);
        assert_eq!(m.get("x"), Some(0.0));
        assert_eq!(m.get("y"), Some(0.0));
    }
}
