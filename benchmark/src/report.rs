//! What a workload run yields and how it is printed: every metric by
//! name with its unit and sample count, then one JSON result line.

use std::fmt::Write as _;

use crate::spec::{Better, END_TO_END, PER_LAYER};

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// A workload run that passed its correctness gate.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or commands) attempted, and those that got no answer.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Remarks printed with the metrics (`generator_bound`, backlog, …).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
        });
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The unit of a metric of either table.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The names a run must report: end-to-end untraced, per-layer traced.
#[must_use]
pub fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The human-readable table: `name value unit (n=samples)`.
#[must_use]
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = String::new();
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "workload {workload}: attempted {} failed {} error_rate {error_rate} ratio",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        let _ = writeln!(
            out,
            "  {:<32} {:>16.4} {:<6} (n={})",
            m.name,
            m.value,
            unit_of(m.name),
            m.samples
        );
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, unit_of(m.name))
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The result line of a run whose gate failed: no metrics.
pub const FAILED_LINE: &str =
    "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";

/// Compares two runs of one workload metric by metric: both values,
/// their relative difference in the worsening direction, and the bound.
/// Returns the table and whether every pair agrees within its bound.
#[must_use]
pub fn compare(workload: &str, a: &Outcome, b: &Outcome) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for m in END_TO_END {
        let (Some(x), Some(y)) = (a.get(m.name), b.get(m.name)) else { continue };
        let diff = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
        let within = diff <= m.bound;
        ok &= within;
        let _ = writeln!(
            out,
            "  {workload} {:<16} {x:>14.4} {y:>14.4} {} diff {:.1}% bound {:.0}% ({} is better){}",
            m.name,
            m.unit,
            diff * 100.0,
            m.bound * 100.0,
            if m.better == Better::Lower { "lower" } else { "higher" },
            if within { "" } else { "  DISAGREE" }
        );
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 10, failed: 0, ..Outcome::default() };
        o.put("setup_s", 0.8127, 3);
        o.put("peak_cps", f64::NAN, 0);
        assert_eq!(
            result_line(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"peak_cps\": {\"value\": 0, \"unit\": \"cmd/s\"}}}"
        );
    }

    #[test]
    fn compare_flags_a_pair_outside_its_bound() {
        let run = |peak: f64| {
            let mut o = Outcome::default();
            o.put("peak_cps", peak, 5);
            o
        };
        assert!(compare("w", &run(50_000.0), &run(52_000.0)).1);
        let (table, ok) = compare("w", &run(50_000.0), &run(70_000.0));
        assert!(!ok && table.contains("DISAGREE"));
    }
}
