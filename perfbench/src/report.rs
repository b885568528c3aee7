//! The benchmark's result: output-check tally plus named metrics, printed
//! as a human-readable listing followed by one JSON line.

use std::fmt::Write as _;

use crate::measure::Checks;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a metric.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Output checks made during the run.
    pub checks: Checks,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// One metric per line: name, value, unit.
    pub fn listing(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:width$}  {:>16.6}  {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "checks: {} attempted, {} failed",
            self.checks.attempted, self.checks.failed
        );
        out
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.checks.attempted,
            self.checks.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values have no JSON spelling; none is expected, but
            // a NaN must not make the line unparseable.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_result_keys() {
        let report = Report {
            checks: Checks {
                attempted: 3,
                failed: 0,
            },
            metrics: vec![metric("setup_s", 0.25, "s"), metric("x", 2.0, "count")],
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
