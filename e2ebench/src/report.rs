//! The result line the benchmark prints last.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests sent, or Monte-Carlo solves run).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The metrics, in the order of their name table.
    pub metrics: Vec<Metric>,
    /// What went wrong, for the log (empty when correct).
    pub failures: Vec<String>,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the metric list for `table` from `(name, value)` pairs; names of
/// the table that `values` lacks report 0 (a layer the workload does not
/// run).
pub fn metrics_from(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
            unit,
        })
        .collect()
}
