//! Metric names, units, and the result line.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|m| m.name != name), "{name} reported twice");
        self.0.push(Metric { name, value, unit });
    }

    /// One `name = value unit` line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.0.iter().map(|m| format!("{:<28} = {} {}", m.name, m.value, m.unit)).collect()
    }
}

/// The final line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.25, "s");
        m.add("jobs_per_s", 3.0, "1/s");
        assert_eq!(
            result_json(true, 4, 1, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"jobs_per_s\": {\"value\": 3, \"unit\": \"1/s\"}}}"
        );
    }
}
