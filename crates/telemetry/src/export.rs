//! Metric exporters: Prometheus text exposition and a JSON snapshot.
//!
//! Both exporters consume a [`MetricsSnapshot`]: a plain list of
//! described values, built by whoever owns the numbers (the service
//! derives one from its report, `ServiceReport::snapshot` in
//! `orion-core`). A sample's kind is its [`MetricValue`] variant, and
//! every sample appears even when zero.
//!
//! # Prometheus text format
//!
//! [`prometheus_text`] follows the text exposition format: per metric a
//! `# HELP` and `# TYPE` line, then the samples. Metric names are
//! `/`-separated paths; Prometheus names must match
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, so names are prefixed with `orion_` and
//! every unsupported character becomes `_`
//! (`cache/shard0/hits` → `orion_cache_shard0_hits`). Histograms render
//! cumulative `_bucket{le="..."}` series at each non-empty log bucket's
//! inclusive upper bound, plus `_sum` and `_count`.
//!
//! # JSON snapshot
//!
//! [`snapshot_json`] renders a flat object keyed by the *snapshot* names
//! (untranslated). Counters and gauges are scalars; histograms are
//! summary objects (`count/min/p50/p90/p99/max/mean`) — the full bucket
//! table stays internal to keep snapshots diff-friendly.

use std::fmt::Write as _;

use crate::escape_json;
use crate::hist::{bucket_bounds, Histogram};

/// Static description of one exported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDesc {
    /// Full `/`-separated name, e.g. `"service/launch_cycles"`.
    pub name: &'static str,
    /// One-line human description (Prometheus `HELP`).
    pub help: &'static str,
    /// Unit suffix for documentation (`"cycles"`, `"us"`, `"entries"`,
    /// `""` for dimensionless).
    pub unit: &'static str,
}

/// The value of one metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically non-decreasing count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(f64),
    /// Sample distribution ([`Histogram`]).
    Histogram(Histogram),
}

/// One `(description, value)` row of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    pub desc: MetricDesc,
    pub value: MetricValue,
}

impl MetricSample {
    /// The sample `value`, described by `name`, `help` and `unit`.
    #[must_use]
    pub fn new(
        name: &'static str,
        help: &'static str,
        unit: &'static str,
        value: MetricValue,
    ) -> Self {
        MetricSample { desc: MetricDesc { name, help, unit }, value }
    }
}

/// A list of metric samples, rendered in order. Input to the exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// The value of the sample named `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.samples.iter().find(|s| s.desc.name == name).map(|s| &s.value)
    }
}

/// Translate a snapshot metric name to a valid Prometheus metric name.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("orion_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prometheus_escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

fn write_histogram_series(out: &mut String, name: &str, h: &Histogram) {
    // Cumulative buckets over the non-empty log buckets. Prometheus
    // reads `le` as "≤", so each row carries its bucket's inclusive
    // integer bound: the exclusive bound − 1, or `u64::MAX` for the
    // saturated top bucket (which holds `u64::MAX` itself).
    let mut cum = 0u64;
    for (idx, count) in h.nonzero_buckets() {
        cum += count;
        let (_, hi) = bucket_bounds(idx);
        let le = if hi == u64::MAX { hi } else { hi - 1 };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Render a snapshot in the Prometheus text exposition format.
#[must_use]
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(snap.samples.len() * 96 + 64);
    for sample in &snap.samples {
        let name = prometheus_name(sample.desc.name);
        let kind = match sample.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        let mut help = prometheus_escape_help(sample.desc.help);
        if !sample.desc.unit.is_empty() {
            if !help.is_empty() {
                help.push(' ');
            }
            let _ = write!(help, "[{}]", sample.desc.unit);
        }
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        match &sample.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{name} ");
                write_f64(&mut out, *v);
                out.push('\n');
            }
            MetricValue::Histogram(h) => write_histogram_series(&mut out, &name, h),
        }
    }
    out
}

/// Render a snapshot as a flat JSON object keyed by metric names.
#[must_use]
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(snap.samples.len() * 64 + 16);
    out.push_str("{\n");
    for (i, sample) in snap.samples.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        escape_json(&mut out, sample.desc.name);
        out.push_str(": ");
        match &sample.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            MetricValue::Histogram(h) => {
                let s = h.summary();
                let _ = write!(
                    out,
                    "{{\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{}}}",
                    s.count, s.min, s.p50, s.p90, s.p99, s.max, s.mean
                );
            }
        }
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            samples: vec![
                MetricSample::new(
                    "cache/shard0/hits",
                    "Shard 0 cache hits",
                    "",
                    MetricValue::Counter(5),
                ),
                MetricSample::new("cache/entries", "Resident entries", "", MetricValue::Gauge(2.0)),
                MetricSample::new(
                    "service/launch_cycles",
                    "Per-launch cost",
                    "cycles",
                    MetricValue::Histogram(histogram(&[10, 10, 3000])),
                ),
            ],
        }
    }

    #[test]
    fn names_translate_to_prometheus_charset() {
        assert_eq!(prometheus_name("cache/shard0/hits"), "orion_cache_shard0_hits");
        assert_eq!(prometheus_name("a-b c"), "orion_a_b_c");
    }

    #[test]
    fn prometheus_text_has_help_type_and_samples() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# HELP orion_cache_shard0_hits Shard 0 cache hits"), "{text}");
        assert!(text.contains("# TYPE orion_cache_shard0_hits counter"), "{text}");
        assert!(text.contains("orion_cache_shard0_hits 5"), "{text}");
        assert!(text.contains("# TYPE orion_cache_entries gauge"), "{text}");
        assert!(text.contains("orion_cache_entries 2"), "{text}");
        assert!(text.contains("# TYPE orion_service_launch_cycles histogram"), "{text}");
        // Unit folded into HELP.
        assert!(text.contains("Per-launch cost [cycles]"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let text = prometheus_text(&sample_snapshot());
        // Two samples at 10 → the value-10 bucket (inclusive bound 10) holds 2.
        assert!(text.contains("orion_service_launch_cycles_bucket{le=\"10\"} 2"), "{text}");
        assert!(text.contains("orion_service_launch_cycles_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("orion_service_launch_cycles_sum 3020"), "{text}");
        assert!(text.contains("orion_service_launch_cycles_count 3"), "{text}");
        // Cumulative: the +Inf count appears after the finite buckets.
        let inf_pos = text.find("le=\"+Inf\"").unwrap();
        let first_pos = text.find("le=\"10\"").unwrap();
        assert!(first_pos < inf_pos);
    }

    #[test]
    fn le_bounds_are_inclusive() {
        // `le` means "≤": a sample equal to the bound is counted in its row.
        let h = histogram(&[10, 11, u64::MAX]);
        let text = prometheus_text(&MetricsSnapshot {
            samples: vec![MetricSample::new("h", "", "", MetricValue::Histogram(h))],
        });
        assert!(text.contains("orion_h_bucket{le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("orion_h_bucket{le=\"11\"} 2\n"), "{text}");
        // The saturated top bucket holds u64::MAX itself.
        assert!(text.contains(&format!("orion_h_bucket{{le=\"{}\"}} 3\n", u64::MAX)), "{text}");
    }

    #[test]
    fn json_snapshot_is_flat_with_histogram_summaries() {
        let json = snapshot_json(&sample_snapshot());
        assert!(json.contains("\"cache/shard0/hits\": 5"), "{json}");
        assert!(json.contains("\"cache/entries\": 2"), "{json}");
        assert!(json.contains("\"service/launch_cycles\": {\"count\":3"), "{json}");
        assert!(json.contains("\"p50\":10"), "{json}");
    }

    #[test]
    fn empty_snapshot_renders_valid_documents() {
        let snap = MetricsSnapshot::default();
        assert_eq!(prometheus_text(&snap), "");
        let json = snapshot_json(&snap);
        assert!(json.trim() == "{\n\n}" || json.trim() == "{}" || json.starts_with('{'));
    }
}
