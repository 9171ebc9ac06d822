//! Flat metrics report: an insertion-ordered `key → scalar` table with a
//! JSON renderer.
//!
//! Keys use `/`-separated paths (`"alloc/spills"`, `"sim/stall/barrier"`)
//! so consumers can group without a nested schema. `crates/bench` builds
//! its `BENCH_*.json` artifacts and the profiler CLI's `--metrics`
//! output on top of this type.

use crate::{escape_json, write_arg_value, ArgValue};

/// An insertion-ordered flat metrics table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    entries: Vec<(String, ArgValue)>,
}

impl MetricsReport {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `key` to `value`, replacing any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<ArgValue>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    pub fn get(&self, key: &str) -> Option<&ArgValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &ArgValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Copy every entry of `other` in under `prefix/`.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsReport) {
        for (k, v) in &other.entries {
            self.set(format!("{prefix}/{k}"), v.clone());
        }
    }

    /// Render as a flat JSON object, keys in insertion order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 32 + 8);
        out.push_str("{\n");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            escape_json(&mut out, k);
            out.push_str(": ");
            write_arg_value(&mut out, v);
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_get_roundtrip() {
        let mut r = MetricsReport::new();
        r.set("a/x", 3u64);
        r.set("b", 1.5f64);
        r.set("b", 2.5f64);
        assert_eq!(r.get("a/x"), Some(&ArgValue::U64(3)));
        assert_eq!(r.get("b"), Some(&ArgValue::F64(2.5)));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn json_is_flat_and_ordered() {
        let mut r = MetricsReport::new();
        r.set("z", 1u64);
        r.set("a", true);
        let json = r.to_json();
        assert!(json.find("\"z\"").unwrap() < json.find("\"a\"").unwrap());
        assert!(json.contains("\"a\": true"));
    }
}
