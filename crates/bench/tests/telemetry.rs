//! End-to-end telemetry tests: the Chrome `trace_event` exporter must
//! emit valid, monotonically ordered JSON, and the stall-attribution
//! invariant must hold across real workloads at multiple occupancies.

use orion_bench::experiment::run_version_once;
use orion_core::orion::Orion;
use orion_gpusim::DeviceSpec;
use orion_telemetry::metrics::{aggregate_counters, MetricsReport};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Telemetry's on/off switch and event buffer are process-global, and
/// the test harness runs this file's tests in parallel: every test that
/// toggles or drains them holds this lock for its whole body.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The exporter output parses as JSON, carries the required
/// trace_event keys, and is sorted by timestamp.
#[test]
fn chrome_trace_exports_valid_sorted_json() {
    let _serial = telemetry_lock();
    orion_telemetry::set_enabled(true);
    if !orion_telemetry::is_enabled() {
        return; // probes compiled out (--no-default-features)
    }
    orion_telemetry::clear();
    {
        let _outer = orion_telemetry::span("snap", "outer");
        orion_telemetry::counter("snap", "widgets", 3);
        orion_telemetry::instant("snap", "marker", vec![("k", "v".into())]);
        let _inner = orion_telemetry::span("snap", "inner");
    }
    orion_telemetry::complete("snap", "sm0", 0, 100, 250, vec![("blocks", 2u64.into())]);
    orion_telemetry::complete("snap", "sm1", 1, 0, 400, vec![]);
    let events = orion_telemetry::take_events();
    orion_telemetry::set_enabled(false);

    let out = orion_telemetry::chrome::trace_json(&events);
    let parsed: serde_json::Value = serde_json::from_str(&out).expect("exporter emits valid JSON");
    assert!(parsed.as_map().is_some(), "top level is an object");
    let evs =
        parsed.get("traceEvents").and_then(serde_json::Value::as_array).expect("traceEvents array");

    // Other tests may run concurrently and append to the global buffer;
    // only assert on our own category.
    let snap: Vec<&serde_json::Value> =
        evs.iter().filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("snap")).collect();
    // outer B+E, inner B+E, counter, instant, 2 completes = 8 events.
    assert_eq!(snap.len(), 8, "every probe appears exactly once");
    for e in &snap {
        assert!(e.get("ph").is_some() && e.get("name").is_some() && e.get("ts").is_some());
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
    }
    let complete = snap
        .iter()
        .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .expect("complete event present");
    assert!(complete.get("dur").is_some(), "complete events carry a duration");

    // Global ordering invariant: ts is monotonically non-decreasing.
    let ts: Vec<i64> = evs.iter().map(|e| e["ts"].as_i64().expect("numeric ts")).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps sorted: {ts:?}");
}

#[test]
fn counter_aggregation_rolls_up_by_category() {
    let _serial = telemetry_lock();
    orion_telemetry::set_enabled(true);
    if !orion_telemetry::is_enabled() {
        return; // probes compiled out (--no-default-features)
    }
    orion_telemetry::clear();
    orion_telemetry::counter("agg", "things", 2);
    orion_telemetry::counter("agg", "things", 5);
    let events = orion_telemetry::take_events();
    orion_telemetry::set_enabled(false);

    let report = aggregate_counters(&events);
    assert_eq!(report.get_u64("agg/things"), Some(7), "counters sum per (cat, name)");
    let mut top = MetricsReport::new();
    top.merge_prefixed("counters", &report);
    let parsed: serde_json::Value =
        serde_json::from_str(&top.to_json()).expect("metrics report is valid JSON");
    assert_eq!(parsed["counters/agg/things"].as_u64(), Some(7));
}

/// The six stall buckets partition `cycles × num_sms` exactly — checked
/// on three real workloads at their lowest and highest occupancy.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulator sweeps need --release")]
fn stall_buckets_partition_on_real_workloads() {
    let dev = DeviceSpec::gtx680();
    for name in ["matrixMul", "backprop", "hotspot"] {
        let w = orion_workloads::by_name(name).expect("known workload");
        let orion = Orion::new(dev.clone(), w.block);
        let versions = orion.sweep(&w.module).expect("sweep compiles");
        assert!(versions.len() >= 2, "{name}: need at least two occupancy levels");
        for v in [versions.first().unwrap(), versions.last().unwrap()] {
            let r = run_version_once(&dev, &w, v).expect("run succeeds");
            let st = &r.stats.stalls;
            assert_eq!(
                st.total(),
                r.cycles * u64::from(r.num_sms),
                "{name} at {} warps: buckets {st:?} must sum to cycles x num_sms",
                v.achieved_warps
            );
            assert!(st.issued > 0, "{name}: some cycles must issue");
        }
    }
}
