//! End-to-end telemetry tests: the Chrome `trace_event` exporter must
//! emit valid, monotonically ordered JSON, and the stall-attribution
//! invariant must hold across real workloads at multiple occupancies.

use orion_bench::experiment::run_version_once;
use orion_core::orion::Orion;
use orion_gpusim::DeviceSpec;

/// The exporter output parses as JSON, carries the required
/// trace_event keys, and is sorted by timestamp. It is the only test in
/// this file that switches telemetry on.
#[test]
fn chrome_trace_exports_valid_sorted_json() {
    orion_telemetry::set_enabled(true);
    orion_telemetry::clear();
    {
        let _outer = orion_telemetry::span("snap", "outer");
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

    // Only assert on our own category.
    let snap: Vec<&serde_json::Value> =
        evs.iter().filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("snap")).collect();
    // outer B+E, inner B+E, instant, 2 completes = 7 events.
    assert_eq!(snap.len(), 7, "every probe appears exactly once");
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
