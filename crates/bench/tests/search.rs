//! The search-policy ablation gates: the canonical run must pass both
//! gates and reproduce the committed `BENCH_search.json` byte for byte,
//! and each gate must fire on a run or record built to fail it. This
//! test compares and never writes; after an intended change, re-record
//! with `cargo run --release -p orion-bench --bin search` from the
//! repository root and review the diff.
//!
//! Every case simulates the tier-1 workloads, so they only run in
//! release builds.

use std::sync::OnceLock;

use orion_bench::search::{
    ablation, bandit_config, convergence_failures, gate_failures, greedy_config, quality_failures,
    search_figure, SearchDoc, PICK_BOUND, SEEDS,
};
use orion_gpusim::device::DeviceSpec;

const RECORD: &str = include_str!("../../../BENCH_search.json");

fn canonical() -> &'static SearchDoc {
    static DOC: OnceLock<SearchDoc> = OnceLock::new();
    DOC.get_or_init(|| ablation(&DeviceSpec::gtx680(), &SEEDS, bandit_config()))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn canonical_run_passes_both_gates_and_matches_the_record() {
    let doc = canonical();
    let failures = gate_failures(doc);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    let json = search_figure(doc).expect("doc serializes").artifact_json().expect("json");
    if json != RECORD {
        let line = json.lines().zip(RECORD.lines()).position(|(a, b)| a != b);
        panic!(
            "the canonical run differs from the committed BENCH_search.json (first at line \
             {:?}); after an intended change, re-record with `--bin search`:\n{json}",
            line.map(|l| l + 1)
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn greedy_bandit_fires_the_convergence_gate() {
    let doc = ablation(&DeviceSpec::gtx680(), &SEEDS, greedy_config());
    let failures = convergence_failures(&doc);
    assert!(
        failures.len() == 1 && failures[0].starts_with("convergence gate:"),
        "pruning off, so every arm pulled, must fail the convergence gate: {failures:?}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn a_raised_bandit_pick_fires_the_quality_gate() {
    let mut doc = canonical().clone();
    let walk = doc
        .cells
        .iter()
        .find(|c| c.workload == "backprop" && c.seed == 1337 && c.policy == "paper_walk")
        .expect("walk cell")
        .final_pick_cycles;
    let bandit = doc
        .cells
        .iter_mut()
        .find(|c| c.workload == "backprop" && c.seed == 1337 && c.policy == "bandit")
        .expect("bandit cell");
    bandit.final_pick_cycles = (walk as f64 * (PICK_BOUND + 0.001)).ceil() as u64;
    let failures = quality_failures(&doc);
    assert!(
        failures.len() == 1 && failures[0].starts_with("quality gate: backprop seed 1337:"),
        "{failures:?}"
    );
}
