//! The golden fixtures: the allocator, the simulator and the tuning
//! walk must reproduce every recorded entry under
//! `crates/bench/golden/`. This test compares and never writes; after
//! an intended change, regenerate the files with
//! `cargo run --release -p orion-bench --bin bless` and review the diff.
//!
//! Cases that simulate the tier-1 workloads only run in release builds.

use orion_bench::golden::{self, Fixture};

/// Run the cases of `fixture` whose weight is `heavy` and compare them
/// with the recorded entries of the same cases.
fn check(fixture: Fixture, heavy: bool) {
    let cases: Vec<_> = fixture.cases().into_iter().filter(|c| c.heavy == heavy).collect();
    let recorded: golden::Recorded = golden::read(fixture)
        .expect("fixture file")
        .into_iter()
        .filter(|(name, _)| cases.iter().any(|c| &c.name == name))
        .collect();
    let fresh = golden::record(&cases);
    let changed = golden::diff(&recorded, &fresh);
    assert!(
        changed.is_empty(),
        "{} of {} {} entries differ from the fixture (case: recorded → now):\n{}",
        changed.len(),
        fresh.len(),
        fixture.name(),
        changed.join("\n")
    );
}

#[test]
fn fixtures_record_exactly_the_generated_cases() {
    for fixture in Fixture::ALL {
        let recorded: Vec<String> =
            golden::read(fixture).expect("fixture file").into_iter().map(|(n, _)| n).collect();
        let generated: Vec<String> = fixture.cases().into_iter().map(|c| c.name).collect();
        assert_eq!(recorded, generated, "{}: case list", fixture.name());
    }
}

#[test]
fn compile_fixture() {
    check(Fixture::Compile, false);
}

#[test]
fn launch_fixture_micro_kernels() {
    check(Fixture::Launch, false);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn launch_fixture_workloads() {
    check(Fixture::Launch, true);
}

#[test]
fn walk_fixture_synthetic_streams() {
    check(Fixture::Walk, false);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn walk_fixture_simulated_workloads() {
    check(Fixture::Walk, true);
}
