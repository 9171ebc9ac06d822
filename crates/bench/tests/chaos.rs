//! Chaos-bench integration tests: `chaos_run` on a tiny handcrafted
//! workload (debug-build fast), checking convergence under a 10% fault
//! rate and exact reconciliation of the injected/absorbed tallies with
//! the telemetry counters; and, in release builds, the gates of the full
//! sweep that `--bin chaos` records.
//!
//! The telemetry buffer and enable flag are process-global, so every
//! test that launches kernels grabs `TELEMETRY_LOCK` — otherwise a
//! concurrent run's counters would pollute the reconciliation.

use std::sync::Mutex;

use orion_bench::chaos::{chaos_run, chaos_sweep, reconciles, CHAOS_TOLERANCE};
use orion_gpusim::device::DeviceSpec;
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::types::{MemSpace, SpecialReg, Width};
use orion_workloads::{Table2Row, Workload};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Poison-tolerant lock: a failed sibling test must not cascade.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// out[gid] += 1 over a couple of dependent loads — small enough to
/// simulate in microseconds, big enough to give versions distinct times.
fn tiny_workload() -> Workload {
    let mut b = FunctionBuilder::kernel("tiny");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let a = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, a, 0);
    let y = b.iadd(x, Operand::Imm(1));
    let z = b.imad(y, y, x);
    b.st(MemSpace::Global, Width::W32, a, z, 0);
    Workload {
        name: "tiny",
        domain: "test",
        module: Module::new(b.finish()),
        grid: 4,
        block: 64,
        params: vec![0],
        init_global: vec![0u8; 4 * 256],
        iterations: 24,
        can_tune: true,
        iter_params: None,
        expected: Table2Row { reg: 6, func: 0, smem: false },
    }
}

#[test]
fn zero_rate_control_matches_the_fault_free_walk_exactly() {
    let _g = lock();
    orion_telemetry::set_enabled(false);
    let row = chaos_run(&DeviceSpec::c2075(), &tiny_workload(), 7, 0.0, 0.0)
        .expect("control run succeeds");
    assert_eq!(row.chaos_selected, row.fault_free_selected, "control pick is exact");
    assert_eq!(row.injected.total_faults(), 0);
    assert_eq!(row.absorbed.retries, 0);
    assert_eq!(row.absorbed.quarantined, 0);
    assert_eq!(row.rel_gap, 0.0);
}

#[test]
fn ten_pct_faults_converge_and_reconcile_with_telemetry() {
    let _g = lock();
    orion_telemetry::set_enabled(true);
    let active = orion_telemetry::is_enabled();
    if active {
        orion_telemetry::clear();
    }
    let row = chaos_run(&DeviceSpec::c2075(), &tiny_workload(), 42, 0.10, 0.05)
        .expect("the resilient walk absorbs a 10% fault rate");
    let metrics = if active {
        let events = orion_telemetry::take_events();
        Some(orion_telemetry::metrics::aggregate_counters(&events))
    } else {
        None
    };
    orion_telemetry::set_enabled(false);

    assert!(
        row.rel_gap <= CHAOS_TOLERANCE,
        "chaotic pick {} ({} cycles) more than {:.0}% off fault-free pick {} ({} cycles)",
        row.chaos_label,
        row.chaos_cycles,
        CHAOS_TOLERANCE * 100.0,
        row.fault_free_label,
        row.fault_free_cycles,
    );
    assert!(
        reconciles(&row, metrics.as_ref()),
        "injected {:?} / absorbed {:?} disagree with telemetry {metrics:?}",
        row.injected,
        row.absorbed,
    );
    // Every retry corresponds to a drawn transient fault.
    assert!(row.absorbed.retries <= row.injected.transient + row.absorbed.failed_launches);

    // A 10% rate over dozens of launches must actually inject something.
    assert!(row.injected.total_faults() > 0, "10% rate injected nothing: {:?}", row.injected);
}

/// Certain launch failure on every candidate must surface as a clean
/// gave-up row (the app falls back to its original kernel) — never a
/// panic, an infinite loop, or an aborted sweep.
#[test]
fn total_fault_storm_fails_closed_without_panicking() {
    let _g = lock();
    orion_telemetry::set_enabled(false);
    let row = chaos_run(&DeviceSpec::c2075(), &tiny_workload(), 1, 1.0, 0.0)
        .expect("a total storm is recorded, not propagated");
    assert!(row.gave_up, "every candidate must have been exhausted: {row:?}");
    assert!(!row.within_tolerance, "a gave-up row never counts as converged");
    assert_eq!(row.chaos_label, "original", "after giving up the app runs the original kernel");
    assert!(row.injected.transient > 0);
}

/// The full sweep over the chaos workloads and rates: every row at a
/// fault rate of 10% or less lands within tolerance of the fault-free
/// pick, the zero-fault controls pick exactly, and every row's tallies
/// reconcile with its telemetry counters.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn full_sweep_converges_controls_exactly_and_reconciles() {
    let _g = lock();
    orion_telemetry::set_enabled(false);
    let sweep = chaos_sweep(&DeviceSpec::c2075());
    assert!(!orion_telemetry::is_enabled(), "the sweep left telemetry switched on");
    let sweep = sweep.expect("the sweep records every row");
    let s = sweep.summary;
    assert!(
        s.converges_at_10pct && s.control_exact && s.telemetry_reconciled,
        "{:?}\n{}",
        s,
        sweep.figure()
    );
}

/// The sweep switches telemetry on for its rows and back to the
/// caller's state afterwards, also when a row fails and the sweep
/// returns early: here the first row cannot launch at all.
#[test]
fn sweep_restores_the_telemetry_switch_on_the_error_path() {
    let _g = lock();
    let no_blocks = DeviceSpec { max_blocks_per_sm: 0, ..DeviceSpec::c2075() };
    for on in [false, true] {
        orion_telemetry::set_enabled(on);
        let before = orion_telemetry::is_enabled();
        assert!(chaos_sweep(&no_blocks).is_err(), "no block fits an SM of this device");
        assert_eq!(orion_telemetry::is_enabled(), before, "switch was {before} before the sweep");
    }
    orion_telemetry::set_enabled(false);
}
