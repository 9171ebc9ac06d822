//! Chaos-bench integration tests: `chaos_run` on a tiny handcrafted
//! workload (debug-build fast), checking convergence under a 10% fault
//! rate and that a total storm fails closed; and, in release builds, the
//! gates of the full sweep that `--bin chaos` records.

use orion_bench::chaos::{chaos_run, chaos_sweep, CHAOS_TOLERANCE};
use orion_gpusim::device::DeviceSpec;
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::types::{MemSpace, SpecialReg, Width};
use orion_workloads::{Table2Row, Workload};

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
    let row = chaos_run(&DeviceSpec::c2075(), &tiny_workload(), 7, 0.0, 0.0)
        .expect("control run succeeds");
    assert_eq!(row.chaos_selected, row.fault_free_selected, "control pick is exact");
    assert_eq!(row.injected.total_faults(), 0);
    assert_eq!(row.absorbed.retries, 0);
    assert_eq!(row.absorbed.quarantined, 0);
    assert_eq!(row.rel_gap, 0.0);
}

#[test]
fn ten_pct_faults_converge_within_tolerance() {
    let row = chaos_run(&DeviceSpec::c2075(), &tiny_workload(), 42, 0.10, 0.05)
        .expect("the resilient walk absorbs a 10% fault rate");
    assert!(
        row.rel_gap <= CHAOS_TOLERANCE,
        "chaotic pick {} ({} cycles) more than {:.0}% off fault-free pick {} ({} cycles)",
        row.chaos_label,
        row.chaos_cycles,
        CHAOS_TOLERANCE * 100.0,
        row.fault_free_label,
        row.fault_free_cycles,
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
    let row = chaos_run(&DeviceSpec::c2075(), &tiny_workload(), 1, 1.0, 0.0)
        .expect("a total storm is recorded, not propagated");
    assert!(row.gave_up, "every candidate must have been exhausted: {row:?}");
    assert!(!row.within_tolerance, "a gave-up row never counts as converged");
    assert_eq!(row.chaos_label, "original", "after giving up the app runs the original kernel");
    assert!(row.injected.transient > 0);
}

/// The full sweep over the chaos workloads and rates: every row at a
/// fault rate of 10% or less lands within tolerance of the fault-free
/// pick and the zero-fault controls pick exactly.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn full_sweep_converges_and_controls_exactly() {
    let sweep = chaos_sweep(&DeviceSpec::c2075()).expect("the sweep records every row");
    let s = sweep.summary;
    assert!(s.converges_at_10pct && s.control_exact, "{:?}\n{}", s, sweep.figure());
}
