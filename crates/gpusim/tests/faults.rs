//! Fault-injection and watchdog integration tests: a real kernel, the
//! real launch path.

use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::{Launch, SimError};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::mir::MModule;
use orion_kir::types::{MemSpace, SpecialReg, Width};

/// out[gid] = in[gid] + 1.
fn inc_kernel() -> MModule {
    let mut b = FunctionBuilder::kernel("inc");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let a = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, a, 0);
    let y = b.iadd(x, Operand::Imm(1));
    b.st(MemSpace::Global, Width::W32, a, y, 0);
    let module = Module::new(b.finish());
    allocate(&module, SlotBudget { reg_slots: 16, smem_slots: 0 }, &AllocOptions::default())
        .expect("alloc")
        .machine
}

const LAUNCH: Launch = Launch { grid: 2, block: 64 };

fn opts(budget: Option<u64>) -> LaunchOptions {
    LaunchOptions { cycle_budget: budget, ..Default::default() }
}

#[test]
fn watchdog_trips_on_tiny_cycle_budget() {
    let dev = DeviceSpec::gtx680();
    let machine = inc_kernel();
    let mut global = vec![0u8; 4 * 128];
    let err = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, opts(Some(2)))
        .expect_err("two cycles cannot finish a memory load");
    assert_eq!(err, SimError::Watchdog { budget: 2 });
    assert!(err.is_quarantineable() && !err.is_transient());
}

#[test]
fn default_budget_is_generous_enough() {
    let dev = DeviceSpec::gtx680();
    let machine = inc_kernel();
    let mut global = vec![0u8; 4 * 128];
    let r = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, opts(None))
        .expect("default watchdog budget must not trip on a normal kernel");
    assert!(r.cycles > 0);
    assert_eq!(global[0], 1);
}

mod injection {
    use super::*;
    use orion_gpusim::faults::{FaultInjector, FaultPlan};

    /// `opts` carrying the injector's next fault draw.
    fn drawn(inj: &FaultInjector, budget: Option<u64>) -> LaunchOptions {
        LaunchOptions { faults: inj.draw(), ..opts(budget) }
    }

    #[test]
    fn transient_fault_fails_launch_before_simulation() {
        let dev = DeviceSpec::gtx680();
        let machine = inc_kernel();
        let mut plan = FaultPlan::none(1);
        plan.transient_rate = 1.0;
        let inj = FaultInjector::new(plan);
        let mut global = vec![0u8; 4 * 128];
        let err = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, drawn(&inj, None))
            .expect_err("certain transient fault");
        assert!(matches!(err, SimError::TransientLaunchFailure { .. }));
        assert!(err.is_transient());
        // The launch never ran: memory untouched, fault tallied.
        assert_eq!(global[0], 0);
        assert_eq!(inj.snapshot().transient, 1);
    }

    #[test]
    fn hang_fault_terminates_via_the_watchdog() {
        let dev = DeviceSpec::gtx680();
        let machine = inc_kernel();
        let mut plan = FaultPlan::none(2);
        plan.hang_rate = 1.0;
        let inj = FaultInjector::new(plan);
        let budget = 100_000;
        let mut global = vec![0u8; 4 * 128];
        let err =
            run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, drawn(&inj, Some(budget)))
                .expect_err("a wedged warp can only end at the watchdog");
        assert_eq!(err, SimError::Watchdog { budget });
        assert_eq!(inj.snapshot().hangs, 1);
    }

    #[test]
    fn resource_fault_is_absorbed_when_the_kernel_still_fits() {
        let dev = DeviceSpec::gtx680();
        let machine = inc_kernel();
        let mut clean_global = vec![0u8; 4 * 128];
        let clean = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut clean_global, opts(None))
            .expect("clean run");
        let mut plan = FaultPlan::none(4);
        plan.resource_rate = 1.0;
        let inj = FaultInjector::new(plan);
        let mut global = vec![0u8; 4 * 128];
        let r = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, drawn(&inj, None))
            .expect("16 regs/thread and no smem fit the contended device");
        assert_eq!(r, clean, "an absorbed resource fault leaves the launch exact");
        assert_eq!(global, clean_global);
        assert_eq!(inj.snapshot().resource, 1);
    }

    #[test]
    fn resource_fault_rejects_a_launch_that_no_longer_fits() {
        let dev = DeviceSpec::gtx680();
        let machine = inc_kernel();
        // Fits the whole device, but not once shared memory is halved.
        let padded =
            LaunchOptions { extra_smem_per_block: dev.smem_per_sm() * 3 / 4, ..opts(None) };
        let mut clean_global = vec![0u8; 4 * 128];
        run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut clean_global, padded)
            .expect("the padded kernel fits the uncontended device");
        let mut plan = FaultPlan::none(5);
        plan.resource_rate = 1.0;
        let inj = FaultInjector::new(plan);
        let mut global = vec![0u8; 4 * 128];
        let contended = LaunchOptions { faults: inj.draw(), ..padded };
        let err = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, contended)
            .expect_err("doubled shared memory no longer fits");
        assert!(matches!(err, SimError::ResourceExceeded { .. }), "{err:?}");
        // The launch never ran: memory untouched.
        assert!(global.iter().all(|&b| b == 0));
        assert_eq!(inj.snapshot().resource, 1);
    }

    #[test]
    fn jitter_perturbs_the_measurement_not_the_execution() {
        let dev = DeviceSpec::gtx680();
        let machine = inc_kernel();
        let mut clean_global = vec![0u8; 4 * 128];
        let clean = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut clean_global, opts(None))
            .expect("clean run");
        let mut plan = FaultPlan::none(3);
        plan.jitter_frac = 0.05;
        let inj = FaultInjector::new(plan);
        let mut global = vec![0u8; 4 * 128];
        let r = run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, drawn(&inj, None))
            .expect("jitter never fails a launch");
        // Execution identical; only the reported cycles wobble within
        // the ±5% band.
        assert_eq!(global, clean_global);
        let lo = clean.cycles - clean.cycles / 20 - 1;
        let hi = clean.cycles + clean.cycles / 20 + 1;
        assert!(
            (lo..=hi).contains(&r.cycles),
            "{} outside the ±5% band around {}",
            r.cycles,
            clean.cycles
        );
        assert_eq!(inj.snapshot().jitter, 1);
    }

    #[test]
    fn fault_stream_replays_identically() {
        let dev = DeviceSpec::gtx680();
        let machine = inc_kernel();
        let run_series = |seed: u64| -> Vec<Result<u64, SimError>> {
            let inj = FaultInjector::new(FaultPlan::chaos(seed, 0.3, 0.05));
            (0..16)
                .map(|_| {
                    let mut global = vec![0u8; 4 * 128];
                    let opts = drawn(&inj, Some(100_000));
                    run_launch_opts(&dev, &machine, LAUNCH, &[0], &mut global, opts)
                        .map(|r| r.cycles)
                })
                .collect()
        };
        assert_eq!(run_series(42), run_series(42), "same seed, same fate");
        assert_ne!(run_series(42), run_series(43), "different seed, different fate");
    }
}
