//! Fan-out determinism property tests: the parallel event-heap engine
//! must be observationally identical to the serial seed engine — same
//! cycles, same stall buckets, same per-SM rollups, same memory, same
//! tuner decision log, same injected-fault outcomes — across real
//! workloads, occupancy levels, and fault seeds.
//!
//! `parallelism: 1` + `Scheduler::LinearScan` is the exact seed code
//! path; everything else is the new engine and must reproduce it
//! bit-for-bit.

use orion_core::orion::Orion;
use orion_core::session::{SessionOutcome, TuningSession};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::faults::{FaultInjector, FaultPlan};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_gpusim::{Scheduler, SimError};
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::types::{MemSpace, SpecialReg, Width};
use orion_workloads::by_name;

const WORKLOADS: [&str; 3] = ["matrixMul", "backprop", "hotspot"];

/// The seed configuration and the configurations that must match it.
fn seed_opts() -> LaunchOptions {
    LaunchOptions { parallelism: 1, scheduler: Scheduler::LinearScan, ..LaunchOptions::default() }
}

fn fanout_opts() -> [LaunchOptions; 3] {
    [
        LaunchOptions {
            parallelism: 1,
            scheduler: Scheduler::EventHeap,
            ..LaunchOptions::default()
        },
        LaunchOptions {
            parallelism: 2,
            scheduler: Scheduler::EventHeap,
            ..LaunchOptions::default()
        },
        LaunchOptions {
            parallelism: 0,
            scheduler: Scheduler::EventHeap,
            ..LaunchOptions::default()
        },
    ]
}

/// 3 workloads × 2 occupancy levels (the lowest and highest sweep
/// versions): full `RunResult` (cycles, stall buckets, per-SM rollups)
/// and global memory must be identical under every fan-out config.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn parallel_matches_serial_across_workloads_and_occupancy() {
    let dev = DeviceSpec::gtx680();
    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let orion = Orion::new(dev.clone(), w.block);
        let sweep = orion.sweep(&w.module).expect("sweep");
        let levels = [sweep.first().unwrap(), sweep.last().unwrap()];
        for v in levels {
            let run = |opts: LaunchOptions| -> (RunResult, Vec<u8>) {
                let mut global = w.init_global.clone();
                let r = run_launch_opts(
                    &dev,
                    &v.machine,
                    w.launch(),
                    &w.params,
                    &mut global,
                    LaunchOptions { extra_smem_per_block: v.extra_smem, ..opts },
                )
                .expect("launch");
                (r, global)
            };
            let (reference, ref_global) = run(seed_opts());
            for opts in fanout_opts() {
                let (r, global) = run(opts);
                assert_eq!(
                    r, reference,
                    "{name}/{}: {:?}/parallelism={} diverged from the seed engine",
                    v.label, opts.scheduler, opts.parallelism
                );
                assert_eq!(
                    global, ref_global,
                    "{name}/{}: {:?}/parallelism={} produced different memory",
                    v.label, opts.scheduler, opts.parallelism
                );
            }
        }
    }
}

fn tune_with(orion: &Orion, w: &orion_workloads::Workload, opts: LaunchOptions) -> SessionOutcome {
    let compiled = orion.compile(&w.module).expect("compile");
    TuningSession::simple(&compiled, w.iterations, 0.02)
        .drive(|v| {
            let mut global = w.init_global.clone();
            run_launch_opts(
                &orion.dev,
                &v.machine,
                w.launch(),
                &w.params,
                &mut global,
                LaunchOptions { extra_smem_per_block: v.extra_smem, ..opts },
            )
            .map(|r| r.cycles)
            .map_err(orion_core::OrionError::from)
        })
        .expect("tune loop")
}

/// The tuner's full decision log (selection, per-iteration walk,
/// convergence point, reason codes) must not depend on the engine
/// configuration that produced the measurements.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn tuner_decisions_identical_across_fanout() {
    let dev = DeviceSpec::gtx680();
    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let orion = Orion::new(dev.clone(), w.block);
        let reference = tune_with(&orion, &w, seed_opts());
        for opts in fanout_opts() {
            let outcome = tune_with(&orion, &w, opts);
            assert_eq!(outcome.selected, reference.selected, "{name}: selected version");
            assert_eq!(outcome.iterations, reference.iterations, "{name}: iteration walk");
            assert_eq!(
                outcome.converged_after, reference.converged_after,
                "{name}: convergence point"
            );
            assert_eq!(outcome.total_cycles, reference.total_cycles, "{name}: total cycles");
            assert_eq!(outcome.decisions, reference.decisions, "{name}: decision log");
        }
    }
}

/// out[gid] = in[gid]² + gid — tiny (debug-build fast) but with a real
/// load/store per lane so hang and jitter faults have something to bite.
fn tiny_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("tiny");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let y = b.imad(x, x, gid);
    b.st(MemSpace::Global, Width::W32, addr, y, 0);
    Module::new(b.finish())
}

/// Injected faults are drawn per launch from `(seed, launch index)` and
/// applied at the driver layer, so a fresh injector with the same plan
/// must produce the same launch-by-launch outcome — success cycles,
/// transient failures, watchdog hangs, memory — whether the SMs below
/// it run serially or fanned out.
#[test]
fn fault_outcomes_identical_across_fanout() {
    let dev = DeviceSpec::gtx680();
    let machine = orion_alloc::realize::allocate(
        &tiny_kernel(),
        orion_alloc::realize::SlotBudget { reg_slots: 12, smem_slots: 0 },
        &orion_alloc::realize::AllocOptions::default(),
    )
    .expect("alloc")
    .machine;
    let launch = Launch { grid: 16, block: 128 };
    let n = 16 * 128;
    let launches = 24;
    for seed in [3u64, 17, 99] {
        let run_seq = |opts: LaunchOptions| -> Vec<(Result<RunResult, SimError>, Vec<u8>)> {
            let injector = FaultInjector::new(FaultPlan::chaos(seed, 0.3, 0.05));
            (0..launches)
                .map(|_| {
                    let mut global = vec![0u8; 4 * n];
                    let opts = LaunchOptions { faults: injector.draw(), ..opts };
                    let r = run_launch_opts(&dev, &machine, launch, &[0], &mut global, opts);
                    (r, global)
                })
                .collect()
        };
        let reference = run_seq(seed_opts());
        for opts in fanout_opts() {
            let seq = run_seq(opts);
            for (i, (got, want)) in seq.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got, want,
                    "seed {seed}, launch {i}: {:?}/parallelism={} diverged",
                    opts.scheduler, opts.parallelism
                );
            }
        }
    }
}
