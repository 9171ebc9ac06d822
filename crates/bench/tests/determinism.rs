//! Fan-out determinism property tests: SM engines fanned out over
//! worker threads must be observationally identical to the serial
//! engine — same cycles, same stall buckets, same per-SM rollups, same
//! memory, same tuner decision log, same injected-fault outcomes —
//! across real workloads, hand-built kernels, occupancy levels, and
//! fault seeds.
//!
//! `parallelism: 1` runs the engines in SM order over the shared global
//! buffer; the golden launch fixtures pin its results.

use orion_bench::golden;
use orion_core::backend::SimBackend;
use orion_core::compiler::{compile, sweep, TuningConfig};
use orion_core::session::{SessionOutcome, TuningSession};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::faults::{FaultInjector, FaultPlan};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_gpusim::SimError;
use orion_workloads::by_name;

const WORKLOADS: [&str; 3] = ["matrixMul", "backprop", "hotspot"];

/// The serial configuration and the fan-out configurations that must
/// match it (`0` = one worker per host core).
fn serial_opts() -> LaunchOptions {
    LaunchOptions { parallelism: 1, ..LaunchOptions::default() }
}

fn fanout_opts() -> [LaunchOptions; 2] {
    [
        LaunchOptions { parallelism: 2, ..LaunchOptions::default() },
        LaunchOptions { parallelism: 0, ..LaunchOptions::default() },
    ]
}

/// 3 workloads × 2 occupancy levels (the lowest and highest sweep
/// versions): full `RunResult` (cycles, stall buckets, per-SM rollups)
/// and global memory must be identical under every fan-out config.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn parallel_matches_serial_across_workloads_and_occupancy() {
    let backend = SimBackend::new(DeviceSpec::gtx680());
    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let sweep = sweep(&w.module, &DeviceSpec::gtx680(), w.block).expect("sweep");
        let levels = [sweep.first().unwrap(), sweep.last().unwrap()];
        for v in levels {
            let run = |opts: LaunchOptions| -> (RunResult, Vec<u8>) {
                let mut global = w.init_global.clone();
                let r = backend.run(v, w.launch(), &w.params, &mut global, opts).expect("launch");
                (r, global)
            };
            let (reference, ref_global) = run(serial_opts());
            for opts in fanout_opts() {
                let (r, global) = run(opts);
                assert_eq!(
                    r, reference,
                    "{name}/{}: parallelism={} diverged from the serial engine",
                    v.label, opts.parallelism
                );
                assert_eq!(
                    global, ref_global,
                    "{name}/{}: parallelism={} produced different memory",
                    v.label, opts.parallelism
                );
            }
        }
    }
}

/// The paper's walk over `w`'s candidates, each launch from fresh
/// memory under `opts`.
fn tune_with(w: &orion_workloads::Workload, opts: LaunchOptions) -> SessionOutcome {
    let dev = DeviceSpec::gtx680();
    let compiled = compile(&w.module, &dev, &TuningConfig::new(w.block)).expect("compile");
    let backend = SimBackend::new(dev);
    TuningSession::simple(&compiled, w.iterations, 0.02)
        .drive(|v| {
            Ok(backend.run(v, w.launch(), &w.params, &mut w.init_global.clone(), opts)?.cycles)
        })
        .expect("tune loop")
}

/// The tuner's full decision log (selection, per-iteration walk,
/// convergence point, reason codes) must not depend on the engine
/// configuration that produced the measurements.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn tuner_decisions_identical_across_fanout() {
    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let reference = tune_with(&w, serial_opts());
        for opts in fanout_opts() {
            let outcome = tune_with(&w, opts);
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

/// Injected faults are drawn per launch from `(seed, launch index)` and
/// applied at the driver layer, so a fresh injector with the same plan
/// must produce the same launch-by-launch outcome — success cycles,
/// transient failures, watchdog hangs, memory — whether the SMs below
/// it run serially or fanned out.
#[test]
fn fault_outcomes_identical_across_fanout() {
    let dev = DeviceSpec::gtx680();
    let machine = orion_alloc::realize::allocate(
        &golden::tiny_kernel(),
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
        let reference = run_seq(serial_opts());
        for opts in fanout_opts() {
            let seq = run_seq(opts);
            for (i, (got, want)) in seq.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got, want,
                    "seed {seed}, launch {i}: parallelism={} diverged",
                    opts.parallelism
                );
            }
        }
    }
}

/// The hand-built kernels of the golden launch fixture — latency-bound
/// streaming, barriers, spills, divergence, 32-way bank conflicts, and
/// an out-of-bounds store on SM 3 — give the serial outcome and memory
/// at every fan-out width.
#[test]
fn micro_kernels_fan_out_identically() {
    for (name, launch) in golden::micro_launches() {
        let (serial, serial_global) = launch.run(serial_opts());
        for parallelism in [2u32, 3, launch.dev.num_sms] {
            let (r, global) = launch.run(LaunchOptions { parallelism, ..LaunchOptions::default() });
            assert_eq!(r, serial, "{name}: parallelism={parallelism} outcome");
            assert_eq!(global, serial_global, "{name}: parallelism={parallelism} memory");
        }
    }
}
