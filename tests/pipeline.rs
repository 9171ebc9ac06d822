//! Cross-crate integration tests: the full Orion pipeline over the real
//! benchmark suite (scaled-down launches so debug builds stay fast).

use orion::core::backend::SimBackend;
use orion::core::compiler::{compile, original, sweep, CompiledKernel, Direction, TuningConfig};
use orion::core::version::CandidateSpace;
use orion::gpusim::device::DeviceSpec;
use orion::gpusim::exec::Launch;
use orion::gpusim::sim::LaunchOptions;
use orion::kir::interp::{Interpreter, LaunchConfig};
use orion::workloads::{all_workloads, by_name, downward_benchmarks, upward_benchmarks, Workload};

/// A scaled-down launch: a prefix of the grid (buffers stay valid).
fn small_launch(w: &Workload) -> Launch {
    Launch { grid: w.grid.min(4), block: w.block }
}

/// The compile stage as `w`'s application runs it.
fn compile_app(w: &Workload, dev: &DeviceSpec) -> CompiledKernel {
    let cfg = TuningConfig { can_tune: w.can_tune, ..TuningConfig::new(w.block) };
    compile(&w.module, dev, &cfg).unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, dev.name))
}

#[test]
fn compiler_emits_at_most_five_candidates_everywhere() {
    for dev in [DeviceSpec::c2075(), DeviceSpec::gtx680()] {
        for w in all_workloads() {
            let ck = compile_app(&w, &dev);
            assert!(
                ck.num_candidates() <= 5,
                "{} on {}: {} candidates",
                w.name,
                dev.name,
                ck.num_candidates()
            );
            assert!(!ck.versions.is_empty());
        }
    }
}

#[test]
fn tuning_directions_match_table2() {
    let dev = DeviceSpec::c2075();
    for w in upward_benchmarks() {
        let ck = compile_app(&w, &dev);
        assert_eq!(
            ck.direction,
            Direction::Increasing,
            "{} should tune upward (max-live {})",
            w.name,
            ck.max_live
        );
        assert!(ck.max_live >= 32);
    }
    for w in downward_benchmarks() {
        let ck = compile_app(&w, &dev);
        assert_eq!(
            ck.direction,
            Direction::Decreasing,
            "{} should tune downward (max-live {})",
            w.name,
            ck.max_live
        );
        assert!(ck.max_live < 32);
    }
}

#[test]
fn every_workload_runs_correctly_at_every_candidate() {
    // Semantic preservation on the real benchmarks: all candidate
    // binaries must produce the reference interpreter's global memory.
    let dev = DeviceSpec::c2075();
    let backend = SimBackend::new(dev.clone());
    for w in all_workloads() {
        let launch = small_launch(&w);
        let mut ref_global = w.init_global.clone();
        Interpreter::new(&w.module, &w.params)
            .run(LaunchConfig { grid: launch.grid, block: launch.block }, &mut ref_global)
            .unwrap_or_else(|e| panic!("{}: reference run {e}", w.name));

        for v in &compile_app(&w, &dev).versions {
            let mut global = w.init_global.clone();
            backend
                .run(v, launch, &w.params, &mut global, LaunchOptions::default())
                .unwrap_or_else(|e| panic!("{} version {}: {e}", w.name, v.label));
            assert_eq!(
                global, ref_global,
                "{} version {} diverged from the reference",
                w.name, v.label
            );
        }
    }
}

#[test]
fn gaussian_full_grid_matches_reference() {
    // The 4-block launches above cannot see a race between distant
    // blocks; this one runs gaussian's whole grid with its SMs fanned
    // out over two workers, so a cross-block write/write race shows as
    // a divergence from the in-order interpreter.
    let w = by_name("gaussian").unwrap();
    let launch = Launch { grid: w.grid, block: w.block };
    let mut ref_global = w.init_global.clone();
    Interpreter::new(&w.module, &w.params)
        .run(LaunchConfig { grid: launch.grid, block: launch.block }, &mut ref_global)
        .unwrap();
    for dev in [DeviceSpec::c2075(), DeviceSpec::gtx680()] {
        let base = original(&w.module, &dev, w.block).unwrap();
        let mut global = w.init_global.clone();
        let opts = LaunchOptions { parallelism: 2, ..Default::default() };
        SimBackend::new(dev.clone()).run(&base, launch, &w.params, &mut global, opts).unwrap();
        assert!(global == ref_global, "gaussian on {} diverged from the reference", dev.name);
    }
}

#[test]
fn baseline_matches_semantics_too() {
    let dev = DeviceSpec::gtx680();
    let backend = SimBackend::new(dev.clone());
    for name in ["srad", "cfd", "matrixMul"] {
        let w = by_name(name).unwrap();
        let launch = small_launch(&w);
        let mut ref_global = w.init_global.clone();
        Interpreter::new(&w.module, &w.params)
            .run(LaunchConfig { grid: launch.grid, block: launch.block }, &mut ref_global)
            .unwrap();
        let base = original(&w.module, &dev, w.block).unwrap();
        let mut global = w.init_global.clone();
        backend.run(&base, launch, &w.params, &mut global, LaunchOptions::default()).unwrap();
        assert_eq!(global, ref_global, "{name}");
    }
}

#[test]
fn kernel_splitting_covers_grid_exactly() {
    use orion::core::splitting::split_ranges;
    let w = by_name("particles").unwrap();
    let dev = DeviceSpec::c2075();
    let backend = SimBackend::new(dev.clone());
    let base = original(&w.module, &dev, w.block).unwrap();
    let launch = Launch { grid: 8, block: w.block };
    // A lattice version under another register budget, its padding and
    // its L1/shared split applied: the slices alternate between it
    // and the baseline, the way a search mixes versions across the
    // slices of one invocation.
    let ck = compile(&w.module, &dev, &TuningConfig::new(w.block)).unwrap();
    let space =
        CandidateSpace::enumerate(&dev, w.block, &w.module, ck.direction, launch.grid).unwrap();
    let other = space
        .kernel
        .versions
        .iter()
        .find(|v| {
            v.cache_config.is_some() && v.machine.regs_per_thread != base.machine.regs_per_thread
        })
        .expect("an overridden-split version with another register budget");

    // Whole launch.
    let mut whole = w.init_global.clone();
    backend.run(&base, launch, &w.params, &mut whole, LaunchOptions::default()).unwrap();
    // Split into 4 pieces, alternating versions.
    let mut split = w.init_global.clone();
    for (k, range) in split_ranges(launch.grid, 4).into_iter().enumerate() {
        let v = if k % 2 == 0 { &base } else { other };
        let opts = LaunchOptions { cta_range: Some(range), ..Default::default() };
        backend.run(v, launch, &w.params, &mut split, opts).unwrap();
    }
    assert_eq!(whole, split, "mixed-version split launches must compute the same result");
}

#[test]
fn downward_selection_saves_registers_or_keeps_speed() {
    // End-to-end: for srad the tuner must settle on something that does
    // not lose more than the threshold versus the original.
    let dev = DeviceSpec::c2075();
    let w = by_name("srad").unwrap();
    let launch = small_launch(&w);
    let ck = compile(&w.module, &dev, &TuningConfig::new(w.block)).unwrap();
    let backend = SimBackend::new(dev);
    let mut global = w.init_global.clone();
    let outcome = orion::core::session::TuningSession::simple(&ck, w.iterations, 0.02)
        .drive(|v| Ok(backend.run(v, launch, &w.params, &mut global, Default::default())?.cycles))
        .unwrap();
    let sel = &ck.versions[outcome.selected];
    let orig = &ck.versions[ck.original];
    assert!(sel.achieved_warps <= orig.achieved_warps);
    assert!(outcome.converged_after <= ck.num_candidates() + 1);
}

/// Every version launches at the occupancy it was compiled for: each
/// candidate, sweep level, original and search-lattice arm of every
/// workload on both devices, run over one block through
/// `SimBackend::run`, which applies the version's padding and split.
#[test]
fn every_version_launches_at_its_compiled_occupancy() {
    let one_block = LaunchOptions { cta_range: Some((0, 1)), ..LaunchOptions::default() };
    for dev in [DeviceSpec::c2075(), DeviceSpec::gtx680()] {
        let backend = SimBackend::new(dev.clone());
        for w in all_workloads() {
            let ck = compile_app(&w, &dev);
            let levels = sweep(&w.module, &dev, w.block).unwrap();
            let base = original(&w.module, &dev, w.block).unwrap();
            let space =
                CandidateSpace::enumerate(&dev, w.block, &w.module, ck.direction, w.grid).unwrap();
            let versions =
                ck.versions.iter().chain(&levels).chain([&base]).chain(&space.kernel.versions);
            for v in versions {
                let r = backend
                    .run(v, w.launch(), &w.params, &mut w.init_global.clone(), one_block)
                    .unwrap_or_else(|e| panic!("{} {} on {}: {e}", w.name, v.label, dev.name));
                assert_eq!(
                    r.occupancy.active_warps, v.achieved_warps,
                    "{} {} on {}: launched at another occupancy than compiled",
                    w.name, v.label, dev.name
                );
            }
        }
    }
}
