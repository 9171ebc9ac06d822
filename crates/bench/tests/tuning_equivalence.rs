//! Tuning equivalence on the tier-1 workloads: `TuningSession::drive`,
//! in simple and resilient mode, must be **bit-identical** to the
//! frozen closure loops in
//! [`orion_core::reference`] when the launches come from the real
//! simulator — clean walks and seeded chaos alike.
//!
//! This is the sim-level counterpart of `crates/core/tests/
//! equivalence.rs` (synthetic closures): the same compiled candidates,
//! the same mutating global memory, the same seeded fault injector on
//! each side. Because both loops are deterministic functions of the
//! launch sequence, any divergence in the walk shows up as a full
//! outcome mismatch — selection, per-iteration trace, decision log,
//! stats, or error.

use orion_core::orion::Orion;
use orion_core::reference::{self, ResilientWalkOutcome, WalkOutcome};
use orion_core::resilient::ResiliencePolicy;
use orion_core::session::TuningSession;
use orion_core::{CompiledKernel, KernelVersion, OrionError};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::faults::{FaultInjector, FaultPlan, LaunchFaults};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_workloads::{by_name, Workload};

const WORKLOADS: [&str; 3] = ["matrixMul", "backprop", "hotspot"];
const SEEDS: [u64; 2] = [7, 1337];
const THRESHOLD: f64 = 0.05;
const ITERS: u32 = 32;

fn compile(dev: &DeviceSpec, w: &Workload) -> CompiledKernel {
    let mut orion = Orion::new(dev.clone(), w.block);
    orion.cfg.can_tune = w.can_tune;
    orion.compile(&w.module).expect("tier-1 workload compiles")
}

/// One application run: fresh global memory, fresh iteration counter,
/// and (optionally) a fresh injector seeded from `plan` — so the live
/// and reference walks each start from identical device state.
struct App<'w> {
    dev: &'w DeviceSpec,
    w: &'w Workload,
    global: Vec<u8>,
    iter_no: u32,
    injector: Option<FaultInjector>,
}

impl<'w> App<'w> {
    fn new(dev: &'w DeviceSpec, w: &'w Workload, plan: Option<FaultPlan>) -> Self {
        App {
            dev,
            w,
            global: w.init_global.clone(),
            iter_no: 0,
            injector: plan.map(FaultInjector::new),
        }
    }

    fn launch(&mut self, v: &KernelVersion) -> Result<u64, OrionError> {
        let params = self.w.params_for(self.iter_no);
        self.iter_no += 1;
        let opts = LaunchOptions {
            extra_smem_per_block: v.extra_smem,
            faults: self.injector.as_ref().map_or(LaunchFaults::NONE, FaultInjector::draw),
            ..LaunchOptions::default()
        };
        run_launch_opts(self.dev, &v.machine, self.w.launch(), params, &mut self.global, opts)
            .map(|r| r.cycles)
            .map_err(OrionError::from)
    }
}

fn resilient_pair(
    dev: &DeviceSpec,
    w: &Workload,
    ck: &CompiledKernel,
    plan: impl Fn() -> Option<FaultPlan>,
) -> (Result<ResilientWalkOutcome, OrionError>, Result<ResilientWalkOutcome, OrionError>) {
    let policy = ResiliencePolicy::default();
    let mut app = App::new(dev, w, plan());
    let live = TuningSession::resilient(w.name, ck, ITERS, THRESHOLD, policy)
        .drive(|v| app.launch(v))
        .map(ResilientWalkOutcome::from);
    let mut app = App::new(dev, w, plan());
    let oracle =
        reference::resilient_tune_loop(w.name, ck, ITERS, THRESHOLD, &policy, |v| app.launch(v));
    (live, oracle)
}

/// Clean sim launches: the plain driver must replay the frozen loop's
/// walk exactly on every tier-1 workload.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn plain_walk_is_bit_identical_to_reference_on_workloads() {
    let dev = DeviceSpec::gtx680();
    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let ck = compile(&dev, &w);
        let mut app = App::new(&dev, &w, None);
        let live = TuningSession::simple(&ck, ITERS, THRESHOLD)
            .drive(|v| app.launch(v))
            .map(WalkOutcome::from);
        let mut app = App::new(&dev, &w, None);
        let oracle = reference::tune_loop(&ck, ITERS, THRESHOLD, |v| app.launch(v));
        assert_eq!(live, oracle, "{name}: plain walk diverged from reference");
    }
}

/// Fault-free resilient walks (mean-of-k sampling, borderline
/// extension) must also match bit for bit.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn resilient_walk_is_bit_identical_to_reference_on_workloads() {
    let dev = DeviceSpec::gtx680();
    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let ck = compile(&dev, &w);
        let (live, oracle) = resilient_pair(&dev, &w, &ck, || None);
        assert_eq!(live, oracle, "{name}: resilient walk diverged from reference");
    }
}

/// Tier-1 workloads × fault seeds: identical seeded chaos plans on each
/// side (transient failures, resource rejections, hangs, timing
/// jitter). Retry, strike, quarantine, and borderline-extension paths
/// all fire across the seed sweep, and every outcome — Ok or Err —
/// must match the frozen loop exactly.
#[test]
#[cfg_attr(debug_assertions, ignore = "sim-heavy; run with --release")]
fn resilient_walk_is_bit_identical_to_reference_under_chaos() {
    let dev = DeviceSpec::gtx680();
    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let ck = compile(&dev, &w);
        for seed in SEEDS {
            let (live, oracle) =
                resilient_pair(&dev, &w, &ck, || Some(FaultPlan::chaos(seed, 0.10, 0.05)));
            assert_eq!(live, oracle, "{name} seed {seed}: chaotic walk diverged from reference");
        }
    }
}
