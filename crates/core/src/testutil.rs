//! Shared fixtures for the unit tests: synthetic candidate sets whose
//! versions are only indexed and labelled, never launched; a toy kernel
//! to compile and launch for real; and a simulator backend that injects
//! chaos per job.

use crate::backend::{Backend, BackendCaps, SimBackend};
use crate::compiler::{CompiledKernel, Direction, KernelVersion, TuningConfig};
use crate::error::OrionError;
use orion_alloc::realize::AllocReport;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::faults::{splitmix64, unit, FaultInjector, FaultPlan, LaunchFaults};
use orion_gpusim::sim::LaunchOptions;
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::mir::MModule;
use orion_kir::types::{FuncId, MemSpace, SpecialReg, Width};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// A version at `warps` resident warps with no machine code.
pub(crate) fn fake_version(warps: u32, fail_safe: bool) -> KernelVersion {
    KernelVersion {
        machine: MModule {
            funcs: vec![],
            entry: FuncId(0),
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            user_smem_bytes: 0,
            static_stack_moves: 0,
        },
        target_warps: warps,
        achieved_warps: warps,
        occupancy: f64::from(warps) / 48.0,
        extra_smem: 0,
        cache_config: None,
        report: AllocReport {
            kernel_max_live: 0,
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            static_moves: 0,
            per_func: vec![],
        },
        fail_safe,
        label: if fail_safe { "fail-safe".into() } else { format!("occ={warps}") },
    }
}

/// Candidates at `warp_levels`, tuned in list order from the first.
pub(crate) fn fake_compiled(warp_levels: &[u32], direction: Direction) -> CompiledKernel {
    CompiledKernel {
        versions: warp_levels.iter().map(|&w| fake_version(w, false)).collect(),
        direction,
        original: 0,
        max_live: 40,
        tuning_order: (0..warp_levels.len()).collect(),
    }
}

/// [`fake_compiled`] plus a trailing fail-safe version outside the
/// tuning order.
pub(crate) fn fake_compiled_with_fail_safe(
    warp_levels: &[u32],
    direction: Direction,
) -> CompiledKernel {
    let mut ck = fake_compiled(warp_levels, direction);
    ck.versions.push(fake_version(4, true));
    ck
}

/// A toy kernel: each thread multiplies its word of global memory, at
/// `Param(0)` plus four bytes per global thread id, by `mul`. It reads
/// no other parameter.
pub(crate) fn toy_module(mul: i64) -> Module {
    let mut b = FunctionBuilder::kernel("k");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let y = b.imul(x, Operand::Imm(mul));
    b.st(MemSpace::Global, Width::W32, addr, y, 0);
    Module::new(b.finish())
}

/// A [`SimBackend`] that injects chaos per job. A launch's job is its
/// `params[1]` (the [`toy_module`] reads only `params[0]`). Each job gets
/// its own [`FaultInjector`] over [`FaultPlan::chaos`] at `rate`, and
/// with probability `panic_rate` it panics on the launch after a drawn
/// number (1–8) of launches that returned. Both draws are pure in
/// `(seed, job)`, and a job's launches run in order, so a batch replays
/// identically at any scheduler shape.
pub(crate) struct ChaosBackend {
    inner: SimBackend,
    seed: u64,
    rate: f64,
    panic_rate: f64,
    jobs: Mutex<HashMap<u32, ChaosJob>>,
}

/// One job's chaos: its launch-fault stream and its panic point.
struct ChaosJob {
    injector: FaultInjector,
    panic_after: Option<u32>,
    returned: u32,
}

impl ChaosBackend {
    pub(crate) fn new(dev: DeviceSpec, seed: u64, rate: f64, panic_rate: f64) -> Self {
        let inner = SimBackend::new(dev);
        ChaosBackend { inner, seed, rate, panic_rate, jobs: Mutex::new(HashMap::new()) }
    }

    /// The chaos of job `job`, pure in `(self.seed, job)`.
    fn draw_job(&self, job: u32) -> ChaosJob {
        let mut s = self.seed ^ u64::from(job).wrapping_mul(0xa076_1d64_78bd_642f);
        let _ = splitmix64(&mut s); // burn one to mix the xor in
        let plan = FaultPlan::chaos(splitmix64(&mut s), self.rate, 0.05);
        let plan = if self.rate > 0.0 { plan } else { FaultPlan::none(plan.seed) };
        let panics = unit(&mut s) < self.panic_rate;
        let panic_after = (splitmix64(&mut s) % 8 + 1) as u32;
        ChaosJob {
            injector: FaultInjector::new(plan),
            panic_after: panics.then_some(panic_after),
            returned: 0,
        }
    }
}

impl Backend for ChaosBackend {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn device_spec(&self) -> &DeviceSpec {
        self.inner.device_spec()
    }

    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn compile_probe(
        &self,
        module: &Module,
        cfg: &TuningConfig,
    ) -> Result<CompiledKernel, OrionError> {
        self.inner.compile_probe(module, cfg)
    }

    fn launch(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        let drawn: Result<LaunchFaults, u32> = {
            let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            let job = jobs.entry(params[1]).or_insert_with(|| self.draw_job(params[1]));
            match job.panic_after {
                Some(n) if job.returned >= n => Err(n),
                _ => {
                    job.returned += 1;
                    Ok(job.injector.draw())
                }
            }
        };
        // The message is deterministic, so panic reports are too.
        let faults = drawn.unwrap_or_else(|n| panic!("chaos: injected panic after {n} launches"));
        self.inner.launch(version, launch, params, global, LaunchOptions { faults, ..opts })
    }
}
