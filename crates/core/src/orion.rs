//! The user-facing Orion facade: compile a kernel, get the candidate
//! versions, the nvcc-like baseline, or a full occupancy sweep, and run
//! versions on the simulated device.

use crate::compiler::{compile, CompiledKernel, KernelVersion, TuningConfig};
use crate::error::OrionError;
use crate::version::VersionBuilder;
use orion_alloc::realize::{kernel_max_live, SlotBudget};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_kir::function::Module;

/// Orion instance bound to a device and a tuning configuration.
#[derive(Debug, Clone)]
pub struct Orion {
    pub dev: DeviceSpec,
    pub cfg: TuningConfig,
}

impl Orion {
    /// Orion for `dev` with paper-default configuration at `block`
    /// threads per block.
    pub fn new(dev: DeviceSpec, block: u32) -> Self {
        Orion { dev, cfg: TuningConfig::new(block) }
    }

    /// Run the compile-time stage (Figure 8): candidate versions.
    ///
    /// # Errors
    /// Propagates verification/allocation failures.
    pub fn compile(&self, module: &Module) -> Result<CompiledKernel, OrionError> {
        compile(module, &self.dev, &self.cfg)
    }

    /// The nvcc-like baseline: single-thread-optimal register allocation
    /// (max-live registers, capped by hardware), no occupancy awareness;
    /// the driver derives whatever occupancy falls out.
    ///
    /// # Errors
    /// Propagates verification/allocation failures.
    pub fn baseline(&self, module: &Module) -> Result<KernelVersion, OrionError> {
        orion_kir::verify::verify(module)?;
        let max_live = kernel_max_live(module)?;
        let regs = (max_live.min(u32::from(self.dev.max_regs_per_thread)) as u16).max(2);
        let budget = SlotBudget { reg_slots: regs, smem_slots: 0 };
        VersionBuilder::new(&self.dev, self.cfg.block, module).realize(budget, "nvcc")
    }

    /// [`VersionBuilder::sweep`] of a verified module: one version per
    /// achievable occupancy level, ascending — the exhaustive sweep
    /// behind Figures 1/2/10/14/15 and the Orion-Min/Max bars of
    /// Figure 11.
    ///
    /// # Errors
    /// Fails when no level is achievable at all.
    pub fn sweep(&self, module: &Module) -> Result<Vec<KernelVersion>, OrionError> {
        orion_kir::verify::verify(module)?;
        let out = VersionBuilder::new(&self.dev, self.cfg.block, module).sweep()?;
        if out.is_empty() {
            return Err(OrionError::NoAchievableOccupancy);
        }
        Ok(out)
    }

    /// Simulate one launch of a version under its driver-side launch
    /// settings ([`KernelVersion::launch_options`]).
    ///
    /// # Errors
    /// Propagates simulator failures.
    pub fn run_version(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
    ) -> Result<RunResult, OrionError> {
        let opts = version.launch_options(LaunchOptions::default());
        Ok(run_launch_opts(&self.dev, &version.machine, launch, params, global, opts)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::inst::Operand;
    use orion_kir::types::{MemSpace, SpecialReg, Width};

    fn kernel(live: usize) -> Module {
        let mut b = FunctionBuilder::kernel("k");
        let tid = b.mov(Operand::Special(SpecialReg::TidX));
        let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
        let nt = b.mov(Operand::Special(SpecialReg::NTidX));
        let gid = b.imad(cta, nt, tid);
        let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
        let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
        let vals: Vec<_> = (0..live).map(|k| b.fmul(x, Operand::Imm(k as i64))).collect();
        let mut acc = b.mov_f32(0.0);
        for v in vals {
            acc = b.fadd(acc, v);
        }
        b.st(MemSpace::Global, Width::W32, addr, acc, 0);
        Module::new(b.finish())
    }

    #[test]
    fn sweep_covers_many_levels() {
        let orion = Orion::new(DeviceSpec::c2075(), 192);
        let m = kernel(8);
        let sweep = orion.sweep(&m).unwrap();
        assert!(sweep.len() >= 5, "{}", sweep.len());
        // Ascending occupancy, including the hardware max.
        assert!(sweep.windows(2).all(|w| w[0].achieved_warps < w[1].achieved_warps));
        assert_eq!(sweep.last().unwrap().achieved_warps, 48);
        // Low levels pad, high levels don't.
        assert!(sweep.first().unwrap().extra_smem > 0);
        assert_eq!(sweep.last().unwrap().extra_smem, 0);
    }

    #[test]
    fn baseline_uses_maxlive_registers() {
        let orion = Orion::new(DeviceSpec::gtx680(), 256);
        let m = kernel(40);
        let base = orion.baseline(&m).unwrap();
        assert!(base.machine.regs_per_thread >= 40);
        assert_eq!(base.machine.smem_slots_per_thread, 0);
        assert!(base.occupancy < 1.0);
    }

    #[test]
    fn run_version_executes() {
        let orion = Orion::new(DeviceSpec::gtx680(), 32);
        let m = kernel(4);
        let base = orion.baseline(&m).unwrap();
        let mut g = vec![0u8; 4 * 64];
        let r = orion.run_version(&base, Launch { grid: 2, block: 32 }, &[0], &mut g).unwrap();
        assert!(r.cycles > 0);
    }
}
