//! The user-facing Orion facade: compile a kernel, get the candidate
//! versions, the nvcc-like baseline, or a full occupancy sweep, and run
//! versions on the simulated device.

use crate::compiler::{compile, CompiledKernel, KernelVersion, TuningConfig};
use crate::error::OrionError;
use crate::policy::{
    analytic_bound, BanditPolicy, BoundCtx, Measurement, PolicyKind, PolicyVerdict,
};
use crate::runtime::TuneDecision;
use crate::splitting::{split_ranges, SplitConfig};
use crate::version::{CandidateSpace, VersionBuilder};
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
        VersionBuilder::new(&self.dev, self.cfg.block, module).realize(
            SlotBudget { reg_slots: regs, smem_slots: 0 },
            0,
            "nvcc",
        )
    }

    /// One version per achievable occupancy level (block-granular),
    /// ascending — the exhaustive sweep behind Figures 1/2/10/14/15 and
    /// the Orion-Min/Max bars of Figure 11. Levels above what register
    /// re-allocation can reach are pruned; levels below the binary's
    /// natural occupancy are realized by shared-memory padding.
    ///
    /// # Errors
    /// Fails when no level is achievable at all.
    pub fn sweep(&self, module: &Module) -> Result<Vec<KernelVersion>, OrionError> {
        orion_kir::verify::verify(module)?;
        let vb = VersionBuilder::new(&self.dev, self.cfg.block, module);
        let warps_per_block = self.cfg.block.div_ceil(self.dev.warp_size);
        let mut out: Vec<KernelVersion> = Vec::new();
        let mut w = warps_per_block;
        while w <= self.dev.max_warps_per_sm {
            if let Some(v) = vb.sweep_level(w)? {
                if !out.iter().any(|x| x.achieved_warps == v.achieved_warps) {
                    out.push(v);
                }
            }
            w += warps_per_block;
        }
        if out.is_empty() {
            return Err(OrionError::NoAchievableOccupancy);
        }
        out.sort_by_key(|v| v.achieved_warps);
        Ok(out)
    }

    /// Search the widened candidate lattice (occupancy level ×
    /// L1/shared split × split granularity;
    /// [`CandidateSpace::enumerate`]) with `kind`'s policy, measuring
    /// each proposed arm by covering `launch`'s grid exactly once per
    /// pull — whole-grid for coarse arms, summed contiguous slices for
    /// split arms — until the policy finalizes. Bandit policies get
    /// their per-arm pruning bounds from the *real* launch shape here
    /// (grid, SM count), not the nominal per-kernel context.
    ///
    /// This is the search itself, not an application loop: steady-state
    /// execution of the winner is the caller's business
    /// (the selected arm's
    /// [`launch_options(None)`](crate::version::SpaceArm::launch_options)).
    ///
    /// # Errors
    /// Space enumeration and simulator failures propagate.
    pub fn tune_space(
        &self,
        module: &Module,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        kind: PolicyKind,
        split: SplitConfig,
    ) -> Result<SpaceOutcome, OrionError> {
        let ck = self.compile(module)?;
        let space = CandidateSpace::enumerate(
            &self.dev,
            self.cfg.block,
            module,
            ck.direction,
            launch.grid,
            split,
        )?;
        let synthetic = space.to_compiled(ck.max_live);
        let mut policy = match kind {
            PolicyKind::Bandit(cfg) => {
                let ctx = BoundCtx::new(
                    self.cfg.block,
                    launch.grid,
                    self.dev.num_sms,
                    self.dev.warp_size,
                );
                let bounds: Vec<Option<u64>> =
                    space.arms.iter().map(|a| Some(analytic_bound(&a.version, &ctx))).collect();
                Box::new(BanditPolicy::new(&bounds, space.original, cfg)) as Box<_>
            }
            PolicyKind::PaperWalk => kind.build(&synthetic, self.cfg.slowdown_threshold),
        };
        let mut launches = 0u64;
        let mut total_cycles = 0u64;
        // Generous runaway guard: every policy shipped converges in at
        // most a few pulls per arm.
        let budget = 16 * space.arms.len().max(1) as u64;
        while matches!(policy.verdict(), PolicyVerdict::Exploring) && launches < budget {
            let Some(i) = policy.propose() else { break };
            let arm = &space.arms[i];
            let mut cycles = 0u64;
            for range in split_ranges(launch.grid, arm.pieces, 1) {
                let opts = arm.launch_options(Some(range));
                let r =
                    run_launch_opts(&self.dev, &arm.version.machine, launch, params, global, opts)?;
                cycles = cycles.saturating_add(r.cycles);
                launches += 1;
            }
            total_cycles = total_cycles.saturating_add(cycles);
            policy.observe(i, Measurement::raw(cycles));
        }
        let selected = policy.select();
        Ok(SpaceOutcome {
            selected,
            launches,
            total_cycles,
            decisions: policy.into_decisions(),
            space,
        })
    }

    /// Simulate one launch of a version (wires the version's driver-side
    /// shared-memory padding into the launch).
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
        Ok(run_launch_opts(
            &self.dev,
            &version.machine,
            launch,
            params,
            global,
            LaunchOptions {
                extra_smem_per_block: version.extra_smem,
                cta_range: None,
                cycle_budget: None,
                ..LaunchOptions::default()
            },
        )?)
    }
}

/// Result of an [`Orion::tune_space`] search.
#[derive(Debug, Clone)]
pub struct SpaceOutcome {
    /// The enumerated lattice the search ran over.
    pub space: CandidateSpace,
    /// Index of the winning arm in [`CandidateSpace::arms`].
    pub selected: usize,
    /// Simulated launches spent (each grid slice counts as one) — the
    /// convergence-cost axis of the `search` bench.
    pub launches: u64,
    /// Total simulated cycles across all exploration launches.
    pub total_cycles: u64,
    /// The policy's decision log.
    pub decisions: Vec<TuneDecision>,
}

impl SpaceOutcome {
    /// The selected arm.
    #[must_use]
    pub fn selected_arm(&self) -> &crate::version::SpaceArm {
        &self.space.arms[self.selected]
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

    #[test]
    fn tune_space_converges_under_both_policies() {
        use crate::splitting::SplitConfig;
        let orion = Orion::new(DeviceSpec::gtx680(), 32);
        let m = kernel(8);
        let launch = Launch { grid: 16, block: 32 };
        for kind in
            [PolicyKind::PaperWalk, PolicyKind::Bandit(crate::policy::BanditConfig::default())]
        {
            let mut g = vec![0u8; 4 * 512];
            let out = orion
                .tune_space(&m, launch, &[0], &mut g, kind, SplitConfig::default())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(out.selected < out.space.arms.len(), "{kind:?}");
            assert!(out.launches > 0, "{kind:?}");
            assert!(!out.decisions.is_empty(), "{kind:?}");
            // The search must actually terminate by decision, not by the
            // runaway guard.
            assert!(
                out.launches < 16 * out.space.arms.len() as u64,
                "{kind:?} hit the runaway guard at {} launches",
                out.launches
            );
        }
    }

    #[test]
    fn tune_space_search_is_deterministic_and_memory_safe() {
        use crate::splitting::SplitConfig;
        let orion = Orion::new(DeviceSpec::gtx680(), 32);
        let m = kernel(6);
        let launch = Launch { grid: 64, block: 32 };
        let kind = PolicyKind::Bandit(crate::policy::BanditConfig::default());
        let run = || {
            crate::cache::reset();
            let mut g = vec![0u8; 4 * 64 * 32];
            let out =
                orion.tune_space(&m, launch, &[0], &mut g, kind, SplitConfig::default()).unwrap();
            (out.selected, out.launches, out.decisions, g)
        };
        let (sel_a, l_a, d_a, g_a) = run();
        let (sel_b, l_b, d_b, g_b) = run();
        assert_eq!(sel_a, sel_b);
        assert_eq!(l_a, l_b);
        assert_eq!(d_a, d_b);
        // Every arm computes the same values, so exploring (including
        // cache-split overrides and sliced pulls) leaves global memory
        // exactly as a plain run would.
        assert_eq!(g_a, g_b);
    }
}
