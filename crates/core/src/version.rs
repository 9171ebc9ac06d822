//! Shared construction of [`KernelVersion`]s.
//!
//! The compile stage ([`crate::compiler::compile`]), the nvcc-like
//! baseline, and the exhaustive occupancy sweep all produce the same
//! artifact — a compiled binary annotated with the occupancy the driver
//! will schedule it at. [`VersionBuilder`] is the single place that
//! assembles one, always through the compile cache
//! ([`crate::cache::allocate_cached`]), so every caller shares both the
//! construction logic and the cached allocations. It fingerprints its
//! module once, and every version it realizes reuses that cache key.

use crate::budget::{budget_for_warps, smem_padding_for_warps};
use crate::cache::{allocate_cached, FingerprintedModule};
use crate::compiler::{CompiledKernel, Direction, KernelVersion};
use crate::error::OrionError;
use crate::splitting::{can_split, SPLIT_PIECES};
use orion_alloc::realize::{AllocOptions, SlotBudget};
use orion_gpusim::device::{CacheConfig, DeviceSpec};
use orion_gpusim::occupancy::{occupancy, KernelResources};
use orion_gpusim::sim::LaunchOptions;
use orion_kir::function::Module;

/// Builds [`KernelVersion`]s for one module on one device at one block
/// size.
#[derive(Debug, Clone, Copy)]
pub struct VersionBuilder<'a> {
    dev: &'a DeviceSpec,
    block: u32,
    module: FingerprintedModule<'a>,
}

impl<'a> VersionBuilder<'a> {
    /// A builder for `module` on `dev` launched with `block` threads per
    /// block.
    pub fn new(dev: &'a DeviceSpec, block: u32, module: &'a Module) -> Self {
        VersionBuilder { dev, block, module: FingerprintedModule::new(module) }
    }

    /// Driver-visible resources of a compiled binary plus `extra_smem`
    /// bytes of per-block padding.
    fn resources(&self, machine: &orion_kir::mir::MModule, extra_smem: u32) -> KernelResources {
        KernelResources {
            regs_per_thread: machine.regs_per_thread,
            smem_per_block: machine.smem_bytes_per_block(self.block) + extra_smem,
            block_size: self.block,
        }
    }

    /// Allocate under `budget` (through the compile cache) and derive
    /// the occupancy the driver will schedule, with `extra_smem` bytes
    /// of per-block padding already applied.
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn realize(
        &self,
        budget: SlotBudget,
        extra_smem: u32,
        label: impl Into<String>,
    ) -> Result<KernelVersion, OrionError> {
        let alloc = allocate_cached(self.module, budget, &AllocOptions::default())?;
        let occ = occupancy(self.dev, &self.resources(&alloc.machine, extra_smem));
        Ok(KernelVersion {
            target_warps: occ.active_warps,
            achieved_warps: occ.active_warps,
            occupancy: occ.occupancy,
            extra_smem,
            report: alloc.report,
            machine: alloc.machine,
            fail_safe: false,
            label: label.into(),
        })
    }

    /// One sweep level: reallocate for `target_warps` warps per SM,
    /// padding shared memory down to the target when the binary's
    /// natural occupancy exceeds it. `None` when the level is not
    /// achievable (no budget, or zero schedulable blocks).
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn sweep_level(&self, target_warps: u32) -> Result<Option<KernelVersion>, OrionError> {
        let Some(budget) = budget_for_warps(
            self.dev,
            self.block,
            self.module.module().user_smem_bytes,
            target_warps,
        ) else {
            return Ok(None);
        };
        let alloc = allocate_cached(self.module, budget, &AllocOptions::default())?;
        let mut res = self.resources(&alloc.machine, 0);
        let mut extra = 0;
        if let Some(pad) = smem_padding_for_warps(self.dev, &res, target_warps) {
            extra = pad;
            res.smem_per_block += pad;
        }
        let occ = occupancy(self.dev, &res);
        if occ.active_blocks == 0 {
            return Ok(None);
        }
        Ok(Some(KernelVersion {
            target_warps,
            achieved_warps: occ.active_warps,
            occupancy: occ.occupancy,
            extra_smem: extra,
            report: alloc.report,
            machine: alloc.machine,
            fail_safe: false,
            label: format!("sweep-occ={}", occ.active_warps),
        }))
    }

    /// Re-derive `base` at `target_warps` by setting its driver-side
    /// shared-memory padding to `pad` bytes — the paper's
    /// no-recompilation downward step. The label becomes
    /// `occ=<achieved>`; callers override it (and `fail_safe`) as
    /// needed.
    pub fn repad(&self, base: &KernelVersion, target_warps: u32, pad: u32) -> KernelVersion {
        let occ = occupancy(self.dev, &self.resources(&base.machine, pad));
        let mut v = base.clone();
        v.extra_smem = pad;
        v.target_warps = target_warps;
        v.achieved_warps = occ.active_warps;
        v.occupancy = occ.occupancy;
        v.fail_safe = false;
        v.label = format!("occ={}", occ.active_warps);
        v
    }

    /// [`VersionBuilder::repad`] with the padding computed: pad `base`
    /// down to `target_warps` warps per SM. `None` when no amount of
    /// padding yields that level.
    pub fn padded(&self, base: &KernelVersion, target_warps: u32) -> Option<KernelVersion> {
        let res = self.resources(&base.machine, 0);
        let pad = smem_padding_for_warps(self.dev, &res, target_warps)?;
        Some(self.repad(base, target_warps, pad))
    }
}

/// One arm of the widened tuning lattice: a realized version plus the
/// per-launch execution knobs that distinguish it from its siblings.
#[derive(Debug, Clone)]
pub struct SpaceArm {
    /// The version, realized against the arm's L1/shared split (the
    /// occupancy baked into it already reflects that split's
    /// shared-memory capacity).
    pub version: KernelVersion,
    /// Per-launch L1/shared-memory split override
    /// (`cudaFuncSetCacheConfig`); `None` keeps the device's configured
    /// split.
    pub cache_config: Option<CacheConfig>,
    /// Grid slices per measurement pull (`1` = whole grid in one
    /// launch). Slices cover the grid exactly once per pull, so arms of
    /// different granularity stay directly comparable by total cycles.
    pub pieces: u32,
}

impl SpaceArm {
    /// Launch options running this arm's version under its L1/shared
    /// split over `cta_range` (`None` = the whole grid, the steady-state
    /// shape: split granularity only shapes *measurement*).
    #[must_use]
    pub fn launch_options(&self, cta_range: Option<(u32, u32)>) -> LaunchOptions {
        LaunchOptions {
            extra_smem_per_block: self.version.extra_smem,
            cta_range,
            cache_config: self.cache_config,
            ..LaunchOptions::default()
        }
    }
}

/// The widened candidate space of the bandit search (ISSUE 10): the
/// cross product **occupancy level × L1/shared split × split
/// granularity**, in place of the paper's linear ≤ 5-version occupancy
/// list. Each point is a [`SpaceArm`]; dominated arms are cheap to
/// pre-prune analytically ([`crate::policy::analytic_bound`]) because
/// every arm carries its compile-probe occupancy curve.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    /// The arms, sorted along the tuning direction (ascending occupancy
    /// for [`Direction::Increasing`], descending for
    /// [`Direction::Decreasing`]), default split before override,
    /// whole-grid before split pulls.
    pub arms: Vec<SpaceArm>,
    /// The arm standing in for the untuned launch: default split, whole
    /// grid, at the binary's highest achievable occupancy (the driver's
    /// untouched schedule). Fallback chains settle here.
    pub original: usize,
    /// The tuning direction the space was enumerated for.
    pub direction: Direction,
}

impl CandidateSpace {
    /// Enumerate the lattice for `module` on `dev` at `block` threads
    /// per block, launched over `grid` blocks. Occupancy levels come
    /// from the same block-granular sweep as [`Orion::sweep`]
    /// (per split, since the split changes shared-memory capacity and
    /// with it which levels are achievable); the split-granularity axis
    /// (whole grid, or [`SPLIT_PIECES`] slices) is gated by
    /// [`can_split`] so undersized grids only get whole-grid arms.
    ///
    /// [`Orion::sweep`]: crate::orion::Orion::sweep
    ///
    /// # Errors
    /// [`OrionError::NoAchievableOccupancy`] when no level is achievable
    /// under any split; allocation failures propagate.
    pub fn enumerate(
        dev: &DeviceSpec,
        block: u32,
        module: &Module,
        direction: Direction,
        grid: u32,
    ) -> Result<CandidateSpace, OrionError> {
        let alt = match dev.cache_config {
            CacheConfig::SmallCache => CacheConfig::LargeCache,
            CacheConfig::LargeCache => CacheConfig::SmallCache,
        };
        let granularities: &[u32] =
            if can_split(grid, dev.num_sms, SPLIT_PIECES) { &[1, SPLIT_PIECES] } else { &[1] };
        let mut arms: Vec<SpaceArm> = Vec::new();
        for cache in [None, Some(alt)] {
            let dev_c = cache.map_or_else(|| dev.clone(), |c| dev.with_cache_config(c));
            let vb = VersionBuilder::new(&dev_c, block, module);
            let warps_per_block = block.div_ceil(dev_c.warp_size);
            let mut levels: Vec<KernelVersion> = Vec::new();
            let mut w = warps_per_block;
            while w <= dev_c.max_warps_per_sm {
                if let Some(v) = vb.sweep_level(w)? {
                    if !levels.iter().any(|x| x.achieved_warps == v.achieved_warps) {
                        levels.push(v);
                    }
                }
                w += warps_per_block;
            }
            for v in levels {
                for &pieces in granularities {
                    let mut version = v.clone();
                    version.label = format!(
                        "occ={}/{}{}",
                        version.achieved_warps,
                        match cache {
                            None => "l1-default",
                            Some(CacheConfig::SmallCache) => "l1-small",
                            Some(CacheConfig::LargeCache) => "l1-large",
                        },
                        if pieces > 1 { format!("/p{pieces}") } else { String::new() },
                    );
                    arms.push(SpaceArm { version, cache_config: cache, pieces });
                }
            }
        }
        if arms.is_empty() {
            return Err(OrionError::NoAchievableOccupancy);
        }
        // Direction-ordered: the paper walk visits arms the way Figure 9
        // walks occupancy levels; ties resolve default-split-first, then
        // coarsest granularity, so the walk's anchor sequence is stable.
        arms.sort_by_key(|a| {
            let warps = i64::from(a.version.achieved_warps);
            let dir = match direction {
                Direction::Increasing => warps,
                Direction::Decreasing => -warps,
            };
            (dir, u8::from(a.cache_config.is_some()), a.pieces)
        });
        let original = arms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.cache_config.is_none() && a.pieces == 1)
            .max_by_key(|(_, a)| a.version.achieved_warps)
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(CandidateSpace { arms, original, direction })
    }

    /// View the space as a [`CompiledKernel`] so any
    /// [`SearchPolicy`](crate::policy::SearchPolicy) built over kernel
    /// versions (the paper walk included) runs over the arms unchanged:
    /// version `i` is arm `i`, and the tuning order is the original
    /// first, then the remaining arms in direction order — the same
    /// convention [`crate::compiler::compile`] emits.
    #[must_use]
    pub fn to_compiled(&self, max_live: u32) -> CompiledKernel {
        let tuning_order: Vec<usize> = std::iter::once(self.original)
            .chain((0..self.arms.len()).filter(|&i| i != self.original))
            .collect();
        CompiledKernel {
            versions: self.arms.iter().map(|a| a.version.clone()).collect(),
            direction: self.direction,
            original: self.original,
            max_live,
            tuning_order,
        }
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
        let addr = b.imad(tid, Operand::Imm(4), Operand::Param(0));
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
    fn realize_matches_occupancy_of_binary() {
        let dev = DeviceSpec::gtx680();
        let m = kernel(8);
        let vb = VersionBuilder::new(&dev, 256, &m);
        let v = vb.realize(SlotBudget { reg_slots: 16, smem_slots: 0 }, 0, "t").unwrap();
        assert_eq!(v.label, "t");
        assert_eq!(v.target_warps, v.achieved_warps);
        assert!(v.achieved_warps > 0);
        assert!(!v.fail_safe);
    }

    #[test]
    fn padded_reaches_lower_level_without_recompiling() {
        let dev = DeviceSpec::c2075();
        let m = kernel(4);
        let vb = VersionBuilder::new(&dev, 192, &m);
        let base = vb.realize(SlotBudget { reg_slots: 16, smem_slots: 0 }, 0, "base").unwrap();
        let warps_per_block = 192u32.div_ceil(dev.warp_size);
        let target = base.achieved_warps - warps_per_block;
        let down = vb.padded(&base, target).expect("padding achievable");
        assert!(down.extra_smem > 0);
        assert!(down.achieved_warps < base.achieved_warps);
        // Same binary: padding is a driver-side knob.
        assert_eq!(down.machine, base.machine);
    }

    #[test]
    fn repad_zero_is_identity_occupancy() {
        let dev = DeviceSpec::c2075();
        let m = kernel(4);
        let vb = VersionBuilder::new(&dev, 192, &m);
        let base = vb.realize(SlotBudget { reg_slots: 16, smem_slots: 0 }, 0, "base").unwrap();
        let same = vb.repad(&base, base.achieved_warps, 0);
        assert_eq!(same.achieved_warps, base.achieved_warps);
        assert_eq!(same.extra_smem, 0);
    }

    #[test]
    fn candidate_space_spans_all_three_axes() {
        let dev = DeviceSpec::gtx680();
        let m = kernel(8);
        // grid 64 over 8 SMs supports 8-way splitting.
        let space = CandidateSpace::enumerate(&dev, 64, &m, Direction::Increasing, 64).unwrap();
        assert!(
            space.arms.iter().any(|a| a.cache_config.is_none())
                && space.arms.iter().any(|a| a.cache_config.is_some()),
            "both L1/shared splits must appear"
        );
        assert!(
            space.arms.iter().any(|a| a.pieces == 1) && space.arms.iter().any(|a| a.pieces == 8),
            "both split granularities must appear"
        );
        let occs: std::collections::BTreeSet<u32> =
            space.arms.iter().map(|a| a.version.achieved_warps).collect();
        assert!(occs.len() >= 3, "several occupancy levels: {occs:?}");
        // Direction order with stable ties.
        assert!(space
            .arms
            .windows(2)
            .all(|w| w[0].version.achieved_warps <= w[1].version.achieved_warps));
        // The original arm is the untouched schedule: default split,
        // whole grid, highest occupancy.
        let orig = &space.arms[space.original];
        assert!(orig.cache_config.is_none());
        assert_eq!(orig.pieces, 1);
        assert_eq!(
            orig.version.achieved_warps,
            space
                .arms
                .iter()
                .filter(|a| a.cache_config.is_none() && a.pieces == 1)
                .map(|a| a.version.achieved_warps)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn undersized_grids_get_no_split_arms() {
        let dev = DeviceSpec::gtx680(); // 8 SMs: 8-way split needs ≥ 64 blocks
        let m = kernel(4);
        let space = CandidateSpace::enumerate(&dev, 32, &m, Direction::Decreasing, 16).unwrap();
        assert!(space.arms.iter().all(|a| a.pieces == 1));
        assert!(space
            .arms
            .windows(2)
            .all(|w| w[0].version.achieved_warps >= w[1].version.achieved_warps));
    }

    #[test]
    fn to_compiled_preserves_arm_indices_and_walk_order() {
        let dev = DeviceSpec::c2075();
        let m = kernel(6);
        let space = CandidateSpace::enumerate(&dev, 192, &m, Direction::Increasing, 28).unwrap();
        let ck = space.to_compiled(12);
        assert_eq!(ck.versions.len(), space.arms.len());
        assert_eq!(ck.original, space.original);
        assert_eq!(ck.tuning_order[0], space.original, "walk starts at the original arm");
        let mut seen: Vec<usize> = ck.tuning_order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..space.arms.len()).collect::<Vec<_>>(), "order covers every arm once");
        for (arm, v) in space.arms.iter().zip(&ck.versions) {
            assert_eq!(arm.version.label, v.label);
        }
    }
}
