//! Shared construction of [`KernelVersion`]s.
//!
//! The compile stage ([`crate::compiler::compile`]), its nvcc-like
//! original ([`crate::compiler::original`]), the exhaustive occupancy
//! sweep ([`crate::compiler::sweep`]) and the search lattice
//! ([`CandidateSpace`]) all produce the same artifact — a compiled
//! binary plus the driver-side launch settings (padding, L1/shared
//! split) that fix the occupancy the driver will schedule it at. [`VersionBuilder`] is the single place that
//! assembles one, always through the compile cache
//! ([`crate::cache::allocate_cached`]), so every caller shares both the
//! construction logic and the cached allocations. It fingerprints its
//! module once, and every version it realizes reuses that cache key.

use crate::budget::{budget_for_warps, smem_padding_for_warps};
use crate::cache::{allocate_cached, FingerprintedModule};
use crate::compiler::{CompiledKernel, Direction, KernelVersion};
use crate::error::OrionError;
use crate::splitting::{can_split, SPLIT_PIECES};
use orion_alloc::realize::{kernel_max_live, AllocOptions, SlotBudget};
use orion_gpusim::device::{CacheConfig, DeviceSpec};
use orion_gpusim::occupancy::{occupancy, OccupancyInfo};
use orion_kir::function::Module;
use std::borrow::Cow;

/// Builds [`KernelVersion`]s for one module on one device at one block
/// size, under one L1/shared split.
#[derive(Debug, Clone)]
pub struct VersionBuilder<'a> {
    /// The device, already re-split when `cache_config` is set.
    dev: Cow<'a, DeviceSpec>,
    block: u32,
    module: FingerprintedModule<'a>,
    cache_config: Option<CacheConfig>,
}

impl<'a> VersionBuilder<'a> {
    /// A builder for `module` on `dev` launched with `block` threads per
    /// block, under the device's configured split.
    pub fn new(dev: &'a DeviceSpec, block: u32, module: &'a Module) -> Self {
        VersionBuilder {
            dev: Cow::Borrowed(dev),
            block,
            module: FingerprintedModule::new(module),
            cache_config: None,
        }
    }

    /// This builder under the L1/shared split `cfg`: every version it
    /// builds carries the split, and its occupancy reflects the split's
    /// shared-memory capacity.
    #[must_use]
    pub fn with_cache_config(self, cfg: CacheConfig) -> Self {
        VersionBuilder {
            dev: Cow::Owned(self.dev.with_cache_config(cfg)),
            cache_config: Some(cfg),
            ..self
        }
    }

    /// Allocate under `budget` through the compile cache, as an
    /// unpadded version whose occupancy is not yet derived.
    fn allocate(&self, budget: SlotBudget, label: String) -> Result<KernelVersion, OrionError> {
        let alloc = allocate_cached(self.module, budget, &AllocOptions::default())?;
        Ok(KernelVersion {
            machine: alloc.machine,
            target_warps: 0,
            achieved_warps: 0,
            occupancy: 0.0,
            extra_smem: 0,
            cache_config: self.cache_config,
            report: alloc.report,
            fail_safe: false,
            label,
        })
    }

    /// Set `v`'s driver-side padding to `pad` bytes and re-derive the
    /// occupancy the driver schedules it at.
    fn set_padding(&self, v: &mut KernelVersion, pad: u32) -> OccupancyInfo {
        v.extra_smem = pad;
        let occ = occupancy(&self.dev, &v.resources(self.block));
        v.achieved_warps = occ.active_warps;
        v.occupancy = occ.occupancy;
        occ
    }

    /// Allocate under `budget` (through the compile cache) and derive
    /// the occupancy the driver will schedule, unpadded.
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn realize(
        &self,
        budget: SlotBudget,
        label: impl Into<String>,
    ) -> Result<KernelVersion, OrionError> {
        let mut v = self.allocate(budget, label.into())?;
        self.set_padding(&mut v, 0);
        v.target_warps = v.achieved_warps;
        Ok(v)
    }

    /// One sweep level: reallocate for `target_warps` warps per SM,
    /// padding shared memory down to the target when the binary's
    /// natural occupancy exceeds it. `None` when the level is not
    /// achievable (no budget, or zero schedulable blocks).
    fn sweep_level(&self, target_warps: u32) -> Result<Option<KernelVersion>, OrionError> {
        let user_smem = self.module.module().user_smem_bytes;
        let Some(budget) = budget_for_warps(&self.dev, self.block, user_smem, target_warps) else {
            return Ok(None);
        };
        let mut v = self.allocate(budget, String::new())?;
        let pad = smem_padding_for_warps(&self.dev, &v.resources(self.block), target_warps);
        if self.set_padding(&mut v, pad.unwrap_or(0)).active_blocks == 0 {
            return Ok(None);
        }
        v.target_warps = target_warps;
        v.label = format!("sweep-occ={}", v.achieved_warps);
        Ok(Some(v))
    }

    /// One version per achievable occupancy level (block-granular),
    /// ascending by achieved warps. Levels above what register
    /// re-allocation can reach are pruned; levels below the binary's
    /// natural occupancy are realized by shared-memory padding. Empty
    /// when no level is achievable.
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn sweep(&self) -> Result<Vec<KernelVersion>, OrionError> {
        let warps_per_block = self.block.div_ceil(self.dev.warp_size);
        let mut out: Vec<KernelVersion> = Vec::new();
        let mut w = warps_per_block;
        while w <= self.dev.max_warps_per_sm {
            if let Some(v) = self.sweep_level(w)? {
                if !out.iter().any(|x| x.achieved_warps == v.achieved_warps) {
                    out.push(v);
                }
            }
            w += warps_per_block;
        }
        out.sort_by_key(|v| v.achieved_warps);
        Ok(out)
    }

    /// Re-derive `base` at `target_warps` by setting its driver-side
    /// shared-memory padding to `pad` bytes — the paper's
    /// no-recompilation downward step. The label becomes
    /// `occ=<achieved>`; callers override it (and `fail_safe`) as
    /// needed.
    pub fn repad(&self, base: &KernelVersion, target_warps: u32, pad: u32) -> KernelVersion {
        let mut v = base.clone();
        self.set_padding(&mut v, pad);
        v.target_warps = target_warps;
        v.fail_safe = false;
        v.label = format!("occ={}", v.achieved_warps);
        v
    }

    /// [`VersionBuilder::repad`] with the padding computed: pad `base`
    /// down to `target_warps` warps per SM. `None` when no amount of
    /// padding yields that level.
    pub fn padded(&self, base: &KernelVersion, target_warps: u32) -> Option<KernelVersion> {
        // The binary's own footprint, without whatever padding it has.
        let mut res = base.resources(self.block);
        res.smem_per_block -= base.extra_smem;
        let pad = smem_padding_for_warps(&self.dev, &res, target_warps)?;
        Some(self.repad(base, target_warps, pad))
    }
}

/// The widened candidate space of the bandit search: the cross product
/// **occupancy level × L1/shared split × split granularity**, in place
/// of the paper's linear ≤ 5-version occupancy list. Each point is a
/// version of [`CandidateSpace::kernel`] that carries its own split;
/// dominated versions are cheap to pre-prune analytically
/// ([`crate::policy::analytic_bound`]) because every one carries its
/// compile-probe occupancy.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    /// The lattice as a candidate set, versions sorted along the tuning
    /// direction (ascending occupancy for [`Direction::Increasing`],
    /// descending for [`Direction::Decreasing`]), default split before
    /// override, whole-grid before split pulls. Its original stands in
    /// for the untuned launch: default split, whole grid, at the
    /// binary's highest achievable occupancy (the driver's untouched
    /// schedule); fallback chains settle there. The tuning order is the
    /// original first, then the rest in direction order — the
    /// convention [`crate::compiler::compile`] emits.
    pub kernel: CompiledKernel,
    /// Grid slices per measurement pull of each version (`1` = whole
    /// grid in one launch), indexed like `kernel.versions`. Slices
    /// cover the grid exactly once per pull, so versions of different
    /// granularity stay directly comparable by total cycles.
    pub pieces: Vec<u32>,
}

impl CandidateSpace {
    /// Enumerate the lattice for `module` on `dev` at `block` threads
    /// per block, launched over `grid` blocks. Occupancy levels come
    /// from [`VersionBuilder::sweep`] per split, since the split changes
    /// shared-memory capacity and with it which levels are achievable;
    /// the split-granularity axis (whole grid, or [`SPLIT_PIECES`]
    /// slices) is gated by [`can_split`] so undersized grids only get
    /// whole-grid versions.
    ///
    /// # Errors
    /// [`OrionError::NoAchievableOccupancy`] when no level is achievable
    /// under any split; liveness and allocation failures propagate.
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
        let default = VersionBuilder::new(dev, block, module);
        let mut arms: Vec<(KernelVersion, u32)> = Vec::new();
        for vb in [default.clone(), default.with_cache_config(alt)] {
            for v in vb.sweep()? {
                for &pieces in granularities {
                    let mut version = v.clone();
                    version.label = format!(
                        "occ={}/{}{}",
                        version.achieved_warps,
                        match vb.cache_config {
                            None => "l1-default",
                            Some(CacheConfig::SmallCache) => "l1-small",
                            Some(CacheConfig::LargeCache) => "l1-large",
                        },
                        if pieces > 1 { format!("/p{pieces}") } else { String::new() },
                    );
                    arms.push((version, pieces));
                }
            }
        }
        if arms.is_empty() {
            return Err(OrionError::NoAchievableOccupancy);
        }
        // Direction-ordered: the paper walk visits versions the way
        // Figure 9 walks occupancy levels; ties resolve
        // default-split-first, then coarsest granularity, so the walk's
        // anchor sequence is stable.
        arms.sort_by_key(|(v, pieces)| {
            let warps = i64::from(v.achieved_warps);
            let dir = match direction {
                Direction::Increasing => warps,
                Direction::Decreasing => -warps,
            };
            (dir, u8::from(v.cache_config.is_some()), *pieces)
        });
        let original = arms
            .iter()
            .enumerate()
            .filter(|(_, (v, pieces))| v.cache_config.is_none() && *pieces == 1)
            .max_by_key(|(_, (v, _))| v.achieved_warps)
            .map_or(0, |(i, _)| i);
        let tuning_order: Vec<usize> =
            std::iter::once(original).chain((0..arms.len()).filter(|&i| i != original)).collect();
        let (versions, pieces) = arms.into_iter().unzip();
        let kernel = CompiledKernel {
            versions,
            direction,
            original,
            max_live: kernel_max_live(module)?,
            tuning_order,
        };
        Ok(CandidateSpace { kernel, pieces })
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
        let v = vb.realize(SlotBudget { reg_slots: 16, smem_slots: 0 }, "t").unwrap();
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
        let base = vb.realize(SlotBudget { reg_slots: 16, smem_slots: 0 }, "base").unwrap();
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
        let base = vb.realize(SlotBudget { reg_slots: 16, smem_slots: 0 }, "base").unwrap();
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
        let versions = &space.kernel.versions;
        assert_eq!(space.pieces.len(), versions.len());
        assert!(
            versions.iter().any(|v| v.cache_config.is_none())
                && versions.iter().any(|v| v.cache_config == Some(CacheConfig::LargeCache)),
            "both L1/shared splits must appear"
        );
        assert!(
            space.pieces.contains(&1) && space.pieces.contains(&8),
            "both split granularities must appear"
        );
        let occs: std::collections::BTreeSet<u32> =
            versions.iter().map(|v| v.achieved_warps).collect();
        assert!(occs.len() >= 3, "several occupancy levels: {occs:?}");
        // Direction order with stable ties.
        assert!(versions.windows(2).all(|w| w[0].achieved_warps <= w[1].achieved_warps));
        // The original is the untouched schedule: default split, whole
        // grid, highest occupancy.
        let orig = space.kernel.original;
        assert!(versions[orig].cache_config.is_none());
        assert_eq!(space.pieces[orig], 1);
        assert_eq!(
            versions[orig].achieved_warps,
            (0..versions.len())
                .filter(|&i| versions[i].cache_config.is_none() && space.pieces[i] == 1)
                .map(|i| versions[i].achieved_warps)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn undersized_grids_get_no_split_arms() {
        let dev = DeviceSpec::gtx680(); // 8 SMs: 8-way split needs ≥ 64 blocks
        let m = kernel(4);
        let space = CandidateSpace::enumerate(&dev, 32, &m, Direction::Decreasing, 16).unwrap();
        assert!(space.pieces.iter().all(|&p| p == 1));
        assert!(space
            .kernel
            .versions
            .windows(2)
            .all(|w| w[0].achieved_warps >= w[1].achieved_warps));
    }

    #[test]
    fn lattice_is_tuned_original_first_then_in_direction_order() {
        let dev = DeviceSpec::c2075();
        let m = kernel(6);
        let space = CandidateSpace::enumerate(&dev, 192, &m, Direction::Increasing, 28).unwrap();
        let ck = &space.kernel;
        assert_eq!(ck.tuning_order[0], ck.original, "walk starts at the original version");
        let rest: Vec<usize> = (0..ck.versions.len()).filter(|&i| i != ck.original).collect();
        assert_eq!(ck.tuning_order[1..], rest[..], "then every other version, in lattice order");
        assert_eq!(ck.max_live, kernel_max_live(&m).unwrap());
        // A split's occupancy is derived under that split's capacity.
        for v in &ck.versions {
            let split = v.cache_config.map_or_else(|| dev.clone(), |c| dev.with_cache_config(c));
            assert_eq!(occupancy(&split, &v.resources(192)).active_warps, v.achieved_warps);
        }
    }
}
