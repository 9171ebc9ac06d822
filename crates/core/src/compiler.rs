//! Compile-time occupancy tuning — §3.3 and Figure 8.
//!
//! The compiler decides the tuning *direction* from the max-live metric
//! (≥ 32 registers of simultaneous liveness ⇒ occupancy is register-
//! limited and can be tuned upward; below that the kernel already runs
//! at hardware-maximum occupancy and can only be tuned downward), then
//! emits a small set of candidate kernel versions (≤ 5) for the runtime
//! stage:
//!
//! * the **original** version — all live values in the minimal number of
//!   registers (or the per-thread hardware cap);
//! * the **conservative** version — the highest occupancy at which all
//!   values still fit in on-chip memory (registers + private shared
//!   memory slots);
//! * stepped versions between the conservative occupancy and the
//!   hardware maximum (upward direction), realized by re-allocation; or
//! * stepped *downward* versions realized without recompilation, by
//!   padding the driver's per-block shared-memory reservation;
//! * a fail-safe version in the opposite direction.

use crate::budget::budget_for_warps;
use crate::error::OrionError;
use crate::version::VersionBuilder;
use orion_alloc::realize::{kernel_max_live, AllocReport, SlotBudget};
use orion_gpusim::device::{CacheConfig, DeviceSpec};
use orion_gpusim::occupancy::{occupancy, KernelResources};
use orion_gpusim::sim::LaunchOptions;
use orion_kir::function::Module;
use orion_kir::mir::MModule;
use serde::{Deserialize, Serialize};

/// The max-live threshold that selects the tuning direction (the number
/// of registers per thread that still allows hardware-maximum occupancy
/// on the Kepler evaluation platform — §3.3).
pub const MAX_LIVE_THRESHOLD: u32 = 32;

/// Tuning direction (Figure 8, lines 1–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// High register pressure: start low, add occupancy.
    Increasing,
    /// Low pressure: already at maximum, try saving resources downward.
    Decreasing,
}

/// Configuration of the Orion compiler + runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningConfig {
    /// Threads per block of the application's launches.
    pub block: u32,
    /// Whether the application offers enough iterations (or enough
    /// threads for kernel splitting) to tune dynamically; otherwise the
    /// static selection is used (Figure 8, line 13).
    pub can_tune: bool,
    /// Maximum candidate versions (the paper emits ≤ 5).
    pub max_versions: usize,
}

impl TuningConfig {
    /// Defaults matching the paper: ≤5 versions.
    pub fn new(block: u32) -> Self {
        TuningConfig { block, can_tune: true, max_versions: 5 }
    }
}

/// One candidate: a kernel binary plus the driver-side launch settings
/// that put it at a specific occupancy level.
#[derive(Debug, Clone)]
pub struct KernelVersion {
    /// The compiled binary.
    pub machine: MModule,
    /// Warps per SM this version targets.
    pub target_warps: u32,
    /// Warps per SM the driver will actually schedule.
    pub achieved_warps: u32,
    /// Occupancy (achieved warps / hardware max).
    pub occupancy: f64,
    /// Driver-side shared-memory padding (downward tuning).
    pub extra_smem: u32,
    /// Driver-side L1/shared-memory split (`cudaFuncSetCacheConfig`);
    /// `None` keeps the device's configured split. The occupancy above
    /// already reflects the split's shared-memory capacity.
    pub cache_config: Option<CacheConfig>,
    /// Allocator report for this version.
    pub report: AllocReport,
    /// True for the opposite-direction fail-safe version.
    pub fail_safe: bool,
    /// Human-readable tag ("original", "conservative", "occ=24", ...).
    pub label: String,
}

impl KernelVersion {
    /// Driver-visible resources of this version.
    pub fn resources(&self, block: u32) -> KernelResources {
        KernelResources {
            regs_per_thread: self.machine.regs_per_thread,
            smem_per_block: self.machine.smem_bytes_per_block(block) + self.extra_smem,
            block_size: block,
        }
    }

    /// `opts` with this version's driver-side settings applied: its
    /// shared-memory padding, and its L1/shared split when it carries
    /// one. Everything else in `opts` (CTA range, budgets, parallelism,
    /// faults) is the caller's.
    #[must_use]
    pub fn launch_options(&self, opts: LaunchOptions) -> LaunchOptions {
        LaunchOptions {
            extra_smem_per_block: self.extra_smem,
            cache_config: self.cache_config.or(opts.cache_config),
            ..opts
        }
    }
}

/// Output of the compile-time stage: the candidate set plus metadata.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Candidate versions; `versions[original]` is the original one.
    pub versions: Vec<KernelVersion>,
    pub direction: Direction,
    /// Index of the original version.
    pub original: usize,
    /// The kernel's max-live (words).
    pub max_live: u32,
    /// Index order the runtime should try (original first, then the
    /// tuning direction).
    pub tuning_order: Vec<usize>,
}

impl CompiledKernel {
    /// Candidate count excluding the fail-safe (the paper's "≤ 5").
    pub fn num_candidates(&self) -> usize {
        self.versions.iter().filter(|v| !v.fail_safe).count()
    }

    /// The index of the version labeled `label`.
    ///
    /// # Errors
    /// [`OrionError::UnknownVersion`] when no version carries the label.
    pub fn index_of(&self, label: &str) -> Result<usize, OrionError> {
        self.versions
            .iter()
            .position(|v| v.label == label)
            .ok_or_else(|| OrionError::UnknownVersion { label: label.to_string() })
    }
}

/// Run the compile-time stage of Orion on a kernel module.
///
/// # Errors
/// Propagates verifier and allocator failures.
pub fn compile(
    module: &Module,
    dev: &DeviceSpec,
    cfg: &TuningConfig,
) -> Result<CompiledKernel, OrionError> {
    orion_kir::verify::verify(module)?;
    let max_live = kernel_max_live(module)?;
    let direction =
        if max_live >= MAX_LIVE_THRESHOLD { Direction::Increasing } else { Direction::Decreasing };
    let warps_per_block = cfg.block.div_ceil(dev.warp_size);
    let vb = VersionBuilder::new(dev, cfg.block, module);
    let mut versions: Vec<KernelVersion> = vec![realize_original(&vb, dev, max_live)?];
    let original_idx = 0usize;

    match direction {
        Direction::Increasing if cfg.can_tune => {
            // Conservative: highest occupancy where everything still
            // fits on-chip (registers + private smem slots).
            let mut levels: Vec<u32> = Vec::new();
            let mut w = versions[0].achieved_warps + warps_per_block;
            while w <= dev.max_warps_per_sm {
                if budget_for_warps(dev, cfg.block, module.user_smem_bytes, w).is_some() {
                    levels.push(w);
                }
                w += warps_per_block;
            }
            let conservative_w = levels
                .iter()
                .copied()
                .filter(|&w| {
                    budget_for_warps(dev, cfg.block, module.user_smem_bytes, w)
                        .is_some_and(|b| u32::from(b.total()) >= max_live)
                })
                .max();
            // Candidate levels: conservative upward to max, thinned to
            // the version budget.
            let from = conservative_w.unwrap_or_else(|| levels.first().copied().unwrap_or(0));
            let mut cands: Vec<u32> = levels.into_iter().filter(|&l| l >= from).collect();
            let room = cfg.max_versions.saturating_sub(1).max(1);
            while cands.len() > room {
                // Thin evenly, always keeping the endpoints.
                let mut kept = Vec::with_capacity(room);
                for i in 0..room {
                    let idx = i * (cands.len() - 1) / (room - 1).max(1);
                    kept.push(cands[idx]);
                }
                kept.dedup();
                cands = kept;
                if cands.len() <= room {
                    break;
                }
            }
            for (i, w) in cands.iter().copied().enumerate() {
                let budget = budget_for_warps(dev, cfg.block, module.user_smem_bytes, w)
                    .expect("level was achievable");
                let label = if Some(w) == conservative_w && i == 0 {
                    "conservative".to_string()
                } else {
                    format!("occ={w}")
                };
                let v = vb.realize(budget, label)?;
                // Skip duplicates (same achieved occupancy as an
                // existing version).
                if versions.iter().any(|x| {
                    x.achieved_warps == v.achieved_warps
                        && x.machine.regs_per_thread == v.machine.regs_per_thread
                }) {
                    continue;
                }
                versions.push(v);
            }
            // Fail-safe: one step *down* from the original via padding.
            let target = versions[0].achieved_warps.saturating_sub(warps_per_block);
            if target > 0 {
                if let Some(mut fs) = vb.padded(&versions[0], target) {
                    fs.fail_safe = true;
                    fs.label = "fail-safe-down".to_string();
                    versions.push(fs);
                }
            }
        }
        Direction::Decreasing if cfg.can_tune => {
            // Downward levels realized by shared-memory padding of the
            // *same* binary (no recompilation, Figure 8's note).
            let base_occ = occupancy(dev, &versions[0].resources(cfg.block));
            let max_blocks = base_occ.active_blocks;
            let mut added = 0usize;
            for blocks in (1..max_blocks).rev() {
                if added + 2 > cfg.max_versions {
                    break;
                }
                let target = blocks * warps_per_block;
                let Some(v) = vb.padded(&versions[0], target) else {
                    continue;
                };
                if versions.iter().any(|x| x.achieved_warps == v.achieved_warps) {
                    continue;
                }
                versions.push(v);
                added += 1;
            }
            // Fail-safe upward is impossible here (already at max), so
            // none is added — matching the paper's observation that the
            // decreasing direction needs no extra binaries.
        }
        _ => {
            // Static selection (Figure 8, line 13 and lines 15–19): no
            // dynamic tuning available. For the increasing direction,
            // pick the conservative version; for the decreasing one,
            // keep the lowest occupancy that still covers memory
            // latency by the static latency-coverage estimate.
            if direction == Direction::Increasing {
                if let Some(w) = (versions[0].achieved_warps..=dev.max_warps_per_sm)
                    .step_by(warps_per_block as usize)
                    .filter(|&w| {
                        budget_for_warps(dev, cfg.block, module.user_smem_bytes, w)
                            .is_some_and(|b| u32::from(b.total()) >= max_live)
                    })
                    .max()
                {
                    let budget = budget_for_warps(dev, cfg.block, module.user_smem_bytes, w)
                        .expect("achievable");
                    let v = vb.realize(budget, "static")?;
                    versions = vec![v];
                }
            } else {
                let min_warps = static_min_warps(module, dev);
                let base = occupancy(dev, &versions[0].resources(cfg.block));
                let mut best: Option<KernelVersion> = None;
                for blocks in 1..=base.active_blocks {
                    let target = blocks * warps_per_block;
                    if target < min_warps {
                        continue;
                    }
                    let mut v = vb
                        .padded(&versions[0], target)
                        .unwrap_or_else(|| vb.repad(&versions[0], target, 0));
                    v.label = "static".to_string();
                    best = Some(v);
                    break;
                }
                if let Some(v) = best {
                    versions = vec![v];
                }
            }
        }
    }

    let tuning_order: Vec<usize> = std::iter::once(original_idx)
        .chain((0..versions.len()).filter(|&i| i != original_idx && !versions[i].fail_safe))
        .collect();
    Ok(CompiledKernel { versions, direction, original: original_idx, max_live, tuning_order })
}

/// The nvcc-like original: every live value in registers, and whatever
/// occupancy the driver derives from that. [`compile`] starts from it;
/// the experiments' nvcc baseline is it, whatever [`compile`] selected.
///
/// # Errors
/// Propagates verifier and allocator failures.
pub fn original(
    module: &Module,
    dev: &DeviceSpec,
    block: u32,
) -> Result<KernelVersion, OrionError> {
    orion_kir::verify::verify(module)?;
    let max_live = kernel_max_live(module)?;
    realize_original(&VersionBuilder::new(dev, block, module), dev, max_live)
}

/// The original's register budget, the one place it is set: the
/// kernel's max-live registers (capped by the hardware, at least two),
/// no shared-memory slots.
fn realize_original(
    vb: &VersionBuilder<'_>,
    dev: &DeviceSpec,
    max_live: u32,
) -> Result<KernelVersion, OrionError> {
    let regs = (max_live.min(u32::from(dev.max_regs_per_thread)) as u16).max(2);
    vb.realize(SlotBudget { reg_slots: regs, smem_slots: 0 }, "original")
}

/// [`VersionBuilder::sweep`] of a verified module: one version per
/// achievable occupancy level, ascending — the exhaustive sweep behind
/// Figures 1/2/10/14/15 and the Orion-Min/Max bars of Figure 11.
///
/// # Errors
/// Propagates verifier and allocator failures, and fails when no level
/// is achievable at all.
pub fn sweep(
    module: &Module,
    dev: &DeviceSpec,
    block: u32,
) -> Result<Vec<KernelVersion>, OrionError> {
    orion_kir::verify::verify(module)?;
    let out = VersionBuilder::new(dev, block, module).sweep()?;
    if out.is_empty() {
        return Err(OrionError::NoAchievableOccupancy);
    }
    Ok(out)
}

/// Static estimate of the fewest warps that still cover memory latency
/// (the Figure 8 `WS * CDI / DL` test, interpreted as: each warp issues
/// roughly `insts_per_mem × issue interval` cycles of work per memory
/// access of `DL` cycles latency, so `warps ≥ DL / work` hides it).
pub fn static_min_warps(module: &Module, dev: &DeviceSpec) -> u32 {
    let kernel = module.kernel();
    let total = kernel.num_insts().max(1) as u64;
    let mem =
        kernel.blocks.iter().flat_map(|b| &b.insts).filter(|i| i.op.is_mem()).count().max(1) as u64;
    let work_per_mem = (total / mem).max(1) * dev.alu_latency / 4;
    (dev.dram_latency / work_per_mem.max(1)).clamp(4, u64::from(dev.max_warps_per_sm)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::inst::Operand;
    use orion_kir::types::{MemSpace, SpecialReg, Width};

    fn pressure_kernel(live: usize) -> Module {
        let mut b = FunctionBuilder::kernel("p");
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
    fn sweep_covers_many_levels() {
        let sweep = sweep(&pressure_kernel(8), &DeviceSpec::c2075(), 192).unwrap();
        assert!(sweep.len() >= 5, "{}", sweep.len());
        // Ascending occupancy, including the hardware max.
        assert!(sweep.windows(2).all(|w| w[0].achieved_warps < w[1].achieved_warps));
        assert_eq!(sweep.last().unwrap().achieved_warps, 48);
        // Low levels pad, high levels don't.
        assert!(sweep.first().unwrap().extra_smem > 0);
        assert_eq!(sweep.last().unwrap().extra_smem, 0);
    }

    #[test]
    fn original_uses_maxlive_registers() {
        let dev = DeviceSpec::gtx680();
        let m = pressure_kernel(40);
        let base = original(&m, &dev, 256).unwrap();
        assert!(base.machine.regs_per_thread >= 40);
        assert_eq!(base.machine.smem_slots_per_thread, 0);
        assert!(base.occupancy < 1.0);
        // The candidate set starts from the very same version.
        let ck = compile(&m, &dev, &TuningConfig::new(256)).unwrap();
        let cand = &ck.versions[ck.original];
        assert_eq!((cand.label.as_str(), cand.achieved_warps), ("original", base.achieved_warps));
        assert_eq!(cand.machine, base.machine);
    }

    #[test]
    fn high_pressure_tunes_upward() {
        let dev = DeviceSpec::gtx680();
        let m = pressure_kernel(40);
        let ck = compile(&m, &dev, &TuningConfig::new(256)).unwrap();
        assert_eq!(ck.direction, Direction::Increasing);
        assert!(ck.max_live >= 40);
        assert!(ck.num_candidates() >= 2, "{:?}", ck.versions.len());
        assert!(ck.num_candidates() <= 5);
        // Upward versions have increasing occupancy.
        let occs: Vec<u32> =
            ck.tuning_order.iter().map(|&i| ck.versions[i].achieved_warps).collect();
        assert!(occs.windows(2).all(|w| w[1] >= w[0]), "{occs:?}");
    }

    #[test]
    fn low_pressure_tunes_downward() {
        let dev = DeviceSpec::c2075();
        let m = pressure_kernel(4);
        let ck = compile(&m, &dev, &TuningConfig::new(192)).unwrap();
        assert_eq!(ck.direction, Direction::Decreasing);
        // Original runs at hardware max.
        assert_eq!(ck.versions[ck.original].achieved_warps, dev.max_warps_per_sm);
        // Downward versions share the binary but pad shared memory.
        let down: Vec<&KernelVersion> = ck.versions.iter().filter(|v| v.extra_smem > 0).collect();
        assert!(!down.is_empty());
        for v in down {
            assert!(v.achieved_warps < dev.max_warps_per_sm);
            assert_eq!(v.machine.regs_per_thread, ck.versions[ck.original].machine.regs_per_thread);
        }
    }

    #[test]
    fn candidate_budget_respected() {
        let dev = DeviceSpec::c2075();
        let m = pressure_kernel(40);
        let mut cfg = TuningConfig::new(128);
        cfg.max_versions = 3;
        let ck = compile(&m, &dev, &cfg).unwrap();
        assert!(ck.num_candidates() <= 3);
    }

    #[test]
    fn static_selection_when_cannot_tune() {
        let dev = DeviceSpec::c2075();
        let m = pressure_kernel(40);
        let mut cfg = TuningConfig::new(128);
        cfg.can_tune = false;
        let ck = compile(&m, &dev, &cfg).unwrap();
        assert_eq!(ck.versions.len(), 1);
        assert_eq!(ck.versions[0].label, "static");
    }

    #[test]
    fn launch_options_apply_the_version_settings_and_keep_the_callers() {
        let dev = DeviceSpec::c2075();
        let ck = compile(&pressure_kernel(4), &dev, &TuningConfig::new(192)).unwrap();
        let mut v =
            ck.versions.iter().find(|v| v.extra_smem > 0).expect("a padded version").clone();
        let faults = orion_gpusim::faults::LaunchFaults { jitter_ppm: 7, ..Default::default() };
        let caller =
            LaunchOptions { cta_range: Some((2, 3)), parallelism: 2, faults, ..Default::default() };
        let opts = v.launch_options(caller);
        assert_eq!((opts.extra_smem_per_block, opts.cache_config), (v.extra_smem, None));
        assert_eq!((opts.cta_range, opts.parallelism, opts.faults), (Some((2, 3)), 2, faults));
        // The version's own split wins; without one, the caller's stays.
        let caller = caller.with_cache_config(CacheConfig::SmallCache);
        assert_eq!(v.launch_options(caller).cache_config, Some(CacheConfig::SmallCache));
        v.cache_config = Some(CacheConfig::LargeCache);
        assert_eq!(v.launch_options(caller).cache_config, Some(CacheConfig::LargeCache));
    }

    #[test]
    fn static_min_warps_sane() {
        let dev = DeviceSpec::c2075();
        let m = pressure_kernel(6);
        let w = static_min_warps(&m, &dev);
        assert!(w >= 4 && w <= dev.max_warps_per_sm);
    }
}
