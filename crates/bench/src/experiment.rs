//! The shared experiment engine: sweeps, Orion end-to-end runs,
//! baselines, ablations, and energy accounting over the workloads.

use crate::app::{compile_workload, App};
use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
use orion_core::backend::SimBackend;
use orion_core::compiler::{original, sweep};
use orion_core::session::TuningSession;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::SimError;
use orion_gpusim::power::{energy, EnergyReport, PowerModel};
use orion_gpusim::sim::{run_launch, LaunchOptions, RunResult};
use orion_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Harness failure.
#[derive(Debug)]
pub enum ExperimentError {
    Orion(orion_core::OrionError),
    Sim(SimError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Orion(e) => write!(f, "{e}"),
            ExperimentError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<orion_core::OrionError> for ExperimentError {
    fn from(e: orion_core::OrionError) -> Self {
        ExperimentError::Orion(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

/// One point of an occupancy/performance curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CurvePoint {
    pub warps: u32,
    pub occupancy: f64,
    pub cycles: u64,
    pub regs_per_thread: u16,
    pub smem_slots: u16,
    pub local_slots: u16,
    /// Total energy of the launch (pJ, default power model).
    pub energy_pj: f64,
}

/// Sweep every achievable occupancy level of `w` on `dev` — the engine
/// behind Figures 1, 2, 10, 14, 15 and the Orion-Min/Max bars.
pub fn sweep_curve(dev: &DeviceSpec, w: &Workload) -> Result<Vec<CurvePoint>, ExperimentError> {
    let versions = sweep(&w.module, dev, w.block)?;
    let backend = SimBackend::new(dev.clone());
    let model = PowerModel::default();
    let mut out = Vec::with_capacity(versions.len());
    for v in &versions {
        let global = &mut w.init_global.clone();
        match backend.run(v, w.launch(), &w.params, global, LaunchOptions::default()) {
            Ok(r) => out.push(CurvePoint {
                warps: v.achieved_warps,
                occupancy: v.occupancy,
                cycles: r.cycles,
                regs_per_thread: v.machine.regs_per_thread,
                smem_slots: v.machine.smem_slots_per_thread,
                local_slots: v.machine.local_slots_per_thread,
                energy_pj: energy(
                    &model,
                    dev,
                    &r.stats,
                    r.cycles,
                    &r.occupancy,
                    v.machine.regs_per_thread,
                )
                .total(),
            }),
            // Levels that cannot launch (e.g. not enough smem) are
            // skipped, like the paper's empty Table 3 cells.
            Err(SimError::Unlaunchable(_)) => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(out)
}

/// Iterations the paper's applications typically run; tuning overhead
/// amortizes over this horizon in the Orion-Select numbers.
pub const AMORTIZATION_ITERS: u32 = 100;

/// Relative slowdown tolerated while tuning downward. The paper uses 2%
/// on real hardware; our finite grids add wave-tail quantization noise
/// of a few percent between adjacent residencies, so the reproduction
/// widens the band accordingly (documented in EXPERIMENTS.md).
pub const DOWNWARD_THRESHOLD: f64 = 0.05;

/// Outcome of an end-to-end Orion run on a workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectOutcome {
    /// Steady-state cycles of the finalized version.
    pub selected_cycles: u64,
    /// Average cycles per iteration with tuning overhead amortized over
    /// [`AMORTIZATION_ITERS`] application iterations — what Orion-Select
    /// reports in Figure 11.
    pub select_avg_cycles: f64,
    /// nvcc-baseline cycles.
    pub nvcc_cycles: u64,
    /// Best and worst cycles over the full sweep.
    pub best_cycles: u64,
    pub worst_cycles: u64,
    /// Occupancy (warps) of selection / baseline / sweep-best.
    pub selected_warps: u32,
    pub nvcc_warps: u32,
    pub best_warps: u32,
    /// Registers per thread of selection and baseline.
    pub selected_regs: u16,
    pub nvcc_regs: u16,
    /// Iterations the tuner spent exploring.
    pub converged_after: usize,
    /// Candidate versions the compiler emitted (≤ 5 in the paper).
    pub candidates: usize,
    /// Energy of the selected version and of the sweep's energy-optimal
    /// version, and the baseline's (Figure 13).
    pub selected_energy: f64,
    pub ideal_energy: f64,
    pub nvcc_energy: f64,
}

/// Full Orion pipeline on a workload: compile (Fig 8), tune (Fig 9),
/// compare against the nvcc baseline and the exhaustive sweep.
pub fn orion_select(dev: &DeviceSpec, w: &Workload) -> Result<SelectOutcome, ExperimentError> {
    orion_select_impl(dev, w, true)
}

/// Like [`orion_select`] but without the exhaustive sweep (Table 3 only
/// needs selected-vs-nvcc; skipping the sweep keeps it tractable).
pub fn orion_select_lite(dev: &DeviceSpec, w: &Workload) -> Result<SelectOutcome, ExperimentError> {
    orion_select_impl(dev, w, false)
}

fn orion_select_impl(
    dev: &DeviceSpec,
    w: &Workload,
    with_sweep: bool,
) -> Result<SelectOutcome, ExperimentError> {
    let compiled = compile_workload(dev, w)?;
    let baseline = original(&w.module, dev, w.block)?;
    let sweep = if with_sweep { sweep_curve(dev, w)? } else { Vec::new() };
    let model = PowerModel::default();

    // Tune across the application's iterations.
    let backend = SimBackend::new(dev.clone());
    let mut app = App::new(&backend, w, None);
    let iters = w.iterations.max(1);
    let outcome =
        TuningSession::simple(&compiled, iters, DOWNWARD_THRESHOLD).drive(|v| app.launch(v))?;
    let opts = LaunchOptions::default();
    let selected = &compiled.versions[outcome.selected];
    // Steady state and baseline, each from fresh memory.
    let fresh = |v| backend.run(v, w.launch(), &w.params, &mut w.init_global.clone(), opts);
    let (sel_run, nvcc_run) = (fresh(selected)?, fresh(&baseline)?);
    // Tuning overhead amortized over the application horizon.
    let explored: u64 =
        outcome.iterations.iter().take(outcome.converged_after).map(|&(_, c)| c).sum();
    let horizon = u64::from(AMORTIZATION_ITERS);
    let amortized = (explored + (horizon - outcome.converged_after as u64) * sel_run.cycles) as f64
        / horizon as f64;

    let energy_of = |r: &RunResult, regs: u16| -> EnergyReport {
        energy(&model, dev, &r.stats, r.cycles, &r.occupancy, regs)
    };
    let sel_energy = energy_of(&sel_run, selected.machine.regs_per_thread).total();
    let nvcc_energy = energy_of(&nvcc_run, baseline.machine.regs_per_thread).total();
    // Ideal energy straight from the sweep's per-point accounting.
    let ideal_energy = sweep.iter().map(|p| p.energy_pj).fold(f64::MAX, f64::min).min(sel_energy);

    let fallback = CurvePoint {
        warps: selected.achieved_warps,
        occupancy: selected.occupancy,
        cycles: sel_run.cycles,
        regs_per_thread: selected.machine.regs_per_thread,
        smem_slots: selected.machine.smem_slots_per_thread,
        local_slots: selected.machine.local_slots_per_thread,
        energy_pj: sel_energy,
    };
    let best = sweep.iter().min_by_key(|p| p.cycles).unwrap_or(&fallback);
    let worst = sweep.iter().max_by_key(|p| p.cycles).unwrap_or(&fallback);
    Ok(SelectOutcome {
        selected_cycles: sel_run.cycles,
        select_avg_cycles: amortized,
        nvcc_cycles: nvcc_run.cycles,
        best_cycles: best.cycles,
        worst_cycles: worst.cycles,
        selected_warps: selected.achieved_warps,
        nvcc_warps: baseline.achieved_warps,
        best_warps: best.warps,
        selected_regs: selected.machine.regs_per_thread,
        nvcc_regs: baseline.machine.regs_per_thread,
        converged_after: outcome.converged_after,
        candidates: compiled.num_candidates(),
        selected_energy: sel_energy,
        ideal_energy,
        nvcc_energy,
    })
}

/// Run a workload once with explicit allocator options at the baseline
/// register budget — the Figure 5 ablation engine.
pub fn run_with_alloc_options(
    dev: &DeviceSpec,
    w: &Workload,
    budget: SlotBudget,
    opts: &AllocOptions,
) -> Result<(u64, u32), ExperimentError> {
    let alloc = allocate(&w.module, budget, opts).map_err(orion_core::OrionError::from)?;
    let mut global = w.init_global.clone();
    let r = run_launch(dev, &alloc.machine, w.launch(), &w.params, &mut global)?;
    Ok((r.cycles, alloc.machine.static_stack_moves))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulator sweeps need --release")]
    fn sweep_produces_monotone_occupancies() {
        let dev = DeviceSpec::c2075();
        let w = orion_workloads::by_name("gaussian").unwrap();
        let curve = sweep_curve(&dev, &w).unwrap();
        assert!(curve.len() >= 4);
        assert!(curve.windows(2).all(|p| p[0].warps < p[1].warps));
        assert!(curve.iter().all(|p| p.cycles > 0));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulator sweeps need --release")]
    fn orion_select_runs_end_to_end() {
        let dev = DeviceSpec::c2075();
        let w = orion_workloads::by_name("srad").unwrap();
        let out = orion_select(&dev, &w).unwrap();
        assert!(out.candidates <= 5);
        assert!(out.best_cycles <= out.worst_cycles);
        assert!(out.selected_cycles >= out.best_cycles);
    }
}
