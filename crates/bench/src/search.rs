//! The search-policy ablation: the paper's Figure 9 walk (§3.4) against
//! the bound-pruned UCB bandit.
//!
//! Runs the tier-1 workloads through the widened candidate space
//! (occupancy level × L1/shared split × split granularity, see
//! [`CandidateSpace`]) under both shipped search rules ([`Policy`]),
//! launching through [`SimBackend::run`] in one application run
//! ([`App`]) per cell, across clean and seeded-chaos measurement
//! streams, and records two axes per (workload, seed, policy) cell:
//!
//! * **launches-to-converge** — simulated launches (each grid slice
//!   counts) spent before the policy finalizes;
//! * **final-pick cycles** — one clean whole-grid run of the selected
//!   arm under its steady-state launch options, so picks are compared
//!   on quality, not on the noise they were measured under.
//!
//! Two gates read the cells of a [`SearchDoc`] and return their
//! failures, each naming its gate:
//!
//! 1. [`quality_failures`] (every cell): the bandit's final pick is
//!    never more than [`PICK_BOUND`] times the walk's on the same
//!    (workload, seed).
//! 2. [`convergence_failures`] (aggregate): the bandit's mean
//!    launches-to-converge is ≤ the walk's on at least
//!    [`CONVERGENCE_QUORUM`] of the workloads. Bound pruning is the
//!    whole point — dominated arms must never be launched.
//!
//! `--bin search` records the canonical run ([`SEEDS`],
//! [`bandit_config`]) as the committed `BENCH_search.json`;
//! `tests/search.rs` gates it and pins the record byte for byte.

use crate::app::{compile_workload, steady_run, App};
use crate::error::BenchError;
use crate::figures::Figure;
use orion_core::backend::SimBackend;
use orion_core::compiler::KernelVersion;
use orion_core::policy::{analytic_bound, BanditConfig, BoundCtx, Policy, PolicyKind};
use orion_core::resilient::ResiliencePolicy;
use orion_core::session::{SessionStep, TuningSession};
use orion_core::splitting::split_ranges;
use orion_core::version::CandidateSpace;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::faults::{FaultInjector, FaultPlan};
use orion_gpusim::sim::LaunchOptions;
use orion_workloads::{by_name, Workload};
use serde::Serialize;

/// The workloads the ablation sweeps.
pub const WORKLOADS: [&str; 3] = ["matrixMul", "backprop", "hotspot"];
/// The canonical seeds: 0 measures clean, the rest under a chaos plan.
pub const SEEDS: [u64; 3] = [0, 7, 1337];
/// The walk's slowdown threshold.
pub const THRESHOLD: f64 = 0.05;
/// Quality gate: the bandit's pick may cost at most this many times the
/// walk's pick cycles.
pub const PICK_BOUND: f64 = 1.02;
/// Convergence gate: workloads on which the bandit must need no more
/// launches than the walk.
pub const CONVERGENCE_QUORUM: usize = 2;

const WALK: &str = "paper_walk";
const BANDIT: &str = "bandit";

/// The bandit schedule the ablation ships: prune on the analytic bound
/// at 15% slack, pull every surviving arm once in ascending-bound order,
/// and pick the fastest. The cap of two total pulls is checked only
/// after that sweep, so the confirm pull and the UCB refinement run only
/// if quarantines leave a single live arm.
#[must_use]
pub fn bandit_config() -> BanditConfig {
    BanditConfig { exploration_milli: 200, prune_slack_pct: 15, confirm_pulls: 1, max_pulls: 2 }
}

/// No pruning: the sweep pulls every arm of the 32–40-arm lattice once
/// and the fastest is picked. The sweep alone reaches the 16-pull cap,
/// so the confirm and UCB pulls run only if quarantines leave fewer
/// than 16 live arms. The schedule the convergence gate exists to
/// reject.
#[must_use]
pub fn greedy_config() -> BanditConfig {
    BanditConfig {
        exploration_milli: 4000,
        prune_slack_pct: u32::MAX,
        confirm_pulls: 16,
        max_pulls: 16,
    }
}

/// One (workload, seed, policy) result.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    pub workload: String,
    pub seed: u64,
    pub policy: String,
    pub arms: usize,
    pub arms_pruned: usize,
    pub launches_to_converge: u64,
    pub quarantined: usize,
    pub selected_label: String,
    pub final_pick_cycles: u64,
}

/// Per-workload view of the cells.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadSummary {
    pub workload: String,
    pub arms: usize,
    pub walk_mean_launches: f64,
    pub bandit_mean_launches: f64,
    /// Convergence-cost axis: bandit mean ≤ walk mean on this workload.
    pub bandit_converges_no_slower: bool,
    /// Worst bandit/walk final-pick cycle ratio across seeds.
    pub worst_pick_ratio: f64,
}

/// The ablation record (`BENCH_search.json`).
#[derive(Debug, Clone, Serialize)]
pub struct SearchDoc {
    pub device: String,
    pub seeds: Vec<u64>,
    pub threshold: f64,
    pub bandit: BanditConfig,
    pub workloads: Vec<WorkloadSummary>,
    pub cells: Vec<Cell>,
}

struct SearchRun {
    launches: u64,
    quarantined: usize,
    selected: usize,
}

/// Drive `policy` over the space on a [`TuningSession`], through the
/// fault seam. Each pull runs its version's grid slices and reports
/// their summed cycles, or the first failed slice's error, as one
/// launch result. One sample per pass and no retries make every failed
/// pull a strike: the session quarantines a version after
/// [`ResiliencePolicy::quarantine_strikes`] consecutive ones. Runs
/// until the policy settles, or the launch budget (each slice counts)
/// is spent.
fn drive(
    backend: &SimBackend,
    w: &Workload,
    space: &CandidateSpace,
    policy: Policy,
    injector: Option<&FaultInjector>,
) -> SearchRun {
    let ck = &space.kernel;
    let budget = 32 * ck.versions.len().max(1) as u64;
    let resilience = ResiliencePolicy { samples: 1, max_retries: 0, ..ResiliencePolicy::default() };
    let iterations = u32::try_from(budget).unwrap_or(u32::MAX);
    let mut session = TuningSession::over(w.name, ck, iterations, THRESHOLD, resilience, policy);
    let mut app = App::new(backend, w, injector);
    while !session.state().is_settled() && u64::from(app.launches()) < budget {
        let Ok(SessionStep::Launch(i)) = session.next_step() else { break };
        let slices = split_ranges(w.launch().grid, space.pieces[i]);
        let cycles = slices.into_iter().try_fold(0u64, |sum, range| {
            let opts = LaunchOptions { cta_range: Some(range), ..LaunchOptions::default() };
            let r = app.run(&ck.versions[i], opts)?;
            Ok(sum.saturating_add(r.cycles))
        });
        if session.on_launch_result(cycles).is_err() {
            break;
        }
    }
    let quarantined = session.policy().quarantined_count();
    SearchRun { launches: app.launches().into(), quarantined, selected: session.finish().selected }
}

/// Run the ablation over [`WORKLOADS`] × `seeds` × both policies, the
/// bandit on schedule `cfg`.
///
/// # Panics
/// If a tier-1 workload fails to compile or enumerate, or the clean
/// steady-state run of a pick fails.
#[must_use]
pub fn ablation(dev: &DeviceSpec, seeds: &[u64], cfg: BanditConfig) -> SearchDoc {
    let backend = SimBackend::new(dev.clone());
    let mut cells = Vec::new();
    for name in WORKLOADS {
        let w = by_name(name).expect("tier-1 workload");
        let ck = compile_workload(dev, &w).expect("tier-1 workload compiles");
        let space =
            CandidateSpace::enumerate(dev, w.block, &w.module, ck.direction, w.launch().grid)
                .expect("candidate space enumerates");
        let lattice = &space.kernel;
        let ctx = BoundCtx::new(w.block, w.launch().grid, dev.num_sms, dev.warp_size);
        // Launch-economy bounds: one pull of a `pieces`-way split arm
        // costs `pieces` simulated launches for the same steady-state
        // behavior as its unsplit twin (split granularity only shapes
        // measurement), so the bound is cost-weighted by the split
        // factor. Under the default slack this prunes split twins
        // unless their unsplit version is itself dominated.
        let bound = |i: usize, v: &KernelVersion| {
            analytic_bound(v, &ctx).saturating_mul(u64::from(space.pieces[i].max(1)))
        };
        for &seed in seeds {
            let plan = (seed != 0).then(|| FaultPlan::chaos(seed, 0.10, 0.05));
            for kind in [WALK, BANDIT] {
                let policy = if kind == BANDIT {
                    Policy::bandit(lattice, bound, cfg)
                } else {
                    PolicyKind::PaperWalk.build(lattice, THRESHOLD)
                };
                let arms_pruned = policy.pruned_arms();
                let injector = plan.map(FaultInjector::new);
                let run = drive(&backend, &w, &space, policy, injector.as_ref());
                let picked = &lattice.versions[run.selected];
                cells.push(Cell {
                    workload: name.to_string(),
                    seed,
                    policy: kind.to_string(),
                    arms: lattice.versions.len(),
                    arms_pruned,
                    launches_to_converge: run.launches,
                    quarantined: run.quarantined,
                    selected_label: picked.label.clone(),
                    final_pick_cycles: steady_run(&backend, &w, picked)
                        .expect("clean steady-state run")
                        .cycles,
                });
            }
        }
    }
    SearchDoc {
        device: dev.name.clone(),
        seeds: seeds.to_vec(),
        threshold: THRESHOLD,
        bandit: cfg,
        workloads: summarize(&cells),
        cells,
    }
}

/// The (walk, bandit) cell pairs of each (workload, seed), in cell order.
fn pairs(cells: &[Cell]) -> impl Iterator<Item = (&Cell, &Cell)> {
    cells.iter().filter(|c| c.policy == BANDIT).filter_map(|b| {
        let walk = cells
            .iter()
            .find(|c| c.policy == WALK && c.workload == b.workload && c.seed == b.seed)?;
        Some((walk, b))
    })
}

fn summarize(cells: &[Cell]) -> Vec<WorkloadSummary> {
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    WORKLOADS
        .into_iter()
        .map(|name| {
            let of = |policy: &str| -> Vec<u64> {
                cells
                    .iter()
                    .filter(|c| c.workload == name && c.policy == policy)
                    .map(|c| c.launches_to_converge)
                    .collect()
            };
            let (walk, bandit) = (mean(&of(WALK)), mean(&of(BANDIT)));
            WorkloadSummary {
                workload: name.to_string(),
                arms: cells.iter().find(|c| c.workload == name).map_or(0, |c| c.arms),
                walk_mean_launches: walk,
                bandit_mean_launches: bandit,
                bandit_converges_no_slower: bandit <= walk,
                worst_pick_ratio: pairs(cells)
                    .filter(|(w, _)| w.workload == name)
                    .map(|(w, b)| pick_ratio(w, b))
                    .fold(0.0, f64::max),
            }
        })
        .collect()
}

fn pick_ratio(walk: &Cell, bandit: &Cell) -> f64 {
    bandit.final_pick_cycles as f64 / walk.final_pick_cycles.max(1) as f64
}

/// The quality gate: one failure per (workload, seed) whose bandit pick
/// costs more than [`PICK_BOUND`] times the walk's.
#[must_use]
pub fn quality_failures(doc: &SearchDoc) -> Vec<String> {
    pairs(&doc.cells)
        .filter(|(w, b)| pick_ratio(w, b) > PICK_BOUND)
        .map(|(w, b)| {
            format!(
                "quality gate: {} seed {}: bandit pick {} cycles vs walk {} ({:+.1}%)",
                w.workload,
                w.seed,
                b.final_pick_cycles,
                w.final_pick_cycles,
                (pick_ratio(w, b) - 1.0) * 100.0
            )
        })
        .collect()
}

/// The convergence gate: a failure when the bandit needed no more
/// launches than the walk on fewer than [`CONVERGENCE_QUORUM`]
/// workloads.
#[must_use]
pub fn convergence_failures(doc: &SearchDoc) -> Vec<String> {
    let summaries = summarize(&doc.cells);
    let no_slower = summaries.iter().filter(|s| s.bandit_converges_no_slower).count();
    if no_slower >= CONVERGENCE_QUORUM {
        return Vec::new();
    }
    vec![format!(
        "convergence gate: bandit needed no more launches than the walk on only {no_slower} of \
         {} workloads (need {CONVERGENCE_QUORUM})",
        summaries.len()
    )]
}

/// Both gates' failures; empty when the run passes.
#[must_use]
pub fn gate_failures(doc: &SearchDoc) -> Vec<String> {
    let mut failures = quality_failures(doc);
    failures.extend(convergence_failures(doc));
    failures
}

/// Render the doc as the `search` figure (text + `BENCH_search.json`
/// data).
///
/// # Errors
/// [`BenchError::Json`] if the doc fails to serialize.
pub fn search_figure(doc: &SearchDoc) -> Result<Figure, BenchError> {
    let mut text = format!(
        "Search-policy ablation on {} ({} seeds, threshold {THRESHOLD})\n",
        doc.device,
        doc.seeds.len(),
    );
    for s in &doc.workloads {
        text.push_str(&format!(
            "{:<10} {:>2} arms  walk {:>6.1} launches  bandit {:>6.1} launches  \
             worst pick ratio {:.3}  {}\n",
            s.workload,
            s.arms,
            s.walk_mean_launches,
            s.bandit_mean_launches,
            s.worst_pick_ratio,
            if s.bandit_converges_no_slower { "ok" } else { "SLOWER" },
        ));
    }
    for f in gate_failures(doc) {
        text.push_str(&format!("FAIL {f}\n"));
    }
    let data = serde_json::to_value(doc).map_err(|e| BenchError::json("search doc", e))?;
    Ok(Figure::new("search", text, data))
}
