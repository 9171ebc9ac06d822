//! The chaos experiment: does the resilient Figure 9 loop still pick a
//! near-optimal version when launches fail and timing is noisy?
//!
//! Each workload × fault-rate point compares two tuning walks over the
//! same compiled candidates:
//!
//! 1. a **fault-free reference** walk under
//!    [`ResiliencePolicy::PAPER`], which does not depend on the rate,
//!    so the sweep runs it (and re-measures its pick) once per
//!    workload;
//! 2. a **chaotic run** under [`ResiliencePolicy::default`],
//!    with a seeded [`FaultPlan`] injecting transient launch failures,
//!    perturbed-device resource rejections, stuck-warp hangs, and timing
//!    jitter/outliers.
//!
//! Both picks are re-measured *fault-free* and compared: the
//! acceptance bar is the chaotic pick landing within 5% of the reference
//! pick at a ≤10% fault rate. Each row records the injector's
//! [`FaultSnapshot`] and the executor's [`ResilienceStats`], the one
//! copy of each tally; the sweep does not touch telemetry.

use crate::app::{compile_workload, steady_run, App};
use crate::experiment::{ExperimentError, DOWNWARD_THRESHOLD};
use crate::figures::Figure;
use crate::report::render_table;
use orion_core::backend::SimBackend;
use orion_core::compiler::KernelVersion;
use orion_core::resilient::{ResiliencePolicy, ResilienceStats};
use orion_core::session::TuningSession;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::faults::{FaultInjector, FaultPlan, FaultSnapshot};
use orion_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Acceptance band for the chaotic pick vs. the fault-free pick.
pub const CHAOS_TOLERANCE: f64 = 0.05;

/// Iterations the chaos walk gets: mean-of-k measurement (k = 7, plus
/// an extension round on borderline verdicts) and quarantine re-walks
/// need more invocations than the clean Figure 9 loop before steady
/// state — a full five-version upward walk with one extension is
/// 5 × 7 + 7 = 42 exploration launches.
pub const CHAOS_ITERS: u32 = 48;

/// One workload × fault-rate result row of `BENCH_chaos.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosRow {
    pub workload: String,
    pub seed: u64,
    /// Transient-failure probability of the plan (resource and hang
    /// faults ride along at `rate / 4`; see [`FaultPlan::chaos`]).
    pub fault_rate: f64,
    pub jitter_frac: f64,
    /// Version index + label picked by the fault-free reference walk.
    pub fault_free_selected: usize,
    pub fault_free_label: String,
    /// Fault-free steady-state cycles of the reference pick.
    pub fault_free_cycles: u64,
    /// Version index + label picked under chaos.
    pub chaos_selected: usize,
    pub chaos_label: String,
    /// Fault-free steady-state cycles of the chaotic pick (apples to
    /// apples with `fault_free_cycles`).
    pub chaos_cycles: u64,
    /// `(chaos_cycles - fault_free_cycles) / fault_free_cycles`.
    pub rel_gap: f64,
    /// `rel_gap <= CHAOS_TOLERANCE` (a faster chaotic pick passes too).
    pub within_tolerance: bool,
    /// Iterations the chaotic walk spent exploring.
    pub converged_after: usize,
    /// The resilient executor quarantined every candidate (fail-safe
    /// included) and gave up with `AllCandidatesFailed`; the row then
    /// records the original kernel as the chaotic "pick" — what the
    /// application would actually run after Orion bows out. Expected
    /// only at stress fault rates; a gave-up row never counts as
    /// converged.
    pub gave_up: bool,
    /// Faults the injector actually produced.
    pub injected: FaultSnapshot,
    /// What the resilient executor absorbed (zeroed on a gave-up row —
    /// the stats are lost with the error).
    pub absorbed: ResilienceStats,
}

/// Run the fault-free reference and the chaotic walk for one workload
/// at one fault rate, both over the same compiled candidate set.
pub fn chaos_run(
    dev: &DeviceSpec,
    w: &Workload,
    seed: u64,
    fault_rate: f64,
    jitter_frac: f64,
) -> Result<ChaosRow, ExperimentError> {
    Ok(chaos_rows(dev, w, &[(seed, fault_rate, jitter_frac)])?.remove(0))
}

/// One row of `w` per `(seed, fault rate, jitter)` point. The compile,
/// the fault-free reference walk and the re-measure of its pick do not
/// depend on the point, so they run once.
fn chaos_rows(
    dev: &DeviceSpec,
    w: &Workload,
    points: &[(u64, f64, f64)],
) -> Result<Vec<ChaosRow>, ExperimentError> {
    let backend = SimBackend::new(dev.clone());
    let steady = |v: &KernelVersion| steady_run(&backend, w, v);
    let compiled = compile_workload(dev, w)?;
    let iters = w.iterations.max(CHAOS_ITERS);
    let mut app = App::new(&backend, w, None);
    let reference =
        TuningSession::simple(&compiled, iters, DOWNWARD_THRESHOLD).drive(|v| app.launch(v))?;
    let ff_pick = &compiled.versions[reference.selected];
    let ff_cycles = steady(ff_pick)?.cycles;

    let row = |&(seed, fault_rate, jitter_frac): &(u64, f64, f64)| {
        // Chaotic walk through the resilient executor.
        let injector = FaultInjector::new(FaultPlan::chaos(seed, fault_rate, jitter_frac));
        let mut app = App::new(&backend, w, Some(&injector));
        let policy = ResiliencePolicy::default();
        let chaotic = TuningSession::new(w.name, &compiled, iters, DOWNWARD_THRESHOLD, policy)
            .drive(|v| app.launch(v));
        // Candidate exhaustion at a stress rate is a *result*, not a sweep
        // failure: record the row as gave-up (the app falls back to its
        // original kernel) instead of aborting the whole bench.
        let (chaos_selected, converged_after, absorbed, gave_up) = match chaotic {
            Ok(out) => (out.selected, out.converged_after, out.stats, false),
            Err(e)
                if matches!(e.root_cause(), orion_core::OrionError::AllCandidatesFailed { .. }) =>
            {
                (compiled.original, 0, ResilienceStats::default(), true)
            }
            Err(e) => return Err(e.into()),
        };

        // Steady-state comparison: both picks measured without faults.
        let ch_pick = &compiled.versions[chaos_selected];
        let ch_cycles =
            if chaos_selected == reference.selected { ff_cycles } else { steady(ch_pick)?.cycles };
        let rel_gap = (ch_cycles as f64 - ff_cycles as f64) / ff_cycles.max(1) as f64;
        Ok(ChaosRow {
            workload: w.name.to_string(),
            seed,
            fault_rate,
            jitter_frac,
            fault_free_selected: reference.selected,
            fault_free_label: ff_pick.label.clone(),
            fault_free_cycles: ff_cycles,
            chaos_selected,
            chaos_label: ch_pick.label.clone(),
            chaos_cycles: ch_cycles,
            rel_gap,
            within_tolerance: !gave_up && rel_gap <= CHAOS_TOLERANCE,
            converged_after,
            gave_up,
            injected: injector.snapshot(),
            absorbed,
        })
    };
    points.iter().map(row).collect()
}

/// Workloads the chaos bench sweeps (one upward, one plateau, one
/// downward-tunable — three distinct tuning shapes).
pub const CHAOS_WORKLOADS: [&str; 3] = ["gaussian", "matrixMul", "srad"];

/// Transient-failure rates swept per workload (resource/hang faults
/// ride along at a quarter of each; see [`FaultPlan::chaos`]). The
/// acceptance bar applies at rates ≤ 0.10; 0.20 is a stress point.
pub const CHAOS_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Measurement jitter injected at every nonzero fault rate.
pub const CHAOS_JITTER: f64 = 0.05;

/// Base seed of the sweep; each row derives its own plan seed from it.
pub const CHAOS_SEED: u64 = 0x0610_2016;

fn row_seed(workload_idx: usize, rate_idx: usize) -> u64 {
    CHAOS_SEED ^ ((workload_idx as u64) << 32) ^ (rate_idx as u64)
}

/// The chaos summary stats (the `summary` object of `BENCH_chaos.json`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// Every row at fault rate ≤ 0.10 landed within [`CHAOS_TOLERANCE`].
    pub converges_at_10pct: bool,
    /// The zero-fault control rows picked exactly the reference version.
    pub control_exact: bool,
    pub total_injected: u64,
    pub total_retries: u64,
    pub total_quarantined: u64,
    pub total_fellback: u64,
    /// Rows where the executor exhausted every candidate and bowed out.
    pub total_gave_up: u64,
}

/// The full chaos sweep: one row per [`CHAOS_WORKLOADS`] ×
/// [`CHAOS_RATES`] point and the summary over them (the
/// `BENCH_chaos.json` document).
#[derive(Debug, Clone, Serialize)]
pub struct ChaosSweep {
    pub device: String,
    pub rows: Vec<ChaosRow>,
    pub summary: ChaosSummary,
}

/// Run the full chaos sweep ([`CHAOS_WORKLOADS`] × [`CHAOS_RATES`]).
///
/// # Errors
/// A row's compile or fault-free run failing.
pub fn chaos_sweep(dev: &DeviceSpec) -> Result<ChaosSweep, ExperimentError> {
    let mut rows: Vec<ChaosRow> = Vec::new();
    for (wi, name) in CHAOS_WORKLOADS.iter().enumerate() {
        let w = orion_workloads::by_name(name).expect("chaos workload exists");
        let points: Vec<(u64, f64, f64)> = (CHAOS_RATES.iter().enumerate())
            .map(|(ri, &rate)| {
                (row_seed(wi, ri), rate, if rate > 0.0 { CHAOS_JITTER } else { 0.0 })
            })
            .collect();
        rows.extend(chaos_rows(dev, &w, &points)?);
    }
    let summary = ChaosSummary {
        converges_at_10pct: rows
            .iter()
            .filter(|r| r.fault_rate <= 0.10 + f64::EPSILON)
            .all(|r| r.within_tolerance),
        control_exact: rows
            .iter()
            .filter(|r| r.fault_rate == 0.0)
            .all(|r| r.chaos_selected == r.fault_free_selected),
        total_injected: rows.iter().map(|r| r.injected.total_faults()).sum(),
        total_retries: rows.iter().map(|r| r.absorbed.retries).sum(),
        total_quarantined: rows.iter().map(|r| r.absorbed.quarantined).sum(),
        total_fellback: rows.iter().map(|r| r.absorbed.fellback).sum(),
        total_gave_up: rows.iter().filter(|r| r.gave_up).count() as u64,
    };
    Ok(ChaosSweep { device: dev.name.clone(), rows, summary })
}

impl ChaosSweep {
    /// Render the sweep as the `chaos` figure (`BENCH_chaos.json`).
    #[must_use]
    pub fn figure(&self) -> Figure {
        let (rows, summary) = (&self.rows, &self.summary);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    format!("{:.0}%", r.fault_rate * 100.0),
                    r.fault_free_label.clone(),
                    r.chaos_label.clone(),
                    format!("{:+.1}%", r.rel_gap * 100.0),
                    format!("{}", r.injected.total_faults()),
                    format!("{}", r.absorbed.retries),
                    format!("{}", r.absorbed.quarantined),
                    if r.gave_up {
                        "GAVE UP"
                    } else if r.within_tolerance {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_string(),
                ]
            })
            .collect();
        let table = render_table(
            &[
                "workload",
                "rate",
                "fault-free",
                "chaos-pick",
                "gap",
                "injected",
                "retries",
                "quarantined",
                "ok",
            ],
            &table,
        );
        let text = format!(
            "Chaos bench: resilient Figure 9 loop under injected faults ({})\n\
             plan: seeded transients/resource/hangs at the listed rate, \
             ±{:.0}% jitter at nonzero rates\n{table}\
             converges within {:.0}% of fault-free pick at ≤10% faults: {}\n",
            self.device,
            CHAOS_JITTER * 100.0,
            CHAOS_TOLERANCE * 100.0,
            if summary.converges_at_10pct { "PASS" } else { "FAIL" },
        );
        let data = serde_json::to_value(self).unwrap_or(serde_json::Value::Null);
        Figure::new("chaos", text, data)
    }
}
