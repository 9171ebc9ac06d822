//! Frozen runtime walks — the behavioral oracle for
//! [`TuningSession`](crate::session::TuningSession).
//!
//! The session is the one implementation of the Figure 9 walk, in both
//! its fault-free and its resilient mode. This module is a *frozen*
//! copy of the two closure loops it replaced, kept statement for
//! statement (same statement order, same counter updates, same
//! telemetry) over [`PaperWalkPolicy`], so the equivalence suites can
//! prove [`TuningSession::drive`] reproduces the exact decision logs,
//! finalized picks, [`TuneReason`]s, stats and errors — the same
//! technique `orion_alloc::reference` uses to pin the allocation
//! pipeline.
//!
//! Nothing outside tests should call these; they exist to be compared
//! against, not to run production traffic.
//!
//! [`TuningSession::drive`]: crate::session::TuningSession::drive

use crate::compiler::{CompiledKernel, KernelVersion};
use crate::error::OrionError;
use crate::policy::{PaperWalkPolicy, SearchPolicy};
use crate::resilient::{robust_measure, ResiliencePolicy, ResilienceStats};
use crate::runtime::{TuneDecision, TuneReason};
use crate::session::SessionOutcome;

/// What the frozen fault-free walk reports: the fields of a
/// [`SessionOutcome`] it computes.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkOutcome {
    /// The selected version index.
    pub selected: usize,
    /// `(version, cycles)` per application iteration, in order.
    pub iterations: Vec<(usize, u64)>,
    /// Iterations spent exploring before the selection was final.
    pub converged_after: usize,
    /// Total simulated cycles across all iterations.
    pub total_cycles: u64,
    /// Per-measurement decision log.
    pub decisions: Vec<TuneDecision>,
}

/// What the frozen resilient walk reports: [`WalkOutcome`]'s fields
/// plus the absorbed-failure accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientWalkOutcome {
    /// The selected version index.
    pub selected: usize,
    /// `(version, cycles)` per successful application iteration.
    pub iterations: Vec<(usize, u64)>,
    /// Iterations spent exploring before the selection was final.
    pub converged_after: usize,
    /// Total simulated cycles, backoff waits included.
    pub total_cycles: u64,
    /// Per-decision log, including quarantine and fallback entries.
    pub decisions: Vec<TuneDecision>,
    /// Failure accounting.
    pub stats: ResilienceStats,
}

/// The oracle's view of a live outcome, for field-by-field comparison.
impl From<SessionOutcome> for WalkOutcome {
    fn from(o: SessionOutcome) -> Self {
        WalkOutcome {
            selected: o.selected,
            iterations: o.iterations,
            converged_after: o.converged_after,
            total_cycles: o.total_cycles,
            decisions: o.decisions,
        }
    }
}

/// The oracle's view of a live outcome, for field-by-field comparison.
impl From<SessionOutcome> for ResilientWalkOutcome {
    fn from(o: SessionOutcome) -> Self {
        ResilientWalkOutcome {
            selected: o.selected,
            iterations: o.iterations,
            converged_after: o.converged_after,
            total_cycles: o.total_cycles,
            decisions: o.decisions,
            stats: o.stats,
        }
    }
}

/// Frozen copy of the fault-free closure loop.
///
/// # Errors
/// Propagates the first launch error.
pub fn tune_loop<E>(
    ck: &CompiledKernel,
    iterations: u32,
    threshold: f64,
    mut run: impl FnMut(&KernelVersion) -> Result<u64, E>,
) -> Result<WalkOutcome, E> {
    let mut tuner = PaperWalkPolicy::new(ck, threshold);
    let mut iters = Vec::with_capacity(iterations as usize);
    let mut total = 0u64;
    for _ in 0..iterations {
        let v = tuner.select();
        let cycles = run(&ck.versions[v])?;
        total += cycles;
        iters.push((v, cycles));
        tuner.record(cycles);
    }
    let selected = tuner.finalized().unwrap_or_else(|| tuner.select());
    Ok(WalkOutcome {
        selected,
        iterations: iters,
        converged_after: tuner.trials(),
        total_cycles: total,
        decisions: tuner.into_decisions(),
    })
}

fn should_quarantine(e: &OrionError) -> bool {
    match e.root_cause() {
        OrionError::Sim(s) => s.is_quarantineable() || s.is_transient(),
        _ => false,
    }
}

fn run_with_retry(
    run: &mut impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
    version: &KernelVersion,
    policy: &ResiliencePolicy,
    stats: &mut ResilienceStats,
) -> Result<u64, OrionError> {
    let mut attempt = 0u32;
    loop {
        stats.launches += 1;
        match run(version) {
            Ok(c) => return Ok(c),
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                stats.failed_launches += 1;
                stats.retries += 1;
                let backoff = policy.backoff_base_cycles << attempt.min(20);
                stats.backoff_cycles = stats.backoff_cycles.saturating_add(backoff);
                if orion_telemetry::is_enabled() {
                    orion_telemetry::counter("resilience", "retry", 1);
                }
                attempt += 1;
            }
            Err(e) => {
                stats.failed_launches += 1;
                return Err(e);
            }
        }
    }
}

/// Frozen copy of the resilient closure loop.
///
/// # Errors
/// Same contract as a resilient
/// [`TuningSession::drive`](crate::session::TuningSession::drive).
#[allow(clippy::too_many_lines)]
pub fn resilient_tune_loop(
    kernel: &str,
    ck: &CompiledKernel,
    iterations: u32,
    threshold: f64,
    policy: &ResiliencePolicy,
    mut run: impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
) -> Result<ResilientWalkOutcome, OrionError> {
    use crate::compiler::Direction;
    let mut tuner = PaperWalkPolicy::new(ck, threshold);
    let mut stats = ResilienceStats::default();
    let mut strikes = vec![0u32; ck.versions.len()];
    let mut iters: Vec<(usize, u64)> = Vec::with_capacity(iterations as usize);
    let mut total: u64 = 0;
    let mut converged_after: Option<usize> = None;
    let mut it = 0u32;
    fn strike(
        strikes: &mut [u32],
        v: usize,
        policy: &ResiliencePolicy,
        tuner: &mut PaperWalkPolicy,
        stats: &mut ResilienceStats,
    ) -> bool {
        stats.strikes += 1;
        if orion_telemetry::is_enabled() {
            orion_telemetry::counter("resilience", "strike", 1);
        }
        strikes[v] += 1;
        if strikes[v] >= policy.quarantine_strikes.max(1) {
            tuner.quarantine(v);
            true
        } else {
            false
        }
    }
    while it < iterations {
        if tuner.all_quarantined() {
            return Err(OrionError::AllCandidatesFailed { quarantined: tuner.quarantined_count() }
                .with_context(kernel, Some(total)));
        }
        let v_idx = tuner.select();
        let version = &ck.versions[v_idx];
        if tuner.finalized().is_some() {
            converged_after.get_or_insert(iters.len());
            match run_with_retry(&mut run, version, policy, &mut stats) {
                Ok(c) => {
                    strikes[v_idx] = 0;
                    total = total.saturating_add(c);
                    iters.push((v_idx, c));
                    it += 1;
                }
                Err(e) if should_quarantine(&e) => {
                    strike(&mut strikes, v_idx, policy, &mut tuner, &mut stats);
                }
                Err(e) => return Err(e.with_context(kernel, Some(total))),
            }
        } else {
            let k = policy.samples.max(1);
            let mut samples = Vec::with_capacity(2 * k);
            let mut target = k;
            let mut dead = false;
            let mut struck = false;
            loop {
                while samples.len() < target && it < iterations {
                    match run_with_retry(&mut run, version, policy, &mut stats) {
                        Ok(c) => {
                            strikes[v_idx] = 0;
                            total = total.saturating_add(c);
                            iters.push((v_idx, c));
                            it += 1;
                            samples.push(c);
                        }
                        Err(e) if should_quarantine(&e) => {
                            struck = true;
                            dead = strike(&mut strikes, v_idx, policy, &mut tuner, &mut stats);
                            break;
                        }
                        Err(e) => return Err(e.with_context(kernel, Some(total))),
                    }
                }
                if struck || it >= iterations || samples.len() < target || target > k {
                    break;
                }
                let m = robust_measure(&mut samples, policy.outlier_factor);
                let margin = (m.rel_spread * policy.noise_margin_factor)
                    .clamp(0.0, policy.noise_margin_cap.max(0.0));
                let borderline = margin > 0.0
                    && tuner.probe_slowdown(m.cycles).is_some_and(|slow| {
                        let boundary = match ck.direction {
                            Direction::Increasing => margin,
                            Direction::Decreasing => threshold.max(margin),
                        };
                        (slow - boundary).abs() <= margin * 0.5
                    });
                if !borderline {
                    break;
                }
                target += k;
            }
            if !dead && !samples.is_empty() && (!struck || it >= iterations) {
                let m = robust_measure(&mut samples, policy.outlier_factor);
                let margin = (m.rel_spread * policy.noise_margin_factor)
                    .clamp(0.0, policy.noise_margin_cap.max(0.0));
                tuner.record_noisy(m.cycles, margin);
            }
        }
    }
    let selected = tuner.finalized().unwrap_or_else(|| tuner.select());
    let decisions = tuner.into_decisions();
    stats.quarantined =
        decisions.iter().filter(|d| d.reason == TuneReason::Quarantined).count() as u64;
    stats.fellback = decisions.iter().filter(|d| d.reason == TuneReason::FellBack).count() as u64;
    Ok(ResilientWalkOutcome {
        selected,
        converged_after: converged_after.unwrap_or(iters.len()),
        total_cycles: total.saturating_add(stats.backoff_cycles),
        iterations: iters,
        decisions,
        stats,
    })
}
