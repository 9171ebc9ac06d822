//! Resilient runtime adaptation — the chaos-hardened Figure 9 walk.
//!
//! The paper's walk ([`ResiliencePolicy::PAPER`]) assumes every launch
//! succeeds and every measurement is trustworthy. Real devices violate
//! both: launches fail transiently (driver hiccups, ECC retries),
//! kernels hang (watchdog), perturbed resource limits reject a version
//! outright, and timing is noisy. Every
//! [`TuningSession`](crate::session::TuningSession) runs one walk with
//! four defenses, sized by its [`ResiliencePolicy`]; the paper's walk
//! is the policy that turns each of them off:
//!
//! * **bounded retry with backoff** — transient launch failures are
//!   retried up to [`ResiliencePolicy::max_retries`] times, charging an
//!   exponentially growing simulated-cycle backoff
//!   ([`BACKOFF_BASE_CYCLES`]) to the run;
//! * **noise-robust measurement** — each exploration step measures
//!   mean-of-k with multiplicative outlier rejection
//!   ([`robust_measure`]) before feeding the degradation test; the
//!   observed sample spread sets a noise margin on the test
//!   ([`Measurement::noisy`](crate::policy::Measurement::noisy)) so
//!   jitter on a performance
//!   plateau cannot mimic a real slowdown, and a verdict landing
//!   within half a margin of the stop boundary earns one extension
//!   round of k more samples before the walk commits;
//! * **per-candidate quarantine** — a version accumulating
//!   [`ResiliencePolicy::quarantine_strikes`] *consecutive* hard
//!   failures is removed from the walk
//!   ([`Policy::quarantine`](crate::policy::Policy::quarantine))
//!   and tuning continues over the survivors. Successes reset the
//!   count (circuit-breaker style), so sporadic unlucky hangs are
//!   forgiven no matter how long the run — only persistent breakage
//!   fails straight through the budget;
//! * **last-resort fallback** — if the *finalized* version dies, the
//!   tuner falls back to the compiler's fail-safe (then the original),
//!   recorded as
//!   [`TuneReason::FellBack`](crate::runtime::TuneReason::FellBack) in
//!   the decision log.
//!
//! Failures that are neither transient nor quarantineable (out-of-bounds
//! accesses, deadlocks) are real bugs and propagate immediately, wrapped
//! with kernel name and failure cycle via
//! [`OrionError::with_context`]; under [`ResiliencePolicy::PAPER`] every
//! launch error does.
//!
//! Retries, robust measurement and strikes live in the *session* layer
//! ([`TuningSession`](crate::session::TuningSession)); quarantine and
//! fallback live in the policy's roster
//! ([`Policy`](crate::policy::Policy)), written once for every search
//! rule. A session running the paper's walk or the bandit gets
//! identical retry, robust-measurement, quarantine and fallback
//! semantics; the rule only chooses which candidate each exploration
//! step measures.

use crate::error::OrionError;
use crate::session::SessionMode;
use serde::{Deserialize, Serialize};

/// Simulated-cycle cost of the first backoff wait; doubles per retry
/// (exponential backoff).
pub const BACKOFF_BASE_CYCLES: u64 = 1_000;

/// Multiplicative band for outlier rejection: samples outside
/// `[median / f, median * f]` are dropped before re-taking the median.
pub const OUTLIER_FACTOR: f64 = 4.0;

/// Scale factor from a measurement's observed relative spread
/// ([`RobustMeasure::rel_spread`]) to the noise margin of the walk's
/// degradation test. At ±5% uniform jitter the expected spread of 7
/// samples is ~7.5%, so 0.75 yields a ~5.6% margin — several σ of the
/// clipped-mean error — while clean data keeps a zero margin and the
/// paper's exact walk. The margin replaces a smaller degradation
/// threshold rather than adding to it, so it can never mask a genuine
/// over-threshold slowdown on the downward walk.
pub const NOISE_MARGIN_FACTOR: f64 = 0.75;

/// Upper bound on the noise margin, whatever the observed spread.
pub const NOISE_MARGIN_CAP: f64 = 0.15;

/// Knobs for resilient sessions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// Maximum relaunches after a transient failure (per invocation).
    pub max_retries: u32,
    /// Samples per exploration measurement (the k in mean-of-k). The
    /// default of 7 keeps the clipped-mean error near 1% under ±5%
    /// timing jitter — comfortably inside the paper's degradation
    /// thresholds; median-of-3 measurably flips walk decisions at that
    /// noise level. A borderline verdict gets one extension round of
    /// another k samples before the walk commits. `0` is read as `1`:
    /// one raw measurement per pass, as under [`ResiliencePolicy::PAPER`].
    pub samples: usize,
    /// *Consecutive* hard (quarantineable) failures a version must
    /// accumulate before it is actually quarantined; every successful
    /// launch resets the version's strike count (circuit-breaker
    /// style). The reset is what separates persistent breakage from
    /// bad luck: with hard faults injected at a few percent per
    /// launch, a *lifetime* tally would all but guarantee the
    /// eviction of a perfectly good finalized version over a long
    /// run, while three consecutive random faults stay vanishingly
    /// rare — and a genuinely dead version still fails straight
    /// through its budget. `0` turns quarantine off: the first
    /// quarantineable failure is fatal, like any other launch error.
    pub quarantine_strikes: u32,
}

impl ResiliencePolicy {
    /// The paper's exact walk: one raw measurement per iteration, no
    /// retry, no quarantine — the first launch error aborts the session.
    pub const PAPER: ResiliencePolicy =
        ResiliencePolicy { max_retries: 0, samples: 1, quarantine_strikes: 0 };
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy { max_retries: 3, samples: 7, quarantine_strikes: 3 }
    }
}

impl From<SessionMode> for ResiliencePolicy {
    fn from(mode: SessionMode) -> Self {
        match mode {
            SessionMode::Simple => ResiliencePolicy::PAPER,
            SessionMode::Resilient(policy) => policy,
        }
    }
}

/// What a resilient session had to absorb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Launch attempts issued (including retries).
    pub launches: u64,
    /// Launch attempts that returned an error.
    pub failed_launches: u64,
    /// Transient failures that were retried.
    pub retries: u64,
    /// Simulated cycles spent waiting in backoff.
    pub backoff_cycles: u64,
    /// Hard failures charged against a version (a version is
    /// quarantined at [`ResiliencePolicy::quarantine_strikes`]
    /// *consecutive* ones; a success resets its count).
    pub strikes: u64,
    /// Versions quarantined while still tuning.
    pub quarantined: u64,
    /// Fallback events (a finalized version died).
    pub fellback: u64,
}

/// A noise-robust measurement: the clipped mean after outlier
/// rejection, plus the relative spread (`(max - min) / mean`) of the
/// kept samples. The spread is the session's live noise estimate — it
/// sets the noise margin on the tuner's degradation test so jitter
/// cannot mimic a real slowdown, and is exactly zero on clean data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustMeasure {
    pub cycles: u64,
    pub rel_spread: f64,
}

/// Mean-of-k with multiplicative outlier rejection: sorts the samples,
/// drops everything outside `[median / f, median * f]` (`f` is
/// [`OUTLIER_FACTOR`]), and returns the *mean* of the survivors
/// together with their relative spread. The median only guards the
/// rejection band; once the heavy tail is clipped, the remaining jitter
/// is light-tailed and the clipped mean is the tighter estimator (under
/// uniform ±5% jitter, median-of-5 has ~2.2% error, the clipped mean
/// ~1.3%). With all samples rejected (impossible, as `f >= 1`) or a
/// single sample, that sample wins with zero spread.
pub fn robust_measure(samples: &mut [u64]) -> RobustMeasure {
    if samples.is_empty() {
        return RobustMeasure { cycles: 0, rel_spread: 0.0 };
    }
    samples.sort_unstable();
    let med = samples[samples.len() / 2].max(1);
    let f = OUTLIER_FACTOR;
    let lo = (med as f64 / f) as u64;
    let hi = (med as f64 * f).min(u64::MAX as f64) as u64;
    // Sorted, so the survivors are one contiguous run.
    let (first, end) =
        (samples.partition_point(|&s| s < lo), samples.partition_point(|&s| s <= hi));
    let kept = &samples[first..end];
    if kept.is_empty() {
        RobustMeasure { cycles: med, rel_spread: 0.0 }
    } else {
        let sum: u128 = kept.iter().map(|&s| u128::from(s)).sum();
        let cycles = (sum / kept.len() as u128) as u64;
        let rel_spread = (kept[kept.len() - 1] - kept[0]) as f64 / cycles.max(1) as f64;
        RobustMeasure { cycles, rel_spread }
    }
}

/// Should this failure remove the candidate from the walk (as opposed
/// to aborting the application)? Quarantineable: resource rejection,
/// watchdog trips, unlaunchable configurations — and transient failures
/// that survived the retry budget (a persistently flaky version is a
/// bad version).
pub(crate) fn should_quarantine(e: &OrionError) -> bool {
    match e.root_cause() {
        OrionError::Sim(s) => s.is_quarantineable() || s.is_transient(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompiledKernel, Direction, KernelVersion};
    use crate::runtime::TuneReason;
    use crate::session::{SessionOutcome, TuningSession};
    use crate::testutil::fake_compiled_with_fail_safe;
    use orion_gpusim::exec::SimError;

    /// Upward-tuned candidates at `warp_levels`, plus a fail-safe.
    fn fake_compiled(warp_levels: &[u32]) -> CompiledKernel {
        fake_compiled_with_fail_safe(warp_levels, Direction::Increasing)
    }

    fn idx_of(ck: &CompiledKernel, v: &KernelVersion) -> usize {
        ck.index_of(&v.label).unwrap()
    }

    /// A resilient session named `kernel` over `ck`, driven by `run`.
    fn resilient_run(
        kernel: &str,
        ck: &CompiledKernel,
        iterations: u32,
        policy: &ResiliencePolicy,
        run: impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
    ) -> Result<SessionOutcome, OrionError> {
        TuningSession::new(kernel, ck, iterations, 0.02, *policy).drive(run)
    }

    #[test]
    fn transient_failures_are_retried_and_tuning_converges() {
        let ck = fake_compiled(&[8, 16, 32, 48]);
        let times = [100u64, 80, 90, 70, 120];
        let mut flaky = 0u32;
        let policy = ResiliencePolicy::default();
        let out = resilient_run("k", &ck, 20, &policy, |v| {
            flaky += 1;
            if flaky.is_multiple_of(4) {
                // Every 4th launch fails transiently, then succeeds.
                return Err(SimError::TransientLaunchFailure { code: 1 }.into());
            }
            Ok(times[idx_of(&ck, v)])
        })
        .expect("resilient loop absorbs transients");
        assert_eq!(out.selected, 1, "same pick as the fault-free walk");
        assert!(out.stats.retries > 0);
        assert_eq!(out.stats.failed_launches, out.stats.retries);
        assert!(
            out.total_cycles > out.iterations.iter().map(|&(_, c)| c).sum::<u64>(),
            "backoff cycles are charged to the run"
        );
    }

    #[test]
    fn outliers_do_not_flip_the_degradation_test() {
        // v1 is genuinely faster, but its second sample is a wild
        // outlier; median-of-k with rejection keeps the walk on course.
        let ck = fake_compiled(&[8, 16, 32]);
        let mut calls = std::collections::HashMap::new();
        let policy = ResiliencePolicy { samples: 3, ..ResiliencePolicy::default() };
        let out = resilient_run("k", &ck, 30, &policy, |v| {
            let i = idx_of(&ck, v);
            let n = calls.entry(i).or_insert(0u32);
            *n += 1;
            let base = [100u64, 80, 95][i];
            Ok(if i == 1 && *n == 2 { base * 50 } else { base })
        })
        .unwrap();
        assert_eq!(out.selected, 1);
    }

    #[test]
    fn persistently_failing_candidate_is_quarantined() {
        let ck = fake_compiled(&[8, 16, 32, 48]);
        let times = [100u64, 0, 90, 95, 120];
        let policy = ResiliencePolicy::default();
        let out = resilient_run("k", &ck, 24, &policy, |v| {
            let i = idx_of(&ck, v);
            if i == 1 {
                return Err(SimError::Watchdog { budget: 1000 }.into());
            }
            Ok(times[i])
        })
        .unwrap();
        assert_eq!(out.selected, 2, "best survivor after quarantine");
        assert_eq!(out.stats.quarantined, 1);
        assert!(out.iterations.iter().all(|&(v, _)| v != 1));
        assert!(out
            .decisions
            .iter()
            .any(|d| d.reason == TuneReason::Quarantined && d.version == 1));
    }

    #[test]
    fn finalized_version_dying_falls_back_to_fail_safe() {
        let ck = fake_compiled(&[8, 16, 32]);
        let times = [100u64, 80, 90, 120];
        let mut steady_runs = 0u32;
        let policy = ResiliencePolicy { samples: 1, ..ResiliencePolicy::default() };
        let out = resilient_run("k", &ck, 12, &policy, |v| {
            let i = idx_of(&ck, v);
            if i == 1 {
                steady_runs += 1;
                if steady_runs > 3 {
                    // The finalized winner starts tripping the watchdog.
                    return Err(SimError::Watchdog { budget: 1 }.into());
                }
            }
            Ok(times[i])
        })
        .unwrap();
        assert_eq!(out.selected, 3, "fail-safe version takes over");
        assert_eq!(out.stats.fellback, 1);
        assert!(out.decisions.iter().any(|d| d.reason == TuneReason::FellBack));
    }

    #[test]
    fn sporadic_hard_faults_never_evict_the_finalized_version() {
        // A hang on every 5th launch of the winner: over a long run a
        // lifetime strike tally would inevitably quarantine it, but
        // successes reset the consecutive count, so it survives.
        let ck = fake_compiled(&[8, 16, 32]);
        let times = [100u64, 80, 90, 120];
        let mut n = 0u32;
        let policy = ResiliencePolicy { samples: 1, ..ResiliencePolicy::default() };
        let out = resilient_run("k", &ck, 60, &policy, |v| {
            let i = idx_of(&ck, v);
            if i == 1 {
                n += 1;
                if n.is_multiple_of(5) {
                    return Err(SimError::Watchdog { budget: 1 }.into());
                }
            }
            Ok(times[i])
        })
        .unwrap();
        assert_eq!(out.selected, 1, "the sporadic faults are absorbed");
        assert_eq!(out.stats.fellback, 0);
        assert_eq!(out.stats.quarantined, 0);
        assert!(out.stats.strikes >= 10, "each hang was still charged: {:?}", out.stats);
    }

    #[test]
    fn all_candidates_failing_reports_all_candidates_failed() {
        let ck = fake_compiled(&[8, 16]);
        let policy = ResiliencePolicy::default();
        let err = resilient_run("matmul", &ck, 8, &policy, |_| {
            Err(SimError::ResourceExceeded { detail: "regs".into() }.into())
        })
        .unwrap_err();
        assert!(matches!(
            err.root_cause(),
            OrionError::AllCandidatesFailed { quarantined } if *quarantined >= 2
        ));
        assert!(err.to_string().contains("matmul"), "context names the kernel: {err}");
    }

    #[test]
    fn fatal_errors_propagate_with_context() {
        let ck = fake_compiled(&[8, 16]);
        let policy = ResiliencePolicy::default();
        let err =
            resilient_run("srad", &ck, 8, &policy, |_| Err(SimError::Deadlock.into())).unwrap_err();
        assert!(matches!(err.root_cause(), OrionError::Sim(SimError::Deadlock)));
        assert!(err.to_string().contains("srad"));
    }

    #[test]
    fn robust_measure_rejects_outliers() {
        // [100, 102] survive the ×4 band around the median; their mean.
        let mut s = [100, 102, 5000];
        assert_eq!(robust_measure(&mut s).cycles, 101);
        let mut s = [100];
        assert_eq!(robust_measure(&mut s).cycles, 100);
        let mut s = [90, 100, 110];
        assert_eq!(robust_measure(&mut s).cycles, 100);
        assert_eq!(robust_measure(&mut []).cycles, 0);
    }
}
