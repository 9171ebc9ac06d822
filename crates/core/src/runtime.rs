//! Runtime occupancy adaptation — §3.4 and Figure 9.
//!
//! Given the compiler's candidate list, the runtime monitors each kernel
//! invocation and walks the candidates in the predicted tuning
//! direction:
//!
//! * first iteration runs the **original** kernel;
//! * each subsequent iteration runs the next occupancy in the direction,
//!   until performance degrades — strictly worse when increasing, or
//!   more than the 2% threshold when decreasing (the paper explicitly
//!   keeps tuning *down* through the performance plateau to find the
//!   lowest occupancy with near-best performance, saving registers and
//!   energy);
//! * the surviving version is **finalized** and runs for the remaining
//!   iterations. Convergence typically takes ~3 iterations.
//!
//! The walk itself is [`Policy::walk`](crate::policy::Policy::walk);
//! [`TuningSession::drive`](crate::session::TuningSession::drive) runs
//! it for one kernel, and [`OrionService`](crate::service::OrionService)
//! runs it for many kernels at once, ordered longest-job-first from the
//! probe-time occupancy curves. This module holds the vocabulary every
//! search policy logs its steps in.

use serde::{Deserialize, Serialize};

/// Why the tuner took a step or finalized — the reason codes of the
/// Figure 8/9 decision procedure, recorded per measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuneReason {
    /// First measurement (the original version); nothing to compare yet.
    Baseline,
    /// Acceptable performance; keep walking the candidate order.
    NotDegraded,
    /// The step degraded performance beyond what the direction tolerates
    /// (strictly slower when increasing; more than the threshold over
    /// the best when decreasing) — finalize the previous version.
    SlowdownExceeded,
    /// Candidate list exhausted — finalize per direction (fastest seen
    /// when increasing, lowest acceptable when decreasing).
    Exhausted,
    /// A version failed to launch and was removed from consideration;
    /// tuning continues over the survivors.
    Quarantined,
    /// The finalized version itself was quarantined; the tuner fell
    /// back to the fail-safe / original / best surviving version.
    FellBack,
    /// The service deadline was reached mid-walk; the tuner settled on
    /// its safest live version instead of erroring (the paper's
    /// fail-safe philosophy lifted to the service plane).
    Degraded,
}

/// One recorded tuner step: what was measured and what the tuner did
/// with it. [`SessionOutcome::decisions`] carries the full log.
///
/// [`SessionOutcome::decisions`]: crate::session::SessionOutcome::decisions
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneDecision {
    /// Exploration trial index (0-based).
    pub trial: usize,
    /// Version index measured in this trial.
    pub version: usize,
    /// Raw cycles observed for the invocation.
    pub cycles: u64,
    /// Work-normalized comparison value (cycles × 2^20 / work) the
    /// degradation test actually used.
    pub norm_cycles: u64,
    pub reason: TuneReason,
    /// Set when this measurement finalized a version.
    pub finalized: Option<usize>,
}
