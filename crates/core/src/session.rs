//! The tuning state machine.
//!
//! [`TuningSession`] is the one implementation of the Figure 9 runtime
//! walk, sized by a [`ResiliencePolicy`] — the paper's exact walk
//! ([`ResiliencePolicy::PAPER`]) or a chaos-hardened one (retry, robust
//! measurement, quarantine, fallback) — behind one *pull-based*
//! interface: the session never
//! launches anything itself — it hands out [`SessionStep::Launch`]
//! requests, the caller executes them however it likes (a
//! [`Backend`](crate::backend::Backend), a closure, a replay log) and
//! feeds the result back. [`TuningSession::drive`] is the closure
//! driver; [`OrionService`](crate::service::OrionService)'s event loop
//! multiplexes many suspended sessions over one async submission queue:
//! a session parked at a [`SessionStep::Launch`] is just a value,
//! costing nothing while its ticket is in flight.
//!
//! The session is a typed state machine:
//!
//! ```text
//! Warmup ──► Walking ◄──► Probing
//!    │          │            │
//!    ├──────────┼────────────┤──► Finalized ──► Quarantined | Degraded
//!    ├──────────┼────────────┤──────────────► Quarantined
//!    └──────────┴────────────┴──────────────► Degraded
//! ```
//!
//! * **Warmup** — measuring the baseline (first) version; nothing to
//!   compare against yet.
//! * **Walking** — stepping through the candidate order, applying the
//!   degradation test per measurement.
//! * **Probing** — a borderline verdict earned an extension round of
//!   extra samples before the walk commits (only with a noise margin,
//!   so never under [`ResiliencePolicy::PAPER`]).
//! * **Finalized** — a version won; remaining iterations run it.
//! * **Quarantined** — every candidate (fallbacks included) died;
//!   terminal.
//! * **Degraded** — the service deadline was reached
//!   ([`TuningSession::degrade`]); the session settled on its fail-safe
//!   selection. Terminal.
//!
//! Transitions outside the arrows above are illegal and asserted
//! against ([`SessionState::can_transition`]).
//!
//! # Golden contract
//!
//! The golden walk fixtures of `orion-bench` (`crates/bench/golden/
//! walk.json`) pin this machine's outcomes — decision log, finalized
//! pick, [`TuneReason`]s, stats and errors — over fault-free, noisy,
//! and fault-injected measurement streams. A behavioral change here
//! shows up as changed fixture entries; re-bless them deliberately
//! (`cargo run --release -p orion-bench --bin bless`) and review the
//! diff.
//!
//! [`TuneReason`]: crate::runtime::TuneReason

use crate::compiler::{CompiledKernel, Direction, KernelVersion};
use crate::error::OrionError;
use crate::policy::{Measurement, Policy, PolicyKind, PolicyVerdict};
use crate::resilient::{
    robust_measure, should_quarantine, ResiliencePolicy, ResilienceStats, RobustMeasure,
    BACKOFF_BASE_CYCLES, NOISE_MARGIN_CAP, NOISE_MARGIN_FACTOR,
};
use crate::runtime::{TuneDecision, TuneReason};
use orion_telemetry::hist::Histogram;
use serde::{Deserialize, Serialize};

/// Observable phase of a [`TuningSession`] (see the module docs for the
/// transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionState {
    /// Measuring the baseline version; no comparison anchor yet.
    Warmup,
    /// Walking the candidate order under the degradation test.
    Walking,
    /// Spending an extension round on a borderline verdict.
    Probing,
    /// A version has been selected; steady-state execution.
    Finalized,
    /// Every runnable version has been quarantined. Terminal.
    Quarantined,
    /// The service deadline was reached; the session settled on its
    /// fail-safe selection and stopped. Terminal.
    Degraded,
}

impl SessionState {
    /// Whether the state machine may move from `self` to `to`.
    /// Self-transitions are always legal (the session re-derives its
    /// state after every event).
    #[must_use]
    pub fn can_transition(self, to: SessionState) -> bool {
        use SessionState::{Degraded, Finalized, Probing, Quarantined, Walking, Warmup};
        if self == to {
            return true;
        }
        match self {
            Warmup => matches!(to, Walking | Finalized | Quarantined | Degraded),
            Walking => matches!(to, Probing | Finalized | Quarantined | Degraded),
            Probing => matches!(to, Walking | Finalized | Quarantined | Degraded),
            Finalized => matches!(to, Quarantined | Degraded),
            Quarantined | Degraded => false,
        }
    }

    /// Whether the session has committed to a version or died — i.e.
    /// no further exploration will happen.
    #[must_use]
    pub fn is_settled(self) -> bool {
        matches!(self, SessionState::Finalized | SessionState::Quarantined | SessionState::Degraded)
    }
}

/// One fact a [`TuningSession`] journals that no other part of its
/// outcome holds. Quarantines, fallbacks, degrades and policy verdicts
/// are [`TuneDecision`]s and are never journaled again: a record that
/// needs a decision's place in the order carries the decision's index
/// in the log, not a copy of it. The journal is a pure function of the
/// session's inputs, so it is bit-identical across worker counts and
/// telemetry settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    /// The session moved between states.
    SessionTransition { from: SessionState, to: SessionState },
    /// A transient launch failure of `version` scheduled retry
    /// `attempt` after `backoff_cycles` simulated cycles.
    Retry { version: usize, attempt: u32, backoff_cycles: u64 },
    /// A launch of `version` exceeded its watchdog cycle budget.
    Watchdog { version: usize, budget_cycles: u64 },
    /// The bandit's analytic pre-prune dropped `arms` arms before any
    /// launch.
    Pruned { arms: usize },
}

impl JournalEvent {
    /// Stable lowercase tag naming the variant.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            JournalEvent::SessionTransition { .. } => "session_transition",
            JournalEvent::Retry { .. } => "retry",
            JournalEvent::Watchdog { .. } => "watchdog",
            JournalEvent::Pruned { .. } => "pruned",
        }
    }
}

/// Deterministic per-session latency observations, recorded in
/// *simulated cycles* so they are bit-identical across thread
/// interleavings and worker counts (unlike wall-clock telemetry).
/// Always collected, whatever the telemetry switch says: the histograms
/// are a few hundred machine words and the service's determinism gate
/// reads them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionObs {
    /// Cycles of every successful launch (the paper's measurement
    /// stream), exploration and steady-state alike.
    pub launch_cycles: Histogram,
    /// Simulated backoff cycles a launch chain waited before resolving
    /// (0 for launches that succeeded first try — the common case —
    /// so `count` tracks resolved chains, not just retried ones).
    pub queue_wait_cycles: Histogram,
}

/// The two session presets by name. A session holds only a
/// [`ResiliencePolicy`]; this enum names one and converts into it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionMode {
    /// [`ResiliencePolicy::PAPER`].
    Simple,
    /// The given policy.
    Resilient(ResiliencePolicy),
}

/// What the session wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStep {
    /// Launch version `.0` (an index into
    /// [`CompiledKernel::versions`]) and report the result via
    /// [`TuningSession::on_launch_result`] (or
    /// [`TuningSession::on_cycles`]). Re-calling
    /// [`TuningSession::next_step`] without reporting re-issues the same
    /// request.
    Launch(usize),
    /// The iteration budget is exhausted (or the session aborted);
    /// call [`TuningSession::finish`].
    Done,
}

/// A completed session — the one outcome type of every tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// The selected version index.
    pub selected: usize,
    /// `(version, cycles)` per successful application iteration.
    pub iterations: Vec<(usize, u64)>,
    /// The completed iterations before the first iteration that ran
    /// the finalized pick — all of them if the search never finalized.
    pub converged_after: usize,
    /// Total simulated cycles, retry backoff included.
    pub total_cycles: u64,
    /// Per-decision log, including quarantine and fallback entries.
    pub decisions: Vec<TuneDecision>,
    /// Launch and failure accounting: `launches` counts every attempt,
    /// the failure fields stay zero on a fault-free run.
    pub stats: ResilienceStats,
    /// State at [`TuningSession::finish`] time.
    pub state: SessionState,
}

/// An in-flight launch request: version index plus the retry attempt
/// (transients are relaunched up to the policy's retry budget).
#[derive(Debug, Clone, Copy)]
struct PendingLaunch {
    version: usize,
    attempt: u32,
}

/// One exploration measurement pass: the mean-of-k sample set for the
/// version under evaluation, growing by `k` on a borderline verdict.
#[derive(Debug, Clone)]
struct SamplePass {
    version: usize,
    samples: Vec<u64>,
    /// Samples wanted before the verdict; `k` initially, `2k` after a
    /// borderline extension.
    target: usize,
    /// The per-pass sample quota `k` (`ResiliencePolicy::samples`).
    k: usize,
    /// A quarantineable failure interrupted sampling.
    struck: bool,
    /// The strike quarantined the version outright.
    dead: bool,
}

/// The unified pull-based tuning state machine. See the module docs.
///
/// Drive it with [`TuningSession::drive`], or with the two-call loop
/// that method is:
///
/// ```text
/// while let SessionStep::Launch(v) = session.next_step()? {
///     session.on_launch_result(backend.launch(&ck.versions[v], ...))?;
/// }
/// let outcome = session.finish();
/// ```
#[derive(Debug, Clone)]
pub struct TuningSession<'k> {
    ck: &'k CompiledKernel,
    kernel: String,
    resilience: ResiliencePolicy,
    threshold: f64,
    iterations: u32,
    /// The decision core: which candidate next, what a measurement
    /// means, when to commit, what replaces a dead candidate
    /// ([`crate::policy`]). Defaults to the paper's walk.
    policy: Policy,
    state: SessionState,
    /// Completed application iterations.
    it: u32,
    iters: Vec<(usize, u64)>,
    total: u64,
    converged_after: Option<usize>,
    stats: ResilienceStats,
    /// Consecutive hard-failure strikes per version index.
    strikes: Vec<u32>,
    current: Option<PendingLaunch>,
    pass: Option<SamplePass>,
    /// Set once the session aborted with a fatal error or ran dry.
    aborted: bool,
    /// Backoff cycles accumulated by the outstanding launch chain's
    /// retries; folded into `obs.queue_wait_cycles` when it resolves.
    pending_backoff: u64,
    obs: SessionObs,
    /// This session's journal, in the order the facts happened.
    journal: Vec<JournalEvent>,
}

impl<'k> TuningSession<'k> {
    /// A session over `ck`'s candidates under `resilience`, driven by
    /// the default [`PolicyKind::PaperWalk`] search policy; `kernel`
    /// names the kernel in error context.
    pub fn new(
        kernel: impl Into<String>,
        ck: &'k CompiledKernel,
        iterations: u32,
        threshold: f64,
        resilience: ResiliencePolicy,
    ) -> Self {
        let search = PolicyKind::PaperWalk;
        TuningSession::with_policy(kernel, ck, iterations, threshold, resilience, search)
    }

    /// A session whose decision core is chosen by `search` — the
    /// per-job policy-selection entry point
    /// ([`JobPolicy::search`](crate::service::JobPolicy::search)).
    /// `resilience` also takes a [`SessionMode`].
    pub fn with_policy(
        kernel: impl Into<String>,
        ck: &'k CompiledKernel,
        iterations: u32,
        threshold: f64,
        resilience: impl Into<ResiliencePolicy>,
        search: PolicyKind,
    ) -> Self {
        let policy = search.build(ck, threshold);
        TuningSession::over(kernel, ck, iterations, threshold, resilience.into(), policy)
    }

    /// A session driven by an already-built `policy` whose candidate
    /// `i` is `ck.versions[i]` — for searches whose policy needs more
    /// than `ck` to build, such as a bandit with launch-shaped bounds.
    pub fn over(
        kernel: impl Into<String>,
        ck: &'k CompiledKernel,
        iterations: u32,
        threshold: f64,
        resilience: ResiliencePolicy,
        policy: Policy,
    ) -> Self {
        let state = if matches!(policy.verdict(), PolicyVerdict::Finalized(_)) {
            SessionState::Finalized
        } else {
            SessionState::Warmup
        };
        let journal = match policy.pruned_arms() {
            0 => Vec::new(),
            arms => vec![JournalEvent::Pruned { arms }],
        };
        TuningSession {
            kernel: kernel.into(),
            resilience,
            threshold,
            iterations,
            state,
            it: 0,
            iters: Vec::with_capacity(iterations as usize),
            total: 0,
            converged_after: None,
            stats: ResilienceStats::default(),
            strikes: vec![0; ck.versions.len()],
            current: None,
            pass: None,
            aborted: false,
            pending_backoff: 0,
            obs: SessionObs::default(),
            journal,
            policy,
            ck,
        }
    }

    /// The paper's exact walk ([`ResiliencePolicy::PAPER`]) over an
    /// unnamed kernel.
    pub fn simple(ck: &'k CompiledKernel, iterations: u32, threshold: f64) -> Self {
        TuningSession::new("", ck, iterations, threshold, ResiliencePolicy::PAPER)
    }

    /// Current observable state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The policy's finalized version, once the search is done.
    #[must_use]
    pub fn finalized(&self) -> Option<usize> {
        match self.policy.verdict() {
            PolicyVerdict::Finalized(v) => Some(v),
            PolicyVerdict::Exploring | PolicyVerdict::Dead => None,
        }
    }

    /// The search policy driving this session.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The decision log so far.
    #[must_use]
    pub fn decisions(&self) -> &[TuneDecision] {
        self.policy.decisions()
    }

    /// Application iterations completed so far.
    #[must_use]
    pub fn iterations_done(&self) -> u32 {
        self.it
    }

    /// The session's deterministic latency observations so far. Read
    /// (and clone) before [`TuningSession::finish`] consumes the
    /// session; `OrionService` folds these into its per-kernel report.
    #[must_use]
    pub fn observations(&self) -> &SessionObs {
        &self.obs
    }

    /// The session's journal so far, oldest first. Read (and clone)
    /// before [`TuningSession::finish`] consumes the session, as
    /// `OrionService` does for each job's report.
    #[must_use]
    pub fn journal(&self) -> &[JournalEvent] {
        &self.journal
    }

    /// Total simulated cycles consumed so far, *including* backoff
    /// cycles charged by retries — the quantity a sim-cycle deadline
    /// meters.
    #[must_use]
    pub fn total_cycles_so_far(&self) -> u64 {
        self.total.saturating_add(self.stats.backoff_cycles)
    }

    /// Terminate the session because its service deadline was reached.
    /// The policy settles on its fail-safe selection ([`Policy::degrade`]):
    /// an already finalized version is kept, and an unfinished search
    /// resolves to the original. Any outstanding launch request and
    /// sampling pass are dropped. Returns the settled version; `None`
    /// means every version was already quarantined and the session died
    /// as [`SessionState::Quarantined`] instead.
    pub fn degrade(&mut self) -> Option<usize> {
        if self.state.is_settled() && self.aborted {
            return self.finalized(); // already terminal
        }
        self.current = None;
        self.pass = None;
        self.aborted = true;
        let settled = self.policy.degrade();
        if settled.is_some() {
            self.transition(SessionState::Degraded);
        } else {
            self.transition(SessionState::Quarantined);
        }
        settled
    }

    /// Move to `to`, enforcing the legal-transition diagram.
    fn transition(&mut self, to: SessionState) {
        debug_assert!(
            self.state.can_transition(to),
            "illegal session transition {:?} -> {to:?}",
            self.state
        );
        if self.state != to {
            self.journal.push(JournalEvent::SessionTransition { from: self.state, to });
        }
        self.state = to;
    }

    /// Re-derive the observable state from the policy + pass.
    fn refresh_state(&mut self) {
        if self.state == SessionState::Degraded {
            return; // terminal; the policy's view no longer drives state
        }
        let to = match self.policy.verdict() {
            PolicyVerdict::Dead => SessionState::Quarantined,
            PolicyVerdict::Finalized(_) => SessionState::Finalized,
            PolicyVerdict::Exploring => {
                if self.pass.as_ref().is_some_and(|p| p.target > p.k) {
                    SessionState::Probing
                } else if self.policy.trials() == 0 {
                    SessionState::Warmup
                } else {
                    SessionState::Walking
                }
            }
        };
        self.transition(to);
    }

    /// What to do next: launch a version, or stop.
    ///
    /// Idempotent while a launch is outstanding: calling `next_step`
    /// again before reporting the result re-issues the same request.
    ///
    /// # Errors
    /// [`OrionError::AllCandidatesFailed`] (with kernel context) once
    /// every version, fallbacks included, has been quarantined (never
    /// under [`ResiliencePolicy::PAPER`], which quarantines nothing).
    pub fn next_step(&mut self) -> Result<SessionStep, OrionError> {
        if let Some(p) = self.current {
            return Ok(SessionStep::Launch(p.version));
        }
        if self.aborted || self.it >= self.iterations {
            return Ok(SessionStep::Done);
        }
        let Some(v) = self.policy.propose() else {
            self.refresh_state();
            return Err(OrionError::AllCandidatesFailed {
                quarantined: self.policy.quarantined_count(),
            }
            .with_context(self.kernel.clone(), Some(self.total)));
        };
        let version = if self.finalized().is_some() {
            // Steady state: single launch per iteration.
            self.pass = None;
            self.converged_after.get_or_insert(self.iters.len());
            v
        } else {
            // Exploration: open (or continue) a sampling pass.
            let k = self.resilience.samples.max(1);
            let pass = self.pass.get_or_insert_with(|| SamplePass {
                version: v,
                samples: Vec::with_capacity(2 * k),
                target: k,
                k,
                struck: false,
                dead: false,
            });
            pass.version
        };
        self.current = Some(PendingLaunch { version, attempt: 0 });
        Ok(SessionStep::Launch(version))
    }

    /// Report the outcome of the launch requested by the last
    /// [`TuningSession::next_step`]: retry, strike, sample, verdict.
    ///
    /// # Errors
    /// A fatal launch error — one the policy neither retries nor
    /// quarantines; under [`ResiliencePolicy::PAPER`], any — propagates
    /// back wrapped with kernel context, and the session is aborted.
    /// Reporting with no launch outstanding is [`OrionError::Tuner`].
    pub fn on_launch_result(&mut self, result: Result<u64, OrionError>) -> Result<(), OrionError> {
        let Some(pending) = self.current else {
            return Err(OrionError::Tuner(
                "launch result reported with no launch outstanding".into(),
            ));
        };
        self.stats.launches += 1;
        match result {
            Ok(cycles) => {
                self.current = None;
                self.strikes[pending.version] = 0;
                self.total = self.total.saturating_add(cycles);
                self.iters.push((pending.version, cycles));
                self.it += 1;
                self.obs.launch_cycles.record(cycles);
                self.obs.queue_wait_cycles.record(self.pending_backoff);
                self.pending_backoff = 0;
                if let Some(mut pass) = self.pass.take() {
                    pass.samples.push(cycles);
                    self.advance_pass(pass);
                }
                self.refresh_state();
                Ok(())
            }
            Err(e) if e.is_transient() && pending.attempt < self.resilience.max_retries => {
                // Bounded retry with exponential backoff, charged in
                // simulated cycles; the same launch is re-issued.
                self.stats.failed_launches += 1;
                self.stats.retries += 1;
                let backoff = BACKOFF_BASE_CYCLES << pending.attempt.min(20);
                self.stats.backoff_cycles = self.stats.backoff_cycles.saturating_add(backoff);
                self.pending_backoff = self.pending_backoff.saturating_add(backoff);
                self.journal.push(JournalEvent::Retry {
                    version: pending.version,
                    attempt: pending.attempt + 1,
                    backoff_cycles: backoff,
                });
                self.current =
                    Some(PendingLaunch { version: pending.version, attempt: pending.attempt + 1 });
                Ok(())
            }
            Err(e) if self.resilience.quarantine_strikes > 0 && should_quarantine(&e) => {
                self.stats.failed_launches += 1;
                self.current = None;
                // The chain resolved (in failure): its waited backoff is
                // still queue time.
                self.obs.queue_wait_cycles.record(self.pending_backoff);
                self.pending_backoff = 0;
                if let OrionError::Sim(orion_gpusim::exec::SimError::Watchdog { budget }) =
                    e.root_cause()
                {
                    self.journal.push(JournalEvent::Watchdog {
                        version: pending.version,
                        budget_cycles: *budget,
                    });
                }
                let dead = self.strike(pending.version);
                if let Some(mut pass) = self.pass.take() {
                    // A strike ends the sampling pass; the partial
                    // measurement is discarded (the version will be
                    // re-sampled cleanly if it survived).
                    pass.struck = true;
                    pass.dead = dead;
                    self.settle_pass(pass);
                }
                self.refresh_state();
                Ok(())
            }
            Err(e) => {
                self.stats.failed_launches += 1;
                self.current = None;
                self.obs.queue_wait_cycles.record(self.pending_backoff);
                self.pending_backoff = 0;
                self.aborted = true;
                Err(e.with_context(self.kernel.clone(), Some(self.total)))
            }
        }
    }

    /// Report a successful measurement (sugar over
    /// [`TuningSession::on_launch_result`] for drivers whose error type
    /// isn't [`OrionError`]).
    pub fn on_cycles(&mut self, cycles: u64) {
        self.on_launch_result(Ok(cycles)).expect("a successful measurement cannot fail");
    }

    /// Charge a hard failure; quarantine on the consecutive-strike
    /// budget. Returns whether the version died.
    fn strike(&mut self, version: usize) -> bool {
        self.stats.strikes += 1;
        self.strikes[version] += 1;
        if self.strikes[version] >= self.resilience.quarantine_strikes {
            self.policy.quarantine(version);
            true
        } else {
            false
        }
    }

    /// After a successful sample: keep sampling, extend on a borderline
    /// verdict, or settle the pass.
    fn advance_pass(&mut self, pass: SamplePass) {
        // Keep sampling while the pass lacks samples and iterations
        // remain.
        if pass.samples.len() < pass.target && self.it < self.iterations {
            self.pass = Some(pass); // keep sampling
            return;
        }
        if self.it >= self.iterations || pass.samples.len() < pass.target || pass.target > pass.k {
            self.settle_pass(pass);
            return;
        }
        // Full first-round measurement in hand — is the stop verdict
        // within half a noise margin of the decision boundary? Then a
        // jitter swing could flip it; double the sample set once.
        let mut pass = pass;
        let m = robust_measure(&mut pass.samples);
        let margin = noise_margin(&m);
        let borderline = margin > 0.0
            && self.policy.probe_slowdown(m.cycles).is_some_and(|slow| {
                let boundary = match self.ck.direction {
                    Direction::Increasing => margin,
                    Direction::Decreasing => self.threshold.max(margin),
                };
                (slow - boundary).abs() <= margin * 0.5
            });
        if borderline {
            pass.target += pass.k;
            self.pass = Some(pass);
        } else {
            self.settle_pass(pass);
        }
    }

    /// Close a pass: record a full mean-of-k, or whatever we have if
    /// the iteration budget ran out; a strike-interrupted partial with
    /// budget remaining is discarded instead.
    fn settle_pass(&mut self, mut pass: SamplePass) {
        if !pass.dead && !pass.samples.is_empty() && (!pass.struck || self.it >= self.iterations) {
            let m = robust_measure(&mut pass.samples);
            self.policy.observe(pass.version, Measurement::noisy(m.cycles, noise_margin(&m)));
        }
        self.pass = None;
    }

    /// Run the session to completion, executing each requested launch
    /// with `run`.
    ///
    /// # Errors
    /// [`OrionError::AllCandidatesFailed`] once every version (fallbacks
    /// included) is quarantined, or the first launch error the policy
    /// neither retries nor quarantines — both wrapped with the kernel
    /// name and cycle of failure.
    pub fn drive(
        mut self,
        mut run: impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
    ) -> Result<SessionOutcome, OrionError> {
        while let SessionStep::Launch(v) = self.next_step()? {
            self.on_launch_result(run(&self.ck.versions[v]))?;
        }
        Ok(self.finish())
    }

    /// Consume the session into its outcome. Callable at any point;
    /// [`TuningSession::drive`] calls it after [`SessionStep::Done`].
    #[must_use]
    pub fn finish(mut self) -> SessionOutcome {
        let selected = self.finalized().unwrap_or_else(|| self.policy.select());
        let decisions = self.policy.decisions().to_vec();
        // Reconcile quarantine/fallback stats with the decision log.
        self.stats.quarantined =
            decisions.iter().filter(|d| d.reason == TuneReason::Quarantined).count() as u64;
        self.stats.fellback =
            decisions.iter().filter(|d| d.reason == TuneReason::FellBack).count() as u64;
        SessionOutcome {
            selected,
            converged_after: self.converged_after.unwrap_or(self.iters.len()),
            total_cycles: self.total_cycles_so_far(),
            iterations: self.iters,
            decisions,
            stats: self.stats,
            state: self.state,
        }
    }
}

/// The degradation test's noise margin for a robust measurement: its
/// relative spread scaled by [`NOISE_MARGIN_FACTOR`], capped at
/// [`NOISE_MARGIN_CAP`].
fn noise_margin(m: &RobustMeasure) -> f64 {
    (m.rel_spread * NOISE_MARGIN_FACTOR).clamp(0.0, NOISE_MARGIN_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fake_compiled;
    use orion_gpusim::exec::SimError;

    #[test]
    fn simple_session_walks_and_settles() {
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let times = [100u64, 80, 90, 70];
        let mut s = TuningSession::simple(&ck, 10, 0.02);
        assert_eq!(s.state(), SessionState::Warmup);
        let mut seen_walking = false;
        while let SessionStep::Launch(v) = s.next_step().unwrap() {
            s.on_cycles(times[v]);
            seen_walking |= s.state() == SessionState::Walking;
        }
        assert!(seen_walking);
        assert_eq!(s.state(), SessionState::Finalized);
        let out = s.finish();
        assert_eq!(out.selected, 1);
        assert_eq!(out.converged_after, 3);
        assert_eq!(out.iterations.len(), 10);
    }

    #[test]
    fn next_is_idempotent_while_a_launch_is_outstanding() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        let mut s = TuningSession::simple(&ck, 4, 0.02);
        let a = s.next_step().unwrap();
        let b = s.next_step().unwrap();
        assert_eq!(a, b);
        assert!(matches!(a, SessionStep::Launch(0)));
    }

    #[test]
    fn result_without_outstanding_launch_is_an_error() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        let mut s = TuningSession::simple(&ck, 4, 0.02);
        let err = s.on_launch_result(Ok(10)).unwrap_err();
        assert!(matches!(err, OrionError::Tuner(_)));
    }

    #[test]
    fn zero_iterations_finish_immediately() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        let mut s = TuningSession::simple(&ck, 0, 0.02);
        assert_eq!(s.next_step().unwrap(), SessionStep::Done);
        let out = s.finish();
        assert_eq!(out.iterations.len(), 0);
        assert_eq!(out.converged_after, 0);
        assert_eq!(out.total_cycles, 0);
        // Unfinalized walk still names a deterministic selection.
        assert_eq!(out.selected, 0);
    }

    #[test]
    fn single_candidate_starts_finalized() {
        let ck = fake_compiled(&[48], Direction::Decreasing);
        let mut s = TuningSession::simple(&ck, 3, 0.02);
        assert_eq!(s.state(), SessionState::Finalized);
        while let SessionStep::Launch(v) = s.next_step().unwrap() {
            assert_eq!(v, 0);
            s.on_cycles(55);
        }
        let out = s.finish();
        assert_eq!(out.selected, 0);
        assert_eq!(out.converged_after, 0);
        assert_eq!(out.total_cycles, 165);
    }

    /// The paper's walk neither retries nor quarantines: a fatal, a
    /// quarantineable and a transient error each abort the session.
    #[test]
    fn simple_session_aborts_on_first_error() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        let errors = [
            SimError::Deadlock,
            SimError::Watchdog { budget: 9 },
            SimError::TransientLaunchFailure { code: 1 },
        ];
        for sim in errors {
            let mut s = TuningSession::new("k", &ck, 4, 0.02, ResiliencePolicy::PAPER);
            let SessionStep::Launch(_) = s.next_step().unwrap() else { panic!() };
            let err = s.on_launch_result(Err(sim.clone().into())).unwrap_err();
            assert!(matches!(err.root_cause(), OrionError::Sim(e) if *e == sim), "{err}");
            assert_eq!(s.next_step().unwrap(), SessionStep::Done, "{sim:?} aborts");
            let out = s.finish();
            assert_eq!((out.stats.retries, out.stats.strikes), (0, 0), "{sim:?}");
            assert!(out.decisions.iter().all(|d| d.reason != TuneReason::Quarantined), "{sim:?}");
        }
    }

    #[test]
    fn resilient_session_probes_borderline_verdicts() {
        // Decreasing walk: the second version sits right at the 2%
        // boundary with jittery samples, forcing an extension round.
        let ck = fake_compiled(&[48, 36, 24], Direction::Decreasing);
        let policy = ResiliencePolicy { samples: 3, ..ResiliencePolicy::default() };
        let mut s = TuningSession::new("k", &ck, 30, 0.02, policy);
        let mut n1 = 0u32;
        let mut saw_probing = false;
        while let SessionStep::Launch(v) = s.next_step().unwrap() {
            let c = match v {
                0 => 1000,
                1 => {
                    n1 += 1;
                    // Mean 1050 (5% over best), spread ~5.7% → margin
                    // ~4.3%; the verdict lands within half a margin of
                    // the max(threshold, margin) boundary.
                    [1020u64, 1050, 1080][(n1 as usize - 1) % 3]
                }
                _ => 2000,
            };
            s.on_cycles(c);
            saw_probing |= s.state() == SessionState::Probing;
        }
        assert!(saw_probing, "borderline verdict must enter Probing");
        let out = s.finish();
        assert!(out.state.is_settled());
    }

    /// `samples: 0` is read as one sample per pass: on the same
    /// jittery stream with a transient failure it tunes exactly like
    /// `samples: 1`.
    #[test]
    fn zero_samples_tunes_like_one_sample() {
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let run = |samples| {
            let policy = ResiliencePolicy { samples, ..ResiliencePolicy::default() };
            let mut s = TuningSession::new("k", &ck, 20, 0.02, policy);
            let mut n = 0u64;
            while let SessionStep::Launch(v) = s.next_step().unwrap() {
                n += 1;
                let result = if n == 3 {
                    Err(SimError::TransientLaunchFailure { code: 1 }.into())
                } else {
                    Ok(1000 - 30 * v as u64 + (n * 7) % 13)
                };
                s.on_launch_result(result).expect("a transient failure is retried");
            }
            s.finish()
        };
        let one = run(1);
        assert_eq!(one.stats.retries, 1);
        assert_eq!(run(0), one);
    }

    #[test]
    fn quarantining_everything_is_terminal_with_coherent_log() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        let policy = ResiliencePolicy::default();
        let mut s = TuningSession::new("dead", &ck, 12, 0.02, policy);
        let err = loop {
            match s.next_step() {
                Ok(SessionStep::Launch(_)) => {
                    s.on_launch_result(Err(SimError::Watchdog { budget: 9 }.into()))
                        .expect("quarantineable failures are absorbed");
                }
                Ok(SessionStep::Done) => panic!("session must die, not drain"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err.root_cause(), OrionError::AllCandidatesFailed { quarantined: 2 }));
        assert!(err.to_string().contains("dead"));
        assert_eq!(s.state(), SessionState::Quarantined);
        let watchdogs = s
            .journal()
            .iter()
            .filter(|e| matches!(e, JournalEvent::Watchdog { budget_cycles: 9, .. }))
            .count();
        let out = s.finish();
        assert_eq!(watchdogs as u64, out.stats.strikes, "every strike here is a journaled hang");
        assert_eq!(out.state, SessionState::Quarantined);
        assert_eq!(
            out.decisions.iter().filter(|d| d.reason == TuneReason::Quarantined).count(),
            2,
            "one quarantine decision per dead version: {:?}",
            out.decisions
        );
        assert_eq!(out.stats.quarantined, 2);
        assert_eq!(out.iterations.len(), 0);
    }

    #[test]
    fn illegal_transitions_are_rejected_by_the_table() {
        use SessionState::{Degraded, Finalized, Probing, Quarantined, Walking, Warmup};
        assert!(Warmup.can_transition(Walking));
        assert!(Warmup.can_transition(Finalized));
        assert!(!Warmup.can_transition(Probing));
        assert!(Walking.can_transition(Probing));
        assert!(Probing.can_transition(Walking));
        assert!(!Finalized.can_transition(Walking));
        assert!(Finalized.can_transition(Quarantined));
        assert!(!Quarantined.can_transition(Warmup));
        assert!(Quarantined.can_transition(Quarantined));
        assert!(Warmup.can_transition(Degraded));
        assert!(Walking.can_transition(Degraded));
        assert!(Finalized.can_transition(Degraded));
        assert!(!Degraded.can_transition(Walking));
        assert!(!Degraded.can_transition(Quarantined));
        assert!(Degraded.is_settled());
    }

    #[test]
    fn degrade_mid_walk_settles_on_original_and_stops() {
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let mut s = TuningSession::simple(&ck, 10, 0.02);
        let SessionStep::Launch(v) = s.next_step().unwrap() else { panic!() };
        s.on_cycles(100 + v as u64);
        assert_eq!(s.state(), SessionState::Walking);
        assert_eq!(s.total_cycles_so_far(), 100);
        let settled = s.degrade();
        assert_eq!(settled, Some(0), "unfinished walk degrades to the original");
        assert_eq!(s.state(), SessionState::Degraded);
        assert_eq!(s.next_step().unwrap(), SessionStep::Done, "degraded sessions stop");
        let out = s.finish();
        assert_eq!(out.state, SessionState::Degraded);
        assert_eq!(out.selected, 0);
        assert_eq!(
            out.decisions.last().unwrap().reason,
            TuneReason::Degraded,
            "the log explains the cut: {:?}",
            out.decisions
        );
    }

    #[test]
    fn degrade_keeps_a_finalized_selection() {
        let ck = fake_compiled(&[8, 16, 32], Direction::Increasing);
        let times = [100u64, 80, 90];
        let mut s = TuningSession::simple(&ck, 10, 0.02);
        while s.state() != SessionState::Finalized {
            let SessionStep::Launch(v) = s.next_step().unwrap() else { panic!() };
            s.on_cycles(times[v]);
        }
        assert_eq!(s.degrade(), Some(1), "finalized pick survives the cut");
        assert_eq!(s.state(), SessionState::Degraded);
    }

    #[test]
    fn degrade_with_everything_quarantined_dies_quarantined() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        let policy = ResiliencePolicy { quarantine_strikes: 1, ..ResiliencePolicy::default() };
        let mut s = TuningSession::new("k", &ck, 8, 0.02, policy);
        while let Ok(SessionStep::Launch(_)) = s.next_step() {
            s.on_launch_result(Err(SimError::Watchdog { budget: 9 }.into())).unwrap();
        }
        assert_eq!(s.degrade(), None, "no survivor to degrade onto");
        assert_eq!(s.state(), SessionState::Quarantined);
    }
}
