//! `OrionService` — tuning many kernels as one workload.
//!
//! Real applications don't tune one kernel in a vacuum: a Rodinia-style
//! app launches several kernels, each wanting its own occupancy walk,
//! all sharing one device, one compile cache, and one telemetry stream.
//! [`OrionService`] is that multi-kernel driver: it owns a [`Backend`],
//! accepts a batch of named [`KernelJob`]s, and runs one
//! [`TuningSession`] per kernel.
//!
//! ## One job loop
//!
//! The paper's runtime (§3.4, Figure 9) is one feedback loop per
//! kernel: each launch waits for the verdict on the previous one, so a
//! job is a sequential loop and a batch is concurrent only *across*
//! jobs. One drive loop runs every job, whether it arrives through
//! [`OrionService::run`] or [`OrionService::tune_one`]: it pumps the
//! session until it asks for a launch (the deadline gate and the chaos
//! draw happen here), runs the launch through [`Backend::launch`], and
//! resumes the session with the result, until the job resolves to its
//! report.
//!
//! `run` compiles the batch first, sequentially on the calling thread,
//! then runs the jobs on `min(`[`ServiceConfig::workers`]`,`
//! [`ServiceConfig::in_flight_limit`]`, jobs)` scoped threads while the
//! calling thread waits. Each thread owns whole jobs: it takes
//! the next job from a **longest-job-first** queue and drives it to the
//! end. Per-job costs are estimated from the probe-time occupancy
//! curves (grid lanes × iterations, scaled by the deepest candidate's
//! occupancy rounds), so long jobs start early and don't leave one
//! thread running alone at the end of the batch. The queue order is a
//! pure function of the job set, recorded in
//! [`ServiceReport::dispatch_order`]. `tune_one` is the same loop on the
//! caller's thread.
//!
//! Each launch fans its SMs out over the batch's share of the host
//! cores: the core count divided by the batch's job threads, at least
//! one, so `tune_one` gets every core. The simulator's results are
//! bit-identical at any fan-out, so this is a resource choice that no
//! outcome can see. (Re-sharing the cores as jobs finish, so that a
//! batch's tail fans out, raised perfbench's `service-batch` peak RSS
//! by 9% with no throughput gain.)
//!
//! Four properties the service guarantees:
//!
//! * **Per-session isolation** — each job gets its own compiled
//!   candidates, global-memory image, and session; a kernel whose every
//!   candidate dies reports [`OrionError::AllCandidatesFailed`] in its
//!   own [`KernelReport`] without disturbing its neighbours. Panics are
//!   caught at two boundaries: a launch that unwinds returns
//!   [`OrionError::SessionPanicked`] to the session, whose own error
//!   handling decides the job's fate, and a session step that unwinds
//!   resolves the job to its own quarantined report — either way the
//!   batch is never torn down.
//! * **Definite outcomes** — every submitted job terminates with
//!   exactly one [`JobDisposition`]: `Finalized`, `Quarantined`, or
//!   `Degraded`. Jobs in equals definite outcomes out,
//!   whatever the backend, the allocator, or a worker thread does — the
//!   chaos test `tests::chaos_batch_is_accounted_and_deterministic`
//!   checks exactly this invariant.
//! * **Deterministic merge** — reports come back in submission order
//!   whatever the thread interleaving, and
//!   [`ServiceReport::merged_decisions`] is a deterministic flattening
//!   of the per-kernel decision logs. On a deterministic backend the
//!   per-kernel outcomes are bit-identical at any worker count or
//!   in-flight limit (the unit test
//!   `tests::in_flight_limit_does_not_change_outcomes` enforces exactly
//!   this). Each launch's cycles are recorded once, in its job's
//!   outcome ([`SessionOutcome::iterations`]); a job's wall times
//!   ([`KernelMetrics`]) are excluded from every determinism gate.
//! * **Shared infrastructure** — one compile cache (kernels sharing a
//!   module fingerprint reuse allocations; [`ServiceReport::cache`]
//!   reports hit rates across the batch) and one telemetry buffer,
//!   with each job stamped onto its own lane
//!   ([`orion_telemetry::set_scope`]) so traces stay separable. The
//!   run journal is not shared: each job's session keeps its own
//!   ([`KernelReport::journal`]), so a batch's journal holds exactly its
//!   own jobs' records, whatever else runs in the process.
//!
//! ## Chaos
//!
//! [`ServiceConfig::chaos`] takes a [`ServiceFaultPlan`]: per-job
//! launch faults plus the failure modes only a service has — worker
//! panics mid-session and injected deadline pressure — and an optional
//! [`FaultStorm`]. Each job's [`JobFaults`] is a pure function of
//! `(seed, job index)`, and each launch's fault draw is a pure function
//! of `(job, launch index)`, so a chaos batch replays bit-identically
//! at any worker count. The service only *draws* launch faults: each
//! draw rides to the backend in [`LaunchOptions::faults`], and the
//! simulator applies it exactly as for any direct caller
//! ([`crate::backend::SimBackend::run`]). Backends that never run
//! the simulator (e.g. [`crate::backend::ReplayBackend`]) ignore it.
//!
//! ## Job lifecycle
//!
//! ```text
//! submit ──► Running ──► Finalized
//!               ├──────► Quarantined   (errors, panics)
//!               └──────► Degraded      (deadline reached)
//! ```
//!
//! Running jobs are metered against their [`JobPolicy`]'s
//! simulated-cycle deadline, and a reached deadline resolves the
//! session to **Degraded**: the tuner settles on its fail-safe
//! selection (the paper's §4 philosophy — the original kernel always
//! remains runnable) instead of erroring.
//!
//! [`TuningSession`]: crate::session::TuningSession

use crate::backend::{guarded_launch, panic_detail, Backend};
use crate::cache;
use crate::compiler::{CompiledKernel, TuningConfig};
use crate::error::OrionError;
use crate::policy::PolicyKind;
use crate::resilient::ResiliencePolicy;
use crate::runtime::TuneDecision;
use crate::session::{JournalEvent, SessionOutcome, SessionState, SessionStep, TuningSession};
use orion_gpusim::exec::Launch;
use orion_gpusim::faults::{splitmix64, unit, FaultInjector, FaultPlan, LaunchFaults};
use orion_gpusim::sim::LaunchOptions;
use orion_kir::function::Module;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Per-job deadline and search policy, enforced by the service around
/// the session. The default has no deadline and runs the paper's walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobPolicy {
    /// Simulated-cycle deadline across the whole session, retry backoff
    /// included ([`TuningSession::total_cycles_so_far`]). Deterministic:
    /// safe inside bit-equality gates. Reaching it degrades the job.
    pub deadline_cycles: Option<u64>,
    /// Per-job search rule; `None` is [`PolicyKind::PaperWalk`], the
    /// paper's exact Figure 9 walk. The rule only changes *which*
    /// candidate the session measures next — the deadline, quarantine,
    /// fallback, and scheduling apply identically under either rule
    /// ([`Policy`](crate::policy::Policy)).
    pub search: Option<PolicyKind>,
}

/// The definite outcome of one submitted [`KernelJob`]. Every job gets
/// exactly one of these — the service's core invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobDisposition {
    /// The session settled normally (a finalized walk, or a healthy
    /// session that simply ran out of iterations mid-walk).
    Finalized,
    /// The session died: every candidate quarantined, a fatal launch or
    /// compile error, or a worker panic.
    Quarantined,
    /// The [`JobPolicy::deadline_cycles`] deadline was reached; the job
    /// reports its fail-safe selection.
    Degraded,
}

impl JobDisposition {
    /// Stable lowercase name (reports, bench artifacts).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobDisposition::Finalized => "finalized",
            JobDisposition::Quarantined => "quarantined",
            JobDisposition::Degraded => "degraded",
        }
    }
}

/// Service-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Threads a batch runs its jobs on; `0` means one per host core. Results on a deterministic backend
    /// are bit-identical at any worker count.
    pub workers: usize,
    /// A further cap on the jobs running at once; `0` means no cap. `1`
    /// is the strictly sequential baseline: one job runs start to
    /// finish before the next starts. Results on a deterministic
    /// backend are bit-identical at any limit.
    pub in_flight_limit: usize,
    /// Slowdown threshold for every session (the paper's 2%).
    pub threshold: f64,
    /// The resilience policy every session runs under
    /// (retry/quarantine/fallback); `None` runs the paper's exact walk,
    /// [`ResiliencePolicy::PAPER`].
    pub policy: Option<ResiliencePolicy>,
    /// Service-boundary chaos plan: per-job launch-fault injection,
    /// injected worker panics, and injected deadline pressure, drawn
    /// deterministically per submission index. Inert when `None`.
    pub chaos: Option<ServiceFaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            in_flight_limit: 0,
            threshold: 0.02,
            policy: Some(ResiliencePolicy::default()),
            chaos: None,
        }
    }
}

/// A window of jobs hit by elevated fault rates — modeling a *fault
/// storm* (a flaky driver episode, thermal throttling, a bad rack
/// neighbour) rather than uniformly sprinkled failures. Jobs whose
/// submission index falls in `[start_job, start_job + len)` have their
/// launch-fault rates multiplied by `multiplier` (clamped to
/// probability 1) and their panic/deadline pressure doubled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultStorm {
    /// First job index inside the storm window.
    pub start_job: usize,
    /// Number of consecutive jobs in the window.
    pub len: usize,
    /// Rate multiplier applied to the per-launch fault plan.
    pub multiplier: f64,
}

impl FaultStorm {
    /// Whether `job_index` falls inside the storm window.
    #[must_use]
    pub fn covers(&self, job_index: usize) -> bool {
        job_index >= self.start_job && job_index - self.start_job < self.len
    }
}

/// Service-boundary chaos scenario: a per-launch [`FaultPlan`] template
/// plus job-granular failure modes the launch path cannot express —
/// worker panics mid-session and injected deadline pressure — and an
/// optional [`FaultStorm`] window. Every per-job decision is a pure
/// function of `(seed, job index)`, drawn from the same
/// [`splitmix64`] stream as the launch-level injector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceFaultPlan {
    /// Seed for the per-job fault streams.
    pub seed: u64,
    /// Template for each job's launch-level faults; the per-job plan
    /// gets its own derived seed (and storm-scaled rates).
    pub launch: FaultPlan,
    /// Probability a job's session panics mid-walk (after a
    /// deterministic number of launches).
    pub panic_rate: f64,
    /// Probability a job is put under deadline pressure: its sim-cycle
    /// deadline is overridden with [`ServiceFaultPlan::deadline_cycles`].
    pub deadline_rate: f64,
    /// The injected tight deadline (simulated cycles).
    pub deadline_cycles: u64,
    /// Optional elevated-rate window over the job sequence.
    pub storm: Option<FaultStorm>,
}

impl ServiceFaultPlan {
    /// A plan that injects nothing at the service boundary.
    #[must_use]
    pub fn none(seed: u64) -> Self {
        ServiceFaultPlan {
            seed,
            launch: FaultPlan::none(seed),
            panic_rate: 0.0,
            deadline_rate: 0.0,
            deadline_cycles: 0,
            storm: None,
        }
    }

    /// The service chaos scenario: launch faults per
    /// [`FaultPlan::chaos`] at `rate`, worker panics at `panic_rate`,
    /// and 10% deadline pressure with a 50k-cycle injected deadline.
    #[must_use]
    pub fn chaos(seed: u64, rate: f64, panic_rate: f64) -> Self {
        ServiceFaultPlan {
            seed,
            launch: FaultPlan::chaos(seed, rate, 0.05),
            panic_rate,
            deadline_rate: 0.1,
            deadline_cycles: 50_000,
            storm: None,
        }
    }

    /// Fault decisions for the job at `job_index`. Pure in
    /// `(self.seed, job_index)`; independent of scheduling, worker
    /// count, and every other job.
    #[must_use]
    pub fn job_faults(&self, job_index: usize) -> JobFaults {
        let mut s = self.seed ^ (job_index as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        let _ = splitmix64(&mut s); // burn one to mix the xor in
        let stormy = self.storm.is_some_and(|w| w.covers(job_index));
        let scale = if stormy { self.storm.map_or(1.0, |w| w.multiplier.max(0.0)) } else { 1.0 };
        let pressure = if stormy { 2.0 } else { 1.0 };
        let rate = |r: f64| (r * scale).clamp(0.0, 1.0);
        // Per-job launch plan: derived seed, storm-scaled rates.
        let plan = FaultPlan {
            seed: splitmix64(&mut s),
            transient_rate: rate(self.launch.transient_rate),
            resource_rate: rate(self.launch.resource_rate),
            jitter_frac: self.launch.jitter_frac,
            outlier_rate: rate(self.launch.outlier_rate),
            hang_rate: rate(self.launch.hang_rate),
        };
        let panics = unit(&mut s) < (self.panic_rate * pressure).clamp(0.0, 1.0);
        // Panic after 1..=8 launches — deep enough to catch sessions
        // mid-walk, deterministic per job.
        let panic_after = (splitmix64(&mut s) % 8 + 1) as u32;
        let deadline = unit(&mut s) < (self.deadline_rate * pressure).clamp(0.0, 1.0);
        JobFaults {
            plan: (!plan.is_quiet()).then_some(plan),
            panic_after_launches: panics.then_some(panic_after),
            deadline_cycles: (deadline && self.deadline_cycles > 0).then_some(self.deadline_cycles),
        }
    }
}

/// The per-job slice of a [`ServiceFaultPlan`] draw: what the service
/// injects into one job's session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFaults {
    /// Launch-level fault plan, drawn per launch through a per-job
    /// [`FaultInjector`] (`None` = clean).
    pub plan: Option<FaultPlan>,
    /// Panic the session after this many launches.
    pub panic_after_launches: Option<u32>,
    /// Override the job's sim-cycle deadline with this tight budget.
    pub deadline_cycles: Option<u64>,
}

impl JobFaults {
    /// No service-level faults.
    pub const NONE: JobFaults =
        JobFaults { plan: None, panic_after_launches: None, deadline_cycles: None };
}

/// One kernel the service should tune: the module plus everything
/// needed to launch it repeatedly.
#[derive(Debug, Clone)]
pub struct KernelJob {
    /// Kernel name (error context, telemetry, reports).
    pub name: String,
    /// The kernel IR to compile into candidate versions.
    pub module: Module,
    /// Launch geometry for every invocation.
    pub launch: Launch,
    /// Kernel parameters for every invocation.
    pub params: Vec<u32>,
    /// Initial global-memory image; owned per job (iterated launches
    /// mutate it, and isolation requires no sharing).
    pub global: Vec<u8>,
    /// Application iterations to drive.
    pub iterations: u32,
    /// Compile-time tuning configuration (block size, version budget).
    pub tuning: TuningConfig,
    /// Deadline and search policy for this job.
    pub policy: JobPolicy,
}

/// Where one job's wall time went. Both fields are wall-clock and
/// excluded from every determinism gate; the job's simulated cycles are
/// its outcome's ([`SessionOutcome::iterations`],
/// [`SessionOutcome::total_cycles`]) and its journal's `Retry` records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMetrics {
    /// Wall-clock microseconds spent in `compile_probe` for this job
    /// (candidate generation + allocation; cache hits make it cheap).
    pub compile_wall_us: u64,
    /// Wall-clock microseconds this job's launches spent in
    /// [`Backend::launch`], summed across launches.
    pub execute_us: u64,
}

/// What happened to one [`KernelJob`].
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// The job's kernel name.
    pub name: String,
    /// Telemetry lane the session's events carry (`job index + 1`;
    /// lane 0 stays the unscoped default).
    pub lane: u32,
    /// The session outcome, or the error that stopped it. Errors are
    /// per-kernel: one dead kernel never aborts the batch.
    pub outcome: Result<SessionOutcome, OrionError>,
    /// The job's definite disposition (see [`JobDisposition`]). Always
    /// consistent with `outcome`: `Quarantined` carries an error (or an
    /// `Ok` outcome whose session state is
    /// [`SessionState::Quarantined`]), `Degraded` carries an `Ok`
    /// outcome whose session state is [`SessionState::Degraded`].
    pub disposition: JobDisposition,
    /// Wall time this job spent compiling and launching.
    pub metrics: KernelMetrics,
    /// The session's journal ([`TuningSession::journal`]): the facts
    /// its outcome does not already hold, oldest first. Deterministic,
    /// like the outcome; empty when no session started.
    pub journal: Vec<JournalEvent>,
}

impl KernelReport {
    /// The report of a job that failed with `err` before its session
    /// could report: quarantined, with only its compile time measured.
    fn failed(name: &str, lane: u32, err: OrionError, compile_wall_us: u64) -> Self {
        KernelReport {
            name: name.to_string(),
            lane,
            outcome: Err(err),
            disposition: JobDisposition::Quarantined,
            metrics: KernelMetrics { compile_wall_us, ..KernelMetrics::default() },
            journal: Vec::new(),
        }
    }
}

/// A completed service batch. Its outcomes, decision logs, journals,
/// wall times and compile-cache counters are values the batch's own
/// work produced, so batches that run at once in one process never see
/// each other's records.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-kernel reports, in submission order.
    pub kernels: Vec<KernelReport>,
    /// This batch's own compile-cache activity: the delta of the
    /// calling thread's cache counters across the batch, whose compile
    /// phase makes every lookup of the batch on that thread. Lookups
    /// other threads make meanwhile are not counted. `entries` is the
    /// process-wide resident count after the batch.
    pub cache: cache::CompileCacheStats,
    /// Threads the batch ran its jobs on: [`ServiceConfig::workers`]
    /// capped by the in-flight limit and the number of jobs to run.
    pub workers: usize,
    /// Job indices in the order the job threads took them — a pure
    /// function of the job set (estimated cost, longest first),
    /// independent of thread interleaving. Compile-failed jobs don't
    /// appear.
    pub dispatch_order: Vec<usize>,
}

impl ServiceReport {
    /// All decision logs flattened deterministically: kernels in
    /// submission order, each kernel's decisions in session order.
    #[must_use]
    pub fn merged_decisions(&self) -> Vec<(&str, &TuneDecision)> {
        self.kernels
            .iter()
            .filter_map(|k| k.outcome.as_ref().ok().map(|o| (k.name.as_str(), o)))
            .flat_map(|(name, o)| o.decisions.iter().map(move |d| (name, d)))
            .collect()
    }

    /// All journals flattened deterministically as `(job, seq, event)`:
    /// jobs in submission order, each job's records in session order.
    #[must_use]
    pub fn journal(&self) -> Vec<(usize, usize, JournalEvent)> {
        self.kernels
            .iter()
            .enumerate()
            .flat_map(|(job, k)| k.journal.iter().enumerate().map(move |(seq, &e)| (job, seq, e)))
            .collect()
    }

    /// Whether every kernel tuned successfully.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.kernels.iter().all(|k| k.outcome.is_ok())
    }

    /// Count kernels whose disposition matches `pred` (e.g.
    /// `|d| d == JobDisposition::Degraded`).
    #[must_use]
    pub fn count_dispositions(&self, pred: impl Fn(JobDisposition) -> bool) -> usize {
        self.kernels.iter().filter(|k| pred(k.disposition)).count()
    }
}

/// Estimated whole-session cost for longest-job-first dispatch, from
/// the probe-time occupancy curve: grid lanes × the deepest (non
/// fail-safe) candidate's execution rounds × application iterations.
/// A pure function of the compiled kernel and the job — identical on
/// every host, so LJF order is deterministic.
fn estimate_cost(ck: &CompiledKernel, job: &KernelJob) -> u64 {
    let lanes = u64::from(job.launch.grid) * u64::from(job.launch.block);
    let rounds = ck
        .versions
        .iter()
        .filter(|v| !v.fail_safe)
        .map(|v| lanes.div_ceil(u64::from(v.achieved_warps.max(1)) * 32))
        .max()
        .unwrap_or(1)
        .max(1);
    lanes * rounds * u64::from(job.iterations.max(1))
}

/// One job's tuning state machine — the one per-job driver
/// behind both [`OrionService::run`] and [`OrionService::tune_one`]. It
/// owns session construction, the deadline gate, chaos injection, the
/// disposition and the metrics, and [`ActiveJob::drive`] runs it to its
/// report. The session borrows its compiled kernel (`'k`).
struct ActiveJob<'k> {
    name: String,
    lane: u32,
    ck: &'k CompiledKernel,
    session: TuningSession<'k>,
    /// Effective cycle deadline (policy ∧ injected pressure).
    deadline: Option<u64>,
    injector: Option<FaultInjector>,
    panic_after: Option<u32>,
    launches_done: u32,
    /// Wall time so far: the compile, then each launch as it returns.
    metrics: KernelMetrics,
}

/// What one pump of a job produced: a launch to run (a version index
/// and its fault draw), or a definite report.
enum Pump {
    Launch(usize, LaunchFaults),
    Finished(Box<KernelReport>),
}

impl<'k> ActiveJob<'k> {
    /// Open `job`'s session over its compiled candidates `ck` under the
    /// service configuration and the chaos drawn for it.
    fn start(
        cfg: &ServiceConfig,
        job: &KernelJob,
        lane: u32,
        ck: &'k CompiledKernel,
        faults: &JobFaults,
        compile_wall_us: u64,
    ) -> Self {
        let resilience = cfg.policy.unwrap_or(ResiliencePolicy::PAPER);
        let search = job.policy.search.unwrap_or_default();
        let session = TuningSession::with_policy(
            job.name.as_str(),
            ck,
            job.iterations,
            cfg.threshold,
            resilience,
            search,
        );
        // Injected deadline pressure composes with the job's own
        // deadline: the tighter one wins.
        let deadline = match (job.policy.deadline_cycles, faults.deadline_cycles) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        ActiveJob {
            name: job.name.clone(),
            lane,
            ck,
            session,
            deadline,
            injector: faults.plan.map(FaultInjector::new),
            panic_after: faults.panic_after_launches,
            launches_done: 0,
            metrics: KernelMetrics { compile_wall_us, execute_us: 0 },
        }
    }

    /// Resolve this job to its definite report.
    fn seal(
        &mut self,
        outcome: Result<SessionOutcome, OrionError>,
        disposition: JobDisposition,
    ) -> Pump {
        Pump::Finished(Box::new(KernelReport {
            name: self.name.clone(),
            lane: self.lane,
            outcome,
            disposition,
            metrics: self.metrics,
            journal: self.session.journal().to_vec(),
        }))
    }

    /// The definite report after a step of this job unwound:
    /// quarantined, keeping what the session journaled and the launch
    /// time it spent before the panic.
    fn panic_report(&self, payload: &(dyn std::any::Any + Send)) -> KernelReport {
        let detail = panic_detail(payload);
        let err = OrionError::SessionPanicked { detail }.with_context(self.name.clone(), None);
        KernelReport {
            metrics: self.metrics,
            journal: self.session.journal().to_vec(),
            ..KernelReport::failed(&self.name, self.lane, err, self.metrics.compile_wall_us)
        }
    }

    /// Finish a session that stopped cleanly (walk done, or a deadline
    /// degrade) and derive its disposition.
    fn seal_settled(&mut self) -> Pump {
        let outcome = self.session.clone().finish();
        let disposition = match outcome.state {
            // Only the deadline gate in `pump` degrades a session.
            SessionState::Degraded => JobDisposition::Degraded,
            // A degrade with every version quarantined (or a session
            // that died on its own) is a quarantine.
            SessionState::Quarantined => JobDisposition::Quarantined,
            _ => JobDisposition::Finalized,
        };
        self.seal(Ok(outcome), disposition)
    }

    /// Whether the session has reached the effective cycle deadline.
    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| self.session.total_cycles_so_far() >= d)
    }

    /// Advance the session until it asks for a launch or resolves to a
    /// definite report. May unwind (injected chaos, a hostile session).
    fn pump(&mut self) -> Pump {
        // The deadline gate comes first: a reached deadline resolves
        // the session to Degraded *before* the next launch is issued,
        // so it can never be overshot by more than one launch chain.
        if self.past_deadline() {
            self.session.degrade();
            return self.seal_settled();
        }
        let step = match self.session.next_step() {
            Ok(step) => step,
            Err(e) => return self.seal(Err(e), JobDisposition::Quarantined),
        };
        let SessionStep::Launch(v) = step else {
            return self.seal_settled();
        };
        // Service-boundary chaos: the draw is deterministic per
        // (job, launch index) — identical at any worker count or
        // in-flight limit — and the launch itself applies it.
        let faults = self.injector.as_ref().map_or(LaunchFaults::NONE, FaultInjector::draw);
        Pump::Launch(v, faults)
    }

    /// Count the launch the last pump asked for, fold its result into
    /// the session, then pump onward. May unwind (injected chaos).
    fn resume(&mut self, result: Result<u64, OrionError>) -> Pump {
        self.launches_done += 1;
        if let Err(e) = self.session.on_launch_result(result) {
            return self.seal(Err(e), JobDisposition::Quarantined);
        }
        // Injected worker-panic chaos: unwinds once the launch count
        // reaches the plan's threshold. The message is deterministic,
        // so panic reports stay bit-identical across worker counts.
        if let Some(after) = self.panic_after {
            if self.launches_done >= after {
                panic!("chaos: injected worker panic after {} launches", self.launches_done);
            }
        }
        self.pump()
    }

    /// Run the job to its definite report on this thread: each step
    /// pumps the session, launches on `backend` over `parallelism`
    /// simulator workers, and resumes the session with the result. A launch that unwinds returns
    /// [`OrionError::SessionPanicked`] to the session; a step that
    /// unwinds resolves the job to its [`ActiveJob::panic_report`].
    fn drive<B: Backend + ?Sized>(
        mut self,
        backend: &B,
        job: &mut KernelJob,
        parallelism: u32,
    ) -> KernelReport {
        let mut step = catch_unwind(AssertUnwindSafe(|| self.pump()));
        loop {
            let (v, faults) = match step {
                Ok(Pump::Launch(v, faults)) => (v, faults),
                Ok(Pump::Finished(report)) => return *report,
                Err(payload) => return self.panic_report(payload.as_ref()),
            };
            let opts = LaunchOptions { parallelism, faults, ..LaunchOptions::default() };
            let started = Instant::now();
            let result = guarded_launch(
                backend,
                &self.ck.versions[v],
                job.launch,
                &job.params,
                &mut job.global,
                opts,
            );
            self.metrics.execute_us += started.elapsed().as_micros() as u64;
            step = catch_unwind(AssertUnwindSafe(|| self.resume(result)));
        }
    }
}

/// The host's cores.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// [`LaunchOptions::parallelism`] for the launches of a batch run on
/// `threads` job threads: the host's cores shared evenly among them, at
/// least one each.
fn fan_out(threads: usize) -> u32 {
    u32::try_from((host_cores() / threads.max(1)).max(1)).unwrap_or(u32::MAX)
}

/// The multi-kernel tuning service. See the module docs.
#[derive(Debug)]
pub struct OrionService<B: Backend> {
    backend: B,
    cfg: ServiceConfig,
}

impl<B: Backend> OrionService<B> {
    /// A service over `backend` with the given configuration.
    pub fn new(backend: B, cfg: ServiceConfig) -> Self {
        OrionService { backend, cfg }
    }

    /// The backend sessions execute on.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Tune one job to completion on the current thread: the drive loop
    /// of [`OrionService::run`] as a batch of one, without chaos. Each
    /// launch fans out over every host core and mutates `job.global` in
    /// place. The job's [`JobPolicy`] deadline is enforced, and a panic
    /// in a launch or a session step comes back as
    /// [`OrionError::SessionPanicked`].
    ///
    /// # Errors
    /// Compile failures, fatal launch errors, panics, or
    /// [`OrionError::AllCandidatesFailed`], wrapped with the kernel
    /// name where the session applies context.
    pub fn tune_one(&self, job: &mut KernelJob) -> Result<SessionOutcome, OrionError> {
        let ck = self.backend.compile_probe(&job.module, &job.tuning)?;
        let a = ActiveJob::start(&self.cfg, job, 0, &ck, &JobFaults::NONE, 0);
        a.drive(&self.backend, job, fan_out(1)).outcome
    }

    /// Tune every job and report in submission order. Every submitted
    /// job comes back with a definite [`JobDisposition`] — finalized,
    /// quarantined or degraded — no matter what the backend or a worker
    /// thread does.
    pub fn run(&self, jobs: Vec<KernelJob>) -> ServiceReport {
        let submitted = jobs.len();
        let cache_before = cache::thread_stats();
        // Names outlive the jobs: compile-failure and backstop reports
        // need them after a job has moved to its thread.
        let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
        let lane_of = |i: usize| u32::try_from(i).unwrap_or(u32::MAX).saturating_add(1);
        let mut reports: Vec<Option<KernelReport>> = (0..submitted).map(|_| None).collect();
        // Compile phase: sequential, in submission order, on the
        // calling thread — cache hit/miss accounting stays a pure
        // function of the job set, and a compile panic (or error)
        // quarantines only its own job. The candidate table is frozen
        // before any job runs; sessions borrow from it.
        let mut cks: Vec<Option<CompiledKernel>> = (0..submitted).map(|_| None).collect();
        let mut compile_us: Vec<u64> = vec![0; submitted];
        for (i, job) in jobs.iter().enumerate() {
            orion_telemetry::set_scope(lane_of(i));
            let compile_start = Instant::now();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                self.backend.compile_probe(&job.module, &job.tuning)
            }));
            compile_us[i] = compile_start.elapsed().as_micros() as u64;
            let err = match caught {
                Ok(Ok(ck)) => {
                    cks[i] = Some(ck);
                    continue;
                }
                Ok(Err(e)) => e,
                Err(payload) => {
                    let detail = panic_detail(payload.as_ref());
                    OrionError::SessionPanicked { detail }.with_context(names[i].clone(), None)
                }
            };
            reports[i] = Some(KernelReport::failed(&names[i], lane_of(i), err, compile_us[i]));
        }
        // Dispatch order: a pure function of the job set, longest job
        // first; ties go to the earlier submission.
        let mut order: Vec<usize> = (0..submitted).filter(|&i| cks[i].is_some()).collect();
        order.sort_by_key(|&i| {
            let ck = cks[i].as_ref().expect("order is filtered to compiled jobs");
            (Reverse(estimate_cost(ck, &jobs[i])), i)
        });
        let mut jobs: Vec<Option<KernelJob>> = jobs.into_iter().map(Some).collect();
        let queue: Mutex<VecDeque<(usize, KernelJob)>> = Mutex::new(
            order.iter().map(|&i| (i, jobs[i].take().expect("each job queues once"))).collect(),
        );
        let workers = match self.cfg.workers {
            0 => host_cores(),
            w => w,
        };
        let limit = match self.cfg.in_flight_limit {
            0 => usize::MAX,
            k => k,
        };
        let threads = workers.min(limit).min(order.len()).max(1);
        let parallelism = fan_out(threads);
        orion_telemetry::set_scope(0);
        // One job thread: take the next job off the queue, drive it to
        // its report, repeat until the queue is empty.
        let work = || {
            let mut done = Vec::new();
            loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).pop_front();
                let Some((i, mut job)) = next else { break };
                let ck = cks[i].as_ref().expect("queued jobs are compiled");
                let faults = self.cfg.chaos.map_or(JobFaults::NONE, |plan| plan.job_faults(i));
                orion_telemetry::set_scope(lane_of(i));
                let a = ActiveJob::start(&self.cfg, &job, lane_of(i), ck, &faults, compile_us[i]);
                done.push((i, a.drive(&self.backend, &mut job, parallelism)));
            }
            done
        };
        // The calling thread only waits: jobs simulated on it left its
        // heap slower for what it allocates next (perfbench's set-up
        // after each `service-batch` batch took 24% longer on a 2-core
        // host).
        let finished: Vec<(usize, KernelReport)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
            // A thread that died keeps its jobs out of `finished`; the
            // backstop below reports them.
            handles.into_iter().flat_map(|h| h.join().unwrap_or_default()).collect()
        });
        for (i, report) in finished {
            reports[i] = Some(report);
        }
        // No job may be lost: every slot resolves to a definite
        // (quarantined) report, even one whose thread died.
        let kernels: Vec<KernelReport> = reports
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    let err = OrionError::SessionPanicked {
                        detail: "the job's thread produced no report".into(),
                    };
                    KernelReport::failed(&names[i], lane_of(i), err, compile_us[i])
                })
            })
            .collect();
        ServiceReport {
            kernels,
            cache: cache::thread_stats().delta_since(&cache_before),
            workers: threads,
            dispatch_order: order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendCaps, ReplayBackend, SimBackend};
    use crate::compiler::{CompiledKernel, KernelVersion};
    use crate::session::SessionState;
    use orion_gpusim::device::DeviceSpec;
    use orion_gpusim::exec::SimError;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::inst::Operand;
    use orion_kir::types::{MemSpace, SpecialReg, Width};

    fn toy_module(mul: i64) -> Module {
        let mut b = FunctionBuilder::kernel("k");
        let tid = b.mov(Operand::Special(SpecialReg::TidX));
        let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
        let nt = b.mov(Operand::Special(SpecialReg::NTidX));
        let gid = b.imad(cta, nt, tid);
        let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
        let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
        let y = b.imul(x, Operand::Imm(mul));
        b.st(MemSpace::Global, Width::W32, addr, y, 0);
        Module::new(b.finish())
    }

    fn job(name: &str, mul: i64, iterations: u32) -> KernelJob {
        KernelJob {
            name: name.into(),
            module: toy_module(mul),
            launch: Launch { grid: 4, block: 32 },
            params: vec![0],
            global: vec![0u8; 4 * 128],
            iterations,
            tuning: TuningConfig::new(32),
            policy: JobPolicy::default(),
        }
    }

    #[test]
    fn reports_come_back_in_submission_order() {
        let svc = OrionService::new(
            SimBackend::new(DeviceSpec::gtx680()),
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
        let names = ["a", "b", "c", "d", "e"];
        let report = svc.run(names.iter().map(|n| job(n, 3, 4)).collect());
        assert!(report.all_ok());
        let got: Vec<&str> = report.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(got, names);
        // Lanes are 1-based job indices.
        assert_eq!(report.kernels[0].lane, 1);
        assert_eq!(report.kernels[4].lane, 5);
        // Healthy batch: every disposition is Finalized, and the report
        // records where it ran.
        assert_eq!(report.count_dispositions(|d| d == JobDisposition::Finalized), 5);
        assert_eq!(report.workers, 2);
    }

    #[test]
    fn a_dead_kernel_is_reported_not_propagated() {
        // Script every candidate version dead on a replay backend: the
        // session quarantines them all, and the service captures the
        // AllCandidatesFailed error in the kernel's own report instead
        // of aborting the batch.
        let be = ReplayBackend::new(DeviceSpec::gtx680(), 100);
        let probe = be.compile_probe(&toy_module(2), &TuningConfig::new(32)).unwrap();
        let be = probe.versions.iter().fold(be, |b, v| {
            b.script(v.label.clone(), [Err(SimError::ResourceExceeded { detail: "regs".into() })])
        });
        let svc = OrionService::new(be, ServiceConfig { workers: 2, ..Default::default() });
        let report = svc.run(vec![job("dead", 2, 8)]);
        assert!(!report.all_ok());
        let err = report.kernels[0].outcome.as_ref().unwrap_err();
        assert!(
            matches!(err.root_cause(), OrionError::AllCandidatesFailed { .. }),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("dead"));
        assert_eq!(report.kernels[0].disposition, JobDisposition::Quarantined);
    }

    #[test]
    fn quarantined_session_reports_coherent_state() {
        let be = ReplayBackend::new(DeviceSpec::gtx680(), 100);
        let probe = be.compile_probe(&toy_module(2), &TuningConfig::new(32)).unwrap();
        let be = probe
            .versions
            .iter()
            .fold(be, |b, v| b.script(v.label.clone(), [Err(SimError::Watchdog { budget: 7 })]));
        let svc = OrionService::new(be, ServiceConfig { workers: 1, ..Default::default() });
        let mut j = job("hung", 2, 10);
        let err = svc.tune_one(&mut j).unwrap_err();
        assert!(matches!(err.root_cause(), OrionError::AllCandidatesFailed { .. }));
    }

    #[test]
    fn mixed_batch_keeps_healthy_kernels_healthy() {
        // One job with zero iterations (trivially fine), several real
        // ones; the batch must report each on its own terms.
        let svc = OrionService::new(
            SimBackend::new(DeviceSpec::gtx680()),
            ServiceConfig { workers: 3, ..ServiceConfig::default() },
        );
        let mut jobs = vec![job("empty", 2, 0)];
        jobs.extend((1..=3).map(|i| job(&format!("k{i}"), i64::from(i), 5)));
        let report = svc.run(jobs);
        assert!(report.all_ok());
        let empty = report.kernels[0].outcome.as_ref().unwrap();
        assert!(empty.iterations.is_empty());
        for k in &report.kernels[1..] {
            let o = k.outcome.as_ref().unwrap();
            assert_eq!(o.iterations.len(), 5);
            // 5 iterations can't finish a 7-sample warmup pass; the
            // session ends mid-walk but never in a dead state.
            assert_ne!(o.state, SessionState::Quarantined);
        }
    }

    #[test]
    fn deadline_degrades_to_fail_safe_not_error() {
        // One simulated launch of this toy kernel costs well over 100
        // cycles, so a 100-cycle deadline fires after the baseline
        // measurement: the job must land Degraded with the original
        // version, not an error.
        let svc = OrionService::new(
            SimBackend::new(DeviceSpec::gtx680()),
            ServiceConfig { workers: 1, ..ServiceConfig::default() },
        );
        let mut j = job("late", 3, 10);
        j.policy.deadline_cycles = Some(100);
        let report = svc.run(vec![j]);
        let k = &report.kernels[0];
        assert_eq!(k.disposition, JobDisposition::Degraded);
        let o = k.outcome.as_ref().expect("degraded jobs report an outcome, not an error");
        assert_eq!(o.state, SessionState::Degraded);
        assert_eq!(o.selected, 0, "fail-safe selection is the original version");
        assert!(
            o.decisions.last().is_some_and(|d| d.reason == crate::runtime::TuneReason::Degraded),
            "{:?}",
            o.decisions
        );

        // Inverted: a 1-cycle deadline on every job of a 2-worker batch
        // degrades all of them, none lost or failed.
        let svc = OrionService::new(
            SimBackend::new(DeviceSpec::gtx680()),
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
        let jobs = (1..=6)
            .map(|i| {
                let mut j = job(&format!("hang{i}"), i64::from(i), 8);
                j.policy.deadline_cycles = Some(1);
                j
            })
            .collect();
        let report = svc.run(jobs);
        assert_eq!(report.kernels.len(), 6);
        for k in &report.kernels {
            assert_eq!(k.disposition, JobDisposition::Degraded);
            assert!(k.outcome.as_ref().is_ok_and(|o| o.state == SessionState::Degraded));
        }
    }

    #[test]
    fn in_flight_limit_does_not_change_outcomes() {
        // The strictly sequential baseline (one thread, or a limit of
        // one job at a time) and every concurrent shape run the same
        // loop and must be bit-identical, under the paper's exact walk
        // and under the resilient default.
        let mk = || (1..=6).map(|i| job(&format!("k{i}"), i64::from(i), 6)).collect::<Vec<_>>();
        for policy in [None, Some(ResiliencePolicy::default())] {
            let run = |workers, in_flight_limit| {
                let cfg = ServiceConfig { workers, in_flight_limit, policy, ..Default::default() };
                OrionService::new(SimBackend::new(DeviceSpec::gtx680()), cfg).run(mk())
            };
            let seq = run(1, 0);
            assert_eq!(seq.workers, 1);
            for (workers, limit, threads) in [(2, 0, 2), (4, 1, 1), (4, 0, 4)] {
                let par = run(workers, limit);
                let shape = format!("workers {workers}, limit {limit}, {policy:?}");
                assert_eq!(par.workers, threads, "{shape}");
                assert_eq!(seq.dispatch_order, par.dispatch_order, "{shape}");
                assert_eq!(seq.merged_decisions(), par.merged_decisions(), "{shape}");
                assert_eq!(seq.journal(), par.journal(), "{shape}");
                for (a, b) in seq.kernels.iter().zip(&par.kernels) {
                    assert_eq!(
                        a.outcome.as_ref().unwrap(),
                        b.outcome.as_ref().unwrap(),
                        "kernel {} diverged ({shape})",
                        a.name
                    );
                    assert_eq!(a.disposition, b.disposition, "{shape}");
                }
            }
        }
    }

    #[test]
    fn ljf_dispatch_order_is_deterministic_and_longest_first() {
        // Same job set, different worker counts and in-flight limits —
        // the dispatch order is a pure function of the job set.
        let mk =
            || vec![job("short", 2, 1), job("long", 3, 32), job("medium", 4, 8), job("tiny", 5, 1)];
        let a = OrionService::new(
            SimBackend::new(DeviceSpec::gtx680()),
            ServiceConfig { workers: 1, in_flight_limit: 1, ..ServiceConfig::default() },
        )
        .run(mk());
        let b = OrionService::new(
            SimBackend::new(DeviceSpec::gtx680()),
            ServiceConfig { workers: 4, in_flight_limit: 0, ..ServiceConfig::default() },
        )
        .run(mk());
        assert_eq!(a.dispatch_order, b.dispatch_order);
        // Larger estimated cost (more iterations here) dispatches first;
        // equal costs keep submission order.
        assert_eq!(a.dispatch_order, vec![1, 2, 0, 3]);
    }

    /// The two entry points run one drive loop and differ only in the
    /// thread and the fan-out a launch gets, so the same job yields the
    /// same outcome through either: both session modes, both search
    /// policies, and a deadline that degrades the job.
    #[test]
    fn tune_one_and_run_agree_on_every_outcome() {
        let bandit = PolicyKind::Bandit(crate::policy::BanditConfig::default());
        for resilience in [None, Some(ResiliencePolicy::default())] {
            for search in [PolicyKind::PaperWalk, bandit] {
                for deadline_cycles in [None, Some(100)] {
                    let cfg = ServiceConfig { policy: resilience, ..Default::default() };
                    let svc = OrionService::new(SimBackend::new(DeviceSpec::gtx680()), cfg);
                    let mut j = job("parity", 3, 12);
                    j.policy.search = Some(search);
                    j.policy.deadline_cycles = deadline_cycles;
                    let run = svc.run(vec![j.clone()]);
                    let inline = svc.tune_one(&mut j).expect("toy jobs tune");
                    let case = format!("{resilience:?} {search:?} deadline {deadline_cycles:?}");
                    assert_eq!(run.kernels[0].outcome.as_ref().unwrap(), &inline, "{case}");
                    let degraded = deadline_cycles.is_some();
                    assert_eq!(inline.state == SessionState::Degraded, degraded, "{case}");
                }
            }
        }
    }

    #[test]
    fn quiet_service_plan_draws_no_job_faults() {
        let plan = ServiceFaultPlan::none(11);
        for i in 0..64 {
            assert_eq!(plan.job_faults(i), JobFaults::NONE, "quiet plan, job {i}");
        }
    }

    #[test]
    fn job_faults_are_deterministic_and_per_job() {
        let plan = ServiceFaultPlan::chaos(42, 0.2, 0.3);
        let a: Vec<JobFaults> = (0..128).map(|i| plan.job_faults(i)).collect();
        let b: Vec<JobFaults> = (0..128).map(|i| plan.job_faults(i)).collect();
        assert_eq!(a, b, "draws must be pure in (seed, job index)");
        let other = ServiceFaultPlan::chaos(43, 0.2, 0.3);
        let c: Vec<JobFaults> = (0..128).map(|i| other.job_faults(i)).collect();
        assert_ne!(a, c, "different seeds must give different job streams");
        // Per-job launch plans carry distinct derived seeds.
        let seeds: std::collections::HashSet<u64> =
            a.iter().filter_map(|f| f.plan.map(|p| p.seed)).collect();
        assert!(seeds.len() > 100, "per-job plans must not share a seed");
        // Panic and deadline pressure land at roughly the configured rates.
        let panics = a.iter().filter(|f| f.panic_after_launches.is_some()).count();
        assert!((20..=60).contains(&panics), "panic draws at 30%: {panics}/128");
        assert!(a.iter().all(|f| f.panic_after_launches.is_none_or(|n| (1..=8).contains(&n))));
    }

    #[test]
    fn storm_window_elevates_rates() {
        let mut plan = ServiceFaultPlan::chaos(7, 0.05, 0.1);
        plan.storm = Some(FaultStorm { start_job: 10, len: 10, multiplier: 8.0 });
        assert!(plan.storm.unwrap().covers(10) && plan.storm.unwrap().covers(19));
        assert!(!plan.storm.unwrap().covers(9) && !plan.storm.unwrap().covers(20));
        let inside = plan.job_faults(12).plan.expect("stormy job has a launch plan");
        let outside = plan.job_faults(30).plan.expect("chaos plan is never quiet");
        assert!(inside.transient_rate > outside.transient_rate);
        assert!(inside.transient_rate <= 1.0, "storm rates clamp to probability 1");
    }

    /// Service chaos end to end on the simulator, swept over launch-fault
    /// rates 0, 10% and 25%: launch faults, worker panics and deadline
    /// pressure, at two scheduler shapes. Every job comes back with one
    /// definite disposition coherent with its outcome, in submission
    /// order, bit-identically at both shapes, journals included; each
    /// job's `Retry` records fold to its retry stats; the clean rate
    /// finalizes everything; the 25% point adds a fault storm.
    #[test]
    fn chaos_batch_is_accounted_and_deterministic() {
        const SEED: u64 = 0x0710_2024;
        const JOBS: usize = 9;
        let (mut panics, mut launch_faults, mut retries) = (0, 0, 0);
        for rate in [0.0, 0.10, 0.25] {
            let mut plan = if rate == 0.0 {
                ServiceFaultPlan::none(SEED)
            } else {
                ServiceFaultPlan::chaos(SEED ^ (rate * 100.0) as u64, rate, 0.25)
            };
            if rate >= 0.25 {
                plan.storm =
                    Some(FaultStorm { start_job: JOBS / 3, len: JOBS / 3, multiplier: 2.0 });
            }
            let run = |workers, in_flight_limit| {
                let cfg = ServiceConfig {
                    workers,
                    in_flight_limit,
                    chaos: Some(plan),
                    ..ServiceConfig::default()
                };
                let jobs = (0..JOBS).map(|i| job(&format!("c{i}"), i as i64 + 1, 12)).collect();
                OrionService::new(SimBackend::new(DeviceSpec::gtx680()), cfg).run(jobs)
            };
            let seq = run(1, 1);
            let conc = run(4, 0);
            for r in [&seq, &conc] {
                assert_eq!(r.kernels.len(), JOBS, "rate {rate}: jobs in == reports out");
                for (i, k) in r.kernels.iter().enumerate() {
                    assert_eq!(k.name, format!("c{i}"), "rate {rate}: submission order");
                    let definite = match k.disposition {
                        JobDisposition::Finalized => k.outcome.is_ok(),
                        JobDisposition::Degraded => {
                            k.outcome.as_ref().is_ok_and(|o| o.state == SessionState::Degraded)
                        }
                        JobDisposition::Quarantined => k
                            .outcome
                            .as_ref()
                            .map_or(true, |o| o.state == SessionState::Quarantined),
                    };
                    assert!(
                        definite,
                        "rate {rate}, {}: {:?} vs {:?}",
                        k.name, k.disposition, k.outcome
                    );
                    // Injected panics fire only after a launch, and the
                    // panicked job's report keeps that launch's time.
                    let panicked = k.outcome.as_ref().is_err_and(|e| {
                        matches!(e.root_cause(), OrionError::SessionPanicked { .. })
                    });
                    assert!(
                        !panicked || k.metrics.execute_us > 0,
                        "rate {rate}, {}: a panicked job lost its launch time",
                        k.name
                    );
                }
            }
            assert_eq!(seq.dispatch_order, conc.dispatch_order, "rate {rate}");
            for (a, b) in seq.kernels.iter().zip(&conc.kernels) {
                assert_eq!(a.disposition, b.disposition, "rate {rate}, {}", a.name);
                assert_eq!(a.journal, b.journal, "rate {rate}, {}", a.name);
                if let Ok(o) = &a.outcome {
                    let backoffs: Vec<u64> = a
                        .journal
                        .iter()
                        .filter_map(|e| match *e {
                            JournalEvent::Retry { backoff_cycles, .. } => Some(backoff_cycles),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(backoffs.len() as u64, o.stats.retries, "rate {rate}, {}", a.name);
                    retries += backoffs.len();
                    assert_eq!(
                        backoffs.iter().sum::<u64>(),
                        o.stats.backoff_cycles,
                        "rate {rate}, {}",
                        a.name
                    );
                }
                match (&a.outcome, &b.outcome) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y, "rate {rate}, {}", a.name),
                    (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string(), "{}", a.name),
                    _ => panic!("rate {rate}, {}: outcome kind diverged across shapes", a.name),
                }
            }
            if rate == 0.0 {
                assert_eq!(
                    conc.count_dispositions(|d| d == JobDisposition::Finalized),
                    JOBS,
                    "a clean batch finalizes every job"
                );
            }
            panics += conc
                .kernels
                .iter()
                .filter(|k| {
                    k.outcome.as_ref().is_err_and(|e| {
                        matches!(e.root_cause(), OrionError::SessionPanicked { .. })
                    })
                })
                .count();
            launch_faults += conc
                .kernels
                .iter()
                .filter_map(|k| k.outcome.as_ref().ok())
                .map(|o| o.stats.retries + o.stats.quarantined)
                .sum::<u64>();
        }
        // A chaos sweep that never injects anything checks nothing.
        assert!(panics > 0, "the sweep caught no worker panic");
        assert!(launch_faults > 0, "the sweep caused no retry or quarantine");
        assert!(retries > 0, "the sweep journaled no retry");
    }

    /// A backend whose launches always panic — the hostile case panic
    /// isolation exists for.
    struct PanickingBackend {
        inner: SimBackend,
    }

    impl Backend for PanickingBackend {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn device_spec(&self) -> &DeviceSpec {
            self.inner.device_spec()
        }
        fn caps(&self) -> BackendCaps {
            self.inner.caps()
        }
        fn compile_probe(
            &self,
            module: &Module,
            cfg: &TuningConfig,
        ) -> Result<CompiledKernel, OrionError> {
            self.inner.compile_probe(module, cfg)
        }
        fn launch(
            &self,
            _version: &KernelVersion,
            _launch: Launch,
            _params: &[u32],
            _global: &mut [u8],
            _opts: LaunchOptions,
        ) -> Result<u64, OrionError> {
            panic!("backend exploded mid-launch");
        }
    }

    #[test]
    fn worker_panic_is_caught_and_reported_per_kernel() {
        // Quiet hook: the induced panics are the test subject, not noise.
        let prior_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let svc = OrionService::new(
            PanickingBackend { inner: SimBackend::new(DeviceSpec::gtx680()) },
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
        let report = svc.run(vec![job("boom1", 2, 4), job("boom2", 3, 4)]);
        let inline = svc.tune_one(&mut job("boom3", 4, 4));
        std::panic::set_hook(prior_hook);
        assert_eq!(report.kernels.len(), 2, "no job may be lost to a panic");
        let exploded = |name: &str, err: &OrionError| {
            assert!(
                matches!(err.root_cause(), OrionError::SessionPanicked { detail }
                    if detail.contains("exploded")),
                "unexpected error: {err}"
            );
            assert!(err.to_string().contains(name), "context names the kernel: {err}");
        };
        for k in &report.kernels {
            assert_eq!(k.disposition, JobDisposition::Quarantined);
            exploded(&k.name, k.outcome.as_ref().unwrap_err());
        }
        exploded("boom3", &inline.unwrap_err());
    }
}
