//! Pluggable search policies over a compiled kernel's candidates.
//!
//! Every tuning run is one state machine
//! ([`TuningSession`](crate::session::TuningSession)); this module holds
//! its *decision core* behind the [`SearchPolicy`] trait, so the
//! Figure 9 walk is one strategy among several instead of the only
//! one. The session keeps everything operational —
//! retries, robust measurement, strikes, deadlines, degraded fallback —
//! and delegates only the questions "which candidate next?", "what did
//! this measurement mean?", and "are we done?" to the policy.
//!
//! Two policies ship:
//!
//! * [`PaperWalkPolicy`] — the paper's Figure 9 walk, with its rules
//!   and state held in the policy itself. It is the default everywhere
//!   and is pinned by the golden walk fixtures of `orion-bench`.
//! * [`BanditPolicy`] — a seeded, deterministic UCB search intended for
//!   wider candidate sets such as the [`CandidateSpace`] lattice: arms
//!   are pre-pruned by a cheap analytic performance bound derived from
//!   the compile-probe occupancy curves ([`analytic_bound`]), so no
//!   simulated launch is spent on dominated arms; the survivors are
//!   measured once each in ascending-bound order and then refined until
//!   no arm's optimistic estimate can beat the incumbent.
//!
//! Both are built over a [`CompiledKernel`], and a candidate id is
//! always an index into its `versions`: the lattice is a
//! [`CompiledKernel`] too ([`CandidateSpace::kernel`]).
//!
//! # Determinism rules
//!
//! Policies must be deterministic functions of (construction inputs,
//! observation sequence): the service's bit-equality gates run the same
//! batch at several worker counts and compare outcomes bitwise. The
//! bandit's only randomness is a seeded xorshift used to break exact
//! mean ties, so the same seed always yields the same arm sequence.
//!
//! [`CandidateSpace`]: crate::version::CandidateSpace
//! [`CandidateSpace::kernel`]: crate::version::CandidateSpace::kernel

use crate::compiler::{CompiledKernel, Direction, KernelVersion};
use crate::runtime::{TuneDecision, TuneReason};
use orion_telemetry::journal::{self, JournalEvent};
use orion_telemetry::registry;
use serde::{Deserialize, Serialize};

/// One successful measurement reported to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Raw cycles of the invocation.
    pub cycles: u64,
    /// §4.2 work normalization factor (e.g. a grid slice's block
    /// count); `None` compares raw cycles. Policies read 0 as 1.
    pub work: Option<u64>,
    /// Relative noise margin from robust measurement (resilient mode);
    /// `None` is a noise-free single sample.
    pub noise_margin: Option<f64>,
}

impl Measurement {
    /// A plain noise-free measurement.
    #[must_use]
    pub fn raw(cycles: u64) -> Self {
        Measurement { cycles, work: None, noise_margin: None }
    }

    /// A measurement normalized by the invocation's amount of work.
    #[must_use]
    pub fn with_work(cycles: u64, work: u64) -> Self {
        Measurement { cycles, work: Some(work), noise_margin: None }
    }

    /// A robust mean with its observed relative noise margin.
    #[must_use]
    pub fn noisy(cycles: u64, noise_margin: f64) -> Self {
        Measurement { cycles, work: None, noise_margin: Some(noise_margin) }
    }
}

/// Where a policy stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyVerdict {
    /// Still measuring candidates.
    Exploring,
    /// Committed to candidate `.0`; further proposals are steady-state.
    Finalized(usize),
    /// Every candidate (fallbacks included) is gone. Terminal.
    Dead,
}

/// The decision core of a tuning session, pulled out of
/// [`TuningSession`](crate::session::TuningSession). Mirrors the
/// session's own pull shape: [`SearchPolicy::propose`] names the next
/// candidate, the caller measures it however it likes, and
/// [`SearchPolicy::observe`] feeds the result back.
///
/// Candidate ids are always indices into the [`CompiledKernel::versions`]
/// the policy was built over: the compiler's ≤ 5 versions, or the
/// search lattice's
/// ([`CandidateSpace::kernel`](crate::version::CandidateSpace::kernel)).
pub trait SearchPolicy: std::fmt::Debug + Send {
    /// The candidate to measure (or run, once finalized) next. `None`
    /// once every candidate has been quarantined — the policy is dead.
    fn propose(&self) -> Option<usize>;

    /// Feed back a successful measurement of `candidate` (always the
    /// most recent [`SearchPolicy::propose`] answer).
    fn observe(&mut self, candidate: usize, m: Measurement);

    /// Where the policy stands.
    fn verdict(&self) -> PolicyVerdict;

    /// Total selection for reports: the finalized candidate, else the
    /// best current guess. Must never panic, even with everything
    /// quarantined.
    fn select(&self) -> usize;

    /// The relative slowdown `cycles` would register against the
    /// policy's current comparison anchor, when that question is
    /// meaningful mid-walk (the resilient borderline probe). `None`
    /// when there is no anchor — the caller skips the borderline
    /// extension.
    fn probe_slowdown(&self, cycles: u64) -> Option<f64>;

    /// Remove a candidate after launch failures; the policy continues
    /// over the survivors (falling back if the finalized candidate
    /// died).
    fn quarantine(&mut self, candidate: usize);

    /// Settle immediately on the fail-safe selection because a service
    /// budget expired. Returns the settled candidate, `None` when every
    /// candidate is quarantined.
    fn degrade_to_fallback(&mut self) -> Option<usize>;

    /// Whether `candidate` has been quarantined.
    fn is_quarantined(&self, candidate: usize) -> bool;

    /// How many candidates have been quarantined so far.
    fn quarantined_count(&self) -> usize;

    /// Exploration measurements consumed so far.
    fn trials(&self) -> usize;

    /// The decision log so far.
    fn decisions(&self) -> &[TuneDecision];

    /// Consume the policy, keeping its decision log.
    fn into_decisions(self: Box<Self>) -> Vec<TuneDecision>;

    /// Stable lowercase policy name (journal records, bench artifacts).
    fn name(&self) -> &'static str;

    /// Clone into a new box ([`TuningSession`] is `Clone`).
    ///
    /// [`TuningSession`]: crate::session::TuningSession
    fn clone_box(&self) -> Box<dyn SearchPolicy>;
}

impl Clone for Box<dyn SearchPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which [`SearchPolicy`] a session (or service job) runs.
///
/// `Copy + Eq` on purpose: it rides inside
/// [`JobPolicy`](crate::service::JobPolicy), which tests compare
/// wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's Figure 9 walk (the default).
    #[default]
    PaperWalk,
    /// Bound-pruned deterministic UCB.
    Bandit(BanditConfig),
}

impl PolicyKind {
    /// Stable lowercase name (reports, bench artifacts).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::PaperWalk => "paper_walk",
            PolicyKind::Bandit(_) => "bandit",
        }
    }

    /// Build the policy over a compiled kernel's candidates.
    #[must_use]
    pub fn build(self, ck: &CompiledKernel, threshold: f64) -> Box<dyn SearchPolicy> {
        match self {
            PolicyKind::PaperWalk => Box::new(PaperWalkPolicy::new(ck, threshold)),
            PolicyKind::Bandit(cfg) => Box::new(BanditPolicy::over_kernel(ck, cfg)),
        }
    }
}

/// The paper's Figure 9 walk (§3.4) as a [`SearchPolicy`]: the
/// feedback-driven version selector.
///
/// The first iteration runs the original version; each later one runs
/// the next candidate in the compiler's tuning order until performance
/// degrades — strictly worse when tuning upward, more than the
/// threshold over the best when tuning downward — and the surviving
/// version is finalized. Launch failures quarantine a candidate (the
/// walk continues over the survivors), and a dead finalized version
/// falls back to the fail-safe, then the original. The golden walk
/// fixtures of `orion-bench` pin its outcomes.
#[derive(Debug, Clone)]
pub struct PaperWalkPolicy {
    order: Vec<usize>,
    direction: Direction,
    threshold: f64,
    /// Position in `order` currently being evaluated.
    pos: usize,
    /// Measured (work-normalized) cycles per version (by version index).
    times: Vec<Option<u64>>,
    finalized: Option<usize>,
    trials: usize,
    decisions: Vec<TuneDecision>,
    /// Versions removed from consideration after launch failures.
    quarantined: Vec<bool>,
    /// The compiler's opposite-direction fail-safe version, if any.
    fail_safe: Option<usize>,
    /// The original (untuned) version index.
    original: usize,
}

impl PaperWalkPolicy {
    /// The walk over `ck`'s tuning order at the given slowdown
    /// threshold (the paper's 2%).
    #[must_use]
    pub fn new(ck: &CompiledKernel, threshold: f64) -> Self {
        PaperWalkPolicy {
            order: ck.tuning_order.clone(),
            direction: ck.direction,
            threshold,
            pos: 0,
            times: vec![None; ck.versions.len()],
            finalized: if ck.tuning_order.len() == 1 { Some(ck.tuning_order[0]) } else { None },
            trials: 0,
            decisions: Vec::new(),
            quarantined: vec![false; ck.versions.len()],
            fail_safe: ck.versions.iter().position(|v| v.fail_safe),
            original: ck.original,
        }
    }

    /// Report the measured cycles of the version [`SearchPolicy::select`]
    /// named — the paper's exact rule.
    pub(crate) fn record(&mut self, cycles: u64) {
        self.record_inner(cycles, 1, 0.0);
    }

    /// Report a noise-robust measurement (e.g. a mean-of-k) together
    /// with its observed relative noise margin. The degradation test's
    /// tolerance becomes `max(base, noise_margin)` for this sample —
    /// base 0 for the upward walk (whose stop rule is otherwise "any
    /// increase", a coin flip on a noisy plateau) and the slowdown
    /// threshold for the downward walk (already noise-sized, so the
    /// margin only takes over when the observed noise is larger).
    /// [`PaperWalkPolicy::record`] is the margin-zero special case.
    pub(crate) fn record_noisy(&mut self, cycles: u64, noise_margin: f64) {
        self.record_inner(cycles, 1, noise_margin.max(0.0));
    }

    /// The degradation test. `work` normalizes the measurement by the
    /// invocation's amount of work (e.g. the BFS frontier size): the
    /// paper observes that bfs "does different amounts of work in each
    /// iteration, making it difficult to compare consecutive
    /// invocations" and proposes exactly this multiplicative correction
    /// as future work (§4.2). `work` is positive.
    fn record_inner(&mut self, cycles: u64, work: u64, margin: f64) {
        // Normalize to cycles per 2^20 work items to keep integer math.
        let raw_cycles = cycles;
        let cycles = cycles.saturating_mul(1 << 20) / work;
        if self.finalized.is_some() {
            return;
        }
        // Clamped lookup: a caller that keeps recording after the walk
        // ran off the end (or after quarantines emptied the order)
        // finalizes on the survivors instead of panicking.
        let Some(&cur) = self.order.get(self.pos) else {
            self.finalized = self.best_survivor();
            if let Some(f) = self.finalized {
                self.push_decision(TuneDecision {
                    trial: self.trials,
                    version: f,
                    cycles: raw_cycles,
                    norm_cycles: cycles,
                    reason: TuneReason::Exhausted,
                    finalized: self.finalized,
                });
            }
            return;
        };
        self.times[cur] = Some(cycles);
        self.trials += 1;
        let reason;
        if self.pos == 0 {
            self.pos += 1;
            reason = TuneReason::Baseline;
        } else {
            let prev = self.order[self.pos - 1];
            let cur_t = cycles as f64;
            let degraded = match self.direction {
                Direction::Increasing => match self.times[prev] {
                    // The margin keeps measurement noise from mimicking
                    // a slowdown; 0 restores the paper's exact "any
                    // increase stops the walk" rule.
                    Some(t) => cur_t > t as f64 * (1.0 + margin),
                    // The comparison anchor was quarantined away;
                    // nothing to regress against, keep walking.
                    None => false,
                },
                Direction::Decreasing => {
                    // `cur` was just recorded, so the minimum exists.
                    let best = self.times.iter().flatten().copied().min().unwrap_or(cycles) as f64;
                    // The paper's threshold already absorbs noise up to
                    // its own size — widening it *additively* would let
                    // a margin mask a genuine just-over-threshold
                    // degradation. The margin only takes over when the
                    // observed noise exceeds the threshold itself.
                    cur_t / best - 1.0 > self.threshold.max(margin)
                }
            };
            if degraded {
                self.finalized = Some(prev);
                reason = TuneReason::SlowdownExceeded;
            } else if self.pos + 1 >= self.order.len() {
                self.finalized = Some(match self.direction {
                    // Exhausted upward: keep the fastest observed.
                    Direction::Increasing => self
                        .order
                        .iter()
                        .copied()
                        .min_by_key(|&v| self.times[v].unwrap_or(u64::MAX))
                        .unwrap_or(cur),
                    // Exhausted downward: the current (lowest acceptable).
                    Direction::Decreasing => cur,
                });
                reason = TuneReason::Exhausted;
            } else {
                self.pos += 1;
                reason = TuneReason::NotDegraded;
            }
        }
        self.push_decision(TuneDecision {
            trial: self.trials - 1,
            version: cur,
            cycles: raw_cycles,
            norm_cycles: cycles,
            reason,
            finalized: self.finalized,
        });
    }

    /// The fastest measured survivor, else the first unmeasured one.
    fn best_survivor(&self) -> Option<usize> {
        self.order
            .iter()
            .copied()
            .filter(|&v| self.times[v].is_some())
            .min_by_key(|&v| self.times[v].unwrap_or(u64::MAX))
            .or_else(|| self.order.first().copied())
    }

    /// Last-resort replacement when the finalized version dies:
    /// fail-safe, then original, then best measured survivor.
    fn fallback_survivor(&self) -> Option<usize> {
        let alive = |v: usize| !self.quarantined.get(v).copied().unwrap_or(true);
        self.fail_safe
            .filter(|&v| alive(v))
            .or_else(|| Some(self.original).filter(|&v| alive(v)))
            .or_else(|| self.best_survivor())
    }

    /// True once every runnable version (candidates and fallbacks) has
    /// been quarantined.
    pub(crate) fn all_quarantined(&self) -> bool {
        self.order.is_empty() && self.finalized.is_none()
    }

    /// The finalized version, once the walk is done.
    #[cfg(test)]
    pub(crate) fn finalized(&self) -> Option<usize> {
        self.finalized
    }

    fn push_decision(&mut self, decision: TuneDecision) {
        if orion_telemetry::is_enabled() {
            orion_telemetry::instant(
                "tuner",
                "decision",
                vec![
                    ("trial", decision.trial.into()),
                    ("version", decision.version.into()),
                    ("cycles", decision.cycles.into()),
                    ("norm_cycles", decision.norm_cycles.into()),
                    ("reason", format!("{:?}", decision.reason).into()),
                    (
                        "finalized",
                        decision.finalized.map_or(orion_telemetry::ArgValue::Bool(false), |v| {
                            orion_telemetry::ArgValue::U64(v as u64)
                        }),
                    ),
                ],
            );
        }
        self.decisions.push(decision);
    }
}

impl SearchPolicy for PaperWalkPolicy {
    fn propose(&self) -> Option<usize> {
        if self.all_quarantined() {
            None
        } else {
            Some(self.select())
        }
    }

    fn observe(&mut self, candidate: usize, m: Measurement) {
        debug_assert_eq!(candidate, self.select(), "walk measurements arrive in order");
        if orion_telemetry::is_enabled() && self.finalized.is_none() {
            search_metrics().launches.inc();
        }
        match (m.work, m.noise_margin) {
            // A zero factor counts as one, as in the bandit.
            (Some(work), _) => self.record_inner(m.cycles, work.max(1), 0.0),
            (None, Some(margin)) => self.record_noisy(m.cycles, margin),
            (None, None) => self.record(m.cycles),
        }
    }

    fn verdict(&self) -> PolicyVerdict {
        if self.all_quarantined() {
            PolicyVerdict::Dead
        } else if let Some(v) = self.finalized {
            PolicyVerdict::Finalized(v)
        } else {
            PolicyVerdict::Exploring
        }
    }

    /// The version to run for the current iteration. Never indexes out
    /// of bounds: a position that walked past the end of the order (or
    /// an order emptied by quarantines) clamps to the last survivor.
    /// With every candidate quarantined this names the fail-safe (or
    /// original) as a last resort.
    fn select(&self) -> usize {
        if let Some(v) = self.finalized {
            return v;
        }
        match self.order.get(self.pos.min(self.order.len().saturating_sub(1))) {
            Some(&v) => v,
            None => self.fail_safe.unwrap_or(self.original),
        }
    }

    /// The relative slowdown `cycles / anchor - 1` of a prospective
    /// (unit-work) measurement against the walk's current comparison
    /// anchor — the previous version's time when tuning upward, the
    /// best time so far when tuning downward. `None` on the baseline
    /// trial, a finalized walk, or a quarantined-away anchor.
    fn probe_slowdown(&self, cycles: u64) -> Option<f64> {
        if self.finalized.is_some() || self.pos == 0 || self.pos >= self.order.len() {
            return None;
        }
        // Match record_inner's unit-work normalization: stored times
        // carry the 2^20 scale factor.
        let cur_t = cycles.saturating_mul(1 << 20) as f64;
        let anchor = match self.direction {
            Direction::Increasing => self.times[self.order[self.pos - 1]],
            Direction::Decreasing => self.times.iter().flatten().copied().min(),
        }?;
        Some(cur_t / anchor.max(1) as f64 - 1.0)
    }

    /// Its measurement (if any) is discarded so it can never win a
    /// best-of comparison ([`TuneReason::Quarantined`]). If the
    /// quarantined version was already finalized, the walk *falls back*
    /// — to the fail-safe version, else the original, else the best
    /// measured survivor ([`TuneReason::FellBack`]).
    fn quarantine(&mut self, version: usize) {
        if self.quarantined.get(version).copied().unwrap_or(true) {
            return; // already quarantined, or out of range
        }
        self.quarantined[version] = true;
        self.times[version] = None;
        if let Some(idx) = self.order.iter().position(|&v| v == version) {
            self.order.remove(idx);
            if idx < self.pos {
                self.pos -= 1;
            }
        }
        let was_final = self.finalized == Some(version);
        let reason = if was_final {
            self.finalized = self.fallback_survivor();
            TuneReason::FellBack
        } else {
            if self.finalized.is_none() && self.pos >= self.order.len() {
                // The walk ran out of candidates; settle on a survivor,
                // or engage the last-resort fallback if none remain.
                self.finalized = self.best_survivor().or_else(|| self.fallback_survivor());
            }
            TuneReason::Quarantined
        };
        if orion_telemetry::is_enabled() {
            orion_telemetry::counter(
                "resilience",
                if was_final { "fellback" } else { "quarantined" },
                1,
            );
        }
        self.push_decision(TuneDecision {
            trial: self.trials,
            version,
            cycles: 0,
            norm_cycles: 0,
            reason,
            finalized: self.finalized,
        });
    }

    /// An already finalized version is kept; an unfinished walk
    /// resolves to the *original* version when it is still alive — the
    /// paper's fail-safe answer, not the best guess from a walk that was
    /// cut short — else to the usual fallback chain. Records a
    /// [`TuneReason::Degraded`] decision either way.
    fn degrade_to_fallback(&mut self) -> Option<usize> {
        if self.finalized.is_none() {
            let alive = |v: usize| !self.quarantined.get(v).copied().unwrap_or(true);
            self.finalized =
                Some(self.original).filter(|&v| alive(v)).or_else(|| self.fallback_survivor());
        }
        if orion_telemetry::is_enabled() {
            orion_telemetry::counter("resilience", "degraded", 1);
        }
        self.push_decision(TuneDecision {
            trial: self.trials,
            version: self.finalized.unwrap_or(self.original),
            cycles: 0,
            norm_cycles: 0,
            reason: TuneReason::Degraded,
            finalized: self.finalized,
        });
        self.finalized
    }

    fn is_quarantined(&self, version: usize) -> bool {
        self.quarantined.get(version).copied().unwrap_or(false)
    }

    fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    fn trials(&self) -> usize {
        self.trials
    }

    fn decisions(&self) -> &[TuneDecision] {
        &self.decisions
    }

    fn into_decisions(self: Box<Self>) -> Vec<TuneDecision> {
        self.decisions
    }

    fn name(&self) -> &'static str {
        "paper_walk"
    }

    fn clone_box(&self) -> Box<dyn SearchPolicy> {
        Box::new(self.clone())
    }
}

/// Knobs of the [`BanditPolicy`]. All-integer so the config stays
/// `Copy + Eq` inside [`PolicyKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BanditConfig {
    /// Seed of the deterministic tie-break stream. Same seed ⇒ same arm
    /// sequence, bit for bit.
    pub seed: u64,
    /// UCB exploration constant × 1000 (relative to the incumbent
    /// mean). 0 disables refinement pulls entirely.
    pub exploration_milli: u32,
    /// Pre-pruning slack, percent: arms whose analytic bound exceeds
    /// the best bound by more than this are dropped without ever being
    /// launched. `u32::MAX` disables pruning.
    pub prune_slack_pct: u32,
    /// Extra confirmation pulls of the incumbent before finalizing.
    pub confirm_pulls: u32,
    /// Hard cap on exploration pulls; 0 derives `4 × arms`.
    pub max_pulls: u32,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            seed: 0x0B_AD_1D_EA,
            exploration_milli: 500,
            prune_slack_pct: 30,
            confirm_pulls: 0,
            max_pulls: 0,
        }
    }
}

/// Launch-shape context for [`analytic_bound`]: how many blocks one SM
/// must serve, and how many warps one block occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundCtx {
    /// Threads per block of the launch the arms compete for.
    pub block: u32,
    /// Blocks each SM serves (`ceil(grid / num_sms)`); callers without
    /// a device in hand may pass the whole grid — conservative, the
    /// *relative* ordering across arms is what pruning consumes.
    pub blocks_per_sm: u32,
    /// The device's warp width (32 on every modeled device).
    pub warp_size: u32,
}

impl BoundCtx {
    /// Context for a launch on a known device shape.
    #[must_use]
    pub fn new(block: u32, grid: u32, num_sms: u32, warp_size: u32) -> Self {
        BoundCtx {
            block: block.max(1),
            blocks_per_sm: grid.div_ceil(num_sms.max(1)).max(1),
            warp_size: warp_size.max(1),
        }
    }
}

/// Weight of one compressible-stack move (spill/restore traffic)
/// relative to a plain instruction in the analytic bound. Spill moves
/// touch the on-chip private region and serialize against it, so they
/// cost more than an ALU op but far less than a DRAM round trip.
const SPILL_MOVE_WEIGHT: u64 = 4;

/// Cheap analytic lower-ish bound on a version's per-iteration cost, in
/// abstract issue slots — the pre-pruning signal of [`BanditPolicy`].
///
/// Derivation (from the compile-probe occupancy curve and the machine
/// module, no simulation):
///
/// * Each resident block retires the version's static instruction
///   stream once per grid block it serves; spill traffic (the
///   allocator's compressible-stack moves, which grow as occupancy
///   tuning squeezes registers) is weighted `SPILL_MOVE_WEIGHT`×.
/// * A version resident at `b` blocks/SM serves `ceil(blocks_per_sm /
///   b)` sequential *rounds* — the same quantization the occupancy
///   calculator applies. This is what makes the bound non-monotone in
///   occupancy: once an arm's residency already covers the grid,
///   raising occupancy further buys nothing, while its spill cost still
///   grows.
///
/// The bound intentionally ignores cache behavior and latency hiding;
/// [`BanditConfig::prune_slack_pct`] absorbs the model error, and the
/// pruning-soundness property suite is the empirical tripwire.
#[must_use]
pub fn analytic_bound(v: &KernelVersion, ctx: &BoundCtx) -> u64 {
    let insts: u64 = v.machine.funcs.iter().map(|f| f.num_insts() as u64).sum();
    let weighted = insts + SPILL_MOVE_WEIGHT * u64::from(v.machine.static_stack_moves);
    let warps_per_block = ctx.block.div_ceil(ctx.warp_size).max(1);
    let active_blocks = (v.achieved_warps / warps_per_block).max(1);
    let rounds = u64::from(ctx.blocks_per_sm.div_ceil(active_blocks).max(1));
    rounds * weighted.max(1)
}

/// Per-arm bandit state.
#[derive(Debug, Clone)]
struct Arm {
    bound: u64,
    pulls: u32,
    /// Sum of normalized cycles over `pulls`.
    total: u128,
    quarantined: bool,
    pruned: bool,
}

impl Arm {
    fn mean(&self) -> Option<u64> {
        if self.pulls == 0 {
            None
        } else {
            u64::try_from(self.total / u128::from(self.pulls)).ok()
        }
    }

    fn alive(&self) -> bool {
        !self.quarantined && !self.pruned
    }
}

/// Seeded, deterministic UCB over a candidate set, with arms pre-pruned
/// by [`analytic_bound`]. See the module docs for the search schedule
/// and determinism rules.
#[derive(Debug, Clone)]
pub struct BanditPolicy {
    cfg: BanditConfig,
    arms: Vec<Arm>,
    /// Fallback chain anchors (mirroring [`PaperWalkPolicy`]).
    fail_safe: Option<usize>,
    original: usize,
    finalized: Option<usize>,
    trials: usize,
    decisions: Vec<TuneDecision>,
    /// xorshift64* tie-break stream.
    rng: u64,
}

impl BanditPolicy {
    /// A bandit over `ck`'s versions, arm `i` bounded by `bound(i,
    /// &ck.versions[i])`. Fail-safe versions get no bound: never
    /// explored, available to the fallback chain. `ck.original` is the
    /// last-resort candidate (the untuned version).
    #[must_use]
    pub fn new(
        ck: &CompiledKernel,
        bound: impl Fn(usize, &KernelVersion) -> u64,
        cfg: BanditConfig,
    ) -> Self {
        let mut arms: Vec<Arm> = ck
            .versions
            .iter()
            .enumerate()
            .map(|(i, v)| Arm {
                bound: if v.fail_safe { u64::MAX } else { bound(i, v) },
                pulls: 0,
                total: 0,
                quarantined: false,
                pruned: v.fail_safe,
            })
            .collect();
        let original = ck.original;
        let fail_safe = ck.versions.iter().position(|v| v.fail_safe);
        // Pre-prune: drop every arm whose bound exceeds the best bound
        // by more than the slack — no simulated launch is ever spent on
        // them. The original always survives (it is the fail-safe
        // answer and the walk's own starting point).
        let best = arms.iter().filter(|a| a.alive()).map(|a| a.bound).min().unwrap_or(0);
        let mut pruned = 0usize;
        if cfg.prune_slack_pct != u32::MAX {
            let limit =
                u64::try_from(u128::from(best) * (100 + u128::from(cfg.prune_slack_pct)) / 100)
                    .unwrap_or(u64::MAX);
            for (i, arm) in arms.iter_mut().enumerate() {
                if arm.alive() && i != original && arm.bound > limit {
                    arm.pruned = true;
                    pruned += 1;
                }
            }
        }
        if orion_telemetry::is_enabled() {
            search_metrics().arms_pruned.add(pruned as u64);
            if pruned > 0 {
                journal::record(JournalEvent::PolicyDecision {
                    policy: "bandit",
                    action: "prune",
                    candidate: pruned,
                });
            }
        }
        let finalized = {
            let alive: Vec<usize> =
                arms.iter().enumerate().filter(|(_, a)| a.alive()).map(|(i, _)| i).collect();
            if alive.len() == 1 {
                Some(alive[0])
            } else {
                None
            }
        };
        BanditPolicy {
            rng: cfg.seed | 1,
            cfg,
            arms,
            fail_safe,
            original,
            finalized,
            trials: 0,
            decisions: Vec::new(),
        }
    }

    /// A bandit over a compiled kernel's versions: bounds come from the
    /// compile-probe occupancy curve of each version, fail-safe
    /// versions stay out of the exploration set (exactly like the
    /// walk's tuning order).
    #[must_use]
    pub fn over_kernel(ck: &CompiledKernel, cfg: BanditConfig) -> Self {
        // Versions of one kernel share grid and block, so a nominal
        // launch shape (one-warp blocks, 64 blocks per SM) preserves
        // the *relative* ordering the pruner consumes; only the
        // quantization points shift.
        let ctx = BoundCtx { block: 32, blocks_per_sm: 64, warp_size: 32 };
        BanditPolicy::new(ck, |_, v| analytic_bound(v, &ctx), cfg)
    }

    /// Arms dropped by the analytic-bound pre-prune — the launches the
    /// search never has to spend. Fail-safe arms (excluded from
    /// exploration by construction, not by the bound) are not counted.
    #[must_use]
    pub fn pruned_arms(&self) -> usize {
        self.arms.iter().filter(|a| a.pruned && a.bound != u64::MAX).count()
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic in the seed, cheap, and good
        // enough for tie-breaking.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn alive_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.arms.iter().enumerate().filter(|(_, a)| a.alive()).map(|(i, _)| i)
    }

    /// The incumbent: best measured mean among alive arms (ties: lower
    /// bound, then lower id), else the lowest-bound alive arm.
    fn incumbent(&self) -> Option<usize> {
        self.alive_ids()
            .filter(|&i| self.arms[i].pulls > 0)
            .min_by_key(|&i| (self.arms[i].mean().unwrap_or(u64::MAX), self.arms[i].bound, i))
            .or_else(|| self.best_bound_arm())
    }

    fn best_bound_arm(&self) -> Option<usize> {
        self.alive_ids().min_by_key(|&i| (self.arms[i].bound, i))
    }

    fn max_pulls(&self) -> u32 {
        if self.cfg.max_pulls > 0 {
            self.cfg.max_pulls
        } else {
            let arms = self.alive_ids().count() as u32;
            4 * arms.max(1)
        }
    }

    /// The exploration pull the schedule wants next, `None` when it is
    /// time to finalize. See the module docs.
    fn exploration_target(&self) -> Option<usize> {
        // Phase 1 — sweep: every alive arm gets one pull, ascending
        // bound (cheapest-looking first), ties by id.
        if let Some(i) = self
            .alive_ids()
            .filter(|&i| self.arms[i].pulls == 0)
            .min_by_key(|&i| (self.arms[i].bound, i))
        {
            return Some(i);
        }
        let total: u32 = self.alive_ids().map(|i| self.arms[i].pulls).sum();
        if total >= self.max_pulls() {
            return None;
        }
        let best = self.incumbent()?;
        // Phase 2 — confirm the incumbent.
        if self.arms[best].pulls < 1 + self.cfg.confirm_pulls {
            return Some(best);
        }
        // Phase 3 — UCB refinement: pull the most optimistic challenger
        // while any could still beat the incumbent's mean.
        let best_mean = self.arms[best].mean()?;
        let c = f64::from(self.cfg.exploration_milli) / 1000.0;
        let ln_t = f64::from(total.max(2)).ln();
        self.alive_ids()
            .filter(|&i| i != best)
            .filter_map(|i| {
                let mean = self.arms[i].mean()? as f64;
                let bonus = c * best_mean as f64 * (ln_t / f64::from(self.arms[i].pulls)).sqrt();
                let optimistic = mean - bonus;
                if optimistic < best_mean as f64 {
                    // Total order: f64 from finite inputs; ties by id.
                    Some((i, optimistic))
                } else {
                    None
                }
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    fn push_decision(&mut self, d: TuneDecision) {
        self.decisions.push(d);
    }

    fn finalize(&mut self, winner: usize, last: Option<(usize, u64, u64)>) {
        self.finalized = Some(winner);
        let (version, cycles, norm) = last.unwrap_or((winner, 0, 0));
        self.push_decision(TuneDecision {
            trial: self.trials.saturating_sub(1),
            version,
            cycles,
            norm_cycles: norm,
            reason: TuneReason::Exhausted,
            finalized: self.finalized,
        });
        if orion_telemetry::is_enabled() {
            journal::record(JournalEvent::PolicyDecision {
                policy: "bandit",
                action: "finalize",
                candidate: winner,
            });
        }
    }

    /// Last-resort replacement chain, mirroring
    /// [`PaperWalkPolicy`]'s: fail-safe, then original,
    /// then best measured survivor.
    fn fallback_survivor(&self) -> Option<usize> {
        let alive = |v: usize| self.arms.get(v).is_some_and(|a| !a.quarantined);
        self.fail_safe
            .filter(|&v| alive(v))
            .or_else(|| Some(self.original).filter(|&v| alive(v)))
            .or_else(|| self.incumbent())
    }
}

impl SearchPolicy for BanditPolicy {
    fn propose(&self) -> Option<usize> {
        if let Some(f) = self.finalized {
            return Some(f);
        }
        if let Some(i) = self.exploration_target() {
            return Some(i);
        }
        // Exploration exhausted without an explicit finalize (e.g. the
        // caller asks before observing): name the incumbent.
        self.incumbent().or_else(|| self.fallback_survivor())
    }

    fn observe(&mut self, candidate: usize, m: Measurement) {
        let norm = match m.work {
            // §4.2's integer normalization, same scale as the walk.
            Some(w) => m.cycles.saturating_mul(1 << 20) / w.max(1),
            None => m.cycles,
        };
        if self.finalized.is_some() {
            return; // steady state: nothing left to learn
        }
        if orion_telemetry::is_enabled() {
            search_metrics().launches.inc();
        }
        let Some(arm) = self.arms.get_mut(candidate) else { return };
        arm.pulls += 1;
        arm.total += u128::from(norm);
        self.trials += 1;
        let reason = if self.trials == 1 { TuneReason::Baseline } else { TuneReason::NotDegraded };
        // Deterministic tie-break noise: consume one RNG draw per
        // observation so the stream position is a pure function of the
        // pull count (keeps 1-vs-N-worker runs bit-identical).
        let _ = self.next_rand();
        self.push_decision(TuneDecision {
            trial: self.trials - 1,
            version: candidate,
            cycles: m.cycles,
            norm_cycles: norm,
            reason,
            finalized: None,
        });
        if self.exploration_target().is_none() {
            if let Some(best) = self.incumbent() {
                self.finalize(best, Some((candidate, m.cycles, norm)));
            }
        }
    }

    fn verdict(&self) -> PolicyVerdict {
        if let Some(f) = self.finalized {
            PolicyVerdict::Finalized(f)
        } else if self.incumbent().is_some() || self.fallback_survivor().is_some() {
            PolicyVerdict::Exploring
        } else {
            PolicyVerdict::Dead
        }
    }

    fn select(&self) -> usize {
        self.finalized
            .or_else(|| self.incumbent())
            .or_else(|| self.fallback_survivor())
            .unwrap_or(self.original)
    }

    fn probe_slowdown(&self, _cycles: u64) -> Option<f64> {
        // No walk anchor: the bandit's sweep has no "previous step" to
        // regress against, so borderline extensions never trigger.
        None
    }

    fn quarantine(&mut self, candidate: usize) {
        let Some(arm) = self.arms.get_mut(candidate) else { return };
        if arm.quarantined {
            return;
        }
        arm.quarantined = true;
        arm.pulls = 0;
        arm.total = 0;
        let was_final = self.finalized == Some(candidate);
        let reason = if was_final {
            self.finalized = self.fallback_survivor();
            TuneReason::FellBack
        } else {
            if self.finalized.is_none() && self.exploration_target().is_none() {
                self.finalized = self.incumbent().or_else(|| self.fallback_survivor());
            }
            TuneReason::Quarantined
        };
        if orion_telemetry::is_enabled() {
            orion_telemetry::counter(
                "resilience",
                if was_final { "fellback" } else { "quarantined" },
                1,
            );
            if was_final {
                if let Some(to) = self.finalized {
                    journal::record(JournalEvent::PolicyDecision {
                        policy: "bandit",
                        action: "fallback",
                        candidate: to,
                    });
                }
            }
        }
        self.push_decision(TuneDecision {
            trial: self.trials,
            version: candidate,
            cycles: 0,
            norm_cycles: 0,
            reason,
            finalized: self.finalized,
        });
    }

    fn degrade_to_fallback(&mut self) -> Option<usize> {
        if self.finalized.is_none() {
            let alive = |v: usize| self.arms.get(v).is_some_and(|a| !a.quarantined);
            self.finalized =
                Some(self.original).filter(|&v| alive(v)).or_else(|| self.fallback_survivor());
        }
        if orion_telemetry::is_enabled() {
            orion_telemetry::counter("resilience", "degraded", 1);
        }
        self.push_decision(TuneDecision {
            trial: self.trials,
            version: self.finalized.unwrap_or(self.original),
            cycles: 0,
            norm_cycles: 0,
            reason: TuneReason::Degraded,
            finalized: self.finalized,
        });
        self.finalized
    }

    fn is_quarantined(&self, candidate: usize) -> bool {
        self.arms.get(candidate).is_some_and(|a| a.quarantined)
    }

    fn quarantined_count(&self) -> usize {
        self.arms.iter().filter(|a| a.quarantined).count()
    }

    fn trials(&self) -> usize {
        self.trials
    }

    fn decisions(&self) -> &[TuneDecision] {
        &self.decisions
    }

    fn into_decisions(self: Box<Self>) -> Vec<TuneDecision> {
        self.decisions
    }

    fn name(&self) -> &'static str {
        "bandit"
    }

    fn clone_box(&self) -> Box<dyn SearchPolicy> {
        Box::new(self.clone())
    }
}

/// Handles to the `search/*` counters (idempotent registration).
struct SearchMetrics {
    arms_pruned: registry::CounterHandle,
    launches: registry::CounterHandle,
}

fn search_metrics() -> SearchMetrics {
    let scope = registry::global().scope("search");
    SearchMetrics {
        arms_pruned: scope.register_counter(
            "arms_pruned",
            "Candidate arms dropped by the analytic bound before any launch",
            "",
        ),
        launches: scope.register_counter(
            "launches",
            "Measurements consumed by search policies",
            "",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionOutcome, TuningSession};
    use crate::testutil::{fake_compiled, fake_compiled_with_fail_safe, fake_version};

    /// A fault-free session over the paper walk, measuring `times[v]`
    /// for version `v`.
    fn walk(ck: &CompiledKernel, iterations: u32, times: &[u64]) -> SessionOutcome {
        TuningSession::simple(ck, iterations, 0.02)
            .drive(|v| Ok(times[ck.index_of(&v.label).unwrap()]))
            .unwrap()
    }

    #[test]
    fn increasing_stops_at_first_degradation() {
        // Times: v0=100, v1=80, v2=90 → picks v1 after 3 trials.
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let out = walk(&ck, 10, &[100, 80, 90, 70]);
        assert_eq!(out.selected, 1);
        assert_eq!(out.converged_after, 3);
        // Remaining iterations run the finalized version.
        assert!(out.iterations[3..].iter().all(|&(v, _)| v == 1));
    }

    #[test]
    fn decreasing_walks_through_plateau() {
        // order: 48, 36, 24, 12 warps; 24 is within 2% of best, 12 not.
        let ck = fake_compiled(&[48, 36, 24, 12], Direction::Decreasing);
        let out = walk(&ck, 8, &[100, 100, 101, 140]);
        assert_eq!(out.selected, 2, "lowest occupancy within the 2% band");
    }

    #[test]
    fn noise_margin_widens_the_stop_rules() {
        // Increasing, plateau with +1% wobble on the second version.
        // With margin 0 the literal "any increase stops" rule fires and
        // the walk finalizes v0; a 5% margin rides through the wobble
        // and keeps walking to the genuinely better v2.
        let ck = fake_compiled(&[8, 16, 32], Direction::Increasing);
        let times = [100u64, 101, 80];

        let mut strict = PaperWalkPolicy::new(&ck, 0.02);
        for &t in &times {
            strict.record_noisy(t, 0.0);
            if strict.finalized().is_some() {
                break;
            }
        }
        assert_eq!(strict.finalized(), Some(0), "margin 0 keeps the paper rule");

        let mut tolerant = PaperWalkPolicy::new(&ck, 0.02);
        for &t in &times {
            tolerant.record_noisy(t, 0.05);
        }
        assert_eq!(tolerant.finalized(), Some(2), "5% margin absorbs a 1% wobble");

        // Decreasing: 2.5% slip is over the 2% threshold alone, but
        // inside a 5% noise margin, which takes over when larger than
        // the threshold (max semantics, never additive).
        let ck = fake_compiled(&[48, 36, 24], Direction::Decreasing);
        let times = [1000u64, 1025, 1100];

        let mut strict = PaperWalkPolicy::new(&ck, 0.02);
        for &t in &times {
            strict.record_noisy(t, 0.0);
            if strict.finalized().is_some() {
                break;
            }
        }
        assert_eq!(strict.finalized(), Some(0), "2.5% over best degrades at margin 0");

        let mut tolerant = PaperWalkPolicy::new(&ck, 0.02);
        for &t in &times {
            tolerant.record_noisy(t, 0.05);
            if tolerant.finalized().is_some() {
                break;
            }
        }
        assert_eq!(
            tolerant.finalized(),
            Some(1),
            "within max(threshold, margin) counts as plateau; 10% slip still stops the walk"
        );
    }

    #[test]
    fn exhausting_upward_takes_best() {
        let ck = fake_compiled(&[8, 16, 32], Direction::Increasing);
        let out = walk(&ck, 6, &[100, 90, 70]);
        assert_eq!(out.selected, 2);
        assert_eq!(out.converged_after, 3);
    }

    #[test]
    fn single_candidate_finalizes_immediately() {
        let ck = fake_compiled(&[48], Direction::Decreasing);
        let out = walk(&ck, 4, &[55]);
        assert_eq!(out.selected, 0);
        assert_eq!(out.converged_after, 0);
        assert_eq!(out.total_cycles, 4 * 55);
    }

    #[test]
    fn work_normalization_rescues_variable_work_apps() {
        // Decreasing direction. True per-work cost is identical for the
        // first two versions, but raw times differ 4x because the work
        // differs (a growing BFS frontier). Without normalization the
        // walk would see a huge "slowdown" and finalize immediately at
        // the original; with it, tuning continues down the candidate
        // list until the genuinely slower version.
        let ck = fake_compiled(&[48, 36, 24], Direction::Decreasing);
        let work = [1000u64, 4000, 4000];
        let per_work = [50u64, 50, 80]; // version 2 is really 60% slower
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        for _ in 0..4 {
            let v = walk.select();
            walk.observe(v, Measurement::with_work(per_work[v] * work[v], work[v]));
            if walk.finalized().is_some() {
                break;
            }
        }
        assert_eq!(walk.finalized(), Some(1), "lowest occupancy at equal per-work cost");

        // The naive walk stops at the original because raw times differ.
        let mut naive = PaperWalkPolicy::new(&ck, 0.02);
        for _ in 0..4 {
            let v = naive.select();
            naive.record(per_work[v] * work[v]);
            if naive.finalized().is_some() {
                break;
            }
        }
        assert_eq!(naive.finalized(), Some(0));
    }

    #[test]
    fn convergence_within_three_trials_typical() {
        // Bell-shaped times: best in the middle of the order.
        let ck = fake_compiled(&[8, 16, 24, 32, 48], Direction::Increasing);
        let out = walk(&ck, 20, &[120, 95, 80, 88, 99]);
        assert_eq!(out.selected, 2);
        assert!(out.converged_after <= 4);
    }

    #[test]
    fn decision_log_records_converging_run() {
        // Times: v0=100, v1=80, v2=90 → degradation on trial 2 finalizes
        // v1 after 3 trials total.
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let out = walk(&ck, 10, &[100, 80, 90, 70]);
        // One decision per tuning trial, none for post-convergence runs.
        assert_eq!(out.decisions.len(), 3);
        assert!(out.converged_after <= 3, "typical convergence is <= ~3 trials");
        assert_eq!(out.decisions[0].reason, TuneReason::Baseline);
        assert_eq!(out.decisions[0].version, 0);
        assert_eq!(out.decisions[0].cycles, 100);
        assert_eq!(out.decisions[0].finalized, None);
        assert_eq!(out.decisions[1].reason, TuneReason::NotDegraded);
        assert_eq!(out.decisions[1].finalized, None);
        let last = out.decisions.last().unwrap();
        assert_eq!(last.reason, TuneReason::SlowdownExceeded);
        assert_eq!(last.finalized, Some(1), "backs off to the previous version");
        assert_eq!(last.trial, 2);
    }

    #[test]
    fn quarantine_skips_version_and_tuning_continues() {
        // v1 dies after its measurement; the walk continues over v2/v3
        // and v1's time can never win a comparison.
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let times = [100u64, 10, 90, 95];
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        // Measure v0, then v1 (suspiciously fast — it then crashes).
        walk.record(times[0]);
        assert_eq!(walk.select(), 1);
        walk.record(times[1]);
        walk.quarantine(1);
        assert!(walk.is_quarantined(1));
        // Walk resumes at v2; v2 at 90 beats v0's 100, v3 at 95 degrades.
        while walk.finalized().is_none() {
            let v = walk.select();
            assert_ne!(v, 1, "quarantined version must never be selected");
            walk.record(times[v]);
        }
        assert_eq!(walk.finalized(), Some(2), "best survivor, not the dead v1");
        assert!(walk
            .decisions()
            .iter()
            .any(|d| d.reason == TuneReason::Quarantined && d.version == 1));
    }

    #[test]
    fn quarantining_finalized_version_falls_back_to_fail_safe() {
        let ck = fake_compiled_with_fail_safe(&[8, 16, 32], Direction::Increasing);
        let times = [100u64, 80, 90];
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        for _ in 0..3 {
            let v = walk.select();
            walk.record(times[v]);
        }
        assert_eq!(walk.finalized(), Some(1));
        walk.quarantine(1);
        assert_eq!(walk.finalized(), Some(3), "fail-safe version takes over");
        let last = walk.decisions().last().unwrap();
        assert_eq!(last.reason, TuneReason::FellBack);
        assert!(!walk.all_quarantined());
    }

    #[test]
    fn quarantining_everything_is_detectable_and_select_stays_total() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        walk.quarantine(0);
        walk.quarantine(1);
        assert_eq!(walk.verdict(), PolicyVerdict::Dead);
        assert!(walk.propose().is_none());
        assert_eq!(walk.quarantined_count(), 2);
        // select() still returns a last-resort index without panicking.
        let _ = walk.select();
    }

    #[test]
    fn quarantine_before_first_measurement_keeps_walk_sound() {
        // Quarantine the version currently under evaluation before it
        // was ever measured: select() moves on, no panic, and the
        // degradation test still anchors correctly.
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let times = [100u64, 0, 90, 95];
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        walk.record(times[0]);
        assert_eq!(walk.select(), 1);
        walk.quarantine(1); // died on launch, never measured
        assert_eq!(walk.select(), 2);
        walk.record(times[2]);
        walk.record(times[3]);
        assert_eq!(walk.finalized(), Some(2));
    }

    #[test]
    fn degrade_mid_walk_settles_on_original_and_logs_it() {
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        walk.record(100); // baseline measured, walk in flight
        assert_eq!(walk.finalized(), None);
        let settled = walk.degrade_to_fallback();
        assert_eq!(settled, Some(0), "unfinished walk degrades to the original");
        assert_eq!(walk.finalized(), Some(0));
        let last = walk.decisions().last().unwrap();
        assert_eq!(last.reason, TuneReason::Degraded);
        assert_eq!(last.finalized, Some(0));
    }

    #[test]
    fn degrade_keeps_finalized_and_prefers_fail_safe_over_dead_original() {
        // Already finalized: degrade is a no-op on the selection.
        let ck = fake_compiled(&[8, 16, 32], Direction::Increasing);
        let times = [100u64, 80, 90];
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        for _ in 0..3 {
            let v = walk.select();
            walk.record(times[v]);
        }
        assert_eq!(walk.finalized(), Some(1));
        assert_eq!(walk.degrade_to_fallback(), Some(1), "finalized selection is kept");

        // Dead original: the fail-safe takes over.
        let ck = fake_compiled_with_fail_safe(&[8, 16, 32], Direction::Increasing);
        let mut walk = PaperWalkPolicy::new(&ck, 0.02);
        walk.quarantine(0); // the original
        assert_eq!(walk.degrade_to_fallback(), Some(3), "fail-safe replaces a dead original");
    }

    #[test]
    fn decision_log_records_exhausted_run() {
        let ck = fake_compiled(&[8, 16, 32], Direction::Increasing);
        let out = walk(&ck, 6, &[100, 90, 70]);
        let last = out.decisions.last().unwrap();
        assert_eq!(last.reason, TuneReason::Exhausted, "final decision carries a finalize reason");
        assert_eq!(last.finalized, Some(2), "exhausting the list keeps the best version");
    }

    fn bandit(bounds: &[u64], cfg: BanditConfig) -> BanditPolicy {
        let ck = fake_compiled(&vec![8; bounds.len()], Direction::Increasing);
        BanditPolicy::new(&ck, |i, _| bounds[i], cfg)
    }

    fn drive(policy: &mut dyn SearchPolicy, times: &[u64]) -> Vec<usize> {
        let mut sequence = Vec::new();
        while matches!(policy.verdict(), PolicyVerdict::Exploring) {
            let v = policy.propose().expect("alive");
            sequence.push(v);
            policy.observe(v, Measurement::raw(times[v]));
            if sequence.len() > 256 {
                panic!("bandit failed to converge: {sequence:?}");
            }
        }
        sequence
    }

    #[test]
    fn bandit_prunes_dominated_arms_without_launching_them() {
        // Arm 2's bound is 10× the best: pruned, never proposed.
        let mut p = bandit(&[100, 110, 1000], BanditConfig::default());
        let seq = drive(&mut p, &[50, 40, 1]);
        assert!(!seq.contains(&2), "dominated arm was launched: {seq:?}");
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(1));
    }

    #[test]
    fn bandit_is_deterministic_in_the_seed() {
        let times = [90u64, 70, 80, 75];
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut a = bandit(&[100, 100, 100, 100], cfg);
        let mut b = bandit(&[100, 100, 100, 100], cfg);
        assert_eq!(drive(&mut a, &times), drive(&mut b, &times));
        assert_eq!(a.select(), b.select());
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn bandit_sweeps_in_ascending_bound_order_and_picks_the_fastest() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[300, 100, 200], cfg);
        let seq = drive(&mut p, &[60, 90, 30]);
        assert_eq!(&seq[..3], &[1, 2, 0], "sweep must follow ascending bounds");
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(2));
        assert_eq!(p.select(), 2);
    }

    #[test]
    fn quarantined_finalized_arm_falls_back() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100], cfg);
        drive(&mut p, &[50, 80]);
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(0));
        p.quarantine(0);
        // Fallback chain: no fail-safe, original (0) dead → survivor 1.
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(1));
        assert_eq!(p.decisions().last().unwrap().reason, TuneReason::FellBack);
        p.quarantine(1);
        assert_eq!(p.verdict(), PolicyVerdict::Dead);
        assert!(p.propose().is_none());
    }

    #[test]
    fn degrade_settles_on_the_original() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100, 100], cfg);
        let v = p.propose().unwrap();
        p.observe(v, Measurement::raw(10));
        assert_eq!(p.degrade_to_fallback(), Some(0));
        assert_eq!(p.decisions().last().unwrap().reason, TuneReason::Degraded);
    }

    #[test]
    fn work_normalization_matches_the_walk_scale() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100], cfg);
        let v = p.propose().unwrap();
        p.observe(v, Measurement::with_work(100, 1 << 20));
        assert_eq!(p.decisions()[0].norm_cycles, 100);
        // A zero factor reads as one in both policies.
        let mut p = bandit(&[100, 100], cfg);
        let v = p.propose().unwrap();
        p.observe(v, Measurement::with_work(100, 0));
        let mut walk = PaperWalkPolicy::new(&fake_compiled(&[8, 16], Direction::Increasing), 0.02);
        walk.observe(walk.select(), Measurement::with_work(100, 0));
        assert_eq!(walk.decisions()[0].norm_cycles, 100 << 20);
        assert_eq!(p.decisions()[0].norm_cycles, 100 << 20);
    }

    #[test]
    fn analytic_bound_flattens_once_residency_covers_the_grid() {
        let v = |warps: u32, moves: u32| {
            let mut v = fake_version(warps, false);
            v.machine.static_stack_moves = moves;
            v
        };
        let ctx = BoundCtx::new(64, 16, 8, 32); // 2 blocks per SM
                                                // 8 warps = 4 blocks resident: one round. 2 warps = 1 block: two.
        assert!(analytic_bound(&v(2, 0), &ctx) > analytic_bound(&v(8, 0), &ctx));
        // Both 8 and 16 warps cover the 2 blocks in one round — equal
        // cost, so spill-free low occupancy is never *worse* there...
        assert_eq!(analytic_bound(&v(8, 0), &ctx), analytic_bound(&v(16, 0), &ctx));
        // ...and spill moves make the higher-occupancy arm lose.
        assert!(analytic_bound(&v(16, 9), &ctx) > analytic_bound(&v(8, 0), &ctx));
    }
}
