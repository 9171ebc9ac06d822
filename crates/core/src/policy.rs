//! The search policy of a tuning session: which candidate to measure
//! next, what a measurement means, and what happens when a candidate
//! dies.
//!
//! Every tuning run is one state machine
//! ([`TuningSession`](crate::session::TuningSession)). The session keeps
//! everything operational — retries, robust measurement, strikes,
//! deadlines — and asks its [`Policy`] the rest. A policy is one
//! *roster* around one *search rule*.
//!
//! The roster is written once for every rule. It holds the quarantined
//! set, the fallback chain (fail-safe version, then the original, then
//! the rule's best guess) that replaces a dead pick
//! ([`Policy::quarantine`]), the deadline settle ([`Policy::degrade`]),
//! the [`TuneDecision`] log and the trial count.
//!
//! The rule is the search itself, and two ship:
//!
//! * the paper's Figure 9 walk ([`Policy::walk`]), the default
//!   everywhere, pinned by the golden walk fixtures of `orion-bench`;
//! * a deterministic UCB bandit ([`Policy::bandit`],
//!   [`Policy::over_kernel`]) for wider candidate sets such as the
//!   [`CandidateSpace`] lattice. Arms are pre-pruned by a cheap analytic
//!   performance bound derived from the compile-probe occupancy curves
//!   ([`analytic_bound`]), so no simulated launch is spent on dominated
//!   arms. The survivors are measured once each in ascending-bound
//!   order; further pulls confirm and refine the incumbent while the
//!   pull cap ([`BanditConfig::max_pulls`]) allows.
//!
//! A rule answers five questions: the next exploration candidate, what
//! a measurement means, its best guess, forgetting a quarantined
//! candidate, and the borderline probe's slowdown.
//!
//! Candidate ids are indices into the `versions` of the
//! [`CompiledKernel`] the policy was built over: the compiler's ≤ 5
//! versions, or the lattice's ([`CandidateSpace::kernel`]).
//!
//! # Determinism rules
//!
//! A policy is a deterministic function of (construction inputs,
//! observation sequence): the service's bit-equality gates run the same
//! batch at several worker counts and compare outcomes bitwise. Neither
//! rule draws random numbers; the bandit breaks ties by (bound, id).
//!
//! [`CandidateSpace`]: crate::version::CandidateSpace
//! [`CandidateSpace::kernel`]: crate::version::CandidateSpace::kernel

use crate::compiler::{CompiledKernel, Direction, KernelVersion};
use crate::runtime::{TuneDecision, TuneReason};
use serde::{Deserialize, Serialize};

/// One successful measurement reported to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Raw cycles of the invocation.
    pub cycles: u64,
    /// §4.2 work normalization factor (e.g. a grid slice's block
    /// count); `None` compares raw cycles. Policies read 0 as 1.
    pub work: Option<u64>,
    /// Relative noise margin from robust measurement (mean-of-k);
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

/// Which search rule a session (or service job) runs.
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
    pub fn build(self, ck: &CompiledKernel, threshold: f64) -> Policy {
        match self {
            PolicyKind::PaperWalk => Policy::walk(ck, threshold),
            PolicyKind::Bandit(cfg) => Policy::over_kernel(ck, cfg),
        }
    }
}

/// The search policy of one tuning session: the roster around one
/// search rule (see the module docs). Mirrors the session's pull shape:
/// [`Policy::propose`] names the next candidate, the caller measures it
/// however it likes, and [`Policy::observe`] feeds the result back.
#[derive(Debug, Clone)]
pub struct Policy {
    rule: Rule,
    /// Candidates removed after launch failures, by version index.
    quarantined: Vec<bool>,
    /// The compiler's opposite-direction fail-safe version, if any.
    fail_safe: Option<usize>,
    /// The original (untuned) version.
    original: usize,
    finalized: Option<usize>,
    /// Exploration measurements consumed so far.
    trials: usize,
    decisions: Vec<TuneDecision>,
}

/// The bandit's constructors read as what they build:
/// `BanditPolicy::over_kernel(..)` is a [`Policy`] on the bandit rule.
pub type BanditPolicy = Policy;

impl Policy {
    /// The paper's Figure 9 walk (§3.4), the feedback-driven version
    /// selector, over `ck`'s tuning order at the given slowdown
    /// threshold (the paper's 2%).
    ///
    /// The first iteration runs the original version; each later one
    /// runs the next candidate in the compiler's tuning order until
    /// performance degrades — strictly worse when tuning upward, more
    /// than the threshold over the best when tuning downward — and the
    /// surviving version is finalized.
    #[must_use]
    pub fn walk(ck: &CompiledKernel, threshold: f64) -> Self {
        Policy::with_rule(
            ck,
            Rule::Walk(Walk {
                order: ck.tuning_order.clone(),
                direction: ck.direction,
                threshold,
                pos: 0,
                times: vec![None; ck.versions.len()],
            }),
        )
    }

    /// A bandit over `ck`'s versions, arm `i` bounded by `bound(i,
    /// &ck.versions[i])`. Fail-safe versions get no bound: never
    /// explored, available to the fallback chain.
    #[must_use]
    pub fn bandit(
        ck: &CompiledKernel,
        bound: impl Fn(usize, &KernelVersion) -> u64,
        cfg: BanditConfig,
    ) -> Self {
        Policy::with_rule(ck, Rule::Bandit(Bandit::new(ck, bound, cfg)))
    }

    /// A bandit over a compiled kernel's versions, with bounds from the
    /// compile-probe occupancy curve of each version.
    #[must_use]
    pub fn over_kernel(ck: &CompiledKernel, cfg: BanditConfig) -> Self {
        // Versions of one kernel share grid and block, so a nominal
        // launch shape (one-warp blocks, 64 blocks per SM) preserves
        // the *relative* ordering the pruner consumes; only the
        // quantization points shift.
        let ctx = BoundCtx { block: 32, blocks_per_sm: 64, warp_size: 32 };
        Policy::bandit(ck, |_, v| analytic_bound(v, &ctx), cfg)
    }

    /// The roster around `rule`; a rule with a single candidate starts
    /// finalized on it.
    fn with_rule(ck: &CompiledKernel, rule: Rule) -> Self {
        let candidates = match &rule {
            Rule::Walk(w) => &w.order,
            Rule::Bandit(b) => &b.live,
        };
        Policy {
            finalized: if candidates.len() == 1 { Some(candidates[0]) } else { None },
            rule,
            quarantined: vec![false; ck.versions.len()],
            fail_safe: ck.versions.iter().position(|v| v.fail_safe),
            original: ck.original,
            trials: 0,
            decisions: Vec::new(),
        }
    }

    /// Arms dropped by the bandit's analytic-bound pre-prune — the
    /// launches the search never has to spend. Fail-safe arms (excluded
    /// from exploration by construction, not by the bound) are not
    /// counted. The walk prunes nothing.
    #[must_use]
    pub fn pruned_arms(&self) -> usize {
        match &self.rule {
            Rule::Walk(_) => 0,
            Rule::Bandit(b) => b.pruned,
        }
    }

    /// The candidate to measure (or run, once finalized) next. `None`
    /// once every candidate has been quarantined — the policy is dead.
    #[must_use]
    pub fn propose(&self) -> Option<usize> {
        self.finalized
            .or_else(|| self.rule.next())
            .or_else(|| self.rule.best_guess())
            .or_else(|| self.fallback())
    }

    /// Where the policy stands.
    #[must_use]
    pub fn verdict(&self) -> PolicyVerdict {
        match self.finalized {
            Some(v) => PolicyVerdict::Finalized(v),
            None if self.propose().is_some() => PolicyVerdict::Exploring,
            None => PolicyVerdict::Dead,
        }
    }

    /// Total selection for reports: the finalized candidate, else the
    /// version an unfinished walk is on or the bandit's incumbent. Never
    /// panics: with every candidate quarantined it names the fail-safe
    /// (or the original) as a last resort.
    #[must_use]
    pub fn select(&self) -> usize {
        let current = match &self.rule {
            Rule::Walk(w) => w.next(),
            Rule::Bandit(_) => None,
        };
        self.finalized
            .or(current)
            .or_else(|| self.rule.best_guess())
            .or_else(|| self.fallback())
            .unwrap_or(self.fail_safe.unwrap_or(self.original))
    }

    /// Feed back a successful measurement of `candidate`, the most
    /// recent [`Policy::propose`] answer. A finalized policy has nothing
    /// left to learn and ignores it.
    pub fn observe(&mut self, candidate: usize, m: Measurement) {
        if self.finalized.is_some() {
            return;
        }
        let trial = self.trials;
        let Reading { norm, reason, verdict } = self.rule.observe(candidate, m);
        let entry = |reason, finalized| TuneDecision {
            trial,
            version: candidate,
            cycles: m.cycles,
            norm_cycles: norm,
            reason,
            finalized,
        };
        if let Some(reason) = reason {
            self.trials += 1;
            if let Verdict::Finalize(v) = verdict {
                self.finalized = Some(v);
            }
            self.push(entry(reason, self.finalized));
        }
        if verdict == Verdict::Exhausted {
            if let Some(best) = self.rule.best_guess() {
                self.finalized = Some(best);
                self.push(entry(TuneReason::Exhausted, self.finalized));
            }
        }
    }

    /// The relative slowdown `cycles` would register against the
    /// rule's current comparison anchor (the resilient borderline
    /// probe). `None` when there is no anchor — a finalized policy, the
    /// walk's baseline trial, or the bandit, whose sweep has no
    /// previous step — and the caller skips the borderline extension.
    #[must_use]
    pub fn probe_slowdown(&self, cycles: u64) -> Option<f64> {
        match (&self.rule, self.finalized) {
            (Rule::Walk(w), None) => w.probe_slowdown(cycles),
            _ => None,
        }
    }

    /// Remove `candidate` after launch failures; the search continues
    /// over the survivors. Its measurements are forgotten so it can
    /// never win a comparison ([`TuneReason::Quarantined`]). If it was
    /// the finalized pick, the policy *falls back* to the fail-safe
    /// version, else the original, else the rule's best guess
    /// ([`TuneReason::FellBack`]), and returns that replacement.
    pub fn quarantine(&mut self, candidate: usize) -> Option<usize> {
        if !self.alive(candidate) {
            return None; // already quarantined, or out of range
        }
        self.quarantined[candidate] = true;
        self.rule.forget(candidate);
        let fell_back = self.finalized == Some(candidate);
        let reason = if fell_back {
            self.finalized = self.fallback();
            TuneReason::FellBack
        } else {
            if self.finalized.is_none() && self.rule.next().is_none() {
                // The search ran out of candidates; settle on its best
                // guess, or engage the fallback chain if none remain.
                self.finalized = self.rule.best_guess().or_else(|| self.fallback());
            }
            TuneReason::Quarantined
        };
        self.push(TuneDecision {
            trial: self.trials,
            version: candidate,
            cycles: 0,
            norm_cycles: 0,
            reason,
            finalized: self.finalized,
        });
        self.finalized.filter(|_| fell_back)
    }

    /// Settle immediately because a service deadline was reached. A
    /// finalized pick is kept; an unfinished search resolves to the
    /// *original* version when it is still alive — the paper's
    /// fail-safe answer, not the best guess of a search cut short — else
    /// to the fallback chain. Records a [`TuneReason::Degraded`]
    /// decision either way, and returns the settled candidate (`None`
    /// when every candidate is quarantined).
    pub fn degrade(&mut self) -> Option<usize> {
        if self.finalized.is_none() {
            self.finalized =
                Some(self.original).filter(|&v| self.alive(v)).or_else(|| self.fallback());
        }
        self.push(TuneDecision {
            trial: self.trials,
            version: self.finalized.unwrap_or(self.original),
            cycles: 0,
            norm_cycles: 0,
            reason: TuneReason::Degraded,
            finalized: self.finalized,
        });
        self.finalized
    }

    /// Whether `candidate` has been quarantined.
    #[must_use]
    pub fn is_quarantined(&self, candidate: usize) -> bool {
        self.quarantined.get(candidate).copied().unwrap_or(false)
    }

    /// How many candidates have been quarantined so far.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// Exploration measurements consumed so far.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The decision log so far.
    #[must_use]
    pub fn decisions(&self) -> &[TuneDecision] {
        &self.decisions
    }

    fn alive(&self, v: usize) -> bool {
        self.quarantined.get(v) == Some(&false)
    }

    /// The replacement for a dead pick: the fail-safe version, then the
    /// original, then the rule's best guess.
    fn fallback(&self) -> Option<usize> {
        self.fail_safe
            .filter(|&v| self.alive(v))
            .or_else(|| Some(self.original).filter(|&v| self.alive(v)))
            .or_else(|| self.rule.best_guess())
    }

    /// Log a decision: the decision log is the one record of the walk's
    /// choices, quarantines, fallbacks and degradations.
    fn push(&mut self, decision: TuneDecision) {
        self.decisions.push(decision);
    }
}

/// A search rule's own state.
#[derive(Debug, Clone)]
enum Rule {
    Walk(Walk),
    Bandit(Bandit),
}

/// What one measurement meant to a search rule.
struct Reading {
    /// The measurement in the rule's comparison scale.
    norm: u64,
    /// The reason the measurement is logged under as a trial; `None`
    /// when the rule had no trial to run (a walk measured past its end).
    reason: Option<TuneReason>,
    verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Keep exploring.
    Continue,
    /// Finalize on this candidate; the trial's own entry carries the
    /// reason (the walk's stop rules).
    Finalize(usize),
    /// No exploration left: finalize on the best guess, logged as an
    /// entry of its own with [`TuneReason::Exhausted`].
    Exhausted,
}

impl Rule {
    /// The candidate the rule wants measured next; `None` when its
    /// exploration is over.
    fn next(&self) -> Option<usize> {
        match self {
            Rule::Walk(w) => w.next(),
            Rule::Bandit(b) => b.next(),
        }
    }

    fn observe(&mut self, candidate: usize, m: Measurement) -> Reading {
        match self {
            Rule::Walk(w) => w.observe(candidate, m),
            Rule::Bandit(b) => b.observe(candidate, m),
        }
    }

    /// The rule's pick if it had to commit now: the walk's fastest
    /// measured survivor, the bandit's incumbent.
    fn best_guess(&self) -> Option<usize> {
        match self {
            Rule::Walk(w) => w.best_guess(),
            Rule::Bandit(b) => b.best_guess(),
        }
    }

    /// Drop a quarantined candidate from the search; its measurements
    /// no longer count in any comparison.
    fn forget(&mut self, candidate: usize) {
        match self {
            Rule::Walk(w) => w.forget(candidate),
            Rule::Bandit(b) => b.live.retain(|&i| i != candidate),
        }
    }
}

/// The Figure 9 walk's state.
#[derive(Debug, Clone)]
struct Walk {
    /// Surviving candidates in the compiler's tuning order.
    order: Vec<usize>,
    direction: Direction,
    threshold: f64,
    /// Position in `order` currently being evaluated.
    pos: usize,
    /// Measured (work-normalized) cycles per version (by version index).
    times: Vec<Option<u64>>,
}

impl Walk {
    fn next(&self) -> Option<usize> {
        self.order.get(self.pos).copied()
    }

    /// The degradation test. `work` normalizes the measurement by the
    /// invocation's amount of work (e.g. the BFS frontier size): the
    /// paper observes that bfs "does different amounts of work in each
    /// iteration, making it difficult to compare consecutive
    /// invocations" and proposes exactly this multiplicative correction
    /// as future work (§4.2).
    ///
    /// A robust measurement's noise margin widens the test's tolerance
    /// to `max(base, noise_margin)` — base 0 for the upward walk (whose
    /// stop rule is otherwise "any increase", a coin flip on a noisy
    /// plateau) and the slowdown threshold for the downward walk
    /// (already noise-sized, so the margin only takes over when the
    /// observed noise is larger).
    fn observe(&mut self, candidate: usize, m: Measurement) -> Reading {
        // A zero factor counts as one, as in the bandit.
        let (work, margin) = match (m.work, m.noise_margin) {
            (Some(work), _) => (work.max(1), 0.0),
            (None, margin) => (1, margin.unwrap_or(0.0).max(0.0)),
        };
        // Normalize to cycles per 2^20 work items to keep integer math.
        let norm = m.cycles.saturating_mul(1 << 20) / work;
        // Past the end of the order (a baseline whose order quarantines
        // shrank to one): no trial left, settle on the best guess.
        let Some(cur) = self.next() else {
            return Reading { norm, reason: None, verdict: Verdict::Exhausted };
        };
        debug_assert_eq!(candidate, cur, "walk measurements arrive in order");
        self.times[cur] = Some(norm);
        if self.pos == 0 {
            self.pos += 1;
            return Reading {
                norm,
                reason: Some(TuneReason::Baseline),
                verdict: Verdict::Continue,
            };
        }
        let prev = self.order[self.pos - 1];
        let cur_t = norm as f64;
        let degraded = match self.direction {
            Direction::Increasing => match self.times[prev] {
                // The margin keeps measurement noise from mimicking a
                // slowdown; 0 restores the paper's exact "any increase
                // stops the walk" rule.
                Some(t) => cur_t > t as f64 * (1.0 + margin),
                // The comparison anchor was quarantined away; nothing to
                // regress against, keep walking.
                None => false,
            },
            Direction::Decreasing => {
                // `cur` was just recorded, so the minimum exists.
                let best = self.times.iter().flatten().copied().min().unwrap_or(norm) as f64;
                // The paper's threshold already absorbs noise up to its
                // own size — widening it *additively* would let a margin
                // mask a genuine just-over-threshold degradation. The
                // margin only takes over when the observed noise exceeds
                // the threshold itself.
                cur_t / best - 1.0 > self.threshold.max(margin)
            }
        };
        let (reason, verdict) = if degraded {
            (TuneReason::SlowdownExceeded, Verdict::Finalize(prev))
        } else if self.pos + 1 >= self.order.len() {
            let pick = match self.direction {
                // Exhausted upward: keep the fastest observed.
                Direction::Increasing => self
                    .order
                    .iter()
                    .copied()
                    .min_by_key(|&v| self.times[v].unwrap_or(u64::MAX))
                    .unwrap_or(cur),
                // Exhausted downward: the current (lowest acceptable).
                Direction::Decreasing => cur,
            };
            (TuneReason::Exhausted, Verdict::Finalize(pick))
        } else {
            self.pos += 1;
            (TuneReason::NotDegraded, Verdict::Continue)
        };
        Reading { norm, reason: Some(reason), verdict }
    }

    /// The fastest measured survivor, else the first unmeasured one.
    fn best_guess(&self) -> Option<usize> {
        self.order
            .iter()
            .copied()
            .filter(|&v| self.times[v].is_some())
            .min_by_key(|&v| self.times[v].unwrap_or(u64::MAX))
            .or_else(|| self.order.first().copied())
    }

    fn forget(&mut self, candidate: usize) {
        self.times[candidate] = None;
        if let Some(idx) = self.order.iter().position(|&v| v == candidate) {
            self.order.remove(idx);
            if idx < self.pos {
                self.pos -= 1;
            }
        }
    }

    /// The relative slowdown `cycles / anchor - 1` of a prospective
    /// (unit-work) measurement against the walk's current comparison
    /// anchor — the previous version's time when tuning upward, the
    /// best time so far when tuning downward. `None` on the baseline
    /// trial or with a quarantined-away anchor.
    fn probe_slowdown(&self, cycles: u64) -> Option<f64> {
        if self.pos == 0 || self.pos >= self.order.len() {
            return None;
        }
        // Match `observe`'s unit-work normalization: stored times carry
        // the 2^20 scale factor.
        let cur_t = cycles.saturating_mul(1 << 20) as f64;
        let anchor = match self.direction {
            Direction::Increasing => self.times[self.order[self.pos - 1]],
            Direction::Decreasing => self.times.iter().flatten().copied().min(),
        }?;
        Some(cur_t / anchor.max(1) as f64 - 1.0)
    }
}

/// Knobs of the bandit rule. All-integer so the config stays
/// `Copy + Eq` inside [`PolicyKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BanditConfig {
    /// UCB exploration constant × 1000 (relative to the incumbent
    /// mean). 0 disables refinement pulls entirely.
    pub exploration_milli: u32,
    /// Pre-pruning slack, percent: arms whose analytic bound exceeds
    /// the best bound by more than this are dropped without ever being
    /// launched. `u32::MAX` disables pruning.
    pub prune_slack_pct: u32,
    /// Extra confirmation pulls of the incumbent before finalizing.
    pub confirm_pulls: u32,
    /// Cap on the *total* pulls of the live arms; 0 derives `4 × live
    /// arms`. It is checked only after the sweep has pulled every live
    /// arm once, so a cap at or below the arm count stops the search
    /// right after the sweep: no confirm or UCB pull runs.
    pub max_pulls: u32,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig { exploration_milli: 500, prune_slack_pct: 30, confirm_pulls: 0, max_pulls: 0 }
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
}

impl Arm {
    fn mean(&self) -> Option<u64> {
        if self.pulls == 0 {
            None
        } else {
            u64::try_from(self.total / u128::from(self.pulls)).ok()
        }
    }
}

/// The bandit rule's state: deterministic UCB over the arms that
/// survive the [`analytic_bound`] pre-prune.
#[derive(Debug, Clone)]
struct Bandit {
    cfg: BanditConfig,
    arms: Vec<Arm>,
    /// Arms still explored, ascending by id: neither fail-safe, pruned
    /// nor quarantined.
    live: Vec<usize>,
    /// Arms the pre-prune dropped.
    pruned: usize,
}

impl Bandit {
    fn new(
        ck: &CompiledKernel,
        bound: impl Fn(usize, &KernelVersion) -> u64,
        cfg: BanditConfig,
    ) -> Self {
        let arms: Vec<Arm> = ck
            .versions
            .iter()
            .enumerate()
            .map(|(i, v)| Arm {
                bound: if v.fail_safe { u64::MAX } else { bound(i, v) },
                pulls: 0,
                total: 0,
            })
            .collect();
        let explored: Vec<usize> = (0..arms.len()).filter(|&i| !ck.versions[i].fail_safe).collect();
        // Pre-prune: drop every arm whose bound exceeds the best bound
        // by more than the slack — no simulated launch is ever spent on
        // them. The original always survives (it is the fail-safe
        // answer and the walk's own starting point).
        let best = explored.iter().map(|&i| arms[i].bound).min().unwrap_or(0);
        let limit = if cfg.prune_slack_pct == u32::MAX {
            u64::MAX
        } else {
            u64::try_from(u128::from(best) * (100 + u128::from(cfg.prune_slack_pct)) / 100)
                .unwrap_or(u64::MAX)
        };
        let live: Vec<usize> = explored
            .iter()
            .copied()
            .filter(|&i| i == ck.original || arms[i].bound <= limit)
            .collect();
        let pruned = explored.len() - live.len();
        Bandit { cfg, arms, live, pruned }
    }

    /// The incumbent: best measured mean among live arms (ties: lower
    /// bound, then lower id), else the lowest-bound live arm.
    fn best_guess(&self) -> Option<usize> {
        self.live
            .iter()
            .copied()
            .filter(|&i| self.arms[i].pulls > 0)
            .min_by_key(|&i| (self.arms[i].mean().unwrap_or(u64::MAX), self.arms[i].bound, i))
            .or_else(|| self.live.iter().copied().min_by_key(|&i| (self.arms[i].bound, i)))
    }

    fn max_pulls(&self) -> u32 {
        if self.cfg.max_pulls > 0 {
            self.cfg.max_pulls
        } else {
            4 * (self.live.len() as u32).max(1)
        }
    }

    /// The exploration pull the schedule wants next, `None` when it is
    /// time to finalize.
    fn next(&self) -> Option<usize> {
        // Phase 1 — sweep: every live arm gets one pull, ascending
        // bound (cheapest-looking first), ties by id. The pull cap is
        // not checked until the sweep is done.
        if let Some(i) = self
            .live
            .iter()
            .copied()
            .filter(|&i| self.arms[i].pulls == 0)
            .min_by_key(|&i| (self.arms[i].bound, i))
        {
            return Some(i);
        }
        let total: u32 = self.live.iter().map(|&i| self.arms[i].pulls).sum();
        if total >= self.max_pulls() {
            return None;
        }
        let best = self.best_guess()?;
        // Phase 2 — confirm the incumbent.
        if self.arms[best].pulls < 1 + self.cfg.confirm_pulls {
            return Some(best);
        }
        // Phase 3 — UCB refinement: pull the most optimistic challenger
        // while any could still beat the incumbent's mean.
        let best_mean = self.arms[best].mean()?;
        let c = f64::from(self.cfg.exploration_milli) / 1000.0;
        let ln_t = f64::from(total.max(2)).ln();
        self.live
            .iter()
            .copied()
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

    /// One pull of arm `candidate`. The first pull of the search is its
    /// baseline; the search finalizes once the schedule wants no
    /// further pull.
    fn observe(&mut self, candidate: usize, m: Measurement) -> Reading {
        let norm = match m.work {
            // §4.2's integer normalization, same scale as the walk.
            Some(w) => m.cycles.saturating_mul(1 << 20) / w.max(1),
            None => m.cycles,
        };
        let baseline = self.arms.iter().all(|a| a.pulls == 0);
        let arm = &mut self.arms[candidate];
        arm.pulls += 1;
        arm.total += u128::from(norm);
        let reason = if baseline { TuneReason::Baseline } else { TuneReason::NotDegraded };
        let verdict = if self.next().is_none() { Verdict::Exhausted } else { Verdict::Continue };
        Reading { norm, reason: Some(reason), verdict }
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

    /// Measure the candidate `p` proposes.
    fn record(p: &mut Policy, m: Measurement) {
        let v = p.propose().expect("a live candidate");
        p.observe(v, m);
    }

    fn finalized(p: &Policy) -> Option<usize> {
        match p.verdict() {
            PolicyVerdict::Finalized(v) => Some(v),
            PolicyVerdict::Exploring | PolicyVerdict::Dead => None,
        }
    }

    /// Measure `times[v]` for each proposed `v` until the policy stops
    /// exploring; returns the measured sequence.
    fn drive(policy: &mut Policy, times: &[u64]) -> Vec<usize> {
        let mut sequence = Vec::new();
        while matches!(policy.verdict(), PolicyVerdict::Exploring) {
            let v = policy.propose().expect("alive");
            sequence.push(v);
            policy.observe(v, Measurement::raw(times[v]));
            assert!(sequence.len() <= 256, "search failed to converge: {sequence:?}");
        }
        sequence
    }

    /// Run `check` on a fresh policy of each rule over `ck`: the walk,
    /// and the bandit with equal bounds and no pruning.
    fn for_both_rules(ck: &CompiledKernel, check: impl Fn(&mut Policy)) {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        for mut policy in [Policy::walk(ck, 0.02), Policy::bandit(ck, |_, _| 100, cfg)] {
            eprintln!(
                "rule: {}",
                if matches!(policy.rule, Rule::Walk(_)) { "walk" } else { "bandit" }
            );
            check(&mut policy);
        }
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

        let mut strict = Policy::walk(&ck, 0.02);
        for &t in &times {
            record(&mut strict, Measurement::noisy(t, 0.0));
            if finalized(&strict).is_some() {
                break;
            }
        }
        assert_eq!(finalized(&strict), Some(0), "margin 0 keeps the paper rule");

        let mut tolerant = Policy::walk(&ck, 0.02);
        for &t in &times {
            record(&mut tolerant, Measurement::noisy(t, 0.05));
        }
        assert_eq!(finalized(&tolerant), Some(2), "5% margin absorbs a 1% wobble");

        // Decreasing: 2.5% slip is over the 2% threshold alone, but
        // inside a 5% noise margin, which takes over when larger than
        // the threshold (max semantics, never additive).
        let ck = fake_compiled(&[48, 36, 24], Direction::Decreasing);
        let times = [1000u64, 1025, 1100];

        let mut strict = Policy::walk(&ck, 0.02);
        for &t in &times {
            record(&mut strict, Measurement::noisy(t, 0.0));
            if finalized(&strict).is_some() {
                break;
            }
        }
        assert_eq!(finalized(&strict), Some(0), "2.5% over best degrades at margin 0");

        let mut tolerant = Policy::walk(&ck, 0.02);
        for &t in &times {
            record(&mut tolerant, Measurement::noisy(t, 0.05));
            if finalized(&tolerant).is_some() {
                break;
            }
        }
        assert_eq!(
            finalized(&tolerant),
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
        let mut walk = Policy::walk(&ck, 0.02);
        for _ in 0..4 {
            let v = walk.select();
            walk.observe(v, Measurement::with_work(per_work[v] * work[v], work[v]));
            if finalized(&walk).is_some() {
                break;
            }
        }
        assert_eq!(finalized(&walk), Some(1), "lowest occupancy at equal per-work cost");

        // The naive walk stops at the original because raw times differ.
        let mut naive = Policy::walk(&ck, 0.02);
        for _ in 0..4 {
            let v = naive.select();
            naive.observe(v, Measurement::raw(per_work[v] * work[v]));
            if finalized(&naive).is_some() {
                break;
            }
        }
        assert_eq!(finalized(&naive), Some(0));
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
        let mut walk = Policy::walk(&ck, 0.02);
        // Measure v0, then v1 (suspiciously fast — it then crashes).
        record(&mut walk, Measurement::raw(times[0]));
        assert_eq!(walk.select(), 1);
        record(&mut walk, Measurement::raw(times[1]));
        assert_eq!(walk.quarantine(1), None, "no pick died, so nothing replaces one");
        assert!(walk.is_quarantined(1));
        // Walk resumes at v2; v2 at 90 beats v0's 100, v3 at 95 degrades.
        while finalized(&walk).is_none() {
            let v = walk.select();
            assert_ne!(v, 1, "quarantined version must never be selected");
            walk.observe(v, Measurement::raw(times[v]));
        }
        assert_eq!(finalized(&walk), Some(2), "best survivor, not the dead v1");
        assert!(walk
            .decisions()
            .iter()
            .any(|d| d.reason == TuneReason::Quarantined && d.version == 1));
    }

    #[test]
    fn quarantine_before_first_measurement_keeps_walk_sound() {
        // Quarantine the version currently under evaluation before it
        // was ever measured: select() moves on, no panic, and the
        // degradation test still anchors correctly.
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        let times = [100u64, 0, 90, 95];
        let mut walk = Policy::walk(&ck, 0.02);
        record(&mut walk, Measurement::raw(times[0]));
        assert_eq!(walk.select(), 1);
        walk.quarantine(1); // died on launch, never measured
        assert_eq!(walk.select(), 2);
        record(&mut walk, Measurement::raw(times[2]));
        record(&mut walk, Measurement::raw(times[3]));
        assert_eq!(finalized(&walk), Some(2));
    }

    // The roster's rules, run over both search rules.

    #[test]
    fn quarantining_finalized_version_falls_back_to_fail_safe() {
        let ck = fake_compiled_with_fail_safe(&[8, 16, 32], Direction::Increasing);
        for_both_rules(&ck, |p| {
            drive(p, &[100, 80, 90]);
            assert_eq!(p.verdict(), PolicyVerdict::Finalized(1));
            assert_eq!(p.quarantine(1), Some(3), "fail-safe version takes over");
            assert_eq!(p.decisions().last().unwrap().reason, TuneReason::FellBack);
            assert_eq!(p.verdict(), PolicyVerdict::Finalized(3));
        });
    }

    #[test]
    fn quarantined_finalized_arm_falls_back() {
        // No fail-safe and a dead original: the best guess takes over,
        // and once it dies too the policy is dead.
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        for_both_rules(&ck, |p| {
            drive(p, &[50, 80]);
            assert_eq!(p.verdict(), PolicyVerdict::Finalized(0));
            assert_eq!(p.quarantine(0), Some(1));
            assert_eq!(p.decisions().last().unwrap().reason, TuneReason::FellBack);
            assert_eq!(p.quarantine(1), None);
            assert_eq!(p.verdict(), PolicyVerdict::Dead);
            assert!(p.propose().is_none());
        });
    }

    #[test]
    fn quarantining_everything_is_detectable_and_select_stays_total() {
        let ck = fake_compiled(&[8, 16], Direction::Increasing);
        for_both_rules(&ck, |p| {
            p.quarantine(0);
            p.quarantine(1);
            assert_eq!(p.verdict(), PolicyVerdict::Dead);
            assert!(p.propose().is_none());
            assert_eq!(p.quarantined_count(), 2);
            // select() still returns a last-resort index without panicking.
            let _ = p.select();
        });
    }

    #[test]
    fn degrade_mid_walk_settles_on_original_and_logs_it() {
        let ck = fake_compiled(&[8, 16, 32, 48], Direction::Increasing);
        for_both_rules(&ck, |p| {
            record(p, Measurement::raw(100)); // baseline measured, search in flight
            assert_eq!(finalized(p), None);
            assert_eq!(p.degrade(), Some(0), "unfinished search degrades to the original");
            assert_eq!(finalized(p), Some(0));
            let last = p.decisions().last().unwrap();
            assert_eq!(last.reason, TuneReason::Degraded);
            assert_eq!(last.finalized, Some(0));
        });
    }

    #[test]
    fn degrade_keeps_finalized_and_prefers_fail_safe_over_dead_original() {
        // Already finalized: degrade is a no-op on the selection.
        let ck = fake_compiled(&[8, 16, 32], Direction::Increasing);
        for_both_rules(&ck, |p| {
            drive(p, &[100, 80, 90]);
            assert_eq!(finalized(p), Some(1));
            assert_eq!(p.degrade(), Some(1), "finalized selection is kept");
        });
        // Dead original: the fail-safe takes over.
        let ck = fake_compiled_with_fail_safe(&[8, 16, 32], Direction::Increasing);
        for_both_rules(&ck, |p| {
            p.quarantine(0); // the original
            assert_eq!(p.degrade(), Some(3), "fail-safe replaces a dead original");
        });
    }

    #[test]
    fn decision_log_records_exhausted_run() {
        let ck = fake_compiled(&[8, 16, 32], Direction::Increasing);
        let out = walk(&ck, 6, &[100, 90, 70]);
        let last = out.decisions.last().unwrap();
        assert_eq!(last.reason, TuneReason::Exhausted, "final decision carries a finalize reason");
        assert_eq!(last.finalized, Some(2), "exhausting the list keeps the best version");
    }

    fn bandit(bounds: &[u64], cfg: BanditConfig) -> Policy {
        let ck = fake_compiled(&vec![8; bounds.len()], Direction::Increasing);
        Policy::bandit(&ck, |i, _| bounds[i], cfg)
    }

    #[test]
    fn bandit_prunes_dominated_arms_without_launching_them() {
        // Arm 2's bound is 10× the best: pruned, never proposed.
        let mut p = bandit(&[100, 110, 1000], BanditConfig::default());
        assert_eq!(p.pruned_arms(), 1);
        let seq = drive(&mut p, &[50, 40, 1]);
        assert!(!seq.contains(&2), "dominated arm was launched: {seq:?}");
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(1));
    }

    #[test]
    fn bandit_is_deterministic() {
        let times = [90u64, 70, 80, 75];
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut a = bandit(&[100, 100, 100, 100], cfg);
        let mut b = bandit(&[100, 100, 100, 100], cfg);
        assert_eq!(drive(&mut a, &times), drive(&mut b, &times));
        assert_eq!(a.select(), b.select());
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn degrade_settles_on_the_original() {
        // A fast first pull does not finalize the bandit; degrading
        // keeps the original, not the measured arm.
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100, 100], cfg);
        record(&mut p, Measurement::raw(10));
        assert_eq!(p.degrade(), Some(0));
        assert_eq!(p.decisions().last().unwrap().reason, TuneReason::Degraded);
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
    fn work_normalization_matches_the_walk_scale() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100], cfg);
        record(&mut p, Measurement::with_work(100, 1 << 20));
        assert_eq!(p.decisions()[0].norm_cycles, 100);
        // A zero factor reads as one in both rules.
        let mut p = bandit(&[100, 100], cfg);
        record(&mut p, Measurement::with_work(100, 0));
        let mut walk = Policy::walk(&fake_compiled(&[8, 16], Direction::Increasing), 0.02);
        record(&mut walk, Measurement::with_work(100, 0));
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
