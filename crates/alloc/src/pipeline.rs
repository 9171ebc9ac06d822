//! The explicit pass pipeline behind [`crate::realize::allocate`].
//!
//! The §3.2 realize-occupancy flow is staged as named passes over a
//! shared [`PipelineState`], each producing one typed artifact:
//!
//! | stage        | pass                                            | artifact |
//! |--------------|-------------------------------------------------|----------|
//! | `normalize`  | [`NormalizePass`]                               | [`NormalizedModule`] — per-function webs + max-live |
//! | `color`      | [`ColorPass`]                                   | [`ColoredModule`] — colorings, units, call contexts, frame bases |
//! | `spill`      | [`SpillPass`]                                   | [`SpillSet`] — local-memory homes of spilled webs |
//! | `stack-plan` | [`StackPlanPass`]                               | [`StackPlan`] — per-call `B_k` + liveness for the layout model |
//! | `layout`     | [`KuhnMunkresLayoutPass`] / [`IdentityLayoutPass`] | [`SlotLayout`] — applied slot permutation + predicted moves |
//! | `lower`      | [`LowerPass`]                                   | [`Allocated`] — machine code + report |
//! | `mir-verify` | [`MirVerifyPass`]                               | gate: machine-IR invariants |
//!
//! [`Pipeline::standard`] assembles the production sequence for a given
//! [`AllocOptions`]; the Figure 5 ablations are *pipeline edits* —
//! `optimize_layout: false` replaces the `layout` stage with
//! [`IdentityLayoutPass`], `compress_stack: false` additionally swaps
//! in a non-compressing [`ColorPass`] — and custom experiments can do
//! the same through [`Pipeline::replace`] / [`Pipeline::insert_after`] /
//! [`Pipeline::remove`].
//!
//! ## Verified stage boundaries
//!
//! In verified mode (debug builds, the `verify` cargo feature, or
//! [`Pipeline::verified`]) the driver runs each pass's
//! [`Pass::check`] interceptor after the pass — coloring validity,
//! spill-slot disjointness, packed-height ≥ budget, post-layout
//! validity — and the final [`MirVerifyPass`] gates the lowered module
//! through [`orion_kir::mir_verify`] with the exact parallel-move run
//! boundaries recorded during lowering. Any failure surfaces as a
//! source-chained [`AllocError::Stage`] naming the offending stage.
//! Release builds without the feature skip all of it.
//!
//! Each pass runs under an `orion-telemetry` span (`alloc/<stage>`), so
//! traces show per-stage timing; the allocator's counts live in
//! [`AllocReport`].

use crate::chaitin::{color, validate};
use crate::interference::InterferenceGraph;
use crate::layout::{apply_layout, identity_layout, optimize_layout, CallLayoutInfo};
use crate::realize::{
    chunk_widths, lower_inst, lower_operand, AllocError, AllocOptions, AllocReport, Allocated,
    CallSiteCtx, FuncAllocInfo, FuncCtx, SlotBudget, SCRATCH_SLOTS,
};
use crate::stack::{
    extract_units, live_units, min_packed_height, pack_live_units, sequentialize, PMove, Unit,
};
use orion_kir::bitset::BitSet;
use orion_kir::callgraph::CallGraph;
use orion_kir::cfg::Cfg;
use orion_kir::function::{Function, Module};
use orion_kir::inst::Opcode;
use orion_kir::liveness::{max_live, Liveness};
use orion_kir::mir::{MBlock, MFunction, MInst, MLoc, MModule};
use orion_kir::mir_verify::{verify_mir_with, MirVerifyConfig, MoveRuns};
use orion_kir::ssa::normalize;
use orion_kir::types::{FuncId, Width};
use std::collections::HashMap;

/// Whether stage-boundary verification is compiled in: debug builds and
/// the `verify` cargo feature. [`Pipeline::verified`] forces it on per
/// pipeline regardless.
pub fn verification_enabled() -> bool {
    cfg!(debug_assertions) || cfg!(feature = "verify")
}

/// One normalized function: φ-coalesced webs plus its max-live metric.
#[derive(Debug, Clone)]
pub struct NormFunc {
    /// The web-normalized function body.
    pub nf: Function,
    /// Max simultaneously live words (§3.3 direction metric).
    pub max_live: u32,
}

/// Artifact of `normalize`: the call-graph traversal order and each
/// reachable function's webs.
#[derive(Debug, Clone)]
pub struct NormalizedModule {
    /// Functions in caller-before-callee order.
    pub topdown: Vec<FuncId>,
    /// Indexed by function id; `None` for call-graph-unreachable funcs.
    pub funcs: Vec<Option<NormFunc>>,
}

/// One colored function: slots, movable units, analyzed call sites.
#[derive(Debug, Clone)]
pub struct ColoredFunc {
    /// Web → slot assignment (relative to `base`) and spill list.
    pub coloring: crate::chaitin::Coloring,
    /// Movable slot groups for stack compression.
    pub units: Vec<Unit>,
    /// Call sites in lowering order with caller-unit liveness.
    pub calls: Vec<CallSiteCtx>,
    /// Absolute frame base this function was colored at.
    pub base: u16,
}

/// Artifact of `color`: per-function colorings plus the final absolute
/// frame base of every function (raised while scanning call sites).
#[derive(Debug, Clone)]
pub struct ColoredModule {
    /// Indexed by function id.
    pub funcs: Vec<Option<ColoredFunc>>,
    /// Final absolute frame base per function id.
    pub bases: Vec<u16>,
}

/// Artifact of `spill`: local-memory homes for every spilled web.
#[derive(Debug, Clone)]
pub struct SpillSet {
    /// Per function id: spilled web → first local slot.
    pub slots: Vec<HashMap<usize, u16>>,
    /// Total local slots consumed (scratch area included).
    pub local_slots: u16,
}

/// Artifact of `stack-plan`: the layout model's per-call inputs
/// (`B_k` and unit liveness), per function id.
#[derive(Debug, Clone)]
pub struct StackPlan {
    /// Indexed by function id, then call site in lowering order.
    pub call_infos: Vec<Vec<CallLayoutInfo>>,
}

/// Artifact of `layout`: the permutation has been applied in place to
/// the colorings/units; this records the Theorem 1 move prediction.
#[derive(Debug, Clone)]
pub struct SlotLayout {
    /// Predicted compression moves per function id (the KM objective).
    pub predicted_moves: Vec<u32>,
}

/// Mutable state threaded through the passes. Each stage reads the
/// artifacts of its predecessors and stores its own.
pub struct PipelineState<'m> {
    /// The input module.
    pub module: &'m Module,
    /// The per-thread on-chip slot budget being realized.
    pub budget: SlotBudget,
    /// Whether stage-boundary checks are active for this run.
    pub verify: bool,
    /// Artifact of the `normalize` stage.
    pub normalized: Option<NormalizedModule>,
    /// Artifact of the `color` stage.
    pub colored: Option<ColoredModule>,
    /// Artifact of the `spill` stage.
    pub spills: Option<SpillSet>,
    /// Artifact of the `stack-plan` stage.
    pub stack: Option<StackPlan>,
    /// Artifact of the `layout` stage.
    pub layout: Option<SlotLayout>,
    /// Artifact of the `lower` stage: the final machine code + report.
    pub output: Option<Allocated>,
    /// Exact parallel-move block boundaries emitted by `lower`,
    /// consumed by `mir-verify` (not part of the machine code).
    pub move_runs: MoveRuns,
}

impl<'m> PipelineState<'m> {
    /// Fresh state over `module` and `budget`.
    pub fn new(module: &'m Module, budget: SlotBudget, verify: bool) -> Self {
        PipelineState {
            module,
            budget,
            verify,
            normalized: None,
            colored: None,
            spills: None,
            stack: None,
            layout: None,
            output: None,
            move_runs: MoveRuns::new(),
        }
    }
}

/// A required artifact was missing: a pass ran before its producer.
fn missing(stage: &str, artifact: &str) -> AllocError {
    AllocError::Internal(format!(
        "stage `{stage}` requires the `{artifact}` artifact, but no prior pass produced it"
    ))
}

/// One named stage of the allocation pipeline.
pub trait Pass {
    /// Stable stage name used for pipeline edits and telemetry spans.
    fn name(&self) -> &'static str;

    /// Produce this stage's artifact in `st`.
    ///
    /// # Errors
    /// Domain errors ([`AllocError::Ssa`], [`AllocError::Recursion`],
    /// [`AllocError::PredicatedCall`]) propagate as-is; anything else
    /// is wrapped by the driver into [`AllocError::Stage`].
    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError>;

    /// Stage-boundary invariant check, run after [`Pass::run`] in
    /// verified mode only.
    ///
    /// # Errors
    /// Returns a diagnostic (wrapped into [`AllocError::Stage`] by the
    /// driver) when the artifact just produced violates an invariant.
    fn check(&self, _st: &PipelineState<'_>) -> Result<(), AllocError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// normalize
// ---------------------------------------------------------------------

/// `normalize`: call-graph order + SSA → pruned φ → coalesced webs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizePass;

impl Pass for NormalizePass {
    fn name(&self) -> &'static str {
        "normalize"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        let module = st.module;
        let cg = CallGraph::new(module);
        let bottom_up = cg.bottom_up(module.entry)?;
        let topdown: Vec<FuncId> = bottom_up.iter().rev().copied().collect();
        let mut funcs: Vec<Option<NormFunc>> = (0..module.funcs.len()).map(|_| None).collect();
        for &fid in &topdown {
            let nf = normalize(module.func(fid))?;
            let cfg = Cfg::new(&nf);
            let live = Liveness::new(&nf, &cfg);
            let ml = max_live(&nf, &cfg, &live);
            funcs[fid.0 as usize] = Some(NormFunc { nf, max_live: ml });
        }
        st.normalized = Some(NormalizedModule { topdown, funcs });
        Ok(())
    }
}

// ---------------------------------------------------------------------
// color
// ---------------------------------------------------------------------

/// `color`: Chaitin-Briggs per function in caller-first order, unit
/// extraction, call-site liveness, and frame-base raising.
///
/// `compress` selects the paper's space minimization: callee frames
/// start at the caller's *compressed* live height `B_k` instead of
/// above its whole frame. `ColorPass { compress: false }` is the
/// Figure 5 "no stack compression" ablation as a pipeline edit.
#[derive(Debug, Clone, Copy)]
pub struct ColorPass {
    /// Compress caller frames at calls (the default).
    pub compress: bool,
}

impl Pass for ColorPass {
    fn name(&self) -> &'static str {
        "color"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        let norm = st.normalized.as_ref().ok_or_else(|| missing(self.name(), "normalize"))?;
        let total = st.budget.total();
        let n = st.module.funcs.len();
        let mut bases = vec![0u16; n];
        let mut funcs: Vec<Option<ColoredFunc>> = (0..n).map(|_| None).collect();
        for &fid in &norm.topdown {
            let nf = &norm.funcs[fid.0 as usize]
                .as_ref()
                .ok_or_else(|| missing(self.name(), "normalize"))?
                .nf;
            let cfg = Cfg::new(nf);
            let live = Liveness::new(nf, &cfg);
            let graph = InterferenceGraph::build(nf, &cfg, &live);
            let base = bases[fid.0 as usize];
            let fbudget = total.saturating_sub(base);
            let coloring = color(&graph, fbudget, base)?;
            let units = extract_units(&coloring, &nf.vreg_widths)?;

            let mut calls = Vec::new();
            for (bid, blk) in nf.iter_blocks() {
                if !cfg.reachable(bid) {
                    continue;
                }
                for (idx, inst) in blk.insts.iter().enumerate() {
                    let Opcode::Call(callee) = inst.op else { continue };
                    if inst.pred.is_some() {
                        return Err(AllocError::PredicatedCall { func: nf.name.clone() });
                    }
                    let live_webs: BitSet = {
                        let mut s = BitSet::new(nf.num_vregs());
                        for v in live.live_across(nf, bid, idx) {
                            s.insert(v.0 as usize);
                        }
                        s
                    };
                    let lu = live_units(&units, &live_webs);
                    let bk_min = if self.compress {
                        min_packed_height(&units, &lu).min(coloring.frame_size)
                    } else {
                        coloring.frame_size
                    };
                    let cb = &mut bases[callee.0 as usize];
                    *cb = (*cb).max(base + bk_min);
                    calls.push(CallSiteCtx { callee, live_units: lu });
                }
            }
            funcs[fid.0 as usize] = Some(ColoredFunc { coloring, units, calls, base });
        }
        st.colored = Some(ColoredModule { funcs, bases });
        Ok(())
    }

    fn check(&self, st: &PipelineState<'_>) -> Result<(), AllocError> {
        let norm = st.normalized.as_ref().ok_or_else(|| missing(self.name(), "normalize"))?;
        let colored = st.colored.as_ref().ok_or_else(|| missing(self.name(), "color"))?;
        let total = st.budget.total();
        for &fid in &norm.topdown {
            let i = fid.0 as usize;
            let (Some(nf), Some(cf)) = (&norm.funcs[i], &colored.funcs[i]) else {
                return Err(AllocError::Internal(format!(
                    "color check: function {i} missing an artifact"
                )));
            };
            let cfg = Cfg::new(&nf.nf);
            let live = Liveness::new(&nf.nf, &cfg);
            let graph = InterferenceGraph::build(&nf.nf, &cfg, &live);
            validate(&graph, cf.base, &cf.coloring).map_err(|detail| {
                AllocError::Internal(format!("{}: invalid coloring: {detail}", nf.nf.name))
            })?;
            if cf.base + cf.coloring.frame_size > total {
                return Err(AllocError::Internal(format!(
                    "{}: frame [{}, {}) exceeds the {total}-slot budget",
                    nf.nf.name,
                    cf.base,
                    cf.base + cf.coloring.frame_size
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// spill
// ---------------------------------------------------------------------

/// `spill`: assign ascending local-memory slots (above the move
/// scratch) to every spilled web, in the same traversal order the
/// coloring produced them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillPass;

impl Pass for SpillPass {
    fn name(&self) -> &'static str {
        "spill"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        let norm = st.normalized.as_ref().ok_or_else(|| missing(self.name(), "normalize"))?;
        let colored = st.colored.as_ref().ok_or_else(|| missing(self.name(), "color"))?;
        let mut slots: Vec<HashMap<usize, u16>> =
            (0..st.module.funcs.len()).map(|_| HashMap::new()).collect();
        let mut local_counter: u16 = SCRATCH_SLOTS;
        for &fid in &norm.topdown {
            let i = fid.0 as usize;
            let (Some(nf), Some(cf)) = (&norm.funcs[i], &colored.funcs[i]) else {
                return Err(AllocError::Internal(format!(
                    "spill: function {i} missing an artifact"
                )));
            };
            for &w in &cf.coloring.spilled {
                slots[i].insert(w, local_counter);
                local_counter += nf.nf.vreg_widths[w].words();
            }
        }
        st.spills = Some(SpillSet { slots, local_slots: local_counter });
        Ok(())
    }

    fn check(&self, st: &PipelineState<'_>) -> Result<(), AllocError> {
        let norm = st.normalized.as_ref().ok_or_else(|| missing(self.name(), "normalize"))?;
        let spills = st.spills.as_ref().ok_or_else(|| missing(self.name(), "spill"))?;
        let mut used = vec![false; usize::from(spills.local_slots)];
        for (i, per_func) in spills.slots.iter().enumerate() {
            let widths = norm.funcs[i].as_ref().map(|f| &f.nf.vreg_widths);
            for (&web, &start) in per_func {
                if start < SCRATCH_SLOTS {
                    return Err(AllocError::Internal(format!(
                        "spill check: web {web} of function {i} at local slot {start} \
                         inside the {SCRATCH_SLOTS}-slot scratch area"
                    )));
                }
                let words = widths.and_then(|w| w.get(web)).map_or(1, |w| w.words());
                for k in start..start + words {
                    let cell = used.get_mut(usize::from(k)).ok_or_else(|| {
                        AllocError::Internal(format!(
                            "spill check: web {web} of function {i} exceeds the \
                             {}-slot local area",
                            spills.local_slots
                        ))
                    })?;
                    if *cell {
                        return Err(AllocError::Internal(format!(
                            "spill check: local slot {k} assigned twice"
                        )));
                    }
                    *cell = true;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// stack-plan
// ---------------------------------------------------------------------

/// `stack-plan`: finalize frame bases (they may have been raised after
/// a function was colored) and derive the layout model's per-call
/// inputs — compressed height `B_k` and unit liveness.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackPlanPass;

impl Pass for StackPlanPass {
    fn name(&self) -> &'static str {
        "stack-plan"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        let norm = st.normalized.as_ref().ok_or_else(|| missing(self.name(), "normalize"))?;
        let colored = st.colored.as_mut().ok_or_else(|| missing(self.name(), "color"))?;
        let bases = colored.bases.clone();
        let mut call_infos: Vec<Vec<CallLayoutInfo>> =
            (0..st.module.funcs.len()).map(|_| Vec::new()).collect();
        for &fid in &norm.topdown {
            let i = fid.0 as usize;
            let cf = colored.funcs[i].as_mut().ok_or_else(|| missing(self.name(), "color"))?;
            cf.base = bases[i]; // raised after coloring by earlier callers
            call_infos[i] = cf
                .calls
                .iter()
                .map(|c| CallLayoutInfo {
                    bk: bases[c.callee.0 as usize].saturating_sub(bases[i]),
                    live: c.live_units.clone(),
                })
                .collect();
        }
        st.stack = Some(StackPlan { call_infos });
        Ok(())
    }

    fn check(&self, st: &PipelineState<'_>) -> Result<(), AllocError> {
        let norm = st.normalized.as_ref().ok_or_else(|| missing(self.name(), "normalize"))?;
        let colored = st.colored.as_ref().ok_or_else(|| missing(self.name(), "color"))?;
        let stack = st.stack.as_ref().ok_or_else(|| missing(self.name(), "stack-plan"))?;
        for &fid in &norm.topdown {
            let i = fid.0 as usize;
            let cf = colored.funcs[i].as_ref().ok_or_else(|| missing(self.name(), "color"))?;
            for (k, (info, call)) in stack.call_infos[i].iter().zip(&cf.calls).enumerate() {
                // Budgeted height must fit the live units: at worst the
                // whole frame stays in place (bk == frame_size).
                let need = min_packed_height(&cf.units, &info.live).min(cf.coloring.frame_size);
                if info.bk < need {
                    return Err(AllocError::Internal(format!(
                        "stack-plan check: call #{k} of function {i} budgets bk={} \
                         below the minimal packed height {need}",
                        info.bk
                    )));
                }
                // Frame bases are monotone along call edges.
                if colored.bases[call.callee.0 as usize] < colored.bases[i] {
                    return Err(AllocError::Internal(format!(
                        "stack-plan check: callee {} frame base {} below caller {} base {}",
                        call.callee.0, colored.bases[call.callee.0 as usize], i, colored.bases[i]
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// layout
// ---------------------------------------------------------------------

fn run_layout(st: &mut PipelineState<'_>, stage: &str, optimized: bool) -> Result<(), AllocError> {
    let norm = st.normalized.as_ref().ok_or_else(|| missing(stage, "normalize"))?;
    let colored = st.colored.as_mut().ok_or_else(|| missing(stage, "color"))?;
    let stack = st.stack.as_ref().ok_or_else(|| missing(stage, "stack-plan"))?;
    let mut predicted_moves: Vec<u32> = vec![0; st.module.funcs.len()];
    for &fid in &norm.topdown {
        let i = fid.0 as usize;
        let (Some(_), Some(cf)) = (&norm.funcs[i], colored.funcs[i].as_mut()) else {
            return Err(AllocError::Internal(format!("{stage}: function {i} missing an artifact")));
        };
        let infos = &stack.call_infos[i];
        let plan = if optimized {
            optimize_layout(&cf.units, infos)
        } else {
            identity_layout(&cf.units, infos)
        };
        predicted_moves[i] = plan.total_moves;
        apply_layout(&mut cf.coloring.slot_of, &cf.units, &plan);
        for (u, &start) in cf.units.iter_mut().zip(&plan.new_start) {
            u.start = start;
            u.residue = u.start % u.align;
        }
    }
    st.layout = Some(SlotLayout { predicted_moves });
    Ok(())
}

fn check_layout(st: &PipelineState<'_>, stage: &str) -> Result<(), AllocError> {
    let norm = st.normalized.as_ref().ok_or_else(|| missing(stage, "normalize"))?;
    let colored = st.colored.as_ref().ok_or_else(|| missing(stage, "color"))?;
    for &fid in &norm.topdown {
        let i = fid.0 as usize;
        let (Some(nf), Some(cf)) = (&norm.funcs[i], &colored.funcs[i]) else {
            return Err(AllocError::Internal(format!("{stage}: function {i} missing an artifact")));
        };
        // The permutation must keep the coloring valid (it only relocates
        // whole units, so interference and alignment must still hold).
        let cfg = Cfg::new(&nf.nf);
        let live = Liveness::new(&nf.nf, &cfg);
        let graph = InterferenceGraph::build(&nf.nf, &cfg, &live);
        validate(&graph, cf.base, &cf.coloring).map_err(|detail| {
            AllocError::Internal(format!("{}: layout broke the coloring: {detail}", nf.nf.name))
        })?;
        let mut used = vec![false; usize::from(cf.coloring.frame_size)];
        for (k, u) in cf.units.iter().enumerate() {
            if u.start % u.align != u.residue {
                return Err(AllocError::Internal(format!(
                    "{}: unit {k} lost its alignment residue",
                    nf.nf.name
                )));
            }
            for s in u.start..u.start + u.width {
                let cell = used.get_mut(usize::from(s)).ok_or_else(|| {
                    AllocError::Internal(format!(
                        "{}: unit {k} placed outside the {}-slot frame",
                        nf.nf.name, cf.coloring.frame_size
                    ))
                })?;
                if *cell {
                    return Err(AllocError::Internal(format!(
                        "{}: units overlap at slot {s}",
                        nf.nf.name
                    )));
                }
                *cell = true;
            }
        }
    }
    Ok(())
}

/// `layout`: permute single-slot units with Kuhn-Munkres to minimize
/// predicted compression moves (Theorem 1) — the production layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct KuhnMunkresLayoutPass;

impl Pass for KuhnMunkresLayoutPass {
    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        run_layout(st, self.name(), true)
    }

    fn check(&self, st: &PipelineState<'_>) -> Result<(), AllocError> {
        check_layout(st, self.name())
    }
}

/// `layout`: keep the colored slot assignment as-is — the Figure 5
/// "no data-movement minimization" ablation as a pipeline edit.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityLayoutPass;

impl Pass for IdentityLayoutPass {
    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        run_layout(st, self.name(), false)
    }

    fn check(&self, st: &PipelineState<'_>) -> Result<(), AllocError> {
        check_layout(st, self.name())
    }
}

// ---------------------------------------------------------------------
// lower
// ---------------------------------------------------------------------

/// `lower`: materialize machine code — compression/restore and
/// argument/return moves sequentialized per call site — plus the
/// allocation report.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        let module = st.module;
        let budget = st.budget;
        let norm = st.normalized.as_ref().ok_or_else(|| missing(self.name(), "normalize"))?;
        let colored = st.colored.as_ref().ok_or_else(|| missing(self.name(), "color"))?;
        let spills = st.spills.as_ref().ok_or_else(|| missing(self.name(), "spill"))?;
        let layout = st.layout.as_ref().ok_or_else(|| missing(self.name(), "layout"))?;
        let topdown = &norm.topdown;
        let bases = &colored.bases;
        let n = module.funcs.len();

        // Assemble the per-function lowering view from the artifacts.
        let mut ctxs: Vec<Option<FuncCtx>> = Vec::with_capacity(n);
        for i in 0..n {
            match (&norm.funcs[i], &colored.funcs[i]) {
                (Some(nf), Some(cf)) => ctxs.push(Some(FuncCtx {
                    nf: nf.nf.clone(),
                    coloring: cf.coloring.clone(),
                    units: cf.units.clone(),
                    calls: cf.calls.clone(),
                    base: cf.base,
                    spill_slot: spills.slots[i].clone(),
                    max_live: nf.max_live,
                })),
                (None, None) => ctxs.push(None),
                _ => {
                    return Err(AllocError::Internal(format!(
                        "lower: function {i} has mismatched normalize/color artifacts"
                    )));
                }
            }
        }

        let scratch = MLoc::local(0, Width::W128);
        let mut mfuncs: Vec<MFunction> = Vec::with_capacity(n);
        let mut static_moves: u32 = 0;
        // Pre-compute param/ret slots for every function (needed by callers).
        let param_ret_slots: Vec<Option<(Vec<MLoc>, Vec<MLoc>)>> = (0..n)
            .map(|i| {
                ctxs[i].as_ref().map(|c| {
                    let p = c.nf.params.iter().map(|r| c.loc(r.0 as usize)).collect();
                    let r = c.nf.rets.iter().map(|r| c.loc(r.0 as usize)).collect();
                    (p, r)
                })
            })
            .collect();

        for i in 0..n {
            let Some(ctx) = &ctxs[i] else {
                // Unreachable function: emit an empty stub.
                mfuncs.push(MFunction {
                    name: module.func(FuncId(i as u32)).name.clone(),
                    frame_base: 0,
                    frame_size: 0,
                    param_slots: vec![],
                    ret_slots: vec![],
                    blocks: vec![],
                });
                continue;
            };
            let mut blocks = Vec::with_capacity(ctx.nf.num_blocks());
            let mut call_cursor = 0usize;
            // Re-walk blocks in the same order as the color stage to line
            // up call contexts; unreachable blocks contain no analyzed calls.
            let cfg = Cfg::new(&ctx.nf);
            for (bid, blk) in ctx.nf.iter_blocks() {
                let mut insts: Vec<MInst> = Vec::with_capacity(blk.insts.len());
                for inst in &blk.insts {
                    if let Opcode::Call(callee) = inst.op {
                        if !cfg.reachable(bid) {
                            continue; // never executed; drop
                        }
                        let cctx = ctx.calls.get(call_cursor).ok_or_else(|| {
                            AllocError::Internal(format!(
                                "{}: call #{call_cursor} was not analyzed by the color stage",
                                ctx.nf.name
                            ))
                        })?;
                        if cctx.callee != callee {
                            return Err(AllocError::Internal(format!(
                                "{}: call #{call_cursor} targets {} but the color stage \
                                 recorded {}",
                                ctx.nf.name, callee.0, cctx.callee.0
                            )));
                        }
                        call_cursor += 1;
                        let bk = bases[callee.0 as usize].saturating_sub(ctx.base);
                        let placement = pack_live_units(&ctx.units, &cctx.live_units, bk)?;
                        let (pslots, rslots) =
                            param_ret_slots[callee.0 as usize].as_ref().ok_or_else(|| {
                                AllocError::Internal(format!(
                                    "{}: callee {} is called but has no param/ret slots \
                                     (unreachable in the call graph?)",
                                    ctx.nf.name, callee.0
                                ))
                            })?;
                        // Pre-call parallel move set: compression + arguments.
                        // Units wider than four words move in chunks (a
                        // single MLoc covers at most a W128).
                        let mut pre: Vec<PMove> = Vec::new();
                        for &(ui, newpos) in &placement {
                            let u = &ctx.units[ui];
                            if newpos != u.start {
                                for (off, w) in chunk_widths(u.width) {
                                    pre.push(PMove {
                                        dst: MLoc::onchip(ctx.base + newpos + off, w),
                                        src: MLoc::onchip(ctx.base + u.start + off, w).into(),
                                    });
                                }
                            }
                        }
                        let ci = inst.call.as_ref().ok_or_else(|| {
                            AllocError::Internal(format!(
                                "{}: Call instruction carries no call info (unverified module?)",
                                ctx.nf.name
                            ))
                        })?;
                        for (arg, &pslot) in ci.args.iter().zip(pslots) {
                            pre.push(PMove { dst: pslot, src: lower_operand(ctx, arg) });
                        }
                        let pre_insts = sequentialize(&pre, scratch)?;
                        let pre_count = pre_insts.len();
                        if !pre_insts.is_empty() {
                            st.move_runs.note(i, blocks.len(), insts.len());
                        }
                        static_moves += pre_insts.len() as u32;
                        insts.extend(pre_insts);
                        insts.push(MInst::new(Opcode::Call(callee), None, vec![]));
                        // Post-call parallel move set: returns + restores.
                        let mut post: Vec<PMove> = Vec::new();
                        for (&ret_web, &rslot) in ci.rets.iter().zip(rslots) {
                            post.push(PMove {
                                dst: ctx.loc(ret_web.0 as usize),
                                src: rslot.into(),
                            });
                        }
                        for &(ui, newpos) in &placement {
                            let u = &ctx.units[ui];
                            if newpos != u.start {
                                for (off, w) in chunk_widths(u.width) {
                                    post.push(PMove {
                                        dst: MLoc::onchip(ctx.base + u.start + off, w),
                                        src: MLoc::onchip(ctx.base + newpos + off, w).into(),
                                    });
                                }
                            }
                        }
                        let post_insts = sequentialize(&post, scratch)?;
                        if orion_telemetry::is_enabled() {
                            orion_telemetry::instant(
                                "alloc",
                                "call_site_moves",
                                vec![
                                    ("func", ctx.nf.name.as_str().into()),
                                    ("call_index", (call_cursor - 1).into()),
                                    ("pre_moves", pre_count.into()),
                                    ("post_moves", post_insts.len().into()),
                                ],
                            );
                        }
                        if !post_insts.is_empty() {
                            st.move_runs.note(i, blocks.len(), insts.len());
                        }
                        static_moves += post_insts.len() as u32;
                        insts.extend(post_insts);
                    } else {
                        insts.push(lower_inst(ctx, inst));
                    }
                }
                blocks.push(MBlock { insts, term: blk.term.clone() });
            }
            let (pslots, rslots) = param_ret_slots[i]
                .as_ref()
                .ok_or_else(|| {
                    AllocError::Internal(format!(
                        "function {i} has a context but no param/ret slots"
                    ))
                })?
                .clone();
            mfuncs.push(MFunction {
                name: ctx.nf.name.clone(),
                frame_base: ctx.base,
                frame_size: ctx.coloring.frame_size,
                param_slots: pslots,
                ret_slots: rslots,
                blocks,
            });
        }

        let mut peak_abs: u16 = 0;
        for f in topdown {
            let c = ctxs[f.0 as usize].as_ref().ok_or_else(|| {
                AllocError::Internal(format!("function {} lost its context after lowering", f.0))
            })?;
            peak_abs = peak_abs.max(c.base + c.coloring.frame_size);
        }
        let regs_per_thread = budget.reg_slots.min(peak_abs);
        let smem_slots_per_thread = peak_abs.saturating_sub(regs_per_thread);

        let mut per_func = Vec::with_capacity(topdown.len());
        for f in topdown {
            let c = ctxs[f.0 as usize].as_ref().ok_or_else(|| {
                AllocError::Internal(format!("function {} lost its context after lowering", f.0))
            })?;
            per_func.push(FuncAllocInfo {
                name: c.nf.name.clone(),
                base: c.base,
                frame_size: c.coloring.frame_size,
                spilled_webs: c.coloring.spilled.len(),
                call_sites: c.calls.len(),
                predicted_moves: layout.predicted_moves[f.0 as usize],
            });
        }
        let report = AllocReport {
            kernel_max_live: ctxs[module.entry.0 as usize]
                .as_ref()
                .ok_or_else(|| {
                    AllocError::Internal(format!(
                        "entry function {} was never allocated",
                        module.entry.0
                    ))
                })?
                .max_live,
            regs_per_thread,
            smem_slots_per_thread,
            local_slots_per_thread: spills.local_slots,
            static_moves,
            per_func,
        };

        let machine = MModule {
            funcs: mfuncs,
            entry: module.entry,
            regs_per_thread,
            smem_slots_per_thread,
            local_slots_per_thread: spills.local_slots,
            user_smem_bytes: module.user_smem_bytes,
            static_stack_moves: static_moves,
        };
        st.output = Some(Allocated { machine, report });
        Ok(())
    }
}

// ---------------------------------------------------------------------
// mir-verify
// ---------------------------------------------------------------------

/// `mir-verify`: gate the lowered module through the machine-IR
/// verifier (slot ranges, wide alignment, move ordering with the exact
/// run boundaries recorded by `lower`, frame-base monotonicity).
/// No-op outside verified mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct MirVerifyPass;

impl Pass for MirVerifyPass {
    fn name(&self) -> &'static str {
        "mir-verify"
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        if !st.verify {
            return Ok(());
        }
        let out = st.output.as_ref().ok_or_else(|| missing(self.name(), "lower"))?;
        let cfg = MirVerifyConfig { scratch_slots: SCRATCH_SLOTS };
        verify_mir_with(&out.machine, &cfg, Some(&st.move_runs)).map_err(AllocError::MirVerify)
    }
}

// ---------------------------------------------------------------------
// pipeline
// ---------------------------------------------------------------------

/// An ordered sequence of named passes plus the verification switch.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
    verify: bool,
}

impl Pipeline {
    /// The production pipeline realizing `opts`: ablations select
    /// passes here instead of branching inside them.
    pub fn standard(opts: &AllocOptions) -> Self {
        let layout: Box<dyn Pass> = if opts.optimize_layout && opts.compress_stack {
            Box::new(KuhnMunkresLayoutPass)
        } else {
            Box::new(IdentityLayoutPass)
        };
        Pipeline {
            passes: vec![
                Box::new(NormalizePass),
                Box::new(ColorPass { compress: opts.compress_stack }),
                Box::new(SpillPass),
                Box::new(StackPlanPass),
                layout,
                Box::new(LowerPass),
                Box::new(MirVerifyPass),
            ],
            verify: verification_enabled(),
        }
    }

    /// [`Pipeline::standard`] with stage-boundary verification forced
    /// on, regardless of build configuration.
    pub fn verified(opts: &AllocOptions) -> Self {
        let mut p = Self::standard(opts);
        p.verify = true;
        p
    }

    /// Force stage-boundary verification on or off for this pipeline.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Stage names in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.passes.iter().position(|p| p.name() == name)
    }

    /// Replace the stage called `name`; returns `false` when absent.
    pub fn replace(&mut self, name: &str, pass: Box<dyn Pass>) -> bool {
        match self.position(name) {
            Some(i) => {
                self.passes[i] = pass;
                true
            }
            None => false,
        }
    }

    /// Remove the stage called `name`; returns `false` when absent.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.position(name) {
            Some(i) => {
                self.passes.remove(i);
                true
            }
            None => false,
        }
    }

    /// Insert `pass` right after the stage called `name`; returns
    /// `false` (without inserting) when absent.
    pub fn insert_after(&mut self, name: &str, pass: Box<dyn Pass>) -> bool {
        match self.position(name) {
            Some(i) => {
                self.passes.insert(i + 1, pass);
                true
            }
            None => false,
        }
    }

    /// Append a pass at the end.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Drive the passes over `module` under `budget`.
    ///
    /// # Errors
    /// Domain errors propagate untouched; pass invariant violations and
    /// verifier rejections arrive as [`AllocError::Stage`] naming the
    /// stage, with the original diagnostic as the chained source.
    pub fn run(&self, module: &Module, budget: SlotBudget) -> Result<Allocated, AllocError> {
        let mut st = PipelineState::new(module, budget, self.verify);
        for pass in &self.passes {
            let _span = orion_telemetry::span("alloc", pass.name());
            pass.run(&mut st).map_err(|e| stage_error(pass.name(), e))?;
            if self.verify {
                pass.check(&st).map_err(|e| stage_error(pass.name(), e))?;
            }
        }
        st.output.take().ok_or_else(|| {
            AllocError::Internal(
                "pipeline finished without producing machine code (no lower stage?)".to_string(),
            )
        })
    }
}

/// Attribute a pass failure to its stage; domain errors (which existing
/// callers match on directly) pass through unwrapped.
fn stage_error(stage: &'static str, e: AllocError) -> AllocError {
    match e {
        e @ (AllocError::Ssa(_)
        | AllocError::Recursion(_)
        | AllocError::PredicatedCall { .. }
        | AllocError::Stage { .. }) => e,
        other => AllocError::Stage { stage, source: Box::new(other) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realize::allocate;
    use orion_kir::builder::{build_fdiv_device, FunctionBuilder};
    use orion_kir::inst::Operand;
    use orion_kir::types::MemSpace;

    fn call_module() -> Module {
        let kb = FunctionBuilder::kernel("k");
        let mut m = Module::new(kb.finish());
        let fdiv = m.add_func(build_fdiv_device());
        let mut kb = FunctionBuilder::kernel("k");
        let keep = kb.mov_i32(11);
        let x = kb.mov_f32(10.0);
        let y = kb.mov_f32(4.0);
        let q = kb.call(fdiv, vec![x.into(), y.into()], &[Width::W32]);
        let s = kb.iadd(keep, q[0]);
        kb.st(MemSpace::Global, Width::W32, Operand::Imm(0), s, 0);
        m.funcs[0] = kb.finish();
        m
    }

    #[test]
    fn standard_stage_names() {
        let p = Pipeline::standard(&AllocOptions::default());
        assert_eq!(
            p.stage_names(),
            ["normalize", "color", "spill", "stack-plan", "layout", "lower", "mir-verify"]
        );
    }

    /// The Figure 5 ablation flags map 1:1 to pipeline edits: toggling
    /// an `AllocOptions` field produces the same binary as editing the
    /// default pipeline by hand.
    #[test]
    fn options_are_pipeline_edits() {
        let m = call_module();
        let budget = SlotBudget { reg_slots: 32, smem_slots: 0 };

        // optimize_layout: false  ==  replace the layout stage.
        let via_opts =
            Pipeline::verified(&AllocOptions { compress_stack: true, optimize_layout: false })
                .run(&m, budget)
                .unwrap();
        let mut edited = Pipeline::verified(&AllocOptions::default());
        assert!(edited.replace("layout", Box::new(IdentityLayoutPass)));
        let via_edit = edited.run(&m, budget).unwrap();
        assert_eq!(via_opts.machine, via_edit.machine);
        assert_eq!(via_opts.report, via_edit.report);

        // compress_stack: false  ==  also swap in a non-compressing color.
        let via_opts =
            Pipeline::verified(&AllocOptions { compress_stack: false, optimize_layout: false })
                .run(&m, budget)
                .unwrap();
        let mut edited = Pipeline::verified(&AllocOptions::default());
        assert!(edited.replace("color", Box::new(ColorPass { compress: false })));
        assert!(edited.replace("layout", Box::new(IdentityLayoutPass)));
        let via_edit = edited.run(&m, budget).unwrap();
        assert_eq!(via_opts.machine, via_edit.machine);
        assert_eq!(via_opts.report, via_edit.report);
    }

    #[test]
    fn verified_run_passes_and_removal_fails_cleanly() {
        let m = call_module();
        let budget = SlotBudget { reg_slots: 32, smem_slots: 0 };
        Pipeline::verified(&AllocOptions::default()).run(&m, budget).unwrap();

        // Dropping a producer stage yields a Stage-wrapped diagnostic
        // naming the starved consumer, not a panic.
        let mut p = Pipeline::verified(&AllocOptions::default());
        assert!(p.remove("spill"));
        let err = p.run(&m, budget).unwrap_err();
        match &err {
            AllocError::Stage { stage, source } => {
                assert_eq!(*stage, "lower");
                assert!(source.to_string().contains("spill"), "{source}");
            }
            other => panic!("expected Stage error, got {other:?}"),
        }
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn domain_errors_not_wrapped() {
        // A predicated call must still surface as PredicatedCall.
        use orion_kir::function::{FuncKind, Function};
        use orion_kir::inst::{CallInfo, Inst};
        use orion_kir::types::{BlockId, PredReg};
        let kb = FunctionBuilder::kernel("k");
        let mut m = Module::new(kb.finish());
        let fdiv = m.add_func(build_fdiv_device());
        let mut call = Inst::new(Opcode::Call(fdiv), None, vec![]);
        call.call = Some(CallInfo { args: vec![], rets: vec![] });
        call.pred = Some(PredReg(0));
        let mut k = Function::new("k", FuncKind::Kernel);
        k.block_mut(BlockId(0)).insts = vec![call];
        m.funcs[0] = k;
        let err =
            allocate(&m, SlotBudget { reg_slots: 8, smem_slots: 0 }, &AllocOptions::default())
                .unwrap_err();
        assert!(matches!(err, AllocError::PredicatedCall { .. }), "{err:?}");
    }
}
