//! The realize-occupancy entry point (§3.2): given a per-thread on-chip
//! slot budget, allocate every function of a module and lower it to
//! machine code.
//!
//! The work itself is staged as an explicit pass pipeline in
//! [`crate::pipeline`] — normalize → color → spill → stack-plan →
//! layout → lower → mir-verify — with one typed artifact per stage.
//! [`allocate`] is a thin driver over [`Pipeline::standard`]; the
//! Figure 5 ablations in [`AllocOptions`] select passes rather than
//! branching inside them, and custom experiments can edit the pipeline
//! directly. The golden compile fixtures (`orion-bench`) pin its output
//! on the tier-1 workloads.
//!
//! The absolute on-chip slot index decides physical placement per word:
//! indices below the register budget are registers, the rest are private
//! shared-memory slots. Spills and the move-cycle scratch live in local
//! memory.

use crate::chaitin::Coloring;
use crate::pipeline::Pipeline;
use crate::stack::Unit;
use orion_kir::cfg::Cfg;
use orion_kir::function::{Function, Module};
use orion_kir::inst::{Inst, Opcode, Operand};
use orion_kir::liveness::{max_live, Liveness};
use orion_kir::mir::{MInst, MLoc, MModule, MOperand};
use orion_kir::ssa::normalize;
use orion_kir::types::FuncId;
use serde::{Deserialize, Serialize};

/// Local-memory slots reserved as the move-cycle scratch area (wide
/// enough for a 128-bit bounce).
pub const SCRATCH_SLOTS: u16 = 4;

/// Per-thread on-chip slot budget implied by a target occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotBudget {
    /// Physical registers per thread.
    pub reg_slots: u16,
    /// Private shared-memory slots per thread the allocator may add.
    pub smem_slots: u16,
}

impl SlotBudget {
    /// Total on-chip slots per thread.
    pub fn total(&self) -> u16 {
        self.reg_slots + self.smem_slots
    }
}

/// Allocator feature switches (the paper's Figure 5 ablations).
///
/// Each flag corresponds to a pipeline edit — see
/// [`Pipeline::standard`] for the mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AllocOptions {
    /// Compress the caller stack at calls ("space minimization"). When
    /// off, callee frames sit above the caller's entire frame.
    pub compress_stack: bool,
    /// Optimize the slot layout with Kuhn-Munkres ("data movement
    /// minimization"). When off, the colored layout is kept as-is.
    pub optimize_layout: bool,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions { compress_stack: true, optimize_layout: true }
    }
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocError {
    /// SSA construction failed (malformed input).
    Ssa(orion_kir::ssa::SsaError),
    /// The call graph is recursive.
    Recursion(orion_kir::callgraph::RecursionError),
    /// A call is guarded by a predicate, which the lowering does not
    /// support (compression moves could not be predicated consistently).
    PredicatedCall { func: String },
    /// A cross-phase invariant of the allocator was violated (a later
    /// phase found state a prior phase should have produced missing or
    /// inconsistent). Always an allocator bug, but reported as an error
    /// instead of a panic so a resilient caller can quarantine the
    /// affected candidate and keep tuning.
    Internal(String),
    /// The machine-IR verifier rejected the lowered module (verified
    /// mode only).
    MirVerify(orion_kir::mir_verify::MirVerifyError),
    /// A pipeline stage failed: names the stage and chains the
    /// underlying diagnostic as [`std::error::Error::source`]. Domain
    /// errors ([`AllocError::Ssa`], [`AllocError::Recursion`],
    /// [`AllocError::PredicatedCall`]) are never wrapped.
    Stage {
        /// The [`crate::pipeline::Pass::name`] of the failing stage.
        stage: &'static str,
        /// The underlying failure.
        source: Box<AllocError>,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Ssa(e) => write!(f, "ssa: {e}"),
            AllocError::Recursion(e) => write!(f, "{e}"),
            AllocError::PredicatedCall { func } => {
                write!(f, "{func}: predicated calls are not supported")
            }
            AllocError::Internal(detail) => {
                write!(f, "internal allocator invariant violated: {detail}")
            }
            AllocError::MirVerify(e) => write!(f, "machine-IR verification failed: {e}"),
            AllocError::Stage { stage, source } => {
                write!(f, "allocation stage `{stage}` failed: {source}")
            }
        }
    }
}

impl std::error::Error for AllocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AllocError::Ssa(e) => Some(e),
            AllocError::Recursion(e) => Some(e),
            AllocError::MirVerify(e) => Some(e),
            AllocError::Stage { source, .. } => Some(source.as_ref()),
            AllocError::PredicatedCall { .. } | AllocError::Internal(_) => None,
        }
    }
}

impl From<orion_kir::ssa::SsaError> for AllocError {
    fn from(e: orion_kir::ssa::SsaError) -> Self {
        AllocError::Ssa(e)
    }
}

impl From<orion_kir::callgraph::RecursionError> for AllocError {
    fn from(e: orion_kir::callgraph::RecursionError) -> Self {
        AllocError::Recursion(e)
    }
}

impl From<orion_kir::mir_verify::MirVerifyError> for AllocError {
    fn from(e: orion_kir::mir_verify::MirVerifyError) -> Self {
        AllocError::MirVerify(e)
    }
}

/// Per-function allocation summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncAllocInfo {
    pub name: String,
    pub base: u16,
    pub frame_size: u16,
    pub spilled_webs: usize,
    pub call_sites: usize,
    /// Compression moves predicted by the layout model (Theorem 1 count).
    pub predicted_moves: u32,
}

/// Whole-module allocation summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocReport {
    /// Kernel max-live in 32-bit words (the §3.3 direction metric).
    pub kernel_max_live: u32,
    /// Registers per thread in the produced binary.
    pub regs_per_thread: u16,
    /// Private shared-memory slots per thread.
    pub smem_slots_per_thread: u16,
    /// Local-memory slots per thread (scratch + spills).
    pub local_slots_per_thread: u16,
    /// Static stack/argument move instructions inserted.
    pub static_moves: u32,
    pub per_func: Vec<FuncAllocInfo>,
}

/// A fully allocated module plus its report.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocated {
    pub machine: MModule,
    pub report: AllocReport,
}

/// One analyzed call site of a caller: the target and which of the
/// caller's [`Unit`]s are live across the call (the layout model's and
/// the lowering's shared view of the call).
#[derive(Debug, Clone)]
pub struct CallSiteCtx {
    /// The called function.
    pub callee: FuncId,
    /// Units of the *caller* live across this call.
    pub live_units: Vec<bool>,
}

/// The per-function lowering view assembled from the pipeline artifacts.
#[derive(Debug, Clone)]
pub(crate) struct FuncCtx {
    pub(crate) nf: Function,
    pub(crate) coloring: Coloring,
    pub(crate) units: Vec<Unit>,
    /// Call sites in traversal order (matches lowering).
    pub(crate) calls: Vec<CallSiteCtx>,
    pub(crate) base: u16,
    /// Local slot of each spilled web.
    pub(crate) spill_slot: std::collections::HashMap<usize, u16>,
    pub(crate) max_live: u32,
}

impl FuncCtx {
    pub(crate) fn loc(&self, web: usize) -> MLoc {
        let w = self.nf.vreg_widths[web];
        match self.coloring.slot_of[web] {
            Some(s) => MLoc::onchip(self.base + s, w),
            None => MLoc::local(self.spill_slot[&web], w),
        }
    }
}

/// Compute the max-live of a module's kernel (after web normalization) —
/// the paper's direction-selection metric.
///
/// # Errors
/// Fails when SSA construction fails.
pub fn kernel_max_live(m: &Module) -> Result<u32, AllocError> {
    let nf = normalize(m.kernel())?;
    let cfg = Cfg::new(&nf);
    let live = Liveness::new(&nf, &cfg);
    Ok(max_live(&nf, &cfg, &live))
}

/// Allocate `module` under `budget` with `opts`, producing machine code.
///
/// Drives [`Pipeline::standard`]; stage-boundary verification is active
/// in debug builds and under the `verify` cargo feature (see
/// [`crate::pipeline::verification_enabled`]), and can be forced with
/// [`allocate_verified`].
///
/// # Errors
/// Returns [`AllocError`] on recursion, malformed IR, or predicated
/// calls. The input should already pass [`orion_kir::verify::verify`].
pub fn allocate(
    module: &Module,
    budget: SlotBudget,
    opts: &AllocOptions,
) -> Result<Allocated, AllocError> {
    Pipeline::standard(opts).run(module, budget)
}

/// [`allocate`] with every stage-boundary check and the machine-IR
/// verifier forced on, regardless of build configuration.
///
/// # Errors
/// As [`allocate`], plus [`AllocError::Stage`] when a pipeline
/// invariant or the machine-IR verifier rejects an artifact.
pub fn allocate_verified(
    module: &Module,
    budget: SlotBudget,
    opts: &AllocOptions,
) -> Result<Allocated, AllocError> {
    Pipeline::verified(opts).run(module, budget)
}

/// Split a unit of `words` slots into `(offset, width)` move chunks of at
/// most four words each (one machine move covers at most a W128).
pub(crate) fn chunk_widths(words: u16) -> Vec<(u16, orion_kir::types::Width)> {
    use orion_kir::types::Width;
    let mut out = Vec::with_capacity(usize::from(words.div_ceil(4)));
    let mut off = 0;
    let mut left = words;
    while left > 0 {
        let w = match left {
            1 => Width::W32,
            2 => Width::W64,
            3 => Width::W96,
            _ => Width::W128,
        };
        out.push((off, w));
        off += w.words();
        left -= w.words();
    }
    out
}

pub(crate) fn lower_operand(ctx: &FuncCtx, op: &Operand) -> MOperand {
    match op {
        Operand::Reg(r) => MOperand::Loc(ctx.loc(r.0 as usize)),
        Operand::Imm(i) => MOperand::Imm(*i),
        Operand::Param(p) => MOperand::Param(*p),
        Operand::Special(s) => MOperand::Special(*s),
    }
}

pub(crate) fn lower_inst(ctx: &FuncCtx, inst: &Inst) -> MInst {
    debug_assert!(!matches!(inst.op, Opcode::Call(_)));
    MInst {
        op: inst.op,
        dst: inst.dst.map(|d| ctx.loc(d.0 as usize)),
        pdst: inst.pdst,
        srcs: inst.srcs.iter().map(|o| lower_operand(ctx, o)).collect(),
        pred: inst.pred,
        pred_neg: inst.pred_neg,
        sel_pred: inst.sel_pred,
        is_stack_move: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_kir::builder::{build_fdiv_device, FunctionBuilder};
    use orion_kir::types::BlockId;
    use orion_kir::types::{MemSpace, SpecialReg, Width};
    use orion_kir::verify::verify;

    fn simple_module() -> Module {
        let mut b = FunctionBuilder::kernel("k");
        let tid = b.mov(Operand::Special(SpecialReg::TidX));
        let a = b.imad(tid, Operand::Imm(4), Operand::Param(0));
        let x = b.ld(MemSpace::Global, Width::W32, a, 0);
        let y = b.iadd(x, Operand::Imm(5));
        b.st(MemSpace::Global, Width::W32, a, y, 0);
        Module::new(b.finish())
    }

    #[test]
    fn allocates_simple_kernel() {
        let m = simple_module();
        verify(&m).unwrap();
        let a = allocate(&m, SlotBudget { reg_slots: 16, smem_slots: 0 }, &AllocOptions::default())
            .unwrap();
        assert!(a.machine.regs_per_thread <= 16);
        assert!(a.machine.regs_per_thread >= 2);
        assert_eq!(a.machine.smem_slots_per_thread, 0);
        assert_eq!(a.report.per_func.len(), 1);
    }

    #[test]
    fn tight_budget_spills_to_smem_then_local() {
        let mut b = FunctionBuilder::kernel("k");
        let vs: Vec<_> = (0..12).map(|i| b.mov_i32(i)).collect();
        let mut acc = b.mov_i32(0);
        for v in vs {
            acc = b.iadd(acc, v);
        }
        b.st(MemSpace::Global, Width::W32, Operand::Imm(0), acc, 0);
        let m = Module::new(b.finish());
        let a = allocate(&m, SlotBudget { reg_slots: 4, smem_slots: 4 }, &AllocOptions::default())
            .unwrap();
        assert_eq!(a.machine.regs_per_thread, 4);
        assert!(a.machine.smem_slots_per_thread > 0);
        // 13 simultaneously live values in 8 on-chip slots: spills exist.
        assert!(a.machine.local_slots_per_thread > SCRATCH_SLOTS);
    }

    #[test]
    fn call_gets_frame_above_caller_live_height() {
        let mut b = FunctionBuilder::kernel("k");
        let _keep = b.mov_i32(11);
        let _x = b.mov_f32(10.0);
        let _y = b.mov_f32(4.0);
        let mut m = Module::new(b.finish());
        let fdiv = m.add_func(build_fdiv_device());
        let mut kb = FunctionBuilder::kernel("k");
        let keep = kb.mov_i32(11);
        let x = kb.mov_f32(10.0);
        let y = kb.mov_f32(4.0);
        let q = kb.call(fdiv, vec![x.into(), y.into()], &[Width::W32]);
        let s = kb.iadd(keep, q[0]);
        kb.st(MemSpace::Global, Width::W32, Operand::Imm(0), s, 0);
        m.funcs[0] = kb.finish();
        verify(&m).unwrap();
        let _ = (keep, x, y);
        let a = allocate(&m, SlotBudget { reg_slots: 32, smem_slots: 0 }, &AllocOptions::default())
            .unwrap();
        let callee = &a.machine.funcs[1];
        // Only `keep` lives across the call: the callee base is 1.
        assert_eq!(callee.frame_base, 1);
        assert!(a.machine.static_stack_moves >= 2, "arg + ret moves");
    }

    #[test]
    fn no_compression_raises_callee_base() {
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
        let compressed =
            allocate(&m, SlotBudget { reg_slots: 32, smem_slots: 0 }, &AllocOptions::default())
                .unwrap();
        let padded = allocate(
            &m,
            SlotBudget { reg_slots: 32, smem_slots: 0 },
            &AllocOptions { compress_stack: false, optimize_layout: false },
        )
        .unwrap();
        assert!(
            padded.machine.funcs[1].frame_base > compressed.machine.funcs[1].frame_base,
            "padded {} vs compressed {}",
            padded.machine.funcs[1].frame_base,
            compressed.machine.funcs[1].frame_base
        );
    }

    #[test]
    fn recursion_rejected() {
        use orion_kir::function::{FuncKind, Function};
        use orion_kir::inst::CallInfo;
        let mut m = Module::new(Function::new("k", FuncKind::Kernel));
        let d = Function::new("d", FuncKind::Device);
        let _ = d;
        let mut d = Function::new("d", FuncKind::Device);
        let id = m.add_func(d.clone());
        let mut call = Inst::new(Opcode::Call(id), None, vec![]);
        call.call = Some(CallInfo { args: vec![], rets: vec![] });
        d.block_mut(BlockId(0)).insts = vec![call.clone()];
        m.funcs[1] = d;
        m.func_mut(FuncId(0)).block_mut(BlockId(0)).insts = vec![call];
        let err =
            allocate(&m, SlotBudget { reg_slots: 8, smem_slots: 0 }, &AllocOptions::default())
                .unwrap_err();
        assert!(matches!(err, AllocError::Recursion(_)));
    }
}
