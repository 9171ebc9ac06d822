//! Predecoded machine code: flat per-function side tables the engine
//! executes from instead of the serialized [`MModule`] form.
//!
//! [`LinkedProgram::new`](crate::exec::LinkedProgram::new) decodes each
//! [`MInst`]/[`Terminator`] exactly once per launch. The decoded form is
//! `Copy`, fixed-size, and carries everything the per-step hot paths
//! used to re-derive per issue:
//!
//! * sources in a fixed inline array (no `Vec` indirection, no per-lane
//!   `Vec<Val>` collects downstream);
//! * the slot operands (`loc_srcs`) in source order, pre-extracted for
//!   the scheduler's readiness scan;
//! * the local-memory (spill) sources, pre-extracted for the spill
//!   traffic loop;
//! * the static private-shared-memory word count (a pure function of
//!   slot indices and the module's register boundary);
//! * the terminator as a `Copy` enum with the SIMT reconvergence target
//!   (immediate post-dominator) folded into `Branch`, so the engine
//!   neither clones terminators nor consults the ipdom table per step.
//!
//! Decoding is a faithful re-encoding — it cannot change behavior.

use orion_kir::function::Terminator;
use orion_kir::inst::Opcode;
use orion_kir::mir::{MFunction, MInst, MLoc, MModule, MOperand, Place};
use orion_kir::types::{BlockId, PredReg, Width};

/// Maximum machine-instruction source count (`IMad`/`FFma` use three;
/// one spare word keeps the layout future-proof).
pub(crate) const MAX_SRCS: usize = 4;

/// A machine instruction, decoded for execution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecInst {
    pub op: Opcode,
    pub dst: Option<MLoc>,
    pub pdst: Option<PredReg>,
    pub pred: Option<PredReg>,
    pub pred_neg: bool,
    pub sel_pred: Option<PredReg>,
    pub is_stack_move: bool,
    /// Sources, `srcs[..nsrcs]` valid (padding is `Imm(0)`).
    srcs: [MOperand; MAX_SRCS],
    nsrcs: u8,
    /// Slot sources in source order, `loc_srcs[..n_loc_srcs]` valid —
    /// the readiness scan's operand walk, pre-extracted.
    loc_srcs: [MLoc; MAX_SRCS],
    n_loc_srcs: u8,
    /// Local-place (spill) sources in source order.
    local_srcs: [MLoc; MAX_SRCS],
    n_local_srcs: u8,
    /// Static words of `srcs` + `dst` that live in the private
    /// shared-memory region (absolute slot ≥ register budget).
    pub smem_words: u32,
}

impl DecInst {
    /// The live sources.
    #[inline]
    pub fn srcs(&self) -> &[MOperand] {
        &self.srcs[..usize::from(self.nsrcs)]
    }

    /// Slot operands among the sources, in source order.
    #[inline]
    pub fn loc_srcs(&self) -> &[MLoc] {
        &self.loc_srcs[..usize::from(self.n_loc_srcs)]
    }

    /// Local-memory (spill) operands among the sources, in source order.
    #[inline]
    pub fn local_srcs(&self) -> &[MLoc] {
        &self.local_srcs[..usize::from(self.n_local_srcs)]
    }
}

/// A terminator, decoded: `Copy`, with the divergence reconvergence
/// point resolved at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DecTerm {
    Jump(BlockId),
    Branch {
        pred: PredReg,
        neg: bool,
        then_bb: BlockId,
        else_bb: BlockId,
        /// Immediate post-dominator of the branch block (`None` when the
        /// paths never reconverge — both exit).
        reconv: Option<BlockId>,
    },
    Ret,
    Exit,
}

/// One function's flat decoded tables.
#[derive(Debug)]
pub(crate) struct DecodedFunc {
    /// All blocks' instructions, concatenated in block order.
    insts: Vec<DecInst>,
    /// Per-block `(start, len)` into `insts`.
    ranges: Vec<(u32, u32)>,
    /// Per-block decoded terminator.
    terms: Vec<DecTerm>,
}

impl DecodedFunc {
    /// Decode `f`, resolving reconvergence targets from `ipdom` and the
    /// register/shared-memory boundary from `regs_per_thread`.
    pub fn new(f: &MFunction, ipdom: &[Option<BlockId>], regs_per_thread: u16) -> Self {
        let mut insts = Vec::with_capacity(f.num_insts());
        let mut ranges = Vec::with_capacity(f.blocks.len());
        let mut terms = Vec::with_capacity(f.blocks.len());
        for (bi, b) in f.blocks.iter().enumerate() {
            let start = insts.len() as u32;
            insts.extend(b.insts.iter().map(|i| decode_inst(i, regs_per_thread)));
            ranges.push((start, b.insts.len() as u32));
            terms.push(match &b.term {
                Terminator::Jump(t) => DecTerm::Jump(*t),
                Terminator::Branch { pred, neg, then_bb, else_bb } => DecTerm::Branch {
                    pred: *pred,
                    neg: *neg,
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                    reconv: ipdom.get(bi).copied().flatten(),
                },
                Terminator::Ret => DecTerm::Ret,
                Terminator::Exit => DecTerm::Exit,
            });
        }
        DecodedFunc { insts, ranges, terms }
    }

    /// Number of instructions in `block`.
    #[inline]
    pub fn block_len(&self, block: BlockId) -> usize {
        self.ranges[block.0 as usize].1 as usize
    }

    /// Instruction `idx` of `block`.
    #[inline]
    pub fn inst(&self, block: BlockId, idx: usize) -> &DecInst {
        let (start, _) = self.ranges[block.0 as usize];
        &self.insts[start as usize + idx]
    }

    /// The decoded terminator of `block`.
    #[inline]
    pub fn term(&self, block: BlockId) -> &DecTerm {
        &self.terms[block.0 as usize]
    }
}

/// Words of `l` that fall in the private shared-memory region: on-chip
/// slots at or above the register boundary (decided per 32-bit word so
/// wide values may straddle the boundary).
fn smem_words_of(l: MLoc, regs_per_thread: u16) -> u32 {
    if l.place != Place::Onchip {
        return 0;
    }
    (0..l.width.words()).filter(|k| l.slot + k >= regs_per_thread).count() as u32
}

fn decode_inst(i: &MInst, regs_per_thread: u16) -> DecInst {
    const PAD_OP: MOperand = MOperand::Imm(0);
    const PAD_LOC: MLoc = MLoc { place: Place::Onchip, slot: 0, width: Width::W32 };
    assert!(i.srcs.len() <= MAX_SRCS, "machine instruction with {} sources", i.srcs.len());
    let mut srcs = [PAD_OP; MAX_SRCS];
    let mut loc_srcs = [PAD_LOC; MAX_SRCS];
    let mut local_srcs = [PAD_LOC; MAX_SRCS];
    let mut n_loc = 0usize;
    let mut n_local = 0usize;
    let mut smem = 0u32;
    for (k, s) in i.srcs.iter().enumerate() {
        srcs[k] = *s;
        if let MOperand::Loc(l) = s {
            loc_srcs[n_loc] = *l;
            n_loc += 1;
            if l.place == Place::Local {
                local_srcs[n_local] = *l;
                n_local += 1;
            }
            smem += smem_words_of(*l, regs_per_thread);
        }
    }
    if let Some(d) = i.dst {
        smem += smem_words_of(d, regs_per_thread);
    }
    DecInst {
        op: i.op,
        dst: i.dst,
        pdst: i.pdst,
        pred: i.pred,
        pred_neg: i.pred_neg,
        sel_pred: i.sel_pred,
        is_stack_move: i.is_stack_move,
        srcs,
        nsrcs: i.srcs.len() as u8,
        loc_srcs,
        n_loc_srcs: n_loc as u8,
        local_srcs,
        n_local_srcs: n_local as u8,
        smem_words: smem,
    }
}

/// Decode every function of `module` against its per-function ipdom
/// tables.
pub(crate) fn decode_module(module: &MModule, ipdom: &[Vec<Option<BlockId>>]) -> Vec<DecodedFunc> {
    module
        .funcs
        .iter()
        .zip(ipdom)
        .map(|(f, ip)| DecodedFunc::new(f, ip, module.regs_per_thread))
        .collect()
}
