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
//! * the scoreboard words the sources read and the destination writes,
//!   resolved to indices into a warp slot's scoreboard ([`Board`]: one
//!   `u64` per on-chip slot word, then one per local word), so the
//!   scheduler's readiness scan is one flat loop over words;
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

/// Most scoreboard words an instruction's sources can read.
const MAX_SRC_WORDS: usize = 4 * MAX_SRCS;

/// The scoreboard layout of a module: a warp's on-chip slot words come
/// first, then its local (spill) words. Each word is `ready << 1 |
/// from_memory`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Board {
    /// On-chip slot words per thread (registers, then private
    /// shared-memory slots).
    pub onchip_words: usize,
    /// Local-memory words per thread.
    pub local_words: usize,
}

impl Board {
    pub fn of(module: &MModule) -> Self {
        Board {
            onchip_words: usize::from(module.regs_per_thread)
                + usize::from(module.smem_slots_per_thread),
            local_words: usize::from(module.local_slots_per_thread),
        }
    }

    /// Scoreboard words of a warp slot.
    pub fn words(&self) -> usize {
        self.onchip_words + self.local_words
    }

    /// The scoreboard indices of `l`'s words, in word order. Words past
    /// the end of their place have no scoreboard entry (they always
    /// read ready).
    fn indices(&self, l: MLoc) -> impl Iterator<Item = u16> {
        let (at, len) = match l.place {
            Place::Onchip => (0, self.onchip_words),
            Place::Local => (self.onchip_words, self.local_words),
        };
        (0..usize::from(l.width.words()))
            .map(move |k| usize::from(l.slot) + k)
            .filter(move |&i| i < len)
            .map(move |i| u16::try_from(at + i).expect("scoreboard index fits u16"))
    }
}

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
    /// Scoreboard words of the slot sources, in source and word order,
    /// `src_words[..n_src_words]` valid — the readiness scan's walk.
    src_words: [u16; MAX_SRC_WORDS],
    n_src_words: u8,
    /// Scoreboard words of the destination: `dst_words.0` onwards,
    /// `dst_words.1` of them.
    dst_words: (u16, u8),
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

    /// Scoreboard words the sources read, in source order.
    #[inline]
    pub fn src_words(&self) -> &[u16] {
        &self.src_words[..usize::from(self.n_src_words)]
    }

    /// Scoreboard words the destination writes.
    #[inline]
    pub fn dst_words(&self) -> std::ops::Range<usize> {
        let (at, n) = self.dst_words;
        usize::from(at)..usize::from(at) + usize::from(n)
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
    /// Decode `f`, resolving reconvergence targets from `ipdom`, the
    /// register/shared-memory boundary from `regs_per_thread` and
    /// scoreboard words against `board`.
    pub fn new(
        f: &MFunction,
        ipdom: &[Option<BlockId>],
        regs_per_thread: u16,
        board: Board,
    ) -> Self {
        let mut insts = Vec::with_capacity(f.num_insts());
        let mut ranges = Vec::with_capacity(f.blocks.len());
        let mut terms = Vec::with_capacity(f.blocks.len());
        for (bi, b) in f.blocks.iter().enumerate() {
            let start = insts.len() as u32;
            insts.extend(b.insts.iter().map(|i| decode_inst(i, regs_per_thread, board)));
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

    /// The instructions of `block` as a range of indices: its first
    /// instruction's and one past its last.
    #[inline]
    pub fn span(&self, block: BlockId) -> (u32, u32) {
        let (start, len) = self.ranges[block.0 as usize];
        (start, start + len)
    }

    /// The instruction at index `pc` of a block whose span ends at
    /// `end`, or `None` when `pc` has reached `end` (the terminator).
    #[inline]
    pub fn inst(&self, pc: u32, end: u32) -> Option<&DecInst> {
        (pc < end).then(|| &self.insts[pc as usize])
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

fn decode_inst(i: &MInst, regs_per_thread: u16, board: Board) -> DecInst {
    const PAD_OP: MOperand = MOperand::Imm(0);
    const PAD_LOC: MLoc = MLoc { place: Place::Onchip, slot: 0, width: Width::W32 };
    assert!(i.srcs.len() <= MAX_SRCS, "machine instruction with {} sources", i.srcs.len());
    let mut srcs = [PAD_OP; MAX_SRCS];
    let mut src_words = [0u16; MAX_SRC_WORDS];
    let mut local_srcs = [PAD_LOC; MAX_SRCS];
    let mut n_words = 0usize;
    let mut n_local = 0usize;
    let mut smem = 0u32;
    for (k, s) in i.srcs.iter().enumerate() {
        srcs[k] = *s;
        if let MOperand::Loc(l) = s {
            for w in board.indices(*l) {
                src_words[n_words] = w;
                n_words += 1;
            }
            if l.place == Place::Local {
                local_srcs[n_local] = *l;
                n_local += 1;
            }
            smem += smem_words_of(*l, regs_per_thread);
        }
    }
    let mut dst_words = (0, 0);
    if let Some(d) = i.dst {
        smem += smem_words_of(d, regs_per_thread);
        let mut words = board.indices(d);
        if let Some(first) = words.next() {
            dst_words = (first, 1 + words.count() as u8);
        }
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
        src_words,
        n_src_words: n_words as u8,
        dst_words,
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
        .map(|(f, ip)| DecodedFunc::new(f, ip, module.regs_per_thread, Board::of(module)))
        .collect()
}
