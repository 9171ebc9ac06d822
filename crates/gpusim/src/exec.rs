//! Per-SM execution engine: SIMT warps over machine code, with
//! scoreboarded latencies, coalescing, shared-memory bank conflicts,
//! barriers, calls, and divergence via an immediate-post-dominator
//! reconvergence stack.
//!
//! The engine is *value-accurate*: it computes the same results as the
//! reference interpreter (`orion_kir::interp`) while attributing cycle
//! costs, so semantic-preservation tests can compare global memory
//! bit-for-bit.
//!
//! Execution runs over predecoded instruction tables (`decode`) and
//! structure-of-arrays lane state (`lanes`): warp-wide register-file
//! gathers, packed predicate masks, and masked slice write-backs, with
//! 32-bit global and shared loads filling the destination register
//! plane in one warp-wide pass.
//!
//! **Slot table.** An SM holds a fixed table of `residency ×
//! warps_per_block` warp slots (and one CTA slot per resident block),
//! built once per launch. A retiring CTA's slots take the next block of
//! the SM's share of the grid, resetting their buffers in place — the
//! lane arena, shared memory, each warp's flattened SIMT stack (one
//! `Vec<SimtEntry>` plus frame bases) and scoreboard — so admitting a
//! block allocates nothing.
//!
//! **Scoreboard word.** A warp's scoreboard is one `u64` per on-chip
//! slot word, then one per local word: `ready << 1 | from_memory`. The
//! decoded instruction carries the indices of the words its sources
//! read and its destination writes.
//!
//! **Issue key.** Warps issue in one total order: the runnable warp
//! minimizing `(ready_cycle, admission sequence)`, where a warp's
//! sequence is its CTA's admission index on the SM × warps-per-block +
//! warp-in-block (the warp id of a table that appended every admitted
//! warp). Each slot's `u64` key packs ready cycle, sequence and slot
//! index (`IssueKeys`), the field widths taken from the launch, and a
//! tournament tree over the slots (`ReadyQueue`) keeps the minimum at
//! its root. Debug builds cross-check every pick against a linear scan
//! of the table that compares unpacked `(ready, sequence)` pairs. The
//! golden launch fixtures (`orion-bench`) pin the engine's observable
//! results.
//!
//! An engine can record which 64-byte chunks of global memory its
//! stores touched (`DirtyChunks`), so the SM fan-out in `sim` diffs
//! and resets only those chunks of its private copy.

use crate::decode::{decode_module, Board, DecInst, DecTerm, DecodedFunc, MAX_SRCS};
use crate::device::DeviceSpec;
use crate::lanes::{warp_alu, warp_setp, SoaCta, WarpCtx, WarpOperand};
use crate::memory::{bank_degree, coalesce_lines, MemKind, MemStats, MemSystem};
use orion_kir::cfg::{Cfg, PostDominators};
use orion_kir::function::{FuncKind, Function};
use orion_kir::inst::Opcode;
use orion_kir::mir::{MLoc, MModule, Place};
use orion_kir::sem::Val;
use orion_kir::types::{BlockId, FuncId, MemSpace, Width, NUM_PRED_REGS};
use serde::{Deserialize, Serialize};

/// Kernel launch shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Launch {
    pub grid: u32,
    pub block: u32,
}

/// Simulator failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The kernel cannot be resident on an SM (shared memory or register
    /// demand exceeds the hardware) — the paper's empty Table 3 cells.
    Unlaunchable(String),
    /// A memory access fell outside the provided buffer.
    OutOfBounds { space: MemSpace, addr: u64 },
    /// Scheduler found runnable work but no warp could progress.
    Deadlock,
    /// Dynamic instruction budget exceeded.
    StepLimit,
    /// The launch failed for a momentary, retryable reason (injected by
    /// the fault layer; on real hardware a driver hiccup or a spurious
    /// `CUDA_ERROR_LAUNCH_FAILED`). The code disambiguates independent
    /// occurrences for logs.
    TransientLaunchFailure { code: u32 },
    /// The device could not provide the resources the launch needs right
    /// now (perturbed/contended device state) — unlike
    /// [`SimError::Unlaunchable`] this is a property of the moment, not
    /// of the binary, but retrying the same version is unlikely to help
    /// while the pressure lasts.
    ResourceExceeded { detail: String },
    /// The launch exceeded its cycle budget without completing — the
    /// simulator watchdog fired instead of spinning forever on a hung
    /// kernel.
    Watchdog { budget: u64 },
}

impl SimError {
    /// Whether a retry of the same launch may succeed (bounded-retry
    /// candidates for the resilient runtime).
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::TransientLaunchFailure { .. })
    }

    /// Whether the failure indicts this *version* at this moment
    /// (quarantine candidates): the binary may be fine, but launching it
    /// again right away will keep failing, so tuning should continue
    /// over the surviving candidates.
    pub fn is_quarantineable(&self) -> bool {
        matches!(
            self,
            SimError::ResourceExceeded { .. }
                | SimError::Watchdog { .. }
                | SimError::Unlaunchable(_)
        )
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unlaunchable(s) => write!(f, "kernel not launchable: {s}"),
            SimError::OutOfBounds { space, addr } => {
                write!(f, "{space} access at {addr:#x} out of bounds")
            }
            SimError::Deadlock => write!(f, "simulation deadlock (barrier divergence?)"),
            SimError::StepLimit => write!(f, "dynamic instruction limit exceeded"),
            SimError::TransientLaunchFailure { code } => {
                write!(f, "transient launch failure (code {code})")
            }
            SimError::ResourceExceeded { detail } => {
                write!(f, "device resources exceeded: {detail}")
            }
            SimError::Watchdog { budget } => {
                write!(f, "watchdog: launch exceeded its cycle budget of {budget}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-cycle stall attribution, mirroring what CUPTI/nsight expose on
/// real hardware. Every SM cycle lands in exactly one bucket, so after
/// device aggregation (which pads idle SMs — see `sim::run_launch_opts`)
/// the buckets **provably sum to `cycles × num_sms`**.
///
/// The engine is event-driven, so attribution works on gaps: when the
/// scheduler issues at cycle `t` after last issuing at cycle `s`, the
/// cycles in `(s, t)` are charged to the binding constraint that kept
/// the issued warp (the earliest-ready one) from issuing sooner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallStats {
    /// Cycles in which the SM issued at least one warp instruction.
    pub issued: u64,
    /// Waiting on a register written by an in-flight ALU/pipeline op
    /// (RAW hazard), or on issue-port serialization (bank-conflict
    /// replays, multi-cycle issue).
    pub scoreboard: u64,
    /// Waiting on an outstanding memory access (global/L1/L2/DRAM or
    /// spill traffic to local memory).
    pub mem_pending: u64,
    /// Waiting for the rest of the CTA at a barrier.
    pub barrier: u64,
    /// No warp was eligible: the SM had no resident work that cycle
    /// (device-level padding for SMs that finished before the slowest
    /// SM, or received no blocks at all).
    pub no_eligible: u64,
    /// SM done issuing; in-flight latency draining to completion.
    pub drain: u64,
}

impl StallStats {
    /// Total accounted cycles (the sum of every bucket).
    pub fn total(&self) -> u64 {
        self.issued
            + self.scoreboard
            + self.mem_pending
            + self.barrier
            + self.no_eligible
            + self.drain
    }

    /// Buckets with their metric names, for exporters and tests.
    pub fn as_named(&self) -> [(&'static str, u64); 6] {
        [
            ("issued", self.issued),
            ("scoreboard", self.scoreboard),
            ("mem_pending", self.mem_pending),
            ("barrier", self.barrier),
            ("no_eligible", self.no_eligible),
            ("drain", self.drain),
        ]
    }

    pub fn absorb(&mut self, o: &StallStats) {
        self.issued += o.issued;
        self.scoreboard += o.scoreboard;
        self.mem_pending += o.mem_pending;
        self.barrier += o.barrier;
        self.no_eligible += o.no_eligible;
        self.drain += o.drain;
    }
}

/// Why a warp's earliest-ready time is what it is — the binding
/// constraint used to classify scheduling gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Issue-side: previous instruction's issue cost / replays.
    Pipeline,
    /// Released from a barrier at that time.
    Barrier,
    /// Source operand written by an in-flight non-memory op.
    Raw,
    /// Source operand waiting on a memory access.
    Mem,
}

/// Dynamic counters for one launch (summed over SMs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Warp-instructions issued.
    pub warp_insts: u64,
    /// Thread-instructions (warp_insts × active lanes).
    pub thread_insts: u64,
    /// Stack/argument move instructions executed (warp granularity).
    pub stack_moves: u64,
    /// Private shared-memory slot words accessed.
    pub smem_slot_accesses: u64,
    /// User shared-memory transactions (after conflict serialization).
    pub shared_mem_accesses: u64,
    /// Extra cycles serialized by bank conflicts.
    pub bank_conflict_extra: u64,
    /// Barriers executed (warp granularity).
    pub barriers: u64,
    /// Local-memory word transactions (spill traffic).
    pub local_transactions: u64,
    /// Memory hierarchy counters.
    pub mem: MemStats,
    /// Per-cycle stall attribution.
    pub stalls: StallStats,
}

/// A machine module plus its predecoded execution tables.
pub struct LinkedProgram<'m> {
    pub module: &'m MModule,
    /// Per-function flat instruction/terminator tables with SIMT
    /// reconvergence targets (immediate post-dominators) resolved at
    /// decode time.
    pub(crate) dec: Vec<DecodedFunc>,
}

impl<'m> LinkedProgram<'m> {
    /// Precompute per-function post-dominators and decode every
    /// function into its flat side tables.
    pub fn new(module: &'m MModule) -> Self {
        let ipdom: Vec<Vec<Option<BlockId>>> = module
            .funcs
            .iter()
            .map(|f| {
                if f.blocks.is_empty() {
                    return Vec::new();
                }
                // Build a terminator-skeleton kir function to reuse the
                // post-dominator analysis.
                let mut sk = Function::new(f.name.clone(), FuncKind::Kernel);
                sk.blocks = f
                    .blocks
                    .iter()
                    .map(|b| orion_kir::function::BasicBlock {
                        insts: Vec::new(),
                        term: b.term.clone(),
                    })
                    .collect();
                let cfg = Cfg::new(&sk);
                PostDominators::new(&sk, &cfg).ipdom
            })
            .collect();
        let dec = decode_module(module, &ipdom);
        LinkedProgram { module, dec }
    }
}

const FULL_MASK: u32 = u32::MAX;

/// One entry of a warp's SIMT reconvergence stack: a path of `mask`
/// lanes in `block` of `func`, at its instruction `pc` (an index into
/// the function's decoded instructions; `end` is the block's end).
#[derive(Debug, Clone, Copy)]
struct SimtEntry {
    func: FuncId,
    block: BlockId,
    pc: u32,
    end: u32,
    reconv: Option<BlockId>,
    mask: u32,
}

impl SimtEntry {
    /// A path of `mask` lanes entering `block` of `func` (decoded as
    /// `df`), reconverging at `reconv`.
    fn enter(
        df: &DecodedFunc,
        func: FuncId,
        block: BlockId,
        reconv: Option<BlockId>,
        mask: u32,
    ) -> Self {
        let (pc, end) = df.span(block);
        SimtEntry { func, block, pc, end, reconv, mask }
    }

    /// Move the path to the start of `block` (of the same function).
    fn goto(&mut self, df: &DecodedFunc, block: BlockId) {
        self.block = block;
        (self.pc, self.end) = df.span(block);
    }
}

/// One hardware warp slot of the SM's fixed table. A slot holds the
/// warps of successive CTAs admitted into its CTA slot and keeps its
/// buffers (SIMT stack, frames, scoreboard) across them.
struct WarpSlot {
    /// Admission sequence of the warp held: admission index of its CTA
    /// on this SM × warps-per-block + warp-in-block. It breaks ready-time
    /// ties in the issue order (the warp id of a table that appended one
    /// entry per admitted warp).
    seq: u64,
    /// CTA-table slot of the warp's CTA.
    cta: usize,
    warp_in_block: u32,
    /// Per-warp-slot rollup index, `(admission index % residency) ×
    /// warps-per-block + warp-in-block` (a recycled table slot may
    /// differ from it).
    hw_slot: usize,
    /// SIMT stacks of every call frame, flattened: frame `f` owns
    /// `simt[frames[f]..]` up to the next frame's base.
    simt: Vec<SimtEntry>,
    frames: Vec<usize>,
    alive: u32,
    done: bool,
    at_barrier: bool,
    barrier_release: u64,
    next_free: u64,
    /// Why `next_free` is what it is (stall attribution).
    free_reason: Wait,
    /// Scoreboard: one word per on-chip slot word, then one per local
    /// word, each `ready << 1 | from_memory` (local words are always
    /// memory: spill traffic).
    board: Vec<u64>,
    pred_ready: [u64; NUM_PRED_REGS as usize],
    /// Binding constraint cached when the slot was last queued (the
    /// `Wait` half of `warp_ready_info` at that instant; the warp has
    /// not mutated since, or it would have been re-queued).
    ready_why: Wait,
}

impl WarpSlot {
    /// An empty (done) slot with a scoreboard of `board_words` words.
    fn new(board_words: usize) -> Self {
        WarpSlot {
            seq: 0,
            cta: 0,
            warp_in_block: 0,
            hw_slot: 0,
            simt: Vec::new(),
            frames: Vec::new(),
            alive: 0,
            done: true,
            at_barrier: false,
            barrier_release: 0,
            next_free: 0,
            free_reason: Wait::Pipeline,
            board: vec![0; board_words],
            pred_ready: [0; NUM_PRED_REGS as usize],
            ready_why: Wait::Pipeline,
        }
    }

    /// Base of the current frame's entries in `simt`.
    #[inline]
    fn frame_base(&self) -> usize {
        *self.frames.last().expect("live warp has a frame")
    }
}

struct Cta {
    grid_idx: u32,
    lanes: SoaCta,
    shared: Vec<u8>,
    warps_left: usize,
    /// Cycle at which this CTA was admitted (telemetry timeline).
    admitted_at: u64,
}

/// The ready queue's `u64` issue key: from high to low bits the ready
/// cycle, the admission sequence and the table slot. Sequences are
/// unique, so the slot bits never decide the order — they only let the
/// pick find its warp. The field widths come from the launch: the
/// sequence field holds every admission the SM's share of the grid can
/// make, the slot field the table, and the ready field the rest. Ready
/// times clamp at `cycle_budget + 1` (any later time ends the launch
/// alike, through the watchdog) and count from `base`, which moves up
/// only if a launch outlives the ready field.
#[derive(Debug, Clone, Copy)]
struct IssueKeys {
    seq_shift: u32,
    ready_shift: u32,
    /// Largest ready-field value (one below all ones, so no key is
    /// [`IDLE`]).
    field_max: u64,
    /// Cycle that ready field 0 stands for.
    base: u64,
    /// `cycle_budget + 1`: the clamp.
    hung: u64,
}

impl IssueKeys {
    /// Keys for `max_seq + 1` admissions into `slots` table slots under
    /// `cycle_budget`.
    fn new(max_seq: u64, slots: usize, cycle_budget: u64) -> Self {
        let bits = |n: u64| u64::BITS - n.leading_zeros();
        let seq_shift = bits(slots.saturating_sub(1) as u64);
        let ready_shift = seq_shift + bits(max_seq);
        assert!(ready_shift < u64::BITS - 1, "sequence and slot fields leave no ready field");
        IssueKeys {
            seq_shift,
            ready_shift,
            field_max: (u64::MAX >> ready_shift) - 1,
            base: 0,
            hung: cycle_budget.saturating_add(1),
        }
    }

    #[inline]
    fn key(&self, ready: u64, seq: u64, slot: usize) -> u64 {
        let r = ready.min(self.hung);
        debug_assert!(r >= self.base, "ready time {r} below the key base {}", self.base);
        ((r - self.base).min(self.field_max) << self.ready_shift)
            | (seq << self.seq_shift)
            | slot as u64
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key & ((1 << self.seq_shift) - 1)) as usize
    }

    #[inline]
    fn ready(&self, key: u64) -> u64 {
        self.base + (key >> self.ready_shift)
    }

    /// Whether `key`'s ready field is full below the clamp, so it no
    /// longer tells ready times apart.
    #[inline]
    fn saturated(&self, key: u64) -> bool {
        key >> self.ready_shift == self.field_max && self.base + self.field_max < self.hung
    }
}

/// The key of a slot that is not runnable.
const IDLE: u64 = u64::MAX;

/// The ready queue: a tournament tree over the fixed slot table. Leaf
/// `i` holds slot `i`'s issue key ([`IDLE`] while it is not runnable)
/// and every inner node the smaller key of its two children, so the
/// root is the next pick. Re-keying a slot rewrites the path from its
/// leaf to the root: log2(slots) branch-free steps, and no stale
/// entries to skip.
struct ReadyQueue {
    /// `nodes[1]` is the root, `nodes[leaves + i]` slot `i`'s leaf.
    nodes: Vec<u64>,
    leaves: usize,
}

impl ReadyQueue {
    fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        ReadyQueue { nodes: vec![IDLE; 2 * leaves], leaves }
    }

    #[inline]
    fn set(&mut self, slot: usize, key: u64) {
        // Carry the path's minimum up: each step reads only the sibling.
        let mut j = self.leaves + slot;
        let mut min = key;
        self.nodes[j] = min;
        while j > 1 {
            min = min.min(self.nodes[j ^ 1]);
            j /= 2;
            self.nodes[j] = min;
        }
    }

    /// The smallest key ([`IDLE`] when no slot is runnable).
    #[inline]
    fn min(&self) -> u64 {
        self.nodes[1]
    }
}

/// The per-instruction working buffers (bank-conflict word lists,
/// coalesced line lists, warp-wide operand files), reused across every
/// step.
#[derive(Default)]
struct Scratch {
    /// Bank-conflict word list.
    words: Vec<u64>,
    /// Coalesced cache-line list.
    lines: Vec<u64>,
    /// Warp-wide operand register files (SoA ALU/Setp gather targets).
    ops: [WarpOperand; MAX_SRCS],
    /// Warp-wide result register file (SoA ALU scatter source).
    out: WarpOperand,
}

/// One SM's execution of its share of the grid.
pub(crate) struct SmEngine<'m, 'g> {
    dev: &'m DeviceSpec,
    prog: &'m LinkedProgram<'m>,
    launch: Launch,
    params: &'m [u32],
    global: &'g mut [u8],
    /// Chunks of `global` this engine stored to, when its caller diffs
    /// them back (the fan-out); `None` on the serial path.
    dirty: Option<&'g mut DirtyChunks>,
    mem: MemSystem,
    pub stats: SimStats,
    /// Warp-instructions issued per hardware warp slot (resident-CTA
    /// slot × warps-per-block + warp-in-block), for the per-warp-slot
    /// occupancy rollup.
    pub per_warp_issued: Vec<u64>,
    /// SM index on the device (telemetry lane id).
    sm_id: u32,
    board: Board,
    warps_per_block: u32,
    // time bookkeeping
    cur_cycle: u64,
    issued_this_cycle: u32,
    last_event: u64,
    /// First cycle not yet attributed to a stall bucket.
    acct_cursor: u64,
    steps_left: u64,
    /// Watchdog: the engine refuses to advance past this cycle and
    /// returns [`SimError::Watchdog`] instead of spinning forever.
    cycle_budget: u64,
    /// Fault injection: wedge the first admitted warp (its ready time is
    /// pushed past the cycle budget, so the launch can only end via the
    /// watchdog — a deterministic stand-in for a stuck-warp hang).
    stuck_warp: bool,
    /// Resident-CTA limit of the current launch (per-warp-slot rollup).
    residency: u32,
    /// CTAs admitted so far (the next admission index).
    admitted: u64,
    keys: IssueKeys,
    /// Per-instruction working buffers.
    scratch: Scratch,
}

/// Per-launch safety/fault knobs threaded from the launch path into
/// each SM engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineGuards {
    /// Hard cap on interpreted warp-instructions.
    pub step_limit: u64,
    /// Watchdog budget in cycles.
    pub cycle_budget: u64,
    /// Injected hang: wedge the first admitted warp past the budget.
    pub stuck_warp: bool,
}

impl<'m, 'g> SmEngine<'m, 'g> {
    pub fn new(
        dev: &'m DeviceSpec,
        prog: &'m LinkedProgram<'m>,
        launch: Launch,
        params: &'m [u32],
        global: &'g mut [u8],
        sm_id: u32,
        guards: EngineGuards,
    ) -> Self {
        SmEngine {
            dev,
            prog,
            launch,
            params,
            global,
            dirty: None,
            mem: MemSystem::new(dev),
            stats: SimStats::default(),
            per_warp_issued: Vec::new(),
            sm_id,
            board: Board::of(prog.module),
            warps_per_block: launch.block.div_ceil(32),
            cur_cycle: 0,
            issued_this_cycle: 0,
            last_event: 0,
            acct_cursor: 0,
            steps_left: guards.step_limit,
            cycle_budget: guards.cycle_budget,
            stuck_warp: guards.stuck_warp,
            residency: 1,
            admitted: 0,
            keys: IssueKeys::new(0, 1, guards.cycle_budget),
            scratch: Scratch::default(),
        }
    }

    /// Record every global store of this engine in `dirty`.
    pub fn track_writes(mut self, dirty: &'g mut DirtyChunks) -> Self {
        self.dirty = Some(dirty);
        self
    }

    /// Run `blocks` (grid indices) with at most `residency` concurrent
    /// CTAs; returns the completion cycle.
    pub fn run(&mut self, blocks: &[u32], residency: u32) -> Result<u64, SimError> {
        let wpb = u64::from(self.warps_per_block);
        let slots = (residency as usize).min(blocks.len()) * wpb as usize;
        let max_seq = (blocks.len() as u64 * wpb).saturating_sub(1);
        self.run_keyed(blocks, residency, IssueKeys::new(max_seq, slots, self.cycle_budget))
    }

    /// [`run`](Self::run) under the issue keys `keys`.
    fn run_keyed(
        &mut self,
        blocks: &[u32],
        residency: u32,
        keys: IssueKeys,
    ) -> Result<u64, SimError> {
        self.residency = residency;
        self.keys = keys;
        let wpb = self.warps_per_block as usize;
        // The fixed tables: one CTA slot per resident block, one warp
        // slot per warp of each. Admitting a block allocates nothing.
        let n_ctas = (residency as usize).min(blocks.len());
        let stride = wpb * 32;
        let smem = self.prog.module.user_smem_bytes as usize;
        let mut ctas: Vec<Cta> = (0..n_ctas)
            .map(|_| Cta {
                grid_idx: 0,
                lanes: SoaCta::new(self.board.onchip_words, self.board.local_words * 4, stride),
                shared: vec![0; smem],
                warps_left: 0,
                admitted_at: 0,
            })
            .collect();
        let mut warps: Vec<WarpSlot> =
            (0..n_ctas * wpb).map(|_| WarpSlot::new(self.board.words())).collect();
        // Every warp of the first `n_ctas` admissions issues, and later
        // ones reuse their rollup slots.
        self.per_warp_issued = vec![0; warps.len()];
        let mut pending = blocks.iter().copied();
        // Seed initial residency.
        for c in 0..n_ctas {
            let b = pending.next().expect("a block per seeded CTA slot");
            self.admit_cta(&mut ctas[c], &mut warps[c * wpb..(c + 1) * wpb], c, b, 0);
        }
        // Injected hang: wedge the first warp past the cycle budget so
        // the launch can only terminate through the watchdog.
        if self.stuck_warp {
            if let Some(w) = warps.first_mut() {
                w.next_free = self.cycle_budget.saturating_add(1);
                w.free_reason = Wait::Mem;
            }
        }
        self.run_queue(&mut pending, &mut ctas, &mut warps)?;
        self.stats.mem = self.mem.stats;
        // Close the per-SM accounting: everything between the last issue
        // and engine completion is latency drain. `last_event` can in
        // principle trail the accounting cursor by a bookkeeping-only
        // issue (empty-path discard), so completion is their max — which
        // makes the invariant `Σ buckets == completion` exact.
        let end = self.last_event.max(self.acct_cursor);
        self.last_event = end;
        self.stats.stalls.drain += end - self.acct_cursor;
        self.acct_cursor = end;
        debug_assert_eq!(self.stats.stalls.total(), end, "stall buckets must cover every cycle");
        Ok(end)
    }

    /// O(W) scan of the table for the runnable warp minimizing
    /// `(ready_cycle, admission sequence)`, ready times clamped at
    /// `cycle_budget + 1` like the keys' — without the keys' bit
    /// packing. Debug builds check every ready-queue pick against it.
    #[cfg(debug_assertions)]
    fn scan_best(&self, warps: &[WarpSlot]) -> Option<(u64, u64, Wait)> {
        let mut best: Option<(u64, u64, Wait)> = None;
        for w in warps {
            if w.done || w.at_barrier {
                continue;
            }
            let (r, why) = self.warp_ready_info(w);
            let r = r.min(self.keys.hung);
            if best.is_none_or(|(br, bs, _)| (r, w.seq) < (br, bs)) {
                best = Some((r, w.seq, why));
            }
        }
        best
    }

    /// Put warp slot `i` in the ready queue at its current issue key,
    /// caching the binding constraint in `ready_why`, or take it out
    /// when it is not runnable (done, or waiting at a barrier).
    fn requeue(&self, queue: &mut ReadyQueue, warps: &mut [WarpSlot], i: usize) {
        let w = &mut warps[i];
        let key = if w.done || w.at_barrier {
            IDLE
        } else {
            let (r, why) = self.warp_ready_info(w);
            w.ready_why = why;
            self.keys.key(r, w.seq, i)
        };
        queue.set(i, key);
    }

    fn run_queue<I: Iterator<Item = u32>>(
        &mut self,
        pending: &mut I,
        ctas: &mut [Cta],
        warps: &mut [WarpSlot],
    ) -> Result<(), SimError> {
        // Every state change that can move a warp's ready time lands
        // its slot in `touched`, which re-keys it.
        let mut queue = ReadyQueue::new(warps.len());
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..warps.len() {
            self.requeue(&mut queue, warps, i);
        }
        loop {
            let key = queue.min();
            if key == IDLE {
                // No runnable warp left: every warp is done, or the rest
                // wait at barriers that (releasing eagerly) can never
                // open.
                if warps.iter().all(|w| w.done) {
                    return Ok(());
                }
                return Err(SimError::Deadlock);
            }
            if self.keys.saturated(key) {
                // Every runnable warp is ready at or past the last cycle
                // the ready field tells apart: count from the earliest
                // and re-key them all.
                self.keys.base = warps
                    .iter()
                    .filter(|w| !w.done && !w.at_barrier)
                    .map(|w| self.warp_ready_info(w).0.min(self.keys.hung))
                    .min()
                    .expect("a queued key belongs to a runnable warp");
                for i in 0..warps.len() {
                    self.requeue(&mut queue, warps, i);
                }
                continue;
            }
            let wi = self.keys.slot(key);
            let ready = self.keys.ready(key);
            let wait = warps[wi].ready_why;
            #[cfg(debug_assertions)]
            {
                // The queue must reproduce the scan's total order pick
                // for pick.
                debug_assert_eq!(
                    self.scan_best(warps),
                    Some((ready, warps[wi].seq, wait)),
                    "ready queue diverged from the scan order"
                );
            }
            touched.clear();
            self.issue_at(pending, ctas, warps, wi, ready, wait, &mut touched)?;
            self.requeue(&mut queue, warps, wi);
            for &k in &touched {
                if k != wi {
                    self.requeue(&mut queue, warps, k);
                }
            }
        }
    }

    /// One issue step: step-limit/watchdog guards, issue-slot and stall
    /// bookkeeping, the warp step itself, then barrier release and CTA
    /// retirement/admission. Other slots whose scheduling state changed
    /// are appended to `touched` so the ready queue can re-key them (the
    /// caller always re-keys `wi`).
    #[allow(clippy::too_many_arguments)]
    fn issue_at<I: Iterator<Item = u32>>(
        &mut self,
        pending: &mut I,
        ctas: &mut [Cta],
        warps: &mut [WarpSlot],
        wi: usize,
        ready: u64,
        wait: Wait,
        touched: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        if self.steps_left == 0 {
            return Err(SimError::StepLimit);
        }
        self.steps_left -= 1;
        // Watchdog: a warp whose earliest ready time lies beyond the
        // cycle budget will never issue within it — the launch is
        // hung (injected stuck warp, or a genuinely runaway stall).
        // Bail out instead of simulating forever. Hung is the keys'
        // clamp, `cycle_budget + 1` saturating: at the maximal budget a
        // wedged warp is ready at `u64::MAX`, which no launch reaches.
        if ready.max(self.cur_cycle) >= self.keys.hung {
            return Err(SimError::Watchdog { budget: self.cycle_budget });
        }
        // Issue-slot bookkeeping: `schedulers_per_sm` issues/cycle.
        let mut t = ready.max(self.cur_cycle);
        if t > self.cur_cycle {
            self.cur_cycle = t;
            self.issued_this_cycle = 0;
        }
        if self.issued_this_cycle >= self.dev.schedulers_per_sm {
            self.cur_cycle += 1;
            self.issued_this_cycle = 0;
            t = self.cur_cycle;
        }
        self.issued_this_cycle += 1;

        // Stall attribution: charge the un-issued gap up to `t` to
        // the binding constraint of the warp we are about to issue,
        // then mark cycle `t` itself as an issue cycle.
        if t >= self.acct_cursor {
            let gap = t - self.acct_cursor;
            if gap > 0 {
                match wait {
                    Wait::Barrier => self.stats.stalls.barrier += gap,
                    Wait::Mem => self.stats.stalls.mem_pending += gap,
                    Wait::Pipeline | Wait::Raw => self.stats.stalls.scoreboard += gap,
                }
            }
            self.stats.stalls.issued += 1;
            self.acct_cursor = t + 1;
        }
        self.per_warp_issued[warps[wi].hw_slot] += 1;

        self.step_warp(warps, wi, ctas, t)?;

        // Barrier release: if every live warp of the CTA is waiting.
        // Only the CTA's own warp slots are scanned.
        let c = warps[wi].cta;
        let wpb = self.warps_per_block as usize;
        let cta_warps = c * wpb..(c + 1) * wpb;
        if warps[wi].at_barrier {
            let live = || warps[cta_warps.clone()].iter().filter(|w| !w.done);
            if live().all(|w| w.at_barrier) {
                let release = live().map(|w| w.barrier_release).max().unwrap_or(t);
                for (i, w) in warps[cta_warps.clone()].iter_mut().enumerate() {
                    if w.done {
                        continue;
                    }
                    w.at_barrier = false;
                    w.next_free = w.next_free.max(release);
                    w.free_reason = Wait::Barrier;
                    if cta_warps.start + i != wi {
                        touched.push(cta_warps.start + i);
                    }
                }
            }
        }
        // CTA completion: admit the next block into its slots.
        // (memory counters are folded into stats on exit)
        if warps[wi].done {
            let cta = &mut ctas[c];
            cta.warps_left -= 1;
            if cta.warps_left == 0 {
                if orion_telemetry::is_enabled() {
                    let begin = cta.admitted_at;
                    let end = self.last_event.max(t);
                    orion_telemetry::complete(
                        "sim",
                        &format!("cta{}", cta.grid_idx),
                        self.sm_id,
                        begin,
                        end.saturating_sub(begin),
                        vec![("grid_idx", cta.grid_idx.into())],
                    );
                }
                if let Some(b) = pending.next() {
                    let start = self.last_event.max(t);
                    self.admit_cta(cta, &mut warps[cta_warps.clone()], c, b, start);
                    touched.extend(cta_warps);
                }
            }
        }
        Ok(())
    }

    /// Admit grid block `grid_idx` into CTA slot `c` (table warp slots
    /// `slots`) at cycle `start`, resetting the slot's buffers in place.
    fn admit_cta(
        &mut self,
        cta: &mut Cta,
        slots: &mut [WarpSlot],
        c: usize,
        grid_idx: u32,
        start: u64,
    ) {
        let a = self.admitted;
        self.admitted += 1;
        cta.grid_idx = grid_idx;
        cta.lanes.clear();
        cta.shared.fill(0);
        cta.warps_left = slots.len();
        cta.admitted_at = start;
        let wpb = self.warps_per_block as usize;
        let slot_base = (a as usize % self.residency.max(1) as usize) * wpb;
        let entry = self.prog.module.entry;
        let entry_df = &self.prog.dec[entry.0 as usize];
        for (w, s) in slots.iter_mut().enumerate() {
            let lanes_in_warp = (self.launch.block - w as u32 * 32).min(32);
            let alive = if lanes_in_warp == 32 { FULL_MASK } else { (1u32 << lanes_in_warp) - 1 };
            s.seq = a * wpb as u64 + w as u64;
            s.cta = c;
            s.warp_in_block = w as u32;
            s.hw_slot = slot_base + w;
            s.simt.clear();
            s.simt.push(SimtEntry::enter(entry_df, entry, BlockId(0), None, alive));
            s.frames.clear();
            s.frames.push(0);
            s.alive = alive;
            s.done = false;
            s.at_barrier = false;
            s.barrier_release = 0;
            s.next_free = start;
            s.free_reason = Wait::Pipeline;
            s.board.fill(0);
            s.pred_ready = [0; NUM_PRED_REGS as usize];
            s.ready_why = Wait::Pipeline;
        }
    }

    /// Earliest cycle at which `w` can issue, plus the binding
    /// constraint that sets it (for stall attribution). Ties resolve in
    /// favour of the issue-side reason, then program order of operands.
    /// Walks the predecoded slot-operand list instead of re-matching
    /// `MOperand`s.
    fn warp_ready_info(&self, w: &WarpSlot) -> (u64, Wait) {
        let mut t = w.next_free;
        let mut why = w.free_reason;
        let tos = w.simt.last().expect("live warp has a path");
        let df = &self.prog.dec[tos.func.0 as usize];
        if let Some(inst) = df.inst(tos.pc, tos.end) {
            // The latest source word binds; on ties the first in
            // source order.
            for &i in inst.src_words() {
                let word = w.board[usize::from(i)];
                if word >> 1 > t {
                    t = word >> 1;
                    why = if word & 1 != 0 { Wait::Mem } else { Wait::Raw };
                }
            }
            if let Some(p) = inst.pred {
                if w.pred_ready[p.0 as usize] > t {
                    t = w.pred_ready[p.0 as usize];
                    why = Wait::Raw;
                }
            }
            if let Some(p) = inst.sel_pred {
                if w.pred_ready[p.0 as usize] > t {
                    t = w.pred_ready[p.0 as usize];
                    why = Wait::Raw;
                }
            }
        } else if let DecTerm::Branch { pred, .. } = df.term(tos.block) {
            if w.pred_ready[pred.0 as usize] > t {
                t = w.pred_ready[pred.0 as usize];
                why = Wait::Raw;
            }
        }
        (t, why)
    }

    /// Mark `inst`'s destination `d` ready at `t`, produced by a memory
    /// access when `mem` (local words always are: spill traffic).
    fn set_dst_ready(w: &mut WarpSlot, inst: &DecInst, d: MLoc, t: u64, mem: bool) {
        debug_assert!(t < 1 << 63, "ready time {t} overflows a scoreboard word");
        let word = t << 1 | u64::from(mem || d.place == Place::Local);
        w.board[inst.dst_words()].fill(word);
    }

    /// Interleaved local-memory address of `word` for a thread, unique
    /// per (grid block, thread): warp accesses to one spill word coalesce
    /// into a single 128-byte line.
    fn local_addr(&self, grid_idx: u32, tid: u32, word: usize) -> u64 {
        (u64::from(grid_idx) << 32)
            | ((word as u64 * u64::from(self.launch.block) + u64::from(tid)) * 4)
    }

    /// Coalesce `addrs` (each expanded to `width` words) into unique
    /// cache-line transactions and issue them at `t`; returns the last
    /// completion cycle. Uses the recycled line buffer — no allocation.
    fn coalesced_access(&mut self, addrs: &[u64], width: Width, t: u64) -> u64 {
        let mut lines = std::mem::take(&mut self.scratch.lines);
        coalesce_lines(addrs, width, self.mem.line, &mut lines);
        let mut completions = t;
        for &line in &lines {
            completions = completions.max(self.mem.access(line, t, MemKind::Global));
        }
        self.scratch.lines = lines;
        completions
    }

    /// Write `v` to global memory, marking the chunks it covers when the
    /// engine tracks its writes (see `DirtyChunks`). `None` when out of
    /// bounds; nothing is written then.
    fn store_global(&mut self, addr: u64, width: Width, v: Val) -> Option<()> {
        write_bytes(self.global, addr, width, v)?;
        if let Some(dirty) = self.dirty.as_deref_mut() {
            dirty.mark(addr as usize, width.bytes() as usize);
        }
        Some(())
    }

    /// Shared-memory bank-conflict degree of a warp access (see
    /// [`bank_degree`]); updates the conflict counters.
    fn bank_degree(&mut self, addrs: &[u64], width: Width) -> u64 {
        let degree = bank_degree(addrs, width, &mut self.scratch.words);
        self.stats.shared_mem_accesses += degree;
        self.stats.bank_conflict_extra += (degree - 1) * 2;
        degree
    }

    // Lane sites build `SimError::OutOfBounds` lazily: with `ok_or`
    // every in-bounds lane would build and drop a `SimError`, and
    // since `SimError` owns `String`s that drop is a call per lane.
    #[allow(clippy::too_many_lines, clippy::unnecessary_lazy_evaluations)]
    fn step_warp(
        &mut self,
        warps: &mut [WarpSlot],
        wi: usize,
        ctas: &mut [Cta],
        t: u64,
    ) -> Result<(), SimError> {
        let w = &mut warps[wi];
        // Whatever happens below, the warp's own `next_free` wait is an
        // issue-pipeline cost; data and barrier waits are tracked apart.
        w.free_reason = Wait::Pipeline;
        let tos = *w.simt.last().expect("path");
        // `prog` is a copied reference — borrows of the decoded tables
        // below do not pin `self`.
        let prog = self.prog;
        let df = &prog.dec[tos.func.0 as usize];
        let mask = tos.mask & w.alive;
        if mask == 0 {
            // All lanes of this path have exited: discard the path and
            // unwind empty frames. Never happens for the bottom entry of
            // a warp with live lanes.
            w.simt.pop();
            if w.simt.len() == w.frame_base() {
                if w.frames.len() > 1 {
                    w.frames.pop();
                } else {
                    w.done = true;
                }
            }
            w.next_free = t + 1;
            return Ok(());
        }
        let warp_base_tid = w.warp_in_block * 32;

        let Some(inst) = df.inst(tos.pc, tos.end) else {
            // ---- terminator ----
            w.next_free = t + 1;
            self.last_event = self.last_event.max(t + 1);
            match *df.term(tos.block) {
                DecTerm::Jump(target) => {
                    Self::transfer(w, df, target);
                }
                DecTerm::Branch { pred, neg, then_bb, else_bb, reconv } => {
                    let pb = ctas[w.cta].lanes.pred_bits(w.warp_in_block, pred);
                    let t_mask = mask & if neg { !pb } else { pb };
                    let nt_mask = mask & !t_mask;
                    if nt_mask == 0 {
                        Self::transfer(w, df, then_bb);
                    } else if t_mask == 0 {
                        Self::transfer(w, df, else_bb);
                    } else {
                        let stack = &mut w.simt;
                        // Current entry becomes the reconvergence entry.
                        let top = stack.last_mut().expect("path");
                        let path = |block, reconv, mask| {
                            SimtEntry::enter(df, tos.func, block, reconv, mask)
                        };
                        if let Some(r) = reconv {
                            top.goto(df, r);
                            // Pending else-path, then taken path on top.
                            if Some(else_bb) != reconv {
                                stack.push(path(else_bb, reconv, nt_mask));
                            }
                            if Some(then_bb) != reconv {
                                stack.push(path(then_bb, reconv, t_mask));
                            }
                        } else {
                            // Paths never reconverge (both exit): replace
                            // the entry with two independent paths.
                            stack.pop();
                            stack.push(path(else_bb, None, nt_mask));
                            stack.push(path(then_bb, None, t_mask));
                        }
                    }
                }
                DecTerm::Ret => {
                    let base = w.frames.pop().expect("live warp has a frame");
                    w.simt.truncate(base);
                    debug_assert!(!w.frames.is_empty(), "ret from kernel frame");
                }
                DecTerm::Exit => {
                    w.alive &= !mask;
                    w.simt.pop();
                    if w.simt.len() == w.frame_base() || w.alive == 0 {
                        w.done = true;
                    }
                }
            }
            return Ok(());
        };

        // ---- instruction ----
        w.simt.last_mut().expect("path").pc += 1;
        self.stats.warp_insts += 1;
        self.stats.thread_insts += u64::from(mask.count_ones());
        if inst.is_stack_move {
            self.stats.stack_moves += 1;
        }

        // Timing: operand readiness is folded into scheduling; compute
        // the completion latency here. Private smem-slot word counts are
        // static, precomputed at decode time.
        let mut issue_cost = 1u64;
        let mut result_latency = self.dev.alu_latency;
        if inst.smem_words > 0 {
            self.stats.smem_slot_accesses +=
                u64::from(inst.smem_words) * u64::from(mask.count_ones());
            result_latency += self.dev.smem_latency;
        }

        // Local-slot operand traffic (spills): one transaction per word,
        // over the predecoded spill-source list.
        let cta_grid = ctas[w.cta].grid_idx;
        let mut local_ready_max = t;
        if inst.op != Opcode::Bar {
            for l in inst.local_srcs() {
                for k in 0..l.width.words() {
                    let addr = self.local_addr(cta_grid, warp_base_tid, usize::from(l.slot + k));
                    let c = self.mem.access(addr, t, MemKind::Local);
                    self.stats.local_transactions += 1;
                    local_ready_max = local_ready_max.max(c);
                }
            }
        }

        let ctx = WarpCtx {
            warp: w.warp_in_block,
            warp_base_tid,
            block: self.launch.block,
            grid: self.launch.grid,
            cta_grid,
            params: self.params,
        };
        match inst.op {
            Opcode::Bar => {
                w.at_barrier = true;
                // The CTA releases `barrier_latency` cycles after the
                // last warp arrives (bar.sync pipeline flush); the gap
                // is attributed to the barrier stall bucket.
                w.barrier_release = t + self.dev.barrier_latency.max(1);
                w.next_free = t + 1;
                self.stats.barriers += 1;
                self.last_event = self.last_event.max(w.barrier_release);
                Ok(())
            }
            Opcode::Call(callee) => {
                w.frames.push(w.simt.len());
                let callee_df = &prog.dec[callee.0 as usize];
                w.simt.push(SimtEntry::enter(callee_df, callee, BlockId(0), None, mask));
                w.next_free = t + 1;
                self.last_event = self.last_event.max(t + 1);
                Ok(())
            }
            Opcode::Ld { space, width, offset } => {
                // Phase 1: gather per-lane addresses, in ascending lane
                // order.
                let mut completions = t;
                let (mut lane_addrs, mut n) = ([0u64; 32], 0);
                let Cta { lanes: soa, shared, .. } = &mut ctas[w.cta];
                let exec = soa.exec_mask(ctx.warp, mask, inst.pred, inst.pred_neg);
                let mut base = WarpOperand::default();
                soa.gather(&inst.srcs()[0], &ctx, &mut base);
                let mut m = exec;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    lane_addrs[n] = (i64::from(base.w0(lane) as i32) + i64::from(offset)) as u64;
                    n += 1;
                    m &= m - 1;
                }
                let addrs = &lane_addrs[..n];
                // Phase 2: timing over the gathered addresses.
                match space {
                    MemSpace::Global => {
                        completions = completions.max(self.coalesced_access(addrs, width, t));
                        result_latency = 0; // completion-driven
                    }
                    MemSpace::Shared => {
                        let degree = self.bank_degree(addrs, width);
                        completions = completions.max(t + self.dev.smem_latency + (degree - 1) * 2);
                        result_latency = 0;
                        issue_cost = degree.min(8);
                    }
                    MemSpace::Local => {
                        for &a in addrs {
                            let c = self.mem.access(a, t, MemKind::Local);
                            completions = completions.max(c);
                            self.stats.local_transactions += 1;
                        }
                        result_latency = 0;
                    }
                }
                // Phase 3: execute values (ascending lane order).
                match inst.dst {
                    // Warp-wide fast path: 32-bit global/shared loads land
                    // straight in the register plane.
                    Some(d)
                        if space != MemSpace::Local
                            && width == Width::W32
                            && d.width == Width::W32
                            && d.place == Place::Onchip =>
                    {
                        let buf: &[u8] =
                            if space == MemSpace::Global { self.global } else { shared };
                        soa.load_w32(usize::from(d.slot), ctx.warp, exec, &base, offset, buf)
                            .map_err(|addr| SimError::OutOfBounds { space, addr })?;
                    }
                    _ => {
                        let mut m = exec;
                        while m != 0 {
                            let lane = m.trailing_zeros() as usize;
                            let tid = warp_base_tid + lane as u32;
                            let addr = (i64::from(base.w0(lane) as i32) + i64::from(offset)) as u64;
                            let v = match space {
                                MemSpace::Global => read_bytes(self.global, addr, width),
                                MemSpace::Shared => read_bytes(shared, addr, width),
                                MemSpace::Local => read_bytes(soa.local_region(tid), addr, width),
                            }
                            .ok_or_else(|| SimError::OutOfBounds { space, addr })?;
                            if let Some(d) = inst.dst {
                                soa.write_val(d, ctx.warp, tid, v);
                            }
                            m &= m - 1;
                        }
                    }
                }
                let done = completions.max(local_ready_max) + result_latency;
                if let Some(d) = inst.dst {
                    let dl = handle_local_dst(self, d, cta_grid, warp_base_tid, done);
                    Self::set_dst_ready(w, inst, d, dl, true);
                }
                w.next_free = t + issue_cost;
                self.last_event = self.last_event.max(done);
                Ok(())
            }
            Opcode::St { space, width, offset } => {
                let (mut lane_addrs, mut n) = ([0u64; 32], 0);
                let Cta { lanes: soa, shared, .. } = &mut ctas[w.cta];
                // Gather base + value warp-wide, then write in ascending
                // lane order. Safe to pre-gather: store targets
                // (global/shared/lane-local bytes) are never operand
                // sources, and each lane's write happens after its own
                // reads.
                let exec = soa.exec_mask(ctx.warp, mask, inst.pred, inst.pred_neg);
                let mut base = WarpOperand::default();
                let mut value = WarpOperand::default();
                soa.gather(&inst.srcs()[0], &ctx, &mut base);
                soa.gather(&inst.srcs()[1], &ctx, &mut value);
                let mut m = exec;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    let tid = warp_base_tid + lane as u32;
                    let addr = (i64::from(base.w0(lane) as i32) + i64::from(offset)) as u64;
                    let v = value.val(lane);
                    match space {
                        MemSpace::Global => self.store_global(addr, width, v),
                        MemSpace::Shared => write_bytes(shared, addr, width, v),
                        MemSpace::Local => write_bytes(soa.local_region_mut(tid), addr, width, v),
                    }
                    .ok_or_else(|| SimError::OutOfBounds { space, addr })?;
                    lane_addrs[n] = addr;
                    n += 1;
                    m &= m - 1;
                }
                let addrs = &lane_addrs[..n];
                // Bandwidth accounting (fire-and-forget stores).
                match space {
                    MemSpace::Global => {
                        self.coalesced_access(addrs, width, t);
                    }
                    MemSpace::Shared => {
                        let degree = self.bank_degree(addrs, width);
                        issue_cost = degree.min(8);
                    }
                    MemSpace::Local => {
                        for &a in addrs {
                            self.mem.access(a, t, MemKind::Local);
                            self.stats.local_transactions += 1;
                        }
                    }
                }
                w.next_free = t + issue_cost;
                self.last_event = self.last_event.max(t + issue_cost);
                Ok(())
            }
            Opcode::ISetp(_) | Opcode::FSetp(_) => {
                // Gather both operands, compare all 32 lanes (compares are
                // pure — inactive lanes' results are masked out by the
                // merge), pack into one predicate-mask merge.
                debug_assert_eq!(inst.srcs().len(), 2, "setp has two sources");
                let soa = &mut ctas[w.cta].lanes;
                let exec = soa.exec_mask(ctx.warp, mask, inst.pred, inst.pred_neg);
                let Scratch { ops, .. } = &mut self.scratch;
                soa.gather(&inst.srcs()[0], &ctx, &mut ops[0]);
                soa.gather(&inst.srcs()[1], &ctx, &mut ops[1]);
                let bits = warp_setp(&inst.op, &ops[0], &ops[1]);
                let p = inst.pdst.expect("setp pdst");
                soa.merge_pred(ctx.warp, p, bits, exec);
                let done = local_ready_max.max(t) + result_latency;
                w.pred_ready[p.0 as usize] = done;
                w.next_free = t + issue_cost;
                self.last_event = self.last_event.max(done);
                Ok(())
            }
            _ => {
                // ALU / Mov / Sel / conversions (incl. Nop).
                let soa = &mut ctas[w.cta].lanes;
                let exec = soa.exec_mask(ctx.warp, mask, inst.pred, inst.pred_neg);
                if inst.op != Opcode::Nop && exec != 0 {
                    let srcs = inst.srcs();
                    let Scratch { ops, out, .. } = &mut self.scratch;
                    for (k, s) in srcs.iter().enumerate() {
                        soa.gather(s, &ctx, &mut ops[k]);
                    }
                    if inst.op == Opcode::Sel {
                        let p = inst.sel_pred.expect("sel pred");
                        let pb = soa.pred_bits(ctx.warp, p);
                        out.words = 4;
                        for lane in 0..32 {
                            let v = if pb & (1 << lane) != 0 {
                                ops[0].val(lane)
                            } else {
                                ops[1].val(lane)
                            };
                            for j in 0..4 {
                                out.planes[j][lane] = v.w[j];
                            }
                        }
                    } else {
                        warp_alu(&inst.op, &ops[..srcs.len()], out);
                    }
                    if let Some(d) = inst.dst {
                        soa.scatter(d, &ctx, exec, out);
                    }
                }
                let done = local_ready_max.max(t) + result_latency;
                if let Some(d) = inst.dst {
                    let dl = handle_local_dst(self, d, cta_grid, warp_base_tid, done);
                    Self::set_dst_ready(w, inst, d, dl, false);
                }
                w.next_free = t + issue_cost;
                self.last_event = self.last_event.max(done);
                Ok(())
            }
        }
    }

    /// Jump / fall-through transfer with reconvergence-pop handling.
    fn transfer(w: &mut WarpSlot, df: &DecodedFunc, target: BlockId) {
        let tos = w.simt.last_mut().expect("path");
        if tos.reconv == Some(target) {
            w.simt.pop();
            debug_assert!(w.simt.len() > w.frame_base(), "reconvergence under empty stack");
        } else {
            tos.goto(df, target);
        }
    }
}

/// Store traffic for a local-memory destination; returns the readiness.
fn handle_local_dst(
    me: &mut SmEngine,
    d: MLoc,
    grid_idx: u32,
    warp_base_tid: u32,
    done: u64,
) -> u64 {
    if d.place != Place::Local {
        return done;
    }
    let mut c = done;
    for k in 0..d.width.words() {
        let addr = me.local_addr(grid_idx, warp_base_tid, usize::from(d.slot + k));
        let a = me.mem.access(addr, done, MemKind::Local);
        me.stats.local_transactions += 1;
        c = c.max(a);
    }
    c
}

/// Bytes of global memory per [`DirtyChunks`] bit.
const CHUNK_BYTES: usize = 64;

/// The 64-byte chunks of a global-memory buffer that an engine stored
/// to, one bit per chunk. The fan-out diffs and resets only these.
#[derive(Debug)]
pub(crate) struct DirtyChunks {
    bits: Vec<u64>,
}

impl DirtyChunks {
    /// A clean bitmap covering `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        DirtyChunks { bits: vec![0; bytes.div_ceil(CHUNK_BYTES).div_ceil(64)] }
    }

    /// Mark the chunks overlapping `[addr, addr + len)` (`len > 0`).
    #[inline]
    fn mark(&mut self, addr: usize, len: usize) {
        for c in addr / CHUNK_BYTES..=(addr + len - 1) / CHUNK_BYTES {
            self.bits[c / 64] |= 1 << (c % 64);
        }
    }

    /// Call `f` with each maximal run of dirty chunks as a byte range
    /// clipped to `len`, in ascending order, then clear the bitmap.
    pub fn drain(&mut self, len: usize, mut f: impl FnMut(std::ops::Range<usize>)) {
        // Bits of chunk `c` and the chunks above it in the same word.
        let from = |c: usize| self.bits[c / 64] >> (c % 64);
        let n = self.bits.len() * 64;
        let mut c = 0;
        while c < n {
            if from(c) == 0 {
                c = (c / 64 + 1) * 64;
                continue;
            }
            c += from(c).trailing_zeros() as usize;
            let start = c;
            while c < n && from(c) & 1 == 1 {
                c += 1;
            }
            f(start * CHUNK_BYTES..(c * CHUNK_BYTES).min(len));
        }
        self.bits.fill(0);
    }
}

fn read_bytes(buf: &[u8], addr: u64, width: Width) -> Option<Val> {
    let n = width.bytes() as usize;
    let a = addr as usize;
    if a.checked_add(n)? > buf.len() {
        return None;
    }
    let mut v = Val::default();
    for (i, chunk) in buf[a..a + n].chunks(4).enumerate() {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        v.w[i] = u32::from_le_bytes(w);
    }
    Some(v)
}

fn write_bytes(buf: &mut [u8], addr: u64, width: Width, v: Val) -> Option<()> {
    let n = width.bytes() as usize;
    let a = addr as usize;
    if a.checked_add(n)? > buf.len() {
        return None;
    }
    for i in 0..width.words() as usize {
        let bytes = v.w[i].to_le_bytes();
        let take = (n - i * 4).min(4);
        buf[a + i * 4..a + i * 4 + take].copy_from_slice(&bytes[..take]);
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::DEFAULT_CYCLE_BUDGET;
    use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::function::Module;
    use orion_kir::inst::Operand;
    use orion_kir::types::SpecialReg;

    const BLOCK: u32 = 64;

    /// `out[gid] = in[gid] + in[gid ^ 1]`, the neighbour's value passing
    /// through shared memory across a barrier.
    fn pair_sum_kernel() -> MModule {
        let mut b = FunctionBuilder::kernel("pair_sum");
        let tid = b.mov(Operand::Special(SpecialReg::TidX));
        let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
        let gid = b.imad(cta, Operand::Imm(i64::from(BLOCK)), tid);
        let a = b.imad(gid, Operand::Imm(4), Operand::Param(0));
        let x = b.ld(MemSpace::Global, Width::W32, a, 0);
        let sa = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Shared, Width::W32, sa, x, 0);
        b.bar();
        let nb = b.xor(tid, Operand::Imm(1));
        let na = b.shl(nb, Operand::Imm(2));
        let y = b.ld(MemSpace::Shared, Width::W32, na, 0);
        let z = b.iadd(x, y);
        b.st(MemSpace::Global, Width::W32, a, z, 0);
        let mut module = Module::new(b.finish());
        module.user_smem_bytes = BLOCK * 4;
        allocate(&module, SlotBudget { reg_slots: 16, smem_slots: 0 }, &AllocOptions::default())
            .expect("alloc")
            .machine
    }

    /// What one SM engine produced for `blocks`.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        end: Result<u64, SimError>,
        stats: SimStats,
        per_warp_issued: Vec<u64>,
        global: Vec<u8>,
    }

    /// Run `blocks` (of a 4096-block grid) on one SM, four CTAs
    /// resident, under `budget` (and a hang when `stuck`) with the
    /// launch's own issue keys or `keys`.
    fn run_sm(blocks: &[u32], budget: u64, stuck: bool, keys: Option<IssueKeys>) -> Outcome {
        let dev = DeviceSpec::gtx680();
        let module = pair_sum_kernel();
        let prog = LinkedProgram::new(&module);
        let launch = Launch { grid: 4096, block: BLOCK };
        let mut global: Vec<u8> =
            (0..launch.grid * BLOCK).flat_map(|i| (i * 7 % 1000).to_le_bytes()).collect();
        let guards = EngineGuards { step_limit: 1 << 40, cycle_budget: budget, stuck_warp: stuck };
        let mut engine = SmEngine::new(&dev, &prog, launch, &[0], &mut global, 0, guards);
        let end = match keys {
            None => engine.run(blocks, 4),
            Some(k) => engine.run_keyed(blocks, 4, k),
        };
        let (stats, per_warp_issued) = (engine.stats, engine.per_warp_issued);
        Outcome { end, stats, per_warp_issued, global }
    }

    /// The launch's own keys for `blocks` on one SM, four CTAs resident.
    fn launch_keys(blocks: &[u32], budget: u64) -> IssueKeys {
        let wpb = u64::from(BLOCK.div_ceil(32));
        IssueKeys::new(blocks.len() as u64 * wpb - 1, 4 * wpb as usize, budget)
    }

    /// Keys order exactly like `(min(ready, budget + 1), sequence)`
    /// tuples and decode back, at the edges of every field: the widest
    /// sequence a launch needs, and a budget whose clamp is the top of
    /// the ready field.
    #[test]
    fn issue_keys_order_like_tuples_at_the_field_edges() {
        for (max_seq, slots) in
            [(0, 1), (1023, 64), ((1 << 40) - 1, 48), (u64::from(u32::MAX) * 32, 64)]
        {
            let top = IssueKeys::new(max_seq, slots, 0).field_max - 1;
            for budget in [0, 1, 1000, top - 1, top, DEFAULT_CYCLE_BUDGET, u64::MAX] {
                let keys = IssueKeys::new(max_seq, slots, budget);
                if budget.saturating_add(1) > keys.field_max {
                    continue; // past the field: the rebase covers it
                }
                let readies =
                    [0, 1, budget.saturating_sub(1), budget, budget.saturating_add(1), u64::MAX];
                let seqs = [0, 1.min(max_seq), max_seq.saturating_sub(1), max_seq];
                let mut all = Vec::new();
                for &r in &readies {
                    for (i, &q) in seqs.iter().enumerate() {
                        let slot = i % slots;
                        let key = keys.key(r, q, slot);
                        assert_ne!(key, IDLE);
                        assert!(!keys.saturated(key));
                        assert_eq!(keys.slot(key), slot);
                        assert_eq!(keys.ready(key), r.min(budget.saturating_add(1)));
                        all.push(((r.min(budget.saturating_add(1)), q, slot), key));
                    }
                }
                for (a, ka) in &all {
                    for (b, kb) in &all {
                        assert_eq!(a.cmp(b), ka.cmp(kb), "{a:?} vs {b:?} at budget {budget}");
                    }
                }
            }
        }
    }

    /// A launch whose admissions fill the sequence field (512 blocks of
    /// two warps: sequences 0..=1023) issues exactly as under a field
    /// 30 bits wider, and under a ready field so narrow that it rebases
    /// every few cycles.
    #[test]
    fn widest_sequence_field_and_a_narrow_ready_field_change_nothing() {
        let blocks: Vec<u32> = (0..512).map(|i| i * 8).collect();
        let budget = DEFAULT_CYCLE_BUDGET;
        let own = launch_keys(&blocks, budget);
        assert_eq!(own.ready_shift - own.seq_shift, 10, "sequence field of 10 bits, all used");
        let base = run_sm(&blocks, budget, false, None);
        assert!(base.end.is_ok(), "{:?}", base.end);
        let wide = IssueKeys::new((1 << 40) - 1, 8, budget);
        assert_eq!(run_sm(&blocks, budget, false, Some(wide)), base);
        let narrow = IssueKeys::new((1 << 57) - 1, 8, budget);
        assert!(narrow.field_max < 16, "a ready field of 4 bits");
        assert_eq!(run_sm(&blocks, budget, false, Some(narrow)), base);
    }

    /// A budget at the top of the launch's ready field (and the largest
    /// budget of all) lets the launch finish exactly as the default one.
    #[test]
    fn budget_at_the_top_of_the_ready_field_changes_nothing() {
        let blocks: Vec<u32> = (0..64).collect();
        let base = run_sm(&blocks, DEFAULT_CYCLE_BUDGET, false, None);
        assert!(base.end.is_ok(), "{:?}", base.end);
        let top = launch_keys(&blocks, 0).field_max - 1;
        assert_eq!(launch_keys(&blocks, top).hung, launch_keys(&blocks, top).field_max);
        assert_eq!(run_sm(&blocks, top, false, None), base);
        assert_eq!(run_sm(&blocks, u64::MAX, false, None), base);
    }

    /// An injected hang ends in the watchdog with the launch's budget —
    /// at the top of the ready field, at a small budget, with the ready
    /// field narrowed so the hung warp's key saturates first, and at the
    /// largest budget of all.
    #[test]
    fn injected_hang_ends_in_the_watchdog_with_the_same_budget() {
        let blocks: Vec<u32> = (0..64).collect();
        let top = launch_keys(&blocks, 0).field_max - 1;
        let narrow = |budget| IssueKeys::new((1 << 57) - 1, 8, budget);
        for (budget, keys) in
            [(top, None), (20_000, None), (20_000, Some(narrow(20_000))), (u64::MAX, None)]
        {
            let out = run_sm(&blocks, budget, true, keys);
            assert_eq!(out.end, Err(SimError::Watchdog { budget }));
        }
    }

    /// A 64-bit load at address -4 fails out of bounds at that address
    /// (its second word wraps past the top of the address space while
    /// the load is timed, before the bounds check).
    #[test]
    fn wide_load_below_address_zero_is_out_of_bounds() {
        let mut b = FunctionBuilder::kernel("below_zero");
        let x = b.ld(MemSpace::Global, Width::W64, Operand::Imm(-4), 0);
        b.st(MemSpace::Global, Width::W64, Operand::Imm(0), x, 0);
        let module = Module::new(b.finish());
        let module = allocate(
            &module,
            SlotBudget { reg_slots: 16, smem_slots: 0 },
            &AllocOptions::default(),
        )
        .expect("alloc")
        .machine;
        let prog = LinkedProgram::new(&module);
        let dev = DeviceSpec::gtx680();
        let mut global = vec![0u8; 64];
        let guards = EngineGuards {
            step_limit: 1000,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            stuck_warp: false,
        };
        let launch = Launch { grid: 1, block: 32 };
        let mut engine = SmEngine::new(&dev, &prog, launch, &[], &mut global, 0, guards);
        assert_eq!(
            engine.run(&[0], 1),
            Err(SimError::OutOfBounds { space: MemSpace::Global, addr: 4u64.wrapping_neg() })
        );
    }
}
