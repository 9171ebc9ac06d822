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
//! pooled structure-of-arrays lane state (`lanes`): warp-wide
//! register-file gathers, packed predicate masks, and masked slice
//! write-backs, with 32-bit global and shared loads filling the
//! destination register plane in one warp-wide pass. Warps issue in one
//! total order — the runnable warp minimizing `(ready_cycle, warp_id)`
//! — from an event heap; debug builds cross-check every pick against a
//! linear scan. The golden launch fixtures (`orion-bench`) pin the
//! engine's observable results.
//!
//! An engine can record which 64-byte chunks of global memory its
//! stores touched (`DirtyChunks`), so the SM fan-out in `sim` diffs
//! and resets only those chunks of its private copy.

use crate::decode::{decode_module, DecTerm, DecodedFunc, MAX_SRCS};
use crate::device::DeviceSpec;
use crate::lanes::{warp_alu, SoaCta, WarpCtx, WarpOperand};
use crate::memory::{MemKind, MemStats, MemSystem};
use orion_kir::cfg::{Cfg, PostDominators};
use orion_kir::function::{FuncKind, Function};
use orion_kir::inst::Opcode;
use orion_kir::mir::{MLoc, MModule, Place};
use orion_kir::sem::{eval_setp, Val};
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

#[derive(Debug, Clone, Copy)]
struct SimtEntry {
    block: BlockId,
    idx: usize,
    reconv: Option<BlockId>,
    mask: u32,
}

#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    stack: Vec<SimtEntry>,
}

struct Warp {
    /// Index into the SM's resident-CTA table.
    cta: usize,
    warp_in_block: u32,
    /// Hardware warp slot (resident-CTA slot × warps-per-block +
    /// warp-in-block), fixed at admission: the `per_warp_issued` index.
    hw_slot: usize,
    frames: Vec<Frame>,
    alive: u32,
    done: bool,
    at_barrier: bool,
    barrier_release: u64,
    next_free: u64,
    /// Why `next_free` is what it is (stall attribution).
    free_reason: Wait,
    onchip_ready: Vec<u64>,
    /// Provenance of each `onchip_ready` entry: was the last writer a
    /// memory access? (Local slots are always memory: spill traffic.)
    onchip_mem: Vec<bool>,
    local_ready: Vec<u64>,
    pred_ready: [u64; NUM_PRED_REGS as usize],
    /// Key of this warp's live ready-queue entry,
    /// `(ready << 64) | warp_id` (`u128::MAX` before the first push).
    /// Ready times only grow, so every other entry of the warp in the
    /// heap carries a smaller key and is discarded on pop.
    sched_key: u128,
    /// Binding constraint cached at the latest ready-queue push (the
    /// `Wait` half of `warp_ready_info` at that instant; the warp has
    /// not mutated since, or it would have been re-pushed).
    ready_why: Wait,
}

struct Cta {
    grid_idx: u32,
    /// Index of the CTA's first warp in the SM's warp table; its
    /// `warps_per_block` warps are admitted contiguously from here.
    first_warp: usize,
    lanes: SoaCta,
    shared: Vec<u8>,
    warps_left: usize,
    /// Cycle at which this CTA was admitted (telemetry timeline).
    admitted_at: u64,
}

/// Free-pools recycling the per-CTA/per-warp buffers as CTAs retire —
/// after warm-up the engine allocates nothing per admitted block, so a
/// launch's allocation cost is bounded by its residency, not its grid —
/// plus the per-instruction working buffers that used to be allocated
/// per `step_warp` (Ld/St address gathers, bank-conflict word lists,
/// coalesced line lists, warp-wide operand files).
#[derive(Default)]
struct Scratch {
    /// Retired CTA user shared-memory buffers.
    shared: Vec<Vec<u8>>,
    /// Retired warp readiness scoreboards (`onchip_ready`/`local_ready`).
    ready_words: Vec<Vec<u64>>,
    /// Retired warp provenance bitmaps (`onchip_mem`).
    ready_flags: Vec<Vec<bool>>,
    /// Retired SoA on-chip register arenas.
    soa_onchip: Vec<Vec<u32>>,
    /// Retired SoA local-memory arenas.
    soa_local: Vec<Vec<u8>>,
    /// Retired SoA packed-predicate tables.
    soa_preds: Vec<Vec<u32>>,
    /// Ld/St per-lane address gather (was a per-instruction `Vec`).
    addrs: Vec<u64>,
    /// Bank-conflict word list (was a per-instruction `Vec`).
    words: Vec<u64>,
    /// Coalesced cache-line list (was a per-instruction `Vec`).
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
    onchip_words: usize,
    local_words: usize,
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
    /// Recycled per-CTA/per-warp buffers.
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
        let m = prog.module;
        let onchip_words = usize::from(m.regs_per_thread) + usize::from(m.smem_slots_per_thread);
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
            onchip_words,
            local_words: usize::from(m.local_slots_per_thread),
            warps_per_block: launch.block.div_ceil(32),
            cur_cycle: 0,
            issued_this_cycle: 0,
            last_event: 0,
            acct_cursor: 0,
            steps_left: guards.step_limit,
            cycle_budget: guards.cycle_budget,
            stuck_warp: guards.stuck_warp,
            residency: 1,
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
        self.residency = residency;
        let mut pending = blocks.iter().copied();
        let mut ctas: Vec<Cta> = Vec::with_capacity(residency as usize);
        let mut warps: Vec<Warp> = Vec::new();
        // Seed initial residency.
        for _ in 0..residency {
            if let Some(b) = pending.next() {
                self.admit_cta(&mut ctas, &mut warps, b, 0);
            }
        }
        // Injected hang: wedge the first warp past the cycle budget so
        // the launch can only terminate through the watchdog.
        if self.stuck_warp {
            if let Some(w) = warps.first_mut() {
                w.next_free = self.cycle_budget.saturating_add(1);
                w.free_reason = Wait::Mem;
            }
        }
        self.run_heap(&mut pending, &mut ctas, &mut warps)?;
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

    /// O(W) scan for the runnable warp minimizing `(ready_cycle,
    /// warp_id)` — the strict `r < br` comparison keeps the first
    /// (lowest-id) warp on ready-time ties. Debug builds check every
    /// event-heap pick against it.
    #[cfg(debug_assertions)]
    fn scan_best(&self, warps: &[Warp]) -> Option<(u64, usize, Wait)> {
        let mut best: Option<(u64, usize, Wait)> = None;
        for (i, w) in warps.iter().enumerate() {
            if w.done || w.at_barrier {
                continue;
            }
            let (r, why) = self.warp_ready_info(w);
            if best.is_none_or(|(br, _, _)| r < br) {
                best = Some((r, i, why));
            }
        }
        best
    }

    /// Warp `i`'s ready-queue key at its current ready time, caching the
    /// binding constraint in `ready_why`; `None` when the warp is not
    /// runnable (done, or waiting at a barrier).
    fn heap_key(&self, warps: &mut [Warp], i: usize) -> Option<u128> {
        if warps[i].done || warps[i].at_barrier {
            return None;
        }
        let (r, why) = self.warp_ready_info(&warps[i]);
        let w = &mut warps[i];
        w.ready_why = why;
        w.sched_key = (u128::from(r) << 64) | i as u128;
        Some(w.sched_key)
    }

    fn run_heap<I: Iterator<Item = u32>>(
        &mut self,
        pending: &mut I,
        ctas: &mut Vec<Cta>,
        warps: &mut Vec<Warp>,
    ) -> Result<(), SimError> {
        use std::cmp::Reverse;
        use std::collections::binary_heap::{BinaryHeap, PeekMut};
        // Invariant: every runnable warp has exactly one *live* entry
        // (equal to its `sched_key`). Every state change that can move a
        // warp's ready time lands its index in `touched`, which pushes a
        // new, larger key. Ready times only grow, so a warp's dead
        // entries pop in front of its live one and are discarded there;
        // when a live entry reaches the top, it is the warp's only one.
        let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::with_capacity(warps.len() + 1);
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..warps.len() {
            if let Some(key) = self.heap_key(warps, i) {
                heap.push(Reverse(key));
            }
        }
        loop {
            let Some(mut top) = heap.peek_mut() else {
                // Queue drained with no runnable warp left: every warp
                // is done, or the rest wait at barriers that (releasing
                // eagerly) can never open.
                if warps.iter().all(|w| w.done) {
                    return Ok(());
                }
                return Err(SimError::Deadlock);
            };
            let Reverse(key) = *top;
            let wi = key as u64 as usize;
            if warps[wi].done || warps[wi].at_barrier || key != warps[wi].sched_key {
                PeekMut::pop(top); // dead entry (lazy deletion)
                continue;
            }
            let ready = (key >> 64) as u64;
            let wait = warps[wi].ready_why;
            #[cfg(debug_assertions)]
            {
                // The heap must reproduce the scan's `(ready, warp_id)`
                // total order pick for pick.
                debug_assert_eq!(
                    self.scan_best(warps),
                    Some((ready, wi, wait)),
                    "event heap diverged from the scan order"
                );
            }
            touched.clear();
            self.issue_at(pending, ctas, warps, wi, ready, wait, &mut touched)?;
            // The issued warp's entry is still on top: overwrite it with
            // the warp's new key (sifting down on drop) rather than pop +
            // push. Its ready time moved past `ready`, so the key grew.
            match self.heap_key(warps, wi) {
                Some(next) => {
                    *top = Reverse(next);
                    drop(top);
                }
                None => {
                    PeekMut::pop(top);
                }
            }
            for &k in &touched {
                if k != wi {
                    if let Some(key) = self.heap_key(warps, k) {
                        heap.push(Reverse(key));
                    }
                }
            }
        }
    }

    /// One issue step: step-limit/watchdog guards, issue-slot and stall
    /// bookkeeping, the warp step itself, then barrier release and CTA
    /// retirement/admission. Indices of warps whose scheduling state
    /// changed (beyond `wi` going done/to-barrier) are appended to
    /// `touched` so the event heap can re-queue them.
    #[allow(clippy::too_many_arguments)]
    fn issue_at<I: Iterator<Item = u32>>(
        &mut self,
        pending: &mut I,
        ctas: &mut Vec<Cta>,
        warps: &mut Vec<Warp>,
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
        // Bail out instead of simulating forever.
        if ready.max(self.cur_cycle) > self.cycle_budget {
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
        // Per-warp-slot rollup: hardware slots are recycled as CTAs
        // retire, so key by (resident slot, warp-in-block).
        let slot = warps[wi].hw_slot;
        if slot >= self.per_warp_issued.len() {
            self.per_warp_issued.resize(slot + 1, 0);
        }
        self.per_warp_issued[slot] += 1;

        self.step_warp(warps, wi, ctas, t)?;

        // Barrier release: if every live warp of the CTA is waiting.
        // Only the CTA's own (contiguously admitted) warps are scanned.
        if warps[wi].at_barrier {
            let first = ctas[warps[wi].cta].first_warp;
            let cta_warps = first..first + self.warps_per_block as usize;
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
                    if first + i != wi {
                        touched.push(first + i);
                    }
                }
            }
        }
        // CTA completion: recycle its memory and admit the next block.
        // (memory counters are folded into stats on exit)
        if warps[wi].done {
            // The warp will never be scheduled again: recycle its
            // readiness scoreboards.
            let w = &mut warps[wi];
            self.scratch.ready_words.push(std::mem::take(&mut w.onchip_ready));
            self.scratch.ready_words.push(std::mem::take(&mut w.local_ready));
            self.scratch.ready_flags.push(std::mem::take(&mut w.onchip_mem));
            let c = warps[wi].cta;
            ctas[c].warps_left -= 1;
            if ctas[c].warps_left == 0 {
                if orion_telemetry::is_enabled() {
                    let begin = ctas[c].admitted_at;
                    let end = self.last_event.max(t);
                    orion_telemetry::complete(
                        "sim",
                        &format!("cta{}", ctas[c].grid_idx),
                        self.sm_id,
                        begin,
                        end.saturating_sub(begin),
                        vec![("grid_idx", ctas[c].grid_idx.into())],
                    );
                }
                let (onchip, local, preds) = std::mem::take(&mut ctas[c].lanes).into_parts();
                self.scratch.soa_onchip.push(onchip);
                self.scratch.soa_local.push(local);
                self.scratch.soa_preds.push(preds);
                self.scratch.shared.push(std::mem::take(&mut ctas[c].shared));
                if let Some(b) = pending.next() {
                    let start = self.last_event.max(t);
                    let first_new = warps.len();
                    self.admit_cta(ctas, warps, b, start);
                    for i in first_new..warps.len() {
                        touched.push(i);
                    }
                }
            }
        } else if !warps[wi].at_barrier {
            touched.push(wi);
        }
        Ok(())
    }

    /// Pop a recycled buffer (or a fresh one) and reset it to `n`
    /// zeroed/default entries.
    fn recycled<T: Clone + Default>(pool: &mut Vec<Vec<T>>, n: usize) -> Vec<T> {
        let mut v = pool.pop().unwrap_or_default();
        v.clear();
        v.resize(n, T::default());
        v
    }

    /// Build the lane-state arenas for a newly admitted CTA, reusing
    /// retired buffers where possible.
    fn build_arena(&mut self) -> SoaCta {
        // Arenas cover whole warps (`warps_per_block * 32` lanes) even
        // when the block is not a multiple of 32: the tail lanes are dead
        // (never in `alive`), but warp-wide gathers may read their zeros.
        let stride = self.warps_per_block as usize * 32;
        let onchip = Self::recycled(&mut self.scratch.soa_onchip, self.onchip_words * stride);
        let local = Self::recycled(&mut self.scratch.soa_local, self.local_words * 4 * stride);
        let preds = Self::recycled(
            &mut self.scratch.soa_preds,
            usize::from(NUM_PRED_REGS) * self.warps_per_block as usize,
        );
        SoaCta::new(onchip, local, preds, stride, self.local_words * 4)
    }

    fn admit_cta(&mut self, ctas: &mut Vec<Cta>, warps: &mut Vec<Warp>, grid_idx: u32, start: u64) {
        let cta_slot = ctas.len();
        let lanes = self.build_arena();
        let smem = self.prog.module.user_smem_bytes as usize;
        let shared = Self::recycled(&mut self.scratch.shared, smem);
        let wpb = self.warps_per_block as usize;
        let slot_base = (cta_slot % self.residency.max(1) as usize) * wpb;
        ctas.push(Cta {
            grid_idx,
            first_warp: warps.len(),
            lanes,
            shared,
            warps_left: self.warps_per_block as usize,
            admitted_at: start,
        });
        for w in 0..self.warps_per_block {
            let lanes_in_warp = (self.launch.block - w * 32).min(32);
            let alive = if lanes_in_warp == 32 { FULL_MASK } else { (1u32 << lanes_in_warp) - 1 };
            let onchip_ready = Self::recycled(&mut self.scratch.ready_words, self.onchip_words);
            let local_ready = Self::recycled(&mut self.scratch.ready_words, self.local_words);
            let onchip_mem = Self::recycled(&mut self.scratch.ready_flags, self.onchip_words);
            warps.push(Warp {
                cta: cta_slot,
                warp_in_block: w,
                hw_slot: slot_base + w as usize,
                frames: vec![Frame {
                    func: self.prog.module.entry,
                    stack: vec![SimtEntry { block: BlockId(0), idx: 0, reconv: None, mask: alive }],
                }],
                alive,
                done: false,
                at_barrier: false,
                barrier_release: 0,
                next_free: start,
                free_reason: Wait::Pipeline,
                onchip_ready,
                onchip_mem,
                local_ready,
                pred_ready: [0; NUM_PRED_REGS as usize],
                sched_key: u128::MAX,
                ready_why: Wait::Pipeline,
            });
        }
    }

    /// Earliest cycle at which `w` can issue, plus the binding
    /// constraint that sets it (for stall attribution). Ties resolve in
    /// favour of the issue-side reason, then program order of operands.
    /// Walks the predecoded slot-operand list instead of re-matching
    /// `MOperand`s.
    fn warp_ready_info(&self, w: &Warp) -> (u64, Wait) {
        let mut t = w.next_free;
        let mut why = w.free_reason;
        let frame = w.frames.last().expect("live warp has a frame");
        let tos = frame.stack.last().expect("live warp has a path");
        let df = &self.prog.dec[frame.func.0 as usize];
        if tos.idx < df.block_len(tos.block) {
            let inst = df.inst(tos.block, tos.idx);
            for l in inst.loc_srcs() {
                let (r, mem) = self.loc_ready_info(w, *l);
                if r > t {
                    t = r;
                    why = if mem { Wait::Mem } else { Wait::Raw };
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

    /// Readiness of a location and whether the binding word was produced
    /// by a memory access (local slots are spill traffic, always memory).
    fn loc_ready_info(&self, w: &Warp, l: MLoc) -> (u64, bool) {
        let mut t = 0;
        let mut mem = false;
        for k in 0..l.width.words() {
            let idx = usize::from(l.slot + k);
            let (r, m) = match l.place {
                Place::Onchip => (
                    w.onchip_ready.get(idx).copied().unwrap_or(0),
                    w.onchip_mem.get(idx).copied().unwrap_or(false),
                ),
                Place::Local => (w.local_ready.get(idx).copied().unwrap_or(0), true),
            };
            if r > t || (r == t && m && k == 0) {
                mem = m;
            }
            t = t.max(r);
        }
        (t, mem)
    }

    fn set_loc_ready(&self, w: &mut Warp, l: MLoc, t: u64, mem: bool) {
        for k in 0..l.width.words() {
            let idx = usize::from(l.slot + k);
            match l.place {
                Place::Onchip => {
                    if idx < w.onchip_ready.len() {
                        w.onchip_ready[idx] = t;
                        w.onchip_mem[idx] = mem;
                    }
                }
                Place::Local => {
                    if idx < w.local_ready.len() {
                        w.local_ready[idx] = t;
                    }
                }
            }
        }
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
        self.mem.coalesce_into(
            addrs.iter().flat_map(|&a| (0..width.words()).map(move |k| a + u64::from(k) * 4)),
            &mut lines,
        );
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

    /// Shared-memory bank-conflict degree of a warp access: 32 banks of
    /// 4 bytes; lanes reading the *same* word broadcast (no conflict),
    /// so count distinct words per bank. Updates the conflict counters.
    fn bank_degree(&mut self, addrs: &[u64], width: Width) -> u64 {
        let words = &mut self.scratch.words;
        words.clear();
        words.extend(
            addrs.iter().flat_map(|&a| (0..width.words()).map(move |k| a / 4 + u64::from(k))),
        );
        words.sort_unstable();
        words.dedup();
        let mut per_bank = [0u32; 32];
        for w in words.iter() {
            per_bank[(w % 32) as usize] += 1;
        }
        let degree = u64::from(per_bank.iter().copied().max().unwrap_or(1)).max(1);
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
        warps: &mut [Warp],
        wi: usize,
        ctas: &mut [Cta],
        t: u64,
    ) -> Result<(), SimError> {
        let w = &mut warps[wi];
        // Whatever happens below, the warp's own `next_free` wait is an
        // issue-pipeline cost; data and barrier waits are tracked apart.
        w.free_reason = Wait::Pipeline;
        let frame_idx = w.frames.len() - 1;
        let (func_id, tos) = {
            let f = &w.frames[frame_idx];
            (f.func, *f.stack.last().expect("path"))
        };
        // `prog` is a copied reference — borrows of the decoded tables
        // below do not pin `self`.
        let prog = self.prog;
        let df = &prog.dec[func_id.0 as usize];
        let mask = tos.mask & w.alive;
        if mask == 0 {
            // All lanes of this path have exited: discard the path and
            // unwind empty frames. Never happens for the bottom entry of
            // a warp with live lanes.
            let stack = &mut w.frames[frame_idx].stack;
            stack.pop();
            if stack.is_empty() {
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

        if tos.idx >= df.block_len(tos.block) {
            // ---- terminator ----
            w.next_free = t + 1;
            self.last_event = self.last_event.max(t + 1);
            match *df.term(tos.block) {
                DecTerm::Jump(target) => {
                    self.transfer(w, frame_idx, target);
                }
                DecTerm::Branch { pred, neg, then_bb, else_bb, reconv } => {
                    let pb = ctas[w.cta].lanes.pred_bits(w.warp_in_block, pred);
                    let t_mask = mask & if neg { !pb } else { pb };
                    let nt_mask = mask & !t_mask;
                    if nt_mask == 0 {
                        self.transfer(w, frame_idx, then_bb);
                    } else if t_mask == 0 {
                        self.transfer(w, frame_idx, else_bb);
                    } else {
                        let stack = &mut w.frames[frame_idx].stack;
                        // Current entry becomes the reconvergence entry.
                        let top = stack.last_mut().expect("path");
                        if let Some(r) = reconv {
                            top.block = r;
                            top.idx = 0;
                            // Pending else-path, then taken path on top.
                            if Some(else_bb) != reconv {
                                stack.push(SimtEntry {
                                    block: else_bb,
                                    idx: 0,
                                    reconv,
                                    mask: nt_mask,
                                });
                            }
                            if Some(then_bb) != reconv {
                                stack.push(SimtEntry {
                                    block: then_bb,
                                    idx: 0,
                                    reconv,
                                    mask: t_mask,
                                });
                            }
                        } else {
                            // Paths never reconverge (both exit): replace
                            // the entry with two independent paths.
                            stack.pop();
                            stack.push(SimtEntry {
                                block: else_bb,
                                idx: 0,
                                reconv: None,
                                mask: nt_mask,
                            });
                            stack.push(SimtEntry {
                                block: then_bb,
                                idx: 0,
                                reconv: None,
                                mask: t_mask,
                            });
                        }
                    }
                }
                DecTerm::Ret => {
                    w.frames.pop();
                    debug_assert!(!w.frames.is_empty(), "ret from kernel frame");
                }
                DecTerm::Exit => {
                    w.alive &= !mask;
                    let stack = &mut w.frames[frame_idx].stack;
                    stack.pop();
                    if stack.is_empty() || w.alive == 0 {
                        w.done = true;
                    }
                }
            }
            return Ok(());
        }

        // ---- instruction ----
        let inst = df.inst(tos.block, tos.idx);
        w.frames[frame_idx].stack.last_mut().expect("path").idx += 1;
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
                w.frames.push(Frame {
                    func: callee,
                    stack: vec![SimtEntry { block: BlockId(0), idx: 0, reconv: None, mask }],
                });
                w.next_free = t + 1;
                self.last_event = self.last_event.max(t + 1);
                Ok(())
            }
            Opcode::Ld { space, width, offset } => {
                // Phase 1: gather per-lane addresses into the recycled
                // scratch buffer, in ascending lane order.
                let mut completions = t;
                let mut addrs = std::mem::take(&mut self.scratch.addrs);
                addrs.clear();
                let Cta { lanes: soa, shared, .. } = &mut ctas[w.cta];
                let exec = soa.exec_mask(ctx.warp, mask, inst.pred, inst.pred_neg);
                let mut base = WarpOperand::default();
                soa.gather(&inst.srcs()[0], &ctx, &mut base);
                let mut m = exec;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    addrs.push((i64::from(base.w0(lane) as i32) + i64::from(offset)) as u64);
                    m &= m - 1;
                }
                // Phase 2: timing over the gathered addresses.
                match space {
                    MemSpace::Global => {
                        completions = completions.max(self.coalesced_access(&addrs, width, t));
                        result_latency = 0; // completion-driven
                    }
                    MemSpace::Shared => {
                        let degree = self.bank_degree(&addrs, width);
                        completions = completions.max(t + self.dev.smem_latency + (degree - 1) * 2);
                        result_latency = 0;
                        issue_cost = degree.min(8);
                    }
                    MemSpace::Local => {
                        for &a in &addrs {
                            let c = self.mem.access(a, t, MemKind::Local);
                            completions = completions.max(c);
                            self.stats.local_transactions += 1;
                        }
                        result_latency = 0;
                    }
                }
                self.scratch.addrs = addrs;
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
                    self.set_loc_ready(w, d, dl, true);
                }
                w.next_free = t + issue_cost;
                self.last_event = self.last_event.max(done);
                Ok(())
            }
            Opcode::St { space, width, offset } => {
                let mut addrs = std::mem::take(&mut self.scratch.addrs);
                addrs.clear();
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
                    addrs.push(addr);
                    m &= m - 1;
                }
                // Bandwidth accounting (fire-and-forget stores).
                match space {
                    MemSpace::Global => {
                        self.coalesced_access(&addrs, width, t);
                    }
                    MemSpace::Shared => {
                        let degree = self.bank_degree(&addrs, width);
                        issue_cost = degree.min(8);
                    }
                    MemSpace::Local => {
                        for &a in &addrs {
                            self.mem.access(a, t, MemKind::Local);
                            self.stats.local_transactions += 1;
                        }
                    }
                }
                self.scratch.addrs = addrs;
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
                let mut bits = 0u32;
                for lane in 0..32 {
                    if eval_setp(&inst.op, &[ops[0].val(lane), ops[1].val(lane)]) {
                        bits |= 1 << lane;
                    }
                }
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
                    self.set_loc_ready(w, d, dl, false);
                }
                w.next_free = t + issue_cost;
                self.last_event = self.last_event.max(done);
                Ok(())
            }
        }
    }

    /// Jump / fall-through transfer with reconvergence-pop handling.
    fn transfer(&self, w: &mut Warp, frame_idx: usize, target: BlockId) {
        let stack = &mut w.frames[frame_idx].stack;
        let tos = stack.last().expect("path");
        if tos.reconv == Some(target) {
            stack.pop();
            debug_assert!(!stack.is_empty(), "reconvergence under empty stack");
        } else {
            let tos = stack.last_mut().expect("path");
            tos.block = target;
            tos.idx = 0;
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
