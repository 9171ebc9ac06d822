//! Whole-device simulation: distribute blocks over SMs, run each SM's
//! engine, and aggregate cycles and counters. A launch also applies the
//! chaos faults its options carry ([`crate::faults`]), at the driver
//! stage each one models.

use crate::device::{CacheConfig, DeviceSpec};
use crate::exec::{
    DirtyChunks, EngineGuards, Launch, LinkedProgram, SimError, SimStats, SmEngine, StallStats,
};
use crate::faults::LaunchFaults;
use crate::occupancy::{occupancy, KernelResources, OccupancyInfo};
use orion_kir::mir::MModule;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Driver-level launch options.
///
/// * `extra_smem_per_block` pads the shared memory the driver reserves
///   per block — the paper's §3.3 mechanism for tuning occupancy *down*
///   without recompiling ("we can tune occupancy down by dynamically
///   increasing shared memory usage per thread").
/// * `cta_range` restricts the launch to a contiguous slice of the grid,
///   used by kernel splitting (§3.4): each split invocation launches a
///   subset of the blocks while `%nctaid` still reports the full grid.
/// * `cache_config` re-splits the 64 KB on-chip SRAM between L1 and
///   shared memory for this launch only — the `cudaFuncSetCacheConfig`
///   analog. It changes both the occupancy calculation (shared-memory
///   capacity) and the L1 capacity the memory system simulates.
/// * `faults` injects one drawn set of chaos faults into this launch
///   (see [`run_launch_opts`]); the default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LaunchOptions {
    /// Extra shared-memory bytes the driver reserves per block.
    pub extra_smem_per_block: u32,
    /// `(first block, count)`; `None` = whole grid.
    pub cta_range: Option<(u32, u32)>,
    /// Watchdog cycle budget per launch; `None` uses
    /// [`DEFAULT_CYCLE_BUDGET`]. A launch whose completion would exceed
    /// the budget fails with [`SimError::Watchdog`] instead of running
    /// (or hanging) forever.
    pub cycle_budget: Option<u64>,
    /// Workers running the per-SM engines: `0` (the default) means one
    /// worker per available host core, `1` is the exact single-threaded
    /// path (engines run in sm-id order over the shared global buffer),
    /// `N > 1` runs one worker on the launching thread and `N - 1` on
    /// scoped threads, each claiming the next unclaimed SM until none
    /// is left. Always clamped to the device's SM count. Results are
    /// bit-identical at every setting for conforming kernels (CUDA
    /// forbids inter-block communication within a launch).
    pub parallelism: u32,
    /// Per-launch L1/shared-memory split override
    /// (`cudaFuncSetCacheConfig`); `None` keeps the device's configured
    /// split.
    pub cache_config: Option<CacheConfig>,
    /// Faults to inject into this launch, typically one
    /// [`crate::faults::FaultInjector::draw`]; [`LaunchFaults::NONE`]
    /// (the default) runs and measures exactly.
    pub faults: LaunchFaults,
}

impl LaunchOptions {
    /// This template with the driver-side shared-memory padding set —
    /// the per-version knob every launch path overrides.
    #[must_use]
    pub fn with_extra_smem(mut self, bytes: u32) -> Self {
        self.extra_smem_per_block = bytes;
        self
    }

    /// This template with a per-launch L1/shared-memory split.
    #[must_use]
    pub fn with_cache_config(mut self, cfg: CacheConfig) -> Self {
        self.cache_config = Some(cfg);
        self
    }
}

/// Per-SM execution summary for one launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmSummary {
    /// SM index on the device.
    pub sm: u32,
    /// Blocks this SM executed.
    pub blocks: u32,
    /// This SM's own completion time in core cycles (device cycles is
    /// the max over SMs).
    pub cycles: u64,
    /// Warp instructions this SM issued.
    pub warp_insts: u64,
    /// Issued warp-instructions per resident warp slot (hardware slots
    /// recycle across blocks, so the vector length is the residency
    /// footprint, not the grid size).
    pub per_warp_slot_issued: Vec<u64>,
    /// Per-cycle stall attribution. Padded so the buckets sum to the
    /// *device* completion time: the tail where this SM sat idle while
    /// others finished is charged to `no_eligible`.
    pub stalls: StallStats,
}

/// Result of one simulated kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Device completion time (max over SMs) in core cycles.
    pub cycles: u64,
    /// Aggregated dynamic counters. `stats.stalls` sums to
    /// `cycles * num_sms` — every SM-cycle is attributed to exactly one
    /// bucket.
    pub stats: SimStats,
    /// Occupancy achieved by this binary at this launch.
    pub occupancy: OccupancyInfo,
    /// Resources the driver derived from the binary.
    pub resources: KernelResources,
    /// SMs on the simulated device.
    pub num_sms: u32,
    /// Per-SM rollups, one entry per SM (idle SMs included).
    pub per_sm: Vec<SmSummary>,
}

/// Ratio metrics derived from a [`RunResult`] — the `events_per_cycle`
/// view bench tables and the profiler CLI report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerivedMetrics {
    /// Warp instructions per device cycle (across all SMs).
    pub ipc: f64,
    /// Thread instructions over `32 x` warp instructions: how full the
    /// SIMD lanes were on average (divergence shows up here).
    pub simd_efficiency: f64,
    pub l1_hit_rate: f64,
    pub l2_hit_rate: f64,
    pub dram_bytes_per_cycle: f64,
    /// Fraction of all SM-cycles that issued an instruction.
    pub issue_utilization: f64,
    /// Fraction of SM-cycles blocked on register dependencies.
    pub stall_scoreboard: f64,
    /// Fraction of SM-cycles blocked on outstanding memory.
    pub stall_mem_pending: f64,
    /// Fraction of SM-cycles blocked at barriers.
    pub stall_barrier: f64,
    /// Fraction of SM-cycles with no resident eligible warp.
    pub stall_no_eligible: f64,
    /// Fraction of SM-cycles in the end-of-kernel drain tail.
    pub stall_drain: f64,
}

impl RunResult {
    /// Compute the derived ratio metrics. Zero denominators yield zero
    /// rather than NaN so reports stay JSON-clean.
    pub fn derived(&self) -> DerivedMetrics {
        fn ratio(num: f64, den: f64) -> f64 {
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        }
        let s = &self.stats;
        let sm_cycles = s.stalls.total() as f64;
        let frac = |bucket: u64| ratio(bucket as f64, sm_cycles);
        DerivedMetrics {
            ipc: ratio(s.warp_insts as f64, self.cycles as f64),
            simd_efficiency: ratio(s.thread_insts as f64, s.warp_insts as f64 * 32.0),
            l1_hit_rate: ratio(s.mem.l1_hits as f64, (s.mem.l1_hits + s.mem.l1_misses) as f64),
            l2_hit_rate: ratio(s.mem.l2_hits as f64, (s.mem.l2_hits + s.mem.l2_misses) as f64),
            dram_bytes_per_cycle: ratio(s.mem.dram_bytes as f64, self.cycles as f64),
            issue_utilization: frac(s.stalls.issued),
            stall_scoreboard: frac(s.stalls.scoreboard),
            stall_mem_pending: frac(s.stalls.mem_pending),
            stall_barrier: frac(s.stalls.barrier),
            stall_no_eligible: frac(s.stalls.no_eligible),
            stall_drain: frac(s.stalls.drain),
        }
    }
}

/// Default dynamic warp-instruction budget per launch.
pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

/// Default watchdog cycle budget per launch — far above any workload in
/// this repo (the largest sweeps complete in tens of millions of
/// cycles), so only genuinely hung launches trip it.
pub const DEFAULT_CYCLE_BUDGET: u64 = 4_000_000_000;

/// Resource footprint the driver sees for a machine module at a block
/// size (registers per thread and shared memory per block).
pub fn resources_of(m: &MModule, block: u32) -> KernelResources {
    KernelResources {
        regs_per_thread: m.regs_per_thread,
        smem_per_block: m.smem_bytes_per_block(block),
        block_size: block,
    }
}

/// Simulate one kernel launch of `module` on `dev`.
///
/// Blocks are assigned to SMs round-robin; each SM simulates its share
/// with the residency the occupancy calculator allows. SMs may run on
/// worker threads ([`LaunchOptions::parallelism`]), with their global
/// memory writes merged back in SM-id order — observationally identical
/// to running them one after another (CUDA forbids inter-block
/// communication within a launch, so values are engine-order
/// independent for conforming kernels).
///
/// # Errors
/// [`SimError::Unlaunchable`] when a block cannot fit on an SM at all;
/// out-of-bounds accesses and deadlocks are also reported.
pub fn run_launch(
    dev: &DeviceSpec,
    module: &MModule,
    launch: Launch,
    params: &[u32],
    global: &mut [u8],
) -> Result<RunResult, SimError> {
    run_launch_opts(dev, module, launch, params, global, LaunchOptions::default())
}

/// [`run_launch`] with driver-level [`LaunchOptions`].
///
/// The fault draw in [`LaunchOptions::faults`] is applied at the
/// matching driver stage, in this order:
///
/// * **transient** — the launch fails with
///   [`SimError::TransientLaunchFailure`] before touching the device;
/// * **resource** — the occupancy check runs against a perturbed device
///   (half registers, half shared memory); if the kernel no longer fits
///   the launch fails with [`SimError::ResourceExceeded`], otherwise the
///   fault is absorbed;
/// * **hang** — one warp is wedged and the launch terminates via the
///   watchdog ([`SimError::Watchdog`]);
/// * **jitter / outlier** — the simulation is exact, but the *reported*
///   `cycles` is perturbed (timer noise); the per-SM stall accounting is
///   deliberately left untouched so the invariant `Σ buckets = true
///   cycles × SMs` still describes the simulation.
///
/// # Errors
/// Same as [`run_launch`]; additionally rejects empty or out-of-range
/// CTA slices, and returns the injected failures above.
pub fn run_launch_opts(
    dev: &DeviceSpec,
    module: &MModule,
    launch: Launch,
    params: &[u32],
    global: &mut [u8],
    opts: LaunchOptions,
) -> Result<RunResult, SimError> {
    // Apply the per-launch cache split before anything reads capacities:
    // the occupancy checks (including the contended-device fault path)
    // and the SM engines' L1 models all derive from `dev`.
    let resplit;
    let dev = match opts.cache_config {
        Some(cfg) if cfg != dev.cache_config => {
            resplit = dev.with_cache_config(cfg);
            &resplit
        }
        _ => dev,
    };
    let faults = opts.faults;
    if faults.transient {
        // The code is the launch ordinal-ish discriminator: enough to
        // tell independent failures apart in logs, stable across runs.
        return Err(SimError::TransientLaunchFailure { code: 0x70_0001 });
    }
    if faults.resource {
        // Perturbed device: a co-tenant grabbed half the register file
        // and half the shared memory (the latter modeled by doubling the
        // block's apparent shared-memory demand — same quotient).
        let mut contended = dev.clone();
        contended.regs_per_sm /= 2;
        let mut res = resources_of(module, launch.block);
        res.smem_per_block = (res.smem_per_block + opts.extra_smem_per_block).saturating_mul(2);
        if occupancy(&contended, &res).active_blocks == 0 {
            return Err(SimError::ResourceExceeded {
                detail: format!(
                    "{} regs/thread, {} B smem/block do not fit the contended {} \
                     (half the register file and shared memory held elsewhere)",
                    res.regs_per_thread,
                    res.smem_per_block / 2,
                    dev.name,
                ),
            });
        }
        // Still fits: the contention is invisible to this launch.
    }
    let mut r = run_launch_impl(dev, module, launch, params, global, opts)?;
    r.cycles = faults.perturb_cycles(r.cycles);
    Ok(r)
}

fn run_launch_impl(
    dev: &DeviceSpec,
    module: &MModule,
    launch: Launch,
    params: &[u32],
    global: &mut [u8],
    opts: LaunchOptions,
) -> Result<RunResult, SimError> {
    let mut res = resources_of(module, launch.block);
    res.smem_per_block += opts.extra_smem_per_block;
    let occ = occupancy(dev, &res);
    if occ.active_blocks == 0 {
        return Err(SimError::Unlaunchable(format!(
            "{} regs/thread, {} B smem/block, {} threads/block on {}",
            res.regs_per_thread, res.smem_per_block, res.block_size, dev.name
        )));
    }
    if launch.block > 1024 || launch.block == 0 || launch.grid == 0 {
        return Err(SimError::Unlaunchable(format!(
            "grid {} x block {}",
            launch.grid, launch.block
        )));
    }
    let (first, count) = match opts.cta_range {
        Some((f, c)) => {
            if c == 0 || u64::from(f) + u64::from(c) > u64::from(launch.grid) {
                return Err(SimError::Unlaunchable(format!(
                    "cta range {f}+{c} outside grid {}",
                    launch.grid
                )));
            }
            (f, c)
        }
        None => (0, launch.grid),
    };
    let prog = LinkedProgram::new(module);
    let _span = orion_telemetry::span("sim", "run_launch");
    // Partition the grid over SMs once, round-robin (block b lands on
    // SM b % num_sms, same assignment the per-SM filter used to make).
    let mut partition: Vec<Vec<u32>> = vec![Vec::new(); dev.num_sms as usize];
    for b in first..first + count {
        partition[(b % dev.num_sms) as usize].push(b);
    }
    let guards_for = |sm: u32| EngineGuards {
        step_limit: DEFAULT_STEP_LIMIT,
        cycle_budget: opts.cycle_budget.unwrap_or(DEFAULT_CYCLE_BUDGET),
        // A hang wedges one warp on SM 0; the other SMs' results
        // are discarded with the failed launch either way.
        stuck_warp: opts.faults.hang && sm == 0,
    };
    let workers = effective_workers(opts.parallelism, dev.num_sms);
    let outcomes: Vec<Option<SmRun>> = if workers <= 1 {
        let mut v: Vec<Option<SmRun>> = Vec::with_capacity(dev.num_sms as usize);
        for sm in 0..dev.num_sms {
            let blocks = &partition[sm as usize];
            if blocks.is_empty() {
                v.push(None);
                continue;
            }
            let mut engine = SmEngine::new(dev, &prog, launch, params, global, sm, guards_for(sm));
            let c = engine.run(blocks, occ.active_blocks)?;
            v.push(Some(SmRun {
                cycles: c,
                stats: engine.stats,
                per_warp: std::mem::take(&mut engine.per_warp_issued),
            }));
        }
        v
    } else {
        run_sms_parallel(
            dev,
            &prog,
            launch,
            params,
            global,
            &partition,
            occ.active_blocks,
            workers,
            &guards_for,
        )?
    };
    // Pad each SM's accounting out to the device completion time: an SM
    // that finished (or never started) while others kept running had no
    // eligible warp for the remainder. After this, the aggregate buckets
    // sum to exactly `cycles * num_sms`. Summaries merge in sm-id order
    // regardless of which worker ran which SM.
    let cycles = outcomes.iter().flatten().map(|o| o.cycles).max().unwrap_or(0);
    let mut stats = SimStats::default();
    let mut per_sm: Vec<SmSummary> = Vec::with_capacity(dev.num_sms as usize);
    for (sm, outcome) in outcomes.into_iter().enumerate() {
        let (mut s, c, nblocks, per_warp) = match outcome {
            Some(o) => (o.stats, o.cycles, partition[sm].len() as u32, o.per_warp),
            None => (SimStats::default(), 0, 0, Vec::new()),
        };
        s.stalls.no_eligible += cycles - c;
        stats.absorb(&s);
        let summary = SmSummary {
            sm: sm as u32,
            blocks: nblocks,
            cycles: c,
            warp_insts: s.warp_insts,
            per_warp_slot_issued: per_warp,
            stalls: s.stalls,
        };
        if orion_telemetry::is_enabled() {
            orion_telemetry::complete(
                "sim",
                &format!("sm{}", summary.sm),
                summary.sm,
                0,
                summary.cycles,
                vec![("blocks", summary.blocks.into()), ("warp_insts", summary.warp_insts.into())],
            );
        }
        per_sm.push(summary);
    }
    debug_assert_eq!(
        stats.stalls.total(),
        cycles * u64::from(dev.num_sms),
        "device stall buckets must cover every SM-cycle"
    );
    Ok(RunResult { cycles, stats, occupancy: occ, resources: res, num_sms: dev.num_sms, per_sm })
}

/// What one SM engine produced for one launch (before device-level
/// padding/merging).
struct SmRun {
    cycles: u64,
    stats: SimStats,
    per_warp: Vec<u64>,
}

/// Resolve `LaunchOptions::parallelism` into a worker count: `0` means
/// one worker per available host core; always clamped to `[1, num_sms]`
/// (more workers than SMs would idle).
fn effective_workers(parallelism: u32, num_sms: u32) -> u32 {
    let requested = if parallelism == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
    } else {
        parallelism
    };
    requested.clamp(1, num_sms.max(1))
}

/// The byte ranges an engine wrote, as `(offset, new bytes)` runs
/// against the pristine pre-launch buffer.
type WriteRuns = Vec<(usize, Vec<u8>)>;

/// Append the maximal runs of `new` that differ from `base`, offsetting
/// their positions by `at` (where the slices start in the buffer).
fn diff_runs(base: &[u8], new: &[u8], at: usize, runs: &mut WriteRuns) {
    debug_assert_eq!(base.len(), new.len());
    let mut i = 0;
    while i < base.len() {
        if base[i] == new[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < base.len() && base[i] != new[i] {
            i += 1;
        }
        runs.push((at + start, new[start..i].to_vec()));
    }
}

fn apply_runs(global: &mut [u8], runs: &WriteRuns) {
    for (start, bytes) in runs {
        global[*start..*start + bytes.len()].copy_from_slice(bytes);
    }
}

/// Fan the per-SM engines out over `workers` workers: the calling
/// thread and `workers - 1` scoped threads, each claiming the next
/// unclaimed SM from one counter until none is left.
///
/// Each worker copies the pristine global buffer once and reports the
/// byte runs each of its SMs wrote. An engine marks the 64-byte chunks
/// its global stores touch (`DirtyChunks`); after the SM finishes,
/// only those chunks are diffed against the pristine buffer and then
/// reset from it for the worker's next SM, so every engine starts from
/// the pristine bytes whichever worker claims it. Chunks no store
/// touched equal the pristine bytes, so the runs are exactly those a
/// whole-buffer diff would find (a store of the pristine value leaves
/// no run). The caller's buffer is untouched until every engine has
/// finished, then the runs are applied in sm-id order — reproducing the
/// serial engine order exactly. On failure, serial semantics are
/// preserved the same way: the lowest-sm-id error wins, writes of the
/// SMs before it (plus the failing SM's partial writes) land, and later
/// SMs' work is discarded.
#[allow(clippy::too_many_arguments)]
fn run_sms_parallel(
    dev: &DeviceSpec,
    prog: &LinkedProgram,
    launch: Launch,
    params: &[u32],
    global: &mut [u8],
    partition: &[Vec<u32>],
    residency: u32,
    workers: u32,
    guards_for: &(dyn Fn(u32) -> EngineGuards + Sync),
) -> Result<Vec<Option<SmRun>>, SimError> {
    let num_sms = dev.num_sms as usize;
    let mut results: Vec<Option<(Result<SmRun, SimError>, WriteRuns)>> =
        (0..num_sms).map(|_| None).collect();
    {
        let pristine: &[u8] = global;
        // The counter only hands out SM ids; each worker's results come
        // back through `join`, so `Relaxed` suffices.
        let next_sm = AtomicUsize::new(0);
        let worker = || {
            let mut out = Vec::new();
            let mut buf: Vec<u8> = Vec::new();
            let mut dirty = DirtyChunks::new(pristine.len());
            let claims = std::iter::from_fn(|| Some(next_sm.fetch_add(1, Ordering::Relaxed)));
            for sm in claims.take_while(|&sm| sm < num_sms) {
                if partition[sm].is_empty() {
                    continue;
                }
                // One copy per worker, made for its first SM with
                // blocks; `drain` below restores it after each.
                if buf.is_empty() {
                    buf.extend_from_slice(pristine);
                }
                let mut engine = SmEngine::new(
                    dev,
                    prog,
                    launch,
                    params,
                    &mut buf,
                    sm as u32,
                    guards_for(sm as u32),
                )
                .track_writes(&mut dirty);
                let r = engine.run(&partition[sm], residency);
                let stats = engine.stats;
                let per_warp = std::mem::take(&mut engine.per_warp_issued);
                drop(engine);
                let mut runs = WriteRuns::new();
                dirty.drain(buf.len(), |range| {
                    diff_runs(
                        &pristine[range.clone()],
                        &buf[range.clone()],
                        range.start,
                        &mut runs,
                    );
                    buf[range.clone()].copy_from_slice(&pristine[range]);
                });
                let run = r.map(|c| SmRun { cycles: c, stats, per_warp });
                out.push((sm, run, runs));
            }
            out
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mine = worker();
            let theirs = handles.into_iter().flat_map(|h| h.join().expect("sim worker panicked"));
            for (sm, run, runs) in mine.into_iter().chain(theirs) {
                results[sm] = Some((run, runs));
            }
        });
    }
    let mut outcomes: Vec<Option<SmRun>> = Vec::with_capacity(num_sms);
    for slot in &mut results {
        match slot.take() {
            None => outcomes.push(None),
            Some((Ok(run), runs)) => {
                apply_runs(global, &runs);
                outcomes.push(Some(run));
            }
            Some((Err(e), runs)) => {
                // The failing SM's partial writes land, like a serial
                // engine erroring mid-run.
                apply_runs(global, &runs);
                return Err(e);
            }
        }
    }
    Ok(outcomes)
}

impl SimStats {
    /// Aggregate counters from another engine (SM → device).
    pub fn absorb(&mut self, o: &SimStats) {
        self.warp_insts += o.warp_insts;
        self.thread_insts += o.thread_insts;
        self.stack_moves += o.stack_moves;
        self.smem_slot_accesses += o.smem_slot_accesses;
        self.shared_mem_accesses += o.shared_mem_accesses;
        self.bank_conflict_extra += o.bank_conflict_extra;
        self.barriers += o.barriers;
        self.local_transactions += o.local_transactions;
        self.mem.l1_hits += o.mem.l1_hits;
        self.mem.l1_misses += o.mem.l1_misses;
        self.mem.l2_hits += o.mem.l2_hits;
        self.mem.l2_misses += o.mem.l2_misses;
        self.mem.dram_transactions += o.mem.dram_transactions;
        self.mem.dram_bytes += o.mem.dram_bytes;
        self.stalls.absorb(&o.stalls);
    }
}
