//! Per-layer measurements taken from outside each layer, by calling its
//! public functions directly on the same inputs the workload used.

use crate::check::KNOWN_RACY;
use crate::mix;
use crate::run::JobRecord;
use orion_alloc::pipeline::{
    ColorPass, KuhnMunkresLayoutPass, LowerPass, MirVerifyPass, NormalizePass, Pass, Pipeline,
    PipelineState, SpillPass, StackPlanPass,
};
use orion_alloc::realize::{allocate, AllocError, AllocOptions, SlotBudget};
use orion_core::backend::Backend;
use orion_core::budget::budget_for_warps;
use orion_core::cache;
use orion_core::compiler::{CompiledKernel, Direction, KernelVersion};
use orion_core::policy::{BanditPolicy, PolicyKind};
use orion_core::session::{SessionMode, SessionStep, TuningSession};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::LinkedProgram;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_workloads::Workload;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The allocation pipeline's stages, in execution order.
pub const ALLOC_STAGES: [&str; 7] =
    ["normalize", "color", "spill", "stack-plan", "layout", "lower", "mir-verify"];

/// The per-layer metric of each stage in [`ALLOC_STAGES`].
pub const ALLOC_METRICS: [&str; 7] = [
    "alloc.normalize_s",
    "alloc.color_s",
    "alloc.spill_s",
    "alloc.stack-plan_s",
    "alloc.layout_s",
    "alloc.lower_s",
    "alloc.mir-verify_s",
];

/// A pipeline stage that times the stage it wraps.
struct TimedPass {
    inner: Box<dyn Pass>,
    stage: usize,
    acc: Rc<RefCell<[Duration; 7]>>,
}

impl Pass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, st: &mut PipelineState<'_>) -> Result<(), AllocError> {
        let t = Instant::now();
        let r = self.inner.run(st);
        self.acc.borrow_mut()[self.stage] += t.elapsed();
        r
    }

    fn check(&self, st: &PipelineState<'_>) -> Result<(), AllocError> {
        self.inner.check(st)
    }
}

/// `Pipeline::standard` for the default options (the ones the compile
/// stage allocates with), every stage swapped for a timing wrapper around
/// the same pass.
fn timed_pipeline(acc: &Rc<RefCell<[Duration; 7]>>) -> Pipeline {
    let mut p = Pipeline::standard(&AllocOptions::default());
    assert_eq!(p.stage_names(), ALLOC_STAGES, "the standard pipeline changed its stages");
    let passes: [Box<dyn Pass>; 7] = [
        Box::new(NormalizePass),
        Box::new(ColorPass { compress: true }),
        Box::new(SpillPass),
        Box::new(StackPlanPass),
        Box::new(KuhnMunkresLayoutPass),
        Box::new(LowerPass),
        Box::new(MirVerifyPass),
    ];
    for (stage, inner) in passes.into_iter().enumerate() {
        let name = ALLOC_STAGES[stage];
        assert!(p.replace(name, Box::new(TimedPass { inner, stage, acc: Rc::clone(acc) })));
    }
    p
}

/// The `(module, budget)` pairs the compile stage allocates for one
/// kernel: the original budget, then the candidate (or static) levels,
/// enumerated as `compiler::compile` does. Padded versions reuse the
/// original binary and allocate nothing.
pub fn alloc_budgets(dev: &DeviceSpec, w: &Workload, ck: &CompiledKernel) -> Vec<SlotBudget> {
    let cfg = mix::tuning(w);
    let smem = w.module.user_smem_bytes;
    let wpb = cfg.block.div_ceil(dev.warp_size);
    let level = |w: u32| budget_for_warps(dev, cfg.block, smem, w);
    let fits = |w: u32| level(w).is_some_and(|b| u32::from(b.total()) >= ck.max_live);
    let original_regs = (ck.max_live.min(u32::from(dev.max_regs_per_thread)) as u16).max(2);
    let mut budgets = vec![SlotBudget { reg_slots: original_regs, smem_slots: 0 }];
    let base = ck.versions[ck.original].achieved_warps;
    match (ck.direction, cfg.can_tune) {
        (Direction::Increasing, true) => {
            let levels: Vec<u32> = (1..)
                .map(|i| base + i * wpb)
                .take_while(|&l| l <= dev.max_warps_per_sm)
                .filter(|&l| level(l).is_some())
                .collect();
            let conservative = levels.iter().copied().filter(|&l| fits(l)).max();
            let from = conservative.unwrap_or_else(|| levels.first().copied().unwrap_or(0));
            let mut cands: Vec<u32> = levels.into_iter().filter(|&l| l >= from).collect();
            let room = cfg.max_versions.saturating_sub(1).max(1);
            while cands.len() > room {
                let mut kept: Vec<u32> =
                    (0..room).map(|i| cands[i * (cands.len() - 1) / (room - 1).max(1)]).collect();
                kept.dedup();
                cands = kept;
            }
            budgets.extend(cands.into_iter().filter_map(level));
        }
        (Direction::Increasing, false) => {
            let top =
                (base..=dev.max_warps_per_sm).step_by(wpb as usize).filter(|&l| fits(l)).max();
            budgets.extend(top.and_then(level));
        }
        (Direction::Decreasing, _) => {}
    }
    let mut distinct: Vec<SlotBudget> = Vec::new();
    for b in budgets {
        if !distinct.contains(&b) {
            distinct.push(b);
        }
    }
    distinct
}

/// The `alloc` layer: stage times over every `(module, budget)` pair.
#[derive(Debug, Clone, Default)]
pub struct AllocLayer {
    /// Seconds per stage, summed over the pairs (median of repetitions).
    pub stage_s: [f64; 7],
    /// Local-memory slots per thread, summed over the pairs.
    pub local_slots: u64,
    /// Static stack/argument moves, summed over the pairs.
    pub static_moves: u64,
    /// Kernels whose cold compile missed the cache a different number
    /// of times than there are pairs, or whose wrapped pipeline's output
    /// differs from `allocate` (both should be empty).
    pub mismatches: Vec<String>,
}

pub fn alloc_layer(
    dev: &DeviceSpec,
    backend: &impl Backend,
    pool: &[Workload],
    cks: &[CompiledKernel],
    reps: usize,
) -> AllocLayer {
    let opts = AllocOptions::default();
    let mut layer = AllocLayer::default();
    let mut work: Vec<(usize, SlotBudget)> = Vec::new();
    for (k, w) in pool.iter().enumerate() {
        let budgets = alloc_budgets(dev, w, &cks[k]);
        cache::reset();
        let _ = backend.compile_probe(&w.module, &mix::tuning(w));
        if cache::stats().misses != budgets.len() as u64 {
            layer.mismatches.push(format!("{}: {} misses", w.name, cache::stats().misses));
        }
        work.extend(budgets.into_iter().map(|b| (k, b)));
    }
    let mut per_rep: Vec<[f64; 7]> = Vec::new();
    for rep in 0..reps.max(1) {
        let acc = Rc::new(RefCell::new([Duration::ZERO; 7]));
        let pipeline = timed_pipeline(&acc);
        for &(k, budget) in &work {
            let out = pipeline.run(&pool[k].module, budget);
            if rep == 0 {
                let reference = allocate(&pool[k].module, budget, &opts);
                if out != reference {
                    layer.mismatches.push(format!("{}: wrapped pipeline differs", pool[k].name));
                }
                if let Ok(a) = &out {
                    layer.local_slots += u64::from(a.report.local_slots_per_thread);
                    layer.static_moves += u64::from(a.report.static_moves);
                }
            }
        }
        let a = *acc.borrow();
        per_rep.push(a.map(|d| d.as_secs_f64()));
    }
    for s in 0..7 {
        layer.stage_s[s] = crate::stats::median(&per_rep.iter().map(|r| r[s]).collect::<Vec<_>>());
    }
    layer
}

/// Seconds to compile every pool kernel with a warm cache (median of
/// `reps`).
pub fn warm_compile_s(backend: &impl Backend, pool: &[Workload], reps: usize) -> f64 {
    let _ = crate::run::compile_pool(backend, pool);
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let _ = crate::run::compile_pool(backend, pool);
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&times)
}

/// The `policy` layer: sessions re-driven on the recorded measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyLayer {
    /// Mean seconds of one `next_step` + `on_launch_result` pair.
    pub step_s: f64,
    pub steps: u64,
    /// Launches spent before the selection was final, summed over jobs.
    pub explore_launches: u64,
    /// Arms the bandit pruned before any launch (`BanditPolicy::pruned_arms`),
    /// summed over jobs.
    pub arms_pruned: u64,
    /// Jobs whose replay selected another version than the run did.
    pub diverged: usize,
}

/// Re-drive each tuned job's session `reps` times on the cycles its
/// launches measured, timing only the policy calls.
pub fn policy_layer(
    jobs: &[JobRecord],
    cks: &[CompiledKernel],
    threshold: f64,
    reps: usize,
) -> PolicyLayer {
    let mut layer = PolicyLayer::default();
    let mut busy = Duration::ZERO;
    for rep in 0..reps.max(1) {
        for j in jobs {
            let Some(o) = &j.outcome else { continue };
            let ck = &cks[j.spec.kernel];
            let mut s = TuningSession::with_policy(
                "",
                ck,
                o.iterations.len() as u32,
                threshold,
                SessionMode::Simple,
                j.spec.search.kind(),
            );
            let mut i = 0;
            loop {
                let t = Instant::now();
                let step = s.next_step();
                busy += t.elapsed();
                let Ok(SessionStep::Launch(v)) = step else { break };
                let cycles = match o.iterations.get(i) {
                    Some(&(rv, c)) if rv == v => c,
                    _ => o.iterations.iter().find(|x| x.0 == v).map_or(1, |x| x.1),
                };
                let t = Instant::now();
                let r = s.on_launch_result(Ok(cycles));
                busy += t.elapsed();
                layer.steps += 1;
                i += 1;
                if r.is_err() {
                    break;
                }
            }
            let replayed = s.finish();
            if rep == 0 {
                layer.explore_launches += o.converged_after as u64;
                if let PolicyKind::Bandit(cfg) = j.spec.search.kind() {
                    layer.arms_pruned += BanditPolicy::over_kernel(ck, cfg).pruned_arms() as u64;
                }
                if replayed.selected != o.selected || replayed.iterations != o.iterations {
                    layer.diverged += 1;
                }
            }
        }
    }
    layer.step_s = busy.as_secs_f64() / layer.steps.max(1) as f64;
    layer
}

/// The `gpusim` layer: one launch of each distinct `(kernel, version)`
/// the workload settled on, replayed from the kernel's initial memory at
/// the workload's own launch shape.
#[derive(Debug, Clone, Default)]
pub struct GpuSimLayer {
    pub launches: usize,
    pub link_predecode_s: f64,
    pub launch_serial_s: f64,
    pub launch_fanout_s: f64,
    pub warp_insts: u64,
    pub sim_cycles: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_bytes: u64,
    pub local_transactions: u64,
    pub stall_total: u64,
    pub stall_mem_pending: u64,
    pub stall_scoreboard: u64,
    /// Launches whose fanned-out result differed from the serial one.
    pub fanout_mismatches: Vec<String>,
}

/// Repetitions of `LinkedProgram::new` per version (it takes microseconds).
const LINK_REPS: u32 = 20;

pub fn gpusim_layer(
    dev: &DeviceSpec,
    pool: &[Workload],
    picks: &[(usize, &KernelVersion)],
) -> GpuSimLayer {
    let mut layer = GpuSimLayer::default();
    for &(k, v) in picks {
        let w = &pool[k];
        let t = Instant::now();
        for _ in 0..LINK_REPS {
            std::hint::black_box(LinkedProgram::new(&v.machine));
        }
        layer.link_predecode_s += t.elapsed().as_secs_f64() / f64::from(LINK_REPS);
        let launch = |parallelism: u32| -> (Option<RunResult>, Vec<u8>, f64) {
            let mut g = w.init_global.clone();
            let opts = LaunchOptions {
                extra_smem_per_block: v.extra_smem,
                parallelism,
                ..Default::default()
            };
            let t = Instant::now();
            let r = run_launch_opts(dev, &v.machine, w.launch(), &w.params, &mut g, opts);
            (r.ok(), g, t.elapsed().as_secs_f64())
        };
        let (serial, g1, s1) = launch(1);
        let (fanout, g2, s2) = launch(0);
        layer.launch_serial_s += s1;
        layer.launch_fanout_s += s2;
        if serial.is_none() || serial != fanout || g1 != g2 {
            let race = if KNOWN_RACY.contains(&w.name) { " (known cross-block race)" } else { "" };
            layer.fanout_mismatches.push(format!("{} {}{race}", w.name, v.label));
        }
        let Some(r) = serial else { continue };
        layer.launches += 1;
        let s = &r.stats;
        layer.warp_insts += s.warp_insts;
        layer.sim_cycles += r.cycles;
        layer.l1_hits += s.mem.l1_hits;
        layer.l1_misses += s.mem.l1_misses;
        layer.l2_hits += s.mem.l2_hits;
        layer.l2_misses += s.mem.l2_misses;
        layer.dram_bytes += s.mem.dram_bytes;
        layer.local_transactions += s.local_transactions;
        layer.stall_total += s.stalls.total();
        layer.stall_mem_pending += s.stalls.mem_pending;
        layer.stall_scoreboard += s.stalls.scoreboard;
    }
    layer
}

/// Distinct `(kernel, selected version)` pairs of tuned jobs, in first-seen order.
pub fn picks<'c>(jobs: &[JobRecord], cks: &'c [CompiledKernel]) -> Vec<(usize, &'c KernelVersion)> {
    let mut seen: Vec<(usize, usize)> = Vec::new();
    for j in jobs {
        if let Some(o) = &j.outcome {
            if !seen.contains(&(j.spec.kernel, o.selected)) {
                seen.push((j.spec.kernel, o.selected));
            }
        }
    }
    seen.into_iter().map(|(k, v)| (k, &cks[k].versions[v])).collect()
}
