//! Set-up, the timed closed loops, and the metrics derived from them.

use crate::check::{Checker, Verdict, KNOWN_RACY};
use crate::host::{self, HostRecord, HostWindow};
use crate::mix::{self, JobSpec, Kind};
use crate::trace::{span, Tracer};
use orion_core::backend::{AsyncBackend, Backend, SimBackend};
use orion_core::cache;
use orion_core::compiler::CompiledKernel;
use orion_core::service::{JobDisposition, KernelJob, OrionService, ServiceConfig};
use orion_core::session::{SessionOutcome, SessionState};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_workloads::Workload;
use std::collections::HashMap;
use std::time::Instant;

/// Cold set-up repetitions per run; `setup_s` is their median. The first
/// builds the state the run uses; the others are spread over the timed
/// section (see [`SetupReps::between_calls`]), so they sample the host at
/// different moments rather than in one burst.
pub const SETUP_REPS: usize = 12;

/// A spread repetition falls due after every this many seconds of timed
/// calls...
const REP_EVERY_S: f64 = 1.0;
/// ...with at most this many run in one gap between calls.
const MAX_REPS_PER_GAP: usize = 4;

/// The service configuration of each workload. The simulator is
/// noise-free, so sessions run the paper's fault-free walk.
pub fn service_config(kind: Kind) -> ServiceConfig {
    let base = ServiceConfig { policy: None, ..ServiceConfig::default() };
    match kind {
        Kind::ServiceBatch => ServiceConfig { workers: 2, in_flight_limit: 0, ..base },
        Kind::AppTune | Kind::CompileCold => base,
    }
}

/// Everything the timed section starts from.
pub struct Setup {
    pub pool: Vec<Workload>,
    /// Jobs of the first pass, generated during set-up.
    pub first_jobs: Vec<KernelJob>,
    /// The candidates of every pool kernel, from the cold cache fill.
    pub cks: Vec<CompiledKernel>,
    pub service: OrionService<SimBackend>,
    /// The set-up repetitions made so far, and the ones still to make.
    pub reps: SetupReps,
}

/// Timed cold set-up repetitions.
pub struct SetupReps {
    kind: Kind,
    seed: u64,
    only: Option<Vec<String>>,
    target: usize,
    /// Seconds of each cold repetition.
    pub setup_s: Vec<f64>,
    /// Seconds building the kernel pool, per repetition.
    pub build_s: Vec<f64>,
    /// Seconds compiling every distinct kernel cold, per repetition.
    pub compile_s: Vec<f64>,
}

type Built = (Vec<Workload>, Vec<KernelJob>, Vec<CompiledKernel>, OrionService<SimBackend>);

impl SetupReps {
    /// Set up once from a cold compile cache, on this thread. The cache
    /// ends up holding every pool kernel, as after the first set-up.
    fn cold(&mut self) -> Built {
        cache::reset();
        let t0 = Instant::now();
        let pool = mix::pool(self.only.as_deref());
        self.build_s.push(t0.elapsed().as_secs_f64());
        let first_jobs: Vec<KernelJob> = mix::pass(self.kind, self.seed, 0, pool.len())
            .into_iter()
            .map(|s| mix::kernel_job(&pool, s))
            .collect();
        let service = OrionService::new(SimBackend::new(mix::device()), service_config(self.kind));
        let t1 = Instant::now();
        let cks = compile_pool(service.backend(), &pool);
        self.compile_s.push(t1.elapsed().as_secs_f64());
        self.setup_s.push(t0.elapsed().as_secs_f64());
        (pool, first_jobs, cks, service)
    }

    /// Run the repetitions that have fallen due after `busy_s` seconds of
    /// timed calls: one per [`REP_EVERY_S`], at most [`MAX_REPS_PER_GAP`]
    /// at once. Returns the wall and process CPU seconds they took, which
    /// the caller leaves out of its section.
    pub fn between_calls(&mut self, busy_s: f64) -> (f64, f64) {
        let due = (1 + (busy_s / REP_EVERY_S) as usize).min(self.target);
        let n = due.saturating_sub(self.setup_s.len()).min(MAX_REPS_PER_GAP);
        self.run(n)
    }

    /// Make the repetitions still missing.
    pub fn finish(&mut self) {
        self.run(self.target.saturating_sub(self.setup_s.len()));
    }

    fn run(&mut self, n: usize) -> (f64, f64) {
        if n == 0 {
            return (0.0, 0.0);
        }
        let (t, cpu) = (Instant::now(), host::process_cpu_s());
        for _ in 0..n {
            drop(self.cold());
        }
        (t.elapsed().as_secs_f64(), host::process_cpu_s() - cpu)
    }
}

/// Set up once from a cold compile cache, on this thread, and plan
/// `reps` repetitions in all.
pub fn setup(kind: Kind, seed: u64, only: Option<&[String]>, reps: usize) -> Setup {
    let mut reps = SetupReps {
        kind,
        seed,
        only: only.map(<[String]>::to_vec),
        target: reps.max(1),
        setup_s: Vec::new(),
        build_s: Vec::new(),
        compile_s: Vec::new(),
    };
    let (pool, first_jobs, cks, service) = reps.cold();
    Setup { pool, first_jobs, cks, service, reps }
}

/// Compile every kernel of the pool once.
///
/// # Panics
/// When a suite kernel fails to compile: every workload depends on it.
pub fn compile_pool(backend: &impl Backend, pool: &[Workload]) -> Vec<CompiledKernel> {
    pool.iter()
        .map(|w| {
            backend
                .compile_probe(&w.module, &mix::tuning(w))
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name))
        })
        .collect()
}

/// One job of a timed section.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub spec: JobSpec,
    /// Tune workloads: the session finalized. `compile-cold`: the kernel
    /// compiled to exactly the candidates of the set-up compile.
    pub ok: bool,
    pub outcome: Option<SessionOutcome>,
}

/// A timed closed loop over whole passes.
#[derive(Debug, Clone, Default)]
pub struct Section {
    pub jobs: Vec<JobRecord>,
    /// Latency of every call (`tune_one`, `run`, or compile request).
    pub latencies: Vec<f64>,
    /// Sum of call latencies: the time the program was working.
    pub busy_s: f64,
    /// Wall time of the passes, job generation included.
    pub wall_s: f64,
    pub passes: u64,
    pub host: HostRecord,
    /// Compile-cache hits and misses during the calls.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Section {
    /// Whether the calls have taken at least `seconds` over whole groups
    /// of [`Kind::passes_per_mix`] passes.
    pub fn complete(&self, kind: Kind, seconds: f64) -> bool {
        self.passes > 0
            && self.passes.is_multiple_of(kind.passes_per_mix())
            && self.busy_s >= seconds
    }
}

/// How a section calls the program.
#[derive(Clone, Copy, Default)]
pub struct SectionOpts<'t> {
    pub tracer: Option<&'t Tracer>,
    /// Record program telemetry (drained between calls, untimed).
    pub telemetry: bool,
}

/// Run whole passes of `kind`'s mix until the section is
/// [complete](Section::complete). `first_jobs`, when given, are the jobs
/// of pass 0. `reps`, when given, makes its set-up repetitions between
/// the calls and finishes them at the end.
#[allow(clippy::too_many_arguments)]
pub fn section<B: AsyncBackend>(
    kind: Kind,
    seed: u64,
    seconds: f64,
    svc: &OrionService<B>,
    setup: (&[Workload], &[CompiledKernel]),
    mut first_jobs: Option<Vec<KernelJob>>,
    opts: SectionOpts<'_>,
    mut reps: Option<&mut SetupReps>,
) -> Section {
    let mut sec = Section::default();
    while !sec.complete(kind, seconds) {
        run_pass(kind, seed, svc, setup, first_jobs.take(), opts, reps.as_deref_mut(), &mut sec);
    }
    if let Some(r) = reps {
        r.finish();
    }
    sec
}

/// Run the next pass of `sec` (pass number `sec.passes`) and add it.
/// Set-up repetitions that `reps` makes between the calls are left out
/// of the pass's wall and CPU time.
#[allow(clippy::too_many_arguments)]
pub fn run_pass<B: AsyncBackend>(
    kind: Kind,
    seed: u64,
    svc: &OrionService<B>,
    (pool, cks): (&[Workload], &[CompiledKernel]),
    jobs: Option<Vec<KernelJob>>,
    opts: SectionOpts<'_>,
    mut reps: Option<&mut SetupReps>,
    sec: &mut Section,
) {
    let tr = opts.tracer;
    let window = HostWindow::open();
    let start = Instant::now();
    let specs = mix::pass(kind, seed, sec.passes, pool.len());
    let batch: Vec<KernelJob> =
        jobs.unwrap_or_else(|| specs.iter().map(|&s| mix::kernel_job(pool, s)).collect());
    orion_telemetry::set_enabled(opts.telemetry);
    let mut paused = (0.0, 0.0);
    // Times one call into the program and tallies the cache around it,
    // then makes the set-up repetitions due.
    let mut call = |sec: &mut Section, f: &mut dyn FnMut()| {
        let before = cache::stats();
        let t = Instant::now();
        f();
        let latency = t.elapsed().as_secs_f64();
        let d = cache::stats().delta_since(&before);
        sec.latencies.push(latency);
        sec.busy_s += latency;
        sec.cache_hits += d.hits;
        sec.cache_misses += d.misses;
        if opts.telemetry {
            drop(orion_telemetry::take_events());
        }
        if let Some(r) = reps.as_deref_mut() {
            let (wall, cpu) = r.between_calls(sec.busy_s);
            paused.0 += wall;
            paused.1 += cpu;
        }
    };
    match kind {
        Kind::AppTune => {
            for (spec, mut job) in specs.into_iter().zip(batch) {
                let mut r = None;
                call(sec, &mut || {
                    let _s = span(tr, "service.tune_one");
                    r = Some(svc.tune_one(&mut job));
                });
                let outcome = r.and_then(Result::ok);
                let ok = outcome.as_ref().is_some_and(|o| o.state == SessionState::Finalized);
                sec.jobs.push(JobRecord { spec, ok, outcome });
            }
        }
        Kind::ServiceBatch => {
            let mut batch = Some(batch);
            let mut report = None;
            call(sec, &mut || {
                let _s = span(tr, "service.run");
                report = batch.take().map(|b| svc.run(b));
            });
            let kernels = report.map(|r| r.kernels).unwrap_or_default();
            for (spec, k) in specs.into_iter().zip(kernels) {
                let ok = k.disposition == JobDisposition::Finalized && k.outcome.is_ok();
                sec.jobs.push(JobRecord { spec, ok, outcome: k.outcome.ok() });
            }
        }
        Kind::CompileCold => {
            {
                let _s = span(tr, "cache.reset");
                cache::reset();
            }
            let mut compiled = Vec::new();
            call(sec, &mut || {
                let _s = span(tr, "client.request");
                compiled = batch
                    .iter()
                    .map(|j| svc.backend().compile_probe(&j.module, &j.tuning))
                    .collect();
            });
            for (spec, ck) in specs.into_iter().zip(compiled) {
                let ok = ck.is_ok_and(|ck| same_candidates(&ck, &cks[spec.kernel]));
                sec.jobs.push(JobRecord { spec, ok, outcome: None });
            }
        }
    }
    orion_telemetry::set_enabled(false);
    drop(orion_telemetry::take_events());
    sec.passes += 1;
    sec.wall_s += start.elapsed().as_secs_f64() - paused.0;
    sec.host.add(window);
    sec.host.cpu_s -= paused.1;
}

/// Whether two compiles produced the same candidate set.
pub fn same_candidates(a: &CompiledKernel, b: &CompiledKernel) -> bool {
    a.direction == b.direction
        && a.original == b.original
        && a.tuning_order == b.tuning_order
        && a.versions.len() == b.versions.len()
        && a.versions.iter().zip(&b.versions).all(|(x, y)| {
            x.machine == y.machine
                && x.extra_smem == y.extra_smem
                && x.achieved_warps == y.achieved_warps
                && x.label == y.label
        })
}

/// The deterministic, simulated end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Geomean over jobs of original-version ÷ selected-version cycles.
    pub speedup_geomean: f64,
    /// Cycles lost to exploring ÷ all cycles.
    pub overhead_ratio: f64,
    pub launches_per_job: f64,
}

/// Simulated metrics of tuned jobs, from their sessions' own launches.
/// An exploring launch's loss is how many cycles it took beyond the
/// version the session selected; launches after convergence lose none.
pub fn tuned_sim(jobs: &[JobRecord], cks: &[CompiledKernel]) -> SimMetrics {
    let (mut ratios, mut lost, mut total, mut launches) = (Vec::new(), 0u64, 0u64, 0usize);
    for j in jobs {
        let Some(o) = &j.outcome else { continue };
        let first = |v: usize| o.iterations.iter().find(|(x, _)| *x == v).map(|&(_, c)| c);
        if let (Some(orig), Some(sel)) = (first(cks[j.spec.kernel].original), first(o.selected)) {
            ratios.push(orig as f64 / sel as f64);
            lost += o.iterations[..o.converged_after.min(o.iterations.len())]
                .iter()
                .map(|&(_, c)| c.saturating_sub(sel))
                .sum::<u64>();
        }
        total += o.iterations.iter().map(|&(_, c)| c).sum::<u64>();
        launches += o.iterations.len();
    }
    SimMetrics {
        speedup_geomean: crate::stats::geomean(&ratios),
        overhead_ratio: if total == 0 { 0.0 } else { lost as f64 / total as f64 },
        launches_per_job: launches as f64 / jobs.len().max(1) as f64,
    }
}

/// Full-grid cycles of every candidate of every kernel the jobs
/// compiled, keyed by `(kernel, version)`: one exhaustive sweep from the
/// kernel's initial memory, as an offline tuner would run it.
pub fn sweep_candidates(
    pool: &[Workload],
    cks: &[CompiledKernel],
    jobs: &[JobRecord],
) -> HashMap<(usize, usize), u64> {
    let dev = mix::device();
    let mut cycles = HashMap::new();
    for j in jobs {
        let k = j.spec.kernel;
        for (v, version) in cks[k].versions.iter().enumerate() {
            cycles.entry((k, v)).or_insert_with(|| {
                let w = &pool[k];
                let mut g = w.init_global.clone();
                let opts = LaunchOptions {
                    extra_smem_per_block: version.extra_smem,
                    ..Default::default()
                };
                run_launch_opts(&dev, &version.machine, w.launch(), &w.params, &mut g, opts)
                    .map_or(0, |r| r.cycles)
            });
        }
    }
    cycles
}

/// Simulated metrics of compiled-only jobs, from a sweep of their
/// candidates ([`sweep_candidates`]): the speedup of the best candidate
/// over the original, and the share of the sweep's cycles spent beyond
/// the best candidate.
pub fn candidate_sim(
    jobs: &[JobRecord],
    cks: &[CompiledKernel],
    sweep: &HashMap<(usize, usize), u64>,
) -> SimMetrics {
    let (mut ratios, mut lost, mut total, mut launches) = (Vec::new(), 0u64, 0u64, 0usize);
    for j in jobs {
        let k = j.spec.kernel;
        let cycles: Vec<u64> = (0..cks[k].versions.len())
            .filter_map(|v| sweep.get(&(k, v)).copied())
            .filter(|&c| c > 0)
            .collect();
        let orig = sweep.get(&(k, cks[k].original)).copied().unwrap_or(0);
        if let Some(&best) = cycles.iter().min() {
            if orig > 0 {
                ratios.push(orig as f64 / best as f64);
            }
            lost += cycles.iter().map(|c| c - best).sum::<u64>();
        }
        total += cycles.iter().sum::<u64>();
        launches += cycles.len();
    }
    SimMetrics {
        speedup_geomean: crate::stats::geomean(&ratios),
        overhead_ratio: if total == 0 { 0.0 } else { lost as f64 / total as f64 },
        launches_per_job: launches as f64 / jobs.len().max(1) as f64,
    }
}

/// The output check applied to a section's jobs.
#[derive(Debug, Clone, Default)]
pub struct CheckSummary {
    /// Verdict per checked `(kernel, version)`.
    pub verdicts: HashMap<(usize, usize), Verdict>,
    /// Jobs not finalized (or not compiled identically) or whose output
    /// failed the check.
    pub failed: usize,
    /// Failed jobs not explained by a [`KNOWN_RACY`] kernel's mismatch.
    pub unexpected: usize,
    /// One status line per checked kernel.
    pub lines: Vec<String>,
}

/// Check the selected version of every distinct tuned kernel, or every
/// candidate of every compiled kernel, and fail the jobs they belong to.
pub fn check_jobs(
    kind: Kind,
    pool: &[Workload],
    cks: &[CompiledKernel],
    jobs: &[JobRecord],
) -> CheckSummary {
    let mut checker = Checker::new(mix::device(), pool);
    let mut sum = CheckSummary::default();
    let versions_of = |j: &JobRecord| -> Vec<usize> {
        match (&j.outcome, kind.tunes()) {
            (Some(o), true) => vec![o.selected],
            (None, true) => Vec::new(),
            (_, false) => (0..cks[j.spec.kernel].versions.len()).collect(),
        }
    };
    for j in jobs {
        for v in versions_of(j) {
            sum.verdicts
                .entry((j.spec.kernel, v))
                .or_insert_with(|| checker.check(j.spec.kernel, &cks[j.spec.kernel].versions[v]));
        }
    }
    for j in jobs {
        let matches = versions_of(j).iter().all(|v| sum.verdicts[&(j.spec.kernel, *v)].matches);
        if !(j.ok && matches) {
            sum.failed += 1;
            if !(j.ok && KNOWN_RACY.contains(&pool[j.spec.kernel].name)) {
                sum.unexpected += 1;
            }
        }
    }
    for (k, w) in pool.iter().enumerate() {
        let mut checked: Vec<(usize, bool)> = sum
            .verdicts
            .iter()
            .filter(|((kk, _), _)| *kk == k)
            .map(|(&(_, v), x)| (v, x.matches))
            .collect();
        if checked.is_empty() {
            continue;
        }
        checked.sort_unstable();
        let labels: Vec<String> =
            checked.iter().map(|&(v, _)| cks[k].versions[v].label.clone()).collect();
        let status = match (checked.iter().all(|c| c.1), KNOWN_RACY.contains(&w.name)) {
            (true, false) => "ok",
            (true, true) => "ok (known race did not show)",
            (false, true) => "MISMATCH (known cross-block race; jobs counted as failed)",
            (false, false) => "MISMATCH",
        };
        sum.lines.push(format!("check {:<18} [{}]: {status}", w.name, labels.join(", ")));
    }
    sum
}
