//! `orion-bench --bin chaos-service` — the service-resilience chaos
//! gate.
//!
//! Where `--bin chaos` stresses one resilient *session*, this binary
//! stresses the *service plane*: batches of tier-1 kernel jobs run
//! through [`OrionService`]'s event loop under a seeded
//! [`ServiceFaultPlan`] — launch faults, injected panics that unwind
//! **inside the completion callback** (the scheduler's second
//! panic-isolation boundary), injected deadline pressure that trips
//! mid-flight between completions, a fault storm — plus
//! admission-queue saturation and a forced compile-cache poisoning.
//! One invariant is gated, hard:
//!
//! > **Jobs in == definite outcomes out.** Every submitted job comes
//! > back with exactly one [`JobDisposition`] — `Finalized`,
//! > `Quarantined`, `Degraded`, or `Rejected` — coherent with its
//! > outcome. No job lost, no hang, at every fault rate.
//!
//! Secondary gates:
//!
//! * **Determinism under chaos** — per-kernel outcomes, dispositions,
//!   cycle-domain histograms, and the dispatch order are bit-identical
//!   between the strictly sequential event loop (1 worker, in-flight
//!   limit 1) and the fully multiplexed one (4 workers, every session
//!   in flight) at every fault rate (fault draws are pure in
//!   `(seed, job index)`; only sim-cycle deadlines are used, never
//!   wall-clock budgets).
//! * **Poison recovery** — after a deliberately poisoned compile
//!   cache, subsequent batches tune cleanly and
//!   `cache/poison_recovered` counts the event.
//! * **Fault visibility** — the sweep must actually draw worker panics
//!   and shed jobs (a chaos gate that never injects anything gates
//!   nothing).
//!
//! Writes `BENCH_chaos_service.json`. `--quick` shrinks the sweep for
//! CI. `--inject-hang` gives every job a 1-cycle deadline: every job
//! must resolve `Degraded` and the binary exits **non-zero**, proving
//! the deadline gate actually fires (CI inverts the exit code, as it
//! does for `search --inject-greedy`).
//!
//! [`JobDisposition`]: orion_core::service::JobDisposition

use orion_bench::figures::Figure;
use orion_core::backend::SimBackend;
use orion_core::cache;
use orion_core::compiler::TuningConfig;
use orion_core::service::{
    FaultStorm, JobDisposition, JobPolicy, KernelJob, KernelReport, OrionService, ServiceConfig,
    ServiceFaultPlan, ServiceReport,
};
use orion_gpusim::device::DeviceSpec;
use orion_workloads::by_name;
use serde::Serialize;

const TIER1: [&str; 3] = ["matrixMul", "backprop", "hotspot"];
const SEED: u64 = 0x0710_2024;
const PANIC_RATE: f64 = 0.25;

#[derive(Serialize)]
struct ScenarioRow {
    fault_rate: f64,
    jobs: usize,
    queue_capacity: Option<usize>,
    finalized: usize,
    quarantined: usize,
    degraded: usize,
    rejected: usize,
    /// Quarantines specifically caused by a caught injected panic
    /// (unwinding inside the event loop's completion callback).
    panics_caught: usize,
    /// In-flight session cap of the concurrent run (0 configured =
    /// every admitted session; the recorded effective value).
    in_flight_limit: usize,
    deterministic_across_workers: bool,
}

#[derive(Serialize)]
struct ChaosServiceDoc {
    device: String,
    seed: u64,
    host_cores: usize,
    iterations_per_kernel: u32,
    scenarios: Vec<ScenarioRow>,
    poison_recovered: u64,
    all_jobs_accounted: bool,
}

fn batch(n: usize, iterations: u32, deadline_cycles: Option<u64>) -> Vec<KernelJob> {
    (0..n)
        .map(|i| {
            let w = by_name(TIER1[i % TIER1.len()]).expect("tier-1 workload");
            KernelJob {
                name: format!("{}#{i}", w.name),
                module: w.module.clone(),
                launch: w.launch(),
                params: w.params.clone(),
                global: w.init_global.clone(),
                iterations,
                tuning: TuningConfig::new(w.block),
                policy: JobPolicy {
                    deadline_cycles,
                    // Wall budgets are non-deterministic; the chaos gate
                    // compares worker counts bit-for-bit, so only
                    // sim-cycle budgets are allowed here.
                    wall_budget: None,
                    retry_budget: None,
                    // Spread priorities so saturation sheds a
                    // deterministic, non-trivial subset.
                    priority: 50 + ((i as u8) % 3) * 50,
                    search: None,
                },
            }
        })
        .collect()
}

fn run(cfg: ServiceConfig, jobs: Vec<KernelJob>) -> ServiceReport {
    OrionService::new(SimBackend::new(DeviceSpec::gtx680()), cfg).run(jobs)
}

/// The invariant: every submitted job has exactly one definite,
/// coherent disposition. Returns a failure description instead of
/// asserting so the sweep reports every violation.
fn check_accounting(submitted: usize, report: &ServiceReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.kernels.len() != submitted {
        problems.push(format!("{} jobs in, {} reports out", submitted, report.kernels.len()));
    }
    for k in &report.kernels {
        let coherent = match k.disposition {
            JobDisposition::Finalized => k.outcome.is_ok(),
            JobDisposition::Degraded(_) => k
                .outcome
                .as_ref()
                .is_ok_and(|o| o.state == orion_core::session::SessionState::Degraded),
            // Quarantines carry either an error or a session that died
            // with every candidate quarantined.
            JobDisposition::Quarantined => match &k.outcome {
                Err(_) => true,
                Ok(o) => o.state == orion_core::session::SessionState::Quarantined,
            },
            JobDisposition::Rejected => k.outcome.as_ref().is_err_and(|e| {
                matches!(e.root_cause(), orion_core::error::OrionError::Overloaded { .. })
            }),
        };
        if !coherent {
            problems.push(format!(
                "{}: disposition {:?} incoherent with outcome {:?}",
                k.name, k.disposition, k.outcome
            ));
        }
    }
    problems
}

fn count(report: &ServiceReport, pred: impl Fn(JobDisposition) -> bool) -> usize {
    report.count_dispositions(pred)
}

fn panics_caught(report: &ServiceReport) -> usize {
    report
        .kernels
        .iter()
        .filter(|k| {
            k.outcome.as_ref().is_err_and(|e| {
                matches!(e.root_cause(), orion_core::error::OrionError::SessionPanicked { .. })
            })
        })
        .count()
}

/// Per-kernel equality across worker counts: disposition, outcome (or
/// rendered error), and the deterministic cycle-domain histograms.
fn reports_equal(a: &KernelReport, b: &KernelReport) -> bool {
    a.disposition == b.disposition
        && a.metrics.cycle_domain() == b.metrics.cycle_domain()
        && match (&a.outcome, &b.outcome) {
            (Ok(x), Ok(y)) => x == y,
            (Err(x), Err(y)) => x.to_string() == y.to_string(),
            _ => false,
        }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let inject_hang = std::env::args().any(|a| a == "--inject-hang");
    let jobs_per_batch: usize = if quick { 9 } else { 18 };
    let iterations: u32 = if quick { 8 } else { 16 };
    let dev = DeviceSpec::gtx680();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    orion_telemetry::set_enabled(false);
    // Injected worker panics are the test subject; keep the default
    // hook's backtrace spam out of the logs without hiding anything
    // else.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.starts_with("chaos:"));
        if !injected {
            prior_hook(info);
        }
    }));
    let mut failures: Vec<String> = Vec::new();

    // --inject-hang: a 1-cycle deadline on every job. Without the
    // deadline gate these sessions would run their full walk (or, on a
    // hanging backend, forever); with it, every job must land Degraded
    // and the binary exits non-zero to prove the gate fires.
    if inject_hang {
        let report = run(
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
            batch(jobs_per_batch, iterations, Some(1)),
        );
        let degraded = count(&report, |d| matches!(d, JobDisposition::Degraded(_)));
        let problems = check_accounting(jobs_per_batch, &report);
        if degraded == jobs_per_batch && problems.is_empty() {
            eprintln!(
                "inject-hang: deadline gate fired on all {degraded}/{jobs_per_batch} jobs \
                 (every disposition Degraded) — exiting non-zero as proof"
            );
            std::process::exit(3);
        }
        eprintln!(
            "FAIL inject-hang: deadline gate did NOT fire cleanly \
             ({degraded}/{jobs_per_batch} degraded; problems: {problems:?})"
        );
        std::process::exit(0); // CI inverts: exit 0 here fails the job.
    }

    // The sweep: three fault rates, each with injected panics and
    // deadline pressure, run at 1 and 4 workers and compared
    // bit-for-bit. The 25% scenario adds a fault storm and a saturated
    // admission queue.
    let mut scenarios = Vec::new();
    let mut total_panics = 0usize;
    let mut total_shed = 0usize;
    for &rate in &[0.0, 0.10, 0.25] {
        let mut plan = ServiceFaultPlan::chaos(SEED ^ (rate * 100.0) as u64, rate, PANIC_RATE);
        if rate == 0.0 {
            plan = ServiceFaultPlan::none(SEED);
        }
        let mut queue_capacity = None;
        if rate >= 0.25 {
            plan.storm = Some(FaultStorm {
                start_job: jobs_per_batch / 3,
                len: jobs_per_batch / 3,
                multiplier: 2.0,
            });
            queue_capacity = Some(jobs_per_batch - 2);
        }
        let mk_cfg = |workers, in_flight_limit| ServiceConfig {
            workers,
            in_flight_limit,
            queue_capacity,
            chaos: Some(plan),
            ..ServiceConfig::default()
        };
        cache::reset();
        // Strictly sequential event loop vs fully multiplexed: same
        // code path, different in-flight caps and worker pools.
        let seq = run(mk_cfg(1, 1), batch(jobs_per_batch, iterations, None));
        let conc = run(mk_cfg(4, 0), batch(jobs_per_batch, iterations, None));
        for r in [&seq, &conc] {
            failures.extend(
                check_accounting(jobs_per_batch, r)
                    .into_iter()
                    .map(|p| format!("rate {rate}: {p}")),
            );
        }
        let deterministic = seq.dispatch_order == conc.dispatch_order
            && seq.kernels.iter().zip(&conc.kernels).all(|(a, b)| reports_equal(a, b));
        if !deterministic {
            failures.push(format!(
                "rate {rate}: outcomes differ between sequential and multiplexed event loops"
            ));
        }
        let rejected = count(&conc, |d| d == JobDisposition::Rejected);
        if let Some(cap) = queue_capacity {
            if rejected != jobs_per_batch - cap {
                failures.push(format!(
                    "rate {rate}: capacity {cap} should shed exactly {} jobs, shed {rejected}",
                    jobs_per_batch - cap
                ));
            }
        }
        if rate == 0.0
            && panics_caught(&conc) + rejected + count(&conc, |d| d != JobDisposition::Finalized)
                > 0
        {
            failures.push("rate 0: clean batch did not finalize everything".into());
        }
        total_panics += panics_caught(&conc);
        total_shed += rejected;
        scenarios.push(ScenarioRow {
            fault_rate: rate,
            jobs: jobs_per_batch,
            queue_capacity,
            finalized: count(&conc, |d| d == JobDisposition::Finalized),
            quarantined: count(&conc, |d| d == JobDisposition::Quarantined),
            degraded: count(&conc, |d| matches!(d, JobDisposition::Degraded(_))),
            rejected,
            panics_caught: panics_caught(&conc),
            in_flight_limit: conc.in_flight_limit,
            deterministic_across_workers: deterministic,
        });
    }

    // A chaos gate that never injects anything gates nothing: the
    // sweep must have produced at least one caught panic and one shed
    // job.
    if total_panics == 0 {
        failures.push("sweep drew zero worker panics despite a 25% panic rate".into());
    }
    if total_shed == 0 {
        failures.push("sweep shed zero jobs despite a saturated queue".into());
    }

    // Poison recovery: poison the cache on purpose, then run a
    // clean batch — every job must still tune, and the recovery must be
    // counted.
    cache::reset();
    cache::poison_for_chaos();
    let after_poison = run(
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
        batch(6, iterations.min(8), None),
    );
    failures.extend(check_accounting(6, &after_poison));
    if !after_poison.all_ok() {
        failures.push("batch after forced cache poisoning did not tune cleanly".into());
    }
    let poison_recovered = cache::stats().poison_recovered;
    if poison_recovered == 0 {
        failures.push("forced cache poisoning was never counted as recovered".into());
    }

    let doc = ChaosServiceDoc {
        device: dev.name.clone(),
        seed: SEED,
        host_cores,
        iterations_per_kernel: iterations,
        scenarios,
        poison_recovered,
        all_jobs_accounted: failures.is_empty(),
    };
    let mut text = format!(
        "Chaos-service gate on {} ({} host cores): {} jobs/batch x {} iterations\n",
        dev.name, host_cores, jobs_per_batch, iterations,
    );
    for s in &doc.scenarios {
        text.push_str(&format!(
            "rate {:>4.0}%: {:>2} finalized / {:>2} quarantined ({} panics) / \
             {:>2} degraded / {:>2} rejected; deterministic: {}\n",
            s.fault_rate * 100.0,
            s.finalized,
            s.quarantined,
            s.panics_caught,
            s.degraded,
            s.rejected,
            s.deterministic_across_workers,
        ));
    }
    text.push_str(&format!("cache poison recoveries: {poison_recovered}\n"));
    for f in &failures {
        text.push_str(&format!("FAIL: {f}\n"));
    }

    let data = match serde_json::to_value(&doc) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: chaos-service doc does not serialize: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = orion_bench::emit(&Figure::new("chaos_service", text, data)) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
    if !failures.is_empty() {
        std::process::exit(2);
    }
}
