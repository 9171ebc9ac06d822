//! End-to-end observability tests over the service plane: the
//! sequential-vs-concurrent determinism of the outcomes (every launch's
//! cycles), journals and cache deltas, and the per-job journals and
//! cache counts of batches that run at once.
//!
//! The batch uses a tiny toy kernel (not the tier-1 workloads) so the
//! whole suite stays debug-mode fast; the same worker-count gate runs
//! over real candidate sets in `orion_core::service`'s unit tests.
//!
//! The journal is a value of each job's report, and a report's cache
//! counters are its calling thread's own, so no test here needs a
//! lock, and none clears the shared compile cache: a clear would turn
//! another test's warm lookups into misses.

use orion_core::backend::{Backend, SimBackend};
use orion_core::compiler::TuningConfig;
use orion_core::policy::{BanditConfig, PolicyKind};
use orion_core::resilient::ResiliencePolicy;
use orion_core::runtime::TuneReason;
use orion_core::service::{
    JobDisposition, JobPolicy, KernelJob, OrionService, ServiceConfig, ServiceReport,
};
use orion_core::session::{JournalEvent, SessionState, SessionStep, TuningSession};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::{Launch, SimError};
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::types::{MemSpace, SpecialReg, Width};
use std::sync::Barrier;

/// `out[gid] = in[gid] * mul` — distinct `mul` gives each kernel a
/// distinct module fingerprint; repeats share compile-cache entries.
fn toy_module(mul: i64) -> Module {
    let mut b = FunctionBuilder::kernel("k");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let y = b.imul(x, Operand::Imm(mul));
    b.st(MemSpace::Global, Width::W32, addr, y, 0);
    Module::new(b.finish())
}

fn batch(iterations: u32) -> Vec<KernelJob> {
    (0..6)
        .map(|i| KernelJob {
            name: format!("toy#{i}"),
            // 3 distinct modules, each submitted twice → cache sharing.
            module: toy_module(i64::from(i % 3) + 2),
            launch: Launch { grid: 4, block: 64 },
            params: vec![0],
            global: vec![0u8; 4 * 256],
            iterations,
            tuning: TuningConfig::new(64),
            policy: JobPolicy::default(),
        })
        .collect()
}

fn run(workers: usize, jobs: Vec<KernelJob>) -> ServiceReport {
    run_with(ServiceConfig { workers, policy: None, ..ServiceConfig::default() }, jobs)
}

fn run_with(cfg: ServiceConfig, jobs: Vec<KernelJob>) -> ServiceReport {
    OrionService::new(SimBackend::new(DeviceSpec::gtx680()), cfg).run(jobs)
}

#[test]
fn service_observability_end_to_end() {
    // --- Determinism gate: sequential vs concurrent ----------------
    let seq = run(1, batch(6));
    let conc = run(6, batch(6));
    assert!(seq.all_ok() && conc.all_ok());
    for (a, b) in seq.kernels.iter().zip(&conc.kernels) {
        assert_eq!(
            a.outcome.as_ref().unwrap(),
            b.outcome.as_ref().unwrap(),
            "{}: outcome must not depend on worker count",
            a.name
        );
        // The outcome holds every successful launch's cycles once.
        assert!(!a.outcome.as_ref().unwrap().iterations.is_empty(), "{}: launches ran", a.name);
    }
    assert_eq!(seq.journal(), conc.journal(), "journals must not depend on worker count");

    // Cache deltas: with in-flight coalescing the hit/miss totals are a
    // pure function of the job multiset. The second (concurrent) run
    // re-requests the same fingerprints against a warm cache, so it
    // must be all hits, zero misses.
    assert_eq!(conc.cache.misses, 0, "warm concurrent run must not re-allocate");
    assert!(conc.cache.hits > 0);
    assert_eq!(conc.cache.hit_rate(), 1.0);

    // --- Journal: every job's session transitions reach the report ---
    // Fault-free paper walks journal transitions and nothing else,
    // whether telemetry is compiled in, switched on, or neither.
    let journal = conc.journal();
    for job in 0..conc.kernels.len() {
        assert!(
            journal.iter().any(|&(j, _, e)| j == job
                && e == JournalEvent::SessionTransition {
                    from: SessionState::Warmup,
                    to: SessionState::Walking
                }),
            "job {job} journals its walk; got {journal:?}"
        );
    }
    assert!(
        journal.iter().all(|(_, _, e)| e.tag() == "session_transition"),
        "a fault-free walk journals only transitions: {journal:?}"
    );

    // --- A deadline degrades exactly its own job ---------------------
    let mut jobs = batch(6);
    jobs.truncate(2);
    jobs[0].policy.deadline_cycles = Some(1);
    let deadline = run(1, jobs);
    assert_eq!(deadline.count_dispositions(|d| d == JobDisposition::Degraded), 1);
    assert_eq!(deadline.kernels[0].disposition, JobDisposition::Degraded);
}

/// Two batches that run at once on two threads, with telemetry on,
/// each report exactly their own jobs' journals: the same journals as
/// each batch run alone with telemetry off.
#[test]
fn concurrent_batches_keep_their_own_journals() {
    // Batch A: six paper walks. Batch B: two resilient bandit jobs,
    // one of them cut by a deadline, so the two journals differ.
    let batch_b = || {
        let mut jobs = batch(6);
        jobs.truncate(2);
        for j in &mut jobs {
            j.policy.search = Some(PolicyKind::Bandit(BanditConfig::default()));
        }
        jobs[1].policy.deadline_cycles = Some(1);
        jobs
    };
    let resilient = ServiceConfig { workers: 2, ..ServiceConfig::default() };
    let alone_a = run(2, batch(6));
    let alone_b = run_with(resilient, batch_b());
    orion_telemetry::set_enabled(true);
    // Both batches start together, so their sessions overlap.
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            start.wait();
            run(2, batch(6))
        });
        let b = s.spawn(|| {
            start.wait();
            run_with(resilient, batch_b())
        });
        (a.join().expect("batch A"), b.join().expect("batch B"))
    });
    // Leave no events in the process-wide buffer for later tests.
    drop(orion_telemetry::take_events());
    orion_telemetry::set_enabled(false);
    assert_eq!(a.journal(), alone_a.journal(), "batch A's journal is its own");
    assert_eq!(b.journal(), alone_b.journal(), "batch B's journal is its own");
    assert_ne!(a.journal(), b.journal());
    for (report, jobs) in [(&a, 6), (&b, 2)] {
        let journal = report.journal();
        assert!(journal.iter().all(|&(job, _, _)| job < jobs), "{journal:?}");
        for job in 0..jobs {
            assert!(journal.iter().any(|&(j, _, _)| j == job), "job {job} journals: {journal:?}");
        }
    }
    assert!(
        b.journal().iter().any(|&(job, _, e)| job == 1
            && matches!(e, JournalEvent::SessionTransition { to: SessionState::Degraded, .. })),
        "B's deadline job journals its degrade: {:?}",
        b.journal()
    );
    assert!(
        b.journal().iter().any(|(_, _, e)| matches!(e, JournalEvent::Pruned { arms } if *arms > 0)),
        "B's bandit jobs journal their pre-prune: {:?}",
        b.journal()
    );
}

/// A bandit session whose finalized arm dies records the fallback once:
/// as one `FellBack` decision. Its journal adds only the hang that
/// killed the pick, never a copy of the decision.
#[test]
fn a_dead_bandit_pick_is_journaled_as_one_fallback() {
    let ck = SimBackend::new(DeviceSpec::gtx680())
        .compile_probe(&toy_module(2), &TuningConfig::new(64))
        .expect("compiles");
    assert!(ck.versions.len() > 1, "a pick to lose and a version to fall back to");
    let resilience =
        ResiliencePolicy { samples: 1, quarantine_strikes: 1, ..ResiliencePolicy::default() };
    // No pruning: every version is an arm, so a survivor remains.
    let search =
        PolicyKind::Bandit(BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() });
    let mut session = TuningSession::with_policy("dying", &ck, 200, 0.02, resilience, search);
    // Every version measures cleanly until the bandit has finalized;
    // then its pick hangs once, which quarantines it.
    let mut dead = None;
    while let SessionStep::Launch(v) = session.next_step().expect("a survivor remains") {
        let result = if dead.is_none() && session.finalized() == Some(v) {
            dead = Some(v);
            Err(SimError::Watchdog { budget: 9 }.into())
        } else {
            Ok(100 + v as u64)
        };
        session.on_launch_result(result).expect("a hang is absorbed");
    }
    let dead = dead.expect("the bandit finalized a pick");
    let journal = session.journal().to_vec();
    let out = session.finish();
    assert_ne!(out.selected, dead, "a survivor replaces the dead pick");
    let fallbacks = out.decisions.iter().filter(|d| d.reason == TuneReason::FellBack).count();
    assert_eq!(fallbacks, 1, "one fallback, one decision: {:?}", out.decisions);
    let facts: Vec<_> =
        journal.iter().filter(|e| !matches!(e, JournalEvent::SessionTransition { .. })).collect();
    assert_eq!(
        facts,
        [&JournalEvent::Watchdog { version: dead, budget_cycles: 9 }],
        "the journal holds the hang, not the fallback"
    );
}

/// A batch's cache counters are its own lookups, even while another
/// thread compiles: a batch over cold modules reads the same hits and
/// misses alone as beside a thread compiling distinct cold modules,
/// each twice.
#[test]
fn a_batch_counts_only_its_own_cache_lookups() {
    // Cold sets of one shape: each module twice, multipliers no other
    // test compiles.
    let jobs = |base: i64| {
        let mut jobs = batch(4);
        for (i, job) in (0i64..).zip(&mut jobs) {
            job.module = toy_module(base + i % 2);
        }
        jobs
    };
    let alone = run(1, jobs(1_000));
    let start = Barrier::new(2);
    let beside = std::thread::scope(|s| {
        s.spawn(|| {
            let backend = SimBackend::new(DeviceSpec::gtx680());
            start.wait();
            // A bounded set, so it cannot evict other tests' entries.
            for mul in 2_000..2_016 {
                for _ in 0..2 {
                    backend.compile_probe(&toy_module(mul), &TuningConfig::new(64)).unwrap();
                }
            }
        });
        start.wait();
        run(1, jobs(3_000))
    });
    assert!(alone.cache.hits > 0 && alone.cache.misses > 0, "{:?}", alone.cache);
    assert_eq!(
        (beside.cache.hits, beside.cache.misses),
        (alone.cache.hits, alone.cache.misses),
        "the other thread's lookups are not the batch's"
    );
}
