//! Service-resilience edge case on the deterministic [`ReplayBackend`]:
//! a job whose every candidate blows its sim-cycle deadline must resolve
//! to a definite, coherent disposition — the service's core contract —
//! without touching a real simulator.

use orion_core::backend::ReplayBackend;
use orion_core::compiler::TuningConfig;
use orion_core::runtime::TuneReason;
use orion_core::service::{JobDisposition, JobPolicy, KernelJob, OrionService, ServiceConfig};
use orion_core::session::SessionState;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::types::{MemSpace, SpecialReg, Width};

fn toy_module() -> Module {
    let mut b = FunctionBuilder::kernel("edge");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let addr = b.imad(tid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let y = b.imul(x, Operand::Imm(3));
    b.st(MemSpace::Global, Width::W32, addr, y, 0);
    Module::new(b.finish())
}

fn job(name: &str, iterations: u32, policy: JobPolicy) -> KernelJob {
    KernelJob {
        name: name.into(),
        module: toy_module(),
        launch: Launch { grid: 2, block: 32 },
        params: vec![0],
        global: vec![0u8; 4 * 64],
        iterations,
        tuning: TuningConfig::new(32),
        policy,
    }
}

#[test]
fn every_candidate_over_deadline_lands_degraded_on_the_original() {
    // Every replayed launch costs 10_000 cycles against a 5_000-cycle
    // deadline: the baseline measurement alone blows the budget, so the
    // walk never reaches a second candidate. The job must resolve
    // Degraded — settled on the original (fail-safe) version — with a
    // decision log that says exactly that, not an error.
    let be = ReplayBackend::new(DeviceSpec::gtx680(), 10_000);
    let svc = OrionService::new(be, ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let policy = JobPolicy { deadline_cycles: Some(5_000), ..JobPolicy::default() };
    let report = svc.run(vec![job("late", 8, policy)]);
    let k = &report.kernels[0];
    assert_eq!(k.disposition, JobDisposition::Degraded);
    let o = k.outcome.as_ref().expect("degraded jobs report an outcome, not an error");
    assert_eq!(o.state, SessionState::Degraded);
    assert_eq!(o.selected, 0, "the fail-safe selection is the original version");
    // Coherent decision log: the baseline measurement, then the degrade
    // settling on the original — no phantom walk steps after it.
    let reasons: Vec<TuneReason> = o.decisions.iter().map(|d| d.reason).collect();
    assert_eq!(reasons.last(), Some(&TuneReason::Degraded), "{reasons:?}");
    assert!(
        reasons[..reasons.len() - 1].iter().all(|r| *r == TuneReason::Baseline),
        "nothing but warmup may precede the degrade: {reasons:?}"
    );
    let last = o.decisions.last().unwrap();
    assert_eq!(last.version, 0);
    assert_eq!(last.finalized, Some(0));
    // The deadline gate is checked before each launch chain, so the
    // overshoot is bounded by one chain's cycles.
    assert!(o.total_cycles >= 5_000, "the budget was genuinely exceeded");

    // Same backend, roomy deadline: the job finalizes normally —
    // proving the degrade above came from the budget, not the backend.
    let be = ReplayBackend::new(DeviceSpec::gtx680(), 10_000);
    let svc = OrionService::new(be, ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let roomy = JobPolicy { deadline_cycles: Some(u64::MAX), ..JobPolicy::default() };
    let report = svc.run(vec![job("fine", 8, roomy)]);
    assert_eq!(report.kernels[0].disposition, JobDisposition::Finalized);
}
