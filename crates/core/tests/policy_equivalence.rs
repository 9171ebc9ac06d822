//! Search-policy determinism suite.
//!
//! A session constructed with [`PolicyKind::Bandit`] draws no random
//! numbers: it is a deterministic function of its measurement stream.
//! The same stream gives the same arm sequence and the same outcome, bit
//! for bit — including through the service at any worker count.
//!
//! The paper's walk requested explicitly through the policy seam
//! ([`PolicyKind::PaperWalk`]) is pinned by the golden walk fixtures
//! of `orion-bench`.

mod common;

use common::{fake_compiled, noisy};
use orion_core::compiler::{CompiledKernel, Direction, KernelVersion};
use orion_core::error::OrionError;
use orion_core::policy::{BanditConfig, PolicyKind};
use orion_core::resilient::ResiliencePolicy;
use orion_core::runtime::TuneReason;
use orion_core::session::{SessionOutcome, TuningSession};
use orion_gpusim::exec::SimError;
use orion_gpusim::faults::splitmix64;

const BASE: [u64; 6] = [120, 100, 88, 92, 105, 140];

fn faulty_run<'c>(
    ck: &'c CompiledKernel,
    seed: u64,
    transient_pm: u64,
    hang_pm: u64,
    resource_pm: u64,
) -> impl FnMut(&KernelVersion) -> Result<u64, OrionError> + 'c {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0510_c0de;
    move |v: &KernelVersion| {
        let i = ck.index_of(&v.label).unwrap();
        if splitmix64(&mut rng) % 1000 < transient_pm {
            return Err(SimError::TransientLaunchFailure { code: 0x70_0001 }.into());
        }
        if splitmix64(&mut rng) % 1000 < hang_pm {
            return Err(SimError::Watchdog { budget: 1_000_000 }.into());
        }
        if splitmix64(&mut rng) % 1000 < resource_pm {
            return Err(
                SimError::ResourceExceeded { detail: format!("injected on {}", v.label) }.into()
            );
        }
        Ok(noisy(&mut rng, BASE[i], 0.05))
    }
}

/// Drive a session under `resilience` and an explicitly requested
/// search policy.
fn drive(
    ck: &CompiledKernel,
    iterations: u32,
    resilience: ResiliencePolicy,
    kind: PolicyKind,
    run: impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
) -> Result<SessionOutcome, OrionError> {
    TuningSession::with_policy("eq", ck, iterations, 0.02, resilience, kind).drive(run)
}

/// The seed is the measurement stream's: the same noisy stream gives
/// the same outcome.
#[test]
fn bandit_policy_is_a_pure_function_of_its_seed() {
    let kind =
        PolicyKind::Bandit(BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() });
    for seed in [0u64, 1, 7, 1337, u64::MAX] {
        let run = || {
            let ck = fake_compiled(&[8, 16, 24, 32, 48], Direction::Increasing);
            drive(&ck, 30, ResiliencePolicy::PAPER, kind, faulty_run(&ck, seed ^ 0xFEED, 0, 0, 0))
                .unwrap()
        };
        assert_eq!(run(), run(), "stream seed {seed}");
    }
}

/// Chaos does not break the bandit's session invariants: every run
/// settles (or dies with the same error shape as the walk would), the
/// decision log stays coherent, and reruns are bit-identical.
#[test]
fn bandit_policy_survives_chaos_deterministically() {
    let policy = ResiliencePolicy::default();
    let kind = PolicyKind::Bandit(BanditConfig::default());
    for seed in 0..30u64 {
        let ck = fake_compiled(&[8, 16, 24, 32, 48], Direction::Increasing);
        let run = || drive(&ck, 60, policy, kind, faulty_run(&ck, seed, 80, 30, 30));
        let a = run();
        let b = run();
        assert_eq!(a, b, "seed {seed} not deterministic");
        if let Ok(out) = a {
            assert!(out.selected < ck.versions.len());
            let quarantines =
                out.decisions.iter().filter(|d| d.reason == TuneReason::Quarantined).count() as u64;
            assert_eq!(out.stats.quarantined, quarantines, "stats/log divergence: {out:?}");
        }
    }
}

/// Service-level bit-equality: a batch of bandit-policy jobs produces
/// identical outcomes on a sequential (1 worker, in-flight 1) and a
/// concurrent (4 workers, unbounded) service — the PR-7/9 determinism
/// contract extends to non-default search policies.
#[test]
fn bandit_jobs_are_bit_identical_across_worker_counts() {
    use orion_core::backend::SimBackend;
    use orion_core::compiler::TuningConfig;
    use orion_core::service::{JobPolicy, KernelJob, OrionService, ServiceConfig};
    use orion_gpusim::device::DeviceSpec;
    use orion_gpusim::exec::Launch;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::function::Module;
    use orion_kir::inst::Operand;
    use orion_kir::types::{MemSpace, SpecialReg, Width};

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

    let batch = || -> Vec<KernelJob> {
        (1..=5)
            .map(|i| KernelJob {
                name: format!("k{i}"),
                module: toy_module(i64::from(i)),
                launch: Launch { grid: 4, block: 32 },
                params: vec![0],
                global: vec![0u8; 4 * 128],
                iterations: 6 + i,
                tuning: TuningConfig::new(32),
                policy: JobPolicy {
                    // Alternate two bandit schedules across the batch.
                    search: Some(PolicyKind::Bandit(if i % 2 == 0 {
                        BanditConfig::default()
                    } else {
                        BanditConfig { confirm_pulls: 2, ..BanditConfig::default() }
                    })),
                    ..JobPolicy::default()
                },
            })
            .collect()
    };
    let mk_cfg = |workers, in_flight_limit| ServiceConfig {
        workers,
        in_flight_limit,
        ..ServiceConfig::default()
    };
    let seq = OrionService::new(SimBackend::new(DeviceSpec::gtx680()), mk_cfg(1, 1)).run(batch());
    let conc = OrionService::new(SimBackend::new(DeviceSpec::gtx680()), mk_cfg(4, 0)).run(batch());
    assert!(seq.all_ok() && conc.all_ok());
    assert_eq!(seq.kernels.len(), conc.kernels.len());
    for (a, b) in seq.kernels.iter().zip(&conc.kernels) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.disposition, b.disposition);
        assert_eq!(
            a.outcome.as_ref().unwrap(),
            b.outcome.as_ref().unwrap(),
            "kernel {} diverged between 1 and 4 workers",
            a.name
        );
    }
}
