//! Equivalence suite: [`orion_core::session::TuningSession::drive`],
//! in simple and resilient mode, is pinned **bit-equal** (every field
//! the frozen loops report, decision logs, stats and errors included)
//! to the frozen closure loops preserved in
//! [`orion_core::reference`], across clean, noisy, and fault-injected
//! closures, both tuning directions, and the degenerate shapes (zero
//! iterations, single candidate, every candidate dead).
//!
//! The closures are deterministic functions of a seed, so the reference
//! and live runs see the *same* measurement stream if and only if they
//! issue the same sequence of launches — which is exactly the property
//! being pinned.

use orion_alloc::realize::AllocReport;
use orion_core::compiler::{CompiledKernel, Direction, KernelVersion};
use orion_core::error::OrionError;
use orion_core::reference::{self, ResilientWalkOutcome, WalkOutcome};
use orion_core::resilient::ResiliencePolicy;
use orion_core::session::TuningSession;
use orion_gpusim::exec::SimError;
use orion_kir::mir::MModule;
use orion_kir::types::FuncId;

fn fake_version(warps: u32, fail_safe: bool) -> KernelVersion {
    KernelVersion {
        machine: MModule {
            funcs: vec![],
            entry: FuncId(0),
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            user_smem_bytes: 0,
            static_stack_moves: 0,
        },
        target_warps: warps,
        achieved_warps: warps,
        occupancy: f64::from(warps) / 48.0,
        extra_smem: 0,
        report: AllocReport {
            kernel_max_live: 0,
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            static_moves: 0,
            per_func: vec![],
        },
        fail_safe,
        label: format!("occ={warps}{}", if fail_safe { "-fs" } else { "" }),
    }
}

fn fake_compiled(warp_levels: &[u32], direction: Direction) -> CompiledKernel {
    let mut versions: Vec<KernelVersion> =
        warp_levels.iter().map(|&w| fake_version(w, false)).collect();
    versions.push(fake_version(4, true));
    CompiledKernel {
        tuning_order: (0..warp_levels.len()).collect(),
        versions,
        direction,
        original: 0,
        max_live: 40,
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A multiplicative noise factor in `[1 - amp, 1 + amp)`.
fn noisy(state: &mut u64, base: u64, amp: f64) -> u64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
    let factor = 1.0 + (u * 2.0 - 1.0) * amp;
    ((base as f64 * factor) as u64).max(1)
}

/// Deterministic per-version base times: a bell-ish profile keyed off
/// the version index so every candidate is distinct and the direction
/// of improvement depends on the profile, not the index order.
const BASE: [u64; 6] = [120, 100, 88, 92, 105, 140];

/// A seeded measurement closure: per-mille fault rates drawn *before*
/// the timing draw so the RNG stream is identical for both loops.
///
/// `transient`, `hang`, `resource` are drawn independently in that
/// order; a surviving draw returns ±5% noisy cycles.
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

/// The live fault-free walk, in the oracle's terms.
fn live_walk(
    ck: &CompiledKernel,
    iterations: u32,
    run: impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
) -> Result<WalkOutcome, OrionError> {
    TuningSession::simple(ck, iterations, 0.02).drive(run).map(WalkOutcome::from)
}

/// The live resilient walk, in the oracle's terms.
fn live_resilient(
    kernel: &str,
    ck: &CompiledKernel,
    iterations: u32,
    policy: &ResiliencePolicy,
    run: impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
) -> Result<ResilientWalkOutcome, OrionError> {
    TuningSession::resilient(kernel, ck, iterations, 0.02, *policy)
        .drive(run)
        .map(ResilientWalkOutcome::from)
}

const DIRECTIONS: [Direction; 2] = [Direction::Increasing, Direction::Decreasing];

#[test]
fn plain_loop_is_bit_identical_to_reference_on_clean_runs() {
    for dir in DIRECTIONS {
        for iterations in [0u32, 1, 3, 10, 40] {
            let ck = fake_compiled(&[8, 16, 24, 32, 48], dir);
            let idx = |v: &KernelVersion| ck.index_of(&v.label).unwrap();
            let live = live_walk(&ck, iterations, |v| Ok(BASE[idx(v)])).unwrap();
            let oracle =
                reference::tune_loop::<std::convert::Infallible>(&ck, iterations, 0.02, |v| {
                    Ok(BASE[idx(v)])
                })
                .unwrap();
            assert_eq!(live, oracle, "dir {dir:?}, {iterations} iterations");
        }
    }
}

#[test]
fn plain_loop_is_bit_identical_to_reference_under_noise() {
    for dir in DIRECTIONS {
        for seed in 0..40u64 {
            let ck = fake_compiled(&[8, 16, 24, 32, 48], dir);
            let idx = |v: &KernelVersion| ck.index_of(&v.label).unwrap();
            let mut rng_a = seed ^ 0xab5e;
            let live = live_walk(&ck, 30, |v| Ok(noisy(&mut rng_a, BASE[idx(v)], 0.05))).unwrap();
            let mut rng_b = seed ^ 0xab5e;
            let oracle = reference::tune_loop::<std::convert::Infallible>(&ck, 30, 0.02, |v| {
                Ok(noisy(&mut rng_b, BASE[idx(v)], 0.05))
            })
            .unwrap();
            assert_eq!(live, oracle, "dir {dir:?}, seed {seed}");
        }
    }
}

#[test]
fn plain_loop_propagates_the_same_error_at_the_same_point() {
    let ck = fake_compiled(&[8, 16, 24, 32], Direction::Increasing);
    let fail_at = 4u32;
    let run = |calls: &mut u32, v: &KernelVersion| -> Result<u64, OrionError> {
        *calls += 1;
        if *calls > fail_at {
            return Err(SimError::Deadlock.into());
        }
        Ok(BASE[ck.index_of(&v.label).unwrap()])
    };
    let mut a = 0;
    let live = live_walk(&ck, 20, |v| run(&mut a, v));
    let mut b = 0;
    let oracle = reference::tune_loop(&ck, 20, 0.02, |v| run(&mut b, v));
    assert_eq!(live.unwrap_err(), oracle.unwrap_err());
    assert_eq!(a, b, "both loops issued the same number of launches before the error");
}

#[test]
fn resilient_loop_is_bit_identical_to_reference_on_clean_runs() {
    let policy = ResiliencePolicy::default();
    for dir in DIRECTIONS {
        for iterations in [0u32, 1, 5, 25, 80] {
            let ck = fake_compiled(&[8, 16, 24, 32, 48], dir);
            let idx = |v: &KernelVersion| ck.index_of(&v.label).unwrap();
            let live =
                live_resilient("eq", &ck, iterations, &policy, |v| Ok(BASE[idx(v)])).unwrap();
            let oracle =
                reference::resilient_tune_loop("eq", &ck, iterations, 0.02, &policy, |v| {
                    Ok(BASE[idx(v)])
                })
                .unwrap();
            assert_eq!(live, oracle, "dir {dir:?}, {iterations} iterations");
        }
    }
}

#[test]
fn resilient_loop_is_bit_identical_to_reference_under_noise() {
    let policy = ResiliencePolicy::default();
    for dir in DIRECTIONS {
        for seed in 0..40u64 {
            let ck = fake_compiled(&[8, 16, 24, 32, 48], dir);
            let live =
                live_resilient("eq", &ck, 60, &policy, faulty_run(&ck, seed, 0, 0, 0)).unwrap();
            let oracle = reference::resilient_tune_loop(
                "eq",
                &ck,
                60,
                0.02,
                &policy,
                faulty_run(&ck, seed, 0, 0, 0),
            )
            .unwrap();
            assert_eq!(live, oracle, "dir {dir:?}, seed {seed}");
        }
    }
}

/// The full gauntlet: transient launch failures (retried with backoff),
/// hangs and resource exhaustion (strikes → quarantine), and ±5% timing
/// noise, across both directions and many seeds. Every field of the
/// outcome — selection, per-iteration trace, decision log, stats —
/// must match the frozen loop bit for bit; when a run dies, the error
/// must match too.
#[test]
fn resilient_loop_is_bit_identical_to_reference_under_faults() {
    let policy = ResiliencePolicy::default();
    for dir in DIRECTIONS {
        for seed in 0..60u64 {
            let ck = fake_compiled(&[8, 16, 24, 32, 48], dir);
            let live = live_resilient("eq", &ck, 60, &policy, faulty_run(&ck, seed, 80, 30, 30));
            let oracle = reference::resilient_tune_loop(
                "eq",
                &ck,
                60,
                0.02,
                &policy,
                faulty_run(&ck, seed, 80, 30, 30),
            );
            assert_eq!(live, oracle, "dir {dir:?}, seed {seed}");
        }
    }
}

/// Saturating fault pressure: every seed quarantines candidates; some
/// runs lose every version. Ok and Err outcomes alike must be
/// bit-identical, including the `AllCandidatesFailed` context chain.
#[test]
fn resilient_loop_matches_reference_when_candidates_die() {
    let policy = ResiliencePolicy::default();
    let mut died = 0u32;
    for seed in 0..40u64 {
        let ck = fake_compiled(&[8, 16, 24], Direction::Increasing);
        let live = live_resilient("storm", &ck, 40, &policy, faulty_run(&ck, seed, 100, 300, 300));
        let oracle = reference::resilient_tune_loop(
            "storm",
            &ck,
            40,
            0.02,
            &policy,
            faulty_run(&ck, seed, 100, 300, 300),
        );
        assert_eq!(live, oracle, "seed {seed}");
        if live.is_err() {
            died += 1;
        }
    }
    assert!(died > 0, "the storm rates must kill at least one run for this test to bite");
}

#[test]
fn single_candidate_kernels_match() {
    let policy = ResiliencePolicy::default();
    for dir in DIRECTIONS {
        let ck = fake_compiled(&[16], dir);
        let idx = |v: &KernelVersion| ck.index_of(&v.label).unwrap();
        let live = live_walk(&ck, 12, |v| Ok(BASE[idx(v)])).unwrap();
        let oracle =
            reference::tune_loop::<std::convert::Infallible>(&ck, 12, 0.02, |v| Ok(BASE[idx(v)]))
                .unwrap();
        assert_eq!(live, oracle, "plain, dir {dir:?}");
        for seed in 0..10u64 {
            let live = live_resilient("solo", &ck, 12, &policy, faulty_run(&ck, seed, 50, 20, 20));
            let oracle = reference::resilient_tune_loop(
                "solo",
                &ck,
                12,
                0.02,
                &policy,
                faulty_run(&ck, seed, 50, 20, 20),
            );
            assert_eq!(live, oracle, "resilient, dir {dir:?}, seed {seed}");
        }
    }
}

/// Non-default policies exercise different retry/strike/sampling
/// geometry; the equivalence must be policy-independent.
#[test]
fn resilient_loop_matches_reference_across_policies() {
    let policies = [
        ResiliencePolicy { max_retries: 0, ..ResiliencePolicy::default() },
        ResiliencePolicy { quarantine_strikes: 1, ..ResiliencePolicy::default() },
        ResiliencePolicy { samples: 1, ..ResiliencePolicy::default() },
        ResiliencePolicy { samples: 5, quarantine_strikes: 2, ..ResiliencePolicy::default() },
    ];
    for policy in &policies {
        for seed in 0..15u64 {
            let ck = fake_compiled(&[8, 16, 24, 32], Direction::Decreasing);
            let live = live_resilient("pol", &ck, 50, policy, faulty_run(&ck, seed, 60, 25, 25));
            let oracle = reference::resilient_tune_loop(
                "pol",
                &ck,
                50,
                0.02,
                policy,
                faulty_run(&ck, seed, 60, 25, 25),
            );
            assert_eq!(live, oracle, "policy {policy:?}, seed {seed}");
        }
    }
}
