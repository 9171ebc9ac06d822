//! Property-style robustness tests for the runtime tuner: across a
//! sweep of RNG seeds, ±5% injected timing noise must not destabilize
//! convergence, and a quarantined version must never be finalized.

mod common;

use common::{fake_compiled, noisy};
use orion_core::compiler::{Direction, KernelVersion};
use orion_core::policy::{Measurement, Policy, PolicyVerdict};
use orion_core::resilient::ResiliencePolicy;
use orion_core::session::TuningSession;
use orion_gpusim::faults::splitmix64;

/// ±5% timing noise across 50 seeds: the resilient walk (median-of-3
/// with outlier rejection) must always land within 5% of the true-best
/// version's time. The bell-shaped profile has a 4% runner-up gap, so
/// a single noisy sample could flip a naive comparison.
#[test]
fn convergence_is_stable_under_5pct_noise() {
    let ck = fake_compiled(&[8, 16, 24, 32, 48], Direction::Increasing);
    let base = [120u64, 100, 88, 92, 105];
    let best = *base.iter().min().unwrap() as f64;
    let policy = ResiliencePolicy::default();
    for seed in 0..50u64 {
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
        let out = TuningSession::new("noisy", &ck, 60, 0.02, policy)
            .drive(|v| {
                let i = ck.index_of(&v.label).unwrap();
                Ok(noisy(&mut rng, base[i], 0.05))
            })
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let picked = base[out.selected] as f64;
        assert!(
            picked / best - 1.0 <= 0.05,
            "seed {seed}: picked version {} ({picked} cycles) is more than 5% off best {best}",
            out.selected
        );
    }
}

/// Across 50 seeds with a randomly chosen version quarantined at a
/// random point of the walk, the tuner must never finalize (or keep
/// running) the quarantined version.
#[test]
fn never_finalizes_a_quarantined_version() {
    let ck = fake_compiled(&[8, 16, 24, 32, 48], Direction::Increasing);
    // One entry per version, including the trailing fail-safe: a
    // fallback after quarantining a finalized pick selects index 5.
    let base = [120u64, 100, 88, 92, 105, 140];
    for seed in 0..50u64 {
        let mut rng = seed ^ 0x5eed;
        let victim = (splitmix64(&mut rng) % 5) as usize;
        let kill_at = splitmix64(&mut rng) % 8;
        let mut tuner = Policy::walk(&ck, 0.02);
        for step in 0..40u64 {
            if step == kill_at {
                tuner.quarantine(victim);
            }
            let Some(v) = tuner.propose() else { break };
            if step >= kill_at {
                assert_ne!(v, victim, "seed {seed}: selected the quarantined version");
            }
            tuner.observe(v, Measurement::raw(noisy(&mut rng, base[v], 0.05)));
        }
        if let PolicyVerdict::Finalized(f) = tuner.verdict() {
            assert_ne!(f, victim, "seed {seed}: finalized the quarantined version");
        }
        assert!(tuner.is_quarantined(victim));
    }
}

/// Zero noise must reproduce the plain tuner's pick exactly — the
/// robust measurement path is a no-op on clean data.
#[test]
fn noise_free_resilient_walk_matches_plain_tuner() {
    let ck = fake_compiled(&[8, 16, 24, 32, 48], Direction::Increasing);
    let base = [120u64, 100, 88, 92, 105];
    let idx = |v: &KernelVersion| ck.index_of(&v.label).unwrap();
    let plain = TuningSession::simple(&ck, 60, 0.02).drive(|v| Ok(base[idx(v)])).unwrap();
    let policy = ResiliencePolicy::default();
    let resilient =
        TuningSession::new("clean", &ck, 60, 0.02, policy).drive(|v| Ok(base[idx(v)])).unwrap();
    assert_eq!(plain.selected, resilient.selected);
}
