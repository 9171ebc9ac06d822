//! Deterministic, seedable fault injection for the simulator.
//!
//! The paper's runtime adaptation (§3.4, Figure 9) assumes every kernel
//! invocation launches successfully and every timing sample is
//! noise-free. Real drivers are not so kind: launches fail transiently,
//! device resources shrink under contention, kernels hang, and timers
//! jitter. A [`FaultInjector`] draws exactly those failure modes as a
//! [`LaunchFaults`] per launch; [`crate::sim::run_launch_opts`] applies
//! the draw it finds in [`crate::sim::LaunchOptions::faults`], so the
//! resilient runtime (`orion-core`) can be exercised — and
//! regression-tested — under chaos.
//!
//! # Gating
//!
//! Injection is always compiled in and gated at run time only: a launch
//! injects nothing unless its caller puts a drawn [`LaunchFaults`] into
//! its options. The default, [`LaunchFaults::NONE`], leaves the launch
//! exact, so callers that never draw never pay for chaos.
//!
//! # Determinism
//!
//! Every fault decision is a pure function of `(plan.seed, launch
//! index)` via [`splitmix64`], so a chaos run replays bit-identically
//! for a given plan regardless of scheduling: the injector's only
//! mutable state is a monotone launch counter and the fault tally.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Multiplier applied to outlier measurements ([`LaunchFaults::outlier`]).
pub const OUTLIER_SCALE: f64 = 8.0;

/// Fault rates and magnitudes for one chaos scenario. All rates are
/// probabilities in `[0, 1]` applied independently per launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-launch fault stream.
    pub seed: u64,
    /// Probability a launch fails with a retryable
    /// [`crate::exec::SimError::TransientLaunchFailure`].
    pub transient_rate: f64,
    /// Probability the launch sees a perturbed device (half the register
    /// file and shared memory). If the kernel no longer fits, the launch
    /// fails with [`crate::exec::SimError::ResourceExceeded`]; if it
    /// still fits, the fault is absorbed silently — exactly like a real
    /// driver under transient resource contention.
    pub resource_rate: f64,
    /// Half-width of the uniform multiplicative timing jitter applied to
    /// the reported cycle count, as a fraction (`0.05` = ±5%). The
    /// simulation itself is untouched: only the *measurement* is noisy,
    /// modeling timer noise on real hardware.
    pub jitter_frac: f64,
    /// Probability a measurement is a gross outlier (scaled by
    /// [`OUTLIER_SCALE`]) — a context switch or ECC scrub landing
    /// mid-measurement.
    pub outlier_rate: f64,
    /// Probability a launch hangs: one warp never becomes ready and the
    /// launch only terminates via the simulator watchdog
    /// ([`crate::exec::SimError::Watchdog`]).
    pub hang_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a control arm).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            resource_rate: 0.0,
            jitter_frac: 0.0,
            outlier_rate: 0.0,
            hang_rate: 0.0,
        }
    }

    /// Whether this plan can ever inject anything.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.transient_rate <= 0.0
            && self.resource_rate <= 0.0
            && self.jitter_frac <= 0.0
            && self.outlier_rate <= 0.0
            && self.hang_rate <= 0.0
    }

    /// The chaos-bench scenario: `rate` transient failures, `rate / 4`
    /// resource and hang faults, ±`jitter_frac` timing jitter and a 2%
    /// outlier rate.
    pub fn chaos(seed: u64, rate: f64, jitter_frac: f64) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate,
            resource_rate: rate / 4.0,
            jitter_frac,
            outlier_rate: if jitter_frac > 0.0 { 0.02 } else { 0.0 },
            hang_rate: rate / 4.0,
        }
    }
}

/// Fault decisions for one launch, carried to the simulator in
/// [`crate::sim::LaunchOptions::faults`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchFaults {
    /// Fail the launch with a transient error before simulating.
    pub transient: bool,
    /// Perturb the device spec (may or may not surface as an error).
    pub resource: bool,
    /// Wedge one warp so the watchdog trips.
    pub hang: bool,
    /// Signed measurement perturbation in parts-per-million applied to
    /// the reported cycles (`0` = exact).
    pub jitter_ppm: i64,
    /// Scale the measurement by [`OUTLIER_SCALE`].
    pub outlier: bool,
}

impl LaunchFaults {
    /// No faults: the launch runs and measures exactly.
    pub const NONE: LaunchFaults = LaunchFaults {
        transient: false,
        resource: false,
        hang: false,
        jitter_ppm: 0,
        outlier: false,
    };

    /// Apply the measurement-side faults to a cycle count. A draw with
    /// neither jitter nor an outlier leaves the count exact.
    #[must_use]
    pub fn perturb_cycles(&self, cycles: u64) -> u64 {
        if self.jitter_ppm == 0 && !self.outlier {
            return cycles;
        }
        let mut c = cycles as i128;
        if self.jitter_ppm != 0 {
            c += c * i128::from(self.jitter_ppm) / 1_000_000;
        }
        if self.outlier {
            c = (c as f64 * OUTLIER_SCALE) as i128;
        }
        u64::try_from(c.max(1)).unwrap_or(u64::MAX)
    }
}

/// Monotone tally of injected faults, for reconciliation against
/// telemetry counters and `BENCH_chaos.json`.
#[derive(Debug, Default)]
pub struct FaultStats {
    pub launches: AtomicU64,
    pub transient: AtomicU64,
    pub resource: AtomicU64,
    pub jitter: AtomicU64,
    pub outliers: AtomicU64,
    pub hangs: AtomicU64,
}

/// A plain-value snapshot of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSnapshot {
    pub launches: u64,
    pub transient: u64,
    pub resource: u64,
    pub jitter: u64,
    pub outliers: u64,
    pub hangs: u64,
}

impl FaultSnapshot {
    /// Total injected faults of any kind (jitter excluded — every launch
    /// with a nonzero jitter plan jitters).
    pub fn total_faults(&self) -> u64 {
        self.transient + self.resource + self.outliers + self.hangs
    }
}

/// The per-run fault source: a [`FaultPlan`] plus the launch counter and
/// tally. Shared by reference across launches; interior mutability keeps
/// drawing `&self`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    next_launch: AtomicU64,
    stats: FaultStats,
}

/// splitmix64 — tiny, seedable, and statistically fine for fault draws.
/// The one stream every fault decision in the workspace is drawn from.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a [`splitmix64`] stream.
#[inline]
pub fn unit(state: &mut u64) -> f64 {
    // 53 random mantissa bits.
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, next_launch: AtomicU64::new(0), stats: FaultStats::default() }
    }

    /// Draw the fault decisions for the next launch. Deterministic in
    /// `(plan.seed, launch index)`.
    pub fn draw(&self) -> LaunchFaults {
        let idx = self.next_launch.fetch_add(1, Ordering::Relaxed);
        self.stats.launches.fetch_add(1, Ordering::Relaxed);
        // Decorrelate the per-launch stream from the seed stream.
        let mut s = self.plan.seed ^ idx.wrapping_mul(0xd134_2543_de82_ef95);
        let _ = splitmix64(&mut s); // burn one to mix the xor in
        let mut f = LaunchFaults::NONE;
        if unit(&mut s) < self.plan.transient_rate {
            f.transient = true;
        }
        if unit(&mut s) < self.plan.resource_rate {
            f.resource = true;
        }
        if unit(&mut s) < self.plan.hang_rate {
            f.hang = true;
        }
        if self.plan.jitter_frac > 0.0 {
            let u = unit(&mut s) * 2.0 - 1.0; // [-1, 1)
            f.jitter_ppm = (u * self.plan.jitter_frac * 1e6) as i64;
        }
        if unit(&mut s) < self.plan.outlier_rate {
            f.outlier = true;
        }
        // A launch that fails before running never produces a
        // measurement, so measurement faults are tallied only when the
        // launch can reach one. Tally launch faults in precedence order
        // (transient masks the rest, matching the order the launch path
        // applies them).
        let tally = |kind: &'static str| orion_telemetry::counter("faults", kind, 1);
        if f.transient {
            self.stats.transient.fetch_add(1, Ordering::Relaxed);
            tally("transient");
            f.resource = false;
            f.hang = false;
            f.jitter_ppm = 0;
            f.outlier = false;
        } else {
            if f.resource {
                self.stats.resource.fetch_add(1, Ordering::Relaxed);
                tally("resource");
            }
            if f.hang {
                self.stats.hangs.fetch_add(1, Ordering::Relaxed);
                tally("hang");
                f.jitter_ppm = 0;
                f.outlier = false;
            } else {
                if f.jitter_ppm != 0 {
                    self.stats.jitter.fetch_add(1, Ordering::Relaxed);
                    tally("jitter");
                }
                if f.outlier {
                    self.stats.outliers.fetch_add(1, Ordering::Relaxed);
                    tally("outlier");
                }
            }
        }
        f
    }

    /// Snapshot the tally.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            launches: self.stats.launches.load(Ordering::Relaxed),
            transient: self.stats.transient.load(Ordering::Relaxed),
            resource: self.stats.resource.load(Ordering::Relaxed),
            jitter: self.stats.jitter.load(Ordering::Relaxed),
            outliers: self.stats.outliers.load(Ordering::Relaxed),
            hangs: self.stats.hangs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_or_zero_plan_draws_nothing() {
        let inj = FaultInjector::new(FaultPlan::none(7));
        for _ in 0..64 {
            assert_eq!(inj.draw(), LaunchFaults::NONE);
        }
        let s = inj.snapshot();
        assert_eq!(s.total_faults(), 0);
        assert_eq!(s.jitter, 0);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let plan = FaultPlan::chaos(42, 0.2, 0.05);
        let a: Vec<LaunchFaults> = {
            let inj = FaultInjector::new(plan);
            (0..256).map(|_| inj.draw()).collect()
        };
        let b: Vec<LaunchFaults> = {
            let inj = FaultInjector::new(plan);
            (0..256).map(|_| inj.draw()).collect()
        };
        assert_eq!(a, b);
        let other = FaultInjector::new(FaultPlan::chaos(43, 0.2, 0.05));
        let c: Vec<LaunchFaults> = (0..256).map(|_| other.draw()).collect();
        assert_ne!(a, c, "different seeds must give different streams");
    }

    #[test]
    fn rates_are_approximately_respected() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 9,
            transient_rate: 0.1,
            resource_rate: 0.0,
            jitter_frac: 0.0,
            outlier_rate: 0.0,
            hang_rate: 0.0,
        });
        let n = 10_000;
        let hits = (0..n).filter(|_| inj.draw().transient).count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.1).abs() < 0.02, "measured {rate}");
        assert_eq!(inj.snapshot().transient, hits as u64);
    }

    #[test]
    fn jitter_stays_in_band_and_perturbs_cycles() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 3,
            transient_rate: 0.0,
            resource_rate: 0.0,
            jitter_frac: 0.05,
            outlier_rate: 0.0,
            hang_rate: 0.0,
        });
        for _ in 0..512 {
            let f = inj.draw();
            assert!(f.jitter_ppm.abs() <= 50_000, "{}", f.jitter_ppm);
            let c = f.perturb_cycles(1_000_000);
            assert!((950_000..=1_050_000).contains(&c), "{c}");
        }
    }
}
