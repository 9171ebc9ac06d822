//! Seeded job mixes. The program under test only ever sees the
//! [`KernelJob`]s built here.
//!
//! Every workload walks its mix in *passes*. A pass holds each kernel of
//! the pool once, in an order drawn from the seed. In `service-batch` a
//! pass gives about half of its kernels the bandit and the rest the
//! paper's walk, and the next pass swaps them, so each pair of passes
//! holds every kernel under both policies. A run made of whole passes (or
//! pairs) therefore measures the same job multiset whatever the seed.

use orion_core::compiler::TuningConfig;
use orion_core::policy::{BanditConfig, PolicyKind};
use orion_core::service::{JobPolicy, KernelJob};
use orion_gpusim::device::DeviceSpec;
use orion_workloads::Workload;

/// The simulated device every workload runs on (the paper's Kepler part).
pub fn device() -> DeviceSpec {
    DeviceSpec::gtx680()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client tuning one kernel at a time through `tune_one`.
    AppTune,
    /// Closed loop of `OrionService::run` batches, every session in flight.
    ServiceBatch,
    /// Closed loop of compile requests that all miss the compile cache.
    CompileCold,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::AppTune, Kind::ServiceBatch, Kind::CompileCold];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AppTune => "app-tune",
            Kind::ServiceBatch => "service-batch",
            Kind::CompileCold => "compile-cold",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// How many passes hold the workload's whole mix: a timed section
    /// runs whole groups of them.
    pub fn passes_per_mix(self) -> u64 {
        match self {
            Kind::ServiceBatch => 2,
            Kind::AppTune | Kind::CompileCold => 1,
        }
    }

    /// Whether the workload's jobs are tuned (launched) or only compiled.
    pub fn tunes(self) -> bool {
        self != Kind::CompileCold
    }
}

/// Search policy of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Search {
    Walk,
    Bandit,
}

impl Search {
    pub fn kind(self) -> PolicyKind {
        match self {
            Search::Walk => PolicyKind::PaperWalk,
            Search::Bandit => PolicyKind::Bandit(BanditConfig::default()),
        }
    }

    pub fn name(self) -> &'static str {
        self.kind().name()
    }
}

/// One drawn job: a kernel of the pool and its search policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    pub kernel: usize,
    pub search: Search,
}

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Pass `p` of workload `kind` over a pool of `pool` kernels: every kernel
/// once, in a seeded order. In `service-batch` a seeded half of the
/// kernels (rounded up) runs the bandit in even passes and the paper's
/// walk in odd ones; the other kernels do the opposite.
pub fn pass(kind: Kind, seed: u64, p: u64, pool: usize) -> Vec<JobSpec> {
    let stream = seed ^ (kind as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    // The policy draws come from a stream of their own, so they do not
    // repeat the order draws.
    let rng = |salt: u64, i: u64| {
        Rng::new((stream ^ salt).wrapping_add(i.wrapping_mul(0xE703_7ED1_A0B4_28DB)))
    };
    let mut bandit = vec![false; pool];
    if kind == Kind::ServiceBatch {
        // One draw per pair of passes.
        let mut kernels: Vec<usize> = (0..pool).collect();
        rng(0x5851_F42D_4C95_7F2D, p / 2).shuffle(&mut kernels);
        for (i, &k) in kernels.iter().enumerate() {
            bandit[k] = (i < pool.div_ceil(2)) == p.is_multiple_of(2);
        }
    }
    let mut jobs: Vec<JobSpec> = (0..pool)
        .map(|kernel| JobSpec {
            kernel,
            search: if bandit[kernel] { Search::Bandit } else { Search::Walk },
        })
        .collect();
    rng(0, p).shuffle(&mut jobs);
    jobs
}

/// The tuning configuration of a workload's kernel.
pub fn tuning(w: &Workload) -> TuningConfig {
    TuningConfig { can_tune: w.can_tune, ..TuningConfig::new(w.block) }
}

/// The job the program receives for `spec`.
pub fn kernel_job(pool: &[Workload], spec: JobSpec) -> KernelJob {
    let w = &pool[spec.kernel];
    KernelJob {
        name: w.name.to_string(),
        module: w.module.clone(),
        launch: w.launch(),
        params: w.params.clone(),
        global: w.init_global.clone(),
        iterations: w.iterations,
        tuning: tuning(w),
        policy: JobPolicy { search: Some(spec.search.kind()), ..JobPolicy::default() },
    }
}

/// The kernel pool: every workload of the suite, or the named subset.
pub fn pool(only: Option<&[String]>) -> Vec<Workload> {
    let all = orion_workloads::all_workloads();
    match only {
        None => all,
        Some(names) => all.into_iter().filter(|w| names.iter().any(|n| n == w.name)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pair_of_service_passes_holds_every_kernel_under_both_policies() {
        let a = pass(Kind::ServiceBatch, 7, 0, 13);
        assert_eq!(a, pass(Kind::ServiceBatch, 7, 0, 13));
        assert_ne!(a, pass(Kind::ServiceBatch, 8, 0, 13));
        let b = pass(Kind::ServiceBatch, 7, 1, 13);
        assert_eq!(a.iter().filter(|j| j.search == Search::Bandit).count(), 7);
        for search in [Search::Walk, Search::Bandit] {
            let mut ks: Vec<usize> =
                a.iter().chain(&b).filter(|j| j.search == search).map(|j| j.kernel).collect();
            ks.sort_unstable();
            assert_eq!(ks, (0..13).collect::<Vec<_>>());
        }
    }
}
