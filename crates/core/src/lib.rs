//! # orion-core — the Orion GPU occupancy-tuning framework
//!
//! Reproduction of *Orion: A Framework for GPU Occupancy Tuning*
//! (Hayes, Li, Chavarría, Song, Zhang — Middleware 2016), running on the
//! `orion-gpusim` simulated device instead of real GPUs.
//!
//! Orion works in two stages:
//!
//! 1. **Compile-time tuning** ([`compiler`], Figure 8): decide the
//!    tuning direction from the *max-live* metric, realize candidate
//!    occupancy levels through on-chip memory allocation
//!    (`orion-alloc`), and emit ≤ 5 kernel versions. Beside
//!    [`compiler::compile`] sit the nvcc-like original it starts from
//!    ([`compiler::original`], the experiments' baseline) and the
//!    exhaustive occupancy sweep ([`compiler::sweep`]).
//! 2. **Runtime adaptation** ([`session`], Figure 9): walk the
//!    candidates across application iterations, finalizing the best (or
//!    the lowest occupancy within 2% of the best when tuning downward,
//!    which saves registers and energy). Applications without an
//!    iteration loop get the static selection; [`splitting`] holds the
//!    §3.4 grid slicing that the search lattice's split arms
//!    ([`version::CandidateSpace`]) measure with.
//!
//! The runtime walk is one typed state machine,
//! [`session::TuningSession`], executed on a pluggable
//! [`backend::Backend`] (the `orion-gpusim` simulator, or a scripted
//! [`backend::ReplayBackend`] for tests). [`backend::SimBackend::run`]
//! is the one way to simulate a [`compiler::KernelVersion`]: it applies
//! the version's padding and L1/shared split to every launch. Whole applications — many
//! kernels, one device — go through [`service::OrionService`], which
//! runs one session per kernel on worker threads that each own whole
//! jobs, sharing one compile cache and telemetry stream:
//!
//! ```
//! use orion_core::backend::SimBackend;
//! use orion_core::compiler::TuningConfig;
//! use orion_core::service::{JobPolicy, KernelJob, OrionService, ServiceConfig};
//! use orion_gpusim::device::DeviceSpec;
//! use orion_gpusim::exec::Launch;
//! use orion_kir::builder::FunctionBuilder;
//! use orion_kir::function::Module;
//! use orion_kir::inst::Operand;
//! use orion_kir::types::{MemSpace, SpecialReg, Width};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy kernel: out[gid] = in[gid] * gid.
//! let mut b = FunctionBuilder::kernel("scale");
//! let tid = b.mov(Operand::Special(SpecialReg::TidX));
//! let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
//! let nt = b.mov(Operand::Special(SpecialReg::NTidX));
//! let gid = b.imad(cta, nt, tid);
//! let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
//! let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
//! let y = b.imul(x, gid);
//! b.st(MemSpace::Global, Width::W32, addr, y, 0);
//! let module = Module::new(b.finish());
//!
//! // Tune it (and any sibling kernels) as one service batch. The
//! // simulator is noise-free, so the paper's exact fault-free walk
//! // (`policy: None`) converges in a handful of iterations; keep the
//! // default resilient policy for noisy or fault-injected backends.
//! let service = OrionService::new(
//!     SimBackend::new(DeviceSpec::gtx680()),
//!     ServiceConfig { policy: None, ..ServiceConfig::default() },
//! );
//! let report = service.run(vec![KernelJob {
//!     name: "scale".into(),
//!     module,
//!     launch: Launch { grid: 8, block: 64 },
//!     params: vec![0],
//!     global: vec![0u8; 4 * 512],
//!     iterations: 6,
//!     tuning: TuningConfig::new(64),
//!     policy: JobPolicy::default(),
//! }]);
//! assert!(report.all_ok());
//! let outcome = report.kernels[0].outcome.as_ref().unwrap();
//! assert_eq!(outcome.iterations.len(), 6);
//! # Ok(())
//! # }
//! ```
//!
//! Single kernels drive a [`session::TuningSession`] directly: with a
//! launch closure ([`session::TuningSession::drive`]), or through the
//! pull-based `next_step()` / `on_launch_result()` loop. Either way the
//! result is a [`session::SessionOutcome`], pinned by the golden walk
//! fixtures of `orion-bench`.

pub mod backend;
pub mod budget;
pub mod cache;
pub mod compiler;
pub mod error;
pub mod policy;
pub mod resilient;
pub mod runtime;
pub mod service;
pub mod session;
pub mod splitting;
#[cfg(test)]
mod testutil;
pub mod version;

pub use backend::{
    AsyncBackend, Backend, BackendCaps, Completion, LaunchRequest, ReplayBackend, SimBackend,
    TicketId,
};
pub use cache::{allocate_cached, CompileCacheStats, FingerprintedModule};
pub use compiler::{compile, CompiledKernel, Direction, KernelVersion, TuningConfig};
pub use error::{ErrorContext, OrionError};
pub use policy::{
    analytic_bound, BanditConfig, BanditPolicy, BoundCtx, Measurement, Policy, PolicyKind,
    PolicyVerdict,
};
pub use resilient::{robust_measure, ResiliencePolicy, ResilienceStats, RobustMeasure};
pub use runtime::{TuneDecision, TuneReason};
pub use service::{
    JobDisposition, JobPolicy, KernelJob, KernelReport, OrionService, ServiceConfig, ServiceReport,
};
pub use session::{SessionOutcome, SessionState, SessionStep, TuningSession};
pub use version::{CandidateSpace, VersionBuilder};
