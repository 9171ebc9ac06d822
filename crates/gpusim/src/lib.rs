//! # orion-gpusim — an event-driven, cycle-approximate GPU simulator
//!
//! The hardware substrate for the Orion occupancy-tuning reproduction
//! (Hayes et al., *Middleware 2016*). It executes the machine code
//! produced by `orion-alloc` with value-accurate semantics while
//! modeling the mechanisms occupancy interacts with:
//!
//! * warp scheduling with per-slot scoreboards (latency hiding grows
//!   with resident warps);
//! * set-associative L1/L2 caches (more warps thrash them);
//! * a bandwidth-limited DRAM channel share (saturates under load);
//! * shared-memory bank conflicts and private-slot access costs;
//! * SIMT divergence via immediate-post-dominator reconvergence;
//! * barriers, device-function calls, and compressible-stack moves;
//! * the NVIDIA occupancy calculator ([`mod@occupancy`]) and device
//!   descriptors for the paper's GTX680 and Tesla C2075;
//! * a power/energy model attributing register-file leakage to
//!   occupancy ([`power`]).
//!
//! ```
//! use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
//! use orion_gpusim::device::DeviceSpec;
//! use orion_gpusim::exec::Launch;
//! use orion_gpusim::sim::run_launch;
//! use orion_kir::builder::FunctionBuilder;
//! use orion_kir::function::Module;
//! use orion_kir::inst::Operand;
//! use orion_kir::types::{MemSpace, SpecialReg, Width};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::kernel("inc");
//! let tid = b.mov(Operand::Special(SpecialReg::TidX));
//! let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
//! let nt = b.mov(Operand::Special(SpecialReg::NTidX));
//! let gid = b.imad(cta, nt, tid);
//! let a = b.imad(gid, Operand::Imm(4), Operand::Param(0));
//! let x = b.ld(MemSpace::Global, Width::W32, a, 0);
//! let y = b.iadd(x, Operand::Imm(1));
//! b.st(MemSpace::Global, Width::W32, a, y, 0);
//! let module = Module::new(b.finish());
//!
//! let binary = allocate(&module, SlotBudget { reg_slots: 16, smem_slots: 0 },
//!                       &AllocOptions::default())?;
//! let dev = DeviceSpec::gtx680();
//! let mut global = vec![0u8; 4 * 64];
//! let result = run_launch(&dev, &binary.machine, Launch { grid: 2, block: 32 },
//!                         &[0], &mut global)?;
//! assert!(result.cycles > 0);
//! assert_eq!(global[0], 1);
//! # Ok(())
//! # }
//! ```

pub mod cache;
mod decode;
pub mod device;
pub mod exec;
pub mod faults;
mod lanes;
pub mod memory;
pub mod occupancy;
pub mod power;
pub mod sim;

pub use device::{CacheConfig, DeviceSpec};
pub use exec::{Launch, SimError, SimStats, StallStats};
pub use faults::{FaultInjector, FaultPlan, FaultSnapshot, LaunchFaults};
pub use occupancy::{occupancy, KernelResources, Limiter, OccupancyInfo};
pub use power::{energy, EnergyReport, PowerModel};
pub use sim::{
    run_launch, run_launch_opts, DerivedMetrics, LaunchOptions, RunResult, SmSummary,
    DEFAULT_CYCLE_BUDGET,
};
