//! # orion — GPU occupancy tuning on a simulated device
//!
//! Facade crate for the reproduction of *Orion: A Framework for GPU
//! Occupancy Tuning* (Hayes, Li, Chavarría, Song, Zhang — Middleware
//! 2016). It re-exports the workspace crates:
//!
//! * [`kir`] — the SASS-like kernel IR, analyses, and the reference
//!   interpreter;
//! * [`alloc`] — on-chip memory allocation: Figure 4 coloring, the
//!   compressible stack, and Kuhn-Munkres layout optimization;
//! * [`gpusim`] — the event-driven GPU simulator (GTX680 and Tesla
//!   C2075 device models, occupancy calculator, power model);
//! * [`core`] — the Orion framework: compile-time tuning (Figure 8) and
//!   runtime adaptation (Figure 9);
//! * [`workloads`] — the paper's twelve benchmarks plus `matrixMul`,
//!   rebuilt with their Table 2 characteristics;
//! * [`telemetry`] — timing only: wall-clock spans over the allocator's
//!   passes and each launch, per-SM simulator timelines in GPU cycles,
//!   a per-lane critical-path view, and exporters to Chrome
//!   `trace_event` JSON and flat metrics reports.
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology and results.

pub use orion_alloc as alloc;
pub use orion_core as core;
pub use orion_gpusim as gpusim;
pub use orion_kir as kir;
pub use orion_telemetry as telemetry;
pub use orion_workloads as workloads;
