//! # orion-bench — experiment harness for the Orion reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/`), all built
//! on the shared [`experiment`] engine: occupancy sweeps, Orion
//! compile+tune runs, the nvcc-like baseline
//! ([`orion_core::compiler::original`]), ablations, and energy
//! accounting. Every compiled version runs through
//! [`orion_core::backend::SimBackend::run`]; every tuning run over a
//! workload's application loop (experiments, chaos sweep, search
//! ablation, golden walks) is one [`app::App`]. `cargo run --release -p orion-bench --bin all_experiments`
//! regenerates every result, rewrites `EXPERIMENTS.md`, and drops a
//! `BENCH_<slug>.json` artifact per figure with the structured numbers.
//!
//! The `profile` binary is a profiler CLI: it runs one workload with
//! telemetry enabled and exports a Chrome `trace_event` timeline
//! (`--trace`) and a flat metrics report (`--metrics`).

pub mod app;
pub mod chaos;
pub mod error;
pub mod experiment;
pub mod figures;
pub mod golden;
pub mod report;
pub mod search;

pub use app::{compile_workload, App};
pub use chaos::{chaos_run, chaos_sweep, ChaosRow, ChaosSummary, ChaosSweep};
pub use error::BenchError;
pub use experiment::{orion_select, sweep_curve, CurvePoint, ExperimentError, SelectOutcome};
pub use figures::Figure;

/// Print a figure's text to stdout and write its `BENCH_<slug>.json`
/// artifact to the current directory — the shared tail of every
/// per-figure binary.
///
/// # Errors
/// [`BenchError`] naming the artifact path (write failure) or the
/// document (serialization failure), with the underlying error chained.
pub fn emit(fig: &Figure) -> Result<(), BenchError> {
    print!("{fig}");
    let path = format!("BENCH_{}.json", fig.slug);
    error::write_file("bench artifact", &path, &fig.artifact_json()?)?;
    eprintln!("wrote {path}");
    Ok(())
}
