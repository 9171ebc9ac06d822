//! The Orion reproduction's benchmark: three closed-loop workloads driven
//! through the program's public entry points, end-to-end metrics from an
//! untraced run, and per-layer metrics from a traced one. See README.md.

pub mod check;
pub mod host;
pub mod layers;
pub mod mix;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
