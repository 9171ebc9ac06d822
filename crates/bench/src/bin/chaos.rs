//! Chaos bench: sweep seeded fault rates across three workloads and
//! record how close the resilient tuner lands to the fault-free pick.
//! Writes `BENCH_chaos.json`; `tests/chaos.rs` gates the same sweep.

use orion_gpusim::device::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sweep = orion_bench::chaos::chaos_sweep(&DeviceSpec::c2075())?;
    orion_bench::emit(&sweep.figure())?;
    Ok(())
}
