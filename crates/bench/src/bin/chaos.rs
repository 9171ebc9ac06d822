//! Chaos bench: sweep seeded fault rates across three workloads and
//! check the resilient tuner still converges near the fault-free pick.
//! Writes `BENCH_chaos.json`.

use orion_gpusim::device::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fig = orion_bench::chaos::chaos_figure(&DeviceSpec::c2075())?;
    orion_bench::emit(&fig)?;
    Ok(())
}
