//! Reproduce a Figure 1-style occupancy curve for any bundled benchmark:
//! every level of `compiler::sweep`, each launched once from fresh memory
//! through `SimBackend::run`.
//!
//! ```sh
//! cargo run --release --example occupancy_sweep -- imageDenoising gtx680
//! cargo run --release --example occupancy_sweep -- srad c2075
//! ```

use orion::core::backend::SimBackend;
use orion::core::compiler::sweep;
use orion::gpusim::device::DeviceSpec;
use orion::gpusim::sim::LaunchOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("imageDenoising");
    let dev = match args.get(2).map(String::as_str) {
        Some("c2075") => DeviceSpec::c2075(),
        _ => DeviceSpec::gtx680(),
    };
    let w = orion::workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; try one of {:?}",
            orion::workloads::all_workloads().iter().map(|w| w.name).collect::<Vec<_>>()
        )
    })?;

    println!("{} ({}) on {}", w.name, w.domain, dev.name);
    println!(
        "{:>9} {:>6} {:>5} {:>6} {:>11} {:>8}",
        "occupancy", "warps", "regs", "smem", "cycles", "norm"
    );

    let versions = sweep(&w.module, &dev, w.block)?;
    let backend = SimBackend::new(dev);
    let mut results = Vec::new();
    for v in &versions {
        let global = &mut w.init_global.clone();
        if let Ok(r) = backend.run(v, w.launch(), &w.params, global, LaunchOptions::default()) {
            results.push((v, r.cycles));
        }
    }
    let best = results.iter().map(|&(_, c)| c).min().unwrap_or(1);
    for (v, cycles) in &results {
        println!(
            "{:>9.3} {:>6} {:>5} {:>6} {:>11} {:>8.3}  {}",
            v.occupancy,
            v.achieved_warps,
            v.machine.regs_per_thread,
            v.machine.smem_slots_per_thread,
            cycles,
            *cycles as f64 / best as f64,
            "#".repeat(((*cycles as f64 / best as f64) * 12.0) as usize),
        );
    }
    Ok(())
}
