//! Inspect the compressible stack (§3.2): how inter-procedural
//! allocation lays out frames, and what the Figure 5 ablations
//! (no space minimization / no data-movement minimization) cost. Each
//! configuration is a raw allocation, so it runs on the simulator
//! directly (`sim::run_launch`), with no version settings to apply.
//!
//! ```sh
//! cargo run --release --example interproc_stack -- cfd
//! ```

use orion::alloc::realize::{allocate, AllocOptions, SlotBudget};
use orion::gpusim::device::DeviceSpec;
use orion::gpusim::sim::run_launch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("cfd");
    let w = orion::workloads::by_name(name).ok_or("unknown workload")?;
    let dev = DeviceSpec::c2075();
    println!("{}: {} static call sites", w.name, w.module.static_call_count());

    let budget = SlotBudget { reg_slots: 32, smem_slots: 16 };
    let configs = [
        (
            "full (space + movement min)",
            AllocOptions { compress_stack: true, optimize_layout: true },
        ),
        ("no movement minimization", AllocOptions { compress_stack: true, optimize_layout: false }),
        ("no space minimization", AllocOptions { compress_stack: false, optimize_layout: false }),
    ];
    println!(
        "\n{:<30} {:>6} {:>6} {:>7} {:>12}",
        "configuration", "regs", "local", "moves", "cycles"
    );
    for (label, opts) in configs {
        let alloc = allocate(&w.module, budget, &opts)?;
        // Frame layout of each function.
        if opts.compress_stack && opts.optimize_layout {
            for f in &alloc.report.per_func {
                println!(
                    "  frame {:<24} base {:>3}  size {:>3}  spilled {:>2}  predicted moves {}",
                    f.name, f.base, f.frame_size, f.spilled_webs, f.predicted_moves
                );
            }
        }
        let mut global = w.init_global.clone();
        let r = run_launch(&dev, &alloc.machine, w.launch(), &w.params, &mut global)?;
        println!(
            "{:<30} {:>6} {:>6} {:>7} {:>12}",
            label,
            alloc.machine.regs_per_thread,
            alloc.machine.local_slots_per_thread,
            alloc.machine.static_stack_moves,
            r.cycles
        );
    }
    Ok(())
}
