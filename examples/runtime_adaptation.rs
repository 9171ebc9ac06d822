//! Watch the Figure 9 dynamic tuner at work: iteration-by-iteration
//! version selection on a real benchmark's application loop.
//!
//! ```sh
//! cargo run --release --example runtime_adaptation -- srad
//! ```

use orion::core::orion::Orion;
use orion::core::policy::{Measurement, Policy, PolicyVerdict};
use orion::gpusim::device::DeviceSpec;
use orion::gpusim::sim::{run_launch_opts, LaunchOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("srad");
    let w = orion::workloads::by_name(name).ok_or("unknown workload")?;
    let dev = match std::env::args().nth(2).as_deref() {
        Some("gtx680") => DeviceSpec::gtx680(),
        _ => DeviceSpec::c2075(),
    };
    let mut orion = Orion::new(dev.clone(), w.block);
    orion.cfg.can_tune = w.can_tune;

    let compiled = orion.compile(&w.module)?;
    println!(
        "{}: direction {:?}, {} candidates, max-live {}",
        w.name,
        compiled.direction,
        compiled.num_candidates(),
        compiled.max_live
    );

    let mut walk = Policy::walk(&compiled, 0.02);
    let mut global = w.init_global.clone();
    for iter in 0..w.iterations {
        let vidx = walk.select();
        let v = &compiled.versions[vidx];
        let r = run_launch_opts(
            &dev,
            &v.machine,
            w.launch(),
            w.params_for(iter),
            &mut global,
            v.launch_options(LaunchOptions::default()),
        )?;
        let status = match walk.verdict() {
            PolicyVerdict::Finalized(_) => "steady",
            _ => "tuning",
        };
        println!(
            "iter {:>2}: ran {:<14} (occ {:>5.2})  {:>9} cycles  [{status}]",
            iter, v.label, v.occupancy, r.cycles
        );
        walk.observe(vidx, Measurement::raw(r.cycles));
    }
    let sel = &compiled.versions[walk.select()];
    println!(
        "\nfinal: {} at occupancy {:.2} using {} regs/thread ({} trials)",
        sel.label,
        sel.occupancy,
        sel.machine.regs_per_thread,
        walk.trials()
    );
    Ok(())
}
