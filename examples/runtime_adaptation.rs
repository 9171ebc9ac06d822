//! Watch the Figure 9 dynamic tuner at work: iteration-by-iteration
//! version selection on a real benchmark's application loop (one
//! memory image, each iteration's parameters, `SimBackend::run`).
//!
//! ```sh
//! cargo run --release --example runtime_adaptation -- srad
//! ```

use orion::core::backend::SimBackend;
use orion::core::compiler::{compile, TuningConfig};
use orion::core::policy::{Measurement, Policy, PolicyVerdict};
use orion::gpusim::device::DeviceSpec;
use orion::gpusim::sim::LaunchOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("srad");
    let w = orion::workloads::by_name(name).ok_or("unknown workload")?;
    let dev = match std::env::args().nth(2).as_deref() {
        Some("gtx680") => DeviceSpec::gtx680(),
        _ => DeviceSpec::c2075(),
    };
    let cfg = TuningConfig { can_tune: w.can_tune, ..TuningConfig::new(w.block) };
    let compiled = compile(&w.module, &dev, &cfg)?;
    println!(
        "{}: direction {:?}, {} candidates, max-live {}",
        w.name,
        compiled.direction,
        compiled.num_candidates(),
        compiled.max_live
    );

    let backend = SimBackend::new(dev);
    let mut walk = Policy::walk(&compiled, 0.02);
    let mut global = w.init_global.clone();
    for iter in 0..w.iterations {
        let vidx = walk.select();
        let v = &compiled.versions[vidx];
        let params = w.params_for(iter);
        let r = backend.run(v, w.launch(), params, &mut global, LaunchOptions::default())?;
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
