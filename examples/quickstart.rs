//! Five-minute tour: build a kernel, compile its candidates
//! (`compiler::compile`), let the Figure 9 walk pick its occupancy over
//! `SimBackend::run` launches, and compare with the nvcc-like original
//! (`compiler::original`) on the simulated GTX680.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use orion::core::backend::SimBackend;
use orion::core::compiler::{compile, original, TuningConfig};
use orion::core::session::TuningSession;
use orion::gpusim::device::DeviceSpec;
use orion::gpusim::exec::Launch;
use orion::gpusim::sim::LaunchOptions;
use orion::kir::builder::FunctionBuilder;
use orion::kir::function::Module;
use orion::kir::inst::Operand;
use orion::kir::types::{MemSpace, SpecialReg, Width};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Build a kernel in the IR ------------------------------------
    // A register-hungry streaming kernel: out[gid] = Σ_k ck * in[gid].
    let mut b = FunctionBuilder::kernel("weighted_sum");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let terms: Vec<_> = (1..=40)
        .map(|k| {
            let c = b.mov_f32(k as f32 * 0.25);
            b.fmul(x, c)
        })
        .collect();
    let mut acc = b.mov_f32(0.0);
    for t in terms {
        acc = b.fadd(acc, t);
    }
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, acc, 0);
    let module = Module::new(b.finish());

    // --- 2. Compile with Orion (Figure 8) -------------------------------
    let dev = DeviceSpec::gtx680();
    let compiled = compile(&module, &dev, &TuningConfig::new(256))?;
    println!("max-live           : {} words", compiled.max_live);
    println!("tuning direction   : {:?}", compiled.direction);
    println!("candidate versions : {}", compiled.num_candidates());
    for v in &compiled.versions {
        println!(
            "  {:<16} occ {:>5.2}  regs {:>2}  smem-slots {:>2}",
            v.label, v.occupancy, v.machine.regs_per_thread, v.machine.smem_slots_per_thread,
        );
    }

    // --- 3. Tune at runtime (Figure 9) ----------------------------------
    let backend = SimBackend::new(dev.clone());
    let n: u32 = 64 * 256;
    let launch = Launch { grid: 64, block: 256 };
    let (params, opts) = ([0, 4 * n], LaunchOptions::default());
    let mut global = vec![0u8; (8 * n) as usize];
    let outcome = TuningSession::simple(&compiled, 8, 0.02)
        .drive(|v| Ok(backend.run(v, launch, &params, &mut global, opts)?.cycles))?;
    let sel = &compiled.versions[outcome.selected];
    println!(
        "\nselected after {} trials: {} (occupancy {:.2})",
        outcome.converged_after, sel.label, sel.occupancy
    );

    // --- 4. Compare with the nvcc-like baseline -------------------------
    let baseline = original(&module, &dev, 256)?;
    let mut g1 = vec![0u8; (8 * n) as usize];
    let sel_cycles = backend.run(sel, launch, &params, &mut g1, opts)?.cycles;
    let mut g2 = vec![0u8; (8 * n) as usize];
    let nvcc_cycles = backend.run(&baseline, launch, &params, &mut g2, opts)?.cycles;
    assert_eq!(g1, g2, "same results regardless of occupancy");
    println!(
        "orion {} cycles vs nvcc {} cycles -> speedup {:.2}x",
        sel_cycles,
        nvcc_cycles,
        nvcc_cycles as f64 / sel_cycles as f64
    );
    Ok(())
}
