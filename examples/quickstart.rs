//! Five-minute tour: build a kernel, let Orion pick its occupancy, and
//! compare with the nvcc-like baseline on the simulated GTX680.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use orion::core::orion::Orion;
use orion::core::session::TuningSession;
use orion::gpusim::device::DeviceSpec;
use orion::gpusim::exec::Launch;
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
    let orion = Orion::new(dev.clone(), 256);
    let compiled = orion.compile(&module)?;
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
    let n: u32 = 64 * 256;
    let launch = Launch { grid: 64, block: 256 };
    let mut global = vec![0u8; (8 * n) as usize];
    let outcome = TuningSession::simple(&compiled, 8, 0.02)
        .drive(|v| orion.run_version(v, launch, &[0, 4 * n], &mut global).map(|r| r.cycles))?;
    let sel = &compiled.versions[outcome.selected];
    println!(
        "\nselected after {} trials: {} (occupancy {:.2})",
        outcome.converged_after, sel.label, sel.occupancy
    );

    // --- 4. Compare with the nvcc-like baseline -------------------------
    let baseline = orion.baseline(&module)?;
    let mut g1 = vec![0u8; (8 * n) as usize];
    let sel_cycles = orion.run_version(sel, launch, &[0, 4 * n], &mut g1)?.cycles;
    let mut g2 = vec![0u8; (8 * n) as usize];
    let nvcc_cycles = orion.run_version(&baseline, launch, &[0, 4 * n], &mut g2)?.cycles;
    assert_eq!(g1, g2, "same results regardless of occupancy");
    println!(
        "orion {} cycles vs nvcc {} cycles -> speedup {:.2}x",
        sel_cycles,
        nvcc_cycles,
        nvcc_cycles as f64 / sel_cycles as f64
    );
    Ok(())
}
