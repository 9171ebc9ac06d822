//! Pruning-soundness property test (ISSUE 10 satellite).
//!
//! [`orion_core::policy::BanditPolicy`] pre-prunes arms whose
//! [`orion_core::policy::analytic_bound`] exceeds the best bound by
//! more than [`BanditConfig::prune_slack_pct`] — those arms are never
//! launched. That is only sound if, across realistic device/workload
//! instances, the arm an exhaustive sweep would pick always survives
//! the cut: the bound may be loose, but the *winner* must never sit
//! beyond the slack.
//!
//! This property test sweeps ≥ 50 pseudo-random instances (device ×
//! block shape × grid × register pressure), measures every arm of the
//! enumerated candidate space exhaustively on the simulator, and
//! asserts the measured winner is inside the default prune window.

use orion_core::compiler::{compile, TuningConfig};
use orion_core::policy::{analytic_bound, BanditConfig, BoundCtx};
use orion_core::version::CandidateSpace;
use orion_core::SimBackend;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::faults::splitmix64;
use orion_gpusim::sim::LaunchOptions;
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::types::{MemSpace, SpecialReg, Width};

/// A kernel whose register pressure scales with `live` — same shape the
/// facade tests use, so the allocator produces a multi-level space.
fn kernel(live: usize) -> Module {
    let mut b = FunctionBuilder::kernel("k");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let vals: Vec<_> = (0..live).map(|k| b.fmul(x, Operand::Imm(k as i64))).collect();
    let mut acc = b.mov_f32(0.0);
    for v in vals {
        acc = b.fadd(acc, v);
    }
    b.st(MemSpace::Global, Width::W32, addr, acc, 0);
    Module::new(b.finish())
}

#[test]
fn analytic_bound_never_prunes_the_exhaustive_winner() {
    let slack = u128::from(BanditConfig::default().prune_slack_pct);
    let mut rng = 0x0B0_0575_u64;
    let mut instances = 0u32;
    while instances < 50 {
        let dev = if splitmix64(&mut rng).is_multiple_of(2) {
            DeviceSpec::gtx680()
        } else {
            DeviceSpec::c2075()
        };
        let block = [32u32, 64, 128][(splitmix64(&mut rng) % 3) as usize];
        let grid = (splitmix64(&mut rng) % 24 + 2) as u32;
        let live = (splitmix64(&mut rng) % 36 + 4) as usize;
        let module = kernel(live);
        let Ok(ck) = compile(&module, &dev, &TuningConfig::new(block)) else { continue };
        // Grids of at most 25 blocks never pass `can_split` on either
        // device, so the space is the occupancy × cache lattice alone:
        // the split axis only re-measures the same work in slices.
        let Ok(space) = CandidateSpace::enumerate(&dev, block, &module, ck.direction, grid) else {
            continue;
        };
        let versions = &space.kernel.versions;
        if versions.len() < 2 {
            continue;
        }
        instances += 1;

        let launch = Launch { grid, block };
        let ctx = BoundCtx::new(block, grid, dev.num_sms, dev.warp_size);
        let bounds: Vec<u64> = versions.iter().map(|v| analytic_bound(v, &ctx)).collect();
        let backend = SimBackend::new(dev.clone());
        let measured: Vec<u64> = versions
            .iter()
            .map(|v| {
                let mut global = vec![0u8; 4 * (grid as usize) * (block as usize)];
                backend
                    .run(v, launch, &[0], &mut global, LaunchOptions::default())
                    .unwrap_or_else(|e| panic!("version {} failed: {e}", v.label))
                    .cycles
            })
            .collect();

        let winner =
            (0..versions.len()).min_by_key(|&i| (measured[i], i)).expect("non-empty space");
        let best_bound = u128::from(*bounds.iter().min().expect("non-empty bounds"));
        let limit = u64::try_from(best_bound * (100 + slack) / 100).unwrap_or(u64::MAX);
        assert!(
            bounds[winner] <= limit,
            "instance {instances} ({} sms, block {block}, grid {grid}, live {live}): \
             exhaustive winner `{}` (measured {} cycles) has bound {} > prune limit {} \
             (best bound {best_bound}, slack {slack}%) — pruning would drop the true best arm.\n\
             bounds: {bounds:?}\nmeasured: {measured:?}",
            dev.num_sms,
            versions[winner].label,
            measured[winner],
            bounds[winner],
            limit,
        );
    }
}
