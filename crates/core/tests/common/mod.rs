//! Synthetic candidate sets and timing noise shared by the policy
//! integration tests: versions that are only indexed and labelled,
//! never launched.

use orion_alloc::realize::AllocReport;
use orion_core::compiler::{CompiledKernel, Direction, KernelVersion};
use orion_gpusim::faults::splitmix64;
use orion_kir::mir::MModule;
use orion_kir::types::FuncId;

pub fn fake_version(warps: u32, fail_safe: bool) -> KernelVersion {
    KernelVersion {
        machine: MModule {
            funcs: vec![],
            entry: FuncId(0),
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            user_smem_bytes: 0,
            static_stack_moves: 0,
        },
        target_warps: warps,
        achieved_warps: warps,
        occupancy: f64::from(warps) / 48.0,
        extra_smem: 0,
        cache_config: None,
        report: AllocReport {
            kernel_max_live: 0,
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            static_moves: 0,
            per_func: vec![],
        },
        fail_safe,
        label: format!("occ={warps}{}", if fail_safe { "-fs" } else { "" }),
    }
}

pub fn fake_compiled(warp_levels: &[u32], direction: Direction) -> CompiledKernel {
    let mut versions: Vec<KernelVersion> =
        warp_levels.iter().map(|&w| fake_version(w, false)).collect();
    versions.push(fake_version(4, true));
    CompiledKernel {
        tuning_order: (0..warp_levels.len()).collect(),
        versions,
        direction,
        original: 0,
        max_live: 40,
    }
}

/// A multiplicative noise factor in `[1 - amp, 1 + amp)`.
pub fn noisy(state: &mut u64, base: u64, amp: f64) -> u64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
    let factor = 1.0 + (u * 2.0 - 1.0) * amp;
    ((base as f64 * factor) as u64).max(1)
}
