//! Synthetic candidate sets for unit tests: versions that are only
//! indexed and labelled, never launched.

use crate::compiler::{CompiledKernel, Direction, KernelVersion};
use orion_alloc::realize::AllocReport;
use orion_kir::mir::MModule;
use orion_kir::types::FuncId;

/// A version at `warps` resident warps with no machine code.
pub(crate) fn fake_version(warps: u32, fail_safe: bool) -> KernelVersion {
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
        label: if fail_safe { "fail-safe".into() } else { format!("occ={warps}") },
    }
}

/// Candidates at `warp_levels`, tuned in list order from the first.
pub(crate) fn fake_compiled(warp_levels: &[u32], direction: Direction) -> CompiledKernel {
    CompiledKernel {
        versions: warp_levels.iter().map(|&w| fake_version(w, false)).collect(),
        direction,
        original: 0,
        max_live: 40,
        tuning_order: (0..warp_levels.len()).collect(),
    }
}

/// [`fake_compiled`] plus a trailing fail-safe version outside the
/// tuning order.
pub(crate) fn fake_compiled_with_fail_safe(
    warp_levels: &[u32],
    direction: Direction,
) -> CompiledKernel {
    let mut ck = fake_compiled(warp_levels, direction);
    ck.versions.push(fake_version(4, true));
    ck
}
