//! Occupancy targets → per-thread on-chip slot budgets.
//!
//! Equation 1 inverted: a target number of resident warps implies a
//! register budget per thread (through the occupancy calculator's
//! rounding) and a private shared-memory slot budget (what is left of
//! the SM's shared memory after the user's arrays, divided over the
//! resident threads).

use orion_alloc::realize::SlotBudget;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::occupancy::{max_regs_for_warps, occupancy, KernelResources};

/// Cap on allocator-added private shared-memory slots per thread; more
/// than this never helps (the compressible stack rarely exceeds the
/// register file) and keeps shared memory available for occupancy.
pub const MAX_PRIVATE_SMEM_SLOTS: u16 = 32;

/// The slot budget that realizes `target_warps` resident warps for a
/// kernel with `user_smem` bytes of declared shared memory per block,
/// or `None` when the target is unachievable.
pub fn budget_for_warps(
    dev: &DeviceSpec,
    block: u32,
    user_smem: u32,
    target_warps: u32,
) -> Option<SlotBudget> {
    let warps_per_block = block.div_ceil(dev.warp_size);
    let blocks = (target_warps / warps_per_block.max(1)).max(1);
    // Shared memory left per thread at this residency.
    let smem_per_block_budget = dev.smem_per_sm() / blocks;
    if smem_per_block_budget < user_smem {
        return None;
    }
    let spare = smem_per_block_budget - user_smem;
    let smem_slots = ((spare / 4) / block.max(1)).min(u32::from(MAX_PRIVATE_SMEM_SLOTS)) as u16;
    // Registers: the most per thread that still sustains the target,
    // accounting for the smem we intend to use.
    let smem_used = user_smem + u32::from(smem_slots) * 4 * block;
    let reg_slots = max_regs_for_warps(dev, target_warps, block, smem_used)?;
    Some(SlotBudget { reg_slots, smem_slots })
}

/// Extra per-block shared-memory padding that caps residency at
/// `target_warps` for a binary with the given resources — the paper's
/// recompilation-free downward-tuning mechanism. Returns `None` if the
/// binary already runs at or below the target.
pub fn smem_padding_for_warps(
    dev: &DeviceSpec,
    res: &KernelResources,
    target_warps: u32,
) -> Option<u32> {
    let cur = occupancy(dev, res);
    if cur.active_warps <= target_warps {
        return None;
    }
    let warps_per_block = res.block_size.div_ceil(dev.warp_size);
    let target_blocks = (target_warps / warps_per_block.max(1)).max(1);
    // Need floor(smem_per_sm / (smem_per_block + pad)) <= target_blocks,
    // i.e. per-block demand strictly above smem_per_sm / (target + 1).
    let needed_per_block = dev.smem_per_sm() / (target_blocks + 1) + 1;
    Some(needed_per_block.saturating_sub(res.smem_per_block).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_tracks_target() {
        let dev = DeviceSpec::gtx680();
        // Full occupancy: 32 regs/thread on GTX680.
        let b = budget_for_warps(&dev, 256, 0, 64).unwrap();
        assert_eq!(b.reg_slots, 32);
        assert!(b.smem_slots > 0);
        // Half occupancy allows the hardware max.
        let b = budget_for_warps(&dev, 256, 0, 32).unwrap();
        assert_eq!(b.reg_slots, 63);
    }

    #[test]
    fn user_smem_reduces_slot_budget() {
        let dev = DeviceSpec::c2075();
        let without = budget_for_warps(&dev, 256, 0, 24).unwrap();
        let with = budget_for_warps(&dev, 256, 16 * 1024, 24).unwrap();
        assert!(with.smem_slots < without.smem_slots);
    }

    #[test]
    fn impossible_targets_rejected() {
        let dev = DeviceSpec::c2075();
        assert!(budget_for_warps(&dev, 256, 0, 49).is_none(), "over hw max");
        // User smem so large the blocks needed can never fit.
        assert!(budget_for_warps(&dev, 256, 47 * 1024, 48).is_none());
    }

    #[test]
    fn padding_caps_occupancy() {
        let dev = DeviceSpec::c2075();
        let res = KernelResources { regs_per_thread: 16, smem_per_block: 0, block_size: 192 };
        let full = occupancy(&dev, &res);
        assert_eq!(full.active_warps, 48);
        let pad = smem_padding_for_warps(&dev, &res, 24).unwrap();
        let padded = KernelResources { smem_per_block: pad, ..res };
        let after = occupancy(&dev, &padded);
        assert!(after.active_warps <= 24, "{}", after.active_warps);
        assert!(after.active_warps >= 18, "not too far below target");
    }

    #[test]
    fn padding_never_admits_extra_blocks() {
        // Exhaustive check of the rounding: the padded footprint must
        // cap residency at (or below) the target for every combination.
        let dev = DeviceSpec::c2075();
        for target_blocks in 1..8u32 {
            for user in [0u32, 512, 4096, 12288] {
                let res =
                    KernelResources { regs_per_thread: 8, smem_per_block: user, block_size: 192 };
                let target = target_blocks * 6;
                if let Some(pad) = smem_padding_for_warps(&dev, &res, target) {
                    let after =
                        occupancy(&dev, &KernelResources { smem_per_block: user + pad, ..res });
                    assert!(
                        after.active_blocks <= target_blocks,
                        "target {target_blocks} user {user}: got {}",
                        after.active_blocks
                    );
                }
            }
        }
    }

    #[test]
    fn padding_none_when_already_below() {
        let dev = DeviceSpec::c2075();
        let res = KernelResources { regs_per_thread: 63, smem_per_block: 0, block_size: 256 };
        let cur = occupancy(&dev, &res).active_warps;
        assert!(smem_padding_for_warps(&dev, &res, cur).is_none());
    }
}
