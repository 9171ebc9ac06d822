//! Fan-out edge cases of the per-SM write tracking: engines mark the
//! 64-byte chunks their global stores touch, and the fan-out diffs and
//! resets only those. Each case must give the same outcome and memory at
//! parallelism 1, 2 and 8.
//!
//! The serial engine's own results on hand-built kernels are pinned by
//! the golden launch fixtures in `orion-bench`.

use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_gpusim::SimError;
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::mir::MModule;
use orion_kir::types::{MemSpace, SpecialReg, Width};

fn compile(m: &Module, regs: u16, smem: u16) -> MModule {
    allocate(m, SlotBudget { reg_slots: regs, smem_slots: smem }, &AllocOptions::default())
        .unwrap()
        .machine
}

const GRID: u32 = 16;
const BLOCK: u32 = 64;
const THREADS: usize = (GRID * BLOCK) as usize;

/// `out[idx[gid]] = val[gid]` at `width`, with `idx` at `Param(0)`,
/// `val` at `Param(1)` and `out` at `Param(2)`. With `restore`, each
/// thread first reads the old `out` value and stores it back after
/// its own store, so the slot ends with its pristine value.
fn scatter_kernel(width: Width, restore: bool) -> Module {
    let bytes = width.bytes() as i32;
    let mut b = FunctionBuilder::kernel("scatter");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let idx_addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let idx = b.ld(MemSpace::Global, Width::W32, idx_addr, 0);
    let val_addr = b.imad(gid, Operand::Imm(bytes.into()), Operand::Param(1));
    let val = b.ld(MemSpace::Global, width, val_addr, 0);
    let out = b.imad(idx, Operand::Imm(bytes.into()), Operand::Param(2));
    if restore {
        let old = b.ld(MemSpace::Global, width, out, 0);
        b.st(MemSpace::Global, width, out, val, 0);
        b.st(MemSpace::Global, width, out, old, 0);
    } else {
        b.st(MemSpace::Global, width, out, val, 0);
    }
    Module::new(b.finish())
}

/// `out[gid] = val[idx[gid]]` (32-bit), with the same parameters as
/// [`scatter_kernel`].
fn gather_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("gather");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let idx_addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let idx = b.ld(MemSpace::Global, Width::W32, idx_addr, 0);
    let val_addr = b.imad(idx, Operand::Imm(4), Operand::Param(1));
    let val = b.ld(MemSpace::Global, Width::W32, val_addr, 0);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(2));
    b.st(MemSpace::Global, Width::W32, out, val, 0);
    Module::new(b.finish())
}

/// A pseudo-random byte pattern with no zero bytes.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i + (seed << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 | 1)
        .collect()
}

fn put_u32s(mem: &mut [u8], at: usize, words: impl IntoIterator<Item = u32>) {
    for (k, w) in words.into_iter().enumerate() {
        mem[at + 4 * k..at + 4 * k + 4].copy_from_slice(&w.to_le_bytes());
    }
}

/// Run from `init` at parallelism 1, 2 and 8; every run must match the
/// serial one, which is returned.
fn assert_fanout_identical(
    machine: &MModule,
    params: &[u32],
    init: &[u8],
) -> (Result<RunResult, SimError>, Vec<u8>) {
    let dev = DeviceSpec::gtx680();
    assert_eq!(dev.num_sms, 8);
    let launch = Launch { grid: GRID, block: BLOCK };
    let run = |parallelism: u32| {
        let mut g = init.to_vec();
        let opts = LaunchOptions { parallelism, ..LaunchOptions::default() };
        (run_launch_opts(&dev, machine, launch, params, &mut g, opts), g)
    };
    let (serial, serial_global) = run(1);
    for parallelism in [2u32, 8] {
        let (r, g) = run(parallelism);
        assert_eq!(r, serial, "parallelism={parallelism}: outcome");
        assert_eq!(g, serial_global, "parallelism={parallelism}: memory");
    }
    (serial, serial_global)
}

#[test]
fn w128_stores_straddling_chunk_boundaries() {
    let machine = compile(&scatter_kernel(Width::W128, false), 16, 0);
    // Thread t stores 16 bytes at `out + 128 t` with `out ≡ 56 (mod
    // 64)`: bytes 56..64 of one chunk and 0..8 of the next, a chunk
    // no other store touches.
    let (idx, val, out) = (0usize, 4096usize, 20536usize);
    let mut init = pattern(3, out + 128 * THREADS);
    put_u32s(&mut init, idx, (0..THREADS as u32).map(|t| 8 * t));
    let (r, g) = assert_fanout_identical(&machine, &[idx as u32, val as u32, out as u32], &init);
    r.expect("in-bounds launch");
    let mut want = init.clone();
    for t in 0..THREADS {
        want[out + 128 * t..][..16].copy_from_slice(&init[val + 16 * t..][..16]);
    }
    assert!(g == want, "every store landed, and nothing else changed");
}

#[test]
fn stores_that_write_back_the_pristine_value() {
    // Every thread stores a new value and then the slot's old one,
    // so its chunks are dirty but end pristine.
    let (idx, val, out) = (0usize, 4096usize, 8192usize);
    let mut init = pattern(5, out + 4 * THREADS);
    put_u32s(&mut init, idx, 0..THREADS as u32);
    let params = [idx as u32, val as u32, out as u32];
    let restore = compile(&scatter_kernel(Width::W32, true), 16, 0);
    let (r, g) = assert_fanout_identical(&restore, &params, &init);
    r.expect("in-bounds launch");
    assert!(g == init, "every slot was restored to its pristine value");
    // Half the threads store the slot's own value; the other half
    // change it. Pristine and changed words interleave in each chunk.
    for i in (0..THREADS).step_by(2) {
        let (v, o) = (val + 4 * i, out + 4 * i);
        let word: [u8; 4] = init[o..o + 4].try_into().unwrap();
        init[v..v + 4].copy_from_slice(&word);
    }
    let plain = compile(&scatter_kernel(Width::W32, false), 16, 0);
    let (r, g) = assert_fanout_identical(&plain, &params, &init);
    r.expect("in-bounds launch");
    assert!(g[out..] == init[val..val + 4 * THREADS], "every store landed");
    assert!(g != init, "the odd threads changed memory");
}

#[test]
fn out_of_bounds_store_mid_launch_on_a_later_sm() {
    // Block b runs on SM b % 8. Lane 7 of warp 1 in block 13 (SM 5's
    // second block) and lane 3 of block 15 (SM 7) store far out of
    // bounds, each to its own address; every other thread stores in
    // bounds.
    let machine = compile(&scatter_kernel(Width::W32, false), 16, 0);
    let (idx, val, out) = (0usize, 4096usize, 8192usize);
    let far = 0x1000_0000u32;
    let bad = |i: usize| {
        if i == 13 * BLOCK as usize + 32 + 7 {
            Some(far)
        } else if i == 15 * BLOCK as usize + 3 {
            Some(0x1400_0000)
        } else {
            None
        }
    };
    let mut init = pattern(9, out + 4 * THREADS);
    put_u32s(&mut init, idx, (0..THREADS).map(|i| bad(i).unwrap_or(i as u32)));
    let (r, g) = assert_fanout_identical(&machine, &[idx as u32, val as u32, out as u32], &init);
    assert_eq!(
        r.unwrap_err(),
        SimError::OutOfBounds { space: MemSpace::Global, addr: u64::from(far) * 4 + out as u64 },
        "the lowest SM's error wins"
    );
    let landed = |t: usize| g[out + 4 * t..out + 4 * t + 4] == init[val + 4 * t..val + 4 * t + 4];
    for t in 0..THREADS {
        let block = t / BLOCK as usize;
        let sm = block % 8;
        if sm < 5 {
            assert!(landed(t), "thread {t}: SMs before the failing one finish");
        } else if sm > 5 {
            assert!(!landed(t), "thread {t}: SMs after the failing one leave no trace");
        }
    }
    let failing_warp = 13 * BLOCK as usize + 32;
    assert!(
        (failing_warp..failing_warp + 7).all(landed),
        "the failing store's lanes below the faulting one landed"
    );
}

#[test]
fn out_of_bounds_load_reports_the_lowest_faulting_lane() {
    // Lanes 9 and 5 of warp 0 in block 11 (SM 3) load out of bounds,
    // lane 9 from the lower address. The warp-wide 32-bit load must
    // report lane 5, the lowest faulting lane.
    let machine = compile(&gather_kernel(), 16, 0);
    let (idx, val, out) = (0usize, 4096usize, 8192usize);
    let first = 11 * BLOCK as usize;
    let bad = |t: usize| match t - first {
        5 => Some(0x1800_0000u32),
        9 => Some(0x1000_0000u32),
        _ => None,
    };
    let mut init = pattern(11, out + 4 * THREADS);
    put_u32s(
        &mut init,
        idx,
        (0..THREADS).map(|t| if t >= first { bad(t) } else { None }.unwrap_or(t as u32)),
    );
    let (r, _) = assert_fanout_identical(&machine, &[idx as u32, val as u32, out as u32], &init);
    assert_eq!(
        r.unwrap_err(),
        SimError::OutOfBounds { space: MemSpace::Global, addr: 0x1800_0000 * 4 + val as u64 }
    );
}
