//! Scheduler-, layout-, and fan-out-equivalence regressions.
//!
//! The engine defines one scheduling total order — issue the runnable
//! warp minimizing `(ready_cycle, warp_id)` lexicographically — and two
//! implementations of it (the reference linear scan, whose strict
//! `r < br` comparison keeps the first index on ties, and the event
//! heap keyed on exactly that pair). Orthogonally it defines two
//! lane-state memory layouts — the reference array-of-structs and the
//! pooled structure-of-arrays arenas — that execute the same predecoded
//! program. These tests pin that every (scheduler, layout, parallelism)
//! configuration is bit-identical: same cycles, same stall buckets,
//! same per-SM rollups, same global memory bytes, same error variant at
//! the same cycle.

use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_gpusim::{LaneLayout, Scheduler};
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::{Cmp, Operand};
use orion_kir::mir::MModule;
use orion_kir::types::{MemSpace, PredReg, SpecialReg, Width};

fn compile(m: &Module, regs: u16, smem: u16) -> MModule {
    allocate(m, SlotBudget { reg_slots: regs, smem_slots: smem }, &AllocOptions::default())
        .unwrap()
        .machine
}

/// out[gid] = f(in[gid]) with dependent FMAs (latency-bound warps whose
/// ready times interleave — plenty of scheduling ties to resolve).
fn streaming_kernel(flops: usize) -> Module {
    let mut b = FunctionBuilder::kernel("stream");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let mut acc = x;
    for _ in 0..flops {
        acc = b.ffma(acc, x, Operand::Imm(0x3f80_0000));
    }
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, acc, 0);
    Module::new(b.finish())
}

/// Shared-memory exchange across a barrier (exercises barrier release,
/// where a whole CTA's warps re-enter the ready queue at once).
fn barrier_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("barrier");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let saddr = b.imul(tid, Operand::Imm(4));
    b.st(MemSpace::Shared, Width::W32, saddr, tid, 0);
    b.bar();
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let last = b.isub(nt, Operand::Imm(1));
    let ridx = b.isub(last, tid);
    let raddr = b.imul(ridx, Operand::Imm(4));
    let v = b.ld(MemSpace::Shared, Width::W32, raddr, 0);
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let gid = b.imad(cta, nt, tid);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    b.st(MemSpace::Global, Width::W32, out, v, 0);
    let mut m = Module::new(b.finish());
    m.user_smem_bytes = 4 * 128;
    m
}

/// Full-warp divergent branch with unbalanced arms: odd/even lanes take
/// different paths (3x+1 vs x/2), reconverging at the join — exercises
/// the SIMT stack and the packed-predicate branch evaluation.
fn divergent_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("diverge");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let bit = b.and(x, Operand::Imm(1));
    b.isetp(Cmp::Ne, bit, Operand::Imm(0), PredReg(0));
    let odd = b.new_block();
    let even = b.new_block();
    let join = b.new_block();
    b.branch(PredReg(0), false, odd, even);
    b.switch_to(odd);
    let three = b.imad(x, Operand::Imm(3), Operand::Imm(1));
    b.jump(join);
    b.switch_to(even);
    let half = b.shr(x, Operand::Imm(1));
    b.jump(join);
    b.switch_to(join);
    let res = b.sel(PredReg(0), three, half);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, res, 0);
    b.exit();
    Module::new(b.finish())
}

/// Worst-case shared-memory banking: every lane of a warp hits the same
/// bank at a distinct word (`word = lane*32 + warp`), a 32-way conflict
/// on store and load — exercises the conflict-degree serialization and
/// its issue-cost clamp. Words are distinct per thread, so there are no
/// cross-warp write races to make the result order-dependent.
fn bank_conflict_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("conflict");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let lane = b.mov(Operand::Special(SpecialReg::LaneId));
    let warp = b.mov(Operand::Special(SpecialReg::WarpId));
    let word = b.imad(lane, Operand::Imm(32), warp);
    let saddr = b.imul(word, Operand::Imm(4));
    b.st(MemSpace::Shared, Width::W32, saddr, tid, 0);
    b.bar();
    let v = b.ld(MemSpace::Shared, Width::W32, saddr, 0);
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    b.st(MemSpace::Global, Width::W32, out, v, 0);
    let mut m = Module::new(b.finish());
    m.user_smem_bytes = 4 * 32 * 32;
    m
}

fn run_with(
    dev: &DeviceSpec,
    machine: &MModule,
    launch: Launch,
    params: &[u32],
    bytes: usize,
    opts: LaunchOptions,
) -> (RunResult, Vec<u8>) {
    let mut global = vec![0u8; bytes];
    let r = run_launch_opts(dev, machine, launch, params, &mut global, opts).unwrap();
    (r, global)
}

/// The seed configuration every sweep compares against: the reference
/// scheduler and the reference lane layout on a single thread.
fn reference_opts() -> LaunchOptions {
    LaunchOptions {
        parallelism: 1,
        scheduler: Scheduler::LinearScan,
        layout: LaneLayout::Aos,
        ..LaunchOptions::default()
    }
}

/// Every (scheduler, layout, parallelism) combination must agree
/// bit-for-bit with the seed configuration (linear scan, AoS lanes,
/// single thread).
fn assert_all_configs_identical(
    dev: &DeviceSpec,
    machine: &MModule,
    launch: Launch,
    params: &[u32],
    bytes: usize,
) {
    let (reference, ref_global) = run_with(dev, machine, launch, params, bytes, reference_opts());
    for scheduler in [Scheduler::LinearScan, Scheduler::EventHeap] {
        for layout in [LaneLayout::Aos, LaneLayout::Soa] {
            for parallelism in [1u32, 2, 3, dev.num_sms] {
                let opts =
                    LaunchOptions { parallelism, scheduler, layout, ..LaunchOptions::default() };
                let (r, global) = run_with(dev, machine, launch, params, bytes, opts);
                assert_eq!(
                    r, reference,
                    "{scheduler:?}/{layout:?}/parallelism={parallelism} diverged from the seed \
                     configuration"
                );
                assert_eq!(
                    global, ref_global,
                    "{scheduler:?}/{layout:?}/parallelism={parallelism} produced different memory"
                );
            }
        }
    }
}

#[test]
fn heap_and_scan_agree_on_latency_bound_kernel() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(6), 16, 0);
    let n = 256 * 24;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 24, block: 256 },
        &[0, 4 * n],
        (8 * n) as usize,
    );
}

#[test]
fn heap_and_scan_agree_across_barriers() {
    let dev = DeviceSpec::c2075();
    let machine = compile(&barrier_kernel(), 16, 0);
    let n = 128 * 6;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 6, block: 128 },
        &[0],
        (4 * n) as usize,
    );
}

#[test]
fn heap_and_scan_agree_under_register_pressure() {
    // A tight slot budget forces spills: local-memory (always "memory")
    // readiness competes with ALU readiness, stressing the tie-break
    // between `Wait` reasons that ride along with the ready time.
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(8), 4, 2);
    let n = 128 * 16;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 16, block: 128 },
        &[0, 4 * n],
        (8 * n) as usize,
    );
}

#[test]
fn errors_are_identical_across_fanout() {
    // The output region is truncated so the first out-of-bounds store
    // lands on SM 3 (block 3): whichever configuration runs it, the
    // reported error AND the memory state must match the serial engine
    // — SMs 0-2 ran to completion, SM 3's partial writes landed, and
    // SMs 4+ (which the serial engine never reached) left no trace.
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(2), 16, 0);
    let n = 256 * 16;
    let launch = Launch { grid: 16, block: 256 };
    let params = [0u32, 4 * n];
    // Inputs need bytes [0, 16384); outputs start at 16384, so 20000
    // bytes cuts the output region off inside block 3.
    let bytes = 20000usize;
    let base = LaunchOptions {
        parallelism: 1,
        scheduler: Scheduler::LinearScan,
        ..LaunchOptions::default()
    };
    let mut ref_global = vec![0u8; bytes];
    let reference =
        run_launch_opts(&dev, &machine, launch, &params, &mut ref_global, base).unwrap_err();
    for scheduler in [Scheduler::LinearScan, Scheduler::EventHeap] {
        for layout in [LaneLayout::Aos, LaneLayout::Soa] {
            for parallelism in [2u32, dev.num_sms] {
                let opts =
                    LaunchOptions { parallelism, scheduler, layout, ..LaunchOptions::default() };
                let mut g = vec![0u8; bytes];
                let err =
                    run_launch_opts(&dev, &machine, launch, &params, &mut g, opts).unwrap_err();
                assert_eq!(err, reference, "{scheduler:?}/{layout:?}/parallelism={parallelism}");
                assert_eq!(
                    g, ref_global,
                    "{scheduler:?}/{layout:?}/parallelism={parallelism} left different memory \
                     after the error"
                );
            }
        }
    }
}

/// The layout-equivalence sweep of the SoA rebuild: three workloads
/// (latency-bound streaming, full-warp divergence, 32-way bank
/// conflicts) × two occupancy settings (native, and shared-memory
/// padding that halves residency) must be bit-identical between the SoA
/// engine and the LinearScan/AoS reference — cycles, per-SM stall
/// rollups, memory counters, and global memory bytes.
#[test]
fn soa_layout_is_bit_identical_across_workloads_and_occupancy() {
    let dev = DeviceSpec::gtx680();
    let n_threads = |launch: Launch| launch.grid * launch.block;
    let cases: [(&str, MModule, Launch, Vec<u32>, u32); 3] = {
        let stream_launch = Launch { grid: 16, block: 128 };
        let div_launch = Launch { grid: 12, block: 128 };
        let bank_launch = Launch { grid: 8, block: 128 };
        [
            (
                "stream",
                compile(&streaming_kernel(6), 16, 0),
                stream_launch,
                vec![0, 4 * n_threads(stream_launch)],
                8 * n_threads(stream_launch),
            ),
            (
                "diverge",
                compile(&divergent_kernel(), 16, 0),
                div_launch,
                vec![0, 4 * n_threads(div_launch)],
                8 * n_threads(div_launch),
            ),
            (
                "conflict",
                compile(&bank_conflict_kernel(), 16, 0),
                bank_launch,
                vec![0],
                4 * n_threads(bank_launch),
            ),
        ]
    };
    for (name, machine, launch, params, bytes) in &cases {
        for extra_smem in [0u32, 24 * 1024] {
            let base = reference_opts().with_extra_smem(extra_smem);
            let (reference, ref_global) =
                run_with(&dev, machine, *launch, params, *bytes as usize, base);
            for scheduler in [Scheduler::LinearScan, Scheduler::EventHeap] {
                let opts = LaunchOptions {
                    scheduler,
                    layout: LaneLayout::Soa,
                    parallelism: 1,
                    ..LaunchOptions::default()
                }
                .with_extra_smem(extra_smem);
                let (r, global) = run_with(&dev, machine, *launch, params, *bytes as usize, opts);
                assert_eq!(
                    r, reference,
                    "{name}/smem+{extra_smem}/{scheduler:?}: SoA diverged from the AoS reference"
                );
                assert_eq!(
                    global, ref_global,
                    "{name}/smem+{extra_smem}/{scheduler:?}: SoA produced different memory"
                );
            }
        }
    }
}

#[test]
fn layouts_agree_on_divergent_branches() {
    let dev = DeviceSpec::c2075();
    let machine = compile(&divergent_kernel(), 16, 0);
    let n = 128 * 12;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 12, block: 128 },
        &[0, 4 * n],
        (8 * n) as usize,
    );
}

#[test]
fn layouts_agree_on_bank_conflicts() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&bank_conflict_kernel(), 16, 0);
    let n = 128 * 8;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 8, block: 128 },
        &[0],
        (4 * n) as usize,
    );
}

/// Fault-seed sweep: under deterministic chaos (transients, resource
/// kills, hangs, jitter) both layouts must fail — or survive — with the
/// same outcome at the same cycle, for every seed. Fresh injectors with
/// equal seeds draw identical fault streams, so any divergence is the
/// layout's fault.
mod fault_sweep {
    use super::*;
    use orion_gpusim::faults::{FaultInjector, FaultPlan};

    #[test]
    fn layouts_agree_under_fault_injection() {
        let dev = DeviceSpec::gtx680();
        let workloads: [(&str, MModule, Launch, Vec<u32>, u32); 3] = {
            let stream_launch = Launch { grid: 16, block: 128 };
            let div_launch = Launch { grid: 12, block: 128 };
            let bank_launch = Launch { grid: 8, block: 128 };
            [
                (
                    "stream",
                    compile(&streaming_kernel(4), 16, 0),
                    stream_launch,
                    vec![0, 4 * stream_launch.grid * stream_launch.block],
                    8 * stream_launch.grid * stream_launch.block,
                ),
                (
                    "diverge",
                    compile(&divergent_kernel(), 16, 0),
                    div_launch,
                    vec![0, 4 * div_launch.grid * div_launch.block],
                    8 * div_launch.grid * div_launch.block,
                ),
                (
                    "conflict",
                    compile(&bank_conflict_kernel(), 16, 0),
                    bank_launch,
                    vec![0],
                    4 * bank_launch.grid * bank_launch.block,
                ),
            ]
        };
        for (name, machine, launch, params, bytes) in &workloads {
            for seed in [1u64, 7, 42] {
                let run = |layout: LaneLayout| {
                    let inj = FaultInjector::new(FaultPlan::chaos(seed, 0.5, 0.05));
                    let mut global = vec![0u8; *bytes as usize];
                    let opts = LaunchOptions {
                        layout,
                        scheduler: Scheduler::LinearScan,
                        parallelism: 1,
                        cycle_budget: Some(2_000_000),
                        faults: inj.draw(),
                        ..LaunchOptions::default()
                    };
                    let r = run_launch_opts(&dev, machine, *launch, params, &mut global, opts);
                    (r, global, inj.snapshot())
                };
                let (ra, ga, sa) = run(LaneLayout::Aos);
                let (rs, gs, ss) = run(LaneLayout::Soa);
                assert_eq!(ra, rs, "{name}/seed={seed}: outcome diverged between layouts");
                assert_eq!(ga, gs, "{name}/seed={seed}: memory diverged between layouts");
                assert_eq!(sa, ss, "{name}/seed={seed}: fault draws diverged (seed misuse)");
            }
        }
    }
}

/// Fan-out edge cases of the per-SM write tracking: engines mark the
/// 64-byte chunks their global stores touch, and the fan-out diffs and
/// resets only those. Each case must give the same outcome and memory at
/// parallelism 1, 2 and 8, in both lane layouts.
mod fanout_chunks {
    use super::*;
    use orion_gpusim::SimError;

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

    /// Run from `init` at parallelism 1, 2 and 8 in both layouts; every
    /// run must match the serial SoA run, which is returned.
    fn assert_fanout_identical(
        machine: &MModule,
        params: &[u32],
        init: &[u8],
    ) -> (Result<RunResult, SimError>, Vec<u8>) {
        let dev = DeviceSpec::gtx680();
        assert_eq!(dev.num_sms, 8);
        let launch = Launch { grid: GRID, block: BLOCK };
        let run = |parallelism: u32, layout: LaneLayout| {
            let mut g = init.to_vec();
            let opts = LaunchOptions { parallelism, layout, ..LaunchOptions::default() };
            (run_launch_opts(&dev, machine, launch, params, &mut g, opts), g)
        };
        let (reference, ref_global) = run(1, LaneLayout::Soa);
        for layout in [LaneLayout::Soa, LaneLayout::Aos] {
            for parallelism in [1u32, 2, 8] {
                let (r, g) = run(parallelism, layout);
                assert_eq!(r, reference, "{layout:?}/parallelism={parallelism}: outcome");
                assert_eq!(g, ref_global, "{layout:?}/parallelism={parallelism}: memory");
            }
        }
        (reference, ref_global)
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
        let (r, g) =
            assert_fanout_identical(&machine, &[idx as u32, val as u32, out as u32], &init);
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
        let (r, g) =
            assert_fanout_identical(&machine, &[idx as u32, val as u32, out as u32], &init);
        assert_eq!(
            r.unwrap_err(),
            SimError::OutOfBounds {
                space: MemSpace::Global,
                addr: u64::from(far) * 4 + out as u64
            },
            "the lowest SM's error wins"
        );
        let landed =
            |t: usize| g[out + 4 * t..out + 4 * t + 4] == init[val + 4 * t..val + 4 * t + 4];
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
        // lane 9 from the lower address. The warp-wide 32-bit load (SoA)
        // and the per-lane load (AoS) must both report lane 5.
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
        let (r, _) =
            assert_fanout_identical(&machine, &[idx as u32, val as u32, out as u32], &init);
        assert_eq!(
            r.unwrap_err(),
            SimError::OutOfBounds { space: MemSpace::Global, addr: 0x1800_0000 * 4 + val as u64 }
        );
    }
}
