//! `gaussian` (Rodinia, numerical analysis): one elimination step of
//! Gaussian elimination.
//!
//! Table 2: 11 registers, 2 calls, no shared memory. The kernel is a
//! thin memory-streaming update `m[i][j] -= m[i][k]/m[k][k] * m[k][j]`
//! with the two divisions compiled to intrinsic calls. It is almost pure
//! DRAM traffic with plenty of memory-level parallelism per thread, so
//! performance is *insensitive to occupancy* (Figure 14a) — the basis of
//! its large register/energy saving in Figures 12/13.
//!
//! Each thread owns two consecutive float4 quads of the row-major
//! matrix, quads `2g` and `2g+1` (eight floats), and writes nothing
//! else: no two threads share a global word, so the result does not
//! depend on block order. Its normalization result goes into the first
//! word of its own first quad.

use crate::common::{fdiv, gid, guard, ld_elem, zeros};
use crate::{Table2Row, Workload};
use orion_kir::builder::{build_fdiv_device, FunctionBuilder};
use orion_kir::function::Module;
use orion_kir::inst::Operand;

/// Matrix row length in floats (a power of two: `DIM/8` threads per row).
const DIM: u32 = 256;
/// Rows updated by one launch. At eight floats per thread the grid is
/// `ROWS_PER_STEP*DIM/8` = 21,504 threads = 112 blocks of 192: the
/// fewest that fill a C2075 (14 SMs × 8 blocks) at full occupancy, so
/// every point of the occupancy sweep (Figure 14a) is reachable on
/// both devices (a GTX680 holds 8 SMs × 10 such blocks).
const ROWS_PER_STEP: u32 = 672;
/// Floats each thread updates: two float4 quads.
const FLOATS_PER_THREAD: u32 = 8;

/// Build the workload.
pub fn build() -> Workload {
    let kb = FunctionBuilder::kernel("gaussian_fan2");
    let mut module = Module::new(kb.finish());
    let fdiv_id = module.add_func(build_fdiv_device());

    let mut b = FunctionBuilder::kernel("gaussian_fan2");
    let g = gid(&mut b);
    guard(&mut b, g, 4);
    // Each thread streams two float4 strips of the row (vectorized row
    // update, as the SDK kernel does): the kernel is pure DRAM
    // bandwidth, so it saturates the memory system at low occupancy and
    // is insensitive to further warps — Figure 14a.
    let zero = b.mov_i32(0);
    let pivot = ld_elem(&mut b, 3, zero, 0);
    let threads_per_row = DIM / FLOATS_PER_THREAD;
    let row = b.shr(g, Operand::Imm(i64::from(threads_per_row.trailing_zeros())));
    let m_rk = ld_elem(&mut b, 2, row, 0);
    let ratio = fdiv(&mut b, fdiv_id, m_rk, pivot);
    let mut acc = b.mov_f32(0.0);
    for e in 0..2i64 {
        // Byte address of this thread's float4: quad `2g + e`.
        let eidx = b.imad(g, Operand::Imm(2), Operand::Imm(e));
        let addr = b.imad(eidx, Operand::Imm(16), Operand::Param(0));
        let quad = b.ld(orion_kir::types::MemSpace::Global, orion_kir::types::Width::W128, addr, 0);
        // Update each lane of the quad: m -= ratio * pivot_row.
        let mut out = quad;
        for lane in 0..4u8 {
            let v = b.unpack(out, lane);
            // Column within the row of this lane's float.
            let col = {
                let t = b.imad(eidx, Operand::Imm(4), Operand::Imm(i64::from(lane)));
                b.and(t, Operand::Imm(i64::from(DIM - 1)))
            };
            let m_kc = ld_elem(&mut b, 1, col, 0);
            let scaled = b.fmul(ratio, m_kc);
            let upd = b.fsub(v, scaled);
            out = b.pack(out, upd, lane);
            if lane == 0 {
                acc = b.fadd(acc, upd);
            }
        }
        b.st(orion_kir::types::MemSpace::Global, orion_kir::types::Width::W128, addr, out, 0);
    }
    // Final normalization division (matches the source's two call
    // sites); written into the first word of the thread's quad `2g`.
    let norm = fdiv(&mut b, fdiv_id, acc, pivot);
    let own = {
        let t = b.imul(g, Operand::Imm(2));
        b.imad(t, Operand::Imm(16), Operand::Param(0))
    };
    b.st(orion_kir::types::MemSpace::Global, orion_kir::types::Width::W32, own, norm, 0);
    b.exit();
    module.funcs[0] = b.finish();

    let n_elems = (ROWS_PER_STEP * DIM) as usize;
    let matrix = crate::common::f32_buffer(0x6a55, n_elems);
    let pivot_row = crate::common::f32_buffer(0x6a56, DIM as usize);
    let mult_col = crate::common::f32_buffer(0x6a57, ROWS_PER_STEP as usize);
    let pivot = crate::common::f32_buffer(0x6a58, 1);
    let m_base = 0u32;
    let k_base = matrix.len() as u32;
    let c_base = k_base + pivot_row.len() as u32;
    let p_base = c_base + mult_col.len() as u32;
    let mut init = matrix;
    init.extend(pivot_row);
    init.extend(mult_col);
    init.extend(pivot);
    init.extend(zeros(4));

    let count = ROWS_PER_STEP * DIM / FLOATS_PER_THREAD;
    Workload {
        name: "gaussian",
        domain: "Numer. analysis",
        module,
        grid: count.div_ceil(192),
        block: 192,
        params: vec![m_base, k_base, c_base, p_base, count],
        init_global: init,
        iterations: 8,
        can_tune: true,
        iter_params: None,
        expected: Table2Row { reg: 11, func: 2, smem: false },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_alloc::realize::kernel_max_live;

    #[test]
    fn matches_table2() {
        let w = build();
        orion_kir::verify::verify(&w.module).unwrap();
        let ml = kernel_max_live(&w.module).unwrap();
        assert!(
            (ml as i64 - i64::from(w.expected.reg)).unsigned_abs() <= 3,
            "max-live {ml} vs {}",
            w.expected.reg
        );
        assert_eq!(w.module.static_call_count(), 2);
        assert_eq!(w.module.user_smem_bytes, 0);
    }
}
