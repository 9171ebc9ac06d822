//! Structure-of-arrays lane state: the batched execution layout.
//!
//! In an array-of-structs layout every lane owns a heap-allocated
//! register vector, a local-memory vector, and a `bool` predicate file,
//! so each warp instruction chases 32 separate allocations and
//! re-matches its operands per lane. This module stores a CTA's lane
//! state in three arenas instead. Each CTA slot of an SM's fixed slot
//! table (see `exec`) owns one set for the whole launch, zeroed in place
//! ([`SoaCta::clear`]) when the next block takes the slot:
//!
//! * **On-chip slots, slot-major**: one contiguous `Vec<u32>` indexed
//!   `onchip[slot * stride + tid]` with `stride = warps_per_block * 32`.
//!   The 32 lanes of a warp's slot `k` are therefore adjacent, so
//!   operand reads, ALU results, and spill writes are contiguous
//!   32-word slice operations the compiler can vectorize.
//! * **Local memory, lane-strided**: one contiguous `Vec<u8>` where
//!   lane `tid` owns bytes `[tid * local_bytes, (tid + 1) * local_bytes)`
//!   — local addresses are runtime values, so the lane keeps its seed
//!   byte-addressing while losing its private allocation.
//! * **Predicates, packed**: one `u32` per `(warp, predicate register)`
//!   at `preds[warp * NUM_PRED_REGS + p]`, bit `l` = lane `l`'s value.
//!   Branch-mask evaluation and predication checks become single mask
//!   operations instead of 32 `bool` loads.
//!
//! The warp-wide register file ([`WarpOperand`]) gathers one operand's
//! value for all 32 lanes into stack-resident word planes; [`warp_alu`]
//! evaluates an opcode over those planes with the *same scalar
//! semantics* as [`eval_alu`] (single-word opcodes, unary ones included,
//! get plane loops built from its expressions, everything else falls
//! back to per-lane [`eval_alu`]), and [`warp_setp`] packs a compare's
//! 32 lane results the same way, so results are bit-identical to the
//! array-of-structs reference by construction — `tests/schedule.rs`
//! pins this end to end.

use orion_kir::inst::Opcode;
use orion_kir::mir::{MLoc, MOperand, Place};
use orion_kir::sem::{eval_alu, Val};
use orion_kir::types::{PredReg, SpecialReg, NUM_PRED_REGS};

/// Per-warp execution context for operand gathering: everything a
/// special register or parameter read needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarpCtx<'a> {
    /// Warp index within the block.
    pub warp: u32,
    /// First thread id of the warp (`warp * 32`).
    pub warp_base_tid: u32,
    /// Threads per block (`%ntid`).
    pub block: u32,
    /// Blocks per grid (`%nctaid`).
    pub grid: u32,
    /// Grid index of the CTA (`%ctaid`).
    pub cta_grid: u32,
    /// Kernel parameters.
    pub params: &'a [u32],
}

/// One CTA slot's lane state in the SoA layout.
#[derive(Debug)]
pub(crate) struct SoaCta {
    /// Slot-major on-chip arena: `onchip[slot * stride + tid]`.
    onchip: Vec<u32>,
    /// Lane-strided local-memory arena: lane `tid` owns
    /// `local[tid * local_bytes ..][..local_bytes]`.
    local: Vec<u8>,
    /// Packed predicates: `preds[warp * NUM_PRED_REGS + p]`, bit = lane.
    preds: Vec<u32>,
    /// Lanes per slot plane (`warps_per_block * 32`).
    stride: usize,
    /// Local-memory bytes per lane.
    local_bytes: usize,
}

impl SoaCta {
    /// A zeroed arena of `onchip_words` slot planes and `local_bytes`
    /// bytes of local memory per lane, over `stride` lanes (whole warps).
    pub fn new(onchip_words: usize, local_bytes: usize, stride: usize) -> Self {
        debug_assert_eq!(stride % 32, 0);
        SoaCta {
            onchip: vec![0; onchip_words * stride],
            local: vec![0; local_bytes * stride],
            preds: vec![0; usize::from(NUM_PRED_REGS) * stride / 32],
            stride,
            local_bytes,
        }
    }

    /// Zero the arena for the next CTA admitted into its slot.
    pub fn clear(&mut self) {
        self.onchip.fill(0);
        self.local.fill(0);
        self.preds.fill(0);
    }

    /// The 32-lane word plane of on-chip slot word `slot` for `warp`.
    #[inline]
    fn plane(&self, slot: usize, warp: u32) -> &[u32] {
        let base = slot * self.stride + warp as usize * 32;
        &self.onchip[base..base + 32]
    }

    /// Mutable 32-lane word plane (see [`Self::plane`]).
    #[inline]
    fn plane_mut(&mut self, slot: usize, warp: u32) -> &mut [u32] {
        let base = slot * self.stride + warp as usize * 32;
        &mut self.onchip[base..base + 32]
    }

    /// Lane `tid`'s local-memory region, `local_bytes` long: a local
    /// access past it is out of bounds.
    #[inline]
    pub fn local_region(&self, tid: u32) -> &[u8] {
        &self.local[tid as usize * self.local_bytes..][..self.local_bytes]
    }

    /// Mutable lane-local region (see [`Self::local_region`]).
    #[inline]
    pub fn local_region_mut(&mut self, tid: u32) -> &mut [u8] {
        &mut self.local[tid as usize * self.local_bytes..][..self.local_bytes]
    }

    /// Packed predicate bits of `p` for `warp` (bit `l` = lane `l`).
    #[inline]
    pub fn pred_bits(&self, warp: u32, p: PredReg) -> u32 {
        self.preds[warp as usize * usize::from(NUM_PRED_REGS) + usize::from(p.0)]
    }

    /// Replace the predicate bits of active lanes: lanes in `exec` take
    /// `bits`, the rest keep their value — the packed equivalent of the
    /// per-lane predicated `preds[p] = r` writes.
    #[inline]
    pub fn merge_pred(&mut self, warp: u32, p: PredReg, bits: u32, exec: u32) {
        let slot = warp as usize * usize::from(NUM_PRED_REGS) + usize::from(p.0);
        self.preds[slot] = (self.preds[slot] & !exec) | (bits & exec);
    }

    /// Active-lane mask of a (possibly predicated) instruction: the
    /// SIMT path mask narrowed by the guard predicate in one mask op.
    #[inline]
    pub fn exec_mask(&self, warp: u32, mask: u32, pred: Option<PredReg>, neg: bool) -> u32 {
        match pred {
            None => mask,
            Some(p) => {
                let pb = self.pred_bits(warp, p);
                mask & if neg { !pb } else { pb }
            }
        }
    }

    /// Write a slot value for one lane (the scalar phase of `Ld`).
    #[inline]
    pub fn write_val(&mut self, l: MLoc, warp: u32, tid: u32, v: Val) {
        let lane = tid as usize % 32;
        for k in 0..l.width.words() as usize {
            let slot = usize::from(l.slot) + k;
            match l.place {
                Place::Onchip => self.plane_mut(slot, warp)[lane] = v.w[k],
                Place::Local => {
                    let b = slot * 4;
                    self.local_region_mut(tid)[b..b + 4].copy_from_slice(&v.w[k].to_le_bytes());
                }
            }
        }
    }

    /// Warp-wide 32-bit load into on-chip slot word `slot`: each lane
    /// in `exec` takes the little-endian word at `base + offset` in
    /// `buf`. On an out-of-bounds lane, returns its address; lanes are
    /// visited in ascending order, so that is the lowest such lane.
    pub fn load_w32(
        &mut self,
        slot: usize,
        warp: u32,
        exec: u32,
        base: &WarpOperand,
        offset: i32,
        buf: &[u8],
    ) -> Result<(), u64> {
        let plane = self.plane_mut(slot, warp);
        let mut m = exec;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            let addr = (i64::from(base.w0(lane) as i32) + i64::from(offset)) as u64;
            let a = addr as usize;
            let word = a.checked_add(4).and_then(|end| buf.get(a..end)).ok_or(addr)?;
            plane[lane] = u32::from_le_bytes(word.try_into().expect("4-byte word"));
            m &= m - 1;
        }
        Ok(())
    }

    /// Gather one operand into a warp-wide register file: all 32 lanes'
    /// values, word-plane-major.
    pub fn gather(&self, op: &MOperand, ctx: &WarpCtx, out: &mut WarpOperand) {
        match op {
            MOperand::Loc(l) => {
                let words = l.width.words() as usize;
                out.words = words as u8;
                match l.place {
                    Place::Onchip => {
                        for k in 0..words {
                            out.planes[k]
                                .copy_from_slice(self.plane(usize::from(l.slot) + k, ctx.warp));
                        }
                    }
                    Place::Local => {
                        for k in 0..words {
                            let b = (usize::from(l.slot) + k) * 4;
                            for lane in 0..32u32 {
                                let region = self.local_region(ctx.warp_base_tid + lane);
                                out.planes[k][lane as usize] =
                                    u32::from_le_bytes(region[b..b + 4].try_into().expect("word"));
                            }
                        }
                    }
                }
            }
            MOperand::Special(SpecialReg::TidX) => {
                out.words = 1;
                for lane in 0..32u32 {
                    out.planes[0][lane as usize] = ctx.warp_base_tid + lane;
                }
            }
            MOperand::Special(SpecialReg::LaneId) => {
                out.words = 1;
                for lane in 0..32u32 {
                    out.planes[0][lane as usize] = lane;
                }
            }
            // Everything else is uniform across the warp.
            _ => {
                out.words = 1;
                out.planes[0] = [scalar_operand(op, ctx, 0); 32];
            }
        }
    }

    /// Masked write-back of a warp-wide result into `dst`: full-warp
    /// planes become straight slice copies, partial warps scatter only
    /// the active lanes.
    pub fn scatter(&mut self, dst: MLoc, ctx: &WarpCtx, exec: u32, out: &WarpOperand) {
        let words = dst.width.words() as usize;
        for k in 0..words {
            let slot = usize::from(dst.slot) + k;
            // Result words past the operand's width are zero (the same
            // `Val::default` zero-extension the scalar path applies).
            let src: &[u32; 32] = if k < usize::from(out.words) { &out.planes[k] } else { &ZEROS };
            match dst.place {
                Place::Onchip => {
                    let plane = self.plane_mut(slot, ctx.warp);
                    if exec == u32::MAX {
                        plane.copy_from_slice(src);
                    } else {
                        let mut m = exec;
                        while m != 0 {
                            let lane = m.trailing_zeros() as usize;
                            plane[lane] = src[lane];
                            m &= m - 1;
                        }
                    }
                }
                Place::Local => {
                    let b = slot * 4;
                    let mut m = exec;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        let region = self.local_region_mut(ctx.warp_base_tid + lane);
                        region[b..b + 4].copy_from_slice(&src[lane as usize].to_le_bytes());
                        m &= m - 1;
                    }
                }
            }
        }
    }
}

static ZEROS: [u32; 32] = [0; 32];

/// Scalar (lane-independent or affine) operand value.
#[inline]
fn scalar_operand(op: &MOperand, ctx: &WarpCtx, lane: u32) -> u32 {
    match op {
        MOperand::Loc(_) => unreachable!("slot operands gather from the arena"),
        MOperand::Imm(i) => *i as u32,
        MOperand::Param(p) => ctx.params.get(usize::from(*p)).copied().unwrap_or(0),
        MOperand::Special(s) => match s {
            SpecialReg::TidX => ctx.warp_base_tid + lane,
            SpecialReg::CtaIdX => ctx.cta_grid,
            SpecialReg::NTidX => ctx.block,
            SpecialReg::NCtaIdX => ctx.grid,
            SpecialReg::LaneId => lane,
            // `tid / 32` is constant across a warp.
            SpecialReg::WarpId => ctx.warp,
        },
    }
}

/// A warp-wide register file: one operand's value for all 32 lanes,
/// stored word-plane-major so 32-bit opcodes stream over one contiguous
/// `[u32; 32]`. Planes at or past `words` are logically zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WarpOperand {
    pub planes: [[u32; 32]; 4],
    pub words: u8,
}

impl WarpOperand {
    /// Lane `l`'s word 0 (the scalar view 32-bit opcodes use).
    #[inline]
    pub fn w0(&self, lane: usize) -> u32 {
        self.planes[0][lane]
    }

    /// Lane `l`'s full value (zero-extended past `words`, exactly like
    /// the scalar `read_loc`).
    #[inline]
    pub fn val(&self, lane: usize) -> Val {
        let mut v = Val::default();
        for j in 0..usize::from(self.words) {
            v.w[j] = self.planes[j][lane];
        }
        v
    }
}

/// Evaluate `op` over warp-wide operands into `out` word planes.
///
/// All 32 lanes are computed unconditionally — every ALU opcode is pure
/// and total, so inactive lanes' garbage inputs produce garbage outputs
/// that the masked [`SoaCta::scatter`] never writes back. Hot
/// single-word opcodes use explicit plane loops built from the *same
/// scalar expressions* as [`eval_alu`]; the rest assemble per-lane
/// [`Val`]s and call [`eval_alu`] itself, so semantics cannot drift.
pub(crate) fn warp_alu(op: &Opcode, srcs: &[WarpOperand], out: &mut WarpOperand) {
    use Opcode::*;
    out.words = 1;
    match op {
        IAdd => bin_i32(srcs, out, |a, b| a.wrapping_add(b)),
        ISub => bin_i32(srcs, out, |a, b| a.wrapping_sub(b)),
        IMul => bin_i32(srcs, out, |a, b| a.wrapping_mul(b)),
        IMin => bin_i32(srcs, out, i32::min),
        IMax => bin_i32(srcs, out, i32::max),
        IMad => {
            for l in 0..32 {
                let v = (srcs[0].w0(l) as i32)
                    .wrapping_mul(srcs[1].w0(l) as i32)
                    .wrapping_add(srcs[2].w0(l) as i32);
                out.planes[0][l] = v as u32;
            }
        }
        Shl => bin_u32(srcs, out, |a, b| a << (b & 31)),
        Shr => bin_u32(srcs, out, |a, b| a >> (b & 31)),
        And => bin_u32(srcs, out, |a, b| a & b),
        Or => bin_u32(srcs, out, |a, b| a | b),
        Xor => bin_u32(srcs, out, |a, b| a ^ b),
        FAdd => bin_f32(srcs, out, |a, b| a + b),
        FSub => bin_f32(srcs, out, |a, b| a - b),
        FMul => bin_f32(srcs, out, |a, b| a * b),
        FMin => bin_f32(srcs, out, f32::min),
        FMax => bin_f32(srcs, out, f32::max),
        FFma => ffma_plane(&srcs[0].planes[0], &srcs[1].planes[0], &srcs[2].planes[0], out),
        Not => un_u32(srcs, out, |a| !a),
        FNeg => un_f32(srcs, out, |a| -a),
        FAbs => un_f32(srcs, out, f32::abs),
        FRcp => un_f32(srcs, out, |a| 1.0 / a),
        FSqrt => un_f32(srcs, out, f32::sqrt),
        I2F => un_u32(srcs, out, |a| (a as i32 as f32).to_bits()),
        F2I => un_u32(srcs, out, |a| f32::from_bits(a) as i32 as u32),
        Mov if srcs[0].words <= 1 => out.planes[0] = srcs[0].planes[0],
        // Wide moves, doubles, conversions, pack/unpack, rcp/sqrt, …:
        // per-lane through the shared scalar semantics.
        _ => {
            out.words = 4;
            for l in 0..32 {
                let mut vals = [Val::default(); 4];
                for (k, s) in srcs.iter().enumerate() {
                    vals[k] = s.val(l);
                }
                let v = eval_alu(op, &vals[..srcs.len()]);
                for j in 0..4 {
                    out.planes[j][l] = v.w[j];
                }
            }
        }
    }
}

/// `FFma` over one word plane: `out[l] = fma(a[l], b[l], c[l])`.
///
/// Without the `fma` target feature each `f32::mul_add` is a call to
/// libm's `fmaf`, and the call keeps the loop from vectorizing. On hosts
/// with FMA the loop runs in [`ffma_plane_fma`] instead. A fused
/// multiply-add is correctly rounded either way, so every non-NaN result
/// is the same; only NaN payloads differ.
fn ffma_plane(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32], out: &mut WarpOperand) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("fma") {
            // SAFETY: the running CPU supports FMA (checked just above).
            unsafe { ffma_plane_fma(a, b, c, &mut out.planes[0]) };
            return;
        }
    }
    for l in 0..32 {
        out.planes[0][l] =
            f32::from_bits(a[l]).mul_add(f32::from_bits(b[l]), f32::from_bits(c[l])).to_bits();
    }
}

/// The `FFma` plane loop compiled with hardware FMA. The loop body must
/// sit here: an `#[inline]` helper is not inlined into a target-feature
/// function and would keep its `fmaf` call.
///
/// The instruction propagates NaN payloads differently from `fmaf`, so
/// every lane whose result is NaN is recomputed by [`ffma_reference`].
///
/// # Safety
/// The running CPU must support FMA (`is_x86_feature_detected!("fma")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn ffma_plane_fma(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32], out: &mut [u32; 32]) {
    let mut any_nan = false;
    for l in 0..32 {
        let v = f32::from_bits(a[l]).mul_add(f32::from_bits(b[l]), f32::from_bits(c[l]));
        out[l] = v.to_bits();
        any_nan |= v.is_nan();
    }
    if any_nan {
        for l in 0..32 {
            if f32::from_bits(out[l]).is_nan() {
                out[l] = ffma_reference(a[l], b[l], c[l]);
            }
        }
    }
}

/// One lane of `FFma` through the scalar semantics ([`eval_alu`]). Kept
/// out of line so it compiles without the `fma` target feature.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn ffma_reference(a: u32, b: u32, c: u32) -> u32 {
    eval_alu(&Opcode::FFma, &[Val::scalar(a), Val::scalar(b), Val::scalar(c)]).w[0]
}

/// Predicate bits of a compare over warp-wide operands, bit `l` = lane
/// `l` — [`eval_setp`](orion_kir::sem::eval_setp)'s expressions per lane.
/// Every lane is compared; the caller's merge masks inactive ones out.
pub(crate) fn warp_setp(op: &Opcode, a: &WarpOperand, b: &WarpOperand) -> u32 {
    let mut bits = 0u32;
    match *op {
        Opcode::ISetp(c) => {
            for l in 0..32 {
                bits |= u32::from(c.eval_i32(a.w0(l) as i32, b.w0(l) as i32)) << l;
            }
        }
        Opcode::FSetp(c) => {
            for l in 0..32 {
                bits |=
                    u32::from(c.eval_f32(f32::from_bits(a.w0(l)), f32::from_bits(b.w0(l)))) << l;
            }
        }
        ref other => panic!("warp_setp on {other:?}"),
    }
    bits
}

#[inline]
fn un_u32(srcs: &[WarpOperand], out: &mut WarpOperand, f: impl Fn(u32) -> u32) {
    for l in 0..32 {
        out.planes[0][l] = f(srcs[0].w0(l));
    }
}

#[inline]
fn un_f32(srcs: &[WarpOperand], out: &mut WarpOperand, f: impl Fn(f32) -> f32) {
    for l in 0..32 {
        out.planes[0][l] = f(f32::from_bits(srcs[0].w0(l))).to_bits();
    }
}

#[inline]
fn bin_i32(srcs: &[WarpOperand], out: &mut WarpOperand, f: impl Fn(i32, i32) -> i32) {
    for l in 0..32 {
        out.planes[0][l] = f(srcs[0].w0(l) as i32, srcs[1].w0(l) as i32) as u32;
    }
}

#[inline]
fn bin_u32(srcs: &[WarpOperand], out: &mut WarpOperand, f: impl Fn(u32, u32) -> u32) {
    for l in 0..32 {
        out.planes[0][l] = f(srcs[0].w0(l), srcs[1].w0(l));
    }
}

#[inline]
fn bin_f32(srcs: &[WarpOperand], out: &mut WarpOperand, f: impl Fn(f32, f32) -> f32) {
    for l in 0..32 {
        out.planes[0][l] =
            f(f32::from_bits(srcs[0].w0(l)), f32::from_bits(srcs[1].w0(l))).to_bits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `FFma` over up to 32 triples through the warp-wide path.
    fn warp_ffma(triples: &[(u32, u32, u32)]) -> [u32; 32] {
        let mut srcs = [WarpOperand { words: 1, ..WarpOperand::default() }; 3];
        for (l, &(a, b, c)) in triples.iter().enumerate() {
            srcs[0].planes[0][l] = a;
            srcs[1].planes[0][l] = b;
            srcs[2].planes[0][l] = c;
        }
        let mut out = WarpOperand::default();
        warp_alu(&Opcode::FFma, &srcs, &mut out);
        out.planes[0]
    }

    fn assert_matches_scalar(triples: &[(u32, u32, u32)]) {
        for chunk in triples.chunks(32) {
            let got = warp_ffma(chunk);
            for (l, &(a, b, c)) in chunk.iter().enumerate() {
                let want =
                    eval_alu(&Opcode::FFma, &[Val::scalar(a), Val::scalar(b), Val::scalar(c)]).w[0];
                assert_eq!(
                    got[l], want,
                    "fma({a:#010x}, {b:#010x}, {c:#010x}): warp {:#010x} vs scalar {want:#010x}",
                    got[l]
                );
            }
        }
    }

    /// The warp-wide `FFma` (hardware FMA where the host has it) is
    /// bit-identical to the scalar semantics, NaN payloads included.
    /// Only an optimized build inlines `mul_add` into the target-feature
    /// loop, so run this in release to test the `vfmadd` path.
    #[test]
    fn ffma_plane_matches_scalar_semantics_bit_for_bit() {
        let special: Vec<u32> = [
            0x0000_0000, // +0
            0x0000_0001, // smallest subnormal
            0x007f_ffff, // largest subnormal
            0x0080_0000, // smallest normal
            0x3f80_0000, // 1.0
            0x3f00_0001, // just above 0.5
            0x7f7f_ffff, // max finite
            0x7f80_0000, // +inf
            0x7fc0_0000, // quiet NaN
            0x7fc1_2345, // quiet NaN with payload
            0x7f80_0001, // signalling NaN
            0x7fa5_a5a5, // signalling NaN with payload
        ]
        .iter()
        .flat_map(|&v| [v, v | 0x8000_0000])
        .collect();
        let mut triples = Vec::new();
        for &a in &special {
            for &b in &special {
                for &c in &special {
                    triples.push((a, b, c));
                }
            }
        }
        // SplitMix64: random bit patterns cover every exponent, and about
        // 1 in 256 of them are NaNs.
        let mut state = 0x0f1a_2024_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        };
        for _ in 0..100_000 {
            triples.push((next(), next(), next()));
        }
        assert_matches_scalar(&triples);
    }
}
