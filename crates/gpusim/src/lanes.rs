//! Structure-of-arrays lane state: the batched execution layout.
//!
//! The seed engine kept an array-of-structs `LaneState` per thread —
//! every lane owned a heap-allocated register vector, a local-memory
//! vector, and a `bool` predicate file — so each warp instruction
//! chased 32 separate allocations and re-matched its operands per lane.
//! This module stores a CTA's lane state in three pooled arenas instead:
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
//! semantics* as [`eval_alu`] (hot single-word opcodes get unrolled
//! plane loops, everything else falls back to per-lane [`eval_alu`]),
//! so results are bit-identical to the array-of-structs reference by
//! construction — `tests/schedule.rs` pins this end to end.

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

/// One CTA's lane state in the pooled SoA layout.
#[derive(Debug, Default)]
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
    /// Assemble a CTA arena from (recycled) zeroed buffers.
    pub fn new(
        onchip: Vec<u32>,
        local: Vec<u8>,
        preds: Vec<u32>,
        stride: usize,
        local_bytes: usize,
    ) -> Self {
        debug_assert_eq!(onchip.len() % stride.max(1), 0);
        debug_assert_eq!(local.len(), stride * local_bytes);
        SoaCta { onchip, local, preds, stride, local_bytes }
    }

    /// Tear the arena back into its pooled buffers
    /// `(onchip, local, preds)` on CTA retirement.
    pub fn into_parts(self) -> (Vec<u32>, Vec<u8>, Vec<u32>) {
        (self.onchip, self.local, self.preds)
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

    /// Lane `tid`'s local-memory region (same length the AoS lane's
    /// private buffer had, so bounds behavior is identical).
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
        FFma => ffma(srcs, out),
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

/// Fused `a * b + c` per lane. Where the host has FMA the plane loop is
/// compiled with it, so `mul_add` becomes one instruction instead of an
/// out-of-line `fmaf` call per lane; both are the IEEE fused operation,
/// so the bits agree.
#[inline]
fn ffma(srcs: &[WarpOperand], out: &mut WarpOperand) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("fma") {
        // SAFETY: the `fma` target feature was just detected on this host.
        return unsafe { ffma_fma(srcs, out) };
    }
    ffma_planes(srcs, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn ffma_fma(srcs: &[WarpOperand], out: &mut WarpOperand) {
    ffma_planes(srcs, out);
}

#[inline(always)]
fn ffma_planes(srcs: &[WarpOperand], out: &mut WarpOperand) {
    for l in 0..32 {
        let v = f32::from_bits(srcs[0].w0(l))
            .mul_add(f32::from_bits(srcs[1].w0(l)), f32::from_bits(srcs[2].w0(l)));
        out.planes[0][l] = v.to_bits();
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
