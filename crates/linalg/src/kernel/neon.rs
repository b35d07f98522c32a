//! NEON microkernels (aarch64).
//!
//! Same geometry as the AVX2 kernels (`f32` 6x16, `f64` 6x8) spread across
//! 128-bit `q` registers: 24 accumulators each. A is read in place through
//! its strides; only B comes packed. Uses `vmulq`/`vaddq`, not
//! the fused `vfmaq`, for the same reason the x86 kernels avoid FMA — the
//! determinism contract pins every element to the portable kernel's
//! two-rounding mul-then-add chain.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::*;

/// NEON is architecturally mandatory on aarch64; the hook exists so the
/// dispatch table has a uniform shape.
pub(crate) fn have_neon() -> bool {
    true
}

#[target_feature(enable = "neon")]
unsafe fn micro_f32_neon(
    k: usize,
    a: *const f32,
    rs_a: usize,
    cs_a: usize,
    b: *const f32,
    acc: *mut f32,
) {
    let mut c = [vdupq_n_f32(0.0); 24];
    let mut ap = a;
    for p in 0..k {
        let bp = b.add(p * 16);
        let b0 = vld1q_f32(bp);
        let b1 = vld1q_f32(bp.add(4));
        let b2 = vld1q_f32(bp.add(8));
        let b3 = vld1q_f32(bp.add(12));
        for ii in 0..6 {
            let av = vdupq_n_f32(*ap.add(ii * rs_a));
            c[4 * ii] = vaddq_f32(c[4 * ii], vmulq_f32(av, b0));
            c[4 * ii + 1] = vaddq_f32(c[4 * ii + 1], vmulq_f32(av, b1));
            c[4 * ii + 2] = vaddq_f32(c[4 * ii + 2], vmulq_f32(av, b2));
            c[4 * ii + 3] = vaddq_f32(c[4 * ii + 3], vmulq_f32(av, b3));
        }
        ap = ap.wrapping_add(cs_a);
    }
    for ii in 0..6 {
        vst1q_f32(acc.add(ii * 16), c[4 * ii]);
        vst1q_f32(acc.add(ii * 16 + 4), c[4 * ii + 1]);
        vst1q_f32(acc.add(ii * 16 + 8), c[4 * ii + 2]);
        vst1q_f32(acc.add(ii * 16 + 12), c[4 * ii + 3]);
    }
}

#[target_feature(enable = "neon")]
unsafe fn micro_f64_neon(
    k: usize,
    a: *const f64,
    rs_a: usize,
    cs_a: usize,
    b: *const f64,
    acc: *mut f64,
) {
    let mut c = [vdupq_n_f64(0.0); 24];
    let mut ap = a;
    for p in 0..k {
        let bp = b.add(p * 8);
        let b0 = vld1q_f64(bp);
        let b1 = vld1q_f64(bp.add(2));
        let b2 = vld1q_f64(bp.add(4));
        let b3 = vld1q_f64(bp.add(6));
        for ii in 0..6 {
            let av = vdupq_n_f64(*ap.add(ii * rs_a));
            c[4 * ii] = vaddq_f64(c[4 * ii], vmulq_f64(av, b0));
            c[4 * ii + 1] = vaddq_f64(c[4 * ii + 1], vmulq_f64(av, b1));
            c[4 * ii + 2] = vaddq_f64(c[4 * ii + 2], vmulq_f64(av, b2));
            c[4 * ii + 3] = vaddq_f64(c[4 * ii + 3], vmulq_f64(av, b3));
        }
        ap = ap.wrapping_add(cs_a);
    }
    for ii in 0..6 {
        vst1q_f64(acc.add(ii * 8), c[4 * ii]);
        vst1q_f64(acc.add(ii * 8 + 2), c[4 * ii + 1]);
        vst1q_f64(acc.add(ii * 8 + 4), c[4 * ii + 2]);
        vst1q_f64(acc.add(ii * 8 + 6), c[4 * ii + 3]);
    }
}

/// 6x16 `f32` tile. See [`super::portable::micro`] for the operand contract.
///
/// # Safety
///
/// Same operand/tile validity requirements as the portable kernel.
pub(crate) unsafe fn micro_f32(
    k: usize,
    a: *const f32,
    rs_a: usize,
    cs_a: usize,
    b: *const f32,
    acc: *mut f32,
) {
    micro_f32_neon(k, a, rs_a, cs_a, b, acc)
}

/// 6x8 `f64` tile. See [`super::portable::micro`] for the operand contract.
///
/// # Safety
///
/// Same requirements as [`micro_f32`].
pub(crate) unsafe fn micro_f64(
    k: usize,
    a: *const f64,
    rs_a: usize,
    cs_a: usize,
    b: *const f64,
    acc: *mut f64,
) {
    micro_f64_neon(k, a, rs_a, cs_a, b, acc)
}
