//! AVX-512F and AVX2 microkernels (x86_64).
//!
//! Geometry is the same for both ISAs: `f32` 6x16 and `f64` 6x8. AVX-512
//! holds one tile row per 512-bit register (six accumulators); AVX2 needs
//! two 256-bit registers per row (twelve). A is read in place through its
//! strides and each step broadcasts one A value per row; B comes from a
//! packed panel, one vector load per register column.
//!
//! Every kernel uses a separate `mul` followed by `add`, never FMA: the
//! determinism contract requires the exact two-rounding mul-then-add chain
//! the portable kernel computes, and a fused multiply-add rounds once, so
//! it would change every product (and `recon_fnv`) on every kernel at once.
//! Switching to FMA is a deliberate re-baseline, not a kernel detail.
//!
//! The unfused ceiling is still worth chasing. Each step of a 6x16 `f32`
//! tile issues six multiplies and six adds into six independent chains,
//! which an AVX-512F core retires at its two vector ports: 16 lanes per
//! instruction, twice the AVX2 kernel's work for the same instruction
//! count. On hosts that report `avx512f` the AVX-512 kernel is therefore
//! dispatched first and AVX2 is the fallback.
//!
//! The kernels are `#[target_feature]` `unsafe fn`s, which coerce to
//! [`super::MicroFn`] pointers; `have_avx512`/`have_avx2` gate dispatch at
//! runtime.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

/// Runtime CPUID check for the AVX-512 kernels.
pub(crate) fn have_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Runtime CPUID check for the AVX2 kernels.
pub(crate) fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// 6x16 `f32` tile on AVX-512F. See [`super::portable::micro`] for the operand
/// contract.
///
/// # Safety
///
/// Same operand/tile validity requirements as the portable kernel, plus
/// the CPU must support AVX-512F (dispatch checks [`have_avx512`]).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn micro_f32_avx512(
    k: usize,
    a: *const f32,
    rs_a: usize,
    cs_a: usize,
    b: *const f32,
    acc: *mut f32,
) {
    let mut c = [_mm512_setzero_ps(); 6];
    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        let b0 = _mm512_loadu_ps(bp);
        for (ii, ci) in c.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(ii * rs_a));
            *ci = _mm512_add_ps(*ci, _mm512_mul_ps(av, b0));
        }
        ap = ap.wrapping_add(cs_a);
        bp = bp.add(16);
    }
    for (ii, ci) in c.iter().enumerate() {
        _mm512_storeu_ps(acc.add(ii * 16), *ci);
    }
}

/// 6x8 `f64` tile on AVX-512F. See [`super::portable::micro`] for the operand
/// contract.
///
/// # Safety
///
/// Same operand/tile validity requirements as the portable kernel, plus
/// the CPU must support AVX-512F (dispatch checks [`have_avx512`]).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn micro_f64_avx512(
    k: usize,
    a: *const f64,
    rs_a: usize,
    cs_a: usize,
    b: *const f64,
    acc: *mut f64,
) {
    let mut c = [_mm512_setzero_pd(); 6];
    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        let b0 = _mm512_loadu_pd(bp);
        for (ii, ci) in c.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ap.add(ii * rs_a));
            *ci = _mm512_add_pd(*ci, _mm512_mul_pd(av, b0));
        }
        ap = ap.wrapping_add(cs_a);
        bp = bp.add(8);
    }
    for (ii, ci) in c.iter().enumerate() {
        _mm512_storeu_pd(acc.add(ii * 8), *ci);
    }
}

/// 6x16 `f32` tile on AVX2. See [`super::portable::micro`] for the operand
/// contract.
///
/// # Safety
///
/// Same operand/tile validity requirements as the portable kernel, plus
/// the CPU must support AVX2 (dispatch checks [`have_avx2`]).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn micro_f32_avx2(
    k: usize,
    a: *const f32,
    rs_a: usize,
    cs_a: usize,
    b: *const f32,
    acc: *mut f32,
) {
    let mut c = [_mm256_setzero_ps(); 12];
    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for ii in 0..6 {
            let av = _mm256_set1_ps(*ap.add(ii * rs_a));
            c[2 * ii] = _mm256_add_ps(c[2 * ii], _mm256_mul_ps(av, b0));
            c[2 * ii + 1] = _mm256_add_ps(c[2 * ii + 1], _mm256_mul_ps(av, b1));
        }
        ap = ap.wrapping_add(cs_a);
        bp = bp.add(16);
    }
    for ii in 0..6 {
        _mm256_storeu_ps(acc.add(ii * 16), c[2 * ii]);
        _mm256_storeu_ps(acc.add(ii * 16 + 8), c[2 * ii + 1]);
    }
}

/// 6x8 `f64` tile on AVX2. See [`super::portable::micro`] for the operand
/// contract.
///
/// # Safety
///
/// Same operand/tile validity requirements as the portable kernel, plus
/// the CPU must support AVX2 (dispatch checks [`have_avx2`]).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn micro_f64_avx2(
    k: usize,
    a: *const f64,
    rs_a: usize,
    cs_a: usize,
    b: *const f64,
    acc: *mut f64,
) {
    let mut c = [_mm256_setzero_pd(); 12];
    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        let b0 = _mm256_loadu_pd(bp);
        let b1 = _mm256_loadu_pd(bp.add(4));
        for ii in 0..6 {
            let av = _mm256_set1_pd(*ap.add(ii * rs_a));
            c[2 * ii] = _mm256_add_pd(c[2 * ii], _mm256_mul_pd(av, b0));
            c[2 * ii + 1] = _mm256_add_pd(c[2 * ii + 1], _mm256_mul_pd(av, b1));
        }
        ap = ap.wrapping_add(cs_a);
        bp = bp.add(8);
    }
    for ii in 0..6 {
        _mm256_storeu_pd(acc.add(ii * 8), c[2 * ii]);
        _mm256_storeu_pd(acc.add(ii * 8 + 4), c[2 * ii + 1]);
    }
}
