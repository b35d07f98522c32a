//! Portable (scalar) microkernel — the reference every SIMD kernel must
//! match bitwise.
//!
//! One register tile is `MR x NR` accumulators. For each reduction step
//! `p` (ascending) the kernel reads one A value per tile row straight from
//! the operand (through its strides) and multiplies it against the
//! `NR`-wide packed right-hand row, adding the product into the tile with a
//! separate (unfused) add. Every output element therefore accumulates its
//! `k` terms as one chain `((a[0]*b[0]) + a[1]*b[1]) + ...` in ascending
//! `p` order — the workspace-wide canonical order (DESIGN.md §15). SIMD
//! kernels evaluate the same chains lane-parallel with unfused mul/add, so
//! they round identically.

use crate::scalar::Scalar;

/// Compute a full `MR x NR` tile: `acc = A_rows * B_panel`.
///
/// `a` points at element `(0, 0)` of the tile's `MR` rows of A, read in
/// place: element `(i, p)` is `*a.add(i * rs_a + p * cs_a)`. `b` is a
/// packed B panel (`k * NR`, layout `p*NR + j`), `acc` an `MR * NR`
/// row-major tile that is overwritten (not accumulated into).
///
/// # Safety
///
/// `a` must be valid for reads at every `i * rs_a + p * cs_a` with
/// `i < MR`, `p < k`; `b` for `k * NR` reads and `acc` for `MR * NR`
/// writes, where `MR`/`NR` are `T::GEMM_MR`/`T::GEMM_NR`.
pub unsafe fn micro<T: Scalar>(
    k: usize,
    a: *const T,
    rs_a: usize,
    cs_a: usize,
    b: *const T,
    acc: *mut T,
) {
    let mr = T::GEMM_MR;
    let nr = T::GEMM_NR;
    let b = std::slice::from_raw_parts(b, k * nr);
    let acc = std::slice::from_raw_parts_mut(acc, mr * nr);
    acc.fill(T::ZERO);
    for (p, brow) in b.chunks_exact(nr).enumerate() {
        for ii in 0..mr {
            let av = *a.add(ii * rs_a + p * cs_a);
            let tile_row = &mut acc[ii * nr..(ii + 1) * nr];
            for (cv, &bv) in tile_row.iter_mut().zip(brow) {
                // Mul then add, never fused: FMA's single rounding would
                // diverge from this chain and break cross-kernel identity.
                *cv += av * bv;
            }
        }
    }
}
