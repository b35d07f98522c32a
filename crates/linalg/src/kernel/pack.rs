//! Panel packing for the GEMM layer.
//!
//! Only the right operand B is packed. A is read in place by the
//! microkernel through its strides, so the activations (the large operand)
//! are never copied. Packing B is also where the transposed right operand
//! (`A * B^T`) is absorbed: the microkernel only ever sees one B layout.
//!
//! **B panels** are `NR`-column slabs (`NR` is the scalar type's tile
//! width). Panel `u` lives at `u * NR * k` and stores
//! `buf[p * NR + j] = B[p][u*NR + j]`: at step `p` the `NR` right-hand
//! values are one contiguous vector load.
//!
//! A ragged last panel is zero-padded to full `NR`. Padding is harmless to
//! the numerics: a padded column only ever contributes to accumulator
//! lanes that are never written back, and a real element's `k`-chain never
//! contains a padded term (the reduction dimension is never padded). The
//! buffer is `clear()`ed and re-`resize()`d with zeros on every pack, so
//! stale values from a previous (larger) shape can never leak into the
//! padding lanes.

use super::Operand;
use crate::scalar::Scalar;

/// Pack the logical `k x n` right operand into `NR`-column panels.
pub(crate) fn pack_b<T: Scalar>(buf: &mut Vec<T>, b: Operand<'_, T>, n: usize, k: usize, nr: usize) {
    let panels = n.div_ceil(nr);
    buf.clear();
    buf.resize(panels * nr * k, T::ZERO);
    for u in 0..panels {
        let j0 = u * nr;
        let nv = nr.min(n - j0);
        let dst = &mut buf[u * nr * k..(u + 1) * nr * k];
        if b.trans {
            // Source is n x k row-major (`B[p][j] = data[j*ld + p]`): read
            // each source row once, scatter into the `NR`-strided panel.
            for jj in 0..nv {
                let src = &b.data[(j0 + jj) * b.ld..(j0 + jj) * b.ld + k];
                for (p, &v) in src.iter().enumerate() {
                    dst[p * nr + jj] = v;
                }
            }
        } else {
            // Source is k x n row-major: each reduction step is one memcpy.
            for p in 0..k {
                let src = &b.data[p * b.ld + j0..p * b.ld + j0 + nv];
                dst[p * nr..p * nr + nv].copy_from_slice(src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_b_layouts_agree_and_pad_with_zeros() {
        // Logical B is 3x6: B[p][j] = (p*100 + j) as f32.
        let k = 3usize;
        let n = 6usize;
        let nr = 4usize;
        let normal: Vec<f32> = (0..k * n).map(|x| ((x / n) * 100 + x % n) as f32).collect();
        let transposed: Vec<f32> = (0..n * k).map(|x| ((x % k) * 100 + x / k) as f32).collect();
        let mut buf_n = Vec::new();
        let mut buf_t = vec![9.0f32; 256];
        pack_b(&mut buf_n, Operand::normal(&normal, n), n, k, nr);
        pack_b(&mut buf_t, Operand::transposed(&transposed, k), n, k, nr);
        assert_eq!(buf_n, buf_t);
        assert_eq!(buf_n.len(), 2 * nr * k);
        // Panel 0, step p=2: columns 0..4 of row 2.
        assert_eq!(&buf_n[2 * nr..3 * nr], &[200.0, 201.0, 202.0, 203.0]);
        // Panel 1, step p=0: columns 4,5 then zero padding.
        assert_eq!(&buf_n[nr * k..nr * k + nr], &[4.0, 5.0, 0.0, 0.0]);
    }
}
