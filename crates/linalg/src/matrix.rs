//! Row-major dense matrix; every matrix product routes through the packed
//! GEMM layer in [`crate::kernel`].
//!
//! The methods here own shape checking, output sizing, and the granularity
//! decision (inline vs. pool); the kernel module owns packing, microkernel
//! dispatch (`FV_GEMM_KERNEL`), and epilogue fusion. All products share one
//! canonical accumulation order — each output element sums its `k` terms in
//! ascending reduction order through a single accumulator, unfused mul then
//! add — so results are bitwise-identical across kernels, thread widths,
//! and the packed/fallback path split (DESIGN.md §15).

use crate::error::LinalgError;
use crate::kernel::{self, GemmScratch, Operand};
use crate::scalar::Scalar;
use fv_runtime::granularity::{go_parallel, OpCounter};
use rayon::prelude::*;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Minimum number of rows in the output before a product fans out to the
/// Rayon pool; below this the parallel overhead dominates.
const PAR_MIN_ROWS: usize = 32;

static OP_MATMUL: OpCounter = OpCounter::new("linalg.matmul");
static OP_MATMUL_TB: OpCounter = OpCounter::new("linalg.matmul_transpose_b");
static OP_TA_MATMUL: OpCounter = OpCounter::new("linalg.transpose_a_matmul");
static OP_COL_SUMS: OpCounter = OpCounter::new("linalg.col_sums");
static OP_BIAS_ACT: OpCounter = OpCounter::new("linalg.bias_act");
static OP_ELEMENTWISE: OpCounter = OpCounter::new("linalg.elementwise");

/// Record the dispatch decision for a kernel call and return whether it
/// should fan out to the pool. `rows < PAR_MIN_ROWS` always stays inline
/// (and is recorded as sequential work); larger calls go parallel when their
/// estimated scalar-op count clears the global min-work threshold.
#[inline]
fn par_dispatch(counter: &'static OpCounter, rows: usize, work: usize) -> bool {
    let big = rows >= PAR_MIN_ROWS;
    go_parallel(counter, if big { work } else { 0 }) && big
}

/// A dense, row-major matrix over an [`Scalar`] element type.
///
/// The layout is `data[r * cols + c]`; rows are contiguous, which is what the
/// inner `ikj` multiplication loop and the per-sample neural-network kernels
/// want.
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Create a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the backing row-major storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the backing row-major storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrow row `r` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a contiguous slice.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Return the transpose of this matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(T) -> T + Sync) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self += other`, returning an error on shape mismatch.
    pub fn add_assign_mat(&mut self, other: &Self) -> Result<(), LinalgError> {
        self.zip_assign(other, "add_assign", |a, b| a + b)
    }

    /// `self -= other`, returning an error on shape mismatch.
    pub fn sub_assign_mat(&mut self, other: &Self) -> Result<(), LinalgError> {
        self.zip_assign(other, "sub_assign", |a, b| a - b)
    }

    /// `self += alpha * other` (matrix axpy).
    pub fn axpy(&mut self, alpha: T, other: &Self) -> Result<(), LinalgError> {
        self.zip_assign(other, "axpy", |a, b| a + alpha * b)
    }

    fn zip_assign(
        &mut self,
        other: &Self,
        op: &'static str,
        f: impl Fn(T, T) -> T,
    ) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// Multiply every element by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> T {
        self.data
            .iter()
            .map(|&v| v * v)
            .fold(T::ZERO, |a, b| a + b)
            .sqrt()
    }

    /// Matrix product `self * rhs`.
    ///
    /// Allocating wrapper over [`Self::matmul_into`]; same packed-GEMM
    /// route, same bitwise result.
    pub fn matmul(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros(0, 0);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product with the transpose of `rhs`: `self * rhs^T`.
    ///
    /// Allocating wrapper over [`Self::matmul_transpose_b_into`]. The
    /// transposition is absorbed during panel packing; the microkernel only
    /// ever sees one layout.
    pub fn matmul_transpose_b(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_b",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros(0, 0);
        self.matmul_transpose_b_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product with the transpose of `self`: `self^T * rhs`.
    /// Allocating wrapper over [`Self::transpose_a_matmul_into`].
    pub fn transpose_a_matmul(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_a_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros(0, 0);
        let mut scratch = GemmScratch::default();
        self.transpose_a_matmul_into(rhs, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Matrix-vector product `out = self * x`, reusing `out`'s allocation.
    ///
    /// Deliberately *not* routed through the GEMM seam: an `n = 1` product
    /// would pack `k` right-hand values to feed one lane of every tile,
    /// pure overhead. The historical 4-lane [`crate::vector::dot`] kernel
    /// is already optimal for this shape and keeps `matvec`'s accumulation
    /// order unchanged.
    pub fn matvec_into(&self, x: &[T], out: &mut Vec<T>) -> Result<(), LinalgError> {
        if self.cols != x.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        out.clear();
        out.extend(self.rows_iter().map(|row| crate::vector::dot(row, x)));
        Ok(())
    }

    /// Matrix-vector product `self * x`. Allocating wrapper over
    /// [`Self::matvec_into`].
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>, LinalgError> {
        let mut out = Vec::new();
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Maximum absolute element, or zero for an empty matrix.
    pub fn max_abs(&self) -> T {
        self.data
            .iter()
            .fold(T::ZERO, |acc, &v| Scalar::max(acc, v.abs()))
    }

    /// Reshape in place, reusing the backing allocation (the capacity only
    /// grows). When `cols` is unchanged, existing rows keep their contents
    /// and new rows are zero; when `cols` changes, element positions are not
    /// preserved and the caller must overwrite the matrix fully. This is the
    /// primitive the workspace layer uses to adapt persistent buffers to a
    /// ragged final batch without heap traffic.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::ZERO);
    }

    /// `out = self * rhs`, reusing `out`'s allocation. Allocates a
    /// throwaway pack workspace; hot-path callers use
    /// [`Self::matmul_into_with`] and hold a [`GemmScratch`].
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) -> Result<(), LinalgError> {
        self.matmul_into_with(rhs, out, &mut GemmScratch::default())
    }

    /// `out = self * rhs`, reusing `out`'s allocation and `scratch`'s pack
    /// buffers (zero allocations once both are warm).
    ///
    /// The per-element accumulation order is the canonical ascending-`k`
    /// chain, a pure function of the shapes — identical across
    /// [`Self::matmul`], every `FV_GEMM_KERNEL`
    /// setting, and any thread count. The granularity policy only decides
    /// whether the fixed panel geometry runs inline or on the pool.
    pub fn matmul_into_with(
        &self,
        rhs: &Self,
        out: &mut Self,
        scratch: &mut GemmScratch<T>,
    ) -> Result<(), LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize(m, n);
        if m == 0 || n == 0 {
            return Ok(());
        }
        if k == 0 {
            out.fill_zero();
            return Ok(());
        }
        let parallel = par_dispatch(&OP_MATMUL, m, m * k * n);
        kernel::gemm(
            m,
            n,
            k,
            Operand::normal(&self.data, k),
            Operand::normal(&rhs.data, n),
            &mut out.data,
            scratch,
            parallel,
        );
        Ok(())
    }

    /// `out = self * rhs^T`, reusing `out`'s allocation. Allocates a
    /// throwaway pack workspace; hot-path callers use
    /// [`Self::matmul_transpose_b_into_with`].
    pub fn matmul_transpose_b_into(&self, rhs: &Self, out: &mut Self) -> Result<(), LinalgError> {
        self.matmul_transpose_b_into_with(rhs, out, &mut GemmScratch::default())
    }

    /// `out = self * rhs^T`, reusing `out` and `scratch`. The transposition
    /// is absorbed while packing `rhs` into column panels; accumulation
    /// order is the same canonical chain as every other product.
    pub fn matmul_transpose_b_into_with(
        &self,
        rhs: &Self,
        out: &mut Self,
        scratch: &mut GemmScratch<T>,
    ) -> Result<(), LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_b_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize(m, n);
        if m == 0 || n == 0 {
            return Ok(());
        }
        if k == 0 {
            out.fill_zero();
            return Ok(());
        }
        let parallel = par_dispatch(&OP_MATMUL_TB, m, m * k * n);
        kernel::gemm(
            m,
            n,
            k,
            Operand::normal(&self.data, k),
            Operand::transposed(&rhs.data, k),
            &mut out.data,
            scratch,
            parallel,
        );
        Ok(())
    }

    /// Fused layer-forward kernel: `pre = self * rhs^T + bias` (bias
    /// broadcast across rows) and `out = act(pre)`, both into caller-provided
    /// buffers. Allocates a throwaway pack workspace; hot-path callers use
    /// [`Self::matmul_bias_act_into_with`].
    pub fn matmul_bias_act_into(
        &self,
        rhs: &Self,
        bias: &[T],
        act: impl Fn(T) -> T + Sync,
        pre: &mut Self,
        out: &mut Self,
    ) -> Result<(), LinalgError> {
        self.matmul_bias_act_into_with(rhs, bias, act, Some(pre), out, &mut GemmScratch::default())
    }

    /// Fused forward kernel with the bias+activation epilogue applied during
    /// GEMM tile write-back (one sweep over the batch, zero allocation once
    /// warm).
    ///
    /// With `pre = Some(p)`, `p` receives the pre-activation `self * rhs^T +
    /// bias` and `out` receives its activation — training keeps both. With
    /// `pre = None`, `out` receives the activation directly — the inference
    /// path, which previously needed a separate product plus an in-place
    /// bias/act sweep. Values are identical either way (and to the historic
    /// two-pass form): each element's product is fully summed in canonical
    /// order, then the bias is added, then the activation applied.
    pub fn matmul_bias_act_into_with(
        &self,
        rhs: &Self,
        bias: &[T],
        act: impl Fn(T) -> T + Sync,
        pre: Option<&mut Self>,
        out: &mut Self,
        scratch: &mut GemmScratch<T>,
    ) -> Result<(), LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bias_act",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if bias.len() != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bias_act",
                lhs: rhs.shape(),
                rhs: (bias.len(), 1),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize(m, n);
        let (c, aux) = match pre {
            Some(p) => {
                p.resize(m, n);
                (&mut p.data[..], Some(&mut out.data[..]))
            }
            None => (&mut out.data[..], None),
        };
        if m == 0 || n == 0 {
            return Ok(());
        }
        let parallel = par_dispatch(&OP_BIAS_ACT, m, m * k * n);
        kernel::gemm_bias_act(
            m,
            n,
            k,
            Operand::normal(&self.data, k),
            Operand::transposed(&rhs.data, k),
            bias,
            &act,
            c,
            aux,
            scratch,
            parallel,
        );
        Ok(())
    }

    /// In-place tail of the fused forward for inference: `self[r][c] =
    /// act(self[r][c] + bias[c])`. Pair with [`Self::matmul_transpose_b_into`]
    /// when the pre-activation does not need to be kept.
    pub fn bias_act_inplace(
        &mut self,
        bias: &[T],
        act: impl Fn(T) -> T + Sync,
    ) -> Result<(), LinalgError> {
        if bias.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "bias_act_inplace",
                lhs: self.shape(),
                rhs: (bias.len(), 1),
            });
        }
        let (m, n) = self.shape();
        let fuse = |row: &mut [T]| {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = act(*v + b);
            }
        };
        if par_dispatch(&OP_BIAS_ACT, m, m * n) {
            self.data.par_chunks_mut(n).for_each(fuse);
        } else {
            self.data.chunks_mut(n).for_each(fuse);
        }
        Ok(())
    }

    /// Elementwise `self[i] = f(self[i], other[i])` with granularity-aware
    /// dispatch. `f` must be a pure per-element function, which makes the
    /// result independent of how the elements are chunked.
    pub fn zip_apply(
        &mut self,
        other: &Self,
        f: impl Fn(T, T) -> T + Sync,
    ) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "zip_apply",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if par_dispatch(&OP_ELEMENTWISE, self.rows, self.data.len()) {
            self.data
                .par_iter_mut()
                .zip(other.data.par_iter())
                .for_each(|(a, &b)| *a = f(*a, b));
        } else {
            for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
                *a = f(*a, b);
            }
        }
        Ok(())
    }

    /// `out = self^T * rhs`, reusing `out` and `scratch`'s pack buffers.
    ///
    /// The transposition is absorbed while packing `self` into row panels
    /// (the packed layout wants `A` column-major anyway, so this variant
    /// packs *faster* than the untransposed one). Unlike the historical
    /// blocked implementation there are no per-block partial products to
    /// recombine: every output element owns a single ascending-order chain
    /// over the reduction, and parallelism splits output rows only — so
    /// results are bitwise-identical to [`Self::transpose_a_matmul`] at
    /// any thread count and under every `FV_GEMM_KERNEL` setting.
    pub fn transpose_a_matmul_into(
        &self,
        rhs: &Self,
        out: &mut Self,
        scratch: &mut GemmScratch<T>,
    ) -> Result<(), LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_a_matmul_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        out.resize(m, n);
        if m == 0 || n == 0 {
            return Ok(());
        }
        if k == 0 {
            out.fill_zero();
            return Ok(());
        }
        let parallel = par_dispatch(&OP_TA_MATMUL, m, m * k * n);
        kernel::gemm(
            m,
            n,
            k,
            Operand::transposed(&self.data, self.cols),
            Operand::normal(&rhs.data, n),
            &mut out.data,
            scratch,
            parallel,
        );
        Ok(())
    }

    /// Column sums (`out[c] = Σ_r self[r][c]`) into a caller-provided vector,
    /// using `scratch` for per-leaf partials.
    ///
    /// Replicates the runtime's deterministic reduction exactly: rows are cut
    /// into the same fixed leaves `fv_runtime::chunk_size` would produce,
    /// each leaf sums its rows in order, and `tree_combine` folds the
    /// leaves along the facade's split tree — so this is bitwise-identical
    /// to the historical `par_chunks(cols).fold(..).reduce(..)` bias
    /// gradient at any thread count, inline or on the pool.
    pub fn col_sums_into(&self, out: &mut Vec<T>, scratch: &mut Vec<T>) {
        let cols = self.cols;
        out.clear();
        out.resize(cols, T::ZERO);
        if self.rows == 0 || cols == 0 {
            return;
        }
        let chunk = fv_runtime::chunk_size(self.rows, 1, usize::MAX);
        let n_leaves = self.rows.div_ceil(chunk);
        scratch.clear();
        scratch.resize(n_leaves * cols, T::ZERO);
        let fill_leaf = |li: usize, acc: &mut [T]| {
            let r0 = li * chunk;
            let r1 = (r0 + chunk).min(self.rows);
            for row in self.data[r0 * cols..r1 * cols].chunks_exact(cols) {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
        };
        if par_dispatch(&OP_COL_SUMS, self.rows, self.rows * cols) {
            scratch
                .par_chunks_mut(cols)
                .enumerate()
                .for_each(|(li, acc)| fill_leaf(li, acc));
        } else {
            for (li, acc) in scratch.chunks_mut(cols).enumerate() {
                fill_leaf(li, acc);
            }
        }
        tree_combine(scratch, 0, n_leaves, cols);
        out.copy_from_slice(&scratch[..cols]);
    }
}

/// Combine per-leaf partial column sums along the same binary tree the
/// `rayon` facade's `drive_reduce` uses: a node over `n` leaves splits into
/// its first `n / 2` and remaining leaves, and the right child's result is
/// added element-wise into the left child's buffer. After the call the root
/// sum sits in leaf slot `lo`. Matching the facade's tree exactly is what
/// keeps [`Matrix::col_sums_into`] bitwise-identical to the historical
/// `par_chunks(width).fold(..).reduce(..)` bias-gradient reduction.
fn tree_combine<T: Scalar>(buf: &mut [T], lo: usize, n: usize, cols: usize) {
    if n <= 1 {
        return;
    }
    let nl = n / 2;
    tree_combine(buf, lo, nl, cols);
    tree_combine(buf, lo + nl, n - nl, cols);
    let (left, right) = buf.split_at_mut((lo + nl) * cols);
    let dst = &mut left[lo * cols..lo * cols + cols];
    let src = &right[..cols];
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, vals: &[f64]) -> Matrix<f64> {
        Matrix::from_vec(rows, cols, vals.to_vec()).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::<f32>::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 0.0);

        let m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 1)], 3.0);

        assert!(Matrix::<f32>::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::<f64>::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 6, |r, c| (r as f64 - c as f64) * 0.5);
        let b = Matrix::from_fn(5, 6, |r, c| (r * c) as f64 * 0.25 + 1.0);
        let fast = a.matmul_transpose_b(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
        assert!(a.matmul_transpose_b(&Matrix::zeros(3, 7)).is_err());
    }

    #[test]
    fn transpose_a_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(6, 4, |r, c| (r + 2 * c) as f64);
        let b = Matrix::from_fn(6, 3, |r, c| (r as f64) * 0.5 - c as f64);
        let fast = a.transpose_a_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
        assert!(a.transpose_a_matmul(&Matrix::zeros(3, 7)).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = mat(2, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        let x = vec![2.0, 1.0, 0.0];
        assert_eq!(a.matvec(&x).unwrap(), vec![2.0, 1.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let mut a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = mat(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        a.add_assign_mat(&b).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        a.sub_assign_mat(&b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0, 24.0]);
        a.scale(0.0);
        assert_eq!(a.max_abs(), 0.0);

        let c = mat(1, 1, &[0.0]);
        assert!(a.clone().add_assign_mat(&c).is_err());
    }

    #[test]
    fn norms() {
        let a = mat(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn map_and_fill() {
        let mut a = mat(2, 2, &[1.0, -2.0, 3.0, -4.0]);
        let b = a.map(|v| v.abs());
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        a.map_inplace(|v| v * 2.0);
        assert_eq!(a.as_slice(), &[2.0, -4.0, 6.0, -8.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_buffer() {
        let a = Matrix::from_fn(40, 17, |r, c| ((r * 5 + c * 3) % 7) as f64 - 3.0);
        let b = Matrix::from_fn(17, 11, |r, c| ((r + c * 2) % 5) as f64 * 0.5);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // A second, smaller product reuses the same buffer.
        let a2 = Matrix::from_fn(3, 17, |r, c| (r + c) as f64);
        a2.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a2.matmul(&b).unwrap());
        assert!(a.matmul_into(&Matrix::zeros(3, 3), &mut out).is_err());
    }

    #[test]
    fn matmul_transpose_b_into_matches_allocating_kernel() {
        let a = Matrix::from_fn(48, 23, |r, c| ((r * 13 + c * 5) % 9) as f32 - 4.0);
        let b = Matrix::from_fn(31, 23, |r, c| ((r * 7 + c * 11) % 5) as f32 * 0.5);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transpose_b_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul_transpose_b(&b).unwrap());
    }

    #[test]
    fn transpose_a_matmul_into_is_bitwise_stable() {
        // Both above and below the PAR_MIN_ROWS geometry switch.
        for rows in [12usize, 100] {
            let a = Matrix::from_fn(rows, 16, |r, c| ((r + c * 3) % 7) as f32 / 3.0 - 0.4);
            let b = Matrix::from_fn(rows, 12, |r, c| ((r * 2 + c) % 5) as f32 * 0.25 - 0.3);
            let reference = a.transpose_a_matmul(&b).unwrap();
            let mut out = Matrix::zeros(0, 0);
            let mut scratch = GemmScratch::default();
            a.transpose_a_matmul_into(&b, &mut out, &mut scratch).unwrap();
            for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn col_sums_into_matches_facade_fold_reduce() {
        let m = Matrix::from_fn(137, 9, |r, c| ((r * 31 + c * 17) % 23) as f32 * 0.37 - 4.0);
        let w = m.cols();
        // The historical bias-gradient reduction this kernel replaces.
        let reference: Vec<f32> = m
            .as_slice()
            .par_chunks(w)
            .fold(
                || vec![0.0f32; w],
                |mut acc, row| {
                    for (a, &g) in acc.iter_mut().zip(row) {
                        *a += g;
                    }
                    acc
                },
            )
            .reduce(
                || vec![0.0f32; w],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            );
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        m.col_sums_into(&mut out, &mut scratch);
        assert_eq!(out.len(), w);
        for (x, y) in out.iter().zip(&reference) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_bias_act_fuses_three_passes() {
        let x = Matrix::from_fn(37, 8, |r, c| ((r * 3 + c) % 11) as f32 * 0.2 - 1.0);
        let w = Matrix::from_fn(6, 8, |r, c| ((r + c * 5) % 7) as f32 * 0.3 - 0.9);
        let bias: Vec<f32> = (0..6).map(|j| j as f32 * 0.1 - 0.2).collect();
        let act = |v: f32| if v > 0.0 { v } else { 0.01 * v };
        let mut pre = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        x.matmul_bias_act_into(&w, &bias, act, &mut pre, &mut out)
            .unwrap();
        let mut want_pre = x.matmul_transpose_b(&w).unwrap();
        for r in 0..want_pre.rows() {
            for (v, &b) in want_pre.row_mut(r).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        assert_eq!(pre, want_pre);
        assert_eq!(out, want_pre.map(act));
        // Inference variant: act(x·Wᵀ + b) in place.
        let mut inplace = Matrix::zeros(0, 0);
        x.matmul_transpose_b_into(&w, &mut inplace).unwrap();
        inplace.bias_act_inplace(&bias, act).unwrap();
        assert_eq!(inplace, out);
        assert!(x
            .matmul_bias_act_into(&w, &[0.0; 3], act, &mut pre, &mut out)
            .is_err());
    }

    #[test]
    fn zip_apply_is_elementwise() {
        let mut a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = mat(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        a.zip_apply(&b, |x, y| x * y).unwrap();
        assert_eq!(a.as_slice(), &[10.0, 40.0, 90.0, 160.0]);
        assert!(a.zip_apply(&mat(1, 1, &[0.0]), |x, _| x).is_err());
    }

    #[test]
    fn resize_keeps_rows_when_cols_unchanged() {
        let mut m = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.resize(3, 3);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0, 0.0]);
        m.resize(1, 3);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_sized_matmul() {
        let a = Matrix::<f64>::zeros(0, 3);
        let b = Matrix::<f64>::zeros(3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (0, 2));
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[0.0; 4]);
    }
}
