//! # fv-linalg
//!
//! A small, dependency-light dense linear-algebra substrate used by the
//! `fillvoid` workspace.
//!
//! The neural-network stack (`fv-nn`) needs fast `f32` matrix products and
//! element-wise kernels; the local radial-basis-function reconstructor
//! (`fv-interp`) needs robust `f64` solves of small dense systems. Rather
//! than pulling a large BLAS/LAPACK binding into an offline build, this crate
//! implements exactly the kernels the workspace needs:
//!
//! * [`Matrix`] — a row-major dense matrix generic over [`Scalar`]
//!   (`f32`/`f64`), with blocked and Rayon-parallel matrix multiplication.
//! * [`lu::LuDecomposition`] — LU with partial pivoting, solve and
//!   determinant.
//! * [`cholesky::Cholesky`] — Cholesky factorization for symmetric positive
//!   definite systems.
//! * [`vector`] — slice kernels (dot, axpy, norms) shared by the other
//!   modules.
//!
//! All kernels are deterministic: parallel reductions accumulate fixed-size
//! partials that are combined in a fixed order, independent of thread count.
//!
//! Hot-path kernels come in `_into` form (`matmul_into`,
//! `matmul_transpose_b_into`, `transpose_a_matmul_into`, `col_sums_into`,
//! `matmul_bias_act_into`) writing caller-provided buffers, so steady-state
//! callers (the `fv-nn` workspaces) allocate nothing per step. Whether a
//! kernel fans out to the pool is decided per call by the min-work
//! [`granularity`] policy — dispatch changes where the fixed chunk geometry
//! runs, never what it computes.

pub mod cholesky;
pub mod error;
pub mod kernel;
pub mod lu;
pub mod matrix;
pub mod scalar;
pub mod vector;

/// Re-export of the runtime's min-work dispatch policy, so downstream crates
/// (`fv-nn`, `fv-core`) can declare [`granularity::OpCounter`]s for their own
/// kernels without a direct `fv-runtime` dependency.
pub use fv_runtime::granularity;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use kernel::{active_kernel_name, detected_kernels, force_kernel, GemmScratch};
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use scalar::Scalar;
