//! Floating-point scalar abstraction.
//!
//! The workspace only ever computes with `f32` (network weights, fields) and
//! `f64` (geometric predicates, small dense solves), so instead of depending
//! on `num-traits` we define the minimal trait surface those kernels need.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point scalar usable in the dense kernels of this crate.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for the type.
    const EPSILON: Self;
    /// Packed-GEMM register-tile height (rows per A micro-panel).
    const GEMM_MR: usize;
    /// Packed-GEMM register-tile width (columns per B micro-panel).
    const GEMM_NR: usize;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Raise to an integer power.
    fn powi(self, n: i32) -> Self;
    /// Maximum of two values (NaN-propagating like `f64::max` is not; uses IEEE max).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// `true` if the value is finite.
    fn is_finite(self) -> bool;
    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Lossy conversion from `usize`.
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
    /// Native (SIMD) GEMM microkernels compiled for this target, in
    /// preference order; runtime dispatch takes the first whose CPU check
    /// passes. Empty on targets with no native kernel.
    fn gemm_native_kernels() -> &'static [crate::kernel::NativeKernel<Self>];
}

macro_rules! impl_scalar {
    ($t:ty, $mr:expr, $nr:expr, $native:ident) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const GEMM_MR: usize = $mr;
            const GEMM_NR: usize = $nr;

            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            fn gemm_native_kernels() -> &'static [crate::kernel::NativeKernel<Self>] {
                &crate::kernel::$native
            }
        }
    };
}

// Tile geometry: 6x16 f32 / 6x8 f64 fills the 16-register SIMD file of
// AVX2 and NEON (12 accumulators + operand temporaries); AVX-512 holds a
// tile row per register. Every kernel shares the geometry so B's packing
// and the row chunking are kernel-independent.
impl_scalar!(f32, 6, 16, F32_NATIVE);
impl_scalar!(f64, 6, 8, F64_NATIVE);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_primitives() {
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(f64::ONE, 1.0f64);
        assert_eq!(<f32 as Scalar>::EPSILON, f32::EPSILON);
    }

    #[test]
    fn conversions_round_trip() {
        let x = 3.25f64;
        assert_eq!(f64::from_f64(x).to_f64(), x);
        assert_eq!(f32::from_f64(0.5).to_f64(), 0.5);
        assert_eq!(f32::from_usize(7), 7.0);
    }

    #[test]
    fn basic_ops_dispatch() {
        assert_eq!((-2.0f32).abs(), 2.0);
        assert_eq!(9.0f64.sqrt(), 3.0);
        assert_eq!(2.0f32.powi(3), 8.0);
        assert!(1.0f64.is_finite());
        assert!(!(f64::INFINITY).is_finite());
        assert_eq!(Scalar::max(1.0f32, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0f64, 2.0), 1.0);
    }
}
