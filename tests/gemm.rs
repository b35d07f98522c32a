//! Kernel-parity property suite for the packed-GEMM layer.
//!
//! The determinism contract (DESIGN.md §15) says every matrix product
//! computes, per output element, one ascending-order mul-then-add chain —
//! independent of microkernel, packing geometry, fallback path, and thread
//! count. This suite pins that contract *bitwise* against a naive
//! reference, over adversarial shapes (single row/column, empty reduction,
//! tall/skinny, dimensions that are not a multiple of any tile size) for
//! every product variant (`A*B`, `A*B^T`, `A^T*B`), for both scalar types,
//! under every kernel this host can run (`detected_kernels`), at pool
//! widths 1 and 4. Every row remainder `m mod MR` is covered, including
//! shapes whose last parallel row chunk is shorter than one tile (the
//! microkernels read A in place, so a ragged last panel shifts up into rows
//! another panel owns). The fused bias+activation epilogue is covered with
//! and without the separate pre-activation output. `scripts/ci.sh` additionally re-runs the whole
//! suite under `FV_GEMM_KERNEL=<name>` for every detected kernel and under
//! `FV_THREADS=4`, covering the env-driven dispatch path on top of the
//! in-process `force_kernel` hook used here.

use fillvoid::linalg::{active_kernel_name, detected_kernels, force_kernel, GemmScratch, Matrix};
use proptest::prelude::*;
use std::sync::Mutex;

/// `force_kernel` is process-global; serialize the tests that flip it so a
/// concurrently running test never observes a half-configured comparison.
/// (Values would still match — the kernels are bitwise-identical — but the
/// *labels* in failure messages would lie.)
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Adversarial shapes `(m, n, k)` for `C[m x n] = A[m x k] * B[k x n]`.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 17, 9),    // single output row
    (33, 1, 7),    // single output column
    (5, 5, 0),     // empty reduction: exact zeros everywhere
    (0, 8, 4),     // no rows
    (8, 0, 4),     // no columns
    (200, 3, 4),   // tall/skinny, below the pack gate
    (3, 200, 5),   // short/wide, below the pack gate
    (13, 21, 17),  // packed, no dim a multiple of MR or NR
    (97, 33, 31),  // packed, ragged tiles in both directions
    (64, 64, 23),  // the paper's forward shape class
    (6, 16, 8),    // exactly one f32 tile
    (7, 17, 8),    // one tile plus a ragged fringe
    (128, 96, 96), // clears the min-work threshold: parallel chunking
    // Every `m mod 6` (the tile height of both scalar types) just above one
    // tile (13 is above); A is read in place, so a ragged last panel
    // shifts up.
    (6, 40, 20),
    (7, 40, 20),
    (8, 40, 20),
    (9, 40, 20),
    (10, 40, 20),
    (11, 40, 20),
    (12, 40, 20),
    // Parallel, and the last row chunk is shorter than a tile: with 64
    // deterministic chunks, 385..=389 rows make 12-row chunks and a last
    // chunk of 1..=5 rows, whose shifted panel reads the previous chunk.
    (385, 48, 64),
    (386, 40, 57),
    (387, 48, 64),
    (388, 33, 70),
    (389, 48, 64),
];

/// Force each detected kernel in turn (checking the override took) and
/// run `body` under it, then restore auto dispatch.
fn for_each_kernel<T: fillvoid::linalg::Scalar>(mut body: impl FnMut(&'static str)) {
    for name in detected_kernels::<T>() {
        force_kernel(Some(name));
        assert_eq!(
            active_kernel_name::<T>(),
            name,
            "force_kernel({name}) did not take"
        );
        body(name);
    }
    force_kernel(None);
}

macro_rules! parity_suite {
    ($modname:ident, $t:ty) => {
        mod $modname {
            use super::*;

            type S = $t;

            /// Deterministic pseudo-random values exercising the full
            /// mantissa (exact values don't matter; bit-identity does).
            fn fill(len: usize, seed: u32) -> Vec<S> {
                let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
                (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                        (((state >> 8) as f64 / (1u64 << 24) as f64) * 2.0 - 1.0) as S
                    })
                    .collect()
            }

            /// Canonical-order naive product: one accumulator per element,
            /// `p` ascending, unfused mul then add.
            fn reference(m: usize, n: usize, k: usize, a: &[S], b: &[S]) -> Vec<S> {
                let mut c = vec![0.0 as S; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut s = 0.0 as S;
                        for p in 0..k {
                            s += a[i * k + p] * b[p * n + j];
                        }
                        c[i * n + j] = s;
                    }
                }
                c
            }

            /// Store logical `rows x cols` data transposed (`cols x rows`).
            fn transpose_store(rows: usize, cols: usize, v: &[S]) -> Vec<S> {
                let mut t = vec![0.0 as S; v.len()];
                for r in 0..rows {
                    for c in 0..cols {
                        t[c * rows + r] = v[r * cols + c];
                    }
                }
                t
            }

            fn bits(v: &[S]) -> Vec<u64> {
                v.iter().map(|x| x.to_bits() as u64).collect()
            }

            /// Run one product variant for the logical `A[m x k] * B[k x n]`.
            fn run_variant(
                variant: &str,
                m: usize,
                n: usize,
                k: usize,
                a: &[S],
                b: &[S],
            ) -> Vec<S> {
                let mut out = Matrix::<S>::zeros(0, 0);
                let mut scratch = GemmScratch::default();
                match variant {
                    "matmul" => {
                        let lhs = Matrix::from_vec(m, k, a.to_vec()).unwrap();
                        let rhs = Matrix::from_vec(k, n, b.to_vec()).unwrap();
                        lhs.matmul_into_with(&rhs, &mut out, &mut scratch).unwrap();
                    }
                    "matmul_transpose_b" => {
                        let lhs = Matrix::from_vec(m, k, a.to_vec()).unwrap();
                        let rhs =
                            Matrix::from_vec(n, k, transpose_store(k, n, b)).unwrap();
                        lhs.matmul_transpose_b_into_with(&rhs, &mut out, &mut scratch)
                            .unwrap();
                    }
                    "transpose_a_matmul" => {
                        let lhs =
                            Matrix::from_vec(k, m, transpose_store(m, k, a)).unwrap();
                        let rhs = Matrix::from_vec(k, n, b.to_vec()).unwrap();
                        lhs.transpose_a_matmul_into(&rhs, &mut out, &mut scratch)
                            .unwrap();
                    }
                    other => panic!("unknown variant {other}"),
                }
                assert_eq!(out.shape(), (m, n), "{variant} output shape");
                out.into_vec()
            }

            #[test]
            fn all_variants_match_reference_bitwise_everywhere() {
                let _g = lock();
                let pools = [fv_runtime::Pool::new(1), fv_runtime::Pool::new(4)];
                for &(m, n, k) in SHAPES {
                    let a = fill(m * k, (m * 31 + n * 7 + k) as u32);
                    let b = fill(k * n, (m + n * 13 + k * 3) as u32 ^ 0x5eed);
                    let want = bits(&reference(m, n, k, &a, &b));
                    for variant in ["matmul", "matmul_transpose_b", "transpose_a_matmul"] {
                        for_each_kernel::<S>(|name| {
                            for pool in &pools {
                                let got =
                                    pool.install(|| bits(&run_variant(variant, m, n, k, &a, &b)));
                                assert_eq!(
                                    got,
                                    want,
                                    "{variant} {m}x{n}x{k} {name} width {} \
                                     diverged from canonical order",
                                    pool.num_threads()
                                );
                            }
                        });
                    }
                }
            }

            #[test]
            fn fused_bias_act_epilogue_matches_two_pass_reference() {
                let _g = lock();
                let act = |v: S| if v > 0.0 { v } else { (0.125 as S) * v };
                let pools = [fv_runtime::Pool::new(1), fv_runtime::Pool::new(4)];
                // Fallback-sized, packed with ragged tiles, `m mod 6 == 1`,
                // and a parallel product with a ragged last row chunk.
                let shapes = [
                    (37usize, 6usize, 8usize),
                    (64, 48, 23),
                    (1, 5, 3),
                    (13, 40, 20),
                    (389, 48, 64),
                ];
                for (m, n, k) in shapes {
                    let a = fill(m * k, 77);
                    // Weights stored [n, k] (one row per output unit).
                    let w = fill(n * k, 78);
                    let bias = fill(n, 79);
                    // Reference: canonical product, then + bias, then act.
                    let b_logical = transpose_store(n, k, &w);
                    let mut want_pre = reference(m, n, k, &a, &b_logical);
                    let mut want_act = want_pre.clone();
                    for i in 0..m {
                        for j in 0..n {
                            let z = want_pre[i * n + j] + bias[j];
                            want_pre[i * n + j] = z;
                            want_act[i * n + j] = act(z);
                        }
                    }
                    let lhs = Matrix::from_vec(m, k, a.clone()).unwrap();
                    let rhs = Matrix::from_vec(n, k, w.clone()).unwrap();
                    for_each_kernel::<S>(|name| {
                        for pool in &pools {
                            let width = pool.num_threads();
                            let mut scratch = GemmScratch::default();
                            // Training form: pre and activation split out.
                            let mut pre = Matrix::zeros(0, 0);
                            let mut out = Matrix::zeros(0, 0);
                            pool.install(|| {
                                lhs.matmul_bias_act_into_with(
                                    &rhs,
                                    &bias,
                                    act,
                                    Some(&mut pre),
                                    &mut out,
                                    &mut scratch,
                                )
                            })
                            .unwrap();
                            let tag = format!("{m}x{n}x{k} {name} width {width}");
                            assert_eq!(bits(pre.as_slice()), bits(&want_pre), "{tag} pre");
                            assert_eq!(bits(out.as_slice()), bits(&want_act), "{tag} act");
                            // Inference form: activation only, written directly.
                            let mut direct = Matrix::zeros(0, 0);
                            pool.install(|| {
                                lhs.matmul_bias_act_into_with(
                                    &rhs,
                                    &bias,
                                    act,
                                    None,
                                    &mut direct,
                                    &mut scratch,
                                )
                            })
                            .unwrap();
                            assert_eq!(
                                bits(direct.as_slice()),
                                bits(&want_act),
                                "{tag} fused inference"
                            );
                        }
                    });
                }
            }
        }
    };
}

parity_suite!(f32_parity, f32);
parity_suite!(f64_parity, f64);

#[test]
fn matvec_into_reuses_buffer_and_matches_matvec() {
    let m = Matrix::from_fn(9, 7, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.37 - 1.0);
    let x: Vec<f32> = (0..7).map(|i| i as f32 * 0.21 - 0.6).collect();
    let mut out = Vec::with_capacity(64);
    m.matvec_into(&x, &mut out).unwrap();
    assert_eq!(out, m.matvec(&x).unwrap());
    let cap = out.capacity();
    let first: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    // Reuse must neither reallocate nor change values.
    m.matvec_into(&x, &mut out).unwrap();
    assert_eq!(out.capacity(), cap);
    let second: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(first, second);
    assert!(m.matvec_into(&[1.0], &mut out).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes: every detected kernel agrees bitwise with `portable`
    /// on all three product variants (this is the cross-kernel half of the
    /// contract; the fixed SHAPES table pins each against the reference).
    #[test]
    fn random_shapes_agree_across_kernels(
        m in 0usize..34,
        n in 0usize..34,
        k in 0usize..34,
        seed in any::<u32>(),
    ) {
        let _g = lock();
        let a_logical: Vec<f32> = {
            let mut s = seed.wrapping_add(1);
            (0..m * k).map(|_| { s = s.wrapping_mul(1664525).wrapping_add(1013904223); ((s >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0 }).collect()
        };
        let b_stored: Vec<f32> = {
            let mut s = seed.wrapping_add(2);
            (0..n * k).map(|_| { s = s.wrapping_mul(1664525).wrapping_add(1013904223); ((s >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0 }).collect()
        };
        let lhs = Matrix::from_vec(m, k, a_logical).unwrap();
        let rhs_nk = Matrix::from_vec(n, k, b_stored).unwrap(); // for A * B^T
        let rhs_kn = rhs_nk.transpose(); // k x n, for A * B and (A^T)^T * B
        let run_all = || -> Vec<u32> {
            let mut scratch = GemmScratch::default();
            let mut bits = Vec::new();
            let mut out = Matrix::zeros(0, 0);
            lhs.matmul_into_with(&rhs_kn, &mut out, &mut scratch).unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            lhs.matmul_transpose_b_into_with(&rhs_nk, &mut out, &mut scratch).unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            rhs_kn.transpose_a_matmul_into(&lhs.transpose(), &mut out, &mut scratch).unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            bits
        };
        let mut runs = Vec::new();
        for_each_kernel::<f32>(|name| runs.push((name, run_all())));
        let (_, portable) = runs.last().expect("portable is always detected");
        for (name, got) in &runs {
            prop_assert_eq!(got, portable, "{} diverged from portable", name);
        }
    }
}
