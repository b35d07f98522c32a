//! Packed-GEMM execution layer: panel packing, register-blocked
//! microkernels, and runtime ISA dispatch.
//!
//! Every matrix-product entry point on [`crate::Matrix`] (`matmul_into`,
//! `matmul_transpose_b_into`, `transpose_a_matmul_into`,
//! `matmul_bias_act_into` and the allocating wrappers) routes through the
//! one driver in this module. The driver packs the right operand B into
//! dense column panels (the `pack` submodule), runs an `MR x NR`
//! register-tile microkernel that reads A in place through its strides,
//! and applies the epilogue (plain store, or fused bias+activation) during
//! tile write-back.
//!
//! ## Determinism contract
//!
//! Every output element accumulates its `k` product terms in strictly
//! ascending reduction order into a single accumulator, with an *unfused*
//! multiply-then-add at each step. That per-element chain is the entire
//! contract: it does not mention tiles, panels, chunk sizes, or thread
//! counts, so results are bitwise-identical across
//!
//! * microkernels (portable / AVX-512 / AVX2 / NEON — the SIMD kernels
//!   evaluate the same chains lane-parallel and avoid FMA precisely so they
//!   round identically),
//! * the packed path and the small-shape fallback paths,
//! * `FV_GEMM_KERNEL` settings, and
//! * thread widths (parallelism only ever splits output *rows*; a row's
//!   chain is never split, so there is no reduction combining step at
//!   all — even with `FV_DETERMINISTIC=0`).
//!
//! There is deliberately no k-blocking: a tile traverses the whole `k`
//! extent with register accumulators, which is what keeps the chain-order
//! argument trivial (no partial-sum recombination order to reason about).
//!
//! ## Dispatch
//!
//! `FV_GEMM_KERNEL` selects the microkernel: `auto` (default) picks the
//! first native kernel whose CPU check passes, falling back to `portable`;
//! `portable` forces the scalar reference; a kernel name (`avx512`, `avx2`,
//! `neon`) forces that kernel when available and silently degrades to
//! `auto` order otherwise. Because all kernels are bitwise-identical this
//! only ever changes speed, never values — which is also why the
//! in-process [`force_kernel`] test hook is sound.

pub(crate) mod pack;
mod portable;
#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::scalar::Scalar;
use fv_runtime::telemetry;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static TM_PACK: telemetry::Site = telemetry::Site::new("linalg.gemm.pack", None);
static TM_KERNEL: telemetry::Site = telemetry::Site::new("linalg.gemm.kernel", None);
static TM_PACK_BYTES: telemetry::Counter = telemetry::Counter::new("linalg.gemm.pack_bytes");

/// A microkernel: computes one full `MR x NR` tile, `acc = A_rows * Bpanel`,
/// overwriting `acc`. `a` points at element `(0, 0)` of `MR` rows of A,
/// read in place: element `(i, p)` is at `a + i * rs_a + p * cs_a`
/// (row-major A is `(ld, 1)`, stored-transposed A is `(1, ld)`). `b`
/// points at a packed B panel (`k * NR`, layout `p*NR + j`), `acc` at an
/// `MR * NR` row-major tile.
pub type MicroFn<T> =
    unsafe fn(k: usize, a: *const T, rs_a: usize, cs_a: usize, b: *const T, acc: *mut T);

/// One native (SIMD) microkernel with its runtime availability check.
/// [`Scalar::gemm_native_kernels`] exposes the per-type table; `auto`
/// dispatch takes the first entry whose `detect` passes.
pub struct NativeKernel<T: 'static> {
    /// Name matched against `FV_GEMM_KERNEL` (e.g. `avx512`, `avx2`, `neon`).
    pub name: &'static str,
    /// Runtime CPU-capability check.
    pub detect: fn() -> bool,
    /// The kernel entry point.
    pub micro: MicroFn<T>,
}

/// Upper bound on `MR * NR` across all scalar types, sizing the one
/// stack-allocated tile buffer the driver reuses for every panel pair.
pub(crate) const MAX_TILE: usize = 96;

#[cfg(target_arch = "x86_64")]
pub(crate) static F32_NATIVE: [NativeKernel<f32>; 2] = [
    NativeKernel {
        name: "avx512",
        detect: x86::have_avx512,
        micro: x86::micro_f32_avx512,
    },
    NativeKernel {
        name: "avx2",
        detect: x86::have_avx2,
        micro: x86::micro_f32_avx2,
    },
];
#[cfg(target_arch = "x86_64")]
pub(crate) static F64_NATIVE: [NativeKernel<f64>; 2] = [
    NativeKernel {
        name: "avx512",
        detect: x86::have_avx512,
        micro: x86::micro_f64_avx512,
    },
    NativeKernel {
        name: "avx2",
        detect: x86::have_avx2,
        micro: x86::micro_f64_avx2,
    },
];

#[cfg(target_arch = "aarch64")]
pub(crate) static F32_NATIVE: [NativeKernel<f32>; 1] = [NativeKernel {
    name: "neon",
    detect: neon::have_neon,
    micro: neon::micro_f32,
}];
#[cfg(target_arch = "aarch64")]
pub(crate) static F64_NATIVE: [NativeKernel<f64>; 1] = [NativeKernel {
    name: "neon",
    detect: neon::have_neon,
    micro: neon::micro_f64,
}];

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) static F32_NATIVE: [NativeKernel<f32>; 0] = [];
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) static F64_NATIVE: [NativeKernel<f64>; 0] = [];

/// `FV_GEMM_KERNEL`, read once, lower-cased.
fn env_choice() -> &'static str {
    static RAW: OnceLock<String> = OnceLock::new();
    RAW.get_or_init(|| {
        std::env::var("FV_GEMM_KERNEL")
            .unwrap_or_default()
            .trim()
            .to_ascii_lowercase()
    })
}

/// In-process kernel override for tests and benchmarks (environment
/// variables are awkward to vary within one process). `Some(name)` selects
/// a kernel exactly as `FV_GEMM_KERNEL=name` would (`"portable"`, `"auto"`
/// or a native kernel name such as `"avx2"`; a native kernel this CPU lacks
/// degrades to `auto` order). `None` restores `FV_GEMM_KERNEL`/auto
/// behavior. Loop over [`detected_kernels`] to cover every usable kernel.
///
/// Sound to flip at any time from any thread *because* all kernels are
/// bitwise-identical: concurrent GEMMs may pick different kernels but
/// never different values.
///
/// # Panics
///
/// On a name that is neither `"auto"`, `"portable"` nor a native kernel
/// compiled for this target, so a typo cannot silently test `auto`.
pub fn force_kernel(name: Option<&str>) {
    let code = match name {
        None => 0,
        Some(name) => {
            1 + forceable_names()
                .position(|known| known == name)
                .unwrap_or_else(|| panic!("force_kernel: unknown GEMM kernel {name:?}"))
        }
    };
    FORCE.store(code, Ordering::SeqCst);
}

/// `0` = no override, else `1 +` the position in [`forceable_names`].
static FORCE: AtomicUsize = AtomicUsize::new(0);

/// Every name [`force_kernel`] accepts. The `f32` and `f64` tables list the
/// same native kernels in the same order.
fn forceable_names() -> impl Iterator<Item = &'static str> {
    ["auto", "portable"]
        .into_iter()
        .chain(F32_NATIVE.iter().map(|nk| nk.name))
}

/// Resolve the active `(name, microkernel)` pair for `T`.
fn select<T: Scalar>() -> (&'static str, MicroFn<T>) {
    let choice = match FORCE.load(Ordering::SeqCst) {
        0 => env_choice(),
        code => forceable_names().nth(code - 1).expect("stored by force_kernel"),
    };
    let portable: (&'static str, MicroFn<T>) = ("portable", portable::micro::<T>);
    if choice == "portable" {
        return portable;
    }
    let mut usable = T::gemm_native_kernels().iter().filter(|nk| (nk.detect)());
    let first = usable.clone().next();
    usable
        .find(|nk| nk.name == choice)
        .or(first)
        .map_or(portable, |nk| (nk.name, nk.micro))
}

/// Name of the kernel the dispatcher would run for `T` right now
/// (`"portable"`, `"avx512"`, `"avx2"`, `"neon"`). Benchmarks report this
/// as the chosen ISA.
pub fn active_kernel_name<T: Scalar>() -> &'static str {
    select::<T>().0
}

/// Names of every kernel usable for `T` on this host: each native kernel
/// whose CPU check passes, then `"portable"`.
pub fn detected_kernels<T: Scalar>() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = T::gemm_native_kernels()
        .iter()
        .filter(|nk| (nk.detect)())
        .map(|nk| nk.name)
        .collect();
    names.push("portable");
    names
}

/// Reusable pack-buffer workspace. Hot-path callers (the fv-nn
/// workspaces) hold one per training/inference loop so steady-state GEMMs
/// allocate nothing: `pack_b` is `resize`d each call but only grows
/// capacity the first time a shape is seen. A is never packed.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch<T: Scalar> {
    pack_b: Vec<T>,
    calls: u64,
    grows: u64,
}

impl<T: Scalar> GemmScratch<T> {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packed GEMM calls driven through this scratch.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Calls that had to grow the pack buffer's capacity.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Calls served entirely from an already-sized buffer — the pack-buffer
    /// reuse count benchmarks report.
    pub fn reuses(&self) -> u64 {
        self.calls - self.grows
    }
}

/// A borrowed GEMM operand: logical matrix view over a row-major slice.
///
/// * `trans == false`: logical `(r, c)` element is `data[r * ld + c]`.
/// * `trans == true`: the logical matrix is the transpose of the stored
///   one — logical `(r, c)` is `data[c * ld + r]`.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a, T> {
    pub(crate) data: &'a [T],
    pub(crate) ld: usize,
    pub(crate) trans: bool,
}

impl<'a, T> Operand<'a, T> {
    /// View `data` as stored: row-major with row stride `ld`.
    pub(crate) fn normal(data: &'a [T], ld: usize) -> Self {
        Self { data, ld, trans: false }
    }

    /// View `data` as the transpose of the stored row-major matrix.
    pub(crate) fn transposed(data: &'a [T], ld: usize) -> Self {
        Self { data, ld, trans: true }
    }

    /// `(row stride, column stride)` of the logical matrix in `data`.
    fn strides(&self) -> (usize, usize) {
        if self.trans {
            (1, self.ld)
        } else {
            (self.ld, 1)
        }
    }
}

/// Fused bias+activation epilogue arguments.
struct BiasActArgs<'a, T, F> {
    bias: &'a [T],
    act: &'a F,
}

impl<T, F> Clone for BiasActArgs<'_, T, F> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, F> Copy for BiasActArgs<'_, T, F> {}

/// Shapes below this go straight to the unpacked fallback paths: packing
/// B costs more than it saves when the tile grid is ragged or the
/// reduction is short. `m >= MR` lets the ragged last row panel shift up
/// inside A (see [`compute_block`]). Pure function of the shape, so path
/// choice is deterministic.
fn use_packed(m: usize, n: usize, k: usize, mr: usize) -> bool {
    m >= mr && n >= 8 && k >= 8 && m * n * k >= 4096
}

/// Plain product: `C (m x n) = A (m x k) * B (k x n)`, epilogue-free.
/// `parallel` fans the fixed row-chunk geometry out to the pool.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    run::<T, fn(T) -> T>(m, n, k, a, b, c, None, None, scratch, parallel);
}

/// Product with fused epilogue: `Z = A * B + bias` (bias broadcast across
/// rows), then activation. With `act_out = Some(aux)`, `c` receives the
/// pre-activation `Z` and `aux` receives `act(Z)` (training needs both);
/// with `None`, `c` receives `act(Z)` directly (inference).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias_act<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    bias: &[T],
    act: &F,
    c: &mut [T],
    act_out: Option<&mut [T]>,
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    debug_assert_eq!(bias.len(), n);
    run(m, n, k, a, b, c, act_out, Some(BiasActArgs { bias, act }), scratch, parallel);
}

#[allow(clippy::too_many_arguments)]
fn run<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    aux: Option<&mut [T]>,
    fuse: Option<BiasActArgs<'_, T, F>>,
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert!(!(a.trans && b.trans), "A^T * B^T is never emitted");
    if let Some(aux) = &aux {
        debug_assert_eq!(aux.len(), m * n);
    }
    if m == 0 || n == 0 {
        return;
    }
    if use_packed(m, n, k, T::GEMM_MR) {
        run_packed(m, n, k, a, b, c, aux, fuse, scratch, parallel);
    } else {
        run_fallback(m, n, k, a, b, c, aux, fuse, parallel);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_packed<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    aux: Option<&mut [T]>,
    fuse: Option<BiasActArgs<'_, T, F>>,
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    let mr = T::GEMM_MR;
    let nr = T::GEMM_NR;
    debug_assert!(mr * nr <= MAX_TILE);
    // The microkernels read A through raw pointers: every tile reads MR
    // whole rows (a ragged last panel shifts up, so `m >= MR`), and the
    // last element of A must lie inside `a.data`.
    let (rs_a, cs_a) = a.strides();
    assert!(m >= mr && a.data.len() > (m - 1) * rs_a + (k - 1) * cs_a);
    let (_name, micro) = select::<T>();

    scratch.calls += 1;
    {
        let _pack_span = TM_PACK.span();
        let need_b = n.div_ceil(nr) * nr * k;
        if need_b > scratch.pack_b.capacity() {
            scratch.grows += 1;
        }
        pack::pack_b(&mut scratch.pack_b, b, n, k, nr);
        TM_PACK_BYTES.add((need_b * std::mem::size_of::<T>()) as u64);
    }

    let _kernel_span = TM_KERNEL.span();
    let pb: &[T] = &scratch.pack_b;
    let rows_chunk = fv_runtime::granularity::panel_rows(m, mr);
    let block = |bi: usize, cb: &mut [T], ab: Option<&mut [T]>| {
        compute_block(cb, ab, bi * rows_chunk, a, pb, n, k, mr, nr, micro, fuse);
    };
    drive(c, aux, n, rows_chunk, parallel, &block);
}

/// A row-chunk worker: `(chunk_index, c_chunk, aux_chunk)`.
type BlockFn<'a, T> = &'a (dyn Fn(usize, &mut [T], Option<&mut [T]>) + Sync);

/// Run `block(chunk_index, c_chunk, aux_chunk)` over row chunks of
/// `rows_chunk` rows, inline or on the pool. The chunk geometry is
/// identical either way; only *where* chunks execute changes.
fn drive<T: Scalar>(
    c: &mut [T],
    aux: Option<&mut [T]>,
    n: usize,
    rows_chunk: usize,
    parallel: bool,
    block: BlockFn<'_, T>,
) {
    let chunk = rows_chunk * n;
    match (parallel, aux) {
        (true, Some(aux)) => c
            .par_chunks_mut(chunk)
            .zip(aux.par_chunks_mut(chunk))
            .enumerate()
            .for_each(|(bi, (cb, ab))| block(bi, cb, Some(ab))),
        (true, None) => c
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(bi, cb)| block(bi, cb, None)),
        (false, Some(aux)) => c
            .chunks_mut(chunk)
            .zip(aux.chunks_mut(chunk))
            .enumerate()
            .for_each(|(bi, (cb, ab))| block(bi, cb, Some(ab))),
        (false, None) => c
            .chunks_mut(chunk)
            .enumerate()
            .for_each(|(bi, cb)| block(bi, cb, None)),
    }
}

/// Compute one row-chunk of C (global rows `r0..r0 + rows`): loop over
/// the chunk's `MR`-row panels of A (read in place) x all packed B panels,
/// microkernel per tile, epilogue at write-back.
///
/// A ragged last panel is shifted up so it ends at the chunk's last row:
/// the tile then recomputes up to `MR - 1` rows that an earlier panel (or
/// another chunk) owns, bit for bit the same values since each element is
/// one fixed chain, and writes back only its own rows. That needs
/// `m >= MR`, which `use_packed` requires and `run_packed` asserts.
#[allow(clippy::too_many_arguments)]
fn compute_block<T: Scalar, F: Fn(T) -> T>(
    cb: &mut [T],
    mut ab: Option<&mut [T]>,
    r0: usize,
    a: Operand<'_, T>,
    pb: &[T],
    n: usize,
    k: usize,
    mr: usize,
    nr: usize,
    micro: MicroFn<T>,
    fuse: Option<BiasActArgs<'_, T, F>>,
) {
    let rows_in = cb.len() / n;
    let col_panels = n.div_ceil(nr);
    let (rs_a, cs_a) = a.strides();
    let mut acc = [T::ZERO; MAX_TILE];
    for lp in 0..rows_in.div_ceil(mr) {
        let i0 = lp * mr;
        let mv = mr.min(rows_in - i0);
        // Tile rows `skip..mr` are chunk rows `i0..i0 + mv`.
        let skip = mr - mv;
        let a_row = r0 + i0 - skip;
        for u in 0..col_panels {
            let j0 = u * nr;
            let nv = nr.min(n - j0);
            // SAFETY: A rows `a_row..a_row + mr` lie in `0..m`: only the
            // last chunk (chunks are whole panels) has a ragged panel, it
            // ends at row `m`, and `run_packed` asserted `m >= mr` and that
            // element `(m-1, k-1)` is inside `a.data`. The B panel offset
            // is in bounds by construction (pack_b sized the buffer for
            // exactly `col_panels` panels) and `acc` holds
            // MAX_TILE >= mr*nr elements.
            unsafe {
                micro(
                    k,
                    a.data.as_ptr().add(a_row * rs_a),
                    rs_a,
                    cs_a,
                    pb.as_ptr().add(u * nr * k),
                    acc.as_mut_ptr(),
                )
            };
            for ii in 0..mv {
                let row0 = (i0 + ii) * n + j0;
                let tile = &acc[(skip + ii) * nr..(skip + ii) * nr + nv];
                match fuse {
                    None => cb[row0..row0 + nv].copy_from_slice(tile),
                    Some(f) => {
                        let bias = &f.bias[j0..j0 + nv];
                        match ab.as_deref_mut() {
                            Some(aux) => {
                                for x in 0..nv {
                                    let z = tile[x] + bias[x];
                                    cb[row0 + x] = z;
                                    aux[row0 + x] = (f.act)(z);
                                }
                            }
                            None => {
                                for x in 0..nv {
                                    cb[row0 + x] = (f.act)(tile[x] + bias[x]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_fallback<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    aux: Option<&mut [T]>,
    fuse: Option<BiasActArgs<'_, T, F>>,
    parallel: bool,
) {
    let _kernel_span = TM_KERNEL.span();
    let rows_chunk = fv_runtime::granularity::panel_rows(m, T::GEMM_MR);
    let block = |bi: usize, cb: &mut [T], ab: Option<&mut [T]>| {
        fallback_product(cb, bi * rows_chunk, a, b, n, k);
        if let Some(f) = fuse {
            epilogue_rows(cb, ab, n, f);
        }
    };
    drive(c, aux, n, rows_chunk, parallel, &block);
}

/// Unpacked product for small shapes. Each variant walks the reduction in
/// ascending order with one accumulator chain per element — the same
/// canonical order the microkernels compute, so both paths are bitwise
/// interchangeable.
fn fallback_product<T: Scalar>(
    cb: &mut [T],
    r0: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    n: usize,
    k: usize,
) {
    let rows_in = cb.len() / n;
    if a.trans {
        // C = A^T_stored * B: rank-1 updates, p ascending.
        cb.fill(T::ZERO);
        for p in 0..k {
            let arow = &a.data[p * a.ld + r0..p * a.ld + r0 + rows_in];
            let brow = &b.data[p * b.ld..p * b.ld + n];
            for (i, &av) in arow.iter().enumerate() {
                crate::vector::axpy(av, brow, &mut cb[i * n..(i + 1) * n]);
            }
        }
    } else if b.trans {
        // C = A * B^T_stored: per-element dot chains, four independent
        // output columns in flight to hide FP latency (each element still
        // owns exactly one chain).
        for i in 0..rows_in {
            let arow = &a.data[(r0 + i) * a.ld..(r0 + i) * a.ld + k];
            let crow = &mut cb[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &b.data[j * b.ld..j * b.ld + k];
                let b1 = &b.data[(j + 1) * b.ld..(j + 1) * b.ld + k];
                let b2 = &b.data[(j + 2) * b.ld..(j + 2) * b.ld + k];
                let b3 = &b.data[(j + 3) * b.ld..(j + 3) * b.ld + k];
                let (mut s0, mut s1, mut s2, mut s3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
                for (p, &av) in arow.iter().enumerate() {
                    s0 += av * b0[p];
                    s1 += av * b1[p];
                    s2 += av * b2[p];
                    s3 += av * b3[p];
                }
                crow[j] = s0;
                crow[j + 1] = s1;
                crow[j + 2] = s2;
                crow[j + 3] = s3;
                j += 4;
            }
            for (jj, cv) in crow.iter_mut().enumerate().skip(j) {
                let brow = &b.data[jj * b.ld..jj * b.ld + k];
                let mut s = T::ZERO;
                for (p, &av) in arow.iter().enumerate() {
                    s += av * brow[p];
                }
                *cv = s;
            }
        }
    } else {
        // C = A * B: row-times-matrix as axpy sweeps, p ascending.
        cb.fill(T::ZERO);
        for i in 0..rows_in {
            let arow = &a.data[(r0 + i) * a.ld..(r0 + i) * a.ld + k];
            let crow = &mut cb[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                crate::vector::axpy(av, &b.data[p * b.ld..p * b.ld + n], crow);
            }
        }
    }
}

/// Bias+activation pass for the fallback path (the packed path fuses this
/// into tile write-back; values are identical: full product, then `+bias`,
/// then `act`).
fn epilogue_rows<T: Scalar, F: Fn(T) -> T>(
    cb: &mut [T],
    ab: Option<&mut [T]>,
    n: usize,
    f: BiasActArgs<'_, T, F>,
) {
    match ab {
        Some(aux) => {
            for (crow, arow) in cb.chunks_mut(n).zip(aux.chunks_mut(n)) {
                for ((cv, av), &bv) in crow.iter_mut().zip(arow.iter_mut()).zip(f.bias) {
                    let z = *cv + bv;
                    *cv = z;
                    *av = (f.act)(z);
                }
            }
        }
        None => {
            for crow in cb.chunks_mut(n) {
                for (cv, &bv) in crow.iter_mut().zip(f.bias) {
                    *cv = (f.act)(*cv + bv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: single chain per element, ascending p — the
    /// canonical order.
    fn reference(m: usize, n: usize, k: usize, av: &[f32], bv: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += av[i * k + p] * bv[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic, fully exercising mantissa bits.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn packed_matches_reference_bitwise_for_every_kernel() {
        let (m, n, k) = (13, 21, 17);
        let av = fill(m * k, 1);
        let bv = fill(k * n, 2);
        let want = reference(m, n, k, &av, &bv);
        for name in detected_kernels::<f32>() {
            force_kernel(Some(name));
            assert_eq!(active_kernel_name::<f32>(), name);
            let mut c = vec![f32::NAN; m * n];
            let mut scratch = GemmScratch::default();
            gemm(
                m,
                n,
                k,
                Operand::normal(&av, k),
                Operand::normal(&bv, n),
                &mut c,
                &mut scratch,
                false,
            );
            assert_eq!(c, want, "kernel {name} diverged from canonical order");
        }
        force_kernel(None);
    }

    /// A is read in place through its strides, so a sub-view works without
    /// a copy: row-major A with `ld > k` (a column block of a wider matrix)
    /// and stored-transposed A with `ld > m`. Covers every `m mod MR` and a
    /// parallel product whose last row chunk (5 rows) is shorter than a
    /// tile, under every detected kernel at pool widths 1 and 4.
    #[test]
    fn strided_a_sub_views_match_reference_bitwise() {
        let pools = [fv_runtime::Pool::new(1), fv_runtime::Pool::new(4)];
        let shapes = (6..=13).map(|m| (m, 40, 20)).chain([(389, 48, 64)]);
        for (m, n, k) in shapes {
            let av = fill(m * k, m as u32);
            let bv = fill(k * n, 7);
            let want = reference(m, n, k, &av, &bv);
            // Row-major A embedded in a wider matrix: `ld = k + 5`.
            let ld_n = k + 5;
            let mut wide = fill(m * ld_n, 99);
            for i in 0..m {
                wide[i * ld_n..i * ld_n + k].copy_from_slice(&av[i * k..(i + 1) * k]);
            }
            // A stored transposed (`k x m`) inside a wider `k x (m + 3)`.
            let ld_t = m + 3;
            let mut tall = fill(k * ld_t, 98);
            for i in 0..m {
                for p in 0..k {
                    tall[p * ld_t + i] = av[i * k + p];
                }
            }
            let views = [
                (
                    "row-major ld>k",
                    Operand::normal(&wide[..(m - 1) * ld_n + k], ld_n),
                ),
                (
                    "transposed ld>m",
                    Operand::transposed(&tall[..(k - 1) * ld_t + m], ld_t),
                ),
            ];
            assert!(use_packed(m, n, k, 6));
            for name in detected_kernels::<f32>() {
                force_kernel(Some(name));
                for (label, a) in views {
                    for pool in &pools {
                        let mut c = vec![f32::NAN; m * n];
                        let mut scratch = GemmScratch::default();
                        pool.install(|| {
                            gemm(
                                m,
                                n,
                                k,
                                a,
                                Operand::normal(&bv, n),
                                &mut c,
                                &mut scratch,
                                true,
                            )
                        });
                        assert_eq!(
                            c,
                            want,
                            "{label} {m}x{n}x{k} {name} width {}",
                            pool.num_threads()
                        );
                    }
                }
            }
        }
        force_kernel(None);
    }

    #[test]
    fn fallback_paths_match_packed_bitwise() {
        // A shape the packed gate accepts...
        let (m, n, k) = (16, 32, 16);
        let av = fill(m * k, 3);
        let bv = fill(k * n, 4);
        assert!(use_packed(m, n, k, 6));
        let mut packed = vec![0.0f32; m * n];
        let mut scratch = GemmScratch::default();
        gemm(
            m,
            n,
            k,
            Operand::normal(&av, k),
            Operand::normal(&bv, n),
            &mut packed,
            &mut scratch,
            false,
        );
        // ...computed again by the fallback path directly.
        let mut fb = vec![0.0f32; m * n];
        run_fallback::<f32, fn(f32) -> f32>(
            m,
            n,
            k,
            Operand::normal(&av, k),
            Operand::normal(&bv, n),
            &mut fb,
            None,
            None,
            false,
        );
        assert_eq!(packed, fb);
    }

    #[test]
    fn scratch_reuse_counts_grows_once_per_shape() {
        let (m, n, k) = (16, 32, 16);
        assert!(use_packed(m, n, k, 6));
        let av = fill(m * k, 5);
        let bv = fill(k * n, 6);
        let mut c = vec![0.0f32; m * n];
        let mut scratch = GemmScratch::default();
        for _ in 0..5 {
            gemm(
                m,
                n,
                k,
                Operand::normal(&av, k),
                Operand::normal(&bv, n),
                &mut c,
                &mut scratch,
                false,
            );
        }
        assert_eq!(scratch.calls(), 5);
        assert_eq!(scratch.grows(), 1);
        assert_eq!(scratch.reuses(), 4);
    }

    #[test]
    fn dispatch_reports_a_kernel_and_detected_list_ends_portable() {
        let name = active_kernel_name::<f32>();
        assert!(!name.is_empty());
        let detected = detected_kernels::<f32>();
        assert_eq!(*detected.last().unwrap(), "portable");
        assert!(detected.contains(&name));
    }

    #[test]
    fn f32_and_f64_tables_list_the_same_kernels() {
        let f32_names: Vec<_> = F32_NATIVE.iter().map(|nk| nk.name).collect();
        let f64_names: Vec<_> = F64_NATIVE.iter().map(|nk| nk.name).collect();
        assert_eq!(f32_names, f64_names);
        assert_eq!(detected_kernels::<f32>(), detected_kernels::<f64>());
    }

    #[test]
    #[should_panic(expected = "unknown GEMM kernel")]
    fn forcing_an_unknown_kernel_name_panics() {
        force_kernel(Some("avx9000"));
    }
}
