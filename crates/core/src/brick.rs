//! Out-of-core bricked reconstruction with crash-only per-brick resume.
//!
//! [`reconstruct_bricked`] streams a reconstruction brick by brick instead
//! of materializing the dense output volume. One [`BrickStreamer`] gathers
//! each brick's halo samples into a ghost k-d tree and runs the FCNN
//! reconstruction; the finished brick is committed to a crash-safe
//! [`BrickStore`] before the next one starts. Exactly one brick of dense
//! data is in flight at any time, regardless of volume size (DESIGN.md
//! §13).
//!
//! Results are **bitwise-identical** to [`FcnnPipeline::reconstruct`] at
//! any brick size and thread count. The chain of guarantees:
//!
//! 1. the ghost tree certifies each kNN answer against a strict border
//!    bound ([`fv_spatial::GhostTree::k_nearest_exact`]); an uncertified
//!    brick regathers with a doubled halo — a geometry-only decision,
//!    independent of thread schedule — until certification succeeds
//!    (terminal state: the ghost set *is* the whole cloud);
//! 2. feature rows go through the same fill function as the whole-grid
//!    path ([`crate::features`]), so equal neighborhoods produce equal
//!    rows by construction;
//! 3. the forward pass runs through the same batch loop as the whole-grid
//!    path ([`FcnnPipeline::predict_rows`]) and is row-independent, so
//!    per-brick batching cannot change any row's value.
//!
//! Crash-only recovery: every committed brick is durable before the store's
//! ledger flags it complete, so a crash (or chaos-injected fault) at any
//! instant loses at most the brick in flight. A rerun re-opens the store,
//! verifies the ledger's claims, and recomputes only what is missing.

use crate::error::CoreError;
use crate::features::fill_feature_row;
use crate::normalize::CoordFrame;
use crate::pipeline::FcnnPipeline;
use fv_field::brick::{BrickLayout, BrickStore};
use fv_field::Grid3;
use fv_linalg::granularity::{go_parallel, OpCounter};
use fv_linalg::Matrix;
use fv_nn::InferWorkspace;
use fv_runtime::{chaos, telemetry, ExecCtx, StopReason};
use fv_sampling::PointCloud;
use fv_spatial::{GhostTree, KnnScratch, Neighbor};
use rayon::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

static OP_BRICK_KNN: OpCounter = OpCounter::new("core.brick_knn");

// Brick telemetry (inert and allocation-free unless FV_TELEMETRY=1): one
// parent span per run, child spans per brick on reconstruction and
// commit, and progress counters.
static TM_BRICK: telemetry::Site = telemetry::Site::new("brick.pipeline", None);
static TM_BRICK_RECON: telemetry::Site = telemetry::Site::new("brick.recon", Some("brick.pipeline"));
static TM_BRICK_COMMIT: telemetry::Site =
    telemetry::Site::new("brick.commit", Some("brick.pipeline"));
static TM_BRICK_COMPLETED: telemetry::Counter = telemetry::Counter::new("brick.completed");
static TM_BRICK_RESUMED: telemetry::Counter = telemetry::Counter::new("brick.resumed");
static TM_BRICK_RECOMPUTED: telemetry::Counter = telemetry::Counter::new("brick.recomputed");
static TM_BRICK_HALO_BYTES: telemetry::Counter = telemetry::Counter::new("brick.halo_bytes");

/// Bytes per ghost sample gathered: one `[f64; 3]` position + one `f32`.
const GHOST_SAMPLE_BYTES: u64 = 28;

/// Configuration for [`reconstruct_bricked`].
#[derive(Debug, Clone, Copy)]
pub struct BrickReconConfig {
    /// Voxels per brick along each axis (the unit of recovery and of the
    /// memory budget). May exceed the grid: the run degenerates to one
    /// brick.
    pub brick_dims: [usize; 3],
    /// Initial halo width, in cloud-grid cells, around each brick's ghost
    /// gather. Too small only costs retries (the halo doubles until the
    /// kNN certificate holds); it can never change the result.
    pub halo: usize,
    /// Re-verify (CRC) every brick the ledger claims complete before
    /// skipping it on resume; bricks failing verification are recomputed.
    pub verify_resumed: bool,
}

impl Default for BrickReconConfig {
    fn default() -> Self {
        Self {
            brick_dims: [32, 32, 32],
            halo: 2,
            verify_resumed: true,
        }
    }
}

impl BrickReconConfig {
    fn validate(&self) -> Result<(), CoreError> {
        if self.brick_dims.contains(&0) {
            return Err(CoreError::BadConfig(format!(
                "brick_dims must be positive: {:?}",
                self.brick_dims
            )));
        }
        if self.halo == 0 {
            return Err(CoreError::BadConfig("halo must be >= 1".into()));
        }
        Ok(())
    }
}

/// What a [`reconstruct_bricked`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickRunReport {
    /// Bricks in the decomposition.
    pub total_bricks: usize,
    /// Bricks reconstructed and committed by *this* run.
    pub completed: usize,
    /// Bricks found complete in the ledger and verified, skipped entirely.
    pub resumed: usize,
    /// Bricks the ledger claimed complete but that failed verification and
    /// were recomputed (counted in `completed` as well).
    pub recomputed: usize,
    /// Why the run stopped early, if it did. Unfinished bricks remain
    /// pending in the ledger; a later run picks them up.
    pub interrupted: Option<StopReason>,
    /// Ghost-sample bytes gathered across all bricks and halo retries.
    pub halo_bytes: u64,
    /// Peak bytes of dense brick payload in flight. Bricks run one at a
    /// time, so this is the largest brick's `len · 4`, bounded by
    /// `max_brick_len · 4`.
    pub peak_inflight_bytes: usize,
    /// Largest halo any brick needed before its kNN certificate held.
    pub max_halo: usize,
}

impl BrickRunReport {
    /// `true` when every brick in the volume is complete on disk.
    pub fn is_complete(&self) -> bool {
        self.resumed + self.completed == self.total_bricks
    }
}

/// Per-query lower bound on the squared distance to any sample *outside*
/// the ghost box. Each closed face contributes the plane of the nearest
/// excluded cloud-grid index; open faces (box flush with the grid) exclude
/// nothing. Both the plane coordinate (`origin + i·spacing`) and the
/// distance term mirror the expressions used for the samples themselves,
/// so comparisons against real neighbor distances are exact — monotone fp
/// arithmetic, no epsilons.
#[derive(Debug, Clone, Copy)]
struct Border {
    low: [Option<f64>; 3],
    high: [Option<f64>; 3],
}

impl Border {
    fn bound_d2(&self, q: [f64; 3]) -> f64 {
        let mut best = f64::INFINITY;
        for (a, &qa) in q.iter().enumerate() {
            if let Some(x) = self.low[a] {
                let d = qa - x;
                if d <= 0.0 {
                    // Query at or beyond the excluded plane: no usable
                    // bound; force the inexact path (halo grows).
                    return 0.0;
                }
                best = best.min(d * d);
            }
            if let Some(x) = self.high[a] {
                let d = x - qa;
                if d <= 0.0 {
                    return 0.0;
                }
                best = best.min(d * d);
            }
        }
        best
    }
}

/// Gather the ghost samples for a brick's world box expanded by `halo`
/// cloud-grid cells, and the matching border bound.
///
/// Membership is decided in *integer index space* of the cloud's grid —
/// a sample is kept iff its `[i, j, k]` lies inside the expanded box —
/// so the excluded set is exactly "indices beyond the border planes" and
/// the bound in [`Border`] is airtight. The kept list is ascending by
/// cloud-array position, which [`GhostTree::gather`] requires for global
/// tie-break agreement.
fn gather_ghost(
    positions: &[[f64; 3]],
    sample_ijk: &[[usize; 3]],
    cloud_grid: &Grid3,
    wlo: [f64; 3],
    whi: [f64; 3],
    halo: usize,
) -> (GhostTree, Border) {
    let dims = cloud_grid.dims();
    let origin = cloud_grid.origin();
    let spacing = cloud_grid.spacing();
    let mut glo = [0i64; 3];
    let mut ghi = [0i64; 3];
    let mut low = [None; 3];
    let mut high = [None; 3];
    for a in 0..3 {
        let flo = (wlo[a] - origin[a]) / spacing[a];
        let fhi = (whi[a] - origin[a]) / spacing[a];
        glo[a] = flo.floor() as i64 - halo as i64;
        ghi[a] = fhi.ceil() as i64 + halo as i64;
        if glo[a] > 0 {
            low[a] = Some(origin[a] + (glo[a] - 1) as f64 * spacing[a]);
        }
        if ghi[a] < dims[a] as i64 - 1 {
            high[a] = Some(origin[a] + (ghi[a] + 1) as f64 * spacing[a]);
        }
    }
    let keep: Vec<usize> = (0..sample_ijk.len())
        .filter(|&pos| {
            let ijk = sample_ijk[pos];
            (0..3).all(|a| {
                let i = ijk[a] as i64;
                i >= glo[a].max(0) && i <= ghi[a].min(dims[a] as i64 - 1)
            })
        })
        .collect();
    let complete = keep.len() == positions.len();
    (
        GhostTree::gather(positions, &keep, complete),
        Border { low, high },
    )
}

/// Buffers reused across bricks by a [`BrickStreamer`].
struct BrickWorkspace {
    /// (offset within brick, grid-linear index) of each voxel to predict.
    queries: Vec<(usize, usize)>,
    qpos: Vec<[f64; 3]>,
    neighbors: Vec<Neighbor>,
    knn: Vec<KnnScratch>,
    features: Matrix<f32>,
    infer: InferWorkspace,
}

impl Default for BrickWorkspace {
    fn default() -> Self {
        Self {
            queries: Vec::new(),
            qpos: Vec::new(),
            neighbors: Vec::new(),
            knn: Vec::new(),
            features: Matrix::zeros(0, 0),
            infer: InferWorkspace::default(),
        }
    }
}

/// Reconstruct `target` from `cloud` through `pipeline`, streaming bricks
/// through the crash-safe store in `dir`.
///
/// Opens (or resumes) a [`BrickStore`] for `target` decomposed by
/// `cfg.brick_dims`, reconstructs every pending brick in order through one
/// [`BrickStreamer`], commits each before starting the next, and returns
/// the store plus a [`BrickRunReport`]. A cancelled or deadline-expired
/// `ctx` stops at the next brick/batch boundary with `interrupted` set —
/// already committed bricks stay durable, so the next call continues where
/// this one stopped. The assembled volume (see [`BrickStore::assemble`])
/// is bitwise-identical to [`FcnnPipeline::reconstruct`] on the same
/// inputs.
pub fn reconstruct_bricked(
    pipeline: &FcnnPipeline,
    cloud: &PointCloud,
    target: &Grid3,
    dir: impl AsRef<Path>,
    cfg: &BrickReconConfig,
    ctx: &ExecCtx,
) -> Result<(BrickStore, BrickRunReport), CoreError> {
    let mut streamer = BrickStreamer::new(cloud, target, cfg)?;
    let _span = TM_BRICK.span();
    let mut store = BrickStore::open(dir, *target, cfg.brick_dims)?;

    // Resume: re-verify what the ledger claims before trusting it.
    let mut resumed = 0usize;
    let mut recomputed = 0usize;
    if cfg.verify_resumed {
        for b in 0..store.layout().num_bricks() {
            if !store.is_done(b) {
                continue;
            }
            match store.read_brick(b) {
                Ok(_) => resumed += 1,
                Err(_) => {
                    store.invalidate(b)?;
                    recomputed += 1;
                }
            }
        }
    } else {
        resumed = store.num_done();
    }

    let mut completed = 0usize;
    let mut interrupted = None;
    for b in store.pending() {
        if let Some(reason) = ctx.stop_reason() {
            interrupted = Some(reason);
            break;
        }
        chaos::point("brick.recon");
        let Some(mut values) = streamer.recon(pipeline, cloud, b, ctx)? else {
            interrupted = ctx.stop_reason();
            break;
        };
        // Models silent corruption of the finished brick buffer before it
        // reaches durable storage; the commit CRC is computed *after*
        // this, so detection falls to the caller's non-finite scan /
        // recompute policy, exactly like the whole-grid `recon.output`
        // site.
        chaos::corrupt_f32("brick.output", &mut values);
        let _span = TM_BRICK_COMMIT.span();
        store.commit(b, &values)?;
        completed += 1;
    }

    TM_BRICK_RESUMED.add(resumed as u64);
    TM_BRICK_RECOMPUTED.add(recomputed as u64);
    let report = BrickRunReport {
        total_bricks: streamer.num_bricks(),
        completed,
        resumed,
        recomputed,
        interrupted,
        halo_bytes: streamer.halo_bytes,
        peak_inflight_bytes: streamer.peak_brick_bytes,
        max_halo: streamer.max_halo,
    };
    Ok((store, report))
}

/// Single-brick reconstruction, in any order.
///
/// `BrickStreamer` owns the derived state a brick computation needs
/// (layout, coordinate frame, the cloud's integer index table, reusable
/// workspaces) and exposes [`BrickStreamer::recon`] for any brick index.
/// [`reconstruct_bricked`] drives one over every pending brick of a
/// disk-backed store; a network server computes bricks in whatever order
/// its scheduler picks and ships each straight to a socket.
///
/// Each brick's value is a pure function of `(pipeline, cloud, target,
/// brick index)` — halo growth is geometry-only — so results are
/// **bitwise-identical** to the whole-grid [`FcnnPipeline::reconstruct`],
/// regardless of the order bricks are requested, interleaving with other
/// streams, or thread width.
///
/// The `cloud` and `pipeline` handed to [`BrickStreamer::recon`] must be
/// the ones `new` was called with; the streamer only caches state derived
/// from them.
pub struct BrickStreamer {
    layout: BrickLayout,
    frame: CoordFrame,
    same_grid: bool,
    sample_ijk: Vec<[usize; 3]>,
    cfg: BrickReconConfig,
    ws: BrickWorkspace,
    halo_bytes: u64,
    peak_brick_bytes: usize,
    max_halo: usize,
}

impl BrickStreamer {
    /// Build the per-volume state for streaming `target` bricked by
    /// `cfg.brick_dims` from `cloud`. Cost is O(cloud) — no dense
    /// allocation proportional to the target volume is ever made.
    pub fn new(
        cloud: &PointCloud,
        target: &Grid3,
        cfg: &BrickReconConfig,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        if cloud.is_empty() {
            return Err(CoreError::EmptyCloud);
        }
        let layout = BrickLayout::new(*target, cfg.brick_dims)?;
        let frame = CoordFrame::of_grid(target);
        let same_grid = cloud.grid() == target;
        let sample_ijk: Vec<[usize; 3]> = cloud
            .indices()
            .iter()
            .map(|&idx| cloud.grid().unlinear(idx))
            .collect();
        Ok(Self {
            layout,
            frame,
            same_grid,
            sample_ijk,
            cfg: *cfg,
            ws: BrickWorkspace::default(),
            halo_bytes: 0,
            peak_brick_bytes: 0,
            max_halo: cfg.halo,
        })
    }

    /// The brick decomposition this streamer computes over.
    pub fn layout(&self) -> &BrickLayout {
        &self.layout
    }

    /// Bricks in the decomposition.
    pub fn num_bricks(&self) -> usize {
        self.layout.num_bricks()
    }

    /// Largest halo any brick computed so far needed before its kNN
    /// certificate held.
    pub fn max_halo(&self) -> usize {
        self.max_halo
    }

    /// Ghost-sample bytes gathered across all bricks and halo retries.
    pub fn halo_bytes(&self) -> u64 {
        self.halo_bytes
    }

    /// Reconstruct brick `b` and return its dense payload in the brick's
    /// x-fastest local order (the order [`BrickLayout::voxels`] yields).
    ///
    /// Returns `Ok(None)` when `ctx` stopped the run mid-brick.
    pub fn recon(
        &mut self,
        pipeline: &FcnnPipeline,
        cloud: &PointCloud,
        b: usize,
        ctx: &ExecCtx,
    ) -> Result<Option<Vec<f32>>, CoreError> {
        if b >= self.layout.num_bricks() {
            return Err(CoreError::BadConfig(format!(
                "brick index {b} out of range ({} bricks)",
                self.layout.num_bricks()
            )));
        }
        let _span = TM_BRICK_RECON.span();
        let target = *self.layout.grid();
        let mut values = vec![0.0f32; self.layout.brick_len(b)];
        self.peak_brick_bytes = self.peak_brick_bytes.max(values.len() * 4);
        let ws = &mut self.ws;

        // Split the brick's voxels into stored samples (copied bit-for-bit,
        // same-grid only) and queries for the network — the same partition
        // the whole-grid path makes globally.
        ws.queries.clear();
        ws.qpos.clear();
        for (offset, idx) in self.layout.voxels(b).enumerate() {
            if self.same_grid {
                if let Ok(pos) = cloud.indices().binary_search(&idx) {
                    values[offset] = cloud.values()[pos];
                    continue;
                }
            }
            ws.queries.push((offset, idx));
            ws.qpos.push(target.world_linear(idx));
        }

        // Phase 1: certified kNN against the ghost tree, growing the halo
        // until every query's certificate holds. Chunked like the
        // whole-grid batch path; rows land in disjoint slices, so the
        // neighbor buffer is identical at any thread width.
        let k = pipeline.feature_config().k;
        let (lo, hi) = self.layout.brick_range(b);
        let wlo = target.world(lo);
        let whi = target.world([hi[0] - 1, hi[1] - 1, hi[2] - 1]);
        let n = ws.queries.len();
        let mut halo = self.cfg.halo;
        let stride = loop {
            let (ghost, border) = gather_ghost(
                cloud.positions(),
                &self.sample_ijk,
                cloud.grid(),
                wlo,
                whi,
                halo,
            );
            self.halo_bytes += ghost.len() as u64 * GHOST_SAMPLE_BYTES;
            TM_BRICK_HALO_BYTES.add(ghost.len() as u64 * GHOST_SAMPLE_BYTES);
            let stride = k.min(ghost.len());
            ws.neighbors.clear();
            ws.neighbors.resize(
                n * stride,
                Neighbor {
                    index: usize::MAX,
                    dist_sq: f64::INFINITY,
                },
            );
            if n == 0 {
                break stride;
            }
            let chunk_rows = fv_runtime::chunk_size(n, 1, usize::MAX);
            let n_chunks = n.div_ceil(chunk_rows);
            if ws.knn.len() < n_chunks {
                ws.knn.resize_with(n_chunks, KnnScratch::default);
            }
            let any_inexact = AtomicBool::new(false);
            let qpos = &ws.qpos;
            let run_chunk = |ci: usize, rows_out: &mut [Neighbor], scr: &mut KnnScratch| {
                let q0 = ci * chunk_rows;
                let mut row_buf = Vec::with_capacity(k);
                for (r, row) in rows_out.chunks_mut(stride).enumerate() {
                    let q = qpos[q0 + r];
                    let exact = ghost.k_nearest_exact(q, k, border.bound_d2(q), scr, &mut row_buf);
                    if !exact {
                        any_inexact.store(true, Ordering::Relaxed);
                        return;
                    }
                    row.copy_from_slice(&row_buf);
                }
            };
            let work = n.saturating_mul(k).saturating_mul(64);
            if stride > 0 && go_parallel(&OP_BRICK_KNN, work) {
                ws.neighbors
                    .par_chunks_mut(chunk_rows * stride)
                    .zip(ws.knn[..n_chunks].par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, (rows_out, scr))| run_chunk(ci, rows_out, scr));
            } else if stride > 0 {
                for (ci, (rows_out, scr)) in ws
                    .neighbors
                    .chunks_mut(chunk_rows * stride)
                    .zip(ws.knn[..n_chunks].iter_mut())
                    .enumerate()
                {
                    run_chunk(ci, rows_out, scr);
                }
            }
            if (stride > 0 && !any_inexact.load(Ordering::Relaxed)) || ghost.is_complete() {
                break stride;
            }
            // Geometry-only growth: same decision at every thread width.
            halo = halo.saturating_mul(2);
        };

        // Phase 2: feature fill + forward pass through the shared batch
        // loop, in the whole-grid path's cadence.
        let fc = pipeline.feature_config();
        let width = fc.input_width();
        let frame = &self.frame;
        let value_norm = pipeline.value_norm();
        let BrickWorkspace {
            queries,
            qpos,
            neighbors,
            features,
            infer,
            ..
        } = ws;
        let done = pipeline.predict_rows(
            n,
            ctx,
            features,
            infer,
            |rows, features| {
                let rows_out = features.as_mut_slice().chunks_mut(width);
                for (row, g) in rows_out.zip(rows) {
                    fill_feature_row(
                        row,
                        k,
                        fc.relative_coords,
                        frame.to_unit(qpos[g]),
                        &neighbors[g * stride..(g + 1) * stride],
                        cloud.positions(),
                        cloud.values(),
                        frame,
                        value_norm,
                    );
                }
            },
            |row, value| values[queries[row].0] = value,
        )?;
        if done < n {
            return Ok(None);
        }
        self.max_halo = self.max_halo.max(halo);
        TM_BRICK_COMPLETED.incr();
        Ok(Some(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(BrickReconConfig::default().validate().is_ok());
        for bad in [
            BrickReconConfig {
                brick_dims: [0, 4, 4],
                ..Default::default()
            },
            BrickReconConfig {
                halo: 0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn border_bound_is_min_over_closed_faces() {
        let border = Border {
            low: [Some(1.0), None, None],
            high: [None, Some(10.0), None],
        };
        let q = [4.0, 3.0, 0.0];
        // low-x term: (4-1)² = 9; high-y term: (10-3)² = 49.
        assert_eq!(border.bound_d2(q), 9.0);
        // Query beyond a closed plane: defensively unbounded-unsafe.
        assert_eq!(border.bound_d2([0.5, 3.0, 0.0]), 0.0);
        // No closed faces: nothing is excluded.
        let open = Border {
            low: [None; 3],
            high: [None; 3],
        };
        assert_eq!(open.bound_d2(q), f64::INFINITY);
    }

    #[test]
    fn ghost_gather_keeps_exactly_the_box_and_marks_completeness() {
        use fv_field::ScalarField;
        use fv_sampling::PointCloud;
        let g = Grid3::new([8, 8, 8]).unwrap();
        let f = ScalarField::from_world_fn(g, |p| p[0] as f32);
        // Samples on a diagonal: indices 0, 73, 146, ... (i=j=k).
        let idx: Vec<usize> = (0..8).map(|i| g.linear([i, i, i])).collect();
        let cloud = PointCloud::from_indices(&f, idx);
        let ijk: Vec<[usize; 3]> = cloud.indices().iter().map(|&i| g.unlinear(i)).collect();
        // Box around the low corner, halo 1: world [0,2]³ expands to
        // indices [-1, 3]³ → diagonal samples 0..=3.
        let (ghost, border) = gather_ghost(
            cloud.positions(),
            &ijk,
            cloud.grid(),
            [0.0; 3],
            [2.0; 3],
            1,
        );
        assert_eq!(ghost.len(), 4);
        assert!(!ghost.is_complete());
        // Low faces open (box reaches index -1 ≤ 0), high faces closed at
        // plane index 4.
        assert!(border.low.iter().all(|x| x.is_none()));
        assert!(border.high.iter().all(|&x| x == Some(4.0)));
        // A big enough halo covers everything.
        let (all, _) = gather_ghost(
            cloud.positions(),
            &ijk,
            cloud.grid(),
            [0.0; 3],
            [2.0; 3],
            16,
        );
        assert!(all.is_complete());
    }
}
