//! Out-of-core bricked reconstruction acceptance suite (DESIGN.md §13).
//!
//! The two load-bearing guarantees:
//!
//! * **bitwise parity** — assembling the brick store equals
//!   `FcnnPipeline::reconstruct` bit for bit, across brick geometries
//!   (including single-voxel bricks and bricks larger than the grid),
//!   same-grid and refined targets, and any thread width (the CI matrix
//!   reruns this file under `FV_THREADS=1` and `4`);
//! * **crash-only resume** — after a cancelled or partly lost run, a
//!   rerun recomputes only the unfinished bricks and converges to the
//!   same bits. The chaos-injected crash variant lives in `tests/chaos.rs`,
//!   the one binary allowed to install fault plans.

use fillvoid::core::brick::{reconstruct_bricked, BrickReconConfig};
use fillvoid::core::pipeline::{FcnnPipeline, PipelineConfig};
use fillvoid::core::CoreError;
use fillvoid::prelude::*;
use fillvoid::runtime::{CancelToken, ExecCtx, StopReason};
use std::path::PathBuf;
use std::sync::OnceLock;

fn trained() -> &'static (ScalarField, PointCloud, FcnnPipeline) {
    static CELL: OnceLock<(ScalarField, PointCloud, FcnnPipeline)> = OnceLock::new();
    CELL.get_or_init(|| {
        let g = Grid3::with_geometry([10, 10, 6], [-1.0, 0.5, 2.0], [0.7, 1.1, 0.9]).unwrap();
        let field = ScalarField::from_world_fn(g, |p| {
            ((p[0] * 0.4).sin() + 0.3 * p[1] + (p[2] * 0.6).cos()) as f32
        });
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.trainer.epochs = 8;
        let pipeline = FcnnPipeline::train(&field, &cfg, 3).expect("pretrain");
        let sampler = ImportanceSampler::new(ImportanceConfig::default());
        let cloud = sampler.sample(&field, 0.06, 11);
        (field, cloud, pipeline)
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fv_brick_test_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn assert_bitwise_eq(a: &ScalarField, b: &ScalarField, what: &str) {
    assert_eq!(a.grid(), b.grid(), "{what}: grids differ");
    for (i, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: voxel {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn bricked_is_bitwise_identical_to_whole_grid_across_brick_sizes() {
    let (field, cloud, pipeline) = trained();
    let whole = pipeline.reconstruct(cloud, field.grid()).expect("whole-grid");
    // Covers interior bricks, anisotropic bricks, the one-brick degenerate
    // case (brick > grid), and a tight halo that forces growth retries.
    for (brick_dims, halo) in [
        ([3, 4, 2], 1),
        ([4, 4, 4], 2),
        ([5, 3, 6], 1),
        ([64, 64, 64], 2),
    ] {
        let dir = temp_dir(&format!("parity_{}_{}_{}", brick_dims[0], brick_dims[1], brick_dims[2]));
        let cfg = BrickReconConfig {
            brick_dims,
            halo,
            ..Default::default()
        };
        let (store, report) = reconstruct_bricked(
            pipeline,
            cloud,
            field.grid(),
            &dir,
            &cfg,
            &ExecCtx::unbounded(),
        )
        .expect("bricked run");
        assert!(report.is_complete(), "{brick_dims:?}: {report:?}");
        assert_eq!(report.completed, report.total_bricks);
        // Bricks run one at a time: the budget is one brick.
        let budget = store.layout().max_brick_len() * 4;
        assert!(
            report.peak_inflight_bytes <= budget,
            "{brick_dims:?}: inflight {} exceeds budget {budget}",
            report.peak_inflight_bytes
        );
        let assembled = store.assemble().expect("assemble");
        assert_bitwise_eq(&whole, &assembled, &format!("brick_dims {brick_dims:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn single_voxel_bricks_match_whole_grid() {
    let (field, cloud, pipeline) = trained();
    // 1-voxel bricks on a smaller grid (600 bricks would fsync-storm CI):
    // reconstruct onto a coarse refinement-source slice of the same cloud.
    let g = Grid3::with_geometry([5, 4, 3], field.grid().origin(), field.grid().spacing())
        .unwrap();
    let whole = pipeline.reconstruct(cloud, &g).expect("whole-grid");
    let dir = temp_dir("voxel_bricks");
    let cfg = BrickReconConfig {
        brick_dims: [1, 1, 1],
        halo: 1,
        ..Default::default()
    };
    let (store, report) =
        reconstruct_bricked(pipeline, cloud, &g, &dir, &cfg, &ExecCtx::unbounded())
            .expect("bricked run");
    assert_eq!(report.total_bricks, g.num_points());
    assert!(report.is_complete());
    let assembled = store.assemble().expect("assemble");
    assert_bitwise_eq(&whole, &assembled, "1-voxel bricks");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refined_target_grid_matches_whole_grid() {
    let (field, cloud, pipeline) = trained();
    let fine = field.grid().refined(2).unwrap();
    let whole = pipeline.reconstruct(cloud, &fine).expect("whole-grid");
    let dir = temp_dir("refined");
    let cfg = BrickReconConfig {
        brick_dims: [7, 6, 5],
        halo: 1,
        ..Default::default()
    };
    let (store, report) =
        reconstruct_bricked(pipeline, cloud, &fine, &dir, &cfg, &ExecCtx::unbounded())
            .expect("bricked run");
    assert!(report.is_complete());
    let assembled = store.assemble().expect("assemble");
    assert_bitwise_eq(&whole, &assembled, "refined target");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_cloud_with_fewer_samples_than_k_matches() {
    let (field, _, pipeline) = trained();
    let cloud = PointCloud::from_indices(field, vec![0, 117, 599]);
    let whole = pipeline.reconstruct(&cloud, field.grid()).expect("whole-grid");
    let dir = temp_dir("tinycloud");
    let cfg = BrickReconConfig {
        brick_dims: [4, 4, 4],
        halo: 1,
        ..Default::default()
    };
    let (store, report) =
        reconstruct_bricked(pipeline, &cloud, field.grid(), &dir, &cfg, &ExecCtx::unbounded())
            .expect("bricked run");
    assert!(report.is_complete());
    let assembled = store.assemble().expect("assemble");
    assert_bitwise_eq(&whole, &assembled, "tiny cloud");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_cloud_is_rejected() {
    let (field, _, pipeline) = trained();
    let empty = PointCloud::from_indices(field, vec![]);
    let dir = temp_dir("emptycloud");
    let r = reconstruct_bricked(
        pipeline,
        &empty,
        field.grid(),
        &dir,
        &BrickReconConfig::default(),
        &ExecCtx::unbounded(),
    );
    assert!(matches!(r, Err(CoreError::EmptyCloud)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelled_run_keeps_committed_bricks_and_resumes_to_identical_bits() {
    let (field, cloud, pipeline) = trained();
    let whole = pipeline.reconstruct(cloud, field.grid()).expect("whole-grid");
    let dir = temp_dir("cancel_resume");
    let cfg = BrickReconConfig {
        brick_dims: [4, 4, 3],
        ..Default::default()
    };
    // A pre-cancelled context: the run opens the store, reconstructs
    // nothing, and reports the interruption gracefully.
    let token = CancelToken::new();
    token.cancel();
    let ctx = ExecCtx::unbounded().with_token(token);
    let (store, report) =
        reconstruct_bricked(pipeline, cloud, field.grid(), &dir, &cfg, &ctx).expect("cancelled");
    assert_eq!(report.interrupted, Some(StopReason::Cancelled));
    assert_eq!(report.completed + report.resumed, store.num_done());
    assert!(!report.is_complete());
    drop(store);
    // Resume with an unbounded context: finishes the rest, bit-for-bit.
    let (store, report) =
        reconstruct_bricked(pipeline, cloud, field.grid(), &dir, &cfg, &ExecCtx::unbounded())
            .expect("resume");
    assert!(report.is_complete(), "{report:?}");
    let assembled = store.assemble().expect("assemble");
    assert_bitwise_eq(&whole, &assembled, "cancel + resume");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalidated_bricks_are_the_only_ones_recomputed_on_resume() {
    let (field, cloud, pipeline) = trained();
    let whole = pipeline.reconstruct(cloud, field.grid()).expect("whole-grid");
    let dir = temp_dir("partial_resume");
    let cfg = BrickReconConfig {
        brick_dims: [4, 4, 3],
        ..Default::default()
    };
    let (mut store, first) =
        reconstruct_bricked(pipeline, cloud, field.grid(), &dir, &cfg, &ExecCtx::unbounded())
            .expect("first run");
    assert!(first.is_complete());
    let total = first.total_bricks;
    assert!(total >= 4, "test needs several bricks, got {total}");
    // Simulate a crash that lost two in-flight bricks.
    store.invalidate(1).unwrap();
    store.invalidate(total - 1).unwrap();
    drop(store);
    let (store, second) =
        reconstruct_bricked(pipeline, cloud, field.grid(), &dir, &cfg, &ExecCtx::unbounded())
            .expect("resume");
    assert_eq!(second.resumed, total - 2, "only intact bricks skip");
    assert_eq!(second.completed, 2, "only lost bricks recompute");
    let assembled = store.assemble().expect("assemble");
    assert_bitwise_eq(&whole, &assembled, "partial resume");
    std::fs::remove_dir_all(&dir).ok();
}
