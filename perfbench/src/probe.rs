//! The traced run: compositions of public calls that replace one untraced
//! call each (same functions, same order, same inputs), plus the probes
//! that time the remaining layers on the workload's own inputs.
//!
//! Every composition is checked against its untraced counterpart by
//! `fingerprint_f32`, so a trace that measured a different computation
//! counts as a failed operation.

use crate::inputs::{self, PAPER_LAYERS};
use crate::serve;
use crate::trace::Tracer;
use crate::util::{median, ms_since, write_counters, Sheet, Tally};
use fillvoid::core::features::FeatureExtractor;
use fillvoid::core::metrics::snr_db;
use fillvoid::core::normalize::CoordFrame;
use fillvoid::core::pipeline::{
    build_training_set, FcnnPipeline, PipelineConfig, ReconstructWorkspace,
};
use fillvoid::core::{reconstruct_bricked, BrickReconConfig, BrickStreamer, FeatureScratch};
use fillvoid::field::brick::BrickStore;
use fillvoid::field::{Grid3, ScalarField};
use fillvoid::linalg::{GemmScratch, Matrix};
use fillvoid::nn::data::Dataset;
use fillvoid::nn::guard::grads_are_finite;
use fillvoid::nn::optim::{Adam, Optimizer};
use fillvoid::nn::{InferWorkspace, Mlp, TrainWorkspace, Trainer, TrainerConfig};
use fillvoid::runtime::ExecCtx;
use fillvoid::sampling::PointCloud;
use fillvoid::serve::fingerprint_f32;
use fillvoid::spatial::KdTree;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Request ids tagging the spans of each composition.
pub const RID_PRIMARY: u64 = 1;
const RID_EPOCH: u64 = 2;
const RID_PROBE: u64 = 3;
const RID_BRICK: u64 = 4;

/// FNV-1a over a field's f32 bits.
pub fn fp(field: &ScalarField) -> u64 {
    fingerprint_f32(field.values())
}

/// FNV-1a over every weight and bias of a network.
pub fn fp_mlp(mlp: &Mlp) -> u64 {
    let mut all = Vec::new();
    for l in mlp.layers() {
        all.extend_from_slice(l.weights.as_slice());
        all.extend_from_slice(&l.bias);
    }
    fingerprint_f32(&all)
}

/// Buffers of the traced reconstruction, mirroring `ReconstructWorkspace`.
pub struct TracedWs {
    features: Matrix<f32>,
    scratch: FeatureScratch,
    infer: InferWorkspace,
}

impl Default for TracedWs {
    fn default() -> Self {
        Self {
            features: Matrix::zeros(0, 0),
            scratch: FeatureScratch::default(),
            infer: InferWorkspace::default(),
        }
    }
}

/// `FcnnPipeline::reconstruct_with`, composed from its public parts: the
/// extractor's k-d tree, then per prediction batch the feature rows
/// (including their kNN) and the network's forward pass.
pub fn reconstruct(
    tr: &mut Tracer,
    rid: u64,
    model: &FcnnPipeline,
    cloud: &PointCloud,
    target: &Grid3,
    ws: &mut TracedWs,
) -> ScalarField {
    let root = tr.begin("pipeline.reconstruct", rid);
    let frame = CoordFrame::of_grid(target);
    let extractor = tr.time("spatial.kdtree_build", rid, || {
        FeatureExtractor::new(cloud, *model.feature_config())
    });
    let mut out = ScalarField::zeros(*target);
    let queries: Vec<usize> = if cloud.grid() == target {
        for (pos, &idx) in cloud.indices().iter().enumerate() {
            out.values_mut()[idx] = cloud.values()[pos];
        }
        cloud.void_indices()
    } else {
        (0..target.num_points()).collect()
    };
    let norm = model.value_norm();
    for chunk in queries.chunks(model.prediction_batch()) {
        tr.time("features.rows", rid, || {
            extractor.features_for_into(
                target,
                &frame,
                norm,
                chunk,
                &mut ws.features,
                &mut ws.scratch,
            )
        });
        let s = tr.begin("nn.infer", rid);
        let pred = model
            .mlp()
            .forward_with(&ws.features, &mut ws.infer)
            .expect("feature rows match the network's input width");
        tr.end(s);
        for (row, &idx) in chunk.iter().enumerate() {
            out.values_mut()[idx] = norm.denormalize(pred[(row, 0)]);
        }
    }
    tr.end(root);
    out
}

/// One in-situ step as the untraced loop runs it: sample the timestep,
/// Case-1 fine-tune on it, reconstruct the sampled cloud, score it.
pub fn step(
    model: &mut FcnnPipeline,
    field: &ScalarField,
    seed: u64,
    ws: &mut ReconstructWorkspace,
) -> Result<(ScalarField, f64), String> {
    let cloud = inputs::sample(field, seed);
    let h = model
        .fine_tune(field, &inputs::case1(seed))
        .map_err(|e| format!("fine_tune: {e}"))?;
    if let Some(r) = h.interrupted {
        return Err(format!("fine_tune interrupted: {r:?}"));
    }
    let recon = model
        .reconstruct_with(&cloud, field.grid(), ws)
        .map_err(|e| format!("reconstruct_with: {e}"))?;
    let snr = snr_db(field, &recon);
    Ok((recon, snr))
}

/// [`step`] with a span around each public call.
pub fn traced_step(
    tr: &mut Tracer,
    model: &mut FcnnPipeline,
    field: &ScalarField,
    seed: u64,
    ws: &mut TracedWs,
) -> Result<(ScalarField, f64), String> {
    let root = tr.begin("insitu.step", RID_PRIMARY);
    let cloud = tr.time("sampling.sample", RID_PRIMARY, || {
        inputs::sample(field, seed)
    });
    let h = tr
        .time("pipeline.fine_tune", RID_PRIMARY, || {
            model.fine_tune(field, &inputs::case1(seed))
        })
        .map_err(|e| format!("fine_tune: {e}"))?;
    if let Some(r) = h.interrupted {
        return Err(format!("fine_tune interrupted: {r:?}"));
    }
    let recon = reconstruct(tr, RID_PRIMARY, model, &cloud, field.grid(), ws);
    let snr = tr.time("metrics.snr", RID_PRIMARY, || snr_db(field, &recon));
    tr.end(root);
    Ok((recon, snr))
}

/// Every brick of `cfg`'s decomposition through one `BrickStreamer`, in
/// brick order, with a span per brick when traced.
pub fn streamed(
    mut tr: Option<&mut Tracer>,
    model: &FcnnPipeline,
    cloud: &PointCloud,
    cfg: &BrickReconConfig,
) -> Result<Vec<Vec<f32>>, String> {
    let mut streamer = BrickStreamer::new(cloud, cloud.grid(), cfg).map_err(|e| e.to_string())?;
    let unbounded = ExecCtx::unbounded();
    (0..streamer.num_bricks())
        .map(|b| {
            let span = tr
                .as_deref_mut()
                .map(|t| t.begin("brick.recon", RID_PRIMARY));
            let got = streamer.recon(model, cloud, b, &unbounded);
            if let (Some(t), Some(s)) = (tr.as_deref_mut(), span) {
                t.end(s);
            }
            match got {
                Ok(Some(values)) => Ok(values),
                Ok(None) => Err(format!("brick {b} interrupted")),
                Err(e) => Err(e.to_string()),
            }
        })
        .collect()
}

/// Scatter bricks of `brick_dims`, given in brick order, into a dense
/// field on `grid`. A missing brick leaves its voxels at zero.
pub fn fill(grid: &Grid3, brick_dims: [usize; 3], bricks: &[Vec<f32>]) -> ScalarField {
    let layout = fillvoid::field::brick::BrickLayout::new(*grid, brick_dims)
        .expect("the streamer accepted this layout");
    let mut out = ScalarField::zeros(*grid);
    for (b, values) in bricks.iter().enumerate() {
        for (v, idx) in values.iter().zip(layout.voxels(b)) {
            out.values_mut()[idx] = *v;
        }
    }
    out
}

/// What the traced bricked composition and its untraced counterpart
/// measured.
pub struct BrickFigures {
    pub pipeline_ms: f64,
    pub write_bytes: u64,
    pub write_syscalls: u64,
    pub halo_bytes: u64,
}

/// `reconstruct_bricked` (untraced, timed, with `/proc/self/io` deltas)
/// against its sequential composition: `BrickStore::open`, then per brick
/// `BrickStreamer::recon` and `BrickStore::commit`, then `assemble`. Both
/// assembled volumes must match `dense`.
#[allow(clippy::too_many_arguments)]
pub fn bricked(
    tr: &mut Tracer,
    tally: &mut Tally,
    model: &FcnnPipeline,
    cloud: &PointCloud,
    target: &Grid3,
    cfg: &BrickReconConfig,
    work: &Path,
    dense: u64,
) -> BrickFigures {
    let unbounded = ExecCtx::unbounded();
    let dir = work.join("probe-bricks-untraced");
    let (w0, s0) = write_counters();
    let t = Instant::now();
    let run = reconstruct_bricked(model, cloud, target, &dir, cfg, &unbounded);
    let pipeline_ms = ms_since(t);
    let (w1, s1) = write_counters();
    let mut halo_bytes = 0;
    match run {
        Ok((store, report)) => {
            halo_bytes = report.halo_bytes;
            let ok = report.is_complete() && report.interrupted.is_none();
            tally.check(ok, || format!("bricked run incomplete: {report:?}"));
            let same = store.assemble().is_ok_and(|f| fp(&f) == dense);
            tally.check(same, || "untraced bricked volume differs from dense".into());
        }
        Err(e) => {
            tally.check(false, || format!("reconstruct_bricked: {e}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    let dir = work.join("probe-bricks-traced");
    let root = tr.begin("brick.total", RID_BRICK);
    let composed = (|| -> Result<ScalarField, String> {
        let mut store = tr
            .time("brick.open", RID_BRICK, || {
                BrickStore::open(&dir, *target, cfg.brick_dims)
            })
            .map_err(|e| format!("BrickStore::open: {e}"))?;
        let mut streamer = BrickStreamer::new(cloud, target, cfg)
            .map_err(|e| format!("BrickStreamer::new: {e}"))?;
        for b in 0..streamer.num_bricks() {
            let values = tr
                .time("brick.recon", RID_BRICK, || {
                    streamer.recon(model, cloud, b, &unbounded)
                })
                .map_err(|e| format!("brick {b}: {e}"))?
                .ok_or_else(|| format!("brick {b} interrupted"))?;
            tr.time("brick.commit", RID_BRICK, || store.commit(b, &values))
                .map_err(|e| format!("commit {b}: {e}"))?;
        }
        tr.time("brick.assemble", RID_BRICK, || store.assemble())
            .map_err(|e| format!("assemble: {e}"))
    })();
    tr.end(root);
    match composed {
        Ok(f) => {
            tally.check(fp(&f) == dense, || {
                "traced bricked volume differs from dense".into()
            });
        }
        Err(e) => {
            tally.check(false, || e);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    BrickFigures {
        pipeline_ms,
        write_bytes: w1.saturating_sub(w0),
        write_syscalls: s1.saturating_sub(s0),
        halo_bytes,
    }
}

/// One training epoch driven through the workspace API, exactly as
/// `Trainer::fit` runs epoch 0 (same shuffle, same Adam). Returns the
/// trained copy of `mlp`.
fn traced_epoch(tr: &mut Tracer, mlp: &Mlp, data: &Dataset, cfg: &TrainerConfig) -> Mlp {
    let mut m = mlp.clone();
    let n = data.len();
    let bs = cfg.batch_size.min(n);
    let mut ws = TrainWorkspace::new(&m, bs, data.target_width());
    let mut optimizer = Adam::new(cfg.learning_rate);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(cfg.seed));
    let root = tr.begin("nn.train.epoch", RID_EPOCH);
    for rows in order.chunks(bs) {
        tr.time("nn.train.data", RID_EPOCH, || ws.load_batch(data, rows));
        tr.time("nn.train.forward", RID_EPOCH, || {
            m.forward_workspace(&mut ws)
        })
        .expect("batch width matches the network");
        let s = tr.begin("nn.train.backward", RID_EPOCH);
        let loss = cfg.loss.value(ws.prediction(), ws.target());
        ws.seed_loss_gradient(cfg.loss);
        m.backward_workspace(&mut ws);
        let finite = loss.is_finite() && grads_are_finite(ws.grads());
        tr.end(s);
        assert!(finite, "the probe epoch met a non-finite batch");
        tr.time("nn.train.optim", RID_EPOCH, || {
            optimizer.step(m.layers_mut(), ws.grads())
        });
    }
    tr.end(root);
    m
}

/// What the common probes are handed: one workload's inputs.
pub struct Inputs<'a> {
    pub field: &'a ScalarField,
    pub cloud: &'a PointCloud,
    pub model: &'a FcnnPipeline,
    /// Configuration whose corpus builds the training set.
    pub config: &'a PipelineConfig,
    /// Cloud (and, through its grid, target) of the brick-store probe.
    pub brick_cloud: &'a PointCloud,
    pub bricks: BrickReconConfig,
    /// Epochs of the probed `fine_tune` call.
    pub fine_tune_epochs: usize,
    pub seed: u64,
    /// `sampling.sample` and `pipeline.fine_tune` spans already recorded
    /// by the workload's own composition.
    pub have_step: bool,
    /// Serve figures already measured by the workload's own composition.
    pub serve_done: bool,
}

/// Time every layer the workload's own composition did not cover, then
/// write every per-layer metric into `sheet`.
pub fn layers(tr: &mut Tracer, sheet: &mut Sheet, tally: &mut Tally, inp: Inputs<'_>, work: &Path) {
    let Inputs {
        field,
        cloud,
        model,
        config,
        brick_cloud,
        bricks,
        fine_tune_epochs,
        seed,
        have_step,
        serve_done,
    } = inp;
    let grid = field.grid();
    let dense = model
        .reconstruct(cloud, grid)
        .map(|f| fp(&f))
        .unwrap_or_default();

    if !have_step {
        let again = tr.time("sampling.sample", RID_PROBE, || inputs::sample(field, seed));
        tally.check(again.indices() == cloud.indices(), || {
            "resampled cloud differs".into()
        });
        let mut tuned = model.clone();
        let spec = fillvoid::core::pipeline::FineTuneSpec {
            epochs: fine_tune_epochs,
            ..inputs::case1(seed)
        };
        let h = tr.time("pipeline.fine_tune", RID_PROBE, || {
            tuned.fine_tune(field, &spec)
        });
        tally.check(h.is_ok_and(|h| h.interrupted.is_none()), || {
            "probe fine_tune failed".into()
        });
    }
    // Warm repetitions, so `pipeline.reconstruct_ms` (and the serve
    // overhead derived from it) is not a single cold call.
    let mut ws = TracedWs::default();
    for _ in 0..3 {
        let traced = reconstruct(tr, RID_PROBE, model, cloud, grid, &mut ws);
        tally.check(fp(&traced) == dense, || {
            "traced reconstruction differs from dense".into()
        });
    }

    // Training set and one epoch, checked against `Trainer::fit`.
    let data = tr
        .time("features.training_set", RID_PROBE, || {
            build_training_set(field, config, model.value_norm(), seed)
        })
        .expect("training set of a valid field");
    let tcfg = TrainerConfig {
        epochs: 1,
        seed,
        ..config.trainer.clone()
    };
    let traced = traced_epoch(tr, model.mlp(), &data, &tcfg);
    let mut fitted = model.mlp().clone();
    let fit = Trainer::new(tcfg).fit(&mut fitted, &data);
    tally.check(fit.is_ok() && fp_mlp(&fitted) == fp_mlp(&traced), || {
        "traced epoch differs from Trainer::fit".into()
    });

    // kNN alone, on one prediction batch of void positions.
    let tree = KdTree::build(cloud.positions());
    let voids = cloud.void_indices();
    let batch = &voids[..voids.len().min(model.prediction_batch())];
    let qpos: Vec<[f64; 3]> = batch.iter().map(|&q| grid.world_linear(q)).collect();
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let k = model.feature_config().k;
    tree.k_nearest_batch_into(cloud.positions(), &qpos, k, &mut out, &mut scratch);
    for _ in 0..5 {
        tr.time("spatial.knn", RID_PROBE, || {
            tree.k_nearest_batch_into(cloud.positions(), &qpos, k, &mut out, &mut scratch)
        });
    }

    let brick_grid = brick_cloud.grid();
    let brick_dense = model
        .reconstruct(brick_cloud, brick_grid)
        .map(|f| fp(&f))
        .unwrap_or_default();
    let figures = bricked(
        tr,
        tally,
        model,
        brick_cloud,
        brick_grid,
        &bricks,
        work,
        brick_dense,
    );
    let serve_figs = if serve_done {
        None
    } else {
        let b = bricks.brick_dims;
        let dims = [b[0] as u32, b[1] as u32, b[2] as u32];
        Some(serve::probe(tr, tally, model, cloud, grid, dims, dense))
    };
    gemm(sheet);

    // Per-layer metrics, from the spans.
    let med = |name: &str| median(&tr.durations_ms(name));
    sheet.put("sampling.sample_ms", med("sampling.sample"), "ms");
    sheet.put(
        "features.training_set_ms",
        med("features.training_set"),
        "ms",
    );
    sheet.put(
        "nn.train.forward_ms",
        tr.total_ms("nn.train.forward", RID_EPOCH),
        "ms",
    );
    sheet.put(
        "nn.train.backward_ms",
        tr.total_ms("nn.train.backward", RID_EPOCH),
        "ms",
    );
    sheet.put(
        "nn.train.optim_ms",
        tr.total_ms("nn.train.optim", RID_EPOCH),
        "ms",
    );
    sheet.put(
        "nn.train.rows_per_s",
        data.len() as f64 / (tr.total_ms("nn.train.epoch", RID_EPOCH) / 1e3),
        "1/s",
    );
    sheet.put("pipeline.fine_tune_ms", med("pipeline.fine_tune"), "ms");
    sheet.put("spatial.kdtree_build_ms", med("spatial.kdtree_build"), "ms");
    let knn = med("spatial.knn");
    let rows = med("features.rows");
    sheet.put("spatial.knn_ms", knn, "ms");
    sheet.put("features.rows_ms", rows, "ms");
    sheet.put("features.rows_self_ms", rows - knn, "ms");
    sheet.put("nn.infer_ms", med("nn.infer"), "ms");
    sheet.put("pipeline.reconstruct_ms", med("pipeline.reconstruct"), "ms");
    sheet.put("linalg.flops_per_voxel", inputs::flops_per_voxel(), "flop");
    sheet.put(
        "linalg.flops_per_epoch",
        inputs::flops_per_epoch(data.len()),
        "flop",
    );

    let recon = tr.durations_ms("brick.recon");
    let commit = tr.durations_ms("brick.commit");
    let open = med("brick.open");
    sheet.put("brick.open_ms", open, "ms");
    sheet.put("brick.recon_ms", median(&recon), "ms");
    sheet.put("brick.commit_ms", median(&commit), "ms");
    sheet.put(
        "brick.commit_max_ms",
        commit.iter().copied().fold(f64::NAN, f64::max),
        "ms",
    );
    sheet.put("brick.assemble_ms", med("brick.assemble"), "ms");
    // The store composition only: the workload's own streamed bricks
    // also record `brick.recon` spans, under another request id.
    sheet.put(
        "brick.stage_sum_ms",
        open + tr.total_ms("brick.recon", RID_BRICK) + tr.total_ms("brick.commit", RID_BRICK),
        "ms",
    );
    sheet.put("brick.pipeline_ms", figures.pipeline_ms, "ms");
    sheet.put("brick.write_bytes", figures.write_bytes as f64, "B");
    sheet.put(
        "brick.write_syscalls",
        figures.write_syscalls as f64,
        "count",
    );
    sheet.put("brick.halo_bytes", figures.halo_bytes as f64, "B");

    if let Some(s) = serve_figs {
        s.emit(tr, sheet);
    }
}

/// GFLOP/s of the public fv-linalg products at every paper layer's
/// shape: the fused inference product at 16384 rows, the three training
/// products (forward with pre-activation, weight gradient, input
/// gradient) at 256 rows, and the 1024×64×64 ceiling microbench.
fn gemm(sheet: &mut Sheet) {
    let fill = |r: usize, c: usize| ((r * 31 + c * 7) % 97) as f32 * 0.021 - 1.0;
    let relu = |v: f32| v.max(0.0);
    // Repeat until at least this much time is measured per figure.
    let budget = 0.03;
    let rate = |flops: f64, mut call: Box<dyn FnMut() + '_>| {
        call();
        let t = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || t.elapsed().as_secs_f64() < budget {
            call();
            reps += 1;
        }
        flops * f64::from(reps) / t.elapsed().as_secs_f64() / 1e9
    };
    let mut scratch = GemmScratch::default();
    for (l, &(fan_in, fan_out)) in PAPER_LAYERS.iter().enumerate() {
        let w = Matrix::from_fn(fan_out, fan_in, fill);
        let bias = vec![0.01f32; fan_out];
        let flops = 2.0 * (fan_in * fan_out) as f64;

        let x = Matrix::from_fn(16384, fan_in, fill);
        let mut out = Matrix::zeros(0, 0);
        let infer = rate(
            flops * 16384.0,
            Box::new(|| {
                x.matmul_bias_act_into_with(&w, &bias, relu, None, &mut out, &mut scratch)
                    .expect("shapes agree");
            }),
        );
        sheet.put(format!("linalg.gemm.L{l}.infer_gflops"), infer, "GFLOP/s");

        let x = Matrix::from_fn(256, fan_in, fill);
        let dz = Matrix::from_fn(256, fan_out, fill);
        let (mut pre, mut act, mut gw, mut dx) = (
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
        );
        let mut train_scratch = GemmScratch::default();
        let train = rate(
            3.0 * flops * 256.0,
            Box::new(|| {
                x.matmul_bias_act_into_with(
                    &w,
                    &bias,
                    relu,
                    Some(&mut pre),
                    &mut act,
                    &mut train_scratch,
                )
                .expect("shapes agree");
                dz.transpose_a_matmul_into(&x, &mut gw, &mut train_scratch)
                    .expect("shapes agree");
                dz.matmul_into_with(&w, &mut dx, &mut train_scratch)
                    .expect("shapes agree");
            }),
        );
        sheet.put(format!("linalg.gemm.L{l}.train_gflops"), train, "GFLOP/s");
    }
    let a = Matrix::from_fn(1024, 64, fill);
    let w = Matrix::from_fn(64, 64, fill);
    let mut c = Matrix::zeros(0, 0);
    let ceiling = rate(
        2.0 * 1024.0 * 64.0 * 64.0,
        Box::new(|| {
            a.matmul_transpose_b_into_with(&w, &mut c, &mut scratch)
                .expect("shapes agree");
        }),
    );
    sheet.put("linalg.gemm.ceiling_gflops", ceiling, "GFLOP/s");
}
