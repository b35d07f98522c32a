//! The FCNN reconstruction pipeline: pretraining, fine-tuning and batched
//! reconstruction.
//!
//! [`FcnnPipeline::train`] implements the paper's training recipe
//! (Sec. III-D/E): sample the current timestep at each fraction of the
//! [`TrainCorpus`] (the "1%+5% model" uses both 1% and 5%), extract the
//! 23-feature / 4-target rows at every void location, and fit the
//! five-hidden-layer network with Adam. The trained pipeline then
//! reconstructs *any* sampling of *any* grid over the same physics:
//! different sampling percentages (Experiment 1), later timesteps with
//! optional Case-1/Case-2 fine-tuning (Experiment 2), and higher
//! resolutions over shifted domains (Experiment 3).

use crate::error::CoreError;
use crate::features::{training_targets, FeatureConfig, FeatureExtractor, FeatureScratch};
use crate::normalize::{CoordFrame, ValueNorm};
use fv_field::{Grid3, ScalarField};
use fv_linalg::Matrix;
use fv_nn::data::Dataset;
use fv_nn::serialize;
use fv_nn::train::{History, Trainer, TrainerConfig};
use fv_nn::{InferWorkspace, Mlp};
use fv_runtime::{chaos, telemetry, ExecCtx, StopReason};
use fv_sampling::{FieldSampler, ImportanceConfig, ImportanceSampler, PointCloud};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

// Reconstruction telemetry (inert unless FV_TELEMETRY=1): one span per
// prediction batch under a whole-call parent, plus row/interruption
// counts.
static TM_RECON: telemetry::Site = telemetry::Site::new("recon", None);
static TM_RECON_BATCH: telemetry::Site = telemetry::Site::new("recon.batch", Some("recon"));
static TM_RECON_ROWS: telemetry::Counter = telemetry::Counter::new("recon.rows");
static TM_RECON_INTERRUPTED: telemetry::Counter = telemetry::Counter::new("recon.interrupted");

/// Rows per forward pass during reconstruction.
///
/// The single source of truth for every configuration constructor and for
/// deserialized pipelines (PR 2 shipped with `paper()` and
/// `small_for_tests()` silently disagreeing at 16384 vs 4096). 16 Ki rows
/// ≈ 1.5 MiB of f32 features at the paper's 23-wide input: big enough to
/// saturate the pool through the granularity policy, small enough to stay
/// cache- and memory-friendly, and irrelevant to results — batch size only
/// changes how the query list is split, never what each row computes.
pub const DEFAULT_PREDICTION_BATCH: usize = 16 * 1024;

/// Which sampled corpora the training set is built from.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainCorpus {
    /// Train on the voids of a single sampling fraction (Fig. 7's "1%" and
    /// "5%" curves).
    Single(f64),
    /// Train on the union of several fractions (the paper's production
    /// choice: `Union(vec![0.01, 0.05])`).
    Union(Vec<f64>),
}

impl TrainCorpus {
    /// The fractions to sample.
    pub fn fractions(&self) -> Vec<f64> {
        match self {
            TrainCorpus::Single(f) => vec![*f],
            TrainCorpus::Union(fs) => fs.clone(),
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Hidden-layer widths (paper: `[512, 256, 128, 64, 16]`, Fig. 5).
    pub hidden: Vec<usize>,
    /// Feature engineering knobs.
    pub features: FeatureConfig,
    /// Trainer hyper-parameters for pretraining.
    pub trainer: TrainerConfig,
    /// Sampling fractions the training set is built from.
    pub corpus: TrainCorpus,
    /// Importance-sampler configuration.
    pub sampler: ImportanceConfig,
    /// Random fraction of training rows to keep (Fig. 14 / Table II; 1.0
    /// keeps everything).
    pub train_row_fraction: f64,
    /// Rows per forward pass during reconstruction.
    pub prediction_batch: usize,
}

impl PipelineConfig {
    /// The paper's published configuration (500 epochs over the 1%+5%
    /// union, 512–16 hidden stack). Heavy on CPU: use for `--full` runs.
    pub fn paper() -> Self {
        Self {
            hidden: vec![512, 256, 128, 64, 16],
            features: FeatureConfig::default(),
            trainer: TrainerConfig {
                epochs: 500,
                batch_size: 256,
                learning_rate: 1e-3,
                seed: 0,
                loss: fv_nn::loss::Loss::Mse,
                ..Default::default()
            },
            corpus: TrainCorpus::Union(vec![0.01, 0.05]),
            sampler: ImportanceConfig::default(),
            train_row_fraction: 1.0,
            prediction_batch: DEFAULT_PREDICTION_BATCH,
        }
    }

    /// Default benchmarking configuration: same shape as the paper's at a
    /// width/epoch budget that finishes in seconds at `Scale::Small`.
    pub fn bench_default() -> Self {
        Self {
            hidden: vec![128, 64, 32, 16],
            trainer: TrainerConfig {
                epochs: 60,
                ..Self::paper().trainer
            },
            ..Self::paper()
        }
    }

    /// Minimal configuration for unit tests.
    pub fn small_for_tests() -> Self {
        Self {
            hidden: vec![24, 12],
            trainer: TrainerConfig {
                epochs: 15,
                batch_size: 128,
                learning_rate: 3e-3,
                seed: 0,
                loss: fv_nn::loss::Loss::Mse,
                ..Default::default()
            },
            corpus: TrainCorpus::Union(vec![0.02, 0.05]),
            features: FeatureConfig::default(),
            sampler: ImportanceConfig::default(),
            train_row_fraction: 1.0,
            prediction_batch: DEFAULT_PREDICTION_BATCH,
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.hidden.is_empty() {
            return Err(CoreError::BadConfig("no hidden layers".into()));
        }
        if self.features.k == 0 {
            return Err(CoreError::BadConfig("k must be >= 1".into()));
        }
        let fracs = self.corpus.fractions();
        if fracs.is_empty() {
            return Err(CoreError::BadConfig("empty training corpus".into()));
        }
        if fracs.iter().any(|&f| !(0.0 < f && f <= 1.0)) {
            return Err(CoreError::BadConfig(format!(
                "fractions must be in (0, 1]: {fracs:?}"
            )));
        }
        if !(0.0 < self.train_row_fraction && self.train_row_fraction <= 1.0) {
            return Err(CoreError::BadConfig(
                "train_row_fraction must be in (0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// Fine-tuning mode (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FineTuneCase {
    /// Case 1: all layers trainable; ~10 epochs suffice.
    FullNetwork,
    /// Case 2: only the last two layers trainable; needs 300–500 epochs
    /// but the per-timestep artifact is just the tail.
    LastTwoLayers,
}

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone)]
pub struct FineTuneSpec {
    /// Which layers train.
    pub case: FineTuneCase,
    /// Epoch budget (paper: ≈10 for Case 1, 300–500 for Case 2).
    pub epochs: usize,
    /// Learning rate (defaults to the paper's 1e-3).
    pub learning_rate: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl FineTuneSpec {
    /// The paper's Case-1 defaults (10 epochs, everything trainable).
    pub fn case1() -> Self {
        Self {
            case: FineTuneCase::FullNetwork,
            epochs: 10,
            learning_rate: 1e-3,
            seed: 0,
        }
    }

    /// The paper's Case-2 defaults (400 epochs, last two layers).
    pub fn case2() -> Self {
        Self {
            case: FineTuneCase::LastTwoLayers,
            epochs: 400,
            learning_rate: 1e-3,
            seed: 0,
        }
    }
}

/// A trained FCNN reconstructor.
#[derive(Debug, Clone)]
pub struct FcnnPipeline {
    mlp: Mlp,
    features: FeatureConfig,
    value_norm: ValueNorm,
    trainer: TrainerConfig,
    corpus: TrainCorpus,
    sampler: ImportanceConfig,
    prediction_batch: usize,
    history: History,
    /// Wall-clock seconds spent building training features (sampling, k-d
    /// tree queries, target assembly) across `train` and every `fine_tune`.
    feature_build_s: f64,
}

/// Reusable buffers for [`FcnnPipeline::reconstruct_with`]: the feature
/// batch matrix, the feature extractor's scratch, and the network's
/// inference activations. One workspace serves any number of reconstruct
/// calls (and any pipeline); after the first batch warms it, the per-batch
/// loop performs no heap allocation.
#[derive(Debug)]
pub struct ReconstructWorkspace {
    features: Matrix<f32>,
    feat_scratch: FeatureScratch,
    infer: InferWorkspace,
}

impl Default for ReconstructWorkspace {
    fn default() -> Self {
        Self {
            features: Matrix::zeros(0, 0),
            feat_scratch: FeatureScratch::default(),
            infer: InferWorkspace::default(),
        }
    }
}

/// How a [`FcnnPipeline::reconstruct_with_ctx`] call ended.
///
/// When `interrupted` is set, the rows that were *not* predicted hold
/// `f32::NAN` in the returned field — never a silently wrong zero — so a
/// downstream non-finite scan (the in-situ session's degradation ladder)
/// finds and fills exactly the missing voxels. Predicted rows are bitwise
/// identical to an unbounded run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconStatus {
    /// Why the run stopped early, if it did.
    pub interrupted: Option<StopReason>,
    /// Query rows actually predicted (or copied from stored samples).
    pub completed_rows: usize,
    /// Query rows requested.
    pub total_rows: usize,
}

impl ReconStatus {
    /// `true` when every requested row was predicted.
    pub fn is_complete(&self) -> bool {
        self.completed_rows == self.total_rows
    }
}

impl FcnnPipeline {
    /// Pretrain on one timestep (the in-situ scenario: `field` is the only
    /// full-resolution data that exists).
    pub fn train(field: &ScalarField, config: &PipelineConfig, seed: u64) -> Result<Self, CoreError> {
        config.validate()?;
        let value_norm = ValueNorm::fit(field.values());
        let t0 = Instant::now();
        let data = build_training_set(field, config, &value_norm, seed)?;
        let feature_build_s = t0.elapsed().as_secs_f64();
        let mut mlp = Mlp::regression(
            config.features.input_width(),
            &config.hidden,
            config.features.target_width(),
            seed,
        );
        let trainer = Trainer::new(TrainerConfig {
            seed,
            ..config.trainer.clone()
        });
        let history = trainer.fit(&mut mlp, &data)?;
        Ok(Self {
            mlp,
            features: config.features,
            value_norm,
            trainer: config.trainer.clone(),
            corpus: config.corpus.clone(),
            sampler: config.sampler,
            prediction_batch: config.prediction_batch.max(1),
            history,
            feature_build_s,
        })
    }

    /// The trained network.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Training (and fine-tuning) loss history — Fig. 12's curves.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The value normalization fitted at pretraining time.
    pub fn value_norm(&self) -> &ValueNorm {
        &self.value_norm
    }

    /// The feature configuration in use.
    pub fn feature_config(&self) -> &FeatureConfig {
        &self.features
    }

    /// Rows per forward pass during reconstruction: the chunk size of
    /// [`Self::predict_rows`], whichever path calls it.
    pub fn prediction_batch(&self) -> usize {
        self.prediction_batch
    }

    /// Seconds spent on feature/training-set construction so far (across
    /// pretraining and fine-tuning); pairs with the per-phase timings in
    /// [`History::timings`](fv_nn::train::History) for runtime breakdowns.
    pub fn feature_build_seconds(&self) -> f64 {
        self.feature_build_s
    }

    /// Fine-tune on a new timestep's full-resolution field.
    ///
    /// Returns this fine-tune's own loss history (also appended to
    /// [`Self::history`]).
    pub fn fine_tune(
        &mut self,
        field: &ScalarField,
        spec: &FineTuneSpec,
    ) -> Result<History, CoreError> {
        self.fine_tune_ctx(field, spec, &ExecCtx::unbounded())
    }

    /// [`Self::fine_tune`] under a cancellation context: the minibatch
    /// loop polls `ctx` at batch boundaries; a cut-short run reports its
    /// reason in the returned history's `interrupted` field and leaves the
    /// network at the last completed batch (a valid, usable state).
    pub fn fine_tune_ctx(
        &mut self,
        field: &ScalarField,
        spec: &FineTuneSpec,
        ctx: &ExecCtx,
    ) -> Result<History, CoreError> {
        match spec.case {
            FineTuneCase::FullNetwork => self.mlp.unfreeze_all(),
            FineTuneCase::LastTwoLayers => self.mlp.freeze_all_but_last(2),
        }
        let config = PipelineConfig {
            hidden: vec![1], // unused by build_training_set
            features: self.features,
            trainer: self.trainer.clone(),
            corpus: self.corpus.clone(),
            sampler: self.sampler,
            train_row_fraction: 1.0,
            prediction_batch: self.prediction_batch,
        };
        let t0 = Instant::now();
        let data = build_training_set(field, &config, &self.value_norm, spec.seed ^ 0xF17E)?;
        self.feature_build_s += t0.elapsed().as_secs_f64();
        let trainer = Trainer::new(TrainerConfig {
            epochs: spec.epochs,
            learning_rate: spec.learning_rate,
            seed: spec.seed,
            ..self.trainer.clone()
        });
        let h = trainer.fit_ctx(&mut self.mlp, &data, ctx)?;
        self.history.extend(&h);
        // Leave the network fully trainable for subsequent calls.
        self.mlp.unfreeze_all();
        Ok(h)
    }

    /// Reconstruct a dense field on `target` from a sampled cloud.
    ///
    /// When `target` equals the cloud's source grid, sampled nodes keep
    /// their exact stored values and only void locations are predicted;
    /// on any other grid every node is predicted (Experiment 3).
    pub fn reconstruct(
        &self,
        cloud: &PointCloud,
        target: &Grid3,
    ) -> Result<ScalarField, CoreError> {
        let mut ws = ReconstructWorkspace::default();
        self.reconstruct_with(cloud, target, &mut ws)
    }

    /// [`Self::reconstruct`] through a caller-owned workspace.
    ///
    /// Feature batches stream through `ws`: one feature matrix, one set of
    /// k-d tree scratch buffers and one stack of inference activations are
    /// reused across every batch (and every call), so the steady-state
    /// batch loop allocates nothing. Results are identical to
    /// `reconstruct` — the workspace only changes where intermediates
    /// live, not what is computed.
    pub fn reconstruct_with(
        &self,
        cloud: &PointCloud,
        target: &Grid3,
        ws: &mut ReconstructWorkspace,
    ) -> Result<ScalarField, CoreError> {
        let (out, _status) =
            self.reconstruct_with_ctx(cloud, target, ws, &ExecCtx::unbounded())?;
        Ok(out)
    }

    /// [`Self::reconstruct_with`] under a cancellation context.
    ///
    /// The context is polled once per prediction batch, so an expired
    /// deadline is honored within one batch's worth of work. Batches that
    /// never ran leave their voxels as `f32::NAN` (see [`ReconStatus`]);
    /// the completed batches are a bitwise-exact prefix of the unbounded
    /// run.
    pub fn reconstruct_with_ctx(
        &self,
        cloud: &PointCloud,
        target: &Grid3,
        ws: &mut ReconstructWorkspace,
        ctx: &ExecCtx,
    ) -> Result<(ScalarField, ReconStatus), CoreError> {
        if cloud.is_empty() {
            return Err(CoreError::EmptyCloud);
        }
        let _span = TM_RECON.span();
        let frame = CoordFrame::of_grid(target);
        let extractor = FeatureExtractor::new(cloud, self.features);
        let mut out = ScalarField::zeros(*target);
        let queries = query_nodes(cloud, target, out.values_mut());

        let ReconstructWorkspace {
            features,
            feat_scratch,
            infer,
        } = ws;
        let values = out.values_mut();
        let done = self.predict_rows(
            queries.len(),
            ctx,
            features,
            infer,
            |rows, features| {
                chaos::point("recon.batch");
                let span = TM_RECON_BATCH.span();
                let chunk = &queries[rows];
                extractor.features_for_into(
                    target,
                    &frame,
                    &self.value_norm,
                    chunk,
                    features,
                    feat_scratch,
                );
                span
            },
            |row, value| values[queries[row]] = value,
        )?;
        TM_RECON_ROWS.add(done as u64);
        let mut status = ReconStatus {
            interrupted: None,
            completed_rows: done,
            total_rows: queries.len(),
        };
        if done < queries.len() {
            status.interrupted = ctx.stop_reason();
            TM_RECON_INTERRUPTED.incr();
            // NaN-mark every voxel the run never reached: a NaN is loud
            // under any downstream finite-scan, a stale zero would
            // silently pass as data.
            for &idx in &queries[done..] {
                values[idx] = f32::NAN;
            }
        }
        // Post-reconstruction corruption site: models silent memory/media
        // corruption of the finished buffer. Injected NaNs are caught by
        // the session's non-finite scan exactly like real ones would be.
        chaos::corrupt_f32("recon.output", out.values_mut());
        Ok((out, status))
    }

    /// The reconstruction batch loop: the one place feature rows meet the
    /// network, shared by the whole-grid path, the bricked path and the
    /// server's packed passes.
    ///
    /// Cuts rows `0..n` into [`Self::prediction_batch`] chunks. Per chunk
    /// it polls `ctx`, sizes `features` to the chunk, has `fill(rows,
    /// features)` write the chunk's feature rows, runs the forward pass,
    /// and hands each row's denormalized prediction to `emit(row, value)`.
    /// Whatever `fill` returns (a telemetry span, say) is held until the
    /// chunk's rows are emitted. Returns the rows completed: `n`, or the
    /// chunk-aligned prefix done before `ctx` stopped the run.
    ///
    /// The forward pass is row-independent, so each emitted value depends
    /// only on its own feature row, never on which rows share its chunk.
    pub fn predict_rows<G>(
        &self,
        n: usize,
        ctx: &ExecCtx,
        features: &mut Matrix<f32>,
        infer: &mut InferWorkspace,
        mut fill: impl FnMut(Range<usize>, &mut Matrix<f32>) -> G,
        mut emit: impl FnMut(usize, f32),
    ) -> Result<usize, CoreError> {
        let width = self.features.input_width();
        let mut done = 0;
        while done < n {
            if ctx.should_stop() {
                break;
            }
            let rows = done..(done + self.prediction_batch).min(n);
            features.resize(rows.len(), width);
            let _chunk = fill(rows.clone(), features);
            let pred = self.mlp.forward_with(features, infer)?;
            for (r, row) in rows.clone().enumerate() {
                emit(row, self.value_norm.denormalize(pred[(r, 0)]));
            }
            done = rows.end;
        }
        Ok(done)
    }

    /// Serialize the pipeline (model + normalization + feature config).
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), CoreError> {
        w.write_all(b"FVPL").map_err(fv_nn::NnError::from)?;
        w.write_all(&1u32.to_le_bytes()).map_err(fv_nn::NnError::from)?;
        w.write_all(&(self.features.k as u32).to_le_bytes())
            .map_err(fv_nn::NnError::from)?;
        w.write_all(&[
            u8::from(self.features.relative_coords),
            u8::from(self.features.predict_gradients),
        ])
        .map_err(fv_nn::NnError::from)?;
        w.write_all(&self.value_norm.lo.to_le_bytes())
            .map_err(fv_nn::NnError::from)?;
        w.write_all(&self.value_norm.hi.to_le_bytes())
            .map_err(fv_nn::NnError::from)?;
        serialize::write_model(&self.mlp, w)?;
        Ok(())
    }

    /// Deserialize a pipeline saved with [`Self::write_to`].
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, CoreError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(fv_nn::NnError::from)?;
        if &magic != b"FVPL" {
            return Err(CoreError::Nn(fv_nn::NnError::Format(format!(
                "bad pipeline magic {magic:?}"
            ))));
        }
        let mut u32buf = [0u8; 4];
        r.read_exact(&mut u32buf).map_err(fv_nn::NnError::from)?;
        let version = u32::from_le_bytes(u32buf);
        if version != 1 {
            return Err(CoreError::Nn(fv_nn::NnError::Format(format!(
                "unsupported pipeline version {version}"
            ))));
        }
        r.read_exact(&mut u32buf).map_err(fv_nn::NnError::from)?;
        let k = u32::from_le_bytes(u32buf) as usize;
        let mut flags = [0u8; 2];
        r.read_exact(&mut flags).map_err(fv_nn::NnError::from)?;
        let mut f32buf = [0u8; 4];
        r.read_exact(&mut f32buf).map_err(fv_nn::NnError::from)?;
        let lo = f32::from_le_bytes(f32buf);
        r.read_exact(&mut f32buf).map_err(fv_nn::NnError::from)?;
        let hi = f32::from_le_bytes(f32buf);
        let mlp = serialize::read_model(r)?;
        Ok(Self {
            mlp,
            features: FeatureConfig {
                k,
                relative_coords: flags[0] != 0,
                predict_gradients: flags[1] != 0,
            },
            value_norm: ValueNorm { lo, hi },
            trainer: TrainerConfig::default(),
            corpus: TrainCorpus::Union(vec![0.01, 0.05]),
            sampler: ImportanceConfig::default(),
            prediction_batch: DEFAULT_PREDICTION_BATCH,
            history: History::default(),
            feature_build_s: 0.0,
        })
    }

    /// Save to a file (atomic: temp + fsync + rename, so a crash mid-save
    /// never leaves a torn file under the real name).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        let mut payload = Vec::new();
        self.write_to(&mut payload)?;
        fv_nn::serialize::write_file_atomic(path, |w| {
            use std::io::Write;
            w.write_all(&payload)?;
            Ok(())
        })?;
        Ok(())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        let f = std::fs::File::open(path).map_err(fv_nn::NnError::from)?;
        Self::read_from(std::io::BufReader::new(f))
    }
}

/// Which nodes of `target` a reconstruction from `cloud` must predict.
///
/// On the cloud's own grid the stored samples are copied bit-for-bit into
/// `out` (indexed like `target`) and only the voids are returned; on any
/// other grid (Experiment 3) `out` is left alone and every node is
/// returned.
pub fn query_nodes(cloud: &PointCloud, target: &Grid3, out: &mut [f32]) -> Vec<usize> {
    if cloud.grid() != target {
        return (0..target.num_points()).collect();
    }
    for (&idx, &value) in cloud.indices().iter().zip(cloud.values()) {
        out[idx] = value;
    }
    cloud.void_indices()
}

/// Assemble the training dataset for one timestep under a configuration.
///
/// Public so experiment binaries can measure training-set construction in
/// isolation.
pub fn build_training_set(
    field: &ScalarField,
    config: &PipelineConfig,
    value_norm: &ValueNorm,
    seed: u64,
) -> Result<Dataset, CoreError> {
    let sampler = ImportanceSampler::new(config.sampler);
    let frame = CoordFrame::of_grid(field.grid());
    let mut combined: Option<Dataset> = None;
    for (i, fraction) in config.corpus.fractions().into_iter().enumerate() {
        let cloud = sampler.sample(field, fraction, seed.wrapping_add(i as u64 * 7919));
        if cloud.is_empty() {
            return Err(CoreError::EmptyCloud);
        }
        let voids = cloud.void_indices();
        if voids.is_empty() {
            return Err(CoreError::NoVoids);
        }
        let extractor = FeatureExtractor::new(&cloud, config.features);
        let x = extractor.features_for(field.grid(), &frame, value_norm, &voids);
        let y = training_targets(field, &frame, value_norm, &voids, &config.features);
        let part = Dataset::new(x, y)?;
        combined = Some(match combined {
            None => part,
            Some(acc) => acc.concat(&part)?,
        });
    }
    let mut data = combined.expect("corpus validated non-empty");
    if config.train_row_fraction < 1.0 {
        data = data.subsample(config.train_row_fraction, seed ^ 0xF00D);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_sampling::RandomSampler;

    /// A smooth field a small network learns quickly.
    fn smooth_field(dims: [usize; 3]) -> ScalarField {
        let g = Grid3::new(dims).unwrap();
        ScalarField::from_world_fn(g, |p| {
            ((p[0] * 0.4).sin() + 0.3 * p[1] + (p[2] * 0.6).cos()) as f32
        })
    }

    #[test]
    fn config_validation() {
        let f = smooth_field([6, 6, 6]);
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.hidden.clear();
        assert!(matches!(
            FcnnPipeline::train(&f, &cfg, 1),
            Err(CoreError::BadConfig(_))
        ));
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.corpus = TrainCorpus::Single(1.5);
        assert!(FcnnPipeline::train(&f, &cfg, 1).is_err());
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.train_row_fraction = 0.0;
        assert!(FcnnPipeline::train(&f, &cfg, 1).is_err());
    }

    #[test]
    fn paper_config_shapes() {
        let cfg = PipelineConfig::paper();
        assert_eq!(cfg.hidden, vec![512, 256, 128, 64, 16]);
        assert_eq!(cfg.trainer.epochs, 500);
        assert_eq!(cfg.features.input_width(), 23);
        assert_eq!(cfg.corpus.fractions(), vec![0.01, 0.05]);
    }

    #[test]
    fn training_reduces_loss_and_reconstruction_beats_trivial() {
        let f = smooth_field([12, 12, 8]);
        let cfg = PipelineConfig::small_for_tests();
        let pipeline = FcnnPipeline::train(&f, &cfg, 3).unwrap();
        let h = pipeline.history();
        assert!(h.epoch_loss.len() == cfg.trainer.epochs);
        assert!(
            h.final_loss().unwrap() < h.epoch_loss[0],
            "loss did not decrease: {:?}",
            h.epoch_loss
        );

        let cloud = RandomSampler.sample(&f, 0.05, 11);
        let recon = pipeline.reconstruct(&cloud, f.grid()).unwrap();
        // sampled nodes exact
        for (pos, &idx) in cloud.indices().iter().enumerate() {
            assert_eq!(recon.values()[idx], cloud.values()[pos]);
        }
        // better than predicting the mean everywhere
        let mean_field = ScalarField::filled(*f.grid(), f.mean() as f32);
        let snr_recon = crate::metrics::snr_db(&f, &recon);
        let snr_mean = crate::metrics::snr_db(&f, &mean_field);
        assert!(
            snr_recon > snr_mean,
            "FCNN {snr_recon} dB should beat constant-mean {snr_mean} dB"
        );
    }

    #[test]
    fn reconstruct_on_refined_grid() {
        let f = smooth_field([10, 10, 6]);
        let cfg = PipelineConfig::small_for_tests();
        let pipeline = FcnnPipeline::train(&f, &cfg, 5).unwrap();
        let cloud = RandomSampler.sample(&f, 0.05, 2);
        let fine = f.grid().refined(2).unwrap();
        let recon = pipeline.reconstruct(&cloud, &fine).unwrap();
        assert_eq!(recon.len(), fine.num_points());
        assert!(recon.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_cloud_rejected() {
        let f = smooth_field([8, 8, 4]);
        let cfg = PipelineConfig::small_for_tests();
        let pipeline = FcnnPipeline::train(&f, &cfg, 1).unwrap();
        let empty = PointCloud::from_indices(&f, vec![]);
        assert!(matches!(
            pipeline.reconstruct(&empty, f.grid()),
            Err(CoreError::EmptyCloud)
        ));
    }

    #[test]
    fn fine_tune_case1_improves_on_drifted_field() {
        let f0 = smooth_field([10, 10, 6]);
        // drifted "later timestep": same structure, shifted phase
        let g = *f0.grid();
        let f1 = ScalarField::from_world_fn(g, |p| {
            ((p[0] * 0.4 + 1.5).sin() + 0.3 * p[1] + (p[2] * 0.6 + 0.8).cos()) as f32
        });
        let cfg = PipelineConfig::small_for_tests();
        let mut pipeline = FcnnPipeline::train(&f0, &cfg, 7).unwrap();
        let cloud1 = RandomSampler.sample(&f1, 0.05, 9);

        let stale = pipeline.reconstruct(&cloud1, f1.grid()).unwrap();
        let snr_stale = crate::metrics::snr_db(&f1, &stale);

        // 10 epochs (the paper's Case-1 budget) improves SNR only by a
        // hair at this tiny scale, which makes the assertion sensitive to
        // the shuffle stream; 30 epochs gives a robust margin.
        let spec = FineTuneSpec {
            epochs: 30,
            ..FineTuneSpec::case1()
        };
        let h = pipeline.fine_tune(&f1, &spec).unwrap();
        assert_eq!(h.epoch_loss.len(), 30);
        let tuned = pipeline.reconstruct(&cloud1, f1.grid()).unwrap();
        let snr_tuned = crate::metrics::snr_db(&f1, &tuned);
        assert!(
            snr_tuned > snr_stale,
            "fine-tuning should improve: {snr_stale} -> {snr_tuned}"
        );
    }

    #[test]
    fn fine_tune_case2_freezes_early_layers() {
        let f = smooth_field([8, 8, 6]);
        let cfg = PipelineConfig::small_for_tests();
        let mut pipeline = FcnnPipeline::train(&f, &cfg, 2).unwrap();
        let early_before = pipeline.mlp().layers()[0].weights.clone();
        let spec = FineTuneSpec {
            epochs: 3,
            ..FineTuneSpec::case2()
        };
        pipeline.fine_tune(&f, &spec).unwrap();
        assert_eq!(
            pipeline.mlp().layers()[0].weights,
            early_before,
            "frozen layer moved"
        );
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let f = smooth_field([8, 8, 4]);
        let cfg = PipelineConfig::small_for_tests();
        let pipeline = FcnnPipeline::train(&f, &cfg, 4).unwrap();
        let mut buf = Vec::new();
        pipeline.write_to(&mut buf).unwrap();
        let restored = FcnnPipeline::read_from(buf.as_slice()).unwrap();
        let cloud = RandomSampler.sample(&f, 0.05, 6);
        let a = pipeline.reconstruct(&cloud, f.grid()).unwrap();
        let b = restored.reconstruct(&cloud, f.grid()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn training_set_row_counts() {
        let f = smooth_field([8, 8, 4]);
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.corpus = TrainCorpus::Single(0.1);
        let vn = ValueNorm::fit(f.values());
        let data = build_training_set(&f, &cfg, &vn, 1).unwrap();
        let n = f.len();
        let kept = (0.1f64 * n as f64).ceil() as usize;
        assert_eq!(data.len(), n - kept);
        assert_eq!(data.input_width(), 23);
        assert_eq!(data.target_width(), 4);

        cfg.train_row_fraction = 0.5;
        let half = build_training_set(&f, &cfg, &vn, 1).unwrap();
        assert_eq!(half.len(), data.len().div_ceil(2));
    }

    #[test]
    fn expired_deadline_reconstruction_nan_marks_unvisited_voxels() {
        let f = smooth_field([10, 10, 6]);
        let cfg = PipelineConfig {
            // Tiny batches so the run spans several chunks.
            prediction_batch: 64,
            ..PipelineConfig::small_for_tests()
        };
        let pipeline = FcnnPipeline::train(&f, &cfg, 3).unwrap();
        let cloud = RandomSampler.sample(&f, 0.05, 11);
        let mut ws = ReconstructWorkspace::default();
        let ctx = ExecCtx::unbounded()
            .with_deadline(fv_runtime::Deadline::after(std::time::Duration::ZERO));
        let (out, status) = pipeline
            .reconstruct_with_ctx(&cloud, f.grid(), &mut ws, &ctx)
            .unwrap();
        assert_eq!(status.interrupted, Some(StopReason::DeadlineExceeded));
        assert_eq!(status.completed_rows, 0);
        assert!(!status.is_complete());
        // Stored samples keep their exact values; every void is NaN.
        for (pos, &idx) in cloud.indices().iter().enumerate() {
            assert_eq!(out.values()[idx], cloud.values()[pos]);
        }
        for idx in cloud.void_indices() {
            assert!(out.values()[idx].is_nan(), "void {idx} must be NaN-marked");
        }
    }

    #[test]
    fn unbounded_ctx_reconstruction_matches_plain_call() {
        let f = smooth_field([10, 10, 6]);
        let cfg = PipelineConfig::small_for_tests();
        let pipeline = FcnnPipeline::train(&f, &cfg, 3).unwrap();
        let cloud = RandomSampler.sample(&f, 0.05, 11);
        let plain = pipeline.reconstruct(&cloud, f.grid()).unwrap();
        let mut ws = ReconstructWorkspace::default();
        let (ctxed, status) = pipeline
            .reconstruct_with_ctx(&cloud, f.grid(), &mut ws, &ExecCtx::unbounded())
            .unwrap();
        assert!(status.is_complete() && status.interrupted.is_none());
        assert_eq!(plain, ctxed);
    }

    #[test]
    fn cancelled_fine_tune_keeps_the_network_usable() {
        let f = smooth_field([8, 8, 6]);
        let cfg = PipelineConfig::small_for_tests();
        let mut pipeline = FcnnPipeline::train(&f, &cfg, 2).unwrap();
        let before = pipeline.mlp().clone();
        let token = fv_runtime::CancelToken::new();
        token.cancel();
        let ctx = ExecCtx::unbounded().with_token(token);
        let h = pipeline
            .fine_tune_ctx(&f, &FineTuneSpec::case1(), &ctx)
            .unwrap();
        assert_eq!(h.interrupted, Some(StopReason::Cancelled));
        assert_eq!(pipeline.mlp(), &before, "no batch ran, weights unchanged");
        assert_eq!(
            pipeline.history().interrupted,
            Some(StopReason::Cancelled),
            "session-level history records the interruption"
        );
    }

    #[test]
    fn deterministic_training() {
        let f = smooth_field([8, 8, 4]);
        let cfg = PipelineConfig::small_for_tests();
        let a = FcnnPipeline::train(&f, &cfg, 9).unwrap();
        let b = FcnnPipeline::train(&f, &cfg, 9).unwrap();
        assert_eq!(a.mlp(), b.mlp());
    }
}
