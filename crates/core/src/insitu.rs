//! An adaptive in-situ session driver — operationalizing the paper's
//! "pretrain once, fine-tune as needed" recipe.
//!
//! The paper fine-tunes at *every* timestep (Fig. 11). In production the
//! interesting question is *when* fine-tuning is actually needed: a
//! slowly-evolving simulation can reuse one model for many steps. An
//! [`InSituSession`] monitors the pretrained model's loss on a small probe
//! of each incoming timestep and fine-tunes only when drift exceeds a
//! threshold — trading a little quality headroom for most of the
//! fine-tuning cost.
//!
//! ## Fault tolerance
//!
//! An in-situ session shares a node with the simulation it samples, so it
//! inherits the simulation's failure modes: diverged solver regions hand
//! the sampler NaN/Inf voxels, a preempted job tears checkpoint writes,
//! and a poisoned fine-tune can ruin the model for every later step. A
//! session degrades through a ladder instead of failing:
//!
//! 1. **Sanitize** — non-finite sample values are dropped from the stored
//!    cloud, and non-finite voxels of the incoming field are patched with
//!    classical interpolation before the model probes or trains on them;
//! 2. **Roll back** — the trainer's numerical guard skips poisoned
//!    batches and rolls a diverging fine-tune back to healthy weights
//!    (see `fv_nn::guard`);
//! 3. **Restore** — when a fine-tune had to be rolled back or predictions
//!    go non-finite, the last verified generation in the
//!    [`CheckpointStore`] replaces the in-memory model;
//! 4. **Degrade** — any reconstruction voxel that is still non-finite is
//!    filled by the configured classical fallback interpolator.
//!
//! Every rung is recorded in the [`StepReport`], so a `degraded: true`
//! step is auditable after the run.
//!
//! ## Supervised execution
//!
//! On top of the data ladder, each step runs under a *supervisor*
//! ([`SupervisionConfig`]):
//!
//! * the whole model path (probe, fine-tune, reconstruct) runs inside
//!   `catch_unwind`, so a panic — a crashed worker, a chaos injection —
//!   never escapes [`InSituSession::step`]; the model rolls back to the
//!   pre-step weights (or the last verified checkpoint) and the step
//!   answers with the classical fallback;
//! * an optional per-step deadline turns into a cooperative [`ExecCtx`]
//!   threaded through fine-tuning and reconstruction: an over-budget step
//!   returns a partial model reconstruction (completed batches are exact)
//!   with the remainder filled classically, within one batch of the
//!   budget;
//! * a circuit breaker counts consecutive failed steps (panic, model
//!   error, missed deadline). At `breaker_threshold` it *opens*: the model
//!   path is skipped entirely and steps are answered by the cheap
//!   classical fallback. Every `breaker_probe_interval` open steps, one
//!   *half-open* probe retries the model path; success closes the breaker
//!   and normal operation resumes;
//! * checkpoint saves retry with deterministic backoff
//!   ([`CheckpointStore::save_with_retry`]), and a save that still fails
//!   degrades the step instead of failing it.

use crate::checkpoint::CheckpointStore;
use crate::error::CoreError;
use crate::metrics::snr_db_masked;
use crate::pipeline::{
    build_training_set, FcnnPipeline, FineTuneSpec, PipelineConfig, ReconstructWorkspace,
    TrainCorpus,
};
use fv_field::{Grid3, ScalarField};
use fv_interp::idw::IdwReconstructor;
use fv_interp::nearest::NearestReconstructor;
use fv_interp::Reconstructor;
use fv_nn::train::Trainer;
use fv_runtime::retry::Backoff;
use fv_runtime::{chaos, telemetry, Deadline, ExecCtx, StopReason};
use fv_sampling::{FieldSampler, ImportanceConfig, ImportanceSampler, PointCloud};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

// Session telemetry (inert unless FV_TELEMETRY=1): a span per supervised
// step plus counters for every rung of the degradation ladder and every
// breaker transition, so a snapshot shows *why* a production-shaped run
// degraded, not just that it did.
static TM_STEP: telemetry::Site = telemetry::Site::new("insitu.step", None);
static TM_DEGRADED: telemetry::Counter = telemetry::Counter::new("insitu.degraded_steps");
static TM_DROPPED_SAMPLES: telemetry::Counter = telemetry::Counter::new("insitu.dropped_samples");
static TM_FALLBACK_VOXELS: telemetry::Counter = telemetry::Counter::new("insitu.fallback_voxels");
static TM_PANICS: telemetry::Counter = telemetry::Counter::new("insitu.panics_caught");
static TM_DEADLINE_MISSES: telemetry::Counter = telemetry::Counter::new("insitu.deadline_misses");
static TM_RESTORES: telemetry::Counter = telemetry::Counter::new("insitu.checkpoint_restores");
static TM_IO_RETRIES: telemetry::Counter = telemetry::Counter::new("insitu.io_retries");
static TM_BREAKER_OPENS: telemetry::Counter = telemetry::Counter::new("insitu.breaker_opens");
static TM_BREAKER_PROBES: telemetry::Counter = telemetry::Counter::new("insitu.breaker_probes");
static TM_BREAKER_CLOSES: telemetry::Counter = telemetry::Counter::new("insitu.breaker_closes");

/// Classical interpolator used when the learned model cannot be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackKind {
    /// Inverse-distance weighting over the sampled neighbours (default).
    Idw,
    /// Nearest sampled point — cheapest, blockiest.
    Nearest,
}

impl FallbackKind {
    fn reconstructor(self) -> Box<dyn Reconstructor> {
        match self {
            FallbackKind::Idw => Box::new(IdwReconstructor::default()),
            FallbackKind::Nearest => Box::new(NearestReconstructor),
        }
    }
}

/// Circuit-breaker position, reported per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: the model path runs every step.
    Closed,
    /// Too many consecutive failures: the model path is skipped and steps
    /// are answered by the classical fallback.
    Open,
    /// Recovery probe: one model-path attempt while otherwise open.
    HalfOpen,
}

/// Supervision knobs: per-step time budget, circuit breaker, and I/O
/// retry policy. The defaults are inert for healthy runs — no deadline,
/// and a breaker that only trips after repeated whole-step failures.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Hard per-step time budget for the model path (probe + fine-tune +
    /// reconstruction). `None` leaves steps unbounded. Honored
    /// cooperatively: an expired budget stops within one minibatch /
    /// prediction batch, and the skipped voxels are filled classically.
    pub step_deadline: Option<Duration>,
    /// Consecutive failed steps (panic caught, model error, missed
    /// deadline) that open the breaker.
    pub breaker_threshold: usize,
    /// While open, retry the model path every this-many steps.
    pub breaker_probe_interval: usize,
    /// Backoff policy for checkpoint saves.
    pub io_retry: Backoff,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            step_deadline: None,
            breaker_threshold: 3,
            breaker_probe_interval: 4,
            io_retry: Backoff::default(),
        }
    }
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct InSituConfig {
    /// Storage budget per timestep.
    pub fraction: f64,
    /// Fine-tune recipe applied when drift triggers.
    pub fine_tune: FineTuneSpec,
    /// Fine-tune when the probe loss exceeds the best seen loss by this
    /// relative factor (e.g. `0.5` = 50% worse). `None` fine-tunes every
    /// step (the paper's Fig. 11 behaviour).
    pub drift_threshold: Option<f32>,
    /// Rows in the drift probe.
    pub probe_rows: usize,
    /// Also score each reconstruction against the ground truth (cheap at
    /// experiment scale; off for production runs).
    pub score: bool,
    /// Sampler settings.
    pub sampler: ImportanceConfig,
    /// Base seed.
    pub seed: u64,
    /// Classical interpolator that patches non-finite inputs and, as the
    /// last rung of the degradation ladder, non-finite predictions.
    pub fallback: FallbackKind,
    /// Deadline, breaker and retry policy for the supervised step.
    pub supervision: SupervisionConfig,
}

impl Default for InSituConfig {
    fn default() -> Self {
        Self {
            fraction: 0.03,
            fine_tune: FineTuneSpec::case1(),
            drift_threshold: Some(0.5),
            probe_rows: 2048,
            score: true,
            sampler: ImportanceConfig::default(),
            seed: 0,
            fallback: FallbackKind::Idw,
            supervision: SupervisionConfig::default(),
        }
    }
}

/// What happened at one timestep of the session.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Timestep counter (increments per [`InSituSession::step`]).
    pub step: usize,
    /// Points retained by the sampler.
    pub stored_points: usize,
    /// Probe loss *before* any fine-tuning.
    pub probe_loss: f32,
    /// Whether the drift monitor triggered a fine-tune.
    pub fine_tuned: bool,
    /// Reconstruction SNR (dB), when scoring is enabled. For degraded
    /// steps this is measured against the *sanitized* field (the poisoned
    /// voxels have no meaningful reference value). Scored with
    /// [`snr_db_masked`], so a partially answered step still gets a finite
    /// number over the voxels it did answer (see [`Self::snr_coverage`]).
    pub snr: Option<f64>,
    /// Fraction of voxels the reported [`Self::snr`] actually scored
    /// (voxels finite in both the reference and the reconstruction).
    /// `1.0` for a fully answered step.
    pub snr_coverage: Option<f64>,
    /// Any rung of the fault ladder fired this step.
    pub degraded: bool,
    /// Non-finite voxels in the incoming field.
    pub poisoned_voxels: usize,
    /// Sampled points discarded because their value was non-finite.
    pub dropped_samples: usize,
    /// Reconstruction voxels filled by the classical fallback because the
    /// model predicted a non-finite value.
    pub fallback_voxels: usize,
    /// Batches the fine-tune's numerical guard skipped as poisoned.
    pub poisoned_batches: usize,
    /// The fine-tune diverged and the numerical guard rolled it back.
    pub fine_tune_rolled_back: bool,
    /// The model was replaced from the last verified checkpoint.
    pub restored_from_checkpoint: bool,
    /// A panic in the model path was caught by the supervisor (the step
    /// still answered, via rollback + classical fallback).
    pub panic_caught: bool,
    /// The step blew its [`SupervisionConfig::step_deadline`]; the result
    /// is the completed model prefix plus classical fill.
    pub deadline_missed: bool,
    /// The model path returned an error (stringified here for audit);
    /// the step answered with the classical fallback.
    pub model_error: Option<String>,
    /// Checkpoint-save attempts that had to be retried this step.
    pub io_retries: usize,
    /// The checkpoint save failed even after retries (step degraded, not
    /// failed — the reconstruction is unaffected).
    pub checkpoint_save_failed: bool,
    /// Breaker position after this step.
    pub breaker: BreakerState,
    /// Classical interpolator that produced (part of) this step's answer,
    /// when any voxel came from the fallback path.
    pub fallback_kind: Option<FallbackKind>,
}

/// A stateful pretrain-once, fine-tune-on-drift reconstruction session.
#[derive(Debug, Clone)]
pub struct InSituSession {
    pipeline: FcnnPipeline,
    config: InSituConfig,
    best_probe_loss: f32,
    step: usize,
    checkpoints: Option<CheckpointStore>,
    breaker_open: bool,
    breaker_failures: usize,
    steps_until_probe: usize,
}

impl InSituSession {
    /// Start a session from a pretrained pipeline.
    pub fn new(pipeline: FcnnPipeline, config: InSituConfig) -> Self {
        Self {
            pipeline,
            config,
            best_probe_loss: f32::INFINITY,
            step: 0,
            checkpoints: None,
            breaker_open: false,
            breaker_failures: 0,
            steps_until_probe: 0,
        }
    }

    /// Start a session backed by a [`CheckpointStore`]: healthy steps are
    /// checkpointed, and a poisoned model is restored from the newest
    /// generation that validates.
    pub fn with_checkpoints(
        pipeline: FcnnPipeline,
        config: InSituConfig,
        store: CheckpointStore,
    ) -> Self {
        Self {
            checkpoints: Some(store),
            ..Self::new(pipeline, config)
        }
    }

    /// The current model.
    pub fn pipeline(&self) -> &FcnnPipeline {
        &self.pipeline
    }

    /// The checkpoint store, if this session persists its model.
    pub fn checkpoints(&self) -> Option<&CheckpointStore> {
        self.checkpoints.as_ref()
    }

    fn fallback_recon(&self, cloud: &PointCloud, grid: &Grid3) -> Result<ScalarField, CoreError> {
        self.config
            .fallback
            .reconstructor()
            .reconstruct(cloud, grid)
            .map_err(|e| CoreError::BadConfig(format!("fallback interpolation failed: {e}")))
    }

    /// Breaker position the *next* step will start from.
    pub fn breaker(&self) -> BreakerState {
        if !self.breaker_open {
            BreakerState::Closed
        } else if self.steps_until_probe == 0 {
            BreakerState::HalfOpen
        } else {
            BreakerState::Open
        }
    }

    /// Ingest one timestep: sample it, decide whether to fine-tune,
    /// reconstruct from the samples, and report.
    ///
    /// Returns the sampled cloud (the artifact that would be written to
    /// storage), the reconstruction, and the step report.
    ///
    /// The model path runs supervised (see the module docs): panics are
    /// caught, the optional step deadline is enforced cooperatively, and
    /// an open circuit breaker answers with the classical fallback
    /// without touching the model. The only errors this method returns
    /// are structural (an empty sanitized cloud, a broken fallback
    /// interpolator) — model-path failures degrade instead.
    pub fn step(
        &mut self,
        field: &ScalarField,
    ) -> Result<(PointCloud, ScalarField, StepReport), CoreError> {
        let _span = TM_STEP.span();
        let t = self.step;
        self.step += 1;
        let sampler = ImportanceSampler::new(self.config.sampler);
        let raw_cloud =
            sampler.sample(field, self.config.fraction, self.config.seed ^ (t as u64) << 9);

        // Rung 1 — sanitize. A diverged solver region hands the sampler
        // NaN/Inf voxels; storing them would poison every consumer, so the
        // cloud keeps only finite values, and non-finite voxels of the
        // incoming field are patched with the classical fallback before
        // the model probes, trains or is scored on them.
        let poisoned_voxels = field.values().iter().filter(|v| !v.is_finite()).count();
        let kept: Vec<usize> = raw_cloud
            .indices()
            .iter()
            .zip(raw_cloud.values())
            .filter(|(_, v)| v.is_finite())
            .map(|(&i, _)| i)
            .collect();
        let dropped_samples = raw_cloud.len() - kept.len();
        let cloud = if dropped_samples == 0 {
            raw_cloud
        } else {
            PointCloud::from_indices(field, kept)
        };
        if cloud.is_empty() {
            return Err(CoreError::EmptyCloud);
        }
        let mut fallback_field: Option<ScalarField> = None;
        let reference: Cow<'_, ScalarField> = if poisoned_voxels == 0 {
            Cow::Borrowed(field)
        } else {
            let fb = self.fallback_recon(&cloud, field.grid())?;
            let mut patched = field.clone();
            for (v, &fbv) in patched.values_mut().iter_mut().zip(fb.values()) {
                if !v.is_finite() {
                    *v = fbv;
                }
            }
            fallback_field = Some(fb);
            Cow::Owned(patched)
        };

        // Per-step budget: one cooperative context threaded through the
        // fine-tune minibatch loop and the reconstruction batch loop.
        let ctx = match self.config.supervision.step_deadline {
            Some(budget) => ExecCtx::unbounded().with_deadline(Deadline::after(budget)),
            None => ExecCtx::unbounded(),
        };

        // Breaker gate. While open, skip the model entirely (the cheap
        // classical path answers); every `breaker_probe_interval`-th open
        // step runs one half-open probe.
        let entry_state = self.breaker();
        let attempt_model = entry_state != BreakerState::Open;
        if entry_state == BreakerState::Open {
            self.steps_until_probe -= 1;
        }
        if entry_state == BreakerState::HalfOpen {
            TM_BREAKER_PROBES.incr();
        }

        let mut panic_caught = false;
        let mut model_error: Option<String> = None;
        let mut restored_from_checkpoint = false;
        let mut outcome: Option<ModelOutcome> = None;
        if attempt_model {
            // Snapshot the weights: a panic mid-fine-tune can leave the
            // in-memory model torn, and `catch_unwind` gives no cleaner
            // recovery point than "before the step".
            let snapshot = self.pipeline.clone();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.model_step(field, &cloud, reference.as_ref(), t, &ctx)
            }));
            match attempt {
                Ok(Ok(m)) => outcome = Some(m),
                Ok(Err(e)) => model_error = Some(e.to_string()),
                Err(payload) => {
                    panic_caught = true;
                    model_error = Some(match payload.downcast_ref::<chaos::ChaosPanic>() {
                        Some(p) => format!("panic injected at chaos site {}", p.site),
                        None => "panic in model path".to_string(),
                    });
                    // Prefer the last verified on-disk generation over the
                    // pre-step snapshot when a store is attached — the
                    // snapshot is in-memory-only and could already be the
                    // product of an earlier soft failure.
                    self.pipeline = snapshot;
                    if let Some(store) = &self.checkpoints {
                        if let Ok(Some((_gen, healthy))) = store.load_latest() {
                            self.pipeline = healthy;
                            restored_from_checkpoint = true;
                        }
                    }
                }
            }
        }
        let deadline_missed =
            attempt_model && matches!(ctx.stop_reason(), Some(StopReason::DeadlineExceeded));

        // Breaker bookkeeping: a failed attempt counts toward opening (or
        // re-opens a half-open probe); a clean attempt closes it.
        let attempt_failed = attempt_model && (outcome.is_none() || deadline_missed);
        if attempt_model {
            if attempt_failed {
                self.breaker_failures += 1;
                if entry_state == BreakerState::HalfOpen
                    || self.breaker_failures >= self.config.supervision.breaker_threshold
                {
                    TM_BREAKER_OPENS.incr();
                    self.breaker_open = true;
                    self.steps_until_probe = self.config.supervision.breaker_probe_interval;
                }
            } else {
                if self.breaker_open {
                    TM_BREAKER_CLOSES.incr();
                }
                self.breaker_open = false;
                self.breaker_failures = 0;
            }
        }

        // Assemble the answer. A missing/failed model path means the
        // whole step is the classical fallback; a partial model result
        // keeps its completed prefix and fills the rest classically.
        let fallback_voxels;
        let (probe_loss, fine_tuned, fine_tune_rolled_back, poisoned_batches, recon) =
            match outcome {
                Some(m) => {
                    restored_from_checkpoint |= m.restored_from_checkpoint;
                    let mut recon = m.recon;
                    // Rung 4 — non-finite voxels (model poison or batches a
                    // deadline skipped) are filled classically.
                    let bad: Vec<usize> = recon
                        .values()
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| !v.is_finite())
                        .map(|(i, _)| i)
                        .collect();
                    fallback_voxels = bad.len();
                    if !bad.is_empty() {
                        let fb = match &fallback_field {
                            Some(f) => f,
                            None => {
                                fallback_field = Some(self.fallback_recon(&cloud, field.grid())?);
                                fallback_field.as_ref().expect("just set")
                            }
                        };
                        for idx in bad {
                            recon.values_mut()[idx] = fb.values()[idx];
                        }
                    }
                    (
                        m.probe_loss,
                        m.fine_tuned,
                        m.fine_tune_rolled_back,
                        m.poisoned_batches,
                        recon,
                    )
                }
                None => {
                    let recon = match fallback_field.take() {
                        Some(f) => f,
                        None => self.fallback_recon(&cloud, field.grid())?,
                    };
                    fallback_voxels = recon.len();
                    (f32::NAN, false, false, 0, recon)
                }
            };
        let fallback_kind = (fallback_voxels > 0).then_some(self.config.fallback);

        let degraded = poisoned_voxels > 0
            || dropped_samples > 0
            || fallback_voxels > 0
            || poisoned_batches > 0
            || fine_tune_rolled_back
            || restored_from_checkpoint
            || panic_caught
            || deadline_missed
            || model_error.is_some()
            || !attempt_model;
        let mut io_retries = 0usize;
        let mut checkpoint_save_failed = false;
        if !degraded {
            if let Some(store) = &mut self.checkpoints {
                match store.save_with_retry(&self.pipeline, &self.config.supervision.io_retry) {
                    Ok((_gen, retries)) => io_retries = retries,
                    // A save that fails even after retries costs the
                    // recovery point, not the step.
                    Err(_) => checkpoint_save_failed = true,
                }
            }
        }

        // Degradation telemetry, recorded whether or not scoring is on.
        if degraded || checkpoint_save_failed {
            TM_DEGRADED.incr();
        }
        TM_DROPPED_SAMPLES.add(dropped_samples as u64);
        TM_FALLBACK_VOXELS.add(fallback_voxels as u64);
        if panic_caught {
            TM_PANICS.incr();
        }
        if deadline_missed {
            TM_DEADLINE_MISSES.incr();
        }
        if restored_from_checkpoint {
            TM_RESTORES.incr();
        }
        TM_IO_RETRIES.add(io_retries as u64);

        // Score with the masked variant: the rung-4 fill normally leaves a
        // fully finite answer (coverage 1.0, value bitwise-equal to the
        // plain snr_db), but if any non-finite voxel survives — e.g. the
        // classical fallback itself had nothing to say — the step still
        // reports a finite SNR over what it answered plus the coverage.
        let scored = self
            .config
            .score
            .then(|| snr_db_masked(reference.as_ref(), &recon));
        let report = StepReport {
            step: t,
            stored_points: cloud.len(),
            probe_loss,
            fine_tuned,
            snr: scored.map(|s| s.value),
            snr_coverage: scored.map(|s| s.coverage),
            degraded: degraded || checkpoint_save_failed,
            poisoned_voxels,
            dropped_samples,
            fallback_voxels,
            poisoned_batches,
            fine_tune_rolled_back,
            restored_from_checkpoint,
            panic_caught,
            deadline_missed,
            model_error,
            io_retries,
            checkpoint_save_failed,
            breaker: self.breaker(),
            fallback_kind,
        };
        Ok((cloud, recon, report))
    }

    /// The unsupervised model path: drift probe, conditional fine-tune,
    /// reconstruction, and the checkpoint-restore rung. Runs inside the
    /// supervisor's `catch_unwind` with `ctx` enforcing the step budget.
    fn model_step(
        &mut self,
        field: &ScalarField,
        cloud: &PointCloud,
        reference: &ScalarField,
        t: usize,
        ctx: &ExecCtx,
    ) -> Result<ModelOutcome, CoreError> {
        chaos::point("insitu.step");

        // Drift probe: the current model's loss on a small sample of this
        // timestep's would-be training rows.
        let probe_cfg = PipelineConfig {
            hidden: vec![1], // unused by build_training_set
            features: *self.pipeline.feature_config(),
            trainer: fv_nn::TrainerConfig::default(),
            corpus: TrainCorpus::Single(self.config.fraction),
            sampler: self.config.sampler,
            train_row_fraction: 1.0,
            prediction_batch: 8192,
        };
        let full_probe = build_training_set(
            reference,
            &probe_cfg,
            self.pipeline.value_norm(),
            self.config.seed ^ t as u64,
        )?;
        let probe = if full_probe.len() > self.config.probe_rows {
            full_probe.subsample(
                self.config.probe_rows as f64 / full_probe.len() as f64,
                self.config.seed ^ 0xBEEF,
            )
        } else {
            full_probe
        };
        let probe_loss = Trainer::default().evaluate(self.pipeline.mlp(), &probe)?;

        let should_tune = match self.config.drift_threshold {
            None => true,
            Some(threshold) => {
                !self.best_probe_loss.is_finite()
                    || !probe_loss.is_finite()
                    || probe_loss > self.best_probe_loss * (1.0 + threshold)
            }
        };
        let mut fine_tune_rolled_back = false;
        let mut restored_from_checkpoint = false;
        let mut poisoned_batches = 0usize;
        if should_tune {
            let mut spec = self.config.fine_tune.clone();
            spec.seed ^= t as u64;
            // Rung 2 — fine-tune on the *raw* field: the trainer's guard
            // skips poisoned batches and rolls a diverging fine-tune back
            // to healthy weights, and doing it here (rather than on the
            // patched field) keeps interpolated values out of the model.
            let h = self.pipeline.fine_tune_ctx(field, &spec, ctx)?;
            fine_tune_rolled_back = h.rolled_back();
            poisoned_batches = h.poisoned_batches;
            if fine_tune_rolled_back || poisoned_batches > 0 {
                // Rung 3 — a fine-tune that touched poison is suspect:
                // prefer the last *verified* on-disk model over whatever
                // the partial update produced, when a store is attached.
                if let Some(store) = &self.checkpoints {
                    if let Some((_gen, healthy)) = store.load_latest()? {
                        self.pipeline = healthy;
                        restored_from_checkpoint = true;
                    }
                }
            }
        }
        if probe_loss.is_finite() {
            self.best_probe_loss = self.best_probe_loss.min(probe_loss);
        }

        let mut ws = ReconstructWorkspace::default();
        let (mut recon, status) =
            self.pipeline
                .reconstruct_with_ctx(cloud, field.grid(), &mut ws, ctx)?;
        if status.is_complete() && !restored_from_checkpoint {
            let has_bad = recon.values().iter().any(|v| !v.is_finite());
            if has_bad {
                // Rung 3 again — non-finite predictions from a *complete*
                // reconstruction mean the in-memory model itself is
                // suspect. (An interrupted reconstruction's NaNs are just
                // unvisited voxels; the fallback fills those.)
                if let Some(store) = &self.checkpoints {
                    if let Some((_gen, healthy)) = store.load_latest()? {
                        self.pipeline = healthy;
                        restored_from_checkpoint = true;
                        let (r2, _s2) = self.pipeline.reconstruct_with_ctx(
                            cloud,
                            field.grid(),
                            &mut ws,
                            ctx,
                        )?;
                        recon = r2;
                    }
                }
            }
        }
        Ok(ModelOutcome {
            probe_loss,
            fine_tuned: should_tune,
            fine_tune_rolled_back,
            poisoned_batches,
            restored_from_checkpoint,
            recon,
        })
    }
}

/// What a successful (possibly partial) model path hands the supervisor.
struct ModelOutcome {
    probe_loss: f32,
    fine_tuned: bool,
    fine_tune_rolled_back: bool,
    poisoned_batches: usize,
    restored_from_checkpoint: bool,
    recon: ScalarField,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_sims::{Hurricane, Simulation};

    fn session(drift: Option<f32>) -> (Hurricane, InSituSession) {
        let sim = Hurricane::builder().resolution([14, 14, 6]).timesteps(10).build();
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.trainer.epochs = 8;
        let pipeline = FcnnPipeline::train(&sim.timestep(0), &cfg, 3).unwrap();
        let session = InSituSession::new(
            pipeline,
            InSituConfig {
                fraction: 0.05,
                drift_threshold: drift,
                fine_tune: FineTuneSpec {
                    epochs: 3,
                    ..FineTuneSpec::case1()
                },
                probe_rows: 256,
                ..Default::default()
            },
        );
        (sim, session)
    }

    #[test]
    fn always_tune_mode_tunes_every_step() {
        let (sim, mut session) = session(None);
        for t in 0..3 {
            let (cloud, recon, report) = session.step(&sim.timestep(t)).unwrap();
            assert_eq!(report.step, t);
            assert!(report.fine_tuned);
            assert!(report.probe_loss.is_finite());
            assert!(report.snr.unwrap().is_finite());
            assert_eq!(cloud.len(), recon.len() * 5 / 100 + usize::from(recon.len() * 5 % 100 != 0));
        }
    }

    #[test]
    fn high_threshold_skips_fine_tuning_on_static_data() {
        let (sim, mut session) = session(Some(1000.0));
        // Feed the SAME timestep repeatedly: after the first probe there is
        // no drift, so no fine-tuning beyond what the threshold allows.
        let field = sim.timestep(0);
        let (_, _, first) = session.step(&field).unwrap();
        // first step establishes the baseline (inf best -> tunes)
        assert!(first.fine_tuned);
        let (_, _, second) = session.step(&field).unwrap();
        assert!(!second.fine_tuned, "static data must not re-trigger");
    }

    #[test]
    fn healthy_steps_are_not_degraded() {
        let (sim, mut session) = session(None);
        let (_, _, report) = session.step(&sim.timestep(0)).unwrap();
        assert!(!report.degraded);
        assert_eq!(report.poisoned_voxels, 0);
        assert_eq!(report.dropped_samples, 0);
        assert_eq!(report.fallback_voxels, 0);
        assert!(!report.fine_tune_rolled_back);
        assert!(!report.restored_from_checkpoint);
    }

    #[test]
    fn poisoned_field_degrades_but_reconstruction_stays_finite() {
        let (sim, mut session) = session(None);
        let mut field = sim.timestep(0);
        let poisoned = fv_field::faults::poison_field(&mut field, 3, 2, 99);
        assert!(poisoned > 0);
        let (cloud, recon, report) = session.step(&field).unwrap();
        assert!(report.degraded, "poison must mark the step degraded");
        assert_eq!(report.poisoned_voxels, poisoned);
        assert!(
            cloud.values().iter().all(|v| v.is_finite()),
            "stored cloud must be sanitized"
        );
        assert!(
            recon.values().iter().all(|v| v.is_finite()),
            "reconstruction must be finite"
        );
        assert!(report.snr.unwrap().is_finite());
        // the session keeps working on the next, clean timestep
        let (_, recon2, report2) = session.step(&sim.timestep(1)).unwrap();
        assert!(!report2.degraded);
        assert!(recon2.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn checkpointed_session_saves_healthy_generations() {
        let (sim, mut session0) = session(None);
        let dir = std::env::temp_dir().join(format!("fv_insitu_ckpt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::checkpoint::CheckpointStore::open(&dir, 3).unwrap();
        let mut session = InSituSession::with_checkpoints(
            session0.pipeline().clone(),
            session0.config.clone(),
            store,
        );
        session0.step(&sim.timestep(0)).unwrap(); // keep session0 usage honest
        let (_, _, r0) = session.step(&sim.timestep(0)).unwrap();
        assert!(!r0.degraded);
        assert!(session.checkpoints().unwrap().latest().is_some());
        let (gen, restored) = session.checkpoints().unwrap().load_latest().unwrap().unwrap();
        assert_eq!(Some(gen), session.checkpoints().unwrap().latest());
        assert_eq!(restored.mlp(), session.pipeline().mlp());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_step_deadline_degrades_to_fallback_not_an_error() {
        let (sim, mut session) = session(None);
        session.config.supervision.step_deadline = Some(std::time::Duration::ZERO);
        let (_, recon, report) = session.step(&sim.timestep(0)).unwrap();
        assert!(report.deadline_missed);
        assert!(report.degraded);
        assert!(report.fallback_voxels > 0, "skipped batches must be filled");
        assert_eq!(report.fallback_kind, Some(FallbackKind::Idw));
        assert!(recon.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn drift_eventually_triggers_fine_tune() {
        let (sim, mut session) = session(Some(0.05));
        let mut tuned_after_first = false;
        let _ = session.step(&sim.timestep(0)).unwrap();
        for t in 1..6 {
            let (_, _, report) = session.step(&sim.timestep(t)).unwrap();
            tuned_after_first |= report.fine_tuned;
        }
        assert!(
            tuned_after_first,
            "a drifting hurricane should exceed a 5% drift threshold"
        );
    }
}
