//! The micro-batcher: coalesces concurrent reconstruction requests into
//! shared forward passes.
//!
//! Requests land in a bounded queue (full ⇒ typed `Busy` backpressure at
//! the door, never an unbounded buffer). A dedicated batcher thread
//! collects them and flushes when the pending row count reaches the
//! model's prediction batch, when the flush deadline since the first
//! pending request elapses, or immediately in batch-size-1 mode (the
//! bench's comparison baseline). A flush groups jobs by model entry and
//! runs each group in two phases:
//!
//! 1. **Prepare (parallel over requests)**: per request, build the
//!    k-d tree, copy stored samples, extract the feature matrix for the
//!    query rows. Feature rows are per-query independent, so per-request
//!    extraction is bitwise-identical to the direct path's chunked
//!    extraction.
//! 2. **Infer (shared workspace)**: the feature rows of *all* requests in
//!    the group, concatenated in order, run through the pipeline's one
//!    batch loop (`FcnnPipeline::predict_rows`), which packs them into
//!    `prediction_batch`-row passes through a single reused
//!    [`InferWorkspace`] — the steady-state forward loop allocates
//!    nothing. The matmul kernel
//!    computes each output row as an independent dot product
//!    (`matmul_transpose_b_into`), so an output row's bits do not depend
//!    on which other requests share its pass — served results are
//!    bitwise-identical to per-request `reconstruct` calls, which CI
//!    asserts.
//!
//! Within a group, jobs that share an interned sample cloud (the server
//! deduplicates identical uploads to one `Arc`) *and* a target grid
//! coalesce into a single unit of work: one k-d tree, one feature
//! extraction, one set of forward rows, the answer cloned to every
//! requester. A thundering herd of identical requests — many dashboards
//! watching the same dataset — costs one reconstruction per flush
//! instead of N, which is where the p99 win under concurrency comes from
//! on top of the packed passes.
//!
//! Requests larger than one prediction batch gain nothing from packing
//! and are executed individually via `reconstruct_with_ctx` (still through
//! a reused workspace, still under their own deadline).
//!
//! The model path runs under `catch_unwind`: a panicking model (or one
//! producing non-finite output — including the `serve.infer` chaos
//! corruption site) records a breaker failure and every affected request
//! is demoted to the classical IDW fallback with a typed `Degraded`
//! response instead of an error. An open breaker skips the model path
//! outright.

use crate::proto::ErrorCode;
use crate::registry::ModelEntry;
use crate::session::{InflightGuard, TenantStats};
use fillvoid_core::features::FeatureExtractor;
use fillvoid_core::normalize::CoordFrame;
use fillvoid_core::pipeline::query_nodes;
use fillvoid_core::ReconstructWorkspace;
use fv_field::Grid3;
use fv_interp::{idw::IdwReconstructor, Reconstructor};
use fv_linalg::Matrix;
use fv_nn::InferWorkspace;
use fv_runtime::{chaos, telemetry, ExecCtx};
use fv_sampling::PointCloud;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

static TM_FLUSH: telemetry::Site = telemetry::Site::new("serve.flush", None);
static TM_INFER: telemetry::Site = telemetry::Site::new("serve.infer", Some("serve.flush"));
static TM_BATCH_JOBS: telemetry::Counter = telemetry::Counter::new("serve.batch.jobs");
static TM_BATCH_ROWS: telemetry::Gauge = telemetry::Gauge::new("serve.batch.rows");
static TM_DEGRADED: telemetry::Counter = telemetry::Counter::new("serve.degraded");
static TM_DEADLINE: telemetry::Counter = telemetry::Counter::new("serve.deadline_expired");
static TM_DEDUP: telemetry::Counter = telemetry::Counter::new("serve.batch.dedup");

/// Micro-batcher tuning.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Bounded queue depth; a full queue rejects with `Busy`.
    pub queue_depth: usize,
    /// Flush when pending query rows reach this (0 ⇒ use each model's
    /// prediction batch).
    pub max_rows: usize,
    /// Flush when this much time has passed since the first pending job.
    pub flush_after: Duration,
    /// `false` = batch-size-1 mode: flush after every job (the bench
    /// baseline micro-batching is measured against).
    pub batch: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            queue_depth: 128,
            max_rows: 0,
            flush_after: Duration::from_micros(500),
            batch: true,
        }
    }
}

/// One queued reconstruction request.
#[derive(Debug)]
pub struct ReconJob {
    /// Model to run.
    pub entry: Arc<ModelEntry>,
    /// Sample cloud to reconstruct from.
    pub cloud: Arc<PointCloud>,
    /// Grid to densify onto.
    pub target: Grid3,
    /// Cancellation/deadline context (polled at admission, batch start
    /// and per inference chunk for oversized jobs).
    pub ctx: ExecCtx,
    /// Owning tenant (for counters).
    pub tenant: Arc<TenantStats>,
    /// The tenant's in-flight slot; the batcher releases it *before* the
    /// outcome is sent (or on drop, if the job never gets an answer).
    pub guard: InflightGuard,
    /// Estimated query rows (for flush-on-size).
    pub rows: usize,
    /// Where the outcome goes (a rendezvous the connection thread waits
    /// on).
    pub resp: SyncSender<ReconOutcome>,
}

/// How a queued request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconOutcome {
    /// Full-fidelity model output.
    Ok(Vec<f32>),
    /// Classical-fallback output with the demotion reason.
    Degraded(Vec<f32>, String),
    /// Typed rejection (deadline, internal failure).
    Rejected(ErrorCode, String),
    /// The server shut down before the request ran.
    Shutdown,
}

impl ReconJob {
    /// Answer the request, releasing the tenant's in-flight slot *before*
    /// the outcome is sent. The send synchronizes with the connection
    /// thread's recv, so by the time a client has read its response — and
    /// can issue its next request or a `Stats` scrape — the slot is
    /// already free; an already-answered request can never be observed
    /// still holding one.
    fn respond(self, outcome: ReconOutcome) {
        let ReconJob { guard, resp, .. } = self;
        drop(guard);
        let _ = resp.send(outcome);
    }
}

enum Msg {
    Job(Box<ReconJob>),
    Shutdown,
}

/// Reused buffers for the shared inference phase.
struct BatchWorkspace {
    packed: Matrix<f32>,
    infer: InferWorkspace,
    /// Predictions of a group's packed rows, in packing order.
    pred: Vec<f32>,
    recon: ReconstructWorkspace,
}

impl Default for BatchWorkspace {
    fn default() -> Self {
        Self {
            packed: Matrix::zeros(0, 0),
            infer: InferWorkspace::default(),
            pred: Vec::new(),
            recon: ReconstructWorkspace::default(),
        }
    }
}

/// Callback run by the batcher thread after every flush, once the
/// batch's jobs have been answered and their model `Arc`s dropped. The
/// server hooks the registry's drain poll here so a retiring model
/// version whose last pin was an in-flight batch is retired promptly,
/// not only at the next session close.
pub type AfterFlush = Arc<dyn Fn() + Send + Sync>;

/// Handle to the batcher thread.
pub struct MicroBatcher {
    tx: SyncSender<Msg>,
    // Mutex<Option<..>> so shutdown works through a shared reference (the
    // server holds the batcher inside an Arc'd shared state).
    handle: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
    flushes: Arc<AtomicU64>,
}

impl std::fmt::Debug for MicroBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroBatcher")
            .field("flushes", &self.flushes.load(Ordering::Relaxed))
            .finish()
    }
}

impl MicroBatcher {
    /// Spawn the batcher thread.
    pub fn start(cfg: BatchConfig) -> Self {
        Self::start_with(cfg, None)
    }

    /// Spawn the batcher thread with an [`AfterFlush`] hook.
    pub fn start_with(cfg: BatchConfig, after_flush: Option<AfterFlush>) -> Self {
        let (tx, rx) = sync_channel(cfg.queue_depth.max(1));
        let flushes = Arc::new(AtomicU64::new(0));
        let counter = flushes.clone();
        let handle = std::thread::Builder::new()
            .name("fv-serve-batcher".into())
            .spawn(move || worker(rx, cfg, counter, after_flush))
            .expect("spawn batcher");
        Self {
            tx,
            handle: std::sync::Mutex::new(Some(handle)),
            flushes,
        }
    }

    /// Non-blocking submit. On rejection the job comes back so the caller
    /// can answer with backpressure: `Err((job, false))` = queue full,
    /// `Err((job, true))` = batcher already shut down.
    pub fn try_submit(&self, job: Box<ReconJob>) -> Result<(), (Box<ReconJob>, bool)> {
        match self.tx.try_send(Msg::Job(job)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(Msg::Job(j))) => Err((j, false)),
            Err(TrySendError::Disconnected(Msg::Job(j))) => Err((j, true)),
            Err(_) => unreachable!("only jobs are submitted"),
        }
    }

    /// Flushes performed so far (observability for tests/bench).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Graceful stop: the current pending batch is flushed (executed),
    /// anything still queued behind the shutdown marker is answered with
    /// [`ReconOutcome::Shutdown`], and the thread is joined. Idempotent
    /// and callable through a shared reference.
    pub fn shutdown(&self) {
        let handle = self.handle.lock().expect("batcher handle").take();
        if let Some(handle) = handle {
            // A full queue is fine: the worker is draining it. An error
            // means the worker is already gone — nothing left to flush.
            let _ = self.tx.send(Msg::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker(
    rx: Receiver<Msg>,
    cfg: BatchConfig,
    flushes: Arc<AtomicU64>,
    after_flush: Option<AfterFlush>,
) {
    let mut ws = BatchWorkspace::default();
    let mut pending: Vec<ReconJob> = Vec::new();
    let mut pending_rows = 0usize;
    let mut first_at = Instant::now();
    // The hook must never kill the worker: it runs third-party-ish code
    // (the server's drain poll) on the batcher thread.
    let ran_flush = |hook: &Option<AfterFlush>| {
        if let Some(h) = hook {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h()));
        }
    };
    loop {
        let msg = if pending.is_empty() {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => break, // all senders gone; nothing pending
            }
        } else {
            let remaining = cfg.flush_after.saturating_sub(first_at.elapsed());
            match rx.recv_timeout(remaining) {
                Ok(m) => m,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    flush(&mut pending, &mut ws, &flushes);
                    ran_flush(&after_flush);
                    pending_rows = 0;
                    continue;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    flush(&mut pending, &mut ws, &flushes);
                    ran_flush(&after_flush);
                    break;
                }
            }
        };
        match msg {
            Msg::Job(job) => {
                if pending.is_empty() {
                    first_at = Instant::now();
                }
                let cap = if cfg.max_rows > 0 {
                    cfg.max_rows
                } else {
                    job.entry.pipeline.prediction_batch()
                };
                pending_rows += job.rows;
                pending.push(*job);
                if !cfg.batch || pending_rows >= cap || pending.len() >= cfg.queue_depth {
                    flush(&mut pending, &mut ws, &flushes);
                    ran_flush(&after_flush);
                    pending_rows = 0;
                }
            }
            Msg::Shutdown => {
                // In-flight batch executes; everything behind the marker
                // is answered with a typed Shutdown.
                flush(&mut pending, &mut ws, &flushes);
                while let Ok(Msg::Job(job)) = rx.try_recv() {
                    job.respond(ReconOutcome::Shutdown);
                }
                ran_flush(&after_flush);
                break;
            }
        }
    }
}

/// Execute and answer every pending job, grouped by model entry (same
/// model ⇒ same forward passes), preserving arrival order within groups.
///
/// The batcher thread must outlive any single batch: a panic that escapes
/// the per-group guard (e.g. the `serve.batch` chaos site, which fires
/// before jobs are even grouped) answers whatever is still pending with a
/// typed error and leaves the worker loop running.
fn flush(pending: &mut Vec<ReconJob>, ws: &mut BatchWorkspace, flushes: &Arc<AtomicU64>) {
    if pending.is_empty() {
        return;
    }
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        flush_inner(pending, ws, flushes)
    }));
    if attempt.is_err() {
        // Jobs already drained into the panicking scope were dropped with
        // their response channels (the handler answers "batcher gone");
        // anything still pending gets an explicit typed rejection. Either
        // way every in-flight slot guard is released here.
        for job in pending.drain(..) {
            job.respond(ReconOutcome::Rejected(
                ErrorCode::Internal,
                "batch worker panicked".into(),
            ));
        }
    }
}

fn flush_inner(pending: &mut Vec<ReconJob>, ws: &mut BatchWorkspace, flushes: &Arc<AtomicU64>) {
    let _span = TM_FLUSH.span();
    chaos::point("serve.batch");
    TM_BATCH_JOBS.add(pending.len() as u64);
    TM_BATCH_ROWS.set(pending.iter().map(|j| j.rows as u64).sum());
    flushes.fetch_add(1, Ordering::Relaxed);

    let mut groups: Vec<(*const ModelEntry, Vec<ReconJob>)> = Vec::new();
    for job in pending.drain(..) {
        let key = Arc::as_ptr(&job.entry);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    for (_, group) in groups {
        run_group(group, ws);
    }
}

/// Per-job result of the model path.
enum ModelResult {
    Done(Vec<f32>),
    Expired,
    NonFinite,
}

fn run_group(jobs: Vec<ReconJob>, ws: &mut BatchWorkspace) {
    let entry = jobs[0].entry.clone();

    if !entry.breaker_allow() {
        let reason = format!(
            "circuit breaker open for ({}, v{})",
            entry.key.0, entry.key.1
        );
        for job in jobs {
            respond_fallback(job, &reason);
        }
        return;
    }

    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_group_model(&entry, &jobs, ws)
    }));
    match attempt {
        Ok(Ok(results)) => {
            let ran_any = results.iter().any(|r| !matches!(r, ModelResult::Expired));
            let any_bad = results.iter().any(|r| matches!(r, ModelResult::NonFinite));
            if ran_any {
                entry.breaker_record(!any_bad);
            }
            for (job, result) in jobs.into_iter().zip(results) {
                match result {
                    ModelResult::Done(values) => {
                        job.respond(ReconOutcome::Ok(values));
                    }
                    ModelResult::Expired => {
                        TM_DEADLINE.incr();
                        job.respond(ReconOutcome::Rejected(
                            ErrorCode::DeadlineExceeded,
                            "deadline expired before the batch ran".into(),
                        ));
                    }
                    ModelResult::NonFinite => {
                        respond_fallback(job, "model produced non-finite output");
                    }
                }
            }
        }
        Ok(Err(e)) => {
            entry.breaker_record(false);
            let reason = format!("model path failed: {e}");
            for job in jobs {
                respond_fallback(job, &reason);
            }
        }
        Err(panic) => {
            entry.breaker_record(false);
            let reason = format!("model path panicked: {}", panic_message(&panic));
            for job in jobs {
                respond_fallback(job, &reason);
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if p.downcast_ref::<chaos::ChaosPanic>().is_some() {
        "injected chaos panic".into()
    } else {
        "opaque panic payload".into()
    }
}

/// Classical IDW fallback with a `Degraded` response; stored samples are
/// restored exactly like the model path does on a same-grid request.
fn respond_fallback(job: ReconJob, reason: &str) {
    TM_DEGRADED.incr();
    let outcome = match IdwReconstructor::default().reconstruct(&job.cloud, &job.target) {
        Ok(mut field) => {
            if job.cloud.grid() == &job.target {
                for (pos, &idx) in job.cloud.indices().iter().enumerate() {
                    field.values_mut()[idx] = job.cloud.values()[pos];
                }
            }
            ReconOutcome::Degraded(field.into_values(), reason.to_string())
        }
        Err(e) => ReconOutcome::Rejected(
            ErrorCode::Internal,
            format!("fallback failed after: {reason}: {e}"),
        ),
    };
    job.respond(outcome);
}

/// Per-unique-request preparation (phase 1) output for packable jobs.
/// Jobs that share a sample cloud (the server interns identical uploads,
/// so equality is pointer equality) and a target grid coalesce into one
/// prep: one feature extraction, one set of forward rows, the answer
/// fanned out to every requester.
struct Prep {
    job_idxs: Vec<usize>,
    out: Vec<f32>,
    queries: Vec<usize>,
    features: Matrix<f32>,
}

/// The model path for one group. Returns one result per job, in order.
fn run_group_model(
    entry: &Arc<ModelEntry>,
    jobs: &[ReconJob],
    ws: &mut BatchWorkspace,
) -> Result<Vec<ModelResult>, fillvoid_core::CoreError> {
    let pipeline = &entry.pipeline;
    let batch_rows = pipeline.prediction_batch();
    let width = pipeline.feature_config().input_width();

    let mut results: Vec<ModelResult> = Vec::with_capacity(jobs.len());
    for _ in jobs {
        results.push(ModelResult::Expired); // placeholder, overwritten below
    }

    // Split: small jobs pack into shared passes; oversized ones run
    // individually (they already fill whole prediction batches alone).
    // Small jobs with the same interned cloud and target grid coalesce
    // into one unit of work — under a thundering herd of identical
    // requests (many dashboards watching one dataset) a flush costs one
    // reconstruction, not N.
    let mut small: Vec<(usize, Grid3, Vec<usize>)> = Vec::new();
    let mut large: Vec<(usize, &ReconJob)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if job.ctx.stop_reason().is_some() {
            continue; // stays Expired
        }
        if job.rows > batch_rows {
            large.push((i, job));
        } else {
            let key = Arc::as_ptr(&job.cloud) as usize;
            match small
                .iter_mut()
                .find(|(k, t, _)| *k == key && *t == job.target)
            {
                Some((_, _, idxs)) => {
                    TM_DEDUP.incr();
                    idxs.push(i);
                }
                None => small.push((key, job.target, vec![i])),
            }
        }
    }

    // Phase 1 — parallel per-unique-request prep. Feature rows are
    // per-query independent, so extracting a request's rows in one call
    // is bitwise-identical to the direct path's prediction_batch-sized
    // chunks.
    let mut preps: Vec<Prep> = small
        .par_iter()
        .map(|(_, target, job_idxs)| {
            let job = &jobs[job_idxs[0]];
            let frame = CoordFrame::of_grid(target);
            let extractor = FeatureExtractor::new(&job.cloud, *pipeline.feature_config());
            let mut out = vec![0f32; target.num_points()];
            let queries = query_nodes(&job.cloud, target, &mut out);
            let features =
                extractor.features_for(target, &frame, pipeline.value_norm(), &queries);
            Prep {
                job_idxs: job_idxs.clone(),
                out,
                queries,
                features,
            }
        })
        .collect();

    // Phase 2 — the preps' rows, concatenated in prep order, run through
    // the shared batch loop: each forward pass packs up to one prediction
    // batch of rows across requests, through the one reused workspace.
    // `starts[p]` is prep p's first row; the last entry is the total.
    let mut starts = Vec::with_capacity(preps.len() + 1);
    starts.push(0);
    for prep in &preps {
        starts.push(starts[starts.len() - 1] + prep.queries.len());
    }
    let total = starts[preps.len()];
    let owner = |row: usize| starts.partition_point(|&s| s <= row) - 1;
    ws.pred.resize(total, 0.0);
    let pred = &mut ws.pred;
    pipeline.predict_rows(
        total,
        &ExecCtx::unbounded(),
        &mut ws.packed,
        &mut ws.infer,
        |rows, packed| {
            let mut row = rows.start;
            while row < rows.end {
                let p = owner(row);
                let take = starts[p + 1].min(rows.end) - row;
                let src = &preps[p].features.as_slice()[(row - starts[p]) * width..];
                packed.as_mut_slice()[(row - rows.start) * width..][..take * width]
                    .copy_from_slice(&src[..take * width]);
                row += take;
            }
            chaos::point("serve.infer");
            TM_INFER.span()
        },
        |row, value| pred[row] = value,
    )?;

    for (p, prep) in preps.iter_mut().enumerate() {
        for (&q, &value) in prep.queries.iter().zip(&ws.pred[starts[p]..]) {
            prep.out[q] = value;
        }
        // Post-inference corruption site: models silent corruption of the
        // response buffer; injected NaNs are caught by the finite scan
        // below and demote the request instead of shipping garbage.
        chaos::corrupt_f32("serve.infer", &mut prep.out);
        let finite = prep.out.iter().all(|v| v.is_finite());
        let out = std::mem::take(&mut prep.out);
        let (last, rest) = prep.job_idxs.split_last().expect("non-empty dedup group");
        for &job_idx in rest {
            results[job_idx] = if finite {
                ModelResult::Done(out.clone())
            } else {
                ModelResult::NonFinite
            };
        }
        results[*last] = if finite {
            ModelResult::Done(out)
        } else {
            ModelResult::NonFinite
        };
    }

    // Oversized jobs: individual passes through the same reused recon
    // workspace, under each job's own ExecCtx deadline.
    for (job_idx, job) in large {
        chaos::point("serve.infer");
        let _span = TM_INFER.span();
        let (field, status) =
            pipeline.reconstruct_with_ctx(&job.cloud, &job.target, &mut ws.recon, &job.ctx)?;
        results[job_idx] = if status.interrupted.is_some() {
            ModelResult::Expired
        } else {
            let mut out = field.into_values();
            chaos::corrupt_f32("serve.infer", &mut out);
            if out.iter().all(|v| v.is_finite()) {
                ModelResult::Done(out)
            } else {
                ModelResult::NonFinite
            }
        };
    }

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::session::SessionManager;
    use fillvoid_core::{FcnnPipeline, PipelineConfig};
    use fv_field::{Grid3, ScalarField};
    use fv_sampling::{FieldSampler, RandomSampler};

    fn fixture() -> (Arc<ModelEntry>, Arc<PointCloud>, ScalarField) {
        let g = Grid3::new([10, 10, 6]).unwrap();
        let f = ScalarField::from_world_fn(g, |p| {
            ((p[0] * 0.4).sin() + 0.3 * p[1] + (p[2] * 0.6).cos()) as f32
        });
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.trainer.epochs = 4;
        let pipeline = FcnnPipeline::train(&f, &cfg, 7).unwrap();
        let entry = ModelRegistry::new(64 << 20)
            .insert("hurricane", 0, pipeline)
            .unwrap();
        let cloud = Arc::new(RandomSampler.sample(&f, 0.05, 11));
        (entry, cloud, f)
    }

    fn submit(
        batcher: &MicroBatcher,
        sessions: &SessionManager,
        entry: &Arc<ModelEntry>,
        cloud: &Arc<PointCloud>,
        target: Grid3,
        ctx: ExecCtx,
    ) -> std::sync::mpsc::Receiver<ReconOutcome> {
        let tenant = sessions.tenant("t");
        let guard = sessions.try_admit(&tenant).expect("slot");
        let (tx, rx) = sync_channel(1);
        let rows = if cloud.grid() == &target {
            target.num_points() - cloud.len()
        } else {
            target.num_points()
        };
        batcher
            .try_submit(Box::new(ReconJob {
                entry: entry.clone(),
                cloud: cloud.clone(),
                target,
                ctx,
                tenant,
                guard,
                rows,
                resp: tx,
            }))
            .expect("queue has room");
        rx
    }

    #[test]
    fn batched_results_match_direct_reconstruct_bitwise() {
        let (entry, cloud, f) = fixture();
        let direct = entry.pipeline.reconstruct(&cloud, f.grid()).unwrap();
        let sessions = SessionManager::new(64);
        // Long flush window + large row cap: all 8 requests coalesce into
        // one flush.
        let batcher = MicroBatcher::start(BatchConfig {
            flush_after: Duration::from_millis(50),
            ..BatchConfig::default()
        });
        let rxs: Vec<_> = (0..8)
            .map(|_| {
                submit(
                    &batcher,
                    &sessions,
                    &entry,
                    &cloud,
                    *f.grid(),
                    ExecCtx::unbounded(),
                )
            })
            .collect();
        for rx in rxs {
            match rx.recv().unwrap() {
                ReconOutcome::Ok(values) => {
                    assert_eq!(values.len(), direct.values().len());
                    assert!(
                        values
                            .iter()
                            .zip(direct.values())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "batched result diverged from direct reconstruct"
                    );
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
        assert!(
            batcher.flushes() < 8,
            "8 concurrent requests must coalesce, got {} flushes",
            batcher.flushes()
        );
    }

    #[test]
    fn batch_size_one_mode_still_bitwise_identical() {
        let (entry, cloud, f) = fixture();
        let direct = entry.pipeline.reconstruct(&cloud, f.grid()).unwrap();
        let sessions = SessionManager::new(64);
        let batcher = MicroBatcher::start(BatchConfig {
            batch: false,
            ..BatchConfig::default()
        });
        let rx = submit(
            &batcher,
            &sessions,
            &entry,
            &cloud,
            *f.grid(),
            ExecCtx::unbounded(),
        );
        match rx.recv().unwrap() {
            ReconOutcome::Ok(values) => assert!(values
                .iter()
                .zip(direct.values())
                .all(|(a, b)| a.to_bits() == b.to_bits())),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn packed_passes_straddle_requests_bitwise() {
        // A prediction batch above one request's rows but below the
        // group's total: every request fits the packed path (none is
        // oversized), and the pass boundaries fall inside requests, so
        // rows of neighbouring requests share forward passes. The clouds
        // are DISTINCT Arcs with distinct samples, so request coalescing
        // cannot collapse them. One case ends on a full pass, the other
        // on a ragged one.
        let g = Grid3::new([8, 8, 4]).unwrap();
        let f = ScalarField::from_world_fn(g, |p| (p[0] * 0.5).sin() as f32 + p[1] as f32 * 0.2);
        let clouds: Vec<Arc<PointCloud>> = (0..5)
            .map(|s| Arc::new(RandomSampler.sample(&f, 0.10, 3 + s)))
            .collect();
        let rows: Vec<usize> = clouds.iter().map(|c| c.void_indices().len()).collect();
        let total: usize = rows.iter().sum();
        let largest = *rows.iter().max().unwrap();
        for (batch, ragged) in [(total / 2, false), (300, true)] {
            assert!(
                largest <= batch && batch < total,
                "premise: {rows:?} rows against a {batch}-row batch"
            );
            assert_eq!(
                !total.is_multiple_of(batch),
                ragged,
                "premise: {total} rows, batch {batch}"
            );
            let mut cfg = PipelineConfig::small_for_tests();
            cfg.trainer.epochs = 3;
            cfg.prediction_batch = batch;
            let pipeline = FcnnPipeline::train(&f, &cfg, 5).unwrap();
            let directs: Vec<_> = clouds
                .iter()
                .map(|c| pipeline.reconstruct(c, f.grid()).unwrap())
                .collect();
            let entry = ModelRegistry::new(64 << 20)
                .insert("d", 0, pipeline)
                .unwrap();

            let sessions = SessionManager::new(64);
            // The flush fires exactly when the last request's rows arrive.
            let batcher = MicroBatcher::start(BatchConfig {
                flush_after: Duration::from_secs(30),
                max_rows: total,
                ..BatchConfig::default()
            });
            let rxs: Vec<_> = clouds
                .iter()
                .map(|c| submit(&batcher, &sessions, &entry, c, g, ExecCtx::unbounded()))
                .collect();
            for (rx, direct) in rxs.into_iter().zip(&directs) {
                match rx.recv().unwrap() {
                    ReconOutcome::Ok(values) => assert!(values
                        .iter()
                        .zip(direct.values())
                        .all(|(a, b)| a.to_bits() == b.to_bits())),
                    other => panic!("expected Ok, got {other:?}"),
                }
            }
            assert_eq!(batcher.flushes(), 1, "all five requests share one flush");
        }
    }

    #[test]
    fn identical_requests_coalesce_to_one_unit_of_work() {
        // Same cloud Arc + same target ⇒ one prep, one set of forward
        // rows, every requester answered with identical bits.
        let (entry, cloud, f) = fixture();
        let direct = entry.pipeline.reconstruct(&cloud, f.grid()).unwrap();
        let sessions = SessionManager::new(64);
        let batcher = MicroBatcher::start(BatchConfig {
            flush_after: Duration::from_millis(50),
            ..BatchConfig::default()
        });
        let rxs: Vec<_> = (0..6)
            .map(|_| submit(&batcher, &sessions, &entry, &cloud, *f.grid(), ExecCtx::unbounded()))
            .collect();
        for rx in rxs {
            match rx.recv().unwrap() {
                ReconOutcome::Ok(values) => assert!(values
                    .iter()
                    .zip(direct.values())
                    .all(|(a, b)| a.to_bits() == b.to_bits())),
                other => panic!("expected Ok, got {other:?}"),
            }
        }
        // All six landed in at most two flushes (timing-dependent), far
        // fewer than one per request.
        assert!(batcher.flushes() <= 2, "flushes = {}", batcher.flushes());
    }

    #[test]
    fn expired_deadline_yields_typed_rejection() {
        let (entry, cloud, f) = fixture();
        let sessions = SessionManager::new(64);
        let batcher = MicroBatcher::start(BatchConfig::default());
        let ctx = ExecCtx::unbounded()
            .with_deadline(fv_runtime::Deadline::after(Duration::ZERO));
        let rx = submit(&batcher, &sessions, &entry, &cloud, *f.grid(), ctx);
        match rx.recv().unwrap() {
            ReconOutcome::Rejected(code, _) => assert_eq!(code, ErrorCode::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_answers_queued_jobs_and_releases_slots() {
        let (entry, cloud, f) = fixture();
        let sessions = SessionManager::new(64);
        let batcher = MicroBatcher::start(BatchConfig {
            // Batch-everything window long enough that jobs are still
            // pending when shutdown lands behind them.
            flush_after: Duration::from_secs(5),
            ..BatchConfig::default()
        });
        let rxs: Vec<_> = (0..4)
            .map(|_| {
                submit(
                    &batcher,
                    &sessions,
                    &entry,
                    &cloud,
                    *f.grid(),
                    ExecCtx::unbounded(),
                )
            })
            .collect();
        batcher.shutdown();
        let mut executed = 0;
        let mut shut = 0;
        for rx in rxs {
            match rx.recv().unwrap() {
                ReconOutcome::Ok(_) | ReconOutcome::Degraded(..) => executed += 1,
                ReconOutcome::Shutdown => shut += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(executed + shut, 4, "every job must be answered");
        let tenant = sessions.tenant("t");
        assert_eq!(
            tenant.inflight.load(Ordering::Relaxed),
            0,
            "all slots released after shutdown"
        );
    }

    #[test]
    fn breaker_demotes_to_degraded_and_recovers() {
        let (entry, cloud, f) = fixture();
        let sessions = SessionManager::new(64);
        let batcher = MicroBatcher::start(BatchConfig {
            batch: false,
            ..BatchConfig::default()
        });
        // Trip the breaker directly (the chaos-injected path is covered by
        // the serialized tests/chaos.rs sweeps; installing a process-global
        // chaos plan here would leak panics into sibling unit tests).
        for _ in 0..3 {
            entry.breaker_record(false);
        }
        assert!(entry.breaker_opens() >= 1, "breaker should have tripped");
        let rx = submit(
            &batcher,
            &sessions,
            &entry,
            &cloud,
            *f.grid(),
            ExecCtx::unbounded(),
        );
        match rx.recv().unwrap() {
            ReconOutcome::Degraded(values, reason) => {
                assert_eq!(values.len(), f.len());
                assert!(values.iter().all(|v| v.is_finite()));
                assert!(reason.contains("breaker"), "reason: {reason}");
            }
            other => panic!("expected Degraded while open, got {other:?}"),
        }
        // Clean probes eventually close the breaker and full fidelity
        // returns.
        let direct = entry.pipeline.reconstruct(&cloud, f.grid()).unwrap();
        let mut recovered = false;
        for _ in 0..20 {
            let rx = submit(
                &batcher,
                &sessions,
                &entry,
                &cloud,
                *f.grid(),
                ExecCtx::unbounded(),
            );
            if let ReconOutcome::Ok(values) = rx.recv().unwrap() {
                assert!(values
                    .iter()
                    .zip(direct.values())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                recovered = true;
                break;
            }
        }
        assert!(recovered, "breaker must close after clean probes");
    }
}
