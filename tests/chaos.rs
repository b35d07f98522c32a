//! Chaos acceptance suite: seeded fault sweeps against the supervised
//! in-situ session.
//!
//! For every fault kind (panic, delay, corruption, I/O error) and 32
//! seeds, a short session runs with a [`FaultPlan`] armed across the
//! whole injection-site registry (DESIGN.md §11). The invariants:
//!
//! * every step returns `Ok` — no injected fault may escape
//!   `InSituSession::step` as a panic or an error;
//! * every reconstruction is finite, and whenever the classical fallback
//!   produced any voxel, the report says so (`fallback_kind`);
//! * the sweep actually injected faults (`injected_total > 0`), so a
//!   green run can't be a no-op plan;
//! * nothing hangs: each sweep runs under a watchdog thread.
//!
//! Chaos plans are process-global, so the tests serialize on a local
//! lock, and this is the one test binary allowed to install a plan
//! (`scripts/ci.sh` fails if another does). The suite is also the `chaos-smoke` CI stage, run under
//! `FV_THREADS=1` and `4`.

use fillvoid::core::checkpoint::CheckpointStore;
use fillvoid::core::insitu::{InSituConfig, InSituSession, SupervisionConfig};
use fillvoid::core::pipeline::{FcnnPipeline, FineTuneSpec, PipelineConfig};
use fillvoid::prelude::*;
use fillvoid::runtime::chaos::{self, FaultPlan};
use fillvoid::runtime::retry::Backoff;
use fillvoid::sims::Hurricane;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

const SEEDS: u64 = 32;
const STEPS: usize = 2;

/// Chaos state is process-global: one sweep at a time.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn pretrained() -> &'static (Hurricane, FcnnPipeline) {
    static CELL: OnceLock<(Hurricane, FcnnPipeline)> = OnceLock::new();
    CELL.get_or_init(|| {
        let sim = Hurricane::builder()
            .resolution([12, 12, 6])
            .timesteps(STEPS + 1)
            .build();
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.trainer.epochs = 6;
        let pipeline = FcnnPipeline::train(&sim.timestep(0), &cfg, 3).expect("pretrain");
        (sim, pipeline)
    })
}

fn session_config() -> InSituConfig {
    InSituConfig {
        fraction: 0.05,
        drift_threshold: None, // fine-tune every step: exercises train.step
        fine_tune: FineTuneSpec {
            epochs: 2,
            ..FineTuneSpec::case1()
        },
        probe_rows: 128,
        score: false,
        supervision: SupervisionConfig {
            step_deadline: None,
            breaker_threshold: 2,
            breaker_probe_interval: 1,
            io_retry: Backoff {
                attempts: 2,
                base: Duration::from_millis(1),
                factor: 2,
                max: Duration::from_millis(2),
            },
        },
        ..Default::default()
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Panic,
    Delay,
    Corruption,
    IoError,
}

fn plan_for(kind: Kind, seed: u64) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match kind {
        Kind::Panic => p
            .panic_at("insitu.step", 0.4)
            .panic_at("train.step", 0.03)
            .panic_at("recon.batch", 0.05)
            .panic_at("pool.worker", 0.001),
        Kind::Delay => p
            .delay_at("insitu.step", 0.5, Duration::from_millis(2))
            .delay_at("train.step", 0.05, Duration::from_millis(1))
            .delay_at("recon.batch", 0.05, Duration::from_millis(1)),
        Kind::Corruption => p.corrupt_at("recon.output", 0.6),
        Kind::IoError => p
            .io_error_at("ckpt.save", 0.5)
            .io_error_at("ckpt.load", 0.5),
    }
}

/// Run one seeded session under `kind`'s plan; returns faults injected.
fn run_one(kind: Kind, seed: u64) -> u64 {
    let (sim, pipeline) = pretrained();
    let config = session_config();
    let _guard = chaos::install(plan_for(kind, seed));
    let ckpt_dir = matches!(kind, Kind::IoError).then(|| {
        let dir = std::env::temp_dir().join(format!(
            "fv_chaos_{:?}_{seed}_{}",
            kind,
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    });
    let mut session = match &ckpt_dir {
        Some(dir) => {
            let store = CheckpointStore::open(dir, 2).expect("open store");
            InSituSession::with_checkpoints(pipeline.clone(), config, store)
        }
        None => InSituSession::new(pipeline.clone(), config),
    };
    for t in 0..STEPS {
        let (_, recon, report) = session
            .step(&sim.timestep(t))
            .unwrap_or_else(|e| panic!("{kind:?} seed {seed} step {t} errored: {e}"));
        assert!(
            recon.values().iter().all(|v| v.is_finite()),
            "{kind:?} seed {seed} step {t}: non-finite reconstruction"
        );
        assert_eq!(
            report.fallback_kind.is_some(),
            report.fallback_voxels > 0,
            "{kind:?} seed {seed} step {t}: fallback use must be reported"
        );
        if report.panic_caught || report.model_error.is_some() {
            assert!(
                report.degraded,
                "{kind:?} seed {seed} step {t}: a supervised failure must degrade"
            );
        }
    }
    let injected = chaos::injected_total();
    drop(_guard);
    if let Some(dir) = ckpt_dir {
        std::fs::remove_dir_all(&dir).ok();
    }
    injected
}

fn sweep(kind: Kind) {
    let _serial = CHAOS_LOCK.lock().unwrap();
    chaos::silence_chaos_panics();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut injected = 0u64;
        for seed in 0..SEEDS {
            injected += run_one(kind, seed);
        }
        tx.send(injected).ok();
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(injected) => {
            worker.join().expect("sweep worker");
            assert!(
                injected > 0,
                "{kind:?}: the sweep never injected a fault — dead plan?"
            );
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // The worker panicked; join propagates the original assertion.
            worker.join().expect("sweep worker panicked");
            unreachable!();
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{kind:?} sweep hung past the 300 s watchdog");
        }
    }
}

#[test]
fn panic_sweep_every_run_answers() {
    sweep(Kind::Panic);
}

#[test]
fn delay_sweep_every_run_answers() {
    sweep(Kind::Delay);
}

#[test]
fn corruption_sweep_every_run_answers() {
    sweep(Kind::Corruption);
}

#[test]
fn io_error_sweep_every_run_answers() {
    sweep(Kind::IoError);
}

#[test]
fn step_deadline_is_honored_with_a_finite_answer() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    let (sim, pipeline) = pretrained();
    let mut config = session_config();
    config.supervision.step_deadline = Some(Duration::from_millis(1));
    let mut session = InSituSession::new(pipeline.clone(), config);
    let t0 = std::time::Instant::now();
    let (_, recon, report) = session.step(&sim.timestep(0)).expect("budgeted step");
    // The budget is cooperative (polled at batch boundaries), so assert a
    // generous-but-hang-catching bound rather than the millisecond itself.
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "budgeted step took {:?}",
        t0.elapsed()
    );
    assert!(report.deadline_missed);
    assert!(recon.values().iter().all(|v| v.is_finite()));
    assert_eq!(report.fallback_kind.is_some(), report.fallback_voxels > 0);
}

#[test]
fn field_io_sites_surface_injected_errors_cleanly() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    let (sim, _) = pretrained();
    let field = sim.timestep(0);
    let path = std::env::temp_dir().join(format!("fv_chaos_fieldio_{}.fvf", std::process::id()));
    {
        let _guard = chaos::install(FaultPlan::new(5).io_error_at("field.save", 1.0));
        assert!(
            fillvoid::field::io::save(&field, &path).is_err(),
            "injected save error must surface as Err, not panic"
        );
    }
    fillvoid::field::io::save(&field, &path).expect("clean save");
    {
        let _guard = chaos::install(FaultPlan::new(5).io_error_at("field.load", 1.0));
        assert!(fillvoid::field::io::load(&path).is_err());
    }
    let restored = fillvoid::field::io::load(&path).expect("clean load");
    assert_eq!(restored.values(), field.values());
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Bricked-pipeline sweeps: the same 32-seed × fault-kind matrix against the
// out-of-core streaming path's sites (`brick.recon`, `brick.commit`,
// `brick.load`, `brick.output`). Invariant: whatever a seeded fault does —
// panic mid-pipeline, I/O error on commit, corrupted payloads — a clean
// rerun (plus the non-finite repair scan for in-memory corruption) always
// converges to the exact whole-grid reconstruction, losing nothing that
// the ledger had flagged durable.

use fillvoid::core::brick::{reconstruct_bricked, BrickReconConfig};
use fillvoid::field::brick::BrickStore;
use fillvoid::runtime::ExecCtx;

fn brick_fixture() -> &'static (ScalarField, PointCloud, ScalarField) {
    static CELL: OnceLock<(ScalarField, PointCloud, ScalarField)> = OnceLock::new();
    CELL.get_or_init(|| {
        let (sim, pipeline) = pretrained();
        let field = sim.timestep(0);
        let sampler = ImportanceSampler::new(ImportanceConfig::default());
        let cloud = sampler.sample(&field, 0.06, 17);
        let whole = pipeline.reconstruct(&cloud, field.grid()).expect("reference");
        (field, cloud, whole)
    })
}

fn brick_plan(kind: Kind, seed: u64) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match kind {
        Kind::Panic => p
            .panic_at("brick.recon", 0.2)
            .panic_at("brick.commit", 0.1)
            .panic_at("brick.load", 0.1),
        Kind::Delay => p
            .delay_at("brick.recon", 0.3, Duration::from_millis(1))
            .delay_at("brick.commit", 0.3, Duration::from_millis(1))
            .delay_at("brick.load", 0.3, Duration::from_millis(1)),
        Kind::Corruption => p
            .corrupt_at("brick.output", 0.5)
            .corrupt_at("brick.load", 0.3),
        Kind::IoError => p
            .io_error_at("brick.commit", 0.3)
            .io_error_at("brick.load", 0.3),
    }
}

/// One seeded bricked run under `kind`'s plan; returns faults injected.
///
/// Two chaos-armed attempts (the second resumes the first, exercising
/// `brick.load` against whatever the first left durable), then the repair
/// protocol: sweep non-finite bricks back to pending and rerun clean. The
/// final volume must match the whole-grid reference bit for bit.
fn run_one_brick(kind: Kind, seed: u64) -> u64 {
    let (field, cloud, whole) = brick_fixture();
    let (_, pipeline) = pretrained();
    let cfg = BrickReconConfig {
        brick_dims: [5, 5, 3],
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "fv_chaos_brick_{kind:?}_{seed}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let injected = {
        let _guard = chaos::install(brick_plan(kind, seed));
        for _attempt in 0..2 {
            // Panics, injected Errs and clean completions are all legal
            // outcomes here; the invariant is what the rerun recovers.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reconstruct_bricked(pipeline, cloud, field.grid(), &dir, &cfg, &ExecCtx::unbounded())
            }));
        }
        chaos::injected_total()
    };
    // Repair: in-memory corruption (brick.output) commits poisoned-but-
    // CRC-consistent payloads; the non-finite scan requeues exactly those.
    let mut store = BrickStore::open(&dir, *field.grid(), cfg.brick_dims).expect("reopen");
    store.invalidate_non_finite().expect("repair scan");
    drop(store);
    let (store, report) = reconstruct_bricked(
        pipeline,
        cloud,
        field.grid(),
        &dir,
        &cfg,
        &ExecCtx::unbounded(),
    )
    .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: clean resume errored: {e}"));
    assert!(report.is_complete(), "{kind:?} seed {seed}: {report:?}");
    let assembled = store.assemble().expect("assemble");
    for (i, (x, y)) in whole.values().iter().zip(assembled.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{kind:?} seed {seed}: voxel {i} diverged after recovery"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    injected
}

fn brick_sweep(kind: Kind) {
    let _serial = CHAOS_LOCK.lock().unwrap();
    chaos::silence_chaos_panics();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut injected = 0u64;
        for seed in 0..SEEDS {
            injected += run_one_brick(kind, seed);
        }
        tx.send(injected).ok();
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(injected) => {
            worker.join().expect("brick sweep worker");
            assert!(
                injected > 0,
                "{kind:?}: the brick sweep never injected a fault — dead plan?"
            );
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("brick sweep worker panicked");
            unreachable!();
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{kind:?} brick sweep hung past the 300 s watchdog");
        }
    }
}

#[test]
fn brick_panic_sweep_recovers_bitwise() {
    brick_sweep(Kind::Panic);
}

#[test]
fn brick_delay_sweep_recovers_bitwise() {
    brick_sweep(Kind::Delay);
}

#[test]
fn brick_corruption_sweep_recovers_bitwise() {
    brick_sweep(Kind::Corruption);
}

#[test]
fn brick_io_error_sweep_recovers_bitwise() {
    brick_sweep(Kind::IoError);
}

// ---------------------------------------------------------------------------
// Crash-only resume: a seeded panic kills a bricked run mid-volume, and the
// rerun must reuse every brick the ledger committed before the crash,
// recompute only the rest, and converge to the whole-grid bits.

fn crash_fixture() -> &'static (ScalarField, PointCloud, FcnnPipeline) {
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fv_chaos_{tag}_{}", std::process::id()));
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
fn chaos_crash_mid_volume_resumes_without_losing_committed_bricks() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    chaos::silence_chaos_panics();
    let (field, cloud, pipeline) = crash_fixture();
    let whole = pipeline
        .reconstruct(cloud, field.grid())
        .expect("whole-grid");
    let cfg = BrickReconConfig {
        brick_dims: [4, 4, 3],
        ..Default::default()
    };
    // Seeded panic plan: deterministic per seed. Scan seeds until one
    // crashes strictly mid-volume (some bricks durable, some not) — with
    // rate 0.3 over ~15 bricks nearly every seed qualifies.
    let mut demonstrated = false;
    for seed in 0..10u64 {
        let dir = temp_dir(&format!("chaos_crash_{seed}"));
        let crashed = {
            let _guard = chaos::install(FaultPlan::new(seed).panic_at("brick.recon", 0.3));
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reconstruct_bricked(
                    pipeline,
                    cloud,
                    field.grid(),
                    &dir,
                    &cfg,
                    &ExecCtx::unbounded(),
                )
            }))
            .is_err()
        };
        if !crashed {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let done_after_crash = BrickStore::open(&dir, *field.grid(), cfg.brick_dims)
            .expect("reopen")
            .num_done();
        let (store, report) = reconstruct_bricked(
            pipeline,
            cloud,
            field.grid(),
            &dir,
            &cfg,
            &ExecCtx::unbounded(),
        )
        .expect("resume after crash");
        assert!(report.is_complete(), "seed {seed}: {report:?}");
        assert_eq!(
            report.resumed, done_after_crash,
            "seed {seed}: every brick committed before the crash must be reused"
        );
        assert_eq!(report.completed, report.total_bricks - done_after_crash);
        let assembled = store.assemble().expect("assemble");
        assert_bitwise_eq(&whole, &assembled, &format!("chaos crash seed {seed}"));
        std::fs::remove_dir_all(&dir).ok();
        if done_after_crash > 0 {
            demonstrated = true;
            break;
        }
    }
    assert!(
        demonstrated,
        "no seed in 0..10 crashed with at least one brick committed"
    );
}

// ---------------------------------------------------------------------------
// Single-site plans against the checkpoint store (`ckpt.save`, `ckpt.load`)
// and the supervised session (`insitu.step`): retries ride out transient
// faults, persistent ones surface as errors or degrade the step, and the
// breaker opens, probes and closes on schedule.

use fillvoid::core::insitu::{BreakerState, FallbackKind};

/// A 14×14×6 hurricane, a model pretrained on its first timestep, and a
/// session config that fine-tunes 3 epochs every step under `supervision`.
fn insitu_setup(supervision: SupervisionConfig) -> (Hurricane, FcnnPipeline, InSituConfig) {
    let sim = Hurricane::builder()
        .resolution([14, 14, 6])
        .timesteps(10)
        .build();
    let mut cfg = PipelineConfig::small_for_tests();
    cfg.trainer.epochs = 8;
    let pipeline = FcnnPipeline::train(&sim.timestep(0), &cfg, 3).unwrap();
    let config = InSituConfig {
        fraction: 0.05,
        drift_threshold: None,
        fine_tune: FineTuneSpec {
            epochs: 3,
            ..FineTuneSpec::case1()
        },
        probe_rows: 256,
        supervision,
        ..Default::default()
    };
    (sim, pipeline, config)
}

fn fast_retry(attempts: usize, max_ms: u64) -> Backoff {
    Backoff {
        attempts,
        base: Duration::from_millis(1),
        factor: 2,
        max: Duration::from_millis(max_ms),
    }
}

#[test]
fn save_with_retry_rides_out_injected_io_errors() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    let dir = temp_dir("retryok");
    let mut store = CheckpointStore::open(&dir, 2).unwrap();
    let (_, p) = pretrained();
    // Fail the first two save attempts; a 4-attempt policy must succeed.
    let _guard = chaos::install(FaultPlan::new(42).io_error_first("ckpt.save", 2));
    let (gen, retries) = store.save_with_retry(p, &fast_retry(4, 4)).unwrap();
    assert_eq!(gen, 0);
    assert_eq!(retries, 2, "both injected failures should be retried away");
    drop(_guard);
    let restored = store.load_generation(0).unwrap();
    assert_eq!(restored.mlp(), p.mlp());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_with_retry_surfaces_persistent_failure() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    let dir = temp_dir("retryfail");
    let mut store = CheckpointStore::open(&dir, 2).unwrap();
    let _guard = chaos::install(FaultPlan::new(7).io_error_at("ckpt.save", 1.0));
    assert!(store
        .save_with_retry(&pretrained().1, &fast_retry(3, 2))
        .is_err());
    assert!(
        store.generations().is_empty(),
        "failed save must not be indexed"
    );
    drop(_guard);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_generation_has_a_chaos_site() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    let dir = temp_dir("loadsite");
    let mut store = CheckpointStore::open(&dir, 2).unwrap();
    store.save(&pretrained().1).unwrap();
    let _guard = chaos::install(FaultPlan::new(3).io_error_at("ckpt.load", 1.0));
    assert!(store.load_generation(0).is_err());
    drop(_guard);
    assert!(store.load_generation(0).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panics_trip_the_breaker_and_a_probe_recovers() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    chaos::silence_chaos_panics();
    let (sim, pipeline, config) = insitu_setup(SupervisionConfig {
        breaker_threshold: 2,
        breaker_probe_interval: 2,
        ..Default::default()
    });
    let mut session = InSituSession::new(pipeline, config);
    // First three model attempts panic, then the site heals.
    let _guard = chaos::install(FaultPlan::new(1).panic_first("insitu.step", 3));
    let field = sim.timestep(0);
    let mut reports = Vec::new();
    for _ in 0..8 {
        let (_, recon, report) = session.step(&field).unwrap();
        assert!(
            recon.values().iter().all(|v| v.is_finite()),
            "every supervised step must answer with a finite field"
        );
        assert!(report.degraded || report.breaker == BreakerState::Closed);
        reports.push(report);
    }
    // Steps 0–1: panics caught, whole-step fallback, breaker opens.
    assert!(reports[0].panic_caught && reports[1].panic_caught);
    assert!(reports[0].fallback_kind == Some(FallbackKind::Idw));
    assert_eq!(reports[1].breaker, BreakerState::Open);
    // Steps 2–3: open breaker skips the model (no panic to catch).
    assert!(!reports[2].panic_caught && !reports[3].panic_caught);
    assert!(
        reports[2].probe_loss.is_nan(),
        "open breaker skips the probe"
    );
    assert_eq!(reports[3].breaker, BreakerState::HalfOpen);
    // Step 4: half-open probe still panics -> breaker reopens.
    assert!(reports[4].panic_caught);
    assert_eq!(reports[4].breaker, BreakerState::Open);
    // Step 7: the next probe finds the site healed -> breaker closes
    // and the model path (probe + fine-tune) is back.
    assert!(!reports[7].panic_caught);
    assert_eq!(reports[7].breaker, BreakerState::Closed);
    assert!(reports[7].fine_tuned);
    assert!(reports[7].probe_loss.is_finite());
}

#[test]
fn persistent_checkpoint_save_failure_degrades_the_step() {
    let _serial = CHAOS_LOCK.lock().unwrap();
    let (sim, pipeline, config) = insitu_setup(SupervisionConfig {
        io_retry: fast_retry(2, 2),
        ..Default::default()
    });
    let dir = temp_dir("ckptfail");
    let store = CheckpointStore::open(&dir, 3).unwrap();
    let mut session = InSituSession::with_checkpoints(pipeline, config, store);
    let _guard = chaos::install(FaultPlan::new(9).io_error_at("ckpt.save", 1.0));
    let (_, recon, report) = session.step(&sim.timestep(0)).unwrap();
    assert!(report.checkpoint_save_failed);
    assert!(report.degraded, "a lost recovery point must be auditable");
    assert!(!report.panic_caught);
    assert!(recon.values().iter().all(|v| v.is_finite()));
    assert!(
        session.checkpoints().unwrap().latest().is_none(),
        "no generation should have been persisted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// fv-serve sweeps: the same 32-seed × fault-kind matrix against the
// reconstruction server's sites (`serve.accept`, `serve.decode`,
// `serve.batch`, `serve.infer`, the lifecycle sites `serve.swap`,
// `serve.canary`, `serve.conn.read`, `serve.conn.write`, and the
// brick-stream sites `serve.brick.submit`, `serve.brick.compute`,
// `serve.brick.write`). Invariants: a
// fault costs at most its own connection, a typed/degraded response, or a
// rejected (never half-applied) promotion — the listener keeps accepting,
// the registry keeps serving, no in-flight slot, session, or draining
// version leaks — and once the plan is disarmed a clean request converges
// back to the exact direct-path reconstruction (the breaker re-closes via
// its probe).

use fillvoid::serve::registry::CanarySpec;
use fillvoid::serve::{
    fingerprint_f32, BatchConfig, Client, ClientError, ModelRegistry, ServeConfig, Server,
    VERSION_ACTIVE,
};
use std::sync::Arc;

fn serve_plan(kind: Kind, seed: u64) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match kind {
        Kind::Panic => p
            .panic_at("serve.accept", 0.15)
            .panic_at("serve.decode", 0.1)
            .panic_at("serve.batch", 0.15)
            .panic_at("serve.infer", 0.15)
            .panic_at("serve.swap", 0.2)
            .panic_at("serve.canary", 0.2)
            .panic_at("serve.conn.read", 0.05)
            .panic_at("serve.conn.write", 0.05)
            .panic_at("serve.brick.submit", 0.1)
            .panic_at("serve.brick.compute", 0.1)
            .panic_at("serve.brick.write", 0.05),
        Kind::Delay => p
            .delay_at("serve.accept", 0.3, Duration::from_millis(1))
            .delay_at("serve.decode", 0.3, Duration::from_millis(1))
            .delay_at("serve.batch", 0.3, Duration::from_millis(1))
            .delay_at("serve.infer", 0.3, Duration::from_millis(1))
            .delay_at("serve.swap", 0.3, Duration::from_millis(1))
            .delay_at("serve.conn.read", 0.3, Duration::from_millis(1))
            .delay_at("serve.conn.write", 0.3, Duration::from_millis(1))
            .delay_at("serve.brick.compute", 0.3, Duration::from_millis(1)),
        Kind::Corruption => p
            .corrupt_at("serve.infer", 0.5)
            .corrupt_at("serve.canary", 0.5)
            .corrupt_at("serve.brick.compute", 0.3),
        Kind::IoError => p
            .io_error_at("serve.accept", 0.3)
            .io_error_at("serve.decode", 0.3)
            .io_error_at("serve.conn.read", 0.2)
            .io_error_at("serve.conn.write", 0.2)
            .io_error_at("serve.swap", 0.3)
            .io_error_at("serve.canary", 0.3)
            .io_error_at("serve.brick.submit", 0.2)
            .io_error_at("serve.brick.write", 0.2),
    }
}

/// One seeded serve run under `kind`'s plan; returns faults injected.
fn run_one_serve(kind: Kind, seed: u64) -> u64 {
    let (field, cloud, whole) = brick_fixture();
    let (_, pipeline) = pretrained();
    let registry = Arc::new(ModelRegistry::new(64 << 20).with_breaker(2, 2));
    registry
        .insert("hurricane", 1, pipeline.clone())
        .expect("seed registry");
    // Canary pinned to the direct-path bits: the mid-chaos promotion
    // below pushes an identical pipeline, so an *honest* canary always
    // passes and every rejection is chaos-induced (injected fault or
    // corrupted canary output) — exactly the rollback path under test.
    registry.set_canary(
        "hurricane",
        CanarySpec {
            cloud: Arc::new(cloud.clone()),
            reference: whole.clone(),
            snr_floor_db: None,
            fingerprint: Some(fingerprint_f32(whole.values())),
        },
    );
    let cfg = ServeConfig {
        batch: BatchConfig {
            flush_after: Duration::from_micros(200),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut server = Server::start_with_registry(cfg, registry.clone()).expect("start server");
    let addr = server.addr();

    let injected = {
        let _guard = chaos::install(serve_plan(kind, seed));
        for _client in 0..3 {
            // Any outcome short of a hang is legal mid-chaos: a typed
            // error, a degraded answer, or a dropped connection. What is
            // NOT legal is an escaped panic — the `?`-chain below only
            // carries typed client errors.
            let _ = (|| -> Result<(), ClientError> {
                let mut c = Client::connect(addr)?;
                let s = c.open_session("acme", "hurricane", 1)?;
                c.put_cloud(s, cloud)?;
                for _ in 0..2 {
                    let _ = c.reconstruct(s, field.grid(), 0);
                }
                // Brick-stream lane under the same faults: any typed
                // error or torn stream is legal mid-chaos.
                let _ = c.reconstruct_bricked_dense(s, field.grid(), [4, 4, 2], 0);
                Ok(())
            })();
        }
        // Mid-chaos hot-swap: bit-identical weights as v2, so whichever
        // of {promoted, rejected, chaos-panicked} happens, the clean
        // convergence check below is version-agnostic. Half-applied
        // installs are the bug class this hunts.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.promote("hurricane", 2, pipeline.clone(), true)
        }));
        chaos::injected_total()
    };

    // Chaos disarmed: the server must still be fully serviceable on a
    // fresh connection, and the answer must converge back to the exact
    // direct-path bits (the breaker probe re-admits the model).
    let mut c = Client::connect(addr)
        .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: clean connect failed: {e}"));
    let s = c
        .open_session("acme", "hurricane", VERSION_ACTIVE)
        .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: clean open failed: {e}"));
    c.put_cloud(s, cloud)
        .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: clean upload failed: {e}"));
    let mut served = None;
    for _ in 0..50 {
        let got = c
            .reconstruct(s, field.grid(), 0)
            .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: clean reconstruct failed: {e}"));
        let degraded = got.degraded;
        served = Some(got);
        if !degraded {
            break;
        }
    }
    let served = served.unwrap();
    assert!(
        !served.degraded,
        "{kind:?} seed {seed}: breaker never recovered after chaos"
    );
    for (i, (x, y)) in whole.values().iter().zip(served.field.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{kind:?} seed {seed}: voxel {i} diverged post-chaos"
        );
    }

    // The streaming lane must converge to the same exact bits once the
    // plan is disarmed — chaos-failed streams cost nothing persistent.
    let (bricked, summary) = c
        .reconstruct_bricked_dense(s, field.grid(), [4, 4, 2], 0)
        .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: clean bricked stream failed: {e}"));
    assert_eq!(summary.received, summary.total_bricks);
    for (i, (x, y)) in whole.values().iter().zip(bricked.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{kind:?} seed {seed}: brick voxel {i} diverged post-chaos"
        );
    }

    // No leaked in-flight slots, whatever the faults did.
    let stats = c.stats().expect("stats");
    for (idx, _) in stats.match_indices("\"inflight\": ") {
        let rest = &stats[idx + "\"inflight\": ".len()..];
        assert!(
            rest.starts_with("0,") || rest.starts_with("0}"),
            "{kind:?} seed {seed}: leaked in-flight slot in {stats}"
        );
    }
    server.shutdown();
    // Whatever the promotion's fate, shutdown must leave no version
    // stuck draining and no half-installed candidate.
    let sw = registry.swap_stats();
    assert_eq!(
        sw.draining, 0,
        "{kind:?} seed {seed}: version leaked in draining state: {sw:?}"
    );
    injected
}

fn serve_sweep(kind: Kind) {
    let _serial = CHAOS_LOCK.lock().unwrap();
    chaos::silence_chaos_panics();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut injected = 0u64;
        for seed in 0..SEEDS {
            injected += run_one_serve(kind, seed);
        }
        tx.send(injected).ok();
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(injected) => {
            worker.join().expect("serve sweep worker");
            assert!(
                injected > 0,
                "{kind:?}: the serve sweep never injected a fault — dead plan?"
            );
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("serve sweep worker panicked");
            unreachable!();
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{kind:?} serve sweep hung past the 300 s watchdog");
        }
    }
}

#[test]
fn serve_panic_sweep_recovers_bitwise() {
    serve_sweep(Kind::Panic);
}

#[test]
fn serve_delay_sweep_recovers_bitwise() {
    serve_sweep(Kind::Delay);
}

#[test]
fn serve_corruption_sweep_recovers_bitwise() {
    serve_sweep(Kind::Corruption);
}

#[test]
fn serve_io_error_sweep_recovers_bitwise() {
    serve_sweep(Kind::IoError);
}
