//! `volume`: one small-scale volume (62×62×12) reconstructed in-process,
//! alternating dense `reconstruct_with` calls through one reused
//! workspace with bricked reconstructions of the same input (27 bricks,
//! one third of each axis) through `BrickStreamer`.
//!
//! The bricked figure is taken without the brick store: the store's
//! `commit` fsyncs every brick, and on the checkout's disk that cost varies
//! by more than half between processes. `reconstruct_bricked` into a fresh
//! store still runs once per run, checked but untimed, and the traced run
//! times the store (`brick.commit_ms`, `brick.pipeline_ms`, write bytes
//! and syscalls).

use crate::inputs;
use crate::probe::{self, fill, fp, fp_mlp, Inputs, TracedWs};
use crate::trace::Tracer;
use crate::util::{median, ms_since, quantile, Sheet, Tally};
use fillvoid::core::metrics::snr_db;
use fillvoid::core::pipeline::{FcnnPipeline, ReconstructWorkspace};
use fillvoid::core::reconstruct_bricked;
use fillvoid::field::ScalarField;
use fillvoid::runtime::ExecCtx;
use fillvoid::sampling::PointCloud;
use fillvoid::sims::Scale;
use std::path::Path;
use std::time::Instant;

fn setup(seed: u64) -> (ScalarField, PointCloud, FcnnPipeline, f64) {
    let sim = inputs::simulation(Scale::Small, seed);
    let field = sim.timestep(inputs::TIMESTEP);
    let cloud = inputs::sample(&field, seed);
    let t = Instant::now();
    let model = inputs::train(&field, &inputs::setup_config());
    (field, cloud, model, t.elapsed().as_secs_f64())
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    sheet: &mut Sheet,
    tally: &mut Tally,
) {
    let reps = if trace { 1 } else { crate::SETUP_REPS };
    let (mut setup_s, mut train_s, mut models) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..reps {
        let t = Instant::now();
        let (field, cloud, model, train) = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        train_s.push(train);
        models.push(fp_mlp(model.mlp()));
        built = Some((field, cloud, model));
    }
    tally.check(models.windows(2).all(|w| w[0] == w[1]), || {
        "repeated set-ups trained different models".into()
    });
    let (field, cloud, model) = built.expect("at least one set-up");
    let grid = *field.grid();
    let reference = model.reconstruct(&cloud, &grid).expect("dense reference");
    let want = fp(&reference);
    let snr = snr_db(&field, &reference);
    tally.check(snr >= inputs::SNR_FLOOR_DB, || {
        format!("snr {snr:.2} dB below the floor")
    });
    let cfg = inputs::thirds(&field);

    if trace {
        trace_run(
            &field, &cloud, &model, want, seed, seconds, work, sheet, tally,
        );
        return;
    }

    let mut ws = ReconstructWorkspace::default();
    let (mut dense_ms, mut bricked_s) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut rep = 0;
    while t0.elapsed().as_secs_f64() < seconds || bricked_s.is_empty() {
        let t = Instant::now();
        let dense = model.reconstruct_with(&cloud, &grid, &mut ws);
        dense_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let same = dense.is_ok_and(|f| fp(&f) == want);
        tally.check(same, || {
            format!("dense repetition {rep} differs from the reference")
        });

        let t = Instant::now();
        let bricks = probe::streamed(None, &model, &cloud, &cfg);
        bricked_s.push(t.elapsed().as_secs_f64());
        let same = bricks
            .map(|b| fill(&grid, cfg.brick_dims, &b))
            .is_ok_and(|f| fp(&f) == want);
        tally.check(same, || {
            format!("bricked repetition {rep} differs from dense")
        });
        rep += 1;
    }

    let dir = work.join("volume-store");
    let stored = reconstruct_bricked(&model, &cloud, &grid, &dir, &cfg, &ExecCtx::unbounded());
    let same = stored.is_ok_and(|(store, report)| {
        report.is_complete() && store.assemble().is_ok_and(|f| fp(&f) == want)
    });
    tally.check(same, || "stored bricked volume differs from dense".into());
    std::fs::remove_dir_all(&dir).ok();

    let voxels = grid.num_points() as f64;
    sheet.put("setup_s", median(&setup_s), "s");
    sheet.put("train_s", median(&train_s), "s");
    sheet.put("op_p50_ms", median(&dense_ms), "ms");
    sheet.put("op_tail_ms", quantile(&dense_ms, 0.9), "ms");
    sheet.put(
        "bulk_mvox_per_s",
        voxels / median(&bricked_s) / 1e6,
        "Mvox/s",
    );
    sheet.put("snr_db", snr, "dB");
    println!(
        "volume: {} dense and {} bricked repetitions (tail = p90)",
        dense_ms.len(),
        bricked_s.len()
    );
}

/// Traced run: for `seconds`, a dense plus a streamed-brick
/// reconstruction untraced and then as traced compositions, then the
/// common probes (which also time the brick store).
#[allow(clippy::too_many_arguments)]
fn trace_run(
    field: &ScalarField,
    cloud: &PointCloud,
    model: &FcnnPipeline,
    want: u64,
    seed: u64,
    seconds: f64,
    work: &Path,
    sheet: &mut Sheet,
    tally: &mut Tally,
) {
    let mut tr = Tracer::new();
    let grid = field.grid();
    let cfg = inputs::thirds(field);
    let matches = |b: Result<Vec<Vec<f32>>, String>| {
        b.is_ok_and(|b| fp(&fill(grid, cfg.brick_dims, &b)) == want)
    };
    let (mut ws, mut traced_ws) = (ReconstructWorkspace::default(), TracedWs::default());
    let mut overhead_ms = Vec::new();
    let t0 = Instant::now();
    while overhead_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let dense = model.reconstruct_with(cloud, grid, &mut ws);
        let bricks = probe::streamed(None, model, cloud, &cfg);
        let untraced_ms = ms_since(t);
        let same = dense.is_ok_and(|f| fp(&f) == want) && matches(bricks);
        tally.check(same, || {
            "untraced volume composition differs from dense".into()
        });

        let t = Instant::now();
        let composed = probe::reconstruct(
            &mut tr,
            probe::RID_PRIMARY,
            model,
            cloud,
            grid,
            &mut traced_ws,
        );
        let bricks = probe::streamed(Some(&mut tr), model, cloud, &cfg);
        overhead_ms.push(ms_since(t) - untraced_ms);
        let same = fp(&composed) == want && matches(bricks);
        tally.check(same, || {
            "traced volume composition differs from dense".into()
        });
    }

    let config = inputs::setup_config();
    probe::layers(
        &mut tr,
        sheet,
        tally,
        Inputs {
            field,
            cloud,
            model,
            config: &config,
            brick_cloud: cloud,
            bricks: cfg,
            fine_tune_epochs: 1,
            seed,
            have_step: false,
            serve_done: false,
        },
        work,
    );
    crate::finish_trace(&tr, sheet, "volume", seed, median(&overhead_ms));
}
