//! `insitu`: the paper's in-situ loop at tiny scale (25×25×8). Pretrain
//! on timestep 0 with the 1 %+5 % union, then for each following
//! timestep: sample, Case-1 fine-tune (10 epochs), `reconstruct_with`,
//! `snr_db`.

use crate::inputs::{self, PRETRAIN_EPOCHS, SNR_FLOOR_DB};
use crate::probe::{self, fp, fp_mlp, Inputs, TracedWs};
use crate::trace::Tracer;
use crate::util::{median, ms_since, quantile, Sheet, Tally};
use fillvoid::core::pipeline::{FcnnPipeline, ReconstructWorkspace};
use fillvoid::field::ScalarField;
use fillvoid::sims::Scale;
use std::path::Path;
use std::time::Instant;

/// Steps whose SNR makes `snr_db`: a fixed count, so the figure does not
/// depend on how many steps fit in the window.
const SNR_STEPS: usize = 3;

/// Fields of every timestep and the pretrained model.
fn setup(seed: u64) -> (Vec<ScalarField>, FcnnPipeline, f64) {
    let sim = inputs::simulation(Scale::Tiny, seed);
    let fields: Vec<ScalarField> = (0..sim.num_timesteps()).map(|t| sim.timestep(t)).collect();
    let t = Instant::now();
    let model = inputs::train(&fields[0], &inputs::pretrain_config(PRETRAIN_EPOCHS));
    (fields, model, t.elapsed().as_secs_f64())
}

/// Seed of the step at timestep `t`.
fn step_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(t as u64)
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
        let (fields, model, train) = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        train_s.push(train);
        models.push(fp_mlp(model.mlp()));
        built = Some((fields, model));
    }
    tally.check(models.windows(2).all(|w| w[0] == w[1]), || {
        "repeated set-ups trained different models".into()
    });
    let (fields, mut model) = built.expect("at least one set-up");

    if trace {
        trace_run(&fields, model, seed, seconds, work, sheet, tally);
        return;
    }

    let mut ws = ReconstructWorkspace::default();
    let (mut step_ms, mut snrs) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut t = 1;
    while t0.elapsed().as_secs_f64() < seconds || step_ms.len() < SNR_STEPS {
        let field = &fields[t];
        let s = step_seed(seed, t);
        let start = Instant::now();
        let done = probe::step(&mut model, field, s, &mut ws);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match done {
            Ok((recon, snr)) => {
                // Untimed check: the reused workspace changes nothing.
                let fresh = model.reconstruct(&inputs::sample(field, s), field.grid());
                let same = fresh.is_ok_and(|f| fp(&f) == fp(&recon));
                tally.check(same && snr >= SNR_FLOOR_DB, || {
                    format!("step {t}: snr {snr:.2} dB, workspace parity {same}")
                });
                step_ms.push(ms);
                snrs.push(snr);
            }
            Err(e) => {
                tally.check(false, || format!("step {t}: {e}"));
                break;
            }
        }
        t = if t + 1 < fields.len() { t + 1 } else { 1 };
    }

    let voxels = fields[0].len() as f64;
    sheet.put("setup_s", median(&setup_s), "s");
    sheet.put("train_s", median(&train_s), "s");
    sheet.put("op_p50_ms", median(&step_ms), "ms");
    sheet.put("op_tail_ms", quantile(&step_ms, 0.9), "ms");
    sheet.put(
        "bulk_mvox_per_s",
        voxels * step_ms.len() as f64 / (step_ms.iter().sum::<f64>() / 1e3) / 1e6,
        "Mvox/s",
    );
    sheet.put("snr_db", median(&snrs[..SNR_STEPS.min(snrs.len())]), "dB");
    println!(
        "insitu: {} steps (tail = p90), snr of the first {SNR_STEPS}",
        step_ms.len()
    );
}

/// Traced run: for `seconds`, each step untraced and then traced from the
/// same state (the traced result carries on), then the common probes on
/// the last step's inputs.
fn trace_run(
    fields: &[ScalarField],
    mut model: FcnnPipeline,
    seed: u64,
    seconds: f64,
    work: &Path,
    sheet: &mut Sheet,
    tally: &mut Tally,
) {
    let mut tr = Tracer::new();
    let mut overhead_ms = Vec::new();
    let t0 = Instant::now();
    let mut t = 1;
    let mut last = t;
    while overhead_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (field, s) = (&fields[t], step_seed(seed, t));
        let mut untraced = model.clone();
        let start = Instant::now();
        let plain = probe::step(
            &mut untraced,
            field,
            s,
            &mut ReconstructWorkspace::default(),
        );
        let untraced_ms = ms_since(start);
        let start = Instant::now();
        let composed = probe::traced_step(&mut tr, &mut model, field, s, &mut TracedWs::default());
        overhead_ms.push(ms_since(start) - untraced_ms);
        let same = matches!((&plain, &composed), (Ok((a, _)), Ok((b, _))) if fp(a) == fp(b));
        tally.check(same, || {
            format!("traced step {t} differs from the untraced step")
        });
        last = t;
        t = if t + 1 < fields.len() { t + 1 } else { 1 };
    }

    let (field, s) = (&fields[last], step_seed(seed, last));
    let cloud = inputs::sample(field, s);
    let config = inputs::pretrain_config(PRETRAIN_EPOCHS);
    probe::layers(
        &mut tr,
        sheet,
        tally,
        Inputs {
            field,
            cloud: &cloud,
            model: &model,
            config: &config,
            brick_cloud: &cloud,
            bricks: inputs::thirds(field),
            fine_tune_epochs: 10,
            seed: s,
            have_step: true,
            serve_done: false,
        },
        work,
    );
    crate::finish_trace(&tr, sheet, "insitu", seed, median(&overhead_ms));
}
