//! In-situ workflow integration tests (the paper's Experiments 2 and 3 at
//! test scale): pretrain-once/fine-tune-forever behaviours.

use fillvoid::core::pipeline::{FcnnPipeline, FineTuneCase, FineTuneSpec, PipelineConfig};
use fillvoid::core::timesteps::{baseline_replay, replay, ReplayConfig};
use fillvoid::core::upscale::{upscale_study, UpscaleConfig};
use fillvoid::prelude::*;

fn test_config() -> PipelineConfig {
    PipelineConfig {
        hidden: vec![48, 24, 12],
        trainer: fillvoid::nn::TrainerConfig {
            epochs: 20,
            batch_size: 128,
            learning_rate: 3e-3,
            seed: 0,
            loss: fillvoid::nn::loss::Loss::Mse,
            ..Default::default()
        },
        ..PipelineConfig::small_for_tests()
    }
}

#[test]
fn frozen_model_degrades_as_the_hurricane_drifts() {
    // Fig. 11's frozen-model shape: quality near the pretraining step
    // exceeds quality at the far end of the run.
    let sim = Hurricane::builder().resolution([20, 20, 8]).timesteps(16).build();
    let mut pipeline = FcnnPipeline::train(&sim.timestep(0), &test_config(), 3).expect("train");
    let cfg = ReplayConfig {
        fraction: 0.03,
        seed: 3,
        ..Default::default()
    };
    let rows = replay(&sim, &mut pipeline, &[0, 15], &cfg).expect("replay");
    assert!(
        rows[0].snr > rows[1].snr,
        "frozen model should be best at its pretraining step: {} vs {}",
        rows[0].snr,
        rows[1].snr
    );
}

#[test]
fn finetuning_adapts_the_objective_without_hurting_quality() {
    // At test scale the network is far too small to memorize
    // timestep-specific structure, so a frozen model barely degrades and
    // SNR recovery (the paper's Fig. 11, regenerated by `exp fig11` at
    // larger scale) is not measurable here. What must hold at every
    // scale: fine-tuning reduces the model's own objective on the new
    // timestep's data, and does not damage reconstruction quality.
    let sim = Hurricane::builder().resolution([20, 20, 8]).timesteps(16).build();
    let pretrained = FcnnPipeline::train(&sim.timestep(0), &test_config(), 5).expect("train");
    let frozen_cfg = ReplayConfig {
        fraction: 0.015,
        seed: 5,
        ..Default::default()
    };
    let tuned_cfg = ReplayConfig {
        fine_tune: Some(FineTuneSpec {
            epochs: 15,
            learning_rate: 3e-3, // match the pretraining rate
            ..FineTuneSpec::case1()
        }),
        ..frozen_cfg.clone()
    };
    let far = [15usize];
    let frozen = replay(&sim, &mut pretrained.clone(), &far, &frozen_cfg).expect("frozen");

    let mut tuned_model = pretrained.clone();
    let tuned = replay(&sim, &mut tuned_model, &far, &tuned_cfg).expect("tuned");
    assert!(tuned[0].fine_tune_loss.is_some());

    // The fine-tune history (appended to the pipeline's) must end lower
    // than it started: the model adapted to t=15's data.
    let history = tuned_model.history();
    let pretrain_epochs = pretrained.history().epoch_loss.len();
    let ft_losses = &history.epoch_loss[pretrain_epochs..];
    assert!(ft_losses.len() == 15);
    assert!(
        ft_losses.last().unwrap() < ft_losses.first().unwrap(),
        "fine-tune loss should fall: {ft_losses:?}"
    );

    // And reconstruction quality must not regress materially.
    assert!(
        tuned[0].snr > frozen[0].snr - 0.5,
        "fine-tuning degraded quality: frozen {} vs tuned {}",
        frozen[0].snr,
        tuned[0].snr
    );
}

#[test]
fn case1_needs_fewer_epochs_than_case2() {
    // Fig. 5's trade-off: with equal tiny epoch budgets, full-network
    // fine-tuning adapts faster than last-two-layers fine-tuning.
    let sim = Hurricane::builder().resolution([18, 18, 6]).timesteps(12).build();
    let pretrained = FcnnPipeline::train(&sim.timestep(0), &test_config(), 7).expect("train");
    let target = sim.timestep(11);

    let budget = 6usize;
    let mut case1 = pretrained.clone();
    let h1 = case1
        .fine_tune(
            &target,
            &FineTuneSpec {
                case: FineTuneCase::FullNetwork,
                epochs: budget,
                learning_rate: 1e-3,
                seed: 1,
            },
        )
        .expect("case1");
    let mut case2 = pretrained.clone();
    let h2 = case2
        .fine_tune(
            &target,
            &FineTuneSpec {
                case: FineTuneCase::LastTwoLayers,
                epochs: budget,
                learning_rate: 1e-3,
                seed: 1,
            },
        )
        .expect("case2");
    assert!(
        h1.final_loss().unwrap() < h2.final_loss().unwrap(),
        "full-network fine-tune should adapt faster: {} vs {}",
        h1.final_loss().unwrap(),
        h2.final_loss().unwrap()
    );
}

#[test]
fn finetuned_fcnn_beats_linear_on_average_across_the_run() {
    let sim = Hurricane::builder().resolution([20, 20, 8]).timesteps(10).build();
    let pretrained = FcnnPipeline::train(&sim.timestep(0), &test_config(), 9).expect("train");
    let steps: Vec<usize> = (0..10).step_by(3).collect();
    let cfg = ReplayConfig {
        fraction: 0.03,
        seed: 9,
        fine_tune: Some(FineTuneSpec {
            epochs: 8,
            ..FineTuneSpec::case1()
        }),
        ..Default::default()
    };
    let tuned = replay(&sim, &mut pretrained.clone(), &steps, &cfg).expect("tuned");
    let linear = LinearReconstructor::default();
    let base_cfg = ReplayConfig {
        fine_tune: None,
        ..cfg
    };
    let base = baseline_replay(&sim, &linear, &steps, &base_cfg);
    let mean = |rows: &[fillvoid::core::timesteps::ReplayRow]| {
        rows.iter().map(|r| r.snr).sum::<f64>() / rows.len() as f64
    };
    assert!(
        mean(&tuned) > mean(&base),
        "fine-tuned FCNN mean {} dB should beat linear mean {} dB",
        mean(&tuned),
        mean(&base)
    );
}

#[test]
fn upscale_transfer_beats_linear_baseline() {
    // Experiment 3's shape: the low-res-pretrained, briefly fine-tuned
    // model outperforms Delaunay-linear on the high-res reconstruction.
    let sim = Hurricane::builder().resolution([14, 14, 6]).timesteps(6).build();
    let config = UpscaleConfig {
        t: 3,
        refine: 2,
        domain_shift: [40.0, 20.0, 0.0],
        fractions: vec![0.02],
        fine_tune_epochs: 8,
        pipeline: test_config(),
        seed: 2,
    };
    let study = upscale_study(&sim, &config).expect("study");
    let row = &study.rows[0];
    assert!(
        row.snr_transferred > row.snr_linear,
        "transferred {} dB should beat linear {} dB",
        row.snr_transferred,
        row.snr_linear
    );
}
