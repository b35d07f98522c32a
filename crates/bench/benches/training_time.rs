//! Criterion benches behind Tables I and II: training cost.
//!
//! Table I's shape is "training time scales with the void count (grid
//! size)"; Table II's is "time drops near-linearly with kept training
//! rows". Both are benchmarked per-epoch here (the tables' 500-epoch
//! totals are 500× the per-epoch cost, which is what `exp table1` and
//! `exp table2` measure end-to-end).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fillvoid_core::normalize::ValueNorm;
use fillvoid_core::pipeline::{build_training_set, PipelineConfig};
use fv_nn::train::{Trainer, TrainerConfig};
use fv_nn::Mlp;
use fv_sims::{Combustion, Hurricane, Simulation};
use std::hint::black_box;

fn epoch_config() -> TrainerConfig {
    TrainerConfig {
        epochs: 1,
        batch_size: 256,
        learning_rate: 1e-3,
        seed: 7,
        loss: fv_nn::loss::Loss::Mse,
        ..Default::default()
    }
}

/// Table I shape: per-epoch cost grows with grid size.
fn bench_epoch_vs_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_epoch_by_resolution");
    group.sample_size(10);
    for dims in [[16usize, 16, 8], [25, 25, 8], [32, 32, 10]] {
        let sim = Hurricane::builder().resolution(dims).timesteps(4).build();
        let field = sim.timestep(2);
        let cfg = PipelineConfig {
            hidden: vec![64, 32, 16],
            ..PipelineConfig::small_for_tests()
        };
        let vn = ValueNorm::fit(field.values());
        let data = build_training_set(&field, &cfg, &vn, 7).expect("training set");
        let trainer = Trainer::new(epoch_config());
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}x{}x{}", dims[0], dims[1], dims[2])),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut mlp = Mlp::regression(23, &cfg.hidden, 4, 7);
                    trainer.fit(&mut mlp, black_box(data)).unwrap();
                    black_box(mlp)
                })
            },
        );
    }
    group.finish();
}

/// Table II shape: per-epoch cost drops with the kept row fraction.
fn bench_epoch_vs_rows(c: &mut Criterion) {
    let sim = Combustion::builder().resolution([24, 36, 8]).timesteps(4).build();
    let field = sim.timestep(2);
    let base = PipelineConfig {
        hidden: vec![64, 32, 16],
        ..PipelineConfig::small_for_tests()
    };
    let vn = ValueNorm::fit(field.values());
    let trainer = Trainer::new(epoch_config());

    let mut group = c.benchmark_group("train_epoch_by_rows");
    group.sample_size(10);
    for keep in [1.0f64, 0.5, 0.25] {
        let cfg = PipelineConfig {
            train_row_fraction: keep,
            ..base.clone()
        };
        let data = build_training_set(&field, &cfg, &vn, 7).expect("training set");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}%", (keep * 100.0) as u32)),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut mlp = Mlp::regression(23, &cfg.hidden, 4, 7);
                    trainer.fit(&mut mlp, black_box(data)).unwrap();
                    black_box(mlp)
                })
            },
        );
    }
    group.finish();
}

/// Feature extraction is part of every training run; track it separately.
fn bench_training_set_build(c: &mut Criterion) {
    let sim = Hurricane::builder().resolution([25, 25, 8]).timesteps(4).build();
    let field = sim.timestep(2);
    let cfg = PipelineConfig::small_for_tests();
    let vn = ValueNorm::fit(field.values());
    let mut group = c.benchmark_group("training_set_build");
    group.sample_size(10);
    group.bench_function("isabel_tiny_1+5%", |b| {
        b.iter(|| black_box(build_training_set(black_box(&field), &cfg, &vn, 7).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_epoch_vs_resolution,
    bench_epoch_vs_rows,
    bench_training_set_build
);
criterion_main!(benches);
