//! Criterion benches behind Fig. 10: reconstruction wall-clock per method.
//!
//! Micro-benchmark counterpart of `exp fig10` — statistically sound
//! timings of each reconstructor on a fixed tiny Isabel timestep at 1% and
//! 5% sampling, plus the sampler and triangulation-build costs that the
//! figure's end-to-end numbers fold in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fillvoid_core::experiment::FcnnReconstructor;
use fillvoid_core::pipeline::{FcnnPipeline, PipelineConfig};
use fv_interp::linear::LinearReconstructor;
use fv_interp::natural::NaturalNeighborReconstructor;
use fv_interp::nearest::NearestReconstructor;
use fv_interp::shepard::ShepardReconstructor;
use fv_interp::Reconstructor;
use fv_sampling::{FieldSampler, ImportanceSampler, PointCloud};
use fv_sims::{Hurricane, Simulation};
use fv_spatial::Delaunay3;
use std::hint::black_box;

fn bench_field() -> fv_field::ScalarField {
    Hurricane::builder()
        .resolution([25, 25, 8])
        .timesteps(48)
        .build()
        .timestep(24)
}

fn clouds(field: &fv_field::ScalarField) -> Vec<(String, PointCloud)> {
    let sampler = ImportanceSampler::default();
    [0.01f64, 0.05]
        .iter()
        .map(|&f| (format!("{}%", f * 100.0), sampler.sample(field, f, 42)))
        .collect()
}

fn bench_reconstructors(c: &mut Criterion) {
    let field = bench_field();
    let clouds = clouds(&field);
    let cfg = PipelineConfig {
        trainer: fv_nn::TrainerConfig {
            epochs: 10,
            ..PipelineConfig::small_for_tests().trainer
        },
        ..PipelineConfig::small_for_tests()
    };
    let pipeline = FcnnPipeline::train(&field, &cfg, 42).expect("train");
    let fcnn = FcnnReconstructor::new(&pipeline);
    let linear_seq = LinearReconstructor::sequential();
    let linear = LinearReconstructor::parallel();
    let natural = NaturalNeighborReconstructor;
    let shepard = ShepardReconstructor::default();
    let nearest = NearestReconstructor;
    let methods: Vec<&dyn Reconstructor> =
        vec![&fcnn, &linear_seq, &linear, &natural, &shepard, &nearest];

    let mut group = c.benchmark_group("reconstruct");
    group.sample_size(10);
    for (label, cloud) in &clouds {
        for method in &methods {
            group.bench_with_input(
                BenchmarkId::new(method.name(), label),
                cloud,
                |b, cloud| {
                    b.iter(|| {
                        let out = method.reconstruct(black_box(cloud), field.grid()).unwrap();
                        black_box(out)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let field = bench_field();
    let sampler = ImportanceSampler::default();
    let cloud = sampler.sample(&field, 0.05, 42);

    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    group.bench_function("importance_sample_5%", |b| {
        b.iter(|| black_box(sampler.sample(black_box(&field), 0.05, 42)))
    });
    group.bench_function("delaunay_build_5%", |b| {
        b.iter(|| black_box(Delaunay3::build(black_box(cloud.positions())).unwrap()))
    });
    group.bench_function("kdtree_build_5%", |b| {
        b.iter(|| black_box(fv_spatial::KdTree::build(black_box(cloud.positions()))))
    });
    group.finish();
}

criterion_group!(benches, bench_reconstructors, bench_substrates);
criterion_main!(benches);
