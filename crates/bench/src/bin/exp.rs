//! The paper's experiments, one function each (DESIGN.md §4 indexes them).
//!
//! ```text
//! exp <name> [flags]   run one experiment
//! exp all [flags]      run every experiment in one process
//! exp --list           print the experiment names
//! ```
//!
//! The flags are [`ExpOpts`]'s (`--tiny|--small|--medium|--full`,
//! `--seed N`, `--dataset NAME`, `--csv FILE`). Tables go to stdout,
//! progress to stderr. Absolute dB values differ from the paper's on the
//! surrogate data; the reproducible part is each figure's shape.

use fillvoid_core::ensemble::EnsemblePipeline;
use fillvoid_core::experiment::{
    format_table, hidden_layer_sweep, method_sweep, variant_series, FcnnReconstructor, MethodRow,
    VariantSeries,
};
use fillvoid_core::features::FeatureConfig;
use fillvoid_core::metrics::snr_db;
use fillvoid_core::pipeline::{
    FcnnPipeline, FineTuneCase, FineTuneSpec, PipelineConfig, TrainCorpus,
};
use fillvoid_core::render::save_slice_pgm;
use fillvoid_core::timesteps::{baseline_replay, replay, ReplayConfig};
use fillvoid_core::upscale::{upscale_study, UpscaleConfig};
use fv_bench::{db, pct, secs, ExpOpts};
use fv_field::ScalarField;
use fv_interp::linear::LinearReconstructor;
use fv_interp::natural::NaturalNeighborReconstructor;
use fv_interp::{classical_methods, Reconstructor};
use fv_nn::serialize;
use fv_sampling::{
    FieldSampler, ImportanceSampler, RandomSampler, RegularSampler, StratifiedSampler,
    ValueStratifiedSampler,
};
use fv_sims::{DatasetSpec, Scale, Simulation};
use fv_spatial::gridindex::GridIndex;
use fv_spatial::KdTree;
use std::time::Instant;

type Experiment = fn(&ExpOpts);

/// Every experiment, in the order `exp all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("table1", table1),
    ("table2", table2),
    ("qualitative", qualitative),
    ("ablation_features", ablation_features),
    ("ablation_k", ablation_k),
    ("ablation_sampler", ablation_sampler),
    ("ablation_finetune", ablation_finetune),
    ("ext_uncertainty", ext_uncertainty),
    ("ext_spatial", ext_spatial),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    if command == "--list" {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let selected: Vec<&(&str, Experiment)> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| command == "all" || *name == command)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: exp <name>|all|--list [flags] (flags: `exp all --help`)");
        eprintln!("names: {}", names.join(" "));
        let help = matches!(command.as_str(), "--help" | "-h");
        std::process::exit(if help { 0 } else { 2 });
    }
    let opts = ExpOpts::parse(args);
    let wall = Instant::now();
    for (i, (name, run)) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        eprintln!("[exp] {name}");
        run(&opts);
    }
    eprintln!("[exp] total wall time {:.1}s", wall.elapsed().as_secs_f64());
}

fn isabel_spec() -> &'static DatasetSpec {
    DatasetSpec::by_name("isabel").expect("isabel is registered")
}

fn isabel(opts: &ExpOpts) -> Box<dyn Simulation> {
    opts.build(isabel_spec())
}

/// `spec`'s mid-run timestep, like the paper's single-timestep studies.
fn mid_timestep(opts: &ExpOpts, spec: &DatasetSpec) -> ScalarField {
    let sim = opts.build(spec);
    sim.timestep(sim.num_timesteps() / 2)
}

/// Train one pipeline per `(label, config)` and score each across `fractions`.
fn train_series(
    field: &ScalarField,
    variants: Vec<(String, PipelineConfig)>,
    fractions: &[f64],
    seed: u64,
) -> Vec<VariantSeries> {
    variants
        .into_iter()
        .map(|(label, config)| {
            eprintln!("[exp] training {label} ...");
            variant_series(field, &label, &config, fractions, seed).expect("variant trains")
        })
        .collect()
}

fn print_table(header: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(header, rows));
}

/// One table row per sampling fraction: every series' SNR at it.
fn series_rows(fractions: &[f64], series: &[VariantSeries]) -> Vec<Vec<String>> {
    fractions
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let mut row = vec![pct(f)];
            row.extend(series.iter().map(|s| db(s.points[i].1)));
            row
        })
        .collect()
}

/// Fig. 6 — SNR vs hidden layer count (isabel, 3% sampling).
///
/// The paper finds a quality peak at five layers, with both the shallow
/// and the deep ends lower: an inverted U.
fn fig06(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    // Depth d uses the first d rungs of the paper's width ladder, padded
    // with 8-wide layers beyond five (the paper's deep variants).
    let ladder = [512usize, 256, 128, 64, 16, 8, 8, 8, 8];
    let depths = [1usize, 3, 5, 7, 9];
    let rows = hidden_layer_sweep(
        &field,
        &ladder,
        &depths,
        &opts.pipeline_config(),
        &[0.03],
        opts.seed,
    )
    .expect("sweep");

    println!("# Fig. 6 — SNR vs hidden layer count (isabel, 3% sampling)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.depth.to_string(), db(r.snr), secs(r.train_seconds)])
        .collect();
    print_table(&["hidden_layers", "snr_db", "train_s"], &table);
    let best = rows
        .iter()
        .max_by(|a, b| a.snr.partial_cmp(&b.snr).unwrap())
        .expect("non-empty");
    println!("# best depth: {} ({} dB)", best.depth, db(best.snr));
}

/// Fig. 7 — training on 1% voids, 5% voids, or their union (isabel).
///
/// The paper's 1%-model flat-lines at high test rates and its 5%-model is
/// weak at low ones; the union is good across the axis.
fn fig07(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    let base = opts.pipeline_config();
    let fractions = opts.fraction_axis();
    let variants = [
        ("1%", TrainCorpus::Single(0.01)),
        ("5%", TrainCorpus::Single(0.05)),
        ("1%+5%", TrainCorpus::Union(vec![0.01, 0.05])),
    ]
    .map(|(label, corpus)| {
        (
            label.to_string(),
            PipelineConfig {
                corpus,
                ..base.clone()
            },
        )
    });
    let series = train_series(&field, variants.into(), &fractions, opts.seed);

    println!("# Fig. 7 — SNR vs test sampling % for different training corpora (isabel)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    print_table(
        &["test_sampling", "train_1%", "train_5%", "train_1%+5%"],
        &series_rows(&fractions, &series),
    );
}

/// Fig. 8 — `[value, gx, gy, gz]` vs `[value]` output layer (isabel).
///
/// The paper finds the gradient-supervised network consistently ahead.
fn fig08(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    let base = opts.pipeline_config();
    let fractions = opts.fraction_axis();
    let no_grad = PipelineConfig {
        features: FeatureConfig {
            predict_gradients: false,
            ..base.features
        },
        ..base.clone()
    };
    let variants = vec![
        ("with-gradient".to_string(), base),
        ("without-gradient".to_string(), no_grad),
    ];
    let series = train_series(&field, variants, &fractions, opts.seed);

    println!("# Fig. 8 — SNR with vs without gradients in the output layer (isabel)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    print_table(
        &["sampling", "with_gradient", "without_gradient"],
        &series_rows(&fractions, &series),
    );
    let wins = (0..fractions.len())
        .filter(|&i| series[0].points[i].1 > series[1].points[i].1)
        .count();
    println!(
        "# gradient supervision wins at {wins}/{} sampling rates",
        fractions.len()
    );
}

/// Fig. 9 — SNR of the FCNN vs the classical methods, all datasets.
///
/// Every method improves with the sampling rate; the FCNN generally
/// leads, linear and natural-neighbor are close, Shepard and nearest trail.
fn fig09(opts: &ExpOpts) {
    method_figure(
        opts,
        "fig09",
        "Fig. 9 — SNR (dB)",
        classical_methods(),
        |r| db(r.snr),
    );
}

/// Fig. 10 — reconstruction wall-clock time, all datasets.
///
/// Adds the naive sequential Delaunay-linear path next to the parallel one
/// (the paper's Python vs CGAL+OpenMP contrast). FCNN time is flat in the
/// sampling rate. Training time is excluded, as in the paper (Table I).
fn fig10(opts: &ExpOpts) {
    let mut methods: Vec<Box<dyn Reconstructor>> =
        vec![Box::new(LinearReconstructor::sequential())];
    methods.extend(classical_methods());
    // `--csv` names Fig. 9's files; writing them here too would overwrite
    // them under `exp all --csv`.
    let opts = ExpOpts {
        csv: None,
        ..opts.clone()
    };
    let title = "Fig. 10 — reconstruction time (s)";
    method_figure(&opts, "fig10", title, methods, |r| secs(r.seconds));
}

/// Train the FCNN on each dataset's mid timestep, sweep it and `classical`
/// over the fraction axis, and print one `cell` per method and fraction.
fn method_figure(
    opts: &ExpOpts,
    fig: &str,
    title: &str,
    classical: Vec<Box<dyn Reconstructor>>,
    cell: fn(&MethodRow) -> String,
) {
    let fractions = opts.fraction_axis();
    for spec in opts.datasets() {
        let field = mid_timestep(opts, spec);
        let config = opts.pipeline_config();
        eprintln!("[{fig}] training FCNN on {} ...", spec.name);
        let pipeline = FcnnPipeline::train(&field, &config, opts.seed).expect("training");
        let fcnn = FcnnReconstructor::new(&pipeline);
        let mut methods: Vec<&dyn Reconstructor> = vec![&fcnn];
        methods.extend(classical.iter().map(|m| m.as_ref()));
        let rows = method_sweep(&field, &methods, &fractions, config.sampler, opts.seed);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();

        println!(
            "# {title} by method and sampling %, dataset = {} {:?}",
            spec.name,
            field.grid().dims()
        );
        let table: Vec<Vec<String>> = fractions
            .iter()
            .map(|&f| {
                let mut row = vec![pct(f)];
                row.extend(names.iter().map(|name| {
                    rows.iter()
                        .find(|r| r.fraction == f && r.method == *name)
                        .map(cell)
                        .unwrap_or_else(|| "?".into())
                }));
                row
            })
            .collect();
        let mut header = vec!["sampling"];
        header.extend(&names);
        print_table(&header, &table);
        println!();

        if let Some(base) = &opts.csv {
            let path = base.with_file_name(format!(
                "{}-{}.csv",
                base.file_stem().and_then(|s| s.to_str()).unwrap_or(fig),
                spec.name
            ));
            let file = std::fs::File::create(&path).expect("create csv");
            fillvoid_core::report::method_rows_csv(&rows, file).expect("write csv");
            eprintln!("[{fig}] wrote {}", path.display());
        }
    }
}

/// Fig. 11 — SNR across the isabel run at 3% sampling.
///
/// Five curves: the Delaunay-linear baseline, frozen models pretrained at
/// the first and the middle timestep, and the same two models given a
/// 10-epoch Case-1 fine-tune at every step. Frozen models decay away from
/// their pretraining step; fine-tuned ones track the data.
fn fig11(opts: &ExpOpts) {
    let sim = isabel(opts);
    let n_steps = sim.num_timesteps();
    // Evaluate every 3rd step at tiny/small scale to keep single-core runs
    // interactive; every step at --medium and --full.
    let stride = match opts.scale {
        Scale::Tiny | Scale::Small => 3,
        _ => 1,
    };
    let timesteps: Vec<usize> = (0..n_steps).step_by(stride).collect();
    let config = opts.pipeline_config();
    let (pretrain_a, pretrain_b) = (0, n_steps / 2);

    eprintln!("[fig11] pretraining Pf{pretrain_a:02} and Pf{pretrain_b:02} ...");
    let model_a = FcnnPipeline::train(&sim.timestep(pretrain_a), &config, opts.seed).unwrap();
    let model_b = FcnnPipeline::train(&sim.timestep(pretrain_b), &config, opts.seed ^ 1).unwrap();
    let frozen_cfg = ReplayConfig {
        fraction: 0.03,
        fine_tune: None,
        seed: opts.seed,
        sampler: config.sampler,
    };
    let tuned_cfg = ReplayConfig {
        fine_tune: Some(FineTuneSpec::case1()),
        ..frozen_cfg.clone()
    };
    let base = baseline_replay(
        sim.as_ref(),
        &LinearReconstructor::default(),
        &timesteps,
        &frozen_cfg,
    );
    let run = |model: &FcnnPipeline, cfg: &ReplayConfig| {
        replay(sim.as_ref(), &mut model.clone(), &timesteps, cfg).unwrap()
    };
    let curves = [
        ("fcnn_pf_first", run(&model_a, &frozen_cfg)),
        ("fcnn_pf_mid", run(&model_b, &frozen_cfg)),
        ("finetune_first", run(&model_a, &tuned_cfg)),
        ("finetune_mid", run(&model_b, &tuned_cfg)),
    ];

    println!(
        "# Fig. 11 — SNR (dB) across {} timesteps of isabel at 3% sampling (grid {:?})",
        timesteps.len(),
        sim.grid().dims()
    );
    let mut header = vec!["t", "linear"];
    header.extend(curves.iter().map(|(label, _)| *label));
    let table: Vec<Vec<String>> = timesteps
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let mut row = vec![t.to_string(), db(base[i].snr)];
            row.extend(curves.iter().map(|(_, rows)| db(rows[i].snr)));
            row
        })
        .collect();
    print_table(&header, &table);

    if let Some(path) = &opts.csv {
        let mut labeled = vec![("linear", base.as_slice())];
        labeled.extend(curves.iter().map(|(label, rows)| (*label, rows.as_slice())));
        let file = std::fs::File::create(path).expect("create csv");
        fillvoid_core::report::replay_rows_csv(&labeled, file).expect("write csv");
        eprintln!("[fig11] wrote {}", path.display());
    }
}

/// Fig. 12 — loss per epoch: full training vs a 10-epoch Case-1 fine-tune.
///
/// The fine-tune starts far below the from-scratch curve (warm start) and
/// converges within a handful of epochs.
fn fig12(opts: &ExpOpts) {
    let sim = isabel(opts);
    let config = opts.pipeline_config();
    eprintln!("[fig12] full training at t=0 ...");
    let mut pipeline = FcnnPipeline::train(&sim.timestep(0), &config, opts.seed).unwrap();
    let full: Vec<f32> = pipeline.history().epoch_loss.clone();
    eprintln!("[fig12] fine-tuning to t=mid ...");
    let t_mid = sim.num_timesteps() / 2;
    let ft = pipeline
        .fine_tune(&sim.timestep(t_mid), &FineTuneSpec::case1())
        .unwrap();

    let loss_table = |losses: &[f32]| -> String {
        let table: Vec<Vec<String>> = losses
            .iter()
            .enumerate()
            .map(|(e, l)| vec![e.to_string(), format!("{l:.6}")])
            .collect();
        format_table(&["epoch", "loss"], &table)
    };
    println!("# Fig. 12a — full-training loss per epoch (isabel t=0)");
    print!("{}", loss_table(&full));
    println!("\n# Fig. 12b — fine-tuning loss per epoch (to t={t_mid}, Case 1)");
    print!("{}", loss_table(&ft.epoch_loss));
    println!(
        "\n# warm-start check: fine-tune epoch-0 loss {:.6} vs full-training epoch-0 loss {:.6}",
        ft.epoch_loss[0], full[0]
    );
}

/// Fig. 13 — reconstruct a 2×-per-dimension grid over a shifted domain.
///
/// Three curves: Delaunay-linear, an FCNN fully trained at high
/// resolution, and the low-resolution FCNN fine-tuned for 10 epochs. The
/// transferred model lands close to the fully trained one.
fn fig13(opts: &ExpOpts) {
    let sim = isabel(opts);
    let config = UpscaleConfig {
        t: sim.num_timesteps() / 2,
        refine: 2,
        // The paper modifies the spatial extent of the high-res data; shift
        // by a quarter of the domain.
        domain_shift: [125.0, -60.0, 0.0],
        fractions: opts.fraction_axis(),
        fine_tune_epochs: 10,
        pipeline: opts.pipeline_config(),
        seed: opts.seed,
    };
    eprintln!(
        "[fig13] low-res grid {:?}, training both models ...",
        sim.grid().dims()
    );
    let study = upscale_study(sim.as_ref(), &config).expect("study");

    println!(
        "# Fig. 13b — SNR (dB) reconstructing {:?} (shifted domain) from low-res-trained models",
        study.high_grid.dims()
    );
    let table: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                pct(r.fraction),
                db(r.snr_linear),
                db(r.snr_full),
                db(r.snr_transferred),
            ]
        })
        .collect();
    print_table(
        &[
            "sampling",
            "linear",
            "fcnn_full_highres",
            "fcnn_lowres_finetuned",
        ],
        &table,
    );
}

/// Fig. 14 — SNR when training on 100%, 50% or 25% of the training rows.
///
/// The paper finds the quality loss negligible; Table II is the time side.
fn fig14(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    let base = opts.pipeline_config();
    let fractions = opts.fraction_axis();
    let variants = [1.0f64, 0.5, 0.25]
        .iter()
        .map(|&keep| {
            let label = format!("{}% rows", (keep * 100.0) as u32);
            (
                label,
                PipelineConfig {
                    train_row_fraction: keep,
                    ..base.clone()
                },
            )
        })
        .collect();
    let series = train_series(&field, variants, &fractions, opts.seed);

    println!("# Fig. 14 — SNR when training on a fraction of the training rows (isabel)");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    print_table(
        &["sampling", "100%_rows", "50%_rows", "25%_rows"],
        &series_rows(&fractions, &series),
    );
    println!(
        "# training seconds: 100% = {:.2}, 50% = {:.2}, 25% = {:.2}",
        series[0].train_seconds, series[1].train_seconds, series[2].train_seconds
    );
}

/// `f`'s result and its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Wall-clock seconds to train `config` on `field`.
fn train_seconds(field: &ScalarField, config: &PipelineConfig, seed: u64) -> f64 {
    timed(|| FcnnPipeline::train(field, config, seed).expect("training")).1
}

fn resolution(field: &ScalarField) -> String {
    let d = field.grid().dims();
    format!("{}x{}x{}", d[0], d[1], d[2])
}

/// Table I — training time per dataset and resolution.
///
/// The paper's 500-epoch times ran on a 64-core + 2×A100 node; the
/// reproducible shape is the ratio between rows (time grows with voids).
fn table1(opts: &ExpOpts) {
    let config = opts.pipeline_config();
    println!(
        "# Table I — training time for {} epochs (scale {:?})",
        config.trainer.epochs, opts.scale
    );
    let mut table = Vec::new();
    // The paper's four rows: the three datasets plus high-res Isabel.
    for spec in opts.datasets() {
        let sim = opts.build(spec);
        let field = sim.timestep(sim.num_timesteps() / 2);
        eprintln!(
            "[table1] training on {} {:?} ...",
            spec.name,
            field.grid().dims()
        );
        let elapsed = train_seconds(&field, &config, opts.seed);
        table.push(vec![
            spec.name.to_string(),
            resolution(&field),
            secs(elapsed),
        ]);
        if spec.name == "isabel" {
            // High-resolution Isabel row (2x per dimension).
            let high_grid = field.grid().refined(2).expect("refine");
            let high = sim.timestep_on(sim.num_timesteps() / 2, high_grid);
            eprintln!(
                "[table1] training on isabel-hi {:?} ...",
                high.grid().dims()
            );
            let elapsed = train_seconds(&high, &config, opts.seed);
            table.push(vec![
                "isabel-hi".to_string(),
                resolution(&high),
                secs(elapsed),
            ]);
        }
    }
    print_table(&["dataset", "resolution", "train_s"], &table);
    println!("# paper (500 epochs, GPU node): isabel 533s, isabel-hi 3737s, combustion 829s, ionization 5522s");
}

/// Table II — training time vs the share of training rows kept (isabel).
///
/// The reproducible shape is the near-linear drop; Fig. 14 shows the
/// (negligible) quality cost.
fn table2(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    let base = opts.pipeline_config();
    println!(
        "# Table II — training time vs %% of training rows (isabel {:?}, {} epochs)",
        field.grid().dims(),
        base.trainer.epochs
    );
    let mut table = Vec::new();
    let mut reference = None;
    for keep in [1.0f64, 0.5, 0.25] {
        let config = PipelineConfig {
            train_row_fraction: keep,
            ..base.clone()
        };
        eprintln!(
            "[table2] training with {}% of rows ...",
            (keep * 100.0) as u32
        );
        let elapsed = train_seconds(&field, &config, opts.seed);
        let rel = elapsed / *reference.get_or_insert(elapsed);
        table.push(vec![
            format!("{}%", (keep * 100.0) as u32),
            secs(elapsed),
            format!("{rel:.2}x"),
        ]);
    }
    print_table(&["rows_kept", "train_s", "relative"], &table);
    println!("# paper (500 epochs): 100% -> 533s, 50% -> 275s (0.52x), 25% -> 161s (0.30x)");
}

/// Figs. 2–3 — greyscale PGM z-slices of the truth and of the FCNN,
/// linear and natural-neighbor reconstructions at 1% sampling, written to
/// `target/exp_qualitative/`.
fn qualitative(opts: &ExpOpts) {
    let out_dir = std::path::Path::new("target/exp_qualitative");
    std::fs::create_dir_all(out_dir).expect("create output dir");
    for spec in opts.datasets() {
        if spec.name == "isabel" && opts.dataset.is_none() {
            continue; // the paper's qualitative figures use the other two
        }
        let field = mid_timestep(opts, spec);
        let plane = field.grid().dims()[2] / 2;
        let config = opts.pipeline_config();
        eprintln!("[qualitative] training FCNN on {} ...", spec.name);
        let pipeline = FcnnPipeline::train(&field, &config, opts.seed).expect("training");
        let cloud = ImportanceSampler::new(config.sampler).sample(&field, 0.01, opts.seed);

        save_slice_pgm(
            &field,
            plane,
            out_dir.join(format!("{}_truth.pgm", spec.name)),
        )
        .expect("write truth");
        println!("# {} (1% sampling, z-slice {plane})", spec.name);
        let methods: [&dyn Reconstructor; 3] = [
            &FcnnReconstructor::new(&pipeline),
            &LinearReconstructor::default(),
            &NaturalNeighborReconstructor,
        ];
        for method in methods {
            let recon = method
                .reconstruct(&cloud, field.grid())
                .expect("reconstruct");
            let path = out_dir.join(format!("{}_{}.pgm", spec.name, method.name()));
            save_slice_pgm(&recon, plane, &path).expect("write slice");
            println!(
                "  {:>8}: SNR {} dB -> {}",
                method.name(),
                db(snr_db(&field, &recon)),
                path.display()
            );
        }
    }
}

/// Ablation — absolute (the paper's) vs void-relative neighbor
/// coordinates in the feature vector, per dataset.
fn ablation_features(opts: &ExpOpts) {
    let fractions = opts.fraction_axis();
    for spec in opts.datasets() {
        let field = mid_timestep(opts, spec);
        let base = opts.pipeline_config();
        let relative = PipelineConfig {
            features: FeatureConfig {
                relative_coords: true,
                ..base.features
            },
            ..base.clone()
        };
        let variants = vec![
            ("absolute".to_string(), base),
            ("relative".to_string(), relative),
        ];
        let series = train_series(&field, variants, &fractions, opts.seed);

        println!(
            "# Ablation — absolute vs relative neighbor coordinates, dataset = {}",
            spec.name
        );
        print_table(
            &["sampling", "absolute_coords", "relative_coords"],
            &series_rows(&fractions, &series),
        );
        println!();
    }
}

/// Ablation — neighbors per void location `k` around the paper's 5
/// (feature width 4k+3).
fn ablation_k(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    let base = opts.pipeline_config();
    let fractions = opts.fraction_axis();
    let variants = [2usize, 3, 5, 8, 12]
        .iter()
        .map(|&k| {
            let config = PipelineConfig {
                features: FeatureConfig { k, ..base.features },
                ..base.clone()
            };
            (format!("k={k}"), config)
        })
        .collect();
    let series = train_series(&field, variants, &fractions, opts.seed);

    println!("# Ablation — neighbors per void location (isabel, feature width = 4k+3)");
    let mut header = vec!["sampling"];
    header.extend(series.iter().map(|s| s.label.as_str()));
    print_table(&header, &series_rows(&fractions, &series));
    println!(
        "# training seconds: {}",
        series
            .iter()
            .map(|s| format!("{} -> {}", s.label, secs(s.train_seconds)))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Ablation — how much quality comes from the sampler: linear
/// reconstruction from five samplers under the same budget, per dataset.
fn ablation_sampler(opts: &ExpOpts) {
    let linear = LinearReconstructor::default();
    let samplers: [&dyn FieldSampler; 5] = [
        &ImportanceSampler::default(),
        &RandomSampler,
        &StratifiedSampler::default(),
        &ValueStratifiedSampler::default(),
        &RegularSampler,
    ];
    for spec in opts.datasets() {
        let field = mid_timestep(opts, spec);
        println!(
            "# Ablation — sampler choice under a fixed budget (linear reconstruction), dataset = {}",
            spec.name
        );
        let table: Vec<Vec<String>> = opts
            .fraction_axis()
            .into_iter()
            .map(|f| {
                let mut row = vec![pct(f)];
                row.extend(samplers.iter().map(|sampler| {
                    let cloud = sampler.sample(&field, f, opts.seed);
                    match linear.reconstruct(&cloud, field.grid()) {
                        Ok(recon) => db(snr_db(&field, &recon)),
                        Err(_) => "n/a".into(),
                    }
                }));
                row
            })
            .collect();
        print_table(
            &[
                "sampling",
                "importance",
                "random",
                "stratified",
                "value-strat",
                "regular",
            ],
            &table,
        );
        println!();
    }
}

/// Ablation — fine-tuning Case 1 vs Case 2 (Fig. 5's trade-off, measured):
/// SNR, fine-tune wall-clock and per-timestep checkpoint bytes.
fn ablation_finetune(opts: &ExpOpts) {
    let sim = isabel(opts);
    let config = opts.pipeline_config();
    let t_new = sim.num_timesteps() / 2;
    let field_new = sim.timestep(t_new);
    let cloud = ImportanceSampler::new(config.sampler).sample(&field_new, 0.03, opts.seed);
    eprintln!("[ablation-finetune] pretraining at t=0 ...");
    let pretrained = FcnnPipeline::train(&sim.timestep(0), &config, opts.seed).unwrap();

    // Epoch budgets proportional to the paper's 10 vs 300-500.
    let case2_epochs = (config.trainer.epochs * 4).max(40);
    let spec = |case, epochs| FineTuneSpec {
        case,
        epochs,
        learning_rate: 1e-3,
        seed: opts.seed,
    };
    let modes = [
        ("frozen", None),
        ("case1", Some(spec(FineTuneCase::FullNetwork, 10))),
        (
            "case2",
            Some(spec(FineTuneCase::LastTwoLayers, case2_epochs)),
        ),
    ];

    println!("# Ablation — fine-tuning modes, isabel t=0 -> t={t_new} at 3% sampling");
    let mut table = Vec::new();
    for (label, ft) in modes {
        let mut model = pretrained.clone();
        let elapsed = match &ft {
            Some(ft) => timed(|| model.fine_tune(&field_new, ft).unwrap()).1,
            None => 0.0,
        };
        let mut buf = Vec::new();
        if ft.is_some_and(|ft| ft.case == FineTuneCase::LastTwoLayers) {
            // Per-timestep artifact = just the trainable tail.
            let mut m = model.mlp().clone();
            m.freeze_all_but_last(2);
            serialize::save_partial(&m, &mut buf).unwrap();
        } else {
            serialize::write_model(model.mlp(), &mut buf).unwrap();
        }
        let recon = model.reconstruct(&cloud, field_new.grid()).unwrap();
        table.push(vec![
            label.to_string(),
            db(snr_db(&field_new, &recon)),
            secs(elapsed),
            buf.len().to_string(),
        ]);
    }
    print_table(&["mode", "snr_db", "finetune_s", "artifact_bytes"], &table);
    println!(
        "# paper: case1 ~10 epochs; case2 needs 300-500 epochs but stores only the last two layers"
    );
}

/// Extension — deep-ensemble uncertainty (the paper's future-work (3)).
///
/// Voxels the ensemble flags as uncertain should carry larger errors: the
/// mean absolute error per predicted-std quartile grows monotonically when
/// the uncertainty is calibrated.
fn ext_uncertainty(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    let config = opts.pipeline_config();
    let ensemble_size = 5;
    eprintln!("[uncertainty] training {ensemble_size}-member ensemble ...");
    let ens = EnsemblePipeline::train(&field, &config, ensemble_size, opts.seed).expect("train");
    let cloud = ImportanceSampler::new(config.sampler).sample(&field, 0.01, opts.seed);
    let ur = ens.reconstruct(&cloud, field.grid()).expect("reconstruct");

    println!(
        "# Extension — deep-ensemble uncertainty (isabel {:?}, 1% sampling, E = {ensemble_size})",
        field.grid().dims()
    );
    println!("# ensemble-mean SNR: {} dB", db(snr_db(&field, &ur.mean)));
    // Calibration: bucket voxels by predicted std quartile, report MAE.
    let sd = ur.std_dev.values();
    let mut order: Vec<usize> = (0..field.len()).collect();
    order.sort_by(|&a, &b| sd[a].partial_cmp(&sd[b]).unwrap());
    let q = field.len() / 4;
    let bounds = [0, q, 2 * q, 3 * q, field.len()];
    let table: Vec<Vec<String>> = (0..4)
        .map(|q| {
            let idx = &order[bounds[q]..bounds[q + 1]];
            let n = idx.len() as f64;
            let mae = idx
                .iter()
                .map(|&i| (field.values()[i] - ur.mean.values()[i]).abs() as f64)
                .sum::<f64>()
                / n;
            let mean_std = idx.iter().map(|&i| sd[i] as f64).sum::<f64>() / n;
            vec![
                format!("Q{}", q + 1),
                format!("{mean_std:.4}"),
                format!("{mae:.4}"),
            ]
        })
        .collect();
    print_table(
        &["uncertainty_quartile", "mean_predicted_std", "actual_mae"],
        &table,
    );
    println!("# calibrated uncertainty = actual_mae grows monotonically with the predicted std");
}

/// Extension — k-d tree vs uniform bucket grid on the reconstruction query
/// workload: one nearest lookup per grid node, across sampling rates.
fn ext_spatial(opts: &ExpOpts) {
    let field = mid_timestep(opts, isabel_spec());
    let grid = field.grid();
    let sampler = ImportanceSampler::default();
    println!(
        "# Extension — nearest-neighbor index comparison (isabel {:?}, one query per node)",
        grid.dims()
    );
    let mut table = Vec::new();
    for fraction in opts.fraction_axis() {
        let cloud = sampler.sample(&field, fraction, opts.seed);
        let positions = cloud.positions();
        let (tree, kd_build) = timed(|| KdTree::build(positions));
        let (bucket, grid_build) = timed(|| GridIndex::build(positions, 2.0));
        // Summed nearest distances over one query per node.
        let total = |dist_sq: &dyn Fn([f64; 3]) -> f64| -> f64 {
            (0..grid.num_points())
                .map(|idx| dist_sq(grid.world_linear(idx)))
                .sum()
        };
        let (kd_acc, kd_query) = timed(|| total(&|q| tree.nearest(positions, q).unwrap().dist_sq));
        let (grid_acc, grid_query) =
            timed(|| total(&|q| bucket.nearest(positions, q).unwrap().dist_sq));
        assert!(
            (kd_acc - grid_acc).abs() < 1e-6 * kd_acc.max(1.0),
            "indexes disagree: {kd_acc} vs {grid_acc}"
        );
        table.push(vec![
            pct(fraction),
            secs(kd_build),
            secs(grid_build),
            secs(kd_query),
            secs(grid_query),
        ]);
    }
    print_table(
        &[
            "sampling",
            "kd_build_s",
            "grid_build_s",
            "kd_query_s",
            "grid_query_s",
        ],
        &table,
    );
    println!("# identical results verified per row (summed nearest distances match)");
}
