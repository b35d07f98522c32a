//! Runtime scaling — training and reconstruction wall-clock vs thread count.
//!
//! Times `FcnnPipeline::train` and full-grid reconstruction on explicit
//! `fv_runtime::Pool`s of 1, 2 and 4 workers and emits
//! `BENCH_runtime.json` (machine-readable, gitignored) plus the usual text
//! table. With deterministic chunking (the default) the reconstructed
//! fields are bitwise identical across the widths, which this binary
//! verifies as it goes — a timing run that silently diverged numerically
//! would be measuring the wrong thing.
//!
//! Beyond the headline wall-clocks, each row reports where the time went
//! (feature build / forward / backward / optimizer) and how many heap
//! allocations the training and reconstruction phases performed — the two
//! quantities the workspace execution layer is supposed to pin down. A
//! per-width dispatch table shows which kernels the granularity policy
//! kept sequential (small ops that would only pay pool overhead) and
//! which it fanned out.
//!
//! With `FV_TELEMETRY=1` the run additionally exports the structured
//! telemetry snapshot (pool scheduling, per-phase training spans, kNN and
//! feature-build sites, reconstruction batches, in-situ supervision) into
//! the JSON under a `"telemetry"` key and prints the human-readable
//! summary tree; the numbers themselves are bitwise-unchanged either way.

use fillvoid_core::insitu::{InSituConfig, InSituSession, SupervisionConfig};
use fillvoid_core::metrics::snr_db_masked;
use fillvoid_core::pipeline::{FcnnPipeline, FineTuneSpec, ReconstructWorkspace};
use fv_bench::{secs, ExpOpts};
use fv_linalg::{active_kernel_name, detected_kernels, force_kernel, GemmScratch};
use fv_runtime::alloc::{allocation_count, CountingAllocator};
use fv_runtime::granularity::{dispatch_stats, reset_dispatch_stats, DispatchStats};
use fv_sampling::{FieldSampler, ImportanceSampler};
use fv_sims::DatasetSpec;
use std::io::Write;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Row {
    threads: usize,
    train_s: f64,
    reconstruct_s: f64,
    snr: f64,
    snr_coverage: f64,
    bits_match: bool,
    feature_s: f64,
    data_s: f64,
    forward_s: f64,
    backward_s: f64,
    optim_s: f64,
    train_allocs: u64,
    reconstruct_allocs: u64,
    /// FNV-1a over the reconstruction's f32 bit patterns: a stable
    /// fingerprint the CI gate compares across *processes* (the in-process
    /// `bits_match` flag can only compare widths within one run, not
    /// `FV_GEMM_KERNEL=<name>` runs of different kernels).
    recon_fnv: u64,
    dispatch: Vec<DispatchStats>,
}

fn fnv1a64(bits: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

struct GemmBench {
    forced: &'static str,
    kernel: &'static str,
    gflops: f64,
    pack_calls: u64,
    pack_grows: u64,
    pack_reuses: u64,
}

/// Micro-benchmark the packed-GEMM layer on the paper's forward shape
/// class (`[batch, in] x [out, in]^T`), once per kernel this host can run
/// (every entry of `detected_kernels`, `portable` last). The
/// pack-buffer counters double as the reuse proof: after warm-up every
/// call reuses the panels, so `grows` stays at 1 per shape.
fn bench_gemm() -> Vec<GemmBench> {
    let (m, n, k) = (1024usize, 64usize, 64usize);
    let a = fv_linalg::Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 97) as f32 * 0.021 - 1.0);
    let w = fv_linalg::Matrix::from_fn(n, k, |r, c| ((r * 13 + c * 5) % 89) as f32 * 0.023 - 1.0);
    let iters = 60u64;
    let mut out = Vec::new();
    for label in detected_kernels::<f32>() {
        force_kernel(Some(label));
        let kernel = active_kernel_name::<f32>();
        let mut scratch = GemmScratch::default();
        let mut c = fv_linalg::Matrix::zeros(0, 0);
        // Warm-up sizes the pack buffers; timed calls then only reuse.
        a.matmul_transpose_b_into_with(&w, &mut c, &mut scratch)
            .expect("bench shapes agree");
        let t = Instant::now();
        for _ in 0..iters {
            a.matmul_transpose_b_into_with(&w, &mut c, &mut scratch)
                .expect("bench shapes agree");
        }
        let secs = t.elapsed().as_secs_f64();
        out.push(GemmBench {
            forced: label,
            kernel,
            gflops: (2 * m * n * k) as f64 * iters as f64 / secs / 1e9,
            pack_calls: scratch.calls(),
            pack_grows: scratch.grows(),
            pack_reuses: scratch.reuses(),
        });
    }
    force_kernel(None);
    out
}

fn main() {
    let opts = ExpOpts::from_args();
    let spec = DatasetSpec::by_name("isabel").expect("isabel is registered");
    let sim = opts.build(spec);
    let field = sim.timestep(sim.num_timesteps() / 2);
    let config = opts.pipeline_config();
    let cloud = ImportanceSampler::default().sample(&field, 0.03, opts.seed);

    let mut rows: Vec<Row> = Vec::new();
    let mut reference_bits: Option<Vec<u32>> = None;
    let mut last_model: Option<FcnnPipeline> = None;
    for threads in [1usize, 2, 4] {
        reset_dispatch_stats();
        // Per-width telemetry: the snapshot exported at the end covers the
        // final width plus the in-situ segment, not an accumulated blur.
        fv_runtime::telemetry::reset();
        let pool = fv_runtime::Pool::new(threads);
        let (train_s, reconstruct_s, model, recon, train_allocs, reconstruct_allocs) = pool
            .install(|| {
                let a0 = allocation_count();
                let t0 = Instant::now();
                let model = FcnnPipeline::train(&field, &config, opts.seed).expect("training");
                let train_s = t0.elapsed().as_secs_f64();
                let a1 = allocation_count();
                let mut ws = ReconstructWorkspace::default();
                let t1 = Instant::now();
                let recon = model
                    .reconstruct_with(&cloud, field.grid(), &mut ws)
                    .expect("reconstruction");
                let reconstruct_s = t1.elapsed().as_secs_f64();
                let a2 = allocation_count();
                (train_s, reconstruct_s, model, recon, a1 - a0, a2 - a1)
            });
        let bits: Vec<u32> = recon.values().iter().map(|v| v.to_bits()).collect();
        let recon_fnv = fnv1a64(&bits);
        let bits_match = match &reference_bits {
            Some(reference) => reference == &bits,
            None => {
                reference_bits = Some(bits);
                true
            }
        };
        let t = model.history().timings;
        // Masked scoring: identical to the plain SNR on the (normal) fully
        // finite reconstruction, but degrades gracefully — with a coverage
        // figure — if a run ever emits NaN voxels.
        let scored = snr_db_masked(&field, &recon);
        rows.push(Row {
            threads,
            train_s,
            reconstruct_s,
            snr: scored.value,
            snr_coverage: scored.coverage,
            bits_match,
            feature_s: model.feature_build_seconds(),
            data_s: t.data_s,
            forward_s: t.forward_s,
            backward_s: t.backward_s,
            optim_s: t.optim_s,
            train_allocs,
            reconstruct_allocs,
            recon_fnv,
            dispatch: dispatch_stats(),
        });
        last_model = Some(model);
    }

    // GEMM kernel micro-benchmark: run after the scaling rows so the
    // forced-kernel sweep cannot perturb the timed sections above.
    let gemm_rows = bench_gemm();

    // Out-of-core bricked segment: one streamed pass over the same volume
    // with the final width's model, so the brick.* telemetry sites (and
    // their counters) land in the exported snapshot next to the dense-path
    // instruments, and the bitwise contract is checked one more time
    // against the whole-grid reference.
    let brick_dir = std::env::temp_dir().join(format!("fv_exp_runtime_brick_{}", std::process::id()));
    std::fs::remove_dir_all(&brick_dir).ok();
    let dims = field.grid().dims();
    let brick_cfg = fillvoid_core::BrickReconConfig {
        brick_dims: [
            dims[0].div_ceil(3).max(1),
            dims[1].div_ceil(3).max(1),
            dims[2].div_ceil(3).max(1),
        ],
        ..Default::default()
    };
    let t_brick = Instant::now();
    let (brick_store, brick_report) = fillvoid_core::reconstruct_bricked(
        last_model.as_ref().expect("at least one width ran"),
        &cloud,
        field.grid(),
        &brick_dir,
        &brick_cfg,
        &fv_runtime::ExecCtx::unbounded(),
    )
    .expect("bricked reconstruction");
    let brick_s = t_brick.elapsed().as_secs_f64();
    let brick_bits_match = reference_bits.as_ref().is_some_and(|reference| {
        let assembled = brick_store.assemble().expect("assemble bricks");
        assembled
            .values()
            .iter()
            .map(|v| v.to_bits())
            .eq(reference.iter().copied())
    });
    drop(brick_store);
    std::fs::remove_dir_all(&brick_dir).ok();

    // Supervised in-situ segment: a short session under a per-step
    // deadline, so the run reports the supervision counters (deadline
    // misses, caught panics, checkpoint retries, breaker position) next
    // to the scaling numbers.
    let insitu_steps = 3usize;
    let mut session = InSituSession::new(
        last_model.take().expect("at least one width ran"),
        InSituConfig {
            fraction: 0.03,
            drift_threshold: None,
            fine_tune: FineTuneSpec {
                epochs: 2,
                ..FineTuneSpec::case1()
            },
            probe_rows: 512,
            score: false,
            supervision: SupervisionConfig {
                step_deadline: Some(std::time::Duration::from_secs(30)),
                ..SupervisionConfig::default()
            },
            ..Default::default()
        },
    );
    let (mut deadline_misses, mut panics_caught, mut io_retries, mut fallback_steps) =
        (0usize, 0usize, 0usize, 0usize);
    let t_insitu = Instant::now();
    for _ in 0..insitu_steps {
        let (_, _, report) = session.step(&field).expect("supervised in-situ step");
        deadline_misses += usize::from(report.deadline_missed);
        panics_caught += usize::from(report.panic_caught);
        io_retries += report.io_retries;
        fallback_steps += usize::from(report.fallback_kind.is_some());
    }
    let insitu_s = t_insitu.elapsed().as_secs_f64();
    let breaker = format!("{:?}", session.breaker());
    let pool_sup = fv_runtime::supervision_stats();

    println!("# Runtime scaling — isabel, 3% sampling, FV_DETERMINISTIC default");
    println!("# scale: {:?}, grid: {:?}", opts.scale, field.grid().dims());
    println!(
        "{:>8} {:>10} {:>14} {:>8} {:>10}",
        "threads", "train_s", "reconstruct_s", "snr_db", "bitwise"
    );
    for r in &rows {
        println!(
            "{:>8} {:>10} {:>14} {:>8.2} {:>10}",
            r.threads,
            secs(r.train_s),
            secs(r.reconstruct_s),
            r.snr,
            if r.bits_match { "match" } else { "DIVERGED" },
        );
    }

    println!("\n# Per-phase breakdown (seconds) and heap allocations");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "threads", "feature", "data", "forward", "backward", "optim", "train_alloc", "recon_alloc"
    );
    for r in &rows {
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
            r.threads,
            secs(r.feature_s),
            secs(r.data_s),
            secs(r.forward_s),
            secs(r.backward_s),
            secs(r.optim_s),
            r.train_allocs,
            r.reconstruct_allocs,
        );
    }

    println!(
        "\n# GEMM kernels — active \"{}\", detected {:?} (override with FV_GEMM_KERNEL)",
        active_kernel_name::<f32>(),
        detected_kernels::<f32>(),
    );
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12}",
        "forced", "kernel", "gflops", "pack_calls", "pack_reuses"
    );
    for g in &gemm_rows {
        println!(
            "{:>10} {:>10} {:>10.2} {:>12} {:>12}",
            g.forced, g.kernel, g.gflops, g.pack_calls, g.pack_reuses
        );
    }

    println!("\n# Granularity dispatch (calls below the min-work threshold run sequentially)");
    for r in &rows {
        let seq_ops: Vec<String> = r
            .dispatch
            .iter()
            .filter(|d| d.seq > 0)
            .map(|d| format!("{} ({} seq / {} par)", d.name, d.seq, d.par))
            .collect();
        let summary = if seq_ops.is_empty() {
            "none (all calls parallel)".to_string()
        } else {
            seq_ops.join(", ")
        };
        println!("#   {} threads: sequential fallback: {summary}", r.threads);
    }

    let mut json = String::from(
        "{\n  \"experiment\": \"runtime_scaling\",\n  \"dataset\": \"isabel\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"train_s\": {:.6}, \"reconstruct_s\": {:.6}, \"snr_db\": {:.4}, \"snr_coverage\": {:.4}, \"bitwise_match\": {}, \"recon_fnv\": \"{:016x}\", \"feature_s\": {:.6}, \"data_s\": {:.6}, \"forward_s\": {:.6}, \"backward_s\": {:.6}, \"optim_s\": {:.6}, \"train_allocs\": {}, \"reconstruct_allocs\": {}}}{}\n",
            r.threads,
            r.train_s,
            r.reconstruct_s,
            r.snr,
            r.snr_coverage,
            r.bits_match,
            r.recon_fnv,
            r.feature_s,
            r.data_s,
            r.forward_s,
            r.backward_s,
            r.optim_s,
            r.train_allocs,
            r.reconstruct_allocs,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    println!("\n# Out-of-core bricked segment ({} bricks of {:?})", brick_report.total_bricks, brick_cfg.brick_dims);
    println!(
        "#   {} in {}, peak in-flight {} B, max halo {}, bitwise {}",
        brick_report.completed,
        secs(brick_s),
        brick_report.peak_inflight_bytes,
        brick_report.max_halo,
        if brick_bits_match { "match" } else { "DIVERGED" },
    );
    println!("\n# Supervised in-situ segment ({insitu_steps} steps, 30 s step budget)");
    println!(
        "#   {} deadline misses, {} panics caught, {} checkpoint retries, {} fallback steps, breaker {}, pool: {} panics caught / {} worker restarts",
        deadline_misses,
        panics_caught,
        io_retries,
        fallback_steps,
        breaker,
        pool_sup.panics_caught,
        pool_sup.worker_restarts,
    );

    // With FV_TELEMETRY=1 the snapshot (last width + in-situ segment) rides
    // along in the JSON and a human-readable tree goes to stdout. Disabled,
    // neither the key nor any timing exists — the sites never recorded.
    let telemetry_json = if fv_runtime::telemetry::enabled() {
        format!(",\n  \"telemetry\": {}", fv_runtime::telemetry::snapshot().to_json())
    } else {
        String::new()
    };
    json.push_str(&format!(
        "  ],\n  \"brick\": {{\"total_bricks\": {}, \"brick_dims\": [{}, {}, {}], \"seconds\": {:.6}, \"peak_inflight_bytes\": {}, \"halo_bytes\": {}, \"max_halo\": {}, \"bitwise_match\": {}}},\n",
        brick_report.total_bricks,
        brick_cfg.brick_dims[0],
        brick_cfg.brick_dims[1],
        brick_cfg.brick_dims[2],
        brick_s,
        brick_report.peak_inflight_bytes,
        brick_report.halo_bytes,
        brick_report.max_halo,
        brick_bits_match,
    ));
    let gemm_variants: Vec<String> = gemm_rows
        .iter()
        .map(|g| {
            format!(
                "{{\"forced\": \"{}\", \"kernel\": \"{}\", \"gflops\": {:.3}, \"pack_calls\": {}, \"pack_grows\": {}, \"pack_reuses\": {}}}",
                g.forced, g.kernel, g.gflops, g.pack_calls, g.pack_grows, g.pack_reuses
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"gemm\": {{\"active_kernel\": \"{}\", \"detected\": [{}], \"shape\": [1024, 64, 64], \"variants\": [{}]}},\n",
        active_kernel_name::<f32>(),
        detected_kernels::<f32>()
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        gemm_variants.join(", "),
    ));
    json.push_str(&format!(
        "  \"insitu\": {{\"steps\": {}, \"seconds\": {:.6}, \"deadline_misses\": {}, \"panics_caught\": {}, \"io_retries\": {}, \"fallback_steps\": {}, \"breaker\": \"{}\", \"pool_panics_caught\": {}, \"pool_worker_restarts\": {}}}{}\n}}\n",
        insitu_steps,
        insitu_s,
        deadline_misses,
        panics_caught,
        io_retries,
        fallback_steps,
        breaker,
        pool_sup.panics_caught,
        pool_sup.worker_restarts,
        telemetry_json,
    ));
    if fv_runtime::telemetry::enabled() {
        println!("\n# Telemetry (FV_TELEMETRY=1; last width + in-situ segment)");
        print!("{}", fv_runtime::telemetry::summary());
    }
    let path = "BENCH_runtime.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_runtime.json");
    println!("# wrote {path}");

    if rows.iter().any(|r| !r.bits_match) || !brick_bits_match {
        eprintln!("error: reconstruction diverged across thread counts");
        std::process::exit(1);
    }
}
