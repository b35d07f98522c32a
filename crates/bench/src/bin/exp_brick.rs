//! Out-of-core bricked reconstruction — memory bound and crash-resume demo.
//!
//! Two segments, emitted to `BENCH_brick.json` (machine-readable,
//! gitignored) plus the usual text table:
//!
//! 1. **Memory/wall-clock** — reconstruct a grid whose dense volume is at
//!    least 4× the brick budget, bricked *first* (so the process
//!    high-watermark reflects the streaming path, not a previous dense
//!    allocation), then whole-grid for comparison. Asserts the run's own
//!    in-flight accounting stays within one brick, `max_brick_len · 4`
//!    bytes (bricks run one at a time), and that the assembled bricks
//!    match the whole-grid volume bit for bit.
//! 2. **Crash-resume** — a seeded chaos panic kills the pipeline
//!    mid-volume; a clean rerun resumes from the ledger, recomputes only
//!    the unfinished bricks, and converges to the same bits. This is the
//!    CI `brick-resume-smoke` stage's data source.

use fillvoid_core::brick::{reconstruct_bricked, BrickReconConfig};
use fillvoid_core::pipeline::FcnnPipeline;
use fv_bench::{secs, ExpOpts};
use fv_field::brick::BrickStore;
use fv_runtime::chaos::{self, FaultPlan};
use fv_runtime::ExecCtx;
use fv_sampling::{FieldSampler, ImportanceSampler};
use fv_sims::DatasetSpec;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Peak resident set (VmHWM) of this process in KiB, from
/// `/proc/self/status`; 0 where unavailable (non-Linux).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fv_exp_brick_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn main() {
    let opts = ExpOpts::from_args();
    let spec = DatasetSpec::by_name("isabel").expect("isabel is registered");
    let sim = opts.build(spec);
    let field = sim.timestep(sim.num_timesteps() / 2);
    let dims = field.grid().dims();
    let config = opts.pipeline_config();
    let cloud = ImportanceSampler::default().sample(&field, 0.03, opts.seed);
    let model = FcnnPipeline::train(&field, &config, opts.seed).expect("training");

    // Bricks of ~1/27 of the volume each, one in flight at a time: the
    // dense volume is ~27× the one-brick budget, well inside the
    // out-of-core regime (≥ 4× the budget) the CI gate checks.
    let cfg = BrickReconConfig {
        brick_dims: [
            dims[0].div_ceil(3).max(1),
            dims[1].div_ceil(3).max(1),
            dims[2].div_ceil(3).max(1),
        ],
        ..Default::default()
    };

    // --- Segment 1: bricked (first, for a clean high-watermark) vs whole.
    let dir = store_dir("mem");
    let rss0 = peak_rss_kib();
    let t0 = Instant::now();
    let (store, report) =
        reconstruct_bricked(&model, &cloud, field.grid(), &dir, &cfg, &ExecCtx::unbounded())
            .expect("bricked reconstruction");
    let bricked_s = t0.elapsed().as_secs_f64();
    let rss_bricked = peak_rss_kib();
    assert!(report.is_complete(), "{report:?}");

    let budget_bytes = store.layout().max_brick_len() * 4;
    let volume_bytes = field.grid().num_points() * 4;
    assert!(
        report.peak_inflight_bytes <= budget_bytes,
        "in-flight {} exceeded the {budget_bytes}-byte budget",
        report.peak_inflight_bytes
    );

    let t1 = Instant::now();
    let whole = model
        .reconstruct(&cloud, field.grid())
        .expect("whole-grid reconstruction");
    let whole_s = t1.elapsed().as_secs_f64();
    let rss_whole = peak_rss_kib();

    let assembled = store.assemble().expect("assemble");
    let bitwise_equal = whole
        .values()
        .iter()
        .zip(assembled.values())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // --- Segment 2: seeded crash mid-volume, then resume from the ledger.
    chaos::silence_chaos_panics();
    let resume_dir = store_dir("resume");
    let mut crash = None; // (seed, bricks durable at the moment of the crash)
    for seed in 0..20u64 {
        std::fs::remove_dir_all(&resume_dir).ok();
        let crashed = {
            let _guard = chaos::install(FaultPlan::new(seed).panic_at("brick.recon", 0.3));
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reconstruct_bricked(
                    &model,
                    &cloud,
                    field.grid(),
                    &resume_dir,
                    &cfg,
                    &ExecCtx::unbounded(),
                )
            }))
            .is_err()
        };
        if !crashed {
            continue;
        }
        let done = BrickStore::open(&resume_dir, *field.grid(), cfg.brick_dims)
            .expect("reopen after crash")
            .num_done();
        if done > 0 {
            crash = Some((seed, done));
            break;
        }
    }
    let (crash_seed, done_after_crash) = crash.expect("no seed in 0..20 crashed mid-volume");
    let (store, resume_report) = reconstruct_bricked(
        &model,
        &cloud,
        field.grid(),
        &resume_dir,
        &cfg,
        &ExecCtx::unbounded(),
    )
    .expect("resume after crash");
    assert!(resume_report.is_complete(), "{resume_report:?}");
    let resumed_assembled = store.assemble().expect("assemble resumed");
    let resume_bitwise = whole
        .values()
        .iter()
        .zip(resumed_assembled.values())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    drop(store);
    std::fs::remove_dir_all(&resume_dir).ok();

    println!("# Out-of-core bricked reconstruction — isabel, 3% sampling");
    println!(
        "# scale: {:?}, grid: {dims:?}, brick: {:?} ({} bricks)",
        opts.scale, cfg.brick_dims, report.total_bricks
    );
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>12}",
        "path", "seconds", "peak_rss_kib", "inflight_b", "bitwise"
    );
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>12}",
        "bricked",
        secs(bricked_s),
        rss_bricked,
        report.peak_inflight_bytes,
        "-"
    );
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>12}",
        "whole",
        secs(whole_s),
        rss_whole,
        volume_bytes,
        if bitwise_equal { "match" } else { "DIVERGED" }
    );
    println!(
        "# budget: {budget_bytes} B in flight (volume {volume_bytes} B = {:.1}x budget), max halo {}",
        volume_bytes as f64 / budget_bytes as f64,
        report.max_halo
    );
    println!(
        "# crash-resume: seed {crash_seed} crashed with {done_after_crash}/{} bricks durable; resume reused {} and recomputed {}, bitwise {}",
        resume_report.total_bricks,
        resume_report.resumed,
        resume_report.completed,
        if resume_bitwise { "match" } else { "DIVERGED" }
    );

    let json = format!(
        "{{\n  \"experiment\": \"brick_outofcore\",\n  \"dataset\": \"isabel\",\n  \"grid\": [{}, {}, {}],\n  \"brick_dims\": [{}, {}, {}],\n  \"total_bricks\": {},\n  \"budget_bytes\": {},\n  \"volume_bytes\": {},\n  \"peak_inflight_bytes\": {},\n  \"inflight_within_budget\": {},\n  \"bricked_s\": {:.6},\n  \"whole_s\": {:.6},\n  \"peak_rss_kib_after_bricked\": {},\n  \"peak_rss_kib_after_whole\": {},\n  \"halo_bytes\": {},\n  \"max_halo\": {},\n  \"bitwise_equal\": {},\n  \"resume\": {{\"crash_seed\": {}, \"done_after_crash\": {}, \"resumed\": {}, \"recomputed\": {}, \"total\": {}, \"bitwise_equal\": {}}}\n}}\n",
        dims[0], dims[1], dims[2],
        cfg.brick_dims[0], cfg.brick_dims[1], cfg.brick_dims[2],
        report.total_bricks,
        budget_bytes,
        volume_bytes,
        report.peak_inflight_bytes,
        report.peak_inflight_bytes <= budget_bytes,
        bricked_s,
        whole_s,
        rss_bricked.max(rss0),
        rss_whole,
        report.halo_bytes,
        report.max_halo,
        bitwise_equal,
        crash_seed,
        done_after_crash,
        resume_report.resumed,
        resume_report.completed,
        resume_report.total_bricks,
        resume_bitwise,
    );
    let path = "BENCH_brick.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_brick.json");
    println!("# wrote {path}");

    if !bitwise_equal || !resume_bitwise {
        eprintln!("error: bricked reconstruction diverged from whole-grid");
        std::process::exit(1);
    }
}
