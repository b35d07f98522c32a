//! The repository benchmark.
//!
//! ```text
//! fv-perfbench --workload insitu|volume|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics with
//! tracing off; with `--trace 1` it runs the traced compositions and
//! prints the per-layer metrics instead. Either way it checks every
//! output, prints each metric by name with its unit, an environment
//! stamp, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero when
//! any check failed. See `perfbench/README.md` for the metric definitions.

mod inputs;
mod insitu;
mod probe;
mod serve;
mod trace;
mod util;
mod volume;

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use trace::Tracer;
use util::{json_str, Sheet, Tally};

/// Set-ups per untraced run; `setup_s` and `train_s` report the median.
pub const SETUP_REPS: usize = 3;
/// Worker count of the fv-runtime pool (`FV_THREADS`). One worker: every
/// parallel section then runs inline on its calling thread. With two, the
/// pool's join latch can be freed while its setter still uses it (see
/// `Latch::set`), and served volumes came back with unfilled kNN rows.
const POOL_WIDTH: &str = "1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["insitu", "volume", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (insitu, volume, serve)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// Settings that change which program is measured. Pins the pool width
/// before anything starts the pool.
fn refuse_env() -> Result<(), String> {
    match std::env::var("FV_THREADS") {
        Ok(v) if v != POOL_WIDTH => {
            return Err(format!(
                "FV_THREADS={v:?} changes the measured program; unset it"
            ))
        }
        _ => std::env::set_var("FV_THREADS", POOL_WIDTH),
    }
    if std::env::var("FV_TELEMETRY").is_ok_and(|v| v == "1") {
        return Err("FV_TELEMETRY=1 changes the measured program; unset it".into());
    }
    if std::env::var_os("FV_GEMM_KERNEL").is_some() {
        return Err(
            "FV_GEMM_KERNEL pins a kernel and changes the measured program; unset it".into(),
        );
    }
    Ok(())
}

/// The environment stamp printed with every result.
fn stamp(work: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernels: Vec<String> = fillvoid::linalg::detected_kernels::<f32>()
        .iter()
        .map(|k| json_str(k))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"pool_width\": {}, \"active_kernel\": {}, \"detected_kernels\": [{}], \"fv_par_min_work\": {}, \"fv_par_min_work_env\": {}, \"llc\": {}, \"brick_dir_fs\": {}}}",
        fillvoid::runtime::current_num_threads(),
        json_str(fillvoid::linalg::active_kernel_name::<f32>()),
        kernels.join(", "),
        fillvoid::runtime::granularity::min_par_work(),
        std::env::var("FV_PAR_MIN_WORK").map_or_else(|_| "null".into(), |v| json_str(&v)),
        json_str(&util::llc_size()),
        json_str(&util::fs_type(work)),
    )
}

/// Write the trace and the span-derived bookkeeping metrics.
pub fn finish_trace(tr: &Tracer, sheet: &mut Sheet, workload: &str, seed: u64, overhead_ms: f64) {
    sheet.put("trace.overhead_ms", overhead_ms, "ms");
    sheet.put("trace.spans", tr.len() as f64, "count");
    let path = PathBuf::from(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans written to {}", tr.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn main() {
    let args = match parse_args().and_then(|a| refuse_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fv-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("fv-perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    println!("env: {}", stamp(&work));

    let (mut sheet, mut tally) = (Sheet::default(), Tally::default());
    let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
        match args.workload.as_str() {
            "insitu" => insitu::run(seed, secs, trace, &work, &mut sheet, &mut tally),
            "volume" => volume::run(seed, secs, trace, &work, &mut sheet, &mut tally),
            _ => serve::run(seed, secs, trace, &work, &mut sheet, &mut tally),
        }
    }));
    if let Err(payload) = ran {
        tally.attempted += 1;
        tally.fail(format!("panic: {}", panic_message(payload.as_ref())));
    }
    std::fs::remove_dir_all(&work).ok();
    // Leave `.bench_work` itself only if another run is still using it.
    std::fs::remove_dir(".bench_work").ok();

    if !args.trace {
        sheet.put("peak_rss_mib", util::peak_rss_mib(), "MiB");
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in sheet.rows() {
        if !value.is_finite() {
            tally.attempted += 1;
            tally.fail(format!("metric {name} is not finite"));
        }
        println!("metric {name} = {value} {unit}");
        let v = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        metrics.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for r in &tally.reasons {
        println!("failed: {r}");
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
