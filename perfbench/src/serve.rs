//! `serve`: a closed loop against an in-process fv-serve server over
//! loopback, with two connections. Connection A makes dense `reconstruct`
//! calls on a tiny-scale timestep (request id 0, so the reply cache is
//! never hit); connection B streams a small-scale timestep with
//! `reconstruct_bricked` in 21×21×4 bricks. A and B use distinct clouds.

use crate::inputs::{self, DATASET};
use crate::probe::{self, fill, fp, Inputs};
use crate::trace::Tracer;
use crate::util::{median, ms_since, quantile, Sheet, Tally};
use fillvoid::core::metrics::snr_db;
use fillvoid::core::pipeline::FcnnPipeline;
use fillvoid::core::BrickReconConfig;
use fillvoid::field::{Grid3, ScalarField};
use fillvoid::sampling::PointCloud;
use fillvoid::serve::{Client, ClientError, ModelRegistry, ServeConfig, Server};
use fillvoid::sims::Scale;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Connection B's brick shape (3×3×3 bricks of the small grid).
const STREAM_BRICK: [u32; 3] = [21, 21, 4];
/// Dense requests timed per composition in the traced run.
const TRACE_REQUESTS: usize = 40;
/// Fewest timed requests on A behind `op_tail_ms` (a p99): A keeps going
/// past the window until it has them.
const MIN_DENSE_REQUESTS: usize = 1000;
/// Longest A's loop may run while reaching `MIN_DENSE_REQUESTS`, so a run
/// still ends in time on a slow host (and then counts as failed).
const MAX_LOOP_S: f64 = 140.0;

/// Start a server holding `model` as the dataset's version 1.
pub fn start(model: &FcnnPipeline) -> Server {
    let registry = Arc::new(ModelRegistry::new(512 << 20));
    registry
        .insert(DATASET, 1, model.clone())
        .expect("registry admits the model");
    Server::start_with_registry(ServeConfig::default(), registry)
        .expect("server starts on loopback")
}

/// Connect, open a session and upload `cloud`; returns the client and
/// session with the open and upload times in ms.
pub fn open(
    server: &Server,
    tenant: &str,
    cloud: &PointCloud,
) -> Result<(Client, u64, f64, f64), ClientError> {
    let mut client = Client::connect(server.addr())?;
    let t = Instant::now();
    let session = client.open_session(tenant, DATASET, 1)?;
    let open_ms = ms_since(t);
    let t = Instant::now();
    client.put_cloud(session, cloud)?;
    Ok((client, session, open_ms, ms_since(t)))
}

/// One dense request, checked: an error, a degraded reply or a volume
/// that differs from `want` is a failed operation.
fn dense(
    tally: &mut Tally,
    client: &mut Client,
    session: u64,
    grid: &Grid3,
    want: u64,
) -> Option<ScalarField> {
    match client.reconstruct(session, grid, 0) {
        Ok(r) if r.degraded => {
            tally.check(false, || format!("degraded reply: {}", r.reason));
            None
        }
        Ok(r) => tally
            .check(fp(&r.field) == want, || {
                "served volume differs from in-process dense".into()
            })
            .then_some(r.field),
        Err(e) => {
            tally.check(false, || format!("dense request: {e}"));
            None
        }
    }
}

/// One brick stream, reassembled and checked against `want`; returns the
/// arrival time of every brick.
fn stream(
    tally: &mut Tally,
    client: &mut Client,
    session: u64,
    grid: &Grid3,
    brick: [u32; 3],
    want: u64,
) -> Vec<Instant> {
    let mut bricks: Vec<Vec<f32>> = Vec::new();
    let mut stamps = Vec::new();
    let got = client.reconstruct_bricked(session, grid, brick, 0, |b| {
        stamps.push(Instant::now());
        let i = b.index as usize;
        if bricks.len() <= i {
            bricks.resize(i + 1, Vec::new());
        }
        bricks[i] = b.values;
    });
    match got {
        Ok(s) if s.received != s.total_bricks => {
            tally.check(false, || {
                format!(
                    "stream delivered {} of {} bricks",
                    s.received, s.total_bricks
                )
            });
        }
        Ok(_) => {
            let dense = fill(grid, brick.map(|d| d as usize), &bricks);
            tally.check(fp(&dense) == want, || {
                "streamed volume differs from in-process dense".into()
            });
        }
        Err(e) => {
            tally.check(false, || format!("brick stream: {e}"));
        }
    }
    stamps
}

/// Serve-layer figures of one traced composition.
pub struct ServeFigures {
    open_session_ms: f64,
    put_cloud_ms: f64,
    rtt_ms: Vec<f64>,
    gaps_ms: Vec<f64>,
}

impl ServeFigures {
    /// Write the `serve.*` per-layer metrics; the overhead is the median
    /// round trip minus the median in-process reconstruction of the same
    /// inputs (`pipeline.reconstruct` spans).
    pub fn emit(&self, tr: &Tracer, sheet: &mut Sheet) {
        let rtt = median(&self.rtt_ms);
        sheet.put("serve.open_session_ms", self.open_session_ms, "ms");
        sheet.put("serve.put_cloud_ms", self.put_cloud_ms, "ms");
        sheet.put("serve.rtt_ms", rtt, "ms");
        sheet.put(
            "serve.overhead_ms",
            rtt - median(&tr.durations_ms("pipeline.reconstruct")),
            "ms",
        );
        sheet.put("serve.brick_gap_ms", median(&self.gaps_ms), "ms");
    }
}

fn gaps(stamps: &[Instant]) -> Vec<f64> {
    stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// Serve probe for workloads that do not serve: a server holding `model`,
/// one connection, dense requests and one stream of `(cloud, grid)`.
pub fn probe(
    tr: &mut Tracer,
    tally: &mut Tally,
    model: &FcnnPipeline,
    cloud: &PointCloud,
    grid: &Grid3,
    brick: [u32; 3],
    want: u64,
) -> ServeFigures {
    let mut server = start(model);
    let figures = match open(&server, "probe", cloud) {
        Ok((mut client, session, open_session_ms, put_cloud_ms)) => {
            dense(tally, &mut client, session, grid, want);
            let mut rtt_ms = Vec::new();
            for i in 0..8 {
                let t = Instant::now();
                let s = tr.begin("serve.rtt", 100 + i);
                dense(tally, &mut client, session, grid, want);
                tr.end(s);
                rtt_ms.push(ms_since(t));
            }
            let s = tr.begin("serve.stream", 200);
            let stamps = stream(tally, &mut client, session, grid, brick, want);
            tr.end(s);
            client.close_session(session).ok();
            ServeFigures {
                open_session_ms,
                put_cloud_ms,
                rtt_ms,
                gaps_ms: gaps(&stamps),
            }
        }
        Err(e) => {
            tally.check(false, || format!("serve probe session: {e}"));
            ServeFigures {
                open_session_ms: f64::NAN,
                put_cloud_ms: f64::NAN,
                rtt_ms: Vec::new(),
                gaps_ms: Vec::new(),
            }
        }
    };
    server.shutdown();
    figures
}

/// Everything one set-up builds.
struct Setup {
    field_a: ScalarField,
    cloud_a: PointCloud,
    grid_b: Grid3,
    cloud_b: PointCloud,
    model: FcnnPipeline,
    server: Server,
    a: (Client, u64),
    b: (Client, u64),
    open_ms: f64,
    put_ms: f64,
}

fn setup(seed: u64) -> Result<(Setup, f64), ClientError> {
    let tiny = inputs::simulation(Scale::Tiny, seed);
    let field_a = tiny.timestep(inputs::TIMESTEP);
    let small = inputs::simulation(Scale::Small, seed);
    let field_b = small.timestep(inputs::TIMESTEP);
    let cloud_a = inputs::sample(&field_a, seed);
    let cloud_b = inputs::sample(&field_b, seed.wrapping_add(1));
    let t = Instant::now();
    let model = inputs::train(&field_a, &inputs::pretrain_config(inputs::PRETRAIN_EPOCHS));
    let train_s = t.elapsed().as_secs_f64();
    let server = start(&model);
    let (ca, sa, open_ms, put_ms) = open(&server, "a", &cloud_a)?;
    let (cb, sb, _, _) = open(&server, "b", &cloud_b)?;
    let s = Setup {
        grid_b: *field_b.grid(),
        field_a,
        cloud_a,
        cloud_b,
        model,
        server,
        a: (ca, sa),
        b: (cb, sb),
        open_ms,
        put_ms,
    };
    Ok((s, train_s))
}

fn close(mut s: Setup) {
    s.a.0.close_session(s.a.1).ok();
    s.b.0.close_session(s.b.1).ok();
    s.server.shutdown();
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
    let (mut setup_s, mut train_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..reps {
        let t = Instant::now();
        let (s, train) = match setup(seed) {
            Ok(v) => v,
            Err(e) => {
                tally.check(false, || format!("serve set-up: {e}"));
                return;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        train_s.push(train);
        if let Some(old) = built.replace(s) {
            close(old);
        }
    }
    let mut s = built.expect("at least one set-up");
    let grid_a = *s.field_a.grid();
    // In-process dense references every served volume must match.
    let direct_a = s
        .model
        .reconstruct(&s.cloud_a, &grid_a)
        .expect("dense reference A");
    let want_a = fp(&direct_a);
    let want_b = fp(&s
        .model
        .reconstruct(&s.cloud_b, &s.grid_b)
        .expect("dense reference B"));

    if trace {
        trace_run(&mut s, seed, seconds, want_a, want_b, work, sheet, tally);
        close(s);
        return;
    }

    // Closed loop: A in this thread, B streaming on its own thread until
    // A's window ends.
    let stop = AtomicBool::new(false);
    let mut b_tally = Tally::default();
    let (mut lat, mut first) = (Vec::new(), None);
    let (b_vox, b_secs) = std::thread::scope(|scope| {
        let (stop, b_tally) = (&stop, &mut b_tally);
        let (client_b, session_b, grid_b) = (&mut s.b.0, s.b.1, s.grid_b);
        let streamer = scope.spawn(move || {
            let (mut vox, mut secs) = (0usize, 0.0f64);
            while !stop.load(Ordering::Acquire) {
                let t = Instant::now();
                let failed = b_tally.failed;
                stream(b_tally, client_b, session_b, &grid_b, STREAM_BRICK, want_b);
                if b_tally.failed > failed {
                    break;
                }
                secs += t.elapsed().as_secs_f64();
                vox += grid_b.num_points();
            }
            (vox, secs)
        });
        let t0 = Instant::now();
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            if (elapsed >= seconds && lat.len() >= MIN_DENSE_REQUESTS) || elapsed >= MAX_LOOP_S {
                break;
            }
            let t = Instant::now();
            let failed = tally.failed;
            let got = dense(tally, &mut s.a.0, s.a.1, &grid_a, want_a);
            if tally.failed > failed {
                break;
            }
            lat.push(ms_since(t));
            if first.is_none() {
                first = got;
            }
        }
        stop.store(true, Ordering::Release);
        streamer.join().expect("stream thread")
    });
    tally.attempted += b_tally.attempted;
    tally.failed += b_tally.failed;
    tally.reasons.extend(b_tally.reasons);
    tally.check(lat.len() >= MIN_DENSE_REQUESTS, || {
        format!(
            "only {} dense requests timed; the p99 needs {MIN_DENSE_REQUESTS}",
            lat.len()
        )
    });
    let snr = first.map_or(f64::NAN, |f| snr_db(&s.field_a, &f));
    tally.check(snr >= inputs::SNR_FLOOR_DB, || {
        format!("served snr {snr:.2} dB below the floor")
    });
    close(s);

    sheet.put("setup_s", median(&setup_s), "s");
    sheet.put("train_s", median(&train_s), "s");
    sheet.put("op_p50_ms", median(&lat), "ms");
    sheet.put("op_tail_ms", quantile(&lat, 0.99), "ms");
    sheet.put("bulk_mvox_per_s", b_vox as f64 / b_secs / 1e6, "Mvox/s");
    sheet.put("snr_db", snr, "dB");
    println!(
        "serve: {} dense requests on A (tail = p99), {} Mvoxel streamed on B in {:.2} s",
        lat.len(),
        b_vox as f64 / 1e6,
        b_secs
    );
}

/// Traced run: for `seconds`, rounds of A's dense requests plus one B
/// stream, untraced and then with a span per request, then the common
/// layer probes on A's inputs.
#[allow(clippy::too_many_arguments)]
fn trace_run(
    s: &mut Setup,
    seed: u64,
    seconds: f64,
    want_a: u64,
    want_b: u64,
    work: &Path,
    sheet: &mut Sheet,
    tally: &mut Tally,
) {
    let mut tr = Tracer::new();
    let grid_a = *s.field_a.grid();
    let (mut rtt_ms, mut gaps_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut rid = 100;
    while overhead_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        for _ in 0..TRACE_REQUESTS {
            dense(tally, &mut s.a.0, s.a.1, &grid_a, want_a);
        }
        stream(tally, &mut s.b.0, s.b.1, &s.grid_b, STREAM_BRICK, want_b);
        let untraced_ms = ms_since(t);

        let t = Instant::now();
        let root = tr.begin("serve.composition", probe::RID_PRIMARY);
        for _ in 0..TRACE_REQUESTS {
            let r = Instant::now();
            let sp = tr.begin("serve.rtt", rid);
            dense(tally, &mut s.a.0, s.a.1, &grid_a, want_a);
            tr.end(sp);
            rtt_ms.push(ms_since(r));
            rid += 1;
        }
        let sp = tr.begin("serve.stream", rid);
        let stamps = stream(tally, &mut s.b.0, s.b.1, &s.grid_b, STREAM_BRICK, want_b);
        tr.end(sp);
        tr.end(root);
        rid += 1;
        gaps_ms.extend(gaps(&stamps));
        overhead_ms.push(ms_since(t) - untraced_ms);
    }

    let figures = ServeFigures {
        open_session_ms: s.open_ms,
        put_cloud_ms: s.put_ms,
        rtt_ms,
        gaps_ms,
    };
    let config = inputs::pretrain_config(inputs::PRETRAIN_EPOCHS);
    probe::layers(
        &mut tr,
        sheet,
        tally,
        Inputs {
            field: &s.field_a,
            cloud: &s.cloud_a,
            model: &s.model,
            config: &config,
            // B's stream, in process: the bricks `brick.*` time are the
            // ones the server computes for `bulk_mvox_per_s`.
            brick_cloud: &s.cloud_b,
            bricks: BrickReconConfig {
                brick_dims: STREAM_BRICK.map(|d| d as usize),
                ..Default::default()
            },
            fine_tune_epochs: 1,
            seed,
            have_step: false,
            serve_done: true,
        },
        work,
    );
    figures.emit(&tr, sheet);
    crate::finish_trace(&tr, sheet, "serve", seed, median(&overhead_ms));
}
