//! The TCP server: accept loop, per-connection dispatch, graceful
//! shutdown.
//!
//! ## Threading model
//!
//! Accept and per-connection frame I/O run on plain OS threads — blocking
//! socket reads must never occupy `fv-runtime` pool workers, or 64 idle
//! connections would starve the 4-worker compute pool into deadlock. All
//! *compute* (feature extraction, forward passes, fallback interpolation)
//! happens on the batcher thread, which drives the global `fv-runtime`
//! pool through the same `rayon` facade as the direct path — a packed
//! micro-batch crosses the granularity threshold and saturates the pool
//! where 16 serial single-request passes would not.
//!
//! ## Connection watchdogs
//!
//! Every connection socket runs under two deadlines. Between frames the
//! handler waits for the *first byte* in short ticks, checking the
//! shutdown flag and the session's idle clock on each expiry — a
//! connection silent for longer than `idle_ttl` is reaped (typed notice,
//! then close), so abandoned clients cannot pin session slots forever.
//! `Ping` counts as activity, making it the heartbeat. Once a frame has
//! started, the *rest* of it must arrive within `io_timeout`; a peer
//! that stalls mid-frame is disconnected rather than left holding a
//! reader thread. Writes run under the same `io_timeout` — a client
//! that stops draining its socket exhausts its write budget and loses
//! the connection instead of wedging the handler.
//!
//! ## Shutdown
//!
//! `Server::shutdown` (also run on drop) is idempotent and total:
//! 1. set the shutdown flag — new connections and new requests are
//!    answered `ShuttingDown`;
//! 2. wake the blocking accept loop with a loopback connect and join it;
//! 3. stop the batcher: the pending batch is flushed (in-flight work
//!    completes), everything queued behind the marker gets a typed
//!    `Shutdown` response, and the batcher thread is joined;
//! 4. `shutdown(Both)` every connection socket — blocked reads and
//!    writes return — and join every connection thread.
//!
//! Nothing is detached: after `shutdown` returns, no server thread is
//! alive and the port is free (verified by the 100-cycle restart test).

use crate::batcher::{AfterFlush, BatchConfig, MicroBatcher, ReconJob, ReconOutcome};
use crate::proto::{
    self, BrickFrame, BrickMsg, BrickSummary, ErrorBody, ErrorCode, Frame, FrameError, Op,
    OpenSessionReq, OpenSessionResp, PutCloudReq, ReconstructBrickedReq, ReconstructReq,
    ReconstructResp, Status, SwapModelReq, MAX_GRID_POINTS, VERSION_ACTIVE,
};
use crate::registry::ModelRegistry;
use crate::session::{ReplyCache, SessionManager};
use crate::stream::{BrickScheduler, StreamConfig, StreamJob, StreamMsg};
use fillvoid_core::FcnnPipeline;
use fv_field::{BrickLayout, ScalarField};
use fv_runtime::checksum::Fnv1a;
use fv_runtime::{chaos, telemetry, Deadline, ExecCtx};
use fv_sampling::PointCloud;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

static TM_ACCEPT: telemetry::Counter = telemetry::Counter::new("serve.accepted");
static TM_REQ: telemetry::Site = telemetry::Site::new("serve.request", None);
static TM_REQUESTS: telemetry::Counter = telemetry::Counter::new("serve.requests");
static TM_PROTO_ERR: telemetry::Counter = telemetry::Counter::new("serve.proto_errors");
static TM_REJECT_BUSY: telemetry::Counter = telemetry::Counter::new("serve.reject.busy");
static TM_INTERN_HIT: telemetry::Counter = telemetry::Counter::new("serve.cloud.intern_hits");
static TM_REAPED: telemetry::Counter = telemetry::Counter::new("serve.conn.reaped");
static TM_STALLED: telemetry::Counter = telemetry::Counter::new("serve.conn.stalled");
static TM_WRITE_TIMEOUT: telemetry::Counter =
    telemetry::Counter::new("serve.conn.write_timeouts");

/// Server configuration. Every knob has an `FV_SERVE_*` env override
/// (see [`ServeConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Model registry byte budget.
    pub registry_budget: usize,
    /// Directory models are lazily loaded from (`None` = in-memory only).
    pub model_root: Option<PathBuf>,
    /// Per-tenant in-flight request cap.
    pub max_inflight_per_tenant: u64,
    /// Consecutive model failures that trip a model's breaker.
    pub breaker_threshold: u32,
    /// Demoted requests per breaker recovery probe.
    pub breaker_probe_after: u32,
    /// Honor the remote `Shutdown` op. Off by default: on a shared
    /// multi-tenant server any client could otherwise halt service for
    /// everyone. The embedding process always has [`Server::shutdown`].
    pub allow_remote_shutdown: bool,
    /// Honor the remote `SwapModel` op. Off by default for the same
    /// reason as `allow_remote_shutdown`: an unauthenticated client
    /// could otherwise replace the model everyone else is serving from.
    /// The embedding process always has [`ModelRegistry::promote`].
    pub allow_remote_swap: bool,
    /// Reap a connection that has sent no complete frame for this long.
    /// `Ping` resets the clock, making it the heartbeat op.
    pub idle_ttl: Duration,
    /// Per-frame transfer budget: once a frame's first byte has arrived
    /// the rest must follow within this window, and every response write
    /// must complete within it. Stalled or non-draining peers are
    /// disconnected.
    pub io_timeout: Duration,
    /// Run the stored canary reconstruction before promoting a swapped
    /// model (`FV_SERVE_CANARY=0` disables — for tests and airgapped
    /// reference-free deployments).
    pub canary: bool,
    /// TTL of the idempotent-reply cache (see [`ReplyCache`]).
    pub retry_ttl: Duration,
    /// Byte budget of the idempotent-reply cache.
    pub retry_cache_budget: usize,
    /// Largest target the dense `Reconstruct` op accepts, in grid
    /// points. Defaults to the frame cap ([`MAX_GRID_POINTS`]); lowering
    /// it forces big targets onto the streaming `ReconstructBricked` op
    /// sooner (benches use this to exercise streaming cheaply).
    pub max_dense_points: u64,
    /// Brick-stream scheduler tuning (`ReconstructBricked`).
    pub stream: StreamConfig,
    /// Micro-batcher tuning.
    pub batch: BatchConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            registry_budget: 256 << 20,
            model_root: None,
            max_inflight_per_tenant: 32,
            breaker_threshold: 3,
            breaker_probe_after: 8,
            allow_remote_shutdown: false,
            allow_remote_swap: false,
            idle_ttl: Duration::from_secs(300),
            io_timeout: Duration::from_secs(30),
            canary: true,
            retry_ttl: Duration::from_secs(5),
            retry_cache_budget: 32 << 20,
            max_dense_points: MAX_GRID_POINTS,
            stream: StreamConfig::default(),
            batch: BatchConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by `FV_SERVE_ADDR`, `FV_SERVE_MODEL_ROOT`,
    /// `FV_SERVE_BUDGET_MB`, `FV_SERVE_MAX_INFLIGHT`, `FV_SERVE_QUEUE`,
    /// `FV_SERVE_BATCH_ROWS`, `FV_SERVE_FLUSH_US`, `FV_SERVE_BATCH`
    /// (`0` disables micro-batching), `FV_SERVE_ALLOW_SHUTDOWN`
    /// (`1` lets clients issue the `Shutdown` op), `FV_SERVE_ALLOW_SWAP`
    /// (`1` lets clients issue the `SwapModel` op), `FV_SERVE_IDLE_TTL`
    /// (idle reap threshold, **seconds** — matching the 300 s default;
    /// `FV_SERVE_IDLE_TTL_MS` for millisecond granularity, and it wins
    /// when both are set), `FV_SERVE_IO_TIMEOUT` (per-frame read/write
    /// budget, ms), `FV_SERVE_CANARY` (`0` skips canary validation on
    /// swap), `FV_SERVE_RETRY_TTL_MS` and `FV_SERVE_RETRY_CACHE_MB`
    /// (idempotent-reply cache tuning), `FV_SERVE_MAX_POINTS` (dense
    /// `Reconstruct` target cap, in grid points), and the brick-stream
    /// knobs: `FV_SERVE_BRICK_QUEUE` (streams per tenant),
    /// `FV_SERVE_BRICK_INFLIGHT_MB` (per-stream un-acked byte window),
    /// `FV_SERVE_BRICK_HALO` (initial ghost-gather halo).
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        let get = |k: &str| std::env::var(k).ok();
        if let Some(v) = get("FV_SERVE_ADDR") {
            cfg.addr = v;
        }
        if let Some(v) = get("FV_SERVE_MODEL_ROOT") {
            cfg.model_root = Some(v.into());
        }
        if let Some(v) = get("FV_SERVE_BUDGET_MB").and_then(|v| v.parse::<usize>().ok()) {
            cfg.registry_budget = v << 20;
        }
        if let Some(v) = get("FV_SERVE_MAX_INFLIGHT").and_then(|v| v.parse().ok()) {
            cfg.max_inflight_per_tenant = v;
        }
        if let Some(v) = get("FV_SERVE_QUEUE").and_then(|v| v.parse().ok()) {
            cfg.batch.queue_depth = v;
        }
        if let Some(v) = get("FV_SERVE_BATCH_ROWS").and_then(|v| v.parse().ok()) {
            cfg.batch.max_rows = v;
        }
        if let Some(v) = get("FV_SERVE_FLUSH_US").and_then(|v| v.parse().ok()) {
            cfg.batch.flush_after = Duration::from_micros(v);
        }
        if let Some(v) = get("FV_SERVE_BATCH") {
            cfg.batch.batch = v != "0";
        }
        if let Some(v) = get("FV_SERVE_ALLOW_SHUTDOWN") {
            cfg.allow_remote_shutdown = v == "1";
        }
        if let Some(v) = get("FV_SERVE_ALLOW_SWAP") {
            cfg.allow_remote_swap = v == "1";
        }
        // Seconds, matching the `from_secs(300)` default and the
        // unsuffixed knob name. (An earlier revision parsed this as
        // milliseconds, so `FV_SERVE_IDLE_TTL=300` reaped idle
        // connections after 300 ms instead of 5 minutes.) Because that
        // fix silently changes what existing deployments' values mean,
        // setting the knob always earns a startup notice.
        if let Some(v) = get("FV_SERVE_IDLE_TTL").and_then(|v| v.parse::<u64>().ok()) {
            eprintln!("{}", idle_ttl_notice(v));
            cfg.idle_ttl = Duration::from_secs(v.max(1));
        }
        // Millisecond override for tests and aggressive deployments;
        // wins over FV_SERVE_IDLE_TTL when both are set.
        if let Some(v) = get("FV_SERVE_IDLE_TTL_MS").and_then(|v| v.parse::<u64>().ok()) {
            cfg.idle_ttl = Duration::from_millis(v.max(1));
        }
        if let Some(v) = get("FV_SERVE_IO_TIMEOUT").and_then(|v| v.parse::<u64>().ok()) {
            cfg.io_timeout = Duration::from_millis(v.max(1));
        }
        if let Some(v) = get("FV_SERVE_CANARY") {
            cfg.canary = v != "0";
        }
        if let Some(v) = get("FV_SERVE_RETRY_TTL_MS").and_then(|v| v.parse::<u64>().ok()) {
            cfg.retry_ttl = Duration::from_millis(v);
        }
        if let Some(v) = get("FV_SERVE_RETRY_CACHE_MB").and_then(|v| v.parse::<usize>().ok()) {
            cfg.retry_cache_budget = v << 20;
        }
        if let Some(v) = get("FV_SERVE_MAX_POINTS").and_then(|v| v.parse::<u64>().ok()) {
            cfg.max_dense_points = v.clamp(1, MAX_GRID_POINTS);
        }
        if let Some(v) = get("FV_SERVE_BRICK_QUEUE").and_then(|v| v.parse::<usize>().ok()) {
            cfg.stream.queue_per_tenant = v.max(1);
        }
        if let Some(v) = get("FV_SERVE_BRICK_INFLIGHT_MB").and_then(|v| v.parse::<usize>().ok()) {
            cfg.stream.inflight_budget = (v << 20).max(1);
        }
        if let Some(v) = get("FV_SERVE_BRICK_HALO").and_then(|v| v.parse::<usize>().ok()) {
            cfg.stream.halo = v.max(1);
        }
        cfg
    }
}

/// Startup notice for `FV_SERVE_IDLE_TTL`: the knob's parsing changed
/// from milliseconds to its documented seconds, so a deployment that set
/// it under the old interpretation now gets a 1000× longer reap window.
/// The notice names the unit and the `FV_SERVE_IDLE_TTL_MS` override,
/// and calls out implausibly large values (a day or more) as likely
/// leftover millisecond settings.
fn idle_ttl_notice(secs: u64) -> String {
    let mut msg = format!(
        "fv-serve: FV_SERVE_IDLE_TTL={secs} is interpreted as seconds \
         (earlier releases parsed it as milliseconds); set \
         FV_SERVE_IDLE_TTL_MS for millisecond granularity"
    );
    if secs >= 86_400 {
        msg.push_str(&format!(
            " — {secs} s is {:.1} hours, which looks like a leftover millisecond value",
            secs as f64 / 3600.0
        ));
    }
    msg
}

struct Shared {
    cfg: ServeConfig,
    registry: Arc<ModelRegistry>,
    sessions: SessionManager,
    batcher: MicroBatcher,
    bricks: BrickScheduler,
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    // Interned uploads, keyed by content fingerprint (collisions resolved
    // by full comparison). Weak: an interned cloud lives only as long as
    // some session or in-flight job holds it.
    clouds: Mutex<HashMap<u64, Vec<Weak<PointCloud>>>>,
    // Idempotent-reply cache for client retry healing.
    replies: ReplyCache,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Intern an uploaded cloud: byte-identical uploads (same grid, same
    /// indices, same value bits) resolve to one shared `Arc`, making
    /// "same cloud" a pointer check — which is what lets the
    /// micro-batcher coalesce identical concurrent requests into a single
    /// unit of work.
    fn intern_cloud(&self, cloud: PointCloud) -> Arc<PointCloud> {
        let fp = cloud_fingerprint(&cloud);
        let mut table = self.clouds.lock().expect("cloud intern table");
        // Sweep dead refs from every bucket and drop buckets that empty
        // out — distinct uploads over a long-lived server must not grow
        // the table without bound.
        table.retain(|_, slot| {
            slot.retain(|w| w.strong_count() > 0);
            !slot.is_empty()
        });
        let slot = table.entry(fp).or_default();
        for weak in slot.iter() {
            if let Some(existing) = weak.upgrade() {
                if existing.grid() == cloud.grid()
                    && existing.indices() == cloud.indices()
                    && existing.values().len() == cloud.values().len()
                    && existing
                        .values()
                        .iter()
                        .zip(cloud.values())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    TM_INTERN_HIT.incr();
                    return existing;
                }
            }
        }
        let arc = Arc::new(cloud);
        slot.push(Arc::downgrade(&arc));
        arc
    }

    fn unregister_conn(&self, id: u64) {
        self.conns
            .lock()
            .expect("conn table")
            .retain(|(cid, _)| *cid != id);
    }
}

/// A running reconstruction server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    done: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("sessions", &self.shared.sessions.len())
            .finish()
    }
}

impl Server {
    /// Bind and start serving with a fresh registry built from `cfg`.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Self> {
        let mut registry = ModelRegistry::new(cfg.registry_budget)
            .with_breaker(cfg.breaker_threshold, cfg.breaker_probe_after);
        if let Some(root) = &cfg.model_root {
            registry = registry.with_root(root);
        }
        Self::start_with_registry(cfg, Arc::new(registry))
    }

    /// Bind and start serving over a caller-owned registry (tests and
    /// benches pre-register in-memory models this way).
    pub fn start_with_registry(
        cfg: ServeConfig,
        registry: Arc<ModelRegistry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // Drain poll after every flushed batch: an in-flight batch is the
        // one pin on a retiring model that session close can't observe,
        // so the batcher itself reports when it lets go.
        let after_flush: AfterFlush = {
            let registry = registry.clone();
            Arc::new(move || {
                registry.poll_drains();
            })
        };
        let shared = Arc::new(Shared {
            sessions: SessionManager::new(cfg.max_inflight_per_tenant),
            batcher: MicroBatcher::start_with(cfg.batch.clone(), Some(after_flush)),
            bricks: BrickScheduler::start(cfg.stream.clone()),
            replies: ReplyCache::new(cfg.retry_ttl, cfg.retry_cache_budget),
            cfg,
            registry,
            shutdown: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            clouds: Mutex::new(HashMap::new()),
        });
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let handlers = handlers.clone();
            std::thread::Builder::new()
                .name("fv-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, handlers))?
        };
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
            handlers,
            done: false,
        })
    }

    /// The bound address (use with port 0 to discover the ephemeral
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live session count (observability for tests).
    pub fn session_count(&self) -> usize {
        self.shared.sessions.len()
    }

    /// The server's model registry.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Graceful, idempotent shutdown; see the module docs for the exact
    /// sequence. After this returns, no server thread is alive.
    pub fn shutdown(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept call; the loop observes the flag and
        // exits (the listener closes with it).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Flush in-flight batches, answer queued requests with Shutdown,
        // join the batcher. Connection threads blocked on a response
        // receive it here and write it out before their sockets close.
        self.shared.batcher.shutdown();
        // Stop the brick-stream worker: queued streams get a terminal
        // ShuttingDown message, which connection threads blocked on
        // their stream channel observe and forward.
        self.shared.bricks.shutdown();
        // Unblock every connection thread and join it.
        for (_, stream) in self.shared.conns.lock().expect("conn table").iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> = self.handlers.lock().expect("handler table").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Every connection thread is joined, so every session (and its
        // model pin) is closed: any version still draining retires now.
        self.shared.registry.poll_drains();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        // Chaos: a panic or injected I/O error while setting a connection
        // up must cost only that connection, never the listener.
        let ok = std::panic::catch_unwind(|| {
            chaos::point("serve.accept");
            chaos::io_error("serve.accept").is_none()
        })
        .unwrap_or(false);
        let stream = match stream {
            Ok(s) => s,
            Err(_) if shared.shutting_down() => break,
            Err(_) => continue,
        };
        if !ok {
            continue; // injected accept failure: drop this connection only
        }
        TM_ACCEPT.incr();
        let _ = stream.set_nodelay(true);
        let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conn table").push((id, clone));
        }
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("fv-serve-conn-{id}"))
            .spawn(move || {
                // A panicking handler (chaos or bug) drops only this
                // connection; sessions it opened are closed on the way
                // out, so no slot leaks.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_conn(&conn_shared, stream, id)
                }));
                conn_shared.unregister_conn(id);
            });
        match spawned {
            Ok(handle) => {
                let mut table = handlers.lock().expect("handler table");
                // Opportunistically reap finished threads so a long-lived
                // server doesn't accumulate dead handles.
                let (done, live): (Vec<_>, Vec<_>) =
                    table.drain(..).partition(|h| h.is_finished());
                for h in done {
                    let _ = h.join();
                }
                *table = live;
                table.push(handle);
            }
            Err(_) => shared.unregister_conn(id),
        }
    }
}

/// Closes the connection's sessions on drop — including during a panic
/// unwind — so a dying handler thread can never leak a session slot.
struct SessionCleanup<'a> {
    shared: &'a Shared,
    conn: u64,
    ids: Vec<u64>,
}

impl Drop for SessionCleanup<'_> {
    fn drop(&mut self) {
        for id in &self.ids {
            self.shared.sessions.close(*id, self.conn);
        }
        // Closing sessions may have dropped the last pin on a retiring
        // model version; let it go while the drain clock is still warm.
        self.shared.registry.poll_drains();
    }
}

/// What the first-byte wait produced.
enum FirstByte {
    /// A frame is starting.
    Byte(u8),
    /// Peer closed cleanly between frames.
    Closed,
    /// Idle longer than the TTL — reap the connection.
    Reap,
    /// Server is shutting down.
    Shutdown,
    /// Unrecoverable socket error.
    Dead,
}

/// Wait for the first byte of the next frame in short ticks so the idle
/// clock and the shutdown flag are checked even while the socket is
/// silent. The tick is never longer than the idle TTL or the frame
/// I/O budget.
fn await_first_byte(
    shared: &Shared,
    stream: &mut TcpStream,
    idle_since: &Instant,
) -> FirstByte {
    let idle_ttl = shared.cfg.idle_ttl;
    let tick = Duration::from_millis(25)
        .min(idle_ttl)
        .min(shared.cfg.io_timeout)
        .max(Duration::from_millis(1));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return FirstByte::Dead;
    }
    let mut b = [0u8; 1];
    loop {
        if shared.shutting_down() {
            return FirstByte::Shutdown;
        }
        match stream.read(&mut b) {
            Ok(0) => return FirstByte::Closed,
            Ok(_) => return FirstByte::Byte(b[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if idle_since.elapsed() >= idle_ttl {
                    return FirstByte::Reap;
                }
                // Idle tick: cheap opportunity to retire drained models.
                shared.registry.poll_drains();
            }
            Err(_) => return FirstByte::Dead,
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream, conn: u64) {
    let mut cleanup = SessionCleanup {
        shared,
        conn,
        ids: Vec::new(),
    };
    // Slow-client write budget: every response write must finish inside
    // the frame I/O window or the connection is dropped.
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    let mut idle_since = Instant::now();
    loop {
        let first = match await_first_byte(shared, &mut stream, &idle_since) {
            FirstByte::Byte(b) => b,
            FirstByte::Closed | FirstByte::Shutdown | FirstByte::Dead => break,
            FirstByte::Reap => {
                TM_REAPED.incr();
                // Best-effort notice; the peer is probably gone anyway.
                write_error(
                    &mut stream,
                    0,
                    Status::Error,
                    ErrorCode::Internal,
                    "connection idle past FV_SERVE_IDLE_TTL; reaped",
                );
                break;
            }
        };
        // A frame has started: the remainder runs under the per-frame
        // transfer budget, not the idle tick.
        if stream
            .set_read_timeout(Some(shared.cfg.io_timeout))
            .is_err()
        {
            break;
        }
        let frame = match read_frame_rest_chaos(&mut stream, first) {
            Ok(f) => f,
            Err(FrameError::Eof) => break,
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Stalled mid-frame: the peer started a frame and went
                // silent. Holding the reader open would let one slow
                // client pin a thread indefinitely.
                TM_STALLED.incr();
                write_error(
                    &mut stream,
                    0,
                    Status::Error,
                    ErrorCode::BadFrame,
                    "frame stalled past FV_SERVE_IO_TIMEOUT",
                );
                break;
            }
            Err(e) => {
                TM_PROTO_ERR.incr();
                // Best-effort typed response; the stream itself can no
                // longer be trusted, so the connection closes either way.
                write_error(&mut stream, 0, Status::Error, ErrorCode::BadFrame, e.to_string());
                break;
            }
        };
        let _span = TM_REQ.span();
        let keep_going = dispatch(shared, &mut stream, &frame, conn, &mut cleanup.ids);
        if !keep_going {
            break;
        }
        idle_since = Instant::now();
    }
}

/// Rest-of-frame read with the `serve.conn.read` and `serve.decode`
/// chaos sites in front: injected panics and I/O errors model a
/// hostile/failing transport.
fn read_frame_rest_chaos(stream: &mut TcpStream, first: u8) -> Result<Frame, FrameError> {
    if let Some(e) = chaos::io_error("serve.conn.read") {
        return Err(FrameError::Io(e));
    }
    chaos::point("serve.conn.read");
    if let Some(e) = chaos::io_error("serve.decode") {
        return Err(FrameError::Io(e));
    }
    chaos::point("serve.decode");
    proto::read_frame_rest(stream, first)
}

/// Response write with the `serve.conn.write` chaos site in front.
/// Returns `false` (close the connection) on injected faults, real
/// socket errors, and exhausted write budgets alike.
fn write_response(stream: &mut TcpStream, op: u8, status: u8, payload: &[u8]) -> bool {
    if chaos::io_error("serve.conn.write").is_some() {
        return false;
    }
    chaos::point("serve.conn.write");
    match proto::write_frame(stream, op, status, payload) {
        Ok(()) => true,
        Err(e) => {
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
            {
                TM_WRITE_TIMEOUT.incr();
            }
            false
        }
    }
}

fn write_error(
    stream: &mut TcpStream,
    op: u8,
    status: Status,
    code: ErrorCode,
    message: impl Into<String>,
) -> bool {
    let body = ErrorBody::new(code, message);
    write_response(stream, op, status as u8, &body.encode())
}

/// Handle one decoded frame. Returns `false` when the connection should
/// close.
fn dispatch(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    frame: &Frame,
    conn: u64,
    my_sessions: &mut Vec<u64>,
) -> bool {
    let op = match Op::from_u8(frame.op) {
        Some(op) => op,
        None => {
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::UnknownOp,
                format!("unknown op {}", frame.op),
            )
        }
    };
    if shared.shutting_down() && op != Op::Ping {
        return write_error(
            stream,
            frame.op,
            Status::ShuttingDown,
            ErrorCode::Internal,
            "server is shutting down",
        );
    }
    match op {
        Op::Ping => write_response(stream, op as u8, Status::Ok as u8, &frame.payload),
        Op::OpenSession => handle_open(shared, stream, frame, conn, my_sessions),
        Op::CloseSession => {
            let id = match proto::decode_session_id(&frame.payload) {
                Ok(id) => id,
                Err(e) => {
                    return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0)
                }
            };
            // Graceful close of the tenant's last session drops its
            // cached replies now instead of letting them ride out the
            // TTL — inside the session manager's tenant critical
            // section, so a racing OpenSession for the same name cannot
            // store a reply between the idle check and the prune and
            // lose it. Torn-connection cleanup deliberately does NOT
            // prune — that is when a healing client needs replay.
            let closed = shared
                .sessions
                .close_and_then(id, conn, |t| shared.replies.prune_tenant(t));
            if closed.is_some() {
                my_sessions.retain(|&s| s != id);
                // This may have been the last session pinning a
                // retiring model version.
                shared.registry.poll_drains();
                write_response(stream, op as u8, Status::Ok as u8, &[])
            } else {
                write_error(
                    stream,
                    frame.op,
                    Status::Error,
                    ErrorCode::UnknownSession,
                    format!("no session {id}"),
                )
            }
        }
        Op::PutCloud => handle_put_cloud(shared, stream, frame, conn),
        Op::Reconstruct => handle_reconstruct(shared, stream, frame, conn),
        Op::ReconstructBricked => handle_reconstruct_bricked(shared, stream, frame, conn),
        Op::SwapModel => handle_swap(shared, stream, frame),
        Op::Stats => {
            let tel = telemetry::snapshot().to_json();
            let sw = shared.registry.swap_stats();
            let json = format!(
                "{{\"sessions\": {}, \"registry\": {{\"models\": {}, \"bytes\": {}, \"budget\": {}}}, \
                 \"swap\": {{\"promoted\": {}, \"rejected\": {}, \"retired\": {}, \"draining\": {}, \
                 \"last_drain_ms\": {:.3}, \"max_drain_ms\": {:.3}, \"canary_runs\": {}, \"canary_ms_total\": {:.3}}}, \
                 \"retry_cache\": {{\"entries\": {}, \"bytes\": {}, \"hits\": {}, \"stores\": {}}}, \
                 \"stream\": {}, \"tenants\": {}, \"telemetry\": {}}}",
                shared.sessions.len(),
                shared.registry.len(),
                shared.registry.bytes(),
                shared.registry.budget(),
                sw.promoted,
                sw.rejected,
                sw.retired,
                sw.draining,
                sw.last_drain_ms,
                sw.max_drain_ms,
                sw.canary_runs,
                sw.canary_ms_total,
                shared.replies.len(),
                shared.replies.bytes(),
                shared.replies.hits(),
                shared.replies.stores(),
                shared.bricks.stats_json(),
                shared.sessions.tenants_json(),
                tel,
            );
            write_response(stream, op as u8, Status::Ok as u8, json.as_bytes())
        }
        Op::Shutdown => {
            // Gated: on a shared multi-tenant server an unauthenticated
            // Shutdown would let any client halt service for everyone.
            // The embedding process always has `Server::shutdown`.
            if !shared.cfg.allow_remote_shutdown {
                return write_error(
                    stream,
                    frame.op,
                    Status::Error,
                    ErrorCode::Forbidden,
                    "remote shutdown is disabled (set FV_SERVE_ALLOW_SHUTDOWN=1 to enable)",
                );
            }
            // Flag first, reply second: when the client sees the Ok, every
            // other thread already observes the shutdown. The owner's
            // `shutdown()`/drop joins the threads.
            shared.shutdown.store(true, Ordering::Release);
            write_response(stream, op as u8, Status::Ok as u8, &[]);
            false
        }
    }
}

/// `SwapModel`: deserialize the candidate, canary-validate, and promote
/// it as the dataset's new active version. Every failure is a typed
/// response with the previous version untouched.
fn handle_swap(shared: &Arc<Shared>, stream: &mut TcpStream, frame: &Frame) -> bool {
    // Gated like `Shutdown`: on a shared multi-tenant server an
    // unauthenticated client could otherwise replace the model everyone
    // else is serving from.
    if !shared.cfg.allow_remote_swap {
        return write_error(
            stream,
            frame.op,
            Status::Error,
            ErrorCode::Forbidden,
            "remote model swap is disabled (set FV_SERVE_ALLOW_SWAP=1 to enable)",
        );
    }
    let req = match SwapModelReq::decode(&frame.payload) {
        Ok(r) => r,
        Err(e) => return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0),
    };
    let pipeline = match FcnnPipeline::read_from(req.pipeline.as_slice()) {
        Ok(p) => p,
        Err(e) => {
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::BadRequest,
                format!("candidate pipeline rejected: {e}"),
            )
        }
    };
    match shared
        .registry
        .promote(&req.dataset, req.version, pipeline, shared.cfg.canary)
    {
        Ok(_) => write_response(stream, frame.op, Status::Ok as u8, &[]),
        Err(e) => write_error(stream, frame.op, Status::Error, e.code(), e.to_string()),
    }
}

fn handle_open(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    frame: &Frame,
    conn: u64,
    my_sessions: &mut Vec<u64>,
) -> bool {
    let req = match OpenSessionReq::decode(&frame.payload) {
        Ok(r) => r,
        Err(e) => return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0),
    };
    if req.tenant.is_empty() {
        return write_error(
            stream,
            frame.op,
            Status::Error,
            ErrorCode::BadRequest,
            "empty tenant name",
        );
    }
    // `VERSION_ACTIVE` resolves to the dataset's promoted version *at
    // open time*; the session then stays pinned to that concrete version
    // through any later swap, until it closes.
    let version = if req.version == VERSION_ACTIVE {
        match shared.registry.active_version(&req.dataset) {
            Some(v) => v,
            None => {
                return write_error(
                    stream,
                    frame.op,
                    Status::Error,
                    ErrorCode::UnknownModel,
                    format!("no active version for dataset {}", req.dataset),
                )
            }
        }
    } else {
        req.version
    };
    let entry = match shared.registry.get(&req.dataset, version) {
        Ok(e) => e,
        Err(e) => {
            return write_error(stream, frame.op, Status::Error, e.code(), e.to_string());
        }
    };
    let id = shared.sessions.open(&req.tenant, entry, conn);
    my_sessions.push(id);
    let resp = OpenSessionResp {
        session: id,
        version,
    };
    write_response(stream, frame.op, Status::Ok as u8, &resp.encode())
}

fn handle_put_cloud(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    frame: &Frame,
    conn: u64,
) -> bool {
    let req = match PutCloudReq::decode(&frame.payload) {
        Ok(r) => r,
        Err(e) => return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0),
    };
    let session = match shared.sessions.get(req.session, conn) {
        Some(s) => s,
        None => {
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::UnknownSession,
                format!("no session {}", req.session),
            )
        }
    };
    let cloud = match build_cloud(&req) {
        Ok(c) => c,
        Err(msg) => {
            return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, msg)
        }
    };
    session.lock().expect("session lock").cloud = Some(shared.intern_cloud(cloud));
    write_response(stream, frame.op, Status::Ok as u8, &[])
}

/// Content fingerprint (FNV-1a over grid geometry, indices, and value
/// bits) for the intern table. Collisions are fine — interning always
/// confirms with a full comparison.
fn cloud_fingerprint(cloud: &PointCloud) -> u64 {
    let mut h = Fnv1a::new();
    let grid = cloud.grid();
    for d in grid.dims() {
        h.update(&(d as u64).to_le_bytes());
    }
    for x in grid.origin().into_iter().chain(grid.spacing()) {
        h.update(&x.to_bits().to_le_bytes());
    }
    for &i in cloud.indices() {
        h.update(&(i as u64).to_le_bytes());
    }
    for &v in cloud.values() {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Rebuild a [`PointCloud`] from wire data by scattering the values into
/// a scratch field at the sampled indices (`PointCloud::from_indices`
/// reads values back out of the field, so duplicates and ordering are
/// handled by its own normalization). The grid is size-bounded *before*
/// the scratch field allocates: wire dims are attacker-controlled.
fn build_cloud(req: &PutCloudReq) -> Result<PointCloud, String> {
    let grid = req.grid.to_grid_bounded().map_err(|e| e.0)?;
    if req.indices.is_empty() {
        return Err("empty sample cloud".into());
    }
    if req.indices.len() != req.values.len() {
        return Err(format!(
            "{} indices but {} values",
            req.indices.len(),
            req.values.len()
        ));
    }
    let n = grid.num_points() as u64;
    let mut scratch = ScalarField::zeros(grid);
    let mut indices = Vec::with_capacity(req.indices.len());
    for (&idx, &v) in req.indices.iter().zip(&req.values) {
        if idx >= n {
            return Err(format!("index {idx} out of range for {n}-point grid"));
        }
        scratch.values_mut()[idx as usize] = v;
        indices.push(idx as usize);
    }
    Ok(PointCloud::from_indices(&scratch, indices))
}

fn handle_reconstruct(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    frame: &Frame,
    conn: u64,
) -> bool {
    let req = match ReconstructReq::decode(&frame.payload) {
        Ok(r) => r,
        Err(e) => return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0),
    };
    let session = match shared.sessions.get(req.session, conn) {
        Some(s) => s,
        None => {
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::UnknownSession,
                format!("no session {}", req.session),
            )
        }
    };
    // Idempotent replay: a retried request id whose original reply is
    // still cached gets the stored bytes back — no recompute, no second
    // pass through admission, no double-counted tenant stats. Keyed by
    // tenant (not session or connection) so the replay works across the
    // reconnect that motivated the retry.
    if req.request_id != 0 {
        let tenant_name = session.lock().expect("session lock").tenant.name.clone();
        if let Some((status, payload)) = shared.replies.get(&tenant_name, req.request_id) {
            return write_response(stream, frame.op, status, &payload);
        }
    }
    // Bounded decode: a huge or u64-wrapping target must be rejected
    // here, before any num_points-sized buffer exists anywhere (batcher
    // prep, IDW fallback, response encode).
    let target = match req.target.to_grid_bounded() {
        Ok(g) => g,
        Err(e) => return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0),
    };
    if target.num_points() as u64 > shared.cfg.max_dense_points {
        return write_error(
            stream,
            frame.op,
            Status::Error,
            ErrorCode::BadRequest,
            format!(
                "target has {} points, over the dense-response cap of {}; \
                 use ReconstructBricked to stream it",
                target.num_points(),
                shared.cfg.max_dense_points
            ),
        );
    }
    let (entry, cloud, tenant) = {
        let s = session.lock().expect("session lock");
        match &s.cloud {
            Some(c) => (s.model.clone(), c.clone(), s.tenant.clone()),
            None => {
                return write_error(
                    stream,
                    frame.op,
                    Status::Error,
                    ErrorCode::BadRequest,
                    "no sample cloud uploaded for this session",
                )
            }
        }
    };
    // Admission: the tenant's in-flight cap first, then queue space.
    let guard = match shared.sessions.try_admit(&tenant) {
        Some(g) => g,
        None => {
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::TooManyInFlight,
                format!("tenant {} is at its in-flight cap", tenant.name),
            );
        }
    };
    let mut ctx = ExecCtx::unbounded();
    if req.deadline_ms > 0 {
        ctx = ctx.with_deadline(Deadline::after(Duration::from_millis(req.deadline_ms as u64)));
    }
    let rows = if cloud.grid() == &target {
        target.num_points() - cloud.len()
    } else {
        target.num_points()
    };
    let (resp_tx, resp_rx) = sync_channel(1);
    let job = Box::new(ReconJob {
        entry,
        cloud,
        target,
        ctx,
        tenant: tenant.clone(),
        guard,
        rows,
        resp: resp_tx,
    });
    TM_REQUESTS.incr();
    tenant.requests.fetch_add(1, Ordering::Relaxed);
    match shared.batcher.try_submit(job) {
        Ok(()) => {}
        Err((job, disconnected)) => {
            drop(job); // releases the in-flight guard
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            return if disconnected {
                write_error(
                    stream,
                    frame.op,
                    Status::ShuttingDown,
                    ErrorCode::Internal,
                    "server is shutting down",
                )
            } else {
                TM_REJECT_BUSY.incr();
                write_error(
                    stream,
                    frame.op,
                    Status::Error,
                    ErrorCode::Busy,
                    "micro-batch queue is full; retry with backoff",
                )
            };
        }
    }
    // The batcher always answers: flush, fallback, or shutdown drain. A
    // dropped sender without a message means the batcher thread died.
    let outcome = resp_rx
        .recv()
        .unwrap_or(ReconOutcome::Rejected(ErrorCode::Internal, "batcher gone".into()));
    match outcome {
        ReconOutcome::Ok(values) => {
            tenant.rows.fetch_add(values.len() as u64, Ordering::Relaxed);
            let body = ReconstructResp {
                values,
                reason: String::new(),
            };
            reply_cached(shared, stream, frame.op, Status::Ok as u8, &tenant.name, &req, body)
        }
        ReconOutcome::Degraded(values, reason) => {
            tenant.rows.fetch_add(values.len() as u64, Ordering::Relaxed);
            tenant.degraded.fetch_add(1, Ordering::Relaxed);
            let body = ReconstructResp { values, reason };
            reply_cached(
                shared,
                stream,
                frame.op,
                Status::Degraded as u8,
                &tenant.name,
                &req,
                body,
            )
        }
        ReconOutcome::Rejected(code, message) => {
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            tenant.errors.fetch_add(1, Ordering::Relaxed);
            write_error(stream, frame.op, Status::Error, code, message)
        }
        ReconOutcome::Shutdown => {
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            write_error(
                stream,
                frame.op,
                Status::ShuttingDown,
                ErrorCode::Internal,
                "server shut down before the request ran",
            )
        }
    }
}

/// Write a successful reconstruction reply, storing the encoded bytes in
/// the idempotent-reply cache first (for nonzero request ids) so the
/// *store* happens even when the write that follows is cut off mid-frame
/// — that cut is exactly the moment a retry will need the cached copy.
/// Error outcomes are never cached: a retry should re-attempt those.
fn reply_cached(
    shared: &Shared,
    stream: &mut TcpStream,
    op: u8,
    status: u8,
    tenant: &str,
    req: &ReconstructReq,
    body: ReconstructResp,
) -> bool {
    let payload = Arc::new(body.encode());
    if req.request_id != 0 {
        shared
            .replies
            .put(tenant, req.request_id, status, payload.clone());
    }
    write_response(stream, op, status, &payload)
}

/// Brick-frame write with its own chaos site (`serve.brick.write`) in
/// front of the shared `serve.conn.write` one: a mid-stream write fault
/// tears exactly the stream under test.
fn write_brick(stream: &mut TcpStream, op: u8, payload: &[u8]) -> bool {
    if chaos::io_error("serve.brick.write").is_some() {
        return false;
    }
    chaos::point("serve.brick.write");
    write_response(stream, op, Status::Ok as u8, payload)
}

/// `ReconstructBricked`: validate, admit, hand the stream to the brick
/// scheduler, and relay its messages to the socket — brick frames in
/// ascending index order, then one summary (or typed error) frame.
///
/// The connection thread owns the transport half of the back-pressure
/// loop: after every brick write (delivered or not) it drains the
/// stream's in-flight byte window and wakes the scheduler. On exit it
/// sets the stream's client-gone flag (and drops the receiver): the
/// scheduler abandons the stream at its next turn, releasing the
/// tenant's queue slot and in-flight guard — even when bytes stranded
/// in the channel would otherwise keep the stream budget-blocked and
/// it would never reach a send that could observe the disconnect.
fn handle_reconstruct_bricked(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    frame: &Frame,
    conn: u64,
) -> bool {
    let req = match ReconstructBrickedReq::decode(&frame.payload) {
        Ok(r) => r,
        Err(e) => return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0),
    };
    let session = match shared.sessions.get(req.session, conn) {
        Some(s) => s,
        None => {
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::UnknownSession,
                format!("no session {}", req.session),
            )
        }
    };
    // Streamed bound: the target may exceed the dense frame cap (that is
    // the op's whole point) but stays overflow-checked.
    let target = match req.target.to_grid_streamed() {
        Ok(g) => g,
        Err(e) => return write_error(stream, frame.op, Status::Error, ErrorCode::BadRequest, e.0),
    };
    // Each brick travels as one frame, so a brick's dense payload must
    // respect the per-frame cap the dense path lives under.
    let brick_points = req
        .brick_dims
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .filter(|&n| n > 0 && n <= MAX_GRID_POINTS);
    if brick_points.is_none() {
        return write_error(
            stream,
            frame.op,
            Status::Error,
            ErrorCode::BadRequest,
            format!(
                "brick dims {:?} must be nonzero and at most {MAX_GRID_POINTS} voxels per brick",
                req.brick_dims
            ),
        );
    }
    let brick_dims = [
        req.brick_dims[0] as usize,
        req.brick_dims[1] as usize,
        req.brick_dims[2] as usize,
    ];
    // Cheap (counts only): bounds start_brick before admission.
    let layout = match BrickLayout::new(target, brick_dims) {
        Ok(l) => l,
        Err(e) => {
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::BadRequest,
                e.to_string(),
            )
        }
    };
    if req.start_brick > layout.num_bricks() as u64 {
        return write_error(
            stream,
            frame.op,
            Status::Error,
            ErrorCode::BadRequest,
            format!(
                "start_brick {} past the {}-brick layout",
                req.start_brick,
                layout.num_bricks()
            ),
        );
    }
    let (entry, cloud, tenant) = {
        let s = session.lock().expect("session lock");
        match &s.cloud {
            Some(c) => (s.model.clone(), c.clone(), s.tenant.clone()),
            None => {
                return write_error(
                    stream,
                    frame.op,
                    Status::Error,
                    ErrorCode::BadRequest,
                    "no sample cloud uploaded for this session",
                )
            }
        }
    };
    let guard = match shared.sessions.try_admit(&tenant) {
        Some(g) => g,
        None => {
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            return write_error(
                stream,
                frame.op,
                Status::Error,
                ErrorCode::TooManyInFlight,
                format!("tenant {} is at its in-flight cap", tenant.name),
            );
        }
    };
    let mut ctx = ExecCtx::unbounded();
    if req.deadline_ms > 0 {
        ctx = ctx.with_deadline(Deadline::after(Duration::from_millis(req.deadline_ms as u64)));
    }
    let inflight_bytes = Arc::new(AtomicUsize::new(0));
    let client_gone = Arc::new(AtomicBool::new(false));
    let (resp_tx, resp_rx) = sync_channel(8);
    let job = StreamJob {
        entry,
        cloud,
        target,
        brick_dims,
        start_brick: req.start_brick,
        ctx,
        tenant: tenant.clone(),
        guard: Some(guard),
        resp: resp_tx,
        inflight_bytes: inflight_bytes.clone(),
        client_gone: client_gone.clone(),
    };
    TM_REQUESTS.incr();
    tenant.requests.fetch_add(1, Ordering::Relaxed);
    match shared.bricks.submit(job) {
        Ok(()) => {}
        Err((job, shutting_down)) => {
            drop(job); // releases the in-flight guard
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            return if shutting_down {
                write_error(
                    stream,
                    frame.op,
                    Status::ShuttingDown,
                    ErrorCode::Internal,
                    "server is shutting down",
                )
            } else {
                TM_REJECT_BUSY.incr();
                write_error(
                    stream,
                    frame.op,
                    Status::Error,
                    ErrorCode::Busy,
                    format!(
                        "tenant {} already has FV_SERVE_BRICK_QUEUE streams queued; retry with backoff",
                        tenant.name
                    ),
                )
            };
        }
    }
    // Every exit from here on — summary written, typed failure, torn
    // socket mid-stream — must mark the client gone and wake the worker.
    // Dropping `resp_rx` alone is not enough: bricks already queued in
    // the channel keep their bytes charged to the in-flight window, and
    // once those orphaned bytes reach the budget the scheduler would
    // block *before* the `try_send` that could observe the disconnect,
    // requeuing the stream forever.
    struct Abandon<'a> {
        gone: &'a AtomicBool,
        bricks: &'a BrickScheduler,
    }
    impl Drop for Abandon<'_> {
        fn drop(&mut self) {
            self.gone.store(true, Ordering::Release);
            self.bricks.notify();
        }
    }
    let _abandon = Abandon {
        gone: &client_gone,
        bricks: &shared.bricks,
    };
    loop {
        match resp_rx.recv() {
            Ok(StreamMsg::Brick {
                index,
                start,
                dims,
                values,
            }) => {
                let nbytes = values.len() * 4;
                tenant.rows.fetch_add(values.len() as u64, Ordering::Relaxed);
                let body = BrickMsg::Brick(BrickFrame {
                    request_id: req.request_id,
                    index,
                    start,
                    dims,
                    values,
                });
                let ok = write_brick(stream, frame.op, &body.encode());
                // Settle the back-pressure window whether or not the
                // write landed — the bytes left server memory either way.
                inflight_bytes.fetch_sub(nbytes, Ordering::AcqRel);
                shared.bricks.notify();
                if !ok {
                    // Dropping the receiver tells the scheduler the
                    // client is gone at its next send.
                    return false;
                }
            }
            Ok(StreamMsg::Done {
                total,
                sent,
                skipped,
                max_halo,
            }) => {
                let body = BrickMsg::Summary(BrickSummary {
                    request_id: req.request_id,
                    total_bricks: total,
                    sent,
                    skipped,
                    max_halo,
                });
                return write_response(stream, frame.op, Status::Ok as u8, &body.encode());
            }
            Ok(StreamMsg::Fail {
                status,
                code,
                message,
            }) => {
                tenant.rejected.fetch_add(1, Ordering::Relaxed);
                return write_error(stream, frame.op, status, code, message);
            }
            Err(_) => {
                // Scheduler gone (shutdown drained it) without a
                // terminal message for us.
                return write_error(
                    stream,
                    frame.op,
                    Status::ShuttingDown,
                    ErrorCode::Internal,
                    "server shut down mid-stream",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Env mutation is process-global; every test touching `FV_SERVE_*`
    /// vars serializes here.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Regression: `FV_SERVE_IDLE_TTL` is documented against a
    /// `from_secs(300)` default, but the parse used `from_millis`, so
    /// `FV_SERVE_IDLE_TTL=300` reaped connections after 300 ms. The knob
    /// is seconds; `FV_SERVE_IDLE_TTL_MS` is the millisecond override.
    #[test]
    fn idle_ttl_env_is_seconds_with_ms_override() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("FV_SERVE_IDLE_TTL", "300");
        let cfg = ServeConfig::from_env();
        assert_eq!(
            cfg.idle_ttl,
            Duration::from_secs(300),
            "FV_SERVE_IDLE_TTL must parse as seconds, matching its documented default"
        );

        std::env::set_var("FV_SERVE_IDLE_TTL_MS", "250");
        let cfg = ServeConfig::from_env();
        assert_eq!(
            cfg.idle_ttl,
            Duration::from_millis(250),
            "FV_SERVE_IDLE_TTL_MS wins when both are set"
        );

        std::env::remove_var("FV_SERVE_IDLE_TTL");
        std::env::remove_var("FV_SERVE_IDLE_TTL_MS");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.idle_ttl, Duration::from_secs(300), "default unchanged");
    }

    /// The seconds fix is a breaking config change for deployments that
    /// set the knob under the old millisecond parsing, so the startup
    /// notice must name the unit, point at the `_MS` override, and flag
    /// day-plus values as likely leftover milliseconds.
    #[test]
    fn idle_ttl_notice_names_unit_change_and_suspect_values() {
        let plain = idle_ttl_notice(300);
        assert!(plain.contains("seconds"), "must state the unit: {plain}");
        assert!(
            plain.contains("FV_SERVE_IDLE_TTL_MS"),
            "must point at the millisecond override: {plain}"
        );
        assert!(
            !plain.contains("leftover"),
            "a plausible value earns no suspicion: {plain}"
        );
        // 300_000 was "5 minutes" under the old parsing; as seconds it
        // is ~83 hours — exactly the silent-breakage case to flag.
        let suspect = idle_ttl_notice(300_000);
        assert!(
            suspect.contains("leftover millisecond value"),
            "implausibly large values must be called out: {suspect}"
        );
    }

    #[test]
    fn stream_knobs_parse_from_env() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("FV_SERVE_BRICK_QUEUE", "5");
        std::env::set_var("FV_SERVE_BRICK_INFLIGHT_MB", "2");
        std::env::set_var("FV_SERVE_BRICK_HALO", "3");
        std::env::set_var("FV_SERVE_MAX_POINTS", "4096");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.stream.queue_per_tenant, 5);
        assert_eq!(cfg.stream.inflight_budget, 2 << 20);
        assert_eq!(cfg.stream.halo, 3);
        assert_eq!(cfg.max_dense_points, 4096);
        std::env::remove_var("FV_SERVE_BRICK_QUEUE");
        std::env::remove_var("FV_SERVE_BRICK_INFLIGHT_MB");
        std::env::remove_var("FV_SERVE_BRICK_HALO");
        std::env::remove_var("FV_SERVE_MAX_POINTS");
    }
}
