//! The FVS1 wire protocol: CRC'd length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! | offset | size | field                                  |
//! |--------|------|----------------------------------------|
//! | 0      | 4    | magic `"FVS1"`                         |
//! | 4      | 2    | protocol version (u16 LE, currently 2) |
//! | 6      | 1    | op code ([`Op`])                       |
//! | 7      | 1    | status ([`Status`]; 0 in requests)     |
//! | 8      | 4    | payload length (u32 LE)                |
//! | 12     | n    | payload                                |
//! | 12+n   | 4    | CRC-32 of the payload (u32 LE)         |
//!
//! The same framing discipline as the FVF2/FVCK on-disk formats: a fixed
//! magic so a misdirected byte stream is rejected on the first read, an
//! explicit declared length so a reader never trusts the peer for its
//! allocation size (lengths above [`MAX_PAYLOAD`] are rejected *before*
//! any buffer is reserved), and a trailing CRC so a flipped bit anywhere
//! in the payload surfaces as a typed [`FrameError::BadCrc`] instead of a
//! garbage reconstruction. Responses echo the request's op code; the
//! status byte distinguishes full-fidelity results from breaker-demoted
//! [`Status::Degraded`] ones and from typed errors.

use fv_runtime::checksum::crc32;
use std::io::{Read, Write};

/// Frame magic: "FVS1" (FillVoid Serve, wire format 1).
pub const MAGIC: [u8; 4] = *b"FVS1";
/// Protocol version carried in every frame. Version 2 added the model
/// lifecycle surface: `SwapModel`, idempotent `request_id`s on
/// `Reconstruct`, and the versioned `OpenSession` response. Bodies
/// changed shape, so version-1 frames are rejected outright rather than
/// half-understood.
pub const VERSION: u16 = 2;
/// `OpenSessionReq::version` sentinel meaning "whatever version is
/// currently promoted for this dataset". The server resolves it at open
/// time and echoes the concrete version back in [`OpenSessionResp`];
/// the session stays pinned to that version even if a newer one is
/// promoted later.
pub const VERSION_ACTIVE: u32 = u32::MAX;
/// Upper bound on a declared payload length (64 MiB). A frame announcing
/// more is rejected before any allocation happens.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Largest grid a request may name. A dense reconstruction response
/// carries 4 bytes per point plus codec overhead (row count, demotion
/// reason), and the whole payload must fit under [`MAX_PAYLOAD`] — so the
/// bound is enforced at decode time, *before* any point-count-sized
/// allocation, with checked arithmetic (a huge-dims request must neither
/// OOM the server nor produce a frame every compliant reader rejects as
/// oversized).
pub const MAX_GRID_POINTS: u64 = (MAX_PAYLOAD as u64 - 4096) / 4;
/// Largest grid a *streamed* (`ReconstructBricked`) request may name.
/// Streamed responses never materialize the dense volume, so the bound is
/// not the frame cap — it only has to keep the point count inside checked
/// `usize` arithmetic with comfortable headroom. 2⁴² points is a 16 TiB
/// dense volume: far beyond anything the paper's campaigns produce, and
/// small enough that every derived product (bytes, brick counts) stays
/// exact on 64-bit hosts.
pub const MAX_STREAM_POINTS: u64 = 1 << 42;
/// Fixed frame header size (everything before the payload).
pub const HEADER_LEN: usize = 12;

/// Operation codes. Responses echo the request's op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Liveness probe; empty payload both ways.
    Ping = 1,
    /// Open a tenant session bound to a `(dataset, model_version)` model.
    OpenSession = 2,
    /// Close a session, releasing its slot and sample cloud.
    CloseSession = 3,
    /// Upload the session's sample cloud (grid geometry + indices + values).
    PutCloud = 4,
    /// Reconstruct a dense field on a target grid from the session's cloud.
    Reconstruct = 5,
    /// Scrape the server: telemetry snapshot + per-tenant counters (JSON).
    Stats = 6,
    /// Ask the server to shut down gracefully.
    Shutdown = 7,
    /// Promote a new model version for a dataset: canary-validate it,
    /// route new sessions to it, drain and retire the old version.
    SwapModel = 8,
    /// Reconstruct a target grid as a stream of brick frames. One request
    /// frame; the server answers with any number of [`BrickMsg::Brick`]
    /// frames (ascending brick index) terminated by a single
    /// [`BrickMsg::Summary`] frame — or a [`Status::Error`] frame, which
    /// also terminates the stream.
    ReconstructBricked = 9,
}

impl Op {
    /// Decode an op byte; `None` for unknown codes.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Op::Ping,
            2 => Op::OpenSession,
            3 => Op::CloseSession,
            4 => Op::PutCloud,
            5 => Op::Reconstruct,
            6 => Op::Stats,
            7 => Op::Shutdown,
            8 => Op::SwapModel,
            9 => Op::ReconstructBricked,
            _ => return None,
        })
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Full-fidelity result.
    Ok = 0,
    /// The model path was demoted (circuit breaker open, model panic, or
    /// non-finite output); the payload holds the classical-interpolation
    /// fallback instead of an error.
    Degraded = 1,
    /// Typed error; payload is an [`ErrorBody`].
    Error = 2,
    /// The server is shutting down; the request was not executed.
    ShuttingDown = 3,
}

impl Status {
    /// Decode a status byte; `None` for unknown codes.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Status::Ok,
            1 => Status::Degraded,
            2 => Status::Error,
            3 => Status::ShuttingDown,
            _ => return None,
        })
    }
}

/// Typed error codes carried in [`ErrorBody`] payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame itself was malformed (bad magic/version/CRC/length); the
    /// connection is dropped after this response since the stream can no
    /// longer be trusted.
    BadFrame = 1,
    /// Unknown op byte.
    UnknownOp = 2,
    /// Known op, malformed or semantically invalid payload.
    BadRequest = 3,
    /// No session with that id.
    UnknownSession = 4,
    /// The registry has no model under that `(dataset, version)` key.
    UnknownModel = 5,
    /// The micro-batcher queue is full; retry with backoff.
    Busy = 6,
    /// The tenant is at its in-flight cap; retry after a response arrives.
    TooManyInFlight = 7,
    /// The request's deadline expired before its batch ran.
    DeadlineExceeded = 8,
    /// Internal server failure.
    Internal = 9,
    /// The op exists but this server refuses it (e.g. the remote
    /// `Shutdown` op on a multi-tenant deployment that has not enabled
    /// it).
    Forbidden = 10,
    /// A `SwapModel` promotion was refused: the candidate failed its
    /// canary reconstruction (non-finite output, fingerprint mismatch,
    /// or below the SNR floor), was not newer than the active version,
    /// or could not be admitted. The previously active version keeps
    /// serving unchanged.
    SwapRejected = 11,
}

impl ErrorCode {
    /// Decode an error code; `None` for unknown values.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnknownOp,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::UnknownSession,
            5 => ErrorCode::UnknownModel,
            6 => ErrorCode::Busy,
            7 => ErrorCode::TooManyInFlight,
            8 => ErrorCode::DeadlineExceeded,
            9 => ErrorCode::Internal,
            10 => ErrorCode::Forbidden,
            11 => ErrorCode::SwapRejected,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Raw op byte (validated by the dispatcher so unknown ops get a typed
    /// response instead of a dropped connection).
    pub op: u8,
    /// Raw status byte (0 in requests).
    pub status: u8,
    /// Payload bytes (CRC already verified).
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary (peer closed the
    /// connection; not an error).
    Eof,
    /// Stream ended mid-frame.
    Truncated,
    /// First four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload CRC mismatch.
    BadCrc { expect: u32, got: u32 },
    /// Underlying transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized(n) => {
                write!(f, "declared payload {n} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::BadCrc { expect, got } => {
                write!(f, "payload crc mismatch: stored {expect:#010x}, computed {got:#010x}")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Encode a frame into a byte vector (header + payload + CRC).
pub fn encode_frame(op: u8, status: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(op);
    buf.push(status);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf
}

/// Fill `buf` completely from `r`, retrying [`ErrorKind::Interrupted`]
/// and short reads explicitly. Semantically `read_exact`, but spelled
/// out so the EINTR/short-read contract is local, auditable, and
/// testable rather than inherited: a stray signal on a healthy socket
/// must never kill the connection. `Ok(0)` mid-fill is a truncation
/// (`UnexpectedEof`); a read timeout (`WouldBlock`/`TimedOut`) is
/// surfaced to the caller — the watchdog decides what a stall means.
///
/// [`ErrorKind::Interrupted`]: std::io::ErrorKind::Interrupted
pub fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write all of `buf` to `w`, retrying [`ErrorKind::Interrupted`] and
/// short writes explicitly (the write-side twin of [`read_full`]). A
/// zero-byte write on a non-empty buffer is reported as `WriteZero`; a
/// write timeout propagates so the server can classify the peer as a
/// slow client.
///
/// [`ErrorKind::Interrupted`]: std::io::ErrorKind::Interrupted
pub fn write_full<W: Write>(w: &mut W, buf: &[u8]) -> std::io::Result<()> {
    let mut written = 0usize;
    while written < buf.len() {
        match w.write(&buf[written..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer accepted zero bytes",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write one frame. A payload over [`MAX_PAYLOAD`] is a hard error:
/// emitting it would produce a frame every compliant reader (including
/// our own [`read_frame`]) rejects as `Oversized`, so it must never
/// reach the wire.
pub fn write_frame<W: Write>(
    w: &mut W,
    op: u8,
    status: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("payload {} exceeds frame cap {MAX_PAYLOAD}", payload.len()),
        ));
    }
    write_full(w, &encode_frame(op, status, payload))?;
    w.flush()
}

/// Read one frame, verifying magic, version, declared length and CRC.
///
/// A connection closed *between* frames reads as [`FrameError::Eof`]; one
/// closed *inside* a frame reads as [`FrameError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    // First byte separately: zero bytes here is a clean close, not a
    // truncation.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    read_frame_rest(r, first[0])
}

/// Read the remainder of a frame whose first byte has already been
/// consumed. Split out so the server's watchdog loop can wait for the
/// first byte under an idle-TTL tick and then read the rest of the
/// frame under the (stricter) per-frame I/O deadline.
pub fn read_frame_rest<R: Read>(r: &mut R, first: u8) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_full(r, &mut header[1..])?;

    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let op = header[6];
    let status = header[7];
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload)?;
    let mut crc_buf = [0u8; 4];
    read_full(r, &mut crc_buf)?;
    let expect = u32::from_le_bytes(crc_buf);
    let got = crc32(&payload);
    if expect != got {
        return Err(FrameError::BadCrc { expect, got });
    }
    Ok(Frame {
        op,
        status,
        payload,
    })
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Payload decode failure (maps to [`ErrorCode::BadRequest`] server-side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Cursor over a received payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("need {n} bytes at offset {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError("non-utf8 string".into()))
    }

    fn f32_vec(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.u32()? as usize;
        let b = self.take(n.checked_mul(4).ok_or_else(|| WireError("f32 count overflow".into()))?)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn bytes_vec(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u32()? as usize;
        let b = self.take(n.checked_mul(8).ok_or_else(|| WireError("u64 count overflow".into()))?)?;
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Append a u16-length-prefixed string, rejecting strings that do not fit
/// the prefix. The old `debug_assert!`-only guard silently wrapped
/// `s.len() as u16` in release builds, emitting a frame whose declared
/// string length disagreed with its bytes — trailing-garbage decode
/// failure at best, a truncated name aliasing another tenant at worst.
/// Identifier-carrying encoders (tenant, dataset) must use this and
/// surface the error; never truncate an identifier.
fn try_put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    if s.len() > u16::MAX as usize {
        return Err(WireError(format!(
            "string of {} bytes exceeds the u16 wire prefix ({} max)",
            s.len(),
            u16::MAX
        )));
    }
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Append a u16-length-prefixed string, truncating pathological inputs on
/// a char boundary. Only for *descriptive* text (demotion reasons, error
/// messages) where losing the tail is harmless; identifiers go through
/// [`try_put_str`]. The cut must land on a char boundary: these strings
/// can embed client-controlled text, and slicing mid-char would panic the
/// connection handler on a crafted multi-byte message.
fn put_str_trunc(buf: &mut Vec<u8>, s: &str) {
    let mut cut = s.len().min(u16::MAX as usize);
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    buf.extend_from_slice(&(cut as u16).to_le_bytes());
    buf.extend_from_slice(&s.as_bytes()[..cut]);
}

/// Wire form of a [`fv_field::Grid3`]: dims + physical origin + spacing
/// (all three are needed to rebuild the geometry exactly — transfer to a
/// refined or translated grid is Experiment 3's whole point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridWire {
    /// Grid dimensions.
    pub dims: [u64; 3],
    /// Physical origin.
    pub origin: [f64; 3],
    /// Physical spacing.
    pub spacing: [f64; 3],
}

impl GridWire {
    /// Capture a grid for the wire.
    pub fn from_grid(g: &fv_field::Grid3) -> Self {
        let d = g.dims();
        Self {
            dims: [d[0] as u64, d[1] as u64, d[2] as u64],
            origin: g.origin(),
            spacing: g.spacing(),
        }
    }

    /// Rebuild the grid (validates dims/spacing like any constructor).
    pub fn to_grid(&self) -> Result<fv_field::Grid3, WireError> {
        fv_field::Grid3::with_geometry(
            [
                self.dims[0] as usize,
                self.dims[1] as usize,
                self.dims[2] as usize,
            ],
            self.origin,
            self.spacing,
        )
        .map_err(|e| WireError(format!("bad grid: {e}")))
    }

    /// Rebuild the grid, rejecting any whose point count does not fit a
    /// served response ([`MAX_GRID_POINTS`]). The product is computed
    /// with `checked_mul` over the wire's `u64` dims *before* the `usize`
    /// casts, so a hostile request can neither wrap the count nor drive a
    /// point-count-sized allocation. Server-side decode paths must use
    /// this instead of [`Self::to_grid`].
    pub fn to_grid_bounded(&self) -> Result<fv_field::Grid3, WireError> {
        let points = self
            .dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d))
            .filter(|&n| n <= MAX_GRID_POINTS)
            .ok_or_else(|| {
                WireError(format!(
                    "grid {:?} exceeds the served-size cap of {MAX_GRID_POINTS} points",
                    self.dims
                ))
            })?;
        debug_assert!(points <= usize::MAX as u64);
        self.to_grid()
    }

    /// Rebuild the grid for a *streamed* reconstruction, whose dense size
    /// is allowed to exceed the per-frame cap (responses are per-brick).
    /// Still checked: the point product is computed with `checked_mul`
    /// over the wire's `u64` dims and bounded by [`MAX_STREAM_POINTS`],
    /// so a hostile request can neither wrap the count nor overflow any
    /// byte-size arithmetic derived from it. Nothing proportional to the
    /// point count is ever allocated on this path.
    pub fn to_grid_streamed(&self) -> Result<fv_field::Grid3, WireError> {
        self.dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d))
            .filter(|&n| n <= MAX_STREAM_POINTS)
            .ok_or_else(|| {
                WireError(format!(
                    "grid {:?} exceeds the streamed-size cap of {MAX_STREAM_POINTS} points",
                    self.dims
                ))
            })?;
        self.to_grid()
    }

    fn put(&self, buf: &mut Vec<u8>) {
        for d in self.dims {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        for o in self.origin {
            buf.extend_from_slice(&o.to_bits().to_le_bytes());
        }
        for s in self.spacing {
            buf.extend_from_slice(&s.to_bits().to_le_bytes());
        }
    }

    fn get(r: &mut Rd<'_>) -> Result<Self, WireError> {
        let mut g = GridWire {
            dims: [0; 3],
            origin: [0.0; 3],
            spacing: [0.0; 3],
        };
        for d in &mut g.dims {
            *d = r.u64()?;
        }
        for o in &mut g.origin {
            *o = r.f64()?;
        }
        for s in &mut g.spacing {
            *s = r.f64()?;
        }
        Ok(g)
    }
}

/// `OpenSession` request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenSessionReq {
    /// Tenant name (admission control and telemetry are per tenant).
    pub tenant: String,
    /// Dataset key of the model to bind.
    pub dataset: String,
    /// Model version (pretrained = 0, fine-tuned snapshots count up).
    pub version: u32,
}

impl OpenSessionReq {
    /// Encode to payload bytes. Fails (rather than corrupting the frame)
    /// when a tenant or dataset name exceeds the u16 wire prefix.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        try_put_str(&mut buf, &self.tenant)?;
        try_put_str(&mut buf, &self.dataset)?;
        buf.extend_from_slice(&self.version.to_le_bytes());
        Ok(buf)
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let v = Self {
            tenant: r.string()?,
            dataset: r.string()?,
            version: r.u32()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// `PutCloud` request body: the sample cloud as grid geometry + sorted
/// linear indices + values.
#[derive(Debug, Clone, PartialEq)]
pub struct PutCloudReq {
    /// Session to attach the cloud to.
    pub session: u64,
    /// Source grid the indices refer to.
    pub grid: GridWire,
    /// Linear indices of the sampled nodes.
    pub indices: Vec<u64>,
    /// Sampled values, aligned with `indices`.
    pub values: Vec<f32>,
}

impl PutCloudReq {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.session.to_le_bytes());
        self.grid.put(&mut buf);
        buf.extend_from_slice(&(self.indices.len() as u32).to_le_bytes());
        for i in &self.indices {
            buf.extend_from_slice(&i.to_le_bytes());
        }
        buf.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let v = Self {
            session: r.u64()?,
            grid: GridWire::get(&mut r)?,
            indices: r.u64_vec()?,
            values: r.f32_vec()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// `Reconstruct` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructReq {
    /// Session whose cloud and model to use.
    pub session: u64,
    /// Target grid to densify onto.
    pub target: GridWire,
    /// Per-request deadline in milliseconds (0 = unbounded).
    pub deadline_ms: u32,
    /// Idempotency key (0 = none). A nonzero id lets the server replay
    /// the original reply from its short-lived per-tenant cache when a
    /// client retries after a mid-reply disconnect, instead of
    /// recomputing the reconstruction or double-counting the request.
    pub request_id: u64,
}

impl ReconstructReq {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.session.to_le_bytes());
        self.target.put(&mut buf);
        buf.extend_from_slice(&self.deadline_ms.to_le_bytes());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let v = Self {
            session: r.u64()?,
            target: GridWire::get(&mut r)?,
            deadline_ms: r.u32()?,
            request_id: r.u64()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// `ReconstructBricked` request body: reconstruct `target` from the
/// session's cloud as a stream of per-brick frames.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructBrickedReq {
    /// Session whose cloud and model to use.
    pub session: u64,
    /// Target grid to densify onto. May exceed [`MAX_GRID_POINTS`] (the
    /// dense-response cap); bounded by [`MAX_STREAM_POINTS`] instead.
    pub target: GridWire,
    /// Voxels per brick along each axis. Every component must be nonzero
    /// and the brick's dense payload must fit one frame
    /// (`product · 4 B ≤ ` [`MAX_GRID_POINTS`]` · 4 B`).
    pub brick_dims: [u32; 3],
    /// Per-request deadline in milliseconds (0 = unbounded). Applies to
    /// the whole stream.
    pub deadline_ms: u32,
    /// Idempotency key for the stream (0 = none). Echoed in every brick
    /// and summary frame so a healed client can pair frames with the
    /// stream it is resuming.
    pub request_id: u64,
    /// First brick index to compute and send. A fresh stream asks for 0;
    /// a client resuming a torn stream asks for its first *uncommitted*
    /// brick, and the server recomputes nothing below it. Brick values
    /// are pure functions of `(model, cloud, target, index)`, so a resumed
    /// stream is bitwise-identical to an uninterrupted one.
    pub start_brick: u64,
}

impl ReconstructBrickedReq {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.session.to_le_bytes());
        self.target.put(&mut buf);
        for d in self.brick_dims {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf.extend_from_slice(&self.deadline_ms.to_le_bytes());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.start_brick.to_le_bytes());
        buf
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let session = r.u64()?;
        let target = GridWire::get(&mut r)?;
        let mut brick_dims = [0u32; 3];
        for d in &mut brick_dims {
            *d = r.u32()?;
        }
        let v = Self {
            session,
            target,
            brick_dims,
            deadline_ms: r.u32()?,
            request_id: r.u64()?,
            start_brick: r.u64()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// One frame of a `ReconstructBricked` response stream.
///
/// Brick frames arrive in ascending brick-index order starting at the
/// request's `start_brick`; a single summary frame terminates the stream.
/// Every frame is independently CRC'd by the frame layer, so a flipped
/// bit in any brick surfaces as a typed [`FrameError::BadCrc`] on exactly
/// that frame.
#[derive(Debug, Clone, PartialEq)]
pub enum BrickMsg {
    /// One reconstructed brick.
    Brick(BrickFrame),
    /// End of stream: what the server computed and skipped.
    Summary(BrickSummary),
}

/// A reconstructed brick: its index, extent in the target grid, and dense
/// payload in the brick's x-fastest local order.
#[derive(Debug, Clone, PartialEq)]
pub struct BrickFrame {
    /// Echo of the request's idempotency key.
    pub request_id: u64,
    /// Brick index in the layout's x-fastest brick order.
    pub index: u64,
    /// Inclusive low voxel corner of the brick in the target grid.
    pub start: [u64; 3],
    /// Brick extent in voxels along each axis.
    pub dims: [u64; 3],
    /// Dense values, x-fastest within the brick; length is the dims
    /// product.
    pub values: Vec<f32>,
}

/// Terminal frame of a brick stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickSummary {
    /// Echo of the request's idempotency key.
    pub request_id: u64,
    /// Bricks in the full decomposition.
    pub total_bricks: u64,
    /// Bricks computed and sent by *this* stream.
    pub sent: u64,
    /// Bricks below `start_brick`, skipped on resume (never recomputed).
    pub skipped: u64,
    /// Largest halo any brick needed before its kNN certificate held.
    pub max_halo: u64,
}

const BRICK_KIND_BRICK: u8 = 0;
const BRICK_KIND_SUMMARY: u8 = 1;

impl BrickMsg {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            BrickMsg::Brick(b) => {
                let mut buf = Vec::with_capacity(69 + b.values.len() * 4);
                buf.push(BRICK_KIND_BRICK);
                buf.extend_from_slice(&b.request_id.to_le_bytes());
                buf.extend_from_slice(&b.index.to_le_bytes());
                for d in b.start {
                    buf.extend_from_slice(&d.to_le_bytes());
                }
                for d in b.dims {
                    buf.extend_from_slice(&d.to_le_bytes());
                }
                buf.extend_from_slice(&(b.values.len() as u32).to_le_bytes());
                for v in &b.values {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf
            }
            BrickMsg::Summary(s) => {
                let mut buf = Vec::with_capacity(41);
                buf.push(BRICK_KIND_SUMMARY);
                buf.extend_from_slice(&s.request_id.to_le_bytes());
                buf.extend_from_slice(&s.total_bricks.to_le_bytes());
                buf.extend_from_slice(&s.sent.to_le_bytes());
                buf.extend_from_slice(&s.skipped.to_le_bytes());
                buf.extend_from_slice(&s.max_halo.to_le_bytes());
                buf
            }
        }
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let kind = r.take(1)?[0];
        let v = match kind {
            BRICK_KIND_BRICK => {
                let request_id = r.u64()?;
                let index = r.u64()?;
                let mut start = [0u64; 3];
                for d in &mut start {
                    *d = r.u64()?;
                }
                let mut dims = [0u64; 3];
                for d in &mut dims {
                    *d = r.u64()?;
                }
                let values = r.f32_vec()?;
                let expect = dims
                    .iter()
                    .try_fold(1u64, |acc, &d| acc.checked_mul(d))
                    .ok_or_else(|| WireError("brick dims overflow".into()))?;
                if values.len() as u64 != expect {
                    return Err(WireError(format!(
                        "brick payload has {} values, extent {:?} needs {expect}",
                        values.len(),
                        dims
                    )));
                }
                BrickMsg::Brick(BrickFrame {
                    request_id,
                    index,
                    start,
                    dims,
                    values,
                })
            }
            BRICK_KIND_SUMMARY => BrickMsg::Summary(BrickSummary {
                request_id: r.u64()?,
                total_bricks: r.u64()?,
                sent: r.u64()?,
                skipped: r.u64()?,
                max_halo: r.u64()?,
            }),
            k => return Err(WireError(format!("unknown brick frame kind {k}"))),
        };
        r.finish()?;
        Ok(v)
    }
}

/// `SwapModel` request body: the candidate pipeline, serialized in the
/// FVPL checkpoint format, to be canary-validated and promoted as the
/// dataset's new active version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapModelReq {
    /// Dataset whose active version to advance.
    pub dataset: String,
    /// Candidate version; must be strictly newer than the active one.
    pub version: u32,
    /// FVPL bytes of the candidate pipeline.
    pub pipeline: Vec<u8>,
}

impl SwapModelReq {
    /// Encode to payload bytes. Fails (rather than corrupting the frame)
    /// when the dataset name exceeds the u16 wire prefix.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(8 + self.dataset.len() + self.pipeline.len());
        try_put_str(&mut buf, &self.dataset)?;
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&(self.pipeline.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.pipeline);
        Ok(buf)
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let v = Self {
            dataset: r.string()?,
            version: r.u32()?,
            pipeline: r.bytes_vec()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// `Reconstruct` response body: the dense field values plus (for
/// [`Status::Degraded`]) a human-readable demotion reason.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructResp {
    /// Reconstructed values in linear grid order.
    pub values: Vec<f32>,
    /// Why the model path was demoted; empty for full-fidelity responses.
    pub reason: String,
}

impl ReconstructResp {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.values.len() * 4 + self.reason.len());
        buf.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        // The reason is server-generated prose; truncation is harmless.
        put_str_trunc(&mut buf, &self.reason);
        buf
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let v = Self {
            values: r.f32_vec()?,
            reason: r.string()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// Body of every [`Status::Error`] / [`Status::ShuttingDown`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// Typed error code.
    pub code: u16,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// Build from a typed code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code: code as u16,
            message: message.into(),
        }
    }

    /// The typed code, if recognized.
    pub fn error_code(&self) -> Option<ErrorCode> {
        ErrorCode::from_u16(self.code)
    }

    /// Encode to payload bytes. Pathological messages are truncated on a
    /// char boundary rather than rejected.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.code.to_le_bytes());
        put_str_trunc(&mut buf, &self.message);
        buf
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let v = Self {
            code: r.u16()?,
            message: r.string()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// `OpenSession` response body: the allocated session id plus the
/// concrete model version the session was pinned to (meaningful when
/// the request asked for [`VERSION_ACTIVE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSessionResp {
    /// Allocated session id.
    pub session: u64,
    /// Resolved model version the session is pinned to.
    pub version: u32,
}

impl OpenSessionResp {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12);
        buf.extend_from_slice(&self.session.to_le_bytes());
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf
    }

    /// Decode from payload bytes.
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = Rd::new(b);
        let v = Self {
            session: r.u64()?,
            version: r.u32()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// `CloseSession` request body: the bare session id.
pub fn encode_session_id(id: u64) -> Vec<u8> {
    id.to_le_bytes().to_vec()
}

/// Decode a bare-session-id body.
pub fn decode_session_id(b: &[u8]) -> Result<u64, WireError> {
    let mut r = Rd::new(b);
    let id = r.u64()?;
    r.finish()?;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello serve".to_vec();
        let bytes = encode_frame(Op::Ping as u8, Status::Ok as u8, &payload);
        let f = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(f.op, Op::Ping as u8);
        assert_eq!(f.status, Status::Ok as u8);
        assert_eq!(f.payload, payload);
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn truncated_header_and_payload() {
        let bytes = encode_frame(1, 0, b"payload");
        for cut in 1..bytes.len() {
            let mut part = &bytes[..cut];
            assert!(
                matches!(read_frame(&mut part), Err(FrameError::Truncated)),
                "cut at {cut} must read as truncation"
            );
        }
    }

    #[test]
    fn bad_magic_version_crc_oversized() {
        let mut bytes = encode_frame(1, 0, b"x");
        bytes[0] = b'Z';
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::BadMagic(_))
        ));

        let mut bytes = encode_frame(1, 0, b"x");
        bytes[4] = 0xFF;
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::BadVersion(_))
        ));

        let mut bytes = encode_frame(1, 0, b"abcd");
        let n = bytes.len();
        bytes[n - 6] ^= 0x40; // flip a payload bit; stored CRC now disagrees
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::BadCrc { .. })
        ));

        let mut bytes = encode_frame(1, 0, b"x");
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn body_roundtrips() {
        let open = OpenSessionReq {
            tenant: "acme".into(),
            dataset: "hurricane".into(),
            version: 3,
        };
        assert_eq!(
            OpenSessionReq::decode(&open.encode().unwrap()).unwrap(),
            open
        );

        let g = fv_field::Grid3::with_geometry([4, 5, 6], [1.0, -2.0, 0.5], [0.1, 0.2, 0.3])
            .unwrap();
        let wire = GridWire::from_grid(&g);
        assert_eq!(wire.to_grid().unwrap(), g);

        let put = PutCloudReq {
            session: 7,
            grid: wire,
            indices: vec![0, 5, 9],
            values: vec![1.0, -2.5, 3.25],
        };
        assert_eq!(PutCloudReq::decode(&put.encode()).unwrap(), put);

        let rec = ReconstructReq {
            session: 7,
            target: wire,
            deadline_ms: 250,
            request_id: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(ReconstructReq::decode(&rec.encode()).unwrap(), rec);

        let open_resp = OpenSessionResp {
            session: 0x1122_3344_5566_7788,
            version: 42,
        };
        assert_eq!(OpenSessionResp::decode(&open_resp.encode()).unwrap(), open_resp);

        let swap = SwapModelReq {
            dataset: "hurricane".into(),
            version: 9,
            pipeline: vec![0xF0, 0x9F, 0x00, 0x7F],
        };
        assert_eq!(SwapModelReq::decode(&swap.encode().unwrap()).unwrap(), swap);

        let bricked = ReconstructBrickedReq {
            session: 7,
            target: wire,
            brick_dims: [16, 8, 4],
            deadline_ms: 250,
            request_id: 0xDEAD_BEEF_CAFE_F00D,
            start_brick: 42,
        };
        assert_eq!(
            ReconstructBrickedReq::decode(&bricked.encode()).unwrap(),
            bricked
        );

        let brick = BrickMsg::Brick(BrickFrame {
            request_id: 99,
            index: 3,
            start: [4, 0, 8],
            dims: [2, 1, 2],
            values: vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0],
        });
        assert_eq!(BrickMsg::decode(&brick.encode()).unwrap(), brick);

        let summary = BrickMsg::Summary(BrickSummary {
            request_id: 99,
            total_bricks: 64,
            sent: 60,
            skipped: 4,
            max_halo: 8,
        });
        assert_eq!(BrickMsg::decode(&summary.encode()).unwrap(), summary);

        let resp = ReconstructResp {
            values: vec![0.0, f32::MIN_POSITIVE, -1.0],
            reason: "breaker open".into(),
        };
        assert_eq!(ReconstructResp::decode(&resp.encode()).unwrap(), resp);

        let err = ErrorBody::new(ErrorCode::Busy, "queue full");
        let back = ErrorBody::decode(&err.encode()).unwrap();
        assert_eq!(back.error_code(), Some(ErrorCode::Busy));
        assert_eq!(back.message, "queue full");
    }

    #[test]
    fn oversized_error_message_truncates_on_char_boundary() {
        // 65534 ASCII bytes, then a 3-byte char straddling offset 65535:
        // a naive byte slice at u16::MAX panics mid-char.
        let mut msg = "a".repeat(u16::MAX as usize - 1);
        msg.push('日');
        let body = ErrorBody::new(ErrorCode::Internal, msg);
        let back = ErrorBody::decode(&body.encode()).expect("decode truncated");
        assert_eq!(back.message.len(), u16::MAX as usize - 1);
        assert!(back.message.bytes().all(|b| b == b'a'));

        // Short messages pass through untouched, multi-byte or not.
        let body = ErrorBody::new(ErrorCode::Internal, "日本語");
        assert_eq!(ErrorBody::decode(&body.encode()).unwrap().message, "日本語");
    }

    #[test]
    fn write_frame_refuses_oversized_payload() {
        let huge = vec![0u8; MAX_PAYLOAD as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, 1, 0, &huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn grid_bound_rejects_huge_and_wrapping_dims() {
        let ok = GridWire {
            dims: [8, 8, 4],
            origin: [0.0; 3],
            spacing: [1.0; 3],
        };
        assert!(ok.to_grid_bounded().is_ok());

        // Over the cap but far from u64 overflow.
        let big = GridWire {
            dims: [100_000, 100_000, 100_000],
            ..ok
        };
        assert!(big.to_grid_bounded().is_err());

        // Product wraps u64: must be caught by checked_mul, not wrapped.
        let wrap = GridWire {
            dims: [u64::MAX, u64::MAX, u64::MAX],
            ..ok
        };
        assert!(wrap.to_grid_bounded().is_err());

        // Exactly at the cap: the dims themselves are legal.
        let edge = GridWire {
            dims: [MAX_GRID_POINTS, 1, 1],
            ..ok
        };
        assert!(edge.to_grid_bounded().is_ok());
        let over = GridWire {
            dims: [MAX_GRID_POINTS + 1, 1, 1],
            ..ok
        };
        assert!(over.to_grid_bounded().is_err());
    }

    /// A reader that delivers at most one byte per call and returns
    /// `Interrupted` before every other delivery — the worst-case
    /// signal-storm transport a healthy frame must still survive.
    struct InterruptedReader<'a> {
        data: &'a [u8],
        pos: usize,
        calls: usize,
    }

    impl std::io::Read for InterruptedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
            }
            if self.pos == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    /// A writer that accepts at most one byte per call and interleaves
    /// `Interrupted` errors between accepts.
    struct InterruptedWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl std::io::Write for InterruptedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
            }
            self.out.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn eintr_and_short_io_do_not_kill_a_healthy_frame() {
        let payload = b"signal storm".to_vec();
        let bytes = encode_frame(Op::Reconstruct as u8, Status::Ok as u8, &payload);

        let mut r = InterruptedReader {
            data: &bytes,
            pos: 0,
            calls: 0,
        };
        let f = read_frame(&mut r).expect("EINTR + 1-byte reads must still decode");
        assert_eq!(f.payload, payload);

        let mut w = InterruptedWriter {
            out: Vec::new(),
            calls: 0,
        };
        write_frame(&mut w, Op::Ping as u8, 0, &payload).expect("EINTR + 1-byte writes");
        let f = read_frame(&mut w.out.as_slice()).unwrap();
        assert_eq!(f.payload, payload);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut b = OpenSessionReq {
            tenant: "t".into(),
            dataset: "d".into(),
            version: 0,
        }
        .encode()
        .unwrap();
        b.push(0);
        assert!(OpenSessionReq::decode(&b).is_err());

        let mut b = BrickMsg::Summary(BrickSummary {
            request_id: 1,
            total_bricks: 2,
            sent: 2,
            skipped: 0,
            max_halo: 2,
        })
        .encode();
        b.push(0);
        assert!(BrickMsg::decode(&b).is_err());
    }

    /// Regression for the release-mode `put_str` wrap: a >64 KiB tenant
    /// name must be a typed encode error, never a frame whose u16 length
    /// prefix silently wrapped. (The old code debug_assert!'d, so release
    /// builds emitted a prefix of `len % 65536` followed by the full
    /// bytes — trailing-garbage decode failure at best, and at worst a
    /// truncated name that aliases another tenant.)
    #[test]
    fn oversized_identifier_is_a_typed_encode_error() {
        let huge = "t".repeat(u16::MAX as usize + 1);
        let open = OpenSessionReq {
            tenant: huge.clone(),
            dataset: "d".into(),
            version: 0,
        };
        let err = open.encode().expect_err("oversized tenant must not encode");
        assert!(err.0.contains("u16 wire prefix"), "got: {err}");

        let swap = SwapModelReq {
            dataset: huge.clone(),
            version: 1,
            pipeline: vec![],
        };
        assert!(swap.encode().is_err(), "oversized dataset must not encode");

        // Exactly at the prefix limit still round-trips losslessly.
        let edge = OpenSessionReq {
            tenant: "t".repeat(u16::MAX as usize),
            dataset: "d".into(),
            version: 0,
        };
        let back = OpenSessionReq::decode(&edge.encode().unwrap()).unwrap();
        assert_eq!(back, edge);
    }

    #[test]
    fn brick_msg_rejects_malformed_payloads() {
        // Unknown kind byte.
        assert!(BrickMsg::decode(&[7]).is_err());

        // Value count disagreeing with the declared extent.
        let mut frame = BrickFrame {
            request_id: 1,
            index: 0,
            start: [0; 3],
            dims: [2, 2, 1],
            values: vec![0.0; 4],
        };
        frame.values.pop();
        assert!(BrickMsg::decode(&BrickMsg::Brick(frame).encode()).is_err());
    }

    #[test]
    fn streamed_grid_bound_admits_beyond_frame_cap_but_stays_checked() {
        let base = GridWire {
            dims: [8, 8, 4],
            origin: [0.0; 3],
            spacing: [1.0; 3],
        };
        // Larger than the dense cap, fine for streaming.
        let big = GridWire {
            dims: [MAX_GRID_POINTS + 1, 1, 1],
            ..base
        };
        assert!(big.to_grid_bounded().is_err());
        assert!(big.to_grid_streamed().is_ok());

        // Beyond the stream cap or wrapping u64: rejected.
        let over = GridWire {
            dims: [MAX_STREAM_POINTS + 1, 1, 1],
            ..base
        };
        assert!(over.to_grid_streamed().is_err());
        let wrap = GridWire {
            dims: [u64::MAX, u64::MAX, u64::MAX],
            ..base
        };
        assert!(wrap.to_grid_streamed().is_err());
    }
}
