//! Field persistence.
//!
//! Two formats:
//!
//! * **`fvf` binary** — a compact little-endian format for checkpoints and
//!   test fixtures. Version 2 (current) is self-verifying:
//!
//!   ```text
//!   magic "FVF2" | payload_len u64 | payload | crc32 u32
//!   payload = dims 3×u64 | origin 3×f64 | spacing 3×f64 | values n×f32
//!   ```
//!
//!   The explicit payload length rejects truncated or hostile headers
//!   before anything is allocated, and the trailing CRC-32 (over the
//!   payload) rejects torn or bit-flipped files. Version 1 (`FVF1`, no
//!   length, no CRC) is still readable.
//! * **Legacy VTK ASCII** (`STRUCTURED_POINTS`) — write-only, so
//!   reconstructions can be eyeballed in ParaView/VisIt, mirroring the
//!   paper's `.vti` outputs.
//!
//! [`save`] is crash-safe: it writes a sibling temp file, fsyncs, then
//! atomically renames over the destination, so a node failure mid-write
//! leaves either the old file or the new one — never a torn hybrid.

use crate::error::FieldError;
use crate::grid::Grid3;
use crate::volume::ScalarField;
use fv_runtime::checksum::Crc32;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC_V1: &[u8; 4] = b"FVF1";
const MAGIC_V2: &[u8; 4] = b"FVF2";

/// Hard ceiling on the number of grid points a header may declare
/// (2³¹ points = 8 GiB of `f32` values).
pub const MAX_POINTS: usize = 1 << 31;

/// Geometry bytes in the payload: 3×u64 dims + 3×f64 origin + 3×f64 spacing.
const GEOMETRY_BYTES: u64 = 72;

/// Suffix used by in-flight atomic writes (leftovers are safe to delete).
pub const TMP_SUFFIX: &str = ".tmp";

/// Write a field in the verified v2 binary format.
pub fn write_bin<W: Write>(field: &ScalarField, mut w: W) -> Result<(), FieldError> {
    w.write_all(MAGIC_V2)?;
    let payload_len = GEOMETRY_BYTES + 4 * field.len() as u64;
    w.write_all(&payload_len.to_le_bytes())?;
    let mut crc = Crc32::new();
    let mut put = |w: &mut W, bytes: &[u8]| -> Result<(), FieldError> {
        crc.update(bytes);
        w.write_all(bytes)?;
        Ok(())
    };
    let grid = field.grid();
    for d in grid.dims() {
        put(&mut w, &(d as u64).to_le_bytes())?;
    }
    for o in grid.origin() {
        put(&mut w, &o.to_le_bytes())?;
    }
    for s in grid.spacing() {
        put(&mut w, &s.to_le_bytes())?;
    }
    let mut chunk = Vec::with_capacity(4 * 8192);
    for values in field.values().chunks(8192) {
        chunk.clear();
        for &v in values {
            chunk.extend_from_slice(&v.to_le_bytes());
        }
        put(&mut w, &chunk)?;
    }
    w.write_all(&crc.finish().to_le_bytes())?;
    Ok(())
}

/// Write a field in the legacy v1 format (no length, no CRC).
///
/// Kept so compatibility tests can produce v1 files; new code should use
/// [`write_bin`].
pub fn write_bin_v1<W: Write>(field: &ScalarField, mut w: W) -> Result<(), FieldError> {
    w.write_all(MAGIC_V1)?;
    let grid = field.grid();
    for d in grid.dims() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    for o in grid.origin() {
        w.write_all(&o.to_le_bytes())?;
    }
    for s in grid.spacing() {
        w.write_all(&s.to_le_bytes())?;
    }
    for &v in field.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Read a field in either binary format (v2 verified, v1 legacy).
pub fn read_bin<R: Read>(mut r: R) -> Result<ScalarField, FieldError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    match &magic {
        m if m == MAGIC_V2 => read_bin_v2(r),
        m if m == MAGIC_V1 => read_bin_v1(r),
        _ => Err(FieldError::Format(format!(
            "bad magic {magic:?}, expected {MAGIC_V2:?} or {MAGIC_V1:?}"
        ))),
    }
}

fn read_bin_v2<R: Read>(mut r: R) -> Result<ScalarField, FieldError> {
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let payload_len = u64::from_le_bytes(u64buf);
    if payload_len < GEOMETRY_BYTES || !(payload_len - GEOMETRY_BYTES).is_multiple_of(4) {
        return Err(FieldError::Format(format!(
            "implausible payload length {payload_len}"
        )));
    }
    let declared_points = ((payload_len - GEOMETRY_BYTES) / 4) as usize;
    if declared_points > MAX_POINTS {
        return Err(FieldError::Format(format!(
            "refusing to allocate {declared_points} points"
        )));
    }
    let mut crc = Crc32::new();
    let mut geometry = [0u8; GEOMETRY_BYTES as usize];
    r.read_exact(&mut geometry)?;
    crc.update(&geometry);
    let (dims, origin, spacing) = parse_geometry(&geometry)?;
    let grid = Grid3::with_geometry(dims, origin, spacing)?;
    if grid.num_points() != declared_points {
        return Err(FieldError::Format(format!(
            "dims {dims:?} declare {} points but payload holds {declared_points}",
            grid.num_points()
        )));
    }
    let data = read_values(&mut r, declared_points, Some(&mut crc))?;
    let mut crcbuf = [0u8; 4];
    r.read_exact(&mut crcbuf)?;
    let stored = u32::from_le_bytes(crcbuf);
    let computed = crc.finish();
    if stored != computed {
        return Err(FieldError::Format(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    ScalarField::from_vec(grid, data)
}

fn read_bin_v1<R: Read>(mut r: R) -> Result<ScalarField, FieldError> {
    let mut geometry = [0u8; GEOMETRY_BYTES as usize];
    r.read_exact(&mut geometry)?;
    let (dims, origin, spacing) = parse_geometry(&geometry)?;
    let grid = Grid3::with_geometry(dims, origin, spacing)?;
    let n = grid.num_points();
    // Guard against absurd headers before allocating.
    if n > MAX_POINTS {
        return Err(FieldError::Format(format!("refusing to allocate {n} points")));
    }
    let data = read_values(&mut r, n, None)?;
    ScalarField::from_vec(grid, data)
}

/// Parsed header geometry: `(dims, origin, spacing)`.
type Geometry = ([usize; 3], [f64; 3], [f64; 3]);

fn parse_geometry(bytes: &[u8; GEOMETRY_BYTES as usize]) -> Result<Geometry, FieldError> {
    let mut dims = [0usize; 3];
    for (i, d) in dims.iter_mut().enumerate() {
        let v = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        *d = usize::try_from(v)
            .map_err(|_| FieldError::Format(format!("dimension {v} too large")))?;
    }
    // Bound the product here so no caller can overflow `num_points` on a
    // corrupted header.
    match dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
    {
        Some(n) if n <= MAX_POINTS => {}
        _ => {
            return Err(FieldError::Format(format!(
                "implausible dimensions {dims:?}"
            )))
        }
    }
    let mut origin = [0.0f64; 3];
    for (i, o) in origin.iter_mut().enumerate() {
        let at = 24 + i * 8;
        *o = f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    }
    let mut spacing = [0.0f64; 3];
    for (i, s) in spacing.iter_mut().enumerate() {
        let at = 48 + i * 8;
        *s = f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    }
    Ok((dims, origin, spacing))
}

/// Read `n` little-endian `f32`s, growing the buffer as data actually
/// arrives so a header that lies about its size cannot force a huge
/// upfront allocation.
fn read_values<R: Read>(
    r: &mut R,
    n: usize,
    mut crc: Option<&mut Crc32>,
) -> Result<Vec<f32>, FieldError> {
    const CHUNK_POINTS: usize = 1 << 16;
    let mut data = Vec::with_capacity(n.min(CHUNK_POINTS));
    let mut buf = vec![0u8; 4 * CHUNK_POINTS.min(n.max(1))];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(CHUNK_POINTS);
        let bytes = &mut buf[..4 * take];
        r.read_exact(bytes)?;
        if let Some(crc) = crc.as_deref_mut() {
            crc.update(bytes);
        }
        for quad in bytes.chunks_exact(4) {
            data.push(f32::from_le_bytes(quad.try_into().expect("4 bytes")));
        }
        remaining -= take;
    }
    Ok(data)
}

/// Drop guard that deletes an in-flight atomic-write temp file unless the
/// write was disarmed after a successful rename. Unlike an `is_err()`
/// check on the result, a guard also fires when the write closure
/// *panics* (e.g. a chaos-injected fault), so no path out of
/// [`write_file_atomic`] can leak a `*.tmp`.
struct TmpGuard<'a> {
    path: &'a Path,
    armed: bool,
}

impl Drop for TmpGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            std::fs::remove_file(self.path).ok();
        }
    }
}

/// Remove stale atomic-write leftovers (`*.tmp` files) from `dir`.
///
/// Temp files are only ever transient: a live writer renames its temp away
/// within one call, so anything still carrying [`TMP_SUFFIX`] when a store
/// *opens* its directory is debris from a crashed process. Returns the
/// number of files removed. Regular files only; never touches anything
/// without the suffix.
pub fn sweep_tmp_files(dir: impl AsRef<Path>) -> std::io::Result<usize> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let is_tmp = entry.file_name().to_string_lossy().ends_with(TMP_SUFFIX);
        let is_file = entry.file_type().map(|t| t.is_file()).unwrap_or(false);
        if is_tmp && is_file && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Crash-safe file write: the content goes to a sibling temp file which is
/// flushed, fsynced and atomically renamed over `path`. Interrupted writes
/// leave only a `*.tmp` leftover, never a torn destination file; on any
/// error — or a panic inside `write` — the temp file is removed before
/// returning, so only a hard process death can leave one (swept by
/// [`sweep_tmp_files`] on the next open).
pub fn write_file_atomic<F>(path: impl AsRef<Path>, write: F) -> Result<(), FieldError>
where
    F: FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), FieldError>,
{
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| FieldError::Format(format!("path {path:?} has no file name")))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".{}{TMP_SUFFIX}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let mut guard = TmpGuard {
        path: &tmp,
        armed: true,
    };
    let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
    write(&mut w)?;
    w.flush()?;
    w.get_ref().sync_all()?;
    std::fs::rename(&tmp, path)?;
    guard.armed = false;
    Ok(())
}

/// Write a field to a file in the compact binary format, crash-safely.
pub fn save(field: &ScalarField, path: impl AsRef<Path>) -> Result<(), FieldError> {
    if let Some(e) = fv_runtime::chaos::io_error("field.save") {
        return Err(e.into());
    }
    write_file_atomic(path, |w| write_bin(field, w))
}

/// Read a field from a file in the compact binary format.
pub fn load(path: impl AsRef<Path>) -> Result<ScalarField, FieldError> {
    if let Some(e) = fv_runtime::chaos::io_error("field.load") {
        return Err(e.into());
    }
    let f = std::fs::File::open(path)?;
    read_bin(BufReader::new(f))
}

/// Write a field as legacy-VTK ASCII `STRUCTURED_POINTS` with one scalar
/// array named `name`.
pub fn write_vtk_ascii<W: Write>(
    field: &ScalarField,
    name: &str,
    w: W,
) -> Result<(), FieldError> {
    let mut w = BufWriter::new(w);
    let grid = field.grid();
    let [nx, ny, nz] = grid.dims();
    let [ox, oy, oz] = grid.origin();
    let [sx, sy, sz] = grid.spacing();
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "fillvoid reconstruction output")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET STRUCTURED_POINTS")?;
    writeln!(w, "DIMENSIONS {nx} {ny} {nz}")?;
    writeln!(w, "ORIGIN {ox} {oy} {oz}")?;
    writeln!(w, "SPACING {sx} {sy} {sz}")?;
    writeln!(w, "POINT_DATA {}", grid.num_points())?;
    writeln!(w, "SCALARS {name} float 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for chunk in field.values().chunks(9) {
        let line: Vec<String> = chunk.iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", line.join(" "))?;
    }
    w.flush()?;
    Ok(())
}

/// Read back a legacy-VTK ASCII file written by [`write_vtk_ascii`].
///
/// This is intentionally a *minimal* parser for our own output (useful in
/// round-trip tests and for re-ingesting reconstructions), not a general VTK
/// reader.
pub fn read_vtk_ascii<R: Read>(r: R) -> Result<ScalarField, FieldError> {
    let reader = BufReader::new(r);
    let mut dims: Option<[usize; 3]> = None;
    let mut origin = [0.0f64; 3];
    let mut spacing = [1.0f64; 3];
    let mut values: Vec<f32> = Vec::new();
    let mut in_data = false;
    for line in reader.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if in_data {
            for tok in t.split_ascii_whitespace() {
                values.push(
                    tok.parse::<f32>()
                        .map_err(|e| FieldError::Format(format!("bad value {tok:?}: {e}")))?,
                );
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("DIMENSIONS") {
            dims = Some(parse_triple(rest)?);
        } else if let Some(rest) = t.strip_prefix("ORIGIN") {
            let v: [f64; 3] = parse_triple(rest)?;
            origin = v;
        } else if let Some(rest) = t.strip_prefix("SPACING") {
            let v: [f64; 3] = parse_triple(rest)?;
            spacing = v;
        } else if t.starts_with("LOOKUP_TABLE") {
            in_data = true;
        }
    }
    let dims = dims.ok_or_else(|| FieldError::Format("missing DIMENSIONS".into()))?;
    let grid = Grid3::with_geometry(dims, origin, spacing)?;
    ScalarField::from_vec(grid, values)
}

fn parse_triple<T: std::str::FromStr>(s: &str) -> Result<[T; 3], FieldError>
where
    T::Err: std::fmt::Display,
{
    let mut it = s.split_ascii_whitespace();
    let mut out: Vec<T> = Vec::with_capacity(3);
    for _ in 0..3 {
        let tok = it
            .next()
            .ok_or_else(|| FieldError::Format(format!("expected 3 numbers in {s:?}")))?;
        out.push(
            tok.parse::<T>()
                .map_err(|e| FieldError::Format(format!("bad number {tok:?}: {e}")))?,
        );
    }
    let mut arr: [T; 3] = match out.try_into() {
        Ok(a) => a,
        Err(_) => unreachable!("length checked above"),
    };
    if it.next().is_some() {
        return Err(FieldError::Format(format!("trailing tokens in {s:?}")));
    }
    // silence unused_mut on some toolchains
    let _ = &mut arr;
    Ok(arr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_field() -> ScalarField {
        let g = Grid3::with_geometry([3, 2, 2], [1.0, 2.0, 3.0], [0.5, 1.5, 2.5]).unwrap();
        ScalarField::from_vec(g, (0..12).map(|v| v as f32 * 0.25 - 1.0).collect()).unwrap()
    }

    #[test]
    fn bin_roundtrip_is_exact() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_bin(&f, &mut buf).unwrap();
        let g = read_bin(buf.as_slice()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn bin_rejects_bad_magic_and_truncation() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_bin(&f, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_bin(bad.as_slice()),
            Err(FieldError::Format(_))
        ));
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(read_bin(truncated), Err(FieldError::Io(_))));
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_bin_v1(&f, &mut buf).unwrap();
        assert_eq!(&buf[..4], MAGIC_V1);
        let g = read_bin(buf.as_slice()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn v2_layout_has_length_and_trailing_crc() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_bin(&f, &mut buf).unwrap();
        assert_eq!(&buf[..4], MAGIC_V2);
        let payload_len = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        assert_eq!(payload_len as usize, 72 + 4 * f.len());
        assert_eq!(buf.len(), 12 + payload_len as usize + 4);
        let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
        assert_eq!(stored, fv_runtime::checksum::crc32(&buf[12..buf.len() - 4]));
    }

    #[test]
    fn v2_detects_any_single_bit_flip_in_payload() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_bin(&f, &mut buf).unwrap();
        for byte in 12..buf.len() {
            buf[byte] ^= 0x10;
            assert!(
                read_bin(buf.as_slice()).is_err(),
                "flip at byte {byte} went undetected"
            );
            buf[byte] ^= 0x10;
        }
        assert!(read_bin(buf.as_slice()).is_ok(), "restored file loads");
    }

    #[test]
    fn v2_rejects_payload_dims_mismatch() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_bin(&f, &mut buf).unwrap();
        // Claim one more point than the dims imply.
        let bad_len = (72 + 4 * (f.len() + 1)) as u64;
        buf[4..12].copy_from_slice(&bad_len.to_le_bytes());
        assert!(matches!(
            read_bin(buf.as_slice()),
            Err(FieldError::Format(_))
        ));
    }

    #[test]
    fn hostile_header_rejected_without_allocation() {
        // v1 header declaring 2^40 points, no payload behind it.
        let g = Grid3::new([2, 2, 2]).unwrap();
        let f = ScalarField::zeros(g);
        let mut buf = Vec::new();
        write_bin_v1(&f, &mut buf).unwrap();
        buf[4..12].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            read_bin(buf.as_slice()),
            Err(FieldError::Format(_))
        ));
        // v2 with an absurd payload length is rejected by the length check.
        let mut buf2 = Vec::new();
        write_bin(&f, &mut buf2).unwrap();
        buf2[4..12].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        assert!(matches!(
            read_bin(buf2.as_slice()),
            Err(FieldError::Format(_))
        ));
    }

    #[test]
    fn truncated_v1_payload_errors_without_huge_allocation() {
        // A v1 header whose dims promise far more data than follows must
        // fail with a read error, not allocate gigabytes first. (With the
        // incremental reader the allocation tracks actual data.)
        let g = Grid3::new([4, 4, 4]).unwrap();
        let f = ScalarField::zeros(g);
        let mut buf = Vec::new();
        write_bin_v1(&f, &mut buf).unwrap();
        // Inflate dims to ~16M points but keep only the original 64 values.
        buf[4..12].copy_from_slice(&(256u64).to_le_bytes());
        buf[12..20].copy_from_slice(&(256u64).to_le_bytes());
        buf[20..28].copy_from_slice(&(256u64).to_le_bytes());
        assert!(matches!(read_bin(buf.as_slice()), Err(FieldError::Io(_))));
    }

    #[test]
    fn atomic_save_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("fvf_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("field.fvf");
        let f = sample_field();
        save(&f, &path).unwrap();
        assert_eq!(load(&path).unwrap(), f);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(TMP_SUFFIX))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_write_closure_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("fvf_panic_tmp_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("field.fvf");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_file_atomic(&path, |_w| -> Result<(), FieldError> {
                panic!("injected mid-write fault");
            })
        }));
        assert!(result.is_err(), "the panic must propagate");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            leftovers.is_empty(),
            "panic leaked files into the directory: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_removes_stale_tmp_without_touching_valid_files() {
        let dir = std::env::temp_dir().join(format!("fvf_sweep_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let valid = dir.join("field.fvf");
        let f = sample_field();
        save(&f, &valid).unwrap();
        let before = std::fs::read(&valid).unwrap();
        std::fs::write(dir.join("field.fvf.1234.tmp"), b"torn half-write").unwrap();
        std::fs::write(dir.join("other.tmp"), b"also stale").unwrap();
        let removed = sweep_tmp_files(&dir).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(
            std::fs::read(&valid).unwrap(),
            before,
            "sweep must not touch valid files"
        );
        assert_eq!(sweep_tmp_files(&dir).unwrap(), 0, "idempotent");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_save_load_roundtrip() {
        let dir = std::env::temp_dir().join("fvf_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("field.fvf");
        let f = sample_field();
        save(&f, &path).unwrap();
        let g = load(&path).unwrap();
        assert_eq!(f, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vtk_roundtrip_preserves_values_and_geometry() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_vtk_ascii(&f, "pressure", &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("DIMENSIONS 3 2 2"));
        assert!(text.contains("SCALARS pressure float 1"));
        let g = read_vtk_ascii(buf.as_slice()).unwrap();
        assert_eq!(g.grid().dims(), f.grid().dims());
        assert_eq!(g.grid().origin(), f.grid().origin());
        for (a, b) in f.values().iter().zip(g.values()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn vtk_reader_rejects_garbage() {
        assert!(read_vtk_ascii(&b"not a vtk file"[..]).is_err());
        let missing_dims = b"# vtk\nx\nASCII\nLOOKUP_TABLE default\n1 2 3\n";
        assert!(read_vtk_ascii(&missing_dims[..]).is_err());
    }

    #[test]
    fn vtk_reader_rejects_wrong_count() {
        let f = sample_field();
        let mut buf = Vec::new();
        write_vtk_ascii(&f, "v", &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("999.0\n"); // one extra value
        assert!(read_vtk_ascii(text.as_bytes()).is_err());
    }
}
