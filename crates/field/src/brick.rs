//! Domain decomposition into fixed-geometry bricks and a crash-safe
//! on-disk brick store.
//!
//! The paper's largest dataset (600×248×248 over 200 timesteps) does not
//! fit a whole-grid-in-memory reconstruction, and a crash mid-volume used
//! to lose the entire run. [`BrickLayout`] splits a [`Grid3`] into
//! axis-aligned bricks of a fixed voxel geometry (the last brick per axis
//! may be smaller); [`BrickStore`] persists per-brick payloads in a single
//! data file with fixed offsets, paired with an atomically-rewritten
//! *ledger* that is the sole authority on which bricks are complete.
//!
//! On-disk layout (little-endian throughout, DESIGN.md §13):
//!
//! ```text
//! volume.fvb:  magic "FVB1" | dims 3×u64 | origin 3×f64 | spacing 3×f64
//!              | brick_dims 3×u64 | header_crc u32
//!              | brick 0 payload (len₀ × f32) | brick 1 payload | …
//! ledger.fvbl: magic "FVBL" | header_crc u32 | n_bricks u64
//!              | n × { flag u8 | payload_crc u32 | offset u64 }
//!              | ledger_crc u32        (over everything after the magic)
//! ```
//!
//! Crash-only protocol: a brick payload is seek-written and fsynced into
//! `volume.fvb` *before* the ledger is atomically replaced (temp + fsync +
//! rename) with its completion flag and CRC. A crash at any instant
//! therefore leaves either (a) an unflagged — possibly torn — payload the
//! ledger ignores, or (b) a flagged payload that was fully synced first.
//! Resume re-opens the pair, CRC-verifies whatever the ledger claims, and
//! recomputes only the bricks that are missing or fail verification. The
//! `header_crc` binds the ledger to one exact volume geometry, so a ledger
//! can never vouch for bricks of a different layout.

use crate::error::FieldError;
use crate::grid::Grid3;
use crate::io::{sweep_tmp_files, write_file_atomic};
use crate::volume::ScalarField;
use fv_runtime::chaos;
use fv_runtime::checksum::{crc32, Crc32};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const VOLUME_MAGIC: &[u8; 4] = b"FVB1";
const LEDGER_MAGIC: &[u8; 4] = b"FVBL";
/// Volume header: magic + dims/origin/spacing/brick_dims + header CRC.
const HEADER_BYTES: usize = 4 + 24 + 24 + 24 + 24 + 4;

/// File name of the brick data file inside a store directory.
pub const VOLUME_FILE: &str = "volume.fvb";
/// File name of the completion ledger inside a store directory.
pub const LEDGER_FILE: &str = "ledger.fvbl";

/// Axis-aligned decomposition of a [`Grid3`] into fixed-geometry bricks.
///
/// Bricks tile the grid in the same x-fastest order as voxel
/// linearization: brick `b` has brick coordinates
/// `[bx, by, bz]` with `b = bx + nbx*(by + nby*bz)`. Every brick spans
/// `brick_dims` voxels except at the high faces, where it is clamped to
/// the grid. A `brick_dims` larger than the grid yields one brick
/// covering everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrickLayout {
    grid: Grid3,
    brick_dims: [usize; 3],
    counts: [usize; 3],
}

impl BrickLayout {
    /// Decompose `grid` into bricks of (at most) `brick_dims` voxels.
    pub fn new(grid: Grid3, brick_dims: [usize; 3]) -> Result<Self, FieldError> {
        if brick_dims.contains(&0) {
            return Err(FieldError::Format(format!(
                "brick dims must be positive, got {brick_dims:?}"
            )));
        }
        let counts = std::array::from_fn(|a| grid.dims()[a].div_ceil(brick_dims[a]));
        Ok(Self {
            grid,
            brick_dims,
            counts,
        })
    }

    /// The decomposed grid.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// Nominal voxels per brick along each axis.
    pub fn brick_dims(&self) -> [usize; 3] {
        self.brick_dims
    }

    /// Bricks along each axis.
    pub fn counts(&self) -> [usize; 3] {
        self.counts
    }

    /// Total number of bricks.
    pub fn num_bricks(&self) -> usize {
        self.counts[0] * self.counts[1] * self.counts[2]
    }

    /// Brick coordinates of brick `b` (x-fastest linearization).
    pub fn brick_coords(&self, b: usize) -> [usize; 3] {
        debug_assert!(b < self.num_bricks());
        let bx = b % self.counts[0];
        let rest = b / self.counts[0];
        [bx, rest % self.counts[1], rest / self.counts[1]]
    }

    /// The brick containing voxel `ijk`.
    pub fn brick_of(&self, ijk: [usize; 3]) -> usize {
        let bx = ijk[0] / self.brick_dims[0];
        let by = ijk[1] / self.brick_dims[1];
        let bz = ijk[2] / self.brick_dims[2];
        bx + self.counts[0] * (by + self.counts[1] * bz)
    }

    /// Voxel range of brick `b`: `(lo_inclusive, hi_exclusive)`, clamped
    /// to the grid at the high faces.
    pub fn brick_range(&self, b: usize) -> ([usize; 3], [usize; 3]) {
        let c = self.brick_coords(b);
        let lo = std::array::from_fn(|a| c[a] * self.brick_dims[a]);
        let hi = std::array::from_fn(|a| (lo[a] + self.brick_dims[a]).min(self.grid.dims()[a]));
        (lo, hi)
    }

    /// Voxels in brick `b`.
    pub fn brick_len(&self, b: usize) -> usize {
        let (lo, hi) = self.brick_range(b);
        (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
    }

    /// The largest brick length in this layout (the nominal brick clamped
    /// to the grid) — the unit of the streaming pipeline's memory budget.
    pub fn max_brick_len(&self) -> usize {
        (0..3)
            .map(|a| self.brick_dims[a].min(self.grid.dims()[a]))
            .product()
    }

    /// Grid-linear voxel indices of brick `b`, in ascending order.
    ///
    /// Ascending because the grid linearization is x-fastest and the
    /// iteration nests `k` over `j` over `i` — the property the streaming
    /// reconstruction's sorted-merge against sampled indices relies on.
    pub fn voxels(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = self.brick_range(b);
        let grid = self.grid;
        (lo[2]..hi[2]).flat_map(move |k| {
            (lo[1]..hi[1])
                .flat_map(move |j| (lo[0]..hi[0]).map(move |i| grid.linear([i, j, k])))
        })
    }

    fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES);
        out.extend_from_slice(VOLUME_MAGIC);
        for d in self.grid.dims() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for o in self.grid.origin() {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for s in self.grid.spacing() {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for d in self.brick_dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_BYTES);
        out
    }
}

/// Completion state of one brick, as recorded by the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BrickState {
    Pending,
    Done { crc: u32 },
}

/// A directory-backed, crash-safe store of reconstructed bricks.
///
/// See the module docs for the on-disk protocol. All mutation goes through
/// [`BrickStore::commit`] / [`BrickStore::invalidate`], which keep the
/// in-memory state and the on-disk ledger in lockstep.
#[derive(Debug)]
pub struct BrickStore {
    dir: PathBuf,
    layout: BrickLayout,
    header_crc: u32,
    /// Byte offset of each brick's payload in `volume.fvb`.
    offsets: Vec<u64>,
    state: Vec<BrickState>,
}

impl BrickStore {
    /// Open (creating if needed) a brick store for `grid` decomposed into
    /// `brick_dims` bricks.
    ///
    /// Sweeps stale `*.tmp` files, then reconciles with whatever is on
    /// disk: a volume file with a matching header keeps its payloads and a
    /// valid matching ledger restores completion flags (the resume path);
    /// anything missing, mismatched or corrupt resets to an empty store —
    /// worst case every brick recomputes, never a wrong answer.
    pub fn open(
        dir: impl AsRef<Path>,
        grid: Grid3,
        brick_dims: [usize; 3],
    ) -> Result<Self, FieldError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        sweep_tmp_files(&dir)?;
        let layout = BrickLayout::new(grid, brick_dims)?;
        let n = layout.num_bricks();
        let header = layout.header_bytes();
        let header_crc =
            u32::from_le_bytes(header[HEADER_BYTES - 4..].try_into().expect("4 bytes"));
        let mut offsets = Vec::with_capacity(n);
        let mut at = HEADER_BYTES as u64;
        for b in 0..n {
            offsets.push(at);
            at += 4 * layout.brick_len(b) as u64;
        }
        let volume = dir.join(VOLUME_FILE);
        let volume_matches = match std::fs::File::open(&volume) {
            Ok(mut f) => {
                let mut on_disk = vec![0u8; HEADER_BYTES];
                f.read_exact(&mut on_disk).is_ok() && on_disk == header
            }
            Err(_) => false,
        };
        let mut store = Self {
            dir,
            layout,
            header_crc,
            offsets,
            state: vec![BrickState::Pending; n],
        };
        if volume_matches {
            // Keep the payloads; trust the ledger only if it fully
            // validates and binds to this exact header.
            if let Some(state) = store.read_ledger() {
                store.state = state;
            } else {
                store.write_ledger()?;
            }
        } else {
            // Fresh (or differently-shaped) volume: truncate, write the
            // header, and reset the ledger before anything can read it.
            let f = std::fs::File::create(&volume)?;
            let mut w = std::io::BufWriter::new(f);
            w.write_all(&header)?;
            w.flush()?;
            w.get_ref().sync_all()?;
            store.write_ledger()?;
        }
        Ok(store)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The brick decomposition.
    pub fn layout(&self) -> &BrickLayout {
        &self.layout
    }

    /// `true` when the ledger flags brick `b` complete.
    pub fn is_done(&self, b: usize) -> bool {
        matches!(self.state[b], BrickState::Done { .. })
    }

    /// Number of bricks flagged complete.
    pub fn num_done(&self) -> usize {
        self.state.iter().filter(|s| !matches!(s, BrickState::Pending)).count()
    }

    /// Bricks not flagged complete, ascending.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.state.len()).filter(|&b| !self.is_done(b)).collect()
    }

    /// Persist brick `b`: seek-write + fsync the payload, then atomically
    /// replace the ledger with the brick flagged complete. Only after the
    /// ledger rename lands is the brick considered done; a crash anywhere
    /// in between leaves it pending for the next resume.
    pub fn commit(&mut self, b: usize, values: &[f32]) -> Result<(), FieldError> {
        chaos::point("brick.commit");
        if let Some(e) = chaos::io_error("brick.commit") {
            return Err(e.into());
        }
        let expect = self.layout.brick_len(b);
        if values.len() != expect {
            return Err(FieldError::Format(format!(
                "brick {b} expects {expect} voxels, got {}",
                values.len()
            )));
        }
        let mut payload = Vec::with_capacity(4 * values.len());
        for &v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&payload);
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(VOLUME_FILE))?;
        f.seek(SeekFrom::Start(self.offsets[b]))?;
        f.write_all(&payload)?;
        f.sync_data()?;
        self.state[b] = BrickState::Done { crc };
        if let Err(e) = self.write_ledger() {
            // The payload landed but completion was never recorded: the
            // brick stays pending, exactly like a crash here would leave it.
            self.state[b] = BrickState::Pending;
            return Err(e);
        }
        Ok(())
    }

    /// Read back a committed brick, verifying its payload CRC against the
    /// ledger. Errors if the brick is pending, unreadable, or corrupt —
    /// resume treats any of those as "recompute this brick".
    pub fn read_brick(&self, b: usize) -> Result<Vec<f32>, FieldError> {
        chaos::point("brick.load");
        if let Some(e) = chaos::io_error("brick.load") {
            return Err(e.into());
        }
        let BrickState::Done { crc: want } = self.state[b] else {
            return Err(FieldError::Format(format!("brick {b} is not complete")));
        };
        let len = self.layout.brick_len(b);
        let mut f = std::fs::File::open(self.dir.join(VOLUME_FILE))?;
        f.seek(SeekFrom::Start(self.offsets[b]))?;
        let mut bytes = vec![0u8; 4 * len];
        f.read_exact(&mut bytes)?;
        let mut values = Vec::with_capacity(len);
        for quad in bytes.chunks_exact(4) {
            values.push(f32::from_le_bytes(quad.try_into().expect("4 bytes")));
        }
        // The corruption hook models silent media decay; re-deriving the
        // CRC from the (possibly corrupted) values makes the ledger check
        // catch it exactly like a real bit rot.
        chaos::corrupt_f32("brick.load", &mut values);
        let mut crc = Crc32::new();
        for v in &values {
            crc.update(&v.to_le_bytes());
        }
        let got = crc.finish();
        if got != want {
            return Err(FieldError::Format(format!(
                "brick {b} checksum mismatch: stored {want:#010x}, computed {got:#010x}"
            )));
        }
        Ok(values)
    }

    /// Drop brick `b` back to pending (e.g. after failed verification),
    /// recording it in the ledger immediately.
    pub fn invalidate(&mut self, b: usize) -> Result<(), FieldError> {
        if self.is_done(b) {
            self.state[b] = BrickState::Pending;
            self.write_ledger()?;
        }
        Ok(())
    }

    /// Scan every completed brick and invalidate those containing
    /// non-finite voxels. Returns the invalidated brick indices — the
    /// repair path for corruption that slipped in *before* the payload
    /// CRC was computed (the CRC only protects data at rest).
    pub fn invalidate_non_finite(&mut self) -> Result<Vec<usize>, FieldError> {
        let mut bad = Vec::new();
        for b in 0..self.state.len() {
            if !self.is_done(b) {
                continue;
            }
            match self.read_brick(b) {
                Ok(values) if values.iter().all(|v| v.is_finite()) => {}
                _ => {
                    self.invalidate(b)?;
                    bad.push(b);
                }
            }
        }
        Ok(bad)
    }

    /// Assemble the full field from the committed bricks. Errors if any
    /// brick is pending or fails verification — an out-of-core consumer
    /// would stream [`BrickStore::read_brick`] instead of calling this.
    pub fn assemble(&self) -> Result<ScalarField, FieldError> {
        let mut out = ScalarField::zeros(*self.layout.grid());
        for b in 0..self.layout.num_bricks() {
            let values = self.read_brick(b)?;
            for (v, idx) in values.iter().zip(self.layout.voxels(b)) {
                out.values_mut()[idx] = *v;
            }
        }
        Ok(out)
    }

    /// Serialize + atomically replace the ledger from in-memory state.
    fn write_ledger(&self) -> Result<(), FieldError> {
        let mut payload = Vec::with_capacity(12 + 13 * self.state.len());
        payload.extend_from_slice(&self.header_crc.to_le_bytes());
        payload.extend_from_slice(&(self.state.len() as u64).to_le_bytes());
        for (s, &off) in self.state.iter().zip(&self.offsets) {
            match s {
                BrickState::Pending => {
                    payload.push(0);
                    payload.extend_from_slice(&0u32.to_le_bytes());
                }
                BrickState::Done { crc } => {
                    payload.push(1);
                    payload.extend_from_slice(&crc.to_le_bytes());
                }
            }
            payload.extend_from_slice(&off.to_le_bytes());
        }
        let crc = crc32(&payload);
        write_file_atomic(self.dir.join(LEDGER_FILE), |w| {
            w.write_all(LEDGER_MAGIC)?;
            w.write_all(&payload)?;
            w.write_all(&crc.to_le_bytes())?;
            Ok(())
        })
    }

    /// Parse and fully validate the on-disk ledger against this store's
    /// geometry. Any defect — missing file, bad magic, wrong header CRC,
    /// wrong brick count, offset drift, torn tail — yields `None`, which
    /// the caller treats as "all bricks pending".
    fn read_ledger(&self) -> Option<Vec<BrickState>> {
        let bytes = std::fs::read(self.dir.join(LEDGER_FILE)).ok()?;
        let n = self.state.len();
        let expect_len = 4 + 12 + 13 * n + 4;
        if bytes.len() != expect_len || &bytes[..4] != LEDGER_MAGIC {
            return None;
        }
        let payload = &bytes[4..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if crc32(payload) != stored {
            return None;
        }
        let header_crc = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
        let count = u64::from_le_bytes(payload[4..12].try_into().expect("8 bytes"));
        if header_crc != self.header_crc || count != n as u64 {
            return None;
        }
        let mut state = Vec::with_capacity(n);
        for (b, rec) in payload[12..].chunks_exact(13).enumerate() {
            let crc = u32::from_le_bytes(rec[1..5].try_into().expect("4 bytes"));
            let off = u64::from_le_bytes(rec[5..13].try_into().expect("8 bytes"));
            if off != self.offsets[b] {
                return None;
            }
            state.push(match rec[0] {
                0 => BrickState::Pending,
                1 => BrickState::Done { crc },
                _ => return None,
            });
        }
        Some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid3 {
        Grid3::with_geometry([7, 5, 4], [0.5, -1.0, 2.0], [0.5, 1.0, 0.25]).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fvb_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn brick_values(layout: &BrickLayout, b: usize) -> Vec<f32> {
        layout.voxels(b).map(|i| i as f32 * 0.5 - 3.0).collect()
    }

    #[test]
    fn layout_partitions_every_voxel_exactly_once() {
        for brick_dims in [[2, 2, 2], [3, 5, 1], [1, 1, 1], [64, 64, 64]] {
            let layout = BrickLayout::new(grid(), brick_dims).unwrap();
            let mut seen = vec![0u32; grid().num_points()];
            for b in 0..layout.num_bricks() {
                let mut prev = None;
                for idx in layout.voxels(b) {
                    seen[idx] += 1;
                    assert!(prev.is_none_or(|p| p < idx), "voxels must ascend");
                    prev = Some(idx);
                    assert_eq!(layout.brick_of(grid().unlinear(idx)), b);
                }
                assert_eq!(layout.voxels(b).count(), layout.brick_len(b));
            }
            assert!(seen.iter().all(|&c| c == 1), "{brick_dims:?}: not a partition");
        }
    }

    #[test]
    fn layout_rejects_zero_brick_dims() {
        assert!(BrickLayout::new(grid(), [0, 2, 2]).is_err());
    }

    #[test]
    fn commit_read_assemble_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut store = BrickStore::open(&dir, grid(), [3, 2, 2]).unwrap();
        let layout = *store.layout();
        assert_eq!(store.pending().len(), layout.num_bricks());
        for b in 0..layout.num_bricks() {
            store.commit(b, &brick_values(&layout, b)).unwrap();
        }
        assert_eq!(store.num_done(), layout.num_bricks());
        for b in 0..layout.num_bricks() {
            assert_eq!(store.read_brick(b).unwrap(), brick_values(&layout, b));
        }
        let field = store.assemble().unwrap();
        for (idx, &v) in field.values().iter().enumerate() {
            assert_eq!(v, idx as f32 * 0.5 - 3.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_completed_bricks() {
        let dir = temp_dir("resume");
        let layout;
        {
            let mut store = BrickStore::open(&dir, grid(), [4, 4, 4]).unwrap();
            layout = *store.layout();
            store.commit(0, &brick_values(&layout, 0)).unwrap();
            store.commit(2, &brick_values(&layout, 2)).unwrap();
        }
        let store = BrickStore::open(&dir, grid(), [4, 4, 4]).unwrap();
        assert!(store.is_done(0) && store.is_done(2));
        assert_eq!(store.pending(), vec![1, 3]);
        assert_eq!(store.read_brick(0).unwrap(), brick_values(&layout, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn geometry_change_resets_the_store() {
        let dir = temp_dir("geomreset");
        {
            let mut store = BrickStore::open(&dir, grid(), [4, 4, 4]).unwrap();
            let layout = *store.layout();
            store.commit(0, &brick_values(&layout, 0)).unwrap();
        }
        // Different brick dims: nothing on disk may be trusted.
        let store = BrickStore::open(&dir, grid(), [2, 2, 2]).unwrap();
        assert_eq!(store.num_done(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_payload_is_ignored_and_flagged_payload_verifies() {
        let dir = temp_dir("torn");
        let mut store = BrickStore::open(&dir, grid(), [4, 3, 2]).unwrap();
        let layout = *store.layout();
        store.commit(1, &brick_values(&layout, 1)).unwrap();
        // Scribble over an *uncommitted* brick's region: a torn in-flight
        // write. The ledger never flagged it, so nothing changes.
        {
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(VOLUME_FILE))
                .unwrap();
            f.seek(SeekFrom::Start(store.offsets[0])).unwrap();
            f.write_all(&[0xAB; 16]).unwrap();
        }
        let reopened = BrickStore::open(&dir, *layout.grid(), [4, 3, 2]).unwrap();
        assert!(!reopened.is_done(0));
        assert!(reopened.is_done(1));
        assert_eq!(reopened.read_brick(1).unwrap(), brick_values(&layout, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_committed_brick_fails_verification() {
        let dir = temp_dir("bitrot");
        let mut store = BrickStore::open(&dir, grid(), [4, 3, 2]).unwrap();
        let layout = *store.layout();
        store.commit(0, &brick_values(&layout, 0)).unwrap();
        {
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(VOLUME_FILE))
                .unwrap();
            f.seek(SeekFrom::Start(store.offsets[0] + 5)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        assert!(store.read_brick(0).is_err(), "bit flip must be detected");
        store.invalidate(0).unwrap();
        assert!(!store.is_done(0));
        // Recommit heals it.
        store.commit(0, &brick_values(&layout, 0)).unwrap();
        assert_eq!(store.read_brick(0).unwrap(), brick_values(&layout, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_ledger_degrades_to_all_pending() {
        let dir = temp_dir("badledger");
        {
            let mut store = BrickStore::open(&dir, grid(), [4, 4, 4]).unwrap();
            let layout = *store.layout();
            store.commit(0, &brick_values(&layout, 0)).unwrap();
        }
        let ledger = dir.join(LEDGER_FILE);
        let mut bytes = std::fs::read(&ledger).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&ledger, &bytes).unwrap();
        let store = BrickStore::open(&dir, grid(), [4, 4, 4]).unwrap();
        assert_eq!(store.num_done(), 0, "a corrupt ledger must trust nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = temp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ledger.fvbl.999.tmp"), b"torn").unwrap();
        let _store = BrickStore::open(&dir, grid(), [4, 4, 4]).unwrap();
        let stale: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stale.is_empty(), "stale temp files not swept: {stale:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidate_non_finite_requeues_only_bad_bricks() {
        let dir = temp_dir("nonfinite");
        let mut store = BrickStore::open(&dir, grid(), [4, 3, 2]).unwrap();
        let layout = *store.layout();
        store.commit(0, &brick_values(&layout, 0)).unwrap();
        let mut poisoned = brick_values(&layout, 1);
        poisoned[3] = f32::NAN;
        store.commit(1, &poisoned).unwrap();
        let bad = store.invalidate_non_finite().unwrap();
        assert_eq!(bad, vec![1]);
        assert!(store.is_done(0) && !store.is_done(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
