//! Crash-safe, generation-numbered pipeline checkpoints.
//!
//! An in-situ session cannot afford a checkpoint that is *silently* bad:
//! a torn write during a node failure, or a bit flip on scratch storage,
//! must surface as "this generation is corrupt, use the previous one" —
//! not as a model full of garbage weights. [`CheckpointStore`] provides
//! that contract:
//!
//! * every checkpoint is written atomically (temp + fsync + rename), so a
//!   crash mid-save leaves at worst a stale `*.tmp` that the next
//!   [`CheckpointStore::open`] sweeps away;
//! * every checkpoint carries an envelope with an explicit payload length
//!   and a trailing CRC-32 over the serialized pipeline, validated on
//!   load;
//! * the store keeps the last *K* generations and
//!   [`CheckpointStore::load_latest`] walks them newest-first, skipping
//!   corrupt or truncated files, so one bad generation degrades recovery
//!   by one save interval instead of killing the session.
//!
//! Envelope layout (little-endian):
//!
//! ```text
//! magic "FVCK" | payload_len u64 | payload (FVPL pipeline bytes) | crc32 u32
//! ```

use crate::error::CoreError;
use crate::pipeline::FcnnPipeline;
use fv_runtime::checksum::crc32;
use fv_field::FieldError;
use fv_nn::serialize::write_file_atomic;
use std::io::Read;
use std::path::{Path, PathBuf};

// Checkpoint-I/O telemetry (inert unless FV_TELEMETRY=1): spans around
// every save/load plus the retry count, so slow or flaky scratch storage
// shows up in the end-of-run snapshot.
static TM_SAVE: fv_runtime::telemetry::Site =
    fv_runtime::telemetry::Site::new("ckpt.save", None);
static TM_LOAD: fv_runtime::telemetry::Site =
    fv_runtime::telemetry::Site::new("ckpt.load", None);
static TM_RETRIES: fv_runtime::telemetry::Counter =
    fv_runtime::telemetry::Counter::new("ckpt.retries");
static TM_SAVE_BYTES: fv_runtime::telemetry::Counter =
    fv_runtime::telemetry::Counter::new("ckpt.saved_bytes");

const MAGIC: &[u8; 4] = b"FVCK";
/// Ceiling on an envelope payload (4 GiB) — larger lengths are corrupt.
const MAX_PAYLOAD: u64 = 1 << 32;
const PREFIX: &str = "ckpt-";
const EXT: &str = "fvck";

/// A directory of verified, generation-numbered pipeline checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    generations: Vec<u64>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory, keeping at most
    /// `keep` generations. Sweeps leftover `*.tmp` files from interrupted
    /// saves and indexes the generations already on disk.
    pub fn open(dir: impl AsRef<Path>, keep: usize) -> Result<Self, CoreError> {
        if keep == 0 {
            return Err(CoreError::BadConfig(
                "checkpoint store must keep at least 1 generation".into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        // Interrupted atomic saves leave `*.tmp` debris (the real file was
        // never renamed); sweep it before indexing, via the shared helper
        // every crash-safe store in the workspace uses.
        fv_field::io::sweep_tmp_files(&dir).map_err(io_err)?;
        let mut generations = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(gen) = parse_generation(&name) {
                generations.push(gen);
            }
        }
        generations.sort_unstable();
        Ok(Self {
            dir,
            keep,
            generations,
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generations currently on disk, oldest first.
    pub fn generations(&self) -> &[u64] {
        &self.generations
    }

    /// The newest generation number, if any checkpoint exists.
    pub fn latest(&self) -> Option<u64> {
        self.generations.last().copied()
    }

    /// On-disk path of generation `gen` (it may or may not exist).
    pub fn path_for(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("{PREFIX}{gen:08}.{EXT}"))
    }

    /// Save `pipeline` as a new generation, then prune to the last `keep`
    /// generations. Returns the new generation number.
    pub fn save(&mut self, pipeline: &FcnnPipeline) -> Result<u64, CoreError> {
        let outcome = self.save_with_retry(pipeline, &fv_runtime::retry::Backoff::none())?;
        Ok(outcome.0)
    }

    /// [`Self::save`] with retry-with-backoff for transient I/O failures
    /// (shared scratch filesystems hiccup; one failed save must not cost
    /// the session its recovery point). Returns the new generation number
    /// and how many retries the save needed. The atomic-rename protocol
    /// makes retries safe: a failed attempt leaves at worst a swept-on-open
    /// `*.tmp`, never a torn checkpoint.
    pub fn save_with_retry(
        &mut self,
        pipeline: &FcnnPipeline,
        policy: &fv_runtime::retry::Backoff,
    ) -> Result<(u64, usize), CoreError> {
        let _span = TM_SAVE.span();
        let gen = self.latest().map_or(0, |g| g + 1);
        let mut payload = Vec::new();
        pipeline.write_to(&mut payload)?;
        let digest = crc32(&payload);
        let outcome = fv_runtime::retry::retry(policy, |_attempt| {
            if let Some(e) = fv_runtime::chaos::io_error("ckpt.save") {
                return Err(io_err(e));
            }
            write_file_atomic(self.path_for(gen), |w| {
                use std::io::Write;
                w.write_all(MAGIC)?;
                w.write_all(&(payload.len() as u64).to_le_bytes())?;
                w.write_all(&payload)?;
                w.write_all(&digest.to_le_bytes())?;
                Ok(())
            })
            .map_err(CoreError::from)
        })?;
        self.generations.push(gen);
        while self.generations.len() > self.keep {
            let old = self.generations.remove(0);
            std::fs::remove_file(self.path_for(old)).ok();
        }
        TM_RETRIES.add(outcome.retries as u64);
        TM_SAVE_BYTES.add(payload.len() as u64);
        Ok((gen, outcome.retries))
    }

    /// Load a specific generation, validating the envelope checksum.
    pub fn load_generation(&self, gen: u64) -> Result<FcnnPipeline, CoreError> {
        let _span = TM_LOAD.span();
        if let Some(e) = fv_runtime::chaos::io_error("ckpt.load") {
            return Err(io_err(e));
        }
        let mut r = std::io::BufReader::new(std::fs::File::open(self.path_for(gen)).map_err(io_err)?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(io_err)?;
        if &magic != MAGIC {
            return Err(format_err(format!("bad checkpoint magic {magic:?}")));
        }
        let mut len_buf = [0u8; 8];
        r.read_exact(&mut len_buf).map_err(io_err)?;
        let payload_len = u64::from_le_bytes(len_buf);
        if payload_len == 0 || payload_len > MAX_PAYLOAD {
            return Err(format_err(format!(
                "implausible checkpoint payload length {payload_len}"
            )));
        }
        // Read in bounded chunks so a corrupt length errors before a
        // multi-gigabyte allocation.
        const CHUNK: u64 = 1 << 16;
        let mut payload = Vec::new();
        let mut remaining = payload_len;
        while remaining > 0 {
            let take = remaining.min(CHUNK) as usize;
            let start = payload.len();
            payload.resize(start + take, 0);
            r.read_exact(&mut payload[start..]).map_err(io_err)?;
            remaining -= take as u64;
        }
        let mut crc_buf = [0u8; 4];
        r.read_exact(&mut crc_buf).map_err(io_err)?;
        let stored = u32::from_le_bytes(crc_buf);
        let computed = crc32(&payload);
        if stored != computed {
            return Err(format_err(format!(
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        FcnnPipeline::read_from(payload.as_slice())
    }

    /// Load the newest generation that validates, walking backwards past
    /// corrupt or truncated files. Returns `Ok(None)` when no generation
    /// is loadable.
    pub fn load_latest(&self) -> Result<Option<(u64, FcnnPipeline)>, CoreError> {
        for &gen in self.generations.iter().rev() {
            if let Ok(pipeline) = self.load_generation(gen) {
                return Ok(Some((gen, pipeline)));
            }
        }
        Ok(None)
    }
}

fn parse_generation(name: &str) -> Option<u64> {
    let stem = name.strip_prefix(PREFIX)?.strip_suffix(&format!(".{EXT}"))?;
    stem.parse().ok()
}

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Field(FieldError::Io(e))
}

fn format_err(msg: String) -> CoreError {
    CoreError::Field(FieldError::Format(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use fv_field::grid::Grid3;
    use fv_field::volume::ScalarField;

    fn tiny_pipeline(seed: u64) -> FcnnPipeline {
        let g = Grid3::new([10, 10, 6]).unwrap();
        let field = ScalarField::from_world_fn(g, |p| {
            ((p[0] * 1.3).sin() + (p[1] * 0.7).cos() + p[2] * 0.2) as f32
        });
        let cfg = PipelineConfig::small_for_tests();
        FcnnPipeline::train(&field, &cfg, seed).unwrap()
    }

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fvck_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_load_roundtrip_and_pruning() {
        let dir = temp_store_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        assert!(store.latest().is_none());
        assert!(store.load_latest().unwrap().is_none());

        let p = tiny_pipeline(3);
        assert_eq!(store.save(&p).unwrap(), 0);
        assert_eq!(store.save(&p).unwrap(), 1);
        assert_eq!(store.save(&p).unwrap(), 2);
        // pruned to the last 2 generations
        assert_eq!(store.generations(), &[1, 2]);
        assert!(!store.path_for(0).exists());

        let (gen, restored) = store.load_latest().unwrap().unwrap();
        assert_eq!(gen, 2);
        assert_eq!(restored.mlp(), p.mlp());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_generation() {
        let dir = temp_store_dir("fallback");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let p = tiny_pipeline(5);
        store.save(&p).unwrap();
        store.save(&p).unwrap();

        // truncate the newest generation mid-payload
        let newest = store.path_for(1);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let (gen, restored) = store.load_latest().unwrap().unwrap();
        assert_eq!(gen, 0, "should have skipped the truncated generation");
        assert_eq!(restored.mlp(), p.mlp());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_detected() {
        let dir = temp_store_dir("bitflip");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        let p = tiny_pipeline(7);
        store.save(&p).unwrap();
        let path = store.path_for(0);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_generation(0).is_err());
        assert!(store.load_latest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_leftover_temp_files_and_reindexes() {
        let dir = temp_store_dir("sweep");
        {
            let mut store = CheckpointStore::open(&dir, 4).unwrap();
            let p = tiny_pipeline(9);
            store.save(&p).unwrap();
            store.save(&p).unwrap();
        }
        // simulate a crash mid-save: a stray temp file
        std::fs::write(dir.join("ckpt-00000002.fvck.1234.tmp"), b"partial").unwrap();
        let valid_bytes = std::fs::read(dir.join("ckpt-00000001.fvck")).unwrap();
        let store = CheckpointStore::open(&dir, 4).unwrap();
        assert_eq!(store.generations(), &[0, 1]);
        assert_eq!(
            std::fs::read(dir.join("ckpt-00000001.fvck")).unwrap(),
            valid_bytes,
            "sweep must not touch valid checkpoints"
        );
        assert!(
            store.load_latest().unwrap().is_some(),
            "valid generations must still load after the sweep"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty(), "temp files not swept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_keep_is_rejected() {
        let dir = temp_store_dir("zerokeep");
        assert!(matches!(
            CheckpointStore::open(&dir, 0),
            Err(CoreError::BadConfig(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
