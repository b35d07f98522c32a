//! Model registry: `(dataset, model_version)` → trained pipeline, with
//! LRU eviction under a byte budget.
//!
//! Models arrive from two sources: direct in-memory registration (tests,
//! benches, co-located in-situ producers) and lazy disk loading under a
//! configured root. On disk a key `(dataset, v)` resolves to either a
//! single FVPL pipeline file `<root>/<dataset>/v<v>.fvpl` or — the
//! fine-tuned, crash-safe path — a `CheckpointStore` directory
//! `<root>/<dataset>/v<v>/` whose newest valid FVCK generation wins.
//!
//! Entries are `Arc`'d: eviction only drops the registry's reference, so
//! requests already holding the model finish unaffected. Each entry
//! carries its own circuit [`Breaker`] — a model that keeps panicking or
//! emitting non-finite output is demoted to the classical fallback
//! without affecting its neighbors.
//!
//! On top of the cache sits the **model lifecycle**: each dataset may
//! have one *active* (promoted) version that new sessions resolve to,
//! and [`ModelRegistry::promote`] advances it with zero downtime. A
//! candidate version N+1 is canary-validated (a reconstruction against a
//! stored [`CanarySpec`], gated on finiteness, an optional bitwise
//! fingerprint, and an optional SNR floor) *before* anything is
//! installed — a failing canary is a typed `SwapRejected` and the world
//! is untouched (automatic rollback is trivial because promotion is
//! install-last). On success the displaced version enters the *retiring*
//! list: already-open sessions keep their pinned `Arc<ModelEntry>` and
//! drain naturally, new sessions route to N+1, and
//! [`ModelRegistry::poll_drains`] retires a version the moment the
//! registry holds the last reference. Retiring entries are exempt from
//! LRU eviction (evicting one could not free its memory — the sessions
//! still hold it — but would break drain tracking), which also makes the
//! budget a soft bound while drains are in flight.

use crate::error::ServeError;
use fillvoid_core::checkpoint::CheckpointStore;
use fillvoid_core::{metrics, FcnnPipeline};
use fv_field::ScalarField;
use fv_runtime::breaker::{Breaker, BreakerState};
use fv_runtime::checksum::Fnv1a;
use fv_runtime::{chaos, telemetry};
use fv_sampling::PointCloud;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static TM_HIT: telemetry::Counter = telemetry::Counter::new("serve.registry.hit");
static TM_MISS: telemetry::Counter = telemetry::Counter::new("serve.registry.miss");
static TM_EVICT: telemetry::Counter = telemetry::Counter::new("serve.registry.evict");
static TM_BYTES: telemetry::Gauge = telemetry::Gauge::new("serve.registry.bytes");
static TM_SWAP_PROMOTED: telemetry::Counter = telemetry::Counter::new("serve.swap.promoted");
static TM_SWAP_REJECTED: telemetry::Counter = telemetry::Counter::new("serve.swap.rejected");
static TM_SWAP_RETIRED: telemetry::Counter = telemetry::Counter::new("serve.swap.retired");
static TM_DRAIN: telemetry::Site = telemetry::Site::new("serve.swap.drain", None);
static TM_CANARY: telemetry::Site = telemetry::Site::new("serve.canary", None);

/// FNV-1a over the raw little-endian bits of a float slice. Used for
/// canary fingerprints and by the bench/CI gates to compare served
/// volumes bitwise without shipping both around.
pub fn fingerprint_f32(vals: &[f32]) -> u64 {
    let mut h = Fnv1a::new();
    for v in vals {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// The stored validation probe a candidate model must pass before
/// promotion: reconstruct `reference.grid()` from `cloud` and hold the
/// output to the configured gates. Finiteness is always required;
/// `fingerprint` pins the output bitwise (for "retrained but must match"
/// flows), `snr_floor_db` bounds quality for genuinely new weights.
#[derive(Clone)]
pub struct CanarySpec {
    /// Sample cloud the canary reconstructs from.
    pub cloud: Arc<PointCloud>,
    /// Ground-truth field; its grid is the canary's target grid.
    pub reference: ScalarField,
    /// Minimum acceptable SNR (dB) of the canary output vs `reference`.
    pub snr_floor_db: Option<f64>,
    /// Exact [`fingerprint_f32`] the canary output must reproduce.
    pub fingerprint: Option<u64>,
}

/// Lifecycle counters, exported for benches and the `Stats` op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapStats {
    /// Successful promotions.
    pub promoted: u64,
    /// Rejected promotions (stale version, failed canary, oversized).
    pub rejected: u64,
    /// Displaced versions fully drained and dropped.
    pub retired: u64,
    /// Displaced versions still pinned by live sessions.
    pub draining: usize,
    /// Drain latency of the most recently retired version (ms).
    pub last_drain_ms: f64,
    /// Worst drain latency seen (ms).
    pub max_drain_ms: f64,
    /// Canary reconstructions run.
    pub canary_runs: u64,
    /// Total wall-clock spent in canary reconstructions (ms).
    pub canary_ms_total: f64,
}

/// Registry key.
pub type ModelKey = (String, u32);

/// One resident model.
#[derive(Debug)]
pub struct ModelEntry {
    /// Registry key.
    pub key: ModelKey,
    /// The trained pipeline (immutable once registered).
    pub pipeline: FcnnPipeline,
    /// Serialized size, charged against the registry budget.
    pub size_bytes: usize,
    breaker: Mutex<Breaker>,
}

impl ModelEntry {
    /// Breaker gate for one request; `false` demotes to the fallback.
    pub fn breaker_allow(&self) -> bool {
        self.breaker.lock().expect("breaker lock").allow()
    }

    /// Record a model-path outcome.
    pub fn breaker_record(&self, ok: bool) {
        let mut b = self.breaker.lock().expect("breaker lock");
        if ok {
            b.record_success()
        } else {
            b.record_failure()
        }
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().expect("breaker lock").state()
    }

    /// Times this model's breaker tripped.
    pub fn breaker_opens(&self) -> u64 {
        self.breaker.lock().expect("breaker lock").opens()
    }
}

struct Slot {
    entry: Arc<ModelEntry>,
    last_used: u64,
}

struct Retiring {
    key: ModelKey,
    since: Instant,
}

struct Inner {
    slots: HashMap<ModelKey, Slot>,
    /// Per-dataset promoted version; what `VERSION_ACTIVE` resolves to.
    active: HashMap<String, u32>,
    /// Displaced versions waiting for their last session to drain.
    retiring: Vec<Retiring>,
    bytes: usize,
    tick: u64,
}

/// Byte-budgeted LRU model registry with a hot-swap lifecycle.
pub struct ModelRegistry {
    budget: usize,
    root: Option<PathBuf>,
    breaker_threshold: u32,
    breaker_probe_after: u32,
    inner: Mutex<Inner>,
    /// Canary specs live outside `inner`: the canary reconstruction runs
    /// without holding the registry lock, so resident-model lookups are
    /// never blocked behind a model forward pass.
    canaries: Mutex<HashMap<String, Arc<CanarySpec>>>,
    swap_promoted: AtomicU64,
    swap_rejected: AtomicU64,
    swap_retired: AtomicU64,
    drain_last_ns: AtomicU64,
    drain_max_ns: AtomicU64,
    canary_runs: AtomicU64,
    canary_ns: AtomicU64,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry lock");
        f.debug_struct("ModelRegistry")
            .field("budget", &self.budget)
            .field("root", &self.root)
            .field("models", &inner.slots.len())
            .field("bytes", &inner.bytes)
            .finish()
    }
}

impl ModelRegistry {
    /// An in-memory-only registry under a byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget: budget_bytes.max(1),
            root: None,
            breaker_threshold: 3,
            breaker_probe_after: 8,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                active: HashMap::new(),
                retiring: Vec::new(),
                bytes: 0,
                tick: 0,
            }),
            canaries: Mutex::new(HashMap::new()),
            swap_promoted: AtomicU64::new(0),
            swap_rejected: AtomicU64::new(0),
            swap_retired: AtomicU64::new(0),
            drain_last_ns: AtomicU64::new(0),
            drain_max_ns: AtomicU64::new(0),
            canary_runs: AtomicU64::new(0),
            canary_ns: AtomicU64::new(0),
        }
    }

    /// Resolve cache misses from `<root>/<dataset>/v<version>{.fvpl,/}`.
    pub fn with_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.root = Some(root.into());
        self
    }

    /// Configure per-model breakers (consecutive failures to trip, denied
    /// requests per recovery probe).
    pub fn with_breaker(mut self, threshold: u32, probe_after: u32) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_probe_after = probe_after;
        self
    }

    /// Register an in-memory pipeline; returns its entry.
    ///
    /// The first version inserted for a dataset becomes its *active*
    /// version (so freshly seeded deployments resolve `VERSION_ACTIVE`
    /// without an explicit promotion); later inserts never move the
    /// active pointer — that is [`Self::promote`]'s job.
    pub fn insert(
        &self,
        dataset: impl Into<String>,
        version: u32,
        pipeline: FcnnPipeline,
    ) -> Result<Arc<ModelEntry>, ServeError> {
        let key = (dataset.into(), version);
        let mut payload = Vec::new();
        pipeline.write_to(&mut payload)?;
        let entry = Arc::new(ModelEntry {
            key: key.clone(),
            pipeline,
            size_bytes: payload.len(),
            breaker: Mutex::new(Breaker::new(self.breaker_threshold, self.breaker_probe_after)),
        });
        let mut inner = self.inner.lock().expect("registry lock");
        let dataset_name = key.0.clone();
        self.admit(&mut inner, key, entry.clone())?;
        inner.active.entry(dataset_name).or_insert(version);
        Ok(entry)
    }

    /// Look a model up, loading from disk on a miss.
    pub fn get(&self, dataset: &str, version: u32) -> Result<Arc<ModelEntry>, ServeError> {
        let key = (dataset.to_string(), version);
        {
            let mut inner = self.inner.lock().expect("registry lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.get_mut(&key) {
                slot.last_used = tick;
                TM_HIT.incr();
                return Ok(slot.entry.clone());
            }
        }
        TM_MISS.incr();
        // Load outside the lock: a slow disk read must not block lookups
        // of resident models. A racing load of the same key is harmless —
        // the second admit finds the key present and returns the winner.
        let pipeline = self.load_from_disk(dataset, version)?;
        let mut payload = Vec::new();
        pipeline.write_to(&mut payload)?;
        let entry = Arc::new(ModelEntry {
            key: key.clone(),
            pipeline,
            size_bytes: payload.len(),
            breaker: Mutex::new(Breaker::new(self.breaker_threshold, self.breaker_probe_after)),
        });
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(slot) = inner.slots.get(&key) {
            return Ok(slot.entry.clone());
        }
        self.admit(&mut inner, key, entry.clone())?;
        Ok(entry)
    }

    /// Insert under the budget, evicting least-recently-used entries as
    /// needed (never the entry being admitted, and never a retiring
    /// entry: its memory is pinned by live sessions, so evicting it
    /// frees nothing and would only lose the drain bookkeeping). When
    /// only retiring entries remain the budget is allowed to overshoot
    /// temporarily; [`Self::poll_drains`] reclaims the bytes as soon as
    /// the last session lets go.
    fn admit(
        &self,
        inner: &mut Inner,
        key: ModelKey,
        entry: Arc<ModelEntry>,
    ) -> Result<(), ServeError> {
        if entry.size_bytes > self.budget {
            return Err(ServeError::BudgetExhausted {
                need: entry.size_bytes,
                budget: self.budget,
            });
        }
        if let Some(old) = inner.slots.remove(&key) {
            inner.bytes -= old.entry.size_bytes;
        }
        while inner.bytes + entry.size_bytes > self.budget {
            let victim = {
                let retiring = &inner.retiring;
                inner
                    .slots
                    .iter()
                    .filter(|(k, _)| !retiring.iter().any(|r| &r.key == *k))
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(k, _)| k.clone())
            };
            match victim {
                Some(k) => {
                    let slot = inner.slots.remove(&k).expect("victim present");
                    inner.bytes -= slot.entry.size_bytes;
                    TM_EVICT.incr();
                }
                None => break, // only retiring entries left; overshoot until they drain
            }
        }
        inner.bytes += entry.size_bytes;
        inner.tick += 1;
        let tick = inner.tick;
        inner.slots.insert(key, Slot { entry, last_used: tick });
        TM_BYTES.set(inner.bytes as u64);
        Ok(())
    }

    fn load_from_disk(&self, dataset: &str, version: u32) -> Result<FcnnPipeline, ServeError> {
        let root = self.root.as_ref().ok_or_else(|| ServeError::UnknownModel {
            dataset: dataset.to_string(),
            version,
        })?;
        // Keys are path components: reject separators so a tenant cannot
        // point the registry outside its root.
        if dataset.is_empty() || dataset.contains(['/', '\\', '.']) {
            return Err(ServeError::UnknownModel {
                dataset: dataset.to_string(),
                version,
            });
        }
        let base = root.join(dataset);
        let fvpl = base.join(format!("v{version}.fvpl"));
        if fvpl.is_file() {
            return Ok(FcnnPipeline::load(&fvpl)?);
        }
        let ckpt_dir = base.join(format!("v{version}"));
        if ckpt_dir.is_dir() {
            let store = CheckpointStore::open(&ckpt_dir, 4)?;
            if let Some((_gen, pipeline)) = store.load_latest()? {
                return Ok(pipeline);
            }
        }
        Err(ServeError::UnknownModel {
            dataset: dataset.to_string(),
            version,
        })
    }

    /// Resident model count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry lock").slots.len()
    }

    /// `true` when no models are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("registry lock").bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Is this key resident (without touching LRU order)?
    pub fn contains(&self, dataset: &str, version: u32) -> bool {
        self.inner
            .lock()
            .expect("registry lock")
            .slots
            .contains_key(&(dataset.to_string(), version))
    }

    // -----------------------------------------------------------------
    // Model lifecycle: promote / canary / drain
    // -----------------------------------------------------------------

    /// The currently promoted version for a dataset, if any.
    pub fn active_version(&self, dataset: &str) -> Option<u32> {
        self.inner
            .lock()
            .expect("registry lock")
            .active
            .get(dataset)
            .copied()
    }

    /// Install (or replace) the canary probe candidate promotions for
    /// `dataset` must pass.
    pub fn set_canary(&self, dataset: impl Into<String>, spec: CanarySpec) {
        self.canaries
            .lock()
            .expect("canary lock")
            .insert(dataset.into(), Arc::new(spec));
    }

    fn canary_for(&self, dataset: &str) -> Option<Arc<CanarySpec>> {
        self.canaries
            .lock()
            .expect("canary lock")
            .get(dataset)
            .cloned()
    }

    fn reject(&self, dataset: &str, version: u32, reason: String) -> ServeError {
        TM_SWAP_REJECTED.incr();
        self.swap_rejected.fetch_add(1, Ordering::Relaxed);
        ServeError::SwapRejected {
            dataset: dataset.to_string(),
            version,
            reason,
        }
    }

    /// Promote `pipeline` as the new active version of `dataset`.
    ///
    /// Zero-downtime contract: the candidate is serialized (for budget
    /// accounting) and canary-validated *before* anything is installed,
    /// so every failure path — stale version, oversized entry, failed
    /// canary, injected `serve.swap`/`serve.canary` fault — returns a
    /// typed [`ServeError::SwapRejected`] with the previous version
    /// still serving, untouched ("rollback" is the absence of any
    /// partial install). On success the new version is admitted, the
    /// active pointer moves, and the displaced version (if resident)
    /// enters the retiring list: sessions opened against it keep their
    /// pinned `Arc` and the version is dropped by [`Self::poll_drains`]
    /// once the registry holds the last reference.
    ///
    /// `validate` gates the canary (servers expose it as
    /// `FV_SERVE_CANARY=0`); with no [`CanarySpec`] stored for the
    /// dataset the candidate is vetted only by having deserialized into
    /// a working pipeline.
    ///
    /// Versions must be strictly increasing per dataset. The staleness
    /// check runs again after the (lock-free) canary so two racing
    /// promotions resolve cleanly: the loser is rejected, never
    /// installed over the winner.
    pub fn promote(
        &self,
        dataset: &str,
        version: u32,
        pipeline: FcnnPipeline,
        validate: bool,
    ) -> Result<Arc<ModelEntry>, ServeError> {
        chaos::point("serve.swap");
        if let Some(e) = chaos::io_error("serve.swap") {
            return Err(self.reject(dataset, version, format!("injected fault: {e}")));
        }
        if let Some(cur) = self.active_version(dataset) {
            if version <= cur {
                return Err(self.reject(
                    dataset,
                    version,
                    format!("not newer than active v{cur}"),
                ));
            }
        }
        let mut payload = Vec::new();
        pipeline
            .write_to(&mut payload)
            .map_err(|e| self.reject(dataset, version, format!("serialize: {e}")))?;
        if payload.len() > self.budget {
            return Err(self.reject(
                dataset,
                version,
                format!("needs {} B, budget is {} B", payload.len(), self.budget),
            ));
        }
        let entry = Arc::new(ModelEntry {
            key: (dataset.to_string(), version),
            pipeline,
            size_bytes: payload.len(),
            breaker: Mutex::new(Breaker::new(self.breaker_threshold, self.breaker_probe_after)),
        });
        if validate {
            if let Some(spec) = self.canary_for(dataset) {
                self.run_canary(&entry, &spec)
                    .map_err(|reason| self.reject(dataset, version, reason))?;
            }
        }

        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(&cur) = inner.active.get(dataset) {
            if version <= cur {
                drop(inner);
                return Err(self.reject(
                    dataset,
                    version,
                    format!("superseded by concurrent promotion to v{cur}"),
                ));
            }
        }
        // Mark the displaced version retiring *before* the admission's
        // LRU sweep runs: retiring keys are eviction-exempt, so the
        // version being drained can never be the victim that makes room
        // for its own successor (that would strand its sessions without
        // drain tracking).
        if let Some(&old_v) = inner.active.get(dataset) {
            let old_key = (dataset.to_string(), old_v);
            if inner.slots.contains_key(&old_key)
                && !inner.retiring.iter().any(|r| r.key == old_key)
            {
                inner.retiring.push(Retiring {
                    key: old_key,
                    since: Instant::now(),
                });
            }
        }
        self.admit(&mut inner, entry.key.clone(), entry.clone())?;
        inner.active.insert(dataset.to_string(), version);
        TM_SWAP_PROMOTED.incr();
        self.swap_promoted.fetch_add(1, Ordering::Relaxed);
        self.poll_drains_locked(&mut inner);
        Ok(entry)
    }

    /// Run the canary reconstruction for a candidate entry. Returns the
    /// rejection reason on failure. Called without the registry lock —
    /// resident lookups proceed while the canary's forward pass runs.
    fn run_canary(&self, entry: &ModelEntry, spec: &CanarySpec) -> Result<(), String> {
        chaos::point("serve.canary");
        if let Some(e) = chaos::io_error("serve.canary") {
            return Err(format!("canary: injected fault: {e}"));
        }
        let t0 = Instant::now();
        let out = entry
            .pipeline
            .reconstruct(&spec.cloud, spec.reference.grid())
            .map_err(|e| format!("canary reconstruction failed: {e}"))?;
        let mut vals = out.into_values();
        chaos::corrupt_f32("serve.canary", &mut vals);
        let dt = t0.elapsed();
        TM_CANARY.record_duration(dt);
        self.canary_runs.fetch_add(1, Ordering::Relaxed);
        self.canary_ns
            .fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
        if !vals.iter().all(|v| v.is_finite()) {
            return Err("canary produced non-finite output".into());
        }
        if let Some(expect) = spec.fingerprint {
            let got = fingerprint_f32(&vals);
            if got != expect {
                return Err(format!(
                    "canary fingerprint {got:#018x} != expected {expect:#018x}"
                ));
            }
        }
        if let Some(floor) = spec.snr_floor_db {
            let field = ScalarField::from_vec(*spec.reference.grid(), vals)
                .map_err(|e| format!("canary output rejected: {e}"))?;
            let snr = metrics::snr_db(&spec.reference, &field);
            if snr < floor || snr.is_nan() {
                return Err(format!("canary snr {snr:.2} dB below floor {floor:.2} dB"));
            }
        }
        Ok(())
    }

    /// Retire every displaced version whose last outside reference is
    /// gone; returns how many were dropped. Safe against racing lookups
    /// because cloning a slot's `Arc` requires the same lock held here:
    /// a strong count of 1 observed under the lock cannot concurrently
    /// grow. Cheap when nothing is draining — callers sprinkle it on
    /// session close, batch completion, and idle ticks.
    pub fn poll_drains(&self) -> usize {
        let mut inner = self.inner.lock().expect("registry lock");
        self.poll_drains_locked(&mut inner)
    }

    fn poll_drains_locked(&self, inner: &mut Inner) -> usize {
        let mut retired = 0usize;
        let mut i = 0usize;
        while i < inner.retiring.len() {
            let key = &inner.retiring[i].key;
            // Self-healing guard: a key that is (still or again) the
            // dataset's active version must never be retired out from
            // under new sessions — drop the stale retiring record.
            if inner.active.get(&key.0) == Some(&key.1) {
                inner.retiring.swap_remove(i);
                continue;
            }
            let drained = match inner.slots.get(&inner.retiring[i].key) {
                Some(slot) => Arc::strong_count(&slot.entry) == 1,
                None => true, // slot already gone; nothing left to free
            };
            if drained {
                let r = inner.retiring.swap_remove(i);
                if let Some(slot) = inner.slots.remove(&r.key) {
                    inner.bytes -= slot.entry.size_bytes;
                    TM_BYTES.set(inner.bytes as u64);
                }
                let dt = r.since.elapsed();
                TM_DRAIN.record_duration(dt);
                let ns = dt.as_nanos().min(u64::MAX as u128) as u64;
                self.drain_last_ns.store(ns, Ordering::Relaxed);
                self.drain_max_ns.fetch_max(ns, Ordering::Relaxed);
                TM_SWAP_RETIRED.incr();
                self.swap_retired.fetch_add(1, Ordering::Relaxed);
                retired += 1;
            } else {
                i += 1;
            }
        }
        retired
    }

    /// Lifecycle counters snapshot.
    pub fn swap_stats(&self) -> SwapStats {
        let draining = self.inner.lock().expect("registry lock").retiring.len();
        SwapStats {
            promoted: self.swap_promoted.load(Ordering::Relaxed),
            rejected: self.swap_rejected.load(Ordering::Relaxed),
            retired: self.swap_retired.load(Ordering::Relaxed),
            draining,
            last_drain_ms: self.drain_last_ns.load(Ordering::Relaxed) as f64 / 1e6,
            max_drain_ms: self.drain_max_ns.load(Ordering::Relaxed) as f64 / 1e6,
            canary_runs: self.canary_runs.load(Ordering::Relaxed),
            canary_ms_total: self.canary_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fillvoid_core::PipelineConfig;
    use fv_field::{Grid3, ScalarField};

    fn tiny_pipeline(seed: u64) -> FcnnPipeline {
        let g = Grid3::new([8, 8, 4]).unwrap();
        let f = ScalarField::from_world_fn(g, |p| (p[0] * 0.3).sin() as f32 + p[1] as f32 * 0.1);
        let mut cfg = PipelineConfig::small_for_tests();
        cfg.trainer.epochs = 2;
        FcnnPipeline::train(&f, &cfg, seed).unwrap()
    }

    #[test]
    fn lru_evicts_under_budget() {
        let p = tiny_pipeline(1);
        let mut bytes = Vec::new();
        p.write_to(&mut bytes).unwrap();
        let one = bytes.len();
        // Budget for two models: inserting a third evicts the LRU.
        let reg = ModelRegistry::new(one * 2 + one / 2);
        reg.insert("a", 0, p.clone()).unwrap();
        reg.insert("b", 0, p.clone()).unwrap();
        assert_eq!(reg.len(), 2);
        reg.get("a", 0).unwrap(); // touch "a": "b" becomes LRU
        reg.insert("c", 0, p.clone()).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.contains("a", 0) && reg.contains("c", 0));
        assert!(!reg.contains("b", 0));
        assert!(reg.bytes() <= reg.budget());
    }

    #[test]
    fn oversized_model_rejected_outright() {
        let p = tiny_pipeline(2);
        let reg = ModelRegistry::new(16);
        assert!(matches!(
            reg.insert("a", 0, p),
            Err(ServeError::BudgetExhausted { .. })
        ));
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn disk_roundtrip_via_fvpl_and_checkpoint_store() {
        let p = tiny_pipeline(3);
        let dir = std::env::temp_dir().join(format!("fv_serve_reg_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("hurricane")).unwrap();
        p.save(dir.join("hurricane/v1.fvpl")).unwrap();
        let mut store = CheckpointStore::open(dir.join("hurricane/v2"), 2).unwrap();
        store.save(&p).unwrap();

        let reg = ModelRegistry::new(64 << 20).with_root(&dir);
        let a = reg.get("hurricane", 1).unwrap();
        let b = reg.get("hurricane", 2).unwrap();
        assert_eq!(a.pipeline.mlp(), p.mlp());
        assert_eq!(b.pipeline.mlp(), p.mlp());
        assert!(matches!(
            reg.get("hurricane", 9),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            reg.get("../hurricane", 1),
            Err(ServeError::UnknownModel { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn promote_routes_new_lookups_and_drains_the_displaced_version() {
        let reg = ModelRegistry::new(64 << 20);
        reg.insert("h", 1, tiny_pipeline(10)).unwrap();
        assert_eq!(reg.active_version("h"), Some(1));

        // A "session" pins v1 the way SessionManager does: by Arc.
        let pinned = reg.get("h", 1).unwrap();

        reg.promote("h", 2, tiny_pipeline(11), true).unwrap();
        assert_eq!(reg.active_version("h"), Some(2));
        let s = reg.swap_stats();
        assert_eq!((s.promoted, s.retired, s.draining), (1, 0, 1));
        // v1 still resident and serving for its pinned session.
        assert!(reg.contains("h", 1) && reg.contains("h", 2));

        // Last reference drops -> v1 retires on the next poll.
        drop(pinned);
        assert_eq!(reg.poll_drains(), 1);
        let s = reg.swap_stats();
        assert_eq!((s.retired, s.draining), (1, 0));
        assert!(!reg.contains("h", 1));
        assert_eq!(reg.bytes(), reg.get("h", 2).unwrap().size_bytes);
    }

    #[test]
    fn stale_and_canary_failing_promotions_are_rejected_without_side_effects() {
        let reg = ModelRegistry::new(64 << 20);
        let v1 = tiny_pipeline(20);
        let g = Grid3::new([8, 8, 4]).unwrap();
        let f = ScalarField::from_world_fn(g, |p| (p[0] * 0.3).sin() as f32 + p[1] as f32 * 0.1);
        reg.insert("h", 1, v1.clone()).unwrap();

        // Stale: not newer than the active version.
        assert!(matches!(
            reg.promote("h", 1, tiny_pipeline(21), true),
            Err(ServeError::SwapRejected { .. })
        ));

        // Fingerprint canary pinned to v1's exact output: a different
        // model must be rejected, and nothing about the world changes.
        use fv_sampling::FieldSampler;
        let cloud = std::sync::Arc::new(fv_sampling::RandomSampler.sample(&f, 0.25, 77));
        let expect = fingerprint_f32(v1.reconstruct(&cloud, f.grid()).unwrap().values());
        reg.set_canary(
            "h",
            CanarySpec {
                cloud: cloud.clone(),
                reference: f.clone(),
                snr_floor_db: None,
                fingerprint: Some(expect),
            },
        );
        let before = reg.bytes();
        assert!(matches!(
            reg.promote("h", 2, tiny_pipeline(22), true),
            Err(ServeError::SwapRejected { .. })
        ));
        assert_eq!(reg.active_version("h"), Some(1));
        assert_eq!(reg.bytes(), before);
        assert!(!reg.contains("h", 2));

        // An impossible SNR floor rejects even a bitwise-matching model.
        reg.set_canary(
            "h",
            CanarySpec {
                cloud,
                reference: f,
                snr_floor_db: Some(f64::INFINITY),
                fingerprint: None,
            },
        );
        assert!(matches!(
            reg.promote("h", 2, v1.clone(), true),
            Err(ServeError::SwapRejected { .. })
        ));
        // validate=false bypasses the canary and succeeds.
        reg.promote("h", 2, v1, false).unwrap();
        assert_eq!(reg.active_version("h"), Some(2));
        let s = reg.swap_stats();
        assert_eq!(s.rejected, 3);
        assert_eq!(s.promoted, 1);
    }

    #[test]
    fn retiring_entries_are_exempt_from_lru_eviction() {
        let p = tiny_pipeline(30);
        let mut bytes = Vec::new();
        p.write_to(&mut bytes).unwrap();
        let one = bytes.len();
        // Budget holds 1.5 models: promoting v2 over a pinned v1 forces
        // the admission sweep to look for a victim, and the only
        // candidate is the version being drained. It must survive (the
        // budget overshoots) rather than be evicted to make room for
        // its own successor.
        let reg = ModelRegistry::new(one + one / 2);
        reg.insert("a", 1, p.clone()).unwrap();
        let pinned = reg.get("a", 1).unwrap();
        reg.promote("a", 2, p, true).unwrap();
        assert!(reg.contains("a", 1), "retiring v1 must survive eviction");
        assert!(reg.contains("a", 2));
        assert!(reg.bytes() > reg.budget(), "budget is soft while draining");
        drop(pinned);
        assert_eq!(reg.poll_drains(), 1);
        assert!(!reg.contains("a", 1));
        assert!(reg.bytes() <= reg.budget());
    }
}
