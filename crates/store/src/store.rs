//! The two-level content-addressed artifact store.
//!
//! # Failure model (see DESIGN §7)
//!
//! The disk layer is treated as untrusted: every read and write can fail
//! (or be failed on purpose by the [`faults`](crate::faults) layer), and
//! every file can be silently truncated or bit-rotted between a write and a
//! later read. The store's defenses, in order:
//!
//! 1. **Checksum footer** — every artifact file ends with a
//!    [`StableHasher`] digest of its body. Reads
//!    verify it *before* deserializing, so corruption is detected as a
//!    checksum mismatch, never as a serde error on garbage.
//! 2. **Bounded deterministic retry** — transient failures (IO errors,
//!    injected faults) are retried up to `MAX_IO_ATTEMPTS` times with a
//!    fixed exponential backoff (1, 2, 4 ms). Corruption is not retried:
//!    re-reading the same bytes cannot fix it.
//! 3. **Recompute, never propagate** — a failed read is a cache miss; a
//!    failed write just leaves the slot empty. Callers always get the
//!    correct value.
//! 4. **Degradation ladder** — after `DEGRADE_AFTER` *persistent*
//!    (post-retry) disk failures the store demotes itself to memory-only
//!    with a single `[artifact-store]` warning; the pipeline continues
//!    correct but uncached, instead of hammering a dead disk.

use crate::context;
use crate::error::{IoOp, StoreError};
use crate::faults::FaultInjector;
use crate::hash::StableHasher;
use crate::key::{ArtifactKey, STORE_FORMAT_VERSION};
use crate::stage::{Artifact, Persistence, Stage};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// On-disk artifact envelope: `(format version, stage name, payload)`. The
/// metadata lets the reader reject files written by an incompatible store
/// version or a different stage. (A tuple rather than a struct because the
/// workspace's offline serde shim does not derive generic structs.)
type Envelope<T> = (u32, String, T);

/// Marker introducing the checksum footer appended after the JSON body.
/// The body itself is compact JSON (no raw newlines), so searching for the
/// marker from the end of the file is unambiguous.
const CHECKSUM_MARKER: &[u8] = b"\n#structmine-checksum-fnv128:";

/// First try + up to three retries for transient disk failures.
const MAX_IO_ATTEMPTS: u32 = 4;

/// Persistent (post-retry) disk failures tolerated before the store
/// demotes itself to memory-only.
const DEGRADE_AFTER: u64 = 3;

/// Deterministic backoff before retry `attempt` (1-based): 1, 2, 4 ms.
fn backoff_delay(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(1u64 << (attempt - 1).min(4))
}

/// Hit/miss counters (monotonic, process-wide per store).
#[derive(Default)]
struct Stats {
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    disk_writes: AtomicU64,
    checksum_failures: AtomicU64,
    decode_failures: AtomicU64,
    injected_faults: AtomicU64,
    io_retries: AtomicU64,
    persistent_failures: AtomicU64,
}

/// A point-in-time copy of a store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Artifacts served from the in-process `Arc` layer.
    pub mem_hits: u64,
    /// Artifacts deserialized from disk.
    pub disk_hits: u64,
    /// Artifacts that had to be computed.
    pub misses: u64,
    /// Artifacts written to disk.
    pub disk_writes: u64,
    /// Reads rejected by the checksum footer (truncation / bit-rot),
    /// *before* any deserialization was attempted.
    pub checksum_failures: u64,
    /// Reads whose body passed the checksum but failed to decode
    /// (encoder/decoder bug, not disk corruption).
    pub decode_failures: u64,
    /// Faults injected by the [`faults`](crate::faults) layer into this
    /// store's operations.
    pub injected_faults: u64,
    /// Retries performed after transient failures.
    pub io_retries: u64,
    /// Operations that still failed after every retry.
    pub persistent_failures: u64,
    /// True once the store has demoted itself to memory-only.
    pub degraded: bool,
}

impl StatsSnapshot {
    /// Total cache hits across both layers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }
}

/// A content-addressed artifact store: in-process `Arc` layer over a disk
/// layer of JSON files named by [`ArtifactKey`].
pub struct ArtifactStore {
    /// Disk directory; `None` disables the disk layer.
    dir: Option<PathBuf>,
    /// `false` disables the in-process layer too (full recompute mode).
    memory_enabled: bool,
    mem: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    stats: Stats,
    /// When set, every [`Stats`] increment is mirrored into the global
    /// [`obs`](crate::obs) counter registry under `<scope>.<counter>`, so
    /// the run report's counters match this store's `[artifact-store]`
    /// summary by construction. The process-wide store uses `"store"`, the
    /// PLM cache `"plm"`; anonymous (test) stores mirror nothing.
    scope: Option<String>,
    /// Fault injector consulted by every disk operation. Stores built from
    /// the environment share [`FaultInjector::global`]; tests may pin a
    /// private injector (or [`FaultInjector::none`]).
    faults: Arc<FaultInjector>,
    /// Set once [`DEGRADE_AFTER`] persistent failures have accumulated;
    /// from then on the disk layer is bypassed entirely.
    degraded: AtomicBool,
    /// Persistent (post-retry) disk failure count, driving degradation.
    disk_failures: AtomicU64,
}

impl ArtifactStore {
    fn new(dir: Option<PathBuf>, memory_enabled: bool, faults: Arc<FaultInjector>) -> Self {
        ArtifactStore {
            dir,
            memory_enabled,
            mem: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            scope: None,
            faults,
            degraded: AtomicBool::new(false),
            disk_failures: AtomicU64::new(0),
        }
    }

    /// A store persisting to `dir` (created lazily on first write), subject
    /// to the process-wide fault plan (`STRUCTMINE_FAULTS`), if any.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore::new(Some(dir.into()), true, Arc::clone(FaultInjector::global()))
    }

    /// A store persisting to `dir` under an explicit fault injector —
    /// deterministic fault tests build their own injector per store.
    pub fn with_dir_and_faults(dir: impl Into<PathBuf>, faults: Arc<FaultInjector>) -> Self {
        ArtifactStore::new(Some(dir.into()), true, faults)
    }

    /// A store with only the in-process layer.
    pub fn memory_only() -> Self {
        ArtifactStore::new(None, true, FaultInjector::none())
    }

    /// A fully disabled store: every lookup recomputes.
    pub fn disabled() -> Self {
        ArtifactStore::new(None, false, FaultInjector::none())
    }

    /// Build from the environment (see crate docs for the variables).
    pub fn from_env() -> Self {
        if std::env::var_os("STRUCTMINE_NO_CACHE").is_some() {
            return ArtifactStore::disabled();
        }
        if std::env::var_os("STRUCTMINE_STORE_NO_DISK").is_some() {
            return ArtifactStore::memory_only();
        }
        let dir = std::env::var_os("STRUCTMINE_STORE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("structmine-store"));
        ArtifactStore::with_dir(dir)
    }

    /// Mirror this store's counters into the global [`obs`](crate::obs)
    /// registry under `<scope>.<counter>` (e.g. `store.mem_hits`).
    pub fn with_scope(mut self, scope: impl Into<String>) -> Self {
        self.scope = Some(scope.into());
        self
    }

    /// Increment one stat, mirroring it into [`obs`](crate::obs) when this
    /// store has a scope.
    fn bump(&self, stat: &AtomicU64, counter: crate::obs::Counter) {
        stat.fetch_add(1, Ordering::Relaxed);
        if let Some(scope) = &self.scope {
            crate::obs::count(scope, counter, 1);
        }
    }

    /// The disk directory, if the disk layer is enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// True once the store has demoted itself to memory-only after
    /// persistent disk failures.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Run a [`Stage`] memoized: return the stored artifact when the key
    /// hits, otherwise compute, store, and return. Under `STRUCTMINE_LEASE`
    /// (set by the shard coordinator for its workers) disk-persisted stages
    /// additionally go through the cross-process lease protocol so sibling
    /// worker processes never compute the same stage twice.
    pub fn run<S: Stage>(&self, stage: &S) -> Arc<S::Output> {
        if crate::lease::enabled() {
            return self.run_leased(stage);
        }
        self.get_or_compute(&stage.key(), stage.persistence(), || stage.compute())
    }

    /// Run a [`Stage`] under the cross-process lease protocol (see
    /// [`lease`](crate::lease)): claim the stage key before computing; on a
    /// lost claim, wait for the holder's artifact to land on disk instead
    /// of recomputing. Falls back to a plain compute when the disk layer is
    /// unavailable or the wait cap expires — leases are an optimization,
    /// never a correctness gate.
    pub fn run_leased<S: Stage>(&self, stage: &S) -> Arc<S::Output> {
        let key = stage.key();
        let persistence = stage.persistence();
        if let Some(hit) = self.peek(&key, persistence) {
            return hit;
        }
        let leasable =
            self.dir.is_some() && !self.is_degraded() && persistence != Persistence::MemoryOnly;
        if !leasable {
            return self.get_or_compute(&key, persistence, || stage.compute());
        }
        let leases = crate::lease::lease_dir(self.dir.as_deref().expect("leasable implies dir"));
        let id = key.id();
        let deadline = std::time::Instant::now() + crate::lease::LEASE_WAIT_CAP;
        loop {
            match crate::lease::Lease::try_acquire(&leases, &id) {
                Some(_claim) => {
                    // Re-check under the claim: the previous holder may have
                    // published between our peek and our acquire.
                    if let Some(hit) = self.peek(&key, persistence) {
                        return hit;
                    }
                    return self.get_or_compute(&key, persistence, || stage.compute());
                }
                None => {
                    if let Some(hit) = self.peek(&key, persistence) {
                        return hit;
                    }
                    if std::time::Instant::now() >= deadline {
                        // A live holder that never publishes (e.g. its disk
                        // writes keep failing). Duplicate the work locally —
                        // correct, just not shared.
                        crate::obs::log_warn(&format!(
                            "[lease] wait cap expired on {}; computing locally",
                            key.stage
                        ));
                        return self.get_or_compute(&key, persistence, || stage.compute());
                    }
                    std::thread::sleep(crate::lease::LEASE_POLL);
                }
            }
        }
    }

    /// Insert an externally computed value under a stage's key — the shard
    /// coordinator uses this to publish a merged artifact (assembled from
    /// per-shard pieces) so downstream single-process consumers find it
    /// warm under the canonical key. Publishing is authoritative: it
    /// overwrites any in-memory memo for the key.
    pub fn publish<S: Stage>(&self, stage: &S, value: S::Output) -> Arc<S::Output> {
        let key = stage.key();
        let persistence = stage.persistence();
        let arc = Arc::new(value);
        let degraded = self.is_degraded();
        let use_mem = self.memory_enabled && (persistence != Persistence::DiskOnly || degraded);
        let use_disk = self.dir.is_some() && !degraded && persistence != Persistence::MemoryOnly;
        if use_disk {
            if let Err(e) = self.write_disk(&key, arc.as_ref()) {
                self.note_persistent_failure(&e);
            }
        }
        if use_mem || (self.memory_enabled && self.is_degraded()) {
            let clone: Arc<dyn Any + Send + Sync> = Arc::clone(&arc) as Arc<dyn Any + Send + Sync>;
            self.mem.lock().insert(key.id(), clone);
        }
        arc
    }

    /// Memoize an ad-hoc computation under `key`.
    ///
    /// This never fails: any disk-layer error ([`StoreError`]) is
    /// classified, counted, retried if transient, and ultimately converted
    /// into "recompute" — the caller always receives the correct value.
    pub fn get_or_compute<T: Artifact>(
        &self,
        key: &ArtifactKey,
        persistence: Persistence,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(hit) = self.peek(key, persistence) {
            return hit;
        }
        let id = key.id();
        let degraded = self.is_degraded();
        // After demotion, disk-only artifacts are held in memory instead:
        // correct (just uncached across processes), and it prevents a dead
        // disk from turning every checkpoint lookup into a recompute.
        let use_mem = self.memory_enabled && (persistence != Persistence::DiskOnly || degraded);
        let use_disk = self.dir.is_some() && !degraded && persistence != Persistence::MemoryOnly;

        self.bump(&self.stats.misses, crate::obs::Counter::Misses);
        let arc = Arc::new(context::with_stage_label(&key.stage, compute));
        if use_disk && !self.is_degraded() {
            if let Err(e) = self.write_disk(key, arc.as_ref()) {
                self.note_persistent_failure(&e);
            }
        }
        if use_mem || (self.memory_enabled && self.is_degraded()) {
            self.memoize(&id, &arc);
        }
        arc
    }

    /// Look up `key` in the configured layers *without* computing on a
    /// miss. A hit bumps the usual hit counters (and memoizes a disk hit);
    /// a miss bumps nothing — the caller decides whether to compute.
    /// [`ArtifactStore::get_or_compute`] probes with it before computing,
    /// and [`ArtifactStore::run_leased`] while it waits on a sibling
    /// process's lease.
    pub fn peek<T: Artifact>(&self, key: &ArtifactKey, persistence: Persistence) -> Option<Arc<T>> {
        let id = key.id();
        let degraded = self.is_degraded();
        let use_mem = self.memory_enabled && (persistence != Persistence::DiskOnly || degraded);
        let use_disk = self.dir.is_some() && !degraded && persistence != Persistence::MemoryOnly;

        if use_mem {
            if let Some(hit) = self.mem.lock().get(&id) {
                if let Ok(typed) = Arc::clone(hit).downcast::<T>() {
                    self.bump(&self.stats.mem_hits, crate::obs::Counter::MemHits);
                    return Some(typed);
                }
            }
        }
        if use_disk {
            match self.read_disk::<T>(key) {
                Ok(Some(payload)) => {
                    self.bump(&self.stats.disk_hits, crate::obs::Counter::DiskHits);
                    let arc = Arc::new(payload);
                    if use_mem {
                        self.memoize(&id, &arc);
                    }
                    return Some(arc);
                }
                Ok(None) => {} // clean miss (absent or stale artifact)
                Err(e) => self.note_read_failure(&e), // failed read = miss
            }
        }
        None
    }

    fn memoize<T: Artifact>(&self, id: &str, arc: &Arc<T>) {
        let clone: Arc<dyn Any + Send + Sync> = Arc::clone(arc) as Arc<dyn Any + Send + Sync>;
        self.mem.lock().entry(id.to_string()).or_insert(clone);
    }

    /// Drop every in-process artifact (disk files are kept). Long-running
    /// harnesses call this between experiments to bound memory.
    pub fn clear_memory(&self) {
        self.mem.lock().clear();
    }

    /// Classify a failed read. Corruption (checksum/decode) is counted but
    /// does not threaten the disk layer — the recompute below repairs the
    /// slot. IO-level persistent failures feed the degradation ladder.
    fn note_read_failure(&self, e: &StoreError) {
        match e {
            StoreError::ChecksumMismatch { .. } | StoreError::MissingChecksum { .. } => {
                self.bump(
                    &self.stats.checksum_failures,
                    crate::obs::Counter::ChecksumFailures,
                );
            }
            StoreError::Decode { .. } => {
                self.bump(
                    &self.stats.decode_failures,
                    crate::obs::Counter::DecodeFailures,
                );
            }
            _ => self.note_persistent_failure(e),
        }
    }

    /// Record a persistent (post-retry) disk failure; after
    /// [`DEGRADE_AFTER`] of them, demote to memory-only with one warning.
    fn note_persistent_failure(&self, e: &StoreError) {
        self.bump(
            &self.stats.persistent_failures,
            crate::obs::Counter::PersistentFailures,
        );
        let n = self.disk_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= DEGRADE_AFTER && !self.degraded.swap(true, Ordering::Relaxed) {
            if let Some(scope) = &self.scope {
                crate::obs::count(scope, crate::obs::Counter::Degradations, 1);
            }
            // Scoped stores are the long-lived, process-level ones; their
            // demotion is a process-health fact `/healthz` should surface.
            if let Some(scope) = &self.scope {
                crate::health::note_degraded(&format!("{scope}: demoted to memory-only"));
            }
            crate::obs::log_warn(&format!(
                "[artifact-store] WARNING: {n} persistent disk failures (last: {e}); \
                 demoting to memory-only — results stay correct but are no longer persisted"
            ));
        }
    }

    /// Run one transient-retryable disk operation with bounded
    /// deterministic backoff. Non-transient errors (corruption) abort the
    /// loop immediately; transient ones retry up to [`MAX_IO_ATTEMPTS`].
    fn with_retries<R>(
        &self,
        op: IoOp,
        path: &Path,
        mut attempt_fn: impl FnMut() -> Result<R, StoreError>,
    ) -> Result<R, StoreError> {
        let mut attempt = 1;
        loop {
            match attempt_fn() {
                Ok(r) => return Ok(r),
                Err(e) => {
                    if matches!(e, StoreError::InjectedFault { .. }) {
                        self.bump(
                            &self.stats.injected_faults,
                            crate::obs::Counter::InjectedFaults,
                        );
                    }
                    if !e.is_transient() {
                        return Err(e);
                    }
                    if attempt >= MAX_IO_ATTEMPTS {
                        return Err(StoreError::RetriesExhausted {
                            op,
                            path: path.to_path_buf(),
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                    self.bump(&self.stats.io_retries, crate::obs::Counter::IoRetries);
                    std::thread::sleep(backoff_delay(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Read and verify one artifact. `Ok(None)` is a clean miss (no file,
    /// or a stale format/stage — both expected); `Err` is a real failure.
    fn read_disk<T: Artifact>(&self, key: &ArtifactKey) -> Result<Option<T>, StoreError> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(None);
        };
        let path = dir.join(key.file_name());
        let bytes = match self.with_retries(IoOp::Read, &path, || {
            self.faults.before_read(&path)?;
            match std::fs::read(&path) {
                Ok(b) => Ok(Some(b)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(StoreError::Io {
                    op: IoOp::Read,
                    path: path.clone(),
                    source: e,
                }),
            }
        })? {
            Some(b) => b,
            None => return Ok(None),
        };

        // Verify the checksum footer BEFORE deserializing: truncation and
        // bit-rot must fail closed here, never reach the decoder.
        let (body, recorded) =
            split_checksum(&bytes).ok_or(StoreError::MissingChecksum { path: path.clone() })?;
        let actual = checksum_of(body);
        if actual != recorded {
            return Err(StoreError::ChecksumMismatch {
                path,
                expected: recorded,
                actual,
            });
        }

        let (format, stage, payload): Envelope<T> =
            serde_json::from_slice(body).map_err(|e| StoreError::Decode {
                path: path.clone(),
                message: format!("{e:?}"),
            })?;
        // Version/stage mismatches are expected invalidations, not errors.
        if format != STORE_FORMAT_VERSION || stage != key.stage {
            return Ok(None);
        }
        Ok(Some(payload))
    }

    /// Serialize, checksum, and atomically persist one artifact.
    fn write_disk<T: Artifact>(&self, key: &ArtifactKey, payload: &T) -> Result<(), StoreError> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        let env: Envelope<&T> = (STORE_FORMAT_VERSION, key.stage.clone(), payload);
        let mut bytes = serde_json::to_vec(&env).map_err(|e| StoreError::Decode {
            path: dir.join(key.file_name()),
            message: format!("serialize: {e:?}"),
        })?;
        let digest = checksum_of(&bytes);
        bytes.extend_from_slice(CHECKSUM_MARKER);
        bytes.extend_from_slice(format!("{digest:032x}").as_bytes());

        let path = dir.join(key.file_name());
        self.with_retries(IoOp::Write, &path, || {
            self.faults.before_write(&path)?;
            let io = |e: std::io::Error| StoreError::Io {
                op: IoOp::Write,
                path: path.clone(),
                source: e,
            };
            std::fs::create_dir_all(dir).map_err(io)?;
            // Write to a private temp file, then atomically rename into
            // place: a reader never observes a torn artifact, and the slot
            // always holds some complete artifact no matter how many
            // writers race. The temp name carries pid *and* a process-local
            // sequence number so concurrent threads of one process cannot
            // interleave writes either.
            static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("tmp-{}-{seq}", std::process::id()));
            let result = std::fs::write(&tmp, &bytes)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(io);
            if result.is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
            result
        })?;
        self.bump(&self.stats.disk_writes, crate::obs::Counter::DiskWrites);
        // The fault layer may corrupt the completed file (truncate faults)
        // or crash the process here (kill_after_writes) — both simulate
        // hazards that strike *after* a successful write.
        self.faults.after_write_success(&path);
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            mem_hits: self.stats.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            disk_writes: self.stats.disk_writes.load(Ordering::Relaxed),
            checksum_failures: self.stats.checksum_failures.load(Ordering::Relaxed),
            decode_failures: self.stats.decode_failures.load(Ordering::Relaxed),
            injected_faults: self.stats.injected_faults.load(Ordering::Relaxed),
            io_retries: self.stats.io_retries.load(Ordering::Relaxed),
            persistent_failures: self.stats.persistent_failures.load(Ordering::Relaxed),
            degraded: self.is_degraded(),
        }
    }

    /// One-line human- and grep-friendly summary of the counters, e.g. for
    /// a table binary to log after its run. Fault/failure counters appear
    /// only when nonzero, so fault-free runs keep the familiar short line.
    pub fn summary(&self) -> String {
        let s = self.stats();
        let dir = match (&self.dir, self.memory_enabled) {
            (Some(d), _) if s.degraded => format!("DEGRADED to memory-only, was {}", d.display()),
            (Some(d), _) => format!("dir {}", d.display()),
            (None, true) => "memory only".to_string(),
            (None, false) => "disabled".to_string(),
        };
        let mut line = format!(
            "[artifact-store] hits={} (mem_hits={} disk_hits={}) misses={} disk_writes={}",
            s.hits(),
            s.mem_hits,
            s.disk_hits,
            s.misses,
            s.disk_writes
        );
        if s.checksum_failures
            + s.decode_failures
            + s.injected_faults
            + s.io_retries
            + s.persistent_failures
            > 0
        {
            line.push_str(&format!(
                " faults(injected={} retries={} persistent={} checksum={} decode={})",
                s.injected_faults,
                s.io_retries,
                s.persistent_failures,
                s.checksum_failures,
                s.decode_failures
            ));
        }
        line.push_str(&format!(" ({dir})"));
        line
    }
}

/// Checksum of an artifact body: the store's own stable 128-bit digest.
fn checksum_of(body: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write_bytes(body);
    h.finish()
}

/// Split `bytes` into (body, recorded checksum) at the footer marker.
/// Returns `None` when the marker or a parseable digest is absent.
fn split_checksum(bytes: &[u8]) -> Option<(&[u8], u128)> {
    // Search from the end: the footer is the last thing written, and the
    // compact-JSON body contains no raw newlines.
    let pos = bytes
        .windows(CHECKSUM_MARKER.len())
        .rposition(|w| w == CHECKSUM_MARKER)?;
    let body = &bytes[..pos];
    let hex = std::str::from_utf8(&bytes[pos + CHECKSUM_MARKER.len()..]).ok()?;
    let digest = u128::from_str_radix(hex.trim(), 16).ok()?;
    Some((body, digest))
}

static GLOBAL: OnceLock<ArtifactStore> = OnceLock::new();

/// The process-wide store, configured from the environment on first use.
/// CLI flags that must influence it (`--no-cache`, `--cache-dir`,
/// `--faults`) set the corresponding environment variables before any
/// store access.
pub fn global() -> &'static ArtifactStore {
    GLOBAL.get_or_init(|| ArtifactStore::from_env().with_scope("store"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{env_active, FaultPlan};
    use crate::hash::StableHasher;
    use std::sync::atomic::AtomicUsize;

    struct Doubler {
        input: Vec<u32>,
        version: u32,
        calls: AtomicUsize,
    }

    impl Stage for Doubler {
        type Output = Vec<u32>;
        fn name(&self) -> &'static str {
            "test/doubler"
        }
        fn version(&self) -> u32 {
            self.version
        }
        fn fingerprint(&self, h: &mut StableHasher) {
            crate::StableHash::stable_hash(&self.input, h);
        }
        fn compute(&self) -> Vec<u32> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.input.iter().map(|x| x * 2).collect()
        }
    }

    fn doubler(input: Vec<u32>, version: u32) -> Doubler {
        Doubler {
            input,
            version,
            calls: AtomicUsize::new(0),
        }
    }

    fn tmp_store(tag: &str) -> (ArtifactStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "structmine-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::with_dir(&dir), dir)
    }

    // NOTE on `env_active()` guards: the CI fault-injection smoke job runs
    // this suite under `STRUCTMINE_FAULTS=disk_write=0.3;seed=7`. Output
    // *values* must then still be correct (asserted unconditionally), but
    // exact hit/miss/recompute counts legitimately differ, so counter
    // assertions are skipped under an active environment fault plan.

    #[test]
    fn warm_read_equals_cold_compute_bitwise() {
        let (store, dir) = tmp_store("warm");
        let s = doubler(vec![1, 2, 3], 1);
        let cold = store.run(&s);
        assert_eq!(*cold, vec![2, 4, 6]);

        // Same process: memory hit.
        let warm_mem = store.run(&s);
        assert_eq!(*cold, *warm_mem);

        // Fresh store over the same dir: disk hit, byte-identical payload.
        let store2 = ArtifactStore::with_dir(&dir);
        let warm_disk = store2.run(&s);
        assert_eq!(*cold, *warm_disk);
        if !env_active() {
            assert_eq!(s.calls.load(Ordering::Relaxed), 1, "must not recompute");
            assert_eq!(store2.stats().disk_hits, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bump_invalidates() {
        let (store, dir) = tmp_store("version");
        let v1 = doubler(vec![5], 1);
        store.run(&v1);
        assert!(v1.calls.load(Ordering::Relaxed) >= 1);
        let v2 = doubler(vec![5], 2);
        store.run(&v2);
        assert!(
            v2.calls.load(Ordering::Relaxed) >= 1,
            "bumped version must recompute"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_and_truncated_artifacts_are_recomputed_via_checksum() {
        let (store, dir) = tmp_store("corrupt");
        let s = doubler(vec![7, 8], 1);
        let good = store.run(&s);
        let path = dir.join(s.key().file_name());
        if !path.exists() {
            assert!(env_active(), "write must succeed in a fault-free run");
            return;
        }

        let intact = std::fs::read(&path).unwrap();
        // Three corruption shapes: footer-preserving body corruption, a
        // mid-file truncation (footer gone), and an empty file.
        let half = intact.len() / 2;
        let cases: Vec<Vec<u8>> = vec![
            {
                let mut v = intact.clone();
                v[2] ^= 0xff; // bit-rot inside the JSON body
                v
            },
            intact[..half].to_vec(),
            Vec::new(),
        ];
        for garbage in cases {
            std::fs::write(&path, &garbage).unwrap();
            let fresh = ArtifactStore::with_dir(&dir);
            let back = fresh.run(&s);
            assert_eq!(*good, *back, "corrupt file must be recomputed");
            if !env_active() {
                let st = fresh.stats();
                assert_eq!(st.misses, 1);
                assert_eq!(st.disk_writes, 1, "slot must be repaired");
                // The failure must be caught by the checksum footer, not by
                // feeding garbage to the deserializer.
                assert_eq!(st.checksum_failures, 1, "must fail closed via checksum");
                assert_eq!(st.decode_failures, 0, "serde must never see garbage");
            }
        }
        // After the repair, a fresh store reads it from disk again.
        let fresh = ArtifactStore::with_dir(&dir);
        let back = fresh.run(&s);
        assert_eq!(*good, *back);
        if !env_active() {
            assert_eq!(fresh.stats().disk_hits, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_format_version_on_disk_is_ignored() {
        let (store, dir) = tmp_store("format");
        let s = doubler(vec![9], 1);
        store.run(&s);
        let path = dir.join(s.key().file_name());
        if !path.exists() {
            assert!(env_active(), "write must succeed in a fault-free run");
            return;
        }
        let bytes = std::fs::read(&path).unwrap();
        let (body, _) = split_checksum(&bytes).expect("fresh artifact must carry a footer");
        let text = std::str::from_utf8(body).unwrap();
        // The envelope is `[format, stage, payload]`; bump the leading
        // format number, then re-checksum so only the version mismatches.
        let bumped = text.replacen(
            &format!("[{STORE_FORMAT_VERSION},"),
            &format!("[{},", STORE_FORMAT_VERSION + 1),
            1,
        );
        assert_ne!(text, bumped, "envelope must lead with the format field");
        let mut rewritten = bumped.into_bytes();
        let digest = checksum_of(&rewritten);
        rewritten.extend_from_slice(CHECKSUM_MARKER);
        rewritten.extend_from_slice(format!("{digest:032x}").as_bytes());
        std::fs::write(&path, rewritten).unwrap();
        let fresh = ArtifactStore::with_dir(&dir);
        let back = fresh.run(&s);
        assert_eq!(*back, vec![18]);
        if !env_active() {
            let st = fresh.stats();
            assert_eq!(st.misses, 1, "future-format file must be ignored");
            assert_eq!(
                st.checksum_failures, 0,
                "a well-formed future-format file is stale, not corrupt"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_leave_a_complete_artifact() {
        let (_, dir) = tmp_store("race");
        let s = doubler((0..512).collect(), 1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        // Each iteration uses a cold store so every call
                        // races through the disk write path.
                        let store = ArtifactStore::disabled_memory_with_dir(&dir);
                        store.run(&s);
                    }
                });
            }
        });
        // Whatever writer won, the slot must hold a complete artifact.
        let reader = ArtifactStore::with_dir(&dir);
        let back = reader.run(&s);
        assert_eq!(*back, s.compute());
        if !env_active() {
            assert_eq!(reader.stats().disk_hits, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistence_modes_route_layers() {
        let (store, dir) = tmp_store("persist");
        let key = ArtifactKey::new("test/mem", 1, |h| h.write_u64(1));
        let a = store.get_or_compute(&key, Persistence::MemoryOnly, || vec![1u32]);
        assert!(!dir.join(key.file_name()).exists(), "MemoryOnly wrote disk");
        let b = store.get_or_compute(&key, Persistence::MemoryOnly, || vec![2u32]);
        assert_eq!(*a, *b, "memory layer must serve the first value");
        assert_eq!(store.stats().mem_hits, 1);

        let key2 = ArtifactKey::new("test/disk", 1, |h| h.write_u64(2));
        let c = store.get_or_compute(&key2, Persistence::DiskOnly, || vec![3u32]);
        let d = store.get_or_compute(&key2, Persistence::DiskOnly, || vec![4u32]);
        if !env_active() {
            assert!(dir.join(key2.file_name()).exists());
            assert_eq!(*c, *d, "DiskOnly must serve the persisted value");
            assert_eq!(store.stats().disk_hits, 1, "DiskOnly must skip memory");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_always_recomputes() {
        let store = ArtifactStore::disabled();
        let s = doubler(vec![1], 1);
        store.run(&s);
        store.run(&s);
        assert_eq!(s.calls.load(Ordering::Relaxed), 2);
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.stats().hits(), 0);
    }

    #[test]
    fn clear_memory_falls_back_to_disk() {
        let (store, dir) = tmp_store("clear");
        let s = doubler(vec![6], 1);
        let first = store.run(&s);
        store.clear_memory();
        let second = store.run(&s);
        assert_eq!(*first, *second);
        if !env_active() {
            assert_eq!(s.calls.load(Ordering::Relaxed), 1);
            assert_eq!(store.stats().disk_hits, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_retried_through() {
        // One injected failure per operation at most: p=0.5 with this seed
        // yields a mix of clean and faulted attempts, and every operation
        // still succeeds within the retry budget.
        let (_, dir) = tmp_store("retry");
        let inj = FaultInjector::with_plan(FaultPlan {
            disk_write: 0.25,
            disk_read: 0.25,
            seed: 1,
            ..Default::default()
        });
        let store = ArtifactStore::with_dir_and_faults(&dir, inj);
        for i in 0..16u32 {
            let s = doubler(vec![i], 1);
            assert_eq!(*store.run(&s), vec![i * 2]);
        }
        let st = store.stats();
        assert!(st.injected_faults > 0, "p=0.25 over 32+ ops must inject");
        assert!(st.io_retries > 0, "injected faults must be retried");
        // Deterministic seed: with p=0.25 and a 4-attempt budget this seed
        // never exhausts the retries, so no persistent failures accrue.
        assert_eq!(st.persistent_failures, 0);
        assert!(!st.degraded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn total_disk_failure_degrades_to_memory_only_and_stays_correct() {
        let (_, dir) = tmp_store("degrade");
        let inj = FaultInjector::with_plan(FaultPlan {
            disk_write: 1.0,
            seed: 5,
            ..Default::default()
        });
        let store = ArtifactStore::with_dir_and_faults(&dir, inj);
        let mut outputs = Vec::new();
        for i in 0..6u32 {
            let s = doubler(vec![i, i + 1], 1);
            outputs.push((*store.run(&s)).clone());
        }
        assert_eq!(
            outputs,
            (0..6u32)
                .map(|i| vec![i * 2, (i + 1) * 2])
                .collect::<Vec<_>>(),
            "results must stay correct through degradation"
        );
        let st = store.stats();
        assert!(st.degraded, "p=1.0 writes must trip the degradation ladder");
        assert_eq!(st.persistent_failures, DEGRADE_AFTER);
        assert_eq!(st.disk_writes, 0);
        // Memory layer still works after demotion.
        let s = doubler(vec![0, 1], 1);
        let again = store.run(&s);
        assert_eq!(*again, vec![0, 2]);
        assert!(store.stats().mem_hits >= 1, "degraded store still memoizes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_store_holds_disk_only_artifacts_in_memory() {
        let (_, dir) = tmp_store("degrade-diskonly");
        let inj = FaultInjector::with_plan(FaultPlan {
            disk_write: 1.0,
            seed: 2,
            ..Default::default()
        });
        let store = ArtifactStore::with_dir_and_faults(&dir, inj);
        // Trip the ladder.
        for i in 0..DEGRADE_AFTER as u32 {
            store.run(&doubler(vec![100 + i], 1));
        }
        assert!(store.is_degraded());
        // A DiskOnly artifact must now be served from memory, not
        // recomputed every call.
        let key = ArtifactKey::new("test/ckpt", 1, |h| h.write_u64(9));
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::Relaxed);
            vec![42u32]
        };
        store.get_or_compute(&key, Persistence::DiskOnly, compute);
        store.get_or_compute(&key, Persistence::DiskOnly, compute);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "demoted store must hold DiskOnly artifacts in memory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_fault_is_caught_by_checksum_not_serde() {
        let (_, dir) = tmp_store("truncate");
        let inj = FaultInjector::with_plan(FaultPlan {
            truncate: 1.0,
            seed: 4,
            ..Default::default()
        });
        let store = ArtifactStore::with_dir_and_faults(&dir, inj);
        let s = doubler(vec![3, 4, 5], 1);
        let first = store.run(&s);
        assert_eq!(*first, vec![6, 8, 10]);
        // The write completed but the file was silently halved. A fresh,
        // fault-free store must detect it via the checksum and recompute.
        let clean = ArtifactStore::with_dir_and_faults(&dir, FaultInjector::none());
        let back = clean.run(&s);
        assert_eq!(*back, vec![6, 8, 10]);
        let st = clean.stats();
        assert_eq!(st.checksum_failures, 1, "truncation must fail closed");
        assert_eq!(st.decode_failures, 0);
        assert_eq!(st.misses, 1);
        assert_eq!(st.disk_writes, 1, "slot must be repaired");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_footer_round_trips() {
        let body = br#"[2,"stage",[1,2,3]]"#.to_vec();
        let digest = checksum_of(&body);
        let mut file = body.clone();
        file.extend_from_slice(CHECKSUM_MARKER);
        file.extend_from_slice(format!("{digest:032x}").as_bytes());
        let (split_body, split_digest) = split_checksum(&file).unwrap();
        assert_eq!(split_body, &body[..]);
        assert_eq!(split_digest, digest);
        assert!(split_checksum(&body).is_none(), "no footer, no split");
        assert!(split_checksum(b"").is_none());
    }

    mod fail_closed {
        use super::*;
        use proptest::prelude::*;

        /// A fault-free store in a fresh directory, the key of a `Vec<u32>`
        /// artifact, and the path its file lives at.
        fn fixture(tag: &str) -> (ArtifactStore, ArtifactKey, PathBuf) {
            let (_, dir) = tmp_store(tag);
            std::fs::create_dir_all(&dir).unwrap();
            let store = ArtifactStore::with_dir_and_faults(&dir, FaultInjector::none());
            let key = ArtifactKey::new("test/fail-closed", 1, |h| h.write_u64(7));
            let path = dir.join(key.file_name());
            (store, key, path)
        }

        /// The bytes `write_disk` persists for `payload`.
        fn artifact_file(store: &ArtifactStore, key: &ArtifactKey, payload: &[u32]) -> Vec<u8> {
            store.write_disk(key, &payload.to_vec()).unwrap();
            std::fs::read(store.dir().unwrap().join(key.file_name())).unwrap()
        }

        /// Read `bytes` back through the checksummed decode.
        fn read(
            store: &ArtifactStore,
            key: &ArtifactKey,
            path: &Path,
            bytes: &[u8],
        ) -> Result<Option<Vec<u32>>, StoreError> {
            std::fs::write(path, bytes).unwrap();
            store.read_disk::<Vec<u32>>(key)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Arbitrary bytes, with and without a footer marker in them or
            /// a valid footer after them: the footer split and the
            /// checksummed decode return a value or a typed error, never a
            /// panic.
            #[test]
            fn arbitrary_bytes_never_panic(
                bytes in proptest::collection::vec(0u8..255, 0..200),
                with_marker in 0u8..2,
            ) {
                let (store, key, path) = fixture("fail-closed-arbitrary");
                let mut bytes = bytes;
                if with_marker == 1 {
                    let at = bytes.len() / 2;
                    bytes.splice(at..at, CHECKSUM_MARKER.iter().copied());
                }
                if let Some((body, _)) = split_checksum(&bytes) {
                    prop_assert!(bytes.starts_with(body));
                }
                let _ = read(&store, &key, &path, &bytes);
                let mut footed = bytes.clone();
                footed.extend_from_slice(CHECKSUM_MARKER);
                footed.extend_from_slice(format!("{:032x}", checksum_of(&bytes)).as_bytes());
                let _ = read(&store, &key, &path, &footed);
                let _ = std::fs::remove_dir_all(path.parent().unwrap());
            }

            /// Every truncation of a valid file fails closed: a missing or
            /// mismatched footer, never a decoded value.
            #[test]
            fn truncated_files_fail_closed(
                payload in proptest::collection::vec(0u32..1_000_000, 0..40),
                cut in 0.0f64..1.0,
            ) {
                let (store, key, path) = fixture("fail-closed-truncated");
                let file = artifact_file(&store, &key, &payload);
                prop_assert_eq!(read(&store, &key, &path, &file).unwrap(), Some(payload.clone()));
                let keep = (cut * file.len() as f64) as usize;
                match read(&store, &key, &path, &file[..keep]) {
                    Err(StoreError::MissingChecksum { .. } | StoreError::ChecksumMismatch { .. }) => {}
                    other => prop_assert!(false, "kept {} of {} bytes: {:?}", keep, file.len(), other),
                }
                let _ = std::fs::remove_dir_all(path.parent().unwrap());
            }

            /// A flipped bit anywhere in a valid file gives a typed error,
            /// or, where the flip leaves the digest's value unchanged (a
            /// hex letter's case), the original payload: never another one.
            #[test]
            fn bit_flipped_files_fail_closed(
                payload in proptest::collection::vec(0u32..1_000_000, 0..40),
                at in 0.0f64..1.0,
                bit in 0u8..8,
            ) {
                let (store, key, path) = fixture("fail-closed-flipped");
                let mut file = artifact_file(&store, &key, &payload);
                let i = ((at * file.len() as f64) as usize).min(file.len() - 1);
                file[i] ^= 1 << bit;
                match read(&store, &key, &path, &file) {
                    Ok(Some(back)) => prop_assert_eq!(back, payload, "flip at byte {}", i),
                    Ok(None) => prop_assert!(false, "flip at byte {} read as a miss", i),
                    Err(_) => {}
                }
                let _ = std::fs::remove_dir_all(path.parent().unwrap());
            }
        }
    }

    #[test]
    fn scoped_store_mirrors_stats_into_obs_counters() {
        // A unique scope isolates this test from every other store in the
        // shared test process.
        let scope = format!("test-scope-{}", std::process::id());
        let store = ArtifactStore::memory_only().with_scope(&scope);
        let s = doubler(vec![11], 1);
        store.run(&s); // miss
        store.run(&s); // mem hit
        let st = store.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.mem_hits, 1);
        assert_eq!(
            crate::obs::counter_value(&format!("{scope}.misses")),
            st.misses,
            "report counters must match the [artifact-store] summary"
        );
        assert_eq!(
            crate::obs::counter_value(&format!("{scope}.mem_hits")),
            st.mem_hits
        );
        assert_eq!(crate::obs::counter_value(&format!("{scope}.disk_hits")), 0);
    }

    #[test]
    fn compute_runs_under_its_stage_label() {
        let store = ArtifactStore::memory_only();
        let key = ArtifactKey::new("test/labeled", 1, |h| h.write_u64(3));
        let seen = store.get_or_compute(&key, Persistence::MemoryOnly, || {
            vec![crate::context::current_stage_label().unwrap_or_default()]
        });
        assert_eq!(*seen, vec!["test/labeled".to_string()]);
    }

    impl ArtifactStore {
        /// Test helper: disk layer on, memory layer off — forces every call
        /// through the disk read/write path.
        fn disabled_memory_with_dir(dir: &Path) -> Self {
            let mut s = ArtifactStore::with_dir(dir);
            s.memory_enabled = false;
            s
        }
    }
}
