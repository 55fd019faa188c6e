//! Content-addressed result cache with single-flight computation and
//! spill-backed eviction.
//!
//! Entries are keyed by the persist layer's FNV config digest
//! ([`jigsaw_core::persist::config_digest`]) — the same content address the
//! wire protocol binds every job frame to, so "this exact job" means the
//! same thing in memory, on the wire and on disk.
//!
//! Three regimes, in lookup order:
//!
//! 1. **Ready** — the response bytes are in memory; serve immediately.
//! 2. **In flight** — another thread is computing this digest right now;
//!    *coalesce*: park on the flight's condvar and share its one result.
//!    In-flight work is tracked separately from the ready map and never
//!    counts against capacity, so a cache of capacity 1 can still have K
//!    waiters without deadlocking (see `tests/server_dedup.rs`).
//! 3. **Spilled** — a previous entry was evicted, but eviction first wrote
//!    its response to the spill directory as a [`FrameKind::JobResult`]
//!    frame, which carries the digest and an FNV checksum. Rehydration
//!    reads the frame back, checks its kind and digest, and serves its
//!    payload: the exact bytes served before, with nothing recomputed (see
//!    `tests/server_eviction.rs`). A spill that fails any check is deleted
//!    and the job is computed fresh, counted as a miss. Only this module
//!    knows the spill format.
//!
//! Capacity is enforced on the ready map with least-recently-used
//! eviction. The compute closure runs *outside* the cache lock and inside
//! a [`catch_unwind`] fault barrier: a panicking job poisons nothing,
//! fills its flight with a typed [`ErrorCode::ComputeFailed`] rejection,
//! and every coalesced waiter sees that same rejection. Errors are never
//! cached — a later resubmission retries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use jigsaw_core::lockcheck::{Condvar, Mutex};
use jigsaw_core::telemetry::{Counter, Registry};
use jigsaw_pmf::hashing::DetHashMap;

use crate::protocol::{ErrorCode, Frame, FrameKind, JobRejection};

/// Shared response bytes: one allocation serves every duplicate submitter.
pub type SharedBytes = Arc<Vec<u8>>;

/// How a request was satisfied (feeds the metrics registry; tests assert
/// on it directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the in-memory ready map.
    Hit,
    /// Parked on another thread's in-flight computation.
    Coalesced,
    /// Computed fresh.
    Miss,
    /// Served from a spilled eviction frame.
    Rehydrated,
}

/// Counters the cache feeds in its server's registry.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    /// Ready-map hits.
    pub hits: Counter,
    /// Fresh computations.
    pub misses: Counter,
    /// Requests that parked on an in-flight duplicate.
    pub coalesced: Counter,
    /// Entries evicted to spill files.
    pub evictions: Counter,
    /// Entries served from spill files.
    pub rehydrations: Counter,
    /// Computations that returned or raised an error.
    pub compute_errors: Counter,
}

impl CacheMetrics {
    /// Registers (idempotently) the cache counter family in `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        Self {
            hits: registry.counter("jigsaw_server_cache_hits_total", &[]),
            misses: registry.counter("jigsaw_server_cache_misses_total", &[]),
            coalesced: registry.counter("jigsaw_server_cache_coalesced_total", &[]),
            evictions: registry.counter("jigsaw_server_cache_evictions_total", &[]),
            rehydrations: registry.counter("jigsaw_server_cache_rehydrations_total", &[]),
            compute_errors: registry.counter("jigsaw_server_compute_errors_total", &[]),
        }
    }
}

/// One completed entry: the response to serve, and to spill on eviction.
struct ReadyEntry {
    response: SharedBytes,
    last_used: u64,
}

/// One in-flight computation: the eventual shared result plus the condvar
/// duplicates park on.
struct Flight {
    slot: Mutex<Option<Result<SharedBytes, JobRejection>>>,
    done: Condvar,
}

struct Inner {
    ready: DetHashMap<u64, ReadyEntry>,
    inflight: DetHashMap<u64, Arc<Flight>>,
    /// LRU clock: bumped on every touch, copied into `last_used`.
    tick: u64,
}

/// The content-addressed result cache. See the module docs for semantics.
pub struct StageCache {
    capacity: usize,
    spill_dir: PathBuf,
    inner: Mutex<Inner>,
    metrics: CacheMetrics,
}

impl StageCache {
    /// Creates a cache holding at most `capacity` ready entries, spilling
    /// evictions into `spill_dir` (created if absent) and counting its
    /// outcomes in `registry`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when `spill_dir` cannot be created.
    pub fn new(
        capacity: usize,
        spill_dir: impl Into<PathBuf>,
        registry: &Registry,
    ) -> std::io::Result<Self> {
        let spill_dir = spill_dir.into();
        std::fs::create_dir_all(&spill_dir)?;
        Ok(Self {
            capacity,
            spill_dir,
            inner: Mutex::new(
                "cache.inner",
                Inner { ready: DetHashMap::default(), inflight: DetHashMap::default(), tick: 0 },
            ),
            metrics: CacheMetrics::register(registry),
        })
    }

    /// The counters this cache feeds.
    #[must_use]
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Where an evicted entry for `digest` is spilled.
    #[must_use]
    pub fn spill_path(&self, digest: u64) -> PathBuf {
        self.spill_dir.join(format!("{digest:016x}.jigsaw"))
    }

    /// Number of ready (in-memory) entries.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned (a bug: closures never run
    /// under the lock).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().ready.len()
    }

    /// Whether the ready map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serves `digest` from the first regime that applies: ready memory,
    /// an in-flight duplicate, a spill file, or a fresh computation (via
    /// `compute`, which runs outside the cache lock and inside a panic
    /// fault barrier and returns the encoded response).
    ///
    /// # Errors
    ///
    /// Returns the closure's rejection (or a `ComputeFailed` rejection
    /// wrapping a contained panic). Errors are not cached.
    ///
    /// # Panics
    ///
    /// Panics only if the cache lock itself is poisoned, which the fault
    /// barrier makes unreachable from job code.
    pub fn get_or_compute(
        &self,
        digest: u64,
        compute: impl FnOnce() -> Result<Vec<u8>, JobRejection>,
    ) -> (Result<SharedBytes, JobRejection>, Outcome) {
        let flight = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.ready.get_mut(&digest) {
                entry.last_used = tick;
                let response = Arc::clone(&entry.response);
                self.metrics.hits.inc();
                return (Ok(response), Outcome::Hit);
            }
            if let Some(flight) = inner.inflight.get(&digest) {
                let flight = Arc::clone(flight);
                drop(inner);
                self.metrics.coalesced.inc();
                return (Self::wait(&flight), Outcome::Coalesced);
            }
            let flight = Arc::new(Flight {
                slot: Mutex::new("cache.flight.slot", None),
                done: Condvar::new(),
            });
            inner.inflight.insert(digest, Arc::clone(&flight));
            flight
        };

        // We own the flight. Read the spill or compute, outside the lock.
        let (result, outcome) = match self.rehydrate(digest) {
            Some(response) => {
                self.metrics.rehydrations.inc();
                (Ok(response), Outcome::Rehydrated)
            }
            None => {
                self.metrics.misses.inc();
                (Self::contain(compute), Outcome::Miss)
            }
        };

        let shared = match result {
            Ok(response) => {
                let response = Arc::new(response);
                self.install(digest, Arc::clone(&response));
                Ok(response)
            }
            Err(rejection) => {
                self.metrics.compute_errors.inc();
                self.inner.lock().inflight.remove(&digest);
                Err(rejection)
            }
        };

        let mut slot = flight.slot.lock();
        *slot = Some(shared.clone());
        drop(slot);
        flight.done.notify_all();
        (shared, outcome)
    }

    /// Parks until the flight's owner fills the slot, then shares its
    /// result.
    fn wait(flight: &Flight) -> Result<SharedBytes, JobRejection> {
        let mut slot = flight.slot.lock();
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = flight.done.wait(slot);
        }
    }

    /// The fault barrier: a panicking closure becomes a typed rejection.
    fn contain(
        job: impl FnOnce() -> Result<Vec<u8>, JobRejection>,
    ) -> Result<Vec<u8>, JobRejection> {
        catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
            let detail = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(JobRejection::new(
                ErrorCode::ComputeFailed,
                format!("job panicked (contained): {detail}"),
            ))
        })
    }

    /// The response spilled for `digest`, if its spill file holds a valid
    /// `JobResult` frame for that digest. A file that fails the frame
    /// checks is deleted, so a bad spill costs one recomputation, never a
    /// lasting error.
    fn rehydrate(&self, digest: u64) -> Option<Vec<u8>> {
        let path = self.spill_path(digest);
        let bytes = std::fs::read(&path).ok()?;
        match Frame::from_bytes(&bytes) {
            Ok(frame) if frame.kind == FrameKind::JobResult && frame.digest == digest => {
                Some(frame.payload)
            }
            _ => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Moves a finished flight into the ready map, evicting LRU entries to
    /// spill files until capacity holds.
    fn install(&self, digest: u64, response: SharedBytes) {
        let mut inner = self.inner.lock();
        inner.inflight.remove(&digest);
        inner.tick += 1;
        let tick = inner.tick;
        inner.ready.insert(digest, ReadyEntry { response, last_used: tick });
        while inner.ready.len() > self.capacity {
            let victim = inner
                .ready
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&digest, _)| digest);
            let Some(victim) = victim else { break };
            let Some(entry) = inner.ready.remove(&victim) else { break };
            // Spill under the lock: the file must exist before anyone can
            // observe the entry as gone, or a racing duplicate would
            // recompute instead of rehydrating.
            self.spill(victim, &entry.response);
            self.metrics.evictions.inc();
        }
    }

    /// Writes an evicted response as a `JobResult` frame, atomically
    /// (temp + rename), matching the persist layer's crash discipline.
    fn spill(&self, digest: u64, response: &[u8]) {
        let path = self.spill_path(digest);
        let tmp = path.with_extension("jigsaw.tmp");
        let frame = Frame { kind: FrameKind::JobResult, digest, payload: response.to_vec() };
        let written =
            std::fs::write(&tmp, frame.to_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            // Spill failure is not fatal: the entry is simply gone and a
            // resubmission recomputes. Leave no torn file behind.
            let _ = std::fs::remove_file(&tmp);
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("jigsaw-server-cache-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn response(tag: u8) -> Result<Vec<u8>, JobRejection> {
        Ok(vec![tag; 4])
    }

    #[test]
    fn hits_serve_the_installed_bytes() {
        let cache = StageCache::new(4, tmp_dir("hits"), &Registry::default()).expect("spill dir");
        let (first, outcome) = cache.get_or_compute(7, || response(1));
        assert_eq!(outcome, Outcome::Miss);
        let (second, outcome) = cache.get_or_compute(7, || unreachable!());
        assert_eq!(outcome, Outcome::Hit);
        assert_eq!(first.expect("computed"), second.expect("cached"));
    }

    #[test]
    fn capacity_evicts_lru_to_spill_and_rehydrates() {
        let cache = StageCache::new(1, tmp_dir("evict"), &Registry::default()).expect("spill dir");
        let _ = cache.get_or_compute(1, || response(1));
        let _ = cache.get_or_compute(2, || response(2));
        assert_eq!(cache.len(), 1, "capacity bound holds");
        let spilled = std::fs::read(cache.spill_path(1)).expect("eviction spilled digest 1");
        let frame = Frame::from_bytes(&spilled).expect("the spill is one valid frame");
        assert_eq!((frame.kind, frame.digest), (FrameKind::JobResult, 1));
        // A resubmission of the evicted digest is served from the spill,
        // not the compute path.
        let (result, outcome) = cache.get_or_compute(1, || panic!("must not recompute"));
        assert_eq!(outcome, Outcome::Rehydrated);
        assert_eq!(*result.expect("rehydrated"), vec![1; 4]);
        // Digest 2 evicted digest 1, and rehydrating 1 evicted 2 in turn.
        assert_eq!(cache.metrics().evictions.get(), 2, "this cache's own count");
    }

    #[test]
    fn spills_that_fail_their_checks_are_deleted_and_recomputed() {
        let cache = StageCache::new(1, tmp_dir("bad-spill"), &Registry::default()).expect("dir");
        let _ = cache.get_or_compute(1, || response(1));
        let _ = cache.get_or_compute(2, || response(2));
        // A valid frame under the wrong digest's name, and torn bytes.
        std::fs::copy(cache.spill_path(1), cache.spill_path(3)).expect("copy spill");
        std::fs::write(cache.spill_path(4), b"not a frame").expect("write garbage");
        for digest in [3, 4] {
            let (result, outcome) = cache.get_or_compute(digest, || response(9));
            assert_eq!(outcome, Outcome::Miss, "digest {digest}");
            assert_eq!(*result.expect("computed fresh"), vec![9; 4]);
        }
        assert!(!cache.spill_path(4).exists(), "the torn spill was deleted");
        assert_eq!(cache.metrics().rehydrations.get(), 0);
        assert_eq!(cache.metrics().misses.get(), 4);
    }

    #[test]
    fn panics_become_typed_rejections_and_are_not_cached() {
        let cache = StageCache::new(4, tmp_dir("panic"), &Registry::default()).expect("spill dir");
        let (result, _) = cache.get_or_compute(9, || panic!("boom at subset 3"));
        let rejection = result.expect_err("contained");
        assert_eq!(rejection.code, ErrorCode::ComputeFailed);
        assert!(rejection.message.contains("boom at subset 3"), "{rejection}");
        // The failure was not installed: the next submission recomputes
        // and can succeed.
        let (result, outcome) = cache.get_or_compute(9, || response(9));
        assert_eq!(outcome, Outcome::Miss);
        assert!(result.is_ok());
        assert_eq!(cache.metrics().compute_errors.get(), 1, "this cache's own count");
    }

    #[test]
    fn duplicate_submitters_coalesce_on_one_computation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = Arc::new(
            StageCache::new(4, tmp_dir("dedup"), &Registry::default()).expect("spill dir"),
        );
        let computes = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (result, _) = cache.get_or_compute(42, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for peers to
                        // pile onto it.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        response(42)
                    });
                    result.expect("shared result")
                })
            })
            .collect();
        let results: Vec<_> = workers.into_iter().map(|w| w.join().expect("no panic")).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one computation");
        assert!(results.windows(2).all(|w| w[0] == w[1]), "all waiters share it");
    }
}
