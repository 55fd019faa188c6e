//! Metrics registries: counters and histograms with a text exposition.
//!
//! [`StageTimings`](crate::pipeline::StageTimings) records the telemetry of
//! *one* pipeline run and travels with its result. A long-running service
//! needs the complement: an aggregate view across *all* runs the process
//! has executed. This module promotes the per-run records into that view —
//! every stage transition the pipeline records is also observed into the
//! process-global registry ([`global`]) as a histogram keyed by stage
//! name, next to the scheduler, distributed-sweep and reconstruction
//! convergence families.
//!
//! Serving counters are scoped tighter: each job server builds its own
//! [`Registry`] for its connection and cache counters, so two servers in
//! one process never share a count. Its metrics frame renders that
//! registry, then the global one.
//!
//! The registry is deliberately tiny and dependency-free:
//!
//! * **Counters** are monotonic [`AtomicU64`]s, registered by name and
//!   label set; readers interested in a region of work diff two
//!   snapshots.
//! * **Histograms** have fixed, process-constant bucket bounds, so merged
//!   or diffed readings are always comparable.
//! * **Exposition** is a deterministic text rendering in the Prometheus
//!   style (`# TYPE` comments, `_bucket{le="..."}`/`_sum`/`_count` series,
//!   families and label sets in lexicographic order), served by the job
//!   server's metrics frame and printable anywhere.
//!
//! Observing metrics never affects results: registration is idempotent,
//! all updates are relaxed atomics, and nothing here feeds back into the
//! pipeline's seeded determinism.
//!
//! # Examples
//!
//! ```
//! use jigsaw_core::telemetry;
//!
//! let jobs = telemetry::global().counter("example_jobs_total", &[]);
//! let before = jobs.get();
//! jobs.inc();
//! assert_eq!(jobs.get(), before + 1);
//! assert!(telemetry::global().render_text().contains("example_jobs_total"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::lockcheck::Mutex;
use crate::pipeline::StageName;

/// Upper bounds (seconds) of the wall-clock histogram buckets, ascending.
/// A final implicit `+Inf` bucket catches everything beyond the last bound.
/// Process-constant so readings from different subsystems always merge.
pub const WALL_BUCKETS: [f64; 10] = [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value. Monotonic: diff two readings for a region of work.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket wall-clock histogram handle. Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    /// One cell per [`WALL_BUCKETS`] bound plus the `+Inf` overflow bucket.
    buckets: [AtomicU64; WALL_BUCKETS.len() + 1],
    /// Total observed time in nanoseconds (saturating).
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, wall: Duration) {
        let secs = wall.as_secs_f64();
        let idx =
            WALL_BUCKETS.iter().position(|&bound| secs <= bound).unwrap_or(WALL_BUCKETS.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.0.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Total observed time.
    #[must_use]
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.0.sum_nanos.load(Ordering::Relaxed))
    }

    /// Cumulative count of observations `<=` the bucket at `idx` (the last
    /// index is the `+Inf` bucket and equals [`Self::count`]).
    fn cumulative(&self, idx: usize) -> u64 {
        self.0.buckets[..=idx].iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Key of a registered metric: family name plus rendered label pairs.
type MetricKey = (String, String);

/// A metrics registry. The process-wide one is [`global`]; each job
/// server builds its own for its serving counters.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    histograms: Mutex<BTreeMap<MetricKey, Histogram>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            counters: Mutex::new("telemetry.counters", BTreeMap::new()),
            histograms: Mutex::new("telemetry.histograms", BTreeMap::new()),
        }
    }
}

/// Renders `labels` as `key="value"` pairs joined by commas (empty string
/// for an empty set). Keys are expected pre-sorted by the caller's literal
/// order; exposition sorts whole label strings lexicographically.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out
}

impl Registry {
    /// Returns the counter registered under `(name, labels)`, creating it
    /// at zero on first use. Registration is idempotent: every caller gets
    /// a handle to the same cell.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_owned(), render_labels(labels));
        self.counters
            .lock()
            .entry(key)
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the histogram registered under `(name, labels)`, creating it
    /// empty on first use. All histograms share the [`WALL_BUCKETS`] bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = (name.to_owned(), render_labels(labels));
        self.histograms.lock().entry(key).or_insert_with(Histogram::new).clone()
    }

    /// Observes one pipeline stage transition. The pipeline calls this for
    /// every [`StageRecord`](crate::pipeline::StageRecord) it appends, which
    /// is what makes the per-run `StageTimings` visible process-wide.
    pub fn observe_stage(&self, stage: StageName, wall: Duration) {
        let stage = stage.to_string();
        self.histogram("jigsaw_stage_wall_seconds", &[("stage", &stage)]).observe(wall);
    }

    /// Renders every registered metric in a deterministic Prometheus-style
    /// text exposition: families sorted by name, label sets sorted within a
    /// family, histograms as `_bucket`/`_sum`/`_count` series.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock();
        let mut last_family = "";
        for ((name, labels), counter) in counters.iter() {
            if name != last_family {
                let _ = writeln!(out, "# TYPE {name} counter");
            }
            last_family = name;
            if labels.is_empty() {
                let _ = writeln!(out, "{name} {}", counter.get());
            } else {
                let _ = writeln!(out, "{name}{{{labels}}} {}", counter.get());
            }
        }
        drop(counters);
        let histograms = self.histograms.lock();
        let mut last_family = "";
        for ((name, labels), histogram) in histograms.iter() {
            if name != last_family {
                let _ = writeln!(out, "# TYPE {name} histogram");
            }
            last_family = name;
            let sep = if labels.is_empty() { "" } else { "," };
            for (idx, bound) in WALL_BUCKETS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {}",
                    histogram.cumulative(idx)
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
                histogram.cumulative(WALL_BUCKETS.len())
            );
            let braces = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
            let _ = writeln!(out, "{name}_sum{braces} {}", histogram.sum().as_secs_f64());
            let _ = writeln!(out, "{name}_count{braces} {}", histogram.count());
        }
        out
    }
}

/// The scheduler's per-lane queue-wait histogram
/// (`jigsaw_sched_queue_wait_seconds{lane=...}`): time from enqueue at a
/// stage boundary to dispatch, observed once per dispatched stage.
#[must_use]
pub fn sched_queue_wait(lane: &str) -> Histogram {
    global().histogram("jigsaw_sched_queue_wait_seconds", &[("lane", lane)])
}

/// The scheduler's per-lane admission counter
/// (`jigsaw_sched_jobs_total{lane=...}`): jobs accepted into each lane.
#[must_use]
pub fn sched_lane_jobs(lane: &str) -> Counter {
    global().counter("jigsaw_sched_jobs_total", &[("lane", lane)])
}

/// Distributed-sweep shard outcome counter
/// (`jigsaw_dist_shards_total{outcome=...}`): shard executions by final
/// outcome — `"ok"` for a merged partial, `"error"` for a failed attempt.
/// Incremented wherever the outcome is observed: the sweep driver counts
/// every attempt it dispatched, and a worker process counts each shard it
/// served — so both sides' metrics frames expose the sweep.
#[must_use]
pub fn dist_shards(outcome: &str) -> Counter {
    global().counter("jigsaw_dist_shards_total", &[("outcome", outcome)])
}

/// Distributed-sweep retry counter (`jigsaw_dist_retries_total`):
/// incremented by the driver each time a failed shard is requeued for a
/// surviving worker.
#[must_use]
pub fn dist_retries() -> Counter {
    global().counter("jigsaw_dist_retries_total", &[])
}

/// Reconstruction layer outcome counter
/// (`jigsaw_reconstruct_layers_total{converged=...}`): one per
/// hierarchical layer a pipeline reconstructs, labelled `"yes"` when the
/// Hellinger tolerance was met within the round cap and `"no"` when the cap
/// stopped it.
#[must_use]
pub fn reconstruct_layers(converged: bool) -> Counter {
    let label = if converged { "yes" } else { "no" };
    global().counter("jigsaw_reconstruct_layers_total", &[("converged", label)])
}

/// Reconstruction round counter (`jigsaw_reconstruct_rounds_total`):
/// rounds executed across every reconstructed layer.
#[must_use]
pub fn reconstruct_rounds() -> Counter {
    global().counter("jigsaw_reconstruct_rounds_total", &[])
}

/// The process-wide registry singleton.
#[must_use]
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_monotonic() {
        let r = Registry::default();
        let a = r.counter("test_jobs_total", &[]);
        let b = r.counter("test_jobs_total", &[]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles hit the same cell");
    }

    #[test]
    fn labelled_counters_are_distinct() {
        let r = Registry::default();
        r.counter("test_hits_total", &[("kind", "memory")]).inc();
        r.counter("test_hits_total", &[("kind", "disk")]).add(5);
        let text = r.render_text();
        assert!(text.contains("test_hits_total{kind=\"memory\"} 1"), "{text}");
        assert!(text.contains("test_hits_total{kind=\"disk\"} 5"), "{text}");
        // One TYPE comment per family, not per label set.
        assert_eq!(text.matches("# TYPE test_hits_total counter").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::default();
        let h = r.histogram("test_wall_seconds", &[]);
        h.observe(Duration::from_micros(5)); // <= 1e-5
        h.observe(Duration::from_millis(2)); // <= 1e-2
        h.observe(Duration::from_secs(600)); // +Inf only
        assert_eq!(h.count(), 3);
        let text = r.render_text();
        assert!(text.contains("test_wall_seconds_bucket{le=\"0.00001\"} 1"), "{text}");
        assert!(text.contains("test_wall_seconds_bucket{le=\"0.01\"} 2"), "{text}");
        assert!(text.contains("test_wall_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("test_wall_seconds_count 3"), "{text}");
    }

    #[test]
    fn stage_observation_lands_in_the_stage_wall_histogram() {
        // A private registry: every pipeline stage in a concurrently running
        // test also observes into the global one.
        let r = Registry::default();
        r.observe_stage(StageName::Plan, Duration::from_millis(1));
        let h = r.histogram("jigsaw_stage_wall_seconds", &[("stage", "plan")]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn exposition_is_deterministic() {
        let r = Registry::default();
        r.counter("b_total", &[]).inc();
        r.counter("a_total", &[]).inc();
        let first = r.render_text();
        assert_eq!(first, r.render_text());
        let a = first.find("a_total").expect("a present");
        let b = first.find("b_total").expect("b present");
        assert!(a < b, "families render sorted by name");
    }
}
