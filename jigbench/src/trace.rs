//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, the span that caused it, and the job
//! it belongs to. Spans stay in memory while the workload runs and are
//! written out once at the end, so recording costs one lock and one push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    pub job: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span; `f` receives the new span's id so calls it
    /// makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned by a panicking span").push(Span {
            id,
            name,
            start,
            end,
            parent,
            job,
        });
        out
    }

    /// Records a span timed elsewhere (e.g. by a callback the program
    /// invokes, which cannot borrow the tracer).
    pub fn record(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let span = Span { id, name, start: at(start), end: at(end), parent, job };
        self.spans.lock().expect("span list poisoned by a panicking span").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panicking span").clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"job\":{}}}",
                s.id, s.name, s.start, s.end, s.job
            )?;
        }
        out.flush()
    }
}

/// Read-side helpers over a finished span list.
pub struct Spans(pub Vec<Span>);

impl Spans {
    /// Durations of every span called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.0.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Per job, per span name: how many spans and their total duration.
    pub fn by_job(&self) -> BTreeMap<u64, BTreeMap<&'static str, (usize, f64)>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, (usize, f64)>> = BTreeMap::new();
        for s in &self.0 {
            let slot = out.entry(s.job).or_default().entry(s.name).or_default();
            slot.0 += 1;
            slot.1 += s.secs();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let t = Tracer::new();
        let v = t.span("job", 1, None, |job| {
            t.span("stage", 1, Some(job), |stage| {
                t.span("leaf", 1, Some(stage), |_| 2);
                t.span("leaf", 1, Some(stage), |_| 3)
            })
        });
        assert_eq!(v, 3);
        let spans = Spans(t.spans());
        let by_job = spans.by_job();
        let (leaves, leaf_secs) = by_job[&1]["leaf"];
        assert_eq!(leaves, 2);
        let stage = spans.0.iter().find(|s| s.name == "stage").unwrap();
        let leaf_parents: Vec<_> =
            spans.0.iter().filter(|s| s.name == "leaf").map(|s| s.parent).collect();
        assert_eq!(leaf_parents, vec![Some(stage.id); 2]);
        assert!(by_job[&1]["stage"].1 >= leaf_secs);
        assert!(by_job[&1]["job"].1 >= by_job[&1]["stage"].1);
        for s in &spans.0 {
            assert!(s.end >= s.start);
        }
    }
}
