//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// `(name, unit, better)` of every end-to-end metric, printed by an
/// untraced run.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("pst", "prob", "higher"),
    ("rel_pst", "ratio", "higher"),
    ("wire_bytes_per_job", "bytes", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by a traced
/// run. A layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("pipeline.plan_s", "s", "lower"),
    ("pipeline.compile_global_s", "s", "lower"),
    ("pipeline.run_global_s", "s", "lower"),
    ("pipeline.select_subsets_s", "s", "lower"),
    ("pipeline.run_cpms_s", "s", "lower"),
    ("pipeline.reconstruct_s", "s", "lower"),
    ("pipeline.run_cpms_recorded_s", "s", "lower"),
    ("pipeline.stage_coverage", "ratio", "higher"),
    ("compiler.compiles", "count", "lower"),
    ("compiler.cpm_compile_busy_s", "s", "lower"),
    ("compiler.global_eps", "prob", "higher"),
    ("sim.trials", "count", "lower"),
    ("sim.global_trials_per_s", "1/s", "higher"),
    ("sim.cpm_exec_busy_s", "s", "lower"),
    ("sim.cpm_trials_per_s", "1/s", "higher"),
    ("sim.stabilizer_share", "ratio", "higher"),
    ("bayes.layers", "count", "lower"),
    ("bayes.rounds", "count", "lower"),
    ("bayes.converged_layers", "count", "higher"),
    ("bayes.round_ms", "ms", "lower"),
    ("bayes.prior_support", "count", "lower"),
    ("bayes.updates_per_s", "1/s", "higher"),
    ("codec.result_bytes", "bytes", "lower"),
    ("codec.encode_s", "s", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("server.request_bytes", "bytes", "lower"),
    ("server.response_bytes", "bytes", "lower"),
    ("server.repeat_p50_s", "s", "lower"),
    ("server.fresh_p50_s", "s", "lower"),
    ("server.hits", "count", "higher"),
    ("server.misses", "count", "lower"),
    ("server.coalesced", "count", "higher"),
    ("server.evictions", "count", "lower"),
    ("server.rehydrations", "count", "lower"),
    ("server.overloaded", "count", "lower"),
    ("sched.queue_wait_p50_s.interactive", "s", "lower"),
    ("sched.queue_wait_p50_s.sweep", "s", "lower"),
    ("sched.batched_jobs", "count", "higher"),
    ("dist.shards", "count", "lower"),
    ("dist.request_bytes_per_shard", "bytes", "lower"),
    ("dist.shard_rtt_p50_s", "s", "lower"),
    ("dist.retries", "count", "lower"),
    ("dist.driver_finish_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Jobs submitted (including any that failed).
    pub attempted: u64,
    /// Jobs that failed, were refused, or produced wrong bytes.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Wall time of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Latency of each completed, verified job.
    pub latencies: Vec<f64>,
    /// Wall time of the timed window, from its first submit to its last
    /// verified result.
    pub window_secs: f64,
    pub pst: f64,
    pub rel_pst: f64,
    pub wire_bytes_per_job: f64,
    /// Per-layer readings (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Measured {
    /// Records a failed job.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "unknown per-layer metric {name}");
        self.layers.insert(name, value);
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end readings of a run, by metric name.
pub fn end_to_end(m: &Measured) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let nan = f64::NAN;
    out.insert("setup_s", stats::median(&m.setup_secs).unwrap_or(nan));
    let completed = m.latencies.len() as f64;
    out.insert("jobs_per_s", if m.window_secs > 0.0 { completed / m.window_secs } else { nan });
    out.insert("job_p50_s", stats::median(&m.latencies).unwrap_or(nan));
    out.insert("job_tail_s", stats::tail(&m.latencies).map_or(nan, |t| t.value));
    out.insert("pst", m.pst);
    out.insert("rel_pst", m.rel_pst);
    out.insert("wire_bytes_per_job", m.wire_bytes_per_job);
    out.insert("peak_rss_mb", peak_rss_mb().unwrap_or(nan));
    out
}

/// The human-readable report (for standard error).
pub fn describe(
    workload: &str,
    m: &Measured,
    e2e: &BTreeMap<&'static str, f64>,
    traced: bool,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {workload} ({}) ==", if traced { "traced" } else { "untraced" });
    for note in &m.notes {
        let _ = writeln!(s, "  {note}");
    }
    let sorted = {
        let mut v = m.latencies.clone();
        v.sort_by(f64::total_cmp);
        v
    };
    if let (Some(lo), Some(hi)) = (sorted.first(), sorted.last()) {
        let _ = writeln!(s, "  job latency: {} jobs, min {lo:.6} s, max {hi:.6} s", sorted.len());
    }
    if !traced {
        for (name, unit, better) in END_TO_END {
            let value = e2e.get(name).copied().unwrap_or(f64::NAN);
            let mut line = format!("  {name:<20} {value:>14.6} {unit:<6} ({better} is better)");
            if name == "job_tail_s" {
                if let Some(t) = stats::tail(&m.latencies) {
                    let _ = write!(line, "  [{} of {} samples]", t.label(), t.samples);
                }
            }
            let _ = writeln!(s, "{line}");
        }
    } else {
        for (name, unit, _) in PER_LAYER {
            let value = m.layers.get(name).copied().unwrap_or(0.0);
            let computed = if name == "bayes.updates_per_s" { "  (computed)" } else { "" };
            let _ = writeln!(s, "  {name:<36} {value:>16.6} {unit}{computed}");
        }
    }
    let attempted = m.attempted.max(1) as f64;
    let _ = writeln!(
        s,
        "  fail_frac {:.6} ({} failed of {} attempted)",
        m.failed as f64 / attempted,
        m.failed,
        m.attempted
    );
    for e in &m.errors {
        let _ = writeln!(s, "  FAILED: {e}");
    }
    s
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics of the mode. A non-finite reading makes the run
/// incorrect and is printed as 0, since JSON has no NaN.
pub fn json_line(m: &Measured, e2e: &BTreeMap<&'static str, f64>, traced: bool) -> (String, bool) {
    let mut correct = m.failed == 0 && m.attempted > 0;
    let mut metrics = Vec::new();
    let catalogue: &[(&str, &str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for &(name, unit, _) in catalogue {
        let value = if traced {
            m.layers.get(name).copied().unwrap_or(0.0)
        } else {
            e2e.get(name).copied().unwrap_or(f64::NAN)
        };
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            0.0
        };
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        metrics.join(", ")
    );
    (line, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this file prints, with
    /// the same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
        for (workload, _) in crate::WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{workload}\"")), "{workload} missing");
        }
    }

    #[test]
    fn json_line_carries_every_metric_of_the_mode() {
        let mut m = Measured {
            attempted: 3,
            latencies: vec![1.0, 2.0, 3.0],
            window_secs: 6.0,
            ..Measured::default()
        };
        m.setup_secs = vec![0.5];
        m.pst = 0.25;
        m.rel_pst = 1.5;
        m.wire_bytes_per_job = 100.0;
        let e2e = end_to_end(&m);
        let (line, correct) = json_line(&m, &e2e, false);
        assert!(correct, "{line}");
        for (name, _, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} in {line}");
        }
        assert!(line.contains("\"jobs_per_s\": {\"value\": 0.5, \"unit\": \"1/s\"}"), "{line}");
        let (traced, _) = json_line(&m, &e2e, true);
        for (name, _, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\"")), "{name}");
        }
        m.fail("boom".into());
        assert!(!json_line(&m, &e2e, false).1);
    }
}
