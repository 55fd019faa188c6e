//! Per-layer readings of traced in-process jobs: pipeline stages, the
//! compiler and simulator calls of the CPM stage, reconstruction, codec.
//!
//! Readings are per job, averaged over each spec's traced jobs and then
//! over specs, so a count that is deterministic per spec (compiles,
//! trials, rounds) repeats exactly whatever job mix the window ran.

use std::collections::BTreeMap;

use jigsaw_core::pipeline::StageName;
use jigsaw_core::JigsawResult;
use jigsaw_sim::BackendKind;

use crate::jobs::{recorded_run_cpms_secs, Replay};
use crate::report::Measured;
use crate::stats::mean;
use crate::trace::Spans;

/// The pipeline stage spans, with their metric names.
const STAGES: [(&str, &str); 6] = [
    ("pipeline.plan", "pipeline.plan_s"),
    ("pipeline.compile_global", "pipeline.compile_global_s"),
    ("pipeline.run_global", "pipeline.run_global_s"),
    ("pipeline.select_subsets", "pipeline.select_subsets_s"),
    ("pipeline.run_cpms", "pipeline.run_cpms_s"),
    ("pipeline.reconstruct", "pipeline.reconstruct_s"),
];

/// What a traced job's result says about it.
#[derive(Debug, Clone)]
pub struct JobReading {
    pub job: u64,
    pub global_trials: u64,
    pub cpm_trials: u64,
    pub global_eps: f64,
    pub stabilizer: bool,
    pub recorded_run_cpms: f64,
    pub result_bytes: usize,
}

impl JobReading {
    pub fn of(job: u64, result: &JigsawResult, result_bytes: usize) -> Self {
        let trials = |stage| result.timings.get(stage).map_or(0, |r| r.trials);
        Self {
            job,
            global_trials: trials(StageName::RunGlobal),
            cpm_trials: trials(StageName::RunCpms),
            global_eps: result.global_eps,
            stabilizer: result.backend == BackendKind::Stabilizer,
            recorded_run_cpms: recorded_run_cpms_secs(result),
            result_bytes,
        }
    }
}

/// One spec's traced jobs and its reconstruction replay.
#[derive(Debug, Clone, Default)]
pub struct SpecReading {
    pub jobs: Vec<JobReading>,
    pub replay: Option<Replay>,
}

/// Mean over specs of `f(spec)`, skipping specs `f` has no reading for.
fn over_specs(specs: &[SpecReading], f: impl Fn(&SpecReading) -> Option<f64>) -> f64 {
    mean(&specs.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Mean over a spec's jobs of `f(job)`, skipping jobs without a reading.
fn over_jobs(spec: &SpecReading, f: impl Fn(&JobReading) -> Option<f64>) -> Option<f64> {
    mean(&spec.jobs.iter().filter_map(f).collect::<Vec<_>>())
}

/// Fills the pipeline, compiler, sim, bayes and codec readings.
pub fn fill(m: &mut Measured, spans: &Spans, specs: &[SpecReading]) {
    let by_job = spans.by_job();
    let secs =
        |job: u64, name: &str| by_job.get(&job).and_then(|names| names.get(name)).map(|&(_, s)| s);
    let count = |job: u64, name: &str| {
        by_job.get(&job).and_then(|names| names.get(name)).map_or(0, |&(n, _)| n)
    };

    for (span, metric) in STAGES {
        m.set(metric, over_specs(specs, |s| over_jobs(s, |j| secs(j.job, span))));
    }
    let (mut staged, mut wall) = (0.0, 0.0);
    for spec in specs {
        for j in &spec.jobs {
            if let Some(job) = secs(j.job, "job") {
                wall += job;
                staged += STAGES.iter().filter_map(|(span, _)| secs(j.job, span)).sum::<f64>();
            }
        }
    }
    m.set("pipeline.stage_coverage", if wall > 0.0 { staged / wall } else { 0.0 });
    m.set(
        "pipeline.run_cpms_recorded_s",
        over_specs(specs, |s| over_jobs(s, |j| Some(j.recorded_run_cpms))),
    );

    let first = |s: &SpecReading| s.jobs.first().cloned();
    m.set(
        "compiler.compiles",
        over_specs(specs, |s| {
            first(s).map(|j| {
                (count(j.job, "pipeline.compile_global") + count(j.job, "compiler.cpm_compile"))
                    as f64
            })
        }),
    );
    m.set(
        "compiler.cpm_compile_busy_s",
        over_specs(specs, |s| over_jobs(s, |j| secs(j.job, "compiler.cpm_compile"))),
    );
    m.set("compiler.global_eps", over_specs(specs, |s| first(s).map(|j| j.global_eps)));

    m.set(
        "sim.trials",
        over_specs(specs, |s| first(s).map(|j| (j.global_trials + j.cpm_trials) as f64)),
    );
    m.set(
        "sim.global_trials_per_s",
        over_specs(specs, |s| {
            over_jobs(s, |j| secs(j.job, "pipeline.run_global").map(|t| j.global_trials as f64 / t))
        }),
    );
    m.set(
        "sim.cpm_exec_busy_s",
        over_specs(specs, |s| over_jobs(s, |j| secs(j.job, "sim.cpm_exec"))),
    );
    m.set(
        "sim.cpm_trials_per_s",
        over_specs(specs, |s| {
            over_jobs(s, |j| secs(j.job, "sim.cpm_exec").map(|t| j.cpm_trials as f64 / t))
        }),
    );
    m.set(
        "sim.stabilizer_share",
        over_specs(specs, |s| first(s).map(|j| f64::from(u8::from(j.stabilizer)))),
    );

    let replays: Vec<Replay> = specs.iter().filter_map(|s| s.replay).collect();
    let per_replay =
        |f: fn(&Replay) -> f64| mean(&replays.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    m.set("bayes.layers", per_replay(|r| r.layers as f64));
    m.set("bayes.rounds", per_replay(|r| r.rounds as f64));
    m.set("bayes.converged_layers", per_replay(|r| r.converged as f64));
    m.set("bayes.prior_support", per_replay(|r| r.prior_support as f64));
    m.set("bayes.round_ms", per_replay(|r| 1e3 * r.secs / r.rounds.max(1) as f64));
    let busy: f64 = replays.iter().map(|r| r.secs).sum();
    let updates: f64 = replays.iter().map(|r| r.updates).sum();
    m.set("bayes.updates_per_s", if busy > 0.0 { updates / busy } else { 0.0 });

    m.set("codec.result_bytes", over_specs(specs, |s| first(s).map(|j| j.result_bytes as f64)));
    m.set("codec.encode_s", mean(&spans.secs("codec.encode")).unwrap_or(0.0));
    m.set("codec.decode_s", mean(&spans.secs("codec.decode")).unwrap_or(0.0));
    m.set("trace.spans", spans.0.len() as f64);
}

/// Tracing overhead: per spec, the median traced job wall minus the
/// median untraced job wall of the same run, averaged over specs that
/// have both.
pub fn overhead(untraced: &BTreeMap<usize, Vec<f64>>, traced: &BTreeMap<usize, Vec<f64>>) -> f64 {
    let diffs: Vec<f64> = traced
        .iter()
        .filter_map(|(k, t)| {
            let u = untraced.get(k)?;
            Some(crate::stats::median(t)? - crate::stats::median(u)?)
        })
        .collect();
    mean(&diffs).unwrap_or(0.0)
}
