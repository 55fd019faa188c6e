//! One JigSaw job, run through the public stage API with or without
//! spans, plus the checks and scores every workload applies to a result.

use jigsaw_circuit::bench::Benchmark;
use jigsaw_compiler::{CompilerOptions, CpmArtifact};
use jigsaw_core::bayes::{reconstruct, Marginal};
use jigsaw_core::pipeline::{CpmsRun, JigsawPipeline, StageName, SubsetLayer, SubsetsSelected};
use jigsaw_core::{JigsawConfig, JigsawResult};
use jigsaw_device::Device;
use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};
use jigsaw_pmf::{metrics, BitString};
use jigsaw_server::protocol::{Frame, JobRequest, HEADER_LEN};
use jigsaw_sim::{resolve_correct_set, Executor};

use crate::trace::Tracer;

/// A job's fixed inputs: program, device, configuration, and the program's
/// correct answers for scoring.
pub struct Spec {
    pub bench: Benchmark,
    pub device: Device,
    pub config: JigsawConfig,
    pub correct: Vec<BitString>,
}

impl Spec {
    pub fn new(bench: Benchmark, device: Device, config: JigsawConfig) -> Self {
        let correct = resolve_correct_set(&bench);
        Self { bench, device, config, correct }
    }

    pub fn label(&self) -> &str {
        self.bench.name()
    }
}

/// Where spans of a traced call go: the tracer, the job id, and the
/// parent span.
#[derive(Clone, Copy)]
pub struct Ctx<'t> {
    pub tracer: &'t Tracer,
    pub job: u64,
    pub parent: u64,
}

impl Ctx<'_> {
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        self.tracer.span(name, self.job, Some(self.parent), f)
    }
}

/// The untraced job: the public one-call API.
pub fn run_plain(spec: &Spec) -> JigsawResult {
    jigsaw_core::run_jigsaw(spec.bench.circuit(), &spec.device, &spec.config)
}

/// What a traced job keeps for the reconstruction replay.
pub struct ReplayInput {
    pub cpms: CpmsRun,
    pub layers: Vec<SubsetLayer>,
}

/// The traced job: every stage method in its own span, with the CPM stage
/// driven item by item so each `CpmArtifact::recompiled` and
/// `Executor::run` call gets a span. The bytes equal [`run_plain`]'s.
/// With `keep`, also returns what [`replay`] needs.
pub fn run_traced(spec: &Spec, ctx: Ctx<'_>, keep: bool) -> (JigsawResult, Option<ReplayInput>) {
    let planned = ctx.span("pipeline.plan", |_| {
        JigsawPipeline::plan(spec.bench.circuit(), &spec.device, &spec.config)
    });
    let compiled = ctx.span("pipeline.compile_global", |_| planned.compile_global());
    let global = ctx.span("pipeline.run_global", |_| compiled.run_global());
    let selected = ctx.span("pipeline.select_subsets", |_| global.select_subsets());
    let layers = keep.then(|| selected.layers().to_vec());
    let cpms = run_cpms(spec, selected, ctx);
    let replay = layers.map(|layers| ReplayInput { cpms: cpms.clone(), layers });
    let result = ctx.span("pipeline.reconstruct", |_| cpms.reconstruct());
    (result, replay)
}

/// The CPM stage as `SubsetsSelected::run_cpms` runs it — `fan_out` over
/// `cpm_work()` on `run.threads` workers, each item on one thread, then
/// `finish_cpms` — with each item's compile and execution in its own span
/// under a `pipeline.run_cpms` span.
fn run_cpms(spec: &Spec, selected: SubsetsSelected, ctx: Ctx<'_>) -> CpmsRun {
    ctx.span("pipeline.run_cpms", |stage| {
        let stage = Ctx { parent: stage, ..ctx };
        let config = &spec.config;
        assert!(config.recompile_cpms, "the traced CPM stage expects recompiled CPMs");
        let options = CompilerOptions { threads: 1, ..config.compiler };
        let work = selected.cpm_work();
        let subsets: Vec<Vec<usize>> = work.iter().map(|item| item.subset.clone()).collect();
        let counts = jigsaw_pmf::parallel::fan_out(work, config.run.threads, |item| {
            let run = config.run.with_seed(item.seed).with_threads(1);
            let artifact = stage.span("compiler.cpm_compile", |_| {
                CpmArtifact::recompiled(spec.bench.circuit(), &item.subset, &spec.device, &options)
            });
            stage.span("sim.cpm_exec", |_| {
                Executor::new(&spec.device).run(&artifact.circuit, item.trials, &run)
            })
        });
        let marginals =
            subsets.into_iter().zip(&counts).map(|(s, c)| Marginal::new(s, c.to_pmf())).collect();
        selected.finish_cpms(marginals)
    })
}

/// Per-layer convergence recovered by replaying reconstruction layer by
/// layer, as `CpmsRun::reconstruct` does internally.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub layers: usize,
    pub rounds: usize,
    pub converged: usize,
    pub secs: f64,
    pub prior_support: usize,
    /// Σ over layers of support × marginals × rounds: the Bayesian
    /// updates the rounds performed, counted from their inputs.
    pub updates: f64,
}

/// Replays the reconstruction of a traced job with one `bayes::reconstruct`
/// call per subset-size layer, and checks it lands on the job's output.
pub fn replay(
    input: &ReplayInput,
    config: &JigsawConfig,
    expected: &JigsawResult,
    ctx: Ctx<'_>,
) -> Result<Replay, String> {
    let recon = config.reconstruction.with_threads(config.run.threads);
    let mut current = input.cpms.global_pmf().clone();
    let mut out = Replay { prior_support: current.support_size(), ..Replay::default() };
    for layer in &input.layers {
        let members: Vec<Marginal> =
            input.cpms.marginals().iter().filter(|m| m.size() == layer.size).cloned().collect();
        let support = current.support_size();
        let start = std::time::Instant::now();
        let r = ctx.span("bayes.layer", |_| reconstruct(&current, &members, &recon));
        out.secs += start.elapsed().as_secs_f64();
        out.layers += 1;
        out.rounds += r.rounds;
        out.converged += usize::from(r.converged);
        out.updates += (support * members.len() * r.rounds) as f64;
        current = r.pmf;
    }
    if current != expected.output || out.rounds != expected.rounds {
        return Err(format!(
            "layer-by-layer reconstruction replay diverged from the job output ({} vs {} rounds)",
            out.rounds, expected.rounds
        ));
    }
    Ok(out)
}

/// Structural checks on a result: a normalised output over the program's
/// width, a budget no larger than configured, CPMs narrower than the
/// program, and an encoding that decodes back to the same bytes.
pub fn check(spec: &Spec, result: &JigsawResult, bytes: &[u8]) -> Result<(), String> {
    let n = spec.bench.n_qubits();
    let mass = result.output.total_mass();
    if result.output.n_bits() != n || (mass - 1.0).abs() > 1e-9 {
        return Err(format!(
            "{}: output over {} bits with mass {mass}",
            spec.label(),
            result.output.n_bits()
        ));
    }
    if result.output.iter().any(|(_, p)| !(p.is_finite() && p >= 0.0)) {
        return Err(format!("{}: output holds a negative or non-finite probability", spec.label()));
    }
    if result.trials_used > spec.config.total_trials || result.trials_used == 0 {
        return Err(format!(
            "{}: used {} trials of a {} budget",
            spec.label(),
            result.trials_used,
            spec.config.total_trials
        ));
    }
    if result.marginals.is_empty() || result.marginals.iter().any(|m| m.size() >= n) {
        return Err(format!("{}: CPM marginals missing or as wide as the program", spec.label()));
    }
    let decoded: JigsawResult =
        decode_from_slice(bytes).map_err(|e| format!("{}: decode: {e}", spec.label()))?;
    if encode_to_vec(&decoded) != bytes {
        return Err(format!(
            "{}: result does not survive an encode/decode round trip",
            spec.label()
        ));
    }
    Ok(())
}

/// PST of the mitigated output and its gain over the noisy global
/// histogram of the same job.
pub fn scores(spec: &Spec, result: &JigsawResult) -> (f64, f64) {
    let pst = metrics::pst(&result.output, &spec.correct);
    let global = metrics::pst(&result.global, &spec.correct);
    (pst, if global > 0.0 { pst / global } else { 0.0 })
}

/// Bytes the job would take on the wire if served: its `SubmitJob` frame
/// plus a `JobResult` frame carrying `result_bytes`.
pub fn served_frame_bytes(spec: &Spec, result_bytes: &[u8]) -> usize {
    let request =
        JobRequest::new(spec.bench.circuit().clone(), spec.device.clone(), spec.config.clone());
    Frame::submit(&request).to_bytes().len() + result_frame_bytes(result_bytes.len())
}

/// Size of a reply frame around a payload: header, payload, checksum.
pub fn result_frame_bytes(payload: usize) -> usize {
    HEADER_LEN + payload + 8
}

/// The wall `StageTimings` recorded for the CPM stage.
pub fn recorded_run_cpms_secs(result: &JigsawResult) -> f64 {
    result.timings.get(StageName::RunCpms).map_or(0.0, |r| r.wall.as_secs_f64())
}
