//! The end-to-end JigSaw entry points (paper §4, Fig. 4) plus the Baseline
//! and EDM reference flows.
//!
//! JigSaw spends half its trial budget on a *global mode* run (all qubits
//! measured, noise-aware compiled) and the other half on Circuits with
//! Partial Measurements, equally split. The CPM local-PMFs then update the
//! global-PMF through Bayesian Reconstruction. JigSaw-M layers CPMs of
//! several sizes and reconstructs hierarchically, largest size first
//! (§4.4.2), so global correlation is preserved before the highest-fidelity
//! small subsets sharpen the answer.
//!
//! [`run_jigsaw`] is a thin wrapper that drives the staged
//! [`JigsawPipeline`](crate::pipeline::JigsawPipeline) end-to-end; callers
//! that need to observe or steer the protocol between stages (artifact
//! reuse across sweeps, adaptive subsetting, per-stage telemetry) use the
//! pipeline directly.

use jigsaw_circuit::Circuit;
use jigsaw_compiler::edm::ensemble;
use jigsaw_compiler::{compile, Compiled, CompilerOptions};
use jigsaw_device::Device;
use jigsaw_pmf::{Counts, Pmf};
use jigsaw_sim::{BackendKind, Executor, RunConfig};

use crate::bayes::{Marginal, ReconstructionConfig};
use crate::pipeline::{JigsawPipeline, StageTimings};
use crate::seed;
use crate::subsets::SubsetSelection;

/// How the subset-mode trial budget is divided among CPMs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrialAllocation {
    /// Equal trials per CPM — the paper's default (§5.4).
    Equal,
    /// Trials per CPM layer proportional to its outcome-coverage need
    /// (Appendix A.2, Equation 9): larger subsets have exponentially more
    /// outcomes and receive proportionally more trials. Useful for JigSaw-M
    /// under tight budgets, where equal splitting starves the big CPMs.
    CoverageWeighted {
        /// Coverage confidence used for the per-size weight (e.g. 0.99).
        confidence: f64,
    },
}

/// Full pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JigsawConfig {
    /// Total trial budget (shared with the baseline for fair comparison).
    /// The global run and every CPM get at least one trial each, so a budget
    /// too small to give each of them one is exceeded, not refused.
    pub total_trials: u64,
    /// CPM subset sizes; `[2]` is default JigSaw, `[2, 3, 4, 5]` JigSaw-M.
    /// Sizes not smaller than the program are skipped.
    pub subset_sizes: Vec<usize>,
    /// How subsets are chosen (sliding window by default).
    pub selection: SubsetSelection,
    /// Recompile each CPM with the readout-focused objective (§4.2.2); when
    /// false, CPMs reuse the global compilation's mapping ("JigSaw w/o
    /// recompilation" of Fig. 11).
    pub recompile_cpms: bool,
    /// Fraction of trials spent in global mode (paper default ½).
    pub global_fraction: f64,
    /// Division of the subset-mode budget among CPMs.
    pub allocation: TrialAllocation,
    /// Experiment seed; all stage seeds derive from it (see [`crate::seed`]).
    pub seed: u64,
    /// Executor options.
    pub run: RunConfig,
    /// Compiler options.
    pub compiler: CompilerOptions,
    /// Reconstruction convergence controls.
    pub reconstruction: ReconstructionConfig,
}

impl JigsawConfig {
    /// Default JigSaw: subset size 2, sliding window, recompiled CPMs.
    #[must_use]
    pub fn jigsaw(total_trials: u64) -> Self {
        Self {
            total_trials,
            subset_sizes: vec![2],
            selection: SubsetSelection::SlidingWindow,
            recompile_cpms: true,
            global_fraction: 0.5,
            allocation: TrialAllocation::Equal,
            seed: 0,
            run: RunConfig::default(),
            compiler: CompilerOptions::default(),
            reconstruction: ReconstructionConfig::default(),
        }
    }

    /// Default JigSaw-M: subset sizes 2–5 (paper §4.4).
    #[must_use]
    pub fn jigsaw_m(total_trials: u64) -> Self {
        Self { subset_sizes: vec![2, 3, 4, 5], ..Self::jigsaw(total_trials) }
    }

    /// Disables CPM recompilation (measurement subsetting only).
    #[must_use]
    pub fn without_recompilation(mut self) -> Self {
        self.recompile_cpms = false;
        self
    }

    /// Replaces the experiment seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Wire format: one tag byte (`0` equal, `1` coverage-weighted plus its
/// confidence as an exact `f64` bit pattern).
impl jigsaw_pmf::codec::Encode for TrialAllocation {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        match self {
            Self::Equal => w.put_u8(0),
            Self::CoverageWeighted { confidence } => {
                w.put_u8(1);
                w.put_f64(*confidence);
            }
        }
    }
}

impl jigsaw_pmf::codec::Decode for TrialAllocation {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        match r.u8()? {
            0 => Ok(Self::Equal),
            1 => {
                let confidence = r.f64()?;
                // `trials::cpm_trials` asserts 0 < confidence < 1; an
                // out-of-range (or NaN) value arriving over the wire must
                // be a typed decode error, not a panic at selection time.
                if !(confidence > 0.0 && confidence < 1.0) {
                    return Err(jigsaw_pmf::codec::CodecError::InvalidValue {
                        what: "TrialAllocation",
                        detail: format!("coverage confidence {confidence} outside (0, 1)"),
                    });
                }
                Ok(Self::CoverageWeighted { confidence })
            }
            tag => Err(jigsaw_pmf::codec::CodecError::InvalidTag { what: "TrialAllocation", tag }),
        }
    }
}

/// Wire format: every field in declaration order. This is the "producing
/// config" the archive digest covers (together with the program and
/// device), so any semantic knob change — trials, sizes, selection, noise,
/// compiler, reconstruction — changes the digest and makes
/// [`resume_from`](crate::persist::resume_from) refuse a stale archive.
impl jigsaw_pmf::codec::Encode for JigsawConfig {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_u64(self.total_trials);
        self.subset_sizes.encode(w);
        self.selection.encode(w);
        w.put_bool(self.recompile_cpms);
        w.put_f64(self.global_fraction);
        self.allocation.encode(w);
        w.put_u64(self.seed);
        self.run.encode(w);
        self.compiler.encode(w);
        self.reconstruction.encode(w);
    }
}

impl jigsaw_pmf::codec::Decode for JigsawConfig {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        let config = Self {
            total_trials: r.u64()?,
            subset_sizes: Vec::<usize>::decode(r)?,
            selection: SubsetSelection::decode(r)?,
            recompile_cpms: r.bool()?,
            global_fraction: r.f64()?,
            allocation: TrialAllocation::decode(r)?,
            seed: r.u64()?,
            run: RunConfig::decode(r)?,
            compiler: CompilerOptions::decode(r)?,
            reconstruction: ReconstructionConfig::decode(r)?,
        };
        if !(0.0..=1.0).contains(&config.global_fraction) {
            return Err(jigsaw_pmf::codec::CodecError::InvalidValue {
                what: "JigsawConfig",
                detail: format!("global fraction {} outside [0, 1]", config.global_fraction),
            });
        }
        Ok(config)
    }
}

/// Everything a JigSaw run produces.
///
/// Equality compares the *protocol outputs* (PMFs, marginals, accounting)
/// and deliberately ignores [`Self::timings`]: two runs of the same seed
/// are equal even though their wall clocks differ.
#[derive(Debug, Clone)]
pub struct JigsawResult {
    /// The reconstructed output PMF — JigSaw's answer.
    pub output: Pmf,
    /// The global-mode PMF (the prior), for diagnostics.
    pub global: Pmf,
    /// All CPM marginals, in reconstruction order (largest subsets first).
    pub marginals: Vec<Marginal>,
    /// EPS of the compiled global circuit.
    pub global_eps: f64,
    /// Total reconstruction rounds across the size hierarchy.
    pub rounds: usize,
    /// Trials actually consumed: the global run's plus every CPM's. The
    /// splits round down, so this is at most the configured budget, except
    /// that the global run and each CPM get at least one trial.
    pub trials_used: u64,
    /// Simulation backend the global-mode run resolved to: the stabilizer
    /// tableau for Clifford programs (which is what lifts the width cap),
    /// the dense state vector otherwise.
    pub backend: BackendKind,
    /// Per-stage telemetry: wall time, trials, compiles, backend and
    /// support sizes of every pipeline stage that produced this result.
    pub timings: StageTimings,
}

impl PartialEq for JigsawResult {
    fn eq(&self, other: &Self) -> bool {
        self.output == other.output
            && self.global == other.global
            && self.marginals == other.marginals
            && self.global_eps == other.global_eps
            && self.rounds == other.rounds
            && self.trials_used == other.trials_used
            && self.backend == other.backend
    }
}

impl JigsawResult {
    /// Placement-search compilations the run paid, summed over its stage
    /// records: the global compile plus, when CPMs were recompiled, one
    /// per CPM. A forked or resumed run carries the records of the stages
    /// it inherited, so their compiles count in every branch.
    #[must_use]
    pub fn compiles(&self) -> u64 {
        self.timings.compiles()
    }
}

/// Wire format: every field in declaration order. Like the stage archives,
/// the encoding is **canonical and telemetry-free** — `StageRecord` walls
/// are excluded on the wire — so two bit-identical runs encode to
/// byte-identical payloads. This is what lets the job server's cache serve
/// duplicate submissions with responses that are provably byte-equal.
impl jigsaw_pmf::codec::Encode for JigsawResult {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        self.output.encode(w);
        self.global.encode(w);
        self.marginals.encode(w);
        w.put_f64(self.global_eps);
        w.put_usize(self.rounds);
        w.put_u64(self.trials_used);
        self.backend.encode(w);
        self.timings.encode(w);
    }
}

impl jigsaw_pmf::codec::Decode for JigsawResult {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        let invalid = |detail: String| jigsaw_pmf::codec::CodecError::InvalidValue {
            what: "JigsawResult",
            detail,
        };
        let result = Self {
            output: Pmf::decode(r)?,
            global: Pmf::decode(r)?,
            marginals: Vec::<Marginal>::decode(r)?,
            global_eps: r.f64()?,
            rounds: r.usize()?,
            trials_used: r.u64()?,
            backend: BackendKind::decode(r)?,
            timings: StageTimings::decode(r)?,
        };
        if result.output.n_bits() != result.global.n_bits() {
            return Err(invalid(format!(
                "{}-bit output for a {}-bit global PMF",
                result.output.n_bits(),
                result.global.n_bits()
            )));
        }
        if result.marginals.iter().any(|m| m.size() >= result.output.n_bits()) {
            return Err(invalid("a marginal spans at least the whole program".into()));
        }
        if !(result.global_eps > 0.0 && result.global_eps <= 1.0) {
            return Err(invalid(format!("global EPS {} outside (0, 1]", result.global_eps)));
        }
        Ok(result)
    }
}

/// Runs the JigSaw (or JigSaw-M, depending on `subset_sizes`) pipeline on a
/// measurement-free program, driving every stage of
/// [`JigsawPipeline`](crate::pipeline::JigsawPipeline) in order.
///
/// # Panics
///
/// Panics if the program declares measurements, is wider than the device,
/// or no subset size fits the program. No budget is too small: the global
/// run and every CPM get at least one trial, so a tiny budget runs over
/// [`JigsawConfig::total_trials`] (see [`JigsawResult::trials_used`]).
#[must_use]
pub fn run_jigsaw(program: &Circuit, device: &Device, config: &JigsawConfig) -> JigsawResult {
    JigsawPipeline::plan(program, device, config)
        .compile_global()
        .run_global()
        .select_subsets()
        .run_cpms()
        .reconstruct()
}

/// Configuration of the reference flows ([`run_baseline`] / [`run_edm`]):
/// the trial budget plus the options JigSaw shares with them, so
/// policy-vs-policy comparisons run under identical conditions (§5.4).
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceConfig {
    /// Total trial budget (matches JigSaw's for fair comparison).
    pub trials: u64,
    /// Experiment seed; stage seeds derive from it (see [`crate::seed`]).
    pub seed: u64,
    /// Executor options.
    pub run: RunConfig,
    /// Compiler options.
    pub compiler: CompilerOptions,
}

impl ReferenceConfig {
    /// A reference run with default executor/compiler options and seed 0.
    #[must_use]
    pub fn new(trials: u64) -> Self {
        Self { trials, seed: 0, run: RunConfig::default(), compiler: CompilerOptions::default() }
    }

    /// Replaces the experiment seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the executor options.
    #[must_use]
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Replaces the compiler options.
    #[must_use]
    pub fn with_compiler(mut self, compiler: CompilerOptions) -> Self {
        self.compiler = compiler;
        self
    }
}

/// The baseline flow (§4.1): noise-aware compile, all trials in global mode.
///
/// # Panics
///
/// Panics if the program declares measurements or `config.trials == 0`.
#[must_use]
pub fn run_baseline(program: &Circuit, device: &Device, config: &ReferenceConfig) -> Pmf {
    assert!(program.measurements().is_empty(), "pass the measurement-free program");
    let mut logical = program.clone();
    logical.measure_all();
    let compiled = compile(&logical, device, &config.compiler);
    run_baseline_from(&compiled, device, config)
}

/// The baseline flow executed from an already-compiled global artifact —
/// e.g. [`GlobalCompiled::artifact`](crate::pipeline::GlobalCompiled::artifact),
/// which compiles the identical measure-all circuit. Compilation is
/// deterministic in its inputs, so the result is bit-identical to
/// [`run_baseline`] whenever the artifact came from the same program,
/// device and compiler options; sweep drivers use this to stop paying a
/// second placement search for the baseline column.
#[must_use]
pub fn run_baseline_from(global: &Compiled, device: &Device, config: &ReferenceConfig) -> Pmf {
    Executor::new(device)
        .run(global.circuit(), config.trials, &config.run.with_seed(seed::baseline(config.seed)))
        .to_pmf()
}

/// The EDM baseline \[48\]: `mappings` diverse compilations, trials split
/// equally, histograms merged.
///
/// # Panics
///
/// Panics if the program declares measurements, `mappings == 0`, or the
/// budget gives a mapping zero trials.
#[must_use]
pub fn run_edm(
    program: &Circuit,
    device: &Device,
    mappings: usize,
    config: &ReferenceConfig,
) -> Pmf {
    assert!(program.measurements().is_empty(), "pass the measurement-free program");
    let mut logical = program.clone();
    logical.measure_all();
    let members: Vec<Compiled> = ensemble(&logical, device, mappings, &config.compiler);
    let per_member = (config.trials / mappings as u64).max(1);
    let executor = Executor::new(device);
    let mut merged = Counts::new(logical.n_qubits());
    for (i, member) in members.iter().enumerate() {
        let counts = executor.run(
            member.circuit(),
            per_member,
            &config.run.with_seed(seed::edm_member(config.seed, i)),
        );
        merged.merge(&counts);
    }
    merged.to_pmf()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_circuit::bench;
    use jigsaw_pmf::metrics;
    use jigsaw_sim::resolve_correct_set;

    fn quick_config(trials: u64) -> JigsawConfig {
        JigsawConfig {
            compiler: CompilerOptions { max_seeds: 4, ..CompilerOptions::default() },
            ..JigsawConfig::jigsaw(trials)
        }
    }

    fn quick_reference(trials: u64, seed: u64) -> ReferenceConfig {
        ReferenceConfig::new(trials)
            .with_seed(seed)
            .with_compiler(CompilerOptions { max_seeds: 4, ..CompilerOptions::default() })
    }

    #[test]
    fn jigsaw_improves_ghz_pst_over_baseline() {
        let device = Device::toronto();
        let b = bench::ghz(8);
        let correct = resolve_correct_set(&b);
        let trials = 6000;

        let baseline = run_baseline(b.circuit(), &device, &quick_reference(trials, 7));
        let jig = run_jigsaw(b.circuit(), &device, &quick_config(trials).with_seed(7));

        let pst_base = metrics::pst(&baseline, &correct);
        let pst_jig = metrics::pst(&jig.output, &correct);
        assert!(pst_jig > pst_base, "JigSaw PST {pst_jig} should beat baseline {pst_base}");
    }

    #[test]
    fn jigsaw_uses_the_configured_budget() {
        let device = Device::toronto();
        let b = bench::ghz(6);
        let result = run_jigsaw(b.circuit(), &device, &quick_config(4000));
        // The per-CPM split rounds down, never up.
        assert!(result.trials_used <= 4000);
        assert!(result.trials_used >= 3000);
        assert_eq!(result.marginals.len(), 6); // sliding window: n CPMs

        // A budget below one trial per stage is not refused: the global run
        // and each of the 6 CPMs still get one trial, so 4 becomes 2 + 6.
        let tiny = run_jigsaw(b.circuit(), &device, &quick_config(4));
        let recorded: u64 = tiny.timings.records().iter().map(|r| r.trials).sum();
        assert_eq!(tiny.trials_used, recorded);
        assert_eq!(tiny.trials_used, 2 + 6);
    }

    #[test]
    fn jigsaw_m_layers_multiple_sizes() {
        let device = Device::paris();
        let b = bench::ghz(8);
        let config = JigsawConfig {
            compiler: CompilerOptions { max_seeds: 3, ..CompilerOptions::default() },
            ..JigsawConfig::jigsaw_m(6000)
        };
        let result = run_jigsaw(b.circuit(), &device, &config);
        // Sizes 2..5 × 8 windows = 32 CPMs.
        assert_eq!(result.marginals.len(), 32);
        let mut seen: Vec<usize> = result.marginals.iter().map(Marginal::size).collect();
        seen.dedup();
        assert_eq!(seen, vec![5, 4, 3, 2], "descending size order");
    }

    #[test]
    fn oversized_subsets_are_skipped() {
        let device = Device::toronto();
        let b = bench::ghz(4);
        let config = JigsawConfig {
            subset_sizes: vec![2, 3, 4, 5],
            compiler: CompilerOptions { max_seeds: 3, ..CompilerOptions::default() },
            ..JigsawConfig::jigsaw_m(2000)
        };
        let result = run_jigsaw(b.circuit(), &device, &config);
        assert!(result.marginals.iter().all(|m| m.size() < 4));
    }

    #[test]
    fn pipeline_reports_the_resolved_backend() {
        let device = Device::toronto();
        let ghz = run_jigsaw(bench::ghz(6).circuit(), &device, &quick_config(1200));
        assert_eq!(ghz.backend, BackendKind::Stabilizer);
        let qaoa = run_jigsaw(bench::qaoa_maxcut(6, 1).circuit(), &device, &quick_config(1200));
        assert_eq!(qaoa.backend, BackendKind::Dense);
    }

    #[test]
    fn wide_clifford_program_runs_end_to_end() {
        // Beyond the dense 2^24 cap: the whole pipeline (global mode, CPM
        // subset mode, reconstruction) must route through the stabilizer
        // backend. Kept small here; the full GHZ-40 acceptance run lives in
        // the workspace integration tests.
        let device = Device::manhattan();
        let b = bench::ghz(28);
        let config = JigsawConfig {
            compiler: CompilerOptions { max_seeds: 2, ..CompilerOptions::default() },
            ..JigsawConfig::jigsaw(2000)
        };
        let result = run_jigsaw(b.circuit(), &device, &config);
        assert_eq!(result.backend, BackendKind::Stabilizer);
        assert_eq!(result.output.n_bits(), 28);
        assert_eq!(result.marginals.len(), 28);
        assert!(result.output.total_mass() > 0.999);
    }

    #[test]
    fn pipeline_is_seed_deterministic() {
        let device = Device::toronto();
        let b = bench::bernstein_vazirani(4, 0b101);
        let a = run_jigsaw(b.circuit(), &device, &quick_config(1000).with_seed(3));
        let b2 = run_jigsaw(b.circuit(), &device, &quick_config(1000).with_seed(3));
        assert_eq!(a.output, b2.output);
    }

    #[test]
    fn baseline_from_artifact_matches_run_baseline() {
        let device = Device::toronto();
        let b = bench::ghz(6);
        let reference = quick_reference(1500, 4);
        let direct = run_baseline(b.circuit(), &device, &reference);
        let artifact = crate::pipeline::JigsawPipeline::plan(
            b.circuit(),
            &device,
            &quick_config(1500).with_seed(4),
        )
        .compile_global();
        let from_artifact = run_baseline_from(artifact.artifact(), &device, &reference);
        assert_eq!(direct, from_artifact);
    }

    #[test]
    fn edm_merges_all_mappings() {
        let device = Device::toronto();
        let b = bench::ghz(5);
        let pmf = run_edm(b.circuit(), &device, 4, &quick_reference(2000, 1));
        assert!((pmf.total_mass() - 1.0).abs() < 1e-9);
        let correct = resolve_correct_set(&b);
        assert!(metrics::pst(&pmf, &correct) > 0.2);
    }

    #[test]
    fn coverage_weighted_allocation_feeds_bigger_cpms() {
        let device = Device::toronto();
        let b = bench::ghz(8);
        let cfg = JigsawConfig {
            subset_sizes: vec![2, 5],
            allocation: TrialAllocation::CoverageWeighted { confidence: 0.99 },
            compiler: CompilerOptions { max_seeds: 3, ..CompilerOptions::default() },
            ..JigsawConfig::jigsaw_m(8000)
        };
        let result = run_jigsaw(b.circuit(), &device, &cfg);
        // With coverage weighting the size-5 layer gets ~32/4 = 8x the
        // per-CPM budget of size-2; verify via marginal support richness:
        // size-5 marginals should resolve more than 2^2 outcomes.
        let size5_support: usize = result
            .marginals
            .iter()
            .filter(|m| m.size() == 5)
            .map(|m| m.pmf.support_size())
            .max()
            .expect("size-5 layer present");
        assert!(size5_support > 4, "size-5 marginals resolved {size5_support} outcomes");
        assert!(result.trials_used <= 8000 + 16);
    }

    #[test]
    fn result_round_trips_through_the_codec() {
        use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec, CodecError};
        let device = Device::toronto();
        let b = bench::ghz(5);
        let result = run_jigsaw(b.circuit(), &device, &quick_config(900).with_seed(2));
        let bytes = encode_to_vec(&result);
        let back: JigsawResult = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, result);
        // Canonical: re-encoding the decoded value is byte-identical, and
        // a second identical run encodes identically (walls excluded).
        assert_eq!(encode_to_vec(&back), bytes);
        let again = run_jigsaw(b.circuit(), &device, &quick_config(900).with_seed(2));
        assert_eq!(encode_to_vec(&again), bytes);

        // Validation: a corrupted EPS is a typed error.
        let bad = encode_to_vec(&JigsawResult { global_eps: 2.0, ..result.clone() });
        let err = decode_from_slice::<JigsawResult>(&bad).unwrap_err();
        assert!(matches!(err, CodecError::InvalidValue { what: "JigsawResult", .. }), "{err}");
    }

    #[test]
    fn coverage_confidence_is_validated_on_decode() {
        use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec, CodecError};
        for bad in [f64::NAN, 0.0, 1.0, -3.0, f64::INFINITY] {
            let bytes = encode_to_vec(&TrialAllocation::CoverageWeighted { confidence: bad });
            let err = decode_from_slice::<TrialAllocation>(&bytes).unwrap_err();
            assert!(
                matches!(err, CodecError::InvalidValue { what: "TrialAllocation", .. }),
                "confidence {bad} gave {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "measurement-free")]
    fn premeasured_program_rejected() {
        let device = Device::toronto();
        let mut c = bench::ghz(3).circuit().clone();
        c.measure_all();
        let _ = run_jigsaw(&c, &device, &quick_config(100));
    }
}
