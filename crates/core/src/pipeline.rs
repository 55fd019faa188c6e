//! The staged, resumable JigSaw pipeline — Fig. 4 as a typestate API.
//!
//! [`run_jigsaw`](crate::run_jigsaw) drives the whole protocol in one call,
//! which is right for end users but wrong for anything that needs to
//! *observe or steer* the protocol between stages: sweep drivers recompile
//! the identical global circuit per config point, and measurement-steering
//! policies (adaptive subsetting) need the global PMF before subsets exist.
//! [`JigsawPipeline`] decomposes the run into plain-value stages:
//!
//! ```text
//! plan ──▶ Planned ──compile_global()──▶ GlobalCompiled
//!                                              │ run_global()
//!                                              ▼
//!      SubsetsSelected ◀──select_subsets()── GlobalRun
//!             │ run_cpms()
//!             ▼
//!          CpmsRun ──reconstruct()──▶ JigsawResult
//! ```
//!
//! Every stage is `Clone + Debug`, so a caller can fork a mid-pipeline
//! artifact — e.g. one [`GlobalRun`] fanned across many subset-size
//! configs — without re-compiling or re-simulating anything upstream.
//! Stage RNG streams derive from `(experiment seed, stage identity)` alone
//! ([`crate::seed`]), so a forked stage replays **bit-identically** to the
//! monolithic path; `tests/pipeline_equivalence.rs` enforces this across
//! seeds, subset sizes, thread counts and backends.
//!
//! Each stage transition appends a [`StageRecord`] (wall time, trials,
//! compiles, backend, support sizes) to the [`StageTimings`] that ends up on
//! [`JigsawResult::timings`].

use std::fmt;
use std::time::{Duration, Instant};

use jigsaw_circuit::Circuit;
use jigsaw_compiler::{compile, Compiled, CompilerOptions, CpmArtifact};
use jigsaw_device::Device;
use jigsaw_pmf::Pmf;
use jigsaw_sim::{BackendKind, Executor, RunConfig};

use crate::bayes::{reconstruct, Marginal};
use crate::jigsaw::{JigsawConfig, JigsawResult, TrialAllocation};
use crate::seed;
use crate::subsets::{adaptive_layers, generate, SubsetSelection};

/// The pipeline stages, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageName {
    /// Budget split and size filtering.
    Plan,
    /// Noise-aware compilation of the global-mode circuit.
    CompileGlobal,
    /// Global-mode execution.
    RunGlobal,
    /// CPM subset selection and per-CPM budgeting.
    SelectSubsets,
    /// CPM compilation (or layout reuse) and execution.
    RunCpms,
    /// Hierarchical Bayesian reconstruction.
    Reconstruct,
}

impl fmt::Display for StageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Plan => "plan",
            Self::CompileGlobal => "compile-global",
            Self::RunGlobal => "run-global",
            Self::SelectSubsets => "select-subsets",
            Self::RunCpms => "run-cpms",
            Self::Reconstruct => "reconstruct",
        };
        f.write_str(name)
    }
}

/// Telemetry of one completed stage transition.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Which stage this records.
    pub stage: StageName,
    /// Wall-clock time the transition took.
    pub wall: Duration,
    /// Trials executed in this stage (0 where not applicable).
    pub trials: u64,
    /// Placement-search compilations this stage paid: 1 for
    /// `compile-global`, one per CPM for a recompiling `run-cpms`, else 0.
    pub compiles: u64,
    /// Work items processed: subset-size layers planned, circuits
    /// compiled, CPMs run, reconstruction rounds, …
    pub items: usize,
    /// Simulation backend the stage resolved to, where one ran.
    pub backend: Option<BackendKind>,
    /// Support size of the PMF the stage produced, where one exists.
    pub support: Option<usize>,
}

/// Per-stage telemetry of a pipeline run, attached to
/// [`JigsawResult::timings`].
///
/// A forked stage carries the records accumulated up to the fork point, so
/// each branch's final result reports its full own history.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    records: Vec<StageRecord>,
}

impl StageTimings {
    /// All records, in execution order.
    #[must_use]
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// The most recent record of `stage`, if that stage has run.
    #[must_use]
    pub fn get(&self, stage: StageName) -> Option<&StageRecord> {
        self.records.iter().rev().find(|r| r.stage == stage)
    }

    /// Total wall-clock across all recorded stages.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.records.iter().map(|r| r.wall).sum()
    }

    /// Placement-search compilations across all recorded stages.
    #[must_use]
    pub fn compiles(&self) -> u64 {
        self.records.iter().fold(0, |sum, r| sum.saturating_add(r.compiles))
    }

    fn push(&mut self, record: StageRecord) {
        self.records.push(record);
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            write!(f, "  {:<15} {:>10.3?}", r.stage.to_string(), r.wall)?;
            if r.trials > 0 {
                write!(f, "  trials {}", r.trials)?;
            }
            if r.compiles > 0 {
                write!(f, "  compiles {}", r.compiles)?;
            }
            if r.items > 0 {
                write!(f, "  items {}", r.items)?;
            }
            if let Some(b) = r.backend {
                write!(f, "  backend {b:?}")?;
            }
            if let Some(s) = r.support {
                write!(f, "  support {s}")?;
            }
            writeln!(f)?;
        }
        write!(f, "  {:<15} {:>10.3?}", "total", self.total_wall())
    }
}

/// The trial-budget split computed by [`JigsawPipeline::plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BudgetPlan {
    /// Trials spent in global mode.
    global_trials: u64,
    /// Trials available to the CPM subset mode.
    subset_trials: u64,
    /// Subset sizes that fit the program, descending (§4.4.2 order).
    sizes: Vec<usize>,
}

/// Why [`JigsawPipeline::try_plan`] refused a job. These are the
/// *request-shaped* failures — conditions a caller (interactive or remote)
/// can produce with well-formed but unusable inputs, which therefore must
/// surface as typed errors rather than panics. The panicking
/// [`JigsawPipeline::plan`] wraps this with the historical messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The program already declares measurements; JigSaw chooses what to
    /// measure, so the caller must pass the measurement-free program.
    Premeasured,
    /// The program does not fit on the device.
    WiderThanDevice {
        /// Program width in qubits.
        program: usize,
        /// Device width in qubits.
        device: usize,
    },
    /// No configured subset size is at least 1 and smaller than the
    /// program, so no CPM can be formed.
    NoFittingSubsetSize {
        /// Program width in qubits.
        program: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Premeasured => {
                f.write_str("pass the measurement-free program; JigSaw chooses what to measure")
            }
            Self::WiderThanDevice { program, device } => {
                write!(f, "{program}-qubit program does not fit a {device}-qubit device")
            }
            Self::NoFittingSubsetSize { program } => {
                write!(f, "no subset size fits a {program}-qubit program")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl BudgetPlan {
    /// The plan a config resolves to for an `n`-qubit program, or `None`
    /// when no configured subset size fits — the fallible path archive
    /// decoding uses to validate a stored plan without panicking.
    fn try_for_config(config: &JigsawConfig, n: usize) -> Option<Self> {
        let mut sizes: Vec<usize> =
            config.subset_sizes.iter().copied().filter(|&s| s >= 1 && s < n).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a)); // descending: §4.4.2 ordering
        sizes.dedup();
        if sizes.is_empty() {
            return None;
        }
        let global_trials =
            ((config.total_trials as f64 * config.global_fraction).round() as u64).max(1);
        let subset_trials = config.total_trials.saturating_sub(global_trials);
        Some(Self { global_trials, subset_trials, sizes })
    }

    fn for_config(config: &JigsawConfig, n: usize) -> Self {
        Self::try_for_config(config, n)
            .unwrap_or_else(|| panic!("no subset size fits a {n}-qubit program"))
    }
}

/// Shared cross-stage state threaded through every pipeline stage.
#[derive(Debug, Clone)]
pub(crate) struct Ctx {
    program: Circuit,
    device: Device,
    config: JigsawConfig,
    plan: BudgetPlan,
    timings: StageTimings,
}

impl Ctx {
    /// Runs one stage transition and records it: `work` gets this context
    /// and returns the transition's output with the stage's record, whose
    /// `wall` is set here to the time `work` took.
    fn timed<T>(&mut self, work: impl FnOnce(&Self) -> (T, StageRecord)) -> T {
        // analyze:allow(wallclock, stage wall time feeds StageTimings/telemetry only; no Encode impl touches it)
        let t0 = Instant::now();
        let (out, record) = work(self);
        let record = StageRecord { wall: t0.elapsed(), ..record };
        // Promote the per-run record into the process-wide registry, so a
        // long-running service aggregates stage walls across every job it
        // has executed (see `crate::telemetry`). Purely observational:
        // nothing feeds back into the run.
        crate::telemetry::global().observe_stage(record.stage, record.wall);
        self.timings.push(record);
        out
    }

    /// The CPM work list of `layers`; see [`SubsetsSelected::cpm_work`].
    fn cpm_work(&self, layers: &[SubsetLayer]) -> Vec<CpmWork> {
        let mut work = Vec::new();
        let mut cpm_index = 0u64;
        for layer in layers {
            let per_cpm = (layer.budget / layer.subsets.len().max(1) as u64).max(1);
            for subset in &layer.subsets {
                work.push(CpmWork {
                    subset: subset.clone(),
                    trials: per_cpm,
                    seed: seed::cpm(self.config.seed, cpm_index),
                });
                cpm_index += 1;
            }
        }
        work
    }

    /// One CPM's marginal: its histogram, normalised.
    fn run_cpm(&self, global: &Compiled, item: &CpmWork) -> Marginal {
        Marginal::new(item.subset.clone(), self.cpm_counts(global, item).to_pmf())
    }

    /// One CPM's histogram; see [`SubsetsSelected::run_cpm_item_counts`].
    fn cpm_counts(&self, global: &Compiled, item: &CpmWork) -> jigsaw_pmf::Counts {
        // Inner executor runs and CPM placement searches stay serial: the
        // fan-out already uses the worker team, and nested teams would
        // oversubscribe cores.
        let cpm_compiler = CompilerOptions { threads: 1, ..self.config.compiler };
        let cpm_run = self.config.run.with_seed(item.seed).with_threads(1);
        let artifact = if self.config.recompile_cpms {
            CpmArtifact::recompiled(&self.program, &item.subset, &self.device, &cpm_compiler)
        } else {
            CpmArtifact::reusing(global, &item.subset)
        };
        Executor::new(&self.device).run(&artifact.circuit, item.trials, &cpm_run)
    }

    /// The inputs the archive config digest covers (see [`crate::persist`]).
    pub(crate) fn digest_inputs(&self) -> (&Circuit, &Device, &JigsawConfig) {
        (&self.program, &self.device, &self.config)
    }
}

/// One CPM subset-size layer: the subsets of that size and their combined
/// trial budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetLayer {
    /// Subset size (qubits per CPM).
    pub size: usize,
    /// The subsets, each a sorted list of logical qubits.
    pub subsets: Vec<Vec<usize>>,
    /// Trials allocated to this layer in total.
    pub budget: u64,
}

/// Entry point of the staged API.
///
/// See the [module docs](self) for the stage graph and guarantees, and
/// [`crate::persist`] for saving stages to disk and resuming them in
/// another process ([`persist::save_stage`](crate::persist::save_stage) /
/// [`persist::resume_from`](crate::persist::resume_from)).
///
/// # Examples
///
/// One global compile + run, forked across two subset sizes:
///
/// ```
/// use jigsaw_circuit::bench;
/// use jigsaw_core::{JigsawConfig, JigsawPipeline};
/// use jigsaw_device::Device;
/// # use jigsaw_compiler::CompilerOptions;
///
/// let device = Device::toronto();
/// let bench = bench::ghz(4);
/// let config = JigsawConfig {
/// #     compiler: CompilerOptions { max_seeds: 2, ..CompilerOptions::default() },
///     ..JigsawConfig::jigsaw(400)
/// };
/// let shared = JigsawPipeline::plan(bench.circuit(), &device, &config)
///     .compile_global()
///     .run_global(); // the expensive prefix, paid once
/// for size in [2, 3] {
///     let result = shared
///         .clone()
///         .with_subset_sizes(vec![size])
///         .select_subsets()
///         .run_cpms()
///         .reconstruct();
///     assert!(result.marginals.iter().all(|m| m.size() == size));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JigsawPipeline;

impl JigsawPipeline {
    /// Stage 0: validates the program and splits the trial budget.
    ///
    /// # Panics
    ///
    /// Panics on any [`PlanError`] condition — the same conditions as
    /// [`run_jigsaw`](crate::run_jigsaw). Services handling untrusted
    /// requests use [`Self::try_plan`] instead.
    #[must_use]
    pub fn plan(program: &Circuit, device: &Device, config: &JigsawConfig) -> Planned {
        Self::try_plan(program, device, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Stage 0, fallible: validates the program and splits the trial
    /// budget, refusing unusable requests with a typed [`PlanError`].
    ///
    /// This is the entry point for callers whose inputs arrive over a wire
    /// (the job server): a pre-measured program, an oversized program or a
    /// subset-size list that fits nothing are *request* defects, and a
    /// request defect must never be able to panic the process serving it.
    ///
    /// # Errors
    ///
    /// Returns the [`PlanError`] describing the first failed check.
    pub fn try_plan(
        program: &Circuit,
        device: &Device,
        config: &JigsawConfig,
    ) -> Result<Planned, PlanError> {
        let mut ctx = Ctx {
            program: program.clone(),
            device: device.clone(),
            config: config.clone(),
            plan: BudgetPlan { global_trials: 0, subset_trials: 0, sizes: Vec::new() },
            timings: StageTimings::default(),
        };
        ctx.plan = ctx.timed(|ctx| {
            let (program, device) = (&ctx.program, &ctx.device);
            let plan = if !program.measurements().is_empty() {
                Err(PlanError::Premeasured)
            } else if program.n_qubits() > device.n_qubits() {
                Err(PlanError::WiderThanDevice {
                    program: program.n_qubits(),
                    device: device.n_qubits(),
                })
            } else {
                BudgetPlan::try_for_config(&ctx.config, program.n_qubits())
                    .ok_or(PlanError::NoFittingSubsetSize { program: program.n_qubits() })
            };
            let record = StageRecord {
                stage: StageName::Plan,
                wall: Duration::ZERO,
                // Planning executes nothing; summing `trials` across
                // records must equal the trials actually run.
                trials: 0,
                compiles: 0,
                items: plan.as_ref().map_or(0, |plan| plan.sizes.len()),
                backend: None,
                support: None,
            };
            (plan, record)
        })?;
        Ok(Planned { ctx })
    }
}

/// Stage result of [`JigsawPipeline::plan`]: budget split and subset plan.
#[derive(Debug, Clone)]
pub struct Planned {
    ctx: Ctx,
}

impl Planned {
    /// Stage 1: noise-aware compilation of the global-mode circuit (all
    /// qubits measured).
    ///
    /// # Panics
    ///
    /// Panics if the program is wider than the device or no placement
    /// succeeds.
    #[must_use]
    pub fn compile_global(mut self) -> GlobalCompiled {
        let global = self.ctx.timed(|ctx| {
            let mut global_logical = ctx.program.clone();
            global_logical.measure_all();
            let global = compile(&global_logical, &ctx.device, &ctx.config.compiler);
            let record = StageRecord {
                stage: StageName::CompileGlobal,
                wall: Duration::ZERO,
                trials: 0,
                compiles: 1,
                items: 1,
                backend: None,
                support: None,
            };
            (global, record)
        });
        GlobalCompiled { ctx: self.ctx, global }
    }
}

/// Stage result of [`Planned::compile_global`]: holds the compiled global
/// artifact. Fork this to reuse one compilation across many run configs.
#[derive(Debug, Clone)]
pub struct GlobalCompiled {
    ctx: Ctx,
    global: Compiled,
}

impl GlobalCompiled {
    /// The compiled global-mode artifact.
    #[must_use]
    pub fn artifact(&self) -> &Compiled {
        &self.global
    }

    /// Telemetry accumulated so far.
    #[must_use]
    pub fn timings(&self) -> &StageTimings {
        &self.ctx.timings
    }

    /// Re-splits the budget with a new global fraction — compilation does
    /// not depend on it, so a fork per fraction shares this artifact (the
    /// `abl_split` sweep).
    #[must_use]
    pub fn with_global_fraction(mut self, fraction: f64) -> Self {
        self.ctx.config.global_fraction = fraction;
        self.ctx.plan = BudgetPlan::for_config(&self.ctx.config, self.ctx.program.n_qubits());
        self
    }

    /// Replaces the executor options for all downstream runs — compilation
    /// does not depend on them, so a fork per noise configuration shares
    /// this artifact (the `abl_channels` sweep).
    #[must_use]
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.ctx.config.run = run;
        self
    }

    /// Stage 2: executes the global mode and produces the prior PMF.
    #[must_use]
    pub fn run_global(mut self) -> GlobalRun {
        let (global_pmf, backend) = self.ctx.timed(|ctx| {
            let executor = Executor::new(&ctx.device);
            let backend = executor.backend_for(self.global.circuit(), &ctx.config.run);
            let counts = executor.run(
                self.global.circuit(),
                ctx.plan.global_trials,
                &ctx.config.run.with_seed(seed::global_run(ctx.config.seed)),
            );
            let global_pmf = counts.to_pmf();
            let record = StageRecord {
                stage: StageName::RunGlobal,
                wall: Duration::ZERO,
                trials: ctx.plan.global_trials,
                compiles: 0,
                items: 1,
                backend: Some(backend),
                support: Some(global_pmf.support_size()),
            };
            ((global_pmf, backend), record)
        });
        GlobalRun { ctx: self.ctx, global: self.global, global_pmf, backend }
    }
}

/// Stage result of [`GlobalCompiled::run_global`]: the global PMF is now
/// available for inspection and steering. This is the natural fork point
/// for subset-policy sweeps — everything upstream (compile + global run) is
/// the expensive, config-independent part.
#[derive(Debug, Clone)]
pub struct GlobalRun {
    ctx: Ctx,
    global: Compiled,
    global_pmf: Pmf,
    backend: BackendKind,
}

impl GlobalRun {
    /// The global-mode PMF (the reconstruction prior).
    #[must_use]
    pub fn global_pmf(&self) -> &Pmf {
        &self.global_pmf
    }

    /// The compiled global-mode artifact.
    #[must_use]
    pub fn artifact(&self) -> &Compiled {
        &self.global
    }

    /// Replaces the subset sizes for the downstream stages — the global
    /// stages do not depend on them, so a fork per size shares this run
    /// (the `abl_subset_size` sweep).
    ///
    /// # Panics
    ///
    /// Panics if no provided size fits the program.
    #[must_use]
    pub fn with_subset_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.ctx.config.subset_sizes = sizes;
        self.ctx.plan = BudgetPlan::for_config(&self.ctx.config, self.ctx.program.n_qubits());
        self
    }

    /// Replaces the subset-selection policy for [`Self::select_subsets`].
    #[must_use]
    pub fn with_selection(mut self, selection: SubsetSelection) -> Self {
        self.ctx.config.selection = selection;
        self
    }

    /// Disables CPM recompilation downstream ("JigSaw w/o recompilation",
    /// Fig. 11): CPMs reuse this run's global mapping.
    #[must_use]
    pub fn without_recompilation(mut self) -> Self {
        self.ctx.config.recompile_cpms = false;
        self
    }

    /// Stage 3: chooses CPM subsets per the configured policy and splits
    /// the subset budget among them.
    ///
    /// [`SubsetSelection::Adaptive`] is resolved here, against
    /// [`Self::global_pmf`] — the steering step the one-shot API cannot
    /// express.
    ///
    /// # Panics
    ///
    /// Panics if a random selection requests more distinct subsets than
    /// exist.
    #[must_use]
    pub fn select_subsets(mut self) -> SubsetsSelected {
        let layers = self.ctx.timed(|ctx| {
            let n = ctx.program.n_qubits();
            let sizes = &ctx.plan.sizes;
            let per_size: Vec<Vec<Vec<usize>>> = match ctx.config.selection {
                // One entropy/MI model serves every size layer.
                SubsetSelection::Adaptive => {
                    adaptive_layers(&self.global_pmf, sizes, ctx.config.run.threads)
                }
                other => sizes
                    .iter()
                    .map(|&size| {
                        generate(n, size, other, seed::subset_layer(ctx.config.seed, size))
                    })
                    .collect(),
            };
            let lists: Vec<(usize, Vec<Vec<usize>>)> =
                sizes.iter().copied().zip(per_size).collect();
            let cpm_count: usize = lists.iter().map(|(_, subs)| subs.len()).sum();
            let subset_trials = ctx.plan.subset_trials;

            // Per-layer budgets. Equal split is the paper's default; the
            // coverage-weighted split (Appendix A.2's "fine-tuned" option)
            // gives a size-s CPM budget proportional to its outcome-coverage
            // need.
            let layers: Vec<SubsetLayer> = match ctx.config.allocation {
                TrialAllocation::Equal => {
                    let per = (subset_trials / cpm_count.max(1) as u64).max(1);
                    lists
                        .into_iter()
                        .map(|(size, subsets)| {
                            let budget = per * subsets.len() as u64;
                            SubsetLayer { size, subsets, budget }
                        })
                        .collect()
                }
                TrialAllocation::CoverageWeighted { confidence } => {
                    let weights: Vec<f64> = lists
                        .iter()
                        .map(|(s, subs)| {
                            crate::trials::cpm_trials(*s, confidence) as f64 * subs.len() as f64
                        })
                        .collect();
                    let total_weight: f64 = weights.iter().sum();
                    lists
                        .into_iter()
                        .zip(weights)
                        .map(|((size, subsets), w)| {
                            let budget = ((subset_trials as f64 * w / total_weight) as u64).max(1);
                            SubsetLayer { size, subsets, budget }
                        })
                        .collect()
                }
            };
            let record = StageRecord {
                stage: StageName::SelectSubsets,
                wall: Duration::ZERO,
                trials: 0,
                compiles: 0,
                items: cpm_count,
                backend: None,
                support: None,
            };
            (layers, record)
        });
        SubsetsSelected {
            ctx: self.ctx,
            global: self.global,
            global_pmf: self.global_pmf,
            backend: self.backend,
            layers,
        }
    }
}

/// Stage result of [`GlobalRun::select_subsets`]: the CPM work list with
/// per-layer budgets.
#[derive(Debug, Clone)]
pub struct SubsetsSelected {
    ctx: Ctx,
    global: Compiled,
    global_pmf: Pmf,
    backend: BackendKind,
    layers: Vec<SubsetLayer>,
}

impl SubsetsSelected {
    /// The subset layers, descending by size, with their budgets.
    #[must_use]
    pub fn layers(&self) -> &[SubsetLayer] {
        &self.layers
    }

    /// The CPM execution work list this stage will fan out: one item per
    /// CPM, in work-list order (largest sizes first), each carrying its
    /// per-CPM trial budget and its index-pinned RNG seed.
    ///
    /// External executors — a distributed sweep ([`crate::dist`]) ships
    /// ranges of it to other processes — compute each item's histogram with
    /// [`Self::run_cpm_item_counts`], normalise it with `Counts::to_pmf`,
    /// and hand the marginals back through [`Self::finish_cpms`];
    /// [`Self::run_cpms`] is exactly that chain, so any schedule that
    /// preserves item order reproduces it bit-for-bit.
    #[must_use]
    pub fn cpm_work(&self) -> Vec<CpmWork> {
        self.ctx.cpm_work(&self.layers)
    }

    /// Compiles (or derives from the global artifact) and executes one CPM
    /// work item, returning its raw histogram — the unit a distributed
    /// sweep ([`crate::dist`]) ships across processes. Pure in
    /// `(self, item)`: the seed rides on the item, so the result is
    /// independent of when, where or alongside what the item runs. The
    /// stage's marginal is exactly this followed by the deterministic
    /// `Counts::to_pmf` normalisation, so moving histograms over the wire
    /// and normalising at the merge preserves bit-identity.
    #[must_use]
    pub fn run_cpm_item_counts(&self, item: &CpmWork) -> jigsaw_pmf::Counts {
        self.ctx.cpm_counts(&self.global, item)
    }

    /// The persist config digest of the producing `(program, device,
    /// config)` triple — the content address distributed shard frames are
    /// bound to, mirroring the job protocol's digest binding.
    #[must_use]
    pub fn config_digest(&self) -> u64 {
        let (program, device, config) = self.ctx.digest_inputs();
        crate::persist::config_digest(program, device, config)
    }

    /// Stage 4: compiles (or derives from the global artifact) and executes
    /// every CPM, fanning across the worker team. Per-CPM seeds are pinned
    /// to the CPM index and results keep work-list order, so any thread
    /// count reproduces the serial histograms bit-for-bit.
    #[must_use]
    pub fn run_cpms(self) -> CpmsRun {
        self.execute_cpms(|ctx, global, work| {
            jigsaw_pmf::parallel::fan_out(work, ctx.config.run.threads, |item| {
                ctx.run_cpm(global, &item)
            })
        })
    }

    /// Stage 4 completion: installs externally computed CPM marginals —
    /// which must be [`Self::run_cpm_item_counts`], normalised, applied to
    /// [`Self::cpm_work`] in work-list order — and records the stage. The
    /// semantic stage record (trials, compiles, items) is derived from the
    /// work list, so an external execution encodes byte-identically to
    /// [`Self::run_cpms`].
    /// The record's wall covers only this driver-side bookkeeping: the
    /// marginals were computed elsewhere, outside the stage's clock.
    ///
    /// # Panics
    ///
    /// Panics if `marginals` does not have one entry per work item.
    #[must_use]
    pub fn finish_cpms(self, marginals: Vec<Marginal>) -> CpmsRun {
        self.execute_cpms(|_, _, _| marginals)
    }

    /// Stage 4 proper: `execute` turns the work list into its marginals
    /// (given the context and the global artifact); execution and the
    /// stage's bookkeeping are timed together as the stage.
    fn execute_cpms(
        mut self,
        execute: impl FnOnce(&Ctx, &Compiled, Vec<CpmWork>) -> Vec<Marginal>,
    ) -> CpmsRun {
        let (marginals, cpm_trials) = self.ctx.timed(|ctx| {
            let work = ctx.cpm_work(&self.layers);
            let cpm_trials: u64 = work.iter().map(|w| w.trials).sum();
            let items = work.len();
            let marginals = execute(ctx, &self.global, work);
            assert_eq!(
                marginals.len(),
                items,
                "finish_cpms needs exactly one marginal per work item"
            );
            let record = StageRecord {
                stage: StageName::RunCpms,
                wall: Duration::ZERO,
                trials: cpm_trials,
                // One compile per CPM when the config recompiles them, none
                // when they reuse the global mapping: derived from the work
                // list, so every execution path records the same count.
                compiles: if ctx.config.recompile_cpms { items as u64 } else { 0 },
                items,
                backend: None,
                support: None,
            };
            ((marginals, cpm_trials), record)
        });
        let trials_used = self.ctx.plan.global_trials + cpm_trials;
        CpmsRun {
            ctx: self.ctx,
            global: self.global,
            global_pmf: self.global_pmf,
            backend: self.backend,
            layers: self.layers,
            marginals,
            trials_used,
        }
    }
}

/// One CPM execution work item: the subset to measure, its trial budget,
/// and its index-pinned RNG seed (see [`SubsetsSelected::cpm_work`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpmWork {
    /// The qubit subset this CPM measures (sorted).
    pub subset: Vec<usize>,
    /// Trials allocated to this CPM.
    pub trials: u64,
    /// The CPM's derived RNG stream (pinned to its work-list index).
    pub seed: u64,
}

/// Stage result of [`SubsetsSelected::run_cpms`]: every CPM's local PMF.
#[derive(Debug, Clone)]
pub struct CpmsRun {
    ctx: Ctx,
    global: Compiled,
    global_pmf: Pmf,
    backend: BackendKind,
    layers: Vec<SubsetLayer>,
    marginals: Vec<Marginal>,
    trials_used: u64,
}

impl CpmsRun {
    /// All CPM marginals, in work-list order (largest sizes first).
    #[must_use]
    pub fn marginals(&self) -> &[Marginal] {
        &self.marginals
    }

    /// The global-mode PMF (the reconstruction prior).
    #[must_use]
    pub fn global_pmf(&self) -> &Pmf {
        &self.global_pmf
    }

    /// Telemetry accumulated so far.
    #[must_use]
    pub fn timings(&self) -> &StageTimings {
        &self.ctx.timings
    }

    /// Stage 5: hierarchical Bayesian reconstruction, largest subset size
    /// first (§4.4.2), producing the final [`JigsawResult`].
    #[must_use]
    pub fn reconstruct(mut self) -> JigsawResult {
        let (output, rounds) = self.ctx.timed(|ctx| {
            // The sharded reconstruction passes run on the same worker-team
            // setting as the rest of the pipeline: RunConfig::threads
            // overrides whatever the reconstruction config carries, so one
            // knob governs every stage.
            let reconstruction = ctx.config.reconstruction.with_threads(ctx.config.run.threads);
            let mut current = self.global_pmf.clone();
            let mut rounds = 0;
            for layer in &self.layers {
                let members: Vec<Marginal> =
                    self.marginals.iter().filter(|m| m.size() == layer.size).cloned().collect();
                let r = reconstruct(&current, &members, &reconstruction);
                // A layer the round cap stopped is reported, not hidden.
                crate::telemetry::reconstruct_layers(r.converged).inc();
                crate::telemetry::reconstruct_rounds().add(r.rounds as u64);
                current = r.pmf;
                rounds += r.rounds;
            }
            let record = StageRecord {
                stage: StageName::Reconstruct,
                wall: Duration::ZERO,
                trials: 0,
                compiles: 0,
                items: rounds,
                backend: None,
                support: Some(current.support_size()),
            };
            ((current, rounds), record)
        });
        JigsawResult {
            output,
            global: self.global_pmf,
            marginals: self.marginals,
            global_eps: self.global.eps,
            rounds,
            trials_used: self.trials_used,
            backend: self.backend,
            timings: self.ctx.timings,
        }
    }
}

/// A pipeline stage value with its type erased: any mid-pipeline artifact
/// boxed as one unit of schedulable work.
///
/// The typestate API ([`Planned`] → … → [`CpmsRun`]) is what makes solo
/// drivers safe, but a multi-job scheduler needs to hold *many jobs at
/// different stages* in one queue. `StageTask` is that common currency:
/// [`Self::advance`] runs exactly one stage transition, so a scheduler can
/// interleave stage execution across jobs at will — every transition calls
/// the same typestate method a solo driver would, and stage seeds depend
/// only on `(experiment seed, stage identity)`, so *any* interleaving
/// replays bit-identically to [`run_jigsaw`](crate::run_jigsaw).
#[derive(Debug, Clone)]
pub enum StageTask {
    /// Planned; next transition is [`Planned::compile_global`].
    Planned(Planned),
    /// Compiled; next transition is [`GlobalCompiled::run_global`].
    GlobalCompiled(GlobalCompiled),
    /// Global mode ran; next transition is [`GlobalRun::select_subsets`].
    GlobalRun(GlobalRun),
    /// Subsets chosen; next transition is [`SubsetsSelected::run_cpms`].
    SubsetsSelected(SubsetsSelected),
    /// CPMs ran; next transition is [`CpmsRun::reconstruct`].
    CpmsRun(CpmsRun),
}

/// What one [`StageTask::advance`] produced: the next stage, or the final
/// result.
#[derive(Debug)]
pub enum StageOutcome {
    /// The job has more stages to run.
    Next(Box<StageTask>),
    /// The job is complete.
    Done(Box<JigsawResult>),
}

impl StageTask {
    /// Runs exactly one stage transition — the same typestate method a
    /// solo driver would call.
    ///
    /// # Panics
    ///
    /// Propagates the advanced stage's panics (compilation failures, a
    /// `Random` selection requesting more subsets than exist, …); a
    /// scheduler executing untrusted jobs wraps this in its fault barrier.
    #[must_use]
    pub fn advance(self) -> StageOutcome {
        match self {
            Self::Planned(stage) => {
                StageOutcome::Next(Box::new(Self::GlobalCompiled(stage.compile_global())))
            }
            Self::GlobalCompiled(stage) => {
                StageOutcome::Next(Box::new(Self::GlobalRun(stage.run_global())))
            }
            Self::GlobalRun(stage) => {
                StageOutcome::Next(Box::new(Self::SubsetsSelected(stage.select_subsets())))
            }
            Self::SubsetsSelected(stage) => {
                StageOutcome::Next(Box::new(Self::CpmsRun(stage.run_cpms())))
            }
            Self::CpmsRun(stage) => StageOutcome::Done(Box::new(stage.reconstruct())),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec: the persistable faces of the pipeline (see `crate::persist` for the
// archive framing and docs/FORMAT.md for the byte-level specification).
//
// Telemetry is deliberately **non-semantic** here: `StageRecord` encodes
// everything *except* its wall-clock duration, which decodes as zero. Wall
// time is the one field that differs between two otherwise identical runs,
// so excluding it keeps archives deterministic — two runs of the same seed
// produce byte-identical checkpoints — exactly as `JigsawResult`'s
// `PartialEq` already ignores `timings` in memory.
// ---------------------------------------------------------------------------

use jigsaw_pmf::codec::{CodecError, Decode, Encode, Reader, Writer};

/// Wire format: one tag byte, in protocol order (`0` plan … `5`
/// reconstruct).
impl Encode for StageName {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Self::Plan => 0,
            Self::CompileGlobal => 1,
            Self::RunGlobal => 2,
            Self::SelectSubsets => 3,
            Self::RunCpms => 4,
            Self::Reconstruct => 5,
        });
    }
}

impl Decode for StageName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Self::Plan,
            1 => Self::CompileGlobal,
            2 => Self::RunGlobal,
            3 => Self::SelectSubsets,
            4 => Self::RunCpms,
            5 => Self::Reconstruct,
            tag => return Err(CodecError::InvalidTag { what: "StageName", tag }),
        })
    }
}

/// Wire format: stage tag, trials, compiles, items, backend, support —
/// **without the wall-clock duration**, which is telemetry, not protocol
/// state; it decodes as [`Duration::ZERO`].
impl Encode for StageRecord {
    fn encode(&self, w: &mut Writer) {
        self.stage.encode(w);
        w.put_u64(self.trials);
        w.put_u64(self.compiles);
        w.put_usize(self.items);
        self.backend.encode(w);
        self.support.encode(w);
    }
}

impl Decode for StageRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            stage: StageName::decode(r)?,
            wall: Duration::ZERO,
            trials: r.u64()?,
            compiles: r.u64()?,
            items: r.usize()?,
            backend: Option::<BackendKind>::decode(r)?,
            support: Option::<usize>::decode(r)?,
        })
    }
}

impl Encode for StageTimings {
    fn encode(&self, w: &mut Writer) {
        self.records.encode(w);
    }
}

impl Decode for StageTimings {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self { records: Vec::<StageRecord>::decode(r)? })
    }
}

/// Wire format: global trials, subset trials, the descending size list.
impl Encode for BudgetPlan {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.global_trials);
        w.put_u64(self.subset_trials);
        self.sizes.encode(w);
    }
}

impl Decode for BudgetPlan {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            global_trials: r.u64()?,
            subset_trials: r.u64()?,
            sizes: Vec::<usize>::decode(r)?,
        })
    }
}

/// Wire format: subset size, the subset list, the layer budget.
impl Encode for SubsetLayer {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.size);
        self.subsets.encode(w);
        w.put_u64(self.budget);
    }
}

impl Decode for SubsetLayer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self { size: r.usize()?, subsets: Vec::<Vec<usize>>::decode(r)?, budget: r.u64()? })
    }
}

/// Wire format: program, device, config, plan, timings. Decode
/// re-derives the plan from the decoded config and rejects an archive
/// whose stored plan disagrees — the plan is a pure function of
/// `(config, program width)`, so a mismatch means the archive was
/// corrupted or hand-edited.
impl Encode for Ctx {
    fn encode(&self, w: &mut Writer) {
        self.program.encode(w);
        self.device.encode(w);
        self.config.encode(w);
        self.plan.encode(w);
        self.timings.encode(w);
    }
}

impl Decode for Ctx {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let invalid = |detail: String| CodecError::InvalidValue { what: "Ctx", detail };
        let program = Circuit::decode(r)?;
        let device = Device::decode(r)?;
        let config = JigsawConfig::decode(r)?;
        let plan = BudgetPlan::decode(r)?;
        let timings = StageTimings::decode(r)?;
        if !program.measurements().is_empty() {
            return Err(invalid("the stored program must be measurement-free".into()));
        }
        if program.n_qubits() > device.n_qubits() {
            return Err(invalid(format!(
                "{}-qubit program on a {}-qubit device",
                program.n_qubits(),
                device.n_qubits()
            )));
        }
        match BudgetPlan::try_for_config(&config, program.n_qubits()) {
            Some(expected) if expected == plan => {}
            _ => return Err(invalid("stored budget plan disagrees with the stored config".into())),
        }
        Ok(Self { program, device, config, plan, timings })
    }
}

/// Semantic cross-stage equality: everything except telemetry.
impl PartialEq for Ctx {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program
            && self.device == other.device
            && self.config == other.config
            && self.plan == other.plan
    }
}

impl Planned {
    pub(crate) fn ctx(&self) -> &Ctx {
        &self.ctx
    }
}

/// Equality of stage values compares protocol state and deliberately
/// ignores [`StageTimings`] — mirroring [`JigsawResult`]'s `PartialEq` —
/// so a checkpoint-resumed stage compares equal to the in-process stage it
/// was saved from.
impl PartialEq for Planned {
    fn eq(&self, other: &Self) -> bool {
        self.ctx == other.ctx
    }
}

impl Encode for Planned {
    fn encode(&self, w: &mut Writer) {
        self.ctx.encode(w);
    }
}

impl Decode for Planned {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self { ctx: Ctx::decode(r)? })
    }
}

impl GlobalCompiled {
    pub(crate) fn ctx(&self) -> &Ctx {
        &self.ctx
    }
}

/// See [`Planned`]'s `PartialEq`: protocol state only, telemetry ignored.
impl PartialEq for GlobalCompiled {
    fn eq(&self, other: &Self) -> bool {
        self.ctx == other.ctx && self.global == other.global
    }
}

impl Encode for GlobalCompiled {
    fn encode(&self, w: &mut Writer) {
        self.ctx.encode(w);
        self.global.encode(w);
    }
}

impl Decode for GlobalCompiled {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ctx = Ctx::decode(r)?;
        let global = Compiled::decode(r)?;
        check_global_artifact(&ctx, &global)?;
        Ok(Self { ctx, global })
    }
}

impl GlobalRun {
    pub(crate) fn ctx(&self) -> &Ctx {
        &self.ctx
    }
}

/// See [`Planned`]'s `PartialEq`: protocol state only, telemetry ignored.
impl PartialEq for GlobalRun {
    fn eq(&self, other: &Self) -> bool {
        self.ctx == other.ctx
            && self.global == other.global
            && self.global_pmf == other.global_pmf
            && self.backend == other.backend
    }
}

impl Encode for GlobalRun {
    fn encode(&self, w: &mut Writer) {
        self.ctx.encode(w);
        self.global.encode(w);
        self.global_pmf.encode(w);
        self.backend.encode(w);
    }
}

impl Decode for GlobalRun {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ctx = Ctx::decode(r)?;
        let global = Compiled::decode(r)?;
        let global_pmf = Pmf::decode(r)?;
        let backend = BackendKind::decode(r)?;
        check_global_artifact(&ctx, &global)?;
        check_global_pmf(&ctx, &global_pmf)?;
        Ok(Self { ctx, global, global_pmf, backend })
    }
}

impl SubsetsSelected {
    pub(crate) fn ctx(&self) -> &Ctx {
        &self.ctx
    }
}

/// See [`Planned`]'s `PartialEq`: protocol state only, telemetry ignored.
impl PartialEq for SubsetsSelected {
    fn eq(&self, other: &Self) -> bool {
        self.ctx == other.ctx
            && self.global == other.global
            && self.global_pmf == other.global_pmf
            && self.backend == other.backend
            && self.layers == other.layers
    }
}

impl Encode for SubsetsSelected {
    fn encode(&self, w: &mut Writer) {
        self.ctx.encode(w);
        self.global.encode(w);
        self.global_pmf.encode(w);
        self.backend.encode(w);
        self.layers.encode(w);
    }
}

impl Decode for SubsetsSelected {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ctx = Ctx::decode(r)?;
        let global = Compiled::decode(r)?;
        let global_pmf = Pmf::decode(r)?;
        let backend = BackendKind::decode(r)?;
        let layers = Vec::<SubsetLayer>::decode(r)?;
        check_global_artifact(&ctx, &global)?;
        check_global_pmf(&ctx, &global_pmf)?;
        let n = ctx.program.n_qubits();
        for layer in &layers {
            let well_formed = layer.subsets.iter().all(|s| {
                s.len() == layer.size
                    && !s.is_empty()
                    && s.len() < n
                    // analyze:allow(panic-reach, windows(2) yields exactly-2 slices)
                    && s.windows(2).all(|w| w[0] < w[1])
                    && s.last().is_none_or(|&q| q < n)
            });
            if !well_formed {
                return Err(CodecError::InvalidValue {
                    what: "SubsetsSelected",
                    detail: format!("malformed size-{} subset layer", layer.size),
                });
            }
        }
        Ok(Self { ctx, global, global_pmf, backend, layers })
    }
}

/// The compiled global artifact must span the stored device.
fn check_global_artifact(ctx: &Ctx, global: &Compiled) -> Result<(), CodecError> {
    if global.circuit().n_qubits() != ctx.device.n_qubits() {
        return Err(CodecError::InvalidValue {
            what: "GlobalCompiled",
            detail: format!(
                "compiled circuit spans {} qubits, device has {}",
                global.circuit().n_qubits(),
                ctx.device.n_qubits()
            ),
        });
    }
    Ok(())
}

/// The global PMF must be as wide as the program.
fn check_global_pmf(ctx: &Ctx, pmf: &Pmf) -> Result<(), CodecError> {
    if pmf.n_bits() != ctx.program.n_qubits() {
        return Err(CodecError::InvalidValue {
            what: "GlobalRun",
            detail: format!(
                "{}-bit global PMF for a {}-qubit program",
                pmf.n_bits(),
                ctx.program.n_qubits()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_jigsaw;
    use jigsaw_circuit::bench;

    fn quick_config(trials: u64) -> JigsawConfig {
        JigsawConfig {
            compiler: CompilerOptions { max_seeds: 4, ..CompilerOptions::default() },
            ..JigsawConfig::jigsaw(trials)
        }
    }

    #[test]
    fn every_reconstructed_layer_is_counted_with_its_outcome() {
        // Sibling tests reconstruct concurrently, so the global counters
        // can only be bounded from below by this run's own layers.
        let layers = || {
            crate::telemetry::reconstruct_layers(true).get()
                + crate::telemetry::reconstruct_layers(false).get()
        };
        let (layers_before, rounds_before) =
            (layers(), crate::telemetry::reconstruct_rounds().get());
        let config = JigsawConfig { subset_sizes: vec![3, 2], ..quick_config(2000) };
        let result = run_jigsaw(bench::ghz(6).circuit(), &Device::toronto(), &config);
        assert!(layers() >= layers_before + 2);
        let rounds = crate::telemetry::reconstruct_rounds().get();
        assert!(rounds >= rounds_before + result.rounds as u64);
        let text = crate::telemetry::global().render_text();
        assert!(text.contains("jigsaw_reconstruct_layers_total{converged="), "{text}");
    }

    #[test]
    fn staged_run_matches_the_one_shot_wrapper() {
        let device = Device::toronto();
        let b = bench::ghz(6);
        let config = quick_config(2000).with_seed(5);
        let one_shot = run_jigsaw(b.circuit(), &device, &config);
        let staged = JigsawPipeline::plan(b.circuit(), &device, &config)
            .compile_global()
            .run_global()
            .select_subsets()
            .run_cpms()
            .reconstruct();
        assert_eq!(one_shot, staged);
    }

    #[test]
    fn forked_global_run_replays_bit_identically() {
        let device = Device::toronto();
        let b = bench::ghz(6);
        let config = quick_config(2000).with_seed(9);
        let global_run =
            JigsawPipeline::plan(b.circuit(), &device, &config).compile_global().run_global();
        // Drive a decoy branch first; the original fork must be unaffected.
        let fork = global_run.clone();
        let decoy =
            fork.clone().with_subset_sizes(vec![3]).select_subsets().run_cpms().reconstruct();
        assert!(decoy.marginals.iter().all(|m| m.size() == 3));
        let a = fork.select_subsets().run_cpms().reconstruct();
        let b2 = global_run.select_subsets().run_cpms().reconstruct();
        assert_eq!(a, b2);
        assert_eq!(a, run_jigsaw(b.circuit(), &device, &config));
    }

    #[test]
    fn adaptive_selection_covers_every_qubit() {
        let device = Device::toronto();
        let b = bench::ghz(7);
        let config = JigsawConfig {
            selection: SubsetSelection::Adaptive,
            ..quick_config(2000).with_seed(3)
        };
        let result = run_jigsaw(b.circuit(), &device, &config);
        for q in 0..7 {
            assert!(
                result.marginals.iter().any(|m| m.qubits.contains(&q)),
                "qubit {q} uncovered by adaptive subsets"
            );
        }
        assert!((result.output.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn timings_cover_every_stage() {
        let device = Device::toronto();
        let b = bench::ghz(5);
        let result = run_jigsaw(b.circuit(), &device, &quick_config(1000));
        for stage in [
            StageName::Plan,
            StageName::CompileGlobal,
            StageName::RunGlobal,
            StageName::SelectSubsets,
            StageName::RunCpms,
            StageName::Reconstruct,
        ] {
            assert!(result.timings.get(stage).is_some(), "missing record for {stage}");
        }
        let run_global = result.timings.get(StageName::RunGlobal).expect("recorded");
        assert_eq!(run_global.trials, 500);
        assert_eq!(run_global.backend, Some(BackendKind::Stabilizer));
        assert!(run_global.support.is_some());
        assert!(result.timings.total_wall() > Duration::ZERO);
        // The run paid its global compile plus one per recompiled CPM.
        let compile = result.timings.get(StageName::CompileGlobal).expect("recorded");
        assert_eq!(compile.compiles, 1);
        assert_eq!(result.compiles(), 1 + result.marginals.len() as u64);
        // Display renders one line per record plus the total, naming the
        // compiles of exactly the stages that paid some.
        let rendered = result.timings.to_string();
        assert_eq!(rendered.lines().count(), result.timings.records().len() + 1);
        assert_eq!(rendered.matches("compiles").count(), 2, "{rendered}");
        // The run-cpms record times the CPM fan-out, not only the
        // bookkeeping after it.
        let selected = JigsawPipeline::plan(b.circuit(), &device, &quick_config(1000))
            .compile_global()
            .run_global()
            .select_subsets();
        let t0 = Instant::now();
        let cpms = selected.run_cpms();
        let outer = t0.elapsed();
        let recorded = cpms.timings().get(StageName::RunCpms).expect("recorded").wall;
        assert!(recorded * 2 >= outer, "run-cpms recorded {recorded:?} of {outer:?}");
    }

    #[test]
    fn try_plan_refuses_request_defects_with_typed_errors() {
        let device = Device::toronto();
        let config = quick_config(1000);

        // Regression for the former `plan` assertion: a pre-measured
        // program is a typed refusal, not a panic.
        let mut measured = bench::ghz(4).circuit().clone();
        measured.measure_all();
        assert_eq!(
            JigsawPipeline::try_plan(&measured, &device, &config).unwrap_err(),
            PlanError::Premeasured
        );

        // Regression for the former `BudgetPlan::for_config` panic.
        let no_fit = JigsawConfig { subset_sizes: vec![9, 0], ..config.clone() };
        assert_eq!(
            JigsawPipeline::try_plan(bench::ghz(4).circuit(), &device, &no_fit).unwrap_err(),
            PlanError::NoFittingSubsetSize { program: 4 }
        );

        // A program wider than the device fails at plan time, before any
        // placement search could panic deep in the compiler.
        let wide = bench::ghz(40);
        assert_eq!(
            JigsawPipeline::try_plan(wide.circuit(), &device, &config).unwrap_err(),
            PlanError::WiderThanDevice { program: 40, device: device.n_qubits() }
        );

        // The happy path matches the panicking entry point.
        let planned = JigsawPipeline::try_plan(bench::ghz(4).circuit(), &device, &config).unwrap();
        assert_eq!(planned, JigsawPipeline::plan(bench::ghz(4).circuit(), &device, &config));
    }

    #[test]
    fn stage_task_chain_matches_run_jigsaw() {
        let device = Device::toronto();
        let b = bench::ghz(6);
        let config = quick_config(1600).with_seed(11);
        let mut task = StageTask::Planned(JigsawPipeline::plan(b.circuit(), &device, &config));
        let mut advances = 0;
        let result = loop {
            advances += 1;
            match task.advance() {
                StageOutcome::Next(next) => task = *next,
                StageOutcome::Done(result) => break *result,
            }
        };
        assert_eq!(advances, 5, "one advance per stage transition");
        assert_eq!(result, run_jigsaw(b.circuit(), &device, &config));
    }

    #[test]
    fn externally_driven_cpms_match_run_cpms() {
        let device = Device::toronto();
        let b = bench::ghz(6);
        let config = quick_config(2000).with_seed(4);
        let selected = JigsawPipeline::plan(b.circuit(), &device, &config)
            .compile_global()
            .run_global()
            .select_subsets();
        // Drive the work list by hand — serially, in order — exactly as a
        // distributed sweep's merge does: histograms, normalised per item.
        let work = selected.cpm_work();
        assert!(!work.is_empty());
        let marginals: Vec<Marginal> = work
            .iter()
            .map(|item| {
                Marginal::new(item.subset.clone(), selected.run_cpm_item_counts(item).to_pmf())
            })
            .collect();
        let external = selected.finish_cpms(marginals).reconstruct();
        assert_eq!(external, run_jigsaw(b.circuit(), &device, &config));
        // And the *encoded* results agree byte for byte (the serving
        // invariant): semantic stage records are derived from the work
        // list, not from who executed it.
        use jigsaw_pmf::codec::encode_to_vec;
        assert_eq!(
            encode_to_vec(&external),
            encode_to_vec(&run_jigsaw(b.circuit(), &device, &config))
        );
    }

    #[test]
    #[should_panic(expected = "one marginal per work item")]
    fn finish_cpms_rejects_a_short_marginal_list() {
        let device = Device::toronto();
        let b = bench::ghz(5);
        let selected = JigsawPipeline::plan(b.circuit(), &device, &quick_config(1000))
            .compile_global()
            .run_global()
            .select_subsets();
        let _ = selected.finish_cpms(Vec::new());
    }
}
