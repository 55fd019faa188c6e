#![forbid(unsafe_code)]
//! JigSaw: measurement subsetting and Bayesian reconstruction for NISQ
//! fidelity — the primary contribution of Das, Tannu & Qureshi (MICRO 2021),
//! reproduced in Rust.
//!
//! The pipeline runs a program in two modes (paper Fig. 4):
//!
//! 1. **Global mode** — all qubits measured for half the trials → the
//!    global-PMF (full correlation, low fidelity).
//! 2. **Subset mode** — Circuits with Partial Measurements, each measuring
//!    a small, optionally recompiled qubit subset → high-fidelity
//!    local-PMFs.
//!
//! [`bayes::reconstruct`] (Algorithm 1) then sharpens the global-PMF with
//! the local evidence. [`JigsawConfig::jigsaw_m`] enables Multi-Layer
//! JigSaw: several subset sizes, reconstructed largest-first (§4.4).
//!
//! The protocol is exposed at two altitudes: [`run_jigsaw`] drives it
//! end-to-end in one call, and the staged [`pipeline::JigsawPipeline`]
//! exposes each Fig. 4 stage as a forkable plain value — reuse a compiled
//! global artifact across a sweep, steer subset choice from the global PMF
//! ([`SubsetSelection::Adaptive`]), and read per-stage telemetry
//! ([`pipeline::StageTimings`]).
//!
//! Stages are also *persistable*: [`persist`] frames any of the four
//! upstream stages (`Planned`/`GlobalCompiled`/`GlobalRun`/
//! `SubsetsSelected`) into a versioned, digest-checked archive
//! (`docs/FORMAT.md`), so sweeps resume across processes and machines —
//! [`persist::resume_from`] refuses mismatched configurations instead of
//! silently diverging.
//!
//! Also here: the [`mbm`] baseline (IBM's matrix-based mitigation,
//! Fig. 14), the [`scalability`] model behind Table 7, and [`Scores`]
//! scoring.
//!
//! # Examples
//!
//! ```no_run
//! use jigsaw_circuit::bench;
//! use jigsaw_core::{run_baseline, run_jigsaw, JigsawConfig, ReferenceConfig};
//! use jigsaw_device::Device;
//! use jigsaw_pmf::metrics;
//! use jigsaw_sim::resolve_correct_set;
//!
//! let device = Device::toronto();
//! let bench = bench::ghz(8);
//! let correct = resolve_correct_set(&bench);
//!
//! let config = JigsawConfig::jigsaw(16_384);
//! let result = run_jigsaw(bench.circuit(), &device, &config);
//! let baseline = run_baseline(bench.circuit(), &device, &ReferenceConfig::new(16_384));
//! let gain = metrics::pst(&result.output, &correct) / metrics::pst(&baseline, &correct);
//! println!("JigSaw improves PST by {gain:.2}x");
//! ```
//!
//! Forking the staged pipeline (one global compile+run, many subset
//! configs):
//!
//! ```no_run
//! use jigsaw_circuit::bench;
//! use jigsaw_core::pipeline::JigsawPipeline;
//! use jigsaw_core::JigsawConfig;
//! use jigsaw_device::Device;
//!
//! let device = Device::toronto();
//! let bench = bench::ghz(8);
//! let shared = JigsawPipeline::plan(bench.circuit(), &device, &JigsawConfig::jigsaw(16_384))
//!     .compile_global()
//!     .run_global();
//! for size in 2..=5 {
//!     let result = shared
//!         .clone()
//!         .with_subset_sizes(vec![size])
//!         .select_subsets()
//!         .run_cpms()
//!         .reconstruct();
//!     println!("s = {size}: {} CPMs, {}", result.marginals.len(), result.timings);
//! }
//! ```

pub mod bayes;
pub mod dist;
mod evaluate;
#[allow(clippy::module_inception)]
mod jigsaw;
pub mod lockcheck;
pub mod mbm;
pub mod persist;
pub mod pipeline;
pub mod scalability;
pub mod sched;
pub mod seed;
pub mod subsets;
pub mod telemetry;
pub mod trials;

pub use bayes::{
    bayesian_update, reconstruct, reconstruction_round, Marginal, Reconstruction,
    ReconstructionConfig,
};
pub use dist::{DistConfig, DistError, Shard, ShardRequest, ShardRunner};
pub use evaluate::Scores;
pub use jigsaw::{
    run_baseline, run_baseline_from, run_edm, run_jigsaw, JigsawConfig, JigsawResult,
    ReferenceConfig, TrialAllocation,
};
pub use persist::{PersistError, StageArtifact, StageKind};
pub use pipeline::{
    CpmWork, JigsawPipeline, PlanError, StageName, StageOutcome, StageRecord, StageTask,
    StageTimings,
};
pub use sched::{JobError, JobTicket, Priority, SchedConfig, Scheduler, ShardTicket};
pub use subsets::SubsetSelection;
