#![forbid(unsafe_code)]
//! Noise-aware NISQ compilation for the JigSaw (MICRO 2021) reproduction.
//!
//! From-scratch implementations of the paper's compilation substrates:
//!
//! * [`Layout`] — logical→physical placements.
//! * [`eps`] — the Expected-Probability-of-Success objective (§4.1),
//!   including crosstalk-aware readout terms.
//! * [`sabre`] — SABRE front-layer routing \[27\] with noise-aware swap
//!   scoring.
//! * [`placement`] — noise-aware region growth and interaction-weighted
//!   assignment.
//! * [`compile`] — the Noise-Aware-SABRE baseline: candidate placements ×
//!   routing, best EPS wins.
//! * [`edm`] — the Ensemble-of-Diverse-Mappings prior work \[48\].
//! * [`cpm`] — Circuits with Partial Measurements: construction, layout
//!   reuse, and readout-focused recompilation (§4.2.2).
//!
//! # Examples
//!
//! ```
//! use jigsaw_circuit::bench;
//! use jigsaw_compiler::{compile, CompilerOptions};
//! use jigsaw_device::Device;
//!
//! let device = Device::toronto();
//! let mut program = bench::ghz(6).circuit().clone();
//! program.measure_all();
//! let compiled = compile(&program, &device, &CompilerOptions::default());
//! assert!(compiled.eps > 0.0);
//! ```

mod compile;
pub mod cpm;
pub mod edm;
mod eps;
mod layout;
pub mod peephole;
pub mod placement;
pub mod sabre;

pub use compile::{compile, compile_with_avoidance, Compiled, CompilerOptions};
pub use cpm::CpmArtifact;
pub use eps::{eps, gate_eps, readout_eps};
pub use layout::Layout;
pub use sabre::{route, Routed, SabreConfig};
