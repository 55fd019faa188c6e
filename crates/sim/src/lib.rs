#![forbid(unsafe_code)]
//! Noisy quantum-circuit simulation — the hardware stand-in for the JigSaw
//! (MICRO 2021) reproduction.
//!
//! * [`backend`] — the pluggable [`SimBackend`] layer: the dense
//!   [`StateVector`] (full gate set, ≤ [`MAX_SIM_QUBITS`] qubits) and the
//!   [`StabilizerTableau`] Clifford fast path (≤ [`MAX_STABILIZER_QUBITS`]
//!   qubits), selected automatically per circuit.
//! * [`NoiseModel`] — calibration-driven stochastic-Pauli gate noise and
//!   depth-scaled idle decoherence, sampled per trajectory; all channels
//!   flow through the backend trait, so both paths see identical noise.
//! * [`Executor`] — runs a compiled circuit for many trials against a
//!   [`jigsaw_device::Device`], applying the asymmetric, crosstalk-inflated
//!   readout-error channel that JigSaw's measurement subsetting targets.
//! * [`ideal_pmf`] / [`resolve_correct_set`] — exact noiseless references
//!   (stabilizer-backed for wide Clifford circuits).
//!
//! # Examples
//!
//! ```
//! use jigsaw_circuit::bench;
//! use jigsaw_device::Device;
//! use jigsaw_sim::{resolve_correct_set, Executor, RunConfig};
//!
//! let device = Device::toronto();
//! let bench = bench::ghz(4);
//! let mut circuit = bench.circuit().clone();
//! circuit.measure_all();
//!
//! // Qubits 0..3 of the Falcon lattice form a line; run 1000 noisy trials.
//! let counts = Executor::new(&device).run(&circuit, 1000, &RunConfig::default());
//! let pst = jigsaw_pmf::metrics::pst(&counts.to_pmf(), &resolve_correct_set(&bench));
//! assert!(pst > 0.3 && pst <= 1.0);
//! ```

pub mod backend;
mod complex;
mod executor;
mod ideal;
mod noise;
pub mod seed;
mod stabilizer;
mod statevector;

pub use backend::{
    select_backend, BackendChoice, BackendKind, DenseBackend, SimBackend, StabilizerBackend,
};
pub use complex::{c, Complex};
pub use executor::{Executor, RunConfig};
pub use ideal::{ideal_pmf, ideal_state, resolve_correct_set};
pub use noise::{NoiseEvent, NoiseModel, NoisePlan, Pauli};
pub use stabilizer::{OutcomeCoset, StabilizerTableau, MAX_ENUM_RANK, MAX_STABILIZER_QUBITS};
pub use statevector::{matrix_1q, StateVector, MAX_SIM_QUBITS};
