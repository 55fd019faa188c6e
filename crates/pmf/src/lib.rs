#![forbid(unsafe_code)]
//! Outcome histograms, probability mass functions and fidelity metrics for
//! the JigSaw (MICRO 2021) reproduction.
//!
//! This crate is the shared statistical vocabulary of the workspace:
//!
//! * [`BitString`] — a measurement outcome over up to 256 qubits
//!   (bit *i* = qubit *i*; `Display` prints qubit *n−1* first, as in the
//!   paper's figures).
//! * [`Counts`] — a raw trial histogram as returned by hardware or the
//!   simulator.
//! * [`Pmf`] — a sparse probability mass function storing only non-zero
//!   entries, the representation that gives JigSaw its linear memory
//!   complexity (paper §7).
//! * [`metrics`] — the paper's figures of merit: TVD-based Fidelity
//!   (Equation 3), PST (Equation 1), IST (Equation 2), plus the Hellinger
//!   distance.
//! * [`partial`] — per-CPM histogram and per-shard partial-result wire
//!   types for distributed sweeps ([`CpmHistogram`], [`ShardPartial`]).
//! * [`codec`] — the [`Encode`](codec::Encode)/[`Decode`](codec::Decode)
//!   trait pair and little-endian primitives behind the workspace's
//!   persistable-artifact format (`docs/FORMAT.md`); every crate implements
//!   the pair for its own types.
//! * [`envelope`] — the checksummed header/trailer codec, error taxonomy
//!   and atomic file writer that stage archives and job frames share.
//!
//! # Examples
//!
//! ```
//! use jigsaw_pmf::{metrics, Counts};
//!
//! // Record a noisy GHZ-2 histogram and score it against the ideal answers.
//! let mut counts = Counts::new(2);
//! counts.record_many("00".parse()?, 460);
//! counts.record_many("11".parse()?, 440);
//! counts.record_many("01".parse()?, 100);
//! let measured = counts.to_pmf();
//!
//! let correct = ["00".parse()?, "11".parse()?];
//! assert!((metrics::pst(&measured, &correct) - 0.9).abs() < 1e-12);
//! # Ok::<(), jigsaw_pmf::ParseBitStringError>(())
//! ```

mod bitstring;
pub mod codec;
mod counts;
pub mod envelope;
pub mod hashing;
pub mod metrics;
pub mod parallel;
pub mod partial;
#[allow(clippy::module_inception)]
mod pmf;

pub use bitstring::{BitString, ParseBitStringError, MAX_BITS};
pub use counts::Counts;
pub use partial::{CpmHistogram, ShardPartial};
pub use pmf::Pmf;
