//! Noiseless reference simulation: exact output distributions and
//! correct-answer resolution.

use jigsaw_circuit::bench::{Benchmark, CorrectSet};
use jigsaw_circuit::Circuit;
use jigsaw_pmf::{BitString, Pmf};

use crate::backend::{
    select_backend, BackendChoice, BackendKind, DenseBackend, SimBackend, StabilizerBackend,
};
use crate::statevector::MAX_SIM_QUBITS;

/// Probabilities below this threshold are dropped from ideal PMFs (they are
/// unreachable at any realistic trial count and would bloat the sparse
/// representation).
const PROB_CUTOFF: f64 = 1e-12;

/// Exact output PMF of a circuit.
///
/// If the circuit declares measurements, the PMF is over its classical bits
/// (marginalising unmeasured qubits) and the circuit may be device-wide —
/// only actively-used qubits are simulated. Otherwise the PMF is over all
/// qubits.
///
/// Circuits within [`MAX_SIM_QUBITS`] use the dense simulator; wider
/// Clifford circuits fall back to the stabilizer backend's exact support
/// enumeration, so the GHZ-40-class references of the scalability suite
/// stay computable.
///
/// # Panics
///
/// Panics if the circuit's *active* width exceeds the dense cap and the
/// circuit is not Clifford (or its stabilizer support is too large to
/// enumerate — see [`crate::MAX_ENUM_RANK`]).
#[must_use]
pub fn ideal_pmf(circuit: &Circuit) -> Pmf {
    if circuit.measurements().is_empty() {
        let n = circuit.n_qubits();
        let mut pmf = Pmf::new(n);
        for (outcome, p) in basis_support(circuit) {
            pmf.add(outcome, p);
        }
        pmf.normalize();
        return pmf;
    }

    let (compact, _) = crate::executor::compact_circuit(circuit);
    let n_clbits = compact.n_clbits();
    let mut pmf = Pmf::new(n_clbits);
    for (outcome, p) in basis_support(&compact) {
        let mut out = BitString::zeros(n_clbits);
        for m in compact.measurements() {
            if outcome.bit(m.qubit) {
                out.set_bit(m.clbit, true);
            }
        }
        pmf.add(out, p);
    }
    pmf.normalize();
    pmf
}

/// Exact basis-outcome support of a circuit's final state, via the dense
/// simulator when the width fits and the stabilizer backend otherwise.
/// Entries at or below [`PROB_CUTOFF`] are already filtered out.
fn basis_support(circuit: &Circuit) -> Vec<(BitString, f64)> {
    if circuit.n_qubits() <= MAX_SIM_QUBITS {
        return support_on::<DenseBackend>(circuit);
    }
    // Beyond the dense cap only the stabilizer backend can help; this
    // reports the backend-specific error if the circuit is not Clifford.
    let kind = select_backend(circuit, BackendChoice::Auto);
    debug_assert_eq!(kind, BackendKind::Stabilizer);
    support_on::<StabilizerBackend>(circuit)
}

fn support_on<B: SimBackend>(circuit: &Circuit) -> Vec<(BitString, f64)> {
    let mut backend = B::new(circuit.n_qubits());
    for g in circuit.gates() {
        backend.apply_gate(g);
    }
    backend.basis_support(PROB_CUTOFF)
}

/// Resolves a benchmark's correct-answer set.
///
/// [`CorrectSet::Known`] answers are returned as-is;
/// [`CorrectSet::DominantIdeal`] runs the noiseless simulator and returns
/// every outcome whose ideal probability is at least `threshold` times the
/// maximum.
///
/// # Panics
///
/// Panics if the benchmark circuit is wider than the simulator cap.
#[must_use]
pub fn resolve_correct_set(benchmark: &Benchmark) -> Vec<BitString> {
    match benchmark.correct() {
        CorrectSet::Known(answers) => answers.clone(),
        CorrectSet::DominantIdeal { threshold } => {
            let pmf = ideal_pmf(benchmark.circuit());
            let max = pmf.sorted_desc().first().map_or(0.0, |(_, p)| *p);
            let mut dominant: Vec<BitString> =
                pmf.iter().filter(|(_, p)| *p >= threshold * max).map(|(b, _)| *b).collect();
            dominant.sort();
            dominant
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_circuit::bench;

    #[test]
    fn ghz_ideal_pmf_is_the_cat_state() {
        let b = bench::ghz(6);
        let pmf = ideal_pmf(b.circuit());
        assert_eq!(pmf.support_size(), 2);
        assert!((pmf.prob(&BitString::zeros(6)) - 0.5).abs() < 1e-10);
        assert!((pmf.prob(&BitString::ones(6)) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bv_ideal_pmf_is_deterministic() {
        let b = bench::bernstein_vazirani(5, 0b1011);
        let pmf = ideal_pmf(b.circuit());
        assert_eq!(pmf.support_size(), 1);
        let answers = resolve_correct_set(&b);
        assert!((pmf.prob(&answers[0]) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn graycode_ideal_pmf_matches_decoded_word() {
        let b = bench::graycode(8);
        let pmf = ideal_pmf(b.circuit());
        assert_eq!(pmf.support_size(), 1);
        let answers = resolve_correct_set(&b);
        assert_eq!(pmf.mode(), Some(answers[0]));
    }

    #[test]
    fn measured_subset_pmf_is_the_marginal() {
        let b = bench::ghz(5);
        let mut c = b.circuit().clone();
        c.measure_subset(&[0, 4]);
        let pmf = ideal_pmf(&c);
        assert_eq!(pmf.n_bits(), 2);
        assert!((pmf.prob(&"00".parse().unwrap()) - 0.5).abs() < 1e-10);
        assert!((pmf.prob(&"11".parse().unwrap()) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn wide_clifford_ideal_pmf_uses_the_stabilizer_path() {
        // GHZ-40 is far beyond the dense cap; the ideal PMF must still be
        // the exact two-outcome cat distribution.
        let b = bench::ghz(40);
        let mut c = b.circuit().clone();
        c.measure_all();
        let pmf = ideal_pmf(&c);
        assert_eq!(pmf.support_size(), 2);
        assert!((pmf.prob(&BitString::zeros(40)) - 0.5).abs() < 1e-12);
        assert!((pmf.prob(&BitString::ones(40)) - 0.5).abs() < 1e-12);

        // Subset measurement marginalises correctly through the coset.
        let mut sub = b.circuit().clone();
        sub.measure_subset(&[0, 39]);
        let sub_pmf = ideal_pmf(&sub);
        assert_eq!(sub_pmf.n_bits(), 2);
        assert!((sub_pmf.prob(&"00".parse().unwrap()) - 0.5).abs() < 1e-12);
        assert!((sub_pmf.prob(&"11".parse().unwrap()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wide_clifford_correct_set_resolves() {
        let b = bench::graycode(50);
        let answers = resolve_correct_set(&b);
        assert_eq!(answers.len(), 1);
        let mut c = b.circuit().clone();
        c.measure_all();
        assert!((ideal_pmf(&c).prob(&answers[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_ideal_resolution_for_ising() {
        let b = bench::ising(4, 3);
        let correct = resolve_correct_set(&b);
        assert!(!correct.is_empty());
        // Every resolved answer must clear the threshold.
        let pmf = ideal_pmf(b.circuit());
        let max = pmf.sorted_desc()[0].1;
        for ans in &correct {
            assert!(pmf.prob(ans) >= 0.5 * max - 1e-12);
        }
    }

    #[test]
    fn qaoa_ideal_ar_beats_random_guessing() {
        let b = bench::qaoa_maxcut(8, 2);
        let (graph, _) = b.qaoa().expect("qaoa instance");
        let pmf = ideal_pmf(b.circuit());
        let ar = graph.approximation_ratio(&pmf);
        // Uniform guessing achieves AR 0.5 on a path graph; QAOA must do
        // noticeably better even with ramp angles.
        assert!(ar > 0.6, "ideal AR = {ar}");
    }
}
