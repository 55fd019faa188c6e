//! Seed-deterministic synthetic reconstruction inputs for
//! `tab7_scalability`'s measured linearity check and the reconstruction
//! sharding and golden tests.
//!
//! Real global-PMFs at 10⁵–10⁶ observed outcomes only arise from very long
//! hardware runs; for timing and testing the reconstruction core it is the
//! *support size* that matters, so these generators grow a support of the
//! requested cardinality directly (one `u64` draw per entry) instead of
//! simulating trials.

use jigsaw_core::Marginal;
use jigsaw_pmf::{BitString, Pmf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Normalised PMF over `n_bits` (≤ 64) qubits with exactly `entries`
/// support elements.
///
/// # Panics
///
/// Panics if `n_bits` exceeds 64 or the outcome space is smaller than
/// `entries`.
#[must_use]
pub fn global_pmf(n_bits: usize, entries: usize, seed: u64) -> Pmf {
    assert!(n_bits <= 64, "synthetic supports draw outcomes from a single u64");
    assert!(
        n_bits >= 64 || (entries as u128) <= (1u128 << n_bits),
        "cannot fit {entries} distinct outcomes in {n_bits} bits"
    );
    let mask = if n_bits == 64 { u64::MAX } else { (1u64 << n_bits) - 1 };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pmf::new(n_bits);
    while p.support_size() < entries {
        p.add(BitString::from_u64(rng.gen::<u64>() & mask, n_bits), rng.gen::<f64>() + 1e-3);
    }
    p.normalize();
    p
}

/// One random `size`-qubit marginal: a dense local PMF, or — for the
/// degenerate-evidence cases the determinism suites exercise — a point
/// mass on one random local outcome.
#[must_use]
pub fn marginal(n_bits: usize, size: usize, point_mass: bool, seed: u64) -> Marginal {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qubits: Vec<usize> = (0..n_bits).collect();
    for i in (1..qubits.len()).rev() {
        qubits.swap(i, rng.gen_range(0..=i));
    }
    qubits.truncate(size);
    qubits.sort_unstable();
    let mut pmf = Pmf::new(size);
    if point_mass {
        pmf.set(BitString::from_u64(rng.gen_range(0..(1u64 << size)), size), 1.0);
    } else {
        for v in 0..(1u64 << size) {
            pmf.set(BitString::from_u64(v, size), rng.gen::<f64>() + 1e-3);
        }
        pmf.normalize();
    }
    Marginal::new(qubits, pmf)
}

/// `count` random `size`-qubit marginals with dense local PMFs.
#[must_use]
pub fn marginals(n_bits: usize, count: usize, size: usize, seed: u64) -> Vec<Marginal> {
    (0..count)
        .map(|i| {
            marginal(
                n_bits,
                size,
                false,
                seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pmf_hits_requested_support_exactly() {
        let p = global_pmf(40, 2500, 3);
        assert_eq!(p.support_size(), 2500);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
        assert_eq!(p, global_pmf(40, 2500, 3), "seed-deterministic");
    }

    #[test]
    fn marginals_are_sorted_subsets() {
        let ms = marginals(40, 12, 2, 9);
        assert_eq!(ms.len(), 12);
        for m in &ms {
            assert_eq!(m.size(), 2);
            assert!(m.qubits[0] < m.qubits[1]);
            assert!(m.qubits[1] < 40);
        }
    }
}
