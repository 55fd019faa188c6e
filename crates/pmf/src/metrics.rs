//! Figures of merit from §5.5 of the paper: distribution distances
//! (TVD / Hellinger), Fidelity, Probability of a Successful Trial (PST)
//! and Inference Strength (IST).
//!
//! Every accumulating metric walks its PMFs in canonical
//! ([`Pmf::sorted_entries`]) order, so scores are pure functions of PMF
//! *contents*: two histograms with equal entries produce bit-identical
//! metrics regardless of how either map was populated (trial by trial, by
//! reconstruction, or decoded from an archive).

use crate::hashing::DetHashSet;

use crate::{BitString, Pmf};

/// Total Variation Distance `½·Σ|P(x) − Q(x)|`, in `[0, 1]` for normalised
/// PMFs.
///
/// The paper's Equation 3 omits the ½ factor but states the same `[0, 1]`
/// range, so the standard definition is used here.
///
/// # Panics
///
/// Panics if the PMFs have different widths.
#[must_use]
pub fn tvd(p: &Pmf, q: &Pmf) -> f64 {
    assert_eq!(p.n_bits(), q.n_bits(), "TVD requires PMFs of equal width");
    let mut support: Vec<BitString> =
        p.iter().map(|(b, _)| *b).chain(q.iter().map(|(b, _)| *b)).collect();
    support.sort_unstable();
    support.dedup();
    0.5 * support.iter().map(|b| (p.prob(b) - q.prob(b)).abs()).sum::<f64>()
}

/// Shannon entropy `−Σ P(x)·log₂P(x)` in bits, 0 for a point mass and
/// `n_bits` for the uniform distribution over all outcomes.
///
/// Summation runs over [`Pmf::sorted_entries`] so the floating-point
/// accumulation order is canonical: equal PMFs always produce bit-identical
/// entropies, which the adaptive subset selection relies on for
/// deterministic tie-breaking.
#[must_use]
pub fn entropy(p: &Pmf) -> f64 {
    p.sorted_entries().iter().map(|(_, v)| if *v > 0.0 { -v * v.log2() } else { 0.0 }).sum()
}

/// Program Fidelity `1 − TVD(P, Q)` (paper Equation 3): 1 for identical
/// distributions, 0 for disjoint ones.
///
/// # Panics
///
/// Panics if the PMFs have different widths.
#[must_use]
pub fn fidelity(ideal: &Pmf, measured: &Pmf) -> f64 {
    1.0 - tvd(ideal, measured)
}

/// Hellinger distance `√(1 − Σ√(P(x)·Q(x)))`, in `[0, 1]`.
///
/// The Bayesian Reconstruction loop terminates when the Hellinger distance
/// between successive output PMFs falls below the configured tolerance
/// (§4.3).
///
/// # Panics
///
/// Panics if the PMFs have different widths.
#[must_use]
pub fn hellinger(p: &Pmf, q: &Pmf) -> f64 {
    assert_eq!(p.n_bits(), q.n_bits(), "Hellinger requires PMFs of equal width");
    let bc: f64 = p.sorted_entries().iter().map(|(b, pp)| (pp * q.prob(b)).sqrt()).sum();
    (1.0 - bc.min(1.0)).max(0.0).sqrt()
}

/// Probability of a Successful Trial (paper Equation 1): the total output
/// mass assigned to the correct-answer set.
///
/// Programs such as GHZ have two equally-correct answers; the paper counts a
/// trial successful when it produces any of them, so PST sums over the set.
#[must_use]
pub fn pst(output: &Pmf, correct: &[BitString]) -> f64 {
    output.mass_of(correct)
}

/// Inference Strength (paper Equation 2): probability of the (strongest)
/// correct outcome over the probability of the most frequent *incorrect*
/// outcome. Values above 1 mean the correct answer is inferable from the
/// histogram's mode.
///
/// Returns `f64::INFINITY` when no incorrect outcome has mass, and `0.0`
/// when no correct outcome has mass.
#[must_use]
pub fn ist(output: &Pmf, correct: &[BitString]) -> f64 {
    let correct_set: DetHashSet<&BitString> = correct.iter().collect();
    let best_correct = correct.iter().map(|b| output.prob(b)).fold(0.0f64, f64::max);
    let best_incorrect = output
        .iter()
        .filter(|(b, _)| !correct_set.contains(b))
        .map(|(_, p)| p)
        .fold(0.0f64, f64::max);
    if best_incorrect == 0.0 {
        if best_correct == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        best_correct / best_incorrect
    }
}

/// Geometric mean of a slice of positive values; `NaN`-free and 0 if any
/// value is zero. Used for the "GMean" columns of Fig. 8 / Tables 3–4.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    if values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        s.parse().unwrap()
    }

    fn pmf(entries: &[(&str, f64)]) -> Pmf {
        let mut p = Pmf::new(entries[0].0.len());
        for (s, v) in entries {
            p.set(bs(s), *v);
        }
        p
    }

    #[test]
    fn tvd_identical_is_zero() {
        let p = Pmf::uniform(3);
        assert!(tvd(&p, &p).abs() < 1e-12);
        assert!((fidelity(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tvd_disjoint_is_one() {
        let p = pmf(&[("00", 1.0)]);
        let q = pmf(&[("11", 1.0)]);
        assert!((tvd(&p, &q) - 1.0).abs() < 1e-12);
        assert!(fidelity(&p, &q).abs() < 1e-12);
    }

    #[test]
    fn tvd_is_symmetric() {
        let p = pmf(&[("00", 0.7), ("01", 0.3)]);
        let q = pmf(&[("00", 0.5), ("11", 0.5)]);
        assert!((tvd(&p, &q) - tvd(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn tvd_known_value() {
        let p = pmf(&[("0", 0.8), ("1", 0.2)]);
        let q = pmf(&[("0", 0.5), ("1", 0.5)]);
        assert!((tvd(&p, &q) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn entropy_known_values() {
        assert!(entropy(&pmf(&[("00", 1.0)])).abs() < 1e-12);
        assert!((entropy(&Pmf::uniform(3)) - 3.0).abs() < 1e-12);
        assert!((entropy(&pmf(&[("0", 0.5), ("1", 0.5)])) - 1.0).abs() < 1e-12);
        // H(0.25, 0.75) = 2 − 0.75·log₂3.
        let h = entropy(&pmf(&[("0", 0.25), ("1", 0.75)]));
        assert!((h - (2.0 - 0.75 * 3.0f64.log2())).abs() < 1e-12);
    }

    #[test]
    fn hellinger_bounds() {
        let p = pmf(&[("00", 1.0)]);
        let q = pmf(&[("11", 1.0)]);
        assert!((hellinger(&p, &q) - 1.0).abs() < 1e-12);
        assert!(hellinger(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn pst_sums_correct_set() {
        let p = pmf(&[("000", 0.3), ("111", 0.25), ("010", 0.45)]);
        let correct = vec![bs("000"), bs("111")];
        assert!((pst(&p, &correct) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn ist_ratio_of_best_correct_and_incorrect() {
        let p = pmf(&[("000", 0.3), ("111", 0.2), ("010", 0.4), ("001", 0.1)]);
        let correct = vec![bs("000"), bs("111")];
        // best correct 0.3, best incorrect 0.4
        assert!((ist(&p, &correct) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ist_degenerate_cases() {
        let p = pmf(&[("00", 1.0)]);
        assert_eq!(ist(&p, &[bs("00")]), f64::INFINITY);
        assert_eq!(ist(&p, &[bs("11")]), 0.0);
    }

    #[test]
    fn geometric_mean_known_values() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[1.0, 0.0]), 0.0);
    }
}
