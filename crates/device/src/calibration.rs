//! Per-device calibration data: readout error pairs, gate error rates and
//! idle decoherence — the information a daily IBMQ calibration report
//! provides to noise-aware compilers (paper §4.1).
//!
//! Real calibration snapshots are not available offline, so
//! [`CalibrationSpec::synthesize`] lays error rates out on **exact
//! log-normal quantiles** (shuffled across qubits by a seeded RNG). This
//! makes a synthetic device hit its target summary statistics — e.g.
//! Toronto's published readout mean 4.70% / median 2.76% / max 22.2%
//! (paper Fig. 3) — deterministically, not just in expectation.

use jigsaw_pmf::hashing::DetHashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::stats::inv_norm_cdf;
use crate::Topology;

/// Asymmetric readout error of one qubit.
///
/// Superconducting readout mis-classifies `|1⟩` slightly more often than
/// `|0⟩` (the paper quotes 2.3% vs 3.6% on Manhattan), so the two directions
/// are kept separate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutError {
    /// `P(read 1 | prepared 0)`.
    pub p1_given_0: f64,
    /// `P(read 0 | prepared 1)`.
    pub p0_given_1: f64,
}

impl ReadoutError {
    /// State-averaged error rate (what calibration reports quote).
    #[must_use]
    pub fn mean(&self) -> f64 {
        0.5 * (self.p1_given_0 + self.p0_given_1)
    }
}

/// A full calibration snapshot for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    readout: Vec<ReadoutError>,
    gate_1q: Vec<f64>,
    gate_2q: DetHashMap<(usize, usize), f64>,
    idle: Vec<f64>,
}

impl Calibration {
    /// Assembles a snapshot from explicit tables.
    ///
    /// # Panics
    ///
    /// Panics if table lengths are inconsistent or any rate is outside
    /// `[0, 0.5]` (readout/idle) or `[0, 1]` (gates).
    #[must_use]
    pub fn new(
        readout: Vec<ReadoutError>,
        gate_1q: Vec<f64>,
        gate_2q: DetHashMap<(usize, usize), f64>,
        idle: Vec<f64>,
    ) -> Self {
        let n = readout.len();
        assert_eq!(gate_1q.len(), n, "1q gate table length mismatch");
        assert_eq!(idle.len(), n, "idle table length mismatch");
        for r in &readout {
            assert!(
                (0.0..=0.5).contains(&r.p1_given_0) && (0.0..=0.5).contains(&r.p0_given_1),
                "readout error out of [0, 0.5]"
            );
        }
        for &e in gate_1q.iter().chain(idle.iter()).chain(gate_2q.values()) {
            assert!((0.0..=1.0).contains(&e), "gate/idle error out of [0, 1]");
        }
        for &(a, b) in gate_2q.keys() {
            assert!(a < b, "2q gate keys must be normalised (min, max)");
            assert!(b < n, "2q gate key ({a},{b}) out of range");
        }
        Self { readout, gate_1q, gate_2q, idle }
    }

    /// Number of calibrated qubits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.readout.len()
    }

    /// Readout error pair of a qubit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    #[must_use]
    pub fn readout(&self, q: usize) -> ReadoutError {
        self.readout[q]
    }

    /// Depolarizing error probability of a single-qubit gate on `q`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    #[must_use]
    pub fn gate_1q(&self, q: usize) -> f64 {
        self.gate_1q[q]
    }

    /// Depolarizing error probability of a CNOT on the coupler `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not a calibrated coupler.
    #[must_use]
    pub fn gate_2q(&self, a: usize, b: usize) -> f64 {
        let key = (a.min(b), a.max(b));
        *self
            .gate_2q
            .get(&key)
            .unwrap_or_else(|| panic!("no calibrated coupler between q{a} and q{b}"))
    }

    /// Per-depth-step idle depolarizing probability of a qubit (the
    /// decoherence surrogate; see `jigsaw-sim`).
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    #[must_use]
    pub fn idle(&self, q: usize) -> f64 {
        self.idle[q]
    }

    /// State-averaged readout error of every qubit (Fig. 3's data set).
    #[must_use]
    pub fn readout_means(&self) -> Vec<f64> {
        self.readout.iter().map(ReadoutError::mean).collect()
    }

    /// Qubit indices sorted by ascending state-averaged readout error — the
    /// ranking CPM recompilation consults to place measurements on the
    /// strongest qubits (paper §4.2.2).
    #[must_use]
    pub fn qubits_by_readout_quality(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n_qubits()).collect();
        order.sort_by(|&a, &b| {
            self.readout[a]
                .mean()
                .partial_cmp(&self.readout[b].mean())
                .expect("readout errors are finite")
                .then(a.cmp(&b))
        });
        order
    }
}

/// Wire format: the two conditional error rates as exact `f64` bit
/// patterns. Decode enforces the `[0, 0.5]` range [`Calibration::new`]
/// asserts.
impl jigsaw_pmf::codec::Encode for ReadoutError {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_f64(self.p1_given_0);
        w.put_f64(self.p0_given_1);
    }
}

impl jigsaw_pmf::codec::Decode for ReadoutError {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        let p1_given_0 = r.f64()?;
        let p0_given_1 = r.f64()?;
        if !((0.0..=0.5).contains(&p1_given_0) && (0.0..=0.5).contains(&p0_given_1)) {
            return Err(jigsaw_pmf::codec::CodecError::InvalidValue {
                what: "ReadoutError",
                detail: format!("rates ({p1_given_0}, {p0_given_1}) outside [0, 0.5]"),
            });
        }
        Ok(Self { p1_given_0, p0_given_1 })
    }
}

/// Wire format: readout pairs, 1q gate errors and idle rates as plain
/// vectors, and the coupler table as a `((min, max), rate)` list sorted by
/// key — a canonical order, so equal calibrations always encode to
/// identical bytes even though the in-memory table is a hash map. Decode
/// validates everything [`Calibration::new`] asserts.
impl jigsaw_pmf::codec::Encode for Calibration {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        self.readout.encode(w);
        self.gate_1q.encode(w);
        let mut couplers: Vec<((usize, usize), f64)> =
            self.gate_2q.iter().map(|(&k, &v)| (k, v)).collect();
        couplers.sort_unstable_by_key(|&(k, _)| k);
        couplers.encode(w);
        self.idle.encode(w);
    }
}

impl jigsaw_pmf::codec::Decode for Calibration {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        use jigsaw_pmf::codec::CodecError;
        let invalid = |detail: String| CodecError::InvalidValue { what: "Calibration", detail };
        let readout = Vec::<ReadoutError>::decode(r)?;
        let n = readout.len();
        let gate_1q = Vec::<f64>::decode(r)?;
        let couplers = Vec::<((usize, usize), f64)>::decode(r)?;
        let idle = Vec::<f64>::decode(r)?;
        if gate_1q.len() != n || idle.len() != n {
            return Err(invalid(format!(
                "table lengths disagree: {n} readout, {} 1q, {} idle",
                gate_1q.len(),
                idle.len()
            )));
        }
        for &e in gate_1q.iter().chain(idle.iter()).chain(couplers.iter().map(|(_, e)| e)) {
            if !(0.0..=1.0).contains(&e) {
                return Err(invalid(format!("gate/idle error {e} outside [0, 1]")));
            }
        }
        let mut gate_2q = DetHashMap::default();
        let mut prev = None;
        for ((a, b), e) in couplers {
            if a >= b || b >= n {
                return Err(invalid(format!("coupler key ({a},{b}) not normalised/in range")));
            }
            if prev.is_some_and(|prev| prev >= (a, b)) {
                return Err(invalid("coupler table not in ascending key order".into()));
            }
            prev = Some((a, b));
            gate_2q.insert((a, b), e);
        }
        Ok(Self { readout, gate_1q, gate_2q, idle })
    }
}

/// Log-normal parameters `(median, σ of ln)` for one error family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalSpec {
    /// Median of the distribution (`exp(μ)`).
    pub median: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
}

impl LogNormalSpec {
    /// Lays out `n` values on the exact quantiles `(i+0.5)/n`, clamped to
    /// `[lo, hi]`.
    fn quantiles(self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mu = self.median.ln();
        (0..n)
            .map(|i| {
                let p = (i as f64 + 0.5) / n as f64;
                (mu + self.sigma * inv_norm_cdf(p)).exp().clamp(lo, hi)
            })
            .collect()
    }
}

/// Recipe for synthesising a [`Calibration`] for a given topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSpec {
    /// Readout error distribution (state-averaged).
    pub readout: LogNormalSpec,
    /// Ratio `P(0|1) / P(1|0)` modelling the |1⟩-decay bias (≈ 1.35 on IBMQ
    /// per the paper's §8 numbers: 2.3% vs 3.6%).
    pub readout_asymmetry: f64,
    /// Single-qubit gate error distribution.
    pub gate_1q: LogNormalSpec,
    /// Two-qubit (CNOT) gate error distribution, one draw per coupler.
    pub gate_2q: LogNormalSpec,
    /// Idle (per-depth-step) depolarizing distribution.
    pub idle: LogNormalSpec,
    /// Shuffle seed: which qubit gets which quantile.
    pub seed: u64,
}

impl CalibrationSpec {
    /// A representative IBM Falcon-class recipe; presets tweak the medians.
    #[must_use]
    pub fn ibm_falcon_like(seed: u64) -> Self {
        Self {
            readout: LogNormalSpec { median: 0.0276, sigma: 1.0 },
            readout_asymmetry: 1.35,
            gate_1q: LogNormalSpec { median: 4.0e-4, sigma: 0.5 },
            gate_2q: LogNormalSpec { median: 0.011, sigma: 0.5 },
            idle: LogNormalSpec { median: 1.2e-3, sigma: 0.4 },
            seed,
        }
    }

    /// Synthesises the calibration snapshot for `topology`.
    ///
    /// Values of each family are exact log-normal quantiles, assigned to
    /// qubits (or couplers) by a seeded shuffle, so summary statistics are
    /// reproducible and independent of the seed while *spatial placement*
    /// varies with it.
    #[must_use]
    pub fn synthesize(&self, topology: &Topology) -> Calibration {
        let n = topology.n_qubits();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut readout_means = self.readout.quantiles(n, 0.002, 0.30);
        readout_means.shuffle(&mut rng);
        // Split the state-averaged rate into the asymmetric pair:
        // mean = (e01 + e10)/2 with e10 = asymmetry·e01.
        let k = self.readout_asymmetry;
        let readout = readout_means
            .iter()
            .map(|&m| {
                let e01 = 2.0 * m / (1.0 + k);
                ReadoutError { p1_given_0: e01.min(0.5), p0_given_1: (k * e01).min(0.5) }
            })
            .collect();

        let mut gate_1q = self.gate_1q.quantiles(n, 1e-5, 0.05);
        gate_1q.shuffle(&mut rng);

        let m = topology.edges().len();
        let mut gate_2q_vals = self.gate_2q.quantiles(m, 1e-4, 0.15);
        gate_2q_vals.shuffle(&mut rng);
        let gate_2q = topology
            .edges()
            .iter()
            .zip(gate_2q_vals)
            .map(|(&(a, b), e)| ((a.min(b), a.max(b)), e))
            .collect();

        let mut idle = self.idle.quantiles(n, 1e-5, 0.02);
        idle.shuffle(&mut rng);

        Calibration::new(readout, gate_1q, gate_2q, idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn toronto_like() -> Calibration {
        CalibrationSpec::ibm_falcon_like(42).synthesize(&Topology::falcon27())
    }

    #[test]
    fn synthesized_readout_matches_paper_stats() {
        // Paper Fig. 3 (IBMQ-Toronto): mean 4.70%, median 2.76%, min 0.85%,
        // max 22.2%. The quantile construction should land close.
        let cal = toronto_like();
        let s = Summary::of(&cal.readout_means());
        assert!((s.median - 0.0276).abs() < 0.004, "median {}", s.median);
        assert!((s.mean - 0.047).abs() < 0.012, "mean {}", s.mean);
        assert!(s.max > 0.15 && s.max < 0.30, "max {}", s.max);
        assert!(s.min < 0.01, "min {}", s.min);
    }

    #[test]
    fn asymmetry_biases_one_state() {
        let cal = toronto_like();
        for q in 0..cal.n_qubits() {
            let r = cal.readout(q);
            assert!(r.p0_given_1 >= r.p1_given_0, "qubit {q} should decay-bias");
        }
    }

    #[test]
    fn synthesis_is_seed_deterministic() {
        let t = Topology::falcon27();
        let a = CalibrationSpec::ibm_falcon_like(7).synthesize(&t);
        let b = CalibrationSpec::ibm_falcon_like(7).synthesize(&t);
        assert_eq!(a, b);
        let c = CalibrationSpec::ibm_falcon_like(8).synthesize(&t);
        assert_ne!(a, c);
    }

    #[test]
    fn seed_changes_placement_not_statistics() {
        let t = Topology::falcon27();
        let a = CalibrationSpec::ibm_falcon_like(1).synthesize(&t);
        let b = CalibrationSpec::ibm_falcon_like(2).synthesize(&t);
        let mut sa = a.readout_means();
        let mut sb = b.readout_means();
        sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
        sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(sa, sb, "same quantiles, different placement");
    }

    #[test]
    fn every_coupler_is_calibrated() {
        let t = Topology::falcon27();
        let cal = CalibrationSpec::ibm_falcon_like(3).synthesize(&t);
        for &(a, b) in t.edges() {
            assert!(cal.gate_2q(a, b) > 0.0);
            assert_eq!(cal.gate_2q(a, b), cal.gate_2q(b, a));
        }
    }

    #[test]
    fn quality_ranking_is_ascending() {
        let cal = toronto_like();
        let order = cal.qubits_by_readout_quality();
        assert_eq!(order.len(), 27);
        for w in order.windows(2) {
            assert!(cal.readout(w[0]).mean() <= cal.readout(w[1]).mean());
        }
    }

    #[test]
    #[should_panic(expected = "no calibrated coupler")]
    fn uncoupled_pair_panics() {
        let cal = toronto_like();
        let _ = cal.gate_2q(0, 26);
    }
}
