//! The circuit intermediate representation shared by the compiler, the
//! simulator and the JigSaw pipeline.

use std::fmt;

use crate::gate::Gate;

/// A measurement instruction: read `qubit` into classical bit `clbit`.
///
/// JigSaw's Circuits with Partial Measurements (CPMs) are ordinary circuits
/// whose measurement list covers only a subset of qubits — exactly this
/// representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement {
    /// Qubit being read out.
    pub qubit: usize,
    /// Classical bit receiving the outcome.
    pub clbit: usize,
}

/// A quantum circuit: a gate list plus a measurement map.
///
/// # Examples
///
/// ```
/// use jigsaw_circuit::Circuit;
///
/// // GHZ-3: H then a CNOT chain, measuring every qubit.
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2).measure_all();
/// assert_eq!(c.n_qubits(), 3);
/// assert_eq!(c.two_qubit_gates(), 2);
/// assert_eq!(c.measurements().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
    measurements: Vec<Measurement>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        Self { n_qubits, gates: Vec::new(), measurements: Vec::new() }
    }

    /// Number of qubits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The gate sequence.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The measurement map (empty until a `measure*` call).
    #[must_use]
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Number of classical bits produced per trial.
    #[must_use]
    pub fn n_clbits(&self) -> usize {
        self.measurements.iter().map(|m| m.clbit + 1).max().unwrap_or(0)
    }

    /// Qubits that are measured, ordered by classical bit index.
    #[must_use]
    pub fn measured_qubits(&self) -> Vec<usize> {
        let mut ms = self.measurements.clone();
        ms.sort_by_key(|m| m.clbit);
        ms.into_iter().map(|m| m.qubit).collect()
    }

    /// Appends an arbitrary gate.
    ///
    /// # Panics
    ///
    /// Panics if a qubit operand is out of range or a two-qubit gate
    /// addresses the same qubit twice.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        let (a, b) = gate.qubits();
        assert!(
            a < self.n_qubits,
            "gate {gate} addresses qubit {a} on a {}-qubit circuit",
            self.n_qubits
        );
        if let Some(b) = b {
            assert!(
                b < self.n_qubits,
                "gate {gate} addresses qubit {b} on a {}-qubit circuit",
                self.n_qubits
            );
            assert_ne!(a, b, "two-qubit gate {gate} addresses the same qubit twice");
        }
        self.gates.push(gate);
        self
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends a Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Appends an X-rotation.
    pub fn rx(&mut self, q: usize, angle: f64) -> &mut Self {
        self.push(Gate::Rx(q, angle))
    }

    /// Appends a Y-rotation.
    pub fn ry(&mut self, q: usize, angle: f64) -> &mut Self {
        self.push(Gate::Ry(q, angle))
    }

    /// Appends a Z-rotation.
    pub fn rz(&mut self, q: usize, angle: f64) -> &mut Self {
        self.push(Gate::Rz(q, angle))
    }

    /// Appends a generic `U3(θ, φ, λ)` single-qubit gate.
    pub fn u3(&mut self, q: usize, theta: f64, phi: f64, lambda: f64) -> &mut Self {
        self.push(Gate::U3(q, theta, phi, lambda))
    }

    /// Appends a CNOT with `(control, target)`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx(control, target))
    }

    /// Appends a controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }

    /// Appends `ZZ(θ) = e^{−iθ/2·Z⊗Z}` decomposed as `CX·RZ(θ)·CX`, the form
    /// hardware executes. Costs two CNOTs — matching the paper's noise
    /// accounting for QAOA/Ising benchmarks.
    pub fn zz(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.cx(a, b).rz(b, theta).cx(a, b)
    }

    /// Measures `qubit` into `clbit`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range, or the qubit or the classical bit
    /// is already used by another measurement.
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> &mut Self {
        assert!(qubit < self.n_qubits, "measured qubit {qubit} out of range");
        assert!(
            self.measurements.iter().all(|m| m.qubit != qubit),
            "qubit {qubit} is measured twice"
        );
        assert!(
            self.measurements.iter().all(|m| m.clbit != clbit),
            "classical bit {clbit} is written twice"
        );
        self.measurements.push(Measurement { qubit, clbit });
        self
    }

    /// Measures every qubit: qubit *i* into classical bit *i* (the paper's
    /// global mode).
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.n_qubits {
            self.measure(q, q);
        }
        self
    }

    /// Measures only `qubits`, mapping `qubits[k]` into classical bit `k` —
    /// the subset-mode measurement of a CPM.
    pub fn measure_subset(&mut self, qubits: &[usize]) -> &mut Self {
        for (k, &q) in qubits.iter().enumerate() {
            self.measure(q, k);
        }
        self
    }

    /// Removes all measurements (used when re-deriving CPMs from a measured
    /// program).
    pub fn clear_measurements(&mut self) -> &mut Self {
        self.measurements.clear();
        self
    }

    /// Number of single-qubit gates.
    #[must_use]
    pub fn one_qubit_gates(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_two_qubit()).count()
    }

    /// Number of two-qubit gates (SWAP counts once here; see
    /// [`Gate::cnot_cost`] for noise-equivalent CNOT counting).
    #[must_use]
    pub fn two_qubit_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Circuit depth under the usual greedy layering (each gate occupies one
    /// time step on each operand qubit; measurements are not counted).
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut busy_until = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let (a, b) = g.qubits();
            let start = match b {
                Some(b) => busy_until[a].max(busy_until[b]),
                None => busy_until[a],
            };
            let end = start + 1;
            busy_until[a] = end;
            if let Some(b) = b {
                busy_until[b] = end;
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Returns this circuit embedded into a `device_qubits`-wide register,
    /// with logical qubit `q` placed on physical qubit `layout[q]`.
    /// Measurement qubits are remapped too; classical bits are unchanged, so
    /// the histogram layout of a compiled circuit matches the logical one.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is shorter than the circuit, contains duplicates,
    /// or maps outside the device.
    #[must_use]
    pub fn remapped(&self, layout: &[usize], device_qubits: usize) -> Self {
        assert!(
            layout.len() >= self.n_qubits,
            "layout covers {} of {} qubits",
            layout.len(),
            self.n_qubits
        );
        let mut seen = vec![false; device_qubits];
        for &p in &layout[..self.n_qubits] {
            assert!(
                p < device_qubits,
                "layout maps to physical qubit {p} outside the {device_qubits}-qubit device"
            );
            assert!(!seen[p], "layout maps two logical qubits to physical qubit {p}");
            seen[p] = true;
        }
        let mut out = Circuit::new(device_qubits);
        for g in &self.gates {
            out.push(g.remapped(|q| layout[q]));
        }
        for m in &self.measurements {
            out.measurements.push(Measurement { qubit: layout[m.qubit], clbit: m.clbit });
        }
        out
    }
}

/// Wire format: `qubit` then `clbit`, both as `u64`.
impl jigsaw_pmf::codec::Encode for Measurement {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_usize(self.qubit);
        w.put_usize(self.clbit);
    }
}

impl jigsaw_pmf::codec::Decode for Measurement {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        Ok(Self { qubit: r.usize()?, clbit: r.usize()? })
    }
}

/// Wire format: `n_qubits` as `u64`, the gate list, the measurement list.
/// Decode re-validates every invariant the builder methods assert — gate
/// operands in range and distinct, measured qubits in range, no qubit or
/// classical bit measured twice — so a corrupt archive yields a typed
/// error, never an invalid circuit.
impl jigsaw_pmf::codec::Encode for Circuit {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_usize(self.n_qubits);
        jigsaw_pmf::codec::Encode::encode(&self.gates, w);
        jigsaw_pmf::codec::Encode::encode(&self.measurements, w);
    }
}

impl jigsaw_pmf::codec::Decode for Circuit {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        use jigsaw_pmf::codec::CodecError;
        let invalid = |detail: String| CodecError::InvalidValue { what: "Circuit", detail };
        let n_qubits = r.usize()?;
        // Bound the width before it sizes any allocation: nothing in the
        // workspace can measure (or simulate) beyond the outcome container,
        // and an unbounded wire value must not drive a huge `vec!` below.
        if n_qubits > jigsaw_pmf::MAX_BITS {
            return Err(invalid(format!(
                "width {n_qubits} exceeds the {}-qubit outcome capacity",
                jigsaw_pmf::MAX_BITS
            )));
        }
        let gates = Vec::<Gate>::decode(r)?;
        for g in &gates {
            let (a, b) = g.qubits();
            if a >= n_qubits || b.is_some_and(|b| b >= n_qubits) {
                return Err(invalid(format!("gate {g} on a {n_qubits}-qubit circuit")));
            }
            if b == Some(a) {
                return Err(invalid(format!("two-qubit gate {g} addresses one qubit twice")));
            }
        }
        let measurements = Vec::<Measurement>::decode(r)?;
        let mut qubit_used = vec![false; n_qubits];
        let mut clbits = Vec::with_capacity(measurements.len());
        for m in &measurements {
            if m.qubit >= n_qubits {
                return Err(invalid(format!("measured qubit {} out of range", m.qubit)));
            }
            // Every builder path writes clbit < n_qubits (measure_all,
            // measure_subset, CPM construction); enforcing it here keeps
            // n_clbits() bounded for every decoded circuit.
            if m.clbit >= n_qubits {
                return Err(invalid(format!("classical bit {} out of range", m.clbit)));
            }
            // analyze:allow(panic-reach, m.qubit is range-checked against n_qubits just above)
            if std::mem::replace(&mut qubit_used[m.qubit], true) {
                return Err(invalid(format!("qubit {} measured twice", m.qubit)));
            }
            clbits.push(m.clbit);
        }
        clbits.sort_unstable();
        // analyze:allow(panic-reach, windows(2) yields exactly-2 slices)
        if clbits.windows(2).any(|w| w[0] == w[1]) {
            return Err(invalid("a classical bit is written twice".into()));
        }
        Ok(Self { n_qubits, gates, measurements })
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit[{} qubits, {} gates]", self.n_qubits, self.gates.len())?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        for m in &self.measurements {
            writeln!(f, "  measure q{} -> c{}", m.qubit, m.clbit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        assert_eq!(c.gates().len(), 2);
        assert_eq!(c.n_clbits(), 2);
    }

    #[test]
    fn gate_counts() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).swap(1, 2).rz(2, 0.5);
        assert_eq!(c.one_qubit_gates(), 3);
        assert_eq!(c.two_qubit_gates(), 2);
    }

    #[test]
    fn depth_is_critical_path() {
        let mut c = Circuit::new(3);
        // Layer 1: h0 h1; layer 2: cx(0,1); layer 3: cx(1,2); h2 fits layer 1.
        c.h(0).h(1).h(2).cx(0, 1).cx(1, 2);
        assert_eq!(c.depth(), 3);
        assert_eq!(Circuit::new(4).depth(), 0);
    }

    #[test]
    fn zz_decomposes_to_two_cnots() {
        let mut c = Circuit::new(2);
        c.zz(0, 1, 1.0);
        assert_eq!(c.two_qubit_gates(), 2);
        assert_eq!(c.one_qubit_gates(), 1);
    }

    #[test]
    fn measure_subset_orders_clbits() {
        let mut c = Circuit::new(4);
        c.measure_subset(&[2, 0]);
        assert_eq!(c.measured_qubits(), vec![2, 0]);
        assert_eq!(c.n_clbits(), 2);
    }

    #[test]
    fn remapped_places_and_keeps_clbits() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_subset(&[1, 0]);
        let m = c.remapped(&[5, 3], 7);
        assert_eq!(m.n_qubits(), 7);
        assert_eq!(m.gates()[1], Gate::Cx(5, 3));
        assert_eq!(m.measured_qubits(), vec![3, 5]);
    }

    #[test]
    fn codec_round_trip_preserves_everything() {
        use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 1).rz(2, 0.123).u3(3, 0.1, -0.2, 7.5).swap(3, 4).measure_subset(&[4, 1]);
        let bytes = encode_to_vec(&c);
        let back: Circuit = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.measured_qubits(), c.measured_qubits());
        assert_eq!(encode_to_vec(&back), bytes, "canonical re-encode");
    }

    #[test]
    fn codec_rejects_structural_corruption() {
        use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec, CodecError};
        let mut c = Circuit::new(2);
        c.h(1).cx(0, 1).measure_all();
        let bytes = encode_to_vec(&c);
        // Shrinking the width makes the gates out of range.
        let mut bad = bytes.clone();
        bad[0] = 1;
        assert!(matches!(
            decode_from_slice::<Circuit>(&bad),
            Err(CodecError::InvalidValue { what: "Circuit", .. })
        ));
        // Any truncation is a typed error, never a panic.
        for len in 0..bytes.len() {
            assert!(decode_from_slice::<Circuit>(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn codec_bounds_the_width_before_allocating() {
        use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec, CodecError};
        let mut c = Circuit::new(2);
        c.h(0).measure_all();
        // Overwrite the leading u64 width with 2^40: must be a typed
        // error, not a terabyte-scale allocation attempt.
        let mut bytes = encode_to_vec(&c);
        bytes[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            decode_from_slice::<Circuit>(&bytes),
            Err(CodecError::InvalidValue { what: "Circuit", .. })
        ));
    }

    #[test]
    fn codec_rejects_out_of_range_clbits() {
        use jigsaw_pmf::codec::{decode_from_slice, CodecError, Encode, Writer};
        // Hand-encode a 2-qubit circuit measuring qubit 0 into clbit 300.
        let mut w = Writer::new();
        w.put_usize(2);
        Vec::<Gate>::new().encode(&mut w);
        vec![Measurement { qubit: 0, clbit: 300 }].encode(&mut w);
        assert!(matches!(
            decode_from_slice::<Circuit>(&w.into_bytes()),
            Err(CodecError::InvalidValue { what: "Circuit", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "measured twice")]
    fn double_measurement_rejected() {
        let mut c = Circuit::new(2);
        c.measure(0, 0).measure(0, 1);
    }

    #[test]
    #[should_panic(expected = "same qubit twice")]
    fn degenerate_two_qubit_gate_rejected() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    #[should_panic(expected = "two logical qubits")]
    fn remap_rejects_duplicate_targets() {
        let mut c = Circuit::new(2);
        c.h(0);
        let _ = c.remapped(&[3, 3], 5);
    }
}
