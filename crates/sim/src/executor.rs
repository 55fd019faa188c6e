//! The trial executor: runs a compiled (physical) circuit on a device model
//! and returns the outcome histogram — the stand-in for submitting a job to
//! an IBMQ machine.
//!
//! Three noise channels act, all derived from the device calibration:
//!
//! 1. **Gate noise** — stochastic Pauli trajectories ([`NoiseModel`]).
//! 2. **Idle decoherence** — depth-scaled end-of-circuit Paulis.
//! 3. **Readout error** — each measured qubit's outcome flips with its
//!    calibrated asymmetric probability, inflated by measurement crosstalk
//!    according to how many qubits the trial measures simultaneously
//!    (paper §3.1) — the effect JigSaw's measurement subsetting attacks.
//!
//! The executor is generic over the [`SimBackend`] doing the state work:
//! Clifford circuits route to the stabilizer tableau (no width cap that
//! matters), everything else to the dense state vector
//! ([`RunConfig::backend`] can force either). All three noise channels flow
//! through the backend trait, so noisy CPM subsetting behaves identically
//! on both paths — identically enough that histograms are bit-equal where
//! the backends overlap.
//!
//! Trials are grouped into trajectories that share one sampled error
//! configuration; the (common) error-free trajectory reuses one shared
//! prepared state, and noisy trajectories recycle pooled state buffers
//! instead of reallocating. Within a batch, every trial's outcome draw is
//! taken up front and resolved in a single sorted sweep of the
//! distribution.
//!
//! Each batch draws from its own RNG stream, derived from
//! [`RunConfig::seed`] and the batch index, so batches are independent and
//! can run on a thread team ([`RunConfig::threads`]) while staying
//! bit-identical to a serial run of the same seed.

use jigsaw_circuit::Circuit;
use jigsaw_device::Device;
use jigsaw_pmf::parallel::fan_out;
use jigsaw_pmf::{BitString, Counts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::{
    select_backend, BackendChoice, BackendKind, BufferPool, DenseBackend, SimBackend,
    StabilizerBackend,
};
use crate::noise::{NoiseModel, NoisePlan};

/// Execution options. Construct with [`RunConfig::default`] and adjust.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Trials sharing one sampled error configuration. Larger batches are
    /// faster but coarser; 64 keeps trajectory count high enough that
    /// trajectory mixing is statistically invisible at evaluation scale.
    pub batch: u64,
    /// RNG seed; identical seeds reproduce histograms exactly.
    pub seed: u64,
    /// Enable stochastic-Pauli gate errors.
    pub gate_noise: bool,
    /// Enable measurement (readout) errors.
    pub readout_noise: bool,
    /// Enable depth-scaled idle decoherence.
    pub decoherence: bool,
    /// Worker threads for the batch fan-out: `0` uses all available cores,
    /// `1` runs serially. Because every batch owns a seed-derived RNG stream
    /// and results merge in batch order, the histogram is identical for any
    /// setting — the knob only trades wall-clock for cores.
    pub threads: usize,
    /// Simulation backend: [`BackendChoice::Auto`] routes Clifford circuits
    /// to the stabilizer tableau and the rest to the dense state vector.
    pub backend: BackendChoice,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            batch: 64,
            seed: 0,
            gate_noise: true,
            readout_noise: true,
            decoherence: true,
            threads: 0,
            backend: BackendChoice::Auto,
        }
    }
}

impl RunConfig {
    /// A fully noiseless configuration (sampling the ideal distribution).
    #[must_use]
    pub fn noiseless() -> Self {
        Self { gate_noise: false, readout_noise: false, decoherence: false, ..Self::default() }
    }

    /// Returns the config with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different worker-thread setting
    /// (`0` = all cores, `1` = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the config with a forced (or automatic) backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }
}

/// Wire format: `batch`, `seed`, the three noise-channel switches, the
/// worker-thread setting and the backend choice, in declaration order.
/// Decode rejects a zero batch size (the executor's trajectory grouping
/// needs at least one trial per batch).
impl jigsaw_pmf::codec::Encode for RunConfig {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_u64(self.batch);
        w.put_u64(self.seed);
        w.put_bool(self.gate_noise);
        w.put_bool(self.readout_noise);
        w.put_bool(self.decoherence);
        w.put_usize(self.threads);
        jigsaw_pmf::codec::Encode::encode(&self.backend, w);
    }
}

impl jigsaw_pmf::codec::Decode for RunConfig {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        let batch = r.u64()?;
        if batch == 0 {
            return Err(jigsaw_pmf::codec::CodecError::InvalidValue {
                what: "RunConfig",
                detail: "batch size must be at least 1".into(),
            });
        }
        Ok(Self {
            batch,
            seed: r.u64()?,
            gate_noise: r.bool()?,
            readout_noise: r.bool()?,
            decoherence: r.bool()?,
            threads: r.usize()?,
            backend: crate::backend::BackendChoice::decode(r)?,
        })
    }
}

/// Executes compiled circuits against one device model.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'d> {
    device: &'d Device,
}

impl<'d> Executor<'d> {
    /// Creates an executor for a device.
    #[must_use]
    pub fn new(device: &'d Device) -> Self {
        Self { device }
    }

    /// The backend `run` would use for this circuit under `config` —
    /// resolution happens on the compacted (active-qubit) circuit, exactly
    /// as execution does.
    ///
    /// # Panics
    ///
    /// Panics when no backend can run the circuit (see
    /// [`select_backend`]).
    #[must_use]
    pub fn backend_for(&self, circuit: &Circuit, config: &RunConfig) -> BackendKind {
        let (compact, _) = compact_circuit(circuit);
        select_backend(&compact, config.backend)
    }

    /// Runs `trials` trials of a physical circuit, returning the histogram
    /// over its classical bits.
    ///
    /// The circuit addresses *physical* qubit indices (as produced by the
    /// compiler); internally only the actively-used qubits are simulated, so
    /// wide devices cost no more than the program footprint.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has no measurements, is wider than the device,
    /// exceeds the selected backend's width cap (see [`select_backend`]),
    /// or if `trials == 0`.
    #[must_use]
    pub fn run(&self, circuit: &Circuit, trials: u64, config: &RunConfig) -> Counts {
        assert!(trials > 0, "cannot run zero trials");
        assert!(!circuit.measurements().is_empty(), "circuit measures nothing");
        assert!(
            circuit.n_qubits() <= self.device.n_qubits(),
            "circuit of {} qubits exceeds the {}-qubit device",
            circuit.n_qubits(),
            self.device.n_qubits()
        );

        let (compact, physical) = compact_circuit(circuit);
        match select_backend(&compact, config.backend) {
            BackendKind::Dense => self.run_on::<DenseBackend>(&compact, &physical, trials, config),
            BackendKind::Stabilizer => {
                self.run_on::<StabilizerBackend>(&compact, &physical, trials, config)
            }
        }
    }

    /// The backend-generic trial pipeline.
    fn run_on<B: SimBackend>(
        &self,
        compact: &Circuit,
        physical: &[usize],
        trials: u64,
        config: &RunConfig,
    ) -> Counts {
        let model = NoiseModel::for_circuit(
            compact,
            self.device,
            physical,
            config.gate_noise,
            config.decoherence,
        );

        // Effective readout error per measurement, crosstalk-inflated by the
        // number of simultaneous measurements in this circuit.
        let simultaneous = compact.measurements().len();
        let readout: Vec<(usize, usize, f64, f64)> = compact
            .measurements()
            .iter()
            .map(|m| {
                if config.readout_noise {
                    let e = self.device.effective_readout(physical[m.qubit], simultaneous);
                    (m.qubit, m.clbit, e.p1_given_0, e.p0_given_1)
                } else {
                    (m.qubit, m.clbit, 0.0, 0.0)
                }
            })
            .collect();

        let n_clbits = compact.n_clbits();

        // Carve the trial budget into batches, each owning a seed-derived
        // RNG stream. The noise plan is drawn first from that stream (so a
        // batch is self-contained), and the outcome/readout draws continue
        // on it.
        let batch_size = config.batch.max(1);
        let mut batches: Vec<(NoisePlan, StdRng, u64)> = Vec::new();
        let mut remaining = trials;
        let mut index = 0u64;
        while remaining > 0 {
            let k = remaining.min(batch_size);
            remaining -= k;
            let mut rng = StdRng::seed_from_u64(crate::seed::mix(config.seed, index));
            index += 1;
            let plan = model.sample_plan(&mut rng);
            batches.push((plan, rng, k));
        }

        // The error-free trajectory is common; share one prepared ideal
        // state across every batch that needs it instead of resimulating
        // per batch.
        let ideal: Option<B> = batches.iter().any(|(plan, _, _)| plan.is_empty()).then(|| {
            let mut b = B::new(compact.n_qubits());
            for g in compact.gates() {
                b.apply_gate(g);
            }
            b.prepare_sampling();
            b
        });

        // Noisy trajectories recycle state buffers through a shared pool
        // rather than reallocating per batch.
        let pool: BufferPool<B> = BufferPool::new();

        let run_batch = |(plan, mut rng, k): (NoisePlan, StdRng, u64)| -> Counts {
            // All outcome draws are taken up front (one u64 per trial) and
            // resolved in a single sorted sweep; readout-flip draws follow,
            // so the RNG stream layout is identical on every backend.
            let draws: Vec<u64> = (0..k).map(|_| rng.gen::<u64>()).collect();
            let mut outcomes: Vec<BitString> = Vec::with_capacity(draws.len());
            if plan.is_empty() {
                ideal
                    .as_ref()
                    .expect("ideal backend precomputed")
                    .resolve_draws(&draws, &mut outcomes);
            } else {
                let mut backend = pool.take().unwrap_or_else(|| B::new(compact.n_qubits()));
                backend.reset();
                // gate_events is sorted by after_gate, so one advancing
                // cursor replays the trajectory in O(gates + events).
                let mut next_event = 0;
                for (i, g) in compact.gates().iter().enumerate() {
                    backend.apply_gate(g);
                    while let Some(ev) = plan.gate_events.get(next_event) {
                        if ev.after_gate != i {
                            break;
                        }
                        backend.apply_pauli(ev.qubit, ev.pauli);
                        next_event += 1;
                    }
                }
                for &(q, pauli) in &plan.end_events {
                    backend.apply_pauli(q, pauli);
                }
                backend.prepare_sampling();
                backend.resolve_draws(&draws, &mut outcomes);
                pool.put(backend);
            }

            let mut counts = Counts::new(n_clbits);
            for raw in &outcomes {
                let mut out = BitString::zeros(n_clbits);
                for &(q, clbit, e01, e10) in &readout {
                    let mut bit = raw.bit(q);
                    let flip_p = if bit { e10 } else { e01 };
                    if flip_p > 0.0 && rng.gen::<f64>() < flip_p {
                        bit = !bit;
                    }
                    if bit {
                        out.set_bit(clbit, true);
                    }
                }
                counts.record(out);
            }
            counts
        };

        // Fan the batches out on the configured worker team and merge in
        // batch order. parallel and serial runs produce identical
        // histograms because every batch's randomness is pinned to its
        // index, not to execution order.
        let per_batch: Vec<Counts> = fan_out(batches, config.threads, run_batch);

        let mut counts = Counts::new(n_clbits);
        for batch in &per_batch {
            counts.merge(batch);
        }
        counts
    }
}

/// Relabels a physical circuit onto its active qubits only.
///
/// Returns the compacted circuit plus, for each compact index, the physical
/// qubit it stands for. Device-wide circuits cost only their footprint this
/// way — both the executor and the ideal simulator rely on it.
pub(crate) fn compact_circuit(circuit: &Circuit) -> (Circuit, Vec<usize>) {
    let mut used: Vec<usize> = Vec::new();
    let mut mark = vec![false; circuit.n_qubits()];
    let touch = |q: usize, used: &mut Vec<usize>, mark: &mut Vec<bool>| {
        if !mark[q] {
            mark[q] = true;
            used.push(q);
        }
    };
    for g in circuit.gates() {
        let (a, b) = g.qubits();
        touch(a, &mut used, &mut mark);
        if let Some(b) = b {
            touch(b, &mut used, &mut mark);
        }
    }
    for m in circuit.measurements() {
        touch(m.qubit, &mut used, &mut mark);
    }
    used.sort_unstable();
    let mut to_compact = vec![usize::MAX; circuit.n_qubits()];
    for (k, &p) in used.iter().enumerate() {
        to_compact[p] = k;
    }

    let mut compact = Circuit::new(used.len());
    for g in circuit.gates() {
        compact.push(g.remapped(|q| to_compact[q]));
    }
    for m in circuit.measurements() {
        compact.measure(to_compact[m.qubit], m.clbit);
    }
    (compact, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_pmf::metrics;

    /// A 20-qubit simple path through the Falcon-27 lattice (every
    /// consecutive pair is a real coupler).
    const FALCON_PATH: [usize; 20] =
        [0, 1, 2, 3, 5, 8, 11, 14, 16, 19, 22, 25, 24, 23, 21, 18, 15, 12, 10, 7];

    fn ghz_on_line(n: usize, offset: usize) -> Circuit {
        // GHZ over n consecutive physical qubits of the Falcon path.
        let path = &FALCON_PATH[offset..offset + n];
        let mut c = Circuit::new(27);
        c.h(path[0]);
        for w in path.windows(2) {
            c.cx(w[0], w[1]);
        }
        for (i, &q) in path.iter().enumerate() {
            c.measure(q, i);
        }
        c
    }

    #[test]
    fn noiseless_ghz_is_perfectly_correlated() {
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let c = ghz_on_line(3, 0);
        let counts = exec.run(&c, 2000, &RunConfig::noiseless());
        assert_eq!(counts.total(), 2000);
        let p = counts.to_pmf();
        let correct = [BitString::zeros(3), BitString::ones(3)];
        assert!((metrics::pst(&p, &correct) - 1.0).abs() < 1e-12);
        let zero_frac = p.prob(&BitString::zeros(3));
        assert!((zero_frac - 0.5).abs() < 0.05, "zero fraction {zero_frac}");
    }

    #[test]
    fn noisy_run_degrades_pst() {
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let c = ghz_on_line(5, 0);
        let noisy = exec.run(&c, 4000, &RunConfig::default());
        let p = noisy.to_pmf();
        let correct = [BitString::zeros(5), BitString::ones(5)];
        let pst = metrics::pst(&p, &correct);
        assert!(pst < 0.98, "noise should bite, pst = {pst}");
        assert!(pst > 0.3, "noise should not obliterate a 5-qubit GHZ, pst = {pst}");
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let c = ghz_on_line(4, 2);
        let cfg = RunConfig::default().with_seed(99);
        let a = exec.run(&c, 1000, &cfg);
        let b = exec.run(&c, 1000, &cfg);
        assert_eq!(a, b);
        let c2 = exec.run(&c, 1000, &RunConfig::default().with_seed(100));
        assert_ne!(a, c2);
    }

    #[test]
    fn parallel_and_serial_runs_produce_identical_histograms() {
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let c = ghz_on_line(8, 0);
        let serial = exec.run(&c, 5000, &RunConfig::default().with_seed(7).with_threads(1));
        for threads in [0, 2, 4] {
            let parallel =
                exec.run(&c, 5000, &RunConfig::default().with_seed(7).with_threads(threads));
            assert_eq!(serial, parallel, "threads={threads} diverged from serial");
        }
    }

    #[test]
    fn thread_count_does_not_leak_into_seed_sensitivity() {
        // Changing the seed must still change the histogram under the
        // parallel path, i.e. parallelism must not collapse the streams.
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let c = ghz_on_line(6, 1);
        let a = exec.run(&c, 2000, &RunConfig::default().with_seed(1).with_threads(4));
        let b = exec.run(&c, 2000, &RunConfig::default().with_seed(2).with_threads(4));
        assert_ne!(a, b);
    }

    #[test]
    fn clifford_circuits_route_to_the_stabilizer_backend() {
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let ghz = ghz_on_line(6, 0);
        assert_eq!(exec.backend_for(&ghz, &RunConfig::default()), BackendKind::Stabilizer);

        let mut rotated = ghz.clone();
        rotated.rz(0, 0.3);
        assert_eq!(exec.backend_for(&rotated, &RunConfig::default()), BackendKind::Dense);
        assert_eq!(
            exec.backend_for(&ghz, &RunConfig::default().with_backend(BackendChoice::Dense)),
            BackendKind::Dense
        );
    }

    #[test]
    fn dense_and_stabilizer_histograms_are_bit_identical() {
        // The cross-backend acceptance contract: same seed, same noisy
        // histogram, bit for bit.
        let device = Device::toronto();
        let exec = Executor::new(&device);
        for (n, trials) in [(4, 3000), (10, 4000)] {
            let c = ghz_on_line(n, 0);
            let cfg = RunConfig::default().with_seed(42);
            let dense = exec.run(&c, trials, &cfg.with_backend(BackendChoice::Dense));
            let stab = exec.run(&c, trials, &cfg.with_backend(BackendChoice::Stabilizer));
            assert_eq!(dense, stab, "GHZ-{n} histograms diverged across backends");
        }
    }

    #[test]
    fn stabilizer_backend_lifts_the_dense_width_cap() {
        // A 40-qubit GHZ on the 65-qubit machine: impossible dense (2^40
        // amplitudes), routine on the tableau.
        let device = Device::manhattan();
        let exec = Executor::new(&device);
        let mut c = Circuit::new(65);
        c.h(0);
        for q in 0..39 {
            c.cx(q, q + 1);
        }
        for q in 0..40 {
            c.measure(q, q);
        }
        let counts = exec.run(&c, 2000, &RunConfig::noiseless().with_seed(5));
        assert_eq!(counts.total(), 2000);
        let p = counts.to_pmf();
        assert!((p.prob(&BitString::zeros(40)) - 0.5).abs() < 0.05);
        assert!((p.prob(&BitString::ones(40)) - 0.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "dense state-vector backend caps at")]
    fn wide_non_clifford_circuit_reports_the_backend_cap() {
        let device = Device::manhattan();
        let exec = Executor::new(&device);
        let mut c = Circuit::new(65);
        for q in 0..30 {
            c.rz(q, 0.4);
        }
        c.measure(0, 0);
        let _ = exec.run(&c, 10, &RunConfig::default());
    }

    #[test]
    fn fewer_measurements_mean_higher_marginal_fidelity() {
        // The paper's core observation: a 2-qubit subset measurement is more
        // reliable than the same marginal extracted from a full measurement.
        let device = Device::toronto();
        let exec = Executor::new(&device);

        // Full measurement of a 10-qubit GHZ.
        let full = ghz_on_line(10, 0);
        let full_counts = exec.run(&full, 8000, &RunConfig::default());
        let full_marginal = full_counts.to_pmf().marginal(&[0, 1]);

        // Same circuit measuring only the first two qubits.
        let mut subset = Circuit::new(27);
        let path = &FALCON_PATH[..10];
        subset.h(path[0]);
        for w in path.windows(2) {
            subset.cx(w[0], w[1]);
        }
        subset.measure(path[0], 0).measure(path[1], 1);
        let sub_counts = exec.run(&subset, 8000, &RunConfig::default());
        let sub_pmf = sub_counts.to_pmf();

        let ideal: jigsaw_pmf::Pmf = [("00", 0.5), ("11", 0.5)]
            .iter()
            .map(|(s, p)| (s.parse::<BitString>().unwrap(), *p))
            .collect();
        let f_full = metrics::fidelity(&ideal, &full_marginal);
        let f_sub = metrics::fidelity(&ideal, &sub_pmf);
        assert!(
            f_sub > f_full,
            "subset fidelity {f_sub} should beat full-measurement marginal {f_full}"
        );
    }

    #[test]
    fn readout_noise_alone_flips_deterministic_outcomes() {
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let mut c = Circuit::new(27);
        c.x(0).measure(0, 0);
        let cfg = RunConfig { gate_noise: false, decoherence: false, ..RunConfig::default() };
        let counts = exec.run(&c, 20_000, &cfg);
        let p1 = counts.to_pmf().prob(&"1".parse().unwrap());
        let expected = 1.0 - device.calibration().readout(0).p0_given_1;
        assert!((p1 - expected).abs() < 0.01, "p1 = {p1}, expected ≈ {expected}");
    }

    #[test]
    fn compaction_keeps_device_qubits_out_of_the_simulation() {
        // A 2-qubit program on a 65-qubit device must not allocate 2^65.
        let device = Device::manhattan();
        let exec = Executor::new(&device);
        let mut c = Circuit::new(65);
        c.h(40).cx(40, 39).measure(40, 0).measure(39, 1);
        let counts = exec.run(&c, 500, &RunConfig::noiseless());
        assert_eq!(counts.total(), 500);
        let p = counts.to_pmf();
        assert!(p.prob(&"00".parse().unwrap()) > 0.3);
        assert!(p.prob(&"11".parse().unwrap()) > 0.3);
    }

    #[test]
    fn crosstalk_scales_with_simultaneous_measurements() {
        // Measure the same physical qubit alone vs alongside nine others;
        // the lone readout must be more accurate.
        let device = Device::toronto();
        let exec = Executor::new(&device);
        let cfg = RunConfig { gate_noise: false, decoherence: false, ..RunConfig::default() };

        let mut alone = Circuit::new(27);
        alone.x(0).measure(0, 0);
        let p_alone = exec.run(&alone, 30_000, &cfg).to_pmf().marginal(&[0]);

        let mut crowd = Circuit::new(27);
        crowd.x(0);
        crowd.measure(0, 0);
        for (i, q) in (1..10).enumerate() {
            crowd.measure(q, i + 1);
        }
        let p_crowd = exec.run(&crowd, 30_000, &cfg).to_pmf().marginal(&[0]);

        let one = "1".parse().unwrap();
        assert!(
            p_alone.prob(&one) > p_crowd.prob(&one) + 0.01,
            "isolated {} vs crowded {}",
            p_alone.prob(&one),
            p_crowd.prob(&one)
        );
    }

    #[test]
    #[should_panic(expected = "measures nothing")]
    fn measurement_free_circuit_rejected() {
        let device = Device::toronto();
        let mut c = Circuit::new(2);
        c.h(0);
        let _ = Executor::new(&device).run(&c, 10, &RunConfig::default());
    }
}
