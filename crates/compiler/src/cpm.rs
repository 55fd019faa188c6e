//! Circuits with Partial Measurements (paper §4.2): construction and
//! fidelity-focused recompilation.
//!
//! A CPM is the original program with measurements on only a qubit subset.
//! Two compilation modes exist:
//!
//! * **Reuse** ([`cpm_reuse_layout`]) — keep the global compilation's
//!   mapping and just drop measurements ("JigSaw w/o recompilation" in
//!   Fig. 11).
//! * **Recompile** ([`recompile_cpm`]) — rerun noise-aware compilation with
//!   a readout-heavy objective so the *measured* qubits land on the
//!   device's strongest readout qubits, without paying extra SWAPs
//!   (§4.2.2): gate-EPS already penalises added SWAPs, and only measured
//!   qubits contribute readout-EPS.

use jigsaw_circuit::Circuit;
use jigsaw_device::Device;

use crate::compile::{compile, Compiled, CompilerOptions};

/// Builds the CPM of `program` measuring exactly `subset` (logical qubit
/// `subset[k]` → classical bit `k`).
///
/// # Panics
///
/// Panics if `program` already declares measurements, `subset` is empty, or
/// contains duplicates/out-of-range qubits.
#[must_use]
pub fn cpm_circuit(program: &Circuit, subset: &[usize]) -> Circuit {
    assert!(
        program.measurements().is_empty(),
        "build CPMs from the measurement-free program circuit"
    );
    assert!(!subset.is_empty(), "a CPM must measure at least one qubit");
    let mut c = program.clone();
    c.measure_subset(subset);
    c
}

/// Recompiles a CPM with the readout-focused objective (paper §4.2.2).
///
/// # Panics
///
/// Panics under the same conditions as [`cpm_circuit`] and
/// [`compile`](crate::compile).
#[must_use]
pub fn recompile_cpm(
    program: &Circuit,
    subset: &[usize],
    device: &Device,
    options: &CompilerOptions,
) -> Compiled {
    let cpm = cpm_circuit(program, subset);
    let focused =
        CompilerOptions { placement: jigsaw_compiler_placement_readout(options), ..*options };
    compile(&cpm, device, &focused)
}

fn jigsaw_compiler_placement_readout(
    options: &CompilerOptions,
) -> crate::placement::PlacementConfig {
    crate::placement::PlacementConfig {
        readout_weight: options.placement.readout_weight.max(4.0),
        ..options.placement
    }
}

/// A compiled CPM as a standalone artifact: the logical subset it measures
/// plus the physical circuit ready for the executor.
///
/// This is the artifact-in/artifact-out face of CPM compilation the staged
/// pipeline consumes: [`CpmArtifact::recompiled`] produces one from the
/// logical program (paying a full placement search), while
/// [`CpmArtifact::reusing`] derives one from the already-compiled global
/// artifact for free. Either way the result is a plain value that can be
/// cached, cloned across sweep points, or executed independently.
#[derive(Debug, Clone, PartialEq)]
pub struct CpmArtifact {
    /// Logical qubits this CPM measures (classical bit `k` ← `subset[k]`).
    pub subset: Vec<usize>,
    /// The physical circuit ready for the executor.
    pub circuit: Circuit,
    /// EPS of the recompiled circuit; `None` when reusing the global
    /// mapping (the global EPS scores all measurements, not this subset's).
    pub eps: Option<f64>,
}

impl CpmArtifact {
    /// Compiles the CPM from scratch with the readout-focused objective
    /// (wraps [`recompile_cpm`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`recompile_cpm`].
    #[must_use]
    pub fn recompiled(
        program: &Circuit,
        subset: &[usize],
        device: &Device,
        options: &CompilerOptions,
    ) -> Self {
        let compiled = recompile_cpm(program, subset, device, options);
        Self { subset: subset.to_vec(), eps: Some(compiled.eps), circuit: compiled.routed.circuit }
    }

    /// Derives the CPM from the compiled global artifact without paying a
    /// placement search (wraps [`cpm_reuse_layout`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`cpm_reuse_layout`].
    #[must_use]
    pub fn reusing(global: &Compiled, subset: &[usize]) -> Self {
        Self { subset: subset.to_vec(), circuit: cpm_reuse_layout(global, subset), eps: None }
    }
}

/// Derives a CPM from an already-compiled global circuit *without*
/// recompiling: same gates and mapping, measurements restricted to `subset`
/// (logical indices), read from the final layout.
///
/// # Panics
///
/// Panics if `subset` is empty or out of range for the compiled program.
#[must_use]
pub fn cpm_reuse_layout(global: &Compiled, subset: &[usize]) -> Circuit {
    assert!(!subset.is_empty(), "a CPM must measure at least one qubit");
    let mut c = global.routed.circuit.clone();
    c.clear_measurements();
    for (k, &logical) in subset.iter().enumerate() {
        c.measure(global.routed.final_layout.physical(logical), k);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_circuit::bench;
    use jigsaw_pmf::metrics;
    use jigsaw_sim::{ideal_pmf, Executor, RunConfig};

    #[test]
    fn cpm_measures_exactly_the_subset() {
        let program = bench::ghz(6).circuit().clone();
        let cpm = cpm_circuit(&program, &[2, 5]);
        assert_eq!(cpm.measured_qubits(), vec![2, 5]);
        assert_eq!(cpm.n_clbits(), 2);
        assert_eq!(cpm.gates().len(), program.gates().len());
    }

    #[test]
    fn recompiled_cpm_measures_strong_qubits() {
        let device = Device::toronto();
        let program = bench::ghz(6).circuit().clone();
        let compiled = recompile_cpm(&program, &[0, 1], &device, &CompilerOptions::default());
        let measured = compiled.circuit().measured_qubits();
        // Both measured qubits should rank in the better half of the device.
        let order = device.calibration().qubits_by_readout_quality();
        for q in measured {
            let rank = order.iter().position(|&x| x == q).expect("ranked");
            assert!(rank < 27 * 3 / 4, "measured qubit {q} ranks {rank} of 27");
        }
    }

    #[test]
    fn recompiled_cpm_preserves_the_marginal() {
        let device = Device::paris();
        let b = bench::bernstein_vazirani(5, 0b0110);
        let subset = [1, 2];
        let logical_cpm = cpm_circuit(b.circuit(), &subset);
        let compiled = recompile_cpm(b.circuit(), &subset, &device, &CompilerOptions::default());
        let want = ideal_pmf(&logical_cpm);
        let got = ideal_pmf(compiled.circuit());
        for (bs, p) in want.iter() {
            assert!((got.prob(bs) - p).abs() < 1e-9, "marginal mismatch at {bs}");
        }
    }

    #[test]
    fn reuse_layout_cpm_matches_global_mapping() {
        let device = Device::toronto();
        let mut global_logical = bench::ghz(5).circuit().clone();
        global_logical.measure_all();
        let global = compile(&global_logical, &device, &CompilerOptions::default());
        let cpm = cpm_reuse_layout(&global, &[1, 3]);
        assert_eq!(
            cpm.measured_qubits(),
            vec![global.routed.final_layout.physical(1), global.routed.final_layout.physical(3)]
        );
        assert_eq!(cpm.gates().len(), global.circuit().gates().len());
    }

    #[test]
    fn recompiled_cpm_beats_global_marginal_fidelity() {
        // The paper's Fig. 10 claim in miniature: a recompiled 2-qubit CPM
        // yields a better local PMF than the global run's marginal.
        let device = Device::toronto();
        let b = bench::ghz(8);
        let subset = [0, 1];

        let mut global_logical = b.circuit().clone();
        global_logical.measure_all();
        let global = compile(&global_logical, &device, &CompilerOptions::default());
        let exec = Executor::new(&device);
        let cfg = RunConfig::default();
        let global_marginal = exec.run(global.circuit(), 6000, &cfg).to_pmf().marginal(&[0, 1]);

        let cpm = recompile_cpm(b.circuit(), &subset, &device, &CompilerOptions::default());
        let local = exec.run(cpm.circuit(), 6000, &cfg.with_seed(1)).to_pmf();

        let ideal = ideal_pmf(&cpm_circuit(b.circuit(), &subset));
        let f_global = metrics::fidelity(&ideal, &global_marginal);
        let f_local = metrics::fidelity(&ideal, &local);
        assert!(
            f_local > f_global,
            "local fidelity {f_local} should beat global marginal {f_global}"
        );
    }

    #[test]
    fn artifacts_match_their_function_counterparts() {
        let device = Device::toronto();
        let program = bench::ghz(6).circuit().clone();
        let options = CompilerOptions::default();
        let subset = [1, 4];

        let recompiled = CpmArtifact::recompiled(&program, &subset, &device, &options);
        let direct = recompile_cpm(&program, &subset, &device, &options);
        assert_eq!(&recompiled.circuit, direct.circuit());
        assert_eq!(recompiled.eps, Some(direct.eps));
        assert_eq!(recompiled.subset, vec![1, 4]);

        let mut global_logical = program.clone();
        global_logical.measure_all();
        let global = compile(&global_logical, &device, &options);
        let reused = CpmArtifact::reusing(&global, &subset);
        assert_eq!(reused.circuit, cpm_reuse_layout(&global, &subset));
        assert_eq!(reused.eps, None);
    }

    #[test]
    #[should_panic(expected = "measurement-free")]
    fn premeasured_program_rejected() {
        let mut program = bench::ghz(3).circuit().clone();
        program.measure_all();
        let _ = cpm_circuit(&program, &[0]);
    }
}
