//! Artifact reuse across a staged sweep, verified by the compile counts
//! every result carries: forking `GlobalCompiled`/`GlobalRun` must never
//! recompile (or re-run) the global circuit, and every additional
//! compilation must be a CPM recompile the config actually asked for.

use jigsaw_repro::circuit::bench;
use jigsaw_repro::compiler::CompilerOptions;
use jigsaw_repro::core::{run_jigsaw, JigsawConfig, JigsawPipeline, StageName, SubsetSelection};
use jigsaw_repro::device::Device;

#[test]
fn staged_sweep_compiles_the_global_circuit_exactly_once() {
    let device = Device::toronto();
    let b = bench::ghz(8);
    let cfg = JigsawConfig {
        compiler: CompilerOptions { max_seeds: 3, ..CompilerOptions::default() },
        ..JigsawConfig::jigsaw(2000)
    }
    .with_seed(21);

    // --- One global compile for the whole sweep ---------------------------
    let shared = JigsawPipeline::plan(b.circuit(), &device, &cfg).compile_global();
    assert_eq!(shared.timings().compiles(), 1, "compile_global performs exactly one compilation");
    let shared = shared.run_global();

    // --- Sweep subset sizes off the shared artifact ------------------------
    let mut results = Vec::new();
    for size in 2..=5usize {
        let result =
            shared.clone().with_subset_sizes(vec![size]).select_subsets().run_cpms().reconstruct();
        let cpm_compiles = result.timings.get(StageName::RunCpms).expect("recorded").compiles;
        assert_eq!(cpm_compiles, result.marginals.len() as u64, "one recompile per CPM");
        assert_eq!(
            result.compiles(),
            1 + cpm_compiles,
            "forked stages must only pay CPM recompiles, never a global recompile"
        );
        results.push(result);
    }

    // Each fork is bit-identical to its standalone monolithic run.
    for (size, staged) in (2..=5usize).zip(&results) {
        let standalone = run_jigsaw(
            b.circuit(),
            &device,
            &JigsawConfig { subset_sizes: vec![size], ..cfg.clone() },
        );
        assert_eq!(staged, &standalone, "size-{size} fork diverged from run_jigsaw");
    }

    // --- Reuse-mode forks compile nothing at all ---------------------------
    let reuse = shared.clone().without_recompilation().select_subsets().run_cpms().reconstruct();
    assert_eq!(reuse.compiles(), 1, "layout-reuse CPMs must not invoke the compiler");
    assert_eq!(reuse.marginals.len(), 8);

    // --- Adaptive selection runs off the same artifact and covers ----------
    let adaptive =
        shared.with_selection(SubsetSelection::Adaptive).select_subsets().run_cpms().reconstruct();
    for q in 0..8 {
        assert!(
            adaptive.marginals.iter().any(|m| m.qubits.contains(&q)),
            "qubit {q} uncovered by adaptive subsets"
        );
    }
    assert!((adaptive.output.total_mass() - 1.0).abs() < 1e-9);
    // The shared global stages appear exactly once in each branch's
    // telemetry — forks inherit records instead of re-running stages.
    let compile_records =
        adaptive.timings.records().iter().filter(|r| r.stage == StageName::CompileGlobal).count();
    let run_global_records =
        adaptive.timings.records().iter().filter(|r| r.stage == StageName::RunGlobal).count();
    assert_eq!((compile_records, run_global_records), (1, 1));
}
