//! Ablation: the fidelity-vs-correlation trade-off of the CPM subset size
//! (paper §4.4's motivation for JigSaw-M).
//!
//! Runs single-size JigSaw at s = 2..6 on GHZ-12 and reports relative PST
//! plus the average local-PMF fidelity per size. Built on the staged
//! pipeline: the global circuit is compiled and simulated **once**, and the
//! `GlobalRun` artifact forked per subset size — the compile counts every
//! result carries prove the whole sweep performs exactly one global compile
//! (every further compilation is a per-size CPM recompile).
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin abl_subset_size -- [--trials 8192]
//! ```

use jigsaw_bench::cli::Args;
use jigsaw_bench::harness::harness_compiler;
use jigsaw_bench::table;
use jigsaw_circuit::bench::ghz;
use jigsaw_core::{run_baseline_from, JigsawConfig, JigsawPipeline, ReferenceConfig, StageName};
use jigsaw_device::Device;
use jigsaw_pmf::{metrics, Pmf};
use jigsaw_sim::{ideal_pmf, resolve_correct_set};

fn main() {
    let args = Args::from_env();
    let trials = args.trials(8192);
    let seed = args.seed();
    let device = Device::toronto();
    let bench = ghz(12);
    let correct = resolve_correct_set(&bench);
    let compiler = harness_compiler();

    // The shared prefix: one plan → compile → global run for the whole
    // sweep (baseline included — it executes the same measure-all
    // artifact).
    let cfg = JigsawConfig { compiler, ..JigsawConfig::jigsaw(trials) }.with_seed(seed);
    let shared = JigsawPipeline::plan(bench.circuit(), &device, &cfg).compile_global();
    let global_compiles = shared.timings().compiles();

    let reference = ReferenceConfig::new(trials).with_seed(seed).with_compiler(compiler);
    let baseline = run_baseline_from(shared.artifact(), &device, &reference);
    let base_pst = metrics::pst(&baseline, &correct);

    println!(
        "Ablation — CPM subset size, GHZ-12 on {} (trials {trials}, seed {seed})",
        device.name()
    );
    println!("Baseline PST: {base_pst:.4}");
    println!();

    let shared = shared.run_global();

    let mut ideal_circuit = bench.circuit().clone();
    ideal_circuit.measure_all();
    let ideal: Pmf = ideal_pmf(&ideal_circuit);

    let (mut cpms, mut cpm_compiles) = (0u64, 0u64);
    let mut rows = Vec::new();
    for size in 2..=6usize {
        eprintln!("[abl_subset_size] s = {size} ...");
        let result =
            shared.clone().with_subset_sizes(vec![size]).select_subsets().run_cpms().reconstruct();
        let cpm_record = result.timings.get(StageName::RunCpms).expect("run-cpms recorded");
        cpms += result.marginals.len() as u64;
        cpm_compiles += cpm_record.compiles;
        assert_eq!(
            result.compiles(),
            global_compiles + cpm_record.compiles,
            "the size-{size} fork must not recompile the global circuit"
        );
        let rel = metrics::pst(&result.output, &correct) / base_pst;

        // Average local-PMF fidelity against each subset's ideal marginal.
        let mean_local_fidelity: f64 = result
            .marginals
            .iter()
            .map(|m| metrics::fidelity(&ideal.marginal(&m.qubits), &m.pmf))
            .sum::<f64>()
            / result.marginals.len() as f64;

        rows.push(vec![
            size.to_string(),
            result.marginals.len().to_string(),
            format!("{mean_local_fidelity:.4}"),
            table::num(rel),
            format!("{:.3?}", cpm_record.wall),
        ]);
    }

    println!(
        "{}",
        table::render(
            &["Subset size s", "CPMs", "Mean local fidelity", "Relative PST", "CPM wall"],
            &rows
        )
    );
    println!("Expected shape: local fidelity falls as s grows (more measurements),");
    println!("while captured correlation rises — the JigSaw-M trade-off.");
    println!();
    println!(
        "Compiles (from the results): {global_compiles} global, {cpm_compiles} CPM recompiles \
         across the sweep ({cpms} CPMs)."
    );
    assert_eq!(global_compiles, 1, "the sweep must pay exactly one global compile");
    assert_eq!(cpm_compiles, cpms, "every CPM must recompile exactly once");
}
