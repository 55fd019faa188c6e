//! Figure 9-style evaluation of the *adaptive* CPM selection
//! (`SubsetSelection::Adaptive`, the ROADMAP's measurement-steering
//! scenario) against the paper's sliding window and random covering, over
//! the Table 2 suite — driven off **one checkpointed [`GlobalRun`] per
//! benchmark**.
//!
//! The expensive, policy-independent prefix (global compile + global run)
//! is saved to `--checkpoint-dir` as soon as each benchmark finishes it,
//! so a killed sweep resumes from disk: re-running the same command pays
//! **zero global recompiles** for every checkpointed benchmark (resuming
//! only decodes the archive; pass `--expect-resume` to assert every
//! benchmark resumed). All three policies fork the same resumed stage, so
//! their comparison is exact, not merely statistical.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin fig9_adaptive -- \
//!     [--trials 8192] [--seed 2021] [--small] [--checkpoint-dir DIR] \
//!     [--kill-after K] [--prepare-only] [--expect-resume]
//! ```
//!
//! * `--checkpoint-dir DIR` — save/resume `GlobalRun` archives under `DIR`
//!   (`docs/FORMAT.md` specifies the file format).
//! * `--kill-after K` — exit right after the `K`-th benchmark's checkpoint
//!   is on disk, simulating a mid-sweep kill.
//! * `--prepare-only` — write every checkpoint, skip the policy sweep.
//! * `--expect-resume` — assert every benchmark resumed from disk, so the
//!   setup phase performed 0 global compiles.

use std::path::PathBuf;

use jigsaw_bench::cli::Args;
use jigsaw_bench::harness::harness_compiler;
use jigsaw_bench::table;
use jigsaw_circuit::bench::{self, Benchmark};
use jigsaw_core::persist::{self, PersistError};
use jigsaw_core::pipeline::{GlobalRun, JigsawPipeline};
use jigsaw_core::{JigsawConfig, SubsetSelection};
use jigsaw_device::Device;
use jigsaw_pmf::metrics;
use jigsaw_sim::resolve_correct_set;

fn config_for(trials: u64, seed: u64) -> JigsawConfig {
    JigsawConfig { compiler: harness_compiler(), ..JigsawConfig::jigsaw(trials) }.with_seed(seed)
}

fn checkpoint_path(dir: &std::path::Path, bench: &Benchmark) -> PathBuf {
    let slug: String = bench
        .name()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    dir.join(format!("{slug}.jigsaw"))
}

/// Loads the benchmark's shared [`GlobalRun`] from its checkpoint, or
/// builds (and, with a checkpoint dir, saves) it. Returns the stage and
/// whether it was resumed from disk.
fn load_or_build(
    bench: &Benchmark,
    device: &Device,
    config: &JigsawConfig,
    dir: Option<&std::path::Path>,
) -> (GlobalRun, bool) {
    if let Some(dir) = dir {
        let path = checkpoint_path(dir, bench);
        match persist::resume_from::<GlobalRun>(&path, bench.circuit(), device, config) {
            Ok(run) => return (run, true),
            Err(PersistError::Io { .. }) => {} // no checkpoint yet
            Err(e) => eprintln!("[fig9_adaptive] {}: rebuilding checkpoint: {e}", bench.name()),
        }
        let run =
            JigsawPipeline::plan(bench.circuit(), device, config).compile_global().run_global();
        if let Err(e) = persist::save_stage(&run, &path) {
            eprintln!("[fig9_adaptive] {}: could not save checkpoint: {e}", bench.name());
        }
        (run, false)
    } else {
        let run =
            JigsawPipeline::plan(bench.circuit(), device, config).compile_global().run_global();
        (run, false)
    }
}

fn main() {
    let args = Args::from_env();
    let trials = args.trials(8192);
    let seed = args.seed();
    let suite = if args.flag("small") { bench::small_suite() } else { bench::paper_suite() };
    let checkpoint_dir = args.path("checkpoint-dir");
    let kill_after = args.u64_or("kill-after", 0) as usize;
    let device = Device::toronto();

    if let Some(dir) = &checkpoint_dir {
        std::fs::create_dir_all(dir).expect("create checkpoint dir");
    }

    // Phase 1 — load or build every benchmark's shared GlobalRun.
    let mut shared: Vec<(Benchmark, JigsawConfig, GlobalRun)> = Vec::new();
    let mut resumed_count = 0usize;
    for (i, b) in suite.into_iter().enumerate() {
        let config = config_for(trials, seed);
        let (run, resumed) = load_or_build(&b, &device, &config, checkpoint_dir.as_deref());
        eprintln!(
            "[fig9_adaptive] {} {} (support {})",
            if resumed { "resumed" } else { "built  " },
            b.name(),
            run.global_pmf().support_size()
        );
        resumed_count += usize::from(resumed);
        shared.push((b, config, run));
        if kill_after > 0 && i + 1 == kill_after {
            println!(
                "[fig9_adaptive] simulated kill after {kill_after} checkpoints; rerun the same \
                 command to resume"
            );
            return;
        }
    }
    println!("[fig9_adaptive] setup: {resumed_count}/{} resumed from disk", shared.len());
    if args.flag("expect-resume") {
        // Resuming only decodes an archive, so a fully resumed setup
        // compiled nothing.
        assert_eq!(resumed_count, shared.len(), "--expect-resume: not every benchmark resumed");
    }
    if args.flag("prepare-only") {
        println!("[fig9_adaptive] prepare-only: checkpoints are on disk, skipping the sweep");
        return;
    }

    // Phase 2 — the policy sweep: all three selections fork one GlobalRun
    // per benchmark, so nothing upstream is ever recomputed.
    let policies = [
        ("window", SubsetSelection::SlidingWindow),
        ("covering", SubsetSelection::RandomCovering),
        ("adaptive", SubsetSelection::Adaptive),
    ];
    let mut rows = Vec::new();
    let mut gains = vec![Vec::new(); policies.len()];
    for (b, _config, run) in &shared {
        let correct = resolve_correct_set(b);
        let base_pst = metrics::pst(run.global_pmf(), &correct);
        let mut row = vec![b.name().to_string(), b.n_qubits().to_string(), table::num(base_pst)];
        for (slot, (_, selection)) in gains.iter_mut().zip(policies) {
            let result =
                run.clone().with_selection(selection).select_subsets().run_cpms().reconstruct();
            let pst = metrics::pst(&result.output, &correct);
            row.push(format!("{} ({} CPMs)", table::num(pst), result.marginals.len()));
            slot.push(if base_pst > 0.0 { pst / base_pst } else { 1.0 });
        }
        rows.push(row);
        eprintln!("[fig9_adaptive] swept {}", b.name());
    }

    println!();
    println!(
        "Figure 9 (adaptive) — CPM selection policies on {}, {trials} trials, seed {seed}",
        device.name()
    );
    println!();
    println!(
        "{}",
        table::render(&["benchmark", "n", "global PST", "window", "covering", "adaptive"], &rows)
    );
    for ((name, _), gain) in policies.iter().zip(&gains) {
        println!(
            "relative PST vs global mode, gmean over the suite — {name}: {}",
            table::num(metrics::geometric_mean(gain))
        );
    }
}
