//! Compile accounting is scoped to the run that pays it: a sibling thread
//! compiling in a loop must never leak into a result's compile count. The
//! one count is the `run-cpms` record, derived from the run's own work
//! list, so it is exact at any concurrency and whether the CPMs ran in
//! process or as merged shards.

use std::sync::atomic::{AtomicBool, Ordering};

use jigsaw_repro::circuit::bench;
use jigsaw_repro::compiler::{compile, CompilerOptions};
use jigsaw_repro::core::dist::{execute_shard, merge_partials, plan_shards};
use jigsaw_repro::core::pipeline::JigsawPipeline;
use jigsaw_repro::core::{run_jigsaw, JigsawConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::encode_to_vec;

/// Stops the sibling compiler when the checking thread leaves the scope,
/// including by panic, so a failed assertion cannot hang the join.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn a_sibling_compiling_in_a_loop_never_leaks_into_a_runs_count() {
    let device = Device::toronto();
    let program = bench::ghz(6).circuit().clone();
    let mut config = JigsawConfig::jigsaw(1_200).with_seed(3);
    config.compiler.max_seeds = 2;
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut sibling = bench::ghz(5).circuit().clone();
            sibling.measure_all();
            let options = CompilerOptions { max_seeds: 1, ..CompilerOptions::default() };
            while !stop.load(Ordering::Relaxed) {
                let _ = compile(&sibling, &device, &options);
            }
        });
        let _stop = StopOnDrop(&stop);

        // A recompiling run pays its global compile plus one per CPM.
        let result = run_jigsaw(&program, &device, &config);
        assert_eq!(result.compiles(), 1 + result.marginals.len() as u64);

        // A recompiling stage run as shards and merged records the same
        // count and the same bytes.
        let stage = JigsawPipeline::plan(&program, &device, &config)
            .compile_global()
            .run_global()
            .select_subsets();
        let cpms = stage.cpm_work().len() as u64;
        let partials = plan_shards(stage.cpm_work().len(), 4)
            .iter()
            .map(|shard| execute_shard(&stage, shard))
            .collect();
        let merged = merge_partials(stage, partials).expect("partials tile the work list");
        assert_eq!(merged.compiles(), 1 + cpms);
        assert_eq!(encode_to_vec(&merged), encode_to_vec(&result));
    });
}
