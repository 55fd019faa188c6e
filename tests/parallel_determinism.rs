//! Regression: the `fan_out` worker teams (executor trajectory batches and
//! the CPM subset mode) must be invisible in the results — a fixed seed
//! produces bit-identical histograms at every thread count.

use jigsaw_repro::circuit::bench;
use jigsaw_repro::compiler::{compile, CompilerOptions};
use jigsaw_repro::core::{run_jigsaw, JigsawConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::sim::{Executor, RunConfig};

fn quick_config(trials: u64, threads: usize) -> JigsawConfig {
    let mut config = JigsawConfig::jigsaw(trials).with_seed(11);
    config.compiler.max_seeds = 4;
    config.run = config.run.with_threads(threads);
    config
}

#[test]
fn executor_histograms_are_thread_count_invariant() {
    let device = Device::toronto();
    let mut logical = bench::ghz(9).circuit().clone();
    logical.measure_all();
    let compiled = compile(&logical, &device, &CompilerOptions::default());
    let exec = Executor::new(&device);
    let circuit = compiled.circuit();
    let serial = exec.run(circuit, 4096, &RunConfig::default().with_seed(3).with_threads(1));
    let parallel = exec.run(circuit, 4096, &RunConfig::default().with_seed(3).with_threads(0));
    assert_eq!(serial, parallel);
}

#[test]
fn jigsaw_pipeline_is_thread_count_invariant() {
    let device = Device::toronto();
    let bench = bench::ghz(6);
    let serial = run_jigsaw(bench.circuit(), &device, &quick_config(3000, 1));
    let parallel = run_jigsaw(bench.circuit(), &device, &quick_config(3000, 0));
    assert_eq!(serial.output, parallel.output);
    assert_eq!(serial.global, parallel.global);
    assert_eq!(serial.marginals, parallel.marginals);
    assert_eq!(serial.trials_used, parallel.trials_used);
}

#[test]
fn jigsaw_m_is_thread_count_invariant() {
    let device = Device::paris();
    let bench = bench::ghz(7);
    let mut serial_cfg = quick_config(4000, 1);
    serial_cfg.subset_sizes = vec![2, 3];
    let mut parallel_cfg = serial_cfg.clone();
    parallel_cfg.run = parallel_cfg.run.with_threads(4);
    let serial = run_jigsaw(bench.circuit(), &device, &serial_cfg);
    let parallel = run_jigsaw(bench.circuit(), &device, &parallel_cfg);
    assert_eq!(serial.output, parallel.output);
    assert_eq!(serial.marginals, parallel.marginals);
}
