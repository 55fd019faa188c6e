//! Criterion bench: end-to-end JigSaw pipeline overhead on a small
//! benchmark (framework cost beyond raw trial execution), plus a one-shot
//! per-stage wall-time breakdown from the staged API's telemetry.

use criterion::{criterion_group, criterion_main, Criterion};
use jigsaw_circuit::bench::ghz;
use jigsaw_compiler::CompilerOptions;
use jigsaw_core::{run_baseline, run_jigsaw, JigsawConfig, ReferenceConfig};
use jigsaw_device::Device;

fn bench_pipeline(c: &mut Criterion) {
    let device = Device::toronto();
    let bench = ghz(6);
    let compiler = CompilerOptions { max_seeds: 4, ..CompilerOptions::default() };
    let mut group = c.benchmark_group("pipeline_ghz6_1k_trials");
    group.sample_size(10);

    let reference = ReferenceConfig::new(1024).with_seed(1).with_compiler(compiler);
    group.bench_function("baseline", |b| {
        b.iter(|| run_baseline(bench.circuit(), &device, &reference));
    });

    let jig = JigsawConfig { compiler, ..JigsawConfig::jigsaw(1024) };
    group.bench_function("jigsaw", |b| {
        b.iter(|| run_jigsaw(bench.circuit(), &device, &jig));
    });

    let jm = JigsawConfig { subset_sizes: vec![2, 3, 4, 5], ..jig.clone() };
    group.bench_function("jigsaw_m", |b| {
        b.iter(|| run_jigsaw(bench.circuit(), &device, &jm));
    });

    // The fan-out off (threads=1) vs on (threads=0, all cores). Both
    // produce bit-identical histograms for the shared seed; the sanity
    // check below guards that before any timing is trusted.
    let mut serial = jm.clone();
    serial.run = serial.run.with_threads(1);
    let mut parallel = jm.clone();
    parallel.run = parallel.run.with_threads(0);
    assert_eq!(
        run_jigsaw(bench.circuit(), &device, &serial).output,
        run_jigsaw(bench.circuit(), &device, &parallel).output,
        "serial and parallel runs must agree for a fixed seed"
    );
    group.bench_function("jigsaw_m_serial", |b| {
        b.iter(|| run_jigsaw(bench.circuit(), &device, &serial));
    });
    group.bench_function("jigsaw_m_parallel", |b| {
        b.iter(|| run_jigsaw(bench.circuit(), &device, &parallel));
    });
    group.finish();

    // Per-stage breakdown for the CI bench smoke: where one JigSaw-M run's
    // wall clock actually goes (compile vs simulate vs reconstruct).
    let result = run_jigsaw(bench.circuit(), &device, &parallel);
    eprintln!("stage timings (jigsaw_m, ghz6, 1k trials, all cores):");
    eprintln!("{}", result.timings);
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
