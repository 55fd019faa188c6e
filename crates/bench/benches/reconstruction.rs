//! Criterion bench: Bayesian reconstruction scales linearly in global-PMF
//! entries and in CPM count (the Table 7 / §7.3 performance claim), and the
//! sharded passes scale with the worker team on large supports.
//!
//! `reconstruction_support_scaling` sweeps synthetic supports from 10⁴ to
//! 10⁶ observed outcomes (the wide-Clifford regime) — mean times should
//! grow ~10× per step. `reconstruction_thread_scaling` holds a 10⁶-entry
//! support fixed and sweeps the worker count; output is bit-identical at
//! every setting, so the sweep measures pure wall-clock scaling.
//!
//! Those groups time single rounds, and each single-round call also builds
//! the marginals' projection indices, a once-per-layer cost.
//! `reconstruction_iterated` runs a full 32-round `reconstruct` on 10⁴- and
//! 10⁵-entry supports, where the index is built once, so its time divided
//! by 32 is the per-round kernel cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jigsaw_bench::synthetic;
use jigsaw_core::{
    reconstruct, reconstruction_round, reconstruction_round_over_entries, ReconstructionConfig,
};

fn bench_entries(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruction_vs_entries");
    group.sample_size(10);
    let ms = synthetic::marginals(30, 20, 2, 100);
    for entries in [1_000usize, 4_000, 16_000] {
        let p = synthetic::global_pmf(30, entries, 1);
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| reconstruction_round(&p, &ms, 1));
        });
    }
    group.finish();
}

fn bench_cpms(c: &mut Criterion) {
    let p = synthetic::global_pmf(30, 4_000, 2);
    let mut group = c.benchmark_group("reconstruction_vs_cpms");
    group.sample_size(10);
    for cpms in [5usize, 20, 80] {
        let ms = synthetic::marginals(30, cpms, 2, 200 + cpms as u64);
        group.bench_with_input(BenchmarkId::from_parameter(cpms), &cpms, |b, _| {
            b.iter(|| reconstruction_round(&p, &ms, 1));
        });
    }
    group.finish();
}

fn bench_support_scaling(c: &mut Criterion) {
    let ms = synthetic::marginals(40, 8, 2, 300);
    let mut group = c.benchmark_group("reconstruction_support_scaling");
    group.sample_size(10);
    for entries in [10_000usize, 100_000, 1_000_000] {
        let support = synthetic::global_pmf(40, entries, 3).sorted_entries();
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| reconstruction_round_over_entries(&support, &ms, 1));
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let support = synthetic::global_pmf(40, 1_000_000, 4).sorted_entries();
    let ms = synthetic::marginals(40, 8, 2, 400);
    let mut group = c.benchmark_group("reconstruction_thread_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| reconstruction_round_over_entries(&support, &ms, threads));
        });
    }
    group.finish();
}

fn bench_iterated(c: &mut Criterion) {
    let ms = synthetic::marginals(40, 8, 2, 500);
    // A zero tolerance never stops early: every iteration runs 32 rounds.
    let config = ReconstructionConfig { tolerance: 0.0, max_rounds: 32, threads: 1 };
    let mut group = c.benchmark_group("reconstruction_iterated");
    group.sample_size(10);
    for entries in [10_000usize, 100_000] {
        let p = synthetic::global_pmf(40, entries, 5);
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| reconstruct(&p, &ms, &config));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_entries,
    bench_cpms,
    bench_support_scaling,
    bench_thread_scaling,
    bench_iterated
);
criterion_main!(benches);
