//! Property suite for the sharded reconstruction path: serial and parallel
//! execution must produce **bit-identical** PMFs — the same bar
//! `tests/parallel_determinism.rs` sets for the executor — across thread
//! counts, support sizes (spanning several shard boundaries, for single
//! rounds, single updates and iterated reconstruction), marginal counts and
//! subset widths, including degenerate point-mass marginals.

use jigsaw_bench::synthetic::{global_pmf, marginal};
use jigsaw_repro::core::{
    bayesian_update, reconstruct, reconstruction_round, Marginal, ReconstructionConfig,
};
use jigsaw_repro::pmf::parallel::SHARD_SIZE;
use jigsaw_repro::pmf::{BitString, Pmf};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [0, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bayesian_update_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        entries in 1usize..2000,
        size in 1usize..4,
        point_mass in any::<bool>(),
    ) {
        let p = global_pmf(12, entries, seed);
        let m = marginal(12, size, point_mass, seed ^ 0xABCD);
        let serial = bayesian_update(&p, &m, 1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&serial, &bayesian_update(&p, &m, threads));
        }
    }

    #[test]
    fn round_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        entries in 1usize..1500,
        marginal_count in 1usize..12,
        point_mass in any::<bool>(),
    ) {
        let p = global_pmf(11, entries, seed);
        let ms: Vec<Marginal> = (0..marginal_count)
            .map(|i| marginal(11, 1 + i % 3, point_mass && i % 2 == 0, seed + i as u64))
            .collect();
        let serial = reconstruction_round(&p, &ms, 1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&serial, &reconstruction_round(&p, &ms, threads));
        }
    }

    #[test]
    fn iterated_reconstruction_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        entries in 1usize..800,
        marginal_count in 1usize..6,
    ) {
        let p = global_pmf(10, entries, seed);
        let ms: Vec<Marginal> = (0..marginal_count)
            .map(|i| marginal(10, 2, false, seed + 31 * i as u64))
            .collect();
        let config = ReconstructionConfig { tolerance: 1e-5, max_rounds: 16, threads: 1 };
        let serial = reconstruct(&p, &ms, &config);
        for threads in THREAD_COUNTS {
            let parallel = reconstruct(&p, &ms, &config.with_threads(threads));
            prop_assert_eq!(&serial.pmf, &parallel.pmf);
            prop_assert_eq!(serial.rounds, parallel.rounds);
            prop_assert_eq!(serial.converged, parallel.converged);
        }
    }
}

/// Supports straddling one, two and several shard boundaries: the fixed
/// shard layout — not the worker count — must decide every partial merge.
#[test]
fn multi_shard_supports_are_bit_identical_across_thread_counts() {
    for (entries, marginal_count) in
        [(SHARD_SIZE - 1, 4), (SHARD_SIZE + 1, 3), (3 * SHARD_SIZE + 17, 2)]
    {
        let p = global_pmf(20, entries, 42);
        let ms: Vec<Marginal> =
            (0..marginal_count).map(|i| marginal(20, 2, false, 7 + i as u64)).collect();
        let serial = reconstruction_round(&p, &ms, 1);
        for threads in THREAD_COUNTS {
            assert_eq!(
                serial,
                reconstruction_round(&p, &ms, threads),
                "entries = {entries}, threads = {threads}"
            );
        }
    }
}

/// Iterated reconstruction and single updates over multi-shard supports:
/// every round re-merges the per-shard group masses, so the cross-shard
/// merge must stay thread-count-invariant round after round, not just once.
#[test]
fn multi_shard_iteration_is_bit_identical_across_thread_counts() {
    for (entries, marginal_count) in [(SHARD_SIZE + 1, 5), (3 * SHARD_SIZE + 17, 3)] {
        let p = global_pmf(40, entries, 11);
        let ms: Vec<Marginal> =
            (0..marginal_count).map(|i| marginal(40, 2 + i % 4, i == 1, 90 + i as u64)).collect();
        let config = ReconstructionConfig { tolerance: 1e-6, max_rounds: 12, threads: 1 };
        let serial = reconstruct(&p, &ms, &config);
        let serial_update = bayesian_update(&p, &ms[0], 1);
        for threads in THREAD_COUNTS {
            let parallel = reconstruct(&p, &ms, &config.with_threads(threads));
            assert_eq!(serial, parallel, "entries = {entries}, threads = {threads}");
            assert_eq!(
                serial_update,
                bayesian_update(&p, &ms[0], threads),
                "entries = {entries}, threads = {threads}"
            );
        }
    }
}

/// A point-mass *prior* (single observed outcome) is the smallest possible
/// shard; degenerate point-mass marginals must stay finite and identical.
#[test]
fn point_mass_prior_and_marginal_are_bit_identical_across_thread_counts() {
    let p = Pmf::point_mass(BitString::from_u64(0b1011, 4));
    let m = marginal(4, 2, true, 5);
    let serial =
        reconstruct(&p, std::slice::from_ref(&m), &ReconstructionConfig::default().with_threads(1));
    for threads in THREAD_COUNTS {
        let parallel = reconstruct(
            &p,
            std::slice::from_ref(&m),
            &ReconstructionConfig::default().with_threads(threads),
        );
        assert_eq!(serial.pmf, parallel.pmf);
        for (_, prob) in parallel.pmf.iter() {
            assert!(prob.is_finite());
        }
    }
}
