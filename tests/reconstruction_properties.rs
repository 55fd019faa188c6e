//! Property-based integration tests for Bayesian reconstruction: invariants
//! that must hold for arbitrary priors and marginals.

use jigsaw_repro::core::{
    bayesian_update, reconstruct, reconstruction_round, Marginal, ReconstructionConfig,
};
use jigsaw_repro::pmf::{metrics, BitString, Pmf};
use proptest::prelude::*;

/// Random normalised PMF over `n` qubits with up to `max_entries` entries.
fn pmf_strategy(n: usize, max_entries: usize) -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0u64..(1u64 << n), 0.01f64..1.0), 1..=max_entries).prop_map(
        move |entries| {
            let mut p = Pmf::new(n);
            for (v, w) in entries {
                p.add(BitString::from_u64(v, n), w);
            }
            p.normalize();
            p
        },
    )
}

/// Random marginal over a 2-qubit subset of an `n`-qubit register.
fn marginal_strategy(n: usize) -> impl Strategy<Value = Marginal> {
    (0..n, 1..n, prop::collection::vec(0.01f64..1.0, 4)).prop_map(move |(a, off, ws)| {
        let b = (a + off) % n;
        let qubits = vec![a.min(b), a.max(b)];
        let mut pmf = Pmf::new(2);
        for (v, w) in ws.into_iter().enumerate() {
            pmf.add(BitString::from_u64(v as u64, 2), w);
        }
        pmf.normalize();
        Marginal::new(qubits, pmf)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn update_output_is_normalised_with_bounded_support(
        p in pmf_strategy(6, 20),
        m in marginal_strategy(6),
    ) {
        let out = bayesian_update(&p, &m, 1);
        prop_assert!(out.total_mass() < 1.0 + 1e-9);
        prop_assert!(out.support_size() <= p.support_size());
        for (_, prob) in out.iter() {
            prop_assert!(prob.is_finite() && prob >= 0.0);
        }
    }

    #[test]
    fn round_is_normalised_and_support_bounded(
        p in pmf_strategy(6, 20),
        ms in prop::collection::vec(marginal_strategy(6), 1..6),
    ) {
        let out = reconstruction_round(&p, &ms, 1);
        prop_assert!((out.total_mass() - 1.0).abs() < 1e-9);
        prop_assert!(out.support_size() <= p.support_size());
    }

    #[test]
    fn round_is_permutation_invariant(
        p in pmf_strategy(5, 16),
        ms in prop::collection::vec(marginal_strategy(5), 2..5),
    ) {
        let forward = reconstruction_round(&p, &ms, 1);
        let mut reversed = ms.clone();
        reversed.reverse();
        let backward = reconstruction_round(&p, &reversed, 1);
        prop_assert!(metrics::tvd(&forward, &backward) < 1e-9);
    }

    #[test]
    fn reconstruction_converges_within_cap(
        p in pmf_strategy(5, 16),
        ms in prop::collection::vec(marginal_strategy(5), 1..4),
    ) {
        let config = ReconstructionConfig { tolerance: 1e-3, max_rounds: 64, ..Default::default() };
        let r = reconstruct(&p, &ms, &config);
        prop_assert!((r.pmf.total_mass() - 1.0).abs() < 1e-9);
        prop_assert!(r.rounds <= 64);
    }

    #[test]
    fn truthful_evidence_accentuates_a_dominant_answer(
        answer in 0u64..32,
        noise in prop::collection::vec((0u64..32, 0.01f64..0.05), 1..8),
    ) {
        // The paper's core claim (§4.3): Bayesian updates "accentuate the
        // probabilities of the correct outcome(s)". Build a truth dominated
        // by one outcome, a prior diluted with wrong-outcome mass, and feed
        // the truth's own exact 2-qubit marginals as evidence: the dominant
        // answer's probability must rise.
        let answer_bits = BitString::from_u64(answer, 5);
        let mut truth = Pmf::new(5);
        truth.set(answer_bits, 1.0);

        let mut prior = Pmf::new(5);
        prior.set(answer_bits, 0.4);
        for (v, w) in noise {
            if v != answer {
                prior.add(BitString::from_u64(v, 5), w);
            }
        }
        prior.normalize();
        let before = prior.prob(&answer_bits);

        let marginals: Vec<Marginal> = (0..4)
            .map(|i| Marginal::new(vec![i, i + 1], truth.marginal(&[i, i + 1])))
            .collect();
        let out = reconstruct(&prior, &marginals, &ReconstructionConfig::default());
        let after = out.pmf.prob(&answer_bits);
        prop_assert!(after >= before - 1e-9, "answer mass fell from {before} to {after}");
        prop_assert_eq!(out.pmf.mode(), Some(answer_bits));
    }

    #[test]
    fn reconstruction_never_leaves_the_observed_support(
        answer in 0u64..32,
        noise in prop::collection::vec((0u64..32, 0.01f64..0.3), 1..8),
    ) {
        // §7.1: only observed outcomes are stored or updated.
        let mut prior = Pmf::new(5);
        prior.set(BitString::from_u64(answer, 5), 0.5);
        for (v, w) in noise {
            prior.add(BitString::from_u64(v, 5), w);
        }
        prior.normalize();
        let support: Vec<BitString> = prior.iter().map(|(b, _)| *b).collect();

        let mut evidence = Pmf::new(2);
        evidence.set(BitString::from_u64(answer & 0b11, 2), 1.0);
        let out = reconstruct(
            &prior,
            &[Marginal::new(vec![0, 1], evidence)],
            &ReconstructionConfig::default(),
        );
        for (b, _) in out.pmf.iter() {
            prop_assert!(support.contains(b), "{b} appeared from nowhere");
        }
        // Rounds reweight observed outcomes and never drop one.
        prop_assert_eq!(out.pmf.support_size(), prior.support_size());
        prop_assert!((out.pmf.total_mass() - 1.0).abs() < 1e-12);
    }
}
