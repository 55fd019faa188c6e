//! Golden pins for Bayesian reconstruction: the encoded bytes of
//! `reconstruct(..).pmf` for three fixed inputs, digested with the archive
//! format's FNV-1a and compared against constants captured from an earlier
//! revision of the kernel. Any change to the floating-point accumulation
//! order — group masses, odds totals, posterior scaling, normalisation —
//! moves at least one digest, at every thread setting.
//!
//! The inputs span the kernel's execution shapes: the paper's Fig. 6
//! example (one tiny shard), a 40-bit synthetic support one entry past
//! [`SHARD_SIZE`] with forty marginals of sizes 2–5 (the cross-shard
//! group-mass merge), and a full GHZ-12 JigSaw-M pipeline run (four
//! hierarchical layers over a real prior).

use jigsaw_bench::synthetic::{global_pmf, marginal};
use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::{reconstruct, run_jigsaw, JigsawConfig, Marginal, ReconstructionConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::{encode_to_vec, fnv1a64};
use jigsaw_repro::pmf::parallel::SHARD_SIZE;
use jigsaw_repro::pmf::{BitString, Pmf};

/// Thread settings every pin is checked at: serial, two workers, all cores.
const THREADS: [usize; 3] = [1, 2, 0];

const FIG6_DIGEST: u64 = 0x2521_51bb_baad_8eaf;
const SYNTHETIC_DIGEST: u64 = 0x5043_5a6b_ab73_cdd5;
const GHZ12_JIGSAW_M_DIGEST: u64 = 0xb8bd_6b49_9762_2149;

fn digest(pmf: &Pmf) -> u64 {
    fnv1a64(&encode_to_vec(pmf))
}

fn bs(s: &str) -> BitString {
    s.parse().expect("valid bit string")
}

#[test]
fn fig6_reconstruction_bytes_are_pinned() {
    let mut prior = Pmf::new(3);
    for (s, v) in [
        ("000", 0.10),
        ("001", 0.10),
        ("010", 0.15),
        ("011", 0.15),
        ("100", 0.10),
        ("101", 0.05),
        ("110", 0.15),
        ("111", 0.20),
    ] {
        prior.set(bs(s), v);
    }
    let mut local = Pmf::new(2);
    for (s, v) in [("00", 0.1), ("01", 0.1), ("10", 0.2), ("11", 0.6)] {
        local.set(bs(s), v);
    }
    let marginals = [Marginal::new(vec![0, 1], local)];
    for threads in THREADS {
        let config = ReconstructionConfig::default().with_threads(threads);
        let got = digest(&reconstruct(&prior, &marginals, &config).pmf);
        assert_eq!(got, FIG6_DIGEST, "threads = {threads}: digest {got:#018x}");
    }
}

#[test]
fn multi_shard_synthetic_reconstruction_bytes_are_pinned() {
    let prior = global_pmf(40, SHARD_SIZE + 1, 2021);
    let marginals: Vec<Marginal> =
        (0..40).map(|i| marginal(40, 2 + i % 4, false, 500 + i as u64)).collect();
    for threads in THREADS {
        let config = ReconstructionConfig::default().with_threads(threads);
        let got = digest(&reconstruct(&prior, &marginals, &config).pmf);
        assert_eq!(got, SYNTHETIC_DIGEST, "threads = {threads}: digest {got:#018x}");
    }
}

#[test]
fn ghz12_jigsaw_m_output_bytes_are_pinned() {
    let device = Device::toronto();
    let b = bench::ghz(12);
    for threads in THREADS {
        let mut config = JigsawConfig::jigsaw_m(4000).with_seed(2021);
        config.run = config.run.with_threads(threads);
        let got = digest(&run_jigsaw(b.circuit(), &device, &config).output);
        assert_eq!(got, GHZ12_JIGSAW_M_DIGEST, "threads = {threads}: digest {got:#018x}");
    }
}
