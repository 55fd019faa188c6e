//! Golden pins for compilation: the encoded bytes of a `Compiled` for fixed
//! programs, digested with the archive format's FNV-1a and compared against
//! constants captured from an earlier revision of the placement kernel.
//! Any change to region growth, in-region assignment, the path search or
//! their tie-breaks moves the chosen layout, hence the routed circuit, its
//! EPS and at least one digest, at every thread setting.
//!
//! The cases span the compiler's entry points: readout-focused CPM
//! recompilation at the paper's Table 7 scale (GHZ-40 on Manhattan, the
//! path and region candidates at 40 qubits), plain `compile` of a lattice,
//! a graph and a chain program on Toronto, and the EDM path
//! (`compile_with_avoidance` with a diversity penalty and avoid lists).

use jigsaw_repro::circuit::{bench, Circuit};
use jigsaw_repro::compiler::cpm::recompile_cpm;
use jigsaw_repro::compiler::placement::PlacementConfig;
use jigsaw_repro::compiler::{compile, compile_with_avoidance, Compiled, CompilerOptions};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::{encode_to_vec, fnv1a64};

/// Thread settings every pin is checked at: serial and all cores.
const THREADS: [usize; 2] = [1, 0];

const GHZ40_CPM_PAIR_DIGEST: u64 = 0x1080_9aa7_5399_c4cb;
const GHZ40_CPM_FIVE_DIGEST: u64 = 0x3355_1fb3_7d87_dd99;
const ISING10_DIGEST: u64 = 0x8326_4575_fca3_40d7;
const QAOA8_DIGEST: u64 = 0xa1e9_c832_cf85_5b9a;
const GHZ12_DIGEST: u64 = 0x6a2c_d7ae_5509_f648;
const GHZ12_AVOIDING_DIGEST: u64 = 0x0edc_e555_9b3a_51f8;
const QAOA8_AVOIDING_DIGEST: u64 = 0x7a5c_befd_1b2f_1a34;

fn digest(compiled: &Compiled) -> u64 {
    fnv1a64(&encode_to_vec(compiled))
}

fn options(threads: usize) -> CompilerOptions {
    CompilerOptions { threads, ..CompilerOptions::default() }
}

fn measured(b: &bench::Benchmark) -> Circuit {
    let mut c = b.circuit().clone();
    c.measure_all();
    c
}

fn check(name: &str, want: u64, compile_at: impl Fn(usize) -> Compiled) {
    for threads in THREADS {
        let got = digest(&compile_at(threads));
        assert_eq!(got, want, "{name}, threads = {threads}: digest {got:#018x}");
    }
}

#[test]
fn ghz40_cpm_recompilation_bytes_are_pinned() {
    let device = Device::manhattan();
    let program = bench::ghz(40).circuit().clone();
    for (name, subset, want) in [
        ("ghz40 cpm [17, 18]", vec![17, 18], GHZ40_CPM_PAIR_DIGEST),
        ("ghz40 cpm [3, 9, 21, 30, 38]", vec![3, 9, 21, 30, 38], GHZ40_CPM_FIVE_DIGEST),
    ] {
        check(name, want, |threads| recompile_cpm(&program, &subset, &device, &options(threads)));
    }
}

#[test]
fn toronto_compile_bytes_are_pinned() {
    let device = Device::toronto();
    for (b, want) in [
        (bench::ising(10, 3), ISING10_DIGEST),
        (bench::qaoa_maxcut(8, 2), QAOA8_DIGEST),
        (bench::ghz(12), GHZ12_DIGEST),
    ] {
        let logical = measured(&b);
        check(b.name(), want, |threads| compile(&logical, &device, &options(threads)));
    }
}

#[test]
fn edm_avoidance_compile_bytes_are_pinned() {
    let device = Device::toronto();
    let avoid = [vec![0, 1, 2, 3, 4, 5, 7, 8], vec![12, 13, 14, 15, 16, 18, 19, 20]];
    for (b, want) in
        [(bench::ghz(12), GHZ12_AVOIDING_DIGEST), (bench::qaoa_maxcut(8, 2), QAOA8_AVOIDING_DIGEST)]
    {
        let logical = measured(&b);
        check(b.name(), want, |threads| {
            let diverse = CompilerOptions {
                placement: PlacementConfig { diversity_penalty: 5.0, ..PlacementConfig::default() },
                ..options(threads)
            };
            compile_with_avoidance(&logical, &device, &diverse, &avoid)
        });
    }
}
