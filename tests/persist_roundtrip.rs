//! Property suite for the persistence layer (`jigsaw_core::persist`):
//! a stage saved to an archive and resumed — in what stands in for a fresh
//! process — must replay every downstream stage **bit-identically** to the
//! in-process fork it was cloned from, across seeds, subset sizes, thread
//! counts and simulation backends. Archives themselves must be
//! deterministic (two identical runs → identical bytes; telemetry is
//! non-semantic) and corruption of any single byte must surface as a typed
//! error, never a panic and never a silently different result. The bytes of
//! one fixed-seed archive per stage kind are pinned by FNV-1a digest.

use jigsaw_repro::circuit::bench;
use jigsaw_repro::compiler::CompilerOptions;
use jigsaw_repro::core::persist::{self, PersistError};
use jigsaw_repro::core::pipeline::{GlobalRun, SubsetsSelected};
use jigsaw_repro::core::{run_jigsaw, JigsawConfig, JigsawPipeline};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::fnv1a64;
use jigsaw_repro::pmf::envelope::EnvelopeError;
use jigsaw_repro::sim::BackendChoice;
use proptest::prelude::*;

fn config(
    trials: u64,
    seed: u64,
    sizes: Vec<usize>,
    threads: usize,
    backend: BackendChoice,
) -> JigsawConfig {
    let mut cfg = JigsawConfig {
        subset_sizes: sizes,
        compiler: CompilerOptions { max_seeds: 3, ..CompilerOptions::default() },
        ..JigsawConfig::jigsaw(trials)
    }
    .with_seed(seed);
    cfg.run = cfg.run.with_threads(threads);
    cfg.run.backend = backend;
    cfg
}

fn subset_sizes() -> impl Strategy<Value = Vec<usize>> {
    (0usize..3).prop_map(|i| match i {
        0 => vec![2],
        1 => vec![3],
        _ => vec![3, 2],
    })
}

fn backends() -> impl Strategy<Value = BackendChoice> {
    (0usize..2).prop_map(|i| if i == 0 { BackendChoice::Auto } else { BackendChoice::Dense })
}

fn threads3() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| match i {
        0 => 0,
        1 => 1,
        _ => 3,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: save → "kill" → resume reproduces the
    /// in-process pipeline result bit-identically.
    #[test]
    fn resumed_global_run_replays_bit_identically(
        seed in 0u64..1000,
        trials in 800u64..1600,
        sizes in subset_sizes(),
        threads in threads3(),
        backend in backends(),
    ) {
        let device = Device::toronto();
        let b = bench::ghz(6);
        let cfg = config(trials, seed, sizes, threads, backend);

        let shared = JigsawPipeline::plan(b.circuit(), &device, &cfg)
            .compile_global()
            .run_global();
        let bytes = persist::to_bytes(&shared);

        // `from_bytes` stands in for the fresh process: nothing but the
        // archive crosses the boundary.
        let resumed: GlobalRun = persist::from_bytes(&bytes).unwrap();
        prop_assert!(resumed == shared, "decoded stage differs from the saved one");
        prop_assert_eq!(
            persist::to_bytes(&resumed),
            bytes.clone(),
            "re-encoding the decoded stage must be byte-identical"
        );

        let from_archive = resumed.select_subsets().run_cpms().reconstruct();
        let in_process = shared.select_subsets().run_cpms().reconstruct();
        prop_assert_eq!(&from_archive, &in_process, "resumed replay diverged from the fork");
        prop_assert_eq!(
            &from_archive,
            &run_jigsaw(b.circuit(), &device, &cfg),
            "resumed replay diverged from the monolithic path"
        );
    }

    /// Telemetry is non-semantic: two runs of the same configuration
    /// produce byte-identical archives even though their wall clocks
    /// differ, at every checkpointable stage.
    #[test]
    fn identical_runs_produce_identical_archives(seed in 0u64..1000) {
        let device = Device::toronto();
        let b = bench::ghz(5);
        let cfg = config(900, seed, vec![2], 1, BackendChoice::Auto);

        let drive = || JigsawPipeline::plan(b.circuit(), &device, &cfg).compile_global().run_global();
        let (a, b2) = (drive(), drive());
        prop_assert_eq!(persist::to_bytes(&a), persist::to_bytes(&b2));

        prop_assert_eq!(
            persist::to_bytes(&a.clone().select_subsets()),
            persist::to_bytes(&b2.select_subsets())
        );
    }
}

/// FNV-1a64 of the [`sample_archives`] bytes, one per stage kind.
const GLOBAL_RUN_DIGEST: u64 = 0xca69_be5f_4c6f_ee50;
const SUBSETS_SELECTED_DIGEST: u64 = 0x60a5_a110_f2e2_8291;

/// Builds one small archive per stage kind.
fn sample_archives() -> Vec<(&'static str, Vec<u8>)> {
    let device = Device::toronto();
    let b = bench::ghz(5);
    let cfg = config(700, 42, vec![2], 1, BackendChoice::Auto);
    let run = JigsawPipeline::plan(b.circuit(), &device, &cfg).compile_global().run_global();
    let selected = run.clone().select_subsets();
    vec![
        ("global-run", persist::to_bytes(&run)),
        ("subsets-selected", persist::to_bytes(&selected)),
    ]
}

fn decode_any(name: &str, bytes: &[u8]) -> Result<(), PersistError> {
    match name {
        "global-run" => persist::from_bytes::<GlobalRun>(bytes).map(|_| ()),
        "subsets-selected" => persist::from_bytes::<SubsetsSelected>(bytes).map(|_| ()),
        other => unreachable!("unknown stage fixture {other}"),
    }
}

/// A fixed-seed archive of each stage kind keeps its bytes: any change to a
/// stage encoding, the header or the digest moves a pin.
#[test]
fn archive_bytes_are_pinned() {
    for ((name, bytes), want) in
        sample_archives().into_iter().zip([GLOBAL_RUN_DIGEST, SUBSETS_SELECTED_DIGEST])
    {
        let got = fnv1a64(&bytes);
        assert_eq!(got, want, "{name}: digest {got:#018x}");
    }
}

/// Corrupt/truncated-archive fuzz: every prefix truncation and every
/// single-byte flip of every stage archive must yield a typed error —
/// no panic, and (because the frame checksums bind header to payload) no
/// silent acceptance either.
#[test]
fn corruption_always_surfaces_as_a_typed_error() {
    for (name, bytes) in sample_archives() {
        decode_any(name, &bytes).unwrap_or_else(|e| panic!("pristine {name} failed: {e}"));

        // Truncation at every length up to the header + a stride through
        // the payload (full quadratic scans would be slow for no coverage
        // gain — every truncated read path is already hit).
        let stride = (bytes.len() / 97).max(1);
        let cuts = (0..persist::HEADER_LEN.min(bytes.len()))
            .chain((persist::HEADER_LEN..bytes.len()).step_by(stride))
            .chain(bytes.len().saturating_sub(9)..bytes.len());
        for len in cuts {
            let err = decode_any(name, &bytes[..len])
                .expect_err(&format!("{name} truncated to {len} bytes decoded"));
            drop(err); // any typed error is acceptable; panics are not
        }

        // Single-byte flips: a stride through the archive plus every
        // header byte. FNV-1a's per-byte bijection means none may pass.
        for i in (0..bytes.len()).step_by(stride).chain(0..persist::HEADER_LEN.min(bytes.len())) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(
                decode_any(name, &mutated).is_err(),
                "{name} with byte {i} flipped decoded successfully"
            );
        }
    }
}

/// Recomputes the trailing checksum, as a forger editing the header would,
/// so the forged bytes pass the envelope's checksum.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 8;
    let checksum = fnv1a64(&bytes[8..end]);
    bytes[end..].copy_from_slice(&checksum.to_le_bytes());
}

/// The four header failure modes are distinguishable, in check order.
#[test]
fn header_failures_are_precise() {
    let (_, bytes) = sample_archives().remove(0);

    let mut bad = bytes.clone();
    bad[3] ^= 0xFF;
    assert!(matches!(
        persist::from_bytes::<GlobalRun>(&bad),
        Err(PersistError::Envelope(EnvelopeError::BadMagic { .. }))
    ));

    let mut bad = bytes.clone();
    bad[9] = 0x7E;
    assert!(matches!(
        persist::from_bytes::<GlobalRun>(&bad),
        Err(PersistError::Envelope(EnvelopeError::UnsupportedVersion { .. }))
    ));

    let mut bad = bytes.clone();
    bad[10] = 0;
    assert!(matches!(
        persist::from_bytes::<GlobalRun>(&bad),
        Err(PersistError::Envelope(EnvelopeError::UnknownTag { tag: 0 }))
    ));

    // Tags 1 and 2 (the retired planned and global-compiled archives) are
    // unknown even under a valid checksum.
    for tag in [1, 2] {
        let mut bad = bytes.clone();
        bad[10] = tag;
        reseal(&mut bad);
        assert!(matches!(
            persist::from_bytes::<GlobalRun>(&bad),
            Err(PersistError::Envelope(EnvelopeError::UnknownTag { tag: t })) if t == tag
        ));
    }

    assert!(matches!(
        persist::from_bytes::<SubsetsSelected>(&bytes),
        Err(PersistError::WrongStage { .. })
    ));

    // Flipping one payload byte trips the checksum before any decoding.
    let mut bad = bytes.clone();
    let mid = persist::HEADER_LEN + (bytes.len() - persist::HEADER_LEN - 8) / 2;
    bad[mid] ^= 0x10;
    assert!(matches!(
        persist::from_bytes::<GlobalRun>(&bad),
        Err(PersistError::Envelope(EnvelopeError::ChecksumMismatch { .. }))
    ));
}

/// Cross-process sweep resume in miniature: save under one config, then
/// demand a resume under others — only the matching one is accepted.
#[test]
fn resume_from_is_config_gated() {
    let device = Device::toronto();
    let b = bench::ghz(5);
    let cfg = config(700, 9, vec![2], 1, BackendChoice::Auto);
    let run = JigsawPipeline::plan(b.circuit(), &device, &cfg).compile_global().run_global();

    let dir = std::env::temp_dir().join("jigsaw-persist-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ghz5.jigsaw");
    persist::save_stage(&run, &path).unwrap();

    let resumed: GlobalRun = persist::resume_from(&path, b.circuit(), &device, &cfg).unwrap();
    assert!(resumed == run);

    // A different seed, budget, or even device must be refused.
    for other in [cfg.clone().with_seed(10), JigsawConfig { total_trials: 800, ..cfg.clone() }] {
        assert!(matches!(
            persist::resume_from::<GlobalRun>(&path, b.circuit(), &device, &other),
            Err(PersistError::ConfigMismatch { .. })
        ));
    }
    let paris = Device::paris();
    assert!(matches!(
        persist::resume_from::<GlobalRun>(&path, b.circuit(), &paris, &cfg),
        Err(PersistError::ConfigMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}
