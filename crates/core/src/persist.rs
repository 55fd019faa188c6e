//! Versioned on-disk archives for pipeline stages — the persistence layer
//! that lets sweeps resume across *processes and machines*, not just forks
//! within one process.
//!
//! A checkpoint wraps one encoded stage in the workspace's shared
//! [`envelope`] (the header, checksum span, payload cap and check order the
//! job frames use) under the archive's own magic and version. Two stages
//! are archived: [`GlobalRun`], the expensive shared prefix a sweep
//! checkpoints and resumes, and [`SubsetsSelected`], the payload of a
//! distributed shard. Planning takes microseconds and the global compile
//! under a millisecond, so neither earlier stage is worth a checkpoint.
//!
//! ```text
//! offset  size  field
//!      0     8  magic  89 4A 53 57 0D 0A 1A 0A  ("\x89JSW\r\n\x1a\n")
//!      8     2  format version (u16 LE)
//!     10     1  stage kind (3 global-run, 4 subsets-selected)
//!     11     8  config digest: FNV-1a64 over encode(program) ‖
//!               encode(device) ‖ encode(config)
//!     19     8  payload length N (u64 LE, at most 2^28)
//!     27     N  payload: the stage's `Encode` bytes
//!   27+N     8  checksum: FNV-1a64 over bytes [8, 27+N)
//! ```
//!
//! `docs/FORMAT.md` specifies every section byte by byte. Three properties
//! the framing guarantees:
//!
//! * **Refusal over divergence.** [`resume_from`] recomputes the config
//!   digest from the caller's `(program, device, config)` and refuses an
//!   archive whose digest differs ([`PersistError::ConfigMismatch`]) —
//!   resuming under a silently different configuration is the failure mode
//!   the digest exists to make loud.
//! * **Corruption is typed, never a panic.** Flipped magic bytes, unknown
//!   versions or stages, short reads, bit-flips and trailing garbage all
//!   surface as distinct [`EnvelopeError`] variants inside
//!   [`PersistError::Envelope`]. Every single-byte change is caught: the
//!   magic is compared, and the checksum covers every byte after it.
//! * **Determinism.** Stage encodings are canonical and exclude wall-clock
//!   telemetry, so two runs of the same seed produce *byte-identical*
//!   archives, and `decode(encode(x))` re-encodes to the original bytes.
//!
//! # Examples
//!
//! Checkpoint the expensive global prefix, "crash", and resume it in a
//! fresh process bit-identically:
//!
//! ```
//! use jigsaw_circuit::bench;
//! use jigsaw_core::pipeline::{GlobalRun, JigsawPipeline};
//! use jigsaw_core::{persist, JigsawConfig};
//! use jigsaw_device::Device;
//! # use jigsaw_compiler::CompilerOptions;
//!
//! let device = Device::toronto();
//! let bench = bench::ghz(4);
//! let config = JigsawConfig {
//! #     compiler: CompilerOptions { max_seeds: 2, ..CompilerOptions::default() },
//!     ..JigsawConfig::jigsaw(400)
//! };
//!
//! // Pay the global compile + run once, then checkpoint it.
//! let shared = JigsawPipeline::plan(bench.circuit(), &device, &config)
//!     .compile_global()
//!     .run_global();
//! let bytes = persist::to_bytes(&shared);
//!
//! // ... process exits; later (anywhere) the archive resumes ...
//! let resumed: GlobalRun = persist::from_bytes(&bytes)?;
//! assert_eq!(resumed, shared);
//! let a = resumed.select_subsets().run_cpms().reconstruct();
//! let b = shared.select_subsets().run_cpms().reconstruct();
//! assert_eq!(a, b); // bit-identical replay
//! # Ok::<(), jigsaw_core::persist::PersistError>(())
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use jigsaw_circuit::Circuit;
use jigsaw_device::Device;
use jigsaw_pmf::codec::{self, Decode, Encode};
use jigsaw_pmf::envelope::{self, Envelope, EnvelopeError};

use crate::jigsaw::JigsawConfig;
use crate::pipeline::{GlobalRun, SubsetsSelected};

pub use jigsaw_pmf::envelope::HEADER_LEN;

/// Archive magic: `\x89JSW\r\n\x1a\n`. PNG-style — the high first byte
/// catches 7-bit strippers, the `\r\n` and `\x1a` catch newline translation
/// and DOS type-probing.
pub const MAGIC: [u8; 8] = *b"\x89JSW\r\n\x1a\x0a";

/// Current archive format version. Bump on any layout change and document
/// the migration in `docs/FORMAT.md`.
///
/// **Version history.** v1: initial layout. v2: every `StageRecord` in the
/// stage context carries its compile count. v3: the archive moved into the
/// shared envelope, so its checksum covers every byte after the magic (v2
/// covered only the payload) and payloads are capped at 2^28 bytes. Older
/// archives are refused with [`EnvelopeError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 3;

/// The archive's envelope format.
const ARCHIVE: Envelope = Envelope { magic: MAGIC, version: FORMAT_VERSION };

/// Which pipeline stage an archive holds. Tags `1` and `2` (the retired
/// planned and global-compiled archives) are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A [`GlobalRun`] stage (global artifact + prior PMF) — the natural
    /// checkpoint for sweep resume.
    GlobalRun,
    /// A [`SubsetsSelected`] stage (CPM work list with budgets).
    SubsetsSelected,
}

impl StageKind {
    /// The header tag byte of this stage kind.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::GlobalRun => 3,
            Self::SubsetsSelected => 4,
        }
    }

    /// The stage kind of a header tag byte, if known.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            3 => Some(Self::GlobalRun),
            4 => Some(Self::SubsetsSelected),
            _ => None,
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::GlobalRun => "global-run",
            Self::SubsetsSelected => "subsets-selected",
        })
    }
}

/// Everything that can go wrong saving, loading or resuming an archive.
/// Corrupt input of any shape maps to a variant here — never a panic.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure (the path is attached for context).
    Io {
        /// Path being read or written.
        path: PathBuf,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// The bytes are not an intact archive of this format version, or the
    /// payload does not decode and bind to its header digest.
    Envelope(EnvelopeError),
    /// The archive holds a different stage than the caller requested.
    WrongStage {
        /// Stage the caller asked for.
        expected: StageKind,
        /// Stage the archive holds.
        found: StageKind,
    },
    /// The archive was produced under a different `(program, device,
    /// config)` than the caller is resuming with — resuming would silently
    /// diverge, so it is refused. Rebuild the stage or pass the original
    /// configuration.
    ConfigMismatch {
        /// Digest stored in the archive.
        archive: u64,
        /// Digest of the caller's inputs.
        caller: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Self::Envelope(e) => write!(f, "invalid archive: {e}"),
            Self::WrongStage { expected, found } => {
                write!(f, "archive holds a {found} stage, expected {expected}")
            }
            Self::ConfigMismatch { archive, caller } => write!(
                f,
                "archive was produced under config digest {archive:#018x} but the resume \
                 supplies {caller:#018x}; refusing to resume a mismatched configuration"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Envelope(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnvelopeError> for PersistError {
    fn from(e: EnvelopeError) -> Self {
        Self::Envelope(e)
    }
}

pub(crate) mod sealed {
    /// The stage set is closed: archives only ever hold pipeline stages.
    pub trait Sealed {
        /// The config digest of the inputs that produced the stage, which
        /// its archive header carries.
        fn digest(&self) -> u64;
    }
}

/// A pipeline stage that can live in an archive. Sealed: exactly the two
/// checkpointed stages of [`JigsawPipeline`](crate::JigsawPipeline)
/// implement it.
pub trait StageArtifact: Encode + Decode + sealed::Sealed {
    /// The stage tag this artifact is framed with.
    const KIND: StageKind;
}

impl StageArtifact for GlobalRun {
    const KIND: StageKind = StageKind::GlobalRun;
}

impl StageArtifact for SubsetsSelected {
    const KIND: StageKind = StageKind::SubsetsSelected;
}

/// FNV-1a64 digest of a producing configuration: the concatenated
/// encodings of the program, the device and the config. Any semantic
/// change — one gate, one calibration value, one knob — changes it.
#[must_use]
pub fn config_digest(program: &Circuit, device: &Device, config: &JigsawConfig) -> u64 {
    let mut w = jigsaw_pmf::codec::Writer::new();
    program.encode(&mut w);
    device.encode(&mut w);
    config.encode(&mut w);
    codec::fnv1a64(w.as_bytes())
}

/// Frames a stage into a standalone archive byte vector.
#[must_use]
pub fn to_bytes<S: StageArtifact>(stage: &S) -> Vec<u8> {
    ARCHIVE.seal(S::KIND.code(), stage.digest(), &codec::encode_to_vec(stage))
}

/// Decodes a stage from a standalone archive, verifying it end to end: the
/// envelope (length, magic, version, stage tag, payload cap, total length,
/// trailing bytes, checksum), then the requested stage kind, the payload
/// decode, and the binding between the header digest and the decoded
/// payload.
///
/// # Errors
///
/// Returns the precise [`PersistError`] for whichever check fails.
pub fn from_bytes<S: StageArtifact>(bytes: &[u8]) -> Result<S, PersistError> {
    let (header, payload) = ARCHIVE.open(bytes, StageKind::from_code)?;
    if header.tag != S::KIND {
        return Err(PersistError::WrongStage { expected: S::KIND, found: header.tag });
    }
    Ok(envelope::decode_bound(header.digest, payload, S::digest)?)
}

/// Writes a stage archive to `path`, atomically: the bytes land in a
/// sibling temporary file first and are renamed into place, so a crash
/// mid-write never leaves a half-written checkpoint behind.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_stage<S: StageArtifact>(stage: &S, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    envelope::write_atomic(path, &to_bytes(stage))
        .map_err(|source| PersistError::Io { path: path.to_path_buf(), source })
}

/// Reads and fully verifies a stage archive from `path`.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure or any
/// [`from_bytes`] verification error.
pub fn load_stage<S: StageArtifact>(path: impl AsRef<Path>) -> Result<S, PersistError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|source| PersistError::Io { path: path.to_path_buf(), source })?;
    from_bytes(&bytes)
}

/// [`load_stage`] that additionally **refuses a mismatched resume**: the
/// caller supplies the `(program, device, config)` it intends to continue
/// with, and an archive produced under any other configuration is rejected
/// with [`PersistError::ConfigMismatch`].
///
/// The archive is fully verified *first* (checksum, decode, digest-to-body
/// binding), so corruption reports as corruption — the config comparison
/// only runs against an archive proven intact, which is what makes
/// `ConfigMismatch` a trustworthy "wrong configuration" diagnostic rather
/// than a possible disguise for a flipped header byte.
///
/// This is the cross-process analogue of forking a stage in memory: on
/// success, replaying the downstream stages is bit-identical to having
/// never left the process.
///
/// # Errors
///
/// Returns [`PersistError::ConfigMismatch`] on a digest mismatch, or any
/// [`load_stage`] error.
pub fn resume_from<S: StageArtifact>(
    path: impl AsRef<Path>,
    program: &Circuit,
    device: &Device,
    config: &JigsawConfig,
) -> Result<S, PersistError> {
    let stage: S = load_stage(path)?;
    let caller = config_digest(program, device, config);
    let archive = stage.digest();
    if archive != caller {
        return Err(PersistError::ConfigMismatch { archive, caller });
    }
    Ok(stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JigsawPipeline;
    use jigsaw_circuit::bench;
    use jigsaw_compiler::CompilerOptions;

    fn quick_config(trials: u64) -> JigsawConfig {
        JigsawConfig {
            compiler: CompilerOptions { max_seeds: 2, ..CompilerOptions::default() },
            ..JigsawConfig::jigsaw(trials)
        }
    }

    fn small_global_run() -> (Device, jigsaw_circuit::bench::Benchmark, JigsawConfig, GlobalRun) {
        let device = Device::toronto();
        let b = bench::ghz(5);
        let config = quick_config(600).with_seed(11);
        let run = JigsawPipeline::plan(b.circuit(), &device, &config).compile_global().run_global();
        (device, b, config, run)
    }

    /// Recomputes the trailing checksum, as a forger editing the header
    /// would, so the forged bytes pass the envelope's checks.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let checksum = codec::fnv1a64(&bytes[8..end]);
        bytes[end..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn every_stage_kind_round_trips() {
        let device = Device::toronto();
        let b = bench::ghz(5);
        let config = quick_config(600).with_seed(3);
        let run = JigsawPipeline::plan(b.circuit(), &device, &config).compile_global().run_global();
        let back: GlobalRun = from_bytes(&to_bytes(&run)).unwrap();
        assert_eq!(back, run);

        let selected = run.select_subsets();
        let back: SubsetsSelected = from_bytes(&to_bytes(&selected)).unwrap();
        assert_eq!(back, selected);
    }

    #[test]
    fn archives_are_canonical_re_encodes() {
        let (_, _, _, run) = small_global_run();
        let bytes = to_bytes(&run);
        let decoded: GlobalRun = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&decoded), bytes, "decode → encode must be byte-identical");
    }

    #[test]
    fn archive_payload_is_the_stage_encoding() {
        let (_, _, _, run) = small_global_run();
        let bytes = to_bytes(&run);
        assert_eq!(bytes[..8], MAGIC);
        assert_eq!(bytes[8..10], FORMAT_VERSION.to_le_bytes());
        assert_eq!(bytes[HEADER_LEN..bytes.len() - 8], codec::encode_to_vec(&run));
    }

    #[test]
    fn wrong_stage_is_refused_by_type() {
        let (_, _, _, run) = small_global_run();
        let bytes = to_bytes(&run);
        let err = from_bytes::<SubsetsSelected>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            PersistError::WrongStage {
                expected: StageKind::SubsetsSelected,
                found: StageKind::GlobalRun
            }
        ));
    }

    #[test]
    fn resume_refuses_a_mismatched_config() {
        let (device, b, config, run) = small_global_run();
        let dir = std::env::temp_dir().join("jigsaw-persist-test-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jigsaw");
        save_stage(&run, &path).unwrap();

        let ok: GlobalRun = resume_from(&path, b.circuit(), &device, &config).unwrap();
        assert_eq!(ok, run);

        let other = config.clone().with_seed(12);
        let err = resume_from::<GlobalRun>(&path, b.circuit(), &device, &other).unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_reports_corruption_as_corruption_not_config_mismatch() {
        // A flipped header-digest byte means the file is damaged, not that
        // the caller brought the wrong config — resume_from must verify
        // the frame before comparing configurations.
        let (device, b, config, run) = small_global_run();
        let dir = std::env::temp_dir().join("jigsaw-persist-test-corrupt-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jigsaw");
        let mut bytes = to_bytes(&run);
        bytes[12] ^= 0x01; // inside the header's config-digest field
        std::fs::write(&path, &bytes).unwrap();
        let err = resume_from::<GlobalRun>(&path, b.circuit(), &device, &config).unwrap_err();
        assert!(
            matches!(err, PersistError::Envelope(EnvelopeError::ChecksumMismatch { .. })),
            "got {err}"
        );
        // A forged digest under a recomputed checksum passes the envelope;
        // the digest-to-body binding still reports it as corruption.
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = resume_from::<GlobalRun>(&path, b.circuit(), &device, &config).unwrap_err();
        assert!(
            matches!(err, PersistError::Envelope(EnvelopeError::DigestMismatch { .. })),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_stage::<GlobalRun>("/nonexistent/jigsaw.ckpt").unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }));
    }

    #[test]
    fn header_checks_are_ordered_and_typed() {
        let (_, _, _, run) = small_global_run();
        let bytes = to_bytes(&run);
        let check = |bytes: &[u8]| match from_bytes::<GlobalRun>(bytes) {
            Err(PersistError::Envelope(e)) => e,
            other => panic!("expected an envelope error, got {other:?}"),
        };

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(check(&bad), EnvelopeError::BadMagic { .. }));

        let mut bad = bytes.clone();
        bad[8] = 0xFF; // version
        assert!(matches!(check(&bad), EnvelopeError::UnsupportedVersion { found: 0xFF, .. }));

        let mut bad = bytes.clone();
        bad[10] = 0x7F; // stage tag
        assert!(matches!(check(&bad), EnvelopeError::UnknownTag { tag: 0x7F }));

        // The checksum spans the header, so a plain digest flip is caught
        // there; a forger who recomputes the checksum meets the binding
        // between the header digest and the decoded body.
        let mut bad = bytes.clone();
        bad[11] ^= 0x01;
        assert!(matches!(check(&bad), EnvelopeError::ChecksumMismatch { .. }));
        reseal(&mut bad);
        assert!(matches!(check(&bad), EnvelopeError::DigestMismatch { .. }));

        let mut bad = bytes.clone();
        bad.push(0); // trailing garbage
        assert!(matches!(check(&bad), EnvelopeError::TrailingBytes { remaining: 1 }));

        // Regression: a length prefix beyond addressable memory used to
        // disguise itself as `Truncated { needed: usize::MAX }`; it is its
        // own typed corruption now.
        let mut bad = bytes.clone();
        bad[19..27].copy_from_slice(&u64::MAX.to_le_bytes()); // payload length
        assert!(matches!(check(&bad), EnvelopeError::Oversized { payload_len: u64::MAX }));
    }
}
