//! Versioned on-disk archives for pipeline stages — the persistence layer
//! that lets sweeps resume across *processes and machines*, not just forks
//! within one process.
//!
//! A checkpoint wraps one encoded stage ([`Planned`], [`GlobalCompiled`],
//! [`GlobalRun`] or [`SubsetsSelected`]) in a small self-describing frame:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  89 4A 53 57 0D 0A 1A 0A  ("\x89JSW\r\n\x1a\n")
//!      8     2  format version (u16 LE)
//!     10     1  stage kind (1 planned … 4 subsets-selected)
//!     11     8  config digest: FNV-1a64 over encode(program) ‖
//!               encode(device) ‖ encode(config)
//!     19     8  payload length N (u64 LE)
//!     27     N  payload: the stage's `Encode` bytes
//!   27+N     8  payload checksum (FNV-1a64)
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
//!   versions or stages, short reads, payload bit-flips and trailing
//!   garbage all surface as distinct [`PersistError`] variants (every
//!   single-byte change is caught: the FNV-1a step is a bijection of the
//!   running state, and the header fields are each independently checked).
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
use jigsaw_pmf::codec::{self, CodecError, Decode, Encode};

use crate::jigsaw::JigsawConfig;
use crate::pipeline::{GlobalCompiled, GlobalRun, JigsawPipeline, Planned, SubsetsSelected};

/// Archive magic: `\x89JSW\r\n\x1a\n`. PNG-style — the high first byte
/// catches 7-bit strippers, the `\r\n` and `\x1a` catch newline translation
/// and DOS type-probing.
pub const MAGIC: [u8; 8] = *b"\x89JSW\r\n\x1a\x0a";

/// Current archive format version. Bump on any layout change and document
/// the migration in `docs/FORMAT.md`.
///
/// **Version history.** v1: initial layout. v2: every `StageRecord` in the
/// stage context carries its compile count; v1 archives are refused with
/// [`PersistError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 2;

/// Fixed byte length of the archive header (everything before the payload).
pub const HEADER_LEN: usize = 8 + 2 + 1 + 8 + 8;

/// Which pipeline stage an archive holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A [`Planned`] stage (budget split, no artifacts yet).
    Planned,
    /// A [`GlobalCompiled`] stage (compiled global artifact).
    GlobalCompiled,
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
            Self::Planned => 1,
            Self::GlobalCompiled => 2,
            Self::GlobalRun => 3,
            Self::SubsetsSelected => 4,
        }
    }

    /// The stage kind of a header tag byte, if known.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::Planned),
            2 => Some(Self::GlobalCompiled),
            3 => Some(Self::GlobalRun),
            4 => Some(Self::SubsetsSelected),
            _ => None,
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Planned => "planned",
            Self::GlobalCompiled => "global-compiled",
            Self::GlobalRun => "global-run",
            Self::SubsetsSelected => "subsets-selected",
        })
    }
}

/// The parsed fixed-size prefix of an archive (see [`read_header`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveHeader {
    /// Format version the archive was written with.
    pub version: u16,
    /// Stage the payload holds.
    pub stage: StageKind,
    /// FNV-1a64 digest of the producing `(program, device, config)`.
    pub config_digest: u64,
    /// Payload byte length.
    pub payload_len: u64,
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
    /// The input is shorter than the structure it claims to hold.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually present.
        len: usize,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The archive was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The stage tag byte has no known [`StageKind`].
    UnknownStage {
        /// The unrecognised tag.
        tag: u8,
    },
    /// The archive holds a different stage than the caller requested.
    WrongStage {
        /// Stage the caller asked for.
        expected: StageKind,
        /// Stage the archive holds.
        found: StageKind,
    },
    /// The header declares a payload longer than this platform can even
    /// address — the length prefix is corrupt (or hostile), and no amount
    /// of further input could satisfy it.
    Oversized {
        /// Payload length the header claims.
        payload_len: u64,
    },
    /// The payload bytes do not match their stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the archive.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
    /// The header's config digest does not match the decoded payload —
    /// the header was edited independently of the body.
    DigestMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest recomputed from the decoded stage.
        computed: u64,
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
    /// The payload failed to decode (truncated, bad tags, invariant
    /// violations).
    Codec(CodecError),
    /// Bytes remain after the checksum — the archive has trailing garbage.
    TrailingBytes {
        /// Number of extra bytes.
        remaining: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Self::Truncated { needed, len } => {
                write!(f, "archive truncated: needs {needed} bytes, has {len}")
            }
            Self::BadMagic { found } => write!(f, "not a JigSaw archive (magic {found:02x?})"),
            Self::UnsupportedVersion { found } => write!(
                f,
                "archive format version {found} is not supported (this build reads \
                 {FORMAT_VERSION})"
            ),
            Self::UnknownStage { tag } => write!(f, "unknown stage tag {tag:#04x}"),
            Self::WrongStage { expected, found } => {
                write!(f, "archive holds a {found} stage, expected {expected}")
            }
            Self::Oversized { payload_len } => {
                write!(f, "header claims a {payload_len}-byte payload, beyond addressable memory")
            }
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Self::DigestMismatch { stored, computed } => write!(
                f,
                "header config digest {stored:#018x} does not match the payload's \
                 {computed:#018x}"
            ),
            Self::ConfigMismatch { archive, caller } => write!(
                f,
                "archive was produced under config digest {archive:#018x} but the resume \
                 supplies {caller:#018x}; refusing to resume a mismatched configuration"
            ),
            Self::Codec(e) => write!(f, "payload decode failed: {e}"),
            Self::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the archive")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

mod sealed {
    /// The stage set is closed: archives only ever hold pipeline stages.
    pub trait Sealed {}
    impl Sealed for crate::pipeline::Planned {}
    impl Sealed for crate::pipeline::GlobalCompiled {}
    impl Sealed for crate::pipeline::GlobalRun {}
    impl Sealed for crate::pipeline::SubsetsSelected {}
}

/// A pipeline stage that can live in an archive. Sealed: exactly the four
/// resumable stages of [`JigsawPipeline`] implement it.
pub trait StageArtifact: Encode + Decode + sealed::Sealed {
    /// The stage tag this artifact is framed with.
    const KIND: StageKind;

    /// The producing inputs the archive digest covers.
    #[doc(hidden)]
    fn producing_inputs(&self) -> (&Circuit, &Device, &JigsawConfig);
}

impl StageArtifact for Planned {
    const KIND: StageKind = StageKind::Planned;

    fn producing_inputs(&self) -> (&Circuit, &Device, &JigsawConfig) {
        self.ctx().digest_inputs()
    }
}

impl StageArtifact for GlobalCompiled {
    const KIND: StageKind = StageKind::GlobalCompiled;

    fn producing_inputs(&self) -> (&Circuit, &Device, &JigsawConfig) {
        self.ctx().digest_inputs()
    }
}

impl StageArtifact for GlobalRun {
    const KIND: StageKind = StageKind::GlobalRun;

    fn producing_inputs(&self) -> (&Circuit, &Device, &JigsawConfig) {
        self.ctx().digest_inputs()
    }
}

impl StageArtifact for SubsetsSelected {
    const KIND: StageKind = StageKind::SubsetsSelected;

    fn producing_inputs(&self) -> (&Circuit, &Device, &JigsawConfig) {
        self.ctx().digest_inputs()
    }
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
    let payload = codec::encode_to_vec(stage);
    let (program, device, config) = stage.producing_inputs();
    let mut w = jigsaw_pmf::codec::Writer::new();
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(S::KIND.code());
    w.put_u64(config_digest(program, device, config));
    w.put_u64(payload.len() as u64);
    w.put_bytes(&payload);
    w.put_u64(codec::fnv1a64(&payload));
    w.into_bytes()
}

/// Parses and validates the fixed-size archive header.
///
/// # Errors
///
/// Returns [`PersistError::Truncated`], [`PersistError::BadMagic`],
/// [`PersistError::UnsupportedVersion`] or [`PersistError::UnknownStage`].
pub fn read_header(bytes: &[u8]) -> Result<ArchiveHeader, PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated { needed: HEADER_LEN, len: bytes.len() });
    }
    let magic: [u8; 8] = field(bytes, 0)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(field(bytes, 8)?);
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let tag = bytes
        .get(10)
        .copied()
        .ok_or(PersistError::Truncated { needed: HEADER_LEN, len: bytes.len() })?;
    let stage = StageKind::from_code(tag).ok_or(PersistError::UnknownStage { tag })?;
    let config_digest = u64::from_le_bytes(field(bytes, 11)?);
    let payload_len = u64::from_le_bytes(field(bytes, 19)?);
    Ok(ArchiveHeader { version, stage, config_digest, payload_len })
}

/// Reads the `N`-byte field at offset `at`, reporting truncation as a
/// typed error (unreachable once the caller has length-checked, but this
/// decode path never panics on principle).
fn field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], PersistError> {
    bytes
        .get(at..at.saturating_add(N))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(PersistError::Truncated { needed: at.saturating_add(N), len: bytes.len() })
}

/// Decodes a stage from a standalone archive, verifying the frame end to
/// end: magic, version, stage kind, payload checksum, and the binding
/// between the header digest and the decoded payload.
///
/// # Errors
///
/// Returns the precise [`PersistError`] for whichever check fails.
pub fn from_bytes<S: StageArtifact>(bytes: &[u8]) -> Result<S, PersistError> {
    let header = read_header(bytes)?;
    if header.stage != S::KIND {
        return Err(PersistError::WrongStage { expected: S::KIND, found: header.stage });
    }
    let payload_len = usize::try_from(header.payload_len)
        .map_err(|_| PersistError::Oversized { payload_len: header.payload_len })?;
    let total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or(PersistError::Oversized { payload_len: header.payload_len })?;
    if bytes.len() < total {
        return Err(PersistError::Truncated { needed: total, len: bytes.len() });
    }
    if bytes.len() > total {
        return Err(PersistError::TrailingBytes { remaining: bytes.len() - total });
    }
    let payload = bytes
        .get(HEADER_LEN..HEADER_LEN + payload_len)
        .ok_or(PersistError::Truncated { needed: total, len: bytes.len() })?;
    let stored = u64::from_le_bytes(field(bytes, total - 8)?);
    let computed = codec::fnv1a64(payload);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    let stage: S = codec::decode_from_slice(payload)?;
    let (program, device, config) = stage.producing_inputs();
    let body_digest = config_digest(program, device, config);
    if body_digest != header.config_digest {
        return Err(PersistError::DigestMismatch {
            stored: header.config_digest,
            computed: body_digest,
        });
    }
    Ok(stage)
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
    let io_err = |source| PersistError::Io { path: path.to_path_buf(), source };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, to_bytes(stage))
        .map_err(|source| PersistError::Io { path: tmp.clone(), source })?;
    std::fs::rename(&tmp, path).map_err(io_err)
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
/// The frame is fully verified *first* (checksum, digest-to-body binding,
/// decode), so corruption reports as corruption — the config comparison
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
    let (p, d, c) = stage.producing_inputs();
    let archive = config_digest(p, d, c);
    if archive != caller {
        return Err(PersistError::ConfigMismatch { archive, caller });
    }
    Ok(stage)
}

/// The facade of the persistence layer on the pipeline entry point.
impl JigsawPipeline {
    /// Saves a stage checkpoint to `path` (see [`save_stage`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure.
    pub fn save_stage<S: StageArtifact>(
        stage: &S,
        path: impl AsRef<Path>,
    ) -> Result<(), PersistError> {
        save_stage(stage, path)
    }

    /// Resumes a stage checkpoint from `path`, refusing archives produced
    /// under a different `(program, device, config)` (see [`resume_from`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::ConfigMismatch`] on a mismatched resume, or
    /// any verification/IO error of [`load_stage`].
    pub fn resume_from<S: StageArtifact>(
        path: impl AsRef<Path>,
        program: &Circuit,
        device: &Device,
        config: &JigsawConfig,
    ) -> Result<S, PersistError> {
        resume_from(path, program, device, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn every_stage_kind_round_trips() {
        let device = Device::toronto();
        let b = bench::ghz(5);
        let config = quick_config(600).with_seed(3);
        let planned = JigsawPipeline::plan(b.circuit(), &device, &config);
        let back: Planned = from_bytes(&to_bytes(&planned)).unwrap();
        assert_eq!(back, planned);

        let compiled = planned.compile_global();
        let back: GlobalCompiled = from_bytes(&to_bytes(&compiled)).unwrap();
        assert_eq!(back, compiled);

        let run = compiled.run_global();
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
    fn wrong_stage_is_refused_by_type() {
        let (_, _, _, run) = small_global_run();
        let bytes = to_bytes(&run);
        let err = from_bytes::<Planned>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            PersistError::WrongStage { expected: StageKind::Planned, found: StageKind::GlobalRun }
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
        std::fs::write(&path, bytes).unwrap();
        let err = resume_from::<GlobalRun>(&path, b.circuit(), &device, &config).unwrap_err();
        assert!(matches!(err, PersistError::DigestMismatch { .. }), "got {err}");
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

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(from_bytes::<GlobalRun>(&bad), Err(PersistError::BadMagic { .. })));

        let mut bad = bytes.clone();
        bad[8] = 0xFF; // version
        assert!(matches!(
            from_bytes::<GlobalRun>(&bad),
            Err(PersistError::UnsupportedVersion { found: 0xFF })
        ));

        let mut bad = bytes.clone();
        bad[10] = 0x7F; // stage tag
        assert!(matches!(
            from_bytes::<GlobalRun>(&bad),
            Err(PersistError::UnknownStage { tag: 0x7F })
        ));

        let mut bad = bytes.clone();
        bad[11] ^= 0x01; // header digest no longer matches the body
        assert!(matches!(from_bytes::<GlobalRun>(&bad), Err(PersistError::DigestMismatch { .. })));

        let mut bad = bytes.clone();
        bad.push(0); // trailing garbage
        assert!(matches!(
            from_bytes::<GlobalRun>(&bad),
            Err(PersistError::TrailingBytes { remaining: 1 })
        ));

        // Regression: a length prefix beyond addressable memory used to
        // disguise itself as `Truncated { needed: usize::MAX }`; it is its
        // own typed corruption now.
        let mut bad = bytes.clone();
        bad[19..27].copy_from_slice(&u64::MAX.to_le_bytes()); // payload length
        assert!(matches!(
            from_bytes::<GlobalRun>(&bad),
            Err(PersistError::Oversized { payload_len: u64::MAX })
        ));
    }
}
