//! The job-frame wire protocol (`docs/FORMAT.md` §6).
//!
//! A connection is a sequence of *frames*, each a self-delimiting byte
//! string with the same shape as the persist archive frame: an 8-byte
//! magic, a fixed header, a length-prefixed payload and a trailing FNV-1a64
//! checksum. The payload of a job frame is encoded with the exact same
//! [`jigsaw_pmf::codec`] wire types the archives use — a program, device or
//! config crosses the network as the same bytes it would occupy on disk.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  89 4A 53 4A 0D 0A 1A 0A   ("\x89JSJ\r\n\x1a\n")
//! 8       2     protocol version (u16 LE, currently 4)
//! 10      1     frame kind tag (see FrameKind)
//! 11      8     config digest (u64 LE; 0 where not applicable)
//! 19      8     payload length N (u64 LE)
//! 27      N     payload (codec-encoded, kind-specific)
//! 27+N    8     FNV-1a64 checksum over bytes [8, 27+N)
//! ```
//!
//! The checksum covers *everything after the magic* — version, kind,
//! digest, length and payload. FNV-1a64's per-byte bijection therefore
//! guarantees any single-bit flip anywhere past the magic is caught, a
//! strictly stronger span than the archive checksum (which covers header
//! and payload separately; see `tests/server_protocol_fuzz.rs` for the
//! battery that exercises every region). Corrupt input of any shape maps
//! to a typed [`ProtocolError`], never a panic or a wrong-but-valid frame.
//!
//! The digest field binds a [`SubmitJob`](FrameKind::SubmitJob) frame to
//! its payload: the server re-derives [`config_digest`] from the decoded
//! request and refuses the frame when the two disagree
//! ([`ProtocolError::DigestMismatch`]), so a cache key can never be spoofed
//! onto a different job.

use std::fmt;
use std::io::{self, Read, Write};

use jigsaw_circuit::Circuit;
use jigsaw_core::dist::ShardRequest;
use jigsaw_core::persist::config_digest;
use jigsaw_core::sched::Priority;
use jigsaw_core::{JigsawConfig, StageKind};
use jigsaw_device::Device;
use jigsaw_pmf::codec::{
    decode_from_slice, encode_to_vec, fnv1a64, CodecError, Decode, Encode, Reader, Writer,
};

/// First eight bytes of every frame. Differs from the archive magic in one
/// byte (`J` for *jobs* where archives carry `W` for *writes*), so a frame
/// fed to the archive loader — or vice versa — fails immediately on magic,
/// not deep in a payload decode.
pub const MAGIC: [u8; 8] = *b"\x89JSJ\r\n\x1a\x0a";

/// Version this build speaks. Bump on any layout change.
///
/// **Version history.** v1: initial job frames. v2: the SubmitJob payload
/// grew a trailing scheduling-priority byte (see [`JobRequest::priority`]),
/// so a v1 `SubmitJob` payload no longer decodes — the version field exists
/// precisely to refuse it with a typed [`ProtocolError::UnsupportedVersion`]
/// instead of a payload decode error deep inside the codec. v3: the
/// distributed-sweep shard frames [`SubmitShard`](FrameKind::SubmitShard)
/// (tag 8), [`ShardResult`](FrameKind::ShardResult) (tag 9) and
/// [`ShardError`](FrameKind::ShardError) (tag 10) joined the kind space
/// (`docs/FORMAT.md` §7); a v2 peer is refused the same typed way. v4:
/// every encoded `StageRecord` — inside `JobResult` payloads and the
/// stage a `SubmitShard` ships — carries its compile count (archive format
/// version 2); a v3 peer is refused the same typed way.
pub const PROTOCOL_VERSION: u16 = 4;

/// Fixed-size frame prefix: magic + version + kind + digest + length.
pub const HEADER_LEN: usize = 8 + 2 + 1 + 8 + 8;

/// Upper bound a peer may claim for one payload (256 MiB). A length
/// prefix beyond this is rejected before any allocation happens.
pub const MAX_PAYLOAD_LEN: u64 = 1 << 28;

/// What a frame carries. Tag values are part of the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: a [`JobRequest`] payload; digest field must equal
    /// the payload's [`config_digest`].
    SubmitJob,
    /// Server → client: an encoded `JigsawResult` payload for the digest.
    JobResult,
    /// Server → client: a [`JobRejection`] payload explaining a refusal.
    JobError,
    /// Client → server: empty payload; asks for a metrics exposition.
    MetricsRequest,
    /// Server → client: UTF-8 metrics text payload.
    MetricsText,
    /// Client → server: empty payload; asks the server to stop accepting.
    Shutdown,
    /// Server → client: empty payload; shutdown acknowledged.
    ShutdownAck,
    /// Driver → worker: a [`ShardRequest`] payload; digest field must
    /// equal the payload's [`config_digest`].
    SubmitShard,
    /// Worker → driver: an encoded `ShardPartial` payload for the digest.
    ShardResult,
    /// Worker → driver: a [`JobRejection`] payload explaining a shard
    /// refusal or failure.
    ShardError,
}

impl FrameKind {
    /// The wire tag.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::SubmitJob => 1,
            Self::JobResult => 2,
            Self::JobError => 3,
            Self::MetricsRequest => 4,
            Self::MetricsText => 5,
            Self::Shutdown => 6,
            Self::ShutdownAck => 7,
            Self::SubmitShard => 8,
            Self::ShardResult => 9,
            Self::ShardError => 10,
        }
    }

    /// Parses a wire tag.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::SubmitJob),
            2 => Some(Self::JobResult),
            3 => Some(Self::JobError),
            4 => Some(Self::MetricsRequest),
            5 => Some(Self::MetricsText),
            6 => Some(Self::Shutdown),
            7 => Some(Self::ShutdownAck),
            8 => Some(Self::SubmitShard),
            9 => Some(Self::ShardResult),
            10 => Some(Self::ShardError),
            _ => None,
        }
    }
}

/// Everything that can go wrong framing or unframing. Every variant is a
/// *typed* error: hostile bytes must land here, never panic the server.
#[derive(Debug)]
pub enum ProtocolError {
    /// Transport failure.
    Io(io::Error),
    /// The input ended inside a frame.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        len: usize,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The peer speaks an unknown protocol version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The kind tag has no [`FrameKind`].
    UnknownKind {
        /// The unrecognised tag.
        tag: u8,
    },
    /// The header claims a payload beyond [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The claimed length.
        payload_len: u64,
    },
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch {
        /// Checksum recomputed from the bytes.
        expected: u64,
        /// Checksum found on the wire.
        found: u64,
    },
    /// Input remained after the frame ended (buffer parsing only).
    TrailingBytes {
        /// Bytes left unread.
        remaining: usize,
    },
    /// The payload failed to decode as the kind's type.
    Codec(CodecError),
    /// A submit frame's digest field disagrees with the digest re-derived
    /// from its decoded payload.
    DigestMismatch {
        /// Digest the frame header claims.
        claimed: u64,
        /// Digest computed from the payload.
        computed: u64,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport failure: {e}"),
            Self::Truncated { needed, len } => {
                write!(f, "frame truncated: needs {needed} bytes, {len} present")
            }
            Self::BadMagic { found } => write!(f, "not a job frame (magic {found:02x?})"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            Self::UnknownKind { tag } => write!(f, "unknown frame kind tag {tag:#04x}"),
            Self::Oversized { payload_len } => {
                write!(f, "header claims a {payload_len}-byte payload, over the {MAX_PAYLOAD_LEN}-byte cap")
            }
            Self::ChecksumMismatch { expected, found } => {
                write!(f, "frame checksum mismatch: computed {expected:#018x}, found {found:#018x}")
            }
            Self::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the frame")
            }
            Self::Codec(e) => write!(f, "payload decode failed: {e}"),
            Self::DigestMismatch { claimed, computed } => {
                write!(f, "digest binding violated: frame claims {claimed:#018x}, payload digests to {computed:#018x}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// One wire frame: a kind, the digest it concerns, and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload holds.
    pub kind: FrameKind,
    /// Config digest the frame concerns (0 where not applicable).
    pub digest: u64,
    /// Kind-specific codec-encoded payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free frame (metrics request, shutdown, acks).
    #[must_use]
    pub fn empty(kind: FrameKind) -> Self {
        Self { kind, digest: 0, payload: Vec::new() }
    }

    /// Frames a [`JobRequest`], binding the digest field to the payload.
    #[must_use]
    pub fn submit(request: &JobRequest) -> Self {
        Self {
            kind: FrameKind::SubmitJob,
            digest: request.digest(),
            payload: encode_to_vec(request),
        }
    }

    /// Frames a [`ShardRequest`], binding the digest field to the payload
    /// exactly like [`Self::submit`] does for jobs.
    #[must_use]
    pub fn submit_shard(request: &ShardRequest) -> Self {
        Self {
            kind: FrameKind::SubmitShard,
            digest: request.digest(),
            payload: encode_to_vec(request),
        }
    }

    /// Serialises the frame: header, payload, trailing checksum over
    /// everything after the magic.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.push(self.kind.code());
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let checksum = fnv1a64(out.get(8..).unwrap_or_default());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses one frame from a buffer, requiring exact consumption.
    ///
    /// # Errors
    ///
    /// Every malformation maps to its [`ProtocolError`] variant; the
    /// checks run in frame order (length, magic, version, kind, payload
    /// cap, checksum).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProtocolError> {
        if bytes.len() < HEADER_LEN {
            return Err(ProtocolError::Truncated { needed: HEADER_LEN, len: bytes.len() });
        }
        let header = parse_header(bytes)?;
        let Some(total) = header.frame_len() else {
            return Err(ProtocolError::Oversized { payload_len: header.payload_len });
        };
        if bytes.len() < total {
            return Err(ProtocolError::Truncated { needed: total, len: bytes.len() });
        }
        if bytes.len() > total {
            return Err(ProtocolError::TrailingBytes { remaining: bytes.len() - total });
        }
        let payload_end = total - 8;
        let found = u64::from_le_bytes(field(bytes, payload_end)?);
        let hashed = bytes
            .get(8..payload_end)
            .ok_or(ProtocolError::Truncated { needed: total, len: bytes.len() })?;
        let expected = fnv1a64(hashed);
        if found != expected {
            return Err(ProtocolError::ChecksumMismatch { expected, found });
        }
        let payload = bytes
            .get(HEADER_LEN..payload_end)
            .ok_or(ProtocolError::Truncated { needed: total, len: bytes.len() })?;
        Ok(Self { kind: header.kind, digest: header.digest, payload: payload.to_vec() })
    }

    /// Writes the frame to a stream.
    ///
    /// # Errors
    ///
    /// Propagates transport failures as [`ProtocolError::Io`].
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtocolError> {
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF
    /// *between* frames (the peer closed the connection); EOF inside a
    /// frame is [`ProtocolError::Truncated`].
    ///
    /// # Errors
    ///
    /// Any malformation or transport failure maps to a [`ProtocolError`].
    pub fn read_from(r: &mut impl Read) -> Result<Option<Self>, ProtocolError> {
        Self::read_interruptible(r, &|| false)
    }

    /// [`Self::read_from`] that additionally polls `stop` whenever the
    /// stream reports `WouldBlock`/`TimedOut` (a read timeout set by the
    /// caller). When `stop` returns true *between* frames the read gives
    /// up with `Ok(None)`; mid-frame it keeps reading so a frame already
    /// in flight is never torn.
    ///
    /// # Errors
    ///
    /// Any malformation or transport failure maps to a [`ProtocolError`].
    pub fn read_interruptible(
        r: &mut impl Read,
        stop: &dyn Fn() -> bool,
    ) -> Result<Option<Self>, ProtocolError> {
        let mut header_bytes = [0u8; HEADER_LEN];
        if read_full(r, &mut header_bytes, true, stop)?.is_none() {
            return Ok(None);
        }
        let header = parse_header(&header_bytes)?;
        let Some(total) = header.frame_len() else {
            return Err(ProtocolError::Oversized { payload_len: header.payload_len });
        };
        let mut rest = vec![0u8; total - HEADER_LEN];
        if read_full(r, &mut rest, false, stop)?.is_none() {
            // `read_full` yields `None` only when EOF at offset 0 is
            // allowed, which it is not here; report it as a torn frame
            // rather than asserting.
            return Err(ProtocolError::Truncated { needed: total, len: HEADER_LEN });
        }
        let payload_len = rest.len().saturating_sub(8);
        let found = u64::from_le_bytes(field(&rest, payload_len)?);
        let body = rest
            .get(..payload_len)
            .ok_or(ProtocolError::Truncated { needed: total, len: HEADER_LEN })?;
        let mut hashed = Vec::with_capacity(HEADER_LEN - 8 + payload_len);
        hashed.extend_from_slice(header_bytes.get(8..).unwrap_or_default());
        hashed.extend_from_slice(body);
        let expected = fnv1a64(&hashed);
        if found != expected {
            return Err(ProtocolError::ChecksumMismatch { expected, found });
        }
        rest.truncate(payload_len);
        Ok(Some(Self { kind: header.kind, digest: header.digest, payload: rest }))
    }
}

/// Parsed fixed-size prefix of a frame.
struct FrameHeader {
    kind: FrameKind,
    digest: u64,
    payload_len: u64,
}

impl FrameHeader {
    /// Total frame length (header + payload + checksum), or `None` when
    /// the claimed payload is over the cap or unaddressable.
    fn frame_len(&self) -> Option<usize> {
        if self.payload_len > MAX_PAYLOAD_LEN {
            return None;
        }
        let payload = usize::try_from(self.payload_len).ok()?;
        HEADER_LEN.checked_add(payload)?.checked_add(8)
    }
}

/// Validates magic, version and kind of a header block (the caller
/// guarantees at least `HEADER_LEN` bytes; shorter input reports
/// truncation, never panics).
fn parse_header(bytes: &[u8]) -> Result<FrameHeader, ProtocolError> {
    let magic: [u8; 8] = field(bytes, 0)?;
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(field(bytes, 8)?);
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion { found: version });
    }
    let tag = bytes
        .get(10)
        .copied()
        .ok_or(ProtocolError::Truncated { needed: HEADER_LEN, len: bytes.len() })?;
    let kind = FrameKind::from_code(tag).ok_or(ProtocolError::UnknownKind { tag })?;
    let digest = u64::from_le_bytes(field(bytes, 11)?);
    let payload_len = u64::from_le_bytes(field(bytes, 19)?);
    Ok(FrameHeader { kind, digest, payload_len })
}

/// Reads the `N`-byte field at offset `at`, reporting truncation as a
/// typed error — this parse path never indexes raw wire bytes.
fn field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], ProtocolError> {
    bytes
        .get(at..at.saturating_add(N))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(ProtocolError::Truncated { needed: at.saturating_add(N), len: bytes.len() })
}

/// Fills `buf` from `r`, retrying on `WouldBlock`/`TimedOut`/`Interrupted`.
/// `Ok(None)` only when `allow_empty_eof` and the source is exhausted (or
/// `stop` fires) before the first byte; EOF mid-buffer is `Truncated`.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    allow_empty_eof: bool,
    stop: &dyn Fn() -> bool,
) -> Result<Option<()>, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(dst) = buf.get_mut(filled..) else { break };
        match r.read(dst) {
            Ok(0) => {
                return if filled == 0 && allow_empty_eof {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated { needed: buf.len(), len: filled })
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if filled == 0 && allow_empty_eof && stop() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(Some(()))
}

/// One reconstruction job: the producing triple [`config_digest`] covers,
/// plus the stage the server should checkpoint for eviction spill.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The measurement-free program to reconstruct.
    pub program: Circuit,
    /// The device to run on.
    pub device: Device,
    /// The full pipeline configuration.
    pub config: JigsawConfig,
    /// Stage the cache archives when this job's entry is evicted. The
    /// useful hints are [`StageKind::GlobalRun`] (the default — rehydration
    /// replays only subset work, zero compiles) and
    /// [`StageKind::SubsetsSelected`]; hinting `Planned` makes rehydration
    /// recompile from scratch.
    pub hint: StageKind,
    /// Scheduling lane for this job (protocol v2). Excluded from
    /// [`Self::digest`] — results are priority-invariant, so identical
    /// submissions at different priorities still coalesce on one compute;
    /// the lane of the submission that *starts* the compute wins.
    pub priority: Priority,
}

impl JobRequest {
    /// A request with the default [`StageKind::GlobalRun`] spill hint and
    /// [`Priority::Interactive`] lane.
    #[must_use]
    pub fn new(program: Circuit, device: Device, config: JigsawConfig) -> Self {
        Self {
            program,
            device,
            config,
            hint: StageKind::GlobalRun,
            priority: Priority::Interactive,
        }
    }

    /// The same request in a different scheduling lane.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The content address of this job — the same FNV config digest the
    /// persist archives are keyed by.
    #[must_use]
    pub fn digest(&self) -> u64 {
        config_digest(&self.program, &self.device, &self.config)
    }
}

impl Encode for JobRequest {
    fn encode(&self, w: &mut Writer) {
        self.program.encode(w);
        self.device.encode(w);
        self.config.encode(w);
        w.put_u8(self.hint.code());
        w.put_u8(self.priority.code());
    }
}

impl Decode for JobRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let program = Circuit::decode(r)?;
        let device = Device::decode(r)?;
        let config = JigsawConfig::decode(r)?;
        let tag = r.u8()?;
        let hint =
            StageKind::from_code(tag).ok_or(CodecError::InvalidTag { what: "StageKind", tag })?;
        let tag = r.u8()?;
        let priority =
            Priority::from_code(tag).ok_or(CodecError::InvalidTag { what: "Priority", tag })?;
        Ok(Self { program, device, config, hint, priority })
    }
}

/// Why the server refused a job. Carried by [`FrameKind::JobError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or payload failed to parse.
    Malformed,
    /// The frame's digest field disagrees with the payload.
    DigestMismatch,
    /// The request decoded but the pipeline refused to plan it.
    PlanRejected,
    /// The computation itself failed (including a contained panic).
    ComputeFailed,
    /// The server is at capacity — its connection queue or job scheduler
    /// is full. Nothing is wrong with the job; resubmit later.
    Overloaded,
}

impl ErrorCode {
    /// The wire tag.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::Malformed => 1,
            Self::DigestMismatch => 2,
            Self::PlanRejected => 3,
            Self::ComputeFailed => 4,
            Self::Overloaded => 5,
        }
    }

    /// Parses a wire tag.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::Malformed),
            2 => Some(Self::DigestMismatch),
            3 => Some(Self::PlanRejected),
            4 => Some(Self::ComputeFailed),
            5 => Some(Self::Overloaded),
            _ => None,
        }
    }
}

/// A typed refusal: the category plus a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRejection {
    /// What category of refusal this is.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl JobRejection {
    /// Builds a rejection.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into() }
    }
}

impl fmt::Display for JobRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl Encode for JobRejection {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.code.code());
        w.put_str(&self.message);
    }
}

impl Decode for JobRejection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let code =
            ErrorCode::from_code(tag).ok_or(CodecError::InvalidTag { what: "ErrorCode", tag })?;
        let message = r.str()?;
        Ok(Self { code, message })
    }
}

/// Decodes a submit frame's payload and enforces the digest binding.
///
/// # Errors
///
/// [`ProtocolError::Codec`] when the payload does not decode as a
/// [`JobRequest`], [`ProtocolError::DigestMismatch`] when the frame's
/// digest field disagrees with the decoded request.
pub fn decode_submit(frame: &Frame) -> Result<JobRequest, ProtocolError> {
    let request: JobRequest = decode_from_slice(&frame.payload)?;
    let computed = request.digest();
    if frame.digest != computed {
        return Err(ProtocolError::DigestMismatch { claimed: frame.digest, computed });
    }
    Ok(request)
}

/// Decodes a [`FrameKind::SubmitShard`] payload and enforces the digest
/// binding: the frame's digest field must equal the persist digest the
/// decoded stage re-derives, the same contract as [`decode_submit`].
///
/// # Errors
///
/// [`ProtocolError::Codec`] for a payload that fails structural
/// validation and [`ProtocolError::DigestMismatch`] for a digest lie.
pub fn decode_shard(frame: &Frame) -> Result<ShardRequest, ProtocolError> {
    let request: ShardRequest = decode_from_slice(&frame.payload)?;
    let computed = request.digest();
    if frame.digest != computed {
        return Err(ProtocolError::DigestMismatch { claimed: frame.digest, computed });
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_circuit::bench;
    use jigsaw_device::Device;

    fn sample_request() -> JobRequest {
        JobRequest::new(
            bench::ghz(4).circuit().clone(),
            Device::toronto(),
            JigsawConfig::jigsaw(2_048),
        )
    }

    #[test]
    fn frames_round_trip_through_bytes_and_streams() {
        let frame = Frame::submit(&sample_request());
        let bytes = frame.to_bytes();
        assert_eq!(Frame::from_bytes(&bytes).expect("parses"), frame);
        let mut cursor = std::io::Cursor::new(&bytes);
        let read = Frame::read_from(&mut cursor).expect("reads").expect("one frame");
        assert_eq!(read, frame);
        // Clean EOF between frames is None, not an error.
        assert!(Frame::read_from(&mut cursor).expect("eof is clean").is_none());
    }

    #[test]
    fn submit_decodes_back_to_the_request_under_digest_binding() {
        let request = sample_request();
        let frame = Frame::submit(&request);
        assert_eq!(decode_submit(&frame).expect("bound"), request);

        // Tampering with the digest field alone violates the binding even
        // when the checksum is recomputed to match.
        let mut tampered = frame.clone();
        tampered.digest ^= 1;
        let reparsed = Frame::from_bytes(&tampered.to_bytes()).expect("valid frame shape");
        match decode_submit(&reparsed) {
            Err(ProtocolError::DigestMismatch { claimed, computed }) => {
                assert_eq!(claimed, request.digest() ^ 1);
                assert_eq!(computed, request.digest());
            }
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_checks_are_ordered_and_typed() {
        let good = Frame::empty(FrameKind::MetricsRequest).to_bytes();

        let mut bad = good.clone();
        bad[0] ^= 0x40;
        assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::BadMagic { .. })));

        let mut bad = good.clone();
        bad[8..10].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(ProtocolError::UnsupportedVersion { found: 9 })
        ));

        let mut bad = good.clone();
        bad[10] = 0xEE;
        assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::UnknownKind { tag: 0xEE })));

        let mut bad = good.clone();
        bad[19..27].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(ProtocolError::Oversized { payload_len: u64::MAX })
        ));

        assert!(matches!(
            Frame::from_bytes(&good[..HEADER_LEN - 1]),
            Err(ProtocolError::Truncated { .. })
        ));

        let mut extended = good.clone();
        extended.push(0);
        assert!(matches!(
            Frame::from_bytes(&extended),
            Err(ProtocolError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn every_post_magic_flip_is_caught() {
        let bytes = Frame::submit(&sample_request()).to_bytes();
        for offset in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            assert!(Frame::from_bytes(&bad).is_err(), "flip at offset {offset} must not parse");
        }
    }

    #[test]
    fn priority_byte_round_trips_and_rejects_unknown_lanes() {
        let request = sample_request().with_priority(Priority::Background);
        let frame = Frame::submit(&request);
        assert_eq!(decode_submit(&frame).expect("decodes"), request);
        // Same digest at every priority: lanes must not split the cache key.
        assert_eq!(request.digest(), sample_request().digest());
        // An unknown lane tag is a typed codec refusal, not a panic.
        let mut bytes = encode_to_vec(&request);
        *bytes.last_mut().expect("non-empty") = 9;
        let err = decode_from_slice::<JobRequest>(&bytes).expect_err("bad lane");
        assert!(matches!(err, CodecError::InvalidTag { what: "Priority", .. }));
    }

    fn sample_shard_request() -> ShardRequest {
        let config = JigsawConfig::jigsaw(512).without_recompilation();
        let stage = jigsaw_core::pipeline::JigsawPipeline::plan(
            bench::ghz(4).circuit(),
            &Device::toronto(),
            &config,
        )
        .compile_global()
        .run_global()
        .select_subsets();
        ShardRequest {
            stage,
            shard: jigsaw_core::dist::Shard { index: 0, lo: 0, hi: 2 },
            priority: Priority::Sweep,
        }
    }

    #[test]
    fn shard_frames_round_trip_under_digest_binding() {
        let request = sample_shard_request();
        let frame = Frame::submit_shard(&request);
        assert_eq!(frame.kind, FrameKind::SubmitShard);
        let reparsed = Frame::from_bytes(&frame.to_bytes()).expect("parses");
        let decoded = decode_shard(&reparsed).expect("bound");
        // `SubsetsSelected` has no `PartialEq`; canonical bytes are the
        // equality the whole protocol is built on anyway.
        assert_eq!(encode_to_vec(&decoded), encode_to_vec(&request));

        let mut tampered = frame;
        tampered.digest ^= 1;
        let reparsed = Frame::from_bytes(&tampered.to_bytes()).expect("valid frame shape");
        match decode_shard(&reparsed) {
            Err(ProtocolError::DigestMismatch { claimed, computed }) => {
                assert_eq!(claimed, request.digest() ^ 1);
                assert_eq!(computed, request.digest());
            }
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn shard_payload_decode_rejects_out_of_range_shards() {
        let mut request = sample_shard_request();
        request.shard.hi = 10_000;
        let err = decode_from_slice::<ShardRequest>(&encode_to_vec(&request)).expect_err("range");
        assert!(matches!(err, CodecError::InvalidValue { what: "ShardRequest", .. }), "{err:?}");
    }

    #[test]
    fn rejection_payloads_round_trip() {
        let rejection = JobRejection::new(ErrorCode::PlanRejected, "no fitting subset size");
        let bytes = encode_to_vec(&rejection);
        assert_eq!(decode_from_slice::<JobRejection>(&bytes).expect("decodes"), rejection);
        let err = decode_from_slice::<JobRejection>(&[0xFF]).expect_err("bad tag");
        assert!(matches!(err, CodecError::InvalidTag { what: "ErrorCode", .. }));
    }
}
