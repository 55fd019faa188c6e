//! The job-frame wire protocol (`docs/FORMAT.md` §6).
//!
//! A connection is a sequence of *frames*. Each frame is one [`envelope`]
//! (the self-delimiting header, payload cap, checksum span, check order and
//! error taxonomy the persist archives use) under the protocol's own magic
//! and version. The payload of a job frame is encoded with the exact same
//! [`jigsaw_pmf::codec`] wire types the archives use — a program, device or
//! config crosses the network as the same bytes it would occupy on disk.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  89 4A 53 4A 0D 0A 1A 0A   ("\x89JSJ\r\n\x1a\n")
//! 8       2     protocol version (u16 LE, currently 6)
//! 10      1     frame kind tag (see FrameKind)
//! 11      8     config digest (u64 LE; 0 where not applicable)
//! 19      8     payload length N (u64 LE, at most 2^28)
//! 27      N     payload (codec-encoded, kind-specific)
//! 27+N    8     FNV-1a64 checksum over bytes [8, 27+N)
//! ```
//!
//! The checksum covers *everything after the magic* — version, kind,
//! digest, length and payload. FNV-1a64's per-byte bijection therefore
//! guarantees any single-bit flip anywhere past the magic is caught (see
//! `tests/server_protocol_fuzz.rs` for the battery that exercises every
//! region). Corrupt input of any shape maps to a typed [`ProtocolError`],
//! never a panic or a wrong-but-valid frame.
//!
//! The digest field binds a [`SubmitJob`](FrameKind::SubmitJob) frame to
//! its payload: the server re-derives [`config_digest`] from the decoded
//! request and refuses the frame when the two disagree
//! ([`ProtocolError::DigestMismatch`]), so a cache key can never be spoofed
//! onto a different job. A [`SubmitShard`](FrameKind::SubmitShard) frame's
//! digest names its stage: an inline stage is bound to it the same way, and
//! a by-reference shard is resolved by it against the stages the worker
//! already holds.

use std::borrow::Borrow;
use std::fmt;
use std::io::{self, Read, Write};

use jigsaw_circuit::Circuit;
use jigsaw_core::dist::ShardRequest;
use jigsaw_core::persist::config_digest;
use jigsaw_core::pipeline::SubsetsSelected;
use jigsaw_core::sched::Priority;
use jigsaw_core::{JigsawConfig, StageKind};
use jigsaw_device::Device;
use jigsaw_pmf::codec::{encode_to_vec, CodecError, Decode, Encode, Reader, Writer};
use jigsaw_pmf::envelope::{self, Envelope, TRAILER_LEN};

pub use jigsaw_pmf::envelope::{EnvelopeError as ProtocolError, HEADER_LEN, MAX_PAYLOAD_LEN};

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
/// version 2); a v3 peer is refused the same typed way. v5: the
/// [`ShardResult`](FrameKind::ShardResult) payload dropped the `u64`
/// compile count that followed its range (the run's `run-cpms` stage
/// record is the one count); a v4 peer is refused the same typed way. v6:
/// the [`SubmitShard`](FrameKind::SubmitShard) payload grew a presence byte
/// after its priority, so a shard names its stage by the frame digest and
/// ships it inline only when the worker answers
/// [`ErrorCode::StageMissing`]; a v5 peer is refused the same typed way.
/// Still v6, same layout: when the planned and global-compiled archive
/// kinds were deleted, the [`JobRequest::hint`] byte narrowed to `3` or
/// `4`, so a `1` or `2` is now refused as malformed.
pub const PROTOCOL_VERSION: u16 = 6;

/// The frame's envelope format.
const FRAME: Envelope = Envelope { magic: MAGIC, version: PROTOCOL_VERSION };

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
    /// Driver → worker: a [`ShardRequest`] payload; the digest field names
    /// the stage and must equal an inline stage's [`config_digest`].
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

    /// Frames a [`ShardRequest`] under `digest`, the config digest of the
    /// stage it runs against: a by-reference request is resolved by it, and
    /// an inline stage must re-derive it (the worker refuses the frame
    /// otherwise, exactly like [`Self::submit`]'s binding for jobs).
    #[must_use]
    pub fn submit_shard<S: Borrow<SubsetsSelected>>(
        digest: u64,
        request: &ShardRequest<S>,
    ) -> Self {
        Self { kind: FrameKind::SubmitShard, digest, payload: encode_to_vec(request) }
    }

    /// Serialises the frame: header, payload, trailing checksum over
    /// everything after the magic.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(self.kind, self.digest, &self.payload)
    }

    /// Parses one frame from a buffer, requiring exact consumption.
    ///
    /// # Errors
    ///
    /// Every malformation maps to its [`ProtocolError`] variant; the
    /// checks run in frame order (length, magic, version, kind, payload
    /// cap, total length, trailing bytes, checksum).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let (header, payload) = FRAME.open(bytes, FrameKind::from_code)?;
        Ok(Self { kind: header.tag, digest: header.digest, payload: payload.to_vec() })
    }

    /// Writes the frame to a stream.
    ///
    /// # Errors
    ///
    /// Propagates transport failures as [`ProtocolError::Io`].
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtocolError> {
        write_frame(w, self.kind, self.digest, &self.payload)
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
        let mut head = [0u8; HEADER_LEN];
        if read_full(r, &mut head, true, stop)?.is_none() {
            return Ok(None);
        }
        let header = FRAME.parse_header(&head, FrameKind::from_code)?;
        let torn = || ProtocolError::Truncated { needed: header.total_len(), len: HEADER_LEN };
        let mut rest = vec![0u8; header.payload_len + TRAILER_LEN];
        if read_full(r, &mut rest, false, stop)?.is_none() {
            // `read_full` yields `None` only when EOF at offset 0 is
            // allowed, which it is not here; report it as a torn frame
            // rather than asserting.
            return Err(torn());
        }
        let (payload, trailer) = rest.split_last_chunk().ok_or_else(torn)?;
        envelope::verify_checksum(&head, payload, trailer)?;
        rest.truncate(header.payload_len);
        Ok(Some(Self { kind: header.tag, digest: header.digest, payload: rest }))
    }
}

/// Serialises one frame around a borrowed payload (see [`Frame::to_bytes`]).
#[must_use]
pub fn seal(kind: FrameKind, digest: u64, payload: &[u8]) -> Vec<u8> {
    FRAME.seal(kind.code(), digest, payload)
}

/// Writes one frame around a borrowed payload to a stream in a single
/// write (see [`Frame::write_to`]).
///
/// # Errors
///
/// Propagates transport failures as [`ProtocolError::Io`].
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    digest: u64,
    payload: &[u8],
) -> Result<(), ProtocolError> {
    w.write_all(&seal(kind, digest, payload))?;
    w.flush()?;
    Ok(())
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
/// plus its scheduling lane and a legacy stage-hint byte.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The measurement-free program to reconstruct.
    pub program: Circuit,
    /// The device to run on.
    pub device: Device,
    /// The full pipeline configuration.
    pub config: JigsawConfig,
    /// Legacy stage hint. Its byte stays on the wire and must still name a
    /// [`StageKind`] — `3` global-run, which every in-repo sender sends,
    /// or `4` subsets-selected — but the server no longer reads it: an
    /// evicted job spills its served response, not a pipeline stage.
    /// Removing it changes the `SubmitJob` payload, so it needs its own
    /// protocol version bump, taken together with a benchmark update.
    pub hint: StageKind,
    /// Scheduling lane for this job (protocol v2). Excluded from
    /// [`Self::digest`] — results are priority-invariant, so identical
    /// submissions at different priorities still coalesce on one compute;
    /// the lane of the submission that *starts* the compute wins.
    pub priority: Priority,
}

impl JobRequest {
    /// A request with the default [`StageKind::GlobalRun`] hint byte and
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
    /// A by-reference shard named a stage this worker does not hold (never
    /// sent, evicted, or the worker restarted). Resend the shard with its
    /// stage inline; the connection stays open.
    StageMissing,
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
            Self::StageMissing => 6,
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
            6 => Some(Self::StageMissing),
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
    envelope::decode_bound(frame.digest, &frame.payload, JobRequest::digest)
}

/// Decodes a [`FrameKind::SubmitShard`] payload and enforces the digest
/// binding on an inline stage: the frame's digest field must equal the
/// persist digest the decoded stage re-derives, the same contract as
/// [`decode_submit`]. A by-reference request decodes without a stage; the
/// worker resolves the digest and range-checks the shard against the stage
/// it holds.
///
/// # Errors
///
/// [`ProtocolError::Codec`] for a payload that fails structural
/// validation and [`ProtocolError::DigestMismatch`] for a digest lie.
pub fn decode_shard(frame: &Frame) -> Result<ShardRequest, ProtocolError> {
    envelope::decode_bound(frame.digest, &frame.payload, |request: &ShardRequest| {
        request.stage.as_ref().map_or(frame.digest, SubsetsSelected::config_digest)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_circuit::bench;
    use jigsaw_core::persist::{self, PersistError};
    use jigsaw_device::Device;
    use jigsaw_pmf::codec::decode_from_slice;
    use jigsaw_pmf::envelope::EnvelopeError;

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
            Err(ProtocolError::UnsupportedVersion { found: 9, .. })
        ));

        let mut bad = good.clone();
        bad[10] = 0xEE;
        assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::UnknownTag { tag: 0xEE })));

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
        // Archives share the envelope, so the same holds for them: every
        // flip is refused by an envelope check, before any stage decode.
        let archive = persist::to_bytes(&sample_stage());
        for offset in 8..archive.len() {
            let mut bad = archive.clone();
            bad[offset] ^= 0x01;
            let err = persist::from_bytes::<SubsetsSelected>(&bad).expect_err("flip must not load");
            let before_decode = matches!(
                err,
                PersistError::Envelope(ref e)
                    if !matches!(e, EnvelopeError::Codec(_) | EnvelopeError::DigestMismatch { .. })
            );
            assert!(before_decode, "archive flip at offset {offset} gave {err:?}");
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

    fn sample_stage() -> SubsetsSelected {
        let config = JigsawConfig::jigsaw(512).without_recompilation();
        jigsaw_core::pipeline::JigsawPipeline::plan(
            bench::ghz(4).circuit(),
            &Device::toronto(),
            &config,
        )
        .compile_global()
        .run_global()
        .select_subsets()
    }

    fn sample_shard_request() -> ShardRequest {
        ShardRequest {
            shard: jigsaw_core::dist::Shard { index: 0, lo: 0, hi: 2 },
            priority: Priority::Sweep,
            stage: Some(sample_stage()),
        }
    }

    #[test]
    fn shard_frames_round_trip_under_digest_binding() {
        let request = sample_shard_request();
        let digest = sample_stage().config_digest();
        let frame = Frame::submit_shard(digest, &request);
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
                assert_eq!(claimed, digest ^ 1);
                assert_eq!(computed, digest);
            }
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn by_reference_shards_carry_only_range_lane_and_presence() {
        let request = ShardRequest::<SubsetsSelected> { stage: None, ..sample_shard_request() };
        let frame = Frame::submit_shard(0xABCD, &request);
        // Shard descriptor (3 × u64), priority byte, presence byte `0`.
        assert_eq!(frame.payload.len(), 26);
        assert_eq!(frame.payload.last(), Some(&0));
        let decoded = decode_shard(&Frame::from_bytes(&frame.to_bytes()).expect("parses"))
            .expect("a by-reference shard has no stage to bind");
        assert!(decoded.stage.is_none());
        assert_eq!(decoded.shard, request.shard);

        let mut bytes = frame.payload;
        *bytes.last_mut().expect("non-empty") = 2;
        let err = decode_from_slice::<ShardRequest>(&bytes).expect_err("bad presence");
        assert!(matches!(err, CodecError::InvalidTag { what: "ShardRequest stage presence", .. }));
    }

    #[test]
    fn shard_payload_decode_rejects_out_of_range_shards() {
        let mut request = sample_shard_request();
        request.shard.hi = 10_000;
        let err = decode_from_slice::<ShardRequest>(&encode_to_vec(&request)).expect_err("range");
        assert!(matches!(err, CodecError::InvalidValue { what: "ShardRequest", .. }), "{err:?}");
        let stage = sample_stage();
        let err = request.shard.check_within(&stage).expect_err("range against a held stage");
        assert!(matches!(err, CodecError::InvalidValue { what: "ShardRequest", .. }), "{err:?}");
    }

    #[test]
    fn rejection_payloads_round_trip() {
        for code in [ErrorCode::PlanRejected, ErrorCode::StageMissing] {
            let rejection = JobRejection::new(code, "no fitting subset size");
            let bytes = encode_to_vec(&rejection);
            assert_eq!(decode_from_slice::<JobRejection>(&bytes).expect("decodes"), rejection);
        }
        let err = decode_from_slice::<JobRejection>(&[0xFF]).expect_err("bad tag");
        assert!(matches!(err, CodecError::InvalidTag { what: "ErrorCode", .. }));
    }
}
