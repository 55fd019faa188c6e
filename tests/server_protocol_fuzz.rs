//! Fault-injection battery for the job-frame protocol: strided bit-flips
//! and truncations over **every region** of request and response frames
//! must surface as typed `ProtocolError`/`CodecError` values — never a
//! panic and never a wrong-but-valid decode.
//!
//! The guarantee extends `tests/persist_roundtrip.rs`'s FNV-checksum
//! argument: FNV-1a64 updates with a per-byte bijection, and the frame
//! checksum spans *everything after the magic* (version, kind, digest,
//! length and payload in one run), so any single-bit flip past the magic
//! provably changes the checksum. Flips inside the magic fail the magic
//! comparison itself. Either way: typed error, no silent acceptance.
//!
//! Protocol v3 extended the kind space with the distributed-sweep shard
//! frames (`SubmitShard`/`ShardResult`/`ShardError`); the battery covers
//! them with the same strided corruption discipline, plus the version
//! clash a previous-version peer produces against the current server.
//! Protocol v6 lets a shard name its stage by digest; by-reference frames,
//! stage-missing replies, unknown presence bytes and by-reference ranges
//! past the held stage's work list must all be refused typed as well.

use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::dist::{Shard, ShardRequest};
use jigsaw_repro::core::persist::{self, PersistError};
use jigsaw_repro::core::pipeline::{JigsawPipeline, SubsetsSelected};
use jigsaw_repro::core::sched::Priority;
use jigsaw_repro::core::{run_jigsaw, JigsawConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::{decode_from_slice, encode_to_vec, fnv1a64, CodecError};
use jigsaw_repro::server::client::{Client, ClientError};
use jigsaw_repro::server::protocol::{
    decode_shard, decode_submit, Frame, FrameKind, JobRejection, JobRequest, ProtocolError,
    HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};
use jigsaw_repro::server::server::{serve, ServerConfig};
use jigsaw_repro::server::ErrorCode;

/// A fresh spill directory for one live server.
fn spill_dir(name: &str) -> std::path::PathBuf {
    let spill = std::env::temp_dir()
        .join("jigsaw-server-fuzz-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    spill
}

fn sample_request() -> JobRequest {
    let mut config = JigsawConfig::jigsaw(1_000).without_recompilation().with_seed(5);
    config.compiler.max_seeds = 3;
    JobRequest::new(bench::ghz(5).circuit().clone(), Device::toronto(), config)
}

/// A real response frame: the encoded result of actually running the
/// sample job, framed the way the server frames it.
fn sample_response_frame() -> Frame {
    let request = sample_request();
    let result = run_jigsaw(&request.program, &request.device, &request.config);
    Frame { kind: FrameKind::JobResult, digest: request.digest(), payload: encode_to_vec(&result) }
}

/// ~97 evenly-strided positions over `len` (every position for short
/// buffers), matching the persistence suite's sampling discipline.
fn stride_positions(len: usize) -> impl Iterator<Item = usize> {
    let step = (len / 97).max(1);
    (0..len).step_by(step)
}

#[test]
fn truncated_request_frames_fail_typed_at_every_stride() {
    let bytes = Frame::submit(&sample_request()).to_bytes();
    for cut in stride_positions(bytes.len()) {
        let err = Frame::from_bytes(&bytes[..cut]).expect_err("truncation must not parse");
        assert!(
            matches!(err, ProtocolError::Truncated { .. }),
            "cut at {cut} gave {err:?}, expected Truncated"
        );
    }
}

#[test]
fn flipped_request_frames_fail_typed_at_every_stride() {
    let request = sample_request();
    let bytes = Frame::submit(&request).to_bytes();
    for offset in stride_positions(bytes.len()) {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[offset] ^= bit;
            // A flip may still yield a *parsable frame shape* only if it
            // cannot reach the digest-bound decode with different
            // content, which the checksum span forbids; assert the full
            // decode path errors.
            let outcome = Frame::from_bytes(&bad).and_then(|frame| decode_submit(&frame));
            assert!(
                outcome.is_err(),
                "flip {bit:#04x} at offset {offset} decoded to a valid request"
            );
        }
    }
}

#[test]
fn corrupted_response_frames_fail_typed_at_every_stride() {
    let bytes = sample_response_frame().to_bytes();
    for cut in stride_positions(bytes.len()) {
        assert!(Frame::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    for offset in stride_positions(bytes.len()) {
        let mut bad = bytes.clone();
        bad[offset] ^= 0x01;
        assert!(Frame::from_bytes(&bad).is_err(), "flip at offset {offset} must not parse");
    }
}

/// The per-region error taxonomy: each header field's corruption maps to
/// its own variant (after the checksum, which the flip tests above pin).
#[test]
fn corruption_maps_to_the_right_variant_per_region() {
    let good = Frame::submit(&sample_request()).to_bytes();

    let mut bad = good.clone();
    bad[3] ^= 0xFF; // magic
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::BadMagic { .. })));

    let mut bad = good.clone();
    bad[8..10].copy_from_slice(&7u16.to_le_bytes()); // version
    assert!(matches!(
        Frame::from_bytes(&bad),
        Err(ProtocolError::UnsupportedVersion { found: 7, .. })
    ));

    let mut bad = good.clone();
    bad[10] = 0x99; // kind tag
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::UnknownTag { tag: 0x99 })));

    let mut bad = good.clone();
    bad[19..27].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // length
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::Oversized { .. })));

    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x10; // checksum itself
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::ChecksumMismatch { .. })));
}

/// Digest binding survives an attacker who *recomputes* the checksum: a
/// frame whose digest field was rewritten (checksum valid) is refused
/// because the server re-derives the digest from the decoded payload.
#[test]
fn digest_spoofing_with_valid_checksum_is_refused() {
    let request = sample_request();
    let mut frame = Frame::submit(&request);
    frame.digest ^= 0xDEAD_BEEF;
    // to_bytes recomputes the checksum over the tampered header, so the
    // frame itself parses cleanly...
    let reparsed = Frame::from_bytes(&frame.to_bytes()).expect("frame shape is valid");
    // ...but the binding check refuses it.
    assert!(matches!(decode_submit(&reparsed), Err(ProtocolError::DigestMismatch { .. })));
}

/// A payload that decodes to a *semantically invalid* value is refused by
/// the type's decoder even under a valid checksum: the codec layer's
/// invariant validation backstops the transport layer.
#[test]
fn semantically_invalid_payloads_are_refused_under_valid_checksums() {
    use jigsaw_repro::core::TrialAllocation;
    let mut request = sample_request();
    // Encodes fine; the decoder's invariant validation must refuse a
    // confidence outside (0, 1).
    request.config.allocation = TrialAllocation::CoverageWeighted { confidence: f64::NAN };
    let mut frames = vec![Frame::submit(&request)];
    // The stage-hint byte (just before the trailing priority byte) naming
    // a retired stage tag, `1` planned or `2` global-compiled.
    for hint in [1, 2] {
        let mut frame = Frame::submit(&sample_request());
        let at = frame.payload.len() - 2;
        assert_eq!(frame.payload[at], 3, "the default global-run hint byte");
        frame.payload[at] = hint;
        frames.push(frame);
    }
    for frame in frames {
        let reparsed = Frame::from_bytes(&frame.to_bytes()).expect("frame shape is valid");
        match decode_submit(&reparsed) {
            Err(ProtocolError::Codec(_)) => {}
            other => panic!("expected a codec refusal, got {other:?}"),
        }
    }
}

/// A small but real sweep stage: the full staged pipeline down to
/// `SubsetsSelected`.
fn sample_stage() -> SubsetsSelected {
    let mut config = JigsawConfig::jigsaw(512).without_recompilation().with_seed(5);
    config.compiler.max_seeds = 3;
    JigsawPipeline::plan(bench::ghz(4).circuit(), &Device::toronto(), &config)
        .compile_global()
        .run_global()
        .select_subsets()
}

/// The sample stage's first shard, with the stage inline.
fn sample_shard_request() -> ShardRequest {
    ShardRequest {
        shard: Shard { index: 0, lo: 0, hi: 2 },
        priority: Priority::Sweep,
        stage: Some(sample_stage()),
    }
}

/// The same shard naming its stage by digest alone.
fn by_reference(shard: Shard) -> ShardRequest {
    ShardRequest { shard, priority: Priority::Sweep, stage: None }
}

/// Frames `request` under the sample stage's config digest.
fn shard_frame(request: &ShardRequest) -> Frame {
    Frame::submit_shard(sample_stage().config_digest(), request)
}

/// A real `ShardResult` frame: the partial a worker would return for the
/// sample shard, framed the way the worker frames it.
fn sample_shard_result_frame() -> Frame {
    let stage = sample_stage();
    let partial = jigsaw_repro::core::dist::execute_shard(&stage, &sample_shard_request().shard);
    Frame {
        kind: FrameKind::ShardResult,
        digest: stage.config_digest(),
        payload: encode_to_vec(&partial),
    }
}

/// A real stage-missing `ShardError` frame, as a worker answers a
/// by-reference shard whose stage it does not hold.
fn stage_missing_frame() -> Frame {
    let rejection = JobRejection::new(ErrorCode::StageMissing, "no stage held; resend it inline");
    Frame {
        kind: FrameKind::ShardError,
        digest: sample_stage().config_digest(),
        payload: encode_to_vec(&rejection),
    }
}

/// Strided truncations of `bytes` are `Truncated`, and strided flips never
/// reach a valid digest-bound shard decode.
fn assert_shard_request_corruption_fails_typed(bytes: &[u8]) {
    for cut in stride_positions(bytes.len()) {
        let err = Frame::from_bytes(&bytes[..cut]).expect_err("truncation must not parse");
        assert!(
            matches!(err, ProtocolError::Truncated { .. }),
            "cut at {cut} gave {err:?}, expected Truncated"
        );
    }
    for offset in stride_positions(bytes.len()) {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.to_vec();
            bad[offset] ^= bit;
            let outcome = Frame::from_bytes(&bad).and_then(|frame| decode_shard(&frame));
            assert!(
                outcome.is_err(),
                "flip {bit:#04x} at offset {offset} decoded to a valid shard request"
            );
        }
    }
}

/// The `SubmitShard` frame inherits the whole corruption taxonomy, inline
/// and by reference: strided truncations are `Truncated`, strided flips
/// never reach a valid digest-bound decode, and per-region corruption maps
/// to the same variants the job frames pin.
#[test]
fn shard_request_frames_fail_typed_at_every_stride() {
    assert_shard_request_corruption_fails_typed(&shard_frame(&sample_shard_request()).to_bytes());
    let by_ref = shard_frame(&by_reference(Shard { index: 3, lo: 0, hi: 2 })).to_bytes();
    assert_shard_request_corruption_fails_typed(&by_ref);
}

/// A stage-missing reply survives the same battery: a corrupted one never
/// parses, so a driver cannot mistake garbage for a request to resend.
#[test]
fn stage_missing_replies_fail_typed_at_every_stride() {
    let bytes = stage_missing_frame().to_bytes();
    let reply = Frame::from_bytes(&bytes).expect("intact reply parses");
    let rejection: JobRejection = decode_from_slice(&reply.payload).expect("typed rejection");
    assert_eq!(rejection.code, ErrorCode::StageMissing);
    for cut in stride_positions(bytes.len()) {
        let err = Frame::from_bytes(&bytes[..cut]).expect_err("truncation must not parse");
        assert!(matches!(err, ProtocolError::Truncated { .. }), "cut at {cut} gave {err:?}");
    }
    for offset in stride_positions(bytes.len()) {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[offset] ^= bit;
            assert!(Frame::from_bytes(&bad).is_err(), "flip {bit:#04x} at {offset} parsed");
        }
    }
}

/// A presence byte other than `0`/`1` is a typed codec refusal offline,
/// and a live worker answers it `Malformed` without closing the
/// connection.
#[test]
fn unknown_presence_byte_is_refused_typed() {
    let mut frame = shard_frame(&by_reference(Shard { index: 0, lo: 0, hi: 2 }));
    *frame.payload.last_mut().expect("presence byte") = 7;
    let reparsed = Frame::from_bytes(&frame.to_bytes()).expect("frame shape is valid");
    match decode_shard(&reparsed) {
        Err(ProtocolError::Codec(CodecError::InvalidTag { what, tag: 7 })) => {
            assert_eq!(what, "ShardRequest stage presence");
        }
        other => panic!("expected an InvalidTag refusal, got {other:?}"),
    }

    let handle = serve(&ServerConfig::new(spill_dir("presence"))).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.send_raw(&frame.to_bytes()).expect("write");
    let reply = client.read_frame().expect("reply frame").expect("server replied");
    assert_eq!(reply.kind, FrameKind::ShardError);
    let rejection: JobRejection = decode_from_slice(&reply.payload).expect("typed rejection");
    assert_eq!(rejection.code, ErrorCode::Malformed);
    // Same connection: the worker still serves an inline shard.
    let request = sample_shard_request();
    let partial = client.submit_shard(sample_stage().config_digest(), &request).expect("served");
    assert_eq!(partial.shard_index, request.shard.index);
    handle.shutdown();
}

/// A by-reference shard is range-checked against the stage the worker
/// holds before it can reach `execute_shard`'s assertion: past the work
/// list it is refused `Malformed`, the worker survives, and an in-range
/// by-reference shard on the same connection is served from the store.
/// A by-reference shard the store cannot resolve is `StageMissing`.
#[test]
fn by_reference_ranges_are_checked_against_the_held_stage() {
    let stage = sample_stage();
    let digest = stage.config_digest();
    let items: u64 = stage.layers().iter().map(|layer| layer.subsets.len() as u64).sum();
    let handle = serve(&ServerConfig::new(spill_dir("by-ref-range"))).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let missing = client
        .submit_shard(digest, &by_reference(Shard { index: 0, lo: 0, hi: 2 }))
        .expect_err("an empty store holds no stage");
    assert!(
        matches!(missing, ClientError::Rejected(ref r) if r.code == ErrorCode::StageMissing),
        "{missing}"
    );
    client.submit_shard(digest, &sample_shard_request()).expect("inline shard stores the stage");

    for shard in
        [Shard { index: 1, lo: 0, hi: items + 1 }, Shard { index: 2, lo: items, hi: u64::MAX }]
    {
        let error = client
            .submit_shard(digest, &by_reference(shard))
            .expect_err("range past the work list");
        assert!(
            matches!(error, ClientError::Rejected(ref r) if r.code == ErrorCode::Malformed
                && r.message.contains("work list")),
            "{error}"
        );
    }
    let shard = Shard { index: 4, lo: items - 1, hi: items };
    let partial = client.submit_shard(digest, &by_reference(shard)).expect("held stage serves");
    assert_eq!(partial.histograms.len(), 1);
    assert_eq!(partial, jigsaw_repro::core::dist::execute_shard(&stage, &shard));
    handle.shutdown();
}

/// `ShardResult` frames carried back from a worker survive the same
/// battery: corrupted partials never parse into a mergeable value.
#[test]
fn shard_result_frames_fail_typed_at_every_stride() {
    let bytes = sample_shard_result_frame().to_bytes();
    for cut in stride_positions(bytes.len()) {
        assert!(Frame::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    for offset in stride_positions(bytes.len()) {
        let mut bad = bytes.clone();
        bad[offset] ^= 0x01;
        assert!(Frame::from_bytes(&bad).is_err(), "flip at offset {offset} must not parse");
    }
}

/// Per-region taxonomy on the shard frame: magic, version, kind tag,
/// length, checksum and the digest binding each refuse with their own
/// variant.
#[test]
fn shard_corruption_maps_to_the_right_variant_per_region() {
    let good = shard_frame(&sample_shard_request()).to_bytes();

    let mut bad = good.clone();
    bad[3] ^= 0xFF; // magic
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::BadMagic { .. })));

    let mut bad = good.clone();
    bad[8..10].copy_from_slice(&7u16.to_le_bytes()); // version
    assert!(matches!(
        Frame::from_bytes(&bad),
        Err(ProtocolError::UnsupportedVersion { found: 7, .. })
    ));

    let mut bad = good.clone();
    bad[10] = 0x99; // kind tag
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::UnknownTag { tag: 0x99 })));

    let mut bad = good.clone();
    bad[19..27].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // length
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::Oversized { .. })));

    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x10; // checksum itself
    assert!(matches!(Frame::from_bytes(&bad), Err(ProtocolError::ChecksumMismatch { .. })));

    // Digest spoofing with a recomputed (valid) checksum: the binding
    // check re-derives the digest from the decoded stage and refuses.
    let mut frame = shard_frame(&sample_shard_request());
    frame.digest ^= 0xDEAD_BEEF;
    let reparsed = Frame::from_bytes(&frame.to_bytes()).expect("frame shape is valid");
    assert!(matches!(decode_shard(&reparsed), Err(ProtocolError::DigestMismatch { .. })));
}

/// Archives and frames share one envelope but not one magic: each
/// format's reader refuses the other's bytes at byte 0 with the typed
/// bad-magic error (`docs/FORMAT.md` §6).
#[test]
fn archives_and_frames_refuse_each_other_at_the_magic() {
    let archive = persist::to_bytes(&sample_stage());
    match Frame::from_bytes(&archive) {
        Err(ProtocolError::BadMagic { found }) => assert_eq!(found, persist::MAGIC),
        other => panic!("an archive parsed as a frame: {other:?}"),
    }
    let frame = shard_frame(&sample_shard_request()).to_bytes();
    match persist::from_bytes::<SubsetsSelected>(&frame).map(|_| ()) {
        Err(PersistError::Envelope(ProtocolError::BadMagic { found })) => assert_eq!(found, MAGIC),
        other => panic!("a frame loaded as an archive: {other:?}"),
    }
}

/// Version refusal is symmetric and typed: a frame of the previous
/// protocol version (version field rewritten, checksum honestly
/// recomputed) — an inline or a by-reference v5 shard alike — is refused
/// offline with `UnsupportedVersion`, and a live server answers it with a
/// clean `Malformed` rejection naming the version — no hang, no panic, and
/// the connection that follows still works.
#[test]
fn previous_protocol_version_is_refused_cleanly() {
    let previous = PROTOCOL_VERSION - 1;
    let handle = serve(&ServerConfig::new(spill_dir("stale-refusal"))).expect("bind");
    let by_ref = by_reference(Shard { index: 0, lo: 0, hi: 2 });
    for request in [sample_shard_request(), by_ref] {
        // Forge a well-formed previous-version shard frame: same bytes,
        // version field rewritten, trailing checksum recomputed over
        // [8, len-8).
        let mut stale = shard_frame(&request).to_bytes();
        stale[8..10].copy_from_slice(&previous.to_le_bytes());
        let span = stale.len() - 8;
        let checksum = fnv1a64(&stale[8..span]);
        let len = stale.len();
        stale[len - 8..].copy_from_slice(&checksum.to_le_bytes());

        // Offline: the parser names the versions.
        match Frame::from_bytes(&stale) {
            Err(ProtocolError::UnsupportedVersion { found, .. }) if found == previous => {}
            other => panic!("expected UnsupportedVersion {{ found: {previous} }}, got {other:?}"),
        }

        // Live: the server refuses with a typed Malformed rejection.
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.send_raw(&stale).expect("write stale frame");
        let reply = client.read_frame().expect("reply frame").expect("server replied");
        assert_eq!(reply.kind, FrameKind::JobError);
        let rejection: JobRejection = decode_from_slice(&reply.payload).expect("typed rejection");
        assert_eq!(rejection.code, ErrorCode::Malformed);
        assert!(
            rejection.message.contains("version"),
            "refusal should name the version clash, got: {}",
            rejection.message
        );
    }

    // The server outlived the refusals and still serves shards.
    let request = sample_shard_request();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let partial = client
        .submit_shard(sample_stage().config_digest(), &request)
        .expect("current-version shard still served");
    assert_eq!(partial.shard_index, request.shard.index);
    handle.shutdown();
}

/// The live server survives hostile bytes: a connection feeding garbage
/// gets a typed `JobError` (or a closed stream), and the *next* connection
/// still completes a real job — no panic took the process down.
#[test]
fn live_server_survives_garbage_and_keeps_serving() {
    let handle = serve(&ServerConfig::new(spill_dir("live"))).expect("bind");
    let addr = handle.addr();
    let request = sample_request();
    let good_bytes = Frame::submit(&request).to_bytes();

    // Volley 1: bit-flipped frames, one connection each.
    for offset in stride_positions(good_bytes.len()).take(24) {
        let mut bad = good_bytes.clone();
        bad[offset] ^= 0x01;
        let mut client = Client::connect(addr).expect("connect");
        client.send_raw(&bad).expect("write garbage");
        // Either a typed refusal frame comes back, or the server closed
        // the torn connection; a hang or a result frame would fail here.
        if let Ok(Some(frame)) = client.read_frame() {
            assert_eq!(frame.kind, FrameKind::JobError, "offset {offset}");
        }
    }

    // Volley 2: truncated frames followed by a dropped connection.
    for cut in [0, 5, HEADER_LEN - 1, HEADER_LEN + 3] {
        let mut client = Client::connect(addr).expect("connect");
        client.send_raw(&good_bytes[..cut]).expect("write truncation");
        drop(client);
    }

    // Volley 3: a spoofed digest gets the typed rejection code.
    let mut spoofed = Frame::submit(&request);
    spoofed.digest ^= 1;
    let mut client = Client::connect(addr).expect("connect");
    client.send_raw(&spoofed.to_bytes()).expect("write spoofed");
    let reply = client.read_frame().expect("reply frame").expect("server replied");
    assert_eq!(reply.kind, FrameKind::JobError);
    let rejection: JobRejection = decode_from_slice(&reply.payload).expect("typed rejection");
    assert_eq!(rejection.code, ErrorCode::DigestMismatch);

    // The server is still alive and correct.
    let mut client = Client::connect(addr).expect("connect");
    let payload = client
        .submit_bytes(&request.program, &request.device, &request.config)
        .expect("server still serves real jobs");
    let solo = encode_to_vec(&run_jigsaw(&request.program, &request.device, &request.config));
    assert_eq!(payload, solo, "post-fuzz response still bit-identical to solo run");
    handle.shutdown();
}
