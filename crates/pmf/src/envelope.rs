//! The checksummed envelope both of the workspace's byte formats share:
//! stage archives (`jigsaw_core::persist`) and job/shard frames
//! (`jigsaw_server::protocol`), specified in `docs/FORMAT.md` §1 and §6.
//!
//! ```text
//! offset  size  field
//!      0     8  magic (one per format)
//!      8     2  version (u16 LE, one per format)
//!     10     1  tag: stage kind or frame kind (the format decodes it)
//!     11     8  config digest (u64 LE)
//!     19     8  payload length N (u64 LE, at most MAX_PAYLOAD_LEN)
//!     27     N  payload
//!   27+N     8  FNV-1a64 over bytes [8, 27+N)
//! ```
//!
//! Each format is one [`Envelope`] value with its own magic and version,
//! so one format fed to the other's reader fails at byte 0. The header
//! layout, check order, checksum span, payload cap and error taxonomy are
//! written once, here. The checksum covers every byte after the magic, and
//! each FNV-1a step is a bijection of the hash state, so any single-bit
//! flip past the magic is caught.
//!
//! # Examples
//!
//! ```
//! use jigsaw_pmf::envelope::{Envelope, EnvelopeError};
//!
//! const DEMO: Envelope = Envelope { magic: *b"\x89DEMO\r\n\n", version: 1 };
//! let bytes = DEMO.seal(7, 0xD16E57, b"payload");
//! let (header, payload) = DEMO.open(&bytes, |tag| (tag == 7).then_some(tag))?;
//! assert_eq!((header.tag, header.digest, payload), (7, 0xD16E57, &b"payload"[..]));
//!
//! let mut torn = bytes.clone();
//! torn[30] ^= 0x01;
//! let err = DEMO.open(&torn, Some).unwrap_err();
//! assert!(matches!(err, EnvelopeError::ChecksumMismatch { .. }));
//! # Ok::<(), EnvelopeError>(())
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::codec::{decode_from_slice, fnv1a64, fnv1a64_continue, CodecError, Decode};

/// Fixed byte length of the header: magic + version + tag + digest +
/// payload length.
pub const HEADER_LEN: usize = 8 + 2 + 1 + 8 + 8;

/// Byte length of the trailing checksum.
pub const TRAILER_LEN: usize = 8;

/// Largest payload a reader accepts (256 MiB). A length prefix beyond it
/// is refused before anything is allocated for it.
pub const MAX_PAYLOAD_LEN: u64 = 1 << 28;

/// Bytes the checksum skips: the magic.
const MAGIC_LEN: usize = 8;

/// One envelope format: the magic and the single version this build
/// reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// First eight bytes of every envelope of this format.
    pub magic: [u8; 8],
    /// The version this build writes and the only one it reads.
    pub version: u16,
}

/// The validated fixed-size prefix of an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header<T> {
    /// The format's decoded tag byte.
    pub tag: T,
    /// Config digest field (0 where the format has none to carry).
    pub digest: u64,
    /// Payload byte length, already checked against [`MAX_PAYLOAD_LEN`].
    pub payload_len: usize,
}

impl<T> Header<T> {
    /// Total envelope length: header, payload and checksum.
    #[must_use]
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len + TRAILER_LEN
    }
}

/// Everything that can go wrong reading an envelope or the payload it
/// carries. Hostile or torn bytes land here, never in a panic.
#[derive(Debug)]
pub enum EnvelopeError {
    /// Transport failure while reading or writing a stream.
    Io(io::Error),
    /// The input ended inside the envelope.
    Truncated {
        /// Bytes the envelope needs.
        needed: usize,
        /// Bytes actually present.
        len: usize,
    },
    /// The first eight bytes are not the format's magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The envelope was written by a version this build does not read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The one version this build reads.
        expected: u16,
    },
    /// The tag byte names no stage or frame kind of the format.
    UnknownTag {
        /// The unrecognised tag.
        tag: u8,
    },
    /// The header claims a payload beyond [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The claimed length.
        payload_len: u64,
    },
    /// The trailing checksum does not match the bytes after the magic.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
    /// Input remained after the envelope ended.
    TrailingBytes {
        /// Bytes left over.
        remaining: usize,
    },
    /// The payload failed to decode as the tag's type.
    Codec(CodecError),
    /// The header's digest field disagrees with the digest re-derived from
    /// the decoded payload.
    DigestMismatch {
        /// Digest the header claims.
        claimed: u64,
        /// Digest computed from the payload.
        computed: u64,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport failure: {e}"),
            Self::Truncated { needed, len } => {
                write!(f, "truncated: needs {needed} bytes, {len} present")
            }
            Self::BadMagic { found } => write!(f, "unrecognised magic {found:02x?}"),
            Self::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported version {found} (this build reads {expected})")
            }
            Self::UnknownTag { tag } => write!(f, "unknown tag {tag:#04x}"),
            Self::Oversized { payload_len } => write!(
                f,
                "header claims a {payload_len}-byte payload, over the {MAX_PAYLOAD_LEN}-byte cap"
            ),
            Self::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            Self::TrailingBytes { remaining } => write!(f, "{remaining} trailing bytes"),
            Self::Codec(e) => write!(f, "payload decode failed: {e}"),
            Self::DigestMismatch { claimed, computed } => write!(
                f,
                "digest binding violated: header claims {claimed:#018x}, payload digests to \
                 {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for EnvelopeError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for EnvelopeError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

impl Envelope {
    /// Seals `payload` under `tag` and `digest`: header, payload, then the
    /// checksum over everything after the magic, in one allocation.
    #[must_use]
    pub fn seal(&self, tag: u8, digest: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&digest.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let checksum = fnv1a64(out.get(MAGIC_LEN..).unwrap_or_default());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and validates a header block, checking in order: length
    /// ≥ [`HEADER_LEN`], magic, version, tag (through the format's
    /// `decode_tag`) and the payload cap. Stream readers call this on the
    /// first [`HEADER_LEN`] bytes to learn how much more to read.
    ///
    /// # Errors
    ///
    /// [`EnvelopeError::Truncated`], [`BadMagic`](EnvelopeError::BadMagic),
    /// [`UnsupportedVersion`](EnvelopeError::UnsupportedVersion),
    /// [`UnknownTag`](EnvelopeError::UnknownTag) or
    /// [`Oversized`](EnvelopeError::Oversized), whichever check fails first.
    pub fn parse_header<T>(
        &self,
        bytes: &[u8],
        decode_tag: impl FnOnce(u8) -> Option<T>,
    ) -> Result<Header<T>, EnvelopeError> {
        let truncated = || EnvelopeError::Truncated { needed: HEADER_LEN, len: bytes.len() };
        if bytes.len() < HEADER_LEN {
            return Err(truncated());
        }
        let magic: [u8; 8] = field(bytes, 0).ok_or_else(truncated)?;
        if magic != self.magic {
            return Err(EnvelopeError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes(field(bytes, 8).ok_or_else(truncated)?);
        if version != self.version {
            return Err(EnvelopeError::UnsupportedVersion {
                found: version,
                expected: self.version,
            });
        }
        let [code] = field(bytes, 10).ok_or_else(truncated)?;
        let tag = decode_tag(code).ok_or(EnvelopeError::UnknownTag { tag: code })?;
        let digest = u64::from_le_bytes(field(bytes, 11).ok_or_else(truncated)?);
        let claimed = u64::from_le_bytes(field(bytes, 19).ok_or_else(truncated)?);
        let payload_len = usize::try_from(claimed)
            .ok()
            .filter(|_| claimed <= MAX_PAYLOAD_LEN)
            .ok_or(EnvelopeError::Oversized { payload_len: claimed })?;
        Ok(Header { tag, digest, payload_len })
    }

    /// Opens one complete envelope held in `bytes`, requiring exact
    /// consumption. After [`Self::parse_header`]'s checks it checks the
    /// total length, trailing bytes and the checksum, then lends out the
    /// payload.
    ///
    /// # Errors
    ///
    /// The [`EnvelopeError`] of the first check that fails.
    pub fn open<'a, T>(
        &self,
        bytes: &'a [u8],
        decode_tag: impl FnOnce(u8) -> Option<T>,
    ) -> Result<(Header<T>, &'a [u8]), EnvelopeError> {
        let header = self.parse_header(bytes, decode_tag)?;
        let total = header.total_len();
        if bytes.len() < total {
            return Err(EnvelopeError::Truncated { needed: total, len: bytes.len() });
        }
        if bytes.len() > total {
            return Err(EnvelopeError::TrailingBytes { remaining: bytes.len() - total });
        }
        let truncated = || EnvelopeError::Truncated { needed: total, len: bytes.len() };
        let (head, rest) = bytes.split_first_chunk().ok_or_else(truncated)?;
        let (payload, trailer) = rest.split_last_chunk().ok_or_else(truncated)?;
        verify_checksum(head, payload, trailer)?;
        Ok((header, payload))
    }
}

/// Decodes an opened payload and enforces its binding to the header's
/// digest field: `digest` re-derives the digest from the decoded value, and
/// a header that claims another one is refused.
///
/// # Errors
///
/// [`EnvelopeError::Codec`] when the payload does not decode as `T`,
/// [`EnvelopeError::DigestMismatch`] when the digests disagree.
pub fn decode_bound<T: Decode>(
    claimed: u64,
    payload: &[u8],
    digest: impl FnOnce(&T) -> u64,
) -> Result<T, EnvelopeError> {
    let value: T = decode_from_slice(payload)?;
    let computed = digest(&value);
    if computed != claimed {
        return Err(EnvelopeError::DigestMismatch { claimed, computed });
    }
    Ok(value)
}

/// The `N` bytes at offset `at`, or `None` past the end (never a panic).
fn field<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..)?.first_chunk().copied()
}

/// Checks the trailer of an envelope read in pieces — the header block,
/// the payload and the checksum bytes — hashing the pieces in place.
///
/// # Errors
///
/// [`EnvelopeError::ChecksumMismatch`] when the stored checksum is not the
/// FNV-1a64 of the header after the magic followed by the payload.
pub fn verify_checksum(
    head: &[u8; HEADER_LEN],
    payload: &[u8],
    trailer: &[u8; TRAILER_LEN],
) -> Result<(), EnvelopeError> {
    let after_magic = head.get(MAGIC_LEN..).unwrap_or_default();
    let computed = fnv1a64_continue(fnv1a64(after_magic), payload);
    let stored = u64::from_le_bytes(*trailer);
    if stored != computed {
        return Err(EnvelopeError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: into the sibling `<path>.tmp`
/// first, then renamed over `path`, so a writer that dies mid-write never
/// leaves a torn file at `path`. The temporary file is removed on any
/// error. Nothing is synced to the device, so this does not guard against
/// power loss.
///
/// # Errors
///
/// Propagates the write or rename failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_writes_leave_no_temporary_behind() {
        let dir = std::env::temp_dir().join(format!("jigsaw-envelope-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("x.jigsaw");
        write_atomic(&path, b"one").expect("writes");
        write_atomic(&path, b"two").expect("overwrites");
        assert_eq!(std::fs::read(&path).expect("reads"), b"two");
        assert!(!dir.join("x.jigsaw.tmp").exists());
        // A rename onto a non-empty directory fails; the temporary goes too.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("occupied")).expect("dir");
        assert!(write_atomic(&blocked, b"x").is_err());
        assert!(!dir.join("blocked.tmp").exists(), "the tmp file survived a failed rename");
        std::fs::remove_dir_all(&dir).ok();
    }
}
