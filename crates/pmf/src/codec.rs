//! The workspace's hand-rolled binary codec: [`Encode`]/[`Decode`] plus the
//! little-endian primitives every persistable artifact builds on.
//!
//! The build environment is offline, so there is no serde; instead each
//! crate implements the trait pair for its own types, right next to the
//! type definitions (`jigsaw-pmf` for bit strings and PMFs, `jigsaw-circuit`
//! for gates and circuits, and so on up to the pipeline stages in
//! `jigsaw-core`, whose `persist` module wraps encoded stages in a
//! versioned archive). The full on-disk layout is specified in
//! `docs/FORMAT.md`.
//!
//! Design rules, enforced by the implementations in this workspace:
//!
//! * **Endian-fixed** — every multi-byte value is little-endian, so
//!   archives move between machines.
//! * **Bit-exact floats** — `f64` round-trips through [`f64::to_bits`], so
//!   a decoded artifact replays *bit-identically*, not just approximately.
//! * **Canonical encodings** — map-shaped containers are written in a
//!   sorted order that depends only on their contents, never on insertion
//!   history, so equal values always produce identical bytes.
//! * **Typed failures** — [`Decode`] returns [`CodecError`] for truncated,
//!   corrupt or out-of-range input; decoding untrusted bytes never panics
//!   and validates every invariant the in-memory constructors assert.
//!
//! # Examples
//!
//! ```
//! use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};
//!
//! let value: (u64, Vec<bool>) = (7, vec![true, false]);
//! let bytes = encode_to_vec(&value);
//! let back: (u64, Vec<bool>) = decode_from_slice(&bytes)?;
//! assert_eq!(back, value);
//! # Ok::<(), jigsaw_pmf::codec::CodecError>(())
//! ```

use std::fmt;

/// Serialises a value into the workspace's binary format.
pub trait Encode {
    /// Appends this value's encoding to the writer.
    fn encode(&self, w: &mut Writer);
}

/// Reconstructs a value from the workspace's binary format.
pub trait Decode: Sized {
    /// Reads one value from the reader, validating every invariant the
    /// type's constructors would assert.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, unknown enum tags, or
    /// values that violate the type's invariants.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Why a decode failed. Every variant is a *typed* error: corrupt or
/// truncated input must surface here, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Eof {
        /// Bytes the current read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The type being decoded.
        what: &'static str,
        /// The unrecognised tag.
        tag: u8,
    },
    /// A decoded value violates the type's invariants.
    InvalidValue {
        /// The type being decoded.
        what: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// Input remained after the value ended (only raised by
    /// [`decode_from_slice`], which requires exact consumption).
    TrailingBytes {
        /// Bytes left unread.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Eof { needed, remaining } => {
                write!(f, "input truncated: needed {needed} more bytes, {remaining} remain")
            }
            Self::InvalidTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            Self::InvalidValue { what, detail } => write!(f, "invalid {what}: {detail}"),
            Self::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the decoded value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte sink for [`Encode`] implementations. All primitives are written
/// little-endian.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (the format is
    /// pointer-width independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.put_bytes(v.as_bytes());
    }
}

/// Byte source for [`Decode`] implementations. Every read is
/// bounds-checked and returns [`CodecError::Eof`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a byte slice.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(CodecError::Eof { needed: n, remaining: self.remaining() })?;
        self.pos += n;
        Ok(slice)
    }

    /// Takes the next `N` bytes as a fixed-size array (the panic-free
    /// bridge between [`Self::take`] and `from_le_bytes`).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] if fewer than `N` bytes remain.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?.try_into().map_err(|_| CodecError::Eof { needed: N, remaining: 0 })
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on empty input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.take_array::<1>()?))
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on truncated input.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array::<2>()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on truncated input.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on truncated input.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    /// Reads a `usize` stored as a `u64`, rejecting values that do not fit
    /// this platform's pointer width.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on truncated input or
    /// [`CodecError::InvalidValue`] on overflow.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::InvalidValue {
            what: "usize",
            detail: format!("{v} exceeds this platform's pointer width"),
        })
    }

    /// Reads an `f64` from its exact IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on truncated input.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on truncated input or
    /// [`CodecError::InvalidTag`] on other byte values.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what: "bool", tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] on truncated input or
    /// [`CodecError::InvalidValue`] on malformed UTF-8.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError::InvalidValue {
            what: "string",
            detail: format!("not UTF-8: {e}"),
        })
    }

    /// Reads a sequence length and sanity-checks it against the bytes that
    /// could possibly back it (`min_item_bytes` each), so a corrupt length
    /// prefix fails with [`CodecError::Eof`] instead of attempting a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Eof`] when the declared length cannot fit in
    /// the remaining input.
    pub fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let len = self.usize()?;
        let needed = len.saturating_mul(min_item_bytes.max(1));
        if needed > self.remaining() {
            return Err(CodecError::Eof { needed, remaining: self.remaining() });
        }
        Ok(len)
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() > 0 {
            return Err(CodecError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }
}

/// Encodes a value into a fresh byte vector.
#[must_use]
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes exactly one value from a byte slice, requiring full consumption.
///
/// # Errors
///
/// Returns the value's decode error, or [`CodecError::TrailingBytes`] if
/// the slice holds more than one value.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// 64-bit FNV-1a over a byte stream — the content digest and checksum
/// function of the archive format (see `docs/FORMAT.md`). Not
/// cryptographic; it detects corruption, it does not resist forgery.
/// Every single-byte change alters the digest, because each step
/// `h ← (h ⊕ b) · P` is a bijection of `h` for fixed `b`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a64 run from the state `h` another run ended in, so
/// a checksum over pieces needs no concatenated copy:
/// `fnv1a64_continue(fnv1a64(a), b) == fnv1a64(a ‖ b)`.
#[must_use]
pub fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Blanket primitive/container implementations.
// ---------------------------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u16()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.usize()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.bool()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.str()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.seq_len(1)?;
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag { what: "Option", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("jigsaw");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "jigsaw");
        r.finish().unwrap();
    }

    #[test]
    fn floats_are_bit_exact() {
        for v in [f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1.0 + f64::EPSILON] {
            let bytes = encode_to_vec(&v);
            let back: f64 = decode_from_slice(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(u64, Option<String>)> =
            vec![(1, None), (2, Some("x".into())), (u64::MAX, Some(String::new()))];
        let bytes = encode_to_vec(&v);
        let back: Vec<(u64, Option<String>)> = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn eof_is_typed_at_every_truncation() {
        let v: Vec<u64> = (0..10).collect();
        let bytes = encode_to_vec(&v);
        for len in 0..bytes.len() {
            let err = decode_from_slice::<Vec<u64>>(&bytes[..len]).unwrap_err();
            assert!(matches!(err, CodecError::Eof { .. }), "truncation at {len} gave {err}");
        }
    }

    #[test]
    fn huge_length_prefix_fails_without_allocating() {
        // A corrupt length prefix claiming 2^60 items must fail fast.
        let mut w = Writer::new();
        w.put_u64(1 << 60);
        let err = decode_from_slice::<Vec<u64>>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::Eof { .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        let err = decode_from_slice::<u64>(&bytes).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn bool_and_option_tags_are_validated() {
        assert!(matches!(
            decode_from_slice::<bool>(&[2]),
            Err(CodecError::InvalidTag { what: "bool", tag: 2 })
        ));
        assert!(matches!(
            decode_from_slice::<Option<u8>>(&[9]),
            Err(CodecError::InvalidTag { what: "Option", tag: 9 })
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_continue(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn fnv1a64_detects_any_single_byte_flip() {
        let base = encode_to_vec(&(0..64u64).collect::<Vec<_>>());
        let digest = fnv1a64(&base);
        for i in 0..base.len() {
            let mut mutated = base.clone();
            mutated[i] ^= 0x01;
            assert_ne!(fnv1a64(&mutated), digest, "flip at byte {i} went undetected");
        }
    }
}
