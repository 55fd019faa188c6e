//! Fixed-capacity measurement-outcome bit strings.
//!
//! A [`BitString`] stores the classical outcome of measuring up to
//! [`MAX_BITS`] qubits. The convention throughout this workspace is
//! **bit *i* holds the outcome of qubit *i*** (least-significant bit =
//! qubit 0). [`std::fmt::Display`] prints qubit *n−1* leftmost, matching the
//! paper's figures: the 3-qubit outcome written `110` means Q2=1, Q1=1, Q0=0.

use std::fmt;
use std::str::FromStr;

/// Number of 64-bit words backing a [`BitString`].
const WORDS: usize = 4;

/// Maximum number of bits a [`BitString`] can hold (256).
///
/// The JigSaw reconstruction machinery operates on *observed* outcomes, so
/// this caps program width, not trial count. The Table 7 scalability model
/// (`jigsaw-core`'s analytical model) is formula-based and has no such cap.
pub const MAX_BITS: usize = WORDS * 64;

/// A measurement outcome over `len` qubits (bit *i* = qubit *i*).
///
/// # Examples
///
/// ```
/// use jigsaw_pmf::BitString;
///
/// let b = BitString::from_str_msb_first("110").unwrap();
/// assert_eq!(b.len(), 3);
/// assert!(!b.bit(0)); // Q0 = 0
/// assert!(b.bit(1));  // Q1 = 1
/// assert!(b.bit(2));  // Q2 = 1
/// assert_eq!(b.to_string(), "110");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitString {
    words: [u64; WORDS],
    len: u16,
}

impl BitString {
    /// Creates the all-zero outcome over `len` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS`.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        assert!(len <= MAX_BITS, "BitString supports at most {MAX_BITS} bits, got {len}");
        Self { words: [0; WORDS], len: len as u16 }
    }

    /// Creates the all-one outcome over `len` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS`.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut b = Self::zeros(len);
        for i in 0..len {
            b.set_bit(i, true);
        }
        b
    }

    /// Creates an outcome over `len` qubits from the low `len` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS`, or if `len < 64` and `value` has bits set
    /// at or above position `len`.
    #[must_use]
    pub fn from_u64(value: u64, len: usize) -> Self {
        let mut b = Self::zeros(len);
        if len < 64 {
            assert!(value < (1u64 << len), "value {value:#x} does not fit in {len} bits");
        }
        b.words[0] = value;
        b
    }

    /// Returns the outcome as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the string is wider than 64 bits (the value would truncate).
    #[must_use]
    pub fn to_u64(self) -> u64 {
        assert!(self.len <= 64, "BitString of {} bits does not fit in u64", self.len);
        self.words[0]
    }

    /// Parses an outcome written most-significant-qubit first (paper order),
    /// e.g. `"110"` for Q2=1, Q1=1, Q0=0.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBitStringError`] if the input is empty, longer than
    /// [`MAX_BITS`], or contains characters other than `0`/`1`.
    pub fn from_str_msb_first(s: &str) -> Result<Self, ParseBitStringError> {
        if s.is_empty() {
            return Err(ParseBitStringError::Empty);
        }
        if s.len() > MAX_BITS {
            return Err(ParseBitStringError::TooLong { len: s.len() });
        }
        let mut b = Self::zeros(s.len());
        for (pos, ch) in s.chars().enumerate() {
            let bit_index = s.len() - 1 - pos;
            match ch {
                '0' => {}
                '1' => b.set_bit(bit_index, true),
                other => return Err(ParseBitStringError::BadChar { ch: other }),
            }
        }
        Ok(b)
    }

    /// Number of qubits this outcome spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` for the width-zero string (no qubits).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the outcome of qubit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index {i} out of range for {} bits", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the outcome of qubit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(i < self.len(), "bit index {i} out of range for {} bits", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips the outcome of qubit `i` and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn flip_bit(&mut self, i: usize) -> bool {
        let v = !self.bit(i);
        self.set_bit(i, v);
        v
    }

    /// Number of qubits measured as 1.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Projects this outcome onto a subset of qubits.
    ///
    /// `qubits[k]` gives the source qubit whose outcome becomes bit `k` of
    /// the result. This is the marginalisation primitive of the Bayesian
    /// Reconstruction algorithm: for a global outcome over Q2Q1Q0 and the
    /// marginal over `[Q0, Q1]`, `project(&[0, 1])` extracts the two bits.
    ///
    /// # Panics
    ///
    /// Panics if any index in `qubits` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use jigsaw_pmf::BitString;
    ///
    /// let global = BitString::from_str_msb_first("100").unwrap(); // Q2=1
    /// let marginal = global.project(&[0, 2]);                     // (Q0, Q2)
    /// assert_eq!(marginal.to_string(), "10");                     // Q2=1, Q0=0
    /// ```
    #[must_use]
    pub fn project(&self, qubits: &[usize]) -> Self {
        let mut out = Self::zeros(qubits.len());
        for (k, &q) in qubits.iter().enumerate() {
            if self.bit(q) {
                out.set_bit(k, true);
            }
        }
        out
    }

    /// Concatenates `other` above `self`: the result has `self`'s bits in
    /// positions `0..self.len()` and `other`'s bits above them.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_BITS`].
    #[must_use]
    pub fn concat(&self, other: &Self) -> Self {
        let total = self.len() + other.len();
        let mut out = Self::zeros(total);
        out.words = self.words;
        for i in 0..other.len() {
            if other.bit(i) {
                out.set_bit(self.len() + i, true);
            }
        }
        out
    }

    /// Hamming distance to another outcome of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &Self) -> u32 {
        assert_eq!(self.len, other.len, "hamming distance requires equal widths");
        self.words.iter().zip(other.words.iter()).map(|(a, b)| (a ^ b).count_ones()).sum()
    }
}

impl std::ops::BitXorAssign<&BitString> for BitString {
    /// Bitwise XOR with another outcome of the same width — the coset-walk
    /// primitive of the stabilizer sampler (outcome = base ⊕ generators).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    fn bitxor_assign(&mut self, rhs: &BitString) {
        assert_eq!(self.len, rhs.len, "XOR requires equal widths");
        for (w, r) in self.words.iter_mut().zip(rhs.words.iter()) {
            *w ^= r;
        }
    }
}

impl std::ops::BitXor for BitString {
    type Output = BitString;

    /// Bitwise XOR of two outcomes of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    fn bitxor(mut self, rhs: BitString) -> BitString {
        self ^= &rhs;
        self
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl fmt::Binary for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for BitString {
    type Err = ParseBitStringError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_str_msb_first(s)
    }
}

/// Wire format: `len` as `u16`, then `⌈len/64⌉` little-endian `u64` words
/// (low qubits first). Words beyond the width are never written; padding
/// bits of the last word must be zero, which decode enforces so equality
/// and hashing invariants survive untrusted input.
impl crate::codec::Encode for BitString {
    fn encode(&self, w: &mut crate::codec::Writer) {
        w.put_u16(self.len);
        // analyze:allow(panic-reach, len <= MAX_BITS keeps the bound within the WORDS array)
        for word in &self.words[..(self.len as usize).div_ceil(64)] {
            w.put_u64(*word);
        }
    }
}

impl crate::codec::Decode for BitString {
    fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let len = r.u16()?;
        if usize::from(len) > MAX_BITS {
            return Err(CodecError::InvalidValue {
                what: "BitString",
                detail: format!("width {len} exceeds the {MAX_BITS}-bit capacity"),
            });
        }
        let mut words = [0u64; WORDS];
        let n_words = usize::from(len).div_ceil(64);
        for word in words.iter_mut().take(n_words) {
            *word = r.u64()?;
        }
        let tail_bits = usize::from(len) % 64;
        // analyze:allow(panic-reach, guarded by n_words > 0 in the same condition)
        if n_words > 0 && tail_bits != 0 && words[n_words - 1] >> tail_bits != 0 {
            return Err(CodecError::InvalidValue {
                what: "BitString",
                detail: format!("padding bits above width {len} are set"),
            });
        }
        Ok(Self { words, len })
    }
}

/// Error produced when parsing a [`BitString`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBitStringError {
    /// The input string was empty.
    Empty,
    /// The input string had more than [`MAX_BITS`] characters.
    TooLong {
        /// Offending length.
        len: usize,
    },
    /// The input contained a character other than `0` or `1`.
    BadChar {
        /// Offending character.
        ch: char,
    },
}

impl fmt::Display for ParseBitStringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "bit string is empty"),
            Self::TooLong { len } => {
                write!(f, "bit string of {len} bits exceeds the {MAX_BITS}-bit capacity")
            }
            Self::BadChar { ch } => write!(f, "invalid bit character {ch:?}"),
        }
    }
}

impl std::error::Error for ParseBitStringError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_set_bits() {
        let b = BitString::zeros(17);
        assert_eq!(b.len(), 17);
        assert_eq!(b.count_ones(), 0);
        assert!((0..b.len()).all(|i| !b.bit(i)));
    }

    #[test]
    fn ones_sets_every_bit() {
        let b = BitString::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert!(b.bit(69));
    }

    #[test]
    fn from_u64_round_trips() {
        let b = BitString::from_u64(0b1011, 4);
        assert_eq!(b.to_u64(), 0b1011);
        assert!(b.bit(0) && b.bit(1) && !b.bit(2) && b.bit(3));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_u64_rejects_oversized_value() {
        let _ = BitString::from_u64(0b100, 2);
    }

    #[test]
    fn display_is_msb_first() {
        let b = BitString::from_u64(0b110, 3);
        assert_eq!(b.to_string(), "110");
        assert_eq!(format!("{b:b}"), "110");
    }

    #[test]
    fn parse_round_trips_display() {
        for s in ["0", "1", "0101", "111000111", "10000000000000000000001"] {
            let b: BitString = s.parse().unwrap();
            assert_eq!(b.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!("".parse::<BitString>(), Err(ParseBitStringError::Empty));
        assert_eq!("01x".parse::<BitString>(), Err(ParseBitStringError::BadChar { ch: 'x' }));
        let long = "0".repeat(MAX_BITS + 1);
        assert_eq!(
            long.parse::<BitString>(),
            Err(ParseBitStringError::TooLong { len: MAX_BITS + 1 })
        );
    }

    #[test]
    fn set_and_flip_bits() {
        let mut b = BitString::zeros(5);
        b.set_bit(3, true);
        assert!(b.bit(3));
        assert!(!b.flip_bit(3));
        assert!(!b.bit(3));
        assert!(b.flip_bit(0));
        assert_eq!(b.to_string(), "00001");
    }

    #[test]
    fn project_extracts_subset_in_order() {
        let g: BitString = "1100".parse().unwrap(); // Q3=1 Q2=1 Q1=0 Q0=0
        assert_eq!(g.project(&[2, 3]).to_string(), "11");
        assert_eq!(g.project(&[0, 1]).to_string(), "00");
        assert_eq!(g.project(&[3, 0]).to_string(), "01"); // bit0=Q3=1, bit1=Q0=0
    }

    #[test]
    fn project_across_word_boundary() {
        let mut g = BitString::zeros(130);
        g.set_bit(0, true);
        g.set_bit(64, true);
        g.set_bit(129, true);
        let p = g.project(&[0, 64, 129, 65]);
        assert_eq!(p.to_string(), "0111");
    }

    #[test]
    fn concat_places_other_above_self() {
        let low: BitString = "01".parse().unwrap(); // Q0=1
        let high: BitString = "10".parse().unwrap(); // Q1=1
        let c = low.concat(&high);
        assert_eq!(c.len(), 4);
        assert_eq!(c.to_string(), "1001");
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a: BitString = "1010".parse().unwrap();
        let b: BitString = "0110".parse().unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn xor_flips_differing_bits() {
        let a: BitString = "1010".parse().unwrap();
        let b: BitString = "0110".parse().unwrap();
        assert_eq!((a ^ b).to_string(), "1100");
        let mut c = a;
        c ^= &a;
        assert_eq!(c, BitString::zeros(4));
        let mut wide = BitString::zeros(130);
        wide.set_bit(129, true);
        let mut other = BitString::zeros(130);
        other.set_bit(129, true);
        other.set_bit(3, true);
        wide ^= &other;
        assert!(!wide.bit(129) && wide.bit(3));
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn xor_rejects_width_mismatch() {
        let mut a = BitString::zeros(3);
        a ^= &BitString::zeros(4);
    }

    #[test]
    fn ordering_is_total_and_consistent_with_value() {
        let a = BitString::from_u64(3, 4);
        let b = BitString::from_u64(5, 4);
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let b = BitString::zeros(4);
        let _ = b.bit(4);
    }
}
