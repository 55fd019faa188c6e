//! Sparse probability mass functions over measurement outcomes.
//!
//! JigSaw's reconstruction stores **only observed (non-zero) entries** — the
//! key scalability property of §7: the number of entries is bounded by the
//! number of trials, not by `2^n`.

use crate::hashing::DetHashMap;
use crate::BitString;

/// A sparse PMF over `n_bits`-qubit outcomes.
///
/// Entries absent from the map have probability zero. Most constructors keep
/// the invariant that stored probabilities are non-negative; use
/// [`Pmf::normalize`] to rescale total mass to 1 after bulk edits.
///
/// # Examples
///
/// ```
/// use jigsaw_pmf::{BitString, Pmf};
///
/// let mut pmf = Pmf::new(2);
/// pmf.set(BitString::from_u64(0b00, 2), 0.3);
/// pmf.set(BitString::from_u64(0b11, 2), 0.9);
/// pmf.normalize();
/// assert!((pmf.prob(&BitString::from_u64(0b11, 2)) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pmf {
    n_bits: usize,
    probs: DetHashMap<BitString, f64>,
}

impl Pmf {
    /// Creates an empty (all-zero) PMF over `n_bits` qubits.
    #[must_use]
    pub fn new(n_bits: usize) -> Self {
        Self { n_bits, probs: DetHashMap::default() }
    }

    /// Creates a PMF that puts all mass on a single outcome.
    #[must_use]
    pub fn point_mass(outcome: BitString) -> Self {
        let mut p = Self::new(outcome.len());
        p.set(outcome, 1.0);
        p
    }

    /// Creates the uniform PMF over all `2^n_bits` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits > 20` (the dense enumeration would be excessive; the
    /// rest of the workspace never needs a wider uniform PMF).
    #[must_use]
    pub fn uniform(n_bits: usize) -> Self {
        assert!(n_bits <= 20, "dense uniform PMF capped at 20 qubits, got {n_bits}");
        let k = 1usize << n_bits;
        let p = 1.0 / k as f64;
        let mut pmf = Self::new(n_bits);
        for v in 0..k {
            pmf.set(BitString::from_u64(v as u64, n_bits), p);
        }
        pmf
    }

    /// Number of qubits each outcome spans.
    #[must_use]
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Probability of `outcome` (zero when absent).
    #[must_use]
    pub fn prob(&self, outcome: &BitString) -> f64 {
        self.probs.get(outcome).copied().unwrap_or(0.0)
    }

    /// Sets the probability of `outcome`. A value of exactly zero removes the
    /// entry, keeping the PMF sparse.
    ///
    /// # Panics
    ///
    /// Panics if the outcome width mismatches or `value` is negative/NaN.
    pub fn set(&mut self, outcome: BitString, value: f64) {
        assert_eq!(
            outcome.len(),
            self.n_bits,
            "outcome width {} does not match PMF width {}",
            outcome.len(),
            self.n_bits
        );
        assert!(value >= 0.0, "probabilities must be non-negative, got {value}");
        if value == 0.0 {
            self.probs.remove(&outcome);
        } else {
            self.probs.insert(outcome, value);
        }
    }

    /// Adds `value` to the probability of `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if the outcome width mismatches.
    pub fn add(&mut self, outcome: BitString, value: f64) {
        let current = self.prob(&outcome);
        self.set(outcome, (current + value).max(0.0));
    }

    /// Number of outcomes with non-zero probability.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.probs.len()
    }

    /// Sum of all stored probabilities (1.0 for a normalised PMF).
    ///
    /// Accumulates in the canonical [`Self::sorted_entries`] order, so the
    /// mass depends only on the PMF's *contents* — two PMFs with equal
    /// entries report bit-identical masses regardless of how either was
    /// built (e.g. one decoded from an archive, one grown trial by trial).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.sorted_entries().iter().map(|(_, p)| p).sum()
    }

    /// Rescales so the total mass is 1. No-op on an all-zero PMF.
    /// Content-deterministic like [`Self::total_mass`].
    pub fn normalize(&mut self) {
        let mass = self.total_mass();
        if mass > 0.0 {
            for v in self.probs.values_mut() {
                *v /= mass;
            }
        }
    }

    /// Returns a normalised copy.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut p = self.clone();
        p.normalize();
        p
    }

    /// Iterates over `(outcome, probability)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&BitString, f64)> {
        self.probs.iter().map(|(b, &p)| (b, p))
    }

    /// Entries in **canonical order** (ascending outcome value).
    ///
    /// This is the stable ordering every sharded/parallel operation walks
    /// (in [`crate::parallel::SHARD_SIZE`] chunks): it depends
    /// only on the PMF's *contents*, never on insertion history or thread
    /// scheduling, so partial results computed over contiguous slices of it
    /// merge reproducibly — and iterated callers that keep their output in
    /// this order (as Bayesian reconstruction does) sort only once.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(BitString, f64)> {
        let mut v: Vec<(BitString, f64)> = self.probs.iter().map(|(b, &p)| (*b, p)).collect();
        v.sort_unstable_by_key(|(b, _)| *b);
        v
    }

    /// Outcomes sorted by descending probability (ties by outcome value so
    /// results are deterministic).
    #[must_use]
    pub fn sorted_desc(&self) -> Vec<(BitString, f64)> {
        let mut v: Vec<(BitString, f64)> = self.probs.iter().map(|(b, &p)| (*b, p)).collect();
        v.sort_by(|(ba, pa), (bb, pb)| pb.partial_cmp(pa).unwrap().then_with(|| ba.cmp(bb)));
        v
    }

    /// The `k` most probable outcomes.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(BitString, f64)> {
        let mut v = self.sorted_desc();
        v.truncate(k);
        v
    }

    /// The single most probable outcome, if the PMF is non-empty.
    #[must_use]
    pub fn mode(&self) -> Option<BitString> {
        self.sorted_desc().first().map(|(b, _)| *b)
    }

    /// Marginal PMF over a subset of qubits: probabilities of outcomes that
    /// agree on the subset are summed.
    ///
    /// Projection walks the canonical [`Self::sorted_entries`] order, so
    /// each marginal probability's floating-point accumulation is a pure
    /// function of the PMF's contents — the property adaptive subset
    /// selection (and any archive-resumed replay) relies on for
    /// bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if any subset index is out of range.
    #[must_use]
    pub fn marginal(&self, qubits: &[usize]) -> Self {
        let mut out = Self::new(qubits.len());
        for (b, p) in self.sorted_entries() {
            out.add(b.project(qubits), p);
        }
        out
    }

    /// Adds `scale * other` into this PMF entry-wise (used by the final
    /// "add each Ppost to P" step of Bayesian Reconstruction). Walks
    /// `other` in canonical order, so the result is content-deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add_scaled(&mut self, other: &Self, scale: f64) {
        assert_eq!(self.n_bits, other.n_bits, "cannot add PMFs of different widths");
        for (b, p) in other.sorted_entries() {
            self.add(b, scale * p);
        }
    }

    /// Total probability mass assigned to a set of outcomes (e.g. PST over a
    /// correct-answer set).
    #[must_use]
    pub fn mass_of(&self, outcomes: &[BitString]) -> f64 {
        outcomes.iter().map(|b| self.prob(b)).sum()
    }

    /// Draws `n` samples from the PMF using the provided RNG, returning a
    /// deterministic-given-seed outcome list. The PMF must be normalised (or
    /// at least have positive mass).
    ///
    /// # Panics
    ///
    /// Panics if the PMF is empty.
    pub fn sample<R: rand::Rng>(&self, n: usize, rng: &mut R) -> Vec<BitString> {
        assert!(self.support_size() > 0, "cannot sample from an empty PMF");
        // Deterministic ordering so identical seeds give identical samples.
        let entries = self.sorted_desc();
        let mass = self.total_mass();
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        for (b, p) in &entries {
            acc += p / mass;
            cumulative.push((acc, *b));
        }
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                // The draw selects the first entry whose cumulative mass
                // reaches `u`; an exact hit (`Ok`) is that entry itself.
                let i = match cumulative.binary_search_by(|(c, _)| c.partial_cmp(&u).unwrap()) {
                    Ok(i) | Err(i) => i,
                };
                cumulative[i.min(cumulative.len() - 1)].1
            })
            .collect()
    }
}

/// Wire format: `n_bits` as `u64`, then the support in **canonical order**
/// (`u64` entry count, then `(BitString, f64-bits)` pairs sorted ascending
/// by outcome). Equal PMFs therefore always encode to identical bytes, no
/// matter how they were built. Decode enforces the canonical invariants —
/// matching widths, strictly ascending outcomes, positive finite
/// probabilities — so corrupt archives surface typed errors instead of
/// undefined PMFs.
impl crate::codec::Encode for Pmf {
    fn encode(&self, w: &mut crate::codec::Writer) {
        w.put_usize(self.n_bits);
        let entries = self.sorted_entries();
        w.put_usize(entries.len());
        for (b, p) in entries {
            crate::codec::Encode::encode(&b, w);
            w.put_f64(p);
        }
    }
}

impl crate::codec::Decode for Pmf {
    fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let n_bits = r.usize()?;
        if n_bits > crate::MAX_BITS {
            return Err(CodecError::InvalidValue {
                what: "Pmf",
                detail: format!("width {n_bits} exceeds the {}-bit capacity", crate::MAX_BITS),
            });
        }
        let len = r.seq_len(2 + 8)?; // ≥ 2 bytes of BitString + 8 of f64
        let mut pmf = Pmf::new(n_bits);
        let mut prev: Option<BitString> = None;
        for _ in 0..len {
            let b = BitString::decode(r)?;
            let p = r.f64()?;
            if b.len() != n_bits {
                return Err(CodecError::InvalidValue {
                    what: "Pmf",
                    detail: format!("entry width {} in a {n_bits}-bit PMF", b.len()),
                });
            }
            if prev.is_some_and(|prev| prev >= b) {
                return Err(CodecError::InvalidValue {
                    what: "Pmf",
                    detail: "support not in strictly ascending canonical order".into(),
                });
            }
            if !(p > 0.0 && p.is_finite()) {
                return Err(CodecError::InvalidValue {
                    what: "Pmf",
                    detail: format!("probability {p} of {b} is not positive and finite"),
                });
            }
            pmf.set(b, p);
            prev = Some(b);
        }
        Ok(pmf)
    }
}

impl FromIterator<(BitString, f64)> for Pmf {
    /// Collects `(outcome, weight)` pairs and normalises.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty or widths are inconsistent.
    fn from_iter<I: IntoIterator<Item = (BitString, f64)>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let (first, w) = it.next().expect("cannot infer width from an empty stream");
        let mut pmf = Pmf::new(first.len());
        pmf.set(first, w);
        for (b, p) in it {
            pmf.add(b, p);
        }
        pmf.normalize();
        pmf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bs(s: &str) -> BitString {
        s.parse().unwrap()
    }

    #[test]
    fn set_zero_removes_entry() {
        let mut p = Pmf::new(2);
        p.set(bs("01"), 0.5);
        assert_eq!(p.support_size(), 1);
        p.set(bs("01"), 0.0);
        assert_eq!(p.support_size(), 0);
        assert_eq!(p.prob(&bs("01")), 0.0);
    }

    #[test]
    fn normalize_scales_to_unit_mass() {
        let mut p = Pmf::new(1);
        p.set(bs("0"), 2.0);
        p.set(bs("1"), 6.0);
        p.normalize();
        assert!((p.prob(&bs("1")) - 0.75).abs() < 1e-12);
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_covers_all_outcomes() {
        let p = Pmf::uniform(3);
        assert_eq!(p.support_size(), 8);
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
        assert!((p.prob(&bs("101")) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn point_mass_is_deterministic() {
        let p = Pmf::point_mass(bs("1011"));
        assert_eq!(p.mode(), Some(bs("1011")));
        assert_eq!(p.support_size(), 1);
    }

    #[test]
    fn marginal_sums_mass() {
        let mut p = Pmf::new(3);
        p.set(bs("000"), 0.25);
        p.set(bs("100"), 0.25);
        p.set(bs("011"), 0.5);
        let m = p.marginal(&[0, 1]);
        assert!((m.prob(&bs("00")) - 0.5).abs() < 1e-12);
        assert!((m.prob(&bs("11")) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sorted_desc_breaks_ties_by_outcome() {
        let mut p = Pmf::new(2);
        p.set(bs("10"), 0.4);
        p.set(bs("01"), 0.4);
        p.set(bs("00"), 0.2);
        let order: Vec<String> = p.sorted_desc().iter().map(|(b, _)| b.to_string()).collect();
        assert_eq!(order, vec!["01", "10", "00"]);
    }

    #[test]
    fn add_scaled_merges() {
        let mut p = Pmf::new(1);
        p.set(bs("0"), 0.5);
        let mut q = Pmf::new(1);
        q.set(bs("0"), 0.2);
        q.set(bs("1"), 0.8);
        p.add_scaled(&q, 0.5);
        assert!((p.prob(&bs("0")) - 0.6).abs() < 1e-12);
        assert!((p.prob(&bs("1")) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mass_of_sums_selected_outcomes() {
        let p = Pmf::uniform(2);
        assert!((p.mass_of(&[bs("00"), bs("11")]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_matches_distribution_roughly() {
        let mut p = Pmf::new(1);
        p.set(bs("0"), 0.2);
        p.set(bs("1"), 0.8);
        let mut rng = StdRng::seed_from_u64(7);
        let samples = p.sample(10_000, &mut rng);
        let ones = samples.iter().filter(|b| b.bit(0)).count();
        let frac = ones as f64 / 10_000.0;
        assert!((frac - 0.8).abs() < 0.02, "sampled fraction {frac}");
    }

    #[test]
    fn sample_is_seed_deterministic() {
        let p = Pmf::uniform(4);
        let a = p.sample(100, &mut StdRng::seed_from_u64(1));
        let b = p.sample(100, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    /// Replays a fixed word stream; `gen::<f64>()` maps each word `w` to
    /// `(w >> 11) * 2⁻⁵³`, so exact cumulative boundaries can be pinned.
    struct FixedWords {
        words: Vec<u64>,
        next: usize,
    }

    impl rand::RngCore for FixedWords {
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.next];
            self.next += 1;
            w
        }
    }

    #[test]
    fn sample_exact_cumulative_hit_takes_first_reaching_entry() {
        // Two equal entries: cumulative = [(0.5, "0"), (1.0, "1")] (ties in
        // sorted_desc break by ascending outcome). A draw of exactly 0.5
        // must select "0" — the first entry whose cumulative mass reaches
        // the draw — not skip past it to "1".
        let mut p = Pmf::new(1);
        p.set(bs("0"), 0.5);
        p.set(bs("1"), 0.5);
        let half = 1u64 << 52; // (half << 11) >> 11 = 2^52 → f64 0.5 exactly
        let mut rng = FixedWords { words: vec![half << 11, 0, (1u64 << 63) | (1 << 11)], next: 0 };
        let samples = p.sample(3, &mut rng);
        assert_eq!(samples[0], bs("0"), "exact boundary draw must not skip the hit entry");
        assert_eq!(samples[1], bs("0"), "u = 0.0 selects the first entry");
        assert_eq!(samples[2], bs("1"), "u > 0.5 selects the second entry");
    }

    #[test]
    fn sorted_entries_is_canonical() {
        let mut p = Pmf::new(2);
        p.set(bs("10"), 0.5);
        p.set(bs("01"), 0.3);
        p.set(bs("11"), 0.2);
        let order: Vec<String> = p.sorted_entries().iter().map(|(b, _)| b.to_string()).collect();
        assert_eq!(order, vec!["01", "10", "11"]);

        // Same contents, different insertion history → same canonical order.
        let mut q = Pmf::new(2);
        q.set(bs("11"), 0.2);
        q.set(bs("10"), 0.5);
        q.set(bs("01"), 0.3);
        assert_eq!(p.sorted_entries(), q.sorted_entries());
    }

    #[test]
    fn sharded_entry_reductions_are_thread_count_invariant() {
        let mut p = Pmf::new(14);
        for v in 0..9000u64 {
            p.set(BitString::from_u64(v, 14), 1.0 + (v % 7) as f64);
        }
        let entries = p.sorted_entries();
        let masses = |t| {
            let shards = entries.chunks(crate::parallel::SHARD_SIZE).collect();
            crate::parallel::fan_out(shards, t, |shard: &[(BitString, f64)]| {
                shard.iter().map(|(_, w)| w).sum::<f64>()
            })
        };
        let serial = masses(1);
        assert_eq!(serial.len(), 3, "9000 entries → three fixed-size shards");
        for threads in [0, 2, 3, 8] {
            assert_eq!(masses(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn accumulating_ops_are_insertion_order_invariant() {
        // Build the same contents along two very different insertion
        // histories; every accumulating operation must agree bit for bit.
        let entries: Vec<(BitString, f64)> = (0..500u64)
            .map(|v| (BitString::from_u64(v * 7 % 1024, 10), 1.0 / (v + 3) as f64))
            .collect();
        let mut fwd = Pmf::new(10);
        for (b, p) in &entries {
            fwd.add(*b, *p);
        }
        let mut rev = Pmf::new(10);
        for (b, p) in entries.iter().rev() {
            rev.add(*b, *p);
        }
        assert_eq!(fwd.total_mass().to_bits(), rev.total_mass().to_bits());
        assert_eq!(fwd.marginal(&[0, 3, 7]), rev.marginal(&[0, 3, 7]));
        let mut nf = fwd.clone();
        let mut nr = rev.clone();
        nf.normalize();
        nr.normalize();
        assert_eq!(nf, nr);
    }

    #[test]
    fn codec_round_trip_is_bit_identical() {
        use crate::codec::{decode_from_slice, encode_to_vec};
        let mut p = Pmf::new(9);
        for v in [0u64, 5, 17, 400, 511] {
            p.set(BitString::from_u64(v, 9), 1.0 / (v + 1) as f64);
        }
        let bytes = encode_to_vec(&p);
        let back: Pmf = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, p);
        // Canonical encoding: re-encoding the decoded value reproduces the
        // original bytes exactly.
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn codec_rejects_corrupt_pmfs() {
        use crate::codec::{decode_from_slice, encode_to_vec, CodecError};
        let mut p = Pmf::new(4);
        p.set(bs("0011"), 0.5);
        p.set(bs("1100"), 0.5);
        let bytes = encode_to_vec(&p);
        // Flipping the stored probability sign makes it non-positive.
        let mut bad = bytes.clone();
        let last8 = bad.len() - 8;
        bad[last8 + 7] ^= 0x80;
        assert!(matches!(
            decode_from_slice::<Pmf>(&bad),
            Err(CodecError::InvalidValue { what: "Pmf", .. })
        ));
        // Truncations are typed errors, never panics.
        for len in 0..bytes.len() {
            assert!(decode_from_slice::<Pmf>(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn from_iterator_normalises() {
        let p: Pmf = vec![(bs("00"), 1.0), (bs("11"), 3.0)].into_iter().collect();
        assert!((p.prob(&bs("11")) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn set_rejects_negative() {
        let mut p = Pmf::new(1);
        p.set(bs("0"), -0.1);
    }
}
