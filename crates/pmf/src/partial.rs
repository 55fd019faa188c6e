//! Partial-result wire types for distributed CPM sweeps.
//!
//! A distributed sweep scatters contiguous ranges of the canonical CPM
//! work list to worker processes and merges the returned histograms back
//! in input order (`docs/FORMAT.md` §7). The types here are the payloads
//! that cross the wire: one [`CpmHistogram`] per CPM work item and one
//! [`ShardPartial`] per shard. They deliberately carry *raw* [`Counts`]
//! rather than normalised PMFs — normalisation (`Counts::to_pmf`) is
//! deterministic, so deferring it to the merging driver keeps the final
//! result bit-identical to an in-process run.
//!
//! Both `Decode` impls validate the structural invariants (strictly
//! ascending qubit subsets, width agreement, a contiguous `cpm_index`
//! run covering exactly `lo..hi`) so a corrupt or adversarial frame
//! surfaces a typed [`CodecError`] instead of poisoning a merge.

use crate::codec::{CodecError, Decode, Encode, Reader, Writer};
use crate::Counts;

/// The raw histogram of one CPM work item, tagged with its position in
/// the canonical CPM order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpmHistogram {
    /// Index of this item in the canonical CPM work list (global across
    /// subset layers, in layer order).
    pub cpm_index: u64,
    /// The measured qubit subset, strictly ascending.
    pub qubits: Vec<usize>,
    /// Raw trial histogram over `qubits` (width = `qubits.len()`).
    pub counts: Counts,
}

/// Wire format: `cpm_index` (`u64`), the qubit subset (`u64` count then
/// `u64` indices), then the canonical [`Counts`] encoding.
impl Encode for CpmHistogram {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.cpm_index);
        self.qubits.encode(w);
        self.counts.encode(w);
    }
}

impl Decode for CpmHistogram {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let cpm_index = r.u64()?;
        let qubits = Vec::<usize>::decode(r)?;
        if !qubits.iter().zip(qubits.iter().skip(1)).all(|(a, b)| a < b) {
            return Err(CodecError::InvalidValue {
                what: "CpmHistogram",
                detail: "qubit subset not strictly ascending".into(),
            });
        }
        let counts = Counts::decode(r)?;
        if counts.n_bits() != qubits.len() {
            return Err(CodecError::InvalidValue {
                what: "CpmHistogram",
                detail: format!(
                    "histogram width {} does not match the {}-qubit subset",
                    counts.n_bits(),
                    qubits.len()
                ),
            });
        }
        Ok(Self { cpm_index, qubits, counts })
    }
}

/// One shard's worth of CPM results: the histograms for the contiguous
/// work-list range `lo..hi`, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPartial {
    /// Index of the shard in the driver's shard plan; the merge key.
    pub shard_index: u64,
    /// First CPM work-list index covered (inclusive).
    pub lo: u64,
    /// One past the last CPM work-list index covered (exclusive).
    pub hi: u64,
    /// One histogram per work item in `lo..hi`, in work-list order.
    pub histograms: Vec<CpmHistogram>,
}

/// Wire format: `shard_index`, `lo`, `hi` (all `u64`), then the
/// histogram sequence (`u64` count, then [`CpmHistogram`]s).
impl Encode for ShardPartial {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.shard_index);
        w.put_u64(self.lo);
        w.put_u64(self.hi);
        self.histograms.encode(w);
    }
}

impl Decode for ShardPartial {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let shard_index = r.u64()?;
        let lo = r.u64()?;
        let hi = r.u64()?;
        if lo >= hi {
            return Err(CodecError::InvalidValue {
                what: "ShardPartial",
                detail: format!("empty or inverted range {lo}..{hi}"),
            });
        }
        let histograms = Vec::<CpmHistogram>::decode(r)?;
        if histograms.len() as u64 != hi - lo {
            return Err(CodecError::InvalidValue {
                what: "ShardPartial",
                detail: format!("range {lo}..{hi} carries {} histograms", histograms.len()),
            });
        }
        for (offset, h) in histograms.iter().enumerate() {
            if h.cpm_index != lo + offset as u64 {
                return Err(CodecError::InvalidValue {
                    what: "ShardPartial",
                    detail: format!(
                        "histogram {offset} claims CPM index {} in range {lo}..{hi}",
                        h.cpm_index
                    ),
                });
            }
        }
        Ok(Self { shard_index, lo, hi, histograms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};
    use crate::BitString;

    fn histogram(cpm_index: u64, qubits: Vec<usize>) -> CpmHistogram {
        let mut counts = Counts::new(qubits.len());
        counts.record_many(BitString::from_u64(1, qubits.len()), 7);
        counts.record_many(BitString::from_u64(0, qubits.len()), 3);
        CpmHistogram { cpm_index, qubits, counts }
    }

    fn partial() -> ShardPartial {
        ShardPartial {
            shard_index: 2,
            lo: 4,
            hi: 6,
            histograms: vec![histogram(4, vec![0, 3]), histogram(5, vec![1, 2, 5])],
        }
    }

    #[test]
    fn round_trips() {
        let h = histogram(9, vec![1, 4]);
        assert_eq!(decode_from_slice::<CpmHistogram>(&encode_to_vec(&h)).unwrap(), h);
        let p = partial();
        assert_eq!(decode_from_slice::<ShardPartial>(&encode_to_vec(&p)).unwrap(), p);
    }

    #[test]
    fn histogram_decode_rejects_structural_lies() {
        let mut unsorted = histogram(0, vec![3, 1]);
        unsorted.counts = Counts::new(2);
        let err = decode_from_slice::<CpmHistogram>(&encode_to_vec(&unsorted)).unwrap_err();
        assert!(format!("{err}").contains("ascending"), "{err}");

        let mut wrong_width = histogram(0, vec![1, 4]);
        wrong_width.counts = Counts::new(3);
        let err = decode_from_slice::<CpmHistogram>(&encode_to_vec(&wrong_width)).unwrap_err();
        assert!(format!("{err}").contains("width"), "{err}");
    }

    #[test]
    fn partial_decode_rejects_structural_lies() {
        let mut inverted = partial();
        (inverted.lo, inverted.hi) = (6, 4);
        let err = decode_from_slice::<ShardPartial>(&encode_to_vec(&inverted)).unwrap_err();
        assert!(format!("{err}").contains("inverted"), "{err}");

        let mut short = partial();
        short.histograms.pop();
        let err = decode_from_slice::<ShardPartial>(&encode_to_vec(&short)).unwrap_err();
        assert!(format!("{err}").contains("histograms"), "{err}");

        let mut gapped = partial();
        gapped.histograms[1].cpm_index = 9;
        let err = decode_from_slice::<ShardPartial>(&encode_to_vec(&gapped)).unwrap_err();
        assert!(format!("{err}").contains("claims CPM index"), "{err}");
    }
}
