//! The Bayesian Reconstruction algorithm (paper §4.3, Algorithm 1).
//!
//! The global-PMF is the *prior*; each CPM's local-PMF is higher-fidelity
//! evidence about a qubit subset. One update scales every global outcome by
//! its subset-conditional coefficient times the marginal odds
//! `pr/(1 − pr)`; one reconstruction round adds every marginal's posterior
//! back onto the prior and renormalises; rounds repeat until the Hellinger
//! distance between successive outputs falls below the configured
//! tolerance.
//!
//! Only the prior's observed (non-zero) entries are ever touched, which is
//! what gives JigSaw its linear memory/time complexity (§7).
//!
//! # Sharded execution
//!
//! At large supports (the wide-Clifford workloads produce 10⁵–10⁶ observed
//! outcomes) reconstruction dominates the pipeline. The prior's support is
//! walked in the canonical order of [`Pmf::sorted_entries`] and cut into
//! fixed-size shards ([`jigsaw_pmf::parallel::SHARD_SIZE`]). Each round's
//! three shard passes — group-mass accumulation, posterior scaling, and
//! normalisation fused with the Hellinger check — run on [`fan_out`]'s
//! scoped worker threads, and per-shard partials merge in shard order.
//! Because the shard layout depends only on the support size — never on
//! the worker count — serial and parallel execution produce
//! **bit-identical** output at every thread setting (enforced by
//! `tests/reconstruction_sharding.rs`). Single-shard supports run inline.
//!
//! A round only reweights the support, so within one layer the outcomes —
//! and every marginal's subset projection of them — never change. Each call
//! therefore projects and hashes the support **once**, building per
//! marginal a *projection index*: every entry gets the `u32` slot of its
//! projection within its shard, every slot the `u32` id of its projection,
//! and every id the marginal's odds. Every round is then a hash-free
//! gather/scatter over flat `f64` weight arrays, double buffered by the
//! caller, with workers writing into disjoint shard slices; a round
//! allocates only its short per-shard work lists.
//!
//! The ids are what keep the bytes fixed. They are numbered in the
//! iteration order of the deterministic group-mass map — per-shard maps
//! merged in shard order — which depends only on the keys and their
//! insertion sequence, both fixed for the layer. The odds total
//! `Σ pr/(1 − pr)` therefore sums in the same order every round, and every
//! other accumulation keeps its shard-ordered tree, so the output equals
//! the map-based kernel this index replaced to the last bit (pinned by
//! `tests/reconstruction_golden.rs`).

use jigsaw_pmf::hashing::DetHashMap;
use jigsaw_pmf::parallel::{fan_out, SHARD_SIZE};
use jigsaw_pmf::{BitString, Pmf};

/// A CPM's evidence: the measured qubit subset and its local PMF.
#[derive(Debug, Clone, PartialEq)]
pub struct Marginal {
    /// Program-qubit indices measured by the CPM; `qubits[k]` is local bit `k`.
    pub qubits: Vec<usize>,
    /// Local PMF over the subset (normalised).
    pub pmf: Pmf,
}

impl Marginal {
    /// Packages a subset and its local PMF.
    ///
    /// # Panics
    ///
    /// Panics if the PMF width differs from the subset size.
    #[must_use]
    pub fn new(qubits: Vec<usize>, pmf: Pmf) -> Self {
        assert_eq!(qubits.len(), pmf.n_bits(), "marginal PMF width must match its subset");
        Self { qubits, pmf }
    }

    /// Subset size (the paper's `s`).
    #[must_use]
    pub fn size(&self) -> usize {
        self.qubits.len()
    }
}

/// Convergence and execution controls for [`reconstruct`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionConfig {
    /// Stop when the Hellinger distance between successive outputs falls
    /// below this.
    pub tolerance: f64,
    /// Hard cap on rounds.
    pub max_rounds: usize,
    /// Worker threads for the sharded support passes: `0` uses all
    /// available cores, `1` runs serially, `n` uses exactly `n` workers.
    /// The output is bit-identical at every setting; the knob only trades
    /// wall-clock for cores. [`crate::run_jigsaw`] overrides this with the
    /// pipeline-wide `RunConfig::threads` knob.
    pub threads: usize,
}

impl Default for ReconstructionConfig {
    fn default() -> Self {
        Self { tolerance: 1e-4, max_rounds: 32, threads: 0 }
    }
}

impl ReconstructionConfig {
    /// Replaces the worker-thread setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Wire format: the measured subset then its local PMF. Decode re-checks
/// the width agreement [`Marginal::new`] asserts.
impl jigsaw_pmf::codec::Encode for Marginal {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        self.qubits.encode(w);
        self.pmf.encode(w);
    }
}

impl jigsaw_pmf::codec::Decode for Marginal {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        let qubits = Vec::<usize>::decode(r)?;
        let pmf = Pmf::decode(r)?;
        if qubits.len() != pmf.n_bits() {
            return Err(jigsaw_pmf::codec::CodecError::InvalidValue {
                what: "Marginal",
                detail: format!(
                    "{}-qubit subset with a {}-bit local PMF",
                    qubits.len(),
                    pmf.n_bits()
                ),
            });
        }
        Ok(Self { qubits, pmf })
    }
}

/// Wire format: tolerance, round cap, thread setting — declaration order.
impl jigsaw_pmf::codec::Encode for ReconstructionConfig {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_f64(self.tolerance);
        w.put_usize(self.max_rounds);
        w.put_usize(self.threads);
    }
}

impl jigsaw_pmf::codec::Decode for ReconstructionConfig {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        Ok(Self { tolerance: r.f64()?, max_rounds: r.usize()?, threads: r.usize()? })
    }
}

/// Result of an iterated reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstruction {
    /// The reconstructed output PMF.
    pub pmf: Pmf,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the Hellinger criterion was met within the round cap.
    pub converged: bool,
    /// Hellinger distance between the last round's input and output — the
    /// step the tolerance is checked against. `0` when there is nothing to
    /// reconstruct (no marginals), infinite when no round ran.
    pub distance: f64,
}

/// One marginal's projections over a layer's fixed support.
///
/// Slots and ids are `u32`: a support of 2³² outcomes would need ~160 GiB
/// of entries before the first round.
struct ProjectionIndex {
    /// Per support entry: the slot of its projection within its shard.
    slot: Vec<u32>,
    /// Per shard, per slot: the projection id the slot's mass merges into.
    slot_ids: Vec<Vec<u32>>,
    /// Per projection id: the marginal odds `pr/(1 − pr)`, or `0` where the
    /// marginal gives the projection no probability.
    odds: Vec<f64>,
    /// Merge scratch per id: the group mass, then the posterior factor.
    id_buf: Vec<f64>,
    /// This round's normaliser: the odds summed, in id order, over the ids
    /// that carry a factor.
    total: f64,
}

impl ProjectionIndex {
    fn new(outcomes: &[BitString], marginal: &Marginal) -> Self {
        // Shard-local slots in first-seen order: each shard's map sees its
        // keys in the same insertion sequence as that shard's group masses.
        let mut slot = Vec::with_capacity(outcomes.len());
        let mut shard_slots: Vec<DetHashMap<BitString, u32>> = Vec::new();
        for shard in outcomes.chunks(SHARD_SIZE) {
            let mut slots: DetHashMap<BitString, u32> = DetHashMap::default();
            for b in shard {
                let fresh = slots.len() as u32;
                slot.push(*slots.entry(b.project(&marginal.qubits)).or_insert(fresh));
            }
            shard_slots.push(slots);
        }
        // The group-mass merge inserts each shard's keys in shard order and
        // map order; the merged map's iteration order numbers the ids.
        let mut ids: DetHashMap<BitString, u32> = DetHashMap::default();
        for slots in &shard_slots {
            for key in slots.keys() {
                ids.entry(*key).or_insert(0);
            }
        }
        let mut odds = Vec::with_capacity(ids.len());
        for (id, (key, slot_id)) in ids.iter_mut().enumerate() {
            *slot_id = id as u32;
            // Clamp pr away from 1 so the odds stay finite (a marginal that
            // is literally a point mass would otherwise divide by zero).
            let pr = marginal.pmf.prob(key).min(1.0 - 1e-12);
            odds.push(if pr > 0.0 { pr / (1.0 - pr) } else { 0.0 });
        }
        let slot_ids = shard_slots
            .iter()
            .map(|slots| {
                let mut by_slot = vec![0; slots.len()];
                for (key, &s) in slots {
                    by_slot[s as usize] = ids[key];
                }
                by_slot
            })
            .collect();
        Self { slot, slot_ids, id_buf: vec![0.0; odds.len()], odds, total: 0.0 }
    }

    /// The slots of shard `k`'s entries.
    fn shard_slots(&self, k: usize) -> &[u32] {
        let start = k * SHARD_SIZE;
        &self.slot[start..self.slot.len().min(start + SHARD_SIZE)]
    }

    /// Merges this marginal's (`m`) slot masses into group masses in shard
    /// order, reduces them to per-id factors `odds / gsum` and the odds
    /// total — skipping ids with no group mass or no marginal probability —
    /// and scatters the factors back onto the slots.
    fn merge_factors(&mut self, m: usize, scratch: &mut [ShardScratch]) {
        self.id_buf.fill(0.0);
        for (shard, ids) in scratch.iter().zip(&self.slot_ids) {
            for (&mass, &id) in shard.marginal(m).iter().zip(ids) {
                self.id_buf[id as usize] += mass;
            }
        }
        self.total = 0.0;
        for (gsum, &odds) in self.id_buf.iter_mut().zip(&self.odds) {
            if *gsum > 0.0 && odds > 0.0 {
                *gsum = odds / *gsum;
                self.total += odds;
            } else {
                *gsum = 0.0;
            }
        }
        for (shard, ids) in scratch.iter_mut().zip(&self.slot_ids) {
            for (factor, &id) in shard.marginal_mut(m).iter_mut().zip(ids) {
                *factor = self.id_buf[id as usize];
            }
        }
    }
}

/// One shard's round scratch: every marginal's slots, marginal after
/// marginal, in one allocation that only the shard's worker writes.
struct ShardScratch {
    /// `slots[bounds[m]..bounds[m + 1]]` belong to marginal `m`.
    bounds: Vec<usize>,
    /// Each slot's group mass, then its posterior factor.
    slots: Vec<f64>,
}

impl ShardScratch {
    fn marginal(&self, m: usize) -> &[f64] {
        &self.slots[self.bounds[m]..self.bounds[m + 1]]
    }

    fn marginal_mut(&mut self, m: usize) -> &mut [f64] {
        &mut self.slots[self.bounds[m]..self.bounds[m + 1]]
    }
}

/// One reconstruction layer: the projection indices of its marginals over
/// one fixed support, built once and reused by every round, and the
/// per-shard scratch the rounds write.
struct Layer {
    indices: Vec<ProjectionIndex>,
    scratch: Vec<ShardScratch>,
    threads: usize,
}

impl Layer {
    fn new(outcomes: &[BitString], marginals: &[Marginal], threads: usize) -> Self {
        // Sub-shard supports (the common ≤24-qubit pipelines) run inline:
        // there is one shard to work on. Thread count never affects the
        // output, so this is a scheduling decision only.
        let threads = if outcomes.len() <= SHARD_SIZE { 1 } else { threads };
        let indices: Vec<ProjectionIndex> =
            fan_out(marginals.iter().collect(), threads, |m| ProjectionIndex::new(outcomes, m));
        let scratch = (0..outcomes.len().div_ceil(SHARD_SIZE))
            .map(|k| {
                let mut bounds = vec![0];
                let mut end = 0;
                for index in &indices {
                    end += index.slot_ids[k].len();
                    bounds.push(end);
                }
                ShardScratch { bounds, slots: vec![0.0; end] }
            })
            .collect();
        Self { indices, scratch, threads }
    }

    /// Every marginal's factors for the support weighted by `weights`: each
    /// shard accumulates every marginal's group masses in entry order on
    /// the team, then each marginal merges its shards in shard order.
    fn update_factors(&mut self, weights: &[f64]) {
        let indices = &self.indices;
        let shards: Vec<_> =
            weights.chunks(SHARD_SIZE).zip(&mut self.scratch).enumerate().collect();
        fan_out(shards, self.threads, |(k, (shard, scratch))| {
            for (m, index) in indices.iter().enumerate() {
                let masses = scratch.marginal_mut(m);
                masses.fill(0.0);
                for (&s, &w) in index.shard_slots(k).iter().zip(shard) {
                    masses[s as usize] += w;
                }
            }
        });
        for (m, index) in self.indices.iter_mut().enumerate() {
            index.merge_factors(m, &mut self.scratch);
        }
    }

    /// One round (Algorithm 1, lines 17–23) from `weights` into `out`:
    /// every entry gains each marginal's normalised posterior
    /// `prob · factor / total` in marginal order, then the sum is
    /// normalised by its shard-ordered mass. Returns the Hellinger distance
    /// `√(1 − Σ√(wᵢ·outᵢ))` between input and output, accumulated per shard
    /// in the same pass as the normalisation.
    fn run_round(&mut self, weights: &[f64], out: &mut [f64]) -> f64 {
        self.update_factors(weights);
        let (indices, scratch) = (&self.indices, &self.scratch);
        let shards: Vec<_> = weights
            .chunks(SHARD_SIZE)
            .zip(out.chunks_mut(SHARD_SIZE))
            .zip(scratch)
            .enumerate()
            .collect();
        let masses = fan_out(shards, self.threads, |(k, ((shard, out), scratch))| {
            out.copy_from_slice(shard);
            for (m, index) in indices.iter().enumerate().filter(|(_, index)| index.total > 0.0) {
                let factors = scratch.marginal(m);
                for ((v, &prob), &s) in out.iter_mut().zip(shard).zip(index.shard_slots(k)) {
                    *v += prob * factors[s as usize] / index.total;
                }
            }
            out.iter().sum::<f64>()
        });
        let mass: f64 = masses.into_iter().sum();

        let shards: Vec<_> = weights.chunks(SHARD_SIZE).zip(out.chunks_mut(SHARD_SIZE)).collect();
        let overlaps = fan_out(shards, self.threads, |(shard, out)| {
            if mass > 0.0 {
                for v in out.iter_mut() {
                    *v /= mass;
                }
            }
            shard.iter().zip(out.iter()).map(|(a, b)| (a * b).sqrt()).sum::<f64>()
        });
        let bc: f64 = overlaps.into_iter().sum();
        (1.0 - bc.min(1.0)).max(0.0).sqrt()
    }

    /// Every support entry's current factor under marginal `m`, in support
    /// order.
    fn entry_factors(&self, m: usize) -> impl Iterator<Item = f64> + '_ {
        let index = &self.indices[m];
        self.scratch.iter().enumerate().flat_map(move |(k, scratch)| {
            let factors = scratch.marginal(m);
            index.shard_slots(k).iter().map(move |&s| factors[s as usize])
        })
    }
}

/// Splits canonical entries into their outcomes and weights.
fn split_entries(entries: &[(BitString, f64)]) -> (Vec<BitString>, Vec<f64>) {
    entries.iter().copied().unzip()
}

/// Builds a PMF from outcomes in canonical order and their weights
/// (deterministic insertion sequence, hence deterministic downstream
/// iteration).
fn pmf_from_canonical(n_bits: usize, outcomes: &[BitString], weights: &[f64]) -> Pmf {
    let mut out = Pmf::new(n_bits);
    for (b, &v) in outcomes.iter().zip(weights) {
        out.set(*b, v);
    }
    out
}

/// One `Bayesian_Update` (Algorithm 1, lines 1–16): posterior of the prior
/// `p` given one marginal, with the group-mass pass sharded across
/// `threads` workers (`0` = all cores, `1` = serial; a single-shard prior
/// runs inline). Bit-identical at every `threads` setting, because the
/// shard layout is fixed.
///
/// For every prior outcome `Bx`, its update coefficient is `p(Bx)`
/// normalised within the group of outcomes sharing `Bx`'s subset
/// projection; the posterior is `coefficient · pr/(1 − pr)` where `pr` is
/// the marginal probability of that projection. The returned PMF is
/// normalised (line 15).
///
/// # Panics
///
/// Panics if the marginal addresses qubits outside the prior's width.
#[must_use]
pub fn bayesian_update(p: &Pmf, marginal: &Marginal, threads: usize) -> Pmf {
    let (outcomes, weights) = split_entries(&p.sorted_entries());
    let mut layer = Layer::new(&outcomes, std::slice::from_ref(marginal), threads);
    layer.update_factors(&weights);
    let mut posterior = Pmf::new(p.n_bits());
    let total = layer.indices[0].total;
    for ((b, prob), factor) in outcomes.iter().zip(&weights).zip(layer.entry_factors(0)) {
        let w = prob * factor;
        if w > 0.0 {
            posterior.set(*b, w / total);
        }
    }
    posterior
}

/// One reconstruction round (Algorithm 1, lines 17–23): every marginal's
/// posterior is computed against the same prior and added onto it; the sum
/// is normalised. Order-independent by construction, fanned out across
/// `threads` workers and bit-identical at every `threads` setting.
#[must_use]
pub fn reconstruction_round(p: &Pmf, marginals: &[Marginal], threads: usize) -> Pmf {
    let (outcomes, weights) = split_entries(&p.sorted_entries());
    let mut out = vec![0.0; weights.len()];
    Layer::new(&outcomes, marginals, threads).run_round(&weights, &mut out);
    pmf_from_canonical(p.n_bits(), &outcomes, &out)
}

/// Iterated reconstruction: rounds repeat until the Hellinger distance
/// between successive outputs drops below tolerance (§4.3's termination
/// rule) or the round cap is reached. The result reports which, with the
/// last round's distance.
///
/// The prior is sorted once and the marginals' projection indices are
/// built once; every round then runs the hash-free kernel on
/// [`ReconstructionConfig::threads`] workers between two weight buffers,
/// and the output PMF is built once at the end. The result is
/// bit-identical at every thread setting.
#[must_use]
pub fn reconstruct(
    p: &Pmf,
    marginals: &[Marginal],
    config: &ReconstructionConfig,
) -> Reconstruction {
    if marginals.is_empty() {
        return Reconstruction { pmf: p.clone(), rounds: 0, converged: true, distance: 0.0 };
    }
    let (outcomes, mut weights) = split_entries(&p.sorted_entries());
    let mut layer = Layer::new(&outcomes, marginals, config.threads);
    let mut next = vec![0.0; weights.len()];
    let mut rounds = 0;
    let mut distance = f64::INFINITY;
    while rounds < config.max_rounds {
        distance = layer.run_round(&weights, &mut next);
        std::mem::swap(&mut weights, &mut next);
        rounds += 1;
        if distance < config.tolerance {
            break;
        }
    }
    Reconstruction {
        pmf: pmf_from_canonical(p.n_bits(), &outcomes, &weights),
        rounds,
        converged: distance < config.tolerance,
        distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_pmf::metrics;

    fn bs(s: &str) -> BitString {
        s.parse().unwrap()
    }

    /// The paper's Fig. 6 example: 3-qubit global PMF and the (Q1, Q0)
    /// marginal.
    fn fig6_prior() -> Pmf {
        let mut p = Pmf::new(3);
        for (s, v) in [
            ("000", 0.10),
            ("001", 0.10),
            ("010", 0.15),
            ("011", 0.15),
            ("100", 0.10),
            ("101", 0.05),
            ("110", 0.15),
            ("111", 0.20),
        ] {
            p.set(bs(s), v);
        }
        p
    }

    fn fig6_marginal() -> Marginal {
        let mut m = Pmf::new(2);
        for (s, v) in [("00", 0.1), ("01", 0.1), ("10", 0.2), ("11", 0.6)] {
            m.set(bs(s), v);
        }
        Marginal::new(vec![0, 1], m)
    }

    #[test]
    fn update_reproduces_fig6_posterior_ratios() {
        // Fig. 6 step 3 lists the unnormalised posteriors 0.05, 0.07, 0.13,
        // 0.64, 0.05, 0.04, 0.13, 0.86; ratios survive normalisation.
        let posterior = bayesian_update(&fig6_prior(), &fig6_marginal(), 1);
        let expected_unnormalised = [
            ("000", 0.0556),
            ("001", 0.0741),
            ("010", 0.1250),
            ("011", 0.6429),
            ("100", 0.0556),
            ("101", 0.0370),
            ("110", 0.1250),
            ("111", 0.8571),
        ];
        let scale = posterior.prob(&bs("111")) / 0.8571;
        for (s, v) in expected_unnormalised {
            let got = posterior.prob(&bs(s));
            assert!(
                (got - v * scale).abs() < 1e-3,
                "{s}: got {got}, expected {} (scale {scale})",
                v * scale
            );
        }
    }

    #[test]
    fn fig6_correct_answer_probability_rises() {
        // The paper reports the correct answer's (111) probability rising
        // ~2.2× after recursive updates; with a single marginal iterated to
        // convergence the boost should be substantial and 111 the mode.
        let result =
            reconstruct(&fig6_prior(), &[fig6_marginal()], &ReconstructionConfig::default());
        assert!(result.converged);
        let p111 = result.pmf.prob(&bs("111"));
        assert!(p111 > 0.20 * 1.8, "p(111) = {p111}, expected ≥ 1.8× the prior 0.20");
        assert_eq!(result.pmf.mode(), Some(bs("111")));
    }

    #[test]
    fn converged_run_reports_a_distance_below_tolerance() {
        let config = ReconstructionConfig::default();
        let r = reconstruct(&fig6_prior(), &[fig6_marginal()], &config);
        assert!(r.converged);
        assert!(r.rounds < config.max_rounds, "fig6 converges before the cap");
        assert!(r.distance < config.tolerance, "distance {}", r.distance);
    }

    #[test]
    fn round_cap_reports_not_converged_with_the_last_distance() {
        let config = ReconstructionConfig { max_rounds: 2, ..ReconstructionConfig::default() };
        let r = reconstruct(&fig6_prior(), &[fig6_marginal()], &config);
        assert!(!r.converged);
        assert_eq!(r.rounds, 2);
        assert!(r.distance >= config.tolerance, "distance {}", r.distance);
        assert!(r.distance.is_finite());
    }

    #[test]
    fn no_round_reports_an_infinite_distance() {
        let config = ReconstructionConfig { max_rounds: 0, ..ReconstructionConfig::default() };
        let r = reconstruct(&fig6_prior(), &[fig6_marginal()], &config);
        assert_eq!((r.rounds, r.converged), (0, false));
        assert_eq!(r.distance, f64::INFINITY);
        assert_eq!(r.pmf, fig6_prior());
    }

    #[test]
    fn update_is_conservative_when_marginal_matches_prior() {
        // If the marginal equals the prior's own projection, the posterior
        // must not move the prior much (Bayesian consistency).
        let p = fig6_prior();
        let own = Marginal::new(vec![0, 1], p.marginal(&[0, 1]));
        let out = reconstruction_round(&p, &[own], 1);
        // Projections agree before and after.
        let before = p.marginal(&[0, 1]);
        let after = out.marginal(&[0, 1]);
        assert!(metrics::tvd(&before, &after) < 0.12);
    }

    #[test]
    fn round_is_order_independent() {
        let p = fig6_prior();
        let m1 = fig6_marginal();
        let mut m2pmf = Pmf::new(2);
        m2pmf.set(bs("00"), 0.3);
        m2pmf.set(bs("11"), 0.7);
        let m2 = Marginal::new(vec![1, 2], m2pmf);
        let ab = reconstruction_round(&p, &[m1.clone(), m2.clone()], 1);
        let ba = reconstruction_round(&p, &[m2, m1], 1);
        assert!(metrics::tvd(&ab, &ba) < 1e-12);
    }

    #[test]
    fn update_is_thread_count_invariant() {
        let p = fig6_prior();
        let m = fig6_marginal();
        let serial = bayesian_update(&p, &m, 1);
        for threads in [0, 2, 3, 8] {
            assert_eq!(serial, bayesian_update(&p, &m, threads));
        }
    }

    #[test]
    fn round_is_thread_count_invariant() {
        let p = fig6_prior();
        let m1 = fig6_marginal();
        let mut m2pmf = Pmf::new(2);
        m2pmf.set(bs("00"), 0.3);
        m2pmf.set(bs("11"), 0.7);
        let marginals = vec![m1, Marginal::new(vec![1, 2], m2pmf)];
        let serial = reconstruction_round(&p, &marginals, 1);
        for threads in [0, 2, 5] {
            assert_eq!(serial, reconstruction_round(&p, &marginals, threads));
        }
    }

    #[test]
    fn reconstruct_is_thread_count_invariant() {
        let p = fig6_prior();
        let ms = [fig6_marginal()];
        let serial = reconstruct(&p, &ms, &ReconstructionConfig::default().with_threads(1));
        for threads in [0, 2, 4] {
            let parallel =
                reconstruct(&p, &ms, &ReconstructionConfig::default().with_threads(threads));
            assert_eq!(serial.pmf, parallel.pmf);
            assert_eq!(serial.rounds, parallel.rounds);
        }
    }

    #[test]
    fn zero_marginal_probability_kills_candidates() {
        // Outcomes whose projection the marginal never saw get posterior 0
        // (their prior mass survives only through the "+ P" step).
        let p = fig6_prior();
        let mut m = Pmf::new(2);
        m.set(bs("11"), 1.0);
        let posterior = bayesian_update(&p, &Marginal::new(vec![0, 1], m), 1);
        assert_eq!(posterior.prob(&bs("000")), 0.0);
        assert!(posterior.prob(&bs("011")) > 0.0);
        assert!(posterior.prob(&bs("111")) > 0.0);
    }

    #[test]
    fn reconstruction_output_is_normalised() {
        let r = reconstruct(&fig6_prior(), &[fig6_marginal()], &ReconstructionConfig::default());
        assert!((r.pmf.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_marginals_is_identity() {
        let p = fig6_prior();
        let r = reconstruct(&p, &[], &ReconstructionConfig::default());
        assert_eq!(r.pmf, p);
        assert_eq!(r.rounds, 0);
        assert!(r.converged);
        assert_eq!(r.distance, 0.0);
    }

    #[test]
    fn support_never_grows() {
        // Reconstruction only reweights observed outcomes (§7.1).
        let p = fig6_prior();
        let r = reconstruct(&p, &[fig6_marginal()], &ReconstructionConfig::default());
        assert!(r.pmf.support_size() <= p.support_size());
    }

    #[test]
    fn point_mass_marginal_stays_finite() {
        let p = fig6_prior();
        let mut m = Pmf::new(1);
        m.set(bs("1"), 1.0);
        let r = reconstruct(&p, &[Marginal::new(vec![2], m)], &ReconstructionConfig::default());
        assert!((r.pmf.total_mass() - 1.0).abs() < 1e-9);
        for (_, prob) in r.pmf.iter() {
            assert!(prob.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn mismatched_marginal_rejected() {
        let _ = Marginal::new(vec![0, 1, 2], Pmf::new(2));
    }
}
