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
//! outcomes) reconstruction dominates the pipeline, so both support passes
//! of [`bayesian_update`] — group-mass accumulation and posterior scaling —
//! and the per-marginal work of [`reconstruction_round`] run on
//! [`fan_out`]'s scoped worker threads. The prior's support is walked in
//! the canonical order of [`Pmf::sorted_entries`] and cut into fixed-size
//! shards ([`jigsaw_pmf::parallel::SHARD_SIZE`]); partial results merge in
//! shard order. Because the shard layout depends only on the support size —
//! never on the worker count — serial and parallel execution produce
//! **bit-identical** output at every thread setting (enforced by
//! `tests/reconstruction_sharding.rs`).

use jigsaw_pmf::hashing::DetHashMap;
use jigsaw_pmf::parallel::{fan_out, map_shards, SHARD_SIZE};
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
}

/// A contiguous slice of canonical `(outcome, weight)` entries — the unit
/// of sharded work.
type EntrySlice<'a> = &'a [(BitString, f64)];

/// One marginal's evidence, reduced to per-projection multipliers.
///
/// For a prior entry with projection key `k`, the unnormalised posterior is
/// `prob · factor[k]` where `factor[k] = odds(pr_k) / gsum_k`; dividing by
/// `total = Σ_k odds(pr_k)` (mathematically the posterior's mass, since the
/// entry coefficients within a group sum to one) normalises it. Keys with
/// zero group mass or zero marginal probability carry no factor.
struct UpdateFactors {
    factor: DetHashMap<BitString, f64>,
    total: f64,
}

/// Group-mass partial for one shard of the prior's canonical entry order:
/// the shard's probability mass keyed by subset projection.
fn shard_group_masses(
    marginal: &Marginal,
    shard: &[(BitString, f64)],
) -> DetHashMap<BitString, f64> {
    let mut g: DetHashMap<BitString, f64> = DetHashMap::default();
    for (b, prob) in shard {
        *g.entry(b.project(&marginal.qubits)).or_insert(0.0) += prob;
    }
    g
}

/// Folds per-shard group masses **in shard order**, keeping the merge (and
/// therefore the floating-point accumulation tree) thread-count-invariant.
fn merge_group_masses<'a, I>(partials: I) -> DetHashMap<BitString, f64>
where
    I: IntoIterator<Item = &'a DetHashMap<BitString, f64>>,
{
    let mut group_mass: DetHashMap<BitString, f64> = DetHashMap::default();
    for partial in partials {
        for (key, mass) in partial {
            *group_mass.entry(*key).or_insert(0.0) += mass;
        }
    }
    group_mass
}

/// Builds the per-projection multipliers from merged group masses.
fn update_factors(group_mass: &DetHashMap<BitString, f64>, marginal: &Marginal) -> UpdateFactors {
    let mut factor: DetHashMap<BitString, f64> = DetHashMap::default();
    let mut total = 0.0;
    for (key, &gsum) in group_mass {
        if gsum <= 0.0 {
            continue;
        }
        // Clamp pr away from 1 so the odds stay finite (a marginal that is
        // literally a point mass would otherwise divide by zero).
        let pr = marginal.pmf.prob(key).min(1.0 - 1e-12);
        if pr <= 0.0 {
            continue;
        }
        let odds = pr / (1.0 - pr);
        factor.insert(*key, odds / gsum);
        total += odds;
    }
    UpdateFactors { factor, total }
}

/// One `Bayesian_Update` (Algorithm 1, lines 1–16): posterior of the prior
/// `p` given one marginal, with both support passes sharded across
/// `threads` workers (`0` = all cores, `1` = serial). Bit-identical at every
/// `threads` setting, because the shard layout is fixed.
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
    let entries = p.sorted_entries();
    // Pass 1 — group-mass accumulation, sharded then merged in shard order.
    let partials = map_shards(&entries, threads, |shard| shard_group_masses(marginal, shard));
    let factors = update_factors(&merge_group_masses(&partials), marginal);

    // Pass 2 — posterior scaling, sharded; shards concatenate in order.
    let scaled: Vec<Vec<(BitString, f64)>> = map_shards(&entries, threads, |shard| {
        shard
            .iter()
            .filter_map(|(b, prob)| {
                let f = factors.factor.get(&b.project(&marginal.qubits)).copied().unwrap_or(0.0);
                let w = prob * f;
                (w > 0.0).then(|| (*b, w / factors.total))
            })
            .collect()
    });

    let mut posterior = Pmf::new(p.n_bits());
    for (b, w) in scaled.into_iter().flatten() {
        posterior.set(b, w);
    }
    posterior
}

/// One reconstruction round (Algorithm 1, lines 17–23): every marginal's
/// posterior is computed against the same prior and added onto it; the sum
/// is normalised. Order-independent by construction, fanned out across
/// `threads` workers and bit-identical at every `threads` setting.
#[must_use]
pub fn reconstruction_round(p: &Pmf, marginals: &[Marginal], threads: usize) -> Pmf {
    let entries = p.sorted_entries();
    let out = reconstruction_round_over_entries(&entries, marginals, threads);
    pmf_from_canonical_entries(p.n_bits(), out)
}

/// One reconstruction round over the prior's canonical entry list — the
/// allocation-lean core behind [`reconstruction_round`] and
/// [`reconstruct`].
///
/// `entries` must be in canonical (ascending outcome) order with positive
/// weights, exactly as [`Pmf::sorted_entries`] returns; the output is the
/// normalised round result **in the same outcome sequence** (the round
/// only reweights, never drops, observed outcomes), so iterated callers
/// never re-sort or rebuild hash maps between rounds.
///
/// The independent per-marginal group passes and the support shards form
/// one flat `marginal × shard` work grid, so a round with few marginals
/// over a huge support and a round with many marginals over a small support
/// both saturate the team without nesting thread pools. The shard layout is
/// fixed by the support size, so the output is bit-identical at every
/// `threads` setting.
#[must_use]
pub fn reconstruction_round_over_entries(
    entries: &[(BitString, f64)],
    marginals: &[Marginal],
    threads: usize,
) -> Vec<(BitString, f64)> {
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "entries must be in canonical ascending-outcome order"
    );
    if marginals.is_empty() {
        return normalize_entry_shards(
            map_shards(entries, threads, <[(BitString, f64)]>::to_vec),
            threads,
        );
    }
    let shards: Vec<EntrySlice<'_>> = entries.chunks(SHARD_SIZE).collect();
    let n_shards = shards.len();
    // Sub-shard supports (the common ≤24-qubit pipelines) run inline: the
    // per-round work is microseconds, so spawning the team for the
    // marginal-indexed grid below would be pure overhead. Thread count
    // never affects the output, so this is a scheduling decision only.
    let threads = if n_shards <= 1 { 1 } else { threads };

    // Phase 1 — every (marginal, shard) group pass is independent work.
    let grid: Vec<(usize, EntrySlice<'_>)> =
        (0..marginals.len()).flat_map(|mi| shards.iter().map(move |shard| (mi, *shard))).collect();
    let partials = fan_out(grid, threads, |(mi, shard)| shard_group_masses(&marginals[mi], shard));

    // Merge each marginal's partials in shard order (grid order groups them
    // contiguously), then reduce to per-projection factors.
    let factors: Vec<UpdateFactors> = marginals
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let merged = merge_group_masses(&partials[mi * n_shards..(mi + 1) * n_shards]);
            update_factors(&merged, m)
        })
        .collect();

    // Phase 2 — posterior scaling and the "+ P" accumulation fused into one
    // sharded pass: every entry gains each marginal's normalised posterior
    // contribution in marginal order.
    let weighted: Vec<Vec<(BitString, f64)>> = map_shards(entries, threads, |shard| {
        shard
            .iter()
            .map(|(b, prob)| {
                let mut v = *prob;
                for (m, f) in marginals.iter().zip(&factors) {
                    if f.total > 0.0 {
                        let fac = f.factor.get(&b.project(&m.qubits)).copied().unwrap_or(0.0);
                        v += prob * fac / f.total;
                    }
                }
                (*b, v)
            })
            .collect()
    });

    normalize_entry_shards(weighted, threads)
}

/// Phase 3 — normalise sharded entry lists: per-shard partial masses fold
/// in shard order (thread-count-invariant), then every shard rescales on
/// the team and the shards concatenate in order.
fn normalize_entry_shards(
    shards: Vec<Vec<(BitString, f64)>>,
    threads: usize,
) -> Vec<(BitString, f64)> {
    let mass: f64 = shards.iter().map(|shard| shard.iter().map(|(_, v)| v).sum::<f64>()).sum();
    if mass <= 0.0 {
        return shards.into_iter().flatten().collect();
    }
    fan_out(shards, threads, |shard: Vec<(BitString, f64)>| {
        shard.into_iter().map(|(b, v)| (b, v / mass)).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Builds a PMF from entries already in canonical order (deterministic
/// insertion sequence, hence deterministic downstream iteration).
fn pmf_from_canonical_entries(n_bits: usize, entries: Vec<(BitString, f64)>) -> Pmf {
    let mut out = Pmf::new(n_bits);
    for (b, v) in entries {
        out.set(b, v);
    }
    out
}

/// Hellinger distance `√(1 − Σ√(pᵢ·qᵢ))` between two *aligned* canonical
/// entry lists (identical outcome sequences), computed shard-wise so the
/// convergence check scales with the round itself.
fn hellinger_aligned(a: &[(BitString, f64)], b: &[(BitString, f64)], threads: usize) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "aligned entry lists must have equal length");
    let pairs: Vec<(EntrySlice<'_>, EntrySlice<'_>)> =
        a.chunks(SHARD_SIZE).zip(b.chunks(SHARD_SIZE)).collect();
    let partials = fan_out(pairs, threads, |(sa, sb)| {
        sa.iter().zip(sb).map(|((_, pa), (_, pb))| (pa * pb).sqrt()).sum::<f64>()
    });
    let bc: f64 = partials.into_iter().sum();
    (1.0 - bc.min(1.0)).max(0.0).sqrt()
}

/// Iterated reconstruction: rounds repeat until the Hellinger distance
/// between successive outputs drops below tolerance (§4.3's termination
/// rule) or the round cap is reached.
///
/// The loop stays in canonical-entries space — the prior is sorted once,
/// each round runs [`reconstruction_round_over_entries`] on
/// [`ReconstructionConfig::threads`] workers, and the output PMF is built
/// once at the end — so per-round serial overhead is just the small factor
/// merges. The result is bit-identical at every thread setting.
#[must_use]
pub fn reconstruct(
    p: &Pmf,
    marginals: &[Marginal],
    config: &ReconstructionConfig,
) -> Reconstruction {
    if marginals.is_empty() {
        return Reconstruction { pmf: p.clone(), rounds: 0, converged: true };
    }
    let mut entries = p.sorted_entries();
    for round in 1..=config.max_rounds {
        let next = reconstruction_round_over_entries(&entries, marginals, config.threads);
        let distance = hellinger_aligned(&entries, &next, config.threads);
        entries = next;
        if distance < config.tolerance {
            return Reconstruction {
                pmf: pmf_from_canonical_entries(p.n_bits(), entries),
                rounds: round,
                converged: true,
            };
        }
    }
    Reconstruction {
        pmf: pmf_from_canonical_entries(p.n_bits(), entries),
        rounds: config.max_rounds,
        converged: false,
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
    fn round_over_entries_preserves_sequence_and_matches_pmf_round() {
        let p = fig6_prior();
        let ms = [fig6_marginal()];
        let entries = p.sorted_entries();
        let out = reconstruction_round_over_entries(&entries, &ms, 1);
        // Same outcome sequence (rounds only reweight), normalised output.
        let before: Vec<BitString> = entries.iter().map(|(b, _)| *b).collect();
        let after: Vec<BitString> = out.iter().map(|(b, _)| *b).collect();
        assert_eq!(before, after);
        assert!((out.iter().map(|(_, v)| v).sum::<f64>() - 1.0).abs() < 1e-12);
        // The Pmf-level wrapper is exactly this core plus a map build.
        let wrapped = reconstruction_round(&p, &ms, 1);
        for (b, v) in &out {
            assert_eq!(wrapped.prob(b), *v);
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
