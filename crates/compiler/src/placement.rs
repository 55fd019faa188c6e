//! Noise-aware initial placement: pick a good connected region of the
//! device, then assign logical qubits inside it by interaction weight.
//!
//! Regions are grown greedily from every seed qubit with a cost that mixes
//! coupler error, readout error (for measured programs) and an optional
//! diversity penalty against previously-used regions (the knob EDM turns;
//! paper §5.2 \[48\]).
//!
//! # An incremental search with the direct search's results
//!
//! The kernel keeps per-qubit state across steps instead of recounting each
//! score, and every shortcut yields exactly what a recount would:
//!
//! - *Region growth* keeps, per qubit, its cheapest coupler into the region
//!   (a `min`, which does not depend on the order qubits joined) and its
//!   summed hop distance to the region as an integer (the `f64` sum of small
//!   integers is exact, so it equals the converted integer sum). Each
//!   frontier qubit is scored once per step, with the same expression and the
//!   same (cost, index) tie-break.
//! - *Assignment* costs are sums of `u32` weight × hop-distance products, so
//!   they are integers, summed in `i64`. The greedy keeps each logical's
//!   weight to the placed set as logicals are placed, and a pairwise swap is
//!   taken iff its change, summed over the two logicals' partners only, is
//!   negative: exactly when the recounted total would drop.
//! - The *path search* sorts a qubit's neighbours by (step cost, qubit) once.
//!   Skipping the qubits already on the path keeps that order, so the search
//!   visits the same nodes, in the same order, within the same step budget.

use jigsaw_circuit::Circuit;
use jigsaw_device::Device;

use crate::Layout;

/// Placement tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Weight of a candidate qubit's readout error in region growth.
    /// Measured qubits dominate CPM recompilation by raising this.
    pub readout_weight: f64,
    /// Weight of the best connecting coupler's error in region growth.
    pub gate_weight: f64,
    /// Penalty per previously-used region containing the candidate qubit
    /// (diversity for EDM).
    pub diversity_penalty: f64,
    /// Weight of a candidate qubit's mean distance to the region grown so
    /// far. Keeps regions compact instead of chasing isolated good qubits
    /// down long arms, which matters for chain-shaped programs whose
    /// neighbours must stay close after assignment.
    pub compactness_weight: f64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self {
            readout_weight: 1.0,
            gate_weight: 1.0,
            diversity_penalty: 0.0,
            compactness_weight: 0.02,
        }
    }
}

/// Wire format: the four weights in declaration order, as exact `f64` bit
/// patterns.
impl jigsaw_pmf::codec::Encode for PlacementConfig {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_f64(self.readout_weight);
        w.put_f64(self.gate_weight);
        w.put_f64(self.diversity_penalty);
        w.put_f64(self.compactness_weight);
    }
}

impl jigsaw_pmf::codec::Decode for PlacementConfig {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        Ok(Self {
            readout_weight: r.f64()?,
            gate_weight: r.f64()?,
            diversity_penalty: r.f64()?,
            compactness_weight: r.f64()?,
        })
    }
}

/// Grows one candidate region from `seed` and assigns the circuit's logical
/// qubits inside it. Returns `None` when the component around `seed` is
/// smaller than the program.
#[must_use]
pub fn layout_from_seed(
    circuit: &Circuit,
    device: &Device,
    seed: usize,
    config: &PlacementConfig,
    avoid: &[Vec<usize>],
) -> Option<Layout> {
    let n = circuit.n_qubits();
    let topo = device.topology();
    let cal = device.calibration();
    let n_physical = topo.n_qubits();
    if n > n_physical {
        return None;
    }

    // Region growth: absorb the cheapest frontier qubit until n are held.
    // Updated as each qubit joins the region:
    // - `best_link[q]`: the cheapest coupler from `q` into the region;
    // - `spread_sum[q]`: `q`'s summed hop distance to the region;
    // - `frontier`: the region's neighbours outside it, each listed once.
    let overlap: Vec<f64> = (0..n_physical)
        .map(|q| avoid.iter().filter(|used| used.contains(&q)).count() as f64)
        .collect();
    let mut region = Vec::with_capacity(n);
    let mut in_region = vec![false; n_physical];
    let mut in_frontier = vec![false; n_physical];
    let mut frontier: Vec<usize> = Vec::new();
    let mut best_link = vec![f64::INFINITY; n_physical];
    let mut spread_sum = vec![0u64; n_physical];
    let mut next = seed;
    loop {
        in_region[next] = true;
        region.push(next);
        if let Some(i) = frontier.iter().position(|&q| q == next) {
            frontier.swap_remove(i);
        }
        for (q, sum) in spread_sum.iter_mut().enumerate() {
            *sum += u64::from(topo.distance(next, q));
        }
        for &nb in topo.neighbors(next) {
            if !in_region[nb] {
                best_link[nb] = best_link[nb].min(cal.gate_2q(next, nb));
                if !in_frontier[nb] {
                    in_frontier[nb] = true;
                    frontier.push(nb);
                }
            }
        }
        if region.len() >= n {
            break;
        }
        let qubit_cost = |q: usize| -> f64 {
            let readout = cal.readout(q).mean();
            let link = best_link[q];
            let spread = spread_sum[q] as f64 / region.len() as f64;
            config.readout_weight * readout
                + config.gate_weight * if link.is_finite() { link } else { 0.0 }
                + config.diversity_penalty * overlap[q]
                + config.compactness_weight * spread
        };
        next = frontier
            .iter()
            .map(|&q| (qubit_cost(q), q))
            .min_by(|x, y| x.0.partial_cmp(&y.0).expect("finite costs").then(x.1.cmp(&y.1)))?
            .1;
    }

    Some(assign_in_region(circuit, device, &region))
}

/// Assigns logical qubits to the qubits of a connected region, placing
/// heavily-interacting logical qubits close together.
///
/// Runs a small portfolio of greedy sweeps — hub-first (best for star-like
/// interaction graphs) and leaf-first (best for chains, which otherwise
/// strand their last qubit on a far branch of a tree-shaped region) — then
/// refines the cheapest with pairwise swaps. The total interaction-weighted
/// distance decides.
fn assign_in_region(circuit: &Circuit, device: &Device, region: &[usize]) -> Layout {
    let n = circuit.n_qubits();
    let topo = device.topology();
    let distance = |p: usize, q: usize| i64::from(topo.distance(p, q));

    // Interaction weights from the program's 2q gates, kept per logical as
    // (partner, weight) lists over the partners with a non-zero weight.
    let mut weight = vec![vec![0u32; n]; n];
    let mut degree = vec![0u32; n];
    for g in circuit.gates() {
        if let (a, Some(b)) = g.qubits() {
            weight[a][b] += 1;
            weight[b][a] += 1;
            degree[a] += 1;
            degree[b] += 1;
        }
    }
    let partners: Vec<Vec<(usize, i64)>> = weight
        .iter()
        .enumerate()
        .map(|(l, row)| {
            row.iter()
                .enumerate()
                .filter(|&(o, &w)| o != l && w > 0)
                .map(|(o, &w)| (o, i64::from(w)))
                .collect()
        })
        .collect();

    let mut in_region = vec![false; topo.n_qubits()];
    for &q in region {
        in_region[q] = true;
    }
    let region_degree = |q: usize| topo.neighbors(q).iter().filter(|&&nb| in_region[nb]).count();
    let total_cost = |map: &[usize]| -> i64 {
        let mut cost = 0;
        for (a, links) in partners.iter().enumerate() {
            for &(b, w) in links.iter().filter(|&&(b, _)| b > a) {
                cost += w * distance(map[a], map[b]);
            }
        }
        cost
    };

    let greedy = |first_logical: usize, first_physical: usize| -> Vec<usize> {
        let mut assignment: Vec<Option<usize>> = vec![None; n]; // logical -> physical
        let mut free: Vec<usize> = region.to_vec();
        let first_idx = free.iter().position(|&q| q == first_physical).expect("in region");
        assignment[first_logical] = Some(free.swap_remove(first_idx));
        // `attached[l]`: l's interaction weight to the placed set.
        let mut attached = vec![0i64; n];
        for &(o, w) in &partners[first_logical] {
            attached[o] += w;
        }

        // Repeatedly place the unassigned logical most connected to the
        // placed set, on the free qubit minimising weighted distance to its
        // placed partners (ties to the lower qubit index).
        for _ in 1..n {
            let next_logical = (0..n)
                .filter(|&l| assignment[l].is_none())
                .max_by_key(|&l| (attached[l], degree[l], std::cmp::Reverse(l)))
                .expect("unassigned logical remains");
            let anchors: Vec<(usize, i64)> = partners[next_logical]
                .iter()
                .filter_map(|&(o, w)| assignment[o].map(|p| (p, w)))
                .collect();
            let best_idx = (0..free.len())
                .min_by_key(|&i| {
                    let q = free[i];
                    (anchors.iter().map(|&(p, w)| w * distance(q, p)).sum::<i64>(), q)
                })
                .expect("free qubit remains");
            assignment[next_logical] = Some(free.swap_remove(best_idx));
            for &(o, w) in &partners[next_logical] {
                attached[o] += w;
            }
        }
        assignment.into_iter().map(|p| p.expect("all placed")).collect()
    };

    // Portfolio of starting points: most-interacting logical on the region
    // hub, and (when the program has leaves) a leaf logical on a region leaf.
    let hub_logical = (0..n).max_by_key(|&l| (degree[l], std::cmp::Reverse(l))).expect("n >= 1");
    let hub_physical = region
        .iter()
        .copied()
        .max_by_key(|&q| (region_degree(q), std::cmp::Reverse(q)))
        .expect("region non-empty");
    let leaf_logical = (0..n).min_by_key(|&l| (degree[l], l)).expect("n >= 1");
    let leaf_physical =
        region.iter().copied().min_by_key(|&q| (region_degree(q), q)).expect("region non-empty");

    let mut starts = vec![(hub_logical, hub_physical)];
    if (leaf_logical, leaf_physical) != (hub_logical, hub_physical) {
        starts.push((leaf_logical, leaf_physical));
    }
    let mut map = starts
        .into_iter()
        .map(|(l, q)| greedy(l, q))
        .min_by_key(|map| total_cost(map))
        .expect("at least one start");

    // Pairwise-swap refinement until no exchange lowers the total cost.
    // Swapping a and b moves only the terms of their partners (the a–b
    // term keeps its distance), so a swap is taken iff that change is
    // negative.
    let swap_delta = |map: &[usize], a: usize, b: usize| -> i64 {
        // Moving `l` from `from` to `to` (its swap partner `other` excluded).
        let shift = |l: usize, other: usize, from: usize, to: usize| -> i64 {
            partners[l]
                .iter()
                .filter(|&&(o, _)| o != other)
                .map(|&(o, w)| w * (distance(to, map[o]) - distance(from, map[o])))
                .sum()
        };
        shift(a, b, map[a], map[b]) + shift(b, a, map[b], map[a])
    };
    loop {
        let mut improved = false;
        for a in 0..n {
            for b in (a + 1)..n {
                if swap_delta(&map, a, b) < 0 {
                    map.swap(a, b);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    Layout::new(map, device.n_qubits())
}

/// Detects whether the program's interaction graph is a simple path and, if
/// so, returns the logical qubits in path order.
///
/// GHZ chains, Graycode cascades, path-graph QAOA and Ising chains — most
/// of the paper's Table 2 — are interaction paths, which embed swap-free on
/// heavy-hex hardware when placed along a device path.
#[must_use]
pub fn interaction_path(circuit: &Circuit) -> Option<Vec<usize>> {
    let n = circuit.n_qubits();
    if n == 0 {
        return None;
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for g in circuit.gates() {
        if let (a, Some(b)) = g.qubits() {
            if !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
    }
    let edges: usize = adj.iter().map(Vec::len).sum::<usize>() / 2;
    if edges != n - 1 || adj.iter().any(|nb| nb.len() > 2) {
        return None;
    }
    let start = (0..n).find(|&q| adj[q].len() == 1)?;
    let mut order = vec![start];
    let mut prev = usize::MAX;
    while order.len() < n {
        let cur = *order.last().expect("non-empty");
        let next = adj[cur].iter().copied().find(|&nb| nb != prev)?;
        prev = cur;
        order.push(next);
    }
    Some(order)
}

/// Finds a low-cost simple path of `len` physical qubits starting at `seed`
/// (branch-and-bound over simple paths, cheapest extension first), and lays
/// the logical path order onto it.
///
/// Unlike a greedy walk, the search keeps the best *complete* path found so
/// far and prunes any partial path whose accumulated cost already exceeds
/// it, so one locally cheap step into a high-error corridor cannot doom the
/// embedding. A step budget bounds the worst case; on heavy-hex lattices
/// (degree ≤ 3) the search is cheap.
#[must_use]
pub fn path_layout_from_seed(
    circuit: &Circuit,
    device: &Device,
    seed: usize,
    config: &PlacementConfig,
    avoid: &[Vec<usize>],
) -> Option<Layout> {
    let logical_order = interaction_path(circuit)?;
    let n = logical_order.len();
    let topo = device.topology();
    let cal = device.calibration();

    let node_cost = |q: usize| -> f64 {
        let overlap = avoid.iter().filter(|used| used.contains(&q)).count() as f64;
        config.readout_weight * cal.readout(q).mean() + config.diversity_penalty * overlap
    };

    struct Search<'a, C: Fn(usize) -> f64> {
        topo: &'a jigsaw_device::Topology,
        cal: &'a jigsaw_device::Calibration,
        gate_weight: f64,
        node_cost: C,
        n: usize,
        best: Option<(f64, Vec<usize>)>,
        budget: usize,
        /// A qubit's neighbours sorted by (step cost, qubit), built on its
        /// first visit. A visit's options are this list minus the qubits on
        /// the path: filtering keeps the sorted order, so the search visits
        /// the same nodes in the same order as sorting per visit.
        steps: Vec<Option<Vec<(f64, usize)>>>,
    }

    impl<C: Fn(usize) -> f64> Search<'_, C> {
        fn extend(&mut self, path: &mut Vec<usize>, on_path: &mut [bool], cost_so_far: f64) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            if path.len() == self.n {
                if self.best.as_ref().is_none_or(|(c, _)| cost_so_far < *c) {
                    self.best = Some((cost_so_far, path.clone()));
                }
                return;
            }
            let cur = *path.last().expect("non-empty");
            // `cur` is on the path, so no deeper call reads its list while
            // it is taken out here.
            let options = self.steps[cur].take().unwrap_or_else(|| {
                let mut options: Vec<(f64, usize)> = self
                    .topo
                    .neighbors(cur)
                    .iter()
                    .map(|&nb| {
                        ((self.node_cost)(nb) + self.gate_weight * self.cal.gate_2q(cur, nb), nb)
                    })
                    .collect();
                options.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
                options
            });
            for &(step_cost, nb) in &options {
                if on_path[nb] {
                    continue;
                }
                let total = cost_so_far + step_cost;
                if self.best.as_ref().is_some_and(|(c, _)| total >= *c) {
                    continue; // bound: cannot beat the best complete path
                }
                on_path[nb] = true;
                path.push(nb);
                self.extend(path, on_path, total);
                path.pop();
                on_path[nb] = false;
            }
            self.steps[cur] = Some(options);
        }
    }

    let mut search = Search {
        topo,
        cal,
        gate_weight: config.gate_weight,
        node_cost,
        n,
        best: None,
        budget: 50_000,
        steps: vec![None; topo.n_qubits()],
    };
    let mut on_path = vec![false; topo.n_qubits()];
    on_path[seed] = true;
    let mut path = vec![seed];
    search.extend(&mut path, &mut on_path, (search.node_cost)(seed));
    let (_, best_path) = search.best?;

    let mut map = vec![usize::MAX; n];
    for (k, &logical) in logical_order.iter().enumerate() {
        map[logical] = best_path[k];
    }
    Some(Layout::new(map, topo.n_qubits()))
}

/// Spreads `k` seed qubits across the device, favouring low readout error:
/// the first seeds are the best-readout qubits, the remainder striped across
/// the index space for coverage.
#[must_use]
pub fn spread_seeds(device: &Device, k: usize) -> Vec<usize> {
    let n = device.n_qubits();
    let k = k.min(n);
    let mut seeds: Vec<usize> = device.best_readout_qubits(k.div_ceil(2));
    let mut i = 0;
    while seeds.len() < k {
        let candidate = (i * n) / k;
        if !seeds.contains(&candidate) {
            seeds.push(candidate);
        }
        i += 1;
        if i > 2 * n {
            break;
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_circuit::bench;

    fn ghz_circuit(n: usize) -> Circuit {
        let mut c = bench::ghz(n).circuit().clone();
        c.measure_all();
        c
    }

    #[test]
    fn layout_is_valid_and_connected_enough() {
        let device = Device::toronto();
        let c = ghz_circuit(8);
        let layout =
            layout_from_seed(&c, &device, 0, &PlacementConfig::default(), &[]).expect("fits");
        assert_eq!(layout.n_logical(), 8);
        // The occupied set must be connected (it was grown as a region).
        let occ = layout.occupied();
        for &q in &occ {
            assert!(
                occ.iter().any(|&r| r != q && device.topology().are_adjacent(q, r)),
                "qubit {q} isolated in region"
            );
        }
    }

    #[test]
    fn chain_neighbors_land_close() {
        // GHZ's interaction graph is a chain; adjacent logicals should be
        // placed within short distance.
        let device = Device::toronto();
        let c = ghz_circuit(6);
        let layout =
            layout_from_seed(&c, &device, 12, &PlacementConfig::default(), &[]).expect("fits");
        for l in 0..5 {
            let d = device.topology().distance(layout.physical(l), layout.physical(l + 1));
            assert!(d <= 3, "chain neighbours {l},{} are {d} apart", l + 1);
        }
    }

    #[test]
    fn oversized_program_returns_none() {
        let device = Device::toronto();
        let c = ghz_circuit(28);
        assert!(layout_from_seed(&c, &device, 0, &PlacementConfig::default(), &[]).is_none());
    }

    #[test]
    fn diversity_penalty_moves_the_region() {
        let device = Device::toronto();
        let c = ghz_circuit(5);
        let cfg = PlacementConfig::default();
        let first = layout_from_seed(&c, &device, 0, &cfg, &[]).expect("fits");
        let penalised = PlacementConfig { diversity_penalty: 10.0, ..cfg };
        // Seeded elsewhere with the first region blacklisted, the overlap
        // should shrink.
        let second =
            layout_from_seed(&c, &device, 20, &penalised, &[first.occupied()]).expect("fits");
        let overlap = second.occupied().iter().filter(|q| first.occupied().contains(q)).count();
        assert!(overlap <= 2, "overlap {overlap} too high");
    }

    #[test]
    fn interaction_path_detects_chains() {
        let c = ghz_circuit(6);
        let order = interaction_path(&c).expect("GHZ is a chain");
        assert_eq!(order.len(), 6);
        // Consecutive logicals in the order must interact.
        for w in order.windows(2) {
            assert!(
                c.gates().iter().any(|g| {
                    matches!(g.qubits(), (a, Some(b)) if (a == w[0] && b == w[1]) || (a == w[1] && b == w[0]))
                }),
                "order step {w:?} has no gate"
            );
        }
    }

    #[test]
    fn interaction_path_rejects_stars() {
        // BV's oracle is a star around the ancilla.
        let b = bench::bernstein_vazirani(5, 0b1111);
        assert!(interaction_path(b.circuit()).is_none());
    }

    #[test]
    fn path_layout_embeds_chain_on_couplers() {
        let device = Device::toronto();
        let c = ghz_circuit(12);
        let layout = path_layout_from_seed(&c, &device, 0, &PlacementConfig::default(), &[])
            .expect("12-qubit path exists on Falcon");
        // Every interacting pair must be adjacent — zero swaps needed.
        for l in 0..11 {
            assert!(device.topology().are_adjacent(layout.physical(l), layout.physical(l + 1)));
        }
    }

    #[test]
    fn path_layout_survives_dead_ends() {
        // Seeding at a leaf of the heavy-hex graph forces backtracking.
        let device = Device::manhattan();
        let c = ghz_circuit(18);
        let layout = path_layout_from_seed(&c, &device, 0, &PlacementConfig::default(), &[]);
        assert!(layout.is_some(), "18-qubit path exists on Hummingbird");
    }

    #[test]
    fn spread_seeds_are_distinct_and_in_range() {
        let device = Device::manhattan();
        let seeds = spread_seeds(&device, 12);
        assert_eq!(seeds.len(), 12);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "seeds must be distinct");
        assert!(seeds.iter().all(|&s| s < 65));
    }
}
