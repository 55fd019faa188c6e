//! The QAOA/MaxCut substrate: problem graphs, cut bookkeeping, angle
//! schedules, and the Approximation-Ratio-Gap metric of paper §5.5(4).

use jigsaw_pmf::{BitString, Pmf};

use crate::Circuit;

/// An undirected MaxCut problem graph.
///
/// # Examples
///
/// ```
/// use jigsaw_circuit::qaoa::Graph;
///
/// let g = Graph::path(4);
/// assert_eq!(g.n_edges(), 3);
/// // The alternating colouring cuts every edge of a path.
/// let best: jigsaw_pmf::BitString = "1010".parse().unwrap();
/// assert_eq!(g.cut_value(&best), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n_vertices: usize,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Creates a graph from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicate edges, or out-of-range endpoints.
    #[must_use]
    pub fn new(n_vertices: usize, edges: Vec<(usize, usize)>) -> Self {
        let mut seen = jigsaw_pmf::hashing::DetHashSet::default();
        for &(u, v) in &edges {
            assert!(u < n_vertices && v < n_vertices, "edge ({u},{v}) out of range");
            assert_ne!(u, v, "self-loop at vertex {u}");
            let key = (u.min(v), u.max(v));
            assert!(seen.insert(key), "duplicate edge ({u},{v})");
        }
        Self { n_vertices, edges }
    }

    /// Path graph `0−1−…−(n−1)` with `n−1` edges — the topology whose edge
    /// count matches the paper's Table 2 QAOA gate counts (`n−1` ZZ
    /// interactions per layer).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn path(n: usize) -> Self {
        assert!(n >= 2, "path graph needs at least 2 vertices");
        Self::new(n, (0..n - 1).map(|i| (i, i + 1)).collect())
    }

    /// Ring graph (path plus the closing edge).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring graph needs at least 3 vertices");
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        Self::new(n, edges)
    }

    /// Number of vertices (qubits of the QAOA circuit).
    #[must_use]
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of edges (ZZ interactions per QAOA layer).
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of edges cut by an assignment (vertex *i* on side `bit(i)`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment width differs from the vertex count.
    #[must_use]
    pub fn cut_value(&self, assignment: &BitString) -> u64 {
        assert_eq!(assignment.len(), self.n_vertices, "assignment width mismatch");
        self.edges.iter().filter(|&&(u, v)| assignment.bit(u) != assignment.bit(v)).count() as u64
    }

    /// Brute-force MaxCut: the optimum value and every optimal assignment.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 24 vertices (`2^n` enumeration).
    #[must_use]
    pub fn max_cut(&self) -> (u64, Vec<BitString>) {
        assert!(self.n_vertices <= 24, "brute-force MaxCut capped at 24 vertices");
        let mut best = 0u64;
        let mut winners = Vec::new();
        for v in 0u64..(1u64 << self.n_vertices) {
            let b = BitString::from_u64(v, self.n_vertices);
            let cut = self.cut_value(&b);
            if cut > best {
                best = cut;
                winners.clear();
                winners.push(b);
            } else if cut == best {
                winners.push(b);
            }
        }
        (best, winners)
    }

    /// Expected cut value under an output distribution (the numerator of the
    /// Approximation Ratio).
    #[must_use]
    pub fn expected_cut(&self, pmf: &Pmf) -> f64 {
        pmf.iter().map(|(b, p)| p * self.cut_value(b) as f64).sum()
    }

    /// Approximation Ratio: `E[cut] / maxcut` over an output distribution.
    #[must_use]
    pub fn approximation_ratio(&self, pmf: &Pmf) -> f64 {
        let (best, _) = self.max_cut();
        if best == 0 {
            return 1.0;
        }
        self.expected_cut(pmf) / best as f64
    }
}

/// Approximation Ratio Gap (paper Equation 4):
/// `100·(AR_ideal − AR_real)/AR_ideal`. Lower is better.
#[must_use]
pub fn approximation_ratio_gap(ar_ideal: f64, ar_real: f64) -> f64 {
    assert!(ar_ideal > 0.0, "ideal approximation ratio must be positive");
    100.0 * (ar_ideal - ar_real) / ar_ideal
}

/// A `p`-layer QAOA angle schedule (γ per cost layer, β per mixer layer).
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaAngles {
    /// Cost-layer angles γ₁..γ_p.
    pub gammas: Vec<f64>,
    /// Mixer-layer angles β₁..β_p.
    pub betas: Vec<f64>,
}

impl QaoaAngles {
    /// Creates a schedule from explicit angles.
    ///
    /// # Panics
    ///
    /// Panics if the two lists have different lengths or are empty.
    #[must_use]
    pub fn new(gammas: Vec<f64>, betas: Vec<f64>) -> Self {
        assert_eq!(gammas.len(), betas.len(), "γ and β lists must have equal length");
        assert!(!gammas.is_empty(), "QAOA needs at least one layer");
        Self { gammas, betas }
    }

    /// The linear-ramp initialisation (|γ| rises, β falls across layers) — a
    /// standard, optimiser-free schedule that achieves a solid approximation
    /// ratio on MaxCut and keeps every experiment deterministic. The
    /// optimiser in `jigsaw-core` can refine it.
    ///
    /// The γ sign is negative to match this workspace's `ZZ` convention
    /// (`zz(u, v, 2γ)` applies `e^{−iγ·Z⊗Z}`); a grid scan on path graphs
    /// puts the p = 1 optimum at exactly (γ, β) = (−0.4, +0.4), which this
    /// ramp reproduces, reaching AR ≈ 0.76/0.79/0.85 at p = 1/2/4.
    #[must_use]
    pub fn linear_ramp(p: usize) -> Self {
        assert!(p >= 1, "QAOA needs at least one layer");
        const GAMMA_MAX: f64 = 0.8;
        const BETA_MAX: f64 = 0.8;
        let gammas = (0..p).map(|l| -GAMMA_MAX * (l as f64 + 0.5) / p as f64).collect();
        let betas = (0..p).map(|l| BETA_MAX * (1.0 - (l as f64 + 0.5) / p as f64)).collect();
        Self::new(gammas, betas)
    }

    /// Number of layers `p`.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.gammas.len()
    }
}

/// Builds the `p`-layer QAOA MaxCut circuit for `graph`: Hadamard wall, then
/// per layer every edge's `ZZ(2γ)` (as CX·RZ·CX) followed by `RX(2β)` on
/// every qubit. Measurements are **not** added; callers choose global or
/// subset mode.
#[must_use]
pub fn qaoa_circuit(graph: &Graph, angles: &QaoaAngles) -> Circuit {
    let n = graph.n_vertices();
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for layer in 0..angles.layers() {
        let gamma = angles.gammas[layer];
        let beta = angles.betas[layer];
        for &(u, v) in graph.edges() {
            c.zz(u, v, 2.0 * gamma);
        }
        for q in 0..n {
            c.rx(q, 2.0 * beta);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        s.parse().unwrap()
    }

    #[test]
    fn path_graph_shape() {
        let g = Graph::path(5);
        assert_eq!(g.n_vertices(), 5);
        assert_eq!(g.n_edges(), 4);
    }

    #[test]
    fn ring_graph_closes() {
        let g = Graph::ring(4);
        assert_eq!(g.n_edges(), 4);
        assert!(g.edges().contains(&(3, 0)));
    }

    #[test]
    fn cut_value_counts_cut_edges() {
        let g = Graph::path(4);
        assert_eq!(g.cut_value(&bs("0000")), 0);
        assert_eq!(g.cut_value(&bs("1010")), 3);
        assert_eq!(g.cut_value(&bs("0011")), 1);
    }

    #[test]
    fn max_cut_of_path_is_alternating() {
        let (best, winners) = Graph::path(4).max_cut();
        assert_eq!(best, 3);
        assert_eq!(winners.len(), 2);
        assert!(winners.contains(&bs("0101")));
        assert!(winners.contains(&bs("1010")));
    }

    #[test]
    fn max_cut_of_even_ring() {
        let (best, winners) = Graph::ring(6).max_cut();
        assert_eq!(best, 6);
        assert_eq!(winners.len(), 2);
    }

    #[test]
    fn expected_cut_weights_distribution() {
        let g = Graph::path(2);
        let mut p = Pmf::new(2);
        p.set(bs("01"), 0.5); // cut 1
        p.set(bs("00"), 0.5); // cut 0
        assert!((g.expected_cut(&p) - 0.5).abs() < 1e-12);
        assert!((g.approximation_ratio(&p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arg_formula() {
        assert!((approximation_ratio_gap(0.9, 0.45) - 50.0).abs() < 1e-12);
        assert!(approximation_ratio_gap(0.9, 0.9).abs() < 1e-12);
    }

    #[test]
    fn linear_ramp_is_monotone() {
        let a = QaoaAngles::linear_ramp(4);
        assert_eq!(a.layers(), 4);
        // |γ| ramps up (γ is negative per the ZZ sign convention), β ramps down.
        assert!(a.gammas.windows(2).all(|w| w[0].abs() < w[1].abs()));
        assert!(a.gammas.iter().all(|&g| g < 0.0));
        assert!(a.betas.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn linear_ramp_p1_hits_the_scanned_optimum() {
        let a = QaoaAngles::linear_ramp(1);
        assert!((a.gammas[0] + 0.4).abs() < 1e-12);
        assert!((a.betas[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn qaoa_circuit_gate_counts_match_table2() {
        // Table 2: QAOA-n (p=1) has 2(n−1) CX from n−1 ZZ gates.
        let g = Graph::path(8);
        let c = qaoa_circuit(&g, &QaoaAngles::linear_ramp(1));
        assert_eq!(c.n_qubits(), 8);
        assert_eq!(c.two_qubit_gates(), 2 * 7);
        // p=2 doubles the interaction count.
        let c2 = qaoa_circuit(&g, &QaoaAngles::linear_ramp(2));
        assert_eq!(c2.two_qubit_gates(), 2 * 2 * 7);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Graph::new(3, vec![(1, 1)]);
    }
}
