//! Device coupling graphs and all-pairs distances.

use std::collections::VecDeque;

/// An undirected coupling graph of physical qubits, with precomputed
/// adjacency lists and an all-pairs BFS distance matrix (what SABRE's
/// routing heuristic consumes).
///
/// # Examples
///
/// ```
/// use jigsaw_device::Topology;
///
/// let line = Topology::line(4);
/// assert!(line.are_adjacent(1, 2));
/// assert_eq!(line.distance(0, 3), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n_qubits: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    distance: Vec<Vec<u32>>,
}

/// Distance value for disconnected qubit pairs.
pub const UNREACHABLE: u32 = u32::MAX;

impl Topology {
    /// Builds a topology from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicate edges, or out-of-range endpoints.
    #[must_use]
    pub fn new(n_qubits: usize, edges: Vec<(usize, usize)>) -> Self {
        let mut adjacency = vec![Vec::new(); n_qubits];
        let mut seen = jigsaw_pmf::hashing::DetHashSet::default();
        for &(u, v) in &edges {
            assert!(u < n_qubits && v < n_qubits, "edge ({u},{v}) out of range");
            assert_ne!(u, v, "self-loop at qubit {u}");
            assert!(seen.insert((u.min(v), u.max(v))), "duplicate edge ({u},{v})");
            adjacency[u].push(v);
            adjacency[v].push(u);
        }
        for nbrs in &mut adjacency {
            nbrs.sort_unstable();
        }
        let distance = all_pairs_bfs(n_qubits, &adjacency);
        Self { n_qubits, edges, adjacency, distance }
    }

    /// Straight-line coupling `0−1−…−(n−1)` (useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn line(n: usize) -> Self {
        assert!(n >= 1, "line topology needs at least one qubit");
        Self::new(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect())
    }

    /// Rectangular `rows × cols` grid with rook adjacency (the Sycamore-like
    /// substrate used for the Table 1 characterization).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
        let idx = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Self::new(rows * cols, edges)
    }

    /// The 27-qubit IBM Falcon heavy-hex lattice (IBMQ-Toronto / IBMQ-Paris
    /// coupling map).
    #[must_use]
    pub fn falcon27() -> Self {
        let edges = vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 5),
            (1, 4),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        Self::new(27, edges)
    }

    /// The 65-qubit IBM Hummingbird heavy-hex lattice (IBMQ-Manhattan
    /// coupling map, reconstructed from the published heavy-hex layout:
    /// five qubit rows joined by bridge qubits).
    #[must_use]
    pub fn hummingbird65() -> Self {
        let mut edges = Vec::new();
        // Row A: 0..9
        edges.extend((0..9).map(|i| (i, i + 1)));
        // Bridges A→B
        edges.extend([(0, 10), (4, 11), (8, 12)]);
        // Row B: 13..23
        edges.extend((13..23).map(|i| (i, i + 1)));
        edges.extend([(10, 13), (11, 17), (12, 21)]);
        // Bridges B→C
        edges.extend([(15, 24), (19, 25), (23, 26)]);
        // Row C: 27..37
        edges.extend((27..37).map(|i| (i, i + 1)));
        edges.extend([(24, 29), (25, 33), (26, 37)]);
        // Bridges C→D
        edges.extend([(27, 38), (31, 39), (35, 40)]);
        // Row D: 41..51
        edges.extend((41..51).map(|i| (i, i + 1)));
        edges.extend([(38, 41), (39, 45), (40, 49)]);
        // Bridges D→E
        edges.extend([(43, 52), (47, 53), (51, 54)]);
        // Row E: 55..64
        edges.extend((55..64).map(|i| (i, i + 1)));
        edges.extend([(52, 56), (53, 60), (54, 64)]);
        Self::new(65, edges)
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The edge list as provided at construction.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbours of a qubit, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    #[must_use]
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Whether two qubits share a coupler.
    #[must_use]
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].binary_search(&b).is_ok()
    }

    /// BFS hop distance between two qubits ([`UNREACHABLE`] when
    /// disconnected).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.distance[a][b]
    }

    /// Whether the coupling graph is connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.n_qubits <= 1 || self.distance[0].iter().all(|&d| d != UNREACHABLE)
    }
}

/// Wire format: `n_qubits` as `u64` plus the construction edge list; the
/// adjacency lists and distance matrix are derived state and are recomputed
/// on decode (the construction is deterministic, so a round-tripped
/// topology compares equal field-for-field). Decode validates what
/// [`Topology::new`] asserts — endpoints in range, no self-loops, no
/// duplicate edges — and returns a typed error instead of panicking.
impl jigsaw_pmf::codec::Encode for Topology {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_usize(self.n_qubits);
        jigsaw_pmf::codec::Encode::encode(&self.edges, w);
    }
}

impl jigsaw_pmf::codec::Decode for Topology {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        use jigsaw_pmf::codec::CodecError;
        let invalid = |detail: String| CodecError::InvalidValue { what: "Topology", detail };
        let n_qubits = r.usize()?;
        // Bound the width before `Topology::new` sizes its O(n²) distance
        // matrix: no device in this workspace can exceed the 256-qubit
        // outcome container, and an unbounded wire value must not drive a
        // multi-terabyte allocation.
        if n_qubits > jigsaw_pmf::MAX_BITS {
            return Err(invalid(format!(
                "{n_qubits} qubits exceed the {}-qubit outcome capacity",
                jigsaw_pmf::MAX_BITS
            )));
        }
        let edges = Vec::<(usize, usize)>::decode(r)?;
        let mut seen = jigsaw_pmf::hashing::DetHashSet::default();
        for &(u, v) in &edges {
            if u >= n_qubits || v >= n_qubits {
                return Err(invalid(format!("edge ({u},{v}) out of range for {n_qubits} qubits")));
            }
            if u == v {
                return Err(invalid(format!("self-loop at qubit {u}")));
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(invalid(format!("duplicate edge ({u},{v})")));
            }
        }
        Ok(Self::new(n_qubits, edges))
    }
}

fn all_pairs_bfs(n: usize, adjacency: &[Vec<usize>]) -> Vec<Vec<u32>> {
    let mut dist = vec![vec![UNREACHABLE; n]; n];
    for (start, row) in dist.iter_mut().enumerate() {
        row[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let du = row[u];
            for &v in &adjacency[u] {
                if row[v] == UNREACHABLE {
                    row[v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_degree(t: &Topology) -> usize {
        (0..t.n_qubits()).map(|q| t.neighbors(q).len()).max().unwrap_or(0)
    }

    #[test]
    fn line_distances() {
        let t = Topology::line(5);
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.distance(2, 2), 0);
        assert!(t.are_adjacent(3, 4));
        assert!(!t.are_adjacent(0, 2));
    }

    #[test]
    fn grid_shape() {
        let t = Topology::grid(6, 9);
        assert_eq!(t.n_qubits(), 54);
        assert!(t.is_connected());
        assert_eq!(max_degree(&t), 4);
        assert_eq!(t.distance(0, 53), 5 + 8);
    }

    #[test]
    fn falcon27_is_the_published_lattice() {
        let t = Topology::falcon27();
        assert_eq!(t.n_qubits(), 27);
        assert_eq!(t.edges().len(), 28);
        assert!(t.is_connected());
        assert!(max_degree(&t) <= 3);
        // Spot-check the published couplers.
        assert!(t.are_adjacent(12, 15));
        assert!(t.are_adjacent(25, 26));
        assert!(!t.are_adjacent(0, 26));
    }

    #[test]
    fn hummingbird65_is_heavy_hex_shaped() {
        let t = Topology::hummingbird65();
        assert_eq!(t.n_qubits(), 65);
        assert_eq!(t.edges().len(), 72);
        assert!(t.is_connected());
        assert!(max_degree(&t) <= 3, "heavy-hex lattices are degree-≤3");
    }

    #[test]
    fn distances_are_symmetric_and_triangle() {
        let t = Topology::falcon27();
        for a in 0..27 {
            for b in 0..27 {
                assert_eq!(t.distance(a, b), t.distance(b, a));
                for c in 0..27 {
                    assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_reports_unreachable() {
        let t = Topology::new(4, vec![(0, 1), (2, 3)]);
        assert!(!t.is_connected());
        assert_eq!(t.distance(0, 3), UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let _ = Topology::new(3, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn codec_round_trips_and_bounds_the_width() {
        use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec, CodecError};
        let t = Topology::falcon27();
        let back: Topology = decode_from_slice(&encode_to_vec(&t)).unwrap();
        assert_eq!(back, t);
        // A wire width of 2^20 with an empty edge list must be a typed
        // error, not a 4 TiB distance-matrix allocation.
        let mut w = jigsaw_pmf::codec::Writer::new();
        w.put_usize(1 << 20);
        w.put_usize(0);
        assert!(matches!(
            decode_from_slice::<Topology>(&w.into_bytes()),
            Err(CodecError::InvalidValue { what: "Topology", .. })
        ));
    }
}
