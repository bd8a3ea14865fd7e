//! All-pairs shortest paths, sequential and rayon-parallel.
//!
//! Social-cost evaluation needs the full distance matrix of `G(s)`. For the
//! sparse built networks the right algorithm is one Dijkstra per source;
//! sources are independent, so they fan out on the rayon pool
//! ([`apsp_parallel`]). A dense Floyd–Warshall variant is provided for
//! host-graph metric closures ([`floyd_warshall`]).

use rayon::prelude::*;

use crate::csr::{Csr, DijkstraScratch};
use crate::{AdjacencyList, NodeId, SymMatrix};

/// A dense all-pairs distance table.
///
/// Unlike [`SymMatrix`] this is not constrained to a zero diagonal by
/// construction, but shortest-path distances always have one.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<f64>,
}

impl DistanceMatrix {
    /// Wraps a row-major `n × n` buffer.
    pub fn from_raw(n: usize, d: Vec<f64>) -> Self {
        assert_eq!(d.len(), n * n);
        DistanceMatrix { n, d }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from `u` to `v`.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        self.d[u as usize * self.n + v as usize]
    }

    /// Row `u`: distances from `u` to every node.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[f64] {
        let s = u as usize * self.n;
        &self.d[s..s + self.n]
    }

    /// Distance cost `d_G(u, V)` of node `u`.
    pub fn distance_cost(&self, u: NodeId) -> f64 {
        self.row(u).iter().sum()
    }

    /// Total distance cost over all nodes (each ordered pair counted once,
    /// i.e. each unordered pair twice — matching the paper's social cost).
    pub fn total_distance_cost(&self) -> f64 {
        self.d.iter().sum()
    }

    /// Largest finite distance (diameter); `f64::INFINITY` if disconnected.
    pub fn diameter(&self) -> f64 {
        let mut diam: f64 = 0.0;
        for &x in &self.d {
            if x.is_infinite() {
                return f64::INFINITY;
            }
            diam = diam.max(x);
        }
        diam
    }

    /// Eccentricity of `u` (max distance from `u`).
    pub fn eccentricity(&self, u: NodeId) -> f64 {
        self.row(u).iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Whether all pairwise distances are finite.
    pub fn all_finite(&self) -> bool {
        self.d.iter().all(|x| x.is_finite())
    }

    /// Converts to a [`SymMatrix`] (host graphs from metric closures).
    ///
    /// # Panics
    /// Panics if the table is not symmetric within tolerance.
    pub fn into_sym_matrix(self) -> SymMatrix {
        let n = self.n;
        let mut m = SymMatrix::zeros(n);
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                let a = self.get(u, v);
                let b = self.get(v, u);
                assert!(
                    crate::approx_eq(a, b),
                    "asymmetric distance table at ({u}, {v}): {a} vs {b}"
                );
                m.set(u, v, a);
            }
        }
        m
    }
}

/// Sequential APSP: one Dijkstra per source, all sharing one scratch and
/// one CSR snapshot — the only allocations are the snapshot and the
/// `n × n` output buffer itself.
pub fn apsp_sequential(g: &AdjacencyList) -> DistanceMatrix {
    let n = g.n();
    if n == 0 {
        return DistanceMatrix::from_raw(0, Vec::new());
    }
    let csr = Csr::from_adjacency(g);
    let mut scratch = DijkstraScratch::new();
    let mut d = vec![f64::INFINITY; n * n];
    for (u, row) in d.chunks_mut(n).enumerate() {
        scratch.run(&csr, u as NodeId, &[]);
        scratch.write_distances(row);
    }
    DistanceMatrix::from_raw(n, d)
}

/// Parallel APSP: sources fan out on the rayon thread pool, each worker
/// writing its rows directly into disjoint `par_chunks_mut` slices of one
/// flat `n × n` buffer (no per-row `Vec` collection and recopy).
///
/// This is the default APSP entry point in the workspace; for the small
/// graphs of unit tests the sequential path is used automatically to avoid
/// pool overhead.
pub fn apsp_parallel(g: &AdjacencyList) -> DistanceMatrix {
    let n = g.n();
    // Small graphs and single-thread pools both pay fan-out bookkeeping
    // for nothing; the one-scratch sequential loop is strictly better.
    if n < 64 || rayon::current_num_threads() == 1 {
        return apsp_sequential(g);
    }
    let csr = Csr::from_adjacency(g);
    let mut d = vec![f64::INFINITY; n * n];
    // for_each_init: one scratch per chunk of rows, reused across the
    // chunk, regardless of which pool thread runs it.
    d.par_chunks_mut(n)
        .enumerate()
        .for_each_init(DijkstraScratch::new, |scratch, (u, row)| {
            scratch.run(&csr, u as NodeId, &[]);
            scratch.write_distances(row);
        });
    DistanceMatrix::from_raw(n, d)
}

/// Floyd–Warshall on a dense weight matrix; `None` entries in the input are
/// encoded as `f64::INFINITY`. Returns the metric closure of the weighted
/// graph the matrix describes.
pub fn floyd_warshall(w: &SymMatrix) -> DistanceMatrix {
    let n = w.n();
    let mut d = vec![f64::INFINITY; n * n];
    for u in 0..n {
        for v in 0..n {
            d[u * n + v] = if u == v {
                0.0
            } else {
                w.get(u as NodeId, v as NodeId)
            };
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik.is_infinite() {
                continue;
            }
            for j in 0..n {
                let via = dik + d[k * n + j];
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    DistanceMatrix::from_raw(n, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> AdjacencyList {
        AdjacencyList::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    }

    #[test]
    fn sequential_apsp_path() {
        let d = apsp_sequential(&path4());
        assert_eq!(d.get(0, 3), 6.0);
        assert_eq!(d.get(3, 0), 6.0);
        assert_eq!(d.get(1, 2), 2.0);
        assert_eq!(d.diameter(), 6.0);
        assert!(d.all_finite());
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = path4();
        assert_eq!(apsp_sequential(&g), apsp_parallel(&g));
    }

    #[test]
    fn parallel_matches_sequential_large() {
        // Random-ish sparse graph on 100 nodes: ring + chords.
        let n = 100;
        let mut g = AdjacencyList::new(n);
        for i in 0..n {
            g.add_edge(i as NodeId, ((i + 1) % n) as NodeId, 1.0 + (i % 7) as f64);
        }
        for i in (0..n).step_by(13) {
            let j = (i * i + 3) % n;
            if i != j && !g.has_edge(i as NodeId, j as NodeId) {
                g.add_edge(i as NodeId, j as NodeId, 2.5);
            }
        }
        let s = apsp_sequential(&g);
        let p = apsp_parallel(&g);
        assert_eq!(s, p);
    }

    #[test]
    fn distance_cost_and_total() {
        let d = apsp_sequential(&path4());
        assert_eq!(d.distance_cost(0), 0.0 + 1.0 + 3.0 + 6.0);
        // Total = 2 * sum over unordered pairs.
        let unordered: f64 = 1.0 + 3.0 + 6.0 + 2.0 + 5.0 + 3.0;
        assert_eq!(d.total_distance_cost(), 2.0 * unordered);
    }

    #[test]
    fn empty_graph_apsp_is_empty() {
        let g = AdjacencyList::new(0);
        assert_eq!(apsp_sequential(&g).n(), 0);
        assert_eq!(apsp_parallel(&g).n(), 0);
    }

    #[test]
    fn diameter_disconnected() {
        let mut g = AdjacencyList::new(3);
        g.add_edge(0, 1, 1.0);
        let d = apsp_sequential(&g);
        assert!(d.diameter().is_infinite());
        assert!(!d.all_finite());
    }

    #[test]
    fn floyd_warshall_matches_dijkstra() {
        let g = path4();
        let mut w = SymMatrix::filled(4, f64::INFINITY);
        for (u, v, wt) in g.edges() {
            w.set(u, v, wt);
        }
        let fw = floyd_warshall(&w);
        let dj = apsp_sequential(&g);
        for u in 0..4 {
            for v in 0..4 {
                assert!(crate::approx_eq(fw.get(u, v), dj.get(u, v)));
            }
        }
    }

    #[test]
    fn metric_closure_via_fw() {
        // Triangle with a long edge: closure should shortcut it.
        let mut w = SymMatrix::filled(3, f64::INFINITY);
        w.set(0, 1, 1.0);
        w.set(1, 2, 1.0);
        w.set(0, 2, 10.0);
        let d = floyd_warshall(&w);
        assert_eq!(d.get(0, 2), 2.0);
        let closure = d.into_sym_matrix();
        assert!(closure.satisfies_triangle_inequality());
    }

    #[test]
    fn eccentricity() {
        let d = apsp_sequential(&path4());
        assert_eq!(d.eccentricity(0), 6.0);
        assert_eq!(d.eccentricity(1), 5.0);
    }
}
