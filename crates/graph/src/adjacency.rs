//! Sparse weighted undirected graphs (the built networks `G(s)`).
//!
//! Strategy profiles of the game induce sparse subgraphs of the complete
//! host graph; shortest-path computations run on this adjacency-list
//! representation.

use crate::{NodeId, SymMatrix};

/// An undirected weighted graph stored as per-node adjacency lists.
///
/// Parallel edges are not deduplicated on insertion; callers that need
/// uniqueness (the game layer does) must check [`AdjacencyList::has_edge`]
/// first or build via [`AdjacencyList::from_edges`].
#[derive(Clone, Debug, Default)]
pub struct AdjacencyList {
    adj: Vec<Vec<(NodeId, f64)>>,
    m: usize,
}

impl AdjacencyList {
    /// Creates an empty graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        AdjacencyList {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Empties the graph and sizes it to `n` nodes, keeping the neighbour
    /// lists it still has: refilling it then allocates only where a list
    /// outgrows the capacity it already held.
    pub fn clear(&mut self, n: usize) {
        self.adj.truncate(n);
        for nbrs in &mut self.adj {
            nbrs.clear();
        }
        self.adj.resize_with(n, Vec::new);
        self.m = 0;
    }

    /// Builds a graph from an edge list, ignoring duplicate pairs
    /// (the first weight wins).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, f64)]) -> Self {
        let mut g = AdjacencyList::new(n);
        for &(u, v, w) in edges {
            if !g.has_edge(u, v) {
                g.add_edge(u, v, w);
            }
        }
        g
    }

    /// Builds the complete graph described by a weight matrix, skipping
    /// non-finite entries (used for `1-∞` host graphs, where `∞` encodes a
    /// forbidden edge).
    pub fn complete_from_matrix(w: &SymMatrix) -> Self {
        let mut g = AdjacencyList::new(w.n());
        for (u, v, wt) in w.pairs() {
            if wt.is_finite() {
                g.add_edge(u, v, wt);
            }
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Adds undirected edge `(u, v)` with weight `w`.
    ///
    /// # Panics
    /// Panics on self-loops.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert_ne!(u, v, "self-loops are not allowed");
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
        self.m += 1;
    }

    /// Removes undirected edge `(u, v)` if present; returns whether an edge
    /// was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let before = self.adj[u as usize].len();
        self.adj[u as usize].retain(|&(x, _)| x != v);
        let removed = self.adj[u as usize].len() < before;
        if removed {
            self.adj[v as usize].retain(|&(x, _)| x != u);
            self.m -= 1;
        }
        removed
    }

    /// Returns the weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.adj[u as usize]
            .iter()
            .find(|&&(x, _)| x == v)
            .map(|&(_, w)| w)
    }

    /// Whether edge `(u, v)` is present.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u as usize].iter().any(|&(x, _)| x == v)
    }

    /// Neighbors of `u` with edge weights.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.adj[u as usize]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Iterates over undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&(v, _)| (u as NodeId) < v)
                .map(move |&(v, w)| (u as NodeId, v, w))
        })
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).sum()
    }

    /// Whether the graph is connected (singleton graphs are connected;
    /// the empty graph on 0 nodes is connected by convention).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Whether the graph is acyclic (a forest). Combined with
    /// [`AdjacencyList::is_connected`] this checks treeness — the structure
    /// Theorem 12 of the paper proves for every NE under tree metrics.
    pub fn is_forest(&self) -> bool {
        // A forest on n nodes with c components has exactly n - c edges.
        let n = self.n();
        if n == 0 {
            return true;
        }
        let mut uf = crate::unionfind::UnionFind::new(n);
        for (u, v, _) in self.edges() {
            if !uf.union(u as usize, v as usize) {
                return false;
            }
        }
        true
    }

    /// Whether the graph is a tree (connected and acyclic).
    pub fn is_tree(&self) -> bool {
        self.is_connected() && self.is_forest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> AdjacencyList {
        AdjacencyList::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)])
    }

    #[test]
    fn add_and_query() {
        let g = path3();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn remove_edge_works() {
        let mut g = path3();
        assert!(g.remove_edge(0, 1));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.m(), 1);
        assert!(!g.remove_edge(0, 1));
    }

    #[test]
    fn from_edges_dedups() {
        let g = AdjacencyList::from_edges(2, &[(0, 1, 1.0), (1, 0, 5.0)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut g = AdjacencyList::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    fn connectivity() {
        let g = path3();
        assert!(g.is_connected());
        let mut g2 = g.clone();
        g2.remove_edge(1, 2);
        assert!(!g2.is_connected());
        assert!(AdjacencyList::new(1).is_connected());
        assert!(AdjacencyList::new(0).is_connected());
    }

    #[test]
    fn tree_detection() {
        let g = path3();
        assert!(g.is_tree());
        let mut cyc = g.clone();
        cyc.add_edge(0, 2, 1.0);
        assert!(!cyc.is_forest());
        assert!(!cyc.is_tree());
        let mut forest = AdjacencyList::new(4);
        forest.add_edge(0, 1, 1.0);
        forest.add_edge(2, 3, 1.0);
        assert!(forest.is_forest());
        assert!(!forest.is_tree());
    }

    #[test]
    fn edges_iterator_and_weight() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(g.total_weight(), 3.0);
    }

    #[test]
    fn complete_from_matrix_skips_infinite() {
        let mut w = SymMatrix::filled(3, 1.0);
        w.set(0, 2, f64::INFINITY);
        let g = AdjacencyList::complete_from_matrix(&w);
        assert_eq!(g.m(), 2);
        assert!(!g.has_edge(0, 2));
    }
}
