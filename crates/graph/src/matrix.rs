//! Dense symmetric weight matrices.
//!
//! The host graph of a GNCG instance is a *complete* weighted graph, so a
//! dense symmetric matrix is the natural storage. The diagonal is fixed to
//! zero; `set` keeps the matrix symmetric.

use crate::NodeId;

/// A dense symmetric `n × n` matrix of `f64` weights with a zero diagonal.
///
/// Used both for host-graph weights `w(u, v)` and for all-pairs distance
/// tables. Storage is a flat row-major `Vec<f64>` of length `n²`; symmetric
/// writes keep `m[u][v] == m[v][u]` as an invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates an `n × n` matrix filled with `fill` off the diagonal and
    /// zeros on the diagonal.
    pub fn filled(n: usize, fill: f64) -> Self {
        let mut data = vec![fill; n * n];
        for i in 0..n {
            data[i * n + i] = 0.0;
        }
        SymMatrix { n, data }
    }

    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds a matrix from a callback evaluated on every unordered pair
    /// `u < v`; the result is symmetric with a zero diagonal.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> f64) -> Self {
        let mut m = SymMatrix::zeros(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let w = f(u as NodeId, v as NodeId);
                m.set(u as NodeId, v as NodeId, w);
            }
        }
        m
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry `(u, v)`.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        self.data[u as usize * self.n + v as usize]
    }

    /// Writes entries `(u, v)` and `(v, u)`.
    ///
    /// # Panics
    /// Panics if `u == v` and `w != 0.0` (the diagonal must stay zero).
    #[inline]
    pub fn set(&mut self, u: NodeId, v: NodeId, w: f64) {
        if u == v {
            assert!(w == 0.0, "diagonal of a SymMatrix must remain zero");
            return;
        }
        self.data[u as usize * self.n + v as usize] = w;
        self.data[v as usize * self.n + u as usize] = w;
    }

    /// Row `u` as a slice of length `n` (fast bulk access for Dijkstra and
    /// Floyd–Warshall inner loops).
    #[inline]
    pub fn row(&self, u: NodeId) -> &[f64] {
        let s = u as usize * self.n;
        &self.data[s..s + self.n]
    }

    /// Iterates over all unordered pairs `(u, v, w)` with `u < v`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            ((u + 1)..self.n)
                .map(move |v| (u as NodeId, v as NodeId, self.get(u as NodeId, v as NodeId)))
        })
    }

    /// Sum of all entries over unordered pairs (total weight of the complete
    /// graph the matrix describes).
    pub fn total_weight(&self) -> f64 {
        self.pairs().map(|(_, _, w)| w).sum()
    }

    /// Checks all entries are non-negative (edge weights must be in `R+`).
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|&w| w >= 0.0)
    }

    /// Verifies the triangle inequality `w(u,v) <= w(u,x) + w(x,v)` for all
    /// triples within tolerance; this is the defining property of the
    /// `M–GNCG` model variant.
    pub fn satisfies_triangle_inequality(&self) -> bool {
        let n = self.n;
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                let w_uv = self.get(u, v);
                for x in 0..n as NodeId {
                    if x == u || x == v {
                        continue;
                    }
                    let detour = self.get(u, x) + self.get(x, v);
                    if w_uv > detour + crate::EPS {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_has_zero_diagonal() {
        let m = SymMatrix::filled(4, 7.0);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
        }
        assert_eq!(m.get(0, 3), 7.0);
    }

    #[test]
    fn set_is_symmetric() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 2, 5.5);
        assert_eq!(m.get(0, 2), 5.5);
        assert_eq!(m.get(2, 0), 5.5);
    }

    #[test]
    #[should_panic]
    fn diagonal_write_panics() {
        let mut m = SymMatrix::zeros(3);
        m.set(1, 1, 2.0);
    }

    #[test]
    fn from_fn_builds_symmetric() {
        let m = SymMatrix::from_fn(4, |u, v| (u + v) as f64);
        assert_eq!(m.get(1, 3), 4.0);
        assert_eq!(m.get(3, 1), 4.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn pairs_count() {
        let m = SymMatrix::filled(5, 1.0);
        assert_eq!(m.pairs().count(), 10);
        assert_eq!(m.total_weight(), 10.0);
    }

    #[test]
    fn triangle_inequality_detection() {
        // Unit metric satisfies it.
        let unit = SymMatrix::filled(5, 1.0);
        assert!(unit.satisfies_triangle_inequality());
        // 1-2 weights always satisfy it.
        let m12 = SymMatrix::from_fn(5, |u, v| if (u + v) % 2 == 0 { 2.0 } else { 1.0 });
        assert!(m12.satisfies_triangle_inequality());
        // A long edge violating the detour bound does not.
        let mut bad = SymMatrix::filled(3, 1.0);
        bad.set(0, 1, 10.0);
        assert!(!bad.satisfies_triangle_inequality());
    }

    #[test]
    fn row_access() {
        let m = SymMatrix::from_fn(3, |u, v| (u * 3 + v) as f64);
        let r = m.row(0);
        assert_eq!(r.len(), 3);
        assert_eq!(r[1], 1.0);
        assert_eq!(r[2], 2.0);
    }
}
