//! Game instances: a complete weighted host graph plus the price
//! parameter `α`.

use std::sync::OnceLock;

use gncg_graph::apsp::DistanceMatrix;
use gncg_graph::{NodeId, SymMatrix};

/// A GNCG instance `(H, α)`.
///
/// `H` is given as its symmetric weight matrix; `α > 0` scales the price of
/// an edge relative to its weight: buying `(u, v)` costs `α·w(u, v)`.
///
/// A clone copies whichever lazy table is already built, so it never
/// re-pays Floyd–Warshall or the sort.
#[derive(Clone, Debug)]
pub struct Game {
    host: SymMatrix,
    alpha: f64,
    /// Shortest-path distances *in the host* (the metric closure of `H`),
    /// computed **lazily** on first [`Game::host_distances`] call: the
    /// closure is Θ(n³) Floyd–Warshall, which at n = 4096 would dominate
    /// construction by orders of magnitude — and the greedy rules' hot
    /// path (speculative scans, warm repairs, social cost) never touches
    /// it. The exact best responses (their candidate cut), the reference
    /// best response's distance lower bound and the Lemma 1/2 spanner/PoA
    /// checks force it.
    host_dist: OnceLock<DistanceMatrix>,
    /// [`Game::by_weight`]'s rows, `n − 1` entries per agent laid end to
    /// end, built **lazily** on first use like `host_dist`: only the
    /// exact best responses read them.
    by_weight: OnceLock<Vec<(NodeId, f64)>>,
}

impl Game {
    /// Creates an instance.
    ///
    /// # Panics
    /// Panics if `α <= 0` or any weight is negative.
    pub fn new(host: SymMatrix, alpha: f64) -> Self {
        assert!(alpha > 0.0, "α must be positive");
        assert!(host.is_nonnegative(), "edge weights must be non-negative");
        Game {
            host,
            alpha,
            host_dist: OnceLock::new(),
            by_weight: OnceLock::new(),
        }
    }

    /// Number of agents.
    #[inline]
    pub fn n(&self) -> usize {
        self.host.n()
    }

    /// The price parameter `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The host weight `w(u, v)`.
    #[inline]
    pub fn w(&self, u: NodeId, v: NodeId) -> f64 {
        self.host.get(u, v)
    }

    /// The host weight matrix.
    #[inline]
    pub fn host(&self) -> &SymMatrix {
        &self.host
    }

    /// Shortest-path distances in the host graph (`d_H`), computing the
    /// Θ(n³) metric closure on first use (thread-safe; at most once per
    /// instance).
    pub fn host_distances(&self) -> &DistanceMatrix {
        self.host_dist
            .get_or_init(|| gncg_graph::apsp::floyd_warshall(&self.host))
    }

    /// The other nodes by increasing host weight from `u`, equal weights in
    /// ascending id order, each with its weight `w(u, v)`: an exact best
    /// response's candidate order. The table of every agent's row is
    /// built on first use (thread-safe; at most once per instance).
    pub fn by_weight(&self, u: NodeId) -> &[(NodeId, f64)] {
        let n = self.n();
        let table = self.by_weight.get_or_init(|| {
            let mut table = Vec::with_capacity(n * n.saturating_sub(1));
            for a in 0..n as NodeId {
                let row = table.len();
                let w = self.host.row(a);
                table.extend(
                    (0..n as NodeId)
                        .filter(|&v| v != a)
                        .map(|v| (v, w[v as usize])),
                );
                // A stable sort, so equal weights keep ascending ids.
                table[row..].sort_by(|x, y| x.1.total_cmp(&y.1));
            }
            table
        });
        let len = n - 1;
        &table[u as usize * len..(u as usize + 1) * len]
    }

    /// Whether the host satisfies the triangle inequality (`M–GNCG`).
    pub fn is_metric(&self) -> bool {
        self.host.satisfies_triangle_inequality()
    }

    /// The same host with a different `α` (cheap: any already-built lazy
    /// table is carried over, never recomputed).
    pub fn with_alpha(&self, alpha: f64) -> Game {
        assert!(alpha > 0.0, "α must be positive");
        let mut g = self.clone();
        g.alpha = alpha;
        g
    }

    /// Price of buying edge `(u, v)`: `α·w(u, v)`.
    #[inline]
    pub fn edge_price(&self, u: NodeId, v: NodeId) -> f64 {
        self.alpha * self.host.get(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_game(n: usize, alpha: f64) -> Game {
        Game::new(SymMatrix::filled(n, 1.0), alpha)
    }

    #[test]
    fn construction_and_accessors() {
        let g = unit_game(5, 2.0);
        assert_eq!(g.n(), 5);
        assert_eq!(g.alpha(), 2.0);
        assert_eq!(g.w(0, 1), 1.0);
        assert_eq!(g.edge_price(0, 1), 2.0);
        assert!(g.is_metric());
    }

    #[test]
    #[should_panic]
    fn zero_alpha_rejected() {
        unit_game(3, 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_weights_rejected() {
        let mut w = SymMatrix::filled(3, 1.0);
        w.set(0, 1, -1.0);
        Game::new(w, 1.0);
    }

    #[test]
    fn host_distances_shortcut_nonmetric_edges() {
        let mut w = SymMatrix::filled(3, 1.0);
        w.set(0, 2, 10.0);
        let g = Game::new(w, 1.0);
        assert!(!g.is_metric());
        assert_eq!(g.host_distances().get(0, 2), 2.0);
        assert_eq!(g.w(0, 2), 10.0);
    }

    #[test]
    fn host_closure_is_lazy_and_survives_clone() {
        let mut w = SymMatrix::filled(4, 1.0);
        w.set(0, 3, 9.0);
        let g = Game::new(w, 1.0);
        // Nothing computed yet; a clone of an unforced game is unforced.
        assert!(g.host_dist.get().is_none());
        assert!(g.clone().host_dist.get().is_none());
        assert_eq!(g.host_distances().get(0, 3), 2.0);
        // A clone of a forced game carries the closure over.
        let c = g.clone();
        assert!(c.host_dist.get().is_some());
        assert_eq!(c.host_distances().get(0, 3), 2.0);
        let a = g.with_alpha(3.0);
        assert_eq!(a.host_distances().get(0, 3), 2.0);
    }

    #[test]
    fn by_weight_orders_each_row_with_ties_by_id() {
        let mut w = SymMatrix::filled(4, 2.0);
        w.set(0, 3, 1.0);
        w.set(1, 2, f64::INFINITY);
        let g = Game::new(w, 1.0);
        assert!(g.by_weight.get().is_none());
        assert_eq!(g.by_weight(0), &[(3, 1.0), (1, 2.0), (2, 2.0)]);
        assert_eq!(g.by_weight(1), &[(0, 2.0), (3, 2.0), (2, f64::INFINITY)]);
        assert_eq!(g.by_weight(3), &[(0, 1.0), (1, 2.0), (2, 2.0)]);
        // A clone of a forced game carries the table over.
        assert!(g.with_alpha(3.0).by_weight.get().is_some());
    }

    #[test]
    fn with_alpha_keeps_host() {
        let g = unit_game(4, 1.0);
        let g2 = g.with_alpha(5.0);
        assert_eq!(g2.alpha(), 5.0);
        assert_eq!(g2.n(), 4);
        assert_eq!(g2.edge_price(1, 2), 5.0);
    }
}
