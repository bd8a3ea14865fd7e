//! Game instances: a complete weighted host graph plus the price
//! parameter `α`.

use std::sync::OnceLock;

use gncg_graph::apsp::DistanceMatrix;
use gncg_graph::{NodeId, SymMatrix};

/// A GNCG instance `(H, α)`.
///
/// `H` is given as its symmetric weight matrix; `α > 0` scales the price of
/// an edge relative to its weight: buying `(u, v)` costs `α·w(u, v)`.
#[derive(Debug)]
pub struct Game {
    host: SymMatrix,
    alpha: f64,
    /// Shortest-path distances *in the host* (the metric closure of `H`),
    /// computed **lazily** on first [`Game::host_distances`] call: the
    /// closure is Θ(n³) Floyd–Warshall, which at n = 4096 would dominate
    /// construction by orders of magnitude — and the dynamics hot path
    /// (speculative scans, warm repairs, social cost) never touches it.
    /// Only the reference best response's distance lower bound and the
    /// Lemma 1/2 spanner/PoA checks force it.
    host_dist: OnceLock<DistanceMatrix>,
    /// [`Game::weight_class`], computed once in [`Game::new`].
    weight_class: Option<(f64, f64)>,
}

// Manual impl: `OnceLock` derives would demand `DistanceMatrix: Clone`
// via the lock; cloning copies any already-computed closure so a clone
// never re-pays Floyd–Warshall.
impl Clone for Game {
    fn clone(&self) -> Self {
        let host_dist = OnceLock::new();
        if let Some(d) = self.host_dist.get() {
            let _ = host_dist.set(d.clone());
        }
        Game {
            host: self.host.clone(),
            alpha: self.alpha,
            host_dist,
            weight_class: self.weight_class,
        }
    }
}

impl Game {
    /// Creates an instance.
    ///
    /// # Panics
    /// Panics if `α <= 0` or any weight is negative.
    pub fn new(host: SymMatrix, alpha: f64) -> Self {
        assert!(alpha > 0.0, "α must be positive");
        assert!(host.is_nonnegative(), "edge weights must be non-negative");
        let (lo, hi) = (host.min_weight(), host.max_weight());
        let weight_class = (lo > 0.0 && hi.is_finite() && hi >= lo).then_some((lo, hi));
        Game {
            host,
            alpha,
            host_dist: OnceLock::new(),
            weight_class,
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

    /// Whether the host satisfies the triangle inequality (`M–GNCG`).
    pub fn is_metric(&self) -> bool {
        self.host.satisfies_triangle_inequality()
    }

    /// The same host with a different `α` (cheap: any already-computed
    /// closure is carried over, never recomputed).
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

    /// The host's weight class `(w_min, w_max)` over off-diagonal
    /// entries — the hint the bucket-queue SSSP engines accept
    /// (`DijkstraScratch::set_weight_class` and friends in
    /// `gncg_graph::csr`). Every edge a profile can buy carries a host
    /// weight, so every built network's weights lie in this class. The
    /// hint matters only on hosts of more than 64 nodes: smaller graphs
    /// run every shortest-path loop on a one-word frontier and ignore it.
    ///
    /// `None` when the class cannot drive a bucket ring: a non-positive
    /// minimum or no finite maximum (e.g. a `{1, ∞}` host whose only
    /// finite weight class is degenerate is still returned — infinite
    /// edges never win a relaxation, so they cannot perturb the scan).
    ///
    /// [`Game::new`] scans the `n × n` host for it once, so a read is
    /// `O(1)`: every fresh best response and every bound-table rebuild
    /// reads it.
    #[inline]
    pub fn weight_class(&self) -> Option<(f64, f64)> {
        self.weight_class
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
    fn weight_class_reflects_host_extremes() {
        let g = unit_game(5, 1.0);
        assert_eq!(g.weight_class(), Some((1.0, 1.0)));
        let mut w = SymMatrix::filled(4, 2.0);
        w.set(0, 1, 0.5);
        w.set(2, 3, 8.0);
        assert_eq!(Game::new(w, 1.0).weight_class(), Some((0.5, 8.0)));
        // A zero weight kills the class: buckets need w_min > 0.
        let mut z = SymMatrix::filled(3, 1.0);
        z.set(0, 2, 0.0);
        assert_eq!(Game::new(z, 1.0).weight_class(), None);
        // Infinite entries are ignored by the finite maximum.
        let mut inf = SymMatrix::filled(3, 1.0);
        inf.set(1, 2, f64::INFINITY);
        assert_eq!(Game::new(inf, 1.0).weight_class(), Some((1.0, 1.0)));
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
    fn with_alpha_keeps_host() {
        let g = unit_game(4, 1.0);
        let g2 = g.with_alpha(5.0);
        assert_eq!(g2.alpha(), 5.0);
        assert_eq!(g2.n(), 4);
        assert_eq!(g2.edge_price(1, 2), 5.0);
    }
}
