//! # gncg-graph
//!
//! Weighted-graph substrate for the reproduction of *Geometric Network
//! Creation Games* (Bilò, Friedrich, Lenzner, Melnichenko — SPAA 2019).
//!
//! The game is played on a **complete undirected weighted host graph**
//! `H = (V, E(H))`; strategies select a subgraph `G(s)` of `H`, and agent
//! costs depend on shortest-path distances in `G(s)`. This crate provides
//! everything below the game layer:
//!
//! * [`SymMatrix`] — dense symmetric `f64` weight storage for host graphs,
//! * [`AdjacencyList`] — sparse built networks `G(s)`,
//! * [`csr`] — CSR graph snapshots and [`DynamicSssp`], the one
//!   shortest-path engine: fresh runs from a source, undo-logged
//!   insertions and Ramalingam–Reps deletion repair, under every
//!   Dijkstra, the incremental best-response search and the dynamics
//!   engine's warm distance vectors,
//! * [`delta`] — [`NetworkDelta`], the batched edge-change description
//!   every network mutation flows through,
//! * [`dijkstra`] / [`apsp`] — single-source and (rayon-parallel) all-pairs
//!   shortest paths, each a fresh run of a reused [`DynamicSssp`],
//! * [`mst`] — Prim/Kruskal minimum spanning trees,
//! * [`paths`] — shortest-path trees and route extraction,
//! * [`tree`] — edge-weighted trees and their metric closure (the `T–GNCG`
//!   host-graph factory substrate),
//! * [`spanner`] — `k`-spanner verification (Lemmas 1 and 2 of the paper),
//! * [`unionfind`] — disjoint sets used by Kruskal and cycle checks.
//!
//! Everything is index-based: nodes are `u32` ids in `0..n`.

pub mod adjacency;
pub mod apsp;
pub mod csr;
pub mod delta;
pub mod dijkstra;
pub mod matrix;
pub mod mst;
pub mod paths;
pub mod spanner;
pub mod tree;
pub mod unionfind;

pub use adjacency::AdjacencyList;
pub use apsp::DistanceMatrix;
pub use csr::{Csr, DynamicSssp, EdgeSource, MaskedEdges};
pub use delta::NetworkDelta;
pub use matrix::SymMatrix;
pub use tree::WeightedTree;

/// Node identifier. All graphs in this workspace are indexed `0..n`.
pub type NodeId = u32;

/// Numeric tolerance used for all strict-improvement comparisons in the
/// workspace. Construction weights in the paper are rational and chosen so
/// that every relevant comparison clears this tolerance by orders of
/// magnitude.
pub const EPS: f64 = 1e-9;

/// Returns `true` if `a` is strictly smaller than `b` beyond the workspace
/// tolerance [`EPS`]. Infinite values are handled absorbingly:
/// `strictly_less(f64::INFINITY, f64::INFINITY)` is `false`.
#[inline]
pub fn strictly_less(a: f64, b: f64) -> bool {
    if a.is_infinite() && b.is_infinite() {
        return false;
    }
    if b.is_infinite() {
        return a.is_finite();
    }
    a < b - EPS
}

/// Returns `true` if `a` and `b` are equal within the workspace tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= EPS
}

/// Returns `true` if `a <= b` within the workspace tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS || (a.is_infinite() && b.is_infinite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictly_less_basic() {
        assert!(strictly_less(1.0, 2.0));
        assert!(!strictly_less(2.0, 1.0));
        assert!(!strictly_less(1.0, 1.0));
    }

    #[test]
    fn strictly_less_respects_tolerance() {
        assert!(!strictly_less(1.0, 1.0 + EPS / 2.0));
        assert!(strictly_less(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn strictly_less_infinities() {
        assert!(!strictly_less(f64::INFINITY, f64::INFINITY));
        assert!(strictly_less(1.0, f64::INFINITY));
        assert!(!strictly_less(f64::INFINITY, 1.0));
    }

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + EPS / 10.0));
        assert!(!approx_eq(1.0, 1.001));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!approx_eq(f64::INFINITY, 1.0));
    }

    #[test]
    fn approx_le_basic() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0, 2.0));
        assert!(!approx_le(2.0, 1.0));
        assert!(approx_le(f64::INFINITY, f64::INFINITY));
        assert!(approx_le(1.0, f64::INFINITY));
    }
}
