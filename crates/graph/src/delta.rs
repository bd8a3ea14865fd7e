//! [`NetworkDelta`]: the batched edge-change description every network
//! mutation in the workspace flows through.
//!
//! A delta is an ordered batch of edge **removals** followed by edge
//! **insertions** (a reweight is a removal plus an insertion of the same
//! pair; a swap is a removal of one pair plus an insertion of another).
//! Producers — the dynamics engine's move application, the base-graph
//! derivation in `gncg_core::cost` — describe *what* changes; consumers
//! decide *how* to apply it:
//!
//! * [`NetworkDelta::apply_to`] mutates an [`AdjacencyList`] in place
//!   (removals first, then insertions — the staging order every consumer
//!   shares);
//! * `gncg_dynamics::EvalContext::apply_strategy_change` stages the same order
//!   edge by edge through its live network **and** delta-updates every
//!   warm [`DynamicSssp`](crate::csr::DynamicSssp) distance vector
//!   alongside ([`DynamicSssp::remove_edge`](crate::csr::DynamicSssp::remove_edge)
//!   for removals, [`DynamicSssp::relax_insert`](crate::csr::DynamicSssp::relax_insert)
//!   for insertions), so no change of any kind invalidates a vector.
//!
//! Staging matters: a dynamic SSSP update is exact only when the graph it
//! relaxes over is in the exact post-single-change state, so batch
//! consumers must apply one edge at a time — which is why the delta keeps
//! removals and insertions as explicit lists instead of a merged set.

use crate::{AdjacencyList, NodeId};

/// A batched, ordered description of how a network changes: removals
/// first, then insertions. See the module docs for the staging contract.
///
/// The buffers are reusable: call [`NetworkDelta::clear`] between batches
/// to keep the allocations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkDelta {
    removes: Vec<(NodeId, NodeId, f64)>,
    inserts: Vec<(NodeId, NodeId, f64)>,
}

impl NetworkDelta {
    /// An empty delta.
    pub fn new() -> Self {
        NetworkDelta::default()
    }

    /// Empties both change lists, keeping the allocations.
    pub fn clear(&mut self) {
        self.removes.clear();
        self.inserts.clear();
    }

    /// Whether the delta describes no change.
    pub fn is_empty(&self) -> bool {
        self.removes.is_empty() && self.inserts.is_empty()
    }

    /// Whether the delta removes at least one edge (the case that
    /// historically invalidated every warm distance vector).
    pub fn has_removals(&self) -> bool {
        !self.removes.is_empty()
    }

    /// Records the removal of undirected edge `(a, b)` whose current
    /// weight is `w` (recorded so the delta is invertible and so
    /// invalidate-and-redo baselines can replay it).
    pub fn remove(&mut self, a: NodeId, b: NodeId, w: f64) {
        self.removes.push((a, b, w));
    }

    /// Records the insertion of undirected edge `(a, b)` with weight `w`.
    pub fn insert(&mut self, a: NodeId, b: NodeId, w: f64) {
        self.inserts.push((a, b, w));
    }

    /// Records a reweight of `(a, b)` from `old_w` to `new_w` — by
    /// construction a removal followed by an insertion, so every consumer
    /// handles it with the two primitives it already has.
    pub fn reweight(&mut self, a: NodeId, b: NodeId, old_w: f64, new_w: f64) {
        self.remove(a, b, old_w);
        self.insert(a, b, new_w);
    }

    /// Records a swap: drop `(a, b)` (current weight `drop_w`), gain
    /// `(c, d)` (weight `add_w`) — the move kind that dominates high-α
    /// dynamics rounds.
    pub fn swap(&mut self, a: NodeId, b: NodeId, drop_w: f64, c: NodeId, d: NodeId, add_w: f64) {
        self.remove(a, b, drop_w);
        self.insert(c, d, add_w);
    }

    /// The recorded removals, in order.
    pub fn removes(&self) -> &[(NodeId, NodeId, f64)] {
        &self.removes
    }

    /// The recorded insertions, in order.
    pub fn inserts(&self) -> &[(NodeId, NodeId, f64)] {
        &self.inserts
    }

    /// Applies the delta to a graph: removals first, then insertions
    /// (skipping pairs already present — re-inserting an existing edge is
    /// a no-op, matching the dedup rule of the game layer).
    pub fn apply_to(&self, g: &mut AdjacencyList) {
        for &(a, b, _) in &self.removes {
            g.remove_edge(a, b);
        }
        for &(a, b, w) in &self.inserts {
            if !g.has_edge(a, b) {
                g.add_edge(a, b, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_to_stages_removals_before_insertions() {
        let mut g = AdjacencyList::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let mut d = NetworkDelta::new();
        d.swap(1, 2, 2.0, 2, 3, 0.5);
        d.apply_to(&mut g);
        assert!(!g.has_edge(1, 2));
        assert!(g.has_edge(2, 3));
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn reweight_is_remove_plus_insert() {
        let mut g = AdjacencyList::from_edges(2, &[(0, 1, 1.0)]);
        let mut d = NetworkDelta::new();
        d.reweight(0, 1, 1.0, 3.0);
        assert_eq!(d.removes().len(), 1);
        assert_eq!(d.inserts().len(), 1);
        d.apply_to(&mut g);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut g = AdjacencyList::from_edges(2, &[(0, 1, 1.0)]);
        let mut d = NetworkDelta::new();
        d.insert(0, 1, 9.0);
        d.apply_to(&mut g);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1.0), "first weight wins");
    }

    #[test]
    fn clear_keeps_a_reusable_delta() {
        let mut d = NetworkDelta::new();
        d.insert(0, 1, 1.0);
        d.remove(2, 3, 1.0);
        assert!(!d.is_empty());
        assert!(d.has_removals());
        d.clear();
        assert!(d.is_empty());
        assert!(!d.has_removals());
    }
}
