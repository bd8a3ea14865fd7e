//! Single-source shortest paths (Dijkstra) on [`AdjacencyList`] graphs.
//!
//! The game layer evaluates agent costs — sums of shortest-path distances —
//! millions of times per experiment, so this module is the hot path. Since
//! the incremental-engine refactor the actual relaxation lives in
//! [`crate::csr`]: every function here drives a thread-local
//! [`DijkstraScratch`], so repeated calls reuse its frontier and the
//! generation-stamped distance array instead of allocating fresh ones.
//! Only materializing the returned `Vec<f64>` allocates; callers on the
//! hottest paths (APSP, best-response search) use the scratch API directly
//! and skip even that.
//!
//! The free functions run the scratch's one-word frontier on graphs of at
//! most 64 nodes and its binary heap on larger ones (see [`crate::csr`]'s
//! module docs). [`dijkstra_reference`] is not built on the scratch at
//! all: it keeps a heap of its own, so it is the independent oracle that
//! both of the scratch's frontiers are tested against.

use std::cell::RefCell;

use crate::csr::DijkstraScratch;
use crate::{AdjacencyList, NodeId};

thread_local! {
    static SCRATCH: RefCell<DijkstraScratch> = RefCell::new(DijkstraScratch::new());
}

/// Computes shortest-path distances from `source` to every node.
/// Unreachable nodes get `f64::INFINITY`.
pub fn dijkstra(g: &AdjacencyList, source: NodeId) -> Vec<f64> {
    dijkstra_with_extra(g, source, &[])
}

/// Dijkstra with additional *virtual* undirected edges overlaid on `g`.
///
/// This is the workhorse of single-move evaluation: to price a candidate
/// strategy `S_u` the solver runs Dijkstra from `u` on the graph
/// `G − (u's old edges) ∪ (u's candidate edges)` without copying it.
/// `extra` edges apply in both directions.
pub fn dijkstra_with_extra(
    g: &AdjacencyList,
    source: NodeId,
    extra: &[(NodeId, NodeId, f64)],
) -> Vec<f64> {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.run(g, source, extra);
        s.to_vec(g.n())
    })
}

/// Dijkstra that ignores every edge in `removed` (as unordered pairs),
/// with `extra` virtual edges added.
///
/// Used to evaluate strategy changes: agent `u`'s owned edges are removed
/// and the candidate strategy's edges are overlaid.
pub fn dijkstra_masked(
    g: &AdjacencyList,
    source: NodeId,
    removed: &[(NodeId, NodeId)],
    extra: &[(NodeId, NodeId, f64)],
) -> Vec<f64> {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.run_masked(g, source, removed, extra);
        s.to_vec(g.n())
    })
}

/// Textbook Dijkstra with per-call allocation — deliberately **not**
/// built on [`DijkstraScratch`].
///
/// This is the independent test oracle: every production SSSP entry point
/// (including `exact_best_response_reference`) runs on the shared scratch
/// core, so equivalence tests comparing them to each other could not
/// catch a defect *in that core*. Comparing against this self-contained
/// implementation, which keeps a binary heap of its own at every size,
/// can: it checks the word frontier and the heap alike. Not a production
/// entry point — use [`dijkstra`].
pub fn dijkstra_reference(g: &AdjacencyList, source: NodeId) -> Vec<f64> {
    #[derive(Copy, Clone, PartialEq)]
    struct Entry(f64, NodeId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .total_cmp(&self.0)
                .then_with(|| other.1.cmp(&self.1))
        }
    }
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = std::collections::BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Entry(0.0, source));
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &(v, w) in g.neighbors(u) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Entry(nd, v));
            }
        }
    }
    dist
}

/// Sum of distances from `source` to all nodes (the *distance cost*
/// `d_G(u, V)` of the paper). Infinite if any node is unreachable.
/// Allocation-free: sums straight out of the thread-local scratch.
pub fn distance_cost(g: &AdjacencyList, source: NodeId) -> f64 {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.run(g, source, &[]);
        s.sum_distances(g.n())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AdjacencyList {
        // 0 -1- 1 -1- 3, 0 -3- 2 -1- 3
        AdjacencyList::from_edges(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 3.0), (2, 3, 1.0)])
    }

    #[test]
    fn shortest_paths_basic() {
        let g = diamond();
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = AdjacencyList::new(3);
        g.add_edge(0, 1, 1.0);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], f64::INFINITY);
        assert!(distance_cost(&g, 0).is_infinite());
    }

    #[test]
    fn extra_edges_shortcut() {
        let g = diamond();
        // Virtual edge 0-3 of weight 0.5 shortcuts everything.
        let d = dijkstra_with_extra(&g, 0, &[(0, 3, 0.5)]);
        assert_eq!(d[3], 0.5);
        assert_eq!(d[2], 1.5);
    }

    #[test]
    fn masked_edges_are_ignored() {
        let g = diamond();
        let d = dijkstra_masked(&g, 0, &[(0, 1)], &[]);
        // Without 0-1, node 1 is reached via 2-3: 3 + 1 + 1 = 5.
        assert_eq!(d[1], 5.0);
        assert_eq!(d[3], 4.0);
    }

    #[test]
    fn mask_and_extra_compose() {
        let g = diamond();
        let d = dijkstra_masked(&g, 0, &[(0, 1), (0, 2)], &[(0, 3, 1.0)]);
        assert_eq!(d[3], 1.0);
        assert_eq!(d[1], 2.0);
        assert_eq!(d[2], 2.0);
    }

    #[test]
    fn distance_cost_sums() {
        let g = diamond();
        assert_eq!(distance_cost(&g, 0), 0.0 + 1.0 + 3.0 + 2.0);
    }

    #[test]
    fn zero_weight_edges_ok() {
        // Thm 20's gap instance uses a zero-weight edge; Dijkstra must
        // handle w = 0 correctly (non-negative weights only).
        let g = AdjacencyList::from_edges(3, &[(0, 1, 0.0), (1, 2, 1.0)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn scratch_core_matches_independent_reference() {
        // dijkstra() runs on the shared scratch core; dijkstra_reference
        // is self-contained. Agreement here is the one check that does
        // not route both sides through DijkstraScratch.
        let g = diamond();
        for s in 0..4u32 {
            assert_eq!(dijkstra(&g, s), dijkstra_reference(&g, s));
        }
        let mut h = AdjacencyList::new(7);
        for i in 0..6u32 {
            h.add_edge(i, i + 1, 0.5 + i as f64);
        }
        h.add_edge(0, 4, 3.25);
        for s in 0..7u32 {
            assert_eq!(dijkstra(&h, s), dijkstra_reference(&h, s));
        }
    }

    #[test]
    fn repeated_calls_reuse_scratch_consistently() {
        // The thread-local scratch must never leak state between calls on
        // different graphs or sources.
        let g = diamond();
        let mut h = AdjacencyList::new(6);
        h.add_edge(0, 5, 2.0);
        for _ in 0..4 {
            assert_eq!(dijkstra(&g, 0), vec![0.0, 1.0, 3.0, 2.0]);
            let dh = dijkstra(&h, 0);
            assert_eq!(dh[5], 2.0);
            assert!(dh[3].is_infinite());
            assert_eq!(dijkstra(&g, 3), vec![2.0, 1.0, 1.0, 0.0]);
        }
    }
}
