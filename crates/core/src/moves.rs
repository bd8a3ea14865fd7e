//! The greedy move vocabulary.
//!
//! Greedy Equilibria (Lenzner 2012, used throughout §3 of the paper) are
//! defined by the absence of improving *single-edge* moves: buying one
//! edge, deleting one owned edge, or swapping one owned edge for another.
//! Arbitrary strategy replacements (the full Nash deviation space) are
//! represented by [`Move::Replace`].

use std::collections::BTreeSet;

use gncg_graph::NodeId;

use crate::Profile;

/// A strategy change of a single agent.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Move {
    /// Buy one edge towards the node.
    Add(NodeId),
    /// Stop buying the edge towards the node (must currently be owned).
    Delete(NodeId),
    /// Swap: delete the owned edge towards `.0`, buy towards `.1`.
    Swap(NodeId, NodeId),
    /// Replace the whole strategy (general Nash deviation).
    Replace(BTreeSet<NodeId>),
}

impl Move {
    /// The strategy that results from applying this move to `current`.
    ///
    /// # Panics
    /// Panics if a `Delete`/`Swap` refers to a non-owned edge, an `Add`
    /// to an already-owned one, or any target equals `agent`.
    pub fn apply(&self, agent: NodeId, current: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut s = current.clone();
        match self {
            Move::Add(v) => {
                assert_ne!(*v, agent);
                assert!(s.insert(*v), "Add of already-owned edge");
            }
            Move::Delete(v) => {
                assert!(s.remove(v), "Delete of non-owned edge");
            }
            Move::Swap(del, add) => {
                assert_ne!(*add, agent);
                assert!(s.remove(del), "Swap deleting non-owned edge");
                assert!(s.insert(*add), "Swap adding already-owned edge");
            }
            Move::Replace(new) => {
                assert!(!new.contains(&agent));
                s = new.clone();
            }
        }
        s
    }

    /// Enumerates every *greedy* move available to `agent` in `profile`
    /// (all valid adds, deletes and swaps). `Replace` moves are not
    /// enumerable and are produced by the best-response solvers instead.
    ///
    /// The order is: one `Add(v)` or `Delete(v)` per other node `v`, in
    /// ascending `v`, then every `Swap(d, a)` grouped by the dropped
    /// edge `d`. So `Add(a)` and `Delete(d)` come before every
    /// `Swap(d, a)`, which is the order the speculative scan's twin
    /// bounds and shared removal frames rely on
    /// ([`best_move_among_speculative_priced`](crate::response::best_move_among_speculative_priced)).
    /// Any other order is still correct, only slower.
    pub fn greedy_moves(profile: &Profile, agent: NodeId) -> Vec<Move> {
        let n = profile.n() as NodeId;
        let own = profile.strategy(agent);
        let mut out = Vec::new();
        for v in 0..n {
            if v == agent {
                continue;
            }
            if own.contains(&v) {
                out.push(Move::Delete(v));
            } else {
                out.push(Move::Add(v));
            }
        }
        for &d in own {
            for a in 0..n {
                if a != agent && !own.contains(&a) {
                    out.push(Move::Swap(d, a));
                }
            }
        }
        out
    }

    /// Enumerates only the `Add` moves (for Add-only Equilibrium checks).
    pub fn add_moves(profile: &Profile, agent: NodeId) -> Vec<Move> {
        let n = profile.n() as NodeId;
        let own = profile.strategy(agent);
        (0..n)
            .filter(|&v| v != agent && !own.contains(&v))
            .map(Move::Add)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_add_delete_swap() {
        let cur: BTreeSet<NodeId> = [1, 2].into_iter().collect();
        assert_eq!(
            Move::Add(3).apply(0, &cur),
            [1, 2, 3].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            Move::Delete(1).apply(0, &cur),
            [2].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            Move::Swap(2, 4).apply(0, &cur),
            [1, 4].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            Move::Replace(BTreeSet::new()).apply(0, &cur),
            BTreeSet::new()
        );
    }

    #[test]
    #[should_panic]
    fn bad_delete_panics() {
        let cur: BTreeSet<NodeId> = [1].into_iter().collect();
        Move::Delete(2).apply(0, &cur);
    }

    #[test]
    #[should_panic]
    fn bad_add_panics() {
        let cur: BTreeSet<NodeId> = [1].into_iter().collect();
        Move::Add(1).apply(0, &cur);
    }

    #[test]
    fn greedy_move_enumeration_counts() {
        // n = 4, agent 0 owns {1}: adds = {2,3}, deletes = {1},
        // swaps = 1 owned × 2 non-owned = 2. Total 5.
        let p = Profile::from_owned_edges(4, &[(0, 1)]);
        let moves = Move::greedy_moves(&p, 0);
        assert_eq!(moves.len(), 5);
        let adds = moves.iter().filter(|m| matches!(m, Move::Add(_))).count();
        let dels = moves
            .iter()
            .filter(|m| matches!(m, Move::Delete(_)))
            .count();
        let swaps = moves.iter().filter(|m| matches!(m, Move::Swap(..))).count();
        assert_eq!((adds, dels, swaps), (2, 1, 2));
    }

    #[test]
    fn add_moves_only() {
        let p = Profile::from_owned_edges(4, &[(0, 1)]);
        let adds = Move::add_moves(&p, 0);
        assert_eq!(adds, vec![Move::Add(2), Move::Add(3)]);
    }
}
