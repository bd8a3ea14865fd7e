//! The greedy move vocabulary.
//!
//! Greedy Equilibria (Lenzner 2012, used throughout §3 of the paper) are
//! defined by the absence of improving *single-edge* moves: buying one
//! edge, deleting one owned edge, or swapping one owned edge for another.
//! Arbitrary strategy replacements (the full Nash deviation space) are
//! represented by [`Move::Replace`].

use std::collections::BTreeSet;

use gncg_graph::{AdjacencyList, NodeId};

use crate::{Game, Profile};

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
        let mut out = Vec::new();
        Move::greedy_moves_into(
            &NodeSet::of(profile.strategy(agent), profile.n()),
            agent,
            &mut out,
        );
        out
    }

    /// [`Move::greedy_moves`] off the agent's ownership bitmap (`owned`,
    /// over all `n` nodes), into `out`, which is cleared first so one
    /// buffer serves every activation.
    pub fn greedy_moves_into(owned: &NodeSet, agent: NodeId, out: &mut Vec<Move>) {
        out.clear();
        let n = owned.universe() as NodeId;
        for v in (0..n).filter(|&v| v != agent) {
            out.push(if owned.contains(v) {
                Move::Delete(v)
            } else {
                Move::Add(v)
            });
        }
        for d in (0..n).filter(|&d| owned.contains(d)) {
            out.extend(
                (0..n)
                    .filter(|&a| a != agent && !owned.contains(a))
                    .map(|a| Move::Swap(d, a)),
            );
        }
    }

    /// Enumerates only the `Add` moves (for Add-only Equilibrium checks).
    pub fn add_moves(profile: &Profile, agent: NodeId) -> Vec<Move> {
        let mut out = Vec::new();
        Move::add_moves_into(
            &NodeSet::of(profile.strategy(agent), profile.n()),
            agent,
            &mut out,
        );
        out
    }

    /// [`Move::add_moves`] off the agent's ownership bitmap, into the
    /// cleared buffer `out`.
    pub fn add_moves_into(owned: &NodeSet, agent: NodeId, out: &mut Vec<Move>) {
        out.clear();
        let n = owned.universe() as NodeId;
        out.extend(
            (0..n)
                .filter(|&v| v != agent && !owned.contains(v))
                .map(Move::Add),
        );
    }
}

/// A set of node ids out of `0..universe`, one bit per node.
#[derive(Clone, Debug, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    universe: usize,
}

impl NodeSet {
    /// `set` as a bitmap over `0..universe`.
    pub(crate) fn of(set: &BTreeSet<NodeId>, universe: usize) -> Self {
        let mut bits = NodeSet::default();
        bits.reset(universe);
        for &v in set {
            bits.insert(v);
        }
        bits
    }

    /// Empties the set and sizes it for `0..universe`, keeping its
    /// allocation.
    pub(crate) fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.words.clear();
        self.words.resize(universe.div_ceil(64), 0);
    }

    /// The size of the id range the set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Adds `v`.
    #[inline]
    pub(crate) fn insert(&mut self, v: NodeId) {
        self.words[v as usize / 64] |= 1 << (v % 64);
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words[v as usize / 64] >> (v % 64) & 1 != 0
    }

    /// Bytes the set holds.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// One agent's strategy, read once into flat tables that a whole
/// activation shares: the move enumeration ([`Move::greedy_moves_into`]
/// off [`StrategyTables::owned`]), the scan's edge terms
/// ([`StrategyTables::pairs`]) and its network probes. Refilled in place
/// by [`StrategyTables::load`], so an activation allocates nothing once
/// the tables have grown.
#[derive(Clone, Debug, Default)]
pub struct StrategyTables {
    agent: NodeId,
    /// `(x, w(agent, x))` for every owned target `x`, ascending in `x`:
    /// the `BTreeSet` iteration order, so edge sums over it keep their
    /// bits.
    pairs: Vec<(NodeId, f64)>,
    /// The targets the agent owns.
    owned: NodeSet,
    /// The agent's network neighbours.
    neighbours: NodeSet,
    /// The owned targets that also own their edge to the agent.
    co_owned: NodeSet,
}

impl StrategyTables {
    /// Reads `agent`'s strategy in `profile`, and its neighbours in
    /// `network` (the profile's built network), into the tables.
    pub fn load(&mut self, game: &Game, profile: &Profile, network: &AdjacencyList, agent: NodeId) {
        let n = profile.n();
        self.agent = agent;
        self.pairs.clear();
        self.owned.reset(n);
        self.co_owned.reset(n);
        for &x in profile.strategy(agent) {
            self.pairs.push((x, game.w(agent, x)));
            self.owned.insert(x);
            if profile.owns(x, agent) {
                self.co_owned.insert(x);
            }
        }
        self.neighbours.reset(n);
        for &(x, _) in network.neighbors(agent) {
            self.neighbours.insert(x);
        }
    }

    /// The agent the tables were loaded for.
    pub(crate) fn agent(&self) -> NodeId {
        self.agent
    }

    /// `(x, w(agent, x))` per owned target, ascending in `x`.
    pub fn pairs(&self) -> &[(NodeId, f64)] {
        &self.pairs
    }

    /// The ownership bitmap.
    pub fn owned(&self) -> &NodeSet {
        &self.owned
    }

    /// Whether edge `(agent, v)` is in the network.
    #[inline]
    pub fn has_edge(&self, v: NodeId) -> bool {
        self.neighbours.contains(v)
    }

    /// Whether the agent and `v` both buy the edge between them, so the
    /// agent dropping it leaves the network unchanged.
    #[inline]
    pub fn is_co_owned(&self, v: NodeId) -> bool {
        self.co_owned.contains(v)
    }

    /// Whether the tables are `agent`'s in `profile` and `network`.
    pub(crate) fn matches(
        &self,
        profile: &Profile,
        network: &AdjacencyList,
        agent: NodeId,
    ) -> bool {
        let own = profile.strategy(agent);
        self.agent == agent
            && self.pairs.iter().map(|p| p.0).eq(own.iter().copied())
            && (0..profile.n() as NodeId).all(|v| {
                self.owned.contains(v) == own.contains(&v)
                    && self.is_co_owned(v) == (own.contains(&v) && profile.owns(v, agent))
                    && self.has_edge(v) == network.has_edge(agent, v)
            })
    }

    /// Bytes the tables hold.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.pairs.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + self.owned.resident_bytes()
            + self.neighbours.resident_bytes()
            + self.co_owned.resident_bytes()
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
