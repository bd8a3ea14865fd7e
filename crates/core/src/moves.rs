//! The greedy move vocabulary.
//!
//! Greedy Equilibria (Lenzner 2012, used throughout §3 of the paper) are
//! defined by the absence of improving *single-edge* moves: buying one
//! edge, deleting one owned edge, or swapping one owned edge for another.
//! Arbitrary strategy replacements (the full Nash deviation space) are
//! represented by [`Move::Replace`]. [`MoveSpace`] names the two
//! single-edge spaces the dynamics scan and the certificates cover.

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
    /// The order is canonical: one `Add(v)` or `Delete(v)` per other node
    /// `v`, in ascending `v`, then every `Swap(d, a)` grouped by the
    /// dropped edge `d`, both ascending. The speculative scan
    /// ([`best_move_among_speculative_priced`](crate::response::best_move_among_speculative_priced))
    /// walks the same space at the same positions
    /// ([`StrategyTables::move_at`]) and breaks ties in this order.
    pub fn greedy_moves(profile: &Profile, agent: NodeId) -> Vec<Move> {
        let own = profile.strategy(agent);
        let others = || (0..profile.n() as NodeId).filter(move |&v| v != agent);
        let mut out: Vec<Move> = others()
            .map(|v| {
                if own.contains(&v) {
                    Move::Delete(v)
                } else {
                    Move::Add(v)
                }
            })
            .collect();
        for &d in own {
            out.extend(
                others()
                    .filter(|a| !own.contains(a))
                    .map(|a| Move::Swap(d, a)),
            );
        }
        out
    }

    /// Enumerates only the `Add` moves (for Add-only Equilibrium checks),
    /// in ascending target order.
    pub fn add_moves(profile: &Profile, agent: NodeId) -> Vec<Move> {
        let own = profile.strategy(agent);
        (0..profile.n() as NodeId)
            .filter(|&v| v != agent && !own.contains(&v))
            .map(Move::Add)
            .collect()
    }
}

/// The single-edge move space a move scan or a cold certificate covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveSpace {
    /// Adds, deletes and swaps: the Greedy Equilibrium check.
    Greedy,
    /// Adds only: the Add-only Equilibrium check.
    AddOnly,
}

impl MoveSpace {
    /// The space's moves for `agent` in `profile`, in canonical order:
    /// [`Move::greedy_moves`] or [`Move::add_moves`].
    pub fn moves(self, profile: &Profile, agent: NodeId) -> Vec<Move> {
        match self {
            MoveSpace::Greedy => Move::greedy_moves(profile, agent),
            MoveSpace::AddOnly => Move::add_moves(profile, agent),
        }
    }
}

/// A set of node ids, one bit per node.
#[derive(Clone, Debug, Default)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Empties the set and sizes it for `0..universe`, keeping its
    /// allocation.
    pub(crate) fn reset(&mut self, universe: usize) {
        self.words.clear();
        self.words.resize(universe.div_ceil(64), 0);
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
/// activation shares: the move space the scan walks ([`StrategyTables::pairs`]
/// and [`StrategyTables::free`]), its edge terms, and its network probes.
/// Refilled in place by [`StrategyTables::load`], so an activation
/// allocates nothing once the tables have grown.
///
/// # Positions
///
/// With `k` owned targets and `m = n − 1 − k` free nodes, the canonical
/// order of [`Move::greedy_moves`] puts `Add(v)` or `Delete(v)` at
/// position `v − [v > u]` and `Swap(d, a)` at `(n − 1) + r·m + t`, where
/// `r` is `d`'s index in [`StrategyTables::pairs`] and `t` is `a`'s in
/// [`StrategyTables::free`]; [`Move::add_moves`] puts `Add(a)` at `t`.
/// [`StrategyTables::move_at`] names the move at a position.
#[derive(Clone, Debug, Default)]
pub struct StrategyTables {
    agent: NodeId,
    /// `(x, w(agent, x))` for every owned target `x`, ascending in `x`:
    /// the `BTreeSet` iteration order, so edge sums over it keep their
    /// bits.
    pairs: Vec<(NodeId, f64)>,
    /// `(a, w(agent, a))` for every other node `a` the agent does not
    /// own, ascending in `a`: the targets of its adds and of its swaps'
    /// new edges.
    free: Vec<(NodeId, f64)>,
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
        self.co_owned.reset(n);
        for &x in profile.strategy(agent) {
            self.pairs.push((x, game.w(agent, x)));
            if profile.owns(x, agent) {
                self.co_owned.insert(x);
            }
        }
        self.free.clear();
        let mut owned = self.pairs.iter().map(|p| p.0).peekable();
        for v in (0..n as NodeId).filter(|&v| v != agent) {
            if owned.next_if_eq(&v).is_none() {
                self.free.push((v, game.w(agent, v)));
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

    /// `(a, w(agent, a))` per other node the agent does not own,
    /// ascending in `a`.
    pub fn free(&self) -> &[(NodeId, f64)] {
        &self.free
    }

    /// How many owned targets sort below `free()[t]`: the other nodes
    /// below it, less the free ones. The index of
    /// [`StrategyTables::pairs`] before which its weight enters an edge
    /// sum.
    #[inline]
    pub(crate) fn owned_below(&self, t: usize) -> usize {
        let a = self.free[t].0;
        a as usize - usize::from(a > self.agent) - t
    }

    /// How many moves `space` holds (type docs, "Positions").
    pub fn space_len(&self, space: MoveSpace) -> usize {
        let (k, m) = (self.pairs.len(), self.free.len());
        match space {
            MoveSpace::Greedy => k + m + k * m,
            MoveSpace::AddOnly => m,
        }
    }

    /// The move at position `j` of `space`, entry `j` of
    /// [`MoveSpace::moves`] (type docs, "Positions").
    pub fn move_at(&self, space: MoveSpace, j: usize) -> Move {
        let (k, m) = (self.pairs.len(), self.free.len());
        match space {
            MoveSpace::AddOnly => Move::Add(self.free[j].0),
            MoveSpace::Greedy if j < k + m => {
                let v = (j + usize::from(j >= self.agent as usize)) as NodeId;
                if self.pairs.binary_search_by_key(&v, |p| p.0).is_ok() {
                    Move::Delete(v)
                } else {
                    Move::Add(v)
                }
            }
            MoveSpace::Greedy => {
                let (r, t) = ((j - k - m) / m, (j - k - m) % m);
                Move::Swap(self.pairs[r].0, self.free[t].0)
            }
        }
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
        let others = (0..profile.n() as NodeId).filter(|&v| v != agent);
        self.agent == agent
            && self.pairs.iter().map(|p| p.0).eq(own.iter().copied())
            && self
                .free
                .iter()
                .map(|p| p.0)
                .eq(others.filter(|v| !own.contains(v)))
            && (0..profile.n() as NodeId).all(|v| {
                self.is_co_owned(v) == (own.contains(&v) && profile.owns(v, agent))
                    && self.has_edge(v) == network.has_edge(agent, v)
            })
    }

    /// Bytes the tables hold.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.pairs.capacity() + self.free.capacity()) * std::mem::size_of::<(NodeId, f64)>()
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
