//! Strategy profiles and the built network `G(s)`.
//!
//! A strategy profile assigns each agent the set of nodes it buys edges
//! towards. The built network is the union of all bought edges; an edge may
//! be bought by both endpoints (then both pay), but in equilibrium and in
//! the optimum every edge has exactly one owner (footnote 1 of the paper).

use std::collections::BTreeSet;

use gncg_graph::{AdjacencyList, NodeId};

use crate::Game;

/// A full strategy profile `s = (S_{v_1}, …, S_{v_n})`.
///
/// Strategies are stored as ordered sets for deterministic iteration and
/// cheap canonical hashing (the dynamics engine detects best-response
/// cycles by hashing profiles).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Profile {
    strategies: Vec<BTreeSet<NodeId>>,
}

impl Profile {
    /// The empty profile on `n` agents (no edges bought).
    pub fn empty(n: usize) -> Self {
        Profile {
            strategies: vec![BTreeSet::new(); n],
        }
    }

    /// Builds a profile from owned directed pairs `(owner, target)`.
    pub fn from_owned_edges(n: usize, owned: &[(NodeId, NodeId)]) -> Self {
        let mut p = Profile::empty(n);
        for &(o, t) in owned {
            p.buy(o, t);
        }
        p
    }

    /// A star profile: `center` buys an edge to every other node.
    pub fn star(n: usize, center: NodeId) -> Self {
        let mut p = Profile::empty(n);
        for v in 0..n as NodeId {
            if v != center {
                p.buy(center, v);
            }
        }
        p
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.strategies.len()
    }

    /// Agent `u`'s strategy.
    pub fn strategy(&self, u: NodeId) -> &BTreeSet<NodeId> {
        &self.strategies[u as usize]
    }

    /// Replaces agent `u`'s strategy wholesale, returning the strategy it
    /// replaced.
    pub fn set_strategy(&mut self, u: NodeId, s: BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        assert!(!s.contains(&u), "an agent cannot buy an edge to itself");
        std::mem::replace(&mut self.strategies[u as usize], s)
    }

    /// Agent `u` buys an edge towards `v`. Idempotent.
    ///
    /// # Panics
    /// Panics if `u == v`.
    pub fn buy(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "an agent cannot buy an edge to itself");
        self.strategies[u as usize].insert(v);
    }

    /// Agent `u` stops buying towards `v`. Returns whether it was bought.
    pub fn unbuy(&mut self, u: NodeId, v: NodeId) -> bool {
        self.strategies[u as usize].remove(&v)
    }

    /// Whether `u` owns an edge towards `v`.
    pub fn owns(&self, u: NodeId, v: NodeId) -> bool {
        self.strategies[u as usize].contains(&v)
    }

    /// Whether edge `(u, v)` exists in the built network (either direction
    /// bought).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.owns(u, v) || self.owns(v, u)
    }

    /// All built (undirected, deduplicated) edges with `u < v`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (u, s) in self.strategies.iter().enumerate() {
            let u = u as NodeId;
            for &v in s {
                if u < v || !self.owns(v, u) {
                    let (a, b) = if u < v { (u, v) } else { (v, u) };
                    out.push((a, b));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Total number of bought (directed) edges; counts double purchases
    /// twice.
    pub fn purchases(&self) -> usize {
        self.strategies.iter().map(|s| s.len()).sum()
    }

    /// Whether any edge is bought from both sides (never happens in
    /// equilibrium or OPT; see footnote 1).
    pub fn has_double_purchase(&self) -> bool {
        self.strategies.iter().enumerate().any(|(u, s)| {
            s.iter()
                .any(|&v| self.strategies[v as usize].contains(&(u as NodeId)))
        })
    }

    /// Builds the network `G(s)` with host weights from `game`.
    pub fn build_network(&self, game: &Game) -> AdjacencyList {
        let mut g = AdjacencyList::default();
        self.build_network_into(game, &mut g);
        g
    }

    /// [`Profile::build_network`] into `g`, whose edges it replaces: the
    /// same edges in the same order, in the neighbour lists `g` already
    /// holds ([`AdjacencyList::clear`]).
    pub fn build_network_into(&self, game: &Game, g: &mut AdjacencyList) {
        g.clear(self.n());
        for (u, v) in self.edges() {
            g.add_edge(u, v, game.w(u, v));
        }
    }

    /// The owned edges of `u` as (removable) undirected pairs: pairs whose
    /// presence in `G(s)` depends solely on `u`'s strategy (i.e. not also
    /// bought by the other endpoint).
    pub fn sole_owned_edges(&self, u: NodeId) -> Vec<(NodeId, NodeId)> {
        self.strategies[u as usize]
            .iter()
            .filter(|&&v| !self.owns(v, u))
            .map(|&v| (u, v))
            .collect()
    }

    /// Removes double purchases: whenever both endpoints buy an edge, the
    /// larger-id endpoint drops it. The built network is unchanged and no
    /// agent's cost increases (footnote 1 of the paper: double-bought
    /// edges never survive in equilibria or optima). Returns the number of
    /// purchases dropped.
    pub fn canonicalize(&mut self) -> usize {
        let n = self.n() as NodeId;
        let mut dropped = 0;
        for u in 0..n {
            let doubles: Vec<NodeId> = self.strategies[u as usize]
                .iter()
                .copied()
                .filter(|&v| v < u && self.strategies[v as usize].contains(&u))
                .collect();
            for v in doubles {
                self.strategies[u as usize].remove(&v);
                dropped += 1;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_graph::SymMatrix;

    fn unit_game(n: usize) -> Game {
        Game::new(SymMatrix::filled(n, 1.0), 1.0)
    }

    #[test]
    fn empty_profile() {
        let p = Profile::empty(4);
        assert_eq!(p.n(), 4);
        assert!(p.edges().is_empty());
        assert_eq!(p.purchases(), 0);
    }

    #[test]
    fn buy_and_unbuy() {
        let mut p = Profile::empty(3);
        p.buy(0, 1);
        assert!(p.owns(0, 1));
        assert!(!p.owns(1, 0));
        assert!(p.has_edge(1, 0));
        assert!(p.unbuy(0, 1));
        assert!(!p.has_edge(0, 1));
        assert!(!p.unbuy(0, 1));
    }

    #[test]
    #[should_panic]
    fn self_buy_panics() {
        Profile::empty(3).buy(1, 1);
    }

    #[test]
    fn star_profile() {
        let p = Profile::star(5, 0);
        assert_eq!(p.edges().len(), 4);
        assert_eq!(p.purchases(), 4);
        let g = p.build_network(&unit_game(5));
        assert!(g.is_tree());
        assert_eq!(g.degree(0), 4);
    }

    #[test]
    fn double_purchase_detected_and_edges_deduped() {
        let mut p = Profile::empty(2);
        p.buy(0, 1);
        p.buy(1, 0);
        assert!(p.has_double_purchase());
        assert_eq!(p.edges(), vec![(0, 1)]);
        assert_eq!(p.purchases(), 2);
        let g = p.build_network(&unit_game(2));
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn sole_owned_edges() {
        let mut p = Profile::empty(3);
        p.buy(0, 1);
        p.buy(0, 2);
        p.buy(2, 0);
        assert_eq!(p.sole_owned_edges(0), vec![(0, 1)]);
        assert!(p.sole_owned_edges(1).is_empty());
        assert!(p.sole_owned_edges(2).is_empty());
    }

    #[test]
    fn from_owned_edges_builds() {
        let p = Profile::from_owned_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g = p.build_network(&unit_game(4));
        assert!(g.is_tree());
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn canonicalize_removes_double_purchases() {
        let mut p = Profile::empty(3);
        p.buy(0, 1);
        p.buy(1, 0);
        p.buy(1, 2);
        assert!(p.has_double_purchase());
        let dropped = p.canonicalize();
        assert_eq!(dropped, 1);
        assert!(!p.has_double_purchase());
        // Network unchanged.
        assert!(p.has_edge(0, 1));
        assert!(p.has_edge(1, 2));
        // Exactly one side still owns (0,1).
        assert!(p.owns(0, 1) ^ p.owns(1, 0));
        // Idempotent.
        assert_eq!(p.canonicalize(), 0);
    }

    #[test]
    fn canonicalize_reduces_social_cost() {
        let game = unit_game(3);
        let mut p = Profile::empty(3);
        p.buy(0, 1);
        p.buy(1, 0);
        p.buy(1, 2);
        let before = crate::cost::social_cost(&game, &p);
        p.canonicalize();
        let after = crate::cost::social_cost(&game, &p);
        assert!(after < before);
    }

    #[test]
    fn profiles_hashable_and_eq() {
        let a = Profile::from_owned_edges(3, &[(0, 1)]);
        let b = Profile::from_owned_edges(3, &[(0, 1)]);
        let c = Profile::from_owned_edges(3, &[(1, 0)]);
        assert_eq!(a, b);
        assert_ne!(a, c); // ownership matters, not just the built edge set
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
