//! Agent and social cost evaluation.
//!
//! `cost(u, G(s)) = α·w(u, S_u) + d_G(s)(u, V)` — edge cost plus distance
//! cost, infinite when `u` cannot reach some node. Candidate strategies are
//! priced without mutating the profile via masked Dijkstra runs.

use std::collections::BTreeSet;

use gncg_graph::apsp::{apsp_parallel, DistanceMatrix};
use gncg_graph::dijkstra::{dijkstra, dijkstra_with_extra};
use gncg_graph::{AdjacencyList, NodeId};

use crate::{Game, Profile};

/// A cost split into its two components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostBreakdown {
    /// `α · w(u, S_u)` — what the agent pays for its edges.
    pub edge_cost: f64,
    /// `d_G(u, V)` — sum of distances to all nodes (∞ if disconnected).
    pub distance_cost: f64,
}

impl CostBreakdown {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.edge_cost + self.distance_cost
    }
}

/// Edge cost of agent `u` under `profile`: `α·w(u, S_u)`.
pub fn edge_cost(game: &Game, profile: &Profile, u: NodeId) -> f64 {
    // `+ 0.0` normalizes the `-0.0` an empty f64 sum produces.
    game.alpha()
        * profile
            .strategy(u)
            .iter()
            .map(|&v| game.w(u, v))
            .sum::<f64>()
        + 0.0
}

/// Full cost of agent `u`, given the already-built network of `profile`.
pub fn agent_cost_in(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    u: NodeId,
) -> CostBreakdown {
    let dist: f64 = dijkstra(network, u).iter().sum();
    CostBreakdown {
        edge_cost: edge_cost(game, profile, u),
        distance_cost: dist,
    }
}

/// Full cost of agent `u` (builds the network internally).
pub fn agent_cost(game: &Game, profile: &Profile, u: NodeId) -> CostBreakdown {
    let network = profile.build_network(game);
    agent_cost_in(game, profile, &network, u)
}

/// The *base graph* for agent `u`: the built network with every edge that
/// exists solely because of `u`'s purchases removed. Candidate strategies
/// of `u` are priced by overlaying virtual edges on this graph.
pub fn base_graph_without(game: &Game, profile: &Profile, u: NodeId) -> AdjacencyList {
    base_graph_from(&profile.build_network(game), profile, u)
}

/// [`base_graph_without`] when the built network is already at hand —
/// avoids rebuilding `G(s)` from scratch just to strip one agent's edges:
/// a copy of `network` less `u`'s sole-owned edges, removed in strategy
/// order.
pub fn base_graph_from(network: &AdjacencyList, profile: &Profile, u: NodeId) -> AdjacencyList {
    let mut g = network.clone();
    for &v in profile.strategy(u) {
        if !profile.owns(v, u) {
            assert!(
                g.remove_edge(u, v),
                "sole-owned edge must be in the built network"
            );
        }
    }
    g
}

/// Prices candidate strategy `candidate` for agent `u` against a
/// precomputed [`base_graph_without`]. Cheap enough to call inside
/// branch-and-bound search loops.
pub fn candidate_cost(
    game: &Game,
    base: &AdjacencyList,
    u: NodeId,
    candidate: &BTreeSet<NodeId>,
) -> CostBreakdown {
    candidate_cost_from(
        game,
        u,
        candidate,
        &candidate_distances(game, base, u, candidate),
    )
}

/// The distance vector [`candidate_cost`] sums: one Dijkstra from `u` on
/// `base` with the candidate's edges overlaid.
pub(crate) fn candidate_distances(
    game: &Game,
    base: &AdjacencyList,
    u: NodeId,
    candidate: &BTreeSet<NodeId>,
) -> Vec<f64> {
    let extra: Vec<(NodeId, NodeId, f64)> =
        candidate.iter().map(|&v| (u, v, game.w(u, v))).collect();
    dijkstra_with_extra(base, u, &extra)
}

/// [`candidate_cost`] given the candidate's [`candidate_distances`]:
/// the same sums in the same order, so the same bits.
pub(crate) fn candidate_cost_from(
    game: &Game,
    u: NodeId,
    candidate: &BTreeSet<NodeId>,
    dist: &[f64],
) -> CostBreakdown {
    CostBreakdown {
        edge_cost: game.alpha() * candidate.iter().map(|&v| game.w(u, v)).sum::<f64>(),
        distance_cost: dist.iter().sum(),
    }
}

/// The proved lower bound that rules single-edge moves out unpriced: the
/// cold certifier ([`certify_agents_in`](crate::equilibrium::certify_agents_in))
/// and the engine's move scan
/// ([`best_move_among_speculative_priced`](crate::response::best_move_among_speculative_priced))
/// both decide through it. The exact best response's branch-and-bound
/// prunes through its lane sum and test too, with its own bound
/// (`response.rs` module docs, "Rounding").
///
/// # The bound
///
/// Let `G` be the network, `d` its distances, and `H′` a candidate network
/// of agent `u` that differs from `G` only in edges at `u`. A shortest path
/// from `u` to `v ≠ u` in `H′` visits `u` once, so it leaves `u` through
/// one edge `(u, x)` of `H′`, and the rest of it lies in `H′ − u = G − u ⊆ G`:
/// the path is no shorter than `w(u,x) + d(x,v)`. The first hop may be any
/// edge at `u`. So for every `v ≠ u`, `d_{H′}(u,v) ≥ m_v` in exact
/// arithmetic, where `m_v` is either
///
/// * `min(δ(v), w(u,a) + d(a,v))`, when `H′ = H + ua` and `δ` are the
///   distances from `u` in `H` (a path that avoids `ua` is a path of `H`;
///   one that uses it leaves `u` through it), or
/// * the least `w(u,x) + d(x,v)` over a set of first hops `x` that holds
///   every edge of `H′` at `u`,
///
/// and `m_u = 0`. A move is ruled out when
/// `(edge + Σ_v m_v)·(1 − 8nε) ≥ floor` ([`MoveBound::rules_out`]), with
/// `edge` the move's edge term `α·w(S′)` summed as [`candidate_cost`]
/// sums it and `ε` = [`f64::EPSILON`]: the move then prices at or above
/// `floor`.
///
/// # Rounding
///
/// Every distance is the exact minimum over paths of their left-to-right
/// `f64` prefix sums (see `gncg_graph::csr`), and the bound associates
/// differently, so it holds only up to rounding. With `u₀ = ε/2`, and
/// every finite sum below `f64::MAX`:
///
/// 1. A path `u, x, …, v` of `k + 1 ≤ n − 1` edges sums in floating point
///    to at least `(1 − u₀)^k` times its exact length, and
///    `w(u,x) + d(x,v)` rounds to at most `(1 + u₀)^k` times it, so each
///    new distance is at least `r·m_v` with `r = ((1 − u₀)/(1 + u₀))^(n−2)`
///    (a path that avoids the new edge is a path of `H`, no shorter than
///    `δ(v)`).
/// 2. The two `n`-term distance sums round within `(1 ± u₀)^(n−1)` of
///    their exact sums in any summation order, the price's index order and
///    the bound's four lanes ([`MoveBound::sum`]) alike: their terms are
///    non-negative and each passes through at most `n − 1` additions. So
///    the true distance term is at least `((1 − u₀)/(1 + u₀))^(2n−3)`
///    times the bound's.
/// 3. The edge term is the true one bit for bit, and it is non-negative.
///    One more rounding of each total leaves the true price at least
///    `((1 − u₀)/(1 + u₀))^(2n−2)` times the bound: the bound exceeds the
///    true price by at most a factor of about `1 + 2nε`.
///
/// The product with the margin rounds up by at most `1 + u₀`, so the test
/// is sound whenever the margin is at most
/// `((1 − u₀)/(1 + u₀))^(2n−2)/(1 + u₀) ≥ 1 − (4n − 3)u₀ = 1 − (2n − 1.5)ε`.
/// `1 − 8nε` is exact in `f64` and below that for every `n ≥ 1`, so a
/// move whose bound passes the test prices at or above `floor`.
/// Infinities need no margin. A bound of `∞` means an infinite edge term,
/// or a node no finite path of `H′` reaches, so the true price is `∞` too;
/// and when `floor = ∞` only a bound of `∞` passes the test.
#[derive(Clone, Copy, Debug)]
pub struct MoveBound {
    margin: f64,
}

impl MoveBound {
    /// The bound for a game on `n` nodes.
    pub fn new(n: usize) -> Self {
        MoveBound {
            margin: 1.0 - 8.0 * n as f64 * f64::EPSILON,
        }
    }

    /// `Σ_v min(first[v], w + row[v])`: the distance bound of a move that
    /// gains an edge of weight `w` to the node whose distances are `row`,
    /// onto first hops whose bound is `first`. Added in four lanes, as
    /// [`MoveBound::sum`] adds.
    pub fn reach(first: &[f64], w: f64, row: &[f64]) -> f64 {
        let len = first.len().min(row.len());
        // A compare and a select: distances are never NaN, so the NaN
        // handling of `f64::min` would be wasted work.
        four_lanes(&first[..len], &row[..len], |x, y| {
            let via = w + y;
            if via < x {
                via
            } else {
                x
            }
        })
    }

    /// `Σ terms`, added in four independent lanes (the terms at indices
    /// `0, 1, 2, 3 mod 4`, the tail of fewer than four in a fifth) that are
    /// folded only at the end, so no addition waits on the one before it.
    /// Any summation order rounds a bound within the margin ("Rounding",
    /// step 2).
    pub fn sum(terms: &[f64]) -> f64 {
        four_lanes(terms, terms, |x, _| x)
    }

    /// Whether a move with edge term `edge` and distance bound `reach`
    /// prices at or above `floor`.
    pub fn rules_out(self, edge: f64, reach: f64, floor: f64) -> bool {
        (edge + reach) * self.margin >= floor
    }
}

/// `Σ_i term(a[i], b[i])` over two slices of one length, in
/// [`MoveBound::sum`]'s four lanes.
#[inline(always)]
fn four_lanes(a: &[f64], b: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    let (a4, a_tail) = a.as_chunks::<4>();
    let (b4, b_tail) = b.as_chunks::<4>();
    let mut lanes = [0.0; 4];
    for (x, y) in a4.iter().zip(b4) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(x).zip(y) {
            *lane += term(x, y);
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        tail += term(x, y);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Social cost of a profile: `Σ_u cost(u)` — equivalently
/// `α·Σ_u w(u, S_u) + Σ_u d_G(u, V)`.
pub fn social_cost(game: &Game, profile: &Profile) -> f64 {
    social_cost_from(game, profile, &apsp_parallel(&profile.build_network(game)))
}

/// Social cost off the profile network's all-pairs distance table — what
/// a caller that also certifies the profile off the same table passes.
pub fn social_cost_from(game: &Game, profile: &Profile, apsp: &DistanceMatrix) -> f64 {
    let dist = apsp.total_distance_cost();
    let edges: f64 = (0..profile.n() as NodeId)
        .map(|u| edge_cost(game, profile, u))
        .sum();
    edges + dist
}

/// Social cost of an undirected *edge set* (ownership-independent): the
/// social cost of any profile inducing network `g` is
/// `α·(total edge weight) + (total pairwise distance)`, because each edge
/// is paid once by whoever owns it.
///
/// This is the objective the social-optimum solvers minimize, which is
/// valid because the optimum never double-buys an edge.
pub fn network_social_cost(game: &Game, g: &AdjacencyList) -> f64 {
    let d = apsp_parallel(g);
    game.alpha() * g.total_weight() + d.total_distance_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_graph::SymMatrix;

    fn unit_game(n: usize, alpha: f64) -> Game {
        Game::new(SymMatrix::filled(n, 1.0), alpha)
    }

    #[test]
    fn star_costs_unit_metric() {
        // Star on 4 nodes, unit weights, α = 1. Center: edge 3, dist 3.
        let game = unit_game(4, 1.0);
        let p = Profile::star(4, 0);
        let c0 = agent_cost(&game, &p, 0);
        assert_eq!(c0.edge_cost, 3.0);
        assert_eq!(c0.distance_cost, 3.0);
        // Leaf: no edges, distances 1 + 2 + 2.
        let c1 = agent_cost(&game, &p, 1);
        assert_eq!(c1.edge_cost, 0.0);
        assert_eq!(c1.distance_cost, 5.0);
    }

    #[test]
    fn disconnected_cost_is_infinite() {
        let game = unit_game(3, 1.0);
        let mut p = Profile::empty(3);
        p.buy(0, 1);
        let c = agent_cost(&game, &p, 0);
        assert!(c.total().is_infinite());
    }

    #[test]
    fn social_cost_star() {
        // K4 star, α=1: edges 3·1, distances: center 3, each leaf 5 → 3+3+15=21.
        let game = unit_game(4, 1.0);
        let p = Profile::star(4, 0);
        assert_eq!(social_cost(&game, &p), 21.0);
        // Matches ownership-independent version.
        let g = p.build_network(&game);
        assert_eq!(network_social_cost(&game, &g), 21.0);
    }

    #[test]
    fn double_purchase_costs_both() {
        let game = unit_game(2, 3.0);
        let mut p = Profile::empty(2);
        p.buy(0, 1);
        p.buy(1, 0);
        // Each pays α = 3, distance 1 each: total 3+3+1+1 = 8.
        assert_eq!(social_cost(&game, &p), 8.0);
        // The edge-set view counts the edge once: 3 + 2 = 5.
        let g = p.build_network(&game);
        assert_eq!(network_social_cost(&game, &g), 5.0);
    }

    #[test]
    fn candidate_cost_matches_real_change() {
        let game = unit_game(5, 2.0);
        let mut p = Profile::star(5, 0);
        p.buy(1, 2); // extra edge
        let base = base_graph_without(&game, &p, 1);
        // Candidate: 1 buys towards 3 and 4 instead.
        let cand: BTreeSet<NodeId> = [3, 4].into_iter().collect();
        let predicted = candidate_cost(&game, &base, 1, &cand);
        // Apply for real and compare.
        let mut p2 = p.clone();
        p2.set_strategy(1, cand);
        let real = agent_cost(&game, &p2, 1);
        assert!(gncg_graph::approx_eq(predicted.total(), real.total()));
        assert!(gncg_graph::approx_eq(predicted.edge_cost, real.edge_cost));
    }

    #[test]
    fn candidate_cost_keeps_other_owners_edges() {
        // Agent 1's candidate change must not remove the edge 0-1 owned by 0.
        let game = unit_game(3, 1.0);
        let mut p = Profile::empty(3);
        p.buy(0, 1);
        p.buy(1, 2);
        let base = base_graph_without(&game, &p, 1);
        assert!(base.has_edge(0, 1));
        assert!(!base.has_edge(1, 2));
        let empty = BTreeSet::new();
        let c = candidate_cost(&game, &base, 1, &empty);
        // 1 keeps reaching 0 (dist 1) but loses 2 (∞).
        assert!(c.distance_cost.is_infinite());
    }

    #[test]
    fn weighted_costs() {
        let mut w = SymMatrix::filled(3, 1.0);
        w.set(0, 2, 5.0);
        w.set(1, 2, 2.0);
        let game = Game::new(w, 0.5);
        let p = Profile::from_owned_edges(3, &[(0, 1), (1, 2)]);
        let c0 = agent_cost(&game, &p, 0);
        assert_eq!(c0.edge_cost, 0.5);
        assert_eq!(c0.distance_cost, 1.0 + 3.0);
        let c1 = agent_cost(&game, &p, 1);
        assert_eq!(c1.edge_cost, 0.5 * 2.0);
        assert_eq!(c1.distance_cost, 1.0 + 2.0);
    }
}
