//! Equilibrium concepts and their certification.
//!
//! The paper's hierarchy (§1.1): every NE is a GE, every GE is an AE.
//!
//! * **NE** — no agent has *any* improving strategy change. Certified with
//!   the exact best-response solver (exponential; parallelized over agents).
//! * **GE** (Greedy Equilibrium) — no agent improves by a single add,
//!   delete or swap.
//! * **AE** (Add-only Equilibrium) — no agent improves by a single add.
//! * **β-NE / β-GE** — no deviation (in the respective move space) drops an
//!   agent's cost below `cost(u)/β`.
//!
//! GE and AE are certified **cold** ([`certify_agents_in`]): the profile's
//! network is built once and its all-pairs distance table computed once;
//! per agent, a distance bound read off that table rules out most adds
//! and swaps, and only the rest are priced exactly. No engine state is
//! consulted, so a certificate is independent of the dynamics that
//! produced the profile. The masked scan it replaces
//! ([`best_greedy_move`](crate::response::best_greedy_move) /
//! [`best_add_move`](crate::response::best_add_move), one masked Dijkstra
//! per move) stays as its oracle: debug builds check every agent's
//! verdict against it.

use std::cell::OnceCell;
use std::collections::BTreeSet;

use rayon::prelude::*;

use gncg_graph::apsp::apsp_parallel;
use gncg_graph::{strictly_less, AdjacencyList, DistanceMatrix, NodeId, EPS};

use crate::cost::{
    agent_cost_in, base_graph_from, candidate_cost, candidate_cost_from, candidate_distances,
    edge_cost, CostBreakdown, MoveBound,
};
use crate::response::{
    best_add_move_in, best_greedy_move_in, candidate_edge_sum, exact_best_response_in,
};
use crate::{Game, Move, Profile};

pub use crate::moves::MoveSpace;

/// Whether `profile` is an Add-only Equilibrium.
pub fn is_add_only_equilibrium(game: &Game, profile: &Profile) -> bool {
    certify_all(game, profile, MoveSpace::AddOnly)
}

/// Whether `profile` is a Greedy Equilibrium.
pub fn is_greedy_equilibrium(game: &Game, profile: &Profile) -> bool {
    certify_all(game, profile, MoveSpace::Greedy)
}

/// [`certify_agents_in`] over every agent, building the network and its
/// all-pairs table first.
fn certify_all(game: &Game, profile: &Profile, space: MoveSpace) -> bool {
    let network = profile.build_network(game);
    let agents: Vec<NodeId> = (0..game.n() as NodeId).collect();
    certify_agents_in(
        game,
        profile,
        &network,
        &apsp_parallel(&network),
        &agents,
        space,
    )
    .0
}

/// The cold certifier: whether no agent in `agents` has a strictly
/// improving move in `space`, together with the number of exact
/// Dijkstras the check ran. `network` must be `profile`'s built network
/// and `apsp` its [`apsp_parallel`] table.
///
/// The verdict is bitwise the masked scan's
/// ([`best_greedy_move`](crate::response::best_greedy_move) /
/// [`best_add_move`](crate::response::best_add_move) returning `None` for
/// every agent), and debug builds assert it per agent. Agents are
/// checked in parallel. Each agent's check stops at its first improving
/// move, but every agent is checked, so the count is deterministic at
/// every pool size.
///
/// # Per agent
///
/// For agent `u` with strategy `S` and current cost `c`, read off the
/// table as [`agent_cost_in`] computes it:
///
/// * **`Add(a)`** is ruled out when
///   `(α·w(S + a) + Σ_v min(d(u,v), w(u,a) + d(a,v)))·(1 − 8nε) ≥ c − EPS`,
///   with `d` the table and `ε` = [`f64::EPSILON`].
/// * **`Delete(d)`** is always priced exactly, with one Dijkstra on
///   `G − ud` (on `G` when `d` also buys that edge).
/// * **`Swap(d, a)`** is ruled out by the `Add(a)` rule with the
///   `Delete(d)` vector `d_{G−ud}(u,·)` in place of `d(u,·)`.
///
/// Every move not ruled out is priced exactly, as [`candidate_cost`]
/// prices it for the masked scan, and improves when it is
/// [`strictly_less`] than `c`. The count is the deletes plus these
/// survivors.
///
/// # Why a ruled-out move cannot improve
///
/// [`MoveBound`] proves, margin and rounding included, that a move whose
/// bound passes the test prices at or above `fl(c − EPS)`: `δ` is `d(u,·)`
/// for an add and the delete vector for a swap. That is exactly when
/// [`strictly_less`] says the move does not improve on `c`.
pub fn certify_agents_in(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    apsp: &DistanceMatrix,
    agents: &[NodeId],
    space: MoveSpace,
) -> (bool, u64) {
    agents
        .par_iter()
        .map(|&u| agent_check(game, profile, network, apsp, u, space))
        .reduce(|| (true, 0), |(a, x), (b, y)| (a && b, x + y))
}

/// One agent's cold check (see [`certify_agents_in`]): whether `u` is
/// stable in `space`, and how many exact Dijkstras it took to tell.
fn agent_check(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    apsp: &DistanceMatrix,
    u: NodeId,
    space: MoveSpace,
) -> (bool, u64) {
    let own = profile.strategy(u);
    // `(x, w(u, x))` per owned target, ascending: the edge terms' table.
    let pairs: Vec<(NodeId, f64)> = own.iter().map(|&x| (x, game.w(u, x))).collect();
    let current = CostBreakdown {
        edge_cost: edge_cost(game, profile, u),
        distance_cost: apsp.distance_cost(u),
    }
    .total();
    let floor = current - EPS;
    let bound = MoveBound::new(game.n());
    // Whether the bound rules out candidate `m`, which gains edge `ua`
    // onto a network whose distances from `u` are `dist`.
    let ruled_out = |m: &Move, a: NodeId, dist: &[f64]| {
        let edge = game.alpha() * candidate_edge_sum(game, u, &pairs, m);
        bound.rules_out(
            edge,
            MoveBound::reach(dist, game.w(u, a), apsp.row(a)),
            floor,
        )
    };
    let base = OnceCell::new();
    let mut dijkstras = 0;
    // Prices `cand` exactly, as the masked scan does: whether it improves
    // on `current`, and its distance vector.
    let mut exact = |cand: BTreeSet<NodeId>| {
        dijkstras += 1;
        let base = base.get_or_init(|| base_graph_from(network, profile, u));
        let dist = candidate_distances(game, base, u, &cand);
        let improves = strictly_less(candidate_cost_from(game, u, &cand, &dist).total(), current);
        (improves, dist)
    };
    let adds: Vec<NodeId> = (0..game.n() as NodeId)
        .filter(|&a| a != u && !own.contains(&a))
        .collect();
    let stable = 'check: {
        for &a in &adds {
            let m = Move::Add(a);
            if !ruled_out(&m, a, apsp.row(u)) && exact(m.apply(u, own)).0 {
                break 'check false;
            }
        }
        if space == MoveSpace::Greedy {
            for &d in own {
                let (improves, dist) = exact(Move::Delete(d).apply(u, own));
                if improves {
                    break 'check false;
                }
                for &a in &adds {
                    let m = Move::Swap(d, a);
                    if !ruled_out(&m, a, &dist) && exact(m.apply(u, own)).0 {
                        break 'check false;
                    }
                }
            }
        }
        true
    };
    debug_assert_eq!(
        stable,
        match space {
            MoveSpace::Greedy => best_greedy_move_in(game, profile, network, u),
            MoveSpace::AddOnly => best_add_move_in(game, profile, network, u),
        }
        .is_none(),
        "cold certificate of agent {u} drifted from the masked scan"
    );
    (stable, dijkstras)
}

/// Whether `profile` is a *Swap Equilibrium*: no agent improves by
/// swapping one owned edge for another (deletions and additions excluded).
///
/// Swap stability is the concept of the "basic network creation games"
/// line (Alon et al., and Mihalák & Schlegel's asymmetric swap
/// equilibrium, both discussed in the paper's related work §1.2); every GE
/// is in particular swap-stable, which makes this a cheap necessary
/// condition and a useful diagnostic for *why* a profile fails GE.
pub fn is_swap_equilibrium(game: &Game, profile: &Profile) -> bool {
    (0..game.n() as NodeId).into_par_iter().all(|u| {
        let moves: Vec<Move> = Move::greedy_moves(profile, u)
            .into_iter()
            .filter(|m| matches!(m, Move::Swap(..)))
            .collect();
        crate::response::best_move_among(game, profile, u, &moves).is_none()
    })
}

/// Whether `profile` is a pure Nash Equilibrium, certified by exact
/// best-response search for every agent (parallelized). Exponential in the
/// worst case — intended for the experiment sizes (n ≲ 20) and structured
/// constructions.
pub fn is_nash_equilibrium(game: &Game, profile: &Profile) -> bool {
    let network = profile.build_network(game);
    (0..game.n() as NodeId)
        .into_par_iter()
        .all(|u| !exact_best_response_in(game, profile, &network, u).improves())
}

/// The worst NE approximation factor over agents:
/// `max_u cost(u) / bestresponse_cost(u)` (`1.0` means exact NE).
///
/// A profile is a β-NE exactly when this factor is ≤ β.
pub fn nash_approximation_factor(game: &Game, profile: &Profile) -> f64 {
    let network = profile.build_network(game);
    (0..game.n() as NodeId)
        .into_par_iter()
        .map(|u| {
            let br = exact_best_response_in(game, profile, &network, u);
            ratio(br.current_cost, br.cost)
        })
        .reduce(|| 1.0, f64::max)
}

/// The worst *greedy* approximation factor over agents:
/// `max_u cost(u) / best_single_move_cost(u)` (`1.0` means exact GE).
///
/// A profile is a β-GE exactly when this factor is ≤ β. Theorem 2 of the
/// paper shows every AE in the M–GNCG has factor ≤ α + 1.
pub fn greedy_approximation_factor(game: &Game, profile: &Profile) -> f64 {
    let network = profile.build_network(game);
    (0..game.n() as NodeId)
        .into_par_iter()
        .map(|u| {
            let current = agent_cost_in(game, profile, &network, u).total();
            let base = base_graph_from(&network, profile, u);
            let own = profile.strategy(u);
            let mut best = current;
            for m in Move::greedy_moves(profile, u) {
                let cand = m.apply(u, own);
                let c = candidate_cost(game, &base, u, &cand).total();
                if c < best {
                    best = c;
                }
            }
            ratio(current, best)
        })
        .reduce(|| 1.0, f64::max)
}

/// Whether `profile` is a β-approximate NE.
pub fn is_beta_nash(game: &Game, profile: &Profile, beta: f64) -> bool {
    nash_approximation_factor(game, profile) <= beta + gncg_graph::EPS
}

/// Which agents currently have an improving greedy move (diagnostic),
/// each told by the cold per-agent check of [`certify_agents_in`].
pub fn unstable_agents_greedy(game: &Game, profile: &Profile) -> Vec<NodeId> {
    let network = profile.build_network(game);
    let apsp = apsp_parallel(&network);
    (0..game.n() as NodeId)
        .filter(|&u| !agent_check(game, profile, &network, &apsp, u, MoveSpace::Greedy).0)
        .collect()
}

fn ratio(current: f64, best: f64) -> f64 {
    if strictly_less(best, current) {
        if best <= 0.0 {
            // Positive current cost against zero-cost deviation: unbounded.
            if current > 0.0 {
                f64::INFINITY
            } else {
                1.0
            }
        } else {
            current / best
        }
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_graph::SymMatrix;

    fn unit_game(n: usize, alpha: f64) -> Game {
        Game::new(SymMatrix::filled(n, 1.0), alpha)
    }

    #[test]
    fn star_is_ne_for_high_alpha_unit_metric() {
        // Classic NCG fact: stars are NE for α ≥ 1 (here α = 2).
        let game = unit_game(6, 2.0);
        let p = Profile::star(6, 0);
        assert!(is_nash_equilibrium(&game, &p));
        assert!(is_greedy_equilibrium(&game, &p));
        assert!(is_add_only_equilibrium(&game, &p));
        assert_eq!(nash_approximation_factor(&game, &p), 1.0);
    }

    #[test]
    fn star_not_ne_for_low_alpha_unit_metric() {
        // α < 1: leaves profit from buying 1-edges (distance 2 → 1 costs α).
        let game = unit_game(6, 0.5);
        let p = Profile::star(6, 0);
        assert!(!is_add_only_equilibrium(&game, &p));
        assert!(!is_greedy_equilibrium(&game, &p));
        assert!(!is_nash_equilibrium(&game, &p));
        assert!(nash_approximation_factor(&game, &p) > 1.0);
    }

    #[test]
    fn hierarchy_ne_implies_ge_implies_ae() {
        // Sweep a few instances; whenever NE holds, GE and AE must hold.
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, seed);
            let game = Game::new(host, 2.0);
            for center in 0..3 {
                let p = Profile::star(6, center);
                let ne = is_nash_equilibrium(&game, &p);
                let ge = is_greedy_equilibrium(&game, &p);
                let ae = is_add_only_equilibrium(&game, &p);
                if ne {
                    assert!(ge, "NE must be GE (seed {seed}, center {center})");
                }
                if ge {
                    assert!(ae, "GE must be AE (seed {seed}, center {center})");
                }
            }
        }
    }

    #[test]
    fn disconnected_two_agents_are_unstable() {
        // On n = 2 a single add restores connectivity and is improving.
        let game = unit_game(2, 1.0);
        let p = Profile::empty(2);
        assert!(!is_add_only_equilibrium(&game, &p));
        let unstable = unstable_agents_greedy(&game, &p);
        assert_eq!(unstable.len(), 2);
    }

    #[test]
    fn empty_profile_on_many_agents_is_vacuous_ae() {
        // With n ≥ 3 a *single* added edge cannot restore connectivity, so
        // the (infinite-cost) empty profile is vacuously an Add-only
        // Equilibrium — but not a Nash Equilibrium, since a full strategy
        // replacement (buy everything) yields finite cost.
        let game = unit_game(4, 1.0);
        let p = Profile::empty(4);
        assert!(is_add_only_equilibrium(&game, &p));
        assert!(!is_nash_equilibrium(&game, &p));
    }

    #[test]
    fn complete_graph_equilibrium_for_tiny_alpha() {
        // α < smallest distance saving: the complete graph (each edge owned
        // once) is NE because deleting any edge raises distance by ≥ 1 > α·1
        // and nothing can be added.
        let game = unit_game(4, 0.5);
        let mut p = Profile::empty(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                p.buy(u, v);
            }
        }
        assert!(is_nash_equilibrium(&game, &p));
    }

    #[test]
    fn beta_nash_factors() {
        let game = unit_game(6, 0.5);
        let p = Profile::star(6, 0);
        let f = nash_approximation_factor(&game, &p);
        assert!(f > 1.0);
        assert!(is_beta_nash(&game, &p, f + 0.01));
        assert!(!is_beta_nash(&game, &p, (f - 0.01).max(1.0)));
    }

    #[test]
    fn swap_equilibrium_is_implied_by_ge() {
        // GE ⇒ swap-stable on certified profiles.
        let game = unit_game(6, 2.0);
        let p = Profile::star(6, 0);
        assert!(is_greedy_equilibrium(&game, &p));
        assert!(is_swap_equilibrium(&game, &p));
    }

    #[test]
    fn swap_instability_detected() {
        // Agent 0 owns a heavy edge with a strictly cheaper swap target
        // that preserves all its distances.
        let mut w = SymMatrix::filled(4, 1.0);
        w.set(0, 3, 5.0); // heavy
        let game = Game::new(w, 10.0);
        // 0 owns (0,3); path 3-2-1-0 exists through unit edges.
        let p = Profile::from_owned_edges(4, &[(0, 3), (1, 0), (2, 1), (3, 2)]);
        assert!(!is_swap_equilibrium(&game, &p));
    }

    #[test]
    fn greedy_factor_at_most_nash_factor() {
        // The greedy deviation space is a subset of the full one, so the
        // greedy improvement factor can't exceed the Nash improvement factor.
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 4.0, 5);
        let game = Game::new(host, 1.0);
        let p = Profile::star(7, 2);
        let gf = greedy_approximation_factor(&game, &p);
        let nf = nash_approximation_factor(&game, &p);
        assert!(gf <= nf + 1e-9, "greedy {gf} vs nash {nf}");
    }
}
