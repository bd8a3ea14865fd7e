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

use rayon::prelude::*;

use gncg_graph::{strictly_less, NodeId};

use crate::cost::{agent_cost_in, base_graph_from, candidate_cost};
use crate::response::{best_add_move, best_greedy_move, exact_best_response};
use crate::{Game, Move, Profile};

/// Whether `profile` is an Add-only Equilibrium.
pub fn is_add_only_equilibrium(game: &Game, profile: &Profile) -> bool {
    (0..game.n() as NodeId)
        .into_par_iter()
        .all(|u| best_add_move(game, profile, u).is_none())
}

/// Whether `profile` is a Greedy Equilibrium.
pub fn is_greedy_equilibrium(game: &Game, profile: &Profile) -> bool {
    (0..game.n() as NodeId)
        .into_par_iter()
        .all(|u| best_greedy_move(game, profile, u).is_none())
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
    (0..game.n() as NodeId)
        .into_par_iter()
        .all(|u| !exact_best_response(game, profile, u).improves())
}

/// The worst NE approximation factor over agents:
/// `max_u cost(u) / bestresponse_cost(u)` (`1.0` means exact NE).
///
/// A profile is a β-NE exactly when this factor is ≤ β.
pub fn nash_approximation_factor(game: &Game, profile: &Profile) -> f64 {
    (0..game.n() as NodeId)
        .into_par_iter()
        .map(|u| {
            let br = exact_best_response(game, profile, u);
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

/// Which agents currently have an improving greedy move (diagnostic).
pub fn unstable_agents_greedy(game: &Game, profile: &Profile) -> Vec<NodeId> {
    (0..game.n() as NodeId)
        .filter(|&u| best_greedy_move(game, profile, u).is_some())
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
