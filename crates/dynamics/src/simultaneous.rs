//! Simultaneous-move response dynamics.
//!
//! In the sequential engine ([`crate::engine`]) one agent moves at a time.
//! Real decentralized systems often update concurrently: every round,
//! *all* agents compute a response against the current network and apply
//! them at once. Simultaneous best responses are well known to oscillate
//! even on instances where sequential dynamics converge (coordination
//! failure: two agents both buy, or both drop, the same connectivity) —
//! this module provides the engine and the comparison experiment.

use std::collections::BTreeSet;

use gncg_core::response::{best_greedy_move_in, exact_best_response_in};
use gncg_core::{Game, NodeId, Profile};

use crate::cycle::{CycleDetector, Recurrence};
use crate::engine::ResponseRule;

/// Outcome of a simultaneous-dynamics run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimOutcome {
    /// No agent changed its strategy in some round.
    Converged {
        /// Rounds executed including the silent one.
        rounds: usize,
    },
    /// A profile recurred (oscillation certified).
    Cycle {
        /// The recurrence.
        recurrence: Recurrence,
    },
    /// Cap reached.
    MaxRoundsReached,
}

/// Result of a simultaneous run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Final profile.
    pub profile: Profile,
    /// Outcome.
    pub outcome: SimOutcome,
    /// Total strategy changes applied.
    pub moves: usize,
}

/// Runs simultaneous dynamics: each round every agent computes its
/// response against the *current* profile; all changes apply at once.
pub fn run_simultaneous(
    game: &Game,
    start: Profile,
    rule: ResponseRule,
    max_rounds: usize,
) -> SimResult {
    let n = game.n();
    let mut profile = start;
    let mut detector = CycleDetector::new();
    detector.start(&profile);
    let mut moves = 0usize;
    for round in 0..max_rounds {
        // All agents respond to the same snapshot, so one network build
        // serves the whole round (this is exactly the simultaneous-move
        // semantics: nobody sees anyone else's in-flight change).
        let network = profile.build_network(game);
        let mut changes: Vec<(NodeId, BTreeSet<NodeId>)> = Vec::new();
        for u in 0..n as NodeId {
            match rule {
                ResponseRule::ExactBestResponse => {
                    let br = exact_best_response_in(game, &profile, &network, u);
                    if br.improves() {
                        changes.push((u, br.strategy));
                    }
                }
                ResponseRule::BestGreedyMove => {
                    if let Some((m, _)) = best_greedy_move_in(game, &profile, &network, u) {
                        changes.push((u, m.apply(u, profile.strategy(u))));
                    }
                }
                ResponseRule::AddOnly => {
                    if let Some((m, _)) =
                        gncg_core::response::best_add_move_in(game, &profile, &network, u)
                    {
                        changes.push((u, m.apply(u, profile.strategy(u))));
                    }
                }
            }
        }
        if changes.is_empty() {
            return SimResult {
                profile,
                outcome: SimOutcome::Converged { rounds: round + 1 },
                moves,
            };
        }
        let mut previous = Vec::with_capacity(changes.len());
        for (u, s) in changes {
            previous.push((u, profile.strategy(u).clone()));
            profile.set_strategy(u, s);
            moves += 1;
        }
        if let Some(rec) = detector.observe(&profile, previous.iter().map(|(u, s)| (*u, s))) {
            return SimResult {
                profile,
                outcome: SimOutcome::Cycle { recurrence: rec },
                moves,
            };
        }
    }
    SimResult {
        profile,
        outcome: SimOutcome::MaxRoundsReached,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_graph::SymMatrix;

    #[test]
    fn stable_start_stays() {
        // A certified NE start converges in one silent round.
        let game = Game::new(SymMatrix::filled(5, 1.0), 3.0);
        let r = run_simultaneous(
            &game,
            Profile::star(5, 0),
            ResponseRule::ExactBestResponse,
            50,
        );
        assert_eq!(r.outcome, SimOutcome::Converged { rounds: 1 });
        assert_eq!(r.moves, 0);
    }

    #[test]
    fn simultaneous_oscillation_on_two_agents() {
        // Two disconnected agents both want the single edge: sequentially
        // one buys and the other stops; simultaneously both buy, then both
        // (owning a redundant double-bought edge) drop — a classic
        // coordination cycle. (Whether it cycles or converges depends on
        // tie-breaking; the run must terminate with *some* decisive
        // outcome and never exceed the cap silently.)
        let game = Game::new(SymMatrix::filled(2, 0.5), 0.5);
        let r = run_simultaneous(
            &game,
            Profile::empty(2),
            ResponseRule::ExactBestResponse,
            40,
        );
        match r.outcome {
            SimOutcome::Cycle { recurrence } => assert!(recurrence.period() >= 1),
            SimOutcome::Converged { .. } => {
                // If it converged the result must be a genuine NE.
                assert!(gncg_core::equilibrium::is_nash_equilibrium(
                    &game, &r.profile
                ));
            }
            SimOutcome::MaxRoundsReached => {}
        }
    }

    #[test]
    fn simultaneous_add_only_reaches_ae_on_unit_metric() {
        // Add-only simultaneous updates cannot un-buy, so they converge.
        let game = Game::new(SymMatrix::filled(6, 0.4), 0.4);
        let r = run_simultaneous(&game, Profile::star(6, 0), ResponseRule::AddOnly, 100);
        assert!(matches!(r.outcome, SimOutcome::Converged { .. }));
        assert!(gncg_core::equilibrium::is_add_only_equilibrium(
            &game, &r.profile
        ));
    }

    #[test]
    fn sequential_converges_where_simultaneous_may_not() {
        // On a metric instance, compare engines from the same start.
        let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, 2);
        let game = Game::new(host, 1.0);
        let seq = crate::engine::run(
            &game,
            Profile::star(6, 0),
            &crate::engine::DynamicsConfig {
                rule: ResponseRule::BestGreedyMove,
                scheduler: crate::engine::Scheduler::RoundRobin,
                max_rounds: 300,
                ..crate::engine::DynamicsConfig::default()
            },
        );
        assert!(seq.converged());
        // The simultaneous run must terminate decisively within the cap
        // too (either converging or certifying a cycle) on this instance.
        let sim = run_simultaneous(
            &game,
            Profile::star(6, 0),
            ResponseRule::BestGreedyMove,
            300,
        );
        assert!(!matches!(sim.outcome, SimOutcome::MaxRoundsReached));
    }
}
