//! The dynamics engine's incremental paths against from-scratch oracles.
//!
//! [`reference_run`] replays the engine's semantics — the three
//! schedulers, the silent-round stop, profile-recurrence cycles, the round
//! cap and the per-round max-regret series — but prices every activation
//! with the from-scratch oracles (`best_greedy_move`, `best_add_move`,
//! `exact_best_response`: a fresh network, masked Dijkstras, a fresh
//! search on a freshly computed current cost). Engine runs must match it
//! bit for bit, so warm vectors, removal repair, the speculative scan,
//! the pricing memo and the pool-parallel all-agent scan are all
//! invisible in the result.
//!
//! The exact rule's activations are probed in isolation too. A context
//! evolved through arbitrary interleaved insert / remove / swap strategy
//! changes, ownership flips included, must give every agent the
//! stability verdict of a best response computed from scratch, and a
//! re-probe with no commit since must be answered by the pricing memo.
//! The engine prices each activation with the same fresh search
//! (`exact_best_response_in`), which derives the agent's current cost
//! itself and reads no warm vector, so these tests check the cached
//! network and the memo that feed it; the search's own tables and the
//! derived cost are checked inside every search by the debug oracles
//! that compare each bound table with the per-candidate fold and the
//! cost with `agent_cost_in`, active in these test builds.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use gncg_core::response::{best_add_move, best_greedy_move, exact_best_response};
use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::cycle::CycleDetector;
use gncg_dynamics::engine::{
    agent_is_stable_given_current, DynamicsConfig, Engine, EvalContext, Outcome, ResponseRule,
    Scheduler,
};

const RULE: ResponseRule = ResponseRule::ExactBestResponse;

const RULES: [ResponseRule; 3] = [
    ResponseRule::BestGreedyMove,
    ResponseRule::AddOnly,
    ResponseRule::ExactBestResponse,
];

const SCHEDULERS: [Scheduler; 3] = [
    Scheduler::RoundRobin,
    Scheduler::RandomOrder { seed: 7 },
    Scheduler::MaxGain,
];

/// A game on one of the nine registered factory hosts.
fn factory_game(n: usize) -> impl Strategy<Value = Game> {
    let hosts = gncg_metrics::factory::keys();
    let count = hosts.len();
    (0usize..count, (0u64..1 << 12), 0usize..3).prop_map(move |(host, seed, regime)| {
        let alpha = [0.3, 1.5, 8.0][regime];
        let host = gncg_metrics::build_host(hosts[host], n, seed).expect("registry key");
        Game::new(host, alpha)
    })
}

/// A connected-ish random start: a star plus extra purchases.
fn start_profile(n: usize) -> impl Strategy<Value = Profile> {
    (
        0u32..n as u32,
        proptest::collection::vec(proptest::bool::weighted(0.25), n * n),
    )
        .prop_map(move |(center, bits)| {
            let mut p = Profile::star(n, center);
            for u in 0..n {
                for v in 0..n {
                    if u != v && bits[u * n + v] && !p.has_edge(u as NodeId, v as NodeId) {
                        p.buy(u as NodeId, v as NodeId);
                    }
                }
            }
            p
        })
}

/// A script of raw strategy overwrites: each step assigns agent `a` the
/// strategy encoded by `mask` (bit `v` ⇒ own `(a, v)`), which against the
/// previous strategy is an arbitrary interleaving of edge insertions,
/// removals, and swaps — including ownership flips of co-owned edges.
fn script(n: usize, steps: usize) -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..n as u32, 0u32..1 << n, 0u32..n as u32), steps)
}

fn decode_strategy(a: NodeId, mask: u32, n: usize) -> BTreeSet<NodeId> {
    (0..n as NodeId)
        .filter(|&v| v != a && mask & (1 << v) != 0)
        .collect()
}

/// Applies one script step to `profile` + `ctx` the way the run loop
/// commits moves: profile first, then the context delta.
fn commit(
    game: &Game,
    profile: &mut Profile,
    ctx: &mut EvalContext,
    a: NodeId,
    s: BTreeSet<NodeId>,
) {
    let old = profile.strategy(a).clone();
    profile.set_strategy(a, s);
    ctx.apply_strategy_change(game, profile, a, &old);
}

/// Agent `u`'s improving change under `rule` and its gain, from scratch.
fn oracle_change(
    game: &Game,
    profile: &Profile,
    u: NodeId,
    rule: ResponseRule,
) -> Option<(BTreeSet<NodeId>, f64)> {
    let (strategy, after) =
        match rule {
            ResponseRule::ExactBestResponse => {
                let br = exact_best_response(game, profile, u);
                br.improves().then_some((br.strategy, br.cost))?
            }
            ResponseRule::BestGreedyMove => best_greedy_move(game, profile, u)
                .map(|(m, c)| (m.apply(u, profile.strategy(u)), c))?,
            ResponseRule::AddOnly => best_add_move(game, profile, u)
                .map(|(m, c)| (m.apply(u, profile.strategy(u)), c))?,
        };
    let before = gncg_core::cost::agent_cost(game, profile, u).total();
    let gain = if before.is_infinite() && after.is_finite() {
        f64::INFINITY
    } else {
        before - after
    };
    Some((strategy, gain))
}

/// What a run must reproduce: final profile, outcome, rounds, moves, and
/// the max-regret series as bits.
type Summary = (Profile, Outcome, usize, usize, Vec<u64>);

/// The dynamics of `Engine::run`, priced from scratch at every step.
fn reference_run(game: &Game, start: Profile, cfg: &DynamicsConfig) -> Summary {
    let n = game.n() as NodeId;
    let mut profile = start;
    let mut detector = CycleDetector::new();
    detector.start(&profile);
    let mut rng = StdRng::seed_from_u64(match cfg.scheduler {
        Scheduler::RandomOrder { seed } => seed,
        _ => 0,
    });
    let (mut moves, mut regrets) = (0, Vec::new());
    let (mut outcome, mut rounds) = (Outcome::MaxRoundsReached, cfg.max_rounds);
    'run: for round in 0..cfg.max_rounds {
        let order: Vec<NodeId> = match cfg.scheduler {
            Scheduler::RoundRobin => (0..n).collect(),
            Scheduler::RandomOrder { .. } => {
                let mut order: Vec<NodeId> = (0..n).collect();
                order.shuffle(&mut rng);
                order
            }
            // The largest gain, ties to the smaller id.
            Scheduler::MaxGain => (0..n)
                .filter_map(|u| oracle_change(game, &profile, u, cfg.rule).map(|(_, g)| (u, g)))
                .reduce(|best, next| if next.1 > best.1 { next } else { best })
                .map(|(u, _)| u)
                .into_iter()
                .collect(),
        };
        let mut moved = false;
        for u in order {
            if let Some((strategy, _)) = oracle_change(game, &profile, u, cfg.rule) {
                let old = profile.strategy(u).clone();
                profile.set_strategy(u, strategy);
                moves += 1;
                moved = true;
                if let Some(recurrence) = detector.observe(&profile, [(u, &old)]) {
                    (outcome, rounds) = (Outcome::Cycle { recurrence }, round + 1);
                    break 'run;
                }
            }
        }
        if cfg.regret_meter {
            let gains =
                (0..n).map(|u| oracle_change(game, &profile, u, cfg.rule).map_or(0.0, |c| c.1));
            regrets.push(gains.fold(0.0, f64::max).to_bits());
        }
        if !moved {
            (outcome, rounds) = (Outcome::Converged { rounds: round + 1 }, round + 1);
            break;
        }
    }
    (profile, outcome, rounds, moves, regrets)
}

/// Runs the engine and the reference loop from `start` and requires the
/// same summary, regrets compared bitwise.
fn assert_engine_matches_reference(game: &Game, start: &Profile, cfg: &DynamicsConfig) {
    let r = Engine::new().run(game, start.clone(), cfg);
    let series = r.regret_series.expect("meter on");
    let bits = series.iter().map(|g| g.to_bits()).collect();
    let got = (r.profile, r.outcome, r.rounds, r.moves, bits);
    let want = reference_run(game, start.clone(), cfg);
    assert_eq!(
        got,
        want,
        "{:?} {:?} α {}",
        cfg.rule,
        cfg.scheduler,
        game.alpha()
    );
}

/// The greedy rules across α regimes on random metrics, from the
/// delete- and swap-heavy α = 6 down to the add-heavy α = 0.4.
#[test]
fn engine_matches_reference_loop_on_random_metrics() {
    for seed in 0..3u64 {
        let host = gncg_metrics::arbitrary::random_metric(9, 1.0, 4.0, seed);
        for alpha in [0.4, 1.5, 6.0] {
            let game = Game::new(host.clone(), alpha);
            for rule in &RULES[..2] {
                for scheduler in SCHEDULERS {
                    let cfg = DynamicsConfig {
                        rule: *rule,
                        scheduler,
                        max_rounds: 400,
                        regret_meter: true,
                        ..Default::default()
                    };
                    assert_engine_matches_reference(&game, &Profile::star(9, 0), &cfg);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every rule and scheduler from random starts on every factory host,
    /// with the regret meter on.
    #[test]
    fn engine_matches_reference_loop_on_factory_hosts(
        g in factory_game(7),
        p0 in start_profile(7),
        sched in 0usize..3,
    ) {
        for rule in RULES {
            let cfg = DynamicsConfig {
                rule,
                scheduler: SCHEDULERS[sched],
                max_rounds: 40,
                regret_meter: true,
                ..Default::default()
            };
            assert_engine_matches_reference(&g, &p0, &cfg);
        }
    }

    /// The engine's BR ≡ from-scratch BR across all nine factory hosts
    /// under random interleaved insert/remove/swap deltas. Stability
    /// verdicts of a context evolved through the move sequence must
    /// match the from-scratch oracle step for step.
    #[test]
    fn engine_br_matches_oracle_under_interleaved_deltas(
        g in factory_game(8),
        p0 in start_profile(8),
        steps in script(8, 12),
    ) {
        let n = 8usize;
        let mut profile = p0;
        let mut cached = EvalContext::new(&g, &profile);
        for &(a, mask, probe) in &steps {
            let s = decode_strategy(a, mask, n);
            commit(&g, &mut profile, &mut cached, a, s);
            let want = oracle_change(&g, &profile, probe, RULE).is_none();
            let got = agent_is_stable_given_current(&g, &profile, &mut cached, probe, RULE);
            prop_assert_eq!(got, want, "agent {} stability diverged", probe);
        }
        // Final sweep: every agent's verdict agrees (each agent's warm
        // vector replays its whole pending history here).
        for u in 0..n as NodeId {
            let want = oracle_change(&g, &profile, u, RULE).is_none();
            let got = agent_is_stable_given_current(&g, &profile, &mut cached, u, RULE);
            prop_assert_eq!(got, want, "agent {} stability diverged in final sweep", u);
        }
    }
}

/// Re-probing an agent with zero intervening commits is answered by the
/// engine's pricing memo: no pricing runs (observable via
/// `EvalContext::pricings`; in these debug builds every hit is still
/// re-priced and checked bitwise against the stored answer), and one
/// committed delta makes the next sweep re-price every agent, the mover
/// included. Verdicts match the from-scratch oracle throughout.
#[test]
fn repeat_probes_memoize_until_a_delta_lands() {
    let n = 9usize;
    let host = gncg_metrics::build_host("metric", n, 5).expect("metric host");
    let g = Game::new(host, 1.3);
    let mut profile = Profile::star(n, 0);
    let mut ctx = EvalContext::new(&g, &profile);

    // Two identical sweeps: the first prices every agent, the second
    // prices nothing.
    for expected in [n as u64, 0] {
        let before = ctx.pricings();
        for u in 0..n as NodeId {
            let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
            assert_eq!(got, oracle_change(&g, &profile, u, RULE).is_none());
        }
        assert_eq!(ctx.pricings() - before, expected);
    }

    // One committed purchase: the next sweep re-prices all n agents, the
    // mover included, and verdicts keep matching.
    let mut s = profile.strategy(3).clone();
    s.insert(7);
    commit(&g, &mut profile, &mut ctx, 3, s);
    let before = ctx.pricings();
    for u in 0..n as NodeId {
        let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
        let want = oracle_change(&g, &profile, u, RULE).is_none();
        assert_eq!(got, want, "agent {u} diverged after the committed delta");
    }
    assert_eq!(ctx.pricings() - before, n as u64);
}
