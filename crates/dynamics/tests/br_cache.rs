//! The dynamics engine's incremental paths against from-scratch oracles.
//!
//! [`reference_run`] replays the engine's semantics — the three
//! schedulers, the silent-round stop, profile-recurrence cycles, the round
//! cap and the per-round max-regret series — but prices every activation
//! with the from-scratch oracles (`best_greedy_move`, `best_add_move`,
//! `exact_best_response`: a fresh network, masked Dijkstras, a rebuilt
//! bound table). Engine runs must match it bit for bit, so warm vectors,
//! removal repair, the speculative scan, the persistent BR tables and the
//! pool-parallel all-agent scan are all invisible in the result.
//!
//! The persistent BR bound tables ([`BrBoundCache`]) are probed in
//! isolation too. They are delta-maintained through arbitrary interleaved
//! insert / remove / swap strategy changes, and past the staleness budget
//! they rebuild outright — in every state the chosen best response and
//! its cost must be **bitwise identical** to a fresh `BrSearch`. These
//! tests drive the public engine surface; the per-node guarantees (bound
//! admissibility at every pruned node, bitwise `d0`, lock-step base
//! graph) are asserted *inside* every cached search by the
//! `debug_assertions` oracle in `BrBoundCache::best_response`, which is
//! active in these test builds — each probe below therefore also runs
//! the full per-node admissibility check.

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
use gncg_dynamics::BR_STALENESS_BUDGET;

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
    detector.observe(&profile);
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
                profile.set_strategy(u, strategy);
                moves += 1;
                moved = true;
                if let Some(recurrence) = detector.observe(&profile) {
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

    /// Cached-bound BR ≡ from-scratch BR across all nine factory hosts
    /// under random interleaved insert/remove/swap deltas. Stability
    /// verdicts of a context evolved through the move sequence must
    /// match the from-scratch oracle step for step (and every cached
    /// probe self-checks bitwise against a fresh `BrSearch` via the debug
    /// oracle).
    #[test]
    fn cached_br_matches_rebuild_under_interleaved_deltas(
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
        // Final sweep: every agent's verdict agrees (every cache that was
        // built replays its whole pending history here).
        for u in 0..n as NodeId {
            let want = oracle_change(&g, &profile, u, RULE).is_none();
            let got = agent_is_stable_given_current(&g, &profile, &mut cached, u, RULE);
            prop_assert_eq!(got, want, "agent {} stability diverged in final sweep", u);
        }
    }
}

/// Drives a single agent's cache past the staleness-rebuild threshold:
/// `BR_STALENESS_BUDGET + 1` distinct removals land between two of its
/// activations, each absorbed as an admissible phantom edge, and the next
/// activation rebuilds the tables outright. Probes on both sides of the
/// threshold self-check bitwise against a fresh search (debug oracle).
#[test]
fn staleness_budget_triggers_rebuild() {
    let extra = BR_STALENESS_BUDGET + 1;
    let n = extra + 2; // agents 1..=extra+1 each buy one chain edge
    let host = gncg_metrics::build_host("unit", n, 0).expect("unit host");
    let g = Game::new(host, 1.2);
    let mut profile = Profile::star(n, 0);
    for i in 1..=extra as NodeId {
        profile.buy(i, i + 1);
    }
    let mut ctx = EvalContext::new(&g, &profile);

    // First activation of agent 0 builds its tables.
    agent_is_stable_given_current(&g, &profile, &mut ctx, 0, RULE);
    let cache = ctx.br_cache(0).expect("cache built on first BR activation");
    assert!(cache.is_built());
    assert_eq!(cache.stale_removals(), 0);

    // Every chain owner drops its extra edge — none incident to agent 0,
    // so each removal goes stale-admissible instead of being repaired.
    for i in 1..=extra as NodeId {
        let mut s = profile.strategy(i).clone();
        assert!(s.remove(&(i + 1)));
        commit(&g, &mut profile, &mut ctx, i, s);
        assert_eq!(
            ctx.br_cache(0).unwrap().stale_removals(),
            i as usize,
            "each removal must add exactly one phantom edge"
        );
    }
    assert!(ctx.br_cache(0).unwrap().stale_removals() > BR_STALENESS_BUDGET);

    // The next activation crosses the budget: full rebuild, zero
    // staleness, and a verdict matching a from-scratch context.
    let got = agent_is_stable_given_current(&g, &profile, &mut ctx, 0, RULE);
    assert_eq!(ctx.br_cache(0).unwrap().stale_removals(), 0);
    assert_eq!(got, oracle_change(&g, &profile, 0, RULE).is_none());
}

/// Re-probing an agent with zero intervening deltas returns the
/// memoized result (observable via `memo_is_warm`; in these debug
/// builds every hit is still oracle-checked against a fresh search),
/// and any committed delta kills the memo of every other agent's cache.
/// Verdicts match the from-scratch oracle throughout.
#[test]
fn repeat_probes_memoize_until_a_delta_lands() {
    let n = 9usize;
    let host = gncg_metrics::build_host("metric", n, 5).expect("metric host");
    let g = Game::new(host, 1.3);
    let mut profile = Profile::star(n, 0);
    let mut ctx = EvalContext::new(&g, &profile);

    // Two identical sweeps: the second is all memo hits.
    for _ in 0..2 {
        for u in 0..n as NodeId {
            let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
            assert_eq!(got, oracle_change(&g, &profile, u, RULE).is_none());
        }
    }
    for u in 0..n as NodeId {
        assert!(ctx.br_cache(u).unwrap().memo_is_warm());
    }

    // One committed purchase: every *other* agent's memo dies on the
    // spot (the mover's own survives until its next probe, where the
    // changed strategy misses it), and verdicts keep matching.
    let mut s = profile.strategy(3).clone();
    s.insert(7);
    commit(&g, &mut profile, &mut ctx, 3, s);
    for u in 0..n as NodeId {
        if u != 3 {
            assert!(
                !ctx.br_cache(u).unwrap().memo_is_warm(),
                "agent {u}'s memo must die with the committed insert"
            );
        }
    }
    for u in 0..n as NodeId {
        let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
        let want = oracle_change(&g, &profile, u, RULE).is_none();
        assert_eq!(got, want, "agent {u} diverged after the memo-killing delta");
        assert!(ctx.br_cache(u).unwrap().memo_is_warm());
    }
}

/// Under the budget, removals stay stale (weaker pruning, never a wrong
/// answer): probes keep matching the from-scratch oracle while phantoms
/// are live, without triggering a rebuild.
#[test]
fn stale_bounds_stay_admissible_under_budget() {
    let n = 10usize;
    let host = gncg_metrics::build_host("metric", n, 3).expect("metric host");
    let g = Game::new(host, 1.0);
    let mut profile = Profile::star(n, 0);
    for i in 1..6 as NodeId {
        profile.buy(i, i + 1);
    }
    let mut ctx = EvalContext::new(&g, &profile);

    // Build every agent's tables once.
    for u in 0..n as NodeId {
        let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
        assert_eq!(got, oracle_change(&g, &profile, u, RULE).is_none());
    }
    // Three removals, probing after each: the phantoms stay resident.
    for i in 1..4 as NodeId {
        let mut s = profile.strategy(i).clone();
        assert!(s.remove(&(i + 1)));
        commit(&g, &mut profile, &mut ctx, i, s);
        for u in 0..n as NodeId {
            let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
            let want = oracle_change(&g, &profile, u, RULE).is_none();
            assert_eq!(got, want, "agent {u} diverged with phantoms live");
        }
        // Probed caches of non-movers kept the removal stale, not repaired.
        assert!(ctx.br_cache(0).unwrap().stale_removals() as u32 >= i - 1);
    }
}
