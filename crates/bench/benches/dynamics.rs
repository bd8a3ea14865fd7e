//! Engine ablation pairs. `dynamics_swap_heavy`: warm-vector maintenance
//! under swap-heavy moves, the deletion-tolerant `DynamicSssp` repair vs
//! the invalidate-and-redo ancestor (`EvalContext::reset`). `br_grid`:
//! persistent BR bound tables vs the from-scratch
//! `exact_best_response_given_current`. `regret_meter`: the same run with
//! the meter off and on. `scripts/bench_snapshot.sh` derives
//! `swap_heavy_speedup_n20`, `br_grid_speedup_n14` and
//! `regret_meter_overhead_n20` from them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gncg_core::response::exact_best_response_given_current;
use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::{DynamicsConfig, Engine, EvalContext, ResponseRule, Scheduler};
use gncg_suite::scenario::ScenarioSpec;

/// Replays a deterministic swap-heavy strategy-change script through an
/// [`EvalContext`] with every distance vector warm — the warm-vector
/// maintenance subsystem in isolation. Each leaf agent buys a shortcut,
/// swaps it twice, then deletes it (the churn the `swap_heavy` grid's α
/// band produces); after every applied change the context re-warms all
/// vectors, as the MaxGain pre-pass does each round. With `invalidate`,
/// every removal-bearing change is applied by resetting the context to
/// the new profile ([`EvalContext::reset`], the invalidate-and-redo
/// ancestor) and so costs `n` fresh Dijkstras; otherwise each vector is
/// repaired in place. Returns a distance checksum so the work is not
/// optimized away.
fn replay_swap_script(game: &Game, invalidate: bool) -> f64 {
    let n = game.n();
    let mut profile = Profile::star(n, 0);
    let mut ctx = EvalContext::new(game, &profile);
    let warm_all = |ctx: &mut EvalContext| (0..n as NodeId).for_each(|u| ctx.ensure_warm(u));
    warm_all(&mut ctx);
    let mut checksum = 0.0;
    for u in 1..n as NodeId {
        // Three distinct shortcut targets for u, none of them the star
        // center (those edges exist) and none of them u itself.
        let pick = |k: u32| -> NodeId {
            let t = 1 + (u + k) % (n as NodeId - 1);
            if t == u {
                1 + (u + k + 1) % (n as NodeId - 1)
            } else {
                t
            }
        };
        let (t1, t2, t3) = (pick(1), pick(5), pick(9));
        let steps: [&[NodeId]; 4] = [&[t1], &[t2], &[t3], &[]];
        for step in steps {
            let old = profile.strategy(u).clone();
            profile.set_strategy(u, step.iter().copied().collect());
            if invalidate && !old.is_subset(profile.strategy(u)) {
                ctx.reset(game, &profile);
            } else {
                ctx.apply_strategy_change(game, &profile, u, &old);
            }
            warm_all(&mut ctx);
            checksum += ctx.distance_sum(u);
        }
    }
    checksum
}

fn bench_swap_heavy(c: &mut Criterion) {
    // Hosts drawn from the swap-heavy preset grid: one cell per host
    // family (r2 / grid / clusters at n = 20, the α = 4 column).
    let spec = ScenarioSpec::swap_heavy();
    let games: Vec<Game> = spec
        .expand()
        .iter()
        .filter(|cell| cell.alpha == 4.0 && cell.seed == 0)
        .map(|cell| {
            let host = gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
                .expect("preset hosts are registered");
            Game::new(host, cell.alpha)
        })
        .collect();
    assert_eq!(games.len(), 3);
    let n = games[0].n();
    let mut group = c.benchmark_group("dynamics_swap_heavy");
    group.sample_size(10);
    for (name, invalidate) in [("dynamic", false), ("invalidate", true)] {
        group.bench_with_input(BenchmarkId::new(name, n), &invalidate, |b, &inv| {
            b.iter(|| {
                games
                    .iter()
                    .map(|game| replay_swap_script(game, inv))
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

/// Replays exact-best-response stability sweeps through an
/// [`EvalContext`], starting from a converged profile: eight rounds of
/// **two** `agent_is_stable_given_current` sweeps over every agent (the
/// regret-meter pricing pass plus the convergence check the run loop
/// performs each round) with one strategy toggle committed between
/// rounds so the tables keep absorbing deltas. This is where the
/// br-grid cells spend their wall clock — runs converge within a few
/// rounds and the bill after that is stability probing, where
/// branch-and-bound pruning is sharp and the dominant cost of a probe
/// is building the search state (candidate sort, a Dijkstra for `d0`
/// and the star relaxations that grow the bound table). With `rebuild`,
/// every probe pays that build in
/// the from-scratch [`exact_best_response_given_current`]; otherwise a
/// probe pays only delta maintenance plus the DFS on the persistent
/// tables, and the commit-free second sweep is answered by the engine's
/// pricing memo without a search (the rebuild arm searches every time). The dynamics-loop bookkeeping both arms share is
/// deliberately thin here, as in `replay_swap_script`, so the pair
/// isolates bound-table reuse. Returns a stability count so the searches
/// are not optimized away.
fn replay_br_sweeps(game: &Game, start: &Profile, rebuild: bool) -> usize {
    const RULE: ResponseRule = ResponseRule::ExactBestResponse;
    let n = game.n();
    let mut profile = start.clone();
    let mut ctx = EvalContext::new(game, &profile);
    let mut stable = 0usize;
    let m = n as NodeId - 1;
    for round in 0..8 as NodeId {
        for _sweep in 0..2 {
            for u in 0..n as NodeId {
                let is_stable = if rebuild {
                    ctx.ensure_warm(u);
                    let current = ctx.current_cost(game, &profile, u);
                    !exact_best_response_given_current(game, &profile, ctx.network(), u, current)
                        .improves()
                } else {
                    gncg_dynamics::agent_is_stable_given_current(game, &profile, &mut ctx, u, RULE)
                };
                stable += usize::from(is_stable);
            }
        }
        // One non-center agent toggles a shortcut (a buy if absent, a
        // drop if the converged profile owns it), so the next round's
        // probes flow through both the insert and the stale-removal
        // maintenance paths while staying near equilibrium.
        let a = 1 + round % m;
        let t = 1 + (a + 2) % m;
        let t = if t == a { 1 + (t % m) } else { t };
        let old = profile.strategy(a).clone();
        let mut s = old.clone();
        if !s.insert(t) {
            s.remove(&t);
        }
        profile.set_strategy(a, s);
        ctx.apply_strategy_change(game, &profile, a, &old);
    }
    stable
}

/// The persistent BR bound tables priced on the br-grid column the
/// golden locks: [`replay_br_sweeps`] at n = 14 over one game per host
/// family × α band of the `br_grid` preset (the seed = 0 column), with
/// the per-agent `BrBoundCache` resident across activations (`cached`,
/// the engine's path) vs rebuilt from scratch on every probe (`rebuild`,
/// the ancestor). Both arms price bitwise-identical best responses, so
/// the delta is pure bound-table reuse. `scripts/bench_snapshot.sh`
/// derives the tracked `br_grid_speedup_n14` figure (rebuild ÷ cached
/// wall time) from this pair.
fn bench_br_grid(c: &mut Criterion) {
    let cfg = DynamicsConfig {
        rule: ResponseRule::ExactBestResponse,
        scheduler: Scheduler::RoundRobin,
        max_rounds: 60,
        ..DynamicsConfig::default()
    };
    let games: Vec<(Game, Profile)> = ScenarioSpec::br_grid()
        .expand()
        .iter()
        .filter(|cell| cell.n == 14 && cell.seed == 0)
        .map(|cell| {
            let host = gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
                .expect("preset hosts are registered");
            let game = Game::new(host, cell.alpha);
            // Both arms sweep from the same converged state.
            let start = Engine::new()
                .run(&game, Profile::star(cell.n, 0), &cfg)
                .profile;
            (game, start)
        })
        .collect();
    assert_eq!(games.len(), 9);
    let n = games[0].0.n();
    let mut group = c.benchmark_group("br_grid");
    group.sample_size(10);
    for (name, rebuild) in [("cached", false), ("rebuild", true)] {
        group.bench_with_input(BenchmarkId::new(name, n), &rebuild, |b, &r| {
            b.iter(|| {
                games
                    .iter()
                    .map(|(game, start)| replay_br_sweeps(game, start, r))
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

/// The regret meter's price at n = 20: the same round-robin greedy run
/// with the meter off vs on (one end-of-round pricing scan, the pass
/// MaxGain runs to pick a winner, which re-prices only the agents priced
/// before the round's last move; the rest are pricing-memo hits).
/// `scripts/bench_snapshot.sh` derives `regret_meter_overhead_n20`
/// (on ÷ off wall time) from this pair.
fn bench_regret_meter(c: &mut Criterion) {
    let n = 20usize;
    let host = gncg_metrics::arbitrary::random_metric(n, 1.0, 4.0, 7);
    let game = Game::new(host, 2.0);
    let cfg = |meter: bool| DynamicsConfig {
        rule: ResponseRule::BestGreedyMove,
        scheduler: Scheduler::RoundRobin,
        max_rounds: 300,
        regret_meter: meter,
        ..DynamicsConfig::default()
    };
    let mut group = c.benchmark_group("regret_meter");
    group.sample_size(10);
    for (name, meter) in [("off", false), ("on", true)] {
        let cfg = cfg(meter);
        group.bench_with_input(BenchmarkId::new(name, n), &(), |b, _| {
            b.iter(|| gncg_dynamics::run(&game, Profile::star(n, 0), &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_swap_heavy, bench_br_grid, bench_regret_meter);
criterion_main!(benches);
