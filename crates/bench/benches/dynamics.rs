//! Engine ablation pairs. `dynamics_swap_heavy`: warm-vector maintenance
//! under swap-heavy moves, the deletion-tolerant `DynamicSssp` repair vs
//! the invalidate-and-redo ancestor (`EvalContext::reset`).
//! `regret_meter`: the same run with the meter off and on.
//! `scripts/bench_snapshot.sh` derives `swap_heavy_speedup_n20` and
//! `regret_meter_overhead_n20` from them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::{DynamicsConfig, EvalContext, ResponseRule, Scheduler};
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

criterion_group!(benches, bench_swap_heavy, bench_regret_meter);
criterion_main!(benches);
