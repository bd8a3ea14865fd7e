//! The per-activation candidate-move scan ablation (`move_scan`): full
//! round-robin greedy dynamics on the swap-heavy preset hosts, run by the
//! engine with its speculative warm-vector scan (apply each candidate's
//! edge delta to the warm vector, read the sum, roll back) vs replayed
//! with the masked-from-scratch-Dijkstra-per-candidate ancestor
//! ([`best_move_among_given_current`]) on a warm [`EvalContext`]. Both
//! choose identical moves — the setup asserts equal move counts — so the
//! runs do identical game-level work and the ratio isolates the scan.
//! `scripts/bench_snapshot.sh` derives the tracked
//! `move_scan_speedup_n20` figure from this pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gncg_core::response::best_move_among_given_current;
use gncg_core::{Game, Move, NodeId, Profile};
use gncg_dynamics::{DynamicsConfig, Engine, EvalContext, ResponseRule, Scheduler};
use gncg_suite::scenario::ScenarioSpec;

/// Round-robin greedy dynamics from the star, every activation priced by
/// the masked scan: the engine's run minus its speculative scan (and its
/// cycle detector — these runs converge). Returns the applied moves.
fn masked_run(game: &Game, max_rounds: usize) -> usize {
    let mut profile = Profile::star(game.n(), 0);
    let mut ctx = EvalContext::new(game, &profile);
    let mut moves = 0;
    for _ in 0..max_rounds {
        let before = moves;
        for u in 0..game.n() as NodeId {
            ctx.ensure_warm(u);
            let current = ctx.current_cost(game, &profile, u);
            let candidates = Move::greedy_moves(&profile, u);
            let network = ctx.network();
            if let Some((m, _)) =
                best_move_among_given_current(game, &profile, network, u, current, &candidates)
            {
                let old = profile.strategy(u).clone();
                profile.set_strategy(u, m.apply(u, &old));
                ctx.apply_strategy_change(game, &profile, u, &old);
                moves += 1;
            }
        }
        if moves == before {
            break;
        }
    }
    moves
}

fn bench_move_scan(c: &mut Criterion) {
    // Hosts drawn from the swap-heavy preset grid: one cell per host
    // family (r2 / grid / clusters at n = 20, the α = 4 column) — the
    // regime where deletes and swaps make up about half the applied
    // moves, so the scan prices the full add/delete/swap vocabulary.
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
    let cfg = DynamicsConfig {
        rule: ResponseRule::BestGreedyMove,
        scheduler: Scheduler::RoundRobin,
        max_rounds: 500,
        ..DynamicsConfig::default()
    };
    let speculative = || -> usize {
        games
            .iter()
            .map(|game| Engine::new().run(game, Profile::star(n, 0), &cfg).moves)
            .sum()
    };
    let masked = || -> usize {
        games
            .iter()
            .map(|game| masked_run(game, cfg.max_rounds))
            .sum()
    };
    assert_eq!(masked(), speculative(), "the scans replayed different runs");
    let mut group = c.benchmark_group("move_scan");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("speculative", n), &(), |b, _| {
        b.iter(speculative)
    });
    group.bench_with_input(BenchmarkId::new("masked", n), &(), |b, _| b.iter(masked));
    group.finish();
}

criterion_group!(benches, bench_move_scan);
criterion_main!(benches);
