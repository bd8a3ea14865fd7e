//! Best-response solver ablation: the incremental branch-and-bound vs the
//! historical from-scratch engine and the polynomial UMFL local search
//! (Theorem 3's machinery), across instance sizes — quantifying both the
//! price of exactness the NP-hardness results (Cor. 1, Thms 13/16)
//! predict and the payoff of incremental delta evaluation.
//! `scripts/bench_snapshot.sh` derives the tracked
//! `incremental_speedup_n14` figure from the `exact_bnb` /
//! `exact_bnb_reference` pair at n = 14.
//!
//! Those star instances keep every candidate of the search's cut
//! (`response::candidates_kept`). The `exact_bnb_converged` arms search
//! every agent of a converged br-grid preset profile instead, as the
//! engine's activations and br certification do, where the cut drops
//! candidates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gncg_core::response::exact_best_response_in;
use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::DynamicsConfig;
use gncg_suite::scenario::ScenarioSpec;

fn instance(n: usize) -> (Game, Profile) {
    let host = gncg_metrics::arbitrary::random_metric(n, 1.0, 4.0, 11);
    (Game::new(host, 1.5), Profile::star(n, 0))
}

/// The first br-grid preset cell of `n` agents at the preset's middle α,
/// 2.0 (host `r2`, seed 0), run to convergence: its game and final
/// profile. The cut keeps 80 of its 132 candidates at n = 12 and 130 of
/// 182 at n = 14, near the preset's 70 % share.
fn converged_br_grid_cell(n: usize) -> (Game, Profile) {
    let cell = ScenarioSpec::br_grid()
        .expand()
        .into_iter()
        .find(|cell| cell.n == n && cell.alpha == 2.0)
        .expect("the preset has cells of this size at α = 2");
    let host = gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
        .expect("preset hosts are registered");
    let game = Game::new(host, cell.alpha);
    let cfg = DynamicsConfig {
        rule: cell.rule.rule(),
        scheduler: cell.scheduler.scheduler(cell.cell_seed),
        max_rounds: cell.max_rounds,
        ..DynamicsConfig::default()
    };
    let run = gncg_dynamics::run(&game, Profile::star(n, 0), &cfg);
    assert!(run.converged(), "br-grid cell {}", cell.index);
    (game, run.profile)
}

fn bench_best_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_response");
    for n in [8usize, 12, 14, 16, 20] {
        let (game, profile) = instance(n);
        group.bench_with_input(BenchmarkId::new("exact_bnb", n), &n, |b, _| {
            b.iter(|| gncg_core::response::exact_best_response(&game, &profile, 1))
        });
        group.bench_with_input(BenchmarkId::new("exact_bnb_reference", n), &n, |b, _| {
            b.iter(|| gncg_core::response::exact_best_response_reference(&game, &profile, 1))
        });
        group.bench_with_input(BenchmarkId::new("umfl_local_search", n), &n, |b, _| {
            b.iter(|| gncg_solvers::umfl::best_response_umfl(&game, &profile, 1))
        });
        group.bench_with_input(BenchmarkId::new("greedy_single_move", n), &n, |b, _| {
            b.iter(|| gncg_core::response::best_greedy_move(&game, &profile, 1))
        });
    }
    for n in [12usize, 14] {
        let (game, profile) = converged_br_grid_cell(n);
        let network = profile.build_network(&game);
        group.bench_with_input(BenchmarkId::new("exact_bnb_converged", n), &n, |b, _| {
            b.iter(|| {
                (0..n as NodeId)
                    .map(|u| exact_best_response_in(&game, &profile, &network, u).evaluated)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_best_response);
criterion_main!(benches);
