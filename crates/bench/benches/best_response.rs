//! Best-response solver ablation: the incremental branch-and-bound vs the
//! historical from-scratch engine and the polynomial UMFL local search
//! (Theorem 3's machinery), across instance sizes — quantifying both the
//! price of exactness the NP-hardness results (Cor. 1, Thms 13/16)
//! predict and the payoff of incremental delta evaluation.
//! `scripts/bench_snapshot.sh` derives the tracked
//! `incremental_speedup_n14` figure from the `exact_bnb` /
//! `exact_bnb_reference` pair at n = 14.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gncg_core::{Game, Profile};

fn instance(n: usize) -> (Game, Profile) {
    let host = gncg_metrics::arbitrary::random_metric(n, 1.0, 4.0, 11);
    (Game::new(host, 1.5), Profile::star(n, 0))
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
    group.finish();
}

criterion_group!(benches, bench_best_response);
criterion_main!(benches);
