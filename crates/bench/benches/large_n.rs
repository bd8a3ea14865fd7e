//! Large-n scaling bench: the per-activation cost of one bounded-horizon
//! dynamics round as n grows.
//!
//! `scripts/bench_snapshot.sh` derives the tracked figures from this
//! group: `cost_per_activation_n{256,1024,4096}` = large_n_round/horizon/{n}
//! ÷ n (one add-only round activates every agent once, so the round median
//! divided by n is the activation cost).
//!
//! Hosts come from the `grid` factory: unit-spaced lattice points, the
//! host the large-n preset runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gncg_core::Game;
use gncg_dynamics::{DynamicsConfig, Engine, ResponseRule, Scheduler, SpeculativePricing};
use gncg_graph::SymMatrix;

const SIZES: [usize; 3] = [256, 1024, 4096];

fn grid_host(n: usize) -> SymMatrix {
    gncg_metrics::factory::build_host("grid", n, 0).expect("grid factory")
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_n_round");
    group.sample_size(10);
    // Add-only: the rule the large-n preset runs. A greedy swap scan
    // re-floods the agent's disconnected warm vector per candidate
    // (Θ(n) each → Θ(n³) a round), which is exactly what these cells
    // avoid; the add scan with horizon pricing stays near O(n²).
    let cfg = DynamicsConfig {
        rule: ResponseRule::AddOnly,
        scheduler: Scheduler::RoundRobin,
        max_rounds: 1,
        ..DynamicsConfig::default()
    };
    for n in SIZES {
        let game = Game::new(grid_host(n), 4.0);
        group.bench_with_input(BenchmarkId::new("horizon", n), &game, |b, game| {
            let mut engine = Engine::new();
            engine
                .context_mut()
                .set_pricing(SpeculativePricing::RegionDelta);
            b.iter(|| {
                engine
                    .run(game, gncg_core::Profile::star(game.n(), 0), &cfg)
                    .moves
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
