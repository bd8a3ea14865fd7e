//! Heap allocations of the greedy run loop, counted exactly.
//!
//! A counting global allocator keeps a per-thread tally, so the count
//! covers exactly what the calling thread allocates. Round-robin runs
//! without the regret meter never touch the worker pool, so every
//! allocation of `Engine::run` lands on the calling thread and the count
//! is deterministic: a lock that host noise cannot move. Debug builds run
//! oracles that allocate on every activation, so the lock is checked in
//! release builds only (`cargo test --release --test allocations`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gncg_core::{Game, Profile};
use gncg_dynamics::{DynamicsConfig, Engine, SpeculativePricing};
use gncg_suite::scenario::ScenarioSpec;

/// The system allocator, counting every allocation and reallocation the
/// current thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// tally touches only a const-initialized thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The 36 swap-heavy preset cells, run back to back on one engine as a
/// grid worker runs them: the allocations inside `Engine::run` (host
/// construction and the start profile excluded) stay at or below a tenth
/// of the 190,569 the run loop made when every activation enumerated its
/// moves into a fresh vector, allocated its scan tables per call, and
/// every commit cloned the whole profile into the cycle detector.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug oracles allocate on every activation; run with --release"
)]
fn swap_heavy_run_allocations_are_locked() {
    let mut engine = Engine::new();
    let (mut counted, mut activations, mut moves) = (0, 0, 0);
    for cell in ScenarioSpec::swap_heavy().expand() {
        let host = gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
            .expect("preset hosts are registered");
        let game = Game::new(host, cell.alpha);
        let cfg = DynamicsConfig {
            rule: cell.rule.rule(),
            scheduler: cell.scheduler.scheduler(cell.cell_seed),
            max_rounds: cell.max_rounds,
            ..DynamicsConfig::default()
        };
        engine
            .context_mut()
            .set_pricing(SpeculativePricing::FullSum);
        let start = Profile::star(game.n(), 0);
        let before = allocations();
        let run = engine.run(&game, start, &cfg);
        counted += allocations() - before;
        assert!(run.converged(), "cell {}", cell.index);
        // Round-robin: every round activates every agent.
        activations += run.rounds * game.n();
        moves += run.moves;
    }
    eprintln!("swap-heavy: {counted} allocations, {activations} activations, {moves} moves");
    assert_eq!(activations, 13_300);
    assert!(counted <= 19_057, "{counted} allocations");
}
