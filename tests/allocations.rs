//! Heap allocations of the run loop and of exact best responses, counted
//! exactly.
//!
//! A counting global allocator keeps a per-thread tally, so the count
//! covers exactly what the calling thread allocates. Round-robin runs
//! without the regret meter never touch the worker pool, so every
//! allocation of `Engine::run` lands on the calling thread and the count
//! is deterministic: a lock that host noise cannot move. The same holds
//! for best responses called one agent at a time, and for metered runs
//! inside `rayon::with_sequential`, which keeps the meter's pool scans on
//! the calling thread. Fresh searches and pool scans work in buffers
//! their thread keeps, so each count includes the first call's growth of
//! them once. Debug builds run
//! oracles that allocate on every activation, so the locks are checked in
//! release builds only (`cargo test --release --test allocations`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gncg_core::response::exact_best_response_in;
use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::{DynamicsConfig, Engine, SpeculativePricing};
use gncg_suite::scenario::{self, ScenarioSpec};

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
/// construction and the start profile excluded). The run loop made
/// 190,569 when every activation enumerated its moves into a fresh
/// vector, allocated its scan tables per call, and every commit cloned
/// the whole profile into the cycle detector; the lock was set at a tenth
/// of that, 19,057, over 13,095. Reusing the round's activation order
/// and taking each mover's old strategy out of the profile instead of
/// cloning it saved 2,659 more (10,436), and moving each committed change
/// out of the pricing memo instead of cloning it 2,483 more (7,950): a
/// strategy of more than eleven targets clones into several B-tree
/// nodes. Running the shortest-path loops of graphs of at most 64 nodes
/// on a one-word frontier, so that no warm vector grows a binary heap or
/// the bucket ring's per-slot buckets, saved 3,927 more (4,023).
/// Refilling the cached network's neighbour lists at each cell start
/// instead of building a new network saved 999 more (3,023), and running
/// each warm vector's first Dijkstra in the vector itself, instead of in
/// a Dijkstra scratch and a distance buffer the context kept for it, 3
/// more (3,020). Each time the lock fell in proportion.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug oracles allocate on every activation; run with --release"
)]
fn swap_heavy_run_allocations_are_locked() {
    let (counted, activations, moves) = swap_heavy_run_loop(false);
    eprintln!("swap-heavy: {counted} allocations, {activations} activations, {moves} moves");
    assert_eq!(activations, 13_300);
    assert!(counted <= 4_394, "{counted} allocations");
}

/// The same 36 cells with the regret meter on, inside
/// `rayon::with_sequential`: the meter's pool scans then run on the
/// calling thread, so the count covers them and stays deterministic. It
/// was 90,554 when each scan built its scratch per priced agent and per
/// synced row (the pool cuts a scan of at most 128 agents into one chunk
/// per agent, and `for_each_init` built one scratch per chunk): a row
/// copy, scan tables and bound tables for every agent the meter priced,
/// a Dijkstra scratch for every row it computed. On one scratch per
/// thread it was 11,906, of which the unmetered run loop made 7,950, and
/// the lock was set below a seventh of the old count, at 12,936. With the
/// shortest-path loops of graphs of at most 64 nodes on a one-word
/// frontier (no heap, no ring buckets) it is 7,696, with the cached
/// network's neighbour lists refilled at each cell start 6,696, and with
/// each cold row's Dijkstra run in the row itself, with no Dijkstra
/// scratch or distance buffer beside it, 6,693; each time the lock fell
/// in proportion.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug oracles allocate on every activation; run with --release"
)]
fn swap_heavy_metered_allocations_are_locked() {
    let (counted, activations, moves) = rayon::with_sequential(|| swap_heavy_run_loop(true));
    eprintln!(
        "swap-heavy metered: {counted} allocations, {activations} activations, {moves} moves"
    );
    assert_eq!(activations, 13_300);
    assert!(counted <= 7_272, "{counted} allocations");
}

/// Runs the 36 swap-heavy preset cells back to back on one engine, as a
/// grid worker runs them, and returns the allocations inside
/// `Engine::run` (host construction and the start profile excluded),
/// the activations and the moves.
fn swap_heavy_run_loop(regret_meter: bool) -> (u64, usize, usize) {
    let mut engine = Engine::new();
    let (mut counted, mut activations, mut moves) = (0, 0, 0);
    for cell in ScenarioSpec::swap_heavy().expand() {
        let (game, cfg) = game_and_config(&cell, regret_meter);
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
    (counted, activations, moves)
}

/// A preset cell's game and run configuration, as a grid worker builds
/// them.
fn game_and_config(cell: &scenario::Cell, regret_meter: bool) -> (Game, DynamicsConfig) {
    let host = gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
        .expect("preset hosts are registered");
    let cfg = DynamicsConfig {
        rule: cell.rule.rule(),
        scheduler: cell.scheduler.scheduler(cell.cell_seed),
        max_rounds: cell.max_rounds,
        regret_meter,
        checkpoint_every: 0,
    };
    (Game::new(host, cell.alpha), cfg)
}

/// `Engine::recycle`, which a daemon worker calls between jobs, keeps
/// every allocation: a run after it allocates exactly as often as the
/// same run on an engine that was not recycled. The first swap-heavy
/// cell, run a third time, made 110 allocations after a `recycle` that
/// replaced the cached network with an empty one, freeing the neighbour
/// lists each run's reset refills in place, against 80 without it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug oracles allocate on every activation; run with --release"
)]
fn recycle_keeps_the_run_loops_allocations() {
    let (game, cfg) = game_and_config(&ScenarioSpec::swap_heavy().expand()[0], false);
    let mut engine = Engine::new();
    let counted_run = |engine: &mut Engine| {
        let start = Profile::star(game.n(), 0);
        let before = allocations();
        let run = engine.run(&game, start, &cfg);
        let counted = allocations() - before;
        assert!(run.converged());
        counted
    };
    // The first run grows the engine's scratch and this thread's buffers.
    counted_run(&mut engine);
    let plain = counted_run(&mut engine);
    engine.recycle();
    let recycled = counted_run(&mut engine);
    eprintln!("recycle: {recycled} allocations after it, {plain} without it");
    assert_eq!(recycled, plain);
}

/// The 36 br-grid preset cells on one engine. Two counts: the allocations
/// inside `Engine::run`, and those of one `exact_best_response_in` per
/// agent of each final profile (certification's per-agent search, here
/// on the calling thread). They were 39,118 and 35,317 when each search
/// folded its bound table from one Dijkstra per candidate on a copy of
/// `G − u`, and the run loop allocated its activation order every round
/// and cloned each mover's old strategy. The run loop's lock was set at
/// nineteen twentieths of its count, 37,162, over 36,901; refilling each
/// bound-table rebuild's base graph, `Ĝ` and CSR in place, and each dirty
/// CSR's re-snapshot, saved 25,646 of those, and moving each committed
/// change out of the pricing memo 501 more (10,754), and the lock fell in
/// proportion. The searches were locked at three quarters of theirs,
/// 26,487, over 21,453. Fresh searches now refill one set of buffers per
/// thread instead of allocating about 46 times each, and a search keeps
/// its incumbent in a reused vector instead of collecting a set at every
/// improvement: the searches fell to 1,088 and the run loop, whose cached
/// searches share the incumbent, to 9,109. Running the shortest-path
/// loops of graphs of at most 64 nodes on a one-word frontier, so that no
/// vector or scratch grows a binary heap or ring buckets, took the run
/// loop to 5,000 and the searches to 874. Pricing every exact-rule
/// activation with the fresh search instead of per-agent bound tables
/// kept across commits took the run loop to 2,687: no agent's tables
/// are allocated or regrown, and the search's per-thread buffers grow
/// once. The searches fell to 789, since the run loop has already grown
/// those buffers on this thread. Running each search straight off the
/// network, with no base graph or CSR to grow per thread, more than paid
/// for the game's lazily built candidate order and host closure (one
/// allocation each per cell, made by the first search): the run loop fell
/// to 2,676 and the searches stayed at 789. Deriving each search's current
/// cost off its base distances instead of a Dijkstra took the searches to
/// 317, and the run loop, whose activations then sync no warm vector, to
/// 2,579; refilling the cached network's neighbour lists at each cell
/// start took the run loop to 1,926. Each time both locks fell in
/// proportion. Running every fresh Dijkstra as a `DynamicSssp` grown from
/// its source left both counts where they were.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug oracles allocate on every activation; run with --release"
)]
fn br_grid_allocations_are_locked() {
    let mut engine = Engine::new();
    let (mut run_loop, mut searches, mut agents) = (0, 0, 0);
    for cell in ScenarioSpec::br_grid().expand() {
        let (game, cfg) = game_and_config(&cell, false);
        engine
            .context_mut()
            .set_pricing(SpeculativePricing::FullSum);
        let start = Profile::star(game.n(), 0);
        let before = allocations();
        let run = engine.run(&game, start, &cfg);
        run_loop += allocations() - before;
        assert!(run.converged(), "cell {}", cell.index);
        let network = run.profile.build_network(&game);
        let before = allocations();
        for u in 0..game.n() as NodeId {
            let br = exact_best_response_in(&game, &run.profile, &network, u);
            assert!(!br.improves(), "cell {} agent {u}", cell.index);
        }
        searches += allocations() - before;
        agents += game.n();
    }
    eprintln!("br-grid: run loop {run_loop} allocations, {agents} agents searched with {searches}");
    assert_eq!(agents, 468);
    assert!(run_loop <= 1_938, "run loop: {run_loop} allocations");
    assert!(searches <= 391, "searches: {searches} allocations");
}
