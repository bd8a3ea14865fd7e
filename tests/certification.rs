//! The cold GE/AE certifier against the masked scan it replaced, and the
//! work certification does on the swap-heavy and br-grid presets.
//!
//! `certify_agents_in` bounds every single-edge move off one all-pairs
//! table and prices exactly only the moves the bound cannot rule out; its
//! verdict must be the masked scan's (`best_greedy_move` /
//! `best_add_move`, one masked Dijkstra per move) on every profile, and
//! the number of exact Dijkstras it runs is deterministic, so it is
//! locked here as a count. NE certification runs one exact best response
//! per agent, and the number of subsets its branch-and-bound evaluates is
//! deterministic too, so it is locked the same way. The engine's
//! bound-first move scan reads the same kind of bound off its agents'
//! warm vectors: its result must be the masked scan's too, and the
//! speculation frames it opens are locked as a count.

use proptest::prelude::*;

use gncg_core::cost::{agent_cost_in, base_graph_from, candidate_cost, MoveBound};
use gncg_core::equilibrium::{certify_agents_in, MoveSpace};
use gncg_core::moves::StrategyTables;
use gncg_core::response::{
    best_add_move, best_greedy_move, best_move_among_given_current,
    best_move_among_speculative_priced, candidate_edge_sum, exact_best_response_in, ScanPricing,
    ScanScratch,
};
use gncg_core::{Game, Move, NodeId, Profile};
use gncg_dynamics::{DynamicsConfig, ResponseRule};
use gncg_graph::apsp::apsp_parallel;
use gncg_graph::dijkstra::dijkstra;
use gncg_graph::{AdjacencyList, DynamicSssp};
use gncg_suite::scenario::{Runner, ScenarioSpec};

/// splitmix64, for the random owned-edge sets.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Three profiles on `game`: a star, a mid-dynamics profile (the greedy
/// or add dynamics from a star, cut after one or two rounds), and a
/// random owned-edge set, which is often disconnected.
fn profiles(game: &Game, seed: u64) -> Vec<Profile> {
    let n = game.n();
    let mut x = seed;
    let star = Profile::star(n, (mix(&mut x) % n as u64) as NodeId);
    let rule = if mix(&mut x).is_multiple_of(2) {
        ResponseRule::BestGreedyMove
    } else {
        ResponseRule::AddOnly
    };
    let cfg = DynamicsConfig {
        rule,
        max_rounds: 1 + (mix(&mut x) % 2) as usize,
        ..DynamicsConfig::default()
    };
    let mid = gncg_dynamics::run(game, star.clone(), &cfg).profile;
    let per_mille = 60 + mix(&mut x) % 300;
    let mut random = Profile::empty(n);
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if u != v && mix(&mut x) % 1000 < per_mille {
                random.buy(u, v);
            }
        }
    }
    vec![star, mid, random]
}

/// A random profile in which each agent owns between 0 and `n − 1`
/// targets, sizes drawn uniformly, so dense agents share co-owned edges.
fn ragged_profile(n: usize, x: &mut u64) -> Profile {
    let mut profile = Profile::empty(n);
    for u in 0..n as NodeId {
        let mut others: Vec<NodeId> = (0..n as NodeId).filter(|&v| v != u).collect();
        for k in (1..others.len()).rev() {
            others.swap(k, (mix(x) % (k as u64 + 1)) as usize);
        }
        let size = (mix(x) % n as u64) as usize;
        for &v in &others[..size] {
            profile.buy(u, v);
        }
    }
    profile
}

/// Every node's exact distance vector in `network`, from a fresh Dijkstra:
/// the rows the bound-first scan reads.
fn fresh_rows(network: &AdjacencyList) -> Vec<DynamicSssp> {
    (0..network.n() as NodeId)
        .map(|a| {
            let mut row = DynamicSssp::new();
            row.reset_from(a, &dijkstra(network, a));
            row
        })
        .collect()
}

/// The moves the scan's positions name, in position order.
fn positions(tables: &StrategyTables, space: MoveSpace) -> Vec<Move> {
    (0..tables.space_len(space))
        .map(|j| tables.move_at(space, j))
        .collect()
}

/// A chosen move with its cost's bits.
fn bits(best: Option<(Move, f64)>) -> Option<(Move, u64)> {
    best.map(|(m, c)| (m, c.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Per agent and per move space, the cold verdict is the masked
    /// scan's, on all nine factory hosts: exact ties (`unit`, `onetwo`),
    /// non-metric weights (`general`) and ∞ edges (`oneinf`) included.
    #[test]
    fn cold_verdicts_match_the_masked_scan(
        host in 0usize..9,
        n in 4usize..13,
        alpha in 0.3f64..8.0,
        seed in 0u64..1_000_000,
    ) {
        let key = gncg_metrics::factory::keys()[host];
        let game = Game::new(gncg_metrics::factory::build_host(key, n, seed).unwrap(), alpha);
        for profile in profiles(&game, seed) {
            let network = profile.build_network(&game);
            let apsp = apsp_parallel(&network);
            for u in 0..n as NodeId {
                let (ge, _) =
                    certify_agents_in(&game, &profile, &network, &apsp, &[u], MoveSpace::Greedy);
                prop_assert_eq!(ge, best_greedy_move(&game, &profile, u).is_none());
                let (ae, _) =
                    certify_agents_in(&game, &profile, &network, &apsp, &[u], MoveSpace::AddOnly);
                prop_assert_eq!(ae, best_add_move(&game, &profile, u).is_none());
            }
        }
    }

    /// Per agent and per move space, the bound-first scan fed every
    /// node's fresh row returns the masked scan's move and cost bits over
    /// `Move::greedy_moves` / `Move::add_moves`, and hands the scanned row
    /// back untouched, on all nine factory hosts. The random profiles are
    /// often disconnected, with current costs of `∞`.
    #[test]
    fn bounded_scan_matches_the_masked_scan(
        host in 0usize..9,
        n in 4usize..13,
        alpha in 0.3f64..8.0,
        seed in 0u64..1_000_000,
    ) {
        let key = gncg_metrics::factory::keys()[host];
        let game = Game::new(gncg_metrics::factory::build_host(key, n, seed).unwrap(), alpha);
        let mut scratch = ScanScratch::default();
        for profile in profiles(&game, seed) {
            let network = profile.build_network(&game);
            let rows = fresh_rows(&network);
            for u in 0..n as NodeId {
                let current = agent_cost_in(&game, &profile, &network, u).total();
                scratch.load(&game, &profile, &network, u);
                for space in [MoveSpace::Greedy, MoveSpace::AddOnly] {
                    let mut warm = rows[u as usize].clone();
                    let scan = best_move_among_speculative_priced(
                        &game,
                        &profile,
                        &network,
                        &mut warm,
                        u,
                        current,
                        space,
                        ScanPricing::FullSum(&rows),
                        &mut scratch,
                    );
                    let moves = space.moves(&profile, u);
                    let oracle =
                        best_move_among_given_current(&game, &profile, &network, u, current, &moves);
                    prop_assert_eq!(bits(scan), bits(oracle), "agent {} space {:?}", u, space);
                    let bitwise = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bitwise(warm.dist()), bitwise(rows[u as usize].dist()));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Per agent, the strategy tables an activation reads once serve the
    /// whole scan: every greedy move's edge term off the pair table, times
    /// `α`, is bitwise the masked scan's `candidate_cost` edge cost; the
    /// space's positions name `Move::greedy_moves` / `Move::add_moves` in
    /// order; and the neighbour and co-owner bitmaps answer the network and
    /// ownership probes. On all nine factory hosts (`oneinf`'s `∞` weights
    /// included), over ragged random profiles whose agents own 0 to `n − 1`
    /// targets, with co-owned edges, and the star, mid-dynamics and sparse
    /// random profiles.
    #[test]
    fn edge_terms_match_the_masked_scan(
        host in 0usize..9,
        n in 4usize..13,
        alpha in 0.3f64..8.0,
        seed in 0u64..1_000_000,
    ) {
        let key = gncg_metrics::factory::keys()[host];
        let game = Game::new(gncg_metrics::factory::build_host(key, n, seed).unwrap(), alpha);
        let mut x = seed;
        let mut tables = StrategyTables::default();
        let mut all = profiles(&game, seed);
        all.extend([ragged_profile(n, &mut x), ragged_profile(n, &mut x)]);
        for profile in all {
            let network = profile.build_network(&game);
            for u in 0..n as NodeId {
                tables.load(&game, &profile, &network, u);
                for v in 0..n as NodeId {
                    prop_assert_eq!(tables.has_edge(v), network.has_edge(u, v));
                    prop_assert_eq!(
                        tables.is_co_owned(v),
                        profile.owns(u, v) && profile.owns(v, u)
                    );
                }
                prop_assert_eq!(positions(&tables, MoveSpace::AddOnly), Move::add_moves(&profile, u));
                let moves = Move::greedy_moves(&profile, u);
                prop_assert_eq!(positions(&tables, MoveSpace::Greedy), moves.clone());
                let base = base_graph_from(&network, &profile, u);
                for m in &moves {
                    let edge = alpha * candidate_edge_sum(&game, u, tables.pairs(), m);
                    let candidate = m.apply(u, profile.strategy(u));
                    let masked = candidate_cost(&game, &base, u, &candidate).edge_cost;
                    prop_assert_eq!(edge.to_bits(), masked.to_bits(), "agent {} move {:?}", u, m);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `MoveBound::reach` and `MoveBound::sum` add in four lanes, so their
    /// bits differ from an index-order sum; over `n` non-negative terms
    /// either sum is within the `1 − 8nε` margin of the other both ways,
    /// and `∞` exactly where the other is. Lengths 1 to 40, magnitudes
    /// over 40 binades, with and without `∞` entries and weights.
    #[test]
    fn lane_sums_match_index_order_sums(
        len in 1usize..41,
        mantissas in proptest::collection::vec(0.0f64..1.0, 120),
        binades in proptest::collection::vec(0u32..40, 120),
        holes in proptest::collection::vec(0u32..16, 120),
        infs in 0u32..4,
        w in 0.0f64..8.0,
        w_inf in proptest::bool::weighted(0.1),
    ) {
        // Term `i` of vector `k`: a random magnitude, or `∞` in about
        // `infs` of every 16 entries.
        let vector = |k: usize| -> Vec<f64> {
            (k * 40..k * 40 + len)
                .map(|i| {
                    if holes[i] < infs {
                        f64::INFINITY
                    } else {
                        mantissas[i] * 2f64.powi(binades[i] as i32 - 20)
                    }
                })
                .collect()
        };
        let (first, row, terms) = (vector(0), vector(1), vector(2));
        let w = if w_inf { f64::INFINITY } else { w };
        let margin = 1.0 - 8.0 * len as f64 * f64::EPSILON;
        let within = |lanes: f64, ordered: f64| {
            lanes.is_infinite() == ordered.is_infinite()
                && (lanes.is_infinite() || (lanes * margin <= ordered && ordered * margin <= lanes))
        };
        let reach = MoveBound::reach(&first, w, &row);
        let ordered: f64 = first.iter().zip(&row).map(|(&x, &y)| x.min(w + y)).sum();
        prop_assert!(within(reach, ordered), "reach {} vs {} over {:?}, {}, {:?}", reach, ordered, first, w, row);
        let sum = MoveBound::sum(&terms);
        let ordered: f64 = terms.iter().sum();
        prop_assert!(within(sum, ordered), "sum {} vs {} over {:?}", sum, ordered, terms);
    }
}

/// The scan's positions name the canonical move lists in both spaces, for
/// every agent of a star (its centre owns every other node, so it has no
/// swaps; its leaves own none), of the complete network bought by both
/// endpoints of every edge (all of it co-owned), and of two ragged random
/// profiles.
#[test]
fn walk_positions_name_the_canonical_moves() {
    let n = 7;
    let game = Game::new(
        gncg_metrics::factory::build_host("unit", n, 0).unwrap(),
        1.0,
    );
    let mut both = Profile::empty(n);
    for u in 0..n as NodeId {
        for v in (0..n as NodeId).filter(|&v| v != u) {
            both.buy(u, v);
        }
    }
    let mut x = 23;
    let all = [
        Profile::star(n, 2),
        both,
        ragged_profile(n, &mut x),
        ragged_profile(n, &mut x),
    ];
    let mut tables = StrategyTables::default();
    let (mut owns_all, mut owns_none) = (false, false);
    for profile in &all {
        let network = profile.build_network(&game);
        for u in 0..n as NodeId {
            tables.load(&game, profile, &network, u);
            owns_all |= profile.strategy(u).len() == n - 1;
            owns_none |= profile.strategy(u).is_empty();
            for space in [MoveSpace::Greedy, MoveSpace::AddOnly] {
                assert_eq!(
                    positions(&tables, space),
                    space.moves(profile, u),
                    "agent {u} space {space:?}"
                );
            }
        }
    }
    assert!(owns_all && owns_none);
}

/// Certifying the swap-heavy preset's 36 final profiles (all converged
/// GE) takes a fixed number of exact Dijkstras: one per owned edge for
/// the deletes, plus the adds and swaps the bound cannot rule out. The
/// masked scan prices every one of the 29,424 moves; the cold certifier
/// must stay at or below a twentieth of that.
#[test]
fn swap_heavy_certification_work_is_locked() {
    let mut runner = Runner::new();
    let (mut dijkstras, mut masked) = (0, 0);
    for cell in ScenarioSpec::swap_heavy().expand() {
        let (_, game, run) = runner.run_cell_full(&cell);
        let network = run.profile.build_network(&game);
        let apsp = apsp_parallel(&network);
        let agents: Vec<NodeId> = (0..game.n() as NodeId).collect();
        let (stable, count) = certify_agents_in(
            &game,
            &run.profile,
            &network,
            &apsp,
            &agents,
            MoveSpace::Greedy,
        );
        assert!(stable && run.converged(), "cell {}", cell.index);
        dijkstras += count;
        masked += agents
            .iter()
            .map(|&u| Move::greedy_moves(&run.profile, u).len() as u64)
            .sum::<u64>();
    }
    assert_eq!(masked, 29_424);
    assert_eq!(dijkstras, 1_048);
    assert!(20 * dijkstras <= masked);
}

/// Scanning every agent of the swap-heavy preset's 36 final profiles (all
/// converged GE) with the engine's bound-first move scan, each node's row
/// from a fresh Dijkstra, finds no improving move and opens a fixed
/// number of speculation frames: one per exact pricing and per removal
/// repair that the rows fail to rule out. The scan that bounded swaps
/// only off their `Add` twins opened 13,989 frames on these profiles; the
/// bound-first scan must open at most a tenth of that.
#[test]
fn swap_heavy_scan_work_is_locked() {
    let mut runner = Runner::new();
    let mut warm = DynamicSssp::new();
    let mut scratch = ScanScratch::default();
    for cell in ScenarioSpec::swap_heavy().expand() {
        let (_, game, run) = runner.run_cell_full(&cell);
        let network = run.profile.build_network(&game);
        let rows = fresh_rows(&network);
        for u in 0..game.n() as NodeId {
            warm.reset_from(u, rows[u as usize].dist());
            let current = agent_cost_in(&game, &run.profile, &network, u).total();
            scratch.load(&game, &run.profile, &network, u);
            let best = best_move_among_speculative_priced(
                &game,
                &run.profile,
                &network,
                &mut warm,
                u,
                current,
                MoveSpace::Greedy,
                ScanPricing::FullSum(&rows),
                &mut scratch,
            );
            assert_eq!(best, None, "cell {} agent {u}", cell.index);
        }
    }
    assert_eq!(warm.frames_opened(), 194);
    assert!(10 * warm.frames_opened() <= 13_989);
}

/// Certifying the br-grid preset's 36 final profiles (all converged NE)
/// with one exact best response per agent evaluates a fixed number of
/// candidate subsets. It counts what the branch-and-bound's pruning bound
/// and its candidate cut fail to rule out, so it must stay at or below a
/// fifth of 67,226: the count when the bound charged no next edge and let
/// new-edge paths detour back through the agent. It was 8,933 before the
/// cut, which drops the candidates whose one edge already prices every
/// subset holding it out (`response` module docs, "The cut").
#[test]
fn br_certification_work_is_locked() {
    let mut runner = Runner::new();
    let mut evaluated = 0;
    for cell in ScenarioSpec::br_grid().expand() {
        let (_, game, run) = runner.run_cell_full(&cell);
        assert!(run.converged(), "cell {}", cell.index);
        let network = run.profile.build_network(&game);
        for u in 0..game.n() as NodeId {
            let br = exact_best_response_in(&game, &run.profile, &network, u);
            assert!(!br.improves(), "cell {} agent {u}", cell.index);
            evaluated += br.evaluated;
        }
    }
    assert_eq!(evaluated, 6_438);
    assert!(5 * evaluated <= 67_226);
}
