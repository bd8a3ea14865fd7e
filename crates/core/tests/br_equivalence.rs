//! Equivalence properties of the incremental best-response engine.
//!
//! The incremental branch-and-bound (`exact_best_response`) must return
//! costs *identical* to the historical from-scratch engine
//! (`exact_best_response_reference`) on arbitrary metric hosts and on
//! every factory host across α regimes — both engines take exact minima
//! over the same candidate space with admissible pruning, so any
//! divergence is a soundness bug, not noise. The reference prices every
//! leaf with its own Dijkstra and prunes only with the host-closure
//! bound, so it shares no pruning code with the engine it checks.
//! Likewise, `DijkstraScratch` reuse must be observationally identical to
//! fresh-allocation Dijkstra across arbitrarily many calls.

use proptest::prelude::*;

use std::collections::BTreeSet;

use gncg_core::cost::{agent_cost_in, base_graph_from, candidate_cost};
use gncg_core::response::{
    bound_table, bound_table_reference, candidates_kept, exact_best_response,
    exact_best_response_given_current, exact_best_response_in, exact_best_response_reference,
    BestResponse,
};
use gncg_core::{strictly_less, Game, Profile};
use gncg_graph::dijkstra::{dijkstra, dijkstra_reference};
use gncg_graph::{AdjacencyList, Csr, DijkstraScratch, NodeId};

/// A random metric host of size `n` plus an α from the regime list
/// (buy-everything, balanced, tree-like, buy-nothing).
fn game(n: usize) -> impl Strategy<Value = Game> {
    ((0u64..1 << 16), 0usize..4).prop_map(move |(seed, regime)| {
        let alpha = [0.05, 0.8, 2.5, 40.0][regime];
        Game::new(
            gncg_metrics::arbitrary::random_metric(n, 1.0, 4.0, seed),
            alpha,
        )
    })
}

/// splitmix64, for the random extra purchases.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A star on `n` agents (or, when `star` is false, the empty profile)
/// plus random extra purchases at a density of 6–36 %. Empty-based
/// profiles often leave agents disconnected, at cost ∞.
fn with_extras(n: usize, star: bool, seed: u64) -> Profile {
    let mut x = seed;
    let mut p = if star {
        Profile::star(n, (mix(&mut x) % n as u64) as NodeId)
    } else {
        Profile::empty(n)
    };
    let per_mille = 60 + mix(&mut x) % 300;
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if u != v && mix(&mut x) % 1000 < per_mille && !p.has_edge(u, v) {
                p.buy(u, v);
            }
        }
    }
    p
}

/// Has the other endpoint of about a third of `p`'s purchases buy the
/// same edge, so those edges are co-owned: dropping either purchase
/// leaves the edge in the network.
fn co_own(p: &mut Profile, seed: u64) {
    let mut x = seed ^ 0xC0_0E;
    let n = p.n() as NodeId;
    for u in 0..n {
        for v in 0..n {
            if p.owns(u, v) && !p.owns(v, u) && mix(&mut x).is_multiple_of(3) {
                p.buy(v, u);
            }
        }
    }
}

/// A connected-ish random profile: a star with extra purchases.
fn profile(n: usize) -> impl Strategy<Value = Profile> {
    (
        (0u32..n as u32),
        proptest::collection::vec(proptest::bool::weighted(0.2), n * n),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Incremental and from-scratch branch-and-bound agree on the optimal
    /// cost bit for bit, and the incremental strategy achieves it.
    #[test]
    fn incremental_br_matches_reference(g in game(7), p in profile(7), agent in 0u32..7) {
        let inc = exact_best_response(&g, &p, agent);
        let refr = exact_best_response_reference(&g, &p, agent);
        prop_assert_eq!(inc.cost, refr.cost, "α = {}", g.alpha());
        prop_assert_eq!(inc.current_cost, refr.current_cost);
        // The reported strategy really prices at the reported cost.
        let mut p2 = p.clone();
        p2.set_strategy(agent, inc.strategy.clone());
        let real = gncg_core::cost::agent_cost(&g, &p2, agent).total();
        prop_assert!(gncg_graph::approx_eq(real, inc.cost));
    }

    /// A reused `DijkstraScratch` (generation-stamped arrays, drained
    /// heap) returns exactly what fresh-allocation Dijkstra returns, on
    /// every source of a stream of random graphs, in both adjacency and
    /// CSR representations.
    #[test]
    fn scratch_reuse_matches_fresh_dijkstra(
        seeds in proptest::collection::vec(0u64..1 << 16, 3),
        extra_w in 0.1f64..5.0,
    ) {
        let mut scratch = DijkstraScratch::new();
        for &seed in &seeds {
            let n = 6 + (seed % 5) as usize;
            let host = gncg_metrics::arbitrary::random_metric(n, 1.0, 4.0, seed);
            // A sparse subgraph: ring plus a chord.
            let mut g = AdjacencyList::new(n);
            for i in 0..n as NodeId {
                let j = (i + 1) % n as NodeId;
                g.add_edge(i, j, host.get(i, j));
            }
            g.add_edge(0, (n / 2) as NodeId, extra_w);
            let csr = Csr::from_adjacency(&g);
            for s in 0..n as NodeId {
                // dijkstra_reference is the independent per-call-allocation
                // oracle; dijkstra() itself runs on the scratch core.
                let fresh = dijkstra_reference(&g, s);
                prop_assert_eq!(&dijkstra(&g, s), &fresh);
                scratch.run(&g, s, &[]);
                prop_assert_eq!(&scratch.to_vec(n), &fresh);
                scratch.run(&csr, s, &[]);
                prop_assert_eq!(&scratch.to_vec(n), &fresh);
                prop_assert_eq!(scratch.sum_distances(n), fresh.iter().sum::<f64>());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On all nine factory hosts — exact ties (`unit`, `onetwo`), ∞ edges
    /// (`oneinf`) and non-metric weights (`general`) included — every
    /// agent's best response prices at the reference's cost bits, and the
    /// two agree on whether it improves, for α from 0.05 to 40.
    #[test]
    fn br_matches_reference_on_factory_hosts(
        host in 0usize..9,
        n in 7usize..10,
        ln_alpha in 0.05f64.ln()..40f64.ln(),
        star in proptest::bool::ANY,
        seed in 0u64..1 << 32,
    ) {
        let key = gncg_metrics::factory::keys()[host];
        let g = Game::new(
            gncg_metrics::factory::build_host(key, n, seed).expect("registry key"),
            ln_alpha.exp(),
        );
        let p = with_extras(n, star, seed);
        for agent in 0..n as NodeId {
            let bnb = exact_best_response(&g, &p, agent);
            let refr = exact_best_response_reference(&g, &p, agent);
            prop_assert_eq!(
                bnb.cost.to_bits(),
                refr.cost.to_bits(),
                "{} α = {} agent {}: {} vs {}",
                key,
                g.alpha(),
                agent,
                bnb.cost,
                refr.cost
            );
            prop_assert_eq!(bnb.improves(), refr.improves());
        }
    }

    /// The candidate cut (`response` module docs, "The cut") on all nine
    /// factory hosts — exact ties (`unit`, `onetwo`), ∞ edges (`oneinf`)
    /// and non-metric weights (`general`) included — and on empty-based
    /// profiles, whose agents are often disconnected (`current = ∞`). No
    /// subset that holds a candidate past the cut prices below
    /// `current − EPS`: every such subset is priced by its own Dijkstra. A
    /// disconnected agent loses only its `∞`-weight candidates, since
    /// every factory host connects it. And the cut search returns the
    /// reference's cost bits. Debug builds also re-run each cut search
    /// over every candidate and assert the same strategy, the same cost
    /// bits and no more subsets evaluated.
    #[test]
    fn the_cut_drops_no_improving_subset_on_factory_hosts(
        host in 0usize..9,
        n in 6usize..9,
        ln_alpha in 0.05f64.ln()..40f64.ln(),
        star in proptest::bool::ANY,
        seed in 0u64..1 << 32,
    ) {
        let key = gncg_metrics::factory::keys()[host];
        let g = Game::new(
            gncg_metrics::factory::build_host(key, n, seed).expect("registry key"),
            ln_alpha.exp(),
        );
        let p = with_extras(n, star, seed);
        let network = p.build_network(&g);
        for agent in 0..n as NodeId {
            let current = agent_cost_in(&g, &p, &network, agent).total();
            let order = g.by_weight(agent);
            let kept = candidates_kept(&g, agent, current);
            if current.is_infinite() {
                prop_assert!(
                    order[kept..].iter().all(|&(_, w)| w.is_infinite()),
                    "{} agent {}: kept {} of {:?}", key, agent, kept, order
                );
            }
            let base = base_graph_from(&network, &p, agent);
            // Bit `i` of a mask picks `order[i]`; the masks with a bit at
            // or past `kept` are the subsets the search never visits.
            for mask in (1u32 << kept)..1 << order.len() {
                let set: BTreeSet<NodeId> = order
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &(v, _))| v)
                    .collect();
                let cost = candidate_cost(&g, &base, agent, &set).total();
                prop_assert!(
                    !strictly_less(cost, current),
                    "{} α = {} agent {}: {:?} prices at {} under {} with {} of {} kept",
                    key, g.alpha(), agent, set, cost, current, kept, order.len()
                );
            }
            let br = exact_best_response_given_current(&g, &p, &network, agent, current);
            let refr = exact_best_response_reference(&g, &p, agent);
            prop_assert_eq!(br.cost.to_bits(), refr.cost.to_bits());
        }
    }

    /// The current cost each search derives off its base distances
    /// (`response` module docs, "The current cost") is bit for bit
    /// `agent_cost_in`'s total, on all nine factory hosts, with about a
    /// third of the edges co-owned, and on empty-based profiles, whose
    /// agents are often disconnected (`∞`). The search also returns the
    /// reference's cost bits. Debug builds assert the same equality on
    /// every search.
    #[test]
    fn derived_current_cost_matches_agent_cost_in_on_factory_hosts(
        host in 0usize..9,
        n in 5usize..10,
        ln_alpha in 0.05f64.ln()..40f64.ln(),
        star in proptest::bool::ANY,
        seed in 0u64..1 << 32,
    ) {
        let key = gncg_metrics::factory::keys()[host];
        let g = Game::new(
            gncg_metrics::factory::build_host(key, n, seed).expect("registry key"),
            ln_alpha.exp(),
        );
        let mut p = with_extras(n, star, seed);
        co_own(&mut p, seed);
        let network = p.build_network(&g);
        for agent in 0..n as NodeId {
            let br = exact_best_response_in(&g, &p, &network, agent);
            let want = agent_cost_in(&g, &p, &network, agent).total();
            prop_assert_eq!(
                br.current_cost.to_bits(),
                want.to_bits(),
                "{} α = {} agent {} of {:?}: derived {}, agent_cost_in {}",
                key, g.alpha(), agent, p, br.current_cost, want
            );
            let refr = exact_best_response_reference(&g, &p, agent);
            prop_assert_eq!(br.cost.to_bits(), refr.cost.to_bits());
        }
    }

    /// On all nine factory hosts, empty-based (often disconnected)
    /// profiles included, each agent's bound table as the search grows
    /// it has row `i` bitwise the Dijkstra vector from the agent in
    /// `G − u` plus the star of the candidates from `i` on, and matches
    /// the per-candidate fold it replaced: 0 on the agent's own column
    /// where the fold reads ∞, elsewhere within the `1 − 8nε` margin both
    /// ways and ∞ exactly where the fold is.
    #[test]
    fn bound_table_matches_the_fold_on_factory_hosts(
        host in 0usize..9,
        n in 5usize..10,
        ln_alpha in 0.05f64.ln()..40f64.ln(),
        star in proptest::bool::ANY,
        seed in 0u64..1 << 32,
    ) {
        let key = gncg_metrics::factory::keys()[host];
        let g = Game::new(
            gncg_metrics::factory::build_host(key, n, seed).expect("registry key"),
            ln_alpha.exp(),
        );
        let p = with_extras(n, star, seed);
        let network = p.build_network(&g);
        let margin = 1.0 - 8.0 * n as f64 * f64::EPSILON;
        for agent in 0..n as NodeId {
            let base = base_graph_from(&network, &p, agent);
            let grown = bound_table(&g, &base, agent);
            let fold = bound_table_reference(&g, &base, agent);
            prop_assert_eq!(grown.len(), (n - 1) * n);
            prop_assert_eq!(fold.len(), grown.len());
            let mut candidates: Vec<NodeId> = (0..n as NodeId).filter(|&v| v != agent).collect();
            candidates.sort_by(|&a, &b| g.w(agent, a).total_cmp(&g.w(agent, b)));
            let mut g_minus_u = base.clone();
            for &(v, _) in base.neighbors(agent) {
                g_minus_u.remove_edge(agent, v);
            }
            for (i, (row, folded)) in grown.chunks(n).zip(fold.chunks(n)).enumerate() {
                let mut with_star = g_minus_u.clone();
                for &c in &candidates[i..] {
                    with_star.add_edge(agent, c, g.w(agent, c));
                }
                let exact = dijkstra(&with_star, agent);
                for x in 0..n {
                    let (gr, f) = (row[x], folded[x]);
                    prop_assert_eq!(
                        gr.to_bits(),
                        exact[x].to_bits(),
                        "{} agent {} row {} node {}: grew {}, Dijkstra {}",
                        key, agent, i, x, gr, exact[x]
                    );
                    if x == agent as usize {
                        prop_assert_eq!(gr, 0.0);
                        prop_assert!(f.is_infinite());
                        continue;
                    }
                    prop_assert!(
                        gr.is_infinite() == f.is_infinite() && gr * margin <= f && f * margin <= gr,
                        "{} agent {} row {} node {}: grew {}, folded {}",
                        key, agent, i, x, gr, f
                    );
                }
            }
        }
    }
}

/// A thread's fresh searches refill buffers it keeps, grown by the
/// largest search so far. On one thread, games of alternating sizes
/// (n 9, 5, 12, 7) and hosts (`oneinf`'s ∞ weights and `unit`'s ties
/// among them) are searched agent by agent, in changing agent orders:
/// each result — strategy, cost bits and evaluated subsets — must equal
/// the same search made on a fresh thread, whose buffers start empty. A
/// `via` row, a weight-array entry or an edge at an earlier agent left
/// over from a larger earlier search would show here.
#[test]
fn per_thread_search_buffers_match_fresh_threads() {
    let bits = |br: &BestResponse| {
        (
            br.strategy.clone(),
            br.cost.to_bits(),
            br.current_cost.to_bits(),
            br.evaluated,
        )
    };
    let cases = [
        ("r2", 9, 1.5),
        ("oneinf", 5, 0.4),
        ("unit", 12, 2.5),
        ("metric", 7, 0.8),
        ("oneinf", 12, 1.2),
        ("unit", 5, 0.3),
        ("clusters", 9, 4.0),
        ("general", 7, 1.0),
    ];
    for (round, &(key, n, alpha)) in cases.iter().enumerate() {
        let seed = 31 + round as u64;
        let g = Game::new(
            gncg_metrics::factory::build_host(key, n, seed).expect("registry key"),
            alpha,
        );
        let p = with_extras(n, round % 3 != 2, seed);
        let network = p.build_network(&g);
        // Forward, backward, then odd agents before even ones.
        let mut agents: Vec<NodeId> = (0..n as NodeId).collect();
        match round % 3 {
            0 => {}
            1 => agents.reverse(),
            _ => agents.sort_by_key(|&u| (u % 2 == 0, u)),
        }
        for agent in agents {
            let current = agent_cost_in(&g, &p, &network, agent).total();
            let here = exact_best_response_given_current(&g, &p, &network, agent, current);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| exact_best_response_given_current(&g, &p, &network, agent, current))
                    .join()
                    .expect("the fresh thread's search")
            });
            assert_eq!(
                bits(&here),
                bits(&fresh),
                "{key} n {n} agent {agent}: reused buffers diverged from a fresh thread's"
            );
        }
    }
}
