//! Property-based tests (proptest) on the core data structures and
//! invariants of the reproduction.

use proptest::prelude::*;

use gncg_core::{Game, Profile};
use gncg_graph::{AdjacencyList, SymMatrix};

/// Strategy for a random metric host of size `n` (metric by closure
/// repair).
fn metric_host(n: usize) -> impl Strategy<Value = SymMatrix> {
    proptest::collection::vec(0.1f64..10.0, n * (n - 1) / 2).prop_map(move |ws| {
        let mut it = ws.into_iter();
        let raw = SymMatrix::from_fn(n, |_, _| it.next().unwrap());
        gncg_graph::apsp::floyd_warshall(&raw).into_sym_matrix()
    })
}

/// Random profile on `n` agents: each ordered pair bought with small
/// probability, plus a spanning star for connectivity.
fn profile(n: usize) -> impl Strategy<Value = Profile> {
    proptest::collection::vec(proptest::bool::weighted(0.15), n * n).prop_map(move |bits| {
        let mut p = Profile::star(n, 0);
        for u in 0..n {
            for v in 0..n {
                if u != v && bits[u * n + v] && !p.owns(u as u32, v as u32) {
                    p.buy(u as u32, v as u32);
                }
            }
        }
        p
    })
}

/// One past the 64 nodes a one-word SSSP frontier serves: a graph padded
/// with isolated nodes to this size runs every shortest-path loop on the
/// binary heap.
const PAST_THE_WORD: usize = 65;

/// The undo log of `t`, entry for entry, as its `Debug` form prints it:
/// the log has no accessor of its own, and `f64`'s `Debug` form round-trips,
/// so equal strings mean equal bits.
fn undo_log(t: &gncg_graph::DynamicSssp) -> String {
    let form = format!("{t:?}");
    let start = form
        .find("undo: [")
        .expect("DynamicSssp's Debug form prints its undo log");
    let len = form[start..]
        .find(']')
        .expect("the undo log's closing bracket");
    form[start..=start + len].to_owned()
}

/// Asserts that `word`, a vector over a graph of at most 64 nodes, and
/// `heap`, the same vector over that graph padded past 64, agree: the same
/// distance bits (the padding unreached), the same undo log entry for
/// entry, and the same `delta_sum_since` bits at every mark from `mark`
/// up.
fn assert_same_entries(
    word: &mut gncg_graph::DynamicSssp,
    heap: &mut gncg_graph::DynamicSssp,
    mark: usize,
    what: &str,
) {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let n = word.dist().len();
    assert_eq!(
        bits(word.dist()),
        bits(&heap.dist()[..n]),
        "{what}: distances"
    );
    assert!(
        heap.dist()[n..].iter().all(|d| d.is_infinite()),
        "{what}: an isolated node was reached"
    );
    assert_eq!(undo_log(word), undo_log(heap), "{what}: undo log");
    for m in mark..=word.undo_len() {
        assert_eq!(
            word.delta_sum_since(m).to_bits(),
            heap.delta_sum_since(m).to_bits(),
            "{what}: delta_sum_since({m})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The metric closure repair always satisfies the triangle inequality
    /// and only shrinks weights.
    #[test]
    fn closure_repair_is_metric(host in metric_host(6)) {
        prop_assert!(host.satisfies_triangle_inequality());
        prop_assert!(host.is_nonnegative());
    }

    /// Dijkstra and Floyd–Warshall agree on the complete host graph.
    #[test]
    fn dijkstra_matches_floyd_warshall(host in metric_host(6)) {
        let g = AdjacencyList::complete_from_matrix(&host);
        let dj = gncg_graph::apsp::apsp_sequential(&g);
        let fw = gncg_graph::apsp::floyd_warshall(&host);
        for u in 0..6u32 {
            for v in 0..6u32 {
                prop_assert!(gncg_graph::approx_eq(dj.get(u, v), fw.get(u, v)));
            }
        }
    }

    /// Social cost equals the sum of agent costs, for arbitrary profiles.
    #[test]
    fn social_cost_is_sum_of_agent_costs(host in metric_host(6), p in profile(6)) {
        let game = Game::new(host, 1.3);
        let total = gncg_core::cost::social_cost(&game, &p);
        let summed: f64 = (0..6u32)
            .map(|u| gncg_core::cost::agent_cost(&game, &p, u).total())
            .sum();
        prop_assert!(gncg_graph::approx_eq(total, summed));
    }

    /// Distances in any built network dominate host-closure distances
    /// (the bound the best-response pruning relies on).
    #[test]
    fn built_distances_dominate_host(host in metric_host(6), p in profile(6)) {
        let game = Game::new(host, 1.0);
        let net = p.build_network(&game);
        let d = gncg_graph::apsp::apsp_sequential(&net);
        for u in 0..6u32 {
            for v in 0..6u32 {
                prop_assert!(d.get(u, v) + 1e-9 >= game.host_distances().get(u, v));
            }
        }
    }

    /// Exact best response never exceeds the cost of any single greedy
    /// move, and never exceeds the current cost.
    #[test]
    fn exact_br_dominates_greedy(host in metric_host(5), p in profile(5), agent in 0u32..5) {
        let game = Game::new(host, 1.0);
        let br = gncg_core::response::exact_best_response(&game, &p, agent);
        prop_assert!(br.cost <= br.current_cost + 1e-9);
        if let Some((_, greedy)) = gncg_core::response::best_greedy_move(&game, &p, agent) {
            prop_assert!(br.cost <= greedy + 1e-9);
        }
    }

    /// Applying the best response really achieves the reported cost.
    #[test]
    fn br_cost_is_achievable(host in metric_host(5), p in profile(5), agent in 0u32..5) {
        let game = Game::new(host, 0.8);
        let br = gncg_core::response::exact_best_response(&game, &p, agent);
        let mut p2 = p.clone();
        p2.set_strategy(agent, br.strategy.clone());
        let real = gncg_core::cost::agent_cost(&game, &p2, agent).total();
        prop_assert!(gncg_graph::approx_eq(real, br.cost));
    }

    /// The exact social optimum is no costlier than MST, star, or complete
    /// networks.
    #[test]
    fn opt_dominates_reference_networks(host in metric_host(5)) {
        let game = Game::new(host, 2.0);
        let opt = gncg_solvers::opt_exact::social_optimum(&game);
        // Star.
        for c in 0..5u32 {
            let star = Profile::star(5, c);
            prop_assert!(opt.cost <= gncg_core::cost::social_cost(&game, &star) + 1e-9);
        }
        // Complete.
        let full = AdjacencyList::complete_from_matrix(game.host());
        prop_assert!(opt.cost <= gncg_core::cost::network_social_cost(&game, &full) + 1e-9);
        // MST.
        let mst = AdjacencyList::from_edges(5, &gncg_graph::mst::prim_complete(game.host()));
        prop_assert!(opt.cost <= gncg_core::cost::network_social_cost(&game, &mst) + 1e-9);
    }

    /// Lemma 2 as a property: the exact OPT is an (α/2+1)-spanner.
    #[test]
    fn opt_spanner_property(host in metric_host(5)) {
        for alpha in [0.5, 2.0] {
            let game = Game::new(host.clone(), alpha);
            let opt = gncg_solvers::opt_exact::social_optimum(&game);
            let network = opt.profile.build_network(&game);
            prop_assert!(gncg_core::spanner_props::satisfies_lemma2(&game, &network));
        }
    }

    /// Greedy k-spanners really are k-spanners, for varying k.
    #[test]
    fn greedy_spanner_property(host in metric_host(6), k in 1.0f64..3.0) {
        let sp = gncg_graph::spanner::greedy_k_spanner(&host, k);
        let hd = gncg_graph::spanner::host_distances(&host);
        prop_assert!(gncg_graph::spanner::is_k_spanner(&sp, &hd, k));
    }

    /// MST weight is invariant between Prim (dense) and Kruskal (sparse).
    #[test]
    fn mst_weight_invariant(host in metric_host(7)) {
        let prim = gncg_graph::mst::prim_complete(&host);
        let g = AdjacencyList::complete_from_matrix(&host);
        let kruskal = gncg_graph::mst::kruskal(&g);
        let wp: f64 = prim.iter().map(|e| e.2).sum();
        let wk: f64 = kruskal.iter().map(|e| e.2).sum();
        prop_assert!((wp - wk).abs() < 1e-9);
    }

    /// Algorithm 1 output always contains every 1-edge and has diameter
    /// ≤ 2, for arbitrary 1-2 hosts.
    #[test]
    fn algorithm1_properties(bits in proptest::collection::vec(proptest::bool::ANY, 15)) {
        let mut it = bits.into_iter();
        let host = SymMatrix::from_fn(6, |_, _| if it.next().unwrap() { 1.0 } else { 2.0 });
        let g = gncg_solvers::algorithm1::algorithm1(&host);
        for (u, v, w) in host.pairs() {
            if w == 1.0 {
                prop_assert!(g.has_edge(u, v));
            }
        }
        let d = gncg_graph::apsp::apsp_sequential(&g);
        prop_assert!(d.diameter() <= 2.0 + 1e-9);
    }

    /// The speculative move scan must agree with the masked-Dijkstra
    /// oracle over `Move::greedy_moves` / `Move::add_moves` **bitwise** —
    /// same chosen move, same priced total — at every activation of a
    /// random improving-move sequence over every factory host, in both
    /// move spaces, bounding its moves off every node's fresh row; and
    /// every scan must leave the warm vector bitwise untouched with both
    /// log depths at zero (the speculation-frame rollback contract).
    #[test]
    fn speculative_move_scan_matches_masked_oracle(
        agents in proptest::collection::vec(0u32..8, 10),
        seed in 0u64..500,
        greedy in proptest::bool::ANY,
    ) {
        use gncg_core::moves::MoveSpace;
        use gncg_core::response::{
            best_move_among_given_current, best_move_among_speculative_priced, ScanPricing,
            ScanScratch,
        };
        use gncg_graph::DynamicSssp;
        let n = 8usize;
        let alpha = [0.4, 1.5, 6.0][(seed % 3) as usize];
        let space = if greedy { MoveSpace::Greedy } else { MoveSpace::AddOnly };
        for key in gncg_metrics::factory::keys() {
            let host = gncg_metrics::factory::build_host(key, n, seed).unwrap();
            let game = Game::new(host, alpha);
            let mut p = Profile::star(n, 0);
            for &u in &agents {
                let network = p.build_network(&game);
                let current = gncg_core::cost::agent_cost_in(&game, &p, &network, u).total();
                let rows: Vec<DynamicSssp> = (0..n as u32)
                    .map(|a| {
                        let mut row = DynamicSssp::new();
                        row.reset_from(a, &gncg_graph::dijkstra::dijkstra(&network, a));
                        row
                    })
                    .collect();
                let mut warm = rows[u as usize].clone();
                let before = warm.dist().to_vec();
                let mut scratch = ScanScratch::default();
                scratch.load(&game, &p, &network, u);
                let spec = best_move_among_speculative_priced(
                    &game,
                    &p,
                    &network,
                    &mut warm,
                    u,
                    current,
                    space,
                    ScanPricing::FullSum(&rows),
                    &mut scratch,
                );
                let moves = space.moves(&p, u);
                let oracle = best_move_among_given_current(&game, &p, &network, u, current, &moves);
                prop_assert_eq!(&spec, &oracle, "host '{}' agent {} space {:?}", key, u, space);
                prop_assert!(
                    warm.dist() == before.as_slice(),
                    "host '{}' agent {}: rollback must restore the vector bitwise",
                    key,
                    u
                );
                prop_assert_eq!(
                    (warm.depth(), warm.speculation_depth()),
                    (0, 0),
                    "both log depths must return to zero"
                );
                // Walk the dynamics forward so later activations scan
                // evolving profiles (including removal-bearing ones under
                // the greedy rule).
                if let Some((m, _)) = spec {
                    let next = m.apply(u, p.strategy(u));
                    p.set_strategy(u, next);
                }
            }
        }
    }

    /// Random interleaved insert / remove / swap sequences over every
    /// registered factory host: a [`gncg_graph::DynamicSssp`] per source
    /// must equal a fresh Dijkstra **bitwise at every step** (the
    /// deletion-tolerant warm-update contract of the dynamics engine),
    /// and neither `relax_insert` nor `remove_edge` may touch the undo
    /// log.
    #[test]
    fn dynamic_sssp_tracks_fresh_dijkstra_under_interleaved_ops(
        ops in proptest::collection::vec(0u64..(1u64 << 62), 16),
        seed in 0u64..1_000,
    ) {
        use gncg_graph::DynamicSssp;
        let n = 8usize;
        for key in gncg_metrics::factory::keys() {
            let host = gncg_metrics::factory::build_host(key, n, seed).unwrap();
            // Start from the star every grid cell starts from, skipping
            // forbidden (∞-weight) host edges like the game layer does.
            let mut g = AdjacencyList::new(n);
            for v in 1..n as u32 {
                let w = host.get(0, v);
                if w.is_finite() {
                    g.add_edge(0, v, w);
                }
            }
            let mut trackers: Vec<DynamicSssp> = (0..n as u32)
                .map(|s| {
                    let mut t = DynamicSssp::new();
                    t.reset_from(s, &gncg_graph::dijkstra::dijkstra(&g, s));
                    t
                })
                .collect();
            for &op in &ops {
                let kind = op % 3; // 0 = insert, 1 = remove, 2 = swap
                if kind >= 1 {
                    // Removal leg (remove and swap). Disconnection is
                    // allowed: ∞ distances must round-trip too.
                    let edges: Vec<_> = g.edges().collect();
                    if !edges.is_empty() {
                        let (a, b, w) = edges[(op / 3) as usize % edges.len()];
                        g.remove_edge(a, b);
                        for t in &mut trackers {
                            t.remove_edge(&g, a, b, w);
                        }
                    }
                }
                if kind == 0 || kind == 2 {
                    // Insertion leg (insert and swap), staged after the
                    // removal exactly like EvalContext::apply_delta.
                    let mut candidates = Vec::new();
                    for u in 0..n as u32 {
                        for v in (u + 1)..n as u32 {
                            if !g.has_edge(u, v) && host.get(u, v).is_finite() {
                                candidates.push((u, v));
                            }
                        }
                    }
                    if !candidates.is_empty() {
                        let (u, v) = candidates[(op / 7) as usize % candidates.len()];
                        let w = host.get(u, v);
                        g.add_edge(u, v, w);
                        for t in &mut trackers {
                            t.relax_insert(&g, u, v, w);
                        }
                    }
                }
                for (s, t) in trackers.iter().enumerate() {
                    let fresh = gncg_graph::dijkstra::dijkstra(&g, s as u32);
                    prop_assert_eq!(
                        t.dist(),
                        fresh.as_slice(),
                        "host '{}' source {}",
                        key,
                        s
                    );
                    prop_assert_eq!(t.depth(), 0, "undo-log depth must stay 0");
                }
            }
        }
    }

    /// The one-word frontier against the heap, entry for entry. A graph
    /// of at most 64 nodes runs every shortest-path loop on a bitmask
    /// frontier; the same graph padded with isolated nodes past 64 runs
    /// them on the binary heap, and no isolated node ever enters a
    /// frontier. Over every factory host (`oneinf`'s ∞ edges in the
    /// graph, `unit`'s and `onetwo`'s exact ties, sparse graphs that fall
    /// apart), at a drawn size and at 63 and 64 nodes (node 63 is the
    /// word's top bit), each `DynamicSssp` operation must leave the two
    /// vectors with the same distance bits and the same undo log, entry
    /// for entry, `delta_sum_since` reading the same bits at every mark;
    /// and `dijkstra_masked`, a fresh run seeded with the source's edges
    /// and a virtual one at the source, must equal `dijkstra_reference`
    /// on the graph so changed, bitwise, on both graphs.
    #[test]
    fn word_frontier_matches_the_heap_entry_for_entry(
        ops in proptest::collection::vec(0u64..(1u64 << 62), 10),
        seed in 0u64..500,
        size in 1usize..65,
        cap in 1usize..6,
    ) {
        use gncg_graph::dijkstra::{dijkstra_masked, dijkstra_reference};
        use gncg_graph::{DynamicSssp, MaskedEdges};
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for n in [size, 63, 64] {
            for key in gncg_metrics::factory::keys() {
                let host = gncg_metrics::factory::build_host(key, n, seed).unwrap();
                // A sparse start graph, about 1.5 edges per node, so often
                // disconnected; host weights as they are, ∞ included.
                let mut state = seed ^ ((n as u64) << 32) ^ 0x9e37_79b9_7f4a_7c15;
                let mut draw = move || {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    state >> 33
                };
                let mut g = AdjacencyList::new(n);
                let mut gp = AdjacencyList::new(PAST_THE_WORD);
                for u in 0..n as u32 {
                    for v in (u + 1)..n as u32 {
                        if draw() % n as u64 <= 2 {
                            g.add_edge(u, v, host.get(u, v));
                            gp.add_edge(u, v, host.get(u, v));
                        }
                    }
                }
                let mut sources = vec![0, n as u32 / 2, n as u32 - 1];
                sources.dedup();
                let fresh = |g: &AdjacencyList, s: u32| {
                    let mut t = DynamicSssp::new();
                    t.reset_from(s, &dijkstra_reference(g, s));
                    t
                };
                let mut word: Vec<DynamicSssp> = sources.iter().map(|&s| fresh(&g, s)).collect();
                let mut heap: Vec<DynamicSssp> = sources.iter().map(|&s| fresh(&gp, s)).collect();
                for (i, &op) in ops.iter().enumerate() {
                    let r = (op / 6) as usize;
                    let missing: Vec<(u32, u32)> = (0..n as u32)
                        .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
                        .filter(|&(u, v)| !g.has_edge(u, v))
                        .collect();
                    let present: Vec<(u32, u32, f64)> = g.edges().collect();
                    // Up to `k` distinct picks out of `len`, from `r`.
                    let picks = |len: usize, k: usize| -> Vec<usize> {
                        (0..k.min(len)).map(|j| (r + j) % len).collect()
                    };
                    match op % 6 {
                        kind @ (0 | 1) => {
                            // Committed inserts: one edge through
                            // relax_insert, or a batch of up to three
                            // through relax_inserts.
                            let k = if kind == 0 { 1 } else { 1 + r % 3 };
                            let batch: Vec<(u32, u32, f64)> = picks(missing.len(), k)
                                .into_iter()
                                .map(|p| {
                                    let (u, v) = missing[p];
                                    (u, v, host.get(u, v))
                                })
                                .collect();
                            for &(u, v, w) in &batch {
                                g.add_edge(u, v, w);
                                gp.add_edge(u, v, w);
                            }
                            for (t, tp) in word.iter_mut().zip(heap.iter_mut()) {
                                match (kind, batch.first()) {
                                    (0, Some(&(u, v, w))) => {
                                        t.relax_insert(&g, u, v, w);
                                        tp.relax_insert(&gp, u, v, w);
                                    }
                                    _ => {
                                        t.relax_inserts(&g, &batch);
                                        tp.relax_inserts(&gp, &batch);
                                    }
                                }
                                assert_same_entries(t, tp, 0, &format!("{key} n={n} op {i}: insert"));
                            }
                        }
                        2 => {
                            // Two nested add_edge frames at the source,
                            // then both undone.
                            for (k, (t, tp)) in word.iter_mut().zip(heap.iter_mut()).enumerate() {
                                let s = sources[k];
                                let targets: Vec<u32> = (0..n as u32)
                                    .filter(|&v| v != s && !g.has_edge(s, v))
                                    .collect();
                                let what = format!("{key} n={n} op {i} source {s}: add_edge");
                                for p in picks(targets.len(), 2) {
                                    let (v, w) = (targets[p], host.get(s, targets[p]));
                                    t.add_edge(&g, s, v, w);
                                    tp.add_edge(&gp, s, v, w);
                                    assert_same_entries(t, tp, 0, &what);
                                }
                                while t.depth() > 0 {
                                    t.undo();
                                    tp.undo();
                                    assert_same_entries(t, tp, 0, &what);
                                }
                                prop_assert_eq!(tp.depth(), 0);
                            }
                        }
                        3 => {
                            // A speculative insert at the source under the
                            // horizon cap, then rolled back.
                            for (k, (t, tp)) in word.iter_mut().zip(heap.iter_mut()).enumerate() {
                                let s = sources[k];
                                let targets: Vec<u32> = (0..n as u32)
                                    .filter(|&v| v != s && !g.has_edge(s, v))
                                    .collect();
                                let Some(&p) = picks(targets.len(), 1).first() else {
                                    continue;
                                };
                                let (v, w) = (targets[p], host.get(s, targets[p]));
                                let what = format!("{key} n={n} op {i} source {s}: capped speculation");
                                t.set_price_horizon(Some(cap));
                                tp.set_price_horizon(Some(cap));
                                let mark = t.undo_len();
                                t.begin_speculation();
                                tp.begin_speculation();
                                t.speculate_insert(&g, s, v, w);
                                tp.speculate_insert(&gp, s, v, w);
                                assert_same_entries(t, tp, mark, &what);
                                t.rollback();
                                tp.rollback();
                                assert_same_entries(t, tp, mark, &what);
                                t.set_price_horizon(None);
                                tp.set_price_horizon(None);
                            }
                        }
                        4 => {
                            // A committed removal of one or two edges.
                            let removed: Vec<(u32, u32, f64)> =
                                picks(present.len(), 1 + r % 2).into_iter().map(|p| present[p]).collect();
                            for &(a, b, _) in &removed {
                                g.remove_edge(a, b);
                                gp.remove_edge(a, b);
                            }
                            for (t, tp) in word.iter_mut().zip(heap.iter_mut()) {
                                t.remove_edges(&g, &removed);
                                tp.remove_edges(&gp, &removed);
                                assert_same_entries(t, tp, 0, &format!("{key} n={n} op {i}: removal"));
                            }
                        }
                        _ => {
                            // A removal of one or two edges inside a frame,
                            // over a masked view, then a capped insert at
                            // the source in the same frame (a swap), then
                            // rolled back.
                            let removed: Vec<(u32, u32, f64)> =
                                picks(present.len(), 1 + r % 2).into_iter().map(|p| present[p]).collect();
                            let mask: Vec<(u32, u32)> = removed.iter().map(|&(a, b, _)| (a, b)).collect();
                            let (view, viewp) = (MaskedEdges::new(&g, &mask), MaskedEdges::new(&gp, &mask));
                            for (k, (t, tp)) in word.iter_mut().zip(heap.iter_mut()).enumerate() {
                                let s = sources[k];
                                let what = format!("{key} n={n} op {i} source {s}: speculative swap");
                                t.set_price_horizon(Some(cap));
                                tp.set_price_horizon(Some(cap));
                                let mark = t.undo_len();
                                t.begin_speculation();
                                tp.begin_speculation();
                                t.remove_edges(&view, &removed);
                                tp.remove_edges(&viewp, &removed);
                                assert_same_entries(t, tp, mark, &what);
                                let targets: Vec<u32> = (0..n as u32)
                                    .filter(|&v| v != s && !g.has_edge(s, v))
                                    .collect();
                                if let Some(&p) = picks(targets.len(), 1).first() {
                                    let (v, w) = (targets[p], host.get(s, targets[p]));
                                    t.speculate_insert(&view, s, v, w);
                                    tp.speculate_insert(&viewp, s, v, w);
                                    assert_same_entries(t, tp, mark, &what);
                                }
                                t.rollback();
                                tp.rollback();
                                assert_same_entries(t, tp, mark, &what);
                                t.set_price_horizon(None);
                                tp.set_price_horizon(None);
                            }
                        }
                    }
                    // Every committed vector is exact for the graph.
                    for (k, t) in word.iter().enumerate() {
                        prop_assert_eq!(
                            bits(t.dist()),
                            bits(&dijkstra_reference(&g, sources[k])),
                            "{} n={} op {}: vector of source {} is not exact",
                            key, n, i, sources[k]
                        );
                    }
                    // dijkstra_masked, one edge masked (anywhere) and one
                    // virtual edge added at the source, against the oracle
                    // on the graph so changed.
                    let s = (r % n) as u32;
                    let mask: Vec<(u32, u32)> =
                        present.first().map(|&(a, b, _)| (a, b)).into_iter().filter(|&(a, b)| g.has_edge(a, b)).collect();
                    let free: Vec<u32> = (0..n as u32).filter(|&v| v != s && !g.has_edge(s, v)).collect();
                    let extra: Vec<(u32, u32, f64)> = picks(free.len(), 1)
                        .into_iter()
                        .map(|p| (s, free[p], host.get(s, free[p])))
                        .collect();
                    let mut changed = g.clone();
                    for &(a, b) in &mask {
                        changed.remove_edge(a, b);
                    }
                    for &(u, v, w) in &extra {
                        changed.add_edge(u, v, w);
                    }
                    let mut expected = dijkstra_reference(&changed, s);
                    prop_assert_eq!(
                        bits(&dijkstra_masked(&g, s, &mask, &extra)),
                        bits(&expected),
                        "{} n={} op {}: dijkstra_masked",
                        key, n, i
                    );
                    expected.resize(PAST_THE_WORD, f64::INFINITY);
                    prop_assert_eq!(
                        bits(&dijkstra_masked(&gp, s, &mask, &extra)),
                        bits(&expected),
                        "{} n={} op {}: padded dijkstra_masked",
                        key, n, i
                    );
                }
            }
        }
    }

    /// [`gncg_graph::DynamicSssp::relax_inserts`] (one multi-seed drain
    /// over a whole insertion batch — the lazy warm-vector sync path)
    /// must land on the same bitwise fixpoint as replaying the batch
    /// one edge at a time through `relax_insert`, and both must equal a
    /// fresh Dijkstra on the final graph.
    #[test]
    fn batched_insert_sync_matches_sequential_replay(
        picks in proptest::collection::vec(0u64..(1u64 << 62), 6),
        seed in 0u64..500,
    ) {
        use gncg_graph::DynamicSssp;
        let n = 8usize;
        for key in gncg_metrics::factory::keys() {
            let host = gncg_metrics::factory::build_host(key, n, seed).unwrap();
            let mut g = AdjacencyList::new(n);
            for v in 1..n as u32 {
                let w = host.get(0, v);
                if w.is_finite() {
                    g.add_edge(0, v, w);
                }
            }
            let star = g.clone();
            // Stage the batch: each pick buys one still-missing finite
            // host edge (the shape a round of committed add moves logs).
            let mut batch: Vec<(u32, u32, f64)> = Vec::new();
            for &pick in &picks {
                let mut candidates = Vec::new();
                for u in 0..n as u32 {
                    for v in (u + 1)..n as u32 {
                        if !g.has_edge(u, v) && host.get(u, v).is_finite() {
                            candidates.push((u, v));
                        }
                    }
                }
                if candidates.is_empty() {
                    break;
                }
                let (u, v) = candidates[pick as usize % candidates.len()];
                let w = host.get(u, v);
                g.add_edge(u, v, w);
                batch.push((u, v, w));
            }
            for s in 0..n as u32 {
                let d0 = gncg_graph::dijkstra::dijkstra(&star, s);
                let mut seq = DynamicSssp::new();
                seq.reset_from(s, &d0);
                let mut g2 = star.clone();
                for &(u, v, w) in &batch {
                    g2.add_edge(u, v, w);
                    seq.relax_insert(&g2, u, v, w);
                }
                let mut batched = DynamicSssp::new();
                batched.reset_from(s, &d0);
                batched.relax_inserts(&g, &batch);
                prop_assert_eq!(
                    batched.dist(),
                    seq.dist(),
                    "host '{}' source {}: batched sync diverged from sequential replay",
                    key,
                    s
                );
                let fresh = gncg_graph::dijkstra::dijkstra(&g, s);
                prop_assert_eq!(
                    batched.dist(),
                    fresh.as_slice(),
                    "host '{}' source {}: batched sync diverged from fresh Dijkstra",
                    key,
                    s
                );
            }
        }
    }

    /// A horizon-capped speculative insertion (the RegionDelta pricing
    /// frame) must produce a *sound upper-bound* vector — elementwise
    /// between the pre-insert and the exact post-insert distances — and
    /// its rollback must restore the pre-insert vector **bitwise** with
    /// both log depths at zero, for every factory host and budget.
    #[test]
    fn horizon_capped_speculation_is_upper_bound_and_rolls_back_bitwise(
        picks in proptest::collection::vec(0u64..(1u64 << 62), 8),
        seed in 0u64..500,
        cap in 1usize..5,
    ) {
        use gncg_graph::dijkstra::dijkstra_with_extra;
        use gncg_graph::DynamicSssp;
        let n = 8usize;
        for key in gncg_metrics::factory::keys() {
            let host = gncg_metrics::factory::build_host(key, n, seed).unwrap();
            let mut g = AdjacencyList::new(n);
            for v in 1..n as u32 {
                let w = host.get(0, v);
                if w.is_finite() {
                    g.add_edge(0, v, w);
                }
            }
            for (i, &pick) in picks.iter().enumerate() {
                // Speculated edges must be incident to the vector's
                // source (the `speculate_insert` contract — agents only
                // price their own candidate edges).
                let s = (pick % n as u64) as u32;
                let targets: Vec<u32> = (0..n as u32)
                    .filter(|&v| v != s && !g.has_edge(s, v) && host.get(s, v).is_finite())
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                let v = targets[(pick / 13) as usize % targets.len()];
                let w = host.get(s, v);
                let mut t = DynamicSssp::new();
                t.reset_from(s, &gncg_graph::dijkstra::dijkstra(&g, s));
                t.set_price_horizon(Some(cap));
                let pre = t.dist().to_vec();
                t.begin_speculation();
                t.speculate_insert(&g, s, v, w);
                let exact = dijkstra_with_extra(&g, s, &[(s, v, w)]);
                for (x, &p) in pre.iter().enumerate() {
                    let trunc = t.dist()[x];
                    prop_assert!(
                        trunc <= p && trunc >= exact[x],
                        "host '{}' frame {}: truncated dist[{}] = {} outside [{}, {}]",
                        key, i, x, trunc, exact[x], p
                    );
                }
                t.rollback();
                prop_assert!(
                    t.dist() == pre.as_slice(),
                    "host '{}' frame {}: rollback must restore the vector bitwise",
                    key,
                    i
                );
                prop_assert_eq!((t.depth(), t.speculation_depth()), (0, 0));
                // Commit the edge for real so later frames speculate on
                // evolving networks (and exercise the horizon's
                // committed-path bypass: add_edge must stay exact).
                g.add_edge(s, v, w);
                t.add_edge(&g, s, v, w);
                let fresh = gncg_graph::dijkstra::dijkstra(&g, s);
                prop_assert_eq!(
                    t.dist(),
                    fresh.as_slice(),
                    "host '{}' frame {}: committed add_edge must ignore the horizon",
                    key,
                    i
                );
            }
        }
    }
}
