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

    /// The bucket-queue SSSP engine must equal the binary-heap engine
    /// **bitwise** on every factory host — for fresh [`DijkstraScratch`]
    /// runs and for [`DynamicSssp`] trackers driven through interleaved
    /// insert / remove / swap repairs. The weight-class hint is synthetic
    /// (the host's finite weight extremes), forcing the bucket ring even
    /// on hosts whose game-layer class is `None`: the hint may only
    /// change performance, never a byte.
    #[test]
    fn bucket_sssp_matches_heap_bitwise_under_interleaved_ops(
        ops in proptest::collection::vec(0u64..(1u64 << 62), 12),
        seed in 0u64..500,
    ) {
        use gncg_graph::{DijkstraScratch, DynamicSssp};
        let n = 8usize;
        for key in gncg_metrics::factory::keys() {
            let host = gncg_metrics::factory::build_host(key, n, seed).unwrap();
            let finite: Vec<f64> = host
                .pairs()
                .filter_map(|(_, _, w)| w.is_finite().then_some(w))
                .collect();
            let wmin = finite.iter().copied().fold(f64::INFINITY, f64::min);
            let wmax = finite.iter().copied().fold(0.0f64, f64::max);
            let class = Some((wmin, wmax));
            let mut g = AdjacencyList::new(n);
            for v in 1..n as u32 {
                let w = host.get(0, v);
                if w.is_finite() {
                    g.add_edge(0, v, w);
                }
            }
            let mut heap_scr = DijkstraScratch::new();
            let mut bucket_scr = DijkstraScratch::new();
            bucket_scr.set_weight_class(class);
            let make = |c: Option<(f64, f64)>, g: &AdjacencyList| -> Vec<DynamicSssp> {
                (0..n as u32)
                    .map(|s| {
                        let mut t = DynamicSssp::new();
                        t.set_weight_class(c);
                        t.reset_from(s, &gncg_graph::dijkstra::dijkstra(g, s));
                        t
                    })
                    .collect()
            };
            let mut heap_trk = make(None, &g);
            let mut bucket_trk = make(class, &g);
            for &op in &ops {
                let kind = op % 3; // 0 = insert, 1 = remove, 2 = swap
                if kind >= 1 {
                    let edges: Vec<_> = g.edges().collect();
                    if !edges.is_empty() {
                        let (a, b, w) = edges[(op / 3) as usize % edges.len()];
                        g.remove_edge(a, b);
                        for t in heap_trk.iter_mut().chain(bucket_trk.iter_mut()) {
                            t.remove_edge(&g, a, b, w);
                        }
                    }
                }
                if kind == 0 || kind == 2 {
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
                        for t in heap_trk.iter_mut().chain(bucket_trk.iter_mut()) {
                            t.relax_insert(&g, u, v, w);
                        }
                    }
                }
                for s in 0..n as u32 {
                    prop_assert_eq!(
                        heap_trk[s as usize].dist(),
                        bucket_trk[s as usize].dist(),
                        "host '{}' source {}: bucket tracker diverged from heap",
                        key,
                        s
                    );
                }
                let s = (op % n as u64) as u32;
                heap_scr.run(&g, s, &[]);
                let heap_d = heap_scr.to_vec(n);
                bucket_scr.run(&g, s, &[]);
                prop_assert_eq!(
                    heap_d,
                    bucket_scr.to_vec(n),
                    "host '{}' source {}: bucket scratch diverged from heap",
                    key,
                    s
                );
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
        use gncg_graph::{DijkstraScratch, DynamicSssp};
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
            let mut exact_scr = DijkstraScratch::new();
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
                exact_scr.run(&g, s, &[(s, v, w)]);
                for (x, &p) in pre.iter().enumerate() {
                    let trunc = t.dist()[x];
                    prop_assert!(
                        trunc <= p && trunc >= exact_scr.dist(x as u32),
                        "host '{}' frame {}: truncated dist[{}] = {} outside [{}, {}]",
                        key, i, x, trunc, exact_scr.dist(x as u32), p
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
