//! Best responses: exact (incremental branch-and-bound) and greedy single
//! moves.
//!
//! Computing an exact best response is NP-hard in every variant of the
//! game (Corollary 1, Theorems 13 and 16), so the exact solver here is an
//! exponential branch-and-bound over candidate edge subsets, effective for
//! the instance sizes of the experiments (n ≲ 20) and for the structured
//! reduction gadgets where the pruning bound collapses the search space.
//!
//! # The incremental engine
//!
//! The historical implementation ([`exact_best_response_reference`]) priced
//! every *leaf* of the include/exclude tree with a from-scratch Dijkstra.
//! The current engine ([`exact_best_response`]) instead maintains the
//! agent's distance vector *incrementally* along the DFS: including
//! candidate edge `(u, v)` can only decrease distances, so the include
//! branch relaxes outward from `v` through an
//! [`DynamicSssp`] undo log and restores
//! the exact previous vector on backtrack. Consequences:
//!
//! * **every partial set is fully priced for free** — the live vector *is*
//!   the distance cost of the chosen set, so each subset is evaluated at
//!   the moment its last edge is included (`O(n)` sum, zero Dijkstras at
//!   leaves) and the incumbent tightens at internal nodes instead of only
//!   at depth `n−1`;
//! * the DFS allocates nothing per node (the undo log, heap, and chosen
//!   stack are reused; only incumbent improvements clone a strategy).
//!
//! # Why the partial-network bound is admissible
//!
//! A branch at depth `idx` has committed `chosen ⊆ {candidates[..idx]}`
//! and may still add edges only towards `R = candidates[idx..]`. Every
//! shortest path from `u` in any completion either
//!
//! 1. uses no still-addable edge — all new edges are incident to `u`, a
//!    path visits `u` once, so the whole path lies in `base ∪ chosen` and
//!    its length is ≥ the live incremental distance `D[x]`, or
//! 2. starts with a new edge `(u, v)`, `v ∈ R` — the remainder avoids `u`,
//!    hence uses no new edge, so the path length is
//!    ≥ `w(u,v) + d_{B*}(v, x)`, where `B* = base ∪ {(u,c) : c candidate}`
//!    is the *optimistic network* (a supergraph of every reachable
//!    network, so its distances lower-bound all of them).
//!
//! Therefore `Σ_x min(D[x], min_{v∈R}(w(u,v) + d_{B*}(v, x)))` is an
//! admissible distance lower bound — strictly stronger than the host
//! closure bound the reference engine uses (`B*` is a subgraph of the
//! host, so `d_H ≤ d_{B*}`, and the live `D` tightens it further as the
//! DFS descends). The inner `min_{v∈R}` depends only on `idx` (remaining
//! candidates form a suffix), so it is precomputed once per search as a
//! suffix-min table (`via`), making the bound `O(n)` per node.
//!
//! Costs are **bit-identical** to the reference engine on any instance
//! whose distinct candidate subsets are not tied within
//! [`EPS`](gncg_graph::EPS): the incremental vector equals a from-scratch
//! Dijkstra's exactly (both take exact minima over the same sets of path
//! prefix sums — see `gncg_graph::csr`), and both sum it in index order.
//! On adversarial sub-`EPS` near-ties the engines may legitimately settle
//! on either member of the tie (they visit subsets in different orders
//! and both accept/prune with `EPS` tolerance), so reported costs can
//! differ by up to `EPS` — the paper's constructions and the random
//! metrics of the equivalence suites clear the tolerance by orders of
//! magnitude, which is what licenses the exact `assert_eq!` there.

use std::collections::BTreeSet;

use gncg_graph::{
    strictly_less, AdjacencyList, Csr, DijkstraScratch, DynamicSssp, MaskedEdges, NodeId,
};

use crate::cost::{
    agent_cost_in, base_graph_from, base_graph_without, candidate_cost, CostBreakdown,
};
use crate::{Game, Move, Profile};

/// Result of a best-response computation.
#[derive(Clone, Debug)]
pub struct BestResponse {
    /// The optimal strategy found.
    pub strategy: BTreeSet<NodeId>,
    /// Its cost for the agent.
    pub cost: f64,
    /// The agent's current cost before deviating.
    pub current_cost: f64,
    /// Number of candidate subsets fully evaluated (diagnostic).
    pub evaluated: usize,
}

impl BestResponse {
    /// Whether the best response strictly improves on the current strategy.
    pub fn improves(&self) -> bool {
        strictly_less(self.cost, self.current_cost)
    }
}

/// Per-activation owned search state: a CSR snapshot of the base graph
/// plus the candidate/bound tables. The DFS itself runs on the borrowed
/// [`BrSearchView`], which a persistent [`BrBoundCache`] can also
/// assemble from its delta-maintained resident tables.
struct BrSearch<'g> {
    game: &'g Game,
    agent: NodeId,
    n: usize,
    /// CSR snapshot of the base graph (network minus the agent's
    /// sole-owned edges); all incremental relaxation runs on it.
    csr: Csr,
    /// Candidates sorted by increasing host weight from the agent.
    candidates: Vec<NodeId>,
    /// `w(agent, candidates[i])`, parallel to `candidates`.
    cand_w: Vec<f64>,
    /// Distances from the agent in the bare base graph.
    d0: Vec<f64>,
    /// Suffix-min table of the optimistic bound:
    /// `via[idx·n + x] = min_{i ≥ idx} (cand_w[i] + d_{B*}(candidates[i], x))`,
    /// with row `len` all-∞ (no candidates left).
    via: Vec<f64>,
    /// The host's weight class, installed as the bucket-queue hint on
    /// every SSSP engine this search spawns ([`Game::weight_class`]).
    weight_class: Option<(f64, f64)>,
}

/// Borrowed read-only state shared by every branch of one best-response
/// search — the immutable half of the engine, split out so the fresh
/// per-activation path ([`BrSearch`]) and the persistent cached path
/// ([`BrBoundCache`]) drive the *same* DFS over the same invariants.
#[derive(Clone, Copy)]
struct BrSearchView<'g> {
    game: &'g Game,
    agent: NodeId,
    n: usize,
    csr: &'g Csr,
    candidates: &'g [NodeId],
    cand_w: &'g [f64],
    via: &'g [f64],
}

/// Mutable per-branch state (per worker in the parallel search).
#[derive(Debug)]
struct BrWorker {
    inc: DynamicSssp,
    chosen: Vec<NodeId>,
    /// Membership bitmap of `chosen` (indexed by node id): evaluation sums
    /// edge weights in ascending id order, matching the `BTreeSet`
    /// iteration order of [`candidate_cost`] bit for bit.
    in_set: Vec<bool>,
    best_cost: f64,
    best_set: BTreeSet<NodeId>,
    evaluated: usize,
}

impl BrWorker {
    fn new() -> Self {
        BrWorker {
            inc: DynamicSssp::new(),
            chosen: Vec::new(),
            in_set: Vec::new(),
            best_cost: f64::INFINITY,
            best_set: BTreeSet::new(),
            evaluated: 0,
        }
    }

    /// Re-arms the worker for one search: live vector seeded from `d0`,
    /// incumbent seeded from the agent's current strategy and cost.
    fn reset(
        &mut self,
        agent: NodeId,
        n: usize,
        d0: &[f64],
        weight_class: Option<(f64, f64)>,
        current: f64,
        current_set: &BTreeSet<NodeId>,
    ) {
        self.chosen.clear();
        self.in_set.clear();
        self.in_set.resize(n, false);
        self.best_cost = current;
        self.best_set.clear();
        self.best_set.extend(current_set.iter().copied());
        self.evaluated = 0;
        self.inc.set_weight_class(weight_class);
        self.inc.reset_from(agent, d0);
    }

    fn fresh(search: &BrSearch<'_>, current: f64, current_set: &BTreeSet<NodeId>) -> Self {
        let mut worker = BrWorker::new();
        worker.reset(
            search.agent,
            search.n,
            &search.d0,
            search.weight_class,
            current,
            current_set,
        );
        worker
    }

    fn take_result(&mut self, current: f64) -> BestResponse {
        BestResponse {
            strategy: std::mem::take(&mut self.best_set),
            cost: self.best_cost,
            current_cost: current,
            evaluated: self.evaluated,
        }
    }
}

impl<'g> BrSearch<'g> {
    /// The borrowed view the DFS runs on.
    fn view(&self) -> BrSearchView<'_> {
        BrSearchView {
            game: self.game,
            agent: self.agent,
            n: self.n,
            csr: &self.csr,
            candidates: &self.candidates,
            cand_w: &self.cand_w,
            via: &self.via,
        }
    }

    /// Builds the shared search state from a prebuilt base graph.
    fn new(game: &'g Game, agent: NodeId, base: &AdjacencyList) -> Self {
        let n = game.n();
        let mut candidates: Vec<NodeId> = (0..n as NodeId).filter(|&v| v != agent).collect();
        candidates.sort_by(|&a, &b| game.w(agent, a).total_cmp(&game.w(agent, b)));
        let cand_w: Vec<f64> = candidates.iter().map(|&v| game.w(agent, v)).collect();

        let weight_class = game.weight_class();
        let csr = Csr::from_adjacency(base);
        let mut scratch = DijkstraScratch::new();
        scratch.set_weight_class(weight_class);
        scratch.run(&csr, agent, &[]);
        let d0 = scratch.to_vec(n);

        // The optimistic network B*: base plus every candidate edge.
        let mut bstar = base.clone();
        for &v in &candidates {
            if !bstar.has_edge(agent, v) {
                bstar.add_edge(agent, v, game.w(agent, v));
            }
        }
        let bstar_csr = Csr::from_adjacency(&bstar);

        // Suffix-min bound table, built back to front.
        let len = candidates.len();
        let mut via = vec![f64::INFINITY; (len + 1) * n];
        for i in (0..len).rev() {
            scratch.run(&bstar_csr, candidates[i], &[]);
            let (lo, hi) = (i * n, (i + 1) * n);
            for x in 0..n {
                let through = cand_w[i] + scratch.dist(x as NodeId);
                via[lo + x] = through.min(via[hi + x]);
            }
        }

        BrSearch {
            game,
            agent,
            n,
            csr,
            candidates,
            cand_w,
            d0,
            via,
            weight_class,
        }
    }
}

impl BrSearchView<'_> {
    /// The admissible lower bound at a node: committed edge cost plus
    /// `Σ_x min(live dist, optimistic completion dist)`.
    #[inline]
    fn lower_bound(&self, worker: &BrWorker, idx: usize, edge_w_sum: f64) -> f64 {
        let via_row = &self.via[idx * self.n..(idx + 1) * self.n];
        let dist = worker.inc.dist();
        let mut lb = 0.0;
        for x in 0..self.n {
            lb += dist[x].min(via_row[x]);
        }
        self.game.alpha() * edge_w_sum + lb
    }

    /// Prices the worker's current chosen set off the live vector and
    /// tightens the incumbent. The edge sum is re-accumulated in ascending
    /// node-id order (not DFS order) so totals match [`candidate_cost`]
    /// exactly — f64 addition is order-sensitive.
    #[inline]
    fn evaluate_current(&self, worker: &mut BrWorker) {
        let mut edge_sum = 0.0;
        for v in 0..self.n {
            if worker.in_set[v] {
                edge_sum += self.game.w(self.agent, v as NodeId);
            }
        }
        let cost = self.game.alpha() * edge_sum + worker.inc.sum();
        worker.evaluated += 1;
        if strictly_less(cost, worker.best_cost) {
            worker.best_cost = cost;
            worker.best_set = worker.chosen.iter().copied().collect();
        }
    }

    /// DFS over include/exclude decisions from `idx` onward. The chosen
    /// set at entry has already been evaluated; `worker.inc` holds its
    /// exact distance vector.
    fn dfs(&self, worker: &mut BrWorker, idx: usize, edge_w_sum: f64) {
        if self.lower_bound(worker, idx, edge_w_sum) >= worker.best_cost - gncg_graph::EPS {
            // No completion below this node can strictly beat the
            // incumbent; every subset under it is dominated.
            return;
        }
        if idx == self.candidates.len() {
            return;
        }
        let v = self.candidates[idx];
        let w = self.cand_w[idx];
        // Branch 1: include v — relax incrementally, price the new set.
        worker.inc.add_edge(self.csr, self.agent, v, w);
        worker.chosen.push(v);
        worker.in_set[v as usize] = true;
        self.evaluate_current(worker);
        self.dfs(worker, idx + 1, edge_w_sum + w);
        worker.in_set[v as usize] = false;
        worker.chosen.pop();
        worker.inc.undo();
        // Branch 2: exclude v.
        self.dfs(worker, idx + 1, edge_w_sum);
    }
}

/// Exact best response of `agent` via incremental depth-first
/// branch-and-bound over subsets of `V \ {agent}` (see the module docs for
/// the engine's invariants). The agent's *current* strategy seeds the
/// incumbent, so the search also certifies equilibria quickly.
pub fn exact_best_response(game: &Game, profile: &Profile, agent: NodeId) -> BestResponse {
    let network = profile.build_network(game);
    exact_best_response_in(game, profile, &network, agent)
}

/// [`exact_best_response`] reusing an already-built network `G(s)`.
pub fn exact_best_response_in(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
) -> BestResponse {
    let current = agent_cost_in(game, profile, network, agent).total();
    exact_best_response_given_current(game, profile, network, agent, current)
}

/// [`exact_best_response_in`] with the agent's current cost supplied by
/// the caller (e.g. read off a warm distance vector instead of the
/// Dijkstra `agent_cost_in` would run). It rebuilds the whole search
/// state per call: the from-scratch ancestor of [`BrBoundCache`], and
/// the baseline the `br_grid` bench times it against.
///
/// `current` must equal `agent_cost_in(game, profile, network, agent)
/// .total()` exactly (it seeds the incumbent, so a too-low value could
/// prune the true optimum).
pub fn exact_best_response_given_current(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
    current: f64,
) -> BestResponse {
    let base = base_graph_from(network, profile, agent);
    let search = BrSearch::new(game, agent, &base);
    let view = search.view();

    let mut worker = BrWorker::fresh(&search, current, profile.strategy(agent));
    // The empty set is the one subset with no include step: price it here.
    view.evaluate_current(&mut worker);
    view.dfs(&mut worker, 0, 0.0);

    worker.take_result(current)
}

/// Fewest candidates (`n − 1`) for which [`exact_best_response_parallel`]
/// actually splits. Below this the whole pruned DFS is tens of
/// microseconds, so per-subtree incumbent re-seeding plus spawn overhead
/// outweigh any core the split could recruit (`BENCH_hotpath.json`
/// measured the split 15–30% *slower* at n = 12–16).
pub const MIN_PARALLEL_CANDIDATES: usize = 18;

/// Rayon-parallel exact best response: the include/exclude tree is split
/// at the first `SPLIT_DEPTH` candidate decisions into `2^SPLIT_DEPTH`
/// independent subtree searches that run on the rayon pool, each with its
/// own incumbent seeded by the agent's current cost; results reduce to the
/// global optimum. Produces exactly the same *cost* as
/// [`exact_best_response`] (the strategy may differ among ties).
///
/// Splitting has a real cost even on a real pool: each subtree re-seeds
/// its incumbent from the agent's current cost instead of sharing the
/// global one, so the split prices leaves the shared-incumbent DFS would
/// have pruned. Below [`MIN_PARALLEL_CANDIDATES`] candidates — or when
/// the pool has a single thread — that overhead cannot be bought back,
/// and this function runs the plain [`exact_best_response`] search
/// inline, making it never slower than the sequential solver
/// (`bench_snapshot.sh` asserts the relation at every measured `n`).
pub fn exact_best_response_parallel(game: &Game, profile: &Profile, agent: NodeId) -> BestResponse {
    use rayon::prelude::*;
    const SPLIT_DEPTH: usize = 4;

    let network = profile.build_network(game);
    // The candidate count is n − 1; check it before paying for the search
    // state (the via table costs n Dijkstras) the sequential path would
    // rebuild anyway.
    if game.n().saturating_sub(1) < MIN_PARALLEL_CANDIDATES || rayon::current_num_threads() == 1 {
        return exact_best_response_in(game, profile, &network, agent);
    }
    let current = agent_cost_in(game, profile, &network, agent).total();
    let base = base_graph_from(&network, profile, agent);
    let search = BrSearch::new(game, agent, &base);
    let view = search.view();

    let split = SPLIT_DEPTH;
    let results: Vec<(f64, BTreeSet<NodeId>, usize)> = (0u32..(1 << split))
        .into_par_iter()
        .map(|prefix_mask| {
            let mut worker = BrWorker::fresh(&search, current, profile.strategy(agent));
            let mut edge_w_sum = 0.0;
            for i in 0..split {
                if prefix_mask & (1 << i) != 0 {
                    let v = search.candidates[i];
                    let w = search.cand_w[i];
                    worker.inc.add_edge(&search.csr, agent, v, w);
                    worker.chosen.push(v);
                    worker.in_set[v as usize] = true;
                    edge_w_sum += w;
                }
            }
            // Each prefix set is a complete subset in exactly this task:
            // price it before descending (subsets with includes past the
            // split are priced at their last include inside the DFS).
            view.evaluate_current(&mut worker);
            view.dfs(&mut worker, split, edge_w_sum);
            (worker.best_cost, worker.best_set, worker.evaluated)
        })
        .collect();

    let mut best_cost = current;
    let mut best_set: BTreeSet<NodeId> = profile.strategy(agent).clone();
    let mut evaluated = 0usize;
    for (c, s, e) in results {
        evaluated += e;
        if strictly_less(c, best_cost) {
            best_cost = c;
            best_set = s;
        }
    }
    BestResponse {
        strategy: best_set,
        cost: best_cost,
        current_cost: current,
        evaluated,
    }
}

/// Committed removals a [`BrBoundCache`] absorbs as bound staleness
/// before its next activation triggers a full bound-table rebuild.
///
/// Each removal the cache leaves unrepaired keeps one *phantom* edge in
/// the envelope graph its B\* vectors are exact for, which can only make
/// the pruning bound *lower* — weaker pruning, never a wrong answer — so
/// the budget trades rebuild Dijkstras against DFS nodes. The value is a
/// plain constant, not a tuning surface: results are bitwise identical at
/// any budget (see `tests/br_cache.rs`).
pub const BR_STALENESS_BUDGET: usize = 16;

/// Persistent per-agent branch-and-bound state for
/// [`exact_best_response`]: the sorted candidate list, the exact base
/// distances `d0`, and the per-candidate B\* distance vectors backing the
/// suffix-min `via` bound table survive from activation to activation and
/// are delta-maintained through the same committed `NetworkDelta` staging
/// that keeps the dynamics engine's warm vectors alive — replacing the
/// `n` full Dijkstras + CSR snapshots `BrSearch` pays per activation.
///
/// # What is exact and what is merely admissible
///
/// * **`base`/`d0` are exact.** `d0` seeds the DFS's live vector, whose
///   sum *is* the reported cost of every evaluated subset, so it gets the
///   warm-vector treatment: committed insertions replay lazily in one
///   batched [`DynamicSssp::relax_inserts`] pass behind a cursor into the
///   engine's insert log ([`BrBoundCache::flush_d0`], forced eagerly
///   ahead of any removal), removals repair in place via
///   [`DynamicSssp::remove_edges`], and ownership flips (an edge crossing
///   the sole-owned boundary without any network change) are patched
///   eagerly by the [`BrBoundCache::gain_co_owned`] /
///   [`BrBoundCache::lose_co_owned`] hooks.
///
/// * **The B\* vectors only feed the pruning bound**, so they never need
///   to track the true optimistic network exactly — but "stale yet
///   admissible" is subtler than leaving removal repairs undone. A
///   decrease-only insert replay into a vector that is merely *below*
///   the truth can stop propagating at a stale-low node and leave some
///   *other* node **above** the truth — an inadmissible bound. The cache
///   therefore keeps every B\* vector **exact for the envelope graph**
///   `Ĝ = B*(at last rebuild) ∪ {inserts since}`: insert replays stay on
///   [`DynamicSssp::relax_inserts`]'s exactness contract, and removals
///   simply *keep* the removed edge in `Ĝ` (a *phantom* edge). Since the
///   true optimistic network `B* = network ∪ star(agent)` is always a
///   subgraph of `Ĝ`, `d_Ĝ ≤ d_B*` pointwise and the bound stays
///   admissible — each phantom edge just makes it lower, hence weaker.
///   Past [`BR_STALENESS_BUDGET`] phantoms the next activation rebuilds
///   the tables from scratch.
///
/// * **`B*` does not depend on the agent's own strategy** (`network ∪
///   star(agent)` is invariant under the agent's own moves, and the
///   agent's sole-owned edges are star edges already in `Ĝ`), so the
///   agent's own purchases and drops touch neither `base` nor `Ĝ`.
///
/// Because weaker pruning evaluates a *superset* of the subsets the
/// fresh search evaluates — all of them dominated within the search's
/// `EPS` acceptance — the chosen strategy and its cost are **bitwise
/// identical** to a fresh `BrSearch`, which stays resident as the
/// debug oracle: every cached search re-derives the fresh tables under
/// `debug_assertions`, asserts `d0` bitwise-equal, asserts the cached
/// `via` bound admissible (≤ fresh) per node, and compares the chosen
/// best response and cost bit for bit.
#[derive(Debug)]
pub struct BrBoundCache {
    agent: NodeId,
    built: bool,
    n: usize,
    /// Candidates sorted by increasing host weight from the agent
    /// (game-fixed; recomputed only on rebuild).
    candidates: Vec<NodeId>,
    cand_w: Vec<f64>,
    /// The agent's base graph (network minus its sole-owned edges),
    /// maintained in lock-step with every committed delta.
    base: AdjacencyList,
    /// CSR snapshot of `base` for the DFS hot loop; rebuilt lazily when
    /// `base` changed since the last search.
    csr: Csr,
    csr_dirty: bool,
    /// Exact distances from the agent in `base`.
    d0: DynamicSssp,
    /// How many engine insert-log entries `d0` already reflects.
    d0_synced: usize,
    /// The envelope graph `Ĝ` the B\* vectors are exact for (see the
    /// type docs): monotonically grown by insert replays, never shrunk.
    ghat: AdjacencyList,
    /// Edges of `Ĝ` no longer in the live network (normalized pairs) —
    /// the staleness the budget counts.
    phantom: Vec<(NodeId, NodeId)>,
    /// Per-candidate B\* distance vectors (`bstar[i]` from source
    /// `candidates[i]`), exact for `Ĝ`.
    bstar: Vec<DynamicSssp>,
    /// How many engine insert-log entries the B\* vectors reflect.
    bstar_synced: usize,
    /// Suffix-min bound table derived from `bstar` (same layout as
    /// [`BrSearch::via`]); refreshed in one `O(n²)` pass when dirty.
    via: Vec<f64>,
    via_dirty: bool,
    /// Reusable DFS worker (live vector, chosen stack, incumbent).
    worker: BrWorker,
    scratch: DijkstraScratch,
    dist_buf: Vec<f64>,
    batch: Vec<(NodeId, NodeId, f64)>,
    weight_class: Option<(f64, f64)>,
    /// The last search's `(current strategy, result)`, returned verbatim
    /// when the agent is re-probed with **zero** intervening deltas — the
    /// cache tracks every committed change exactly, so "no change since
    /// the memo" means the query inputs are literally identical and the
    /// previous answer is bitwise the fresh answer by definition. Killed
    /// by every maintenance entry point; a hit additionally requires the
    /// caller's `current` cost and strategy to match bit for bit.
    memo: Option<(BTreeSet<NodeId>, BestResponse)>,
}

impl BrBoundCache {
    /// An empty, unbuilt cache for `agent`; tables fill on first
    /// [`BrBoundCache::ensure`].
    pub fn new(agent: NodeId) -> Self {
        BrBoundCache {
            agent,
            built: false,
            n: 0,
            candidates: Vec::new(),
            cand_w: Vec::new(),
            base: AdjacencyList::default(),
            csr: Csr::from_adjacency(&AdjacencyList::default()),
            csr_dirty: false,
            d0: DynamicSssp::new(),
            d0_synced: 0,
            ghat: AdjacencyList::default(),
            phantom: Vec::new(),
            bstar: Vec::new(),
            bstar_synced: 0,
            via: Vec::new(),
            via_dirty: false,
            worker: BrWorker::new(),
            scratch: DijkstraScratch::new(),
            dist_buf: Vec::new(),
            batch: Vec::new(),
            weight_class: None,
            memo: None,
        }
    }

    /// Whether the tables are resident (a fresh or invalidated cache
    /// rebuilds on its next [`BrBoundCache::ensure`]).
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Phantom edges currently absorbed as staleness — `0` right after a
    /// rebuild, strictly `≤ BR_STALENESS_BUDGET` whenever a search runs.
    pub fn stale_removals(&self) -> usize {
        self.phantom.len()
    }

    /// Drops the tables (allocations survive for the next rebuild).
    /// Called whenever the owning context can no longer describe the
    /// committed delta stream precisely (context reset, raw deltas).
    pub fn invalidate(&mut self) {
        self.built = false;
        self.memo = None;
    }

    /// Whether the last result is memoized and no delta has touched the
    /// cache since — the next probe with an unchanged strategy and
    /// current cost returns it without a search (test observability).
    pub fn memo_is_warm(&self) -> bool {
        self.memo.is_some()
    }

    /// Bytes resident in the cache's tables — the B\* vectors dominate
    /// (`n − 1` SSSP engines of `Θ(n)` floats each).
    pub fn resident_bytes(&self) -> usize {
        self.d0.resident_bytes()
            + self
                .bstar
                .iter()
                .map(DynamicSssp::resident_bytes)
                .sum::<usize>()
            + self.via.capacity() * std::mem::size_of::<f64>()
            + self.phantom.capacity() * std::mem::size_of::<(NodeId, NodeId)>()
    }

    /// Makes the tables current for the live `network`: a full rebuild
    /// when unbuilt or past the staleness budget, otherwise one lazy
    /// replay of the pending committed-insert suffix into `d0` and the
    /// B\* vectors.
    pub fn ensure(
        &mut self,
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        insert_log: &[(NodeId, NodeId, f64)],
    ) {
        if !self.built || self.phantom.len() > BR_STALENESS_BUDGET {
            self.rebuild(game, profile, network, insert_log.len());
            return;
        }
        self.flush_d0(insert_log);
        self.sync_bstar(network, insert_log);
    }

    /// Rebuilds every table from the live network — the same
    /// construction as [`BrSearch::new`], kept as the oracle path.
    fn rebuild(&mut self, game: &Game, profile: &Profile, network: &AdjacencyList, log_len: usize) {
        let n = game.n();
        let agent = self.agent;
        self.n = n;
        self.weight_class = game.weight_class();
        self.scratch.set_weight_class(self.weight_class);

        self.candidates.clear();
        self.candidates
            .extend((0..n as NodeId).filter(|&v| v != agent));
        self.candidates
            .sort_by(|&a, &b| game.w(agent, a).total_cmp(&game.w(agent, b)));
        self.cand_w.clear();
        self.cand_w
            .extend(self.candidates.iter().map(|&v| game.w(agent, v)));

        self.base = base_graph_from(network, profile, agent);
        self.csr = Csr::from_adjacency(&self.base);
        self.csr_dirty = false;
        self.scratch.run(&self.base, agent, &[]);
        self.dist_buf.clear();
        self.dist_buf.resize(n, f64::INFINITY);
        self.scratch.write_distances(&mut self.dist_buf);
        self.d0.set_weight_class(self.weight_class);
        self.d0.reset_from(agent, &self.dist_buf);

        // A fresh envelope graph is exactly the optimistic network:
        // Ĝ = network ∪ star(agent) = base ∪ {(agent, c) ∀ candidates}.
        self.ghat = network.clone();
        for (i, &v) in self.candidates.iter().enumerate() {
            if !self.ghat.has_edge(agent, v) {
                self.ghat.add_edge(agent, v, self.cand_w[i]);
            }
        }
        self.phantom.clear();

        let len = self.candidates.len();
        if self.bstar.len() < len {
            self.bstar.resize_with(len, DynamicSssp::new);
        }
        for (i, &c) in self.candidates.iter().enumerate() {
            self.scratch.run(&self.ghat, c, &[]);
            self.dist_buf.clear();
            self.dist_buf.resize(n, f64::INFINITY);
            self.scratch.write_distances(&mut self.dist_buf);
            self.bstar[i].set_weight_class(self.weight_class);
            self.bstar[i].reset_from(c, &self.dist_buf);
        }
        self.rebuild_via();

        self.d0_synced = log_len;
        self.bstar_synced = log_len;
        self.built = true;
        self.memo = None;
    }

    /// Refreshes the suffix-min `via` table from the resident B\*
    /// vectors — the same back-to-front fold as [`BrSearch::new`], so a
    /// phantom-free cache reproduces the fresh table bit for bit.
    fn rebuild_via(&mut self) {
        let n = self.n;
        let len = self.candidates.len();
        self.via.clear();
        self.via.resize((len + 1) * n, f64::INFINITY);
        for i in (0..len).rev() {
            let dist = self.bstar[i].dist();
            let w = self.cand_w[i];
            let lo = i * n;
            // Row `i` folds over row `i + 1`, laid out right behind it.
            let (row, next) = self.via[lo..lo + 2 * n].split_at_mut(n);
            for ((slot, &d), &suffix) in row.iter_mut().zip(dist).zip(next.iter()) {
                *slot = (w + d).min(suffix);
            }
        }
        self.via_dirty = false;
    }

    /// Replays the pending committed-insert suffix into `d0`. Every
    /// pending entry present in `base` replays (entries absent from
    /// `base` are the agent's own sole-owned purchases, which the base
    /// graph excludes by definition — their log entries are skipped
    /// forever). The owning context must call this **before** a removal
    /// mutates the network: pending inserts replay against a base graph
    /// that still holds every edge about to go, the exactness contract
    /// of [`DynamicSssp::relax_inserts`].
    pub fn flush_d0(&mut self, insert_log: &[(NodeId, NodeId, f64)]) {
        if !self.built || self.d0_synced >= insert_log.len() {
            return;
        }
        self.memo = None;
        self.batch.clear();
        for &(a, b, w) in &insert_log[self.d0_synced..] {
            if self.base.has_edge(a, b) {
                self.batch.push((a, b, w));
            }
        }
        if !self.batch.is_empty() {
            self.d0.relax_inserts(&self.base, &self.batch);
        }
        self.d0_synced = insert_log.len();
    }

    /// Lazily replays pending committed inserts into the B\* vectors:
    /// each genuinely new edge enters the envelope graph `Ĝ` and is
    /// relaxed — exactly — into every resident vector in one batch; an
    /// edge `Ĝ` kept through an interim removal merely stops being
    /// phantom (the vectors are already exact for it).
    fn sync_bstar(&mut self, network: &AdjacencyList, insert_log: &[(NodeId, NodeId, f64)]) {
        if self.bstar_synced >= insert_log.len() {
            return;
        }
        self.memo = None;
        self.batch.clear();
        for &(a, b, w) in &insert_log[self.bstar_synced..] {
            if a == self.agent || b == self.agent {
                // Star edges are permanently in Ĝ at the same host
                // weight; the replay would be a no-op.
                continue;
            }
            if !network.has_edge(a, b) {
                // Inserted and removed again between syncs: the edge
                // never entered Ĝ (its removal pushed no phantom).
                continue;
            }
            let key = (a.min(b), a.max(b));
            if self.ghat.has_edge(a, b) {
                self.phantom.retain(|&p| p != key);
                continue;
            }
            self.ghat.add_edge(a, b, w);
            self.batch.push((a, b, w));
        }
        if !self.batch.is_empty() {
            let len = self.candidates.len();
            for inc in &mut self.bstar[..len] {
                inc.relax_inserts(&self.ghat, &self.batch);
            }
            self.via_dirty = true;
        }
        self.bstar_synced = insert_log.len();
    }

    /// Notes a committed edge-insertion batch by `mover` (the edges are
    /// live in the network). Base bookkeeping is eager and `O(1)` per
    /// edge; the SSSP repairs stay lazy behind the cursors. A batch by
    /// the cache's own agent is sole-owned by construction — outside the
    /// base graph, already in `Ĝ` as star edges — and is a no-op.
    pub fn on_inserts(&mut self, inserts: &[(NodeId, NodeId, f64)], mover: NodeId) {
        if !self.built || mover == self.agent {
            return;
        }
        self.memo = None;
        for &(a, b, w) in inserts {
            if !self.base.has_edge(a, b) {
                self.base.add_edge(a, b, w);
                self.csr_dirty = true;
            }
        }
    }

    /// Notes committed removals by `mover`, already applied to the
    /// network; [`BrBoundCache::flush_d0`] must have run first. `d0` is
    /// repaired exactly in one batched affected-region pass; the B\*
    /// vectors instead keep each removed edge in `Ĝ` as a phantom
    /// (admissible staleness — see the type docs). A batch by the
    /// cache's own agent is a no-op (sole-owned drops were never in the
    /// base graph, and their star edges legitimately stay in `Ĝ`).
    pub fn on_removals(&mut self, removed: &[(NodeId, NodeId, f64)], mover: NodeId) {
        if !self.built || mover == self.agent {
            return;
        }
        self.memo = None;
        self.batch.clear();
        for &(a, b, w) in removed {
            if self.base.remove_edge(a, b) {
                self.batch.push((a, b, w));
                self.csr_dirty = true;
            }
            if a != self.agent && b != self.agent && self.ghat.has_edge(a, b) {
                let key = (a.min(b), a.max(b));
                if !self.phantom.contains(&key) {
                    self.phantom.push(key);
                }
            }
        }
        if !self.batch.is_empty() {
            self.d0.remove_edges(&self.base, &self.batch);
        }
    }

    /// The mover just bought an edge the cache's agent already owned:
    /// `(agent, other)` was sole-owned (outside the base graph) and is
    /// now co-owned (inside it). No network edge moved, so only this
    /// cache's base/`d0` change; `Ĝ` holds the star edge either way.
    pub fn gain_co_owned(&mut self, other: NodeId, w: f64, insert_log: &[(NodeId, NodeId, f64)]) {
        if !self.built {
            return;
        }
        self.memo = None;
        // Pending inserts replay first, against the base graph *without*
        // the flip edge (the graph d0 is exact for, minus the pending
        // batch); only then does the flip edge enter and relax.
        self.flush_d0(insert_log);
        if !self.base.has_edge(self.agent, other) {
            self.base.add_edge(self.agent, other, w);
            self.csr_dirty = true;
            self.d0.relax_inserts(&self.base, &[(self.agent, other, w)]);
        }
    }

    /// The mover just dropped its copy of an edge the cache's agent
    /// still owns: `(agent, other)` was co-owned (inside the base graph)
    /// and is now sole-owned (outside it). The mirror image of
    /// [`BrBoundCache::gain_co_owned`].
    pub fn lose_co_owned(&mut self, other: NodeId, w: f64, insert_log: &[(NodeId, NodeId, f64)]) {
        if !self.built {
            return;
        }
        self.memo = None;
        // Pending inserts replay while the base graph still holds the
        // flip edge; the exact removal repair follows.
        self.flush_d0(insert_log);
        if self.base.remove_edge(self.agent, other) {
            self.csr_dirty = true;
            self.d0.remove_edges(&self.base, &[(self.agent, other, w)]);
        }
    }

    /// The exact best response off the resident tables — the same DFS as
    /// [`exact_best_response_given_current`], minus its per-activation
    /// CSR snapshots and `n + 1` Dijkstras; a re-probe with zero
    /// intervening deltas skips the DFS too and returns the memoized
    /// result (identical inputs, identical answer). Requires a prior
    /// [`BrBoundCache::ensure`] against the same network and insert log;
    /// `current` must be the agent's exact current cost (it seeds the
    /// incumbent). Under `debug_assertions` every call re-derives the
    /// fresh tables and asserts bound admissibility per node plus a
    /// bitwise-equal chosen strategy and cost.
    pub fn best_response(
        &mut self,
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        current: f64,
    ) -> BestResponse {
        debug_assert!(self.built, "best_response on an unbuilt BrBoundCache");
        // Memo hit: no delta has touched the cache since the last search
        // and the query (current strategy + exact current cost) is bit
        // for bit the same, so the inputs of the search are literally
        // identical and the previous result *is* the fresh result. The
        // debug oracle below still re-derives and checks it.
        let memoized = self
            .memo
            .as_ref()
            .filter(|(set, prev)| {
                prev.current_cost.to_bits() == current.to_bits()
                    && set == profile.strategy(self.agent)
            })
            .map(|(_, prev)| prev.clone());
        if let Some(result) = memoized {
            #[cfg(debug_assertions)]
            self.assert_matches_fresh(game, profile, network, current, &result);
            #[cfg(not(debug_assertions))]
            let _ = network;
            return result;
        }
        if self.csr_dirty {
            self.csr = Csr::from_adjacency(&self.base);
            self.csr_dirty = false;
        }
        if self.via_dirty {
            self.rebuild_via();
        }
        let worker = &mut self.worker;
        worker.reset(
            self.agent,
            self.n,
            self.d0.dist(),
            self.weight_class,
            current,
            profile.strategy(self.agent),
        );
        let view = BrSearchView {
            game,
            agent: self.agent,
            n: self.n,
            csr: &self.csr,
            candidates: &self.candidates,
            cand_w: &self.cand_w,
            via: &self.via,
        };
        view.evaluate_current(worker);
        view.dfs(worker, 0, 0.0);
        let result = worker.take_result(current);
        #[cfg(debug_assertions)]
        self.assert_matches_fresh(game, profile, network, current, &result);
        #[cfg(not(debug_assertions))]
        let _ = network;
        self.memo = Some((profile.strategy(self.agent).clone(), result.clone()));
        result
    }

    /// The PR 4–5 oracle: rebuild the per-activation search state from
    /// scratch and require (a) the lock-step base graph, (b) a bitwise
    /// `d0`, (c) per-node bound admissibility (cached `via` ≤ fresh
    /// `via` — the fresh bound is the exact optimistic distance, so `≤`
    /// *is* admissibility), and (d) a bitwise-identical chosen strategy
    /// and cost.
    #[cfg(debug_assertions)]
    fn assert_matches_fresh(
        &self,
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        current: f64,
        got: &BestResponse,
    ) {
        let fresh_base = base_graph_from(network, profile, self.agent);
        let mut a: Vec<_> = self.base.edges().collect();
        let mut b: Vec<_> = fresh_base.edges().collect();
        a.sort_by_key(|e| (e.0, e.1));
        b.sort_by_key(|e| (e.0, e.1));
        assert_eq!(
            a, b,
            "BrBoundCache base graph of agent {} drifted from base_graph_from",
            self.agent
        );
        let search = BrSearch::new(game, self.agent, &fresh_base);
        assert_eq!(
            self.d0.dist(),
            search.d0.as_slice(),
            "BrBoundCache d0 of agent {} drifted from a fresh Dijkstra",
            self.agent
        );
        assert_eq!(self.via.len(), search.via.len());
        for (i, (&cached, &fresh)) in self.via.iter().zip(search.via.iter()).enumerate() {
            assert!(
                cached <= fresh,
                "inadmissible cached bound for agent {}: via[{}] = {} > fresh {}",
                self.agent,
                i,
                cached,
                fresh
            );
        }
        let view = search.view();
        let mut worker = BrWorker::fresh(&search, current, profile.strategy(self.agent));
        view.evaluate_current(&mut worker);
        view.dfs(&mut worker, 0, 0.0);
        assert_eq!(
            got.strategy, worker.best_set,
            "cached best response of agent {} diverged from a fresh BrSearch",
            self.agent
        );
        assert_eq!(
            got.cost.to_bits(),
            worker.best_cost.to_bits(),
            "cached best-response cost of agent {} diverged from a fresh BrSearch",
            self.agent
        );
    }
}

/// The historical from-scratch engine: one Dijkstra per leaf, pruned only
/// by the static host-closure bound. Kept as the equivalence oracle for
/// the incremental engine (the `br_equivalence` proptests) and as the
/// baseline the `best_response` bench measures speedups against.
pub fn exact_best_response_reference(
    game: &Game,
    profile: &Profile,
    agent: NodeId,
) -> BestResponse {
    let n = game.n();
    let base = base_graph_without(game, profile, agent);
    let network = profile.build_network(game);
    let current = agent_cost_in(game, profile, &network, agent).total();

    // Distance lower bound: Σ_v d_H(agent, v).
    let dist_lb: f64 = game.host_distances().row(agent).iter().sum();

    let mut candidates: Vec<NodeId> = (0..n as NodeId).filter(|&v| v != agent).collect();
    candidates.sort_by(|&a, &b| game.w(agent, a).total_cmp(&game.w(agent, b)));

    let mut best_cost = current;
    let mut best_set: BTreeSet<NodeId> = profile.strategy(agent).clone();
    let mut evaluated = 0usize;
    let mut chosen: Vec<NodeId> = Vec::new();
    dfs_reference(
        game,
        &base,
        agent,
        &candidates,
        0,
        &mut chosen,
        0.0,
        dist_lb,
        &mut best_cost,
        &mut best_set,
        &mut evaluated,
    );

    BestResponse {
        strategy: best_set,
        cost: best_cost,
        current_cost: current,
        evaluated,
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_reference(
    game: &Game,
    base: &AdjacencyList,
    agent: NodeId,
    candidates: &[NodeId],
    idx: usize,
    chosen: &mut Vec<NodeId>,
    edge_cost: f64,
    dist_lb: f64,
    best_cost: &mut f64,
    best_set: &mut BTreeSet<NodeId>,
    evaluated: &mut usize,
) {
    // Admissible bound: committed α-weighted edge cost + host-distance LB.
    if game.alpha() * edge_cost + dist_lb >= *best_cost - gncg_graph::EPS {
        return;
    }
    if idx == candidates.len() {
        let set: BTreeSet<NodeId> = chosen.iter().copied().collect();
        let c = candidate_cost(game, base, agent, &set);
        *evaluated += 1;
        if strictly_less(c.total(), *best_cost) {
            *best_cost = c.total();
            *best_set = set;
        }
        return;
    }
    let v = candidates[idx];
    chosen.push(v);
    dfs_reference(
        game,
        base,
        agent,
        candidates,
        idx + 1,
        chosen,
        edge_cost + game.w(agent, v),
        dist_lb,
        best_cost,
        best_set,
        evaluated,
    );
    chosen.pop();
    dfs_reference(
        game,
        base,
        agent,
        candidates,
        idx + 1,
        chosen,
        edge_cost,
        dist_lb,
        best_cost,
        best_set,
        evaluated,
    );
}

/// The best single greedy move (add / delete / swap) of `agent`, if any
/// strictly improving one exists. Returns the move together with the cost
/// it achieves.
pub fn best_greedy_move(game: &Game, profile: &Profile, agent: NodeId) -> Option<(Move, f64)> {
    best_move_among(game, profile, agent, &Move::greedy_moves(profile, agent))
}

/// [`best_greedy_move`] reusing an already-built network.
pub fn best_greedy_move_in(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
) -> Option<(Move, f64)> {
    let current = agent_cost_in(game, profile, network, agent).total();
    let moves = Move::greedy_moves(profile, agent);
    best_move_among_given_current(game, profile, network, agent, current, &moves)
}

/// The best single edge *addition* of `agent`, if an improving one exists
/// (the move space of Add-only Equilibria).
pub fn best_add_move(game: &Game, profile: &Profile, agent: NodeId) -> Option<(Move, f64)> {
    best_move_among(game, profile, agent, &Move::add_moves(profile, agent))
}

/// [`best_add_move`] reusing an already-built network.
pub fn best_add_move_in(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
) -> Option<(Move, f64)> {
    let current = agent_cost_in(game, profile, network, agent).total();
    let moves = Move::add_moves(profile, agent);
    best_move_among_given_current(game, profile, network, agent, current, &moves)
}

/// Evaluates a set of moves and returns the best strictly-improving one.
pub fn best_move_among(
    game: &Game,
    profile: &Profile,
    agent: NodeId,
    moves: &[Move],
) -> Option<(Move, f64)> {
    let network = profile.build_network(game);
    let current = agent_cost_in(game, profile, &network, agent).total();
    best_move_among_given_current(game, profile, &network, agent, current, moves)
}

/// [`best_move_among`] reusing an already-built network, with the
/// agent's current cost supplied by the caller (see
/// [`exact_best_response_given_current`] for the contract on `current`).
///
/// Prices every candidate with a masked from-scratch Dijkstra
/// ([`candidate_cost`]) — the historical scan, kept as the equivalence
/// **oracle** and measured baseline of the speculative scan
/// ([`best_move_among_speculative_priced`]), which under
/// [`SpeculativePricing::FullSum`] produces bitwise-identical choices and
/// totals off a warm distance vector.
pub fn best_move_among_given_current(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
    current: f64,
    moves: &[Move],
) -> Option<(Move, f64)> {
    let base = base_graph_from(network, profile, agent);
    let own = profile.strategy(agent);
    let mut best: Option<(Move, f64)> = None;
    for m in moves {
        let cand = m.apply(agent, own);
        let c = candidate_cost(game, &base, agent, &cand).total();
        let incumbent = best.as_ref().map_or(current, |&(_, b)| b);
        if strictly_less(c, incumbent) {
            best = Some((m.clone(), c));
        }
    }
    best
}

/// How the speculative move scan reads a candidate's distance cost off
/// the warm vector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpeculativePricing {
    /// Re-sum the whole `n`-length vector per candidate — `O(n)` per
    /// move, bitwise-identical to the masked-Dijkstra oracle, the
    /// policy every pre-existing golden was recorded under.
    #[default]
    FullSum,
    /// Bounded-horizon pricing: one full sum per scan, then each
    /// candidate is priced as `sum₀ + Σ_{v touched} (dist(v) − dist₀(v))`
    /// over the speculation undo log, with the speculative relaxation
    /// itself truncated after [`PRICE_HORIZON`] settled nodes — `O(horizon)`
    /// per move instead of the `O(n)` re-sum *or* the `Θ(n)` exact region
    /// repair a good candidate edge floods through a mid-run network.
    /// Truncated prices are sound upper bounds (the abandoned frontier
    /// keeps its valid pre-insert distances), so ranking is approximate;
    /// the winner is re-priced with the horizon cleared and an exact full
    /// sum (and re-gated against `current`) before being returned, so
    /// the *reported* move cost is always oracle-exact. A candidate whose
    /// upper bound never beats the incumbent can be missed — a distinct
    /// deterministic dynamics, not a bitwise re-expression of
    /// [`Self::FullSum`] — which is why it is opt-in, participates in
    /// scenario digests, and carries its own goldens. Below `n ≈
    /// PRICE_HORIZON` the truncation can never trigger and only sub-ulp
    /// delta re-association separates the two policies.
    RegionDelta,
}

/// Settle budget of [`SpeculativePricing::RegionDelta`]'s per-candidate
/// speculative relaxations (see [`DynamicSssp::set_price_horizon`]). A
/// fixed constant of the policy — it shapes which moves the bounded
/// dynamics chooses, so tuning it is a byte-stream-breaking change.
pub const PRICE_HORIZON: usize = 16;

/// [`best_move_among_given_current`] evaluated **speculatively** against
/// the agent's warm distance vector instead of one masked Dijkstra per
/// candidate.
///
/// `warm` must hold the agent's exact distance vector in `network`
/// (source `agent`, bitwise what a fresh Dijkstra produces — e.g. the
/// dynamics engine's warm per-agent vector), and `current` the agent's
/// exact current total cost. Each single-edge candidate is priced by the
/// speculation-frame lifecycle of `gncg_graph::csr`:
///
/// 1. **apply** — open a frame and stage the move's network-level edge
///    delta on the vector: a dropped sole-owned edge is a logged
///    Ramalingam–Reps repair over a [`MaskedEdges`] view of `network`
///    (the graph itself is never mutated), a genuinely new edge is a
///    logged source-incident relaxation;
/// 2. **read** — the candidate's distance cost is the warm sum, in the
///    same index order the oracle sums its Dijkstra vector, and its edge
///    cost re-accumulates in ascending node-id order, matching
///    [`candidate_cost`]'s `BTreeSet` iteration bit for bit;
/// 3. **rollback** — the frame restores the pre-move vector bitwise, so
///    the next candidate starts from the same warm state.
///
/// Degenerate deltas (dropping a co-owned edge, gaining an
/// already-present one) change no distances and read the current sum
/// directly. [`Move::Replace`] candidates are not single-edge deltas and
/// fall back to the oracle's [`candidate_cost`] pricing.
///
/// Under [`SpeculativePricing::FullSum`] this returns exactly what
/// [`best_move_among_given_current`] returns — the same chosen move and
/// the same cost bits (debug-asserted against the oracle, alongside the
/// bitwise restoration of `warm`); see [`SpeculativePricing`] for the
/// contract of the bounded-horizon mode.
///
/// Every move must be *valid for `profile`* in the [`Move::apply`] sense
/// (deletes and swap-drops name owned edges, adds and swap-gains name
/// non-owned ones) — the shape [`Move::greedy_moves`] /
/// [`Move::add_moves`] enumerate. The oracle enforces this with
/// assertions inside `Move::apply`; this path relies on it (an invalid
/// move may panic on a missing network edge or price the edge term
/// differently from a set-based candidate).
#[allow(clippy::too_many_arguments)]
pub fn best_move_among_speculative_priced(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    warm: &mut DynamicSssp,
    agent: NodeId,
    current: f64,
    moves: &[Move],
    pricing: SpeculativePricing,
) -> Option<(Move, f64)> {
    #[cfg(debug_assertions)]
    let before: Vec<f64> = warm.dist().to_vec();
    // One O(n) sum for the whole scan under RegionDelta; FullSum keeps
    // its historical lazy reads (degenerate deltas only).
    let sum0 = match pricing {
        SpeculativePricing::FullSum => 0.0,
        SpeculativePricing::RegionDelta => warm.sum(),
    };
    // Bounded horizon: candidate relaxations settle at most PRICE_HORIZON
    // nodes (upper-bound prices); cleared again before the winner's exact
    // re-price below. Only speculation frames consult the budget, so a
    // stray setting could never leak into committed repairs.
    if pricing == SpeculativePricing::RegionDelta {
        warm.set_price_horizon(Some(PRICE_HORIZON));
    }
    let own = profile.strategy(agent);
    let alpha = game.alpha();
    // Replace moves price through the oracle path; its base graph is
    // derived at most once.
    let mut base: Option<AdjacencyList> = None;
    let mut best: Option<(Move, f64)> = None;
    let update = |m: &Move, c: f64, best: &mut Option<(Move, f64)>| {
        let incumbent = best.as_ref().map_or(current, |&(_, b)| b);
        if strictly_less(c, incumbent) {
            *best = Some((m.clone(), c));
        }
    };
    let mut i = 0;
    while i < moves.len() {
        // Consecutive swaps dropping the same sole-owned edge (the shape
        // `Move::greedy_moves` enumerates) share one removal repair:
        // frames nest, so the dropped edge is repaired once in an outer
        // frame and each add target is an inner insert + rollback —
        // `k` removals for `k·(n−1−k)` swap candidates, not one each.
        if let Move::Swap(d, _) = moves[i] {
            if !profile.owns(d, agent) {
                let run = moves[i..]
                    .iter()
                    .take_while(|m| matches!(m, Move::Swap(dd, _) if *dd == d))
                    .count();
                let w = network
                    .edge_weight(agent, d)
                    .expect("sole-owned strategy edge must be in the network");
                let mask = [(agent, d)];
                let view = MaskedEdges::new(network, &mask);
                // The mark is taken before the outer removal frame, so a
                // RegionDelta price covers the removal repair *and* the
                // inner insert in one undo-log suffix.
                let mark = warm.undo_len();
                warm.begin_speculation();
                warm.remove_edge(&view, agent, d, w);
                for m in &moves[i..i + run] {
                    let &Move::Swap(_, a) = m else { unreachable!() };
                    let dist = if network.has_edge(agent, a) {
                        // Gained edge already present: the removal repair
                        // is the whole delta.
                        frame_price(warm, pricing, sum0, mark)
                    } else {
                        warm.begin_speculation();
                        warm.speculate_insert(&view, agent, a, game.w(agent, a));
                        let s = frame_price(warm, pricing, sum0, mark);
                        warm.rollback();
                        s
                    };
                    let c = alpha * candidate_edge_sum(game, agent, own, m) + dist;
                    update(m, c, &mut best);
                }
                warm.rollback();
                i += run;
                continue;
            }
        }
        let m = &moves[i];
        let c = match m {
            Move::Replace(cand) => {
                let base = base.get_or_insert_with(|| base_graph_from(network, profile, agent));
                candidate_cost(game, base, agent, cand).total()
            }
            _ => {
                let dist =
                    speculative_distance_sum(game, profile, network, warm, agent, m, pricing, sum0);
                alpha * candidate_edge_sum(game, agent, own, m) + dist
            }
        };
        update(m, c, &mut best);
        i += 1;
    }
    // RegionDelta ranked the candidates on approximate prices; the
    // reported cost must be oracle-exact, so the winner is re-priced
    // with a full sum and re-gated against `current` (a sub-ulp
    // "improvement" that was an artifact of delta re-association must
    // not be reported as improving).
    if pricing == SpeculativePricing::RegionDelta {
        warm.set_price_horizon(None);
        best = best.and_then(|(m, c)| match m {
            // Replace moves were priced exactly by the oracle path.
            Move::Replace(_) => strictly_less(c, current).then_some((m, c)),
            _ => {
                let dist = speculative_distance_sum(
                    game,
                    profile,
                    network,
                    warm,
                    agent,
                    &m,
                    SpeculativePricing::FullSum,
                    0.0,
                );
                let exact = alpha * candidate_edge_sum(game, agent, own, &m) + dist;
                strictly_less(exact, current).then_some((m, exact))
            }
        });
    }
    #[cfg(debug_assertions)]
    {
        debug_assert!(
            warm.dist() == before.as_slice() && warm.depth() == 0 && warm.speculation_depth() == 0,
            "speculative scan must leave the warm vector bitwise untouched"
        );
        match pricing {
            SpeculativePricing::FullSum => {
                let oracle =
                    best_move_among_given_current(game, profile, network, agent, current, moves);
                debug_assert_eq!(
                    best, oracle,
                    "speculative scan drifted from the masked-Dijkstra oracle"
                );
            }
            SpeculativePricing::RegionDelta => {
                // The chosen move may legitimately differ from FullSum on
                // sub-ulp ties, but the reported cost of whatever *was*
                // chosen must be bitwise what the oracle prices it at.
                if let Some((m, c)) = &best {
                    let oracle = best_move_among_given_current(
                        game,
                        profile,
                        network,
                        agent,
                        current,
                        std::slice::from_ref(m),
                    );
                    debug_assert_eq!(
                        oracle,
                        Some((m.clone(), *c)),
                        "region-delta winner's exact re-price drifted from the oracle"
                    );
                }
            }
        }
    }
    best
}

/// Reads the current candidate's distance cost off an open speculation
/// frame according to the pricing policy. `mark` is the undo-log length
/// from just before the frame (chain) opened; `sum0` the pre-scan full
/// sum (RegionDelta only). A non-finite delta price (∞ − ∞ churn from
/// disconnections) falls back to the exact full sum for that candidate.
fn frame_price(warm: &mut DynamicSssp, pricing: SpeculativePricing, sum0: f64, mark: usize) -> f64 {
    match pricing {
        SpeculativePricing::FullSum => warm.sum(),
        SpeculativePricing::RegionDelta => {
            let p = sum0 + warm.delta_sum_since(mark);
            if p.is_finite() {
                p
            } else {
                warm.sum()
            }
        }
    }
}

/// The distance cost of single-edge move `m`, read off `warm` after
/// speculatively applying the move's network-level edge delta (an owned
/// edge leaves the network only when the other endpoint does not also own
/// it; a new edge enters only when not already present — the same rules
/// the dynamics engine applies to committed moves).
#[allow(clippy::too_many_arguments)]
fn speculative_distance_sum(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    warm: &mut DynamicSssp,
    agent: NodeId,
    m: &Move,
    pricing: SpeculativePricing,
    sum0: f64,
) -> f64 {
    let (dropped, gained) = match *m {
        Move::Add(v) => (None, Some(v)),
        Move::Delete(v) => (Some(v), None),
        Move::Swap(d, a) => (Some(d), Some(a)),
        Move::Replace(_) => unreachable!("Replace moves are priced by the oracle path"),
    };
    let dropped = dropped.filter(|&v| !profile.owns(v, agent));
    let gained = gained.filter(|&v| !network.has_edge(agent, v));
    if dropped.is_none() && gained.is_none() {
        // Degenerate delta: the network (hence the vector) is unchanged,
        // so the pre-scan sum *is* the exact price under either policy.
        return match pricing {
            SpeculativePricing::FullSum => warm.sum(),
            SpeculativePricing::RegionDelta => sum0,
        };
    }
    let mask_buf;
    let mask: &[(NodeId, NodeId)] = match dropped {
        Some(v) => {
            mask_buf = [(agent, v)];
            &mask_buf
        }
        None => &[],
    };
    let view = MaskedEdges::new(network, mask);
    let mark = warm.undo_len();
    warm.begin_speculation();
    if let Some(v) = dropped {
        let w = network
            .edge_weight(agent, v)
            .expect("sole-owned strategy edge must be in the network");
        warm.remove_edge(&view, agent, v, w);
    }
    if let Some(v) = gained {
        warm.speculate_insert(&view, agent, v, game.w(agent, v));
    }
    let sum = frame_price(warm, pricing, sum0, mark);
    warm.rollback();
    sum
}

/// `Σ w(agent, x)` over the candidate set `m` produces from `own`,
/// accumulated in ascending node-id order — the `BTreeSet` iteration
/// order [`candidate_cost`]'s edge term uses, so totals agree bitwise
/// (f64 addition is order-sensitive).
fn candidate_edge_sum(game: &Game, agent: NodeId, own: &BTreeSet<NodeId>, m: &Move) -> f64 {
    let (drop, add) = match *m {
        Move::Add(v) => (None, Some(v)),
        Move::Delete(v) => (Some(v), None),
        Move::Swap(d, a) => (Some(d), Some(a)),
        Move::Replace(_) => unreachable!("Replace moves are priced by the oracle path"),
    };
    let mut sum = 0.0;
    let mut pending = add;
    for &x in own {
        if Some(x) == drop {
            continue;
        }
        if let Some(a) = pending {
            if a < x {
                sum += game.w(agent, a);
                pending = None;
            }
        }
        sum += game.w(agent, x);
    }
    if let Some(a) = pending {
        sum += game.w(agent, a);
    }
    sum
}

/// Prices an explicit move without applying it.
pub fn move_cost(game: &Game, profile: &Profile, agent: NodeId, m: &Move) -> CostBreakdown {
    let base = base_graph_without(game, profile, agent);
    let cand = m.apply(agent, profile.strategy(agent));
    candidate_cost(game, &base, agent, &cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_graph::SymMatrix;

    fn unit_game(n: usize, alpha: f64) -> Game {
        Game::new(SymMatrix::filled(n, 1.0), alpha)
    }

    #[test]
    fn isolated_agent_buys_exactly_one_edge_into_a_star() {
        // Star on 4 nodes around 0 (owned by 0); agent 3 removed from the
        // star and isolated. Its best response for α = 1 is to buy the
        // cheapest connection, via the center (all weights 1, so any single
        // edge to the center is optimal: dist 1 + 2 + 2 vs edge 1).
        let game = unit_game(4, 5.0);
        let mut p = Profile::empty(4);
        p.buy(0, 1);
        p.buy(0, 2);
        let br = exact_best_response(&game, &p, 3);
        assert!(br.improves()); // currently disconnected, cost ∞
        assert_eq!(br.strategy.len(), 1);
        assert!(br.strategy.contains(&0));
        // α·1 + (1 + 2 + 2) = 10.
        assert_eq!(br.cost, 10.0);
    }

    #[test]
    fn low_alpha_buys_everything() {
        // For tiny α the best response is to connect directly to everyone.
        let game = unit_game(5, 0.01);
        let p = Profile::star(5, 0);
        let br = exact_best_response(&game, &p, 2);
        assert_eq!(
            br.strategy.len(),
            3,
            "buy direct edges to all non-neighbors"
        );
        assert!(br.improves());
    }

    #[test]
    fn high_alpha_keeps_nothing_extra() {
        // Star center 0 owns all edges; leaf 1 should buy nothing at high α.
        let game = unit_game(5, 100.0);
        let p = Profile::star(5, 0);
        let br = exact_best_response(&game, &p, 1);
        assert!(!br.improves());
        assert!(br.strategy.is_empty());
    }

    #[test]
    fn exact_br_at_least_as_good_as_greedy() {
        let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, 17);
        let game = Game::new(host, 1.5);
        let mut p = Profile::star(8, 0);
        p.buy(3, 4);
        for agent in 0..8 {
            let br = exact_best_response(&game, &p, agent);
            if let Some((_, g)) = best_greedy_move(&game, &p, agent) {
                assert!(
                    br.cost <= g + 1e-9,
                    "agent {agent}: BR {} > greedy {g}",
                    br.cost
                );
            }
            assert!(br.cost <= br.current_cost + 1e-9);
        }
    }

    #[test]
    fn incremental_matches_reference_cost_exactly() {
        // Bit-for-bit equivalence of the incremental engine against the
        // historical from-scratch engine, across α regimes.
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, seed);
            for alpha in [0.05, 0.6, 1.5, 4.0, 50.0] {
                let game = Game::new(host.clone(), alpha);
                let mut p = Profile::star(8, (seed % 8) as NodeId);
                p.buy(2, 5);
                for agent in 0..8u32 {
                    let inc = exact_best_response(&game, &p, agent);
                    let refr = exact_best_response_reference(&game, &p, agent);
                    assert_eq!(
                        inc.cost, refr.cost,
                        "seed {seed} α {alpha} agent {agent}: {} vs {}",
                        inc.cost, refr.cost
                    );
                    assert_eq!(inc.current_cost, refr.current_cost);
                }
            }
        }
    }

    #[test]
    fn incremental_strategy_achieves_reported_cost() {
        for seed in 0..3u64 {
            let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 5.0, seed + 100);
            let game = Game::new(host, 1.1);
            let mut p = Profile::star(7, 0);
            p.buy(4, 6);
            for agent in 0..7u32 {
                let br = exact_best_response(&game, &p, agent);
                let mut p2 = p.clone();
                p2.set_strategy(agent, br.strategy.clone());
                let real = crate::cost::agent_cost(&game, &p2, agent).total();
                assert!(
                    gncg_graph::approx_eq(real, br.cost),
                    "agent {agent}: {real} vs {}",
                    br.cost
                );
            }
        }
    }

    #[test]
    fn best_greedy_move_finds_add() {
        // Path 0-1-2-3 with unit weights, α = 0.1: endpoints want shortcuts.
        let game = unit_game(4, 0.1);
        let p = Profile::from_owned_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (m, c) = best_greedy_move(&game, &p, 0).expect("improving move exists");
        match m {
            Move::Add(v) => assert!(v == 2 || v == 3),
            other => panic!("expected Add, got {other:?}"),
        }
        assert!(c < agent_cost_in(&game, &p, &p.build_network(&game), 0).total());
    }

    #[test]
    fn best_greedy_move_finds_delete() {
        // Triangle where 0 owns a redundant heavy edge.
        let mut w = SymMatrix::filled(3, 1.0);
        w.set(0, 2, 1.5);
        let game = Game::new(w, 10.0);
        let p = Profile::from_owned_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let (m, _) = best_greedy_move(&game, &p, 0).expect("delete should improve");
        assert_eq!(m, Move::Delete(2));
    }

    #[test]
    fn move_cost_matches_application() {
        let game = unit_game(5, 2.0);
        let p = Profile::star(5, 0);
        let m = Move::Add(2);
        let predicted = move_cost(&game, &p, 1, &m).total();
        let mut p2 = p.clone();
        p2.buy(1, 2);
        let real = crate::cost::agent_cost(&game, &p2, 1).total();
        assert!(gncg_graph::approx_eq(predicted, real));
    }

    #[test]
    fn speculative_scan_matches_oracle_bitwise() {
        // Every greedy move of every agent, across α regimes, with a
        // co-owned edge in play: the speculative scan must return exactly
        // the oracle's chosen move and cost bits, and leave the warm
        // vector untouched.
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, seed);
            for alpha in [0.3, 1.5, 6.0] {
                let game = Game::new(host.clone(), alpha);
                let mut p = Profile::star(8, (seed % 8) as NodeId);
                p.buy(2, 5);
                if !p.owns(5, 2) {
                    p.buy(5, 2); // co-owned: its Delete is a degenerate delta
                }
                let network = p.build_network(&game);
                for agent in 0..8u32 {
                    let moves = Move::greedy_moves(&p, agent);
                    let current = agent_cost_in(&game, &p, &network, agent).total();
                    let mut warm = DynamicSssp::new();
                    warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
                    let spec = best_move_among_speculative_priced(
                        &game,
                        &p,
                        &network,
                        &mut warm,
                        agent,
                        current,
                        &moves,
                        SpeculativePricing::FullSum,
                    );
                    let oracle =
                        best_move_among_given_current(&game, &p, &network, agent, current, &moves);
                    assert_eq!(spec, oracle, "seed {seed} α {alpha} agent {agent}");
                }
            }
        }
    }

    #[test]
    fn region_delta_pricing_matches_oracle_on_clear_instances() {
        // On hosts whose move costs are separated far beyond an ulp, the
        // bounded-horizon policy must choose the oracle's move and report
        // the oracle's exact cost bits — with and without the bucket-queue
        // weight-class hint installed on the warm vector.
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, seed);
            for alpha in [0.3, 1.5, 6.0] {
                let game = Game::new(host.clone(), alpha);
                let mut p = Profile::star(8, (seed % 8) as NodeId);
                p.buy(2, 5);
                if !p.owns(5, 2) {
                    p.buy(5, 2);
                }
                let network = p.build_network(&game);
                for agent in 0..8u32 {
                    let moves = Move::greedy_moves(&p, agent);
                    let current = agent_cost_in(&game, &p, &network, agent).total();
                    let mut warm = DynamicSssp::new();
                    warm.set_weight_class(game.weight_class());
                    warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
                    let rd = best_move_among_speculative_priced(
                        &game,
                        &p,
                        &network,
                        &mut warm,
                        agent,
                        current,
                        &moves,
                        SpeculativePricing::RegionDelta,
                    );
                    let oracle =
                        best_move_among_given_current(&game, &p, &network, agent, current, &moves);
                    assert_eq!(rd, oracle, "seed {seed} α {alpha} agent {agent}");
                }
            }
        }
    }

    #[test]
    fn region_delta_pricing_survives_disconnection() {
        // ∞ churn in the undo log makes the delta price non-finite; the
        // per-candidate fallback must recover the exact full sum.
        let game = unit_game(4, 0.1);
        let p = Profile::from_owned_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let network = p.build_network(&game);
        for agent in 0..4u32 {
            let moves = Move::greedy_moves(&p, agent);
            let current = agent_cost_in(&game, &p, &network, agent).total();
            let mut warm = DynamicSssp::new();
            warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
            let rd = best_move_among_speculative_priced(
                &game,
                &p,
                &network,
                &mut warm,
                agent,
                current,
                &moves,
                SpeculativePricing::RegionDelta,
            );
            let oracle = best_move_among_given_current(&game, &p, &network, agent, current, &moves);
            assert_eq!(rd, oracle, "agent {agent}");
        }
        // Isolated agent: the pre-scan sum is ∞ (sum0 itself non-finite).
        let mut q = Profile::empty(4);
        q.buy(0, 1);
        q.buy(1, 2);
        let network = q.build_network(&game);
        let moves = Move::greedy_moves(&q, 3);
        let current = agent_cost_in(&game, &q, &network, 3).total();
        let mut warm = DynamicSssp::new();
        warm.reset_from(3, &gncg_graph::dijkstra::dijkstra(&network, 3));
        let rd = best_move_among_speculative_priced(
            &game,
            &q,
            &network,
            &mut warm,
            3,
            current,
            &moves,
            SpeculativePricing::RegionDelta,
        );
        let oracle = best_move_among_given_current(&game, &q, &network, 3, current, &moves);
        assert_eq!(rd, oracle);
        assert!(rd.is_some(), "connecting must improve on ∞");
    }

    #[test]
    fn speculative_scan_handles_disconnection_both_ways() {
        // Deleting a bridge prices candidates at ∞; an isolated agent
        // prices its current cost at ∞. Both must match the oracle.
        let game = unit_game(4, 0.1);
        let p = Profile::from_owned_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let network = p.build_network(&game);
        for agent in 0..4u32 {
            let moves = Move::greedy_moves(&p, agent);
            let current = agent_cost_in(&game, &p, &network, agent).total();
            let mut warm = DynamicSssp::new();
            warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
            let spec = best_move_among_speculative_priced(
                &game,
                &p,
                &network,
                &mut warm,
                agent,
                current,
                &moves,
                SpeculativePricing::FullSum,
            );
            let oracle = best_move_among_given_current(&game, &p, &network, agent, current, &moves);
            assert_eq!(spec, oracle, "agent {agent}");
        }
        // Isolated agent 3: every distance but its own is ∞.
        let mut q = Profile::empty(4);
        q.buy(0, 1);
        q.buy(1, 2);
        let network = q.build_network(&game);
        let moves = Move::greedy_moves(&q, 3);
        let current = agent_cost_in(&game, &q, &network, 3).total();
        assert!(current.is_infinite());
        let mut warm = DynamicSssp::new();
        warm.reset_from(3, &gncg_graph::dijkstra::dijkstra(&network, 3));
        let spec = best_move_among_speculative_priced(
            &game,
            &q,
            &network,
            &mut warm,
            3,
            current,
            &moves,
            SpeculativePricing::FullSum,
        );
        let oracle = best_move_among_given_current(&game, &q, &network, 3, current, &moves);
        assert_eq!(spec, oracle);
        assert!(spec.is_some(), "connecting must improve on ∞");
    }

    #[test]
    fn parallel_br_matches_sequential_cost() {
        for seed in 0..3u64 {
            let host = gncg_metrics::arbitrary::random_metric(9, 1.0, 4.0, seed);
            let game = Game::new(host, 1.2);
            let mut p = Profile::star(9, 0);
            p.buy(2, 5);
            p.buy(7, 3);
            for agent in 0..9u32 {
                let seq = exact_best_response(&game, &p, agent);
                let par = exact_best_response_parallel(&game, &p, agent);
                assert_eq!(
                    seq.cost, par.cost,
                    "agent {agent} seed {seed}: {} vs {}",
                    seq.cost, par.cost
                );
                assert_eq!(seq.current_cost, par.current_cost);
                // The parallel strategy must achieve its reported cost.
                let mut p2 = p.clone();
                p2.set_strategy(agent, par.strategy.clone());
                let real = crate::cost::agent_cost(&game, &p2, agent).total();
                assert!(gncg_graph::approx_eq(real, par.cost));
            }
        }
    }

    #[test]
    fn parallel_br_tiny_instance_falls_back() {
        let game = unit_game(4, 1.0);
        let p = Profile::star(4, 0);
        let par = exact_best_response_parallel(&game, &p, 1);
        let seq = exact_best_response(&game, &p, 1);
        assert!(gncg_graph::approx_eq(par.cost, seq.cost));
    }

    #[test]
    fn br_in_matches_br_with_fresh_network() {
        let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, 5);
        let game = Game::new(host, 2.0);
        let p = Profile::star(6, 2);
        let network = p.build_network(&game);
        for agent in 0..6u32 {
            let a = exact_best_response(&game, &p, agent);
            let b = exact_best_response_in(&game, &p, &network, agent);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.strategy, b.strategy);
        }
    }

    #[test]
    fn br_on_weighted_path_prefers_cheap_edges() {
        // Host: metric from a path with increasing weights. Agent n-1
        // disconnected; best single edge should weigh cheapness vs centrality.
        let t = gncg_graph::WeightedTree::path(&[1.0, 1.0, 10.0]);
        let host = t.metric_closure();
        let game = Game::new(host, 1.0);
        let mut p = Profile::empty(4);
        p.buy(0, 1);
        p.buy(1, 2);
        let br = exact_best_response(&game, &p, 3);
        // Buying (3,2) costs α·10 + dist (10 + 11 + 12) — best option is
        // still a connection; exact solver must find the cheapest total.
        assert!(br.cost.is_finite());
        assert!(!br.strategy.is_empty());
        // Verify optimality against brute force over all 7 nonempty subsets.
        let base = base_graph_without(&game, &p, 3);
        let mut brute = f64::INFINITY;
        for mask in 1u32..8 {
            let set: BTreeSet<NodeId> = (0..3)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| i as NodeId)
                .collect();
            let c = candidate_cost(&game, &base, 3, &set).total();
            brute = brute.min(c);
        }
        assert!(gncg_graph::approx_eq(br.cost, brute));
    }
}
