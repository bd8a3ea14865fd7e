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
//!   the moment its last edge is included (zero Dijkstras at leaves) and
//!   the incumbent tightens at internal nodes instead of only at depth
//!   `n−1`;
//! * **pricing and pruning a node take two short vector passes**,
//!   besides its include relaxation. The DFS keeps an id-indexed weight
//!   array beside the chosen stack, `w(u, v)` for each chosen `v` and
//!   `+0.0` elsewhere, set and cleared with the stack. An evaluation sums
//!   it and the live vector in one index-order loop with two
//!   accumulators: adding `+0.0` to a non-negative sum changes no bit, so
//!   the edge sum is [`candidate_cost`]'s, in its ascending-id order, and
//!   the distance sum is [`DynamicSssp::sum`]'s. The pruning test is one
//!   pass over the live vector and a `via` row in [`MoveBound`]'s four
//!   lanes;
//! * the DFS allocates nothing per node (the undo log, chosen stack and
//!   incumbent are reused buffers, and so is the live vector's heap on
//!   graphs of more than 64 nodes), and a fresh search
//!   ([`exact_best_response_given_current`]) allocates nothing but its
//!   result once its thread's buffers have grown: each thread keeps one
//!   set of them — base graph, CSR, candidates, `d0`, the `via` table and
//!   the DFS worker — and every search refills them in place, sized to
//!   its own `n`, so nothing a larger earlier search left behind is read.
//!   Only that function borrows them, and nothing it calls searches
//!   again.
//!
//! # Why the pruning bound is admissible
//!
//! A node at depth `idx` has committed `chosen ⊆ candidates[..idx]`,
//! already priced when the DFS included its last edge, and the live
//! vector `D` holds the distances from `u` in `base ∪ star(chosen)`.
//! Every subset the node's subtree still evaluates is `S = chosen ∪ T`
//! with `∅ ≠ T ⊆ R = candidates[idx..]`. Let `G − u` be the network with
//! every edge at `u` removed, and
//!
//! `LB = α·(w(chosen) + cand_w[idx]) + Σ_x min(D[x], via[idx][x])`,
//! `via[idx][x] = d(u, x)` in `G − u + star(R)`,
//!
//! the distance from `u` when its only edges are the remaining candidate
//! edges `(u, candidates[i])`, `i ≥ idx`. In exact arithmetic
//! `LB ≤ cost(S)`, term by term:
//!
//! 1. **The next edge's price.** `S` buys every edge of `chosen` and at
//!    least one of `R`. Candidates are sorted by weight, weights are
//!    `≥ 0` and `α > 0` ([`Game::new`] asserts both), so
//!    `α·w(S) ≥ α·(w(chosen) + cand_w[idx])`.
//! 2. **Paths through a new edge.** A shortest path from `u` to `x` in
//!    `S`'s network visits `u` once, so only its first edge is at `u`.
//!    Every other edge is a network edge not at `u`: the rest of the path
//!    lies in `G − u`. If the first edge is in `base ∪ star(chosen)`, so
//!    is the whole path, and it is no shorter than `D[x]`. Otherwise it is
//!    a new edge `(u, candidates[i])` with `i ≥ idx`, so the whole path
//!    lies in `G − u + star(R)` and is no shorter than `via[idx][x]`.
//!
//! Each term of the distance sum is the length of some host path from
//! `u` to `x`, so the bound is at least the host-closure bound the
//! reference engine prunes with, and the live `D` tightens it as the DFS
//! descends. `via[idx]` depends only on `idx` (the remaining candidates
//! are a suffix), so it is one table of `len` rows per search, and the
//! bound costs `O(n)` per node. The agent's own entry `via[idx][u]` is 0,
//! its distance to itself; `D[u] = 0` too, so the entry is inert.
//!
//! # Building the table
//!
//! Row `idx` extends row `idx + 1` by one star edge, so one vector grows
//! the whole table back to front. It starts with `u` at 0 and every other
//! node at `∞` (the distances in `G − u`); for `i = len − 1, …, 0` it
//! relaxes the star edge `(u, candidates[i])` decrease-only and is copied
//! into row `i`. The relaxation runs over the agent's base graph itself,
//! edges at `u` included: `u` stays at 0, which no relaxation lowers, so
//! `u` is never scanned and its edges never carry a path (the contract of
//! [`DynamicSssp::relax_insert`] for an edge at the source). One
//! decrease-only relaxation per candidate, each touching only the nodes
//! its edge brings closer, replaces the `n − 1` Dijkstras on a copy of
//! `G − u` that [`bound_table_reference`] folds; that fold stays as the
//! table's oracle.
//!
//! # Rounding
//!
//! Every distance is the exact minimum over paths of their left-to-right
//! `f64` prefix sums (see `gncg_graph::csr`). So is each `via` term: a
//! path through a new edge is summed from `u`, left to right, exactly as
//! `S`'s own Dijkstra sums it. Both cases of step 2 therefore hold bit
//! for bit, `min(D[x], via[idx][x]) ≤ d_S(u, x)` in `f64`, and since
//! rounded addition is monotone, the index-order sum of these terms is at
//! most `S`'s distance sum. Neither sum in `LB` is taken in `S`'s order,
//! so `LB` bounds `cost(S)` only up to rounding. With `ε` =
//! [`f64::EPSILON`], `u₀ = ε/2`, `γ = (1 + u₀)/(1 − u₀)`, and every finite
//! sum below `f64::MAX`:
//!
//! * the DFS accumulates `w(chosen)` in include order where
//!   [`candidate_cost`] sums ascending node ids; both edge sums have at
//!   most `n − 1` terms, and the product with `α` rounds once on each
//!   side, so the bound's edge term is at most `γ^(n−1)` times `S`'s;
//! * the bound adds its `n` distance terms in [`MoveBound`]'s four lanes,
//!   not in index order. Any order of `n` non-negative terms rounds
//!   within `(1 ± u₀)^(n−1)` of their exact sum ([`MoveBound`]'s
//!   "Rounding", step 2), so the laned sum is at most `γ^(n−1)` times the
//!   index-order one, hence `γ^(n−1)` times `S`'s distance sum: the same
//!   factor as the edge term;
//! * one more rounding of each total gives `LB ≤ γ^n·cost(S)`.
//!
//! [`certify_agents_in`](crate::equilibrium::certify_agents_in) proves
//! its `1 − 8nε` margin against the larger factor `γ^(2n−2)`, so the same
//! margin serves here: a node is pruned when `LB·(1 − 8nε) ≥ best − EPS`
//! ([`MoveBound::rules_out`]), which puts every `S` below it at or above
//! `fl(best − EPS)`, where [`strictly_less`] says it cannot replace the
//! incumbent `best`.
//! Infinities need no margin:
//! `LB = ∞` means an infinite edge term (every remaining candidate's
//! weight is `∞` once `cand_w[idx]` is) or a node no subset below reaches
//! at finite length, so every `S` below prices at `∞` too.
//!
//! The incumbent only ever falls, so a subset pruned against it could not
//! have replaced a later incumbent either. Any admissible bound therefore
//! leaves the DFS's sequence of incumbents, hence its result, bitwise
//! unchanged; only [`BestResponse::evaluated`] depends on the bound.
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

use std::cell::RefCell;
use std::collections::BTreeSet;

use gncg_graph::{
    strictly_less, AdjacencyList, Csr, DijkstraScratch, DynamicSssp, MaskedEdges, NodeId,
};

use crate::cost::{
    agent_cost_in, base_graph_from, base_graph_without, candidate_cost, refill_base_graph,
    CostBreakdown, MoveBound,
};
use crate::moves::{MoveSpace, StrategyTables};
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

/// The buffers of one fresh search, refilled in place for every search by
/// [`BrSearch::build`]: the agent's base graph and its CSR snapshot, the
/// candidate and bound tables, and the DFS worker. Each thread keeps one
/// for [`exact_best_response_given_current`] (module docs, "The
/// incremental engine"). The DFS itself runs on the borrowed
/// [`BrSearchView`], which a persistent [`BrBoundCache`] also assembles
/// from its delta-maintained resident tables.
#[derive(Debug, Default)]
struct BrSearch {
    agent: NodeId,
    n: usize,
    alpha: f64,
    /// The base graph (network minus the agent's sole-owned edges).
    base: AdjacencyList,
    /// CSR snapshot of `base`; all incremental relaxation runs on it.
    csr: Csr,
    /// Candidates sorted by increasing host weight from the agent.
    candidates: Vec<NodeId>,
    /// `w(agent, candidates[i])`, parallel to `candidates`.
    cand_w: Vec<f64>,
    /// Distances from the agent in the bare base graph.
    d0: Vec<f64>,
    /// The pruning bound's table (module docs), `len` rows of `n`:
    /// `via[idx·n + x]` is the distance from the agent to `x` in
    /// `G − u + star(candidates[idx..])`.
    via: Vec<f64>,
    /// The host's weight class, installed as the bucket-queue hint on
    /// the search's SSSP engines ([`Game::weight_class`]).
    weight_class: Option<(f64, f64)>,
    /// Runs the Dijkstra behind `d0`.
    scratch: DijkstraScratch,
    /// The DFS state; its live vector also grows `via`.
    worker: BrWorker,
}

thread_local! {
    /// This thread's fresh-search buffers. Only
    /// [`exact_best_response_given_current`] borrows them, and nothing it
    /// calls searches again, so the borrow never nests.
    static SEARCH: RefCell<BrSearch> = RefCell::new(BrSearch::default());
}

/// Borrowed read-only state shared by every branch of one best-response
/// search — the immutable half of the engine, split out so the fresh path
/// ([`BrSearch`]) and the persistent cached path ([`BrBoundCache`]) drive
/// the *same* DFS over the same invariants.
#[derive(Clone, Copy)]
struct BrSearchView<'g> {
    agent: NodeId,
    n: usize,
    alpha: f64,
    /// The pruning test, with its `1 − 8nε` margin.
    bound: MoveBound,
    csr: &'g Csr,
    candidates: &'g [NodeId],
    cand_w: &'g [f64],
    via: &'g [f64],
}

/// Mutable DFS state of one search: the live vector, the chosen set and
/// the incumbent.
#[derive(Debug, Default)]
struct BrWorker {
    inc: DynamicSssp,
    chosen: Vec<NodeId>,
    /// `w(agent, v)` for each chosen `v`, `+0.0` elsewhere, indexed by
    /// node id. Evaluation sums it in ascending id order beside the live
    /// vector: adding `+0.0` to a non-negative sum changes no bit, so the
    /// edge sum is bit for bit [`candidate_cost`]'s, in its `BTreeSet`
    /// order.
    chosen_w: Vec<f64>,
    best_cost: f64,
    /// The incumbent's targets, when it is not the agent's current
    /// strategy (`best_is_current`).
    best_chosen: Vec<NodeId>,
    best_is_current: bool,
    evaluated: usize,
}

impl BrWorker {
    /// Re-arms the worker for one search: live vector seeded from `d0`,
    /// incumbent seeded from the agent's current strategy and cost.
    fn reset(
        &mut self,
        agent: NodeId,
        n: usize,
        d0: &[f64],
        weight_class: Option<(f64, f64)>,
        current: f64,
    ) {
        self.chosen.clear();
        self.chosen_w.clear();
        self.chosen_w.resize(n, 0.0);
        self.best_cost = current;
        self.best_chosen.clear();
        self.best_is_current = true;
        self.evaluated = 0;
        self.inc.set_weight_class(weight_class);
        self.inc.reset_from(agent, d0);
    }

    /// The search's answer: the incumbent, whose strategy is
    /// `current_set` unless the search replaced it.
    fn take_result(&self, current: f64, current_set: &BTreeSet<NodeId>) -> BestResponse {
        BestResponse {
            strategy: if self.best_is_current {
                current_set.clone()
            } else {
                self.best_chosen.iter().copied().collect()
            },
            cost: self.best_cost,
            current_cost: current,
            evaluated: self.evaluated,
        }
    }
}

impl BrSearch {
    /// Refills every table for `agent` from `self.base`, which the caller
    /// has just refilled with the agent's base graph: the candidates, the
    /// CSR, `d0`, and the bound table, grown back to front over the base
    /// graph (module docs, "Building the table") in the worker's live
    /// vector, which every search re-arms. Debug builds check the table
    /// against the fold it is grown instead of.
    fn build(&mut self, game: &Game, agent: NodeId) {
        let n = game.n();
        self.agent = agent;
        self.n = n;
        self.alpha = game.alpha();
        self.weight_class = game.weight_class();
        sort_candidates(game, agent, &mut self.candidates, &mut self.cand_w);

        self.csr.refill(&self.base);
        self.scratch.set_weight_class(self.weight_class);
        self.scratch.run(&self.csr, agent, &[]);
        self.d0.clear();
        self.d0.resize(n, f64::INFINITY);
        self.scratch.write_distances(&mut self.d0);

        let grow = &mut self.worker.inc;
        grow.reset_alone(agent, n);
        self.via.clear();
        self.via.resize(self.candidates.len() * n, f64::INFINITY);
        for (i, row) in self.via.chunks_exact_mut(n).enumerate().rev() {
            grow.relax_insert(&self.csr, agent, self.candidates[i], self.cand_w[i]);
            row.copy_from_slice(grow.dist());
        }
        #[cfg(debug_assertions)]
        assert_table_matches_fold(
            &self.via,
            &bound_table_reference(game, &self.base, agent),
            n,
            agent,
        );
    }

    /// The agent's exact best response off the built tables, the
    /// incumbent seeded from its `current` cost and strategy.
    fn run(&mut self, current: f64, current_set: &BTreeSet<NodeId>) -> BestResponse {
        let worker = &mut self.worker;
        worker.reset(self.agent, self.n, &self.d0, self.weight_class, current);
        let view = BrSearchView::new(
            self.alpha,
            self.agent,
            &self.csr,
            &self.candidates,
            &self.cand_w,
            &self.via,
        );
        view.search(worker);
        worker.take_result(current, current_set)
    }
}

/// Refills `candidates` with the agent's candidate targets, every other
/// node sorted by increasing host weight from it, and `cand_w` with those
/// weights.
fn sort_candidates(
    game: &Game,
    agent: NodeId,
    candidates: &mut Vec<NodeId>,
    cand_w: &mut Vec<f64>,
) {
    candidates.clear();
    candidates.extend((0..game.n() as NodeId).filter(|&v| v != agent));
    candidates.sort_by(|&a, &b| game.w(agent, a).total_cmp(&game.w(agent, b)));
    cand_w.clear();
    cand_w.extend(candidates.iter().map(|&v| game.w(agent, v)));
}

/// Refills `out` with `g` less every edge at `u`, keeping `out`'s
/// allocations: `G − u` when `g` is the network or a base graph of `u`,
/// which differ from it only in edges at `u`.
fn refill_without_edges_at(out: &mut AdjacencyList, g: &AdjacencyList, u: NodeId) {
    out.clone_from(g);
    for &(v, _) in g.neighbors(u) {
        out.remove_edge(u, v);
    }
}

/// The pruning bound's table for `agent` on its base graph `base`, as the
/// exact best response builds it (module docs): `len = n − 1` rows of
/// `n`, row `i` the distances from `agent` in
/// `G − u + star(candidates[i..])`, with candidates sorted by increasing
/// weight from the agent.
pub fn bound_table(game: &Game, base: &AdjacencyList, agent: NodeId) -> Vec<f64> {
    let mut search = BrSearch::default();
    search.base.clone_from(base);
    search.build(game, agent);
    search.via
}

/// The table [`bound_table`] grows, folded the slow way: one Dijkstra per
/// candidate `c_i` on a copy of `G − u`, and row
/// `i = min(cand_w[i] + d_{G−u}(c_i, ·), row i + 1)`, back to front. It
/// sums each path from its second node, so its entries match the grown
/// ones within rounding only, and its agent column is `∞` where the grown
/// table's is 0 (`u` is isolated in `G − u`). Kept as the grown table's
/// oracle: debug builds compare every table the search builds with it.
pub fn bound_table_reference(game: &Game, base: &AdjacencyList, agent: NodeId) -> Vec<f64> {
    let n = game.n();
    let (mut candidates, mut cand_w) = (Vec::new(), Vec::new());
    sort_candidates(game, agent, &mut candidates, &mut cand_w);
    let mut g_minus_u = AdjacencyList::default();
    refill_without_edges_at(&mut g_minus_u, base, agent);
    let mut scratch = DijkstraScratch::new();
    let mut via = vec![f64::INFINITY; (candidates.len() + 1) * n];
    for i in (0..candidates.len()).rev() {
        scratch.run(&g_minus_u, candidates[i], &[]);
        // Row `i` folds over row `i + 1`, laid out right behind it.
        let (row, next) = via[i * n..(i + 2) * n].split_at_mut(n);
        for (x, (slot, &suffix)) in row.iter_mut().zip(next.iter()).enumerate() {
            *slot = (cand_w[i] + scratch.dist(x as NodeId)).min(suffix);
        }
    }
    // Drop the all-∞ row the fold started from.
    via.truncate(candidates.len() * n);
    via
}

/// The debug oracle of the grown table: every entry `g` off the agent's
/// column sits within the `1 − 8nε` margin of the fold's `f` both ways
/// (`g·(1 − 8nε) ≤ f` and `f·(1 − 8nε) ≤ g`), and is `∞` exactly where
/// `f` is. Both are minima over the same paths, summed from `u` or from
/// the path's second node, so they differ by at most `γ^(n−2)` (module
/// docs, "Rounding").
#[cfg(debug_assertions)]
fn assert_table_matches_fold(grown: &[f64], fold: &[f64], n: usize, agent: NodeId) {
    assert_eq!(grown.len(), fold.len());
    let margin = 1.0 - 8.0 * n as f64 * f64::EPSILON;
    for (i, (&g, &f)) in grown.iter().zip(fold).enumerate() {
        if i % n == agent as usize {
            continue;
        }
        assert!(
            g.is_infinite() == f.is_infinite() && g * margin <= f && f * margin <= g,
            "bound table of agent {agent}: row {} node {} grew to {g}, the fold reads {f}",
            i / n,
            i % n
        );
    }
}

impl<'g> BrSearchView<'g> {
    /// The view of one search's tables, for a game of price `alpha` on
    /// `csr.n()` nodes.
    fn new(
        alpha: f64,
        agent: NodeId,
        csr: &'g Csr,
        candidates: &'g [NodeId],
        cand_w: &'g [f64],
        via: &'g [f64],
    ) -> Self {
        let n = csr.n();
        BrSearchView {
            agent,
            n,
            alpha,
            bound: MoveBound::new(n),
            csr,
            candidates,
            cand_w,
            via,
        }
    }

    /// Whether no subset below the node at depth `idx < len` can replace
    /// the incumbent: the module docs' bound `LB`, its distance sum added
    /// in [`MoveBound`]'s four lanes and shrunk by the `1 − 8nε` rounding
    /// margin, is at least `best − EPS`. `MoveBound::reach` with a zero
    /// weight sums `min(D[x], via[idx][x])`, since `0.0 + via` is `via`.
    #[inline]
    fn prunes(&self, worker: &BrWorker, idx: usize, edge_w_sum: f64) -> bool {
        let via_row = &self.via[idx * self.n..(idx + 1) * self.n];
        let reach = MoveBound::reach(worker.inc.dist(), 0.0, via_row);
        let edge = self.alpha * (edge_w_sum + self.cand_w[idx]);
        self.bound
            .rules_out(edge, reach, worker.best_cost - gncg_graph::EPS)
    }

    /// Prices the worker's current chosen set off the live vector and
    /// tightens the incumbent: one index-order pass sums the chosen
    /// weights (ascending node ids, not DFS order, so totals match
    /// [`candidate_cost`] exactly — f64 addition is order-sensitive) and
    /// the live vector (in [`DynamicSssp::sum`]'s order) side by side.
    #[inline]
    fn evaluate_current(&self, worker: &mut BrWorker) {
        let (mut edge_sum, mut dist_sum) = (0.0, 0.0);
        for (&w, &d) in worker.chosen_w.iter().zip(worker.inc.dist()) {
            edge_sum += w;
            dist_sum += d;
        }
        let cost = self.alpha * edge_sum + dist_sum;
        worker.evaluated += 1;
        if strictly_less(cost, worker.best_cost) {
            worker.best_cost = cost;
            worker.best_is_current = false;
            worker.best_chosen.clear();
            worker.best_chosen.extend_from_slice(&worker.chosen);
        }
    }

    /// The whole search, on a worker re-armed for it: the empty set is
    /// the one subset with no include step, so it is priced here, and the
    /// DFS prices the rest.
    fn search(&self, worker: &mut BrWorker) {
        self.evaluate_current(worker);
        self.dfs(worker, 0, 0.0);
    }

    /// DFS over include/exclude decisions from `idx` onward. The chosen
    /// set at entry has already been evaluated; `worker.inc` holds its
    /// exact distance vector.
    fn dfs(&self, worker: &mut BrWorker, idx: usize, edge_w_sum: f64) {
        // With no candidate left the chosen set is the only subset here,
        // and it is priced; a pruned node's subsets are all dominated.
        if idx == self.candidates.len() || self.prunes(worker, idx, edge_w_sum) {
            return;
        }
        let v = self.candidates[idx];
        let w = self.cand_w[idx];
        // Branch 1: include v — relax incrementally, price the new set.
        worker.inc.add_edge(self.csr, self.agent, v, w);
        worker.chosen.push(v);
        worker.chosen_w[v as usize] = w;
        self.evaluate_current(worker);
        self.dfs(worker, idx + 1, edge_w_sum + w);
        worker.chosen_w[v as usize] = 0.0;
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
/// state per call, in buffers its thread keeps (module docs, "The
/// incremental engine"), so once they have grown a call allocates only
/// its result: the from-scratch ancestor of [`BrBoundCache`], and the
/// baseline the `br_grid` bench times it against.
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
    SEARCH.with_borrow_mut(|search| {
        refill_base_graph(&mut search.base, network, profile, agent);
        search.build(game, agent);
        search.run(current, profile.strategy(agent))
    })
}

/// Committed removals a [`BrBoundCache`] absorbs as bound staleness
/// before its next activation triggers a full bound-table rebuild.
///
/// Each removal the cache leaves unrepaired keeps one *phantom* edge in
/// the envelope graph its bound rows are exact for, which can only make
/// the pruning bound *lower* — weaker pruning, never a wrong answer — so
/// the budget trades table rebuilds against DFS nodes. The
/// value is a plain constant, not a tuning surface: results are bitwise
/// identical at any budget (see `tests/br_cache.rs`).
pub const BR_STALENESS_BUDGET: usize = 16;

/// Persistent per-agent branch-and-bound state for
/// [`exact_best_response`]: the sorted candidate list, the exact base
/// distances `d0`, and the per-suffix bound rows behind the `via` table
/// (row `i` the distances from the agent in `G − u + star(candidates[i..])`,
/// module docs) survive from activation to activation and are
/// delta-maintained through the same committed `NetworkDelta` staging
/// that keeps the dynamics engine's warm vectors alive — replacing the
/// Dijkstra, the table growth and the CSR snapshot `BrSearch` pays per
/// activation.
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
/// * **The bound rows only feed the pruning bound**, so they never need
///   to track the live `G − u` exactly — but "stale yet admissible" is
///   subtler than leaving removal repairs undone. A decrease-only insert
///   replay into a vector that is merely *below* the truth can stop
///   propagating at a stale-low node and leave some *other* node
///   **above** the truth — an inadmissible bound. The cache therefore
///   keeps row `i` **exact for** `Ĝ + star(candidates[i..])`, with the
///   **envelope graph** `Ĝ = (G − u)(at last rebuild) ∪ {inserts since}`:
///   a rebuild grows the rows over `Ĝ` as a fresh search grows its table,
///   insert replays relax each batch into every row over `Ĝ` alone (the
///   star edges are at the rows' source, which
///   [`DynamicSssp::relax_inserts`]'s exactness contract lets `Ĝ` omit),
///   and removals simply *keep* the removed edge in `Ĝ` (a *phantom*
///   edge). Since the live `G − u` is always a subgraph of `Ĝ`, each row
///   is pointwise at most its fresh counterpart and the bound stays
///   admissible — each phantom edge just makes it lower, hence weaker.
///   Past [`BR_STALENESS_BUDGET`] phantoms the next activation rebuilds
///   the tables from scratch.
///
/// * **`G − u` does not change when an edge at the agent does.** The
///   agent's own purchases and drops, other agents' edges to it, and
///   ownership flips of its edges never enter `Ĝ`, so only edges
///   between two other agents move the envelope.
///
/// Because weaker pruning evaluates a *superset* of the subsets the
/// fresh search evaluates — all of them dominated within the search's
/// `EPS` acceptance — the chosen strategy and its cost are **bitwise
/// identical** to a fresh `BrSearch`, which stays resident as the
/// debug oracle: every cached search re-derives the fresh tables under
/// `debug_assertions`, asserts `d0` bitwise-equal, asserts the cached
/// `via` bound admissible (≤ fresh) per node, and compares the chosen
/// best response and cost bit for bit.
///
/// The cache keeps no result memo: every [`BrBoundCache::best_response`]
/// call searches. Re-probes with no commit since the agent was last
/// priced are answered above it, by the dynamics engine's pricing memo,
/// which serves all three response rules.
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
    /// CSR snapshot of `base` for the DFS hot loop; refilled lazily when
    /// `base` changed since the last search.
    csr: Csr,
    csr_dirty: bool,
    /// Exact distances from the agent in `base`.
    d0: DynamicSssp,
    /// How many engine insert-log entries `d0` already reflects.
    d0_synced: usize,
    /// The envelope graph `Ĝ` the bound rows are exact for (see the type
    /// docs): monotonically grown by insert replays, never shrunk, and
    /// never holding an edge at the agent.
    ghat: AdjacencyList,
    /// Edges of `Ĝ` no longer in the live network (normalized pairs) —
    /// the staleness the budget counts.
    phantom: Vec<(NodeId, NodeId)>,
    /// Per-suffix bound rows (`rows[i]` from source `agent`), row `i`
    /// exact for `Ĝ + star(candidates[i..])`.
    rows: Vec<DynamicSssp>,
    /// How many engine insert-log entries the bound rows reflect.
    rows_synced: usize,
    /// The rows, copied flat for the DFS (same layout as
    /// [`BrSearch::via`]); refreshed in one `O(n²)` copy when dirty.
    via: Vec<f64>,
    via_dirty: bool,
    /// Reusable DFS worker (live vector, chosen stack, incumbent).
    worker: BrWorker,
    scratch: DijkstraScratch,
    dist_buf: Vec<f64>,
    batch: Vec<(NodeId, NodeId, f64)>,
    weight_class: Option<(f64, f64)>,
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
            csr: Csr::default(),
            csr_dirty: false,
            d0: DynamicSssp::new(),
            d0_synced: 0,
            ghat: AdjacencyList::default(),
            phantom: Vec::new(),
            rows: Vec::new(),
            rows_synced: 0,
            via: Vec::new(),
            via_dirty: false,
            worker: BrWorker::default(),
            scratch: DijkstraScratch::new(),
            dist_buf: Vec::new(),
            batch: Vec::new(),
            weight_class: None,
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
    }

    /// Bytes resident in the cache's tables — the bound rows dominate
    /// (`n − 1` SSSP engines of `Θ(n)` floats each).
    pub fn resident_bytes(&self) -> usize {
        self.d0.resident_bytes()
            + self
                .rows
                .iter()
                .map(DynamicSssp::resident_bytes)
                .sum::<usize>()
            + self.via.capacity() * std::mem::size_of::<f64>()
            + self.phantom.capacity() * std::mem::size_of::<(NodeId, NodeId)>()
    }

    /// Makes the tables current for the live `network`: a full rebuild
    /// when unbuilt or past the staleness budget, otherwise one lazy
    /// replay of the pending committed-insert suffix into `d0` and the
    /// bound rows.
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
        self.sync_rows(network, insert_log);
    }

    /// Rebuilds every table from the live network — the same
    /// construction as [`BrSearch::new`], kept as the oracle path — into
    /// the cache's own buffers: the base graph, `Ĝ` and the CSR are
    /// refilled in place.
    fn rebuild(&mut self, game: &Game, profile: &Profile, network: &AdjacencyList, log_len: usize) {
        let n = game.n();
        let agent = self.agent;
        self.n = n;
        self.weight_class = game.weight_class();
        self.scratch.set_weight_class(self.weight_class);

        sort_candidates(game, agent, &mut self.candidates, &mut self.cand_w);

        refill_base_graph(&mut self.base, network, profile, agent);
        self.csr.refill(&self.base);
        self.csr_dirty = false;
        self.scratch.run(&self.base, agent, &[]);
        self.dist_buf.clear();
        self.dist_buf.resize(n, f64::INFINITY);
        self.scratch.write_distances(&mut self.dist_buf);
        self.d0.set_weight_class(self.weight_class);
        self.d0.reset_from(agent, &self.dist_buf);

        // A fresh envelope graph is exactly G − u.
        refill_without_edges_at(&mut self.ghat, &self.base, agent);
        self.phantom.clear();

        // The rows grow back to front over Ĝ, as BrSearch grows its
        // table, in the DFS's live vector (every search re-arms it), so
        // only the live vector's heap grows with the relaxations, and
        // only on graphs of more than 64 nodes.
        let len = self.candidates.len();
        if self.rows.len() < len {
            self.rows.resize_with(len, DynamicSssp::new);
        }
        let grow = &mut self.worker.inc;
        grow.reset_alone(agent, n);
        for i in (0..len).rev() {
            grow.relax_insert(&self.ghat, agent, self.candidates[i], self.cand_w[i]);
            self.rows[i].reset_from(agent, grow.dist());
        }
        self.rebuild_via();

        self.d0_synced = log_len;
        self.rows_synced = log_len;
        self.built = true;
    }

    /// Refreshes the flat `via` table from the resident rows: a copy, so a
    /// phantom-free cache reproduces the fresh table bit for bit.
    fn rebuild_via(&mut self) {
        let len = self.candidates.len();
        self.via.clear();
        for row in &self.rows[..len] {
            self.via.extend_from_slice(row.dist());
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

    /// Lazily replays pending committed inserts into the bound rows: each
    /// genuinely new edge enters the envelope graph `Ĝ` and is relaxed —
    /// exactly — into every row in one batch, over `Ĝ` alone (a row's
    /// star edges are at its source); an edge `Ĝ` kept through an interim
    /// removal merely stops being phantom (the rows are already exact for
    /// it).
    fn sync_rows(&mut self, network: &AdjacencyList, insert_log: &[(NodeId, NodeId, f64)]) {
        if self.rows_synced >= insert_log.len() {
            return;
        }
        self.batch.clear();
        for &(a, b, w) in &insert_log[self.rows_synced..] {
            if a == self.agent || b == self.agent {
                // Edges at the agent are not in G − u.
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
            for row in &mut self.rows[..len] {
                row.relax_inserts(&self.ghat, &self.batch);
            }
            self.via_dirty = true;
        }
        self.rows_synced = insert_log.len();
    }

    /// Notes a committed edge-insertion batch by `mover` (the edges are
    /// live in the network). Base bookkeeping is eager and `O(1)` per
    /// edge; the SSSP repairs stay lazy behind the cursors. A batch by
    /// the cache's own agent is sole-owned by construction — outside the
    /// base graph, and at the agent, so outside `Ĝ` — and is a no-op.
    pub fn on_inserts(&mut self, inserts: &[(NodeId, NodeId, f64)], mover: NodeId) {
        if !self.built || mover == self.agent {
            return;
        }
        for &(a, b, w) in inserts {
            if !self.base.has_edge(a, b) {
                self.base.add_edge(a, b, w);
                self.csr_dirty = true;
            }
        }
    }

    /// Notes committed removals by `mover`, already applied to the
    /// network; [`BrBoundCache::flush_d0`] must have run first. `d0` is
    /// repaired exactly in one batched affected-region pass; the bound
    /// rows instead keep each removed edge in `Ĝ` as a phantom
    /// (admissible staleness — see the type docs). A batch by the
    /// cache's own agent is a no-op (sole-owned drops were never in the
    /// base graph, and edges at the agent are never in `Ĝ`).
    pub fn on_removals(&mut self, removed: &[(NodeId, NodeId, f64)], mover: NodeId) {
        if !self.built || mover == self.agent {
            return;
        }
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
    /// cache's base/`d0` change; `Ĝ` never holds an edge at the agent.
    pub fn gain_co_owned(&mut self, other: NodeId, w: f64, insert_log: &[(NodeId, NodeId, f64)]) {
        if !self.built {
            return;
        }
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
    /// CSR snapshot, Dijkstra and table growth. Requires a prior
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
        if self.csr_dirty {
            self.csr.refill(&self.base);
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
        );
        let view = BrSearchView::new(
            game.alpha(),
            self.agent,
            &self.csr,
            &self.candidates,
            &self.cand_w,
            &self.via,
        );
        view.search(worker);
        let result = worker.take_result(current, profile.strategy(self.agent));
        #[cfg(debug_assertions)]
        self.assert_matches_fresh(game, profile, network, current, &result);
        #[cfg(not(debug_assertions))]
        let _ = network;
        result
    }

    /// The cache's oracle: rebuild the per-activation search state from
    /// scratch, in a search of its own, and require (a) the lock-step
    /// base graph, (b) a bitwise `d0`, (c) per-node bound admissibility
    /// (cached `via` ≤ fresh `via` — the fresh table is exact for the
    /// live `G − u`, so `≤` *is* admissibility), bitwise equality while
    /// no phantom is held (`Ĝ` is then the live `G − u`), and (d) a
    /// bitwise-identical chosen strategy and cost.
    #[cfg(debug_assertions)]
    fn assert_matches_fresh(
        &self,
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        current: f64,
        got: &BestResponse,
    ) {
        let mut search = BrSearch::default();
        refill_base_graph(&mut search.base, network, profile, self.agent);
        let mut a: Vec<_> = self.base.edges().collect();
        let mut b: Vec<_> = search.base.edges().collect();
        a.sort_by_key(|e| (e.0, e.1));
        b.sort_by_key(|e| (e.0, e.1));
        assert_eq!(
            a, b,
            "BrBoundCache base graph of agent {} drifted from base_graph_from",
            self.agent
        );
        search.build(game, self.agent);
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
            assert!(
                !self.phantom.is_empty() || cached.to_bits() == fresh.to_bits(),
                "phantom-free cached bound for agent {}: via[{}] = {} != fresh {}",
                self.agent,
                i,
                cached,
                fresh
            );
        }
        let fresh = search.run(current, profile.strategy(self.agent));
        assert_eq!(
            got.strategy, fresh.strategy,
            "cached best response of agent {} diverged from a fresh BrSearch",
            self.agent
        );
        assert_eq!(
            got.cost.to_bits(),
            fresh.cost.to_bits(),
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

/// The pricing policy a speculative move scan
/// ([`best_move_among_speculative_priced`]) runs under, with what it reads
/// besides the agent's own warm vector.
#[derive(Clone, Copy, Debug)]
pub enum ScanPricing<'r> {
    /// [`SpeculativePricing::FullSum`], bound-first: entry `a` of the rows
    /// must hold agent `a`'s exact distance vector in the scanned network
    /// (bitwise what a fresh Dijkstra produces — the dynamics engine's
    /// synced warm vectors), one row per node.
    FullSum(&'r [DynamicSssp]),
    /// [`SpeculativePricing::RegionDelta`], which reads no rows and rules
    /// nothing out.
    RegionDelta,
}

impl ScanPricing<'_> {
    /// The policy, without its rows.
    pub fn policy(self) -> SpeculativePricing {
        match self {
            ScanPricing::FullSum(_) => SpeculativePricing::FullSum,
            ScanPricing::RegionDelta => SpeculativePricing::RegionDelta,
        }
    }
}

/// The buffers a [`best_move_among_speculative_priced`] call works in,
/// kept across calls so that a scan allocates nothing once they have
/// grown: the scanned agent's [`StrategyTables`], one price per position
/// of the move space, the deletes awaiting their swap run, and the
/// FullSum bound tables.
///
/// An activation loads the tables once ([`ScanScratch::load`]) and scans
/// with the same scratch.
#[derive(Debug, Default)]
pub struct ScanScratch {
    tables: StrategyTables,
    prices: Vec<Option<f64>>,
    deferred: Vec<Option<(usize, f64)>>,
    bounds: BoundTables,
}

impl ScanScratch {
    /// Reads `agent`'s strategy in `profile`, and its neighbours in
    /// `network`, into the scratch's tables ([`StrategyTables::load`]).
    pub fn load(&mut self, game: &Game, profile: &Profile, network: &AdjacencyList, agent: NodeId) {
        self.tables.load(game, profile, network, agent);
    }

    /// Bytes the scratch holds.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tables.resident_bytes()
            + self.prices.capacity() * size_of::<Option<f64>>()
            + self.deferred.capacity() * size_of::<Option<(usize, f64)>>()
            + self.bounds.resident_bytes()
    }
}

/// The best strictly improving move of `agent` in `space` — what
/// [`best_move_among_given_current`] returns over [`MoveSpace::moves`] —
/// evaluated **speculatively** against the agent's warm distance vector
/// instead of one masked Dijkstra per candidate.
///
/// `warm` must hold the agent's exact distance vector in `network`
/// (source `agent`, bitwise what a fresh Dijkstra produces — e.g. the
/// dynamics engine's warm per-agent vector), and `current` the agent's
/// exact current total cost. Each move is priced by the
/// speculation-frame lifecycle of `gncg_graph::csr`:
///
/// 1. **apply** — open a frame and stage the move's network-level edge
///    delta on the vector: a dropped sole-owned edge is a logged
///    Ramalingam–Reps repair over a [`MaskedEdges`] view of `network`
///    (the graph itself is never mutated), a genuinely new edge is a
///    logged source-incident relaxation;
/// 2. **read** — the candidate's distance cost is the warm sum, in the
///    same index order the oracle sums its Dijkstra vector, and its edge
///    cost sums the agent's pair table in the same ascending node-id
///    order as [`candidate_cost`]'s `BTreeSet` iteration, bit for bit;
/// 3. **rollback** — the frame restores the pre-move vector bitwise, so
///    the next candidate starts from the same warm state.
///
/// Degenerate deltas (dropping a co-owned edge, gaining an
/// already-present one) change no distances and read the current sum
/// directly.
///
/// # The walk
///
/// The scan reads the agent's strategy only through `scratch`'s
/// [`StrategyTables`], which must be loaded for `agent` in `profile` and
/// `network` ([`ScanScratch::load`]; debug builds check it), and walks
/// `space` straight off them in its canonical order: the adds and
/// deletes in ascending node order, a merge of the owned and the free
/// table, then one *swap run* per owned target over the free nodes. Each
/// price lands at its move's position ([`StrategyTables`], "Positions");
/// only the winner is named as a [`Move`], at the end. Whether a dropped
/// edge is co-owned or a gained edge already present is one bit of the
/// co-owner or neighbour bitmap. The prices, the deferred deletes and the
/// bound tables live in the same scratch, so once they have grown a scan
/// allocates nothing.
///
/// # Price first, select second
///
/// The walk computes the candidates' prices; a selection pass then
/// visits the positions in order and keeps each price that is
/// [`strictly_less`] than the incumbent — the oracle's rule — so the
/// order in which prices were computed can never change a tie-break. A
/// swap run dropping a sole-owned edge `(agent, d)` repairs the removal
/// once in an outer frame and prices each gained edge in an inner one;
/// `Delete(d)` waits for that run and is read off its outer frame. An
/// agent that owns every other node has no swaps, and each of its
/// sole-owned deletes prices in a frame of its own.
///
/// # Bound-first pricing
///
/// Under [`ScanPricing::FullSum`] a move is skipped unpriced, with no
/// frame opened, when a lower bound on its price reaches `floor`: the
/// least of `current` and every price computed so far for a move at an
/// earlier position. An incumbent is never more than `EPS` above the
/// least price before it, so a move priced at or above `floor` could
/// never displace it, and skipping it leaves the selection bitwise
/// unchanged. The bounds read the other agents' rows, `d(a,·)`:
///
/// * **`Add(a)`**, and a swap dropping a co-owned edge:
///   `Σ_v min(d(u,v), w(u,a) + d(a,v))`.
/// * **`Delete(d)`**, before its removal is repaired:
///   `Σ_v min_{x ∈ N(u)∖d} (w(u,x) + d(x,v))`, over the agent's network
///   neighbours `N(u)`.
/// * **`Swap(d, a)`**, before the repair: the same neighbour bound with
///   `w(u,a) + d(a,v)` added to the min; after it,
///   `Σ_v min(d_{G−ud}(u,v), w(u,a) + d(a,v))` off the repaired vector.
///   A swap run skips its repair when its delete and all its swaps are
///   ruled out; once a survivor makes the repair certain, the run's
///   remaining swaps wait for the tighter bound after it.
/// * **Twins.** `Swap(d, a)` is first checked against `Add(a)`:
///   `α·w(S − d + a) + D_add(a) ≥ floor`, with `D_add(a)` the add's
///   distance sum when it was priced (`G − ud + ua` is a subgraph of
///   `G + ua`, so no distance goes down, and index-order sums and `+` are
///   monotone: the test is exact in floating point), or its bound, with
///   the margin below, when it was ruled out unpriced. The walk reaches
///   every `Add(a)` before the swaps.
///
/// Each bound is [`MoveBound`]'s, tested with its `1 − 8nε` margin, which
/// proves it sound under rounding. [`ScanPricing::RegionDelta`] prices
/// are upper bounds, so that policy prices every move.
///
/// Under [`ScanPricing::FullSum`] this returns exactly what
/// [`best_move_among_given_current`] returns over [`MoveSpace::moves`] —
/// the same chosen move and the same cost bits (debug-asserted against
/// the oracle, alongside the bitwise restoration of `warm` and every
/// row's agreement with a fresh Dijkstra); see [`SpeculativePricing`] for
/// the contract of the bounded-horizon mode.
#[allow(clippy::too_many_arguments)]
pub fn best_move_among_speculative_priced(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    warm: &mut DynamicSssp,
    agent: NodeId,
    current: f64,
    space: MoveSpace,
    pricing: ScanPricing<'_>,
    scratch: &mut ScanScratch,
) -> Option<(Move, f64)> {
    let ScanScratch {
        tables,
        prices,
        deferred,
        bounds,
    } = scratch;
    let tables = &*tables;
    debug_assert!(
        tables.matches(profile, network, agent),
        "the scan's tables are not agent {agent}'s"
    );
    #[cfg(debug_assertions)]
    let before: Vec<f64> = warm.dist().to_vec();
    let policy = pricing.policy();
    // One O(n) sum for the whole scan under RegionDelta; FullSum keeps
    // its historical lazy reads (degenerate deltas only).
    let sum0 = match policy {
        SpeculativePricing::FullSum => 0.0,
        SpeculativePricing::RegionDelta => warm.sum(),
    };
    // Bounded horizon: candidate relaxations settle at most PRICE_HORIZON
    // nodes (upper-bound prices); cleared again before the winner's exact
    // re-price below. Only speculation frames consult the budget, so a
    // stray setting could never leak into committed repairs.
    if policy == SpeculativePricing::RegionDelta {
        warm.set_price_horizon(Some(PRICE_HORIZON));
    }
    // One price per position; once the walk ends, `None` marks a move a
    // bound ruled out.
    prices.clear();
    prices.resize(tables.space_len(space), None);
    let mut walk = Walk {
        tables,
        network,
        warm: &mut *warm,
        bounds: match pricing {
            ScanPricing::FullSum(rows) => Some(ScanBounds::new(network, rows, bounds)),
            ScanPricing::RegionDelta => None,
        },
        policy,
        sum0,
        alpha: game.alpha(),
        prices,
        floor: current,
    };
    match space {
        MoveSpace::Greedy => walk.greedy(deferred),
        MoveSpace::AddOnly => walk.adds(),
    }
    // Selection: the oracle's incumbent rule over the positions in order,
    // passing over the moves a bound ruled out.
    let mut best: Option<(usize, f64)> = None;
    for (j, &c) in prices.iter().enumerate() {
        let Some(c) = c else { continue };
        let incumbent = best.map_or(current, |(_, b)| b);
        if strictly_less(c, incumbent) {
            best = Some((j, c));
        }
    }
    let mut best = best.map(|(j, c)| (tables.move_at(space, j), c));
    // RegionDelta ranked the candidates on approximate prices; the
    // reported cost must be oracle-exact, so the winner is re-priced
    // with a full sum and re-gated against `current` (a sub-ulp
    // "improvement" that was an artifact of delta re-association must
    // not be reported as improving).
    if policy == SpeculativePricing::RegionDelta {
        warm.set_price_horizon(None);
        best = best.and_then(|(m, _)| {
            let (dropped, gained) = single_edge(&m);
            let gained = gained.map(|a| (a, game.w(agent, a)));
            let dist = speculative_distance_sum(
                tables,
                network,
                warm,
                dropped,
                gained,
                SpeculativePricing::FullSum,
                0.0,
            );
            let exact = game.alpha() * candidate_edge_sum(game, agent, tables.pairs(), &m) + dist;
            strictly_less(exact, current).then_some((m, exact))
        });
    }
    #[cfg(debug_assertions)]
    {
        debug_assert!(
            warm.dist() == before.as_slice() && warm.depth() == 0 && warm.speculation_depth() == 0,
            "speculative scan must leave the warm vector bitwise untouched"
        );
        match policy {
            SpeculativePricing::FullSum => {
                let moves = space.moves(profile, agent);
                let oracle =
                    best_move_among_given_current(game, profile, network, agent, current, &moves);
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

/// One scan's walk over its move space (see "The walk" in
/// [`best_move_among_speculative_priced`]): what it reads, the prices it
/// records, and the floor they set.
struct Walk<'w, 'r> {
    tables: &'w StrategyTables,
    network: &'w AdjacencyList,
    warm: &'w mut DynamicSssp,
    /// The FullSum bound state; RegionDelta rules nothing out.
    bounds: Option<ScanBounds<'r, 'w>>,
    policy: SpeculativePricing,
    /// The pre-scan full sum (RegionDelta only).
    sum0: f64,
    alpha: f64,
    /// One price per position of the move space.
    prices: &'w mut [Option<f64>],
    /// The least of `current` and every price recorded so far: a move at
    /// a later position whose bound reaches it cannot win the selection.
    floor: f64,
}

impl Walk<'_, '_> {
    /// Records the price of the move at position `j`.
    fn record(&mut self, j: usize, price: f64) {
        self.prices[j] = Some(price);
        self.floor = self.floor.min(price);
    }

    /// The agent's distance sum as it stands: the price of a delta that
    /// leaves the network unchanged.
    fn unchanged(&self) -> f64 {
        match self.policy {
            SpeculativePricing::FullSum => self.warm.sum(),
            SpeculativePricing::RegionDelta => self.sum0,
        }
    }

    /// [`MoveSpace::AddOnly`]: `Add(free[t])` at position `t`.
    fn adds(&mut self) {
        let tables = self.tables;
        for (t, &(a, w)) in tables.free().iter().enumerate() {
            let edge =
                self.alpha * edge_sum(tables.pairs(), None, Some((tables.owned_below(t), w)));
            self.gain(t, a, w, edge, true);
        }
    }

    /// [`MoveSpace::Greedy`]: the adds and deletes in ascending node
    /// order, then the swap runs. `deferred` holds each sole-owned
    /// delete's position and the floor there, by owned index, until a
    /// frame prices it.
    fn greedy(&mut self, deferred: &mut Vec<Option<(usize, f64)>>) {
        let tables = self.tables;
        let (pairs, free) = (tables.pairs(), tables.free());
        let (k, m) = (pairs.len(), free.len());
        deferred.clear();
        deferred.resize(k, None);
        // Merging the owned and the free table visits every other node in
        // ascending order, the node at position `j` with `r` owned
        // targets below it.
        let (mut r, mut t) = (0, 0);
        for j in 0..k + m {
            if t == m || (r < k && pairs[r].0 < free[t].0) {
                if tables.is_co_owned(pairs[r].0) {
                    // Dropping a co-owned edge leaves the network as it is.
                    let edge = self.alpha * edge_sum(pairs, Some(r), None);
                    self.record(j, edge + self.unchanged());
                } else {
                    deferred[r] = Some((j, self.floor));
                }
                r += 1;
            } else {
                let (a, w) = free[t];
                let edge = self.alpha * edge_sum(pairs, None, Some((r, w)));
                self.gain(j, a, w, edge, true);
                t += 1;
            }
        }
        for (r, &(d, _)) in pairs.iter().enumerate() {
            // `Swap(d, free[t])` sits at position `(n − 1) + r·m + t`.
            let run = k + m + r * m;
            if tables.is_co_owned(d) {
                // The dropped edge stays: each swap only gains its edge.
                for (t, &(a, w)) in free.iter().enumerate() {
                    let edge =
                        self.alpha * edge_sum(pairs, Some(r), Some((tables.owned_below(t), w)));
                    self.gain(run + t, a, w, edge, false);
                }
            } else if m > 0 {
                self.swap_run(r, run, deferred[r].take());
            }
        }
        // Deletes no swap run priced: the agent owns every other node.
        for (r, slot) in deferred.iter_mut().enumerate() {
            if let Some((j, at)) = slot.take() {
                self.lone_delete(r, j, at);
            }
        }
    }

    /// The move at position `j`, with edge term `edge`, that gains the
    /// edge to free node `a` (weight `w`) and repairs no removal: `Add(a)`
    /// when `add`, otherwise a swap dropping a co-owned edge. Ruled out
    /// off the rows, or priced.
    fn gain(&mut self, j: usize, a: NodeId, w: f64, edge: f64, add: bool) {
        // Gaining an already-present edge reads the vector as it stands.
        let present = self.tables.has_edge(a);
        if let Some(b) = &mut self.bounds {
            if b.rules_out_gain(self.warm.dist(), a, w, present, edge, self.floor) {
                return;
            }
        }
        let dist = if present {
            self.unchanged()
        } else {
            speculative_distance_sum(
                self.tables,
                self.network,
                self.warm,
                None,
                Some((a, w)),
                self.policy,
                self.sum0,
            )
        };
        if let (true, Some(b)) = (add, &mut self.bounds) {
            b.add[a as usize] = AddSum::Priced(dist);
        }
        self.record(j, edge + dist);
    }

    /// The swaps dropping the sole-owned edge to `d = pairs[r]`, at
    /// positions `run..run + m`, and `Delete(d)` when `delete` holds its
    /// position and the floor there. Consecutive swaps dropping the same
    /// edge share one removal repair: frames nest, so the dropped edge is
    /// repaired once in an outer frame and each gained edge is an inner
    /// insert + rollback — `k` removals for `k·m` swaps and their `k`
    /// deletes, not one each.
    fn swap_run(&mut self, r: usize, run: usize, delete: Option<(usize, f64)>) {
        let tables = self.tables;
        let (pairs, free) = (tables.pairs(), tables.free());
        let (agent, d) = (tables.agent(), pairs[r].0);
        let alpha = self.alpha;
        let edge = |t: usize| {
            let (_, w) = free[t];
            alpha * edge_sum(pairs, Some(r), Some((tables.owned_below(t), w)))
        };
        let delete_edge = alpha * edge_sum(pairs, Some(r), None);
        let mut delete = delete;
        // Bound-first: the repair runs only when the rows rule out neither
        // the delete nor every swap of the run; `first` swaps were ruled
        // out on the way.
        let mut first = 0;
        if let Some(b) = &mut self.bounds {
            b.build_hops(self.network, agent, d);
            let b = &*b;
            delete = delete
                .filter(|&(_, at)| !b.bound.rules_out(delete_edge, MoveBound::sum(b.hops), at));
            if delete.is_none() {
                let floor = self.floor;
                first = (0..free.len())
                    .position(|t| {
                        let ((a, w), edge) = (free[t], edge(t));
                        !b.twin_rules_out(a, edge, floor)
                            && !b.rules_out_reach(b.hops, a, w, edge, floor)
                    })
                    .unwrap_or(free.len());
                if first == free.len() {
                    return;
                }
            }
        }
        let network = self.network;
        let w_d = network
            .edge_weight(agent, d)
            .expect("sole-owned strategy edge must be in the network");
        let mask = [(agent, d)];
        let view = MaskedEdges::new(network, &mask);
        // The mark is taken before the outer removal frame, so a
        // RegionDelta price covers the removal repair *and* the inner
        // insert in one undo-log suffix.
        let mark = self.warm.undo_len();
        self.warm.begin_speculation();
        self.warm.remove_edge(&view, agent, d, w_d);
        let removal = frame_price(self.warm, self.policy, self.sum0, mark);
        if let Some((j, _)) = delete {
            self.record(j, delete_edge + removal);
        }
        for (t, &(a, w)) in free.iter().enumerate().skip(first) {
            let edge = edge(t);
            // Gained edge already present: the removal repair is the
            // whole delta.
            let present = tables.has_edge(a);
            if let Some(b) = &self.bounds {
                if b.twin_rules_out(a, edge, self.floor)
                    || (!present && b.rules_out_reach(self.warm.dist(), a, w, edge, self.floor))
                {
                    continue;
                }
            }
            let dist = if present {
                removal
            } else {
                self.warm.begin_speculation();
                self.warm.speculate_insert(&view, agent, a, w);
                let s = frame_price(self.warm, self.policy, self.sum0, mark);
                self.warm.rollback();
                s
            };
            self.record(run + t, edge + dist);
        }
        self.warm.rollback();
    }

    /// `Delete(pairs[r])` at position `j`, with no swap run to share:
    /// ruled out off the rows against `at`, the floor at its position, or
    /// priced in a frame of its own.
    fn lone_delete(&mut self, r: usize, j: usize, at: f64) {
        let tables = self.tables;
        let d = tables.pairs()[r].0;
        let edge = self.alpha * edge_sum(tables.pairs(), Some(r), None);
        if let Some(b) = &mut self.bounds {
            b.build_hops(self.network, tables.agent(), d);
            if b.bound.rules_out(edge, MoveBound::sum(b.hops), at) {
                return;
            }
        }
        let dist = speculative_distance_sum(
            tables,
            self.network,
            self.warm,
            Some(d),
            None,
            self.policy,
            self.sum0,
        );
        self.record(j, edge + dist);
    }
}

/// What a FullSum scan knows of `Add(a)`'s distance sum.
#[derive(Clone, Copy, Debug)]
enum AddSum {
    /// Nothing yet.
    Unknown,
    /// The exact sum: the add was priced.
    Priced(f64),
    /// [`MoveBound::reach`] of the add, a lower bound up to the margin.
    Bound(f64),
}

/// The FullSum bound tables a [`ScanScratch`] keeps across scans (see
/// [`ScanBounds`]).
#[derive(Debug, Default)]
struct BoundTables {
    add: Vec<AddSum>,
    least: Vec<f64>,
    second: Vec<f64>,
    via: Vec<NodeId>,
    hops: Vec<f64>,
}

impl BoundTables {
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.add.capacity() * size_of::<AddSum>()
            + (self.least.capacity() + self.second.capacity() + self.hops.capacity())
                * size_of::<f64>()
            + self.via.capacity() * size_of::<NodeId>()
    }
}

/// The FullSum scan's bound state (see "Bound-first pricing" in
/// [`best_move_among_speculative_priced`]): the rows it reads, what it
/// knows of each add, and the agent's first-hop tables, borrowed from the
/// scan's [`ScanScratch`].
struct ScanBounds<'r, 's> {
    rows: &'r [DynamicSssp],
    bound: MoveBound,
    add: &'s mut Vec<AddSum>,
    /// Per node `v`: the least and second-least `w(u,x) + d(x,v)` over the
    /// agent's network neighbours `x` (`0` at the agent itself), and the
    /// `x` attaining the least. Built on first use.
    least: &'s mut Vec<f64>,
    second: &'s mut Vec<f64>,
    via: &'s mut Vec<NodeId>,
    /// The neighbour bound of the last dropped edge `d`: per node, the
    /// least first-hop term over `N(u)∖d` ([`ScanBounds::build_hops`]).
    hops: &'s mut Vec<f64>,
}

impl<'r, 's> ScanBounds<'r, 's> {
    fn new(network: &AdjacencyList, rows: &'r [DynamicSssp], tables: &'s mut BoundTables) -> Self {
        let n = network.n();
        assert_eq!(rows.len(), n, "a FullSum scan needs one row per node");
        // A row with pending inserts overestimates distances, which would
        // make every bound read off it unsound.
        #[cfg(debug_assertions)]
        for (a, row) in rows.iter().enumerate() {
            debug_assert_eq!(
                row.dist(),
                gncg_graph::dijkstra::dijkstra(network, a as NodeId).as_slice(),
                "row {a} read by the scan is not synced"
            );
        }
        let BoundTables {
            add,
            least,
            second,
            via,
            hops,
        } = tables;
        add.clear();
        add.resize(n, AddSum::Unknown);
        // An empty `via` marks the first-hop tables unbuilt.
        via.clear();
        ScanBounds {
            rows,
            bound: MoveBound::new(n),
            add,
            least,
            second,
            via,
            hops,
        }
    }

    /// Whether `Swap(d, a)`, with edge term `edge`, is ruled out by what
    /// the scan knows of its twin `Add(a)`.
    fn twin_rules_out(&self, a: NodeId, edge: f64, floor: f64) -> bool {
        match self.add[a as usize] {
            AddSum::Unknown => false,
            AddSum::Priced(sum) => edge + sum >= floor,
            AddSum::Bound(reach) => self.bound.rules_out(edge, reach, floor),
        }
    }

    /// Whether the reach bound onto first hops `first` rules out a move
    /// with edge term `edge` that gains the edge to `a`, of weight `w`.
    fn rules_out_reach(&self, first: &[f64], a: NodeId, w: f64, edge: f64, floor: f64) -> bool {
        let reach = MoveBound::reach(first, w, self.rows[a as usize].dist());
        self.bound.rules_out(edge, reach, floor)
    }

    /// Whether a move that gains the edge to `a`, of weight `w`, and
    /// repairs no removal — an add, or a swap dropping a co-owned edge —
    /// is ruled out; `dist` is the agent's vector, `present` whether the
    /// edge is already in the network.
    fn rules_out_gain(
        &mut self,
        dist: &[f64],
        a: NodeId,
        w: f64,
        present: bool,
        edge: f64,
        floor: f64,
    ) -> bool {
        if self.twin_rules_out(a, edge, floor) {
            return true;
        }
        // Gaining an already-present edge reads the vector as it stands.
        if present {
            return false;
        }
        let reach = match self.add[a as usize] {
            AddSum::Unknown => {
                let reach = MoveBound::reach(dist, w, self.rows[a as usize].dist());
                self.add[a as usize] = AddSum::Bound(reach);
                reach
            }
            AddSum::Bound(reach) => reach,
            // The twin test above used the exact sum.
            AddSum::Priced(_) => return false,
        };
        self.bound.rules_out(edge, reach, floor)
    }

    /// Fills `hops` with the neighbour bound of dropping `(agent, d)`. The
    /// first-hop tables it picks from are built on first use; both passes
    /// are selects, not branches.
    fn build_hops(&mut self, network: &AdjacencyList, agent: NodeId, d: NodeId) {
        let n = self.rows.len();
        if self.via.is_empty() {
            self.least.clear();
            self.least.resize(n, f64::INFINITY);
            self.second.clear();
            self.second.resize(n, f64::INFINITY);
            self.via.resize(n, NodeId::MAX);
            for &(x, w) in network.neighbors(agent) {
                let row = self.rows[x as usize].dist();
                fold_first_hop(self.least, self.second, self.via, row, x, w);
            }
            self.least[agent as usize] = 0.0;
            self.second[agent as usize] = 0.0;
        }
        self.hops.clear();
        self.hops.resize(n, 0.0);
        pick_hops(self.hops, self.least, self.second, self.via, d);
    }
}

/// Fills `hops` with the neighbour bound of dropping the edge to `d`: per
/// node, the least first-hop term, or the second-least where the least
/// runs through `d` ([`ScanBounds::build_hops`]). A select over slices
/// the compiler knows apart, as in [`fold_first_hop`], so the loop packs
/// from four nodes on with no overlap checks. A plain `if` here compiles
/// to a choice of which table to load from, one node at a time;
/// `select_unpredictable` keeps both loads.
fn pick_hops(hops: &mut [f64], least: &[f64], second: &[f64], via: &[NodeId], d: NodeId) {
    let tables = least.iter().zip(second).zip(via);
    for (hop, ((&l, &s), &x)) in hops.iter_mut().zip(tables) {
        *hop = std::hint::select_unpredictable(x == d, s, l);
    }
}

/// Folds the first hop `x`, of weight `w`, whose distances are `row`, into
/// the first-hop tables ([`ScanBounds::build_hops`]): per node `v`, `c =
/// w + row[v]` becomes the least term if it is below it, else the second
/// if it is below that. With selects, not branches, over slices the
/// compiler knows apart.
fn fold_first_hop(
    least: &mut [f64],
    second: &mut [f64],
    via: &mut [NodeId],
    row: &[f64],
    x: NodeId,
    w: f64,
) {
    let slots = least.iter_mut().zip(second.iter_mut());
    for ((least, second), (via, &dx)) in slots.zip(via.iter_mut().zip(row)) {
        // `least ≤ second` throughout, so the new second is the lesser of
        // the old one and the greater of the old least and `c`.
        let (c, l, s, v) = (w + dx, *least, *second, *via);
        let below = c < l;
        let above = if below { l } else { c };
        *second = if above < s { above } else { s };
        *least = if below { c } else { l };
        *via = if below { x } else { v };
    }
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

/// The distance cost of the single-edge move that drops the agent's
/// edge to `dropped` and gains the edge `gained` (target and weight),
/// read off `warm` after speculatively applying the move's network-level
/// edge delta (an owned edge leaves the network only when the other
/// endpoint does not also own it; a new edge enters only when not already
/// present — the same rules the dynamics engine applies to committed
/// moves).
fn speculative_distance_sum(
    tables: &StrategyTables,
    network: &AdjacencyList,
    warm: &mut DynamicSssp,
    dropped: Option<NodeId>,
    gained: Option<(NodeId, f64)>,
    pricing: SpeculativePricing,
    sum0: f64,
) -> f64 {
    let agent = tables.agent();
    let dropped = dropped.filter(|&v| !tables.is_co_owned(v));
    let gained = gained.filter(|&(v, _)| !tables.has_edge(v));
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
    if let Some((v, w)) = gained {
        warm.speculate_insert(&view, agent, v, w);
    }
    let sum = frame_price(warm, pricing, sum0, mark);
    warm.rollback();
    sum
}

/// The owned target a single-edge move drops, and the node it gains an
/// edge to.
fn single_edge(m: &Move) -> (Option<NodeId>, Option<NodeId>) {
    match *m {
        Move::Add(v) => (None, Some(v)),
        Move::Delete(v) => (Some(v), None),
        Move::Swap(d, a) => (Some(d), Some(a)),
        Move::Replace(_) => unreachable!("a Replace is not a single-edge move"),
    }
}

/// `Σ w(agent, x)` over the candidate set `m` produces from the strategy
/// whose `(x, w(agent, x))` pairs are `pairs`, ascending in `x`
/// ([`StrategyTables::pairs`]): the scan's own edge sum, one plain
/// left-to-right fold with the dropped target left out and the gained one
/// in its place, bit for bit [`candidate_cost`]'s edge sum.
pub fn candidate_edge_sum(game: &Game, agent: NodeId, pairs: &[(NodeId, f64)], m: &Move) -> f64 {
    let (dropped, gained) = single_edge(m);
    let index = |x: NodeId| pairs.partition_point(|&(y, _)| y < x);
    edge_sum(
        pairs,
        dropped.map(index),
        gained.map(|a| (index(a), game.w(agent, a))),
    )
}

/// `Σ w` over the owned `(x, w)` pairs, ascending in `x`, without the
/// pair at index `drop`, and with the weight `gained.1` entering before
/// the pair at index `gained.0`: one plain left-to-right fold from
/// `-0.0`, the fold `Iterator::sum` takes, so it is bit for bit the edge
/// sum [`candidate_cost`] takes over the candidate set in its ascending
/// `BTreeSet` order (f64 addition is order-sensitive).
#[inline]
fn edge_sum(pairs: &[(NodeId, f64)], drop: Option<usize>, gained: Option<(usize, f64)>) -> f64 {
    let at = gained.map_or(pairs.len(), |(at, _)| at);
    let mut sum = -0.0;
    for (i, &(_, w)) in pairs[..at].iter().enumerate() {
        if Some(i) != drop {
            sum += w;
        }
    }
    if let Some((_, w)) = gained {
        sum += w;
    }
    for (i, &(_, w)) in pairs.iter().enumerate().skip(at) {
        if Some(i) != drop {
            sum += w;
        }
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

    /// Every node's exact distance vector in `network`: the rows a FullSum
    /// scan bounds with.
    fn fresh_rows(network: &AdjacencyList) -> Vec<DynamicSssp> {
        (0..network.n() as NodeId)
            .map(|a| {
                let mut row = DynamicSssp::new();
                row.reset_from(a, &gncg_graph::dijkstra::dijkstra(network, a));
                row
            })
            .collect()
    }

    /// [`best_move_among_speculative_priced`] over the greedy space, with
    /// a fresh scratch loaded for `agent`.
    fn scan(
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        warm: &mut DynamicSssp,
        agent: NodeId,
        current: f64,
        pricing: ScanPricing<'_>,
    ) -> Option<(Move, f64)> {
        let mut scratch = ScanScratch::default();
        scratch.load(game, profile, network, agent);
        best_move_among_speculative_priced(
            game,
            profile,
            network,
            warm,
            agent,
            current,
            MoveSpace::Greedy,
            pricing,
            &mut scratch,
        )
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
                let rows = fresh_rows(&network);
                for agent in 0..8u32 {
                    let moves = Move::greedy_moves(&p, agent);
                    let current = agent_cost_in(&game, &p, &network, agent).total();
                    let mut warm = rows[agent as usize].clone();
                    let spec = scan(
                        &game,
                        &p,
                        &network,
                        &mut warm,
                        agent,
                        current,
                        ScanPricing::FullSum(&rows),
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
                    let rd = scan(
                        &game,
                        &p,
                        &network,
                        &mut warm,
                        agent,
                        current,
                        ScanPricing::RegionDelta,
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
            let rd = scan(
                &game,
                &p,
                &network,
                &mut warm,
                agent,
                current,
                ScanPricing::RegionDelta,
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
        let rd = scan(
            &game,
            &q,
            &network,
            &mut warm,
            3,
            current,
            ScanPricing::RegionDelta,
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
        let rows = fresh_rows(&network);
        for agent in 0..4u32 {
            let moves = Move::greedy_moves(&p, agent);
            let current = agent_cost_in(&game, &p, &network, agent).total();
            let mut warm = rows[agent as usize].clone();
            let spec = scan(
                &game,
                &p,
                &network,
                &mut warm,
                agent,
                current,
                ScanPricing::FullSum(&rows),
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
        let rows = fresh_rows(&network);
        let mut warm = rows[3].clone();
        let spec = scan(
            &game,
            &q,
            &network,
            &mut warm,
            3,
            current,
            ScanPricing::FullSum(&rows),
        );
        let oracle = best_move_among_given_current(&game, &q, &network, 3, current, &moves);
        assert_eq!(spec, oracle);
        assert!(spec.is_some(), "connecting must improve on ∞");
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
