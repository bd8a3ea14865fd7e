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
//! * **a search copies no graph and sorts nothing**. Every relaxation —
//!   the base distances, the bound table, each include — runs over the
//!   network the caller passes, which differs from the agent's base graph
//!   only in edges at the agent ("Building the table"), and the candidates
//!   are a slice of the game's own weight order ([`Game::by_weight`]);
//! * **a search needs no Dijkstra**. [`exact_best_response_in`] derives
//!   the agent's current cost off the base distances the DFS starts from
//!   ("The current cost"), and [`exact_best_response_given_current`]
//!   takes it from its caller;
//! * the DFS allocates nothing per node (the undo log, chosen stack and
//!   incumbent are reused buffers, and so is the live vector's heap on
//!   graphs of more than 64 nodes), and a fresh search allocates nothing
//!   but its result once its thread's buffers have grown: each thread
//!   keeps one set of them — the `via` table and the vector it grows in,
//!   the base graph's edges at the agent and the DFS worker — and every
//!   search refills them in place, sized to its own `n`, so nothing a
//!   larger earlier search left behind is read. Only the search borrows
//!   them, and nothing it calls searches again.
//!
//! # Why the pruning bound is admissible
//!
//! A node at depth `idx` has committed `chosen ⊆ candidates[..idx]`,
//! already priced when the DFS included its last edge, and the live
//! vector `D` holds the distances from `u` in `base ∪ star(chosen)`.
//! Every subset the node's subtree still evaluates is `S = chosen ∪ T`
//! with `∅ ≠ T ⊆ R = candidates[idx..]`, where `candidates` is the list
//! the cut keeps ("The cut"), by increasing weight `w_i = w(u,
//! candidates[i])`. Let `G − u` be the network with every edge at `u`
//! removed, and
//!
//! `LB = α·(w(chosen) + w_idx) + Σ_x min(D[x], via[idx][x])`,
//! `via[idx][x] = d(u, x)` in `G − u + star(R)`,
//!
//! the distance from `u` when its only edges are the remaining candidate
//! edges `(u, candidates[i])`, `i ≥ idx`. In exact arithmetic
//! `LB ≤ cost(S)`, term by term:
//!
//! 1. **The next edge's price.** `S` buys every edge of `chosen` and at
//!    least one of `R`. Candidates are sorted by weight, weights are
//!    `≥ 0` and `α > 0` ([`Game::new`] asserts both), so
//!    `α·w(S) ≥ α·(w(chosen) + w_idx)`.
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
//! into row `i`. Every relaxation of a search runs over the network
//! itself, edges at `u` included: `u` stays at 0, which no relaxation
//! lowers, so `u` is never scanned and its edges never carry a path (the
//! contract of [`DynamicSssp::relax_insert`] for an edge at the source).
//! The network and the agent's base graph differ only in edges at `u`,
//! so a relaxation over either leaves the same vector. One decrease-only
//! relaxation per candidate, each touching only the nodes its edge
//! brings closer, replaces the `n − 1` Dijkstras on a copy of `G − u`
//! that [`bound_table_reference`] folds; that fold stays as the table's
//! oracle.
//!
//! The DFS's starting vector `d0`, the distances in the base graph, grows
//! the same way, in the DFS's live vector, before anything else: from
//! `u` alone, one [`DynamicSssp::relax_inserts`] of the base graph's
//! edges at `u` — `(u, x)` for each `x` that owns its edge to `u` — over
//! the network. Both it and the Dijkstra it replaces take the exact
//! minimum over the same paths' left-to-right sums, so they agree bit for
//! bit; debug builds check `d0` against a Dijkstra on the base graph, and
//! the table against the fold, on every search. The live vector holds
//! `d0` from then on, so the table grows in a second vector of its own.
//!
//! # The current cost
//!
//! The agent's current cost seeds the incumbent and sets the cut, so a
//! search needs it before its table. [`exact_best_response_in`] derives
//! it off `d0`: a copy of `d0`, in the vector the table grows in later,
//! takes the edges the agent alone owns in one
//! [`DynamicSssp::relax_inserts`] over the network. The copy is exact for
//! the base graph, which those edges at `u` extend to the network, so the
//! relaxation leaves it exact for the network ("Edges at the source" in
//! [`DynamicSssp::relax_insert`]): bit for bit what a Dijkstra on the
//! network returns. Its index-order sum ([`DynamicSssp::sum`], the order
//! `agent_cost_in` sums its Dijkstra in) added to [`edge_cost`] is then
//! `agent_cost_in`'s total, bit for bit, `∞` for an agent its network
//! does not connect. `d0` itself stays in the live vector for the DFS.
//! (Logged includes on the live vector, undone after the sum, would give
//! the same bits, but a second caller of [`DynamicSssp::add_edge`] leads
//! the compiler to call it out of line from the DFS.) Debug builds
//! compare the derived cost with [`agent_cost_in`] on every search, and a
//! cost supplied to [`exact_best_response_given_current`] with the
//! derived one.
//!
//! # The cut
//!
//! Before it grows the table, a search drops the tail of its candidate
//! list that no improving subset can use ([`candidates_kept`]). With `u`
//! the agent, `w_i` the weight of `candidates[i]` in [`Game::by_weight`]'s
//! order, `d_H` the host distances ([`Game::host_distances`]) and
//! `Σ⁴_x d_H(u, x)` their sum in [`MoveBound`]'s four lanes
//! ([`MoveBound::sum`]), the search keeps `candidates[..K]`, where `K` is
//! the first index with
//!
//! `(α·w_K + Σ⁴_x d_H(u, x))·(1 − 16nε) ≥ current − EPS`,
//!
//! [`MoveBound::rules_out`] under `MoveBound::new(2n)`'s margin, or every
//! candidate when no index passes. The weights are sorted and every
//! operation of the test is monotone in `w_K`, so the test passes at
//! every index from `K` on. A subset `S` that holds some
//! `candidates[j]`, `j ≥ K`:
//!
//! 1. **pays `α·w_K` at least.** Its edge sum has the term `w_j ≥ w_K`,
//!    and a rounded sum of non-negative terms is at least each of them,
//!    so `fl(α·w(S)) ≥ fl(α·w_K)` bit for bit;
//! 2. **reaches no node sooner than the host does.** Every edge of its
//!    network is a host edge at its host weight, so in exact arithmetic
//!    `d_S(u, x) ≥ d_H(u, x)` for every `x`.
//!
//! So `S` prices at or above `fl(current − EPS)` (up to rounding, below).
//! The incumbent starts at `current` and only falls, so `S` can never
//! replace it ([`strictly_less`]): the DFS need not visit it. The DFS then
//! runs on the kept candidates, and the admissibility argument above
//! holds word for word with `candidates` the kept prefix. Row `idx` of
//! the table, grown over `star(candidates[idx..K])` alone, is at least
//! the uncut row entry by entry (fewer edges, longer distances), and it
//! still bounds every subset the DFS evaluates below depth `idx`, since
//! none of them holds a candidate past `K`. So the cut only tightens an
//! admissible bound, and by the last paragraph of "Rounding" the
//! incumbents, hence the result, are bitwise those of the search over
//! every candidate; [`BestResponse::evaluated`] can only fall. Debug
//! builds re-run every cut search on every candidate and assert the same
//! strategy, the same cost bits and no more subsets evaluated.
//!
//! **Rounding.** Floyd–Warshall sums each path in an association of its
//! own. By induction over its pivots, with `u₀` and `γ` as in
//! "Rounding" below, its entry `d_H(u, x)` is at most `(1 + u₀)^(h−1)`
//! times the exact length of any path of `h` edges from `u` to `x` (a
//! pivot splits a path into two of at most `h − 1` edges each, and the
//! sum of their entries rounds up by one factor `1 + u₀`). A distance of
//! `S`'s network is the left-to-right sum of a simple path of
//! `h ≤ n − 1` edges, at least `(1 − u₀)^(h−1)` times that path's exact
//! length, so `d_H(u, x) ≤ γ^(n−2)·d_S(u, x)` in `f64`. That is step 1 of
//! [`MoveBound`]'s "Rounding" with `m_x = d_H(u, x)`, and its steps 2 and
//! 3 follow unchanged: the laned sum and `S`'s index-order sum of `n`
//! non-negative terms each round within `(1 ± u₀)^(n−1)` of exact, the
//! edge terms compare bit for bit (1 above), and one more rounding of
//! each total leaves the bound at most `γ^(2n−2)` times `cost(S)`. The
//! `1 − 8nε` margin covers that factor; the cut tests with `1 − 16nε`,
//! which also covers `γ^(3n−4)`, the Floyd–Warshall factor counted on
//! top of the whole `γ^(2n−2)` instead of in place of its path factor.
//! Infinities need no margin: when `current = ∞` (an agent its network
//! does not connect) only a bound of `∞` passes, so only `∞`-weight
//! candidates are cut wherever the host connects the agent, and every
//! subset holding one prices at `∞`.
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
//! weight is `∞` once `w_idx` is) or a node no subset below reaches
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

use gncg_graph::{strictly_less, AdjacencyList, DijkstraScratch, DynamicSssp, MaskedEdges, NodeId};

use crate::cost::{
    agent_cost_in, base_graph_from, base_graph_without, candidate_cost, edge_cost, CostBreakdown,
    MoveBound,
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

/// The buffers of one fresh search, refilled in place for every search:
/// the bound table and the vector it grows in, the base graph's edges at
/// the agent and the DFS worker. Each thread keeps one for the exact best
/// response (module docs, "The incremental engine"), which the dynamics
/// engine's activations, br certification and `is_nash_equilibrium` all
/// run. The DFS itself runs on the borrowed [`BrSearchView`].
#[derive(Debug, Default)]
struct BrSearch {
    /// The pruning bound's table (module docs), one row of `n` per kept
    /// candidate: `via[idx·n + x]` is the distance from the agent to `x`
    /// in `G − u + star(candidates[idx..])`.
    via: Vec<f64>,
    /// The vector `via` grows in, and before it the agent's distances in
    /// the network, which give its current cost. The worker's live vector
    /// holds `d0` from before the cut is taken, which needs that cost,
    /// until the DFS starts from it.
    table: DynamicSssp,
    /// Edges `(agent, x, w(agent, x))` at the agent: first the base
    /// graph's, each `x` that owns its edge to the agent, which `d0` grows
    /// from; then the ones the agent alone owns, which take a copy of
    /// `d0` to the network.
    at_agent: Vec<(NodeId, NodeId, f64)>,
    /// The DFS state; its live vector also grows `d0`.
    worker: BrWorker,
}

thread_local! {
    /// This thread's fresh-search buffers. Only [`search`] borrows them,
    /// and nothing it calls searches again, so the borrow never nests.
    static SEARCH: RefCell<BrSearch> = RefCell::new(BrSearch::default());
}

/// Borrowed read-only state shared by every branch of one best-response
/// search: the immutable half of the engine, a view of one
/// [`BrSearch`]'s table, beside the mutable [`BrWorker`].
#[derive(Clone, Copy)]
struct BrSearchView<'g> {
    agent: NodeId,
    n: usize,
    alpha: f64,
    /// The pruning test, with its `1 − 8nε` margin.
    bound: MoveBound,
    /// The network; every include relaxes over it.
    network: &'g AdjacencyList,
    /// The kept candidates, `(v, w(agent, v))` by increasing weight.
    candidates: &'g [(NodeId, f64)],
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
    /// Seeds the incumbent of a search on `n` nodes from the agent's
    /// current strategy and cost, with nothing chosen.
    fn arm(&mut self, n: usize, current: f64) {
        self.chosen.clear();
        self.chosen_w.clear();
        self.chosen_w.resize(n, 0.0);
        self.best_cost = current;
        self.best_chosen.clear();
        self.best_is_current = true;
        self.evaluated = 0;
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
    /// Grows `d0`, the agent's distances in its base graph, in the
    /// worker's live vector: from the agent alone, one relaxation of the
    /// base graph's edges at it over the network (module docs, "Building
    /// the table").
    fn grow_d0(&mut self, profile: &Profile, network: &AdjacencyList, agent: NodeId) {
        self.at_agent.clear();
        self.at_agent.extend(
            network
                .neighbors(agent)
                .iter()
                .filter(|&&(x, _)| profile.owns(x, agent))
                .map(|&(x, w)| (agent, x, w)),
        );
        let inc = &mut self.worker.inc;
        inc.reset_alone(agent, network.n());
        inc.relax_inserts(network, &self.at_agent);
    }

    /// The agent's current cost, derived off `d0` (module docs, "The
    /// current cost"): a copy of `d0` in the table's vector takes the
    /// edges the agent alone owns in one relaxation, which leaves the
    /// agent's distances in the network, and their index-order sum is
    /// added to its edge cost. `d0` stays in the live vector. Debug
    /// builds check the cost bits against [`agent_cost_in`]'s Dijkstra.
    fn current_cost(
        &mut self,
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        agent: NodeId,
    ) -> f64 {
        self.at_agent.clear();
        self.at_agent.extend(
            profile
                .strategy(agent)
                .iter()
                .filter(|&&v| !profile.owns(v, agent))
                .map(|&v| (agent, v, game.w(agent, v))),
        );
        let dist = &mut self.table;
        dist.reset_from(agent, self.worker.inc.dist());
        dist.relax_inserts(network, &self.at_agent);
        let current = edge_cost(game, profile, agent) + dist.sum();
        debug_assert_eq!(
            current.to_bits(),
            agent_cost_in(game, profile, network, agent)
                .total()
                .to_bits(),
            "agent {agent}'s cost derived off d0 drifted from agent_cost_in"
        );
        current
    }

    /// Grows the bound table of `candidates` over `g` back to front in
    /// its own vector (module docs, "Building the table"): row `i` the
    /// distances from `agent` in `G − u + star(candidates[i..])`. `g` is
    /// the agent's network or any graph that differs from it only in
    /// edges at the agent, such as its base graph.
    fn grow_table(&mut self, g: &AdjacencyList, agent: NodeId, candidates: &[(NodeId, f64)]) {
        let n = g.n();
        let grow = &mut self.table;
        grow.reset_alone(agent, n);
        self.via.clear();
        self.via.resize(candidates.len() * n, f64::INFINITY);
        for (row, &(c, w)) in self.via.chunks_exact_mut(n).zip(candidates).rev() {
            grow.relax_insert(g, agent, c, w);
            row.copy_from_slice(grow.dist());
        }
    }

    /// The agent's exact best response over `candidates` (every one of
    /// its candidates, or the ones the cut keeps), with `d0` grown in the
    /// live vector ([`BrSearch::grow_d0`]) and the incumbent seeded from
    /// its `current` cost and strategy: the table grown for `candidates`,
    /// then the DFS from `d0`, all over the network. Debug builds check
    /// the table against the fold it is grown instead of and `d0` against
    /// a Dijkstra on the base graph.
    fn run(
        &mut self,
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        agent: NodeId,
        current: f64,
        candidates: &[(NodeId, f64)],
    ) -> BestResponse {
        self.grow_table(network, agent, candidates);
        let n = network.n();
        let worker = &mut self.worker;
        worker.arm(n, current);
        #[cfg(debug_assertions)]
        {
            let base = base_graph_from(network, profile, agent);
            let fold = fold_bound_table(game, &base, agent, candidates.len());
            assert_table_matches_fold(&self.via, &fold, game.n(), agent);
            assert_eq!(
                worker.inc.dist(),
                gncg_graph::dijkstra::dijkstra(&base, agent),
                "agent {agent}'s d0 diverged from a Dijkstra on its base graph"
            );
        }
        let view = BrSearchView {
            agent,
            n,
            alpha: game.alpha(),
            bound: MoveBound::new(n),
            network,
            candidates,
            via: &self.via,
        };
        view.search(worker);
        worker.take_result(current, profile.strategy(agent))
    }
}

/// How many of `agent`'s candidates, in [`Game::by_weight`]'s order, its
/// exact best response keeps when its current cost is `current`: the
/// first `K`, where `K` is the first index whose weight `w_K` prices
/// every subset holding it at or above `current − EPS`, or all of them
/// (module docs, "The cut", which proves the test).
pub fn candidates_kept(game: &Game, agent: NodeId, current: f64) -> usize {
    let reach = MoveBound::sum(game.host_distances().row(agent));
    let bound = MoveBound::new(2 * game.n());
    let floor = current - gncg_graph::EPS;
    game.by_weight(agent)
        .partition_point(|&(_, w)| !bound.rules_out(game.alpha() * w, reach, floor))
}

/// The fold oracle's own candidate order: every other node sorted by
/// increasing host weight from the agent (a stable sort, so equal weights
/// keep ascending ids), with those weights, read off the agent's host
/// row apart from [`Game::by_weight`].
fn sort_candidates(game: &Game, agent: NodeId) -> Vec<(NodeId, f64)> {
    let w = game.host().row(agent);
    let mut candidates: Vec<(NodeId, f64)> = (0..game.n() as NodeId)
        .filter(|&v| v != agent)
        .map(|v| (v, w[v as usize]))
        .collect();
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
    candidates
}

/// The pruning bound's table for `agent` over every one of its
/// candidates, uncut, as the exact best response grows it (module docs):
/// `len = n − 1` rows of `n`, row `i` the distances from `agent` in
/// `G − u + star(candidates[i..])`, with candidates sorted by increasing
/// weight from the agent. `graph` is the agent's network or its base
/// graph: they differ only in edges at the agent, which the growth never
/// reads.
pub fn bound_table(game: &Game, graph: &AdjacencyList, agent: NodeId) -> Vec<f64> {
    let mut search = BrSearch::default();
    search.grow_table(graph, agent, game.by_weight(agent));
    search.via
}

/// The table [`bound_table`] grows, folded the slow way: one Dijkstra per
/// candidate `c_i` on a copy of `G − u`, and row
/// `i = min(w(u, c_i) + d_{G−u}(c_i, ·), row i + 1)`, back to front. It
/// sums each path from its second node, so its entries match the grown
/// ones within rounding only, and its agent column is `∞` where the grown
/// table's is 0 (`u` is isolated in `G − u`). Kept as the grown table's
/// oracle: debug builds compare every table a search grows with this
/// fold over the same candidates, the ones its cut keeps.
pub fn bound_table_reference(game: &Game, base: &AdjacencyList, agent: NodeId) -> Vec<f64> {
    fold_bound_table(game, base, agent, game.n() - 1)
}

/// [`bound_table_reference`] over the first `kept` candidates alone: row
/// `i` folds `star(candidates[i..kept])`, the table a cut search grows.
fn fold_bound_table(game: &Game, base: &AdjacencyList, agent: NodeId, kept: usize) -> Vec<f64> {
    let n = game.n();
    let candidates = &sort_candidates(game, agent)[..kept];
    // A base graph differs from the network only in edges at the agent.
    let mut g_minus_u = base.clone();
    for &(v, _) in base.neighbors(agent) {
        g_minus_u.remove_edge(agent, v);
    }
    let mut scratch = DijkstraScratch::new();
    let mut via = vec![f64::INFINITY; (kept + 1) * n];
    for (i, &(c, w)) in candidates.iter().enumerate().rev() {
        scratch.run(&g_minus_u, c, &[]);
        // Row `i` folds over row `i + 1`, laid out right behind it.
        let (row, next) = via[i * n..(i + 2) * n].split_at_mut(n);
        for (x, (slot, &suffix)) in row.iter_mut().zip(next.iter()).enumerate() {
            *slot = (w + scratch.dist(x as NodeId)).min(suffix);
        }
    }
    // Drop the all-∞ row the fold started from.
    via.truncate(kept * n);
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

impl BrSearchView<'_> {
    /// Whether no subset below the node at depth `idx < len` can replace
    /// the incumbent: the module docs' bound `LB`, its distance sum added
    /// in [`MoveBound`]'s four lanes and shrunk by the `1 − 8nε` rounding
    /// margin, is at least `best − EPS`. `MoveBound::reach` with a zero
    /// weight sums `min(D[x], via[idx][x])`, since `0.0 + via` is `via`.
    #[inline]
    fn prunes(&self, worker: &BrWorker, idx: usize, edge_w_sum: f64) -> bool {
        let via_row = &self.via[idx * self.n..(idx + 1) * self.n];
        let reach = MoveBound::reach(worker.inc.dist(), 0.0, via_row);
        let edge = self.alpha * (edge_w_sum + self.candidates[idx].1);
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
        let (v, w) = self.candidates[idx];
        // Branch 1: include v — relax incrementally, price the new set.
        worker.inc.add_edge(self.network, self.agent, v, w);
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

/// [`exact_best_response`] reusing an already-built network `G(s)`: the
/// search every exact-rule activation of the dynamics engine runs. It
/// derives the agent's current cost off the base distances it grows
/// anyway (module docs, "The current cost") instead of running the
/// Dijkstra of [`agent_cost_in`], then searches as
/// [`exact_best_response_given_current`] does, in the same buffers.
pub fn exact_best_response_in(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
) -> BestResponse {
    search(game, profile, network, agent, None)
}

/// [`exact_best_response_in`] with the agent's current cost supplied by
/// the caller (br certification reads it off the cell's all-pairs
/// table). It searches the candidates the cut keeps ([`candidates_kept`])
/// straight off `network`, in buffers its thread keeps (module docs, "The
/// incremental engine"), so once they have grown a call allocates only
/// its result. Debug builds re-run the search over every candidate and
/// assert the same strategy and cost bits, with no more subsets evaluated
/// (module docs, "The cut").
///
/// `current` must equal `agent_cost_in(game, profile, network, agent)
/// .total()` exactly (it seeds the incumbent, so a too-low value could
/// prune the true optimum); debug builds check it against the cost the
/// search derives.
pub fn exact_best_response_given_current(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
    current: f64,
) -> BestResponse {
    search(game, profile, network, agent, Some(current))
}

/// The exact best response of both entry points, in this thread's
/// buffers: `d0` grown, the current cost derived off it unless the
/// caller supplies it, the cut taken, then the table and the DFS.
fn search(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
    supplied: Option<f64>,
) -> BestResponse {
    let candidates = game.by_weight(agent);
    let br = SEARCH.with_borrow_mut(|search| {
        search.grow_d0(profile, network, agent);
        let current = match supplied {
            Some(current) => {
                debug_assert_eq!(
                    current.to_bits(),
                    search.current_cost(game, profile, network, agent).to_bits(),
                    "agent {agent}: the supplied current cost is not its cost"
                );
                current
            }
            None => search.current_cost(game, profile, network, agent),
        };
        let kept = candidates_kept(game, agent, current);
        search.run(game, profile, network, agent, current, &candidates[..kept])
    });
    #[cfg(debug_assertions)]
    {
        let kept = candidates_kept(game, agent, br.current_cost);
        let mut all = BrSearch::default();
        all.grow_d0(profile, network, agent);
        let full = all.run(game, profile, network, agent, br.current_cost, candidates);
        assert!(
            br.strategy == full.strategy
                && br.cost.to_bits() == full.cost.to_bits()
                && br.evaluated <= full.evaluated,
            "agent {agent}: the search over {kept} of {} candidates returned {:?} at {} \
             ({} evaluated), the search over all of them {:?} at {} ({} evaluated)",
            candidates.len(),
            br.strategy,
            br.cost,
            br.evaluated,
            full.strategy,
            full.cost,
            full.evaluated
        );
    }
    br
}

/// Bytes the calling thread's fresh-search tables hold: the `via` table,
/// the vector it grows in and the DFS's live vector, the `Θ(n²)` state of
/// the exact best response. Capacity-based, so it reports what the
/// largest search on this thread grew them to; `0` on a thread that
/// never searched.
pub fn search_resident_bytes() -> usize {
    SEARCH.with_borrow(|search| {
        search.via.capacity() * std::mem::size_of::<f64>()
            + search.table.resident_bytes()
            + search.worker.inc.resident_bytes()
    })
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
        // the oracle's exact cost bits.
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
