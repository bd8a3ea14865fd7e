//! The dynamics run loop.
//!
//! A run repeatedly activates agents (per [`Scheduler`]) and lets each
//! activated agent apply an improving strategy change (per
//! [`ResponseRule`]). The run ends when
//!
//! * a full round passes with no applied move — the profile is an
//!   equilibrium *with respect to the rule's move space* (exact NE for
//!   [`ResponseRule::ExactBestResponse`], GE for
//!   [`ResponseRule::BestGreedyMove`], AE for [`ResponseRule::AddOnly`]),
//! * a profile recurs ([`Outcome::Cycle`]) — a finite-improvement-property
//!   violation witness under deterministic scheduling, or
//! * the round cap is hit ([`Outcome::MaxRoundsReached`]).
//!
//! # The reusable [`Engine`]
//!
//! Batch workloads (the scenario grid runner, the experiment harness)
//! execute thousands of runs back to back. All per-run scratch — the
//! cached network, the per-agent warm distance vectors, the
//! cycle-detector map — lives in an [`Engine`] and is *reset*, not
//! reallocated, between runs: construct one `Engine` per worker shard and
//! feed it cells. The free function [`run`] remains as the one-shot
//! convenience wrapper (it builds a throwaway `Engine`).
//!
//! # Cached-network evaluation and warm distance vectors
//!
//! Every activation needs the built network `G(s)` and the activated
//! agent's current cost. The engine maintains one [`EvalContext`]:
//!
//! * every accepted move is expressed as a [`NetworkDelta`] — the changed
//!   agent's dropped edges become removals unless co-owned, its new edges
//!   become insertions unless already present — and
//!   [`EvalContext::apply_strategy_change`] is the **single way network
//!   state changes**: it stages the delta one edge at a time through the
//!   cached network;
//! * the context keeps **per-agent distance vectors warm across rounds**
//!   for the greedy rules: an agent's current distance cost is read from
//!   its warm vector instead of a per-activation base Dijkstra.
//!   Committed insertions are *logged* and replayed into a vector as one
//!   batched decrease-only relaxation when that vector is next read
//!   ([`DynamicSssp::relax_inserts`] — lazy sync, which keeps an
//!   add-heavy round `Θ(n²)` where eager per-move repair was `Θ(n³)`);
//!   each staged removal is a Ramalingam–Reps affected-region repair
//!   ([`DynamicSssp::remove_edges`], a delta's removals batched into one
//!   affected-region pass) — so warm vectors survive moves of **every**
//!   kind (add, delete, swap). The invalidate-and-redo ancestor is
//!   [`EvalContext::reset`] followed by fresh reads, the measured
//!   baseline of the `dynamics_swap_heavy` bench;
//! * the greedy rules' per-activation **candidate-move scan** prices each
//!   candidate *speculatively against a copy of the activated agent's
//!   warm vector* (apply the move's edge delta inside a speculation
//!   frame, read the cost off the warm sum, roll back —
//!   [`best_move_among_speculative_priced`]), then selects the winner in
//!   move order. Each owned edge's removal is repaired at most once for
//!   its delete and all its swaps. An activation reads the agent's
//!   strategy once, into flat tables: its owned and its free
//!   `(id, w(u, id))` pairs, ascending, whose merge and product are the
//!   move space the scan walks and whose owned pairs every edge term
//!   sums, and bitmaps of its network neighbours and co-owned edges,
//!   which answer the scan's probes. The tables and the scan's per-call
//!   buffers live in one reused scratch beside the row copy (one per
//!   pool thread, kept from scan to scan, in the pool-parallel scan), so
//!   an activation allocates nothing once they have grown;
//! * **warm vectors double as rows.** Under full-sum pricing the scan is
//!   bound-first: it rules out most adds, deletes and swaps off the
//!   *other* agents' warm vectors `d(a,·)` before any frame opens
//!   ([`ScanPricing::FullSum`]). A row with pending inserts would
//!   overestimate distances and make those bounds unsound, so a
//!   full-sum greedy or add pricing first makes every warm vector
//!   current, and the pool-parallel scan syncs them all before it prices
//!   any agent on a worker-local copy of its row, so the rows stay
//!   shared and read-only. The context records the commit epoch at which
//!   it last made every row current; nothing can leave a row stale
//!   within an epoch, so only the first such pricing after a commit
//!   syncs, and the others skip the `n` checks. Every vector then
//!   replays each committed insert on the next activation instead of in
//!   a batch: `Θ(n)` vectors of `O(n)` each per commit, no more than the
//!   full-sum scan's own `Θ(n²)` per activation. Horizon pricing reads
//!   only the priced agent's own vector and keeps the batched lazy sync.
//!   The scan's ancestor, one masked from-scratch
//!   Dijkstra per candidate
//!   ([`best_move_among_given_current`](gncg_core::response::best_move_among_given_current)),
//!   is the debug oracle of every scan and the measured baseline of the
//!   `move_scan` bench;
//! * the exact rule reads no warm vector. Each activation runs one fresh
//!   search ([`exact_best_response_in`]), the search br certification
//!   and `is_nash_equilibrium` run, which derives the agent's current
//!   cost off the base distances it grows anyway (a copy of them takes
//!   the edges the agent alone owns in one relaxation, and is summed).
//!   The search grows its tables straight off the network (one batched
//!   relaxation for the base distances, one star relaxation per
//!   candidate the cut keeps for the bound table) in buffers its thread
//!   keeps, so the context holds no per-agent search state, and a br run
//!   never makes a warm vector valid: its commits replay no insert and
//!   repair no vector.
//!
//! # One activation path
//!
//! The run loop's activations, [`Scheduler::MaxGain`],
//! [`agent_is_stable_given_current`] and the [`RegretMeter`] all price an
//! agent's best `rule`-move through the same per-agent code: one agent
//! at a time, or as one pool-parallel scan over every agent, which
//! MaxGain folds to its winner and the meter maps to regrets.
//!
//! All four share one **pricing memo**: each agent's last answer, keyed
//! by the context's *commit epoch* and the rule it was priced under. The
//! epoch is bumped by every committed change
//! ([`EvalContext::apply_strategy_change`]), by [`EvalContext::reset`],
//! by [`EvalContext::set_pricing`] and by [`Engine::recycle`], and never
//! rewound. Between two bumps every input of a pricing is unchanged —
//! the profile, the network, the distances its warm vectors hold (rows
//! included: the bounds they feed only skip moves), the rule and the
//! pricing policy — so a stored answer whose epoch and rule match is
//! bitwise the fresh one and is returned as is; only the other agents
//! are warmed and priced. Debug builds re-price every hit and assert it
//! bitwise equal. In a metered
//! round-robin run, activations before a round's first move reuse the
//! last meter scan, the meter re-prices only the agents priced before
//! the round's last move, and a converged run's final round, its meter
//! and a post-run [`agent_is_stable_given_current`] sweep price nothing.
//! [`EvalContext::pricings`] counts the pricings that ran.
//!
//! The context is behaviorally invisible — `debug_assert`s re-derive the
//! network from the profile and every valid warm vector from a fresh
//! Dijkstra after each applied move, so the equivalence is
//! machine-checked in every debug-mode test run — and the costs produced
//! are bit-identical to rebuild-per-activation evaluation: warm vectors
//! equal a fresh Dijkstra's output exactly (both take exact minima over
//! identical sets of left-to-right path prefix sums, see
//! `gncg_graph::csr`), and sums are taken in the same index order.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use std::cell::RefCell;
use std::collections::BTreeSet;

use gncg_core::moves::MoveSpace;
use gncg_core::response::{
    best_move_among_speculative_priced, exact_best_response_in, ScanPricing, ScanScratch,
    SpeculativePricing,
};
use gncg_core::{Game, NodeId, Profile};
use gncg_graph::{AdjacencyList, DynamicSssp, NetworkDelta};

use crate::cycle::{CycleDetector, Recurrence};

/// Which deviation space activated agents search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseRule {
    /// Exact best response (exponential per activation; small `n`).
    ExactBestResponse,
    /// Best single add / delete / swap (polynomial; converges to GE).
    BestGreedyMove,
    /// Best single addition (polynomial; converges to AE).
    AddOnly,
}

/// Agent activation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// `0, 1, …, n-1` every round (deterministic — recurrences certify
    /// genuine cycles).
    RoundRobin,
    /// A fresh uniformly random permutation each round.
    RandomOrder {
        /// RNG seed.
        seed: u64,
    },
    /// Each round activates only the agent with the largest available
    /// improvement (deterministic; ties break towards the smaller id).
    MaxGain,
}

/// Run configuration.
#[derive(Clone, Copy, Debug)]
pub struct DynamicsConfig {
    /// Deviation space.
    pub rule: ResponseRule,
    /// Activation order.
    pub scheduler: Scheduler,
    /// Maximum rounds before giving up.
    pub max_rounds: usize,
    /// Whether to record the per-round max-regret series
    /// ([`RunResult::regret_series`]) via a [`RegretMeter`] scan after
    /// each round. Off by default: the scan is behaviorally invisible
    /// (warm vectors equal fresh Dijkstras bitwise and speculation rolls
    /// back exactly), but it re-prices every agent priced before the
    /// round's last move (the others are pricing-memo hits).
    pub regret_meter: bool,
    /// Checkpoint cadence in rounds: every `k`-th completed round (and
    /// the final round of the run) a [`Checkpoint`] of the full engine
    /// state is captured into [`RunResult::checkpoints`]. `0` disables
    /// checkpointing (the default).
    pub checkpoint_every: usize,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            rule: ResponseRule::BestGreedyMove,
            scheduler: Scheduler::RoundRobin,
            max_rounds: 1_000,
            regret_meter: false,
            checkpoint_every: 0,
        }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A full round was silent: equilibrium w.r.t. the rule's move space.
    Converged {
        /// Rounds executed (including the final silent round).
        rounds: usize,
    },
    /// A previously seen profile recurred.
    Cycle {
        /// The recurrence.
        recurrence: Recurrence,
    },
    /// The cap was reached without convergence or recurrence.
    MaxRoundsReached,
}

/// Result of a dynamics run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Final profile.
    pub profile: Profile,
    /// Why the run ended.
    pub outcome: Outcome,
    /// Rounds executed (for [`Outcome::Converged`] this includes the
    /// final silent round; for [`Outcome::Cycle`] the round the
    /// recurrence was observed in; for [`Outcome::MaxRoundsReached`] the
    /// cap itself).
    pub rounds: usize,
    /// Total applied moves.
    pub moves: usize,
    /// Per-round max regret ([`DynamicsConfig::regret_meter`]): entry `r`
    /// is the largest cost improvement any agent could still realize
    /// under the run's rule at the end of round `r`. `0.0` certifies an
    /// equilibrium w.r.t. the rule's move space, so on a converged run
    /// the final entry is exactly `0.0`.
    pub regret_series: Option<Vec<f64>>,
    /// Engine-state snapshots ([`DynamicsConfig::checkpoint_every`]), in
    /// round order.
    pub checkpoints: Option<Vec<Checkpoint>>,
}

impl RunResult {
    /// Whether the run ended in a certified equilibrium.
    pub fn converged(&self) -> bool {
        matches!(self.outcome, Outcome::Converged { .. })
    }
}

/// A serialized snapshot of engine state at the end of a round — the
/// unit of the trace time-travel layer: checkpoints ride inside the
/// cell's JSONL line through every sink/stream layer, and `gncg explore`
/// replays them (list per-agent cost/regret, diff strategies between
/// rounds) without re-running the dynamics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// The (0-based) round this snapshot closes.
    pub round: usize,
    /// Every agent's strategy, as a sorted owned-endpoint list.
    pub strategies: Vec<Vec<NodeId>>,
    /// Every agent's total cost `α·w(u, S_u) + d_G(u, V)`.
    pub costs: Vec<f64>,
    /// Every agent's regret under the run's rule (see [`RegretMeter`]).
    pub regrets: Vec<f64>,
}

impl Checkpoint {
    /// Captures the current engine state. `meter` must have been
    /// [`RegretMeter::measure`]d against the same `(game, profile, ctx,
    /// rule)` — the capture reuses its per-agent regrets. Under the
    /// greedy rules it reads every cost off a warm vector. Those are all
    /// current: the scan warmed the agents it priced, and the agents it
    /// read off the memo have had nothing committed since they were
    /// priced, when their vectors were made current. The exact rule warms
    /// no vector, so its costs come from one Dijkstra each on the
    /// context's network ([`agent_cost_in`](gncg_core::cost::agent_cost_in)).
    fn capture(
        round: usize,
        game: &Game,
        profile: &Profile,
        ctx: &EvalContext,
        meter: &RegretMeter,
        rule: ResponseRule,
    ) -> Checkpoint {
        let n = game.n();
        let cost = |u| match rule {
            ResponseRule::ExactBestResponse => {
                gncg_core::cost::agent_cost_in(game, profile, ctx.network(), u).total()
            }
            _ => ctx.current_cost(game, profile, u),
        };
        Checkpoint {
            round,
            strategies: (0..n as NodeId)
                .map(|u| profile.strategy(u).iter().copied().collect())
                .collect(),
            costs: (0..n as NodeId).map(cost).collect(),
            regrets: meter.regrets().to_vec(),
        }
    }
}

/// The streaming max-regret meter: prices every agent's best available
/// improvement off the warm distance vectors in one speculative-delta
/// scan (the same pricing pass [`Scheduler::MaxGain`] runs to pick a
/// winner, kept whole instead of reduced), so "how far from equilibrium
/// is this profile" costs one parallel scan per round instead of `n`
/// from-scratch best responses — a scan that prices only the agents the
/// pricing memo misses. A max of `0.0` certifies an equilibrium with
/// respect to the rule's move space.
#[derive(Clone, Debug, Default)]
pub struct RegretMeter {
    regrets: Vec<f64>,
}

impl RegretMeter {
    /// A fresh meter (scratch grows on first measure).
    pub fn new() -> Self {
        RegretMeter::default()
    }

    /// Recomputes every agent's regret for `profile` under `rule` and
    /// returns the maximum. An agent's regret is its current cost minus
    /// the best cost any single `rule`-move reaches (`f64::INFINITY` when
    /// a move first makes the cost finite; `0.0` when no move improves).
    /// The scan is bitwise deterministic at every thread count and leaves
    /// `ctx` behaviorally untouched: agents priced since the last commit
    /// are read off the pricing memo, the others are priced off warm
    /// vectors (bitwise equal to fresh Dijkstras) with every speculation
    /// rolled back.
    pub fn measure(
        &mut self,
        game: &Game,
        profile: &Profile,
        ctx: &mut EvalContext,
        rule: ResponseRule,
    ) -> f64 {
        self.regrets = ctx
            .scan(game, profile, rule)
            .map(|change| change.map_or(0.0, gain))
            .collect();
        self.max()
    }

    /// The per-agent regrets of the last [`RegretMeter::measure`].
    pub fn regrets(&self) -> &[f64] {
        &self.regrets
    }

    /// The maximum regret of the last measure (`0.0` when never measured
    /// or when no agent improves — a certified equilibrium).
    pub fn max(&self) -> f64 {
        // Sequential fold in index order: deterministic at any thread
        // count, and `max` so an INFINITY entry dominates.
        self.regrets.iter().copied().fold(0.0, f64::max)
    }
}

/// An improving strategy change: the new strategy plus the agent's cost
/// before and after it.
type Change = (BTreeSet<NodeId>, f64, f64);

/// An agent's last pricing: the commit epoch and rule it ran under, and
/// the answer (`None` when the agent was stable).
#[derive(Debug)]
struct Priced {
    epoch: u64,
    rule: ResponseRule,
    change: Option<Change>,
}

/// Whether `slot` holds a pricing from commit epoch `epoch` under `rule`
/// — one that is bitwise the fresh answer (see the module docs).
fn is_current(slot: &Option<Priced>, epoch: u64, rule: ResponseRule) -> bool {
    slot.as_ref()
        .is_some_and(|p| p.epoch == epoch && p.rule == rule)
}

/// The memo lookup every activation path shares: keeps `slot` when it is
/// current for `(epoch, rule)`, otherwise stores `price()`'s answer there.
/// Returns whether `price` ran for a miss. Debug builds re-price every hit
/// and assert the stored strategy and both costs bitwise equal to the
/// fresh ones.
fn memoized(
    slot: &mut Option<Priced>,
    epoch: u64,
    rule: ResponseRule,
    price: impl FnOnce() -> Option<Change>,
) -> bool {
    if is_current(slot, epoch, rule) {
        #[cfg(debug_assertions)]
        {
            let bits = |c: Option<&Change>| {
                c.map(|(s, before, after)| (s.clone(), before.to_bits(), after.to_bits()))
            };
            let hit = slot.as_ref().and_then(|p| p.change.as_ref());
            assert_eq!(
                bits(hit),
                bits(price().as_ref()),
                "memoized {rule:?} pricing diverged from a fresh one at epoch {epoch}"
            );
        }
        return false;
    }
    *slot = Some(Priced {
        epoch,
        rule,
        change: price(),
    });
    true
}

/// How much a change improves its agent's cost (`f64::INFINITY` when it
/// first makes the cost finite) — what [`Scheduler::MaxGain`] ranks and
/// the [`RegretMeter`] reports.
fn gain(&(_, before, after): &Change) -> f64 {
    if before.is_infinite() && after.is_finite() {
        f64::INFINITY
    } else {
        before - after
    }
}

/// Which warm vectors a pricing reads, so which ones must be current
/// before it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rows {
    /// None: the exact rule's search derives the priced agent's current
    /// cost itself ([`exact_best_response_in`]).
    None,
    /// The priced agent's own: RegionDelta pricing of the greedy rules.
    Own,
    /// Every agent's: the greedy rules' bound-first FullSum scan
    /// ([`ScanPricing::FullSum`]).
    All,
}

/// The warm vectors pricing under `rule` and `pricing` reads.
fn rows_read(rule: ResponseRule, pricing: SpeculativePricing) -> Rows {
    match (rule, pricing) {
        (ResponseRule::ExactBestResponse, _) => Rows::None,
        (_, SpeculativePricing::FullSum) => Rows::All,
        (_, SpeculativePricing::RegionDelta) => Rows::Own,
    }
}

/// What one pricer works in, reused from agent to agent: the copy of the
/// priced agent's row its move scan speculates on, so every warm vector
/// stays readable as a row, and the scan's tables and buffers.
#[derive(Debug, Default)]
struct PricerScratch {
    row_copy: DynamicSssp,
    scan: ScanScratch,
}

impl PricerScratch {
    fn resident_bytes(&self) -> usize {
        self.row_copy.resident_bytes() + self.scan.resident_bytes()
    }
}

thread_local! {
    /// What one pool thread prices in during [`EvalContext::scan`], kept
    /// from scan to scan so that a scan allocates nothing once its
    /// threads' scratch has grown. Each item of a scan's pricing pass
    /// borrows it for its own pricing only, which never reaches another
    /// scan, so the borrow never nests. The sync pass needs no scratch: a
    /// cold row runs its Dijkstra in the row itself.
    static POOL_SCRATCH: RefCell<PricerScratch> = RefCell::new(PricerScratch::default());
}

/// The per-agent pricing every activation path shares: agent `u`'s
/// improving change under `rule` (`None` when `u` is stable). The exact
/// rule runs a fresh search ([`exact_best_response_in`]) in its thread's
/// buffers, which derives `u`'s current cost itself, and reads no row.
/// The greedy rules price off `rows`, the warm vectors, whose entry `u`
/// supplies the current cost; every row they read
/// ([`rows_read`]) must be current. They read `u`'s strategy once into
/// the scratch's tables and walk their move space off them speculatively
/// against the scratch's copy of `u`'s row (borrowed mutably for apply →
/// read → rollback), so the rows stay shared and read-only; under FullSum
/// the scan rules moves out off the other agents' rows first.
fn pricer<'a>(
    game: &'a Game,
    profile: &'a Profile,
    network: &'a AdjacencyList,
    rule: ResponseRule,
    pricing: SpeculativePricing,
) -> impl Fn(NodeId, &[DynamicSssp], &mut PricerScratch) -> Option<Change> + Sync + 'a {
    move |u, rows, scratch| {
        let space = match rule {
            ResponseRule::ExactBestResponse => {
                let br = exact_best_response_in(game, profile, network, u);
                return br
                    .improves()
                    .then_some((br.strategy, br.current_cost, br.cost));
            }
            ResponseRule::BestGreedyMove => MoveSpace::Greedy,
            ResponseRule::AddOnly => MoveSpace::AddOnly,
        };
        let row = &rows[u as usize];
        let current = gncg_core::cost::edge_cost(game, profile, u) + row.sum();
        scratch.scan.load(game, profile, network, u);
        let scan = match pricing {
            SpeculativePricing::FullSum => ScanPricing::FullSum(rows),
            SpeculativePricing::RegionDelta => ScanPricing::RegionDelta,
        };
        scratch.row_copy.reset_from(u, row.dist());
        best_move_among_speculative_priced(
            game,
            profile,
            network,
            &mut scratch.row_copy,
            u,
            current,
            space,
            scan,
            &mut scratch.scan,
        )
        .map(|(m, c)| (m.apply(u, profile.strategy(u)), current, c))
    }
}

/// Makes one warm distance vector current for `network`: a fresh Dijkstra
/// in the vector itself ([`DynamicSssp::reset_dijkstra`]) when it was
/// never computed this run (`pending` is `None`), otherwise one batched
/// replay of the committed insertions it has not seen yet.
fn sync_warm(
    network: &AdjacencyList,
    u: NodeId,
    warm: &mut DynamicSssp,
    pending: Option<&[(NodeId, NodeId, f64)]>,
) {
    match pending {
        None => warm.reset_dijkstra(network, u),
        Some(log) if !log.is_empty() => warm.relax_inserts(network, log),
        Some(_) => {}
    }
}

/// The built network `G(s)` plus per-agent warm distance vectors, cached
/// across a run and maintained under strategy changes (see the module
/// docs for the delta/warm invariants).
#[derive(Debug, Default)]
pub struct EvalContext {
    network: AdjacencyList,
    /// Warm per-agent distance vectors (`warm[u]` from source `u` in the
    /// current network); entry `u` is meaningful only when `valid[u]`.
    warm: Vec<DynamicSssp>,
    valid: Vec<bool>,
    /// Append-only log of this run's committed edge insertions. Committed
    /// inserts are *not* eagerly relaxed into every warm vector (early in
    /// a run a single good edge improves `Θ(n)` distances in `Θ(n)`
    /// vectors — eager repair makes a round `Θ(n³)`); they are replayed
    /// into a vector in one batched pass when that vector is next read.
    insert_log: Vec<(NodeId, NodeId, f64)>,
    /// `synced[u]`: how many `insert_log` entries `warm[u]` already
    /// reflects. A vector is current iff `valid[u] && synced[u] ==
    /// insert_log.len()` — what [`EvalContext::ensure_warm`] establishes.
    synced: Vec<usize>,
    /// What the activations' pricer works in: the copy of the activated
    /// agent's warm vector its move scan speculates on, and the scan's
    /// tables and buffers.
    pricer: PricerScratch,
    /// Reusable edge-delta buffer for [`EvalContext::apply_strategy_change`].
    delta: NetworkDelta,
    /// Reusable actually-removed buffer for `apply_delta`'s batched
    /// warm-vector repair.
    removed_buf: Vec<(NodeId, NodeId, f64)>,
    /// How the speculative scan reads candidate distance costs
    /// ([`SpeculativePricing`]; survives [`EvalContext::reset`]).
    pricing: SpeculativePricing,
    /// The commit epoch the pricing memo is keyed on: bumped by
    /// [`EvalContext::apply_strategy_change`], [`EvalContext::reset`],
    /// [`EvalContext::set_pricing`] and [`Engine::recycle`], never rewound,
    /// so no pricing from before any of them can match again.
    epoch: u64,
    /// The epoch at which every warm vector was last made current: within
    /// it, nothing can leave a row stale, so an activation that reads
    /// every row syncs none. `0` is never live (a context's first reset
    /// bumps the epoch to 1).
    rows_epoch: u64,
    /// The pricing memo: `priced[u]` is agent `u`'s last pricing.
    priced: Vec<Option<Priced>>,
    /// Pricer runs for memo misses ([`EvalContext::pricings`]).
    pricings: u64,
}

impl EvalContext {
    /// Builds a context for `profile` on `game` (one full network
    /// construction; warm vectors fill lazily).
    pub fn new(game: &Game, profile: &Profile) -> Self {
        let mut ctx = EvalContext::default();
        ctx.reset(game, profile);
        ctx
    }

    /// Re-targets the context at a new run, reusing every allocation the
    /// previous run left behind, the network's neighbour lists included:
    /// they are cleared and refilled with the profile's edges in
    /// [`Profile::build_network`]'s order.
    pub fn reset(&mut self, game: &Game, profile: &Profile) {
        self.epoch += 1;
        profile.build_network_into(game, &mut self.network);
        let n = game.n();
        if self.warm.len() < n {
            self.warm.resize_with(n, DynamicSssp::new);
        }
        self.valid.clear();
        self.valid.resize(n, false);
        self.insert_log.clear();
        self.synced.clear();
        self.synced.resize(n, 0);
        if self.priced.len() < n {
            self.priced.resize_with(n, || None);
        }
    }

    /// The current network.
    #[inline]
    pub fn network(&self) -> &AdjacencyList {
        &self.network
    }

    /// Sets the speculative scan's candidate pricing policy (see
    /// [`SpeculativePricing`]). [`SpeculativePricing::RegionDelta`] is a
    /// distinct deterministic policy — sub-ulp ties may resolve
    /// differently — so it participates in scenario digests and carries
    /// its own goldens; the default keeps every pre-existing byte
    /// stream.
    pub fn set_pricing(&mut self, pricing: SpeculativePricing) {
        self.epoch += 1;
        self.pricing = pricing;
    }

    /// How many times this context has priced an agent: a plain count of
    /// per-agent pricer runs over the context's lifetime, memo hits
    /// excluded — the "agents re-priced" work counter.
    pub fn pricings(&self) -> u64 {
        self.pricings
    }

    /// Bytes resident in the calling thread's exact-best-response search
    /// tables ([`search_resident_bytes`](gncg_core::response::search_resident_bytes):
    /// the bound table and the DFS's live vector; `0` unless a
    /// BR-rule search ran on this thread) — the `Θ(n²)` companion figure
    /// to [`EvalContext::warm_resident_bytes`]. The context itself holds
    /// no search state: every exact-rule activation searches afresh in
    /// its thread's buffers.
    pub fn br_resident_bytes(&self) -> usize {
        gncg_core::response::search_resident_bytes()
    }

    /// Bytes resident in the warm-vector machinery: every per-agent
    /// [`DynamicSssp`], the insert log and its sync marks, plus the
    /// pricer's scratch (its row copy, scan tables and buffers) — the
    /// dominant per-context memory at large `n` (each warm vector holds
    /// `Θ(n)` floats). A warm vector's first read runs its Dijkstra in
    /// the vector itself (past 64 nodes on a heap its thread shares with
    /// every fresh run, which no gauge counts).
    /// Capacity-based, so it reports what the allocator holds, not what
    /// the current run touches.
    pub fn warm_resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.warm
            .iter()
            .map(DynamicSssp::resident_bytes)
            .sum::<usize>()
            + self.insert_log.capacity() * size_of::<(NodeId, NodeId, f64)>()
            + self.synced.capacity() * size_of::<usize>()
            + self.pricer.resident_bytes()
    }

    /// Agent `u`'s improving change under `rule` (`None` when `u` is
    /// stable) — the activation of the run loop and of
    /// [`agent_is_stable_given_current`] — in its memo slot. A memo hit
    /// returns the stored answer; a miss makes every row the pricing
    /// reads current, prices and stores. A pricing that reads every row
    /// syncs them only on the first activation of a commit epoch.
    ///
    /// The run loop moves a change it commits out of the slot instead of
    /// cloning it: the commit bumps the epoch, so the emptied slot is
    /// never read as current again.
    fn activate(
        &mut self,
        game: &Game,
        profile: &Profile,
        u: NodeId,
        rule: ResponseRule,
    ) -> &mut Option<Change> {
        let i = u as usize;
        let n = game.n();
        // No-ops on a hit: nothing was committed since `u` was priced.
        match rows_read(rule, self.pricing) {
            Rows::None => {}
            Rows::Own => self.ensure_warm(u),
            Rows::All => {
                if self.rows_epoch != self.epoch {
                    for a in 0..n as NodeId {
                        self.ensure_warm(a);
                    }
                    self.rows_epoch = self.epoch;
                }
            }
        }
        let price = pricer(game, profile, &self.network, rule, self.pricing);
        let (rows, scratch) = (&self.warm[..n], &mut self.pricer);
        if memoized(&mut self.priced[i], self.epoch, rule, || {
            price(u, rows, scratch)
        }) {
            self.pricings += 1;
        }
        &mut self.priced[i]
            .as_mut()
            .expect("the memo holds the pricing just looked up")
            .change
    }

    /// Every agent's improving change under `rule`, in agent order, read
    /// off the memo after two pool-parallel passes: one makes every row
    /// the pricing reads current ([`rows_read`]: all of them when the scan
    /// reads other agents' rows, none under the exact rule, otherwise
    /// those of the agents the memo misses), each item borrowing exactly
    /// its agent's warm vector, in which a cold row runs its Dijkstra; the
    /// other prices each missed agent against a copy of its row, with its
    /// memo slot borrowed and the rows shared read-only, in its thread's
    /// [`PricerScratch`], kept from scan to scan, so a scan allocates
    /// nothing once its threads' scratch has grown. No pricing depends on
    /// what a scratch held before, so the result is bitwise deterministic
    /// at every thread count.
    fn scan(
        &mut self,
        game: &Game,
        profile: &Profile,
        rule: ResponseRule,
    ) -> impl Iterator<Item = Option<&Change>> + '_ {
        use rayon::prelude::*;
        let n = game.n();
        let epoch = self.epoch;
        let reads = rows_read(rule, self.pricing);
        let price = pricer(game, profile, &self.network, rule, self.pricing);
        let (network, log) = (&self.network, &self.insert_log);
        let (valid, synced, priced) = (&mut self.valid, &mut self.synced, &self.priced);
        let mut stale: Vec<_> = self.warm[..n]
            .iter_mut()
            .enumerate()
            .filter(|&(u, _)| match reads {
                Rows::None => false,
                Rows::Own => !is_current(&priced[u], epoch, rule),
                Rows::All => true,
            })
            .map(|(u, warm)| {
                let pending = valid[u].then(|| &log[synced[u]..]);
                valid[u] = true;
                synced[u] = log.len();
                (u as NodeId, pending, warm)
            })
            .filter(|(_, pending, _)| pending.is_none_or(|p| !p.is_empty()))
            .collect();
        stale.par_chunks_mut(1).for_each(|row| {
            let (u, pending, warm) = &mut row[0];
            sync_warm(network, *u, warm, *pending);
        });
        if reads == Rows::All {
            self.rows_epoch = epoch;
        }
        let rows = &self.warm[..n];
        // Debug builds keep the hits in the pricing pass too, for the
        // re-pricing oracle in `memoized`; nothing was committed since
        // they were priced, so their rows are current.
        let mut agents: Vec<_> = self.priced[..n]
            .iter_mut()
            .enumerate()
            .filter(|(_, slot)| cfg!(debug_assertions) || !is_current(slot, epoch, rule))
            .map(|(u, slot)| (u as NodeId, slot))
            .collect();
        let misses = agents
            .iter()
            .filter(|(_, slot)| !is_current(slot, epoch, rule))
            .count();
        agents.par_chunks_mut(1).for_each(|agent| {
            let (u, slot) = &mut agent[0];
            POOL_SCRATCH.with_borrow_mut(|pricer| {
                memoized(slot, epoch, rule, || price(*u, rows, pricer));
            });
        });
        self.pricings += misses as u64;
        self.priced[..n]
            .iter()
            .map(|p| p.as_ref().and_then(|p| p.change.as_ref()))
    }

    /// Makes agent `u`'s warm distance vector current: a fresh Dijkstra
    /// when it was never computed this run, otherwise one batched replay
    /// of whatever committed edge insertions landed since the vector was
    /// last read ([`DynamicSssp::relax_inserts`] over the pending
    /// `insert_log` suffix).
    pub fn ensure_warm(&mut self, u: NodeId) {
        let i = u as usize;
        let pending = self.valid[i].then(|| &self.insert_log[self.synced[i]..]);
        sync_warm(&self.network, u, &mut self.warm[i], pending);
        #[cfg(debug_assertions)]
        if pending.is_some_and(|p| !p.is_empty()) {
            let fresh = gncg_graph::dijkstra::dijkstra_reference(&self.network, u);
            debug_assert_eq!(
                self.warm[i].dist(),
                fresh.as_slice(),
                "lazily synced warm vector of agent {u} drifted from a fresh Dijkstra"
            );
        }
        self.valid[i] = true;
        self.synced[i] = self.insert_log.len();
    }

    /// Agent `u`'s distance cost `d_G(u, V)` read off its warm vector.
    /// Requires a prior [`EvalContext::ensure_warm`] for `u`.
    #[inline]
    pub fn distance_sum(&self, u: NodeId) -> f64 {
        debug_assert!(
            self.valid[u as usize] && self.synced[u as usize] == self.insert_log.len(),
            "distance_sum on a cold or unsynced vector"
        );
        self.warm[u as usize].sum()
    }

    /// Agent `u`'s full current cost `α·w(u, S_u) + d_G(u, V)` — the
    /// warm-vector replacement for the per-activation Dijkstra of
    /// `agent_cost_in`. Same addition order, bit-identical totals.
    #[inline]
    pub fn current_cost(&self, game: &Game, profile: &Profile, u: NodeId) -> f64 {
        gncg_core::cost::edge_cost(game, profile, u) + self.distance_sum(u)
    }

    /// Applies agent `u`'s strategy change by expressing it as a
    /// [`NetworkDelta`] and staging it through the cached network and the
    /// warm vectors. `profile` must already hold `u`'s *new* strategy;
    /// `old` is the strategy it replaced. An edge leaves only when its
    /// other endpoint does not also own it, and enters only when it is not
    /// already present.
    ///
    /// Warm vectors survive changes of **every** kind: insertions are
    /// logged for batched lazy replay on each vector's next read,
    /// removals repair in place.
    pub fn apply_strategy_change(
        &mut self,
        game: &Game,
        profile: &Profile,
        u: NodeId,
        old: &BTreeSet<NodeId>,
    ) {
        self.epoch += 1;
        let new = profile.strategy(u);
        let mut delta = std::mem::take(&mut self.delta);
        delta.clear();
        for &v in old.difference(new) {
            if !profile.owns(v, u) {
                let w = self
                    .network
                    .edge_weight(u, v)
                    .expect("dropped strategy edge must be in the cached network");
                delta.remove(u, v, w);
            }
        }
        for &v in new.difference(old) {
            if !self.network.has_edge(u, v) {
                delta.insert(u, v, game.w(u, v));
            }
        }
        self.apply_delta(&delta);
        self.delta = delta;
        #[cfg(debug_assertions)]
        {
            let rebuilt = profile.build_network(game);
            let mut a: Vec<_> = self.network.edges().collect();
            let mut b: Vec<_> = rebuilt.edges().collect();
            a.sort_by_key(|e| (e.0, e.1));
            b.sort_by_key(|e| (e.0, e.1));
            debug_assert_eq!(a, b, "EvalContext delta drifted from the rebuilt network");
            // Vectors with pending inserts are stale *by design*; the
            // fresh-Dijkstra oracle runs at sync time instead (see
            // [`EvalContext::ensure_warm`]), which also checks the ones
            // that are current here.
            for (x, ((inc, &valid), &synced)) in self
                .warm
                .iter()
                .zip(self.valid.iter())
                .zip(self.synced.iter())
                .enumerate()
            {
                if valid && synced == self.insert_log.len() {
                    let fresh =
                        gncg_graph::dijkstra::dijkstra_reference(&self.network, x as NodeId);
                    debug_assert_eq!(
                        inc.dist(),
                        fresh.as_slice(),
                        "warm distance vector of agent {x} drifted from a fresh Dijkstra"
                    );
                }
            }
        }
    }

    /// Applies a [`NetworkDelta`] to the cached network and the warm
    /// distance vectors — the single mutation path of the context.
    ///
    /// **Insertions are lazy.** A committed insert goes into the network
    /// and onto the `insert_log`; no vector is touched. Each vector
    /// replays its pending log suffix in one batched
    /// [`DynamicSssp::relax_inserts`] pass when it is next read
    /// ([`EvalContext::ensure_warm`]). Early in a run a single committed
    /// edge improves `Θ(n)` distances in `Θ(n)` vectors, so the eager
    /// per-move repair this replaces made an add-heavy round `Θ(n³)`;
    /// batched lazy sync settles each improved node once per *read*
    /// instead of once per improving edge, and both schedules end on the
    /// same exact — hence bitwise-identical — fixpoint.
    ///
    /// **Removals are eager** (they cannot be replayed decrease-only).
    /// Every valid vector is first synced to the pre-removal network —
    /// the exactness contract of [`DynamicSssp::remove_edges`] — then the
    /// edges leave the network and each vector takes one batched
    /// affected-region repair.
    ///
    /// Degenerate changes follow [`NetworkDelta::apply_to`]'s semantics
    /// exactly: removing an absent edge and re-inserting a present one
    /// are no-ops — for the network *and* the warm vectors, which must
    /// never be "repaired" for a change that did not happen.
    ///
    /// Nothing else is staged: an exact-rule activation keeps no search
    /// state between commits, and builds its search from the network
    /// afresh ([`exact_best_response_in`]). It reads no warm vector
    /// either, so in a br run no vector is valid, and a delta only edits
    /// the network and the insert log.
    fn apply_delta(&mut self, delta: &NetworkDelta) {
        let will_remove = delta
            .removes()
            .iter()
            .any(|&(a, b, _)| self.network.has_edge(a, b));
        if will_remove {
            // Bring every valid vector up to the pre-removal network:
            // remove_edges requires the vector to be exact for the graph
            // the edge is leaving, and pending inserts replay against a
            // network that must still hold the edges about to go.
            let log = &self.insert_log;
            for ((inc, &valid), synced) in self
                .warm
                .iter_mut()
                .zip(self.valid.iter())
                .zip(self.synced.iter_mut())
            {
                if valid && *synced < log.len() {
                    inc.relax_inserts(&self.network, &log[*synced..]);
                    *synced = log.len();
                }
            }
        }
        let mut removed = std::mem::take(&mut self.removed_buf);
        removed.clear();
        for &(a, b, w) in delta.removes() {
            if self.network.remove_edge(a, b) {
                removed.push((a, b, w));
            }
        }
        if !removed.is_empty() {
            for (inc, &valid) in self.warm.iter_mut().zip(self.valid.iter()) {
                if valid {
                    inc.remove_edges(&self.network, &removed);
                }
            }
        }
        self.removed_buf = removed;
        for &(a, b, w) in delta.inserts() {
            if self.network.has_edge(a, b) {
                continue;
            }
            self.network.add_edge(a, b, w);
            self.insert_log.push((a, b, w));
        }
    }
}

/// A reusable dynamics engine: owns every piece of per-run scratch (the
/// [`EvalContext`], the cycle detector) and resets it between runs, so
/// batch cells (scenario grids, the daemon's jobs, the experiment
/// harness) pay the allocations once per worker instead of once per run.
#[derive(Debug, Default)]
pub struct Engine {
    ctx: EvalContext,
    detector: CycleDetector,
    /// The round's activation order, refilled each round.
    order: Vec<NodeId>,
}

impl Engine {
    /// A fresh engine (scratch grows lazily to the largest run seen).
    pub fn new() -> Self {
        Engine::default()
    }

    /// The engine's [`EvalContext`]. After [`Engine::run`] returns, the
    /// context still holds the *final* profile's network and whatever
    /// warm distance vectors the run left valid — callers can certify
    /// stability of the returned profile incrementally (see
    /// [`agent_is_stable_given_current`]) without rebuilding anything.
    pub fn context_mut(&mut self) -> &mut EvalContext {
        &mut self.ctx
    }

    /// Bytes resident in this engine's warm-vector machinery
    /// ([`EvalContext::warm_resident_bytes`]) — the figure the service's
    /// `warm_resident_bytes` gauge reports.
    pub fn warm_resident_bytes(&self) -> usize {
        self.ctx.warm_resident_bytes()
    }

    /// Drops run-specific state (the cycle-detector map, the warm
    /// vectors, the insert log and the pricing memo, by bumping the
    /// commit epoch) while keeping every allocation, so a long-lived
    /// worker — e.g. a service worker thread holding one engine across
    /// *jobs*, not just across the cells of one batch — releases the last
    /// job's state without paying the scratch allocations again on the
    /// next one. The cached network keeps the last run's edges until the
    /// next run's [`EvalContext::reset`] refills its neighbour lists in
    /// place.
    pub fn recycle(&mut self) {
        self.detector.clear();
        self.ctx.epoch += 1;
        self.ctx.valid.fill(false);
        self.ctx.insert_log.clear();
    }

    /// Runs the dynamics from `start` on `game`.
    pub fn run(&mut self, game: &Game, start: Profile, cfg: &DynamicsConfig) -> RunResult {
        let n = game.n();
        let mut profile = start;
        self.ctx.reset(game, &profile);
        self.detector.start(&profile);
        let mut rng = match cfg.scheduler {
            Scheduler::RandomOrder { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        // One meter serves both observability features: the per-round
        // series takes its max, checkpoint frames take the whole vector.
        let mut meter = (cfg.regret_meter || cfg.checkpoint_every > 0).then(RegretMeter::new);
        let mut regret_series: Option<Vec<f64>> = cfg.regret_meter.then(Vec::new);
        let mut checkpoints: Option<Vec<Checkpoint>> = (cfg.checkpoint_every > 0).then(Vec::new);
        let mut moves = 0usize;

        for round in 0..cfg.max_rounds {
            let mut moved_this_round = false;
            self.order.clear();
            match cfg.scheduler {
                Scheduler::RoundRobin => self.order.extend(0..n as NodeId),
                Scheduler::RandomOrder { .. } => {
                    self.order.extend(0..n as NodeId);
                    self.order
                        .shuffle(rng.as_mut().expect("rng set for RandomOrder"));
                }
                Scheduler::MaxGain => {
                    // MaxGain prices every agent to pick its winner, whose
                    // activation below is a memo hit: its change is applied
                    // as priced instead of being recomputed.
                    if let Some((u, _)) = self
                        .ctx
                        .scan(game, &profile, cfg.rule)
                        .enumerate()
                        .filter_map(|(u, change)| change.map(|c| (u as NodeId, gain(c))))
                        // Strictly greater keeps the smaller id on ties.
                        .reduce(|best, next| if next.1 > best.1 { next } else { best })
                    {
                        self.order.push(u);
                    }
                }
            }
            for &u in &self.order {
                let change = self.ctx.activate(game, &profile, u, cfg.rule).take();
                if let Some((new_strategy, _, _)) = change {
                    let old = profile.set_strategy(u, new_strategy);
                    self.ctx.apply_strategy_change(game, &profile, u, &old);
                    moves += 1;
                    moved_this_round = true;
                    if let Some(rec) = self.detector.observe(&profile, [(u, &old)]) {
                        // A recurrence aborts mid-round: the series and
                        // checkpoints cover the completed rounds only.
                        return RunResult {
                            profile,
                            outcome: Outcome::Cycle { recurrence: rec },
                            rounds: round + 1,
                            moves,
                            regret_series,
                            checkpoints,
                        };
                    }
                }
            }
            if let Some(m) = meter.as_mut() {
                // End-of-round observability hook. The final round of a
                // run is always checkpointed (a silent round or the cap),
                // so `explore` can land on the terminal state.
                let last = !moved_this_round || round + 1 == cfg.max_rounds;
                let frame_due =
                    cfg.checkpoint_every > 0 && (last || (round + 1) % cfg.checkpoint_every == 0);
                if cfg.regret_meter || frame_due {
                    let max = m.measure(game, &profile, &mut self.ctx, cfg.rule);
                    if let Some(series) = regret_series.as_mut() {
                        series.push(max);
                    }
                    if frame_due {
                        checkpoints
                            .as_mut()
                            .expect("checkpoint vec allocated when cadence > 0")
                            .push(Checkpoint::capture(
                                round, game, &profile, &self.ctx, m, cfg.rule,
                            ));
                    }
                }
            }
            if !moved_this_round {
                return RunResult {
                    profile,
                    outcome: Outcome::Converged { rounds: round + 1 },
                    rounds: round + 1,
                    moves,
                    regret_series,
                    checkpoints,
                };
            }
        }
        RunResult {
            profile,
            outcome: Outcome::MaxRoundsReached,
            rounds: cfg.max_rounds,
            moves,
            regret_series,
            checkpoints,
        }
    }
}

/// Runs the dynamics from `start` on `game` with a throwaway [`Engine`].
/// Batch callers should hold an `Engine` and call [`Engine::run`] instead
/// so scratch is reused across runs.
pub fn run(game: &Game, start: Profile, cfg: &DynamicsConfig) -> RunResult {
    Engine::new().run(game, start, cfg)
}

/// Whether agent `u` has **no** improving change under `rule`, evaluated
/// incrementally against `ctx`'s cached network and warm distance vectors
/// (the same per-agent pricing the run loop's activations use).
/// `ctx` must describe `profile`'s network — e.g. the context of the
/// [`Engine`] that just produced `profile`, via [`Engine::context_mut`] —
/// so certification costs one warm-vector read plus one deviation scan
/// instead of a from-scratch network build and Dijkstra per agent.
pub fn agent_is_stable_given_current(
    game: &Game,
    profile: &Profile,
    ctx: &mut EvalContext,
    u: NodeId,
    rule: ResponseRule,
) -> bool {
    ctx.activate(game, profile, u, rule).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_core::response::{best_add_move, best_greedy_move, best_move_among_given_current};
    use gncg_core::Move;
    use gncg_graph::SymMatrix;

    fn unit_game(n: usize, alpha: f64) -> Game {
        Game::new(SymMatrix::filled(n, 1.0), alpha)
    }

    #[test]
    fn greedy_dynamics_reach_ge_on_unit_metric() {
        let game = unit_game(6, 2.0);
        let start = Profile::star(6, 0);
        let r = run(&game, start, &DynamicsConfig::default());
        assert!(r.converged());
        assert!(gncg_core::equilibrium::is_greedy_equilibrium(
            &game, &r.profile
        ));
    }

    #[test]
    fn br_dynamics_from_star_already_stable() {
        let game = unit_game(5, 3.0);
        let r = run(
            &game,
            Profile::star(5, 0),
            &DynamicsConfig {
                rule: ResponseRule::ExactBestResponse,
                ..Default::default()
            },
        );
        assert_eq!(r.moves, 0);
        assert!(r.converged());
        assert_eq!(r.rounds, 1);
        assert!(gncg_core::equilibrium::is_nash_equilibrium(
            &game, &r.profile
        ));
    }

    #[test]
    fn br_dynamics_converge_on_random_metric() {
        // No guarantee in general (no FIP), but these instances converge;
        // when they do, the result must certify as NE.
        let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, 4);
        let game = Game::new(host, 1.5);
        let r = run(
            &game,
            Profile::star(6, 1),
            &DynamicsConfig {
                rule: ResponseRule::ExactBestResponse,
                max_rounds: 200,
                ..Default::default()
            },
        );
        if r.converged() {
            assert!(gncg_core::equilibrium::is_nash_equilibrium(
                &game, &r.profile
            ));
        }
    }

    #[test]
    fn add_only_dynamics_reach_ae() {
        let game = unit_game(7, 0.4);
        let start = Profile::star(7, 0);
        let r = run(
            &game,
            start,
            &DynamicsConfig {
                rule: ResponseRule::AddOnly,
                ..Default::default()
            },
        );
        assert!(r.converged());
        assert!(gncg_core::equilibrium::is_add_only_equilibrium(
            &game, &r.profile
        ));
        // α < 1 on unit metric: everyone buys all missing edges, one
        // improving add per move, so the star's 6 edges grow to 21.
        assert_eq!(r.moves, 15);
        let g = r.profile.build_network(&game);
        assert_eq!(g.m(), 21);
    }

    #[test]
    fn max_gain_scheduler_converges() {
        let game = unit_game(5, 2.0);
        let r = run(
            &game,
            Profile::star(5, 2),
            &DynamicsConfig {
                scheduler: Scheduler::MaxGain,
                ..Default::default()
            },
        );
        assert!(r.converged());
    }

    #[test]
    fn max_gain_matches_round_robin_equilibrium_class() {
        // MaxGain must land in the same equilibrium class (certified GE)
        // and its precomputed change must behave like a fresh computation.
        let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, 13);
        let game = Game::new(host, 1.2);
        let r = run(
            &game,
            Profile::star(6, 0),
            &DynamicsConfig {
                scheduler: Scheduler::MaxGain,
                max_rounds: 500,
                ..Default::default()
            },
        );
        if r.converged() {
            assert!(gncg_core::equilibrium::is_greedy_equilibrium(
                &game, &r.profile
            ));
        }
    }

    #[test]
    fn random_scheduler_is_seed_deterministic() {
        let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, 8);
        let game = Game::new(host, 1.0);
        let cfg = DynamicsConfig {
            scheduler: Scheduler::RandomOrder { seed: 5 },
            ..Default::default()
        };
        let a = run(&game, Profile::star(6, 0), &cfg);
        let b = run(&game, Profile::star(6, 0), &cfg);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.moves, b.moves);
    }

    #[test]
    fn reused_engine_matches_throwaway_runs() {
        // One Engine across heterogeneous cells (different hosts, sizes,
        // rules) must produce exactly what fresh engines produce.
        let mut engine = Engine::new();
        let cases: Vec<(Game, ResponseRule)> = vec![
            (unit_game(6, 2.0), ResponseRule::BestGreedyMove),
            (
                Game::new(gncg_metrics::arbitrary::random_metric(8, 1.0, 3.0, 2), 1.5),
                ResponseRule::ExactBestResponse,
            ),
            (unit_game(4, 0.3), ResponseRule::AddOnly),
            (
                Game::new(gncg_metrics::arbitrary::random_metric(5, 1.0, 4.0, 9), 0.8),
                ResponseRule::BestGreedyMove,
            ),
        ];
        for (game, rule) in &cases {
            let cfg = DynamicsConfig {
                rule: *rule,
                max_rounds: 300,
                ..Default::default()
            };
            let reused = engine.run(game, Profile::star(game.n(), 0), &cfg);
            let fresh = run(game, Profile::star(game.n(), 0), &cfg);
            assert_eq!(reused.profile, fresh.profile);
            assert_eq!(reused.outcome, fresh.outcome);
            assert_eq!(reused.moves, fresh.moves);
            assert_eq!(reused.rounds, fresh.rounds);
        }
    }

    #[test]
    fn warm_vectors_match_fresh_dijkstra_through_a_run() {
        // Drive a context through add-only dynamics (insert-only moves
        // keep vectors warm) and check sums against agent_cost_in.
        let game = unit_game(6, 0.4);
        let mut p = Profile::star(6, 0);
        let mut ctx = EvalContext::new(&game, &p);
        for u in 0..6u32 {
            ctx.ensure_warm(u);
        }
        // Agent 1 buys (1,3) and (1,4): insert-only change.
        let old = p.strategy(1).clone();
        let mut s = old.clone();
        s.insert(3);
        s.insert(4);
        p.set_strategy(1, s);
        ctx.apply_strategy_change(&game, &p, 1, &old);
        let network = p.build_network(&game);
        for u in 0..6u32 {
            // Committed inserts sync lazily: a read is ensure_warm + read
            // (the pending-log replay happens here, and its debug oracle
            // re-checks the synced vector against a fresh Dijkstra).
            ctx.ensure_warm(u);
            let expected = gncg_core::cost::agent_cost_in(&game, &p, &network, u).total();
            assert_eq!(ctx.current_cost(&game, &p, u), expected, "agent {u}");
        }
    }

    #[test]
    fn removal_keeps_vectors_exact_under_both_policies() {
        for invalidate in [false, true] {
            let game = unit_game(5, 2.0);
            let mut p = Profile::star(5, 0);
            let mut ctx = EvalContext::new(&game, &p);
            for u in 0..5u32 {
                ctx.ensure_warm(u);
            }
            // Agent 0 drops (0,1), buys nothing new for 1 — a removal.
            let old = p.strategy(0).clone();
            p.set_strategy(0, [2, 3, 4].into_iter().collect());
            ctx.apply_strategy_change(&game, &p, 0, &old);
            // Repaired in place, or invalidated by a reset and recomputed
            // by ensure_warm: either way the costs must match a
            // from-scratch evaluation bitwise.
            if invalidate {
                ctx.reset(&game, &p);
            }
            let network = p.build_network(&game);
            for u in 0..5u32 {
                ctx.ensure_warm(u);
                let expected = gncg_core::cost::agent_cost_in(&game, &p, &network, u).total();
                assert_eq!(
                    ctx.current_cost(&game, &p, u),
                    expected,
                    "agent {u}, invalidate {invalidate}"
                );
            }
        }
    }

    #[test]
    fn warm_gauge_counts_the_shared_scratch() {
        // The gauge is the sum of its parts, the shared scratch included:
        // the pricer's row copy and its scan tables and buffers, all grown
        // by the greedy run.
        let game = unit_game(9, 0.6);
        let mut engine = Engine::new();
        engine.run(&game, Profile::star(9, 0), &DynamicsConfig::default());
        let ctx = &engine.ctx;
        let pricer = &ctx.pricer;
        assert!(pricer.row_copy.resident_bytes() > 0 && pricer.scan.resident_bytes() > 0);
        let scratch = pricer.row_copy.resident_bytes() + pricer.scan.resident_bytes();
        assert_eq!(
            engine.warm_resident_bytes(),
            ctx.warm
                .iter()
                .map(DynamicSssp::resident_bytes)
                .sum::<usize>()
                + ctx.insert_log.capacity() * std::mem::size_of::<(NodeId, NodeId, f64)>()
                + ctx.synced.capacity() * std::mem::size_of::<usize>()
                + scratch
        );
    }

    #[test]
    fn degenerate_deltas_are_noops() {
        // apply_delta shares NetworkDelta::apply_to's semantics: removing
        // an absent edge / re-inserting a present one touch nothing —
        // network, warm vectors, and costs all stay exact.
        let game = unit_game(5, 2.0);
        let p = Profile::star(5, 0);
        let mut ctx = EvalContext::new(&game, &p);
        for u in 0..5u32 {
            ctx.ensure_warm(u);
        }
        let m_before = ctx.network().m();
        let mut delta = gncg_graph::NetworkDelta::new();
        delta.remove(1, 2, 1.0); // absent
        delta.insert(0, 1, 1.0); // already present
        ctx.apply_delta(&delta);
        assert_eq!(ctx.network().m(), m_before);
        let network = p.build_network(&game);
        for u in 0..5u32 {
            let expected = gncg_core::cost::agent_cost_in(&game, &p, &network, u).total();
            assert_eq!(ctx.current_cost(&game, &p, u), expected, "agent {u}");
        }
    }

    /// The run loop's schedulers, recurrence stop and silent-round stop
    /// from `start`, with every activation priced by `price` and every
    /// change committed by `commit` — a run with one of the engine's fast
    /// paths swapped for its ancestor. Returns the final profile, the
    /// outcome and the move count.
    fn replay(
        game: &Game,
        start: &Profile,
        cfg: &DynamicsConfig,
        mut price: impl FnMut(&Profile, &mut EvalContext, NodeId) -> Option<Change>,
        mut commit: impl FnMut(&Profile, &mut EvalContext, NodeId, &BTreeSet<NodeId>),
    ) -> (Profile, Outcome, usize) {
        let n = game.n() as NodeId;
        let mut profile = start.clone();
        let mut ctx = EvalContext::new(game, &profile);
        let mut detector = CycleDetector::new();
        detector.start(&profile);
        let mut rng = StdRng::seed_from_u64(match cfg.scheduler {
            Scheduler::RandomOrder { seed } => seed,
            _ => 0,
        });
        let mut moves = 0;
        for round in 0..cfg.max_rounds {
            let order: Vec<NodeId> = match cfg.scheduler {
                Scheduler::RoundRobin => (0..n).collect(),
                Scheduler::RandomOrder { .. } => {
                    let mut order: Vec<NodeId> = (0..n).collect();
                    order.shuffle(&mut rng);
                    order
                }
                // The largest gain, ties to the smaller id.
                Scheduler::MaxGain => (0..n)
                    .filter_map(|u| price(&profile, &mut ctx, u).map(|c| (u, gain(&c))))
                    .reduce(|best, next| if next.1 > best.1 { next } else { best })
                    .map(|(u, _)| u)
                    .into_iter()
                    .collect(),
            };
            let mut moved = false;
            for u in order {
                if let Some((strategy, _, _)) = price(&profile, &mut ctx, u) {
                    let old = profile.strategy(u).clone();
                    profile.set_strategy(u, strategy);
                    commit(&profile, &mut ctx, u, &old);
                    moves += 1;
                    moved = true;
                    if let Some(recurrence) = detector.observe(&profile, [(u, &old)]) {
                        return (profile, Outcome::Cycle { recurrence }, moves);
                    }
                }
            }
            if !moved {
                return (profile, Outcome::Converged { rounds: round + 1 }, moves);
            }
        }
        (profile, Outcome::MaxRoundsReached, moves)
    }

    #[test]
    fn swap_heavy_run_matches_across_policies() {
        // High-α greedy dynamics from the complete network (swap- and
        // delete-heavy rounds): repairing the warm vectors in place must
        // reproduce the invalidate-and-redo ancestor — a context reset
        // after every removal-bearing change — move for move and bit for
        // bit.
        let owned: Vec<(NodeId, NodeId)> = (0..9)
            .flat_map(|u| (u + 1..9).map(move |v| (u, v)))
            .collect();
        let start = Profile::from_owned_edges(9, &owned);
        for seed in 0..3u64 {
            let host = gncg_metrics::arbitrary::random_metric(9, 1.0, 4.0, seed);
            let game = Game::new(host, 6.0);
            let cfg = DynamicsConfig {
                max_rounds: 400,
                ..Default::default()
            };
            let mut resets = 0;
            let baseline = replay(
                &game,
                &start,
                &cfg,
                |p, ctx, u| ctx.activate(&game, p, u, cfg.rule).clone(),
                |p, ctx, u, old| {
                    if old.is_subset(p.strategy(u)) {
                        ctx.apply_strategy_change(&game, p, u, old);
                    } else {
                        ctx.reset(&game, p);
                        resets += 1;
                    }
                },
            );
            assert!(resets > 0, "seed {seed}: no removal-bearing move");
            let r = Engine::new().run(&game, start.clone(), &cfg);
            assert_eq!((r.profile, r.outcome, r.moves), baseline, "seed {seed}");
        }
    }

    #[test]
    fn scan_policies_agree_move_for_move() {
        // Full runs under the speculative scan must reproduce the
        // masked-Dijkstra ancestor (`best_move_among_given_current`, one
        // from-scratch Dijkstra per candidate) bit for bit — profile, move
        // count, outcome — across rules, schedulers, and α regimes. (Each
        // speculative activation is additionally oracle-checked by a debug
        // assertion inside best_move_among_speculative_priced.)
        for seed in 0..3u64 {
            let host = gncg_metrics::arbitrary::random_metric(9, 1.0, 4.0, seed);
            for alpha in [0.4, 1.5, 6.0] {
                let game = Game::new(host.clone(), alpha);
                for rule in [ResponseRule::BestGreedyMove, ResponseRule::AddOnly] {
                    for scheduler in [
                        Scheduler::RoundRobin,
                        Scheduler::MaxGain,
                        Scheduler::RandomOrder { seed: 7 },
                    ] {
                        let cfg = DynamicsConfig {
                            rule,
                            scheduler,
                            max_rounds: 400,
                            ..Default::default()
                        };
                        let masked = replay(
                            &game,
                            &Profile::star(9, 0),
                            &cfg,
                            |p, ctx, u| {
                                ctx.ensure_warm(u);
                                let current = ctx.current_cost(&game, p, u);
                                let candidates = match rule {
                                    ResponseRule::AddOnly => Move::add_moves(p, u),
                                    _ => Move::greedy_moves(p, u),
                                };
                                let network = ctx.network();
                                best_move_among_given_current(
                                    &game,
                                    p,
                                    network,
                                    u,
                                    current,
                                    &candidates,
                                )
                                .map(|(m, after)| (m.apply(u, p.strategy(u)), current, after))
                            },
                            |p, ctx, u, old| ctx.apply_strategy_change(&game, p, u, old),
                        );
                        let r = Engine::new().run(&game, Profile::star(9, 0), &cfg);
                        assert_eq!(
                            (r.profile, r.outcome, r.moves),
                            masked,
                            "seed {seed} α {alpha} {rule:?} {scheduler:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stability_check_agrees_across_scan_policies() {
        // The speculative scan's verdict matches the masked-Dijkstra scan's.
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, 33);
        let game = Game::new(host, 1.8);
        let probe = Profile::star(7, 2);
        for rule in [ResponseRule::BestGreedyMove, ResponseRule::AddOnly] {
            let mut ctx = EvalContext::new(&game, &probe);
            for u in 0..7u32 {
                let masked = match rule {
                    ResponseRule::BestGreedyMove => best_greedy_move(&game, &probe, u),
                    _ => best_add_move(&game, &probe, u),
                };
                assert_eq!(
                    agent_is_stable_given_current(&game, &probe, &mut ctx, u, rule),
                    masked.is_none(),
                    "agent {u} {rule:?}"
                );
            }
        }
    }

    #[test]
    fn multi_edge_replace_batches_removals_exactly() {
        // A BR-style Replace dropping several edges at once exercises the
        // batched remove_edges path in apply_delta; every warm vector
        // must stay bitwise exact (also debug-asserted inside
        // apply_strategy_change).
        let game = unit_game(7, 5.0);
        let mut p = Profile::star(7, 0);
        p.buy(0, 2); // no-op (already owned) guard: keep profile valid
        let mut ctx = EvalContext::new(&game, &p);
        for u in 0..7u32 {
            ctx.ensure_warm(u);
        }
        // Agent 0 drops three leaves and keeps the rest: three removals
        // in one delta.
        let old = p.strategy(0).clone();
        p.set_strategy(0, [1, 2, 3].into_iter().collect());
        ctx.apply_strategy_change(&game, &p, 0, &old);
        let network = p.build_network(&game);
        for u in 0..7u32 {
            ctx.ensure_warm(u);
            let expected = gncg_core::cost::agent_cost_in(&game, &p, &network, u).total();
            assert_eq!(ctx.current_cost(&game, &p, u), expected, "agent {u}");
        }
    }

    #[test]
    fn eval_context_tracks_deltas() {
        let game = unit_game(5, 1.0);
        let mut p = Profile::star(5, 0);
        let mut ctx = EvalContext::new(&game, &p);
        assert_eq!(ctx.network().m(), 4);
        // Agent 1 buys towards 2 and 3; drop nothing.
        let old = p.strategy(1).clone();
        p.set_strategy(1, [2, 3].into_iter().collect());
        ctx.apply_strategy_change(&game, &p, 1, &old);
        assert_eq!(ctx.network().m(), 6);
        assert!(ctx.network().has_edge(1, 2));
        // Agent 0 drops its edge to 1 — but agent 1 does not own (1,0),
        // so the edge disappears.
        let old = p.strategy(0).clone();
        p.set_strategy(0, [2, 3, 4].into_iter().collect());
        ctx.apply_strategy_change(&game, &p, 0, &old);
        assert!(!ctx.network().has_edge(0, 1));
        // Double-ownership: 2 also buys (2,0); 0 dropping (0,2) keeps it.
        let old = p.strategy(2).clone();
        p.buy(2, 0);
        ctx.apply_strategy_change(&game, &p, 2, &old);
        assert!(ctx.network().has_edge(0, 2));
        let old = p.strategy(0).clone();
        p.set_strategy(0, [3, 4].into_iter().collect());
        ctx.apply_strategy_change(&game, &p, 0, &old);
        assert!(ctx.network().has_edge(0, 2), "co-owned edge must survive");
    }

    #[test]
    fn incremental_stability_check_agrees_with_full_certificates() {
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, 21);
        let game = Game::new(host, 1.4);
        let mut engine = Engine::new();
        let r = engine.run(&game, Profile::star(7, 0), &DynamicsConfig::default());
        assert!(r.converged());
        // Every agent of a converged greedy run is incrementally stable,
        // matching the from-scratch certificate.
        let ctx = engine.context_mut();
        let all_stable = (0..7u32).all(|u| {
            agent_is_stable_given_current(&game, &r.profile, ctx, u, ResponseRule::BestGreedyMove)
        });
        assert!(all_stable);
        assert!(gncg_core::equilibrium::is_greedy_equilibrium(
            &game, &r.profile
        ));
        // On an arbitrary profile the incremental verdict agrees with the
        // full one agent by agent, for every rule.
        let probe = Profile::star(7, 3);
        for rule in [
            ResponseRule::ExactBestResponse,
            ResponseRule::BestGreedyMove,
            ResponseRule::AddOnly,
        ] {
            let mut ctx = EvalContext::new(&game, &probe);
            let incremental =
                (0..7u32).all(|u| agent_is_stable_given_current(&game, &probe, &mut ctx, u, rule));
            let full = match rule {
                ResponseRule::ExactBestResponse => {
                    gncg_core::equilibrium::is_nash_equilibrium(&game, &probe)
                }
                ResponseRule::BestGreedyMove => {
                    gncg_core::equilibrium::is_greedy_equilibrium(&game, &probe)
                }
                ResponseRule::AddOnly => {
                    gncg_core::equilibrium::is_add_only_equilibrium(&game, &probe)
                }
            };
            assert_eq!(incremental, full, "{rule:?}");
        }
    }

    #[test]
    fn recycled_engine_matches_fresh_runs() {
        let mut engine = Engine::new();
        let a = Game::new(gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, 5), 1.1);
        let b = Game::new(gncg_metrics::arbitrary::random_metric(8, 1.0, 2.5, 6), 2.3);
        let cfg = DynamicsConfig::default();
        engine.run(&a, Profile::star(6, 0), &cfg);
        engine.recycle();
        let reused = engine.run(&b, Profile::star(8, 0), &cfg);
        let fresh = run(&b, Profile::star(8, 0), &cfg);
        assert_eq!(reused.profile, fresh.profile);
        assert_eq!(reused.moves, fresh.moves);
    }

    #[test]
    fn regret_meter_is_behaviorally_invisible() {
        // Meter + checkpoints on must reproduce the plain run bit for bit
        // (the scan only warms vectors — bitwise-equal to fresh Dijkstras
        // — and rolls every speculation back).
        for seed in 0..3u64 {
            let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, seed);
            let game = Game::new(host, 2.0);
            for scheduler in [Scheduler::RoundRobin, Scheduler::MaxGain] {
                let plain_cfg = DynamicsConfig {
                    scheduler,
                    max_rounds: 300,
                    ..Default::default()
                };
                let metered_cfg = DynamicsConfig {
                    regret_meter: true,
                    checkpoint_every: 2,
                    ..plain_cfg
                };
                let plain = run(&game, Profile::star(8, 0), &plain_cfg);
                let metered = run(&game, Profile::star(8, 0), &metered_cfg);
                assert_eq!(plain.profile, metered.profile, "seed {seed} {scheduler:?}");
                assert_eq!(plain.outcome, metered.outcome);
                assert_eq!(plain.moves, metered.moves);
                assert!(plain.regret_series.is_none() && plain.checkpoints.is_none());
            }
        }
    }

    #[test]
    fn converged_run_ends_with_exactly_zero_regret() {
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, seed);
            let game = Game::new(host, 1.5);
            let r = run(
                &game,
                Profile::star(7, 0),
                &DynamicsConfig {
                    regret_meter: true,
                    max_rounds: 400,
                    ..Default::default()
                },
            );
            let series = r.regret_series.as_ref().expect("meter on");
            assert_eq!(series.len(), r.rounds, "one entry per completed round");
            if r.converged() {
                assert_eq!(series.last(), Some(&0.0), "silent round certifies NE");
            }
            // Regrets are never negative: an improving change improves.
            assert!(series.iter().all(|&g| g >= 0.0));
        }
    }

    #[test]
    fn checkpoints_follow_the_cadence_and_include_the_final_round() {
        let game = unit_game(6, 0.4); // add-heavy: several rounds of moves
        let r = run(
            &game,
            Profile::star(6, 0),
            &DynamicsConfig {
                rule: ResponseRule::AddOnly,
                checkpoint_every: 1,
                ..Default::default()
            },
        );
        assert!(r.converged());
        let frames = r.checkpoints.as_ref().expect("checkpoints on");
        assert_eq!(frames.len(), r.rounds, "cadence 1 → one frame per round");
        let last = frames.last().unwrap();
        assert_eq!(last.round + 1, r.rounds);
        // The final frame snapshots the returned profile exactly, with
        // all-zero regrets (it is the certified equilibrium).
        for (u, s) in last.strategies.iter().enumerate() {
            let expected: Vec<NodeId> = r.profile.strategy(u as NodeId).iter().copied().collect();
            assert_eq!(s, &expected, "agent {u}");
        }
        assert!(last.regrets.iter().all(|&g| g == 0.0));
        let network = r.profile.build_network(&game);
        for u in 0..6u32 {
            let expected = gncg_core::cost::agent_cost_in(&game, &r.profile, &network, u).total();
            assert_eq!(last.costs[u as usize], expected, "agent {u} cost");
        }
        // A sparser cadence keeps every k-th frame plus the final one.
        let sparse = run(
            &game,
            Profile::star(6, 0),
            &DynamicsConfig {
                rule: ResponseRule::AddOnly,
                checkpoint_every: 2,
                ..Default::default()
            },
        );
        let sparse_frames = sparse.checkpoints.unwrap();
        assert!(sparse_frames
            .iter()
            .all(|f| (f.round + 1) % 2 == 0 || f.round + 1 == sparse.rounds));
        assert_eq!(sparse_frames.last().unwrap().round + 1, sparse.rounds);
    }

    #[test]
    fn meter_agrees_with_stability_certificates() {
        // max regret 0.0 ⇔ every agent is stable under the rule.
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, 11);
        let game = Game::new(host, 1.8);
        for rule in [
            ResponseRule::ExactBestResponse,
            ResponseRule::BestGreedyMove,
            ResponseRule::AddOnly,
        ] {
            for probe in [Profile::star(7, 0), Profile::star(7, 3)] {
                let mut ctx = EvalContext::new(&game, &probe);
                let mut meter = RegretMeter::new();
                let max = meter.measure(&game, &probe, &mut ctx, rule);
                let mut cert_ctx = EvalContext::new(&game, &probe);
                let all_stable = (0..7u32)
                    .all(|u| agent_is_stable_given_current(&game, &probe, &mut cert_ctx, u, rule));
                assert_eq!(max == 0.0, all_stable, "{rule:?}");
                assert_eq!(meter.regrets().len(), 7);
            }
        }
    }

    const RULES: [ResponseRule; 3] = [
        ResponseRule::ExactBestResponse,
        ResponseRule::BestGreedyMove,
        ResponseRule::AddOnly,
    ];

    #[test]
    fn back_to_back_measures_price_nothing_the_second_time() {
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, 11);
        let game = Game::new(host, 1.8);
        let probe = Profile::star(7, 3);
        let mut ctx = EvalContext::new(&game, &probe);
        let mut meter = RegretMeter::new();
        for rule in RULES {
            // The memo is keyed on the rule too: switching rules re-prices.
            let before = ctx.pricings();
            meter.measure(&game, &probe, &mut ctx, rule);
            assert_eq!(ctx.pricings() - before, 7, "{rule:?}");
            let first: Vec<u64> = meter.regrets().iter().map(|g| g.to_bits()).collect();
            assert!(first.iter().any(|&g| g != 0), "{rule:?}: a vacuous probe");
            meter.measure(&game, &probe, &mut ctx, rule);
            assert_eq!(
                ctx.pricings() - before,
                7,
                "{rule:?}: the second measure priced"
            );
            let second: Vec<u64> = meter.regrets().iter().map(|g| g.to_bits()).collect();
            assert_eq!(first, second, "{rule:?}");
        }
    }

    #[test]
    fn set_pricing_and_reset_force_a_full_reprice() {
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, 11);
        let game = Game::new(host, 1.8);
        let probe = Profile::star(7, 3);
        let sweep = |ctx: &mut EvalContext, rule| {
            let before = ctx.pricings();
            for u in 0..7 {
                agent_is_stable_given_current(&game, &probe, ctx, u, rule);
            }
            ctx.pricings() - before
        };
        for rule in RULES {
            let mut ctx = EvalContext::new(&game, &probe);
            let mut meter = RegretMeter::new();
            meter.measure(&game, &probe, &mut ctx, rule);
            // Activations reuse the meter's pricings...
            assert_eq!(sweep(&mut ctx, rule), 0, "{rule:?}");
            // ...until the pricing policy is set, even to the same value,
            ctx.set_pricing(SpeculativePricing::FullSum);
            assert_eq!(sweep(&mut ctx, rule), 7, "{rule:?} after set_pricing");
            // or the context is reset to the same profile.
            ctx.reset(&game, &probe);
            let before = ctx.pricings();
            meter.measure(&game, &probe, &mut ctx, rule);
            assert_eq!(ctx.pricings() - before, 7, "{rule:?} after reset");
            assert_eq!(sweep(&mut ctx, rule), 0, "{rule:?}");
        }
    }

    #[test]
    fn certifying_a_converged_metered_run_prices_nothing() {
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, 2);
        let game = Game::new(host, 1.5);
        for rule in RULES {
            for scheduler in [
                Scheduler::RoundRobin,
                Scheduler::MaxGain,
                Scheduler::RandomOrder { seed: 3 },
            ] {
                let mut engine = Engine::new();
                let cfg = DynamicsConfig {
                    rule,
                    scheduler,
                    max_rounds: 400,
                    regret_meter: true,
                    ..Default::default()
                };
                let r = engine.run(&game, Profile::star(7, 0), &cfg);
                assert!(r.converged() && r.moves > 0, "{rule:?} {scheduler:?}");
                let ctx = engine.context_mut();
                let before = ctx.pricings();
                for u in 0..7 {
                    assert!(agent_is_stable_given_current(
                        &game, &r.profile, ctx, u, rule
                    ));
                }
                assert_eq!(ctx.pricings(), before, "{rule:?} {scheduler:?}");
            }
        }
    }

    #[test]
    fn br_runs_make_no_warm_vector_valid() {
        // The exact rule's searches derive each agent's current cost
        // themselves, so a br run — activations, MaxGain scans, the meter,
        // checkpoints, and a stability sweep after it — reads no warm
        // vector, and its commits have none to replay inserts into or to
        // repair. The checkpoints' costs are still every agent's cost.
        let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 3.0, 2);
        let game = Game::new(host, 1.5);
        let rule = ResponseRule::ExactBestResponse;
        for scheduler in [Scheduler::RoundRobin, Scheduler::MaxGain] {
            let mut engine = Engine::new();
            let cfg = DynamicsConfig {
                rule,
                scheduler,
                max_rounds: 400,
                regret_meter: true,
                checkpoint_every: 1,
            };
            let r = engine.run(&game, Profile::star(7, 0), &cfg);
            assert!(r.converged() && r.moves > 0, "{scheduler:?}");
            let network = r.profile.build_network(&game);
            let last = r.checkpoints.as_ref().and_then(|f| f.last()).unwrap();
            for u in 0..7u32 {
                let cost = gncg_core::cost::agent_cost_in(&game, &r.profile, &network, u);
                assert_eq!(last.costs[u as usize].to_bits(), cost.total().to_bits());
            }
            let ctx = engine.context_mut();
            for u in 0..7 {
                assert!(agent_is_stable_given_current(
                    &game, &r.profile, ctx, u, rule
                ));
            }
            assert!(
                ctx.valid.iter().all(|&valid| !valid),
                "{scheduler:?}: a br run made a warm vector valid"
            );
        }
    }

    #[test]
    fn cap_is_respected() {
        let game = unit_game(6, 0.4);
        let r = run(
            &game,
            Profile::star(6, 0),
            &DynamicsConfig {
                max_rounds: 1,
                ..Default::default()
            },
        );
        // One round cannot both apply moves and certify silence.
        assert!(!r.converged());
        assert_eq!(r.rounds, 1);
    }
}
