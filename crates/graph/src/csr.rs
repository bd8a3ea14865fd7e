//! CSR graph views and allocation-free shortest-path engines.
//!
//! The game layer prices candidate strategies millions of times per
//! experiment; this module supplies the machinery that makes every one of
//! those SSSP calls allocation-free and cache-friendly:
//!
//! * [`Csr`] — a compressed-sparse-row snapshot of an [`AdjacencyList`]
//!   (flat offsets + packed neighbor/weight arrays), built once per search
//!   and shared by every relaxation over it,
//! * [`EdgeSource`] — the closure-based neighbor-iteration trait both
//!   graph representations implement, so one Dijkstra serves both,
//! * [`DijkstraScratch`] — generation-stamped dist array + a drained,
//!   reused frontier (one machine word on graphs of at most 64 nodes, a
//!   binary heap above): repeated SSSP calls allocate nothing after the
//!   first (the stamp bump replaces the `O(n)` re-initialisation),
//! * [`DynamicSssp`] — a distance vector maintained under edge
//!   **insertions** (undo-logged [`DynamicSssp::add_edge`] for the
//!   best-response branch-and-bound in `gncg_core::response`, permanent
//!   [`DynamicSssp::relax_insert`] for committed moves) *and* edge
//!   **removals** ([`DynamicSssp::remove_edge`], Ramalingam–Reps-style
//!   affected-region re-relaxation; [`DynamicSssp::remove_edges`] batches
//!   several removals into one affected-region pass) — the engine under
//!   both the incremental best-response search and the dynamics engine's
//!   warm per-agent distance vectors, which survive moves of every kind,
//! * [`MaskedEdges`] — a zero-copy [`EdgeSource`] view with a few edges
//!   hidden, so a *speculative* removal can be priced against a graph
//!   that is never actually mutated.
//!
//! # Speculation frames
//!
//! The per-activation candidate-move scan in `gncg_core::response` prices
//! every candidate move by *applying* its edge delta to the agent's warm
//! vector, reading the distance sum, and *rolling the vector back* —
//! instead of pricing the candidate with a fresh masked Dijkstra. The
//! frame API makes every mutation kind revertible:
//!
//! 1. [`DynamicSssp::begin_speculation`] opens a frame;
//! 2. inside the frame, [`DynamicSssp::remove_edge`] /
//!    [`DynamicSssp::remove_edges`] log every overwritten `(node, old)`
//!    pair (outside a frame they stay unlogged, as committed updates),
//!    and [`DynamicSssp::speculate_insert`] relaxes a source-incident
//!    insertion with the same logging;
//! 3. [`DynamicSssp::rollback`] replays the frame in reverse, restoring
//!    the pre-speculation vector **bitwise** (restores are copies of the
//!    old values, never recomputations) and leaving both log depths
//!    exactly where they were.
//!
//! Speculation frames and [`DynamicSssp::add_edge`] insertion frames must
//! not interleave (debug-asserted): the branch-and-bound and the move
//! scan each own their vector exclusively while searching.
//!
//! # Invariants of the undo-log relaxation
//!
//! [`DynamicSssp`] exploits that inserting an edge can only *decrease*
//! shortest-path distances. [`DynamicSssp::add_edge`] seeds a Dijkstra
//! relaxation from the improved endpoint and records every decreased
//! `(node, old_dist)` pair in a frame of the undo log;
//! [`DynamicSssp::undo`] replays the frame in reverse, restoring the
//! pre-insertion vector exactly (bitwise: restores are copies of the old
//! values, not recomputations). Between `add_edge`/`undo` pairs the vector
//! always equals what a from-scratch Dijkstra on the current edge set
//! would produce: both compute the exact minimum over identical sets of
//! left-to-right path prefix sums, so equal values — not merely
//! approximately equal ones — are guaranteed, which is what lets the
//! incremental branch-and-bound certify bit-identical costs.
//!
//! # Invariants of the deletion update
//!
//! Removing an edge can only *increase* distances, which no decrease-only
//! relaxation can express; historically that invalidated every warm
//! vector. [`DynamicSssp::remove_edge`] instead repairs the vector in
//! place, Ramalingam–Reps style: identify the **affected region** (nodes
//! whose every equality-supported shortest path ran through the removed
//! edge, discovered in increasing-distance order so support decisions are
//! final when taken), re-seed each affected node from its unaffected
//! neighbors, and re-run Dijkstra *inside the region only*. Unaffected
//! nodes keep their old bits (their supporting path still exists, so the
//! new minimum equals the old one exactly); affected nodes are recomputed
//! as exact minima over left-to-right path prefix sums of the new graph —
//! so the repaired vector is bitwise what a fresh Dijkstra would produce,
//! at a cost proportional to the affected region instead of the graph.
//! Positive edge weights are required (support chains must strictly
//! increase in distance); every host family in this workspace satisfies
//! that.
//!
//! # The small-graph frontier
//!
//! Every shortest-path loop here keeps a *frontier*: the nodes holding a
//! tentative distance they have not yet relaxed from. On a graph of at
//! most 64 nodes — every grid cell of the committed presets but large-n —
//! the frontier is one `u64`: bit `v` is set while node `v` is pending,
//! a push sets the bit, and a pop scans the set bits in ascending id
//! order for the least distance, keeping the lowest id on ties. That
//! replaces the binary heap's `O(log n)` sift per push and pop, and its
//! stale entries, with a few word operations, and allocates nothing.
//! Graphs of more than 64 nodes keep the binary heap and, with a
//! weight-class hint, the bucket ring (next section). The node count is
//! the only gate: a [`DynamicSssp`] reads it from its vector's length
//! (debug-asserted equal to the graph's), a [`DijkstraScratch`] from the
//! graph it runs on. Each loop is written once, generic over the two
//! frontiers; `dijkstra_reference` in [`crate::dijkstra`] keeps a heap of
//! its own as the independent oracle.
//!
//! Most loops are order-free fixpoints (next section), so any pop order
//! reaches the same exact minima. Three things depend on the pop
//! *sequence* itself: the affected-region discovery of
//! [`DynamicSssp::remove_edges`], whose support verdicts are final only
//! when candidates pop in increasing distance; the undo log's first-entry
//! order, in which [`DynamicSssp::delta_sum_since`] sums a frame's price;
//! and the horizon cut of [`DynamicSssp::set_price_horizon`], which counts
//! settled nodes. The word frontier keeps that sequence bit for bit. The
//! heap pops the least `(distance, id)` among its entries and skips the
//! stale ones, which a node lowered again after its push leaves behind;
//! a node's one live entry carries its current distance. So the heap
//! pops the least `(dist[v], v)` over the pending nodes, which is what
//! the word pops, and both scan the same nodes in the same order: the
//! log, its sums and the horizon's truncation come out the same.
//! (Distances are never `-0.0`: the source is `+0.0`, and a sum whose
//! left operand is not `-0.0` is not `-0.0` either. So the word's `<`
//! orders them as the heap's `total_cmp` does.) Debug builds re-run every
//! word loop on the heap, on a copy of its input, and assert the same
//! distances, the same log suffix entry for entry and, for a removal,
//! the same affected region in the same order.
//!
//! # The bucket-queue engine and weight-class hints
//!
//! On graphs of more than 64 nodes both engines default to a binary
//! heap, but callers that know the weight class of the graph they relax
//! over — `[wmin, wmax]` bounds covering every edge weight, with
//! `wmin > 0` — can install it via [`DijkstraScratch::set_weight_class`]
//! / [`DynamicSssp::set_weight_class`]. Below that the hint does nothing:
//! the word frontier serves every graph of at most 64 nodes. When the
//! class is *integer-ish* (`wmax / wmin` small, as the metric host
//! factories produce), the engines switch to a Dial-style **bucket
//! queue**: a circular window of
//! `ceil(wmax / wmin) + 2` buckets of width `Δ = wmin`, scanned in
//! ascending order, each bucket drained to a fixpoint before advancing.
//! That replaces the `O(log n)` heap churn per relaxation with `O(1)`
//! pushes — the difference that lets scenario grids scale to n ∈
//! {1024, 4096}.
//!
//! The bucket scan is **bitwise-equal** to the heap scan, and in debug
//! builds every bucket run re-runs its heap ancestor and asserts exact
//! equality. The argument: draining a bucket to a fixpoint is a
//! decrease-only label-correcting relaxation, every tentative value is a
//! left-to-right `f64` prefix sum of a real path, and the fixpoint of
//! such a relaxation is unique — the exact minimum over the same set of
//! path sums the heap scan minimizes over. Intra-bucket processing order
//! therefore cannot leak into the result, and a weight outside the
//! declared class degrades only performance (an entry may be scanned
//! before it is final and re-scanned later), never correctness. Classes
//! whose window would exceed [`BUCKET_RING_CAP`] buckets fall back to the
//! heap, as does everything when no hint is installed — which keeps the
//! free functions in [`crate::dijkstra`] on the heap above 64 nodes (and
//! the `dijkstra_reference` oracle on its own heap at every size).
//!
//! The affected-region *discovery* of [`DynamicSssp::remove_edges`]
//! deliberately stays on the heap even with a hint installed: its
//! support verdicts are final only when candidates pop in strictly
//! increasing distance order, an ordering a bucket can violate for two
//! nodes Δ apart in adversarial half-ulp cases (the word frontier keeps
//! it). Only the order-free fixpoint scans —
//! [`DijkstraScratch::run`]/[`DijkstraScratch::run_masked`] and the
//! phase-2 region re-relaxation — take the bucket path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{AdjacencyList, NodeId};

/// Min-heap entry: (distance, node) ordered by distance ascending, ties by
/// node id — identical ordering to the historical from-scratch Dijkstra so
/// the two engines traverse equal-cost frontiers in the same order.
#[derive(Copy, Clone, Debug)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on distance to turn BinaryHeap (max-heap) into a min-heap.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Graphs of at most this many nodes keep a shortest-path loop's pending
/// set in one `u64` ([`WordFrontier`]); larger ones take the binary heap
/// or, with a weight-class hint, the bucket ring (module docs, "The
/// small-graph frontier").
const WORD_FRONTIER_NODES: usize = u64::BITS as usize;

/// The pending set of a shortest-path loop: the nodes holding a tentative
/// distance they have not yet relaxed from. Every loop in this module
/// that runs on the heap or on a word is written once, generic over this.
trait Frontier {
    /// Marks `v`, whose distance was just set to `d`, as pending.
    fn push(&mut self, v: NodeId, d: f64);

    /// Takes the pending node of least `(dist[v], v)` out of the set and
    /// returns it with its distance; `dist` holds every pending node's
    /// current distance.
    fn pop(&mut self, dist: &[f64]) -> Option<(NodeId, f64)>;
}

/// The heap frontier: an entry per push, so a node lowered twice has a
/// stale entry, which `pop` skips. Both methods are forced inline: a loop
/// pops once per scanned node, and left to itself the compiler calls
/// `pop` out of line from [`DijkstraScratch`]'s scan.
impl Frontier for BinaryHeap<HeapEntry> {
    #[inline(always)]
    fn push(&mut self, node: NodeId, dist: f64) {
        BinaryHeap::push(self, HeapEntry { dist, node });
    }

    #[inline(always)]
    fn pop(&mut self, dist: &[f64]) -> Option<(NodeId, f64)> {
        while let Some(HeapEntry { dist: d, node }) = BinaryHeap::pop(self) {
            if d <= dist[node as usize] {
                return Some((node, d));
            }
        }
        None
    }
}

/// The frontier of a graph of at most [`WORD_FRONTIER_NODES`] nodes: bit
/// `v` is set while node `v` is pending. It holds no stale entry, and a
/// pop scans the set bits in ascending id order and keeps the first least
/// distance, so it returns what the heap would (module docs).
#[derive(Debug, Default)]
struct WordFrontier(u64);

impl Frontier for WordFrontier {
    #[inline]
    fn push(&mut self, v: NodeId, _: f64) {
        debug_assert!(
            (v as usize) < WORD_FRONTIER_NODES,
            "node {v} does not fit the word frontier"
        );
        self.0 |= 1 << v;
    }

    #[inline]
    fn pop(&mut self, dist: &[f64]) -> Option<(NodeId, f64)> {
        let mut rest = self.0;
        if rest == 0 {
            return None;
        }
        let mut best = rest.trailing_zeros();
        let mut best_d = dist[best as usize];
        rest &= rest - 1;
        while rest != 0 {
            let v = rest.trailing_zeros();
            let d = dist[v as usize];
            // Strict: a tie keeps the lower id, found first.
            if d < best_d {
                best = v;
                best_d = d;
            }
            rest &= rest - 1;
        }
        self.0 ^= 1 << best;
        Some((best, best_d))
    }
}

/// Closure-based neighbor iteration: the one interface every shortest-path
/// engine in this module relaxes over. Implemented by [`AdjacencyList`]
/// (array-of-vecs) and [`Csr`] (flat arrays).
pub trait EdgeSource {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Calls `f(v, w)` for every neighbor `v` of `u` (with edge weight
    /// `w`), in the representation's storage order.
    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, f: F);
}

impl EdgeSource for AdjacencyList {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n()
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, mut f: F) {
        for &(v, w) in self.neighbors(u) {
            f(v, w);
        }
    }
}

/// A compressed-sparse-row snapshot of an undirected graph: neighbor ids
/// and weights packed into two flat arrays indexed by per-node offsets.
///
/// Building costs one `O(n + m)` pass; afterwards every relaxation scans
/// contiguous memory. Use it whenever one graph serves many SSSP calls
/// (APSP, a best-response search over a fixed base graph).
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
}

/// The snapshot of the empty graph.
impl Default for Csr {
    fn default() -> Self {
        Csr::from_adjacency(&AdjacencyList::default())
    }
}

impl Csr {
    /// Snapshots `g` (neighbor order preserved).
    pub fn from_adjacency(g: &AdjacencyList) -> Self {
        let mut csr = Csr {
            offsets: Vec::with_capacity(g.n() + 1),
            targets: Vec::with_capacity(2 * g.m()),
            weights: Vec::with_capacity(2 * g.m()),
        };
        csr.refill(g);
        csr
    }

    /// Re-snapshots `g` in place, keeping the buffers: the same snapshot
    /// [`Csr::from_adjacency`] takes.
    pub fn refill(&mut self, g: &AdjacencyList) {
        self.offsets.clear();
        self.targets.clear();
        self.weights.clear();
        self.offsets.push(0);
        for u in 0..g.n() as NodeId {
            for &(v, w) in g.neighbors(u) {
                self.targets.push(v);
                self.weights.push(w);
            }
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbor ids of `u`.
    #[inline]
    pub fn neighbors_of(&self, u: NodeId) -> &[NodeId] {
        let (s, e) = self.span(u);
        &self.targets[s..e]
    }

    /// Edge weights of `u`, parallel to [`Csr::neighbors_of`].
    #[inline]
    pub fn weights_of(&self, u: NodeId) -> &[f64] {
        let (s, e) = self.span(u);
        &self.weights[s..e]
    }

    #[inline]
    fn span(&self, u: NodeId) -> (usize, usize) {
        (
            self.offsets[u as usize] as usize,
            self.offsets[u as usize + 1] as usize,
        )
    }
}

impl EdgeSource for Csr {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n()
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, mut f: F) {
        let (s, e) = self.span(u);
        for i in s..e {
            f(self.targets[i], self.weights[i]);
        }
    }
}

/// A borrowed [`EdgeSource`] view with the edges in `masked` (unordered
/// pairs) hidden — the graph state a *speculative* edge removal relaxes
/// over, without mutating the underlying graph. The mask is intended to
/// be tiny (a move drops at most one edge), so membership is a linear
/// scan.
#[derive(Clone, Copy, Debug)]
pub struct MaskedEdges<'a, G> {
    inner: &'a G,
    masked: &'a [(NodeId, NodeId)],
}

impl<'a, G: EdgeSource> MaskedEdges<'a, G> {
    /// Wraps `inner`, hiding every pair in `masked` (either orientation).
    pub fn new(inner: &'a G, masked: &'a [(NodeId, NodeId)]) -> Self {
        MaskedEdges { inner, masked }
    }
}

impl<G: EdgeSource> EdgeSource for MaskedEdges<'_, G> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, mut f: F) {
        self.inner.for_each_neighbor(u, |v, w| {
            if self
                .masked
                .iter()
                .any(|&(a, b)| (a == u && b == v) || (a == v && b == u))
            {
                return;
            }
            f(v, w);
        });
    }
}

/// Largest circular bucket window either engine will allocate; weight
/// classes needing more (`wmax / wmin` too large to be integer-ish) fall
/// back to the binary heap.
pub const BUCKET_RING_CAP: usize = 4096;

/// Validates a weight-class hint and derives the bucket geometry:
/// `Δ = wmin` and the circular window length `ceil(wmax / Δ) + 2` (one
/// slot past the farthest reachable relative bucket, plus one of rounding
/// slack — see the module docs). `None` when the hint is absent,
/// degenerate (`wmin ≤ 0`, `wmax` non-finite or below `wmin`), or needs
/// a window beyond [`BUCKET_RING_CAP`].
fn bucket_ring(class: Option<(f64, f64)>) -> Option<(f64, usize)> {
    let (wmin, wmax) = class?;
    // `wmin > 0.0` is false for NaN, so a NaN bound is rejected too.
    let valid = wmin > 0.0 && wmax.is_finite() && wmax >= wmin;
    if !valid {
        return None;
    }
    let ring = (wmax / wmin).ceil() as usize + 2;
    (ring <= BUCKET_RING_CAP).then_some((wmin, ring))
}

/// A circular bucket window (module docs), reused and drained by every
/// scan, and the summed capacity of its buckets. A bucket only grows, and
/// only by a [`BucketRing::push`], which keeps the sum current, so the
/// memory gauges read it in `O(1)` instead of walking up to
/// [`BUCKET_RING_CAP`] slots.
#[derive(Debug, Default)]
struct BucketRing {
    slots: Vec<Vec<(NodeId, f64)>>,
    /// `Σ capacity` over `slots`.
    capacity: usize,
}

// A cloned `Vec` does not keep its capacity, so a clone recounts.
impl Clone for BucketRing {
    fn clone(&self) -> Self {
        let slots = self.slots.clone();
        let capacity = slots.iter().map(Vec::capacity).sum();
        BucketRing { slots, capacity }
    }
}

impl BucketRing {
    /// Makes the window at least `ring` slots long.
    fn reserve_slots(&mut self, ring: usize) {
        if self.slots.len() < ring {
            self.slots.resize_with(ring, Vec::new);
        }
    }

    #[inline]
    fn push(&mut self, slot: usize, entry: (NodeId, f64)) {
        let bucket = &mut self.slots[slot];
        let before = bucket.capacity();
        bucket.push(entry);
        self.capacity += bucket.capacity() - before;
    }

    #[inline]
    fn pop(&mut self, slot: usize) -> Option<(NodeId, f64)> {
        self.slots[slot].pop()
    }

    /// The buckets' capacity in bytes (the window's slot headers are not
    /// counted).
    fn resident_bytes(&self) -> usize {
        debug_assert_eq!(
            self.capacity,
            self.slots.iter().map(Vec::capacity).sum::<usize>(),
            "the bucket ring's running capacity drifted from its buckets"
        );
        self.capacity * std::mem::size_of::<(NodeId, f64)>()
    }
}

/// Reusable Dijkstra state: after the first call on a given size, running
/// an SSSP allocates nothing.
///
/// The distance array is *generation-stamped*: each run bumps a counter
/// and an entry is valid only when its stamp matches, so starting a run is
/// `O(1)` instead of an `O(n)` fill. A run on a graph of at most 64 nodes
/// keeps its frontier in one machine word (module docs, "The small-graph
/// frontier"); a larger one drains a binary heap (only improving entries
/// are pushed) whose buffer is reused.
///
/// On graphs of more than 64 nodes, a weight-class hint
/// ([`DijkstraScratch::set_weight_class`]) routes runs through the
/// bitwise-equal bucket-queue scan instead of the heap (module docs).
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    /// The frontier of graphs of more than 64 nodes without a usable hint.
    heap: BinaryHeap<HeapEntry>,
    /// `[wmin, wmax]` bounds on every weight the next runs will relax,
    /// or `None` for the heap path.
    weight_class: Option<(f64, f64)>,
    /// The bucket ring (reused across runs; drained empty by each run).
    buckets: BucketRing,
}

impl DijkstraScratch {
    /// A fresh scratch; arrays grow lazily to the largest graph seen.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.stamp.resize(n, 0);
        }
        if self.generation == u32::MAX {
            // Stamp wrap: invalidate everything once every 2^32 runs.
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Distance of `v` from the last run's source (`∞` when unreached or
    /// out of range for every graph seen so far).
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        match self.stamp.get(v as usize) {
            Some(&s) if s == self.generation => self.dist[v as usize],
            _ => f64::INFINITY,
        }
    }

    #[inline]
    fn improve(&mut self, v: NodeId, d: f64) -> bool {
        let i = v as usize;
        if self.stamp[i] != self.generation {
            // Never first-touch with ∞ (reached only over a forbidden
            // edge): stamping it would cascade useless heap churn through
            // unreachable components; untouched nodes already read as ∞.
            if d < f64::INFINITY {
                self.stamp[i] = self.generation;
                self.dist[i] = d;
                return true;
            }
            false
        } else if d < self.dist[i] {
            self.dist[i] = d;
            true
        } else {
            false
        }
    }

    /// Installs (or clears, with `None`) the weight-class hint: `[wmin,
    /// wmax]` bounds covering every edge weight subsequent runs relax,
    /// `wmin > 0`. A valid, integer-ish hint routes runs on graphs of more
    /// than 64 nodes through the bucket-queue scan; on smaller graphs it
    /// does nothing, as they run on the one-word frontier. Conservative
    /// bounds only cost performance, and the result is bitwise-identical
    /// either way (module docs). The hint is sticky across runs until
    /// replaced.
    pub fn set_weight_class(&mut self, class: Option<(f64, f64)>) {
        self.weight_class = class;
    }

    /// Runs Dijkstra from `source` on `g` with virtual undirected `extra`
    /// edges overlaid. Distances are read back via
    /// [`DijkstraScratch::dist`], [`DijkstraScratch::write_distances`], or
    /// [`DijkstraScratch::sum_distances`].
    pub fn run<G: EdgeSource>(&mut self, g: &G, source: NodeId, extra: &[(NodeId, NodeId, f64)]) {
        self.run_masked(g, source, &[], extra)
    }

    /// [`DijkstraScratch::run`] with edges in `removed` (unordered pairs)
    /// skipped — the "agent drops its own edges" evaluation.
    pub fn run_masked<G: EdgeSource>(
        &mut self,
        g: &G,
        source: NodeId,
        removed: &[(NodeId, NodeId)],
        extra: &[(NodeId, NodeId, f64)],
    ) {
        let n = g.num_nodes();
        if n <= WORD_FRONTIER_NODES {
            self.scan(g, source, removed, extra, &mut WordFrontier::default());
            #[cfg(debug_assertions)]
            {
                // Oracle: the heap ancestor, on a scratch of its own, must
                // agree bitwise.
                let mut oracle = DijkstraScratch::new();
                oracle.scan(g, source, removed, extra, &mut BinaryHeap::new());
                assert_eq!(
                    self.to_vec(n),
                    oracle.to_vec(n),
                    "bitmask SSSP diverged from the heap oracle"
                );
            }
            return;
        }
        match bucket_ring(self.weight_class) {
            Some((delta, ring)) => {
                self.run_masked_buckets(g, source, removed, extra, delta, ring);
                #[cfg(debug_assertions)]
                {
                    // Oracle: re-run the heap ancestor (begin() bumps the
                    // generation, isolating the second run) and demand
                    // exact equality. The heap result is left as the
                    // final state — the two are equal anyway.
                    let from_buckets = self.to_vec(n);
                    self.run_masked_heap(g, source, removed, extra);
                    assert_eq!(
                        from_buckets,
                        self.to_vec(n),
                        "bucket-queue SSSP diverged from the heap oracle"
                    );
                }
            }
            None => self.run_masked_heap(g, source, removed, extra),
        }
    }

    /// [`DijkstraScratch::scan`] on the scratch's own heap — the path of
    /// graphs of more than 64 nodes without a usable hint, and the debug
    /// oracle of the bucket scan.
    fn run_masked_heap<G: EdgeSource>(
        &mut self,
        g: &G,
        source: NodeId,
        removed: &[(NodeId, NodeId)],
        extra: &[(NodeId, NodeId, f64)],
    ) {
        let mut heap = std::mem::take(&mut self.heap);
        self.scan(g, source, removed, extra, &mut heap);
        self.heap = heap;
    }

    /// The Dijkstra of [`DijkstraScratch::run_masked`] on `frontier`,
    /// which the scan drains.
    fn scan<G: EdgeSource, F: Frontier>(
        &mut self,
        g: &G,
        source: NodeId,
        removed: &[(NodeId, NodeId)],
        extra: &[(NodeId, NodeId, f64)],
        frontier: &mut F,
    ) {
        self.begin(g.num_nodes());
        self.improve(source, 0.0);
        frontier.push(source, 0.0);
        let is_removed = |u: NodeId, v: NodeId| {
            removed
                .iter()
                .any(|&(a, b)| (a == u && b == v) || (a == v && b == u))
        };
        // Every pending node is stamped in this generation, so its raw
        // `dist` entry is its distance.
        while let Some((u, d)) = frontier.pop(&self.dist) {
            g.for_each_neighbor(u, |v, w| {
                if !removed.is_empty() && is_removed(u, v) {
                    return;
                }
                let nd = d + w;
                if self.improve(v, nd) {
                    frontier.push(v, nd);
                }
            });
            for &(a, b, w) in extra {
                let v = if a == u {
                    b
                } else if b == u {
                    a
                } else {
                    continue;
                };
                let nd = d + w;
                if self.improve(v, nd) {
                    frontier.push(v, nd);
                }
            }
        }
    }

    /// The Dial-style bucket-queue scan (module docs): buckets of width
    /// `delta` in a circular window of `ring` slots, scanned in ascending
    /// order, each bucket drained to a fixpoint before advancing.
    fn run_masked_buckets<G: EdgeSource>(
        &mut self,
        g: &G,
        source: NodeId,
        removed: &[(NodeId, NodeId)],
        extra: &[(NodeId, NodeId, f64)],
        delta: f64,
        ring: usize,
    ) {
        self.begin(g.num_nodes());
        self.buckets.reserve_slots(ring);
        self.improve(source, 0.0);
        self.buckets.push(0, (source, 0.0));
        let mut pending = 1usize;
        let mut cur = 0u64; // absolute (unwrapped) bucket index
        let is_removed = |u: NodeId, v: NodeId| {
            removed
                .iter()
                .any(|&(a, b)| (a == u && b == v) || (a == v && b == u))
        };
        while pending > 0 {
            let slot = (cur % ring as u64) as usize;
            while let Some((u, d)) = self.buckets.pop(slot) {
                pending -= 1;
                if d > self.dist(u) {
                    continue; // superseded entry
                }
                let mut this = BucketRelax {
                    scratch: self,
                    delta,
                    ring,
                    pending: &mut pending,
                };
                g.for_each_neighbor(u, |v, w| {
                    if !removed.is_empty() && is_removed(u, v) {
                        return;
                    }
                    this.relax(v, d + w);
                });
                for &(a, b, w) in extra {
                    let v = if a == u {
                        b
                    } else if b == u {
                        a
                    } else {
                        continue;
                    };
                    let mut this = BucketRelax {
                        scratch: self,
                        delta,
                        ring,
                        pending: &mut pending,
                    };
                    this.relax(v, d + w);
                }
            }
            cur += 1;
        }
    }

    /// Approximate resident heap footprint of the scratch buffers, in
    /// bytes (capacities, as [`DynamicSssp::resident_bytes`] counts them).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dist.capacity() * size_of::<f64>()
            + self.stamp.capacity() * size_of::<u32>()
            + self.heap.capacity() * size_of::<HeapEntry>()
            + self.buckets.resident_bytes()
    }

    /// Copies the distances of the last run into `out` (any length:
    /// unreached or out-of-range nodes get `∞`).
    pub fn write_distances(&self, out: &mut [f64]) {
        let known = self.dist.len().min(out.len());
        for (v, slot) in out.iter_mut().enumerate().take(known) {
            *slot = self.dist(v as NodeId);
        }
        out[known..].fill(f64::INFINITY);
    }

    /// The distances of the last run as a fresh vector.
    pub fn to_vec(&self, n: usize) -> Vec<f64> {
        (0..n as NodeId).map(|v| self.dist(v)).collect()
    }

    /// Index-order sum of the first `n` distances (`∞` when any node is
    /// unreached) — identical summation order to `dists.iter().sum()` on a
    /// materialized vector, so totals agree bitwise.
    pub fn sum_distances(&self, n: usize) -> f64 {
        let mut s = 0.0;
        for v in 0..n as NodeId {
            s += self.dist(v);
        }
        s
    }
}

/// Borrow adapter letting the bucket scan's [`EdgeSource`] neighbor
/// closure relax into the scratch: improvements are filed into the ring
/// slot of their bucket (`floor(nd / Δ) mod ring`). `improve` returning
/// `true` guarantees `nd` is finite, so the `f64 → u64` cast below is
/// exact up to saturation — and a saturated (or otherwise early) slot
/// only causes a pre-final scan that the fixpoint re-scans, never a wrong
/// result (module docs).
struct BucketRelax<'a> {
    scratch: &'a mut DijkstraScratch,
    delta: f64,
    ring: usize,
    pending: &'a mut usize,
}

impl BucketRelax<'_> {
    #[inline]
    fn relax(&mut self, v: NodeId, nd: f64) {
        if self.scratch.improve(v, nd) {
            let slot = ((nd / self.delta) as u64 % self.ring as u64) as usize;
            self.scratch.buckets.push(slot, (v, nd));
            *self.pending += 1;
        }
    }
}

/// A single-source distance vector maintained under edge insertions
/// (undo-logged or permanent) **and** edge removals — the workhorse of
/// both the incremental best-response search and the dynamics engine's
/// warm per-agent distance vectors.
///
/// Its loops keep their frontier in one machine word when the vector has
/// at most 64 entries, and in a reused binary heap (the phase-2 region
/// repair, with a weight-class hint, in the bucket ring) when it has more.
/// See the module docs for the relaxation/undo and deletion invariants
/// and for the small-graph frontier.
#[derive(Clone, Debug, Default)]
pub struct DynamicSssp {
    source: NodeId,
    dist: Vec<f64>,
    undo: Vec<(NodeId, f64)>,
    frames: Vec<usize>,
    /// Open speculation frames: marks into `undo` (see the module docs).
    /// While non-empty, removal repairs log every distance overwrite so
    /// [`DynamicSssp::rollback`] can restore the vector bitwise.
    spec_marks: Vec<usize>,
    /// The frontier of vectors of more than 64 nodes (reused; a horizon
    /// cut may leave it unfinished, so each loop clears it first).
    heap: BinaryHeap<HeapEntry>,
    /// Scratch of [`DynamicSssp::remove_edges`]: the affected-region node
    /// list and its membership bitmap (cleared after every removal).
    affected: Vec<NodeId>,
    affected_mark: Vec<bool>,
    /// Weight-class hint for the phase-2 region relaxation (see
    /// [`DynamicSssp::set_weight_class`]); sticky across
    /// [`DynamicSssp::reset_from`].
    weight_class: Option<(f64, f64)>,
    /// Bucket ring of the phase-2 region relaxation (reused, drained).
    buckets: BucketRing,
    /// First-entry dedup stamps of [`DynamicSssp::delta_sum_since`]:
    /// `delta_epoch[v] == delta_epoch_counter` marks `v` as already
    /// accounted in the current call.
    delta_epoch: Vec<u64>,
    delta_epoch_counter: u64,
    /// Settle budget for *speculative* insert relaxations (see
    /// [`DynamicSssp::set_price_horizon`]); `None` relaxes to the exact
    /// fixpoint. Never applies outside a speculation frame.
    price_horizon: Option<usize>,
    /// Speculation frames opened over this vector's lifetime
    /// ([`DynamicSssp::frames_opened`]).
    frames_opened: u64,
}

impl DynamicSssp {
    /// A fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the baseline distance vector `d0` (distances from
    /// `source` in the current base graph), clearing the undo log.
    pub fn reset_from(&mut self, source: NodeId, d0: &[f64]) {
        self.dist.clear();
        self.dist.extend_from_slice(d0);
        self.rearm(source);
    }

    /// Resets to the distances from `source` on `n` nodes with no edges:
    /// 0 at the source, `∞` elsewhere — the seed a vector grown one
    /// source-incident edge at a time starts from
    /// ([`DynamicSssp::relax_insert`], "Edges at the source").
    pub fn reset_alone(&mut self, source: NodeId, n: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.dist[source as usize] = 0.0;
        self.rearm(source);
    }

    /// Sets the source and clears the undo log and frames.
    fn rearm(&mut self, source: NodeId) {
        self.source = source;
        self.undo.clear();
        self.frames.clear();
        self.spec_marks.clear();
    }

    /// Installs (or clears, with `None`) the weight-class hint: `[wmin,
    /// wmax]` bounds covering every edge weight subsequent repairs relax,
    /// `wmin > 0`. On a vector of more than 64 nodes it routes the phase-2
    /// region relaxation of [`DynamicSssp::remove_edges`] through the
    /// bucket-queue scan (bitwise-identical to the heap either way —
    /// module docs); on a smaller one it does nothing, as every loop runs
    /// on the one-word frontier. Sticky across
    /// [`DynamicSssp::reset_from`], so engines hint once per graph, not
    /// once per reset.
    pub fn set_weight_class(&mut self, class: Option<(f64, f64)>) {
        self.weight_class = class;
    }

    /// Installs (or clears, with `None`) the bounded-horizon settle
    /// budget for **speculative** insert relaxations: once a
    /// [`DynamicSssp::speculate_insert`] has settled `cap` nodes, the
    /// remaining frontier is abandoned. The truncated vector is a sound
    /// **upper bound** on the true post-insert distances (decrease-only
    /// relaxation stopped early never under-shoots), every overwrite is
    /// still undo-logged, and [`DynamicSssp::rollback`] restores the
    /// exact pre-frame vector — so a pricing scan can rank candidates on
    /// `O(horizon)` work per move and re-price its winner exactly with
    /// the budget cleared.
    ///
    /// The budget never applies to committed updates
    /// ([`DynamicSssp::relax_insert`], [`DynamicSssp::relax_inserts`],
    /// [`DynamicSssp::add_edge`]) or to removal repairs, which must stay
    /// exact. Sticky across [`DynamicSssp::reset_from`], like the
    /// weight-class hint.
    pub fn set_price_horizon(&mut self, cap: Option<usize>) {
        self.price_horizon = cap;
    }

    /// Approximate resident heap footprint of this vector's buffers, in
    /// bytes (capacities, not lengths — what the allocator actually
    /// holds). Feeds the service's warm-vector memory gauge.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dist.capacity() * size_of::<f64>()
            + self.undo.capacity() * size_of::<(NodeId, f64)>()
            + (self.frames.capacity() + self.spec_marks.capacity()) * size_of::<usize>()
            + self.heap.capacity() * size_of::<HeapEntry>()
            + self.affected.capacity() * size_of::<NodeId>()
            + self.affected_mark.capacity()
            + self.delta_epoch.capacity() * size_of::<u64>()
            + self.buckets.resident_bytes()
    }

    /// How many speculation frames [`DynamicSssp::begin_speculation`] has
    /// opened on this vector: a plain count that [`DynamicSssp::reset_from`]
    /// leaves alone, so it totals every frame a reused vector ever opened.
    /// The move scan's deterministic work counter.
    pub fn frames_opened(&self) -> u64 {
        self.frames_opened
    }

    /// The current distance vector.
    #[inline]
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }

    /// Index-order sum of the current distances (`∞` when disconnected) —
    /// same summation order as `dist.iter().sum()`.
    #[inline]
    pub fn sum(&self) -> f64 {
        let mut s = 0.0;
        for &d in &self.dist {
            s += d;
        }
        s
    }

    /// Current undo-log length — a mark for
    /// [`DynamicSssp::delta_sum_since`]. Take it *before* opening the
    /// speculation frame whose distance churn you want to price.
    #[inline]
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Sum of `dist[v] − original[v]` over every node whose distance was
    /// overwritten (and logged) since undo-log position `mark`, where
    /// `original[v]` is the node's *first* logged value after the mark —
    /// its distance when the mark was taken. Each node contributes once,
    /// in the (deterministic) order of its first log entry, so the result
    /// is a deterministic function of the logged churn: the
    /// bounded-horizon pricing's `O(region)` substitute for a full `O(n)`
    /// [`DynamicSssp::sum`] re-scan. The first-entry dedup is an
    /// epoch-stamped linear pass — no sort, no allocation — because this
    /// runs once per priced candidate on the scan's hottest path.
    ///
    /// Only *logged* overwrites are visible — the mark must cover
    /// speculation-frame mutations only (unlogged committed repairs
    /// between the mark and the read would go unaccounted).
    pub fn delta_sum_since(&mut self, mark: usize) -> f64 {
        self.delta_epoch_counter += 1;
        let epoch = self.delta_epoch_counter;
        if self.delta_epoch.len() < self.dist.len() {
            self.delta_epoch.resize(self.dist.len(), 0);
        }
        let mut s = 0.0;
        for i in mark..self.undo.len() {
            let (v, original) = self.undo[i];
            let stamp = &mut self.delta_epoch[v as usize];
            if *stamp != epoch {
                *stamp = epoch;
                s += self.dist[v as usize] - original;
            }
        }
        s
    }

    /// Number of open (un-undone) insertion frames.
    #[inline]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of open (un-rolled-back) speculation frames.
    #[inline]
    pub fn speculation_depth(&self) -> usize {
        self.spec_marks.len()
    }

    /// Whether a speculation frame is open (removal repairs then log
    /// their overwrites for [`DynamicSssp::rollback`]).
    #[inline]
    fn speculating(&self) -> bool {
        !self.spec_marks.is_empty()
    }

    #[inline]
    fn lower(&mut self, v: NodeId, nd: f64) -> bool {
        let i = v as usize;
        if nd < self.dist[i] {
            self.undo.push((v, self.dist[i]));
            self.dist[i] = nd;
            true
        } else {
            false
        }
    }

    /// Applies an edge insertion as a decrease-only relaxation **without**
    /// recording an undo frame — the "committed move" update of the
    /// dynamics engine's warm per-agent distance vectors.
    ///
    /// Unlike [`DynamicSssp::add_edge`], the inserted edge need *not*
    /// be incident to the source. The different contract that makes this
    /// sound: `g` must be the **live graph already containing `(a, b)`**
    /// (and every other current edge). Relaxation then propagates through
    /// all existing edges — including ones inserted by earlier
    /// `relax_insert` calls — so the decrease-only update is exact for any
    /// source: an inserted edge can only shorten distances, every
    /// shortened path decomposes as (old shortest path to one endpoint) +
    /// the new edge + (a path in `g`), and both pieces are fully relaxed
    /// here. Multiple insertions may be applied one at a time in any
    /// order, provided `g` already holds all of them.
    ///
    /// # Edges at the source
    ///
    /// An edge at the source `s` need not be in `g`, and `g`'s own edges
    /// at `s` never matter. Precisely, with `g − s` the graph `g` without
    /// its edges at `s`, `S` any set of edges at `s` (some, all or none of
    /// `g`'s among them), and non-negative weights: if `(a, b)` is in `g`
    /// or at `s`, and the vector is exact for `(g − s) ∪ S` without
    /// `(a, b)`, then after the call it is exact for `(g − s) ∪ S` plus
    /// `(a, b)`. The source sits at 0, which no relaxation lowers, so it
    /// is never scanned and its edges in `g` carry nothing; a shortest
    /// path visits its source only first, so a path the new edge shortens
    /// runs on from it inside `g − s` and needs no edge of `S`. (The
    /// contract above is the case `S` = `g`'s edges at `s`.) So a vector
    /// grown from "the source alone" (0 at `s`, `∞` elsewhere: exact for
    /// `g − s`) by one source-incident edge per call holds, after each
    /// call, the distances in `g − s` plus the star of edges relaxed so
    /// far.
    ///
    /// Not undoable. Edge *deletions* have their own in-place update —
    /// [`DynamicSssp::remove_edge`] — so callers no longer re-seed with
    /// [`DynamicSssp::reset_from`] when an edge leaves.
    pub fn relax_insert<G: EdgeSource>(&mut self, g: &G, a: NodeId, b: NodeId, w: f64) {
        self.relax_inserts(g, &[(a, b, w)]);
    }

    /// [`DynamicSssp::relax_insert`] for a *batch* of edge insertions in
    /// one multi-seed drain: every edge's endpoint improvements are
    /// seeded together, then the affected region settles once.
    ///
    /// Same contract as [`DynamicSssp::relax_insert`]: `g` must be the
    /// live graph already containing every edge of `edges` (and all other
    /// current edges), weights positive, no speculation frame open — up to
    /// edges at the source, which `g` may omit or hold at will (see
    /// "Edges at the source" there: a vector exact for `(g − s) ∪ S`
    /// without the batch ends exact for it with the batch). The
    /// result is the same exact — hence bitwise-identical — fixpoint the
    /// one-at-a-time replay reaches, but a node improved by `k` of the
    /// batched edges is settled once instead of up to `k` times, which is
    /// what makes a lazily synced warm vector `O(batch + region)` per
    /// sync instead of `O(batch × region)`.
    pub fn relax_inserts<G: EdgeSource>(&mut self, g: &G, edges: &[(NodeId, NodeId, f64)]) {
        debug_assert!(
            self.spec_marks.is_empty(),
            "an insert relaxation inside a speculation frame would be unrevertible"
        );
        if self.word_sized(g) {
            #[cfg(debug_assertions)]
            let (mut twin, mark) = (self.heap_twin(), self.undo.len());
            self.relax_unlogged(g, edges, &mut WordFrontier::default());
            #[cfg(debug_assertions)]
            {
                twin.relax_unlogged(g, edges, &mut BinaryHeap::new());
                self.assert_matches_heap_twin(&twin, mark, "insert relaxation");
            }
        } else {
            let mut heap = std::mem::take(&mut self.heap);
            heap.clear();
            self.relax_unlogged(g, edges, &mut heap);
            self.heap = heap;
        }
    }

    /// The decrease-only relaxation of [`DynamicSssp::relax_inserts`] on
    /// `frontier`.
    fn relax_unlogged<G: EdgeSource, F: Frontier>(
        &mut self,
        g: &G,
        edges: &[(NodeId, NodeId, f64)],
        frontier: &mut F,
    ) {
        let dist = &mut self.dist;
        for &(a, b, w) in edges {
            for (from, to) in [(a, b), (b, a)] {
                let df = dist[from as usize];
                if df.is_finite() {
                    let nd = df + w;
                    if nd < dist[to as usize] {
                        dist[to as usize] = nd;
                        frontier.push(to, nd);
                    }
                }
            }
        }
        while let Some((u, d)) = frontier.pop(dist) {
            g.for_each_neighbor(u, |v, wuv| {
                let nd = d + wuv;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    frontier.push(v, nd);
                }
            });
        }
    }

    /// Inserts undirected edge `(a, b)` of weight `w` on top of `g` and
    /// relaxes every distance it improves, recording the changes as one
    /// undo frame.
    ///
    /// # Correctness contract
    ///
    /// `g` must be the same base graph the vector was built from, and
    /// **every inserted edge must be incident to the source** passed to
    /// [`DynamicSssp::reset_from`] (enforced by a `debug_assert`).
    /// Under that contract, relaxing over `g` alone is exact: previously
    /// inserted edges are all incident to the source, a shortest path
    /// never re-enters its source, so no improved path can traverse them
    /// mid-way and their effect is already reflected in the vector. With
    /// edges *not* incident to the source that argument fails — a later
    /// insertion could shorten a path that runs *through* an earlier
    /// inserted edge, which the `g`-only relaxation would never see,
    /// silently leaving stale distances.
    pub fn add_edge<G: EdgeSource>(&mut self, g: &G, a: NodeId, b: NodeId, w: f64) {
        debug_assert!(
            self.spec_marks.is_empty(),
            "add_edge frames must not interleave with speculation frames"
        );
        self.frames.push(self.undo.len());
        self.relax_insert_logged(g, a, b, w);
    }

    /// Applies a *speculative* edge insertion inside an open speculation
    /// frame: the same source-incident logged relaxation as
    /// [`DynamicSssp::add_edge`], but recorded into the current frame
    /// (rolled back together with any preceding speculative removal)
    /// instead of opening an insertion frame of its own.
    ///
    /// Same correctness contract as [`DynamicSssp::add_edge`]: `g` must be
    /// the graph the vector is currently exact for (e.g. the
    /// [`MaskedEdges`] view a preceding speculative removal relaxed over)
    /// and the edge must be incident to the source.
    pub fn speculate_insert<G: EdgeSource>(&mut self, g: &G, a: NodeId, b: NodeId, w: f64) {
        debug_assert!(
            !self.spec_marks.is_empty(),
            "speculate_insert outside a speculation frame"
        );
        self.relax_insert_logged(g, a, b, w);
    }

    /// The shared undo-logged insertion relaxation of
    /// [`DynamicSssp::add_edge`] and [`DynamicSssp::speculate_insert`].
    /// Inside a speculation frame an installed
    /// [`DynamicSssp::set_price_horizon`] budget truncates the drain
    /// after `cap` settled nodes (upper-bound vector, exact rollback);
    /// committed insertion frames always run to the exact fixpoint.
    fn relax_insert_logged<G: EdgeSource>(&mut self, g: &G, a: NodeId, b: NodeId, w: f64) {
        debug_assert!(
            a == self.source || b == self.source,
            "DynamicSssp logged insertion: edge ({a}, {b}) is not incident to source {}",
            self.source
        );
        if self.word_sized(g) {
            #[cfg(debug_assertions)]
            let (mut twin, mark) = (self.heap_twin(), self.undo.len());
            self.relax_logged(g, a, b, w, &mut WordFrontier::default());
            #[cfg(debug_assertions)]
            {
                twin.relax_logged(g, a, b, w, &mut BinaryHeap::new());
                self.assert_matches_heap_twin(&twin, mark, "logged insertion");
            }
        } else {
            let mut heap = std::mem::take(&mut self.heap);
            heap.clear();
            self.relax_logged(g, a, b, w, &mut heap);
            self.heap = heap;
        }
    }

    /// The relaxation of [`DynamicSssp::relax_insert_logged`] on
    /// `frontier`. A horizon cut leaves the frontier unfinished; the heap
    /// is cleared when the next loop takes it.
    fn relax_logged<G: EdgeSource, F: Frontier>(
        &mut self,
        g: &G,
        a: NodeId,
        b: NodeId,
        w: f64,
        frontier: &mut F,
    ) {
        let cap = if self.speculating() {
            self.price_horizon.unwrap_or(usize::MAX)
        } else {
            usize::MAX
        };
        let mut settled = 0usize;
        for (from, to) in [(a, b), (b, a)] {
            let df = self.dist[from as usize];
            if df.is_finite() {
                let nd = df + w;
                if self.lower(to, nd) {
                    frontier.push(to, nd);
                }
            }
        }
        while let Some((u, d)) = frontier.pop(&self.dist) {
            if settled >= cap {
                // Horizon reached: abandon the frontier. Every overwrite
                // so far is logged, so the frame still rolls back exactly.
                // Distances beyond the horizon keep their (valid, merely
                // loose) pre-insert values.
                break;
            }
            settled += 1;
            g.for_each_neighbor(u, |v, wuv| {
                let nd = d + wuv;
                if self.lower(v, nd) {
                    frontier.push(v, nd);
                }
            });
        }
    }

    /// Whether this vector's loops run on the word frontier: its length,
    /// which must be `g`'s node count, is at most 64.
    #[inline]
    fn word_sized<G: EdgeSource>(&self, g: &G) -> bool {
        debug_assert_eq!(
            self.dist.len(),
            g.num_nodes(),
            "a DynamicSssp relaxes over a graph of its own node count"
        );
        self.dist.len() <= WORD_FRONTIER_NODES
    }

    /// The debug oracle's copy of this vector: the same source, distances,
    /// horizon and frame state (open or not), with an empty undo log, on
    /// which a loop re-runs on the heap.
    #[cfg(debug_assertions)]
    fn heap_twin(&self) -> DynamicSssp {
        DynamicSssp {
            source: self.source,
            dist: self.dist.clone(),
            spec_marks: if self.speculating() {
                vec![0]
            } else {
                Vec::new()
            },
            price_horizon: self.price_horizon,
            ..DynamicSssp::default()
        }
    }

    /// Asserts that a word-frontier loop left this vector as its heap
    /// twin's run left the twin: the same distances, and the same log
    /// since `mark`, entry for entry.
    #[cfg(debug_assertions)]
    fn assert_matches_heap_twin(&self, twin: &DynamicSssp, mark: usize, what: &str) {
        assert!(
            self.dist == twin.dist && self.undo[mark..] == twin.undo[..],
            "bitmask {what} diverged from the heap oracle"
        );
    }
}

impl DynamicSssp {
    /// Reverts the most recent [`DynamicSssp::add_edge`] frame,
    /// restoring the exact previous vector.
    ///
    /// # Panics
    /// Panics when no frame is open.
    pub fn undo(&mut self) {
        let mark = self.frames.pop().expect("undo without an open frame");
        while self.undo.len() > mark {
            let (v, old) = self.undo.pop().expect("undo log underflow");
            self.dist[v as usize] = old;
        }
    }

    /// Opens a speculation frame: until the matching
    /// [`DynamicSssp::rollback`], removal repairs log every distance
    /// overwrite and insertions go through
    /// [`DynamicSssp::speculate_insert`], so the whole frame is
    /// revertible. Frames nest; they must not interleave with
    /// [`DynamicSssp::add_edge`] insertion frames (debug-asserted).
    pub fn begin_speculation(&mut self) {
        debug_assert!(
            self.frames.is_empty(),
            "speculation frames must not interleave with add_edge frames"
        );
        self.spec_marks.push(self.undo.len());
        self.frames_opened += 1;
    }

    /// Reverts the most recent speculation frame, restoring the exact
    /// pre-[`DynamicSssp::begin_speculation`] vector (bitwise: restores
    /// are copies of the logged old values).
    ///
    /// # Panics
    /// Panics when no speculation frame is open.
    pub fn rollback(&mut self) {
        let mark = self
            .spec_marks
            .pop()
            .expect("rollback without an open speculation frame");
        while self.undo.len() > mark {
            let (v, old) = self.undo.pop().expect("undo log underflow");
            self.dist[v as usize] = old;
        }
    }

    /// Whether `v` currently has *support*: a neighbor `x` in `g`, itself
    /// outside the affected set, whose distance plus the edge weight
    /// reproduces `dist[v]` bitwise. Supported nodes keep their exact
    /// value through the removal (the supporting path still exists).
    fn has_support<G: EdgeSource>(&self, g: &G, v: NodeId) -> bool {
        let dv = self.dist[v as usize];
        let mut supported = false;
        g.for_each_neighbor(v, |x, wxv| {
            if supported || self.affected_mark[x as usize] {
                return;
            }
            let dx = self.dist[x as usize];
            if dx.is_finite() && dx + wxv == dv {
                supported = true;
            }
        });
        supported
    }

    /// Applies the removal of undirected edge `(a, b)` (previous weight
    /// `w`) as an in-place Ramalingam–Reps repair — the "committed move"
    /// counterpart of [`DynamicSssp::relax_insert`] for edge deletions.
    ///
    /// Contract: `g` must be the **live graph with `(a, b)` already
    /// removed** (and in exactly its current state otherwise), the vector
    /// must be exact for `g ∪ {(a, b, w)}`, all edge weights must be
    /// positive, and no insertion frames may be open (the frames'
    /// recorded values would describe the pre-removal graph). Multi-edge
    /// deltas should go through [`DynamicSssp::remove_edges`], which
    /// repairs the union of the affected regions in one pass.
    ///
    /// After the call the vector is bitwise what a fresh Dijkstra from the
    /// source on `g` would produce (see the module docs for why), at a
    /// cost proportional to the affected region — `O(1)` when the removed
    /// edge was on no shortest path, which is the common case in dynamics
    /// rounds.
    pub fn remove_edge<G: EdgeSource>(&mut self, g: &G, a: NodeId, b: NodeId, w: f64) {
        self.remove_edges(g, &[(a, b, w)]);
    }

    /// Applies the removal of **several** undirected edges as one
    /// affected-region pass — same contract as
    /// [`DynamicSssp::remove_edge`] with "the edge" replaced by "every
    /// edge in `removed`": `g` must be the live graph with *all* of them
    /// already removed, and the vector must be exact for `g ∪ removed`.
    ///
    /// Batching matters when removals overlap: staging a multi-edge
    /// delta one edge at a time re-discovers (and re-repairs) any region
    /// the edges share once per edge, while the batch discovers it once.
    /// The result is still bitwise what a fresh Dijkstra on `g` would
    /// produce — both the staged and the batched repair end on exactly
    /// that vector.
    ///
    /// Inside a speculation frame every overwritten distance is logged so
    /// [`DynamicSssp::rollback`] restores the vector exactly; outside one
    /// the repair is permanent (the committed-move path).
    pub fn remove_edges<G: EdgeSource>(&mut self, g: &G, removed: &[(NodeId, NodeId, f64)]) {
        debug_assert!(
            self.frames.is_empty(),
            "remove_edges with open undo frames would corrupt the log"
        );
        if self.word_sized(g) {
            #[cfg(debug_assertions)]
            let (mut twin, mark) = (self.heap_twin(), self.undo.len());
            let mut frontier = WordFrontier::default();
            if self.reseed_affected(g, removed, &mut frontier) {
                self.region_relax(g, &mut frontier);
            }
            #[cfg(debug_assertions)]
            {
                let mut heap = BinaryHeap::new();
                if twin.reseed_affected(g, removed, &mut heap) {
                    twin.region_relax(g, &mut heap);
                }
                self.assert_matches_heap_twin(&twin, mark, "removal repair");
                assert_eq!(
                    self.affected, twin.affected,
                    "bitmask removal repair discovered its region in another order than the heap oracle"
                );
            }
        } else {
            let mut heap = std::mem::take(&mut self.heap);
            heap.clear();
            if self.reseed_affected(g, removed, &mut heap) {
                match bucket_ring(self.weight_class) {
                    Some((delta, ring)) => {
                        #[cfg(debug_assertions)]
                        let expected = {
                            // Oracle: a clone (same seeds, same region
                            // state) repaired on the heap must agree
                            // bitwise.
                            let mut oracle = self.clone();
                            oracle.region_relax(g, &mut heap.clone());
                            oracle.dist
                        };
                        self.region_relax_buckets(g, &mut heap, delta, ring);
                        #[cfg(debug_assertions)]
                        assert_eq!(
                            self.dist, expected,
                            "bucket-queue region repair diverged from the heap oracle"
                        );
                    }
                    None => self.region_relax(g, &mut heap),
                }
            }
            self.heap = heap;
        }
        for &v in &self.affected {
            self.affected_mark[v as usize] = false;
        }
    }

    /// Seeds the removal repair of [`DynamicSssp::remove_edges`] on the
    /// empty `frontier`, discovers its affected region (phase 1) and
    /// re-seeds every affected node (the start of phase 2), leaving the
    /// re-seeded nodes pending on `frontier`. `false` when no removed edge
    /// seeded anything: the repair is done.
    fn reseed_affected<G: EdgeSource, F: Frontier>(
        &mut self,
        g: &G,
        removed: &[(NodeId, NodeId, f64)],
        frontier: &mut F,
    ) -> bool {
        self.affected.clear();
        let mut seeded = false;
        // Seed phase — per edge, the O(1) short-circuit: an edge that
        // supported neither endpoint carried no node's equality-support
        // chain, so it seeds nothing. A batch of such edges exits here.
        for &(a, b, w) in removed {
            debug_assert!(w > 0.0, "remove_edges requires positive edge weights");
            let (da, db) = (self.dist[a as usize], self.dist[b as usize]);
            let edge_supported_an_endpoint =
                (da.is_finite() && da + w == db) || (db.is_finite() && db + w == da);
            if !edge_supported_an_endpoint {
                continue;
            }
            for v in [b, a] {
                if v != self.source && self.dist[v as usize].is_finite() {
                    frontier.push(v, self.dist[v as usize]);
                    seeded = true;
                }
            }
        }
        if !seeded {
            return false;
        }
        let n = g.num_nodes();
        if self.affected_mark.len() < n {
            self.affected_mark.resize(n, false);
        }
        // Phase 1 — affected-region discovery in increasing-distance
        // order. Positive weights make support chains strictly increasing,
        // so when a candidate pops, every affected node of smaller
        // distance is already marked and its support verdict is final.
        while let Some((v, dv)) = frontier.pop(&self.dist) {
            if self.affected_mark[v as usize] {
                continue; // a duplicate heap entry
            }
            if self.has_support(g, v) {
                continue;
            }
            self.affected_mark[v as usize] = true;
            self.affected.push(v);
            // Every node this one was supporting becomes a candidate.
            let (dist, mark, source) = (&self.dist, &self.affected_mark, self.source);
            g.for_each_neighbor(v, |x, wvx| {
                let dx = dist[x as usize];
                if x != source && !mark[x as usize] && dx.is_finite() && dv + wvx == dx {
                    frontier.push(x, dx);
                }
            });
        }
        // Phase 2 — re-seed every affected node from its unaffected
        // neighbors; the region relaxation then runs inside the region
        // only. Inside a speculation frame every overwrite logs the old
        // value first.
        let log = self.speculating();
        for i in 0..self.affected.len() {
            let v = self.affected[i];
            let mut best = f64::INFINITY;
            let (dist, mark) = (&self.dist, &self.affected_mark);
            g.for_each_neighbor(v, |x, wxv| {
                if mark[x as usize] {
                    return;
                }
                let dx = dist[x as usize];
                if dx.is_finite() {
                    let nd = dx + wxv;
                    if nd < best {
                        best = nd;
                    }
                }
            });
            if log {
                // Logged before any region relaxation touches `v`, so the
                // frame's first entry per node is its pre-removal value —
                // the reverse undo replay ends there regardless of what
                // order the relaxation below overwrites in.
                self.undo.push((v, self.dist[v as usize]));
            }
            self.dist[v as usize] = best;
            if best.is_finite() {
                frontier.push(v, best);
            }
        }
        true
    }

    /// The phase-2 region relaxation on `frontier`, which holds the
    /// re-seeded nodes: relaxes only into affected nodes.
    fn region_relax<G: EdgeSource, F: Frontier>(&mut self, g: &G, frontier: &mut F) {
        let log = self.speculating();
        while let Some((u, d)) = frontier.pop(&self.dist) {
            let (dist, mark, undo) = (&mut self.dist, &self.affected_mark, &mut self.undo);
            g.for_each_neighbor(u, |v, wuv| {
                if !mark[v as usize] {
                    return; // unaffected nodes are already exact
                }
                let nd = d + wuv;
                if nd < dist[v as usize] {
                    if log {
                        undo.push((v, dist[v as usize]));
                    }
                    dist[v as usize] = nd;
                    frontier.push(v, nd);
                }
            });
        }
    }

    /// Bucket-queue sibling of [`DynamicSssp::region_relax`] on graphs of
    /// more than 64 nodes: moves the re-seeded nodes from `seeds` into the
    /// ring (the window starts at the earliest seed's bucket) and scans
    /// buckets in ascending order, each drained to a fixpoint. Seeds wider
    /// apart than the window merely wrap and get pre-final scans that the
    /// fixpoint re-scans — correctness never depends on the window fitting
    /// (module docs).
    fn region_relax_buckets<G: EdgeSource>(
        &mut self,
        g: &G,
        seeds: &mut BinaryHeap<HeapEntry>,
        delta: f64,
        ring: usize,
    ) {
        let log = self.speculating();
        self.buckets.reserve_slots(ring);
        let mut pending = 0usize;
        let mut cur = u64::MAX;
        while let Some(HeapEntry { dist: d, node: v }) = seeds.pop() {
            let b = (d / delta) as u64;
            cur = cur.min(b);
            self.buckets.push((b % ring as u64) as usize, (v, d));
            pending += 1;
        }
        while pending > 0 {
            let slot = (cur % ring as u64) as usize;
            while let Some((u, d)) = self.buckets.pop(slot) {
                pending -= 1;
                if d > self.dist[u as usize] {
                    continue; // superseded entry
                }
                let (dist, buckets, mark, undo) = (
                    &mut self.dist,
                    &mut self.buckets,
                    &self.affected_mark,
                    &mut self.undo,
                );
                g.for_each_neighbor(u, |v, wuv| {
                    if !mark[v as usize] {
                        return; // unaffected nodes are already exact
                    }
                    let nd = d + wuv;
                    if nd < dist[v as usize] {
                        if log {
                            undo.push((v, dist[v as usize]));
                        }
                        dist[v as usize] = nd;
                        let s = ((nd / delta) as u64 % ring as u64) as usize;
                        buckets.push(s, (v, nd));
                        pending += 1;
                    }
                });
            }
            cur += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;

    fn diamond() -> AdjacencyList {
        AdjacencyList::from_edges(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 3.0), (2, 3, 1.0)])
    }

    #[test]
    fn csr_matches_adjacency() {
        let g = diamond();
        let c = Csr::from_adjacency(&g);
        assert_eq!(c.n(), 4);
        for u in 0..4u32 {
            let mut from_adj = Vec::new();
            g.for_each_neighbor(u, |v, w| from_adj.push((v, w)));
            let mut from_csr = Vec::new();
            c.for_each_neighbor(u, |v, w| from_csr.push((v, w)));
            assert_eq!(from_adj, from_csr);
            assert_eq!(c.neighbors_of(u).len(), g.degree(u));
            assert_eq!(c.weights_of(u).len(), g.degree(u));
        }
    }

    #[test]
    fn scratch_matches_fresh_dijkstra_across_reuse() {
        let g = diamond();
        let c = Csr::from_adjacency(&g);
        let mut scratch = DijkstraScratch::new();
        for _round in 0..3 {
            for s in 0..4u32 {
                scratch.run(&c, s, &[]);
                let fresh = dijkstra(&g, s);
                assert_eq!(scratch.to_vec(4), fresh, "source {s}");
                assert_eq!(scratch.sum_distances(4), fresh.iter().sum::<f64>());
            }
        }
    }

    #[test]
    fn scratch_reuse_shrinking_and_growing_graphs() {
        let big = AdjacencyList::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
            ],
        );
        let small = diamond();
        let mut scratch = DijkstraScratch::new();
        scratch.run(&big, 0, &[]);
        assert_eq!(scratch.dist(5), 5.0);
        // A smaller graph after a bigger one must not see stale entries.
        scratch.run(&small, 0, &[]);
        assert_eq!(scratch.to_vec(4), dijkstra(&small, 0));
        scratch.run(&big, 2, &[]);
        assert_eq!(scratch.to_vec(6), dijkstra(&big, 2));
    }

    #[test]
    fn scratch_extra_and_masked() {
        let g = diamond();
        let mut scratch = DijkstraScratch::new();
        scratch.run(&g, 0, &[(0, 3, 0.5)]);
        assert_eq!(scratch.dist(3), 0.5);
        assert_eq!(scratch.dist(2), 1.5);
        scratch.run_masked(&g, 0, &[(0, 1)], &[]);
        assert_eq!(scratch.dist(1), 5.0);
        assert_eq!(scratch.dist(3), 4.0);
    }

    #[test]
    fn scratch_disconnected_sum_is_infinite() {
        let mut g = AdjacencyList::new(3);
        g.add_edge(0, 1, 1.0);
        let mut scratch = DijkstraScratch::new();
        scratch.run(&g, 0, &[]);
        assert_eq!(scratch.dist(2), f64::INFINITY);
        assert!(scratch.sum_distances(3).is_infinite());
        let mut out = vec![0.0; 3];
        scratch.write_distances(&mut out);
        assert_eq!(out, vec![0.0, 1.0, f64::INFINITY]);
        // A longer output buffer gets ∞ past the graph, not a panic.
        let mut long = vec![0.0; 6];
        scratch.write_distances(&mut long);
        assert_eq!(
            long,
            vec![
                0.0,
                1.0,
                f64::INFINITY,
                f64::INFINITY,
                f64::INFINITY,
                f64::INFINITY
            ]
        );
    }

    #[test]
    fn incremental_insert_matches_fresh_and_undo_restores() {
        let g = diamond();
        let c = Csr::from_adjacency(&g);
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);

        inc.add_edge(&c, 0, 3, 0.5);
        let mut with_edge = g.clone();
        with_edge.add_edge(0, 3, 0.5);
        assert_eq!(inc.dist(), dijkstra(&with_edge, 0).as_slice());

        inc.add_edge(&c, 0, 2, 0.25);
        let mut with_both = with_edge.clone();
        with_both.add_edge(0, 2, 0.25);
        assert_eq!(inc.dist(), dijkstra(&with_both, 0).as_slice());

        inc.undo();
        assert_eq!(inc.dist(), dijkstra(&with_edge, 0).as_slice());
        inc.undo();
        assert_eq!(inc.dist(), d0.as_slice());
        assert_eq!(inc.depth(), 0);
    }

    #[test]
    fn incremental_connects_disconnected_source() {
        // Source starts isolated: all-∞ except itself; inserting an edge
        // must propagate finite distances outward.
        let mut g = AdjacencyList::new(4);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        let d0 = dijkstra(&g, 0);
        assert!(d0[1].is_infinite());
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        inc.add_edge(&g, 0, 1, 2.0);
        assert_eq!(inc.dist(), &[0.0, 2.0, 3.0, 4.0]);
        inc.undo();
        assert_eq!(inc.dist(), d0.as_slice());
    }

    #[test]
    fn incremental_sum_matches_vector_sum() {
        let g = diamond();
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &dijkstra(&g, 0));
        inc.add_edge(&g, 0, 3, 0.5);
        let manual: f64 = inc.dist().iter().sum();
        assert_eq!(inc.sum(), manual);
    }

    #[test]
    #[should_panic]
    fn undo_without_frame_panics() {
        DynamicSssp::new().undo();
    }

    #[test]
    fn relax_insert_matches_fresh_dijkstra_for_any_source() {
        // Edge (1, 2) is incident to neither source; relax_insert against
        // the live graph (already containing it) must still be exact.
        let g = diamond();
        for source in 0..4u32 {
            let d0 = dijkstra(&g, source);
            let mut live = g.clone();
            live.add_edge(1, 2, 0.25);
            let mut inc = DynamicSssp::new();
            inc.reset_from(source, &d0);
            inc.relax_insert(&live, 1, 2, 0.25);
            assert_eq!(
                inc.dist(),
                dijkstra(&live, source).as_slice(),
                "source {source}"
            );
        }
    }

    #[test]
    fn relax_insert_sequential_insertions_compose() {
        // Two edges inserted one at a time, each relaxed against the graph
        // holding *both*: improvements that need the other edge must
        // propagate (s=0: 0-2 gets cheap only via 3).
        let mut g = AdjacencyList::new(4);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 10.0);
        g.add_edge(2, 3, 10.0);
        let d0 = dijkstra(&g, 0);
        let mut live = g.clone();
        live.add_edge(0, 3, 1.0);
        live.add_edge(3, 2, 1.0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        inc.relax_insert(&live, 0, 3, 1.0);
        inc.relax_insert(&live, 3, 2, 1.0);
        assert_eq!(inc.dist(), dijkstra(&live, 0).as_slice());
        assert_eq!(inc.dist()[2], 2.0);
    }

    #[test]
    fn relax_insert_leaves_undo_log_untouched() {
        let g = diamond();
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let mut live = g.clone();
        live.add_edge(0, 3, 0.5);
        inc.relax_insert(&live, 0, 3, 0.5);
        assert_eq!(inc.depth(), 0, "relax_insert must not open undo frames");
    }

    #[test]
    fn remove_edge_matches_fresh_dijkstra_for_any_source() {
        // Remove each edge of the diamond in turn, for every source: the
        // repaired vector must equal a fresh Dijkstra bitwise.
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        for source in 0..4u32 {
            for &(a, b, w) in &edges {
                let d0 = dijkstra(&g, source);
                let mut live = g.clone();
                live.remove_edge(a, b);
                let mut inc = DynamicSssp::new();
                inc.reset_from(source, &d0);
                inc.remove_edge(&live, a, b, w);
                assert_eq!(
                    inc.dist(),
                    dijkstra(&live, source).as_slice(),
                    "source {source}, removed ({a}, {b})"
                );
                assert_eq!(inc.depth(), 0, "removal must not open undo frames");
            }
        }
    }

    #[test]
    fn remove_edge_handles_disconnection() {
        // Removing the bridge leaves {2, 3} unreachable from 0: their
        // repaired distances must be ∞, others untouched.
        let mut g = AdjacencyList::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 1.0);
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let mut live = g.clone();
        live.remove_edge(1, 2);
        inc.remove_edge(&live, 1, 2, 2.0);
        assert_eq!(
            inc.dist(),
            &[0.0, 1.0, f64::INFINITY, f64::INFINITY],
            "disconnected tail must read ∞"
        );
        assert_eq!(inc.dist(), dijkstra(&live, 0).as_slice());
    }

    #[test]
    fn remove_edge_off_shortest_path_is_a_cheap_noop() {
        // The heavy (0, 2) edge supports nobody from source 0 (0→2 goes
        // via 1, 3): removal must leave the vector bitwise untouched.
        let g = diamond();
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let mut live = g.clone();
        live.remove_edge(0, 2);
        inc.remove_edge(&live, 0, 2, 3.0);
        assert_eq!(inc.dist(), d0.as_slice());
        assert_eq!(inc.dist(), dijkstra(&live, 0).as_slice());
    }

    #[test]
    fn remove_then_insert_composes_like_a_swap() {
        // A committed swap = remove_edge + relax_insert staged one edge at
        // a time against the live graph; the vector must track both.
        let g = diamond();
        for source in 0..4u32 {
            let mut inc = DynamicSssp::new();
            inc.reset_from(source, &dijkstra(&g, source));
            let mut live = g.clone();
            live.remove_edge(0, 1);
            inc.remove_edge(&live, 0, 1, 1.0);
            assert_eq!(inc.dist(), dijkstra(&live, source).as_slice());
            live.add_edge(0, 3, 0.25);
            inc.relax_insert(&live, 0, 3, 0.25);
            assert_eq!(
                inc.dist(),
                dijkstra(&live, source).as_slice(),
                "source {source}"
            );
        }
    }

    #[test]
    fn remove_edge_repairs_multi_hop_affected_regions() {
        // Path 0-1-2-3-4 plus a long detour 0-4: removing (1, 2) affects
        // {2, 3} from source 0 and must re-route them through the detour.
        let mut g = AdjacencyList::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(0, 4, 10.0);
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let mut live = g.clone();
        live.remove_edge(1, 2);
        inc.remove_edge(&live, 1, 2, 1.0);
        assert_eq!(inc.dist(), dijkstra(&live, 0).as_slice());
        assert_eq!(inc.dist()[2], 12.0);
        assert_eq!(inc.dist()[3], 11.0);
    }

    #[test]
    fn masked_view_hides_edges_both_ways() {
        let g = diamond();
        let mask = [(1u32, 0u32)];
        let view = MaskedEdges::new(&g, &mask);
        assert_eq!(view.num_nodes(), 4);
        let mut seen = Vec::new();
        view.for_each_neighbor(0, |v, w| seen.push((v, w)));
        assert_eq!(seen, vec![(2, 3.0)], "masked edge hidden from 0's list");
        seen.clear();
        view.for_each_neighbor(1, |v, w| seen.push((v, w)));
        assert_eq!(seen, vec![(3, 1.0)], "…and from 1's list");
        // A masked Dijkstra equals a Dijkstra on the really-removed graph.
        let mut live = g.clone();
        live.remove_edge(0, 1);
        let mut scratch = DijkstraScratch::new();
        scratch.run(&view, 0, &[]);
        assert_eq!(scratch.to_vec(4), dijkstra(&live, 0));
    }

    #[test]
    fn speculative_remove_rolls_back_bitwise() {
        // For every source and every edge: speculative removal over a
        // masked view must equal a fresh Dijkstra on the removed graph,
        // and rollback must restore the original vector bitwise with
        // both log depths at zero.
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        for source in 0..4u32 {
            let d0 = dijkstra(&g, source);
            let mut inc = DynamicSssp::new();
            inc.reset_from(source, &d0);
            for &(a, b, w) in &edges {
                let mask = [(a, b)];
                let view = MaskedEdges::new(&g, &mask);
                let mut live = g.clone();
                live.remove_edge(a, b);
                inc.begin_speculation();
                inc.remove_edge(&view, a, b, w);
                assert_eq!(
                    inc.dist(),
                    dijkstra(&live, source).as_slice(),
                    "source {source}, removed ({a}, {b})"
                );
                inc.rollback();
                assert_eq!(inc.dist(), d0.as_slice(), "rollback must restore bits");
                assert_eq!((inc.depth(), inc.speculation_depth()), (0, 0));
            }
        }
    }

    #[test]
    fn speculative_swap_composes_remove_and_insert_in_one_frame() {
        // Swap from source 0: drop (0, 1), gain (0, 3) — one frame, one
        // rollback. The mid-frame vector must match a fresh Dijkstra on
        // the swapped graph.
        let g = diamond();
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let mask = [(0u32, 1u32)];
        let view = MaskedEdges::new(&g, &mask);
        let mut swapped = g.clone();
        swapped.remove_edge(0, 1);
        swapped.add_edge(0, 3, 0.25);
        inc.begin_speculation();
        inc.remove_edge(&view, 0, 1, 1.0);
        inc.speculate_insert(&view, 0, 3, 0.25);
        assert_eq!(inc.dist(), dijkstra(&swapped, 0).as_slice());
        inc.rollback();
        assert_eq!(inc.dist(), d0.as_slice());
        assert_eq!((inc.depth(), inc.speculation_depth()), (0, 0));
    }

    #[test]
    fn frames_opened_counts_every_frame_across_resets() {
        let g = diamond();
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &dijkstra(&g, 0));
        let mask = [(0u32, 1u32)];
        let view = MaskedEdges::new(&g, &mask);
        inc.begin_speculation();
        inc.remove_edge(&view, 0, 1, 1.0);
        inc.begin_speculation();
        inc.speculate_insert(&view, 0, 3, 0.25);
        inc.rollback();
        inc.rollback();
        assert_eq!(inc.frames_opened(), 2);
        inc.reset_from(1, &dijkstra(&g, 1));
        inc.begin_speculation();
        inc.rollback();
        assert_eq!(inc.frames_opened(), 3, "a reset keeps the count");
    }

    #[test]
    fn speculative_disconnection_rolls_back() {
        // Removing the only edge into a tail makes it unreachable (∞);
        // rollback must restore the finite distances bitwise.
        let mut g = AdjacencyList::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 1.0);
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let mask = [(1u32, 2u32)];
        let view = MaskedEdges::new(&g, &mask);
        inc.begin_speculation();
        inc.remove_edge(&view, 1, 2, 2.0);
        assert_eq!(inc.dist(), &[0.0, 1.0, f64::INFINITY, f64::INFINITY]);
        inc.rollback();
        assert_eq!(inc.dist(), d0.as_slice());
    }

    #[test]
    fn batched_removals_match_staged_removals() {
        // Remove every pair of edges from a 5-cycle + chords, both staged
        // (edge by edge) and batched (one pass): the vectors must agree
        // bitwise with a fresh Dijkstra, for every source.
        let g = AdjacencyList::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
                (0, 2, 1.5),
                (1, 3, 2.5),
            ],
        );
        let edges: Vec<_> = g.edges().collect();
        for i in 0..edges.len() {
            for j in (i + 1)..edges.len() {
                let pair = [edges[i], edges[j]];
                let mut live = g.clone();
                for &(a, b, _) in &pair {
                    live.remove_edge(a, b);
                }
                for source in 0..5u32 {
                    let mut batched = DynamicSssp::new();
                    batched.reset_from(source, &dijkstra(&g, source));
                    batched.remove_edges(&live, &pair);
                    let fresh = dijkstra(&live, source);
                    assert_eq!(
                        batched.dist(),
                        fresh.as_slice(),
                        "batched: source {source}, removed {pair:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_removal_rolls_back_inside_a_speculation() {
        let g = AdjacencyList::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 5.0),
            ],
        );
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let removed = [(1u32, 2u32, 1.0), (3u32, 4u32, 1.0)];
        let mask = [(1u32, 2u32), (3u32, 4u32)];
        let view = MaskedEdges::new(&g, &mask);
        let mut live = g.clone();
        live.remove_edge(1, 2);
        live.remove_edge(3, 4);
        inc.begin_speculation();
        inc.remove_edges(&view, &removed);
        assert_eq!(inc.dist(), dijkstra(&live, 0).as_slice());
        inc.rollback();
        assert_eq!(inc.dist(), d0.as_slice());
    }

    #[test]
    #[should_panic(expected = "rollback without an open speculation frame")]
    fn rollback_without_frame_panics() {
        DynamicSssp::new().rollback();
    }

    /// `g` with isolated nodes added up to one past the word frontier's
    /// 64, so every loop over it takes the heap or, with a hint, the
    /// bucket ring. No isolated node is ever reached.
    fn past_the_word(g: &AdjacencyList) -> AdjacencyList {
        let mut padded = AdjacencyList::new(WORD_FRONTIER_NODES + 1);
        for (a, b, w) in g.edges() {
            padded.add_edge(a, b, w);
        }
        padded
    }

    #[test]
    fn bucket_scratch_matches_heap_scratch_bitwise() {
        // Same graph, every source, with and without the hint: the two
        // engines must agree exactly (the debug oracle re-checks this
        // inside every hinted run as well).
        let g = past_the_word(&diamond());
        let n = g.n();
        let c = Csr::from_adjacency(&g);
        let mut heap = DijkstraScratch::new();
        let mut bucket = DijkstraScratch::new();
        bucket.set_weight_class(Some((1.0, 3.0)));
        for s in 0..4u32 {
            heap.run(&c, s, &[]);
            bucket.run(&c, s, &[]);
            assert_eq!(heap.to_vec(n), bucket.to_vec(n), "source {s}");
            heap.run_masked(&g, s, &[(0, 1)], &[(0, 3, 0.5)]);
            bucket.run_masked(&g, s, &[(0, 1)], &[(0, 3, 0.5)]);
            assert_eq!(heap.to_vec(n), bucket.to_vec(n), "masked+extra, source {s}");
        }
        assert!(
            heap.heap.capacity() > 0,
            "the hint-less scratch ran on the heap"
        );
        assert!(
            bucket.buckets.capacity > 0,
            "the hinted scratch ran on the ring"
        );
    }

    #[test]
    fn bucket_scratch_survives_weights_outside_the_declared_class() {
        // A too-narrow hint (declared wmax below the real one, and an
        // extra edge below wmin) must still produce the exact result:
        // mis-bucketed entries get pre-final scans the fixpoint redoes.
        let g = past_the_word(&diamond()); // weights 1.0 and 3.0
        let n = g.n();
        let mut bucket = DijkstraScratch::new();
        bucket.set_weight_class(Some((1.0, 1.5)));
        let mut heap = DijkstraScratch::new();
        for s in 0..4u32 {
            bucket.run(&g, s, &[(1, 2, 0.125)]);
            heap.run(&g, s, &[(1, 2, 0.125)]);
            assert_eq!(bucket.to_vec(n), heap.to_vec(n), "source {s}");
        }
        assert!(
            bucket.buckets.capacity > 0,
            "the hinted scratch ran on the ring"
        );
    }

    #[test]
    fn degenerate_weight_class_hints_fall_back_to_the_heap() {
        // wmin ≤ 0, non-finite wmax, inverted bounds, and a window past
        // BUCKET_RING_CAP must all run (on the heap) and stay exact.
        let g = past_the_word(&diamond());
        let fresh = dijkstra(&g, 0);
        for class in [
            Some((0.0, 3.0)),
            Some((-1.0, 3.0)),
            Some((1.0, f64::INFINITY)),
            Some((3.0, 1.0)),
            Some((1e-9, 3.0)), // ring would be ~3e9 ≫ cap
            None,
        ] {
            let mut s = DijkstraScratch::new();
            s.set_weight_class(class);
            s.run(&g, 0, &[]);
            assert_eq!(s.to_vec(g.n()), fresh, "class {class:?}");
            assert!(
                s.heap.capacity() > 0 && s.buckets.capacity == 0,
                "class {class:?} ran on the heap, not the ring"
            );
        }
    }

    #[test]
    fn bucket_region_repair_matches_heap_and_rolls_back() {
        // remove_edges with a hint installed: repaired vector must equal
        // a fresh Dijkstra, and a speculative repair must roll back
        // bitwise — for every source and edge.
        let g = past_the_word(&diamond());
        let edges: Vec<_> = g.edges().collect();
        let mut ring_used = false;
        for source in 0..4u32 {
            let d0 = dijkstra(&g, source);
            for &(a, b, w) in &edges {
                let mut live = g.clone();
                live.remove_edge(a, b);
                let mut inc = DynamicSssp::new();
                inc.set_weight_class(Some((1.0, 3.0)));
                inc.reset_from(source, &d0);
                inc.remove_edge(&live, a, b, w);
                assert_eq!(
                    inc.dist(),
                    dijkstra(&live, source).as_slice(),
                    "committed: source {source}, removed ({a}, {b})"
                );

                let mask = [(a, b)];
                let view = MaskedEdges::new(&g, &mask);
                inc.reset_from(source, &d0);
                inc.begin_speculation();
                inc.remove_edge(&view, a, b, w);
                assert_eq!(inc.dist(), dijkstra(&live, source).as_slice());
                inc.rollback();
                assert_eq!(inc.dist(), d0.as_slice(), "rollback must restore bits");
                ring_used |= inc.buckets.capacity > 0;
            }
        }
        assert!(ring_used, "no region repair ran on the ring");
    }

    /// The word frontier pops what the heap pops, in the same order:
    /// the least `(distance, id)` among the pending nodes, the heap
    /// skipping the stale entries a node lowered twice leaves behind.
    /// Distances come from a set of four, so ties are frequent, and node
    /// 63 (the word's top bit) takes part.
    #[test]
    fn word_frontier_pops_like_the_heap() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..200 {
            let mut dist = vec![f64::INFINITY; WORD_FRONTIER_NODES];
            let mut word = WordFrontier::default();
            let mut heap = BinaryHeap::new();
            for _op in 0..96 {
                let r = next();
                if r % 3 == 0 {
                    let (w, h) = (word.pop(&dist), Frontier::pop(&mut heap, &dist));
                    assert_eq!(w, h, "pop");
                } else {
                    let v = (r >> 8) as NodeId % WORD_FRONTIER_NODES as NodeId;
                    let d = [1.0, 1.5, 2.0, 2.5][(r >> 16) as usize % 4];
                    if d < dist[v as usize] {
                        dist[v as usize] = d;
                        word.push(v, d);
                        Frontier::push(&mut heap, v, d);
                    }
                }
            }
            while let Some(w) = word.pop(&dist) {
                assert_eq!(Some(w), Frontier::pop(&mut heap, &dist), "drain");
            }
            assert_eq!(Frontier::pop(&mut heap, &dist), None);
        }
    }

    /// 64 nodes is the word frontier's limit: at 63 and 64 nodes the
    /// scratch and the vector never touch their heaps, at 65 they do, and
    /// all three sizes agree with the independent oracle with the last
    /// node reached.
    #[test]
    fn graphs_past_64_nodes_take_the_heap() {
        use crate::dijkstra::dijkstra_reference;
        for n in [63usize, 64, 65] {
            let mut g = AdjacencyList::new(n);
            for i in 0..n as NodeId - 1 {
                g.add_edge(i, i + 1, 1.0 + (i % 3) as f64);
            }
            for i in (0..n as NodeId - 5).step_by(4) {
                g.add_edge(i, i + 5, 2.5);
            }
            let on_heap = n > WORD_FRONTIER_NODES;
            let mut scratch = DijkstraScratch::new();
            scratch.run(&g, 0, &[]);
            assert_eq!(scratch.to_vec(n), dijkstra_reference(&g, 0), "n = {n}");
            assert!(scratch.dist(n as NodeId - 1).is_finite());
            assert_eq!(scratch.heap.capacity() > 0, on_heap, "scratch, n = {n}");

            let mut inc = DynamicSssp::new();
            inc.reset_from(0, &dijkstra_reference(&g, 0));
            let (a, b) = (0, n as NodeId - 1);
            g.add_edge(a, b, 1.0);
            inc.relax_insert(&g, a, b, 1.0);
            assert_eq!(inc.dist(), dijkstra_reference(&g, 0).as_slice(), "n = {n}");
            g.remove_edge(a, b);
            inc.remove_edge(&g, a, b, 1.0);
            assert_eq!(inc.dist(), dijkstra_reference(&g, 0).as_slice(), "n = {n}");
            assert_eq!(inc.heap.capacity() > 0, on_heap, "vector, n = {n}");
        }
    }

    #[test]
    fn delta_sum_since_prices_frame_churn_exactly() {
        // sum-before + delta must reproduce what the region actually
        // changed: compare against the definitionally-exact per-node
        // recomputation (ascending ids, same accumulation order).
        let g = diamond();
        let d0 = dijkstra(&g, 0);
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &d0);
        let mark = inc.undo_len();
        let mask = [(0u32, 1u32)];
        let view = MaskedEdges::new(&g, &mask);
        inc.begin_speculation();
        inc.remove_edge(&view, 0, 1, 1.0);
        inc.speculate_insert(&view, 0, 3, 0.25);
        let mut expected = 0.0;
        for (v, &orig) in d0.iter().enumerate() {
            if inc.dist()[v] != orig {
                expected += inc.dist()[v] - orig;
            }
        }
        assert_eq!(inc.delta_sum_since(mark), expected);
        inc.rollback();
        assert_eq!(inc.delta_sum_since(mark), 0.0, "empty log sums to zero");
        assert!(inc.resident_bytes() > 0);
    }

    /// The bucket rings' running capacity equals a walk over their
    /// buckets after runs and removal repairs that grow them, and after a
    /// clone, whose buckets do not keep their capacity.
    #[test]
    fn bucket_ring_capacity_tracks_its_buckets() {
        let walk = |ring: &BucketRing| ring.slots.iter().map(Vec::capacity).sum::<usize>();
        // A ring of 30 nodes with chords, weights 1 to 8: a 10-slot window,
        // padded with isolated nodes past the word frontier.
        let n = 30u32;
        let mut g = AdjacencyList::new(WORD_FRONTIER_NODES + 1);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 1.0 + (i % 8) as f64);
            if i % 3 == 0 {
                g.add_edge(i, (i + 7) % n, 1.0 + ((i * 5) % 8) as f64);
            }
        }
        let class = Some((1.0, 8.0));
        let mut scratch = DijkstraScratch::new();
        scratch.set_weight_class(class);
        let mut inc = DynamicSssp::new();
        inc.set_weight_class(class);
        inc.reset_from(0, &dijkstra(&g, 0));
        for i in (0..n).step_by(3) {
            scratch.run(&g, i, &[]);
            let b = (i + 1) % n;
            let w = g.edge_weight(i, b).expect("ring edge");
            g.remove_edge(i, b);
            inc.remove_edges(&g, &[(i, b, w)]);
            assert_eq!(inc.dist(), dijkstra(&g, 0).as_slice());
        }
        assert!(scratch.buckets.capacity > 0 && inc.buckets.capacity > 0);
        assert_eq!(scratch.buckets.capacity, walk(&scratch.buckets));
        assert_eq!(inc.buckets.capacity, walk(&inc.buckets));
        let (scratch, inc) = (scratch.clone(), inc.clone());
        assert_eq!(scratch.buckets.capacity, walk(&scratch.buckets));
        assert_eq!(inc.buckets.capacity, walk(&inc.buckets));
    }

    #[test]
    #[should_panic(expected = "not incident to source")]
    #[cfg(debug_assertions)]
    fn add_edge_off_source_violates_contract() {
        // Inserting an edge not incident to the source breaks the
        // relaxation invariant (see add_edge docs); the contract is
        // enforced in debug builds.
        let g = diamond();
        let mut inc = DynamicSssp::new();
        inc.reset_from(0, &dijkstra(&g, 0));
        inc.add_edge(&g, 1, 2, 0.1);
    }
}
