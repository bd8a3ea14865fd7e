//! The traced replay: the layer calls `Runner::run_cell_full` makes,
//! issued one by one from here with a span around each, so per-layer
//! time is measured from outside the program.
//!
//! A span has a name, a start, an end, and the span that caused it;
//! spans of one cell (or one daemon submit) share a group id. Spans stay
//! in memory until the run ends, then [`write_spans`] saves them and
//! [`self_times`] charges each layer its span time minus the part its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use gncg_core::{cost, equilibrium, Game, NodeId, Profile};
use gncg_dynamics::{DynamicsConfig, Engine, Outcome, SpeculativePricing};
use gncg_suite::scenario::{Cell, CellResult, CertifyMode, RuleSpec};
use gncg_suite::sink::JsonlSink;

use crate::plan::splitmix64;

/// One timed layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The cell, pass, or submit the span belongs to.
    pub group: u64,
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Collects spans for one thread of work.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// The spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose span ids are unique among recorders of distinct
    /// `lane`s.
    pub fn new(epoch: Instant, lane: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: (lane << 32) | 1,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, for a span whose children are recorded before it.
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    pub fn push(
        &mut self,
        group: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            group,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// nanoseconds.
    pub fn timed<R>(
        &mut self,
        group: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.id();
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.push(group, id, parent, name, start, end);
        (r, end.duration_since(start).as_nanos() as u64)
    }
}

/// Per-layer work and time summed over replayed cells.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Cells replayed.
    pub cells: u64,
    /// Whole-cell time.
    pub cell_ns: u64,
    /// `build_host` + `Game::new`.
    pub host_ns: u64,
    /// `Engine::run`.
    pub engine_ns: u64,
    /// `cost::social_cost`.
    pub cost_ns: u64,
    /// Equilibrium certification.
    pub certify_ns: u64,
    /// `CellResult::to_jsonl`.
    pub serialize_ns: u64,
    /// `JsonlSink::emit_line`.
    pub sink_ns: u64,
    /// Agent activations, Σ rounds · n.
    pub activations: u64,
    /// Applied moves.
    pub moves: u64,
    /// Agents certification checked.
    pub certify_agents: u64,
    /// SSSP runs of the social-cost APSP (n per cell).
    pub sssp_runs: u64,
    /// Line bytes written, newline included.
    pub bytes: u64,
    /// Largest warm-vector footprint after a cell.
    pub warm_bytes_peak: u64,
    /// Largest BR bound-table footprint after a cell.
    pub br_bytes_peak: u64,
}

impl Totals {
    /// Adds `o` into `self`.
    pub fn merge(&mut self, o: &Totals) {
        self.cells += o.cells;
        self.cell_ns += o.cell_ns;
        self.host_ns += o.host_ns;
        self.engine_ns += o.engine_ns;
        self.cost_ns += o.cost_ns;
        self.certify_ns += o.certify_ns;
        self.serialize_ns += o.serialize_ns;
        self.sink_ns += o.sink_ns;
        self.activations += o.activations;
        self.moves += o.moves;
        self.certify_agents += o.certify_agents;
        self.sssp_runs += o.sssp_runs;
        self.bytes += o.bytes;
        self.warm_bytes_peak = self.warm_bytes_peak.max(o.warm_bytes_peak);
        self.br_bytes_peak = self.br_bytes_peak.max(o.br_bytes_peak);
    }
}

/// The ⌈√n⌉-agent sample `CertifyMode::Sampled` checks (the scenario
/// layer's rule: distinct agents from a splitmix64 stream seeded by the
/// cell seed).
fn sampled_agents(n: usize, cell_seed: u64) -> Vec<NodeId> {
    let root = n.isqrt();
    let k = (root + usize::from(root * root < n)).max(2).min(n);
    let mut chosen = std::collections::BTreeSet::new();
    let mut x = cell_seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    while chosen.len() < k {
        x = splitmix64(x);
        chosen.insert((x % n as u64) as NodeId);
    }
    chosen.into_iter().collect()
}

/// Replays one cell layer by layer into `sink`, recording a span per
/// layer under a root `cell` span, and returns its line.
pub fn replay_cell(
    rec: &mut Recorder,
    engine: &mut Engine,
    cell: &Cell,
    group: u64,
    parent: u64,
    sink: &mut JsonlSink<Vec<u8>>,
    totals: &mut Totals,
) -> String {
    let root = rec.id();
    let started = Instant::now();
    let (game, host_ns) = rec.timed(group, root, "metrics.factory", || {
        let host = gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
            .expect("spec validated before expansion");
        Game::new(host, cell.alpha)
    });
    let cfg = DynamicsConfig {
        rule: cell.rule.rule(),
        scheduler: cell.scheduler.scheduler(cell.cell_seed),
        max_rounds: cell.max_rounds,
        regret_meter: cell.regret_meter,
        checkpoint_every: cell.checkpoint_every,
        ..DynamicsConfig::default()
    };
    engine.context_mut().set_pricing(if cell.horizon_pricing {
        SpeculativePricing::RegionDelta
    } else {
        SpeculativePricing::FullSum
    });
    let (result, engine_ns) = rec.timed(group, root, "dynamics.engine", || {
        engine.run(&game, Profile::star(game.n(), 0), &cfg)
    });
    let (social, cost_ns) = rec.timed(group, root, "core.cost", || {
        cost::social_cost(&game, &result.profile)
    });
    let certify_agents = match (result.converged(), cell.certify) {
        (false, _) | (_, CertifyMode::Off) => 0,
        (true, CertifyMode::Full) => cell.n,
        (true, CertifyMode::Sampled) => sampled_agents(cell.n, cell.cell_seed).len(),
    };
    let (certified, certify_ns) = rec.timed(group, root, "core.equilibrium", || {
        result.converged()
            && match cell.certify {
                CertifyMode::Off => false,
                CertifyMode::Full => match cell.rule {
                    RuleSpec::Br => equilibrium::is_nash_equilibrium(&game, &result.profile),
                    RuleSpec::Greedy => equilibrium::is_greedy_equilibrium(&game, &result.profile),
                    RuleSpec::Add => equilibrium::is_add_only_equilibrium(&game, &result.profile),
                },
                CertifyMode::Sampled => {
                    let ctx = engine.context_mut();
                    sampled_agents(cell.n, cell.cell_seed).into_iter().all(|u| {
                        gncg_dynamics::agent_is_stable_given_current(
                            &game,
                            &result.profile,
                            ctx,
                            u,
                            cell.rule.rule(),
                        )
                    })
                }
            }
    });
    let outcome = match result.outcome {
        Outcome::Converged { .. } => "converged",
        Outcome::Cycle { .. } => "cycle",
        Outcome::MaxRoundsReached => "max_rounds",
    };
    let cell_result = CellResult {
        cell: cell.index,
        host: cell.host.clone(),
        n: cell.n,
        alpha: cell.alpha,
        rule: cell.rule,
        scheduler: cell.scheduler,
        seed: cell.seed,
        outcome,
        rounds: result.rounds,
        moves: result.moves,
        social_cost: social.is_finite().then_some(social),
        certified,
        max_regret: result.regret_series.clone(),
        checkpoints: result.checkpoints.clone(),
        wall_micros: u128::from(engine_ns / 1_000),
    };
    let (line, serialize_ns) = rec.timed(group, root, "suite.scenario", || cell_result.to_jsonl());
    let (emitted, sink_ns) = rec.timed(group, root, "suite.sink", || sink.emit_line(&line));
    emitted.expect("in-memory sink cannot fail");
    let ended = Instant::now();
    rec.push(group, root, parent, "cell", started, ended);

    totals.cells += 1;
    totals.cell_ns += ended.duration_since(started).as_nanos() as u64;
    totals.host_ns += host_ns;
    totals.engine_ns += engine_ns;
    totals.cost_ns += cost_ns;
    totals.certify_ns += certify_ns;
    totals.serialize_ns += serialize_ns;
    totals.sink_ns += sink_ns;
    totals.activations += (result.rounds * cell.n) as u64;
    totals.moves += result.moves as u64;
    totals.certify_agents += certify_agents as u64;
    totals.sssp_runs += cell.n as u64;
    totals.bytes += line.len() as u64 + 1;
    totals.warm_bytes_peak = totals
        .warm_bytes_peak
        .max(engine.warm_resident_bytes() as u64);
    totals.br_bytes_peak = totals
        .br_bytes_peak
        .max(engine.context_mut().br_resident_bytes() as u64);
    line
}

/// Output of one traced pass over the pool.
#[derive(Debug, Default)]
pub struct Replayed {
    /// The pass's JSONL bytes, in cell order.
    pub bytes: Vec<u8>,
    /// Every span the pass recorded.
    pub spans: Vec<Span>,
    /// Layer totals.
    pub totals: Totals,
    /// Wall time of the pass, in nanoseconds.
    pub wall_ns: u64,
}

/// Replays `cells` as one pass over the rayon pool — contiguous shards,
/// one fresh engine per shard, as the grid streamer runs them — under a
/// root `compat.rayon` span. Pass number `pass` tags the groups: the pass
/// span gets `pass << 20` and cell `i` gets `(pass << 20) + 1 + i`.
pub fn replay_pass(cells: &[Cell], epoch: Instant, pass: u64) -> Replayed {
    use rayon::prelude::*;
    let threads = rayon::current_num_threads();
    let shard_len = cells.len().div_ceil(threads * 4).clamp(1, 64);
    let shards: Vec<(usize, &[Cell])> = cells
        .chunks(shard_len)
        .enumerate()
        .map(|(i, s)| (i * shard_len, s))
        .collect();
    let group = pass << 20;
    let mut root_rec = Recorder::new(epoch, pass << 8);
    let pass_id = root_rec.id();
    let started = Instant::now();
    let outputs: Vec<(Vec<u8>, Vec<Span>, Totals)> = shards
        .par_iter()
        .map(|&(first, shard)| {
            let mut rec = Recorder::new(epoch, (pass << 8) + 1 + (first / shard_len) as u64);
            let mut engine = Engine::new();
            let mut sink = JsonlSink::new(Vec::new());
            let mut totals = Totals::default();
            for (i, cell) in shard.iter().enumerate() {
                let cell_group = group + 1 + (first + i) as u64;
                replay_cell(
                    &mut rec,
                    &mut engine,
                    cell,
                    cell_group,
                    pass_id,
                    &mut sink,
                    &mut totals,
                );
            }
            (sink.into_inner(), rec.spans, totals)
        })
        .collect();
    let ended = Instant::now();
    root_rec.push(group, pass_id, 0, "compat.rayon", started, ended);
    let mut out = Replayed {
        spans: root_rec.spans,
        wall_ns: ended.duration_since(started).as_nanos() as u64,
        ..Replayed::default()
    };
    for (bytes, spans, totals) in outputs {
        out.bytes.extend_from_slice(&bytes);
        out.spans.extend(spans);
        out.totals.merge(&totals);
    }
    out
}

/// Self time per layer name: each span's duration minus the union of
/// its children's intervals (children of a pool pass overlap in time).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]` (sorts them).
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes spans as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            w,
            "{{\"group\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.group, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_suite::scenario::{Runner, ScenarioSpec};

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            group: 1,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "compat.rayon", 0, 100),
            // Two overlapping children cover [10, 70].
            span(2, 1, "cell", 10, 60),
            span(3, 1, "cell", 30, 70),
            span(4, 2, "dynamics.engine", 20, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["compat.rayon"], 40);
        assert_eq!(t["cell"], 50 - 30 + 40);
        assert_eq!(t["dynamics.engine"], 30);
    }

    #[test]
    fn replay_matches_the_runner_bytes() {
        let mut spec = ScenarioSpec::swap_heavy();
        spec.seeds = vec![0];
        spec.alphas = vec![2.0];
        let cells = spec.expand();
        let mut runner = Runner::new();
        let expected: String = cells
            .iter()
            .map(|c| runner.run_cell(c).to_jsonl() + "\n")
            .collect();
        let out = replay_pass(&cells, Instant::now(), 1);
        assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
        assert_eq!(out.totals.cells, cells.len() as u64);
        // One pass span plus seven spans per cell.
        assert_eq!(out.spans.len(), 1 + 7 * cells.len());
        let by_id: BTreeMap<u64, &Span> = out.spans.iter().map(|s| (s.id, s)).collect();
        assert_eq!(by_id.len(), out.spans.len(), "span ids are unique");
        for s in &out.spans {
            assert!(s.end_ns >= s.start_ns);
            if s.parent != 0 {
                let p = by_id[&s.parent];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{} outside {}",
                    s.name,
                    p.name
                );
            }
        }
    }

    #[test]
    fn sampled_agents_match_the_documented_rule() {
        let a = sampled_agents(100, 42);
        assert_eq!(a, sampled_agents(100, 42));
        assert_eq!(a.len(), 10);
        assert_eq!(sampled_agents(10, 1).len(), 4);
    }
}
