//! The scenario subsystem: declarative experiment grids from host factory
//! to per-cell results.
//!
//! A [`ScenarioSpec`] names a grid of cells — the cross product
//! `host factory × n × α × response rule × scheduler × seed` — and
//! expands it into a deterministic list of [`Cell`]s, each with its own
//! derived seed. A [`Runner`] executes cells on a long-lived
//! [`gncg_dynamics::Engine`] (scratch reused across cells instead of
//! reallocated per run) and produces serializable [`CellResult`]s.
//!
//! Determinism contract: equal specs expand to equal cell lists, equal
//! cells produce equal results, and [`CellResult::to_jsonl`] emits a
//! byte-stable line — so an interrupted grid run resumed from disk is
//! byte-identical to an uninterrupted one (see [`crate::grid`]). Wall
//! times are measured ([`CellResult::wall_micros`]) but deliberately
//! **excluded** from the JSONL line for exactly this reason.

use std::collections::BTreeSet;
use std::time::Instant;

use gncg_core::{cost, equilibrium, Game, NodeId, Profile};
use gncg_dynamics::{
    Checkpoint, DynamicsConfig, Engine, Outcome, ResponseRule, RunResult, Scheduler,
    SpeculativePricing,
};

/// JSONL schema version emitted by [`CellResult::to_jsonl`] consumers
/// (bumped when the line format changes incompatibly).
pub const SCHEMA_VERSION: u32 = 1;

/// Schema version of lines carrying the opt-in observability fields
/// (`max_regret` / `checkpoints`). Emitted in the manifest only when a
/// spec turns those fields on, so meter-off grids keep their historical
/// schema-1 bytes exactly.
pub const SCHEMA_VERSION_OBSERVABILITY: u32 = 2;

/// splitmix64 — the per-cell seed derivation. Statistically independent
/// outputs for sequential inputs; stable across platforms and releases.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A response rule axis value, with its stable spec/JSONL name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleSpec {
    /// Exact best response (`br`).
    Br,
    /// Best greedy move (`greedy`).
    Greedy,
    /// Best single addition (`add`).
    Add,
}

impl RuleSpec {
    /// Every rule, in canonical order.
    pub const ALL: [RuleSpec; 3] = [RuleSpec::Br, RuleSpec::Greedy, RuleSpec::Add];

    /// The stable name used in specs, CLI flags, and JSONL.
    pub fn key(self) -> &'static str {
        match self {
            RuleSpec::Br => "br",
            RuleSpec::Greedy => "greedy",
            RuleSpec::Add => "add",
        }
    }

    /// Parses a stable name.
    pub fn parse(s: &str) -> Result<RuleSpec, String> {
        RuleSpec::ALL
            .into_iter()
            .find(|r| r.key() == s)
            .ok_or_else(|| format!("unknown rule '{s}' (use br|greedy|add)"))
    }

    /// The dynamics-engine rule.
    pub fn rule(self) -> ResponseRule {
        match self {
            RuleSpec::Br => ResponseRule::ExactBestResponse,
            RuleSpec::Greedy => ResponseRule::BestGreedyMove,
            RuleSpec::Add => ResponseRule::AddOnly,
        }
    }
}

/// A scheduler axis value, with its stable spec/JSONL name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedSpec {
    /// Round robin (`rr`).
    RoundRobin,
    /// Fresh random permutation per round (`random`); the RNG seed is
    /// derived from the cell seed.
    Random,
    /// Largest-improvement-first (`maxgain`).
    MaxGain,
}

impl SchedSpec {
    /// Every scheduler, in canonical order.
    pub const ALL: [SchedSpec; 3] = [SchedSpec::RoundRobin, SchedSpec::Random, SchedSpec::MaxGain];

    /// The stable name used in specs, CLI flags, and JSONL.
    pub fn key(self) -> &'static str {
        match self {
            SchedSpec::RoundRobin => "rr",
            SchedSpec::Random => "random",
            SchedSpec::MaxGain => "maxgain",
        }
    }

    /// Parses a stable name.
    pub fn parse(s: &str) -> Result<SchedSpec, String> {
        SchedSpec::ALL
            .into_iter()
            .find(|r| r.key() == s)
            .ok_or_else(|| format!("unknown scheduler '{s}' (use rr|random|maxgain)"))
    }

    /// The dynamics-engine scheduler for a cell (the random scheduler's
    /// permutation stream is derived from, but distinct from, the cell's
    /// host seed).
    pub fn scheduler(self, cell_seed: u64) -> Scheduler {
        match self {
            SchedSpec::RoundRobin => Scheduler::RoundRobin,
            SchedSpec::Random => Scheduler::RandomOrder {
                seed: splitmix64(cell_seed ^ 0x5C5C_5C5C_5C5C_5C5C),
            },
            SchedSpec::MaxGain => Scheduler::MaxGain,
        }
    }
}

/// How a converged cell's final profile is re-certified as an equilibrium
/// of its rule's class (the JSONL `certified` field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CertifyMode {
    /// Full per-agent best responses from scratch (`full`) — the
    /// historical behavior and the default.
    #[default]
    Full,
    /// A deterministic ⌈√n⌉-agent sample checked incrementally against
    /// the engine's warm context (`sampled`): a cheap spot-check for
    /// large-n grids. `certified:true` then means "no sampled agent can
    /// improve", not a full certificate.
    Sampled,
    /// No certification (`off`): `certified` is always `false`.
    Off,
}

impl CertifyMode {
    /// Every mode, in canonical order.
    pub const ALL: [CertifyMode; 3] = [CertifyMode::Full, CertifyMode::Sampled, CertifyMode::Off];

    /// The stable name used in specs, CLI flags, and manifests.
    pub fn key(self) -> &'static str {
        match self {
            CertifyMode::Full => "full",
            CertifyMode::Sampled => "sampled",
            CertifyMode::Off => "off",
        }
    }

    /// Parses a stable name.
    pub fn parse(s: &str) -> Result<CertifyMode, String> {
        CertifyMode::ALL
            .into_iter()
            .find(|m| m.key() == s)
            .ok_or_else(|| format!("unknown certify mode '{s}' (use full|sampled|off)"))
    }
}

/// A declarative experiment grid: the cross product of its axes.
///
/// Expansion order is fixed (hosts, then `n`s, then αs, then rules, then
/// schedulers, then seeds, innermost last) and each cell receives a
/// deterministic seed derived from `base_seed` and its index, so the same
/// spec always reproduces the same cells bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable grid name (recorded in the manifest).
    pub name: String,
    /// Host factory keys (see `gncg_metrics::factory`).
    pub hosts: Vec<String>,
    /// Agent counts.
    pub ns: Vec<usize>,
    /// Edge-price parameters α.
    pub alphas: Vec<f64>,
    /// Response rules.
    pub rules: Vec<RuleSpec>,
    /// Schedulers.
    pub schedulers: Vec<SchedSpec>,
    /// Instance seeds (the raw axis values; per-cell seeds are derived).
    pub seeds: Vec<u64>,
    /// Round cap per cell.
    pub max_rounds: usize,
    /// Master seed mixed into every derived cell seed.
    pub base_seed: u64,
    /// How converged cells are re-certified (affects the JSONL
    /// `certified` field, so it is part of the spec identity and the
    /// resume manifest).
    pub certify: CertifyMode,
    /// Stream the per-round max-regret series in every cell line
    /// (schema 2; off by default — meter-off grids keep their schema-1
    /// bytes exactly).
    pub regret_meter: bool,
    /// Record a full state checkpoint (strategies, costs, regrets) every
    /// k completed rounds plus the final round; `0` disables (the
    /// default). Non-zero turns the cell lines into schema 2.
    pub checkpoint_every: usize,
    /// Price speculative candidates with the bounded-horizon region-delta
    /// policy ([`SpeculativePricing::RegionDelta`]) instead of the full
    /// O(n) sum — the policy that makes 10³–10⁴-node cells feasible.
    /// A deterministic policy of its own (sub-ulp ties may resolve
    /// differently from full-sum pricing), so it is part of the spec
    /// identity; off by default, keeping historical grids byte-identical.
    pub horizon_pricing: bool,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "grid".into(),
            hosts: vec!["r2".into()],
            ns: vec![8],
            alphas: vec![1.0],
            rules: vec![RuleSpec::Greedy],
            schedulers: vec![SchedSpec::RoundRobin],
            seeds: vec![0],
            max_rounds: 1_000,
            base_seed: 0,
            certify: CertifyMode::Full,
            regret_meter: false,
            checkpoint_every: 0,
            horizon_pricing: false,
        }
    }
}

impl ScenarioSpec {
    /// The swap-heavy preset grid: random-geometry hosts at the α band
    /// where greedy dynamics from a star spend roughly half their applied
    /// moves on deletions and swaps (measured: del+swap ≈ 45–55% of moves
    /// on these axes) — the regime where warm distance vectors
    /// historically died on every removal. The `dynamics_swap_heavy`
    /// bench draws its hosts from this grid, and its cells exercise the
    /// deletion-tolerant warm-update path end to end.
    pub fn swap_heavy() -> ScenarioSpec {
        ScenarioSpec {
            name: "swap-heavy".into(),
            hosts: vec!["r2".into(), "grid".into(), "clusters".into()],
            ns: vec![20],
            alphas: vec![2.0, 4.0, 8.0],
            rules: vec![RuleSpec::Greedy],
            schedulers: vec![SchedSpec::RoundRobin],
            seeds: vec![0, 1, 2, 3],
            max_rounds: 500,
            base_seed: 0,
            certify: CertifyMode::Full,
            ..ScenarioSpec::default()
        }
    }

    /// The large-n preset grid: 10³–10⁴ agents on the integer-grid host
    /// (unit spacing ⇒ the bucket-queue SSSP core's ideal weight class)
    /// with bounded-horizon pricing and sampled certification. The rule
    /// is add-only: with horizon pricing an add scan prices each
    /// candidate by its (tiny, metric-host) relax region, keeping a
    /// round near O(n²) — whereas a greedy swap scan re-floods the
    /// agent's disconnected warm vector per candidate, Θ(n) each, which
    /// is Θ(n³) per round and infeasible at n = 4096. Round cap is
    /// deliberately small: these cells measure large-n throughput, not
    /// convergence, and their byte streams are still fully deterministic.
    pub fn large_n() -> ScenarioSpec {
        ScenarioSpec {
            name: "large-n".into(),
            hosts: vec!["grid".into()],
            ns: vec![1024, 4096],
            alphas: vec![4.0],
            rules: vec![RuleSpec::Add],
            schedulers: vec![SchedSpec::RoundRobin],
            seeds: vec![0],
            max_rounds: 3,
            base_seed: 0,
            certify: CertifyMode::Sampled,
            horizon_pricing: true,
            ..ScenarioSpec::default()
        }
    }

    /// The br-grid preset: exact-best-response dynamics on three hosts at
    /// the sizes where the exponential per-activation search is the whole
    /// cell cost — the end-to-end workload of the engine's persistent BR
    /// bound tables. The tables are bitwise invisible (debug builds check
    /// every cached search against a fresh one), so this grid's bytes are
    /// locked by `tests/golden/br_grid_n14.jsonl`; the `br_grid` bench
    /// times the tables against the from-scratch ancestor
    /// `exact_best_response_given_current`.
    pub fn br_grid() -> ScenarioSpec {
        ScenarioSpec {
            name: "br-grid".into(),
            hosts: vec!["r2".into(), "metric".into(), "clusters".into()],
            ns: vec![12, 14],
            alphas: vec![0.8, 2.0, 6.0],
            rules: vec![RuleSpec::Br],
            schedulers: vec![SchedSpec::RoundRobin],
            seeds: vec![0, 1],
            max_rounds: 60,
            base_seed: 0,
            certify: CertifyMode::Full,
            ..ScenarioSpec::default()
        }
    }

    /// Whether any opt-in observability output is on — the schema-2
    /// trigger for manifests, cell lines, and digests.
    pub fn observability_on(&self) -> bool {
        self.regret_meter || self.checkpoint_every != 0
    }
}

/// One expanded grid cell: a fully specified dynamics run.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Position in the expansion (also the JSONL line position).
    pub index: usize,
    /// Host factory key.
    pub host: String,
    /// Agent count.
    pub n: usize,
    /// Edge price.
    pub alpha: f64,
    /// Response rule.
    pub rule: RuleSpec,
    /// Scheduler.
    pub scheduler: SchedSpec,
    /// The raw seed-axis value.
    pub seed: u64,
    /// Derived deterministic seed (host construction + scheduler RNG).
    pub cell_seed: u64,
    /// Round cap.
    pub max_rounds: usize,
    /// Certification mode (inherited from the spec).
    pub certify: CertifyMode,
    /// Stream the per-round max-regret series (inherited from the spec).
    pub regret_meter: bool,
    /// Checkpoint cadence in rounds, `0` = off (inherited from the spec).
    pub checkpoint_every: usize,
    /// Bounded-horizon speculative pricing (inherited from the spec).
    pub horizon_pricing: bool,
}

impl ScenarioSpec {
    /// Number of cells the spec expands to. Panics on overflow in debug;
    /// validated specs are always in range ([`ScenarioSpec::validate`]
    /// rejects specs whose product overflows via
    /// [`ScenarioSpec::checked_cell_count`]).
    pub fn cell_count(&self) -> usize {
        self.hosts.len()
            * self.ns.len()
            * self.alphas.len()
            * self.rules.len()
            * self.schedulers.len()
            * self.seeds.len()
    }

    /// [`ScenarioSpec::cell_count`] with overflow detection — what
    /// consumers of *untrusted* specs (the service's `submit` handler)
    /// check before expanding anything.
    pub fn checked_cell_count(&self) -> Option<usize> {
        [
            self.hosts.len(),
            self.ns.len(),
            self.alphas.len(),
            self.rules.len(),
            self.schedulers.len(),
            self.seeds.len(),
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
    }

    /// Checks the spec is runnable and manifest-safe: every axis
    /// non-empty, every host key registered, positive round cap, finite
    /// αs, and a name the line-oriented manifest can round-trip.
    pub fn validate(&self) -> Result<(), String> {
        match self.checked_cell_count() {
            Some(0) => {
                return Err("spec expands to 0 cells (every axis must be non-empty)".into());
            }
            None => {
                return Err("spec cell count overflows (axes are implausibly large)".into());
            }
            Some(_) => {}
        }
        if self.max_rounds == 0 {
            return Err("max_rounds must be positive".into());
        }
        if self.name.contains(['\n', '\r']) {
            return Err(
                "spec name must not contain line breaks (manifest is line-oriented)".into(),
            );
        }
        for key in &self.hosts {
            gncg_metrics::factory::lookup(key)?;
        }
        for &n in &self.ns {
            if n < 2 {
                return Err(format!("n = {n} is below the 2-agent minimum"));
            }
        }
        for &alpha in &self.alphas {
            if !alpha.is_finite() {
                return Err(format!(
                    "alpha = {alpha} is not finite (JSONL cells could not round-trip it)"
                ));
            }
        }
        Ok(())
    }

    /// Expands the grid into its deterministic cell list.
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for host in &self.hosts {
            for &n in &self.ns {
                for &alpha in &self.alphas {
                    for &rule in &self.rules {
                        for &scheduler in &self.schedulers {
                            for &seed in &self.seeds {
                                let index = cells.len();
                                // Mix the seed axis in separately from the
                                // index so permuting other axes never
                                // aliases two cells onto one stream.
                                let cell_seed =
                                    splitmix64(self.base_seed ^ splitmix64(index as u64) ^ seed);
                                cells.push(Cell {
                                    index,
                                    host: host.clone(),
                                    n,
                                    alpha,
                                    rule,
                                    scheduler,
                                    seed,
                                    cell_seed,
                                    max_rounds: self.max_rounds,
                                    certify: self.certify,
                                    regret_meter: self.regret_meter,
                                    checkpoint_every: self.checkpoint_every,
                                    horizon_pricing: self.horizon_pricing,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Serializes the spec as the resume manifest (stable `key=value`
    /// lines; [`ScenarioSpec::from_manifest`] round-trips it exactly).
    pub fn to_manifest(&self) -> String {
        let mut s = String::new();
        // Meter-off specs keep emitting schema 1 byte for byte; only
        // opted-in observability bumps the version (and appends its keys
        // below), so historical manifests never change under this build.
        let schema = if self.observability_on() {
            SCHEMA_VERSION_OBSERVABILITY
        } else {
            SCHEMA_VERSION
        };
        s.push_str(&format!("schema={schema}\n"));
        s.push_str(&format!("name={}\n", self.name));
        s.push_str(&format!("hosts={}\n", self.hosts.join(",")));
        s.push_str(&format!(
            "ns={}\n",
            self.ns
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!(
            "alphas={}\n",
            self.alphas
                .iter()
                .map(|a| format!("{a:?}"))
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!(
            "rules={}\n",
            self.rules
                .iter()
                .map(|r| r.key())
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!(
            "schedulers={}\n",
            self.schedulers
                .iter()
                .map(|r| r.key())
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!(
            "seeds={}\n",
            self.seeds
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!("max_rounds={}\n", self.max_rounds));
        s.push_str(&format!("base_seed={}\n", self.base_seed));
        s.push_str(&format!("certify={}\n", self.certify.key()));
        if self.regret_meter {
            s.push_str("regret_meter=true\n");
        }
        if self.checkpoint_every != 0 {
            s.push_str(&format!("checkpoint_every={}\n", self.checkpoint_every));
        }
        // Emitted only when on: historical (full-sum) manifests keep
        // their exact bytes, and pre-horizon builds reject a key they
        // cannot honor instead of silently re-running with the wrong
        // pricing policy.
        if self.horizon_pricing {
            s.push_str("horizon_pricing=true\n");
        }
        s
    }

    /// Parses a manifest produced by [`ScenarioSpec::to_manifest`].
    pub fn from_manifest(text: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec {
            name: String::new(),
            hosts: Vec::new(),
            ns: Vec::new(),
            alphas: Vec::new(),
            rules: Vec::new(),
            schedulers: Vec::new(),
            seeds: Vec::new(),
            max_rounds: 0,
            base_seed: 0,
            certify: CertifyMode::Full,
            regret_meter: false,
            checkpoint_every: 0,
            horizon_pricing: false,
        };
        for raw in text.lines() {
            // Trim only line endings and for blank/comment detection; the
            // *value* is kept verbatim so names round-trip exactly.
            let line = raw.trim_end_matches('\r');
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("manifest line without '=': {line}"))?;
            fn list<T, E: std::fmt::Display>(
                value: &str,
                parse: impl Fn(&str) -> Result<T, E>,
            ) -> Result<Vec<T>, String> {
                value
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| parse(s.trim()).map_err(|e| e.to_string()))
                    .collect()
            }
            match key.trim() {
                "schema" => {
                    let v: u32 = value
                        .trim()
                        .parse()
                        .map_err(|_| "bad schema version".to_string())?;
                    if v != SCHEMA_VERSION && v != SCHEMA_VERSION_OBSERVABILITY {
                        return Err(format!(
                            "manifest schema {v} unsupported (this build speaks \
                             {SCHEMA_VERSION} and {SCHEMA_VERSION_OBSERVABILITY})"
                        ));
                    }
                }
                "name" => spec.name = value.to_string(),
                "hosts" => spec.hosts = list(value, |s| Ok::<_, String>(s.to_string()))?,
                "ns" => spec.ns = list(value, str::parse::<usize>)?,
                "alphas" => spec.alphas = list(value, str::parse::<f64>)?,
                "rules" => spec.rules = list(value, RuleSpec::parse)?,
                "schedulers" => spec.schedulers = list(value, SchedSpec::parse)?,
                "seeds" => spec.seeds = list(value, str::parse::<u64>)?,
                "max_rounds" => {
                    spec.max_rounds = value
                        .trim()
                        .parse()
                        .map_err(|_| "bad max_rounds".to_string())?
                }
                "base_seed" => {
                    spec.base_seed = value
                        .trim()
                        .parse()
                        .map_err(|_| "bad base_seed".to_string())?
                }
                // Absent in pre-certify manifests: the default (full)
                // matches what those grids ran with.
                "certify" => spec.certify = CertifyMode::parse(value.trim())?,
                // Absent in schema-1 manifests: both default to off,
                // matching what those grids ran with.
                "regret_meter" => {
                    spec.regret_meter = value
                        .trim()
                        .parse()
                        .map_err(|_| "bad regret_meter (use true|false)".to_string())?
                }
                "checkpoint_every" => {
                    spec.checkpoint_every = value
                        .trim()
                        .parse()
                        .map_err(|_| "bad checkpoint_every".to_string())?
                }
                // Absent in pre-horizon manifests: full-sum pricing is
                // what those grids ran with.
                "horizon_pricing" => {
                    spec.horizon_pricing = value
                        .trim()
                        .parse()
                        .map_err(|_| "bad horizon_pricing (use true|false)".to_string())?
                }
                other => return Err(format!("unknown manifest key '{other}'")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Serializable result of one cell: what the JSONL stream carries.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Cell index within the spec expansion.
    pub cell: usize,
    /// Host factory key.
    pub host: String,
    /// Agent count.
    pub n: usize,
    /// Edge price.
    pub alpha: f64,
    /// Response rule.
    pub rule: RuleSpec,
    /// Scheduler.
    pub scheduler: SchedSpec,
    /// Raw seed-axis value.
    pub seed: u64,
    /// `"converged"`, `"cycle"`, or `"max_rounds"`.
    pub outcome: &'static str,
    /// Rounds executed.
    pub rounds: usize,
    /// Applied moves.
    pub moves: usize,
    /// Social cost of the final profile (`None` when disconnected —
    /// serialized as JSON `null`).
    pub social_cost: Option<f64>,
    /// Whether the final profile was explicitly re-certified as an
    /// equilibrium of the rule's class (NE / GE / AE).
    pub certified: bool,
    /// Per-round max-regret series ([`Cell::regret_meter`]): after round
    /// r, the largest cost improvement any agent could still realize
    /// under the cell's rule (`0.0` on the final round of every converged
    /// cell). `None` when the meter is off — the field is then absent
    /// from the JSONL line, keeping schema-1 bytes unchanged.
    pub max_regret: Option<Vec<f64>>,
    /// Checkpoint frames every [`Cell::checkpoint_every`] rounds plus the
    /// final round; `None` when checkpoints are off.
    pub checkpoints: Option<Vec<Checkpoint>>,
    /// Wall-clock microseconds for the cell — **not serialized**: the
    /// JSONL stream is byte-reproducible across runs and resumes, which
    /// timing data would break. Aggregate timing is reported by the grid
    /// summary instead.
    pub wall_micros: u128,
}

/// Formats an `Option<f64>` losslessly for JSON (`{:?}` is the shortest
/// round-trip float representation; disconnected costs become `null`).
fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:?}"),
        _ => "null".into(),
    }
}

/// Joins floats as a JSON array body (infinities serialize as `null`).
fn json_f64_array(xs: &[f64]) -> String {
    xs.iter()
        .map(|&x| json_f64(Some(x)))
        .collect::<Vec<_>>()
        .join(",")
}

impl CellResult {
    /// One JSONL line (no trailing newline). Field order is fixed;
    /// floats use the shortest round-trip representation; wall time is
    /// excluded (see [`CellResult::wall_micros`]). The schema-2
    /// observability fields (`max_regret`, `checkpoints`) are appended
    /// strictly after every schema-1 field and only when present, so a
    /// meter-off line is byte-identical to the historical format and a
    /// meter-on line is the meter-off line plus a suffix.
    pub fn to_jsonl(&self) -> String {
        let mut line = format!(
            "{{\"cell\":{},\"host\":\"{}\",\"n\":{},\"alpha\":{},\"rule\":\"{}\",\"scheduler\":\"{}\",\"seed\":{},\"outcome\":\"{}\",\"rounds\":{},\"moves\":{},\"social_cost\":{},\"certified\":{}}}",
            self.cell,
            self.host,
            self.n,
            json_f64(Some(self.alpha)),
            self.rule.key(),
            self.scheduler.key(),
            self.seed,
            self.outcome,
            self.rounds,
            self.moves,
            json_f64(self.social_cost),
            self.certified,
        );
        if self.max_regret.is_some() || self.checkpoints.is_some() {
            line.pop();
            if let Some(series) = &self.max_regret {
                line.push_str(",\"max_regret\":[");
                line.push_str(&json_f64_array(series));
                line.push(']');
            }
            if let Some(frames) = &self.checkpoints {
                line.push_str(",\"checkpoints\":[");
                for (i, f) in frames.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push_str(&format!("{{\"round\":{},\"strategies\":[", f.round));
                    for (u, s) in f.strategies.iter().enumerate() {
                        if u > 0 {
                            line.push(',');
                        }
                        line.push('[');
                        line.push_str(
                            &s.iter()
                                .map(|v| v.to_string())
                                .collect::<Vec<_>>()
                                .join(","),
                        );
                        line.push(']');
                    }
                    line.push_str(&format!(
                        "],\"costs\":[{}],\"regrets\":[{}]}}",
                        json_f64_array(&f.costs),
                        json_f64_array(&f.regrets),
                    ));
                }
                line.push(']');
            }
            line.push('}');
        }
        line
    }

    /// Extracts the cell index from a [`CellResult::to_jsonl`] line
    /// (`None` for malformed/foreign lines) — the resume scanner.
    pub fn cell_index_of_line(line: &str) -> Option<usize> {
        let rest = line.strip_prefix("{\"cell\":")?;
        let end = rest.find(',')?;
        rest[..end].parse().ok()
    }
}

/// Executes cells on a long-lived [`Engine`]: scratch (cached network,
/// warm distance vectors, cycle-detector map) is reused across cells.
/// One `Runner` per worker shard.
#[derive(Debug, Default)]
pub struct Runner {
    engine: Engine,
}

impl Runner {
    /// A fresh runner.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Runs one cell, returning the full run alongside the serializable
    /// result (consumers that need the final profile — diameters,
    /// stretch factors — use this; the grid streamer uses
    /// [`Runner::run_cell`]).
    pub fn run_cell_full(&mut self, cell: &Cell) -> (CellResult, Game, RunResult) {
        let host = gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
            .expect("spec validated before expansion");
        let game = Game::new(host, cell.alpha);
        let cfg = DynamicsConfig {
            rule: cell.rule.rule(),
            scheduler: cell.scheduler.scheduler(cell.cell_seed),
            max_rounds: cell.max_rounds,
            regret_meter: cell.regret_meter,
            checkpoint_every: cell.checkpoint_every,
            ..DynamicsConfig::default()
        };
        // The pricing policy is sticky on the context, so every cell must
        // set it explicitly — a full-sum cell after a horizon cell would
        // otherwise inherit the wrong byte stream.
        self.engine
            .context_mut()
            .set_pricing(if cell.horizon_pricing {
                SpeculativePricing::RegionDelta
            } else {
                SpeculativePricing::FullSum
            });
        let started = Instant::now();
        let result = self.engine.run(&game, Profile::star(game.n(), 0), &cfg);
        let wall_micros = started.elapsed().as_micros();
        let social = cost::social_cost(&game, &result.profile);
        let certified = result.converged()
            && match cell.certify {
                CertifyMode::Off => false,
                CertifyMode::Full => match cell.rule {
                    RuleSpec::Br => equilibrium::is_nash_equilibrium(&game, &result.profile),
                    RuleSpec::Greedy => equilibrium::is_greedy_equilibrium(&game, &result.profile),
                    RuleSpec::Add => equilibrium::is_add_only_equilibrium(&game, &result.profile),
                },
                CertifyMode::Sampled => {
                    // Spot-check a deterministic ⌈√n⌉-agent sample against
                    // the engine's post-run context: the network and warm
                    // vectors already describe the final profile, so each
                    // check reuses the `*_given_current` entry points
                    // instead of a from-scratch build + Dijkstra.
                    let ctx = self.engine.context_mut();
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
            };
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
            wall_micros,
        };
        (cell_result, game, result)
    }

    /// Runs one cell for its serializable result.
    pub fn run_cell(&mut self, cell: &Cell) -> CellResult {
        self.run_cell_full(cell).0
    }

    /// Releases references into the last cell's data while keeping the
    /// engine's scratch allocations — what a long-lived service worker
    /// calls at a job boundary (see [`gncg_dynamics::Engine::recycle`]).
    pub fn recycle(&mut self) {
        self.engine.recycle();
    }

    /// Bytes resident in the engine's warm distance vectors after the
    /// last cell — the figure the service's `warm_resident_bytes` peak
    /// gauge records per job.
    pub fn warm_resident_bytes(&self) -> usize {
        self.engine.warm_resident_bytes()
    }
}

/// The deterministic ⌈√n⌉-agent sample [`CertifyMode::Sampled`] checks:
/// distinct agents drawn from a splitmix64 stream seeded by the cell seed
/// (disjoint from the host-construction and scheduler streams).
fn sampled_agents(n: usize, cell_seed: u64) -> Vec<NodeId> {
    // ⌈√n⌉ exactly (isqrt floors): the documented sample size.
    let root = n.isqrt();
    let k = (root + usize::from(root * root < n)).max(2).min(n);
    let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
    let mut x = cell_seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    while chosen.len() < k {
        x = splitmix64(x);
        chosen.insert((x % n as u64) as NodeId);
    }
    chosen.into_iter().collect()
}

/// Content address of a cell: a splitmix64-chained digest over **every**
/// field that determines its result bytes (host key, n, α bits, rule,
/// scheduler, raw seed, derived cell seed, round cap, certify mode —
/// everything except the positional `index`, which callers re-stamp when
/// serving a cached line). Equal digests ⇒ byte-identical
/// [`CellResult::to_jsonl`] output up to the `cell` field, which is what
/// the service's result cache keys on.
pub fn cell_digest(cell: &Cell) -> u64 {
    let mut h: u64 = 0x6763_6763_6E63_6731; // "gcgcncg1": domain tag
    let mut mix = |word: u64| h = splitmix64(h ^ word);
    mix(cell.host.len() as u64);
    for chunk in cell.host.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        mix(u64::from_le_bytes(w));
    }
    mix(cell.n as u64);
    mix(cell.alpha.to_bits());
    mix(cell.rule as u64);
    mix(cell.scheduler as u64);
    mix(cell.seed);
    mix(cell.cell_seed);
    mix(cell.max_rounds as u64);
    mix(cell.certify as u64);
    // Observability fields join the digest only when non-default, so
    // every pre-observability digest (and any cached line keyed on one)
    // is unchanged by this build.
    if cell.regret_meter || cell.checkpoint_every != 0 {
        mix(0x6F62_7332_6763_6763); // "obs2gcgc": sub-domain tag
        mix(cell.regret_meter as u64);
        mix(cell.checkpoint_every as u64);
    }
    // Same gating for the pricing policy: only horizon cells mix the tag,
    // so every full-sum digest (and cached line keyed on one) survives.
    if cell.horizon_pricing {
        mix(0x686F_727A_6763_6763); // "horzgcgc": sub-domain tag
    }
    h
}

/// Runs every cell of `spec` in-memory (sharded over the rayon pool, one
/// [`Runner`] per shard), returning results in cell order — the
/// programmatic twin of the JSONL streamer in [`crate::grid`].
pub fn run_cells(spec: &ScenarioSpec) -> Result<Vec<CellResult>, String> {
    spec.validate()?;
    Ok(run_cell_slice(&spec.expand()))
}

/// Runs an explicit cell list sharded over the rayon pool, preserving
/// order. Shards are contiguous so each worker's [`Engine`] sees similar
/// consecutive cells (better scratch reuse than striping).
pub fn run_cell_slice(cells: &[Cell]) -> Vec<CellResult> {
    run_sharded(&work_shards(cells))
}

/// Runs pre-cut contiguous shards over the rayon pool — the one sharding
/// pipeline (one [`Runner`] per shard, results re-flattened in cell
/// order) shared with the JSONL wave runner in [`crate::grid`].
pub(crate) fn run_sharded(shards: &[&[Cell]]) -> Vec<CellResult> {
    use rayon::prelude::*;
    shards
        .par_iter()
        .map(|shard| {
            let mut runner = Runner::new();
            shard.iter().map(|c| runner.run_cell(c)).collect::<Vec<_>>()
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect()
}

/// Estimated work of one cell, for shard balancing only (never affects
/// result bytes). A round touches every agent, and each activation's
/// speculative scan is Θ(n) candidates with roughly size-n-proportional
/// repair work, so n² · rounds is the right *shape*: it makes one
/// n = 4096 cell weigh ~256 n = 1024 cells instead of 1.
pub(crate) fn cell_work(cell: &Cell) -> u64 {
    let n = cell.n as u64;
    n.saturating_mul(n)
        .saturating_mul(cell.max_rounds as u64)
        .max(1)
}

/// Cuts a cell list into contiguous shards of approximately equal
/// *estimated work* ([`cell_work`]), not equal length. Uniform-length
/// sharding assumed per-cell cost was n-independent — on a mixed-n grid
/// one n = 4096 cell then landed in a 64-cell shard and starved its
/// worker while the pool idled. Greedy packing against a work target
/// keeps heavy cells in short (often singleton) shards; a length cap
/// ([`shard_size`]) preserves steal granularity on uniform grids.
pub(crate) fn work_shards(cells: &[Cell]) -> Vec<&[Cell]> {
    let max_len = shard_size(cells.len());
    let total: u64 = cells.iter().map(cell_work).sum();
    let workers = rayon::current_num_threads() as u64;
    // ~4 shards per pool thread, same steal granularity as before —
    // measured in work units now instead of cell count.
    let target = (total / (workers * 4)).max(1);
    let mut shards = Vec::new();
    let mut start = 0;
    let mut acc = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        acc = acc.saturating_add(cell_work(cell));
        let len = i + 1 - start;
        if acc >= target || len >= max_len {
            shards.push(&cells[start..=i]);
            start = i + 1;
            acc = 0;
        }
    }
    if start < cells.len() {
        shards.push(&cells[start..]);
    }
    shards
}

/// Length cap for worker shards: enough cells to amortize engine
/// scratch, few enough to spread over the pool.
pub(crate) fn shard_size(total: usize) -> usize {
    // Live pool size (≥ 1 by construction): ~4 shards per pool thread
    // balances steal granularity against engine-scratch reuse.
    let workers = rayon::current_num_threads();
    total.div_ceil(workers * 4).clamp(1, 64)
}

/// Convenience: run capped dynamics from a star on an ad-hoc game (the
/// shared wiring every driver historically re-implemented).
pub fn dynamics_from_star(game: &Game, rule: ResponseRule, max_rounds: usize) -> RunResult {
    Engine::new().run(
        game,
        Profile::star(game.n(), 0),
        &DynamicsConfig {
            rule,
            scheduler: Scheduler::RoundRobin,
            max_rounds,
            ..DynamicsConfig::default()
        },
    )
}

/// Convenience: run capped dynamics from an explicit start profile.
pub fn dynamics_from(
    game: &Game,
    start: Profile,
    rule: ResponseRule,
    max_rounds: usize,
) -> RunResult {
    Engine::new().run(
        game,
        start,
        &DynamicsConfig {
            rule,
            scheduler: Scheduler::RoundRobin,
            max_rounds,
            ..DynamicsConfig::default()
        },
    )
}

/// The strategy sets bought in a profile, as a canonical edge list —
/// shared by drivers that print equilibrium networks.
pub fn bought_edges(profile: &Profile) -> Vec<(NodeId, NodeId)> {
    let mut edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for (u, v) in profile.edges() {
        edges.insert((u.min(v), u.max(v)));
    }
    edges.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            hosts: vec!["unit".into(), "onetwo".into()],
            ns: vec![5],
            alphas: vec![0.5, 2.0],
            rules: vec![RuleSpec::Greedy],
            schedulers: vec![SchedSpec::RoundRobin],
            seeds: vec![0, 1],
            max_rounds: 200,
            base_seed: 7,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn expansion_is_deterministic_and_indexed() {
        let spec = tiny_spec();
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.cell_count());
        for (i, cell) in a.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        // Distinct cells get distinct derived seeds.
        let mut seeds: Vec<u64> = a.iter().map(|c| c.cell_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn manifest_round_trips() {
        let spec = tiny_spec();
        let text = spec.to_manifest();
        let back = ScenarioSpec::from_manifest(&text).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.to_manifest(), text);
    }

    #[test]
    fn manifest_round_trips_name_with_edge_whitespace() {
        let mut spec = tiny_spec();
        spec.name = " padded name ".into();
        let back = ScenarioSpec::from_manifest(&spec.to_manifest()).unwrap();
        assert_eq!(back.name, spec.name, "values must not be trimmed");
    }

    #[test]
    fn validate_rejects_manifest_breaking_specs() {
        let mut spec = tiny_spec();
        spec.name = "two\nlines".into();
        assert!(spec.validate().unwrap_err().contains("line breaks"));
        let mut spec = tiny_spec();
        spec.alphas = vec![f64::INFINITY];
        assert!(spec.validate().unwrap_err().contains("not finite"));
        let mut spec = tiny_spec();
        spec.alphas = vec![f64::NAN];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn manifest_rejects_unknown_host_and_schema() {
        let mut spec = tiny_spec();
        spec.hosts = vec!["bogus".into()];
        assert!(spec.validate().is_err());
        let bad = "schema=99\n";
        assert!(ScenarioSpec::from_manifest(bad)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn jsonl_line_round_trips_cell_index() {
        let spec = tiny_spec();
        // Cells 0..4 are the `unit` block (2 alphas × 2 seeds); cell 4 is
        // the first `onetwo` cell.
        let cell = &spec.expand()[4];
        let mut runner = Runner::new();
        let res = runner.run_cell(cell);
        let line = res.to_jsonl();
        assert_eq!(CellResult::cell_index_of_line(&line), Some(4));
        assert!(line.contains("\"host\":\"onetwo\""));
        assert!(!line.contains("wall"), "wall time must stay out of JSONL");
    }

    #[test]
    fn run_cells_is_deterministic_and_ordered() {
        let spec = tiny_spec();
        let a = run_cells(&spec).unwrap();
        let b = run_cells(&spec).unwrap();
        assert_eq!(a.len(), spec.cell_count());
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.cell, i);
        }
        let lines_a: Vec<String> = a.iter().map(CellResult::to_jsonl).collect();
        let lines_b: Vec<String> = b.iter().map(CellResult::to_jsonl).collect();
        assert_eq!(lines_a, lines_b, "JSONL must be byte-stable across runs");
    }

    #[test]
    fn converged_unit_cells_certify() {
        let spec = ScenarioSpec {
            hosts: vec!["unit".into()],
            ns: vec![6],
            alphas: vec![2.0],
            seeds: vec![0],
            ..ScenarioSpec::default()
        };
        let results = run_cells(&spec).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].outcome, "converged");
        assert!(results[0].certified);
        assert!(results[0].social_cost.is_some());
    }

    #[test]
    fn certify_modes_parse_and_manifest_round_trips() {
        for mode in CertifyMode::ALL {
            assert_eq!(CertifyMode::parse(mode.key()).unwrap(), mode);
        }
        assert!(CertifyMode::parse("bogus").is_err());
        let mut spec = tiny_spec();
        spec.certify = CertifyMode::Sampled;
        let back = ScenarioSpec::from_manifest(&spec.to_manifest()).unwrap();
        assert_eq!(back, spec);
        // Pre-certify manifests (no certify line) default to full — the
        // mode those grids actually ran with.
        let legacy: String = tiny_spec()
            .to_manifest()
            .lines()
            .filter(|l| !l.starts_with("certify="))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = ScenarioSpec::from_manifest(&legacy).unwrap();
        assert_eq!(parsed.certify, CertifyMode::Full);
    }

    #[test]
    fn sampled_and_off_certification_behave() {
        let converged_spec = |certify| ScenarioSpec {
            hosts: vec!["unit".into()],
            ns: vec![9],
            alphas: vec![2.0],
            seeds: vec![0],
            certify,
            ..ScenarioSpec::default()
        };
        let full = &run_cells(&converged_spec(CertifyMode::Full)).unwrap()[0];
        let sampled = &run_cells(&converged_spec(CertifyMode::Sampled)).unwrap()[0];
        let off = &run_cells(&converged_spec(CertifyMode::Off)).unwrap()[0];
        assert_eq!(full.outcome, "converged");
        assert!(full.certified, "full certificate on a converged GE");
        assert!(sampled.certified, "a sample of a GE is stable");
        assert!(!off.certified, "off never certifies");
        // Certification never perturbs the dynamics: all other fields equal.
        assert_eq!(full.rounds, sampled.rounds);
        assert_eq!(full.moves, off.moves);
        assert_eq!(full.social_cost, sampled.social_cost);
        assert_eq!(full.social_cost, off.social_cost);
    }

    #[test]
    fn sampled_agent_set_is_deterministic_and_sized() {
        let a = sampled_agents(100, 42);
        let b = sampled_agents(100, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10, "⌈√100⌉ agents");
        assert!(a.iter().all(|&u| (u as usize) < 100));
        assert_ne!(sampled_agents(100, 43), a, "sample tracks the cell seed");
        assert_eq!(sampled_agents(2, 7).len(), 2, "small n keeps the floor");
        assert_eq!(sampled_agents(10, 1).len(), 4, "⌈√10⌉ = 4, not ⌊√10⌋");
    }

    #[test]
    fn validate_rejects_overflowing_cell_counts() {
        // Six 2048-long axes: the cross product is 2^66, which must be
        // refused by checked arithmetic before anything tries to expand.
        let spec = ScenarioSpec {
            name: "bomb".into(),
            hosts: vec!["unit".into(); 2048],
            ns: vec![5; 2048],
            alphas: vec![1.0; 2048],
            rules: vec![RuleSpec::Greedy; 2048],
            schedulers: vec![SchedSpec::RoundRobin; 2048],
            seeds: vec![0; 2048],
            max_rounds: 10,
            base_seed: 0,
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.checked_cell_count(), None);
        assert!(spec.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn cell_digest_is_stable_and_collision_free_across_grid() {
        let spec = tiny_spec();
        let a = spec.expand();
        let b = spec.expand();
        let mut digests: Vec<u64> = a.iter().map(cell_digest).collect();
        assert_eq!(
            digests,
            b.iter().map(cell_digest).collect::<Vec<_>>(),
            "digest must be a pure function of the cell"
        );
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), a.len(), "distinct cells, distinct digests");
        // Every result-determining field moves the digest.
        let base = a[0].clone();
        let variants = [
            Cell {
                host: "r2".into(),
                ..base.clone()
            },
            Cell {
                n: base.n + 1,
                ..base.clone()
            },
            Cell {
                alpha: base.alpha + 0.5,
                ..base.clone()
            },
            Cell {
                rule: RuleSpec::Add,
                ..base.clone()
            },
            Cell {
                scheduler: SchedSpec::MaxGain,
                ..base.clone()
            },
            Cell {
                seed: base.seed ^ 1,
                ..base.clone()
            },
            Cell {
                cell_seed: base.cell_seed ^ 1,
                ..base.clone()
            },
            Cell {
                max_rounds: base.max_rounds + 1,
                ..base.clone()
            },
            Cell {
                certify: CertifyMode::Off,
                ..base.clone()
            },
            Cell {
                regret_meter: true,
                ..base.clone()
            },
            Cell {
                checkpoint_every: 3,
                ..base.clone()
            },
            Cell {
                horizon_pricing: true,
                ..base.clone()
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(cell_digest(v), cell_digest(&base), "variant {i}");
        }
        // The positional index is *not* part of the address.
        let moved = Cell {
            index: base.index + 7,
            ..base.clone()
        };
        assert_eq!(cell_digest(&moved), cell_digest(&base));
    }

    #[test]
    fn shared_runner_matches_fresh_runners() {
        // A shared runner keeps every agent's BR bound tables alive
        // *across* cells, so its bytes match a fresh runner per cell only
        // if the per-cell context reset invalidates them.
        let cells = ScenarioSpec::br_grid().expand();
        let mut shared = Runner::new();
        for cell in [&cells[0], &cells[7], &cells[20]] {
            assert_eq!(
                shared.run_cell(cell).to_jsonl(),
                Runner::new().run_cell(cell).to_jsonl(),
                "cell {} diverged on the shared runner",
                cell.index
            );
        }
    }

    #[test]
    fn br_grid_preset_is_valid_and_round_trips() {
        let spec = ScenarioSpec::br_grid();
        spec.validate().expect("preset must validate");
        // 3 hosts × {12, 14} × 3 α × br × rr × 2 seeds.
        assert_eq!(spec.expand().len(), 36);
        let back = ScenarioSpec::from_manifest(&spec.to_manifest()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn swap_heavy_preset_is_valid_and_deterministic() {
        let spec = ScenarioSpec::swap_heavy();
        spec.validate().expect("preset must validate");
        assert_eq!(spec.expand().len(), 36);
        // The preset must round-trip through the manifest like any spec.
        let back = ScenarioSpec::from_manifest(&spec.to_manifest()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn large_n_preset_is_valid_and_round_trips() {
        let spec = ScenarioSpec::large_n();
        spec.validate().expect("preset must validate");
        // Two cells (n = 1024 and n = 4096); expansion is cheap even if
        // running them is not, so the shape is asserted here and the
        // cells themselves run only in release harnesses.
        let cells = spec.expand();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.horizon_pricing));
        assert!(cells.iter().all(|c| c.certify == CertifyMode::Sampled));
        let back = ScenarioSpec::from_manifest(&spec.to_manifest()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn horizon_manifest_gating_and_legacy_default() {
        // Horizon-off specs keep the historical manifest bytes.
        let text = tiny_spec().to_manifest();
        assert!(!text.contains("horizon_pricing"));
        // Horizon-on emits the key and round-trips.
        let mut on = tiny_spec();
        on.horizon_pricing = true;
        let text_on = on.to_manifest();
        assert!(text_on.ends_with("horizon_pricing=true\n"));
        let back = ScenarioSpec::from_manifest(&text_on).unwrap();
        assert_eq!(back, on);
        // Manifests without the key default to full-sum pricing.
        let parsed = ScenarioSpec::from_manifest(&tiny_spec().to_manifest()).unwrap();
        assert!(!parsed.horizon_pricing);
    }

    #[test]
    fn horizon_cells_are_deterministic_and_converge_like_full_sum() {
        // Bounded-horizon pricing is its own deterministic policy: equal
        // runs produce equal bytes, and on a clearly-separated small
        // instance (no sub-ulp ties) it lands on the same result as
        // full-sum pricing.
        let mut spec = ScenarioSpec {
            hosts: vec!["grid".into()],
            ns: vec![12],
            alphas: vec![4.0],
            seeds: vec![0, 1],
            max_rounds: 200,
            ..ScenarioSpec::default()
        };
        let full = run_cells(&spec).unwrap();
        spec.horizon_pricing = true;
        let rd_a = run_cells(&spec).unwrap();
        let rd_b = run_cells(&spec).unwrap();
        let lines_a: Vec<String> = rd_a.iter().map(CellResult::to_jsonl).collect();
        let lines_b: Vec<String> = rd_b.iter().map(CellResult::to_jsonl).collect();
        assert_eq!(lines_a, lines_b, "horizon cells must be byte-stable");
        for (f, r) in full.iter().zip(&rd_a) {
            assert_eq!(f.outcome, r.outcome);
            assert_eq!(f.social_cost, r.social_cost);
        }
    }

    #[test]
    fn pricing_policy_does_not_leak_across_cells_in_one_runner() {
        // A horizon cell followed by a full-sum cell on the same Runner
        // must produce the full-sum cell's canonical bytes: the sticky
        // context policy is re-set per cell.
        let full_cell = &tiny_spec().expand()[0];
        let canonical = Runner::new().run_cell(full_cell).to_jsonl();
        let mut horizon_spec = tiny_spec();
        horizon_spec.horizon_pricing = true;
        let horizon_cell = &horizon_spec.expand()[1];
        let mut runner = Runner::new();
        runner.run_cell(horizon_cell);
        assert_eq!(runner.run_cell(full_cell).to_jsonl(), canonical);
    }

    #[test]
    fn work_shards_cover_in_order_and_isolate_heavy_cells() {
        let mut spec = tiny_spec();
        spec.ns = vec![5, 64];
        let cells = spec.expand();
        let shards = work_shards(&cells);
        // Partition: concatenating shards reproduces the cell list.
        let flat: Vec<&Cell> = shards.iter().flat_map(|s| s.iter()).collect();
        assert_eq!(flat.len(), cells.len());
        for (a, b) in flat.iter().zip(&cells) {
            assert_eq!(a.index, b.index);
        }
        // Length cap is respected.
        let cap = shard_size(cells.len());
        assert!(shards.iter().all(|s| s.len() <= cap));
        // Work balance: no shard exceeds the packing target by more than
        // one cell's worth of work (the greedy bound), so a heavy n = 64
        // cell can never be joined by a second heavy cell once the
        // target is already met. Recomputing the target here matches the
        // implementation at any pool size.
        let total: u64 = cells.iter().map(cell_work).sum();
        let target = (total / (rayon::current_num_threads() as u64 * 4)).max(1);
        let max_cell = cells.iter().map(cell_work).max().unwrap();
        for s in &shards {
            let w: u64 = s.iter().map(cell_work).sum();
            assert!(
                w < target + max_cell,
                "shard work {w} exceeds target {target} + heaviest cell {max_cell}"
            );
        }
        // And the estimate itself is monotone in n and rounds.
        let base = cells[0].clone();
        let big_n = Cell {
            n: base.n * 4,
            ..base.clone()
        };
        let more_rounds = Cell {
            max_rounds: base.max_rounds * 2,
            ..base.clone()
        };
        assert!(cell_work(&big_n) > cell_work(&base));
        assert!(cell_work(&more_rounds) > cell_work(&base));
    }

    #[test]
    fn observability_manifest_and_schema_gating() {
        // Meter-off specs emit the historical schema-1 manifest bytes.
        let text = tiny_spec().to_manifest();
        assert!(text.starts_with("schema=1\n"));
        assert!(!text.contains("regret_meter"));
        assert!(!text.contains("checkpoint_every"));
        // Opted-in observability bumps to schema 2 and round-trips.
        let mut on = tiny_spec();
        on.regret_meter = true;
        on.checkpoint_every = 5;
        let text_on = on.to_manifest();
        assert!(text_on.starts_with("schema=2\n"));
        assert!(text_on.contains("regret_meter=true\n"));
        assert!(text_on.contains("checkpoint_every=5\n"));
        let back = ScenarioSpec::from_manifest(&text_on).unwrap();
        assert_eq!(back, on);
        assert_eq!(back.to_manifest(), text_on);
    }

    #[test]
    fn meter_on_line_extends_the_meter_off_line() {
        let spec_off = ScenarioSpec {
            hosts: vec!["unit".into()],
            ns: vec![6],
            alphas: vec![2.0],
            ..ScenarioSpec::default()
        };
        let mut spec_on = spec_off.clone();
        spec_on.regret_meter = true;
        spec_on.checkpoint_every = 2;
        let off = &run_cells(&spec_off).unwrap()[0];
        let on = &run_cells(&spec_on).unwrap()[0];
        assert!(off.max_regret.is_none() && off.checkpoints.is_none());
        let line_off = off.to_jsonl();
        let line_on = on.to_jsonl();
        assert!(
            line_on.starts_with(&line_off[..line_off.len() - 1]),
            "schema 2 appends fields, never rewrites schema-1 bytes"
        );
        assert!(line_on.contains(",\"max_regret\":["));
        assert!(line_on.contains(",\"checkpoints\":[{\"round\":"));
        assert_eq!(CellResult::cell_index_of_line(&line_on), Some(0));
        // The meter never perturbs the dynamics themselves.
        assert_eq!(off.rounds, on.rounds);
        assert_eq!(off.moves, on.moves);
        assert_eq!(off.social_cost, on.social_cost);
        // A converged cell ends at exactly zero regret, and its final
        // checkpoint is the terminal round with all agents stable.
        assert_eq!(on.outcome, "converged");
        let series = on.max_regret.as_ref().unwrap();
        assert_eq!(series.len(), on.rounds);
        assert_eq!(series.last(), Some(&0.0));
        let last = on.checkpoints.as_ref().unwrap().last().unwrap();
        assert_eq!(last.round + 1, on.rounds);
        assert!(last.regrets.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn scheduler_seed_differs_from_host_seed() {
        // The random scheduler must not consume the host's seed stream.
        let s = SchedSpec::Random.scheduler(42);
        match s {
            Scheduler::RandomOrder { seed } => assert_ne!(seed, 42),
            other => panic!("expected RandomOrder, got {other:?}"),
        }
    }
}
