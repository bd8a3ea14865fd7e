//! Workload inputs: everything a run feeds the program is derived here
//! from the workload seed, so the same seed always yields the same specs
//! and the same per-client submit schedule.

use gncg_suite::scenario::{RuleSpec, ScenarioSpec};

/// The four named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Greedy dynamics at n = 20 where about half of all moves delete or
    /// swap an edge.
    SwapHeavy,
    /// Exact best-response dynamics at n = 12/14.
    BrGrid,
    /// One n = 1024 add-rule cell on the grid host plus one seeded r2 cell.
    LargeN,
    /// A closed loop of clients against an in-process daemon.
    DaemonMix,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SwapHeavy,
        Workload::BrGrid,
        Workload::LargeN,
        Workload::DaemonMix,
    ];

    /// The name `--workload` takes.
    pub fn key(self) -> &'static str {
        match self {
            Workload::SwapHeavy => "swap-heavy",
            Workload::BrGrid => "br-grid",
            Workload::LargeN => "large-n",
            Workload::DaemonMix => "daemon-mix",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.key() == s)
            .ok_or_else(|| {
                let keys: Vec<&str> = Workload::ALL.iter().map(|w| w.key()).collect();
                format!("unknown workload '{s}' (use {})", keys.join("|"))
            })
    }
}

/// splitmix64: the seed mixer (the same function the scenario layer
/// derives cell seeds with).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The preset grid of an offline workload, at its preset base seed 0.
pub fn preset(w: Workload) -> ScenarioSpec {
    match w {
        Workload::SwapHeavy => ScenarioSpec::swap_heavy(),
        Workload::BrGrid => ScenarioSpec::br_grid(),
        Workload::LargeN => ScenarioSpec {
            ns: vec![1024],
            ..ScenarioSpec::large_n()
        },
        Workload::DaemonMix => panic!("daemon-mix has no offline preset"),
    }
}

/// The golden file the preset's bytes must equal, where one is committed.
pub fn golden(w: Workload) -> Option<&'static str> {
    match w {
        Workload::SwapHeavy => Some(include_str!("../../tests/golden/swap_heavy_n20.jsonl")),
        Workload::BrGrid => Some(include_str!("../../tests/golden/br_grid_n14.jsonl")),
        Workload::LargeN | Workload::DaemonMix => None,
    }
}

/// Passes of an untraced run: enough cells that a seed's mean cost is
/// close to the workload's (swap-heavy and br-grid: 36 cells a pass), few
/// enough that one round of them takes about a fifth of a 25-second run on
/// one thread of the 2-vCPU host the benchmark was tuned on. A fixed count,
/// so that a seed always yields the same inputs and the run's memory does
/// not depend on the host's speed.
pub fn passes(w: Workload) -> u64 {
    match w {
        Workload::SwapHeavy => 24,
        Workload::BrGrid => 24,
        Workload::LargeN => 1,
        Workload::DaemonMix => panic!("daemon-mix has no offline passes"),
    }
}

/// The specs of timed pass `k` (counted from 1) of an offline workload.
///
/// swap-heavy and br-grid repeat their preset axes over a base seed
/// derived from the workload seed and `k`. large-n runs the preset grid
/// cell (whose host does not depend on the seed) and one r2 cell whose
/// instance seed is derived the same way.
pub fn offline_pass(w: Workload, seed: u64, k: u64) -> Vec<ScenarioSpec> {
    let base_seed = splitmix64(seed ^ splitmix64(k ^ 0x6F66_666C_696E_6531));
    match w {
        Workload::SwapHeavy | Workload::BrGrid => vec![ScenarioSpec {
            base_seed,
            ..preset(w)
        }],
        Workload::LargeN => vec![
            preset(w),
            ScenarioSpec {
                hosts: vec!["r2".into()],
                base_seed,
                ..preset(w)
            },
        ],
        Workload::DaemonMix => panic!("daemon-mix has no offline passes"),
    }
}

/// The small warm-up grid large-n sets up with: the same code paths as a
/// timed cell (horizon pricing, add rule) at a size that costs
/// milliseconds.
pub fn large_n_warmup() -> ScenarioSpec {
    ScenarioSpec {
        ns: vec![256],
        max_rounds: 1,
        ..ScenarioSpec::large_n()
    }
}

/// Hosts a daemon-mix submit draws from.
const FRESH_HOSTS: [&str; 4] = ["r2", "metric", "clusters", "onetwo"];
/// Consecutive pairs of this ladder are a submit's two α values.
const FRESH_ALPHAS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

/// A small metered grid nobody has submitted yet: one host, one n in
/// 10..=16, greedy, two α values, the regret meter on, and a base seed
/// drawn from `rng` (so its cell digests miss the result cache).
pub fn fresh_spec(rng: &mut Rng) -> ScenarioSpec {
    let host = FRESH_HOSTS[rng.below(FRESH_HOSTS.len())];
    let n = 10 + rng.below(7);
    let a = rng.below(FRESH_ALPHAS.len() - 1);
    ScenarioSpec {
        name: "daemon-mix".into(),
        hosts: vec![host.into()],
        ns: vec![n],
        alphas: vec![FRESH_ALPHAS[a], FRESH_ALPHAS[a + 1]],
        rules: vec![RuleSpec::Greedy],
        seeds: vec![0],
        max_rounds: 200,
        base_seed: rng.next_u64(),
        regret_meter: true,
        ..ScenarioSpec::default()
    }
}

/// Specs set-up submits once so that later `repeat` submits hit the
/// result cache.
pub const REPEAT_POOL: usize = 12;

/// The repeat pool: the same specs on every seed, because set-up
/// simulates them and `setup_s` would otherwise vary with which hosts and
/// sizes a seed draws (0.040–0.085 s over ten seeds); the seed draws
/// which of them each repeat submit resends.
pub fn repeat_pool() -> Vec<ScenarioSpec> {
    let mut rng = Rng::new(0x7265_7065_6174_7331);
    (0..REPEAT_POOL).map(|_| fresh_spec(&mut rng)).collect()
}

/// One submit of a daemon-mix client.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A new spec: simulated, cached, journaled.
    Fresh(ScenarioSpec),
    /// Index into the repeat pool: served entirely from the cache.
    Repeat(usize),
}

/// A client's submit schedule: half fresh, half repeat, in a seeded
/// order. Submits come in pairs of one fresh and one repeat, drawn in a
/// random order, so every stretch of the loop carries the same mix.
/// Client `lane` of a run with workload seed `seed` always draws the same
/// sequence.
#[derive(Clone, Debug)]
pub struct Schedule {
    rng: Rng,
    pending: Option<Op>,
}

impl Schedule {
    /// The schedule of client `lane`.
    pub fn new(seed: u64, lane: u64) -> Schedule {
        Schedule {
            rng: Rng::new(splitmix64(seed ^ splitmix64(lane ^ 0x636C_6965_6E74_7331))),
            pending: None,
        }
    }
}

impl Iterator for Schedule {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if let Some(op) = self.pending.take() {
            return Some(op);
        }
        let fresh = Op::Fresh(fresh_spec(&mut self.rng));
        let repeat = Op::Repeat(self.rng.below(REPEAT_POOL));
        let (first, second) = if self.rng.below(2) == 0 {
            (fresh, repeat)
        } else {
            (repeat, fresh)
        };
        self.pending = Some(second);
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.key()).unwrap(), w);
        }
        assert!(Workload::parse("bogus").is_err());
    }

    #[test]
    fn offline_passes_are_a_function_of_the_seed() {
        for w in [Workload::SwapHeavy, Workload::BrGrid, Workload::LargeN] {
            for k in 1..4 {
                assert_eq!(offline_pass(w, 7, k), offline_pass(w, 7, k));
                let cells = |s: u64| -> Vec<_> {
                    offline_pass(w, s, k)
                        .iter()
                        .flat_map(|p| p.expand())
                        .collect()
                };
                assert_eq!(cells(7), cells(7));
                assert_ne!(cells(7), cells(8), "{w:?} pass {k} ignores the seed");
            }
            assert_ne!(offline_pass(w, 7, 1), offline_pass(w, 7, 2));
            for spec in offline_pass(w, 7, 1) {
                spec.validate().unwrap();
            }
        }
    }

    #[test]
    fn large_n_pass_is_the_grid_cell_plus_a_seeded_r2_cell() {
        let pass = offline_pass(Workload::LargeN, 3, 1);
        assert_eq!(pass.len(), 2);
        assert_eq!(pass[0], preset(Workload::LargeN));
        assert_eq!(pass[1].hosts, vec!["r2".to_string()]);
        assert!(pass
            .iter()
            .all(|s| s.cell_count() == 1 && s.ns == vec![1024]));
    }

    #[test]
    fn repeat_schedule_is_deterministic_and_mixed() {
        let a: Vec<Op> = Schedule::new(11, 0).take(200).collect();
        let b: Vec<Op> = Schedule::new(11, 0).take(200).collect();
        assert_eq!(a, b);
        let other: Vec<Op> = Schedule::new(11, 1).take(200).collect();
        assert_ne!(a, other, "lanes draw different schedules");
        for pair in a.chunks(2) {
            let fresh = pair.iter().filter(|op| matches!(op, Op::Fresh(_))).count();
            assert_eq!(fresh, 1, "every pair is one fresh and one repeat");
        }
        let fresh_first = a.chunks(2).filter(|p| matches!(p[0], Op::Fresh(_))).count();
        assert!(
            (20..80).contains(&fresh_first),
            "pair order is drawn, got {fresh_first}/100"
        );
        for op in &a {
            match op {
                Op::Fresh(spec) => {
                    spec.validate().unwrap();
                    assert!(spec.regret_meter);
                    assert_eq!(spec.cell_count(), 2);
                }
                Op::Repeat(i) => assert!(*i < REPEAT_POOL),
            }
        }
        let pool = repeat_pool();
        assert_eq!(pool, repeat_pool());
        assert_eq!(pool.len(), REPEAT_POOL);
        assert!(pool.windows(2).all(|w| w[0] != w[1]));
    }
}
