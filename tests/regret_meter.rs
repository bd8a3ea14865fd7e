//! Property tests for the streaming max-regret meter (PR 8): on every
//! factory host and response rule, the per-round max regret the engine
//! streams must equal a brute-force best-improvement oracle evaluated on
//! the round's checkpointed profile — and turning the meter on must not
//! perturb the meter-off JSONL bytes or the cell digest.

use proptest::prelude::*;

use gncg_core::response::{best_add_move, best_greedy_move, exact_best_response_reference};
use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::{DynamicsConfig, ResponseRule, Scheduler};
use gncg_suite::scenario::{cell_digest, CertifyMode, RuleSpec, Runner, ScenarioSpec, SchedSpec};

/// Registry order of the nine factory hosts, so a proptest index hits
/// each of them.
const HOSTS: [&str; 9] = [
    "unit", "onetwo", "tree", "r2", "metric", "general", "grid", "clusters", "oneinf",
];

const ALPHAS: [f64; 3] = [0.5, 2.0, 4.0];

/// The regret the meter must report for `agent` on `profile`: the
/// best-improvement delta under `rule`, computed from scratch with the
/// reference searchers (no warm vectors, no speculation), `INFINITY`
/// when a move first makes an infinite cost finite, `0.0` when nothing
/// improves.
fn oracle_regret(game: &Game, profile: &Profile, agent: NodeId, rule: ResponseRule) -> f64 {
    let current = gncg_core::cost::agent_cost(game, profile, agent).total();
    let best_after = match rule {
        ResponseRule::ExactBestResponse => {
            let br = exact_best_response_reference(game, profile, agent);
            br.improves().then_some(br.cost)
        }
        ResponseRule::BestGreedyMove => best_greedy_move(game, profile, agent).map(|(_, c)| c),
        ResponseRule::AddOnly => best_add_move(game, profile, agent).map(|(_, c)| c),
    };
    match best_after {
        Some(after) if current.is_infinite() && after.is_finite() => f64::INFINITY,
        Some(after) => current - after,
        None => 0.0,
    }
}

/// Exact agreement, with infinities compared as a class of their own.
fn same_regret(measured: f64, oracle: f64) -> bool {
    (measured.is_infinite() && oracle.is_infinite()) || measured == oracle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every round's streamed per-agent regrets (and their max, the
    /// `max_regret` series entry) equal the brute-force oracle on the
    /// profile the same round's checkpoint recorded; converged runs end
    /// with a final regret of exactly `0.0`.
    #[test]
    fn meter_matches_brute_force_oracle(
        host_idx in 0usize..9,
        rule_idx in 0usize..3,
        n in 4usize..8,
        alpha_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let rule = [
            ResponseRule::ExactBestResponse,
            ResponseRule::BestGreedyMove,
            ResponseRule::AddOnly,
        ][rule_idx];
        // Exact best response enumerates subsets — keep it tiny.
        let n = if rule == ResponseRule::ExactBestResponse { n.min(5) } else { n };
        let hostm = gncg_metrics::factory::build_host(HOSTS[host_idx], n, seed).unwrap();
        let game = Game::new(hostm, ALPHAS[alpha_idx]);
        let result = gncg_dynamics::run(
            &game,
            Profile::star(n, 0),
            &DynamicsConfig {
                rule,
                scheduler: Scheduler::RoundRobin,
                max_rounds: 80,
                regret_meter: true,
                checkpoint_every: 1,
            },
        );
        let series = result.regret_series.as_ref().expect("meter was on");
        let frames = result.checkpoints.as_ref().expect("checkpoints were on");
        prop_assert_eq!(series.len(), frames.len());
        for (r, frame) in frames.iter().enumerate() {
            prop_assert_eq!(frame.round, r);
            let mut profile = Profile::empty(n);
            for (u, s) in frame.strategies.iter().enumerate() {
                profile.set_strategy(u as NodeId, s.iter().copied().collect());
            }
            let mut oracle_max = 0.0f64;
            for u in 0..n as NodeId {
                let oracle = oracle_regret(&game, &profile, u, rule);
                let measured = frame.regrets[u as usize];
                prop_assert!(
                    same_regret(measured, oracle),
                    "host {} rule {:?} round {r} agent {u}: meter {measured} vs oracle {oracle}",
                    HOSTS[host_idx], rule
                );
                oracle_max = oracle_max.max(oracle);
            }
            prop_assert!(
                same_regret(series[r], oracle_max),
                "round {r}: series {} vs oracle max {oracle_max}", series[r]
            );
        }
        if result.converged() {
            prop_assert_eq!(series.last().copied(), Some(0.0));
        }
    }

    /// Observability is additive at the byte level: the meter-on JSONL
    /// line extends the meter-off line (which never mentions the new
    /// members), the run itself is untouched, and only the opted-in
    /// cell's digest moves.
    #[test]
    fn meter_on_extends_but_never_perturbs_meter_off_bytes(
        host_idx in 0usize..9,
        n in 4usize..8,
        alpha_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let spec = ScenarioSpec {
            name: "meter-prop".into(),
            hosts: vec![HOSTS[host_idx].to_string()],
            ns: vec![n],
            alphas: vec![ALPHAS[alpha_idx]],
            rules: vec![RuleSpec::Greedy],
            schedulers: vec![SchedSpec::RoundRobin],
            seeds: vec![seed],
            max_rounds: 80,
            base_seed: 7,
            certify: CertifyMode::Full,
            ..ScenarioSpec::default()
        };
        let spec_on = ScenarioSpec {
            regret_meter: true,
            checkpoint_every: 5,
            ..spec.clone()
        };
        let off = &spec.expand()[0];
        let on = &spec_on.expand()[0];
        let mut runner = Runner::new();
        let line_off = runner.run_cell(off).to_jsonl();
        let r_on = runner.run_cell(on);
        let line_on = r_on.to_jsonl();
        prop_assert!(!line_off.contains("max_regret") && !line_off.contains("checkpoints"));
        prop_assert!(line_on.starts_with(&line_off[..line_off.len() - 1]));
        prop_assert!(cell_digest(off) != cell_digest(on));
        // And the off digest only depends on the historical axes: an
        // explicitly-defaulted observability pair hashes identically.
        prop_assert_eq!(cell_digest(off), cell_digest(&spec.expand()[0]));
    }
}
