//! Integration tests of the scenario subsystem: golden determinism of the
//! JSONL grid stream (two runs, and resume-from-partial, byte-identical)
//! and registry/direct host equivalence for every factory key. The `gncg`
//! CLI's contract tests live in `crates/service/tests/cli.rs` (the binary
//! moved into the service crate).

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use gncg_suite::grid::run_grid;
use gncg_suite::scenario::{CellResult, CertifyMode, RuleSpec, ScenarioSpec, SchedSpec};

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gncg-scenario-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A ≥64-cell spec exercising several factories, rules, and schedulers
/// (kept at n ≤ 8 so the whole grid runs in seconds).
fn golden_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "golden".into(),
        hosts: vec!["unit".into(), "onetwo".into(), "tree".into(), "r2".into()],
        ns: vec![6],
        alphas: vec![0.5, 2.0],
        rules: vec![RuleSpec::Greedy, RuleSpec::Add],
        schedulers: vec![SchedSpec::RoundRobin, SchedSpec::Random],
        seeds: vec![0, 1],
        max_rounds: 300,
        base_seed: 99,
        certify: CertifyMode::Full,
        ..ScenarioSpec::default()
    }
}

/// The bounded-horizon pricing policy against its committed golden.
/// These cells run at n = 20 > `PRICE_HORIZON`, so the truncated
/// speculative relaxations genuinely shape which moves are chosen (the
/// stream differs from full-sum pricing on several cells): the constant
/// and the RegionDelta scan are part of the byte contract, and any
/// change to either shows up here as a diff.
#[test]
fn horizon_policy_grid_matches_committed_golden() {
    let dir = tmp_dir();
    let out = dir.join("horizon-policy.jsonl");
    let spec = ScenarioSpec {
        name: "horizon-policy".into(),
        hosts: vec!["r2".into(), "grid".into(), "clusters".into()],
        ns: vec![20],
        alphas: vec![2.0, 4.0],
        rules: vec![RuleSpec::Greedy, RuleSpec::Add],
        schedulers: vec![SchedSpec::RoundRobin],
        seeds: vec![0, 1],
        max_rounds: 500,
        base_seed: 0,
        certify: CertifyMode::Full,
        horizon_pricing: true,
        ..ScenarioSpec::default()
    };
    run_grid(&spec, &out, false).unwrap();
    let got = fs::read_to_string(&out).unwrap();
    let golden = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/horizon_policy_n20.jsonl"),
    )
    .unwrap();
    assert_eq!(
        got, golden,
        "bounded-horizon grid drifted from the committed golden"
    );
}

/// The regret meter against its committed golden: every rule under every
/// scheduler, so the per-round max-regret series of all three rules and
/// the memoized pricing the meter shares with activations, MaxGain and
/// certification are part of the byte contract.
#[test]
fn regret_meter_grid_matches_committed_golden() {
    let dir = tmp_dir();
    let out = dir.join("meter.jsonl");
    let spec = ScenarioSpec {
        hosts: vec!["r2".into(), "metric".into(), "clusters".into()],
        ns: vec![12],
        alphas: vec![1.0, 4.0],
        rules: vec![RuleSpec::Greedy, RuleSpec::Add, RuleSpec::Br],
        schedulers: vec![SchedSpec::RoundRobin, SchedSpec::MaxGain, SchedSpec::Random],
        seeds: vec![0],
        max_rounds: 100,
        regret_meter: true,
        ..ScenarioSpec::default()
    };
    run_grid(&spec, &out, false).unwrap();
    let got = fs::read_to_string(&out).unwrap();
    let golden = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/meter_n12.jsonl"),
    )
    .unwrap();
    assert_eq!(
        got, golden,
        "metered grid drifted from the committed golden"
    );
}

/// Checkpoint frames against their committed golden: every rule under
/// round-robin and MaxGain, one frame per round, on exact ties (`unit`),
/// a metric and ∞ edges (`oneinf`). No other golden carries checkpoint
/// `costs`: each is read off a warm vector under the greedy rules and
/// priced afresh under the exact rule, whose searches warm no vector.
#[test]
fn checkpoint_grid_matches_committed_golden() {
    let dir = tmp_dir();
    let out = dir.join("checkpoints.jsonl");
    let spec = ScenarioSpec {
        name: "checkpoints".into(),
        hosts: vec!["unit".into(), "metric".into(), "oneinf".into()],
        ns: vec![6],
        alphas: vec![0.8, 2.0],
        rules: vec![RuleSpec::Greedy, RuleSpec::Add, RuleSpec::Br],
        schedulers: vec![SchedSpec::RoundRobin, SchedSpec::MaxGain],
        seeds: vec![0],
        max_rounds: 100,
        regret_meter: true,
        checkpoint_every: 1,
        ..ScenarioSpec::default()
    };
    run_grid(&spec, &out, false).unwrap();
    let got = fs::read_to_string(&out).unwrap();
    let golden = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/checkpoints_n6.jsonl"),
    )
    .unwrap();
    assert_eq!(
        got, golden,
        "checkpoint grid drifted from the committed golden"
    );
}

/// The greedy rule on the hosts the other goldens leave out, against its
/// committed golden: exact ties (unit, onetwo), a tree metric, non-metric
/// weights (general) and ∞ edges (oneinf), under round-robin and the
/// pool-parallel MaxGain scan. These are where the speculative scan's
/// swap bound meets `strictly_less`'s tie and infinity cases.
#[test]
fn greedy_hosts_grid_matches_committed_golden() {
    let dir = tmp_dir();
    let out = dir.join("greedy-hosts.jsonl");
    let spec = ScenarioSpec {
        name: "greedy-hosts".into(),
        hosts: ["unit", "onetwo", "tree", "metric", "general", "oneinf"]
            .map(String::from)
            .to_vec(),
        ns: vec![16],
        alphas: vec![0.5, 1.5, 4.0],
        rules: vec![RuleSpec::Greedy],
        schedulers: vec![SchedSpec::RoundRobin, SchedSpec::MaxGain],
        seeds: vec![0, 1],
        max_rounds: 500,
        ..ScenarioSpec::default()
    };
    run_grid(&spec, &out, false).unwrap();
    let got = fs::read_to_string(&out).unwrap();
    let golden = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/greedy_hosts_n16.jsonl"),
    )
    .unwrap();
    assert_eq!(
        got, golden,
        "greedy-hosts grid drifted from the committed golden"
    );
}

#[test]
fn golden_jsonl_is_byte_identical_across_runs() {
    let dir = tmp_dir();
    let (a, b) = (dir.join("golden-a.jsonl"), dir.join("golden-b.jsonl"));
    let spec = golden_spec();
    assert!(spec.cell_count() >= 64, "golden spec must cover ≥64 cells");
    let sa = run_grid(&spec, &a, false).unwrap();
    let sb = run_grid(&spec, &b, false).unwrap();
    assert_eq!(sa.ran, spec.cell_count());
    assert_eq!(sb.ran, spec.cell_count());
    let ta = fs::read_to_string(&a).unwrap();
    let tb = fs::read_to_string(&b).unwrap();
    assert_eq!(ta, tb, "same spec + seed must stream byte-identical JSONL");
    assert_eq!(ta.lines().count(), spec.cell_count());
    // Every line is well-formed and in cell order.
    for (i, line) in ta.lines().enumerate() {
        assert_eq!(CellResult::cell_index_of_line(line), Some(i));
        assert!(line.ends_with('}'));
    }
}

#[test]
fn golden_resume_from_partial_is_byte_identical() {
    let dir = tmp_dir();
    let full = dir.join("golden-full.jsonl");
    let part = dir.join("golden-part.jsonl");
    let spec = golden_spec();
    run_grid(&spec, &full, false).unwrap();
    run_grid(&spec, &part, false).unwrap();
    let reference = fs::read_to_string(&full).unwrap();

    // Kill the run at several different points, including mid-line.
    for (keep_lines, torn_bytes) in [(0usize, 0usize), (1, 13), (17, 0), (40, 5), (63, 1)] {
        let keep: usize = reference
            .lines()
            .take(keep_lines)
            .map(|l| l.len() + 1)
            .sum::<usize>()
            + torn_bytes;
        fs::OpenOptions::new()
            .write(true)
            .open(&part)
            .and_then(|f| f.set_len(keep as u64))
            .unwrap();
        let summary = run_grid(&spec, &part, true).unwrap();
        assert_eq!(summary.skipped, keep_lines, "clean prefix at {keep_lines}");
        assert_eq!(
            fs::read_to_string(&part).unwrap(),
            reference,
            "resume after truncation to {keep_lines} lines (+{torn_bytes} torn bytes)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Registry-built hosts equal directly-constructed ones for every
    /// factory key: the registry is a pure renaming, not a re-derivation.
    #[test]
    fn registry_equals_direct_construction(n in 4usize..12, seed in 0u64..1000) {
        use gncg_metrics::euclidean::{Norm, PointSet};
        let direct: Vec<(&str, gncg_graph::SymMatrix)> = vec![
            ("unit", gncg_metrics::unit::unit_host(n)),
            ("onetwo", gncg_metrics::onetwo::random(n, 0.4, seed)),
            ("tree", gncg_metrics::treemetric::random_tree(n, 1.0, 4.0, seed).metric_closure()),
            ("r2", PointSet::random(n, 2, 10.0, seed).host_matrix(Norm::L2)),
            ("metric", gncg_metrics::arbitrary::random_metric(n, 1.0, 5.0, seed)),
            ("general", gncg_metrics::arbitrary::random(n, 0.5, 8.0, seed)),
            ("oneinf", gncg_metrics::oneinf::random_connected(n, 0.3, seed)),
        ];
        for (key, expected) in direct {
            let built = gncg_metrics::factory::build_host(key, n, seed).unwrap();
            prop_assert_eq!(&built, &expected, "factory {} at n={}, seed={}", key, n, seed);
        }
        // The truncating structured factories, replicated directly: the
        // first n points of the covering grid / the ceil(n/4) blobs.
        let truncated = |ps: PointSet| -> PointSet {
            PointSet::new((0..n).map(|i| ps.point(i).to_vec()).collect())
        };
        let side = (n as f64).sqrt().ceil() as usize;
        let grid_direct =
            truncated(gncg_metrics::structured::grid(side, side, 1.0)).host_matrix(Norm::L2);
        prop_assert_eq!(
            gncg_metrics::factory::build_host("grid", n, seed).unwrap(),
            grid_direct
        );
        let clusters_direct =
            truncated(gncg_metrics::structured::clustered(n.div_ceil(4), 4, 20.0, 1.0, seed))
                .host_matrix(Norm::L2);
        prop_assert_eq!(
            gncg_metrics::factory::build_host("clusters", n, seed).unwrap(),
            clusters_direct
        );
    }

    /// Every registered key builds, at the sizes scenario grids use.
    #[test]
    fn all_registry_keys_build(n in 2usize..10, seed in 0u64..100) {
        for key in gncg_metrics::factory::keys() {
            let host = gncg_metrics::factory::build_host(key, n, seed).unwrap();
            prop_assert_eq!(host.n(), n);
            prop_assert!(host.is_nonnegative());
        }
    }
}
