//! The spec codecs' contract. Bytes: the manifest text
//! (`ScenarioSpec::to_manifest`) and the wire/journal spec object
//! (`spec_to_json`) of nine probe specs, byte-compared against the
//! committed `tests/golden/spec_codecs.txt` — resume byte-compares the
//! manifest, and the daemon's journal and retrying clients carry the wire
//! object. Round trips: random valid specs come back equal, with equal
//! cell digests, through the manifest, a submit line and a journal replay.

use gncg_service::journal::Journal;
use gncg_service::json::parse;
use gncg_service::protocol::{spec_from_value, spec_to_json, Request};
use gncg_suite::scenario::{cell_digest, CertifyMode, RuleSpec, ScenarioSpec, SchedSpec};
use proptest::prelude::*;

/// A spec that stresses the text codecs: a name with a quote, a backslash
/// and a tab, seeds and base seed up to `u64::MAX`, and αs whose shortest
/// round-trip forms are a signed zero and exponents.
fn odd_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "odd \"quoted\" back\\slash\ttab".into(),
        hosts: vec!["unit".into(), "onetwo".into()],
        ns: vec![2, 7],
        alphas: vec![-0.0, 1e-7, 1e300],
        rules: vec![RuleSpec::Br, RuleSpec::Add],
        schedulers: vec![SchedSpec::Random, SchedSpec::MaxGain],
        seeds: vec![0, 7, u64::MAX],
        max_rounds: 250,
        base_seed: u64::MAX,
        certify: CertifyMode::Sampled,
        ..ScenarioSpec::default()
    }
}

fn probes() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        ("default", ScenarioSpec::default()),
        ("swap-heavy", ScenarioSpec::swap_heavy()),
        ("large-n", ScenarioSpec::large_n()),
        ("br-grid", ScenarioSpec::br_grid()),
        ("odd", odd_spec()),
        (
            "odd+regret_meter",
            ScenarioSpec {
                regret_meter: true,
                ..odd_spec()
            },
        ),
        (
            "odd+checkpoint_every",
            ScenarioSpec {
                checkpoint_every: 3,
                ..odd_spec()
            },
        ),
        (
            "odd+horizon_pricing",
            ScenarioSpec {
                horizon_pricing: true,
                ..odd_spec()
            },
        ),
        (
            "odd+all-opt-ins",
            ScenarioSpec {
                regret_meter: true,
                checkpoint_every: 3,
                horizon_pricing: true,
                ..odd_spec()
            },
        ),
    ]
}

fn render() -> String {
    let mut text = String::new();
    for (label, spec) in probes() {
        text.push_str(&format!(
            "== {label}\n-- manifest\n{}-- wire\n{}\n",
            spec.to_manifest(),
            spec_to_json(&spec)
        ));
    }
    text
}

#[test]
fn spec_codecs_match_the_committed_fixture() {
    let want = include_str!("../../../tests/golden/spec_codecs.txt");
    let got = render();
    assert!(
        got == want,
        "spec codec bytes drifted from tests/golden/spec_codecs.txt:\n{got}"
    );
}

#[test]
fn fixture_specs_parse_back_from_both_codecs() {
    for (label, spec) in probes() {
        let from_manifest = ScenarioSpec::from_manifest(&spec.to_manifest());
        assert_eq!(from_manifest.as_ref(), Ok(&spec), "{label}: manifest");
        let from_wire = parse(&spec_to_json(&spec)).and_then(|v| spec_from_value(&v));
        assert_eq!(from_wire.as_ref(), Ok(&spec), "{label}: wire");
    }
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64().is_multiple_of(2)
}

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[(rng.next_u64() % xs.len() as u64) as usize]
}

/// One to three draws.
fn some<T>(rng: &mut TestRng, draw: impl Fn(&mut TestRng) -> T) -> Vec<T> {
    let len = 1 + rng.next_u64() % 3;
    (0..len).map(|_| draw(rng)).collect()
}

/// A `u64` of random magnitude (shifting by a random amount spreads the
/// draws over every bit length instead of clustering near 2⁶⁴).
fn magnitude(rng: &mut TestRng) -> u64 {
    let shift = rng.next_u64() % 64;
    rng.next_u64() >> shift
}

fn alpha(rng: &mut TestRng) -> f64 {
    if coin(rng) && coin(rng) {
        return pick(rng, &[-0.0, 0.0, 1e-7, 1e300, 2.0]);
    }
    loop {
        let a = f64::from_bits(rng.next_u64());
        if a.is_finite() {
            return a;
        }
    }
}

/// Random valid specs: all 13 fields varied, including names with quotes,
/// backslashes, tabs, commas and `=`, αs from raw bit patterns (signed
/// zeros, subnormals, huge exponents), integers across every magnitude,
/// and each opt-in field on or off.
struct AnySpec;

impl Strategy for AnySpec {
    type Value = ScenarioSpec;

    fn generate(&self, rng: &mut TestRng) -> ScenarioSpec {
        const NAME_CHARS: [char; 12] =
            ['g', 'Z', '7', ' ', '"', '\\', '\t', ',', '=', '#', 'é', '}'];
        let name_len = rng.next_u64() % 12;
        let hosts = gncg_metrics::factory::keys();
        ScenarioSpec {
            name: (0..name_len).map(|_| pick(rng, &NAME_CHARS)).collect(),
            hosts: some(rng, |r| pick(r, &hosts).to_string()),
            ns: some(rng, |r| magnitude(r).max(2) as usize),
            alphas: some(rng, alpha),
            rules: some(rng, |r| pick(r, &RuleSpec::ALL)),
            schedulers: some(rng, |r| pick(r, &SchedSpec::ALL)),
            seeds: some(rng, magnitude),
            max_rounds: magnitude(rng).max(1) as usize,
            base_seed: magnitude(rng),
            certify: pick(rng, &CertifyMode::ALL),
            regret_meter: coin(rng),
            checkpoint_every: if coin(rng) {
                0
            } else {
                magnitude(rng).max(1) as usize
            },
            horizon_pricing: coin(rng),
        }
    }
}

/// Asserts `back` is `spec` field for field and cell for cell: spec
/// equality alone would pass `-0.0` for `0.0`, which the digest (over the
/// α bit pattern) does not.
fn assert_same(spec: &ScenarioSpec, back: &ScenarioSpec, via: &str) {
    assert_eq!(back, spec, "{via}");
    let digests = |s: &ScenarioSpec| s.expand().iter().map(cell_digest).collect::<Vec<_>>();
    assert_eq!(digests(back), digests(spec), "{via}: cell digests");
}

proptest! {
    #[test]
    fn random_specs_round_trip_through_every_codec(spec in AnySpec, deadline in 0u64..u64::MAX) {
        spec.validate().expect("AnySpec draws valid specs");

        let manifest = spec.to_manifest();
        let back = ScenarioSpec::from_manifest(&manifest).unwrap();
        assert_same(&spec, &back, "manifest");
        prop_assert_eq!(back.to_manifest(), manifest);

        for deadline_ms in [None, Some(deadline)] {
            let line = Request::Submit { spec: spec.clone(), deadline_ms }.to_line();
            match Request::parse_line(&line).unwrap() {
                Request::Submit { spec: back, deadline_ms: back_deadline } => {
                    assert_same(&spec, &back, "submit line");
                    prop_assert_eq!(back_deadline, deadline_ms);
                }
                other => panic!("wrong request {other:?}"),
            }
        }

        let path = std::env::temp_dir()
            .join(format!("gncg-spec-codecs-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Journal::open(&path).unwrap().0.record_submit(1, Some(deadline), &spec);
        let (_, replayed, _) = Journal::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(replayed.len(), 1);
        prop_assert_eq!(replayed[0].deadline_ms, Some(deadline));
        assert_same(&spec, &replayed[0].spec, "journal replay");
    }
}
