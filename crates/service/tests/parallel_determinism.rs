//! The parallelism determinism contract, end to end through the real
//! binary: grid JSONL bytes (and therefore every `cell_digest`) must be
//! identical at every thread count — `GNCG_THREADS` ∈ {1, 2, 4, default}
//! and the `--threads` CLI flag — and equal to the committed golden.
//!
//! This is the oracle that licenses the work-stealing pool in
//! `crates/compat/rayon`: chunk boundaries depend only on input length,
//! chunks fold in index order, partials combine in chunk order, so the
//! steal schedule can never reach the numbers.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gncg-par-det-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn gncg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gncg"))
}

fn repo_golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/swap_heavy_n20.jsonl")
}

/// The committed golden's exact spec (36 swap-heavy cells at n = 20).
const GOLDEN_ARGS: &[&str] = &[
    "--name",
    "swap-heavy",
    "--hosts",
    "r2,grid,clusters",
    "--n",
    "20",
    "--alpha",
    "2.0,4.0,8.0",
    "--rules",
    "greedy",
    "--scheds",
    "rr",
    "--seeds",
    "0,1,2,3",
    "--max-rounds",
    "500",
    "--base-seed",
    "0",
];

/// A smaller swap-heavy slice (8 cells) for the thread-count matrix, so
/// four full runs stay affordable in the debug profile.
const MATRIX_ARGS: &[&str] = &[
    "--name",
    "swap-heavy-slice",
    "--hosts",
    "r2,grid",
    "--n",
    "20",
    "--alpha",
    "2.0,8.0",
    "--rules",
    "greedy",
    "--scheds",
    "rr",
    "--seeds",
    "0,1",
    "--max-rounds",
    "500",
    "--base-seed",
    "0",
];

fn run_grid(out: &PathBuf, spec: &[&str], env_threads: Option<&str>, flag_threads: Option<&str>) {
    let _ = fs::remove_file(out);
    let _ = fs::remove_file(out.with_extension("jsonl.manifest"));
    let mut cmd = gncg();
    cmd.args(["grid", "--out", out.to_str().unwrap()])
        .args(spec);
    match env_threads {
        Some(t) => cmd.env("GNCG_THREADS", t),
        None => cmd.env_remove("GNCG_THREADS"),
    };
    if let Some(t) = flag_threads {
        cmd.args(["--threads", t]);
    }
    let status = cmd.status().unwrap();
    assert!(status.success(), "grid run failed for {out:?}");
}

#[test]
fn golden_grid_bytes_survive_a_multithreaded_pool() {
    let out = tmp_dir().join("golden-t2.jsonl");
    run_grid(&out, GOLDEN_ARGS, Some("2"), None);
    assert_eq!(
        fs::read_to_string(&out).unwrap(),
        fs::read_to_string(repo_golden()).unwrap(),
        "36-cell swap-heavy grid at GNCG_THREADS=2 must equal the committed golden byte for byte"
    );
}

/// The br-grid preset (36 exact-best-response cells, one fresh search
/// per activation) must reproduce its committed golden byte for byte
/// through the real binary on a multithreaded pool. In debug test builds
/// every bound table a search grows is additionally checked against the
/// per-candidate fold, so this also exercises that oracle end to end.
#[test]
fn br_grid_golden_bytes_survive_a_multithreaded_pool() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/br_grid_n14.jsonl");
    let out = tmp_dir().join("br-grid-t2.jsonl");
    run_grid(&out, &["--preset", "br-grid"], Some("2"), None);
    assert_eq!(
        fs::read_to_string(&out).unwrap(),
        fs::read_to_string(golden).unwrap(),
        "36-cell br-grid at GNCG_THREADS=2 must equal the committed golden byte for byte"
    );
}

#[test]
fn grid_bytes_identical_at_every_thread_count() {
    let dir = tmp_dir();
    let reference = dir.join("matrix-t1.jsonl");
    run_grid(&reference, MATRIX_ARGS, Some("1"), None);
    let reference_bytes = fs::read_to_string(&reference).unwrap();
    assert!(
        reference_bytes.lines().count() == 8,
        "slice spec should expand to 8 cells"
    );

    // GNCG_THREADS=2, =4, unset (available-core default), and the
    // `--threads 2` CLI flag (which overrides an env of 4).
    let variants: [(&str, Option<&str>, Option<&str>); 4] = [
        ("env-2", Some("2"), None),
        ("env-4", Some("4"), None),
        ("default", None, None),
        ("flag-2", Some("4"), Some("2")),
    ];
    for (tag, env_threads, flag_threads) in variants {
        let out = dir.join(format!("matrix-{tag}.jsonl"));
        run_grid(&out, MATRIX_ARGS, env_threads, flag_threads);
        assert_eq!(
            fs::read_to_string(&out).unwrap(),
            reference_bytes,
            "grid bytes diverged from the single-thread run at variant {tag}"
        );
    }
}
