//! The end-to-end GNCG benchmark.
//!
//! ```text
//! gncg-e2ebench --workload <swap-heavy|br-grid|large-n|daemon-mix>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds`, checks every output byte,
//! and prints a stamp line, notes, and, last, one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. See README.md for the metrics.

mod calib;
mod cpu;
mod daemon;
mod offline;
mod plan;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use plan::Workload;
use report::{Tally, END_TO_END, PER_LAYER};
use trace::Totals;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Pool threads (and daemon workers) of an untraced run. One, so that a
/// run's CPU time is the program's work and not the pool's idle hand-offs,
/// whose cost depends on how the host schedules the pool's threads. A
/// traced run keeps the full pool, for the `pool.*` and `wall.*` figures.
const UNTRACED_THREADS: usize = 1;

/// What one run measured.
pub struct Measured {
    tally: Tally,
    values: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Measured {
    fn new(tally: Tally) -> Measured {
        Measured {
            tally,
            values: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// Seconds, for notes.
fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Sets the per-layer metrics a traced replay measures, per replayed
/// cell; `wall_ns` is the replay's wall time over the whole pool.
fn layer_values(m: &mut Measured, t: &Totals, wall_ns: u64) {
    let cells = t.cells.max(1) as f64;
    let per_cell_ms = |ns: u64| ns as f64 / cells / 1e6;
    let per = |ns: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / n as f64
        }
    };
    m.set("host.build_ms", per_cell_ms(t.host_ns));
    m.set("engine.run_ms", per_cell_ms(t.engine_ns));
    m.set("engine.us_per_activation", per(t.engine_ns, t.activations));
    m.set("engine.activations", t.activations as f64 / cells);
    m.set("engine.moves", t.moves as f64 / cells);
    m.set(
        "engine.move_yield",
        t.moves as f64 / t.activations.max(1) as f64,
    );
    m.set("engine.warm_bytes_peak", t.warm_bytes_peak as f64);
    m.set("engine.br_bytes_peak", t.br_bytes_peak as f64);
    m.set("certify.ms", per_cell_ms(t.certify_ns));
    m.set("certify.agents", t.certify_agents as f64 / cells);
    m.set("certify.us_per_agent", per(t.certify_ns, t.certify_agents));
    m.set("social_cost.ms", per_cell_ms(t.cost_ns));
    m.set("sssp.runs", t.sssp_runs as f64 / cells);
    m.set("sssp.us_per_run", per(t.cost_ns, t.sssp_runs));
    m.set("serialize.ms", per_cell_ms(t.serialize_ns));
    m.set("serialize.bytes", t.bytes as f64 / cells);
    m.set("sink.ms", per_cell_ms(t.sink_ns));
    let capacity_ns = wall_ns as f64 * rayon::current_num_threads() as f64;
    m.set("pool.busy_frac", t.cell_ns as f64 / capacity_ns);
    m.set(
        "pool.wait_ms",
        (capacity_ns - t.cell_ns as f64).max(0.0) / cells / 1e6,
    );
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository root (the benchmark package's parent directory).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The git revision when the repository root is a git work tree, else
/// `none` (git is kept from searching the directories above it).
fn git_revision(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the paths and bytes of the sources under `crates/` and
/// the root manifest: identifies the measured code where git does not.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (use 0|1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, out_dir: &Path) -> Result<Measured, String> {
    let Args {
        workload: w,
        seed,
        seconds,
        trace,
    } = *args;
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let mut spans = Vec::new();
    let measured = match (w, trace) {
        (Workload::DaemonMix, false) => daemon::run(seed, seconds, &work),
        (Workload::DaemonMix, true) => daemon::run_traced(seed, seconds, &work, &mut spans),
        (_, false) => Ok(offline::run(w, seed, seconds)),
        (_, true) => Ok(offline::run_traced(w, seed, seconds, &mut spans)),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut m = measured?;
    if trace {
        let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", w.key()));
        trace::write_spans(&path, &spans)?;
        let self_ns = trace::self_times(&spans);
        let total: u64 = self_ns.values().sum();
        let shares: Vec<String> = self_ns
            .iter()
            .map(|(name, ns)| format!("{name} {:.1} %", *ns as f64 * 100.0 / total.max(1) as f64))
            .collect();
        m.note(format!("self-time shares: {}", shares.join(", ")));
        m.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        // Layers this workload bypasses read 0.
        for (name, _) in PER_LAYER {
            if !m.values.iter().any(|(n, _)| n == name) {
                m.set(name, 0.0);
            }
        }
    }
    Ok(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gncg-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        if let Err(e) = rayon::configure_num_threads(UNTRACED_THREADS) {
            eprintln!("gncg-e2ebench: {e}");
            std::process::exit(1);
        }
    }
    let root = repo_root();
    let out_dir = root.join(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("gncg-e2ebench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    println!(
        "stamp: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"pool_threads\":{},\"git_revision\":\"{}\",\"source_digest\":\"{}\"}}",
        args.workload.key(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
        git_revision(&root),
        source_digest(&root)
    );
    let m = match run(&args, &out_dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gncg-e2ebench: {e}");
            std::process::exit(1);
        }
    };
    for note in &m.notes {
        println!("note: {note}");
    }
    for f in m.tally.failures.iter().take(20) {
        println!("failure: {f}");
    }
    println!(
        "error_rate: {} ({} failed / {} attempted)",
        m.tally.failures.len() as f64 / m.tally.attempted.max(1) as f64,
        m.tally.failures.len(),
        m.tally.attempted
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report::result_line(&m.tally, names, &m.values));
}
