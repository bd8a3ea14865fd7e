//! `gncg` — command-line front end for the library and the service.
//!
//! ```text
//! gncg simulate  --host <key> --n <n> --alpha <α> [--seed <s>] [--rule br|greedy|add] [--max-rounds <r>]
//! gncg poa       --host <key> --n <n> --alpha <α> [--seed <s>]
//! gncg opt       --host <key> --n <n> --alpha <α> [--seed <s>]
//! gncg landscape --host <key> --n <n> --alpha <α> [--seed <s>]
//! gncg analyze   --host <key> --n <n> --alpha <α> [--seed <s>]
//! gncg grid      --out <file.jsonl> [--preset swap-heavy|large-n|br-grid] [--name <s>]
//!                [--hosts k1,k2] [--n n1,n2] [--alpha a1,a2] [--rules r1,r2] [--scheds s1,s2]
//!                [--seeds s1,s2 | --seed-count k] [--max-rounds <r>] [--base-seed <s>]
//!                [--certify full|sampled|off] [--horizon] [--regret-meter]
//!                [--checkpoint-every <k>] [--threads <k>]
//! gncg resume    --out <file.jsonl> [--threads <k>]
//! gncg serve     [--addr host:port] [--workers k] [--threads k] [--queue-cap n] [--cache <file>]
//!                [--cache-max <entries>] [--journal <file>] [--read-timeout-ms <ms>] [--write-timeout-ms <ms>]
//! gncg submit    --addr host:port --out <file.jsonl> [grid flags as above]
//!                [--deadline-ms <ms>] [--retries <k>] [--timeout-ms <ms>]
//! gncg tail      --addr host:port --job <id> --out <file.jsonl> [--retries <k>] [--timeout-ms <ms>]
//! gncg ping      [--addr host:port] [--wait-ms <ms>]
//! gncg status    --addr host:port [--job <id>]
//! gncg explore   --addr host:port --job <id> [--cell <c>] [--round <r>] [--diff <r2>]
//! gncg metrics   [--addr host:port]
//! gncg cancel    --addr host:port --job <id>
//! gncg shutdown  --addr host:port [--drain]
//! gncg list-factories
//! ```
//!
//! Host keys come from the `gncg_metrics::factory` registry
//! (`gncg list-factories` prints them). The service commands speak the
//! newline-delimited JSON protocol documented in `gncg_service::protocol`
//! (and README.md); `gncg submit` writes JSONL byte-identical to what the
//! offline `gncg grid` writes for the same spec. Exit codes: `0` success,
//! `1` non-convergence (so dynamics commands are scriptable from CI), `2`
//! invalid arguments, I/O failure, or a daemon-reported error.

use gncg_core::{Game, Profile};
use gncg_dynamics::{DynamicsConfig, ResponseRule, Scheduler};
use gncg_graph::SymMatrix;
use gncg_service::json::Value;
use gncg_service::{Client, RetryPolicy, Server, ServiceConfig};
use gncg_suite::grid::{manifest_path, run_grid, GridSummary};
use gncg_suite::scenario::{FieldKind, RuleSpec, ScenarioSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let cmd = args[0].clone();
    match cmd.as_str() {
        "list-factories" => list_factories(),
        "grid" => grid_cmd(&args[1..]),
        "resume" => resume_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "submit" => submit_cmd(&args[1..]),
        "tail" => tail_cmd(&args[1..]),
        "ping" => ping_cmd(&args[1..]),
        "status" => status_cmd(&args[1..]),
        "explore" => explore_cmd(&args[1..]),
        "metrics" => metrics_cmd(&args[1..]),
        "cancel" => cancel_cmd(&args[1..]),
        "shutdown" => shutdown_cmd(&args[1..]),
        "simulate" | "poa" | "opt" | "landscape" | "analyze" => {
            let opts = Options::parse(&args[1..]);
            let host = opts.build_host();
            let game = Game::new(host, opts.alpha);
            match cmd.as_str() {
                "simulate" => simulate(&game, &opts),
                "poa" => poa_cmd(&game),
                "opt" => opt_cmd(&game),
                "landscape" => landscape_cmd(&game),
                "analyze" => analyze_cmd(&game, &opts),
                _ => unreachable!(),
            }
        }
        other => {
            eprintln!("unknown command: {other}");
            usage_and_exit();
        }
    }
}

fn invalid(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses a flag value, exiting 2 with a message instead of panicking.
fn parse_or_exit<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| invalid(format_args!("{what} (got '{value}')")))
}

struct Options {
    host: String,
    n: usize,
    alpha: f64,
    seed: u64,
    rule: ResponseRule,
    max_rounds: usize,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut o = Options {
            host: "r2".into(),
            n: 8,
            alpha: 1.0,
            seed: 42,
            rule: ResponseRule::BestGreedyMove,
            max_rounds: 1_000,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| invalid(format_args!("missing value for {flag}")))
                    .clone()
            };
            match flag.as_str() {
                "--host" => o.host = value(),
                "--n" => o.n = parse_or_exit(&value(), "--n takes an integer"),
                "--alpha" => o.alpha = parse_or_exit(&value(), "--alpha takes a float"),
                "--seed" => o.seed = parse_or_exit(&value(), "--seed takes an integer"),
                "--max-rounds" => {
                    o.max_rounds = parse_or_exit(&value(), "--max-rounds takes an integer")
                }
                "--rule" => {
                    o.rule = RuleSpec::parse(&value())
                        .unwrap_or_else(|e| invalid(e))
                        .rule()
                }
                other => invalid(format_args!("unknown flag: {other}")),
            }
        }
        o
    }

    fn build_host(&self) -> SymMatrix {
        gncg_metrics::factory::build_host(&self.host, self.n, self.seed)
            .unwrap_or_else(|e| invalid(e))
    }
}

fn list_factories() {
    println!("registered host factories (gncg_metrics::factory):");
    for f in gncg_metrics::factory::registry() {
        println!(
            "  {:10} {} [{}]",
            f.key(),
            f.describe(),
            if f.metric() { "metric" } else { "non-metric" }
        );
    }
}

/// Parsed `gncg grid` / `gncg submit` arguments: the spec, the output
/// path, and — for the service-backed `submit` form — the daemon
/// address plus the deadline/retry knobs.
struct GridCli {
    spec: ScenarioSpec,
    out: std::path::PathBuf,
    addr: Option<String>,
    /// `--deadline-ms`: wall-clock budget the daemon enforces on the job.
    deadline_ms: Option<u64>,
    /// `--retries`: additional attempts after a transport failure.
    retries: u32,
    /// `--timeout-ms`: per-read timeout on each attempt's connection.
    timeout_ms: Option<u64>,
    /// `--threads` (local `grid` form only): compute-pool size.
    threads: Option<usize>,
}

/// Applies `--threads` before any parallel work resolves the pool size.
/// Results are bitwise-identical at every thread count, so this is purely
/// a throughput knob; it overrides `GNCG_THREADS`.
fn apply_threads(threads: Option<usize>) {
    if let Some(t) = threads {
        rayon::configure_num_threads(t)
            .unwrap_or_else(|e| invalid(format_args!("cannot apply --threads: {e}")));
    }
}

/// The spec flags of `gncg grid` / `gncg submit`, each with the spec
/// field it sets. A boolean field's flag is a switch that takes no value;
/// a list field's value is comma-separated.
const SPEC_FLAGS: [(&str, &str); 13] = [
    ("--name", "name"),
    ("--hosts", "hosts"),
    ("--n", "ns"),
    ("--alpha", "alphas"),
    ("--rules", "rules"),
    ("--scheds", "schedulers"),
    ("--seeds", "seeds"),
    ("--max-rounds", "max_rounds"),
    ("--base-seed", "base_seed"),
    ("--certify", "certify"),
    ("--regret-meter", "regret_meter"),
    ("--checkpoint-every", "checkpoint_every"),
    ("--horizon", "horizon_pricing"),
];

/// Parses `gncg grid` / `gncg submit` flags (the service-only flags are
/// accepted only when `allow_addr` — the `submit` form).
fn parse_grid_spec(args: &[String], allow_addr: bool) -> GridCli {
    let mut spec = ScenarioSpec::default();
    let mut spec_flag_seen = false;
    let mut out: Option<std::path::PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut retries: u32 = 0;
    let mut timeout_ms: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| invalid(format_args!("missing value for {flag}")))
                .clone()
        };
        match flag.as_str() {
            "--addr" if allow_addr => addr = Some(value()),
            "--deadline-ms" if allow_addr => {
                deadline_ms = Some(parse_or_exit(&value(), "--deadline-ms takes milliseconds"))
            }
            "--retries" if allow_addr => {
                retries = parse_or_exit(&value(), "--retries takes an integer")
            }
            "--timeout-ms" if allow_addr => {
                timeout_ms = Some(parse_or_exit(&value(), "--timeout-ms takes milliseconds"))
            }
            // Local compute only: a submitted grid runs on the daemon,
            // whose pool is sized by `serve --threads`.
            "--threads" if !allow_addr => {
                threads = Some(parse_or_exit(&value(), "--threads takes a thread count"))
            }
            "--out" => out = Some(value().into()),
            "--seed-count" => {
                let k: u64 = parse_or_exit(&value(), "--seed-count takes an integer");
                spec.seeds = (0..k).collect();
                spec_flag_seen = true;
            }
            // A preset replaces the whole spec, so it must come before
            // every other spec flag instead of silently overwriting them.
            "--preset" => {
                if spec_flag_seen {
                    invalid("--preset must precede every spec flag (it replaces the whole spec)");
                }
                spec = match value().as_str() {
                    "swap-heavy" => ScenarioSpec::swap_heavy(),
                    "large-n" => ScenarioSpec::large_n(),
                    "br-grid" => ScenarioSpec::br_grid(),
                    other => invalid(format_args!(
                        "unknown preset '{other}' (use swap-heavy|large-n|br-grid)"
                    )),
                };
                spec_flag_seen = true;
            }
            other => {
                let Some(&(_, key)) = SPEC_FLAGS.iter().find(|(f, _)| *f == other) else {
                    invalid(format_args!("unknown flag: {other}"));
                };
                let switch =
                    ScenarioSpec::default_field(key).is_ok_and(|f| f.kind == FieldKind::Bool);
                let text = if switch { "true".to_string() } else { value() };
                spec.set_field_text(key, &text)
                    .unwrap_or_else(|e| invalid(format_args!("{flag}: {e}")));
                spec_flag_seen = true;
            }
        }
    }
    let out = out.unwrap_or_else(|| invalid("grid/submit require --out <file.jsonl>"));
    if let Err(e) = spec.validate() {
        invalid(e);
    }
    GridCli {
        spec,
        out,
        addr,
        deadline_ms,
        retries,
        timeout_ms,
        threads,
    }
}

fn print_summary(s: &GridSummary) {
    println!(
        "grid: {} cells ({} resumed from disk, {} run, {} of those converged) in {:.2}s",
        s.total, s.skipped, s.ran, s.converged, s.wall_secs
    );
    println!("results: {}", s.out.display());
    println!("manifest: {}", manifest_path(&s.out).display());
}

fn grid_cmd(args: &[String]) {
    let GridCli {
        spec, out, threads, ..
    } = parse_grid_spec(args, false);
    apply_threads(threads);
    match run_grid(&spec, &out, false) {
        Ok(summary) => print_summary(&summary),
        Err(e) => invalid(e),
    }
}

fn resume_cmd(args: &[String]) {
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| invalid(format_args!("missing value for {flag}")))
                .clone()
        };
        match flag.as_str() {
            "--out" => out = Some(value().into()),
            "--threads" => apply_threads(Some(parse_or_exit(
                &value(),
                "--threads takes a thread count",
            ))),
            other => invalid(format_args!("unknown flag: {other}")),
        }
    }
    let out = out.unwrap_or_else(|| invalid("resume requires --out <file.jsonl>"));
    let manifest = manifest_path(&out);
    let text = std::fs::read_to_string(&manifest)
        .unwrap_or_else(|e| invalid(format_args!("cannot read {}: {e}", manifest.display())));
    let spec = ScenarioSpec::from_manifest(&text).unwrap_or_else(|e| invalid(e));
    match run_grid(&spec, &out, true) {
        Ok(summary) => print_summary(&summary),
        Err(e) => invalid(e),
    }
}

// ---- service commands ---------------------------------------------------

/// Default daemon address for the service subcommands.
const DEFAULT_ADDR: &str = "127.0.0.1:7421";

/// Parses `--addr`/`--job` style flags shared by the thin service
/// commands (`status`, `cancel`, `shutdown`, `serve` extras).
struct ServiceFlags {
    addr: String,
    job: Option<u64>,
    out: Option<std::path::PathBuf>,
    workers: usize,
    threads: usize,
    queue_cap: usize,
    cache: Option<std::path::PathBuf>,
    cache_max: Option<usize>,
    journal: Option<std::path::PathBuf>,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    wait_ms: Option<u64>,
    retries: u32,
    timeout_ms: Option<u64>,
    drain: bool,
    cell: Option<u64>,
    round: Option<usize>,
    diff: Option<usize>,
}

impl ServiceFlags {
    /// Parses the flags in `allowed` (every other flag — including the
    /// ones *other* service commands take — exits 2, matching the strict
    /// flag handling of the rest of the CLI).
    fn parse(args: &[String], allowed: &[&str]) -> ServiceFlags {
        let defaults = ServiceConfig::default();
        let mut f = ServiceFlags {
            addr: DEFAULT_ADDR.into(),
            job: None,
            out: None,
            workers: 0,
            threads: 0,
            queue_cap: defaults.queue_cap,
            cache: None,
            cache_max: None,
            journal: None,
            read_timeout_ms: defaults.read_timeout_ms,
            write_timeout_ms: defaults.write_timeout_ms,
            wait_ms: None,
            retries: 0,
            timeout_ms: None,
            drain: false,
            cell: None,
            round: None,
            diff: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| invalid(format_args!("missing value for {flag}")))
                    .clone()
            };
            if !allowed.contains(&flag.as_str()) {
                invalid(format_args!("unknown flag: {flag}"));
            }
            match flag.as_str() {
                "--addr" => f.addr = value(),
                "--drain" => f.drain = true,
                "--journal" => f.journal = Some(value().into()),
                "--read-timeout-ms" => {
                    f.read_timeout_ms =
                        parse_or_exit(&value(), "--read-timeout-ms takes milliseconds (0 = none)")
                }
                "--write-timeout-ms" => {
                    f.write_timeout_ms =
                        parse_or_exit(&value(), "--write-timeout-ms takes milliseconds (0 = none)")
                }
                "--wait-ms" => {
                    f.wait_ms = Some(parse_or_exit(&value(), "--wait-ms takes milliseconds"))
                }
                "--retries" => f.retries = parse_or_exit(&value(), "--retries takes an integer"),
                "--timeout-ms" => {
                    f.timeout_ms = Some(parse_or_exit(&value(), "--timeout-ms takes milliseconds"))
                }
                "--job" => f.job = Some(parse_or_exit(&value(), "--job takes an integer")),
                "--cell" => f.cell = Some(parse_or_exit(&value(), "--cell takes a cell index")),
                "--round" => f.round = Some(parse_or_exit(&value(), "--round takes a round")),
                "--diff" => f.diff = Some(parse_or_exit(&value(), "--diff takes a round")),
                "--out" => f.out = Some(value().into()),
                "--workers" => f.workers = parse_or_exit(&value(), "--workers takes an integer"),
                "--threads" => {
                    f.threads = parse_or_exit(&value(), "--threads takes a thread count")
                }
                "--queue-cap" => {
                    f.queue_cap = parse_or_exit(&value(), "--queue-cap takes an integer")
                }
                "--cache" => f.cache = Some(value().into()),
                "--cache-max" => {
                    let max: usize = parse_or_exit(&value(), "--cache-max takes an entry count");
                    if max == 0 {
                        invalid(
                            "--cache-max must be at least 1 (omit the flag for an unbounded cache)",
                        );
                    }
                    f.cache_max = Some(max);
                }
                other => invalid(format_args!("unknown flag: {other}")),
            }
        }
        f
    }
}

fn connect_or_exit(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| invalid(e))
}

fn serve_cmd(args: &[String]) {
    let f = ServiceFlags::parse(
        args,
        &[
            "--addr",
            "--workers",
            "--threads",
            "--queue-cap",
            "--cache",
            "--cache-max",
            "--journal",
            "--read-timeout-ms",
            "--write-timeout-ms",
        ],
    );
    let server = Server::start(
        &f.addr,
        ServiceConfig {
            workers: f.workers,
            threads: f.threads,
            queue_cap: f.queue_cap,
            cache_path: f.cache,
            cache_max: f.cache_max,
            journal_path: f.journal,
            read_timeout_ms: f.read_timeout_ms,
            write_timeout_ms: f.write_timeout_ms,
            ..ServiceConfig::default()
        },
    )
    .unwrap_or_else(|e| invalid(e));
    // The "listening" line is the readiness signal scripts wait for.
    println!("gncg_service listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    println!("gncg_service stopped");
}

/// Streams daemon results into `out` **atomically and with retries**:
/// each attempt connects fresh, writes to a sibling `.partial` temp file
/// (truncated per attempt, so a torn earlier attempt never leaks bytes
/// into a later one), and only a fully successful attempt is renamed
/// into place — neither a refused submission nor a mid-stream failure
/// (cancel, daemon crash, network drop) may destroy an existing results
/// file. Shared by the `submit` and `tail` commands so the write and
/// retry disciplines stay single-sourced; exits 2 once the policy is
/// exhausted.
fn stream_results_atomically<T>(
    out: &std::path::Path,
    addr: &str,
    policy: RetryPolicy,
    mut produce: impl FnMut(&mut Client, &mut dyn std::io::Write) -> Result<T, String>,
) -> T {
    let tmp = out.with_extension("jsonl.partial");
    let result = policy.run(addr, |client| {
        use std::io::Write as _;
        // Local filesystem failures are not transport errors: they
        // abort the retry loop immediately.
        let file = std::fs::File::create(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let mut writer = std::io::BufWriter::new(file);
        let value = produce(client, &mut writer)?;
        writer
            .flush()
            .map_err(|e| format!("cannot flush {}: {e}", tmp.display()))?;
        Ok(value)
    });
    match result {
        Ok(value) => {
            std::fs::rename(&tmp, out).unwrap_or_else(|e| {
                invalid(format_args!(
                    "cannot move {} into place: {e}",
                    tmp.display()
                ))
            });
            value
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            invalid(e);
        }
    }
}

fn submit_cmd(args: &[String]) {
    let cli = parse_grid_spec(args, true);
    let addr = cli.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.into());
    let policy = RetryPolicy {
        retries: cli.retries,
        timeout_ms: cli.timeout_ms,
        ..RetryPolicy::default()
    };
    let started = std::time::Instant::now();
    // Submit and stream are retried as one unit: re-submitting after a
    // transport failure is safe because the daemon dedupes every cell by
    // content digest — the retry re-acknowledges (a new job id, the same
    // bytes) instead of re-simulating.
    let (ack, summary) = stream_results_atomically(&cli.out, &addr, policy, |client, w| {
        let ack = client.submit_with_deadline(&cli.spec, cli.deadline_ms)?;
        let summary = client.stream_to(ack.job, w)?;
        Ok((ack, summary))
    });
    println!(
        "submit: job {} on {addr}: {} cells ({} cache hits, {} simulated) in {:.2}s",
        ack.job,
        summary.cells,
        summary.cache_hits,
        summary.simulated,
        started.elapsed().as_secs_f64()
    );
    println!("results: {}", cli.out.display());
}

fn tail_cmd(args: &[String]) {
    let f = ServiceFlags::parse(
        args,
        &["--addr", "--job", "--out", "--retries", "--timeout-ms"],
    );
    let job = f.job.unwrap_or_else(|| invalid("tail requires --job <id>"));
    let out = f
        .out
        .unwrap_or_else(|| invalid("tail requires --out <file.jsonl>"));
    let policy = RetryPolicy {
        retries: f.retries,
        timeout_ms: f.timeout_ms,
        ..RetryPolicy::default()
    };
    let started = std::time::Instant::now();
    // The client re-sorts on receipt, so the renamed file is in cell
    // order, byte-identical to a `stream`. Tail retries reconnect and
    // re-tail from the start — results are immutable once recorded, so
    // a retried tail returns the same bytes (and a journal-replaying
    // daemon keeps the job id across restarts).
    let summary =
        stream_results_atomically(&out, &f.addr, policy, |client, w| client.tail_to(job, w));
    println!(
        "tail: job {job} on {}: {} cells ({} cache hits, {} simulated) in {:.2}s",
        f.addr,
        summary.cells,
        summary.cache_hits,
        summary.simulated,
        started.elapsed().as_secs_f64()
    );
    println!("results: {}", out.display());
}

fn ping_cmd(args: &[String]) {
    let f = ServiceFlags::parse(args, &["--addr", "--wait-ms"]);
    match f.wait_ms {
        // `--wait-ms N`: poll until the daemon answers — the readiness
        // gate scripts use after spawning `serve` instead of sleeping.
        Some(wait_ms) => {
            gncg_service::client::wait_for_daemon(&f.addr, wait_ms).unwrap_or_else(|e| invalid(e))
        }
        None => connect_or_exit(&f.addr)
            .ping()
            .unwrap_or_else(|e| invalid(e)),
    }
    println!("daemon {} is up", f.addr);
}

fn status_cmd(args: &[String]) {
    let f = ServiceFlags::parse(args, &["--addr", "--job"]);
    let mut client = connect_or_exit(&f.addr);
    match f.job {
        Some(job) => {
            let s = client.job_status(job).unwrap_or_else(|e| invalid(e));
            println!(
                "job {}: {} ({}/{} cells, {} cache hits, {} simulated)",
                s.job, s.state, s.done, s.total, s.cache_hits, s.simulated
            );
        }
        None => {
            let s = client.daemon_status().unwrap_or_else(|e| invalid(e));
            // One line on a healthy daemon: uptime, then every job state.
            println!(
                "daemon {}: up {:.1}s{}, {} jobs held ({} queued, {} running), {} done / {} canceled / {} expired since start, cache {} entries ({} hits, {} misses), {} workers",
                f.addr,
                s.uptime_ms as f64 / 1000.0,
                if s.draining { " (draining)" } else { "" },
                s.jobs,
                s.queued,
                s.active.saturating_sub(s.queued),
                s.done,
                s.canceled,
                s.expired,
                s.cache_entries,
                s.cache_hits,
                s.cache_misses,
                s.workers,
            );
            if s.cache_degraded {
                println!(
                    "cache: DEGRADED ({} disk errors, memory-only)",
                    s.cache_errors
                );
            }
            if s.journal_errors > 0 {
                println!(
                    "journal: DEGRADED ({} append errors; accepted jobs no longer crash-durable)",
                    s.journal_errors
                );
            }
        }
    }
}

/// One checkpoint frame parsed back out of a cell's JSONL line. Costs
/// and regrets may be `null` on the wire (infinite while the network is
/// still disconnected); those parse to `f64::INFINITY`.
struct Frame {
    round: usize,
    strategies: Vec<Vec<usize>>,
    costs: Vec<f64>,
    regrets: Vec<f64>,
}

impl Frame {
    fn from_json(v: &Value) -> Option<Frame> {
        let nums = |key: &str| -> Option<Vec<f64>> {
            Some(
                v.get(key)?
                    .as_arr()?
                    .iter()
                    .map(|x| x.as_f64().unwrap_or(f64::INFINITY))
                    .collect(),
            )
        };
        Some(Frame {
            round: v.get("round")?.as_usize()?,
            strategies: v
                .get("strategies")?
                .as_arr()?
                .iter()
                .map(|s| Some(s.as_arr()?.iter().filter_map(Value::as_usize).collect()))
                .collect::<Option<_>>()?,
            costs: nums("costs")?,
            regrets: nums("regrets")?,
        })
    }
}

/// `inf` for absent/non-finite values (JSONL encodes them as `null`).
fn fmt_cost(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v:.4}"),
        _ => "inf".into(),
    }
}

fn explore_cmd(args: &[String]) {
    let f = ServiceFlags::parse(args, &["--addr", "--job", "--cell", "--round", "--diff"]);
    let job = f
        .job
        .unwrap_or_else(|| invalid("explore requires --job <id>"));
    let cell = f.cell.unwrap_or(0);
    let mut client = connect_or_exit(&f.addr);
    let line = client.explore(job, cell).unwrap_or_else(|e| invalid(e));
    let v = gncg_service::json::parse(&line).unwrap_or_else(|e| {
        invalid(format_args!(
            "daemon returned an unparseable cell line: {e}"
        ))
    });
    let text = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let num = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    println!(
        "job {job} cell {cell}: {} n={} alpha={} rule={} sched={} seed={} -> {} in {} rounds ({} moves)",
        text("host"),
        num("n"),
        fmt_cost(v.get("alpha").and_then(Value::as_f64)),
        text("rule"),
        text("scheduler"),
        num("seed"),
        text("outcome"),
        num("rounds"),
        num("moves"),
    );
    if let Some(series) = v.get("max_regret").and_then(Value::as_arr) {
        println!(
            "max-regret series: {} rounds metered, final {}",
            series.len(),
            fmt_cost(series.last().and_then(Value::as_f64)),
        );
    }
    let frames: Vec<Frame> = match v.get("checkpoints").and_then(Value::as_arr) {
        Some(arr) => arr.iter().filter_map(Frame::from_json).collect(),
        None => invalid(format_args!(
            "job {job} cell {cell} recorded no checkpoints — submit with --checkpoint-every <k>"
        )),
    };
    let pick = |want: usize| -> &Frame {
        frames
            .iter()
            .find(|fr| fr.round == want)
            .unwrap_or_else(|| {
                let avail: Vec<String> = frames.iter().map(|fr| fr.round.to_string()).collect();
                invalid(format_args!(
                    "no checkpoint at round {want}; available rounds: {}",
                    avail.join(", ")
                ))
            })
    };
    let frame = match f.round {
        Some(r) => pick(r),
        None => frames
            .last()
            .unwrap_or_else(|| invalid("cell recorded an empty checkpoint list")),
    };
    println!(
        "round {} ({} agents, max regret {}):",
        frame.round,
        frame.strategies.len(),
        fmt_cost(Some(frame.regrets.iter().copied().fold(0.0, f64::max))),
    );
    println!("  agent        cost      regret  strategy");
    for (a, s) in frame.strategies.iter().enumerate() {
        println!(
            "  {:>5}  {:>10}  {:>10}  {:?}",
            a,
            fmt_cost(frame.costs.get(a).copied()),
            fmt_cost(frame.regrets.get(a).copied()),
            s,
        );
    }
    if let Some(r2) = f.diff {
        let to = pick(r2);
        println!(
            "strategy diff, round {} -> round {}:",
            frame.round, to.round
        );
        let mut changed = 0;
        for a in 0..frame.strategies.len().min(to.strategies.len()) {
            let before = &frame.strategies[a];
            let after = &to.strategies[a];
            let added: Vec<usize> = after
                .iter()
                .copied()
                .filter(|x| !before.contains(x))
                .collect();
            let dropped: Vec<usize> = before
                .iter()
                .copied()
                .filter(|x| !after.contains(x))
                .collect();
            if added.is_empty() && dropped.is_empty() {
                continue;
            }
            changed += 1;
            println!("  agent {a}: buys {added:?}, drops {dropped:?}");
        }
        if changed == 0 {
            println!("  (no agent changed its strategy)");
        }
    }
}

fn metrics_cmd(args: &[String]) {
    let f = ServiceFlags::parse(args, &["--addr"]);
    let mut client = connect_or_exit(&f.addr);
    let m = client.metrics().unwrap_or_else(|e| invalid(e));
    let num = |k: &str| m.get(k).and_then(Value::as_u64).unwrap_or(0);
    let ratio = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "daemon {}: up {:.1}s, {} workers ({:.1}% busy), queue depth {}, {} active jobs",
        f.addr,
        num("uptime_ms") as f64 / 1000.0,
        num("workers"),
        ratio("worker_busy_fraction") * 100.0,
        num("queue_depth"),
        num("active_jobs"),
    );
    println!(
        "work: {} jobs submitted, {} cells simulated, {} cells from cache",
        num("jobs_submitted"),
        num("cells_simulated"),
        num("cells_from_cache"),
    );
    println!(
        "cache: {} entries, {} hits, {} misses (hit ratio {:.2})",
        num("cache_entries"),
        num("cache_hits"),
        num("cache_misses"),
        ratio("cache_hit_ratio"),
    );
    let histogram = |key: &str, label: &str| {
        if let Some(h) = m.get(key) {
            let hnum = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0);
            println!(
                "{label}: {} observed, p50 <= {}us, p99 <= {}us",
                hnum("count"),
                hnum("p50_us"),
                hnum("p99_us"),
            );
        }
    };
    histogram("job_wall_us", "job wall time");
    histogram("journal_fsync_us", "journal fsync");
    println!(
        "warm vectors: peak {} bytes resident per worker engine",
        num("warm_resident_bytes_peak"),
    );
}

fn cancel_cmd(args: &[String]) {
    let f = ServiceFlags::parse(args, &["--addr", "--job"]);
    let job = f
        .job
        .unwrap_or_else(|| invalid("cancel requires --job <id>"));
    let mut client = connect_or_exit(&f.addr);
    let state = client.cancel(job).unwrap_or_else(|e| invalid(e));
    println!("job {job}: {state}");
}

fn shutdown_cmd(args: &[String]) {
    let f = ServiceFlags::parse(args, &["--addr", "--drain"]);
    let mut client = connect_or_exit(&f.addr);
    if f.drain {
        let active = client.shutdown_drain().unwrap_or_else(|e| invalid(e));
        println!(
            "daemon {} draining ({active} active job{} to finish)",
            f.addr,
            if active == 1 { "" } else { "s" }
        );
    } else {
        client.shutdown().unwrap_or_else(|e| invalid(e));
        println!("daemon {} shutting down", f.addr);
    }
}

fn simulate(game: &Game, opts: &Options) {
    let result = gncg_dynamics::run(
        game,
        Profile::star(game.n(), 0),
        &DynamicsConfig {
            rule: opts.rule,
            scheduler: Scheduler::RoundRobin,
            max_rounds: opts.max_rounds,
            ..DynamicsConfig::default()
        },
    );
    println!("outcome: {:?}", result.outcome);
    println!("moves:   {}", result.moves);
    let g = result.profile.build_network(game);
    println!("edges:   {}", g.m());
    println!(
        "diam:    {:.4}",
        gncg_graph::apsp::apsp_parallel(&g).diameter()
    );
    println!(
        "cost:    {:.4}",
        gncg_core::cost::social_cost(game, &result.profile)
    );
    if !result.converged() {
        eprintln!("non-convergence: no equilibrium certified within the round cap");
        std::process::exit(1);
    }
}

fn poa_cmd(game: &Game) {
    let run = gncg_dynamics::run(
        game,
        Profile::star(game.n(), 0),
        &DynamicsConfig {
            rule: ResponseRule::BestGreedyMove,
            scheduler: Scheduler::RoundRobin,
            max_rounds: 1000,
            ..DynamicsConfig::default()
        },
    );
    if !run.converged() {
        eprintln!("dynamics did not converge (no FIP — try another seed)");
        std::process::exit(1);
    }
    let eq = gncg_core::cost::social_cost(game, &run.profile);
    let opt = if game.n() <= 7 {
        gncg_solvers::opt_exact::social_optimum(game).cost
    } else {
        gncg_solvers::opt_heuristic::social_optimum_heuristic(game, 40).cost
    };
    println!("equilibrium cost: {eq:.4}");
    println!(
        "optimum cost:     {opt:.4} ({})",
        if game.n() <= 7 {
            "exact"
        } else {
            "heuristic upper bound"
        }
    );
    println!("ratio:            {:.4}", eq / opt);
    println!(
        "(α+2)/2 bound:    {:.4}",
        gncg_core::poa::metric_upper_bound(game.alpha())
    );
}

fn opt_cmd(game: &Game) {
    if game.n() <= 7 {
        let opt = gncg_solvers::opt_exact::social_optimum(game);
        println!("exact optimum cost: {:.4}", opt.cost);
        println!("edges: {:?}", opt.edges);
    } else {
        let opt = gncg_solvers::opt_heuristic::social_optimum_heuristic(game, 60);
        println!(
            "heuristic optimum cost: {:.4} ({} rounds)",
            opt.cost, opt.rounds
        );
        println!("edges: {:?}", opt.edges);
    }
}

fn landscape_cmd(game: &Game) {
    if game.n() > 6 {
        invalid("landscape enumeration needs --n ≤ 6");
    }
    let land = gncg_solvers::stability::enumerate_equilibria(game);
    let opt = gncg_solvers::opt_exact::social_optimum(game);
    println!("connected networks inspected: {}", land.networks);
    println!("networks admitting a NE:      {}", land.count);
    match (
        land.price_of_stability(opt.cost),
        land.price_of_anarchy(opt.cost),
    ) {
        (Some(pos), Some(poa)) => {
            println!("exact PoS: {pos:.4}");
            println!("exact PoA: {poa:.4}");
            println!(
                "(α+2)/2:   {:.4}",
                gncg_core::poa::metric_upper_bound(game.alpha())
            );
        }
        _ => println!("no pure Nash equilibrium exists on this instance"),
    }
}

fn analyze_cmd(game: &Game, opts: &Options) {
    let run = gncg_dynamics::run(
        game,
        Profile::star(game.n(), 0),
        &DynamicsConfig {
            rule: opts.rule,
            scheduler: Scheduler::RoundRobin,
            max_rounds: opts.max_rounds,
            ..DynamicsConfig::default()
        },
    );
    let report = gncg_core::analysis::analyze(game, &run.profile);
    println!("social cost:      {:.4}", report.social_cost);
    println!("edge-cost share:  {:.4}", report.edge_cost_share());
    println!("free riders:      {}", report.free_riders);
    println!("cost spread:      {:.4}", report.cost_spread);
    println!(
        "biggest builder:  agent {} ({} edges)",
        report.biggest_builder().agent,
        report.biggest_builder().edges_bought
    );
    println!("worst off:        agent {}", report.worst_off().agent);
    println!("\nper-agent:");
    for a in &report.agents {
        println!(
            "  {:>3}: edge {:>9.3}  dist {:>9.3}  total {:>9.3}  bought {:>2}  deg {:>2}",
            a.agent,
            a.cost.edge_cost,
            a.cost.distance_cost,
            a.cost.total(),
            a.edges_bought,
            a.degree
        );
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: gncg <simulate|poa|opt|landscape|analyze|grid|resume|serve|submit|tail|status|explore|metrics|cancel|shutdown|list-factories>\n\
         \n\
         instance commands: [--host <key>] [--n N] [--alpha A] [--seed S]\n\
         \x20                  [--rule br|greedy|add] [--max-rounds R]\n\
         grid:  --out results.jsonl [--preset swap-heavy|large-n|br-grid] (preset first)\n\
         \x20      [--name S] [--hosts k1,k2] [--n n1,n2] [--alpha a1,a2]\n\
         \x20      [--rules r1,r2] [--scheds rr,random,maxgain]\n\
         \x20      [--seeds s1,s2 | --seed-count K] [--max-rounds R] [--base-seed S]\n\
         \x20      [--certify full|sampled|off] [--horizon]\n\
         \x20      [--regret-meter] [--checkpoint-every K] [--threads K]\n\
         resume: --out results.jsonl [--threads K]   (spec is read back from the manifest)\n\
         \n\
         service (newline-delimited JSON over TCP, see README):\n\
         serve:    [--addr 127.0.0.1:7421] [--workers K] [--threads K] [--queue-cap N]\n\
         \x20         [--cache file] [--cache-max E] [--journal file]\n\
         \x20         [--read-timeout-ms MS] [--write-timeout-ms MS]\n\
         submit:   --addr host:port --out results.jsonl [grid flags]\n\
         \x20         [--deadline-ms MS] [--retries K] [--timeout-ms MS]\n\
         tail:     --addr host:port --job ID --out results.jsonl [--retries K] [--timeout-ms MS]\n\
         ping:     [--addr host:port] [--wait-ms MS]  (poll until the daemon is up)\n\
         status:   --addr host:port [--job ID]\n\
         explore:  --addr host:port --job ID [--cell C] [--round R] [--diff R2]\n\
         \x20         (replay a checkpoint: per-agent cost/regret, strategy diffs)\n\
         metrics:  [--addr host:port]  (runtime counters, gauges, latency histograms)\n\
         cancel:   --addr host:port --job ID\n\
         shutdown: --addr host:port [--drain]  (--drain: finish active jobs first)\n\
         \n\
         host keys: `gncg list-factories`"
    );
    std::process::exit(2);
}
