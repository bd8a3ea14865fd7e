//! daemon-mix: an in-process daemon on a loopback port, with its journal
//! and a disk cache in a fresh directory, under a closed loop of one
//! client that waits for each stream before its next submit.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gncg_service::client::wait_for_daemon;
use gncg_service::json::{self, Value};
use gncg_service::{Client, Server, ServiceConfig};
use gncg_suite::grid::stream_cells;
use gncg_suite::scenario::{Cell, ScenarioSpec};
use gncg_suite::sink::JsonlSink;

use crate::calib::{self, Kernel};
use crate::cpu::Stopwatch;
use crate::plan::{self, Op, Schedule};
use crate::report::{digest, Tally};
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::{layer_values, secs, Measured, SETUP_REPS};

/// Share of the run the client loop measures (checking the streams
/// against offline runs takes most of the rest).
const LOOP_SHARE: f64 = 0.7;

/// Submits between two reference-kernel samples of the untraced loop.
const BLOCK: usize = 8;

/// Result-cache entries the daemon keeps (least recently used evicted):
/// ten times the repeat pool's cells, which half of all submits keep
/// fresh, and a bound on the run's memory however many fresh cells a
/// fast host submits.
const CACHE_MAX: usize = 256;

/// Finished jobs the daemon keeps. The client streams each job right
/// after its submit and never again; a small count keeps the run's
/// memory from depending on how many jobs a fast host finishes.
const RETAIN_JOBS: usize = 32;

/// A daemon started for this run.
struct Daemon {
    server: Server,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let server = Server::start(
            "127.0.0.1:0",
            ServiceConfig {
                journal_path: Some(dir.join("jobs.journal")),
                cache_path: Some(dir.join("results.cache")),
                cache_max: Some(CACHE_MAX),
                retain: RETAIN_JOBS,
                workers: rayon::current_num_threads(),
                ..ServiceConfig::default()
            },
        )?;
        let addr = server.local_addr().to_string();
        wait_for_daemon(&addr, 10_000)?;
        Ok(Daemon { server, addr, dir })
    }

    fn stop(self) {
        self.server.shutdown();
        self.server.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// The daemon's `metrics` snapshot.
    fn metrics(&self) -> Result<Value, String> {
        Client::connect(&self.addr)?.metrics()
    }
}

/// Stream bytes plus the instant the first line arrived.
#[derive(Default)]
struct Capture {
    bytes: Vec<u8>,
    first: Option<Instant>,
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.first.get_or_insert_with(Instant::now);
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a client saw of one submit.
struct Reply {
    /// Submit to last streamed line.
    total_ms: f64,
    /// Submit to acknowledgement.
    ack_ms: f64,
    /// Submit to first streamed line.
    first_ms: f64,
    /// Process CPU time from the submit to the last streamed line.
    cpu_ns: u64,
    /// The same on the reference host (set by the untraced loop).
    ref_ms: f64,
    cells: usize,
    /// Digest of the streamed bytes (8 bytes kept per reply, however
    /// many replies a fast host streams).
    digest: u64,
}

/// One finished submit.
struct Sample {
    op: Op,
    reply: Reply,
}

/// Submits `spec` and drains its stream, recording client spans when a
/// recorder is given.
fn submit(
    client: &mut Client,
    spec: &ScenarioSpec,
    rec: Option<(&mut Recorder, u64)>,
) -> Result<(Reply, Vec<u8>), String> {
    let t0 = Instant::now();
    let cpu = Stopwatch::start();
    let ack = client.submit(spec)?;
    let t_ack = Instant::now();
    let mut out = Capture::default();
    let summary = client.stream_to(ack.job, &mut out)?;
    let cpu_ns = cpu.ns();
    let t_end = Instant::now();
    if summary.cells != ack.cells {
        return Err(format!(
            "short stream: {}/{} cells",
            summary.cells, ack.cells
        ));
    }
    let t_first = out.first.unwrap_or(t_end);
    if let Some((rec, group)) = rec {
        let root = rec.id();
        for (name, a, b) in [
            ("service.ack", t0, t_ack),
            ("service.first_line", t_ack, t_first),
            ("service.drain", t_first, t_end),
        ] {
            let id = rec.id();
            rec.push(group, id, root, name, a, b);
        }
        rec.push(group, root, 0, "service.submit", t0, t_end);
    }
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let reply = Reply {
        total_ms: ms(t0, t_end),
        ack_ms: ms(t0, t_ack),
        first_ms: ms(t0, t_first),
        cpu_ns,
        ref_ms: 0.0,
        cells: ack.cells,
        digest: digest(&out.bytes),
    };
    Ok((reply, out.bytes))
}

/// The client's closed loop until `deadline`, recording spans into `rec`
/// when given. With a kernel, every [`BLOCK`] submits lie between two
/// kernel samples, which put their CPU times on the reference host.
fn client_loop(
    addr: &str,
    pool: &[ScenarioSpec],
    schedule: &mut Schedule,
    deadline: Instant,
    mut rec: Option<&mut Recorder>,
    mut kernel: Option<&mut Kernel>,
) -> (Vec<Sample>, Tally) {
    let mut samples: Vec<Sample> = Vec::new();
    let mut tally = Tally::default();
    let mut client = Client::connect(addr);
    let mut group = 1u64 << 32;
    let mut before = kernel.as_deref_mut().map(Kernel::time_ns);
    let mut block = 0;
    while Instant::now() < deadline {
        let op = schedule.next().expect("schedules are endless");
        let spec = match &op {
            Op::Fresh(spec) => spec,
            Op::Repeat(i) => &pool[*i],
        };
        group += 1;
        let result = client
            .as_mut()
            .map_err(|e| e.clone())
            .and_then(|c| submit(c, spec, rec.as_deref_mut().map(|r| (r, group))));
        match result {
            Ok((reply, _)) => {
                tally.record(None);
                samples.push(Sample { op, reply });
            }
            Err(e) => {
                tally.record(Some(format!("submit: {e}")));
                client = Client::connect(addr);
            }
        }
        if samples.len() - block == BLOCK || Instant::now() >= deadline {
            if let (Some(k), Some(b)) = (kernel.as_deref_mut(), before) {
                let after = k.time_ns();
                for s in &mut samples[block..] {
                    s.reply.ref_ms = calib::to_reference(s.reply.cpu_ns, &[b, after]) / 1e6;
                }
                before = Some(after);
            }
            block = samples.len();
        }
    }
    (samples, tally)
}

/// One set-up: daemon start in a fresh directory and the repeat pool
/// submitted once, so later repeats are cache hits. Returns the pool's
/// streamed bytes.
fn set_up(
    dir: PathBuf,
    pool: &[ScenarioSpec],
    tally: &mut Tally,
) -> Result<(Daemon, Vec<Vec<u8>>), String> {
    let daemon = Daemon::start(dir)?;
    let mut client = Client::connect(&daemon.addr)?;
    let mut warm = Vec::with_capacity(pool.len());
    for spec in pool {
        let (_, bytes) = submit(&mut client, spec, None)?;
        tally.record(None);
        warm.push(bytes);
    }
    Ok((daemon, warm))
}

/// Set-up repeated `reps` times (each in its own directory, all but the
/// last daemon stopped); returns the last daemon, its pool bytes, and the
/// median set-up time on the reference host, in seconds.
fn set_up_reps(
    work: &Path,
    reps: usize,
    pool: &[ScenarioSpec],
    tally: &mut Tally,
    kernel: &mut Kernel,
) -> Result<(Daemon, Vec<Vec<u8>>, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        if let Some((daemon, _)) = last.take() {
            Daemon::stop(daemon);
        }
        let (up, t) = kernel.measure(|| set_up(work.join(format!("daemon-{rep}")), pool, tally));
        last = Some(up?);
        times.push(t.ref_ns / 1e9);
    }
    let (daemon, warm) = last.expect("at least one set-up");
    Ok((daemon, warm, stats::median(&mut times)))
}

/// The offline bytes of each spec, from one grid-streamer call over all
/// their cells, split back per spec.
fn offline_bytes(specs: &[&ScenarioSpec]) -> (Vec<Vec<u8>>, Vec<Cell>, Vec<u8>, u64) {
    let cells: Vec<Cell> = specs.iter().flat_map(|s| s.expand()).collect();
    let t = Instant::now();
    let mut sink = JsonlSink::new(Vec::new());
    stream_cells(&cells, &mut sink).expect("in-memory sink cannot fail");
    let wall_ns = t.elapsed().as_nanos() as u64;
    let all = sink.into_inner();
    let mut lines = all.split_inclusive(|&b| b == b'\n');
    let per_spec = specs
        .iter()
        .map(|s| {
            lines
                .by_ref()
                .take(s.cell_count())
                .flatten()
                .copied()
                .collect()
        })
        .collect();
    (per_spec, cells, all, wall_ns)
}

/// Whether every converged metered cell in `bytes` ends at zero regret.
fn regret_ok(bytes: &[u8]) -> Result<(), String> {
    for line in String::from_utf8_lossy(bytes).lines() {
        let v = json::parse(line).map_err(|e| format!("unparsable line: {e}"))?;
        if v.get("outcome").and_then(Value::as_str) != Some("converged") {
            continue;
        }
        let last = v
            .get("max_regret")
            .and_then(Value::as_arr)
            .and_then(|a| a.last())
            .and_then(Value::as_f64);
        if last != Some(0.0) {
            return Err(format!("converged metered cell ends at regret {last:?}"));
        }
    }
    Ok(())
}

/// Fresh specs an untraced run's check streams offline at once, so that
/// its memory does not grow with the number of submits.
const VERIFY_CHUNK: usize = 64;

/// Checks every sample's stream against the offline bytes of its spec
/// (repeats against the pool, the pool against offline) and the regret
/// rule. With `keep`, returns the fresh specs' cells and offline bytes,
/// and the offline streaming's wall time, for the trace.
fn verify(
    samples: &[Sample],
    pool: &[ScenarioSpec],
    warm: &[Vec<u8>],
    tally: &mut Tally,
    keep: bool,
) -> (Vec<Cell>, Vec<u8>, u64) {
    let (pool_offline, _, _, _) = offline_bytes(&pool.iter().collect::<Vec<_>>());
    for (i, (w, o)) in warm.iter().zip(&pool_offline).enumerate() {
        if w != o {
            tally.fail(format!(
                "repeat pool spec {i}: daemon bytes differ from offline"
            ));
        } else if let Err(e) = regret_ok(w) {
            tally.fail(format!("repeat pool spec {i}: {e}"));
        }
    }
    let warm_digests: Vec<u64> = warm.iter().map(|w| digest(w)).collect();
    let mut fresh: Vec<(&Sample, &ScenarioSpec)> = Vec::new();
    for s in samples {
        match &s.op {
            Op::Fresh(spec) => fresh.push((s, spec)),
            Op::Repeat(i) => {
                if s.reply.digest != warm_digests[*i] {
                    tally.fail("repeat submit: streamed bytes differ from offline".into());
                }
            }
        }
    }
    let (mut cells, mut all, mut wall_ns) = (Vec::new(), Vec::new(), 0);
    // The trace compares its replay with one offline streaming of them all.
    let chunk_len = if keep {
        fresh.len().max(1)
    } else {
        VERIFY_CHUNK
    };
    for chunk in fresh.chunks(chunk_len) {
        let specs: Vec<&ScenarioSpec> = chunk.iter().map(|(_, spec)| *spec).collect();
        let (per_spec, c, a, ns) = offline_bytes(&specs);
        for ((s, _), want) in chunk.iter().zip(&per_spec) {
            if s.reply.digest != digest(want) {
                tally.fail("fresh submit: streamed bytes differ from offline".into());
            } else if let Err(e) = regret_ok(want) {
                tally.fail(format!("fresh submit: {e}"));
            }
        }
        if keep {
            cells.extend(c);
            all.extend(a);
            wall_ns += ns;
        }
    }
    (cells, all, wall_ns)
}

/// `f` of every fresh (or every repeat) reply.
fn ms_where<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    fresh: bool,
    f: impl Fn(&Reply) -> f64,
) -> Vec<f64> {
    samples
        .into_iter()
        .filter(|s| matches!(s.op, Op::Fresh(_)) == fresh)
        .map(|s| f(&s.reply))
        .collect()
}

/// The untraced run: end-to-end metrics, timings in reference
/// milliseconds (see `calib.rs`), memory as the peak of the whole run
/// (bounded by the daemon's cache cap and job retention, not by how many
/// submits the host's speed allows).
pub fn run(seed: u64, seconds: f64, work: &Path) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut kernel = Kernel::new();
    let pool = plan::repeat_pool();
    let (daemon, warm, setup_s) = set_up_reps(work, SETUP_REPS, &pool, &mut tally, &mut kernel)?;
    let mut schedule = Schedule::new(seed, 0);
    let started = Instant::now();
    let (samples, t) = client_loop(
        &daemon.addr,
        &pool,
        &mut schedule,
        started + Duration::from_secs_f64(seconds * LOOP_SHARE),
        None,
        Some(&mut kernel),
    );
    let wall = started.elapsed().as_secs_f64();
    tally.merge(t);
    daemon.stop();

    let mut fresh = ms_where(&samples, true, |r| r.ref_ms);
    let fresh = stats::summarize(&mut fresh).ok_or("no fresh submit finished")?;
    let cells: usize = samples.iter().map(|s| s.reply.cells).sum();
    let ref_ms: f64 = samples.iter().map(|s| s.reply.ref_ms).sum();
    let cpu_ms = samples.iter().map(|s| s.reply.cpu_ns).sum::<u64>() as f64 / 1e6;
    verify(&samples, &pool, &warm, &mut tally, false);

    let mut m = Measured::new(tally);
    m.note(format!(
        "one client: {} submits, {cells} cells; fresh: p50 and p{} of {} submits",
        samples.len(),
        fresh.tail_q,
        fresh.count
    ));
    m.note(format!(
        "as measured: {:.4} CPU ms per cell (host at {:.3} of reference speed); {:.1} cells per wall second",
        cpu_ms / cells as f64,
        (ref_ms / cpu_ms).powf(1.0 / calib::ELASTICITY),
        cells as f64 / wall
    ));
    m.set("ref_ms_per_cell", ref_ms / cells as f64);
    m.set("fresh_submit_ref_p50_ms", fresh.p50);
    m.set("fresh_submit_ref_p99_ms", fresh.tail);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", crate::peak_rss_mb());
    Ok(m)
}

/// A counter's growth between two `metrics` snapshots.
fn delta(before: &Value, after: &Value, key: &str) -> f64 {
    let get = |v: &Value| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    get(after) - get(before)
}

/// A histogram's growth between two snapshots: its observation count and
/// the median of the new observations (bucket upper bound, µs).
fn histogram_delta(before: &Value, after: &Value, key: &str) -> (u64, f64) {
    let buckets = |v: &Value| -> Vec<(u64, u64)> {
        v.get(key)
            .and_then(|h| h.get("buckets"))
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|b| {
                let b = b.as_arr()?;
                Some((b.first()?.as_u64()?, b.get(1)?.as_u64()?))
            })
            .collect()
    };
    let old = buckets(before);
    let grown: Vec<(u64, u64)> = buckets(after)
        .into_iter()
        .map(|(le, n)| {
            let was = old.iter().find(|(l, _)| *l == le).map_or(0, |(_, c)| *c);
            (le, n - was)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    let count: u64 = grown.iter().map(|(_, n)| n).sum();
    let mut seen = 0;
    let p50 = grown
        .iter()
        .find(|(_, n)| {
            seen += n;
            2 * seen >= count
        })
        .map_or(0.0, |(le, _)| *le as f64);
    (count, p50)
}

/// The traced run: per-layer metrics. The client loop records a span per
/// submit phase and the daemon's `metrics` op gives server-side deltas;
/// then the fresh cells are replayed layer by layer (meter on, as
/// submitted, and meter off) and checked against the untraced offline
/// bytes.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    work: &Path,
    spans: &mut Vec<Span>,
) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let pool = plan::repeat_pool();
    let (daemon, warm, _) = set_up_reps(work, 1, &pool, &mut tally, &mut Kernel::new())?;
    let epoch = Instant::now();
    let mut recorder = Recorder::new(epoch, 1 << 30);
    let mut schedule = Schedule::new(seed, 0);
    let before = daemon.metrics()?;
    let started = Instant::now();
    let (samples, t) = client_loop(
        &daemon.addr,
        &pool,
        &mut schedule,
        started + Duration::from_secs_f64(seconds * 0.4),
        Some(&mut recorder),
        None,
    );
    let loop_wall = started.elapsed().as_secs_f64();
    let after = daemon.metrics()?;
    tally.merge(t);
    let mut pings = Vec::new();
    let mut client = Client::connect(&daemon.addr)?;
    for _ in 0..200 {
        let t = Instant::now();
        client.ping()?;
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    daemon.stop();
    spans.extend(recorder.spans);

    let (cells, offline, untraced_ns) = verify(&samples, &pool, &warm, &mut tally, true);
    let on = trace::replay_pass(&cells, epoch, 1);
    if on.bytes != offline {
        tally.fail("traced replay bytes differ from the untraced run".into());
    }
    let off_cells: Vec<Cell> = cells
        .iter()
        .map(|c| Cell {
            regret_meter: false,
            ..c.clone()
        })
        .collect();
    let off = trace::replay_pass(&off_cells, epoch, 2);
    for (a, b) in off
        .bytes
        .split(|&b| b == b'\n')
        .zip(on.bytes.split(|&b| b == b'\n'))
    {
        if !a.is_empty() && !b.starts_with(&a[..a.len() - 1]) {
            tally.fail("meter-on line does not extend the meter-off line".into());
        }
    }
    spans.extend(on.spans);

    let mut m = Measured::new(tally);
    let overhead_pct = (on.wall_ns as f64 / untraced_ns as f64 - 1.0) * 100.0;
    m.note(format!(
        "trace: {} submits, {} fresh cells, untraced {} s, traced {} s, overhead {overhead_pct:.2} %",
        samples.len(),
        cells.len(),
        secs(untraced_ns),
        secs(on.wall_ns)
    ));
    layer_values(&mut m, &on.totals, on.wall_ns);
    let per_cell_ms = |ns: u64, n: u64| ns as f64 / n.max(1) as f64 / 1e6;
    m.set(
        "engine.meter_ms",
        per_cell_ms(on.totals.engine_ns, on.totals.cells)
            - per_cell_ms(off.totals.engine_ns, off.totals.cells),
    );
    m.set("trace.overhead_pct", overhead_pct);

    let p50 = |mut xs: Vec<f64>| stats::summarize(&mut xs).map_or(0.0, |s| s.p50);
    m.set(
        "client.fresh_ack_p50_ms",
        p50(ms_where(&samples, true, |s| s.ack_ms)),
    );
    m.set(
        "client.fresh_first_line_p50_ms",
        p50(ms_where(&samples, true, |s| s.first_ms)),
    );
    m.set(
        "client.repeat_ack_p50_ms",
        p50(ms_where(&samples, false, |s| s.ack_ms)),
    );
    m.set(
        "client.repeat_stream_p50_ms",
        p50(ms_where(&samples, false, |s| s.total_ms - s.ack_ms)),
    );
    m.set("client.ping_p50_us", p50(pings));
    let streamed: usize = samples.iter().map(|s| s.reply.cells).sum();
    m.set("wall.cells_per_s", streamed as f64 / loop_wall);
    let mut fresh_wall = ms_where(&samples, true, |s| s.total_ms);
    if let Some(f) = stats::summarize(&mut fresh_wall) {
        m.set("wall.fresh_submit_p50_ms", f.p50);
        m.set("wall.fresh_submit_p99_ms", f.tail);
    }
    let mut repeat = ms_where(&samples, false, |s| s.total_ms);
    if let Some(r) = stats::summarize(&mut repeat) {
        m.note(format!(
            "repeat submits: p50 and p{} of {}",
            r.tail_q, r.count
        ));
        m.set("client.repeat_submit_p50_ms", r.p50);
        m.set("client.repeat_submit_p99_ms", r.tail);
    }

    m.set(
        "server.cells_simulated",
        delta(&before, &after, "cells_simulated"),
    );
    m.set(
        "server.cells_from_cache",
        delta(&before, &after, "cells_from_cache"),
    );
    let hits = delta(&before, &after, "cache_hits");
    let misses = delta(&before, &after, "cache_misses");
    m.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    let busy_ms = |v: &Value| {
        let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        f("worker_busy_fraction") * f("uptime_ms") * f("workers")
    };
    let budget_ms = delta(&before, &after, "uptime_ms")
        * after.get("workers").and_then(Value::as_f64).unwrap_or(1.0);
    m.set(
        "server.worker_busy_frac",
        (busy_ms(&after) - busy_ms(&before)) / budget_ms.max(1.0),
    );
    let (_, job_p50) = histogram_delta(&before, &after, "job_wall_us");
    m.set("server.job_wall_p50_us", job_p50);
    let (fsyncs, fsync_p50) = histogram_delta(&before, &after, "journal_fsync_us");
    m.set("journal.fsyncs", fsyncs as f64);
    m.set("journal.fsync_p50_us", fsync_p50);
    Ok(m)
}
