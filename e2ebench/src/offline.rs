//! The offline workloads: swap-heavy, br-grid, and large-n grids run
//! through the same entry points `gncg grid` uses.

use std::time::{Duration, Instant};

use gncg_suite::grid::stream_cells;
use gncg_suite::scenario::{Cell, Runner};
use gncg_suite::sink::{CellSink, JsonlSink};

use crate::calib::{self, Kernel};
use crate::plan::{self, Workload};
use crate::report::{line_digests, Tally};
use crate::stats;
use crate::trace::{self, Span, Totals};
use crate::{layer_values, secs, Measured, SETUP_REPS};

/// The cells of timed pass `k`.
fn pass_cells(w: Workload, seed: u64, k: u64) -> Vec<Cell> {
    plan::offline_pass(w, seed, k)
        .iter()
        .flat_map(|spec| spec.expand())
        .collect()
}

/// Runs `cells` over the pool through the grid streamer into memory.
fn stream(cells: &[Cell]) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    stream_cells(cells, &mut sink).expect("in-memory sink cannot fail");
    sink.into_inner()
}

/// Compares `got` against the line digests `want` line by line, counting
/// each cell as attempted and each differing or missing line as failed.
fn check_lines(tally: &mut Tally, what: &str, cells: usize, got: &[u8], want: &[u64]) {
    let got = line_digests(got);
    for i in 0..cells {
        let ok = got.get(i).is_some() && got.get(i) == want.get(i);
        tally.record((!ok).then(|| format!("{what}: cell line {i} differs")));
    }
}

/// One set-up: spec expansion, pool warm-up, and — where a golden file
/// is committed — the preset grid byte-checked against it.
fn set_up(w: Workload, seed: u64, tally: &mut Tally) {
    let first = pass_cells(w, seed, 1);
    assert!(!first.is_empty());
    match plan::golden(w) {
        Some(golden) => {
            let cells = plan::preset(w).expand();
            let got = stream(&cells);
            check_lines(
                tally,
                "golden",
                cells.len(),
                &got,
                &line_digests(golden.as_bytes()),
            );
        }
        None => {
            stream(&plan::large_n_warmup().expand());
        }
    }
}

/// A pool pass: its cells, the digests of their JSONL lines (not the
/// bytes, so that the run's memory does not depend on what the cells
/// print), and its wall time.
struct Pass {
    cells: Vec<Cell>,
    lines: Vec<u64>,
    wall: Duration,
}

/// Pass `k` over the pool through the grid streamer.
fn pool_pass(w: Workload, seed: u64, k: u64) -> Pass {
    let cells = pass_cells(w, seed, k);
    let t = Instant::now();
    let bytes = stream(&cells);
    let wall = t.elapsed();
    Pass {
        cells,
        lines: line_digests(&bytes),
        wall,
    }
}

/// Runs `cells` one at a time inside `with_sequential` (the
/// single-thread baseline), checks the lines against the pool's, and
/// returns the wall time in seconds.
fn sequential(cells: &[Cell], pool_lines: &[u64], k: usize, tally: &mut Tally) -> f64 {
    let (bytes, wall) = rayon::with_sequential(|| {
        let mut runner = Runner::new();
        let mut sink = JsonlSink::new(Vec::new());
        let t = Instant::now();
        for cell in cells {
            sink.emit(&runner.run_cell(cell))
                .expect("in-memory sink cannot fail");
        }
        (sink.into_inner(), t.elapsed().as_secs_f64())
    });
    check_lines(
        tally,
        &format!("pass {k}: pool vs 1 thread"),
        cells.len(),
        &bytes,
        pool_lines,
    );
    wall
}

/// The untraced run: end-to-end metrics, timings in reference
/// milliseconds (see `calib.rs`), memory as the peak through set-up.
///
/// The run's [`plan::passes`] passes go over the pool through the grid
/// streamer, each a fresh grid submit, and are timed again round after
/// round while another round fits in `seconds`; a pass's time is its
/// mean over the rounds. Every rerun is byte-checked against the first
/// run, and the first pass also against a single-thread run.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Measured {
    let mut tally = Tally::default();
    let mut kernel = Kernel::new();
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| kernel.measure(|| set_up(w, seed, &mut tally)).1.ref_ns / 1e9)
        .collect();
    let setup_s = stats::median(&mut setups);
    // The set-ups ran the preset grid, the same input for every seed; the
    // passes' peak depends on which cells the seed draws.
    let peak_rss = crate::peak_rss_mb();

    let started = Instant::now();
    let mut timed = Vec::new();
    let passes: Vec<Pass> = (1..=plan::passes(w))
        .map(|k| {
            let (pass, t) = kernel.measure(|| pool_pass(w, seed, k));
            timed.push(t);
            pass
        })
        .collect();
    let wall_ns: u64 = passes.iter().map(|p| p.wall.as_nanos() as u64).sum();
    let round = started.elapsed();
    let mut pass_ref_ns: Vec<f64> = timed.iter().map(|t| t.ref_ns).collect();
    let mut rounds = 1;
    while (started.elapsed() + round).as_secs_f64() <= seconds {
        for (i, pass) in passes.iter().enumerate() {
            let (bytes, t) = kernel.measure(|| stream(&pass.cells));
            pass_ref_ns[i] += t.ref_ns;
            timed.push(t);
            check_lines(
                &mut tally,
                &format!("pass {}: pool rerun", i + 1),
                pass.cells.len(),
                &bytes,
                &pass.lines,
            );
        }
        rounds += 1;
    }
    sequential(&passes[0].cells, &passes[0].lines, 1, &mut tally);

    let cells: usize = passes.iter().map(|p| p.cells.len()).sum();
    let mut fresh_ms: Vec<f64> = pass_ref_ns
        .iter()
        .map(|ns| ns / rounds as f64 / 1e6)
        .collect();
    let fresh = stats::summarize(&mut fresh_ms).expect("at least one pass ran");
    let cpu_ns: u64 = timed.iter().map(|t| t.cpu_ns).sum();
    let ref_ns: f64 = timed.iter().map(|t| t.ref_ns).sum();
    let mut m = Measured::new(tally);
    m.note(format!(
        "{} passes of {cells} cells in {rounds} rounds; fresh: p50 and p{} of {} passes",
        passes.len(),
        fresh.tail_q,
        fresh.count
    ));
    m.note(format!(
        "as measured: {:.4} CPU ms per cell (host at {:.3} of reference speed); first round {:.1} cells per wall second",
        cpu_ns as f64 / 1e6 / (cells * rounds) as f64,
        (ref_ns / cpu_ns as f64).powf(1.0 / calib::ELASTICITY),
        cells as f64 / (wall_ns as f64 / 1e9)
    ));
    m.set("ref_ms_per_cell", ref_ns / 1e6 / (cells * rounds) as f64);
    m.set("fresh_submit_ref_p50_ms", fresh.p50);
    m.set("fresh_submit_ref_p99_ms", fresh.tail);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss);
    m
}

/// The traced run: per-layer metrics. Untraced pool passes first, then
/// the same passes replayed layer by layer (the bytes must match, and the
/// wall-time difference is the tracing overhead), then the same cells
/// one at a time for the single-thread rate.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, spans: &mut Vec<Span>) -> Measured {
    let mut tally = Tally::default();
    set_up(w, seed, &mut tally);
    let budget = Duration::from_secs_f64(seconds * 0.25);
    let started = Instant::now();
    let mut passes = vec![pool_pass(w, seed, 1)];
    while started.elapsed() < budget {
        passes.push(pool_pass(w, seed, passes.len() as u64 + 1));
    }
    let untraced_ns: u64 = passes.iter().map(|p| p.wall.as_nanos() as u64).sum();

    let epoch = Instant::now();
    let mut totals = Totals::default();
    let mut traced_ns = 0u64;
    for (k, pass) in passes.iter().enumerate() {
        let out = trace::replay_pass(&pass.cells, epoch, k as u64 + 1);
        check_lines(
            &mut tally,
            &format!("pass {}: traced vs untraced", k + 1),
            pass.cells.len(),
            &out.bytes,
            &pass.lines,
        );
        traced_ns += out.wall_ns;
        totals.merge(&out.totals);
        spans.extend(out.spans);
    }
    let mut m = Measured::new(tally);
    let overhead_pct = (traced_ns as f64 / untraced_ns as f64 - 1.0) * 100.0;
    m.note(format!(
        "trace: {} passes, untraced {} s, traced {} s, overhead {overhead_pct:.2} %",
        passes.len(),
        secs(untraced_ns),
        secs(traced_ns)
    ));
    layer_values(&mut m, &totals, traced_ns);
    let seq: f64 = passes
        .iter()
        .enumerate()
        .map(|(k, p)| sequential(&p.cells, &p.lines, k + 1, &mut m.tally))
        .sum();
    m.set("pool.cells_per_s_1t", totals.cells as f64 / seq);
    m.set("trace.overhead_pct", overhead_pct);
    let mut wall_ms: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect();
    let wall = stats::summarize(&mut wall_ms).expect("at least one pass ran");
    m.set(
        "wall.cells_per_s",
        totals.cells as f64 / (untraced_ns as f64 / 1e9),
    );
    m.set("wall.fresh_submit_p50_ms", wall.p50);
    m.set("wall.fresh_submit_p99_ms", wall.tail);
    m
}
