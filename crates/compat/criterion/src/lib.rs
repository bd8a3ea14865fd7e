//! Hermetic stand-in for `criterion`.
//!
//! Implements the bench-definition API the workspace uses
//! ([`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`], [`criterion_group!`], [`criterion_main!`]) with a
//! simple but sound measurement protocol:
//!
//! 1. warm up until ~¼ of the per-sample budget is spent,
//! 2. pick an iteration count so one sample lasts ≥ the per-sample budget,
//! 3. take `sample_size` samples and report their **median** per-iteration
//!    time (median is robust to scheduler noise on the single-core CI box)
//!    with the first and third quartiles as its noise band.
//!
//! Every benchmark prints one line and appends a JSON record under
//! `$CRITERION_LITE_OUT` (default `target/criterion-lite/`), which
//! `scripts/bench_aggregate.py` folds into `BENCH_hotpath.json`.
//!
//! Environment knobs: `CRITERION_LITE_SAMPLES` overrides every group's
//! sample size; `CRITERION_LITE_SAMPLE_MS` sets the per-sample time budget
//! (default 20 ms). A positional CLI argument is a substring filter on
//! `group/id`, mirroring `cargo bench -- <filter>`.

use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a computed value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level bench context.
pub struct Criterion {
    filter: Option<String>,
    out_dir: PathBuf,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench passes `--bench` plus any user args after `--`; a
        // non-flag argument is a substring filter.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        let out_dir = std::env::var("CRITERION_LITE_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/criterion-lite"));
        Criterion { filter, out_dir }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: env_usize("CRITERION_LITE_SAMPLES", 10),
        }
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A benchmark identifier: `function_name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An id from just a parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples (overridden by `CRITERION_LITE_SAMPLES`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if std::env::var("CRITERION_LITE_SAMPLES").is_err() {
            self.sample_size = n;
        }
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            ..Bencher::default()
        };
        f(&mut bencher, input);
        println!(
            "bench: {full:<50} median {:>12}  mean {:>12}  ({} samples)",
            fmt_ns(bencher.median_ns),
            fmt_ns(bencher.mean_ns),
            bencher.sample_size,
        );
        self.write_record(&full, &bencher);
        self
    }

    /// Runs one benchmark with no input.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = BenchmarkId { id: id.into() };
        self.bench_with_input(id, &(), |b, _| f(b))
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn write_record(&self, full: &str, b: &Bencher) {
        let dir = &self.criterion.out_dir;
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let file = dir.join(format!("{}.jsonl", sanitize(&self.name)));
        let line = format!(
            "{{\"benchmark\":\"{}\",\"median_ns\":{:.1},\"q1_ns\":{:.1},\"q3_ns\":{:.1},\"mean_ns\":{:.1},\"samples\":{}}}\n",
            full, b.median_ns, b.q1_ns, b.q3_ns, b.mean_ns, b.sample_size
        );
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&file)
        {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Passed to the bench closure; [`Bencher::iter`] performs the measurement.
#[derive(Default)]
pub struct Bencher {
    sample_size: usize,
    median_ns: f64,
    q1_ns: f64,
    q3_ns: f64,
    mean_ns: f64,
}

/// The `p`-quantile of sorted, non-empty `samples`, interpolating
/// linearly between the two nearest ranks.
fn quantile(samples: &[f64], p: f64) -> f64 {
    let pos = p * (samples.len() - 1) as f64;
    let (lo, hi) = (samples[pos.floor() as usize], samples[pos.ceil() as usize]);
    lo + (hi - lo) * pos.fract()
}

impl Bencher {
    /// Measures `f`, storing the median, quartiles and mean of the
    /// per-iteration times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let budget = Duration::from_millis(env_usize("CRITERION_LITE_SAMPLE_MS", 20) as u64);

        // Warm-up + calibration: run until ~¼ budget, counting iterations.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < budget / 4 || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters_per_sample = ((budget.as_secs_f64() / per_iter).ceil() as u64).max(1);

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples.push(t.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64);
        }
        samples.sort_by(f64::total_cmp);
        self.median_ns = quantile(&samples, 0.5);
        self.q1_ns = quantile(&samples, 0.25);
        self.q3_ns = quantile(&samples, 0.75);
        self.mean_ns = samples.iter().sum::<f64>() / samples.len() as f64;
    }
}

/// Declares a bench group runner function, as upstream criterion does.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        std::env::set_var("CRITERION_LITE_SAMPLE_MS", "1");
        let mut b = Bencher {
            sample_size: 5,
            ..Bencher::default()
        };
        b.iter(|| (0..100u64).sum::<u64>());
        assert!(b.median_ns > 0.0);
        assert!(b.mean_ns > 0.0);
        assert!(b.q1_ns <= b.median_ns && b.median_ns <= b.q3_ns);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let q = |p| quantile(&s, p);
        assert_eq!((q(0.25), q(0.5), q(0.75)), (1.75, 2.5, 3.25));
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).id, "f/3");
        assert_eq!(BenchmarkId::from_parameter(7).id, "7");
    }

    #[test]
    fn sanitize_paths() {
        assert_eq!(sanitize("a/b c"), "a_b_c");
    }
}
