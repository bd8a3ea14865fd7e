//! Order statistics for latency samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile `n` samples support: the highest whole
/// percentile, at most 99, that leaves at least [`TAIL_BEYOND`] samples
/// beyond its nearest rank. Below 20 samples no percentile above the
/// median qualifies, so the median is reported.
pub fn tail_percentile(n: usize) -> u32 {
    if n < 2 * TAIL_BEYOND {
        return 50;
    }
    // floor(100 · (1 − 10/n)) in integers.
    let q = (100 * (n - TAIL_BEYOND) / n) as u32;
    q.clamp(50, 99)
}

/// The nearest-rank percentile `q` (in `0..=100`) of sorted samples.
pub fn percentile(sorted: &[f64], q: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median and tail (at [`tail_percentile`]) of a sample set, with the
/// percentile used and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_q: u32,
    /// Sample count.
    pub count: usize,
}

/// Summarizes samples (sorted in place). `None` when empty.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let q = tail_percentile(samples.len());
    Some(Summary {
        p50: percentile(samples, 50),
        tail: percentile(samples, q),
        tail_q: q,
        count: samples.len(),
    })
}

/// The median of a non-empty sample set (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(n: usize, q: u32) -> usize {
        n - (q as usize * n).div_ceil(100)
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(5000), 99);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(19), 50);
        assert_eq!(tail_percentile(1), 50);
        for n in 20..3000 {
            let q = tail_percentile(n);
            assert!(beyond(n, q) >= TAIL_BEYOND, "n = {n}, q = {q}");
            // The next percentile up would leave fewer than ten beyond
            // (or q is already the p99 cap).
            assert!(
                q == 99 || beyond(n, q + 1) < TAIL_BEYOND,
                "n = {n}, q = {q}"
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[3.0], 50), 3.0);
    }

    #[test]
    fn summarize_sorts_and_counts() {
        let mut xs: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = summarize(&mut xs).unwrap();
        assert_eq!(s.count, 200);
        assert_eq!(s.tail_q, 95);
        assert_eq!(s.p50, 99.0);
        assert_eq!(s.tail, 189.0);
        assert!(summarize(&mut []).is_none());
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }
}
