//! Sample statistics: medians, nearest-rank percentiles and the tail
//! percentile rule every timing is reported under.

/// The percentiles a tail is reported at, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 1000 = 999.000...1)
    // from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The nearest-rank percentile `p` of `samples`: the smallest sample with
/// at least `p`% of all samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest rank of `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The highest percentile of [`TAIL_LADDER`] that keeps at least
/// [`TAIL_MIN_BEYOND`] samples beyond it among `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(p, n) >= TAIL_MIN_BEYOND)
}

/// The value reported as a `_p99` metric: the 99th percentile when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it, else the highest
/// percentile of the ladder that has that many. Under 20 samples no
/// percentile has such a tail, and the median is reported instead. Returns
/// the percentile used (50 for the median) alongside the value.
pub fn tail_p99(samples: &[f64]) -> Option<(f64, f64)> {
    match tail_percentile(samples.len()) {
        Some(p) => percentile(samples, p.min(99.0)).map(|v| (p.min(99.0), v)),
        None => median(samples).map(|v| (50.0, v)),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
