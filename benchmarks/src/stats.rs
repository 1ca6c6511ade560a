//! Order statistics the harness reports: medians, the tail percentile a
//! sample can support, and the quartile spread used for noise bands.

/// Nearest-rank position (1-based) of the `percent`-th percentile among
/// `count` samples, in integers so that 90 % of 100 is exactly 90.
fn rank(count: u64, percent: u64) -> u64 {
    (count * percent).div_ceil(100).clamp(1, count.max(1))
}

/// Value at the `percent`-th percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], percent: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len() as u64, percent) as usize - 1]
}

/// The highest of p99 / p95 / p90 that still has at least ten samples
/// beyond it in a sample of `count`; `None` below 100 samples, where no
/// tail percentile is supported and only the median is reported.
pub fn tail_percent(count: u64) -> Option<u64> {
    [99, 95, 90]
        .into_iter()
        .find(|&p| count >= 10 && count - rank(count, p) >= 10)
}

/// Median and supported tail of raw latency samples (nanoseconds),
/// returned in microseconds. A sample too small for any tail percentile
/// reports its maximum as the tail.
pub fn p50_and_tail_us(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    let tail = match tail_percent(samples.len() as u64) {
        Some(p) => percentile_sorted(samples, p),
        None => samples.last().copied().unwrap_or(0),
    };
    (
        percentile_sorted(samples, 50) as f64 / 1e3,
        tail as f64 / 1e3,
    )
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j.min(n - 1)] - v[j - 1])
    };
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => (at(1), at(2), at(3)),
    }
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percent(0), None);
        assert_eq!(tail_percent(99), None);
        assert_eq!(tail_percent(100), Some(90));
        assert_eq!(tail_percent(199), Some(90));
        assert_eq!(tail_percent(200), Some(95));
        assert_eq!(tail_percent(999), Some(95));
        assert_eq!(tail_percent(1000), Some(99));
    }

    #[test]
    fn p50_and_tail_pick_the_supported_percentile() {
        // 1..=1000 µs: p99 is supported, nearest-rank gives 990.
        let mut big: Vec<u64> = (1..=1000).map(|x| x * 1000).collect();
        assert_eq!(p50_and_tail_us(&mut big), (500.0, 990.0));
        // 300 samples: only p95 has ten beyond it.
        let mut mid: Vec<u64> = (1..=300).map(|x| x * 1000).collect();
        assert_eq!(p50_and_tail_us(&mut mid), (150.0, 285.0));
        // 20 samples: no tail percentile, the maximum stands in.
        let mut small: Vec<u64> = (1..=20).map(|x| x * 1000).collect();
        assert_eq!(p50_and_tail_us(&mut small), (10.0, 20.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(relative_spread(&v), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
