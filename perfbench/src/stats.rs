//! The benchmark's number-making: medians, quartiles and the tail rule.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method), so
/// the spreads this program prints are the ones a reader recomputes.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest whole percentile, at most 99, that leaves at least
/// [`TAIL_BEYOND`] samples above it among `n` samples (nearest-rank
/// definition: percentile `p` is the `ceil(p·n/100)`-th smallest value).
/// `None` when even the median leaves fewer than that many beyond it; with
/// so few samples no tail can be reported.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n - nearest_rank(p, n) >= TAIL_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// Value at whole percentile `p` by nearest rank.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The tail of a latency sample: `(percentile, value)` by
/// [`tail_percentile`], or `None` for a sample too small to have one.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(values.len())?;
    Some((p, percentile(values, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th value, 10 lie beyond it.
        assert_eq!(tail_percentile(1000), Some(99));
        // 999 samples: p99 would be rank 990 (9 beyond); p98 is rank 980.
        assert_eq!(tail_percentile(999), Some(98));
        // 100 samples: p90 is rank 90, exactly 10 beyond.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(n - nearest_rank(p + 1, n) < TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_value_counts_ten_above_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&values).unwrap();
        assert_eq!(p, 99);
        assert_eq!(v, 990.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&values[..19]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
