//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads this program records
//! match the ones computed over its output.

/// The samples in ascending order (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, by the exclusive method
/// of Python's `statistics.quantiles(n=4)`. A single sample is its own
/// quartiles; no samples give zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n as i64 + 1;
    let mut q = [0.0; 3];
    for (i, slot) in (1..4i64).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative or above 4 only where the clamp moved `j`: Python
        // extrapolates from the end pair there, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// The nearest-rank `p`-quantile (`p` in `(0, 1)`), or `None` when
/// fewer than ten samples lie beyond it: a tail percentile read off
/// fewer points is one or two outliers, not a distribution. The 99th
/// percentile therefore needs at least 1 000 samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || (n as f64) * (1.0 - p) < 10.0 - 1e-9 {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn p99_is_refused_below_one_thousand_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs, 0.5), Some(500.0));
        assert_eq!(percentile(&[], 0.5), None);
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert!(percentile(&xs[..100], 0.9).is_some());
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }
}
