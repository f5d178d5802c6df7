//! Minima, medians and the tail rule.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile of sorted `v` at `q` in `[0, 1]`.
fn nearest_rank(v: &[f64], q: f64) -> f64 {
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// The tail of a sample: the highest percentile on the ladder with at
/// least ten samples beyond it. Returns `(percentile, value)`; the
/// percentile is `100` (the maximum) when the sample is too small for
/// any rung.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    for q in TAIL_LADDER {
        let rank = (q * n as f64).ceil() as usize;
        if n - rank.min(n) >= 10 {
            return (q * 100.0, nearest_rank(&v, q));
        }
    }
    (100.0, v[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 30.0));
        assert_eq!(tail(&[5.0, 1.0]), (100.0, 5.0));
    }
}
