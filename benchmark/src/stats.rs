//! Order statistics: the percentile rule of the end-to-end latencies and the
//! quartile spread the `--aa` self-check (and the driver) judge a metric by.

/// Median of `values` (the mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail latency rule: a percentile is reported only when at least ten
/// samples lie beyond it — p99 from 1000 operations, p90 from 100, else the
/// median stands in.  Returns the value and the name of the percentile used.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    match values.len() {
        n if n >= 1000 => (percentile(values, 0.99), "p99"),
        n if n >= 100 => (percentile(values, 0.90), "p90"),
        _ => (median(values), "p50"),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the driver computes a metric's spread this way.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_switches_percentile_with_sample_count() {
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&few), (25.5, "p50"));
        let hundreds: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&hundreds), (180.0, "p90"));
        let thousands: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&thousands), (1980.0, "p99"));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
