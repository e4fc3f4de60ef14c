//! Order statistics used for every reported timing.

/// Nearest-rank percentile of `values` (need not be sorted): the smallest
/// sample with at least `q · n` samples at or below it. `q` is in `(0, 1]`.
/// With `n` samples the `p`-th percentile leaves `n − ceil(q · n)` samples
/// strictly beyond its rank, which is how the benchmark checks it has at
/// least ten samples past every tail it reports.
///
/// # Panics
///
/// Panics on an empty slice, a `q` outside `(0, 1]` or a NaN sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median (see [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// How many samples lie strictly beyond the rank of percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Arithmetic mean; `0` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut r = v;
        r.reverse();
        for q in [0.2, 0.5, 0.9, 1.0] {
            assert_eq!(percentile(&v, q), percentile(&r, q));
        }
    }

    #[test]
    fn samples_beyond_a_tail() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1, 0.5), 0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
