//! Order statistics for the reported metrics.

/// Nearest-rank percentile of `xs` (any order): the smallest sample with
/// at least `p`% of the samples at or below it. `p` in `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products exact: 0.99 * 1000 is
    // 990.0000000000001 in binary and must give rank 990, not 991.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentile reported for `n` samples: the highest whole
/// percentile up to 99 that still has at least ten samples beyond it
/// (p88 for 84 samples, p99 from 1000 on). Below 20 samples, the median.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99).rev().find(|&p| n - nearest_rank(n, p as f64) >= 10).unwrap_or(50)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values (0 for none).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 30.0), 3.0);
        // Textbook example: 15, 20, 35, 40, 50.
        let t = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&t, 30.0), 20.0);
        assert_eq!(percentile(&t, 40.0), 20.0);
        assert_eq!(percentile(&t, 50.0), 35.0);
        assert_eq!(percentile(&t, 100.0), 50.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(84), 88);
        assert_eq!(nearest_rank(84, 88.0), 74);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(24_000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(10), 50);
        for n in 20..3000 {
            let p = tail_percentile(n);
            assert!(n - nearest_rank(n, p as f64) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - nearest_rank(n, (p + 1) as f64) < 10, "n={n} p={p} is not the highest");
            }
        }
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
