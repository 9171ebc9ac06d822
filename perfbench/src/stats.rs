//! Order statistics over host-time samples.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile that still has `beyond` samples above it:
/// `(percentile, value, samples)`. With `2 × beyond` or fewer samples that
/// percentile would not lie above the median, so the maximum is reported
/// as the 100th.
pub fn tail(v: &[f64], beyond: usize) -> (f64, f64, usize) {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return (100.0, 0.0, 0);
    }
    if n <= 2 * beyond {
        return (100.0, s[n - 1], n);
    }
    let k = n - 1 - beyond;
    (100.0 * (k + 1) as f64 / n as f64, s[k], n)
}

/// Geometric mean of positive ratios; 1 when empty. The logs are summed
/// in sorted order, so the result does not depend on the job order.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    (sorted(v).iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_the_requested_samples_above() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 5), (75.0, 15.0, 20));
        assert_eq!(tail(&v, 10), (100.0, 20.0, 20));
        assert_eq!(tail(&v[..5], 10), (100.0, 5.0, 5));
        assert_eq!(median(&v[..4]), 2.5);
    }
}
