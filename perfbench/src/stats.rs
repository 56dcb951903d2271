//! Order statistics shared by every scenario.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`): the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Index of the nearest-rank `q` quantile in a sorted list of `n`.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the `q` quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

/// The smallest sample count whose `q` quantile has at least ten samples
/// beyond it: the floor every reported tail percentile is held to.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= 10)
        .expect("some n suffices")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(beyond(100, 0.99), 1);
    }

    #[test]
    fn tail_floors() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.95), 200);
        assert!(beyond(min_samples(0.99), 0.99) >= 10);
    }
}
