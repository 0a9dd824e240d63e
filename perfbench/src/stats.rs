//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule on a
/// sorted copy; 0 for an empty slice.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the steadiness report uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    // CPython's loop, verbatim in integer arithmetic: j = i(n+1) div 4
    // clamped to [1, n-1], delta = i(n+1) - 4j (it may leave [0, 4] and
    // extrapolate on tiny samples, as Python does).
    let at = |i: i64| {
        let m = i * (n as i64 + 1);
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_python_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&[5u64, 1, 3], 0.5), 3.0);
        assert_eq!(quantile(&[5u64, 1, 3], 1.0), 5.0);
    }
}
