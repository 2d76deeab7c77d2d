//! Order statistics over exact samples. Percentiles are nearest-rank on the
//! sorted samples themselves — never bucket upper bounds, which is how the
//! old `churn` bench reported a p50 above its max.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the value at
/// rank ⌈p/100 · n⌉ of the sorted samples. Sorts in place. `None` when empty.
pub fn percentile<T: Copy + Ord>(samples: &mut [T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `values`: the middle one, or the mean of the middle two.
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Throughput of a run cut into segments of identical work: `ops_per_segment`
/// over the median segment time. One neighbour burst on a shared VM slows a
/// segment or two and leaves the median where it was.
pub fn median_segment_rate(ops_per_segment: u64, segment_seconds: &[f64]) -> Option<f64> {
    median(segment_seconds).map(|s| ops_per_segment as f64 / s)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method): the spread the benchmark contract is judged by.
/// `None` for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lower = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lower as f64;
        sorted[lower - 1] + frac * (sorted[lower] - sorted[lower - 1])
    };
    let med = median(&sorted)?;
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let mut v = vec![15u64, 20, 35, 40, 50];
        assert_eq!(percentile(&mut v, 5.0), Some(15));
        assert_eq!(percentile(&mut v, 30.0), Some(20));
        assert_eq!(percentile(&mut v, 40.0), Some(20));
        assert_eq!(percentile(&mut v, 50.0), Some(35));
        assert_eq!(percentile(&mut v, 100.0), Some(50));
        let mut hundred: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut hundred, 50.0), Some(50));
        assert_eq!(percentile(&mut hundred, 99.0), Some(99));
        assert_eq!(percentile(&mut hundred, 99.9), Some(100));
        assert_eq!(percentile::<u64>(&mut [], 50.0), None);
        assert_eq!(percentile(&mut [7u64], 99.0), Some(7));
    }

    #[test]
    fn a_percentile_never_exceeds_the_maximum() {
        let mut v = vec![466_906u64, 300_000, 310_000];
        assert!(percentile(&mut v, 50.0).unwrap() <= 466_906);
        assert_eq!(percentile(&mut v, 99.0), Some(466_906));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_segment_shrugs_off_a_burst() {
        // Five segments of 1000 ops; one hit by a neighbour burst.
        let rate = median_segment_rate(1000, &[0.010, 0.011, 0.050, 0.010, 0.012]).unwrap();
        assert!((rate - 1000.0 / 0.011).abs() < 1e-6);
        // The mean would have reported 1000 / 0.0186 ≈ 53.8k instead of 90.9k.
        assert_eq!(median_segment_rate(1000, &[]), None);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let spread = quartile_spread(&[40.0, 10.0, 20.0]).unwrap();
        assert!((spread - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
