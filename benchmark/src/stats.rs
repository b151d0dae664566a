//! Order statistics for timing samples: medians, quartiles, and the tail
//! percentile a sample is large enough to support.

/// Sorted copy of `values` (NaN-free by construction: every sample is a
/// measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty sample (a metric that did not apply).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median, third quartile — the cut points Python's
/// `statistics.quantiles(values, n=4)` returns (its default "exclusive"
/// method), which is what the driver computes spreads from. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Distance between the largest and the smallest value, as a share of the
/// median: the widest disagreement between any two runs.
pub fn max_rel_spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if hi > lo {
        (hi - lo) / median(values).abs()
    } else {
        0.0
    }
}

/// Percentiles a tail may be reported at, ascending, in tenths of a percent
/// (whole numbers, so ranks are exact).
const TAIL_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 with at least
/// ten samples beyond it, and its value (nearest-rank). With fewer than
/// twenty samples no percentile qualifies and the median is returned.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    // Nearest-rank position (1-based) of a percentile among the n samples.
    let rank = |per_mille: usize| (n * per_mille).div_ceil(1000).clamp(1, n);
    let per_mille =
        TAIL_PER_MILLE.into_iter().rev().find(|&p| n - rank(p) >= 10).unwrap_or(TAIL_PER_MILLE[0]);
    (per_mille as f64 / 10.0, v[rank(per_mille) - 1])
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
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some([1.5, 4.0, 12.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_the_range_over_the_median() {
        assert_eq!(max_rel_spread(&[90.0, 100.0, 120.0]), 0.3);
        assert_eq!(max_rel_spread(&[]), 0.0);
        assert_eq!(max_rel_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: even the median has only 9 beyond it.
        assert_eq!(tail(&samples(19)), (50.0, 10.0));
        // 20 samples: rank(50) = 10, ten beyond.
        assert_eq!(tail(&samples(20)), (50.0, 10.0));
        // 60 samples: p75 leaves 15 beyond, p90 only 6.
        assert_eq!(tail(&samples(60)), (75.0, 45.0));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&samples(100)), (90.0, 90.0));
        // 1000 samples: p99 leaves exactly 10, p99.9 leaves 1.
        assert_eq!(tail(&samples(1000)), (99.0, 990.0));
        assert_eq!(tail(&samples(10_000)), (99.9, 9990.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }
}
