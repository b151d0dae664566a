//! Mergeable log-bucketed latency histograms (DESIGN.md §15).
//!
//! The bucketing is *fixed*: every histogram in the process uses the same
//! base-2-with-subbuckets layout, derived bit-exactly from the IEEE-754
//! representation of the recorded value (exponent + top mantissa bits).
//! Because a value's bucket index is a pure function of its bits — no
//! floating-point `log2`, no per-histogram configuration — two histograms
//! built from any partition of one value stream have *identical* bucket
//! counts after [`Hist::merge`] as the histogram of the combined stream.
//! That exact-merge property is what lets per-thread/per-query histograms
//! be folded into one distribution with no resampling error, and it is
//! property-tested in `tests/prop_hist.rs`.
//!
//! Layout: [`SUBBUCKETS`] sub-buckets per power of two (relative bucket
//! width 1/8 = 12.5%), covering 2^[`MIN_EXP`] .. 2^[`MAX_EXP`] seconds
//! (~1 ns .. ~17 min), plus an underflow bucket (index 0: zero, negatives,
//! subnormal-small values, NaN) and an overflow bucket (index
//! [`BUCKETS`]`-1`, exported as `le="+Inf"`).

/// log2 of the sub-bucket count per power of two.
pub const SUBBUCKET_BITS: u32 = 3;
/// Sub-buckets per power of two (8 → 12.5% relative bucket width).
pub const SUBBUCKETS: usize = 1 << SUBBUCKET_BITS;
/// Smallest binary exponent with its own buckets: values ≤ 2^MIN_EXP
/// (~0.93 ns) land in the underflow bucket.
pub const MIN_EXP: i32 = -30;
/// One past the largest covered exponent: values ≥ 2^MAX_EXP (1024 s) land
/// in the overflow bucket.
pub const MAX_EXP: i32 = 10;
/// Total bucket count: underflow + (MAX_EXP-MIN_EXP)×SUBBUCKETS + overflow.
pub const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUBBUCKETS + 2;

/// A fixed-layout log-bucketed histogram of nonnegative seconds.
///
/// `record` is O(1) with no allocation after construction; `merge` is an
/// element-wise add and is *exact* (see module docs). Quantile queries
/// return the upper bound of the bucket holding the rank-th smallest
/// recorded value, so the error is at most one bucket width (≤ 12.5%
/// relative) — tight enough to gate p50/p95/p99 in CI.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for `v`, a pure function of `v.to_bits()`.
///
/// For a finite positive `v = 2^e × (1 + m/2^52)`, the index is
/// `1 + (e - MIN_EXP) × SUBBUCKETS + (m >> (52 - SUBBUCKET_BITS))` — the
/// exponent picks the power-of-two band, the top three mantissa bits pick
/// the sub-bucket. Buckets are therefore lower-inclusive: `v` exactly on a
/// boundary counts in the bucket *above* it (a measure-zero skew for
/// measured durations, documented in DESIGN.md §15).
pub fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || v.is_nan() {
        return 0; // zero, negatives, NaN
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0; // includes subnormals (biased exponent 0 → exp = -1023)
    }
    if exp >= MAX_EXP || v.is_infinite() {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUBBUCKET_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUBBUCKETS + sub
}

/// Upper bound of bucket `i` in seconds. Bucket 0's bound is 2^MIN_EXP;
/// the last bucket's is `+Inf` (its Prometheus `le` label).
pub fn bucket_upper(i: usize) -> f64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        return (MIN_EXP as f64).exp2();
    }
    if i == BUCKETS - 1 {
        return f64::INFINITY;
    }
    let j = i - 1;
    let exp = MIN_EXP + (j / SUBBUCKETS) as i32;
    let sub = (j % SUBBUCKETS) as f64;
    (exp as f64).exp2() * (1.0 + (sub + 1.0) / SUBBUCKETS as f64)
}

/// Lower bound of bucket `i` in seconds (0 for the underflow bucket).
pub fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    if i == BUCKETS - 1 {
        return (MAX_EXP as f64).exp2();
    }
    let j = i - 1;
    let exp = MIN_EXP + (j / SUBBUCKETS) as i32;
    let sub = (j % SUBBUCKETS) as f64;
    (exp as f64).exp2() * (1.0 + sub / SUBBUCKETS as f64)
}

impl Hist {
    /// An empty histogram (one allocation of [`BUCKETS`] u64 slots).
    pub fn new() -> Self {
        Hist { counts: vec![0; BUCKETS], count: 0, sum: 0.0 }
    }

    /// Record one value (seconds). Non-finite and non-positive values count
    /// in the underflow bucket and contribute 0 to the sum if non-finite.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
        }
    }

    /// Fold `other` into `self`. Exact: because both sides use the same
    /// fixed bucketing, the result's buckets equal those of a histogram fed
    /// both value streams (`sum` is an f64 add, so it is exact only up to
    /// addition-order rounding).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded (finite) values, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket counts (length [`BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `q`-quantile (q in `[0, 1]`): the upper bound of the bucket holding
    /// the `ceil(q·count)`-th smallest recorded value. Returns 0 for an
    /// empty histogram; values in the overflow bucket report the overflow
    /// *lower* bound (2^MAX_EXP) rather than infinity.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if i == BUCKETS - 1 { bucket_lower(i) } else { bucket_upper(i) };
            }
        }
        bucket_lower(BUCKETS - 1)
    }

    /// Cumulative `(le, count)` pairs for Prometheus exposition: one entry
    /// per *occupied* bucket (upper bound, cumulative count ≤ that bound)
    /// plus the final `(+Inf, count)` entry.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 && i != BUCKETS - 1 {
                out.push((bucket_upper(i), cum + c));
            }
            cum += c;
        }
        out.push((f64::INFINITY, cum));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_boundary_exact() {
        // Powers of two start a fresh band: 1.0 is bucket 1 + (0-MIN_EXP)*8.
        let one = bucket_index(1.0);
        assert_eq!(one, 1 + (0 - MIN_EXP) as usize * SUBBUCKETS);
        // 1.125 = 1 + 1/8 opens the next sub-bucket (lower-inclusive).
        assert_eq!(bucket_index(1.125), one + 1);
        // Just below stays put.
        assert_eq!(bucket_index(1.1249999), one);
        assert_eq!(bucket_index(1.9999999), one + SUBBUCKETS - 1);
        assert_eq!(bucket_index(2.0), one + SUBBUCKETS);
        let mut last = 0;
        for k in 0..2000 {
            let v = 1e-9 * 1.02f64.powi(k);
            let i = bucket_index(v);
            assert!(i >= last, "bucket_index not monotone at v={v}");
            last = i;
        }
    }

    #[test]
    fn bounds_bracket_their_values() {
        for &v in &[1e-9, 3.7e-6, 0.001, 0.25, 1.0, 1.5, 999.0] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v < bucket_upper(i), "v={v} bucket={i}");
        }
        // Underflow and overflow.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-12), 0);
        assert_eq!(bucket_index(2048.0), BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        // Adjacent buckets tile: upper(i) == lower(i+1).
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_upper(i - 1), bucket_lower(i), "gap at bucket {i}");
        }
    }

    #[test]
    fn record_merge_quantile_roundtrip() {
        let mut h = Hist::new();
        for v in [0.001, 0.002, 0.004, 0.008, 0.1] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 0.115).abs() < 1e-12);
        // p50 is the 3rd smallest (0.004); answer within one bucket width.
        let p50 = h.quantile(0.5);
        assert!(p50 >= 0.004 && p50 <= 0.004 * (1.0 + 1.0 / SUBBUCKETS as f64));
        let mut a = Hist::new();
        let mut b = Hist::new();
        for v in [0.001, 0.004, 0.1] {
            a.record(v);
        }
        for v in [0.002, 0.008] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), h.bucket_counts());
        assert_eq!(a.count(), h.count());
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Hist::new();
        let mut x = 1e-6;
        for _ in 0..500 {
            h.record(x);
            x *= 1.013;
        }
        let mut last = 0.0;
        for k in 0..=100 {
            let q = k as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile not monotone at q={q}");
            last = v;
        }
    }

    #[test]
    fn cumulative_ends_with_inf_total() {
        let mut h = Hist::new();
        for v in [0.5, 0.5, 2.0, 5000.0] {
            h.record(v);
        }
        let cum = h.cumulative();
        let (le, total) = *cum.last().unwrap();
        assert!(le.is_infinite());
        assert_eq!(total, 4);
        // Cumulative counts never decrease.
        for w in cum.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn empty_hist_is_sane() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.cumulative(), vec![(f64::INFINITY, 0)]);
    }
}
