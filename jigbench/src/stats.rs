//! Order statistics over latency samples.
//!
//! Timings are reported as a median and a tail: the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples beyond it, printed with
//! its percentile and the sample count so a reader knows how much the tail
//! rests on.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count), as Python's
/// `statistics.median` computes it. `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean. `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// The nearest-rank value at percentile `tenths / 10`: the sample with
/// 1-based rank `ceil(tenths · n / 1000)`. `None` for no samples.
pub fn percentile_tenths(samples: &[f64], tenths: usize) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (tenths.min(1000) * n).div_ceil(1000).max(1);
    Some(sorted[rank - 1])
}

/// A tail reading: the percentile used, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in tenths of a percent (e.g. `990` is p99.0).
    pub tenths: usize,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// The percentile as a label, e.g. `p99.0`.
    pub fn label(&self) -> String {
        format!("p{}.{}", self.tenths / 10, self.tenths % 10)
    }
}

/// The highest percentile (in tenths, never below p50) whose nearest-rank
/// sample has at least [`TAIL_BEYOND`] samples beyond it. With fewer than
/// `2 · TAIL_BEYOND` samples no percentile at or above p50 qualifies and
/// the median is reported instead (labelled p50).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // rank = ceil(t·n/1000) <= n - TAIL_BEYOND  <=>  t <= 1000·(n - TAIL_BEYOND)/n.
    let tenths = (1000 * n.saturating_sub(TAIL_BEYOND) / n).max(500);
    // At p50 the tail is the median itself, so it never reads below
    // `median` for an even sample count.
    let value = if tenths == 500 { median(samples)? } else { percentile_tenths(samples, tenths)? };
    Some(Tail { tenths, value, samples: n })
}

/// The median of a cumulative wall-clock histogram, interpolated linearly
/// inside the bucket that holds it. `buckets` pairs each upper bound with
/// the cumulative count at it, ascending, ending with the `+Inf` bucket
/// (bound `f64::INFINITY`). A median in the `+Inf` bucket reports the last
/// finite bound. `None` when the histogram is empty.
pub fn histogram_median(buckets: &[(f64, f64)]) -> Option<f64> {
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = total / 2.0;
    let mut lower = (0.0, 0.0);
    for &(bound, count) in buckets {
        if count >= target {
            if !bound.is_finite() {
                return Some(lower.0);
            }
            let width = count - lower.1;
            let share = if width > 0.0 { (target - lower.1) / width } else { 1.0 };
            return Some(lower.0 + (bound - lower.0) * share);
        }
        lower = (bound, count);
    }
    Some(lower.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: helpers must not assume sorted input.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&ramp(5)), Some(3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile_tenths(&xs, 500), Some(50.0));
        assert_eq!(percentile_tenths(&xs, 900), Some(90.0));
        assert_eq!(percentile_tenths(&xs, 999), Some(100.0));
        assert_eq!(percentile_tenths(&xs, 1000), Some(100.0));
        assert_eq!(percentile_tenths(&xs, 0), Some(1.0));
        assert_eq!(percentile_tenths(&[], 500), None);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 1..=2000 {
            let xs = ramp(n);
            let t = tail(&xs).expect("non-empty");
            assert_eq!(t.samples, n);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            if n >= 2 * TAIL_BEYOND {
                assert!(beyond >= TAIL_BEYOND, "n={n} {} leaves {beyond}", t.label());
                // One tenth of a percent higher would leave fewer than ten.
                if t.tenths < 1000 {
                    let next = (t.tenths + 1) * n;
                    assert!(n - next.div_ceil(1000) < TAIL_BEYOND, "n={n}: p not the highest");
                }
            } else {
                assert_eq!(t.tenths, 500, "n={n} falls back to the median rank");
            }
        }
    }

    #[test]
    fn tail_examples() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.tenths, t.value, t.label().as_str()), (900, 90.0, "p90.0"));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.tenths, t.value), (990, 990.0));
        let t = tail(&ramp(5)).unwrap();
        assert_eq!((t.tenths, t.value), (500, 3.0));
        let t = tail(&ramp(4)).unwrap();
        assert_eq!((t.tenths, t.value), (500, 2.5));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn histogram_median_interpolates_inside_the_bucket() {
        let inf = f64::INFINITY;
        // 10 observations: 2 at <=0.001, 8 more at <=0.01.
        let h = [(0.001, 2.0), (0.01, 10.0), (inf, 10.0)];
        // target 5: 3 of the bucket's 8 → 0.001 + 0.009 * 3/8.
        let m = histogram_median(&h).unwrap();
        assert!((m - (0.001 + 0.009 * 3.0 / 8.0)).abs() < 1e-15, "{m}");
        assert_eq!(histogram_median(&[(0.001, 0.0), (inf, 0.0)]), None);
        assert_eq!(histogram_median(&[(0.5, 0.0), (inf, 4.0)]), Some(0.5));
        assert_eq!(histogram_median(&[(0.5, 4.0), (inf, 4.0)]), Some(0.25));
    }
}
