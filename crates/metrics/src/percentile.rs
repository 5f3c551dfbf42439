//! Exact percentile computation over recorded samples, plus a
//! fixed-size streaming estimator ([`LogHistogram`]) for runs too large
//! to keep every sample.

/// Exact percentile (nearest-rank with linear interpolation) of an
/// unsorted slice. `p` is in `[0, 100]`. Returns `None` for an empty
/// slice.
///
/// ```
/// use rainbowcake_metrics::percentile::percentile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// ```
///
/// # Panics
///
/// Panics in debug builds if `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    debug_assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// Percentile of an already-sorted slice (ascending). See [`percentile`].
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Smallest distinguishable value of a [`LogHistogram`], in the unit of
/// the recorded samples (1 µs for latencies recorded in seconds).
const HIST_MIN: f64 = 1e-6;
/// Geometric bin growth factor: every bin spans 2% relative range, so
/// percentile estimates carry at most ~1% relative error.
const HIST_GROWTH: f64 = 1.02;
/// Bin count. `HIST_MIN * HIST_GROWTH^1399 ≈ 1.1e6`, comfortably above
/// any latency a multi-day simulation can produce; bin 0 catches
/// underflow and the last bin overflow.
const HIST_BINS: usize = 1400;

/// A streaming percentile estimator over non-negative samples: a
/// fixed-size histogram with geometrically growing bins (~2% wide), so
/// memory is constant in the number of samples and percentile queries
/// have bounded relative error. Exact minimum and maximum are tracked
/// on the side, and estimates are clamped into `[min, max]`.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    bins: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            bins: vec![0; HIST_BINS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bin_of(v: f64) -> usize {
        if v < HIST_MIN {
            return 0;
        }
        // `v` is at least `HIST_MIN` (or NaN), so the log quotient is
        // never negative and `as usize` truncates it exactly as `floor`
        // would: NaN casts to 0, and ∞ saturates into the last bin.
        let steps = ((v / HIST_MIN).ln() / HIST_GROWTH.ln()) as usize;
        steps.saturating_add(1).min(HIST_BINS - 1)
    }

    /// Lower edge of `bin` (0 for the underflow bin).
    fn bin_lo(bin: usize) -> f64 {
        if bin == 0 {
            0.0
        } else {
            HIST_MIN * HIST_GROWTH.powi(bin as i32 - 1)
        }
    }

    /// Records one sample (negative values count as zero).
    pub fn record(&mut self, v: f64) {
        let v = v.max(0.0);
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.bins[Self::bin_of(v)] += 1;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another histogram into this one: the result is exactly
    /// the histogram that would have recorded both sample streams (bins
    /// are elementwise sums; min/max combine exactly). The canonical
    /// cross-shard metric reduction — associative and commutative, so
    /// folding shard histograms in worker-index order is deterministic.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, &o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated percentile (`p` in `[0, 100]`); `None` when empty.
    /// `p = 0` and `p = 100` return the exact minimum and maximum.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        debug_assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.count == 0 {
            return None;
        }
        if p <= 0.0 {
            return Some(self.min);
        }
        if p >= 100.0 {
            return Some(self.max);
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (bin, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Geometric bin midpoint, clamped to the observed range.
                let lo = Self::bin_lo(bin).max(HIST_MIN / HIST_GROWTH);
                let hi = Self::bin_lo(bin + 1);
                return Some((lo * hi).sqrt().clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn interpolation() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        let p99 = percentile(&xs, 99.0).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9);
        let p50 = percentile(&xs, 50.0).unwrap();
        assert!((p50 - 50.5).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = percentile(&xs, p).unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), None);
        for v in [0.004, 1.5, 0.25, 80.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.percentile(0.0), Some(0.004));
        assert_eq!(h.percentile(100.0), Some(80.0));
    }

    #[test]
    fn histogram_tracks_exact_percentiles_closely() {
        // A latency-like spread: sub-millisecond to tens of seconds.
        let xs: Vec<f64> = (1..=5_000)
            .map(|i| 1e-4 * (1.0017f64).powi(i % 4_000))
            .collect();
        let mut h = LogHistogram::new();
        for &v in &xs {
            h.record(v);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = percentile(&xs, p).unwrap();
            let est = h.percentile(p).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(
                rel < 0.03,
                "p{p}: exact {exact}, estimate {est}, rel err {rel}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut h = LogHistogram::new();
        for i in 0..1_000 {
            h.record(i as f64 * 0.01);
        }
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= last, "p{p} regressed: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let (mut a, mut b, mut both) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for i in 0..500 {
            let v = 1e-3 * (1.013f64).powi(i % 700);
            a.record(v);
            both.record(v);
        }
        for i in 0..300 {
            let v = 0.5 + i as f64 * 0.01;
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), both.len());
        for p in [0.0, 10.0, 50.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), both.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LogHistogram::new();
        a.record(2.0);
        let before = a.percentile(50.0);
        a.merge(&LogHistogram::new());
        assert_eq!(a.len(), 1);
        assert_eq!(a.percentile(50.0), before);
    }

    #[test]
    fn bin_of_matches_the_floored_quotient() {
        // The expression `bin_of` used before it dropped `.floor()`; its
        // `1 +` overflowed at ∞ (a panic in debug builds, bin 0 in
        // release), so both sides add saturating.
        let floored = |v: f64| -> usize {
            if v < HIST_MIN {
                return 0;
            }
            let steps = ((v / HIST_MIN).ln() / HIST_GROWTH.ln()).floor() as usize;
            steps.saturating_add(1).min(HIST_BINS - 1)
        };
        let mut points = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            HIST_MIN,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for bin in 1..=HIST_BINS {
            let edge = LogHistogram::bin_lo(bin);
            points.extend([edge.next_down(), edge, edge.next_up()]);
        }
        for v in points {
            assert_eq!(LogHistogram::bin_of(v), floored(v), "v = {v:e}");
        }
        assert_eq!(LogHistogram::bin_of(f64::NAN), 1);
        assert_eq!(LogHistogram::bin_of(f64::INFINITY), HIST_BINS - 1);
    }

    #[test]
    fn histogram_handles_zero_and_huge_values() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(1e9); // beyond the last bin edge: clamped, not lost
        assert_eq!(h.len(), 2);
        assert_eq!(h.percentile(0.0), Some(0.0));
        assert_eq!(h.percentile(100.0), Some(1e9));
        let p50 = h.percentile(50.0).unwrap();
        assert!((0.0..=1e9).contains(&p50));
    }
}
