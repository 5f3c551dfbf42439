//! Idle-memory waste accounting (§4.2, Fig. 8).
//!
//! Memory waste is the integral of idle container memory over time. The
//! paper's Fig. 8 further splits waste into memory that was *eventually
//! hit* (the idle interval ended with a reuse — green) and memory that
//! was *never hit* (the interval ended in a downgrade, termination, or
//! eviction — red). [`WasteTracker`] integrates exactly and buckets the
//! waste per minute for timeline plots.

use rainbowcake_core::mem::{GbSeconds, MemMb};
use rainbowcake_core::time::Instant;

/// How an idle interval ended, deciding its Fig. 8 color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleOutcome {
    /// The container was reused by an invocation: the kept memory paid
    /// off ("wasted but eventually hit").
    Hit,
    /// The interval ended without a reuse (timeout, downgrade,
    /// eviction, or end of experiment): pure waste ("never hit").
    Miss,
}

/// Exact integrator of idle memory waste with per-minute buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WasteTracker {
    hit_total: GbSeconds,
    miss_total: GbSeconds,
    /// Per-minute (hit, miss) waste.
    minutes: Vec<(GbSeconds, GbSeconds)>,
}

impl WasteTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        WasteTracker::default()
    }

    /// Records one idle interval `[start, end)` of a container holding
    /// `mem`, ending with `outcome`. The interval is split across minute
    /// buckets exactly.
    ///
    /// Intervals with `end <= start` contribute nothing.
    pub fn record_interval(
        &mut self,
        mem: MemMb,
        start: Instant,
        end: Instant,
        outcome: IdleOutcome,
    ) {
        if end <= start || mem.is_zero() {
            return;
        }
        let total = mem.idle_for(end.duration_since(start));
        match outcome {
            IdleOutcome::Hit => self.hit_total += total,
            IdleOutcome::Miss => self.miss_total += total,
        }
        // Split across minute buckets.
        let mut cursor = start;
        while cursor < end {
            let bucket = cursor.minute_bucket();
            let bucket_end = Instant::from_micros((bucket as u64 + 1) * 60_000_000);
            let seg_end = bucket_end.min(end);
            let seg = mem.idle_for(seg_end.duration_since(cursor));
            if self.minutes.len() <= bucket {
                self.minutes
                    .resize(bucket + 1, (GbSeconds::ZERO, GbSeconds::ZERO));
            }
            match outcome {
                IdleOutcome::Hit => self.minutes[bucket].0 += seg,
                IdleOutcome::Miss => self.minutes[bucket].1 += seg,
            }
            cursor = seg_end;
        }
    }

    /// Merges another tracker into this one: totals add and minute
    /// buckets add elementwise (the shorter series is zero-extended) —
    /// exactly the tracker that would have recorded both interval
    /// streams. Associative and commutative, so folding shard trackers
    /// in worker-index order is deterministic.
    pub fn merge(&mut self, other: &WasteTracker) {
        self.hit_total += other.hit_total;
        self.miss_total += other.miss_total;
        if self.minutes.len() < other.minutes.len() {
            self.minutes
                .resize(other.minutes.len(), (GbSeconds::ZERO, GbSeconds::ZERO));
        }
        for (m, &(h, miss)) in self.minutes.iter_mut().zip(&other.minutes) {
            m.0 += h;
            m.1 += miss;
        }
    }

    /// Total waste that was eventually hit.
    pub fn hit_total(&self) -> GbSeconds {
        self.hit_total
    }

    /// Total waste never hit.
    pub fn miss_total(&self) -> GbSeconds {
        self.miss_total
    }

    /// Grand total waste (the paper's "memory waste (GB × s)").
    pub fn total(&self) -> GbSeconds {
        self.hit_total + self.miss_total
    }

    /// Per-minute `(hit, miss)` waste series.
    pub fn per_minute(&self) -> &[(GbSeconds, GbSeconds)] {
        &self.minutes
    }

    /// Cumulative total waste at each minute boundary (Fig. 3's lower
    /// pane).
    pub fn cumulative_per_minute(&self) -> Vec<GbSeconds> {
        let mut acc = GbSeconds::ZERO;
        self.minutes
            .iter()
            .map(|&(h, m)| {
                acc += h + m;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Instant {
        Instant::from_micros(secs * 1_000_000)
    }

    #[test]
    fn totals_split_by_outcome() {
        let mut w = WasteTracker::new();
        w.record_interval(MemMb::from_gb(1), t(0), t(10), IdleOutcome::Hit);
        w.record_interval(MemMb::from_gb(2), t(0), t(5), IdleOutcome::Miss);
        assert!((w.hit_total().value() - 10.0).abs() < 1e-9);
        assert!((w.miss_total().value() - 10.0).abs() < 1e-9);
        assert!((w.total().value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_or_inverted_intervals_are_ignored() {
        let mut w = WasteTracker::new();
        w.record_interval(MemMb::from_gb(1), t(10), t(10), IdleOutcome::Hit);
        w.record_interval(MemMb::from_gb(1), t(20), t(10), IdleOutcome::Miss);
        w.record_interval(MemMb::ZERO, t(0), t(100), IdleOutcome::Miss);
        assert_eq!(w.total(), GbSeconds::ZERO);
        assert!(w.per_minute().is_empty());
    }

    #[test]
    fn minute_buckets_sum_to_total() {
        let mut w = WasteTracker::new();
        // Interval spanning three minute buckets: 30 s + 60 s + 15 s.
        w.record_interval(MemMb::from_gb(1), t(30), t(135), IdleOutcome::Miss);
        let per_min = w.per_minute();
        assert_eq!(per_min.len(), 3);
        assert!((per_min[0].1.value() - 30.0).abs() < 1e-9);
        assert!((per_min[1].1.value() - 60.0).abs() < 1e-9);
        assert!((per_min[2].1.value() - 15.0).abs() < 1e-9);
        let bucket_sum: f64 = per_min.iter().map(|(h, m)| h.value() + m.value()).sum();
        assert!((bucket_sum - w.total().value()).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let (mut a, mut b, mut both) = (
            WasteTracker::new(),
            WasteTracker::new(),
            WasteTracker::new(),
        );
        a.record_interval(MemMb::from_gb(1), t(30), t(135), IdleOutcome::Miss);
        both.record_interval(MemMb::from_gb(1), t(30), t(135), IdleOutcome::Miss);
        b.record_interval(MemMb::from_gb(2), t(0), t(10), IdleOutcome::Hit);
        both.record_interval(MemMb::from_gb(2), t(0), t(10), IdleOutcome::Hit);
        b.record_interval(MemMb::new(512), t(200), t(260), IdleOutcome::Miss);
        both.record_interval(MemMb::new(512), t(200), t(260), IdleOutcome::Miss);
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_total() {
        let mut w = WasteTracker::new();
        w.record_interval(MemMb::from_gb(1), t(0), t(90), IdleOutcome::Hit);
        w.record_interval(MemMb::new(512), t(100), t(200), IdleOutcome::Miss);
        let cum = w.cumulative_per_minute();
        assert!(cum.windows(2).all(|p| p[0].value() <= p[1].value()));
        assert!((cum.last().unwrap().value() - w.total().value()).abs() < 1e-9);
    }
}
