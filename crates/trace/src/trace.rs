//! The invocation trace container: a time-sorted stream of
//! `(instant, function)` arrivals over a fixed horizon.

use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::FunctionId;

use crate::stats;

/// One invocation arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time.
    pub time: Instant,
    /// Invoked function.
    pub function: FunctionId,
}

/// A time-sorted invocation trace over a fixed horizon.
///
/// ```
/// use rainbowcake_trace::{Arrival, Trace};
/// use rainbowcake_core::time::{Instant, Micros};
/// use rainbowcake_core::types::FunctionId;
///
/// let f = FunctionId::new(0);
/// let trace = Trace::from_arrivals(
///     Micros::from_secs(60),
///     vec![
///         Arrival { time: Instant::from_micros(5_000_000), function: f },
///         Arrival { time: Instant::from_micros(1_000_000), function: f },
///     ],
/// );
/// assert_eq!(trace.len(), 2);
/// // Arrivals are kept sorted regardless of input order.
/// assert!(trace.arrivals()[0].time <= trace.arrivals()[1].time);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    horizon: Micros,
    arrivals: Vec<Arrival>,
}

impl Trace {
    /// Builds a trace, sorting arrivals by time (ties broken by function
    /// id for determinism) and dropping arrivals beyond the horizon.
    pub fn from_arrivals(horizon: Micros, mut arrivals: Vec<Arrival>) -> Self {
        arrivals.retain(|a| a.time.as_micros() <= horizon.as_micros());
        arrivals.sort_by_key(|a| (a.time, a.function));
        Trace { horizon, arrivals }
    }

    /// The trace horizon (duration of the experiment).
    pub fn horizon(&self) -> Micros {
        self.horizon
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The sorted arrivals.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Iterates over arrivals in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, Arrival> {
        self.arrivals.iter()
    }

    /// Merges two traces over the longer of their horizons.
    pub fn merge(mut self, other: Trace) -> Trace {
        self.arrivals.extend(other.arrivals);
        Trace::from_arrivals(self.horizon.max(other.horizon), self.arrivals)
    }

    /// Number of arrivals of one function.
    pub fn count_for(&self, f: FunctionId) -> usize {
        self.arrivals.iter().filter(|a| a.function == f).count()
    }

    /// Sorted arrival times (seconds) of one function.
    pub fn times_for(&self, f: FunctionId) -> Vec<f64> {
        self.arrivals
            .iter()
            .filter(|a| a.function == f)
            .map(|a| a.time.as_secs_f64())
            .collect()
    }

    /// Inter-arrival-time CV of one function's arrivals.
    pub fn iat_cv_for(&self, f: FunctionId) -> Option<f64> {
        stats::iat_cv(&self.times_for(f))
    }

    /// Inter-arrival-time CV of the merged stream (all functions).
    pub fn iat_cv(&self) -> Option<f64> {
        let times: Vec<f64> = self.arrivals.iter().map(|a| a.time.as_secs_f64()).collect();
        stats::iat_cv(&times)
    }

    /// Per-minute arrival counts over the horizon (the top panes of
    /// Fig. 10 and Fig. 12a).
    pub fn arrivals_per_minute(&self) -> Vec<u32> {
        let minutes = (self.horizon.as_micros() / 60_000_000 + 1) as usize;
        let mut counts = vec![0u32; minutes];
        for a in &self.arrivals {
            let b = a.time.minute_bucket();
            if b < counts.len() {
                counts[b] += 1;
            }
        }
        counts
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Arrival;
    type IntoIter = std::slice::Iter<'a, Arrival>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    fn at(secs: u64, f: u32) -> Arrival {
        Arrival {
            time: Instant::from_micros(secs * 1_000_000),
            function: fid(f),
        }
    }

    #[test]
    fn sorts_and_clips_to_horizon() {
        let t = Trace::from_arrivals(
            Micros::from_secs(100),
            vec![at(50, 0), at(10, 1), at(200, 0), at(10, 0)],
        );
        assert_eq!(t.len(), 3);
        let times: Vec<u64> = t.iter().map(|a| a.time.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Equal-time tie broken by function id.
        assert_eq!(t.arrivals()[0].function, fid(0));
        assert_eq!(t.arrivals()[1].function, fid(1));
    }

    #[test]
    fn merge_combines_and_keeps_order() {
        let a = Trace::from_arrivals(Micros::from_secs(60), vec![at(1, 0), at(30, 0)]);
        let b = Trace::from_arrivals(Micros::from_secs(120), vec![at(15, 1)]);
        let m = a.merge(b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.horizon(), Micros::from_secs(120));
        assert_eq!(m.arrivals()[1].function, fid(1));
    }

    #[test]
    fn per_function_views() {
        let t = Trace::from_arrivals(
            Micros::from_secs(60),
            vec![at(0, 0), at(10, 0), at(20, 0), at(5, 1)],
        );
        assert_eq!(t.count_for(fid(0)), 3);
        assert_eq!(t.count_for(fid(1)), 1);
        assert_eq!(t.times_for(fid(0)), vec![0.0, 10.0, 20.0]);
        assert!(t.iat_cv_for(fid(0)).unwrap() < 1e-12);
        assert_eq!(t.iat_cv_for(fid(1)), None);
    }

    #[test]
    fn minute_histogram() {
        let t = Trace::from_arrivals(
            Micros::from_mins(3),
            vec![at(0, 0), at(59, 0), at(61, 0), at(150, 0)],
        );
        let counts = t.arrivals_per_minute();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_arrivals(Micros::from_secs(10), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.iat_cv(), None);
    }
}
