//! Aggregation of invocation records and waste into the quantities the
//! paper reports: per-function averages (Fig. 6), per-invocation
//! distributions with average and P99 (Fig. 7), waste timelines
//! (Figs. 3, 8), startup-type timelines (Fig. 10), and the unified cost
//! (Fig. 11).

use rainbowcake_core::cost::CostModel;
use rainbowcake_core::mem::GbSeconds;
use rainbowcake_core::time::Micros;
use rainbowcake_core::types::FunctionId;

use crate::percentile::{percentile, LogHistogram};
use crate::record::{InvocationRecord, StartType};
use crate::waste::WasteTracker;

/// Constant-memory aggregate of invocation records: exact counts and
/// latency totals, plus [`LogHistogram`] percentile estimators. Used in
/// place of the per-record vector for traces too large to hold (the
/// `stress` bench's million-invocation runs).
#[derive(Debug, Clone, Default)]
pub struct StreamingSummary {
    /// Completed invocations.
    pub count: usize,
    /// Exact total queueing latency.
    pub total_queue: Micros,
    /// Exact total startup latency.
    pub total_startup: Micros,
    /// Exact total execution latency.
    pub total_exec: Micros,
    /// Invocations per start type, indexed like [`StartType::ALL`].
    pub start_type_counts: [usize; 7],
    /// Startup-latency distribution (seconds).
    pub startup_hist: LogHistogram,
    /// End-to-end-latency distribution (seconds).
    pub e2e_hist: LogHistogram,
}

impl StreamingSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        StreamingSummary::default()
    }

    /// Folds one completed invocation into the aggregates.
    pub fn record(&mut self, r: &InvocationRecord) {
        self.count += 1;
        self.total_queue += r.queue;
        self.total_startup += r.startup;
        self.total_exec += r.exec;
        let idx = StartType::ALL
            .iter()
            .position(|&t| t == r.start_type)
            .expect("all start types enumerated");
        self.start_type_counts[idx] += 1;
        self.startup_hist.record(r.startup.as_secs_f64());
        self.e2e_hist.record(r.e2e().as_secs_f64());
    }

    /// Exact total end-to-end latency.
    pub fn total_e2e(&self) -> Micros {
        self.total_queue + self.total_startup + self.total_exec
    }

    /// Merges another summary into this one: counts and totals add,
    /// histograms merge bin-wise — exactly the summary that would have
    /// recorded both invocation streams. Associative and commutative,
    /// so folding shard summaries in worker-index order is
    /// deterministic.
    pub fn merge(&mut self, other: &StreamingSummary) {
        self.count += other.count;
        self.total_queue += other.total_queue;
        self.total_startup += other.total_startup;
        self.total_exec += other.total_exec;
        for (c, &o) in self
            .start_type_counts
            .iter_mut()
            .zip(&other.start_type_counts)
        {
            *c += o;
        }
        self.startup_hist.merge(&other.startup_hist);
        self.e2e_hist.merge(&other.e2e_hist);
    }
}

/// Collects measurements during a run; turned into a [`RunReport`] at
/// the end.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    records: Vec<InvocationRecord>,
    waste: WasteTracker,
    streaming: Option<StreamingSummary>,
}

impl MetricsCollector {
    /// Creates an empty collector keeping every invocation record.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Creates a collector that folds records into a
    /// [`StreamingSummary`] instead of storing them — constant memory
    /// for arbitrarily long traces, estimated (not exact) percentiles.
    pub fn streaming() -> Self {
        MetricsCollector {
            streaming: Some(StreamingSummary::new()),
            ..MetricsCollector::default()
        }
    }

    /// Records one completed invocation.
    pub fn record_invocation(&mut self, record: InvocationRecord) {
        match &mut self.streaming {
            Some(s) => s.record(&record),
            None => self.records.push(record),
        }
    }

    /// Mutable access to the waste tracker (the platform feeds idle
    /// intervals directly).
    pub fn waste_mut(&mut self) -> &mut WasteTracker {
        &mut self.waste
    }

    /// Number of invocations recorded so far.
    pub fn len(&self) -> usize {
        match &self.streaming {
            Some(s) => s.count,
            None => self.records.len(),
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes into a report for `policy`.
    pub fn into_report(self, policy: impl Into<String>) -> RunReport {
        RunReport {
            policy: policy.into(),
            records: self.records,
            waste: self.waste,
            streaming: self.streaming,
        }
    }
}

/// Per-function aggregate row (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionSummary {
    /// The function.
    pub function: FunctionId,
    /// Completed invocations.
    pub count: usize,
    /// Mean startup latency.
    pub avg_startup: Micros,
    /// Mean end-to-end latency.
    pub avg_e2e: Micros,
    /// Cold starts.
    pub cold_starts: usize,
}

/// The complete result of one simulated experiment.
///
/// A report carries either every invocation record (the default) or,
/// for streaming runs, a [`StreamingSummary`] with `records` empty; the
/// aggregate accessors below consult whichever is present. Per-record
/// views (`per_function`, the timelines) are only available on exact
/// reports and come back empty on streaming ones.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy that produced the run.
    pub policy: String,
    /// Every completed invocation (empty for streaming runs).
    pub records: Vec<InvocationRecord>,
    /// Idle-memory waste accounting.
    pub waste: WasteTracker,
    /// Streaming aggregates, when the run used constant-memory metrics.
    pub streaming: Option<StreamingSummary>,
}

impl RunReport {
    /// Number of completed invocations.
    pub fn invocations(&self) -> usize {
        match &self.streaming {
            Some(s) => s.count,
            None => self.records.len(),
        }
    }

    /// Total startup latency summed over all invocations (the y-axis of
    /// Fig. 9-left and Fig. 12b).
    pub fn total_startup(&self) -> Micros {
        match &self.streaming {
            Some(s) => s.total_startup,
            None => self.records.iter().map(|r| r.startup).sum(),
        }
    }

    /// Total end-to-end latency summed over all invocations.
    pub fn total_e2e(&self) -> Micros {
        match &self.streaming {
            Some(s) => s.total_e2e(),
            None => self.records.iter().map(|r| r.e2e()).sum(),
        }
    }

    /// Mean startup latency.
    pub fn avg_startup(&self) -> Micros {
        match self.invocations() {
            0 => Micros::ZERO,
            n => self.total_startup() / n as u64,
        }
    }

    /// Mean end-to-end latency.
    pub fn avg_e2e(&self) -> Micros {
        match self.invocations() {
            0 => Micros::ZERO,
            n => self.total_e2e() / n as u64,
        }
    }

    /// A percentile of end-to-end latency (`p` in `[0, 100]`); exact
    /// over records, estimated (~2% relative error) on streaming runs.
    pub fn e2e_percentile(&self, p: f64) -> Option<Micros> {
        match &self.streaming {
            Some(s) => s.e2e_hist.percentile(p).map(Micros::from_secs_f64),
            None => {
                let xs: Vec<f64> = self.records.iter().map(|r| r.e2e().as_secs_f64()).collect();
                percentile(&xs, p).map(Micros::from_secs_f64)
            }
        }
    }

    /// A percentile of startup latency (`p` in `[0, 100]`); exact over
    /// records, estimated on streaming runs.
    pub fn startup_percentile(&self, p: f64) -> Option<Micros> {
        match &self.streaming {
            Some(s) => s.startup_hist.percentile(p).map(Micros::from_secs_f64),
            None => {
                let xs: Vec<f64> = self
                    .records
                    .iter()
                    .map(|r| r.startup.as_secs_f64())
                    .collect();
                percentile(&xs, p).map(Micros::from_secs_f64)
            }
        }
    }

    /// Total memory waste (Fig. 8 / Fig. 12c).
    pub fn total_waste(&self) -> GbSeconds {
        self.waste.total()
    }

    /// Number of invocations per start type (Fig. 10 / §7.4).
    pub fn start_type_counts(&self) -> [(StartType, usize); 7] {
        match &self.streaming {
            Some(s) => {
                let mut i = 0;
                StartType::ALL.map(|t| {
                    let n = s.start_type_counts[i];
                    i += 1;
                    (t, n)
                })
            }
            None => StartType::ALL
                .map(|t| (t, self.records.iter().filter(|r| r.start_type == t).count())),
        }
    }

    /// Number of fully cold starts.
    pub fn cold_starts(&self) -> usize {
        match &self.streaming {
            Some(s) => {
                let idx = StartType::ALL
                    .iter()
                    .position(|&t| t == StartType::Cold)
                    .expect("Cold is enumerated");
                s.start_type_counts[idx]
            }
            None => self
                .records
                .iter()
                .filter(|r| r.start_type == StartType::Cold)
                .count(),
        }
    }

    /// Fraction of invocations that avoided a full cold start.
    pub fn warm_rate(&self) -> f64 {
        match self.invocations() {
            0 => 0.0,
            n => 1.0 - self.cold_starts() as f64 / n as f64,
        }
    }

    /// Eq. 1 unified cost of the whole run.
    pub fn unified_cost(&self, model: CostModel) -> f64 {
        model.unified(self.total_startup(), self.total_waste())
    }

    /// Per-function aggregates, in function-id order (only functions
    /// that completed at least one invocation appear).
    pub fn per_function(&self) -> Vec<FunctionSummary> {
        let max_id = self
            .records
            .iter()
            .map(|r| r.function.index())
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut acc: Vec<(usize, Micros, Micros, usize)> =
            vec![(0, Micros::ZERO, Micros::ZERO, 0); max_id];
        for r in &self.records {
            let a = &mut acc[r.function.index()];
            a.0 += 1;
            a.1 += r.startup;
            a.2 += r.e2e();
            if r.start_type == StartType::Cold {
                a.3 += 1;
            }
        }
        acc.into_iter()
            .enumerate()
            .filter(|(_, a)| a.0 > 0)
            .map(|(i, (count, st, e2e, cold))| FunctionSummary {
                function: FunctionId::new(i as u32),
                count,
                avg_startup: st / count as u64,
                avg_e2e: e2e / count as u64,
                cold_starts: cold,
            })
            .collect()
    }

    /// Per-minute invocation counts by start type, bucketed by arrival
    /// minute (the lower panes of Fig. 10).
    pub fn start_type_timeline(&self) -> Vec<[u32; 7]> {
        let minutes = self
            .records
            .iter()
            .map(|r| r.arrival.minute_bucket())
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut out = vec![[0u32; 7]; minutes];
        for r in &self.records {
            let idx = StartType::ALL
                .iter()
                .position(|&t| t == r.start_type)
                .expect("all start types enumerated");
            out[r.arrival.minute_bucket()][idx] += 1;
        }
        out
    }

    /// Cumulative end-to-end latency per arrival minute (Fig. 3's upper
    /// pane).
    pub fn cumulative_e2e_per_minute(&self) -> Vec<Micros> {
        let minutes = self
            .records
            .iter()
            .map(|r| r.arrival.minute_bucket())
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut per_min = vec![Micros::ZERO; minutes];
        for r in &self.records {
            per_min[r.arrival.minute_bucket()] += r.e2e();
        }
        let mut acc = Micros::ZERO;
        per_min
            .into_iter()
            .map(|m| {
                acc += m;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waste::IdleOutcome;
    use rainbowcake_core::mem::MemMb;
    use rainbowcake_core::time::Instant;

    fn rec(
        f: u32,
        arrival_s: u64,
        startup_ms: u64,
        exec_ms: u64,
        t: StartType,
    ) -> InvocationRecord {
        InvocationRecord {
            function: FunctionId::new(f),
            arrival: Instant::from_micros(arrival_s * 1_000_000),
            queue: Micros::ZERO,
            startup: Micros::from_millis(startup_ms),
            exec: Micros::from_millis(exec_ms),
            start_type: t,
        }
    }

    fn report() -> RunReport {
        let mut c = MetricsCollector::new();
        c.record_invocation(rec(0, 0, 1_000, 500, StartType::Cold));
        c.record_invocation(rec(0, 70, 10, 500, StartType::WarmUser));
        c.record_invocation(rec(1, 130, 400, 800, StartType::SharedLang));
        c.waste_mut().record_interval(
            MemMb::from_gb(1),
            Instant::ZERO,
            Instant::from_micros(20_000_000),
            IdleOutcome::Hit,
        );
        c.into_report("Test")
    }

    #[test]
    fn totals_and_averages() {
        let r = report();
        assert_eq!(r.total_startup(), Micros::from_millis(1_410));
        assert_eq!(r.avg_startup(), Micros::from_millis(470));
        assert_eq!(r.total_e2e(), Micros::from_millis(1_410 + 1_800));
        assert_eq!(r.cold_starts(), 1);
        assert!((r.warm_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles() {
        let r = report();
        let p100 = r.e2e_percentile(100.0).unwrap();
        assert_eq!(p100, Micros::from_millis(1_500));
        assert!(r.e2e_percentile(50.0).unwrap() < p100);
    }

    #[test]
    fn per_function_rows() {
        let r = report();
        let rows = r.per_function();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].cold_starts, 1);
        assert_eq!(rows[0].avg_startup, Micros::from_millis(505));
        assert_eq!(rows[1].count, 1);
    }

    #[test]
    fn start_type_counts_and_timeline() {
        let r = report();
        let counts = r.start_type_counts();
        let get = |t: StartType| counts.iter().find(|(x, _)| *x == t).unwrap().1;
        assert_eq!(get(StartType::Cold), 1);
        assert_eq!(get(StartType::WarmUser), 1);
        assert_eq!(get(StartType::SharedLang), 1);
        let tl = r.start_type_timeline();
        assert_eq!(tl.len(), 3); // arrivals in minutes 0, 1, 2
        assert_eq!(tl[0].iter().sum::<u32>(), 1);
        assert_eq!(tl[2].iter().sum::<u32>(), 1);
    }

    #[test]
    fn cumulative_e2e_monotone() {
        let r = report();
        let cum = r.cumulative_e2e_per_minute();
        assert_eq!(cum.len(), 3);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cum.last().unwrap(), r.total_e2e());
    }

    #[test]
    fn unified_cost_combines_components() {
        let r = report();
        let m = CostModel::new(0.5).unwrap();
        let expected = 0.5 * r.total_startup().as_secs_f64() + 0.5 * r.total_waste().value();
        assert!((r.unified_cost(m) - expected).abs() < 1e-9);
    }

    #[test]
    fn streaming_matches_exact_aggregates() {
        let recs: Vec<InvocationRecord> = (0..500)
            .map(|i| {
                let t = [
                    StartType::Cold,
                    StartType::WarmUser,
                    StartType::SharedLang,
                    StartType::Snapshot,
                ][i % 4];
                rec(
                    (i % 7) as u32,
                    i as u64,
                    5 + (i as u64 * 13) % 2_000,
                    100,
                    t,
                )
            })
            .collect();
        let mut exact = MetricsCollector::new();
        let mut streaming = MetricsCollector::streaming();
        for r in &recs {
            exact.record_invocation(*r);
            streaming.record_invocation(*r);
        }
        let e = exact.into_report("X");
        let s = streaming.into_report("X");
        assert!(e.streaming.is_none());
        assert!(s.streaming.is_some());
        assert!(s.records.is_empty(), "streaming keeps no records");
        // Counts and totals are exact in both modes.
        assert_eq!(s.invocations(), e.invocations());
        assert_eq!(s.total_startup(), e.total_startup());
        assert_eq!(s.total_e2e(), e.total_e2e());
        assert_eq!(s.avg_startup(), e.avg_startup());
        assert_eq!(s.cold_starts(), e.cold_starts());
        assert_eq!(s.start_type_counts(), e.start_type_counts());
        assert!((s.warm_rate() - e.warm_rate()).abs() < 1e-12);
        // Percentiles are estimates with bounded relative error.
        for p in [50.0, 90.0, 99.0] {
            let ev = e.startup_percentile(p).unwrap().as_secs_f64();
            let sv = s.startup_percentile(p).unwrap().as_secs_f64();
            assert!(
                (sv - ev).abs() <= ev * 0.03 + 1e-6,
                "p{p}: exact {ev}, streaming {sv}"
            );
        }
    }

    #[test]
    fn streaming_merge_equals_recording_both_streams() {
        let mut shard_a = StreamingSummary::new();
        let mut shard_b = StreamingSummary::new();
        let mut whole = StreamingSummary::new();
        for i in 0..200 {
            let r = rec(
                (i % 5) as u32,
                i as u64,
                5 + (i as u64 * 17) % 900,
                150,
                [StartType::Cold, StartType::WarmUser, StartType::Packed][i % 3],
            );
            if i % 2 == 0 {
                shard_a.record(&r);
            } else {
                shard_b.record(&r);
            }
            whole.record(&r);
        }
        shard_a.merge(&shard_b);
        assert_eq!(shard_a.count, whole.count);
        assert_eq!(shard_a.total_queue, whole.total_queue);
        assert_eq!(shard_a.total_startup, whole.total_startup);
        assert_eq!(shard_a.total_exec, whole.total_exec);
        assert_eq!(shard_a.start_type_counts, whole.start_type_counts);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                shard_a.startup_hist.percentile(p),
                whole.startup_hist.percentile(p)
            );
            assert_eq!(shard_a.e2e_hist.percentile(p), whole.e2e_hist.percentile(p));
        }
    }

    #[test]
    fn empty_report_is_safe() {
        let r = MetricsCollector::new().into_report("Empty");
        assert_eq!(r.avg_startup(), Micros::ZERO);
        assert_eq!(r.e2e_percentile(99.0), None);
        assert!(r.per_function().is_empty());
        assert!(r.start_type_timeline().is_empty());
        assert_eq!(r.warm_rate(), 0.0);
    }
}
