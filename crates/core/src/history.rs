//! The History Recorder: sharing-aware invocation modeling (§5.1).
//!
//! For every function the recorder keeps a sliding window of the latest
//! `n` invocation arrivals and fits a Poisson rate
//! `λ_f = n / (j − j′)` where `j` is the **current** timestamp and `j′`
//! the stalest arrival in the window — so a function's fitted rate
//! decays while it stays silent, which is what lets keep-alive windows
//! recomputed at downgrade time (Alg. 2) stretch as the pool cools
//! down. Because sums of independent Poisson processes
//! are Poisson, the arrival process of *hits on a container type* is
//! modeled by the compound rate over the type's sharing set (Eq. 2):
//!
//! * `User` layer of `f` — just `λ_f`;
//! * `Lang` layer of language `L` — `Σ λ_f` over functions of `L`;
//! * `Bare` layer — `Σ λ_f` over all functions.
//!
//! Inter-arrival times of a Poisson process are exponential (Eq. 3), so
//! given a confidence quantile `p` the expected next hit arrives within
//! `IAT(k, p) = −ln(1 − p) / λ(k)` (Eq. 4).
//!
//! The recorder also keeps per-function sliding windows of the observed
//! startup latency and idle memory footprint per layer (Eq. 5), which
//! the keep-alive algorithm needs for the β bound (Eq. 6).
//!
//! # Sharing-set IATs: a bracketed pass, exact
//!
//! A `Lang` or `Bare` rung needs the IAT of a compound rate, at
//! O(active functions) per query with nothing cached between queries
//! (DESIGN.md §11). The recorder keeps the functions with a nonzero
//! fitted rate (at least two windowed arrivals) in one region per
//! language, in activation order, and [`HistoryRecorder::sharing_iats`]
//! answers both rungs of an idle transition from one pass over the
//! regions.
//!
//! The pass sums in any order. Each block of eight members pairs member
//! `k` with member `k + 4`, one division per pair,
//! `(c₁·d₂ + c₂·d₁) / (d₁·d₂)`, into four independent accumulators. Its
//! sum `S` is not the naive sum [`HistoryRecorder::rate_uncached`] to
//! the bit, but for `n` active members in scope the naive sum's Eq. 4
//! quotient `−ln(1 − p) / λ` lies within `(1 ± ε)` of the pass's,
//! `ε = (2n + 16)·f64::EPSILON`. [`iat_with_numerator`] turns that
//! quotient into microseconds by a truncation that never falls as the
//! quotient rises, so when the two ends of the bracket truncate to the
//! same IAT, it is the naive sum's IAT, bit for bit. When they straddle
//! a microsecond the recorder answers from the naive sum and counts a
//! rescan ([`HistoryStats::rescans`]). Debug builds assert every answer
//! against the naive sum's IAT.

use std::collections::VecDeque;

use crate::error::ConfigError;
use crate::mem::MemMb;
use crate::profile::Catalog;
use crate::time::{Instant, Micros};
use crate::types::{FunctionId, Language, Layer};

/// The sharing set whose compound arrival rate is being queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareScope {
    /// Hits on a `User` container of one function.
    Function(FunctionId),
    /// Hits on a `Lang` container of one language.
    Language(Language),
    /// Hits on a `Bare` container (any function).
    Global,
}

/// Solves Eq. 4: the `p`-quantile of an exponential inter-arrival
/// distribution with rate `lambda_per_sec`.
///
/// Returns [`Micros::MAX`] when the rate is not positive (no information
/// yet — "an arrival may never come").
///
/// # Panics
///
/// Panics in debug builds if `p` is outside `[0, 1)`.
pub fn iat_quantile(lambda_per_sec: f64, p: f64) -> Micros {
    debug_assert!((0.0..1.0).contains(&p), "quantile must be in [0, 1)");
    iat_with_numerator(lambda_per_sec, -(1.0 - p).ln())
}

/// [`iat_quantile`] with the `-ln(1 − p)` numerator precomputed — the
/// per-event form: a policy with a fixed quantile hoists the logarithm
/// out of its arrival path and this divides. Bit-identical to
/// [`iat_quantile`] for `neg_ln_survival = -(1 - p).ln()`.
pub fn iat_with_numerator(lambda_per_sec: f64, neg_ln_survival: f64) -> Micros {
    if lambda_per_sec <= 0.0 || !lambda_per_sec.is_finite() {
        return Micros::MAX;
    }
    Micros::from_secs_f64(neg_ln_survival / lambda_per_sec)
}

/// A bounded window of `f64` samples with an O(1) running mean.
///
/// The mean maintains a running sum that subtracts evicted samples; to
/// keep the error from compounding over 10⁸-invocation streams, the sum
/// is recomputed exactly from the live samples every `cap` evictions,
/// so drift is bounded by one window's worth of rounding instead of
/// growing with stream length.
#[derive(Debug, Clone, Default)]
struct StatWindow {
    samples: VecDeque<f64>,
    cap: usize,
    sum: f64,
    /// Evictions since the last exact-sum recomputation.
    evictions: usize,
}

impl StatWindow {
    fn new(cap: usize) -> Self {
        StatWindow {
            samples: VecDeque::with_capacity(cap),
            cap,
            sum: 0.0,
            evictions: 0,
        }
    }

    fn push(&mut self, v: f64) {
        if self.samples.len() == self.cap {
            if let Some(old) = self.samples.pop_front() {
                self.sum -= old;
                self.evictions += 1;
            }
        }
        self.samples.push_back(v);
        if self.evictions >= self.cap {
            self.evictions = 0;
            self.sum = self.samples.iter().sum();
        } else {
            self.sum += v;
        }
    }

    fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }
}

/// Per-function recorder state for the Eq. 5 observation windows.
/// Arrival windows live in the recorder's flat ring storage.
#[derive(Debug, Clone)]
struct FunctionHistory {
    /// Observed startup latency per layer (seconds), Eq. 5 window.
    startup: [StatWindow; 3],
    /// Observed idle memory per layer (MB), Eq. 5 window.
    memory: [StatWindow; 3],
}

impl FunctionHistory {
    fn new(window: usize) -> Self {
        FunctionHistory {
            startup: [
                StatWindow::new(window),
                StatWindow::new(window),
                StatWindow::new(window),
            ],
            memory: [
                StatWindow::new(window),
                StatWindow::new(window),
                StatWindow::new(window),
            ],
        }
    }
}

fn layer_idx(layer: Layer) -> usize {
    match layer {
        Layer::Bare => 0,
        Layer::Lang => 1,
        Layer::User => 2,
    }
}

/// Counters describing how the recorder answered its rate queries —
/// the observable cost of Eq. 2's compound sums. Snapshot via
/// [`HistoryRecorder::stats`]; merged across shards by the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistoryStats {
    /// Rates answered, all scopes (one
    /// [`HistoryRecorder::sharing_iats`] pass answers two).
    pub queries: u64,
    /// Rates answered for a `Language` or `Global` scope.
    pub scope_queries: u64,
    /// Scope queries answered without a scan. The recorder keeps no
    /// cache, so this stays 0; the field keeps report schemas stable.
    pub scope_hits: u64,
    /// Passes over the active members.
    pub scans: u64,
    /// Fitted rate terms computed: active members visited by passes
    /// plus nonzero `Function`-scope answers.
    pub terms_computed: u64,
    /// Scope queries whose bracket straddled a microsecond, so the
    /// IAT came from [`HistoryRecorder::rate_uncached`]: the misses of
    /// the bracketed pass.
    pub rescans: u64,
}

impl HistoryStats {
    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &HistoryStats) {
        self.queries += other.queries;
        self.scope_queries += other.scope_queries;
        self.scope_hits += other.scope_hits;
        self.scans += other.scans;
        self.terms_computed += other.terms_computed;
        self.rescans += other.rescans;
    }
}

/// The two Eq. 4 IATs of Eq. 2's compound rates that one pass yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingIats {
    /// IAT of hits on the queried language's sharing set (the `Lang`
    /// layer).
    pub language: Micros,
    /// IAT of hits on the whole catalog (the `Bare` layer).
    pub global: Micros,
}

/// Pairs per block of a pass: a block of `2 * LANES` members pairs
/// member `k` with member `k + LANES`, one accumulator per pair.
const LANES: usize = 4;

/// `Σ c / d` over one language's active functions, stalest stamps
/// `oldest` and weights `weight`, with `d = max(now − oldest, 1)` µs, in
/// an order of its own: one division per pair of members, and one per
/// member after the last full block. Within `(m + 3)·2^-53` of the
/// exact sum of its `m` terms, where the naive sum is within
/// `(m + 1)·2^-53` (DESIGN.md §11).
fn group_sum(oldest: &[f64], weight: &[f64], now_us: f64) -> f64 {
    let span = |oldest: f64| {
        let d = now_us - oldest;
        if d > 1.0 {
            d
        } else {
            1.0
        }
    };
    let mut acc = [0.0f64; LANES];
    let blocks = oldest.chunks_exact(2 * LANES);
    let tail = blocks.remainder();
    for (o, c) in blocks.zip(weight.chunks_exact(2 * LANES)) {
        for k in 0..LANES {
            let (d1, d2) = (span(o[k]), span(o[k + LANES]));
            acc[k] += (c[k] * d2 + c[k + LANES] * d1) / (d1 * d2);
        }
    }
    let c_tail = &weight[weight.len() - tail.len()..];
    for (k, (&o, &c)) in tail.iter().zip(c_tail).enumerate() {
        acc[k % LANES] += c / span(o);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `slot` entry of a function that is not active.
const INACTIVE: u32 = u32::MAX;

/// Arrival stamps and query times must stay below 2^53 µs (about 285
/// years) to be exact in `f64`. `record_arrival` asserts it for stamps;
/// passes check query times in debug builds.
const MAX_STAMP_US: u64 = 1 << 53;

/// Sharing-aware invocation history recorder (§5.1).
///
/// ```
/// use rainbowcake_core::history::{HistoryRecorder, ShareScope};
/// use rainbowcake_core::profile::{Catalog, FunctionProfile};
/// use rainbowcake_core::time::{Instant, Micros};
/// use rainbowcake_core::types::{FunctionId, Language};
///
/// let mut catalog = Catalog::new();
/// let f = catalog.push(FunctionProfile::synthetic(FunctionId::new(0), Language::Python));
/// let mut rec = HistoryRecorder::new(&catalog, 6).unwrap();
///
/// // One arrival every 10 s, the last at t = 50 s.
/// let mut t = Instant::ZERO;
/// for _ in 0..6 {
///     rec.record_arrival(f, t);
///     t = t + Micros::from_secs(10);
/// }
/// let now = Instant::from_micros(50_000_000);
/// let iat = rec.estimate_iat(ShareScope::Function(f), 0.8, now);
/// // lambda = 6 arrivals / 50 s window; -ln(0.2)/lambda ≈ 13.4 s
/// assert!(iat > Micros::from_secs(12) && iat < Micros::from_secs(15));
/// // The rate decays while the function is silent, so the same query
/// // ten minutes later expects a much longer wait.
/// let later = now + Micros::from_mins(10);
/// assert!(rec.estimate_iat(ShareScope::Function(f), 0.8, later) > iat * 5);
/// ```
#[derive(Debug, Clone)]
pub struct HistoryRecorder {
    window: usize,
    functions: Vec<FunctionHistory>,
    /// Function indices per language (the Lang sharing sets), ascending.
    lang_groups: [Vec<usize>; 3],
    /// `Language::index()` per function.
    lang_of: Vec<u8>,
    /// Flat arrival-window ring storage: function `i` owns micro-second
    /// stamps `ring[i*window .. (i+1)*window]`, a circular buffer whose
    /// stalest live entry sits at `ring_head[i]`.
    ring: Vec<u64>,
    ring_head: Vec<u32>,
    /// Live entries in each function's ring; grows to `window`, never
    /// shrinks — so once a function is active it stays active.
    win_len: Vec<u32>,
    /// The functions with ≥ 2 windowed arrivals as parallel arrays a
    /// pass streams: stalest windowed stamp (µs, exact below 2^53) and
    /// window length × 10^6 (the `c` of a term `c / d`, exact). Language
    /// `l` (`Language::index()`) owns the region from `region[l]` to
    /// `region[l + 1]`, sized for its catalog members, and its
    /// `members[l]` active functions fill the region's front in
    /// activation order.
    oldest: Vec<f64>,
    weight: Vec<f64>,
    region: [usize; 4],
    members: [usize; 3],
    /// Each function's index in `oldest` and `weight`, or [`INACTIVE`].
    slot: Vec<u32>,
    stats: HistoryStats,
}

impl HistoryRecorder {
    /// Creates a recorder for every function in `catalog` with sliding
    /// window size `window` (the paper's `n`, default 6).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `window` is zero.
    pub fn new(catalog: &Catalog, window: usize) -> Result<Self, ConfigError> {
        if window == 0 {
            return Err(ConfigError::new("history window must be >= 1"));
        }
        let n = catalog.len();
        let mut lang_groups: [Vec<usize>; 3] = Default::default();
        let mut lang_of = vec![0u8; n];
        for p in catalog.iter() {
            lang_groups[p.language.index()].push(p.id.index());
            lang_of[p.id.index()] = p.language.index() as u8;
        }
        let mut region = [0; 4];
        for l in 0..3 {
            region[l + 1] = region[l] + lang_groups[l].len();
        }
        Ok(HistoryRecorder {
            window,
            functions: (0..n).map(|_| FunctionHistory::new(window)).collect(),
            lang_groups,
            lang_of,
            ring: vec![0; n * window],
            ring_head: vec![0; n],
            win_len: vec![0; n],
            oldest: vec![0.0; n],
            weight: vec![0.0; n],
            region,
            members: [0; 3],
            slot: vec![INACTIVE; n],
            stats: HistoryStats::default(),
        })
    }

    /// The configured window size `n`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of tracked functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether no functions are tracked.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Snapshot of the query counters accumulated so far.
    pub fn stats(&self) -> HistoryStats {
        self.stats
    }

    /// Records an invocation arrival for `f` at time `now` (sliding the
    /// Eq. 5 window).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not in the catalog the recorder was built from,
    /// or if `now` is 2^53 µs (about 285 years) or later.
    pub fn record_arrival(&mut self, f: FunctionId, now: Instant) {
        assert!(
            now.as_micros() < MAX_STAMP_US,
            "arrival stamp {now:?} is past the recorder's exact range"
        );
        let i = f.index();
        let w = self.window;
        let base = i * w;
        let head = self.ring_head[i] as usize;
        let len = self.win_len[i] as usize;
        if len == w {
            // Full window: overwrite the stalest slot and advance.
            self.ring[base + head] = now.as_micros();
            let next = head + 1;
            self.ring_head[i] = if next == w { 0 } else { next as u32 };
        } else {
            self.ring[base + (head + len) % w] = now.as_micros();
            self.win_len[i] = (len + 1) as u32;
            if len + 1 == 2 {
                // Activation, once per function per run: a region's
                // order is free, so the function takes its next entry.
                let l = self.lang_of[i] as usize;
                self.slot[i] = (self.region[l] + self.members[l]) as u32;
                self.members[l] += 1;
            }
        }
        let s = self.slot[i] as usize;
        if let Some(oldest) = self.oldest.get_mut(s) {
            *oldest = self.ring[base + self.ring_head[i] as usize] as f64;
            self.weight[s] = f64::from(self.win_len[i]) * 1e6;
        }
    }

    /// Records an observed (startup latency, idle memory) sample for a
    /// container of `f` at `layer` — the Eq. 5 sliding windows.
    pub fn record_observation(
        &mut self,
        f: FunctionId,
        layer: Layer,
        startup: Micros,
        memory: MemMb,
    ) {
        let h = &mut self.functions[f.index()];
        h.startup[layer_idx(layer)].push(startup.as_secs_f64());
        h.memory[layer_idx(layer)].push(memory.as_mb() as f64);
    }

    /// One function's fitted rate straight off the ring:
    /// `λ_f = n / (now − j′)`, 0 until two arrivals.
    fn raw_rate(&self, i: usize, now: Instant) -> f64 {
        let len = self.win_len[i];
        if len < 2 {
            return 0.0;
        }
        let oldest = Instant::from_micros(self.ring[i * self.window + self.ring_head[i] as usize]);
        let span = now.duration_since(oldest).max(Micros::from_micros(1));
        len as f64 / span.as_secs_f64()
    }

    /// The fitted per-second rate `λ_f` for one function as of `now`
    /// (0 until two arrivals are in the window). The rate decays while
    /// the function stays silent, because the fit divides the window
    /// size by the age of its stalest arrival.
    pub fn function_rate(&mut self, f: FunctionId, now: Instant) -> f64 {
        self.stats.queries += 1;
        let rate = self.raw_rate(f.index(), now);
        if rate > 0.0 {
            self.stats.terms_computed += 1;
        }
        rate
    }

    /// Eq. 4's IATs, at the quantile whose `-ln(1 − p)` is
    /// `neg_ln_survival`, of hits on `lang`'s sharing set and on the
    /// whole catalog as of `now` (Eq. 2), from one pass over the active
    /// members. Each equals
    /// `iat_with_numerator(self.rate_uncached(scope, now), neg_ln_survival)`
    /// exactly; see the module docs.
    pub fn sharing_iats(
        &mut self,
        lang: Language,
        now: Instant,
        neg_ln_survival: f64,
    ) -> SharingIats {
        debug_assert!(now.as_micros() < MAX_STAMP_US, "query past the exact range");
        let now_us = now.as_micros() as f64;
        let members = self.members;
        let sums: [f64; 3] = std::array::from_fn(|l| {
            let live = self.region[l]..self.region[l] + members[l];
            group_sum(&self.oldest[live.clone()], &self.weight[live], now_us)
        });
        let all = members.iter().sum::<usize>();
        self.stats.queries += 2;
        self.stats.scope_queries += 2;
        self.stats.scans += 1;
        self.stats.terms_computed += all as u64;
        let l = lang.index();
        SharingIats {
            language: self.bracketed(
                ShareScope::Language(lang),
                sums[l],
                members[l],
                now,
                neg_ln_survival,
            ),
            global: self.bracketed(
                ShareScope::Global,
                (sums[0] + sums[1]) + sums[2],
                all,
                now,
                neg_ln_survival,
            ),
        }
    }

    /// The IAT of `scope`'s naive sum, given the pass's sum `sum` over
    /// its `members` active functions: the IAT both ends of the error
    /// bracket agree on, or else the naive sum's own (a rescan).
    fn bracketed(
        &mut self,
        scope: ShareScope,
        sum: f64,
        members: usize,
        now: Instant,
        neg_ln_survival: f64,
    ) -> Micros {
        // For a positive rate `iat_with_numerator` is
        // `from_secs_f64(x / rate)`, and `from_secs_f64` never falls as
        // its argument rises, so a bracket on the quotient brackets the
        // IAT. `eps` covers both sums' error, both quotients' rounding
        // and the products' own, twice over (DESIGN.md §11).
        let eps = (2 * members + 16) as f64 * f64::EPSILON;
        let q = neg_ln_survival / sum;
        let lo = Micros::from_secs_f64(q * (1.0 - eps));
        let iat = if sum == 0.0 {
            // No active member: the naive sum is ±0.0, whose IAT is MAX.
            Micros::MAX
        } else if lo == Micros::from_secs_f64(q * (1.0 + eps)) {
            lo
        } else {
            self.stats.rescans += 1;
            iat_with_numerator(self.rate_uncached(scope, now), neg_ln_survival)
        };
        debug_assert_eq!(
            iat,
            iat_with_numerator(self.rate_uncached(scope, now), neg_ln_survival),
            "bracketed IAT diverged from the naive sum's for {scope:?} at {now:?}"
        );
        iat
    }

    /// The naive O(functions-in-scope) sum over the arrival rings, in
    /// ascending id order — the exact compound rate every
    /// [`Self::sharing_iats`] answer must match. Kept public so property
    /// tests can drive both paths side by side.
    pub fn rate_uncached(&self, scope: ShareScope, now: Instant) -> f64 {
        match scope {
            ShareScope::Function(f) => self.raw_rate(f.index(), now),
            ShareScope::Language(l) => self.lang_groups[l.index()]
                .iter()
                .map(|&i| self.raw_rate(i, now))
                .sum(),
            ShareScope::Global => (0..self.functions.len())
                .map(|i| self.raw_rate(i, now))
                .sum(),
        }
    }

    /// Eq. 4: the estimated inter-arrival time of hits on `scope` at
    /// confidence quantile `p`, evaluated at `now`. Returns
    /// [`Micros::MAX`] when the scope has no fitted rate yet. A
    /// `Language` or `Global` scope costs one [`Self::sharing_iats`]
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `p` is outside `[0, 1)`.
    pub fn estimate_iat(&mut self, scope: ShareScope, p: f64, now: Instant) -> Micros {
        debug_assert!((0.0..1.0).contains(&p), "quantile must be in [0, 1)");
        let neg_ln_survival = -(1.0 - p).ln();
        match scope {
            ShareScope::Function(f) => {
                iat_with_numerator(self.function_rate(f, now), neg_ln_survival)
            }
            ShareScope::Language(l) => self.sharing_iats(l, now, neg_ln_survival).language,
            // Any language: only the global IAT is read.
            ShareScope::Global => {
                self.sharing_iats(Language::Python, now, neg_ln_survival)
                    .global
            }
        }
    }

    /// Eq. 5 average observed startup latency for containers of `f` at
    /// `layer`, if any samples were recorded.
    pub fn avg_startup(&self, f: FunctionId, layer: Layer) -> Option<Micros> {
        self.functions[f.index()].startup[layer_idx(layer)]
            .mean()
            .map(Micros::from_secs_f64)
    }

    /// Eq. 5 average observed idle memory for containers of `f` at
    /// `layer`, if any samples were recorded.
    pub fn avg_memory(&self, f: FunctionId, layer: Layer) -> Option<MemMb> {
        self.functions[f.index()].memory[layer_idx(layer)]
            .mean()
            .map(|mb| MemMb::new(mb.round().max(0.0) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::FunctionProfile;

    fn setup() -> (Catalog, HistoryRecorder) {
        let mut c = Catalog::new();
        for (i, lang) in [Language::Python, Language::Python, Language::Java]
            .into_iter()
            .enumerate()
        {
            // Catalog::push reassigns the id to the insertion index; the
            // fixture passes the matching id and asserts the contract so
            // the tests below can't silently disagree with the catalog.
            let id = c.push(FunctionProfile::synthetic(FunctionId::new(i as u32), lang));
            assert_eq!(id, FunctionId::new(i as u32));
        }
        let r = HistoryRecorder::new(&c, 6).unwrap();
        (c, r)
    }

    fn fid(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    fn at(secs: u64) -> Instant {
        Instant::from_micros(secs * 1_000_000)
    }

    #[test]
    fn window_must_be_positive() {
        let (c, _) = setup();
        assert!(HistoryRecorder::new(&c, 0).is_err());
    }

    #[test]
    fn rate_zero_until_two_arrivals() {
        let (_, mut r) = setup();
        assert_eq!(r.function_rate(fid(0), at(0)), 0.0);
        r.record_arrival(fid(0), at(0));
        assert_eq!(r.function_rate(fid(0), at(5)), 0.0);
        assert_eq!(
            r.estimate_iat(ShareScope::Function(fid(0)), 0.8, at(5)),
            Micros::MAX
        );
        r.record_arrival(fid(0), at(1));
        assert!(r.function_rate(fid(0), at(1)) > 0.0);
    }

    #[test]
    fn rate_matches_paper_formula() {
        let (_, mut r) = setup();
        // n arrivals, stalest at t=0, queried at t=10: lambda = n / 10 s.
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i * 2));
        }
        let lambda = r.function_rate(fid(0), at(10));
        assert!((lambda - 6.0 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn rate_decays_while_silent() {
        let (_, mut r) = setup();
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i * 10));
        }
        let fresh = r.function_rate(fid(0), at(50));
        let stale = r.function_rate(fid(0), at(650));
        assert!(stale < fresh / 10.0, "stale={stale} fresh={fresh}");
        // And the IAT estimate stretches accordingly.
        let scope = ShareScope::Function(fid(0));
        assert!(r.estimate_iat(scope, 0.8, at(650)) > r.estimate_iat(scope, 0.8, at(50)));
    }

    #[test]
    fn window_slides() {
        let (_, mut r) = setup();
        // Fast phase then slow phase: once the fast arrivals leave the
        // window, the fitted rate reflects only the slow phase.
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i));
        }
        let fast = r.function_rate(fid(0), at(5));
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(100 + i * 60));
        }
        let slow = r.function_rate(fid(0), at(100 + 5 * 60));
        assert!(slow < fast / 10.0, "slow={slow} fast={fast}");
    }

    #[test]
    fn compound_rates_sum_sharing_sets() {
        let (_, mut r) = setup();
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i * 5)); // Python
            r.record_arrival(fid(1), at(i * 5)); // Python
            r.record_arrival(fid(2), at(i * 5)); // Java
        }
        let now = at(25);
        let py = r.rate_uncached(ShareScope::Language(Language::Python), now);
        let java = r.rate_uncached(ShareScope::Language(Language::Java), now);
        let all = r.rate_uncached(ShareScope::Global, now);
        assert!((py - (r.function_rate(fid(0), now) + r.function_rate(fid(1), now))).abs() < 1e-9);
        assert!((java - r.function_rate(fid(2), now)).abs() < 1e-9);
        assert!((all - (py + java)).abs() < 1e-9);
        assert_eq!(
            r.rate_uncached(ShareScope::Language(Language::NodeJs), now),
            0.0
        );
        let iats = r.sharing_iats(Language::NodeJs, now, -(0.2f64).ln());
        assert_eq!(iats.language, Micros::MAX);
        assert_eq!(iats.global, iat_quantile(all, 0.8));
    }

    #[test]
    fn iat_shrinks_with_sharing() {
        // Lang-scope IAT must be <= the individual function's IAT: more
        // sharers, sooner the next hit (the paper's core insight).
        let (_, mut r) = setup();
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i * 4));
            r.record_arrival(fid(1), at(i * 4 + 1));
        }
        let now = at(22);
        let user = r.estimate_iat(ShareScope::Function(fid(0)), 0.8, now);
        let lang = r.estimate_iat(ShareScope::Language(Language::Python), 0.8, now);
        let global = r.estimate_iat(ShareScope::Global, 0.8, now);
        assert!(lang < user);
        assert!(global <= lang);
    }

    #[test]
    fn iat_monotone_in_quantile() {
        let (_, mut r) = setup();
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i * 10));
        }
        let scope = ShareScope::Function(fid(0));
        let lo = r.estimate_iat(scope, 0.1, at(50));
        let hi = r.estimate_iat(scope, 0.9, at(50));
        assert!(hi > lo);
    }

    #[test]
    fn iat_quantile_formula() {
        // lambda = 0.1/s, p = 0.8 -> -ln(0.2)/0.1 ≈ 16.09 s.
        let iat = iat_quantile(0.1, 0.8);
        assert!((iat.as_secs_f64() - 16.094).abs() < 0.01);
        assert_eq!(iat_quantile(0.0, 0.8), Micros::MAX);
        assert_eq!(iat_quantile(-1.0, 0.8), Micros::MAX);
    }

    #[test]
    fn burst_at_same_instant_yields_tiny_iat() {
        let (_, mut r) = setup();
        for _ in 0..6 {
            r.record_arrival(fid(0), at(42));
        }
        // Queried right at the burst: rate is huge but finite.
        let iat = r.estimate_iat(ShareScope::Function(fid(0)), 0.8, at(42));
        assert!(iat < Micros::from_millis(1));
    }

    #[test]
    fn observation_windows_average() {
        let (_, mut r) = setup();
        assert_eq!(r.avg_startup(fid(0), Layer::User), None);
        r.record_observation(fid(0), Layer::User, Micros::from_secs(2), MemMb::new(100));
        r.record_observation(fid(0), Layer::User, Micros::from_secs(4), MemMb::new(300));
        assert_eq!(
            r.avg_startup(fid(0), Layer::User),
            Some(Micros::from_secs(3))
        );
        assert_eq!(r.avg_memory(fid(0), Layer::User), Some(MemMb::new(200)));
        // Other layers remain empty.
        assert_eq!(r.avg_startup(fid(0), Layer::Bare), None);
    }

    #[test]
    fn observation_window_is_bounded() {
        let (c, _) = setup();
        let mut r = HistoryRecorder::new(&c, 2).unwrap();
        for s in [1u64, 2, 3, 4] {
            r.record_observation(fid(0), Layer::Lang, Micros::from_secs(s), MemMb::new(10));
        }
        // Only the last two samples (3 s, 4 s) remain.
        assert_eq!(
            r.avg_startup(fid(0), Layer::Lang),
            Some(Micros::from_secs_f64(3.5))
        );
    }

    #[test]
    fn stat_window_sum_does_not_drift() {
        // A huge early sample evicted from the window must not leave
        // rounding residue behind: after 1M unit pushes the running mean
        // must equal the freshly summed window exactly.
        let mut w = StatWindow::new(6);
        w.push(1e16);
        for _ in 0..1_000_000 {
            w.push(1.0);
        }
        let fresh: f64 = w.samples.iter().sum();
        let fresh_mean = fresh / w.samples.len() as f64;
        assert_eq!(w.mean(), Some(fresh_mean));
        assert_eq!(w.mean(), Some(1.0));
    }

    #[test]
    fn stat_window_mean_matches_fresh_sum_under_churn() {
        // Varied magnitudes, long stream: the periodically recomputed
        // running sum stays within one recompute period of the exact
        // window sum (and lands exactly on it right after a recompute).
        let mut w = StatWindow::new(4);
        for i in 0..100_000u64 {
            w.push(((i * 2_654_435_761) % 1_000_003) as f64 * 1e-3);
        }
        let fresh: f64 = w.samples.iter().sum();
        let drift = (w.sum - fresh).abs();
        assert!(drift <= 1e-9 * fresh.abs().max(1.0), "drift={drift}");
    }

    /// The IATs `sharing_iats` answers for `lang`, against the naive
    /// sums' IATs.
    fn assert_iats_exact(r: &mut HistoryRecorder, lang: Language, now: Instant, p: f64) {
        let num = -(1.0 - p).ln();
        let iats = r.sharing_iats(lang, now, num);
        let naive = |scope| iat_with_numerator(r.rate_uncached(scope, now), num);
        assert_eq!(
            iats.language,
            naive(ShareScope::Language(lang)),
            "{lang:?} at {now:?}"
        );
        assert_eq!(iats.global, naive(ShareScope::Global), "global at {now:?}");
    }

    #[test]
    fn bracketed_iats_match_oracle_under_interleaving() {
        let (_, mut r) = setup();
        let mut t = 0u64;
        for step in 0..500u64 {
            t += step % 7;
            let now = Instant::from_micros(t);
            if step % 4 != 3 {
                r.record_arrival(fid(2 - (step % 4) as u32), now);
            }
            let f = fid((step % 3) as u32);
            assert_eq!(
                r.function_rate(f, now).to_bits(),
                r.rate_uncached(ShareScope::Function(f), now).to_bits()
            );
            for lang in [Language::Python, Language::Java, Language::NodeJs] {
                for p in [0.0, 0.5, 0.8, 0.99] {
                    assert_iats_exact(&mut r, lang, now, p);
                }
            }
        }
    }

    #[test]
    fn one_pass_answers_both_compound_scopes() {
        let (_, mut r) = setup();
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i));
            r.record_arrival(fid(2), at(i));
        }
        let both = r.sharing_iats(Language::Python, at(10), -(0.2f64).ln());
        let s = r.stats();
        assert_eq!(s.scans, 1);
        assert_eq!(s.scope_queries, 2);
        assert_eq!(s.terms_computed, 2);
        assert_eq!(s.scope_hits, 0);
        let py = r.estimate_iat(ShareScope::Language(Language::Python), 0.8, at(10));
        assert_eq!(both.language, py);
        let all = r.estimate_iat(ShareScope::Global, 0.8, at(10));
        assert_eq!(both.global, all);
        assert!(all < py && py < Micros::MAX);
    }

    #[test]
    fn inactive_functions_never_visited() {
        let (_, mut r) = setup();
        // Only fid(0) becomes active; fid(1)/fid(2) stay silent.
        for i in 0..6u64 {
            r.record_arrival(fid(0), at(i));
        }
        r.estimate_iat(ShareScope::Global, 0.8, at(10));
        let s = r.stats();
        assert_eq!(s.scans, 1);
        assert_eq!(s.terms_computed, 1);
        // Single-arrival functions stay inactive too (rate still 0).
        r.record_arrival(fid(2), at(10));
        let iats = r.sharing_iats(Language::Java, at(11), -(0.2f64).ln());
        assert_eq!(iats.language, Micros::MAX);
        assert_eq!(r.stats().terms_computed, 2);
    }

    #[test]
    fn straddled_brackets_rescan_and_stay_exact() {
        // A thousand functions that arrived twice, queried 2^50 µs
        // (about 36 years) later: the compound IATs are near 10^12 µs,
        // where the bracket spans a sizeable fraction of a microsecond,
        // so some query times straddle one and take the exact path.
        let mut c = Catalog::new();
        let langs = [Language::NodeJs, Language::Python, Language::Java];
        for i in 0..1000u32 {
            c.push(FunctionProfile::synthetic(fid(i), langs[i as usize % 3]));
        }
        let mut r = HistoryRecorder::new(&c, 6).unwrap();
        for i in 0..1000u32 {
            r.record_arrival(fid(i), Instant::from_micros(u64::from(i)));
            r.record_arrival(fid(i), Instant::from_micros(u64::from(i) * 7 + 1));
        }
        for step in 0..8 {
            let now = Instant::from_micros((1 << 50) + step * 977);
            assert!(r.estimate_iat(ShareScope::Global, 0.8, now) > Micros::from_secs(100_000));
            assert_iats_exact(&mut r, Language::Python, now, 0.8);
        }
        assert!(r.stats().rescans > 0, "{:?}", r.stats());
    }

    #[test]
    fn history_stats_merge_accumulates() {
        let mut a = HistoryStats {
            queries: 1,
            scope_queries: 2,
            scope_hits: 3,
            scans: 4,
            terms_computed: 5,
            rescans: 6,
        };
        let b = HistoryStats {
            queries: 10,
            scope_queries: 20,
            scope_hits: 30,
            scans: 40,
            terms_computed: 50,
            rescans: 60,
        };
        a.merge(&b);
        assert_eq!(
            a,
            HistoryStats {
                queries: 11,
                scope_queries: 22,
                scope_hits: 33,
                scans: 44,
                terms_computed: 55,
                rescans: 66,
            }
        );
    }
}
