//! The inter-transition contention model (Fig. 13).
//!
//! The paper measures the Bare→Lang, Lang→User, and User→Run hand-off
//! overheads while driving 100-1,000 concurrent invocations and finds
//! them "consistently trivial ... with negligible fluctuations". We model
//! each hand-off as its calibrated base cost inflated linearly by the
//! number of concurrent container initializations, plus bounded
//! multiplicative jitter:
//!
//! ```text
//! overhead = base * (1 + CONTENTION_COEFF * concurrent / 1000) * (1 ± TRANSITION_JITTER)
//! ```
//!
//! [`transition_overhead`] is the only place a transition draws from the
//! engine's RNG: one draw per call with jitter on, none with it off. The
//! engine calls it once per transition an option crosses, when it
//! prices that placement option, and once per transition a pre-warm
//! crosses.

use rand::Rng;

use rainbowcake_core::time::Micros;

/// Linear contention coefficient per 1,000 concurrent initializations:
/// at 1,000 a hand-off costs 1.6× its base, the same order of magnitude
/// as Fig. 13 reports.
pub const CONTENTION_COEFF: f64 = 0.6;

/// Maximum relative deviation of a jittered transition overhead (the
/// small fluctuations of Fig. 13).
pub const TRANSITION_JITTER: f64 = 0.15;

/// Inflates a base transition overhead for the current level of
/// concurrency and, if `jitter` is set, applies a uniform deviation of
/// at most [`TRANSITION_JITTER`] drawn from `rng` (without it, `rng` is
/// not touched).
pub fn transition_overhead<R: Rng + ?Sized>(
    base: Micros,
    concurrent: usize,
    jitter: bool,
    rng: &mut R,
) -> Micros {
    let contention = 1.0 + CONTENTION_COEFF * concurrent as f64 / 1000.0;
    let noise = if jitter {
        1.0 + rng.random_range(-TRANSITION_JITTER..TRANSITION_JITTER)
    } else {
        1.0
    };
    base.mul_f64(contention * noise)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_concurrency_no_jitter_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let base = Micros::from_millis(8);
        assert_eq!(transition_overhead(base, 0, false, &mut rng), base);
    }

    #[test]
    fn overhead_grows_mildly_with_concurrency() {
        let mut rng = StdRng::seed_from_u64(0);
        let base = Micros::from_millis(10);
        let at_1000 = transition_overhead(base, 1000, false, &mut rng);
        // Fig. 13: still the same order of magnitude at 1,000 concurrent.
        assert_eq!(at_1000, Micros::from_millis(16));
        assert!(at_1000 < Micros::from_millis(30));
    }

    #[test]
    fn jitter_is_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = Micros::from_millis(10);
        for _ in 0..1000 {
            let o = transition_overhead(base, 500, true, &mut rng);
            let lo = base.mul_f64(1.3 * 0.85);
            let hi = base.mul_f64(1.3 * 1.15);
            assert!(o >= lo && o <= hi, "{o}");
        }
    }

    #[test]
    fn monotone_in_concurrency_on_average() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = Micros::from_millis(10);
        let avg = |n: usize, rng: &mut StdRng| {
            let total: u64 = (0..500)
                .map(|_| transition_overhead(base, n, true, rng).as_micros())
                .sum();
            total / 500
        };
        let low = avg(100, &mut rng);
        let high = avg(1000, &mut rng);
        assert!(high > low);
    }
}
