//! A minimal, fully offline property-testing harness exposing the slice
//! of the `proptest` surface this workspace uses: the `proptest!` macro
//! with `pattern in strategy` arguments, range and `any::<T>()`
//! strategies, tuple and `prop::collection::vec` combinators,
//! `ProptestConfig::with_cases`, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from real proptest: cases are drawn from a deterministic
//! per-test seed (derived from the test's module path and name), and
//! there is **no shrinking** — a failing case panics with the assert's
//! own message. That is sufficient for the workspace's invariant tests
//! and keeps the repository buildable without a network. As upstream,
//! the `PROPTEST_CASES` environment variable sets the case count of
//! blocks that use the default config.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, or the `PROPTEST_CASES` environment variable's count
    /// when it parses, as upstream proptest's default does. Blocks with
    /// an explicit [`ProptestConfig::with_cases`] ignore the variable.
    fn default() -> Self {
        ProptestConfig {
            cases: default_cases(std::env::var("PROPTEST_CASES").ok().as_deref()),
        }
    }
}

/// The default case count given the `PROPTEST_CASES` value, if set.
fn default_cases(var: Option<&str>) -> u32 {
    var.and_then(|v| v.trim().parse().ok()).unwrap_or(64)
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, f32);

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// A strategy producing arbitrary values of `T` (full bit range for
/// integers, fair coin for `bool`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types [`any`] can produce.
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.random()
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64, f32);

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Range, StdRng, Strategy};
    use rand::Rng;

    /// A strategy producing `Vec`s of `elem` with a length drawn from
    /// `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// `Vec` strategy with length in `size` and elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.clone());
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Derives the deterministic RNG for one case of one property.
///
/// Public for the `proptest!` expansion; not part of the stable surface.
#[doc(hidden)]
pub fn __case_rng(test_path: &str, case: u32) -> StdRng {
    // FNV-1a over the test path, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// item becomes a `#[test]` that checks the body against `cases`
/// random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..cfg.cases {
                let mut __rng = $crate::__case_rng(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
    )*};
}

/// Asserts a property holds; panics (failing the case) otherwise.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts two values are equal; panics (failing the case) otherwise.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts two values differ; panics (failing the case) otherwise.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_hold(x in 0u64..100, y in -5i32..5, f in 0.0f64..1.0) {
            prop_assert!(x < 100);
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_sizes_hold(mut xs in prop::collection::vec((0u8..10, any::<bool>()), 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            xs.sort();
            prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_is_respected(_x in 0u8..255) {
            // Body runs; the case count is not observable here, but the
            // macro path with an explicit config must compile and run.
        }
    }

    #[test]
    fn proptest_cases_sets_the_default_count() {
        assert_eq!(crate::default_cases(None), 64);
        assert_eq!(crate::default_cases(Some("4096")), 4096);
        assert_eq!(crate::default_cases(Some("lots")), 64);
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..4)
            .map(|c| crate::Strategy::generate(&(0u64..1000), &mut crate::__case_rng("t", c)))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|c| crate::Strategy::generate(&(0u64..1000), &mut crate::__case_rng("t", c)))
            .collect();
        assert_eq!(a, b);
    }
}
