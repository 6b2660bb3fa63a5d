//! # proptest (offline shim)
//!
//! The build environment for this repository has **no network access**,
//! so the real crates.io `proptest` cannot be fetched. This path crate
//! implements the subset of its API that the workspace's property tests
//! use, on top of a deterministic SplitMix64 generator:
//!
//! * [`Strategy`] with [`Strategy::prop_map`] and [`Strategy::boxed`]
//! * integer-range, tuple, [`Just`], [`any`] and string strategies
//! * [`collection::vec`]
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros
//! * [`ProptestConfig::with_cases`]
//!
//! Differences from the real crate, by design: **no shrinking** (a
//! failing case panics with its case number and seed so it can be
//! replayed), string strategies ignore the regex and produce arbitrary
//! escaped-and-unescaped text (the workspace only uses `".*"`), and the
//! default case count is 64 to keep the property suites quick under a
//! plain `cargo test` on small machines. Set `PROPTEST_CASES` to
//! override.

#![forbid(unsafe_code)]

use std::fmt;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic SplitMix64 stream used to drive generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed derived from the test name, so every test has a stable but
    /// distinct stream. `PROPTEST_SEED` overrides for replay.
    pub fn for_test(name: &str) -> Self {
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(seed) = s.parse::<u64>() {
                return Self { state: seed };
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self { state: h }
    }

    /// Current raw state (reported on failure for replay).
    pub fn state(&self) -> u64 {
        self.state
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Subset of proptest's run configuration: the case count.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
        Self { cases }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe producing pseudorandom values of one type.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erase (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// Uniform choice between equally-weighted alternatives
/// (the expansion of [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Integer ranges ------------------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// Tuples --------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

// Strings -------------------------------------------------------------------

/// `&str` patterns act as string strategies in proptest. The shim does
/// not implement regex-driven generation; it produces arbitrary strings
/// (including control characters, quotes, backslashes and non-ASCII)
/// which is what the workspace's only pattern, `".*"`, asks for.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        assert_eq!(
            *self, ".*",
            "the offline proptest shim only supports the \".*\" string pattern"
        );
        let len = rng.below(48) as usize;
        (0..len)
            .map(|_| match rng.below(6) {
                // Plain printable ASCII.
                0..=2 => (0x20 + rng.below(0x5f) as u8) as char,
                // The characters JSON escaping cares about.
                3 => *['"', '\\', '/', '\n', '\t', '\r'].get(rng.below(6) as usize).unwrap(),
                // Raw control characters.
                4 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                // Non-ASCII code points (skipping surrogates).
                _ => char::from_u32(0x80 + rng.below(0xD780) as u32).unwrap_or('\u{FFFD}'),
            })
            .collect()
    }
}

// any::<T>() ----------------------------------------------------------------

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy wrapper for [`Arbitrary`] types.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// Collections ---------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};

    /// Vec strategy with a length drawn from `len`.
    pub struct VecStrategy<S> {
        elem: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(strategy, range)`.
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Failure context printed when a case panics.
pub struct CaseInfo {
    pub case: u32,
    pub seed: u64,
}

impl fmt::Display for CaseInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proptest case {} (replay with PROPTEST_SEED={})", self.case, self.seed)
    }
}

/// The main entry point: a block of `#[test]` functions whose arguments
/// are drawn from strategies. No shrinking; failures report the case
/// seed for replay.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { (<$crate::ProptestConfig as Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr)
      $( $(#[$attr:meta])*
         fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )* ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..config.cases {
                    let __seed = rng.state();
                    let __info = $crate::CaseInfo { case: __case, seed: __seed };
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let __result = std::panic::catch_unwind(
                        std::panic::AssertUnwindSafe(|| { $body })
                    );
                    if let Err(payload) = __result {
                        eprintln!("{__info}");
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

/// Uniform choice between strategy arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assertion macros: identical to `assert!`/`assert_eq!` (the shim does
/// not thread `Result` through test bodies).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges");
        for _ in 0..500 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(0u8..3), &mut rng);
            assert!(w < 3);
        }
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::for_test("vecs");
        for _ in 0..200 {
            let v = Strategy::generate(&crate::collection::vec(0u8..10, 1..6), &mut rng);
            assert!((1..6).contains(&v.len()));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::for_test("oneof");
        let s = prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[Strategy::generate(&s, &mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn string_pattern_generates_edge_characters() {
        let mut rng = TestRng::for_test("strings");
        let mut any_control = false;
        let mut any_quote = false;
        for _ in 0..400 {
            let s = Strategy::generate(&".*", &mut rng);
            any_control |= s.chars().any(|c| (c as u32) < 0x20);
            any_quote |= s.contains('"') || s.contains('\\');
        }
        assert!(any_control && any_quote, "edge characters must appear");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: bindings, tuples and maps all compose.
        #[test]
        fn macro_compiles_and_runs(
            x in 0u32..100,
            pair in (0u8..4, 1u64..9).prop_map(|(a, b)| (a as u64) * b),
        ) {
            prop_assert!(x < 100);
            prop_assert!(pair < 32);
        }
    }
}
