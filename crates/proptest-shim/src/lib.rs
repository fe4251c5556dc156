//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace
//! vendors the slice of the proptest API its test suites use: range
//! and `any::<T>()` strategies, `collection::vec`, the `proptest!`
//! macro (with optional `#![proptest_config(..)]` header), and the
//! `prop_assert!`/`prop_assert_eq!` assertions. Sampling is purely
//! random-search: each test case draws fresh values from a generator
//! seeded deterministically from the test name, so failures reproduce
//! across runs. There is no shrinking — a failing case panics with the
//! drawn values visible in the assertion message instead.

/// Runner configuration. Only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps debug-mode runs of
        // the gate-level simulator properties fast while still giving
        // broad coverage.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic test-case source.
pub mod test_runner {
    /// SplitMix64 generator seeded from the property's name, so every
    /// run of a given test sees the same case sequence.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from an arbitrary label (the test name).
        pub fn deterministic(label: &str) -> Self {
            // FNV-1a over the label gives a stable, well-mixed seed.
            let mut h: u64 = 0xcbf29ce484222325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

/// Strategy trait and the combinators this workspace needs.
pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategies compose by reference too (needed when a strategy is
    /// reused across several generated arguments).
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end - start) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    /// Strategy producing any value of `T` (see [`super::any`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T> {
        pub(crate) _marker: std::marker::PhantomData<T>,
    }

    /// Full-domain sampling for [`Any`].
    pub trait Arbitrary: Sized {
        /// Draws a uniform value over the whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Strategy producing any value of `T`.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`vec` only).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed `usize` or a
    /// `Range<usize>` sampled per case.
    pub trait IntoLenRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty length range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `Vec` strategy: elements from `element`, length from `len`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.len.sample_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a `use proptest::prelude::*;` consumer expects.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Any, Arbitrary, Strategy};
    pub use crate::test_runner::TestRng;
    pub use crate::{any, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Property-based test harness macro. Supports the two shapes used in
/// this workspace: with and without a `#![proptest_config(..)]`
/// header, each followed by one or more `fn name(arg in strategy, ..)`
/// items carrying optional outer attributes (`#[test]`, doc comments).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut proptest_rng =
                    $crate::test_runner::TestRng::deterministic(concat!(
                        module_path!(),
                        "::",
                        stringify!($name)
                    ));
                for proptest_case in 0..config.cases {
                    let _ = proptest_case;
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut proptest_rng,
                        );
                    )*
                    $body
                }
            }
        )*
    };
}

/// Boolean property assertion (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality property assertion (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality property assertion (panics like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens() -> impl Strategy<Value = u64> {
        0u64..100
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 5u64..10, y in 0usize..3) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y < 3);
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(0u64..7, 4usize)) {
            prop_assert_eq!(v.len(), 4);
            prop_assert!(v.iter().all(|&x| x < 7));
        }

        #[test]
        fn vec_range_lengths(v in collection::vec(any::<u8>(), 1usize..16)) {
            prop_assert!(!v.is_empty() && v.len() < 16);
        }

        #[test]
        fn custom_strategy_fn(x in evens()) {
            prop_assert!(x < 100);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn config_header_accepted(x in any::<u64>()) {
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("label");
        let mut b = TestRng::deterministic("label");
        assert_eq!(
            (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
