//! A deterministic property-testing harness.
//!
//! Replaces the `proptest` dev-dependency with the subset the workspace
//! uses: the [`proptest!`](crate::proptest!) test-block macro, range strategies,
//! `collection::vec`, `prop_assert!`-family assertions, `prop_assume!`,
//! and [`ProptestConfig::with_cases`]. Unlike upstream proptest there is
//! no shrinking and no persistence file: every test derives its seed from
//! its own name, so each run of a given binary exercises the identical
//! case sequence — failures reproduce immediately.
//!
//! ```
//! use mandipass_util::proptest::prelude::*;
//!
//! proptest! {
//!     #[test]
//!     fn sum_is_commutative(
//!         xs in proptest::collection::vec(-1e3f64..1e3, 0..50),
//!         y in -1.0f64..1.0,
//!     ) {
//!         let forward: f64 = xs.iter().sum::<f64>() + y;
//!         let backward: f64 = y + xs.iter().rev().sum::<f64>();
//!         prop_assert!((forward - backward).abs() < 1e-9);
//!     }
//! }
//! ```

// The doc example necessarily shows `#[test]` inside `proptest!` — that
// is the macro's input grammar, not a runnable doctest test.
#![allow(clippy::test_attr_in_doctest)]

use std::ops::Range;

use crate::rand::rngs::StdRng;
use crate::rand::Rng;

/// Per-block configuration, set with
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one input.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut StdRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

macro_rules! int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

int_strategy!(i32, i64, u32, u64, usize);

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use crate::rand::Rng;

    /// Element counts for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range {r:?}");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy yielding `Vec`s of `elem`-generated values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: SizeRange,
    }

    /// `Vec` strategy with a length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = if self.len.lo + 1 == self.len.hi {
                self.len.lo
            } else {
                rng.gen_range(self.len.lo..self.len.hi)
            };
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Stable, platform-independent seed for a test name (FNV-1a).
pub fn seed_for(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything a `proptest!` call site needs in scope.
pub mod prelude {
    pub use super::ProptestConfig;
    pub use super::Strategy;
    // The module itself, so bodies can spell `proptest::collection::vec`,
    // plus the macros (same name, macro namespace).
    pub use crate::proptest;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume};
}

/// Declares deterministic property tests.
///
/// Each `#[test] fn name(binding in strategy, ...) { body }` item expands
/// to a plain `#[test]` running `body` over `cases` generated inputs
/// (default 64, overridable with a leading
/// `#![proptest_config(ProptestConfig::with_cases(n))]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::proptest::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $(
        #[test]
        fn $name:ident( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
    )+ ) => {$(
        #[test]
        fn $name() {
            let config: $crate::proptest::ProptestConfig = $cfg;
            let mut proptest_rng =
                <$crate::rand::rngs::StdRng as $crate::rand::SeedableRng>::seed_from_u64(
                    $crate::proptest::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
            for _case in 0..config.cases {
                $( let $arg = $crate::proptest::Strategy::sample(&($strat), &mut proptest_rng); )+
                $body
            }
        }
    )+};
}

/// `assert!` under the name property-test bodies use.
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// `assert_eq!` under the name property-test bodies use.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Skips the current generated case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn vec_lengths_obey_size_range(xs in proptest::collection::vec(0.0f64..1.0, 2..10)) {
            prop_assert!((2..10).contains(&xs.len()));
            prop_assert!(xs.iter().all(|v| (0.0..1.0).contains(v)));
        }

        #[test]
        fn fixed_size_vecs(xs in proptest::collection::vec(-1.0f32..1.0, 8)) {
            prop_assert_eq!(xs.len(), 8);
        }

        #[test]
        fn mut_bindings_and_assume_work(mut xs in proptest::collection::vec(-10.0f64..10.0, 0..20)) {
            prop_assume!(!xs.is_empty());
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn config_override_applies(seed in 0u64..1000, t in 0.0f64..2.0) {
            prop_assert!(seed < 1000);
            prop_assert!((0.0..2.0).contains(&t));
        }
    }

    #[test]
    fn seeds_are_stable_and_name_dependent() {
        assert_eq!(super::seed_for("abc"), super::seed_for("abc"));
        assert_ne!(super::seed_for("abc"), super::seed_for("abd"));
    }
}
