//! Offline stand-in for `proptest`.
//!
//! Implements the slice of the proptest API this workspace's tests use:
//! the [`Strategy`] trait with `prop_map`/`prop_shuffle`, range and
//! collection strategies, a simple `[chars]{m,n}` string strategy, and the
//! `proptest!` / `prop_assert*` / `prop_assume!` macros. Differences from
//! the real crate: cases are plain seeded-random samples (no shrinking on
//! failure) and failure output is a normal assertion panic.

use std::ops::Range;

/// Test-runner configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic generator used by strategies (xorshift64*).
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeded constructor; `proptest!` derives the seed from the test name.
    pub fn new(seed: u64) -> Self {
        TestRng(seed | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Randomly permute a generated `Vec`.
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self: Sized,
    {
        Shuffle { inner: self }
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_shuffle`].
pub struct Shuffle<S> {
    inner: S,
}

impl<T, S: Strategy<Value = Vec<T>>> Strategy for Shuffle<S> {
    type Value = Vec<T>;

    fn sample(&self, rng: &mut TestRng) -> Vec<T> {
        let mut v = self.inner.sample(rng);
        for i in (1..v.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_strategy!(usize, u8, u16, u32, u64);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = self.start + rng.unit_f64() as $t * (self.end - self.start);
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

float_strategy!(f32, f64);

/// `&str` patterns of the form `[chars]{m,n}` generate random strings from
/// the character class (ranges like `a-z` supported).
impl Strategy for &str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let (class, min, max) = parse_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string strategy pattern: {self:?}"));
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class_str, counts) = rest.split_once(']')?;
    let counts = counts.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = counts.split_once(',')?;
    let (min, max) = (min.trim().parse().ok()?, max.trim().parse().ok()?);
    let chars: Vec<char> = class_str.chars().collect();
    let mut class = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            for c in chars[i]..=chars[i + 2] {
                class.push(c);
            }
            i += 3;
        } else {
            class.push(chars[i]);
            i += 1;
        }
    }
    if class.is_empty() || min > max {
        return None;
    }
    Some((class, min, max))
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    /// Accepted size specifications: a fixed size or a half-open range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    /// `Vec`s of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `HashSet`s of values from `element`; sizes below `size`'s minimum may
    /// occur only when the element domain is too small.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`hash_set`].
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        fn sample(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let target = self.size.min + (rng.next_u64() % span.max(1)) as usize;
            let mut out = HashSet::new();
            // Bounded attempts so tiny domains cannot loop forever.
            for _ in 0..target.saturating_mul(20).max(50) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.sample(rng));
            }
            out
        }

        type Value = HashSet<S::Value>;
    }
}

/// Strategy for "any value" of a type. Only the unsigned/float/bool leaves
/// are wired up; extend as tests need them.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`Arbitrary::arbitrary`].
    type Strategy: Strategy<Value = Self>;

    /// The whole-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Whole-domain strategy for `f32`: finite values in `[-1e6, 1e6]`.
pub struct AnyF32;

impl Strategy for AnyF32 {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        (rng.unit_f64() as f32 - 0.5) * 2.0e6
    }
}

impl Arbitrary for f32 {
    type Strategy = AnyF32;

    fn arbitrary() -> AnyF32 {
        AnyF32
    }
}

/// Whole-domain strategy for `bool`.
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;

    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;

    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// Seed helper: stable hash of the test path so each property gets its own
/// deterministic stream.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.

    /// The crate itself, so `prop::collection::vec(..)` paths work.
    pub use crate as prop;
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// The property-test macro: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` seeded random samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::new(
                $crate::seed_from_name(concat!(module_path!(), "::", stringify!($name))),
            );
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                // A closure so `prop_assume!` can skip the case via `return`.
                let __one_case = || { $body };
                __one_case();
            }
        }
    )*};
}

/// Assert within a property; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assert within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assert within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skip the current case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, f in -2.0f32..2.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_strategy_respects_size(v in collection::vec(0u32..5, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn shuffle_preserves_elements(
            v in Just((0usize..10).collect::<Vec<_>>()).prop_shuffle(),
        ) {
            let mut sorted = v.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn string_pattern_generates_class(s in "[a-c]{2,5}") {
            prop_assert!(s.len() >= 2 && s.len() <= 5);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn assume_skips_cases(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn hash_set_strategy_produces_distinct_values() {
        let mut rng = crate::TestRng::new(7);
        let s = collection::hash_set(0usize..100, 3..6);
        let set = crate::Strategy::sample(&s, &mut rng);
        assert!(set.len() >= 3 && set.len() < 6);
    }

    #[test]
    fn same_name_same_stream() {
        let mut a = crate::TestRng::new(crate::seed_from_name("x"));
        let mut b = crate::TestRng::new(crate::seed_from_name("x"));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
