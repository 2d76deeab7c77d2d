//! # dkindex-proptest
//!
//! A self-contained property-testing harness exposing the subset of the
//! `proptest` crate API this workspace uses: the [`Strategy`] trait with
//! `prop_map` / `prop_filter` / `prop_recursive`, `prop::collection::vec`,
//! `prop::option::of`, `prop::sample::{select, Index}`, simple
//! character-class string strategies, `any::<T>()`, the [`proptest!`] macro
//! and the `prop_assert*` macros.
//!
//! The workspace builds in fully offline environments, so the external
//! `proptest` dev-dependency is replaced by this crate via Cargo dependency
//! renaming — the test files keep `use proptest::prelude::*` unchanged.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its case number and seed; the
//!   deterministic per-test RNG makes every failure reproducible.
//! * **No regression files.** A `*.proptest-regressions` file beside a test
//!   is never read and its `cc` seeds re-run nothing; a case worth keeping
//!   becomes a named deterministic test that calls the property's body.
//! * **String strategies** support only the `[class]{m,n}` regex subset the
//!   tests actually use (character classes with ranges, fixed repetition
//!   counts, literal characters).
//! * Case counts come from `ProptestConfig::with_cases` exactly as before.

#![forbid(unsafe_code)]

use dkindex_rng::{Rng as _, RngCore, SeedableRng, StdRng};
use std::rc::Rc;

/// The RNG handed to strategies while sampling.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic per-test generator.
    pub fn for_test(test_name: &str, case: u64) -> TestRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng(StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E3779B97F4A7C15)))
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    #[inline]
    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        self.0.gen_bool(p)
    }
}

/// Why a test case failed.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build a failure from any printable reason.
    pub fn fail<S: ToString>(reason: S) -> TestCaseError {
        TestCaseError(reason.to_string())
    }

    /// `Err(Self::fail(reason))`, matching proptest's helper.
    pub fn reject<S: ToString>(reason: S) -> TestCaseError {
        Self::fail(reason)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result alias used by generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A value generator. Unlike real proptest there is no shrinking: a strategy
/// is simply a deterministic function of the [`TestRng`] stream.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Retry until `pred` holds (up to an attempt cap).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Recursive strategies: `f` receives the strategy for the nested level
    /// and returns the composite one. `depth` bounds the recursion; the other
    /// two parameters (desired size, expected branch factor) are accepted for
    /// API compatibility and ignored.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
        S: Strategy<Value = Self::Value> + 'static,
    {
        let base = self.boxed();
        let mut level = base.clone();
        for _ in 0..depth {
            let deeper = f(level).boxed();
            let shallow = base.clone();
            // Mix leaves back in so trees have varied, bounded depth.
            level = BoxedStrategy::new(move |rng: &mut TestRng| {
                if rng.chance(0.35) {
                    shallow.sample(rng)
                } else {
                    deeper.sample(rng)
                }
            });
        }
        level
    }

    /// Type-erase this strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let this = self;
        BoxedStrategy::new(move |rng: &mut TestRng| this.sample(rng))
    }
}

/// A clonable, type-erased strategy.
pub struct BoxedStrategy<T> {
    f: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy { f: Rc::clone(&self.f) }
    }
}

impl<T> BoxedStrategy<T> {
    fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        BoxedStrategy { f: Rc::new(f) }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter({}) rejected 1000 candidates in a row", self.reason);
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
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

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for crate::sample::Index {
    fn arbitrary(rng: &mut TestRng) -> Self {
        crate::sample::Index { raw: rng.next_u64() }
    }
}

/// Strategy for any [`Arbitrary`] type.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                let span = (e - s) as u64 + 1;
                s + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, usize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(non_snake_case, reason = "type parameters double as binding names")]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// `&'static str` regex-subset strategies: sequences of `[class]{m,n}` atoms
/// (plus bare literal characters). Supports exactly the patterns this
/// workspace's tests use.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        sample_pattern(self, rng)
    }
}

fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // Parse one atom: a character class or a literal character.
        let class: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated class in pattern {pattern:?}"));
            let body = &chars[i + 1..close];
            i = close + 1;
            expand_class(body, pattern)
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        // Optional {m,n} / {n} repetition.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated repetition in {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse::<usize>().expect("repetition bound"),
                    b.trim().parse::<usize>().expect("repetition bound"),
                ),
                None => {
                    let n = body.trim().parse::<usize>().expect("repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let count = lo + rng.below(hi - lo + 1);
        for _ in 0..count {
            out.push(class[rng.below(class.len())]);
        }
    }
    out
}

fn expand_class(body: &[char], pattern: &str) -> Vec<char> {
    let mut set = Vec::new();
    let mut j = 0;
    while j < body.len() {
        if body[j] == '\\' && j + 1 < body.len() {
            set.push(body[j + 1]);
            j += 2;
        } else if j + 2 < body.len() && body[j + 1] == '-' {
            let (a, b) = (body[j], body[j + 2]);
            assert!(a <= b, "bad range in pattern {pattern:?}");
            for c in a..=b {
                set.push(c);
            }
            j += 3;
        } else {
            set.push(body[j]);
            j += 1;
        }
    }
    assert!(!set.is_empty(), "empty class in pattern {pattern:?}");
    set
}

/// Run configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Namespaced combinators mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::*;

        /// Strategy for `Vec<S::Value>` with a length drawn from `range`.
        pub struct VecStrategy<S> {
            element: S,
            lo: usize,
            hi_exclusive: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.lo + rng.below((self.hi_exclusive - self.lo).max(1));
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }

        /// Lengths accepted by [`vec()`].
        pub trait IntoSizeRange {
            /// Convert into `[lo, hi)` bounds.
            fn bounds(self) -> (usize, usize);
        }
        impl IntoSizeRange for std::ops::Range<usize> {
            fn bounds(self) -> (usize, usize) {
                (self.start, self.end)
            }
        }
        impl IntoSizeRange for std::ops::RangeInclusive<usize> {
            fn bounds(self) -> (usize, usize) {
                (*self.start(), *self.end() + 1)
            }
        }
        impl IntoSizeRange for usize {
            fn bounds(self) -> (usize, usize) {
                (self, self + 1)
            }
        }

        /// `prop::collection::vec(element, len_range)`.
        pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
            let (lo, hi_exclusive) = len.bounds();
            assert!(lo < hi_exclusive, "empty vec length range");
            VecStrategy {
                element,
                lo,
                hi_exclusive,
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::super::*;

        /// Strategy producing `Some` three times out of four.
        pub struct OptionStrategy<S>(S);

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.chance(0.75) {
                    Some(self.0.sample(rng))
                } else {
                    None
                }
            }
        }

        /// `prop::option::of(inner)`.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }
    }

    /// Sampling helpers.
    pub mod sample {
        pub use super::super::sample::{select, Index, Select};
    }
}

/// Sampling helpers (also re-exported under [`prop::sample`]).
pub mod sample {
    use super::*;

    /// A random index usable against collections of any length, mirroring
    /// `proptest::sample::Index`.
    #[derive(Clone, Copy, Debug)]
    pub struct Index {
        pub(crate) raw: u64,
    }

    impl Index {
        /// Project onto `0..len`. `len` must be non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.raw % len as u64) as usize
        }
    }

    /// Strategy choosing one element of a vector uniformly.
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }

    /// `prop::sample::select(choices)`.
    pub fn select<T: Clone>(choices: Vec<T>) -> Select<T> {
        assert!(!choices.is_empty(), "select from empty choices");
        Select(choices)
    }
}

/// Everything the test files import via `use proptest::prelude::*`.
pub mod prelude {
    pub use super::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Uniform choice among heterogeneous strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let arms = vec![$($crate::Strategy::boxed($strategy)),+];
        $crate::one_of(arms)
    }};
}

/// Runtime support for [`prop_oneof!`].
pub fn one_of<T: 'static>(arms: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
    assert!(!arms.is_empty());
    BoxedStrategy::new(move |rng: &mut TestRng| {
        let i = rng.below(arms.len());
        arms[i].sample(rng)
    })
}

/// Assert a condition inside a property, failing the case (not panicking the
/// harness) when it does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert!(a == b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
            stringify!($a), stringify!($b), a, b, format!($($fmt)+)
        );
    }};
}

/// `prop_assert!(a != b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a), stringify!($b), a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{} != {}`\n  both: {:?}\n {}",
            stringify!($a), stringify!($b), a, format!($($fmt)+)
        );
    }};
}

/// The test-defining macro. Mirrors `proptest! { #![proptest_config(..)] ... }`
/// with one or more `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut __rng = $crate::TestRng::for_test(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::Strategy::sample(&$strategy, &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!(
                        "property {} failed at case {case}/{}:\n{e}",
                        stringify!($name),
                        config.cases,
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Tree {
        Leaf(u8),
        Node(Box<Tree>, Box<Tree>),
    }

    fn depth(t: &Tree) -> usize {
        match t {
            Tree::Leaf(_) => 1,
            Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
        }
    }

    fn tree_strategy() -> impl Strategy<Value = Tree> {
        let leaf = (0u8..10).prop_map(Tree::Leaf);
        leaf.prop_recursive(3, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 2u8..7, y in 0usize..=4) {
            prop_assert!((2..7).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(any::<u8>(), 1..5)) {
            prop_assert!((1..5).contains(&v.len()));
        }

        #[test]
        fn recursive_depth_is_bounded(t in tree_strategy()) {
            prop_assert!(depth(&t) <= 4, "depth {} too large", depth(&t));
        }

        #[test]
        fn string_patterns_match_shape(s in "[a-z][a-z0-9]{0,6}") {
            prop_assert!(!s.is_empty() && s.len() <= 7);
            prop_assert!(s.chars().next().unwrap().is_ascii_lowercase());
        }

        #[test]
        fn oneof_and_select(x in prop_oneof![Just(1u8), Just(2u8)],
                            c in prop::sample::select(vec!["a", "b"])) {
            prop_assert!(x == 1 || x == 2);
            prop_assert!(c == "a" || c == "b");
        }

        #[test]
        fn index_projects_in_range(i in any::<prop::sample::Index>()) {
            prop_assert!(i.index(10) < 10);
            prop_assert_eq!(i.index(1), 0);
        }

        #[test]
        fn filters_apply(s in "[a ]{0,8}".prop_filter("non-blank", |s| !s.trim().is_empty())) {
            prop_assert!(s.contains('a'));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::for_test("t", 3);
        let mut b = crate::TestRng::for_test("t", 3);
        let s: String = crate::Strategy::sample(&"[a-z]{1,5}", &mut a);
        let t: String = crate::Strategy::sample(&"[a-z]{1,5}", &mut b);
        assert_eq!(s, t);
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics_with_case_info() {
        // No `#[test]` on the inner fn: nested test attributes are inert and
        // rustc warns about them; the property is driven by hand below.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(_x in 0u8..4) {
                prop_assert!(false, "intentional");
            }
        }
        always_fails();
    }
}
