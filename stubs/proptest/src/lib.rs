//! Offline stub of proptest: a deterministic, shrink-free subset of the
//! real API, sufficient for this workspace's property tests.
//!
//! Supported surface:
//! * `proptest::prelude::*` — [`Strategy`], [`Just`], [`any`],
//!   [`ProptestConfig`], and the `proptest!` / `prop_oneof!` macros;
//! * `Strategy::prop_map`, tuple strategies up to arity 4;
//! * `proptest::collection::vec(strategy, range)`;
//! * `proptest! { #![proptest_config(..)] #[test] fn f(x in s) {..} }`.
//!
//! No shrinking is performed: a failing case panics with the generated
//! value's `Debug` rendering (all inputs here are `Debug`), which is
//! enough to reproduce since generation is deterministic — the RNG is
//! seeded per test from the test function's name, with the `u64` in
//! `PROPTEST_SEED` mixed in when that variable is set (unset, every
//! stream is the name's alone). A failing case also prints the test,
//! the case number and the seed it ran under.

/// Deterministic test RNG (splitmix64). Not exposed by the real
/// proptest API; the macros thread it through generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary byte string (the `proptest!` macro passes
    /// the test function name) so different tests see different, but
    /// run-to-run stable, streams.
    pub fn from_seed_str(seed: &str) -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for &b in seed.as_bytes() {
            state = state.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
        }
        Self { state }
    }

    /// The RNG of the test `name` under the override `seed`
    /// ([`env_seed`]): [`TestRng::from_seed_str`] of the name when there
    /// is none, and the seed's bytes hashed on after the name otherwise.
    pub fn for_test(name: &str, seed: Option<u64>) -> Self {
        let mut rng = Self::from_seed_str(name);
        for b in seed.iter().flat_map(|seed| seed.to_le_bytes()) {
            rng.state = rng
                .state
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(b as u64);
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The `PROPTEST_SEED` override, if the variable is set. A value that is
/// not a `u64` panics rather than quietly running the default streams.
pub fn env_seed() -> Option<u64> {
    let value = std::env::var("PROPTEST_SEED").ok()?;
    let seed = value.trim().parse().unwrap_or_else(|e| {
        panic!("PROPTEST_SEED={value:?} is not a u64: {e}");
    });
    Some(seed)
}

/// Names the failing case of a `proptest!` test on the way out of its
/// panic: the test, the case and the seed it ran under.
#[derive(Debug)]
pub struct CaseReport {
    pub test: &'static str,
    pub seed: Option<u64>,
    pub case: u32,
}

impl CaseReport {
    fn message(&self) -> String {
        let seed = match self.seed {
            Some(seed) => format!("PROPTEST_SEED={seed}"),
            None => "PROPTEST_SEED unset".to_string(),
        };
        format!(
            "proptest: {} failed at case {} under {seed}",
            self.test, self.case
        )
    }
}

impl Drop for CaseReport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.message());
        }
    }
}

/// A value generator. The stub collapses proptest's `ValueTree` layer:
/// strategies produce final values directly and nothing shrinks.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// Object-safe boxed strategy, used by `prop_oneof!` to mix arms of
/// different concrete types.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// `Strategy::prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed arms — the expansion of `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.arms.len());
        self.arms[idx].generate(rng)
    }
}

/// The `any::<T>()` entry point for primitives.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )+};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Integer range strategies: `1u32..86400` is itself a strategy.
macro_rules! range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )+};
}

range_strategy!(u8, u16, u32, u64, usize);

/// Strategy for any value of an [`Arbitrary`] type.
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// `proptest::collection::vec`: length uniform in `len`, elements
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.len.end - self.len.start;
            let n = self.len.start + rng.below(span.max(1));
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::hash_set`. Duplicate draws collapse, so
    /// the set may come out smaller than the drawn length — the real
    /// proptest retries; for a stub the smaller set is acceptable as
    /// long as the minimum is honoured.
    pub fn hash_set<S>(element: S, len: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: std::hash::Hash + Eq,
    {
        assert!(len.start < len.end, "empty length range");
        HashSetStrategy { element, len }
    }

    pub struct HashSetStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: std::hash::Hash + Eq,
    {
        type Value = std::collections::HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.len.end - self.len.start;
            let target = self.len.start + rng.below(span.max(1));
            let mut set = std::collections::HashSet::new();
            // Bounded retries keep generation total even for narrow
            // element domains.
            let mut attempts = 0;
            while set.len() < target.max(self.len.start) && attempts < 64 * (target + 1) {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

pub mod string {
    use super::{Strategy, TestRng};

    /// `proptest::string::string_regex`, for the subset of patterns this
    /// workspace uses: a single character class with a bounded repeat,
    /// e.g. `[a-zA-Z0-9-]{1,20}`.
    pub fn string_regex(pattern: &str) -> Result<RegexStrategy, String> {
        let (class, rest) = parse_class(pattern)?;
        let (min, max) = parse_repeat(rest)?;
        if class.is_empty() {
            return Err(format!("empty character class in {pattern:?}"));
        }
        Ok(RegexStrategy { class, min, max })
    }

    fn parse_class(pattern: &str) -> Result<(Vec<char>, &str), String> {
        let inner = pattern.strip_prefix('[').ok_or_else(|| {
            format!("unsupported pattern {pattern:?} (stub handles [class]{{m,n}})")
        })?;
        let end = inner
            .find(']')
            .ok_or_else(|| format!("unterminated class in {pattern:?}"))?;
        let (body, rest) = (&inner[..end], &inner[end + 1..]);
        let chars: Vec<char> = body.chars().collect();
        let mut class = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                let (lo, hi) = (chars[i], chars[i + 2]);
                if lo > hi {
                    return Err(format!("inverted range {lo}-{hi} in {pattern:?}"));
                }
                class.extend(lo..=hi);
                i += 3;
            } else {
                class.push(chars[i]);
                i += 1;
            }
        }
        Ok((class, rest))
    }

    fn parse_repeat(rest: &str) -> Result<(usize, usize), String> {
        let inner = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or_else(|| format!("unsupported repeat {rest:?} (stub handles {{m,n}})"))?;
        let (min, max) = match inner.split_once(',') {
            Some((m, n)) => (
                m.parse().map_err(|e| format!("bad repeat: {e}"))?,
                n.parse().map_err(|e| format!("bad repeat: {e}"))?,
            ),
            None => {
                let n = inner.parse().map_err(|e| format!("bad repeat: {e}"))?;
                (n, n)
            }
        };
        if min > max {
            return Err(format!("inverted repeat {{{min},{max}}}"));
        }
        Ok((min, max))
    }

    pub struct RegexStrategy {
        class: Vec<char>,
        min: usize,
        max: usize,
    }

    impl Strategy for RegexStrategy {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let n = self.min + rng.below(self.max - self.min + 1);
            (0..n)
                .map(|_| self.class[rng.below(self.class.len())])
                .collect()
        }
    }
}

/// Runner configuration. Only `cases` matters to the stub; the other
/// fields exist so `..ProptestConfig::default()` spreads compile.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
    pub max_shrink_iters: u32,
    pub max_global_rejects: u32,
    pub fork: bool,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 256,
            max_shrink_iters: 1024,
            max_global_rejects: 65536,
            fork: false,
        }
    }
}

/// Mirrors `proptest::strategy::*` being reachable via a module path,
/// which some call sites spell out.
pub mod strategy {
    pub use super::{BoxedStrategy, Just, Map, Strategy, Union};
}

pub mod prelude {
    pub use super::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// The real proptest's `prop_assert*` return `Err` so shrinking can
/// proceed; with no shrinking a plain panic carries the same
/// information.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when the assumption fails. Expands to
/// `continue`, which binds to the per-case loop the `proptest!` macro
/// wraps around each test body.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    }};
}

/// The test-harness macro: each `#[test] fn name(pat in strategy, ..)`
/// becomes a plain `#[test]` that runs `cases` deterministic iterations
/// and, if one panics, prints its [`CaseReport`].
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (
        @with_config ($cfg:expr)
        $(
            $(#[$meta:meta])+
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let seed = $crate::env_seed();
                let mut rng = $crate::TestRng::for_test(stringify!($name), seed);
                let mut report = $crate::CaseReport {
                    test: stringify!($name),
                    seed,
                    case: 0,
                };
                for case in 0..config.cases {
                    report.case = case;
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(mut rng: TestRng) -> Vec<u64> {
        (0..4).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn without_a_seed_a_test_draws_its_name_stream() {
        let name = stream(TestRng::from_seed_str("some_test"));
        assert_eq!(stream(TestRng::for_test("some_test", None)), name);
        let seeded = stream(TestRng::for_test("some_test", Some(46)));
        assert_ne!(seeded, name);
        assert_eq!(stream(TestRng::for_test("some_test", Some(46))), seeded);
        assert_ne!(stream(TestRng::for_test("some_test", Some(47))), seeded);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn draws_stay_inside_their_range(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn a_failing_case_names_its_seed() {
        let mut report = CaseReport {
            test: "t",
            seed: Some(7),
            case: 3,
        };
        assert_eq!(
            report.message(),
            "proptest: t failed at case 3 under PROPTEST_SEED=7"
        );
        report.seed = None;
        assert!(report.message().ends_with("under PROPTEST_SEED unset"));
    }
}
