//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the subset of the proptest API the workspace's property
//! tests use: the [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_recursive`
//! / `boxed`, range and tuple strategies, `prop_oneof!`,
//! `prop::collection::vec`, and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` macros. Each `proptest!` test runs a fixed number
//! of deterministic random cases; there is no shrinking.

#![forbid(unsafe_code)]

/// Test-case RNG and case-count configuration.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Number of cases each `proptest!` test executes.
    pub const CASES: u32 = 128;

    /// Deterministic RNG handed to strategies.
    pub struct TestRng(StdRng);

    impl TestRng {
        /// A fixed-seed RNG (no shrinking, so reproducibility is by
        /// construction).
        pub fn deterministic() -> TestRng {
            TestRng(StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15))
        }

        /// The next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// A uniform index below `n` (`n > 0`).
        pub fn below(&mut self, n: usize) -> usize {
            self.0.gen_range(0..n)
        }
    }
}

/// Strategies: recipes for generating random values.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A generator of random values (subset of `proptest::Strategy`).
    pub trait Strategy: Clone {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            F: Fn(Self::Value) -> T + Clone,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: 'static,
        {
            let s = self;
            BoxedStrategy(Rc::new(move |rng| s.generate(rng)))
        }

        /// Builds recursive structures: `f` receives a strategy for the
        /// substructure and returns the strategy for one more level.
        /// `depth` bounds the recursion; `_desired_size` and
        /// `_expected_branch_size` are accepted for API compatibility
        /// and ignored.
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let leaf = self.boxed();
            let mut cur = leaf.clone();
            for _ in 0..depth {
                let deeper = f(cur).boxed();
                // Mix in leaves so sampled structures vary in depth.
                let l = leaf.clone();
                cur = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                    if rng.below(4) == 0 {
                        l.generate(rng)
                    } else {
                        deeper.generate(rng)
                    }
                }));
            }
            cur
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between type-erased alternatives
    /// (the expansion of `prop_oneof!`).
    pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union(self.0.clone())
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len());
            self.0[i].generate(rng)
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T + Clone,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end - self.start) as u64;
                    assert!(span > 0, "empty range strategy");
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

/// Combinator namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::ops::Range;

        /// Strategy for `Vec`s with lengths drawn from `len`.
        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        /// Generates vectors of values from `element` with a length in
        /// `len`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = self.len.end.saturating_sub(self.len.start).max(1);
                let n = self.len.start + rng.below(span);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Everything a property test needs (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Chooses uniformly among the given strategies (all producing the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l,
            r,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Declares property tests: each function runs
/// [`test_runner::CASES`] deterministic random cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::TestRng::deterministic();
                for case in 0..$crate::test_runner::CASES {
                    $(let $arg = $crate::strategy::Strategy::generate(&$strategy, &mut rng);)+
                    let result: ::std::result::Result<(), String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(message) = result {
                        panic!("property failed at case {case}: {message}");
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(a in 0u64..10, b in 3usize..7) {
            prop_assert!(a < 10);
            prop_assert!((3..7).contains(&b));
        }

        #[test]
        fn tuples_and_vec(pairs in prop::collection::vec((0u64..4, 0u64..4), 0..5)) {
            prop_assert!(pairs.len() < 5);
            for (x, y) in &pairs {
                prop_assert!(*x < 4 && *y < 4);
            }
        }
    }

    #[test]
    fn oneof_and_recursive_terminate() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        #[derive(Clone, Debug)]
        enum T {
            Leaf(u64),
            Node(Box<T>),
        }
        fn depth(t: &T) -> u32 {
            match t {
                T::Leaf(v) => {
                    assert!(*v < 8, "leaf out of range");
                    0
                }
                T::Node(i) => 1 + depth(i),
            }
        }
        let leaf = (0u64..8).prop_map(T::Leaf);
        let s = leaf.prop_recursive(4, 16, 2, |inner| {
            prop_oneof![inner.prop_map(|t| T::Node(Box::new(t)))]
        });
        let mut rng = TestRng::deterministic();
        for _ in 0..200 {
            let t = s.generate(&mut rng);
            assert!(depth(&t) <= 4);
        }
    }
}
