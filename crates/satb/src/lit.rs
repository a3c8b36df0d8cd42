//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The raw index, for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a variable from a raw index.
    pub fn from_index(i: usize) -> Var {
        Var(i as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `var << 1 | sign` with `sign == 1` meaning *negated*,
/// the MiniSAT convention. `repr(transparent)` is load-bearing: the
/// clause arena ([`crate::cdb::ClauseDb`]) stores literals as raw
/// `u32` words and reinterprets them as `Lit` slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }
    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }
    /// A literal of `v` with the given polarity (`true` = positive).
    pub fn new(v: Var, positive: bool) -> Lit {
        Lit(v.0 << 1 | (!positive as u32))
    }
    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }
    /// Whether this is the positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }
    /// The raw code (`var*2 + sign`), for dense watch tables.
    pub fn code(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a literal from its raw code.
    pub fn from_code(c: usize) -> Lit {
        Lit(c as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// Ternary assignment value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrip() {
        let v = Var::from_index(7);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_code(p.code()), p);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn display() {
        let v = Var::from_index(3);
        assert_eq!(Lit::pos(v).to_string(), "x3");
        assert_eq!(Lit::neg(v).to_string(), "!x3");
    }
}
