//! Concrete values and the bit-precise semantics of every operator.
//!
//! The functions in this module define the golden semantics of the IR.
//! They follow Verilog synthesis semantics (all operations are unsigned
//! modulo `2^w` unless the operator is explicitly signed) and agree with
//! SMT-LIB's `QF_BV` theory for division by zero (`udiv x 0 = ~0`,
//! `urem x 0 = x`).

use crate::sort::Sort;
use std::collections::BTreeMap;
use std::fmt;

/// Mask with the low `w` bits set (`w` in `1..=64`).
#[inline]
pub fn mask(w: u32) -> u64 {
    debug_assert!((1..=64).contains(&w));
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Sign-extends the low `w` bits of `v` to a full `i64`.
#[inline]
pub fn sext_i64(v: u64, w: u32) -> i64 {
    debug_assert!((1..=64).contains(&w));
    let shift = 64 - w;
    ((v << shift) as i64) >> shift
}

/// A dense map modelling an array (memory) value.
///
/// Stores a default element plus sparse overrides, so a 1024-entry RAM
/// that is mostly zero costs almost nothing to copy during simulation.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayValue {
    /// Width of the index bit-vector.
    pub index_width: u32,
    /// Width of each element.
    pub elem_width: u32,
    /// Value of every index not present in `store`.
    pub default: u64,
    /// Sparse overrides. Invariant: values are masked to `elem_width`
    /// and no entry equals `default`.
    pub store: BTreeMap<u64, u64>,
}

impl ArrayValue {
    /// A constant array where every element is `default`.
    pub fn filled(index_width: u32, elem_width: u32, default: u64) -> ArrayValue {
        ArrayValue {
            index_width,
            elem_width,
            default: default & mask(elem_width),
            store: BTreeMap::new(),
        }
    }

    /// Reads the element at `index` (masked to the index width).
    pub fn read(&self, index: u64) -> u64 {
        let index = index & mask(self.index_width);
        *self.store.get(&index).unwrap_or(&self.default)
    }

    /// Returns a copy with `index` updated to `value`.
    pub fn write(&self, index: u64, value: u64) -> ArrayValue {
        let index = index & mask(self.index_width);
        let value = value & mask(self.elem_width);
        let mut out = self.clone();
        if value == out.default {
            out.store.remove(&index);
        } else {
            out.store.insert(index, value);
        }
        out
    }
}

/// A concrete value: a bit-vector or an array.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A bit-vector value; `bits` is always masked to `width`.
    Bv {
        /// Width in bits, `1..=64`.
        width: u32,
        /// The payload, masked to `width`.
        bits: u64,
    },
    /// An array (memory) value.
    Array(ArrayValue),
}

impl Value {
    /// Creates a bit-vector value, masking `bits` to `width`.
    pub fn bv(width: u32, bits: u64) -> Value {
        Value::Bv {
            width,
            bits: bits & mask(width),
        }
    }

    /// The single-bit value for a boolean.
    pub fn bit(b: bool) -> Value {
        Value::bv(1, b as u64)
    }

    /// Zero of the given sort.
    pub fn zero_of(sort: Sort) -> Value {
        match sort {
            Sort::Bv(w) => Value::bv(w, 0),
            Sort::Array {
                index_width,
                elem_width,
            } => Value::Array(ArrayValue::filled(index_width, elem_width, 0)),
        }
    }

    /// The sort of this value.
    pub fn sort(&self) -> Sort {
        match self {
            Value::Bv { width, .. } => Sort::Bv(*width),
            Value::Array(a) => Sort::array(a.index_width, a.elem_width),
        }
    }

    /// The bit-vector payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an array.
    pub fn bits(&self) -> u64 {
        match self {
            Value::Bv { bits, .. } => *bits,
            Value::Array(_) => panic!("bits() called on array value"),
        }
    }

    /// Interprets a single-bit value as a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a single-bit bit-vector.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bv { width: 1, bits } => *bits != 0,
            other => panic!("as_bool() on non-boolean value {other:?}"),
        }
    }

    /// The array payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a bit-vector.
    pub fn as_array(&self) -> &ArrayValue {
        match self {
            Value::Array(a) => a,
            Value::Bv { .. } => panic!("as_array() called on bit-vector value"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bv { width, bits } => write!(f, "{width}'d{bits}"),
            Value::Array(a) => {
                write!(f, "[default {}'d{}", a.elem_width, a.default)?;
                for (k, v) in &a.store {
                    write!(f, ", {k}: {v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Bit-precise implementations of the scalar operators.
///
/// These are free functions over `(width, bits)` pairs so the evaluator,
/// the constant folder and the interpreters can share one definition.
/// [`ops::unary`] and [`ops::binary`] are the one operator table: they
/// map each [`UnOp`](crate::UnOp) and [`BinOp`](crate::BinOp) to its
/// function.
pub mod ops {
    use super::{mask, sext_i64};
    use crate::expr::{BinOp, UnOp};

    /// `op` applied to `a`, an operand of width `w`.
    pub fn unary(op: UnOp, w: u32, a: u64) -> u64 {
        match op {
            UnOp::Not => not(w, a),
            UnOp::Neg => neg(w, a),
            UnOp::RedAnd => redand(w, a),
            UnOp::RedOr => redor(w, a),
            UnOp::RedXor => redxor(w, a),
        }
    }

    /// `op` applied to `a` and `b`, operands of widths `wa` and `wb`.
    pub fn binary(op: BinOp, wa: u32, a: u64, wb: u32, b: u64) -> u64 {
        match op {
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Add => add(wa, a, b),
            BinOp::Sub => sub(wa, a, b),
            BinOp::Mul => mul(wa, a, b),
            BinOp::Udiv => udiv(wa, a, b),
            BinOp::Urem => urem(wa, a, b),
            BinOp::Shl => shl(wa, a, b),
            BinOp::Lshr => lshr(wa, a, b),
            BinOp::Ashr => ashr(wa, a, b),
            BinOp::Eq => eq(a, b),
            BinOp::Ult => ult(a, b),
            BinOp::Ule => ule(a, b),
            BinOp::Slt => slt(wa, a, b),
            BinOp::Sle => sle(wa, a, b),
            BinOp::Concat => concat(a, wb, b),
        }
    }

    /// Bitwise negation.
    pub fn not(w: u32, a: u64) -> u64 {
        !a & mask(w)
    }
    /// Two's-complement negation.
    pub fn neg(w: u32, a: u64) -> u64 {
        a.wrapping_neg() & mask(w)
    }
    /// Reduction AND: 1 iff all bits set.
    pub fn redand(w: u32, a: u64) -> u64 {
        (a == mask(w)) as u64
    }
    /// Reduction OR: 1 iff any bit set.
    pub fn redor(_w: u32, a: u64) -> u64 {
        (a != 0) as u64
    }
    /// Reduction XOR: parity.
    pub fn redxor(_w: u32, a: u64) -> u64 {
        (a.count_ones() & 1) as u64
    }
    /// Addition modulo `2^w`.
    pub fn add(w: u32, a: u64, b: u64) -> u64 {
        a.wrapping_add(b) & mask(w)
    }
    /// Subtraction modulo `2^w`.
    pub fn sub(w: u32, a: u64, b: u64) -> u64 {
        a.wrapping_sub(b) & mask(w)
    }
    /// Multiplication modulo `2^w`.
    pub fn mul(w: u32, a: u64, b: u64) -> u64 {
        a.wrapping_mul(b) & mask(w)
    }
    /// Unsigned division; division by zero yields all-ones (SMT-LIB).
    pub fn udiv(w: u32, a: u64, b: u64) -> u64 {
        match a.checked_div(b) {
            Some(q) => q & mask(w),
            None => mask(w),
        }
    }
    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB).
    pub fn urem(w: u32, a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            (a % b) & mask(w)
        }
    }
    /// Logical shift left; shifts `>= w` yield zero.
    pub fn shl(w: u32, a: u64, b: u64) -> u64 {
        if b >= w as u64 {
            0
        } else {
            (a << b) & mask(w)
        }
    }
    /// Logical shift right; shifts `>= w` yield zero.
    pub fn lshr(w: u32, a: u64, b: u64) -> u64 {
        if b >= w as u64 {
            0
        } else {
            a >> b
        }
    }
    /// Arithmetic shift right; shifts `>= w` replicate the sign bit.
    pub fn ashr(w: u32, a: u64, b: u64) -> u64 {
        let sa = sext_i64(a, w);
        let sh = b.min(63);
        ((sa >> sh) as u64) & mask(w)
    }
    /// Equality as a single bit.
    pub fn eq(a: u64, b: u64) -> u64 {
        (a == b) as u64
    }
    /// Unsigned less-than as a single bit.
    pub fn ult(a: u64, b: u64) -> u64 {
        (a < b) as u64
    }
    /// Unsigned less-or-equal as a single bit.
    pub fn ule(a: u64, b: u64) -> u64 {
        (a <= b) as u64
    }
    /// Signed less-than as a single bit.
    pub fn slt(w: u32, a: u64, b: u64) -> u64 {
        (sext_i64(a, w) < sext_i64(b, w)) as u64
    }
    /// Signed less-or-equal as a single bit.
    pub fn sle(w: u32, a: u64, b: u64) -> u64 {
        (sext_i64(a, w) <= sext_i64(b, w)) as u64
    }
    /// Concatenation: `a` becomes the high part.
    pub fn concat(a: u64, wb: u32, b: u64) -> u64 {
        (a << wb) | b
    }
    /// Bit-field extraction `[hi:lo]`.
    pub fn extract(hi: u32, lo: u32, a: u64) -> u64 {
        (a >> lo) & mask(hi - lo + 1)
    }
    /// Sign extension from width `w_from`.
    pub fn sext(w_from: u32, w_to: u32, a: u64) -> u64 {
        (sext_i64(a, w_from) as u64) & mask(w_to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(64), u64::MAX);
        assert_eq!(Value::bv(4, 0x1F).bits(), 0xF);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sext_i64(0b1000, 4), -8);
        assert_eq!(sext_i64(0b0111, 4), 7);
        assert_eq!(ops::sext(4, 8, 0b1010), 0xFA);
        assert_eq!(ops::sext(4, 8, 0b0101), 0x05);
    }

    #[test]
    fn arithmetic_wraps() {
        assert_eq!(ops::add(4, 15, 1), 0);
        assert_eq!(ops::sub(4, 0, 1), 15);
        assert_eq!(ops::mul(4, 5, 5), 9);
        assert_eq!(ops::neg(4, 1), 15);
    }

    #[test]
    fn division_by_zero_follows_smtlib() {
        assert_eq!(ops::udiv(8, 42, 0), 0xFF);
        assert_eq!(ops::urem(8, 42, 0), 42);
        assert_eq!(ops::udiv(8, 42, 5), 8);
        assert_eq!(ops::urem(8, 42, 5), 2);
    }

    #[test]
    fn shifts_saturate() {
        assert_eq!(ops::shl(8, 0xFF, 8), 0);
        assert_eq!(ops::lshr(8, 0xFF, 9), 0);
        assert_eq!(ops::shl(8, 1, 3), 8);
        assert_eq!(ops::ashr(8, 0x80, 2), 0xE0);
        assert_eq!(ops::ashr(8, 0x80, 100), 0xFF);
        assert_eq!(ops::ashr(8, 0x40, 100), 0);
    }

    #[test]
    fn reductions() {
        assert_eq!(ops::redand(4, 0xF), 1);
        assert_eq!(ops::redand(4, 0xE), 0);
        assert_eq!(ops::redor(4, 0), 0);
        assert_eq!(ops::redor(4, 2), 1);
        assert_eq!(ops::redxor(4, 0b0111), 1);
        assert_eq!(ops::redxor(4, 0b0101), 0);
    }

    #[test]
    fn signed_compare() {
        // In 4 bits: 8..15 are negative.
        assert_eq!(ops::slt(4, 8, 0), 1); // -8 < 0
        assert_eq!(ops::slt(4, 0, 8), 0);
        assert_eq!(ops::sle(4, 15, 15), 1); // -1 <= -1
        assert_eq!(ops::slt(4, 7, 8), 0); // 7 < -8 is false
    }

    #[test]
    fn concat_extract_roundtrip() {
        let c = ops::concat(0xA, 4, 0x5);
        assert_eq!(c, 0xA5);
        assert_eq!(ops::extract(7, 4, c), 0xA);
        assert_eq!(ops::extract(3, 0, c), 0x5);
    }

    #[test]
    fn array_read_write() {
        let a = ArrayValue::filled(4, 8, 0);
        assert_eq!(a.read(3), 0);
        let b = a.write(3, 0x7F);
        assert_eq!(b.read(3), 0x7F);
        assert_eq!(b.read(4), 0);
        assert_eq!(a.read(3), 0, "write is persistent, original unchanged");
        // Writing the default value back shrinks the store.
        let c = b.write(3, 0);
        assert!(c.store.is_empty());
    }

    #[test]
    fn array_index_masked() {
        let a = ArrayValue::filled(2, 8, 0).write(5, 9); // 5 & 0b11 == 1
        assert_eq!(a.read(1), 9);
        assert_eq!(a.read(5), 9);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::bv(8, 255).to_string(), "8'd255");
        assert_eq!(Value::bit(true).to_string(), "1'd1");
    }
}
