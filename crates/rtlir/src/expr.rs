//! Expression node definitions.

use std::fmt;

/// Index of an expression in an [`ExprPool`](crate::ExprPool).
///
/// Identifiers are only meaningful relative to the pool that created
/// them; thanks to hash-consing, two structurally equal expressions in
/// the same pool always share one `ExprId`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub(crate) u32);

impl ExprId {
    /// The raw index, for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Index of a variable declared in an [`ExprPool`](crate::ExprPool).
///
/// Variables are the free names of the expression language; a
/// [`TransitionSystem`](crate::TransitionSystem) designates some of them
/// as inputs and some as state-holding elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index, for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a `VarId` from a raw index previously obtained via
    /// [`index`](VarId::index).
    pub fn from_index(i: usize) -> VarId {
        VarId(i as u32)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Unary word-level operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement (`~a`).
    Not,
    /// Two's-complement negation (`-a`).
    Neg,
    /// Reduction AND (`&a`), result width 1.
    RedAnd,
    /// Reduction OR (`|a`), result width 1.
    RedOr,
    /// Reduction XOR (`^a`), result width 1.
    RedXor,
}

/// Binary word-level operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Addition modulo `2^w`.
    Add,
    /// Subtraction modulo `2^w`.
    Sub,
    /// Multiplication modulo `2^w`.
    Mul,
    /// Unsigned division (`x/0 = ~0`).
    Udiv,
    /// Unsigned remainder (`x%0 = x`).
    Urem,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
    /// Equality, result width 1.
    Eq,
    /// Unsigned less-than, result width 1.
    Ult,
    /// Unsigned less-or-equal, result width 1.
    Ule,
    /// Signed less-than, result width 1.
    Slt,
    /// Signed less-or-equal, result width 1.
    Sle,
    /// Concatenation; left operand is the high part.
    Concat,
}

impl BinOp {
    /// Whether the operator is commutative (used for hash-cons
    /// normalization of operand order).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Add | BinOp::Mul | BinOp::Eq
        )
    }

    /// Whether both operands must share a width.
    pub fn same_width_operands(self) -> bool {
        !matches!(self, BinOp::Shl | BinOp::Lshr | BinOp::Ashr | BinOp::Concat)
    }

    /// Whether the result is a single bit regardless of operand width.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ult | BinOp::Ule | BinOp::Slt | BinOp::Sle
        )
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Not => "~",
            UnOp::Neg => "-",
            UnOp::RedAnd => "&",
            UnOp::RedOr => "|",
            UnOp::RedXor => "^",
        };
        f.write_str(s)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Udiv => "/",
            BinOp::Urem => "%",
            BinOp::Shl => "<<",
            BinOp::Lshr => ">>",
            BinOp::Ashr => ">>>",
            BinOp::Eq => "==",
            BinOp::Ult => "<u",
            BinOp::Ule => "<=u",
            BinOp::Slt => "<s",
            BinOp::Sle => "<=s",
            BinOp::Concat => "++",
        };
        f.write_str(s)
    }
}

/// An expression node. Sub-expressions are referenced by [`ExprId`].
///
/// Nodes are immutable once interned in a pool; the pool guarantees that
/// all width/sort constraints documented on
/// [`ExprPool`](crate::ExprPool)'s constructor methods hold.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    /// A bit-vector constant.
    Const {
        /// Width in bits.
        width: u32,
        /// Payload, masked to `width`.
        bits: u64,
    },
    /// A free variable (input, register, or auxiliary).
    Var(VarId),
    /// Unary operator application.
    Un(UnOp, ExprId),
    /// Binary operator application.
    Bin(BinOp, ExprId, ExprId),
    /// If-then-else; condition must be a single bit.
    Ite(ExprId, ExprId, ExprId),
    /// Bit-field extraction `arg[hi:lo]`.
    Extract {
        /// Most significant extracted bit.
        hi: u32,
        /// Least significant extracted bit.
        lo: u32,
        /// Extracted operand.
        arg: ExprId,
    },
    /// Zero extension to `width`.
    Zext {
        /// Operand.
        arg: ExprId,
        /// Target width (strictly larger than operand width).
        width: u32,
    },
    /// Sign extension to `width`.
    Sext {
        /// Operand.
        arg: ExprId,
        /// Target width (strictly larger than operand width).
        width: u32,
    },
    /// Array read `array[index]`.
    Read {
        /// Array operand.
        array: ExprId,
        /// Index operand (width = array index width).
        index: ExprId,
    },
    /// Functional array update `array with [index := value]`.
    Write {
        /// Array operand.
        array: ExprId,
        /// Index operand.
        index: ExprId,
        /// New element value.
        value: ExprId,
    },
    /// A constant array with every element equal to `bits`.
    ConstArray {
        /// Index width of the resulting array sort.
        index_width: u32,
        /// Element width of the resulting array sort.
        elem_width: u32,
        /// Element payload.
        bits: u64,
    },
}

impl Node {
    /// The operands of the node in field order: none for a leaf, the
    /// condition before the branches of an ite, and the array before
    /// the index and the value of an array access.
    pub fn children(&self) -> impl Iterator<Item = ExprId> {
        let ops = match *self {
            Node::Const { .. } | Node::Var(_) | Node::ConstArray { .. } => [None; 3],
            Node::Un(_, a)
            | Node::Extract { arg: a, .. }
            | Node::Zext { arg: a, .. }
            | Node::Sext { arg: a, .. } => [Some(a), None, None],
            Node::Bin(_, a, b) | Node::Read { array: a, index: b } => [Some(a), Some(b), None],
            Node::Ite(a, b, c)
            | Node::Write {
                array: a,
                index: b,
                value: c,
            } => [Some(a), Some(b), Some(c)],
        };
        ops.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity_table() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Eq.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Concat.is_commutative());
        assert!(!BinOp::Ult.is_commutative());
    }

    #[test]
    fn predicate_table() {
        assert!(BinOp::Ult.is_predicate());
        assert!(BinOp::Sle.is_predicate());
        assert!(!BinOp::Add.is_predicate());
    }

    #[test]
    fn shift_width_rule() {
        assert!(!BinOp::Shl.same_width_operands());
        assert!(BinOp::Add.same_width_operands());
    }

    #[test]
    fn ids_display() {
        assert_eq!(ExprId(7).to_string(), "e7");
        assert_eq!(VarId(3).to_string(), "v3");
        assert_eq!(VarId::from_index(5).index(), 5);
    }
}
