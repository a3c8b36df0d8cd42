//! Hash-consed expression pool with sort checking and constant folding.

use crate::expr::{BinOp, ExprId, Node, UnOp, VarId};
use crate::sort::Sort;
use crate::value::{mask, ops};
use std::collections::{HashMap, HashSet};

/// Declaration of a free variable in a pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDecl {
    /// Human-readable name (used by printers and counterexample traces).
    pub name: String,
    /// Sort of the variable.
    pub sort: Sort,
}

/// An arena of hash-consed word-level expressions.
///
/// All construction goes through the typed methods below, which
/// sort-check their operands, normalize commutative operand order and
/// perform local constant folding. Structurally equal expressions are
/// therefore always represented by the same [`ExprId`], which downstream
/// consumers (bit-blaster, evaluator, engines) rely on for caching.
///
/// # Example
///
/// ```
/// use rtlir::{ExprPool, Sort};
/// let mut p = ExprPool::new();
/// let x = p.new_var("x", Sort::Bv(8));
/// let xv = p.var(x);
/// let a = p.constv(8, 3);
/// let s1 = p.add(xv, a);
/// let s2 = p.add(a, xv); // commuted: hash-conses to the same node
/// assert_eq!(s1, s2);
/// let folded = p.add(a, a);
/// assert_eq!(p.const_bits(folded), Some(6));
/// ```
///
/// # Panics
///
/// Constructor methods panic on sort violations (e.g. adding an 8-bit
/// and a 4-bit vector, or an `ite` whose condition is not one bit wide).
/// These indicate bugs in the calling translator, not user input errors;
/// user-facing frontends validate widths before constructing IR.
#[derive(Clone, Debug, Default)]
pub struct ExprPool {
    vars: Vec<VarDecl>,
    nodes: Vec<Node>,
    sorts: Vec<Sort>,
    dedup: HashMap<Node, ExprId>,
}

impl ExprPool {
    /// Creates an empty pool.
    pub fn new() -> ExprPool {
        ExprPool::default()
    }

    /// Number of interned expressions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool contains no expressions.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Declares a fresh free variable.
    pub fn new_var(&mut self, name: impl Into<String>, sort: Sort) -> VarId {
        assert!(sort.is_valid(), "invalid sort {sort} for variable");
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: name.into(),
            sort,
        });
        id
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The declaration of a variable.
    pub fn var_decl(&self, v: VarId) -> &VarDecl {
        &self.vars[v.index()]
    }

    /// The sort of a variable.
    pub fn var_sort(&self, v: VarId) -> Sort {
        self.vars[v.index()].sort
    }

    /// The node behind an expression id.
    pub fn node(&self, e: ExprId) -> &Node {
        &self.nodes[e.index()]
    }

    /// The sort of an expression.
    pub fn sort(&self, e: ExprId) -> Sort {
        self.sorts[e.index()]
    }

    /// The bit-vector width of an expression.
    ///
    /// # Panics
    ///
    /// Panics if the expression has array sort.
    pub fn width(&self, e: ExprId) -> u32 {
        self.sort(e).width()
    }

    /// If `e` is a bit-vector constant, its payload.
    pub fn const_bits(&self, e: ExprId) -> Option<u64> {
        match self.node(e) {
            Node::Const { bits, .. } => Some(*bits),
            _ => None,
        }
    }

    /// Whether `e` is the single-bit constant 1.
    pub fn is_true(&self, e: ExprId) -> bool {
        self.sort(e) == Sort::BOOL && self.const_bits(e) == Some(1)
    }

    /// Whether `e` is the single-bit constant 0.
    pub fn is_false(&self, e: ExprId) -> bool {
        self.sort(e) == Sort::BOOL && self.const_bits(e) == Some(0)
    }

    fn intern(&mut self, node: Node, sort: Sort) -> ExprId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.sorts.push(sort);
        self.dedup.insert(node, id);
        id
    }

    // ------------------------------------------------------------------
    // Leaf constructors
    // ------------------------------------------------------------------

    /// A bit-vector constant of the given width (bits are masked).
    pub fn constv(&mut self, width: u32, bits: u64) -> ExprId {
        assert!(
            (1..=64).contains(&width),
            "constant width {width} out of range 1..=64"
        );
        self.intern(
            Node::Const {
                width,
                bits: bits & mask(width),
            },
            Sort::Bv(width),
        )
    }

    /// The single-bit constant for `b`.
    pub fn bool_const(&mut self, b: bool) -> ExprId {
        self.constv(1, b as u64)
    }

    /// A reference to a declared variable.
    pub fn var(&mut self, v: VarId) -> ExprId {
        let sort = self.var_sort(v);
        self.intern(Node::Var(v), sort)
    }

    /// A constant array with all elements equal to `bits`.
    pub fn const_array(&mut self, index_width: u32, elem_width: u32, bits: u64) -> ExprId {
        let sort = Sort::array(index_width, elem_width);
        assert!(sort.is_valid(), "invalid array sort {sort}");
        self.intern(
            Node::ConstArray {
                index_width,
                elem_width,
                bits: bits & mask(elem_width),
            },
            sort,
        )
    }

    // ------------------------------------------------------------------
    // Unary operators
    // ------------------------------------------------------------------

    fn unary(&mut self, op: UnOp, a: ExprId) -> ExprId {
        let w = self.width(a);
        let out_sort = match op {
            UnOp::Not | UnOp::Neg => Sort::Bv(w),
            UnOp::RedAnd | UnOp::RedOr | UnOp::RedXor => Sort::BOOL,
        };
        if let Some(av) = self.const_bits(a) {
            return self.constv(out_sort.width(), ops::unary(op, w, av));
        }
        // ~~a == a
        if op == UnOp::Not {
            if let Node::Un(UnOp::Not, inner) = *self.node(a) {
                return inner;
            }
        }
        self.intern(Node::Un(op, a), out_sort)
    }

    /// Bitwise complement `~a`.
    pub fn not(&mut self, a: ExprId) -> ExprId {
        self.unary(UnOp::Not, a)
    }
    /// Two's-complement negation `-a`.
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        self.unary(UnOp::Neg, a)
    }
    /// Reduction AND `&a` (width-1 result).
    pub fn redand(&mut self, a: ExprId) -> ExprId {
        self.unary(UnOp::RedAnd, a)
    }
    /// Reduction OR `|a` (width-1 result).
    pub fn redor(&mut self, a: ExprId) -> ExprId {
        self.unary(UnOp::RedOr, a)
    }
    /// Reduction XOR `^a` (width-1 result).
    pub fn redxor(&mut self, a: ExprId) -> ExprId {
        self.unary(UnOp::RedXor, a)
    }

    // ------------------------------------------------------------------
    // Binary operators
    // ------------------------------------------------------------------

    fn binary(&mut self, op: BinOp, mut a: ExprId, mut b: ExprId) -> ExprId {
        let (wa, wb) = (self.width(a), self.width(b));
        if op.same_width_operands() {
            assert_eq!(
                wa, wb,
                "operator {op} requires equal widths, got bv{wa} and bv{wb}"
            );
        }
        let out_sort = if op.is_predicate() {
            Sort::BOOL
        } else if op == BinOp::Concat {
            assert!(
                wa + wb <= 64,
                "concat result width {} exceeds 64 bits",
                wa + wb
            );
            Sort::Bv(wa + wb)
        } else {
            Sort::Bv(wa)
        };

        // Constant folding.
        if let (Some(av), Some(bv)) = (self.const_bits(a), self.const_bits(b)) {
            return self.constv(out_sort.width(), ops::binary(op, wa, av, wb, bv));
        }

        // Canonical operand order for commutative operators:
        // constants first, then by id.
        if op.is_commutative() {
            let a_const = self.const_bits(a).is_some();
            let b_const = self.const_bits(b).is_some();
            if (b_const && !a_const) || (a_const == b_const && b < a) {
                std::mem::swap(&mut a, &mut b);
            }
        }

        // Local simplifications with one constant operand (now on the left
        // for commutative ops) or equal operands.
        let ac = self.const_bits(a);
        let bc = self.const_bits(b);
        match op {
            BinOp::And => {
                if ac == Some(0) {
                    return self.constv(wa, 0);
                }
                if ac == Some(mask(wa)) {
                    return b;
                }
                if a == b {
                    return a;
                }
            }
            BinOp::Or => {
                if ac == Some(0) {
                    return b;
                }
                if ac == Some(mask(wa)) {
                    return self.constv(wa, mask(wa));
                }
                if a == b {
                    return a;
                }
            }
            BinOp::Xor => {
                if ac == Some(0) {
                    return b;
                }
                if a == b {
                    return self.constv(wa, 0);
                }
            }
            BinOp::Add if ac == Some(0) => return b,
            BinOp::Add => {}
            BinOp::Sub => {
                if bc == Some(0) {
                    return a;
                }
                if a == b {
                    return self.constv(wa, 0);
                }
            }
            BinOp::Eq => {
                if a == b {
                    return self.bool_const(true);
                }
                // For single-bit operands: x == 1 is x, x == 0 is ~x.
                if wa == 1 {
                    if ac == Some(1) {
                        return b;
                    }
                    if ac == Some(0) {
                        return self.not(b);
                    }
                }
            }
            BinOp::Ult => {
                if a == b {
                    return self.bool_const(false);
                }
                if bc == Some(0) {
                    return self.bool_const(false);
                }
            }
            BinOp::Ule => {
                if a == b {
                    return self.bool_const(true);
                }
                if ac == Some(0) {
                    return self.bool_const(true);
                }
            }
            BinOp::Shl | BinOp::Lshr | BinOp::Ashr if bc == Some(0) => return a,
            BinOp::Shl | BinOp::Lshr | BinOp::Ashr => {}
            BinOp::Mul => {
                if ac == Some(1) {
                    return b;
                }
                if ac == Some(0) {
                    return self.constv(wa, 0);
                }
            }
            _ => {}
        }

        self.intern(Node::Bin(op, a, b), out_sort)
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::And, a, b)
    }
    /// Bitwise OR.
    pub fn or(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Or, a, b)
    }
    /// Bitwise XOR.
    pub fn xor(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Xor, a, b)
    }
    /// Addition modulo `2^w`.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Add, a, b)
    }
    /// Subtraction modulo `2^w`.
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Sub, a, b)
    }
    /// Multiplication modulo `2^w`.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Mul, a, b)
    }
    /// Unsigned division.
    pub fn udiv(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Udiv, a, b)
    }
    /// Unsigned remainder.
    pub fn urem(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Urem, a, b)
    }
    /// Logical shift left.
    pub fn shl(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Shl, a, b)
    }
    /// Logical shift right.
    pub fn lshr(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Lshr, a, b)
    }
    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Ashr, a, b)
    }
    /// Equality predicate.
    pub fn eq(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Eq, a, b)
    }
    /// Disequality predicate (`~(a == b)`).
    pub fn ne(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let e = self.eq(a, b);
        self.not(e)
    }
    /// Unsigned less-than predicate.
    pub fn ult(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Ult, a, b)
    }
    /// Unsigned less-or-equal predicate.
    pub fn ule(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Ule, a, b)
    }
    /// Unsigned greater-than predicate (`b <u a`).
    pub fn ugt(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Ult, b, a)
    }
    /// Unsigned greater-or-equal predicate (`b <=u a`).
    pub fn uge(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Ule, b, a)
    }
    /// Signed less-than predicate.
    pub fn slt(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Slt, a, b)
    }
    /// Signed less-or-equal predicate.
    pub fn sle(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Sle, a, b)
    }
    /// Concatenation (`a` is the high part).
    pub fn concat(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.binary(BinOp::Concat, a, b)
    }
    /// Boolean implication `a -> b`, defined as `~a | b`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not a single bit.
    pub fn implies(&mut self, a: ExprId, b: ExprId) -> ExprId {
        assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        let na = self.not(a);
        self.or(na, b)
    }

    // ------------------------------------------------------------------
    // Other constructors
    // ------------------------------------------------------------------

    /// If-then-else.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not one bit wide or the branches differ in sort.
    pub fn ite(&mut self, cond: ExprId, then_e: ExprId, else_e: ExprId) -> ExprId {
        assert!(
            self.sort(cond).is_bool(),
            "ite condition must be 1 bit, got {}",
            self.sort(cond)
        );
        let st = self.sort(then_e);
        assert_eq!(st, self.sort(else_e), "ite branches must have equal sorts");
        if let Some(c) = self.const_bits(cond) {
            return if c == 1 { then_e } else { else_e };
        }
        if then_e == else_e {
            return then_e;
        }
        // ite(c, 1, 0) == c and ite(c, 0, 1) == ~c for single-bit branches.
        if st.is_bool() {
            if self.is_true(then_e) && self.is_false(else_e) {
                return cond;
            }
            if self.is_false(then_e) && self.is_true(else_e) {
                return self.not(cond);
            }
        }
        self.intern(Node::Ite(cond, then_e, else_e), st)
    }

    /// Bit-field extraction `a[hi:lo]`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi < width(a)`.
    pub fn extract(&mut self, a: ExprId, hi: u32, lo: u32) -> ExprId {
        let w = self.width(a);
        assert!(
            lo <= hi && hi < w,
            "extract [{hi}:{lo}] out of range for bv{w}"
        );
        if lo == 0 && hi + 1 == w {
            return a;
        }
        if let Some(av) = self.const_bits(a) {
            return self.constv(hi - lo + 1, ops::extract(hi, lo, av));
        }
        // extract of extract composes.
        if let Node::Extract {
            hi: _,
            lo: ilo,
            arg,
        } = *self.node(a)
        {
            return self.extract(arg, ilo + hi, ilo + lo);
        }
        self.intern(Node::Extract { hi, lo, arg: a }, Sort::Bv(hi - lo + 1))
    }

    /// Single-bit extraction `a[i]`.
    pub fn bit(&mut self, a: ExprId, i: u32) -> ExprId {
        self.extract(a, i, i)
    }

    /// Zero extension to `width`. A no-op when `width` equals the
    /// operand's width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand width or above 64.
    pub fn zext(&mut self, a: ExprId, width: u32) -> ExprId {
        let w = self.width(a);
        assert!(w <= width && width <= 64, "zext bv{w} -> bv{width} invalid");
        if w == width {
            return a;
        }
        if let Some(av) = self.const_bits(a) {
            return self.constv(width, av);
        }
        self.intern(Node::Zext { arg: a, width }, Sort::Bv(width))
    }

    /// Sign extension to `width`. A no-op when `width` equals the
    /// operand's width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand width or above 64.
    pub fn sext(&mut self, a: ExprId, width: u32) -> ExprId {
        let w = self.width(a);
        assert!(w <= width && width <= 64, "sext bv{w} -> bv{width} invalid");
        if w == width {
            return a;
        }
        if let Some(av) = self.const_bits(a) {
            return self.constv(width, ops::sext(w, width, av));
        }
        self.intern(Node::Sext { arg: a, width }, Sort::Bv(width))
    }

    /// Adjusts `a` to exactly `width` bits, zero-extending or truncating
    /// (Verilog assignment-context resizing).
    pub fn resize_zext(&mut self, a: ExprId, width: u32) -> ExprId {
        let w = self.width(a);
        if w == width {
            a
        } else if w < width {
            self.zext(a, width)
        } else {
            self.extract(a, width - 1, 0)
        }
    }

    /// Array read `array[index]`.
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an array or the index width mismatches.
    pub fn read(&mut self, array: ExprId, index: ExprId) -> ExprId {
        let (iw, ew) = match self.sort(array) {
            Sort::Array {
                index_width,
                elem_width,
            } => (index_width, elem_width),
            s => panic!("read on non-array sort {s}"),
        };
        assert_eq!(self.width(index), iw, "array index width mismatch");
        // read(const_array(v), i) == v
        if let Node::ConstArray { bits, .. } = *self.node(array) {
            return self.constv(ew, bits);
        }
        // read(write(a, i, v), i) == v when indices are syntactically equal.
        if let Node::Write {
            array: _,
            index: wi,
            value,
        } = *self.node(array)
        {
            if wi == index {
                return value;
            }
        }
        self.intern(Node::Read { array, index }, Sort::Bv(ew))
    }

    /// Functional array update.
    ///
    /// # Panics
    ///
    /// Panics on index/element width mismatches.
    pub fn write(&mut self, array: ExprId, index: ExprId, value: ExprId) -> ExprId {
        let sort = self.sort(array);
        let (iw, ew) = match sort {
            Sort::Array {
                index_width,
                elem_width,
            } => (index_width, elem_width),
            s => panic!("write on non-array sort {s}"),
        };
        assert_eq!(self.width(index), iw, "array index width mismatch");
        assert_eq!(self.width(value), ew, "array element width mismatch");
        self.intern(
            Node::Write {
                array,
                index,
                value,
            },
            sort,
        )
    }

    /// Conjunction of a list of single-bit expressions (true for empty).
    pub fn and_all(&mut self, items: &[ExprId]) -> ExprId {
        let mut acc = self.bool_const(true);
        for &e in items {
            acc = self.and(acc, e);
        }
        acc
    }

    /// Disjunction of a list of single-bit expressions (false for empty).
    pub fn or_all(&mut self, items: &[ExprId]) -> ExprId {
        let mut acc = self.bool_const(false);
        for &e in items {
            acc = self.or(acc, e);
        }
        acc
    }

    // ------------------------------------------------------------------
    // The walk
    // ------------------------------------------------------------------

    /// The nodes under `root` that are not `done`, each once and after
    /// its operands: the order in which a memoizing pass computes them.
    ///
    /// The walk does not descend below a `done` node, so a pass that
    /// keeps a memo across calls passes "is memoized" and visits only
    /// new nodes. Of two unvisited operands, the later one in
    /// [`Node::children`] order comes first. The order is part of the
    /// contract: a pass that creates nodes as it goes, such as the
    /// unroller or the bit-blaster, numbers them in this order. The walk
    /// is iterative, and its cost is proportional to the nodes it
    /// visits: a shared sub-DAG is visited once, however many paths lead
    /// to it.
    pub fn post_order(&self, root: ExprId, done: impl Fn(ExprId) -> bool) -> Vec<ExprId> {
        let mut order = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = vec![(root, false)];
        while let Some((e, expanded)) = stack.pop() {
            if expanded {
                order.push(e);
            } else if !done(e) && seen.insert(e) {
                stack.push((e, true));
                stack.extend(self.node(e).children().map(|c| (c, false)));
            }
        }
        order
    }

    /// `node` rebuilt in this pool through the simplifying constructors,
    /// with each operand `x` replaced by `arg(x)`.
    ///
    /// A variable stays the variable of the same index; a pass that maps
    /// variables handles [`Node::Var`] itself.
    pub fn rebuild(&mut self, node: &Node, mut arg: impl FnMut(ExprId) -> ExprId) -> ExprId {
        match *node {
            Node::Const { width, bits } => self.constv(width, bits),
            Node::ConstArray {
                index_width,
                elem_width,
                bits,
            } => self.const_array(index_width, elem_width, bits),
            Node::Var(v) => self.var(v),
            Node::Un(op, a) => {
                let a = arg(a);
                self.unary(op, a)
            }
            Node::Bin(op, a, b) => {
                let (a, b) = (arg(a), arg(b));
                self.binary(op, a, b)
            }
            Node::Ite(c, t, f) => {
                let (c, t, f) = (arg(c), arg(t), arg(f));
                self.ite(c, t, f)
            }
            Node::Extract { hi, lo, arg: a } => {
                let a = arg(a);
                self.extract(a, hi, lo)
            }
            Node::Zext { arg: a, width } => {
                let a = arg(a);
                self.zext(a, width)
            }
            Node::Sext { arg: a, width } => {
                let a = arg(a);
                self.sext(a, width)
            }
            Node::Read { array, index } => {
                let (array, index) = (arg(array), arg(index));
                self.read(array, index)
            }
            Node::Write {
                array,
                index,
                value,
            } => {
                let (array, index, value) = (arg(array), arg(index), arg(value));
                self.write(array, index, value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_var(w: u32) -> (ExprPool, ExprId) {
        let mut p = ExprPool::new();
        let v = p.new_var("x", Sort::Bv(w));
        let e = p.var(v);
        (p, e)
    }

    #[test]
    fn hash_consing_dedups() {
        let (mut p, x) = pool_with_var(8);
        let c = p.constv(8, 5);
        let a1 = p.add(x, c);
        let a2 = p.add(x, c);
        assert_eq!(a1, a2);
        let n = p.len();
        let _ = p.add(c, x); // commuted
        assert_eq!(p.len(), n, "commuted add must not create a new node");
    }

    #[test]
    fn constant_folding() {
        let mut p = ExprPool::new();
        let a = p.constv(8, 200);
        let b = p.constv(8, 100);
        let s = p.add(a, b);
        assert_eq!(p.const_bits(s), Some(44)); // 300 mod 256
        let e = p.eq(a, b);
        assert!(p.is_false(e));
        let cc = p.concat(a, b);
        assert_eq!(p.const_bits(cc), Some(200 << 8 | 100));
        assert_eq!(p.width(cc), 16);
    }

    #[test]
    fn identities() {
        let (mut p, x) = pool_with_var(8);
        let zero = p.constv(8, 0);
        let ones = p.constv(8, 0xFF);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.or(x, zero), x);
        assert_eq!(p.and(x, ones), x);
        assert_eq!(p.xor(x, zero), x);
        let a = p.and(x, zero);
        assert_eq!(p.const_bits(a), Some(0));
        let s = p.sub(x, x);
        assert_eq!(p.const_bits(s), Some(0));
        let d = p.not(x);
        assert_eq!(p.not(d), x, "double negation cancels");
    }

    #[test]
    fn ite_simplification() {
        let (mut p, x) = pool_with_var(1);
        let t = p.bool_const(true);
        let f = p.bool_const(false);
        assert_eq!(p.ite(t, x, f), x);
        assert_eq!(p.ite(x, t, f), x);
        let nx = p.not(x);
        assert_eq!(p.ite(x, f, t), nx);
        assert_eq!(p.ite(x, t, t), t);
    }

    #[test]
    fn extract_composition() {
        let (mut p, x) = pool_with_var(16);
        let a = p.extract(x, 11, 4); // 8 bits
        let b = p.extract(a, 5, 2); // bits 6..=9 of x
        let direct = p.extract(x, 9, 6);
        assert_eq!(b, direct);
        assert_eq!(p.extract(x, 15, 0), x);
    }

    #[test]
    fn read_over_write() {
        let mut p = ExprPool::new();
        let mem = p.new_var("mem", Sort::array(4, 8));
        let m = p.var(mem);
        let i = p.constv(4, 3);
        let v = p.constv(8, 77);
        let m2 = p.write(m, i, v);
        assert_eq!(p.read(m2, i), v);
        let ca = p.const_array(4, 8, 9);
        let r = p.read(ca, i);
        assert_eq!(p.const_bits(r), Some(9));
    }

    #[test]
    fn predicate_sorts() {
        let (mut p, x) = pool_with_var(8);
        let c = p.constv(8, 1);
        let eq = p.eq(x, c);
        assert_eq!(p.sort(eq), Sort::BOOL);
        let lt = p.ult(x, c);
        assert!(p.sort(lt).is_bool());
        let gt = p.ugt(x, c);
        assert!(p.sort(gt).is_bool());
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn width_mismatch_panics() {
        let mut p = ExprPool::new();
        let a = p.constv(8, 1);
        let v = p.new_var("y", Sort::Bv(4));
        let b = p.var(v);
        let _ = p.add(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn concat_overflow_panics() {
        let mut p = ExprPool::new();
        let v = p.new_var("x", Sort::Bv(40));
        let a = p.var(v);
        let _ = p.concat(a, a);
    }

    #[test]
    fn and_or_all() {
        let (mut p, x) = pool_with_var(1);
        let y = p.new_var("y", Sort::BOOL);
        let yv = p.var(y);
        let c = p.and_all(&[x, yv]);
        assert!(matches!(p.node(c), Node::Bin(BinOp::And, _, _)));
        let empty = p.and_all(&[]);
        assert!(p.is_true(empty));
        let empty_or = p.or_all(&[]);
        assert!(p.is_false(empty_or));
    }

    #[test]
    fn post_order_visits_each_node_once_operands_first() {
        let (ts, root) = crate::unroll::tests::diamond(40);
        let p = ts.pool();
        let order = p.post_order(root, |_| false);
        // `s`, `x`, and per level `c_i`, a product and an ite.
        assert_eq!(order.len(), 2 + 3 * 40);
        let pos: HashMap<ExprId, usize> = order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        assert_eq!(pos.len(), order.len(), "each node once");
        for &e in &order {
            for c in p.node(e).children() {
                assert!(pos[&c] < pos[&e], "{c} after its user {e}");
            }
        }
        assert_eq!(order.last(), Some(&root));
        // A done node is neither visited nor descended into.
        let Node::Ite(_, below, _) = *p.node(root) else {
            panic!("root is an ite")
        };
        let above = p.post_order(root, |e| e == below);
        assert!(!above.contains(&below));
        assert_eq!(above.len(), 4, "c_39, x, the product and the root");
    }

    #[test]
    fn post_order_takes_the_last_operand_first() {
        let (mut p, x) = pool_with_var(8);
        let y = p.new_var("y", Sort::Bv(8));
        let yv = p.var(y);
        let d = p.sub(x, yv);
        assert_eq!(p.post_order(d, |_| false), vec![yv, x, d]);
        assert_eq!(p.post_order(d, |e| e == d), vec![]);
    }

    #[test]
    fn rebuild_simplifies_over_new_operands() {
        let (mut p, x) = pool_with_var(8);
        let c = p.constv(8, 3);
        let s = p.add(x, x);
        let node = p.node(s).clone();
        let folded = p.rebuild(&node, |_| c);
        assert_eq!(p.const_bits(folded), Some(6));
        assert_eq!(p.rebuild(&node, |a| a), s);
    }

    #[test]
    fn resize() {
        let (mut p, x) = pool_with_var(8);
        let up = p.resize_zext(x, 12);
        assert_eq!(p.width(up), 12);
        let t = p.resize_zext(x, 4);
        assert_eq!(p.width(t), 4);
        assert_eq!(p.resize_zext(x, 8), x);
    }
}
