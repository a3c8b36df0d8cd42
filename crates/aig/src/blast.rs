//! Word-level to bit-level lowering (bit-blasting).

use crate::graph::{Aig, AigLit};
use rtlir::{BinOp, ExprId, ExprPool, Node, Sort, UnOp, VarId};
use std::collections::HashMap;

/// Bit-level image of an array-sorted expression: one bit-vector per
/// element, fully expanded (index widths in this workspace are small).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayBits {
    /// Width of the index bit-vector.
    pub index_width: u32,
    /// Width of each element.
    pub elem_width: u32,
    /// `2^index_width` element bit-vectors, LSB first.
    pub elems: Vec<Vec<AigLit>>,
}

/// Bit-level image of a word-level expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bundle {
    /// A bit-vector, least-significant bit first.
    Bits(Vec<AigLit>),
    /// An expanded array.
    Array(ArrayBits),
}

impl Bundle {
    /// The bit-vector, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if the bundle is an array.
    pub fn bits(&self) -> &[AigLit] {
        match self {
            Bundle::Bits(b) => b,
            Bundle::Array(_) => panic!("bits() called on array bundle"),
        }
    }

    /// The single literal of a 1-bit bundle.
    ///
    /// # Panics
    ///
    /// Panics if the bundle is not exactly one bit.
    pub fn bit(&self) -> AigLit {
        let b = self.bits();
        assert_eq!(b.len(), 1, "bundle is not a single bit");
        b[0]
    }

    /// The array image.
    ///
    /// # Panics
    ///
    /// Panics if the bundle is a bit-vector.
    pub fn array(&self) -> &ArrayBits {
        match self {
            Bundle::Array(a) => a,
            Bundle::Bits(_) => panic!("array() called on bit-vector bundle"),
        }
    }
}

/// Lowers word-level expressions of one [`ExprPool`] into an [`Aig`].
///
/// Variables can be pre-bound to existing AIG literals with
/// [`bind`](Blaster::bind) (used to wire latch outputs and shared
/// frame variables); unbound variables get fresh CIs on first use.
///
/// # Example
///
/// ```
/// use aig::{Blaster, Bundle};
/// use rtlir::{ExprPool, Sort};
///
/// let mut p = ExprPool::new();
/// let x = p.new_var("x", Sort::Bv(4));
/// let xv = p.var(x);
/// let c = p.constv(4, 5);
/// let e = p.add(xv, c);
/// let mut b = Blaster::new(&p);
/// let bits = b.blast(e).bits().to_vec();
/// assert_eq!(bits.len(), 4);
/// // 3 + 5 == 8 in 4 bits: CI values for x are LSB-first.
/// let x_val = [true, true, false, false]; // 3
/// let out: Vec<bool> = bits.iter().map(|&l| b.aig().eval(l, &x_val)).collect();
/// assert_eq!(out, [false, false, false, true]); // 8
/// ```
#[derive(Debug)]
pub struct Blaster<'p> {
    pool: &'p ExprPool,
    aig: Aig,
    bound: HashMap<VarId, Bundle>,
    cache: HashMap<ExprId, Bundle>,
}

impl<'p> Blaster<'p> {
    /// Creates a blaster over a fresh AIG.
    pub fn new(pool: &'p ExprPool) -> Blaster<'p> {
        Blaster::with_aig(pool, Aig::new())
    }

    /// Creates a blaster that extends an existing AIG.
    pub fn with_aig(pool: &'p ExprPool, aig: Aig) -> Blaster<'p> {
        Blaster {
            pool,
            aig,
            bound: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    /// The underlying AIG.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Mutable access to the underlying AIG.
    pub fn aig_mut(&mut self) -> &mut Aig {
        &mut self.aig
    }

    /// Consumes the blaster, returning the AIG.
    pub fn into_aig(self) -> Aig {
        self.aig
    }

    /// Pre-binds a variable to existing AIG literals.
    ///
    /// # Panics
    ///
    /// Panics if the bundle shape does not match the variable's sort.
    pub fn bind(&mut self, v: VarId, bundle: Bundle) {
        match (self.pool.var_sort(v), &bundle) {
            (Sort::Bv(w), Bundle::Bits(b)) => {
                assert_eq!(b.len(), w as usize, "binding width mismatch for {v}");
            }
            (
                Sort::Array {
                    index_width,
                    elem_width,
                },
                Bundle::Array(a),
            ) => {
                assert_eq!(a.index_width, index_width);
                assert_eq!(a.elem_width, elem_width);
                assert_eq!(a.elems.len(), 1usize << index_width);
            }
            (s, _) => panic!("binding shape mismatch for {v}: sort {s}"),
        }
        self.bound.insert(v, bundle);
    }

    /// Creates fresh CIs for a variable (and binds them).
    pub fn fresh_var(&mut self, v: VarId) -> Bundle {
        let bundle = match self.pool.var_sort(v) {
            Sort::Bv(w) => Bundle::Bits((0..w).map(|_| self.aig.new_ci()).collect()),
            Sort::Array {
                index_width,
                elem_width,
            } => {
                let n = 1usize << index_width;
                let elems = (0..n)
                    .map(|_| (0..elem_width).map(|_| self.aig.new_ci()).collect())
                    .collect();
                Bundle::Array(ArrayBits {
                    index_width,
                    elem_width,
                    elems,
                })
            }
        };
        self.bound.insert(v, bundle.clone());
        bundle
    }

    /// Lowers an expression, returning its bit-level image.
    pub fn blast(&mut self, root: ExprId) -> Bundle {
        for e in self.pool.post_order(root, |e| self.cache.contains_key(&e)) {
            let bundle = self.lower_node(e);
            self.cache.insert(e, bundle);
        }
        self.cache[&root].clone()
    }

    /// Convenience: lowers a single-bit expression to one literal.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not one bit wide.
    pub fn blast_bit(&mut self, e: ExprId) -> AigLit {
        self.blast(e).bit()
    }

    fn lower_node(&mut self, e: ExprId) -> Bundle {
        let node = self.pool.node(e).clone();
        match node {
            Node::Const { width, bits } => Bundle::Bits(const_bits(width, bits)),
            Node::ConstArray {
                index_width,
                elem_width,
                bits,
            } => {
                let n = 1usize << index_width;
                Bundle::Array(ArrayBits {
                    index_width,
                    elem_width,
                    elems: vec![const_bits(elem_width, bits); n],
                })
            }
            Node::Var(v) => match self.bound.get(&v) {
                Some(b) => b.clone(),
                None => self.fresh_var(v),
            },
            Node::Un(op, a) => {
                let ab = self.cache[&a].bits().to_vec();
                let g = &mut self.aig;
                let out = match op {
                    UnOp::Not => ab.iter().map(|&l| !l).collect(),
                    UnOp::Neg => {
                        let inv: Vec<AigLit> = ab.iter().map(|&l| !l).collect();
                        add_const_one(g, &inv)
                    }
                    UnOp::RedAnd => vec![g.and_all(&ab)],
                    UnOp::RedOr => vec![g.or_all(&ab)],
                    UnOp::RedXor => {
                        let mut acc = AigLit::FALSE;
                        for &l in &ab {
                            acc = g.xor(acc, l);
                        }
                        vec![acc]
                    }
                };
                Bundle::Bits(out)
            }
            Node::Bin(op, a, b) => {
                let ab = self.cache[&a].bits().to_vec();
                let bb = self.cache[&b].bits().to_vec();
                let g = &mut self.aig;
                let out = match op {
                    BinOp::And => zip_map(g, &ab, &bb, Aig::and),
                    BinOp::Or => zip_map(g, &ab, &bb, Aig::or),
                    BinOp::Xor => zip_map(g, &ab, &bb, Aig::xor),
                    BinOp::Add => adder(g, &ab, &bb, AigLit::FALSE, false),
                    BinOp::Sub => {
                        let nb: Vec<AigLit> = bb.iter().map(|&l| !l).collect();
                        adder(g, &ab, &nb, AigLit::TRUE, false)
                    }
                    BinOp::Mul => multiplier(g, &ab, &bb),
                    BinOp::Udiv => divider(g, &ab, &bb).0,
                    BinOp::Urem => divider(g, &ab, &bb).1,
                    BinOp::Shl => shifter(g, &ab, &bb, ShiftKind::Left),
                    BinOp::Lshr => shifter(g, &ab, &bb, ShiftKind::RightLogical),
                    BinOp::Ashr => shifter(g, &ab, &bb, ShiftKind::RightArith),
                    BinOp::Eq => vec![equality(g, &ab, &bb)],
                    BinOp::Ult => vec![less_than(g, &ab, &bb, false)],
                    BinOp::Ule => vec![!less_than(g, &bb, &ab, false)],
                    BinOp::Slt => vec![less_than(g, &ab, &bb, true)],
                    BinOp::Sle => vec![!less_than(g, &bb, &ab, true)],
                    BinOp::Concat => {
                        // a is the high part: low bits come from b.
                        let mut out = bb.clone();
                        out.extend_from_slice(&ab);
                        out
                    }
                };
                Bundle::Bits(out)
            }
            Node::Ite(c, t, f) => {
                let cl = self.cache[&c].bit();
                match (self.cache[&t].clone(), self.cache[&f].clone()) {
                    (Bundle::Bits(tb), Bundle::Bits(fb)) => {
                        Bundle::Bits(zip_map3(&mut self.aig, cl, &tb, &fb))
                    }
                    (Bundle::Array(ta), Bundle::Array(fa)) => {
                        let elems = ta
                            .elems
                            .iter()
                            .zip(&fa.elems)
                            .map(|(te, fe)| zip_map3(&mut self.aig, cl, te, fe))
                            .collect();
                        Bundle::Array(ArrayBits {
                            index_width: ta.index_width,
                            elem_width: ta.elem_width,
                            elems,
                        })
                    }
                    _ => unreachable!("ite branches have equal sorts"),
                }
            }
            Node::Extract { hi, lo, arg } => {
                let ab = self.cache[&arg].bits();
                Bundle::Bits(ab[lo as usize..=hi as usize].to_vec())
            }
            Node::Zext { arg, width } => {
                let mut out = self.cache[&arg].bits().to_vec();
                out.resize(width as usize, AigLit::FALSE);
                Bundle::Bits(out)
            }
            Node::Sext { arg, width } => {
                let mut out = self.cache[&arg].bits().to_vec();
                let sign = *out.last().expect("nonempty bv");
                out.resize(width as usize, sign);
                Bundle::Bits(out)
            }
            Node::Read { array, index } => {
                let arr = self.cache[&array].array().clone();
                let idx = self.cache[&index].bits().to_vec();
                let g = &mut self.aig;
                let mut acc = arr.elems[0].clone();
                for (i, elem) in arr.elems.iter().enumerate().skip(1) {
                    let sel = index_equals(g, &idx, i as u64);
                    acc = zip_map3(g, sel, elem, &acc);
                }
                Bundle::Bits(acc)
            }
            Node::Write {
                array,
                index,
                value,
            } => {
                let arr = self.cache[&array].array().clone();
                let idx = self.cache[&index].bits().to_vec();
                let val = self.cache[&value].bits().to_vec();
                let g = &mut self.aig;
                let elems = arr
                    .elems
                    .iter()
                    .enumerate()
                    .map(|(i, elem)| {
                        let sel = index_equals(g, &idx, i as u64);
                        zip_map3(g, sel, &val, elem)
                    })
                    .collect();
                Bundle::Array(ArrayBits {
                    index_width: arr.index_width,
                    elem_width: arr.elem_width,
                    elems,
                })
            }
        }
    }
}

fn const_bits(width: u32, bits: u64) -> Vec<AigLit> {
    (0..width)
        .map(|i| AigLit::constant((bits >> i) & 1 == 1))
        .collect()
}

fn zip_map(
    g: &mut Aig,
    a: &[AigLit],
    b: &[AigLit],
    f: fn(&mut Aig, AigLit, AigLit) -> AigLit,
) -> Vec<AigLit> {
    a.iter().zip(b).map(|(&x, &y)| f(g, x, y)).collect()
}

fn zip_map3(g: &mut Aig, c: AigLit, t: &[AigLit], e: &[AigLit]) -> Vec<AigLit> {
    t.iter().zip(e).map(|(&x, &y)| g.mux(c, x, y)).collect()
}

/// Ripple-carry adder; `extra` requests one extra output bit (carry).
fn adder(g: &mut Aig, a: &[AigLit], b: &[AigLit], carry_in: AigLit, extra: bool) -> Vec<AigLit> {
    let mut out = Vec::with_capacity(a.len() + extra as usize);
    let mut carry = carry_in;
    for (&x, &y) in a.iter().zip(b) {
        let xy = g.xor(x, y);
        out.push(g.xor(xy, carry));
        let c1 = g.and(x, y);
        let c2 = g.and(xy, carry);
        carry = g.or(c1, c2);
    }
    if extra {
        out.push(carry);
    }
    out
}

fn add_const_one(g: &mut Aig, a: &[AigLit]) -> Vec<AigLit> {
    let one: Vec<AigLit> = (0..a.len()).map(|i| AigLit::constant(i == 0)).collect();
    adder(g, a, &one, AigLit::FALSE, false)
}

/// Shift-and-add multiplier, truncated to the operand width.
fn multiplier(g: &mut Aig, a: &[AigLit], b: &[AigLit]) -> Vec<AigLit> {
    let w = a.len();
    let mut acc: Vec<AigLit> = vec![AigLit::FALSE; w];
    for (i, &bi) in b.iter().enumerate() {
        // partial = (a << i) & bi, truncated to w bits.
        let mut partial = vec![AigLit::FALSE; w];
        for j in 0..(w - i) {
            partial[i + j] = g.and(a[j], bi);
        }
        acc = adder(g, &acc, &partial, AigLit::FALSE, false);
    }
    acc
}

/// Restoring divider: returns `(quotient, remainder)` with the SMT-LIB
/// division-by-zero convention (`q = ~0`, `r = a`).
fn divider(g: &mut Aig, a: &[AigLit], b: &[AigLit]) -> (Vec<AigLit>, Vec<AigLit>) {
    let w = a.len();
    // Work with w+1-bit remainder to avoid compare overflow.
    let bx: Vec<AigLit> = b.iter().copied().chain([AigLit::FALSE]).collect();
    let mut r: Vec<AigLit> = vec![AigLit::FALSE; w + 1];
    let mut q: Vec<AigLit> = vec![AigLit::FALSE; w];
    for i in (0..w).rev() {
        // r = (r << 1) | a[i]
        let mut r2: Vec<AigLit> = Vec::with_capacity(w + 1);
        r2.push(a[i]);
        r2.extend_from_slice(&r[..w]);
        // ge = r2 >= bx  <=>  !(r2 < bx)
        let lt = less_than(g, &r2, &bx, false);
        let ge = !lt;
        // r = ge ? r2 - bx : r2
        let nb: Vec<AigLit> = bx.iter().map(|&l| !l).collect();
        let diff = adder(g, &r2, &nb, AigLit::TRUE, false);
        r = diff
            .iter()
            .zip(&r2)
            .map(|(&d, &o)| g.mux(ge, d, o))
            .collect();
        q[i] = ge;
    }
    // Division by zero: q = all ones, r = a.
    let bits_b: Vec<AigLit> = b.to_vec();
    let zero: Vec<AigLit> = vec![AigLit::FALSE; w];
    let bz = equality(g, &bits_b, &zero);
    let q_final: Vec<AigLit> = q.iter().map(|&l| g.mux(bz, AigLit::TRUE, l)).collect();
    let r_final: Vec<AigLit> = r[..w]
        .iter()
        .zip(a)
        .map(|(&rl, &al)| g.mux(bz, al, rl))
        .collect();
    (q_final, r_final)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    RightLogical,
    RightArith,
}

/// Barrel shifter with saturation for out-of-range shift amounts.
fn shifter(g: &mut Aig, a: &[AigLit], sh: &[AigLit], kind: ShiftKind) -> Vec<AigLit> {
    let w = a.len();
    let fill_top = match kind {
        ShiftKind::RightArith => *a.last().expect("nonempty"),
        _ => AigLit::FALSE,
    };
    // Number of shift stages actually needed: shifts >= w saturate.
    let stages = (64 - (w as u64 - 1).leading_zeros()).max(1) as usize; // ceil(log2(w))
    let mut cur: Vec<AigLit> = a.to_vec();
    for s in 0..stages.min(sh.len()) {
        let amount = 1usize << s;
        let bit = sh[s];
        let mut shifted = vec![fill_top; w];
        match kind {
            ShiftKind::Left => {
                for j in (amount..w).rev() {
                    shifted[j] = cur[j - amount];
                }
                for item in shifted.iter_mut().take(amount.min(w)) {
                    *item = AigLit::FALSE;
                }
            }
            ShiftKind::RightLogical | ShiftKind::RightArith => {
                let keep = w.saturating_sub(amount);
                shifted[..keep].copy_from_slice(&cur[amount..amount + keep]);
            }
        }
        cur = cur
            .iter()
            .zip(&shifted)
            .map(|(&orig, &shf)| g.mux(bit, shf, orig))
            .collect();
    }
    // If any shift bit at or above `stages` is set, or the staged bits
    // encode a value >= w (only possible when w is not a power of two),
    // the result saturates.
    let mut overflow = AigLit::FALSE;
    for &b in sh.iter().skip(stages) {
        overflow = g.or(overflow, b);
    }
    if !w.is_power_of_two() {
        // Compare the low `stages` bits against w, zero-extending an
        // amount narrower than that: `less_than` reads only as many
        // bits as its left operand has.
        let low: Vec<AigLit> = (0..stages)
            .map(|i| sh.get(i).copied().unwrap_or(AigLit::FALSE))
            .collect();
        let wconst: Vec<AigLit> = (0..stages)
            .map(|i| AigLit::constant((w >> i) & 1 == 1))
            .collect();
        let ge_w = !less_than(g, &low, &wconst, false);
        overflow = g.or(overflow, ge_w);
    }
    cur.iter().map(|&l| g.mux(overflow, fill_top, l)).collect()
}

fn equality(g: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    let mut acc = AigLit::TRUE;
    for (&x, &y) in a.iter().zip(b) {
        let ne = g.xor(x, y);
        acc = g.and(acc, !ne);
    }
    acc
}

/// `a < b`, unsigned or signed (two's complement).
fn less_than(g: &mut Aig, a: &[AigLit], b: &[AigLit], signed: bool) -> AigLit {
    let w = a.len();
    let mut acc = AigLit::FALSE;
    for i in 0..w {
        let (x, y) = if signed && i == w - 1 {
            // For the sign bit, "a negative, b positive" means a < b:
            // flip both bits to reuse the unsigned cell.
            (!a[i], !b[i])
        } else {
            (a[i], b[i])
        };
        let eq = !g.xor(x, y);
        let lt = g.and(!x, y);
        acc = g.mux(eq, acc, lt);
    }
    acc
}

fn index_equals(g: &mut Aig, idx: &[AigLit], value: u64) -> AigLit {
    let mut acc = AigLit::TRUE;
    for (i, &l) in idx.iter().enumerate() {
        let want = (value >> i) & 1 == 1;
        let bit = if want { l } else { !l };
        acc = g.and(acc, bit);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtlir::{eval, Value};

    /// Blasts `f(x, y)` and cross-checks against the rtlir evaluator on
    /// random inputs, for each operator and width.
    #[test]
    fn operators_agree_with_evaluator() {
        let widths = [1u32, 3, 4, 7, 8, 13, 16];
        let mut rng = StdRng::seed_from_u64(42);
        for &w in &widths {
            let mut p = ExprPool::new();
            let x = p.new_var("x", Sort::Bv(w));
            let y = p.new_var("y", Sort::Bv(w));
            let (xe, ye) = (p.var(x), p.var(y));
            let mut exprs = vec![
                p.and(xe, ye),
                p.or(xe, ye),
                p.xor(xe, ye),
                p.add(xe, ye),
                p.sub(xe, ye),
                p.mul(xe, ye),
                p.udiv(xe, ye),
                p.urem(xe, ye),
                p.shl(xe, ye),
                p.lshr(xe, ye),
                p.ashr(xe, ye),
                p.eq(xe, ye),
                p.ult(xe, ye),
                p.ule(xe, ye),
                p.slt(xe, ye),
                p.sle(xe, ye),
                p.not(xe),
                p.neg(xe),
                p.redand(xe),
                p.redor(xe),
                p.redxor(xe),
            ];
            if 2 * w <= 64 {
                exprs.push(p.concat(xe, ye));
            }
            if w > 1 {
                exprs.push(p.extract(xe, w - 1, 1));
                let low = p.extract(xe, 0, 0);
                exprs.push(p.zext(low, w));
            }
            let se = p.sext(xe, (w + 3).min(64));
            exprs.push(se);
            let cond = p.redor(ye);
            exprs.push(p.ite(cond, xe, ye));
            // Shifts by amounts of every width up to ⌈log2 w⌉, the width
            // of the shifter's out-of-range comparison.
            let amount_bits = (64 - (u64::from(w) - 1).leading_zeros()).max(1);
            let amounts: Vec<VarId> = (1..=amount_bits)
                .map(|aw| p.new_var(format!("s{aw}"), Sort::Bv(aw)))
                .collect();
            for &s in &amounts {
                let amount = p.var(s);
                exprs.push(p.shl(xe, amount));
                exprs.push(p.lshr(xe, amount));
                exprs.push(p.ashr(xe, amount));
            }

            let mut blaster = Blaster::new(&p);
            // Fix the CI order: x bits first, then y bits, then the
            // amounts, narrowest first.
            for v in [x, y].iter().chain(&amounts) {
                blaster.fresh_var(*v);
            }
            let blasted: Vec<(ExprId, Vec<AigLit>)> = exprs
                .iter()
                .map(|&e| (e, blaster.blast(e).bits().to_vec()))
                .collect();

            for _ in 0..40 {
                let xv: u64 = rng.gen::<u64>() & rtlir::value::mask(w);
                let yv: u64 = if rng.gen_bool(0.15) {
                    0
                } else {
                    rng.gen::<u64>() & rtlir::value::mask(w)
                };
                let amount_vals: Vec<u64> = (1..=amount_bits)
                    .map(|aw| rng.gen::<u64>() & rtlir::value::mask(aw))
                    .collect();
                // CI order: x bits, y bits, amount bits (first use order).
                let mut cis: Vec<bool> = Vec::new();
                for i in 0..w {
                    cis.push((xv >> i) & 1 == 1);
                }
                for i in 0..w {
                    cis.push((yv >> i) & 1 == 1);
                }
                for (aw, &sv) in (1..=amount_bits).zip(&amount_vals) {
                    cis.extend((0..aw).map(|i| (sv >> i) & 1 == 1));
                }
                let env = |v: VarId| {
                    if v == x {
                        Value::bv(w, xv)
                    } else if v == y {
                        Value::bv(w, yv)
                    } else {
                        let k = amounts.iter().position(|&s| s == v).expect("amount var");
                        Value::bv(k as u32 + 1, amount_vals[k])
                    }
                };
                for (e, bits) in &blasted {
                    let want = eval(&p, *e, &env).bits();
                    let mut got = 0u64;
                    for (i, &l) in bits.iter().enumerate() {
                        if blaster.aig().eval(l, &cis) {
                            got |= 1 << i;
                        }
                    }
                    assert_eq!(
                        got,
                        want,
                        "w={w} op={} x={xv} y={yv}",
                        rtlir::printer::print_expr(&p, *e)
                    );
                }
            }
        }
    }

    #[test]
    fn shift_by_wide_amount_saturates() {
        // 8-bit value shifted by an 8-bit amount: amounts >= 8 give 0.
        let mut p = ExprPool::new();
        let x = p.new_var("x", Sort::Bv(8));
        let s = p.new_var("s", Sort::Bv(8));
        let (xe, se) = (p.var(x), p.var(s));
        let e = p.shl(xe, se);
        let mut b = Blaster::new(&p);
        b.fresh_var(x); // CI order: x bits 0..8, then s bits 8..16
        b.fresh_var(s);
        let bits = b.blast(e).bits().to_vec();
        let mut cis = vec![false; 16];
        cis[0] = true; // x = 1
        cis[8 + 3] = true; // s = 8
        for &l in &bits {
            assert!(!b.aig().eval(l, &cis), "1 << 8 must be 0 in 8 bits");
        }
    }

    #[test]
    fn array_read_write_blasting() {
        let mut p = ExprPool::new();
        let mem = p.new_var("mem", Sort::array(2, 4));
        let m = p.var(mem);
        let i1 = p.constv(2, 1);
        let v9 = p.constv(4, 9);
        let m2 = p.write(m, i1, v9);
        let idx = p.new_var("i", Sort::Bv(2));
        let iv = p.var(idx);
        let r = p.read(m2, iv);

        let mut b = Blaster::new(&p);
        b.fresh_var(mem); // CI order: mem elements first, then idx
        b.fresh_var(idx);
        let bits = b.blast(r).bits().to_vec();
        // CI order: mem elements (4 elems x 4 bits), then idx (2 bits).
        let mut cis = vec![false; 16 + 2];
        // mem[2] = 0b0101
        cis[2 * 4] = true;
        cis[2 * 4 + 2] = true;
        // idx = 1 -> written value 9
        cis[16] = true;
        let val = |b: &Blaster, bits: &[AigLit], cis: &[bool]| {
            let mut out = 0u64;
            for (i, &l) in bits.iter().enumerate() {
                if b.aig().eval(l, cis) {
                    out |= 1 << i;
                }
            }
            out
        };
        assert_eq!(val(&b, &bits, &cis), 9);
        // idx = 2 -> original element 5
        cis[16] = false;
        cis[17] = true;
        assert_eq!(val(&b, &bits, &cis), 5);
    }

    #[test]
    fn bound_variables_are_reused() {
        let mut p = ExprPool::new();
        let x = p.new_var("x", Sort::Bv(2));
        let xe = p.var(x);
        let e = p.add(xe, xe);
        let mut b = Blaster::new(&p);
        let ci0 = b.aig_mut().new_ci();
        let ci1 = b.aig_mut().new_ci();
        b.bind(x, Bundle::Bits(vec![ci0, ci1]));
        let bits = b.blast(e).bits().to_vec();
        // x + x with x = 1 gives 2.
        assert!(!b.aig().eval(bits[0], &[true, false]));
        assert!(b.aig().eval(bits[1], &[true, false]));
        assert_eq!(b.aig().num_cis(), 2, "no extra CIs for bound variable");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bind_wrong_width_panics() {
        let mut p = ExprPool::new();
        let x = p.new_var("x", Sort::Bv(4));
        let mut b = Blaster::new(&p);
        let ci = b.aig_mut().new_ci();
        b.bind(x, Bundle::Bits(vec![ci]));
    }
}
