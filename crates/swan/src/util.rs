//! Shared machinery for the software analyzers: substitution, atom
//! collection, and the bit-level unrolling that IMPARA and CPA-itp
//! interpolate over. Word-level queries and traces come from
//! [`engines::word`], which the k-induction analyzers run outright.

use aig::{AigSystem, FrameVars, TransitionTemplate};
use rtlir::{ExprId, ExprPool, Node, TransitionSystem, VarId};
use satb::{Lit, Part, Solver};
use std::collections::{HashMap, HashSet};

/// Unrolls `tpl`, compiled from `sys`, over `len` frames from the reset
/// state, for interpolation. Frame `f` is instantiated with `label(f)`'s
/// partition and tag on fresh latch variables, `latches[f]`, and its
/// next state is tied to `latches[f + 1]` by equivalence clauses under
/// the same label. A cut before frame `c` therefore shares exactly
/// `latches[c]` between its sides: the variables an interpolant at that
/// cut ranges over. The reset values go on `latches[0]` in
/// [`Part::A`] with tag 0, on the first side of every cut. Returns the
/// latch variables and the frames.
pub(crate) fn interface_unrolling(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    solver: &mut Solver,
    len: usize,
    label: impl Fn(usize) -> (Part, u32),
) -> (Vec<Vec<Lit>>, Vec<FrameVars>) {
    let latches: Vec<Vec<Lit>> = (0..len)
        .map(|_| {
            (0..tpl.num_latches())
                .map(|_| Lit::pos(solver.new_var()))
                .collect()
        })
        .collect();
    let frames: Vec<FrameVars> = latches
        .iter()
        .enumerate()
        .map(|(f, cur)| {
            let (part, tag) = label(f);
            tpl.instantiate_bound(solver, part, tag, cur)
        })
        .collect();
    frames[0].assert_init(sys, solver);
    for (f, (frame, next)) in frames.iter().zip(&latches[1..]).enumerate() {
        let (part, tag) = label(f);
        for (&nl, &l) in frame.latch_next.iter().zip(next) {
            solver.add_clause_tagged(&[!nl, l], part, tag);
            solver.add_clause_tagged(&[nl, !l], part, tag);
        }
    }
    (latches, frames)
}

/// Substitutes state variables by their next-state functions in `e`
/// (the strongest-postcondition/weakest-precondition workhorse).
/// Input variables are left untouched.
pub fn substitute_next(ts: &mut TransitionSystem, e: ExprId) -> ExprId {
    let next_of: HashMap<VarId, ExprId> = ts
        .states()
        .iter()
        .filter_map(|s| s.next.map(|n| (s.var, n)))
        .collect();
    substitute(ts, e, &next_of)
}

/// Substitutes variables by expressions in `e` (bottom-up, memoized).
pub fn substitute(ts: &mut TransitionSystem, root: ExprId, map: &HashMap<VarId, ExprId>) -> ExprId {
    let mut memo: HashMap<ExprId, ExprId> = HashMap::new();
    let mut order: Vec<ExprId> = Vec::new();
    let mut stack = vec![(root, false)];
    while let Some((e, expanded)) = stack.pop() {
        if memo.contains_key(&e) {
            continue;
        }
        if expanded {
            order.push(e);
            continue;
        }
        stack.push((e, true));
        match ts.pool().node(e) {
            Node::Const { .. } | Node::Var(_) | Node::ConstArray { .. } => {}
            Node::Un(_, a) | Node::Extract { arg: a, .. } => stack.push((*a, false)),
            Node::Zext { arg, .. } | Node::Sext { arg, .. } => stack.push((*arg, false)),
            Node::Bin(_, a, b) => {
                stack.push((*a, false));
                stack.push((*b, false));
            }
            Node::Ite(c, t, f) => {
                stack.push((*c, false));
                stack.push((*t, false));
                stack.push((*f, false));
            }
            Node::Read { array, index } => {
                stack.push((*array, false));
                stack.push((*index, false));
            }
            Node::Write {
                array,
                index,
                value,
            } => {
                stack.push((*array, false));
                stack.push((*index, false));
                stack.push((*value, false));
            }
        }
    }
    for e in order {
        let node = ts.pool().node(e).clone();
        let p = ts.pool_mut();
        let out = match node {
            Node::Const { .. } | Node::ConstArray { .. } => e,
            Node::Var(v) => map.get(&v).copied().unwrap_or(e),
            Node::Un(op, a) => {
                let ta = memo[&a];
                match op {
                    rtlir::UnOp::Not => p.not(ta),
                    rtlir::UnOp::Neg => p.neg(ta),
                    rtlir::UnOp::RedAnd => p.redand(ta),
                    rtlir::UnOp::RedOr => p.redor(ta),
                    rtlir::UnOp::RedXor => p.redxor(ta),
                }
            }
            Node::Bin(op, a, b) => {
                let (ta, tb) = (memo[&a], memo[&b]);
                use rtlir::BinOp as B;
                match op {
                    B::And => p.and(ta, tb),
                    B::Or => p.or(ta, tb),
                    B::Xor => p.xor(ta, tb),
                    B::Add => p.add(ta, tb),
                    B::Sub => p.sub(ta, tb),
                    B::Mul => p.mul(ta, tb),
                    B::Udiv => p.udiv(ta, tb),
                    B::Urem => p.urem(ta, tb),
                    B::Shl => p.shl(ta, tb),
                    B::Lshr => p.lshr(ta, tb),
                    B::Ashr => p.ashr(ta, tb),
                    B::Eq => p.eq(ta, tb),
                    B::Ult => p.ult(ta, tb),
                    B::Ule => p.ule(ta, tb),
                    B::Slt => p.slt(ta, tb),
                    B::Sle => p.sle(ta, tb),
                    B::Concat => p.concat(ta, tb),
                }
            }
            Node::Ite(c, t, f) => {
                let (tc, tt, tf) = (memo[&c], memo[&t], memo[&f]);
                p.ite(tc, tt, tf)
            }
            Node::Extract { hi, lo, arg } => {
                let ta = memo[&arg];
                p.extract(ta, hi, lo)
            }
            Node::Zext { arg, width } => {
                let ta = memo[&arg];
                p.zext(ta, width)
            }
            Node::Sext { arg, width } => {
                let ta = memo[&arg];
                p.sext(ta, width)
            }
            Node::Read { array, index } => {
                let (ta, ti) = (memo[&array], memo[&index]);
                p.read(ta, ti)
            }
            Node::Write {
                array,
                index,
                value,
            } => {
                let (ta, ti, tv) = (memo[&array], memo[&index], memo[&value]);
                p.write(ta, ti, tv)
            }
        };
        memo.insert(e, out);
    }
    memo[&root]
}

/// The variables occurring in an expression.
pub fn vars_of(pool: &ExprPool, root: ExprId) -> HashSet<VarId> {
    let mut out = HashSet::new();
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(e) = stack.pop() {
        if !seen.insert(e) {
            continue;
        }
        match pool.node(e) {
            Node::Var(v) => {
                out.insert(*v);
            }
            Node::Const { .. } | Node::ConstArray { .. } => {}
            Node::Un(_, a) | Node::Extract { arg: a, .. } => stack.push(*a),
            Node::Zext { arg, .. } | Node::Sext { arg, .. } => stack.push(*arg),
            Node::Bin(_, a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Node::Ite(c, t, f) => {
                stack.push(*c);
                stack.push(*t);
                stack.push(*f);
            }
            Node::Read { array, index } => {
                stack.push(*array);
                stack.push(*index);
            }
            Node::Write {
                array,
                index,
                value,
            } => {
                stack.push(*array);
                stack.push(*index);
                stack.push(*value);
            }
        }
    }
    out
}

/// Collects predicate atoms (single-bit comparison or reduction
/// sub-expressions) of `root` whose variables all satisfy `keep`.
pub fn collect_atoms(pool: &ExprPool, root: ExprId, keep: &impl Fn(VarId) -> bool) -> Vec<ExprId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(e) = stack.pop() {
        if !seen.insert(e) {
            continue;
        }
        let is_atom = pool.sort(e).is_bool()
            && matches!(
                pool.node(e),
                Node::Bin(
                    rtlir::BinOp::Eq
                        | rtlir::BinOp::Ult
                        | rtlir::BinOp::Ule
                        | rtlir::BinOp::Slt
                        | rtlir::BinOp::Sle,
                    _,
                    _
                ) | Node::Un(rtlir::UnOp::RedAnd | rtlir::UnOp::RedOr, _)
                    | Node::Extract { .. }
                    | Node::Var(_)
            );
        if is_atom && vars_of(pool, e).iter().all(|&v| keep(v)) && pool.const_bits(e).is_none() {
            out.push(e);
        }
        match pool.node(e) {
            Node::Var(_) | Node::Const { .. } | Node::ConstArray { .. } => {}
            Node::Un(_, a) | Node::Extract { arg: a, .. } => stack.push(*a),
            Node::Zext { arg, .. } | Node::Sext { arg, .. } => stack.push(*arg),
            Node::Bin(_, a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Node::Ite(c, t, f) => {
                stack.push(*c);
                stack.push(*t);
                stack.push(*f);
            }
            Node::Read { array, index } => {
                stack.push(*array);
                stack.push(*index);
            }
            Node::Write {
                array,
                index,
                value,
            } => {
                stack.push(*array);
                stack.push(*index);
                stack.push(*value);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::Sort;

    fn counter(bug_at: u64) -> TransitionSystem {
        let mut ts = TransitionSystem::new("c");
        let s = ts.add_state("count", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(8, 1);
        let nx = ts.pool_mut().add(sv, one);
        let z = ts.pool_mut().constv(8, 0);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let c = ts.pool_mut().constv(8, bug_at);
        let bad = ts.pool_mut().eq(sv, c);
        ts.add_bad(bad, "hit");
        ts
    }

    #[test]
    fn substitute_next_is_wp() {
        let mut ts = counter(5);
        let bad = ts.bads()[0].expr;
        let wp = substitute_next(&mut ts, bad);
        // wp(bad) = (count + 1 == 5) = (count == 4): check by eval.
        let var = ts.states()[0].var;
        let mut env = HashMap::new();
        env.insert(var, rtlir::Value::bv(8, 4));
        assert!(rtlir::eval(ts.pool(), wp, &env).as_bool());
        env.insert(var, rtlir::Value::bv(8, 5));
        assert!(!rtlir::eval(ts.pool(), wp, &env).as_bool());
    }

    #[test]
    fn atoms_collected() {
        let ts = counter(5);
        let bad = ts.bads()[0].expr;
        let atoms = collect_atoms(ts.pool(), bad, &|_| true);
        assert!(!atoms.is_empty());
        assert!(atoms.contains(&bad));
    }

    #[test]
    fn vars_found() {
        let ts = counter(5);
        let bad = ts.bads()[0].expr;
        let vs = vars_of(ts.pool(), bad);
        assert_eq!(vs.len(), 1);
    }
}
