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
    let p = ts.pool_mut();
    for e in p.post_order(root, |_| false) {
        let out = match p.node(e).clone() {
            Node::Var(v) => map.get(&v).copied().unwrap_or(e),
            node => p.rebuild(&node, |a| memo[&a]),
        };
        memo.insert(e, out);
    }
    memo[&root]
}

/// The variables occurring in an expression.
pub fn vars_of(pool: &ExprPool, root: ExprId) -> HashSet<VarId> {
    let order = pool.post_order(root, |_| false);
    order
        .into_iter()
        .filter_map(|e| match *pool.node(e) {
            Node::Var(v) => Some(v),
            _ => None,
        })
        .collect()
}

/// Collects predicate atoms (single-bit comparison or reduction
/// sub-expressions) of `root` whose variables all satisfy `keep`, in
/// pre-order: the order of the predicates CPA's abstraction tracks.
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
        stack.extend(pool.node(e).children());
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rtlir::Sort;

    /// A system whose state `s` steps to `e_levels`, where `e_0 = s` and
    /// `e_{i+1} = ite(c_i, e_i, e_i * x)` over inputs `c_i` and `x`: three
    /// nodes a level, but `2^levels` paths from the root down to `s`.
    pub(crate) fn diamond(levels: usize) -> (TransitionSystem, ExprId) {
        let mut ts = TransitionSystem::new("diamond");
        let x = ts.add_input("x", Sort::Bv(8));
        let cs: Vec<VarId> = (0..levels)
            .map(|i| ts.add_input(format!("c{i}"), Sort::BOOL))
            .collect();
        let s = ts.add_state("s", Sort::Bv(8));
        let p = ts.pool_mut();
        let xv = p.var(x);
        let mut e = p.var(s);
        for c in cs {
            let cv = p.var(c);
            let m = p.mul(e, xv);
            e = p.ite(cv, e, m);
        }
        ts.set_next(s, e);
        (ts, e)
    }

    #[test]
    fn substitute_expands_a_shared_sub_dag_once() {
        let (mut ts, e) = diamond(40);
        let before = ts.pool().len();
        // `s` becomes `e` itself: a second diamond on top of the first,
        // one product and one ite per level.
        let wp = substitute_next(&mut ts, e);
        assert_ne!(wp, e);
        assert_eq!(ts.pool().len(), before + 2 * 40);
    }

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
