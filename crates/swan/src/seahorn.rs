//! SeaHorn-style PDR over a numerically abstracted software-netlist.
//!
//! SeaHorn encodes C programs into constrained Horn clauses over
//! *linear integer arithmetic*; the paper observes that its "limited
//! support for bitvectors" makes it solve half the benchmarks but
//! produce **false negatives** (wrong "unsafe" verdicts) on the other
//! half. We reproduce exactly that failure mode: before running PDR,
//! the transition relation is rewritten so that every operator a
//! linear-arithmetic encoding cannot express precisely — bitwise
//! and/or/xor on words, shifts by non-constant amounts, multiplication
//! of two variables, concatenations and reductions — is replaced by a
//! fresh nondeterministic input (a sound over-approximation). Each lossy
//! term is havocked once: every expression that reads it reads the same
//! input, however many paths through the expression DAG reach it.
//! Counterexamples found on the abstracted system are reported
//! *without concretization*, as SeaHorn did.

use crate::Analyzer;
use engines::{pdr::Pdr, Budget, CheckOutcome, Checker, Verdict};
use rtlir::{BinOp, ExprId, Node, Sort, TransitionSystem, UnOp, VarId};
use std::collections::HashMap;
use v2c::SwProgram;

/// SeaHorn-style analyzer: LIA-grade abstraction + PDR.
#[derive(Clone, Debug, Default)]
pub struct SeaHorn {
    /// Resource limits.
    pub budget: Budget,
}

impl SeaHorn {
    /// Creates the analyzer with a budget.
    pub fn new(budget: Budget) -> SeaHorn {
        SeaHorn { budget }
    }
}

/// Rewrites a transition system, havocking the operators a linear
/// integer arithmetic encoding loses. Returns the abstracted system
/// and the number of havocked terms: each lossy term is havocked once,
/// by one fresh input shared by every expression that reads it.
pub fn abstract_bitvector_ops(ts: &TransitionSystem) -> (TransitionSystem, usize) {
    let mut out = TransitionSystem::new(format!("{}#lia", ts.name()));
    let mut havocked = 0usize;

    // Recreate inputs and states.
    let mut var_map: HashMap<VarId, VarId> = HashMap::new();
    for &iv in ts.inputs() {
        let d = ts.pool().var_decl(iv).clone();
        let nv = out.add_input(d.name, d.sort);
        var_map.insert(iv, nv);
    }
    for s in ts.states() {
        let d = ts.pool().var_decl(s.var).clone();
        let nv = out.add_state(d.name, d.sort);
        var_map.insert(s.var, nv);
    }

    // Translate expressions bottom-up, havocking lossy operators.
    let mut memo: HashMap<ExprId, ExprId> = HashMap::new();
    let roots = ts
        .states()
        .iter()
        .flat_map(|s| s.init.into_iter().chain(s.next))
        .chain(ts.bads().iter().map(|b| b.expr))
        .chain(ts.constraints().iter().copied());
    for root in roots {
        for e in ts.pool().post_order(root, |e| memo.contains_key(&e)) {
            let node = ts.pool().node(e);
            let sort = ts.pool().sort(e);
            let t = if let Node::Var(v) = *node {
                out.pool_mut().var(var_map[&v])
            } else if is_lossy(node, sort, |a| out.pool().const_bits(memo[&a]).is_some()) {
                havocked += 1;
                let v = out.add_input(format!("__havoc{havocked}"), sort);
                out.pool_mut().var(v)
            } else {
                out.pool_mut().rebuild(node, |a| memo[&a])
            };
            memo.insert(e, t);
        }
    }
    for s in ts.states() {
        let nv = var_map[&s.var];
        if let Some(init) = s.init {
            // Init expressions are constant: translate preserves them.
            out.set_init(nv, memo[&init]);
        }
        if let Some(next) = s.next {
            out.set_next(nv, memo[&next]);
        }
    }
    for b in ts.bads() {
        out.add_bad(memo[&b.expr], b.name.clone());
    }
    for &c in ts.constraints() {
        out.add_constraint(memo[&c]);
    }
    (out, havocked)
}

/// Whether a linear integer arithmetic encoding loses `node`, of sort
/// `sort`, whose operands are translated constants exactly where
/// `is_const` holds.
fn is_lossy(node: &Node, sort: Sort, is_const: impl Fn(ExprId) -> bool) -> bool {
    match *node {
        // Bitwise complement on a word and reductions are not linear.
        Node::Un(UnOp::Not, _) => sort != Sort::BOOL,
        Node::Un(UnOp::RedAnd | UnOp::RedOr | UnOp::RedXor, _) => true,
        // Linear only with a constant operand.
        Node::Bin(BinOp::Mul | BinOp::Udiv | BinOp::Urem, a, b) => !is_const(a) && !is_const(b),
        // Single-bit and/or/xor are boolean structure (Horn encodings
        // keep them); wider ones are bit-level and lost.
        Node::Bin(BinOp::And | BinOp::Or | BinOp::Xor, ..) => sort != Sort::BOOL,
        Node::Bin(BinOp::Shl | BinOp::Lshr | BinOp::Ashr, _, b) => !is_const(b),
        Node::Bin(BinOp::Concat, ..) => true,
        // Selecting bits out of a word is bit-level. The pool never
        // builds an extract of a single bit, so only a constant operand
        // keeps an extract exact.
        Node::Extract { arg, .. } => !is_const(arg),
        _ => false,
    }
}

impl Analyzer for SeaHorn {
    fn name(&self) -> &'static str {
        "seahorn-pdr"
    }

    fn check(&self, prog: &SwProgram) -> CheckOutcome {
        let (abs_ts, _havocked) = abstract_bitvector_ops(&prog.ts);
        let out = Pdr::new(self.budget.clone()).check(&abs_ts);
        match out.outcome {
            // Safe on the over-approximation is sound.
            Verdict::Safe => out,
            // SeaHorn reports abstract counterexamples as final
            // results — the paper's observed false negatives.
            Verdict::Unsafe(t) => CheckOutcome {
                outcome: Verdict::Unsafe(t),
                stats: out.stats,
                certificate: None,
            },
            Verdict::Unknown(u) => CheckOutcome {
                outcome: Verdict::Unknown(u),
                stats: out.stats,
                certificate: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::Sort;

    #[test]
    fn control_only_design_is_exact() {
        // Pure control logic (no bitwise word ops): abstraction is a
        // no-op and PDR proves it.
        let mut ts = TransitionSystem::new("ctrl");
        let s = ts.add_state("st", Sort::Bv(2));
        let sv = ts.pool_mut().var(s);
        let z = ts.pool_mut().constv(2, 0);
        let one = ts.pool_mut().constv(2, 1);
        let two = ts.pool_mut().constv(2, 2);
        let is0 = ts.pool_mut().eq(sv, z);
        let is1 = ts.pool_mut().eq(sv, one);
        let nx1 = ts.pool_mut().ite(is1, two, z);
        let nx = ts.pool_mut().ite(is0, one, nx1);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let three = ts.pool_mut().constv(2, 3);
        let bad = ts.pool_mut().eq(sv, three);
        ts.add_bad(bad, "unreachable state");
        let (abs, havocked) = abstract_bitvector_ops(&ts);
        assert_eq!(havocked, 0, "control design needs no havoc");
        assert_eq!(abs.states().len(), 1);
        let out = SeaHorn::default().check(&SwProgram::from_ts(ts));
        assert_eq!(out.outcome, Verdict::Safe);
    }

    #[test]
    fn havocs_each_lossy_term_once() {
        let (ts, _) = crate::util::tests::diamond(40);
        let (abs, havocked) = abstract_bitvector_ops(&ts);
        assert_eq!(havocked, 40, "one havoc per `*` node");
        assert_eq!(abs.inputs().len(), ts.inputs().len() + 40);
    }

    #[test]
    fn bit_heavy_design_gives_false_negative() {
        // Safe design whose safety depends on an xor identity the LIA
        // abstraction loses: SeaHorn-mode reports a (spurious) bug —
        // the paper's "wrong" column.
        let mut ts = TransitionSystem::new("xorid");
        let s = ts.add_state("c", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let k = ts.pool_mut().constv(8, 0xAA);
        let x1 = ts.pool_mut().xor(sv, k);
        let x2 = ts.pool_mut().xor(x1, k); // x2 == c, always
        let zero = ts.pool_mut().constv(8, 0);
        ts.set_init(s, zero);
        let one = ts.pool_mut().constv(8, 1);
        let inc = ts.pool_mut().add(sv, one);
        ts.set_next(s, inc);
        let ne = ts.pool_mut().ne(x2, sv);
        ts.add_bad(ne, "xor roundtrip broken");
        let (_, havocked) = abstract_bitvector_ops(&ts);
        assert!(havocked > 0, "xor ops must be havocked");
        let out = SeaHorn::default().check(&SwProgram::from_ts(ts.clone()));
        // The abstraction cannot prove it; PDR on the havocked system
        // finds a spurious counterexample.
        assert!(
            out.outcome.is_unsafe(),
            "expected the documented false negative, got {:?}",
            out.outcome
        );
        // The concrete design is actually safe (witness: bit-precise
        // PDR).
        let exact = Pdr::default().check(&ts);
        assert_eq!(exact.outcome, Verdict::Safe);
    }
}
