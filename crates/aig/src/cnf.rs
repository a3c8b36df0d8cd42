//! Tseitin encoding of per-query AIG formula cones into a SAT solver.
//!
//! Two encoders split the work. A multi-frame transition relation goes
//! through [`TransitionTemplate`](crate::TransitionTemplate), compiled
//! once and instantiated per frame. [`FrameEncoder`] encodes the
//! formulas a single query is about, each cone once: word-level
//! queries, predicates, interpolants and certificate formulas.

use crate::graph::{Aig, AigLit};
use satb::{Lit, Part, Solver};
use std::collections::HashMap;

/// Encodes AIG formula cones into a [`satb::Solver`], one instance per
/// set of CI bindings.
///
/// CIs can be pre-bound to existing SAT literals with
/// [`bind`](FrameEncoder::bind): this is how a formula over the latch
/// outputs is placed on a frame's latch variables, such as an invariant
/// candidate on the current and on the next state of one template
/// frame. Unbound CIs get fresh SAT variables on first use (free
/// inputs).
///
/// # Example
///
/// ```
/// use aig::{Aig, FrameEncoder};
/// use satb::{Part, SolveResult, Solver};
///
/// let mut g = Aig::new();
/// let a = g.new_ci();
/// let b = g.new_ci();
/// let c = g.and(a, b);
///
/// let mut solver = Solver::new();
/// let mut enc = FrameEncoder::new();
/// let cl = enc.encode(&g, &mut solver, c, Part::A);
/// solver.add_clause(&[cl]); // force a & b
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// let al = enc.encode(&g, &mut solver, a, Part::A);
/// assert_eq!(solver.value(al), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct FrameEncoder {
    map: HashMap<u32, Lit>,
    const_true: Option<Lit>,
}

impl FrameEncoder {
    /// Creates an empty encoder.
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    /// Pre-binds a (non-complemented) CI literal to a SAT literal.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is complemented.
    pub fn bind(&mut self, ci: AigLit, sat: Lit) {
        assert!(!ci.is_compl(), "bind the plain CI literal");
        self.map.insert(ci.node(), sat);
    }

    /// The SAT literal a node was mapped to, if encoded or bound.
    pub fn mapped(&self, l: AigLit) -> Option<Lit> {
        self.map
            .get(&l.node())
            .map(|&s| if l.is_compl() { !s } else { s })
    }

    fn true_lit(&mut self, solver: &mut Solver, part: Part) -> Lit {
        match self.const_true {
            Some(l) => l,
            None => {
                let v = solver.new_var();
                let l = Lit::pos(v);
                solver.add_clause_in(&[l], part);
                self.const_true = Some(l);
                l
            }
        }
    }

    fn leaf_lit(&mut self, solver: &mut Solver, l: AigLit, part: Part) -> Lit {
        if l.is_const() {
            let t = self.true_lit(solver, part);
            return if l == AigLit::TRUE { t } else { !t };
        }
        let base = match self.map.get(&l.node()) {
            Some(&s) => s,
            None => {
                let s = Lit::pos(solver.new_var());
                self.map.insert(l.node(), s);
                s
            }
        };
        if l.is_compl() {
            !base
        } else {
            base
        }
    }

    /// Encodes the cone of `root`, adding Tseitin clauses labelled
    /// `part`, and returns the SAT literal equivalent to `root`.
    ///
    /// Nodes already encoded (by earlier calls on this encoder) are
    /// reused without new clauses, making repeated calls cheap.
    pub fn encode(&mut self, aig: &Aig, solver: &mut Solver, root: AigLit, part: Part) -> Lit {
        if root.is_const() {
            return self.leaf_lit(solver, root, part);
        }
        for n in aig.cone(&[root]) {
            if self.map.contains_key(&n) {
                continue;
            }
            let (a, b) = aig
                .and_fanins_of_node(n)
                .expect("cone() yields AND nodes only");
            let la = self.leaf_lit(solver, a, part);
            let lb = self.leaf_lit(solver, b, part);
            let ln = Lit::pos(solver.new_var());
            // n <-> a & b
            solver.add_clause_in(&[!ln, la], part);
            solver.add_clause_in(&[!ln, lb], part);
            solver.add_clause_in(&[!la, !lb, ln], part);
            self.map.insert(n, ln);
        }
        self.leaf_lit(solver, root, part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use satb::SolveResult;

    /// Random AIG, random CI values: forcing the encoded output to the
    /// evaluated value must be SAT, forcing it to the complement under
    /// the same CI values must be UNSAT.
    #[test]
    fn encoding_agrees_with_aig_eval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _round in 0..60 {
            let mut g = Aig::new();
            let ncis = rng.gen_range(2..=6usize);
            let cis: Vec<AigLit> = (0..ncis).map(|_| g.new_ci()).collect();
            let mut lits = cis.clone();
            for _ in 0..rng.gen_range(1..=25usize) {
                let a = lits[rng.gen_range(0..lits.len())];
                let b = lits[rng.gen_range(0..lits.len())];
                let a = if rng.gen_bool(0.5) { !a } else { a };
                let b = if rng.gen_bool(0.5) { !b } else { b };
                let n = match rng.gen_range(0..3) {
                    0 => g.and(a, b),
                    1 => g.or(a, b),
                    _ => g.xor(a, b),
                };
                lits.push(n);
            }
            let root = *lits.last().expect("nonempty");
            let ci_vals: Vec<bool> = (0..ncis).map(|_| rng.gen_bool(0.5)).collect();
            let want = g.eval(root, &ci_vals);

            let mut solver = Solver::new();
            let mut enc = FrameEncoder::new();
            // Bind CIs to fixed values via unit clauses.
            for (i, &ci) in cis.iter().enumerate() {
                let l = Lit::pos(solver.new_var());
                enc.bind(ci, l);
                solver.add_clause(&[if ci_vals[i] { l } else { !l }]);
            }
            let rl = enc.encode(&g, &mut solver, root, Part::A);
            solver.add_clause(&[if want { rl } else { !rl }]);
            assert_eq!(solver.solve(), SolveResult::Sat);

            // Re-encode in a fresh solver, forcing the complement.
            let mut solver2 = Solver::new();
            let mut enc2 = FrameEncoder::new();
            for (i, &ci) in cis.iter().enumerate() {
                let l = Lit::pos(solver2.new_var());
                enc2.bind(ci, l);
                solver2.add_clause(&[if ci_vals[i] { l } else { !l }]);
            }
            let rl2 = enc2.encode(&g, &mut solver2, root, Part::A);
            solver2.add_clause(&[if want { !rl2 } else { rl2 }]);
            assert_eq!(solver2.solve(), SolveResult::Unsat);
        }
    }

    #[test]
    fn constant_roots() {
        let g = Aig::new();
        let mut solver = Solver::new();
        let mut enc = FrameEncoder::new();
        let t = enc.encode(&g, &mut solver, AigLit::TRUE, Part::A);
        let f = enc.encode(&g, &mut solver, AigLit::FALSE, Part::A);
        assert_eq!(t, !f);
        solver.add_clause(&[t]);
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn shared_nodes_encoded_once() {
        let mut g = Aig::new();
        let a = g.new_ci();
        let b = g.new_ci();
        let x = g.and(a, b);
        let y = g.or(x, a);
        let mut solver = Solver::new();
        let mut enc = FrameEncoder::new();
        let _ = enc.encode(&g, &mut solver, x, Part::A);
        let n = solver.num_clauses();
        let _ = enc.encode(&g, &mut solver, y, Part::A);
        // Encoding y must only add clauses for the one new AND gate.
        assert_eq!(solver.num_clauses(), n + 3);
    }
}
