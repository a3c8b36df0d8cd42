//! Interpolation-based model checking (McMillan, CAV 2003).
//!
//! The "ABC-interpolation" configuration of the paper's Figure 4.
//! Iteratively over-approximates the reachable states: for the current
//! over-approximation `R` and bound `k`, the formula
//!
//! ```text
//!   A = R(s0) ∧ T(s0,s1)          B = T(s1,s2) … T(sk-1,sk) ∧ ⋁ Bad(si)
//! ```
//!
//! is refuted; the Craig interpolant over the frame-1 state variables
//! is an over-approximate image of `R` that still cannot reach a bad
//! state within `k-1` steps. When the accumulated `R` stops growing,
//! the property is proved; when `A ∧ B` becomes satisfiable for the
//! *initial* `R`, a real counterexample of length ≤ `k` exists.

use crate::certify::{clause_on, LatchClause};
use crate::result::{
    model_values, Blasted, Budget, CheckOutcome, Checker, EngineStats, Trace, Unknown, Verdict,
};
use aig::{Aig, AigLit, AigSystem, FrameEncoder, FrameVars, TransitionTemplate};
use rtlir::TransitionSystem;
use satb::{interp::ItpNode, Lit, Part, SolveResult, Solver};
use std::collections::HashMap;
use std::time::Instant;

/// Interpolation-based unbounded model checker.
#[derive(Clone, Debug, Default)]
pub struct Interpolation {
    /// Resource limits (`max_depth` bounds the unrolling length `k`).
    pub budget: Budget,
}

impl Interpolation {
    /// Creates an interpolation engine with the given budget.
    pub fn new(budget: Budget) -> Interpolation {
        Interpolation { budget }
    }
}

/// Converts an interpolant over the SAT variables of one frame's
/// latches into an AIG function over the latch-output CIs that
/// `var_to_latch` maps them to.
///
/// # Panics
///
/// Panics if the interpolant names a variable the map does not: a cut
/// must share latch variables only.
pub fn itp_to_aig(
    itp: &satb::Interpolant,
    var_to_latch: &HashMap<satb::Var, AigLit>,
    aig: &mut Aig,
) -> AigLit {
    let mut out: Vec<AigLit> = Vec::with_capacity(itp.nodes().len());
    for node in itp.nodes() {
        let l = match *node {
            ItpNode::Const(c) => AigLit::constant(c),
            ItpNode::Lit(sl) => {
                let base = *var_to_latch
                    .get(&sl.var())
                    .expect("interpolant variable is a latch of the cut");
                if sl.is_positive() {
                    base
                } else {
                    !base
                }
            }
            ItpNode::And(a, b) => aig.and(out[a as usize], out[b as usize]),
            ItpNode::Or(a, b) => aig.or(out[a as usize], out[b as usize]),
        };
        out.push(l);
    }
    out[itp.root()]
}

/// The AIG predicate "state equals the reset state" (over initialized
/// latches; uninitialized latches are unconstrained), built in the
/// engine's scratch AIG.
fn init_predicate(sys: &AigSystem, aig: &mut Aig) -> AigLit {
    let lits: Vec<AigLit> = sys
        .latches
        .iter()
        .filter_map(|l| l.init.map(|b| if b { l.output } else { !l.output }))
        .collect();
    aig.and_all(&lits)
}

impl Checker for Interpolation {
    fn name(&self) -> &'static str {
        "abc-itp"
    }

    fn check(&self, ts: &TransitionSystem) -> CheckOutcome {
        let sys = aig::blast_system(ts);
        // Compile once, simplify once: every frame this run
        // instantiates inherits the preprocessed image.
        let tpl = TransitionTemplate::compile(&sys).preprocess().template;
        self.run(&sys, &tpl, &[])
    }

    fn check_blasted(&self, _ts: &TransitionSystem, blasted: &Blasted) -> CheckOutcome {
        self.run(&blasted.sys, &blasted.template, &blasted.invariant.clauses)
    }
}

impl Interpolation {
    pub(crate) fn run(
        &self,
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        inv: &[LatchClause],
    ) -> CheckOutcome {
        let started = Instant::now();
        let mut stats = EngineStats::default();
        // Scratch AIG for interpolant construction. Cloning preserves
        // node ids, so literals of `sys` stay valid in it while the
        // accumulated interpolants grow it privately — the shared
        // system is never mutated (it may be raced by other portfolio
        // members).
        let mut aig = sys.aig.clone();
        let init_pred = init_predicate(sys, &mut aig);

        // Depth-0 check: Init ∧ Bad, one template frame with the reset
        // values asserted.
        {
            let mut solver = Solver::new();
            let f0 = tpl.instantiate(&mut solver, Part::A, 0);
            f0.assert_init(sys, &mut solver);
            for clause in inv {
                solver.add_clause(&clause_on(clause, &f0.latch_cur));
            }
            stats.sat_queries += 1;
            let r0 = solver.solve_limited(&[f0.any_bad], self.budget.sat_limits(started));
            stats.absorb_solver(&solver.stats());
            if let SolveResult::Unknown(why) = r0 {
                // A depth-0 query that hit a limit must not be treated
                // as "no counterexample at depth 0".
                return CheckOutcome::finish(Verdict::Unknown(why.into()), stats, started);
            }
            if r0 == SolveResult::Sat {
                let bad_index = f0
                    .bads
                    .iter()
                    .position(|&l| solver.value(l) == Some(true))
                    .unwrap_or(0);
                let trace = Trace::simulate(
                    sys,
                    model_values(&solver, &f0.latch_cur),
                    vec![model_values(&solver, &f0.inputs)],
                    bad_index,
                );
                return CheckOutcome::finish(Verdict::Unsafe(trace), stats, started);
            }
        }

        let mut k: u32 = 1;
        loop {
            if let Some(u) = self.budget.interruption(started) {
                return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
            }
            if k > self.budget.max_depth {
                return CheckOutcome::finish(
                    Verdict::Unknown(Unknown::BoundReached),
                    stats,
                    started,
                );
            }
            stats.depth = k;

            // Inner fixpoint loop at bound k.
            let mut r_acc = init_pred;
            let mut first = true;
            'inner: loop {
                if let Some(u) = self.budget.interruption(started) {
                    return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
                }
                let query = ItpQuery {
                    sys,
                    tpl,
                    inv,
                    r: r_acc,
                    k,
                    started,
                };
                match self.itp_query(&query, &mut aig, &mut stats) {
                    QueryResult::Stopped(u) => {
                        return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
                    }
                    QueryResult::Sat(trace) => {
                        if first {
                            return CheckOutcome::finish(Verdict::Unsafe(trace), stats, started);
                        }
                        // Over-approximation too coarse: deepen.
                        k += 1;
                        break 'inner;
                    }
                    QueryResult::Unsat(itp, map) => {
                        let itp_lit = itp_to_aig(&itp, &map, &mut aig);
                        // Fixpoint check: itp ⇒ r_acc?
                        let mut solver = Solver::new();
                        let mut enc = FrameEncoder::new();
                        let il = enc.encode(&aig, &mut solver, itp_lit, Part::A);
                        let rl = enc.encode(&aig, &mut solver, r_acc, Part::A);
                        solver.add_clause(&[il]);
                        solver.add_clause(&[!rl]);
                        stats.sat_queries += 1;
                        let fr = solver.solve_limited(&[], self.budget.sat_limits(started));
                        stats.absorb_solver(&solver.stats());
                        match fr {
                            SolveResult::Unsat => {
                                // `r_acc` is inductive relative to Inv:
                                // init ⇒ r_acc by construction; the
                                // post-image of `r_acc ∧ Inv` is inside
                                // the latest interpolant (the A side
                                // asserted Inv on frame 0), which just
                                // proved itp ⇒ r_acc; and the B-side of
                                // every query carried Inv-constrained
                                // bad at frame 1. With Inv's own
                                // consecution, `r_acc ∧ Inv` is a 1-step
                                // inductive invariant, exported as the
                                // Safe witness over the scratch AIG
                                // (node ids align with `sys`) together
                                // with the Inv it relies on.
                                let cert = crate::certify::Certificate::Formula(
                                    crate::certify::FormulaInvariant {
                                        aig: aig.clone(),
                                        root: r_acc,
                                        invariant: inv.to_vec(),
                                    },
                                );
                                return CheckOutcome::finish(Verdict::Safe, stats, started)
                                    .with_certificate(cert);
                            }
                            SolveResult::Sat => {
                                r_acc = aig.or(r_acc, itp_lit);
                                first = false;
                            }
                            SolveResult::Unknown(why) => {
                                return CheckOutcome::finish(
                                    Verdict::Unknown(why.into()),
                                    stats,
                                    started,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

enum QueryResult {
    Sat(Trace),
    Unsat(satb::Interpolant, HashMap<satb::Var, AigLit>),
    Stopped(Unknown),
}

/// The fixed context of one interpolation query (everything but the
/// mutable scratch AIG and statistics).
struct ItpQuery<'a> {
    sys: &'a AigSystem,
    tpl: &'a TransitionTemplate,
    inv: &'a [LatchClause],
    /// Current reachability over-approximation `R`.
    r: AigLit,
    /// Unrolling bound.
    k: u32,
    started: Instant,
}

impl Interpolation {
    /// One interpolation query: refute `R(s0) ∧ Inv(s0) ∧ T ∧ (bad
    /// within k, under Inv)`.
    ///
    /// Frame 0 is a template instantiation in `Part::A` (its next-state
    /// outputs tied to pre-created frame-1 interface variables), frames
    /// `1..k` are chained template instantiations in `Part::B` — only
    /// `R`'s cone, which changes every iteration, still goes through a
    /// `FrameEncoder`. The static invariant is asserted on every
    /// frame's current-state literals, A-part on frame 0 and B-part on
    /// the free frames (mandatory on invariant-refined templates).
    fn itp_query(&self, q: &ItpQuery<'_>, aig: &mut Aig, stats: &mut EngineStats) -> QueryResult {
        let ItpQuery {
            sys,
            tpl,
            inv,
            r,
            k,
            started,
        } = *q;
        let mut solver = Solver::with_proof();

        // Shared interface: frame-1 latch variables, created first so
        // the interpolant ranges over exactly these.
        let f1: Vec<Lit> = sys
            .latches
            .iter()
            .map(|_| Lit::pos(solver.new_var()))
            .collect();

        // --- A side: R(s0) ∧ T(s0, s1), outputs tied to f1. ---
        let a0 = tpl.instantiate(&mut solver, Part::A, 0);
        let mut enc_a = FrameEncoder::new();
        for (latch, &l) in sys.latches.iter().zip(&a0.latch_cur) {
            enc_a.bind(latch.output, l);
        }
        let rl = enc_a.encode(aig, &mut solver, r, Part::A);
        solver.add_clause_in(&[rl], Part::A);
        for clause in inv {
            solver.add_clause_in(&clause_on(clause, &a0.latch_cur), Part::A);
        }
        for (i, &nl) in a0.latch_next.iter().enumerate() {
            // nl <-> f1[i]
            solver.add_clause_in(&[!nl, f1[i]], Part::A);
            solver.add_clause_in(&[nl, !f1[i]], Part::A);
        }

        // --- B side: frames 1..k chained from f1, bads at 1..=k. ---
        let mut frames: Vec<FrameVars> = Vec::with_capacity(k as usize);
        let mut cur = f1.clone();
        for _ in 1..=k {
            let inst = tpl.instantiate_bound(&mut solver, Part::B, 0, &cur);
            for clause in inv {
                solver.add_clause_in(&clause_on(clause, &inst.latch_cur), Part::B);
            }
            cur = inst.latch_next.clone();
            frames.push(inst);
        }
        let bad_lits: Vec<Lit> = frames.iter().map(|f| f.any_bad).collect();
        solver.add_clause_in(&bad_lits, Part::B);

        stats.sat_queries += 1;
        let qr = solver.solve_limited(&[], self.budget.sat_limits(started));
        stats.absorb_solver(&solver.stats());
        match qr {
            SolveResult::Unknown(why) => QueryResult::Stopped(why.into()),
            SolveResult::Unsat => {
                let itp = solver.interpolant().expect("proof-logged refutation");
                let map: HashMap<satb::Var, AigLit> = f1
                    .iter()
                    .zip(&sys.latches)
                    .map(|(&l, latch)| (l.var(), latch.output))
                    .collect();
                QueryResult::Unsat(itp, map)
            }
            SolveResult::Sat => {
                // Extract the counterexample path: frames 0..=j where j
                // is the first frame whose bad literal is true. Only the
                // frame-0 state and the inputs come from the model; the
                // states are simulated (see `Trace::simulate`).
                let j = bad_lits
                    .iter()
                    .position(|&b| solver.value(b) == Some(true))
                    .map_or(k as usize, |p| p + 1);
                let inputs = std::iter::once(&a0.inputs)
                    .chain(frames[..j].iter().map(|f| &f.inputs))
                    .map(|lits| model_values(&solver, lits))
                    .collect();
                // Identify the fired bad property at frame j.
                let bad_index = frames[j - 1]
                    .bads
                    .iter()
                    .position(|&l| solver.value(l) == Some(true))
                    .unwrap_or(0);
                QueryResult::Sat(Trace::simulate(
                    sys,
                    model_values(&solver, &a0.latch_cur),
                    inputs,
                    bad_index,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::Sort;

    #[test]
    fn proves_saturating_counter() {
        // count saturates at 10; bad: count > 10. Interpolation should
        // converge without unrolling to the full diameter.
        let mut ts = TransitionSystem::new("sat-counter");
        let s = ts.add_state("count", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let lim = ts.pool_mut().constv(8, 10);
        let one = ts.pool_mut().constv(8, 1);
        let at = ts.pool_mut().uge(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let next = ts.pool_mut().ite(at, sv, inc);
        let zero = ts.pool_mut().constv(8, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let bad = ts.pool_mut().ugt(sv, lim);
        ts.add_bad(bad, "overflow");
        let out = Interpolation::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
    }

    #[test]
    fn finds_shallow_and_deep_bugs() {
        for depth in [0u64, 1, 9, 21] {
            let ts = crate::bmc::tests::counter_ts(depth, 8);
            let out = Interpolation::default().check(&ts);
            match out.outcome {
                Verdict::Unsafe(trace) => {
                    assert_eq!(trace.length() as u64, depth, "depth {depth}");
                    let sys = aig::blast_system(&ts);
                    assert!(trace.replays_on(&sys), "trace replays, depth {depth}");
                }
                other => panic!("expected Unsafe at depth {depth}, got {other:?}"),
            }
        }
    }

    #[test]
    fn proves_trap_design() {
        // The unreachable-loop design that defeats plain k-induction:
        // interpolation proves it because the reachable set { a=0 } has
        // a tiny over-approximation.
        let mut ts = TransitionSystem::new("trap");
        let jump = ts.add_input("jump", Sort::BOOL);
        let a = ts.add_state("a", Sort::BOOL);
        let c = ts.add_state("c", Sort::Bv(2));
        let (jv, av, cv) = {
            let p = ts.pool_mut();
            (p.var(jump), p.var(a), p.var(c))
        };
        let p = ts.pool_mut();
        let two = p.constv(2, 2);
        let three = p.constv(2, 3);
        let one = p.constv(2, 1);
        let zero2 = p.constv(2, 0);
        let zero1 = p.constv(1, 0);
        let at2 = p.eq(cv, two);
        let inc = p.add(cv, one);
        let cyc = p.ite(at2, zero2, inc);
        let jumped = p.ite(jv, three, cyc);
        let c_next = p.ite(av, jumped, zero2);
        let at3 = p.eq(cv, three);
        let bad = p.and(av, at3);
        ts.set_init(a, zero1);
        ts.set_init(c, zero2);
        ts.set_next(a, av);
        ts.set_next(c, c_next);
        ts.add_bad(bad, "trap");
        let out = Interpolation::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
    }
}
