//! 2LS-style kIkI: k-induction with k-invariants (Brain, Joshi,
//! Kroening, Schrammel — SAS 2015), the paper's "2LS-kind" (Figure 3)
//! and "2LS-kiki" (Figure 5) series.
//!
//! The invariant domain is the interval template over every bit-vector
//! register: candidate bounds start from the initial state and are
//! weakened by counterexamples-to-induction (model-based template
//! synthesis, with widening-to-top after a few rounds per variable).
//! The inductive invariant then strengthens the step case of the
//! engines' one word-level k-induction loop,
//! [`engines::word::WordKInduction`], run without simple paths: the
//! invariant is what sets 2LS apart, not the unrolling.

use crate::Analyzer;
use engines::word::{solve_word, WordKInduction};
use engines::{Budget, CheckOutcome, EngineStats, Unknown, Verdict};
use rtlir::unroll::{InitMode, Unroller};
use rtlir::{ExprId, Sort, TransitionSystem, Value};
use satb::SolveResult;
use std::collections::HashMap;
use std::time::Instant;
use v2c::SwProgram;

/// Interval bounds per bit-vector state variable.
#[derive(Clone, Debug, PartialEq)]
struct Template {
    /// `(state index, lo, hi)` for every bv state.
    bounds: Vec<(usize, u64, u64)>,
    /// Widening counters per entry.
    widenings: Vec<u32>,
}

/// 2LS-style analyzer. `use_invariants` distinguishes the pure
/// k-induction configuration (Figure 3) from full kIkI (Figure 5).
#[derive(Clone, Debug)]
pub struct TwoLs {
    /// Resource limits.
    pub budget: Budget,
    /// Infer interval invariants (the second "I" of kIkI).
    pub use_invariants: bool,
}

impl Default for TwoLs {
    fn default() -> TwoLs {
        TwoLs {
            budget: Budget::default(),
            use_invariants: true,
        }
    }
}

impl TwoLs {
    /// Weakenings of an entry before it is widened to top.
    const WIDENING_THRESHOLD: u32 = 24;

    /// Creates the analyzer with a budget.
    pub fn new(budget: Budget) -> TwoLs {
        TwoLs {
            budget,
            ..TwoLs::default()
        }
    }

    /// Builds the template instantiation as a single-bit expression
    /// over the state variables of `ts`.
    fn template_expr(ts: &mut TransitionSystem, t: &Template) -> ExprId {
        let mut conjuncts = Vec::new();
        for &(si, lo, hi) in &t.bounds {
            let var = ts.states()[si].var;
            let w = ts.pool().var_sort(var).width();
            if lo == 0 && hi == rtlir::value::mask(w) {
                continue; // top
            }
            let p = ts.pool_mut();
            let v = p.var(var);
            let lo_e = p.constv(w, lo);
            let hi_e = p.constv(w, hi);
            let ge = p.uge(v, lo_e);
            let le = p.ule(v, hi_e);
            conjuncts.push(ge);
            conjuncts.push(le);
        }
        ts.pool_mut().and_all(&conjuncts)
    }

    /// Initial template: exact bounds from constant initial values,
    /// top for nondeterministic initializations.
    fn initial_template(ts: &TransitionSystem) -> Template {
        let mut bounds = Vec::new();
        for (si, s) in ts.states().iter().enumerate() {
            let sort = ts.pool().var_sort(s.var);
            if let Sort::Bv(w) = sort {
                match s.init {
                    Some(init) => {
                        let env: HashMap<rtlir::VarId, Value> = HashMap::new();
                        let v = rtlir::eval(ts.pool(), init, &env).bits();
                        bounds.push((si, v, v));
                    }
                    None => bounds.push((si, 0, rtlir::value::mask(w))),
                }
            }
        }
        let n = bounds.len();
        Template {
            bounds,
            widenings: vec![0; n],
        }
    }

    /// One inference round: find a transition leaving the template and
    /// weaken the bounds to include the escaping state. Returns true
    /// when the template is already inductive.
    fn strengthen_round(
        &self,
        ts: &mut TransitionSystem,
        t: &mut Template,
        started: Instant,
        stats: &mut EngineStats,
    ) -> Result<bool, Unknown> {
        let inv = Self::template_expr(ts, t);
        let mut u = Unroller::new(ts, InitMode::Free);
        let inv0 = u.translate(0, inv);
        let inv1 = u.translate(1, inv);
        let c0 = u.constraint(0);
        let ninv1 = u.pool_mut().not(inv1);
        // Pre-materialize frame-1 state expressions for the model.
        let frame1: Vec<Option<ExprId>> = (0..ts.states().len())
            .map(|si| {
                if ts.pool().var_sort(ts.states()[si].var).is_bv() {
                    Some(u.state(1, si))
                } else {
                    None
                }
            })
            .collect();
        let q = solve_word(
            u.pool(),
            &[inv0, c0, ninv1],
            self.budget.sat_limits(started),
            stats,
        );
        match q.result {
            SolveResult::Unsat => Ok(true),
            SolveResult::Unknown(why) => Err(why.into()),
            SolveResult::Sat => {
                let mut model = q.model.expect("model");
                for (bi, &(si, lo, hi)) in t.bounds.clone().iter().enumerate() {
                    let Some(e) = frame1[si] else {
                        continue;
                    };
                    let v = model.eval_word(e);
                    let var = ts.states()[si].var;
                    let w = ts.pool().var_sort(var).width();
                    if v < lo || v > hi {
                        t.widenings[bi] += 1;
                        if t.widenings[bi] >= Self::WIDENING_THRESHOLD {
                            t.bounds[bi] = (si, 0, rtlir::value::mask(w));
                        } else {
                            t.bounds[bi] = (si, lo.min(v), hi.max(v));
                        }
                    }
                }
                Ok(false)
            }
        }
    }
}

impl Analyzer for TwoLs {
    fn name(&self) -> &'static str {
        if self.use_invariants {
            "2ls-kiki"
        } else {
            "2ls-kind"
        }
    }

    fn check(&self, prog: &SwProgram) -> CheckOutcome {
        let started = Instant::now();
        let mut stats = EngineStats::default();
        let mut ts = prog.ts.clone();

        // Phase 1: infer an inductive interval invariant.
        let mut invariant = None;
        if self.use_invariants {
            let mut t = Self::initial_template(&ts);
            loop {
                if let Some(u) = self.budget.interruption(started) {
                    return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
                }
                match self.strengthen_round(&mut ts, &mut t, started, &mut stats) {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(u) => return CheckOutcome::finish(Verdict::Unknown(u), stats, started),
                }
            }
            let inv = Self::template_expr(&mut ts, &t);
            // Quick win: invariant strong enough on its own?
            let mut u = Unroller::new(&ts, InitMode::Free);
            let inv0 = u.translate(0, inv);
            let c0 = u.constraint(0);
            let bad0 = u.bad(0);
            let q = solve_word(
                u.pool(),
                &[inv0, c0, bad0],
                self.budget.sat_limits(started),
                &mut stats,
            );
            if q.result == SolveResult::Unsat {
                return CheckOutcome::finish(Verdict::Safe, stats, started);
            }
            invariant = Some(inv);
        }

        // Phase 2: k-induction with the invariant assumed on every step
        // frame (kIkI's combined check).
        WordKInduction {
            budget: self.budget.clone(),
            simple_path: false,
        }
        .run(&ts, invariant, started, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter gated at 10 whose property `c <= 10` needs the
    /// interval invariant c ∈ [0, 10]: plain 1-induction fails (CTI at
    /// c = 15), intervals nail it without deep unrolling.
    fn gated_counter() -> SwProgram {
        let mut ts = TransitionSystem::new("gated");
        let s = ts.add_state("c", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let lim = ts.pool_mut().constv(8, 10);
        let one = ts.pool_mut().constv(8, 1);
        let lt = ts.pool_mut().ult(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let nx = ts.pool_mut().ite(lt, inc, sv);
        let z = ts.pool_mut().constv(8, 0);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let c200 = ts.pool_mut().constv(8, 200);
        let bad = ts.pool_mut().eq(sv, c200);
        ts.add_bad(bad, "c == 200");
        SwProgram::from_ts(ts)
    }

    #[test]
    fn interval_invariant_proves_quickly() {
        let out = TwoLs::default().check(&gated_counter());
        assert_eq!(out.outcome, Verdict::Safe);
        assert_eq!(out.stats.depth, 0, "invariant alone should suffice");
    }

    #[test]
    fn finds_bugs_like_bmc() {
        let mut ts = TransitionSystem::new("c");
        let s = ts.add_state("count", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(8, 1);
        let nx = ts.pool_mut().add(sv, one);
        let z = ts.pool_mut().constv(8, 0);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let c = ts.pool_mut().constv(8, 6);
        let bad = ts.pool_mut().eq(sv, c);
        ts.add_bad(bad, "hit 6");
        let prog = SwProgram::from_ts(ts);
        let out = TwoLs::default().check(&prog);
        match out.outcome {
            Verdict::Unsafe(t) => {
                assert_eq!(t.length(), 6);
                let sys = aig::blast_system(&prog.ts);
                assert!(t.replays_on(&sys));
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn widening_terminates_inference() {
        // A free-running wrap-around counter: the interval must widen
        // to top, and the verdict falls back to k-induction.
        let mut ts = TransitionSystem::new("wrap");
        let s = ts.add_state("c", Sort::Bv(4));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(4, 1);
        let nx = ts.pool_mut().add(sv, one);
        let z = ts.pool_mut().constv(4, 0);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        // Property true of all states: c <= 15 (trivially).
        let m = ts.pool_mut().constv(4, 15);
        let le = ts.pool_mut().ule(sv, m);
        let bad = ts.pool_mut().not(le);
        ts.add_bad(bad, "impossible");
        let out = TwoLs::default().check(&SwProgram::from_ts(ts));
        assert_eq!(out.outcome, Verdict::Safe);
    }
}
