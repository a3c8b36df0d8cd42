//! Portfolio seats: software analyzers as hardware [`Checker`]s.
//!
//! The paper's strongest configuration (Figure 5, "hybrid") races
//! hardware engines *and* software analyzers on the same design. The
//! hardware side speaks [`engines::Checker`] over a word-level
//! [`rtlir::TransitionSystem`]; the software side speaks
//! [`Analyzer`] over a [`v2c::SwProgram`]. [`SwSeat`] bridges the two:
//! `check` lowers the transition system through the v2c
//! software-netlist path and runs the wrapped analyzer, so any
//! analyzer can sit in an [`engines::portfolio::Portfolio`].
//!
//! Cancellation comes for free: the analyzers already thread their
//! [`engines::Budget`]'s stop flag through every SAT query, so a
//! portfolio winner cancels a seated analyzer exactly like a hardware
//! member. Seat only *sound* analyzers — [`crate::predabs::PredAbs`]
//! (both refinement modes) and [`crate::impact::Impact`] qualify; the
//! deliberately imprecise [`crate::seahorn::SeaHorn`] and
//! [`crate::absint::IntervalAi`] reproduce paper-observed wrong/alarm
//! behaviour and would trip the portfolio's disagreement alarm.
//!
//! # Certification caveat
//!
//! Seated analyzers answer *without a witness*: their `Safe` carries no
//! inductive invariant the portfolio's certificate checker could
//! re-verify (the software abstraction's invariant lives in a different
//! state space than the bit-level template). The portfolio accepts such
//! answers **uncertified** — and if a hardware member later produces a
//! contradicting *checked* witness, the certifying side wins the race
//! retroactively. `Unsafe` answers are different: a seat's trace *is*
//! replayed on the bit-level model like any other, so a seated
//! analyzer's counterexample certifies (or is demoted) normally.

use crate::Analyzer;
use engines::{CheckOutcome, Checker};
use rtlir::TransitionSystem;
use v2c::SwProgram;

/// Wraps a software [`Analyzer`] as a hardware [`Checker`].
pub struct SwSeat<A: Analyzer> {
    analyzer: A,
}

impl<A: Analyzer> SwSeat<A> {
    /// Seats `analyzer` (build it from the portfolio's
    /// [`engines::portfolio::Portfolio::engine_budget`] so the shared
    /// stop flag reaches its SAT queries).
    pub fn new(analyzer: A) -> SwSeat<A> {
        SwSeat { analyzer }
    }
}

impl<A: Analyzer> Checker for SwSeat<A> {
    fn name(&self) -> &'static str {
        self.analyzer.name()
    }

    fn check(&self, ts: &TransitionSystem) -> CheckOutcome {
        let prog = SwProgram::from_ts(ts.clone());
        self.analyzer.check(&prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predabs::{PredAbs, RefineMode};
    use engines::{Budget, Verdict};
    use rtlir::Sort;

    fn saturating_counter() -> TransitionSystem {
        let mut ts = TransitionSystem::new("sat-counter");
        let s = ts.add_state("count", Sort::Bv(4));
        let sv = ts.pool_mut().var(s);
        let lim = ts.pool_mut().constv(4, 5);
        let one = ts.pool_mut().constv(4, 1);
        let at = ts.pool_mut().uge(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let next = ts.pool_mut().ite(at, sv, inc);
        let zero = ts.pool_mut().constv(4, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let bad = ts.pool_mut().ugt(sv, lim);
        ts.add_bad(bad, "overflow");
        ts
    }

    #[test]
    fn seated_analyzer_checks_transition_systems() {
        let seat = SwSeat::new(PredAbs::new(Budget::default(), RefineMode::Wp));
        assert_eq!(seat.name(), "cpa-predabs");
        let out = seat.check(&saturating_counter());
        assert_eq!(out.outcome, Verdict::Safe);
    }

    #[test]
    fn seated_analyzer_races_in_a_portfolio() {
        use engines::portfolio::Portfolio;
        let mut p = Portfolio::with_engines(Budget::default(), 4);
        p.push(SwSeat::new(PredAbs::new(p.engine_budget(), RefineMode::Wp)));
        let report = p.check_detailed(&saturating_counter());
        assert_eq!(report.verdict, Verdict::Safe);
        assert!(!report.disagreement, "seated analyzer must not disagree");
        assert_eq!(report.engines.len(), 5);
        let seat = report
            .engines
            .iter()
            .find(|e| e.name == "cpa-predabs")
            .expect("seat raced");
        // The seat answers without a bit-level witness: accepted
        // uncertified if it wins, never demoted for the missing
        // certificate (see module docs).
        if seat.winner {
            assert!(!report.certified);
            let rep = seat.certify.as_ref().expect("winner is checked");
            assert!(rep.ok && !rep.witnessed);
        } else {
            assert!(report.certified, "hardware winner carries a witness");
        }
    }
}
