//! CBMC-style k-induction on the software-netlist (Figure 3's
//! "CBMC-kind" series).
//!
//! CBMC symbolically executes the unwound program and bit-blasts to
//! SAT — operationally the same word-level unrolling EBMC performs on
//! the netlist, so the analyzer runs the engines' one word-level loop,
//! [`engines::word::WordKInduction`]. What sets CBMC apart is the
//! configuration: its k-induction (as run in the paper via the wrapper
//! script) does not add simple-path constraints, so properties that
//! need them are out of reach — visible on the hard benchmarks.

use crate::Analyzer;
use engines::word::WordKInduction;
use engines::{Budget, CheckOutcome, Checker};
use v2c::SwProgram;

/// CBMC-style k-induction analyzer.
#[derive(Clone, Debug, Default)]
pub struct CbmcKind {
    /// Resource limits.
    pub budget: Budget,
}

impl CbmcKind {
    /// Creates the analyzer with a budget.
    pub fn new(budget: Budget) -> CbmcKind {
        CbmcKind { budget }
    }
}

impl Analyzer for CbmcKind {
    fn name(&self) -> &'static str {
        "cbmc-kind"
    }

    fn check(&self, prog: &SwProgram) -> CheckOutcome {
        WordKInduction {
            budget: self.budget.clone(),
            simple_path: false,
        }
        .check(&prog.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::Verdict;
    use rtlir::{Sort, TransitionSystem};

    fn prog_counter(bug_at: u64) -> SwProgram {
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
        SwProgram::from_ts(ts)
    }

    #[test]
    fn finds_bug_with_replayable_trace() {
        let prog = prog_counter(7);
        let out = CbmcKind::default().check(&prog);
        match out.outcome {
            Verdict::Unsafe(trace) => {
                assert_eq!(trace.length(), 7);
                let sys = aig::blast_system(&prog.ts);
                assert!(trace.replays_on(&sys));
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn proves_saturating_counter() {
        let mut ts = TransitionSystem::new("sat");
        let s = ts.add_state("c", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let lim = ts.pool_mut().constv(8, 10);
        let one = ts.pool_mut().constv(8, 1);
        let at = ts.pool_mut().uge(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let nx = ts.pool_mut().ite(at, sv, inc);
        let z = ts.pool_mut().constv(8, 0);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let bad = ts.pool_mut().ugt(sv, lim);
        ts.add_bad(bad, "overflow");
        let out = CbmcKind::default().check(&SwProgram::from_ts(ts));
        assert_eq!(out.outcome, Verdict::Safe);
    }
}
