//! The in-memory software-netlist program.

use rtlir::TransitionSystem;

/// A software-netlist: the program the software analyzers consume.
///
/// Semantically one loop:
///
/// ```c
/// state s = init();
/// while (1) {
///     inputs = nondet();
///     assume(constraints(s, inputs));
///     assert(!bad_i(s, inputs));   // for every property
///     s = next(s, inputs);         // two-phase: read then commit
/// }
/// ```
///
/// The underlying [`TransitionSystem`] carries the init/next/bad
/// expressions; `locals` preserves named intermediate computations of
/// the program text (combinational signals), which program-level
/// analyzers use as predicate-discovery hints.
#[derive(Clone, Debug)]
pub struct SwProgram {
    /// The step semantics.
    pub ts: TransitionSystem,
    /// Named intermediate expressions `(name, expr)` in program order.
    pub locals: Vec<(String, rtlir::ExprId)>,
}

impl SwProgram {
    /// Wraps a transition system as a software-netlist (the direct
    /// translation path, bypassing C text).
    pub fn from_ts(ts: TransitionSystem) -> SwProgram {
        SwProgram {
            ts,
            locals: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        self.ts.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::Sort;

    #[test]
    fn wraps_and_runs() {
        let mut ts = TransitionSystem::new("p");
        let s = ts.add_state("s", Sort::Bv(4));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(4, 1);
        let nx = ts.pool_mut().add(sv, one);
        let z = ts.pool_mut().constv(4, 0);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let three = ts.pool_mut().constv(4, 3);
        let bad = ts.pool_mut().eq(sv, three);
        ts.add_bad(bad, "hits 3");
        let prog = SwProgram::from_ts(ts);
        assert_eq!(prog.name(), "p");
    }
}
