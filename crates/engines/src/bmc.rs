//! Bounded model checking (bit-level, incremental).
//!
//! BMC is the bug-finding baseline every compared tool builds on: the
//! transition relation is unrolled frame by frame into one incremental
//! SAT solver, and the bad-state output is assumed at each depth.
//!
//! The solver logs no proof, so every chained frame folds what its
//! level 0 already fixes ([`aig::TransitionTemplate::instantiate_bound`]):
//! from a reset state, the bound literals of a deterministic design's
//! next frame are fixed, and the frame gets solver variables and
//! clauses only for what they leave open. A frame whose clauses
//! conflict with the fixed values makes the solver inconsistent, so
//! every later query is `Unsat`, as with the whole frame loaded. The
//! k-induction engine's base and step chains are the same frame chains
//! and fold the same way, as does the certifier's k-inductive base
//! chain unless it logs proofs (paranoid mode).

use crate::certify::{clause_on, LatchClause};
use crate::result::{
    model_values, Blasted, Budget, CheckOutcome, Checker, EngineStats, Trace, Unknown, Verdict,
};
use aig::{AigSystem, FrameVars, TransitionTemplate};
use rtlir::TransitionSystem;
use satb::{Lit, Part, SolveResult, Solver};
use std::time::Instant;

/// An unrolled chain of time frames in one incremental solver.
///
/// Every frame is one instantiation of the shared
/// [`TransitionTemplate`]: frame 0 gets fresh SAT variables for every
/// latch (constrained to the reset values when `initialized`), frame
/// `k+1` is chained by binding its latch-current variables to frame
/// `k`'s next-state output literals. Constraints are asserted on every
/// materialized frame by the instantiation itself, and the certified
/// static invariant `inv` is asserted on every frame's current-state
/// literals — required for soundness on invariant-refined templates
/// (see [`Blasted`]), and a free strengthening on initialized chains.
pub(crate) struct FrameChain<'s> {
    sys: &'s AigSystem,
    tpl: &'s TransitionTemplate,
    inv: &'s [LatchClause],
    pub(crate) solver: Solver,
    frames: Vec<FrameVars>,
}

impl<'s> FrameChain<'s> {
    pub(crate) fn new(
        sys: &'s AigSystem,
        tpl: &'s TransitionTemplate,
        inv: &'s [LatchClause],
        initialized: bool,
    ) -> FrameChain<'s> {
        let mut solver = Solver::new();
        let f0 = tpl.instantiate(&mut solver, Part::A, 0);
        if initialized {
            f0.assert_init(sys, &mut solver);
        }
        for clause in inv {
            solver.add_clause(&clause_on(clause, &f0.latch_cur));
        }
        FrameChain {
            sys,
            tpl,
            inv,
            solver,
            frames: vec![f0],
        }
    }

    /// Ensures frames `0..=k` are materialized.
    pub(crate) fn ensure(&mut self, k: usize) {
        while self.frames.len() <= k {
            let bind = self
                .frames
                .last()
                .expect("frame 0 exists")
                .latch_next
                .clone();
            let next = self
                .tpl
                .instantiate_bound(&mut self.solver, Part::A, 0, &bind);
            for clause in self.inv {
                self.solver.add_clause(&clause_on(clause, &next.latch_cur));
            }
            self.frames.push(next);
        }
    }

    /// SAT literal for "some bad property fires at frame `k`".
    pub(crate) fn any_bad(&mut self, k: usize) -> Lit {
        self.ensure(k);
        self.frames[k].any_bad
    }

    /// SAT literal of an individual bad output at frame `k`.
    pub(crate) fn bad_at(&mut self, k: usize, bad_index: usize) -> Lit {
        self.ensure(k);
        self.frames[k].bads[bad_index]
    }

    /// Asserts that the states of frames `i` and `j` differ on some of
    /// the given `latches` (the simple-path constraint of k-induction),
    /// with one fresh difference variable per latch.
    ///
    /// The clauses only need the forward half of the xor definition
    /// (`d → a ≠ c`): the disjunction of the `d`s forces some bit to
    /// differ, and a free `d` can always be set when the bits do.
    pub(crate) fn assert_distinct(&mut self, i: usize, j: usize, latches: &[usize]) {
        self.ensure(i.max(j));
        let mut diff_lits = Vec::with_capacity(latches.len());
        for &b in latches {
            let (a, c) = (self.frames[i].latch_cur[b], self.frames[j].latch_cur[b]);
            let d = Lit::pos(self.solver.new_var());
            self.solver.add_clause(&[!d, a, c]);
            self.solver.add_clause(&[!d, !a, !c]);
            diff_lits.push(d);
        }
        self.solver.add_clause(&diff_lits);
    }

    /// Extracts a counterexample trace of length `k` from the current
    /// model: its frame-0 state and the inputs of frames `0..=k`, with
    /// every later state simulated on the netlist ([`Trace::simulate`];
    /// the model's values for latches a cone-cut template frees mean
    /// nothing). `bad_index` should be determined by the caller (e.g.
    /// by probing individual bad literals).
    pub(crate) fn extract_trace(&self, k: usize, bad_index: usize) -> Trace {
        let inputs = self.frames[..=k]
            .iter()
            .map(|f| model_values(&self.solver, &f.inputs))
            .collect();
        let init = model_values(&self.solver, &self.frames[0].latch_cur);
        Trace::simulate(self.sys, init, inputs, bad_index)
    }

    /// Picks the bad property that fired at frame `k` in the current
    /// model (first one whose literal evaluates true).
    pub(crate) fn fired_bad(&mut self, k: usize) -> usize {
        for bi in 0..self.sys.bads.len() {
            let l = self.bad_at(k, bi);
            if self.solver.value(l) == Some(true) {
                return bi;
            }
        }
        0
    }
}

/// Incremental bounded model checking.
///
/// Returns [`Verdict::Unsafe`] with a trace when a bad state is
/// reachable within `budget.max_depth` steps;
/// [`Verdict::Unknown`]`(BoundReached)` when the bound is exhausted (BMC
/// alone never proves safety).
#[derive(Clone, Debug, Default)]
pub struct Bmc {
    /// Resource limits.
    pub budget: Budget,
}

impl Bmc {
    /// Creates a BMC engine with the given budget.
    pub fn new(budget: Budget) -> Bmc {
        Bmc { budget }
    }
}

impl Bmc {
    pub(crate) fn run(
        &self,
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        inv: &[LatchClause],
    ) -> CheckOutcome {
        let started = Instant::now();
        let mut stats = EngineStats::default();
        let mut chain = FrameChain::new(sys, tpl, inv, true);
        let verdict = self.search(&mut chain, &mut stats, started);
        stats.absorb_solver(&chain.solver.stats());
        CheckOutcome::finish(verdict, stats, started)
    }

    /// Deepens the chain one frame per query until a bad state is
    /// reachable or the budget runs out.
    fn search(&self, chain: &mut FrameChain, stats: &mut EngineStats, started: Instant) -> Verdict {
        for k in 0..=self.budget.max_depth {
            if let Some(u) = self.budget.interruption(started) {
                return Verdict::Unknown(u);
            }
            stats.depth = k;
            let bad = chain.any_bad(k as usize);
            stats.sat_queries += 1;
            match chain
                .solver
                .solve_limited(&[bad], self.budget.sat_limits(started))
            {
                SolveResult::Sat => {
                    let bi = chain.fired_bad(k as usize);
                    return Verdict::Unsafe(chain.extract_trace(k as usize, bi));
                }
                SolveResult::Unsat => {
                    // No counterexample at this depth: pin it and go deeper.
                    chain.solver.add_clause(&[!bad]);
                }
                SolveResult::Unknown(why) => return Verdict::Unknown(why.into()),
            }
        }
        Verdict::Unknown(Unknown::BoundReached)
    }
}

impl Checker for Bmc {
    fn name(&self) -> &'static str {
        "bmc"
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rtlir::Sort;

    pub(crate) fn counter_ts(bug_at: u64, width: u32) -> TransitionSystem {
        let mut ts = TransitionSystem::new("counter");
        let s = ts.add_state("count", Sort::Bv(width));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(width, 1);
        let next = ts.pool_mut().add(sv, one);
        let zero = ts.pool_mut().constv(width, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let c = ts.pool_mut().constv(width, bug_at);
        let bad = ts.pool_mut().eq(sv, c);
        ts.add_bad(bad, "counter hits bound");
        ts
    }

    #[test]
    fn finds_bug_at_exact_depth() {
        for depth in [0u64, 1, 7, 33] {
            let ts = counter_ts(depth, 8);
            let out = Bmc::default().check(&ts);
            match out.outcome {
                Verdict::Unsafe(trace) => {
                    assert_eq!(trace.length() as u64, depth, "bug depth");
                    let sys = aig::blast_system(&ts);
                    assert!(trace.replays_on(&sys), "trace must replay");
                }
                other => panic!("expected Unsafe, got {other:?}"),
            }
        }
    }

    /// A chained frame of a deterministic design costs what survives
    /// level-0 simplification: its latch-current values are level-0
    /// facts, so nearly every clause is satisfied or turns into an
    /// assignment, and neither is stored. The counter has no input, so
    /// the reset state determines every template variable of every
    /// chained frame, and none gets a solver variable.
    #[test]
    fn chained_frames_store_only_their_surviving_clauses() {
        let ts = counter_ts(3000, 12);
        let sys = aig::blast_system(&ts);
        let raw = TransitionTemplate::compile(&sys);
        let pre = raw.preprocess().template;
        for tpl in [&raw, &pre] {
            let mut solver = Solver::new();
            let f0 = tpl.instantiate(&mut solver, Part::A, 0);
            f0.assert_init(&sys, &mut solver);
            let mut last = f0.latch_next;
            let before = solver.num_clauses();
            let vars = solver.num_vars();
            let frames = 50;
            for _ in 0..frames {
                last = tpl
                    .instantiate_bound(&mut solver, Part::A, 0, &last)
                    .latch_next;
                assert_eq!(
                    solver.num_vars(),
                    vars,
                    "a chained frame created a variable"
                );
            }
            let stored = (solver.num_clauses() - before) as f64 / frames as f64;
            assert!(
                stored < tpl.num_frame_clauses() as f64 / 10.0,
                "{stored} clauses stored per frame of {}",
                tpl.num_frame_clauses()
            );
        }
        let out = Bmc::default().check(&ts);
        match out.outcome {
            Verdict::Unsafe(trace) => {
                assert_eq!(trace.length(), 3000, "bug depth");
                assert!(trace.replays_on(&sys), "trace must replay");
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    /// [`FrameChain::new`]'s initialized chain on a proof-logging
    /// solver, whose chained frames never fold.
    fn proof_logging_chain<'s>(sys: &'s AigSystem, tpl: &'s TransitionTemplate) -> FrameChain<'s> {
        let mut solver = Solver::with_proof();
        let f0 = tpl.instantiate(&mut solver, Part::A, 0);
        f0.assert_init(sys, &mut solver);
        FrameChain {
            sys,
            tpl,
            inv: &[],
            solver,
            frames: vec![f0],
        }
    }

    /// Folded chained frames answer as unfolded ones: on random systems
    /// with reset values, inputs and constraints, BMC's chain on a
    /// plain solver and on a proof-logging twin agree at every depth up
    /// to the first bad, and the plain chain's trace replays.
    #[test]
    fn folded_chain_answers_as_its_proof_logging_twin() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF01D);
        let (mut bugs, mut folded) = (0, 0);
        for round in 0..150 {
            let sys = aig::testutil::random_system(
                &mut rng,
                &aig::testutil::RandomSystemConfig {
                    max_constraints: 2,
                    ..aig::testutil::RandomSystemConfig::default()
                },
            );
            let raw = TransitionTemplate::compile(&sys);
            let tpl = if rng.gen_bool(0.5) {
                raw.preprocess().template
            } else {
                raw
            };
            let mut plain = FrameChain::new(&sys, &tpl, &[], true);
            let mut twin = proof_logging_chain(&sys, &tpl);
            for k in 0..=8 {
                let (bad, twin_bad) = (plain.any_bad(k), twin.any_bad(k));
                let answer = plain.solver.solve_with(&[bad]);
                assert_eq!(
                    answer,
                    twin.solver.solve_with(&[twin_bad]),
                    "round {round} depth {k}"
                );
                if answer == SolveResult::Sat {
                    let fired = plain.fired_bad(k);
                    let trace = plain.extract_trace(k, fired);
                    assert_eq!(trace.length(), k, "round {round}");
                    assert!(trace.replays_on(&sys), "round {round} depth {k}");
                    bugs += 1;
                    break;
                }
                plain.solver.add_clause(&[!bad]);
                twin.solver.add_clause(&[!twin_bad]);
            }
            folded += usize::from(plain.solver.num_vars() < twin.solver.num_vars());
        }
        assert!(bugs >= 30, "only {bugs} rounds reach a bad state");
        assert!(folded >= 30, "only {folded} chains fold a variable");
    }

    #[test]
    fn input_driven_bug_with_trace() {
        // Register accumulates input; bad when it exceeds 10.
        let mut ts = TransitionSystem::new("acc");
        let i = ts.add_input("in", Sort::Bv(4));
        let s = ts.add_state("acc", Sort::Bv(4));
        let (iv, sv) = {
            let p = ts.pool_mut();
            (p.var(i), p.var(s))
        };
        let next = ts.pool_mut().add(sv, iv);
        let zero = ts.pool_mut().constv(4, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let ten = ts.pool_mut().constv(4, 10);
        let bad = ts.pool_mut().ugt(sv, ten);
        ts.add_bad(bad, "acc > 10");
        let out = Bmc::default().check(&ts);
        match out.outcome {
            Verdict::Unsafe(trace) => {
                let sys = aig::blast_system(&ts);
                assert!(trace.replays_on(&sys), "trace must replay");
                assert!(trace.length() >= 1);
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn safe_design_reaches_bound() {
        // Counter wraps within 4 bits; bad value 200 is unreachable.
        let mut ts = counter_ts(0, 4);
        // Replace the bad with an unreachable one: count == 9 after the
        // counter is forced to skip 9 (increment by 2 from even init).
        let s = ts.states()[0].var;
        let sv = ts.pool_mut().var(s);
        let two = ts.pool_mut().constv(4, 2);
        let next = ts.pool_mut().add(sv, two);
        ts.set_next(s, next);
        let mut ts2 = ts;
        let nine = ts2.pool_mut().constv(4, 9);
        let bad = ts2.pool_mut().eq(sv, nine);
        // Note: the original bad (count == 0) fires at cycle 0; build a
        // fresh system with only the odd-target property instead.
        let mut ts3 = TransitionSystem::new("even");
        let s3 = ts3.add_state("count", Sort::Bv(4));
        let s3v = ts3.pool_mut().var(s3);
        let two3 = ts3.pool_mut().constv(4, 2);
        let nx = ts3.pool_mut().add(s3v, two3);
        let z = ts3.pool_mut().constv(4, 0);
        ts3.set_init(s3, z);
        ts3.set_next(s3, nx);
        let nine3 = ts3.pool_mut().constv(4, 9);
        let b3 = ts3.pool_mut().eq(s3v, nine3);
        ts3.add_bad(b3, "odd value reached");
        let _ = (ts2, bad, nine);
        let out = Bmc {
            budget: Budget {
                timeout: None,
                max_depth: 40,
                ..Budget::default()
            },
        }
        .check(&ts3);
        assert_eq!(out.outcome, Verdict::Unknown(Unknown::BoundReached));
        assert_eq!(out.stats.depth, 40);
    }

    #[test]
    fn respects_constraints() {
        // Input-incremented counter, but constraint forbids increments.
        let mut ts = TransitionSystem::new("constrained");
        let en = ts.add_input("en", Sort::BOOL);
        let s = ts.add_state("c", Sort::Bv(4));
        let (env_, sv) = {
            let p = ts.pool_mut();
            (p.var(en), p.var(s))
        };
        let one = ts.pool_mut().constv(4, 1);
        let inc = ts.pool_mut().add(sv, one);
        let next = ts.pool_mut().ite(env_, inc, sv);
        let zero = ts.pool_mut().constv(4, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let three = ts.pool_mut().constv(4, 3);
        let bad = ts.pool_mut().eq(sv, three);
        ts.add_bad(bad, "c == 3");
        let no_en = ts.pool_mut().not(env_);
        ts.add_constraint(no_en);
        let out = Bmc {
            budget: Budget {
                timeout: None,
                max_depth: 12,
                ..Budget::default()
            },
        }
        .check(&ts);
        assert_eq!(
            out.outcome,
            Verdict::Unknown(Unknown::BoundReached),
            "constraint keeps the design safe"
        );
    }
}
