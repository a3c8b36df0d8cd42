//! Bit-level k-induction (Sheeran–Singh–Stålmarck 2000).
//!
//! The "ABC-kind" configuration of the paper's Figure 3. Two
//! incremental solvers run in lock step: a *base* chain (BMC from the
//! initial states) refutes the property, while a *step* chain (free
//! initial state, property assumed for `k` frames, violated at frame
//! `k`, with simple-path constraints) proves it.

use crate::bmc::FrameChain;
use crate::certify::{Certificate, LatchClause};
use crate::result::{Blasted, Budget, CheckOutcome, Checker, EngineStats, Unknown, Verdict};
use aig::{AigSystem, TransitionTemplate};
use rtlir::TransitionSystem;
use satb::SolveResult;
use std::time::Instant;

/// Bit-level k-induction engine.
///
/// Completeness: with `simple_path` enabled the method is complete on
/// finite-state systems (the recurrence diameter bounds k), but the
/// required k can be astronomically large — exactly the behaviour the
/// paper reports for the FIFO/RCU/BufAl benchmarks, where properties
/// are not k-inductive for any feasible k.
#[derive(Clone, Debug)]
pub struct KInduction {
    /// Resource limits.
    pub budget: Budget,
    /// Add pairwise state-distinctness (simple path) constraints.
    pub simple_path: bool,
}

impl Default for KInduction {
    fn default() -> KInduction {
        KInduction {
            budget: Budget::default(),
            simple_path: true,
        }
    }
}

impl KInduction {
    /// Creates a k-induction engine with the given budget.
    pub fn new(budget: Budget) -> KInduction {
        KInduction {
            budget,
            ..KInduction::default()
        }
    }
}

impl KInduction {
    pub(crate) fn run(
        &self,
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        inv: &[LatchClause],
    ) -> CheckOutcome {
        let started = Instant::now();
        let mut stats = EngineStats::default();

        // One blast, one template: the base and step chains instantiate
        // the same compiled clause image into their own solvers. The
        // certified static invariant rides on every frame of both: it
        // strengthens the step premise (fewer spurious
        // counterexamples-to-induction) and is mandatory on the
        // free-state step chain when the template is invariant-refined.
        let mut base = FrameChain::new(sys, tpl, inv, true);
        let mut step = FrameChain::new(sys, tpl, inv, false);
        let (verdict, cert) = self.search(sys, inv, &mut base, &mut step, &mut stats, started);
        stats.absorb_solver(&base.solver.stats());
        stats.absorb_solver(&step.solver.stats());
        CheckOutcome {
            certificate: cert,
            ..CheckOutcome::finish(verdict, stats, started)
        }
    }

    /// The lock-step loop over `k`: the verdict and, for Safe, its
    /// witness.
    fn search(
        &self,
        sys: &AigSystem,
        inv: &[LatchClause],
        base: &mut FrameChain,
        step: &mut FrameChain,
        stats: &mut EngineStats,
        started: Instant,
    ) -> (Verdict, Option<Certificate>) {
        // Simple-path constraints are incremental: iteration k asserts
        // only the new pairs (i, k) (halved xor encoding), so nothing is
        // re-encoded and learned clauses persist across iterations.
        // Distinctness ranges over the netlist's cone of influence
        // only, the same set `certify` re-checks: bads and constraints
        // read nothing else, so a shortest counterexample is simple over
        // it. Latches outside it are free on a cone-cut template and
        // would keep paths distinct for 2^(their number) times longer.
        let distinct_over = coi_latches(sys);

        for k in 0..=self.budget.max_depth {
            if let Some(u) = self.budget.interruption(started) {
                return (Verdict::Unknown(u), None);
            }
            stats.depth = k;

            // Base case: counterexample of length exactly k?
            let bad_base = base.any_bad(k as usize);
            stats.sat_queries += 1;
            match base
                .solver
                .solve_limited(&[bad_base], self.budget.sat_limits(started))
            {
                SolveResult::Sat => {
                    let bi = base.fired_bad(k as usize);
                    let trace = base.extract_trace(k as usize, bi);
                    return (Verdict::Unsafe(trace), None);
                }
                SolveResult::Unsat => {
                    base.solver.add_clause(&[!bad_base]);
                }
                SolveResult::Unknown(why) => return (Verdict::Unknown(why.into()), None),
            }

            // A base-case solve that exhausted the budget must not run
            // the (often much harder) step solve before noticing.
            if let Some(u) = self.budget.interruption(started) {
                return (Verdict::Unknown(u), None);
            }

            // Inductive step at k: frames 0..=k from a free state, with
            // the property holding on frames 0..k-1 (pinned by the !bad
            // units added in earlier iterations) and violated at k.
            // Only the pairs involving the new frame are encoded; the
            // earlier iterations' pairs are already asserted.
            if self.simple_path && k >= 1 {
                for i in 0..k as usize {
                    step.assert_distinct(i, k as usize, &distinct_over);
                }
            }
            let bad_step = step.any_bad(k as usize);
            stats.sat_queries += 1;
            match step
                .solver
                .solve_limited(&[bad_step], self.budget.sat_limits(started))
            {
                SolveResult::Unsat => {
                    // The base chain verified depths 0..=k and the
                    // step premise just proved k-inductiveness: the
                    // witness is the (k, simple-path) claim itself,
                    // plus the static invariant the step premise
                    // assumed, re-checked from scratch by `certify`.
                    let cert = Certificate::KInductive {
                        k,
                        simple_path: self.simple_path,
                        invariant: inv.to_vec(),
                    };
                    return (Verdict::Safe, Some(cert));
                }
                SolveResult::Sat => {
                    // Not k-inductive: pin !bad at k and deepen.
                    step.solver.add_clause(&[!bad_step]);
                }
                SolveResult::Unknown(why) => return (Verdict::Unknown(why.into()), None),
            }
        }
        (Verdict::Unknown(Unknown::BoundReached), None)
    }
}

/// The latches of `sys`'s cone of influence ([`AigSystem::latch_coi`]),
/// by index: the set the simple-path constraint ranges over.
pub(crate) fn coi_latches(sys: &AigSystem) -> Vec<usize> {
    let coi = sys.latch_coi();
    (0..coi.len()).filter(|&i| coi[i]).collect()
}

impl Checker for KInduction {
    fn name(&self) -> &'static str {
        "abc-kind"
    }

    fn check(&self, ts: &TransitionSystem) -> CheckOutcome {
        let sys = aig::blast_system(ts);
        // Compile once, simplify once: every frame this run
        // instantiates inherits the preprocessed image.
        let tpl = TransitionTemplate::compile(&sys).preprocess().template;
        self.run(&sys, &tpl, &[])
    }

    fn check_blasted(&self, _ts: &TransitionSystem, blasted: &Blasted) -> CheckOutcome {
        self.run(&blasted.sys, &blasted.template, blasted.strengthening())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rtlir::Sort;

    /// Saturating counter: increments until it reaches `limit`, then
    /// holds. `count <= limit` is 1-inductive.
    fn saturating_counter(limit: u64) -> TransitionSystem {
        let mut ts = TransitionSystem::new("sat-counter");
        let s = ts.add_state("count", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let lim = ts.pool_mut().constv(8, limit);
        let one = ts.pool_mut().constv(8, 1);
        let at_lim = ts.pool_mut().uge(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let next = ts.pool_mut().ite(at_lim, sv, inc);
        let zero = ts.pool_mut().constv(8, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let bad = ts.pool_mut().ugt(sv, lim);
        ts.add_bad(bad, "count exceeds limit");
        ts
    }

    #[test]
    fn proves_one_inductive_property() {
        let ts = saturating_counter(10);
        let out = KInduction::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
        assert!(out.stats.depth <= 2, "should be k-inductive for tiny k");
    }

    #[test]
    fn finds_base_case_bug() {
        let ts = crate::bmc::tests::counter_ts(6, 8);
        let out = KInduction::default().check(&ts);
        match out.outcome {
            Verdict::Unsafe(trace) => assert_eq!(trace.length(), 6),
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    /// A design with an *unreachable* loop that can exit into the bad
    /// region: `a` is frozen at 0, but if it were 1, `c` would cycle
    /// 0→1→2→0 forever and could jump to 3 (bad) on an input pulse.
    /// Plain k-induction never converges (the unreachable loop yields
    /// counterexamples-to-induction of every length); the simple-path
    /// constraint bounds paths by the state count and settles it.
    pub(crate) fn trap_ts() -> TransitionSystem {
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
        ts.set_next(a, av); // frozen
        ts.set_next(c, c_next);
        ts.add_bad(bad, "trap exit reached");
        ts
    }

    #[test]
    fn simple_path_makes_trap_provable() {
        let ts = trap_ts();
        let out = KInduction::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
        assert!(
            out.stats.depth >= 2,
            "not 1-inductive: k = {}",
            out.stats.depth
        );

        // Without simple-path constraints the unreachable loop defeats
        // induction at every k: the engine must hit the bound instead.
        let out2 = KInduction {
            budget: Budget {
                timeout: None,
                max_depth: 25,
                ..Budget::default()
            },
            simple_path: false,
        }
        .check(&ts);
        assert_eq!(out2.outcome, Verdict::Unknown(Unknown::BoundReached));
    }

    /// Unobserved, uninitialized, frozen latches are no constants, so
    /// the cone cut frees them. Simple-path constraints over them would
    /// keep step paths distinct for 2^(their bits) times longer; over
    /// the cone of influence the trap proves on the cut template at the
    /// depth it needs alone, and the witness re-checks against the whole
    /// netlist. (No strengthening here: mining would prove the trap's
    /// guard constant and make the property 0-inductive.)
    #[test]
    fn unobserved_frozen_latches_keep_the_simple_path_depth() {
        let mut ts = trap_ts();
        for i in 0..4 {
            let cfg = ts.add_state(format!("cfg{i}"), Sort::Bv(4));
            let v = ts.pool_mut().var(cfg);
            ts.set_next(cfg, v);
        }
        let sys = aig::blast_system(&ts);
        let refined = aig::refine_with_constants(&sys, &[]);
        assert_eq!(
            refined.aig.num_cis() - sys.aig.num_cis(),
            16,
            "every config bit is freed"
        );
        let cut = TransitionTemplate::compile(&refined).preprocess().template;
        let engine = KInduction::new(Budget {
            timeout: Some(std::time::Duration::from_secs(20)),
            ..Budget::default()
        });
        let alone = engine.check(&trap_ts());
        let beside = engine.run(&sys, &cut, &[]);
        assert_eq!(alone.outcome, Verdict::Safe);
        assert_eq!(beside.outcome, Verdict::Safe);
        assert_eq!(beside.stats.depth, alone.stats.depth);
        let rep = crate::certify::certify(&sys, &beside);
        assert!(rep.ok && rep.witnessed, "{:?}", rep.failure);
    }

    /// Incremental simple-path encoding: iteration k adds exactly the
    /// new pairs (i, k) — `k · latches` difference variables, with no
    /// guard — never re-encoding earlier pairs.
    #[test]
    fn simple_path_groups_grow_incrementally() {
        let ts = trap_ts();
        let sys = aig::blast_system(&ts);
        let tpl = aig::TransitionTemplate::compile(&sys).preprocess().template;
        let mut step = crate::bmc::FrameChain::new(&sys, &tpl, &[], false);
        let latches = coi_latches(&sys);
        let nl = sys.latches.len();
        assert_eq!(latches.len(), nl, "the bad reads every latch");
        for k in 1..=4usize {
            let _ = step.any_bad(k);
            let before = step.solver.num_vars();
            for i in 0..k {
                step.assert_distinct(i, k, &latches);
            }
            assert_eq!(
                step.solver.num_vars() - before,
                k * nl,
                "iteration {k}: the new pairs' diff vars"
            );
        }
    }

    #[test]
    fn input_gated_counter_is_safe() {
        // Counter only increments when enabled, saturates at 12.
        let mut ts = TransitionSystem::new("gated");
        let en = ts.add_input("en", Sort::BOOL);
        let s = ts.add_state("c", Sort::Bv(8));
        let (env_, sv) = {
            let p = ts.pool_mut();
            (p.var(en), p.var(s))
        };
        let twelve = ts.pool_mut().constv(8, 12);
        let one = ts.pool_mut().constv(8, 1);
        let zero = ts.pool_mut().constv(8, 0);
        let lt = ts.pool_mut().ult(sv, twelve);
        let inc = ts.pool_mut().add(sv, one);
        let can = ts.pool_mut().and(env_, lt);
        let next = ts.pool_mut().ite(can, inc, sv);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let bad = ts.pool_mut().ugt(sv, twelve);
        ts.add_bad(bad, "c > 12");
        let out = KInduction::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
    }
}
