//! IMPARA-style IMPACT: lazy abstraction with interpolants
//! (McMillan 2006; Wachter, Kroening, Ouaknine FMCAD 2013).
//!
//! The software-netlist's single loop makes the abstract reachability
//! tree a chain of unwinding nodes. Each round checks the path formula
//! `Init ∧ T^k ∧ Bad(k)`; if infeasible, Craig interpolants at every
//! cut strengthen the node labels, and a *covering* check looks for a
//! node whose label is implied by a predecessor's — at which point the
//! disjunction of labels is a candidate invariant. Before answering
//! Safe, the candidate is independently certified (inductive, initial,
//! excludes bad), so the engine stays sound regardless of labelling
//! subtleties.

use crate::util::interface_unrolling;
use crate::Analyzer;
use engines::itp::itp_to_aig;
use engines::{bmc::Bmc, Budget, CheckOutcome, Checker, EngineStats, Unknown, Verdict};
use satb::{Part, SolveResult, Solver};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use v2c::SwProgram;

/// The IMPACT analyzer.
#[derive(Clone, Debug, Default)]
pub struct Impact {
    /// Resource limits (`max_depth` bounds the unwinding).
    pub budget: Budget,
}

impl Impact {
    /// Creates the analyzer with a budget.
    pub fn new(budget: Budget) -> Impact {
        Impact { budget }
    }

    /// Replays a satisfiable path formula of length `k` as a trace with
    /// BMC, under what is left of the budget.
    fn confirm(
        &self,
        prog: &SwProgram,
        k: u32,
        stats: EngineStats,
        started: Instant,
    ) -> CheckOutcome {
        let bmc = Bmc::new(Budget {
            max_depth: k,
            ..self.budget.remaining(started)
        });
        CheckOutcome::finish(bmc.check(&prog.ts).outcome, stats, started)
    }
}

impl Analyzer for Impact {
    fn name(&self) -> &'static str {
        "impara-impact"
    }

    fn check(&self, prog: &SwProgram) -> CheckOutcome {
        let started = Instant::now();
        let mut stats = EngineStats::default();
        let mut sys = aig::blast_system(&prog.ts);
        let tpl = aig::TransitionTemplate::compile(&sys);
        let bads = sys.bads.clone();
        let any_bad = sys.aig.or_all(&bads);
        let init_lits: Vec<aig::AigLit> = sys
            .latches
            .iter()
            .filter_map(|l| l.init.map(|b| if b { l.output } else { !l.output }))
            .collect();
        let init_pred = sys.aig.and_all(&init_lits);

        // Depth-0 check: Init ∧ Bad.
        {
            let mut solver = Solver::new();
            let f0 = tpl.instantiate(&mut solver, Part::A, 0);
            f0.assert_init(&sys, &mut solver);
            stats.sat_queries += 1;
            match solver.solve_limited(&[f0.any_bad], self.budget.sat_limits(started)) {
                SolveResult::Sat => return self.confirm(prog, 0, stats, started),
                SolveResult::Unknown(why) => {
                    return CheckOutcome::finish(Verdict::Unknown(why.into()), stats, started)
                }
                SolveResult::Unsat => {}
            }
        }

        // Whether the bad outputs are state predicates (no primary
        // input in their cones); if so, ¬bad can strengthen the
        // invariant candidate.
        let bad_is_state_pred = {
            let leaves: HashSet<u32> = sys
                .aig
                .cone(&[any_bad])
                .into_iter()
                .filter_map(|n| sys.aig.and_fanins_of_node(n))
                .flat_map(|(a, b)| [a.node(), b.node()])
                .chain([any_bad.node()])
                .collect();
            sys.inputs.iter().all(|i| !leaves.contains(&i.node()))
        };

        // Node labels; labels[i] over-approximates states reachable in
        // exactly i iterations (conjunction of sequence interpolants
        // across rounds, so the chain property L_i ∧ T ⇒ L_{i+1}
        // holds by construction).
        let mut labels: Vec<aig::AigLit> = vec![init_pred];

        for k in 1..=self.budget.max_depth {
            if let Some(u) = self.budget.interruption(started) {
                return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
            }
            stats.depth = k;
            labels.push(aig::AigLit::TRUE);
            let k = k as usize;

            // One proof-logged solve of Init ∧ T^k ∧ ¬Bad(<k) ∧ Bad(k),
            // with frame f's clauses tagged f + 1 so every cut's
            // interpolant comes from the same refutation (sequence
            // interpolants).
            let mut solver = Solver::with_proof();
            let tag = |f: usize| (f + 1) as u32;
            let (latches, frames) =
                interface_unrolling(&sys, &tpl, &mut solver, k + 1, |f| (Part::A, tag(f)));
            // No counterexample shorter than k exists (established by
            // earlier rounds): pin ¬bad at every inner frame.
            for f in 1..k {
                solver.add_clause_tagged(&[!frames[f].any_bad], Part::A, tag(f));
            }
            solver.add_clause_tagged(&[frames[k].any_bad], Part::A, tag(k));
            stats.sat_queries += 1;
            match solver.solve_limited(&[], self.budget.sat_limits(started)) {
                SolveResult::Sat => return self.confirm(prog, k as u32, stats, started),
                SolveResult::Unknown(why) => {
                    return CheckOutcome::finish(Verdict::Unknown(why.into()), stats, started)
                }
                SolveResult::Unsat => {
                    // Sequence interpolants: cut c puts frames < c in A.
                    for cut in 1..=k {
                        if let Some(u) = self.budget.interruption(started) {
                            return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
                        }
                        if let Some(itp) = solver.interpolant_with(|t| t <= cut as u32) {
                            let map: HashMap<satb::Var, aig::AigLit> = latches[cut]
                                .iter()
                                .zip(&sys.latches)
                                .map(|(&l, latch)| (l.var(), latch.output))
                                .collect();
                            let il = itp_to_aig(&itp, &map, &mut sys.aig);
                            labels[cut] = sys.aig.and(labels[cut], il);
                        }
                    }
                }
            }

            // Certification attempt: the disjunction of all labels is
            // the IMPACT invariant candidate (coverage of the chain's
            // frontier by construction of sequence interpolants makes
            // this the natural candidate; certification keeps the
            // engine sound even when labels are not yet closed).
            let all = labels[..=k].to_vec();
            let r0 = sys.aig.or_all(&all);
            let mut candidates = vec![r0];
            if bad_is_state_pred {
                let r1 = sys.aig.and(r0, !any_bad);
                candidates.insert(0, r1);
            }
            for r in candidates {
                if let Some(u) = self.budget.interruption(started) {
                    return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
                }
                match self.certify(&mut sys, r, any_bad, init_pred, started, &mut stats) {
                    Some(true) => return CheckOutcome::finish(Verdict::Safe, stats, started),
                    Some(false) => {}
                    None => {
                        return CheckOutcome::finish(
                            Verdict::Unknown(Unknown::Timeout),
                            stats,
                            started,
                        )
                    }
                }
            }
        }
        CheckOutcome::finish(Verdict::Unknown(Unknown::BoundReached), stats, started)
    }
}

/// `a ⇒ b` over latch CIs (None on timeout).
fn implies(
    sys: &mut aig::AigSystem,
    a: aig::AigLit,
    b: aig::AigLit,
    started: Instant,
    budget: &Budget,
) -> Option<bool> {
    let q = sys.aig.and(a, !b);
    let mut solver = Solver::new();
    let mut enc = aig::FrameEncoder::new();
    let l = enc.encode(&sys.aig, &mut solver, q, Part::A);
    solver.add_clause(&[l]);
    match solver.solve_limited(&[], budget.sat_limits(started)) {
        SolveResult::Unsat => Some(true),
        SolveResult::Sat => Some(false),
        SolveResult::Unknown(_) => None,
    }
}

impl Impact {
    /// Certifies `r` as a safe inductive invariant: `init ⇒ r`,
    /// `r ∧ T ⇒ r'`, and `r ∧ bad` unsatisfiable.
    fn certify(
        &self,
        sys: &mut aig::AigSystem,
        r: aig::AigLit,
        any_bad: aig::AigLit,
        init_pred: aig::AigLit,
        started: Instant,
        stats: &mut EngineStats,
    ) -> Option<bool> {
        stats.sat_queries += 3;
        if implies(sys, init_pred, r, started, &self.budget) != Some(true) {
            return Some(false);
        }
        if self.budget.interruption(started).is_some() {
            return None;
        }
        // r ∧ bad unsat.
        let rb = sys.aig.and(r, any_bad);
        let mut solver = Solver::new();
        let mut enc = aig::FrameEncoder::new();
        let l = enc.encode(&sys.aig, &mut solver, rb, Part::A);
        solver.add_clause(&[l]);
        for &c in &sys.constraints {
            let cl = enc.encode(&sys.aig, &mut solver, c, Part::A);
            solver.add_clause(&[cl]);
        }
        let lim = self.budget.sat_limits(started);
        match solver.solve_limited(&[], lim.clone()) {
            SolveResult::Sat => return Some(false),
            SolveResult::Unknown(_) => return None,
            SolveResult::Unsat => {}
        }
        if self.budget.interruption(started).is_some() {
            return None;
        }
        // Consecution: r(s) ∧ T(s, s') ∧ ¬r(s') unsat. Encode r twice:
        // once over the latch CIs, once with latch CIs bound to the
        // next-state literals.
        let mut solver = Solver::new();
        let mut enc = aig::FrameEncoder::new();
        let rl = enc.encode(&sys.aig, &mut solver, r, Part::A);
        solver.add_clause(&[rl]);
        for &c in &sys.constraints {
            let cl = enc.encode(&sys.aig, &mut solver, c, Part::A);
            solver.add_clause(&[cl]);
        }
        let mut enc_next = aig::FrameEncoder::new();
        for latch in &sys.latches {
            let nl = enc.encode(&sys.aig, &mut solver, latch.next, Part::A);
            enc_next.bind(latch.output, nl);
        }
        let rn = enc_next.encode(&sys.aig, &mut solver, r, Part::A);
        solver.add_clause(&[!rn]);
        match solver.solve_limited(&[], lim) {
            SolveResult::Unsat => Some(true),
            SolveResult::Sat => Some(false),
            SolveResult::Unknown(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::{Sort, TransitionSystem};

    fn saturating(limit: u64, bad_at: u64) -> SwProgram {
        let mut ts = TransitionSystem::new("sat");
        let s = ts.add_state("c", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let lim = ts.pool_mut().constv(8, limit);
        let one = ts.pool_mut().constv(8, 1);
        let lt = ts.pool_mut().ult(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let nx = ts.pool_mut().ite(lt, inc, sv);
        let z = ts.pool_mut().constv(8, 0);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let b = ts.pool_mut().constv(8, bad_at);
        let bad = ts.pool_mut().eq(sv, b);
        ts.add_bad(bad, "hit");
        SwProgram::from_ts(ts)
    }

    #[test]
    fn proves_small_safe_design() {
        let out = Impact::default().check(&saturating(4, 200));
        assert_eq!(out.outcome, Verdict::Safe);
    }

    #[test]
    fn finds_bug_with_replayable_trace() {
        let prog = saturating(200, 5);
        let out = Impact::default().check(&prog);
        match out.outcome {
            Verdict::Unsafe(t) => {
                assert_eq!(t.length(), 5);
                let sys = aig::blast_system(&prog.ts);
                assert!(t.replays_on(&sys));
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn certification_rejects_bogus_invariants() {
        let prog = saturating(4, 200);
        let mut sys = aig::blast_system(&prog.ts);
        let bads = sys.bads.clone();
        let any_bad = sys.aig.or_all(&bads);
        let init_lits: Vec<aig::AigLit> = sys
            .latches
            .iter()
            .filter_map(|l| l.init.map(|b| if b { l.output } else { !l.output }))
            .collect();
        let init_pred = sys.aig.and_all(&init_lits);
        let engine = Impact::default();
        let mut stats = EngineStats::default();
        let started = Instant::now();
        // TRUE is not safe (it includes bad states).
        assert_eq!(
            engine.certify(
                &mut sys,
                aig::AigLit::TRUE,
                any_bad,
                init_pred,
                started,
                &mut stats
            ),
            Some(false)
        );
        // init alone is not inductive (counter moves on).
        assert_eq!(
            engine.certify(&mut sys, init_pred, any_bad, init_pred, started, &mut stats),
            Some(false)
        );
    }
}
