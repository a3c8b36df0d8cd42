//! CPAChecker-style predicate abstraction with CEGAR.
//!
//! Cartesian predicate abstraction over a growing set of word-level
//! predicates: the abstract post of an abstract state is computed with
//! two SAT queries per predicate, reachability explores the (finite)
//! abstract state space, abstract counterexample paths are concretized
//! by bounded model checking, and infeasible paths refine the predicate
//! set. Two refinement modes mirror the two CPAChecker configurations
//! the paper plots:
//!
//! * [`RefineMode::Wp`] — syntactic weakest-precondition atoms
//!   ("CPA-predabs" in Figure 5);
//! * [`RefineMode::Interpolant`] — Craig interpolants computed at the
//!   bit level and folded back into word-level predicates over state
//!   bits ("CPA-interpolation" in Figure 4). Bit-granular predicates
//!   are precise but converge slowly on bit-heavy designs — the
//!   behaviour the paper observes.

use crate::util::{collect_atoms, interface_unrolling, substitute_next, vars_of};
use crate::Analyzer;
use engines::word::{solve_word, TraceExtractor};
use engines::{Budget, CheckOutcome, EngineStats, Unknown, Verdict};
use rtlir::unroll::{InitMode, Unroller};
use rtlir::{ExprId, Sort, TransitionSystem, Value, VarId};
use satb::{Part, SolveResult, Solver};
use std::collections::HashMap;
use std::time::Instant;
use v2c::SwProgram;

/// How infeasible abstract paths refine the predicate set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefineMode {
    /// Weakest-precondition atoms.
    Wp,
    /// Bit-level Craig interpolants.
    Interpolant,
}

/// The predicate-abstraction analyzer.
#[derive(Clone, Debug)]
pub struct PredAbs {
    /// Resource limits.
    pub budget: Budget,
    /// Refinement strategy.
    pub refine: RefineMode,
    /// Hard cap on the predicate set size.
    pub max_predicates: usize,
}

impl Default for PredAbs {
    fn default() -> PredAbs {
        PredAbs {
            budget: Budget::default(),
            refine: RefineMode::Wp,
            max_predicates: 64,
        }
    }
}

impl PredAbs {
    /// Creates the analyzer with a budget.
    pub fn new(budget: Budget, refine: RefineMode) -> PredAbs {
        PredAbs {
            budget,
            refine,
            ..PredAbs::default()
        }
    }
}

/// Three-valued abstract state over the predicate set.
type AbsState = Vec<Option<bool>>;

enum ReachResult {
    /// The abstract reachable set excludes all bad states.
    Proof,
    /// Chain of abstract states ending in one that intersects bad.
    Path(Vec<AbsState>),
    /// A limit ended the search; carries the engine-level reason.
    Stopped(Unknown),
}

impl Analyzer for PredAbs {
    fn name(&self) -> &'static str {
        match self.refine {
            RefineMode::Wp => "cpa-predabs",
            RefineMode::Interpolant => "cpa-itp",
        }
    }

    fn check(&self, prog: &SwProgram) -> CheckOutcome {
        let started = Instant::now();
        let mut stats = EngineStats::default();
        let mut ts = prog.ts.clone();
        let is_state = state_var_set(&ts);

        // Seed predicates: atoms of the bad expressions (over state
        // variables only) plus atoms of named program locals.
        let mut preds: Vec<ExprId> = Vec::new();
        let bads: Vec<ExprId> = ts.bads().iter().map(|b| b.expr).collect();
        for b in &bads {
            for a in collect_atoms(ts.pool(), *b, &|v| is_state.contains(&v)) {
                push_pred(&mut preds, a);
            }
        }
        for (_, l) in &prog.locals {
            if ts.pool().sort(*l).is_bool() {
                for a in collect_atoms(ts.pool(), *l, &|v| is_state.contains(&v)) {
                    push_pred(&mut preds, a);
                }
            }
        }

        for round in 0..self.budget.max_depth {
            if self.budget.expired(started) {
                return CheckOutcome::finish(Verdict::Unknown(Unknown::Timeout), stats, started);
            }
            stats.depth = round;

            match self.abstract_reach(&ts, &preds, started, &mut stats) {
                ReachResult::Stopped(u) => {
                    return CheckOutcome::finish(Verdict::Unknown(u), stats, started)
                }
                ReachResult::Proof => return CheckOutcome::finish(Verdict::Safe, stats, started),
                ReachResult::Path(path) => {
                    // Concretize.
                    let n = path.len() - 1;
                    let mut u = Unroller::new(&ts, InitMode::Initialized);
                    let mut roots = Vec::new();
                    for (f, a) in path.iter().enumerate() {
                        let c = u.constraint(f);
                        roots.push(c);
                        for (j, val) in a.iter().enumerate() {
                            if let Some(v) = val {
                                let p = u.translate(f as u32, preds[j]);
                                let lit = if *v { p } else { u.pool_mut().not(p) };
                                roots.push(lit);
                            }
                        }
                    }
                    let bn = u.bad(n);
                    roots.push(bn);
                    let extractor = TraceExtractor::prepare(&mut u, n);
                    let q = solve_word(
                        u.pool(),
                        &roots,
                        self.budget.sat_limits(started),
                        &mut stats,
                    );
                    match q.result {
                        SolveResult::Sat => {
                            let mut model = q.model.expect("model");
                            let trace = extractor.extract(&ts, &mut model);
                            return CheckOutcome::finish(Verdict::Unsafe(trace), stats, started);
                        }
                        SolveResult::Unknown(why) => {
                            return CheckOutcome::finish(
                                Verdict::Unknown(why.into()),
                                stats,
                                started,
                            )
                        }
                        SolveResult::Unsat => {
                            // The abstract path is spurious under its
                            // state constraints — but a *different*
                            // real path of the same depth may exist;
                            // check with plain BMC before refining
                            // (CPAChecker's counterexample check).
                            let bmc = engines::bmc::Bmc::new(Budget {
                                max_depth: n as u32,
                                ..self.budget.remaining(started)
                            });
                            let bout = engines::Checker::check(&bmc, &ts);
                            if let Verdict::Unsafe(trace) = bout.outcome {
                                stats.sat_queries += bout.stats.sat_queries;
                                return CheckOutcome::finish(
                                    Verdict::Unsafe(trace),
                                    stats,
                                    started,
                                );
                            }
                            // Spurious: refine.
                            let before = preds.len();
                            if self.refine == RefineMode::Wp {
                                refine_wp(&mut ts, &mut preds, &is_state, self.max_predicates);
                            }
                            // Like CPAChecker, fall back to interpolation
                            // when syntactic WP yields nothing new
                            // (input-laden atoms are unusable).
                            if preds.len() == before {
                                let itp = ItpRefine {
                                    path: &path,
                                    started,
                                    budget: self.budget.clone(),
                                    cap: self.max_predicates,
                                };
                                if let Err(why) = refine_itp(&mut ts, &mut preds, &mut stats, &itp)
                                {
                                    return CheckOutcome::finish(
                                        Verdict::Unknown(why),
                                        stats,
                                        started,
                                    );
                                }
                            }
                            // Nothing new: the cap stopped refinement,
                            // or a finished refinement found nothing.
                            if preds.len() == before {
                                let why = if preds.len() >= self.max_predicates {
                                    Unknown::BoundReached
                                } else {
                                    Unknown::Inconclusive(
                                        "predicate refinement exhausted".to_string(),
                                    )
                                };
                                return CheckOutcome::finish(Verdict::Unknown(why), stats, started);
                            }
                        }
                    }
                }
            }
        }
        CheckOutcome::finish(Verdict::Unknown(Unknown::BoundReached), stats, started)
    }
}

fn state_var_set(ts: &TransitionSystem) -> std::collections::HashSet<VarId> {
    ts.states().iter().map(|s| s.var).collect()
}

fn push_pred(preds: &mut Vec<ExprId>, p: ExprId) {
    if !preds.contains(&p) {
        preds.push(p);
    }
}

impl PredAbs {
    /// Cartesian abstract reachability. The cartesian post is a
    /// function, so the abstract reachable set is a chain that either
    /// closes (lasso: proof) or reaches an abstract state intersecting
    /// bad (candidate path).
    fn abstract_reach(
        &self,
        ts: &TransitionSystem,
        preds: &[ExprId],
        started: Instant,
        stats: &mut EngineStats,
    ) -> ReachResult {
        // Abstract initial state: evaluate predicates on the constant
        // initial assignment; nondeterministic parts become Unknown.
        let mut init_env: HashMap<VarId, Value> = HashMap::new();
        let mut nondet: std::collections::HashSet<VarId> = std::collections::HashSet::new();
        for s in ts.states() {
            match s.init {
                Some(init) => {
                    let env: HashMap<VarId, Value> = HashMap::new();
                    init_env.insert(s.var, rtlir::eval(ts.pool(), init, &env));
                }
                None => {
                    nondet.insert(s.var);
                }
            }
        }
        let a0: AbsState = preds
            .iter()
            .map(|&p| {
                if vars_of(ts.pool(), p).iter().any(|v| nondet.contains(v)) {
                    None
                } else {
                    Some(rtlir::eval(ts.pool(), p, &init_env).as_bool())
                }
            })
            .collect();

        let mut path = vec![a0.clone()];
        let mut visited: Vec<AbsState> = vec![a0];
        loop {
            if let Some(u) = self.budget.interruption(started) {
                return ReachResult::Stopped(u);
            }
            let cur = path.last().expect("nonempty").clone();
            // Bad intersection and post, via one incremental solver.
            let mut u = Unroller::new(ts, InitMode::Free);
            let mut premises = vec![u.constraint(0)];
            let mut pred_next = Vec::with_capacity(preds.len());
            for (&p, v) in preds.iter().zip(&cur) {
                if let Some(why) = self.budget.interruption(started) {
                    return ReachResult::Stopped(why);
                }
                if let Some(v) = v {
                    let p0 = u.translate(0, p);
                    premises.push(if *v { p0 } else { u.pool_mut().not(p0) });
                }
                pred_next.push(u.translate(1, p));
            }
            let bad0 = u.bad(0);

            let mut blaster = aig::Blaster::new(u.pool());
            let premise_bits: Vec<aig::AigLit> =
                premises.iter().map(|&r| blaster.blast_bit(r)).collect();
            let bad_bit = blaster.blast_bit(bad0);
            let pn_bits: Vec<aig::AigLit> =
                pred_next.iter().map(|&r| blaster.blast_bit(r)).collect();
            let mut solver = Solver::new();
            let mut enc = aig::FrameEncoder::new();
            for &b in &premise_bits {
                let l = enc.encode(blaster.aig(), &mut solver, b, Part::A);
                solver.add_clause(&[l]);
            }
            let bad_lit = enc.encode(blaster.aig(), &mut solver, bad_bit, Part::A);
            let limits = self.budget.sat_limits(started);
            stats.sat_queries += 1;
            match solver.solve_limited(&[bad_lit], limits.clone()) {
                SolveResult::Sat => return ReachResult::Path(path),
                SolveResult::Unknown(why) => return ReachResult::Stopped(why.into()),
                SolveResult::Unsat => {}
            }
            // Successor via two queries per predicate.
            let mut succ: AbsState = Vec::with_capacity(preds.len());
            for &pb in &pn_bits {
                if let Some(why) = self.budget.interruption(started) {
                    return ReachResult::Stopped(why);
                }
                let pl = enc.encode(blaster.aig(), &mut solver, pb, Part::A);
                stats.sat_queries += 2;
                let can_true = solver.solve_limited(&[pl], limits.clone());
                let can_false = solver.solve_limited(&[!pl], limits.clone());
                let v = match (can_true, can_false) {
                    (SolveResult::Sat, SolveResult::Unsat) => Some(true),
                    (SolveResult::Unsat, SolveResult::Sat) => Some(false),
                    (SolveResult::Unknown(why), _) | (_, SolveResult::Unknown(why)) => {
                        return ReachResult::Stopped(why.into())
                    }
                    (SolveResult::Unsat, SolveResult::Unsat) => {
                        // No successor at all (dead abstract state).
                        return ReachResult::Proof;
                    }
                    _ => None,
                };
                succ.push(v);
            }
            if visited.contains(&succ) {
                return ReachResult::Proof;
            }
            visited.push(succ.clone());
            path.push(succ);
            if path.len() > 4096 {
                return ReachResult::Stopped(Unknown::BoundReached);
            }
        }
    }
}

/// WP refinement: add atoms of the one-step weakest preconditions of
/// the current predicates and of the bad conditions.
fn refine_wp(
    ts: &mut TransitionSystem,
    preds: &mut Vec<ExprId>,
    is_state: &std::collections::HashSet<VarId>,
    cap: usize,
) {
    let sources: Vec<ExprId> = preds
        .iter()
        .copied()
        .chain(ts.bads().iter().map(|b| b.expr))
        .collect();
    for src in sources {
        if preds.len() >= cap {
            return;
        }
        let wp = substitute_next(ts, src);
        for a in collect_atoms(ts.pool(), wp, &|v| is_state.contains(&v)) {
            if preds.len() >= cap {
                return;
            }
            push_pred(preds, a);
        }
    }
}

/// Search-control inputs for one interpolant refinement attempt (the
/// spurious path plus the resource envelope it may spend).
struct ItpRefine<'a> {
    /// The infeasible abstract path being refuted.
    path: &'a [AbsState],
    /// Engine start time for budget accounting.
    started: Instant,
    budget: Budget,
    /// Predicate-count ceiling.
    cap: usize,
}

/// Interpolant refinement: compute a bit-level Craig interpolant for
/// the infeasible abstract path at a middle cut and fold it back into
/// a word-level predicate over individual state bits.
///
/// Returns why it stopped when the budget ran out or a query gave up
/// before any cut yielded a predicate; `Ok` whether or not it found one.
fn refine_itp(
    ts: &mut TransitionSystem,
    preds: &mut Vec<ExprId>,
    stats: &mut EngineStats,
    r: &ItpRefine<'_>,
) -> Result<(), Unknown> {
    let ItpRefine {
        path,
        started,
        ref budget,
        cap,
    } = *r;
    let n = path.len() - 1;
    if preds.len() >= cap || n == 0 {
        return Ok(());
    }
    // Blast and compile the system once; every cut unrolls the template.
    let sys = aig::blast_system(ts);
    let tpl = aig::TransitionTemplate::compile(&sys);

    // Try every cut until one yields a new predicate.
    for cut in (1..=n).rev() {
        if let Some(why) = budget.interruption(started) {
            return Err(why);
        }
        // Frames before the cut in A, the rest and the bad at frame n
        // in B: frame `cut`'s latch variables are the shared interface.
        let mut solver = Solver::with_proof();
        let (latches, frames) = interface_unrolling(&sys, &tpl, &mut solver, n + 1, |f| {
            (if f < cut { Part::A } else { Part::B }, 0)
        });
        solver.add_clause_in(&[frames[n].any_bad], Part::B);
        stats.sat_queries += 1;
        match solver.solve_limited(&[], budget.sat_limits(started)) {
            SolveResult::Unsat => {
                if let Some(itp) = solver.interpolant() {
                    // Map shared SAT variables back to (state, bit).
                    let mut bit_expr: HashMap<satb::Var, ExprId> = HashMap::new();
                    let mut li = 0usize;
                    let state_vars: Vec<VarId> = ts.states().iter().map(|s| s.var).collect();
                    for var in state_vars {
                        let var_e = ts.pool_mut().var(var);
                        match ts.pool().var_sort(var) {
                            Sort::Bv(w) => {
                                for b in 0..w {
                                    let e = ts.pool_mut().extract(var_e, b, b);
                                    bit_expr.insert(latches[cut][li].var(), e);
                                    li += 1;
                                }
                            }
                            Sort::Array {
                                index_width,
                                elem_width,
                            } => {
                                for idx in 0..(1u64 << index_width) {
                                    let ie = ts.pool_mut().constv(index_width, idx);
                                    let re = ts.pool_mut().read(var_e, ie);
                                    for b in 0..elem_width {
                                        let e = ts.pool_mut().extract(re, b, b);
                                        bit_expr.insert(latches[cut][li].var(), e);
                                        li += 1;
                                    }
                                }
                            }
                        }
                    }
                    let pe = itp_to_word(ts, &itp, &bit_expr);
                    if ts.pool().const_bits(pe).is_none() && !preds.contains(&pe) {
                        preds.push(pe);
                        return Ok(());
                    }
                }
            }
            // The raw path (without abstract-state constraints) is
            // feasible at this depth, so interpolants do not exist; the
            // caller's next concretization will find the bug.
            SolveResult::Sat => return Ok(()),
            SolveResult::Unknown(why) => return Err(why.into()),
        }
    }
    Ok(())
}

/// Rebuilds an interpolant as a word-level single-bit expression.
fn itp_to_word(
    ts: &mut TransitionSystem,
    itp: &satb::Interpolant,
    bit_expr: &HashMap<satb::Var, ExprId>,
) -> ExprId {
    use satb::interp::ItpNode;
    let mut out: Vec<ExprId> = Vec::with_capacity(itp.nodes().len());
    for n in itp.nodes() {
        let e = match *n {
            ItpNode::Const(c) => ts.pool_mut().bool_const(c),
            ItpNode::Lit(l) => {
                let base = *bit_expr.get(&l.var()).expect("shared var is a state bit");
                if l.is_positive() {
                    base
                } else {
                    ts.pool_mut().not(base)
                }
            }
            ItpNode::And(a, b) => {
                let (x, y) = (out[a as usize], out[b as usize]);
                ts.pool_mut().and(x, y)
            }
            ItpNode::Or(a, b) => {
                let (x, y) = (out[a as usize], out[b as usize]);
                ts.pool_mut().or(x, y)
            }
        };
        out.push(e);
    }
    out[itp.root()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gated_counter(limit: u64, bad_at: u64) -> SwProgram {
        let mut ts = TransitionSystem::new("gated");
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
    fn proves_safe_gated_counter_wp() {
        // c saturates at 10; bad at 200 unreachable.
        let out = PredAbs::default().check(&gated_counter(10, 200));
        assert_eq!(out.outcome, Verdict::Safe);
    }

    #[test]
    fn proves_safe_gated_counter_itp() {
        let out = PredAbs {
            refine: RefineMode::Interpolant,
            ..PredAbs::default()
        }
        .check(&gated_counter(10, 200));
        assert_eq!(out.outcome, Verdict::Safe);
    }

    #[test]
    fn a_full_predicate_set_reports_the_bound() {
        // c counts 0..=10 and wraps; bad at 20. The bad atom `c == 20`
        // alone admits the spurious step 19 -> 20, and with a cap of
        // one predicate nothing can refine it away.
        let mut ts = TransitionSystem::new("wrapping");
        let s = ts.add_state("c", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let ten = ts.pool_mut().constv(8, 10);
        let one = ts.pool_mut().constv(8, 1);
        let z = ts.pool_mut().constv(8, 0);
        let at_ten = ts.pool_mut().eq(sv, ten);
        let inc = ts.pool_mut().add(sv, one);
        let nx = ts.pool_mut().ite(at_ten, z, inc);
        ts.set_init(s, z);
        ts.set_next(s, nx);
        let twenty = ts.pool_mut().constv(8, 20);
        let bad = ts.pool_mut().eq(sv, twenty);
        ts.add_bad(bad, "twenty");
        let prog = SwProgram::from_ts(ts);
        for refine in [RefineMode::Wp, RefineMode::Interpolant] {
            let out = PredAbs {
                refine,
                max_predicates: 1,
                ..PredAbs::default()
            }
            .check(&prog);
            assert_eq!(
                out.outcome,
                Verdict::Unknown(Unknown::BoundReached),
                "{refine:?}"
            );
        }
    }

    #[test]
    fn refine_itp_reports_a_raised_stop_flag() {
        let mut ts = gated_counter(10, 200).ts;
        let mut preds = Vec::new();
        let path: Vec<AbsState> = vec![Vec::new(); 3];
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let itp = ItpRefine {
            path: &path,
            started: Instant::now(),
            budget: Budget::default().with_stop(stop),
            cap: 64,
        };
        let got = refine_itp(&mut ts, &mut preds, &mut EngineStats::default(), &itp);
        assert_eq!(got, Err(Unknown::Cancelled));
        assert!(preds.is_empty());
    }

    #[test]
    fn finds_real_bug_with_trace() {
        let prog = gated_counter(200, 9);
        let out = PredAbs::default().check(&prog);
        match out.outcome {
            Verdict::Unsafe(t) => {
                let sys = aig::blast_system(&prog.ts);
                assert!(t.replays_on(&sys), "trace must replay");
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }
}
