//! Word-level k-induction: one loop, three tools.
//!
//! Unlike the bit-level engine, the unrolling happens at the *word
//! level* using [`rtlir::Unroller`]: constants propagate through whole
//! words, ites collapse, and each bound's verification condition is
//! bit-blasted and solved from scratch. This mirrors how EBMC's
//! word-level engine behaves — cheaper formulas on data-path designs,
//! but no incremental solver reuse between bounds.
//!
//! The paper runs k-induction on the v2c program too, and this loop
//! serves it, since unwinding the software-netlist's top-level loop is
//! the same unrolling. The three tools differ only in what the step
//! case assumes:
//!
//! | paper tool | runs [`WordKInduction`] as                              |
//! |------------|---------------------------------------------------------|
//! | EBMC-kind  | [`check`](Checker::check), with simple paths            |
//! | CBMC-kind  | `swan::cbmc::CbmcKind`: without simple paths            |
//! | 2LS        | `swan::twols::TwoLs`: [`run`](WordKInduction::run) without simple paths, under its interval invariant in the kIkI configuration |
//!
//! The word query ([`solve_word`]) and the trace reader
//! ([`TraceExtractor`]) serve the other software analyzers too, which
//! solve word-level formulas of their own.

use crate::result::{Budget, CheckOutcome, Checker, EngineStats, Trace, Unknown, Verdict};
use aig::Blaster;
use rtlir::unroll::{InitMode, Unroller};
use rtlir::{ExprId, ExprPool, TransitionSystem};
use satb::{Part, SolveResult, Solver};
use std::time::Instant;

/// Word-level k-induction engine.
#[derive(Clone, Debug)]
pub struct WordKInduction {
    /// Resource limits.
    pub budget: Budget,
    /// Add pairwise state-distinctness (simple path) constraints.
    pub simple_path: bool,
}

impl Default for WordKInduction {
    fn default() -> WordKInduction {
        WordKInduction {
            budget: Budget::default(),
            simple_path: true,
        }
    }
}

impl WordKInduction {
    /// Creates an engine with the given budget.
    pub fn new(budget: Budget) -> WordKInduction {
        WordKInduction {
            budget,
            ..WordKInduction::default()
        }
    }

    /// Runs the base/step loop on `ts` for a run that started at
    /// `started` and has already counted `stats`, so a caller with a
    /// phase of its own keeps one deadline and one set of counters.
    ///
    /// `strengthening`, a single-bit expression over `ts`'s state
    /// variables, is assumed on every frame of the step case: it must
    /// hold on every reachable state. The base case never assumes it,
    /// so a wrong strengthening can lose a proof but never a bug.
    pub fn run(
        &self,
        ts: &TransitionSystem,
        strengthening: Option<ExprId>,
        started: Instant,
        mut stats: EngineStats,
    ) -> CheckOutcome {
        for k in 0..=self.budget.max_depth {
            if let Some(u) = self.budget.interruption(started) {
                return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
            }
            stats.depth = k;
            let k = k as usize;

            // Base case: initialized unrolling, no bad before k, bad
            // at k.
            let mut base = Unroller::new(ts, InitMode::Initialized);
            let roots = path_roots(&mut base, k, None);
            let extractor = TraceExtractor::prepare(&mut base, k);
            let q = solve_word(
                base.pool(),
                &roots,
                self.budget.sat_limits(started),
                &mut stats,
            );
            match q.result {
                SolveResult::Sat => {
                    let trace = extractor.extract(ts, &mut q.model.expect("sat model"));
                    return CheckOutcome::finish(Verdict::Unsafe(trace), stats, started);
                }
                SolveResult::Unknown(why) => {
                    return CheckOutcome::finish(Verdict::Unknown(why.into()), stats, started);
                }
                SolveResult::Unsat => {}
            }

            // A base-case solve that exhausted the budget must not run
            // the step solve before the next iteration notices.
            if let Some(u) = self.budget.interruption(started) {
                return CheckOutcome::finish(Verdict::Unknown(u), stats, started);
            }

            // Inductive step: free initial state, the strengthening on
            // every frame, no bad before k, bad at k, simple path.
            let mut step = Unroller::new(ts, InitMode::Free);
            let mut roots = path_roots(&mut step, k, strengthening);
            if self.simple_path {
                for i in 0..k {
                    for j in (i + 1)..=k {
                        roots.push(step.frames_distinct(i, j));
                    }
                }
            }
            match solve_word(
                step.pool(),
                &roots,
                self.budget.sat_limits(started),
                &mut stats,
            )
            .result
            {
                SolveResult::Unsat => {
                    return CheckOutcome::finish(Verdict::Safe, stats, started);
                }
                SolveResult::Unknown(why) => {
                    return CheckOutcome::finish(Verdict::Unknown(why.into()), stats, started);
                }
                SolveResult::Sat => {}
            }
        }
        CheckOutcome::finish(Verdict::Unknown(Unknown::BoundReached), stats, started)
    }
}

impl Checker for WordKInduction {
    fn name(&self) -> &'static str {
        "ebmc-kind"
    }

    fn check(&self, ts: &TransitionSystem) -> CheckOutcome {
        self.run(ts, None, Instant::now(), EngineStats::default())
    }
}

/// The roots of a length-`k` path ending in a bad state: per frame the
/// constraint, then `strengthening` if any, then ¬bad before frame `k`;
/// then bad at `k`.
fn path_roots(u: &mut Unroller<'_>, k: usize, strengthening: Option<ExprId>) -> Vec<ExprId> {
    let mut roots = Vec::new();
    for f in 0..=k {
        roots.push(u.constraint(f));
        if let Some(s) = strengthening {
            roots.push(u.translate(f as u32, s));
        }
        if f < k {
            let b = u.bad(f);
            roots.push(u.pool_mut().not(b));
        }
    }
    roots.push(u.bad(k));
    roots
}

/// Result of solving a conjunction of single-bit word-level roots.
pub struct WordQuery<'p> {
    /// The SAT result.
    pub result: SolveResult,
    /// Model access on SAT.
    pub model: Option<WordModel<'p>>,
}

/// A satisfying assignment over a formula pool: CI values plus the
/// blaster that maps word expressions to bits.
pub struct WordModel<'p> {
    blaster: Blaster<'p>,
    ci_vals: Vec<bool>,
}

impl WordModel<'_> {
    /// Evaluates any expression of the pool under the model.
    /// Expressions outside the solved cone may introduce fresh CIs
    /// (don't-cares), which read as zero.
    pub fn eval_word(&mut self, e: ExprId) -> u64 {
        let bits = self.blaster.blast(e).bits().to_vec();
        if self.ci_vals.len() < self.blaster.aig().num_cis() {
            self.ci_vals.resize(self.blaster.aig().num_cis(), false);
        }
        let mut out = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if self.blaster.aig().eval(b, &self.ci_vals) {
                out |= 1 << i;
            }
        }
        out
    }
}

/// Solves `⋀ roots` (all single-bit) over `pool` by bit-blasting, under
/// the given per-query limits (deadline, stop flag, fault injection).
/// Counts the query in `stats` and folds the solver's counters into it:
/// each query solves from scratch, so the solver dies with the query.
pub fn solve_word<'p>(
    pool: &'p ExprPool,
    roots: &[ExprId],
    limits: satb::Limits,
    stats: &mut EngineStats,
) -> WordQuery<'p> {
    let mut blaster = Blaster::new(pool);
    let bits: Vec<aig::AigLit> = roots.iter().map(|&r| blaster.blast_bit(r)).collect();
    let mut solver = Solver::new();
    let mut enc = aig::FrameEncoder::new();
    for &b in &bits {
        let l = enc.encode(blaster.aig(), &mut solver, b, Part::A);
        solver.add_clause(&[l]);
    }
    let result = solver.solve_limited(&[], limits);
    stats.sat_queries += 1;
    stats.absorb_solver(&solver.stats());
    let model = (result == SolveResult::Sat).then(|| {
        let ci_vals = blaster
            .aig()
            .ci_lits()
            .into_iter()
            .map(|al| {
                enc.mapped(al)
                    .and_then(|sl| solver.value(sl))
                    .unwrap_or(false)
            })
            .collect();
        WordModel { blaster, ci_vals }
    });
    WordQuery { result, model }
}

/// Reads a bit-level trace off a SAT word model of an unrolled formula:
/// states and inputs flattened in [`aig::AigSystem`] order (state-major,
/// LSB first; an array state one element per index).
pub struct TraceExtractor {
    /// Per frame, per state: expressions to evaluate.
    state_words: Vec<Vec<Vec<ExprId>>>,
    /// Per frame: input expressions.
    input_words: Vec<Vec<ExprId>>,
    /// Bad expressions at the final frame.
    bad_words: Vec<ExprId>,
}

impl TraceExtractor {
    /// Pre-materializes the expressions a trace of length `k` needs
    /// (must run before solving: model extraction borrows the pool).
    pub fn prepare(u: &mut Unroller<'_>, k: usize) -> TraceExtractor {
        let ts = u.ts();
        let state_sorts: Vec<rtlir::Sort> = ts
            .states()
            .iter()
            .map(|s| ts.pool().var_sort(s.var))
            .collect();
        let ninputs = ts.inputs().len();
        let nbads = ts.bads().len();
        let mut state_words = Vec::new();
        let mut input_words = Vec::new();
        for f in 0..=k {
            let mut per_state = Vec::new();
            for (si, sort) in state_sorts.iter().enumerate() {
                let e = u.state(f, si);
                let words = match *sort {
                    rtlir::Sort::Bv(_) => vec![e],
                    rtlir::Sort::Array { index_width, .. } => (0..(1u64 << index_width))
                        .map(|idx| {
                            let ie = u.pool_mut().constv(index_width, idx);
                            u.pool_mut().read(e, ie)
                        })
                        .collect(),
                };
                per_state.push(words);
            }
            state_words.push(per_state);
            input_words.push((0..ninputs).map(|ii| u.input(f, ii)).collect());
        }
        let bad_words = (0..nbads).map(|bi| u.bad_at(k, bi)).collect();
        TraceExtractor {
            state_words,
            input_words,
            bad_words,
        }
    }

    /// Builds the trace from a model.
    pub fn extract(&self, ts: &TransitionSystem, model: &mut WordModel<'_>) -> Trace {
        let mut states = Vec::new();
        let mut inputs = Vec::new();
        for (state_words, input_words) in self.state_words.iter().zip(&self.input_words) {
            let mut st = Vec::new();
            for (s, words) in ts.states().iter().zip(state_words) {
                let width = match ts.pool().var_sort(s.var) {
                    rtlir::Sort::Bv(w) => w,
                    rtlir::Sort::Array { elem_width, .. } => elem_width,
                };
                for &e in words {
                    let v = model.eval_word(e);
                    st.extend((0..width).map(|b| (v >> b) & 1 == 1));
                }
            }
            states.push(st);
            let mut inp = Vec::new();
            for (&ivar, &e) in ts.inputs().iter().zip(input_words) {
                let v = model.eval_word(e);
                inp.extend((0..ts.pool().var_sort(ivar).width()).map(|b| (v >> b) & 1 == 1));
            }
            inputs.push(inp);
        }
        let bad_index = self
            .bad_words
            .iter()
            .position(|&e| model.eval_word(e) == 1)
            .unwrap_or(0);
        Trace {
            states,
            inputs,
            bad_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::Sort;

    #[test]
    fn finds_counter_bug_at_word_level() {
        for depth in [0u64, 3, 12] {
            let ts = crate::bmc::tests::counter_ts(depth, 8);
            let out = WordKInduction::default().check(&ts);
            match out.outcome {
                Verdict::Unsafe(trace) => {
                    assert_eq!(trace.length() as u64, depth);
                    let sys = aig::blast_system(&ts);
                    assert!(
                        trace.replays_on(&sys),
                        "word-level trace replays on bit-level model"
                    );
                }
                other => panic!("expected Unsafe at {depth}, got {other:?}"),
            }
        }
    }

    /// The strengthening is assumed on step frames only: `count != 0`
    /// is false in the reset state, yet the bug at cycle 3 is found.
    #[test]
    fn strengthening_stays_out_of_the_base_case() {
        let mut ts = crate::bmc::tests::counter_ts(3, 8);
        let count = ts.states()[0].var;
        let sv = ts.pool_mut().var(count);
        let zero = ts.pool_mut().constv(8, 0);
        let is_zero = ts.pool_mut().eq(sv, zero);
        let nonzero = ts.pool_mut().not(is_zero);
        let out = WordKInduction::default().run(
            &ts,
            Some(nonzero),
            Instant::now(),
            EngineStats::default(),
        );
        match out.outcome {
            Verdict::Unsafe(trace) => {
                assert_eq!(trace.length(), 3);
                assert!(trace.replays_on(&aig::blast_system(&ts)));
            }
            other => panic!("expected Unsafe at 3, got {other:?}"),
        }
    }

    #[test]
    fn solve_word_sat_and_model() {
        let ts = crate::bmc::tests::counter_ts(5, 8);
        let mut u = Unroller::new(&ts, InitMode::Free);
        let b0 = u.bad(0);
        let s0 = u.state(0, 0);
        let mut stats = EngineStats::default();
        let q = solve_word(u.pool(), &[b0], satb::Limits::default(), &mut stats);
        assert_eq!(q.result, SolveResult::Sat);
        assert_eq!(stats.sat_queries, 1);
        let mut m = q.model.expect("model");
        assert_eq!(m.eval_word(s0), 5, "state must be the bad value");
    }

    #[test]
    fn proves_saturating_counter() {
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
        let out = WordKInduction::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
        assert!(out.stats.depth <= 2);
    }

    #[test]
    fn agrees_with_bit_level_kind() {
        use crate::kind::KInduction;
        // Input-gated saturating counter.
        let mut ts = TransitionSystem::new("gated");
        let en = ts.add_input("en", Sort::BOOL);
        let s = ts.add_state("c", Sort::Bv(6));
        let (env_, sv) = {
            let p = ts.pool_mut();
            (p.var(en), p.var(s))
        };
        let lim = ts.pool_mut().constv(6, 30);
        let one = ts.pool_mut().constv(6, 1);
        let zero = ts.pool_mut().constv(6, 0);
        let lt = ts.pool_mut().ult(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let can = ts.pool_mut().and(env_, lt);
        let next = ts.pool_mut().ite(can, inc, sv);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let bad = ts.pool_mut().ugt(sv, lim);
        ts.add_bad(bad, "c > 30");

        let word = WordKInduction::default().check(&ts);
        let bit = KInduction::default().check(&ts);
        assert_eq!(word.outcome, Verdict::Safe);
        assert_eq!(bit.outcome, Verdict::Safe);
        // Section III-C of the paper: same k on both representations.
        assert_eq!(word.stats.depth, bit.stats.depth, "same inductive k");
    }
}
