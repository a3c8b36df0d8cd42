//! Independent re-checking of verdict witnesses.
//!
//! A verdict you can re-check is worth more than a verdict you must
//! trust: this module turns every definite engine answer into a
//! *certifying* one (cf. McConnell et al., "Certifying Algorithms",
//! and rIC3's frame-wise invariant re-check). The checker is
//! deliberately decoupled from the engines — it recompiles the **raw,
//! un-preprocessed** transition template with
//! [`aig::TransitionTemplate::compile`] and discharges every
//! obligation in a **fresh, independent** [`satb::Solver`], so a bug
//! in an engine's incremental solver reuse, activation-literal
//! bookkeeping, or the SatELite preprocessing cannot silently
//! propagate into a certified answer.
//!
//! # Certificate format
//!
//! A Safe answer carries a [`Certificate`] in
//! [`CheckOutcome::certificate`](crate::CheckOutcome::certificate):
//!
//! * [`Certificate::Clausal`] — an inductive invariant as a
//!   conjunction of clauses over latch variables, each clause a
//!   disjunction of `(latch index, polarity)` literals. PDR exports
//!   the clauses of its fixpoint frame `F_i = F_{i+1}` (all cubes
//!   stored at levels `>= i`, negated).
//! * [`Certificate::Formula`] — an inductive invariant as an AIG
//!   formula: a private [`aig::Aig`] (node ids aligned with the
//!   checked system, so latch-output CIs address the state bits) plus
//!   the root literal. The interpolation engine exports its fixpoint
//!   `r_acc = init ∨ itp_1 ∨ … ∨ itp_n`.
//! * [`Certificate::KInductive`] — the strengthening is *temporal*
//!   rather than a state predicate: the property is `k`-inductive
//!   (optionally under simple-path constraints). The checker re-runs
//!   the full base and step obligations from scratch.
//!
//! An Unsafe answer needs no separate certificate: the
//! [`Trace`](crate::Trace) inside the verdict **is** the witness, and
//! [`certify`] re-simulates it on the bit-level netlist via the
//! `aig` evaluator ([`Trace::replays_on`](crate::Trace::replays_on)).
//!
//! # Check obligations
//!
//! For an invariant certificate `Inv` the checker discharges, clause
//! at a time, the three standard obligations against the raw template
//! (constraints are asserted in every instantiated frame, so the
//! constrained-transition semantics of the engines carries over):
//!
//! 1. **Initiation** — `Init ⇒ Inv`: for every clause `c`,
//!    `Init ∧ ¬c` is UNSAT. Checked on a solver *without* the other
//!    clauses asserted, so one bad clause cannot be masked by the
//!    rest of the invariant.
//! 2. **Consecution** — `Inv ∧ T ⇒ Inv′`: with all clauses asserted
//!    on the current-state side of one raw frame, for every clause
//!    `c`, `Inv ∧ T ∧ ¬c′` is UNSAT.
//! 3. **Safety** — `Inv ⇒ ¬Bad`: `Inv ∧ T ∧ any_bad` is UNSAT (the
//!    frame's bad outputs are evaluated under the same constraint
//!    semantics the engines used).
//!
//! For [`Certificate::KInductive`] with bound `k` the obligations
//! are: no counterexample of length `0..=k` from the initial states
//! (base, one incremental chain), and no path of `k+1` free states
//! with the first `k` good, the last bad — pairwise distinct on the
//! latches of the cone of influence ([`AigSystem::latch_coi`]) when
//! `simple_path` is set (step). Soundness is the standard
//! shortest-counterexample argument: a minimal-length initialized
//! path to a bad state has internally-good states that are pairwise
//! distinct on the cone (bads and constraints read no other latch, so
//! a repeat on the cone could be cut out of the path), and its
//! length-`k` suffix would satisfy the step premise. When the
//! engine ran under a static strengthening invariant (see
//! [`certify_invariant`]), the certificate carries those clauses: the
//! checker first discharges their initiation and consecution against
//! the raw template, then asserts them on every base and step frame —
//! sound because every state of a shortest counterexample is
//! reachable, and certified-inductive clauses hold in every reachable
//! state.
//!
//! A passing check proves the *answer*, not the engine: whatever
//! formula the obligations were discharged for is a genuine inductive
//! strengthening, so `Safe` is true even if the certificate was
//! produced by a buggy (or adversarial) engine. A failing check never
//! proves the answer wrong — it only withdraws the evidence, which is
//! why the portfolio demotes a failed certificate to
//! [`Unknown::CertificateFailed`](crate::Unknown::CertificateFailed)
//! instead of flipping the verdict.
//!
//! # Paranoid mode
//!
//! The obligations above still trust the *checker's own* solver to
//! answer UNSAT correctly. [`certify_with_mode`] with `paranoid =
//! true` removes that last trust step: every obligation solver runs
//! with resolution-proof logging, and after its obligations are
//! discharged the recorded proof is replayed from scratch by the
//! independent static analyzer in [`satb::proofcheck`] (antecedent
//! existence, pivot polarity, learnt-clause cross-check against the
//! live clause database). A refutation that fails the replay fails
//! the certificate — [`CertifyReport::proof_chains`] counts the
//! machine-checked chains backing a paranoid pass.

use crate::result::{CheckOutcome, Verdict};
use aig::{Aig, AigLit, AigSystem, FrameEncoder, TransitionTemplate};
use satb::{Lit, Part, SolveResult, Solver};
use std::fmt;
use std::time::{Duration, Instant};

/// A clause over latch variables: each literal is `(latch index,
/// polarity)`, true when the latch holds `polarity`.
pub type LatchClause = Vec<(usize, bool)>;

/// An inductive invariant in clausal form (PDR's fixpoint frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClausalInvariant {
    /// The invariant is the conjunction of these clauses (an empty
    /// list is the invariant `true`, claiming no state is bad).
    pub clauses: Vec<LatchClause>,
}

/// An inductive invariant as an AIG formula (interpolation's fixpoint).
#[derive(Clone, Debug)]
pub struct FormulaInvariant {
    /// Private combinational logic; latch-output CI literals of the
    /// certified system are valid in it (node ids are preserved by
    /// the engine's scratch clone).
    pub aig: Aig,
    /// Root literal: the invariant predicate over the latch CIs.
    pub root: AigLit,
}

/// A Safe-verdict witness, re-checkable by [`certify`]. See the
/// [module docs](self) for the format and the obligations.
#[derive(Clone, Debug)]
pub enum Certificate {
    /// Clauses over latch variables whose conjunction is a 1-step
    /// inductive invariant.
    Clausal(ClausalInvariant),
    /// An AIG-formula 1-step inductive invariant.
    Formula(FormulaInvariant),
    /// The property is `k`-inductive (under simple-path constraints
    /// when `simple_path` is set, and under the carried strengthening
    /// invariant when `invariant` is non-empty).
    KInductive {
        /// The induction depth the engine proved at.
        k: u32,
        /// Whether the step obligation may assume states pairwise
        /// distinct on the cone of influence (required for completeness
        /// on lasso-shaped designs).
        simple_path: bool,
        /// Static strengthening clauses the engine assumed on every
        /// frame. The checker re-certifies them (initiation +
        /// consecution) before admitting them into the obligations.
        invariant: Vec<LatchClause>,
    },
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certificate::Clausal(inv) => {
                write!(f, "inductive invariant ({} clauses)", inv.clauses.len())
            }
            Certificate::Formula(_) => write!(f, "inductive invariant (formula)"),
            Certificate::KInductive {
                k,
                simple_path,
                invariant,
            } => {
                write!(
                    f,
                    "{k}-inductive{}",
                    if *simple_path { " (simple-path)" } else { "" }
                )?;
                if !invariant.is_empty() {
                    write!(f, " + {} strengthening clauses", invariant.len())?;
                }
                Ok(())
            }
        }
    }
}

/// Result of one [`certify`] run.
#[derive(Clone, Debug)]
pub struct CertifyReport {
    /// Whether the outcome survived: its witness checked, or it had
    /// none to check (Unknown verdicts, witness-less Safe answers).
    pub ok: bool,
    /// Whether there was a witness to check (`false` for Unknown
    /// verdicts and Safe answers from engines that cannot produce
    /// one — those are *accepted*, but not *certified*).
    pub witnessed: bool,
    /// Number of obligations discharged (clause checks, base/step
    /// solves, or 1 for a trace replay).
    pub obligations: usize,
    /// Why the check failed, when it did.
    pub failure: Option<String>,
    /// Resolution chains replayed by the independent proof checker
    /// (non-zero only under [`certify_with_mode`]'s paranoid mode).
    pub proof_chains: u64,
    /// Wall-clock time spent checking.
    pub time: Duration,
}

impl CertifyReport {
    fn passed(witnessed: bool, obligations: usize, started: Instant) -> CertifyReport {
        CertifyReport {
            ok: true,
            witnessed,
            obligations,
            failure: None,
            proof_chains: 0,
            time: started.elapsed(),
        }
    }

    fn failed(obligations: usize, why: String, started: Instant) -> CertifyReport {
        CertifyReport {
            ok: false,
            witnessed: true,
            obligations,
            failure: Some(why),
            proof_chains: 0,
            time: started.elapsed(),
        }
    }
}

/// Re-checks an outcome's witness against `sys`, recompiling the raw
/// transition template. See the [module docs](self) for what is
/// checked per verdict kind.
pub fn certify(sys: &AigSystem, outcome: &CheckOutcome) -> CertifyReport {
    let tpl = TransitionTemplate::compile(sys);
    certify_with(sys, &tpl, outcome)
}

/// Like [`certify`], but reusing an already-compiled **raw** template
/// (callers certifying several outcomes against the same design, e.g.
/// the portfolio). Passing a preprocessed template would defeat the
/// independence of the check — always hand in
/// [`aig::TransitionTemplate::compile`] output.
pub fn certify_with(
    sys: &AigSystem,
    raw_tpl: &TransitionTemplate,
    outcome: &CheckOutcome,
) -> CertifyReport {
    certify_with_mode(sys, raw_tpl, outcome, false)
}

/// Like [`certify_with`], with an explicit trust level. With `paranoid
/// = false` this is exactly [`certify_with`]. With `paranoid = true`
/// every obligation solver logs a resolution proof, and after its
/// obligations are discharged the proof is replayed from scratch by
/// [`satb::proofcheck`]; a rejected replay fails the certificate. See
/// the [module docs](self#paranoid-mode).
pub fn certify_with_mode(
    sys: &AigSystem,
    raw_tpl: &TransitionTemplate,
    outcome: &CheckOutcome,
    paranoid: bool,
) -> CertifyReport {
    let started = Instant::now();
    let mut par = Paranoia::new(paranoid);
    let mut rep = match &outcome.outcome {
        Verdict::Unknown(_) => CertifyReport::passed(false, 0, started),
        Verdict::Unsafe(trace) => {
            if trace.replays_on(sys) {
                CertifyReport::passed(true, 1, started)
            } else {
                CertifyReport::failed(1, "trace does not replay to a fired bad".into(), started)
            }
        }
        Verdict::Safe => match &outcome.certificate {
            None => CertifyReport::passed(false, 0, started),
            Some(Certificate::Clausal(inv)) => match check_clausal(sys, raw_tpl, inv, &mut par) {
                Ok(n) => CertifyReport::passed(true, n, started),
                Err((n, why)) => CertifyReport::failed(n, why, started),
            },
            Some(Certificate::Formula(inv)) => match check_formula(sys, raw_tpl, inv, &mut par) {
                Ok(n) => CertifyReport::passed(true, n, started),
                Err((n, why)) => CertifyReport::failed(n, why, started),
            },
            Some(Certificate::KInductive {
                k,
                simple_path,
                invariant,
            }) => match check_kinductive(sys, raw_tpl, *k, *simple_path, invariant, &mut par) {
                Ok(n) => CertifyReport::passed(true, n, started),
                Err((n, why)) => CertifyReport::failed(n, why, started),
            },
        },
    };
    rep.proof_chains = par.chains;
    rep
}

/// Certifies a mined strengthening invariant (e.g. the output of
/// [`aig::analyze`]) against the **raw** template: initiation and
/// consecution for every clause, with an independent solver. There is
/// deliberately **no safety obligation** — a strengthening invariant
/// constrains the reachable states but makes no claim about the bad
/// outputs; that is exactly what lets every engine assert it on any
/// frame whose states are known reachable (or explicitly constrained
/// to the invariant) without changing the verdict.
pub fn certify_invariant(
    sys: &AigSystem,
    raw_tpl: &TransitionTemplate,
    clauses: &[LatchClause],
) -> CertifyReport {
    certify_invariant_with_mode(sys, raw_tpl, clauses, false)
}

/// Like [`certify_invariant`], with an explicit trust level (see
/// [`certify_with_mode`] for what `paranoid` adds).
pub fn certify_invariant_with_mode(
    sys: &AigSystem,
    raw_tpl: &TransitionTemplate,
    clauses: &[LatchClause],
    paranoid: bool,
) -> CertifyReport {
    let started = Instant::now();
    let mut par = Paranoia::new(paranoid);
    let mut rep = match check_invariant_clauses(sys, raw_tpl, clauses, &mut par) {
        Ok(n) => CertifyReport::passed(!clauses.is_empty(), n, started),
        Err((n, why)) => CertifyReport::failed(n, why, started),
    };
    rep.proof_chains = par.chains;
    rep
}

/// Paranoid-mode state threaded through the obligation checkers: when
/// `on`, every obligation solver logs a resolution proof and is
/// audited by [`satb::proofcheck`] before retirement.
struct Paranoia {
    on: bool,
    chains: u64,
}

impl Paranoia {
    fn new(on: bool) -> Paranoia {
        Paranoia { on, chains: 0 }
    }

    /// A fresh obligation solver, proof-logging when paranoid.
    fn solver(&self) -> Solver {
        if self.on {
            Solver::with_proof()
        } else {
            Solver::new()
        }
    }

    /// Replays the solver's recorded proof with the independent
    /// checker; rejects the certificate when the replay finds a bad
    /// chain or a live clause that does not match its derivation.
    fn audit(&mut self, s: &Solver) -> Result<(), String> {
        if let Some(rep) = s.check_proof() {
            self.chains += rep.chains_checked;
            if !rep.ok() {
                return Err(format!(
                    "paranoid proof replay rejected: {}",
                    rep.first_failure().unwrap_or_else(|| "unknown".into())
                ));
            }
        }
        Ok(())
    }
}

/// Maps a latch-variable clause onto frame literals (shared with the
/// engines, which assert strengthening clauses on every frame).
pub(crate) fn clause_on(clause: &LatchClause, latch_lits: &[Lit]) -> Vec<Lit> {
    clause
        .iter()
        .map(|&(i, v)| if v { latch_lits[i] } else { !latch_lits[i] })
        .collect()
}

/// The negation of a latch-variable clause as assumptions (one
/// negated literal each) over frame literals.
fn negated_clause_on(clause: &LatchClause, latch_lits: &[Lit]) -> Vec<Lit> {
    clause
        .iter()
        .map(|&(i, v)| if v { !latch_lits[i] } else { latch_lits[i] })
        .collect()
}

type CheckResult = Result<usize, (usize, String)>;

fn check_clausal(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    inv: &ClausalInvariant,
    par: &mut Paranoia,
) -> CheckResult {
    let n = sys.latches.len();
    let mut done = 0usize;
    for (ci, clause) in inv.clauses.iter().enumerate() {
        if let Some(&(i, _)) = clause.iter().find(|&&(i, _)| i >= n) {
            return Err((done, format!("clause #{ci} names latch {i} of {n}")));
        }
    }

    // Initiation, on a solver holding nothing but the reset values:
    // each clause must be checked without the others, or a clause the
    // initial states escape could hide behind one they satisfy.
    let mut init = par.solver();
    let vars: Vec<Lit> = (0..n).map(|_| Lit::pos(init.new_var())).collect();
    for (latch, &l) in sys.latches.iter().zip(&vars) {
        if let Some(iv) = latch.init {
            init.add_clause(&[if iv { l } else { !l }]);
        }
    }
    for (ci, clause) in inv.clauses.iter().enumerate() {
        match init.solve_with(&negated_clause_on(clause, &vars)) {
            SolveResult::Unsat => done += 1,
            _ => return Err((done, format!("initiation fails: init ⊄ clause #{ci}"))),
        }
    }
    par.audit(&init).map_err(|why| (done, why))?;

    // Consecution and safety share one raw frame with the whole
    // invariant asserted on the current-state side.
    let mut s = par.solver();
    let frame = tpl.instantiate(&mut s, Part::A, 0);
    for clause in &inv.clauses {
        s.add_clause(&clause_on(clause, &frame.latch_cur));
    }
    for (ci, clause) in inv.clauses.iter().enumerate() {
        match s.solve_with(&negated_clause_on(clause, &frame.latch_next)) {
            SolveResult::Unsat => done += 1,
            _ => return Err((done, format!("consecution fails: Inv ∧ T ⇏ clause #{ci}′"))),
        }
    }
    match s.solve_with(&[frame.any_bad]) {
        SolveResult::Unsat => done += 1,
        _ => return Err((done, "safety fails: Inv admits a bad state".into())),
    }
    par.audit(&s).map_err(|why| (done, why))?;
    Ok(done)
}

fn check_formula(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    inv: &FormulaInvariant,
    par: &mut Paranoia,
) -> CheckResult {
    let mut s = par.solver();
    let frame = tpl.instantiate(&mut s, Part::A, 0);
    // Two encoders over the certificate's private AIG: one maps the
    // latch-output CIs onto the frame's current-state literals, the
    // other onto its next-state literals, yielding Inv and Inv′ over
    // the same raw transition frame.
    let mut enc_cur = FrameEncoder::new();
    let mut enc_next = FrameEncoder::new();
    for (latch, (&c, &nx)) in sys
        .latches
        .iter()
        .zip(frame.latch_cur.iter().zip(&frame.latch_next))
    {
        enc_cur.bind(latch.output, c);
        enc_next.bind(latch.output, nx);
    }
    let inv_cur = enc_cur.encode(&inv.aig, &mut s, inv.root, Part::A);
    let inv_next = enc_next.encode(&inv.aig, &mut s, inv.root, Part::A);

    // Initiation: reset values as assumptions (not units — the same
    // solver must later check consecution from arbitrary Inv states).
    let mut assumptions: Vec<Lit> = Vec::new();
    for (latch, &l) in sys.latches.iter().zip(&frame.latch_cur) {
        if let Some(iv) = latch.init {
            assumptions.push(if iv { l } else { !l });
        }
    }
    assumptions.push(!inv_cur);
    let mut done = 0usize;
    match s.solve_with(&assumptions) {
        SolveResult::Unsat => done += 1,
        _ => return Err((done, "initiation fails: init ⊄ Inv".into())),
    }
    match s.solve_with(&[inv_cur, !inv_next]) {
        SolveResult::Unsat => done += 1,
        _ => return Err((done, "consecution fails: Inv ∧ T ⇏ Inv′".into())),
    }
    match s.solve_with(&[inv_cur, frame.any_bad]) {
        SolveResult::Unsat => done += 1,
        _ => return Err((done, "safety fails: Inv admits a bad state".into())),
    }
    par.audit(&s).map_err(|why| (done, why))?;
    Ok(done)
}

/// Initiation + consecution for a set of strengthening clauses (no
/// safety — see [`certify_invariant`]).
fn check_invariant_clauses(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    clauses: &[LatchClause],
    par: &mut Paranoia,
) -> CheckResult {
    let n = sys.latches.len();
    let mut done = 0usize;
    for (ci, clause) in clauses.iter().enumerate() {
        if let Some(&(i, _)) = clause.iter().find(|&&(i, _)| i >= n) {
            return Err((
                done,
                format!("invariant clause #{ci} names latch {i} of {n}"),
            ));
        }
        if clause.is_empty() {
            return Err((done, format!("invariant clause #{ci} is empty (false)")));
        }
    }

    // Initiation, each clause on its own (reset units only).
    let mut init = par.solver();
    let vars: Vec<Lit> = (0..n).map(|_| Lit::pos(init.new_var())).collect();
    for (latch, &l) in sys.latches.iter().zip(&vars) {
        if let Some(iv) = latch.init {
            init.add_clause(&[if iv { l } else { !l }]);
        }
    }
    for (ci, clause) in clauses.iter().enumerate() {
        match init.solve_with(&negated_clause_on(clause, &vars)) {
            SolveResult::Unsat => done += 1,
            _ => {
                return Err((
                    done,
                    format!("invariant initiation fails: init ⊄ clause #{ci}"),
                ))
            }
        }
    }
    par.audit(&init).map_err(|why| (done, why))?;

    // Consecution: the whole set asserted on the current-state side of
    // one raw frame, every clause refuted on the next-state side.
    let mut s = par.solver();
    let frame = tpl.instantiate(&mut s, Part::A, 0);
    for clause in clauses {
        s.add_clause(&clause_on(clause, &frame.latch_cur));
    }
    for (ci, clause) in clauses.iter().enumerate() {
        match s.solve_with(&negated_clause_on(clause, &frame.latch_next)) {
            SolveResult::Unsat => done += 1,
            _ => {
                return Err((
                    done,
                    format!("invariant consecution fails: Inv ∧ T ⇏ clause #{ci}′"),
                ))
            }
        }
    }
    par.audit(&s).map_err(|why| (done, why))?;
    Ok(done)
}

fn check_kinductive(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    k: u32,
    simple_path: bool,
    inv: &[LatchClause],
    par: &mut Paranoia,
) -> CheckResult {
    let k = k as usize;

    // The strengthening clauses must themselves be inductive before
    // they may constrain any frame below.
    let mut done = check_invariant_clauses(sys, tpl, inv, par)?;

    // Base: no counterexample of length 0..=k from the initial states.
    // The invariant holds in every reachable state (just certified),
    // so asserting it on initialized frames cannot hide a real bug.
    {
        let mut s = par.solver();
        let mut prev = tpl.instantiate(&mut s, Part::A, 0);
        prev.assert_init(sys, &mut s);
        for depth in 0..=k {
            if depth > 0 {
                prev =
                    tpl.instantiate_bound(&mut s, Part::A, depth as u32, &prev.latch_next.clone());
            }
            for clause in inv {
                s.add_clause(&clause_on(clause, &prev.latch_cur));
            }
            match s.solve_with(&[prev.any_bad]) {
                SolveResult::Unsat => {
                    s.add_clause(&[!prev.any_bad]);
                    done += 1;
                }
                _ => return Err((done, format!("base fails: bad reachable at depth {depth}"))),
            }
        }
        par.audit(&s).map_err(|why| (done, why))?;
    }

    // Step: no free path of k+1 states with the first k good and the
    // last bad (pairwise distinct when the engine relied on it, inside
    // the invariant when the engine assumed it — sound because every
    // state of a shortest counterexample's suffix is reachable).
    let mut s = par.solver();
    let mut frames = vec![tpl.instantiate(&mut s, Part::A, 0)];
    for j in 1..=k {
        let cur = frames[j - 1].latch_next.clone();
        frames.push(tpl.instantiate_bound(&mut s, Part::A, j as u32, &cur));
    }
    for f in &frames {
        for clause in inv {
            s.add_clause(&clause_on(clause, &f.latch_cur));
        }
    }
    for f in frames.iter().take(k) {
        s.add_clause(&[!f.any_bad]);
    }
    if simple_path {
        // Distinct over the cone of influence: bads and constraints read
        // no other latch, so a shortest counterexample is simple over it.
        let coi = sys.latch_coi();
        for i in 0..k {
            for j in (i + 1)..=k {
                // d_l → (state_i[l] ≠ state_j[l]); some d_l must hold.
                let mut differs: Vec<Lit> = Vec::with_capacity(sys.latches.len());
                let pairs = frames[i].latch_cur.iter().zip(&frames[j].latch_cur);
                for (_, (&a, &b)) in coi.iter().zip(pairs).filter(|&(&c, _)| c) {
                    let d = Lit::pos(s.new_var());
                    s.add_clause(&[!d, a, b]);
                    s.add_clause(&[!d, !a, !b]);
                    differs.push(d);
                }
                s.add_clause(&differs);
            }
        }
    }
    match s.solve_with(&[frames[k].any_bad]) {
        SolveResult::Unsat => done += 1,
        _ => {
            return Err((
                done,
                format!(
                    "step fails: property is not {k}-inductive{}",
                    if simple_path {
                        " under simple-path"
                    } else {
                        ""
                    }
                ),
            ))
        }
    }
    par.audit(&s).map_err(|why| (done, why))?;
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{Budget, Trace, Unknown};
    use crate::{Checker, EngineStats};
    use rtlir::{Sort, TransitionSystem};
    use std::time::Instant;

    /// A 4-bit counter saturating at 5; safe against `count > 5`.
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

    /// A 3-bit counter that overflows into the bad region: unsafe.
    fn overflowing_counter() -> TransitionSystem {
        let mut ts = TransitionSystem::new("overflow");
        let s = ts.add_state("count", Sort::Bv(3));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(3, 1);
        let next = ts.pool_mut().add(sv, one);
        let zero = ts.pool_mut().constv(3, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let lim = ts.pool_mut().constv(3, 6);
        let bad = ts.pool_mut().uge(sv, lim);
        ts.add_bad(bad, "too big");
        ts
    }

    fn outcome_with(
        sys: &aig::AigSystem,
        verdict: Verdict,
        cert: Option<Certificate>,
    ) -> CheckOutcome {
        let _ = sys;
        let mut out = CheckOutcome::finish(verdict, EngineStats::default(), Instant::now());
        out.certificate = cert;
        out
    }

    #[test]
    fn unknown_and_witnessless_safe_pass_unwitnessed() {
        let sys = aig::blast_system(&saturating_counter());
        let out = outcome_with(&sys, Verdict::Unknown(Unknown::Timeout), None);
        let rep = certify(&sys, &out);
        assert!(rep.ok && !rep.witnessed);
        let out = outcome_with(&sys, Verdict::Safe, None);
        let rep = certify(&sys, &out);
        assert!(rep.ok && !rep.witnessed && rep.obligations == 0);
    }

    #[test]
    fn engine_certificates_check_and_forgeries_fail() {
        let ts = saturating_counter();
        let sys = aig::blast_system(&ts);

        // Every certifying engine's Safe answer must check.
        let engines: Vec<Box<dyn Checker>> = vec![
            Box::new(crate::pdr::Pdr::new(Budget::default())),
            Box::new(crate::pdr_baseline::PerFramePdr::new(Budget::default())),
            Box::new(crate::itp::Interpolation::new(Budget::default())),
            Box::new(crate::kind::KInduction::new(Budget::default())),
        ];
        for e in &engines {
            let out = e.check(&ts);
            assert_eq!(out.outcome, Verdict::Safe, "{} not Safe", e.name());
            let cert = out
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("{} returned Safe without a certificate", e.name()));
            let rep = certify(&sys, &out);
            assert!(
                rep.ok && rep.witnessed,
                "{} certificate [{}] rejected: {:?}",
                e.name(),
                cert,
                rep.failure
            );
            assert!(rep.obligations >= 1);
        }

        // A forged clausal invariant that misses the bad region fails
        // safety; one the initial state escapes fails initiation.
        let tautology = ClausalInvariant { clauses: vec![] };
        let out = outcome_with(&sys, Verdict::Safe, Some(Certificate::Clausal(tautology)));
        let rep = certify(&sys, &out);
        assert!(!rep.ok, "invariant `true` must fail safety here");
        assert!(rep.failure.as_deref().unwrap_or("").contains("safety"));

        let excludes_init = ClausalInvariant {
            // Single clause `count[0] = 1`: initial state 0 escapes.
            clauses: vec![vec![(0, true)]],
        };
        let out = outcome_with(
            &sys,
            Verdict::Safe,
            Some(Certificate::Clausal(excludes_init)),
        );
        let rep = certify(&sys, &out);
        assert!(!rep.ok);
        assert!(rep.failure.as_deref().unwrap_or("").contains("initiation"));

        // A k-induction claim at a too-small k fails its step check.
        let out = outcome_with(
            &sys,
            Verdict::Safe,
            Some(Certificate::KInductive {
                k: 0,
                simple_path: false,
                invariant: vec![],
            }),
        );
        let rep = certify(&sys, &out);
        assert!(!rep.ok);
        assert!(rep.failure.as_deref().unwrap_or("").contains("step"));

        // A k-induction claim propped up by a *non-inductive* forged
        // strengthening must fail the invariant obligations, not be
        // silently assumed.
        let out = outcome_with(
            &sys,
            Verdict::Safe,
            Some(Certificate::KInductive {
                k: 0,
                simple_path: false,
                // `count[0] = 0` is not inductive: 0 steps to 1.
                invariant: vec![vec![(0, false)]],
            }),
        );
        let rep = certify(&sys, &out);
        assert!(!rep.ok);
        assert!(rep
            .failure
            .as_deref()
            .unwrap_or("")
            .contains("invariant consecution"));
    }

    /// Simple-path distinctness ranges over the cone of influence only,
    /// so latches outside it must never help a false claim through: a
    /// counter that hits its bug at cycle 6, beside an unobserved
    /// free-running counter, refutes every k-inductive claim — by the
    /// step below the bug's depth and by the base from it on.
    #[test]
    fn cone_distinctness_rejects_every_claim_on_a_buggy_design() {
        let mut ts = crate::bmc::tests::counter_ts(6, 8);
        let t = ts.add_state("unobserved", Sort::Bv(3));
        let p = ts.pool_mut();
        let tv = p.var(t);
        let one = p.constv(3, 1);
        let next = p.add(tv, one);
        ts.set_next(t, next);
        let sys = aig::blast_system(&ts);
        assert_eq!(sys.latch_coi().iter().filter(|&&c| !c).count(), 3);
        for k in 0..=8 {
            let cert = Certificate::KInductive {
                k,
                simple_path: true,
                invariant: vec![],
            };
            let rep = certify(&sys, &outcome_with(&sys, Verdict::Safe, Some(cert)));
            let why = rep.failure.unwrap_or_default();
            assert!(!rep.ok, "k = {k}: a false claim passed");
            let stage = if k < 6 { "step" } else { "base" };
            assert!(why.contains(stage), "k = {k}: {why}");
        }
    }

    #[test]
    fn invariant_certification_checks_initiation_and_consecution() {
        let ts = saturating_counter();
        let sys = aig::blast_system(&ts);
        let tpl = aig::TransitionTemplate::compile(&sys);

        // An empty invariant passes vacuously, unwitnessed.
        let rep = certify_invariant(&sys, &tpl, &[]);
        assert!(rep.ok && !rep.witnessed && rep.obligations == 0);

        // The mined invariant of the design itself must certify.
        let inv = aig::analyze(
            &sys,
            &tpl,
            &aig::AnalysisConfig::default(),
            &satb::Limits::default(),
        );
        let rep = certify_invariant(&sys, &tpl, &inv.clauses);
        assert!(rep.ok, "mined invariant rejected: {:?}", rep.failure);

        // Initiation forgery: the reset state (count = 0) escapes.
        let rep = certify_invariant(&sys, &tpl, &[vec![(0, true)]]);
        assert!(!rep.ok);
        assert!(rep.failure.as_deref().unwrap_or("").contains("initiation"));

        // Consecution forgery: bit 0 toggles while counting.
        let rep = certify_invariant(&sys, &tpl, &[vec![(0, false)]]);
        assert!(!rep.ok);
        assert!(rep.failure.as_deref().unwrap_or("").contains("consecution"));

        // Out-of-range and empty clauses are rejected up front.
        assert!(!certify_invariant(&sys, &tpl, &[vec![(99, true)]]).ok);
        assert!(!certify_invariant(&sys, &tpl, &[vec![]]).ok);
    }

    #[test]
    fn unsafe_traces_replay_and_garbage_is_rejected() {
        let ts = overflowing_counter();
        let sys = aig::blast_system(&ts);
        let out = crate::bmc::Bmc::new(Budget::default()).check(&ts);
        assert!(out.outcome.is_unsafe());
        let rep = certify(&sys, &out);
        assert!(rep.ok && rep.witnessed, "BMC trace must replay");

        // A non-witnessing trace is rejected.
        let bogus = Trace {
            states: vec![vec![false; sys.latches.len()]],
            inputs: vec![vec![]],
            bad_index: 0,
        };
        let out = outcome_with(&sys, Verdict::Unsafe(bogus), None);
        let rep = certify(&sys, &out);
        assert!(!rep.ok);
    }

    #[test]
    fn formula_invariant_checks_directly() {
        // Hand-built formula invariant for the saturating counter:
        // count <= 5, i.e. ¬(count ≥ 6) = ¬(bit3 ∨ (bit2 ∧ bit1)).
        let ts = saturating_counter();
        let sys = aig::blast_system(&ts);
        let mut g = sys.aig.clone();
        let b = |i: usize| sys.latches[i].output;
        let ge6 = g.and(b(2), b(1));
        let over = g.or(ge6, b(3));
        let inv = FormulaInvariant {
            aig: g,
            root: !over,
        };
        let out = outcome_with(&sys, Verdict::Safe, Some(Certificate::Formula(inv.clone())));
        let rep = certify(&sys, &out);
        assert!(rep.ok, "count<=5 is inductive: {:?}", rep.failure);

        // The complement predicate is no invariant at all.
        let broken = FormulaInvariant {
            aig: inv.aig.clone(),
            root: !inv.root,
        };
        let out = outcome_with(&sys, Verdict::Safe, Some(Certificate::Formula(broken)));
        assert!(!certify(&sys, &out).ok);
    }
}
