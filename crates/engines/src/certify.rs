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
//!   stored at levels `>= i`, negated), static strengthening included.
//! * [`Certificate::Formula`] — an AIG formula, inductive relative to
//!   the strengthening clauses it names: a private [`aig::Aig`] (node
//!   ids aligned with the checked system, so latch-output CIs address
//!   the state bits), the root literal, and the clauses. The
//!   interpolation engine exports its fixpoint `r_acc = init ∨ itp_1 ∨
//!   … ∨ itp_n` with the static invariant `Inv` it assumed on every
//!   frame; the invariant proper is `r_acc ∧ Inv`.
//! * [`Certificate::KInductive`] — the strengthening is *temporal*
//!   rather than a state predicate: the property is `k`-inductive
//!   (optionally under simple-path constraints, and under the
//!   strengthening clauses it names). The checker re-runs the full base
//!   and step obligations from scratch.
//!
//! An Unsafe answer needs no separate certificate: the
//! [`Trace`](crate::Trace) inside the verdict **is** the witness, and
//! [`certify`] re-simulates it on the bit-level netlist via the
//! `aig` evaluator ([`Trace::replays_on`](crate::Trace::replays_on)).
//!
//! # Check obligations
//!
//! For a clause set `Inv` (a clausal certificate, or the strengthening
//! a certificate names) the checker discharges the standard
//! obligations against the raw template, one query per clause
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
//! 3. **Safety** (clausal certificates only) — `Inv ⇒ ¬Bad`:
//!    `Inv ∧ T ∧ any_bad` is UNSAT (the frame's bad outputs are
//!    evaluated under the same constraint semantics the engines used).
//!    A strengthening makes no claim about the bad outputs.
//!
//! Initiation runs on its one cheap solver. Consecution is split across
//! worker solvers ([`aig::split`]): up to one per idle core, each with
//! at least 64 clauses, so a set below 128 fresh clauses runs on one
//! solver on the calling thread, and so does a check made while a
//! portfolio race's seats keep every core busy. A race admits its
//! strengthening before any seat claims a core, so that check splits
//! across every core (see [known clauses](#known-clauses)). Every
//! worker builds a fresh solver on the raw template, asserts the whole
//! set on one frame's current-state side, and checks the consecution of
//! its own contiguous chunk of clauses; the last worker also checks
//! safety. The split keeps the check independent: every obligation is
//! still discharged by a fresh solver against the raw template, and
//! none relies on another worker's answer. A failing check names the
//! lowest-numbered clause that fails, whatever the worker count, and a
//! passing check discharges the same obligations as a single solver.
//!
//! A formula certificate with root `r` and strengthening `Inv` first
//! has `Inv` admitted by 1–2, then discharges, on one raw frame with
//! `Inv` asserted on the current-state side, `Init ⇒ r`,
//! `Inv ∧ r ∧ T ⇒ r′` and `Inv ∧ r ⇒ ¬Bad`: `r ∧ Inv` is then an
//! inductive invariant, since `Inv′` follows from `Inv`'s own
//! consecution.
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
//! checker first admits them by 1–2, then asserts them on every base
//! and step frame — sound because every state of a shortest
//! counterexample is reachable, and certified-inductive clauses hold in
//! every reachable state.
//!
//! A passing check proves the *answer*, not the engine: whatever
//! formula the obligations were discharged for is a genuine inductive
//! strengthening, so `Safe` is true even if the certificate was
//! produced by a buggy (or adversarial) engine. A failing check never
//! proves the answer wrong — it only withdraws the evidence, which is
//! why the portfolio demotes a failed certificate to
//! [`Unknown::CertificateFailed`](crate::Unknown::CertificateFailed)
//! instead of flipping the verdict. A certificate that is malformed —
//! a clause naming a latch the design lacks, a formula root outside
//! its AIG — fails its check the same way.
//!
//! # Known clauses
//!
//! A [`Certifier`] checks witnesses for one design, and one portfolio
//! race shares one certifier across its seats. It remembers every
//! latch clause it has proven to hold in all reachable states:
//!
//! * the clauses of a strengthening it admitted (initiation and
//!   consecution passed), up front through [`Certifier::admit`] or
//!   named by a certificate;
//! * the clauses of a [`Certificate::Clausal`] witness that passed
//!   every obligation, safety included.
//!
//! A later clause set skips initiation and consecution for its known
//! clauses, which stay asserted as premises on every frame its
//! obligations instantiate; its other clauses are checked relative to
//! them. So the static invariant that PDR's clauses, k-induction's
//! strengthening and interpolation's formula all carry is proven once
//! per race instead of once per seat.
//!
//! A race proves it before its seats start:
//! [`Portfolio::check_detailed_blasted`](crate::portfolio::Portfolio::check_detailed_blasted)
//! builds its certifier first and [admits](Certifier::admit)
//! [`Blasted::invariant`](crate::Blasted::invariant) with it, running
//! the initiation and consecution obligations a witness naming the
//! clauses would run. Every seat's witness is then checked relative to
//! the admitted clauses: on a shadow pipeline whose PDR certificate is
//! the strengthening itself, PDR's witness costs one safety obligation.
//! The admission shows in no seat's [`CertifyReport`]; the race's
//! reported time covers it.
//!
//! This is sound. Every known clause holds in all reachable states,
//! because it belongs to an initiated set that this certifier proved
//! inductive (relative to the clauses it knew then, which hold in all
//! reachable states by the same argument) against the raw template,
//! with fresh solvers, in its own trust mode: a paranoid certifier
//! learns only from replayed proofs. Induction along a path from the
//! initial states meets only reachable states, so a witness that is
//! initiated and inductive relative to known clauses is sound, and its
//! clauses hold in all reachable states in turn. The known set grows
//! only from checks that passed in full, on every worker; a failing
//! check teaches the certifier nothing. No clause is known on anyone
//! else's word: [`Blasted::of`](crate::Blasted::of) proves nothing, and
//! a strengthening that a caller marks
//! [`invariant_certified`](crate::Blasted::invariant_certified) is
//! proven by the race's own admission all the same. The admission is
//! the only proof of the strengthening on the race's path. When it
//! fails, or the race's deadline or its caller's stop flag interrupts
//! it, the seats get the blast with the strengthening marked unproven,
//! so none asserts it and no witness names it.
//!
//! A fresh certifier knows nothing, so [`certify`], [`certify_with`],
//! [`certify_with_mode`] and [`certify_invariant`] — one-shot
//! certifiers — discharge every obligation of their witness.
//!
//! # Paranoid mode
//!
//! The obligations above still trust the *checker's own* solver to
//! answer UNSAT correctly. A [`Certifier`] built with `paranoid =
//! true` (or [`certify_with_mode`]) removes that last trust step: every
//! obligation solver runs with resolution-proof logging, and after its
//! obligations are discharged the recorded proof is replayed from
//! scratch by the independent static analyzer in [`satb::proofcheck`]
//! (antecedent existence, pivot polarity, learnt-clause cross-check
//! against the live clause database). A refutation that fails the
//! replay fails the certificate — [`CertifyReport::proof_chains`]
//! counts the machine-checked chains backing a paranoid pass, summed
//! over every worker solver.

use crate::result::{CheckOutcome, Verdict};
use aig::{split, Aig, AigLit, AigSystem, FrameEncoder, TransitionTemplate};
use satb::{Interrupt, Limits, Lit, Part, SolveResult, Solver};
use std::borrow::Cow;
use std::collections::HashSet;
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

/// An AIG formula that is inductive relative to the strengthening
/// clauses it names (interpolation's fixpoint). The invariant is
/// `root ∧ invariant`.
#[derive(Clone, Debug)]
pub struct FormulaInvariant {
    /// Private combinational logic; latch-output CI literals of the
    /// certified system are valid in it (node ids are preserved by
    /// the engine's scratch clone).
    pub aig: Aig,
    /// Root literal: the predicate over the latch CIs, inductive
    /// relative to [`invariant`](FormulaInvariant::invariant).
    pub root: AigLit,
    /// Static strengthening clauses the engine assumed on every frame.
    /// The checker admits them (initiation + consecution) and then
    /// asserts them as premises of the formula's own obligations.
    pub invariant: Vec<LatchClause>,
}

/// A Safe-verdict witness, re-checkable by [`certify`]. See the
/// [module docs](self) for the format and the obligations.
#[derive(Clone, Debug)]
pub enum Certificate {
    /// Clauses over latch variables whose conjunction is a 1-step
    /// inductive invariant.
    Clausal(ClausalInvariant),
    /// An AIG formula that is 1-step inductive relative to the
    /// strengthening clauses it carries.
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
        /// frame. The checker admits them (initiation + consecution)
        /// before asserting them in the base and step obligations.
        invariant: Vec<LatchClause>,
    },
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strengthening = match self {
            Certificate::Clausal(inv) => {
                return write!(f, "inductive invariant ({} clauses)", inv.clauses.len());
            }
            Certificate::Formula(inv) => {
                write!(f, "inductive invariant (formula)")?;
                &inv.invariant
            }
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
                invariant
            }
        };
        if !strengthening.is_empty() {
            write!(f, " + {} strengthening clauses", strengthening.len())?;
        }
        Ok(())
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
    /// solves, or 1 for a trace replay). Known clauses discharge none.
    pub obligations: usize,
    /// Why the check failed, when it did.
    pub failure: Option<String>,
    /// Resolution chains replayed by the independent proof checker
    /// (non-zero only in paranoid mode).
    pub proof_chains: u64,
    /// Wall-clock time spent checking.
    pub time: Duration,
}

impl CertifyReport {
    fn new(witnessed: bool, result: CheckResult, par: &Paranoia, started: Instant) -> Self {
        let (obligations, failure) = match result {
            Ok(n) => (n, None),
            Err((n, why)) => (n, Some(why)),
        };
        CertifyReport {
            ok: failure.is_none(),
            witnessed,
            obligations,
            failure,
            proof_chains: par.chains,
            time: started.elapsed(),
        }
    }
}

/// Re-checks an outcome's witness against `sys`, recompiling the raw
/// transition template. See the [module docs](self) for what is
/// checked per verdict kind.
pub fn certify(sys: &AigSystem, outcome: &CheckOutcome) -> CertifyReport {
    Certifier::new(sys, false).check(outcome)
}

/// Like [`certify`], but reusing an already-compiled **raw** template
/// (callers certifying several outcomes against the same design).
/// Passing a preprocessed template would defeat the independence of
/// the check — always hand in [`aig::TransitionTemplate::compile`]
/// output.
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
    Certifier::with_template(sys, raw_tpl, paranoid).check(outcome)
}

/// Certifies a mined strengthening invariant (e.g. the output of
/// [`aig::analyze`]) against the **raw** template: initiation and
/// consecution for every clause, with an independent solver. There is
/// deliberately **no safety obligation** — a strengthening invariant
/// constrains the reachable states but makes no claim about the bad
/// outputs; that is exactly what lets every engine assert it on any
/// frame whose states are known reachable (or explicitly constrained
/// to the invariant) without changing the verdict.
///
/// This is the proof a solo caller runs through
/// [`Blasted::certified`](crate::Blasted::certified); a portfolio race
/// runs the same obligations in its own admission. No limit applies.
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
    Certifier::with_template(sys, raw_tpl, paranoid).admit(clauses, &Limits::default())
}

/// The witness checker of one design, in one trust mode, remembering
/// the clauses it has proven (see the [module docs](self#known-clauses)).
/// A portfolio race builds one before its seats start, admits the
/// shared strengthening with it and checks every seat's witness with it.
pub struct Certifier<'a> {
    sys: &'a AigSystem,
    /// The raw, un-preprocessed template every obligation runs on.
    tpl: Cow<'a, TransitionTemplate>,
    paranoid: bool,
    /// Every latch clause proven to hold in all reachable states, in
    /// canonical form (see [`canonical`]).
    known: HashSet<LatchClause>,
}

impl<'a> Certifier<'a> {
    /// A certifier for `sys` that compiles its own raw template. With
    /// `paranoid` set, every obligation's proof is replayed (see the
    /// [module docs](self#paranoid-mode)).
    pub fn new(sys: &'a AigSystem, paranoid: bool) -> Certifier<'a> {
        Certifier {
            sys,
            tpl: Cow::Owned(TransitionTemplate::compile(sys)),
            paranoid,
            known: HashSet::new(),
        }
    }

    /// A certifier for `sys` that borrows an already-compiled **raw**
    /// template ([`aig::TransitionTemplate::compile`] output; a
    /// preprocessed one would defeat the independence of the check).
    pub fn with_template(
        sys: &'a AigSystem,
        raw_tpl: &'a TransitionTemplate,
        paranoid: bool,
    ) -> Certifier<'a> {
        Certifier {
            sys,
            tpl: Cow::Borrowed(raw_tpl),
            paranoid,
            known: HashSet::new(),
        }
    }

    /// Re-checks an outcome's witness, relative to the clauses this
    /// certifier already knows, and learns the clauses it proves. See
    /// the [module docs](self) for what is checked per verdict kind.
    pub fn check(&mut self, outcome: &CheckOutcome) -> CertifyReport {
        let started = Instant::now();
        let mut par = Paranoia::new(self.paranoid);
        let result = match &outcome.outcome {
            Verdict::Unknown(_) => None,
            Verdict::Unsafe(trace) => Some(if trace.replays_on(self.sys) {
                Ok(1)
            } else {
                Err((1, "trace does not replay to a fired bad".into()))
            }),
            Verdict::Safe => outcome.certificate.as_ref().map(|cert| match cert {
                Certificate::Clausal(inv) => {
                    self.check_clauses(&inv.clauses, Claim::Invariant, &mut par, &Limits::default())
                }
                Certificate::Formula(inv) => self.check_formula(inv, &mut par),
                Certificate::KInductive {
                    k,
                    simple_path,
                    invariant,
                } => self.check_kinductive(*k, *simple_path, invariant, &mut par),
            }),
        };
        CertifyReport::new(result.is_some(), result.unwrap_or(Ok(0)), &par, started)
    }

    /// Admits a strengthening before any witness names it: initiation
    /// and consecution for every clause not yet known, the obligations
    /// [`check`](Certifier::check) discharges for the clauses a
    /// certificate carries beside its claim. On a pass the clauses
    /// become known; a failing admission teaches the certifier nothing.
    ///
    /// Every obligation query runs under `limits`: its stop flag and
    /// deadline are read before each query and inside it, and an
    /// interrupted admission fails like a refuted one.
    pub fn admit(&mut self, clauses: &[LatchClause], limits: &Limits) -> CertifyReport {
        let started = Instant::now();
        let mut par = Paranoia::new(self.paranoid);
        let result = self.check_clauses(clauses, Claim::Strengthening, &mut par, limits);
        CertifyReport::new(!clauses.is_empty(), result, &par, started)
    }

    /// Initiation and consecution for every clause of `clauses` not yet
    /// known, with the whole set asserted on the current-state side of
    /// one raw frame, plus safety on that frame for a
    /// [`Claim::Invariant`], every query under `limits`. On a full pass
    /// the set becomes known.
    fn check_clauses(
        &mut self,
        clauses: &[LatchClause],
        claim: Claim,
        par: &mut Paranoia,
        limits: &Limits,
    ) -> CheckResult {
        let what = claim.prefix();
        let n = self.sys.latches.len();
        for (ci, clause) in clauses.iter().enumerate() {
            if let Some(&(i, _)) = clause.iter().find(|&&(i, _)| i >= n) {
                return Err((0, format!("{what}clause #{ci} names latch {i} of {n}")));
            }
            if clause.is_empty() {
                return Err((0, format!("{what}clause #{ci} is empty (false)")));
            }
        }
        let fresh: Vec<usize> = (0..clauses.len())
            .filter(|&ci| !self.known.contains(&canonical(&clauses[ci])))
            .collect();
        if fresh.is_empty() && claim == Claim::Strengthening {
            return Ok(0);
        }
        let workers = split::worker_count(fresh.len());
        self.prove_fresh(clauses, &fresh, claim, par, workers, limits)
    }

    /// Initiation for the `fresh` clauses of `clauses`, then their
    /// consecution split across `workers` solvers, the safety of a
    /// [`Claim::Invariant`] on the last, every query under `limits`. A
    /// failure names the lowest failing clause. On a full pass the fresh
    /// clauses become known.
    fn prove_fresh(
        &mut self,
        clauses: &[LatchClause],
        fresh: &[usize],
        claim: Claim,
        par: &mut Paranoia,
        workers: usize,
        limits: &Limits,
    ) -> CheckResult {
        let what = claim.prefix();
        let mut done = if fresh.is_empty() {
            0
        } else {
            self.initiation(clauses, fresh, what, par, limits)?
        };
        let mut pars: Vec<Paranoia> = (0..workers).map(|_| Paranoia::new(par.on)).collect();
        let results = split::run(&mut pars, |k, p| {
            let chunk = &fresh[split::chunk(fresh.len(), workers, k)];
            let safety = claim == Claim::Invariant && k + 1 == workers;
            self.consecution(clauses, chunk, safety, what, p, limits)
        });
        par.chains += pars.iter().map(|p| p.chains).sum::<u64>();
        let mut failure = None;
        for result in results {
            match result {
                Ok(n) => done += n,
                Err((n, why)) => {
                    done += n;
                    failure.get_or_insert(why);
                }
            }
        }
        if let Some(why) = failure {
            return Err((done, why));
        }
        self.known
            .extend(fresh.iter().map(|&ci| canonical(&clauses[ci])));
        Ok(done)
    }

    /// Initiation for the `fresh` clauses of `clauses`, on a solver
    /// holding nothing but the reset values: each clause must be checked
    /// without the others, or a clause the initial states escape could
    /// hide behind one they satisfy.
    fn initiation(
        &self,
        clauses: &[LatchClause],
        fresh: &[usize],
        what: &str,
        par: &mut Paranoia,
        limits: &Limits,
    ) -> CheckResult {
        let mut done = 0;
        let mut init = par.solver();
        let vars: Vec<Lit> = (0..self.sys.latches.len())
            .map(|_| Lit::pos(init.new_var()))
            .collect();
        for (latch, &l) in self.sys.latches.iter().zip(&vars) {
            if let Some(iv) = latch.init {
                init.add_clause(&[if iv { l } else { !l }]);
            }
        }
        for &ci in fresh {
            match solve(&mut init, &negated_clause_on(&clauses[ci], &vars), limits) {
                SolveResult::Unsat => done += 1,
                SolveResult::Sat => {
                    return Err((done, format!("{what}initiation fails: init ⊄ clause #{ci}")))
                }
                SolveResult::Unknown(why) => {
                    return Err((done, format!("{what}check interrupted: {why:?}")))
                }
            }
        }
        par.audit(&init).map_err(|why| (done, why))?;
        Ok(done)
    }

    /// Consecution for the `chunk` clauses of `clauses`, and safety when
    /// asked, on a fresh solver with one raw frame and the whole set,
    /// known clauses included, asserted on its current-state side.
    fn consecution(
        &self,
        clauses: &[LatchClause],
        chunk: &[usize],
        safety: bool,
        what: &str,
        par: &mut Paranoia,
        limits: &Limits,
    ) -> CheckResult {
        let mut done = 0;
        let mut s = par.solver();
        let frame = self.tpl.instantiate(&mut s, Part::A, 0);
        for clause in clauses {
            s.add_clause(&clause_on(clause, &frame.latch_cur));
        }
        for &ci in chunk {
            match solve(
                &mut s,
                &negated_clause_on(&clauses[ci], &frame.latch_next),
                limits,
            ) {
                SolveResult::Unsat => done += 1,
                SolveResult::Sat => {
                    return Err((
                        done,
                        format!("{what}consecution fails: Inv ∧ T ⇏ clause #{ci}′"),
                    ))
                }
                SolveResult::Unknown(why) => {
                    return Err((done, format!("{what}check interrupted: {why:?}")))
                }
            }
        }
        if safety {
            match solve(&mut s, &[frame.any_bad], limits) {
                SolveResult::Unsat => done += 1,
                SolveResult::Sat => {
                    return Err((done, "safety fails: Inv admits a bad state".into()))
                }
                SolveResult::Unknown(why) => {
                    return Err((done, format!("{what}check interrupted: {why:?}")))
                }
            }
        }
        par.audit(&s).map_err(|why| (done, why))?;
        Ok(done)
    }

    fn check_formula(&mut self, inv: &FormulaInvariant, par: &mut Paranoia) -> CheckResult {
        let nodes = inv.aig.num_nodes();
        if inv.root.node() as usize >= nodes {
            return Err((
                0,
                format!(
                    "formula root is node {} of an AIG of {nodes} nodes",
                    inv.root.node()
                ),
            ));
        }
        let mut done = self.check_clauses(
            &inv.invariant,
            Claim::Strengthening,
            par,
            &Limits::default(),
        )?;

        let mut s = par.solver();
        let frame = self.tpl.instantiate(&mut s, Part::A, 0);
        for clause in &inv.invariant {
            s.add_clause(&clause_on(clause, &frame.latch_cur));
        }
        // Two encoders over the certificate's private AIG: one maps the
        // latch-output CIs onto the frame's current-state literals, the
        // other onto its next-state literals, yielding r and r′ over
        // the same raw transition frame.
        let mut enc_cur = FrameEncoder::new();
        let mut enc_next = FrameEncoder::new();
        for (latch, (&c, &nx)) in self
            .sys
            .latches
            .iter()
            .zip(frame.latch_cur.iter().zip(&frame.latch_next))
        {
            enc_cur.bind(latch.output, c);
            enc_next.bind(latch.output, nx);
        }
        let r_cur = enc_cur.encode(&inv.aig, &mut s, inv.root, Part::A);
        let r_next = enc_next.encode(&inv.aig, &mut s, inv.root, Part::A);

        // Initiation: reset values as assumptions (not units — the same
        // solver must later check consecution from arbitrary r states).
        // The reset states satisfy the admitted strengthening, so
        // asserting it hides none of them.
        let mut assumptions: Vec<Lit> = Vec::new();
        for (latch, &l) in self.sys.latches.iter().zip(&frame.latch_cur) {
            if let Some(iv) = latch.init {
                assumptions.push(if iv { l } else { !l });
            }
        }
        assumptions.push(!r_cur);
        match s.solve_with(&assumptions) {
            SolveResult::Unsat => done += 1,
            _ => return Err((done, "initiation fails: init ⊄ r".into())),
        }
        match s.solve_with(&[r_cur, !r_next]) {
            SolveResult::Unsat => done += 1,
            _ => return Err((done, "consecution fails: Inv ∧ r ∧ T ⇏ r′".into())),
        }
        match s.solve_with(&[r_cur, frame.any_bad]) {
            SolveResult::Unsat => done += 1,
            _ => return Err((done, "safety fails: Inv ∧ r admits a bad state".into())),
        }
        par.audit(&s).map_err(|why| (done, why))?;
        Ok(done)
    }

    fn check_kinductive(
        &mut self,
        k: u32,
        simple_path: bool,
        inv: &[LatchClause],
        par: &mut Paranoia,
    ) -> CheckResult {
        // The strengthening clauses must themselves be inductive before
        // they may constrain any frame below.
        let mut done = self.check_clauses(inv, Claim::Strengthening, par, &Limits::default())?;
        let (sys, tpl, k) = (self.sys, &*self.tpl, k as usize);

        // Base: no counterexample of length 0..=k from the initial states.
        // The invariant holds in every reachable state (just certified),
        // so asserting it on initialized frames cannot hide a real bug.
        {
            let mut s = par.solver();
            let mut prev = tpl.instantiate(&mut s, Part::A, 0);
            prev.assert_init(sys, &mut s);
            for depth in 0..=k {
                if depth > 0 {
                    prev = tpl.instantiate_bound(
                        &mut s,
                        Part::A,
                        depth as u32,
                        &prev.latch_next.clone(),
                    );
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
}

/// What a checked clause set claims: a whole inductive invariant that
/// excludes the bad states (a clausal certificate), or a strengthening
/// that only constrains the reachable states.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Claim {
    Invariant,
    Strengthening,
}

impl Claim {
    /// Prefix of the claim's failure messages.
    fn prefix(self) -> &'static str {
        match self {
            Claim::Invariant => "",
            Claim::Strengthening => "invariant ",
        }
    }
}

/// A clause with its literals sorted and deduplicated: the form in
/// which a [`Certifier`] remembers it, so the same clause written in
/// another literal order is still recognised.
fn canonical(clause: &LatchClause) -> LatchClause {
    let mut c = clause.clone();
    c.sort_unstable();
    c.dedup();
    c
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

/// One obligation query under `limits`: an `Unknown` answer, without a
/// solver call, once the stop flag is up or the deadline has passed,
/// and the solver's own interrupt inside the query.
fn solve(s: &mut Solver, assumptions: &[Lit], limits: &Limits) -> SolveResult {
    if limits.stop_requested() {
        return SolveResult::Unknown(Interrupt::Cancelled);
    }
    if limits.deadline.is_some_and(|d| Instant::now() >= d) {
        return SolveResult::Unknown(Interrupt::Timeout);
    }
    s.solve_limited(assumptions, limits.clone())
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::result::{Blasted, Budget, Trace, Unknown};
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
            invariant: vec![],
        };
        let out = outcome_with(&sys, Verdict::Safe, Some(Certificate::Formula(inv.clone())));
        let rep = certify(&sys, &out);
        assert!(rep.ok, "count<=5 is inductive: {:?}", rep.failure);

        // The complement predicate is no invariant at all.
        let broken = FormulaInvariant {
            root: !inv.root,
            ..inv.clone()
        };
        let out = outcome_with(&sys, Verdict::Safe, Some(Certificate::Formula(broken)));
        assert!(!certify(&sys, &out).ok);
    }

    /// Two copies of a 4-stage, 4-bit datapath written in equivalent
    /// forms (`a * 5` against `5 * a`, `a + (a << 1)` against
    /// `(a << 1) + a`), with the property `r4 == s4`: safe, and
    /// inductive only under the mined stage equivalences, which every
    /// engine's certificate then carries.
    pub(crate) fn shadow_pair() -> TransitionSystem {
        shadow_pair_of(4)
    }

    /// [`shadow_pair`] with `width`-bit stages.
    pub(crate) fn shadow_pair_of(width: u32) -> TransitionSystem {
        let mut ts = TransitionSystem::new("shadow");
        let din = ts.add_input("din", Sort::Bv(width));
        let mut prev = (din, din);
        for stage in 1..=4 {
            let r = ts.add_state(format!("r{stage}"), Sort::Bv(width));
            let s = ts.add_state(format!("s{stage}"), Sort::Bv(width));
            let p = ts.pool_mut();
            let (a, b) = (p.var(prev.0), p.var(prev.1));
            let (r_next, s_next) = if stage % 2 == 1 {
                let five = p.constv(width, 5);
                (p.mul(a, five), p.mul(five, b))
            } else {
                let one = p.constv(width, 1);
                let (a2, b2) = (p.shl(a, one), p.shl(b, one));
                (p.add(a, a2), p.add(b2, b))
            };
            let zero = p.constv(width, 0);
            ts.set_init(r, zero);
            ts.set_init(s, zero);
            ts.set_next(r, r_next);
            ts.set_next(s, s_next);
            prev = (r, s);
        }
        let p = ts.pool_mut();
        let (r4, s4) = (p.var(prev.0), p.var(prev.1));
        let bad = p.ne(r4, s4);
        ts.add_bad(bad, "r4 != s4");
        ts
    }

    /// The Safe outcomes of PDR, k-induction and interpolation on one
    /// shared blast, in that order.
    fn safe_outcomes(ts: &TransitionSystem, blasted: &Blasted) -> [CheckOutcome; 3] {
        let b = Budget::default();
        let outs = [
            crate::pdr::Pdr::new(b.clone()).check_blasted(ts, blasted),
            crate::kind::KInduction::new(b.clone()).check_blasted(ts, blasted),
            crate::itp::Interpolation::new(b).check_blasted(ts, blasted),
        ];
        for out in &outs {
            assert_eq!(out.outcome, Verdict::Safe);
        }
        outs
    }

    /// The clause `r1[0] = 0`: true in the reset state, but the first
    /// stage loads `din * 5`, whose low bit is the free `din[0]`, so it
    /// is not inductive, not even relative to the mined equivalences.
    pub(crate) fn forged_clause(sys: &AigSystem) -> LatchClause {
        let r1_0 = sys
            .latches
            .iter()
            .position(|l| l.name == "r1[0]")
            .expect("latch r1[0]");
        vec![(r1_0, false)]
    }

    #[test]
    fn one_certifier_admits_the_strengthening_once() {
        let ts = shadow_pair();
        let blasted = Blasted::of(&ts).certified();
        let inv = blasted.invariant.clauses.len();
        assert!(inv > 0, "the stage equivalences are mined");
        let outs = safe_outcomes(&ts, &blasted);
        let Some(Certificate::KInductive { k, .. }) = outs[1].certificate else {
            panic!("k-induction returns a k-inductive certificate");
        };
        let k = k as usize;

        let mut certifier = Certifier::new(&blasted.sys, false);
        let reports: Vec<CertifyReport> = outs.iter().map(|o| certifier.check(o)).collect();
        for rep in &reports {
            assert!(rep.ok && rep.witnessed, "{:?}", rep.failure);
        }
        // PDR's clauses admit the strengthening; k-induction then pays
        // only its base (k + 1 depths) and step, interpolation only its
        // formula's initiation, consecution and safety.
        assert!(reports[0].obligations >= 2 * inv, "{reports:?}");
        assert_eq!(reports[1].obligations, k + 2);
        assert_eq!(reports[2].obligations, 3);
        let shown = outs[2].certificate.as_ref().map(ToString::to_string);
        assert_eq!(
            shown.as_deref(),
            Some(format!("inductive invariant (formula) + {inv} strengthening clauses").as_str())
        );

        // One-shot certifiers prove the strengthening every time.
        assert_eq!(certify(&blasted.sys, &outs[1]).obligations, 2 * inv + k + 2);
        assert_eq!(certify(&blasted.sys, &outs[2]).obligations, 2 * inv + 3);
    }

    #[test]
    fn known_clauses_carry_no_forged_clause_through() {
        let ts = shadow_pair();
        let blasted = Blasted::of(&ts).certified();
        let sys = &blasted.sys;
        let outs = safe_outcomes(&ts, &blasted);
        let mut certifier = Certifier::new(sys, false);
        assert!(
            certifier.check(&outs[0]).ok,
            "PDR's witness admits the invariant"
        );

        let mut forged = blasted.invariant.clauses.clone();
        forged.push(forged_clause(sys));
        let Some(Certificate::KInductive { k, simple_path, .. }) = outs[1].certificate else {
            panic!("k-induction returns a k-inductive certificate");
        };
        let Some(Certificate::Formula(formula)) = &outs[2].certificate else {
            panic!("interpolation returns a formula certificate");
        };
        let forgeries = [
            Certificate::KInductive {
                k,
                simple_path,
                invariant: forged.clone(),
            },
            Certificate::Formula(FormulaInvariant {
                invariant: forged,
                ..formula.clone()
            }),
        ];
        for cert in forgeries {
            let rep = certifier.check(&outcome_with(sys, Verdict::Safe, Some(cert)));
            assert!(!rep.ok, "a forged strengthening passed");
            let why = rep.failure.unwrap_or_default();
            assert!(why.contains("invariant consecution"), "{why}");
        }
        // The honest witnesses still check on the same certifier.
        assert!(certifier.check(&outs[1]).ok && certifier.check(&outs[2]).ok);
    }

    /// Solo engines assert only a proven strengthening: handed a set
    /// that holds a non-inductive clause and is not marked proven, PDR,
    /// k-induction and interpolation prove the pair without it, and no
    /// certificate names the forged clause. Proving the set drops it.
    #[test]
    fn solo_engines_ignore_an_unproven_strengthening() {
        let ts = shadow_pair();
        let honest = Blasted::of(&ts);
        let forged_clause = forged_clause(&honest.sys);
        let mut invariant = (*honest.invariant).clone();
        invariant.clauses.push(forged_clause.clone());
        let forged = Blasted {
            invariant: std::sync::Arc::new(invariant),
            invariant_certified: false,
            ..honest
        };
        for out in safe_outcomes(&ts, &forged) {
            let named: &[LatchClause] = match out.certificate.as_ref().expect("a witness") {
                Certificate::Clausal(inv) => &inv.clauses,
                Certificate::Formula(inv) => &inv.invariant,
                Certificate::KInductive { invariant, .. } => invariant,
            };
            assert!(!named.contains(&forged_clause), "{named:?}");
            let rep = certify(&forged.sys, &out);
            assert!(rep.ok && rep.witnessed, "{:?}", rep.failure);
        }
        let proven = forged.certified();
        assert!(!proven.invariant_certified && proven.invariant.is_empty());
        assert!(proven.strengthening().is_empty());
    }

    #[test]
    fn a_failed_witness_teaches_the_certifier_nothing() {
        let ts = shadow_pair();
        let blasted = Blasted::of(&ts);
        let sys = &blasted.sys;
        let mut clauses = blasted.invariant.clauses.clone();
        clauses.push(forged_clause(sys));
        let mut certifier = Certifier::new(sys, false);

        let clausal = Certificate::Clausal(ClausalInvariant {
            clauses: clauses.clone(),
        });
        let rep = certifier.check(&outcome_with(sys, Verdict::Safe, Some(clausal)));
        assert!(!rep.ok);
        assert!(rep.failure.unwrap_or_default().contains("consecution"));
        assert!(certifier.known.is_empty(), "a failed check adds no clause");

        let kind = Certificate::KInductive {
            k: 0,
            simple_path: false,
            invariant: clauses,
        };
        let rep = certifier.check(&outcome_with(sys, Verdict::Safe, Some(kind)));
        assert!(!rep.ok, "the failed clauses must still be proven");
        assert!(rep
            .failure
            .unwrap_or_default()
            .contains("invariant consecution"));
    }

    #[test]
    fn paranoid_certifier_replays_the_admission_and_agrees() {
        let ts = shadow_pair();
        let blasted = Blasted::of(&ts).certified();
        let sys = &blasted.sys;
        let outs = safe_outcomes(&ts, &blasted);
        let mut forged = blasted.invariant.clauses.clone();
        forged.push(forged_clause(sys));
        let forgery = outcome_with(
            sys,
            Verdict::Safe,
            Some(Certificate::KInductive {
                k: 0,
                simple_path: false,
                invariant: forged,
            }),
        );

        let mut plain = Certifier::new(sys, false);
        let mut paranoid = Certifier::new(sys, true);
        for (i, out) in outs.iter().chain([&forgery]).enumerate() {
            let (a, b) = (plain.check(out), paranoid.check(out));
            assert_eq!(
                (a.ok, a.witnessed, a.obligations),
                (b.ok, b.witnessed, b.obligations),
                "outcome #{i}: {:?} vs {:?}",
                a.failure,
                b.failure
            );
            assert_eq!(a.ok, i < outs.len(), "outcome #{i}: only the forgery fails");
            assert_eq!(a.proof_chains, 0, "plain mode replays nothing");
            if i == 0 {
                assert!(b.proof_chains > 0, "the admission's proof is replayed");
            }
        }
    }

    /// The 128 mined clauses of the 16-bit shadow pair: enough to split.
    fn wide_shadow() -> Blasted {
        let blasted = Blasted::of(&shadow_pair_of(16));
        assert!(blasted.invariant.clauses.len() >= 128);
        blasted
    }

    #[test]
    fn split_consecution_names_the_lowest_failing_clause() {
        let blasted = wide_shadow();
        let sys = &blasted.sys;
        let mut clauses = blasted.invariant.clauses.clone();
        clauses.push(forged_clause(sys));
        let mut certifier = Certifier::new(sys, false);
        let mut failure = |clauses: &[LatchClause], workers| {
            let all: Vec<usize> = (0..clauses.len()).collect();
            let mut par = Paranoia::new(false);
            let result = certifier.prove_fresh(
                clauses,
                &all,
                Claim::Strengthening,
                &mut par,
                workers,
                &Limits::default(),
            );
            assert!(certifier.known.is_empty(), "a failed check adds no clause");
            result.expect_err("the forged clause fails").1
        };
        let last = clauses.len() - 1;
        for workers in [1, 2, 3] {
            assert_eq!(
                failure(&clauses, workers),
                format!("invariant consecution fails: Inv ∧ T ⇏ clause #{last}′"),
                "{workers} workers"
            );
        }
        // A second forgery, in the first chunk, is the one named.
        clauses.insert(0, forged_clause(sys));
        for workers in [1, 2, 3] {
            assert_eq!(
                failure(&clauses, workers),
                "invariant consecution fails: Inv ∧ T ⇏ clause #0′",
                "{workers} workers"
            );
        }
    }

    #[test]
    fn split_paranoid_audit_covers_every_worker() {
        let blasted = wide_shadow();
        let sys = &blasted.sys;
        let clauses = &blasted.invariant.clauses;
        let all: Vec<usize> = (0..clauses.len()).collect();
        let workers = 2;
        let check = |paranoid| {
            let started = Instant::now();
            let mut par = Paranoia::new(paranoid);
            let mut certifier = Certifier::new(sys, paranoid);
            let result = certifier.prove_fresh(
                clauses,
                &all,
                Claim::Strengthening,
                &mut par,
                workers,
                &Limits::default(),
            );
            assert_eq!(certifier.known.len(), clauses.len());
            CertifyReport::new(true, result, &par, started)
        };
        let (plain, paranoid) = (check(false), check(true));
        assert!(plain.ok && paranoid.ok, "{:?}", paranoid.failure);
        assert_eq!(
            (plain.ok, plain.witnessed, plain.obligations),
            (paranoid.ok, paranoid.witnessed, paranoid.obligations)
        );
        assert_eq!(plain.obligations, 2 * clauses.len());
        assert_eq!(plain.proof_chains, 0);
        // The same obligations, whatever the worker count.
        let tpl = TransitionTemplate::compile(sys);
        for paranoid in [false, true] {
            let rep = certify_invariant_with_mode(sys, &tpl, clauses, paranoid);
            assert_eq!(
                (rep.ok, rep.witnessed, rep.obligations),
                (true, true, plain.obligations)
            );
        }

        // The replayed chains are those of the initiation solver and of
        // every worker's consecution solver.
        let certifier = Certifier::new(sys, true);
        let mut init = Paranoia::new(true);
        assert!(certifier
            .initiation(clauses, &all, "", &mut init, &Limits::default())
            .is_ok());
        let mut chains = init.chains;
        for k in 0..workers {
            let mut par = Paranoia::new(true);
            let chunk = &all[split::chunk(all.len(), workers, k)];
            assert!(certifier
                .consecution(clauses, chunk, false, "", &mut par, &Limits::default())
                .is_ok());
            assert!(par.chains > 0, "worker {k} replays no proof");
            chains += par.chains;
        }
        assert_eq!(paranoid.proof_chains, chains);
    }
}
