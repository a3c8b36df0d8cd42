//! Independent checker for recorded resolution proofs.
//!
//! # The proof format
//!
//! A [`Proof`] is a list of clauses in derivation order, each either
//!
//! * [`ProofClause::Original`] — added by the caller with a [`Part`]
//!   label (interpolation partition) and its literal list, or
//! * [`ProofClause::Derived`] — defined by a resolution chain: a
//!   `start` clause id plus an ordered list of
//!   [`ResStep`](crate::proof::ResStep)s, each naming a pivot variable
//!   and the antecedent clause resolved against.
//!
//! On UNSAT the proof additionally stores one final chain deriving the
//! empty clause ([`Proof::empty_clause`]). Clause ids are never
//! reused; deletions ([`Proof::deletions`]) only mark clauses removed
//! from the *solver*, the arena entry stays replayable as an
//! antecedent of already-recorded chains.
//!
//! # Checker obligations
//!
//! [`check`] replays every derivation from scratch, independently of
//! the solver that produced it, and verifies:
//!
//! 1. **Antecedent existence** — `start` and every step's `other`
//!    refer to clauses recorded *earlier* (ids strictly below the
//!    derived clause's own id; the final empty chain may reference any
//!    recorded clause). Violation: [`FailureKind::MissingAntecedent`].
//! 2. **Resolution validity** — each step's pivot occurs with one
//!    polarity in the running clause and the opposite polarity in the
//!    antecedent; the step removes both pivot literals and unions the
//!    rest. Violation: [`FailureKind::InvalidResolution`].
//! 3. **Empty-clause chain** — on UNSAT, replaying the final chain
//!    must leave no literals. Violation: [`FailureKind::NonEmptyFinal`].
//! 4. **Tag consistency** — original clauses carry a caller tag,
//!    derived clauses carry the reserved `u32::MAX`; a mismatch means
//!    the partition bookkeeping interpolation relies on is corrupt.
//!    Violation: [`FailureKind::TagMismatch`].
//! 5. **Deletion sanity** — every recorded deletion names an existing
//!    clause, at most once. Violation: [`FailureKind::BadDeletion`].
//!
//! Two further obligations need outside context and have their own
//! entry points:
//!
//! * **Learnt cross-check** ([`ProofChecker::check_learnt`], used by
//!   [`Solver::check_proof`](crate::Solver::check_proof)) — the
//!   literal set a chain derives must equal the clause the solver
//!   actually stored under that proof id. Violation:
//!   [`FailureKind::LearntMismatch`].
//! * **Interpolation side-condition**
//!   ([`ProofChecker::check_interpolant`]) — a partial interpolant
//!   extracted from this proof may only mention variables in the
//!   shared(A, B) vocabulary induced by the Part labels. A flipped
//!   label shrinks or shifts that vocabulary, so an interpolant
//!   computed before the flip fails this check. Violation:
//!   [`FailureKind::UnsharedVariable`].
//!
//! The result is a structured [`ProofReport`]: chains checked, maximum
//! derivation depth, proof arena bytes, and the list of failures with
//! the offending [`ClauseId`]s. The checker never panics on corrupt
//! input — every malformed construct becomes a report entry.

use crate::interp::Interpolant;
use crate::lit::{Lit, Var};
use crate::proof::{ClauseId, Part, Proof, ProofClause};
use std::collections::HashSet;

/// The class of a proof-check violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A chain references a clause id at or beyond its own position
    /// (or beyond the proof entirely).
    MissingAntecedent,
    /// A resolution step's pivot does not occur with opposite
    /// polarities in the two clauses being resolved.
    InvalidResolution,
    /// A replayed chain's literal set differs from the clause the
    /// solver stored under that derivation.
    LearntMismatch,
    /// The final chain does not derive the empty clause.
    NonEmptyFinal,
    /// An original clause carries the reserved derived-tag, or a
    /// derived clause carries a caller tag.
    TagMismatch,
    /// An interpolant extracted from this proof mentions a variable
    /// outside the shared(A, B) vocabulary.
    UnsharedVariable,
    /// A recorded deletion names a clause that does not exist, or
    /// names the same clause twice.
    BadDeletion,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::MissingAntecedent => "missing antecedent",
            FailureKind::InvalidResolution => "invalid resolution",
            FailureKind::LearntMismatch => "learnt/derivation mismatch",
            FailureKind::NonEmptyFinal => "final chain not empty",
            FailureKind::TagMismatch => "tag/kind mismatch",
            FailureKind::UnsharedVariable => "interpolant variable not shared",
            FailureKind::BadDeletion => "bad deletion record",
        };
        f.write_str(s)
    }
}

/// One proof-check violation: what went wrong and where.
#[derive(Clone, Debug)]
pub struct ProofFailure {
    /// The violation class.
    pub kind: FailureKind,
    /// The offending clause (the derived clause being replayed, the
    /// learnt being cross-checked, or the deletion target). For
    /// failures in the final empty-clause chain this is its `start`.
    pub clause: ClauseId,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for ProofFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at clause {}: {}",
            self.kind,
            self.clause.index(),
            self.detail
        )
    }
}

/// The outcome of a proof check.
#[derive(Clone, Debug, Default)]
pub struct ProofReport {
    /// Clauses recorded in the proof (originals + derived).
    pub clauses: usize,
    /// Derivation chains replayed (derived clauses plus the final
    /// empty-clause chain if present).
    pub chains_checked: u64,
    /// Resolution steps replayed across all chains.
    pub steps_checked: u64,
    /// Maximum derivation depth (an original has depth 0; a derived
    /// clause is one deeper than its deepest antecedent).
    pub max_depth: usize,
    /// Approximate proof arena bytes ([`Proof::bytes`]).
    pub proof_bytes: u64,
    /// Whether the proof contains a final empty-clause chain.
    pub has_refutation: bool,
    /// All violations found, in discovery order.
    pub failures: Vec<ProofFailure>,
}

impl ProofReport {
    /// Whether the proof passed every check.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// A one-line summary of the first failure, if any.
    pub fn first_failure(&self) -> Option<String> {
        self.failures.first().map(ToString::to_string)
    }
}

/// Replays a recorded proof and accumulates a [`ProofReport`].
///
/// Construction ([`ProofChecker::new`]) performs the full structural
/// replay (obligations 1–5 in the module docs); the optional
/// [`check_learnt`](ProofChecker::check_learnt) and
/// [`check_interpolant`](ProofChecker::check_interpolant) passes add
/// context-dependent obligations, and [`finish`](ProofChecker::finish)
/// yields the report.
pub struct ProofChecker<'a> {
    proof: &'a Proof,
    /// Literal set each proof clause denotes, by id (best-effort for
    /// clauses whose chain failed).
    sets: Vec<HashSet<Lit>>,
    report: ProofReport,
}

impl<'a> ProofChecker<'a> {
    /// Replays every recorded chain of `proof`, checking antecedent
    /// existence, resolution validity, the final empty-clause chain,
    /// tag consistency and deletion sanity.
    pub fn new(proof: &'a Proof) -> ProofChecker<'a> {
        let mut report = ProofReport {
            clauses: proof.len(),
            proof_bytes: proof.bytes(),
            has_refutation: proof.empty_clause().is_some(),
            ..ProofReport::default()
        };
        let n = proof.len();
        let mut sets: Vec<HashSet<Lit>> = Vec::with_capacity(n);
        let mut depth: Vec<usize> = Vec::with_capacity(n);
        for (i, pc) in proof.clauses().iter().enumerate() {
            let id = ClauseId(i as u32);
            let tag = proof.tag_of(id);
            match pc {
                ProofClause::Original { lits, .. } => {
                    if tag == u32::MAX {
                        report.failures.push(ProofFailure {
                            kind: FailureKind::TagMismatch,
                            clause: id,
                            detail: "original clause carries the reserved derived-tag".into(),
                        });
                    }
                    sets.push(lits.iter().copied().collect());
                    depth.push(0);
                }
                ProofClause::Derived { start, steps } => {
                    if tag != u32::MAX {
                        report.failures.push(ProofFailure {
                            kind: FailureKind::TagMismatch,
                            clause: id,
                            detail: format!("derived clause carries caller tag {tag}"),
                        });
                    }
                    report.chains_checked += 1;
                    let mut d = 0usize;
                    let mut cur: HashSet<Lit> = if start.index() < i {
                        d = d.max(depth[start.index()] + 1);
                        sets[start.index()].clone()
                    } else {
                        report.failures.push(ProofFailure {
                            kind: FailureKind::MissingAntecedent,
                            clause: id,
                            detail: format!("chain starts at future clause {}", start.index()),
                        });
                        HashSet::new()
                    };
                    for st in steps {
                        report.steps_checked += 1;
                        if st.other.index() >= i {
                            report.failures.push(ProofFailure {
                                kind: FailureKind::MissingAntecedent,
                                clause: id,
                                detail: format!(
                                    "step resolves against future clause {}",
                                    st.other.index()
                                ),
                            });
                            continue;
                        }
                        d = d.max(depth[st.other.index()] + 1);
                        if let Err(detail) =
                            resolve_into(&mut cur, &sets[st.other.index()], st.pivot)
                        {
                            report.failures.push(ProofFailure {
                                kind: FailureKind::InvalidResolution,
                                clause: id,
                                detail,
                            });
                        }
                    }
                    report.max_depth = report.max_depth.max(d);
                    sets.push(cur);
                    depth.push(d);
                }
            }
        }

        // The final empty-clause chain, if recorded.
        if let Some((start, steps)) = proof.empty_clause() {
            report.chains_checked += 1;
            let mut cur: HashSet<Lit> = if start.index() < n {
                sets[start.index()].clone()
            } else {
                report.failures.push(ProofFailure {
                    kind: FailureKind::MissingAntecedent,
                    clause: start,
                    detail: "empty-clause chain starts at a nonexistent clause".into(),
                });
                HashSet::new()
            };
            let mut d = if start.index() < n {
                depth[start.index()] + 1
            } else {
                0
            };
            for st in steps {
                report.steps_checked += 1;
                if st.other.index() >= n {
                    report.failures.push(ProofFailure {
                        kind: FailureKind::MissingAntecedent,
                        clause: start,
                        detail: format!(
                            "empty-clause step resolves against nonexistent clause {}",
                            st.other.index()
                        ),
                    });
                    continue;
                }
                d = d.max(depth[st.other.index()] + 1);
                if let Err(detail) = resolve_into(&mut cur, &sets[st.other.index()], st.pivot) {
                    report.failures.push(ProofFailure {
                        kind: FailureKind::InvalidResolution,
                        clause: start,
                        detail,
                    });
                }
            }
            report.max_depth = report.max_depth.max(d);
            if !cur.is_empty() {
                let mut ls: Vec<String> = cur.iter().map(ToString::to_string).collect();
                ls.sort();
                report.failures.push(ProofFailure {
                    kind: FailureKind::NonEmptyFinal,
                    clause: start,
                    detail: format!("final chain left literals [{}]", ls.join(", ")),
                });
            }
        }

        // Deletion sanity: in range, no duplicates.
        let mut seen: HashSet<ClauseId> = HashSet::new();
        for &d in proof.deletions() {
            if d.index() >= n {
                report.failures.push(ProofFailure {
                    kind: FailureKind::BadDeletion,
                    clause: d,
                    detail: "deletion of a nonexistent clause".into(),
                });
            } else if !seen.insert(d) {
                report.failures.push(ProofFailure {
                    kind: FailureKind::BadDeletion,
                    clause: d,
                    detail: "clause deleted twice".into(),
                });
            }
        }

        ProofChecker {
            proof,
            sets,
            report,
        }
    }

    /// Cross-checks a stored clause against its recorded derivation:
    /// the replayed literal set of proof clause `id` must equal
    /// `lits`. Used by [`Solver::check_proof`](crate::Solver::check_proof)
    /// for every clause live in the clause database.
    pub fn check_learnt(&mut self, id: ClauseId, lits: &[Lit]) {
        if id.index() >= self.sets.len() {
            self.report.failures.push(ProofFailure {
                kind: FailureKind::LearntMismatch,
                clause: id,
                detail: "stored clause points at a nonexistent derivation".into(),
            });
            return;
        }
        let want: HashSet<Lit> = lits.iter().copied().collect();
        if self.sets[id.index()] != want {
            let mut got: Vec<String> = self.sets[id.index()]
                .iter()
                .map(ToString::to_string)
                .collect();
            got.sort();
            let mut exp: Vec<String> = want.iter().map(ToString::to_string).collect();
            exp.sort();
            self.report.failures.push(ProofFailure {
                kind: FailureKind::LearntMismatch,
                clause: id,
                detail: format!(
                    "derivation yields [{}], stored clause is [{}]",
                    got.join(", "),
                    exp.join(", ")
                ),
            });
        }
    }

    /// Checks the interpolation side-condition: every variable `itp`
    /// mentions must be in the shared(A, B) vocabulary induced by the
    /// proof's Part labels (mirroring the labelling
    /// [`Solver::interpolant`](crate::Solver::interpolant) uses). A
    /// flipped Part label changes that vocabulary, so an interpolant
    /// computed under the uncorrupted labels fails here.
    pub fn check_interpolant(&mut self, itp: &Interpolant) {
        let shared = self.shared_vars();
        for v in itp.vars() {
            if !shared.contains(&v) {
                self.report.failures.push(ProofFailure {
                    kind: FailureKind::UnsharedVariable,
                    clause: ClauseId(0),
                    detail: format!("interpolant mentions {v}, not shared between A and B"),
                });
            }
        }
    }

    /// The shared(A, B) vocabulary under the default labelling (the
    /// one [`Solver::interpolant`](crate::Solver::interpolant) uses:
    /// stored Part for tag 0 and untagged clauses, `A` for other
    /// caller tags).
    fn shared_vars(&self) -> HashSet<Var> {
        let mut in_a: HashSet<Var> = HashSet::new();
        let mut in_b: HashSet<Var> = HashSet::new();
        for (i, pc) in self.proof.clauses().iter().enumerate() {
            if let ProofClause::Original { part, lits } = pc {
                let tag = self.proof.tag_of(ClauseId(i as u32));
                let eff = if tag == u32::MAX || tag == 0 {
                    *part
                } else {
                    Part::A
                };
                let set = match eff {
                    Part::A => &mut in_a,
                    Part::B => &mut in_b,
                };
                for l in lits {
                    set.insert(l.var());
                }
            }
        }
        in_a.intersection(&in_b).copied().collect()
    }

    /// Consumes the checker and yields the accumulated report.
    pub fn finish(self) -> ProofReport {
        self.report
    }
}

/// Replays every chain of `proof` and reports the structural
/// obligations (antecedents, resolutions, final chain, tags,
/// deletions). Convenience wrapper over [`ProofChecker`].
pub fn check(proof: &Proof) -> ProofReport {
    ProofChecker::new(proof).finish()
}

/// Like [`check`], additionally verifying the interpolation
/// side-condition for an interpolant extracted from this proof.
pub fn check_with_interpolant(proof: &Proof, itp: &Interpolant) -> ProofReport {
    let mut c = ProofChecker::new(proof);
    c.check_interpolant(itp);
    c.finish()
}

/// One resolution step on `pivot`: `cur := (cur \ {pivot, !pivot}) ∪
/// (other \ {pivot, !pivot})`, valid only when the pivot occurs with
/// opposite polarities in the two sides.
fn resolve_into(cur: &mut HashSet<Lit>, other: &HashSet<Lit>, pivot: Var) -> Result<(), String> {
    let pos = Lit::pos(pivot);
    let neg = Lit::neg(pivot);
    let in_cur = (cur.contains(&pos), cur.contains(&neg));
    let in_other = (other.contains(&pos), other.contains(&neg));
    let ok = (in_cur.0 && in_other.1) || (in_cur.1 && in_other.0);
    if !ok {
        return Err(format!(
            "pivot {pivot} occurs as (pos, neg) = {in_cur:?} in the running clause and {in_other:?} in the antecedent"
        ));
    }
    cur.remove(&pos);
    cur.remove(&neg);
    for &l in other {
        if l.var() != pivot {
            cur.insert(l);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::ResStep;
    use crate::solver::{SolveResult, Solver};

    fn refuting_proof() -> Proof {
        // A: {x}, {!x, y}   B: {!y}  — UNSAT.
        let mut p = Proof::default();
        let x = Var::from_index(0);
        let y = Var::from_index(1);
        let c0 = p.add_original(Part::A, vec![Lit::pos(x)], 0);
        let c1 = p.add_original(Part::A, vec![Lit::neg(x), Lit::pos(y)], 0);
        let c2 = p.add_original(Part::B, vec![Lit::neg(y)], 0);
        // {y} by resolving c1 with c0 on x.
        let c3 = p.add_derived(
            c1,
            vec![ResStep {
                pivot: x,
                other: c0,
            }],
        );
        // Empty clause: resolve {y} with {!y} on y.
        p.set_empty(
            c3,
            vec![ResStep {
                pivot: y,
                other: c2,
            }],
        );
        p
    }

    #[test]
    fn valid_proof_passes() {
        let p = refuting_proof();
        let r = check(&p);
        assert!(r.ok(), "{:?}", r.failures);
        assert_eq!(r.clauses, 4);
        assert_eq!(r.chains_checked, 2);
        assert_eq!(r.steps_checked, 2);
        assert_eq!(r.max_depth, 2);
        assert!(r.has_refutation);
        assert!(r.proof_bytes > 0);
    }

    #[test]
    fn swapped_pivot_is_invalid_resolution() {
        let mut p = refuting_proof();
        // Corrupt: the c3 chain's pivot becomes y (absent with opposite
        // polarities in c1/c0).
        if let ProofClause::Derived { steps, .. } = &mut p.clauses[3] {
            steps[0].pivot = Var::from_index(1);
        }
        let r = check(&p);
        assert!(!r.ok());
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::InvalidResolution));
    }

    #[test]
    fn dropped_final_step_is_nonempty_final() {
        let mut p = refuting_proof();
        if let Some((_, steps)) = &mut p.empty {
            steps.clear();
        }
        let r = check(&p);
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::NonEmptyFinal));
    }

    #[test]
    fn future_antecedent_is_missing() {
        let mut p = refuting_proof();
        if let ProofClause::Derived { steps, .. } = &mut p.clauses[3] {
            steps[0].other = ClauseId(99);
        }
        let r = check(&p);
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::MissingAntecedent));
    }

    #[test]
    fn self_reference_is_missing_antecedent() {
        let mut p = refuting_proof();
        if let ProofClause::Derived { steps, .. } = &mut p.clauses[3] {
            steps[0].other = ClauseId(3); // itself
        }
        let r = check(&p);
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::MissingAntecedent));
    }

    #[test]
    fn corrupted_tag_is_tag_mismatch() {
        let mut p = refuting_proof();
        p.tags[3] = 7; // derived clause must carry u32::MAX
        let r = check(&p);
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::TagMismatch));
        let mut p = refuting_proof();
        p.tags[0] = u32::MAX; // original must not
        let r = check(&p);
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::TagMismatch));
    }

    #[test]
    fn flipped_part_label_fails_interpolant_vocabulary() {
        // A: {x}, B: {!x, y}, {!y}. Shared = {x}; interpolant is `x`.
        let mut s = Solver::with_proof();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause_in(&[Lit::pos(x)], Part::A);
        s.add_clause_in(&[Lit::neg(x), Lit::pos(y)], Part::B);
        s.add_clause_in(&[Lit::neg(y)], Part::B);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let itp = s.interpolant().expect("interpolant");
        let proof = s.proof().expect("proof recorded").clone();
        assert!(check_with_interpolant(&proof, &itp).ok());
        // Flip the only A clause to B: nothing is shared any more, so
        // the interpolant's mention of x is out of vocabulary.
        let mut bad = proof;
        if let ProofClause::Original { part, .. } = &mut bad.clauses[0] {
            *part = Part::B;
        }
        let r = check_with_interpolant(&bad, &itp);
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::UnsharedVariable));
    }

    #[test]
    fn bad_deletions_are_reported() {
        let mut p = refuting_proof();
        p.record_deletion(ClauseId(1));
        assert!(check(&p).ok(), "in-range single deletion is fine");
        p.record_deletion(ClauseId(1));
        assert!(check(&p)
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::BadDeletion));
        let mut p = refuting_proof();
        p.record_deletion(ClauseId(77));
        assert!(check(&p)
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::BadDeletion));
    }

    #[test]
    fn learnt_mismatch_detected() {
        let p = refuting_proof();
        let mut c = ProofChecker::new(&p);
        c.check_learnt(ClauseId(3), &[Lit::pos(Var::from_index(1))]);
        assert!(c.finish().ok(), "derivation 3 yields {{y}}");
        let mut c = ProofChecker::new(&p);
        c.check_learnt(ClauseId(3), &[Lit::neg(Var::from_index(1))]);
        let r = c.finish();
        assert!(r
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::LearntMismatch));
    }

    /// Random mutation sweep: corrupt a random element of a real
    /// solver-produced proof and assert the checker notices. Every
    /// corruption class the ISSUE names is exercised by the dedicated
    /// tests above; this adds randomized coverage on nontrivial
    /// pigeonhole refutations.
    #[test]
    fn random_corruptions_are_rejected() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut s = Solver::with_proof();
        crate::solver::tests::pigeonhole(&mut s, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().expect("proof").clone();
        assert!(check(&proof).ok());
        let derived: Vec<usize> = proof
            .clauses()
            .iter()
            .enumerate()
            .filter(|(_, pc)| matches!(pc, ProofClause::Derived { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(!derived.is_empty());
        let fresh = Var::from_index(10_000); // occurs in no clause
        let mut rejected = 0;
        for round in 0..200 {
            let mut p = proof.clone();
            let &target = &derived[rng.gen_range(0..derived.len())];
            let kind = round % 4;
            match kind {
                0 => {
                    // Swap a pivot to a variable absent from the chain.
                    if let ProofClause::Derived { steps, .. } = &mut p.clauses[target] {
                        if steps.is_empty() {
                            continue;
                        }
                        let k = rng.gen_range(0..steps.len());
                        steps[k].pivot = fresh;
                    }
                }
                1 => {
                    // Point a step at a future/self antecedent.
                    let future = ClauseId(p.clauses.len() as u32 + 7);
                    if let ProofClause::Derived { steps, .. } = &mut p.clauses[target] {
                        if steps.is_empty() {
                            continue;
                        }
                        let k = rng.gen_range(0..steps.len());
                        steps[k].other = future;
                    }
                }
                2 => {
                    // Drop the last step of the final chain.
                    let Some((_, steps)) = &mut p.empty else {
                        continue;
                    };
                    if steps.is_empty() {
                        continue;
                    }
                    steps.pop();
                }
                _ => {
                    // Corrupt a tag.
                    p.tags[target] = rng.gen_range(0..1000);
                }
            }
            let r = check(&p);
            assert!(
                !r.ok(),
                "corruption kind {kind} on clause {target} went undetected"
            );
            rejected += 1;
        }
        assert!(rejected >= 150, "too few effective mutations: {rejected}");
    }

    /// Property: every UNSAT answer on random CNFs yields a proof the
    /// independent checker accepts (with the live-clause cross-check).
    #[test]
    fn random_unsat_proofs_are_checkable() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFACADE);
        let mut unsat_seen = 0;
        for _ in 0..300 {
            let nvars = rng.gen_range(3..=8usize);
            let nclauses = rng.gen_range(6..=26usize);
            let mut s = Solver::with_proof();
            for _ in 0..nvars {
                s.new_var();
            }
            for _ in 0..nclauses {
                let len = rng.gen_range(1..=3usize);
                let cl: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::from_index(rng.gen_range(0..nvars)), rng.gen_bool(0.5)))
                    .collect();
                let part = if rng.gen_bool(0.5) { Part::A } else { Part::B };
                s.add_clause_in(&cl, part);
            }
            if s.solve() != SolveResult::Unsat {
                continue;
            }
            unsat_seen += 1;
            let report = s.check_proof().expect("proof logging on");
            assert!(report.ok(), "{}", report.first_failure().unwrap());
            assert!(report.has_refutation);
            let itp = s.interpolant().expect("interpolant");
            let mut c = ProofChecker::new(s.proof().expect("proof"));
            c.check_interpolant(&itp);
            assert!(c.finish().ok());
        }
        assert!(unsat_seen > 30, "want enough unsat instances: {unsat_seen}");
    }
}
