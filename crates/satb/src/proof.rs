//! Resolution proof logging.
//!
//! When proof logging is enabled, the solver records, for every learned
//! clause, the chain of resolution steps that derived it (the conflict
//! clause resolved against the reason clauses of trail literals, in
//! order, plus the extra resolutions performed during clause
//! minimization). After an UNSAT answer, a final chain deriving the
//! empty clause is recorded. The interpolation module replays these
//! chains with McMillan's labelling, and [`crate::proofcheck`] replays
//! them as an independent validity check.
//!
//! The proof format also has **deletion records**: a deleted clause's
//! id is appended to a deletion list, while the clause itself stays in
//! the proof (ids are never reused, so every recorded chain stays
//! replayable). The solver never records one; the list exists so the
//! checker can verify that no *deleted* clause is the start of the
//! final empty-clause derivation, and its tests build such proofs by
//! hand.
//!
//! Memory is accounted incrementally: [`Proof::bytes`] approximates the
//! heap footprint of the recorded derivations
//! ([`crate::Stats::proof_bytes`]).

use crate::lit::Var;

/// Identifier of a clause in the proof: original clauses and learned
/// clauses share one id space, in creation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseId(pub(crate) u32);

impl ClauseId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interpolation partition label of an original clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Part {
    /// The clause belongs to the `A` part (the interpolant
    /// over-approximates `A`'s consequences on shared variables).
    A,
    /// The clause belongs to the `B` part.
    B,
}

/// One resolution step: resolve the running clause with `other` on
/// `pivot` (the pivot occurs positively in one side, negatively in the
/// other).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResStep {
    /// The pivot variable eliminated by this resolution.
    pub pivot: Var,
    /// The clause resolved against.
    pub other: ClauseId,
}

/// How a proof clause came to be.
#[derive(Clone, Debug)]
pub enum ProofClause {
    /// An original clause added by the user, with its partition label
    /// and literals (literals are stored for interpolant base cases).
    Original {
        /// Partition label.
        part: Part,
        /// The clause's literals.
        lits: Vec<crate::lit::Lit>,
    },
    /// A clause derived by a resolution chain starting from `start`.
    Derived {
        /// The first clause of the chain.
        start: ClauseId,
        /// The resolution steps applied in order.
        steps: Vec<ResStep>,
    },
}

/// The recorded proof: a list of clauses in derivation order plus,
/// after UNSAT, the chain deriving the empty clause.
#[derive(Clone, Debug, Default)]
pub struct Proof {
    pub(crate) clauses: Vec<ProofClause>,
    /// Caller-supplied tag per clause (originals only; derived clauses
    /// get `u32::MAX`). Tags let one refutation be re-partitioned for
    /// sequence interpolants.
    pub(crate) tags: Vec<u32>,
    /// Chain deriving the empty clause (set on UNSAT).
    pub(crate) empty: Option<(ClauseId, Vec<ResStep>)>,
    /// Ids of deleted clauses, in deletion order. Deleted clauses
    /// remain replayable antecedents.
    pub(crate) deleted: Vec<ClauseId>,
    /// Approximate heap bytes held by the recorded derivations,
    /// maintained incrementally on every add.
    pub(crate) bytes: u64,
    /// Number of derivation chains recorded (derived clauses plus the
    /// final empty-clause chain if present).
    pub(crate) chains: u64,
}

impl Proof {
    /// Number of clauses recorded.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the proof is empty.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The derivation of the empty clause, if UNSAT was derived.
    pub fn empty_clause(&self) -> Option<(ClauseId, &[ResStep])> {
        self.empty.as_ref().map(|(s, v)| (*s, v.as_slice()))
    }

    /// All recorded proof clauses, in derivation order. Index `i`
    /// holds the clause with [`ClauseId`] `i`.
    pub fn clauses(&self) -> &[ProofClause] {
        &self.clauses
    }

    /// The caller-supplied tag of a clause (`u32::MAX` for derived
    /// clauses).
    pub fn tag_of(&self, id: ClauseId) -> u32 {
        self.tags[id.index()]
    }

    /// Ids of clauses deleted from the solver, in deletion order.
    pub fn deletions(&self) -> &[ClauseId] {
        &self.deleted
    }

    /// Approximate heap bytes held by the recorded derivations.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of derivation chains recorded (derived clauses plus the
    /// final empty-clause chain if present).
    pub fn chains(&self) -> u64 {
        self.chains
    }

    pub(crate) fn add_original(
        &mut self,
        part: Part,
        lits: Vec<crate::lit::Lit>,
        tag: u32,
    ) -> ClauseId {
        let id = ClauseId(self.clauses.len() as u32);
        self.bytes +=
            Self::clause_overhead() + (lits.len() * std::mem::size_of::<crate::lit::Lit>()) as u64;
        self.clauses.push(ProofClause::Original { part, lits });
        self.tags.push(tag);
        id
    }

    pub(crate) fn add_derived(&mut self, start: ClauseId, steps: Vec<ResStep>) -> ClauseId {
        let id = ClauseId(self.clauses.len() as u32);
        self.bytes +=
            Self::clause_overhead() + (steps.len() * std::mem::size_of::<ResStep>()) as u64;
        self.chains += 1;
        self.clauses.push(ProofClause::Derived { start, steps });
        self.tags.push(u32::MAX);
        id
    }

    /// Record the final empty-clause derivation. Counts as one chain.
    pub(crate) fn set_empty(&mut self, start: ClauseId, steps: Vec<ResStep>) {
        if self.empty.is_none() {
            self.bytes += (steps.len() * std::mem::size_of::<ResStep>()) as u64;
            self.chains += 1;
        }
        self.empty = Some((start, steps));
    }

    /// Record that a clause was deleted.
    #[cfg(test)]
    pub(crate) fn record_deletion(&mut self, id: ClauseId) {
        self.bytes += std::mem::size_of::<ClauseId>() as u64;
        self.deleted.push(id);
    }

    /// Fixed per-clause bookkeeping cost (enum + tag slot).
    fn clause_overhead() -> u64 {
        (std::mem::size_of::<ProofClause>() + std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;

    #[test]
    fn proof_recording() {
        let mut p = Proof::default();
        let v = Var::from_index(0);
        let c0 = p.add_original(Part::A, vec![Lit::pos(v)], 0);
        let c1 = p.add_original(Part::B, vec![Lit::neg(v)], 0);
        assert_eq!(p.len(), 2);
        let steps = vec![ResStep {
            pivot: v,
            other: c1,
        }];
        p.set_empty(c0, steps);
        let (start, chain) = p.empty_clause().expect("empty clause set");
        assert_eq!(start, c0);
        assert_eq!(chain.len(), 1);
        assert_eq!(p.chains(), 1);
        assert!(p.bytes() > 0);
    }

    #[test]
    fn deletion_and_byte_accounting() {
        let mut p = Proof::default();
        let v = Var::from_index(0);
        let c0 = p.add_original(Part::A, vec![Lit::pos(v), Lit::neg(v)], 0);
        let before = p.bytes();
        let c1 = p.add_derived(
            c0,
            vec![ResStep {
                pivot: v,
                other: c0,
            }],
        );
        assert!(p.bytes() > before);
        assert_eq!(p.chains(), 1);
        p.record_deletion(c0);
        assert_eq!(p.deletions(), &[c0]);
        assert_eq!(p.tag_of(c1), u32::MAX);
    }
}
