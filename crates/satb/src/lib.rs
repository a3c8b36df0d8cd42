//! A CDCL SAT solver with proof logging and Craig interpolation.
//!
//! This crate stands in for the MiniSAT-class back-ends inside the tools
//! the DATE 2016 paper compares (ABC, EBMC, CBMC, IMPARA, …). It
//! provides:
//!
//! * a [`Solver`] with two-literal watching over a flat clause arena
//!   ([`cdb::ClauseDb`]) with inline binary-clause watchers, VSIDS
//!   decision heuristics, first-UIP clause learning with minimization,
//!   LBD-based learned-clause reduction with arena compaction
//!   ([`ReduceConfig`]), phase saving and Luby restarts;
//! * propagation that costs few loads per visited clause: the solver
//!   keeps a value per **literal**, indexed by its code, so reading a
//!   literal's value is one load with no branch on its sign, at 2 bytes
//!   per variable instead of 1; and it reads and reorders a visited
//!   clause through one slice of the arena
//!   ([`ClauseDb::lits_mut`](cdb::ClauseDb::lits_mut));
//! * clause addition that costs what survives the level-0 assignment:
//!   every add path ([`Solver::add_clause_tagged`] and the
//!   pre-normalized bulk path the `aig` transition template loads
//!   frames through) simplifies the clause in a reused buffer. A
//!   satisfied clause is not stored and false literals are dropped.
//!   Without proof logging, a clause that is a unit at level 0 becomes
//!   an assignment: it is not stored and the assignment has no reason.
//!   With proof logging it is stored, as the reason of its assignment,
//!   because the refutation resolves through it. [`Solver::fixed`]
//!   reads that level-0 assignment, so the transition template can fold
//!   a chained frame before loading it. Variables come in
//!   blocks ([`Solver::new_vars`]) that grow every per-variable array
//!   once, and a variable is kept small: 4-byte reasons and trail
//!   positions, and LBD stamps per decision level rather than per
//!   variable. A deep unrolling creates about 100k variables, most
//!   fixed at level 0 as soon as they exist, so every byte per
//!   variable is fresh memory the unrolling pays for;
//! * incremental solving under **assumptions** with failed-assumption
//!   cores ([`Solver::failed_assumptions`]), the workhorse of the
//!   IC3/PDR and k-induction engines;
//! * **activation groups** ([`Solver::new_activation`]): clauses added
//!   with [`Solver::add_clause_activated`] carry the negation of a
//!   guard variable and hold only while the guard is assumed.
//!   [`Solver::release_activation`] retires a whole group: its clauses,
//!   every learned clause that mentions the guard, and the guard
//!   itself, which goes back to a free-list for reuse.
//!   [`Solver::remove_clause_activated`] retires one clause of a group
//!   and every learned clause that mentions the guard, and leaves the
//!   group and its guard live. Both rest on one contract: a guard
//!   never occurs positively in a clause (debug builds assert it), so
//!   every clause learned from a guarded clause still contains the
//!   negated guard, and the learned clauses that remain are implied by
//!   the clauses that remain. PDR releases its per-query groups and
//!   removes the frame clauses that stronger cubes prune;
//! * optional **resolution proof logging** and McMillan **interpolant**
//!   extraction ([`Solver::interpolant`]), used by the interpolation-
//!   based model checker and the IMPACT-style software analyzer;
//! * per-call resource [`Limits`] — conflict budget, wall-clock
//!   deadline, and a shared [`Limits::stop`] flag for cooperative
//!   cross-thread cancellation — with the tripped limit reported as a
//!   typed [`Interrupt`] in [`SolveResult::Unknown`], plus a
//!   deterministic [`Chaos`] fault-injection hook that exercises the
//!   cancellation path for robustness testing. The stop flag is read
//!   once per conflict or decision; the deadline after every 64th
//!   conflict and after every 65,536 propagations of a call, so a
//!   query that rarely conflicts on a large instance stops at its
//!   deadline too;
//! * SatELite-style **CNF preprocessing** ([`preproc`]) — subsumption,
//!   self-subsuming resolution and bounded variable elimination with a
//!   freeze-set API. Its one caller is the
//!   `aig` transition template, which simplifies its clause image once
//!   per design, before any frame is instantiated and labelled with an
//!   interpolation partition, so resolution there never has partitions
//!   to respect;
//! * an independent **resolution-proof checker** ([`proofcheck`]):
//!   replays every recorded chain from scratch (antecedent existence,
//!   pivot polarity, learnt-clause cross-check, the final
//!   empty-clause derivation, interpolation side-conditions) and
//!   returns a structured [`ProofReport`] — the `paranoid` trust
//!   layer behind [`Solver::check_proof`]. Proof memory is accounted
//!   ([`Stats::proof_bytes`]).
//!
//! # Example
//!
//! ```
//! use satb::{Lit, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(Lit::pos(b)), Some(true));
//! s.add_clause(&[Lit::neg(b)]);
//! assert_eq!(s.solve(), SolveResult::Unsat);
//! ```

#![warn(missing_docs)]

pub mod cdb;
pub mod interp;
pub mod lit;
pub mod preproc;
pub mod proof;
pub mod proofcheck;
pub mod solver;

pub use cdb::{CRef, ClauseDb};
pub use interp::Interpolant;
pub use lit::{Lit, Var};
pub use preproc::{PreprocResult, PreprocStats, Preprocessor};
pub use proof::{ClauseId, Part, Proof};
pub use proofcheck::{FailureKind, ProofChecker, ProofFailure, ProofReport};
pub use solver::{
    solver_count, Chaos, Interrupt, Limits, ReduceConfig, SolveResult, Solver, Stats,
};
