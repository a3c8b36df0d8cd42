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
//! * incremental solving under **assumptions** with failed-assumption
//!   cores ([`Solver::failed_assumptions`]), the workhorse of the
//!   IC3/PDR and k-induction engines;
//! * optional **resolution proof logging** and McMillan **interpolant**
//!   extraction ([`Solver::interpolant`]), used by the interpolation-
//!   based model checker and the IMPACT-style software analyzer;
//! * per-call resource [`Limits`] — conflict budget, wall-clock
//!   deadline, and a shared [`Limits::stop`] flag for cooperative
//!   cross-thread cancellation — with the tripped limit reported as a
//!   typed [`Interrupt`] in [`SolveResult::Unknown`], plus a
//!   deterministic [`Chaos`] fault-injection hook that exercises the
//!   cancellation path for robustness testing;
//! * SatELite-style **CNF preprocessing** ([`preproc`]) — subsumption,
//!   self-subsuming resolution and bounded variable elimination with a
//!   freeze-set API and model reconstruction. Its one caller is the
//!   `aig` transition template, which simplifies its clause image once
//!   per design, before any frame is instantiated and labelled with an
//!   interpolation partition, so resolution there never has partitions
//!   to respect. The solver itself adds **lightweight inprocessing**
//!   between solve calls (backward subsumption of the original image
//!   by learned clauses, [`Stats::inproc_subsumed`]);
//! * an independent **resolution-proof checker** ([`proofcheck`]):
//!   replays every recorded chain from scratch (antecedent existence,
//!   pivot polarity, learnt-clause cross-check, the final
//!   empty-clause derivation, interpolation side-conditions) and
//!   returns a structured [`ProofReport`] — the `paranoid` trust
//!   layer behind [`Solver::check_proof`]. Proof memory is accounted
//!   ([`Stats::proof_bytes`]) and can be capped
//!   ([`Solver::set_proof_limit`], [`Interrupt::ProofLimit`]).
//!
//! # Query scoping
//!
//! Model-checking engines issue dense sequences of queries that each
//! touch a small cone of one large incremental formula. Two features
//! target exactly that shape:
//!
//! * **Local domains** ([`Domain`],
//!   [`Solver::solve_with_domain`]): the caller restricts *decisions*
//!   to the query's cone of influence, so VSIDS never branches on a
//!   variable the query cannot observe. The solve answers `Sat` once
//!   every in-domain variable is assigned; out-of-domain variables
//!   stay unassigned ([`Solver::value`] returns `None` for them), and
//!   the [`domain`] module docs state the structural conditions under
//!   which such a partial model is extendable. `Unsat` answers (and
//!   failed-assumption cores) are unconditionally sound.
//! * **Chronological backtracking** ([`Solver::set_chrono`]): when a
//!   conflict's asserting level is far below the conflict level, the
//!   solver steps back a single level instead of long-jumping,
//!   keeping the in-domain assignment prefix alive across the dense
//!   per-query conflicts. [`Stats::chrono_backtracks`] counts the
//!   short backtracks for A/B comparison.
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
pub mod domain;
pub mod interp;
pub mod lit;
pub mod preproc;
pub mod proof;
pub mod proofcheck;
pub mod solver;

pub use cdb::{CRef, ClauseDb};
pub use domain::Domain;
pub use interp::Interpolant;
pub use lit::{Lit, Var};
pub use preproc::{PreprocResult, PreprocStats, Preprocessor, ReconStack};
pub use proof::{ClauseId, Part, Proof};
pub use proofcheck::{FailureKind, ProofChecker, ProofFailure, ProofReport};
pub use solver::{
    solver_count, Chaos, Interrupt, Limits, ReduceConfig, SolveResult, Solver, Stats,
};
