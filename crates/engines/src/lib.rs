//! Hardware model-checking engines.
//!
//! These are the "hardware tool" configurations of the DATE 2016
//! comparison, operating on the bit-level netlist (like ABC) or on
//! word-level unrollings (like EBMC):
//!
//! | paper tool          | engine here            |
//! |---------------------|------------------------|
//! | ABC `kind`          | [`kind::KInduction`]   |
//! | EBMC k-induction    | [`word::WordKInduction`] |
//! | CBMC and 2LS k-induction | the same loop, run by `swan` on the software-netlist |
//! | ABC interpolation   | [`itp::Interpolation`] |
//! | ABC `pdr`           | [`pdr::Pdr`]           |
//! | (bug finding base)  | [`bmc::Bmc`]           |
//! | hybrid (Figure 5)   | [`portfolio::Portfolio`] |
//!
//! All engines implement [`Checker`] over a word-level
//! [`rtlir::TransitionSystem`] and return a [`CheckOutcome`] — verdict
//! plus statistics — under a configurable resource [`Budget`], which
//! stands in for the paper's 5-hour / 32 GB per-benchmark limits.
//!
//! # Trusting an answer
//!
//! Definite verdicts are *certifying*: a Safe answer from PDR,
//! interpolation or k-induction carries a [`Certificate`] (its
//! fixpoint frame, interpolant fixpoint, or k-inductive strengthening)
//! in [`CheckOutcome::certificate`], and an Unsafe answer carries its
//! replayable [`Trace`] inside the verdict. The [`certify`] module
//! re-checks either against the **raw, un-preprocessed** transition
//! template with a fresh independent SAT solver — so none of the
//! engine's incremental-solving machinery is in the trusted base —
//! and the [`portfolio::Portfolio`] does this automatically before
//! declaring a winner: a seat whose witness fails the check is
//! demoted to [`Unknown::CertificateFailed`] and the race continues
//! with the remaining members, while disagreements are resolved in
//! favour of the side whose witness checked. Seats that cannot
//! produce a witness (the word-level engine, seated software
//! analyzers) are still accepted, but reported as uncertified; a seat
//! that panics is isolated with `catch_unwind` and surfaced as
//! [`Unknown::Crashed`] instead of silently vanishing from the race.
//!
//! The engines themselves solve on a smaller netlist than the one they
//! are checked against: [`Blasted::of`] cuts the template to the
//! property's cone of influence, giving every latch no bad output or
//! constraint can observe a free next state. That image
//! *over-approximates* the design — every transition of the real
//! netlist is one of its transitions, with the freed latches taking
//! the real values — so a clause set, interpolant or k-inductive pair
//! proven on it is inductive for the real netlist too, and the raw
//! re-check passes. This is also why the cut frees latches instead of
//! tying them to a constant or to themselves, which would drop real
//! behaviours. k-induction's simple-path constraint ranges over the
//! latches of the real netlist's cone of influence
//! ([`aig::AigSystem::latch_coi`]), in the engine and in the re-check
//! alike: a shortest counterexample is simple over that cone, and
//! freed latches outside it, free in every step frame, would keep
//! paths distinct for as long as they have values to take.
//! Counterexamples go the other way: the cone latches step exactly as
//! in the real netlist, so engines read only the reset state and the
//! inputs off a model and simulate the states on [`Blasted::sys`]. PDR
//! keeps its proof-obligation cubes inside the cone for the same
//! reason: a predecessor query cannot drive a freed latch, so a cube
//! literal on one would let the obligation chain come apart.
//!
//! One trust step remains after that: the checker's *own* solver
//! answering UNSAT on each obligation. **Paranoid mode** removes it —
//! [`certify::certify_with_mode`] (and
//! [`Portfolio::with_paranoid`](portfolio::Portfolio::with_paranoid))
//! runs every obligation solver with resolution-proof logging and
//! replays the recorded proof from scratch through the independent
//! static checker in [`satb::proofcheck`]: antecedent existence,
//! pivot polarity, a cross-check of every live clause against its
//! recorded derivation. A refutation whose proof fails the replay
//! demotes the member exactly like a bad witness, and
//! [`CertifyReport::proof_chains`] counts the machine-checked chains
//! backing a paranoid pass.
//!
//! # Static strengthening
//!
//! Before any engine runs, [`Blasted::of`] mines candidate clauses for
//! a netlist invariant with [`aig::analyze`] — a ternary-simulation
//! reachability fixpoint for stuck-at-constant latches plus
//! signature-mined equivalence and implication clauses, each holding in
//! the initial states — and keeps those inside the cone of influence
//! of the template the engines solve. It issues no SAT query: the
//! candidates travel with the blast, unproven, as
//! [`Blasted::invariant`].
//!
//! They are filtered and proven once per check, against the **raw**
//! template (initiation + consecution, independent solvers;
//! deliberately no safety obligation), by whoever runs the engines: a
//! portfolio race admits them with its [`certify::Certifier`] before
//! its seats start, and a solo caller calls [`Blasted::certified`]. The
//! [admission](certify#admission) is a Houdini fixpoint over the
//! certifier's own obligations: it drops every candidate a model shows
//! non-inductive, and its last round, which drops nothing, is the
//! proof of the clauses it keeps. Engines assert only an admitted set,
//! which they read through [`Blasted::strengthening`], on each frame
//! they instantiate: BMC and k-induction gain pruned unrollings,
//! interpolation and PDR gain strengthened frames. A clause the
//! admission drops reaches no engine. A mined constant is asserted like
//! every other clause; the template does not fold it.
//!
//! Every Safe certificate names the strengthening it relies on: PDR's
//! exported fixpoint contains the clauses, and k-induction's and
//! interpolation's certificates carry them beside their own claim. A
//! race checks every witness with the certifier that admitted the
//! clauses, relative to them (see [known
//! clauses](certify#known-clauses)), so the strengthening is proven
//! once per race rather than once per seat, and the winner's check is
//! short. The admission runs under the race's deadline, which also
//! covers the seats, and its caller's stop flag; an interrupted
//! admission admits nothing, and the seats race without the
//! strengthening.
//!
//! The certifier's per-clause obligations come by the hundred on a
//! wide design (512 candidates and 1,024 obligations for a 512-latch
//! shadow pipeline), and no query in a batch needs
//! another's answer. Each batch is split across one worker solver per
//! idle core ([`aig::split`]) once it holds at least 128 queries;
//! smaller batches run on the calling thread. Every portfolio seat
//! claims a core while it runs. A race's admission runs before any
//! seat starts, so it splits across all cores, while a witness checked
//! during the race splits only across cores its seats leave idle. The
//! admission keeps its result, the unique greatest inductive subset of
//! the candidates, and its independence, since every worker runs a
//! fresh solver on the raw template (see [check
//! obligations](certify#check-obligations)). Verdicts, certificates,
//! admitted sets and the obligation counts of passing checks do not
//! depend on the core count.
//!
//! An interrupted admission degrades to an empty strengthening — never
//! a half-filtered one — so the pipeline is safe under fault injection.
//!
//! # PDR's live frames
//!
//! PDR fires thousands of queries into one incremental solver, so it
//! keeps that solver to the live frames: when a stronger cube prunes a
//! stored one, or a push supersedes it, its blocking clause is retired
//! together with the learned clauses its frame guard taints
//! ([`satb::Solver::remove_clause_activated`]), so each query
//! propagates through one clause per live cube. Most of those queries
//! find a predecessor, and many find one an earlier query found. A
//! predecessor whose state still lies in the query's frame, outside
//! the queried cube, and whose next state lies inside it answers the
//! query without a solver call. Each predecessor is kept with its live
//! cube, or for one shrink call, so memory stays bounded (see
//! [standing predecessors](pdr#standing-predecessors) in the [`pdr`]
//! module docs).
//!
//! # Example
//!
//! ```
//! use engines::{bmc::Bmc, Checker, Verdict};
//! use rtlir::{Sort, TransitionSystem};
//!
//! // A counter that reaches 5 after five steps.
//! let mut ts = TransitionSystem::new("c");
//! let s = ts.add_state("count", Sort::Bv(8));
//! let sv = ts.pool_mut().var(s);
//! let one = ts.pool_mut().constv(8, 1);
//! let next = ts.pool_mut().add(sv, one);
//! let zero = ts.pool_mut().constv(8, 0);
//! ts.set_init(s, zero);
//! ts.set_next(s, next);
//! let five = ts.pool_mut().constv(8, 5);
//! let bad = ts.pool_mut().eq(sv, five);
//! ts.add_bad(bad, "reaches 5");
//!
//! let out = Bmc::default().check(&ts);
//! match out.outcome {
//!     Verdict::Unsafe(trace) => assert_eq!(trace.states.len(), 6),
//!     other => panic!("expected a counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]

#[cfg(test)]
mod analysis_tests;
pub mod bmc;
pub mod certify;
#[cfg(test)]
mod chaos_tests;
#[cfg(test)]
mod cone_tests;
pub mod itp;
pub mod kind;
pub mod pdr;
pub mod pdr_baseline;
pub mod portfolio;
#[cfg(test)]
mod proof_tests;
pub mod result;
pub mod word;

pub use certify::{Certificate, CertifyReport, ClausalInvariant, FormulaInvariant};
pub use portfolio::{Portfolio, PortfolioOutcome};
pub use result::{Blasted, Budget, CheckOutcome, Checker, EngineStats, Trace, Unknown, Verdict};
