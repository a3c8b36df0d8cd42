//! Software analyzers for software-netlists.
//!
//! Reimplementations of the algorithm cores of the software
//! verification tools the DATE 2016 paper runs on v2c output:
//!
//! | paper tool (SV-COMP)     | analyzer here                  |
//! |--------------------------|--------------------------------|
//! | CBMC 5.2 k-induction     | [`cbmc::CbmcKind`]: [`engines::word::WordKInduction`] without simple paths |
//! | 2LS 0.3.4 kIkI           | [`twols::TwoLs`]: interval invariants, then the same loop under them |
//! | CPAChecker pred. abs.    | [`predabs::PredAbs`] (WP mode) |
//! | CPAChecker interpolation | [`predabs::PredAbs`] (ITP mode)|
//! | IMPARA (IMPACT)          | [`impact::Impact`]             |
//! | SeaHorn PDR              | [`seahorn::SeaHorn`]           |
//!
//! All analyzers consume a [`v2c::SwProgram`] (the software-netlist)
//! and report [`engines::CheckOutcome`]s, so hardware engines and
//! software analyzers are directly comparable — the whole point of the
//! paper's unified framework. The analyzers keep only what makes their
//! tool distinct: the k-induction analyzers run the engines' word-level
//! loop, and IMPARA and CPA-itp unroll the engines'
//! [`aig::TransitionTemplate`] for their interpolants.
//!
//! One analyzer intentionally reproduces *imprecision* the paper
//! observed: [`seahorn::SeaHorn`] over-approximates bit-level
//! operators the way a linear-arithmetic encoding does, yielding the
//! paper's "wrong" results on bit-heavy designs.

#![forbid(unsafe_code)]

pub mod cbmc;
pub mod impact;
pub mod predabs;
pub mod seahorn;
pub mod seat;
pub mod twols;
pub mod util;

pub use engines::{Budget, CheckOutcome, Trace, Unknown, Verdict};
pub use seat::SwSeat;

/// A software analyzer over software-netlist programs.
pub trait Analyzer {
    /// Short machine-readable name, e.g. `"2ls-kiki"`.
    fn name(&self) -> &'static str;
    /// Checks all assertions of the program.
    fn check(&self, prog: &v2c::SwProgram) -> CheckOutcome;
}
