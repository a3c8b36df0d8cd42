//! And-inverter graphs, bit-blasting and CNF encoding.
//!
//! This crate is the bit-level design representation of the flow (the
//! role AIGER/ABC plays in the paper): a structurally hashed [`Aig`],
//! a [`Blaster`] that lowers word-level [`rtlir`] expressions to bits,
//! a sequential [`AigSystem`] (latches + bads, the bit-level netlist a
//! hardware model checker consumes), a Tseitin [`FrameEncoder`] that
//! encodes AIG cones into a [`satb::Solver`], and a compile-once
//! [`TransitionTemplate`] that the unrolling engines instantiate per
//! time frame by variable-offset arithmetic instead of re-encoding.
//!
//! The lowering is purely structural — no synthesis optimization — in
//! line with the paper's §III-C trustworthiness argument; every
//! operator's lowering is property-tested against the `rtlir`
//! evaluator.
//!
//! # Example
//!
//! ```
//! use aig::Aig;
//!
//! let mut g = Aig::new();
//! let a = g.new_ci();
//! let b = g.new_ci();
//! let c = g.and(a, b);
//! assert!(g.eval(c, &[true, true]));
//! assert!(!g.eval(c, &[true, false]));
//! // Structural hashing: the same AND is not duplicated.
//! assert_eq!(g.and(b, a), c);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod blast;
pub mod cnf;
pub mod graph;
pub mod seq;
pub mod sim;
pub mod split;
pub mod template;
#[cfg(any(test, feature = "testutil"))]
#[doc(hidden)]
pub mod testutil;

pub use analysis::{
    analyze, refine_with_constants, AnalysisConfig, AnalysisStats, StaticInvariant,
};
pub use blast::{ArrayBits, Blaster, Bundle};
pub use cnf::FrameEncoder;
pub use graph::{Aig, AigLit};
pub use seq::{blast_system, AigSystem, Latch};
pub use sim::{Tern, TernarySim};
pub use template::{FrameVars, PreprocessedTemplate, TemplateRecon, TransitionTemplate};
