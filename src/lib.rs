//! # hwsw — unbounded safety verification for hardware using software analyzers
//!
//! Facade crate of the workspace reproducing *Mukherjee, Schrammel,
//! Kroening, Melham: "Unbounded Safety Verification for Hardware Using
//! Software Analyzers" (DATE 2016)*.
//!
//! The pipeline (paper Figure 2):
//!
//! ```text
//! Verilog RTL ──vfront──► elaborated design
//!     ├── synthesis ──► word-level transition system (rtlir)
//!     │       ├── bit-blasting (aig) ──► ABC-style engines  (engines)
//!     │       └── word-level unrolling ──► EBMC-style k-induction
//!     └── v2c ──► ANSI-C software-netlist ──cfront──► software program
//!                      └── software analyzers (swan): CBMC / 2LS /
//!                          CPAChecker / IMPARA / SeaHorn styles
//! ```
//!
//! The paper's best configuration — the Figure 5 "hybrid" — is the
//! parallel [`Portfolio`]: PDR, BMC, interpolation and k-induction
//! race on worker threads, the first definite verdict wins, and the
//! losers are cooperatively cancelled through the `satb` stop flag.
//! The default line-up seats one engine per core, in that order and
//! never fewer than PDR beside BMC: a seat beyond the core count only
//! slows the seats that answer, and no single engine both proves the
//! safe designs and finds the deep bugs quickly. Software analyzers
//! join the race through [`swan::SwSeat`], which adapts any `swan`
//! analyzer to the hardware `Checker` interface over the v2c
//! software-netlist path.
//!
//! This crate re-exports the public API of every component so examples
//! and downstream users need a single dependency.
//!
//! # Quickstart
//!
//! ```
//! use hwsw::vfront;
//! use hwsw::engines::{pdr::Pdr, Checker, Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//! module counter(input clk, input rst);
//!   reg [3:0] c;
//!   initial c = 0;
//!   always @(posedge clk)
//!     if (rst) c <= 0; else if (c < 10) c <= c + 1;
//!   assert property (c <= 10);
//! endmodule
//! "#;
//! let ts = vfront::compile(src, "counter")?;
//! let verdict = Pdr::default().check(&ts);
//! assert!(matches!(verdict.outcome, Verdict::Safe));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use aig;
pub use bmarks;
pub use cfront;
pub use engines;
pub use rtlir;
pub use satb;
pub use swan;
pub use v2c;
pub use vfront;

pub use engines::portfolio::Portfolio;
