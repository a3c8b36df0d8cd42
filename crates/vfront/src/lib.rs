//! Synthesizable Verilog 2005 frontend.
//!
//! Implements the paper's front half of Figure 2: parsing Verilog RTL,
//! elaborating the module hierarchy (parameters, memories, port
//! connections), performing the §III-B *intra- and inter-modular
//! dependency analysis* that orders combinational logic, and
//! synthesizing a word-level [`rtlir::TransitionSystem`].
//!
//! ## Supported subset
//!
//! Modules with ports/parameters, `wire`/`reg` declarations (including
//! memories `reg [w-1:0] m [0:d-1]`), continuous `assign`,
//! `always @(posedge clk)` with synchronous reset, combinational
//! `always @*` / `always @(a or b)`, `if`/`case`/`casez`, blocking and
//! non-blocking assignment, full expression operators (reduction,
//! concatenation, replication, part-/bit-select, ternary), module
//! instantiation (named and positional), `initial` reset blocks and
//! declaration initializers, and SVA-style immediate safety properties
//! `assert property (expr);` / `assume property (expr);`.
//!
//! Deliberately *not* supported, mirroring the v2c tool's documented
//! restrictions: combinational loops, transparent latches, multiple
//! clocks, `inout` ports and delays. These are reported as
//! [`VerilogError`]s rather than silently mis-synthesized.
//!
//! ## One place for each rule
//!
//! Synthesis and the `v2c` C emitter must give a design the same
//! meaning, so each job has one implementation here and both call it:
//!
//! - The tree walk: [`ast::Expr::operands`] and
//!   [`ast::Expr::map_operands`], [`ast::LValue::map`] and
//!   [`ast::LValue::targets`], and [`ast::Stmt::map`],
//!   [`ast::Stmt::for_each_assign`] and [`ast::Stmt::targets`].
//!   Flattening, parameter substitution, read and target collection
//!   and the blocking/non-blocking split run on it.
//! - `case` lowering: [`ast::Stmt::case_to_if`].
//! - Drivers: [`elab::check_drivers`]. Continuous assignments drive
//!   whole signals, every signal has one driver (one clocked process
//!   per register), a clocked process assigns registers only and each
//!   of them with `=` only or `<=` only, and `initial` assigns
//!   registers only.
//! - Widths and bounds: [`elab::self_width`], [`elab::part_bounds`] and
//!   [`elab::target_widths`], over a name-to-signal lookup
//!   ([`elab::Lookup`]).
//! - Reset values: [`elab::initial_values`].
//! - The §III-B combinational schedule: [`synth::schedule`].
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), vfront::VerilogError> {
//! let src = r#"
//! module top(input clk, input rst, output full);
//!   reg [1:0] count;
//!   initial count = 0;
//!   always @(posedge clk)
//!     if (rst) count <= 0;
//!     else if (count < 3) count <= count + 1;
//!   assign full = (count == 3);
//!   assert property (count <= 3);
//! endmodule
//! "#;
//! let ts = vfront::compile(src, "top")?;
//! assert_eq!(ts.states().len(), 1);
//! assert_eq!(ts.bads().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod elab;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod synth;

pub use ast::SourceModule;
pub use elab::{elaborate, Design};
pub use error::VerilogError;
pub use parser::parse;
pub use synth::synthesize;

use rtlir::TransitionSystem;

/// One-shot pipeline: parse, elaborate and synthesize a Verilog source
/// into a word-level transition system.
///
/// # Errors
///
/// Returns a [`VerilogError`] for syntax errors, unsupported
/// constructs (combinational loops, latches, multiple clocks),
/// width violations, or when `top` does not name a module.
pub fn compile(src: &str, top: &str) -> Result<TransitionSystem, VerilogError> {
    let modules = parse(src)?;
    let design = elaborate(&modules, top)?;
    synthesize(&design)
}
