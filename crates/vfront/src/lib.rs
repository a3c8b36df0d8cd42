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
//! restrictions, and reported as [`VerilogError`]s rather than silently
//! mis-synthesized:
//!
//! - combinational loops, counting an instance as one unit that reads
//!   all its inputs before it drives any output;
//! - transparent latches: a combinational process must assign each
//!   target on every path, with `=` only;
//! - multiple clocks: every clocked process is clocked by one 1-bit
//!   top-level input, directly or through instance ports connected to
//!   plain signals, and no expression reads the clock. A clock alias
//!   through a continuous assignment (`assign c2 = clk;`) is not
//!   supported either;
//! - `inout` ports and delays.
//!
//! ## One place for each rule
//!
//! Synthesis and the `v2c` C emitter must give a design the same
//! meaning, so each job has one implementation here and both call it.
//! [`elab::check`] applies every rule of a design before either
//! frontend builds anything, and both read what it decides: the role
//! of each signal (clock, register or net), the reset values and the
//! schedule.
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
//!   of them with `=` only or `<=` only, `initial` assigns registers
//!   only, and nothing drives a top-level input.
//! - Names and instances: every signal an expression reads or a
//!   statement assigns is declared, every wire an expression reads is
//!   driven, every instance input is connected and every instance
//!   output drives a plain signal ([`elab::check`]).
//! - The clock: one 1-bit top-level input, which no expression reads
//!   ([`elab::check`], [`elab::Role::Clock`]).
//! - Registers: every `reg` that is not an input and that no
//!   continuous assignment, combinational process or instance output
//!   drives, whether a clocked process assigns it or it keeps its reset
//!   value; ports included, memories always ([`elab::Role::Register`]).
//! - Combinational processes: `=` only, and every target assigned on
//!   every path before any bit or part of it ([`elab::check`]).
//! - Widths and bounds: [`elab::self_width`], [`elab::part_bounds`] and
//!   [`elab::target_widths`], over a name-to-signal lookup
//!   ([`elab::Lookup`]).
//! - Reset values: [`elab::initial_values`].
//! - The §III-B combinational schedule: [`elab::schedule`], per module
//!   with each instance one unit ([`elab::Checked::order`]); synthesis
//!   orders its flattened units with it too.
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
/// Returns a [`VerilogError`] for syntax errors, when `top` does not
/// name a module, and for the violations [`elab::check`] reports
/// (drivers, names, the clock, registers, latches, widths, reset values
/// and combinational loops).
pub fn compile(src: &str, top: &str) -> Result<TransitionSystem, VerilogError> {
    let modules = parse(src)?;
    let design = elaborate(&modules, top)?;
    synthesize(&design)
}
