//! v2c — Verilog RTL to software-netlist synthesis.
//!
//! The core contribution of the DATE 2016 paper: given elaborated
//! Verilog RTL, produce a **software-netlist** — a cycle-accurate,
//! bit-precise, word-level ANSI-C program whose every execution of the
//! top-level step function corresponds to one clock cycle of the
//! hardware.
//!
//! Two coupled backends are provided:
//!
//! * [`emit_c`] renders the hierarchical C text (one struct + one
//!   `<module>_step` function per module, exactly the structure the
//!   paper describes: "the software-netlist model retains the module
//!   hierarchy of Verilog RTL"). The SV-COMP harness style uses
//!   `__VERIFIER_nondet_*` inputs and `assert`; a co-simulation
//!   harness style reads stimulus from stdin and prints the
//!   architectural state every cycle, which the test-suite uses to
//!   validate §III-C's translation-equivalence claim against the
//!   word-level simulator (via an actual C compiler).
//! * [`SwProgram`] is the in-memory software-netlist the `swan`
//!   software analyzers consume; the `cfront` crate recovers it from
//!   emitted C text.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), vfront::VerilogError> {
//! let src = "module top(input clk, input i);
//!              reg r; initial r = 0;
//!              always @(posedge clk) r <= i;
//!              assert property (!(r && i));
//!            endmodule";
//! let modules = vfront::parse(src)?;
//! let design = vfront::elaborate(&modules, "top")?;
//! let c = v2c::emit_c(&design, v2c::MainStyle::Verifier)?;
//! assert!(c.contains("top_state"));
//! assert!(c.contains("__VERIFIER_nondet"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod emit;
pub mod swprog;

pub use emit::{emit_c, MainStyle};
pub use swprog::SwProgram;
