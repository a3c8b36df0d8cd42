//! Frontend for the ANSI-C subset emitted by v2c.
//!
//! The paper's deployment path hands the *C text* to the software
//! analyzers (CBMC, CPAChecker, … all parse C); this crate plays that
//! role for our analyzers: it parses the software-netlist C program
//! and recovers a [`v2c::SwProgram`] by symbolically executing the
//! `main` loop — function inlining, struct flattening, loop unrolling
//! and all.
//!
//! Together with the direct path (`vfront::compile`) this closes the
//! translation loop; the test-suite checks that the *parsed*
//! software-netlist and the *direct* transition system are
//! simulation-equivalent.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "module top(input clk, input i);
//!              reg r; initial r = 0;
//!              always @(posedge clk) r <= i;
//!              assert property (!(r && i));
//!            endmodule";
//! let modules = vfront::parse(src)?;
//! let design = vfront::elaborate(&modules, "top")?;
//! let c_text = v2c::emit_c(&design, v2c::MainStyle::Verifier)?;
//! let prog = cfront::parse_software_netlist(&c_text)?;
//! assert_eq!(prog.ts.states().len(), 1);
//! assert_eq!(prog.ts.bads().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod interp;
mod lexer;
mod parser;

pub use interp::parse_software_netlist;

use std::error::Error;
use std::fmt;

/// An error from parsing or lowering the C software-netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfrontError {
    /// Human-readable description.
    pub message: String,
}

impl CfrontError {
    pub(crate) fn new(message: impl Into<String>) -> CfrontError {
        CfrontError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CfrontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cfront: {}", self.message)
    }
}

impl Error for CfrontError {}
