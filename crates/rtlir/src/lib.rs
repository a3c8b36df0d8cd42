//! Word-level RTL intermediate representation.
//!
//! This crate is the shared substrate of the workspace: a hash-consed,
//! word-level expression language (bit-vectors up to 64 bits plus
//! single-dimensional arrays for memories), a BTOR-style
//! [`TransitionSystem`], a reference [`eval`](mod@crate::eval) semantics and a
//! cycle-accurate [`Simulator`].
//!
//! Every other component — the Verilog synthesizer, the software-netlist
//! generator, the bit-blaster and all verification engines — is defined
//! (and property-tested) against the evaluator in this crate, which plays
//! the role of the golden semantics.
//!
//! # One walk over expressions
//!
//! A pass that traverses or rewrites an expression DAG does so through
//! one walk, not a copy of its own:
//!
//! * [`Node::children`] lists a node's operands, in field order;
//! * [`ExprPool::post_order`] yields each node under a root once,
//!   operands first, skipping nodes the pass has already memoized;
//! * [`ExprPool::rebuild`] rebuilds a node over translated operands
//!   through the pool's simplifying constructors;
//! * [`value::ops::unary`] and [`value::ops::binary`] are the one
//!   operator table, shared by the constant folder and the evaluator.
//!
//! A pass memoizes per node and handles only the nodes it treats
//! specially, such as variables; every other node goes through
//! `rebuild`. The evaluator, the unroller, the bit-blaster and the
//! software analyzers' substitution and abstraction are built this way,
//! so a shared sub-DAG costs them once, not once per path to it.
//!
//! # Example
//!
//! Build a 4-bit counter with a safety property `count != 15` (which is
//! violated after 15 steps) and simulate it:
//!
//! ```
//! use rtlir::{ExprPool, Sort, TransitionSystem, Simulator, Value};
//!
//! let mut ts = TransitionSystem::new("counter");
//! let count = ts.add_state("count", Sort::Bv(4));
//! let cv = ts.pool_mut().var(count);
//! let one = ts.pool_mut().constv(4, 1);
//! let next = ts.pool_mut().add(cv, one);
//! let zero = ts.pool_mut().constv(4, 0);
//! ts.set_init(count, zero);
//! ts.set_next(count, next);
//! let limit = ts.pool_mut().constv(4, 15);
//! let bad = ts.pool_mut().eq(cv, limit);
//! ts.add_bad(bad, "count reaches 15");
//!
//! let mut sim = Simulator::new(&ts);
//! for _ in 0..15 {
//!     assert!(sim.bad_states().iter().all(|b| !b));
//!     sim.step(&[]);
//! }
//! assert_eq!(sim.state_value(count), Value::bv(4, 15));
//! assert!(sim.bad_states()[0]);
//! ```

#![forbid(unsafe_code)]

pub mod eval;
pub mod expr;
pub mod pool;
pub mod printer;
pub mod sim;
pub mod sort;
pub mod ts;
pub mod unroll;
pub mod value;

pub use eval::{eval, EvalEnv};
pub use expr::{BinOp, ExprId, Node, UnOp, VarId};
pub use pool::ExprPool;
pub use sim::Simulator;
pub use sort::Sort;
pub use ts::{BadId, StateId, TransitionSystem};
pub use unroll::Unroller;
pub use value::{ArrayValue, Value};
