//! BTOR-style word-level transition systems.

use crate::expr::{ExprId, Node, VarId};
use crate::pool::ExprPool;
use crate::sort::Sort;

/// Index of a state-holding element in a [`TransitionSystem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// The raw index, for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs from a raw index.
    pub fn from_index(i: usize) -> StateId {
        StateId(i as u32)
    }
}

/// Index of a bad-state property in a [`TransitionSystem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BadId(pub(crate) u32);

impl BadId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A state-holding element (register or memory).
#[derive(Clone, Debug)]
pub struct State {
    /// The pool variable representing the current-state value.
    pub var: VarId,
    /// Initial-state expression; must not reference any variable.
    /// `None` means the initial value is unconstrained (nondeterministic).
    pub init: Option<ExprId>,
    /// Next-state function over current state and inputs. `None` means
    /// the state is frozen (keeps its value), which synthesis never
    /// produces but hand-built systems may use.
    pub next: Option<ExprId>,
}

/// A bad-state (safety) property: the design is safe iff no reachable
/// state satisfies the expression.
#[derive(Clone, Debug)]
pub struct Bad {
    /// Single-bit expression that is 1 exactly in bad states.
    pub expr: ExprId,
    /// Human-readable name (assertion label / source location).
    pub name: String,
}

/// A word-level transition system: the common internal form of the
/// hardware-verification flow (paper Figure 2, "word-level netlist").
///
/// Holds its own [`ExprPool`]; inputs and states are pool variables.
/// `bad` expressions are the negations of the SVA safety properties; the
/// optional `constraints` are environment assumptions that must hold in
/// every considered step.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Clone, Debug)]
pub struct TransitionSystem {
    name: String,
    pool: ExprPool,
    inputs: Vec<VarId>,
    states: Vec<State>,
    constraints: Vec<ExprId>,
    bads: Vec<Bad>,
}

impl TransitionSystem {
    /// Creates an empty system with the given design name.
    pub fn new(name: impl Into<String>) -> TransitionSystem {
        TransitionSystem {
            name: name.into(),
            pool: ExprPool::new(),
            inputs: Vec::new(),
            states: Vec::new(),
            constraints: Vec::new(),
            bads: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared access to the expression pool.
    pub fn pool(&self) -> &ExprPool {
        &self.pool
    }

    /// Mutable access to the expression pool (for building expressions
    /// that will be installed as init/next/bad).
    pub fn pool_mut(&mut self) -> &mut ExprPool {
        &mut self.pool
    }

    /// Declares a primary input.
    pub fn add_input(&mut self, name: impl Into<String>, sort: Sort) -> VarId {
        let v = self.pool.new_var(name, sort);
        self.inputs.push(v);
        v
    }

    /// Declares a state-holding element and returns its pool variable.
    ///
    /// Init and next functions are attached later with
    /// [`set_init`](TransitionSystem::set_init) and
    /// [`set_next`](TransitionSystem::set_next).
    pub fn add_state(&mut self, name: impl Into<String>, sort: Sort) -> VarId {
        let v = self.pool.new_var(name, sort);
        self.states.push(State {
            var: v,
            init: None,
            next: None,
        });
        v
    }

    fn state_mut(&mut self, var: VarId) -> &mut State {
        self.states
            .iter_mut()
            .find(|s| s.var == var)
            .unwrap_or_else(|| panic!("{var} is not a declared state"))
    }

    /// Sets the initial-value expression of a state.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a state of this system or the sorts differ.
    pub fn set_init(&mut self, var: VarId, init: ExprId) {
        assert_eq!(
            self.pool.var_sort(var),
            self.pool.sort(init),
            "init sort mismatch for {var}"
        );
        self.state_mut(var).init = Some(init);
    }

    /// Sets the next-state function of a state.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a state of this system or the sorts differ.
    pub fn set_next(&mut self, var: VarId, next: ExprId) {
        assert_eq!(
            self.pool.var_sort(var),
            self.pool.sort(next),
            "next sort mismatch for {var}"
        );
        self.state_mut(var).next = Some(next);
    }

    /// Adds an environment constraint (single-bit).
    ///
    /// # Panics
    ///
    /// Panics if `expr` is not a single bit.
    pub fn add_constraint(&mut self, expr: ExprId) {
        assert!(self.pool.sort(expr).is_bool(), "constraint must be 1 bit");
        self.constraints.push(expr);
    }

    /// Adds a bad-state property (single-bit, 1 = property violated).
    ///
    /// # Panics
    ///
    /// Panics if `expr` is not a single bit.
    pub fn add_bad(&mut self, expr: ExprId, name: impl Into<String>) -> BadId {
        assert!(self.pool.sort(expr).is_bool(), "bad must be 1 bit");
        let id = BadId(self.bads.len() as u32);
        self.bads.push(Bad {
            expr,
            name: name.into(),
        });
        id
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[VarId] {
        &self.inputs
    }

    /// The state elements, in declaration order.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The environment constraints.
    pub fn constraints(&self) -> &[ExprId] {
        &self.constraints
    }

    /// The bad-state properties.
    pub fn bads(&self) -> &[Bad] {
        &self.bads
    }

    /// The state with the given pool variable, if any.
    pub fn state_of_var(&self, var: VarId) -> Option<&State> {
        self.states.iter().find(|s| s.var == var)
    }

    /// Single bad expression that is the disjunction of all bad
    /// properties (computed in the pool).
    pub fn any_bad(&mut self) -> ExprId {
        let bads: Vec<ExprId> = self.bads.iter().map(|b| b.expr).collect();
        self.pool.or_all(&bads)
    }

    /// Validates structural well-formedness; returns a list of problems
    /// (empty when the system is ready for verification).
    ///
    /// Checked: every state has a next function, init expressions are
    /// variable-free, and every bad/constraint is a single bit (the last
    /// is enforced on construction but re-checked for completeness).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for s in &self.states {
            let name = &self.pool.var_decl(s.var).name;
            if s.next.is_none() {
                problems.push(format!("state {name} has no next function"));
            }
            if let Some(init) = s.init {
                if !self.is_var_free(init) {
                    problems.push(format!("init of state {name} references variables"));
                }
            }
        }
        problems
    }

    fn is_var_free(&self, root: ExprId) -> bool {
        let order = self.pool.post_order(root, |_| false);
        !order
            .iter()
            .any(|&e| matches!(self.pool.node(e), Node::Var(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> TransitionSystem {
        let mut ts = TransitionSystem::new("c");
        let s = ts.add_state("count", Sort::Bv(4));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(4, 1);
        let next = ts.pool_mut().add(sv, one);
        let zero = ts.pool_mut().constv(4, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        ts
    }

    #[test]
    fn build_and_validate() {
        let ts = counter();
        assert!(ts.validate().is_empty());
        assert_eq!(ts.states().len(), 1);
        assert_eq!(ts.name(), "c");
    }

    #[test]
    fn missing_next_reported() {
        let mut ts = TransitionSystem::new("t");
        ts.add_state("s", Sort::Bv(2));
        let problems = ts.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("no next function"));
    }

    #[test]
    fn init_with_vars_reported() {
        let mut ts = TransitionSystem::new("t");
        let i = ts.add_input("i", Sort::Bv(2));
        let s = ts.add_state("s", Sort::Bv(2));
        let iv = ts.pool_mut().var(i);
        ts.set_init(s, iv);
        ts.set_next(s, iv);
        let problems = ts.validate();
        assert!(problems.iter().any(|p| p.contains("references variables")));
    }

    #[test]
    fn any_bad_disjunction() {
        let mut ts = counter();
        let s = ts.states()[0].var;
        let sv = ts.pool_mut().var(s);
        let c3 = ts.pool_mut().constv(4, 3);
        let c5 = ts.pool_mut().constv(4, 5);
        let b1 = ts.pool_mut().eq(sv, c3);
        let b2 = ts.pool_mut().eq(sv, c5);
        ts.add_bad(b1, "is3");
        ts.add_bad(b2, "is5");
        let any = ts.any_bad();
        assert!(ts.pool().sort(any).is_bool());
        assert_eq!(ts.bads().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a declared state")]
    fn set_next_on_input_panics() {
        let mut ts = TransitionSystem::new("t");
        let i = ts.add_input("i", Sort::Bv(2));
        let iv = ts.pool_mut().var(i);
        ts.set_next(i, iv);
    }
}
