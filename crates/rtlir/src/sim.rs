//! Cycle-accurate simulation of transition systems.

use crate::eval::eval_with_cache;
use crate::expr::VarId;
use crate::ts::TransitionSystem;
use crate::value::Value;
use std::collections::HashMap;

/// A cycle-accurate simulator for a [`TransitionSystem`].
///
/// Each [`step`](Simulator::step) applies the synchronous semantics the
/// paper's software-netlist mimics: read all current state, evaluate all
/// next-state functions, then commit them atomically (two-phase update,
/// matching non-blocking assignment semantics).
///
/// The simulator is the ground truth that the v2c-generated
/// software-netlist, the bit-blasted AIG and all counterexample traces
/// are validated against.
#[derive(Clone, Debug)]
pub struct Simulator<'a> {
    ts: &'a TransitionSystem,
    state: HashMap<VarId, Value>,
    cycle: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator positioned at the initial state.
    ///
    /// States without an init expression start at zero (callers that
    /// want true nondeterministic reset use
    /// [`new_with_reset`](Simulator::new_with_reset)).
    pub fn new(ts: &'a TransitionSystem) -> Simulator<'a> {
        Self::new_with_reset(ts, |var, _sort| {
            let _ = var;
            None
        })
    }

    /// Creates a simulator whose uninitialized states are chosen by
    /// `reset` (return `None` to default to zero).
    pub fn new_with_reset(
        ts: &'a TransitionSystem,
        mut reset: impl FnMut(VarId, crate::Sort) -> Option<Value>,
    ) -> Simulator<'a> {
        let mut state = HashMap::new();
        let mut cache = HashMap::new();
        for s in ts.states() {
            let sort = ts.pool().var_sort(s.var);
            let value = match s.init {
                Some(e) => {
                    // Init expressions are variable-free (validated), so an
                    // empty environment suffices.
                    let empty = HashMap::new();
                    eval_with_cache(ts.pool(), e, &empty, &mut cache)
                }
                None => reset(s.var, sort).unwrap_or_else(|| Value::zero_of(sort)),
            };
            state.insert(s.var, value);
        }
        Simulator {
            ts,
            state,
            cycle: 0,
        }
    }

    /// The current cycle number (0 before the first step).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The current value of a state variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a state of the simulated system.
    pub fn state_value(&self, var: VarId) -> Value {
        self.state
            .get(&var)
            .unwrap_or_else(|| panic!("{var} is not a state"))
            .clone()
    }

    /// Evaluates the bad-state properties in the current state, using
    /// zero for all inputs (bad expressions normally depend only on
    /// state; input-dependent properties should use
    /// [`bad_states_with_inputs`](Simulator::bad_states_with_inputs)).
    pub fn bad_states(&self) -> Vec<bool> {
        self.bad_states_with_inputs(&[])
    }

    /// Evaluates the bad-state properties with the given input values
    /// (in input declaration order; missing inputs read zero).
    pub fn bad_states_with_inputs(&self, inputs: &[Value]) -> Vec<bool> {
        let env = self.env(inputs);
        let mut cache = HashMap::new();
        self.ts
            .bads()
            .iter()
            .map(|b| eval_with_cache(self.ts.pool(), b.expr, &env, &mut cache).as_bool())
            .collect()
    }

    fn env(&self, inputs: &[Value]) -> HashMap<VarId, Value> {
        let mut env = self.state.clone();
        for (i, &var) in self.ts.inputs().iter().enumerate() {
            let sort = self.ts.pool().var_sort(var);
            let v = inputs
                .get(i)
                .cloned()
                .unwrap_or_else(|| Value::zero_of(sort));
            assert_eq!(v.sort(), sort, "input value sort mismatch for {var}");
            env.insert(var, v);
        }
        env
    }

    /// Advances one clock cycle with the given input values (in input
    /// declaration order; missing inputs read zero). Returns the bad
    /// flags observed in the *pre-step* state with these inputs, which
    /// is the cycle in which a simulated assertion would fire.
    pub fn step(&mut self, inputs: &[Value]) -> Vec<bool> {
        let env = self.env(inputs);
        let bads = self.bad_states_with_inputs(inputs);
        let mut cache = HashMap::new();
        let mut next_state = HashMap::new();
        for s in self.ts.states() {
            let value = match s.next {
                Some(e) => eval_with_cache(self.ts.pool(), e, &env, &mut cache),
                None => self.state[&s.var].clone(),
            };
            next_state.insert(s.var, value);
        }
        self.state = next_state;
        self.cycle += 1;
        bads
    }

    /// Runs up to `max_cycles` with inputs drawn from `stimulus`,
    /// stopping early when a bad state is reached. Returns
    /// `Some(cycle)` of the first violation.
    pub fn run_until_bad(
        &mut self,
        max_cycles: u64,
        mut stimulus: impl FnMut(u64) -> Vec<Value>,
    ) -> Option<u64> {
        for _ in 0..max_cycles {
            let inputs = stimulus(self.cycle);
            if self.bad_states_with_inputs(&inputs).iter().any(|&b| b) {
                return Some(self.cycle);
            }
            self.step(&inputs);
        }
        if self
            .bad_states_with_inputs(&stimulus(self.cycle))
            .iter()
            .any(|&b| b)
        {
            return Some(self.cycle);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    /// Counter that wraps at 10 and flags count == 7.
    fn mod10_counter() -> TransitionSystem {
        let mut ts = TransitionSystem::new("mod10");
        let en = ts.add_input("en", Sort::BOOL);
        let s = ts.add_state("count", Sort::Bv(4));
        let sv = ts.pool_mut().var(s);
        let ev = ts.pool_mut().var(en);
        let one = ts.pool_mut().constv(4, 1);
        let nine = ts.pool_mut().constv(4, 9);
        let zero = ts.pool_mut().constv(4, 0);
        let at_max = ts.pool_mut().eq(sv, nine);
        let inc = ts.pool_mut().add(sv, one);
        let wrapped = ts.pool_mut().ite(at_max, zero, inc);
        let next = ts.pool_mut().ite(ev, wrapped, sv);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let seven = ts.pool_mut().constv(4, 7);
        let bad = ts.pool_mut().eq(sv, seven);
        ts.add_bad(bad, "count is 7");
        ts
    }

    #[test]
    fn enabled_counter_hits_bad_at_cycle_7() {
        let ts = mod10_counter();
        let mut sim = Simulator::new(&ts);
        let hit = sim.run_until_bad(20, |_| vec![Value::bit(true)]);
        assert_eq!(hit, Some(7));
    }

    #[test]
    fn disabled_counter_never_hits_bad() {
        let ts = mod10_counter();
        let mut sim = Simulator::new(&ts);
        let hit = sim.run_until_bad(100, |_| vec![Value::bit(false)]);
        assert_eq!(hit, None);
        assert_eq!(sim.state_value(ts.states()[0].var), Value::bv(4, 0));
    }

    #[test]
    fn wraparound() {
        let ts = mod10_counter();
        let mut sim = Simulator::new(&ts);
        for _ in 0..10 {
            sim.step(&[Value::bit(true)]);
        }
        assert_eq!(sim.state_value(ts.states()[0].var), Value::bv(4, 0));
        assert_eq!(sim.cycle(), 10);
    }

    #[test]
    fn missing_inputs_default_to_zero() {
        let ts = mod10_counter();
        let mut sim = Simulator::new(&ts);
        sim.step(&[]); // en reads 0
        assert_eq!(sim.state_value(ts.states()[0].var), Value::bv(4, 0));
    }

    #[test]
    fn nondet_reset_hook() {
        let mut ts = TransitionSystem::new("t");
        let s = ts.add_state("s", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        ts.set_next(s, sv);
        let sim = Simulator::new_with_reset(&ts, |_, _| Some(Value::bv(8, 42)));
        assert_eq!(sim.state_value(s), Value::bv(8, 42));
        let sim0 = Simulator::new(&ts);
        assert_eq!(sim0.state_value(s), Value::bv(8, 0));
    }
}
