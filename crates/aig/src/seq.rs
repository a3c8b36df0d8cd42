//! Sequential AIGs: the bit-level netlist representation.
//!
//! [`blast_system`] lowers a word-level [`rtlir::TransitionSystem`]
//! into an [`AigSystem`] — combinational inputs, latches with init
//! values and next-state functions, constraints and bad outputs. This
//! is the representation the "hardware tool" engines (BMC,
//! k-induction, interpolation, PDR) operate on, mirroring the
//! Verilog→Yosys→BLIF→ABC path in the paper's Figure 2.

use crate::blast::{Blaster, Bundle};
use crate::graph::{Aig, AigLit};
use rtlir::{eval, TransitionSystem, Value};
use std::collections::HashMap;

/// A latch: one bit of sequential state.
#[derive(Clone, Debug)]
pub struct Latch {
    /// CI literal representing the latch output (current state).
    pub output: AigLit,
    /// Next-state function.
    pub next: AigLit,
    /// Reset value; `None` means uninitialized (nondeterministic).
    pub init: Option<bool>,
    /// Display name, e.g. `count[3]`.
    pub name: String,
}

/// A bit-level sequential netlist with safety properties.
#[derive(Clone, Debug)]
pub struct AigSystem {
    /// The combinational logic.
    pub aig: Aig,
    /// Primary-input CI literals (bit-blasted, LSB first per word).
    pub inputs: Vec<AigLit>,
    /// Display names of the primary inputs.
    pub input_names: Vec<String>,
    /// The latches.
    pub latches: Vec<Latch>,
    /// Environment constraints (must hold in every step).
    pub constraints: Vec<AigLit>,
    /// Bad-state outputs (1 = property violated), with names.
    pub bads: Vec<AigLit>,
    /// Names of the bad outputs.
    pub bad_names: Vec<String>,
    /// Design name.
    pub name: String,
}

impl AigSystem {
    /// Number of latches (state bits).
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// The initial state vector (uninitialized latches start false
    /// unless the caller substitutes other values).
    pub fn initial_state(&self) -> Vec<bool> {
        self.latches
            .iter()
            .map(|l| l.init.unwrap_or(false))
            .collect()
    }

    /// Every node's value under a state vector and primary-input values
    /// (missing input bits and free CIs read `false`): one pass over
    /// the AIG ([`Aig::eval_nodes`]).
    fn node_values(&self, state: &[bool], inputs: &[bool]) -> Vec<bool> {
        let mut vals = vec![false; self.aig.num_nodes()];
        for (i, &l) in self.inputs.iter().enumerate() {
            vals[l.node() as usize] = inputs.get(i).copied().unwrap_or(false);
        }
        for (latch, &v) in self.latches.iter().zip(state) {
            vals[latch.output.node() as usize] = v;
        }
        self.aig.eval_nodes(&mut vals);
        vals
    }

    /// Evaluates the bad outputs in a given state with given inputs.
    pub fn bads_in(&self, state: &[bool], inputs: &[bool]) -> Vec<bool> {
        let vals = self.node_values(state, inputs);
        self.bads.iter().map(|b| b.value_in(&vals)).collect()
    }

    /// Evaluates the constraints in a given state with given inputs.
    pub fn constraints_in(&self, state: &[bool], inputs: &[bool]) -> bool {
        let vals = self.node_values(state, inputs);
        self.constraints.iter().all(|c| c.value_in(&vals))
    }

    /// Computes the successor state.
    pub fn step(&self, state: &[bool], inputs: &[bool]) -> Vec<bool> {
        let vals = self.node_values(state, inputs);
        self.latches
            .iter()
            .map(|l| l.next.value_in(&vals))
            .collect()
    }

    /// Which latches lie in the sequential cone of influence of the bad
    /// outputs and constraints: the latches those cones read, directly
    /// or through the next-state functions of other latches in the
    /// cone. No bad output or constraint can observe a latch outside
    /// it. The cone is structural: a latch read only through logic that
    /// a constant would fold away still counts (see
    /// [`crate::refine_with_constants`], which cuts after folding).
    pub fn latch_coi(&self) -> Vec<bool> {
        let mut latch_of: Vec<Option<usize>> = vec![None; self.aig.num_nodes()];
        for (i, latch) in self.latches.iter().enumerate() {
            latch_of[latch.output.node() as usize] = Some(i);
        }
        let mut in_coi = vec![false; self.latches.len()];
        let mut seen = vec![false; self.aig.num_nodes()];
        let mut stack: Vec<u32> = self
            .bads
            .iter()
            .chain(&self.constraints)
            .map(|l| l.node())
            .collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n as usize], true) {
                continue;
            }
            if let Some((a, b)) = self.aig.and_fanins_of_node(n) {
                stack.extend([a.node(), b.node()]);
            } else if let Some(i) = latch_of[n as usize] {
                in_coi[i] = true;
                stack.push(self.latches[i].next.node());
            }
        }
        in_coi
    }
}

thread_local! {
    /// Per-thread count of [`blast_system`] calls (observability hook).
    static BLASTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`blast_system`] calls made by the *current thread*.
///
/// Thread-local on purpose: tests assert sharing properties (e.g. "the
/// portfolio blasts once, and engines handed a pre-blasted system never
/// blast") without racing against blasts on unrelated test threads.
pub fn blast_count() -> u64 {
    BLASTS.with(std::cell::Cell::get)
}

fn flatten(bundle: &Bundle, name: &str, out: &mut Vec<(AigLit, String)>) {
    match bundle {
        Bundle::Bits(bits) => {
            for (i, &b) in bits.iter().enumerate() {
                out.push((b, format!("{name}[{i}]")));
            }
        }
        Bundle::Array(a) => {
            for (e, elem) in a.elems.iter().enumerate() {
                for (i, &b) in elem.iter().enumerate() {
                    out.push((b, format!("{name}.{e}[{i}]")));
                }
            }
        }
    }
}

fn init_bits(value: &Value) -> Vec<bool> {
    match value {
        Value::Bv { width, bits } => (0..*width).map(|i| (bits >> i) & 1 == 1).collect(),
        Value::Array(a) => {
            let n = 1u64 << a.index_width;
            let mut out = Vec::new();
            for e in 0..n {
                let v = a.read(e);
                for i in 0..a.elem_width {
                    out.push((v >> i) & 1 == 1);
                }
            }
            out
        }
    }
}

/// Bit-blasts a word-level transition system into a sequential AIG.
///
/// The lowering is purely structural: each input bit and latch bit
/// becomes a CI, next-state functions and properties are blasted with
/// the latch CIs bound, and initial values are evaluated to constants.
///
/// # Example
///
/// ```
/// use rtlir::{Sort, TransitionSystem};
/// use aig::blast_system;
///
/// let mut ts = TransitionSystem::new("c");
/// let s = ts.add_state("count", Sort::Bv(4));
/// let sv = ts.pool_mut().var(s);
/// let one = ts.pool_mut().constv(4, 1);
/// let next = ts.pool_mut().add(sv, one);
/// let zero = ts.pool_mut().constv(4, 0);
/// ts.set_init(s, zero);
/// ts.set_next(s, next);
///
/// let sys = blast_system(&ts);
/// assert_eq!(sys.num_latches(), 4);
/// let s0 = sys.initial_state();
/// let s1 = sys.step(&s0, &[]);
/// assert_eq!(s1, vec![true, false, false, false]); // count == 1
/// ```
pub fn blast_system(ts: &TransitionSystem) -> AigSystem {
    BLASTS.with(|c| c.set(c.get() + 1));
    let pool = ts.pool();
    let mut blaster = Blaster::new(pool);

    // Primary inputs first (CI order: inputs then latches).
    let mut inputs = Vec::new();
    let mut input_names = Vec::new();
    for &iv in ts.inputs() {
        let bundle = blaster.fresh_var(iv);
        let name = &pool.var_decl(iv).name;
        let mut flat = Vec::new();
        flatten(&bundle, name, &mut flat);
        for (l, n) in flat {
            inputs.push(l);
            input_names.push(n);
        }
    }

    // Latch CIs, bound so next/bad expressions see them.
    let mut latch_bits: Vec<(AigLit, String)> = Vec::new();
    let mut per_state: Vec<(usize, usize)> = Vec::new(); // (offset, len) per state
    for s in ts.states() {
        let bundle = blaster.fresh_var(s.var);
        let name = &pool.var_decl(s.var).name;
        let offset = latch_bits.len();
        flatten(&bundle, name, &mut latch_bits);
        per_state.push((offset, latch_bits.len() - offset));
    }

    // Init values.
    let empty_env: HashMap<rtlir::VarId, Value> = HashMap::new();
    let mut init_vals: Vec<Option<bool>> = vec![None; latch_bits.len()];
    for (si, s) in ts.states().iter().enumerate() {
        if let Some(init) = s.init {
            let v = eval(pool, init, &empty_env);
            let bits = init_bits(&v);
            let (off, len) = per_state[si];
            assert_eq!(bits.len(), len, "init width mismatch");
            for (i, b) in bits.into_iter().enumerate() {
                init_vals[off + i] = Some(b);
            }
        }
    }

    // Next-state functions.
    let mut next_bits: Vec<AigLit> = vec![AigLit::FALSE; latch_bits.len()];
    for (si, s) in ts.states().iter().enumerate() {
        let (off, len) = per_state[si];
        match s.next {
            Some(next) => {
                let bundle = blaster.blast(next);
                let mut flat = Vec::new();
                flatten(&bundle, "", &mut flat);
                assert_eq!(flat.len(), len, "next width mismatch");
                for (i, (l, _)) in flat.into_iter().enumerate() {
                    next_bits[off + i] = l;
                }
            }
            None => {
                // Frozen state: next = current.
                for i in 0..len {
                    next_bits[off + i] = latch_bits[off + i].0;
                }
            }
        }
    }

    // Constraints and bads.
    let constraints: Vec<AigLit> = ts
        .constraints()
        .iter()
        .map(|&c| blaster.blast_bit(c))
        .collect();
    let bads: Vec<AigLit> = ts
        .bads()
        .iter()
        .map(|b| blaster.blast_bit(b.expr))
        .collect();
    let bad_names: Vec<String> = ts.bads().iter().map(|b| b.name.clone()).collect();

    let aig = blaster.into_aig();
    let latches = latch_bits
        .into_iter()
        .zip(next_bits)
        .zip(init_vals)
        .map(|(((output, name), next), init)| Latch {
            output,
            next,
            init,
            name,
        })
        .collect();

    AigSystem {
        aig,
        inputs,
        input_names,
        latches,
        constraints,
        bads,
        bad_names,
        name: ts.name().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtlir::{Simulator, Sort};

    fn demo_ts() -> TransitionSystem {
        // A small design exercising arithmetic, memory and control:
        //   ptr  : 3-bit pointer, +1 when push
        //   mem  : 8 x 4 memory, written at ptr on push
        //   sum  : 4-bit accumulator of pushed data
        // bad: sum == 15
        let mut ts = TransitionSystem::new("demo");
        let push = ts.add_input("push", Sort::BOOL);
        let data = ts.add_input("data", Sort::Bv(4));
        let ptr = ts.add_state("ptr", Sort::Bv(3));
        let mem = ts.add_state("mem", Sort::array(3, 4));
        let sum = ts.add_state("sum", Sort::Bv(4));

        let p = ts.pool_mut();
        let (pushv, datav, ptrv, memv, sumv) =
            (p.var(push), p.var(data), p.var(ptr), p.var(mem), p.var(sum));
        let one3 = p.constv(3, 1);
        let inc = p.add(ptrv, one3);
        let ptr_next = p.ite(pushv, inc, ptrv);
        let wr = p.write(memv, ptrv, datav);
        let mem_next = p.ite(pushv, wr, memv);
        let add = p.add(sumv, datav);
        let sum_next = p.ite(pushv, add, sumv);
        let z3 = p.constv(3, 0);
        let zmem = p.const_array(3, 4, 0);
        let z4 = p.constv(4, 0);
        let c15 = p.constv(4, 15);
        let bad = p.eq(sumv, c15);

        ts.set_init(ptr, z3);
        ts.set_init(mem, zmem);
        ts.set_init(sum, z4);
        ts.set_next(ptr, ptr_next);
        ts.set_next(mem, mem_next);
        ts.set_next(sum, sum_next);
        ts.add_bad(bad, "sum is 15");
        ts
    }

    #[test]
    fn blasted_simulation_matches_word_level() {
        let ts = demo_ts();
        let sys = blast_system(&ts);
        assert_eq!(sys.num_latches(), 3 + 8 * 4 + 4);

        let mut rng = StdRng::seed_from_u64(99);
        let mut word_sim = Simulator::new(&ts);
        let mut bit_state = sys.initial_state();

        for _cycle in 0..200 {
            let push = rng.gen_bool(0.7);
            let data: u64 = rng.gen_range(0..16);
            let word_inputs = [Value::bit(push), Value::bv(4, data)];
            let mut bit_inputs = vec![push];
            for i in 0..4 {
                bit_inputs.push((data >> i) & 1 == 1);
            }

            let word_bads = word_sim.bad_states_with_inputs(&word_inputs);
            let bit_bads = sys.bads_in(&bit_state, &bit_inputs);
            assert_eq!(word_bads, bit_bads, "bad flags diverge");

            word_sim.step(&word_inputs);
            bit_state = sys.step(&bit_state, &bit_inputs);

            // Cross-check a full state readback each cycle.
            let ptr_word = word_sim.state_value(ts.states()[0].var).bits();
            let mut ptr_bits = 0u64;
            for i in 0..3 {
                if bit_state[i] {
                    ptr_bits |= 1 << i;
                }
            }
            assert_eq!(ptr_bits, ptr_word, "ptr diverges");
            let sum_word = word_sim.state_value(ts.states()[2].var).bits();
            let off = 3 + 32;
            let mut sum_bits = 0u64;
            for i in 0..4 {
                if bit_state[off + i] {
                    sum_bits |= 1 << i;
                }
            }
            assert_eq!(sum_bits, sum_word, "sum diverges");
        }
    }

    /// Reference value of one literal: a memoized recursive walk of its
    /// fanin cone, sharing no code with the one-pass simulation.
    fn walk(aig: &crate::Aig, l: AigLit, cis: &[bool], memo: &mut [Option<bool>]) -> bool {
        let n = l.node() as usize;
        let v = match memo[n] {
            Some(v) => v,
            None => {
                let v = match (aig.ci_index(l), aig.and_fanins_of_node(l.node())) {
                    (Some(ci), _) => cis[ci],
                    (None, Some((a, b))) => walk(aig, a, cis, memo) && walk(aig, b, cis, memo),
                    (None, None) => false,
                };
                memo[n] = Some(v);
                v
            }
        };
        v != l.is_compl()
    }

    /// The one-pass simulation behind `step`, `bads_in` and
    /// `constraints_in` agrees with evaluating every root on its own.
    #[test]
    fn one_pass_simulation_matches_per_root_eval() {
        let cfg = crate::testutil::RandomSystemConfig {
            max_constraints: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let sys = crate::testutil::random_system(&mut rng, &cfg);
            for _ in 0..8 {
                let state: Vec<bool> = sys.latches.iter().map(|_| rng.gen_bool(0.5)).collect();
                let inputs: Vec<bool> = sys.inputs.iter().map(|_| rng.gen_bool(0.5)).collect();
                let mut cis = vec![false; sys.aig.num_cis()];
                for (&l, &v) in sys.inputs.iter().zip(&inputs) {
                    cis[sys.aig.ci_index(l).unwrap()] = v;
                }
                for (l, &v) in sys.latches.iter().zip(&state) {
                    cis[sys.aig.ci_index(l.output).unwrap()] = v;
                }
                let eval = |l: &AigLit| {
                    let reference = walk(&sys.aig, *l, &cis, &mut vec![None; sys.aig.num_nodes()]);
                    assert_eq!(sys.aig.eval(*l, &cis), reference, "Aig::eval of {l}");
                    reference
                };
                let next: Vec<bool> = sys.latches.iter().map(|l| eval(&l.next)).collect();
                assert_eq!(sys.step(&state, &inputs), next);
                let bads: Vec<bool> = sys.bads.iter().map(eval).collect();
                assert_eq!(sys.bads_in(&state, &inputs), bads);
                let ok = sys.constraints.iter().all(eval);
                assert_eq!(sys.constraints_in(&state, &inputs), ok);
            }
        }
    }

    #[test]
    fn init_values_propagate() {
        let ts = demo_ts();
        let sys = blast_system(&ts);
        let s0 = sys.initial_state();
        assert!(s0.iter().all(|&b| !b), "everything initializes to zero");
        assert!(sys.latches.iter().all(|l| l.init == Some(false)));
    }

    #[test]
    fn names_are_flattened() {
        let ts = demo_ts();
        let sys = blast_system(&ts);
        assert_eq!(sys.input_names[0], "push[0]");
        assert_eq!(sys.input_names[1], "data[0]");
        assert!(sys.latches.iter().any(|l| l.name == "mem.5[2]"));
        assert_eq!(sys.bad_names, vec!["sum is 15".to_string()]);
    }

    #[test]
    fn frozen_state_keeps_value() {
        let mut ts = TransitionSystem::new("frozen");
        let s = ts.add_state("s", Sort::Bv(2));
        let two = ts.pool_mut().constv(2, 2);
        ts.set_init(s, two);
        // No next function: state freezes.
        let sys = blast_system(&ts);
        let s0 = sys.initial_state();
        assert_eq!(s0, vec![false, true]);
        let s1 = sys.step(&s0, &[]);
        assert_eq!(s1, s0);
    }
}
