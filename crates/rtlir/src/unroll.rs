//! Time-frame expansion (unrolling) of transition systems at the word
//! level.
//!
//! The unroller is shared by the word-level k-induction engine (the
//! paper's "EBMC-kind" configuration) and by the software analyzers,
//! which unwind the software-netlist's top-level loop — the same
//! operation at the program level.

use crate::expr::{ExprId, Node, VarId};
use crate::pool::ExprPool;
use crate::ts::TransitionSystem;
use std::collections::HashMap;

/// Controls how frame 0 of an unrolling is constrained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitMode {
    /// Frame 0 uses the system's initial-state expressions
    /// (uninitialized states become free variables). Used by BMC and
    /// the base case of k-induction.
    Initialized,
    /// Frame 0 states are all free variables. Used by the inductive
    /// step of k-induction and by image computations.
    Free,
}

/// Word-level time-frame expansion of a [`TransitionSystem`].
///
/// Frames are materialized lazily into a private formula pool: frame
/// `k+1`'s state expressions are the next-state functions with frame
/// `k`'s state expressions and fresh frame-`k` input variables
/// substituted in.
///
/// # Example
///
/// ```
/// use rtlir::{ExprPool, Sort, TransitionSystem};
/// use rtlir::unroll::{InitMode, Unroller};
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
/// let mut u = Unroller::new(&ts, InitMode::Initialized);
/// let s3 = u.state(3, 0);
/// // count after 3 steps from 0 folds to the constant 3.
/// assert_eq!(u.pool().const_bits(s3), Some(3));
/// ```
#[derive(Debug)]
pub struct Unroller<'a> {
    ts: &'a TransitionSystem,
    pool: ExprPool,
    mode: InitMode,
    /// `state_exprs[k][i]`: expression of state `i` at frame `k`.
    state_exprs: Vec<Vec<ExprId>>,
    /// `input_exprs[k][i]`: fresh variable of input `i` at frame `k`.
    input_exprs: Vec<Vec<ExprId>>,
    /// Memoized translation (frame, ts-expr) -> formula-expr.
    memo: HashMap<(u32, ExprId), ExprId>,
}

impl<'a> Unroller<'a> {
    /// Creates an unroller with frame 0 materialized according to `mode`.
    pub fn new(ts: &'a TransitionSystem, mode: InitMode) -> Unroller<'a> {
        let mut u = Unroller {
            ts,
            pool: ExprPool::new(),
            mode,
            state_exprs: Vec::new(),
            input_exprs: Vec::new(),
            memo: HashMap::new(),
        };
        u.push_frame0();
        u
    }

    /// The formula pool the unrolling lives in.
    pub fn pool(&self) -> &ExprPool {
        &self.pool
    }

    /// Mutable access to the formula pool, for combining frame formulas
    /// into verification conditions.
    pub fn pool_mut(&mut self) -> &mut ExprPool {
        &mut self.pool
    }

    /// The underlying transition system.
    pub fn ts(&self) -> &TransitionSystem {
        self.ts
    }

    fn push_frame0(&mut self) {
        let mut frame = Vec::new();
        for (i, s) in self.ts.states().iter().enumerate() {
            let sort = self.ts.pool().var_sort(s.var);
            let name = &self.ts.pool().var_decl(s.var).name;
            let e = match (self.mode, s.init) {
                (InitMode::Initialized, Some(init)) => self.translate(0, init),
                _ => {
                    let v = self.pool.new_var(format!("{name}@0"), sort);
                    let _ = i;
                    self.pool.var(v)
                }
            };
            frame.push(e);
        }
        self.state_exprs.push(frame);
        self.push_inputs(0);
    }

    fn push_inputs(&mut self, k: usize) {
        let mut ins = Vec::new();
        for &iv in self.ts.inputs() {
            let sort = self.ts.pool().var_sort(iv);
            let name = &self.ts.pool().var_decl(iv).name;
            let v = self.pool.new_var(format!("{name}@{k}"), sort);
            ins.push(self.pool.var(v));
        }
        self.input_exprs.push(ins);
    }

    /// Ensures frames `0..=k` exist.
    pub fn ensure_frame(&mut self, k: usize) {
        while self.state_exprs.len() <= k {
            let cur = self.state_exprs.len() - 1;
            let mut next_frame = Vec::new();
            for (i, s) in self.ts.states().iter().enumerate() {
                let e = match s.next {
                    Some(next) => self.translate(cur as u32, next),
                    None => self.state_exprs[cur][i],
                };
                next_frame.push(e);
            }
            self.state_exprs.push(next_frame);
            let new_k = self.state_exprs.len() - 1;
            self.push_inputs(new_k);
        }
    }

    /// The expression of state `i` (declaration order) at frame `k`.
    pub fn state(&mut self, k: usize, i: usize) -> ExprId {
        self.ensure_frame(k);
        self.state_exprs[k][i]
    }

    /// The fresh variable expression of input `i` at frame `k`.
    pub fn input(&mut self, k: usize, i: usize) -> ExprId {
        self.ensure_frame(k);
        self.input_exprs[k][i]
    }

    /// Disjunction of all bad properties evaluated at frame `k`.
    pub fn bad(&mut self, k: usize) -> ExprId {
        self.ensure_frame(k);
        let bads: Vec<ExprId> = self
            .ts
            .bads()
            .iter()
            .map(|b| b.expr)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|e| self.translate(k as u32, e))
            .collect();
        self.pool.or_all(&bads)
    }

    /// A specific bad property evaluated at frame `k`.
    pub fn bad_at(&mut self, k: usize, bad_index: usize) -> ExprId {
        self.ensure_frame(k);
        let e = self.ts.bads()[bad_index].expr;
        self.translate(k as u32, e)
    }

    /// Conjunction of all environment constraints at frame `k`.
    pub fn constraint(&mut self, k: usize) -> ExprId {
        self.ensure_frame(k);
        let cs: Vec<ExprId> = self
            .ts
            .constraints()
            .to_vec()
            .into_iter()
            .map(|e| self.translate(k as u32, e))
            .collect();
        self.pool.and_all(&cs)
    }

    /// Single-bit expression stating that the bit-vector state parts of
    /// frames `i` and `j` differ (array states are ignored). Used for
    /// simple-path constraints in k-induction.
    pub fn frames_distinct(&mut self, i: usize, j: usize) -> ExprId {
        self.ensure_frame(i.max(j));
        let mut diffs = Vec::new();
        for (s_idx, s) in self.ts.states().iter().enumerate() {
            if self.ts.pool().var_sort(s.var).is_array() {
                continue;
            }
            let a = self.state_exprs[i][s_idx];
            let b = self.state_exprs[j][s_idx];
            let ne = self.pool.ne(a, b);
            diffs.push(ne);
        }
        self.pool.or_all(&diffs)
    }

    /// Translates a transition-system expression into the formula pool,
    /// substituting frame-`k` state expressions and input variables.
    pub fn translate(&mut self, k: u32, e: ExprId) -> ExprId {
        let ts = self.ts;
        for x in ts.pool().post_order(e, |x| self.memo.contains_key(&(k, x))) {
            let t = match *ts.pool().node(x) {
                Node::Var(v) => self.frame_var(k, v),
                ref node => self.pool.rebuild(node, |a| self.memo[&(k, a)]),
            };
            self.memo.insert((k, x), t);
        }
        self.memo[&(k, e)]
    }

    fn frame_var(&mut self, k: u32, v: VarId) -> ExprId {
        // A variable in a TS expression is either an input or a state.
        if let Some(pos) = self.ts.inputs().iter().position(|&i| i == v) {
            self.ensure_frame(k as usize);
            return self.input_exprs[k as usize][pos];
        }
        if let Some(pos) = self.ts.states().iter().position(|s| s.var == v) {
            self.ensure_frame(k as usize);
            return self.state_exprs[k as usize][pos];
        }
        panic!("variable {v} is neither input nor state of the system")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sort::Sort;

    /// A system whose state `s` steps to `e_levels`, where `e_0 = s` and
    /// `e_{i+1} = ite(c_i, e_i, e_i * x)` over inputs `c_i` and `x`: three
    /// nodes a level, but `2^levels` paths from the root down to `s`.
    pub(crate) fn diamond(levels: usize) -> (TransitionSystem, ExprId) {
        let mut ts = TransitionSystem::new("diamond");
        let x = ts.add_input("x", Sort::Bv(8));
        let cs: Vec<VarId> = (0..levels)
            .map(|i| ts.add_input(format!("c{i}"), Sort::BOOL))
            .collect();
        let s = ts.add_state("s", Sort::Bv(8));
        let p = ts.pool_mut();
        let xv = p.var(x);
        let mut e = p.var(s);
        for c in cs {
            let cv = p.var(c);
            let m = p.mul(e, xv);
            e = p.ite(cv, e, m);
        }
        ts.set_next(s, e);
        (ts, e)
    }

    #[test]
    fn translate_expands_a_shared_sub_dag_once() {
        let (ts, e) = diamond(40);
        let mut u = Unroller::new(&ts, InitMode::Free);
        u.translate(0, e);
        // Frame 0's variables `s`, `x` and `c_i`, then one product and
        // one ite per level.
        assert_eq!(u.pool().len(), 2 + 3 * 40);
    }

    fn counter_with_bad(at: u64) -> TransitionSystem {
        let mut ts = TransitionSystem::new("c");
        let s = ts.add_state("count", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(8, 1);
        let next = ts.pool_mut().add(sv, one);
        let zero = ts.pool_mut().constv(8, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let c = ts.pool_mut().constv(8, at);
        let bad = ts.pool_mut().eq(sv, c);
        ts.add_bad(bad, "hit");
        ts
    }

    #[test]
    fn initialized_unrolling_folds_to_constants() {
        let ts = counter_with_bad(5);
        let mut u = Unroller::new(&ts, InitMode::Initialized);
        for k in 0..10 {
            let s = u.state(k, 0);
            assert_eq!(u.pool().const_bits(s), Some(k as u64));
        }
        let b5 = u.bad(5);
        assert!(u.pool().is_true(b5));
        let b4 = u.bad(4);
        assert!(u.pool().is_false(b4));
    }

    #[test]
    fn free_unrolling_keeps_symbolic_state() {
        let ts = counter_with_bad(5);
        let mut u = Unroller::new(&ts, InitMode::Free);
        let s0 = u.state(0, 0);
        assert!(u.pool().const_bits(s0).is_none());
        let b0 = u.bad(0);
        assert!(!u.pool().is_true(b0) && !u.pool().is_false(b0));
    }

    #[test]
    fn inputs_are_fresh_per_frame() {
        let mut ts = TransitionSystem::new("t");
        let i = ts.add_input("in", Sort::Bv(4));
        let s = ts.add_state("r", Sort::Bv(4));
        let iv = ts.pool_mut().var(i);
        let zero = ts.pool_mut().constv(4, 0);
        ts.set_init(s, zero);
        ts.set_next(s, iv);
        let mut u = Unroller::new(&ts, InitMode::Initialized);
        let i0 = u.input(0, 0);
        let i1 = u.input(1, 0);
        assert_ne!(i0, i1);
        // State at frame 1 is exactly the frame-0 input variable.
        assert_eq!(u.state(1, 0), i0);
    }

    #[test]
    fn distinct_frames() {
        let ts = counter_with_bad(200);
        let mut u = Unroller::new(&ts, InitMode::Initialized);
        let d01 = u.frames_distinct(0, 1);
        // 0 != 1 folds to true.
        assert!(u.pool().is_true(d01));
        let d00 = u.frames_distinct(0, 0);
        assert!(u.pool().is_false(d00));
    }
}
