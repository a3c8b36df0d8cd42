//! Reference evaluator: the golden semantics of the expression language.

use crate::expr::{ExprId, Node, VarId};
use crate::pool::ExprPool;
use crate::value::{ops, ArrayValue, Value};
use std::collections::HashMap;

/// An assignment of values to (some of) a pool's variables.
///
/// The evaluator queries this for every variable it encounters.
pub trait EvalEnv {
    /// The value of variable `v`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `v` is not covered by the
    /// environment; the evaluator only asks for variables that actually
    /// occur in the evaluated expression.
    fn value_of(&self, v: VarId) -> Value;
}

impl EvalEnv for HashMap<VarId, Value> {
    fn value_of(&self, v: VarId) -> Value {
        self.get(&v)
            .unwrap_or_else(|| panic!("no value for {v}"))
            .clone()
    }
}

impl<F: Fn(VarId) -> Value> EvalEnv for F {
    fn value_of(&self, v: VarId) -> Value {
        self(v)
    }
}

/// Evaluates `root` under `env`, sharing work across the expression DAG.
///
/// Runs on [`ExprPool::post_order`], so deeply nested expressions from
/// long combinational chains cannot overflow the stack.
///
/// # Example
///
/// ```
/// use rtlir::{eval, ExprPool, Sort, Value};
/// use std::collections::HashMap;
///
/// let mut p = ExprPool::new();
/// let x = p.new_var("x", Sort::Bv(8));
/// let xv = p.var(x);
/// let e = p.mul(xv, xv);
/// let mut env = HashMap::new();
/// env.insert(x, Value::bv(8, 20));
/// assert_eq!(eval(&p, e, &env), Value::bv(8, 144)); // 400 mod 256
/// ```
pub fn eval(pool: &ExprPool, root: ExprId, env: &impl EvalEnv) -> Value {
    let mut cache: HashMap<ExprId, Value> = HashMap::new();
    eval_with_cache(pool, root, env, &mut cache)
}

/// Like [`eval`] but reuses a caller-provided cache, so several
/// expressions over the same variable assignment (e.g. all next-state
/// functions of one step) share sub-expression work.
pub fn eval_with_cache(
    pool: &ExprPool,
    root: ExprId,
    env: &impl EvalEnv,
    cache: &mut HashMap<ExprId, Value>,
) -> Value {
    for e in pool.post_order(root, |e| cache.contains_key(&e)) {
        let word = |x: ExprId| cache[&x].bits();
        let value = match *pool.node(e) {
            Node::Const { width, bits } => Value::bv(width, bits),
            Node::ConstArray {
                index_width,
                elem_width,
                bits,
            } => Value::Array(ArrayValue::filled(index_width, elem_width, bits)),
            Node::Var(v) => {
                let val = env.value_of(v);
                debug_assert_eq!(
                    val.sort(),
                    pool.var_sort(v),
                    "environment returned wrong sort for {v}"
                );
                val
            }
            Node::Un(op, a) => Value::bv(pool.width(e), ops::unary(op, pool.width(a), word(a))),
            Node::Bin(op, a, b) => Value::bv(
                pool.width(e),
                ops::binary(op, pool.width(a), word(a), pool.width(b), word(b)),
            ),
            Node::Ite(c, t, f) => cache[if cache[&c].as_bool() { &t } else { &f }].clone(),
            Node::Extract { hi, lo, arg } => {
                Value::bv(hi - lo + 1, ops::extract(hi, lo, word(arg)))
            }
            Node::Zext { arg, width } => Value::bv(width, word(arg)),
            Node::Sext { arg, width } => {
                Value::bv(width, ops::sext(pool.width(arg), width, word(arg)))
            }
            Node::Read { array, index } => {
                let a = cache[&array].as_array();
                Value::bv(a.elem_width, a.read(word(index)))
            }
            Node::Write {
                array,
                index,
                value,
            } => Value::Array(cache[&array].as_array().write(word(index), word(value))),
        };
        cache.insert(e, value);
    }
    cache[&root].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn dag_sharing() {
        let mut p = ExprPool::new();
        let x = p.new_var("x", Sort::Bv(32));
        let xv = p.var(x);
        // Build a deep chain: ((x+x)+(x+x))+... — shared nodes.
        let mut e = xv;
        for _ in 0..1000 {
            e = p.add(e, e);
        }
        let mut env = HashMap::new();
        env.insert(x, Value::bv(32, 1));
        // 2^1000 mod 2^32 == 0.
        assert_eq!(eval(&p, e, &env), Value::bv(32, 0));
    }

    #[test]
    fn ite_and_memory() {
        let mut p = ExprPool::new();
        let mem = p.new_var("mem", Sort::array(4, 8));
        let sel = p.new_var("sel", Sort::BOOL);
        let mv = p.var(mem);
        let sv = p.var(sel);
        let i3 = p.constv(4, 3);
        let v9 = p.constv(8, 9);
        let updated = p.write(mv, i3, v9);
        let chosen = p.ite(sv, updated, mv);
        let read = p.read(chosen, i3);

        let mut env = HashMap::new();
        env.insert(mem, Value::Array(ArrayValue::filled(4, 8, 0)));
        env.insert(sel, Value::bit(true));
        assert_eq!(eval(&p, read, &env), Value::bv(8, 9));
        env.insert(sel, Value::bit(false));
        assert_eq!(eval(&p, read, &env), Value::bv(8, 0));
    }

    #[test]
    fn closure_env() {
        let mut p = ExprPool::new();
        let x = p.new_var("x", Sort::Bv(8));
        let xv = p.var(x);
        let two = p.constv(8, 2);
        let e = p.shl(xv, two);
        let v = eval(&p, e, &|_v: VarId| Value::bv(8, 3));
        assert_eq!(v, Value::bv(8, 12));
    }

    #[test]
    fn extensions() {
        let mut p = ExprPool::new();
        let x = p.new_var("x", Sort::Bv(4));
        let xv = p.var(x);
        let z = p.zext(xv, 8);
        let s = p.sext(xv, 8);
        let mut env = HashMap::new();
        env.insert(x, Value::bv(4, 0b1010));
        assert_eq!(eval(&p, z, &env), Value::bv(8, 0x0A));
        assert_eq!(eval(&p, s, &env), Value::bv(8, 0xFA));
    }
}
