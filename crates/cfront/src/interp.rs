//! Symbolic lowering of the parsed C into a software-netlist.

use crate::parser::{parse_c, CExpr, CField, CFunction, CStmt, CStruct, CUnitAst};
use crate::CfrontError;
use rtlir::{ExprId, Sort, TransitionSystem, VarId};
use std::collections::HashMap;
use v2c::SwProgram;

/// Parses a v2c-emitted C program and recovers the software-netlist.
///
/// # Errors
///
/// Returns an error for C outside the v2c output subset or for
/// programs without the expected `main` loop structure.
pub fn parse_software_netlist(c_text: &str) -> Result<SwProgram, CfrontError> {
    let unit = parse_c(c_text)?;
    Lowerer::run(&unit)
}

fn err(m: impl Into<String>) -> CfrontError {
    CfrontError::new(m)
}

#[derive(Clone)]
enum Slot {
    /// A 64-bit scalar value.
    Val(ExprId),
    /// An array value (element width 64).
    Arr(ExprId),
}

#[derive(Clone, Default)]
struct Env {
    /// Local variables of the current function.
    locals: HashMap<String, Slot>,
    /// Out-parameter values written through pointers (`*o_x = e`).
    outs: HashMap<String, ExprId>,
}

struct Lowerer<'u> {
    unit: &'u CUnitAst,
    ts: TransitionSystem,
    /// Flattened state path (e.g. `u1.mem`) → pool variable.
    state_vars: HashMap<String, VarId>,
    /// Current value of each state slot during execution.
    state_env: HashMap<String, ExprId>,
    structs: HashMap<String, &'u CStruct>,
    functions: HashMap<String, &'u CFunction>,
    asserts: Vec<ExprId>,
    assumes: Vec<ExprId>,
    locals_trace: Vec<(String, ExprId)>,
    input_count: usize,
}

impl<'u> Lowerer<'u> {
    fn run(unit: &'u CUnitAst) -> Result<SwProgram, CfrontError> {
        let structs: HashMap<String, &CStruct> =
            unit.structs.iter().map(|s| (s.name.clone(), s)).collect();
        let functions: HashMap<String, &CFunction> =
            unit.functions.iter().map(|f| (f.name.clone(), f)).collect();
        let main = functions
            .get("main")
            .copied()
            .ok_or_else(|| err("no main function"))?;
        // The first *_init call names the top module.
        let top = main
            .body
            .iter()
            .find_map(|s| match s {
                CStmt::Call(n, _) if n.ends_with("_init") => {
                    Some(n.trim_end_matches("_init").to_string())
                }
                _ => None,
            })
            .ok_or_else(|| err("main does not call an init function"))?;

        let mut lw = Lowerer {
            unit,
            ts: TransitionSystem::new(top.clone()),
            state_vars: HashMap::new(),
            state_env: HashMap::new(),
            structs,
            functions,
            asserts: Vec::new(),
            assumes: Vec::new(),
            locals_trace: Vec::new(),
            input_count: 0,
        };
        let _ = lw.unit;

        // 1. Declare flattened state.
        lw.flatten_struct(&format!("{top}_state"), "")?;

        // 2. Interpret the init function concretely.
        let mut inits: HashMap<String, InitVal> = HashMap::new();
        lw.interp_init(&format!("{top}_init"), "", &mut inits)?;
        let state_paths: Vec<String> = lw.state_vars.keys().cloned().collect();
        for path in state_paths {
            let var = lw.state_vars[&path];
            match inits.get(&path) {
                Some(InitVal::Const(v)) => {
                    let e = lw.ts.pool_mut().constv(64, *v);
                    lw.ts.set_init(var, e);
                }
                Some(InitVal::Mem(writes)) => {
                    let sort = lw.ts.pool().var_sort(var);
                    let Sort::Array {
                        index_width: aw, ..
                    } = sort
                    else {
                        return Err(err("memory init on scalar state"));
                    };
                    let mut e = lw.ts.pool_mut().const_array(aw, 64, 0);
                    let mut keys: Vec<u64> = writes.keys().copied().collect();
                    keys.sort_unstable();
                    for k in keys {
                        let ke = lw.ts.pool_mut().constv(aw, k);
                        let ve = lw.ts.pool_mut().constv(64, writes[&k]);
                        e = lw.ts.pool_mut().write(e, ke, ve);
                    }
                    lw.ts.set_init(var, e);
                }
                Some(InitVal::Nondet) | None => {}
            }
        }

        // 3. Seed the state environment with current-state variables.
        for (path, &var) in &lw.state_vars.clone() {
            let e = lw.ts.pool_mut().var(var);
            lw.state_env.insert(path.clone(), e);
        }

        // 4. Interpret one iteration of main's loop.
        let loop_body = main
            .body
            .iter()
            .find_map(|s| match s {
                CStmt::Loop(b) => Some(b.clone()),
                _ => None,
            })
            .ok_or_else(|| err("main has no while loop"))?;
        // Pre-loop declarations (output temporaries).
        let mut env = Env::default();
        for s in &main.body {
            if let CStmt::Decl {
                name, array: None, ..
            } = s
            {
                let zero = lw.ts.pool_mut().constv(64, 0);
                env.locals.insert(name.clone(), Slot::Val(zero));
            }
        }
        lw.exec_block(&loop_body, &mut env, "")?;

        // 5. Install next-state functions, properties, constraints.
        for (path, &var) in &lw.state_vars.clone() {
            let next = lw.state_env[path];
            lw.ts.set_next(var, next);
        }
        let asserts = lw.asserts.clone();
        for (i, cond) in asserts.into_iter().enumerate() {
            let zero = lw.ts.pool_mut().constv(64, 0);
            let bad = lw.ts.pool_mut().eq(cond, zero);
            lw.ts.add_bad(bad, format!("assert_{i}"));
        }
        let assumes = lw.assumes.clone();
        for cond in assumes {
            let b = lw.truth(cond);
            lw.ts.add_constraint(b);
        }
        Ok(SwProgram {
            ts: lw.ts,
            locals: lw.locals_trace,
        })
    }

    fn flatten_struct(&mut self, sname: &str, prefix: &str) -> Result<(), CfrontError> {
        let st = *self
            .structs
            .get(sname)
            .ok_or_else(|| err(format!("unknown struct '{sname}'")))?;
        for f in &st.fields {
            match f {
                CField::Scalar(n) => {
                    let path = join(prefix, n);
                    let var = self.ts.add_state(path.clone(), Sort::Bv(64));
                    self.state_vars.insert(path, var);
                }
                CField::Array(n, sz) => {
                    let aw = (64 - (sz.max(&2) - 1).leading_zeros()).max(1);
                    let path = join(prefix, n);
                    let var = self.ts.add_state(path.clone(), Sort::array(aw, 64));
                    self.state_vars.insert(path, var);
                }
                CField::Sub(ty, n) => {
                    let child_prefix = join(prefix, n);
                    self.flatten_struct(ty, &child_prefix)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Init interpretation (concrete)
    // ------------------------------------------------------------------

    fn interp_init(
        &mut self,
        fname: &str,
        prefix: &str,
        out: &mut HashMap<String, InitVal>,
    ) -> Result<(), CfrontError> {
        let f = *self
            .functions
            .get(fname)
            .ok_or_else(|| err(format!("unknown function '{fname}'")))?;
        let body = f.body.clone();
        self.interp_init_block(&body, prefix, &mut HashMap::new(), out)
    }

    fn interp_init_block(
        &mut self,
        stmts: &[CStmt],
        prefix: &str,
        loop_env: &mut HashMap<String, u64>,
        out: &mut HashMap<String, InitVal>,
    ) -> Result<(), CfrontError> {
        for s in stmts {
            match s {
                CStmt::Block(b) => self.interp_init_block(b, prefix, loop_env, out)?,
                CStmt::Decl { .. } | CStmt::Ignored => {}
                CStmt::For(var, bound, body) => {
                    for v in 0..*bound {
                        loop_env.insert(var.clone(), v);
                        self.interp_init_block(body, prefix, loop_env, out)?;
                    }
                }
                CStmt::Assign(lhs, rhs) => {
                    let value = const_eval(rhs, loop_env);
                    match lhs {
                        CExpr::SField(fld) => {
                            let path = join(prefix, fld);
                            match value {
                                Some(v) => {
                                    out.insert(path, InitVal::Const(v));
                                }
                                None => {
                                    out.insert(path, InitVal::Nondet);
                                }
                            }
                        }
                        CExpr::Index(base, idx) => {
                            let fld = match &**base {
                                CExpr::SField(f) => f.clone(),
                                _ => return Err(err("unexpected init array target")),
                            };
                            let path = join(prefix, &fld);
                            let i = const_eval(idx, loop_env)
                                .ok_or_else(|| err("non-constant init index"))?;
                            match value {
                                Some(v) => match out
                                    .entry(path)
                                    .or_insert_with(|| InitVal::Mem(HashMap::new()))
                                {
                                    InitVal::Mem(m) => {
                                        m.insert(i, v);
                                    }
                                    other => *other = InitVal::Nondet,
                                },
                                None => {
                                    out.insert(path, InitVal::Nondet);
                                }
                            }
                        }
                        _ => return Err(err("unexpected init target")),
                    }
                }
                CStmt::Call(n, _args) if n.ends_with("_init") => {
                    // Child init: the instance name is the arg `&s->u1`.
                    let inst = match _args.first() {
                        Some(CExpr::AddrOf(b)) => match &**b {
                            CExpr::SField(f) => f.clone(),
                            _ => return Err(err("unexpected init call arg")),
                        },
                        _ => return Err(err("unexpected init call arg")),
                    };
                    let child_prefix = join(prefix, &inst);
                    self.interp_init(n, &child_prefix, out)?;
                }
                other => return Err(err(format!("unsupported statement in init: {other:?}"))),
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Step interpretation (symbolic)
    // ------------------------------------------------------------------

    fn exec_block(
        &mut self,
        stmts: &[CStmt],
        env: &mut Env,
        prefix: &str,
    ) -> Result<(), CfrontError> {
        for s in stmts {
            self.exec_stmt(s, env, prefix)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &CStmt, env: &mut Env, prefix: &str) -> Result<(), CfrontError> {
        match s {
            CStmt::Ignored | CStmt::Loop(_) => Ok(()),
            CStmt::Block(b) => self.exec_block(b, env, prefix),
            CStmt::Decl { name, array, init } => {
                let slot = match array {
                    Some(sz) => {
                        let aw = (64 - (sz.max(&2) - 1).leading_zeros()).max(1);
                        let e = self.ts.pool_mut().const_array(aw, 64, 0);
                        Slot::Arr(e)
                    }
                    None => {
                        let e = match init {
                            Some(i) => self.eval(i, env, prefix)?,
                            None => self.ts.pool_mut().constv(64, 0),
                        };
                        if !name.starts_with("__") {
                            self.locals_trace.push((name.clone(), e));
                        }
                        Slot::Val(e)
                    }
                };
                env.locals.insert(name.clone(), slot);
                Ok(())
            }
            CStmt::Assign(lhs, rhs) => {
                let value = self.eval(rhs, env, prefix)?;
                self.assign(lhs, value, env, prefix)
            }
            CStmt::DerefAssign(name, rhs) => {
                let value = self.eval(rhs, env, prefix)?;
                env.outs.insert(name.clone(), value);
                Ok(())
            }
            CStmt::Assert(e) => {
                let v = self.eval(e, env, prefix)?;
                self.asserts.push(v);
                Ok(())
            }
            CStmt::Assume(e) => {
                let v = self.eval(e, env, prefix)?;
                self.assumes.push(v);
                Ok(())
            }
            CStmt::For(var, bound, body) => {
                for i in 0..*bound {
                    let c = self.ts.pool_mut().constv(64, i);
                    env.locals.insert(var.clone(), Slot::Val(c));
                    self.exec_block(body, env, prefix)?;
                }
                Ok(())
            }
            CStmt::If(c, t, e) => {
                let cv = self.eval(c, env, prefix)?;
                let cond = self.truth(cv);
                let base_env = env.clone();
                let base_state = self.state_env.clone();

                self.exec_block(t, env, prefix)?;
                let then_env = env.clone();
                let then_state = self.state_env.clone();

                *env = base_env.clone();
                self.state_env = base_state.clone();
                self.exec_block(e, env, prefix)?;
                let else_env = env.clone();
                let else_state = self.state_env.clone();

                // Merge.
                *env = self.merge_env(cond, &then_env, &else_env, &base_env);
                self.state_env = self.merge_map(cond, &then_state, &else_state, &base_state);
                Ok(())
            }
            CStmt::Call(n, args) => self.inline_call(n, args, env, prefix),
        }
    }

    fn merge_env(&mut self, cond: ExprId, t: &Env, e: &Env, base: &Env) -> Env {
        let mut out = Env::default();
        let mut keys: Vec<String> = t.locals.keys().cloned().collect();
        for k in e.locals.keys() {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
        for k in keys {
            let slot = match (t.locals.get(&k), e.locals.get(&k)) {
                (Some(Slot::Val(a)), Some(Slot::Val(b))) => {
                    Slot::Val(self.ts.pool_mut().ite(cond, *a, *b))
                }
                (Some(Slot::Arr(a)), Some(Slot::Arr(b))) => {
                    Slot::Arr(self.ts.pool_mut().ite(cond, *a, *b))
                }
                (Some(x), None) => x.clone(),
                (None, Some(x)) => x.clone(),
                _ => continue,
            };
            out.locals.insert(k, slot);
        }
        let mut okeys: Vec<String> = t.outs.keys().cloned().collect();
        for k in e.outs.keys() {
            if !okeys.contains(k) {
                okeys.push(k.clone());
            }
        }
        for k in okeys {
            let v = match (t.outs.get(&k), e.outs.get(&k), base.outs.get(&k)) {
                (Some(a), Some(b), _) => self.ts.pool_mut().ite(cond, *a, *b),
                (Some(a), None, Some(b)) => self.ts.pool_mut().ite(cond, *a, *b),
                (None, Some(b), Some(a)) => self.ts.pool_mut().ite(cond, *a, *b),
                (Some(a), None, None) => *a,
                (None, Some(b), None) => *b,
                _ => continue,
            };
            out.outs.insert(k, v);
        }
        out
    }

    fn merge_map(
        &mut self,
        cond: ExprId,
        t: &HashMap<String, ExprId>,
        e: &HashMap<String, ExprId>,
        base: &HashMap<String, ExprId>,
    ) -> HashMap<String, ExprId> {
        let mut out = base.clone();
        for (k, &tv) in t {
            let ev = e.get(k).or_else(|| base.get(k)).copied().unwrap_or(tv);
            out.insert(k.clone(), self.ts.pool_mut().ite(cond, tv, ev));
        }
        for (k, &ev) in e {
            if !t.contains_key(k) {
                let tv = base.get(k).copied().unwrap_or(ev);
                out.insert(k.clone(), self.ts.pool_mut().ite(cond, tv, ev));
            }
        }
        out
    }

    fn inline_call(
        &mut self,
        name: &str,
        args: &[CExpr],
        env: &mut Env,
        prefix: &str,
    ) -> Result<(), CfrontError> {
        if name.ends_with("_init") {
            return Ok(()); // handled separately
        }
        let f = *self
            .functions
            .get(name)
            .ok_or_else(|| err(format!("unknown function '{name}'")))?;
        let mut child_env = Env::default();
        let mut child_prefix = prefix.to_string();
        // (child param → caller out target)
        let mut out_map: Vec<(String, String)> = Vec::new();
        for ((pname, is_ptr), arg) in f.params.iter().zip(args) {
            if *is_ptr {
                match arg {
                    CExpr::AddrOf(b) => match &**b {
                        CExpr::SField(fld) => {
                            child_prefix = join(prefix, fld);
                        }
                        CExpr::Ident(local) => {
                            out_map.push((pname.clone(), local.clone()));
                        }
                        _ => return Err(err("unsupported pointer argument")),
                    },
                    _ => return Err(err("pointer parameter needs &arg")),
                }
            } else {
                let v = self.eval(arg, env, prefix)?;
                child_env.locals.insert(pname.clone(), Slot::Val(v));
            }
        }
        let body = f.body.clone();
        self.exec_block(&body, &mut child_env, &child_prefix)?;
        // Propagate out-parameter writes into caller locals.
        for (pname, local) in out_map {
            if let Some(&v) = child_env.outs.get(&pname) {
                env.locals.insert(local, Slot::Val(v));
            }
        }
        Ok(())
    }

    fn truth(&mut self, v: ExprId) -> ExprId {
        if self.ts.pool().sort(v).is_bool() {
            return v;
        }
        let zero = self.ts.pool_mut().constv(64, 0);
        self.ts.pool_mut().ne(v, zero)
    }

    fn bool_to_word(&mut self, b: ExprId) -> ExprId {
        self.ts.pool_mut().zext(b, 64)
    }

    fn eval(&mut self, e: &CExpr, env: &mut Env, prefix: &str) -> Result<ExprId, CfrontError> {
        Ok(match e {
            CExpr::Num(n) => self.ts.pool_mut().constv(64, *n),
            CExpr::Nondet => {
                self.input_count += 1;
                let v = self
                    .ts
                    .add_input(format!("in{}", self.input_count), Sort::Bv(64));
                self.ts.pool_mut().var(v)
            }
            CExpr::Ident(n) => match env.locals.get(n) {
                Some(Slot::Val(v)) => *v,
                Some(Slot::Arr(_)) => return Err(err(format!("array '{n}' used as scalar"))),
                None => return Err(err(format!("unknown identifier '{n}'"))),
            },
            CExpr::SField(f) => {
                let path = join(prefix, f);
                *self
                    .state_env
                    .get(&path)
                    .ok_or_else(|| err(format!("unknown state field '{path}'")))?
            }
            CExpr::Index(base, idx) => {
                let arr = self.eval_array(base, env, prefix)?;
                let i = self.eval(idx, env, prefix)?;
                let Sort::Array {
                    index_width: aw, ..
                } = self.ts.pool().sort(arr)
                else {
                    return Err(err("indexing a non-array"));
                };
                let ii = self.ts.pool_mut().resize_zext(i, aw);
                self.ts.pool_mut().read(arr, ii)
            }
            CExpr::Unary(op, a) => {
                let av = self.eval(a, env, prefix)?;
                match *op {
                    "~" => self.ts.pool_mut().not(av),
                    "-" => self.ts.pool_mut().neg(av),
                    "!" => {
                        let zero = self.ts.pool_mut().constv(64, 0);
                        let b = self.ts.pool_mut().eq(av, zero);
                        self.bool_to_word(b)
                    }
                    _ => return Err(err(format!("unary '{op}'"))),
                }
            }
            CExpr::Binary(op, a, b) => {
                let av = self.eval(a, env, prefix)?;
                let bv = self.eval(b, env, prefix)?;
                let p = self.ts.pool_mut();
                match *op {
                    "+" => p.add(av, bv),
                    "-" => p.sub(av, bv),
                    "*" => p.mul(av, bv),
                    "/" => p.udiv(av, bv),
                    "%" => p.urem(av, bv),
                    "&" => p.and(av, bv),
                    "|" => p.or(av, bv),
                    "^" => p.xor(av, bv),
                    "<<" => p.shl(av, bv),
                    ">>" => p.lshr(av, bv),
                    "==" => {
                        let c = p.eq(av, bv);
                        self.bool_to_word(c)
                    }
                    "!=" => {
                        let c = p.ne(av, bv);
                        self.bool_to_word(c)
                    }
                    "<" => {
                        let c = p.ult(av, bv);
                        self.bool_to_word(c)
                    }
                    "<=" => {
                        let c = p.ule(av, bv);
                        self.bool_to_word(c)
                    }
                    ">" => {
                        let c = p.ugt(av, bv);
                        self.bool_to_word(c)
                    }
                    ">=" => {
                        let c = p.uge(av, bv);
                        self.bool_to_word(c)
                    }
                    "&&" => {
                        let ta = self.truth(av);
                        let tb = self.truth(bv);
                        let c = self.ts.pool_mut().and(ta, tb);
                        self.bool_to_word(c)
                    }
                    "||" => {
                        let ta = self.truth(av);
                        let tb = self.truth(bv);
                        let c = self.ts.pool_mut().or(ta, tb);
                        self.bool_to_word(c)
                    }
                    other => return Err(err(format!("binary '{other}'"))),
                }
            }
            CExpr::Ternary(c, a, b) => {
                let cv = self.eval(c, env, prefix)?;
                let cond = self.truth(cv);
                let av = self.eval(a, env, prefix)?;
                let bv = self.eval(b, env, prefix)?;
                self.ts.pool_mut().ite(cond, av, bv)
            }
            CExpr::Parity(a) => {
                let av = self.eval(a, env, prefix)?;
                let r = self.ts.pool_mut().redxor(av);
                self.bool_to_word(r)
            }
            CExpr::AddrOf(_) => return Err(err("address-of outside call arguments")),
        })
    }

    fn eval_array(
        &mut self,
        e: &CExpr,
        env: &mut Env,
        prefix: &str,
    ) -> Result<ExprId, CfrontError> {
        match e {
            CExpr::Ident(n) => match env.locals.get(n) {
                Some(Slot::Arr(a)) => Ok(*a),
                _ => Err(err(format!("'{n}' is not a local array"))),
            },
            CExpr::SField(f) => {
                let path = join(prefix, f);
                self.state_env
                    .get(&path)
                    .copied()
                    .ok_or_else(|| err(format!("unknown state array '{path}'")))
            }
            _ => Err(err("unsupported array expression")),
        }
    }

    fn assign(
        &mut self,
        lhs: &CExpr,
        value: ExprId,
        env: &mut Env,
        prefix: &str,
    ) -> Result<(), CfrontError> {
        match lhs {
            CExpr::Ident(n) => {
                env.locals.insert(n.clone(), Slot::Val(value));
                Ok(())
            }
            CExpr::SField(f) => {
                let path = join(prefix, f);
                if !self.state_env.contains_key(&path) {
                    return Err(err(format!("assignment to unknown state '{path}'")));
                }
                self.state_env.insert(path, value);
                Ok(())
            }
            CExpr::Index(base, idx) => {
                let arr = self.eval_array(base, env, prefix)?;
                let i = self.eval(idx, env, prefix)?;
                let Sort::Array {
                    index_width: aw, ..
                } = self.ts.pool().sort(arr)
                else {
                    return Err(err("indexing a non-array"));
                };
                let ii = self.ts.pool_mut().resize_zext(i, aw);
                let w = self.ts.pool_mut().write(arr, ii, value);
                // Store back.
                match &**base {
                    CExpr::Ident(n) => {
                        env.locals.insert(n.clone(), Slot::Arr(w));
                    }
                    CExpr::SField(f) => {
                        let path = join(prefix, f);
                        self.state_env.insert(path, w);
                    }
                    _ => return Err(err("unsupported array assignment base")),
                }
                Ok(())
            }
            other => Err(err(format!("unsupported assignment target {other:?}"))),
        }
    }
}

enum InitVal {
    Const(u64),
    Mem(HashMap<u64, u64>),
    Nondet,
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Concrete evaluation for init expressions (`None` = nondet-tainted).
fn const_eval(e: &CExpr, loop_env: &HashMap<String, u64>) -> Option<u64> {
    Some(match e {
        CExpr::Num(n) => *n,
        CExpr::Ident(n) => *loop_env.get(n)?,
        CExpr::Nondet => return None,
        CExpr::Binary("&", a, b) => const_eval(a, loop_env)? & const_eval(b, loop_env)?,
        CExpr::Binary("+", a, b) => const_eval(a, loop_env)?.wrapping_add(const_eval(b, loop_env)?),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtlir::{Simulator, Value};

    /// Round-trip check: emit C for a Verilog design, parse it back,
    /// and co-simulate the recovered software-netlist against the
    /// directly synthesized one.
    fn roundtrip(src: &str, top: &str, cycles: u64) {
        let direct = vfront::compile(src, top).expect("verilog compiles");
        let mods = vfront::parse(src).expect("parses");
        let design = vfront::elaborate(&mods, top).expect("elaborates");
        let c_text = v2c::emit_c(&design, v2c::MainStyle::Verifier).expect("emits");
        let parsed = parse_software_netlist(&c_text)
            .unwrap_or_else(|e| panic!("lowering failed: {e}\n{c_text}"));

        assert_eq!(
            parsed.ts.bads().len(),
            direct.bads().len(),
            "same number of properties"
        );

        // Drive both with the same (masked) input values.
        let mut rng = StdRng::seed_from_u64(0x0C0FFEE);
        let d_sorts: Vec<u32> = direct
            .inputs()
            .iter()
            .map(|&v| direct.pool().var_sort(v).width())
            .collect();
        let mut dsim = Simulator::new(&direct);
        let mut psim = Simulator::new(&parsed.ts);
        for cycle in 0..cycles {
            let vals: Vec<u64> = d_sorts
                .iter()
                .map(|&w| rng.gen::<u64>() & rtlir::value::mask(w))
                .collect();
            let d_in: Vec<Value> = vals
                .iter()
                .zip(&d_sorts)
                .map(|(&v, &w)| Value::bv(w, v))
                .collect();
            // The parsed program's inputs are 64-bit nondets, in the
            // same order, masked inside the program.
            let p_in: Vec<Value> = vals.iter().map(|&v| Value::bv(64, v)).collect();
            let d_bads = dsim.bad_states_with_inputs(&d_in);
            let p_bads = psim.bad_states_with_inputs(&p_in);
            assert_eq!(
                d_bads.iter().any(|&b| b),
                p_bads.iter().any(|&b| b),
                "cycle {cycle}: assertion flags diverge"
            );
            dsim.step(&d_in);
            psim.step(&p_in);
        }
    }

    #[test]
    fn counter_roundtrip() {
        roundtrip(
            r#"
            module counter(input clk, input rst, output wrap);
              reg [3:0] c;
              initial c = 0;
              always @(posedge clk) if (rst) c <= 0; else c <= c + 1;
              assign wrap = (c == 4'hF);
              assert property (c != 4'd13);
            endmodule
            "#,
            "counter",
            100,
        );
    }

    #[test]
    fn hierarchy_roundtrip() {
        roundtrip(
            r#"
            module acc(input clk, input [3:0] a, output [3:0] y);
              reg [3:0] r;
              initial r = 0;
              always @(posedge clk) r <= r + a;
              assign y = r;
              assert property (r != 4'd11);
            endmodule
            module top(input clk, input [3:0] x);
              wire [3:0] s1;
              wire [3:0] s2;
              acc u1 (.clk(clk), .a(x), .y(s1));
              acc u2 (.clk(clk), .a(s1), .y(s2));
              assert property (s2 != 4'd7);
            endmodule
            "#,
            "top",
            150,
        );
    }

    #[test]
    fn memory_roundtrip() {
        roundtrip(
            r#"
            module m(input clk, input we, input [2:0] wa, input [2:0] ra,
                     input [7:0] d);
              reg [7:0] mem [0:7];
              reg [7:0] last;
              initial last = 0;
              always @(posedge clk) begin
                if (we) mem[wa] <= d;
                last <= mem[ra];
              end
              assert property (last != 8'hEE);
            endmodule
            "#,
            "m",
            200,
        );
    }

    /// An output `reg` that only `initial` sets keeps its reset value in
    /// the C too: the property holds on every cycle of both models.
    #[test]
    fn frozen_output_register_roundtrip() {
        roundtrip(
            r#"
            module top(input clk, input a, output reg o);
              initial o = 1;
              reg p;
              initial p = 0;
              always @(posedge clk) p <= a;
              assert property (o);
            endmodule
            "#,
            "top",
            20,
        );
    }

    /// A signal narrower than the instance output it connects to keeps
    /// the output's low bits in the C too.
    #[test]
    fn narrow_output_roundtrip() {
        roundtrip(
            r#"
            module add3(input [7:0] a, output [7:0] y);
              assign y = a + 8'd3;
            endmodule
            module top(input clk, input [7:0] x);
              wire [3:0] w;
              reg [7:0] r;
              initial r = 0;
              add3 u(.a(x), .y(w));
              always @(posedge clk) r <= w;
              assert property (r < 8'd16);
            endmodule
            "#,
            "top",
            50,
        );
    }

    #[test]
    fn benchmarks_roundtrip() {
        // Every paper benchmark must survive the full loop:
        // Verilog -> C text -> parsed software-netlist ≈ direct.
        for b in bmarks_list() {
            roundtrip(b.0, b.1, 200);
        }
    }

    fn bmarks_list() -> Vec<(&'static str, &'static str)> {
        vec![
            (include_str!("../../../benchmarks/bufal.v"), "bufal"),
            (include_str!("../../../benchmarks/daio.v"), "daio"),
            (include_str!("../../../benchmarks/dekker.v"), "dekker"),
            (include_str!("../../../benchmarks/fifo.v"), "fifo"),
            (include_str!("../../../benchmarks/heap.v"), "heap"),
            (include_str!("../../../benchmarks/huffman.v"), "huffman"),
            (include_str!("../../../benchmarks/ibuf.v"), "ibuf"),
            (include_str!("../../../benchmarks/rcu.v"), "rcu"),
            (include_str!("../../../benchmarks/tictactoe.v"), "tictactoe"),
            (include_str!("../../../benchmarks/npipe_mp.v"), "npipe_mp"),
            (
                include_str!("../../../benchmarks/traffic_light.v"),
                "traffic_light",
            ),
            (include_str!("../../../benchmarks/vending.v"), "vending"),
        ]
    }
}
