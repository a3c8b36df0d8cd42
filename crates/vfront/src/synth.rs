//! Synthesis: flattening, dependency analysis and word-level netlist
//! construction.
//!
//! This implements the paper's §III-B analysis: combinational blocks
//! (continuous assignments and `always @*` processes) are ordered by
//! their *intra- and inter-modular* data dependencies and symbolically
//! executed into word-level expressions; clocked blocks get two-phase
//! (read-then-commit) semantics matching non-blocking assignment.
//! [`check`] has rejected combinational cycles, transparent latches and
//! multiple clocks, exactly the restrictions the paper states for v2c,
//! and decided the clock, the registers and their reset values.

use crate::ast::{BinaryOp, Dir, Expr, LValue, Stmt, UnaryOp};
use crate::elab::{
    bit_index_width, check, expr_reads, flat_name, lookup, part_bounds, schedule, self_width,
    stmt_reads, target_widths, Checked, Design, ESignal, ElabModule, InitialValues, Role,
};
use crate::error::VerilogError;
use rtlir::{ExprId, Sort, TransitionSystem, VarId};
use std::collections::{HashMap, HashSet};

/// Synthesizes an elaborated design into a word-level transition
/// system (inputs = top-level input ports minus the clock, and undriven
/// wires; states = registers and memories; bads = negated assertions).
///
/// # Errors
///
/// Reports the violations of [`check`]: drivers, instance connections,
/// the clock, names, widths and bounds, registers, transparent latches,
/// reset values and combinational loops.
pub fn synthesize(design: &Design) -> Result<TransitionSystem, VerilogError> {
    let checked = check(design)?;
    let flat = flatten(design, &checked);
    let mut s = Synthesizer {
        flat,
        ts: TransitionSystem::new(design.modules[design.top].name.clone()),
        vars: HashMap::new(),
        sig_expr: HashMap::new(),
    };
    s.run()?;
    Ok(s.ts)
}

// ----------------------------------------------------------------------
// Flattening
// ----------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Unit {
    Assign(LValue, Expr),
    Comb(Stmt),
}

#[derive(Clone, Debug, Default)]
struct Flat {
    /// Every signal under its hierarchical name, with its role.
    signals: Vec<(ESignal, Role)>,
    index: HashMap<String, usize>,
    units: Vec<Unit>,
    clocked: Vec<Stmt>,
    resets: InitialValues,
    asserts: Vec<(String, Expr)>,
    assumes: Vec<Expr>,
}

impl Flat {
    fn sig(&self, name: &str) -> Option<&ESignal> {
        self.index.get(name).map(|&i| &self.signals[i].0)
    }
}

fn prefix_expr(prefix: &str, e: &Expr) -> Expr {
    let mut out = e.map_operands(|x| prefix_expr(prefix, x));
    if let Expr::Ident(n) | Expr::Index(n, _) | Expr::Part(n, _, _) = &mut out {
        *n = flat_name(prefix, n);
    }
    out
}

fn prefix_lvalue(prefix: &str, lv: &LValue) -> LValue {
    lv.map(&mut |n| flat_name(prefix, n), &mut |e| {
        prefix_expr(prefix, e)
    })
}

fn prefix_stmt(prefix: &str, s: &Stmt) -> Stmt {
    s.map(&mut |n| flat_name(prefix, n), &mut |e| {
        prefix_expr(prefix, e)
    })
}

fn flatten(design: &Design, checked: &[Checked]) -> Flat {
    let mut flat = Flat::default();
    flatten_module(design, checked, design.top, "", &mut flat);
    flat
}

fn flatten_module(design: &Design, checked: &[Checked], idx: usize, prefix: &str, flat: &mut Flat) {
    let m: &ElabModule = &design.modules[idx];
    for (sig, &role) in m.signals.iter().zip(&checked[idx].roles) {
        let name = flat_name(prefix, &sig.name);
        flat.index.insert(name.clone(), flat.signals.len());
        flat.signals.push((
            ESignal {
                name,
                ..sig.clone()
            },
            role,
        ));
    }
    let resets = &checked[idx].resets;
    for (name, &value) in &resets.scalars {
        flat.resets.scalars.insert(flat_name(prefix, name), value);
    }
    for (name, rows) in &resets.rows {
        flat.resets
            .rows
            .insert(flat_name(prefix, name), rows.clone());
    }
    for (lhs, rhs) in &m.assigns {
        flat.units.push(Unit::Assign(
            prefix_lvalue(prefix, lhs),
            prefix_expr(prefix, rhs),
        ));
    }
    for (clock, body) in &m.processes {
        let body = prefix_stmt(prefix, body);
        match clock {
            None => flat.units.push(Unit::Comb(body)),
            Some(_) => flat.clocked.push(body),
        }
    }
    for (label, cond) in &m.asserts {
        flat.asserts
            .push((flat_name(prefix, label), prefix_expr(prefix, cond)));
    }
    for a in &m.assumes {
        flat.assumes.push(prefix_expr(prefix, a));
    }
    // Instance ports: the clock is no data, the other inputs are
    // driven by their connections and drive the plain signals the
    // outputs connect to.
    for inst in &m.instances {
        let child_prefix = flat_name(prefix, &inst.name);
        flatten_module(design, checked, inst.module, &child_prefix, flat);
        let child = &design.modules[inst.module];
        for (i, conn) in &inst.conns {
            let port = flat_name(&child_prefix, &child.signals[*i].name);
            let unit = match (checked[inst.module].roles[*i], child.signals[*i].port, conn) {
                (Role::Clock, ..) => continue,
                (_, Some(Dir::Input), conn) => {
                    Unit::Assign(LValue::Ident(port), prefix_expr(prefix, conn))
                }
                (_, _, Expr::Ident(n)) => {
                    Unit::Assign(LValue::Ident(flat_name(prefix, n)), Expr::Ident(port))
                }
                _ => continue,
            };
            flat.units.push(unit);
        }
    }
}

// ----------------------------------------------------------------------
// Synthesis proper
// ----------------------------------------------------------------------

/// A process environment: the values its assignments gave so far.
type Env = HashMap<String, ExprId>;

struct Synthesizer {
    flat: Flat,
    ts: TransitionSystem,
    vars: HashMap<String, VarId>,
    sig_expr: HashMap<String, ExprId>,
}

impl Synthesizer {
    fn err(msg: impl Into<String>) -> VerilogError {
        VerilogError::general(msg)
    }

    fn run(&mut self) -> Result<(), VerilogError> {
        // ---- variables: states for registers, inputs for top-level
        // inputs and undriven wires, none for the clock and for what
        // a combinational unit drives ----
        let unit_defs: Vec<Vec<String>> = self
            .flat
            .units
            .iter()
            .map(|u| match u {
                Unit::Assign(lv, _) => lv.targets(),
                Unit::Comb(s) => s.targets(),
            })
            .collect();
        let defined: HashSet<&String> = unit_defs.iter().flatten().collect();
        for (sig, role) in &self.flat.signals {
            let name = &sig.name;
            let sort = match sig.memory {
                Some((_, addr_w)) => Sort::array(addr_w, sig.width),
                None => Sort::Bv(sig.width),
            };
            let v = match role {
                Role::Register => self.ts.add_state(name.clone(), sort),
                Role::Clock => continue,
                Role::Net if defined.contains(name) => continue,
                Role::Net => self.ts.add_input(name.clone(), sort),
            };
            self.vars.insert(name.clone(), v);
            let e = self.ts.pool_mut().var(v);
            self.sig_expr.insert(name.clone(), e);
        }

        // ---- schedule and build combinational units (§III-B) ----
        let unit_reads: Vec<HashSet<String>> = self
            .flat
            .units
            .iter()
            .map(|u| {
                let mut reads = HashSet::new();
                match u {
                    Unit::Assign(_, rhs) => expr_reads(rhs, &HashSet::new(), &mut reads),
                    Unit::Comb(s) => stmt_reads(s, &mut HashSet::new(), &mut reads),
                }
                reads
            })
            .collect();
        for ui in schedule(&unit_defs, &unit_reads)? {
            // A continuous assignment runs as a one-statement process.
            let body = match &self.flat.units[ui] {
                Unit::Assign(lv, rhs) => Stmt::Blocking(lv.clone(), rhs.clone()),
                Unit::Comb(s) => s.clone(),
            };
            let mut env = Env::new();
            self.exec_stmt(&body, &mut env, &mut Env::new())?;
            self.sig_expr.extend(env);
        }

        // ---- clocked processes ----
        let clocked = self.flat.clocked.clone();
        // `check_drivers` has seen to it that one process drives each
        // register.
        let mut next_map: HashMap<String, ExprId> = HashMap::new();
        for body in &clocked {
            next_map.extend(self.exec_clocked(body)?);
        }
        // ---- next-state functions and reset values; frozen registers
        // keep their value ----
        let init = &self.flat.resets;
        for (sig, role) in &self.flat.signals {
            if *role != Role::Register {
                continue;
            }
            let v = self.vars[&sig.name];
            let next = next_map.get(&sig.name).copied();
            self.ts
                .set_next(v, next.unwrap_or(self.sig_expr[&sig.name]));
            let pool = self.ts.pool_mut();
            let reset = match (sig.memory, init.rows.get(&sig.name)) {
                (Some((_, addr_w)), Some(rows)) => {
                    let mut e = pool.const_array(addr_w, sig.width, 0);
                    for (&k, &value) in rows {
                        let i = pool.constv(addr_w, k);
                        let val = pool.constv(sig.width, value);
                        e = pool.write(e, i, val);
                    }
                    e
                }
                _ => match init.scalars.get(&sig.name) {
                    Some(&value) => pool.constv(sig.width, value),
                    None => continue,
                },
            };
            self.ts.set_init(v, reset);
        }

        // ---- properties ----
        let asserts = self.flat.asserts.clone();
        for (label, cond) in &asserts {
            let c = self.build_bool(cond)?;
            let bad = self.ts.pool_mut().not(c);
            self.ts.add_bad(bad, label.clone());
        }
        let assumes = self.flat.assumes.clone();
        for cond in &assumes {
            let c = self.build_bool(cond)?;
            self.ts.add_constraint(c);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expression building
    // ------------------------------------------------------------------

    fn sig(&self, name: &str) -> Result<&ESignal, VerilogError> {
        lookup(&|n| self.flat.sig(n), name)
    }

    fn width(&self, e: &Expr) -> Result<u32, VerilogError> {
        self_width(e, &|n| self.flat.sig(n))
    }

    /// Builds `e` at exactly `width` bits (Verilog assignment-context
    /// semantics: the context width propagates into arithmetic).
    fn build(&mut self, e: &Expr, width: u32) -> Result<ExprId, VerilogError> {
        let p = |s: &mut Self, e: ExprId, w: u32| s.ts.pool_mut().resize_zext(e, w);
        Ok(match e {
            Expr::Number { value, .. } => self.ts.pool_mut().constv(width, *value),
            Expr::Ident(n) => {
                let base = self.read_sig(n)?;
                p(self, base, width)
            }
            Expr::Unary(op, a) => match op {
                UnaryOp::Not => {
                    let av = self.build(a, width)?;
                    self.ts.pool_mut().not(av)
                }
                UnaryOp::Neg => {
                    let av = self.build(a, width)?;
                    self.ts.pool_mut().neg(av)
                }
                UnaryOp::Plus => self.build(a, width)?,
                UnaryOp::LogicNot => {
                    let b = self.build_bool(a)?;
                    let nb = self.ts.pool_mut().not(b);
                    p(self, nb, width)
                }
                UnaryOp::RedAnd
                | UnaryOp::RedOr
                | UnaryOp::RedXor
                | UnaryOp::RedNand
                | UnaryOp::RedNor
                | UnaryOp::RedXnor => {
                    let w = self.width(a)?;
                    let av = self.build(a, w)?;
                    let pool = self.ts.pool_mut();
                    let r = match op {
                        UnaryOp::RedAnd | UnaryOp::RedNand => pool.redand(av),
                        UnaryOp::RedOr | UnaryOp::RedNor => pool.redor(av),
                        _ => pool.redxor(av),
                    };
                    let r = match op {
                        UnaryOp::RedNand | UnaryOp::RedNor | UnaryOp::RedXnor => pool.not(r),
                        _ => r,
                    };
                    p(self, r, width)
                }
            },
            Expr::Binary(op, a, b) => {
                use BinaryOp as B;
                match op {
                    B::Add
                    | B::Sub
                    | B::Mul
                    | B::Div
                    | B::Mod
                    | B::And
                    | B::Or
                    | B::Xor
                    | B::Xnor => {
                        let aw = self.width(a)?;
                        let bw = self.width(b)?;
                        let w = width.max(aw).max(bw);
                        let av = self.build(a, w)?;
                        let bv = self.build(b, w)?;
                        let r = match op {
                            B::Add => self.ts.pool_mut().add(av, bv),
                            B::Sub => self.ts.pool_mut().sub(av, bv),
                            B::Mul => self.ts.pool_mut().mul(av, bv),
                            B::Div => self.ts.pool_mut().udiv(av, bv),
                            B::Mod => self.ts.pool_mut().urem(av, bv),
                            B::And => self.ts.pool_mut().and(av, bv),
                            B::Or => self.ts.pool_mut().or(av, bv),
                            B::Xor => self.ts.pool_mut().xor(av, bv),
                            B::Xnor => {
                                let x = self.ts.pool_mut().xor(av, bv);
                                self.ts.pool_mut().not(x)
                            }
                            _ => unreachable!(),
                        };
                        p(self, r, width)
                    }
                    B::Shl | B::Sshl | B::Shr | B::Sshr => {
                        let aw = self.width(a)?;
                        let w = width.max(aw);
                        let av = self.build(a, w)?;
                        let bw = self.width(b)?;
                        let bv = self.build(b, bw)?;
                        let r = match op {
                            B::Shl | B::Sshl => self.ts.pool_mut().shl(av, bv),
                            B::Shr => self.ts.pool_mut().lshr(av, bv),
                            B::Sshr => self.ts.pool_mut().ashr(av, bv),
                            _ => unreachable!(),
                        };
                        p(self, r, width)
                    }
                    B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
                        let w = self.width(a)?.max(self.width(b)?);
                        let av = self.build(a, w)?;
                        let bv = self.build(b, w)?;
                        let r = match op {
                            B::Eq => self.ts.pool_mut().eq(av, bv),
                            B::Ne => self.ts.pool_mut().ne(av, bv),
                            B::Lt => self.ts.pool_mut().ult(av, bv),
                            B::Le => self.ts.pool_mut().ule(av, bv),
                            B::Gt => self.ts.pool_mut().ugt(av, bv),
                            B::Ge => self.ts.pool_mut().uge(av, bv),
                            _ => unreachable!(),
                        };
                        p(self, r, width)
                    }
                    B::LogicAnd | B::LogicOr => {
                        let av = self.build_bool(a)?;
                        let bv = self.build_bool(b)?;
                        let r = if *op == B::LogicAnd {
                            self.ts.pool_mut().and(av, bv)
                        } else {
                            self.ts.pool_mut().or(av, bv)
                        };
                        p(self, r, width)
                    }
                }
            }
            Expr::Ternary(c, a, b) => {
                let cv = self.build_bool(c)?;
                let av = self.build(a, width)?;
                let bv = self.build(b, width)?;
                self.ts.pool_mut().ite(cv, av, bv)
            }
            Expr::Concat(parts) => {
                self.width(e)?;
                let acc = self.build_concat(parts)?;
                p(self, acc, width)
            }
            Expr::Repl(_, parts) => {
                let total = self.width(e)?;
                let unit = self.build_concat(parts)?;
                let mut acc = unit;
                for _ in 1..total / self.ts.pool().width(unit) {
                    acc = self.ts.pool_mut().concat(acc, unit);
                }
                p(self, acc, width)
            }
            Expr::Index(n, idx) => {
                let sig = self.sig(n)?.clone();
                let base = self.read_sig(n)?;
                if let Some((_, addr_w)) = sig.memory {
                    let iv = self.build(idx, addr_w)?;
                    let r = self.ts.pool_mut().read(base, iv);
                    p(self, r, width)
                } else {
                    // Dynamic bit select: (sig >> (idx - lsb)) & 1.
                    let iv = self.bit_offset(&sig, idx)?;
                    let shifted = self.ts.pool_mut().lshr(base, iv);
                    let bit = self.ts.pool_mut().extract(shifted, 0, 0);
                    p(self, bit, width)
                }
            }
            Expr::Part(n, hi, lo) => {
                let (h, l) = part_bounds(n, hi, lo, &|x| self.flat.sig(x))?;
                let base = self.read_sig(n)?;
                let r = self.ts.pool_mut().extract(base, h, l);
                p(self, r, width)
            }
        })
    }

    /// Builds the parts of a concatenation at their own widths, the
    /// first part in the most significant bits.
    fn build_concat(&mut self, parts: &[Expr]) -> Result<ExprId, VerilogError> {
        let mut acc: Option<ExprId> = None;
        for part in parts {
            let w = self.width(part)?;
            let pv = self.build(part, w)?;
            acc = Some(match acc {
                None => pv,
                Some(a) => self.ts.pool_mut().concat(a, pv),
            });
        }
        acc.ok_or_else(|| Self::err("empty concatenation"))
    }

    /// Builds the bit offset `idx - lsb` of a dynamic bit-select of
    /// `sig`, at [`bit_index_width`].
    fn bit_offset(&mut self, sig: &ESignal, idx: &Expr) -> Result<ExprId, VerilogError> {
        let iw = bit_index_width(&sig.name, idx, &|n| self.flat.sig(n))?;
        let iv = self.build(idx, iw)?;
        Ok(if sig.lsb != 0 {
            let off = self.ts.pool_mut().constv(iw, u64::from(sig.lsb));
            self.ts.pool_mut().sub(iv, off)
        } else {
            iv
        })
    }

    /// Builds `e` as a 1-bit truth value (`|e|` for wide expressions).
    fn build_bool(&mut self, e: &Expr) -> Result<ExprId, VerilogError> {
        let w = self.width(e)?;
        let v = self.build(e, w)?;
        Ok(if w == 1 {
            v
        } else {
            self.ts.pool_mut().redor(v)
        })
    }

    // ------------------------------------------------------------------
    // Symbolic execution of processes
    // ------------------------------------------------------------------

    /// The current value of a signal, as expressions read it.
    fn read_sig(&self, name: &str) -> Result<ExprId, VerilogError> {
        self.sig_expr
            .get(name)
            .copied()
            .ok_or_else(|| Self::err(format!("'{name}' used before definition")))
    }

    /// Runs `f` with the values of the process environment `env`
    /// shadowing the signals' current values.
    fn in_env<T>(
        &mut self,
        env: &Env,
        f: impl FnOnce(&mut Self) -> Result<T, VerilogError>,
    ) -> Result<T, VerilogError> {
        let saved: Vec<(String, Option<ExprId>)> = env
            .iter()
            .map(|(k, &v)| (k.clone(), self.sig_expr.insert(k.clone(), v)))
            .collect();
        let result = f(self);
        for (k, old) in saved {
            match old {
                Some(o) => self.sig_expr.insert(k, o),
                None => self.sig_expr.remove(&k),
            };
        }
        result
    }

    /// Applies `lv = rhs` to `env`, reading the right-hand side and any
    /// index through `reads` (the blocking environment). A bit, part or
    /// row write modifies the target's value in `env`, else its value
    /// in `reads` or its current value.
    fn assign_in_env(
        &mut self,
        env: &mut Env,
        reads: &Env,
        lv: &LValue,
        rhs: &Expr,
    ) -> Result<(), VerilogError> {
        self.in_env(reads, |s| s.assign(env, lv, rhs))
    }

    fn assign(&mut self, env: &mut Env, lv: &LValue, rhs: &Expr) -> Result<(), VerilogError> {
        match lv {
            LValue::Ident(n) => {
                let e = self.build(rhs, self.sig(n)?.width)?;
                env.insert(n.clone(), e);
            }
            LValue::Index(n, idx) => {
                let sig = self.sig(n)?.clone();
                let merged = if let Some((_, addr_w)) = sig.memory {
                    let cur = self.current(env, n)?;
                    let iv = self.build(idx, addr_w)?;
                    let val = self.build(rhs, sig.width)?;
                    self.ts.pool_mut().write(cur, iv, val)
                } else {
                    // Bit read-modify-write.
                    let cur = self.current(env, n)?;
                    let iv = self.bit_offset(&sig, idx)?;
                    let bitv = self.build(rhs, 1)?;
                    let pool = self.ts.pool_mut();
                    let one = pool.constv(sig.width, 1);
                    let mask = pool.shl(one, iv);
                    let nmask = pool.not(mask);
                    let cleared = pool.and(cur, nmask);
                    let bit_wide = pool.zext(bitv, sig.width);
                    let shifted = pool.shl(bit_wide, iv);
                    pool.or(cleared, shifted)
                };
                env.insert(n.clone(), merged);
            }
            LValue::Part(n, hi, lo) => {
                let (h, l) = part_bounds(n, hi, lo, &|x| self.flat.sig(x))?;
                let width = self.sig(n)?.width;
                let cur = self.current(env, n)?;
                let val = self.build(rhs, h - l + 1)?;
                // Splice: [ high | val | low ].
                let pool = self.ts.pool_mut();
                let mut merged = val;
                if l > 0 {
                    let low = pool.extract(cur, l - 1, 0);
                    merged = pool.concat(merged, low);
                }
                if h + 1 < width {
                    let high = pool.extract(cur, width - 1, h + 1);
                    merged = pool.concat(high, merged);
                }
                env.insert(n.clone(), merged);
            }
            LValue::Concat(parts) => {
                // Left-to-right parts take MSB-first slices of the rhs.
                let slices = target_widths(parts, &|x| self.flat.sig(x))?;
                let total = slices.iter().map(|&(_, w)| w).sum();
                let rhs_e = self.build(rhs, total)?;
                let mut hi = total;
                for (n, w) in slices {
                    let lo = hi - w;
                    let slice = self.ts.pool_mut().extract(rhs_e, hi - 1, lo);
                    env.insert(n.to_string(), slice);
                    hi = lo;
                }
            }
        }
        Ok(())
    }

    /// The value a bit, part or row write to `name` modifies: its value
    /// in `env`, else the value expressions read.
    fn current(&self, env: &Env, name: &str) -> Result<ExprId, VerilogError> {
        env.get(name)
            .map_or_else(|| self.read_sig(name), |&e| Ok(e))
    }

    /// Merges two branch environments, which both extend the one
    /// before the branch, under a condition: a signal that only one
    /// branch assigns keeps its current value on the other.
    fn merge_envs(
        &mut self,
        cond: ExprId,
        then_env: &Env,
        else_env: &Env,
    ) -> Result<Env, VerilogError> {
        let mut keys: HashSet<&String> = then_env.keys().collect();
        keys.extend(else_env.keys());
        let mut out = Env::new();
        for k in keys {
            let vt = self.current(then_env, k)?;
            let ve = self.current(else_env, k)?;
            let merged = self.ts.pool_mut().ite(cond, vt, ve);
            out.insert(k.clone(), merged);
        }
        Ok(out)
    }

    /// Runs `s` on the blocking environment `env` and the non-blocking
    /// one `nb` (which a combinational process never assigns).
    fn exec_stmt(&mut self, s: &Stmt, env: &mut Env, nb: &mut Env) -> Result<(), VerilogError> {
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Block(b) => b.iter().try_for_each(|st| self.exec_stmt(st, env, nb)),
            Stmt::Blocking(lv, rhs) => {
                let reads = env.clone();
                self.assign_in_env(env, &reads, lv, rhs)
            }
            // Non-blocking: the right-hand side reads the blocking
            // environment, and a select or row write starts from the
            // target's latest non-blocking value.
            Stmt::NonBlocking(lv, rhs) => self.assign_in_env(nb, env, lv, rhs),
            Stmt::If(c, t, e) => {
                let cv = self.in_env(env, |s| s.build_bool(c))?;
                let (mut env_t, mut nb_t) = (env.clone(), nb.clone());
                let (mut env_e, mut nb_e) = (env.clone(), nb.clone());
                self.exec_stmt(t, &mut env_t, &mut nb_t)?;
                if let Some(e) = e {
                    self.exec_stmt(e, &mut env_e, &mut nb_e)?;
                }
                *env = self.merge_envs(cv, &env_t, &env_e)?;
                *nb = self.merge_envs(cv, &nb_t, &nb_e)?;
                Ok(())
            }
            Stmt::Case { .. } => self.exec_stmt(&s.case_to_if(), env, nb),
        }
    }

    fn exec_clocked(&mut self, body: &Stmt) -> Result<Env, VerilogError> {
        let mut env = Env::new();
        let mut nb = Env::new();
        self.exec_stmt(body, &mut env, &mut nb)?;
        // Blocking-assigned registers in clocked processes are state
        // updates too. `check_drivers` has seen to it that no register
        // is assigned both ways, so the two sets are disjoint.
        env.extend(nb);
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use rtlir::{Simulator, Value};

    #[test]
    fn concatenations_wider_than_64_bits_are_errors() {
        for rhs in ["{65{1'b1}}", "{a, a}", "{99999999999{1'b1}}", "a + {a, a}"] {
            let src = format!(
                "module top(input [63:0] a, output [63:0] y);\n  assign y = {rhs};\nendmodule\n"
            );
            let err = compile(&src, "top").expect_err(rhs);
            assert!(err.message.contains("wider than 64 bits"), "{rhs}: {err}");
        }
        let src = "module top(input [31:0] a, output [63:0] y);\n  assign y = {2{a}};\nendmodule\n";
        assert!(compile(src, "top").is_ok(), "exactly 64 bits is fine");
    }

    /// A register that one clocked process assigns with both `=` and
    /// `<=` has no single next-state function: on a branch that
    /// assigns only `=`, Verilog updates it, so it may not compile to
    /// a register that keeps its value there.
    #[test]
    fn mixed_blocking_and_nonblocking_register_is_rejected() {
        let src = r#"
        module top(input clk, input c);
          reg [3:0] a;
          initial a = 0;
          always @(posedge clk) begin
            if (c) a = 4'd1;
            else a <= 4'd2;
          end
          assert property (a != 4'd1);
        endmodule
        "#;
        let err = compile(src, "top").expect_err("mixed assignment kinds");
        assert!(
            err.message
                .contains("register 'a' assigned both blocking and non-blocking"),
            "{err}"
        );
    }

    #[test]
    fn counter_semantics() {
        let src = r#"
        module top(input clk, input en);
          reg [3:0] c;
          initial c = 0;
          always @(posedge clk)
            if (en) c <= c + 1;
          assert property (c != 9);
        endmodule
        "#;
        let ts = compile(src, "top").expect("compiles");
        assert_eq!(ts.states().len(), 1);
        assert_eq!(ts.inputs().len(), 1, "clock excluded from inputs");
        let mut sim = Simulator::new(&ts);
        let hit = sim.run_until_bad(20, |_| vec![Value::bit(true)]);
        assert_eq!(hit, Some(9));
    }

    #[test]
    fn hierarchy_and_port_wiring() {
        let src = r#"
        module inc(input [3:0] a, output [3:0] b);
          assign b = a + 1;
        endmodule
        module top(input clk);
          reg [3:0] r;
          wire [3:0] rn;
          initial r = 0;
          inc u (.a(r), .b(rn));
          always @(posedge clk) r <= rn;
          assert property (r != 5);
        endmodule
        "#;
        let ts = compile(src, "top").expect("compiles");
        let mut sim = Simulator::new(&ts);
        assert_eq!(sim.run_until_bad(10, |_| vec![]), Some(5));
    }

    #[test]
    fn comb_process_with_default() {
        let src = r#"
        module top(input clk, input [1:0] sel);
          reg [3:0] out;
          reg [3:0] r;
          initial r = 0;
          always @* begin
            out = 0;
            case (sel)
              2'd1: out = 4'd3;
              2'd2: out = 4'd7;
            endcase
          end
          always @(posedge clk) r <= out;
          assert property (r != 7);
        endmodule
        "#;
        let ts = compile(src, "top").expect("compiles");
        let mut sim = Simulator::new(&ts);
        // sel = 2 drives out = 7, registered next cycle.
        let hit = sim.run_until_bad(5, |_| vec![Value::bv(2, 2)]);
        assert_eq!(hit, Some(1));
    }

    #[test]
    fn latch_detected() {
        let src = r#"
        module top(input clk, input s);
          reg q;
          always @* begin
            if (s) q = 1;
          end
        endmodule
        "#;
        let err = compile(src, "top").expect_err("latch must be rejected");
        assert!(err.message.contains("latch"), "got: {}", err.message);
    }

    #[test]
    fn combinational_loop_detected() {
        let src = r#"
        module top(input clk, output a);
          wire b;
          assign a = ~b;
          assign b = ~a;
        endmodule
        "#;
        let err = compile(src, "top").expect_err("loop must be rejected");
        assert!(err.message.contains("loop"), "got: {}", err.message);
    }

    #[test]
    fn multiple_clocks_rejected() {
        let src = r#"
        module top(input clk1, input clk2);
          reg a, b;
          always @(posedge clk1) a <= 1;
          always @(posedge clk2) b <= 1;
        endmodule
        "#;
        let err = compile(src, "top").expect_err("two clocks rejected");
        assert!(err.message.contains("clock"), "got: {}", err.message);
    }

    #[test]
    fn memory_fifo_roundtrip() {
        let src = r#"
        module top(input clk, input push, input [7:0] din);
          reg [7:0] mem [0:3];
          reg [1:0] wp;
          reg [7:0] sum;
          initial wp = 0;
          initial sum = 0;
          always @(posedge clk) begin
            if (push) begin
              mem[wp] <= din;
              wp <= wp + 1;
              sum <= sum + din;
            end
          end
          assert property (sum < 200);
        endmodule
        "#;
        let ts = compile(src, "top").expect("compiles");
        assert_eq!(ts.states().len(), 3);
        let mut sim = Simulator::new(&ts);
        let hit = sim.run_until_bad(10, |_| vec![Value::bit(true), Value::bv(8, 100)]);
        assert_eq!(hit, Some(2), "sum reaches 200 after two pushes");
    }

    #[test]
    fn blocking_in_clocked_process() {
        let src = r#"
        module top(input clk, input [3:0] x);
          reg [3:0] a;
          reg [3:0] b;
          initial begin a = 0; b = 0; end
          always @(posedge clk) begin
            a = x + 1;       // blocking: b sees the new a
            b <= a + 1;
          end
          assert property (b != 5);
        endmodule
        "#;
        let ts = compile(src, "top").expect("compiles");
        let mut sim = Simulator::new(&ts);
        // x=3 -> a=4, b=5 on the next edge.
        let hit = sim.run_until_bad(5, |_| vec![Value::bv(4, 3)]);
        assert_eq!(hit, Some(1));
    }

    #[test]
    fn concat_and_part_selects() {
        let src = r#"
        module top(input clk, input [7:0] x);
          wire [3:0] hi;
          wire [3:0] lo;
          assign {hi, lo} = x;
          wire [7:0] swapped;
          assign swapped = {lo, hi};
          reg [7:0] r;
          initial r = 0;
          always @(posedge clk) r <= swapped;
          assert property (r != 8'h21);
        endmodule
        "#;
        let ts = compile(src, "top").expect("compiles");
        let mut sim = Simulator::new(&ts);
        // x = 0x12 -> swapped = 0x21.
        let hit = sim.run_until_bad(5, |_| vec![Value::bv(8, 0x12)]);
        assert_eq!(hit, Some(1));
    }

    #[test]
    fn assumes_become_constraints() {
        let src = r#"
        module top(input clk, input stop);
          reg [3:0] c;
          initial c = 0;
          always @(posedge clk) if (!stop) c <= c + 1;
          assume property (stop == 1'b1);
          assert property (c == 0);
        endmodule
        "#;
        let ts = compile(src, "top").expect("compiles");
        assert_eq!(ts.constraints().len(), 1);
        // Under the constraint the counter never moves: PDR-style
        // engines treat this via constraints; simulation honoring the
        // assumption keeps c at 0.
        let mut sim = Simulator::new(&ts);
        let hit = sim.run_until_bad(10, |_| vec![Value::bit(true)]);
        assert_eq!(hit, None);
    }
}
