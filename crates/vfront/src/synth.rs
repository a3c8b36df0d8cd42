//! Synthesis: flattening, dependency analysis and word-level netlist
//! construction.
//!
//! This implements the paper's §III-B analysis: combinational blocks
//! (continuous assignments and `always @*` processes) are ordered by
//! their *intra- and inter-modular* data dependencies and symbolically
//! executed into word-level expressions; clocked blocks get two-phase
//! (read-then-commit) semantics matching non-blocking assignment.
//! Combinational cycles and transparent latches are rejected, exactly
//! the restrictions the paper states for v2c.

use crate::ast::{BinaryOp, Dir, Expr, LValue, NetKind, Stmt, UnaryOp};
use crate::elab::{
    bit_index_width, check_drivers, flat_name, initial_values, part_bounds, self_width,
    target_widths, Design, ESignal, ElabModule,
};
use crate::error::VerilogError;
use rtlir::{ExprId, Sort, TransitionSystem, VarId};
use std::collections::{HashMap, HashSet};

/// Synthesizes an elaborated design into a word-level transition
/// system (inputs = top-level input ports minus the clock; states =
/// clocked registers and memories; bads = negated assertions).
///
/// # Errors
///
/// Reports combinational loops, transparent latches, multiple clocks,
/// multiple drivers, unknown signals and width violations.
pub fn synthesize(design: &Design) -> Result<TransitionSystem, VerilogError> {
    check_drivers(design)?;
    let flat = flatten(design)?;
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
    /// Every signal under its hierarchical name; only the top module's
    /// keep their port direction.
    signals: Vec<ESignal>,
    index: HashMap<String, usize>,
    units: Vec<Unit>,
    clocked: Vec<(String, Stmt)>,
    initials: Vec<Stmt>,
    asserts: Vec<(String, Expr)>,
    assumes: Vec<Expr>,
}

impl Flat {
    fn sig(&self, name: &str) -> Option<&ESignal> {
        self.index.get(name).map(|&i| &self.signals[i])
    }
}

fn is_top_input(sig: &ESignal) -> bool {
    sig.port == Some(Dir::Input)
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

fn flatten(design: &Design) -> Result<Flat, VerilogError> {
    let mut flat = Flat::default();
    flatten_module(design, design.top, "", &mut flat)?;
    Ok(flat)
}

fn flatten_module(
    design: &Design,
    idx: usize,
    prefix: &str,
    flat: &mut Flat,
) -> Result<(), VerilogError> {
    let m: &ElabModule = &design.modules[idx];
    for sig in &m.signals {
        let name = flat_name(prefix, &sig.name);
        if flat.index.contains_key(&name) {
            return Err(VerilogError::general(format!(
                "duplicate flat signal '{name}'"
            )));
        }
        flat.index.insert(name.clone(), flat.signals.len());
        flat.signals.push(ESignal {
            name,
            port: sig.port.filter(|_| prefix.is_empty()),
            ..sig.clone()
        });
    }
    for (lhs, rhs) in &m.assigns {
        flat.units.push(Unit::Assign(
            prefix_lvalue(prefix, lhs),
            prefix_expr(prefix, rhs),
        ));
    }
    for (clock, body) in &m.processes {
        match clock {
            None => flat.units.push(Unit::Comb(prefix_stmt(prefix, body))),
            Some(c) => flat
                .clocked
                .push((flat_name(prefix, c), prefix_stmt(prefix, body))),
        }
    }
    for ini in &m.initials {
        flat.initials.push(prefix_stmt(prefix, ini));
    }
    for (label, cond) in &m.asserts {
        flat.asserts
            .push((flat_name(prefix, label), prefix_expr(prefix, cond)));
    }
    for a in &m.assumes {
        flat.assumes.push(prefix_expr(prefix, a));
    }
    for inst in &m.instances {
        let child_prefix = flat_name(prefix, &inst.name);
        flatten_module(design, inst.module, &child_prefix, flat)?;
        let child = &design.modules[inst.module];
        for (port_idx, conn) in &inst.conns {
            let port = &child.signals[*port_idx];
            let port_flat = flat_name(&child_prefix, &port.name);
            let conn_flat = prefix_expr(prefix, conn);
            match port.port {
                Some(Dir::Input) => {
                    flat.units
                        .push(Unit::Assign(LValue::Ident(port_flat), conn_flat));
                }
                Some(Dir::Output) => {
                    let lhs = conn_flat.as_lvalue().ok_or_else(|| {
                        VerilogError::general(format!(
                            "output port '{}' of instance '{child_prefix}' must connect \
                             to a signal",
                            port.name
                        ))
                    })?;
                    flat.units.push(Unit::Assign(lhs, Expr::Ident(port_flat)));
                }
                None => unreachable!("connection to non-port"),
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Read/write analysis and scheduling
// ----------------------------------------------------------------------

/// Collects the identifiers read by an expression, excluding those in
/// `assigned` (used for dependency analysis; also reused by the v2c
/// code generator's per-module scheduling).
pub fn expr_reads(e: &Expr, assigned: &HashSet<String>, out: &mut HashSet<String>) {
    if let Expr::Ident(n) | Expr::Index(n, _) | Expr::Part(n, _, _) = e {
        if !assigned.contains(n) {
            out.insert(n.clone());
        }
    }
    for o in e.operands() {
        expr_reads(o, assigned, out);
    }
}

/// Reads of a statement, excluding signals already (blocking-)assigned
/// at the point of the read; conservative across branches.
pub fn stmt_reads(s: &Stmt, assigned: &mut HashSet<String>, out: &mut HashSet<String>) {
    match s {
        Stmt::Block(b) => b.iter().for_each(|x| stmt_reads(x, assigned, out)),
        Stmt::If(c, t, e) => {
            expr_reads(c, assigned, out);
            let mut at = assigned.clone();
            stmt_reads(t, &mut at, out);
            let mut ae = assigned.clone();
            if let Some(e) = e {
                stmt_reads(e, &mut ae, out);
            }
            // Only variables assigned on *both* paths count as locally
            // defined afterwards.
            for k in at.intersection(&ae) {
                assigned.insert(k.clone());
            }
        }
        Stmt::Case { .. } => stmt_reads(&s.case_to_if(), assigned, out),
        Stmt::Blocking(lv, e) | Stmt::NonBlocking(lv, e) => {
            expr_reads(e, assigned, out);
            // Index writes also *read* the index expressions, and
            // read-modify-write of bit/part selects reads the old value.
            if let LValue::Index(_, i) = lv {
                expr_reads(i, assigned, out);
            }
            if let LValue::Index(n, _) | LValue::Part(n, _, _) = lv {
                if !assigned.contains(n) {
                    out.insert(n.clone());
                }
            }
            // Only blocking whole-signal assignments define the signal.
            if let (Stmt::Blocking(..), LValue::Ident(n)) = (s, lv) {
                assigned.insert(n.clone());
            }
        }
        Stmt::Nop => {}
    }
}

/// Orders combinational units so that each follows the units defining
/// the signals it reads (the §III-B dependency analysis): Kahn's
/// algorithm, taking the most recently freed unit first. Unit `u`
/// drives `defs[u]` and reads `reads[u]`.
///
/// # Errors
///
/// Reports a combinational loop: a unit that reads its own output, or a
/// cycle through several units.
pub fn schedule(
    defs: &[Vec<String>],
    reads: &[HashSet<String>],
) -> Result<Vec<usize>, VerilogError> {
    let def_unit: HashMap<&str, usize> = defs
        .iter()
        .enumerate()
        .flat_map(|(u, ds)| ds.iter().map(move |d| (d.as_str(), u)))
        .collect();
    let n = defs.len();
    let mut indeg = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, rs) in reads.iter().enumerate() {
        for r in rs {
            match def_unit.get(r.as_str()) {
                Some(&d) if d == u => {
                    return Err(VerilogError::general(format!(
                        "combinational loop through signal '{r}' (unsupported, as in v2c)"
                    )))
                }
                Some(&d) => {
                    succs[d].push(u);
                    indeg[u] += 1;
                }
                None => {}
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop() {
        order.push(u);
        for &v in &succs[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    if order.len() != n {
        return Err(VerilogError::general(
            "combinational loop detected (unsupported, as in v2c)",
        ));
    }
    Ok(order)
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Input,
    State,
    Comb(usize), // defining unit
    Clock,
    FreeWire, // undriven: becomes a nondeterministic input
}

impl Synthesizer {
    fn err(msg: impl Into<String>) -> VerilogError {
        VerilogError::general(msg)
    }

    fn run(&mut self) -> Result<(), VerilogError> {
        // ---- classify drivers ----
        let mut role: HashMap<String, Role> = HashMap::new();
        // Clock alias resolution: direct ident-to-ident assigns.
        let mut direct: HashMap<String, String> = HashMap::new();
        for u in &self.flat.units {
            if let Unit::Assign(LValue::Ident(l), Expr::Ident(r)) = u {
                direct.insert(l.clone(), r.clone());
            }
        }
        let resolve = |mut n: String| {
            let mut hops = 0;
            while let Some(next) = direct.get(&n) {
                n = next.clone();
                hops += 1;
                if hops > 1000 {
                    break;
                }
            }
            n
        };
        let mut clock_root: Option<String> = None;
        let mut clock_aliases: HashSet<String> = HashSet::new();
        for (c, _) in &self.flat.clocked {
            let root = resolve(c.clone());
            match &clock_root {
                None => clock_root = Some(root.clone()),
                Some(r) if *r == root => {}
                Some(r) => {
                    return Err(Self::err(format!(
                        "multiple clocks are not supported ('{r}' vs '{root}')"
                    )))
                }
            }
        }
        if let Some(root) = &clock_root {
            let is_top_input = self
                .flat
                .sig(root)
                .is_some_and(|s| is_top_input(s) && s.width == 1);
            if !is_top_input {
                return Err(Self::err(format!(
                    "clock '{root}' must be a 1-bit top-level input"
                )));
            }
            clock_aliases.insert(root.clone());
            for sig in &self.flat.signals {
                if sig.width == 1 && resolve(sig.name.clone()) == *root {
                    clock_aliases.insert(sig.name.clone());
                }
            }
            for a in &clock_aliases {
                role.insert(a.clone(), Role::Clock);
            }
        }

        // Drivers from units; clock wiring is excluded from logic.
        // `check_drivers` has seen to it that every signal has one
        // driver and that units drive whole signals.
        let unit_defs: Vec<Vec<String>> = self
            .flat
            .units
            .iter()
            .map(|u| {
                let mut targets = match u {
                    Unit::Assign(lv, _) => lv.targets(),
                    Unit::Comb(s) => s.targets(),
                };
                targets.retain(|t| !clock_aliases.contains(t));
                targets
            })
            .collect();
        for (ui, targets) in unit_defs.iter().enumerate() {
            for t in targets {
                if self.flat.sig(t).is_none() {
                    return Err(Self::err(format!("assignment to unknown signal '{t}'")));
                }
                role.insert(t.clone(), Role::Comb(ui));
            }
        }
        // Drivers from clocked processes, which `check_drivers` has
        // seen to assign registers only.
        for (_, body) in &self.flat.clocked {
            for t in body.targets() {
                if self.flat.sig(&t).is_none() {
                    return Err(Self::err(format!("assignment to unknown signal '{t}'")));
                }
                role.insert(t, Role::State);
            }
        }
        // Everything else: inputs, frozen regs, free wires.
        for sig in &self.flat.signals {
            let r = if is_top_input(sig) {
                Role::Input
            } else if sig.kind == NetKind::Reg {
                Role::State // frozen register
            } else {
                Role::FreeWire
            };
            let r = *role.entry(sig.name.clone()).or_insert(r);
            // A state must not also be a top input.
            if is_top_input(sig) && matches!(r, Role::Comb(_) | Role::State) {
                return Err(Self::err(format!(
                    "top-level input '{}' is driven",
                    sig.name
                )));
            }
        }

        // ---- create TS variables ----
        for sig in &self.flat.signals {
            let name = &sig.name;
            let sort = match sig.memory {
                Some((_, addr_w)) => Sort::array(addr_w, sig.width),
                None => Sort::Bv(sig.width),
            };
            let v = match role[name] {
                Role::Input | Role::FreeWire => self.ts.add_input(name.clone(), sort),
                Role::State => self.ts.add_state(name.clone(), sort),
                Role::Comb(_) | Role::Clock => continue,
            };
            self.vars.insert(name.clone(), v);
            let e = self.ts.pool_mut().var(v);
            self.sig_expr.insert(name.clone(), e);
            if let (Role::State, Some(init)) = (role[name], sig.init) {
                let ie = self.ts.pool_mut().constv(sig.width, init);
                self.ts.set_init(v, ie);
            }
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
            // A continuous assignment runs as a one-statement process;
            // pure clock wiring is skipped.
            let body = match &self.flat.units[ui] {
                Unit::Assign(..) if unit_defs[ui].is_empty() => continue,
                Unit::Assign(lv, rhs) => Stmt::Blocking(lv.clone(), rhs.clone()),
                Unit::Comb(s) => s.clone(),
            };
            let mut env = Env::new();
            self.exec_stmt(&body, &mut env, None, false)?;
            self.sig_expr.extend(env);
        }

        // ---- clocked processes ----
        let clocked = self.flat.clocked.clone();
        // `check_drivers` has seen to it that one process drives each
        // register.
        let mut next_map: HashMap<String, ExprId> = HashMap::new();
        for (_clk, body) in &clocked {
            next_map.extend(self.exec_clocked(body)?);
        }
        // Install next functions; frozen registers keep their value.
        for sig in &self.flat.signals {
            if role[&sig.name] == Role::State {
                let v = self.vars[&sig.name];
                let next = next_map
                    .get(&sig.name)
                    .copied()
                    .unwrap_or(self.sig_expr[&sig.name]);
                self.ts.set_next(v, next);
            }
        }

        // ---- initial blocks ----
        let init = initial_values(&self.flat.initials, &|n| self.flat.sig(n))?;
        for (name, value) in init.scalars {
            let (v, sig) = self.initial_target(&name)?;
            let e = self.ts.pool_mut().constv(sig.width, value);
            self.ts.set_init(v, e);
        }
        for (name, rows) in init.rows {
            let (v, sig) = self.initial_target(&name)?;
            let (_, addr_w) = sig
                .memory
                .ok_or_else(|| Self::err(format!("'{name}' is not a memory")))?;
            let mut e = self.ts.pool_mut().const_array(addr_w, sig.width, 0);
            for (k, value) in rows {
                let i = self.ts.pool_mut().constv(addr_w, k);
                let val = self.ts.pool_mut().constv(sig.width, value);
                e = self.ts.pool_mut().write(e, i, val);
            }
            self.ts.set_init(v, e);
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

    /// The state variable and signal an `initial` block assigns.
    fn initial_target(&self, name: &str) -> Result<(VarId, ESignal), VerilogError> {
        let v = self.vars.get(name).copied();
        match (v, self.flat.sig(name)) {
            (Some(v), Some(sig)) if self.ts.state_of_var(v).is_some() => Ok((v, sig.clone())),
            _ => Err(Self::err(format!("initial assigns non-register '{name}'"))),
        }
    }

    // ------------------------------------------------------------------
    // Expression building
    // ------------------------------------------------------------------

    fn sig(&self, name: &str) -> Result<&ESignal, VerilogError> {
        self.flat
            .sig(name)
            .ok_or_else(|| Self::err(format!("unknown signal '{name}'")))
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
                if self.sig(n)?.memory.is_some() {
                    return Err(Self::err(format!("memory '{n}' used without an index")));
                }
                let base = *self.sig_expr.get(n).ok_or_else(|| {
                    Self::err(format!("'{n}' used before definition (is it a clock?)"))
                })?;
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
    /// in `reads` or its current value; without `allow_current` (in a
    /// combinational process) a bit or part write to a signal `env`
    /// does not hold yet is a latch.
    fn assign_in_env(
        &mut self,
        env: &mut Env,
        reads: &Env,
        lv: &LValue,
        rhs: &Expr,
        allow_current: bool,
    ) -> Result<(), VerilogError> {
        self.in_env(reads, |s| s.assign(env, lv, rhs, allow_current))
    }

    fn assign(
        &mut self,
        env: &mut Env,
        lv: &LValue,
        rhs: &Expr,
        allow_current: bool,
    ) -> Result<(), VerilogError> {
        match lv {
            LValue::Ident(n) => {
                let sig = self.sig(n)?;
                if sig.memory.is_some() {
                    return Err(Self::err(format!(
                        "whole-memory assignment to '{n}' is not supported"
                    )));
                }
                let e = self.build(rhs, sig.width)?;
                env.insert(n.clone(), e);
            }
            LValue::Index(n, idx) => {
                let sig = self.sig(n)?.clone();
                let merged = if let Some((_, addr_w)) = sig.memory {
                    let cur = self.current(env, n, true, "row")?;
                    let iv = self.build(idx, addr_w)?;
                    let val = self.build(rhs, sig.width)?;
                    self.ts.pool_mut().write(cur, iv, val)
                } else {
                    // Bit read-modify-write.
                    let cur = self.current(env, n, allow_current, "bit")?;
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
                let cur = self.current(env, n, allow_current, "part")?;
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

    /// The value a `what` write to `name` modifies: its value in `env`,
    /// else (where `allow_current`) the value expressions read.
    fn current(
        &self,
        env: &Env,
        name: &str,
        allow_current: bool,
        what: &str,
    ) -> Result<ExprId, VerilogError> {
        match env.get(name) {
            Some(&e) => Ok(e),
            None if allow_current => self.read_sig(name),
            None => Err(Self::err(format!(
                "{what} assignment to '{name}' before full assignment \
                 in combinational process (latch)"
            ))),
        }
    }

    /// Merges two branch environments under a condition; `fallback`
    /// supplies values for keys missing on one side (None = latch
    /// error for combinational processes).
    fn merge_envs(
        &mut self,
        cond: ExprId,
        then_env: Env,
        else_env: Env,
        base: &Env,
        allow_current: bool,
    ) -> Result<Env, VerilogError> {
        let mut keys: HashSet<String> = then_env.keys().cloned().collect();
        keys.extend(else_env.keys().cloned());
        let mut out = base.clone();
        for k in keys {
            let fallback = |s: &mut Self| -> Result<ExprId, VerilogError> {
                if let Some(&b) = base.get(&k) {
                    return Ok(b);
                }
                if allow_current {
                    s.read_sig(&k)
                } else {
                    Err(Self::err(format!(
                        "signal '{k}' is not assigned on all paths of a combinational \
                         process (transparent latch, unsupported as in v2c)"
                    )))
                }
            };
            let vt = match then_env.get(&k) {
                Some(&v) => v,
                None => fallback(self)?,
            };
            let ve = match else_env.get(&k) {
                Some(&v) => v,
                None => fallback(self)?,
            };
            let merged = self.ts.pool_mut().ite(cond, vt, ve);
            out.insert(k, merged);
        }
        Ok(out)
    }

    fn exec_stmt(
        &mut self,
        s: &Stmt,
        env: &mut Env,
        nb: Option<&mut Env>,
        allow_current: bool,
    ) -> Result<(), VerilogError> {
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Block(b) => {
                let mut nbo = nb;
                for st in b {
                    self.exec_stmt(st, env, nbo.as_deref_mut(), allow_current)?;
                }
                Ok(())
            }
            Stmt::Blocking(lv, rhs) => {
                let reads = env.clone();
                self.assign_in_env(env, &reads, lv, rhs, allow_current)
            }
            // Non-blocking: the right-hand side reads the blocking
            // environment, and a select or row write starts from the
            // target's latest non-blocking value.
            Stmt::NonBlocking(lv, rhs) => match nb {
                Some(nbe) => self.assign_in_env(nbe, env, lv, rhs, true),
                None => Err(Self::err(
                    "non-blocking assignment in combinational process",
                )),
            },
            Stmt::If(c, t, e) => {
                let cv = self.in_env(env, |s| s.build_bool(c))?;
                let mut env_t = env.clone();
                let mut env_e = env.clone();
                match nb {
                    Some(nbe) => {
                        let mut nb_t = nbe.clone();
                        let mut nb_e = nbe.clone();
                        self.exec_stmt(t, &mut env_t, Some(&mut nb_t), allow_current)?;
                        if let Some(e) = e {
                            self.exec_stmt(e, &mut env_e, Some(&mut nb_e), allow_current)?;
                        }
                        *env = self.merge_envs(cv, env_t, env_e, env, true)?;
                        *nbe = self.merge_envs(cv, nb_t, nb_e, nbe, true)?;
                    }
                    None => {
                        self.exec_stmt(t, &mut env_t, None, allow_current)?;
                        if let Some(e) = e {
                            self.exec_stmt(e, &mut env_e, None, allow_current)?;
                        }
                        *env = self.merge_envs(cv, env_t, env_e, env, allow_current)?;
                    }
                }
                Ok(())
            }
            Stmt::Case { .. } => self.exec_stmt(&s.case_to_if(), env, nb, allow_current),
        }
    }

    fn exec_clocked(&mut self, body: &Stmt) -> Result<Env, VerilogError> {
        let mut env = Env::new();
        let mut nb = Env::new();
        self.exec_stmt(body, &mut env, Some(&mut nb), true)?;
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
