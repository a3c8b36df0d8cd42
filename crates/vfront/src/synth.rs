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
use crate::elab::{ceil_log2, const_eval, Design, ElabModule};
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
struct FlatSignal {
    width: u32,
    lsb: u32,
    kind: NetKind,
    memory: Option<(u64, u32)>,
    init: Option<u64>,
    top_input: bool,
}

#[derive(Clone, Debug)]
enum Unit {
    Assign(LValue, Expr),
    Comb(Stmt),
}

#[derive(Clone, Debug, Default)]
struct Flat {
    signals: Vec<(String, FlatSignal)>,
    index: HashMap<String, usize>,
    units: Vec<Unit>,
    clocked: Vec<(String, Stmt)>,
    initials: Vec<Stmt>,
    asserts: Vec<(String, Expr)>,
    assumes: Vec<Expr>,
}

impl Flat {
    fn sig(&self, name: &str) -> Option<&FlatSignal> {
        self.index.get(name).map(|&i| &self.signals[i].1)
    }
}

fn flat_name(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

fn prefix_expr(prefix: &str, e: &Expr) -> Expr {
    match e {
        Expr::Ident(n) => Expr::Ident(flat_name(prefix, n)),
        Expr::Number { .. } => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(prefix_expr(prefix, a))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(prefix_expr(prefix, a)),
            Box::new(prefix_expr(prefix, b)),
        ),
        Expr::Ternary(c, a, b) => Expr::Ternary(
            Box::new(prefix_expr(prefix, c)),
            Box::new(prefix_expr(prefix, a)),
            Box::new(prefix_expr(prefix, b)),
        ),
        Expr::Concat(p) => Expr::Concat(p.iter().map(|x| prefix_expr(prefix, x)).collect()),
        Expr::Repl(n, p) => Expr::Repl(
            Box::new(prefix_expr(prefix, n)),
            p.iter().map(|x| prefix_expr(prefix, x)).collect(),
        ),
        Expr::Index(n, i) => Expr::Index(flat_name(prefix, n), Box::new(prefix_expr(prefix, i))),
        Expr::Part(n, hi, lo) => Expr::Part(
            flat_name(prefix, n),
            Box::new(prefix_expr(prefix, hi)),
            Box::new(prefix_expr(prefix, lo)),
        ),
    }
}

fn prefix_lvalue(prefix: &str, lv: &LValue) -> LValue {
    match lv {
        LValue::Ident(n) => LValue::Ident(flat_name(prefix, n)),
        LValue::Index(n, i) => LValue::Index(flat_name(prefix, n), prefix_expr(prefix, i)),
        LValue::Part(n, hi, lo) => LValue::Part(
            flat_name(prefix, n),
            prefix_expr(prefix, hi),
            prefix_expr(prefix, lo),
        ),
        LValue::Concat(p) => LValue::Concat(p.iter().map(|x| prefix_lvalue(prefix, x)).collect()),
    }
}

fn prefix_stmt(prefix: &str, s: &Stmt) -> Stmt {
    match s {
        Stmt::Block(b) => Stmt::Block(b.iter().map(|x| prefix_stmt(prefix, x)).collect()),
        Stmt::If(c, t, e) => Stmt::If(
            prefix_expr(prefix, c),
            Box::new(prefix_stmt(prefix, t)),
            e.as_ref().map(|x| Box::new(prefix_stmt(prefix, x))),
        ),
        Stmt::Case {
            expr,
            arms,
            default,
            wildcard,
        } => Stmt::Case {
            expr: prefix_expr(prefix, expr),
            arms: arms
                .iter()
                .map(|(ls, b)| {
                    (
                        ls.iter().map(|l| prefix_expr(prefix, l)).collect(),
                        prefix_stmt(prefix, b),
                    )
                })
                .collect(),
            default: default.as_ref().map(|d| Box::new(prefix_stmt(prefix, d))),
            wildcard: *wildcard,
        },
        Stmt::Blocking(lv, e) => Stmt::Blocking(prefix_lvalue(prefix, lv), prefix_expr(prefix, e)),
        Stmt::NonBlocking(lv, e) => {
            Stmt::NonBlocking(prefix_lvalue(prefix, lv), prefix_expr(prefix, e))
        }
        Stmt::Nop => Stmt::Nop,
    }
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
        flat.signals.push((
            name,
            FlatSignal {
                width: sig.width,
                lsb: sig.lsb,
                kind: sig.kind,
                memory: sig.memory,
                init: sig.init,
                top_input: prefix.is_empty() && sig.port == Some(Dir::Input),
            },
        ));
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
        let lbl = if prefix.is_empty() {
            label.clone()
        } else {
            format!("{prefix}.{label}")
        };
        flat.asserts.push((lbl, prefix_expr(prefix, cond)));
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
                    let lhs = expr_as_lvalue(&conn_flat).ok_or_else(|| {
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

fn expr_as_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Ident(n) => Some(LValue::Ident(n.clone())),
        Expr::Index(n, i) => Some(LValue::Index(n.clone(), (**i).clone())),
        Expr::Part(n, hi, lo) => Some(LValue::Part(n.clone(), (**hi).clone(), (**lo).clone())),
        Expr::Concat(parts) => {
            let lvs: Option<Vec<LValue>> = parts.iter().map(expr_as_lvalue).collect();
            lvs.map(LValue::Concat)
        }
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Read/write analysis
// ----------------------------------------------------------------------

/// Collects the identifiers read by an expression, excluding those in
/// `assigned` (used for dependency analysis; also reused by the v2c
/// code generator's per-module scheduling).
pub fn expr_reads(e: &Expr, assigned: &HashSet<String>, out: &mut HashSet<String>) {
    match e {
        Expr::Ident(n) => {
            if !assigned.contains(n) {
                out.insert(n.clone());
            }
        }
        Expr::Number { .. } => {}
        Expr::Unary(_, a) => expr_reads(a, assigned, out),
        Expr::Binary(_, a, b) => {
            expr_reads(a, assigned, out);
            expr_reads(b, assigned, out);
        }
        Expr::Ternary(c, a, b) => {
            expr_reads(c, assigned, out);
            expr_reads(a, assigned, out);
            expr_reads(b, assigned, out);
        }
        Expr::Concat(p) => p.iter().for_each(|x| expr_reads(x, assigned, out)),
        Expr::Repl(n, p) => {
            expr_reads(n, assigned, out);
            p.iter().for_each(|x| expr_reads(x, assigned, out));
        }
        Expr::Index(n, i) => {
            if !assigned.contains(n) {
                out.insert(n.clone());
            }
            expr_reads(i, assigned, out);
        }
        Expr::Part(n, hi, lo) => {
            if !assigned.contains(n) {
                out.insert(n.clone());
            }
            expr_reads(hi, assigned, out);
            expr_reads(lo, assigned, out);
        }
    }
}

/// Collects the signals assigned by an lvalue.
pub fn lvalue_targets(lv: &LValue, out: &mut Vec<String>) {
    match lv {
        LValue::Ident(n) | LValue::Index(n, _) | LValue::Part(n, _, _) => out.push(n.clone()),
        LValue::Concat(p) => p.iter().for_each(|x| lvalue_targets(x, out)),
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
        Stmt::Case {
            expr,
            arms,
            default,
            ..
        } => {
            expr_reads(expr, assigned, out);
            let mut common: Option<HashSet<String>> = None;
            for (labels, body) in arms {
                labels.iter().for_each(|l| expr_reads(l, assigned, out));
                let mut ab = assigned.clone();
                stmt_reads(body, &mut ab, out);
                common = Some(match common {
                    None => ab,
                    Some(c) => c.intersection(&ab).cloned().collect(),
                });
            }
            if let Some(d) = default {
                let mut ab = assigned.clone();
                stmt_reads(d, &mut ab, out);
                common = Some(match common {
                    None => ab,
                    Some(c) => c.intersection(&ab).cloned().collect(),
                });
                // Only with a default can the case cover all paths.
                if let Some(c) = common {
                    for k in c {
                        assigned.insert(k);
                    }
                }
            }
        }
        Stmt::Blocking(lv, e) => {
            expr_reads(e, assigned, out);
            // Index/part writes also *read* the index expressions.
            if let LValue::Index(_, i) = lv {
                expr_reads(i, assigned, out);
            }
            // Read-modify-write of bit/part selects reads the old value.
            match lv {
                LValue::Index(n, _) | LValue::Part(n, _, _) if !assigned.contains(n) => {
                    out.insert(n.clone());
                }
                _ => {}
            }
            let mut ts = Vec::new();
            lvalue_targets(lv, &mut ts);
            // Only whole-signal assignments fully define the signal.
            if let LValue::Ident(n) = lv {
                let _ = n;
                for t in ts {
                    assigned.insert(t);
                }
            }
        }
        Stmt::NonBlocking(lv, e) => {
            expr_reads(e, assigned, out);
            if let LValue::Index(_, i) = lv {
                expr_reads(i, assigned, out);
            }
            match lv {
                LValue::Index(n, _) | LValue::Part(n, _, _) if !assigned.contains(n) => {
                    out.insert(n.clone());
                }
                _ => {}
            }
        }
        Stmt::Nop => {}
    }
}

/// Collects the signals assigned anywhere in a statement.
pub fn stmt_targets(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block(b) => b.iter().for_each(|x| stmt_targets(x, out)),
        Stmt::If(_, t, e) => {
            stmt_targets(t, out);
            if let Some(e) = e {
                stmt_targets(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for (_, b) in arms {
                stmt_targets(b, out);
            }
            if let Some(d) = default {
                stmt_targets(d, out);
            }
        }
        Stmt::Blocking(lv, _) | Stmt::NonBlocking(lv, _) => lvalue_targets(lv, out),
        Stmt::Nop => {}
    }
}

// ----------------------------------------------------------------------
// Synthesis proper
// ----------------------------------------------------------------------

struct Synthesizer {
    flat: Flat,
    ts: TransitionSystem,
    vars: HashMap<String, VarId>,
    sig_expr: HashMap<String, ExprId>,
}

/// The width of a `total`-bit concatenation extended by a `part`-bit
/// part, or an error past the 64 bits a value can hold.
fn concat_width(total: u32, part: u32) -> Result<u32, VerilogError> {
    total
        .checked_add(part)
        .filter(|&w| w <= 64)
        .ok_or_else(|| VerilogError::general("concatenation is wider than 64 bits"))
}

/// The width of `count` copies of a `unit`-bit value, or an error past
/// the 64 bits a value can hold.
fn replication_width(count: u64, unit: u32) -> Result<u32, VerilogError> {
    count
        .checked_mul(u64::from(unit))
        .filter(|&w| w <= 64)
        .map(|w| w as u32)
        .ok_or_else(|| {
            VerilogError::general(format!(
                "replication of {count} copies of {unit} bits is wider than 64 bits"
            ))
        })
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
                .is_some_and(|s| s.top_input && s.width == 1);
            if !is_top_input {
                return Err(Self::err(format!(
                    "clock '{root}' must be a 1-bit top-level input"
                )));
            }
            clock_aliases.insert(root.clone());
            for (name, _) in &self.flat.signals {
                if resolve(name.clone()) == *root && self.flat.sig(name).map(|s| s.width) == Some(1)
                {
                    clock_aliases.insert(name.clone());
                }
            }
            for a in &clock_aliases {
                role.insert(a.clone(), Role::Clock);
            }
        }

        // Drivers from units.
        for (ui, u) in self.flat.units.iter().enumerate() {
            let mut targets = Vec::new();
            match u {
                Unit::Assign(lv, _) => {
                    match lv {
                        LValue::Ident(_) | LValue::Concat(_) => {}
                        _ => {
                            return Err(Self::err(
                                "continuous assignment to bit/part selects is not supported",
                            ))
                        }
                    }
                    lvalue_targets(lv, &mut targets);
                }
                Unit::Comb(s) => stmt_targets(s, &mut targets),
            }
            for t in targets {
                if clock_aliases.contains(&t) {
                    continue; // clock wiring, excluded from logic
                }
                if self.flat.sig(&t).is_none() {
                    return Err(Self::err(format!("assignment to unknown signal '{t}'")));
                }
                match role.get(&t) {
                    None => {
                        role.insert(t, Role::Comb(ui));
                    }
                    Some(Role::Comb(prev)) if *prev == ui => {}
                    Some(_) => return Err(Self::err(format!("signal '{t}' has multiple drivers"))),
                }
            }
        }
        // Drivers from clocked processes.
        for (_, body) in &self.flat.clocked {
            let mut targets = Vec::new();
            stmt_targets(body, &mut targets);
            for t in targets {
                let sig = self
                    .flat
                    .sig(&t)
                    .ok_or_else(|| Self::err(format!("assignment to unknown signal '{t}'")))?;
                if sig.kind != NetKind::Reg {
                    return Err(Self::err(format!(
                        "clocked assignment to wire '{t}' (declare it reg)"
                    )));
                }
                match role.get(&t) {
                    None | Some(Role::State) => {
                        role.insert(t, Role::State);
                    }
                    Some(_) => return Err(Self::err(format!("signal '{t}' has multiple drivers"))),
                }
            }
        }
        // Everything else: inputs, frozen regs, free wires.
        for (name, sig) in &self.flat.signals {
            if role.contains_key(name) {
                continue;
            }
            let r = if sig.top_input {
                Role::Input
            } else if sig.kind == NetKind::Reg {
                Role::State // frozen register
            } else {
                Role::FreeWire
            };
            role.insert(name.clone(), r);
        }
        // A state must not also be a top input.
        for (name, sig) in &self.flat.signals {
            if sig.top_input && matches!(role.get(name), Some(Role::Comb(_) | Role::State)) {
                return Err(Self::err(format!("top-level input '{name}' is driven")));
            }
        }

        // ---- create TS variables ----
        let sorted_names: Vec<String> = self.flat.signals.iter().map(|(n, _)| n.clone()).collect();
        for name in &sorted_names {
            let sig = self.flat.sig(name).expect("exists").clone();
            let sort = match sig.memory {
                Some((_, addr_w)) => Sort::array(addr_w, sig.width),
                None => Sort::Bv(sig.width),
            };
            match role[name] {
                Role::Input | Role::FreeWire => {
                    let v = self.ts.add_input(name.clone(), sort);
                    self.vars.insert(name.clone(), v);
                    let e = self.ts.pool_mut().var(v);
                    self.sig_expr.insert(name.clone(), e);
                }
                Role::State => {
                    let v = self.ts.add_state(name.clone(), sort);
                    self.vars.insert(name.clone(), v);
                    let e = self.ts.pool_mut().var(v);
                    self.sig_expr.insert(name.clone(), e);
                    if let Some(init) = sig.init {
                        let ie = self.ts.pool_mut().constv(sig.width, init);
                        self.ts.set_init(v, ie);
                    }
                }
                Role::Comb(_) | Role::Clock => {}
            }
        }

        // ---- schedule combinational units (the §III-B analysis) ----
        let unit_defs: Vec<Vec<String>> = self
            .flat
            .units
            .iter()
            .map(|u| {
                let mut t = Vec::new();
                match u {
                    Unit::Assign(lv, _) => lvalue_targets(lv, &mut t),
                    Unit::Comb(s) => stmt_targets(s, &mut t),
                }
                t.retain(|x| !clock_aliases.contains(x));
                t
            })
            .collect();
        let def_unit: HashMap<String, usize> = unit_defs
            .iter()
            .enumerate()
            .flat_map(|(i, ds)| ds.iter().map(move |d| (d.clone(), i)))
            .collect();
        let unit_reads: Vec<HashSet<String>> = self
            .flat
            .units
            .iter()
            .map(|u| {
                let mut reads = HashSet::new();
                match u {
                    Unit::Assign(lv, rhs) => {
                        expr_reads(rhs, &HashSet::new(), &mut reads);
                        if let LValue::Index(_, i) = lv {
                            expr_reads(i, &HashSet::new(), &mut reads);
                        }
                    }
                    Unit::Comb(s) => {
                        let mut assigned = HashSet::new();
                        stmt_reads(s, &mut assigned, &mut reads);
                    }
                }
                reads
            })
            .collect();
        // Kahn topological sort over units.
        let n_units = self.flat.units.len();
        let mut indeg = vec![0usize; n_units];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n_units];
        for (ui, reads) in unit_reads.iter().enumerate() {
            for r in reads {
                if let Some(&def) = def_unit.get(r) {
                    if def != ui {
                        succs[def].push(ui);
                        indeg[ui] += 1;
                    } else {
                        // A unit reading its own output combinationally
                        // is a loop (self-latch).
                        return Err(Self::err(format!(
                            "combinational loop through signal '{r}' (unsupported, as in v2c)"
                        )));
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..n_units).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n_units);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() != n_units {
            return Err(Self::err(
                "combinational loop detected (unsupported, as in v2c)",
            ));
        }

        // ---- build combinational expressions in order ----
        for ui in order {
            let unit = self.flat.units[ui].clone();
            match unit {
                Unit::Assign(lv, rhs) => {
                    // Skip pure clock wiring.
                    let mut ts_targets = Vec::new();
                    lvalue_targets(&lv, &mut ts_targets);
                    if ts_targets.iter().all(|t| clock_aliases.contains(t)) {
                        continue;
                    }
                    self.install_assign(&lv, &rhs)?;
                }
                Unit::Comb(body) => {
                    let env = self.exec_comb(&body)?;
                    for (name, e) in env {
                        self.sig_expr.insert(name, e);
                    }
                }
            }
        }

        // ---- clocked processes ----
        let clocked = self.flat.clocked.clone();
        let mut next_map: HashMap<String, ExprId> = HashMap::new();
        for (_clk, body) in &clocked {
            let updates = self.exec_clocked(body)?;
            for (name, e) in updates {
                if next_map.insert(name.clone(), e).is_some() {
                    return Err(Self::err(format!(
                        "register '{name}' driven by multiple clocked processes"
                    )));
                }
            }
        }
        // Install next functions; frozen registers keep their value.
        let state_names: Vec<String> = self
            .flat
            .signals
            .iter()
            .filter(|(n, _)| matches!(role.get(n.as_str()), Some(Role::State)))
            .map(|(n, _)| n.clone())
            .collect();
        for name in &state_names {
            let v = self.vars[name];
            let next = match next_map.get(name) {
                Some(&e) => e,
                None => self.sig_expr[name],
            };
            self.ts.set_next(v, next);
        }

        // ---- initial blocks ----
        let initials = self.flat.initials.clone();
        let mut init_scalars: HashMap<String, u64> = HashMap::new();
        let mut init_mems: HashMap<String, HashMap<u64, u64>> = HashMap::new();
        for ini in &initials {
            self.exec_initial(ini, &mut init_scalars, &mut init_mems)?;
        }
        for (name, value) in init_scalars {
            let sig = self
                .flat
                .sig(&name)
                .ok_or_else(|| Self::err(format!("initial assigns unknown signal '{name}'")))?
                .clone();
            let v = *self
                .vars
                .get(&name)
                .ok_or_else(|| Self::err(format!("initial assigns non-register '{name}'")))?;
            if self.ts.state_of_var(v).is_none() {
                return Err(Self::err(format!("initial assigns non-register '{name}'")));
            }
            let e = self.ts.pool_mut().constv(sig.width, value);
            self.ts.set_init(v, e);
        }
        for (name, writes) in init_mems {
            let sig = self.flat.sig(&name).expect("checked").clone();
            let (_, addr_w) = sig
                .memory
                .ok_or_else(|| Self::err(format!("'{name}' is not a memory")))?;
            let v = self.vars[&name];
            let mut e = self.ts.pool_mut().const_array(addr_w, sig.width, 0);
            let mut keys: Vec<u64> = writes.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                let i = self.ts.pool_mut().constv(addr_w, k);
                let val = self.ts.pool_mut().constv(sig.width, writes[&k]);
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

    // ------------------------------------------------------------------
    // Expression building
    // ------------------------------------------------------------------

    fn signal_width(&self, name: &str) -> Result<u32, VerilogError> {
        self.flat
            .sig(name)
            .map(|s| s.width)
            .ok_or_else(|| Self::err(format!("unknown signal '{name}'")))
    }

    fn self_width(&self, e: &Expr) -> Result<u32, VerilogError> {
        Ok(match e {
            Expr::Ident(n) => self.signal_width(n)?,
            Expr::Number { size, value } => size
                .unwrap_or_else(|| 64 - value.leading_zeros())
                .clamp(1, 64),
            Expr::Unary(op, a) => match op {
                UnaryOp::Not | UnaryOp::Neg | UnaryOp::Plus => self.self_width(a)?,
                _ => 1,
            },
            Expr::Binary(op, a, b) => match op {
                BinaryOp::Add
                | BinaryOp::Sub
                | BinaryOp::Mul
                | BinaryOp::Div
                | BinaryOp::Mod
                | BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Xor
                | BinaryOp::Xnor => self.self_width(a)?.max(self.self_width(b)?),
                BinaryOp::Shl | BinaryOp::Shr | BinaryOp::Sshl | BinaryOp::Sshr => {
                    self.self_width(a)?
                }
                _ => 1,
            },
            Expr::Ternary(_, a, b) => self.self_width(a)?.max(self.self_width(b)?),
            Expr::Concat(parts) => {
                let mut w = 0;
                for p in parts {
                    w = concat_width(w, self.self_width(p)?)?;
                }
                w
            }
            Expr::Repl(n, parts) => {
                let count = const_eval(n, &HashMap::new()).map_err(Self::err)?;
                let mut w = 0;
                for p in parts {
                    w = concat_width(w, self.self_width(p)?)?;
                }
                replication_width(count, w)?
            }
            Expr::Index(n, _) => match self.flat.sig(n) {
                Some(s) if s.memory.is_some() => s.width,
                _ => 1,
            },
            Expr::Part(_, hi, lo) => {
                let h = const_eval(hi, &HashMap::new()).map_err(Self::err)?;
                let l = const_eval(lo, &HashMap::new()).map_err(Self::err)?;
                (h.saturating_sub(l) + 1) as u32
            }
        })
    }

    /// Builds `e` at exactly `width` bits (Verilog assignment-context
    /// semantics: the context width propagates into arithmetic).
    fn build(&mut self, e: &Expr, width: u32) -> Result<ExprId, VerilogError> {
        let p = |s: &mut Self, e: ExprId, w: u32| s.ts.pool_mut().resize_zext(e, w);
        Ok(match e {
            Expr::Number { value, .. } => self.ts.pool_mut().constv(width, *value),
            Expr::Ident(n) => {
                let sig = self
                    .flat
                    .sig(n)
                    .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?;
                if sig.memory.is_some() {
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
                UnaryOp::RedAnd => {
                    let w = self.self_width(a)?;
                    let av = self.build(a, w)?;
                    let r = self.ts.pool_mut().redand(av);
                    p(self, r, width)
                }
                UnaryOp::RedOr => {
                    let w = self.self_width(a)?;
                    let av = self.build(a, w)?;
                    let r = self.ts.pool_mut().redor(av);
                    p(self, r, width)
                }
                UnaryOp::RedXor => {
                    let w = self.self_width(a)?;
                    let av = self.build(a, w)?;
                    let r = self.ts.pool_mut().redxor(av);
                    p(self, r, width)
                }
                UnaryOp::RedNand => {
                    let w = self.self_width(a)?;
                    let av = self.build(a, w)?;
                    let r = self.ts.pool_mut().redand(av);
                    let nr = self.ts.pool_mut().not(r);
                    p(self, nr, width)
                }
                UnaryOp::RedNor => {
                    let w = self.self_width(a)?;
                    let av = self.build(a, w)?;
                    let r = self.ts.pool_mut().redor(av);
                    let nr = self.ts.pool_mut().not(r);
                    p(self, nr, width)
                }
                UnaryOp::RedXnor => {
                    let w = self.self_width(a)?;
                    let av = self.build(a, w)?;
                    let r = self.ts.pool_mut().redxor(av);
                    let nr = self.ts.pool_mut().not(r);
                    p(self, nr, width)
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
                        let aw = self.self_width(a)?;
                        let bw = self.self_width(b)?;
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
                        let aw = self.self_width(a)?;
                        let w = width.max(aw);
                        let av = self.build(a, w)?;
                        let bw = self.self_width(b)?;
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
                        let w = self.self_width(a)?.max(self.self_width(b)?);
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
                let mut acc: Option<ExprId> = None;
                let mut total = 0;
                for part in parts {
                    let w = self.self_width(part)?;
                    total = concat_width(total, w)?;
                    let pv = self.build(part, w)?;
                    acc = Some(match acc {
                        None => pv,
                        Some(a) => self.ts.pool_mut().concat(a, pv),
                    });
                }
                let e = acc.ok_or_else(|| Self::err("empty concatenation"))?;
                p(self, e, width)
            }
            Expr::Repl(n, parts) => {
                let count = const_eval(n, &HashMap::new()).map_err(Self::err)?;
                if count == 0 {
                    return Err(Self::err("zero replication"));
                }
                let mut one: Option<ExprId> = None;
                let mut unit_width = 0;
                for part in parts {
                    let w = self.self_width(part)?;
                    unit_width = concat_width(unit_width, w)?;
                    let pv = self.build(part, w)?;
                    one = Some(match one {
                        None => pv,
                        Some(a) => self.ts.pool_mut().concat(a, pv),
                    });
                }
                let unit = one.ok_or_else(|| Self::err("empty replication"))?;
                replication_width(count, unit_width)?;
                let mut acc = unit;
                for _ in 1..count {
                    acc = self.ts.pool_mut().concat(acc, unit);
                }
                p(self, acc, width)
            }
            Expr::Index(n, idx) => {
                let sig = self
                    .flat
                    .sig(n)
                    .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?
                    .clone();
                let base = *self
                    .sig_expr
                    .get(n)
                    .ok_or_else(|| Self::err(format!("'{n}' used before definition")))?;
                if let Some((_, addr_w)) = sig.memory {
                    let iv = self.build(idx, addr_w)?;
                    let r = self.ts.pool_mut().read(base, iv);
                    p(self, r, width)
                } else {
                    // Dynamic bit select: (sig >> (idx - lsb)) & 1.
                    let iw = self
                        .self_width(idx)?
                        .max(ceil_log2(sig.width as u64).max(1));
                    let mut iv = self.build(idx, iw)?;
                    if sig.lsb != 0 {
                        let off = self.ts.pool_mut().constv(iw, sig.lsb as u64);
                        iv = self.ts.pool_mut().sub(iv, off);
                    }
                    let shifted = self.ts.pool_mut().lshr(base, iv);
                    let bit = self.ts.pool_mut().extract(shifted, 0, 0);
                    p(self, bit, width)
                }
            }
            Expr::Part(n, hi, lo) => {
                let sig = self
                    .flat
                    .sig(n)
                    .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?
                    .clone();
                if sig.memory.is_some() {
                    return Err(Self::err(format!("part-select on memory '{n}'")));
                }
                let base = *self
                    .sig_expr
                    .get(n)
                    .ok_or_else(|| Self::err(format!("'{n}' used before definition")))?;
                let h = const_eval(hi, &HashMap::new()).map_err(Self::err)? as u32;
                let l = const_eval(lo, &HashMap::new()).map_err(Self::err)? as u32;
                if l < sig.lsb || h >= sig.lsb + sig.width || l > h {
                    return Err(Self::err(format!(
                        "part select [{h}:{l}] out of range for '{n}'"
                    )));
                }
                let r = self.ts.pool_mut().extract(base, h - sig.lsb, l - sig.lsb);
                p(self, r, width)
            }
        })
    }

    /// Builds `e` as a 1-bit truth value (`|e|` for wide expressions).
    fn build_bool(&mut self, e: &Expr) -> Result<ExprId, VerilogError> {
        let w = self.self_width(e)?;
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

    /// Installs a continuous assignment into `sig_expr`.
    fn install_assign(&mut self, lv: &LValue, rhs: &Expr) -> Result<(), VerilogError> {
        match lv {
            LValue::Ident(n) => {
                let w = self.signal_width(n)?;
                let e = self.build(rhs, w)?;
                self.sig_expr.insert(n.clone(), e);
                Ok(())
            }
            LValue::Concat(parts) => {
                // Left-to-right parts take MSB-first slices of the rhs.
                let mut widths = Vec::new();
                for p in parts {
                    match p {
                        LValue::Ident(n) => widths.push(self.signal_width(n)?),
                        _ => {
                            return Err(Self::err("nested selects in concatenated assign targets"))
                        }
                    }
                }
                let total: u32 = widths.iter().sum();
                let rhs_e = self.build(rhs, total)?;
                let mut hi = total;
                for (p, w) in parts.iter().zip(&widths) {
                    let lo = hi - w;
                    let slice = self.ts.pool_mut().extract(rhs_e, hi - 1, lo);
                    if let LValue::Ident(n) = p {
                        self.sig_expr.insert(n.clone(), slice);
                    }
                    hi = lo;
                }
                Ok(())
            }
            _ => Err(Self::err(
                "continuous assignment to bit/part selects is not supported",
            )),
        }
    }

    /// Reads a signal inside a process, honoring the local environment.
    fn read_sig(
        &mut self,
        env: &HashMap<String, ExprId>,
        name: &str,
    ) -> Result<ExprId, VerilogError> {
        if let Some(&e) = env.get(name) {
            return Ok(e);
        }
        self.sig_expr
            .get(name)
            .copied()
            .ok_or_else(|| Self::err(format!("'{name}' used before definition")))
    }

    /// Builds an expression inside a process: identifiers first resolve
    /// through the blocking environment.
    fn build_in_env(
        &mut self,
        env: &HashMap<String, ExprId>,
        e: &Expr,
        width: u32,
    ) -> Result<ExprId, VerilogError> {
        // Substitute env values by temporarily overriding sig_expr.
        let mut saved: Vec<(String, Option<ExprId>)> = Vec::new();
        for (k, &v) in env {
            saved.push((k.clone(), self.sig_expr.get(k).copied()));
            self.sig_expr.insert(k.clone(), v);
        }
        let result = self.build(e, width);
        for (k, old) in saved {
            match old {
                Some(o) => {
                    self.sig_expr.insert(k, o);
                }
                None => {
                    self.sig_expr.remove(&k);
                }
            }
        }
        result
    }

    fn build_bool_in_env(
        &mut self,
        env: &HashMap<String, ExprId>,
        e: &Expr,
    ) -> Result<ExprId, VerilogError> {
        let w = self.self_width(e)?;
        let v = self.build_in_env(env, e, w)?;
        Ok(if w == 1 {
            v
        } else {
            self.ts.pool_mut().redor(v)
        })
    }

    /// Applies an assignment to a process environment (read-modify-write
    /// for selects, functional update for memories).
    fn assign_in_env(
        &mut self,
        env: &mut HashMap<String, ExprId>,
        lv: &LValue,
        rhs: &Expr,
        fallback_current: bool,
    ) -> Result<(), VerilogError> {
        match lv {
            LValue::Ident(n) => {
                let sig = self
                    .flat
                    .sig(n)
                    .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?
                    .clone();
                if sig.memory.is_some() {
                    return Err(Self::err(format!(
                        "whole-memory assignment to '{n}' is not supported"
                    )));
                }
                let e = self.build_in_env(env, rhs, sig.width)?;
                env.insert(n.clone(), e);
                Ok(())
            }
            LValue::Index(n, idx) => {
                let sig = self
                    .flat
                    .sig(n)
                    .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?
                    .clone();
                if let Some((_, addr_w)) = sig.memory {
                    let cur = match env.get(n) {
                        Some(&e) => e,
                        None => self.read_sig(&HashMap::new(), n)?,
                    };
                    let iv = self.build_in_env(env, idx, addr_w)?;
                    let val = self.build_in_env(env, rhs, sig.width)?;
                    let w = self.ts.pool_mut().write(cur, iv, val);
                    env.insert(n.clone(), w);
                } else {
                    // Bit read-modify-write.
                    let cur = match env.get(n) {
                        Some(&e) => e,
                        None => {
                            if fallback_current {
                                self.read_sig(&HashMap::new(), n)?
                            } else {
                                return Err(Self::err(format!(
                                    "bit assignment to '{n}' before full assignment \
                                     in combinational process (latch)"
                                )));
                            }
                        }
                    };
                    let iw = self
                        .self_width(idx)?
                        .max(ceil_log2(sig.width as u64).max(1));
                    let mut iv = self.build_in_env(env, idx, iw)?;
                    if sig.lsb != 0 {
                        let off = self.ts.pool_mut().constv(iw, sig.lsb as u64);
                        iv = self.ts.pool_mut().sub(iv, off);
                    }
                    let bitv = self.build_in_env(env, rhs, 1)?;
                    let one = self.ts.pool_mut().constv(sig.width, 1);
                    let mask = self.ts.pool_mut().shl(one, iv);
                    let nmask = self.ts.pool_mut().not(mask);
                    let cleared = self.ts.pool_mut().and(cur, nmask);
                    let bit_wide = self.ts.pool_mut().zext(bitv, sig.width);
                    let shifted = self.ts.pool_mut().shl(bit_wide, iv);
                    let merged = self.ts.pool_mut().or(cleared, shifted);
                    env.insert(n.clone(), merged);
                }
                Ok(())
            }
            LValue::Part(n, hi, lo) => {
                let sig = self
                    .flat
                    .sig(n)
                    .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?
                    .clone();
                let h = const_eval(hi, &HashMap::new()).map_err(Self::err)? as u32 - sig.lsb;
                let l = const_eval(lo, &HashMap::new()).map_err(Self::err)? as u32 - sig.lsb;
                if h >= sig.width || l > h {
                    return Err(Self::err(format!("part select out of range on '{n}'")));
                }
                let cur = match env.get(n) {
                    Some(&e) => e,
                    None => {
                        if fallback_current {
                            self.read_sig(&HashMap::new(), n)?
                        } else {
                            return Err(Self::err(format!(
                                "part assignment to '{n}' before full assignment \
                                 in combinational process (latch)"
                            )));
                        }
                    }
                };
                let val = self.build_in_env(env, rhs, h - l + 1)?;
                // Splice: [ high | val | low ].
                let mut merged = val;
                if l > 0 {
                    let low = self.ts.pool_mut().extract(cur, l - 1, 0);
                    merged = self.ts.pool_mut().concat(merged, low);
                }
                if h + 1 < sig.width {
                    let high = self.ts.pool_mut().extract(cur, sig.width - 1, h + 1);
                    merged = self.ts.pool_mut().concat(high, merged);
                }
                env.insert(n.clone(), merged);
                Ok(())
            }
            LValue::Concat(parts) => {
                let mut widths = Vec::new();
                for p in parts {
                    let LValue::Ident(n) = p else {
                        return Err(Self::err(
                            "nested selects in concatenated assignment targets",
                        ));
                    };
                    widths.push(self.signal_width(n)?);
                }
                let total: u32 = widths.iter().sum();
                let rhs_e = self.build_in_env(env, rhs, total)?;
                let mut hi = total;
                for (p, w) in parts.iter().zip(&widths) {
                    let lo = hi - w;
                    let slice = self.ts.pool_mut().extract(rhs_e, hi - 1, lo);
                    if let LValue::Ident(n) = p {
                        env.insert(n.clone(), slice);
                    }
                    hi = lo;
                }
                Ok(())
            }
        }
    }

    /// Merges two branch environments under a condition; `fallback`
    /// supplies values for keys missing on one side (None = latch
    /// error for combinational processes).
    fn merge_envs(
        &mut self,
        cond: ExprId,
        then_env: HashMap<String, ExprId>,
        else_env: HashMap<String, ExprId>,
        base: &HashMap<String, ExprId>,
        allow_current: bool,
    ) -> Result<HashMap<String, ExprId>, VerilogError> {
        let mut keys: HashSet<String> = then_env.keys().cloned().collect();
        keys.extend(else_env.keys().cloned());
        let mut out = base.clone();
        for k in keys {
            let fallback = |s: &mut Self| -> Result<ExprId, VerilogError> {
                if let Some(&b) = base.get(&k) {
                    return Ok(b);
                }
                if allow_current {
                    s.read_sig(&HashMap::new(), &k)
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
        env: &mut HashMap<String, ExprId>,
        nb: Option<&mut HashMap<String, ExprId>>,
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
            Stmt::Blocking(lv, rhs) => self.assign_in_env(env, lv, rhs, allow_current),
            Stmt::NonBlocking(lv, rhs) => match nb {
                Some(nbe) => {
                    // Non-blocking reads see pre-process values (env for
                    // blocking locals still applies per Verilog
                    // scheduling of blocking-then-nonblocking reads).
                    let mut tmp = nbe.clone();
                    // Reads inside the rhs use the blocking env.
                    let rhs_env = env.clone();
                    // Memory / select updates start from the
                    // latest non-blocking value of the target.
                    self.assign_with_read_env(&mut tmp, &rhs_env, lv, rhs)?;
                    *nbe = tmp;
                    Ok(())
                }
                None => Err(Self::err(
                    "non-blocking assignment in combinational process",
                )),
            },
            Stmt::If(c, t, e) => {
                let cv = self.build_bool_in_env(env, c)?;
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
            Stmt::Case {
                expr,
                arms,
                default,
                wildcard: _,
            } => {
                // Desugar into an if-else chain with priority order.
                let chain = Self::case_to_if(expr, arms, default);
                self.exec_stmt(&chain, env, nb, allow_current)
            }
        }
    }

    fn case_to_if(expr: &Expr, arms: &[(Vec<Expr>, Stmt)], default: &Option<Box<Stmt>>) -> Stmt {
        let mut chain: Stmt = match default {
            Some(d) => (**d).clone(),
            None => Stmt::Nop,
        };
        for (labels, body) in arms.iter().rev() {
            let mut cond: Option<Expr> = None;
            for l in labels {
                let eq = Expr::Binary(BinaryOp::Eq, Box::new(expr.clone()), Box::new(l.clone()));
                cond = Some(match cond {
                    None => eq,
                    Some(c) => Expr::Binary(BinaryOp::LogicOr, Box::new(c), Box::new(eq)),
                });
            }
            let cond = cond.unwrap_or(Expr::num(0));
            chain = Stmt::If(cond, Box::new(body.clone()), Some(Box::new(chain)));
        }
        chain
    }

    /// Non-blocking assignment: the written value reads through
    /// `read_env` (the blocking env), but read-modify-write of the
    /// target itself chains through the non-blocking env `nbe`.
    fn assign_with_read_env(
        &mut self,
        nbe: &mut HashMap<String, ExprId>,
        read_env: &HashMap<String, ExprId>,
        lv: &LValue,
        rhs: &Expr,
    ) -> Result<(), VerilogError> {
        match lv {
            LValue::Ident(n) => {
                let w = self.signal_width(n)?;
                let e = self.build_in_env(read_env, rhs, w)?;
                nbe.insert(n.clone(), e);
                Ok(())
            }
            LValue::Index(n, idx) => {
                let sig = self
                    .flat
                    .sig(n)
                    .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?
                    .clone();
                if let Some((_, addr_w)) = sig.memory {
                    let cur = match nbe.get(n) {
                        Some(&e) => e,
                        None => self.read_sig(&HashMap::new(), n)?,
                    };
                    let iv = self.build_in_env(read_env, idx, addr_w)?;
                    let val = self.build_in_env(read_env, rhs, sig.width)?;
                    let w = self.ts.pool_mut().write(cur, iv, val);
                    nbe.insert(n.clone(), w);
                    Ok(())
                } else {
                    let mut env2 = nbe.clone();
                    // For scalar bit writes reuse the blocking machinery
                    // with the non-blocking env as the base.
                    for (k, v) in read_env {
                        env2.entry(k.clone()).or_insert(*v);
                    }
                    self.assign_in_env(&mut env2, lv, rhs, true)?;
                    if let Some(&v) = env2.get(n) {
                        nbe.insert(n.clone(), v);
                    }
                    Ok(())
                }
            }
            LValue::Part(n, _, _) => {
                let mut env2 = nbe.clone();
                for (k, v) in read_env {
                    env2.entry(k.clone()).or_insert(*v);
                }
                self.assign_in_env(&mut env2, lv, rhs, true)?;
                if let Some(&v) = env2.get(n) {
                    nbe.insert(n.clone(), v);
                }
                Ok(())
            }
            LValue::Concat(_) => {
                let mut env2 = nbe.clone();
                for (k, v) in read_env {
                    env2.entry(k.clone()).or_insert(*v);
                }
                let mut targets = Vec::new();
                lvalue_targets(lv, &mut targets);
                self.assign_in_env(&mut env2, lv, rhs, true)?;
                for t in targets {
                    if let Some(&v) = env2.get(&t) {
                        nbe.insert(t, v);
                    }
                }
                Ok(())
            }
        }
    }

    fn exec_comb(&mut self, body: &Stmt) -> Result<HashMap<String, ExprId>, VerilogError> {
        let mut env = HashMap::new();
        self.exec_stmt(body, &mut env, None, false)?;
        Ok(env)
    }

    fn exec_clocked(&mut self, body: &Stmt) -> Result<HashMap<String, ExprId>, VerilogError> {
        let mut env = HashMap::new();
        let mut nb = HashMap::new();
        self.exec_stmt(body, &mut env, Some(&mut nb), true)?;
        // Blocking-assigned registers in clocked processes are state
        // updates too; non-blocking wins on conflicts (matches
        // scheduling order within one process).
        let mut out = env;
        for (k, v) in nb {
            out.insert(k, v);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Initial blocks (concrete interpretation)
    // ------------------------------------------------------------------

    fn exec_initial(
        &mut self,
        s: &Stmt,
        scalars: &mut HashMap<String, u64>,
        mems: &mut HashMap<String, HashMap<u64, u64>>,
    ) -> Result<(), VerilogError> {
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Block(b) => {
                for st in b {
                    self.exec_initial(st, scalars, mems)?;
                }
                Ok(())
            }
            Stmt::If(c, t, e) => {
                let cv = Self::const_with(c, scalars)?;
                if cv != 0 {
                    self.exec_initial(t, scalars, mems)
                } else if let Some(e) = e {
                    self.exec_initial(e, scalars, mems)
                } else {
                    Ok(())
                }
            }
            Stmt::Blocking(lv, rhs) | Stmt::NonBlocking(lv, rhs) => {
                let v = Self::const_with(rhs, scalars)?;
                match lv {
                    LValue::Ident(n) => {
                        let w = self.signal_width(n)?;
                        scalars.insert(n.clone(), v & rtlir::value::mask(w));
                        Ok(())
                    }
                    LValue::Index(n, idx) => {
                        let sig = self
                            .flat
                            .sig(n)
                            .ok_or_else(|| Self::err(format!("unknown signal '{n}'")))?
                            .clone();
                        if sig.memory.is_none() {
                            return Err(Self::err("bit-level initialization is not supported"));
                        }
                        let i = Self::const_with(idx, scalars)?;
                        mems.entry(n.clone())
                            .or_default()
                            .insert(i, v & rtlir::value::mask(sig.width));
                        Ok(())
                    }
                    _ => Err(Self::err("unsupported initial assignment target")),
                }
            }
            Stmt::Case { .. } => Err(Self::err("case statements in initial blocks")),
        }
    }

    fn const_with(e: &Expr, env: &HashMap<String, u64>) -> Result<u64, VerilogError> {
        const_eval(e, env).map_err(Self::err)
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
