//! Elaboration: parameter resolution and hierarchy specialization.
//!
//! Elaboration turns parsed [`SourceModule`]s into a [`Design`]: every
//! distinct `(module, parameter values)` combination becomes one
//! [`ElabModule`] with all parameter references substituted by
//! constants and all ranges resolved to widths. The module hierarchy
//! is *retained* (as in v2c); flattening happens later, in synthesis
//! or in the software-netlist generator.
//!
//! [`check`] then decides, once for the whole hierarchy, what both of
//! those read: the clock, the registers and their reset values, and
//! the combinational schedule, after checking every rule a design must
//! obey (drivers, names, instances, latches, widths and bounds).

use crate::ast::*;
use crate::error::VerilogError;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// An elaborated signal.
#[derive(Clone, Debug)]
pub struct ESignal {
    /// Declared name.
    pub name: String,
    /// Bit width of the packed range (element width for memories).
    pub width: u32,
    /// Least significant index of the packed range (`[7:4]` → 4).
    pub lsb: u32,
    /// `wire` or `reg`.
    pub kind: NetKind,
    /// For memories: number of rows and address width.
    pub memory: Option<(u64, u32)>,
    /// Port direction, when the signal is a port.
    pub port: Option<Dir>,
    /// Constant initializer from the declaration, if any.
    pub init: Option<u64>,
}

/// An elaborated instance.
#[derive(Clone, Debug)]
pub struct EInstance {
    /// Index of the instantiated (specialized) module in the design.
    pub module: usize,
    /// Instance name.
    pub name: String,
    /// Connections: `(port index in child, expression in parent scope)`.
    pub conns: Vec<(usize, Expr)>,
}

/// An elaborated module: parameters substituted, widths resolved.
#[derive(Clone, Debug)]
pub struct ElabModule {
    /// Specialized name (source name plus parameter bindings).
    pub name: String,
    /// Original source module name.
    pub source_name: String,
    /// Signals (ports first, in port order).
    pub signals: Vec<ESignal>,
    /// Continuous assignments.
    pub assigns: Vec<(LValue, Expr)>,
    /// Processes: `(clock name if clocked, body)`.
    pub processes: Vec<(Option<String>, Stmt)>,
    /// Initial blocks (reset values).
    pub initials: Vec<Stmt>,
    /// Instances.
    pub instances: Vec<EInstance>,
    /// Safety properties `(label, condition)`.
    pub asserts: Vec<(String, Expr)>,
    /// Environment assumptions.
    pub assumes: Vec<Expr>,
}

impl ElabModule {
    /// A signal by name.
    pub fn signal(&self, name: &str) -> Option<&ESignal> {
        self.signals.iter().find(|s| s.name == name)
    }
}

/// A fully elaborated design: specialized modules plus the top index.
#[derive(Clone, Debug)]
pub struct Design {
    /// All specialized modules (children before parents).
    pub modules: Vec<ElabModule>,
    /// Index of the top module.
    pub top: usize,
}

/// Elaborates a set of parsed modules with `top` as the root.
///
/// # Errors
///
/// Reports unknown modules/parameters, non-constant widths, duplicate
/// signals or instances and malformed port connections.
pub fn elaborate(modules: &[SourceModule], top: &str) -> Result<Design, VerilogError> {
    let by_name: HashMap<&str, &SourceModule> =
        modules.iter().map(|m| (m.name.as_str(), m)).collect();
    if modules.len() != by_name.len() {
        return Err(VerilogError::general("duplicate module names"));
    }
    let mut elab = Elaborator {
        by_name,
        out: Vec::new(),
        memo: HashMap::new(),
        open: Vec::new(),
    };
    let top_idx = elab.module(top, &[], 0)?;
    Ok(Design {
        modules: elab.out,
        top: top_idx,
    })
}

struct Elaborator<'a> {
    by_name: HashMap<&'a str, &'a SourceModule>,
    out: Vec<ElabModule>,
    memo: HashMap<(String, Vec<(String, u64)>), usize>,
    /// The modules being elaborated, outermost first: a module that
    /// instantiates one of them closes a cycle.
    open: Vec<String>,
}

impl<'a> Elaborator<'a> {
    fn module(
        &mut self,
        name: &str,
        overrides: &[(Option<String>, u64)],
        line: u32,
    ) -> Result<usize, VerilogError> {
        let src = *self
            .by_name
            .get(name)
            .ok_or_else(|| VerilogError::at(line, format!("unknown module '{name}'")))?;
        if let Some(first) = self.open.iter().position(|m| m == name) {
            let cycle = self.open[first..].join(" -> ");
            return Err(VerilogError::at(
                line,
                format!("module instantiation cycle: {cycle} -> {name}"),
            ));
        }
        self.open.push(name.to_string());
        let module = self.specialize(src, name, overrides, line);
        self.open.pop();
        module
    }

    /// Elaborates the source module `src` (named `name`) under the
    /// parameter `overrides` of its instantiation at `line`.
    fn specialize(
        &mut self,
        src: &SourceModule,
        name: &str,
        overrides: &[(Option<String>, u64)],
        line: u32,
    ) -> Result<usize, VerilogError> {
        // Resolve parameters in declaration order, applying overrides.
        let mut params: HashMap<String, u64> = HashMap::new();
        let mut param_order: Vec<String> = Vec::new();
        for item in &src.items {
            if let Item::Param { name: pname, value } = item {
                let v = const_eval(value, &params).map_err(|e| VerilogError::at(src.line, e))?;
                params.insert(pname.clone(), v);
                param_order.push(pname.clone());
            }
        }
        for (pos, (oname, oval)) in overrides.iter().enumerate() {
            let key = match oname {
                Some(n) => n.clone(),
                None => param_order.get(pos).cloned().ok_or_else(|| {
                    VerilogError::at(line, "too many positional parameter overrides")
                })?,
            };
            if !params.contains_key(&key) {
                return Err(VerilogError::at(
                    line,
                    format!("module '{name}' has no parameter '{key}'"),
                ));
            }
            params.insert(key, *oval);
        }

        // Memoize on the resolved parameter environment.
        let mut key_params: Vec<(String, u64)> =
            params.iter().map(|(k, &v)| (k.clone(), v)).collect();
        key_params.sort();
        let memo_key = (name.to_string(), key_params.clone());
        if let Some(&idx) = self.memo.get(&memo_key) {
            return Ok(idx);
        }

        let spec_name = if key_params.is_empty() {
            name.to_string()
        } else {
            let args: Vec<String> = key_params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{name}#{}", args.join(","))
        };

        // Signals: ports first.
        let mut signals: Vec<ESignal> = Vec::new();
        let mut seen: HashMap<String, usize> = HashMap::new();
        for port in &src.ports {
            let (width, lsb) = range_width(&port.range, &params, src.line)?;
            let idx = signals.len();
            if seen.insert(port.name.clone(), idx).is_some() {
                return Err(VerilogError::at(
                    src.line,
                    format!("duplicate port '{}'", port.name),
                ));
            }
            signals.push(ESignal {
                name: port.name.clone(),
                width,
                lsb,
                kind: if port.is_reg {
                    NetKind::Reg
                } else {
                    NetKind::Wire
                },
                memory: None,
                port: Some(port.dir),
                init: None,
            });
        }
        let mut assigns = Vec::new();
        let mut processes = Vec::new();
        let mut initials = Vec::new();
        let mut instances = Vec::new();
        let mut asserts = Vec::new();
        let mut assumes = Vec::new();
        let mut assert_count = 0usize;

        for item in &src.items {
            match item {
                Item::Param { .. } => {}
                Item::Decl { kind, range, names } => {
                    let (width, lsb) = range_width(range, &params, src.line)?;
                    for dn in names {
                        let memory = match &dn.memory {
                            None => None,
                            Some(r) => {
                                let a = const_eval(&r.hi, &params)
                                    .map_err(|e| VerilogError::at(src.line, e))?;
                                let b = const_eval(&r.lo, &params)
                                    .map_err(|e| VerilogError::at(src.line, e))?;
                                if a.min(b) != 0 {
                                    return Err(VerilogError::at(
                                        src.line,
                                        format!("memory '{}' must start at index 0", dn.name),
                                    ));
                                }
                                if a.max(b) >= 1 << 32 {
                                    return Err(VerilogError::at(
                                        src.line,
                                        format!("memory '{}' has more than 2^32 rows", dn.name),
                                    ));
                                }
                                let rows = a.max(b) + 1;
                                let addr_width = ceil_log2(rows).max(1);
                                Some((rows, addr_width))
                            }
                        };
                        let init = match &dn.init {
                            None => None,
                            Some(e) => Some(
                                const_eval(e, &params)
                                    .map_err(|er| VerilogError::at(src.line, er))?,
                            ),
                        };
                        if memory.is_some() && init.is_some() {
                            return Err(VerilogError::at(
                                src.line,
                                "memory declaration initializers are not supported; use an \
                                 initial block",
                            ));
                        }
                        match seen.get(&dn.name) {
                            Some(&idx) => {
                                // Re-declaration of a port signal: refine
                                // kind/width (output reg pattern).
                                let s = &mut signals[idx];
                                if s.port.is_none() {
                                    return Err(VerilogError::at(
                                        src.line,
                                        format!("duplicate signal '{}'", dn.name),
                                    ));
                                }
                                s.kind = *kind;
                                if range.is_some() {
                                    s.width = width;
                                    s.lsb = lsb;
                                }
                                s.init = init;
                            }
                            None => {
                                seen.insert(dn.name.clone(), signals.len());
                                signals.push(ESignal {
                                    name: dn.name.clone(),
                                    width,
                                    lsb,
                                    kind: *kind,
                                    memory,
                                    port: None,
                                    init,
                                });
                            }
                        }
                    }
                }
                Item::ContAssign(lhs, rhs) => {
                    assigns.push((subst_lvalue(lhs, &params), subst_expr(rhs, &params)));
                }
                Item::Always(sens, body) => {
                    let clock = match sens {
                        Sensitivity::Comb => None,
                        Sensitivity::Posedge(c) => Some(c.clone()),
                    };
                    processes.push((clock, subst_stmt(body, &params)));
                }
                Item::Initial(body) => initials.push(subst_stmt(body, &params)),
                Item::Instance {
                    module,
                    name: iname,
                    params: ip,
                    conns,
                } => {
                    let resolved: Vec<(Option<String>, u64)> = ip
                        .iter()
                        .map(|(n, e)| {
                            const_eval(e, &params)
                                .map(|v| (n.clone(), v))
                                .map_err(|er| VerilogError::at(src.line, er))
                        })
                        .collect::<Result<_, _>>()?;
                    let child = self.module(module, &resolved, src.line)?;
                    let child_ports: Vec<(String, usize)> = self.out[child]
                        .signals
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.port.is_some())
                        .map(|(i, s)| (s.name.clone(), i))
                        .collect();
                    let mut econns = Vec::new();
                    for (pos, (cname, cexpr)) in conns.iter().enumerate() {
                        let port_idx = match cname {
                            Some(n) => child_ports
                                .iter()
                                .find(|(pn, _)| pn == n)
                                .map(|(_, i)| *i)
                                .ok_or_else(|| {
                                    VerilogError::at(
                                        src.line,
                                        format!("module '{module}' has no port '{n}'"),
                                    )
                                })?,
                            None => child_ports.get(pos).map(|(_, i)| *i).ok_or_else(|| {
                                VerilogError::at(
                                    src.line,
                                    format!("too many connections for '{module}'"),
                                )
                            })?,
                        };
                        if let Some(e) = cexpr {
                            econns.push((port_idx, subst_expr(e, &params)));
                        }
                    }
                    instances.push(EInstance {
                        module: child,
                        name: iname.clone(),
                        conns: econns,
                    });
                }
                Item::AssertProperty { cond, label } => {
                    assert_count += 1;
                    let lbl = label
                        .clone()
                        .unwrap_or_else(|| format!("assert_{assert_count}"));
                    asserts.push((lbl, subst_expr(cond, &params)));
                }
                Item::AssumeProperty { cond } => {
                    assumes.push(subst_expr(cond, &params));
                }
            }
        }
        // Instances share the signals' name space: a signal `u` and an
        // instance `u` would be one C struct member.
        let mut names = HashSet::new();
        for inst in &instances {
            if seen.contains_key(&inst.name) || !names.insert(&inst.name) {
                return Err(VerilogError::at(
                    src.line,
                    format!("duplicate instance '{}'", inst.name),
                ));
            }
        }

        let idx = self.out.len();
        self.out.push(ElabModule {
            name: spec_name,
            source_name: name.to_string(),
            signals,
            assigns,
            processes,
            initials,
            instances,
            asserts,
            assumes,
        });
        self.memo.insert(memo_key, idx);
        Ok(idx)
    }
}

fn range_width(
    range: &Option<Range>,
    params: &HashMap<String, u64>,
    line: u32,
) -> Result<(u32, u32), VerilogError> {
    match range {
        None => Ok((1, 0)),
        Some(r) => {
            let hi = const_eval(&r.hi, params).map_err(|e| VerilogError::at(line, e))?;
            let lo = const_eval(&r.lo, params).map_err(|e| VerilogError::at(line, e))?;
            if lo > hi {
                return Err(VerilogError::at(
                    line,
                    "descending ranges [lo:hi] not supported",
                ));
            }
            if hi - lo >= 64 {
                return Err(VerilogError::at(
                    line,
                    "width out of supported range 1..=64",
                ));
            }
            let lsb = u32::try_from(lo).map_err(|_| {
                VerilogError::at(line, "range bounds past bit 2^32 are not supported")
            })?;
            Ok(((hi - lo + 1) as u32, lsb))
        }
    }
}

/// Ceiling of log2 (0 for n <= 1).
pub fn ceil_log2(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// Evaluates a constant expression over a parameter environment.
///
/// # Errors
///
/// Returns a message when the expression references a non-parameter
/// identifier or uses an operator outside the constant subset.
pub fn const_eval(e: &Expr, params: &HashMap<String, u64>) -> Result<u64, String> {
    match e {
        Expr::Number { value, .. } => Ok(*value),
        Expr::Ident(n) => params
            .get(n)
            .copied()
            .ok_or_else(|| format!("'{n}' is not a constant parameter")),
        Expr::Unary(op, a) => {
            let av = const_eval(a, params)?;
            Ok(match op {
                UnaryOp::Neg => av.wrapping_neg(),
                UnaryOp::Not => !av,
                UnaryOp::Plus => av,
                UnaryOp::LogicNot => (av == 0) as u64,
                _ => return Err("reduction operators in constant expressions".into()),
            })
        }
        Expr::Binary(op, a, b) => {
            let av = const_eval(a, params)?;
            let bv = const_eval(b, params)?;
            Ok(match op {
                BinaryOp::Add => av.wrapping_add(bv),
                BinaryOp::Sub => av.wrapping_sub(bv),
                BinaryOp::Mul => av.wrapping_mul(bv),
                BinaryOp::Div => {
                    if bv == 0 {
                        return Err("constant division by zero".into());
                    }
                    av / bv
                }
                BinaryOp::Mod => {
                    if bv == 0 {
                        return Err("constant modulo by zero".into());
                    }
                    av % bv
                }
                BinaryOp::Shl | BinaryOp::Sshl => av.checked_shl(bv as u32).unwrap_or(0),
                BinaryOp::Shr => av.checked_shr(bv as u32).unwrap_or(0),
                BinaryOp::And => av & bv,
                BinaryOp::Or => av | bv,
                BinaryOp::Xor => av ^ bv,
                BinaryOp::Eq => (av == bv) as u64,
                BinaryOp::Ne => (av != bv) as u64,
                BinaryOp::Lt => (av < bv) as u64,
                BinaryOp::Le => (av <= bv) as u64,
                BinaryOp::Gt => (av > bv) as u64,
                BinaryOp::Ge => (av >= bv) as u64,
                _ => return Err("operator not allowed in constant expression".into()),
            })
        }
        Expr::Ternary(c, a, b) => {
            if const_eval(c, params)? != 0 {
                const_eval(a, params)
            } else {
                const_eval(b, params)
            }
        }
        _ => Err("expression is not constant".into()),
    }
}

fn subst_expr(e: &Expr, params: &HashMap<String, u64>) -> Expr {
    match e {
        Expr::Ident(n) if params.contains_key(n) => Expr::num(params[n]),
        _ => e.map_operands(|x| subst_expr(x, params)),
    }
}

fn subst_lvalue(lv: &LValue, params: &HashMap<String, u64>) -> LValue {
    lv.map(&mut str::to_string, &mut |e| subst_expr(e, params))
}

fn subst_stmt(s: &Stmt, params: &HashMap<String, u64>) -> Stmt {
    s.map(&mut str::to_string, &mut |e| subst_expr(e, params))
}

// ----------------------------------------------------------------------
// Driver, width, bound and reset rules, shared by synthesis and v2c
// ----------------------------------------------------------------------

/// Finds a signal by name: an elaborated module's signals, or a
/// flattened design's under their hierarchical names.
pub type Lookup<'s> = dyn Fn(&str) -> Option<&'s ESignal> + 's;

/// The signal `name` names in `sigs`.
///
/// # Errors
///
/// Reports an unknown signal, which [`check`] rules out.
pub fn lookup<'s>(sigs: &Lookup<'s>, name: &str) -> Result<&'s ESignal, VerilogError> {
    sigs(name).ok_or_else(|| VerilogError::general(format!("unknown signal '{name}'")))
}

fn constant(e: &Expr) -> Result<u64, VerilogError> {
    const_eval(e, &HashMap::new()).map_err(VerilogError::general)
}

/// The width of a `total`-bit concatenation extended by a `part`-bit
/// part, or an error past the 64 bits a value can hold.
fn concat_width(total: u32, part: u32) -> Result<u32, VerilogError> {
    total
        .checked_add(part)
        .filter(|&w| w <= 64)
        .ok_or_else(|| VerilogError::general("concatenation is wider than 64 bits"))
}

/// The self-determined width of `e`: an operand's own width before an
/// assignment or operator context widens it. Concatenations and
/// replications hold at most 64 bits and replicate at least once, and
/// part-selects obey [`part_bounds`].
///
/// # Errors
///
/// Reports unknown signals, non-constant replication counts and the
/// violations above.
pub fn self_width(e: &Expr, sigs: &Lookup<'_>) -> Result<u32, VerilogError> {
    let parts_width = |parts: &[Expr]| {
        parts
            .iter()
            .try_fold(0, |w, p| concat_width(w, self_width(p, sigs)?))
    };
    Ok(match e {
        Expr::Ident(n) => lookup(sigs, n)?.width,
        Expr::Number { size, value } => size
            .unwrap_or_else(|| 64 - value.leading_zeros())
            .clamp(1, 64),
        Expr::Unary(UnaryOp::Not | UnaryOp::Neg | UnaryOp::Plus, a) => self_width(a, sigs)?,
        Expr::Unary(..) => 1,
        Expr::Binary(op, a, b) => match op {
            BinaryOp::Add
            | BinaryOp::Sub
            | BinaryOp::Mul
            | BinaryOp::Div
            | BinaryOp::Mod
            | BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Xor
            | BinaryOp::Xnor => self_width(a, sigs)?.max(self_width(b, sigs)?),
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::Sshl | BinaryOp::Sshr => self_width(a, sigs)?,
            _ => 1,
        },
        Expr::Ternary(_, a, b) => self_width(a, sigs)?.max(self_width(b, sigs)?),
        Expr::Concat(parts) => parts_width(parts)?,
        Expr::Repl(n, parts) => {
            let count = constant(n)?;
            if count == 0 {
                return Err(VerilogError::general("zero replication"));
            }
            let unit = parts_width(parts)?;
            count
                .checked_mul(u64::from(unit))
                .filter(|&w| w <= 64)
                .ok_or_else(|| {
                    VerilogError::general(format!(
                        "replication of {count} copies of {unit} bits is wider than 64 bits"
                    ))
                })? as u32
        }
        Expr::Index(n, _) => {
            let sig = lookup(sigs, n)?;
            if sig.memory.is_some() {
                sig.width
            } else {
                1
            }
        }
        Expr::Part(n, hi, lo) => {
            let (h, l) = part_bounds(n, hi, lo, sigs)?;
            h - l + 1
        }
    })
}

/// The width at which a dynamic bit-select `name[idx]` computes its bit
/// offset `idx - lsb`: the index's own width, widened until every bit
/// up to the msb has an offset, so that an index below the lsb wraps
/// past the msb instead of into range.
///
/// # Errors
///
/// Reports unknown signals and the errors of [`self_width`].
pub fn bit_index_width(name: &str, idx: &Expr, sigs: &Lookup<'_>) -> Result<u32, VerilogError> {
    let sig = lookup(sigs, name)?;
    let span = u64::from(sig.lsb) + u64::from(sig.width);
    Ok(self_width(idx, sigs)?.max(ceil_log2(span).max(1)))
}

/// The bounds of the part-select `name[hi:lo]` as bit offsets from the
/// signal's lsb. The bounds are constants with `lo <= hi` inside the
/// declared range, and the signal is not a memory.
///
/// # Errors
///
/// Reports unknown signals, non-constant bounds and the violations
/// above.
pub fn part_bounds(
    name: &str,
    hi: &Expr,
    lo: &Expr,
    sigs: &Lookup<'_>,
) -> Result<(u32, u32), VerilogError> {
    let sig = lookup(sigs, name)?;
    if sig.memory.is_some() {
        return Err(VerilogError::general(format!(
            "part-select on memory '{name}'"
        )));
    }
    let (h, l) = (constant(hi)?, constant(lo)?);
    let lsb = u64::from(sig.lsb);
    if l < lsb || h >= lsb + u64::from(sig.width) || l > h {
        return Err(VerilogError::general(format!(
            "part select [{h}:{l}] out of range for '{name}'"
        )));
    }
    Ok(((h - lsb) as u32, (l - lsb) as u32))
}

/// The parts of the concatenated target `{a, b, ...}` with their
/// widths, left to right. Every part is a whole signal ([`check`] has
/// ruled out memories), and together they hold at most 64 bits.
///
/// # Errors
///
/// Reports unknown signals and the violations above.
pub fn target_widths<'p>(
    parts: &'p [LValue],
    sigs: &Lookup<'_>,
) -> Result<Vec<(&'p str, u32)>, VerilogError> {
    let mut total = 0u32;
    parts
        .iter()
        .map(|p| {
            let LValue::Ident(n) = p else {
                return Err(VerilogError::general(
                    "nested selects in concatenated assignment targets",
                ));
            };
            let sig = lookup(sigs, n)?;
            total = total
                .checked_add(sig.width)
                .filter(|&w| w <= 64)
                .ok_or_else(|| {
                    VerilogError::general("concatenated assignment target is wider than 64 bits")
                })?;
            Ok((n.as_str(), sig.width))
        })
        .collect()
}

/// The hierarchical name of `name` inside the instance at `prefix`
/// (`""` for the top module).
pub(crate) fn flat_name(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// What drives a signal of the flattened design.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// One continuous assignment, combinational process or instance
    /// port connection, numbered in walk order.
    Comb(usize),
    /// One clocked process, numbered in walk order.
    Clocked(usize),
}

/// Checks the driver rules of `design`, over the signals of the whole
/// hierarchy under their hierarchical names:
///
/// - A continuous assignment, or an instance port connection, drives
///   whole signals, not a bit- or part-select.
/// - Every signal has at most one driver: a continuous assignment, a
///   combinational process, an instance port connection or a clocked
///   process.
/// - A clocked process assigns registers only, not wires or input
///   ports, and assigns each of them with `=` only or with `<=` only.
/// - `initial` assigns registers only, and no register that a
///   combinational driver drives.
/// - Nothing drives a top-level input.
///
/// [`check`] checks them before its other rules.
///
/// # Errors
///
/// Reports the first violation found.
pub fn check_drivers(design: &Design) -> Result<(), VerilogError> {
    let mut walk = DriverWalk {
        design,
        drivers: HashMap::new(),
        units: 0,
        initials: Vec::new(),
    };
    walk.module(design.top, "")?;
    for (name, kind) in &walk.initials {
        if *kind != NetKind::Reg || matches!(walk.drivers.get(name), Some(Driver::Comb(_))) {
            return Err(VerilogError::general(format!(
                "initial assigns non-register '{name}'"
            )));
        }
    }
    let top = &design.modules[design.top];
    for sig in top.signals.iter().filter(|s| s.port == Some(Dir::Input)) {
        if walk.drivers.contains_key(&sig.name) || walk.initials.iter().any(|(n, _)| *n == sig.name)
        {
            return Err(VerilogError::general(format!(
                "top-level input '{}' is driven",
                sig.name
            )));
        }
    }
    Ok(())
}

/// The walk of [`check_drivers`]: the driver of every signal seen so
/// far, and the signals `initial` blocks assign.
struct DriverWalk<'d> {
    design: &'d Design,
    drivers: HashMap<String, Driver>,
    units: usize,
    initials: Vec<(String, NetKind)>,
}

impl DriverWalk<'_> {
    fn module(&mut self, idx: usize, prefix: &str) -> Result<(), VerilogError> {
        let m = &self.design.modules[idx];
        for (lv, _) in &m.assigns {
            self.unit(prefix, lv)?;
        }
        for (clock, body) in &m.processes {
            let by = match clock {
                Some(_) => {
                    clocked_assigns(m, prefix, body)?;
                    Driver::Clocked(self.next())
                }
                None => Driver::Comb(self.next()),
            };
            for t in body.targets() {
                self.drive(flat_name(prefix, &t), by)?;
            }
        }
        for t in m.initials.iter().flat_map(Stmt::targets) {
            // An unknown target is `check`'s error.
            if let Some(sig) = m.signal(&t) {
                self.initials.push((flat_name(prefix, &t), sig.kind));
            }
        }
        for inst in &m.instances {
            let child_prefix = flat_name(prefix, &inst.name);
            self.module(inst.module, &child_prefix)?;
            let child = &self.design.modules[inst.module];
            for (port, conn) in &inst.conns {
                let port = &child.signals[*port];
                match port.port {
                    Some(Dir::Input) => {
                        self.unit(&child_prefix, &LValue::Ident(port.name.clone()))?;
                    }
                    // A connection that names no target is flattening's
                    // error.
                    Some(Dir::Output) => {
                        if let Some(lv) = conn.as_lvalue() {
                            self.unit(prefix, &lv)?;
                        }
                    }
                    None => {}
                }
            }
        }
        Ok(())
    }

    /// A fresh driver number.
    fn next(&mut self) -> usize {
        self.units += 1;
        self.units - 1
    }

    /// A continuous assignment to `lv` in the instance at `prefix`.
    fn unit(&mut self, prefix: &str, lv: &LValue) -> Result<(), VerilogError> {
        if let LValue::Index(..) | LValue::Part(..) = lv {
            return Err(VerilogError::general(
                "continuous assignment to bit/part selects is not supported",
            ));
        }
        let by = Driver::Comb(self.next());
        for t in lv.targets() {
            self.drive(flat_name(prefix, &t), by)?;
        }
        Ok(())
    }

    fn drive(&mut self, name: String, by: Driver) -> Result<(), VerilogError> {
        match self.drivers.get(&name) {
            Some(&prev) if prev != by => Err(VerilogError::general(match (prev, by) {
                (Driver::Clocked(_), Driver::Clocked(_)) => {
                    format!("register '{name}' driven by multiple clocked processes")
                }
                _ => format!("signal '{name}' has multiple drivers"),
            })),
            _ => {
                self.drivers.insert(name, by);
                Ok(())
            }
        }
    }
}

/// The assignments of one clocked process in the instance at `prefix`:
/// each target is a register, assigned with `=` only or with `<=` only.
fn clocked_assigns(m: &ElabModule, prefix: &str, body: &Stmt) -> Result<(), VerilogError> {
    let mut assigns = Vec::new();
    body.for_each_assign(&mut |blocking, lv, _| {
        assigns.extend(lv.targets().into_iter().map(|t| (t, blocking)));
    });
    let mut kinds = HashMap::new();
    for (t, blocking) in assigns {
        let name = flat_name(prefix, &t);
        // An unknown target is `check`'s error.
        if m.signal(&t).is_some_and(|sig| sig.kind != NetKind::Reg) {
            return Err(VerilogError::general(format!(
                "clocked assignment to wire '{name}' (declare it reg)"
            )));
        }
        if *kinds.entry(t).or_insert(blocking) != blocking {
            return Err(VerilogError::general(format!(
                "register '{name}' assigned both blocking and non-blocking"
            )));
        }
    }
    Ok(())
}

fn whole_memory(name: &str) -> VerilogError {
    VerilogError::general(format!(
        "whole-memory assignment to '{name}' is not supported"
    ))
}

// ----------------------------------------------------------------------
// Read/write analysis and the §III-B schedule
// ----------------------------------------------------------------------

/// Collects the identifiers read by an expression, excluding those in
/// `assigned` (the dependency analysis of [`schedule`]).
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
        // The first name in order, so that every run reports the same.
        let own = rs.iter().filter(|r| def_unit.get(r.as_str()) == Some(&u));
        if let Some(r) = own.min() {
            return Err(VerilogError::general(format!(
                "combinational loop through signal '{r}' (unsupported, as in v2c)"
            )));
        }
        for r in rs {
            if let Some(&d) = def_unit.get(r.as_str()) {
                succs[d].push(u);
                indeg[u] += 1;
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

/// What a signal of an elaborated module is, as [`check`] decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// An input port that carries the clock. It has no value: a clock
    /// cycle is one step, and no expression reads it.
    Clock,
    /// A register: a `reg`, not an input, that no combinational driver
    /// drives. A clocked process assigns it, or it keeps its reset
    /// value.
    Register,
    /// Any other signal: an input, a signal a combinational driver
    /// drives, or an undriven wire.
    Net,
}

/// A combinational unit of a module: what its §III-B schedule orders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// The continuous assignment `assigns[i]`.
    Assign(usize),
    /// The combinational process `processes[i]`.
    Comb(usize),
    /// The instance `instances[i]`, one step of which reads all its
    /// input connections and drives all its outputs.
    Instance(usize),
}

/// What [`check`] decided about one module of a design.
#[derive(Clone, Debug)]
pub struct Checked {
    /// The role of every signal, by index into [`ElabModule::signals`].
    pub roles: Vec<Role>,
    /// The reset values: what `initial` blocks assign, else the
    /// declaration initializer.
    pub resets: InitialValues,
    /// The combinational units in the order of the module's schedule.
    pub order: Vec<Unit>,
}

/// Checks the rules that make `design` one synchronous system and
/// returns what they decide about every module, in the order of
/// [`Design::modules`]:
///
/// - Drivers: [`check_drivers`].
/// - Instances: every input port is connected, and every output port
///   to a plain signal.
/// - The clock: the clock of every clocked process is a 1-bit input
///   port of its module, and resolves, through instance ports connected
///   to plain signals, to a top-level input. There is one such input,
///   and no expression reads a clock.
/// - Names, widths and bounds: every signal an expression reads or a
///   statement assigns is declared, a memory is read and assigned one
///   row at a time, and every expression and target obeys
///   [`self_width`], [`part_bounds`] and [`target_widths`].
/// - Registers: a `reg` that is not an input and that no continuous
///   assignment, combinational process or instance output drives is a
///   register, whether a clocked process assigns it or it keeps its
///   reset value. Every memory is a register. Every other signal that
///   an expression reads, or a parent's connection (an output port of
///   a module below the top), is an input or driven.
/// - Combinational processes assign with `=` only, and assign each
///   target on every path, before any bit or part of it: else the
///   target keeps its value, a transparent latch.
/// - Reset values: [`initial_values`].
/// - The §III-B schedule: [`schedule`] orders each module's
///   continuous assignments, combinational processes and instances.
///   An instance counts as one unit, which reads all its inputs and
///   drives all its outputs, as one call of its C step function does.
///
/// Every rule looks at one module at a time, with its own signal names,
/// except the driver rules and the one clock. Synthesis and the C
/// emitter call it before anything else and read what it returns, so a
/// source that breaks a rule gets the same error from both, and an
/// accepted one the same clock, registers and reset values.
///
/// # Errors
///
/// Reports the first violation found.
pub fn check(design: &Design) -> Result<Vec<Checked>, VerilogError> {
    check_drivers(design)?;
    let mut checked: Vec<Checked> = Vec::with_capacity(design.modules.len());
    // Children precede their parents.
    for (i, m) in design.modules.iter().enumerate() {
        let c = check_module(design, &checked, m, i == design.top)?;
        checked.push(c);
    }
    let top = &design.modules[design.top];
    let mut clocks = (top.signals.iter().zip(&checked[design.top].roles))
        .filter(|&(_, &r)| r == Role::Clock)
        .map(|(s, _)| &s.name);
    if let (Some(a), Some(b)) = (clocks.next(), clocks.next()) {
        return Err(VerilogError::general(format!(
            "multiple clocks are not supported ('{a}' vs '{b}')"
        )));
    }
    Ok(checked)
}

/// Checks module `m`, the top module when `top`, whose instances'
/// modules are in `checked`; see [`check`].
fn check_module(
    design: &Design,
    checked: &[Checked],
    m: &ElabModule,
    top: bool,
) -> Result<Checked, VerilogError> {
    let index: HashMap<&str, &ESignal> = m.signals.iter().map(|s| (s.name.as_str(), s)).collect();
    let sigs: &Lookup<'_> = &|n| index.get(n).copied();
    let mut clocks: Vec<&str> = m
        .processes
        .iter()
        .filter_map(|(c, _)| c.as_deref())
        .collect();
    // Instance connections: clock ports to plain signals, which carry
    // the clock too, every input connected, outputs to plain signals.
    let mut inputs = Vec::new();
    let mut instances: Vec<(Vec<String>, HashSet<String>)> = Vec::new();
    for inst in &m.instances {
        let child = &design.modules[inst.module];
        let (mut defs, mut reads) = (Vec::new(), HashSet::new());
        for (port, sig) in child.signals.iter().enumerate() {
            let conn = inst.conns.iter().find(|(p, _)| *p == port).map(|(_, e)| e);
            let (kind, problem) = match (checked[inst.module].roles[port], sig.port, conn) {
                (Role::Clock, _, Some(Expr::Ident(n))) => {
                    clocks.push(n);
                    continue;
                }
                (Role::Clock, ..) => ("clock", "must connect to a plain signal"),
                (_, Some(Dir::Input), None) => ("input", "is unconnected"),
                (_, Some(Dir::Input), Some(e)) => {
                    inputs.push(e);
                    expr_reads(e, &HashSet::new(), &mut reads);
                    continue;
                }
                (_, Some(Dir::Output), Some(Expr::Ident(n))) => {
                    defs.push(n.clone());
                    continue;
                }
                (_, Some(Dir::Output), Some(_)) => ("output", "must connect to a plain signal"),
                _ => continue,
            };
            return Err(VerilogError::general(format!(
                "{kind} port '{}' of instance '{}' {problem}",
                sig.name, inst.name
            )));
        }
        instances.push((defs, reads));
    }
    for c in &clocks {
        if !m
            .signal(c)
            .is_some_and(|s| s.port == Some(Dir::Input) && s.width == 1)
        {
            return Err(VerilogError::general(format!(
                "clock '{c}' in module '{}' must be a 1-bit input port",
                m.name
            )));
        }
    }
    // Names, widths and bounds.
    let read = |e: &Expr| check_read(sigs, &clocks, e);
    for (lv, rhs) in &m.assigns {
        check_target(sigs, &clocks, lv)?;
        read(rhs)?;
    }
    for body in m.processes.iter().map(|(_, body)| body).chain(&m.initials) {
        check_stmt(sigs, &clocks, body)?;
    }
    for (defs, _) in &instances {
        defs.iter()
            .try_for_each(|n| check_target(sigs, &clocks, &LValue::Ident(n.clone())))?;
    }
    for e in inputs
        .into_iter()
        .chain(m.asserts.iter().map(|(_, e)| e))
        .chain(&m.assumes)
    {
        read(e)?;
    }
    // The units of the schedule, what each drives and reads, and what
    // none of them drives: the registers.
    let (mut units, mut defs, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (lv, rhs)) in m.assigns.iter().enumerate() {
        let mut r = HashSet::new();
        expr_reads(rhs, &HashSet::new(), &mut r);
        units.push(Unit::Assign(i));
        defs.push(lv.targets());
        reads.push(r);
    }
    for (i, (clock, body)) in m.processes.iter().enumerate() {
        if clock.is_none() {
            let mut r = HashSet::new();
            stmt_reads(body, &mut HashSet::new(), &mut r);
            units.push(Unit::Comb(i));
            defs.push(body.targets());
            reads.push(r);
        }
    }
    for (i, (d, r)) in instances.into_iter().enumerate() {
        units.push(Unit::Instance(i));
        defs.push(d);
        reads.push(r);
    }
    let comb: HashSet<&String> = defs.iter().flatten().collect();
    // What the module's expressions read, and a parent its outputs.
    let mut read_names: HashSet<String> = reads.iter().flatten().cloned().collect();
    for (_, body) in m.processes.iter().filter(|(c, _)| c.is_some()) {
        stmt_reads(body, &mut HashSet::new(), &mut read_names);
    }
    for e in m.asserts.iter().map(|(_, e)| e).chain(&m.assumes) {
        expr_reads(e, &HashSet::new(), &mut read_names);
    }
    let mut roles = Vec::with_capacity(m.signals.len());
    for s in &m.signals {
        let (input, driven) = (s.port == Some(Dir::Input), comb.contains(&s.name));
        roles.push(if clocks.contains(&s.name.as_str()) {
            Role::Clock
        } else if s.kind == NetKind::Reg && !input && !driven {
            Role::Register
        } else if s.memory.is_some() {
            return Err(VerilogError::general(format!(
                "memory '{}' must be a clocked register",
                s.name
            )));
        } else if !input
            && !driven
            && (read_names.contains(&s.name) || (!top && s.port == Some(Dir::Output)))
        {
            return Err(VerilogError::general(format!(
                "signal '{}' in module '{}' is read but nothing drives it",
                s.name, m.name
            )));
        } else {
            Role::Net
        });
    }
    for (_, body) in m.processes.iter().filter(|(c, _)| c.is_none()) {
        comb_assigns(body, &mut BTreeSet::new())?;
    }
    let mut resets = initial_values(&m.initials, sigs)?;
    for s in m.signals.iter() {
        if let Some(v) = s.init {
            resets.scalars.entry(s.name.clone()).or_insert(v);
        }
    }
    let order = schedule(&defs, &reads)?
        .into_iter()
        .map(|u| units[u])
        .collect();
    Ok(Checked {
        roles,
        resets,
        order,
    })
}

/// Checks the expression `e`, which a module whose signals are `sigs`
/// and whose clocks are `clocks` reads: every signal it names is
/// declared and no clock, a memory is read one row at a time, and
/// every subexpression has a [`self_width`].
fn check_read(sigs: &Lookup<'_>, clocks: &[&str], e: &Expr) -> Result<(), VerilogError> {
    if let Expr::Ident(n) | Expr::Index(n, _) | Expr::Part(n, _, _) = e {
        let sig = lookup(sigs, n)?;
        if clocks.contains(&n.as_str()) {
            return Err(VerilogError::general(format!(
                "clock '{n}' is read as data"
            )));
        }
        if sig.memory.is_some() && matches!(e, Expr::Ident(_)) {
            return Err(VerilogError::general(format!(
                "memory '{n}' used without an index"
            )));
        }
    }
    for o in e.operands() {
        check_read(sigs, clocks, o)?;
    }
    self_width(e, sigs).map(|_| ())
}

/// Checks the target `lv` of a module whose signals are `sigs` and
/// whose clocks are `clocks`: every signal it names is declared, a
/// memory is assigned one row at a time, and its indices and bounds
/// pass [`check_read`], [`part_bounds`] and [`target_widths`].
fn check_target(sigs: &Lookup<'_>, clocks: &[&str], lv: &LValue) -> Result<(), VerilogError> {
    match lv {
        LValue::Concat(parts) => {
            for p in parts {
                check_target(sigs, clocks, p)?;
            }
            target_widths(parts, sigs).map(|_| ())
        }
        LValue::Ident(n) => match lookup(sigs, n)?.memory {
            Some(_) => Err(whole_memory(n)),
            None => Ok(()),
        },
        LValue::Index(n, i) => {
            lookup(sigs, n)?;
            check_read(sigs, clocks, i)
        }
        LValue::Part(n, hi, lo) => {
            lookup(sigs, n)?;
            check_read(sigs, clocks, hi)?;
            check_read(sigs, clocks, lo)?;
            part_bounds(n, hi, lo, sigs).map(|_| ())
        }
    }
}

/// Checks the statement `s` of a module whose signals are `sigs` and
/// whose clocks are `clocks`: its targets, conditions and right-hand
/// sides.
fn check_stmt(sigs: &Lookup<'_>, clocks: &[&str], s: &Stmt) -> Result<(), VerilogError> {
    match s {
        Stmt::Nop => Ok(()),
        Stmt::Block(b) => b.iter().try_for_each(|s| check_stmt(sigs, clocks, s)),
        Stmt::If(c, t, e) => {
            check_read(sigs, clocks, c)?;
            check_stmt(sigs, clocks, t)?;
            e.as_ref().map_or(Ok(()), |e| check_stmt(sigs, clocks, e))
        }
        Stmt::Case { .. } => check_stmt(sigs, clocks, &s.case_to_if()),
        Stmt::Blocking(lv, rhs) | Stmt::NonBlocking(lv, rhs) => {
            check_target(sigs, clocks, lv)?;
            check_read(sigs, clocks, rhs)
        }
    }
}

/// Checks the combinational process statement `s`, after which the
/// signals in `assigned` hold their new values on every path: it
/// assigns with `=` only, every branch assigns the same signals, and a
/// bit or part of a signal is written only after the whole of it.
fn comb_assigns(s: &Stmt, assigned: &mut BTreeSet<String>) -> Result<(), VerilogError> {
    let latch = |n: &str| {
        VerilogError::general(format!(
            "signal '{n}' is not assigned on all paths of a combinational process \
             (transparent latch, unsupported as in v2c)"
        ))
    };
    match s {
        Stmt::Nop => Ok(()),
        Stmt::Block(b) => b.iter().try_for_each(|s| comb_assigns(s, assigned)),
        Stmt::If(_, t, e) => {
            let mut then_assigned = assigned.clone();
            comb_assigns(t, &mut then_assigned)?;
            let mut else_assigned = assigned.clone();
            if let Some(e) = e {
                comb_assigns(e, &mut else_assigned)?;
            }
            match then_assigned.symmetric_difference(&else_assigned).next() {
                Some(n) => Err(latch(n)),
                None => {
                    *assigned = then_assigned;
                    Ok(())
                }
            }
        }
        Stmt::Case { .. } => comb_assigns(&s.case_to_if(), assigned),
        Stmt::NonBlocking(..) => Err(VerilogError::general(
            "non-blocking assignment in combinational process",
        )),
        Stmt::Blocking(LValue::Index(n, _) | LValue::Part(n, _, _), _) if !assigned.contains(n) => {
            Err(latch(n))
        }
        Stmt::Blocking(lv, _) => {
            assigned.extend(lv.targets());
            Ok(())
        }
    }
}

/// The reset values that `initial` blocks assign.
#[derive(Clone, Debug, Default)]
pub struct InitialValues {
    /// Whole signals, masked to their width.
    pub scalars: HashMap<String, u64>,
    /// Memory rows by address, masked to the element width.
    pub rows: HashMap<String, BTreeMap<u64, u64>>,
}

/// Runs `initials` in order: each assigns a constant to a whole signal
/// or to one row of a memory, under `if`s whose conditions are
/// constant over the values assigned so far. A later assignment wins.
///
/// # Errors
///
/// Reports unknown signals, non-constant values, indices or conditions,
/// bit- or part-select targets, rows outside a memory and `case`
/// statements. [`check`] has ruled out whole-memory targets.
pub fn initial_values(initials: &[Stmt], sigs: &Lookup<'_>) -> Result<InitialValues, VerilogError> {
    fn run(s: &Stmt, sigs: &Lookup<'_>, out: &mut InitialValues) -> Result<(), VerilogError> {
        let eval = |e: &Expr, out: &InitialValues| {
            const_eval(e, &out.scalars).map_err(VerilogError::general)
        };
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Block(b) => b.iter().try_for_each(|s| run(s, sigs, out)),
            Stmt::If(c, t, e) => {
                if eval(c, out)? != 0 {
                    run(t, sigs, out)
                } else {
                    e.as_ref().map_or(Ok(()), |e| run(e, sigs, out))
                }
            }
            Stmt::Blocking(lv, rhs) | Stmt::NonBlocking(lv, rhs) => {
                let v = eval(rhs, out)?;
                match lv {
                    LValue::Ident(n) => {
                        let sig = lookup(sigs, n)?;
                        out.scalars
                            .insert(n.clone(), v & rtlir::value::mask(sig.width));
                    }
                    LValue::Index(n, idx) => {
                        let sig = lookup(sigs, n)?;
                        let Some((rows, _)) = sig.memory else {
                            return Err(VerilogError::general(
                                "bit-level initialization is not supported",
                            ));
                        };
                        let i = eval(idx, out)?;
                        if i >= rows {
                            return Err(VerilogError::general(format!(
                                "initial row {i} is outside memory '{n}'"
                            )));
                        }
                        out.rows
                            .entry(n.clone())
                            .or_default()
                            .insert(i, v & rtlir::value::mask(sig.width));
                    }
                    _ => {
                        return Err(VerilogError::general(
                            "unsupported initial assignment target",
                        ))
                    }
                }
                Ok(())
            }
            Stmt::Case { .. } => Err(VerilogError::general("case statements in initial blocks")),
        }
    }
    let mut out = InitialValues::default();
    for s in initials {
        run(s, sigs, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn parameters_specialize_modules() {
        let src = r#"
        module buf_n #(parameter W = 2) (input [W-1:0] d, output [W-1:0] q);
          assign q = d;
        endmodule
        module top(input [3:0] a, input [7:0] b, output [3:0] x, output [7:0] y);
          buf_n #(.W(4)) u1 (.d(a), .q(x));
          buf_n #(8) u2 (.d(b), .q(y));
          buf_n #(8) u3 (.d(b), .q(y));
        endmodule
        "#;
        let mods = parse(src).expect("parses");
        let design = elaborate(&mods, "top").expect("elaborates");
        // Two specializations of buf_n (W=4 and W=8, memoized) + top.
        assert_eq!(design.modules.len(), 3);
        let names: Vec<&str> = design.modules.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"buf_n#W=4"));
        assert!(names.contains(&"buf_n#W=8"));
        let w4 = design
            .modules
            .iter()
            .find(|m| m.name == "buf_n#W=4")
            .expect("exists");
        assert_eq!(w4.signals[0].width, 4);
    }

    #[test]
    fn memory_and_init() {
        let src = r#"
        module m(input clk);
          reg [7:0] mem [0:15];
          reg [3:0] ptr = 3;
          always @(posedge clk) mem[ptr] <= 0;
        endmodule
        "#;
        let mods = parse(src).expect("parses");
        let design = elaborate(&mods, "m").expect("elaborates");
        let m = &design.modules[design.top];
        let mem = m.signal("mem").expect("mem");
        assert_eq!(mem.memory, Some((16, 4)));
        assert_eq!(mem.width, 8);
        let ptr = m.signal("ptr").expect("ptr");
        assert_eq!(ptr.init, Some(3));
    }

    #[test]
    fn const_eval_rules() {
        let p: HashMap<String, u64> = [("W".to_string(), 8u64)].into();
        let e = Expr::Binary(
            BinaryOp::Sub,
            Box::new(Expr::Ident("W".into())),
            Box::new(Expr::num(1)),
        );
        assert_eq!(const_eval(&e, &p), Ok(7));
        assert!(const_eval(&Expr::Ident("missing".into()), &p).is_err());
    }

    #[test]
    fn ceil_log2_table() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
    }

    #[test]
    fn instantiation_cycles_are_errors() {
        let direct = "module m(input clk); m u(.clk(clk)); endmodule";
        let mutual = "module top(input clk); a u(.clk(clk)); endmodule
                      module a(input clk); b u(.clk(clk)); endmodule
                      module b(input clk); a u(.clk(clk)); endmodule";
        for (src, top, cycle) in [(direct, "m", "m -> m"), (mutual, "top", "a -> b -> a")] {
            let mods = parse(src).expect("parses");
            let err = elaborate(&mods, top).expect_err("a cycle never ends");
            assert!(err.message.contains(cycle), "{err}");
        }
    }

    #[test]
    fn oversized_ranges_are_errors() {
        for (decl, message) in [
            (
                "reg [18446744073709551615:0] r;",
                "width out of supported range",
            ),
            (
                "reg [4294967300:4294967296] r;",
                "range bounds past bit 2^32",
            ),
            ("reg m [0:18446744073709551615];", "more than 2^32 rows"),
        ] {
            let src = format!("module top(input clk);\n  {decl}\nendmodule\n");
            let mods = parse(&src).expect("parses");
            let err = elaborate(&mods, "top").expect_err(decl);
            assert!(err.message.contains(message), "{decl}: {err}");
        }
    }

    /// Driver rules see the hierarchy: a port connection drives the
    /// signal it connects, under its hierarchical name.
    #[test]
    fn drivers_are_checked_across_instances() {
        let child = "module c(input a, output y); assign y = a; endmodule\n\
                     module d(input a, output y); assign a = 1'b0; assign y = a; endmodule";
        for (top, message) in [
            (
                "module top(input x, output y); wire w; c u(.a(x), .y(w)); \
                 assign w = x; assign y = w; endmodule",
                Some("signal 'w' has multiple drivers"),
            ),
            (
                "module top(input x, output y); d u(.a(x), .y(y)); endmodule",
                Some("signal 'u.a' has multiple drivers"),
            ),
            ("module top(input x, output y); d u(.y(y)); endmodule", None),
            (
                "module top(input x, output [1:0] y); wire [1:0] w; \
                 c u(.a(x), .y(w[0])); assign y = w; endmodule",
                Some("continuous assignment to bit/part selects is not supported"),
            ),
            (
                "module top(input x, output y); reg r; c u(.a(x), .y(r)); \
                 initial r = 0; assign y = r; endmodule",
                Some("initial assigns non-register 'r'"),
            ),
            (
                "module top(input clk, input x, output y); reg r; initial r = 0; \
                 always @(posedge clk) r <= x; c u(.a(r), .y(y)); endmodule",
                None,
            ),
        ] {
            let mods = parse(&format!("{child}\n{top}")).expect("parses");
            let design = elaborate(&mods, "top").expect("elaborates");
            match (check_drivers(&design), message) {
                (Ok(()), None) => {}
                (Err(e), Some(m)) => assert!(e.message.contains(m), "{top}: {e}"),
                (got, _) => panic!("{top}: {got:?}"),
            }
        }
    }

    #[test]
    fn duplicate_instance_names_are_errors() {
        let child = "module c(input a, output y); assign y = a; endmodule";
        for body in [
            "wire p; wire q; c u(.a(x), .y(p)); c u(.a(x), .y(q));",
            "wire u; c u(.a(x), .y(u));",
        ] {
            let src = format!("{child}\nmodule top(input x); {body} endmodule");
            let mods = parse(&src).expect("parses");
            let err = elaborate(&mods, "top").expect_err(body);
            assert!(
                err.message.contains("duplicate instance 'u'"),
                "{body}: {err}"
            );
        }
    }

    #[test]
    fn unknown_module_rejected() {
        let mods = parse("module top(input a); ghost g(.x(a)); endmodule").expect("parses");
        assert!(elaborate(&mods, "top").is_err());
    }

    #[test]
    fn output_reg_redeclaration() {
        let src = r#"
        module m(input clk, output reg [3:0] q);
          always @(posedge clk) q <= q + 1;
        endmodule
        "#;
        let mods = parse(src).expect("parses");
        let design = elaborate(&mods, "m").expect("elaborates");
        let m = &design.modules[design.top];
        let q = m.signal("q").expect("q");
        assert_eq!(q.kind, NetKind::Reg);
        assert_eq!(q.width, 4);
    }
}
