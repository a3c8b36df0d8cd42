//! Elaboration: parameter resolution and hierarchy specialization.
//!
//! Elaboration turns parsed [`SourceModule`]s into a [`Design`]: every
//! distinct `(module, parameter values)` combination becomes one
//! [`ElabModule`] with all parameter references substituted by
//! constants and all ranges resolved to widths. The module hierarchy
//! is *retained* (as in v2c); flattening happens later, in synthesis
//! or in the software-netlist generator.

use crate::ast::*;
use crate::error::VerilogError;
use std::collections::HashMap;

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
    /// Index of a signal by name.
    pub fn signal(&self, name: &str) -> Option<usize> {
        self.signals.iter().position(|s| s.name == name)
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
/// signals and malformed port connections.
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
                                let rows = a.max(b) - a.min(b) + 1;
                                if a.min(b) != 0 {
                                    return Err(VerilogError::at(
                                        src.line,
                                        format!("memory '{}' must start at index 0", dn.name),
                                    ));
                                }
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
            let width = (hi - lo + 1) as u32;
            if width == 0 || width > 64 {
                return Err(VerilogError::at(
                    line,
                    "width out of supported range 1..=64",
                ));
            }
            Ok((width, lo as u32))
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
        Expr::Ident(n) => match params.get(n) {
            Some(&v) => Expr::Number {
                size: None,
                value: v,
            },
            None => e.clone(),
        },
        Expr::Number { .. } => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(subst_expr(a, params))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(subst_expr(a, params)),
            Box::new(subst_expr(b, params)),
        ),
        Expr::Ternary(c, a, b) => Expr::Ternary(
            Box::new(subst_expr(c, params)),
            Box::new(subst_expr(a, params)),
            Box::new(subst_expr(b, params)),
        ),
        Expr::Concat(parts) => Expr::Concat(parts.iter().map(|p| subst_expr(p, params)).collect()),
        Expr::Repl(n, parts) => Expr::Repl(
            Box::new(subst_expr(n, params)),
            parts.iter().map(|p| subst_expr(p, params)).collect(),
        ),
        Expr::Index(n, i) => Expr::Index(n.clone(), Box::new(subst_expr(i, params))),
        Expr::Part(n, hi, lo) => Expr::Part(
            n.clone(),
            Box::new(subst_expr(hi, params)),
            Box::new(subst_expr(lo, params)),
        ),
    }
}

fn subst_lvalue(lv: &LValue, params: &HashMap<String, u64>) -> LValue {
    match lv {
        LValue::Ident(n) => LValue::Ident(n.clone()),
        LValue::Index(n, i) => LValue::Index(n.clone(), subst_expr(i, params)),
        LValue::Part(n, hi, lo) => {
            LValue::Part(n.clone(), subst_expr(hi, params), subst_expr(lo, params))
        }
        LValue::Concat(parts) => {
            LValue::Concat(parts.iter().map(|p| subst_lvalue(p, params)).collect())
        }
    }
}

fn subst_stmt(s: &Stmt, params: &HashMap<String, u64>) -> Stmt {
    match s {
        Stmt::Block(b) => Stmt::Block(b.iter().map(|x| subst_stmt(x, params)).collect()),
        Stmt::If(c, t, e) => Stmt::If(
            subst_expr(c, params),
            Box::new(subst_stmt(t, params)),
            e.as_ref().map(|x| Box::new(subst_stmt(x, params))),
        ),
        Stmt::Case {
            expr,
            arms,
            default,
            wildcard,
        } => Stmt::Case {
            expr: subst_expr(expr, params),
            arms: arms
                .iter()
                .map(|(ls, b)| {
                    (
                        ls.iter().map(|l| subst_expr(l, params)).collect(),
                        subst_stmt(b, params),
                    )
                })
                .collect(),
            default: default.as_ref().map(|d| Box::new(subst_stmt(d, params))),
            wildcard: *wildcard,
        },
        Stmt::Blocking(lv, e) => Stmt::Blocking(subst_lvalue(lv, params), subst_expr(e, params)),
        Stmt::NonBlocking(lv, e) => {
            Stmt::NonBlocking(subst_lvalue(lv, params), subst_expr(e, params))
        }
        Stmt::Nop => Stmt::Nop,
    }
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
        let mem = &m.signals[m.signal("mem").expect("mem")];
        assert_eq!(mem.memory, Some((16, 4)));
        assert_eq!(mem.width, 8);
        let ptr = &m.signals[m.signal("ptr").expect("ptr")];
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
        let q = &m.signals[m.signal("q").expect("q")];
        assert_eq!(q.kind, NetKind::Reg);
        assert_eq!(q.width, 4);
    }
}
