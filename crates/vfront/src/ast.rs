//! Abstract syntax tree for the supported Verilog subset.

/// Port direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// `input`
    Input,
    /// `output`
    Output,
}

/// Net kind of a declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    /// `wire`
    Wire,
    /// `reg`
    Reg,
}

/// A `[hi:lo]` range (both bounds are constant expressions).
#[derive(Clone, Debug, PartialEq)]
pub struct Range {
    /// High bound expression.
    pub hi: Expr,
    /// Low bound expression.
    pub lo: Expr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    /// `~`
    Not,
    /// `-`
    Neg,
    /// `!`
    LogicNot,
    /// `&`
    RedAnd,
    /// `|`
    RedOr,
    /// `^`
    RedXor,
    /// `~&`
    RedNand,
    /// `~|`
    RedNor,
    /// `~^` / `^~`
    RedXnor,
    /// unary `+` (no-op)
    Plus,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^` / `^~`
    Xnor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<<<`
    Sshl,
    /// `>>>`
    Sshr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LogicAnd,
    /// `||`
    LogicOr,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Identifier reference.
    Ident(String),
    /// Number literal.
    Number {
        /// Explicit size, if given.
        size: Option<u32>,
        /// Value (masked to size when given).
        value: u64,
    },
    /// Unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Conditional `c ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Concatenation `{a, b, c}`.
    Concat(Vec<Expr>),
    /// Replication `{n{a, b}}`.
    Repl(Box<Expr>, Vec<Expr>),
    /// Bit-select or memory read `x[i]`.
    Index(String, Box<Expr>),
    /// Part-select `x[hi:lo]` (constant bounds).
    Part(String, Box<Expr>, Box<Expr>),
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// Whole signal.
    Ident(String),
    /// Bit-select or memory element `x[i]`.
    Index(String, Expr),
    /// Part-select `x[hi:lo]` (constant bounds).
    Part(String, Expr, Expr),
    /// Concatenation `{a, b}` of lvalues.
    Concat(Vec<LValue>),
}

/// Statements inside processes.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `begin ... end`
    Block(Vec<Stmt>),
    /// `if (c) s [else s]`
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `case/casez (e) items endcase`; `wildcard` is true for `casez`.
    Case {
        /// Scrutinee.
        expr: Expr,
        /// `(labels, body)` arms.
        arms: Vec<(Vec<Expr>, Stmt)>,
        /// `default:` body.
        default: Option<Box<Stmt>>,
        /// Whether `?`/`z` bits in labels act as wildcards (`casez`).
        wildcard: bool,
    },
    /// Blocking assignment `lhs = rhs`.
    Blocking(LValue, Expr),
    /// Non-blocking assignment `lhs <= rhs`.
    NonBlocking(LValue, Expr),
    /// Empty statement `;`.
    Nop,
}

/// Sensitivity of an always block.
#[derive(Clone, Debug, PartialEq)]
pub enum Sensitivity {
    /// `@*`, `@(*)` or an explicit level-sensitive list.
    Comb,
    /// `@(posedge clk)` — single-clock synchronous logic.
    Posedge(String),
}

/// A module-level item.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// Signal declaration(s).
    Decl {
        /// `wire` or `reg`.
        kind: NetKind,
        /// Optional `[hi:lo]` packed range.
        range: Option<Range>,
        /// Declared names with optional memory range and initializer.
        names: Vec<DeclName>,
    },
    /// `parameter` / `localparam`.
    Param {
        /// Parameter name.
        name: String,
        /// Default/assigned value.
        value: Expr,
    },
    /// `assign lhs = rhs;`
    ContAssign(LValue, Expr),
    /// `always @(...) body`
    Always(Sensitivity, Stmt),
    /// `initial body` (reset values only).
    Initial(Stmt),
    /// Module instantiation.
    Instance {
        /// Instantiated module name.
        module: String,
        /// Instance name.
        name: String,
        /// `#(...)` parameter overrides (named or positional).
        params: Vec<(Option<String>, Expr)>,
        /// Port connections (named or positional).
        conns: Vec<(Option<String>, Option<Expr>)>,
    },
    /// `assert property (expr);`
    AssertProperty {
        /// The asserted condition.
        cond: Expr,
        /// Optional label.
        label: Option<String>,
    },
    /// `assume property (expr);` — environment constraint.
    AssumeProperty {
        /// The assumed condition.
        cond: Expr,
    },
}

/// One declared name within a `Decl` item.
#[derive(Clone, Debug, PartialEq)]
pub struct DeclName {
    /// Signal name.
    pub name: String,
    /// `[lo:hi]` memory (unpacked) range, if any.
    pub memory: Option<Range>,
    /// Declaration initializer (`reg r = 0;`).
    pub init: Option<Expr>,
}

/// A port in the module header.
#[derive(Clone, Debug, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: Dir,
    /// Packed range, if any.
    pub range: Option<Range>,
    /// Whether the header declared it `reg` (output regs).
    pub is_reg: bool,
}

/// A parsed module.
#[derive(Clone, Debug, PartialEq)]
pub struct SourceModule {
    /// Module name.
    pub name: String,
    /// Ports in header order.
    pub ports: Vec<Port>,
    /// Body items in source order.
    pub items: Vec<Item>,
    /// 1-based line of the `module` keyword.
    pub line: u32,
}

// ----------------------------------------------------------------------
// The walk: every pass over the tree recurses through these.
// ----------------------------------------------------------------------

impl Expr {
    /// Convenience constructor for an unsized number.
    pub fn num(value: u64) -> Expr {
        Expr::Number { size: None, value }
    }

    /// The operands of this node in field order: a replication's count
    /// before its parts, a part-select's `hi` before its `lo`.
    pub fn operands(&self) -> Vec<&Expr> {
        match self {
            Expr::Ident(_) | Expr::Number { .. } => Vec::new(),
            Expr::Unary(_, a) | Expr::Index(_, a) => vec![a],
            Expr::Binary(_, a, b) | Expr::Part(_, a, b) => vec![a, b],
            Expr::Ternary(c, a, b) => vec![c, a, b],
            Expr::Concat(parts) => parts.iter().collect(),
            Expr::Repl(n, parts) => std::iter::once(&**n).chain(parts).collect(),
        }
    }

    /// The assignment target this expression names, when it is a
    /// signal, a bit- or part-select, or a concatenation of such
    /// targets: what an instance's output port may connect to.
    pub fn as_lvalue(&self) -> Option<LValue> {
        match self {
            Expr::Ident(n) => Some(LValue::Ident(n.clone())),
            Expr::Index(n, i) => Some(LValue::Index(n.clone(), (**i).clone())),
            Expr::Part(n, hi, lo) => Some(LValue::Part(n.clone(), (**hi).clone(), (**lo).clone())),
            Expr::Concat(parts) => parts
                .iter()
                .map(Expr::as_lvalue)
                .collect::<Option<_>>()
                .map(LValue::Concat),
            _ => None,
        }
    }

    /// This node rebuilt over `f` of each operand, in field order;
    /// operators and signal names stay as they are.
    pub fn map_operands(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut boxed = |e: &Expr| Box::new(f(e));
        match self {
            Expr::Ident(_) | Expr::Number { .. } => self.clone(),
            Expr::Unary(op, a) => Expr::Unary(*op, boxed(a)),
            Expr::Binary(op, a, b) => Expr::Binary(*op, boxed(a), boxed(b)),
            Expr::Ternary(c, a, b) => Expr::Ternary(boxed(c), boxed(a), boxed(b)),
            Expr::Concat(parts) => Expr::Concat(parts.iter().map(f).collect()),
            Expr::Repl(n, parts) => Expr::Repl(boxed(n), parts.iter().map(f).collect()),
            Expr::Index(n, i) => Expr::Index(n.clone(), boxed(i)),
            Expr::Part(n, hi, lo) => Expr::Part(n.clone(), boxed(hi), boxed(lo)),
        }
    }
}

impl LValue {
    /// This target rebuilt with every signal name mapped by `name` and
    /// every index or bound by `expr`.
    pub fn map(
        &self,
        name: &mut impl FnMut(&str) -> String,
        expr: &mut impl FnMut(&Expr) -> Expr,
    ) -> LValue {
        match self {
            LValue::Ident(n) => LValue::Ident(name(n)),
            LValue::Index(n, i) => LValue::Index(name(n), expr(i)),
            LValue::Part(n, hi, lo) => LValue::Part(name(n), expr(hi), expr(lo)),
            LValue::Concat(parts) => {
                LValue::Concat(parts.iter().map(|p| p.map(name, expr)).collect())
            }
        }
    }

    /// The signals this target writes, left to right.
    pub fn targets(&self) -> Vec<String> {
        match self {
            LValue::Ident(n) | LValue::Index(n, _) | LValue::Part(n, _, _) => vec![n.clone()],
            LValue::Concat(parts) => parts.iter().flat_map(LValue::targets).collect(),
        }
    }
}

impl Stmt {
    /// This statement rebuilt with every target's signal names mapped
    /// by `name` and every expression (conditions, scrutinees, labels,
    /// right-hand sides, target indices and bounds) by `expr`.
    pub fn map(
        &self,
        name: &mut impl FnMut(&str) -> String,
        expr: &mut impl FnMut(&Expr) -> Expr,
    ) -> Stmt {
        match self {
            Stmt::Block(b) => Stmt::Block(b.iter().map(|s| s.map(name, expr)).collect()),
            Stmt::If(c, t, e) => Stmt::If(
                expr(c),
                Box::new(t.map(name, expr)),
                e.as_ref().map(|e| Box::new(e.map(name, expr))),
            ),
            Stmt::Case {
                expr: scrutinee,
                arms,
                default,
                wildcard,
            } => Stmt::Case {
                expr: expr(scrutinee),
                arms: arms
                    .iter()
                    .map(|(labels, body)| {
                        (
                            labels.iter().map(&mut *expr).collect(),
                            body.map(name, expr),
                        )
                    })
                    .collect(),
                default: default.as_ref().map(|d| Box::new(d.map(name, expr))),
                wildcard: *wildcard,
            },
            Stmt::Blocking(lv, e) => Stmt::Blocking(lv.map(name, expr), expr(e)),
            Stmt::NonBlocking(lv, e) => Stmt::NonBlocking(lv.map(name, expr), expr(e)),
            Stmt::Nop => Stmt::Nop,
        }
    }

    /// Calls `f(blocking, target, rhs)` on every assignment in the
    /// statement, in source order, whatever branch it sits in.
    pub fn for_each_assign(&self, f: &mut impl FnMut(bool, &LValue, &Expr)) {
        match self {
            Stmt::Block(b) => b.iter().for_each(|s| s.for_each_assign(f)),
            Stmt::If(_, t, e) => {
                t.for_each_assign(f);
                if let Some(e) = e {
                    e.for_each_assign(f);
                }
            }
            Stmt::Case { arms, default, .. } => {
                for (_, body) in arms {
                    body.for_each_assign(f);
                }
                if let Some(d) = default {
                    d.for_each_assign(f);
                }
            }
            Stmt::Blocking(lv, e) => f(true, lv, e),
            Stmt::NonBlocking(lv, e) => f(false, lv, e),
            Stmt::Nop => {}
        }
    }

    /// The signals assigned anywhere in the statement, in source order
    /// (a signal assigned twice appears twice).
    pub fn targets(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_assign(&mut |_, lv, _| out.extend(lv.targets()));
        out
    }

    /// A `case` as the priority chain of `if`s it means: an arm is taken
    /// when the scrutinee `==` one of its labels, the first such arm
    /// wins, and the `default` (if any) ends the chain. Comparing with
    /// `==` extends the narrower side, as Verilog extends the scrutinee
    /// and every label to the widest of them. Any other statement comes
    /// back unchanged. `casez` labels compare exactly.
    pub fn case_to_if(&self) -> Stmt {
        let Stmt::Case {
            expr,
            arms,
            default,
            ..
        } = self
        else {
            return self.clone();
        };
        let mut chain = default.clone();
        for (labels, body) in arms.iter().rev() {
            let cond = labels
                .iter()
                .map(|l| Expr::Binary(BinaryOp::Eq, Box::new(expr.clone()), Box::new(l.clone())))
                .reduce(|c, eq| Expr::Binary(BinaryOp::LogicOr, Box::new(c), Box::new(eq)))
                .unwrap_or(Expr::num(0));
            chain = Some(Box::new(Stmt::If(cond, Box::new(body.clone()), chain)));
        }
        chain.map_or(Stmt::Nop, |c| *c)
    }
}
