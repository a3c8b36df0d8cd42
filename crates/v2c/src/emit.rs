//! Hierarchical ANSI-C emission of the software-netlist.
//!
//! Every elaborated module becomes a C struct (its registers and
//! memories plus nested child structs) and a `<module>_step` function:
//! combinational logic in dependency order, child instance calls at
//! their scheduled positions (the inter-modular analysis of §III-B),
//! assertions, then the two-phase sequential commit. Each call of the
//! top-level step function is one clock cycle.
//!
//! All signals are stored as `uint64_t` with explicit masking after
//! every operation — a deliberately simple, bit-precise mapping (the
//! original v2c used native C integer types; the uniform mapping keeps
//! the translation obviously width-correct, which §III-C values over
//! optimization).

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use vfront::ast::{BinaryOp, Dir, Expr, LValue, Stmt, UnaryOp};
use vfront::elab::{
    bit_index_width, check, const_eval, lookup, part_bounds, self_width, target_widths, Checked,
    Design, ESignal, ElabModule, Role, Unit,
};
use vfront::VerilogError;

/// Which `main` to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MainStyle {
    /// SV-COMP harness: `__VERIFIER_nondet_*` inputs, `assert`
    /// properties, nondeterministic uninitialized registers. This is
    /// the form the software analyzers consume.
    Verifier,
    /// Co-simulation harness: inputs from stdin (hex per cycle),
    /// per-cycle dump of assertion flags and all architectural state;
    /// uninitialized registers start at zero. Used for translation
    /// validation against the word-level simulator.
    Cosim,
}

/// Emits the software-netlist C program for an elaborated design.
///
/// [`vfront::elab::check`] decides the clock, the registers, their
/// reset values and the combinational schedule, and applies every
/// driver, name, instance, latch, width and bound rule, before a line
/// is emitted; the `case` lowering is [`vfront::ast::Stmt::case_to_if`]
/// and widths and bounds come from [`vfront::elab::self_width`],
/// [`vfront::elab::part_bounds`] and [`vfront::elab::target_widths`].
/// Synthesis reads the same, so the C means what the synthesized
/// transition system means.
///
/// # C names
///
/// Every signal and instance keeps its Verilog name, with each
/// character other than a letter, a digit or `_` written as `_`, and
/// `v_` in front of a name that is empty or begins with a digit. A
/// name that then collides gets `v_` in front again, until it does
/// not. In declaration order, signals first, a name collides with:
/// - a C keyword, the state pointer `s`, `main`, or a library name the
///   program uses (`assert`, `printf`, `scanf`, `fflush`, `stdout`,
///   `uint64_t`);
/// - any name beginning with `__`, which the emitter keeps for its own
///   (`__t<n>`, `__next_*`, `__cur_*`, `__in_*`, `__i`, `__cycles`, the
///   harness's `__VERIFIER_*` externs);
/// - a module's type or functions (`<module>_state`, `_init`, `_step`,
///   `_dump`);
/// - the name of an earlier signal or instance of its module, or the
///   pointer `o_<name>` through which the step function writes an
///   earlier output port. An output port also collides when its own
///   pointer would be such a name, or a module's type or function.
///
/// A design whose names collide with nothing, every bundled one among
/// them, keeps them all.
///
/// # Errors
///
/// Reports exactly what [`vfront::synthesize`] reports, with the same
/// messages: the violations of [`vfront::elab::check`].
pub fn emit_c(design: &Design, style: MainStyle) -> Result<String, VerilogError> {
    let checked = check(design)?;
    let mut e = Emitter::new(design, &checked, style);
    e.emit()?;
    Ok(e.out)
}

fn mask(w: u32) -> u64 {
    rtlir::value::mask(w)
}

fn cmask(w: u32) -> String {
    format!("{:#x}ULL", mask(w))
}

/// A Verilog name as a C identifier: every character other than a
/// letter, a digit or `_` becomes `_`, and `v_` goes in front of a name
/// that is empty or begins with a digit.
fn sanitize(name: &str) -> String {
    let c: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if c.is_empty() || c.starts_with(|c: char| c.is_ascii_digit()) {
        format!("v_{c}")
    } else {
        c
    }
}

/// Names the emitted C uses besides the modules' own types and
/// functions: the C keywords up to C23, the state pointer `s`, `main`,
/// and the library names the program calls or declares with.
const RESERVED: &str = "alignas alignof auto bool break case char const constexpr continue \
    default do double else enum extern false float for goto if inline int long nullptr \
    register restrict return short signed sizeof static static_assert struct switch \
    thread_local true typedef typeof typeof_unqual union unsigned void volatile while \
    _Alignas _Alignof _Atomic _BitInt _Bool _Complex _Decimal128 _Decimal32 _Decimal64 \
    _Generic _Imaginary _Noreturn _Static_assert _Thread_local \
    s main assert printf scanf fflush stdout uint64_t";

/// The C names of module `m`'s signals and instances, in declaration
/// order, signals first: each its [`sanitize`]d Verilog name, with `v_`
/// put in front until it collides with nothing (see [`emit_c`]).
/// `reserved` holds [`RESERVED`] and every module's type and function
/// names.
fn c_names(m: &ElabModule, reserved: &HashSet<String>) -> HashMap<String, String> {
    let mut taken: HashSet<String> = HashSet::new();
    let mut names = HashMap::new();
    let entities = (m.signals.iter())
        .map(|s| (&s.name, s.port == Some(Dir::Output)))
        .chain(m.instances.iter().map(|i| (&i.name, false)));
    for (name, output) in entities {
        let free = |c: &str| {
            let pointer = format!("o_{c}");
            !(reserved.contains(c)
                || c.starts_with("__")
                || taken.contains(c)
                || output && (taken.contains(&pointer) || reserved.contains(&pointer)))
        };
        let mut c = sanitize(name);
        while !free(&c) {
            c.insert_str(0, "v_");
        }
        if output {
            taken.insert(format!("o_{c}"));
        }
        taken.insert(c.clone());
        names.insert(name.clone(), c);
    }
    names
}

/// Per-module facts computed bottom-up.
#[derive(Clone, Debug)]
struct ModInfo<'d> {
    cname: String,
    /// The C name of every signal and instance ([`c_names`]).
    names: HashMap<String, String>,
    /// What `vfront` decided: clock ports are no function arguments,
    /// registers live in the module's struct, and the schedule orders
    /// the step function's combinational section.
    checked: &'d Checked,
    /// Total number of assertions in this module's subtree.
    assert_total: usize,
    /// Number of the module's own assertions.
    assert_own: usize,
}

impl ModInfo<'_> {
    /// The C name of a signal or instance of the module.
    fn c(&self, name: &str) -> String {
        self.names
            .get(name)
            .cloned()
            .unwrap_or_else(|| sanitize(name))
    }
}

struct Emitter<'d> {
    design: &'d Design,
    style: MainStyle,
    info: Vec<ModInfo<'d>>,
    out: String,
}

impl<'d> Emitter<'d> {
    fn new(design: &'d Design, checked: &'d [Checked], style: MainStyle) -> Emitter<'d> {
        // Compute per-module info bottom-up (children precede parents
        // in `design.modules`).
        let mut cnames: Vec<String> = Vec::with_capacity(design.modules.len());
        for m in &design.modules {
            let mut cname = sanitize(&m.name);
            while cnames.contains(&cname) {
                cname.push('_');
            }
            cnames.push(cname);
        }
        let mut reserved: HashSet<String> = RESERVED.split_whitespace().map(String::from).collect();
        for cname in &cnames {
            for suffix in ["state", "init", "step", "dump"] {
                reserved.insert(format!("{cname}_{suffix}"));
            }
        }
        let mut info: Vec<ModInfo> = Vec::with_capacity(design.modules.len());
        for ((m, checked), cname) in design.modules.iter().zip(checked).zip(cnames) {
            let own = m.asserts.len();
            let mut total = own;
            for inst in &m.instances {
                total += info[inst.module].assert_total;
            }
            info.push(ModInfo {
                cname,
                names: c_names(m, &reserved),
                checked,
                assert_total: total,
                assert_own: own,
            });
        }
        Emitter {
            design,
            style,
            info,
            out: String::new(),
        }
    }

    fn top(&self) -> &ElabModule {
        &self.design.modules[self.design.top]
    }

    fn emit(&mut self) -> Result<(), VerilogError> {
        let cosim = self.style == MainStyle::Cosim;
        let _ = writeln!(
            self.out,
            "/* software-netlist generated by v2c (DATE 2016 reproduction) */"
        );
        let _ = writeln!(self.out, "#include <assert.h>");
        let _ = writeln!(self.out, "#include <stdint.h>");
        if cosim {
            let _ = writeln!(self.out, "#include <stdio.h>");
        }
        if self.style == MainStyle::Verifier {
            let _ = writeln!(
                self.out,
                "extern unsigned long long __VERIFIER_nondet_ulonglong(void);"
            );
            let _ = writeln!(self.out, "extern void __VERIFIER_assume(int cond);");
        }
        if cosim {
            let nb = self.info[self.design.top].assert_total.max(1);
            let _ = writeln!(self.out, "static int __bad[{nb}];");
        }
        let _ = writeln!(self.out);

        for idx in 0..self.design.modules.len() {
            self.emit_struct(idx)?;
        }
        let _ = writeln!(self.out);
        for idx in 0..self.design.modules.len() {
            self.emit_init(idx)?;
            self.emit_step(idx)?;
            if cosim {
                self.emit_dump(idx)?;
            }
        }
        self.emit_main()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structs, init, dump
    // ------------------------------------------------------------------

    /// The registers of module `idx`, in declaration order.
    fn regs(&self, idx: usize) -> Vec<&'d ESignal> {
        let signals = &self.design.modules[idx].signals;
        (signals.iter().zip(&self.info[idx].checked.roles))
            .filter_map(|(s, &r)| (r == Role::Register).then_some(s))
            .collect()
    }

    fn emit_struct(&mut self, idx: usize) -> Result<(), VerilogError> {
        let m = &self.design.modules[idx];
        let cname = self.info[idx].cname.clone();
        let _ = writeln!(self.out, "typedef struct {cname}_state {{");
        for sig in self.regs(idx) {
            match sig.memory {
                Some((_, aw)) => {
                    let _ = writeln!(
                        self.out,
                        "  uint64_t {}[{}]; /* {} x {} bits */",
                        self.info[idx].c(&sig.name),
                        1u64 << aw,
                        1u64 << aw,
                        sig.width
                    );
                }
                None => {
                    let _ = writeln!(
                        self.out,
                        "  uint64_t {}; /* {} bits */",
                        self.info[idx].c(&sig.name),
                        sig.width
                    );
                }
            }
        }
        for inst in &m.instances {
            let child = self.info[inst.module].cname.clone();
            let n = self.info[idx].c(&inst.name);
            let _ = writeln!(self.out, "  struct {child}_state {n};");
        }
        let _ = writeln!(self.out, "}} {cname}_state;");
        Ok(())
    }

    fn emit_init(&mut self, idx: usize) -> Result<(), VerilogError> {
        let m = &self.design.modules[idx];
        let cname = self.info[idx].cname.clone();
        let _ = writeln!(self.out, "static void {cname}_init({cname}_state *s) {{");
        let init = &self.info[idx].checked.resets;
        for sig in self.regs(idx) {
            let n = self.info[idx].c(&sig.name);
            match sig.memory {
                None => {
                    if let Some(&v) = init.scalars.get(&sig.name) {
                        let _ = writeln!(self.out, "  s->{n} = {:#x}ULL;", v & mask(sig.width));
                    } else if self.style == MainStyle::Verifier {
                        let _ = writeln!(
                            self.out,
                            "  s->{n} = __VERIFIER_nondet_ulonglong() & {};",
                            cmask(sig.width)
                        );
                    } else {
                        let _ = writeln!(self.out, "  s->{n} = 0ULL;");
                    }
                }
                Some((_, aw)) => {
                    let total = 1u64 << aw;
                    match init.rows.get(&sig.name) {
                        Some(rows) => {
                            let _ = writeln!(
                                self.out,
                                "  {{ int __i; for (__i = 0; __i < {total}; __i++) \
                                 s->{n}[__i] = 0ULL; }}"
                            );
                            for (k, v) in rows {
                                let _ = writeln!(self.out, "  s->{n}[{k}] = {v:#x}ULL;");
                            }
                        }
                        None => {
                            if self.style == MainStyle::Verifier {
                                let _ = writeln!(
                                    self.out,
                                    "  {{ int __i; for (__i = 0; __i < {total}; __i++) \
                                     s->{n}[__i] = __VERIFIER_nondet_ulonglong() & {}; }}",
                                    cmask(sig.width)
                                );
                            } else {
                                let _ = writeln!(
                                    self.out,
                                    "  {{ int __i; for (__i = 0; __i < {total}; __i++) \
                                     s->{n}[__i] = 0ULL; }}"
                                );
                            }
                        }
                    }
                }
            }
        }
        for inst in &m.instances {
            let child = self.info[inst.module].cname.clone();
            let n = self.info[idx].c(&inst.name);
            let _ = writeln!(self.out, "  {child}_init(&s->{n});");
        }
        let _ = writeln!(self.out, "}}");
        Ok(())
    }

    fn emit_dump(&mut self, idx: usize) -> Result<(), VerilogError> {
        let m = &self.design.modules[idx];
        let cname = self.info[idx].cname.clone();
        let _ = writeln!(
            self.out,
            "static void {cname}_dump(const {cname}_state *s) {{"
        );
        for sig in self.regs(idx) {
            let n = self.info[idx].c(&sig.name);
            match sig.memory {
                None => {
                    let _ = writeln!(self.out, "  printf(\" %llx\", (unsigned long long)s->{n});");
                }
                Some((_, aw)) => {
                    let total = 1u64 << aw;
                    let _ = writeln!(
                        self.out,
                        "  {{ int __i; for (__i = 0; __i < {total}; __i++) \
                         printf(\" %llx\", (unsigned long long)s->{n}[__i]); }}"
                    );
                }
            }
        }
        for inst in &m.instances {
            let child = self.info[inst.module].cname.clone();
            let n = self.info[idx].c(&inst.name);
            let _ = writeln!(self.out, "  {child}_dump(&s->{n});");
        }
        let _ = writeln!(self.out, "}}");
        Ok(())
    }

    // ------------------------------------------------------------------
    // Step function
    // ------------------------------------------------------------------

    fn emit_step(&mut self, idx: usize) -> Result<(), VerilogError> {
        let m = self.design.modules[idx].clone();
        let inf = self.info[idx].clone();
        let cname = inf.cname.clone();

        // Signature: inputs by value, outputs by pointer, clock skipped.
        let mut args = vec![format!("{cname}_state *s")];
        let mut in_ports = Vec::new();
        let mut out_ports = Vec::new();
        for (sig, &role) in m.signals.iter().zip(&inf.checked.roles) {
            if role == Role::Clock {
                continue;
            }
            match sig.port {
                Some(Dir::Input) => {
                    args.push(format!("uint64_t {}", inf.c(&sig.name)));
                    in_ports.push(sig.name.clone());
                }
                Some(Dir::Output) => {
                    args.push(format!("uint64_t *o_{}", inf.c(&sig.name)));
                    out_ports.push(sig.name.clone());
                }
                None => {}
            }
        }
        if self.style == MainStyle::Cosim && inf.assert_total > 0 {
            args.push("int __bad_base".to_string());
        }
        let mut body = FnBody::new(&m, &inf, self.style, self.design, &self.info);
        body.emit_body()?;
        let _ = writeln!(self.out, "static void {cname}_step({}) {{", args.join(", "));
        self.out.push_str(&body.text);
        // Outputs.
        for p in &out_ports {
            let v = body.value_of(p)?;
            let _ = writeln!(self.out, "  *o_{} = {v};", inf.c(p));
        }
        self.out.push_str(&body.tail);
        let _ = writeln!(self.out, "}}");
        Ok(())
    }

    // ------------------------------------------------------------------
    // main
    // ------------------------------------------------------------------

    fn emit_main(&mut self) -> Result<(), VerilogError> {
        let top = self.top().clone();
        let tidx = self.design.top;
        let inf = self.info[tidx].clone();
        let cname = inf.cname.clone();
        let _ = writeln!(self.out, "int main(void) {{");
        let _ = writeln!(self.out, "  {cname}_state s;");
        let _ = writeln!(self.out, "  {cname}_init(&s);");
        let ins: Vec<&ESignal> = (top.signals.iter().zip(&inf.checked.roles))
            .filter(|&(x, &role)| x.port == Some(Dir::Input) && role != Role::Clock)
            .map(|(x, _)| x)
            .collect();
        let outs: Vec<&ESignal> = top
            .signals
            .iter()
            .filter(|x| x.port == Some(Dir::Output))
            .collect();
        for o in &outs {
            let _ = writeln!(self.out, "  uint64_t o_{};", inf.c(&o.name));
        }
        match self.style {
            MainStyle::Verifier => {
                let _ = writeln!(self.out, "  while (1) {{");
                for i in &ins {
                    let _ = writeln!(
                        self.out,
                        "    uint64_t {} = __VERIFIER_nondet_ulonglong() & {};",
                        inf.c(&i.name),
                        cmask(i.width)
                    );
                }
                let mut call_args = vec!["&s".to_string()];
                call_args.extend(ins.iter().map(|i| inf.c(&i.name)));
                call_args.extend(outs.iter().map(|o| format!("&o_{}", inf.c(&o.name))));
                let _ = writeln!(self.out, "    {cname}_step({});", call_args.join(", "));
                let _ = writeln!(self.out, "  }}");
            }
            MainStyle::Cosim => {
                for i in &ins {
                    let _ = writeln!(self.out, "  unsigned long long __in_{};", inf.c(&i.name));
                }
                let fmt = vec!["%llx"; ins.len()].join(" ");
                let scan_args: Vec<String> = ins
                    .iter()
                    .map(|i| format!("&__in_{}", inf.c(&i.name)))
                    .collect();
                if ins.is_empty() {
                    let _ = writeln!(self.out, "  int __cycles;");
                    let _ = writeln!(self.out, "  if (scanf(\"%d\", &__cycles) != 1) return 1;");
                    let _ = writeln!(self.out, "  while (__cycles-- > 0) {{");
                } else {
                    let _ = writeln!(
                        self.out,
                        "  while (scanf(\"{fmt}\", {}) == {}) {{",
                        scan_args.join(", "),
                        ins.len()
                    );
                }
                let nb = inf.assert_total;
                if nb > 0 {
                    let _ = writeln!(
                        self.out,
                        "    {{ int __k; for (__k = 0; __k < {nb}; __k++) __bad[__k] = 0; }}"
                    );
                }
                let mut call_args = vec!["&s".to_string()];
                call_args.extend(
                    ins.iter()
                        .map(|i| format!("(__in_{} & {})", inf.c(&i.name), cmask(i.width))),
                );
                call_args.extend(outs.iter().map(|o| format!("&o_{}", inf.c(&o.name))));
                if nb > 0 {
                    call_args.push("0".to_string());
                }
                let _ = writeln!(self.out, "    {cname}_step({});", call_args.join(", "));
                if nb > 0 {
                    let _ = writeln!(
                        self.out,
                        "    {{ int __k; for (__k = 0; __k < {nb}; __k++) \
                         printf(\"%d\", __bad[__k]); }}"
                    );
                } else {
                    let _ = writeln!(self.out, "    printf(\"-\");");
                }
                let _ = writeln!(self.out, "    {cname}_dump(&s);");
                let _ = writeln!(self.out, "    printf(\"\\n\");");
                let _ = writeln!(self.out, "    fflush(stdout);");
                let _ = writeln!(self.out, "  }}");
            }
        }
        let _ = writeln!(self.out, "  return 0;");
        let _ = writeln!(self.out, "}}");
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Per-function body emission
// ----------------------------------------------------------------------

/// Where a signal's current value lives in the generated C.
#[derive(Clone, Debug, PartialEq)]
enum Loc {
    StructReg,  // s-><name>
    StructMem,  // s-><name>[i]
    InputParam, // <name>
    CombLocal,  // <name> (uint64_t local)
    NextTemp,   // __next_<name> (inside clocked commit)
    CurTemp,    // __cur_<name> (blocking reg shadow)
    CurMem,     // __next_<name>[i] (blocking memory, inside its process)
}

struct FnBody<'a> {
    m: &'a ElabModule,
    info: &'a ModInfo<'a>,
    style: MainStyle,
    design: &'a Design,
    all_info: &'a [ModInfo<'a>],
    text: String,
    /// Commit statements, emitted after outputs.
    tail: String,
    loc: HashMap<String, Loc>,
    tmp: u32,
    indent: usize,
}

impl<'a> FnBody<'a> {
    fn new(
        m: &'a ElabModule,
        info: &'a ModInfo<'a>,
        style: MainStyle,
        design: &'a Design,
        all_info: &'a [ModInfo<'a>],
    ) -> FnBody<'a> {
        FnBody {
            m,
            info,
            style,
            design,
            all_info,
            text: String::new(),
            tail: String::new(),
            loc: HashMap::new(),
            tmp: 0,
            indent: 1,
        }
    }

    fn err(msg: impl Into<String>) -> VerilogError {
        VerilogError::general(msg)
    }

    fn sig(&self, name: &str) -> Result<&ESignal, VerilogError> {
        lookup(&|n| self.m.signal(n), name)
    }

    fn width(&self, e: &Expr) -> Result<u32, VerilogError> {
        self_width(e, &|n| self.m.signal(n))
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.text.push_str("  ");
        }
        self.text.push_str(s);
        self.text.push('\n');
    }

    fn fresh(&mut self) -> String {
        self.tmp += 1;
        format!("__t{}", self.tmp)
    }

    /// C lvalue/rvalue text of a signal's *current* value.
    fn value_of(&self, name: &str) -> Result<String, VerilogError> {
        let n = self.info.c(name);
        match self.loc.get(name) {
            Some(Loc::StructReg) => Ok(format!("s->{n}")),
            Some(Loc::InputParam) => Ok(n),
            Some(Loc::CombLocal) => Ok(n),
            Some(Loc::CurTemp) => Ok(format!("__cur_{n}")),
            Some(Loc::NextTemp) => Ok(format!("s->{n}")), // reads see old value
            // `check` rules out reading a memory without an index, and
            // reading a clock.
            Some(Loc::StructMem | Loc::CurMem) | None => {
                Err(Self::err(format!("'{name}' has no value")))
            }
        }
    }

    // ---- expression emission ----

    /// Emits `e` as a C expression of exactly `width` bits (masked).
    fn expr(&mut self, e: &Expr, width: u32) -> Result<String, VerilogError> {
        let m = cmask(width);
        Ok(match e {
            Expr::Number { value, .. } => format!("{:#x}ULL", value & mask(width)),
            Expr::Ident(n) => {
                let v = self.value_of(n)?;
                let sw = self.sig(n)?.width;
                if sw <= width {
                    v
                } else {
                    format!("({v} & {m})")
                }
            }
            Expr::Unary(op, a) => match op {
                UnaryOp::Not => {
                    let av = self.expr(a, width)?;
                    format!("(~{av} & {m})")
                }
                UnaryOp::Neg => {
                    let av = self.expr(a, width)?;
                    format!("((0ULL - {av}) & {m})")
                }
                UnaryOp::Plus => self.expr(a, width)?,
                UnaryOp::LogicNot => {
                    let w = self.width(a)?;
                    let av = self.expr(a, w)?;
                    format!("({av} == 0ULL ? 1ULL : 0ULL)")
                }
                UnaryOp::RedAnd => {
                    let w = self.width(a)?;
                    let av = self.expr(a, w)?;
                    format!("({av} == {} ? 1ULL : 0ULL)", cmask(w))
                }
                UnaryOp::RedOr => {
                    let w = self.width(a)?;
                    let av = self.expr(a, w)?;
                    format!("({av} != 0ULL ? 1ULL : 0ULL)")
                }
                UnaryOp::RedXor => {
                    let w = self.width(a)?;
                    let av = self.expr(a, w)?;
                    format!("((uint64_t)__builtin_parityll({av}))")
                }
                UnaryOp::RedNand => {
                    let w = self.width(a)?;
                    let av = self.expr(a, w)?;
                    format!("({av} == {} ? 0ULL : 1ULL)", cmask(w))
                }
                UnaryOp::RedNor => {
                    let w = self.width(a)?;
                    let av = self.expr(a, w)?;
                    format!("({av} != 0ULL ? 0ULL : 1ULL)")
                }
                UnaryOp::RedXnor => {
                    let w = self.width(a)?;
                    let av = self.expr(a, w)?;
                    format!("((uint64_t)(__builtin_parityll({av}) ^ 1))")
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
                        let w = width.max(self.width(a)?).max(self.width(b)?);
                        let av = self.expr(a, w)?;
                        let bv = self.expr(b, w)?;
                        let full = match op {
                            B::Add => format!("(({av} + {bv}) & {})", cmask(w)),
                            B::Sub => format!("(({av} - {bv}) & {})", cmask(w)),
                            B::Mul => format!("(({av} * {bv}) & {})", cmask(w)),
                            B::Div => {
                                let bt = self.atom(&bv);
                                format!("({bt} == 0ULL ? {} : ({av} / {bt}))", cmask(w))
                            }
                            B::Mod => {
                                let at = self.atom(&av);
                                let bt = self.atom(&bv);
                                format!("({bt} == 0ULL ? {at} : ({at} % {bt}))")
                            }
                            B::And => format!("({av} & {bv})"),
                            B::Or => format!("({av} | {bv})"),
                            B::Xor => format!("({av} ^ {bv})"),
                            B::Xnor => format!("(~({av} ^ {bv}) & {})", cmask(w)),
                            _ => unreachable!(),
                        };
                        if w == width {
                            full
                        } else {
                            format!("({full} & {m})")
                        }
                    }
                    B::Shl | B::Sshl => {
                        let w = width.max(self.width(a)?);
                        let av = self.expr(a, w)?;
                        let bw = self.width(b)?;
                        let bv = self.expr(b, bw)?;
                        let bt = self.atom(&bv);
                        let full =
                            format!("({bt} >= {w}ULL ? 0ULL : (({av} << {bt}) & {}))", cmask(w));
                        if w == width {
                            full
                        } else {
                            format!("({full} & {m})")
                        }
                    }
                    B::Shr => {
                        let w = width.max(self.width(a)?);
                        let av = self.expr(a, w)?;
                        let bw = self.width(b)?;
                        let bv = self.expr(b, bw)?;
                        let bt = self.atom(&bv);
                        let full = format!("({bt} >= {w}ULL ? 0ULL : ({av} >> {bt}))");
                        if w == width {
                            full
                        } else {
                            format!("({full} & {m})")
                        }
                    }
                    B::Sshr => {
                        let w = width.max(self.width(a)?);
                        let av = self.expr(a, w)?;
                        let at = self.atom(&av);
                        let bw = self.width(b)?;
                        let bv = self.expr(b, bw)?;
                        let bt = self.atom(&bv);
                        let sign = format!("(({at} >> {}ULL) & 1ULL)", w - 1);
                        let st = self.atom(&format!("({sign} ? {} : 0ULL)", cmask(w)));
                        // b == 0 -> a; b >= w -> sign mask; else shifted
                        // with sign fill.
                        let full = format!(
                            "({bt} == 0ULL ? {at} : ({bt} >= {w}ULL ? {st} : \
                             ((({at} >> {bt}) | (({st} << ({w}ULL - {bt})) & {mw})) & {mw})))",
                            mw = cmask(w)
                        );
                        if w == width {
                            full
                        } else {
                            format!("({full} & {m})")
                        }
                    }
                    B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
                        let w = self.width(a)?.max(self.width(b)?);
                        let av = self.expr(a, w)?;
                        let bv = self.expr(b, w)?;
                        let cop = match op {
                            B::Eq => "==",
                            B::Ne => "!=",
                            B::Lt => "<",
                            B::Le => "<=",
                            B::Gt => ">",
                            B::Ge => ">=",
                            _ => unreachable!(),
                        };
                        format!("({av} {cop} {bv} ? 1ULL : 0ULL)")
                    }
                    B::LogicAnd | B::LogicOr => {
                        let aw = self.width(a)?;
                        let bw = self.width(b)?;
                        let av = self.expr(a, aw)?;
                        let bv = self.expr(b, bw)?;
                        let cop = if *op == B::LogicAnd { "&&" } else { "||" };
                        format!("(({av} != 0ULL) {cop} ({bv} != 0ULL) ? 1ULL : 0ULL)")
                    }
                }
            }
            Expr::Ternary(c, a, b) => {
                let cw = self.width(c)?;
                let cv = self.expr(c, cw)?;
                let av = self.expr(a, width)?;
                let bv = self.expr(b, width)?;
                format!("({cv} != 0ULL ? {av} : {bv})")
            }
            Expr::Concat(parts) => {
                let total = self.width(e)?;
                let (s, _) = self.concat(parts)?;
                if total <= width {
                    s
                } else {
                    format!("({s} & {m})")
                }
            }
            Expr::Repl(_, parts) => {
                let total = self.width(e)?;
                let (u, uw) = self.concat(parts)?;
                let ut = self.atom(&u);
                let mut acc = ut.clone();
                for _ in 1..total / uw {
                    acc = format!("(({acc} << {uw}ULL) | {ut})");
                }
                if total <= width {
                    acc
                } else {
                    format!("({acc} & {m})")
                }
            }
            Expr::Index(n, idx) => {
                let sig = self.sig(n)?.clone();
                if let Some((_, aw)) = sig.memory {
                    // Every memory is a register (`check`): reads see
                    // the struct's rows, or inside the process that
                    // assigns it with `=`, its new rows.
                    let iv = self.expr(idx, aw)?;
                    let base = match self.loc.get(n) {
                        Some(Loc::CurMem) => "__next_",
                        _ => "s->",
                    };
                    let v = format!("{base}{}[{iv}]", self.info.c(n));
                    if sig.width <= width {
                        v
                    } else {
                        format!("({v} & {m})")
                    }
                } else {
                    let v = self.value_of(n)?;
                    let (off, in_range) = self.bit_offset(&sig, idx)?;
                    let bit = format!("(({v} >> {off}) & 1ULL)");
                    if in_range {
                        bit
                    } else {
                        format!("({off} < {}ULL ? {bit} : 0ULL)", sig.width)
                    }
                }
            }
            Expr::Part(n, hi, lo) => {
                let (h, l) = part_bounds(n, hi, lo, &|x| self.m.signal(x))?;
                let v = self.value_of(n)?;
                let pw = h - l + 1;
                let s = format!("(({v} >> {l}ULL) & {})", cmask(pw));
                if pw <= width {
                    s
                } else {
                    format!("({s} & {m})")
                }
            }
        })
    }

    /// The parts of a concatenation at their own widths, the first part
    /// in the most significant bits, with their total width.
    fn concat(&mut self, parts: &[Expr]) -> Result<(String, u32), VerilogError> {
        let mut acc: Option<(String, u32)> = None;
        for p in parts {
            let w = self.width(p)?;
            let pv = self.expr(p, w)?;
            acc = Some(match acc {
                None => (pv, w),
                Some((a, aw)) => (format!("(({a} << {w}ULL) | {pv})"), aw + w),
            });
        }
        acc.ok_or_else(|| Self::err("empty concatenation"))
    }

    /// The C bit offset `idx - lsb` of a bit-select of `sig`, and
    /// whether the index is a constant inside the signal. Other offsets
    /// may lie past the msb, where synthesis reads 0 and writes nothing
    /// and a C shift by 64 or more is undefined: callers guard them.
    fn bit_offset(&mut self, sig: &ESignal, idx: &Expr) -> Result<(String, bool), VerilogError> {
        let iw = bit_index_width(&sig.name, idx, &|n| self.m.signal(n))?;
        let iv = self.expr(idx, iw)?;
        let it = self.atom(&iv);
        let lsb = u64::from(sig.lsb);
        let in_range = const_eval(idx, &HashMap::new())
            .is_ok_and(|i| (lsb..lsb + u64::from(sig.width)).contains(&i));
        let off = if lsb != 0 {
            format!("({it} - {lsb}ULL)")
        } else {
            it
        };
        Ok((off, in_range))
    }

    /// Materializes a complex C expression in a temp (identifiers and
    /// literals pass through).
    fn atom(&mut self, cexpr: &str) -> String {
        let simple = cexpr
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '>' || c == '.');
        if simple {
            return cexpr.to_string();
        }
        let t = self.fresh();
        self.line(&format!("uint64_t {t} = {cexpr};"));
        t
    }

    fn bool_expr(&mut self, e: &Expr) -> Result<String, VerilogError> {
        let w = self.width(e)?;
        let v = self.expr(e, w)?;
        Ok(format!("({v} != 0ULL)"))
    }

    // ---- statements ----

    fn stmt(&mut self, s: &Stmt) -> Result<(), VerilogError> {
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Block(b) => {
                for st in b {
                    self.stmt(st)?;
                }
                Ok(())
            }
            Stmt::Blocking(lv, rhs) | Stmt::NonBlocking(lv, rhs) => self.assign(lv, rhs),
            Stmt::If(..) => {
                // An else-if chain (a lowered `case` among them) comes
                // out flat. No branch runs before a later condition is
                // evaluated, so computing every condition up front
                // reads the same values.
                let mut arms = Vec::new();
                let mut rest = Some(s);
                while let Some(Stmt::If(c, t, e)) = rest {
                    arms.push((self.bool_expr(c)?, t));
                    rest = e.as_deref();
                }
                for (i, (cv, body)) in arms.into_iter().enumerate() {
                    let head = if i == 0 { "" } else { "} else " };
                    self.line(&format!("{head}if ({cv}) {{"));
                    self.indent += 1;
                    self.stmt(body)?;
                    self.indent -= 1;
                }
                if let Some(e) = rest {
                    self.line("} else {");
                    self.indent += 1;
                    self.stmt(e)?;
                    self.indent -= 1;
                }
                self.line("}");
                Ok(())
            }
            Stmt::Case { .. } => self.stmt(&s.case_to_if()),
        }
    }

    /// C lvalue text for writing a signal (location-dependent).
    fn write_target(&self, name: &str) -> Result<String, VerilogError> {
        let n = self.info.c(name);
        match self.loc.get(name) {
            Some(Loc::CombLocal) => Ok(n),
            Some(Loc::NextTemp) => Ok(format!("__next_{n}")),
            Some(Loc::CurTemp) => Ok(format!("__cur_{n}")),
            Some(Loc::StructMem | Loc::CurMem) => Ok(format!("__next_{n}")),
            other => Err(Self::err(format!(
                "cannot assign '{name}' here ({other:?})"
            ))),
        }
    }

    fn assign(&mut self, lv: &LValue, rhs: &Expr) -> Result<(), VerilogError> {
        match lv {
            LValue::Ident(n) => {
                let w = self.sig(n)?.width;
                let rv = self.expr(rhs, w)?;
                let t = self.write_target(n)?;
                self.line(&format!("{t} = {rv};"));
                Ok(())
            }
            LValue::Index(n, idx) => {
                let sig = self.sig(n)?.clone();
                if let Some((_, aw)) = sig.memory {
                    let iv = self.expr(idx, aw)?;
                    let rv = self.expr(rhs, sig.width)?;
                    let t = self.write_target(n)?;
                    self.line(&format!("{t}[{iv}] = {rv};"));
                } else {
                    let (sh, in_range) = self.bit_offset(&sig, idx)?;
                    let sht = self.atom(&sh);
                    let rv = self.expr(rhs, 1)?;
                    let t = self.write_target(n)?;
                    let guard = if in_range {
                        String::new()
                    } else {
                        format!("if ({sht} < {}ULL) ", sig.width)
                    };
                    self.line(&format!(
                        "{guard}{t} = ({t} & ~(1ULL << {sht})) | (({rv}) << {sht});"
                    ));
                }
                Ok(())
            }
            LValue::Part(n, hi, lo) => {
                let (h, l) = part_bounds(n, hi, lo, &|x| self.m.signal(x))?;
                let pw = h - l + 1;
                let rv = self.expr(rhs, pw)?;
                let t = self.write_target(n)?;
                self.line(&format!(
                    "{t} = ({t} & ~({} << {l}ULL)) | (({rv}) << {l}ULL);",
                    cmask(pw)
                ));
                Ok(())
            }
            LValue::Concat(parts) => {
                let slices = target_widths(parts, &|x| self.m.signal(x))?;
                let total = slices.iter().map(|&(_, w)| w).sum();
                let rv = self.expr(rhs, total)?;
                let rt = self.atom(&rv);
                let mut hi = total;
                for (n, w) in slices {
                    let lo = hi - w;
                    let t = self.write_target(n)?;
                    self.line(&format!("{t} = (({rt} >> {lo}ULL) & {});", cmask(w)));
                    hi = lo;
                }
                Ok(())
            }
        }
    }

    // ---- whole body ----

    fn emit_body(&mut self) -> Result<(), VerilogError> {
        let m = self.m;

        // Locate every signal, and declare the combinational locals.
        for (sig, &role) in m.signals.iter().zip(&self.info.checked.roles) {
            let loc = match role {
                Role::Clock => continue,
                Role::Register if sig.memory.is_some() => Loc::StructMem,
                Role::Register => Loc::StructReg,
                Role::Net if sig.port == Some(Dir::Input) => Loc::InputParam,
                Role::Net => {
                    self.line(&format!("uint64_t {} = 0ULL;", self.info.c(&sig.name)));
                    Loc::CombLocal
                }
            };
            self.loc.insert(sig.name.clone(), loc);
        }

        // Emit combinational section, in the order of the §III-B
        // schedule: the inter-module dependency analysis.
        self.line("/* combinational logic (dependency order) */");
        let mut assert_base_offsets: Vec<usize> = Vec::with_capacity(m.instances.len());
        {
            let mut acc = self.info.assert_own;
            for inst in &m.instances {
                assert_base_offsets.push(acc);
                acc += self.all_info[inst.module].assert_total;
            }
        }
        for &u in &self.info.checked.order {
            match u {
                Unit::Assign(i) => {
                    let (lv, rhs) = m.assigns[i].clone();
                    self.assign(&lv, &rhs)?;
                }
                Unit::Comb(i) => {
                    let body = m.processes[i].1.clone();
                    self.stmt(&body)?;
                }
                Unit::Instance(i) => {
                    let inst = m.instances[i].clone();
                    let child = self.design.modules[inst.module].clone();
                    let cinfo = self.all_info[inst.module].clone();
                    let mut args = vec![format!("&s->{}", self.info.c(&inst.name))];
                    // Arguments in the child's port order; `check` has
                    // seen to it that every input is connected, and
                    // every output to a plain signal or to nothing. A
                    // signal narrower than its output port keeps the
                    // port's low bits, as an assignment would.
                    let mut narrow = Vec::new();
                    for (pi, sig) in child.signals.iter().enumerate() {
                        let conn = inst.conns.iter().find(|(p, _)| *p == pi).map(|(_, c)| c);
                        match (cinfo.checked.roles[pi], sig.port, conn) {
                            (Role::Clock, ..) => {}
                            (_, Some(Dir::Input), Some(c)) => args.push(self.expr(c, sig.width)?),
                            (_, Some(Dir::Output), Some(Expr::Ident(nm))) => {
                                let n = self.info.c(nm);
                                args.push(format!("&{n}"));
                                let width = self.sig(nm)?.width;
                                if width < sig.width {
                                    narrow.push(format!("{n} = ({n} & {});", cmask(width)));
                                }
                            }
                            (_, Some(Dir::Output), _) => {
                                let t = self.fresh();
                                self.line(&format!("uint64_t {t};"));
                                args.push(format!("&{t}"));
                            }
                            _ => {}
                        }
                    }
                    if self.style == MainStyle::Cosim && cinfo.assert_total > 0 {
                        args.push(format!("__bad_base + {}", assert_base_offsets[i]));
                    }
                    self.line(&format!("{}_step({});", cinfo.cname, args.join(", ")));
                    for line in narrow {
                        self.line(&line);
                    }
                }
            }
        }

        // Assertions (over pre-commit state).
        if !m.asserts.is_empty() {
            self.line("/* safety properties */");
        }
        for (ai, (label, cond)) in m.asserts.clone().iter().enumerate() {
            let cv = self.bool_expr(cond)?;
            match self.style {
                MainStyle::Verifier => {
                    self.line(&format!("assert({cv}); /* {label} */"));
                }
                MainStyle::Cosim => {
                    self.line(&format!(
                        "if (!{cv}) __bad[__bad_base + {ai}] = 1; /* {label} */"
                    ));
                }
            }
        }
        for cond in m.assumes.clone().iter() {
            let cv = self.bool_expr(cond)?;
            match self.style {
                MainStyle::Verifier => self.line(&format!("__VERIFIER_assume({cv});")),
                MainStyle::Cosim => self.line(&format!("(void)({cv});")),
            }
        }

        // Sequential processes: compute next values, commit at the end.
        let clocked: Vec<Stmt> = m
            .processes
            .iter()
            .filter(|(c, _)| c.is_some())
            .map(|(_, b)| b.clone())
            .collect();
        if !clocked.is_empty() {
            self.line("/* sequential update (two-phase) */");
        }
        for body in &clocked {
            // Each register once, in order of first assignment, split
            // into blocking and non-blocking targets (`check_drivers`
            // has seen to it that no register is both).
            let mut targets: Vec<String> = Vec::new();
            let mut blocking: HashSet<String> = HashSet::new();
            let mut nonblocking: HashSet<String> = HashSet::new();
            body.for_each_assign(&mut |is_blocking, lv, _| {
                for t in lv.targets() {
                    if !blocking.contains(&t) && !nonblocking.contains(&t) {
                        targets.push(t.clone());
                    }
                    if is_blocking {
                        blocking.insert(t);
                    } else {
                        nonblocking.insert(t);
                    }
                }
            });
            for t in &targets {
                let sig = self.sig(t)?.clone();
                let n = self.info.c(t);
                if let Some((_, aw)) = sig.memory {
                    let total = 1u64 << aw;
                    self.line(&format!("uint64_t __next_{n}[{total}];"));
                    self.line(&format!(
                        "{{ int __i; for (__i = 0; __i < {total}; __i++) \
                         __next_{n}[__i] = s->{n}[__i]; }}"
                    ));
                    let loc = if blocking.contains(t) {
                        Loc::CurMem
                    } else {
                        Loc::StructMem
                    };
                    self.loc.insert(t.clone(), loc);
                    let _ = writeln!(
                        self.tail,
                        "  {{ int __i; for (__i = 0; __i < {total}; __i++) \
                         s->{n}[__i] = __next_{n}[__i]; }}"
                    );
                } else if blocking.contains(t) {
                    self.line(&format!("uint64_t __cur_{n} = s->{n};"));
                    self.loc.insert(t.clone(), Loc::CurTemp);
                    let _ = writeln!(self.tail, "  s->{n} = __cur_{n};");
                } else {
                    self.line(&format!("uint64_t __next_{n} = s->{n};"));
                    self.loc.insert(t.clone(), Loc::NextTemp);
                    let _ = writeln!(self.tail, "  s->{n} = __next_{n};");
                }
            }
            self.stmt(body)?;
            // Later processes and the outputs read the values from
            // before the clock edge, as in synthesis.
            for t in targets {
                let loc = match self.sig(&t)?.memory {
                    Some(_) => Loc::StructMem,
                    None => Loc::StructReg,
                };
                self.loc.insert(t, loc);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(src: &str, top: &str, style: MainStyle) -> String {
        let mods = vfront::parse(src).expect("parses");
        let design = vfront::elaborate(&mods, top).expect("elaborates");
        emit_c(&design, style).expect("emits")
    }

    const COUNTER: &str = r#"
    module counter(input clk, input rst, output wrap);
      reg [3:0] c;
      initial c = 0;
      always @(posedge clk) begin
        if (rst) c <= 0;
        else c <= c + 1;
      end
      assign wrap = (c == 4'hF);
      assert property (c <= 4'hF);
    endmodule
    "#;

    #[test]
    fn verifier_harness_structure() {
        let c = emit(COUNTER, "counter", MainStyle::Verifier);
        assert!(c.contains("typedef struct counter_state"));
        assert!(c.contains("uint64_t c; /* 4 bits */"));
        assert!(c.contains("static void counter_init(counter_state *s)"));
        assert!(c.contains(
            "static void counter_step(counter_state *s, uint64_t rst, uint64_t *o_wrap)"
        ));
        assert!(c.contains("__VERIFIER_nondet_ulonglong()"));
        assert!(c.contains("assert("));
        assert!(c.contains("while (1)"));
        assert!(!c.contains("clk"), "clock must be compiled away:\n{c}");
    }

    #[test]
    fn cosim_harness_structure() {
        let c = emit(COUNTER, "counter", MainStyle::Cosim);
        assert!(c.contains("scanf"));
        assert!(c.contains("counter_dump"));
        assert!(c.contains("__bad"));
        assert!(!c.contains("__VERIFIER_nondet"));
    }

    #[test]
    fn hierarchy_emits_nested_structs_and_calls() {
        let src = r#"
        module adder(input clk, input [3:0] a, output [3:0] y);
          reg [3:0] acc;
          initial acc = 0;
          always @(posedge clk) acc <= acc + a;
          assign y = acc;
          assert property (acc != 4'hF);
        endmodule
        module top(input clk, input [3:0] x);
          wire [3:0] s1;
          adder u1 (.clk(clk), .a(x), .y(s1));
          adder u2 (.clk(clk), .a(s1), .y());
        endmodule
        "#;
        let c = emit(src, "top", MainStyle::Verifier);
        assert!(c.contains("struct adder_state u1;"));
        assert!(c.contains("struct adder_state u2;"));
        assert!(c.contains("adder_step(&s->u1"));
        assert!(c.contains("adder_step(&s->u2"));
        // u2 reads s1 which u1 computes: u1 must be called first.
        let p1 = c.find("adder_step(&s->u1").expect("u1 call");
        let p2 = c.find("adder_step(&s->u2").expect("u2 call");
        assert!(p1 < p2, "inter-module dependency order");
    }

    #[test]
    fn memory_becomes_array_with_copy_commit() {
        let src = r#"
        module m(input clk, input we, input [2:0] addr, input [7:0] d, output [7:0] q);
          reg [7:0] mem [0:7];
          assign q = mem[addr];
          always @(posedge clk) if (we) mem[addr] <= d;
        endmodule
        "#;
        let c = emit(src, "m", MainStyle::Verifier);
        assert!(c.contains("uint64_t mem[8];"));
        assert!(c.contains("__next_mem"));
        assert!(c.contains("s->mem[__i] = __next_mem[__i];"));
    }

    /// Sources outside the supported subset: synthesis and the C
    /// emitter apply the same rule in `vfront`, so both reject each
    /// with the same error, in debug and release builds alike. Every
    /// source may instantiate `child`, whose clock port is `c`, and
    /// `hole`, which drives no output.
    #[test]
    fn compile_and_emit_reject_the_same_sources() {
        const CHILD: &str =
            "module child(input c, input d, output reg q); always @(posedge c) q <= d; endmodule\n\
             module hole(input d, output y); endmodule";
        let table = [
            (
                "input [39:0] a, input [39:0] b, output [63:0] y",
                "assign y = {a, b};",
                "concatenation is wider than 64 bits",
            ),
            (
                "input [39:0] a, output [63:0] y",
                "assign y = {2{a}};",
                "replication of 2 copies of 40 bits is wider than 64 bits",
            ),
            (
                "input a, output [63:0] y",
                "assign y = {100000{a}};",
                "replication of 100000 copies",
            ),
            (
                "input a, input b, output [63:0] y",
                "assign y = {4294967295{a, b}};",
                "replication of 4294967295 copies",
            ),
            (
                "input a, output [63:0] y",
                "assign y = {0{a}};",
                "zero replication",
            ),
            (
                "input a",
                "reg [3:0] r; initial r[1] = 1; always @(posedge clk) r <= r + 1;",
                "bit-level initialization is not supported",
            ),
            (
                "input a",
                "reg [7:0] m [0:15]; initial m = 5; always @(posedge clk) m[0] <= 1;",
                "whole-memory assignment to 'm' is not supported",
            ),
            (
                "input a",
                "reg [7:0] m [0:15]; initial m[16] = 5; always @(posedge clk) m[0] <= 1;",
                "initial row 16 is outside memory 'm'",
            ),
            (
                "input a",
                "reg [7:4] r; initial r = 0; always @(posedge clk) r[1:0] <= 0;",
                "part select [1:0] out of range for 'r'",
            ),
            (
                "input [7:0] a",
                "assert property (a[18446744073709551615:0] != 0);",
                "part select [18446744073709551615:0] out of range",
            ),
            (
                "input [7:0] a",
                "assert property (a[4294967299:0] != 0);",
                "part select [4294967299:0] out of range",
            ),
            (
                "input a",
                "reg [39:0] r1; reg [39:0] r2; always @(posedge clk) {r1, r2} <= 0;",
                "concatenated assignment target is wider than 64 bits",
            ),
            (
                "input [63:0] x, output [39:0] a, output [39:0] b",
                "assign {a, b} = x;",
                "concatenated assignment target is wider than 64 bits",
            ),
            (
                "input [3:0] a, output [7:0] y",
                "wire [7:0] w; assign w[3:0] = a; assign w[7:4] = a; assign y = w;",
                "continuous assignment to bit/part selects is not supported",
            ),
            (
                "input a, input b, output y",
                "wire w; assign w = a; assign w = b; assign y = w;",
                "signal 'w' has multiple drivers",
            ),
            (
                "input a, output y",
                "wire w; initial w = 1; assign y = w;",
                "initial assigns non-register 'w'",
            ),
            (
                "input a, output y",
                "reg r; always @(posedge clk) r <= a; always @(posedge clk) r <= !a; \
                 assign y = r;",
                "register 'r' driven by multiple clocked processes",
            ),
            (
                "input c",
                "reg [3:0] a; initial a = 0; \
                 always @(posedge clk) begin if (c) a = 4'd1; else a <= 4'd2; end \
                 assert property (a != 4'd1);",
                "register 'a' assigned both blocking and non-blocking",
            ),
            (
                "input a, output y",
                "wire w; always @(posedge clk) w <= a; assign y = w;",
                "clocked assignment to wire 'w' (declare it reg)",
            ),
            (
                "input a, input b",
                "reg q; always @(*) begin if (a) q = b; end",
                "signal 'q' is not assigned on all paths of a combinational process",
            ),
            (
                "input [1:0] a, input b",
                "reg q; always @(*) case (a) 2'd0: q = b; 2'd1: q = !b; endcase",
                "signal 'q' is not assigned on all paths of a combinational process",
            ),
            (
                "input a",
                "reg [1:0] q; always @* q[0] = a;",
                "signal 'q' is not assigned on all paths of a combinational process",
            ),
            (
                "input a",
                "reg q; always @(*) q <= a;",
                "non-blocking assignment in combinational process",
            ),
            (
                "input clk2, input a",
                "reg p; reg r; always @(posedge clk) p <= a; always @(posedge clk2) r <= a;",
                "multiple clocks are not supported ('clk' vs 'clk2')",
            ),
            (
                "input clk2, input a",
                "child u1(.c(clk), .d(a), .q()); child u2(.c(clk2), .d(a), .q());",
                "multiple clocks are not supported ('clk' vs 'clk2')",
            ),
            (
                "input a",
                "reg p; assign clk = a; always @(posedge clk) p <= a;",
                "top-level input 'clk' is driven",
            ),
            (
                "input a",
                "wire c2; reg p; assign c2 = clk; always @(posedge c2) p <= a;",
                "clock 'c2' in module 'top' must be a 1-bit input port",
            ),
            (
                "input [1:0] k, input a",
                "reg p; always @(posedge k) p <= a;",
                "clock 'k' in module 'top' must be a 1-bit input port",
            ),
            (
                "input a",
                "reg p; always @(posedge clk) p <= a & clk;",
                "clock 'clk' is read as data",
            ),
            (
                "input a",
                "child u(.c(clk), .d(clk), .q());",
                "clock 'clk' is read as data",
            ),
            ("input a", "assign zz = a;", "unknown signal 'zz'"),
            (
                "input a",
                "always @(posedge clk) zz <= a;",
                "unknown signal 'zz'",
            ),
            ("output y", "assign y = zz;", "unknown signal 'zz'"),
            (
                "input a, input b",
                "assign a = b;",
                "top-level input 'a' is driven",
            ),
            (
                "input a",
                "child u(.c(a & a), .d(a), .q());",
                "clock port 'c' of instance 'u' must connect to a plain signal",
            ),
            (
                "input a",
                "child u(.c(clk), .q());",
                "input port 'd' of instance 'u' is unconnected",
            ),
            (
                "input a",
                "child u(.c(clk), .d(a), .q(1'b0));",
                "output port 'q' of instance 'u' must connect to a plain signal",
            ),
            (
                "input [1:0] a, output [7:0] y",
                "wire [7:0] m [0:3]; assign y = m[a];",
                "memory 'm' must be a clocked register",
            ),
            (
                "input [7:0] a",
                "reg [7:0] m [0:3]; always @(posedge clk) m <= a;",
                "whole-memory assignment to 'm' is not supported",
            ),
            (
                "input a",
                "wire w; reg r; initial r = 0; always @(posedge clk) r <= w; \
                 assert property (!r);",
                "signal 'w' in module 'top' is read but nothing drives it",
            ),
            (
                "input a, output y",
                "hole h(.d(a), .y(y));",
                "signal 'y' in module 'hole' is read but nothing drives it",
            ),
            (
                "input a",
                "wire p; wire q; assign {p, q} = {q, p};",
                "combinational loop through signal 'p'",
            ),
        ];
        for (ports, body, message) in table {
            let src = format!("module top(input clk, {ports});\n  {body}\nendmodule\n{CHILD}\n");
            let compiled = vfront::compile(&src, "top").expect_err(body);
            assert!(compiled.message.contains(message), "{body}: {compiled}");
            let mods = vfront::parse(&src).expect("parses");
            let design = vfront::elaborate(&mods, "top").expect("elaborates");
            for style in [MainStyle::Verifier, MainStyle::Cosim] {
                let emitted = emit_c(&design, style).expect_err(body);
                assert_eq!(emitted, compiled, "{body}");
            }
        }
    }

    #[test]
    fn blocking_gets_cur_shadow() {
        let src = r#"
        module m(input clk, input [3:0] x);
          reg [3:0] a; reg [3:0] b;
          initial begin a = 0; b = 0; end
          always @(posedge clk) begin
            a = x;
            b <= a;
          end
        endmodule
        "#;
        let c = emit(src, "m", MainStyle::Verifier);
        assert!(c.contains("__cur_a"), "blocking register gets shadow:\n{c}");
        assert!(c.contains("__next_b"));
        assert!(c.contains("__next_b = __cur_a;"));
    }
}
