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
use vfront::ast::{BinaryOp, Dir, Expr, LValue, NetKind, Stmt, UnaryOp};
use vfront::elab::{
    bit_index_width, check_drivers, const_eval, initial_values, part_bounds, self_width,
    target_widths, Design, ESignal, ElabModule,
};
use vfront::synth::{expr_reads, schedule, stmt_reads};
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
/// Every driver, width, part-select bound, concatenated-target and
/// `initial` rule comes from `vfront` ([`vfront::elab::check_drivers`],
/// [`vfront::elab::self_width`], [`vfront::elab::part_bounds`],
/// [`vfront::elab::target_widths`], [`vfront::elab::initial_values`]),
/// as do the `case` lowering ([`vfront::ast::Stmt::case_to_if`]) and
/// the combinational schedule ([`vfront::synth::schedule`]), so the C
/// means what the synthesized transition system means.
///
/// # Errors
///
/// Reports the same restrictions as synthesis (drivers, latches, loops,
/// multiple clocks, widths and bounds, with the same messages) plus
/// emitter-specific limits (instance outputs must connect to whole
/// signals).
pub fn emit_c(design: &Design, style: MainStyle) -> Result<String, VerilogError> {
    check_drivers(design)?;
    let mut e = Emitter::new(design, style)?;
    e.emit()?;
    Ok(e.out)
}

fn mask(w: u32) -> u64 {
    rtlir::value::mask(w)
}

fn cmask(w: u32) -> String {
    format!("{:#x}ULL", mask(w))
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Per-module facts computed bottom-up.
#[derive(Clone, Debug, Default)]
struct ModInfo {
    cname: String,
    /// Ports that carry the clock (skipped as function arguments).
    clock_ports: HashSet<String>,
    /// Total number of assertions in this module's subtree.
    assert_total: usize,
    /// Number of the module's own assertions.
    assert_own: usize,
}

struct Emitter<'d> {
    design: &'d Design,
    style: MainStyle,
    info: Vec<ModInfo>,
    out: String,
}

impl<'d> Emitter<'d> {
    fn new(design: &'d Design, style: MainStyle) -> Result<Emitter<'d>, VerilogError> {
        // Compute per-module info bottom-up (children precede parents
        // in `design.modules`).
        let mut info: Vec<ModInfo> = vec![ModInfo::default(); design.modules.len()];
        let mut used_names: HashSet<String> = HashSet::new();
        for (idx, m) in design.modules.iter().enumerate() {
            let mut cname = sanitize(&m.name);
            while used_names.contains(&cname) {
                cname.push('_');
            }
            used_names.insert(cname.clone());

            let mut clock_ports: HashSet<String> = HashSet::new();
            for (clk, _) in m
                .processes
                .iter()
                .filter_map(|(c, s)| c.as_ref().map(|c| (c.clone(), s)))
            {
                clock_ports.insert(clk);
            }
            // Ports feeding child clock ports are clocks too.
            for inst in &m.instances {
                let child = &design.modules[inst.module];
                for (pi, conn) in &inst.conns {
                    let pname = &child.signals[*pi].name;
                    if info[inst.module].clock_ports.contains(pname) {
                        match conn {
                            Expr::Ident(n) => {
                                clock_ports.insert(n.clone());
                            }
                            _ => {
                                return Err(VerilogError::general(format!(
                                    "clock port '{pname}' of instance '{}' must be \
                                     connected to a plain signal",
                                    inst.name
                                )))
                            }
                        }
                    }
                }
            }
            // Only ports can be clocks at module boundaries.
            for c in &clock_ports {
                match m.signal(c) {
                    Some(s) if s.port == Some(Dir::Input) && s.width == 1 => {}
                    _ => {
                        return Err(VerilogError::general(format!(
                            "clock '{c}' in module '{}' must be a 1-bit input port",
                            m.name
                        )))
                    }
                }
            }
            let own = m.asserts.len();
            let mut total = own;
            for inst in &m.instances {
                total += info[inst.module].assert_total;
            }
            info[idx] = ModInfo {
                cname,
                clock_ports,
                assert_total: total,
                assert_own: own,
            };
        }
        Ok(Emitter {
            design,
            style,
            info,
            out: String::new(),
        })
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

    /// Registers of a module, in declaration order: the regs a clocked
    /// process assigns, and the frozen ones nothing assigns.
    fn regs(m: &ElabModule) -> Vec<&ESignal> {
        let mut clocked: HashSet<String> = HashSet::new();
        let mut comb: HashSet<String> = m.assigns.iter().flat_map(|(lv, _)| lv.targets()).collect();
        for (c, body) in &m.processes {
            if c.is_some() {
                clocked.extend(body.targets());
            } else {
                comb.extend(body.targets());
            }
        }
        m.signals
            .iter()
            .filter(|s| {
                s.kind == NetKind::Reg
                    && !comb.contains(&s.name)
                    && (clocked.contains(&s.name) || s.port.is_none())
                    && s.port != Some(Dir::Input)
            })
            .collect()
    }

    fn emit_struct(&mut self, idx: usize) -> Result<(), VerilogError> {
        let m = &self.design.modules[idx];
        let cname = self.info[idx].cname.clone();
        let _ = writeln!(self.out, "typedef struct {cname}_state {{");
        for sig in Self::regs(m) {
            match sig.memory {
                Some((_, aw)) => {
                    let _ = writeln!(
                        self.out,
                        "  uint64_t {}[{}]; /* {} x {} bits */",
                        sanitize(&sig.name),
                        1u64 << aw,
                        1u64 << aw,
                        sig.width
                    );
                }
                None => {
                    let _ = writeln!(
                        self.out,
                        "  uint64_t {}; /* {} bits */",
                        sanitize(&sig.name),
                        sig.width
                    );
                }
            }
        }
        for inst in &m.instances {
            let child = self.info[inst.module].cname.clone();
            let _ = writeln!(self.out, "  struct {child}_state {};", sanitize(&inst.name));
        }
        let _ = writeln!(self.out, "}} {cname}_state;");
        Ok(())
    }

    fn emit_init(&mut self, idx: usize) -> Result<(), VerilogError> {
        let m = &self.design.modules[idx];
        let cname = self.info[idx].cname.clone();
        let _ = writeln!(self.out, "static void {cname}_init({cname}_state *s) {{");

        // Initial blocks win over declaration initializers.
        let mut init = initial_values(&m.initials, &|n| m.signal(n))?;
        for sig in &m.signals {
            if let Some(v) = sig.init {
                init.scalars.entry(sig.name.clone()).or_insert(v);
            }
        }
        for sig in Self::regs(m) {
            let n = sanitize(&sig.name);
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
            let _ = writeln!(self.out, "  {child}_init(&s->{});", sanitize(&inst.name));
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
        for sig in Self::regs(m) {
            let n = sanitize(&sig.name);
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
            let _ = writeln!(self.out, "  {child}_dump(&s->{});", sanitize(&inst.name));
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
        for sig in m.signals.iter().filter(|s| s.port.is_some()) {
            if inf.clock_ports.contains(&sig.name) {
                continue;
            }
            match sig.port {
                Some(Dir::Input) => {
                    args.push(format!("uint64_t {}", sanitize(&sig.name)));
                    in_ports.push(sig.name.clone());
                }
                Some(Dir::Output) => {
                    args.push(format!("uint64_t *o_{}", sanitize(&sig.name)));
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
            let _ = writeln!(self.out, "  *o_{} = {v};", sanitize(p));
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
        let ins: Vec<&ESignal> = top
            .signals
            .iter()
            .filter(|x| x.port == Some(Dir::Input) && !inf.clock_ports.contains(&x.name))
            .collect();
        let outs: Vec<&ESignal> = top
            .signals
            .iter()
            .filter(|x| x.port == Some(Dir::Output))
            .collect();
        for o in &outs {
            let _ = writeln!(self.out, "  uint64_t o_{};", sanitize(&o.name));
        }
        match self.style {
            MainStyle::Verifier => {
                let _ = writeln!(self.out, "  while (1) {{");
                for i in &ins {
                    let _ = writeln!(
                        self.out,
                        "    uint64_t {} = __VERIFIER_nondet_ulonglong() & {};",
                        sanitize(&i.name),
                        cmask(i.width)
                    );
                }
                let mut call_args = vec!["&s".to_string()];
                call_args.extend(ins.iter().map(|i| sanitize(&i.name)));
                call_args.extend(outs.iter().map(|o| format!("&o_{}", sanitize(&o.name))));
                let _ = writeln!(self.out, "    {cname}_step({});", call_args.join(", "));
                let _ = writeln!(self.out, "  }}");
            }
            MainStyle::Cosim => {
                for i in &ins {
                    let _ = writeln!(self.out, "  unsigned long long __in_{};", sanitize(&i.name));
                }
                let fmt = vec!["%llx"; ins.len()].join(" ");
                let scan_args: Vec<String> = ins
                    .iter()
                    .map(|i| format!("&__in_{}", sanitize(&i.name)))
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
                        .map(|i| format!("(__in_{} & {})", sanitize(&i.name), cmask(i.width))),
                );
                call_args.extend(outs.iter().map(|o| format!("&o_{}", sanitize(&o.name))));
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
}

struct FnBody<'a> {
    m: &'a ElabModule,
    info: &'a ModInfo,
    style: MainStyle,
    design: &'a Design,
    all_info: &'a [ModInfo],
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
        info: &'a ModInfo,
        style: MainStyle,
        design: &'a Design,
        all_info: &'a [ModInfo],
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
        self.m
            .signal(name)
            .ok_or_else(|| Self::err(format!("unknown signal '{name}'")))
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
        let n = sanitize(name);
        match self.loc.get(name) {
            Some(Loc::StructReg) => Ok(format!("s->{n}")),
            Some(Loc::InputParam) => Ok(n),
            Some(Loc::CombLocal) => Ok(n),
            Some(Loc::CurTemp) => Ok(format!("__cur_{n}")),
            Some(Loc::NextTemp) => Ok(format!("s->{n}")), // reads see old value
            Some(Loc::StructMem) => {
                Err(Self::err(format!("memory '{name}' used without an index")))
            }
            None => Err(Self::err(format!(
                "'{name}' read before it is computed (combinational ordering)"
            ))),
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
                    let iv = self.expr(idx, aw)?;
                    let base = match self.loc.get(n) {
                        Some(Loc::StructMem) => format!("s->{}", sanitize(n)),
                        Some(Loc::NextTemp) => format!("s->{}", sanitize(n)),
                        _ => return Err(Self::err(format!("'{n}' is not an accessible memory"))),
                    };
                    let v = format!("{base}[{iv}]");
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
        let n = sanitize(name);
        match self.loc.get(name) {
            Some(Loc::CombLocal) => Ok(n),
            Some(Loc::NextTemp) => Ok(format!("__next_{n}")),
            Some(Loc::CurTemp) => Ok(format!("__cur_{n}")),
            Some(Loc::StructMem) => Ok(format!("__next_{n}")),
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

        // Locate every signal.
        let regs: HashSet<String> = Emitter::regs(m).iter().map(|s| s.name.clone()).collect();
        for sig in &m.signals {
            if self.info.clock_ports.contains(&sig.name) {
                continue;
            }
            let loc = if regs.contains(&sig.name) {
                if sig.memory.is_some() {
                    Loc::StructMem
                } else {
                    Loc::StructReg
                }
            } else if sig.port == Some(Dir::Input) {
                Loc::InputParam
            } else {
                Loc::CombLocal
            };
            self.loc.insert(sig.name.clone(), loc);
        }

        // Declare combinational locals.
        for sig in &m.signals {
            if self.loc.get(&sig.name) == Some(&Loc::CombLocal) {
                if sig.memory.is_some() {
                    return Err(Self::err(format!(
                        "memory '{}' must be a clocked register",
                        sig.name
                    )));
                }
                self.line(&format!("uint64_t {} = 0ULL;", sanitize(&sig.name)));
            }
        }

        // Build the unit list: assigns, comb processes, instances.
        #[derive(Clone)]
        enum U {
            Assign(usize),
            Comb(usize),
            Inst(usize),
        }
        let mut units: Vec<U> = Vec::new();
        let mut defs: Vec<Vec<String>> = Vec::new();
        let mut reads: Vec<HashSet<String>> = Vec::new();
        for (i, (lv, rhs)) in m.assigns.iter().enumerate() {
            let d = lv.targets();
            // Clock wiring assigns are dropped.
            if d.iter().all(|x| self.info.clock_ports.contains(x)) {
                continue;
            }
            let mut r = HashSet::new();
            expr_reads(rhs, &HashSet::new(), &mut r);
            units.push(U::Assign(i));
            defs.push(d);
            reads.push(r);
        }
        for (i, (clk, body)) in m.processes.iter().enumerate() {
            if clk.is_none() {
                let mut r = HashSet::new();
                stmt_reads(body, &mut HashSet::new(), &mut r);
                units.push(U::Comb(i));
                defs.push(body.targets());
                reads.push(r);
            }
        }
        for (i, inst) in m.instances.iter().enumerate() {
            let child = &self.design.modules[inst.module];
            let cinfo = &self.all_info[inst.module];
            let mut d = Vec::new();
            let mut r = HashSet::new();
            for (pi, conn) in &inst.conns {
                let p = &child.signals[*pi];
                if cinfo.clock_ports.contains(&p.name) {
                    continue;
                }
                match p.port {
                    Some(Dir::Input) => expr_reads(conn, &HashSet::new(), &mut r),
                    Some(Dir::Output) => match conn {
                        Expr::Ident(n) => d.push(n.clone()),
                        _ => {
                            return Err(Self::err(format!(
                                "output port '{}' of instance '{}' must connect to a \
                                 whole signal",
                                p.name, inst.name
                            )))
                        }
                    },
                    None => {}
                }
            }
            units.push(U::Inst(i));
            defs.push(d);
            reads.push(r);
        }

        // The synthesizer's schedule, instance-granular here: the
        // inter-module dependency analysis.
        let order = schedule(&defs, &reads)?;

        // Emit combinational section.
        self.line("/* combinational logic (dependency order) */");
        let mut assert_base_offsets: Vec<usize> = Vec::with_capacity(m.instances.len());
        {
            let mut acc = self.info.assert_own;
            for inst in &m.instances {
                assert_base_offsets.push(acc);
                acc += self.all_info[inst.module].assert_total;
            }
        }
        for u in &order {
            match units[*u] {
                U::Assign(i) => {
                    let (lv, rhs) = m.assigns[i].clone();
                    self.assign(&lv, &rhs)?;
                }
                U::Comb(i) => {
                    let body = m.processes[i].1.clone();
                    self.stmt(&body)?;
                }
                U::Inst(i) => {
                    let inst = m.instances[i].clone();
                    let child = self.design.modules[inst.module].clone();
                    let cinfo = self.all_info[inst.module].clone();
                    let mut args = vec![format!("&s->{}", sanitize(&inst.name))];
                    // Arguments in the child's port order.
                    for sig in child.signals.iter().filter(|s| s.port.is_some()) {
                        if cinfo.clock_ports.contains(&sig.name) {
                            continue;
                        }
                        let conn = inst
                            .conns
                            .iter()
                            .find(|(pi, _)| child.signals[*pi].name == sig.name)
                            .map(|(_, c)| c.clone());
                        match sig.port {
                            Some(Dir::Input) => match conn {
                                Some(c) => args.push(self.expr(&c, sig.width)?),
                                None => {
                                    return Err(Self::err(format!(
                                        "input port '{}' of instance '{}' is unconnected",
                                        sig.name, inst.name
                                    )))
                                }
                            },
                            Some(Dir::Output) => match conn {
                                Some(Expr::Ident(nm)) => args.push(format!("&{}", sanitize(&nm))),
                                Some(_) => unreachable!("checked above"),
                                None => {
                                    let t = self.fresh();
                                    self.line(&format!("uint64_t {t};"));
                                    args.push(format!("&{t}"));
                                }
                            },
                            None => {}
                        }
                    }
                    if self.style == MainStyle::Cosim && cinfo.assert_total > 0 {
                        args.push(format!("__bad_base + {}", assert_base_offsets[i]));
                    }
                    self.line(&format!("{}_step({});", cinfo.cname, args.join(", ")));
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
                let n = sanitize(t);
                if let Some((_, aw)) = sig.memory {
                    let total = 1u64 << aw;
                    self.line(&format!("uint64_t __next_{n}[{total}];"));
                    self.line(&format!(
                        "{{ int __i; for (__i = 0; __i < {total}; __i++) \
                         __next_{n}[__i] = s->{n}[__i]; }}"
                    ));
                    self.loc.insert(t.clone(), Loc::StructMem);
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
    /// with the same error, in debug and release builds alike.
    #[test]
    fn compile_and_emit_reject_the_same_sources() {
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
        ];
        for (ports, body, message) in table {
            let src = format!("module top(input clk, {ports});\n  {body}\nendmodule\n");
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
