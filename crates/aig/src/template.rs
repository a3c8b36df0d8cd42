//! Compile-once CNF transition template.
//!
//! Every engine in this workspace (BMC, k-induction, interpolation,
//! PDR, and the portfolio racing them) materializes the *same*
//! transition relation in a SAT solver, over and over: once per time
//! frame, once per PDR frame solver, once per interpolation partition.
//! Running Tseitin over the AIG cone each time costs a cone traversal,
//! a hash lookup per node and a fresh encoder allocation per frame.
//!
//! [`TransitionTemplate`] does the Tseitin work exactly once. Compiling
//! an [`AigSystem`] produces a flat clause image over *template-local*
//! variables together with the literal maps an engine needs:
//! latch-current, latch-next, input, constraint, per-bad and any-bad
//! literals. A time frame is then materialized by
//! [`instantiate`](TransitionTemplate::instantiate): the template's
//! variables are mapped onto a contiguous block of fresh solver
//! variables by **offset arithmetic** (no per-node hashing, no cone
//! walk) and the clause image is bulk-loaded behind a single
//! [`satb::Solver::reserve_clauses`] call.
//!
//! # Variable layout and frame chaining
//!
//! Template-local variables are ordered: latch current-state variables
//! `0..L` first, then input variables `L..L+I`, then internal Tseitin
//! variables (AND-node outputs, the constant-true variable, the any-bad
//! disjunction variable). Instantiation maps them in one of two modes:
//!
//! * [`instantiate`](TransitionTemplate::instantiate) allocates fresh
//!   solver variables for the whole block — template variable `v`
//!   becomes solver variable `base + v`. Used for frame 0 and for
//!   self-contained frame solvers (PDR).
//! * [`instantiate_bound`](TransitionTemplate::instantiate_bound) maps
//!   the `L` latch-current variables onto caller-supplied solver
//!   literals and offsets only the free variables. Chaining frame
//!   `k+1` onto frame `k` is therefore pure substitution — bind frame
//!   `k+1`'s latch-current variables to frame `k`'s
//!   [`FrameVars::latch_next`] literals — with no equality clauses and
//!   no duplicated cone encoding.
//!
//! # `Part` and tag preservation
//!
//! Every instantiation takes an interpolation partition
//! ([`satb::Part`]) and a caller tag, forwarded to
//! [`satb::Solver::add_clause_tagged`] for each emitted clause. The
//! interpolation engine instantiates frame 0 in `Part::A` and frames
//! `1..k` in `Part::B`, and sequence-interpolant users can tag each
//! frame with its index — exactly the labelling the per-frame
//! `FrameEncoder` path used to provide.
//!
//! Environment constraints are asserted (as unit clauses, in the same
//! part/tag) by every instantiation: all consumers assert them on every
//! materialized frame.
//!
//! # Example
//!
//! ```
//! use aig::{blast_system, TransitionTemplate};
//! use rtlir::{Sort, TransitionSystem};
//! use satb::{Part, SolveResult, Solver};
//!
//! // A 4-bit counter with a bad state at 3.
//! let mut ts = TransitionSystem::new("c");
//! let s = ts.add_state("count", Sort::Bv(4));
//! let sv = ts.pool_mut().var(s);
//! let one = ts.pool_mut().constv(4, 1);
//! let next = ts.pool_mut().add(sv, one);
//! let zero = ts.pool_mut().constv(4, 0);
//! ts.set_init(s, zero);
//! ts.set_next(s, next);
//! let three = ts.pool_mut().constv(4, 3);
//! let bad = ts.pool_mut().eq(sv, three);
//! ts.add_bad(bad, "count is 3");
//!
//! let sys = blast_system(&ts);
//! let tpl = TransitionTemplate::compile(&sys);
//!
//! // Unroll three frames: instantiate frame 0, then chain.
//! let mut solver = Solver::new();
//! let f0 = tpl.instantiate(&mut solver, Part::A, 0);
//! f0.assert_init(&sys, &mut solver);
//! let f1 = tpl.instantiate_bound(&mut solver, Part::A, 0, &f0.latch_next);
//! let f2 = tpl.instantiate_bound(&mut solver, Part::A, 0, &f1.latch_next);
//! // The counter reaches 3 at cycle 3, not earlier.
//! assert_eq!(solver.solve_with(&[f2.any_bad]), SolveResult::Unsat);
//! let f3 = tpl.instantiate_bound(&mut solver, Part::A, 0, &f2.latch_next);
//! assert_eq!(solver.solve_with(&[f3.any_bad]), SolveResult::Sat);
//! ```

use crate::graph::AigLit;
use crate::seq::AigSystem;
use satb::preproc::{PreprocStats, Preprocessor, ReconStack};
use satb::{Lit, Part, Solver, Var};

/// The solver literals of one materialized time frame.
///
/// All literals live in the target solver's variable space; see the
/// [module docs](self) for how they relate to the template.
#[derive(Clone, Debug)]
pub struct FrameVars {
    /// Current-state literal per latch (the bound literals when the
    /// frame was chained with
    /// [`instantiate_bound`](TransitionTemplate::instantiate_bound)).
    pub latch_cur: Vec<Lit>,
    /// Next-state function output per latch; bind the next frame's
    /// `latch_cur` to these to chain frames.
    pub latch_next: Vec<Lit>,
    /// Primary-input literal per input bit (for trace extraction).
    pub inputs: Vec<Lit>,
    /// Constraint literals (already asserted true by instantiation).
    pub constraints: Vec<Lit>,
    /// One literal per bad output.
    pub bads: Vec<Lit>,
    /// Literal equivalent to "some bad output fires in this frame".
    pub any_bad: Lit,
}

impl FrameVars {
    /// Asserts the reset values of `sys`'s initialized latches on this
    /// frame's current-state literals (unit clauses; uninitialized
    /// latches stay unconstrained). Call on frame 0 of an initialized
    /// chain or on a PDR frame-0 solver.
    pub fn assert_init(&self, sys: &AigSystem, solver: &mut Solver) {
        for (latch, &l) in sys.latches.iter().zip(&self.latch_cur) {
            if let Some(init) = latch.init {
                solver.add_clause(&[if init { l } else { !l }]);
            }
        }
    }
}

/// A transition relation compiled to a frame-instantiable clause image.
///
/// Build one with [`compile`](TransitionTemplate::compile) (typically
/// right after [`blast_system`](crate::blast_system)) and share it —
/// it is immutable, and the portfolio shares one behind an `Arc`
/// across all member engines.
#[derive(Clone, Debug)]
pub struct TransitionTemplate {
    num_latches: usize,
    num_vars: usize,
    /// Flat clause image over template-local literals; clause `i` is
    /// `lits[ends[i-1]..ends[i]]` (with `ends[-1] == 0`). The image is
    /// pre-normalized (distinct variables per clause, no tautologies),
    /// so instantiation loads it through the solver's fast
    /// [`satb::Solver::add_clause_prenormalized`] path.
    lits: Vec<Lit>,
    ends: Vec<u32>,
    /// Clauses (same representation) referencing two or more
    /// latch-current variables. A *bound* instantiation can alias
    /// those onto equal or complementary solver literals, so they go
    /// through the normalizing add path; fresh instantiations (and
    /// single-latch clauses, which cannot self-alias) stay fast.
    latchy_lits: Vec<Lit>,
    latchy_ends: Vec<u32>,
    latch_next: Vec<Lit>,
    input_lits: Vec<Lit>,
    constraints: Vec<Lit>,
    bad_lits: Vec<Lit>,
    any_bad: Lit,
    /// Per latch: whether it lies in the compiled system's sequential
    /// cone of influence ([`AigSystem::latch_coi`]).
    latch_coi: Vec<bool>,
}

/// Template-local Tseitin emitter used by
/// [`TransitionTemplate::compile`].
struct Builder {
    /// AIG node -> template literal.
    map: Vec<Option<Lit>>,
    num_latches: usize,
    next_var: u32,
    lits: Vec<Lit>,
    ends: Vec<u32>,
    latchy_lits: Vec<Lit>,
    latchy_ends: Vec<u32>,
    const_true: Option<Lit>,
}

impl Builder {
    fn fresh(&mut self) -> Lit {
        let l = Lit::pos(Var::from_index(self.next_var as usize));
        self.next_var += 1;
        l
    }

    fn clause(&mut self, lits: &[Lit]) {
        let latch_vars = lits
            .iter()
            .filter(|l| l.var().index() < self.num_latches)
            .count();
        if latch_vars >= 2 {
            self.latchy_lits.extend_from_slice(lits);
            self.latchy_ends.push(self.latchy_lits.len() as u32);
        } else {
            self.lits.extend_from_slice(lits);
            self.ends.push(self.lits.len() as u32);
        }
    }

    fn true_lit(&mut self) -> Lit {
        match self.const_true {
            Some(l) => l,
            None => {
                let l = self.fresh();
                self.clause(&[l]);
                self.const_true = Some(l);
                l
            }
        }
    }

    fn leaf(&mut self, l: AigLit) -> Lit {
        if l.is_const() {
            let t = self.true_lit();
            return if l == AigLit::TRUE { t } else { !t };
        }
        let base = match self.map[l.node() as usize] {
            Some(b) => b,
            None => {
                // A CI that is neither a registered input nor a latch
                // output: a free input, such as the next state
                // `refine_with_constants` gives a latch outside the
                // cone of influence. It gets a free (internal-range)
                // template variable, so every instantiation mints a
                // fresh unconstrained solver variable for it — the
                // same semantics the per-frame `FrameEncoder` had.
                let b = self.fresh();
                self.map[l.node() as usize] = Some(b);
                b
            }
        };
        if l.is_compl() {
            !base
        } else {
            base
        }
    }
}

impl TransitionTemplate {
    /// Compiles the full transition relation of `sys` — next-state,
    /// constraint and bad cones, plus the any-bad disjunction — into a
    /// template. Runs Tseitin exactly once, over the union cone.
    pub fn compile(sys: &AigSystem) -> TransitionTemplate {
        let num_latches = sys.latches.len();
        let num_inputs = sys.inputs.len();
        let mut map: Vec<Option<Lit>> = vec![None; sys.aig.num_nodes()];
        for (i, latch) in sys.latches.iter().enumerate() {
            debug_assert!(!latch.output.is_compl(), "latch outputs are plain CIs");
            map[latch.output.node() as usize] = Some(Lit::pos(Var::from_index(i)));
        }
        let mut input_lits = Vec::with_capacity(num_inputs);
        for (i, &inp) in sys.inputs.iter().enumerate() {
            debug_assert!(!inp.is_compl(), "inputs are plain CIs");
            let l = Lit::pos(Var::from_index(num_latches + i));
            map[inp.node() as usize] = Some(l);
            input_lits.push(l);
        }
        let mut b = Builder {
            map,
            num_latches,
            next_var: (num_latches + num_inputs) as u32,
            lits: Vec::new(),
            ends: Vec::new(),
            latchy_lits: Vec::new(),
            latchy_ends: Vec::new(),
            const_true: None,
        };

        // One topological walk over the union cone of every root.
        let mut roots: Vec<AigLit> = Vec::with_capacity(num_latches + sys.bads.len() + 1);
        roots.extend(sys.latches.iter().map(|l| l.next));
        roots.extend(sys.constraints.iter().copied());
        roots.extend(sys.bads.iter().copied());
        for n in sys.aig.cone(&roots) {
            let (fa, fb) = sys
                .aig
                .and_fanins_of_node(n)
                .expect("cone() yields AND nodes only");
            let la = b.leaf(fa);
            let lb = b.leaf(fb);
            let ln = b.fresh();
            // n <-> fa & fb
            b.clause(&[!ln, la]);
            b.clause(&[!ln, lb]);
            b.clause(&[!la, !lb, ln]);
            b.map[n as usize] = Some(ln);
        }

        let latch_next: Vec<Lit> = sys.latches.iter().map(|l| b.leaf(l.next)).collect();
        let constraints: Vec<Lit> = sys.constraints.iter().map(|&c| b.leaf(c)).collect();
        let bad_lits: Vec<Lit> = sys.bads.iter().map(|&l| b.leaf(l)).collect();
        let any_bad = match bad_lits.len() {
            0 => !b.true_lit(),
            1 => bad_lits[0],
            _ => {
                // v <-> b0 | b1 | ... | bn. The image must stay
                // normalized: dedupe repeated bad literals, and if two
                // bads are complementary the disjunction is constant
                // true, so force v instead of emitting a tautology.
                let v = b.fresh();
                let mut uniq = bad_lits.clone();
                uniq.sort_unstable();
                uniq.dedup();
                let taut = uniq.windows(2).any(|w| w[0].var() == w[1].var());
                if taut {
                    b.clause(&[v]);
                } else {
                    let mut cl = vec![!v];
                    cl.extend(&uniq);
                    b.clause(&cl);
                    for &bl in &uniq {
                        b.clause(&[!bl, v]);
                    }
                }
                v
            }
        };

        TransitionTemplate {
            num_latches,
            num_vars: b.next_var as usize,
            lits: b.lits,
            ends: b.ends,
            latchy_lits: b.latchy_lits,
            latchy_ends: b.latchy_ends,
            latch_next,
            input_lits,
            constraints,
            bad_lits,
            any_bad,
            latch_coi: sys.latch_coi(),
        }
    }

    /// Which latches the bad outputs and constraints can observe,
    /// directly or through the next-state cones of other such latches:
    /// [`AigSystem::latch_coi`] of the compiled system, recorded by
    /// [`compile`](TransitionTemplate::compile) and kept by
    /// [`preprocess`](TransitionTemplate::preprocess), which keeps every
    /// latch. On a template compiled from
    /// [`refine_with_constants`](crate::refine_with_constants) these are
    /// exactly the latches whose next state is not free.
    pub fn latch_coi(&self) -> Vec<bool> {
        self.latch_coi.clone()
    }

    /// Number of latches of the compiled system.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Template-local variables per frame (latches + inputs +
    /// internal Tseitin variables).
    pub fn num_frame_vars(&self) -> usize {
        self.num_vars
    }

    /// Clauses added per instantiation (clause image plus constraint
    /// unit assertions), before solver-side simplification.
    pub fn num_frame_clauses(&self) -> usize {
        self.ends.len() + self.latchy_ends.len() + self.constraints.len()
    }

    /// Literals in the clause image (for arena pre-sizing).
    pub fn num_frame_lits(&self) -> usize {
        self.lits.len() + self.latchy_lits.len() + self.constraints.len()
    }

    /// Runs SatELite-style CNF preprocessing ([`satb::preproc`]) once
    /// over the compiled clause image.
    /// Every frame instantiated from the returned template — in every
    /// engine, every portfolio seat — inherits the simplification for
    /// free: the cost is paid once per design, the savings once per
    /// frame.
    ///
    /// # Freeze set and soundness
    ///
    /// The preprocessor is handed the whole engine interface as its
    /// freeze set: latch-current and latch-next variables, inputs,
    /// constraint/bad/any-bad literals. Those are exactly the
    /// variables engines read from models, assume, bind across frames
    /// or constrain with extra clauses (PDR's blocking clauses and
    /// initial-state units range over latch-current variables; its
    /// activation guards are fresh solver-side variables that never
    /// exist in the template, so its activation/assumption footprint
    /// is frozen by construction). Internal Tseitin variables are
    /// existentially projected out where the SatELite bound allows, so
    /// the simplified image is equivalent to the raw one over every
    /// frozen variable — every engine verdict, interpolant and trace
    /// is preserved. Eliminated variables can be re-derived from any
    /// model through [`PreprocessedTemplate::recon`].
    ///
    /// The per-frame constraint unit assertions participate in the
    /// simplification (they hold on every materialized frame) and are
    /// stripped from the resulting image again, since
    /// [`instantiate`](TransitionTemplate::instantiate) re-asserts
    /// them.
    ///
    /// If preprocessing refutes the image outright (possible only with
    /// contradictory environment constraints), the raw template is
    /// returned unchanged — every frame is unsatisfiable either way.
    pub fn preprocess(&self) -> PreprocessedTemplate {
        let num_frozen = self.num_latches + self.input_lits.len();
        let mut pre = Preprocessor::new(self.num_vars);
        for v in 0..num_frozen {
            pre.freeze(Var::from_index(v));
        }
        for &l in self.interface_lits() {
            pre.freeze(l.var());
        }
        let mut start = 0usize;
        for &end in &self.ends {
            pre.add_clause(&self.lits[start..end as usize]);
            start = end as usize;
        }
        start = 0;
        for &end in &self.latchy_ends {
            pre.add_clause(&self.latchy_lits[start..end as usize]);
            start = end as usize;
        }
        // The constraints are asserted as units on every materialized
        // frame; give the preprocessor that knowledge.
        let mut units: Vec<Lit> = self.constraints.clone();
        units.sort_unstable();
        units.dedup();
        for &c in &units {
            pre.add_clause(&[c]);
        }
        let res = pre.run();
        if res.unsat {
            // Contradictory constraints: frames are unsatisfiable with
            // or without simplification; keep the raw image. The
            // returned stats are zeroed — whatever the run did before
            // deriving the empty clause was discarded with it.
            return PreprocessedTemplate {
                template: self.clone(),
                stats: PreprocStats::default(),
                recon: TemplateRecon {
                    raw_vars: self.num_vars,
                    map: (0..self.num_vars)
                        .map(|v| Some(Var::from_index(v)))
                        .collect(),
                    stack: ReconStack::default(),
                },
            };
        }

        // Renumber: the frozen latch/input prefix keeps its indices
        // (the template layout contract), surviving internals compact
        // upward. Unfrozen variables with no remaining occurrence are
        // dropped entirely.
        let mut used = vec![false; self.num_vars];
        for c in &res.clauses {
            for l in c {
                used[l.var().index()] = true;
            }
        }
        for &l in self.interface_lits() {
            used[l.var().index()] = true;
        }
        let mut map: Vec<Option<Var>> = vec![None; self.num_vars];
        for (v, m) in map.iter_mut().enumerate().take(num_frozen) {
            *m = Some(Var::from_index(v));
        }
        let mut next = num_frozen;
        for v in num_frozen..self.num_vars {
            if !res.eliminated[v] && used[v] {
                map[v] = Some(Var::from_index(next));
                next += 1;
            }
        }
        let map_lit = |l: Lit| {
            let v = map[l.var().index()].expect("interface and survivors are mapped");
            Lit::new(v, l.is_positive())
        };

        let mut lits: Vec<Lit> = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        let mut latchy_lits: Vec<Lit> = Vec::new();
        let mut latchy_ends: Vec<u32> = Vec::new();
        for c in &res.clauses {
            // Constraint units are re-asserted by every instantiation;
            // keep the image free of the duplicate.
            if c.len() == 1 && units.binary_search(&c[0]).is_ok() {
                continue;
            }
            let mapped: Vec<Lit> = c.iter().map(|&l| map_lit(l)).collect();
            let latch_vars = mapped
                .iter()
                .filter(|l| l.var().index() < self.num_latches)
                .count();
            if latch_vars >= 2 {
                latchy_lits.extend_from_slice(&mapped);
                latchy_ends.push(latchy_lits.len() as u32);
            } else {
                lits.extend_from_slice(&mapped);
                ends.push(lits.len() as u32);
            }
        }

        let template = TransitionTemplate {
            num_latches: self.num_latches,
            num_vars: next,
            lits,
            ends,
            latchy_lits,
            latchy_ends,
            latch_next: self.latch_next.iter().map(|&l| map_lit(l)).collect(),
            input_lits: self.input_lits.iter().map(|&l| map_lit(l)).collect(),
            constraints: self.constraints.iter().map(|&l| map_lit(l)).collect(),
            bad_lits: self.bad_lits.iter().map(|&l| map_lit(l)).collect(),
            any_bad: map_lit(self.any_bad),
            latch_coi: self.latch_coi.clone(),
        };
        PreprocessedTemplate {
            template,
            stats: res.stats,
            recon: TemplateRecon {
                raw_vars: self.num_vars,
                map,
                stack: res.recon,
            },
        }
    }

    /// The literals engines read, assume or bind: the template's
    /// frozen interface (latch-next, constraints, bads, any-bad; the
    /// latch-current/input prefix is positional and handled
    /// separately).
    fn interface_lits(&self) -> impl Iterator<Item = &Lit> {
        self.latch_next
            .iter()
            .chain(&self.constraints)
            .chain(&self.bad_lits)
            .chain(std::iter::once(&self.any_bad))
    }

    /// Structural validation of the template's internal contract, for
    /// debug assertions and property tests. Checks:
    ///
    /// * the flat clause images are well-formed (`ends` strictly
    ///   increasing, covering `lits` exactly) and every literal's
    ///   variable lies below [`num_frame_vars`];
    /// * every image clause is pre-normalized — nonempty, distinct
    ///   variables, no tautology — as required by the
    ///   [`satb::Solver::add_clause_prenormalized`] fast path;
    /// * the latchy split: plain-image clauses reference at most one
    ///   latch-current variable, latchy-image clauses at least two;
    /// * the interface maps are complete and in range: one latch-next
    ///   literal per latch, positional positive latch-current and
    ///   input literals (`0..L` and `L..L+I` — the layout contract
    ///   preprocessing must preserve), and constraint / bad / any-bad
    ///   literals below the variable count;
    /// * the cone of influence has one entry per latch.
    ///
    /// Returns the first violation as a human-readable message.
    ///
    /// [`num_frame_vars`]: TransitionTemplate::num_frame_vars
    pub fn lint(&self) -> Result<(), String> {
        let check_image = |lits: &[Lit], ends: &[u32], latchy: bool, what: &str| {
            let mut start = 0usize;
            for (ci, &end) in ends.iter().enumerate() {
                let end = end as usize;
                if end <= start || end > lits.len() {
                    return Err(format!("{what} clause #{ci}: bad extent {start}..{end}"));
                }
                let clause = &lits[start..end];
                let mut vars: Vec<usize> = clause.iter().map(|l| l.var().index()).collect();
                vars.sort_unstable();
                if vars.windows(2).any(|w| w[0] == w[1]) {
                    return Err(format!(
                        "{what} clause #{ci}: repeated variable (not pre-normalized)"
                    ));
                }
                if vars.last().is_some_and(|&v| v >= self.num_vars) {
                    return Err(format!("{what} clause #{ci}: variable out of range"));
                }
                let latch_vars = vars.iter().filter(|&&v| v < self.num_latches).count();
                if latchy && latch_vars < 2 {
                    return Err(format!(
                        "{what} clause #{ci}: only {latch_vars} latch vars in latchy image"
                    ));
                }
                if !latchy && latch_vars >= 2 {
                    return Err(format!(
                        "{what} clause #{ci}: {latch_vars} latch vars escaped the latchy split"
                    ));
                }
                start = end;
            }
            if start != lits.len() {
                return Err(format!("{what}: {} trailing literals", lits.len() - start));
            }
            Ok(())
        };
        check_image(&self.lits, &self.ends, false, "plain image")?;
        check_image(&self.latchy_lits, &self.latchy_ends, true, "latchy image")?;
        if self.latch_next.len() != self.num_latches {
            return Err(format!(
                "latch-next map has {} entries for {} latches",
                self.latch_next.len(),
                self.num_latches
            ));
        }
        if self.num_vars < self.num_latches + self.input_lits.len() {
            return Err(format!(
                "variable count {} below the latch/input prefix {}",
                self.num_vars,
                self.num_latches + self.input_lits.len()
            ));
        }
        for (i, &l) in self.input_lits.iter().enumerate() {
            let want = Lit::pos(Var::from_index(self.num_latches + i));
            if l != want {
                return Err(format!("input {i}: non-positional literal {l:?}"));
            }
        }
        for (what, lits) in [
            ("latch-next", &self.latch_next),
            ("constraint", &self.constraints),
            ("bad", &self.bad_lits),
        ] {
            if let Some(l) = lits.iter().find(|l| l.var().index() >= self.num_vars) {
                return Err(format!("{what} literal {l:?} out of range"));
            }
        }
        if self.any_bad.var().index() >= self.num_vars {
            return Err(format!("any-bad literal {:?} out of range", self.any_bad));
        }
        if self.latch_coi.len() != self.num_latches {
            return Err(format!(
                "cone of influence has {} entries for {} latches",
                self.latch_coi.len(),
                self.num_latches
            ));
        }
        Ok(())
    }

    /// Materializes one frame with fresh solver variables for the
    /// whole block (latches included). Clauses carry `part`/`tag`.
    pub fn instantiate(&self, solver: &mut Solver, part: Part, tag: u32) -> FrameVars {
        self.inst(solver, part, tag, None)
    }

    /// Materializes one frame whose latch-current variables are the
    /// given solver literals (e.g. the previous frame's
    /// [`FrameVars::latch_next`], or pre-created interface variables
    /// for interpolation). Only the free variables are allocated.
    ///
    /// # Panics
    ///
    /// Panics if `latch_cur.len()` differs from the latch count.
    pub fn instantiate_bound(
        &self,
        solver: &mut Solver,
        part: Part,
        tag: u32,
        latch_cur: &[Lit],
    ) -> FrameVars {
        assert_eq!(latch_cur.len(), self.num_latches, "latch binding width");
        self.inst(solver, part, tag, Some(latch_cur))
    }

    fn inst(&self, solver: &mut Solver, part: Part, tag: u32, bound: Option<&[Lit]>) -> FrameVars {
        let skip = if bound.is_some() { self.num_latches } else { 0 };
        let first = solver.new_vars(self.num_vars - skip).index();
        let map = |l: Lit| -> Lit {
            let v = l.var().index();
            match bound {
                Some(b) if v < self.num_latches => {
                    if l.is_positive() {
                        b[v]
                    } else {
                        !b[v]
                    }
                }
                _ => Lit::new(Var::from_index(first + v - skip), l.is_positive()),
            }
        };

        // Bulk load: one arena reservation, then the flat image over
        // the fast pre-normalized path. Clauses with two or more
        // latch-current variables can alias under a binding and take
        // the normalizing path instead; a fresh instantiation maps
        // variables injectively, so everything stays fast.
        solver.reserve_clauses(self.num_frame_clauses(), self.num_frame_lits());
        let mut buf: Vec<Lit> = Vec::with_capacity(8);
        let mut start = 0usize;
        for &end in &self.ends {
            buf.clear();
            buf.extend(self.lits[start..end as usize].iter().map(|&l| map(l)));
            solver.add_clause_prenormalized(&buf, part, tag);
            start = end as usize;
        }
        start = 0;
        for &end in &self.latchy_ends {
            buf.clear();
            buf.extend(
                self.latchy_lits[start..end as usize]
                    .iter()
                    .map(|&l| map(l)),
            );
            if bound.is_some() {
                solver.add_clause_tagged(&buf, part, tag);
            } else {
                solver.add_clause_prenormalized(&buf, part, tag);
            }
            start = end as usize;
        }
        for &c in &self.constraints {
            solver.add_clause_prenormalized(&[map(c)], part, tag);
        }

        FrameVars {
            latch_cur: match bound {
                Some(b) => b.to_vec(),
                None => (0..self.num_latches)
                    .map(|i| Lit::pos(Var::from_index(first + i)))
                    .collect(),
            },
            latch_next: self.latch_next.iter().map(|&l| map(l)).collect(),
            inputs: self.input_lits.iter().map(|&l| map(l)).collect(),
            constraints: self.constraints.iter().map(|&l| map(l)).collect(),
            bads: self.bad_lits.iter().map(|&l| map(l)).collect(),
            any_bad: map(self.any_bad),
        }
    }
}

/// A [`TransitionTemplate`] after SatELite-style preprocessing,
/// bundled with the run's counters and the model-reconstruction data
/// for the eliminated variables. See
/// [`TransitionTemplate::preprocess`].
#[derive(Clone, Debug)]
pub struct PreprocessedTemplate {
    /// The simplified template; a drop-in replacement for the raw one.
    pub template: TransitionTemplate,
    /// What preprocessing did (variables eliminated, clauses subsumed,
    /// literals strengthened away).
    pub stats: PreprocStats,
    /// Maps models of a simplified frame back onto the raw template's
    /// variable space.
    pub recon: TemplateRecon,
}

/// Model reconstruction for a preprocessed template: raw template
/// variables are either renumbered survivors or eliminated variables
/// whose values are re-derived from the saved-clause stack.
#[derive(Clone, Debug)]
pub struct TemplateRecon {
    raw_vars: usize,
    /// Raw template variable → simplified template variable (`None`
    /// for eliminated or dropped variables).
    map: Vec<Option<Var>>,
    stack: ReconStack,
}

impl TemplateRecon {
    /// Variable count of the raw template.
    pub fn raw_num_vars(&self) -> usize {
        self.raw_vars
    }

    /// The simplified-template variable a raw variable survived as,
    /// `None` if it was eliminated or dropped.
    pub fn forward(&self, raw: Var) -> Option<Var> {
        self.map[raw.index()]
    }

    /// Extends a model of one simplified frame (`new_vals`, indexed by
    /// simplified template-local variable) to the raw template's
    /// variable space: survivors copy their value, eliminated
    /// variables are assigned from their saved clauses. The result
    /// satisfies every raw-image clause whenever `new_vals` satisfies
    /// the simplified image — this is what keeps `Unsafe` traces and
    /// PDR's re-simulation genuine.
    pub fn extend(&self, new_vals: &[bool]) -> Vec<bool> {
        let mut vals = vec![false; self.raw_vars];
        for (old, m) in self.map.iter().enumerate() {
            if let Some(nv) = m {
                vals[old] = new_vals[nv.index()];
            }
        }
        self.stack.extend(&mut vals);
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::FrameEncoder;
    use crate::graph::Aig;
    use crate::seq::Latch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use satb::SolveResult;

    /// The shared random sequential netlist (see [`crate::testutil`]),
    /// with constraints enabled so `Part`/constraint handling is
    /// exercised.
    fn random_system(rng: &mut StdRng) -> AigSystem {
        crate::testutil::random_system(
            rng,
            &crate::testutil::RandomSystemConfig {
                max_constraints: 1,
                init_prob: 0.7,
                ..Default::default()
            },
        )
    }

    /// The reference unrolling of [`encoder_chain`]: per-frame literal
    /// maps over its solver's variable space.
    struct EncoderChain {
        solver: Solver,
        /// Latch-current literals per frame.
        latches: Vec<Vec<Lit>>,
        /// Per-bad literals per frame.
        bads: Vec<Vec<Lit>>,
        /// The any-bad literal per frame.
        any_bads: Vec<Lit>,
    }

    /// The pre-template unrolling: one `FrameEncoder` per frame, next
    /// cones re-encoded, constraints asserted, per-bad and any-bad
    /// cones encoded on demand.
    fn encoder_chain(sys: &AigSystem, depth: usize, initialized: bool) -> EncoderChain {
        let mut aig = sys.aig.clone();
        let bads = sys.bads.clone();
        let any_bad = aig.or_all(&bads);
        let mut solver = Solver::new();
        let mut encs: Vec<FrameEncoder> = Vec::new();
        let mut latch_lits: Vec<Vec<Lit>> = Vec::new();
        let mut enc0 = FrameEncoder::new();
        let mut lits0 = Vec::new();
        for latch in &sys.latches {
            let l = Lit::pos(solver.new_var());
            enc0.bind(latch.output, l);
            lits0.push(l);
            if initialized {
                if let Some(init) = latch.init {
                    solver.add_clause(&[if init { l } else { !l }]);
                }
            }
        }
        encs.push(enc0);
        latch_lits.push(lits0);
        for f in 0..=depth {
            for &c in &sys.constraints {
                let cl = encs[f].encode(&aig, &mut solver, c, Part::A);
                solver.add_clause(&[cl]);
            }
            if f < depth {
                let mut next_lits = Vec::new();
                for latch in &sys.latches {
                    next_lits.push(encs[f].encode(&aig, &mut solver, latch.next, Part::A));
                }
                let mut enc = FrameEncoder::new();
                for (latch, &l) in sys.latches.iter().zip(&next_lits) {
                    enc.bind(latch.output, l);
                }
                encs.push(enc);
                latch_lits.push(next_lits);
            }
        }
        let mut bad_lits = Vec::new();
        let mut any_bads = Vec::new();
        for f in 0..=depth {
            bad_lits.push(
                bads.iter()
                    .map(|&b| encs[f].encode(&aig, &mut solver, b, Part::A))
                    .collect::<Vec<Lit>>(),
            );
            any_bads.push(encs[f].encode(&aig, &mut solver, any_bad, Part::A));
        }
        EncoderChain {
            solver,
            latches: latch_lits,
            bads: bad_lits,
            any_bads,
        }
    }

    fn template_chain(
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        depth: usize,
        initialized: bool,
    ) -> (Solver, Vec<FrameVars>) {
        let mut solver = Solver::new();
        let mut frames = Vec::new();
        let f0 = tpl.instantiate(&mut solver, Part::A, 0);
        if initialized {
            f0.assert_init(sys, &mut solver);
        }
        frames.push(f0);
        for _ in 0..depth {
            let prev = frames.last().expect("frame 0 exists");
            let next = tpl.instantiate_bound(&mut solver, Part::A, 0, &prev.latch_next.clone());
            frames.push(next);
        }
        (solver, frames)
    }

    /// Template-instantiated frames must be CNF-equivalent to
    /// `FrameEncoder`-encoded frames: the same verdict for every
    /// random assumption set over frame literals.
    #[test]
    fn template_frames_equivalent_to_encoder_frames() {
        let mut rng = StdRng::seed_from_u64(2016);
        for round in 0..40 {
            let sys = random_system(&mut rng);
            let tpl = TransitionTemplate::compile(&sys);
            tpl.lint().expect("compiled template passes lint");
            let depth = rng.gen_range(0..=3usize);
            let initialized = rng.gen_bool(0.5);
            let mut ec = encoder_chain(&sys, depth, initialized);
            let (es, e_latches, e_bads, e_any) =
                (&mut ec.solver, &ec.latches, &ec.bads, &ec.any_bads);
            let (mut ts_, frames) = template_chain(&sys, &tpl, depth, initialized);
            for _query in 0..8 {
                // Random assumptions: a bad (or any-bad) at a random
                // frame, plus random latch forcings.
                let f = rng.gen_range(0..=depth);
                let mut ea: Vec<Lit> = Vec::new();
                let mut ta: Vec<Lit> = Vec::new();
                if rng.gen_bool(0.5) {
                    let bi = rng.gen_range(0..sys.bads.len());
                    ea.push(e_bads[f][bi]);
                    ta.push(frames[f].bads[bi]);
                } else {
                    ea.push(e_any[f]);
                    ta.push(frames[f].any_bad);
                }
                for _ in 0..rng.gen_range(0..=3usize) {
                    let ff = rng.gen_range(0..=depth);
                    let li = rng.gen_range(0..sys.latches.len());
                    let pos = rng.gen_bool(0.5);
                    let el = e_latches[ff][li];
                    let tl = frames[ff].latch_cur[li];
                    ea.push(if pos { el } else { !el });
                    ta.push(if pos { tl } else { !tl });
                }
                let re = es.solve_with(&ea);
                let rt = ts_.solve_with(&ta);
                assert_eq!(
                    re, rt,
                    "round {round} frame {f}: encoder {re:?} template {rt:?}"
                );
            }
        }
    }

    /// Chained template frames agree with concrete simulation: forcing
    /// the inputs of every frame must force the latch values of every
    /// later frame to the simulated trajectory.
    #[test]
    fn template_chain_matches_simulation() {
        let mut rng = StdRng::seed_from_u64(7);
        for _round in 0..30 {
            let sys = random_system(&mut rng);
            if !sys.constraints.is_empty() {
                continue; // constraints may make the chain UNSAT
            }
            let tpl = TransitionTemplate::compile(&sys);
            let depth = rng.gen_range(1..=3usize);
            let (mut solver, frames) = template_chain(&sys, &tpl, depth, true);
            // Force every frame's inputs and frame 0's full state.
            let mut assumptions = Vec::new();
            let mut state: Vec<bool> = sys.initial_state();
            for (i, &b) in state.iter().enumerate() {
                let l = frames[0].latch_cur[i];
                assumptions.push(if b { l } else { !l });
            }
            let mut input_vals = Vec::new();
            for frame in frames.iter().take(depth + 1) {
                let iv: Vec<bool> = (0..sys.inputs.len()).map(|_| rng.gen_bool(0.5)).collect();
                for (i, &b) in iv.iter().enumerate() {
                    let l = frame.inputs[i];
                    assumptions.push(if b { l } else { !l });
                }
                input_vals.push(iv);
            }
            assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
            for f in 0..=depth {
                let bads = sys.bads_in(&state, &input_vals[f]);
                for (bi, &want) in bads.iter().enumerate() {
                    assert_eq!(
                        solver.value(frames[f].bads[bi]),
                        Some(want),
                        "bad {bi} at frame {f}"
                    );
                }
                assert_eq!(
                    solver.value(frames[f].any_bad),
                    Some(bads.iter().any(|&b| b)),
                    "any-bad at frame {f}"
                );
                for (i, &want) in state.iter().enumerate() {
                    assert_eq!(
                        solver.value(frames[f].latch_cur[i]),
                        Some(want),
                        "latch {i} at frame {f}"
                    );
                }
                state = sys.step(&state, &input_vals[f]);
            }
        }
    }

    /// Part labels survive instantiation: an A-frame/B-frame split
    /// refuted with proof logging yields an interpolant.
    #[test]
    fn parts_preserved_for_interpolation() {
        // Latches a, b (both init 1), next = a & b for both; bad = !a.
        // From (1,1) the state stays (1,1), so "bad at frame 1" is
        // refutable — A holds frame 0, B holds the bound frame 1.
        let mut aig = Aig::new();
        let a = aig.new_ci();
        let b = aig.new_ci();
        let ab = aig.and(a, b);
        let mk = |output: AigLit, name: &str| Latch {
            output,
            next: ab,
            init: Some(true),
            name: name.into(),
        };
        let sys = AigSystem {
            aig,
            inputs: vec![],
            input_names: vec![],
            latches: vec![mk(a, "a"), mk(b, "b")],
            constraints: vec![],
            bads: vec![!a],
            bad_names: vec!["a dropped".into()],
            name: "hold".into(),
        };
        let tpl = TransitionTemplate::compile(&sys);
        let mut solver = Solver::with_proof();
        let f0 = tpl.instantiate(&mut solver, Part::A, 0);
        for &l in &f0.latch_cur {
            solver.add_clause_in(&[l], Part::A); // init: a = b = 1
        }
        let f1 = tpl.instantiate_bound(&mut solver, Part::B, 1, &f0.latch_next);
        solver.add_clause_in(&[f1.any_bad], Part::B);
        assert_eq!(solver.solve(), SolveResult::Unsat);
        assert!(
            solver.interpolant().is_some(),
            "A/B labels must survive template instantiation"
        );
    }

    /// CIs that are neither registered inputs nor latch outputs (free
    /// inputs, which `Blaster::fresh_var` can mint for undriven pool
    /// variables) must compile instead of panicking, and must get a
    /// fresh unconstrained variable per frame — the `FrameEncoder`
    /// semantics.
    #[test]
    fn unregistered_cis_are_per_frame_free_inputs() {
        let mut aig = Aig::new();
        let s = aig.new_ci();
        let free = aig.new_ci(); // never registered as an input
        let bad = aig.and(s, free);
        let sys = AigSystem {
            aig,
            inputs: vec![],
            input_names: vec![],
            latches: vec![Latch {
                output: s,
                next: s,
                init: Some(true),
                name: "s".into(),
            }],
            constraints: vec![],
            bads: vec![bad],
            bad_names: vec!["b".into()],
            name: "free-ci".into(),
        };
        let tpl = TransitionTemplate::compile(&sys);
        let (mut solver, frames) = template_chain(&sys, &tpl, 1, true);
        // The free input can fire the bad in one frame and not the
        // other: its variable is fresh per frame.
        assert_eq!(
            solver.solve_with(&[frames[0].any_bad, !frames[1].any_bad]),
            SolveResult::Sat
        );
        assert_eq!(
            solver.solve_with(&[!frames[0].any_bad, frames[1].any_bad]),
            SolveResult::Sat
        );
    }

    /// The tentpole property: the preprocessed template is
    /// equisatisfiable with the raw one under arbitrary assumptions
    /// over the frozen interface (latch-current, latch-next, inputs,
    /// bads, any-bad) — on chained unrollings of random sequential
    /// netlists, initialized or free.
    #[test]
    fn preprocessed_template_equisat_with_raw() {
        let mut rng = StdRng::seed_from_u64(0x9E0C2016);
        for round in 0..40 {
            let sys = random_system(&mut rng);
            let raw = TransitionTemplate::compile(&sys);
            let pre = raw.preprocess();
            raw.lint().expect("raw template passes lint");
            pre.template
                .lint()
                .expect("preprocessing preserves the layout contract");
            let depth = rng.gen_range(0..=3usize);
            let initialized = rng.gen_bool(0.5);
            let (mut rs, rframes) = template_chain(&sys, &raw, depth, initialized);
            let (mut ps, pframes) = template_chain(&sys, &pre.template, depth, initialized);
            for _query in 0..8 {
                let f = rng.gen_range(0..=depth);
                let mut ra: Vec<Lit> = Vec::new();
                let mut pa: Vec<Lit> = Vec::new();
                if rng.gen_bool(0.5) {
                    let bi = rng.gen_range(0..sys.bads.len());
                    ra.push(rframes[f].bads[bi]);
                    pa.push(pframes[f].bads[bi]);
                } else {
                    ra.push(rframes[f].any_bad);
                    pa.push(pframes[f].any_bad);
                }
                for _ in 0..rng.gen_range(0..=3usize) {
                    let ff = rng.gen_range(0..=depth);
                    let pos = rng.gen_bool(0.5);
                    // Latch-current, latch-next or input forcings: all
                    // frozen interface.
                    let (rl, pl) = match rng.gen_range(0..3) {
                        0 => {
                            let li = rng.gen_range(0..sys.latches.len());
                            (rframes[ff].latch_cur[li], pframes[ff].latch_cur[li])
                        }
                        1 => {
                            let li = rng.gen_range(0..sys.latches.len());
                            (rframes[ff].latch_next[li], pframes[ff].latch_next[li])
                        }
                        _ if !sys.inputs.is_empty() => {
                            let ii = rng.gen_range(0..sys.inputs.len());
                            (rframes[ff].inputs[ii], pframes[ff].inputs[ii])
                        }
                        _ => {
                            let li = rng.gen_range(0..sys.latches.len());
                            (rframes[ff].latch_cur[li], pframes[ff].latch_cur[li])
                        }
                    };
                    ra.push(if pos { rl } else { !rl });
                    pa.push(if pos { pl } else { !pl });
                }
                let rr = rs.solve_with(&ra);
                let pr = ps.solve_with(&pa);
                assert_eq!(
                    rr, pr,
                    "round {round} frame {f}: raw {rr:?} preprocessed {pr:?}"
                );
            }
        }
    }

    /// Model reconstruction: a model of one simplified frame extends
    /// to an assignment satisfying every raw-image clause (and the
    /// constraint units), with the interface values unchanged.
    #[test]
    fn reconstruction_satisfies_raw_image() {
        let mut rng = StdRng::seed_from_u64(0xEC0);
        for round in 0..40 {
            let sys = random_system(&mut rng);
            let raw = TransitionTemplate::compile(&sys);
            let pre = raw.preprocess();
            let mut solver = Solver::new();
            // Base 0: simplified template-local var i is solver var i.
            let frame = pre.template.instantiate(&mut solver, Part::A, 0);
            if solver.solve() != SolveResult::Sat {
                continue; // contradictory constraints
            }
            let new_vals: Vec<bool> = (0..pre.template.num_frame_vars())
                .map(|v| solver.value(Lit::pos(Var::from_index(v))).unwrap_or(false))
                .collect();
            let old_vals = pre.recon.extend(&new_vals);
            assert_eq!(old_vals.len(), raw.num_frame_vars());
            let sat = |l: Lit| old_vals[l.var().index()] == l.is_positive();
            let mut start = 0usize;
            for &end in &raw.ends {
                assert!(
                    raw.lits[start..end as usize].iter().any(|&l| sat(l)),
                    "round {round}: raw clause violated by reconstructed model"
                );
                start = end as usize;
            }
            start = 0;
            for &end in &raw.latchy_ends {
                assert!(
                    raw.latchy_lits[start..end as usize].iter().any(|&l| sat(l)),
                    "round {round}: raw latchy clause violated"
                );
                start = end as usize;
            }
            for &c in &raw.constraints {
                assert!(sat(c), "round {round}: constraint violated");
            }
            // Interface values survive renumbering unchanged.
            for (i, &l) in raw.latch_next.iter().enumerate() {
                assert_eq!(
                    sat(l),
                    solver.value(frame.latch_next[i]) == Some(true),
                    "round {round}: latch-next {i} diverged"
                );
            }
        }
    }

    /// Preprocessing must actually shrink a real Tseitin image (the
    /// multiplier the tentpole is about) and keep the layout contract.
    #[test]
    fn preprocessing_shrinks_counter_image() {
        let mut ts = rtlir::TransitionSystem::new("c");
        let s = ts.add_state("count", rtlir::Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let one = ts.pool_mut().constv(8, 1);
        let next = ts.pool_mut().add(sv, one);
        let zero = ts.pool_mut().constv(8, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let nine = ts.pool_mut().constv(8, 9);
        let bad = ts.pool_mut().eq(sv, nine);
        ts.add_bad(bad, "nine");
        let sys = crate::blast_system(&ts);
        let raw = TransitionTemplate::compile(&sys);
        let pre = raw.preprocess();
        raw.lint().expect("raw template passes lint");
        pre.template
            .lint()
            .expect("preprocessed template passes lint");
        assert!(pre.stats.elim_vars > 0, "stats: {:?}", pre.stats);
        assert!(
            pre.template.num_frame_vars() < raw.num_frame_vars(),
            "vars {} !< {}",
            pre.template.num_frame_vars(),
            raw.num_frame_vars()
        );
        assert!(
            pre.template.num_frame_clauses() < raw.num_frame_clauses(),
            "clauses {} !< {}",
            pre.template.num_frame_clauses(),
            raw.num_frame_clauses()
        );
        assert_eq!(pre.template.num_latches(), raw.num_latches());
    }

    /// Interpolation over a preprocessed template: the A/B split is
    /// applied per instantiation, preprocessing happened strictly
    /// inside the (single-part) image, so the refutation still yields
    /// an interpolant.
    #[test]
    fn parts_preserved_for_interpolation_with_preprocessing() {
        let mut aig = Aig::new();
        let a = aig.new_ci();
        let b = aig.new_ci();
        let ab = aig.and(a, b);
        let mk = |output: AigLit, name: &str| Latch {
            output,
            next: ab,
            init: Some(true),
            name: name.into(),
        };
        let sys = AigSystem {
            aig,
            inputs: vec![],
            input_names: vec![],
            latches: vec![mk(a, "a"), mk(b, "b")],
            constraints: vec![],
            bads: vec![!a],
            bad_names: vec!["a dropped".into()],
            name: "hold".into(),
        };
        let tpl = TransitionTemplate::compile(&sys).preprocess().template;
        let mut solver = Solver::with_proof();
        let f0 = tpl.instantiate(&mut solver, Part::A, 0);
        for &l in &f0.latch_cur {
            solver.add_clause_in(&[l], Part::A);
        }
        let f1 = tpl.instantiate_bound(&mut solver, Part::B, 1, &f0.latch_next);
        solver.add_clause_in(&[f1.any_bad], Part::B);
        assert_eq!(solver.solve(), SolveResult::Unsat);
        assert!(
            solver.interpolant().is_some(),
            "A/B labels must survive preprocessed instantiation"
        );
    }

    /// Chained preprocessed frames still agree with concrete
    /// simulation on every frozen observable.
    #[test]
    fn preprocessed_chain_matches_simulation() {
        let mut rng = StdRng::seed_from_u64(0x51A);
        for _round in 0..20 {
            let sys = random_system(&mut rng);
            if !sys.constraints.is_empty() {
                continue;
            }
            let tpl = TransitionTemplate::compile(&sys).preprocess().template;
            let depth = rng.gen_range(1..=3usize);
            let (mut solver, frames) = template_chain(&sys, &tpl, depth, true);
            let mut assumptions = Vec::new();
            let mut state: Vec<bool> = sys.initial_state();
            for (i, &b) in state.iter().enumerate() {
                let l = frames[0].latch_cur[i];
                assumptions.push(if b { l } else { !l });
            }
            let mut input_vals = Vec::new();
            for frame in frames.iter().take(depth + 1) {
                let iv: Vec<bool> = (0..sys.inputs.len()).map(|_| rng.gen_bool(0.5)).collect();
                for (i, &b) in iv.iter().enumerate() {
                    let l = frame.inputs[i];
                    assumptions.push(if b { l } else { !l });
                }
                input_vals.push(iv);
            }
            assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
            for f in 0..=depth {
                let bads = sys.bads_in(&state, &input_vals[f]);
                assert_eq!(
                    solver.value(frames[f].any_bad),
                    Some(bads.iter().any(|&b| b)),
                    "any-bad at frame {f}"
                );
                for (i, &want) in state.iter().enumerate() {
                    assert_eq!(
                        solver.value(frames[f].latch_cur[i]),
                        Some(want),
                        "latch {i} at frame {f}"
                    );
                }
                state = sys.step(&state, &input_vals[f]);
            }
        }
    }

    /// The template records the netlist's cone of influence and
    /// preprocessing keeps it. On the cut netlist of
    /// `refine_with_constants`, without constants or with one folded,
    /// it is the cut's own cone: the latches that keep their next
    /// state. A folded constant can only shrink it.
    #[test]
    fn latch_coi_matches_the_netlist() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut partial = 0;
        let mut shrunk = 0;
        for round in 0..100 {
            let sys = random_system(&mut rng);
            let coi = sys.latch_coi();
            partial += usize::from(coi.contains(&false));
            let tpl = TransitionTemplate::compile(&sys);
            assert_eq!(tpl.latch_coi(), coi, "round {round}");
            assert_eq!(tpl.preprocess().template.latch_coi(), coi, "round {round}");
            let folded = [(round % sys.latches.len(), round % 2 == 1)];
            for constants in [&[][..], &folded] {
                let cut = crate::refine_with_constants(&sys, constants);
                let cut_coi = cut.latch_coi();
                let cut_tpl = TransitionTemplate::compile(&cut);
                assert_eq!(cut_tpl.latch_coi(), cut_coi, "round {round} {constants:?}");
                assert_eq!(
                    cut_tpl.preprocess().template.latch_coi(),
                    cut_coi,
                    "round {round} {constants:?}"
                );
                assert!(
                    cut_coi.iter().zip(&coi).all(|(&c, &s)| s || !c),
                    "round {round} {constants:?}: the cut grew the cone"
                );
                if constants.is_empty() {
                    assert_eq!(cut_coi, coi, "round {round}");
                } else {
                    shrunk += usize::from(cut_coi != coi);
                }
            }
        }
        assert!(partial >= 10, "only {partial} netlists leave a latch out");
        assert!(shrunk >= 10, "only {shrunk} folds shrink the cone");
    }

    #[test]
    fn counters_match_instantiation() {
        let mut rng = StdRng::seed_from_u64(3);
        let sys = random_system(&mut rng);
        let tpl = TransitionTemplate::compile(&sys);
        let mut solver = Solver::new();
        let before_vars = solver.num_vars();
        let f = tpl.instantiate(&mut solver, Part::A, 0);
        assert_eq!(solver.num_vars() - before_vars, tpl.num_frame_vars());
        assert_eq!(f.latch_cur.len(), tpl.num_latches());
        // Solver-side simplification can only drop clauses.
        assert!(solver.num_clauses() <= tpl.num_frame_clauses());
    }
}
