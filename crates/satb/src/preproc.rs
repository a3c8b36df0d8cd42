//! SatELite-style CNF preprocessing: subsumption, self-subsuming
//! resolution and bounded variable elimination.
//!
//! The engines in this workspace burn almost all of their time in the
//! arena solver, and every one of them solves formulas built from the
//! *same* clause image (the `aig` transition template) over and over —
//! once per frame per engine per portfolio seat. Simplifying that image
//! once therefore pays out everywhere, which is exactly the trade
//! SatELite (Eén & Biere 2005) and the preprocessors inside modern
//! software analyzers (CPAchecker's CNF simplification, CBMC's
//! pre-solving passes) make.
//!
//! [`Preprocessor`] implements the three classical rules over an
//! occurrence-list clause set:
//!
//! * **Subsumption** — a clause `C ⊆ D` deletes `D`.
//! * **Self-subsuming resolution (strengthening)** — if `C \ {l}` is
//!   contained in `D \ {¬l}`, the resolvent of `C` and `D` on `l`
//!   subsumes `D`, so `¬l` is removed from `D` in place.
//! * **Bounded variable elimination** — a variable `v` is eliminated by
//!   replacing the clauses containing it with all non-tautological
//!   resolvents on `v`, but only when that does not grow the clause
//!   set (the SatELite bound).
//!
//! Its one caller is the transition template
//! (`aig::TransitionTemplate::preprocess`), which simplifies its clause
//! image once per design, before any solver sees it.
//!
//! # Soundness invariant (freeze set)
//!
//! The simplified set is **equisatisfiable with the original and
//! equivalent over the non-eliminated variables**: for every
//! assignment of the surviving variables, the original formula is
//! satisfiable iff the simplified one is (variable elimination is
//! existential projection; subsumption and strengthening preserve
//! equivalence outright). Every variable the consumer will read from a
//! model, assume, bind, or mention in later-added clauses must
//! therefore be [frozen](Preprocessor::freeze) — frozen variables are
//! never eliminated (occurrences of them may still be strengthened
//! away, which is an equivalence-preserving deletion). Activation-style
//! guard variables are assumption interface by definition and must
//! always be frozen. The values of eliminated variables are never
//! needed: the template's consumers read frozen variables only, and
//! rebuild traces by simulating the netlist.
//!
//! Resolution here ignores interpolation partitions, and may: the
//! template's clauses all describe one time frame, and instantiation
//! labels each frame's copy of the simplified image with a single
//! [`Part`](crate::Part). Every derived clause therefore lands in one
//! partition, exactly like the clauses it was derived from.
//!
//! The empty clause may be derived (`[PreprocResult::unsat]`), in which
//! case the clause set is unsatisfiable outright.

use crate::lit::{Lit, Var};

/// Variables occurring more often than this in either polarity are
/// never eliminated (the SatELite "don't touch hubs" heuristic).
const MAX_OCC: usize = 30;
/// Extra clauses an elimination may add beyond the number it removes
/// (SatELite uses 0: never grow).
const MAX_GROWTH: isize = 0;
/// An elimination is abandoned if any resolvent would exceed this many
/// literals.
const MAX_RESOLVENT_LEN: usize = 24;

/// Counters of one preprocessing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocStats {
    /// Variables eliminated by bounded variable elimination.
    pub elim_vars: u64,
    /// Clauses deleted because another clause subsumed them.
    pub subsumed: u64,
    /// Literals removed by self-subsuming resolution.
    pub strengthened: u64,
}

/// Result of [`Preprocessor::run`].
#[derive(Clone, Debug)]
pub struct PreprocResult {
    /// The simplified clause set (sorted, duplicate-free literals).
    pub clauses: Vec<Vec<Lit>>,
    /// What the run did.
    pub stats: PreprocStats,
    /// Per-variable flag: `true` if the variable was eliminated.
    pub eliminated: Vec<bool>,
    /// The empty clause was derived: the input set is unsatisfiable.
    pub unsat: bool,
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Variable-set signature for fast subset rejection.
    sig: u64,
    deleted: bool,
}

fn sig_of(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
}

/// Answer of the combined subsumption / self-subsumption check.
enum SubsumeKind {
    No,
    /// Every literal of the small clause occurs in the big one.
    Exact,
    /// All but one literal occur; that one occurs negated in the big
    /// clause (the payload is the big clause's literal to remove).
    Strengthen(Lit),
}

/// Checks whether `small` subsumes `big` outright, or subsumes it
/// after flipping exactly one literal (self-subsuming resolution).
/// Both slices must be sorted.
fn subsume_check(small: &[Lit], big: &[Lit]) -> SubsumeKind {
    if small.len() > big.len() {
        return SubsumeKind::No;
    }
    let mut flip: Option<Lit> = None;
    let mut j = 0;
    'outer: for &l in small {
        while j < big.len() {
            let b = big[j];
            j += 1;
            if b == l {
                continue 'outer;
            }
            if b == !l {
                if flip.is_some() {
                    return SubsumeKind::No;
                }
                flip = Some(b);
                continue 'outer;
            }
            if b > l && b.var() != l.var() {
                return SubsumeKind::No;
            }
        }
        return SubsumeKind::No;
    }
    match flip {
        None => SubsumeKind::Exact,
        Some(b) => SubsumeKind::Strengthen(b),
    }
}

/// An occurrence-list CNF simplifier; see the [module docs](self).
///
/// Usage: create with the variable count, [`freeze`](Self::freeze) the
/// interface, [`add_clause`](Self::add_clause) the set, then
/// [`run`](Self::run).
#[derive(Clone, Debug)]
pub struct Preprocessor {
    num_vars: usize,
    frozen: Vec<bool>,
    eliminated: Vec<bool>,
    clauses: Vec<Clause>,
    /// Literal code → indices of clauses that *may* contain it (stale
    /// entries are skipped on read and pruned on rebuild).
    occ: Vec<Vec<u32>>,
    /// Live occurrences per literal code.
    n_occ: Vec<u32>,
    /// Variables whose occurrence lists changed since they were last
    /// considered for elimination.
    touched: Vec<bool>,
    stats: PreprocStats,
    unsat: bool,
}

impl Preprocessor {
    /// Creates an empty preprocessor over `num_vars` variables.
    pub fn new(num_vars: usize) -> Preprocessor {
        Preprocessor {
            num_vars,
            frozen: vec![false; num_vars],
            eliminated: vec![false; num_vars],
            clauses: Vec::new(),
            occ: vec![Vec::new(); 2 * num_vars],
            n_occ: vec![0; 2 * num_vars],
            touched: vec![false; num_vars],
            stats: PreprocStats::default(),
            unsat: false,
        }
    }

    /// Marks `v` as interface: it will never be eliminated. Freeze
    /// every variable that is read from models, assumed, bound to
    /// other frames, or mentioned by clauses added after preprocessing.
    pub fn freeze(&mut self, v: Var) {
        self.frozen[v.index()] = true;
    }

    /// Adds a clause. Literals are normalized (sorted, deduplicated);
    /// tautologies are dropped; an empty clause marks the set
    /// unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        for w in ls.windows(2) {
            if w[0].var() == w[1].var() {
                return; // tautology
            }
        }
        if ls.is_empty() {
            self.unsat = true;
            return;
        }
        self.push_clause(ls);
    }

    fn push_clause(&mut self, lits: Vec<Lit>) -> u32 {
        let idx = self.clauses.len() as u32;
        let sig = sig_of(&lits);
        for &l in &lits {
            self.occ[l.code()].push(idx);
            self.n_occ[l.code()] += 1;
            self.touched[l.var().index()] = true;
        }
        self.clauses.push(Clause {
            lits,
            sig,
            deleted: false,
        });
        idx
    }

    fn delete_clause(&mut self, ci: u32) {
        debug_assert!(!self.clauses[ci as usize].deleted);
        self.clauses[ci as usize].deleted = true;
        let n = self.clauses[ci as usize].lits.len();
        for i in 0..n {
            let l = self.clauses[ci as usize].lits[i];
            self.n_occ[l.code()] -= 1;
            self.touched[l.var().index()] = true;
        }
    }

    /// Live clause indices containing `l`: prunes stale occurrence
    /// entries in place, then hands back one owned copy (callers
    /// mutate the clause set while iterating).
    fn occ_of(&mut self, l: Lit) -> Vec<u32> {
        let mut list = std::mem::take(&mut self.occ[l.code()]);
        let clauses = &self.clauses;
        list.retain(|&ci| {
            let c = &clauses[ci as usize];
            !c.deleted && c.lits.contains(&l)
        });
        self.occ[l.code()] = list;
        self.occ[l.code()].clone()
    }

    /// Backward subsumption and strengthening from a work queue until
    /// fixpoint. Every clause index pushed on `queue` is used as the
    /// *subsuming* side against the clauses sharing its rarest
    /// variable.
    fn subsume_fixpoint(&mut self, queue: &mut Vec<u32>) {
        while let Some(ci) = queue.pop() {
            if self.unsat || self.clauses[ci as usize].deleted {
                continue;
            }
            // Pick the variable with the fewest occurrences to bound
            // the candidate scan.
            let lits = self.clauses[ci as usize].lits.clone();
            let best = lits
                .iter()
                .min_by_key(|l| self.n_occ[l.code()] + self.n_occ[(!**l).code()])
                .copied()
                .expect("clauses are nonempty");
            let mut cands = self.occ_of(best);
            cands.extend(self.occ_of(!best));
            let sig = self.clauses[ci as usize].sig;
            for di in cands {
                if di == ci || self.clauses[di as usize].deleted {
                    continue;
                }
                let d = &self.clauses[di as usize];
                if sig & !d.sig != 0 || d.lits.len() < lits.len() {
                    continue;
                }
                match subsume_check(&lits, &d.lits) {
                    SubsumeKind::No => {}
                    SubsumeKind::Exact => {
                        self.delete_clause(di);
                        self.stats.subsumed += 1;
                    }
                    SubsumeKind::Strengthen(rem) => {
                        let d = &mut self.clauses[di as usize];
                        let p = d.lits.iter().position(|&l| l == rem).expect("present");
                        d.lits.remove(p);
                        d.sig = sig_of(&d.lits);
                        self.n_occ[rem.code()] -= 1;
                        self.stats.strengthened += 1;
                        // The clause shrank: every remaining variable's
                        // elimination prospects changed too.
                        self.touched[rem.var().index()] = true;
                        let n = self.clauses[di as usize].lits.len();
                        for i in 0..n {
                            let w = self.clauses[di as usize].lits[i].var();
                            self.touched[w.index()] = true;
                        }
                        if self.clauses[di as usize].lits.is_empty() {
                            self.unsat = true;
                            return;
                        }
                        queue.push(di);
                    }
                }
            }
        }
    }

    /// Tries to eliminate `v`; returns `true` (and queues the
    /// resolvents for subsumption) on success.
    fn try_eliminate(&mut self, v: Var, queue: &mut Vec<u32>) -> bool {
        if self.frozen[v.index()] || self.eliminated[v.index()] {
            return false;
        }
        let pos = self.occ_of(Lit::pos(v));
        let neg = self.occ_of(Lit::neg(v));
        if pos.is_empty() && neg.is_empty() {
            return false;
        }
        if pos.len() > MAX_OCC || neg.len() > MAX_OCC {
            return false;
        }
        // Build all non-tautological resolvents, bailing out when the
        // bound is exceeded.
        let budget = pos.len() as isize + neg.len() as isize + MAX_GROWTH;
        let mut resolvents: Vec<Vec<Lit>> = Vec::new();
        for &pi in &pos {
            for &ni in &neg {
                let r = resolve(
                    &self.clauses[pi as usize].lits,
                    &self.clauses[ni as usize].lits,
                    v,
                );
                if let Some(r) = r {
                    if r.len() > MAX_RESOLVENT_LEN {
                        return false;
                    }
                    resolvents.push(r);
                    if resolvents.len() as isize > budget {
                        return false;
                    }
                }
            }
        }
        // Commit: delete the originals, add the resolvents.
        for &ci in pos.iter().chain(&neg) {
            self.delete_clause(ci);
        }
        self.eliminated[v.index()] = true;
        self.stats.elim_vars += 1;
        for r in resolvents {
            if r.is_empty() {
                self.unsat = true;
                return true;
            }
            let idx = self.push_clause(r);
            queue.push(idx);
        }
        true
    }

    /// Runs subsumption, strengthening and bounded variable
    /// elimination to fixpoint and returns the simplified set.
    pub fn run(mut self) -> PreprocResult {
        let mut queue: Vec<u32> = (0..self.clauses.len() as u32).collect();
        self.subsume_fixpoint(&mut queue);
        // Touched-variable worklist: the first round considers every
        // variable; later rounds only the ones whose occurrence lists
        // changed since.
        loop {
            if self.unsat {
                break;
            }
            let mut order: Vec<Var> = (0..self.num_vars)
                .map(Var::from_index)
                .filter(|v| {
                    self.touched[v.index()]
                        && !self.frozen[v.index()]
                        && !self.eliminated[v.index()]
                })
                .collect();
            for v in &order {
                self.touched[v.index()] = false;
            }
            if order.is_empty() {
                break;
            }
            // Cheapest variables first: elimination of a low-occurrence
            // variable shrinks the set and may enable further
            // eliminations.
            order
                .sort_by_key(|v| self.n_occ[Lit::pos(*v).code()] + self.n_occ[Lit::neg(*v).code()]);
            for v in order {
                if self.unsat {
                    break;
                }
                if self.try_eliminate(v, &mut queue) {
                    self.subsume_fixpoint(&mut queue);
                }
            }
        }
        PreprocResult {
            clauses: self
                .clauses
                .into_iter()
                .filter(|c| !c.deleted)
                .map(|c| c.lits)
                .collect(),
            stats: self.stats,
            eliminated: self.eliminated,
            unsat: self.unsat,
        }
    }
}

/// The resolvent of two sorted clauses on `pivot`; `None` for
/// tautologies. The result is sorted and duplicate-free.
fn resolve(pos: &[Lit], neg: &[Lit], pivot: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(pos.len() + neg.len() - 2);
    let mut i = 0;
    let mut j = 0;
    loop {
        let a = pos.get(i).copied().filter(|l| l.var() != pivot);
        let b = neg.get(j).copied().filter(|l| l.var() != pivot);
        // Skip pivot literals.
        if a.is_none() && i < pos.len() {
            i += 1;
            continue;
        }
        if b.is_none() && j < neg.len() {
            j += 1;
            continue;
        }
        match (a, b) {
            (None, None) => break,
            (Some(x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(y)) => {
                out.push(y);
                j += 1;
            }
            (Some(x), Some(y)) => {
                if x == y {
                    out.push(x);
                    i += 1;
                    j += 1;
                } else if x.var() == y.var() {
                    return None; // tautology
                } else if x < y {
                    out.push(x);
                    i += 1;
                } else {
                    out.push(y);
                    j += 1;
                }
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Solver};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::new(Var::from_index(v), pos)
    }

    fn sat_of(clauses: &[Vec<Lit>], nvars: usize, assumptions: &[Lit]) -> SolveResult {
        let mut s = Solver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s.solve_with(assumptions)
    }

    #[test]
    fn subsumption_deletes_supersets() {
        let mut p = Preprocessor::new(3);
        p.add_clause(&[lit(0, true)]);
        p.add_clause(&[lit(0, true), lit(1, true)]);
        p.add_clause(&[lit(0, true), lit(1, false), lit(2, true)]);
        for v in 0..3 {
            p.freeze(Var::from_index(v));
        }
        let r = p.run();
        assert!(!r.unsat);
        assert_eq!(r.stats.subsumed, 2);
        assert_eq!(r.clauses.len(), 1);
        assert_eq!(r.clauses[0], vec![lit(0, true)]);
    }

    #[test]
    fn strengthening_removes_negated_literal() {
        // (a) and (!a | b): the unit strengthens the second to (b).
        let mut p = Preprocessor::new(2);
        p.add_clause(&[lit(0, true)]);
        p.add_clause(&[lit(0, false), lit(1, true)]);
        p.freeze(Var::from_index(0));
        p.freeze(Var::from_index(1));
        let r = p.run();
        assert!(r.stats.strengthened >= 1);
        assert!(r.clauses.iter().any(|c| *c == vec![lit(1, true)]));
        assert!(!r.clauses.iter().any(|c| c.len() == 2));
    }

    #[test]
    fn contradictory_units_derive_empty_clause() {
        let mut p = Preprocessor::new(1);
        p.add_clause(&[lit(0, true)]);
        p.add_clause(&[lit(0, false)]);
        let r = p.run();
        assert!(r.unsat);
    }

    #[test]
    fn eliminates_tseitin_and_gate() {
        // g <-> a & b over frozen a, b: g's three clauses resolve to
        // nothing (all resolvents tautological), so g is eliminated
        // and the output is empty.
        let (a, b, g) = (0, 1, 2);
        let mut p = Preprocessor::new(3);
        p.add_clause(&[lit(g, false), lit(a, true)]);
        p.add_clause(&[lit(g, false), lit(b, true)]);
        p.add_clause(&[lit(a, false), lit(b, false), lit(g, true)]);
        p.freeze(Var::from_index(a));
        p.freeze(Var::from_index(b));
        let raw = [
            vec![lit(g, false), lit(a, true)],
            vec![lit(g, false), lit(b, true)],
            vec![lit(a, false), lit(b, false), lit(g, true)],
        ];
        let r = p.run();
        assert_eq!(r.stats.elim_vars, 1);
        assert!(r.clauses.is_empty());
        // Every frozen assignment, a model of the empty output, extends
        // to a model of the raw clauses (g = a & b).
        for m in 0..4u8 {
            let frozen = [lit(a, m & 1 != 0), lit(b, m & 2 != 0)];
            assert_eq!(sat_of(&raw, 3, &frozen), SolveResult::Sat, "model {m:#b}");
        }
    }

    #[test]
    fn frozen_variables_survive() {
        let mut p = Preprocessor::new(3);
        p.add_clause(&[lit(2, false), lit(0, true)]);
        p.add_clause(&[lit(2, true), lit(1, true)]);
        for v in 0..3 {
            p.freeze(Var::from_index(v));
        }
        let r = p.run();
        assert_eq!(r.stats.elim_vars, 0);
        assert_eq!(r.clauses.len(), 2);
    }

    /// The core contract on random CNF: equisatisfiable under every
    /// assumption set over frozen variables, and every model of the
    /// simplified set extends to one of the original clauses: they are
    /// satisfiable under the model's values of the frozen variables.
    #[test]
    fn random_cnf_equisat_and_reconstruction() {
        let mut rng = StdRng::seed_from_u64(0x5A7E117E);
        for round in 0..200 {
            let nvars = rng.gen_range(2..=10usize);
            let nclauses = rng.gen_range(1..=30usize);
            let nfrozen = rng.gen_range(1..=nvars);
            let mut cnf: Vec<Vec<Lit>> = Vec::new();
            let mut p = Preprocessor::new(nvars);
            for v in 0..nfrozen {
                p.freeze(Var::from_index(v));
            }
            for _ in 0..nclauses {
                let len = rng.gen_range(1..=4usize);
                let cl: Vec<Lit> = (0..len)
                    .map(|_| lit(rng.gen_range(0..nvars), rng.gen_bool(0.5)))
                    .collect();
                p.add_clause(&cl);
                cnf.push(cl);
            }
            let r = p.clone().run();
            let simp: Vec<Vec<Lit>> = r.clauses.clone();
            if r.unsat {
                assert_eq!(
                    sat_of(&cnf, nvars, &[]),
                    SolveResult::Unsat,
                    "round {round}: preproc-unsat formula was SAT"
                );
                continue;
            }
            for _ in 0..6 {
                let assumptions: Vec<Lit> = (0..rng.gen_range(0..=nfrozen))
                    .map(|_| lit(rng.gen_range(0..nfrozen), rng.gen_bool(0.5)))
                    .collect();
                let want = sat_of(&cnf, nvars, &assumptions);
                let got = sat_of(&simp, nvars, &assumptions);
                assert_eq!(
                    want, got,
                    "round {round}: cnf {cnf:?} simp {simp:?} assumptions {assumptions:?}"
                );
            }
            // Extension: solve the simplified set, then the original
            // clauses under the model's frozen values.
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            for c in &simp {
                s.add_clause(c);
            }
            if s.solve() == SolveResult::Sat {
                let frozen: Vec<Lit> = (0..nfrozen)
                    .map(|v| lit(v, s.value(lit(v, true)).unwrap_or(false)))
                    .collect();
                assert_eq!(
                    sat_of(&cnf, nvars, &frozen),
                    SolveResult::Sat,
                    "round {round}: cnf {cnf:?} has no model extending {frozen:?}"
                );
            }
        }
    }

    #[test]
    fn resolve_merges_and_detects_tautologies() {
        let pos = vec![lit(0, true), lit(1, true)];
        let neg = vec![lit(0, false), lit(2, true)];
        assert_eq!(
            resolve(&pos, &neg, Var::from_index(0)),
            Some(vec![lit(1, true), lit(2, true)])
        );
        let neg2 = vec![lit(0, false), lit(1, false)];
        assert_eq!(resolve(&pos, &neg2, Var::from_index(0)), None);
        // Shared literal is deduplicated.
        let neg3 = vec![lit(0, false), lit(1, true)];
        assert_eq!(
            resolve(&pos, &neg3, Var::from_index(0)),
            Some(vec![lit(1, true)])
        );
    }
}
