//! The historical one-solver-per-frame PDR, kept as the reference the
//! PDR tests compare against.
//!
//! This is the pre-single-solver architecture of [`crate::pdr`]: every
//! frame owns a private [`satb::Solver`] loaded with its own copy of
//! the shared [`TransitionTemplate`], blocking clauses are re-added to
//! every solver at or below their level, and each relative-induction
//! query leaks a fresh activation variable plus a kill-switch unit
//! clause into the queried frame solver. Deep runs therefore pay
//! O(frames × template) arena memory — exactly what the
//! activation-literal engine in [`crate::pdr`] eliminates.
//!
//! Property tests cross-check the two engines' verdicts on random
//! sequential AIGs, and the chaos, cone and certification tests run
//! this one beside [`crate::pdr`]. The `gates` bench binary checks the
//! memory claim on the bundled designs: wherever this engine got past
//! frame 0, the single-solver engine's peak arena must be strictly
//! smaller. Nothing else should use this engine.

use crate::certify::{clause_on, LatchClause};
use crate::result::{
    model_values, Blasted, Budget, CheckOutcome, Checker, EngineStats, Trace, Unknown, Verdict,
};
use aig::{AigSystem, TransitionTemplate};
use rtlir::TransitionSystem;
use satb::{Lit, Part, SolveResult, Solver};
use std::collections::BinaryHeap;
use std::time::Instant;

/// A cube: a partial assignment to latches, as (latch index, value)
/// pairs sorted by index.
type Cube = Vec<(usize, bool)>;

/// A SAT predecessor: (latch state, input vector) driving into a cube.
type Predecessor = (Vec<bool>, Vec<bool>);

/// One frame's SAT solver: a single copy of the transition relation,
/// loaded from the run's shared [`TransitionTemplate`] (no per-frame
/// re-Tseitin: creating a frame solver is an offset-mapped bulk load).
struct FrameSolver {
    solver: Solver,
    latch_lits: Vec<Lit>,
    next_lits: Vec<Lit>,
    input_lits: Vec<Lit>,
    bad_lits: Vec<Lit>,
    bad_lit: Lit,
}

impl FrameSolver {
    fn new(
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        inv: &[LatchClause],
        initialized: bool,
    ) -> FrameSolver {
        let mut solver = Solver::new();
        let vars = tpl.instantiate(&mut solver, Part::A, 0);
        // Certified static invariant: valid in every frame (initialized
        // or free), and required for soundness when the template was
        // refined under it.
        for clause in inv {
            solver.add_clause(&clause_on(clause, &vars.latch_cur));
        }
        if initialized {
            vars.assert_init(sys, &mut solver);
        }
        FrameSolver {
            solver,
            latch_lits: vars.latch_cur,
            next_lits: vars.latch_next,
            input_lits: vars.inputs,
            bad_lits: vars.bads,
            bad_lit: vars.any_bad,
        }
    }

    fn blocking_clause(&self, cube: &Cube) -> Vec<Lit> {
        cube.iter()
            .map(|&(i, v)| {
                if v {
                    !self.latch_lits[i]
                } else {
                    self.latch_lits[i]
                }
            })
            .collect()
    }

    fn add_blocking_clause(&mut self, cube: &Cube) {
        let clause = self.blocking_clause(cube);
        self.solver.add_clause(&clause);
    }

    /// Bulk-loads the blocking clauses of many cubes through the
    /// solver's reserved-arena path (used when a new frame solver is
    /// created and must absorb every clause valid at its level).
    fn add_blocking_clauses<'c>(&mut self, cubes: impl IntoIterator<Item = &'c Cube>) {
        let clauses: Vec<Vec<Lit>> = cubes.into_iter().map(|c| self.blocking_clause(c)).collect();
        let lits: usize = clauses.iter().map(Vec::len).sum();
        self.solver.reserve_clauses(clauses.len(), lits);
        self.solver.add_clauses(clauses.iter().map(Vec::as_slice));
    }

    fn model_state(&self) -> Vec<bool> {
        model_values(&self.solver, &self.latch_lits)
    }

    fn model_inputs(&self) -> Vec<bool> {
        model_values(&self.solver, &self.input_lits)
    }

    /// Index of the bad output that fired in the current model.
    fn fired_bad(&self) -> usize {
        self.bad_lits
            .iter()
            .position(|&l| self.solver.value(l) == Some(true))
            .unwrap_or(0)
    }
}

/// A proof obligation: the full model state `cube` must be excluded
/// from frame `level`, or a counterexample exists. `parent` points into
/// the obligation arena for trace reconstruction; `inputs_to_parent`
/// drives `cube` into the parent.
#[derive(Clone, Debug)]
struct Obligation {
    level: u32,
    cube: Cube,
    parent: Option<usize>,
    inputs_to_parent: Vec<bool>,
    /// Inputs under which the *bad output itself* fires (only for the
    /// root obligation extracted from the bad query).
    bad_inputs: Vec<bool>,
    bad_index: usize,
}

#[derive(PartialEq, Eq)]
struct QueueEntry {
    level: u32,
    seq: u64,
    arena_index: usize,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (level, seq) via reversed comparison.
        other.level.cmp(&self.level).then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The per-frame-solver PDR baseline.
#[derive(Clone, Debug, Default)]
pub struct PerFramePdr {
    /// Resource limits (`max_depth` bounds the number of frames).
    pub budget: Budget,
}

impl PerFramePdr {
    /// Creates a baseline PDR engine with the given budget.
    pub fn new(budget: Budget) -> PerFramePdr {
        PerFramePdr { budget }
    }
}

struct PdrRun<'s> {
    sys: &'s AigSystem,
    tpl: &'s TransitionTemplate,
    inv: &'s [LatchClause],
    budget: Budget,
    started: Instant,
    solvers: Vec<FrameSolver>,
    /// Delta-encoded frames: `frames[i]` holds cubes whose blocking
    /// clause is valid in frames `1..=i` (index 0 unused).
    frames: Vec<Vec<Cube>>,
    stats: EngineStats,
    seq: u64,
}

enum BlockResult {
    Blocked,
    Cex(Trace),
    Stopped(Unknown),
}

/// Answer of one relative-induction query.
enum RelQuery {
    /// SAT: a predecessor state (with inputs) reaches the cube.
    Pred(Predecessor),
    /// UNSAT: the cube is blocked; the generalized core cube.
    Blocked(Cube),
    /// The solver hit a limit; the engine-level reason.
    Stopped(Unknown),
}

impl<'s> PdrRun<'s> {
    fn state_to_cube(state: &[bool]) -> Cube {
        state.iter().enumerate().map(|(i, &v)| (i, v)).collect()
    }

    /// Whether the cube intersects the initial states (i.e. it contains
    /// no literal that disagrees with a fixed reset value).
    fn cube_intersects_init(&self, cube: &Cube) -> bool {
        !cube
            .iter()
            .any(|&(i, v)| self.sys.latches[i].init.is_some_and(|init| init != v))
    }

    fn ensure_solver(&mut self, level: usize) {
        while self.solvers.len() <= level {
            let initialized = self.solvers.is_empty();
            let mut fs = FrameSolver::new(self.sys, self.tpl, self.inv, initialized);
            // New frame solvers must contain every clause valid at
            // their level: F_i = ∪_{j>=i} frames[j]. The whole reload
            // goes through the solver's bulk-add path.
            let lvl = self.solvers.len();
            fs.add_blocking_clauses(
                self.frames
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j >= lvl)
                    .flat_map(|(_, cubes)| cubes.iter()),
            );
            self.solvers.push(fs);
        }
    }

    /// Runs the PDR loop, then folds every frame solver's statistics
    /// into the outcome.
    fn solve(mut self) -> CheckOutcome {
        let (verdict, certificate) = self.search();
        for f in &self.solvers {
            self.stats.absorb_solver(&f.solver.stats());
        }
        CheckOutcome {
            certificate,
            ..CheckOutcome::finish(verdict, self.stats, self.started)
        }
    }

    /// The top-level PDR loop: the verdict and, for Safe, its witness.
    fn search(&mut self) -> (Verdict, Option<crate::certify::Certificate>) {
        let started = self.started;
        // Level 0: Init ∧ Bad?
        self.ensure_solver(0);
        self.stats.sat_queries += 1;
        let bad0 = self.solvers[0].bad_lit;
        let limits = self.budget.sat_limits(started);
        match self.solvers[0].solver.solve_limited(&[bad0], limits) {
            SolveResult::Sat => {
                let trace = Trace::simulate(
                    self.sys,
                    self.solvers[0].model_state(),
                    vec![self.solvers[0].model_inputs()],
                    self.solvers[0].fired_bad(),
                );
                return (Verdict::Unsafe(trace), None);
            }
            SolveResult::Unknown(why) => return (Verdict::Unknown(why.into()), None),
            SolveResult::Unsat => {}
        }

        let mut max_level: usize = 1;
        loop {
            if let Some(u) = self.budget.interruption(started) {
                return (Verdict::Unknown(u), None);
            }
            if max_level as u32 > self.budget.max_depth {
                return (Verdict::Unknown(Unknown::BoundReached), None);
            }
            self.stats.depth = max_level as u32;
            self.ensure_solver(max_level);

            // Find a bad state in F_max.
            self.stats.sat_queries += 1;
            let bad = self.solvers[max_level].bad_lit;
            let limits = self.budget.sat_limits(started);
            match self.solvers[max_level].solver.solve_limited(&[bad], limits) {
                SolveResult::Sat => {
                    let state = self.solvers[max_level].model_state();
                    let bad_inputs = self.solvers[max_level].model_inputs();
                    let bad_index = self.solvers[max_level].fired_bad();
                    let cube = PdrRun::state_to_cube(&state);
                    if self.cube_intersects_init(&cube) {
                        // Bad state inside init was excluded at level 0
                        // unless it needs inputs; treat as cex directly.
                        let trace = Trace::simulate(self.sys, state, vec![bad_inputs], bad_index);
                        return (Verdict::Unsafe(trace), None);
                    }
                    let root = Obligation {
                        level: max_level as u32,
                        cube,
                        parent: None,
                        inputs_to_parent: Vec::new(),
                        bad_inputs,
                        bad_index,
                    };
                    match self.block_obligations(root, max_level) {
                        BlockResult::Blocked => {}
                        BlockResult::Cex(trace) => {
                            return (Verdict::Unsafe(trace), None);
                        }
                        BlockResult::Stopped(u) => {
                            return (Verdict::Unknown(u), None);
                        }
                    }
                }
                SolveResult::Unsat => {
                    // Frame clear: extend and propagate.
                    max_level += 1;
                    self.ensure_solver(max_level);
                    match self.propagate(max_level) {
                        Ok(Some(level)) => {
                            let cert = self.export_invariant(level);
                            return (Verdict::Safe, Some(cert));
                        }
                        Ok(None) => {}
                        Err(u) => return (Verdict::Unknown(u), None),
                    }
                }
                SolveResult::Unknown(why) => {
                    return (Verdict::Unknown(why.into()), None);
                }
            }
        }
    }

    fn add_blocked(&mut self, cube: Cube, level: usize) {
        while self.frames.len() <= level {
            self.frames.push(Vec::new());
        }
        for i in 1..=level.min(self.solvers.len() - 1) {
            self.solvers[i].add_blocking_clause(&cube);
        }
        self.frames[level].push(cube);
    }

    /// Relative-induction query: is `cube` (as next-state) reachable
    /// from `F_{level-1} ∧ ¬cube`? On UNSAT returns the generalized
    /// core cube.
    fn query_relative(&mut self, cube: &Cube, level: usize) -> RelQuery {
        let fs = &mut self.solvers[level - 1];
        // Temporary ¬cube clause guarded by an activation literal.
        let act = Lit::pos(fs.solver.new_var());
        let mut clause: Vec<Lit> = vec![!act];
        for &(i, v) in cube {
            clause.push(if v {
                !fs.latch_lits[i]
            } else {
                fs.latch_lits[i]
            });
        }
        fs.solver.add_clause(&clause);
        let mut assumptions = vec![act];
        for &(i, v) in cube {
            assumptions.push(if v { fs.next_lits[i] } else { !fs.next_lits[i] });
        }
        self.stats.sat_queries += 1;
        let limits = self.budget.sat_limits(self.started);
        let result = fs.solver.solve_limited(&assumptions, limits);
        match result {
            SolveResult::Sat => {
                let state = fs.model_state();
                let inputs = fs.model_inputs();
                fs.solver.add_clause(&[!act]);
                RelQuery::Pred((state, inputs))
            }
            SolveResult::Unsat => {
                let failed: Vec<Lit> = fs.solver.failed_assumptions().to_vec();
                fs.solver.add_clause(&[!act]);
                // Keep cube literals whose next-state assumption is in
                // the failed core.
                let mut core: Cube = cube
                    .iter()
                    .filter(|&&(i, v)| {
                        let al = if v {
                            self.solvers[level - 1].next_lits[i]
                        } else {
                            !self.solvers[level - 1].next_lits[i]
                        };
                        failed.contains(&al)
                    })
                    .copied()
                    .collect();
                // The generalized cube must still exclude the initial
                // states; re-add a disagreeing literal if the core lost
                // them all.
                if self.cube_intersects_init(&core) {
                    if let Some(&lit) = cube
                        .iter()
                        .find(|&&(i, v)| self.sys.latches[i].init.is_some_and(|init| init != v))
                    {
                        core.push(lit);
                        core.sort_unstable();
                    }
                }
                RelQuery::Blocked(core)
            }
            SolveResult::Unknown(why) => {
                fs.solver.add_clause(&[!act]);
                RelQuery::Stopped(why.into())
            }
        }
    }

    /// Tries to drop further literals from a relatively-inductive cube.
    fn shrink(&mut self, mut cube: Cube, level: usize) -> Result<Cube, Unknown> {
        let mut i = 0;
        while i < cube.len() {
            if cube.len() <= 1 {
                break;
            }
            if let Some(u) = self.budget.interruption(self.started) {
                return Err(u);
            }
            let mut candidate = cube.clone();
            candidate.remove(i);
            if self.cube_intersects_init(&candidate) {
                i += 1;
                continue;
            }
            match self.query_relative(&candidate, level) {
                RelQuery::Blocked(core) => {
                    cube = if self.cube_intersects_init(&core) {
                        candidate
                    } else {
                        core
                    };
                    i = 0;
                }
                RelQuery::Pred(_) => {
                    i += 1;
                }
                RelQuery::Stopped(u) => return Err(u),
            }
        }
        Ok(cube)
    }

    /// Rebuilds the counterexample by simulation from `init_state`
    /// under the obligations' recorded inputs ([`Trace::simulate`]):
    /// the obligation states are model states, exact only on the latches
    /// in the property's cone of influence.
    fn reconstruct_trace(
        &self,
        arena: &[Obligation],
        leaf: usize,
        init_state: Vec<bool>,
        init_inputs: Vec<bool>,
    ) -> Trace {
        let mut inputs = vec![init_inputs];
        let mut cur = Some(leaf);
        let mut bad_index = 0;
        while let Some(i) = cur {
            let ob = &arena[i];
            if ob.parent.is_some() {
                inputs.push(ob.inputs_to_parent.clone());
            } else {
                inputs.push(ob.bad_inputs.clone());
                bad_index = ob.bad_index;
            }
            cur = ob.parent;
        }
        Trace::simulate(self.sys, init_state, inputs, bad_index)
    }

    /// Blocks all bad states reachable within `level` frames.
    fn block_obligations(&mut self, root: Obligation, max_level: usize) -> BlockResult {
        let mut arena: Vec<Obligation> = vec![root];
        let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::new();
        queue.push(QueueEntry {
            level: arena[0].level,
            seq: self.next_seq(),
            arena_index: 0,
        });
        while let Some(entry) = queue.pop() {
            if let Some(u) = self.budget.interruption(self.started) {
                return BlockResult::Stopped(u);
            }
            let (level, cube) = {
                let ob = &arena[entry.arena_index];
                (ob.level as usize, ob.cube.clone())
            };
            // Already blocked by a stronger clause?
            if self.cube_is_blocked(&cube, level) {
                continue;
            }
            if level == 0 {
                unreachable!("level-0 obligations are resolved at creation");
            }
            match self.query_relative(&cube, level) {
                RelQuery::Stopped(u) => return BlockResult::Stopped(u),
                RelQuery::Pred((pred_state, pred_inputs)) => {
                    // A predecessor exists in F_{level-1}.
                    if level == 1 {
                        // Predecessor lies in the initial states: cex.
                        return BlockResult::Cex(self.reconstruct_trace(
                            &arena,
                            entry.arena_index,
                            pred_state,
                            pred_inputs,
                        ));
                    }
                    let pred = Obligation {
                        level: level as u32 - 1,
                        cube: Self::state_to_cube(&pred_state),
                        parent: Some(entry.arena_index),
                        inputs_to_parent: pred_inputs,
                        bad_inputs: Vec::new(),
                        bad_index: 0,
                    };
                    arena.push(pred);
                    let pi = arena.len() - 1;
                    // Re-enqueue both: the predecessor (one level down)
                    // and the original obligation.
                    queue.push(QueueEntry {
                        level: level as u32 - 1,
                        seq: self.next_seq(),
                        arena_index: pi,
                    });
                    queue.push(QueueEntry {
                        level: level as u32,
                        seq: self.next_seq(),
                        arena_index: entry.arena_index,
                    });
                }
                RelQuery::Blocked(core) => {
                    // Blocked: generalize further and store the clause.
                    let gen = match self.shrink(core, level) {
                        Ok(g) => g,
                        Err(u) => return BlockResult::Stopped(u),
                    };
                    // Push the clause as far forward as it stays
                    // relatively inductive.
                    let mut at = level;
                    while at < max_level {
                        match self.query_relative(&gen, at + 1) {
                            RelQuery::Blocked(_) => at += 1,
                            RelQuery::Pred(_) => break,
                            RelQuery::Stopped(u) => return BlockResult::Stopped(u),
                        }
                    }
                    self.add_blocked(gen, at);
                    // Re-enqueue at the next level to chase deeper cex.
                    if (at as u32) < max_level as u32 {
                        let ob = arena[entry.arena_index].clone();
                        arena.push(Obligation {
                            level: at as u32 + 1,
                            ..ob
                        });
                        queue.push(QueueEntry {
                            level: at as u32 + 1,
                            seq: self.next_seq(),
                            arena_index: arena.len() - 1,
                        });
                    }
                }
            }
        }
        BlockResult::Blocked
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn cube_is_blocked(&mut self, cube: &Cube, level: usize) -> bool {
        // Syntactic check: some stored cube at >= level subsumes it.
        for (j, cubes) in self.frames.iter().enumerate() {
            if j < level {
                continue;
            }
            for c in cubes {
                if c.iter().all(|l| cube.contains(l)) {
                    return true;
                }
            }
        }
        false
    }

    /// Propagates clauses forward; returns the fixpoint level when two
    /// adjacent frames coincide (`frames[i]` emptied means
    /// `F_i = F_{i+1}`).
    fn propagate(&mut self, max_level: usize) -> Result<Option<usize>, Unknown> {
        for i in 1..max_level {
            let cubes = self.frames.get(i).cloned().unwrap_or_default();
            for cube in cubes {
                if let Some(u) = self.budget.interruption(self.started) {
                    return Err(u);
                }
                match self.query_relative(&cube, i + 1) {
                    RelQuery::Blocked(_) => {
                        // Holds one frame further: move it forward.
                        if let Some(pos) = self.frames[i].iter().position(|c| c == &cube) {
                            self.frames[i].remove(pos);
                        }
                        self.add_blocked(cube, i + 1);
                    }
                    RelQuery::Pred(_) => {}
                    RelQuery::Stopped(u) => return Err(u),
                }
            }
            if self.frames.get(i).is_none_or(Vec::is_empty) {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// The fixpoint frame `F_level` as a Safe-verdict witness (same
    /// delta-encoded export as single-solver PDR).
    fn export_invariant(&self, level: usize) -> crate::certify::Certificate {
        let mut clauses: Vec<LatchClause> = self
            .frames
            .iter()
            .skip(level)
            .flatten()
            .map(|cube| cube.iter().map(|&(i, v)| (i, !v)).collect())
            .collect();
        // The frame clauses are inductive only relative to the static
        // invariant asserted in every frame solver; fold it into the
        // exported witness so the certificate stands on its own.
        clauses.extend(self.inv.iter().cloned());
        crate::certify::Certificate::Clausal(crate::certify::ClausalInvariant { clauses })
    }
}

impl Checker for PerFramePdr {
    fn name(&self) -> &'static str {
        "pdr-frames"
    }

    fn check(&self, ts: &TransitionSystem) -> CheckOutcome {
        let sys = aig::blast_system(ts);
        // Compile once, simplify once: every frame this run
        // instantiates inherits the preprocessed image.
        let tpl = TransitionTemplate::compile(&sys).preprocess().template;
        self.run(&sys, &tpl, &[])
    }

    fn check_blasted(&self, _ts: &TransitionSystem, blasted: &Blasted) -> CheckOutcome {
        self.run(&blasted.sys, &blasted.template, blasted.strengthening())
    }
}

impl PerFramePdr {
    pub(crate) fn run(
        &self,
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        inv: &[LatchClause],
    ) -> CheckOutcome {
        PdrRun {
            sys,
            tpl,
            inv,
            budget: self.budget.clone(),
            started: Instant::now(),
            solvers: Vec::new(),
            frames: vec![Vec::new()],
            stats: EngineStats::default(),
            seq: 0,
        }
        .solve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the pre-template behaviour: every new frame
    /// solver is a constant-size bulk load of the shared template (plus
    /// the blocked clauses valid at its level) — `ensure_solver` must
    /// not re-run Tseitin per frame or grow with the frame index.
    #[test]
    fn ensure_solver_adds_constant_clauses_per_frame() {
        let ts = crate::bmc::tests::counter_ts(200, 8);
        let sys = aig::blast_system(&ts);
        let tpl = TransitionTemplate::compile(&sys);
        let mut run = PdrRun {
            sys: &sys,
            tpl: &tpl,
            inv: &[],
            budget: Budget {
                timeout: None,
                ..Budget::default()
            },
            started: Instant::now(),
            solvers: Vec::new(),
            frames: vec![Vec::new()],
            stats: EngineStats::default(),
            seq: 0,
        };
        run.ensure_solver(6);
        let counts: Vec<usize> = run.solvers.iter().map(|f| f.solver.num_clauses()).collect();
        // No blocked cubes were added, so frames 1.. are pure template
        // loads: identical clause counts, bounded by the template size.
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert_eq!(c, counts[1], "frame solver {i} deviates: {counts:?}");
            assert!(c <= tpl.num_frame_clauses());
        }
    }

    /// The baseline stays a working engine: it is the reference side of
    /// the verdict cross-check tests and of the `gates` arena check.
    #[test]
    fn baseline_still_verifies() {
        let ts = crate::kind::tests::trap_ts();
        let out = PerFramePdr::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
        for depth in [0u64, 3] {
            let ts = crate::bmc::tests::counter_ts(depth, 8);
            match PerFramePdr::default().check(&ts).outcome {
                Verdict::Unsafe(trace) => {
                    assert_eq!(trace.length() as u64, depth);
                    let sys = aig::blast_system(&ts);
                    assert!(trace.replays_on(&sys));
                }
                other => panic!("expected Unsafe at depth {depth}, got {other:?}"),
            }
        }
    }
}
