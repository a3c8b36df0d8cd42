//! IC3 / Property Directed Reachability (Bradley 2011, Eén et al. 2011)
//! over a **single incremental SAT solver**.
//!
//! The "ABC-pdr" configuration of the paper's Figure 5 — the engine the
//! paper finds to be the only one proving the hard FIFO and BufAl
//! benchmarks. Frames of blocked cubes over-approximate the states
//! reachable in at most `i` steps; proof obligations are discharged by
//! relative-induction queries with unsat-core generalization, and
//! clauses are propagated forward until two adjacent frames coincide.
//!
//! # Architecture: one solver, activation-literal frame indexing
//!
//! Where the historical engine ([`crate::pdr_baseline`]) gave every
//! frame a private solver with its own copy of the transition relation,
//! this engine loads the shared [`TransitionTemplate`] **once** into
//! one incremental [`satb::Solver`] and selects frame context with
//! activation literals, the way modern IC3 implementations and
//! portfolio verifiers (CPAchecker 3.0, rIC3) drive one solver per
//! analysis:
//!
//! * Frame `i` owns a persistent activation variable `act_i`. The
//!   blocking clause of a cube stored at level `j` (valid in frames
//!   `1..=j`, delta encoding) is guarded as `¬act_j ∨ ¬cube`; the
//!   frame-0 initial-state units are guarded by `act_0`. Because
//!   `F_i = ∪_{j≥i} frames[j]`, a query against `F_i` simply assumes
//!   the **tail** `act_i, act_{i+1}, …, act_N`.
//! * The solver holds **one clause per live cube**. A cube stored at
//!   level `j` prunes every stored cube it subsumes at a level
//!   `i <= j`: weaker cubes, and the copy a push leaves one frame down
//!   (pushes in propagation, pushes after a block, ctg blocks while
//!   shrinking). Each pruned cube's clause is retired with
//!   [`satb::Solver::remove_clause_activated`], together with every
//!   learned clause that mentions its frame guard `act_i`. Dropping
//!   those is what keeps the retirement sound: a frame guard occurs
//!   only negatively in clauses, so every clause learned from the
//!   retired one still contains `¬act_i`, and every learned clause
//!   left is implied by the clauses left. The frame's other learned
//!   consequences go too, and the search re-derives what it needs.
//!   Every query then propagates through a database the size of the
//!   frames rather than of their history. A retirement the solver
//!   refuses keeps a clause the pruning cube implies: sound, merely
//!   slower.
//! * Each relative-induction query needs a temporary `¬cube` clause.
//!   Instead of the leak-a-var-and-unit-clause-per-query pattern, the
//!   clause is guarded by a **recycled** activation variable from
//!   [`satb::Solver::new_activation`]: after the query,
//!   [`satb::Solver::release_activation`] frees the clause (and any
//!   learned clause derived from it) and returns the variable to a
//!   free-list. Peak arena memory no longer scales with frames ×
//!   template, and [`EngineStats::act_recycled`] makes the reuse
//!   observable.
//! * The template the run loads is the **preprocessed** clause image
//!   ([`TransitionTemplate::preprocess`]). Everything this engine
//!   assumes or guards lives outside the template's eliminable set:
//!   blocking clauses, initial-state units and obligation assumptions
//!   range over latch-current/next literals (frozen by the template's
//!   interface freeze set), and the frame/query activation variables
//!   are fresh solver-side variables that never existed in the
//!   template — so PDR's activation/assumption footprint is frozen by
//!   construction and the simplification cannot touch it.
//!
//! # Cube generalization by ternary simulation
//!
//! SAT answers (a bad state in `F_N`, or a predecessor driving into an
//! obligation cube) are widened with three-valued simulation
//! ([`aig::sim::TernarySim`]) before becoming proof obligations: each
//! latch literal is X-ed out and dropped when the fired bad output /
//! the next-state bits targeted by the parent cube (and every
//! environment constraint) keep their definite values, and the cube
//! stays disjoint from the initial states. One query then blocks many
//! states ([`EngineStats::ternary_drops`] counts the width gained).
//! UNSAT answers keep the failed-assumption core generalization — when
//! simulation has nothing to offer (it never applies to UNSAT results),
//! the engine falls back to exactly the historical shrinking. Because
//! obligation cubes now cover many states, counterexample traces are
//! reconstructed by *re-simulating* the netlist from the initial
//! predecessor through each obligation's recorded inputs, which the
//! ternary guarantee makes valid for every state in each cube.
//!
//! # Standing predecessors
//!
//! Most relative-induction queries are satisfiable: a push that fails,
//! a literal drop that fails, a counterexample to generalization (ctg)
//! that cannot be blocked. Many of them ask again a question an earlier
//! predecessor still answers. A predecessor `(s, x)` found with a model
//! whose next state is `t` is **standing** at level `L` while no cube
//! stored at a level `≥ L−1` contains `s`. It answers the query
//! `F_{L−1} ∧ ¬c ∧ T ∧ c′` of any cube `c` that contains `t` and not
//! `s`, the cube it was found for included, while it stands there. No
//! solver is called then ([`EngineStats::preds_reused`] counts these
//! answers).
//!
//! The answer is exact. Frames only gain cubes, and a pruned cube gives
//! way to one that blocks a superset of its states at a level at least
//! as high, so `F_{L−1}` only shrinks as a set of states; the
//! invariant and the transition relation do not change. A standing `s`
//! lies in `F_{L−1}`, and with `x`, `t` and the rest of its model it
//! satisfies `T`. With `s ∉ c` and `t ∈ c` the model satisfies the
//! query, as an answer the solver could have returned. Only the solver
//! call is skipped, with the learned clauses and activity it would have
//! left. Debug builds re-check every reuse by one two-valued step of
//! the netlist.
//!
//! Each predecessor lives only as long as a structure the engine keeps
//! anyway, so memory stays bounded:
//!
//! * **Propagation.** Each stored cube keeps the predecessor that last
//!   refused its push from level `i` to `i + 1` during propagation: at
//!   most one per live cube. Before a push is queried, the cube's own
//!   predecessor and then those of the other cubes at its level are
//!   tried. The predecessor leaves with its cube, when the cube is
//!   pruned or a push prunes the copy it left behind.
//! * **Shrinking.** Within one call of the cube shrinker, each
//!   predecessor a query finds is kept with the query's level and tried
//!   on every later query at that level: a drop attempt that fails for
//!   the same reason in a later round, and the ctg check that follows
//!   it. The memory is emptied when the call returns.
//!
//! Wider scopes were measured on the FIFO and BufAl controllers and
//! left out. Also keeping the predecessor of a push that fails right
//! after a block answered more queries, yet made more solver calls and
//! ran slower. One memory for every query class, cleared when a frame
//! opens, or one never cleared, saved more calls but let memory grow
//! with the run.

use crate::certify::{clause_on, LatchClause};
use crate::result::{
    model_values, Blasted, Budget, CheckOutcome, Checker, EngineStats, Trace, Unknown, Verdict,
};
use aig::sim::{Tern, TernarySim};
use aig::{AigLit, AigSystem, TransitionTemplate};
use rtlir::TransitionSystem;
use satb::{Lit, Part, SolveResult, Solver};
use std::collections::BinaryHeap;
use std::time::Instant;

/// A cube: a partial assignment to latches, as (latch index, value)
/// pairs sorted by index.
type Cube = Vec<(usize, bool)>;

/// Maximum counterexamples-to-generalization blocked per literal-drop
/// attempt in [`PdrRun::shrink`] (rIC3 ctg-down, depth 1).
const MAX_CTGS: usize = 3;

/// A SAT predecessor: a latch state and an input vector that drive into
/// a cube, with the next state of the model that found them.
#[derive(Clone, Debug)]
struct Predecessor {
    state: Vec<bool>,
    inputs: Vec<bool>,
    next: Vec<bool>,
}

/// A cube stored in a frame, with the predecessor that last refused its
/// push one frame up in propagation (see [standing
/// predecessors](self#standing-predecessors)).
#[derive(Debug)]
struct Lemma {
    cube: Cube,
    push_pred: Option<Predecessor>,
}

/// SplitMix64 finalizer: a cheap, stateless per-latch hash that breaks
/// activity ties in the shrink order.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether every literal of `small` occurs in `big` (both sorted by
/// latch index): the blocking clause of `small` implies `big`'s.
fn subsumes(small: &Cube, big: &Cube) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut j = 0;
    'literals: for &(i, v) in small {
        while j < big.len() {
            let (bi, bv) = big[j];
            j += 1;
            if bi == i {
                if bv == v {
                    continue 'literals;
                }
                return false;
            }
            if bi > i {
                return false;
            }
        }
        return false;
    }
    true
}

/// The blocking clause `¬cube` over the latch literals `latch_lits`.
fn blocking_clause(latch_lits: &[Lit], cube: &Cube) -> Vec<Lit> {
    cube.iter()
        .map(|&(i, v)| if v { !latch_lits[i] } else { latch_lits[i] })
        .collect()
}

/// A proof obligation: every state of `cube` reaches a violation, so
/// the cube must be excluded from frame `level` — or a counterexample
/// exists. `parent` points into the obligation arena;
/// `inputs_to_parent` drives *any* state of the cube into the parent
/// cube (the ternary-simulation guarantee).
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
        // Min-heap on level; among equal levels pop the *newest*
        // obligation first (reverse-chronological). Deep runs then
        // chase a freshly discovered predecessor chain depth-first
        // instead of round-robining over stale same-level obligations,
        // which keeps the relevant clauses hot in the solver and finds
        // counterexamples without re-proving old frontiers.
        other.level.cmp(&self.level).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// IC3/PDR engine.
///
/// Every run makes the same search: ternary widening and SAT-core
/// lifting of predecessors, activity-ordered cube shrinking with
/// ctg-down, and one solver clause per live cube.
#[derive(Clone, Debug, Default)]
pub struct Pdr {
    /// Resource limits (`max_depth` bounds the number of frames).
    pub budget: Budget,
}

impl Pdr {
    /// Creates a PDR engine with the given budget.
    pub fn new(budget: Budget) -> Pdr {
        Pdr { budget }
    }
}

struct PdrRun<'s> {
    sys: &'s AigSystem,
    /// Certified static invariant, asserted unguarded on the latch
    /// current-state literals (valid in every frame context, F∞
    /// included) and appended to the exported fixpoint certificate.
    inv: &'s [LatchClause],
    budget: Budget,
    started: Instant,
    /// The run's only solver: one template load, context-selected.
    solver: Solver,
    /// Current-state literal per latch.
    latch_lits: Vec<Lit>,
    /// Next-state literal per latch.
    next_lits: Vec<Lit>,
    /// The latches the template's bads and constraints observe
    /// ([`TransitionTemplate::latch_coi`]), the only ones obligation
    /// cubes range over: a cone-cut template leaves the next state of
    /// every other latch free.
    cone: Vec<bool>,
    input_lits: Vec<Lit>,
    bad_lits: Vec<Lit>,
    bad_lit: Lit,
    /// Frame activation literals: `acts[i]` guards the clauses stored
    /// at level `i` (and, for `i == 0`, the initial-state units).
    acts: Vec<Lit>,
    /// Delta-encoded frames: `frames[i]` holds cubes whose blocking
    /// clause is valid in frames `1..=i` (index 0 unused). Cubes are
    /// kept sorted and mutually non-subsumed.
    frames: Vec<Vec<Lemma>>,
    /// The predecessors found by the current [`shrink`](Self::shrink)
    /// call, with the level of their query; empty between calls.
    shrink_preds: Vec<(usize, Predecessor)>,
    /// Ternary evaluator over the latch cone, shared by all trials.
    sim: TernarySim,
    /// Scratch three-valued state for generalization trials.
    state_t: Vec<Tern>,
    /// Scratch assumption vector (frame tail + query literals).
    assumptions: Vec<Lit>,
    /// Scratch target-output list for ternary trials.
    targets: Vec<(AigLit, bool)>,
    stats: EngineStats,
    seq: u64,
    /// Per-latch activity for shrink ordering: bumped when a latch
    /// appears in a freshly blocked cube, decayed multiplicatively.
    activity: Vec<f64>,
    /// Current activity bump increment (MiniSat-style rescaling).
    act_inc: f64,
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
    fn new(
        sys: &'s AigSystem,
        tpl: &TransitionTemplate,
        inv: &'s [LatchClause],
        budget: Budget,
    ) -> PdrRun<'s> {
        let started = Instant::now();
        let mut solver = Solver::new();
        let vars = tpl.instantiate(&mut solver, Part::A, 0);
        // The invariant holds in every frame — F_0 = Init satisfies it
        // by initiation, every F_i may assume it by consecution — so
        // its clauses are asserted unguarded: they seed F∞ directly
        // and prune every relative-induction query.
        for clause in inv {
            solver.add_clause(&clause_on(clause, &vars.latch_cur));
        }
        let mut run = PdrRun {
            sys,
            inv,
            budget,
            started,
            solver,
            latch_lits: vars.latch_cur,
            next_lits: vars.latch_next,
            cone: tpl.latch_coi(),
            input_lits: vars.inputs,
            bad_lits: vars.bads,
            bad_lit: vars.any_bad,
            acts: Vec::new(),
            frames: vec![Vec::new()],
            shrink_preds: Vec::new(),
            sim: TernarySim::new(sys),
            state_t: vec![Tern::X; sys.latches.len()],
            assumptions: Vec::new(),
            targets: Vec::new(),
            stats: EngineStats::default(),
            seq: 0,
            activity: vec![0.0; sys.latches.len()],
            act_inc: 1.0,
        };
        run.ensure_act(0);
        // Initial-state units, guarded by the frame-0 activation
        // group so deeper contexts are free of them.
        let act0 = run.acts[0];
        for (i, latch) in sys.latches.iter().enumerate() {
            if let Some(init) = latch.init {
                let l = run.latch_lits[i];
                run.solver
                    .add_clause_activated(act0, &[if init { l } else { !l }]);
            }
        }
        run
    }

    /// Creates frame activation groups up to `level`. Frames are
    /// proper activation groups ([`satb::Solver::new_activation`]) so
    /// stored clauses ride the same registered-guard machinery as query
    /// clauses; frame groups are simply never released.
    fn ensure_act(&mut self, level: usize) {
        while self.acts.len() <= level {
            let act = self.solver.new_activation();
            self.acts.push(act);
        }
    }

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

    /// Runs the PDR loop, then folds the solver's statistics into the
    /// outcome.
    fn solve(&mut self) -> CheckOutcome {
        let (verdict, certificate) = self.search();
        self.stats.absorb_solver(&self.solver.stats());
        CheckOutcome {
            certificate,
            ..CheckOutcome::finish(verdict, self.stats.clone(), self.started)
        }
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

    /// Assumption prefix selecting frame context `F_level`: the tail of
    /// frame activation literals from `level` up.
    fn push_frame_tail(&mut self, level: usize) {
        self.assumptions.clear();
        self.assumptions.extend(self.acts[level..].iter().copied());
    }

    /// Runs the prepared query (`self.assumptions`) under the run's
    /// budget.
    fn solve_prepared(&mut self) -> SolveResult {
        let limits = self.budget.sat_limits(self.started);
        self.solver.solve_limited(&self.assumptions, limits)
    }

    /// Stores a blocked cube at `level`: one guarded solver clause
    /// (through the prenormalized cube-import fast path — cube literals
    /// are sorted over distinct latches by construction). Every stored
    /// cube the new one subsumes at a level it covers is pruned, and
    /// its solver clause retired with the learned clauses its frame
    /// guard taints, so the solver holds one clause per live cube, and
    /// each pruned cube's push predecessor leaves with it.
    fn add_blocked(&mut self, cube: Cube, level: usize) {
        while self.frames.len() <= level {
            self.frames.push(Vec::new());
        }
        let clause = blocking_clause(&self.latch_lits, &cube);
        self.solver
            .add_clause_activated_prenormalized(self.acts[level], &clause);
        self.bump_activity(&cube);
        for j in 1..=level {
            // A refused retirement keeps a clause the new one implies:
            // sound, merely slower.
            for d in self.frames[j].extract_if(.., |d| subsumes(&cube, &d.cube)) {
                let clause = blocking_clause(&self.latch_lits, &d.cube);
                self.solver.remove_clause_activated(self.acts[j], &clause);
            }
        }
        self.frames[level].push(Lemma {
            cube,
            push_pred: None,
        });
    }

    /// Bumps the shrink-ordering activity of every latch in a freshly
    /// blocked cube (rIC3 `activity.rs` style): the increment grows
    /// multiplicatively, which decays older bumps, and everything is
    /// rescaled before the counters overflow.
    fn bump_activity(&mut self, cube: &Cube) {
        for &(i, _) in cube {
            self.activity[i] += self.act_inc;
        }
        self.act_inc /= 0.99;
        if self.act_inc > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// Syntactic blocked-check: some stored cube at `>= level` subsumes
    /// the query cube (sorted two-pointer scan, short-circuiting).
    fn cube_is_blocked(&self, cube: &Cube, level: usize) -> bool {
        self.frames
            .iter()
            .skip(level)
            .any(|lemmas| lemmas.iter().any(|d| subsumes(&d.cube, cube)))
    }

    /// Whether a predecessor found earlier answers the relative-induction
    /// query of `cube` at `level`: its model's next state lies in
    /// `cube`, its state does not, and it stands, that is, no cube
    /// stored at a level `>= level - 1` contains its state.
    /// `F_{level-1}` only shrinks as a set of states, so such a
    /// predecessor with its model is still a model of the query.
    fn answers(&self, pred: &Predecessor, cube: &Cube, level: usize) -> bool {
        let (state, next) = (&pred.state, &pred.next);
        let answers = cube.iter().all(|&(i, v)| next[i] == v)
            && !cube.iter().all(|&(i, v)| state[i] == v)
            && !(self.frames.iter().skip(level - 1).flatten())
                .any(|d| d.cube.iter().all(|&(i, v)| state[i] == v));
        debug_assert!(
            !answers || self.steps_into(pred, cube, level),
            "a standing predecessor must answer its query"
        );
        answers
    }

    /// Re-checks a predecessor of `cube` at `level` by one two-valued
    /// step of the netlist under its recorded inputs: the constraints
    /// hold, the step agrees with the model's next state and lands in
    /// `cube`, and the state lies in `F_{level-1} ∧ ¬cube`. The step is
    /// compared on the cone only, since the template leaves every other
    /// latch's next state free.
    fn steps_into(&self, pred: &Predecessor, cube: &Cube, level: usize) -> bool {
        let state = &pred.state;
        let next = self.sys.step(state, &pred.inputs);
        let initial = level > 1
            || (self.sys.latches.iter().zip(state)).all(|(l, &v)| l.init.is_none_or(|i| i == v));
        self.sys.constraints_in(state, &pred.inputs)
            && (0..next.len()).all(|i| !self.cone[i] || next[i] == pred.next[i])
            && cube.iter().all(|&(i, v)| !self.cone[i] || next[i] == v)
            && !cube.iter().all(|&(i, v)| state[i] == v)
            && !self.cube_is_blocked(&Self::state_to_cube(state), level - 1)
            && initial
    }

    /// Widens a SAT model cube by ternary simulation: X-es out each
    /// latch whose removal keeps every `targets` output at its required
    /// value (and the cube disjoint from the initial states). Returns
    /// the widened cube; `self.targets` holds the outputs to preserve.
    ///
    /// The cube keeps latches in `self.cone` only. A cone-cut template
    /// leaves every other latch's next state free, so no predecessor
    /// query could drive a state into a literal on one. Dropping them
    /// is sound for every reachable state: once the certified constants
    /// hold, the targets read the cone alone. The cube may then meet
    /// the initial states, which the caller reports as a
    /// counterexample.
    fn ternary_generalize(&mut self, state: &[bool], inputs: &[bool]) -> Cube {
        let n = state.len();
        for (i, &b) in state.iter().enumerate() {
            self.state_t[i] = Tern::from_bool(b);
        }
        // Literals distinguishing the cube from the initial states;
        // the last one can never be dropped.
        let mut distinguishing = (0..n)
            .filter(|&i| {
                self.cone[i]
                    && self.sys.latches[i]
                        .init
                        .is_some_and(|init| init != state[i])
            })
            .count();
        for i in (0..n).filter(|&i| self.cone[i]) {
            // A wide state vector means many ternary trials; bail out
            // mid-widening when the budget expires (keeping the
            // remaining literals definite is always sound — the cube
            // is merely less general).
            if self.budget.interruption(self.started).is_some() {
                break;
            }
            let distinguishes = self.sys.latches[i]
                .init
                .is_some_and(|init| init != state[i]);
            if distinguishes && distinguishing == 1 {
                continue;
            }
            self.state_t[i] = Tern::X;
            self.sim.eval(self.sys, &self.state_t, inputs);
            let ok = self
                .targets
                .iter()
                .all(|&(l, want)| self.sim.value(l).known() == Some(want));
            if ok {
                // The latch stays X: dropped from the cube below.
                self.stats.ternary_drops += 1;
                if distinguishes {
                    distinguishing -= 1;
                }
            } else {
                self.state_t[i] = Tern::from_bool(state[i]);
            }
        }
        (0..n)
            .filter(|&i| self.cone[i] && self.state_t[i] != Tern::X)
            .map(|i| (i, state[i]))
            .collect()
    }

    /// An initial state inside `cube`, which must meet the initial
    /// states: the cube's literals, every other latch at its reset
    /// value, uninitialized latches as in `fill`.
    fn initial_state_in(&self, cube: &Cube, fill: &[bool]) -> Vec<bool> {
        let mut state: Vec<bool> = self
            .sys
            .latches
            .iter()
            .zip(fill)
            .map(|(l, &v)| l.init.unwrap_or(v))
            .collect();
        for &(i, v) in cube {
            state[i] = v;
        }
        state
    }

    /// Sets up `self.targets` for widening a predecessor of `cube`:
    /// the targeted next-state bits plus every constraint.
    fn pred_targets(&mut self, cube: &Cube) {
        self.targets.clear();
        self.targets
            .extend(cube.iter().map(|&(i, v)| (self.sys.latches[i].next, v)));
        self.targets
            .extend(self.sys.constraints.iter().map(|&c| (c, true)));
    }

    /// Sets up `self.targets` for widening a bad state: the fired bad
    /// output plus every constraint.
    fn bad_targets(&mut self, bad_index: usize) {
        self.targets.clear();
        self.targets.push((self.sys.bads[bad_index], true));
        self.targets
            .extend(self.sys.constraints.iter().map(|&c| (c, true)));
    }

    /// Relative-induction query: is `cube` (as next-state) reachable
    /// from `F_{level-1} ∧ ¬cube`? On UNSAT returns the generalized
    /// core cube. The temporary ¬cube clause rides on a recycled
    /// activation variable and is released either way.
    fn query_relative(&mut self, cube: &Cube, level: usize) -> RelQuery {
        let act = self.solver.new_activation();
        let clause = blocking_clause(&self.latch_lits, cube);
        self.solver.add_clause_activated(act, &clause);
        self.push_frame_tail(level - 1);
        self.assumptions.push(act);
        for &(i, v) in cube {
            self.assumptions.push(if v {
                self.next_lits[i]
            } else {
                !self.next_lits[i]
            });
        }
        self.stats.sat_queries += 1;
        let result = self.solve_prepared();
        match result {
            SolveResult::Sat => {
                let pred = Predecessor {
                    state: self.model_state(),
                    inputs: self.model_inputs(),
                    next: model_values(&self.solver, &self.next_lits),
                };
                self.solver.release_activation(act);
                RelQuery::Pred(pred)
            }
            SolveResult::Unsat => {
                // Keep cube literals whose next-state assumption is in
                // the failed core — read straight off the solver's
                // slice, no per-query copy.
                let failed = self.solver.failed_assumptions();
                let next_lits = &self.next_lits;
                let mut core: Cube = cube
                    .iter()
                    .filter(|&&(i, v)| {
                        let al = if v { next_lits[i] } else { !next_lits[i] };
                        failed.contains(&al)
                    })
                    .copied()
                    .collect();
                self.solver.release_activation(act);
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
                self.solver.release_activation(act);
                RelQuery::Stopped(why.into())
            }
        }
    }

    /// Input-based predecessor lifting (gipsat `minimal_predecessor`
    /// style), stacked after ternary widening: assume the recorded
    /// input valuation plus the cube's latch literals against the
    /// negated target — ¬parent′ as an activated temporary clause for
    /// predecessor obligations, ¬bad for root obligations — and keep
    /// only the cube literals in the failed-assumption core. The query
    /// deliberately omits the frame tail: the resulting guarantee
    /// ("every state of the lifted cube steps into the target under
    /// these inputs") must rest on the transition relation and the
    /// certified static invariant alone, because counterexample
    /// reconstruction replays genuinely reachable states through the
    /// cube.
    ///
    /// When the design has environment constraints, the ternary targets
    /// include them but the SAT core does not track them, so a single
    /// ternary re-evaluation guards the lifted cube; any doubt falls
    /// back to the unlifted cube (sound — merely less general).
    fn lift_cube(
        &mut self,
        cube: Cube,
        inputs: &[bool],
        parent: Option<&Cube>,
        bad_index: usize,
    ) -> Cube {
        if cube.len() <= 1 {
            return cube;
        }
        self.assumptions.clear();
        let act = match parent {
            Some(p) => {
                let act = self.solver.new_activation();
                let clause: Vec<Lit> = p
                    .iter()
                    .map(|&(i, v)| {
                        if v {
                            !self.next_lits[i]
                        } else {
                            self.next_lits[i]
                        }
                    })
                    .collect();
                self.solver.add_clause_activated(act, &clause);
                self.assumptions.push(act);
                Some(act)
            }
            None => {
                self.assumptions.push(!self.bad_lits[bad_index]);
                None
            }
        };
        for (j, &b) in inputs.iter().enumerate() {
            self.assumptions.push(if b {
                self.input_lits[j]
            } else {
                !self.input_lits[j]
            });
        }
        for &(i, v) in &cube {
            self.assumptions.push(if v {
                self.latch_lits[i]
            } else {
                !self.latch_lits[i]
            });
        }
        self.stats.sat_queries += 1;
        let result = self.solve_prepared();
        let mut lifted: Option<Cube> = None;
        if result == SolveResult::Unsat {
            let failed = self.solver.failed_assumptions();
            let latch_lits = &self.latch_lits;
            let mut out: Cube = cube
                .iter()
                .filter(|&&(i, v)| {
                    let al = if v { latch_lits[i] } else { !latch_lits[i] };
                    failed.contains(&al)
                })
                .copied()
                .collect();
            if self.cube_intersects_init(&out) {
                if let Some(&l) = cube
                    .iter()
                    .find(|&&(i, v)| self.sys.latches[i].init.is_some_and(|init| init != v))
                {
                    out.push(l);
                    out.sort_unstable();
                }
            }
            if out.len() < cube.len() {
                lifted = Some(out);
            }
        }
        if let Some(a) = act {
            self.solver.release_activation(a);
        }
        let Some(out) = lifted else {
            return cube;
        };
        if !self.sys.constraints.is_empty() {
            for t in &mut self.state_t {
                *t = Tern::X;
            }
            for &(i, v) in &out {
                self.state_t[i] = Tern::from_bool(v);
            }
            self.sim.eval(self.sys, &self.state_t, inputs);
            let ok = self
                .targets
                .iter()
                .all(|&(l, want)| self.sim.value(l).known() == Some(want));
            if !ok {
                return cube;
            }
        }
        self.stats.lifted_lits += (cube.len() - out.len()) as u64;
        out
    }

    /// Tries to drop further literals from a relatively-inductive cube
    /// (the failed-assumption-core shrinking; the UNSAT-side
    /// counterpart of ternary widening). Drop candidates are ordered
    /// least-active first (rIC3 `activity.rs` style): latches that
    /// rarely appear in blocked cubes are the likeliest to be
    /// droppable, so trying them first reaches the final cube in fewer
    /// failed queries; a fixed per-latch hash breaks ties. A
    /// predecessor found earlier in the same call answers every later
    /// query it still answers.
    fn shrink(&mut self, cube: Cube, level: usize) -> Result<Cube, Unknown> {
        let shrunk = self.drop_literals(cube, level);
        self.shrink_preds.clear();
        shrunk
    }

    /// [`query_relative`](Self::query_relative) within one
    /// [`shrink`](Self::shrink) call, answered by a predecessor an
    /// earlier query of the call found when one still
    /// [`answers`](Self::answers) it.
    fn query_in_shrink(&mut self, cube: &Cube, level: usize) -> RelQuery {
        let kept = (self.shrink_preds.iter())
            .find(|(at, pred)| *at == level && self.answers(pred, cube, level))
            .map(|(_, pred)| pred.clone());
        if let Some(pred) = kept {
            self.stats.preds_reused += 1;
            return RelQuery::Pred(pred);
        }
        let answer = self.query_relative(cube, level);
        if let RelQuery::Pred(pred) = &answer {
            self.shrink_preds.push((level, pred.clone()));
        }
        answer
    }

    /// The literal drops of [`shrink`](Self::shrink).
    fn drop_literals(&mut self, mut cube: Cube, level: usize) -> Result<Cube, Unknown> {
        loop {
            if cube.len() <= 1 {
                return Ok(cube);
            }
            let mut order: Vec<usize> = (0..cube.len()).collect();
            let activity = &self.activity;
            order.sort_by(|&a, &b| {
                let (la, lb) = (cube[a].0, cube[b].0);
                activity[la]
                    .total_cmp(&activity[lb])
                    .then_with(|| mix(la as u64).cmp(&mix(lb as u64)))
            });
            let mut progressed = false;
            'drops: for &pos in &order {
                let mut candidate = cube.clone();
                candidate.remove(pos);
                if self.cube_intersects_init(&candidate) {
                    continue;
                }
                // A failed drop yields a counterexample-to-
                // generalization: a state of `F_{level-1}` that steps
                // into the candidate. ctg-down (rIC3 `mic.rs` style,
                // depth 1) tries to block up to [`MAX_CTGS`] of them
                // one frame down — each success strengthens
                // `F_{level-1}`, so retrying the same drop often turns
                // it inductive.
                let mut ctgs = 0;
                loop {
                    if let Some(u) = self.budget.interruption(self.started) {
                        return Err(u);
                    }
                    match self.query_in_shrink(&candidate, level) {
                        RelQuery::Blocked(core) => {
                            cube = if self.cube_intersects_init(&core) {
                                candidate
                            } else {
                                core
                            };
                            progressed = true;
                            break 'drops;
                        }
                        RelQuery::Pred(pred) => {
                            if level <= 1 || ctgs >= MAX_CTGS {
                                break;
                            }
                            ctgs += 1;
                            let ctg = Self::state_to_cube(&pred.state);
                            if self.cube_intersects_init(&ctg) {
                                break;
                            }
                            match self.query_in_shrink(&ctg, level - 1) {
                                RelQuery::Blocked(core) => {
                                    let core = if self.cube_intersects_init(&core) {
                                        ctg
                                    } else {
                                        core
                                    };
                                    self.add_blocked(core, level - 1);
                                }
                                RelQuery::Pred(_) => break,
                                RelQuery::Stopped(u) => return Err(u),
                            }
                        }
                        RelQuery::Stopped(u) => return Err(u),
                    }
                }
            }
            if !progressed {
                return Ok(cube);
            }
        }
    }

    /// Rebuilds a concrete counterexample by simulation from the
    /// initial-state predecessor under each obligation's recorded
    /// inputs ([`Trace::simulate`]). Obligation cubes range over the
    /// cone only, and the recorded inputs drive every reachable state
    /// of a cube into the next cube (the ternary and lifting
    /// guarantees), so each simulated state lands in its obligation's
    /// cube and the last one fires the bad, even though cubes cover
    /// many states.
    fn reconstruct_trace(
        &self,
        arena: &[Obligation],
        leaf: usize,
        init_state: Vec<bool>,
        init_inputs: Vec<bool>,
    ) -> Trace {
        let chain: Vec<&Obligation> =
            std::iter::successors(Some(&arena[leaf]), |ob| ob.parent.map(|p| &arena[p])).collect();
        let mut inputs = vec![init_inputs];
        inputs.extend(chain.iter().map(|ob| match ob.parent {
            Some(_) => ob.inputs_to_parent.clone(),
            None => ob.bad_inputs.clone(),
        }));
        let bad_index = chain.last().map_or(0, |root| root.bad_index);
        let trace = Trace::simulate(self.sys, init_state, inputs, bad_index);
        debug_assert!(
            chain
                .iter()
                .zip(&trace.states[1..])
                .all(|(ob, state)| ob.cube.iter().all(|&(i, v)| state[i] == v)),
            "simulated state must land in the obligation cube"
        );
        trace
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
                RelQuery::Pred(Predecessor {
                    state: pred_state,
                    inputs: pred_inputs,
                    ..
                }) => {
                    let full = Self::state_to_cube(&pred_state);
                    if self.cube_intersects_init(&full) {
                        // The predecessor is an initial state (any
                        // uninitialized latch value is allowed at
                        // reset): a genuine counterexample, at any
                        // obligation level.
                        return BlockResult::Cex(self.reconstruct_trace(
                            &arena,
                            entry.arena_index,
                            pred_state,
                            pred_inputs,
                        ));
                    }
                    // Widen the predecessor against the parent cube,
                    // then lift it through the SAT core.
                    self.pred_targets(&cube);
                    let pred_cube = self.ternary_generalize(&pred_state, &pred_inputs);
                    let pred_cube = self.lift_cube(pred_cube, &pred_inputs, Some(&cube), 0);
                    if self.cube_intersects_init(&pred_cube) {
                        // Only possible once the cube dropped latches
                        // outside the cone: every reachable state of it
                        // steps into `cube`, an initial one included.
                        let init = self.initial_state_in(&pred_cube, &pred_state);
                        return BlockResult::Cex(self.reconstruct_trace(
                            &arena,
                            entry.arena_index,
                            init,
                            pred_inputs,
                        ));
                    }
                    let pred = Obligation {
                        level: level as u32 - 1,
                        cube: pred_cube,
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
                    // relatively inductive. The loop re-checks the
                    // budget itself: each query is individually
                    // limited, but a long push across many levels
                    // must not outlive the deadline between queries.
                    let mut at = level;
                    while at < max_level {
                        if let Some(u) = self.budget.interruption(self.started) {
                            return BlockResult::Stopped(u);
                        }
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

    /// Propagates clauses forward; returns the fixpoint level when two
    /// adjacent frames coincide (`frames[i]` emptied means
    /// `F_i = F_{i+1}`).
    fn propagate(&mut self, max_level: usize) -> Result<Option<usize>, Unknown> {
        for i in 1..max_level {
            let cubes: Vec<Cube> = self.frames.get(i).map_or_else(Vec::new, |lemmas| {
                lemmas.iter().map(|l| l.cube.clone()).collect()
            });
            for cube in cubes {
                if let Some(u) = self.budget.interruption(self.started) {
                    return Err(u);
                }
                // The cube may have been pruned (subsumed) by an
                // earlier move in this very pass.
                let Some(at) = self.frames[i].iter().position(|l| l.cube == cube) else {
                    continue;
                };
                // A predecessor that refused a push at this level before,
                // this cube's own first, may refuse this push too.
                let lemmas = &self.frames[i];
                let kept = (std::iter::once(&lemmas[at]).chain(lemmas))
                    .filter_map(|l| l.push_pred.as_ref())
                    .find(|pred| self.answers(pred, &cube, i + 1))
                    .cloned();
                if let Some(pred) = kept {
                    self.stats.preds_reused += 1;
                    self.frames[i][at].push_pred = Some(pred);
                    continue;
                }
                match self.query_relative(&cube, i + 1) {
                    RelQuery::Blocked(_) => {
                        // Holds one frame further: storing it at i+1
                        // prunes the copy at i by subsumption.
                        self.add_blocked(cube, i + 1);
                    }
                    RelQuery::Pred(pred) => self.frames[i][at].push_pred = Some(pred),
                    RelQuery::Stopped(u) => return Err(u),
                }
            }
            if self.frames.get(i).is_none_or(Vec::is_empty) {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// The fixpoint frame `F_level` as a Safe-verdict witness: every
    /// cube stored at levels `>= level` (the delta encoding's
    /// `F_level`), negated into a clause over latch variables — plus
    /// the static strengthening clauses, which were asserted unguarded
    /// in the solver and are therefore part of every frame the
    /// fixpoint argument ran under.
    fn export_invariant(&self, level: usize) -> crate::certify::Certificate {
        let mut clauses: Vec<LatchClause> = self
            .frames
            .iter()
            .skip(level)
            .flatten()
            .map(|l| l.cube.iter().map(|&(i, v)| (i, !v)).collect())
            .collect();
        clauses.extend(self.inv.iter().cloned());
        crate::certify::Certificate::Clausal(crate::certify::ClausalInvariant { clauses })
    }

    /// The top-level PDR loop: the verdict and, for Safe, its witness.
    fn search(&mut self) -> (Verdict, Option<crate::certify::Certificate>) {
        let started = self.started;

        // Level 0: Init ∧ Bad?
        self.stats.sat_queries += 1;
        self.push_frame_tail(0);
        self.assumptions.push(self.bad_lit);
        match self.solve_prepared() {
            SolveResult::Sat => {
                let trace = Trace::simulate(
                    self.sys,
                    self.model_state(),
                    vec![self.model_inputs()],
                    self.fired_bad(),
                );
                return (Verdict::Unsafe(trace), None);
            }
            SolveResult::Unknown(why) => {
                return (Verdict::Unknown(why.into()), None);
            }
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
            self.ensure_act(max_level);

            // Find a bad state in F_max.
            self.stats.sat_queries += 1;
            self.push_frame_tail(max_level);
            self.assumptions.push(self.bad_lit);
            match self.solve_prepared() {
                SolveResult::Sat => {
                    let state = self.model_state();
                    let bad_inputs = self.model_inputs();
                    let bad_index = self.fired_bad();
                    let cube = Self::state_to_cube(&state);
                    if self.cube_intersects_init(&cube) {
                        // Bad state inside init was excluded at level 0
                        // unless it needs inputs; treat as cex directly.
                        let trace = Trace::simulate(self.sys, state, vec![bad_inputs], bad_index);
                        return (Verdict::Unsafe(trace), None);
                    }
                    self.bad_targets(bad_index);
                    let cube = self.ternary_generalize(&state, &bad_inputs);
                    let cube = self.lift_cube(cube, &bad_inputs, None, bad_index);
                    if self.cube_intersects_init(&cube) {
                        // As for predecessors in `block_obligations`:
                        // every reachable state of the cube fires the bad.
                        let init = self.initial_state_in(&cube, &state);
                        let trace = Trace::simulate(self.sys, init, vec![bad_inputs], bad_index);
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
                    self.ensure_act(max_level);
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
}

impl Checker for Pdr {
    fn name(&self) -> &'static str {
        "abc-pdr"
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

impl Pdr {
    pub(crate) fn run(
        &self,
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        inv: &[LatchClause],
    ) -> CheckOutcome {
        PdrRun::new(sys, tpl, inv, self.budget.clone()).solve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlir::Sort;

    #[test]
    fn proves_saturating_counter() {
        let mut ts = TransitionSystem::new("sat-counter");
        let s = ts.add_state("count", Sort::Bv(8));
        let sv = ts.pool_mut().var(s);
        let lim = ts.pool_mut().constv(8, 10);
        let one = ts.pool_mut().constv(8, 1);
        let at = ts.pool_mut().uge(sv, lim);
        let inc = ts.pool_mut().add(sv, one);
        let next = ts.pool_mut().ite(at, sv, inc);
        let zero = ts.pool_mut().constv(8, 0);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        let bad = ts.pool_mut().ugt(sv, lim);
        ts.add_bad(bad, "overflow");
        let out = Pdr::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
    }

    #[test]
    fn finds_bugs_with_replayable_traces() {
        for depth in [0u64, 1, 5, 17] {
            let ts = crate::bmc::tests::counter_ts(depth, 8);
            let out = Pdr::default().check(&ts);
            match out.outcome {
                Verdict::Unsafe(trace) => {
                    assert_eq!(trace.length() as u64, depth, "depth {depth}");
                    let sys = aig::blast_system(&ts);
                    assert!(trace.replays_on(&sys), "trace replays, depth {depth}");
                }
                other => panic!("expected Unsafe at depth {depth}, got {other:?}"),
            }
        }
    }

    #[test]
    fn proves_trap_design_where_kind_fails() {
        // Same design as kind::tests::trap_ts: PDR finds the inductive
        // invariant { a = 0 } immediately.
        let mut ts = TransitionSystem::new("trap");
        let jump = ts.add_input("jump", Sort::BOOL);
        let a = ts.add_state("a", Sort::BOOL);
        let c = ts.add_state("c", Sort::Bv(2));
        let (jv, av, cv) = {
            let p = ts.pool_mut();
            (p.var(jump), p.var(a), p.var(c))
        };
        let p = ts.pool_mut();
        let two = p.constv(2, 2);
        let three = p.constv(2, 3);
        let one = p.constv(2, 1);
        let zero2 = p.constv(2, 0);
        let zero1 = p.constv(1, 0);
        let at2 = p.eq(cv, two);
        let inc = p.add(cv, one);
        let cyc = p.ite(at2, zero2, inc);
        let jumped = p.ite(jv, three, cyc);
        let c_next = p.ite(av, jumped, zero2);
        let at3 = p.eq(cv, three);
        let bad = p.and(av, at3);
        ts.set_init(a, zero1);
        ts.set_init(c, zero2);
        ts.set_next(a, av);
        ts.set_next(c, c_next);
        ts.add_bad(bad, "trap");
        let out = Pdr::default().check(&ts);
        assert_eq!(out.outcome, Verdict::Safe);
    }

    /// The tentpole invariant: one PDR run constructs exactly one
    /// `satb::Solver` (the per-thread construction counter is the same
    /// probe style as PR 3's single-blast checks), and deep runs
    /// recycle their per-query activation variables.
    #[test]
    fn single_solver_per_run_with_recycling() {
        let ts = crate::bmc::tests::counter_ts(17, 8);
        let sys = aig::blast_system(&ts);
        let tpl = TransitionTemplate::compile(&sys);
        let before = satb::solver_count();
        let out = Pdr::default().run(&sys, &tpl, &[]);
        assert_eq!(
            satb::solver_count() - before,
            1,
            "single-solver PDR must build exactly one solver per run"
        );
        assert!(out.outcome.is_unsafe());
        assert!(
            out.stats.act_recycled > 0,
            "deep runs must reuse released activation vars: {:?}",
            out.stats
        );
    }

    /// An 8-bit counter that is bad at 9, beside a shadow register
    /// that free-runs on an input. The property reads the shadow only
    /// where the counter already decides it (`count == 9 ∧ (count == 9
    /// ∨ shadow == 0)`), so the shadow lies in the cone of influence
    /// yet matters to no obligation: generalization, not the cone, has
    /// to shed it.
    fn counter_with_gated_shadow() -> TransitionSystem {
        let mut ts = TransitionSystem::new("counter-with-shadow");
        let data = ts.add_input("data", Sort::Bv(8));
        let c = ts.add_state("count", Sort::Bv(8));
        let shadow = ts.add_state("shadow", Sort::Bv(8));
        let (dv, cv, sv) = {
            let p = ts.pool_mut();
            (p.var(data), p.var(c), p.var(shadow))
        };
        let p = ts.pool_mut();
        let one = p.constv(8, 1);
        let inc = p.add(cv, one);
        let zero = p.constv(8, 0);
        let nine = p.constv(8, 9);
        let at_nine = p.eq(cv, nine);
        let quiet = p.eq(sv, zero);
        let either = p.or(at_nine, quiet);
        let bad = p.and(at_nine, either);
        let s_next = p.add(sv, dv);
        ts.set_init(c, zero);
        ts.set_init(shadow, zero);
        ts.set_next(c, inc);
        ts.set_next(shadow, s_next);
        ts.add_bad(bad, "count is 9");
        ts
    }

    /// Ternary widening must fire when the design carries state no
    /// obligation depends on — the latches of the gated shadow register
    /// are X-able in every obligation — and never change the verdict.
    #[test]
    fn ternary_generalization_widens_obligations() {
        let ts = counter_with_gated_shadow();
        let sys = aig::blast_system(&ts);
        assert!(
            sys.latch_coi().iter().all(|&c| c),
            "the shadow is in the cone"
        );
        let out = Pdr::default().check(&ts);
        match &out.outcome {
            Verdict::Unsafe(trace) => {
                assert_eq!(trace.length(), 9);
                assert!(trace.replays_on(&sys), "widened-cube trace must replay");
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
        assert!(
            out.stats.ternary_drops > 0,
            "shadow latches must be dropped from obligations: {:?}",
            out.stats
        );
    }

    /// Every cube stored in the frames at the end of a run must be (a)
    /// disjoint from the initial states and (b) inductive relative to
    /// the frame below it — checked against an independent solver built
    /// directly from the template.
    #[test]
    fn stored_cubes_are_relative_inductive_and_init_disjoint() {
        for ts in [
            crate::kind::tests::trap_ts(),
            crate::bmc::tests::counter_ts(9, 8),
        ] {
            let sys = aig::blast_system(&ts);
            let tpl = TransitionTemplate::compile(&sys);
            let mut run = PdrRun::new(
                &sys,
                &tpl,
                &[],
                Budget {
                    timeout: None,
                    ..Budget::default()
                },
            );
            let _ = run.solve();
            let frames: Vec<Vec<Cube>> = (run.frames.iter())
                .map(|lemmas| lemmas.iter().map(|l| l.cube.clone()).collect())
                .collect();
            for (level, cubes) in frames.iter().enumerate().skip(1) {
                for cube in cubes {
                    assert!(
                        !run.cube_intersects_init(cube),
                        "stored cube intersects init: {cube:?}"
                    );
                    // Independent relative-induction check:
                    // F_{level-1} ∧ ¬cube ∧ T ∧ cube' must be UNSAT.
                    let mut s = Solver::new();
                    let vars = tpl.instantiate(&mut s, Part::A, 0);
                    if level == 1 {
                        vars.assert_init(&sys, &mut s);
                    }
                    for cs in frames.iter().skip(level - 1).filter(|_| level > 1) {
                        for c in cs {
                            let cl: Vec<Lit> = c
                                .iter()
                                .map(|&(i, v)| {
                                    if v {
                                        !vars.latch_cur[i]
                                    } else {
                                        vars.latch_cur[i]
                                    }
                                })
                                .collect();
                            s.add_clause(&cl);
                        }
                    }
                    let not_cube: Vec<Lit> = cube
                        .iter()
                        .map(|&(i, v)| {
                            if v {
                                !vars.latch_cur[i]
                            } else {
                                vars.latch_cur[i]
                            }
                        })
                        .collect();
                    s.add_clause(&not_cube);
                    let assumptions: Vec<Lit> = cube
                        .iter()
                        .map(|&(i, v)| {
                            if v {
                                vars.latch_next[i]
                            } else {
                                !vars.latch_next[i]
                            }
                        })
                        .collect();
                    assert_eq!(
                        s.solve_with(&assumptions),
                        SolveResult::Unsat,
                        "cube at level {level} not relatively inductive: {cube:?}"
                    );
                }
            }
        }
    }

    /// Verdict equivalence with the per-frame baseline on random
    /// sequential AIGs (the refactor must not change any answer).
    #[test]
    fn matches_per_frame_baseline_on_random_systems() {
        for (round, sys) in random_systems().enumerate() {
            let tpl = TransitionTemplate::compile(&sys);
            let budget = Budget {
                timeout: None,
                max_depth: 64,
                ..Budget::default()
            };
            let single = Pdr::new(budget.clone()).run(&sys, &tpl, &[]);
            let frames = crate::pdr_baseline::PerFramePdr::new(budget).run(&sys, &tpl, &[]);
            match (&single.outcome, &frames.outcome) {
                (Verdict::Safe, Verdict::Safe) => {}
                (Verdict::Unsafe(a), Verdict::Unsafe(b)) => {
                    assert!(a.replays_on(&sys), "round {round}: single-solver trace");
                    assert!(b.replays_on(&sys), "round {round}: baseline trace");
                }
                (Verdict::Unknown(_), Verdict::Unknown(_)) => {}
                other => panic!("round {round}: verdicts diverge: {other:?}"),
            }
        }
    }

    /// The 25 seeded random sequential netlists of the baseline
    /// comparison (`aig::testutil`, reached through the `testutil`
    /// dev-dependency feature).
    fn random_systems() -> impl Iterator<Item = AigSystem> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9D12);
        let config = aig::testutil::RandomSystemConfig::default();
        (0..25).map(move |_| aig::testutil::random_system(&mut rng, &config))
    }

    /// The solver holds one clause per live cube: after a run, no frame
    /// guard registers more clauses than its frame holds cubes (fewer
    /// when a cube's clause was satisfied at level 0 and never stored).
    /// Pruned cubes, pushed ones included, take their clauses along.
    ///
    /// Kept predecessors are bounded the same way: each live cube keeps
    /// at most the one that refused its push, which steps into that
    /// cube from outside it (a pruned cube's predecessor left with it),
    /// and a finished `shrink` leaves none behind.
    #[test]
    fn one_solver_clause_per_live_cube() {
        let designs = [
            crate::kind::tests::trap_ts(),
            crate::bmc::tests::counter_ts(9, 8),
        ];
        let systems = designs
            .iter()
            .map(aig::blast_system)
            .chain(random_systems());
        for (n, sys) in systems.enumerate() {
            let tpl = TransitionTemplate::compile(&sys);
            let budget = Budget {
                timeout: None,
                max_depth: 64,
                ..Budget::default()
            };
            let mut run = PdrRun::new(&sys, &tpl, &[], budget);
            let _ = run.solve();
            for (j, &act) in run.acts.iter().enumerate().skip(1) {
                let cubes = run.frames.get(j).map_or(0, Vec::len);
                let clauses = run.solver.debug_activated_clauses(act);
                assert!(
                    clauses <= cubes,
                    "system {n}, level {j}: {clauses} clauses for {cubes} cubes"
                );
            }
            for (j, lemmas) in run.frames.iter().enumerate() {
                for l in lemmas {
                    let Some(Predecessor { state, inputs, .. }) = &l.push_pred else {
                        continue;
                    };
                    let next = sys.step(state, inputs);
                    assert!(
                        l.cube.iter().all(|&(i, v)| next[i] == v)
                            && !l.cube.iter().all(|&(i, v)| state[i] == v),
                        "system {n}, level {j}: a kept predecessor of {:?} must step into it",
                        l.cube
                    );
                }
            }
            assert!(
                run.shrink_preds.is_empty(),
                "system {n}: a finished shrink keeps no predecessor"
            );
        }
    }

    /// A kept predecessor answers the query of any cube that holds its
    /// model's next state and not its state, until a cube stored at a
    /// level `>= level - 1` contains its state. On an 8-bit counter:
    /// 3 steps to 4.
    #[test]
    fn a_kept_predecessor_answers_while_it_stands() {
        let sys = aig::blast_system(&crate::bmc::tests::counter_ts(9, 8));
        let tpl = TransitionTemplate::compile(&sys);
        let mut run = PdrRun::new(&sys, &tpl, &[], Budget::default());
        run.ensure_act(3);
        let bits = |n: u8| -> Vec<bool> { (0..8).map(|i| n >> i & 1 == 1).collect() };
        let pred = Predecessor {
            state: bits(3),
            inputs: Vec::new(),
            next: bits(4),
        };
        let four = PdrRun::state_to_cube(&bits(4));
        assert!(run.answers(&pred, &four, 3), "the cube it was found for");
        assert!(run.answers(&pred, &vec![(0, false)], 3), "any even count");
        assert!(!run.answers(&pred, &vec![(0, true)], 3), "4 is not odd");
        assert!(!run.answers(&pred, &vec![(7, false)], 3), "3 is below 128");
        // The counts 3 mod 8, blocked below `F_2`, leave it standing...
        let threes: Cube = vec![(0, true), (1, true), (2, false)];
        run.add_blocked(threes.clone(), 1);
        assert!(run.answers(&pred, &four, 3));
        // ...and blocked in `F_2`, they take it down.
        run.add_blocked(threes, 2);
        assert!(!run.answers(&pred, &four, 3));
        assert!(run.answers(&pred, &four, 4), "F_3 still holds 3");
    }

    /// Obligation pop order: lowest level first; among equal levels,
    /// the most recently enqueued obligation (reverse-chronological —
    /// the ROADMAP follow-up fixed in this PR).
    #[test]
    fn obligation_queue_pops_newest_among_equal_levels() {
        let mut heap: BinaryHeap<QueueEntry> = BinaryHeap::new();
        for (level, seq) in [(2u32, 1u64), (2, 2), (1, 3), (1, 4), (3, 5)] {
            heap.push(QueueEntry {
                level,
                seq,
                arena_index: seq as usize,
            });
        }
        let order: Vec<(u32, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.level, e.seq))
            .collect();
        assert_eq!(order, vec![(1, 4), (1, 3), (2, 2), (2, 1), (3, 5)]);
    }

    #[test]
    fn mutex_style_protocol() {
        // Two processes alternate via a turn bit; both-critical is bad.
        let mut ts = TransitionSystem::new("mutex");
        let req0 = ts.add_input("req0", Sort::BOOL);
        let req1 = ts.add_input("req1", Sort::BOOL);
        let c0 = ts.add_state("crit0", Sort::BOOL);
        let c1 = ts.add_state("crit1", Sort::BOOL);
        let turn = ts.add_state("turn", Sort::BOOL);
        let (r0, r1, c0v, c1v, tv) = {
            let p = ts.pool_mut();
            (p.var(req0), p.var(req1), p.var(c0), p.var(c1), p.var(turn))
        };
        let p = ts.pool_mut();
        // Enter critical only when requested, it is your turn, and the
        // other is out; leave when request drops.
        let nt = p.not(tv);
        let other0_out = p.not(c1v);
        let enter0 = p.and(r0, nt);
        let enter0 = p.and(enter0, other0_out);
        let c0_next = p.ite(c0v, r0, enter0);
        let other1_out = p.not(c0v);
        let enter1 = p.and(r1, tv);
        let enter1 = p.and(enter1, other1_out);
        let c1_next = p.ite(c1v, r1, enter1);
        let t_next = p.not(tv);
        let both = p.and(c0v, c1v);
        let f = p.constv(1, 0);
        ts.set_init(c0, f);
        ts.set_init(c1, f);
        ts.set_init(turn, f);
        ts.set_next(c0, c0_next);
        ts.set_next(c1, c1_next);
        ts.set_next(turn, t_next);
        ts.add_bad(both, "mutual exclusion violated");
        let out = Pdr::default().check(&ts);
        // This protocol is actually unsafe (no handshake): PDR must
        // find a real, replayable counterexample — or prove it safe if
        // the alternation suffices. Either way the verdict must be
        // definite and traces must replay.
        match out.outcome {
            Verdict::Safe => {}
            Verdict::Unsafe(trace) => {
                let sys = aig::blast_system(&ts);
                assert!(trace.replays_on(&sys), "cex must replay");
            }
            other => panic!("expected a definite verdict, got {other:?}"),
        }
    }

    /// A 4-bit counter that is bad at 9, then a 1-bit `flag` that takes
    /// a free input every cycle. The property reads the flag on both
    /// sides, `(count == 9 ∧ flag) ∨ (count == 9 ∧ ¬flag)`, so ternary
    /// simulation with the flag at X leaves the bad at X and cannot
    /// widen it away.
    fn counter_with_tautological_flag() -> TransitionSystem {
        let mut ts = TransitionSystem::new("counter-with-flag");
        let kick = ts.add_input("kick", Sort::BOOL);
        let c = ts.add_state("count", Sort::Bv(4));
        let flag = ts.add_state("flag", Sort::BOOL);
        let (kv, cv, fv) = {
            let p = ts.pool_mut();
            (p.var(kick), p.var(c), p.var(flag))
        };
        let p = ts.pool_mut();
        let one = p.constv(4, 1);
        let inc = p.add(cv, one);
        let zero = p.constv(4, 0);
        let nine = p.constv(4, 9);
        let at_nine = p.eq(cv, nine);
        let nf = p.not(fv);
        let with_flag = p.and(at_nine, fv);
        let without_flag = p.and(at_nine, nf);
        let bad = p.or(with_flag, without_flag);
        let off = p.constv(1, 0);
        ts.set_init(c, zero);
        ts.set_init(flag, off);
        ts.set_next(c, inc);
        ts.set_next(flag, kv);
        ts.add_bad(bad, "count is 9");
        ts
    }

    /// Input-based SAT-core lifting drops latches that ternary widening
    /// keeps: the counter alone decides every lift query, so the failed
    /// core sheds the flag that three-valued simulation cannot.
    #[test]
    fn lifting_drops_cone_unrelated_latches() {
        let ts = counter_with_tautological_flag();
        let sys = aig::blast_system(&ts);
        assert!(
            sys.latch_coi().iter().all(|&c| c),
            "the flag is in the cone"
        );
        let out = Pdr::default().check(&ts);
        match &out.outcome {
            Verdict::Unsafe(trace) => {
                assert_eq!(trace.length(), 9);
                assert!(trace.replays_on(&sys), "lifted-cube trace must replay");
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
        assert!(
            out.stats.lifted_lits > 0,
            "the SAT core must shed the flag: {:?}",
            out.stats
        );
    }
}
