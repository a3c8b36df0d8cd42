//! Netlist abstract interpretation: mined, inductive latch invariants.
//!
//! The cheapest software-analysis technique the DATE 2016 paper's
//! premise points at — abstract interpretation over a static fixpoint —
//! applied directly to the bit-level netlist. The pass produces a
//! [`StaticInvariant`]: a set of clauses over latch variables that is
//! **inductive** for the design's transition relation, cheap enough to
//! compute up front, and strong enough to prune work from every SAT
//! engine that consumes the netlist afterwards.
//!
//! # Domains
//!
//! Two abstract domains feed the candidate pool:
//!
//! 1. **Ternary reachability** ([`TernarySim`]): starting from the
//!    X-initialized reset state (uninitialized latches and all primary
//!    inputs held at X), the latch state vector is stepped through the
//!    three-valued transition function and *joined* with its
//!    predecessor until a fixpoint. Values only ever move definite → X,
//!    so the fixpoint arrives within `L` rounds. Latches still definite
//!    at the fixpoint are **stuck-at-constant** in every reachable
//!    state — a sound fact, found without a single SAT call.
//! 2. **Random concrete simulation**: a deterministic xorshift-seeded
//!    walk (several restarts from random concretizations of the reset
//!    state, random inputs) collects per-latch value signatures.
//!    Latches with equal / complementary / implied signatures yield
//!    candidate equivalence, antivalence and implication clauses;
//!    constant signatures yield candidate stuck-at facts the ternary
//!    domain was too coarse to see. These are *guesses*, not facts.
//!
//! # The Houdini loop
//!
//! Candidates that survive a syntactic **initiation** filter (a clause
//! holds in every initial state iff one of its literals is pinned true
//! by a reset value) enter a Houdini-style fixpoint over one frame of
//! the transition template: all surviving candidates are assumed on the
//! current-state side (each behind its own guard literal), and each
//! candidate's **consecution** is queried on the next-state side. Every
//! candidate falsified by a SAT model is dropped — the model is a
//! reachable-looking state that steps outside the candidate — and the
//! loop repeats until a full pass makes no drop. The surviving set is
//! inductive *as a set*: the final pass checked every member under
//! exactly the final assumptions.
//!
//! The queries are split across worker solvers ([`crate::split`]): up
//! to one per idle core, each with at least 64 candidates, so a pool
//! below 128 candidates runs on one solver on the calling thread. Each
//! worker builds its own frame and guards once and keeps them across
//! rounds. A round splits the live candidates into one chunk per
//! worker. Each worker checks its chunk under the round's live set
//! minus the candidates its own models have dropped, and the round
//! drops the union of what the workers' models falsify. Rounds repeat
//! until one drops nothing.
//!
//! The result does not depend on the worker count. It is the unique
//! greatest inductive subset of the candidates. Every model is a state
//! satisfying a superset of that subset, and such a state steps into
//! the subset again, so no member is ever dropped. The last round
//! checked every survivor under exactly the survivors, so they are
//! inductive and lie inside that subset. Only the round and query
//! counts can differ, and only in rounds that drop candidates: a
//! worker cannot skip a query for a candidate that another worker's
//! model has already falsified.
//!
//! # Soundness
//!
//! The pass is advisory: no engine asserts its output before it is
//! proven against the raw, un-preprocessed template with independent
//! solvers, once per check (by a portfolio race's admission, or by
//! `engines::Blasted::certified` for a solo caller), so a bug here can
//! cost strength but never soundness. Cancellation (the shared [`satb::Limits::stop`] flag, a
//! deadline, or a conflict cap, in any worker) aborts the whole
//! analysis and returns an **empty** invariant with
//! [`AnalysisStats::cancelled`] set — never a partially-filtered
//! candidate set that was not driven to the Houdini fixpoint.
//!
//! [`refine_with_constants`] rebuilds the netlist the engines solve on:
//! every latch the bads and constraints cannot observe gets a free next
//! state — a cone-of-influence cut that only ever adds behaviours — and
//! the AIG is rebuilt cone-first. `engines::Blasted::of` cuts with no
//! constant, preprocesses the cut template, and runs [`analyze`] on
//! that image, the one the engines instantiate: a freed latch's next
//! state is free there, so the Houdini loop drops the candidates whose
//! consecution rests on one. Given certified stuck-at facts,
//! [`refine_with_constants`] also substitutes the constants into every
//! cone (folding logic away) and strips the constraints that fold to
//! `true`. Such a system is only sound for engines that assert the
//! invariant on every frame they instantiate and read counterexample
//! states off the original netlist by simulation, which is exactly the
//! contract `engines::Blasted` sets.

use crate::graph::{Aig, AigLit};
use crate::seq::{AigSystem, Latch};
use crate::sim::{Tern, TernarySim};
use crate::split;
use crate::template::{FrameVars, TransitionTemplate};
use satb::{Lit, Part, SolveResult, Solver};

/// A clause over latches: `(latch index, polarity)` literals, true when
/// some latch holds its polarity. Mirrors `engines::certify`'s clausal
/// certificate shape.
pub type LatchClause = Vec<(usize, bool)>;

/// Tuning knobs for [`analyze`].
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Cap on the number of candidate clauses entering Houdini.
    pub max_candidates: usize,
    /// Concrete-simulation restarts used for candidate mining.
    pub sim_restarts: usize,
    /// Steps per concrete-simulation restart.
    pub sim_steps: usize,
    /// Latch-count ceiling for the pairwise implication scan (the
    /// equivalence scan sorts signatures and has no such ceiling).
    pub max_implication_latches: usize,
    /// Per-query conflict cap for the Houdini solvers, applied when the
    /// caller's [`satb::Limits`] carries none.
    pub max_conflicts: u64,
    /// Seed for the deterministic simulation PRNG.
    pub seed: u64,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            max_candidates: 512,
            sim_restarts: 8,
            sim_steps: 48,
            max_implication_latches: 96,
            max_conflicts: 20_000,
            seed: 0x5EED_1A7C,
        }
    }
}

/// Counters of one [`analyze`] run.
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// Ternary-reachability rounds until the fixpoint.
    pub ternary_rounds: u32,
    /// Latches proven stuck-at-constant by the ternary fixpoint alone.
    pub ternary_constants: u32,
    /// Candidate clauses mined (after the initiation filter and cap).
    pub mined: u32,
    /// Candidates surviving the Houdini fixpoint.
    pub retained: u32,
    /// Houdini passes over the candidate set.
    pub houdini_rounds: u32,
    /// Consecution queries issued, summed over the worker solvers.
    pub sat_queries: u64,
    /// Whether the run was cut short (stop flag, deadline or conflict
    /// cap). A cancelled run reports an empty invariant.
    pub cancelled: bool,
}

/// A mined, Houdini-filtered invariant over latch variables.
///
/// `clauses` is inductive as a set on the template it was mined on
/// (initiation by construction, consecution by the Houdini fixpoint);
/// `constants` is the view of its singleton clauses as stuck-at facts,
/// which [`refine_with_constants`] can fold into a netlist.
/// `engines::Blasted::of` folds none, and engines assert a singleton
/// clause like every other. No engine trusts either before it is
/// proven against the raw template (see `engines::Blasted`).
#[derive(Clone, Debug, Default)]
pub struct StaticInvariant {
    /// The invariant: a conjunction of latch clauses.
    pub clauses: Vec<LatchClause>,
    /// Stuck-at-constant latches (singleton clauses of `clauses`).
    pub constants: Vec<(usize, bool)>,
    /// How the invariant was found.
    pub stats: AnalysisStats,
}

impl StaticInvariant {
    /// Whether the invariant carries no information.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// An empty invariant recording that the analysis was cancelled.
    fn cancelled(mut stats: AnalysisStats) -> StaticInvariant {
        stats.cancelled = true;
        stats.retained = 0;
        StaticInvariant {
            clauses: Vec::new(),
            constants: Vec::new(),
            stats,
        }
    }
}

/// Deterministic xorshift64 PRNG: the production-side stand-in for the
/// (test-only) `rand` stub, so the simulation schedule is reproducible
/// from [`AnalysisConfig::seed`] alone.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Three-valued join: definite values agreeing stay definite,
/// everything else widens to X.
fn join(a: Tern, b: Tern) -> Tern {
    if a == b {
        a
    } else {
        Tern::X
    }
}

/// Ternary-reachability fixpoint from the X-initialized reset state.
/// Returns the per-latch fixpoint values and the round count.
fn ternary_fixpoint(sys: &AigSystem, sim: &mut TernarySim) -> (Vec<Tern>, u32) {
    let mut state: Vec<Tern> = sys
        .latches
        .iter()
        .map(|l| l.init.map_or(Tern::X, Tern::from_bool))
        .collect();
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        sim.eval(sys, &state, &[]);
        let mut changed = false;
        let next: Vec<Tern> = sys
            .latches
            .iter()
            .zip(&state)
            .map(|(l, &cur)| {
                let widened = join(cur, sim.value(l.next));
                changed |= widened != cur;
                widened
            })
            .collect();
        state = next;
        if !changed {
            return (state, rounds);
        }
    }
}

/// Per-latch value signatures from deterministic random simulation:
/// bit `t` of `sigs[i]` word `t / 64` is latch `i`'s value in the
/// `t`-th visited state.
fn simulate_signatures(sys: &AigSystem, cfg: &AnalysisConfig) -> (Vec<Vec<u64>>, usize) {
    let n = sys.latches.len();
    let total = cfg.sim_restarts * (cfg.sim_steps + 1);
    let words = total.div_ceil(64);
    let mut sigs = vec![vec![0u64; words]; n];
    let mut rng = XorShift::new(cfg.seed);
    let mut t = 0usize;
    for _ in 0..cfg.sim_restarts {
        let mut state: Vec<bool> = sys
            .latches
            .iter()
            .map(|l| l.init.unwrap_or_else(|| rng.next_bool()))
            .collect();
        for step in 0..=cfg.sim_steps {
            for (i, &v) in state.iter().enumerate() {
                if v {
                    sigs[i][t / 64] |= 1u64 << (t % 64);
                }
            }
            t += 1;
            if step < cfg.sim_steps {
                let inputs: Vec<bool> = (0..sys.inputs.len()).map(|_| rng.next_bool()).collect();
                state = sys.step(&state, &inputs);
            }
        }
    }
    (sigs, total)
}

/// Whether a latch clause holds in **every** initial state: some
/// literal must be pinned true by a reset value (an uninitialized latch
/// is free to take either value at reset).
fn holds_at_init(sys: &AigSystem, clause: &LatchClause) -> bool {
    clause.iter().any(|&(i, v)| sys.latches[i].init == Some(v))
}

/// Mines candidate clauses from the ternary fixpoint and the simulation
/// signatures, initiation-filtered, deduplicated and capped.
fn mine_candidates(
    sys: &AigSystem,
    fix: &[Tern],
    sigs: &[Vec<u64>],
    total_states: usize,
    cfg: &AnalysisConfig,
) -> Vec<LatchClause> {
    let n = sys.latches.len();
    let mut seen = std::collections::BTreeSet::new();
    let mut out: Vec<LatchClause> = Vec::new();
    let mut push = |clause: LatchClause, out: &mut Vec<LatchClause>| {
        if out.len() < cfg.max_candidates
            && holds_at_init(sys, &clause)
            && seen.insert(clause.clone())
        {
            out.push(clause);
        }
    };

    // Stuck-at facts from the ternary fixpoint (sound already, but fed
    // through Houdini like everything else: the constant subset is
    // self-supporting there, so it survives unharmed).
    for (i, &t) in fix.iter().enumerate() {
        if let Some(v) = t.known() {
            push(vec![(i, v)], &mut out);
        }
    }

    // Constant signatures the ternary domain missed.
    let all_ones_mask = |w: usize| -> u64 {
        let used = total_states - w * 64;
        if used >= 64 {
            u64::MAX
        } else {
            (1u64 << used) - 1
        }
    };
    for i in 0..n {
        if fix[i].known().is_some() {
            continue;
        }
        let always_true = sigs[i]
            .iter()
            .enumerate()
            .all(|(w, &s)| s == all_ones_mask(w));
        let always_false = sigs[i].iter().all(|&s| s == 0);
        if always_true {
            push(vec![(i, true)], &mut out);
        } else if always_false {
            push(vec![(i, false)], &mut out);
        }
    }

    // Equivalences and antivalences: group by (normalized) signature.
    // Each group contributes a chain of pairwise candidates.
    let mut keyed: Vec<(Vec<u64>, bool, usize)> = (0..n)
        .map(|i| {
            // Normalize so complementary signatures collide: flip when
            // the first state bit is set.
            let flip = sigs[i].first().is_some_and(|&w| w & 1 == 1);
            let key: Vec<u64> = if flip {
                sigs[i]
                    .iter()
                    .enumerate()
                    .map(|(w, &s)| !s & all_ones_mask(w))
                    .collect()
            } else {
                sigs[i].clone()
            };
            (key, flip, i)
        })
        .collect();
    keyed.sort();
    for pair in keyed.windows(2) {
        let (ka, fa, a) = (&pair[0].0, pair[0].1, pair[0].2);
        let (kb, fb, b) = (&pair[1].0, pair[1].1, pair[1].2);
        if ka != kb {
            continue;
        }
        if fa == fb {
            // a ≡ b: (¬a ∨ b) ∧ (a ∨ ¬b).
            push(vec![(a, false), (b, true)], &mut out);
            push(vec![(a, true), (b, false)], &mut out);
        } else {
            // a ≡ ¬b: (a ∨ b) ∧ (¬a ∨ ¬b).
            push(vec![(a, true), (b, true)], &mut out);
            push(vec![(a, false), (b, false)], &mut out);
        }
    }

    // Implications (a → b as ¬a ∨ b), pairwise-scanned only on small
    // designs — the scan is quadratic in the latch count.
    if n <= cfg.max_implication_latches {
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let implies = sigs[a].iter().zip(&sigs[b]).all(|(&sa, &sb)| sa & !sb == 0);
                let nontrivial = sigs[a].iter().any(|&s| s != 0)
                    && sigs[b]
                        .iter()
                        .enumerate()
                        .any(|(w, &s)| s != all_ones_mask(w));
                if implies && nontrivial {
                    push(vec![(a, false), (b, true)], &mut out);
                }
            }
        }
    }
    out
}

/// Runs the full static analysis: ternary fixpoint, candidate mining,
/// and the Houdini inductive filter over one template frame.
///
/// `limits` carries the caller's cancellation surface — stop flag,
/// deadline, chaos — and is cloned into every consecution query (with
/// [`AnalysisConfig::max_conflicts`] as the conflict cap when the
/// caller set none). Any interrupted query cancels the whole analysis.
pub fn analyze(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    cfg: &AnalysisConfig,
    limits: &satb::Limits,
) -> StaticInvariant {
    let mut stats = AnalysisStats::default();
    let mut sim = TernarySim::new(sys);
    let (fix, rounds) = ternary_fixpoint(sys, &mut sim);
    stats.ternary_rounds = rounds;
    stats.ternary_constants = fix.iter().filter(|t| t.known().is_some()).count() as u32;

    let (sigs, total_states) = simulate_signatures(sys, cfg);
    let candidates = mine_candidates(sys, &fix, &sigs, total_states, cfg);
    stats.mined = candidates.len() as u32;
    if candidates.is_empty() {
        return StaticInvariant {
            clauses: Vec::new(),
            constants: Vec::new(),
            stats,
        };
    }
    if limits.stop_requested() {
        return StaticInvariant::cancelled(stats);
    }

    let query_limits = satb::Limits {
        max_conflicts: Some(limits.max_conflicts.unwrap_or(cfg.max_conflicts)),
        ..limits.clone()
    };
    let workers = split::worker_count(candidates.len());
    let Some(alive) = houdini(tpl, &candidates, &query_limits, &mut stats, workers) else {
        return StaticInvariant::cancelled(stats);
    };

    let clauses: Vec<LatchClause> = candidates
        .into_iter()
        .zip(&alive)
        .filter(|&(_, &a)| a)
        .map(|(c, _)| c)
        .collect();
    let constants: Vec<(usize, bool)> = clauses
        .iter()
        .filter(|c| c.len() == 1)
        .map(|c| c[0])
        .collect();
    stats.retained = clauses.len() as u32;
    StaticInvariant {
        clauses,
        constants,
        stats,
    }
}

/// The Houdini fixpoint over `candidates`, split across `workers`
/// solvers: which candidates survive, or `None` when a limit cut a query
/// short.
///
/// Every round splits the live candidates into one chunk per worker.
/// Each worker checks its chunk's consecution under the round's live
/// set minus its own drops, and the round drops every candidate any
/// worker's models falsify. Rounds repeat until one drops nothing.
fn houdini(
    tpl: &TransitionTemplate,
    candidates: &[LatchClause],
    limits: &satb::Limits,
    stats: &mut AnalysisStats,
    workers: usize,
) -> Option<Vec<bool>> {
    let mut solvers: Vec<Option<HoudiniSolver>> = (0..workers).map(|_| None).collect();
    let mut alive = vec![true; candidates.len()];
    loop {
        stats.houdini_rounds += 1;
        let live: Vec<usize> = (0..candidates.len()).filter(|&j| alive[j]).collect();
        let rounds = split::run(&mut solvers, |k, solver| {
            let chunk = &live[split::chunk(live.len(), workers, k)];
            solver
                .get_or_insert_with(|| HoudiniSolver::new(tpl, candidates))
                .round(candidates, &alive, chunk, limits)
        });
        let mut cancelled = false;
        let mut dropped_any = false;
        for round in rounds {
            stats.sat_queries += round.queries;
            cancelled |= round.cancelled;
            for j in round.dropped {
                alive[j] = false;
                dropped_any = true;
            }
        }
        if cancelled {
            // The surviving set was not driven to the fixpoint, so
            // nothing is trustworthy.
            return None;
        }
        if !dropped_any {
            return Some(alive);
        }
    }
}

/// One Houdini worker's solver: one template frame with every candidate
/// asserted on its current-state side, each behind a guard literal of
/// its own. It is built once and kept across rounds.
struct HoudiniSolver {
    solver: Solver,
    frame: FrameVars,
    guards: Vec<Lit>,
}

/// What one worker found in one Houdini round.
struct HoudiniRound {
    /// Consecution queries issued.
    queries: u64,
    /// Candidates falsified by the worker's models.
    dropped: Vec<usize>,
    /// Whether a limit cut a query short.
    cancelled: bool,
}

impl HoudiniSolver {
    fn new(tpl: &TransitionTemplate, candidates: &[LatchClause]) -> HoudiniSolver {
        let mut solver = Solver::new();
        let frame = tpl.instantiate(&mut solver, Part::A, 0);
        let guards = candidates
            .iter()
            .map(|clause| {
                let g = Lit::pos(solver.new_var());
                let mut cl: Vec<Lit> = Vec::with_capacity(clause.len() + 1);
                cl.push(!g);
                cl.extend(clause.iter().map(|&(i, v)| {
                    if v {
                        frame.latch_cur[i]
                    } else {
                        !frame.latch_cur[i]
                    }
                }));
                solver.add_clause(&cl);
                g
            })
            .collect();
        HoudiniSolver {
            solver,
            frame,
            guards,
        }
    }

    /// Queries the consecution of every candidate of `chunk` this worker
    /// has not dropped yet, assuming the candidates `alive` at the start
    /// of the round minus the worker's own drops.
    fn round(
        &mut self,
        candidates: &[LatchClause],
        alive: &[bool],
        chunk: &[usize],
        limits: &satb::Limits,
    ) -> HoudiniRound {
        let mut alive = alive.to_vec();
        let mut round = HoudiniRound {
            queries: 0,
            dropped: Vec::new(),
            cancelled: false,
        };
        let mut assumptions: Vec<Lit> = Vec::new();
        for &idx in chunk {
            if !alive[idx] {
                continue;
            }
            if limits.stop_requested() {
                round.cancelled = true;
                return round;
            }
            assumptions.clear();
            assumptions.extend(
                self.guards
                    .iter()
                    .zip(&alive)
                    .filter(|&(_, &a)| a)
                    .map(|(&g, _)| g),
            );
            assumptions.extend(candidates[idx].iter().map(|&(i, v)| {
                if v {
                    !self.frame.latch_next[i]
                } else {
                    self.frame.latch_next[i]
                }
            }));
            round.queries += 1;
            match self.solver.solve_limited(&assumptions, limits.clone()) {
                SolveResult::Unsat => {}
                SolveResult::Sat => {
                    // The model is a state satisfying every assumed
                    // candidate whose successor escapes at least the
                    // queried one: drop every candidate the successor
                    // falsifies (the queried clause is among them).
                    for (j, clause) in candidates.iter().enumerate() {
                        if !alive[j] {
                            continue;
                        }
                        let falsified = clause
                            .iter()
                            .all(|&(i, v)| self.solver.value(self.frame.latch_next[i]) == Some(!v));
                        if falsified {
                            alive[j] = false;
                            round.dropped.push(j);
                        }
                    }
                    debug_assert!(!alive[idx], "queried candidate must be falsified");
                    if alive[idx] {
                        alive[idx] = false;
                        round.dropped.push(idx);
                    }
                }
                SolveResult::Unknown(_) => {
                    round.cancelled = true;
                    return round;
                }
            }
        }
        round
    }
}

/// Rebuilds `sys` into the netlist the engines solve on: certified
/// stuck-at-constant latches substituted into every cone, then cut to
/// the property's sequential cone of influence.
///
/// * Every CI keeps its ordinal (the blaster's input/latch ordering is
///   load-bearing for traces and frame variables), and every latch
///   keeps its plain-CI `output` — only *references* to a constant
///   latch inside next/constraint/bad cones become the constant.
/// * AND nodes are rebuilt cone-first through the strashed builder, so
///   logic the constants fold away — and nodes outside any cone of
///   interest — vanish, and the surviving nodes are renumbered
///   compactly.
/// * Constraints folding to `true` are stripped (they are implied by
///   the invariant the engines assert anyway); constraints folding to
///   `false` are kept, preserving vacuous-safety semantics. Bad cones
///   are kept positionally even when they fold, so trace bad-indices
///   stay valid.
/// * After the substitution, every latch outside the cone of influence
///   of the bads and constraints ([`AigSystem::latch_coi`] of the
///   rebuilt graph, constant latches included) gets a **free** next
///   state: a fresh CI, appended after the original ordinals, that is
///   neither an input nor a latch output. Its logic is dropped, and
///   [`TransitionTemplate::compile`] turns the CI into an unconstrained
///   variable per frame.
///
/// On states satisfying the constant facts, the result has every
/// transition of `sys` and then some: the cone latches, bads and
/// constraints step exactly as in `sys`, the freed latches take any
/// value. Consumers must therefore assert the invariant on every frame
/// they instantiate, and read counterexample states off `sys` by
/// simulation, never off a model of the result.
pub fn refine_with_constants(sys: &AigSystem, constants: &[(usize, bool)]) -> AigSystem {
    let mut const_of_ci: Vec<Option<bool>> = vec![None; sys.aig.num_cis()];
    for &(latch, v) in constants {
        if let Some(ci) = sys.aig.ci_index(sys.latches[latch].output) {
            const_of_ci[ci] = Some(v);
        }
    }
    let substituted = rebuild(sys, &const_of_ci, &vec![true; sys.latches.len()]);
    let coi = substituted.latch_coi();
    if coi.iter().all(|&c| c) {
        return substituted;
    }
    rebuild(&substituted, &vec![None; sys.aig.num_cis()], &coi)
}

/// Copies the cones of `sys` into a fresh AIG, CIs first in ordinal
/// order: CI `c` becomes the constant `const_of_ci[c]` wherever that is
/// set, latch `i` keeps its next-state cone when `keep_next[i]` and gets
/// a fresh, free CI otherwise.
fn rebuild(sys: &AigSystem, const_of_ci: &[Option<bool>], keep_next: &[bool]) -> AigSystem {
    let mut aig = Aig::new();
    let new_ci: Vec<AigLit> = (0..sys.aig.num_cis()).map(|_| aig.new_ci()).collect();
    let ci_of = |l: AigLit| new_ci[sys.aig.ci_index(l).expect("inputs and latches are CIs")];
    let mut map: Vec<AigLit> = vec![AigLit::FALSE; sys.aig.num_nodes()];
    for (ci, old) in sys.aig.ci_lits().into_iter().enumerate() {
        map[old.node() as usize] = const_of_ci[ci].map_or(new_ci[ci], AigLit::constant);
    }
    let remap = |map: &[AigLit], l: AigLit| {
        let base = map[l.node() as usize];
        if l.is_compl() {
            !base
        } else {
            base
        }
    };

    // Map the cones of interest node-by-node in topological order.
    let mut roots: Vec<AigLit> = sys
        .latches
        .iter()
        .zip(keep_next)
        .filter(|&(_, &keep)| keep)
        .map(|(l, _)| l.next)
        .collect();
    roots.extend(&sys.constraints);
    roots.extend(&sys.bads);
    for node in sys.aig.cone(&roots) {
        let (a, b) = sys.aig.and_fanins_of_node(node).expect("cone yields ANDs");
        map[node as usize] = aig.and(remap(&map, a), remap(&map, b));
    }

    let latches: Vec<Latch> = sys
        .latches
        .iter()
        .zip(keep_next)
        .map(|(l, &keep)| Latch {
            output: ci_of(l.output),
            next: if keep {
                remap(&map, l.next)
            } else {
                aig.new_ci()
            },
            init: l.init,
            name: l.name.clone(),
        })
        .collect();
    AigSystem {
        inputs: sys.inputs.iter().map(|&l| ci_of(l)).collect(),
        input_names: sys.input_names.clone(),
        latches,
        constraints: sys
            .constraints
            .iter()
            .map(|&c| remap(&map, c))
            .filter(|&c| c != AigLit::TRUE)
            .collect(),
        bads: sys.bads.iter().map(|&b| remap(&map, b)).collect(),
        bad_names: sys.bad_names.clone(),
        name: sys.name.clone(),
        aig,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::Latch;
    use crate::Aig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A hand-rolled system: latch 0 stuck at 0 (self-loop from reset
    /// 0), latch 1 free-running on an input, latch 2 mirroring latch 1
    /// one cycle behind... except both reset to 0 and share the input,
    /// so 1 ≡ 2 never holds; instead latch 3 duplicates latch 1
    /// exactly (same next function, same reset).
    fn shaped_system() -> AigSystem {
        let mut aig = Aig::new();
        let inp = aig.new_ci();
        let l0 = aig.new_ci();
        let l1 = aig.new_ci();
        let l3 = aig.new_ci();
        let n1 = aig.xor(l1, inp);
        let n3 = aig.xor(l3, inp);
        let bad = aig.and(l0, l1);
        AigSystem {
            aig,
            inputs: vec![inp],
            input_names: vec!["i".into()],
            latches: vec![
                Latch {
                    output: l0,
                    next: l0,
                    init: Some(false),
                    name: "stuck".into(),
                },
                Latch {
                    output: l1,
                    next: n1,
                    init: Some(false),
                    name: "a".into(),
                },
                Latch {
                    output: l3,
                    next: n3,
                    init: Some(false),
                    name: "b".into(),
                },
            ],
            constraints: vec![],
            bads: vec![bad],
            bad_names: vec!["bad".into()],
            name: "shaped".into(),
        }
    }

    #[test]
    fn finds_stuck_latch_and_equivalence() {
        let sys = shaped_system();
        let tpl = TransitionTemplate::compile(&sys);
        let inv = analyze(
            &sys,
            &tpl,
            &AnalysisConfig::default(),
            &satb::Limits::default(),
        );
        assert!(!inv.stats.cancelled);
        assert!(
            inv.constants.contains(&(0, false)),
            "latch 0 is stuck at 0: {inv:?}"
        );
        // Latches 1 and 2 (indices of "a"/"b") are equivalent; both
        // implication directions must survive Houdini.
        assert!(
            inv.clauses.contains(&vec![(1, false), (2, true)])
                && inv.clauses.contains(&vec![(1, true), (2, false)]),
            "a ≡ b must be retained: {:?}",
            inv.clauses
        );
        assert!(inv.stats.retained as usize == inv.clauses.len());
    }

    #[test]
    fn ternary_fixpoint_is_sound_on_shift_register() {
        // Reset-0 shift register fed by constant 0: everything stuck.
        let mut aig = Aig::new();
        let l0 = aig.new_ci();
        let l1 = aig.new_ci();
        let sys = AigSystem {
            aig,
            inputs: vec![],
            input_names: vec![],
            latches: vec![
                Latch {
                    output: l0,
                    next: crate::graph::AigLit::FALSE,
                    init: Some(false),
                    name: "s0".into(),
                },
                Latch {
                    output: l1,
                    next: l0,
                    init: Some(false),
                    name: "s1".into(),
                },
            ],
            constraints: vec![],
            bads: vec![l1],
            bad_names: vec!["b".into()],
            name: "shift".into(),
        };
        let mut sim = TernarySim::new(&sys);
        let (fix, _) = ternary_fixpoint(&sys, &mut sim);
        assert_eq!(fix, vec![Tern::F, Tern::F]);
    }

    #[test]
    fn cancelled_analysis_returns_clean_empty_invariant() {
        let sys = shaped_system();
        let tpl = TransitionTemplate::compile(&sys);
        let stop = Arc::new(AtomicBool::new(true));
        let limits = satb::Limits {
            stop: Some(stop.clone()),
            ..satb::Limits::default()
        };
        let inv = analyze(&sys, &tpl, &AnalysisConfig::default(), &limits);
        assert!(inv.stats.cancelled);
        assert!(inv.is_empty() && inv.constants.is_empty());
        stop.store(false, Ordering::Relaxed);
    }

    /// `pairs` pairs of 3-bit counters that saturate at 2, each pair
    /// counting on an enable input of its own. A counter's high bit is 0
    /// in every reachable state but not inductive alone (3 steps to 4),
    /// so the first Houdini round drops it and the mined equivalences
    /// that chain one pair's high bits to the next; the two counters of
    /// one pair stay equal bit for bit.
    fn counter_pairs(pairs: usize) -> AigSystem {
        let mut ts = rtlir::TransitionSystem::new("counter-pairs");
        for p in 0..pairs {
            let en = ts.add_input(format!("en{p}"), rtlir::Sort::BOOL);
            for copy in ["a", "b"] {
                let c = ts.add_state(format!("{copy}{p}"), rtlir::Sort::Bv(3));
                let pool = ts.pool_mut();
                let (cv, ev) = (pool.var(c), pool.var(en));
                let [zero, one, two] = [0, 1, 2].map(|v| pool.constv(3, v));
                let full = pool.eq(cv, two);
                let inc = pool.add(cv, one);
                let step = pool.ite(ev, inc, cv);
                let next = pool.ite(full, cv, step);
                ts.set_init(c, zero);
                ts.set_next(c, next);
            }
        }
        crate::blast_system(&ts)
    }

    /// The Houdini fixpoint of `sys`'s mined candidates on `workers`
    /// worker solvers, or `None` when it was cancelled.
    fn houdini_on(
        sys: &AigSystem,
        limits: &satb::Limits,
        workers: usize,
    ) -> Option<(Vec<LatchClause>, AnalysisStats)> {
        let cfg = AnalysisConfig::default();
        let (fix, _) = ternary_fixpoint(sys, &mut TernarySim::new(sys));
        let (sigs, total_states) = simulate_signatures(sys, &cfg);
        let candidates = mine_candidates(sys, &fix, &sigs, total_states, &cfg);
        let tpl = TransitionTemplate::compile(sys);
        let mut stats = AnalysisStats {
            mined: candidates.len() as u32,
            ..AnalysisStats::default()
        };
        let alive = houdini(&tpl, &candidates, limits, &mut stats, workers)?;
        let kept = candidates
            .into_iter()
            .zip(alive)
            .filter_map(|(c, a)| a.then_some(c))
            .collect();
        Some((kept, stats))
    }

    #[test]
    fn houdini_split_keeps_the_greatest_inductive_subset() {
        let pairs = 20;
        let sys = counter_pairs(pairs);
        let unlimited = satb::Limits::default();
        let (serial, stats) = houdini_on(&sys, &unlimited, 1).expect("not cancelled");
        assert!(stats.mined >= 128, "{stats:?}");
        assert!(
            stats.houdini_rounds >= 2,
            "the first round drops: {stats:?}"
        );
        // Exactly the equivalences of the two counters of each pair
        // survive: latch `6p + b` is bit `b` of pair `p`'s first
        // counter, latch `6p + 3 + b` the same bit of its second.
        assert_eq!(serial.len(), 6 * pairs, "{serial:?}");
        for clause in &serial {
            let &[(x, _), (y, _)] = clause.as_slice() else {
                panic!("not an equivalence clause: {clause:?}");
            };
            assert!(x / 6 == y / 6 && x % 3 == y % 3 && x != y, "{clause:?}");
        }
        for workers in [2, 3] {
            let (split, stats) = houdini_on(&sys, &unlimited, workers).expect("not cancelled");
            assert_eq!(split, serial, "{workers} workers");
            assert!(stats.houdini_rounds >= 2, "{stats:?}");
        }
        let tpl = TransitionTemplate::compile(&sys);
        let inv = analyze(&sys, &tpl, &AnalysisConfig::default(), &unlimited);
        assert_eq!(inv.clauses, serial);

        // A stop flag seen by the workers cancels the whole fixpoint.
        let stopped = satb::Limits {
            stop: Some(Arc::new(AtomicBool::new(true))),
            ..satb::Limits::default()
        };
        assert!(houdini_on(&sys, &stopped, 2).is_none());
    }

    /// Whether latch `i`'s next state is a free CI: neither an input nor
    /// a latch output.
    fn is_freed(sys: &AigSystem, i: usize) -> bool {
        let next = sys.latches[i].next;
        sys.aig.ci_index(next).is_some()
            && !sys.inputs.contains(&next)
            && sys.latches.iter().all(|l| l.output != next)
    }

    /// Runs `sys` and `refined` in lockstep from reset under random
    /// inputs and checks that the latches in `refined`'s cone of
    /// influence and the bad outputs agree on every step. Returns how
    /// many latches were checked.
    fn lockstep_on_cone(sys: &AigSystem, refined: &AigSystem) -> usize {
        let coi = refined.latch_coi();
        let mut state = sys.initial_state();
        let mut rng = XorShift::new(7);
        for _ in 0..64 {
            let inputs: Vec<bool> = sys.inputs.iter().map(|_| rng.next_bool()).collect();
            assert_eq!(
                sys.bads_in(&state, &inputs),
                refined.bads_in(&state, &inputs)
            );
            let a = sys.step(&state, &inputs);
            let b = refined.step(&state, &inputs);
            for i in (0..a.len()).filter(|&i| coi[i]) {
                assert_eq!(a[i], b[i], "cone latch {i} diverges on an invariant state");
            }
            state = a;
        }
        coi.iter().filter(|&&c| c).count()
    }

    #[test]
    fn refinement_preserves_ci_ordinals_and_strips_folded_constraints() {
        let sys = shaped_system();
        let refined = refine_with_constants(&sys, &[(0, false)]);
        for (a, b) in sys.latches.iter().zip(&refined.latches) {
            assert_eq!(
                sys.aig.ci_index(a.output),
                refined.aig.ci_index(b.output),
                "latch CI ordinals must be preserved"
            );
        }
        // The bad cone and(l0, l1) folds to FALSE under l0 = 0, so no
        // latch is observable any more: every one is freed, each with a
        // fresh CI appended after the original ordinals.
        assert_eq!(refined.bads[0], AigLit::FALSE);
        assert_eq!(refined.aig.num_cis(), sys.aig.num_cis() + sys.latches.len());
        assert!((0..sys.latches.len()).all(|i| is_freed(&refined, i)));
        assert_eq!(lockstep_on_cone(&sys, &refined), 0);
    }

    #[test]
    fn cone_cut_frees_exactly_the_unobserved_latches() {
        // Without constants, bad = l0 & l1 reads latches 0 and 1 (each
        // feeding itself); latch 2 is outside the cone.
        let sys = shaped_system();
        assert_eq!(sys.latch_coi(), vec![true, true, false]);
        let refined = refine_with_constants(&sys, &[]);
        assert_eq!(refined.aig.num_cis(), sys.aig.num_cis() + 1);
        assert!(!is_freed(&refined, 0) && !is_freed(&refined, 1));
        assert!(is_freed(&refined, 2));
        assert_eq!(lockstep_on_cone(&sys, &refined), 2);
        // Nothing outside the cone is left in the netlist: l3's xor is
        // gone.
        assert_eq!(refined.aig.num_ands(), sys.aig.num_ands() - 3);
    }

    #[test]
    fn constants_fold_before_the_cut_and_cone_latches_keep_their_step() {
        // bad = (l0 & l3) | l1 reads every latch, but under the
        // certified l0 = 0 it reads l1 alone: l0 and l3 are freed, l1
        // keeps its next state and steps as in the netlist.
        let mut sys = shaped_system();
        let [l0, l1, l3] = [0, 1, 2].map(|i| sys.latches[i].output);
        let gated = sys.aig.and(l0, l3);
        sys.bads = vec![sys.aig.or(gated, l1)];
        assert_eq!(sys.latch_coi(), vec![true, true, true]);
        let refined = refine_with_constants(&sys, &[(0, false)]);
        assert_eq!(refined.bads[0], refined.latches[1].output);
        assert!(is_freed(&refined, 0) && is_freed(&refined, 2));
        assert!(!is_freed(&refined, 1));
        assert_eq!(lockstep_on_cone(&sys, &refined), 1);
    }
}
