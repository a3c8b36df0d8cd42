//! The CDCL solver.

use crate::cdb::{CRef, ClauseDb};
use crate::lit::{LBool, Lit, Var};
use crate::proof::{ClauseId, Part, Proof, ResStep};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Per-thread count of [`Solver`] constructions (observability
    /// hook, mirroring `aig::seq::blast_count`).
    static SOLVERS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`Solver`]s constructed by the *current thread*.
///
/// Thread-local on purpose: tests assert construction discipline (e.g.
/// "single-solver PDR builds exactly one solver per run") without
/// racing against solvers created on unrelated test threads.
pub fn solver_count() -> u64 {
    SOLVERS.with(std::cell::Cell::get)
}

/// Which resource limit ended a solve call without an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The per-call conflict budget ([`Limits::max_conflicts`]) ran out.
    ConflictLimit,
    /// The wall-clock deadline ([`Limits::deadline`]) passed.
    Timeout,
    /// The shared stop flag ([`Limits::stop`]) was raised by another
    /// thread (cooperative cancellation, e.g. a portfolio winner).
    Cancelled,
}

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource limit was hit before an answer was derived; the
    /// payload says which one.
    Unknown(Interrupt),
}

/// Resource limits for a single `solve` call.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Give up after this many conflicts (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Give up once this wall-clock instant has passed.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation: give up as soon as this shared flag is
    /// observed `true`. Checked once per solver-loop iteration (every
    /// conflict or decision), so a cancelled solve returns within one
    /// propagation round.
    pub stop: Option<Arc<AtomicBool>>,
    /// Deterministic fault injection for robustness testing: pretend an
    /// external cancellation arrived mid-solve (see [`Chaos`]).
    pub chaos: Option<Chaos>,
}

impl Limits {
    /// Whether the shared stop flag has been raised.
    pub fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }
}

/// Deterministic seeded fault injection ([`Limits::chaos`]).
///
/// When set, each `solve_limited` call picks a conflict threshold in
/// `1..=period` from a hash of `seed` and the solver's per-call epoch
/// counter, and aborts with [`Interrupt::Cancelled`] once the call has
/// analyzed that many conflicts — exactly the code path a real
/// cross-thread cancellation takes, so the solver is left in a clean,
/// reusable state. Calls that finish in fewer conflicts complete
/// normally. The schedule depends only on `seed`, `period` and the
/// order of solve calls, so failures replay deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chaos {
    /// Seed mixed into every per-call threshold.
    pub seed: u64,
    /// Upper bound (inclusive) of the per-call conflict threshold.
    pub period: u64,
}

impl Chaos {
    /// Conflict threshold for the call with the given epoch number.
    pub fn threshold(&self, epoch: u64) -> u64 {
        1 + splitmix64(self.seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % self.period.max(1)
    }
}

/// SplitMix64 finalizer: cheap, well-mixed hash for chaos scheduling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Cumulative solver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses.
    pub learned: u64,
    /// Number of learned-clause reduction passes.
    pub reduces: u64,
    /// Number of learned clauses deleted by reduction.
    pub deleted: u64,
    /// Number of Glucose-style LBD improvements: a learned clause
    /// reused as a conflict-analysis reason whose recomputed LBD was
    /// lower than the stored one (protecting it from reduction).
    pub lbd_improved: u64,
    /// Number of arena compaction (garbage collection) passes.
    pub gcs: u64,
    /// Number of activation variables reused from the free-list by
    /// [`Solver::new_activation`] instead of allocating a fresh one.
    pub act_recycled: u64,
    /// Number of clauses freed by [`Solver::release_activation`] and
    /// [`Solver::remove_clause_activated`] (registered activated
    /// clauses plus the learned clauses their guard taints).
    pub act_released: u64,
    /// Number of releases abandoned because the activation variable was
    /// fixed at level 0 or a dependent clause was locked; the group
    /// goes on the leaked-release list and is reclaimed by the next
    /// sweep (solve entry, restart or reduction pass), except for
    /// clauses that remain the reason of a level-0 assignment.
    pub act_leaked: u64,
    /// Number of clauses reclaimed from abandoned activation groups by
    /// the leaked-release sweep.
    pub act_swept: u64,
    /// Current clause-arena footprint in bytes.
    pub arena_bytes: u64,
    /// High-water clause-arena footprint in bytes.
    pub arena_peak_bytes: u64,
    /// Faults injected by [`Limits::chaos`] (each one surfaced as an
    /// [`Interrupt::Cancelled`] answer).
    pub chaos_injected: u64,
    /// Original clauses deleted by inprocessing because a learned
    /// clause subsumed them (the learned clause is promoted in their
    /// place).
    pub inproc_subsumed: u64,
    /// Approximate bytes held by the recorded resolution proof (zero
    /// when proof logging is off). See [`crate::proof::Proof::bytes`].
    pub proof_bytes: u64,
    /// Derivation chains recorded in the proof (derived clauses plus
    /// the final empty-clause chain).
    pub proof_chains: u64,
}

/// Learned-clause reduction policy.
///
/// Reduction runs every time the conflict count passes a limit that
/// starts at `first_conflicts` and grows by `conflicts_inc` after each
/// pass. A pass keeps binary clauses, "glue" clauses (LBD at most
/// `glue_keep`), locked clauses (currently the reason of an
/// assignment), and the better-scoring half of the rest (low LBD, then
/// high activity); everything else is deleted and the arena is
/// compacted once a fifth of it is garbage.
#[derive(Clone, Copy, Debug)]
pub struct ReduceConfig {
    /// Master switch; `false` keeps every learned clause forever.
    pub enabled: bool,
    /// Conflicts before the first reduction pass.
    pub first_conflicts: u64,
    /// Additional conflicts between passes.
    pub conflicts_inc: u64,
    /// Learned clauses with LBD at most this are never deleted.
    pub glue_keep: u32,
}

impl Default for ReduceConfig {
    fn default() -> ReduceConfig {
        ReduceConfig {
            enabled: true,
            first_conflicts: 2000,
            conflicts_inc: 1000,
            glue_keep: 2,
        }
    }
}

/// A watch-list entry. The clause reference and the binary flag share
/// one word (bit 0 is the flag): for binary clauses the blocker *is*
/// the other literal, so propagation never touches the arena.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    tag: u32,
    blocker: Lit,
}

impl Watcher {
    fn new(cref: CRef, blocker: Lit, binary: bool) -> Watcher {
        debug_assert!(cref.0 < u32::MAX / 2, "clause arena exceeds watcher range");
        Watcher {
            tag: (cref.0 << 1) | binary as u32,
            blocker,
        }
    }
    fn cref(self) -> CRef {
        CRef(self.tag >> 1)
    }
    fn is_binary(self) -> bool {
        self.tag & 1 != 0
    }
}

/// Max-heap over variables ordered by VSIDS activity.
#[derive(Clone, Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<i32>, // -1 if absent
}

impl VarHeap {
    fn ensure(&mut self, n: usize) {
        while self.pos.len() < n {
            self.pos.push(-1);
        }
    }
    fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] >= 0
    }
    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }
    fn bump(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            let i = self.pos[v.index()] as usize;
            self.sift_up(i, act);
        }
    }
    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top.index()] = -1;
        let last = self.heap.pop().expect("nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }
    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[p].index()] {
                break;
            }
            self.swap(i, p);
            i = p;
        }
    }
    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }
    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].index()] = i as i32;
        self.pos[self.heap[j].index()] = j as i32;
    }
}

/// A CDCL SAT solver (see the [crate docs](crate) for an overview).
///
/// The solver is incremental: clauses may be added between `solve`
/// calls, and [`solve_with`](Solver::solve_with) accepts assumption
/// literals whose inconsistent subset is available afterwards via
/// [`failed_assumptions`](Solver::failed_assumptions).
///
/// Clauses live in a flat arena ([`ClauseDb`]): propagation walks one
/// contiguous allocation, binary clauses propagate straight out of the
/// watcher without touching the arena, and the database is kept small
/// by periodic **learned-clause reduction** (see [`ReduceConfig`]):
/// high-LBD, low-activity learned clauses are deleted and the arena is
/// compacted, with watch lists and reason references remapped.
///
/// Proof logging (enabled with [`with_proof`](Solver::with_proof))
/// records resolution chains for interpolant extraction. Reduction is
/// proof-aware: deleting a learned clause never touches the recorded
/// chains (the [`Proof`] owns its data), locked clauses — including the
/// reasons of all level-0 assignments, which the empty-clause
/// derivation resolves against — are never deleted, and the proof-id of
/// each clause travels with it through compaction, so interpolation
/// keeps working across arbitrarily many reduce/GC cycles.
#[derive(Debug)]
pub struct Solver {
    cdb: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    levels: Vec<u32>,
    reasons: Vec<Option<CRef>>,
    trail_pos: Vec<usize>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    ok: bool,
    proof: Option<Proof>,
    model: Vec<LBool>,
    failed: Vec<Lit>,
    stats: Stats,
    seen: Vec<bool>,
    /// Clause-activity increment for reduction scoring.
    cla_inc: f32,
    /// Reduction policy.
    reduce: ReduceConfig,
    /// Conflict count that triggers the next reduction pass.
    next_reduce: u64,
    /// Scratch generation stamps for LBD computation, per level.
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
    /// Live activation groups: clauses registered under each in-use
    /// activation variable, plus the arena/GC watermarks at creation
    /// (so release can scan only the learned clauses allocated since).
    act_entries: HashMap<Var, ActEntry>,
    /// Recycled activation variables, ready for reuse.
    free_acts: Vec<Var>,
    /// Per variable: whether [`new_activation`](Solver::new_activation)
    /// ever returned it. Debug builds assert that no original clause
    /// holds such a guard positively.
    is_guard: Vec<bool>,
    /// Abandoned activation releases awaiting reclamation: their
    /// clauses are all satisfied at level 0 (the guard variable is
    /// fixed false), so they are freed by the next sweep unless they
    /// are currently the reason of an assignment.
    leaked: Vec<LeakedGroup>,
    /// Monotone `solve_limited` call counter; feeds the per-call
    /// [`Chaos`] threshold so injected faults vary across calls but
    /// replay deterministically.
    chaos_epoch: u64,
    /// Learned-clause count that triggers the next inprocessing pass.
    next_inproc: u64,
}

/// Clauses of one abandoned activation release, kept until the sweep
/// can free them.
#[derive(Debug)]
struct LeakedGroup {
    origs: Vec<CRef>,
    learnts: Vec<CRef>,
}

/// Bookkeeping of one activation-literal clause group.
#[derive(Debug)]
struct ActEntry {
    /// Registered original clauses (each contains the negated
    /// activation literal).
    crefs: Vec<CRef>,
    /// Arena word offset when the group was created: learned clauses
    /// allocated after it are the only ones that can mention the
    /// variable — valid while no GC has run since.
    arena_mark: usize,
    /// `stats.gcs` at creation; a mismatch invalidates `arena_mark`.
    gc_mark: u64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver without proof logging.
    pub fn new() -> Solver {
        SOLVERS.with(|c| c.set(c.get() + 1));
        let reduce = ReduceConfig::default();
        Solver {
            cdb: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail_pos: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::default(),
            phase: Vec::new(),
            ok: true,
            proof: None,
            model: Vec::new(),
            failed: Vec::new(),
            stats: Stats::default(),
            seen: Vec::new(),
            cla_inc: 1.0,
            reduce,
            next_reduce: reduce.first_conflicts,
            lbd_stamp: Vec::new(),
            lbd_gen: 0,
            act_entries: HashMap::new(),
            free_acts: Vec::new(),
            is_guard: Vec::new(),
            leaked: Vec::new(),
            chaos_epoch: 0,
            next_inproc: Self::INPROC_INTERVAL,
        }
    }

    /// Creates a solver that records a resolution proof, enabling
    /// [`interpolant`](Solver::interpolant) after an UNSAT answer.
    pub fn with_proof() -> Solver {
        let mut s = Solver::new();
        s.proof = Some(Proof::default());
        s
    }

    /// Whether proof logging is enabled.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// The recorded proof (`None` when proof logging is off).
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.arena_bytes = self.cdb.bytes() as u64;
        s.arena_peak_bytes = self.cdb.peak_bytes() as u64;
        if let Some(p) = &self.proof {
            s.proof_bytes = p.bytes();
            s.proof_chains = p.chains();
        }
        s
    }

    /// The current learned-clause reduction policy.
    pub fn reduce_config(&self) -> ReduceConfig {
        self.reduce
    }

    /// Replaces the learned-clause reduction policy. Lower limits make
    /// reduction (and arena compaction) happen sooner; disabling it
    /// reproduces the historical keep-everything behaviour.
    pub fn set_reduce_config(&mut self, cfg: ReduceConfig) {
        self.reduce = cfg;
        self.next_reduce = self
            .stats
            .conflicts
            .saturating_add(cfg.first_conflicts.max(1));
    }

    /// Enables or disables learned-clause reduction, keeping the other
    /// policy knobs.
    pub fn set_reduce_enabled(&mut self, enabled: bool) {
        let mut cfg = self.reduce;
        cfg.enabled = enabled;
        self.set_reduce_config(cfg);
    }

    /// Additional learned clauses between inprocessing passes.
    const INPROC_INTERVAL: u64 = 500;

    /// Creates `n` fresh variables and returns the first one. The
    /// block is contiguous, so callers that pre-compile a clause image
    /// over local variables (like the `aig` crate's transition
    /// template) can map it into this solver with offset arithmetic.
    pub fn new_vars(&mut self, n: usize) -> Var {
        let first = Var::from_index(self.assigns.len());
        for _ in 0..n {
            self.new_var();
        }
        first
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.levels.push(0);
        self.reasons.push(None);
        self.trail_pos.push(0);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.is_guard.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.lbd_stamp.push(0);
        self.heap.ensure(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.cdb.len()
    }

    /// Whether the clause set is still possibly consistent (`false`
    /// once a top-level contradiction has been derived).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn lit_value(&self, l: Lit) -> LBool {
        match self.assigns[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    /// The value of `l` in the model of the last `Sat` answer.
    ///
    /// Returns `None` if the last answer was not `Sat` or the variable
    /// was created afterwards.
    pub fn value(&self, l: Lit) -> Option<bool> {
        match self.model.get(l.var().index()) {
            Some(LBool::True) => Some(l.is_positive()),
            Some(LBool::False) => Some(!l.is_positive()),
            _ => None,
        }
    }

    /// The inconsistent subset of the assumptions of the last
    /// [`solve_with`](Solver::solve_with) call that returned `Unsat`.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Pre-sizes the clause arena for a batch of `clauses` clauses
    /// totalling `lits` literals, so bulk loading (e.g. reloading the
    /// blocked-cube clauses of a PDR frame) performs one allocation.
    pub fn reserve_clauses(&mut self, clauses: usize, lits: usize) {
        // 4 header words per clause; see `cdb`.
        self.cdb.reserve_words(clauses * 4 + lits);
    }

    /// Bulk-adds clauses. Callers that know the batch size call
    /// [`reserve_clauses`](Solver::reserve_clauses) first so the whole
    /// batch lands in one arena allocation.
    ///
    /// Returns `false` if the solver became inconsistent.
    pub fn add_clauses<'a, I>(&mut self, clauses: I) -> bool
    where
        I: IntoIterator<Item = &'a [Lit]>,
    {
        let mut ok = true;
        for c in clauses {
            ok = self.add_clause(c) && ok;
        }
        ok
    }

    /// Allocates an **activation variable** for a releasable clause
    /// group, reusing a previously released one when possible (the
    /// free-list that replaces the leak-a-var-per-query pattern of
    /// incremental IC3/PDR queries).
    ///
    /// The returned positive literal is the group's guard: add clauses
    /// with [`add_clause_activated`](Solver::add_clause_activated),
    /// enable them by assuming the literal, retire one clause with
    /// [`remove_clause_activated`](Solver::remove_clause_activated)
    /// and the whole group with
    /// [`release_activation`](Solver::release_activation). The caller
    /// must only use the variable as an assumption guard — it must
    /// never occur positively in a clause, or both become unsound
    /// (debug builds assert this on every original clause).
    pub fn new_activation(&mut self) -> Lit {
        let v = match self.free_acts.pop() {
            Some(v) => {
                debug_assert_eq!(self.assigns[v.index()], LBool::Undef);
                self.stats.act_recycled += 1;
                v
            }
            None => {
                let v = self.new_var();
                self.is_guard[v.index()] = true;
                v
            }
        };
        self.act_entries.insert(
            v,
            ActEntry {
                crefs: Vec::new(),
                arena_mark: self.cdb.bytes() / 4,
                gc_mark: self.stats.gcs,
            },
        );
        Lit::pos(v)
    }

    /// Adds a clause guarded by (and registered under) the activation
    /// literal `act` returned by
    /// [`new_activation`](Solver::new_activation): the stored clause is
    /// `lits ∨ ¬act`, active only while `act` is assumed.
    ///
    /// Returns `false` if the solver is now known inconsistent.
    pub fn add_clause_activated(&mut self, act: Lit, lits: &[Lit]) -> bool {
        debug_assert!(
            self.act_entries.contains_key(&act.var()),
            "activation literal not obtained from new_activation"
        );
        let mut full: Vec<Lit> = Vec::with_capacity(lits.len() + 1);
        full.extend_from_slice(lits);
        full.push(!act);
        let before = self.cdb.originals().len();
        let ok = self.add_clause(&full);
        let added = self.cdb.originals()[before..].to_vec();
        if let Some(e) = self.act_entries.get_mut(&act.var()) {
            e.crefs.extend(added);
        }
        ok
    }

    /// [`add_clause_activated`](Solver::add_clause_activated) for
    /// clauses the caller guarantees are already normalized (pairwise
    /// distinct variables, no tautology) — the cheap path for PDR's
    /// blocking clauses, which are sorted by latch index and guarded by
    /// a frame activation variable that occurs in no literal.
    /// Skips the sort/dedup scan of the general path; the stored clause
    /// is still `lits ∨ ¬act` and registered under the group.
    ///
    /// Returns `false` if the solver is now known inconsistent.
    pub fn add_clause_activated_prenormalized(&mut self, act: Lit, lits: &[Lit]) -> bool {
        debug_assert!(
            self.act_entries.contains_key(&act.var()),
            "activation literal not obtained from new_activation"
        );
        let mut full: Vec<Lit> = Vec::with_capacity(lits.len() + 1);
        full.extend_from_slice(lits);
        full.push(!act);
        let before = self.cdb.originals().len();
        let ok = self.add_clause_prenormalized(&full, Part::A, 0);
        let added = self.cdb.originals()[before..].to_vec();
        if let Some(e) = self.act_entries.get_mut(&act.var()) {
            e.crefs.extend(added);
        }
        ok
    }

    /// Retires an activation group: frees its registered clauses *and*
    /// every learned clause mentioning the activation variable, then
    /// returns the variable to the free-list for reuse.
    ///
    /// Why deleting exactly those clauses is sound: the activation
    /// variable appears positively only as an assumption, never in any
    /// clause, so no resolution step can eliminate its negative
    /// literal — every clause whose derivation used the guarded group
    /// still contains it. Clauses without the literal were derived
    /// from the rest of the database and remain implied.
    ///
    /// If the variable was fixed at level 0 (the guarded clause
    /// simplified to a unit) or a dependent clause is currently the
    /// reason of a level-0 assignment, the release is abandoned
    /// (counted in [`Stats::act_leaked`]) and the group goes on the
    /// leaked-release list: because the guard variable only occurs
    /// negatively, it can only ever be *fixed false*, which satisfies
    /// every clause of the group at level 0 — so the next sweep (on a
    /// restart, a reduction pass or a compaction) reclaims every
    /// member that is not pinned as the reason of a level-0
    /// assignment (a compaction prunes and forwards the list; the
    /// freeing itself happens on the solve-entry/restart/reduction
    /// sweeps). Long runs no longer accumulate dead clauses.
    ///
    /// Returns `true` when the group was freed immediately; `false`
    /// when the release was abandoned (the variable is *not* returned
    /// to the free-list then, and any caller-side scratch variables
    /// scoped to the group must not be reused).
    pub fn release_activation(&mut self, act: Lit) -> bool {
        let v = act.var();
        let Some(entry) = self.act_entries.remove(&v) else {
            return false;
        };
        debug_assert!(self.trail_lim.is_empty(), "release happens at level 0");
        let doomed_learnts = self.tainted_learnts(v, &entry);
        let doomed = entry.crefs;
        if self.assigns[v.index()] != LBool::Undef
            || doomed
                .iter()
                .chain(&doomed_learnts)
                .any(|&c| self.is_reason_clause(c))
        {
            self.stats.act_leaked += 1;
            self.leaked.push(LeakedGroup {
                origs: doomed,
                learnts: doomed_learnts,
            });
            return false;
        }
        self.free_guarded(&doomed, &doomed_learnts);
        self.free_acts.push(v);
        true
    }

    /// Retires one clause of a live activation group: frees the stored
    /// clause `lits ∨ ¬act` and every learned clause that mentions the
    /// guard variable, and leaves the group and its guard live, so
    /// later clauses can still be added under `act`.
    ///
    /// Dropping the tainted learned clauses is what makes this sound
    /// with no further caller contract, by the argument of
    /// [`release_activation`](Solver::release_activation): every
    /// learned clause whose derivation used the retired clause still
    /// contains `¬act`, so every learned clause that remains is implied
    /// by the original clauses that remain. The group's other clauses
    /// lose their learned consequences, which the search re-derives
    /// where it needs them.
    ///
    /// The stored clause is found by literal set, not by order: watch
    /// swaps permute the stored literals, and level-0 simplification
    /// dropped those already false when the clause was added. A
    /// registered clause matches when it contains `¬act`, its literals
    /// are a subset of `lits ∨ ¬act`, and every literal it lacks is
    /// false at level 0. Two matching clauses are equal modulo level-0
    /// facts, so retiring either is the same.
    ///
    /// Call it between solves, at level 0. It removes nothing and
    /// returns `false` when no registered clause matches (a clause
    /// satisfied at level 0 is never stored), when the guard is
    /// assigned at level 0, or when the clause or a tainted learned
    /// clause is the reason of an assignment; keeping a clause is
    /// always sound. Freed clauses count in [`Stats::act_released`].
    pub fn remove_clause_activated(&mut self, act: Lit, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "removal happens at level 0");
        let v = act.var();
        let Some(entry) = self.act_entries.get(&v) else {
            return false;
        };
        if self.assigns[v.index()] != LBool::Undef {
            return false;
        }
        let Some(pos) = entry
            .crefs
            .iter()
            .position(|&c| self.stores_guarded(c, act, lits))
        else {
            return false;
        };
        let c = entry.crefs[pos];
        let learnts = self.tainted_learnts(v, entry);
        if self.is_reason_clause(c) || learnts.iter().any(|&l| self.is_reason_clause(l)) {
            return false;
        }
        self.free_guarded(&[c], &learnts);
        // `remove` keeps the registry in ascending order, which a later
        // release relies on.
        if let Some(e) = self.act_entries.get_mut(&v) {
            e.crefs.remove(pos);
        }
        true
    }

    /// Whether the stored clause `c` is `lits ∨ ¬act` up to literals
    /// false at level 0 (see
    /// [`remove_clause_activated`](Solver::remove_clause_activated)).
    fn stores_guarded(&self, c: CRef, act: Lit, lits: &[Lit]) -> bool {
        let stored = self.cdb.lits(c);
        stored.len() <= lits.len() + 1
            && stored.iter().all(|&l| l == !act || lits.contains(&l))
            && stored.contains(&!act)
            && lits
                .iter()
                .all(|&l| stored.contains(&l) || self.lit_value(l) == LBool::False)
    }

    /// The learned clauses mentioning `v`, the guard of the live group
    /// `entry`, in ascending `CRef` order.
    fn tainted_learnts(&self, v: Var, entry: &ActEntry) -> Vec<CRef> {
        // Such clauses can only have been allocated after the group's
        // mark; skip the scan of the older arena prefix unless a
        // compaction moved things since.
        let mark = if self.stats.gcs == entry.gc_mark {
            entry.arena_mark
        } else {
            0
        };
        let learnts = self.cdb.learnts();
        // The registry is in ascending CRef order, so the pre-mark
        // prefix is skipped outright, not merely filtered.
        let start = learnts.partition_point(|c| c.index() < mark);
        learnts[start..]
            .iter()
            .copied()
            .filter(|&c| self.cdb.lits(c).iter().any(|l| l.var() == v))
            .collect()
    }

    /// Frees guarded original clauses and the learned clauses their
    /// guard taints (each list in ascending order, none of them a
    /// reason), counting them in [`Stats::act_released`].
    fn free_guarded(&mut self, origs: &[CRef], learnts: &[CRef]) {
        for &c in origs.iter().chain(learnts) {
            self.detach(c);
            self.cdb.free(c);
            self.stats.act_released += 1;
        }
        self.cdb.remove_from_registry(false, origs);
        self.cdb.remove_from_registry(true, learnts);
    }

    /// Reclaims abandoned activation groups (see
    /// [`release_activation`](Solver::release_activation)): every
    /// member clause is satisfied at level 0 by the fixed-false guard
    /// variable, so deleting it is sound at any decision level; only
    /// clauses currently serving as the reason of an assignment are
    /// kept for a later sweep. Runs on solve entry, restarts and
    /// reduction passes (compaction only prunes and forwards the
    /// leaked list).
    fn sweep_leaked(&mut self) {
        if self.leaked.is_empty() {
            return;
        }
        let mut groups = std::mem::take(&mut self.leaked);
        for g in &mut groups {
            // Reduction may have freed contaminated learned clauses on
            // its own; drop those entries before touching anything.
            g.learnts.retain(|&c| !self.cdb.is_deleted(c));
            for learnt in [false, true] {
                let list = if learnt { &g.learnts } else { &g.origs };
                let mut freed: Vec<CRef> = Vec::new();
                let mut kept: Vec<CRef> = Vec::new();
                for &c in list {
                    if self.is_reason_clause(c) {
                        kept.push(c);
                    } else {
                        freed.push(c);
                    }
                }
                for &c in &freed {
                    // Effective-unit clauses are stored unattached.
                    if self.cdb.size(c) >= 2 {
                        self.detach(c);
                    }
                    self.cdb.free(c);
                    self.stats.act_swept += 1;
                }
                self.cdb.remove_from_registry(learnt, &freed);
                if learnt {
                    g.learnts = kept;
                } else {
                    g.origs = kept;
                }
            }
        }
        groups.retain(|g| !g.origs.is_empty() || !g.learnts.is_empty());
        self.leaked = groups;
    }

    /// Adds a clause, defaulting to partition [`Part::A`] for proofs.
    ///
    /// Returns `false` if the solver is now known inconsistent.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_in(lits, Part::A)
    }

    /// Adds a clause with an interpolation partition label.
    ///
    /// Returns `false` if the solver is now known inconsistent.
    pub fn add_clause_in(&mut self, lits: &[Lit], part: Part) -> bool {
        self.add_clause_tagged(lits, part, 0)
    }

    /// Adds a clause with a partition label and a caller tag; tags let
    /// [`interpolant_with`](Solver::interpolant_with) re-partition one
    /// refutation into a whole *sequence* of interpolants (one per
    /// time-frame cut), which is how the IMPACT-style analyzer gets
    /// chained interpolants.
    ///
    /// Returns `false` if the solver is now known inconsistent.
    pub fn add_clause_tagged(&mut self, lits: &[Lit], part: Part, tag: u32) -> bool {
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedupe, detect tautology.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        for w in ls.windows(2) {
            if w[0].var() == w[1].var() {
                return true; // tautology: x | !x
            }
        }
        self.add_normalized(ls, part, tag)
    }

    /// Adds a clause the caller guarantees is already normalized — its
    /// literals are over pairwise-distinct variables (no duplicates, no
    /// tautology). This is the bulk-load fast path for pre-compiled
    /// clause images (the `aig` transition template): no sort, no
    /// dedup, and in the common case (no proof logging, no literal
    /// already assigned) no per-clause allocation at all. Level-0
    /// simplification and watch selection are identical to
    /// [`add_clause_tagged`](Solver::add_clause_tagged).
    ///
    /// Returns `false` if the solver is now known inconsistent.
    pub fn add_clause_prenormalized(&mut self, lits: &[Lit], part: Part, tag: u32) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert!(
            {
                let mut vs: Vec<Var> = lits.iter().map(|l| l.var()).collect();
                vs.sort_unstable();
                vs.windows(2).all(|w| w[0] != w[1])
            },
            "pre-normalized clause has duplicate variables: {lits:?}"
        );
        debug_assert!(
            self.guards_negative(lits),
            "activation guard occurs positively: {lits:?}"
        );
        if self.proof.is_none() && lits.len() >= 2 {
            let mut any_assigned = false;
            for &l in lits {
                match self.lit_value(l) {
                    LBool::True => return true, // satisfied at top level
                    LBool::False => any_assigned = true,
                    LBool::Undef => {}
                }
            }
            if !any_assigned {
                // All literals free: watch the first two, store the
                // clause straight from the caller's slice.
                debug_assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
                let cref = self.cdb.alloc(lits, false, ClauseId(0));
                self.attach(cref);
                return true;
            }
        }
        self.add_normalized(lits.to_vec(), part, tag)
    }

    /// Shared tail of the clause-add paths: level-0 simplification,
    /// proof registration, watch selection. `ls` must be normalized.
    fn add_normalized(&mut self, mut ls: Vec<Lit>, part: Part, tag: u32) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        debug_assert!(
            self.guards_negative(&ls),
            "activation guard occurs positively: {ls:?}"
        );
        // Drop literals already false at level 0 only when proofs are
        // off (with proofs the drop would need extra resolution steps,
        // so we keep the clause intact and let analysis handle it).
        if self.proof.is_none() {
            if ls.iter().any(|&l| self.lit_value(l) == LBool::True) {
                return true; // satisfied at top level
            }
            ls.retain(|&l| self.lit_value(l) != LBool::False);
        }

        let pid = match &mut self.proof {
            Some(p) => p.add_original(part, ls.clone(), tag),
            None => ClauseId(0),
        };
        if ls.is_empty() {
            self.ok = false;
            if let Some(p) = &mut self.proof {
                p.set_empty(pid, Vec::new());
            }
            return false;
        }

        // Choose watch positions: prefer non-false literals.
        let mut nonfalse: Vec<usize> = Vec::new();
        for (i, &l) in ls.iter().enumerate() {
            if self.lit_value(l) != LBool::False {
                nonfalse.push(i);
                if nonfalse.len() == 2 {
                    break;
                }
            }
        }
        match nonfalse.len() {
            0 => {
                // All literals false at level 0: top-level conflict.
                let cref = self.cdb.alloc(&ls, false, pid);
                self.derive_empty_from(cref);
                self.ok = false;
                false
            }
            1 => {
                // Exactly one non-false literal: a top-level implication.
                let unit = ls[nonfalse[0]];
                let cref = self.cdb.alloc(&ls, false, pid);
                if self.lit_value(unit) == LBool::Undef {
                    self.enqueue(unit, Some(cref));
                    if let Some(confl) = self.propagate() {
                        self.derive_empty_from(confl);
                        self.ok = false;
                        return false;
                    }
                }
                true
            }
            _ => {
                ls.swap(0, nonfalse[0]);
                // The first swap may have moved the second pick.
                let j = if nonfalse[1] == 0 {
                    nonfalse[0]
                } else {
                    nonfalse[1]
                };
                ls.swap(1, j);
                let cref = self.cdb.alloc(&ls, false, pid);
                self.attach(cref);
                true
            }
        }
    }

    /// The activation contract for an original clause: no literal is
    /// the positive literal of a guard from
    /// [`new_activation`](Solver::new_activation).
    fn guards_negative(&self, lits: &[Lit]) -> bool {
        lits.iter()
            .all(|l| !(l.is_positive() && self.is_guard[l.var().index()]))
    }

    /// Installs the two watchers of a clause (binary clauses get the
    /// inline-blocker fast path).
    fn attach(&mut self, cref: CRef) {
        let l0 = self.cdb.lit(cref, 0);
        let l1 = self.cdb.lit(cref, 1);
        let binary = self.cdb.size(cref) == 2;
        self.watches[(!l0).code()].push(Watcher::new(cref, l1, binary));
        self.watches[(!l1).code()].push(Watcher::new(cref, l0, binary));
    }

    /// Removes the two watchers of a live attached clause (positions 0
    /// and 1 always hold the currently watched literals).
    fn detach(&mut self, cref: CRef) {
        debug_assert!(self.cdb.size(cref) >= 2, "unit clauses are never attached");
        for i in 0..2 {
            let l = self.cdb.lit(cref, i);
            let ws = &mut self.watches[(!l).code()];
            if let Some(p) = ws.iter().position(|w| w.cref() == cref) {
                ws.swap_remove(p);
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<CRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.levels[v] = self.decision_level();
        self.reasons[v] = reason;
        self.trail_pos[v] = self.trail.len();
        self.trail.push(l);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.phase[v] = l.is_positive();
            self.assigns[v] = LBool::Undef;
            self.reasons[v] = None;
            self.heap.insert(l.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict: Option<CRef> = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                let bval = self.lit_value(w.blocker);
                if bval == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if w.is_binary() {
                    // The blocker is the only other literal: propagate
                    // or conflict without reading the arena.
                    ws[j] = w;
                    j += 1;
                    if bval == LBool::False {
                        while i < ws.len() {
                            ws[j] = ws[i];
                            j += 1;
                            i += 1;
                        }
                        conflict = Some(w.cref());
                    } else {
                        self.enqueue(w.blocker, Some(w.cref()));
                    }
                    if conflict.is_some() {
                        break 'watchers;
                    }
                    continue;
                }
                let cref = w.cref();
                // Make sure the false literal is at position 1.
                let false_lit = !p;
                if self.cdb.lit(cref, 0) == false_lit {
                    self.cdb.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.cdb.lit(cref, 1), false_lit);
                let first = self.cdb.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = Watcher::new(cref, first, false);
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.cdb.size(cref);
                for k in 2..len {
                    let lk = self.cdb.lit(cref, k);
                    if self.lit_value(lk) != LBool::False {
                        self.cdb.swap_lits(cref, 1, k);
                        self.watches[(!lk).code()].push(Watcher::new(cref, first, false));
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = Watcher::new(cref, first, false);
                j += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: copy back remaining watchers and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bump(v, &self.activity);
    }

    /// Bumps a learned clause's reduction activity.
    fn bump_clause(&mut self, c: CRef) {
        if !self.cdb.is_learnt(c) {
            return;
        }
        let a = self.cdb.activity(c) + self.cla_inc;
        self.cdb.set_activity(c, a);
        if a > 1e20 {
            for &lc in &self.cdb.learnts().to_vec() {
                let v = self.cdb.activity(lc) * 1e-20;
                self.cdb.set_activity(lc, v);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Glucose-style dynamic LBD re-scoring: when a learned clause is
    /// used in conflict analysis (as the conflict or as a reason), its
    /// literals are all assigned, so its LBD can be recomputed against
    /// the current decision levels. A clause that has become "glue"
    /// since it was learned gets its stored LBD lowered, protecting it
    /// from the next reduction pass.
    fn rescore_lbd(&mut self, c: CRef) {
        if !self.cdb.is_learnt(c) {
            return;
        }
        let old = self.cdb.lbd(c);
        if old <= self.reduce.glue_keep {
            return; // already permanently kept
        }
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for k in 0..self.cdb.size(c) {
            let lvl = self.levels[self.cdb.lit(c, k).var().index()] as usize;
            if self.lbd_stamp[lvl] != self.lbd_gen {
                self.lbd_stamp[lvl] = self.lbd_gen;
                lbd += 1;
            }
        }
        if lbd < old {
            self.cdb.set_lbd(c, lbd);
            self.stats.lbd_improved += 1;
        }
    }

    /// Literal-block distance: number of distinct decision levels.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_gen += 1;
        let mut lbd = 0;
        for &l in lits {
            let lvl = self.levels[l.var().index()] as usize;
            if self.lbd_stamp[lvl] != self.lbd_gen {
                self.lbd_stamp[lvl] = self.lbd_gen;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis. Returns `(learned clause, backtrack
    /// level)`; the asserting literal is at position 0 and the
    /// highest-level remaining literal at position 1. Records a proof
    /// chain when logging is enabled.
    fn analyze(&mut self, confl: CRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot for UIP
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut clause = confl;
        let mut steps: Vec<ResStep> = Vec::new();
        let start_id = self.proof.as_ref().map(|_| self.cdb.proof_id(confl));
        // Level-0 variables whose literals were dropped; each needs a
        // resolution step against its reason clause in the proof.
        let mut level0: HashSet<Var> = HashSet::new();

        loop {
            self.bump_clause(clause);
            self.rescore_lbd(clause);
            let n = self.cdb.size(clause);
            for k in 0..n {
                let q = self.cdb.lit(clause, k);
                if Some(q) == p {
                    continue; // the literal resolved on
                }
                let v = q.var();
                if self.seen[v.index()] {
                    continue;
                }
                if self.levels[v.index()] == 0 {
                    if self.proof.is_some() {
                        level0.insert(v);
                    }
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.levels[v.index()] >= self.decision_level() {
                    path_count += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Select next literal to resolve on (latest seen on trail).
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !pl;
                break;
            }
            clause = self.reasons[pl.var().index()].expect("non-UIP literal has a reason");
            if self.proof.is_some() {
                steps.push(ResStep {
                    pivot: pl.var(),
                    other: self.cdb.proof_id(clause),
                });
            }
            p = Some(pl);
        }

        // Clause minimization: drop literals whose reason clause is
        // subsumed by the learned clause (plus level-0 literals).
        for &q in &learnt[1..] {
            self.seen[q.var().index()] = true;
        }
        let mut kept: Vec<Lit> = vec![learnt[0]];
        // (trail position, pivot var, reason cref) of removed literals,
        // recorded so proof steps can be emitted in a valid order.
        let mut removed: Vec<(usize, Var, CRef)> = Vec::new();
        for &q in &learnt[1..] {
            let vi = q.var().index();
            let removable = match self.reasons[vi] {
                None => false,
                Some(r) => self.cdb.lits(r).iter().all(|&w| {
                    w == !q || self.seen[w.var().index()] || self.levels[w.var().index()] == 0
                }),
            };
            if removable {
                let r = self.reasons[vi].expect("checked above");
                removed.push((self.trail_pos[vi], q.var(), r));
            } else {
                kept.push(q);
            }
        }
        for &q in &learnt[1..] {
            self.seen[q.var().index()] = false;
        }

        if self.proof.is_some() {
            // Minimization resolutions must run latest-assigned first so
            // no resolved literal is ever re-introduced.
            removed.sort_by_key(|r| std::cmp::Reverse(r.0));
            for &(_, v, r) in &removed {
                steps.push(ResStep {
                    pivot: v,
                    other: self.cdb.proof_id(r),
                });
                for k in 0..self.cdb.size(r) {
                    let w = self.cdb.lit(r, k);
                    if self.levels[w.var().index()] == 0 {
                        level0.insert(w.var());
                    }
                }
            }
            // Resolve away dropped level-0 literals, transitively,
            // also latest-assigned first.
            let mut l0: Vec<Var> = level0.iter().copied().collect();
            let mut qi = 0;
            while qi < l0.len() {
                let v = l0[qi];
                qi += 1;
                let r = self.reasons[v.index()].expect("level-0 assignment has a clause reason");
                for k in 0..self.cdb.size(r) {
                    let w = self.cdb.lit(r, k);
                    let wv = w.var();
                    if self.lit_value(w) == LBool::False
                        && self.levels[wv.index()] == 0
                        && level0.insert(wv)
                    {
                        l0.push(wv);
                    }
                }
            }
            l0.sort_by(|a, b| self.trail_pos[b.index()].cmp(&self.trail_pos[a.index()]));
            for v in l0 {
                let r = self.reasons[v.index()].expect("level-0 assignment has a clause reason");
                steps.push(ResStep {
                    pivot: v,
                    other: self.cdb.proof_id(r),
                });
            }
            if let (Some(proof), Some(sid)) = (&mut self.proof, start_id) {
                proof.add_derived(sid, steps);
            }
        }

        let mut learnt = kept;
        // Backtrack level: second-highest level in the clause; move that
        // literal to position 1 (it becomes the second watch).
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var().index()] > self.levels[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    /// Derives the empty clause from a conflict at decision level 0.
    fn derive_empty_from(&mut self, confl: CRef) {
        if self.proof.is_none() {
            return;
        }
        let start = self.cdb.proof_id(confl);
        let mut set: HashSet<Var> = HashSet::new();
        let mut queue: Vec<Var> = Vec::new();
        for &l in self.cdb.lits(confl) {
            if set.insert(l.var()) {
                queue.push(l.var());
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let v = queue[qi];
            qi += 1;
            let r = self.reasons[v.index()].expect("level-0 assignment has a clause reason");
            for k in 0..self.cdb.size(r) {
                let w = self.cdb.lit(r, k);
                if self.lit_value(w) == LBool::False && set.insert(w.var()) {
                    queue.push(w.var());
                }
            }
        }
        queue.sort_by(|a, b| self.trail_pos[b.index()].cmp(&self.trail_pos[a.index()]));
        let steps: Vec<ResStep> = queue
            .into_iter()
            .map(|v| ResStep {
                pivot: v,
                other: self
                    .cdb
                    .proof_id(self.reasons[v.index()].expect("has reason")),
            })
            .collect();
        if let Some(p) = &mut self.proof {
            p.set_empty(start, steps);
        }
    }

    fn learn(&mut self, learnt: Vec<Lit>, proof_id: ClauseId) -> CRef {
        let lbd = self.compute_lbd(&learnt);
        let cref = self.cdb.alloc(&learnt, true, proof_id);
        self.cdb.set_lbd(cref, lbd);
        self.cdb.set_activity(cref, self.cla_inc);
        if learnt.len() >= 2 {
            self.attach(cref);
        }
        self.stats.learned += 1;
        cref
    }

    /// Whether a clause is the reason of a current assignment (deleting
    /// it would dangle the trail).
    fn is_locked(&self, c: CRef) -> bool {
        let l0 = self.cdb.lit(c, 0);
        self.lit_value(l0) == LBool::True && self.reasons[l0.var().index()] == Some(c)
    }

    /// Like [`is_locked`](Solver::is_locked) but checks every literal:
    /// clauses that became unit during `add` can be the reason of a
    /// literal that is not at position 0.
    fn is_reason_clause(&self, c: CRef) -> bool {
        (0..self.cdb.size(c)).any(|k| {
            let l = self.cdb.lit(c, k);
            self.lit_value(l) == LBool::True && self.reasons[l.var().index()] == Some(c)
        })
    }

    /// Lightweight inprocessing, run between solve calls at level 0:
    /// backward subsumption of the *original* image by learned
    /// clauses. A learned clause whose literals are a subset of an
    /// original's makes that original redundant — common in
    /// incremental model checking, where the search keeps re-deriving
    /// sharper versions of the transition-relation clauses it actually
    /// uses. The subsumed original is deleted and the learned clause
    /// is **promoted to original status** in its place, so a later
    /// reduction pass can never drop the only remaining copy of the
    /// constraint. Counted in [`Stats::inproc_subsumed`].
    ///
    /// Skipped whenever the bookkeeping could be invalidated: proof
    /// logging (original clauses anchor resolution chains), live or
    /// leaked activation groups (their registries hold `CRef`s into
    /// the original registry), or an inconsistent solver. Clauses
    /// serving as level-0 reasons are never removed.
    fn inprocess(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "inprocessing above level 0");
        if self.proof.is_some()
            || !self.ok
            || !self.act_entries.is_empty()
            || !self.leaked.is_empty()
        {
            return;
        }
        let learnts: Vec<CRef> = self.cdb.learnts().to_vec();
        if learnts.is_empty() {
            return;
        }
        // Signature: a 64-bit Bloom word over variable indices; L can
        // only subsume O when sig(L) & !sig(O) == 0.
        let sig = |db: &ClauseDb, c: CRef| {
            db.lits(c)
                .iter()
                .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
        };
        // Occurrence lists over the original image, each entry
        // carrying the clause's signature and size so most candidates
        // are rejected without touching its literals.
        let mut occ: Vec<Vec<(CRef, u64, u32)>> = vec![Vec::new(); 2 * self.num_vars()];
        for &c in self.cdb.originals() {
            let s = sig(&self.cdb, c);
            let n = self.cdb.size(c) as u32;
            if n < 2 {
                continue; // a unit original is subsumable only by its twin
            }
            for &l in self.cdb.lits(c) {
                occ[l.code()].push((c, s, n));
            }
        }
        // Mark-based subset test over unsorted literal arrays.
        let mut mark = vec![0u32; 2 * self.num_vars()];
        let mut gen = 0u32;
        let mut doomed: Vec<CRef> = Vec::new();
        for &lc in &learnts {
            if self.cdb.is_deleted(lc) || !self.cdb.is_learnt(lc) {
                continue; // deleted earlier, or already promoted
            }
            let lsig = sig(&self.cdb, lc);
            let lsize = self.cdb.size(lc) as u32;
            // Probe the shortest occurrence list among L's literals.
            let Some(&probe) = self.cdb.lits(lc).iter().min_by_key(|l| occ[l.code()].len()) else {
                continue;
            };
            gen += 1;
            for &l in self.cdb.lits(lc) {
                mark[l.code()] = gen;
            }
            let mut promoted = false;
            for i in 0..occ[probe.code()].len() {
                let (oc, osig, osize) = occ[probe.code()][i];
                if osize < lsize || lsig & !osig != 0 || self.cdb.is_deleted(oc) {
                    continue;
                }
                // L ⊆ O iff every one of O's marked literals accounts
                // for one of L's (both are duplicate-free).
                let hits = self
                    .cdb
                    .lits(oc)
                    .iter()
                    .filter(|l| mark[l.code()] == gen)
                    .count() as u32;
                if hits < lsize {
                    continue;
                }
                if self.is_reason_clause(oc) {
                    continue; // deleting it would dangle the trail
                }
                self.detach(oc);
                self.cdb.free(oc);
                doomed.push(oc);
                self.stats.inproc_subsumed += 1;
                if !promoted {
                    self.cdb.promote_to_original(lc);
                    promoted = true;
                }
            }
        }
        if !doomed.is_empty() {
            doomed.sort_unstable();
            self.cdb.remove_from_registry(false, &doomed);
            if self.cdb.should_collect() {
                self.collect_garbage();
            }
        }
    }

    /// Learned-clause reduction: deletes the worse half of the
    /// deletable learned clauses (high LBD, low activity), keeping
    /// binary, glue and locked clauses, then compacts the arena when
    /// enough of it is garbage. Proof records are untouched — see the
    /// type-level docs.
    fn reduce_db(&mut self) {
        self.stats.reduces += 1;
        self.sweep_leaked();
        let glue_keep = self.reduce.glue_keep;
        let mut deletable: Vec<CRef> = Vec::new();
        let mut kept: Vec<CRef> = Vec::new();
        for &c in self.cdb.learnts() {
            if self.cdb.size(c) <= 2 || self.cdb.lbd(c) <= glue_keep || self.is_locked(c) {
                kept.push(c);
            } else {
                deletable.push(c);
            }
        }
        // Delete the worse half: highest LBD first, lowest activity as
        // the tie-break.
        deletable.sort_by(|&a, &b| {
            self.cdb.lbd(a).cmp(&self.cdb.lbd(b)).then(
                self.cdb
                    .activity(b)
                    .partial_cmp(&self.cdb.activity(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let keep_n = deletable.len() / 2;
        for (i, &c) in deletable.iter().enumerate() {
            if i < keep_n {
                kept.push(c);
            } else {
                self.cdb.free(c);
                self.stats.deleted += 1;
            }
        }
        let deleted_any = kept.len() != self.cdb.learnts().len();
        kept.sort_unstable(); // restore insertion (arena) order
        self.cdb.set_learnts(kept);
        if deleted_any {
            // Drop watchers of deleted clauses in one sweep.
            for ws in &mut self.watches {
                ws.retain(|w| !self.cdb.is_deleted(w.cref()));
            }
        }
        if self.cdb.should_collect() {
            self.collect_garbage();
        }
    }

    /// Compacts the clause arena and remaps every watcher and reason.
    fn collect_garbage(&mut self) {
        // Leaked-release entries freed since the last sweep (by the
        // sweep itself or by reduction) must be pruned before
        // compaction; the survivors are live registry members and get
        // forwarded like everything else.
        let mut leaked = std::mem::take(&mut self.leaked);
        for g in &mut leaked {
            g.origs.retain(|&c| !self.cdb.is_deleted(c));
            g.learnts.retain(|&c| !self.cdb.is_deleted(c));
        }
        leaked.retain(|g| !g.origs.is_empty() || !g.learnts.is_empty());
        self.leaked = leaked;
        let reloc = self.cdb.collect();
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                *w = Watcher::new(reloc.forward(w.cref()), w.blocker, w.is_binary());
            }
        }
        for c in self.reasons.iter_mut().flatten() {
            *c = reloc.forward(*c);
        }
        for e in self.act_entries.values_mut() {
            for c in e.crefs.iter_mut() {
                *c = reloc.forward(*c);
            }
        }
        for g in &mut self.leaked {
            for c in g.origs.iter_mut().chain(g.learnts.iter_mut()) {
                *c = reloc.forward(*c);
            }
        }
        self.stats.gcs += 1;
    }

    /// Runs a reduction pass immediately (test hook; normal operation
    /// triggers reduction from the conflict count).
    #[doc(hidden)]
    pub fn debug_force_reduce(&mut self) {
        self.reduce_db();
    }

    /// Compacts the arena immediately (test hook).
    #[doc(hidden)]
    pub fn debug_force_gc(&mut self) {
        self.collect_garbage();
    }

    /// Runs an inprocessing pass immediately (test hook; normal
    /// operation triggers it from the learned-clause count at solve
    /// entry).
    #[doc(hidden)]
    pub fn debug_force_inprocess(&mut self) {
        self.backtrack(0);
        self.inprocess();
    }

    /// Replays every live clause against the current watch lists and
    /// reasons, checking referential integrity (test hook).
    #[doc(hidden)]
    pub fn debug_check_integrity(&self) -> Result<(), String> {
        for ws in &self.watches {
            for w in ws {
                if self.cdb.is_deleted(w.cref()) {
                    return Err(format!("watcher references deleted clause {:?}", w.cref()));
                }
                if w.is_binary() != (self.cdb.size(w.cref()) == 2) {
                    return Err("binary flag disagrees with clause size".into());
                }
            }
        }
        for (v, r) in self.reasons.iter().enumerate() {
            if let Some(c) = r {
                if self.cdb.is_deleted(*c) {
                    return Err(format!("reason of var {v} references deleted clause"));
                }
            }
        }
        for (v, e) in &self.act_entries {
            let guard = Lit::neg(*v);
            if !e.crefs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("group of {v:?} is not in ascending order"));
            }
            for &c in &e.crefs {
                if self.cdb.is_deleted(c) || !self.cdb.lits(c).contains(&guard) {
                    return Err(format!("group of {v:?} registers {c:?} without its guard"));
                }
            }
        }
        Ok(())
    }

    /// Number of clauses registered under the activation guard `act`
    /// (test hook; 0 for a released or unknown guard).
    #[doc(hidden)]
    pub fn debug_activated_clauses(&self, act: Lit) -> usize {
        self.act_entries
            .get(&act.var())
            .map_or(0, |e| e.crefs.len())
    }

    /// Picks the next decision literal: the most active unassigned
    /// variable in its saved phase. Every unassigned variable is in the
    /// heap, so an empty pop means every variable is assigned.
    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    /// Collects the subset of assumptions responsible for forcing `p`
    /// false (`p` itself is included).
    fn analyze_final(&mut self, p: Lit) {
        self.failed.clear();
        self.failed.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let bound = self.trail_lim[0];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reasons[v.index()] {
                None => {
                    // A decision in the assumption prefix is an assumption.
                    if l != p {
                        self.failed.push(l);
                    }
                }
                Some(r) => {
                    for k in 0..self.cdb.size(r) {
                        let w = self.cdb.lit(r, k);
                        if self.levels[w.var().index()] > 0 {
                            self.seen[w.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(&[], Limits::default())
    }

    /// Solves under the given assumption literals.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, Limits::default())
    }

    /// Solves under assumptions with resource limits.
    pub fn solve_limited(&mut self, assumptions: &[Lit], limits: Limits) -> SolveResult {
        self.backtrack(0);
        self.sweep_leaked();
        self.model.clear();
        self.failed.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        if let Some(confl) = self.propagate() {
            self.derive_empty_from(confl);
            self.ok = false;
            return SolveResult::Unsat;
        }
        if self.stats.learned >= self.next_inproc {
            self.next_inproc = self.stats.learned + Self::INPROC_INTERVAL;
            self.inprocess();
        }

        let limit_base = self.stats.conflicts;
        let mut restart_base = self.stats.conflicts;
        let mut restart_count = 0u64;
        let mut restart_budget = luby(restart_count) * 100;
        let chaos_at = limits.chaos.as_ref().map(|c| {
            self.chaos_epoch += 1;
            c.threshold(self.chaos_epoch)
        });

        loop {
            if limits.stop_requested() {
                self.backtrack(0);
                return SolveResult::Unknown(Interrupt::Cancelled);
            }
            if let Some(at) = chaos_at {
                if self.stats.conflicts - limit_base >= at {
                    self.stats.chaos_injected += 1;
                    self.backtrack(0);
                    return SolveResult::Unknown(Interrupt::Cancelled);
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.derive_empty_from(confl);
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                let pid = self
                    .proof
                    .as_ref()
                    .map_or(ClauseId(0), |p| ClauseId((p.len() - 1) as u32));
                self.backtrack(bt);
                let asserting = learnt[0];
                let cref = self.learn(learnt, pid);
                debug_assert_eq!(self.lit_value(asserting), LBool::Undef);
                self.enqueue(asserting, Some(cref));
                self.var_inc /= 0.95;
                self.cla_inc *= 1.001;

                if self.reduce.enabled && self.stats.conflicts >= self.next_reduce {
                    self.reduce_db();
                    self.next_reduce = self.stats.conflicts + self.reduce.conflicts_inc;
                }
                if self.stats.conflicts - restart_base >= restart_budget {
                    restart_count += 1;
                    restart_budget = luby(restart_count) * 100;
                    restart_base = self.stats.conflicts;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    self.sweep_leaked();
                }
                if let Some(mc) = limits.max_conflicts {
                    if self.stats.conflicts - limit_base >= mc {
                        self.backtrack(0);
                        return SolveResult::Unknown(Interrupt::ConflictLimit);
                    }
                }
                if self.stats.conflicts.is_multiple_of(64) {
                    if let Some(d) = limits.deadline {
                        if Instant::now() >= d {
                            self.backtrack(0);
                            return SolveResult::Unknown(Interrupt::Timeout);
                        }
                    }
                }
            } else {
                // No conflict: place assumptions first, then decide.
                let next = loop {
                    let dl = self.decision_level() as usize;
                    if dl < assumptions.len() {
                        let a = assumptions[dl];
                        match self.lit_value(a) {
                            LBool::True => {
                                self.new_decision_level();
                                continue;
                            }
                            LBool::False => {
                                self.analyze_final(a);
                                self.backtrack(0);
                                return SolveResult::Unsat;
                            }
                            LBool::Undef => break Some(a),
                        }
                    }
                    break None;
                };
                let decision = match next {
                    Some(a) => Some(a),
                    None => {
                        self.stats.decisions += 1;
                        self.pick_branch()
                    }
                };
                match decision {
                    None => {
                        // All variables assigned: SAT.
                        self.model = self.assigns.clone();
                        self.backtrack(0);
                        return SolveResult::Sat;
                    }
                    Some(l) => {
                        self.new_decision_level();
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Computes a Craig interpolant after an UNSAT answer of a
    /// proof-logging solver: a formula `I` over the variables shared by
    /// the `A`- and `B`-labelled clauses with `A ⇒ I` and `I ∧ B`
    /// unsatisfiable.
    ///
    /// Returns `None` if proof logging is off or no UNSAT answer has
    /// been derived. Interpolants are only meaningful for solves
    /// without assumptions.
    pub fn interpolant(&self) -> Option<crate::interp::Interpolant> {
        let proof = self.proof.as_ref()?;
        proof.empty_clause()?;
        Some(crate::interp::Interpolant::from_proof(proof))
    }

    /// Like [`interpolant`](Solver::interpolant), but re-partitions the
    /// original clauses by their tags: `is_a(tag)` assigns each tagged
    /// clause to the `A` side. Extracting interpolants for successive
    /// cuts of one unrolled refutation this way yields *sequence
    /// interpolants* satisfying `I_c ∧ T_c ⇒ I_{c+1}`.
    pub fn interpolant_with(
        &self,
        is_a: impl Fn(u32) -> bool,
    ) -> Option<crate::interp::Interpolant> {
        let proof = self.proof.as_ref()?;
        proof.empty_clause()?;
        Some(crate::interp::Interpolant::from_proof_with(proof, &is_a))
    }

    /// Independently re-checks the recorded proof with
    /// [`crate::proofcheck`]: replays every derivation chain
    /// (antecedent existence, resolution validity, tag consistency,
    /// deletion sanity, the final empty-clause chain if one was
    /// derived) and cross-checks every clause currently live in the
    /// clause database against the literal set its recorded derivation
    /// yields. Returns `None` when proof logging is off.
    ///
    /// This is the `paranoid`-mode entry point: a clean
    /// [`ProofReport`](crate::proofcheck::ProofReport) means the
    /// solver's UNSAT reasoning is backed by a machine-checked
    /// resolution proof, not just trusted.
    pub fn check_proof(&self) -> Option<crate::proofcheck::ProofReport> {
        let proof = self.proof.as_ref()?;
        let mut checker = crate::proofcheck::ProofChecker::new(proof);
        for &c in self.cdb.originals().iter().chain(self.cdb.learnts()) {
            checker.check_learnt(self.cdb.proof_id(c), self.cdb.lits(c));
        }
        Some(checker.finish())
    }

    /// Replays all recorded resolution chains and checks that each
    /// live clause matches its recorded derivation, and that the
    /// empty-clause chain actually derives the empty clause. Learned
    /// clauses deleted by reduction keep their derivations in the
    /// proof (the chains may be referenced by later derivations), so
    /// deletion never invalidates this check.
    ///
    /// Test-suite convenience over [`check_proof`](Solver::check_proof),
    /// reporting the first failure as an `Err`.
    #[doc(hidden)]
    pub fn debug_verify_proof(&self) -> Result<(), String> {
        match self.check_proof() {
            None => Ok(()),
            Some(r) => match r.first_failure() {
                None => Ok(()),
                Some(f) => Err(f),
            },
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
fn luby(i: u64) -> u64 {
    // MiniSAT's formulation: find the finite subsequence containing
    // index i (0-based) and the position within it.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn lit(s: &mut Solver, i: usize, pos: bool) -> Lit {
        while s.num_vars() <= i {
            s.new_var();
        }
        Lit::new(Var::from_index(i), pos)
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        assert!(s.add_clause(&[a]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        assert!(s.add_clause(&[a, !a]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn xor_chain_sat() {
        let mut s = Solver::new();
        let x: Vec<Lit> = (0..3).map(|i| lit(&mut s, i, true)).collect();
        // Odd parity of three variables.
        s.add_clause(&[x[0], x[1], x[2]]);
        s.add_clause(&[x[0], !x[1], !x[2]]);
        s.add_clause(&[!x[0], x[1], !x[2]]);
        s.add_clause(&[!x[0], !x[1], x[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let ones = x.iter().filter(|&&l| s.value(l) == Some(true)).count();
        assert_eq!(ones % 2, 1);
    }

    /// Pigeonhole principle PHP(n+1, n): always UNSAT, forces real
    /// clause learning and restarts.
    pub(crate) fn pigeonhole(s: &mut Solver, holes: usize) {
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| p * holes + h;
        while s.num_vars() < pigeons * holes {
            s.new_var();
        }
        for p in 0..pigeons {
            let c: Vec<Lit> = (0..holes)
                .map(|h| Lit::pos(Var::from_index(var(p, h))))
                .collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[
                        Lit::neg(Var::from_index(var(p1, h))),
                        Lit::neg(Var::from_index(var(p2, h))),
                    ]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=6 {
            let mut s = Solver::new();
            pigeonhole(&mut s, holes);
            assert_eq!(
                s.solve(),
                SolveResult::Unsat,
                "PHP({},{})",
                holes + 1,
                holes
            );
        }
    }

    #[test]
    fn pigeonhole_proof_is_valid() {
        for holes in 2..=5 {
            let mut s = Solver::with_proof();
            pigeonhole(&mut s, holes);
            assert_eq!(s.solve(), SolveResult::Unsat);
            assert!(s.proof().expect("proof").empty_clause().is_some());
            s.debug_verify_proof().expect("proof replays correctly");
        }
    }

    #[test]
    fn sat_proof_mode_clauses_replay() {
        // Even in SAT instances, the recorded derivations of learned
        // clauses must replay exactly.
        let mut s = Solver::with_proof();
        let x: Vec<Lit> = (0..6).map(|i| lit(&mut s, i, true)).collect();
        for i in 0..4 {
            s.add_clause(&[x[i], x[i + 1], !x[(i + 2) % 6]]);
            s.add_clause(&[!x[i], !x[i + 1], x[(i + 3) % 6]]);
        }
        let _ = s.solve();
        s.debug_verify_proof().expect("derivations replay");
    }

    #[test]
    fn assumptions_and_core() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let c = lit(&mut s, 2, true);
        s.add_clause(&[!a, !b]); // a & b inconsistent
        assert_eq!(s.solve_with(&[a, c, b]), SolveResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.iter().all(|l| [a, b, c].contains(l)));
        assert!(core.contains(&b) || core.contains(&a));
        // Without the conflicting pair it is satisfiable.
        assert_eq!(s.solve_with(&[a, c]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(false));
        // The solver stays usable without assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumption_conflicts_with_unit() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        s.add_clause(&[!a]);
        assert_eq!(s.solve_with(&[a]), SolveResult::Unsat);
        assert_eq!(s.failed_assumptions(), &[a]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn failed_assumption_core_is_unsat_core() {
        // chain: a -> b -> c, assume a and !c: core must contain both.
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let c = lit(&mut s, 2, true);
        s.add_clause(&[!a, b]);
        s.add_clause(&[!b, c]);
        assert_eq!(s.solve_with(&[a, !c]), SolveResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&a) && core.contains(&!c), "core: {core:?}");
    }

    #[test]
    fn conflict_limit_returns_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8);
        let r = s.solve_limited(
            &[],
            Limits {
                max_conflicts: Some(5),
                ..Limits::default()
            },
        );
        assert_eq!(r, SolveResult::Unknown(Interrupt::ConflictLimit));
        let r2 = s.solve_limited(&[], Limits::default());
        assert_eq!(r2, SolveResult::Unsat);
    }

    #[test]
    fn chaos_injects_cancellation_and_retry_recovers() {
        let chaos = Chaos {
            seed: 42,
            period: 4,
        };
        let mut s = Solver::new();
        pigeonhole(&mut s, 8);
        let limits = Limits {
            chaos: Some(chaos),
            ..Limits::default()
        };
        // Pigeonhole-8 needs far more than `period` conflicts, so every
        // chaos run must get cut down mid-solve, leaving the watch
        // lists, reasons and activation registries intact.
        let mut injected = 0;
        loop {
            match s.solve_limited(&[], limits.clone()) {
                SolveResult::Unknown(Interrupt::Cancelled) => {
                    injected += 1;
                    s.debug_check_integrity()
                        .expect("intact after injected fault");
                }
                SolveResult::Unsat if injected > 0 => break,
                r => panic!("unexpected chaos-run answer {r:?} after {injected} faults"),
            }
            // Learned clauses accumulate across retries, so the solve
            // eventually finishes inside the injected budget.
            if injected > 10_000 {
                // Fall back to a clean run; chaos must not corrupt state.
                assert_eq!(s.solve_limited(&[], Limits::default()), SolveResult::Unsat);
                break;
            }
        }
        assert!(injected >= 1, "chaos never fired");
        assert_eq!(s.stats().chaos_injected, injected);

        // Same seed, fresh solver: the schedule replays identically.
        let mut a = Solver::new();
        let mut b = Solver::new();
        pigeonhole(&mut a, 7);
        pigeonhole(&mut b, 7);
        let ra = a.solve_limited(&[], limits.clone());
        let rb = b.solve_limited(&[], limits.clone());
        assert_eq!(ra, rb);
        assert_eq!(a.stats().conflicts, b.stats().conflicts);
    }

    #[test]
    fn stop_flag_cancels_promptly() {
        // A pre-raised stop flag must end the solve within one loop
        // iteration: no conflicts may be accumulated at all.
        let mut s = Solver::new();
        pigeonhole(&mut s, 9);
        let stop = Arc::new(AtomicBool::new(true));
        let before = s.stats().conflicts;
        let r = s.solve_limited(
            &[],
            Limits {
                stop: Some(stop.clone()),
                ..Limits::default()
            },
        );
        assert_eq!(r, SolveResult::Unknown(Interrupt::Cancelled));
        assert!(
            s.stats().conflicts - before <= 1,
            "cancelled solve must stop within one conflict-check interval"
        );

        // Raising the flag from another thread mid-solve also stops a
        // run that would otherwise grind for a long time.
        stop.store(false, Ordering::Relaxed);
        let flag = stop.clone();
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag.store(true, Ordering::Relaxed);
        });
        let r = s.solve_limited(
            &[],
            Limits {
                stop: Some(stop.clone()),
                ..Limits::default()
            },
        );
        handle.join().unwrap();
        if r == SolveResult::Unknown(Interrupt::Cancelled) {
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(10),
                "cancellation must not be ignored"
            );
        } else {
            // The instance may occasionally finish before the flag is
            // raised; any definite answer is acceptable then.
            assert_ne!(r, SolveResult::Unknown(Interrupt::Timeout));
        }
        // The solver stays usable after a cancelled call.
        let r2 = s.solve_limited(
            &[],
            Limits {
                max_conflicts: Some(10),
                ..Limits::default()
            },
        );
        assert!(matches!(
            r2,
            SolveResult::Unsat | SolveResult::Unknown(Interrupt::ConflictLimit)
        ));
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(luby(i as u64), w, "luby({i})");
        }
    }

    #[test]
    fn reduction_kicks_in_on_hard_instances() {
        let mut s = Solver::new();
        s.set_reduce_config(ReduceConfig {
            enabled: true,
            first_conflicts: 100,
            conflicts_inc: 100,
            glue_keep: 2,
        });
        pigeonhole(&mut s, 7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.reduces > 0, "expected reduction passes: {st:?}");
        assert!(st.deleted > 0, "expected deleted clauses: {st:?}");
        assert!(st.arena_peak_bytes > 0);
        s.debug_check_integrity().expect("intact after reduction");
    }

    #[test]
    fn reduction_with_proof_keeps_interpolation_sound() {
        let mut s = Solver::with_proof();
        s.set_reduce_config(ReduceConfig {
            enabled: true,
            first_conflicts: 50,
            conflicts_inc: 50,
            glue_keep: 1,
        });
        pigeonhole(&mut s, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().reduces > 0, "reduction must have run");
        s.debug_verify_proof().expect("proof survives reduction");
        assert!(s.interpolant().is_some());
    }

    /// The PR-4 backlog bugfix: an abandoned activation release must
    /// not leave its (level-0-satisfied) clauses in the arena forever.
    /// The next backtrack-to-level-0 sweep reclaims everything except
    /// the clause still serving as the level-0 reason of the guard.
    #[test]
    fn leaked_activation_groups_swept_after_restart() {
        let mut s = Solver::new();
        let y = lit(&mut s, 0, true);
        let z1 = lit(&mut s, 1, true);
        let z2 = lit(&mut s, 2, true);
        let act = s.new_activation();
        assert!(s.add_clause_activated(act, &[y]));
        assert!(s.add_clause_activated(act, &[z1, z2]));
        assert!(s.add_clause_activated(act, &[!z1, !z2]));
        // Force ¬y at level 0: the guarded clause [y, ¬act] becomes
        // unit and fixes the activation variable, so the release must
        // take the abandon path.
        assert!(s.add_clause(&[!y]));
        assert!(!s.release_activation(act), "release must be abandoned");
        assert_eq!(s.stats().act_leaked, 1);
        assert_eq!(s.stats().act_swept, 0);
        let before = s.num_clauses();
        // The next solve backtracks to level 0 and sweeps: the two
        // satisfied guarded clauses are reclaimed; the level-0 reason
        // of ¬act stays (it pins the assignment forever).
        assert_eq!(s.solve(), SolveResult::Sat);
        let st = s.stats();
        assert_eq!(st.act_swept, 2, "satisfied group clauses reclaimed");
        assert_eq!(s.num_clauses(), before - 2);
        s.debug_check_integrity().expect("intact after sweep");
        // A second sweep finds nothing new and the solver stays sound.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().act_swept, 2);
        assert_eq!(s.value(y), Some(false));
    }

    /// Sweeping must also run inside reduction passes and survive
    /// compaction (leaked references are pruned/forwarded).
    #[test]
    fn leaked_groups_survive_reduce_and_gc() {
        let mut s = Solver::new();
        let base = s.num_vars();
        pigeonhole(&mut s, 6);
        let y = lit(&mut s, base + 50, true);
        let z1 = lit(&mut s, base + 51, true);
        let z2 = lit(&mut s, base + 52, true);
        let act = s.new_activation();
        assert!(s.add_clause_activated(act, &[y]));
        assert!(s.add_clause_activated(act, &[z1, z2]));
        assert!(s.add_clause(&[!y]));
        assert!(!s.release_activation(act));
        s.set_reduce_config(ReduceConfig {
            enabled: true,
            first_conflicts: 50,
            conflicts_inc: 50,
            glue_keep: 2,
        });
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.act_swept >= 1, "sweep reclaimed the satisfied clause");
        s.debug_force_gc();
        s.debug_check_integrity().expect("intact after sweep + GC");
    }

    /// Learned clauses that mention the variable of `act`.
    fn tainted(s: &Solver, act: Lit) -> usize {
        s.cdb
            .learnts()
            .iter()
            .filter(|&&c| s.cdb.lits(c).iter().any(|l| l.var() == act.var()))
            .count()
    }

    /// Retiring one clause of a group frees it and the learned clauses
    /// its guard taints, and nothing else: the query only that clause
    /// refuted turns SAT, the group's other clauses still bite, and the
    /// solver stays intact through reduction and compaction.
    #[test]
    fn remove_activated_frees_one_clause_and_its_tainted_learnts() {
        // Four pigeons in three holes under one guard; pigeon 0 may
        // escape through `e`, so only the assumptions [act, ¬e] refute.
        let holes = 3;
        let mut s = Solver::new();
        let h = |p: usize, k: usize| Lit::pos(Var::from_index(p * holes + k));
        let e = lit(&mut s, (holes + 1) * holes, true);
        let act = s.new_activation();
        let pigeon0: Vec<Lit> = (0..holes).map(|k| h(0, k)).chain([e]).collect();
        assert!(s.add_clause_activated(act, &pigeon0));
        for p in 1..=holes {
            let c: Vec<Lit> = (0..holes).map(|k| h(p, k)).collect();
            assert!(s.add_clause_activated(act, &c));
        }
        for k in 0..holes {
            for p1 in 0..=holes {
                for p2 in p1 + 1..=holes {
                    assert!(s.add_clause_activated(act, &[!h(p1, k), !h(p2, k)]));
                }
            }
        }
        assert_eq!(s.solve_with(&[act, !e]), SolveResult::Unsat);
        let learned = tainted(&s, act);
        assert!(learned > 0, "the refutation learns under the guard");
        let group = s.debug_activated_clauses(act);
        let (clauses, released) = (s.num_clauses(), s.stats().act_released);
        // Literal order does not matter.
        let reversed: Vec<Lit> = pigeon0.iter().rev().copied().collect();
        assert!(s.remove_clause_activated(act, &reversed));
        assert_eq!(tainted(&s, act), 0, "no learned clause mentions the guard");
        assert_eq!(s.debug_activated_clauses(act), group - 1);
        assert_eq!(s.num_clauses(), clauses - 1 - learned);
        assert_eq!(s.stats().act_released, released + 1 + learned as u64);
        // Three pigeons fit three holes.
        assert_eq!(s.solve_with(&[act, !e]), SolveResult::Sat);
        // The group's other clauses still bite, the guard still gates.
        assert_eq!(s.solve_with(&[act, h(1, 0), h(2, 0)]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[h(1, 0), h(2, 0)]), SolveResult::Sat);
        s.debug_force_reduce();
        s.debug_force_gc();
        s.debug_check_integrity().expect("intact after reduce + GC");
        assert_eq!(s.solve_with(&[act, !e]), SolveResult::Sat);
        assert_eq!(s.solve_with(&[act, h(1, 0), h(2, 0)]), SolveResult::Unsat);
    }

    /// The stored clause is matched modulo literals false at level 0,
    /// which the add path dropped.
    #[test]
    fn remove_activated_matches_modulo_level_0_facts() {
        let mut s = Solver::new();
        let (a, b, z) = (
            lit(&mut s, 0, true),
            lit(&mut s, 1, true),
            lit(&mut s, 2, true),
        );
        assert!(s.add_clause(&[!z]));
        let act = s.new_activation();
        assert!(s.add_clause_activated(act, &[a, z, b]));
        assert!(!s.remove_clause_activated(act, &[a]), "b is not false");
        assert!(s.remove_clause_activated(act, &[b, z, a]));
        assert_eq!(s.debug_activated_clauses(act), 0);
        assert_eq!(s.solve_with(&[act, !a, !b]), SolveResult::Sat);
        s.debug_check_integrity().expect("intact after removal");
    }

    /// A guard fixed false at level 0 refuses removal and frees nothing.
    #[test]
    fn remove_activated_refuses_a_guard_fixed_at_level_0() {
        let mut s = Solver::new();
        let (a, b) = (lit(&mut s, 0, true), lit(&mut s, 1, true));
        let act = s.new_activation();
        assert!(s.add_clause_activated(act, &[a, b]));
        assert!(s.add_clause(&[!act]));
        let clauses = s.num_clauses();
        assert!(!s.remove_clause_activated(act, &[a, b]));
        assert_eq!(s.num_clauses(), clauses);
        assert_eq!(s.debug_activated_clauses(act), 1);
        assert_eq!(s.stats().act_released, 0);
        s.debug_check_integrity().expect("intact after refusal");
    }

    /// Only a clause registered under the given guard is removed.
    #[test]
    fn remove_activated_refuses_an_unregistered_clause() {
        let mut s = Solver::new();
        let (a, b, c) = (
            lit(&mut s, 0, true),
            lit(&mut s, 1, true),
            lit(&mut s, 2, true),
        );
        let act = s.new_activation();
        let other = s.new_activation();
        assert!(s.add_clause_activated(act, &[a, b]));
        // The same shape, added without registration.
        assert!(s.add_clause(&[a, c, !act]));
        let clauses = s.num_clauses();
        for lits in [&[a, c][..], &[a], &[a, b, c], &[!a, b]] {
            assert!(!s.remove_clause_activated(act, lits), "{lits:?}");
        }
        assert!(!s.remove_clause_activated(other, &[a, b]), "other group");
        assert!(!s.remove_clause_activated(c, &[a, b]), "not a guard");
        assert_eq!(s.num_clauses(), clauses);
        assert_eq!(s.debug_activated_clauses(act), 1);
        assert_eq!(s.stats().act_released, 0);
    }

    /// A limit that interrupts a proof-logging solve (here the conflict
    /// limit) leaves every recorded derivation checkable, and the
    /// resumed solve finishes with a checkable refutation.
    #[test]
    fn proof_limit_interrupts_and_leaves_checkable_proof() {
        let mut s = Solver::with_proof();
        pigeonhole(&mut s, 7);
        let limits = Limits {
            max_conflicts: Some(200),
            ..Limits::default()
        };
        let r = s.solve_limited(&[], limits);
        assert_eq!(r, SolveResult::Unknown(Interrupt::ConflictLimit));
        let st = s.stats();
        assert!(st.proof_bytes > 0 && st.proof_chains > 0, "{st:?}");
        // Everything recorded so far is still a valid derivation set.
        let report = s.check_proof().expect("proof logging on");
        assert!(report.ok(), "{}", report.first_failure().unwrap());
        // Without the limit the solve finishes.
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.check_proof().expect("proof").ok());
    }

    #[test]
    fn new_vars_block_is_contiguous() {
        let mut s = Solver::new();
        let a = s.new_var();
        let first = s.new_vars(5);
        assert_eq!(first.index(), a.index() + 1);
        assert_eq!(s.num_vars(), 6);
        // The block is usable like individually created variables.
        s.add_clause(&[Lit::pos(first), Lit::pos(Var::from_index(5))]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn dynamic_lbd_rescoring_improves_reused_reasons() {
        // A hard instance reuses learned clauses as reasons across many
        // conflicts; some must re-score to a lower LBD. The verdict is
        // unaffected.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(
            st.lbd_improved > 0,
            "expected LBD improvements on reused reasons: {st:?}"
        );
    }

    #[test]
    fn forced_gc_preserves_state() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        // Interleave solving (learning clauses) with forced reductions
        // and compactions, then re-solve.
        let r = s.solve_limited(
            &[],
            Limits {
                max_conflicts: Some(50),
                ..Limits::default()
            },
        );
        assert_eq!(r, SolveResult::Unknown(Interrupt::ConflictLimit));
        s.debug_force_reduce();
        s.debug_force_gc();
        s.debug_check_integrity().expect("intact after GC");
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn bulk_add_matches_incremental() {
        let cls: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(Var(0)), Lit::pos(Var(1))],
            vec![Lit::neg(Var(0)), Lit::pos(Var(2))],
            vec![Lit::neg(Var(1)), Lit::neg(Var(2))],
        ];
        let mut a = Solver::new();
        let mut b = Solver::new();
        for _ in 0..3 {
            a.new_var();
            b.new_var();
        }
        for c in &cls {
            a.add_clause(c);
        }
        b.add_clauses(cls.iter().map(Vec::as_slice));
        assert_eq!(a.solve(), b.solve());
        assert_eq!(a.num_clauses(), b.num_clauses());
    }

    #[test]
    fn random_cnf_cross_check() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xDA7E2016);
        for round in 0..300 {
            let nvars = rng.gen_range(1..=8usize);
            let nclauses = rng.gen_range(1..=24usize);
            let mut cnf: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let len = rng.gen_range(1..=3usize);
                let mut cl = Vec::new();
                for _ in 0..len {
                    let v = rng.gen_range(0..nvars);
                    cl.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
                }
                cnf.push(cl);
            }
            let mut brute_sat = false;
            'outer: for m in 0u32..(1 << nvars) {
                for cl in &cnf {
                    let ok = cl.iter().any(|l| {
                        let bit = (m >> l.var().index()) & 1 == 1;
                        bit == l.is_positive()
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            let mut s = if round % 2 == 0 {
                Solver::new()
            } else {
                Solver::with_proof()
            };
            for _ in 0..nvars {
                s.new_var();
            }
            for cl in &cnf {
                s.add_clause(cl);
            }
            let got = s.solve();
            let want = if brute_sat {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(got, want, "round {round}, cnf {cnf:?}");
            if got == SolveResult::Sat {
                for cl in &cnf {
                    assert!(
                        cl.iter().any(|&l| s.value(l) == Some(true)),
                        "model violates clause {cl:?}"
                    );
                }
            }
            if s.proof_logging() {
                s.debug_verify_proof().expect("valid proof");
            }
        }
    }

    #[test]
    fn incremental_with_assumptions_cross_check() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let nvars = rng.gen_range(2..=7usize);
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            let mut cnf: Vec<Vec<Lit>> = Vec::new();
            for _round in 0..4 {
                // Add a batch of clauses, then solve under random
                // assumptions, cross-checking against brute force.
                for _ in 0..rng.gen_range(1..=6usize) {
                    let len = rng.gen_range(1..=3usize);
                    let cl: Vec<Lit> = (0..len)
                        .map(|_| {
                            Lit::new(Var::from_index(rng.gen_range(0..nvars)), rng.gen_bool(0.5))
                        })
                        .collect();
                    cnf.push(cl.clone());
                    s.add_clause(&cl);
                }
                let nassum = rng.gen_range(0..=2usize);
                let assumptions: Vec<Lit> = (0..nassum)
                    .map(|_| Lit::new(Var::from_index(rng.gen_range(0..nvars)), rng.gen_bool(0.5)))
                    .collect();
                let mut brute_sat = false;
                'outer: for m in 0u32..(1 << nvars) {
                    let holds = |l: &Lit| ((m >> l.var().index()) & 1 == 1) == l.is_positive();
                    if !assumptions.iter().all(holds) {
                        continue;
                    }
                    for cl in &cnf {
                        if !cl.iter().any(holds) {
                            continue 'outer;
                        }
                    }
                    brute_sat = true;
                    break;
                }
                let got = s.solve_with(&assumptions);
                let want = if brute_sat {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                };
                assert_eq!(got, want, "cnf {cnf:?} assumptions {assumptions:?}");
            }
        }
    }

    #[test]
    fn inprocessing_promotes_subsuming_learnt() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let c = lit(&mut s, 2, true);
        s.add_clause(&[a, b, c]);
        s.add_clause(&[!c, a, b]);
        // Assuming !a, !b propagates c from the first clause and
        // conflicts on the second; first-UIP learns (a | b), which
        // subsumes both originals.
        assert_eq!(s.solve_with(&[!a, !b]), SolveResult::Unsat);
        assert_eq!(s.stats().learned, 1);
        let before = s.num_clauses();
        s.debug_force_inprocess();
        assert_eq!(s.stats().inproc_subsumed, 2, "both originals subsumed");
        assert_eq!(s.num_clauses(), before - 2);
        s.debug_check_integrity()
            .expect("intact after inprocessing");
        // The subsuming learnt was promoted to original status, so
        // clause reduction may not delete it and verdicts hold.
        s.debug_force_reduce();
        assert_eq!(s.solve_with(&[!a]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.solve_with(&[!a, !b]), SolveResult::Unsat);
    }

    #[test]
    fn inprocessing_preserves_verdicts_on_random_cnf() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1217);
        let mut subsumed = 0u64;
        for _ in 0..80 {
            let nvars = rng.gen_range(2..=7usize);
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            let mut cnf: Vec<Vec<Lit>> = Vec::new();
            for _round in 0..4 {
                for _ in 0..rng.gen_range(1..=6usize) {
                    let len = rng.gen_range(1..=3usize);
                    let cl: Vec<Lit> = (0..len)
                        .map(|_| {
                            Lit::new(Var::from_index(rng.gen_range(0..nvars)), rng.gen_bool(0.5))
                        })
                        .collect();
                    cnf.push(cl.clone());
                    s.add_clause(&cl);
                }
                let assumptions: Vec<Lit> = (0..rng.gen_range(0..=2usize))
                    .map(|_| Lit::new(Var::from_index(rng.gen_range(0..nvars)), rng.gen_bool(0.5)))
                    .collect();
                let mut brute_sat = false;
                'outer: for m in 0u32..(1 << nvars) {
                    let holds = |l: &Lit| ((m >> l.var().index()) & 1 == 1) == l.is_positive();
                    if !assumptions.iter().all(holds) {
                        continue;
                    }
                    for cl in &cnf {
                        if !cl.iter().any(holds) {
                            continue 'outer;
                        }
                    }
                    brute_sat = true;
                    break;
                }
                let got = s.solve_with(&assumptions);
                let want = if brute_sat {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                };
                assert_eq!(got, want, "cnf {cnf:?} assumptions {assumptions:?}");
                // Inprocess between batches; verdicts must be stable.
                s.debug_force_inprocess();
                s.debug_check_integrity()
                    .expect("intact after inprocessing");
                assert_eq!(s.solve_with(&assumptions), want, "after inprocessing");
            }
            subsumed += s.stats().inproc_subsumed;
        }
        assert!(subsumed > 0, "inprocessing never subsumed anything");
    }
}
