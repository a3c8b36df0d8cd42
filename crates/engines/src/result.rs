//! Shared result, trace and resource-budget types for all verification
//! engines (hardware-level in this crate, software-level in `swan`).

use rtlir::TransitionSystem;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an engine gave up without an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unknown {
    /// The wall-clock budget ran out.
    Timeout,
    /// The bound (k, frame count) limit was reached without an answer.
    BoundReached,
    /// A SAT-query conflict budget ran out before the wall clock did.
    ConflictLimit,
    /// The run was cooperatively cancelled (e.g. another portfolio
    /// engine produced a definite verdict first).
    Cancelled,
    /// The technique is inherently incomplete here (e.g. abstract
    /// interpretation raising a possible false alarm). Carries a short
    /// explanation.
    Inconclusive(String),
    /// The engine produced a definite verdict but its witness failed
    /// the independent re-check ([`crate::certify`]); the verdict was
    /// demoted rather than trusted. Carries the checker's reason.
    CertificateFailed(String),
    /// The engine panicked; the portfolio isolated the crash with
    /// `catch_unwind` and degraded to its remaining seats. Carries the
    /// crashed engine's name.
    Crashed(String),
}

impl fmt::Display for Unknown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unknown::Timeout => write!(f, "timeout"),
            Unknown::BoundReached => write!(f, "bound reached"),
            Unknown::ConflictLimit => write!(f, "conflict limit"),
            Unknown::Cancelled => write!(f, "cancelled"),
            Unknown::Inconclusive(why) => write!(f, "inconclusive: {why}"),
            Unknown::CertificateFailed(why) => write!(f, "certificate failed: {why}"),
            Unknown::Crashed(who) => write!(f, "crashed: {who}"),
        }
    }
}

impl From<satb::Interrupt> for Unknown {
    /// Maps the solver-level interrupt onto the engine-level reason, so
    /// engines report *why* a query gave up instead of collapsing every
    /// `SolveResult::Unknown` to a timeout.
    fn from(i: satb::Interrupt) -> Unknown {
        match i {
            satb::Interrupt::ConflictLimit => Unknown::ConflictLimit,
            satb::Interrupt::Timeout => Unknown::Timeout,
            satb::Interrupt::Cancelled => Unknown::Cancelled,
        }
    }
}

/// A bit-level counterexample trace.
///
/// `states[i]` is the latch assignment at cycle `i` and `inputs[i]` the
/// primary-input assignment applied in cycle `i`; the final state
/// satisfies the violated bad property. Bit order matches
/// [`aig::AigSystem`]'s latch/input order for the checked design.
///
/// Engines take only the reset state and the inputs from a SAT model and
/// compute every later state by simulating the full netlist
/// ([`Blasted::sys`]): the template they solve on leaves latches outside
/// the property's cone of influence free, so a model's values for those
/// latches mean nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Latch values per cycle (length = cycles + 1).
    pub states: Vec<Vec<bool>>,
    /// Input values per cycle (length = cycles + 1; the last entry is
    /// the input vector under which the property fires, when it is
    /// input-dependent).
    pub inputs: Vec<Vec<bool>>,
    /// Index of the violated bad property.
    pub bad_index: usize,
}

impl Trace {
    /// Builds a trace by simulating `sys`: `states[0]` is `init`, and
    /// each later state is [`aig::AigSystem::step`] of its predecessor
    /// under that cycle's inputs. `inputs` holds one vector per cycle,
    /// the last one for the cycle in which bad `bad_index` fires.
    pub(crate) fn simulate(
        sys: &aig::AigSystem,
        init: Vec<bool>,
        inputs: Vec<Vec<bool>>,
        bad_index: usize,
    ) -> Trace {
        let mut states = Vec::with_capacity(inputs.len().max(1));
        states.push(init);
        for inp in inputs.iter().take(inputs.len().saturating_sub(1)) {
            let next = sys.step(states.last().expect("reset state"), inp);
            states.push(next);
        }
        Trace {
            states,
            inputs,
            bad_index,
        }
    }

    /// Number of clock cycles from reset to the violation.
    pub fn length(&self) -> usize {
        self.states.len().saturating_sub(1)
    }

    /// Replays the trace on the bit-level netlist and checks that it
    /// ends in the reported bad state, with every environment
    /// constraint holding in every cycle. Returns `false` for traces
    /// that do not actually witness a violation, malformed ones
    /// included — engines are tested with this, closing the loop on
    /// counterexample soundness.
    pub fn replays_on(&self, sys: &aig::AigSystem) -> bool {
        // Later states must equal simulated ones, which have the right
        // width, so only the reset state's width needs checking.
        if self
            .states
            .first()
            .is_none_or(|s| s.len() != sys.latches.len())
        {
            return false;
        }
        // Initial state must agree with initialized latches.
        for (i, latch) in sys.latches.iter().enumerate() {
            if let Some(init) = latch.init {
                if self.states[0][i] != init {
                    return false;
                }
            }
        }
        let mut state = self.states[0].clone();
        for c in 0..self.states.len() {
            let empty = Vec::new();
            let inp = self.inputs.get(c).unwrap_or(&empty);
            if state != self.states[c] {
                return false;
            }
            if !sys.constraints.is_empty() && !sys.constraints_in(&state, inp) {
                return false;
            }
            if c + 1 == self.states.len() {
                let bads = sys.bads_in(&state, inp);
                return bads.get(self.bad_index).copied().unwrap_or(false);
            }
            state = sys.step(&state, inp);
        }
        false
    }
}

/// A SAT model's values of `lits` (unassigned reads `false`).
pub(crate) fn model_values(solver: &satb::Solver, lits: &[satb::Lit]) -> Vec<bool> {
    lits.iter()
        .map(|&l| solver.value(l).unwrap_or(false))
        .collect()
}

/// The answer of a verification engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All bad states are unreachable.
    Safe,
    /// A bad state is reachable; the trace witnesses it.
    Unsafe(Trace),
    /// No answer within the budget.
    Unknown(Unknown),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => write!(f, "SAFE"),
            Verdict::Unsafe(t) => write!(f, "UNSAFE (cycle {})", t.length()),
            Verdict::Unknown(u) => write!(f, "UNKNOWN ({u})"),
        }
    }
}

/// Statistics reported by every engine.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Final bound: the k of k-induction/BMC, frame count of PDR, or
    /// iteration count of fixpoint engines.
    pub depth: u32,
    /// Number of SAT solver calls issued. A query PDR answers with a
    /// standing predecessor calls no solver and counts in
    /// [`preds_reused`](EngineStats::preds_reused) instead.
    pub sat_queries: u64,
    /// Total conflicts across all SAT queries.
    pub conflicts: u64,
    /// Total decisions across all SAT queries.
    pub decisions: u64,
    /// Total literal propagations across all SAT queries.
    pub propagations: u64,
    /// Learned-clause reduction passes across all SAT solvers used.
    pub reduces: u64,
    /// Learned clauses deleted by reduction across all SAT solvers.
    pub deleted: u64,
    /// Final clause-arena footprint in bytes, summed over all SAT
    /// solvers used (each sampled when it was retired or at the end of
    /// the run).
    pub arena_bytes: u64,
    /// Peak clause-arena footprint of the run in bytes (for engines
    /// whose solvers coexist, the sum of their high-water marks; for
    /// single-solver engines, that solver's peak).
    pub arena_peak_bytes: u64,
    /// Activation variables reused from the solver free-list instead
    /// of being leaked (single-solver PDR's per-query guards).
    pub act_recycled: u64,
    /// Approximate heap bytes of the recorded resolution proofs, summed
    /// over all proof-logging solvers used ([`satb::Stats::proof_bytes`];
    /// zero when proof logging was off).
    pub proof_bytes: u64,
    /// Derivation chains recorded across all proof-logging solvers
    /// ([`satb::Stats::proof_chains`]).
    pub proof_chains: u64,
    /// Cube literals dropped by ternary-simulation generalization.
    pub ternary_drops: u64,
    /// Cube literals dropped by input-based predecessor lifting (the
    /// UNSAT-core pass stacked on top of ternary widening).
    pub lifted_lits: u64,
    /// Relative-induction queries PDR answered with a standing
    /// predecessor instead of a solver call (see the [`crate::pdr`]
    /// module docs).
    pub preds_reused: u64,
    /// Wall-clock time spent in `check`.
    pub time: Duration,
}

impl EngineStats {
    /// Folds one solver's cumulative statistics into the engine totals.
    /// Call once per solver: when it is retired, or at the engine's one
    /// exit for solvers that live to the end of the run.
    pub fn absorb_solver(&mut self, s: &satb::Stats) {
        self.conflicts += s.conflicts;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.reduces += s.reduces;
        self.deleted += s.deleted;
        self.arena_bytes += s.arena_bytes;
        self.arena_peak_bytes += s.arena_peak_bytes;
        self.act_recycled += s.act_recycled;
        self.proof_bytes += s.proof_bytes;
        self.proof_chains += s.proof_chains;
    }
}

impl std::ops::AddAssign<&EngineStats> for EngineStats {
    /// Sums every counter of several runs (portfolio seats). `depth`
    /// and `time` are not counters: each caller sets them itself.
    fn add_assign(&mut self, s: &EngineStats) {
        self.sat_queries += s.sat_queries;
        self.conflicts += s.conflicts;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.reduces += s.reduces;
        self.deleted += s.deleted;
        self.arena_bytes += s.arena_bytes;
        self.arena_peak_bytes += s.arena_peak_bytes;
        self.act_recycled += s.act_recycled;
        self.proof_bytes += s.proof_bytes;
        self.proof_chains += s.proof_chains;
        self.ternary_drops += s.ternary_drops;
        self.lifted_lits += s.lifted_lits;
        self.preds_reused += s.preds_reused;
    }
}

/// Verdict plus statistics and, for Safe answers, an optional witness.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The verdict.
    pub outcome: Verdict,
    /// Run statistics.
    pub stats: EngineStats,
    /// Inductive-invariant witness backing a [`Verdict::Safe`] answer,
    /// re-checkable by [`crate::certify`] against the raw transition
    /// template with an independent solver. `None` for Unsafe/Unknown
    /// verdicts and for engines that cannot produce one (word-level
    /// k-induction, seated software analyzers). Unsafe answers carry
    /// their witness inside the verdict itself: the replayable
    /// [`Trace`].
    pub certificate: Option<crate::certify::Certificate>,
}

impl CheckOutcome {
    /// Builds an outcome, stamping elapsed time from `started`.
    pub fn finish(outcome: Verdict, mut stats: EngineStats, started: Instant) -> CheckOutcome {
        stats.time = started.elapsed();
        CheckOutcome {
            outcome,
            stats,
            certificate: None,
        }
    }

    /// Attaches a Safe-verdict witness.
    pub fn with_certificate(mut self, cert: crate::certify::Certificate) -> CheckOutcome {
        self.certificate = Some(cert);
        self
    }
}

/// Resource budget for one `check` call: the reproduction-scale
/// stand-in for the paper's 5 h / 32 GB per-benchmark limits.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Wall-clock limit (`None` = unlimited).
    pub timeout: Option<Duration>,
    /// Bound limit: maximum k / frame count.
    pub max_depth: u32,
    /// Cooperative cancellation flag shared with the run's SAT queries
    /// (and, in a portfolio, with the sibling engines). `None` means
    /// the run can only end via timeout or bound.
    pub stop: Option<Arc<AtomicBool>>,
    /// Deterministic fault injection forwarded to every SAT query (see
    /// [`satb::Chaos`]); robustness tests use it to prove engines
    /// survive mid-solve interrupts and stay correct on retry.
    pub chaos: Option<satb::Chaos>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            timeout: Some(Duration::from_secs(60)),
            max_depth: 4000,
            stop: None,
            chaos: None,
        }
    }
}

impl Budget {
    /// Attaches a shared stop flag, making the budget cancellable.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Budget {
        self.stop = Some(stop);
        self
    }

    /// Attaches deterministic SAT-level fault injection (testing only).
    pub fn with_chaos(mut self, chaos: satb::Chaos) -> Budget {
        self.chaos = Some(chaos);
        self
    }

    /// Computes the absolute deadline for a run starting now.
    pub fn deadline_from(&self, started: Instant) -> Option<Instant> {
        self.timeout.map(|t| started + t)
    }

    /// SAT limits for one query of a run started at `started`. The
    /// stop flag is threaded through so in-flight solves can be
    /// cancelled mid-search.
    pub fn sat_limits(&self, started: Instant) -> satb::Limits {
        satb::Limits {
            max_conflicts: None,
            deadline: self.deadline_from(started),
            stop: self.stop.clone(),
            chaos: self.chaos,
        }
    }

    /// What is left of this budget now, for a run that started at
    /// `started`: the timeout shrinks by the time spent so far, down to
    /// zero, and the bound, the stop flag and fault injection carry
    /// over. A run hands this to a sub-engine it starts, whose clock
    /// starts afresh, so that the sub-engine stops at the run's own
    /// deadline.
    pub fn remaining(&self, started: Instant) -> Budget {
        Budget {
            timeout: self.timeout.map(|t| t.saturating_sub(started.elapsed())),
            ..self.clone()
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self, started: Instant) -> bool {
        match self.deadline_from(started) {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Whether the shared stop flag has been raised.
    pub fn cancelled(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// Why the run must stop now, if it must: cancellation wins over
    /// timeout (it is the cheaper, deliberate signal). Engines call
    /// this between SAT queries and at loop heads.
    pub fn interruption(&self, started: Instant) -> Option<Unknown> {
        if self.cancelled() {
            Some(Unknown::Cancelled)
        } else if self.expired(started) {
            Some(Unknown::Timeout)
        } else {
            None
        }
    }
}

/// A bit-blasted netlist together with its compile-once CNF transition
/// template, shareable across engines.
///
/// Blasting, template compilation, static-invariant mining **and
/// SatELite-style preprocessing** are the up-front encoding cost of
/// every bit-level engine; a portfolio run pays all four **once** and
/// hands the same `Blasted` (cheap `Arc` clones) to every member
/// through [`Checker::check_blasted`], instead of once per member.
/// Every frame any member instantiates then inherits the simplified
/// image for free.
///
/// # The engine-image contract
///
/// [`of`](Blasted::of) first cuts the netlist to the property's cone of
/// influence with [`aig::refine_with_constants`] and no constant: every
/// latch that no bad output or constraint can observe
/// ([`aig::AigSystem::latch_coi`]) gets a **free** next state, so its
/// logic never reaches a solver. When the cut frees no latch, the
/// template is the raw one. It preprocesses that template once and runs
/// [`aig::analyze`] on the result, the image the engines solve, so a
/// clause that names a freed latch is not mined. It proves nothing: the
/// mined set ships unproven in [`invariant`](Blasted::invariant). The
/// set is proven once, against the raw, un-preprocessed template, by
/// whoever runs the engines: a portfolio race admits it before its
/// seats start
/// ([`Portfolio::check_detailed_blasted`](crate::portfolio::Portfolio::check_detailed_blasted)),
/// a solo caller calls [`certified`](Blasted::certified). Engines
/// assert only a proven set, read through
/// [`strengthening`](Blasted::strengthening). The image does not depend
/// on the invariant: no mined constant is folded into it.
///
/// The image of [`of`](Blasted::of) therefore matches `sys` in every
/// state on the latches in the cone
/// ([`aig::TransitionTemplate::latch_coi`]); the freed latches take any
/// value. A caller may build a `Blasted` of its own whose image matches
/// `sys` only on invariant states, such as one compiled from
/// [`aig::refine_with_constants`] with the invariant's constants folded
/// in; such a caller must prove the set (with
/// [`crate::certify::certify_invariant`]) and mark it proven in
/// [`invariant_certified`](Blasted::invariant_certified), or no engine
/// asserts it. Every consumer of [`template`](Blasted::template) must:
///
/// * assert [`strengthening`](Blasted::strengthening)'s clauses on the
///   current-state literals of **every** frame instantiated from it.
///   Initialized frames satisfy them automatically (proven-inductive
///   clauses hold in every reachable state), but free-state frames —
///   k-induction steps, interpolation B-frames, PDR frames — are
///   unsound on a constant-folded image without them;
/// * take trace states from simulation of `sys`, never from a model:
///   read the reset state and the inputs off the model and step `sys`
///   (the model's values for freed latches mean nothing);
/// * never ask a query to reach a value of a freed latch: its
///   next-state literal is unconstrained, so the answer would say
///   nothing about `sys` (PDR keeps its obligation cubes in the cone).
///
/// Because freeing a next state only adds behaviours, every inductive
/// invariant or k-inductive pair proven on the image also holds for
/// `sys`. `sys` itself stays the **original** netlist: traces replay on
/// it and certificates are re-checked against its raw template.
#[derive(Clone)]
pub struct Blasted {
    /// The bit-level netlist (always the original, whole system).
    pub sys: Arc<aig::AigSystem>,
    /// The frame-instantiable CNF image of its transition relation:
    /// cone-cut and preprocessed.
    pub template: Arc<aig::TransitionTemplate>,
    /// Counters of the preprocessing run.
    pub preproc_stats: satb::PreprocStats,
    /// The static invariant mined on the template (empty when mining
    /// found nothing or was cancelled, or when [`certified`] dropped a
    /// set that failed its proof). Unproven unless
    /// [`invariant_certified`](Blasted::invariant_certified) says so;
    /// engines read it only through [`strengthening`].
    ///
    /// [`certified`]: Blasted::certified
    /// [`strengthening`]: Blasted::strengthening
    pub invariant: Arc<aig::StaticInvariant>,
    /// Whether [`invariant`](Blasted::invariant) is proven against the
    /// raw template. [`of`](Blasted::of) proves nothing, so this is
    /// `false` whenever it mined a clause and `true` when the set is
    /// empty; [`certified`](Blasted::certified) sets it on a pass. A
    /// `false` beside an empty set means `certified` dropped a set that
    /// failed its proof — a soundness alarm worth surfacing, since the
    /// Houdini fixpoint should only ever emit inductive sets. A
    /// portfolio race proves the invariant again whatever this says.
    pub invariant_certified: bool,
}

impl Blasted {
    /// Blasts `ts`, cuts the template to the property's cone of
    /// influence, runs CNF preprocessing over it, and mines a static
    /// invariant on the result. The invariant ships unproven (see [the
    /// engine-image contract](Blasted#the-engine-image-contract)).
    pub fn of(ts: &TransitionSystem) -> Blasted {
        Blasted::of_netlist(aig::blast_system(ts))
    }

    /// [`of`](Blasted::of) after the blast.
    pub(crate) fn of_netlist(sys: aig::AigSystem) -> Blasted {
        let sys = Arc::new(sys);
        // With no latch freed (no CI added), the cut netlist is the raw
        // one rebuilt: keep the raw template.
        let cut = aig::refine_with_constants(&sys, &[]);
        let image = if cut.aig.num_cis() == sys.aig.num_cis() {
            &*sys
        } else {
            &cut
        };
        let pre = aig::TransitionTemplate::compile(image).preprocess();
        let invariant = aig::analyze(
            &sys,
            &pre.template,
            &aig::AnalysisConfig::default(),
            &satb::Limits::default(),
        );
        Blasted {
            sys,
            template: Arc::new(pre.template),
            preproc_stats: pre.stats,
            invariant_certified: invariant.is_empty(),
            invariant: Arc::new(invariant),
        }
    }

    /// This blast with its strengthening proven, for a caller that runs
    /// engines solo: [`crate::certify::certify_invariant`] checks
    /// [`invariant`](Blasted::invariant) against a freshly compiled raw
    /// template, whatever
    /// [`invariant_certified`](Blasted::invariant_certified) says. A
    /// passing set is kept and marked proven; a failing one is dropped,
    /// and the flag stays `false`. A portfolio race needs no call: it
    /// proves the set itself before its seats start.
    #[must_use]
    pub fn certified(self) -> Blasted {
        let proven = self.invariant.is_empty() || {
            let raw = aig::TransitionTemplate::compile(&self.sys);
            crate::certify::certify_invariant(&self.sys, &raw, &self.invariant.clauses).ok
        };
        if proven {
            return Blasted {
                invariant_certified: true,
                ..self
            };
        }
        let mut stats = self.invariant.stats.clone();
        stats.retained = 0;
        Blasted {
            invariant: Arc::new(aig::StaticInvariant {
                stats,
                ..aig::StaticInvariant::default()
            }),
            invariant_certified: false,
            ..self
        }
    }

    /// The strengthening every engine asserts on each frame it
    /// instantiates: [`invariant`](Blasted::invariant)'s clauses once
    /// they are proven
    /// ([`invariant_certified`](Blasted::invariant_certified)), and no
    /// clause before.
    pub fn strengthening(&self) -> &[crate::certify::LatchClause] {
        if self.invariant_certified {
            &self.invariant.clauses
        } else {
            &[]
        }
    }
}

/// A verification engine over word-level transition systems.
pub trait Checker {
    /// Short machine-readable engine name, e.g. `"abc-pdr"`.
    fn name(&self) -> &'static str;
    /// Checks all bad-state properties of `ts`.
    fn check(&self, ts: &TransitionSystem) -> CheckOutcome;
    /// Like [`check`](Checker::check), but with a pre-blasted netlist
    /// and transition template the engine may reuse instead of blasting
    /// `ts` itself. Bit-level engines override this; engines that do
    /// not operate on the bit-level netlist (word-level k-induction,
    /// the software analyzers) fall back to [`check`](Checker::check).
    fn check_blasted(&self, ts: &TransitionSystem, blasted: &Blasted) -> CheckOutcome {
        let _ = blasted;
        self.check(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Safe.to_string(), "SAFE");
        let t = Trace {
            states: vec![vec![false], vec![true]],
            inputs: vec![vec![], vec![]],
            bad_index: 0,
        };
        assert_eq!(Verdict::Unsafe(t).to_string(), "UNSAFE (cycle 1)");
        assert_eq!(
            Verdict::Unknown(Unknown::Timeout).to_string(),
            "UNKNOWN (timeout)"
        );
    }

    #[test]
    fn budget_deadline() {
        let b = Budget {
            timeout: Some(Duration::from_millis(1)),
            max_depth: 10,
            ..Budget::default()
        };
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.expired(t0));
        let unlimited = Budget {
            timeout: None,
            max_depth: 10,
            ..Budget::default()
        };
        assert!(!unlimited.expired(t0));
    }

    #[test]
    fn remaining_budget_shrinks_and_keeps_stop_and_chaos() {
        let stop = Arc::new(AtomicBool::new(false));
        let chaos = satb::Chaos {
            seed: 7,
            period: 100,
        };
        let b = Budget {
            timeout: Some(Duration::from_secs(1)),
            max_depth: 9,
            ..Budget::default()
        }
        .with_stop(stop.clone())
        .with_chaos(chaos);
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let left = b.remaining(started);
        let t = left.timeout.expect("a timeout stays a timeout");
        assert!(t <= Duration::from_millis(980), "{t:?}");
        assert_eq!(left.max_depth, 9);
        assert!(Arc::ptr_eq(left.stop.as_ref().expect("stop kept"), &stop));
        assert_eq!(left.chaos, Some(chaos));

        let spent = Budget {
            timeout: Some(Duration::from_millis(5)),
            ..b.clone()
        }
        .remaining(started);
        assert_eq!(spent.timeout, Some(Duration::ZERO), "saturates at zero");
        assert!(spent.expired(Instant::now()));
        let unlimited = Budget { timeout: None, ..b };
        assert_eq!(unlimited.remaining(started).timeout, None);
    }

    #[test]
    fn trace_replay_rejects_garbage() {
        use rtlir::{Sort, TransitionSystem};
        let mut ts = TransitionSystem::new("t");
        let s = ts.add_state("s", Sort::BOOL);
        let z = ts.pool_mut().constv(1, 0);
        let o = ts.pool_mut().constv(1, 1);
        ts.set_init(s, z);
        ts.set_next(s, o);
        let sv = ts.pool_mut().var(s);
        ts.add_bad(sv, "s set");
        let sys = aig::blast_system(&ts);
        // Valid trace: 0 -> 1 (bad).
        let good = Trace {
            states: vec![vec![false], vec![true]],
            inputs: vec![vec![], vec![]],
            bad_index: 0,
        };
        assert!(good.replays_on(&sys));
        // Wrong initial state.
        let bad_init = Trace {
            states: vec![vec![true]],
            inputs: vec![vec![]],
            bad_index: 0,
        };
        assert!(!bad_init.replays_on(&sys));
        // Non-bad final state.
        let not_bad = Trace {
            states: vec![vec![false]],
            inputs: vec![vec![]],
            bad_index: 0,
        };
        assert!(!not_bad.replays_on(&sys));
    }
}
