//! # Parallel PDR and lemma exchange
//!
//! Multi-core scaling beyond "race and cancel": N PDR workers
//! cooperate over one [`SharedFrames`] store (rIC3-style), and a
//! cross-seat [`LemmaBus`] feeds PDR's inductive clauses into the
//! k-induction and interpolation seats of the portfolio.
//!
//! ## Worker diversification
//!
//! Every worker runs the full single-solver PDR engine
//! ([`crate::pdr`]) on its own solver, but with a diversified
//! generalization profile (`pdr::Diversity`): worker 0 is the tuned
//! default (ternary widening + SAT-core lifting + activity-ordered
//! shrink), and each sibling disables one dimension while a per-worker
//! seed jitters the shrink order. Diverse generalizations of the same
//! obligation produce *different* blocking clauses — which is exactly
//! what makes sharing them profitable.
//!
//! ## The shared frame store and its sync points
//!
//! [`SharedFrames`] is lock-sharded by frame level (`level % SHARDS`);
//! each shard is an append-only log of `(level, cube, worker)` entries
//! with subsumption-on-insert (a new cube is rejected when an alive
//! entry at `>= level` subsumes it, and kills alive entries at
//! `<= level` that it subsumes). Workers keep a per-shard read cursor
//! — the generation counter — and sync at two points: the top of the
//! main solve loop (once per frontier level) and before each
//! obligation burst. A synced cube enters the worker through the same
//! `add_blocked` path as a locally derived one, via
//! [`satb::Solver::add_clause_activated_prenormalized`] on the frame's
//! activation group.
//!
//! ## Soundness of foreign-cube import
//!
//! A published cube at level `L` genuinely blocks only states
//! unreachable within `L` steps (induction over publication order),
//! so *verdicts* cannot be corrupted by imports. The Safe-verdict
//! *certificate*, however, rests on a stronger per-cube invariant:
//! every stored cube must be inductive relative to the importing
//! worker's **own** `F_{level-1}` — and a peer proved its cube only
//! relative to *its* frames, which this worker may not (yet) have, at
//! levels the import may clamp. Imports are therefore **re-verified**:
//! the worker runs its ordinary relative-induction query on the
//! foreign cube and stores it only on UNSAT (often shrunk further by
//! the failed-assumption core). Non-inductive imports are skipped, not
//! trusted. Every cube in every worker's frames — local or foreign —
//! thus carries a local proof, the fixpoint export stays a genuine
//! inductive invariant, and the portfolio's independent certification
//! re-checks it against the raw template exactly as for solo PDR.
//!
//! ## Cross-seat lemma broadcast
//!
//! PDR frame clauses are *not* globally inductive — `F_i` clauses hold
//! up to `i` steps only — so consumers cannot assert them blindly.
//! The [`LemmaBus`] (bounded per-consumer queues, drop-oldest
//! backpressure) carries candidate clauses from PDR's frontier to the
//! k-induction and interpolation seats, where a `LemmaGate` runs
//! Houdini-style incremental admission: a clause is accepted only if
//! (a) it contains a literal implied by the reset state (syntactic
//! initiation — PDR's init-disjoint cubes always provide one), and
//! (b) consecution relative to the already-accepted set holds:
//! `inv ∧ accepted ∧ C ∧ T ∧ ¬C′` is UNSAT on one template frame.
//! Admission is monotone — each clause was verified against a subset
//! of the final accepted set and premises only strengthen — so the
//! final conjunction is inductive relative to the certified static
//! invariant. Consumers assert accepted clauses on every frame
//! (k-induction base *and* step chains, interpolation's A-frame and
//! B-frames) and fold them into their certificates, which the
//! portfolio re-certifies against the raw template with an independent
//! solver: a gate bug can cost a verdict, never truth.

use crate::certify::{clause_on, LatchClause};
use crate::pdr::{subsumes, Cube, Diversity, PdrRun};
use crate::result::{Blasted, Budget, CheckOutcome, Checker, EngineStats, Unknown, Verdict};
use aig::{AigSystem, TransitionTemplate};
use rtlir::TransitionSystem;
use satb::{Domain, Limits, Lit, Part, SolveResult, Solver, Var};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Number of lock shards in [`SharedFrames`] (cubes map by
/// `level % SHARDS`).
pub(crate) const SHARDS: usize = 8;

/// Per-consumer queue bound of the [`LemmaBus`]; the oldest lemma is
/// dropped when a slow consumer falls this far behind (backpressure
/// must never block a publishing prover).
const BUS_CAPACITY: usize = 256;

/// Locks a mutex, surviving poisoning: a worker that panicked while
/// holding a shard lock (the portfolio isolates crashes with
/// `catch_unwind`) must not wedge its siblings — the store's data is a
/// monotone log plus `alive` flags, valid at every intermediate state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One published blocking cube.
#[derive(Debug)]
struct SharedCube {
    level: usize,
    cube: Cube,
    /// Publishing worker (imports skip their own entries).
    from: usize,
    /// Cleared when a later, stronger cube subsumes this entry.
    alive: bool,
}

#[derive(Debug, Default)]
struct Shard {
    entries: Vec<SharedCube>,
}

/// The shared frame store of a parallel PDR pool: lock-sharded
/// append-only logs of published blocking cubes, subsumption-checked
/// on insert, consumed via per-worker read cursors. See the
/// [module docs](self) for the soundness argument.
#[derive(Debug, Default)]
pub struct SharedFrames {
    shards: [Mutex<Shard>; SHARDS],
}

impl SharedFrames {
    /// An empty store.
    pub fn new() -> SharedFrames {
        SharedFrames::default()
    }

    /// Publishes a blocked cube; returns `false` when an alive entry
    /// at `>= level` already subsumes it (nothing new to share). The
    /// subsumption sweep visits every shard, one lock at a time — the
    /// check is a dedup optimization, so the lack of atomicity across
    /// shards costs at worst a duplicate entry, never soundness.
    pub(crate) fn publish(&self, level: usize, cube: Cube, from: usize) -> bool {
        for shard in &self.shards {
            let mut shard = lock(shard);
            if shard
                .entries
                .iter()
                .any(|e| e.alive && e.level >= level && subsumes(&e.cube, &cube))
            {
                return false;
            }
            for e in &mut shard.entries {
                if e.alive && e.level <= level && subsumes(&cube, &e.cube) {
                    e.alive = false;
                }
            }
        }
        lock(&self.shards[level % SHARDS]).entries.push(SharedCube {
            level,
            cube,
            from,
            alive: true,
        });
        true
    }

    /// Appends every alive foreign entry published since the worker's
    /// cursors to `out`, and advances the cursors (the generation
    /// counters) to the shard tails.
    pub(crate) fn collect_foreign(
        &self,
        worker: usize,
        cursors: &mut [usize; SHARDS],
        out: &mut Vec<(usize, Cube)>,
    ) {
        for (s, shard) in self.shards.iter().enumerate() {
            let shard = lock(shard);
            for e in &shard.entries[cursors[s]..] {
                if e.from != worker && e.alive {
                    out.push((e.level, e.cube.clone()));
                }
            }
            cursors[s] = shard.entries.len();
        }
    }

    /// All alive entries as `(level, cube)` pairs (tests, diagnostics).
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<(usize, Cube)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            out.extend(
                shard
                    .entries
                    .iter()
                    .filter(|e| e.alive)
                    .map(|e| (e.level, e.cube.clone())),
            );
        }
        out
    }

    /// Number of alive entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).entries.iter().filter(|e| e.alive).count())
            .sum()
    }

    /// Whether no alive entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Default)]
struct BusInner {
    queues: Mutex<Vec<Arc<Mutex<VecDeque<LatchClause>>>>>,
    dropped: AtomicU64,
}

/// Cross-seat lemma broadcast: bounded per-consumer queues with
/// drop-oldest backpressure. Clone handles freely; subscribe once per
/// consumer, then hand [`LemmaPublisher`]s to producers.
#[derive(Clone, Debug, Default)]
pub struct LemmaBus {
    inner: Arc<BusInner>,
}

impl LemmaBus {
    /// A bus with no subscribers yet.
    pub fn new() -> LemmaBus {
        LemmaBus::default()
    }

    /// Registers a consumer and returns its receiving end.
    pub fn subscribe(&self) -> LemmaReceiver {
        let q = Arc::new(Mutex::new(VecDeque::new()));
        lock(&self.inner.queues).push(Arc::clone(&q));
        LemmaReceiver { queue: q }
    }

    /// A publishing handle (producers fan out to every subscriber).
    pub fn publisher(&self) -> LemmaPublisher {
        LemmaPublisher {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Discards every queued lemma (a portfolio run clears leftovers
    /// from a previous check before racing; the consumer-side gate
    /// re-validates every clause against the current design anyway, so
    /// this is hygiene, not soundness).
    pub fn clear(&self) {
        for q in lock(&self.inner.queues).iter() {
            lock(q).clear();
        }
    }

    /// Lemmas dropped to backpressure since construction.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

/// The producing end of a [`LemmaBus`].
#[derive(Clone, Debug)]
pub struct LemmaPublisher {
    inner: Arc<BusInner>,
}

impl LemmaPublisher {
    /// Broadcasts one clause to every subscriber, dropping each
    /// subscriber's oldest entry when its queue is full.
    pub fn publish(&self, clause: &LatchClause) {
        for q in lock(&self.inner.queues).iter() {
            let mut q = lock(q);
            if q.len() >= BUS_CAPACITY {
                q.pop_front();
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            q.push_back(clause.clone());
        }
    }
}

/// The consuming end of a [`LemmaBus`].
#[derive(Clone, Debug)]
pub struct LemmaReceiver {
    queue: Arc<Mutex<VecDeque<LatchClause>>>,
}

impl LemmaReceiver {
    /// Takes every queued lemma.
    pub fn drain(&self) -> Vec<LatchClause> {
        lock(&self.queue).drain(..).collect()
    }
}

/// Consumer-side admission gate for broadcast lemmas (see the
/// [module docs](self)): Houdini-style incremental checking on one
/// template frame. Accepted clauses are inductive relative to the
/// static invariant plus the previously accepted set, so consumers may
/// assert the whole accepted prefix on any frame of any chain.
pub(crate) struct LemmaGate {
    solver: Solver,
    latch_cur: Vec<Lit>,
    latch_next: Vec<Lit>,
    inits: Vec<Option<bool>>,
    accepted: Vec<LatchClause>,
    /// Every clause ever offered (accepted or not): duplicates are
    /// answered `false` without a query — the consumer already asserted
    /// an accepted clause the first time.
    seen: HashSet<LatchClause>,
    /// Query scoping (see [`satb::domain`]): the base vocabulary every
    /// consecution check needs (latches, inputs, constraint cone) …
    base_dom: Vec<Var>,
    /// … plus, per candidate, the next-state cones of its latches.
    next_cones: Vec<Vec<Var>>,
    /// Reusable per-check decision domain.
    dom: Domain,
}

impl LemmaGate {
    /// One template frame with the certified static invariant asserted
    /// on its current-state side (the `Blasted` contract).
    pub(crate) fn new(sys: &AigSystem, tpl: &TransitionTemplate, inv: &[LatchClause]) -> LemmaGate {
        let mut solver = Solver::new();
        let vars = tpl.instantiate(&mut solver, Part::A, 0);
        for clause in inv {
            solver.add_clause(&clause_on(clause, &vars.latch_cur));
        }
        let mut dom = Domain::new();
        vars.extend_domain_base(tpl, &mut dom);
        let base_dom = dom.vars().to_vec();
        let next_cones: Vec<Vec<Var>> = (0..sys.latches.len())
            .map(|i| {
                dom.clear();
                vars.extend_domain(&mut dom, tpl.latch_next_cone(i));
                dom.vars().to_vec()
            })
            .collect();
        dom.clear();
        LemmaGate {
            solver,
            latch_cur: vars.latch_cur,
            latch_next: vars.latch_next,
            inits: sys.latches.iter().map(|l| l.init).collect(),
            accepted: Vec::new(),
            seen: HashSet::new(),
            base_dom,
            next_cones,
            dom,
        }
    }

    /// Checks one candidate clause; on acceptance it is asserted into
    /// the gate's premise (strengthening later checks) and `true` is
    /// returned — the caller must then assert it on its own frames.
    pub(crate) fn admit(&mut self, clause: &LatchClause, limits: Limits) -> bool {
        if clause.is_empty()
            || clause.iter().any(|&(i, _)| i >= self.latch_cur.len())
            || !self.seen.insert(clause.clone())
        {
            return false;
        }
        // Initiation, syntactically: some literal is implied by reset.
        if !clause.iter().any(|&(i, v)| self.inits[i] == Some(v)) {
            return false;
        }
        // Consecution relative to the accepted set:
        // inv ∧ accepted ∧ C ∧ T ∧ ¬C′ must be UNSAT.
        let cl = clause_on(clause, &self.latch_cur);
        let act = self.solver.new_activation();
        self.solver.add_clause_activated(act, &cl);
        let mut assumptions = vec![act];
        for &(i, v) in clause {
            assumptions.push(if v {
                !self.latch_next[i]
            } else {
                self.latch_next[i]
            });
        }
        // Cone-restricted consecution: decisions stay inside the
        // candidate's cone of influence. The admission only acts on
        // UNSAT (unconditionally sound); the Sat side rejects, which
        // costs at most a lemma, never truth.
        self.dom.clear();
        self.dom.extend(self.base_dom.iter().copied());
        self.dom.extend(assumptions.iter().map(|l| l.var()));
        for &(i, _) in clause {
            self.dom.extend(self.next_cones[i].iter().copied());
        }
        let res = self
            .solver
            .solve_with_domain(&assumptions, limits, &self.dom);
        self.solver.release_activation(act);
        if res == SolveResult::Unsat {
            self.solver.add_clause(&cl);
            self.accepted.push(clause.clone());
            true
        } else {
            false
        }
    }

    /// Every clause accepted so far (consumers fold these into their
    /// certificates).
    pub(crate) fn accepted(&self) -> &[LatchClause] {
        &self.accepted
    }
}

/// Parallel PDR: races N diversified workers over one [`SharedFrames`]
/// store; the first definite verdict wins and cancels the rest, and
/// the pooled statistics (lemmas exported/imported, sync rounds) are
/// summed across workers.
#[derive(Clone, Debug)]
pub struct ParallelPdr {
    /// Resource limits, shared by every worker.
    pub budget: Budget,
    /// Worker count (clamped to at least 1).
    pub workers: usize,
    /// Optional cross-seat broadcast; worker 0 (the tuned default
    /// profile) publishes its frontier clauses.
    pub bus: Option<LemmaPublisher>,
}

impl ParallelPdr {
    /// A pool of `workers` diversified PDR workers.
    pub fn new(budget: Budget, workers: usize) -> ParallelPdr {
        ParallelPdr {
            budget,
            workers: workers.max(1),
            bus: None,
        }
    }

    /// Attaches a cross-seat lemma publisher (worker 0 broadcasts).
    #[must_use]
    pub fn with_bus(mut self, bus: LemmaPublisher) -> ParallelPdr {
        self.bus = Some(bus);
        self
    }

    /// Runs the pool; returns the winning outcome and the shared store
    /// (exposed for tests and diagnostics).
    pub(crate) fn run(
        &self,
        sys: &AigSystem,
        tpl: &TransitionTemplate,
        inv: &[LatchClause],
    ) -> (CheckOutcome, Arc<SharedFrames>) {
        let started = Instant::now();
        let workers = self.workers.max(1);
        let store = Arc::new(SharedFrames::new());
        // The pool-internal stop flag: raised by the first definite
        // verdict, or forwarded from the caller's budget.
        let race = Arc::new(AtomicBool::new(false));
        let external = self.budget.stop.clone();
        let (tx, rx) = mpsc::channel::<(usize, CheckOutcome)>();
        let outcome = std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let store = Arc::clone(&store);
                let bus = if w == 0 { self.bus.clone() } else { None };
                let budget = Budget {
                    stop: Some(Arc::clone(&race)),
                    ..self.budget.clone()
                };
                scope.spawn(move || {
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut run = PdrRun::new(sys, tpl, inv, budget);
                        run.set_diversity(Diversity::for_worker(w));
                        run.attach_shared(store, w);
                        if let Some(bus) = bus {
                            run.attach_bus(bus);
                        }
                        run.solve()
                    }))
                    .unwrap_or_else(|_| {
                        CheckOutcome::finish(
                            Verdict::Unknown(Unknown::Crashed(format!("par-pdr worker {w}"))),
                            EngineStats::default(),
                            Instant::now(),
                        )
                    });
                    let _ = tx.send((w, out));
                });
            }
            drop(tx);
            let mut stats = EngineStats::default();
            let mut winner: Option<CheckOutcome> = None;
            let mut fallback: Option<CheckOutcome> = None;
            let mut done = 0;
            while done < workers {
                match rx.recv_timeout(Duration::from_millis(5)) {
                    Ok((_w, out)) => {
                        done += 1;
                        // Workers' solvers coexist, so arena peaks sum
                        // like every other counter; depth is the deepest.
                        stats.depth = stats.depth.max(out.stats.depth);
                        stats += &out.stats;
                        let definite = matches!(out.outcome, Verdict::Safe | Verdict::Unsafe(_));
                        if definite && winner.is_none() {
                            race.store(true, Ordering::Relaxed);
                            winner = Some(out);
                        } else if !definite {
                            // Prefer an informative Unknown (bound /
                            // timeout) over a co-operative Cancelled.
                            let informative =
                                !matches!(out.outcome, Verdict::Unknown(Unknown::Cancelled));
                            if fallback.is_none()
                                || (informative
                                    && matches!(
                                        fallback.as_ref().map(|f| &f.outcome),
                                        Some(Verdict::Unknown(Unknown::Cancelled))
                                    ))
                            {
                                fallback = Some(out);
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Forward the caller's cancellation into the pool.
                        if external.as_ref().is_some_and(|e| e.load(Ordering::Relaxed)) {
                            race.store(true, Ordering::Relaxed);
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            let chosen = winner.or(fallback).unwrap_or_else(|| {
                CheckOutcome::finish(
                    Verdict::Unknown(Unknown::Crashed("par-pdr pool".into())),
                    EngineStats::default(),
                    started,
                )
            });
            let certificate = chosen.certificate.clone();
            stats.depth = stats.depth.max(chosen.stats.depth);
            let mut out = CheckOutcome::finish(chosen.outcome, stats, started);
            out.certificate = certificate;
            out
        });
        (outcome, store)
    }
}

impl Checker for ParallelPdr {
    fn name(&self) -> &'static str {
        "par-pdr"
    }

    fn check(&self, ts: &TransitionSystem) -> CheckOutcome {
        let sys = aig::blast_system(ts);
        let tpl = TransitionTemplate::compile(&sys).preprocess().template;
        self.run(&sys, &tpl, &[]).0
    }

    fn check_blasted(&self, _ts: &TransitionSystem, blasted: &Blasted) -> CheckOutcome {
        let mut out = self
            .run(&blasted.sys, &blasted.template, &blasted.invariant.clauses)
            .0;
        blasted.stamp(&mut out.stats);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use satb::Chaos;

    fn random_system(seed: u64) -> AigSystem {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        aig::testutil::random_system(&mut rng, &aig::testutil::RandomSystemConfig::default())
    }

    fn bounded(max_depth: u32) -> Budget {
        Budget {
            timeout: None,
            max_depth,
            ..Budget::default()
        }
    }

    /// Bus mechanics: fan-out to every subscriber, drop-oldest
    /// backpressure, and clear.
    #[test]
    fn bus_fans_out_and_drops_oldest() {
        let bus = LemmaBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        let tx = bus.publisher();
        for i in 0..(BUS_CAPACITY + 10) {
            tx.publish(&vec![(i, true)]);
        }
        let got = a.drain();
        assert_eq!(got.len(), BUS_CAPACITY, "bounded queue");
        assert_eq!(got[0], vec![(10, true)], "oldest entries dropped");
        assert_eq!(bus.dropped(), 20, "10 drops on each of 2 subscribers");
        bus.clear();
        assert!(b.drain().is_empty(), "clear discards unread lemmas");
    }

    /// Store mechanics: subsumption on insert (both directions) and
    /// cursor-based foreign collection.
    #[test]
    fn shared_store_subsumes_and_syncs() {
        let store = SharedFrames::new();
        assert!(store.publish(2, vec![(0, true), (1, false)], 0));
        // Weaker cube at a lower level: subsumed, rejected.
        assert!(!store.publish(1, vec![(0, true), (1, false), (2, true)], 1));
        // Stronger cube at a higher level: accepted, kills the first.
        assert!(store.publish(3, vec![(0, true)], 1));
        assert_eq!(store.len(), 1);
        let mut cursors = [0usize; SHARDS];
        let mut out = Vec::new();
        store.collect_foreign(1, &mut cursors, &mut out);
        assert!(out.is_empty(), "own entries are skipped (worker 1)");
        let mut cursors0 = [0usize; SHARDS];
        store.collect_foreign(0, &mut cursors0, &mut out);
        assert_eq!(out, vec![(3, vec![(0, true)])]);
        out.clear();
        store.collect_foreign(0, &mut cursors0, &mut out);
        assert!(out.is_empty(), "cursors advance past consumed entries");
    }

    /// The admission gate accepts a genuinely inductive clause,
    /// rejects a non-inductive one and a reset-violating one, and
    /// answers duplicates without re-checking.
    #[test]
    fn lemma_gate_admits_only_inductive_clauses() {
        // Two latches from reset 0: `a` holds its value (a = 0 is
        // inductive), `b` toggles every cycle (b = 0 is not).
        let mut ts = TransitionSystem::new("gate");
        let a = ts.add_state("a", rtlir::Sort::BOOL);
        let b = ts.add_state("b", rtlir::Sort::BOOL);
        let (av, bv) = {
            let p = ts.pool_mut();
            (p.var(a), p.var(b))
        };
        let nb = ts.pool_mut().not(bv);
        let zero = ts.pool_mut().constv(1, 0);
        ts.set_init(a, zero);
        ts.set_init(b, zero);
        ts.set_next(a, av);
        ts.set_next(b, nb);
        ts.add_bad(av, "a set");
        let sys = aig::blast_system(&ts);
        let tpl = TransitionTemplate::compile(&sys);
        let mut gate = LemmaGate::new(&sys, &tpl, &[]);
        let a_zero: LatchClause = vec![(0, false)];
        let b_zero: LatchClause = vec![(1, false)];
        let a_one: LatchClause = vec![(0, true)];
        assert!(gate.admit(&a_zero, Limits::default()), "a=0 is inductive");
        assert!(
            !gate.admit(&b_zero, Limits::default()),
            "b toggles: consecution fails"
        );
        assert!(
            !gate.admit(&a_one, Limits::default()),
            "a=1 violates the reset state"
        );
        assert!(
            !gate.admit(&a_zero, Limits::default()),
            "duplicates are answered without re-asserting"
        );
        assert_eq!(gate.accepted(), &[a_zero]);
        // Out-of-range latch indices (stale lemmas from another
        // design) are rejected, never indexed.
        assert!(!gate.admit(&vec![(99, true)], Limits::default()));
    }

    /// Verdict agreement: parallel PDR with 1, 2 and 4 workers agrees
    /// with solo PDR on random sequential AIGs; Unsafe traces replay
    /// and Safe certificates check.
    #[test]
    fn agrees_with_solo_pdr_on_random_systems() {
        for seed in 0u64..12 {
            let sys = random_system(seed);
            let tpl = TransitionTemplate::compile(&sys);
            let solo = crate::pdr::Pdr::new(bounded(64)).run(&sys, &tpl, &[]);
            for workers in [1usize, 2, 4] {
                let (out, _store) = ParallelPdr::new(bounded(64), workers).run(&sys, &tpl, &[]);
                match (&solo.outcome, &out.outcome) {
                    (Verdict::Safe, Verdict::Safe) => {
                        let rep = certify(&sys, &out);
                        assert!(
                            rep.ok,
                            "seed {seed} workers={workers}: certificate failed: {:?}",
                            rep.failure
                        );
                    }
                    (Verdict::Unsafe(_), Verdict::Unsafe(t)) => {
                        assert!(
                            t.replays_on(&sys),
                            "seed {seed} workers={workers}: trace must replay"
                        );
                    }
                    (Verdict::Unknown(_), Verdict::Unknown(_)) => {}
                    other => {
                        panic!("seed {seed} workers={workers}: verdicts diverge: {other:?}")
                    }
                }
            }
        }
    }

    /// Chaos mid-broadcast: cancelling workers in the middle of store
    /// traffic leaves both the workers and the shared store clean —
    /// the pool returns a clean verdict (certified when definite),
    /// every surviving store cube is well-formed and init-disjoint,
    /// and a calm re-run converges and certifies.
    #[test]
    fn cancellation_mid_broadcast_leaves_pool_clean() {
        for seed in 0u64..8 {
            let sys = random_system(seed);
            let tpl = TransitionTemplate::compile(&sys);
            for chaos_seed in 0u64..3 {
                let chaotic = bounded(24).with_chaos(Chaos {
                    seed: chaos_seed,
                    period: 3,
                });
                let (out, store) = ParallelPdr::new(chaotic, 3).run(&sys, &tpl, &[]);
                match &out.outcome {
                    Verdict::Safe | Verdict::Unsafe(_) => {
                        let rep = certify(&sys, &out);
                        assert!(
                            rep.ok,
                            "seed {seed}/{chaos_seed}: chaotic verdict failed: {:?}",
                            rep.failure
                        );
                    }
                    Verdict::Unknown(_) => {}
                }
                // The store must hold only well-formed, init-disjoint
                // cubes — a cancelled publish never leaves half an entry.
                for (level, cube) in store.snapshot() {
                    assert!(level >= 1, "stored at level 0: {cube:?}");
                    assert!(
                        cube.windows(2).all(|w| w[0].0 < w[1].0),
                        "cube not sorted/distinct: {cube:?}"
                    );
                    assert!(
                        cube.iter()
                            .any(|&(i, v)| { sys.latches[i].init.is_some_and(|init| init != v) }),
                        "stored cube intersects init: {cube:?}"
                    );
                }
            }
            // Clean retry on a fresh pool: the residue of cancelled
            // runs must not poison a later answer.
            let (calm, _s) = ParallelPdr::new(bounded(64), 2).run(&sys, &tpl, &[]);
            if matches!(calm.outcome, Verdict::Safe | Verdict::Unsafe(_)) {
                let rep = certify(&sys, &calm);
                assert!(
                    rep.ok,
                    "seed {seed}: post-chaos verdict failed: {:?}",
                    rep.failure
                );
            }
        }
    }

    /// The pool solves the standard designs and pools its stats:
    /// with 2+ workers on a design with real work, cubes flow through
    /// the store (exports > 0) and sync rounds happen.
    #[test]
    fn pool_shares_lemmas_on_real_designs() {
        let ts = crate::bmc::tests::counter_ts(9, 8);
        let sys = aig::blast_system(&ts);
        let tpl = TransitionTemplate::compile(&sys);
        let (out, store) = ParallelPdr::new(bounded(64), 2).run(&sys, &tpl, &[]);
        match &out.outcome {
            Verdict::Unsafe(t) => assert!(t.replays_on(&sys), "trace must replay"),
            other => panic!("counter_ts(9,8) must be Unsafe, got {other:?}"),
        }
        assert!(
            out.stats.lemmas_exported > 0,
            "workers must publish cubes: {:?}",
            out.stats
        );
        assert!(!store.is_empty(), "the store must retain cubes");
    }
}
